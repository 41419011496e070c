//! Small statistics and input-generation helpers shared by the workloads:
//! nearest-rank percentiles, the Zipf popularity law, the Poisson arrival
//! schedule, and the metric-name rule.

use rand::prelude::*;
use rand::rngs::StdRng;
use std::time::Duration;

/// Nearest-rank percentile of an ascending slice: the smallest sample with at
/// least `p`% of the samples at or below it. `None` on an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Sorts `values` ascending (all must be finite) and returns them.
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    values
}

/// Median of unsorted samples (nearest rank); 0 when there are none.
pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values.to_vec()), 50.0).unwrap_or(0.0)
}

/// Cumulative distribution of the Zipf law over ranks `0..n`: rank `r` has
/// weight `1 / (r + 1)^s`. The last entry is exactly 1.
pub fn zipf_cdf(n: usize, s: f64) -> Vec<f64> {
    let weights: Vec<f64> = (0..n).map(|r| 1.0 / ((r + 1) as f64).powf(s)).collect();
    let total: f64 = weights.iter().sum();
    let mut acc = 0.0;
    let mut cdf: Vec<f64> = weights
        .iter()
        .map(|w| {
            acc += w / total;
            acc
        })
        .collect();
    if let Some(last) = cdf.last_mut() {
        *last = 1.0;
    }
    cdf
}

/// Draws a rank from a [`zipf_cdf`].
pub fn sample_zipf(cdf: &[f64], rng: &mut StdRng) -> usize {
    let u: f64 = rng.random_range(0.0..1.0);
    cdf.partition_point(|&c| c <= u).min(cdf.len() - 1)
}

/// Due times (offsets from the start) of `count` Poisson arrivals at
/// `rate_hz`: exponential gaps drawn from `rng`.
pub fn poisson_schedule(count: usize, rate_hz: f64, rng: &mut StdRng) -> Vec<Duration> {
    let mut at = 0.0f64;
    (0..count)
        .map(|_| {
            let u: f64 = rng.random_range(0.0..1.0);
            at += -(1.0 - u).ln() / rate_hz;
            Duration::from_secs_f64(at)
        })
        .collect()
}

/// Whether `name` is a valid metric name: non-empty, made of ASCII letters,
/// digits, `_`, `.` and `-`, at most 64 characters, starting with a letter or
/// digit.
pub fn valid_metric_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentile() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), Some(5.0));
        assert_eq!(percentile(&xs, 90.0), Some(9.0));
        assert_eq!(percentile(&xs, 91.0), Some(10.0));
        assert_eq!(percentile(&xs, 99.0), Some(10.0));
        assert_eq!(percentile(&xs, 0.0), Some(1.0));
        assert_eq!(percentile(&[7.0], 99.0), Some(7.0));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn zipf_cdf_matches_the_law() {
        let cdf = zipf_cdf(4, 1.0);
        let total = 1.0 + 0.5 + 1.0 / 3.0 + 0.25;
        assert!((cdf[0] - 1.0 / total).abs() < 1e-12);
        assert!((cdf[1] - 1.5 / total).abs() < 1e-12);
        assert_eq!(cdf[3], 1.0);
        assert!(cdf.windows(2).all(|w| w[0] < w[1]));
        // Rank 0 is drawn about 1/total of the time.
        let mut rng = StdRng::seed_from_u64(1);
        let hits = (0..20_000)
            .filter(|_| sample_zipf(&cdf, &mut rng) == 0)
            .count();
        let share = hits as f64 / 20_000.0;
        assert!((share - 1.0 / total).abs() < 0.02, "rank-0 share {share}");
    }

    #[test]
    fn poisson_schedule_repeats_for_equal_seeds() {
        let a = poisson_schedule(500, 100.0, &mut StdRng::seed_from_u64(9));
        let b = poisson_schedule(500, 100.0, &mut StdRng::seed_from_u64(9));
        let c = poisson_schedule(500, 100.0, &mut StdRng::seed_from_u64(10));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        // 500 arrivals at 100/s span about five seconds.
        let span = a.last().unwrap().as_secs_f64();
        assert!((3.5..6.5).contains(&span), "span {span}");
    }

    #[test]
    fn metric_names_follow_the_rule() {
        assert!(valid_metric_name("road.rangefilter.kept_share"));
        assert!(valid_metric_name("query_p50_ms"));
        assert!(!valid_metric_name(""));
        assert!(!valid_metric_name(".hidden"));
        assert!(!valid_metric_name("a b"));
        assert!(!valid_metric_name("p99/ms"));
    }
}
