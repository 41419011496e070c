//! The machine's current speed, sampled through a run by a fixed reference
//! computation that uses no repository code: clipping a square by a fixed
//! sequence of half-planes, the floating-point work the arrangement layer
//! does. On a shared host the speed of a core drifts in waves of seconds by
//! tens of percent, and a query and this computation slow down together, so
//! the end-to-end timings are reported in reference-machine time: each
//! measured time × [`REFERENCE_MS`] / the median of the samples taken
//! nearest to it. The drift cancels; what the repository's code costs stays.
//! The record keeps each measured value as `raw.<name>`.

use std::time::{Duration, Instant};

/// What the reference computation takes on the reference machine (about
/// its median on an idle 2-vCPU Xeon VM).
pub const REFERENCE_MS: f64 = 1.0;
/// Least time between two samples of a loop, so sampling costs about 2% of it.
pub const SAMPLE_EVERY: Duration = Duration::from_millis(50);
/// Samples on each side of a timing that give its speed.
pub const WINDOW: usize = 3;
/// Polygons the reference computation clips, and half-planes per polygon.
const POLYGONS: usize = 400;
const CUTS: usize = 24;

/// The reference computation: clips the unit square by `CUTS` pseudo-random
/// half-planes near its centre, `POLYGONS` times, and sums the areas. The
/// work is identical on every call.
fn reference_computation(poly: &mut Vec<(f64, f64)>, out: &mut Vec<(f64, f64)>) -> f64 {
    let mut state: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut uniform = || {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let mut twice_area = 0.0;
    for _ in 0..POLYGONS {
        poly.clear();
        poly.extend_from_slice(&[(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]);
        for _ in 0..CUTS {
            let angle = uniform() * std::f64::consts::TAU;
            let (a, b) = (angle.cos(), angle.sin());
            let c = 0.5 * (a + b) + 0.05 + 0.4 * uniform();
            out.clear();
            for (i, &p) in poly.iter().enumerate() {
                let q = poly[(i + 1) % poly.len()];
                let (fp, fq) = (a * p.0 + b * p.1 - c, a * q.0 + b * q.1 - c);
                if fp <= 0.0 {
                    out.push(p);
                }
                if (fp < 0.0) != (fq < 0.0) && fp != fq {
                    let t = fp / (fp - fq);
                    out.push((p.0 + t * (q.0 - p.0), p.1 + t * (q.1 - p.1)));
                }
            }
            std::mem::swap(poly, out);
            if poly.len() < 3 {
                break;
            }
        }
        let n = poly.len();
        twice_area += (0..n)
            .map(|i| {
                let (p, q) = (poly[i], poly[(i + 1) % n]);
                p.0 * q.1 - q.0 * p.1
            })
            .sum::<f64>();
    }
    twice_area
}

/// The speed samples of a run: when each was taken and what the reference
/// computation took, in milliseconds.
#[derive(Default)]
pub struct SpeedProbe {
    samples: Vec<(Instant, f64)>,
    spent: Duration,
    poly: Vec<(f64, f64)>,
    out: Vec<(f64, f64)>,
}

impl SpeedProbe {
    pub fn new() -> Self {
        Self::default()
    }

    /// Times one reference computation.
    pub fn sample(&mut self) {
        let start = Instant::now();
        std::hint::black_box(reference_computation(&mut self.poly, &mut self.out));
        let took = start.elapsed();
        self.samples.push((start, took.as_secs_f64() * 1e3));
        self.spent += took;
    }

    /// Samples when [`SAMPLE_EVERY`] has passed since the last sample.
    pub fn tick(&mut self) {
        if self
            .samples
            .last()
            .is_none_or(|(at, _)| at.elapsed() >= SAMPLE_EVERY)
        {
            self.sample();
        }
    }

    /// Total time the samples took, to take out of a phase's elapsed time.
    pub fn spent(&self) -> Duration {
        self.spent
    }

    pub fn samples(&self) -> usize {
        self.samples.len()
    }

    /// Median reference time over the run, in milliseconds.
    pub fn median_ms(&self) -> f64 {
        crate::stats::median(&self.samples.iter().map(|s| s.1).collect::<Vec<_>>())
    }

    /// The factor that turns a time measured at `at` into reference-machine
    /// time: [`REFERENCE_MS`] over the median of the [`WINDOW`] samples on
    /// each side of `at`.
    pub fn scale_at(&self, at: Instant) -> f64 {
        let i = self.samples.partition_point(|s| s.0 <= at);
        let near = &self.samples[i.saturating_sub(WINDOW)..(i + WINDOW).min(self.samples.len())];
        REFERENCE_MS / crate::stats::median(&near.iter().map(|s| s.1).collect::<Vec<_>>())
    }

    /// Each `(start, time)` in reference-machine time.
    pub fn normalise(&self, timed: &[(Instant, f64)]) -> Vec<f64> {
        timed.iter().map(|&(at, t)| t * self.scale_at(at)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_computation_is_fixed() {
        let (mut poly, mut out) = (Vec::new(), Vec::new());
        let first = reference_computation(&mut poly, &mut out);
        assert_eq!(first, reference_computation(&mut poly, &mut out));
        // Each clipped polygon is a non-empty part of the unit square.
        assert!(first > 0.0 && first < 2.0 * POLYGONS as f64, "{first}");
    }

    #[test]
    fn timings_scale_by_the_nearest_samples() {
        let mut probe = SpeedProbe::new();
        probe.sample();
        probe.tick();
        assert_eq!(probe.samples(), 1, "a tick right after a sample waits");
        let t0 = probe.samples[0].0;
        // Ten samples of 1 ms, then ten of 3 ms, a second apart: a timing is
        // scaled by the samples nearest to it.
        probe.samples = (0..20)
            .map(|i| {
                let ms = if i < 10 { 1.0 } else { 3.0 };
                (t0 + Duration::from_secs(i), ms)
            })
            .collect();
        let early = t0 + Duration::from_millis(2_500);
        let late = t0 + Duration::from_millis(16_500);
        let scaled = probe.normalise(&[(early, 2.0), (late, 6.0)]);
        assert_eq!(scaled, vec![2.0 * REFERENCE_MS, 2.0 * REFERENCE_MS]);
        assert_eq!(probe.median_ms(), 1.0);
    }
}
