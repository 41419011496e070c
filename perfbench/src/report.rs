//! A run's record: environment, every metric by name with its unit, and the
//! result line. The full record goes to standard error; the last line of
//! standard output carries the metrics `BENCHMARK.json` names for the mode.

use crate::speed::SpeedProbe;
use crate::stats::valid_metric_name;
use std::fmt::Write as _;
use std::path::Path;

/// End-to-end metrics: every untraced run prints each of them.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("query_p50_ms", "ms"),
    ("query_p90_ms", "ms"),
    ("throughput_qps", "1/s"),
    ("update_p50_ms", "ms"),
    ("update_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics every traced run prints. Layer metrics that exist on one
/// workload only (the serving layer, generator lateness) are in the record
/// on standard error.
pub const PER_LAYER: [(&str, &str); 29] = [
    ("road.rangefilter.ms", "ms"),
    ("road.rangefilter.kept_share", "ratio"),
    ("road.rangefilter.sweep_share", "ratio"),
    ("core.ktcore.peel_ms", "ms"),
    ("core.ktcore.core_size", "count"),
    ("dom.dominance.ms", "ms"),
    ("dom.dominance.tests", "count"),
    ("core.context.assemble_ms", "ms"),
    ("core.global.explore_ms", "ms"),
    ("core.global.cells", "count"),
    ("core.global.memory_bytes", "bytes"),
    ("geom.partitions", "count"),
    ("geom.halfspaces", "count"),
    ("geom.insertions", "count"),
    ("core.session.execute_ms", "ms"),
    ("core.session.residual_ms", "ms"),
    ("core.ctxcache.hit_rate", "ratio"),
    ("core.ctxcache.evictions", "count"),
    ("core.ctxcache.invalidations", "count"),
    ("core.ctxcache.entry_bytes", "bytes"),
    ("core.engine.update_ms", "ms"),
    ("road.gtree.refresh_ms", "ms"),
    ("road.gtree.dirty_fraction", "ratio"),
    ("road.gtree.patched_share", "ratio"),
    ("core.engine.targets_refreshed", "count"),
    ("core.engine.recalibrations", "count"),
    ("road.gtree.build_s", "s"),
    ("core.engine.build_s", "s"),
    ("bench.result_bearing_share", "ratio"),
];

/// One run's record.
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// The machine's speed, sampled through the run by every phase.
    pub speed: SpeedProbe,
    metrics: Vec<(String, f64, String)>,
    notes: Vec<(String, String)>,
}

impl Report {
    pub fn new(workload: &str, seed: u64, trace: bool) -> Self {
        let mut report = Report {
            attempted: 0,
            failed: 0,
            speed: SpeedProbe::new(),
            metrics: Vec::new(),
            notes: Vec::new(),
        };
        report.note("workload", workload);
        report.note("seed", &seed.to_string());
        report.note("trace", &trace.to_string());
        report.note("nproc", &nproc().to_string());
        report.note("commit", &git_commit());
        report.note("source_digest", &format!("{:016x}", source_digest()));
        let profile = if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        };
        report.note("profile", profile);
        report
    }

    pub fn metric(&mut self, name: &str, value: f64, unit: &str) {
        assert!(valid_metric_name(name), "invalid metric name {name:?}");
        self.metrics
            .push((name.to_string(), value, unit.to_string()));
    }

    /// Records a timing in reference-machine time as `name` and as measured
    /// as `raw.<name>` (see `speed.rs`).
    pub fn timing(&mut self, name: &str, raw: f64, value: f64, unit: &str) {
        self.metric(&format!("raw.{name}"), raw, unit);
        self.metric(name, value, unit);
    }

    pub fn note(&mut self, key: &str, value: &str) {
        self.notes.push((key.to_string(), value.to_string()));
    }

    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .rev()
            .find(|(n, _, _)| n == name)
            .map(|m| m.1)
    }

    /// The full record, one JSON object.
    pub fn record_json(&self) -> String {
        let mut s = String::from("{\"env\": {");
        for (i, (k, v)) in self.notes.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(s, "{sep}\"{k}\": \"{}\"", v.replace('"', "'"));
        }
        let _ = write!(
            s,
            "}}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.attempted, self.failed
        );
        for (i, (n, v, u)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
                json_number(*v)
            );
        }
        s.push_str("}}");
        s
    }

    /// The result line: `correct`, `attempted`, `failed` and the metrics the
    /// mode requires, each as measured. Errors when one is missing, not
    /// finite, or carries another unit than `BENCHMARK.json` gives it.
    pub fn result_line(&self, trace: bool) -> Result<String, String> {
        let wanted: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0,
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, unit)) in wanted.iter().enumerate() {
            let value = self
                .value(name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}"));
            }
            if let Some((_, _, u)) = self.metrics.iter().find(|(n, _, _)| n == name) {
                if u != unit {
                    return Err(format!("metric {name} has unit {u}, expected {unit}"));
                }
            }
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        s.push_str("}}");
        Ok(s)
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Peak resident memory of this process in MB (`VmHWM`), when the platform
/// reports it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The commit of the checkout, read from `.git` in the working directory
/// without running git; `unknown` outside a git checkout.
fn git_commit() -> String {
    let read = |p: &str| std::fs::read_to_string(Path::new(".git").join(p)).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(id) = read(reference) {
        return id.trim().to_string();
    }
    read("packed-refs")
        .and_then(|packed| {
            packed
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// FNV-1a digest of the library and benchmark sources (paths and contents,
/// in sorted order), so records of different code never compare silently
/// when the checkout carries no commit id.
fn source_digest() -> u64 {
    fn walk(dir: &Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, files);
            } else if path.extension().is_some_and(|e| e == "rs" || e == "toml") {
                files.push(path);
            }
        }
    }
    let mut files = Vec::new();
    for root in ["crates", "perfbench/src"] {
        walk(Path::new(root), &mut files);
    }
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut feed = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for file in files {
        feed(file.to_string_lossy().as_bytes());
        if let Ok(bytes) = std::fs::read(&file) {
            feed(&bytes);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_metric_name_is_valid_and_unique() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|(n, _)| *n)
            .collect();
        assert!(names.iter().all(|n| valid_metric_name(n)), "{names:?}");
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "metric names must be unique");
    }

    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = json.matches("\"unit\":").count();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn result_line_requires_every_metric() {
        let mut report = Report::new("unit", 1, false);
        report.attempted = 3;
        for (name, unit) in END_TO_END.iter().skip(1) {
            report.metric(name, 1.5, unit);
        }
        assert!(report.result_line(false).is_err());
        report.metric("setup_s", 0.25, "s");
        let line = report.result_line(false).unwrap();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        assert!(line.contains("\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}"));
        report.metric("query_p50_ms", f64::NAN, "ms");
        assert!(report.result_line(false).is_err());
    }
}
