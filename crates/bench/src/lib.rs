//! # rsn-bench
//!
//! Benchmark harness reproducing every table and figure of the paper's
//! evaluation section (see DESIGN.md §5 for the experiment index and
//! EXPERIMENTS.md for recorded results).
//!
//! The harness binaries in `src/bin/` print the same rows/series the paper
//! reports; the Criterion benches in `benches/` give statistically robust
//! timings for the core building blocks. Dataset sizes default to a laptop
//! scale (a fraction of the paper's server-scale datasets); the shapes —
//! which algorithm wins, by roughly what factor, and how costs scale in each
//! parameter — are the reproduction target, not absolute seconds.

pub mod params;
pub mod runner;

pub use params::{ParamSpace, SweepValues};
pub use runner::{measure_all, AlgoTimings, QuerySpec};
