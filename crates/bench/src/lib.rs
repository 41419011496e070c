//! # rsn-bench
//!
//! Binaries reproducing the tables and figures of the paper's evaluation
//! section, one per table or figure group in `src/bin/`: `table2_datasets`,
//! `fig_sweeps` (Figs. 6–10), `fig11_scalability`, `fig12_ratio`,
//! `fig13_14_comparison` and the `case_study_*` pair (Figs. 15–16). Each
//! prints the rows or series the paper reports. [`params`] holds the
//! Table-III parameter space and [`runner`] the shared query execution.
//!
//! Dataset sizes default to a laptop scale (a fraction of the paper's
//! server-scale datasets); the shapes — which algorithm wins, by roughly
//! what factor, and how costs scale in each parameter — are the
//! reproduction target, not absolute seconds. The repository's speed is
//! tracked by the separate `perfbench` package against `BENCHMARK.json`.

pub mod params;
pub mod runner;

pub use params::{ParamSpace, SweepValues};
pub use runner::{measure_all, AlgoTimings, QuerySpec};
