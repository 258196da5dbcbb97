//! Experiment harness regenerating every quantitative claim of the paper.
//!
//! The paper has no empirical tables or figures; its evaluation is the set
//! of theorem statements and the §7 analytic comparison, enumerated as
//! experiments E1–E13 in the list in `src/bin/run_all.rs`; each module
//! under [`experiments`] regenerates one of them and prints
//! paper-expected vs measured rows. The `exp_*` binaries are thin
//! wrappers; `run_all` runs the full suite.

pub mod experiments;
pub mod runner;
pub mod workload;

pub use runner::{mc_summary, time_per_op, CheckList};
