//! One module per experiment (E1–E13) in the list in
//! `src/bin/run_all.rs`.
//!
//! Each module exposes `run(scale) -> bool`: `scale` multiplies the
//! Monte-Carlo repetition counts (1.0 = each module's defaults; smaller
//! for smoke runs), and the return value is the overall pass/fail of the
//! experiment's `CHECK` gates.

pub mod e10_sensitivity;
pub mod e11_jl_accuracy;
pub mod e12_general_framework;
pub mod e13_independence_ablation;
pub mod e1_variance_estimators;
pub mod e3_fjlt_input_dim;
pub mod e4_delta_crossover;
pub mod e5_timing_sketch;
pub mod e6_update_time;
pub mod e7_privacy_audit;
pub mod e8_lower_bound;
pub mod e9_optimal_k;

/// Scale a repetition count, keeping at least a useful floor.
#[must_use]
pub fn scaled(base: u64, scale: f64) -> u64 {
    ((base as f64 * scale) as u64).max(50)
}
