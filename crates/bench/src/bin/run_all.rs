//! Run every experiment (E1–E13, listed below) and summarize.
//! Usage: `run_all [--quick]`.

type Experiment = (&'static str, fn(f64) -> bool);

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let scale = if quick { 0.1 } else { 1.0 };
    let experiments: Vec<Experiment> = vec![
        (
            "E1/E2/E3 variance",
            dp_bench::experiments::e1_variance_estimators::run,
        ),
        (
            "E3x fjlt input dim",
            dp_bench::experiments::e3_fjlt_input_dim::run,
        ),
        (
            "E4 delta crossover",
            dp_bench::experiments::e4_delta_crossover::run,
        ),
        (
            "E5 sketch timing",
            dp_bench::experiments::e5_timing_sketch::run,
        ),
        (
            "E6 update timing",
            dp_bench::experiments::e6_update_time::run,
        ),
        (
            "E7 privacy audit",
            dp_bench::experiments::e7_privacy_audit::run,
        ),
        (
            "E8 lower bounds",
            dp_bench::experiments::e8_lower_bound::run,
        ),
        ("E9 optimal k", dp_bench::experiments::e9_optimal_k::run),
        (
            "E10 sensitivity",
            dp_bench::experiments::e10_sensitivity::run,
        ),
        (
            "E11 jl accuracy",
            dp_bench::experiments::e11_jl_accuracy::run,
        ),
        (
            "E12 general framework",
            dp_bench::experiments::e12_general_framework::run,
        ),
        (
            "E13 independence ablation",
            dp_bench::experiments::e13_independence_ablation::run,
        ),
    ];
    let mut failures = Vec::new();
    for (name, run) in experiments {
        println!("\n######## {name} ########");
        if !run(scale) {
            failures.push(name);
        }
    }
    println!("\n======== SUMMARY ========");
    if failures.is_empty() {
        println!("all experiments passed");
    } else {
        for f in &failures {
            println!("FAILED: {f}");
        }
        std::process::exit(1);
    }
}
