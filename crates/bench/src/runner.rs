//! Shared experiment-running utilities.

use dp_parallel::{par_map, Parallelism};
use dp_stats::Summary;
use std::time::Instant;

/// Monte-Carlo summary of `f(rep)` over `reps` repetitions.
pub fn mc_summary(reps: u64, mut f: impl FnMut(u64) -> f64) -> Summary {
    let mut s = Summary::new();
    for rep in 0..reps {
        s.push(f(rep));
    }
    s
}

/// [`mc_summary`] with the per-rep evaluations computed on `par`
/// workers. Values are accumulated in rep order, so the summary is
/// bit-identical to the sequential one whenever `f` is a pure function
/// of its rep index (every experiment closure here is: all randomness
/// derives from per-rep seeds).
pub fn mc_summary_par(reps: u64, par: &Parallelism, f: impl Fn(u64) -> f64 + Sync) -> Summary {
    let indices: Vec<u64> = (0..reps).collect();
    let values = par_map(&indices, par.threads(), |_, &rep| f(rep));
    let mut s = Summary::new();
    for v in values {
        s.push(v);
    }
    s
}

/// Median-of-5 wall-clock time per operation, in nanoseconds. `f` runs
/// `iters` times per measurement round after one warm-up round.
pub fn time_per_op(iters: u32, mut f: impl FnMut()) -> f64 {
    for _ in 0..iters {
        f(); // warm-up
    }
    let mut rounds: Vec<f64> = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..iters {
                f();
            }
            t0.elapsed().as_nanos() as f64 / f64::from(iters)
        })
        .collect();
    rounds.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    rounds[2]
}

/// A pass/fail ledger for an experiment binary. Prints one `CHECK` line
/// per check; [`CheckList::finish`] gives `run_all` the verdict.
#[derive(Debug, Default)]
pub struct CheckList {
    checks: Vec<(String, bool)>,
}

impl CheckList {
    /// Empty ledger.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Record and print one named check.
    pub fn check(&mut self, name: &str, pass: bool) {
        println!("CHECK [{}] {}", if pass { "PASS" } else { "FAIL" }, name);
        self.checks.push((name.to_string(), pass));
    }

    /// Record a check that a measured value is within `tol_rel` of an
    /// expected value.
    pub fn check_close(&mut self, name: &str, measured: f64, expected: f64, tol_rel: f64) {
        let rel = (measured - expected).abs() / expected.abs().max(f64::MIN_POSITIVE);
        self.check(
            &format!("{name}: measured {measured:.4e} vs expected {expected:.4e} (rel {rel:.3})"),
            rel <= tol_rel,
        );
    }

    /// Whether every check passed.
    #[must_use]
    pub fn all_passed(&self) -> bool {
        self.checks.iter().all(|(_, p)| *p)
    }

    /// (passed, total).
    #[must_use]
    pub fn tally(&self) -> (usize, usize) {
        (
            self.checks.iter().filter(|(_, p)| *p).count(),
            self.checks.len(),
        )
    }

    /// Print the summary footer and return overall success.
    pub fn finish(&self, experiment: &str) -> bool {
        let (pass, total) = self.tally();
        println!("RESULT {experiment}: {pass}/{total} checks passed");
        self.all_passed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mc_summary_counts() {
        let s = mc_summary(100, |r| r as f64);
        assert_eq!(s.count(), 100);
        assert!((s.mean() - 49.5).abs() < 1e-9);
    }

    #[test]
    fn mc_summary_par_is_bit_identical_to_sequential() {
        let f = |rep: u64| (rep as f64).sin() * (rep as f64 + 0.5).ln();
        let seq = mc_summary(200, f);
        for threads in [1usize, 2, 4, 7] {
            let par = mc_summary_par(200, &Parallelism::new(threads), f);
            assert_eq!(par.count(), seq.count());
            assert_eq!(par.mean().to_bits(), seq.mean().to_bits(), "{threads}");
            assert_eq!(
                par.variance().to_bits(),
                seq.variance().to_bits(),
                "{threads}"
            );
        }
    }

    #[test]
    fn time_per_op_positive() {
        let mut acc = 0u64;
        let t = time_per_op(100, || acc = acc.wrapping_add(1));
        assert!(t >= 0.0);
    }

    #[test]
    fn checklist_tally() {
        let mut c = CheckList::new();
        c.check("a", true);
        c.check("b", false);
        c.check_close("c", 1.0, 1.05, 0.1);
        assert_eq!(c.tally(), (2, 3));
        assert!(!c.all_passed());
        assert!(!c.finish("test"));
    }
}
