//! The Kane–Nelson "(b)" graph construction of the SJLT.
//!
//! Each column receives exactly `s` non-zeros of magnitude `1/√s` in `s`
//! **distinct rows drawn uniformly from all of \[k\]** (rather than one per
//! block). The paper remarks (§6.1) that "similar arguments apply for the
//! b)-construction"; we include it so the block choice can be ablated.
//!
//! **Substitution note**: Kane–Nelson draw the
//! row sets from a limited-independence family; we use per-column seeded
//! partial Fisher–Yates sampling, which is *fully* independent across
//! columns. Full independence subsumes the required `O(log 1/β)`-wise
//! independence, and LPP plus the a-priori sensitivities (`∆₁ = √s`,
//! `∆₂ = 1`) are unchanged. Columns are regenerated on demand from the
//! seed, so the transform stores `O(1)` state.

use crate::error::TransformError;
use crate::traits::{check_input, LinearTransform, StreamingColumns};
use dp_hashing::{Prng, Seed};
use dp_linalg::SparseVector;

/// SJLT "(b)": s distinct uniformly random rows per column.
#[derive(Debug, Clone)]
pub struct SjltGraph {
    d: usize,
    k: usize,
    s: usize,
    seed: Seed,
}

impl SjltGraph {
    /// Build a `k × d` graph-construction SJLT with sparsity `s`.
    ///
    /// # Errors
    /// * [`TransformError::InvalidDimensions`] if `d` or `k` is zero;
    /// * [`TransformError::InvalidSparsity`] unless `1 ≤ s ≤ k`.
    pub fn new(d: usize, k: usize, s: usize, seed: Seed) -> Result<Self, TransformError> {
        if d == 0 || k == 0 {
            return Err(TransformError::InvalidDimensions { d, k });
        }
        if s == 0 || s > k {
            return Err(TransformError::InvalidSparsity { s, k });
        }
        Ok(Self { d, k, s, seed })
    }

    /// The sparsity `s`.
    #[must_use]
    pub fn sparsity(&self) -> usize {
        self.s
    }

    /// Visit column `j`'s `(row, value)` pairs: `s` distinct rows via
    /// partial Fisher–Yates over `[k]`, signs from the same stream.
    fn column(&self, j: usize, visit: &mut dyn FnMut(usize, f64)) {
        let mut rng = self.seed.child("sjlt-graph").index(j as u64).rng();
        let mag = 1.0 / (self.s as f64).sqrt();
        // Partial Fisher–Yates over a lazily materialized permutation:
        // for s ≪ k a map of displaced entries is O(s) space. BTreeMap,
        // not HashMap: this loop's visit order reaches the sketch, and
        // an ordered map keeps the whole path hash-order-free (lookups
        // here are point queries on ≤ 2s entries, so the O(log s) is
        // noise).
        let mut displaced: std::collections::BTreeMap<usize, usize> =
            std::collections::BTreeMap::new();
        for t in 0..self.s {
            let pick = t + rng.next_range((self.k - t) as u64) as usize;
            let row_at = |m: &std::collections::BTreeMap<usize, usize>, idx: usize| {
                *m.get(&idx).unwrap_or(&idx)
            };
            let chosen = row_at(&displaced, pick);
            let displaced_t = row_at(&displaced, t);
            displaced.insert(pick, displaced_t);
            displaced.insert(t, chosen);
            let sign = rng.next_sign();
            visit(chosen, sign * mag);
        }
    }
}

impl LinearTransform for SjltGraph {
    fn input_dim(&self) -> usize {
        self.d
    }
    fn output_dim(&self) -> usize {
        self.k
    }

    fn apply_into(&self, x: &[f64], out: &mut [f64]) -> Result<(), TransformError> {
        check_input(self.d, x.len())?;
        check_input(self.k, out.len())?;
        out.fill(0.0);
        for (j, &w) in x.iter().enumerate() {
            if w != 0.0 {
                self.column(j, &mut |row, v| out[row] += w * v);
            }
        }
        Ok(())
    }

    fn apply_sparse(&self, x: &SparseVector) -> Result<Vec<f64>, TransformError> {
        check_input(self.d, x.dim())?;
        let mut out = vec![0.0; self.k];
        for (j, w) in x.iter() {
            self.column(j, &mut |row, v| out[row] += w * v);
        }
        Ok(out)
    }

    /// `∆₁ = √s`, exact and a priori.
    fn l1_sensitivity(&self) -> f64 {
        (self.s as f64).sqrt()
    }

    /// `∆₂ = 1`, exact and a priori.
    fn l2_sensitivity(&self) -> f64 {
        1.0
    }

    fn sensitivity_is_a_priori(&self) -> bool {
        true
    }

    fn name(&self) -> &'static str {
        "sjlt-graph"
    }
}

impl StreamingColumns for SjltGraph {
    fn column_nnz(&self) -> usize {
        self.s
    }

    fn for_column(
        &self,
        j: usize,
        visit: &mut dyn FnMut(usize, f64),
    ) -> Result<(), TransformError> {
        if j >= self.d {
            return Err(TransformError::DimensionMismatch {
                expected: self.d,
                actual: j,
            });
        }
        self.column(j, visit);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::materialize;
    use dp_linalg::vector::sq_norm;

    #[test]
    fn validation() {
        assert!(SjltGraph::new(8, 8, 0, Seed::new(1)).is_err());
        assert!(SjltGraph::new(8, 8, 9, Seed::new(1)).is_err());
        // s need NOT divide k in the graph construction:
        assert!(SjltGraph::new(8, 10, 4, Seed::new(1)).is_ok());
    }

    #[test]
    fn column_has_s_distinct_rows() {
        let t = SjltGraph::new(40, 17, 5, Seed::new(3)).unwrap();
        for j in 0..40 {
            let mut rows = Vec::new();
            t.for_column(j, &mut |r, v| {
                assert!((v.abs() - 1.0 / 5.0f64.sqrt()).abs() < 1e-12);
                rows.push(r);
            })
            .unwrap();
            rows.sort_unstable();
            let len_before = rows.len();
            rows.dedup();
            assert_eq!(rows.len(), len_before, "column {j} has duplicate rows");
            assert_eq!(rows.len(), 5);
            assert!(rows.iter().all(|&r| r < 17));
        }
    }

    #[test]
    fn columns_are_deterministic() {
        let t = SjltGraph::new(16, 12, 3, Seed::new(9)).unwrap();
        let collect = |j: usize| {
            let mut v = Vec::new();
            t.for_column(j, &mut |r, x| v.push((r, x))).unwrap();
            v
        };
        assert_eq!(collect(7), collect(7));
        assert_ne!(collect(7), collect(8));
    }

    #[test]
    fn sensitivities_match_materialized() {
        let t = SjltGraph::new(20, 15, 5, Seed::new(4)).unwrap();
        let m = materialize(&t).unwrap();
        assert!((m.l1_sensitivity() - 5.0f64.sqrt()).abs() < 1e-12);
        assert!((m.l2_sensitivity() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn lpp_over_seeds() {
        let d = 20;
        let x: Vec<f64> = (0..d).map(|i| ((i * 7) % 5) as f64 - 2.0).collect();
        let target = sq_norm(&x);
        let reps = 3000;
        let mean: f64 = (0..reps)
            .map(|r| {
                let t = SjltGraph::new(d, 15, 5, Seed::new(60_000 + r)).unwrap();
                sq_norm(&t.apply(&x).unwrap())
            })
            .sum::<f64>()
            / reps as f64;
        let rel = (mean - target).abs() / target;
        assert!(rel < 0.04, "LPP rel err {rel}");
    }

    #[test]
    fn rows_cover_k_uniformly() {
        // Aggregate row usage across many columns should be ≈ uniform.
        let k = 10;
        let t = SjltGraph::new(5000, k, 2, Seed::new(12)).unwrap();
        let mut counts = vec![0u64; k];
        for j in 0..5000 {
            t.for_column(j, &mut |r, _| counts[r] += 1).unwrap();
        }
        let expect = 5000.0 * 2.0 / k as f64;
        for (r, &c) in counts.iter().enumerate() {
            let rel = (c as f64 - expect).abs() / expect;
            assert!(rel < 0.1, "row {r}: {c} vs {expect}");
        }
    }

    #[test]
    fn s_equals_k_uses_all_rows() {
        let t = SjltGraph::new(4, 6, 6, Seed::new(2)).unwrap();
        let mut rows = Vec::new();
        t.for_column(0, &mut |r, _| rows.push(r)).unwrap();
        rows.sort_unstable();
        assert_eq!(rows, vec![0, 1, 2, 3, 4, 5]);
    }
}
