//! The Kane–Nelson Sparser JL Transform, block construction "(c)"
//! (paper §6.1) — the substrate of the paper's main theorem.
//!
//! `k` rows are split into `s` blocks of `k/s`. For each block
//! `r ∈ [s]`, an `O(log 1/β)`-wise independent hash `h_r : [d] → [k/s]`
//! picks the row inside the block and an independent sign
//! `ϕ_r : [d] → {±1}` picks the sign:
//!
//! ```text
//! S_{(i,r), j} = ϕ_r(j)·1[h_r(j) = i] / √s
//! ```
//!
//! Every column has **exactly** `s` non-zeros of magnitude `1/√s`, hence
//! the a-priori sensitivities the paper exploits (§6.2.3):
//! `∆₁ = s·(1/√s) = √s` and `∆₂ = √(s·(1/s)) = 1` — no initialization
//! scan. Application costs `O(s·‖x‖₀ + k)` and a turnstile update touches
//! `s` rows (Theorem 3, items 4–5).
//!
//! # Cost model
//!
//! Each entry comes from a degree-`t` polynomial hash plus a sign hash,
//! tens of multiplications apiece, so a transform resolves its columns
//! once. The first dense application (`apply_into` or
//! `apply_batch_into`) hashes all `d·s` entries into a column table,
//! `Θ(d·s·t)` work, and every later sketch costs `O(s·‖x‖₀ + k)` table
//! reads.
//! Clones share the table, including clones made before it was
//! resolved. A sparse application or a turnstile update before any
//! dense pass hashes its `s` entries per column, so the sparse and
//! streaming paths keep their Theorem 3 costs and `O(t·s)` state until
//! a dense pass has run. A resolved table holds `d·s` entries of 4
//! bytes (the Achlioptas transform stores about `d·k/3`).

use crate::error::TransformError;
use crate::params::JlParams;
use crate::traits::{check_batch, check_input, LinearTransform, StreamingColumns};
use dp_hashing::{KWiseFamily, PolyHash, Seed, SignHash};
use dp_linalg::SparseVector;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// Bit 31 of a table entry: set when the entry's sign is negative. The
/// low 31 bits hold the row, so `k` is capped at 2³¹.
const SIGN_BIT: u32 = 1 << 31;

/// A table entry's row.
#[inline]
fn row_of(e: u32) -> usize {
    (e & !SIGN_BIT) as usize
}

/// A table entry's sign: 0 for `+1/√s`, 1 for `−1/√s`.
#[inline]
fn sign_of(e: u32) -> usize {
    usize::from(e & SIGN_BIT != 0)
}

/// The resolved column structure, shared by every clone of a transform:
/// `d·s` entries in `(j asc, r asc)` order, each the row of
/// `entry_hashed(r, j)` with its sign in [`SIGN_BIT`].
#[derive(Clone, Default)]
struct ColumnTable(Arc<OnceLock<Box<[u32]>>>);

impl ColumnTable {
    /// The table, if some clone has resolved it.
    fn get(&self) -> Option<&[u32]> {
        self.0.get().map(|t| &t[..])
    }
}

impl fmt::Debug for ColumnTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ColumnTable")
            .field("entries", &self.get().map(<[u32]>::len))
            .finish()
    }
}

/// The SJLT block construction with seed-reconstructible hash functions.
#[derive(Debug, Clone)]
pub struct Sjlt {
    d: usize,
    k: usize,
    s: usize,
    /// Rows per block, `k/s`.
    block: usize,
    hashes: Vec<PolyHash>,
    signs: Vec<SignHash>,
    seed: Seed,
    /// `1/√s`, the magnitude of every entry.
    scale: f64,
    columns: ColumnTable,
}

impl Sjlt {
    /// Build a `k × d` SJLT with sparsity `s` and hash independence `t`.
    /// Nothing is hashed until the first application.
    ///
    /// # Errors
    /// * [`TransformError::InvalidDimensions`] if `d` or `k` is zero, or
    ///   `k > 2³¹`;
    /// * [`TransformError::InvalidSparsity`] unless `1 ≤ s ≤ k` and `s | k`.
    pub fn new(
        d: usize,
        k: usize,
        s: usize,
        independence: usize,
        seed: Seed,
    ) -> Result<Self, TransformError> {
        Self::check_shape(d, k, s)?;
        let family = KWiseFamily::new(independence.max(2), seed.child("sjlt"));
        let hashes = (0..s as u64).map(|r| family.hash_fn(r)).collect();
        let signs = (0..s as u64).map(|r| family.sign_fn(r)).collect();
        Ok(Self {
            d,
            k,
            s,
            block: k / s,
            hashes,
            signs,
            seed,
            scale: 1.0 / (s as f64).sqrt(),
            columns: ColumnTable::default(),
        })
    }

    /// The column table, resolved on the first dense application (if no
    /// clone has yet): `d·s` hash evaluations once per transform, after
    /// which every application reads the table.
    fn table(&self) -> &[u32] {
        self.columns.0.get_or_init(|| {
            let mut table = Vec::with_capacity(self.d * self.s);
            for j in 0..self.d {
                for r in 0..self.s {
                    let (row, v) = self.entry_hashed(r, j);
                    let row = u32::try_from(row).expect("k <= 2^31 is checked at construction");
                    table.push(if v < 0.0 { row | SIGN_BIT } else { row });
                }
            }
            table.into_boxed_slice()
        })
    }

    /// The shape refusals of [`Sjlt::new`], checked without building
    /// anything.
    ///
    /// # Errors
    /// As for [`Sjlt::new`].
    pub fn check_shape(d: usize, k: usize, s: usize) -> Result<(), TransformError> {
        if d == 0 || k == 0 || k > SIGN_BIT as usize {
            return Err(TransformError::InvalidDimensions { d, k });
        }
        if s == 0 || s > k || !k.is_multiple_of(s) {
            return Err(TransformError::InvalidSparsity { s, k });
        }
        Ok(())
    }

    /// Build from JL parameters: `k = k_for_sjlt(α, β)`, `s = s(α, β)`,
    /// `t = independence(β)`.
    ///
    /// # Errors
    /// Propagates [`Sjlt::new`] failures.
    pub fn from_params(d: usize, params: &JlParams, seed: Seed) -> Result<Self, TransformError> {
        Self::new(
            d,
            params.k_for_sjlt(),
            params.s(),
            params.independence(),
            seed,
        )
    }

    /// The sparsity `s` (non-zeros per column).
    #[must_use]
    pub fn sparsity(&self) -> usize {
        self.s
    }

    /// The construction seed.
    #[must_use]
    pub fn seed(&self) -> Seed {
        self.seed
    }

    /// The row index and signed value of block `r`'s entry in column `j`,
    /// computed from the hash functions.
    #[inline]
    fn entry_hashed(&self, r: usize, j: usize) -> (usize, f64) {
        let i = self.hashes[r].bucket(j as u64, self.block as u64) as usize;
        let sign = self.signs[r].sign(j as u64);
        (r * self.block + i, sign / (self.s as f64).sqrt())
    }

    /// Decode one table entry. IEEE division is sign-symmetric, so
    /// `±scale` is exactly the `±1/√s` that `entry_hashed` computes.
    #[inline]
    fn entry_of(&self, e: u32) -> (usize, f64) {
        (row_of(e), [self.scale, -self.scale][sign_of(e)])
    }

    /// `w·v` for both values an entry can hold, indexed by
    /// [`sign_of`]: the multiplication a scatter would make per entry,
    /// on the same operands, so hoisting it out of a column moves no
    /// bit.
    #[inline]
    fn products(&self, w: f64) -> [f64; 2] {
        [w * self.scale, w * -self.scale]
    }

    /// Column `j`'s `s` entries in block order: from the table when one
    /// has been resolved, hashed otherwise. Fetch `table` once per call.
    #[inline]
    fn visit_column(&self, table: Option<&[u32]>, j: usize, mut visit: impl FnMut(usize, f64)) {
        match table {
            Some(t) => {
                for &e in &t[j * self.s..(j + 1) * self.s] {
                    let (row, v) = self.entry_of(e);
                    visit(row, v);
                }
            }
            None => {
                for r in 0..self.s {
                    let (row, v) = self.entry_hashed(r, j);
                    visit(row, v);
                }
            }
        }
    }
}

impl LinearTransform for Sjlt {
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
        for (&w, column) in x.iter().zip(self.table().chunks_exact(self.s)) {
            if w != 0.0 {
                let wv = self.products(w);
                for &e in column {
                    out[row_of(e)] += wv[sign_of(e)];
                }
            }
        }
        Ok(())
    }

    fn apply_batch_into(&self, rows: &[&[f64]], out: &mut [f64]) -> Result<(), TransformError> {
        check_batch(self.d, self.k, rows, out)?;
        out.fill(0.0);
        // Scatter each column's resolved entries across the whole batch.
        // Per row the contributions land in the exact `(j asc, r asc)`
        // order of `apply_into` with the same `w != 0.0` skip, so every
        // row is bit-identical to the per-row path.
        for (j, column) in self.table().chunks_exact(self.s).enumerate() {
            for (x, dst) in rows.iter().zip(out.chunks_exact_mut(self.k)) {
                let w = x[j];
                if w != 0.0 {
                    let wv = self.products(w);
                    for &e in column {
                        dst[row_of(e)] += wv[sign_of(e)];
                    }
                }
            }
        }
        Ok(())
    }

    /// The `O(s·‖x‖₀ + k)` sparse path of Theorem 3, item 5. Reads the
    /// column table if a dense application resolved one; never resolves.
    fn apply_sparse(&self, x: &SparseVector) -> Result<Vec<f64>, TransformError> {
        check_input(self.d, x.dim())?;
        let mut out = vec![0.0; self.k];
        let table = self.columns.get();
        for (j, w) in x.iter() {
            self.visit_column(table, j, |row, v| out[row] += w * v);
        }
        Ok(out)
    }

    /// `∆₁ = √s`, exactly and a priori (paper §6.2.3).
    fn l1_sensitivity(&self) -> f64 {
        (self.s as f64).sqrt()
    }

    /// `∆₂ = 1`, exactly and a priori (paper §6.2.3).
    fn l2_sensitivity(&self) -> f64 {
        1.0
    }

    fn sensitivity_is_a_priori(&self) -> bool {
        true
    }

    fn name(&self) -> &'static str {
        "sjlt"
    }
}

impl StreamingColumns for Sjlt {
    fn column_nnz(&self) -> usize {
        self.s
    }

    /// Theorem 3, item 4: a turnstile update touches exactly `s` rows.
    /// Reads the column table if a dense application resolved one;
    /// never resolves.
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
        self.visit_column(self.columns.get(), j, visit);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::materialize;
    use dp_linalg::vector::{sq_distance, sq_norm};

    fn small() -> Sjlt {
        Sjlt::new(32, 24, 4, 6, Seed::new(77)).unwrap()
    }

    #[test]
    fn construction_validation() {
        assert!(Sjlt::new(0, 8, 2, 4, Seed::new(1)).is_err());
        assert!(Sjlt::new(8, 0, 2, 4, Seed::new(1)).is_err());
        assert!(Sjlt::new(8, 8, 0, 4, Seed::new(1)).is_err());
        assert!(Sjlt::new(8, 8, 16, 4, Seed::new(1)).is_err());
        // s must divide k:
        assert!(Sjlt::new(8, 10, 4, 4, Seed::new(1)).is_err());
        assert!(Sjlt::new(8, 12, 4, 4, Seed::new(1)).is_ok());
    }

    #[test]
    fn exact_column_structure() {
        // Every column: exactly s non-zeros of magnitude 1/√s, one per block.
        let t = small();
        let m = materialize(&t).unwrap();
        let mag = 1.0 / (t.sparsity() as f64).sqrt();
        for j in 0..t.input_dim() {
            let mut per_block = vec![0usize; t.sparsity()];
            let mut nnz = 0;
            for i in 0..t.output_dim() {
                let v = m.get(i, j);
                if v != 0.0 {
                    assert!((v.abs() - mag).abs() < 1e-12, "magnitude at ({i},{j})");
                    per_block[i / t.block] += 1;
                    nnz += 1;
                }
            }
            assert_eq!(nnz, t.sparsity(), "column {j} nnz");
            assert!(per_block.iter().all(|&c| c == 1), "one entry per block");
        }
    }

    #[test]
    fn a_priori_sensitivities_are_exact() {
        let t = small();
        // The streaming fast path (bit-identical to `materialize`, see
        // below) keeps this audit O(total nnz).
        let m = crate::traits::materialize_streaming(&t).unwrap();
        assert!((t.l1_sensitivity() - m.l1_sensitivity()).abs() < 1e-12);
        assert!((t.l2_sensitivity() - m.l2_sensitivity()).abs() < 1e-12);
        assert!((t.l1_sensitivity() - 2.0).abs() < 1e-12); // √4
        assert_eq!(t.l2_sensitivity(), 1.0);
        assert!(t.sensitivity_is_a_priori());
    }

    #[test]
    fn lpp_over_seeds() {
        let d = 24;
        let x: Vec<f64> = (0..d).map(|i| ((i * 31) % 9) as f64 / 4.0 - 1.0).collect();
        let target = sq_norm(&x);
        let reps = 3000;
        let mean: f64 = (0..reps)
            .map(|r| {
                let t = Sjlt::new(d, 16, 4, 6, Seed::new(90_000 + r)).unwrap();
                sq_norm(&t.apply(&x).unwrap())
            })
            .sum::<f64>()
            / reps as f64;
        let rel = (mean - target).abs() / target;
        assert!(rel < 0.04, "LPP rel err {rel}");
    }

    #[test]
    fn variance_bound_lemma10() {
        // Var[‖Sx‖²] ≤ (2/k)‖x‖₂⁴ (Lemma 10), checked empirically.
        let d = 24;
        let k = 32;
        let x: Vec<f64> = (0..d).map(|i| (i as f64 * 0.7).sin()).collect();
        let target = sq_norm(&x);
        let reps = 4000;
        let vals: Vec<f64> = (0..reps)
            .map(|r| {
                let t = Sjlt::new(d, k, 4, 8, Seed::new(40_000 + r)).unwrap();
                sq_norm(&t.apply(&x).unwrap())
            })
            .collect();
        let mean: f64 = vals.iter().sum::<f64>() / reps as f64;
        let var: f64 =
            vals.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / (reps - 1) as f64;
        let bound = 2.0 / k as f64 * target * target;
        // Allow Monte-Carlo slack of 25%.
        assert!(var <= bound * 1.25, "var {var} vs bound {bound}");
    }

    #[test]
    fn sparse_and_dense_agree() {
        let t = small();
        let mut x = vec![0.0; 32];
        x[5] = 1.5;
        x[20] = -3.0;
        let sv = SparseVector::from_dense(&x);
        let dense = t.apply(&x).unwrap();
        let sparse = t.apply_sparse(&sv).unwrap();
        for (a, b) in dense.iter().zip(&sparse) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn streaming_columns_match_apply() {
        let t = small();
        let x: Vec<f64> = (0..32).map(|i| (i % 5) as f64 - 2.0).collect();
        let mut out = [0.0; 24];
        for (j, &w) in x.iter().enumerate() {
            if w != 0.0 {
                t.for_column(j, &mut |r, v| out[r] += w * v).unwrap();
            }
        }
        let want = t.apply(&x).unwrap();
        for (a, b) in out.iter().zip(&want) {
            assert!((a - b).abs() < 1e-12);
        }
        assert_eq!(t.column_nnz(), 4);
    }

    #[test]
    fn batch_apply_is_bit_identical_to_per_row() {
        for n in [0usize, 1, 2, 7, 9, 16] {
            // A fresh transform, so the batch is the first dense apply.
            let t = small();
            let rows: Vec<Vec<f64>> = (0..n)
                .map(|b| {
                    (0..32)
                        .map(|i| {
                            if (i + b) % 3 == 0 {
                                0.0
                            } else {
                                ((i * 7 + b * 13) % 11) as f64 / 3.0 - 1.5
                            }
                        })
                        .collect()
                })
                .collect();
            let refs: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();
            let mut out = vec![f64::NAN; n * 24];
            t.apply_batch_into(&refs, &mut out).unwrap();
            for (b, x) in rows.iter().enumerate() {
                let mut per_row = vec![0.0; 24];
                t.apply_into(x, &mut per_row).unwrap();
                for (got, want) in out[b * 24..(b + 1) * 24].iter().zip(&per_row) {
                    assert_eq!(got.to_bits(), want.to_bits());
                }
            }
        }
    }

    #[test]
    fn streaming_materialize_is_bit_identical_to_slow_path() {
        let t = small();
        // Streaming first, so `fast` reads hashed entries and `slow`
        // (dense applies) the resolved table.
        let fast = crate::traits::materialize_streaming(&t).unwrap();
        let slow = materialize(&t).unwrap();
        for r in 0..slow.rows() {
            for c in 0..slow.cols() {
                assert_eq!(fast.get(r, c).to_bits(), slow.get(r, c).to_bits());
            }
        }
    }

    #[test]
    fn deterministic_and_seed_sensitive() {
        let a = Sjlt::new(16, 8, 2, 4, Seed::new(5)).unwrap();
        let b = Sjlt::new(16, 8, 2, 4, Seed::new(5)).unwrap();
        let c = Sjlt::new(16, 8, 2, 4, Seed::new(6)).unwrap();
        let x: Vec<f64> = (0..16).map(|i| i as f64).collect();
        assert_eq!(a.apply(&x).unwrap(), b.apply(&x).unwrap());
        assert_ne!(a.apply(&x).unwrap(), c.apply(&x).unwrap());
    }

    #[test]
    fn distance_preservation_at_param_k() {
        let params = JlParams::new(0.3, 0.1).unwrap();
        let d = 128;
        let t = Sjlt::from_params(d, &params, Seed::new(8)).unwrap();
        let x = vec![1.0; d];
        let y = vec![-1.0; d];
        let true_d = sq_distance(&x, &y);
        let est = sq_distance(&t.apply(&x).unwrap(), &t.apply(&y).unwrap());
        assert!(
            (est / true_d - 1.0).abs() < 0.3,
            "distortion {}",
            est / true_d
        );
    }
}

#[cfg(test)]
mod table_tests {
    use super::*;
    use std::sync::Barrier;

    fn resolved(t: &Sjlt) -> Option<*const [u32]> {
        t.columns.get().map(std::ptr::from_ref)
    }

    #[test]
    fn table_entries_equal_the_hashed_entries() {
        for (d, k, s) in [(64, 32, 4), (37, 24, 1), (19, 48, 16), (5, 6, 6)] {
            let t = Sjlt::new(d, k, s, 6, Seed::new(5)).unwrap();
            let table = t.table();
            assert_eq!(table.len(), d * s);
            for j in 0..d {
                for r in 0..s {
                    let (row, v) = t.entry_of(table[j * s + r]);
                    let (want_row, want_v) = t.entry_hashed(r, j);
                    assert_eq!(row, want_row, "row of ({r}, {j})");
                    assert_eq!(v.to_bits(), want_v.to_bits(), "value of ({r}, {j})");
                }
            }
        }
        assert!(Sjlt::new(4, (1 << 31) + 2, 2, 4, Seed::new(1)).is_err());
    }

    #[test]
    fn only_a_dense_apply_resolves_and_clones_share_the_table() {
        let t = Sjlt::new(64, 32, 4, 6, Seed::new(5)).unwrap();
        let early_clone = t.clone();
        assert_eq!(resolved(&t), None, "new resolves nothing");
        let sparse = SparseVector::from_dense(&[1.5; 64]);
        let hashed = t.apply_sparse(&sparse).unwrap();
        t.for_column(13, &mut |_, _| {}).unwrap();
        assert_eq!(resolved(&t), None, "sparse and streaming use hash");
        assert!(format!("{t:?}").contains("entries: None"));

        let x: Vec<f64> = (0..64).map(|i| (f64::from(i) * 0.31).cos()).collect();
        let first = t.apply(&x).unwrap();
        let table = resolved(&t).expect("the first dense apply resolves");
        assert_eq!(
            resolved(&early_clone),
            Some(table),
            "an earlier clone shares it"
        );
        assert_eq!(resolved(&t.clone()), Some(table), "a later clone shares it");
        assert!(format!("{t:?}").contains("entries: Some(256)"));

        // Later applies reuse the one table and keep the hashed bits.
        let mut batch = vec![0.0; 32];
        t.apply_batch_into(&[&x], &mut batch).unwrap();
        assert_eq!(resolved(&t), Some(table));
        assert_eq!(first, batch);
        assert_eq!(t.apply_sparse(&sparse).unwrap(), hashed);

        let fresh = Sjlt::new(64, 32, 4, 6, Seed::new(5)).unwrap();
        fresh.apply_batch_into(&[&x], &mut batch).unwrap();
        assert!(resolved(&fresh).is_some(), "a batch apply resolves too");
        assert_eq!(first, batch);
    }

    #[test]
    fn racing_first_applies_match_a_sequential_apply() {
        let (d, k) = (300, 64);
        let rows: Vec<Vec<f64>> = (0..4)
            .map(|b| {
                (0..d)
                    .map(|i| ((i * 13 + b * 7) % 17) as f64 - 8.0)
                    .collect()
            })
            .collect();
        let shared = Sjlt::new(d, k, 8, 6, Seed::new(31)).unwrap();
        let barrier = Barrier::new(rows.len());
        let outputs: Vec<Vec<f64>> = std::thread::scope(|scope| {
            let handles: Vec<_> = rows
                .iter()
                .map(|x| {
                    let (t, barrier) = (&shared, &barrier);
                    scope.spawn(move || {
                        barrier.wait();
                        t.apply(x).unwrap()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (x, got) in rows.iter().zip(&outputs) {
            let want = Sjlt::new(d, k, 8, 6, Seed::new(31))
                .unwrap()
                .apply(x)
                .unwrap();
            let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(got), bits(&want));
        }
    }
}
