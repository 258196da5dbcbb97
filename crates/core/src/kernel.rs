//! The per-pair distance accumulator, its eight-pair group form for
//! all-pairs tiles, and its eight-row run form for k-NN scans.
//!
//! Every pairwise estimate in the workspace reduces to one expression:
//! the squared Euclidean distance between two sketch-value slices,
//! `Σ (a_i − b_i)²`, debiased by the caller. This module owns that
//! accumulation, [`v1_scalar`]: the strictly sequential zip-order
//! scalar sum every release of the workspace has computed. Its bit
//! patterns never move. (`f64::mul_add` is deliberately *not* used
//! here — fusing the multiply into the add changes the rounding of
//! every partial sum, which the bit-identity suites would catch.)
//!
//! ## The contract
//!
//! One kernel, one bit pattern: results are bit-identical across
//! thread counts, tile sizes, shards, replicas, recovery and hosts, and
//! no execution setting changes a bit. The kernel's name,
//! [`KernelId::V1Scalar`] (`"v1-scalar"`), travels in
//! [`crate::sketcher::SketcherSpec`] and is checked on protocol
//! `Hello`. A second, reassociated kernel (`"v2-simd"`: four fused
//! multiply-add lanes per sum) was retired once the blocked V1 kernels
//! below matched or beat it; a spec, peer or data directory stamped
//! with it is refused with [`crate::CoreError::UnknownKernel`]
//! (`ERR_KERNEL` on the wire) instead of being read under V1's bits.
//!
//! ## The group kernel
//!
//! The all-pairs tiles evaluate eight pairs per pass:
//! `sq_distance_group` takes one row and eight column rows interleaved
//! element-major (`group[e·8 + p]` is column `p`'s element `e`) and
//! returns the eight raw sums. The contract is per pair, not per pass:
//! each lane keeps one unfused accumulator, started where
//! `Iterator::sum` starts (−0.0), and adds its terms in the per-pair
//! order, so lane `p` is bit-identical to [`v1_scalar`] of its pair.
//! Eight independent add chains replace one, and the per-pair latency
//! bound is gone without reassociating any sum.
//!
//! The safe generic body is the definition and the portable path. On
//! `x86_64` an AVX2 compilation of the same body is chosen once per
//! process by CPU detection; the tests compare both against the
//! per-pair sums.
//!
//! ## The run kernel
//!
//! A k-NN scan scores one query row against every stored row, and the
//! store keeps its rows back to back in runs. [`sq_distance_run`] reads
//! such a run in place (no interleaving copy) and writes one raw sum
//! per row, again bit-identical to [`v1_scalar`] of each pair. It
//! scores [`RUN_BLOCK`] = 8 rows per pass: each lane keeps one unfused
//! accumulator started at −0.0 and adds `(q_e − row_r[e])²` in element
//! order. The safe generic block body is the definition; on `x86_64`
//! with AVX2 (detected once per process) the block runs in registers
//! through 4 × 4 transposes, multiplies and adds unfused, and
//! prefetches the next block. A ragged last block runs per pair.
//!
//! ## The sketching path
//!
//! Projections have one accumulation order too: exactly the per-row
//! [`dp_transforms::LinearTransform::apply_into`] bit patterns, pinned
//! by the frozen [`v1_apply_batch_reference`] below. The batch-aware
//! `apply_batch_into` overrides in `dp-transforms` are *cache*
//! optimizations (row-blocked dense passes, SJLT columns resolved once
//! per transform) that keep each row's accumulation order verbatim, so
//! batch output is bit-identical to per-row output.

use crate::error::CoreError;
use dp_transforms::{LinearTransform, TransformError};

/// The identity of the distance accumulator a spec's releases are
/// estimated under: the kernel name a [`crate::sketcher::SketcherSpec`]
/// carries and a fleet agrees on.
///
/// One kernel remains, [`KernelId::V1Scalar`]. Its name still travels
/// in the spec JSON and on `Hello`, so state stamped with the retired
/// `"v2-simd"` (or any other name) is refused, typed, rather than read
/// under V1's bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum KernelId {
    /// The strictly sequential zip-order scalar accumulator,
    /// [`v1_scalar`]: the workspace's one bit pattern.
    #[default]
    V1Scalar,
}

impl KernelId {
    /// Stable wire/JSON name (`v1-scalar`).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::V1Scalar => "v1-scalar",
        }
    }

    /// Parse a kernel name as the spec JSON carries it.
    ///
    /// # Errors
    /// [`CoreError::UnknownKernel`] naming any other kernel, the
    /// retired `v2-simd` included.
    pub fn parse(name: &str) -> Result<Self, CoreError> {
        match name {
            "v1-scalar" => Ok(Self::V1Scalar),
            other => Err(CoreError::UnknownKernel(other.to_string())),
        }
    }
}

// dp-lint: freeze(kernel-v1-scalar) begin
/// V1: the strictly sequential zip-order scalar sum — the exact
/// expression of `NoisySketch::estimate_sq_distance` since the first
/// release, and the anchor the bit-identity suites pin.
#[inline]
#[must_use]
pub fn v1_scalar(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| {
            let d = x - y;
            d * d
        })
        .sum()
}
// dp-lint: freeze(kernel-v1-scalar) end

/// Which backend the block kernels (the tiles' eight-pair groups and
/// [`sq_distance_run`]'s eight-row blocks) dispatch to on this host:
/// `"avx2"` or `"portable"`. Both compute the same bits; the benches
/// report it so a record says what was timed. The name dates from the
/// retired V2 kernel, whose backend it once reported, and stays
/// because the benchmark of record reads it.
#[must_use]
pub fn v2_backend() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    {
        if avx2_available() {
            return "avx2";
        }
    }
    "portable"
}

#[cfg(target_arch = "x86_64")]
fn avx2_available() -> bool {
    use std::sync::OnceLock;
    static AVAILABLE: OnceLock<bool> = OnceLock::new();
    *AVAILABLE.get_or_init(|| is_x86_feature_detected!("avx2"))
}

// ---------------------------------------------------------------------------
// The group kernel: one row against GROUP_WIDTH columns per pass.
// ---------------------------------------------------------------------------

/// Columns per group: one pass of [`sq_distance_group`] over a row
/// evaluates this many pairs.
pub(crate) const GROUP_WIDTH: usize = 8;

/// Interleave column rows element-major into groups of
/// [`GROUP_WIDTH`]: group `g` is the `k · GROUP_WIDTH` values starting
/// at `g · k · GROUP_WIDTH`, and holds element `e` of column
/// `g · GROUP_WIDTH + p` at `e · GROUP_WIDTH + p`. A column longer
/// than `k` is cut to `k` elements, a shorter one and the missing
/// columns of the last group are padded with zeros.
#[must_use]
pub(crate) fn interleave_columns(cols: &[&[f64]], k: usize) -> Vec<f64> {
    let mut groups = vec![0.0; cols.len().div_ceil(GROUP_WIDTH) * k * GROUP_WIDTH];
    for (c, col) in cols.iter().enumerate() {
        let (g, p) = (c / GROUP_WIDTH, c % GROUP_WIDTH);
        let group = &mut groups[g * k * GROUP_WIDTH..(g + 1) * k * GROUP_WIDTH];
        for (slot, &v) in group.iter_mut().skip(p).step_by(GROUP_WIDTH).zip(*col) {
            *slot = v;
        }
    }
    groups
}

/// The raw sums `Σ (a_e − col_p[e])²` of row `a` against the
/// [`GROUP_WIDTH`] columns interleaved in `group` (see
/// [`interleave_columns`]), over `min(a.len(), group.len() /
/// GROUP_WIDTH)` elements. Lane `p` is bit-identical to
/// [`v1_scalar`]`(a, col_p)` whenever `col_p` has that many elements:
/// every lane keeps its own accumulator and adds its terms in exactly
/// the per-pair order, so evaluating eight pairs per pass changes no
/// pair's arithmetic. Dispatches to an AVX2 compilation of the same
/// body when the CPU has it (detected once per process).
#[inline]
#[must_use]
pub(crate) fn sq_distance_group(a: &[f64], group: &[f64]) -> [f64; GROUP_WIDTH] {
    #[cfg(target_arch = "x86_64")]
    {
        if avx2_available() {
            // SAFETY: AVX2 presence was verified at runtime.
            return unsafe { v1_group_avx2(a, group) };
        }
    }
    v1_group(a, group)
}

/// One unfused accumulator per lane, started where `Iterator::sum`
/// starts (−0.0) and fed `(a_e − b_e)²` in element order —
/// [`v1_scalar`]'s expression. Lanes are independent, so the compiler
/// vectorizes across them without reassociating any sum.
#[inline(always)]
fn v1_group(a: &[f64], group: &[f64]) -> [f64; GROUP_WIDTH] {
    let mut acc = [-0.0f64; GROUP_WIDTH];
    for (&x, col) in a.iter().zip(group.as_chunks::<GROUP_WIDTH>().0) {
        for (s, &y) in acc.iter_mut().zip(col) {
            let d = x - y;
            *s += d * d;
        }
    }
    acc
}

/// [`v1_group`] compiled for AVX2: two 4-wide unfused chains.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
// SAFETY: callers must have verified AVX2 support at runtime (the only
// caller is `sq_distance_group`, gated on `avx2_available`); the body
// is safe Rust — the attribute alone makes this an unsafe fn.
unsafe fn v1_group_avx2(a: &[f64], group: &[f64]) -> [f64; GROUP_WIDTH] {
    v1_group(a, group)
}

// ---------------------------------------------------------------------------
// The run kernel: one query row against stored rows read in place.
// ---------------------------------------------------------------------------

/// Stored rows per pass of the run kernel; a store whose row runs are
/// multiples of this never takes the per-pair path.
pub const RUN_BLOCK: usize = 8;

/// The raw sums `Σ (q_e − row_r[e])²` of `query` against the `rows`
/// stored rows laid out back to back in `run` (row `r` is
/// `run[r·k..(r + 1)·k]`, `k = query.len()`), written to `out[r]` for
/// `r < rows`. `out[r]` is bit-identical to [`v1_scalar`]`(query, row
/// r)`.
///
/// Scores [`RUN_BLOCK`] rows per pass, reading them in place: each lane
/// keeps one unfused accumulator started at −0.0 and adds its terms in
/// element order, [`v1_scalar`]'s expression, so eight independent add
/// chains replace one. On `x86_64` an AVX2 build of the block is chosen
/// once per process by CPU detection. A ragged last block runs per
/// pair.
///
/// # Panics
/// If `run.len() != rows · query.len()` or `out.len() < rows`.
pub fn sq_distance_run(query: &[f64], run: &[f64], rows: usize, out: &mut [f64]) {
    let k = query.len();
    assert_eq!(
        rows.checked_mul(k),
        Some(run.len()),
        "a run of {rows} rows of {k} values"
    );
    let out = &mut out[..rows];
    #[cfg(target_arch = "x86_64")]
    {
        if avx2_available() {
            return v1_run(query, run, out, |query, block, next| {
                // SAFETY: AVX2 presence was verified at runtime.
                unsafe { v1_block_avx2(query, block, next) }
            });
        }
    }
    v1_run(query, run, out, |query, block, _| v1_block(query, block));
}

/// The run: each whole block of `run` through `block` (given the query,
/// the block and the next whole block to prefetch, or an empty slice),
/// the ragged rest per pair. `out.len()` is the row count.
fn v1_run(
    query: &[f64],
    run: &[f64],
    out: &mut [f64],
    block: impl Fn(&[f64], &[f64], &[f64]) -> [f64; RUN_BLOCK],
) {
    let k = query.len();
    let (blocks, rest) = out.as_chunks_mut::<RUN_BLOCK>();
    let count = blocks.len();
    for (b, sums) in blocks.iter_mut().enumerate() {
        let (this, next) = run[b * RUN_BLOCK * k..].split_at(RUN_BLOCK * k);
        *sums = block(query, this, if b + 1 < count { next } else { &[] });
    }
    let done = count * RUN_BLOCK;
    for (r, sum) in rest.iter_mut().enumerate() {
        *sum = v1_scalar(query, &run[(done + r) * k..(done + r + 1) * k]);
    }
}

/// One block of [`RUN_BLOCK`] rows of `query.len()` values: lane `r`
/// starts at −0.0 (where `Iterator::sum` starts) and adds
/// `(q_e − row_r[e])²` in element order. The portable definition of the
/// run kernel's block.
fn v1_block(query: &[f64], block: &[f64]) -> [f64; RUN_BLOCK] {
    let k = query.len();
    let rows: [&[f64]; RUN_BLOCK] = std::array::from_fn(|r| &block[r * k..(r + 1) * k]);
    let mut acc = [-0.0f64; RUN_BLOCK];
    for (e, &x) in query.iter().enumerate() {
        for (s, row) in acc.iter_mut().zip(&rows) {
            let d = x - row[e];
            *s += d * d;
        }
    }
    acc
}

/// [`v1_block`] in AVX2 registers. Per four elements `e..e+4`, each row
/// `r` loads its four values in place and forms `d = q − row_r` and
/// `d·d` (the scalar lane's correctly rounded `sub` and `mul`); a 4 × 4
/// transpose (`unpacklo/hi_pd` + `permute2f128_pd`) turns the squares of
/// rows `0..4`, and of rows `4..8`, into one vector per element, which
/// `add_pd` folds into that half's lanes in element order. The multiply
/// and the add are never fused. The `k % 4` tail is added per lane in
/// scalar code. Each step prefetches four lines of `next` (the following
/// block, or empty), so the next block is in cache when its turn comes.
///
/// # Safety
/// The CPU must support AVX2. The block shape is asserted, not assumed.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
// SAFETY: callers must have verified AVX2 support at runtime (the only
// caller is `sq_distance_run`, gated on `avx2_available`). The assert
// below pins `block` to `RUN_BLOCK` rows of `k = query.len()` values,
// so with `e + 4 <= k` every load reads inside `query` and inside row
// `r < RUN_BLOCK` of `block`; each prefetched line lies inside `next`.
unsafe fn v1_block_avx2(query: &[f64], block: &[f64], next: &[f64]) -> [f64; RUN_BLOCK] {
    use core::arch::x86_64::{
        __m256d, _mm256_add_pd, _mm256_loadu_pd, _mm256_mul_pd, _mm256_permute2f128_pd,
        _mm256_set1_pd, _mm256_setzero_pd, _mm256_storeu_pd, _mm256_sub_pd, _mm256_unpackhi_pd,
        _mm256_unpacklo_pd, _mm_prefetch, _MM_HINT_T0,
    };
    /// Add the squares of four rows at elements `e..e+4` (one vector
    /// per row) into the four lanes of `acc`, element `e` first.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn add_transposed(acc: __m256d, a: __m256d, b: __m256d, c: __m256d, d: __m256d) -> __m256d {
        let ab_even = _mm256_unpacklo_pd(a, b); // a0 b0 a2 b2
        let ab_odd = _mm256_unpackhi_pd(a, b); // a1 b1 a3 b3
        let cd_even = _mm256_unpacklo_pd(c, d); // c0 d0 c2 d2
        let cd_odd = _mm256_unpackhi_pd(c, d); // c1 d1 c3 d3
        let acc = _mm256_add_pd(acc, _mm256_permute2f128_pd::<0x20>(ab_even, cd_even));
        let acc = _mm256_add_pd(acc, _mm256_permute2f128_pd::<0x20>(ab_odd, cd_odd));
        let acc = _mm256_add_pd(acc, _mm256_permute2f128_pd::<0x31>(ab_even, cd_even));
        _mm256_add_pd(acc, _mm256_permute2f128_pd::<0x31>(ab_odd, cd_odd))
    }
    let k = query.len();
    assert_eq!(block.len(), RUN_BLOCK * k, "one block of whole rows");
    let (q, p) = (query.as_ptr(), block.as_ptr());
    let next_lines = next.len() / 8;
    let mut lo = _mm256_set1_pd(-0.0);
    let mut hi = _mm256_set1_pd(-0.0);
    let mut e = 0;
    while e + 4 <= k {
        let qv = _mm256_loadu_pd(q.add(e));
        let mut squares = [_mm256_setzero_pd(); RUN_BLOCK];
        for (r, square) in squares.iter_mut().enumerate() {
            let d = _mm256_sub_pd(qv, _mm256_loadu_pd(p.add(r * k + e)));
            *square = _mm256_mul_pd(d, d);
        }
        let [s0, s1, s2, s3, s4, s5, s6, s7] = squares;
        lo = add_transposed(lo, s0, s1, s2, s3);
        hi = add_transposed(hi, s4, s5, s6, s7);
        for line in e..(e + 4).min(next_lines) {
            _mm_prefetch::<_MM_HINT_T0>(next.as_ptr().wrapping_add(line * 8).cast());
        }
        e += 4;
    }
    let mut acc = [0.0f64; RUN_BLOCK];
    _mm256_storeu_pd(acc.as_mut_ptr(), lo);
    _mm256_storeu_pd(acc.as_mut_ptr().add(4), hi);
    for (e, &x) in query.iter().enumerate().skip(e) {
        for (r, s) in acc.iter_mut().enumerate() {
            let d = x - block[r * k + e];
            *s += d * d;
        }
    }
    acc
}

// ---------------------------------------------------------------------------
// The sketching path's frozen reference.
// ---------------------------------------------------------------------------

// dp-lint: freeze(sketch-batch-v1) begin
/// The frozen V1 batch reference: one `apply_into` per row, in row
/// order — exactly the bit patterns every sketch produced before the
/// batch kernels landed. The optimized V1 batch paths (`apply_batch_into`
/// overrides in `dp-transforms`) must stay bit-identical to this loop;
/// the proptest suites pin them against it.
///
/// # Errors
/// [`TransformError::DimensionMismatch`] on any shape mismatch.
pub fn v1_apply_batch_reference(
    t: &dyn LinearTransform,
    rows: &[&[f64]],
    out: &mut [f64],
) -> Result<(), TransformError> {
    let k = t.output_dim();
    if out.len() != rows.len() * k {
        return Err(TransformError::DimensionMismatch {
            expected: rows.len() * k,
            actual: out.len(),
        });
    }
    for (x, dst) in rows.iter().zip(out.chunks_exact_mut(k.max(1))) {
        t.apply_into(x, dst)?;
    }
    Ok(())
}
// dp-lint: freeze(sketch-batch-v1) end

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn mixed_magnitude_rows(seed: u64, len: usize) -> (Vec<f64>, Vec<f64>) {
        // Adversarial magnitudes: mixed sign, ~2^±60 dynamic range
        // (squares stay comfortably inside the f64 exponent range).
        use dp_hashing::{Prng, Seed};
        let mut rng = Seed::new(seed).rng();
        let mut gen = |_: usize| {
            let mantissa = rng.next_f64() * 2.0 - 1.0;
            let exponent = (rng.next_f64() * 120.0 - 60.0) as i32;
            mantissa * f64::powi(2.0, exponent)
        };
        let a: Vec<f64> = (0..len).map(&mut gen).collect();
        let b: Vec<f64> = (0..len).map(&mut gen).collect();
        (a, b)
    }

    #[test]
    fn v1_is_the_historic_zip_expression() {
        let (a, b) = mixed_magnitude_rows(7, 33);
        let expected: f64 = a
            .iter()
            .zip(&b)
            .map(|(x, y)| {
                let d = x - y;
                d * d
            })
            .sum();
        assert_eq!(v1_scalar(&a, &b).to_bits(), expected.to_bits());
    }

    #[test]
    fn zero_and_identical_rows_are_exact() {
        let zeros = vec![0.0f64; 17];
        assert_eq!(v1_scalar(&zeros, &zeros), 0.0);
        let (a, _) = mixed_magnitude_rows(3, 29);
        assert_eq!(v1_scalar(&a, &a), 0.0);
    }

    #[test]
    fn mismatched_lengths_truncate_like_zip() {
        let (a, b) = mixed_magnitude_rows(11, 9);
        let short = &b[..5];
        assert_eq!(
            v1_scalar(&a, short).to_bits(),
            v1_scalar(&a[..5], short).to_bits()
        );
    }

    /// Only `v1-scalar` parses; the retired `v2-simd`, the old
    /// environment aliases and unknown names are refused by name.
    #[test]
    fn only_the_v1_name_parses() {
        let v1 = KernelId::V1Scalar;
        assert_eq!(KernelId::parse(v1.name()), Ok(v1));
        assert_eq!(KernelId::default(), v1);
        for name in ["v2-simd", "simd", "scalar", "V1-SCALAR", " v1-scalar", ""] {
            assert_eq!(
                KernelId::parse(name),
                Err(CoreError::UnknownKernel(name.to_string()))
            );
        }
    }

    /// A row and `live` columns of `k` coordinates drawn from mixed
    /// magnitudes, subnormals and both signed zeros; one column repeats
    /// the row, so some lanes sum exact zeros.
    fn group_inputs(seed: u64, k: usize, live: usize) -> (Vec<f64>, Vec<Vec<f64>>) {
        use dp_hashing::{Prng, Seed};
        let mut rng = Seed::new(seed).rng();
        let mut gen = || match rng.next_u64() % 8 {
            0 => 0.0,
            1 => -0.0,
            2 => f64::MIN_POSITIVE * (rng.next_f64() - 0.5),
            _ => {
                let exponent = (rng.next_f64() * 120.0 - 60.0) as i32;
                (rng.next_f64() * 2.0 - 1.0) * f64::powi(2.0, exponent)
            }
        };
        let a: Vec<f64> = (0..k).map(|_| gen()).collect();
        let mut cols: Vec<Vec<f64>> = (0..live).map(|_| (0..k).map(|_| gen()).collect()).collect();
        cols[seed as usize % live].clone_from(&a);
        (a, cols)
    }

    /// Every lane of the dispatched group kernel and of its portable
    /// body is bit-identical to the per-pair sum of its column; lanes
    /// past `live` are zero-padded columns.
    fn assert_group_matches_per_pair(seed: u64, k: usize, live: usize) {
        let (a, cols) = group_inputs(seed, k, live);
        let refs: Vec<&[f64]> = cols.iter().map(Vec::as_slice).collect();
        let group = interleave_columns(&refs, k);
        let zeros = vec![0.0; k];
        let portable = v1_group(&a, &group);
        let dispatched = sq_distance_group(&a, &group);
        for p in 0..GROUP_WIDTH {
            let want = v1_scalar(&a, refs.get(p).copied().unwrap_or(&zeros));
            for (path, got) in [("dispatched", dispatched[p]), ("portable", portable[p])] {
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "{path} k = {k} lane {p} of {live} live: {got:e} vs {want:e}"
                );
            }
        }
    }

    #[test]
    fn group_tails_and_empty_rows_match_per_pair() {
        // k = 0 sums nothing: every lane keeps `Iterator::sum`'s −0.0.
        for k in 0..=9usize {
            assert_group_matches_per_pair(500 + k as u64, k, GROUP_WIDTH);
        }
        assert!(sq_distance_group(&[], &[])[0].is_sign_negative());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn group_kernels_are_bit_identical_to_per_pair(
            seed in 0u64..1_000_000,
            k in 0usize..300,
            live in 1usize..9,
        ) {
            assert_group_matches_per_pair(seed, k, live);
        }
    }

    /// Every lane of the dispatched run kernel and of its portable body
    /// is bit-identical to the per-pair sum of its row, for `rows`
    /// stored rows of `k` values read in place; the slot past `rows`
    /// stays untouched.
    fn assert_run_matches_per_pair(seed: u64, k: usize, rows: usize) {
        let (query, stored) = group_inputs(seed, k, rows.max(1));
        let run = stored[..rows].concat();
        let mut dispatched = vec![f64::NAN; rows + 1];
        sq_distance_run(&query, &run, rows, &mut dispatched);
        assert!(dispatched[rows].is_nan(), "wrote past {rows} rows");
        let mut portable = vec![f64::NAN; rows];
        v1_run(&query, &run, &mut portable, |q, block, _| {
            v1_block(q, block)
        });
        for (r, row) in stored[..rows].iter().enumerate() {
            let want = v1_scalar(&query, row);
            for (path, got) in [("dispatched", dispatched[r]), ("portable", portable[r])] {
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "{path} k = {k} row {r} of {rows}: {got:e} vs {want:e}"
                );
            }
        }
    }

    #[test]
    fn run_kernel_matches_per_pair_for_every_ragged_block_and_tail() {
        for rows in 0..=64usize {
            for k in [0usize, 1, 2, 3, 4, 5, 6, 7, 8, 208, 211] {
                assert_run_matches_per_pair(900 + rows as u64 * 13 + k as u64, k, rows);
            }
        }
        // k = 0 sums nothing, and the row count is taken as given: every
        // lane keeps `Iterator::sum`'s −0.0.
        let mut out = [f64::NAN; 9];
        sq_distance_run(&[], &[], 9, &mut out);
        assert!(
            out.iter().all(|s| s.to_bits() == (-0.0f64).to_bits()),
            "{out:?}"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn run_kernel_is_bit_identical_to_per_pair(
            seed in 0u64..1_000_000,
            k in 0usize..300,
            rows in 0usize..65,
        ) {
            assert_run_matches_per_pair(seed, k, rows);
        }
    }
}

#[cfg(test)]
mod batch_tests {
    use super::*;
    use dp_hashing::Seed;
    use dp_transforms::{achlioptas::Achlioptas, gaussian_iid::GaussianIid, sjlt::Sjlt};

    const D: usize = 24;
    const K: usize = 12;

    fn batch(n: usize) -> Vec<Vec<f64>> {
        (0..n)
            .map(|b| {
                (0..D)
                    .map(|i| {
                        if (i + 2 * b) % 5 == 0 {
                            0.0
                        } else {
                            ((i * 13 + b * 7) % 17) as f64 * 0.375 - 3.0
                        }
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn batch_apply_is_bit_identical_to_frozen_reference() {
        let sjlt = Sjlt::new(D, K, 4, 6, Seed::new(21)).unwrap();
        let ach = Achlioptas::new(D, K, Seed::new(22)).unwrap();
        let gauss = GaussianIid::new(D, K, Seed::new(23)).unwrap();
        let transforms: [(&str, &dyn LinearTransform); 3] =
            [("sjlt", &sjlt), ("achlioptas", &ach), ("gaussian", &gauss)];
        for (name, t) in transforms {
            for n in [0usize, 1, 3, 8, 11] {
                let rows = batch(n);
                let refs: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();
                let mut fast = vec![f64::NAN; n * K];
                let mut frozen = vec![f64::NAN; n * K];
                t.apply_batch_into(&refs, &mut fast).unwrap();
                v1_apply_batch_reference(t, &refs, &mut frozen).unwrap();
                for (i, (a, b)) in fast.iter().zip(&frozen).enumerate() {
                    assert_eq!(a.to_bits(), b.to_bits(), "{name} n={n} elem {i}");
                }
            }
        }
    }

    #[test]
    fn batch_shapes_validated() {
        let sjlt = Sjlt::new(D, K, 4, 6, Seed::new(51)).unwrap();
        let good = vec![1.0; D];
        let bad = vec![1.0; D - 1];
        let mut out = vec![0.0; 2 * K];
        let refs: [&[f64]; 2] = [&good, &bad];
        assert!(sjlt.apply_batch_into(&refs, &mut out).is_err());
        assert!(v1_apply_batch_reference(&sjlt, &refs, &mut out).is_err());
        let refs: [&[f64]; 2] = [&good, &good];
        assert!(sjlt.apply_batch_into(&refs, &mut out[..K]).is_err());
        assert!(v1_apply_batch_reference(&sjlt, &refs, &mut out[..K]).is_err());
        sjlt.apply_batch_into(&refs, &mut out).unwrap();
    }
}
