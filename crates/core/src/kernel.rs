//! The versioned per-pair distance accumulator, its eight-pair group
//! form for all-pairs tiles, and its eight-row run form for k-NN scans.
//!
//! Every pairwise estimate in the workspace reduces to one expression:
//! the squared Euclidean distance between two sketch-value slices,
//! `Σ (a_i − b_i)²`, debiased by the caller. This module owns that
//! accumulation, **versioned** by [`KernelId`]:
//!
//! * [`KernelId::V1Scalar`] — the historic strictly sequential
//!   zip-order scalar sum. This is the bit-identity anchor every PR
//!   since the tiled kernel landed has pinned; its bit patterns must
//!   never move. (`f64::mul_add` is deliberately *not* used here —
//!   fusing the multiply into the add changes the rounding of every
//!   partial sum, which the bit-identity suites would catch.)
//! * [`KernelId::V2Simd`] — an explicit-width reassociated path: four
//!   independent f64 lane accumulators striding the slice in chunks of
//!   four, each lane updated with a fused multiply-add, plus a scalar
//!   fused tail for the `len % 4` remainder, combined in the fixed
//!   order `((l₀ + l₂) + (l₁ + l₃)) + tail`. On `x86_64` with
//!   runtime-detected AVX2+FMA this runs as one `_mm256_fmadd_pd`
//!   chain with a two-step horizontal reduction in exactly that order;
//!   everywhere else a portable unrolled loop computes the *same*
//!   expression with `f64::mul_add` (correctly rounded fused multiply-
//!   add, hardware or soft-float) — so V2 is **one** bit pattern across
//!   CPUs, not "whatever the hardware gives".
//!
//! ## The contract
//!
//! Reassociation changes result bits, so the determinism contract is
//! scoped per version: within one [`KernelId`], results are
//! bit-identical across thread counts, tile sizes, shards, and hosts;
//! across versions they agree only to rounding (the sum has all
//! non-negative terms — no cancellation — so both schemes are within
//! `len·ε` relative error of the exact sum, pinned by the ulp-bounded
//! proptest below). A fleet must therefore agree on one kernel per
//! store: the kernel id travels in [`crate::sketcher::SketcherSpec`]
//! and is negotiated on protocol `Hello` (mismatch → `ERR_KERNEL`).
//!
//! ## The group kernels
//!
//! The all-pairs tiles evaluate eight pairs per pass:
//! `sq_distance_group` takes one row and eight column rows interleaved
//! element-major (`group[e·8 + p]` is column `p`'s element `e`) and
//! returns the eight raw sums. The contract is per pair, not per pass:
//! each lane has its own accumulators and adds its terms in the
//! per-pair order, so lane `p` is bit-identical to [`sq_distance`] of
//! its pair.
//!
//! * **V1** keeps one unfused accumulator per lane, started where
//!   `Iterator::sum` starts (−0.0), so eight independent add chains
//!   replace one, and the per-pair latency bound is gone without
//!   reassociating any sum.
//! * **V2** keeps each lane's four fused accumulators (element `e`
//!   feeds accumulator `e mod 4`), its fused tail and the
//!   `((l₀ + l₂) + (l₁ + l₃)) + tail` combine.
//!
//! The safe generic bodies are the definition and the portable path.
//! On `x86_64` an AVX2 (V1) or AVX2+FMA (V2) compilation of the same
//! bodies is chosen once per process by CPU detection, as for
//! [`v2_simd`]; the tests compare both against the per-pair sums.
//!
//! ## The run kernel
//!
//! A k-NN scan scores one query row against every stored row, and the
//! store keeps its rows back to back in runs. [`sq_distance_run`] reads
//! such a run in place (no interleaving copy) and writes one raw sum
//! per row, again bit-identical to [`sq_distance`] of each pair. Under
//! V1 it scores [`RUN_BLOCK`] = 8 rows per pass: each lane keeps one
//! unfused accumulator started at −0.0 and adds `(q_e − row_r[e])²` in
//! element order. The safe generic block body is the definition; on
//! `x86_64` with AVX2 (detected once per process) the block runs in
//! registers through 4 × 4 transposes, multiplies and adds unfused, and
//! prefetches the next block. A ragged last block runs per pair, and so
//! does every V2 row.
//!
//! ## The sketching path
//!
//! The same [`KernelId`] also versions the *projection* accumulators of
//! the batch sketching path — one kernel id means one bit pattern for
//! sketches **and** distances, which replica agreement requires since
//! sketches cross the wire:
//!
//! * **V1** — exactly today's per-row
//!   [`dp_transforms::LinearTransform::apply_into`] bit patterns,
//!   pinned by the frozen [`v1_apply_batch_reference`] below. The
//!   batch-aware `apply_batch_into` overrides in `dp-transforms` are
//!   *cache* optimizations (row-blocked dense passes, SJLT columns
//!   resolved once per transform) that keep each row's accumulation order
//!   verbatim, so V1 batch output is bit-identical to V1 per-row
//!   output.
//! * **V2** — the PR 7 recipe applied to projections: dense rows go
//!   through [`v2_dot`] (four fused lanes + fused tail, combined
//!   `((l₀ + l₂) + (l₁ + l₃)) + tail`, AVX2+FMA when detected, the
//!   bit-identical portable `mul_add` form otherwise); column-sparse
//!   transforms (SJLT, Achlioptas) scatter with a scalar correctly
//!   rounded `f64::mul_add` per entry — there is no f64 scatter-add
//!   instruction to version against, and a correctly rounded FMA is
//!   one bit pattern on every CPU by definition. Each row's V2 result
//!   is independent of batch composition, so V2 is bit-identical
//!   across batch and block sizes too.

pub use dp_parallel::KernelId;

use dp_linalg::{DenseMatrix, SparseVector};
use dp_transforms::{LinearTransform, StreamingColumns, TransformError};

/// The per-pair squared-distance accumulation `Σ (a_i − b_i)²` over
/// `min(a.len(), b.len())` elements, under kernel version `id`.
#[inline]
#[must_use]
pub fn sq_distance(id: KernelId, a: &[f64], b: &[f64]) -> f64 {
    match id {
        KernelId::V1Scalar => v1_scalar(a, b),
        KernelId::V2Simd => v2_simd(a, b),
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

/// V2: four independent fused-multiply-add lane accumulators plus a
/// scalar fused tail, combined as `((l₀ + l₂) + (l₁ + l₃)) + tail`.
/// Dispatches to AVX2+FMA intrinsics when the CPU has them (detected
/// once per process) and to the bit-identical portable unrolled path
/// otherwise.
#[inline]
#[must_use]
pub fn v2_simd(a: &[f64], b: &[f64]) -> f64 {
    #[cfg(target_arch = "x86_64")]
    {
        if avx2_fma_available() {
            // SAFETY: AVX2 and FMA presence was verified at runtime.
            return unsafe { v2_avx2(a, b) };
        }
    }
    v2_portable(a, b)
}

/// Which backend [`v2_simd`] dispatches to on this host — reported by
/// the benches so BENCH records say what was actually measured.
#[must_use]
pub fn v2_backend() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    {
        if avx2_fma_available() {
            return "avx2+fma";
        }
    }
    "portable-unrolled"
}

#[cfg(target_arch = "x86_64")]
fn avx2_fma_available() -> bool {
    use std::sync::OnceLock;
    static AVAILABLE: OnceLock<bool> = OnceLock::new();
    *AVAILABLE.get_or_init(|| is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma"))
}

/// The portable definition of V2. `f64::mul_add` is a correctly
/// rounded fused multiply-add on every target (hardware FMA where the
/// ISA has it, soft-float otherwise), so this computes bit-for-bit
/// what the AVX2 path computes.
fn v2_portable(a: &[f64], b: &[f64]) -> f64 {
    let n = a.len().min(b.len());
    let body = n - (n % 4);
    let mut lanes = [0.0f64; 4];
    let mut i = 0;
    while i < body {
        // Four independent dependency chains: lane l accumulates
        // elements i + l, exactly the vector-register layout.
        let d0 = a[i] - b[i];
        let d1 = a[i + 1] - b[i + 1];
        let d2 = a[i + 2] - b[i + 2];
        let d3 = a[i + 3] - b[i + 3];
        lanes[0] = d0.mul_add(d0, lanes[0]);
        lanes[1] = d1.mul_add(d1, lanes[1]);
        lanes[2] = d2.mul_add(d2, lanes[2]);
        lanes[3] = d3.mul_add(d3, lanes[3]);
        i += 4;
    }
    let mut tail = 0.0f64;
    for j in body..n {
        let d = a[j] - b[j];
        tail = d.mul_add(d, tail);
    }
    ((lanes[0] + lanes[2]) + (lanes[1] + lanes[3])) + tail
}

/// The AVX2+FMA realization of the same expression: one 4-lane fmadd
/// chain over the body, then the horizontal reduction
/// `(l₀ + l₂) + (l₁ + l₃)` (low/high 128-bit halves added, then the
/// two remaining lanes), then the scalar fused tail.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
// SAFETY: callers must have verified AVX2 and FMA support at runtime
// (the only caller is `v2_simd`, gated on `avx2_fma_available`); the
// unaligned loads inside stay within `min(a.len(), b.len())`.
unsafe fn v2_avx2(a: &[f64], b: &[f64]) -> f64 {
    use core::arch::x86_64::{
        _mm256_castpd256_pd128, _mm256_extractf128_pd, _mm256_fmadd_pd, _mm256_loadu_pd,
        _mm256_setzero_pd, _mm256_sub_pd, _mm_add_pd, _mm_add_sd, _mm_cvtsd_f64, _mm_unpackhi_pd,
    };
    let n = a.len().min(b.len());
    let body = n - (n % 4);
    let mut acc = _mm256_setzero_pd();
    let mut i = 0;
    while i < body {
        let va = _mm256_loadu_pd(a.as_ptr().add(i));
        let vb = _mm256_loadu_pd(b.as_ptr().add(i));
        let d = _mm256_sub_pd(va, vb);
        acc = _mm256_fmadd_pd(d, d, acc);
        i += 4;
    }
    let lo = _mm256_castpd256_pd128(acc); // [l0, l1]
    let hi = _mm256_extractf128_pd::<1>(acc); // [l2, l3]
    let halves = _mm_add_pd(lo, hi); // [l0 + l2, l1 + l3]
    let upper = _mm_unpackhi_pd(halves, halves);
    let body_sum = _mm_cvtsd_f64(_mm_add_sd(halves, upper)); // (l0+l2) + (l1+l3)
    let mut tail = 0.0f64;
    for j in body..n {
        let d = *a.get_unchecked(j) - *b.get_unchecked(j);
        tail = d.mul_add(d, tail);
    }
    body_sum + tail
}

// ---------------------------------------------------------------------------
// The group kernels: one row against GROUP_WIDTH columns per pass.
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
/// GROUP_WIDTH)` elements, under kernel version `id`. Lane `p` is
/// bit-identical to [`sq_distance`]`(id, a, col_p)` whenever `col_p`
/// has that many elements: every lane keeps its own accumulators and
/// adds its terms in exactly the per-pair order, so evaluating eight
/// pairs per pass changes no pair's arithmetic. Dispatches to an AVX2
/// (V1) or AVX2+FMA (V2) compilation of the same body when the CPU
/// has it (detected once per process).
#[inline]
#[must_use]
pub(crate) fn sq_distance_group(id: KernelId, a: &[f64], group: &[f64]) -> [f64; GROUP_WIDTH] {
    #[cfg(target_arch = "x86_64")]
    {
        match id {
            KernelId::V1Scalar if avx2_available() => {
                // SAFETY: AVX2 presence was verified at runtime.
                return unsafe { v1_group_avx2(a, group) };
            }
            KernelId::V2Simd if avx2_fma_available() => {
                // SAFETY: AVX2 and FMA presence was verified at runtime.
                return unsafe { v2_group_avx2(a, group) };
            }
            _ => {}
        }
    }
    match id {
        KernelId::V1Scalar => v1_group(a, group),
        KernelId::V2Simd => v2_group(a, group),
    }
}

#[cfg(target_arch = "x86_64")]
fn avx2_available() -> bool {
    use std::sync::OnceLock;
    static AVAILABLE: OnceLock<bool> = OnceLock::new();
    *AVAILABLE.get_or_init(|| is_x86_feature_detected!("avx2"))
}

/// V1 per lane: one unfused accumulator, started where
/// `Iterator::sum` starts (−0.0) and fed `(a_e − b_e)²` in element
/// order — [`v1_scalar`]'s expression. Lanes are independent, so the
/// compiler vectorizes across them without reassociating any sum.
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

/// V2 per lane: [`v2_portable`]'s four fused accumulators (element `e`
/// feeds accumulator `e mod 4`), its fused tail, and its
/// `((l₀ + l₂) + (l₁ + l₃)) + tail` combine. The four accumulators of
/// eight lanes are 32 independent fused chains.
#[inline(always)]
fn v2_group(a: &[f64], group: &[f64]) -> [f64; GROUP_WIDTH] {
    let cols = group.as_chunks::<GROUP_WIDTH>().0;
    let n = a.len().min(cols.len());
    let body = n - n % 4;
    let mut lanes = [[0.0f64; GROUP_WIDTH]; 4];
    let quads = a[..body].as_chunks::<4>().0;
    for (xs, quad) in quads.iter().zip(cols[..body].as_chunks::<4>().0) {
        for ((lane, &x), col) in lanes.iter_mut().zip(xs).zip(quad) {
            for (s, &y) in lane.iter_mut().zip(col) {
                let d = x - y;
                *s = d.mul_add(d, *s);
            }
        }
    }
    let mut tail = [0.0f64; GROUP_WIDTH];
    for (&x, col) in a[body..n].iter().zip(&cols[body..n]) {
        for (s, &y) in tail.iter_mut().zip(col) {
            let d = x - y;
            *s = d.mul_add(d, *s);
        }
    }
    let [l0, l1, l2, l3] = lanes;
    std::array::from_fn(|p| ((l0[p] + l2[p]) + (l1[p] + l3[p])) + tail[p])
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

/// [`v2_group`] compiled for AVX2+FMA, so `f64::mul_add` is an inline
/// `vfmadd` instead of a libm call: same correctly rounded operation,
/// same bits.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
// SAFETY: callers must have verified AVX2 and FMA support at runtime
// (the only caller is `sq_distance_group`, gated on
// `avx2_fma_available`); the body is safe Rust — the attribute alone
// makes this an unsafe fn.
unsafe fn v2_group_avx2(a: &[f64], group: &[f64]) -> [f64; GROUP_WIDTH] {
    v2_group(a, group)
}

// ---------------------------------------------------------------------------
// The run kernel: one query row against stored rows read in place.
// ---------------------------------------------------------------------------

/// Stored rows per pass of the V1 run kernel; a store whose row runs
/// are multiples of this never takes the per-pair path.
pub const RUN_BLOCK: usize = 8;

/// The raw sums `Σ (q_e − row_r[e])²` of `query` against the `rows`
/// stored rows laid out back to back in `run` (row `r` is
/// `run[r·k..(r + 1)·k]`, `k = query.len()`), written to `out[r]` for
/// `r < rows`. `out[r]` is bit-identical to [`sq_distance`]`(id, query,
/// row r)`.
///
/// V1 scores [`RUN_BLOCK`] rows per pass, reading them in place: each
/// lane keeps one unfused accumulator started at −0.0 and adds its
/// terms in element order, [`v1_scalar`]'s expression, so eight
/// independent add chains replace one. On `x86_64` an AVX2 build of the
/// block is chosen once per process by CPU detection. A ragged last
/// block, and every V2 row, runs per pair.
///
/// # Panics
/// If `run.len() != rows · query.len()` or `out.len() < rows`.
pub fn sq_distance_run(id: KernelId, query: &[f64], run: &[f64], rows: usize, out: &mut [f64]) {
    let k = query.len();
    assert_eq!(
        rows.checked_mul(k),
        Some(run.len()),
        "a run of {rows} rows of {k} values"
    );
    let out = &mut out[..rows];
    match id {
        #[cfg(target_arch = "x86_64")]
        KernelId::V1Scalar if avx2_available() => v1_run(query, run, out, |query, block, next| {
            // SAFETY: AVX2 presence was verified at runtime.
            unsafe { v1_block_avx2(query, block, next) }
        }),
        KernelId::V1Scalar => v1_run(query, run, out, |query, block, _| v1_block(query, block)),
        KernelId::V2Simd => {
            for (r, sum) in out.iter_mut().enumerate() {
                *sum = v2_simd(query, &run[r * k..(r + 1) * k]);
            }
        }
    }
}

/// The V1 run: each whole block of `run` through `block` (given the
/// query, the block and the next whole block to prefetch, or an empty
/// slice), the ragged rest per pair. `out.len()` is the row count.
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

/// V1 per lane over one block of [`RUN_BLOCK`] rows of `query.len()`
/// values: lane `r` starts at −0.0 (where `Iterator::sum` starts) and
/// adds `(q_e − row_r[e])²` in element order. The portable definition
/// of the run kernel's block.
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

/// The documented V1-vs-V2 agreement bound: both schemes sum the same
/// non-negative terms (no cancellation is possible), each within
/// `len·ε` relative error of the exact sum, so they sit within
/// `2·len·ε` of each other — this helper allows `4·len·ε` relative
/// slack plus a `len` subnormal absolute slack (fused vs unfused
/// rounding of subnormal products) and is what the proptest asserts.
#[must_use]
pub fn within_ulp_bound(v1: f64, v2: f64, len: usize) -> bool {
    let scale = v1.abs().max(v2.abs());
    let slack = 4.0 * len as f64 * f64::EPSILON * scale + len as f64 * f64::MIN_POSITIVE;
    (v1 - v2).abs() <= slack
}

/// Cross-kernel agreement bound for *signed* sums (projection dots),
/// where cancellation means the error must be measured against the sum
/// of absolute terms `Σ|aᵢ·bᵢ|` rather than the (possibly tiny) result:
/// each scheme is within `len·ε·Σ|terms|` of the exact sum, so `4·len·ε`
/// relative to that scale plus a `len` subnormal absolute slack covers
/// both — the sketching analogue of [`within_ulp_bound`].
#[must_use]
pub fn within_signed_ulp_bound(v1: f64, v2: f64, abs_sum: f64, len: usize) -> bool {
    let slack = 4.0 * len as f64 * f64::EPSILON * abs_sum + len as f64 * f64::MIN_POSITIVE;
    (v1 - v2).abs() <= slack
}

// ---------------------------------------------------------------------------
// The batch sketching kernels (projection accumulators).
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

/// A batchable view of a transform's projection structure, classified
/// once per sketcher: explicit dense matrix (Gaussian i.i.d. /
/// Kenthapadi) or column-sparse streaming structure (SJLT, Achlioptas).
pub enum BatchProjection<'a> {
    /// Row-major `k × d` matrix plus the owning transform (for the V1
    /// dispatch and dimension metadata).
    Dense {
        /// The explicit matrix the V2 dot kernel runs over.
        matrix: &'a DenseMatrix,
        /// The transform itself — the V1 lane calls its (bit-frozen)
        /// batch apply.
        transform: &'a dyn LinearTransform,
    },
    /// Column-sparse structure scattered column-by-column.
    Columns(&'a dyn StreamingColumns),
}

/// Apply a batchable projection to `rows`, writing `rows.len() × k`
/// results row-major into `out`, under kernel version `id`. Within one
/// kernel the result is bit-identical to the corresponding single-row
/// path (`apply_into` for V1, [`apply_projection`] for V2) regardless
/// of batch size.
///
/// # Errors
/// [`TransformError::DimensionMismatch`] on any shape mismatch.
pub fn apply_batch(
    id: KernelId,
    p: &BatchProjection<'_>,
    rows: &[&[f64]],
    out: &mut [f64],
) -> Result<(), TransformError> {
    match (id, p) {
        (KernelId::V1Scalar, BatchProjection::Dense { transform, .. }) => {
            transform.apply_batch_into(rows, out)
        }
        (KernelId::V1Scalar, BatchProjection::Columns(t)) => t.apply_batch_into(rows, out),
        (KernelId::V2Simd, BatchProjection::Dense { matrix, .. }) => {
            v2_apply_dense_batch(matrix, rows, out)
        }
        (KernelId::V2Simd, BatchProjection::Columns(t)) => v2_apply_columns_batch(*t, rows, out),
    }
}

/// Single-row convenience over [`apply_batch`].
///
/// # Errors
/// [`TransformError::DimensionMismatch`] on shape mismatch.
pub fn apply_projection(
    id: KernelId,
    p: &BatchProjection<'_>,
    x: &[f64],
    out: &mut [f64],
) -> Result<(), TransformError> {
    apply_batch(id, p, &[x], out)
}

/// V2 sparse projection for column-sparse transforms: the
/// `O(s·‖x‖₀ + k)` scatter of `apply_sparse`, with each entry applied
/// through a correctly rounded `f64::mul_add` — the V2 scatter
/// discipline, one bit pattern on every CPU.
///
/// # Errors
/// [`TransformError::DimensionMismatch`] on shape mismatch.
pub fn v2_apply_columns_sparse(
    t: &dyn StreamingColumns,
    x: &SparseVector,
    out: &mut [f64],
) -> Result<(), TransformError> {
    if x.dim() != t.input_dim() {
        return Err(TransformError::DimensionMismatch {
            expected: t.input_dim(),
            actual: x.dim(),
        });
    }
    if out.len() != t.output_dim() {
        return Err(TransformError::DimensionMismatch {
            expected: t.output_dim(),
            actual: out.len(),
        });
    }
    out.fill(0.0);
    let mut entries: Vec<(usize, f64)> = Vec::with_capacity(t.column_nnz());
    for (j, w) in x.iter() {
        entries.clear();
        t.for_column(j, &mut |row, v| entries.push((row, v)))?;
        v2_scatter_column(&entries, w, out);
    }
    Ok(())
}

/// Scatter one weighted column into one output row: for each `(row, v)`
/// entry, `out[row] = fma(w, v, out[row])` in entry order. The fused
/// multiply-add is correctly rounded, so the hardware-FMA fast path and
/// the portable `f64::mul_add` (which lowers to a libm software `fma`
/// when the binary is built without the `fma` target feature) produce
/// the identical bit pattern — dispatch here is a pure speed choice,
/// unlike the versioned split between V1 and V2.
#[inline]
fn v2_scatter_column(entries: &[(usize, f64)], w: f64, out: &mut [f64]) {
    #[cfg(target_arch = "x86_64")]
    {
        if avx2_fma_available() {
            // SAFETY: FMA presence was verified at runtime (the probe
            // checks both AVX2 and FMA; FMA is all this path needs).
            unsafe { v2_scatter_column_fma(entries, w, out) };
            return;
        }
    }
    for &(row, v) in entries {
        out[row] = w.mul_add(v, out[row]);
    }
}

/// The scatter body compiled with the `fma` feature enabled, so
/// `f64::mul_add` lowers to an inline `vfmadd` instruction instead of a
/// libm call. Same correctly rounded operation, same bits.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "fma")]
// SAFETY: callers must have verified FMA support at runtime (the only
// caller is `v2_scatter_column`, gated on `avx2_fma_available`); the
// body is otherwise safe Rust — the attribute alone makes this an
// unsafe fn.
unsafe fn v2_scatter_column_fma(entries: &[(usize, f64)], w: f64, out: &mut [f64]) {
    for &(row, v) in entries {
        out[row] = w.mul_add(v, out[row]);
    }
}

/// Batch-shape validation shared by the V2 paths.
fn check_batch(d: usize, k: usize, rows: &[&[f64]], out: &[f64]) -> Result<(), TransformError> {
    for x in rows {
        if x.len() != d {
            return Err(TransformError::DimensionMismatch {
                expected: d,
                actual: x.len(),
            });
        }
    }
    if out.len() != rows.len() * k {
        return Err(TransformError::DimensionMismatch {
            expected: rows.len() * k,
            actual: out.len(),
        });
    }
    Ok(())
}

/// V2 dense projection: row-blocked pass over the matrix (S streamed
/// once per block of inputs), each output element one [`v2_dot`].
fn v2_apply_dense_batch(
    m: &DenseMatrix,
    rows: &[&[f64]],
    out: &mut [f64],
) -> Result<(), TransformError> {
    let (k, d) = (m.rows(), m.cols());
    check_batch(d, k, rows, out)?;
    const BLOCK: usize = 8;
    let mut start = 0;
    while start < rows.len() {
        let len = BLOCK.min(rows.len() - start);
        for r in 0..k {
            let srow = m.row(r);
            for (b, x) in rows[start..start + len].iter().enumerate() {
                out[(start + b) * k + r] = v2_dot(srow, x);
            }
        }
        start += len;
    }
    Ok(())
}

/// V2 column-sparse batch projection: each column's entries resolved
/// once and scattered across the whole batch with fused multiply-adds.
/// Per row the `(column asc, entry asc)` order and `w != 0.0` skip
/// mirror the V1 scatter exactly; only the accumulation op changes
/// (`+ w·v` → `mul_add`), which is the whole V1/V2 distinction.
fn v2_apply_columns_batch(
    t: &dyn StreamingColumns,
    rows: &[&[f64]],
    out: &mut [f64],
) -> Result<(), TransformError> {
    let (d, k) = (t.input_dim(), t.output_dim());
    check_batch(d, k, rows, out)?;
    out.fill(0.0);
    let mut entries: Vec<(usize, f64)> = Vec::with_capacity(t.column_nnz());
    for j in 0..d {
        entries.clear();
        t.for_column(j, &mut |row, v| entries.push((row, v)))?;
        for (b, x) in rows.iter().enumerate() {
            let w = x[j];
            if w != 0.0 {
                v2_scatter_column(&entries, w, &mut out[b * k..(b + 1) * k]);
            }
        }
    }
    Ok(())
}

/// The V2 dot product `Σ aᵢ·bᵢ` over `min(a.len(), b.len())` elements:
/// four independent fused-multiply-add lanes plus a scalar fused tail,
/// combined as `((l₀ + l₂) + (l₁ + l₃)) + tail` — the same fixed
/// reassociation as [`v2_simd`], applied to products instead of squared
/// differences. AVX2+FMA when detected, bit-identical portable
/// `mul_add` otherwise.
#[inline]
#[must_use]
pub fn v2_dot(a: &[f64], b: &[f64]) -> f64 {
    #[cfg(target_arch = "x86_64")]
    {
        if avx2_fma_available() {
            // SAFETY: AVX2 and FMA presence was verified at runtime.
            return unsafe { v2_dot_avx2(a, b) };
        }
    }
    v2_dot_portable(a, b)
}

/// The portable definition of the V2 dot (see [`v2_portable`] for why
/// `f64::mul_add` makes this one bit pattern everywhere).
fn v2_dot_portable(a: &[f64], b: &[f64]) -> f64 {
    let n = a.len().min(b.len());
    let body = n - (n % 4);
    let mut lanes = [0.0f64; 4];
    let mut i = 0;
    while i < body {
        lanes[0] = a[i].mul_add(b[i], lanes[0]);
        lanes[1] = a[i + 1].mul_add(b[i + 1], lanes[1]);
        lanes[2] = a[i + 2].mul_add(b[i + 2], lanes[2]);
        lanes[3] = a[i + 3].mul_add(b[i + 3], lanes[3]);
        i += 4;
    }
    let mut tail = 0.0f64;
    for j in body..n {
        tail = a[j].mul_add(b[j], tail);
    }
    ((lanes[0] + lanes[2]) + (lanes[1] + lanes[3])) + tail
}

/// AVX2+FMA realization of [`v2_dot_portable`]: one 4-lane fmadd chain
/// over the body, the same two-step horizontal reduction as
/// [`v2_avx2`], then the scalar fused tail.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
// SAFETY: callers must have verified AVX2 and FMA support at runtime
// (the only caller is `v2_dot`, gated on `avx2_fma_available`); the
// unaligned loads inside stay within `min(a.len(), b.len())`.
unsafe fn v2_dot_avx2(a: &[f64], b: &[f64]) -> f64 {
    use core::arch::x86_64::{
        _mm256_castpd256_pd128, _mm256_extractf128_pd, _mm256_fmadd_pd, _mm256_loadu_pd,
        _mm256_setzero_pd, _mm_add_pd, _mm_add_sd, _mm_cvtsd_f64, _mm_unpackhi_pd,
    };
    let n = a.len().min(b.len());
    let body = n - (n % 4);
    let mut acc = _mm256_setzero_pd();
    let mut i = 0;
    while i < body {
        let va = _mm256_loadu_pd(a.as_ptr().add(i));
        let vb = _mm256_loadu_pd(b.as_ptr().add(i));
        acc = _mm256_fmadd_pd(va, vb, acc);
        i += 4;
    }
    let lo = _mm256_castpd256_pd128(acc); // [l0, l1]
    let hi = _mm256_extractf128_pd::<1>(acc); // [l2, l3]
    let halves = _mm_add_pd(lo, hi); // [l0 + l2, l1 + l3]
    let upper = _mm_unpackhi_pd(halves, halves);
    let body_sum = _mm_cvtsd_f64(_mm_add_sd(halves, upper)); // (l0+l2) + (l1+l3)
    let mut tail = 0.0f64;
    for j in body..n {
        tail = a.get_unchecked(j).mul_add(*b.get_unchecked(j), tail);
    }
    body_sum + tail
}

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
        assert_eq!(
            sq_distance(KernelId::V1Scalar, &a, &b).to_bits(),
            expected.to_bits()
        );
    }

    #[test]
    fn v2_tail_lengths_all_agree_with_portable_definition() {
        // Every len % 4 case, including the all-tail lens 0..4.
        for len in 0..=13usize {
            let (a, b) = mixed_magnitude_rows(100 + len as u64, len);
            let portable = v2_portable(&a, &b);
            let dispatched = v2_simd(&a, &b);
            assert_eq!(
                dispatched.to_bits(),
                portable.to_bits(),
                "len = {len}: dispatched V2 must match the portable definition"
            );
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx2_path_is_bit_identical_to_portable() {
        if !avx2_fma_available() {
            return; // nothing to compare on this host
        }
        for len in [0usize, 1, 3, 4, 5, 8, 31, 208, 1021] {
            let (a, b) = mixed_magnitude_rows(7000 + len as u64, len);
            // SAFETY: AVX2+FMA presence checked above; early-out otherwise.
            let intrinsics = unsafe { v2_avx2(&a, &b) };
            assert_eq!(
                intrinsics.to_bits(),
                v2_portable(&a, &b).to_bits(),
                "len = {len}"
            );
        }
    }

    #[test]
    fn zero_and_identical_rows_are_exact() {
        let zeros = vec![0.0f64; 17];
        assert_eq!(v1_scalar(&zeros, &zeros), 0.0);
        assert_eq!(v2_simd(&zeros, &zeros), 0.0);
        let (a, _) = mixed_magnitude_rows(3, 29);
        assert_eq!(v1_scalar(&a, &a), 0.0);
        assert_eq!(v2_simd(&a, &a), 0.0);
    }

    #[test]
    fn mismatched_lengths_truncate_like_zip() {
        let (a, b) = mixed_magnitude_rows(11, 9);
        let short = &b[..5];
        assert_eq!(
            v1_scalar(&a, short).to_bits(),
            v1_scalar(&a[..5], short).to_bits()
        );
        assert_eq!(
            v2_simd(&a, short).to_bits(),
            v2_simd(&a[..5], short).to_bits()
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn v2_within_documented_ulp_bound_of_v1(seed in 0u64..1_000_000, len in 1usize..300) {
            let (a, b) = mixed_magnitude_rows(seed, len);
            let v1 = v1_scalar(&a, &b);
            let v2 = v2_simd(&a, &b);
            prop_assert!(
                within_ulp_bound(v1, v2, len),
                "len = {}, v1 = {:e}, v2 = {:e}, diff = {:e}",
                len, v1, v2, (v1 - v2).abs()
            );
        }

        #[test]
        fn v2_dot_within_signed_ulp_bound_of_sequential(seed in 0u64..1_000_000, len in 1usize..300) {
            let (a, b) = mixed_magnitude_rows(seed, len);
            let sequential: f64 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
            let v2 = v2_dot(&a, &b);
            let abs_sum: f64 = a.iter().zip(&b).map(|(x, y)| (x * y).abs()).sum();
            prop_assert!(
                within_signed_ulp_bound(sequential, v2, abs_sum, len),
                "len = {}, seq = {:e}, v2 = {:e}, diff = {:e}",
                len, sequential, v2, (sequential - v2).abs()
            );
        }
    }

    #[test]
    fn v2_dot_tail_lengths_all_agree_with_portable_definition() {
        for len in 0..=13usize {
            let (a, b) = mixed_magnitude_rows(300 + len as u64, len);
            assert_eq!(
                v2_dot(&a, &b).to_bits(),
                v2_dot_portable(&a, &b).to_bits(),
                "len = {len}"
            );
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn v2_dot_avx2_is_bit_identical_to_portable() {
        if !avx2_fma_available() {
            return; // nothing to compare on this host
        }
        for len in [0usize, 1, 3, 4, 5, 8, 31, 208, 1021] {
            let (a, b) = mixed_magnitude_rows(9000 + len as u64, len);
            // SAFETY: AVX2+FMA presence checked above; early-out otherwise.
            let intrinsics = unsafe { v2_dot_avx2(&a, &b) };
            assert_eq!(
                intrinsics.to_bits(),
                v2_dot_portable(&a, &b).to_bits(),
                "len = {len}"
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
        for id in [KernelId::V1Scalar, KernelId::V2Simd] {
            let portable = match id {
                KernelId::V1Scalar => v1_group(&a, &group),
                KernelId::V2Simd => v2_group(&a, &group),
            };
            let dispatched = sq_distance_group(id, &a, &group);
            for p in 0..GROUP_WIDTH {
                let col = refs.get(p).copied().unwrap_or(&zeros);
                let want = match id {
                    KernelId::V1Scalar => v1_scalar(&a, col),
                    KernelId::V2Simd => v2_simd(&a, col),
                };
                for (path, got) in [("dispatched", dispatched[p]), ("portable", portable[p])] {
                    assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "{id:?} {path} k = {k} lane {p} of {live} live: {got:e} vs {want:e}"
                    );
                }
            }
        }
    }

    #[test]
    fn group_tails_and_empty_rows_match_per_pair() {
        // k = 0 sums nothing: V1 keeps `Iterator::sum`'s −0.0, V2 +0.0.
        for k in 0..=9usize {
            assert_group_matches_per_pair(500 + k as u64, k, GROUP_WIDTH);
        }
        assert!(sq_distance_group(KernelId::V1Scalar, &[], &[])[0].is_sign_negative());
        assert!(sq_distance_group(KernelId::V2Simd, &[], &[])[0].is_sign_positive());
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

    /// Every lane of the dispatched run kernel, and under V1 of its
    /// portable body, is bit-identical to the per-pair sum of its row,
    /// for `rows` stored rows of `k` values read in place; the slot past
    /// `rows` stays untouched.
    fn assert_run_matches_per_pair(seed: u64, k: usize, rows: usize) {
        let (query, stored) = group_inputs(seed, k, rows.max(1));
        let run = stored[..rows].concat();
        for id in [KernelId::V1Scalar, KernelId::V2Simd] {
            let mut dispatched = vec![f64::NAN; rows + 1];
            sq_distance_run(id, &query, &run, rows, &mut dispatched);
            assert!(dispatched[rows].is_nan(), "{id:?} wrote past {rows} rows");
            let mut portable = vec![f64::NAN; rows];
            match id {
                KernelId::V1Scalar => {
                    v1_run(&query, &run, &mut portable, |q, block, _| {
                        v1_block(q, block)
                    });
                }
                KernelId::V2Simd => portable.copy_from_slice(&dispatched[..rows]),
            }
            for (r, row) in stored[..rows].iter().enumerate() {
                let want = sq_distance(id, &query, row);
                for (path, got) in [("dispatched", dispatched[r]), ("portable", portable[r])] {
                    assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "{id:?} {path} k = {k} row {r} of {rows}: {got:e} vs {want:e}"
                    );
                }
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
        // k = 0 sums nothing, and the row count is taken as given: V1
        // keeps `Iterator::sum`'s −0.0 in every lane, V2 gives +0.0.
        let mut out = [f64::NAN; 9];
        sq_distance_run(KernelId::V1Scalar, &[], &[], 9, &mut out);
        assert!(
            out.iter().all(|s| s.to_bits() == (-0.0f64).to_bits()),
            "{out:?}"
        );
        sq_distance_run(KernelId::V2Simd, &[], &[], 9, &mut out);
        assert!(
            out.iter().all(|s| s.to_bits() == 0.0f64.to_bits()),
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
    fn v1_batch_dispatch_is_bit_identical_to_frozen_reference() {
        let sjlt = Sjlt::new(D, K, 4, 6, Seed::new(21)).unwrap();
        let ach = Achlioptas::new(D, K, Seed::new(22)).unwrap();
        let gauss = GaussianIid::new(D, K, Seed::new(23)).unwrap();
        let views: [(&str, BatchProjection<'_>); 3] = [
            ("sjlt", BatchProjection::Columns(&sjlt)),
            ("achlioptas", BatchProjection::Columns(&ach)),
            (
                "gaussian",
                BatchProjection::Dense {
                    matrix: gauss.matrix(),
                    transform: &gauss,
                },
            ),
        ];
        for (name, view) in &views {
            for n in [0usize, 1, 3, 8, 11] {
                let rows = batch(n);
                let refs: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();
                let mut fast = vec![f64::NAN; n * K];
                let mut frozen = vec![f64::NAN; n * K];
                apply_batch(KernelId::V1Scalar, view, &refs, &mut fast).unwrap();
                let t: &dyn LinearTransform = match view {
                    BatchProjection::Columns(t) => *t,
                    BatchProjection::Dense { transform, .. } => *transform,
                };
                v1_apply_batch_reference(t, &refs, &mut frozen).unwrap();
                for (i, (a, b)) in fast.iter().zip(&frozen).enumerate() {
                    assert_eq!(a.to_bits(), b.to_bits(), "{name} n={n} elem {i}");
                }
            }
        }
    }

    #[test]
    fn v2_batch_is_independent_of_batch_composition() {
        let sjlt = Sjlt::new(D, K, 4, 6, Seed::new(31)).unwrap();
        let ach = Achlioptas::new(D, K, Seed::new(32)).unwrap();
        let gauss = GaussianIid::new(D, K, Seed::new(33)).unwrap();
        let views: [(&str, BatchProjection<'_>); 3] = [
            ("sjlt", BatchProjection::Columns(&sjlt)),
            ("achlioptas", BatchProjection::Columns(&ach)),
            (
                "gaussian",
                BatchProjection::Dense {
                    matrix: gauss.matrix(),
                    transform: &gauss,
                },
            ),
        ];
        for (name, view) in &views {
            let rows = batch(11);
            let refs: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();
            let mut whole = vec![0.0; 11 * K];
            apply_batch(KernelId::V2Simd, view, &refs, &mut whole).unwrap();
            for (b, x) in rows.iter().enumerate() {
                let mut single = vec![0.0; K];
                apply_projection(KernelId::V2Simd, view, x, &mut single).unwrap();
                for (got, want) in whole[b * K..(b + 1) * K].iter().zip(&single) {
                    assert_eq!(got.to_bits(), want.to_bits(), "{name} row {b}");
                }
            }
        }
    }

    #[test]
    fn v2_sparse_scatter_matches_dense_v2_on_sparse_inputs() {
        let sjlt = Sjlt::new(D, K, 4, 6, Seed::new(41)).unwrap();
        let ach = Achlioptas::new(D, K, Seed::new(42)).unwrap();
        let mut x = vec![0.0; D];
        x[2] = 1.75;
        x[9] = -0.5;
        x[23] = 4.0;
        let sv = SparseVector::from_dense(&x);
        for (name, t) in [
            ("sjlt", &sjlt as &dyn StreamingColumns),
            ("achlioptas", &ach),
        ] {
            let mut dense = vec![0.0; K];
            apply_projection(
                KernelId::V2Simd,
                &BatchProjection::Columns(t),
                &x,
                &mut dense,
            )
            .unwrap();
            let mut sparse = vec![f64::NAN; K];
            v2_apply_columns_sparse(t, &sv, &mut sparse).unwrap();
            for (a, b) in sparse.iter().zip(&dense) {
                assert_eq!(a.to_bits(), b.to_bits(), "{name}");
            }
        }
    }

    #[test]
    fn batch_shapes_validated() {
        let sjlt = Sjlt::new(D, K, 4, 6, Seed::new(51)).unwrap();
        let view = BatchProjection::Columns(&sjlt);
        let good = vec![1.0; D];
        let bad = vec![1.0; D - 1];
        let mut out = vec![0.0; 2 * K];
        for id in [KernelId::V1Scalar, KernelId::V2Simd] {
            let refs: [&[f64]; 2] = [&good, &bad];
            assert!(apply_batch(id, &view, &refs, &mut out).is_err(), "{id:?}");
            let refs: [&[f64]; 2] = [&good, &good];
            assert!(
                apply_batch(id, &view, &refs, &mut out[..K]).is_err(),
                "{id:?}"
            );
            apply_batch(id, &view, &refs, &mut out).unwrap();
        }
    }
}
