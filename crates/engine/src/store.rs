//! The persistent, incremental home of released sketches.
//!
//! A [`SketchStore`] owns the shared [`SketcherSpec`], one
//! [`TagInterner`], and every ingested sketch in a **chunked arena**:
//! the `n × k` sketch coordinates as immutable `Arc`-shared chunks of
//! `CHUNK_ROWS` rows plus one open tail, beside flat per-row metadata
//! (party id, noise moments, hoisted debias constant). All
//! compatibility checking happens **once, at ingest** — the exact
//! vs-anchor + moment-span discipline of the tiled all-pairs kernel —
//! so the query layer ([`crate::QueryEngine`]) never re-validates and
//! never re-interns, which is what makes per-pair queries O(k) and
//! repeated ingest allocation-free for tags.

use crate::error::EngineError;
use dp_core::error::CoreError;
use dp_core::release::{parse_release_bytes, Release};
use dp_core::sketcher::SketcherSpec;
use dp_core::wire::{fnv1a64, TagInterner, CHECKSUM_LEN};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::Range;
use std::sync::Arc;

/// Magic prefix of a binary store snapshot (`DPSS`).
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"DPSS";

/// Current snapshot layout version.
pub const SNAPSHOT_VERSION: u8 = 1;

/// A multiply-mix hasher for the party-id index (ids are `u64`s on the
/// hot point-query path, where SipHash costs more than the distance
/// computation it guards). Party ids are *public* protocol data, so the
/// usual DoS caveat of non-keyed hashing is an accepted trade: a peer
/// choosing adversarial ids can degrade its own store's lookups to
/// O(n), not corrupt them.
#[derive(Debug, Default, Clone)]
pub struct PartyIdHasher(u64);

impl Hasher for PartyIdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // Fibonacci-style multiply-xorshift per 8-byte word (party ids
        // arrive as exactly one u64 write).
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.write_u64(u64::from_le_bytes(c.try_into().expect("8 bytes")));
        }
        for &b in chunks.remainder() {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, value: u64) {
        let mut x = self.0 ^ value;
        x = x.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        x ^= x >> 32;
        self.0 = x;
    }
}

// dp-lint: allow(hash-collection) — lookup-only party-id index with a fixed
// deterministic hasher; it is never iterated, so no hash order reaches output.
type PartyIndex = HashMap<u64, usize, BuildHasherDefault<PartyIdHasher>>;

/// The relative tolerance under which two noise second moments are
/// considered the same calibration — identical to
/// [`dp_core::NoisySketch::check_compatible`], the per-pair check of
/// [`dp_core::pairwise_sq_distances_reference`].
fn moments_compatible(anchor: f64, other: f64) -> bool {
    (anchor - other).abs() <= 1e-12 * (1.0 + anchor.abs())
}

/// The identity every ingested sketch must match.
#[derive(Debug, Clone)]
struct Identity {
    tag: Arc<str>,
    k: usize,
}

/// Rows per sealed chunk of the value arena (106 KiB at k = 208).
pub(crate) const CHUNK_ROWS: usize = 64;

// A sealed chunk is a whole number of run-kernel blocks, so a k-NN scan
// over the value runs never splits a block across two chunks.
const _: () = assert!(CHUNK_ROWS.is_multiple_of(dp_core::kernel::RUN_BLOCK));

/// The `n × k` sketch values in row order: immutable sealed chunks of
/// exactly [`CHUNK_ROWS`] rows behind `Arc`, then one open tail that
/// only the owning store appends to. A row never straddles two chunks,
/// so every row is one contiguous slice, and a clone shares every
/// sealed chunk and copies only the tail.
#[derive(Debug, Default, Clone)]
struct Arena {
    sealed: Vec<Arc<[f64]>>,
    tail: Vec<f64>,
    tail_rows: usize,
}

impl Arena {
    fn push(&mut self, row: &[f64]) {
        self.tail.extend_from_slice(row);
        self.tail_rows += 1;
        if self.tail_rows == CHUNK_ROWS {
            self.sealed.push(Arc::from(self.tail.as_slice()));
            self.tail.clear();
            self.tail_rows = 0;
        }
    }

    /// Row `row` of a `k`-wide arena.
    fn row(&self, row: usize, k: usize) -> &[f64] {
        let (chunk, at) = (row / CHUNK_ROWS, row % CHUNK_ROWS * k);
        let rows: &[f64] = match self.sealed.get(chunk) {
            Some(sealed) => sealed,
            None if chunk == self.sealed.len() => &self.tail,
            None => panic!("row {row} is out of range"),
        };
        &rows[at..at + k]
    }
}

type ArenaIter<'a> = std::iter::Chain<
    std::iter::FlatMap<
        std::slice::Iter<'a, Arc<[f64]>>,
        &'a [f64],
        fn(&'a Arc<[f64]>) -> &'a [f64],
    >,
    std::slice::Iter<'a, f64>,
>;

/// Every value in row order, as the frozen snapshot codec writes them.
impl<'a> IntoIterator for &'a Arena {
    type Item = &'a f64;
    type IntoIter = ArenaIter<'a>;

    fn into_iter(self) -> Self::IntoIter {
        let sealed: fn(&'a Arc<[f64]>) -> &'a [f64] = |chunk| chunk;
        self.sealed.iter().flat_map(sealed).chain(&self.tail)
    }
}

/// A chunked-arena store of released sketches sharing one transform.
///
/// Cloning a store shares every sealed chunk of sketch values and the
/// interned tag allocations. It copies only the open tail (fewer than
/// `CHUNK_ROWS` rows), the flat per-row columns (8 B per row each for
/// party id, both noise moments and the debias constant) and the party
/// index. Snapshot publication ([`crate::SharedEngine`]) clones the
/// store on every mutation, so an ingest pays that, never a copy of
/// the `n × k` values, and no query pays it at all.
#[derive(Debug, Default, Clone)]
pub struct SketchStore {
    /// The shared public parameters, when the store was built from them.
    spec: Option<SketcherSpec>,
    /// Expected transform tag + dimension (the spec's identity, or
    /// adopted from the first release).
    identity: Option<Identity>,
    /// The store's single tag interner: every decode path routes
    /// through it, so a million releases of one sketcher hold one tag
    /// allocation.
    interner: TagInterner,
    /// Chunked `n × k` arena of sketch coordinates.
    values: Arena,
    /// Per-row noise second moment `E[η²]`.
    m2: Vec<f64>,
    /// Per-row noise fourth moment `E[η⁴]`.
    m4: Vec<f64>,
    /// Per-row hoisted debias constant `2k·E[η²]`.
    debias: Vec<f64>,
    /// Per-row sender identity, in ingest order.
    party_ids: Vec<u64>,
    /// Party id → row, for by-id queries (first row wins on the lenient
    /// ingest path).
    index: PartyIndex,
    /// Running bounds on the noise moments, for the batch span check.
    m2_min: f64,
    m2_max: f64,
    /// Whether every row's hoisted debias constant is **bitwise** equal
    /// to the first row's. The moment-span tolerance admits rows whose
    /// constants differ in the last few ulps, and the all-pairs matrix
    /// debiases pair `(i, j)` with row `min(i, j)`'s constant while a
    /// subset recompute debiases with the subset-order-first row's —
    /// those agree bit-for-bit only under a uniform constant, so this
    /// flag gates the subset-slices-the-memo fast path.
    debias_uniform: bool,
}

impl SketchStore {
    /// A store bound to shared public parameters: the spec's identity
    /// ([`SketcherSpec::identity`]) pins the transform tag and sketch
    /// dimension every ingested release must carry. No transform is
    /// built, so adopting a spec costs its tag.
    ///
    /// # Errors
    /// [`EngineError::Core`] if the spec's identity refuses it.
    pub fn with_spec(spec: SketcherSpec) -> Result<Self, EngineError> {
        let identity = spec.identity()?;
        let mut store = Self::adopting();
        let tag = store.interner.intern(&identity.tag);
        store.identity = Some(Identity { tag, k: identity.k });
        store.spec = Some(spec);
        Ok(store)
    }

    /// A store that adopts the identity (tag, dimension, noise anchor)
    /// of the **first** release it ingests, for observers who receive
    /// releases without the spec.
    #[must_use]
    pub fn adopting() -> Self {
        Self {
            m2_min: f64::INFINITY,
            m2_max: f64::NEG_INFINITY,
            debias_uniform: true,
            ..Self::default()
        }
    }

    /// The spec the store was built from, when there is one.
    #[must_use]
    pub fn spec(&self) -> Option<&SketcherSpec> {
        self.spec.as_ref()
    }

    /// Number of ingested rows.
    #[must_use]
    pub fn n(&self) -> usize {
        self.party_ids.len()
    }

    /// Whether no release has been ingested yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.party_ids.is_empty()
    }

    /// The sketch dimension, once known (from the spec or first ingest).
    #[must_use]
    pub fn k(&self) -> Option<usize> {
        self.identity.as_ref().map(|i| i.k)
    }

    /// The transform tag, once known.
    #[must_use]
    pub fn tag(&self) -> Option<&str> {
        self.identity.as_ref().map(|i| &*i.tag)
    }

    /// Party ids in ingest (row) order.
    #[must_use]
    pub fn party_ids(&self) -> &[u64] {
        &self.party_ids
    }

    /// The party id of a row.
    ///
    /// # Panics
    /// If `row` is out of range.
    #[must_use]
    pub fn party_at(&self, row: usize) -> u64 {
        self.party_ids[row]
    }

    /// The row a party id landed in, if ingested.
    #[must_use]
    pub fn row_of(&self, party_id: u64) -> Option<usize> {
        self.index.get(&party_id).copied()
    }

    /// A row's sketch coordinates (a `k`-long slice of the arena).
    ///
    /// # Panics
    /// If `row` is out of range.
    #[must_use]
    pub fn row_values(&self, row: usize) -> &[f64] {
        let k = self.identity.as_ref().expect("rows imply identity").k;
        self.values.row(row, k)
    }

    /// The sketch values as contiguous runs of whole rows, in row
    /// order: each sealed chunk of `CHUNK_ROWS` rows, then the open tail.
    /// Each run comes with its row range (`values.len()` is the range's
    /// length times `k`).
    pub(crate) fn value_runs(&self) -> impl Iterator<Item = (Range<usize>, &[f64])> {
        let sealed = self.values.sealed.iter().enumerate().map(|(c, chunk)| {
            let rows = c * CHUNK_ROWS..(c + 1) * CHUNK_ROWS;
            (rows, &**chunk)
        });
        let tail_start = self.values.sealed.len() * CHUNK_ROWS;
        let tail = (
            tail_start..tail_start + self.values.tail_rows,
            self.values.tail.as_slice(),
        );
        sealed.chain(std::iter::once(tail))
    }

    /// A row's hoisted debias constant `2k·E[η²]`.
    ///
    /// # Panics
    /// If `row` is out of range.
    #[must_use]
    pub fn debias_at(&self, row: usize) -> f64 {
        self.debias[row]
    }

    /// Per-row debias constants, in row order.
    #[must_use]
    pub fn debias(&self) -> &[f64] {
        &self.debias
    }

    /// Whether every row's debias constant is bitwise equal to the
    /// first row's (vacuously true for an empty store). When true, the
    /// all-pairs matrix, a subset recompute, and a k-NN scan all apply
    /// *the* constant, so slicing the memoized matrix for a subset
    /// query is bit-identical to recomputing — the gate
    /// [`crate::QueryEngine::pairwise`] checks before reusing its
    /// cache.
    #[must_use]
    pub fn debias_uniform(&self) -> bool {
        self.debias_uniform
    }

    /// Rebuild a row as a standalone [`dp_core::NoisySketch`] (clones
    /// the coordinates; the tag handle is shared from the interner).
    ///
    /// # Panics
    /// If `row` is out of range.
    #[must_use]
    pub fn sketch_at(&self, row: usize) -> dp_core::NoisySketch {
        let identity = self.identity.as_ref().expect("rows imply identity");
        dp_core::NoisySketch::new(
            self.row_values(row).to_vec(),
            Arc::clone(&identity.tag),
            self.m2[row],
            self.m4[row],
        )
    }

    /// Number of distinct transform tags the store's interner has seen
    /// (1 for any healthy store — the regression surface for repeated
    /// ingest).
    #[must_use]
    pub fn interner_len(&self) -> usize {
        self.interner.len()
    }

    /// The store's interner, for callers decoding adjacent payloads who
    /// should share tag allocations with the store instead of growing
    /// their own.
    pub fn interner_mut(&mut self) -> &mut TagInterner {
        &mut self.interner
    }

    /// Ingest a release, rejecting duplicate party ids.
    ///
    /// # Errors
    /// [`EngineError::DuplicateParty`] if the id is present;
    /// [`EngineError::Incompatible`] if the sketch doesn't match the
    /// store's transform tag, dimension, or noise calibration.
    pub fn ingest(&mut self, release: &Release) -> Result<usize, EngineError> {
        if self.index.contains_key(&release.party_id) {
            return Err(EngineError::DuplicateParty(release.party_id));
        }
        self.ingest_row(release)
    }

    /// Ingest a release **without** the duplicate-id check: rows are
    /// positional and later duplicates are not reachable by
    /// [`SketchStore::row_of`]. [`SketchStore::ingest`] is this plus
    /// the duplicate check; services should prefer it.
    ///
    /// # Errors
    /// [`EngineError::Incompatible`] as for [`SketchStore::ingest`].
    pub fn ingest_row(&mut self, release: &Release) -> Result<usize, EngineError> {
        let sketch = &release.sketch;
        // Validate before interning anything: a stream of rejected
        // releases carrying novel tags must not grow the store's
        // interner — only accepted identities are remembered.
        match &self.identity {
            None => {
                let tag = self.interner.intern(sketch.transform_tag());
                self.identity = Some(Identity { tag, k: sketch.k() });
            }
            Some(identity) => {
                if &*identity.tag != sketch.transform_tag() {
                    return Err(EngineError::Incompatible {
                        party_id: release.party_id,
                        detail: format!(
                            "transform '{}' vs '{}'",
                            identity.tag,
                            sketch.transform_tag()
                        ),
                    });
                }
                if identity.k != sketch.k() {
                    return Err(EngineError::Incompatible {
                        party_id: release.party_id,
                        detail: format!("dimension {} vs {}", identity.k, sketch.k()),
                    });
                }
            }
        }
        let m2 = sketch.noise_second_moment();
        let debias = 2.0 * sketch.k() as f64 * m2;
        if self.is_empty() {
            // First row anchors the noise calibration.
            self.m2_min = m2;
            self.m2_max = m2;
            self.debias_uniform = true;
        } else {
            // The one batch-compatibility rule: a vs-anchor tolerance
            // check plus a bound on the whole batch's moment span, so
            // the store rejects every batch the per-pair reference
            // rejects (and is marginally stricter only on the
            // tolerance boundary).
            let anchor = self.m2[0];
            if !moments_compatible(anchor, m2) {
                return Err(EngineError::Incompatible {
                    party_id: release.party_id,
                    detail: format!("noise moment {anchor} vs {m2}"),
                });
            }
            let min = self.m2_min.min(m2);
            let max = self.m2_max.max(m2);
            if (max - min).abs() > 1e-12 * (1.0 + min.abs()) {
                return Err(EngineError::Incompatible {
                    party_id: release.party_id,
                    detail: format!("noise moment span {min} vs {max} exceeds the batch tolerance"),
                });
            }
            self.m2_min = min;
            self.m2_max = max;
            self.debias_uniform =
                self.debias_uniform && debias.to_bits() == self.debias[0].to_bits();
        }
        let row = self.n();
        self.values.push(sketch.values());
        self.m2.push(m2);
        self.m4.push(sketch.noise_fourth_moment());
        self.debias.push(debias);
        self.party_ids.push(release.party_id);
        self.index.entry(release.party_id).or_insert(row);
        Ok(row)
    }

    /// Ingest a batch of releases in order (strict: duplicate party ids
    /// rejected), returning the assigned row per release. Equivalent to
    /// — and bit-identical with — one [`SketchStore::ingest`] per
    /// release: validation, anchoring, and row assignment are the same
    /// sequential code. Fail-fast: the first failing release stops the
    /// batch with its error, and the accepted prefix stays ingested
    /// (the store is append-only; a partial batch is exactly a shorter
    /// batch).
    ///
    /// # Errors
    /// As for [`SketchStore::ingest`], at the first failing release.
    pub fn ingest_batch(&mut self, releases: &[Release]) -> Result<Vec<usize>, EngineError> {
        let mut rows = Vec::with_capacity(releases.len());
        for release in releases {
            rows.push(self.ingest(release)?);
        }
        Ok(rows)
    }

    /// Decode a binary `DPRL` release frame through the store's own
    /// interner and ingest it (strict: duplicate ids rejected).
    ///
    /// # Errors
    /// [`EngineError::Core`] on a malformed frame; ingest errors as for
    /// [`SketchStore::ingest`].
    pub fn ingest_bytes(&mut self, bytes: &[u8]) -> Result<usize, EngineError> {
        // Decode through a scratch interner so a *rejected* frame (bad
        // tag, bad moments, duplicate id) leaves no trace in the
        // store's interner; the accepted row's identity already shares
        // the store's single tag allocation, and the transient decode
        // handle drops with the `Release`.
        let mut scratch = TagInterner::new();
        let release = parse_release_bytes(bytes, &mut scratch)?;
        self.ingest(&release)
    }

    // dp-lint: freeze(snapshot-codec-v1) begin
    /// Serialize the whole store as one self-validating binary snapshot:
    /// magic, version, optional spec JSON, optional identity (tag + k),
    /// the caller's engine `generation`, and the flat per-row arenas
    /// (values, noise moments, party ids) with an FNV-1a-64 trailer.
    ///
    /// Values ship as exact `f64` bit patterns, so a decoded store is
    /// **bit-identical** to the original — including rows that arrived
    /// over the quantized f32 wire (the store already holds their
    /// dequantized coordinates).
    #[must_use]
    pub fn encode_snapshot(&self, generation: u64) -> Vec<u8> {
        let n = self.n();
        let k = self.identity.as_ref().map_or(0, |i| i.k);
        let mut out = Vec::with_capacity(64 + n * (k + 3) * 8 + n * 8);
        out.extend_from_slice(&SNAPSHOT_MAGIC);
        out.push(SNAPSHOT_VERSION);
        match &self.spec {
            Some(spec) => {
                out.push(1);
                let json = spec.to_json();
                out.extend_from_slice(&(json.len() as u32).to_le_bytes());
                out.extend_from_slice(json.as_bytes());
            }
            None => out.push(0),
        }
        match &self.identity {
            Some(identity) => {
                out.push(1);
                out.extend_from_slice(&(identity.tag.len() as u32).to_le_bytes());
                out.extend_from_slice(identity.tag.as_bytes());
                out.extend_from_slice(&(identity.k as u32).to_le_bytes());
            }
            None => out.push(0),
        }
        out.extend_from_slice(&generation.to_le_bytes());
        out.extend_from_slice(&(n as u64).to_le_bytes());
        for v in &self.values {
            out.extend_from_slice(&v.to_le_bytes());
        }
        for m in &self.m2 {
            out.extend_from_slice(&m.to_le_bytes());
        }
        for m in &self.m4 {
            out.extend_from_slice(&m.to_le_bytes());
        }
        for id in &self.party_ids {
            out.extend_from_slice(&id.to_le_bytes());
        }
        let checksum = fnv1a64(&out);
        out.extend_from_slice(&checksum.to_le_bytes());
        out
    }
    // dp-lint: freeze(snapshot-codec-v1) end

    /// Decode a snapshot produced by [`SketchStore::encode_snapshot`],
    /// returning the rebuilt store and the generation it carried.
    ///
    /// Derived state (party index, moment bounds, hoisted debias
    /// constants, the uniform-debias flag) is rebuilt by replaying every
    /// row through [`SketchStore::ingest_row`] — the same code the rows
    /// originally passed — so the result is bit-identical to the source
    /// store, positional duplicates and first-wins index included.
    ///
    /// # Errors
    /// [`EngineError::Core`] with [`CoreError::ChecksumMismatch`] on a
    /// corrupted trailer, or [`CoreError::Wire`] on any structural
    /// defect (bad magic/version, truncation, length inconsistencies,
    /// non-finite floats). Hostile row counts are bounded against the
    /// actual byte length before any allocation.
    pub fn decode_snapshot(bytes: &[u8]) -> Result<(Self, u64), EngineError> {
        let wire = |why: String| EngineError::Core(CoreError::Wire(why));
        let min = SNAPSHOT_MAGIC.len() + 1 + 2 + 8 + 8 + CHECKSUM_LEN;
        if bytes.len() < min {
            return Err(wire(format!("snapshot too short: {} bytes", bytes.len())));
        }
        let (covered, trailer) = bytes.split_at(bytes.len() - CHECKSUM_LEN);
        let stored = u64::from_le_bytes(trailer.try_into().expect("8-byte trailer"));
        let computed = fnv1a64(covered);
        if stored != computed {
            return Err(EngineError::Core(CoreError::ChecksumMismatch {
                stored,
                computed,
            }));
        }
        struct Cursor<'a> {
            bytes: &'a [u8],
            pos: usize,
        }
        impl<'a> Cursor<'a> {
            fn take(&mut self, len: usize, what: &str) -> Result<&'a [u8], EngineError> {
                let end = self
                    .pos
                    .checked_add(len)
                    .filter(|&e| e <= self.bytes.len())
                    .ok_or_else(|| {
                        EngineError::Core(CoreError::Wire(format!(
                            "snapshot truncated reading {what}"
                        )))
                    })?;
                let slice = &self.bytes[self.pos..end];
                self.pos = end;
                Ok(slice)
            }

            fn u32(&mut self, what: &str) -> Result<usize, EngineError> {
                let raw = self.take(4, what)?;
                Ok(u32::from_le_bytes(raw.try_into().expect("4 bytes")) as usize)
            }

            fn u64(&mut self, what: &str) -> Result<u64, EngineError> {
                let raw = self.take(8, what)?;
                Ok(u64::from_le_bytes(raw.try_into().expect("8 bytes")))
            }

            fn f64s(&mut self, count: usize, what: &str) -> Result<Vec<f64>, EngineError> {
                let raw = self.take(count * 8, what)?;
                let mut out = Vec::with_capacity(count);
                for chunk in raw.chunks_exact(8) {
                    let v = f64::from_le_bytes(chunk.try_into().expect("8 bytes"));
                    if !v.is_finite() {
                        return Err(EngineError::Core(CoreError::Wire(format!(
                            "non-finite value in snapshot {what}"
                        ))));
                    }
                    out.push(v);
                }
                Ok(out)
            }
        }
        let mut r = Cursor {
            bytes: covered,
            pos: 0,
        };
        if r.take(4, "magic")? != SNAPSHOT_MAGIC {
            return Err(wire("not a DPSS snapshot".to_string()));
        }
        let version = r.take(1, "version")?[0];
        if version != SNAPSHOT_VERSION {
            return Err(wire(format!("unsupported snapshot version {version}")));
        }
        let spec = match r.take(1, "spec flag")?[0] {
            0 => None,
            1 => {
                let len = r.u32("spec length")?;
                let json = std::str::from_utf8(r.take(len, "spec JSON")?)
                    .map_err(|_| wire("spec JSON is not UTF-8".to_string()))?;
                Some(SketcherSpec::from_json(json)?)
            }
            other => return Err(wire(format!("bad spec flag {other}"))),
        };
        let identity = match r.take(1, "identity flag")?[0] {
            0 => None,
            1 => {
                let len = r.u32("tag length")?;
                let tag = std::str::from_utf8(r.take(len, "tag")?)
                    .map_err(|_| wire("tag is not UTF-8".to_string()))?
                    .to_string();
                let k = r.u32("k")?;
                Some((tag, k))
            }
            other => return Err(wire(format!("bad identity flag {other}"))),
        };
        let generation = r.u64("generation")?;
        let n = r.u64("row count")? as usize;
        let k = identity.as_ref().map_or(0, |(_, k)| *k);
        // Bound the row count by the bytes actually present before any
        // allocation: rows cost (k + 2) f64s + one u64 each.
        let per_row = k
            .checked_add(3)
            .and_then(|w| w.checked_mul(8))
            .ok_or_else(|| wire(format!("sketch dimension {k} overflows")))?;
        let body = n
            .checked_mul(per_row)
            .ok_or_else(|| wire(format!("row count {n} overflows")))?;
        if covered.len() - r.pos != body {
            return Err(wire(format!(
                "snapshot body is {} bytes, expected {body} for {n} rows of k={k}",
                covered.len() - r.pos
            )));
        }
        if n > 0 && identity.is_none() {
            return Err(wire("rows present without an identity".to_string()));
        }
        let mut store = match spec {
            Some(spec) => Self::with_spec(spec)?,
            None => Self::adopting(),
        };
        if let Some((tag, k)) = &identity {
            match &store.identity {
                Some(built) => {
                    if &*built.tag != tag.as_str() || built.k != *k {
                        return Err(wire(format!(
                            "snapshot identity '{tag}' (k={k}) disagrees with its spec \
                             '{}' (k={})",
                            built.tag, built.k
                        )));
                    }
                }
                None => {
                    let tag = store.interner.intern(tag);
                    store.identity = Some(Identity { tag, k: *k });
                }
            }
        }
        let values = r.f64s(n * k, "values")?;
        let m2 = r.f64s(n, "second moments")?;
        let m4 = r.f64s(n, "fourth moments")?;
        let raw_ids = r.take(n * 8, "party ids")?;
        let party_ids: Vec<u64> = raw_ids
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("8 bytes")))
            .collect();
        let tag = store
            .identity
            .as_ref()
            .map(|i| Arc::clone(&i.tag))
            .unwrap_or_else(|| Arc::from(""));
        for row in 0..n {
            let sketch = dp_core::NoisySketch::new(
                values[row * k..(row + 1) * k].to_vec(),
                Arc::clone(&tag),
                m2[row],
                m4[row],
            );
            store
                .ingest_row(&Release {
                    party_id: party_ids[row],
                    sketch,
                })
                .map_err(|e| wire(format!("snapshot row {row} rejected on replay: {e}")))?;
        }
        Ok((store, generation))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dp_core::config::SketchConfig;
    use dp_core::sketcher::{Construction, PrivateSketcher};
    use dp_hashing::Seed;

    fn spec(d: usize) -> SketcherSpec {
        let config = SketchConfig::builder()
            .input_dim(d)
            .alpha(0.3)
            .beta(0.1)
            .epsilon(1.5)
            .build()
            .unwrap();
        SketcherSpec::new(Construction::SjltAuto, config, Seed::new(7))
    }

    fn releases(n: usize, d: usize) -> Vec<Release> {
        releases_under(&spec(d), n)
    }

    fn releases_under(spec: &SketcherSpec, n: usize) -> Vec<Release> {
        let sk = spec.build().unwrap();
        let d = spec.config().input_dim();
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|i| (0..d).map(|j| ((i * d + j) % 7) as f64 - 3.0).collect())
            .collect();
        sk.sketch_batch(&rows, Seed::new(500))
            .unwrap()
            .into_iter()
            .enumerate()
            .map(|(i, sketch)| Release {
                party_id: 100 + i as u64,
                sketch,
            })
            .collect()
    }

    fn loaded_store(with_spec: bool, n: usize) -> SketchStore {
        let mut store = if with_spec {
            SketchStore::with_spec(spec(24)).unwrap()
        } else {
            SketchStore::adopting()
        };
        for r in releases(n, 24) {
            store.ingest(&r).unwrap();
        }
        store
    }

    fn assert_stores_bit_identical(a: &SketchStore, b: &SketchStore) {
        assert_eq!(a.n(), b.n());
        assert_eq!(a.k(), b.k());
        assert_eq!(a.tag(), b.tag());
        assert_eq!(a.party_ids(), b.party_ids());
        assert_eq!(a.debias_uniform(), b.debias_uniform());
        assert_eq!(
            a.spec().map(SketcherSpec::to_json),
            b.spec().map(SketcherSpec::to_json)
        );
        for row in 0..a.n() {
            let (va, vb) = (a.row_values(row), b.row_values(row));
            assert_eq!(va.len(), vb.len());
            for (x, y) in va.iter().zip(vb) {
                assert_eq!(x.to_bits(), y.to_bits(), "row {row}");
            }
            assert_eq!(a.debias_at(row).to_bits(), b.debias_at(row).to_bits());
            assert_eq!(a.sketch_at(row), b.sketch_at(row));
        }
        for &id in a.party_ids() {
            assert_eq!(a.row_of(id), b.row_of(id), "index for party {id}");
        }
    }

    #[test]
    fn snapshot_roundtrips_bit_identically() {
        for with_spec in [true, false] {
            for n in [
                0usize,
                1,
                5,
                CHUNK_ROWS - 1,
                CHUNK_ROWS,
                CHUNK_ROWS + 1,
                2 * CHUNK_ROWS + 1,
            ] {
                let store = loaded_store(with_spec, n);
                let bytes = store.encode_snapshot(42);
                let (back, generation) = SketchStore::decode_snapshot(&bytes).unwrap();
                assert_eq!(generation, 42, "spec={with_spec} n={n}");
                assert_stores_bit_identical(&store, &back);
                // Re-encoding the decoded store is byte-identical: the
                // codec is a fixed point, which is what lets the disk
                // and wire layers compare snapshots by bytes.
                assert_eq!(back.encode_snapshot(42), bytes);
            }
        }
    }

    #[test]
    fn snapshot_preserves_positional_duplicates_and_first_wins_index() {
        let mut store = SketchStore::adopting();
        let rels = releases(CHUNK_ROWS + 1, 24);
        for r in &rels[..CHUNK_ROWS] {
            store.ingest_row(r).unwrap();
        }
        // Same party id again, positionally appended (lenient path) in
        // the chunk after the sealed one holding its first row.
        let dup = Release {
            party_id: rels[0].party_id,
            sketch: rels[CHUNK_ROWS].sketch.clone(),
        };
        store.ingest_row(&dup).unwrap();
        assert_eq!(store.n(), CHUNK_ROWS + 1);
        assert_eq!(store.row_of(rels[0].party_id), Some(0));
        assert_eq!(store.sketch_at(CHUNK_ROWS), dup.sketch);
        let bytes = store.encode_snapshot(1);
        let (back, _) = SketchStore::decode_snapshot(&bytes).unwrap();
        assert_stores_bit_identical(&store, &back);
        assert_eq!(back.row_of(rels[0].party_id), Some(0));
    }

    #[test]
    fn snapshot_bytes_match_the_golden_digest() {
        // The freeze lint pins the codec's source text, not the bytes
        // it writes for a given arena type. This digest pins the DPSS
        // bytes of a spec-carrying store with two sealed chunks and an
        // open tail; it was taken from the single flat `Vec<f64>` arena
        // of a V1-pinned store, so the chunked arena must write exactly
        // what that one wrote, spec JSON included.
        let spec = spec(24);
        let mut store = SketchStore::with_spec(spec.clone()).unwrap();
        for r in releases_under(&spec, 133) {
            store.ingest(&r).unwrap();
        }
        assert!(store.n() > 2 * CHUNK_ROWS);
        assert_eq!(fnv1a64(&store.encode_snapshot(42)), 0x9103_9f9f_555a_7379);
    }

    #[test]
    fn every_single_byte_corruption_is_rejected() {
        let store = loaded_store(true, 2);
        let bytes = store.encode_snapshot(7);
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x01;
            assert!(
                SketchStore::decode_snapshot(&bad).is_err(),
                "byte {i} of {} decoded",
                bytes.len()
            );
        }
        for cut in 0..bytes.len() {
            assert!(
                SketchStore::decode_snapshot(&bytes[..cut]).is_err(),
                "truncation at {cut} decoded"
            );
        }
    }

    #[test]
    fn hostile_row_counts_are_bounded_before_allocation() {
        // A hand-built frame claiming u64::MAX rows with a valid
        // checksum must fail on the length equation, not attempt a
        // multi-exabyte allocation.
        let mut raw = Vec::new();
        raw.extend_from_slice(&SNAPSHOT_MAGIC);
        raw.push(SNAPSHOT_VERSION);
        raw.push(0); // no spec
        raw.push(1); // identity
        raw.extend_from_slice(&3u32.to_le_bytes());
        raw.extend_from_slice(b"tag");
        raw.extend_from_slice(&8u32.to_le_bytes()); // k = 8
        raw.extend_from_slice(&0u64.to_le_bytes()); // generation
        raw.extend_from_slice(&u64::MAX.to_le_bytes()); // hostile n
        let checksum = fnv1a64(&raw);
        raw.extend_from_slice(&checksum.to_le_bytes());
        let err = SketchStore::decode_snapshot(&raw).unwrap_err();
        assert!(
            matches!(err, EngineError::Core(CoreError::Wire(_))),
            "{err}"
        );
    }

    #[test]
    fn checksum_mismatch_is_a_typed_error() {
        let store = loaded_store(false, 2);
        let mut bytes = store.encode_snapshot(0);
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        let err = SketchStore::decode_snapshot(&bytes).unwrap_err();
        assert!(
            matches!(err, EngineError::Core(CoreError::ChecksumMismatch { .. })),
            "{err}"
        );
    }
}
