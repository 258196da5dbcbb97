//! Adopting a spec costs its identity, not its transform.
//!
//! A counting global allocator records the peak bytes this thread holds
//! while `SketchStore::with_spec` adopts a spec, and while
//! `SketchStore::decode_snapshot` decodes an empty store under it, for
//! every construction (all three Kenthapadi calibrations included) at
//! d = 4,096, α = 0.3, β = 0.1. Building the dense transforms there
//! takes megabytes (the i.i.d. Gaussian and Achlioptas matrices) or
//! about a hundred kilobytes (the FJLT's sparse rows); reading the
//! spec's identity takes its tag. The allocator is process-wide, so
//! this test has a binary of its own.

use dp_core::config::SketchConfig;
use dp_core::sketcher::SigmaCalibration;
use dp_core::sketcher::{Construction, SketcherSpec};
use dp_engine::SketchStore;
use dp_hashing::Seed;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The peak any one adoption may reach.
const BOUND: usize = 16 * 1024;

thread_local! {
    /// Bytes this thread has allocated and not freed (it may free what
    /// another thread allocated, so this wraps rather than overflows).
    static LIVE: Cell<usize> = const { Cell::new(0) };
    /// The highest `LIVE` since the last [`peak_of`] reset.
    static PEAK: Cell<usize> = const { Cell::new(0) };
}

fn grew(bytes: usize) {
    let _ = LIVE.try_with(|live| {
        let now = live.get().wrapping_add(bytes);
        live.set(now);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(now)));
    });
}

fn shrank(bytes: usize) {
    let _ = LIVE.try_with(|live| live.set(live.get().wrapping_sub(bytes)));
}

struct Counting;

// SAFETY: every method forwards to `System` with the caller's pointer
// and layout unchanged; the counters are const-initialized
// thread-locals without destructors, so updating them never allocates
// or re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: `System.alloc` under the caller's contract.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        System.alloc(layout)
    }

    // SAFETY: `System.alloc_zeroed` under the caller's contract.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        System.alloc_zeroed(layout)
    }

    // SAFETY: `System.dealloc` under the caller's contract.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrank(layout.size());
        System.dealloc(ptr, layout);
    }

    // SAFETY: `System.realloc` under the caller's contract.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        shrank(layout.size());
        grew(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// The peak bytes `f` holds on this thread above what was live before,
/// and its result.
fn peak_of<T>(f: impl FnOnce() -> T) -> (usize, T) {
    let base = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(base));
    let out = f();
    (PEAK.with(Cell::get).wrapping_sub(base), out)
}

fn spec(construction: Construction) -> SketcherSpec {
    let config = SketchConfig::builder()
        .input_dim(4096)
        .alpha(0.3)
        .beta(0.1)
        .epsilon(1.0)
        .delta(1e-5)
        .build()
        .expect("config");
    SketcherSpec::new(construction, config, Seed::new(7))
}

#[test]
fn adopting_or_decoding_a_spec_allocates_its_identity_not_its_transform() {
    let constructions = [
        Construction::SjltAuto,
        Construction::SjltLaplace,
        Construction::SjltGaussian,
        Construction::FjltOutput,
        Construction::FjltInput,
        Construction::Kenthapadi(SigmaCalibration::ExactSensitivity),
        Construction::Kenthapadi(SigmaCalibration::Theorem1),
        Construction::Kenthapadi(SigmaCalibration::AssumedUnit),
        Construction::Achlioptas,
    ];
    let mut over = Vec::new();
    for construction in constructions {
        let spec = spec(construction);
        let (adopted, store) = peak_of(|| SketchStore::with_spec(spec.clone()));
        let store = store.expect("the spec is adoptable");
        assert_eq!(store.k(), Some(spec.identity().expect("identity").k));
        let snapshot = store.encode_snapshot(3);
        drop(store);
        let (decoded, store) = peak_of(|| SketchStore::decode_snapshot(&snapshot));
        let (store, generation) = store.expect("the snapshot decodes");
        assert_eq!((store.spec(), generation), (Some(&spec), 3));
        println!(
            "{}: with_spec peak {adopted} B, decode_snapshot peak {decoded} B",
            construction.name()
        );
        if adopted >= BOUND || decoded >= BOUND {
            over.push((construction.name(), adopted, decoded));
        }
    }
    assert!(
        over.is_empty(),
        "adoption peaked at or over {BOUND} B (name, with_spec, decode_snapshot): {over:?}"
    );
}
