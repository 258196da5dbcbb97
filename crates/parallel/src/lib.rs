//! The parallel execution layer underneath the release API.
//!
//! The offline build image has no crates.io access, so this crate is a
//! hand-rolled, dependency-free substitute for the slice of rayon the
//! workspace needs: scoped fork/join over borrowed data, with *chunked*
//! (static, contiguous) and *task-queue* (dynamic, atomic-counter) work
//! distribution. Three design rules shape everything here:
//!
//! 1. **Determinism is non-negotiable.** Results must be bit-identical to
//!    the sequential reference for every thread count and tile size. All
//!    primitives therefore assign *what* is computed independently of
//!    *who* computes it: seeds derive from row indices, tile segments
//!    come back in tile-id order, and error selection picks the
//!    lowest task index, exactly what a sequential loop would hit first.
//! 2. **Scoped borrowing, no `unsafe`.** Workers are scoped threads
//!    (`std::thread::scope`) that borrow inputs and disjoint `&mut`
//!    output chunks obtained via `split_at_mut` — the compiler proves the
//!    absence of data races.
//! 3. **Graceful sequential fallback.** A [`Parallelism`] of one thread
//!    (or trivially small inputs) runs entirely on the calling thread, so
//!    single-core hosts and `DP_THREADS=1` CI lanes exercise the same
//!    code paths without spawning.
//!
//! A [`TilePlan`] decomposes the all-pairs distance matrix into
//! cache-blocked `(row_block, col_block)` [`Tile`]s over the upper
//! triangle, each named by a stable id under the pure `(n, tile)` plan.
//! A tile is both the unit of intra-process parallelism (local workers
//! claim tiles from [`par_map`]'s task queue) and the unit of
//! *cross-worker sharding* ([`TilePlan::split`] cuts a list of tile ids
//! into pair-count-balanced chunks, one per remote worker). Executors
//! return [`TileSegment`]s a gatherer scatters by id without
//! reconciliation, because tiles partition the pair set exactly.

pub mod config;
pub mod plan;
pub mod pool;
pub mod tile;

pub use config::{Parallelism, DEFAULT_TILE, MAX_THREADS};
pub use plan::{TilePlan, TileSegment};
pub use pool::{par_chunks_mut, par_map, scope_workers};
pub use tile::Tile;
