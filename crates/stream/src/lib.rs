//! Turnstile streaming sketch maintenance.
//!
//! Theorem 3, item 4: the SJLT sketch of a data stream can be updated in
//! `O(s)` per turnstile update — [`streaming::StreamingSketch`] maintains
//! the noiseless projection incrementally and adds calibrated noise only
//! at release time (the stream contents stay inside the party's trust
//! boundary until then).
//!
//! A stream takes its column transform from the sketcher's output
//! projection ([`StreamingSketcher::streaming_sketch`]; the FJLT
//! constructions have none) and releases through the same sketcher
//! ([`StreamingSketch::release_via`], which refuses a sketcher under
//! another tag or input dimension), so its release carries the
//! sketcher's tag and calibration and combines with the sketcher's
//! batch releases. The distributed protocol itself needs nothing from
//! this crate: every party builds the same sketcher from the public
//! [`dp_core::SketcherSpec`], sketches its own vector, and sends a
//! [`dp_core::Release`] frame (`to_bytes`); an observer ingests the
//! frames into a `dp_engine::QueryEngine`.

pub mod streaming;

pub use streaming::{StreamingSketch, StreamingSketcher};
