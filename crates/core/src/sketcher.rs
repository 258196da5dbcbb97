//! The unified, mechanism-agnostic release API.
//!
//! The paper's framework is *general*: any LPP transform paired with any
//! zero-mean noise mechanism yields the same unbiased estimator
//! (Lemmas 3/4). This module makes that generality the public surface:
//!
//! * [`PrivateSketcher`] — one object-safe trait over every construction:
//!   release (`sketch`/`sketch_sparse`/`sketch_batch`), estimate, and
//!   introspect (`k`, `guarantee`, `debias_constant`,
//!   `predicted_variance`, `spec`). Service layers hold a
//!   `Box<dyn PrivateSketcher>` and never name a concrete construction.
//! * [`Construction`] — the paper's constructions as data: the private
//!   SJLT (Note 5 auto, or forced Laplace/Gaussian), both §5.2 FJLT
//!   variants, and the Kenthapadi et al. baseline.
//! * [`SketcherSpec`] — a serializable (construction, config, public
//!   transform seed) triple. Every party in the distributed protocol
//!   rebuilds the *identical* sketcher from the same spec, which is what
//!   makes releases interoperable; the JSON form travels on the wire.
//! * [`AnySketcher`] — the trait's canonical implementation: an enum over
//!   all constructions, built from a [`SketcherSpec`].
//! * [`pairwise_sq_distances`] — the all-pairs estimate surface over
//!   released sketches, returning a flat row-major matrix.
//!
//! The Note 5 mechanism-selection rule applies uniformly here: a
//! [`Construction::SjltAuto`] spec resolves Laplace-vs-Gaussian from the
//! config's `(s, δ)` exactly as [`crate::config::SketchConfig`] dictates,
//! deterministically, on every party.
//!
//! # Parallel execution and the determinism contract
//!
//! The execution paths run on the [`Parallelism`] knob from
//! [`dp_parallel`]: [`AnySketcher`] carries one (env-driven by default,
//! explicit via [`AnySketcher::with_parallelism`] /
//! [`SketcherSpec::build_with`]), batch releases split rows across
//! workers ([`sketch_batch_par`]), and the all-pairs surface runs a
//! cache-blocked tile kernel ([`pairwise_sq_distances_with_par`]).
//! Results are **bit-identical** for every thread count and tile size:
//! per-row noise seeds derive from the row *index* (`noise_seed.index(row)`),
//! never from the executing worker, and each pair's estimate is computed
//! exactly once by one tile with the identical floating-point expression
//! the sequential reference uses.

use crate::achlioptas_private::PrivateAchlioptas;
use crate::config::SketchConfig;
use crate::error::CoreError;
use crate::estimator::{DistanceEstimate, NoisySketch};
use crate::fjlt_private::{PrivateFjltInput, PrivateFjltOutput};
use crate::json::{self, JsonValue};
use crate::kenthapadi::{Kenthapadi, SigmaCalibration};
use crate::kernel::{self, KernelId};
use crate::sjlt_private::PrivateSjlt;
use dp_hashing::Seed;
use dp_linalg::SparseVector;
use dp_noise::PrivacyGuarantee;
use dp_parallel::{par_chunks_mut, par_map, Parallelism, Tile, TilePlan, TileSegment};
use dp_transforms::LinearTransform;

/// One object-safe interface over every private-sketch construction.
///
/// All methods take `&self`; a `&dyn PrivateSketcher` or
/// `Box<dyn PrivateSketcher>` is a complete release endpoint.
pub trait PrivateSketcher {
    /// Release a noisy sketch of a dense vector. The `noise_seed` must be
    /// private to the releasing party and fresh per release.
    ///
    /// # Errors
    /// [`CoreError::Transform`] on dimension mismatch.
    fn sketch(&self, x: &[f64], noise_seed: Seed) -> Result<NoisySketch, CoreError>;

    /// Release a noisy sketch of a sparse vector (uses the transform's
    /// sparse fast path when it has one; densifies otherwise).
    ///
    /// # Errors
    /// [`CoreError::Transform`] on dimension mismatch.
    fn sketch_sparse(&self, x: &SparseVector, noise_seed: Seed) -> Result<NoisySketch, CoreError>;

    /// Input dimension `d`.
    fn input_dim(&self) -> usize;

    /// Sketch dimension `k`.
    fn k(&self) -> usize;

    /// The transform identity tag shared by every release.
    fn tag(&self) -> &str;

    /// The DP guarantee of each released sketch (every estimate computed
    /// from releases inherits it by post-processing).
    fn guarantee(&self) -> PrivacyGuarantee;

    /// The debias constant `2k·E[η²]` of the pairwise estimator.
    fn debias_constant(&self) -> f64;

    /// The construction's variance prediction at a hypothetical true
    /// squared distance (each construction's own closed form — exact
    /// where the paper gives an exact form, a bound otherwise).
    fn predicted_variance(&self, dist_sq: f64) -> DistanceEstimate;

    /// The serializable spec that rebuilds this exact sketcher anywhere.
    fn spec(&self) -> SketcherSpec;

    /// Add this construction's calibrated release noise to an externally
    /// maintained noiseless projection (e.g. a streaming accumulator over
    /// the same public transform) and package it under this sketcher's
    /// tag.
    ///
    /// # Errors
    /// [`CoreError::Transform`] if `projection` is not `k`-dimensional;
    /// [`CoreError::Unsupported`] for input-perturbation constructions,
    /// whose noise cannot be applied after the projection.
    fn finalize_projection(
        &self,
        projection: Vec<f64>,
        noise_seed: Seed,
    ) -> Result<NoisySketch, CoreError>;

    /// Debiased squared-distance estimate between two released sketches.
    ///
    /// # Errors
    /// [`CoreError::IncompatibleSketches`] if the sketches don't combine.
    fn estimate_sq_distance(&self, a: &NoisySketch, b: &NoisySketch) -> Result<f64, CoreError> {
        a.estimate_sq_distance(b)
    }

    /// Release one sketch per input row. Per-row noise seeds are derived
    /// as `noise_seed.index(row)`, so a batch consumes one private seed.
    ///
    /// The default implementation is the sequential reference;
    /// [`AnySketcher`] overrides it with the data-parallel
    /// [`sketch_batch_par`], which is bit-identical because the seed
    /// derivation depends only on the row index.
    ///
    /// # Errors
    /// [`CoreError::Transform`] on any dimension mismatch.
    fn sketch_batch(
        &self,
        xs: &[Vec<f64>],
        noise_seed: Seed,
    ) -> Result<Vec<NoisySketch>, CoreError> {
        sketch_batch_sequential(self, xs, noise_seed)
    }
}

/// The sequential reference implementation of
/// [`PrivateSketcher::sketch_batch`]: one row at a time, per-row noise
/// seed `noise_seed.index(row)`. The parallel path is tested bit-identical
/// against this.
///
/// # Errors
/// [`CoreError::Transform`] on any dimension mismatch.
pub fn sketch_batch_sequential<S: PrivateSketcher + ?Sized>(
    sketcher: &S,
    xs: &[Vec<f64>],
    noise_seed: Seed,
) -> Result<Vec<NoisySketch>, CoreError> {
    xs.iter()
        .enumerate()
        .map(|(i, x)| sketcher.sketch(x, noise_seed.index(i as u64)))
        .collect()
}

/// Data-parallel batch release: rows are split into contiguous chunks
/// across `par.threads()` workers. Bit-identical to
/// [`sketch_batch_sequential`] for every thread count, because each
/// row's noise seed is `noise_seed.index(row)` regardless of which
/// worker sketches it. On failure the error is the one the sequential
/// loop would have hit first (lowest failing row).
///
/// # Errors
/// [`CoreError::Transform`] on any dimension mismatch.
pub fn sketch_batch_par<S>(
    sketcher: &S,
    xs: &[Vec<f64>],
    noise_seed: Seed,
    par: &Parallelism,
) -> Result<Vec<NoisySketch>, CoreError>
where
    S: PrivateSketcher + Sync + ?Sized,
{
    if par.is_sequential() || xs.len() <= 1 {
        return sketch_batch_sequential(sketcher, xs, noise_seed);
    }
    let mut out: Vec<Option<NoisySketch>> = vec![None; xs.len()];
    par_chunks_mut(&mut out, par.threads(), |offset, chunk| {
        for (local, slot) in chunk.iter_mut().enumerate() {
            let row = offset + local;
            *slot = Some(sketcher.sketch(&xs[row], noise_seed.index(row as u64))?);
        }
        Ok::<(), CoreError>(())
    })?;
    Ok(out
        .into_iter()
        .map(|s| s.expect("every row filled"))
        .collect())
}

/// The constructions of the paper, as serializable data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Construction {
    /// Private SJLT with the Note 5 noise rule applied to the config
    /// (Laplace iff no δ is budgeted or `δ < e^{−s}`).
    SjltAuto,
    /// Private SJLT, Laplace noise forced (Theorem 3 as stated).
    SjltLaplace,
    /// Private SJLT, Gaussian noise forced (§6.2.3; requires δ).
    SjltGaussian,
    /// Output-perturbed private FJLT (Corollary 1; requires δ).
    FjltOutput,
    /// Input-perturbed private FJLT (Lemma 8; requires δ).
    FjltInput,
    /// Kenthapadi et al. baseline with the given σ calibration
    /// (requires δ).
    Kenthapadi(SigmaCalibration),
    /// Private Achlioptas sparse ±1 projection (reference \[1\]; Laplace
    /// noise without a δ budget, Gaussian with one). The second
    /// column-streaming construction after the SJLT.
    Achlioptas,
}

impl Construction {
    /// Stable wire name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::SjltAuto => "sjlt-auto",
            Self::SjltLaplace => "sjlt-laplace",
            Self::SjltGaussian => "sjlt-gaussian",
            Self::FjltOutput => "fjlt-output",
            Self::FjltInput => "fjlt-input",
            Self::Kenthapadi(SigmaCalibration::ExactSensitivity) => "kenthapadi-exact",
            Self::Kenthapadi(SigmaCalibration::Theorem1) => "kenthapadi-theorem1",
            Self::Kenthapadi(SigmaCalibration::AssumedUnit) => "kenthapadi-assumed-unit",
            Self::Achlioptas => "achlioptas",
        }
    }

    /// Parse a stable wire name.
    ///
    /// # Errors
    /// [`CoreError::Wire`] on an unknown name.
    pub fn from_name(name: &str) -> Result<Self, CoreError> {
        Ok(match name {
            "sjlt-auto" => Self::SjltAuto,
            "sjlt-laplace" => Self::SjltLaplace,
            "sjlt-gaussian" => Self::SjltGaussian,
            "fjlt-output" => Self::FjltOutput,
            "fjlt-input" => Self::FjltInput,
            "kenthapadi-exact" => Self::Kenthapadi(SigmaCalibration::ExactSensitivity),
            "kenthapadi-theorem1" => Self::Kenthapadi(SigmaCalibration::Theorem1),
            "kenthapadi-assumed-unit" => Self::Kenthapadi(SigmaCalibration::AssumedUnit),
            "achlioptas" => Self::Achlioptas,
            other => return Err(CoreError::Wire(format!("unknown construction '{other}'"))),
        })
    }

    /// Every concrete construction (with the baseline in its sound
    /// calibration) — handy for experiment sweeps.
    #[must_use]
    pub fn all() -> [Self; 7] {
        [
            Self::SjltAuto,
            Self::SjltLaplace,
            Self::SjltGaussian,
            Self::FjltOutput,
            Self::FjltInput,
            Self::Kenthapadi(SigmaCalibration::ExactSensitivity),
            Self::Achlioptas,
        ]
    }
}

/// Serializable public parameters rebuilding one exact sketcher:
/// construction + validated config + public transform seed, plus the
/// [`KernelId`] every estimate over this spec's releases runs under.
///
/// The kernel id is part of the spec identity because it changes
/// estimate *bits* (see [`crate::kernel`]): two replicas agreeing on a
/// spec agree on every matrix entry bit-for-bit, which is what the
/// coordinator's journal replay and the chaos suites assert.
#[derive(Debug, Clone, PartialEq)]
pub struct SketcherSpec {
    construction: Construction,
    config: SketchConfig,
    transform_seed: u64,
    kernel: KernelId,
}

impl SketcherSpec {
    /// Bundle a construction choice with shared public parameters. The
    /// kernel defaults from the environment knob (`DP_KERNEL`, V1
    /// scalar when unset) — override with [`SketcherSpec::with_kernel`].
    #[must_use]
    pub fn new(construction: Construction, config: SketchConfig, transform_seed: Seed) -> Self {
        Self {
            construction,
            config,
            transform_seed: transform_seed.value(),
            kernel: Parallelism::from_env().kernel(),
        }
    }

    /// Replace the distance-kernel version this spec pins.
    #[must_use]
    pub fn with_kernel(mut self, kernel: KernelId) -> Self {
        self.kernel = kernel;
        self
    }

    /// The distance-kernel version every estimate over this spec's
    /// releases runs under.
    #[must_use]
    pub fn kernel(&self) -> KernelId {
        self.kernel
    }

    /// Whether `other` names the same sketcher but a different kernel
    /// version — the case the protocol reports as `ERR_KERNEL` rather
    /// than a generic spec mismatch.
    #[must_use]
    pub fn differs_only_in_kernel(&self, other: &Self) -> bool {
        self.kernel != other.kernel && *self == other.clone().with_kernel(self.kernel)
    }

    /// The construction this spec selects.
    #[must_use]
    pub fn construction(&self) -> Construction {
        self.construction
    }

    /// The shared sketch configuration.
    #[must_use]
    pub fn config(&self) -> &SketchConfig {
        &self.config
    }

    /// The public transform seed.
    #[must_use]
    pub fn transform_seed(&self) -> Seed {
        Seed::new(self.transform_seed)
    }

    /// Rebuild the sketcher this spec describes. Deterministic: every
    /// party calling this with an equal spec obtains an interoperable
    /// sketcher (identical transform, identical calibration).
    ///
    /// # Errors
    /// Propagates construction failures (e.g. a δ-requiring construction
    /// under a pure-DP config).
    pub fn build(&self) -> Result<AnySketcher, CoreError> {
        let mut sketcher =
            AnySketcher::new(self.construction, &self.config, self.transform_seed())?;
        // Keep the caller's exact spec (kernel id included) so
        // `sketcher.spec()` rebuilds this sketcher, not a variant.
        sketcher.spec = self.clone();
        Ok(sketcher)
    }

    /// [`SketcherSpec::build`] with an explicit [`Parallelism`] knob.
    /// Parallelism is an execution-side concern: it is *not* part of the
    /// spec identity, never travels on the wire, and never changes
    /// released values — only how batch work is scheduled.
    ///
    /// # Errors
    /// Propagates construction failures.
    pub fn build_with(&self, par: Parallelism) -> Result<AnySketcher, CoreError> {
        Ok(self.build()?.with_parallelism(par))
    }

    /// Serialize to the JSON wire format.
    #[must_use]
    pub fn to_json(&self) -> String {
        let cfg = &self.config;
        let jl = cfg.jl();
        let delta = cfg.delta().map_or(JsonValue::Null, JsonValue::Number);
        JsonValue::Object(vec![
            (
                "construction".to_string(),
                JsonValue::String(self.construction.name().to_string()),
            ),
            (
                "config".to_string(),
                JsonValue::Object(vec![
                    (
                        "input_dim".to_string(),
                        JsonValue::UInt(cfg.input_dim() as u64),
                    ),
                    ("alpha".to_string(), JsonValue::Number(jl.alpha())),
                    ("beta".to_string(), JsonValue::Number(jl.beta())),
                    ("epsilon".to_string(), JsonValue::Number(cfg.epsilon())),
                    ("delta".to_string(), delta),
                    ("k_const".to_string(), JsonValue::Number(jl.k_const())),
                    ("s_const".to_string(), JsonValue::Number(jl.s_const())),
                ]),
            ),
            (
                "transform_seed".to_string(),
                JsonValue::UInt(self.transform_seed),
            ),
            (
                "kernel".to_string(),
                JsonValue::String(self.kernel.name().to_string()),
            ),
        ])
        .to_string()
    }

    /// Parse the JSON wire format, re-validating the config.
    ///
    /// # Errors
    /// [`CoreError::Wire`] on malformed input; config validation errors
    /// on out-of-range parameters.
    pub fn from_json(text: &str) -> Result<Self, CoreError> {
        let v = json::parse(text).map_err(CoreError::Wire)?;
        let missing = |field: &str| CoreError::Wire(format!("missing/invalid field '{field}'"));
        let construction = Construction::from_name(
            v.get("construction")
                .and_then(JsonValue::as_str)
                .ok_or_else(|| missing("construction"))?,
        )?;
        let cfg = v.get("config").ok_or_else(|| missing("config"))?;
        let num = |field: &str| -> Result<f64, CoreError> {
            cfg.get(field)
                .and_then(JsonValue::as_f64)
                .ok_or_else(|| missing(field))
        };
        let input_dim = cfg
            .get("input_dim")
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| missing("input_dim"))? as usize;
        let mut builder = SketchConfig::builder()
            .input_dim(input_dim)
            .alpha(num("alpha")?)
            .beta(num("beta")?)
            .epsilon(num("epsilon")?)
            .k_const(num("k_const")?)
            .s_const(num("s_const")?);
        match cfg.get("delta") {
            None => return Err(missing("delta")),
            Some(JsonValue::Null) => {}
            Some(d) => builder = builder.delta(d.as_f64().ok_or_else(|| missing("delta"))?),
        }
        let transform_seed = v
            .get("transform_seed")
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| missing("transform_seed"))?;
        // Specs predating kernel versioning carry no `kernel` field;
        // they were minted by the V1-only codebase, so V1 it is.
        let kernel = match v.get("kernel") {
            None => KernelId::V1Scalar,
            Some(k) => k
                .as_str()
                .and_then(KernelId::parse)
                .ok_or_else(|| missing("kernel"))?,
        };
        Ok(Self {
            construction,
            config: builder.build()?,
            transform_seed,
            kernel,
        })
    }
}

/// The trait's canonical implementation: any of the paper's constructions
/// behind one type, rebuilt from a [`SketcherSpec`].
#[derive(Debug, Clone)]
pub struct AnySketcher {
    spec: SketcherSpec,
    inner: Inner,
    par: Parallelism,
}

#[derive(Debug, Clone)]
enum Inner {
    Sjlt(PrivateSjlt),
    FjltOutput(PrivateFjltOutput),
    FjltInput(PrivateFjltInput),
    Kenthapadi(Kenthapadi),
    Achlioptas(PrivateAchlioptas),
}

impl AnySketcher {
    /// Build a construction from shared public parameters.
    ///
    /// # Errors
    /// Propagates transform/noise construction failures.
    pub fn new(
        construction: Construction,
        config: &SketchConfig,
        transform_seed: Seed,
    ) -> Result<Self, CoreError> {
        let inner = match construction {
            Construction::SjltAuto => Inner::Sjlt(PrivateSjlt::new(config, transform_seed)?),
            Construction::SjltLaplace => {
                Inner::Sjlt(PrivateSjlt::with_laplace(config, transform_seed)?)
            }
            Construction::SjltGaussian => {
                Inner::Sjlt(PrivateSjlt::with_gaussian(config, transform_seed)?)
            }
            Construction::FjltOutput => {
                Inner::FjltOutput(PrivateFjltOutput::new(config, transform_seed)?)
            }
            Construction::FjltInput => {
                Inner::FjltInput(PrivateFjltInput::new(config, transform_seed)?)
            }
            Construction::Kenthapadi(calibration) => {
                Inner::Kenthapadi(Kenthapadi::new(config, calibration, transform_seed)?)
            }
            Construction::Achlioptas => {
                Inner::Achlioptas(PrivateAchlioptas::new(config, transform_seed)?)
            }
        };
        Ok(Self {
            spec: SketcherSpec::new(construction, config.clone(), transform_seed),
            inner,
            par: Parallelism::default(),
        })
    }

    /// Replace the execution knob (thread count, tile size). Released
    /// values are bit-identical for every setting; only scheduling
    /// changes.
    #[must_use]
    pub fn with_parallelism(mut self, par: Parallelism) -> Self {
        self.par = par;
        self
    }

    /// The execution knob batch releases and callers can consult.
    #[must_use]
    pub fn parallelism(&self) -> Parallelism {
        self.par
    }

    /// Rebuild from a spec (equivalent to [`SketcherSpec::build`]).
    ///
    /// # Errors
    /// Propagates construction failures.
    pub fn from_spec(spec: &SketcherSpec) -> Result<Self, CoreError> {
        spec.build()
    }

    /// The wrapped private SJLT, when this is an SJLT construction
    /// (gives access to the streaming-capable transform).
    #[must_use]
    pub fn as_sjlt(&self) -> Option<&PrivateSjlt> {
        match &self.inner {
            Inner::Sjlt(s) => Some(s),
            _ => None,
        }
    }

    /// The wrapped baseline, when this is the Kenthapadi construction.
    #[must_use]
    pub fn as_kenthapadi(&self) -> Option<&Kenthapadi> {
        match &self.inner {
            Inner::Kenthapadi(k) => Some(k),
            _ => None,
        }
    }

    /// The wrapped private Achlioptas sketcher, when this is the
    /// Achlioptas construction (gives access to the second
    /// streaming-capable transform).
    #[must_use]
    pub fn as_achlioptas(&self) -> Option<&PrivateAchlioptas> {
        match &self.inner {
            Inner::Achlioptas(a) => Some(a),
            _ => None,
        }
    }

    /// Short name of the noise family in effect.
    #[must_use]
    pub fn noise_name(&self) -> &'static str {
        match &self.inner {
            Inner::Sjlt(s) => s.noise_name(),
            Inner::Achlioptas(a) => a.noise_name(),
            Inner::FjltOutput(_) | Inner::FjltInput(_) | Inner::Kenthapadi(_) => "gaussian",
        }
    }

    /// The negotiated [`KernelId`] this sketcher computes under — part
    /// of the spec identity that travels on the wire, *not* the local
    /// execution knob. It governs both the distance accumulator and,
    /// since the batch kernels landed, the projection accumulators.
    #[must_use]
    pub fn kernel(&self) -> KernelId {
        self.spec.kernel()
    }

    /// The batchable projection structure, for constructions whose
    /// projection the batch kernels understand: column-sparse for the
    /// SJLT/Achlioptas, explicit dense matrix for Kenthapadi. `None`
    /// for the FJLT constructions — the in-place FWHT has no kernel
    /// variant, so both kernels produce its historic bits via the
    /// per-row path. Every caller projects dense rows, so the SJLT's
    /// column table is resolved here (once per transform) and the V2
    /// column scatter reads it instead of hashing.
    fn batch_projection(&self) -> Option<kernel::BatchProjection<'_>> {
        match &self.inner {
            Inner::Sjlt(s) => {
                let t = s.general().transform();
                t.resolve_columns();
                Some(kernel::BatchProjection::Columns(t))
            }
            Inner::Achlioptas(a) => Some(kernel::BatchProjection::Columns(a.general().transform())),
            Inner::Kenthapadi(kt) => {
                let t = kt.general().transform();
                Some(kernel::BatchProjection::Dense {
                    matrix: t.matrix(),
                    transform: t,
                })
            }
            Inner::FjltOutput(_) | Inner::FjltInput(_) => None,
        }
    }

    /// Kernel-aware noiseless projection `S·x`: the exact values this
    /// sketcher's [`PrivateSketcher::sketch`] adds noise to under the
    /// spec's kernel. External accumulators (and the bit-identity
    /// suites) pair it with [`PrivateSketcher::finalize_projection`] to
    /// reproduce a release.
    ///
    /// # Errors
    /// [`CoreError::Transform`] on dimension mismatch;
    /// [`CoreError::Unsupported`] for the input-perturbed FJLT, whose
    /// noise precedes the projection.
    pub fn project(&self, x: &[f64]) -> Result<Vec<f64>, CoreError> {
        match &self.inner {
            Inner::FjltOutput(s) => Ok(s.general().transform().apply(x)?),
            Inner::FjltInput(_) => Err(CoreError::Unsupported(
                "input-perturbed FJLT adds noise before the projection; \
                 it has no noiseless projection to expose",
            )),
            _ => {
                let p = self
                    .batch_projection()
                    .expect("non-FJLT constructions are batchable");
                let mut out = vec![0.0; self.k()];
                kernel::apply_projection(self.spec.kernel(), &p, x, &mut out)?;
                Ok(out)
            }
        }
    }

    /// Sketch batch rows `offset..offset + slots.len()` through the
    /// batch projection kernels in fixed-size blocks, filling `slots`.
    /// Per-row results are independent of block and chunk boundaries
    /// (V1 blocks are bit-frozen to the per-row loop; V2 rows never mix
    /// lanes), so every thread count and chunking yields one bit
    /// pattern.
    fn sketch_chunk_kernel(
        &self,
        xs: &[Vec<f64>],
        offset: usize,
        slots: &mut [Option<NoisySketch>],
        noise_seed: Seed,
    ) -> Result<(), CoreError> {
        const BLOCK: usize = 8;
        let k = self.k();
        let p = self
            .batch_projection()
            .expect("caller checked batchability");
        let mut scratch = vec![0.0f64; BLOCK * k];
        let mut start = 0;
        while start < slots.len() {
            let len = BLOCK.min(slots.len() - start);
            let rows: Vec<&[f64]> = xs[offset + start..offset + start + len]
                .iter()
                .map(Vec::as_slice)
                .collect();
            let buf = &mut scratch[..len * k];
            kernel::apply_batch(self.spec.kernel(), &p, &rows, buf)?;
            for (i, slot) in slots[start..start + len].iter_mut().enumerate() {
                let row = offset + start + i;
                let projection = buf[i * k..(i + 1) * k].to_vec();
                *slot = Some(self.finalize_projection(projection, noise_seed.index(row as u64))?);
            }
            start += len;
        }
        Ok(())
    }
}

impl PrivateSketcher for AnySketcher {
    fn sketch(&self, x: &[f64], noise_seed: Seed) -> Result<NoisySketch, CoreError> {
        // V2 routes the projection through the versioned kernels so a
        // single release, a batch release, and a streamed finalize all
        // produce one bit pattern under one kernel id. V1 keeps the
        // exact historic per-construction path (frozen bits).
        if self.spec.kernel() != KernelId::V1Scalar {
            if let Some(p) = self.batch_projection() {
                let mut projection = vec![0.0; self.k()];
                kernel::apply_projection(self.spec.kernel(), &p, x, &mut projection)?;
                return self.finalize_projection(projection, noise_seed);
            }
        }
        match &self.inner {
            Inner::Sjlt(s) => s.try_sketch(x, noise_seed),
            Inner::FjltOutput(s) => s.sketch(x, noise_seed),
            Inner::FjltInput(s) => s.sketch(x, noise_seed),
            Inner::Kenthapadi(s) => s.sketch(x, noise_seed),
            Inner::Achlioptas(s) => s.sketch(x, noise_seed),
        }
    }

    fn sketch_sparse(&self, x: &SparseVector, noise_seed: Seed) -> Result<NoisySketch, CoreError> {
        // Under V2 the column-streaming constructions keep their
        // O(s·‖x‖₀ + k) advantage through the fused sparse scatter.
        if self.spec.kernel() != KernelId::V1Scalar {
            let streaming: Option<&dyn dp_transforms::StreamingColumns> = match &self.inner {
                Inner::Sjlt(s) => Some(s.general().transform()),
                Inner::Achlioptas(a) => Some(a.general().transform()),
                _ => None,
            };
            if let Some(t) = streaming {
                let mut projection = vec![0.0; self.k()];
                kernel::v2_apply_columns_sparse(t, x, &mut projection)?;
                return self.finalize_projection(projection, noise_seed);
            }
        }
        match &self.inner {
            Inner::Sjlt(s) => s.sketch_sparse(x, noise_seed),
            Inner::Achlioptas(s) => s.sketch_sparse(x, noise_seed),
            // The dense constructions have no sparse fast path.
            _ => self.sketch(&x.to_dense(), noise_seed),
        }
    }

    fn input_dim(&self) -> usize {
        self.spec.config().input_dim()
    }

    fn k(&self) -> usize {
        match &self.inner {
            Inner::Sjlt(s) => s.k(),
            Inner::FjltOutput(s) => s.k(),
            Inner::FjltInput(s) => s.k(),
            Inner::Kenthapadi(s) => s.k(),
            Inner::Achlioptas(s) => s.k(),
        }
    }

    fn tag(&self) -> &str {
        match &self.inner {
            Inner::Sjlt(s) => s.general().tag(),
            Inner::FjltOutput(s) => s.general().tag(),
            Inner::FjltInput(s) => s.tag(),
            Inner::Kenthapadi(s) => s.general().tag(),
            Inner::Achlioptas(s) => s.general().tag(),
        }
    }

    fn guarantee(&self) -> PrivacyGuarantee {
        match &self.inner {
            Inner::Sjlt(s) => s.guarantee(),
            Inner::FjltOutput(s) => s.guarantee(),
            Inner::FjltInput(s) => s.guarantee(),
            Inner::Kenthapadi(s) => s.guarantee(),
            Inner::Achlioptas(s) => s.guarantee(),
        }
    }

    fn debias_constant(&self) -> f64 {
        match &self.inner {
            Inner::Sjlt(s) => s.general().debias_constant(),
            Inner::FjltOutput(s) => s.general().debias_constant(),
            // Effective moment: 2k·(dσ²/k) = 2dσ² (see fjlt_private docs).
            Inner::FjltInput(s) => 2.0 * s.d() as f64 * s.sigma() * s.sigma(),
            Inner::Kenthapadi(s) => s.general().debias_constant(),
            Inner::Achlioptas(s) => s.general().debias_constant(),
        }
    }

    fn predicted_variance(&self, dist_sq: f64) -> DistanceEstimate {
        match &self.inner {
            Inner::Sjlt(s) => s.variance_bound(dist_sq),
            Inner::FjltOutput(s) => s.variance_bound(dist_sq),
            Inner::FjltInput(s) => s.variance_bound(dist_sq),
            Inner::Kenthapadi(s) => s.variance(dist_sq),
            Inner::Achlioptas(s) => s.variance_bound(dist_sq),
        }
    }

    fn spec(&self) -> SketcherSpec {
        self.spec.clone()
    }

    fn finalize_projection(
        &self,
        projection: Vec<f64>,
        noise_seed: Seed,
    ) -> Result<NoisySketch, CoreError> {
        match &self.inner {
            Inner::Sjlt(s) => s.general().finalize(projection, noise_seed),
            Inner::FjltOutput(s) => s.general().finalize(projection, noise_seed),
            Inner::Kenthapadi(s) => s.general().finalize(projection, noise_seed),
            Inner::Achlioptas(s) => s.general().finalize(projection, noise_seed),
            Inner::FjltInput(_) => Err(CoreError::Unsupported(
                "input-perturbed FJLT adds noise before the projection; \
                 it cannot finalize an externally maintained projection",
            )),
        }
    }

    fn sketch_batch(
        &self,
        xs: &[Vec<f64>],
        noise_seed: Seed,
    ) -> Result<Vec<NoisySketch>, CoreError> {
        if self.batch_projection().is_none() {
            // FJLT constructions: the FWHT has no batch kernel; the
            // per-row data-parallel path is already their fastest form.
            return sketch_batch_par(self, xs, noise_seed, &self.par);
        }
        // Kernel-aware batching: rows chunked across workers, each
        // chunk projected block-at-a-time through `kernel::apply_batch`
        // and finalized with the unchanged per-row noise seed
        // `noise_seed.index(row)` — bit-identical to the per-row path
        // for every thread count and batch size, in both kernels.
        let mut out: Vec<Option<NoisySketch>> = vec![None; xs.len()];
        if self.par.is_sequential() || xs.len() <= 1 {
            self.sketch_chunk_kernel(xs, 0, &mut out, noise_seed)?;
        } else {
            par_chunks_mut(&mut out, self.par.threads(), |offset, chunk| {
                self.sketch_chunk_kernel(xs, offset, chunk, noise_seed)
            })?;
        }
        Ok(out
            .into_iter()
            .map(|s| s.expect("every row filled"))
            .collect())
    }
}

/// All pairwise debiased squared-distance estimates, as a flat row-major
/// `n × n` matrix (symmetric, zero diagonal).
#[derive(Debug, Clone, PartialEq)]
pub struct PairwiseDistances {
    n: usize,
    values: Vec<f64>,
}

impl PairwiseDistances {
    /// Number of sketches (matrix side length).
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
    }

    /// The estimate for pair `(i, j)`.
    ///
    /// # Panics
    /// If `i` or `j` is out of range.
    #[must_use]
    pub fn at(&self, i: usize, j: usize) -> f64 {
        assert!(
            i < self.n && j < self.n,
            "index ({i},{j}) out of {}",
            self.n
        );
        self.values[i * self.n + j]
    }

    /// The flat row-major buffer (length `n²`).
    #[must_use]
    pub fn as_flat(&self) -> &[f64] {
        &self.values
    }

    /// Consume into the flat row-major buffer.
    #[must_use]
    pub fn into_flat(self) -> Vec<f64> {
        self.values
    }

    /// Wrap an externally assembled flat row-major `n × n` buffer (the
    /// inverse of [`PairwiseDistances::into_flat`]; used by the
    /// `dp-engine` dense gather and memo).
    ///
    /// # Panics
    /// If `values.len() != n²`.
    #[must_use]
    pub fn from_flat(n: usize, values: Vec<f64>) -> Self {
        assert_eq!(values.len(), n * n, "flat buffer must be n² long");
        Self { n, values }
    }
}

/// Estimate every pairwise squared distance among released sketches,
/// using the tiled kernel on the environment-default [`Parallelism`].
///
/// # Errors
/// [`CoreError::IncompatibleSketches`] if any sketch doesn't combine
/// with the first (see [`pairwise_sq_distances_with_par`] for how this
/// sweep relates to the reference's per-pair check).
pub fn pairwise_sq_distances(sketches: &[NoisySketch]) -> Result<PairwiseDistances, CoreError> {
    pairwise_sq_distances_with(sketches, |s| s)
}

/// [`pairwise_sq_distances`] over any slice whose items carry a sketch
/// (e.g. protocol `Release`s), without copying the sketches out.
///
/// # Errors
/// [`CoreError::IncompatibleSketches`] if any sketch doesn't combine
/// with the first (see [`pairwise_sq_distances_with_par`]).
pub fn pairwise_sq_distances_with<T: Sync>(
    items: &[T],
    sketch_of: impl Fn(&T) -> &NoisySketch + Sync,
) -> Result<PairwiseDistances, CoreError> {
    pairwise_sq_distances_with_par(items, sketch_of, &Parallelism::default())
}

// dp-lint: freeze(pairwise-reference) begin
/// The naive sequential double loop over
/// [`NoisySketch::estimate_sq_distance`] — kept as the reference
/// implementation the tiled kernel is tested bit-identical against.
///
/// # Errors
/// [`CoreError::IncompatibleSketches`] if any pair doesn't combine.
pub fn pairwise_sq_distances_reference(
    sketches: &[NoisySketch],
) -> Result<PairwiseDistances, CoreError> {
    let n = sketches.len();
    let mut values = vec![0.0; n * n];
    for i in 0..n {
        for j in (i + 1)..n {
            let est = sketches[i].estimate_sq_distance(&sketches[j])?;
            values[i * n + j] = est;
            values[j * n + i] = est;
        }
    }
    Ok(PairwiseDistances { n, values })
}
// dp-lint: freeze(pairwise-reference) end

/// The cache-blocked tile kernel behind the all-pairs surface.
///
/// The matrix's upper triangle is decomposed by a [`TilePlan`] into
/// `par.tile()`-sided `(row_block, col_block)` tiles, which
/// [`pairwise_sq_distances_rows`] executes and scatters (plus mirrors)
/// into the row-major matrix. Per-sketch invariants are hoisted out
/// of the inner loop: compatibility is checked once per sketch against
/// the first (n−1 checks instead of one per pair), and each sketch's
/// debias constant `2k·E[η²]` is computed once per *row* instead of
/// once per pair. Debias stays per-row (not a single batch constant)
/// because [`NoisySketch::check_compatible`] tolerates tiny `E[η²]`
/// differences; using row `i`'s own constant reproduces the reference
/// bit-for-bit even for such hand-built batches.
///
/// Bit-identical to [`pairwise_sq_distances_reference`] for every
/// thread count and tile size: each pair is computed exactly once, by
/// the same zip-order sum and the same `raw − 2k·E[η²]` expression the
/// per-pair estimator uses.
///
/// # Errors
/// [`CoreError::IncompatibleSketches`] if the batch doesn't combine:
/// each sketch is checked against the first (pinning the transform tag
/// and `k` exactly, which are transitive), and the *span* of noise
/// moments across the batch must itself fit the compatibility
/// tolerance — so any batch the per-pair reference would reject is
/// rejected here too (never silently accepted). The one divergence is
/// a sliver on the tolerance boundary where this check is marginally
/// *stricter* than the reference, and which pair an error names.
/// Batches released by one sketcher — the only kind the workspace
/// produces — carry identical moments, where the two checks agree
/// exactly.
pub fn pairwise_sq_distances_with_par<'a, T: Sync>(
    items: &'a [T],
    sketch_of: impl Fn(&'a T) -> &'a NoisySketch + Sync,
    par: &Parallelism,
) -> Result<PairwiseDistances, CoreError> {
    let n = items.len();
    if n == 0 {
        return Ok(PairwiseDistances {
            n: 0,
            values: Vec::new(),
        });
    }
    // Hoisted invariants: one compatibility sweep pins the transform
    // tag, k, and noise moment for the whole batch, and each row's
    // debias constant is evaluated once here — the inner loop is a pure
    // fused subtract-square-accumulate over the value slices. The
    // constant is per-row (row i's own E[η²], exactly what the per-pair
    // estimator uses for the (i, j), i < j pair), which keeps the
    // bit-identity contract even when moments differ within tolerance.
    let first = sketch_of(&items[0]);
    let mut m2_min = first.noise_second_moment();
    let mut m2_max = m2_min;
    for item in items.iter().skip(1) {
        let s = sketch_of(item);
        first.check_compatible(s)?;
        m2_min = m2_min.min(s.noise_second_moment());
        m2_max = m2_max.max(s.noise_second_moment());
    }
    // The vs-first sweep alone would admit moments at opposite edges of
    // the tolerance band (a pair the per-pair reference rejects); bound
    // the batch *span* by the tolerance at its weakest scale so every
    // pair provably passes the per-pair check.
    if (m2_max - m2_min).abs() > 1e-12 * (1.0 + m2_min.abs()) {
        return Err(CoreError::IncompatibleSketches(format!(
            "noise moment span {m2_min} vs {m2_max} exceeds the batch tolerance"
        )));
    }
    let debias: Vec<f64> = items
        .iter()
        .map(|item| {
            let s = sketch_of(item);
            2.0 * s.k() as f64 * s.noise_second_moment()
        })
        .collect();
    Ok(pairwise_sq_distances_rows(
        n,
        |i| sketch_of(&items[i]).values(),
        &debias,
        par,
    ))
}

/// The raw tiled kernel over row slices: pair `(i, j)`, `i < j`, is
/// `Σ (row_i − row_j)² − debias[i]`, written symmetrically into a flat
/// row-major matrix with a zero diagonal. This is the layer shared by
/// [`pairwise_sq_distances_with_par`] (which first validates sketch
/// compatibility and hoists the debias constants) and the `dp-engine`
/// subset recompute (whose arena validates at ingest time); both are
/// bit-identical to [`pairwise_sq_distances_reference`] because the
/// inner expression is exactly the per-pair estimator's.
///
/// It runs the one tile pipeline every all-pairs matrix runs:
/// [`execute_tiles`] over every tile of [`effective_plan`], then
/// [`scatter_tile_segment`] per segment, in tile-id order.
///
/// # Panics
/// If `debias.len() != n` or any row slice is shorter than row 0 (rows
/// must all have the sketch dimension `k`; callers validate).
pub fn pairwise_sq_distances_rows<'a, R>(
    n: usize,
    row_values: R,
    debias: &[f64],
    par: &Parallelism,
) -> PairwiseDistances
where
    R: Fn(usize) -> &'a [f64] + Sync,
{
    let plan = effective_plan(n, par);
    let ids: Vec<u64> = (0..plan.tile_count() as u64).collect();
    let segments = execute_tiles(&plan, &ids, row_values, debias, par);
    let mut values = vec![0.0; n * n];
    for (tile, segment) in plan.into_iter().zip(&segments) {
        scatter_tile_segment(&tile, &segment.values, n, &mut values);
    }
    PairwiseDistances { n, values }
}

/// The plan `pairwise_sq_distances_rows` executes for `(n, par)`: tiles
/// of side `par.tile()`, capped when several workers are requested so
/// the plan emits enough tiles to feed them on small matrices — results
/// are tile-size independent, so the cap only changes scheduling
/// (`par.tile()` acts as an upper bound).
#[must_use]
pub fn effective_plan(n: usize, par: &Parallelism) -> TilePlan {
    let tile = if par.threads() > 1 {
        par.tile().min(n.div_ceil(2 * par.threads()).max(1))
    } else {
        par.tile()
    };
    TilePlan::new(n, tile)
}

/// The kernel's per-tile inner loop: write the tile's `(i, j)`, `i < j`
/// pair estimates into `out` in row-major order under the given
/// [`KernelId`]. It is the estimator's only tiled implementation, which
/// keeps every matrix, local or gathered, bit-identical (within a
/// kernel version).
///
/// The tile's column slices are interleaved once
/// ([`kernel::interleave_columns`]) into ⌈cols / 8⌉ groups of
/// [`kernel::GROUP_WIDTH`] = 8, the last one zero-padded. Each group
/// then runs [`kernel::sq_distance_group`] against every row `i` that
/// has a column `j > i` in it, and only the lanes with
/// `i < j < col_end` are kept. Each lane is exactly
/// [`kernel::sq_distance`] of its pair, minus `debias[i]`, so blocking
/// changes no bit (guarded by the bit-identity suites). A pair whose
/// slices differ in length from the tile's first column takes the
/// per-pair call, which keeps zip truncation. Every all-pairs tile
/// runs this loop: the cold matrix, a grown memo's frontier, a
/// worker's `ExecuteTilesStream` shard and a subset recompute.
fn fill_tile_segment<'a, R>(
    tile: &Tile,
    row_values: &R,
    debias: &[f64],
    kernel: KernelId,
    out: &mut [f64],
) where
    R: Fn(usize) -> &'a [f64],
{
    const W: usize = kernel::GROUP_WIDTH;
    let cols: Vec<&'a [f64]> = tile.cols().map(row_values).collect();
    let k = cols.first().map_or(0, |c| c.len());
    let groups = kernel::interleave_columns(&cols, k);
    // Row i's pairs are columns `first..col_end`, `first = max(col_start,
    // i + 1)`, written from `start` on: the row-major segment layout.
    let mut w = 0usize;
    let rows: Vec<(&'a [f64], usize, usize)> = tile
        .rows()
        .map(|i| {
            let first = tile.col_start.max(i + 1).min(tile.col_end);
            let start = w;
            w += tile.col_end - first;
            (row_values(i), first, start)
        })
        .collect();
    // Group-outer order keeps one group in L1 while the tile's rows
    // stream past it; every pair's sum is the same in any order.
    for g in 0..cols.len().div_ceil(W) {
        let base = tile.col_start + g * W;
        let end = tile.col_end.min(base + W);
        let group = &groups[g * k * W..(g + 1) * k * W];
        for (i, &(a, first, start)) in tile.rows().zip(&rows) {
            if first >= end {
                break;
            }
            let raw = (a.len() == k).then(|| kernel::sq_distance_group(kernel, a, group));
            for j in first.max(base)..end {
                let col = cols[j - tile.col_start];
                let sum = match raw {
                    Some(lanes) if col.len() == k => lanes[j - base],
                    _ => kernel::sq_distance(kernel, a, col),
                };
                out[start + j - first] = sum - debias[i];
            }
        }
    }
    debug_assert_eq!(w, out.len(), "tile fills its segment exactly");
}

/// Scatter one tile's row-major segment (plus its mirror) into a flat
/// `n × n` matrix — the inverse of `fill_tile_segment`'s walk, shared
/// by the local kernel and the `dp-engine` gather assembler.
///
/// Two passes, each writing contiguous runs: the tile's rows of the
/// upper triangle as slice copies, then the mirror one matrix row `j`
/// at a time (its cells `(j, i)` for the tile's rows `i < j` sit side
/// by side). Writing the mirror in the segment's own order instead
/// strides a whole matrix row per value, which on a power-of-two `n`
/// lands every write of a tile column in the same cache set.
pub fn scatter_tile_segment(tile: &Tile, segment: &[f64], n: usize, values: &mut [f64]) {
    // `bases[r] + j` is the segment index of pair (row_start + r, j).
    let mut bases = Vec::with_capacity(tile.rows().len());
    let mut idx = 0usize;
    for i in tile.rows() {
        let from = tile.col_start.max(i + 1);
        let run = &segment[idx..idx + (tile.col_end - from)];
        values[i * n + from..i * n + tile.col_end].copy_from_slice(run);
        bases.push(idx.wrapping_sub(from));
        idx += run.len();
    }
    debug_assert_eq!(idx, segment.len(), "segment length matches the tile");
    for j in tile.cols() {
        let rows = tile.row_start..tile.row_end.min(j);
        let mirror = &mut values[j * n + rows.start..j * n + rows.end];
        for (cell, base) in mirror.iter_mut().zip(&bases) {
            *cell = segment[base.wrapping_add(j)];
        }
    }
}

/// Read one tile's row-major segment back out of a flat `n × n` matrix
/// — the inverse of [`scatter_tile_segment`], and bit-identical to the
/// segment the kernel filled when the matrix came from it. A server
/// streams a cached matrix's upper triangle with it.
#[must_use]
pub fn slice_tile_segment(tile: &Tile, values: &[f64], n: usize) -> Vec<f64> {
    let mut segment = Vec::with_capacity(tile.pair_count());
    for i in tile.rows() {
        let row = &values[i * n..(i + 1) * n];
        segment.extend_from_slice(&row[tile.col_start.max(i + 1)..tile.col_end]);
    }
    debug_assert_eq!(segment.len(), tile.pair_count(), "segment fills the tile");
    segment
}

/// Execute an explicit set of a plan's tiles over row slices, returning
/// one [`TileSegment`] per id (in the given order). This is the one
/// all-pairs executor: the slice API and the engine's fills run it
/// in process, and a worker server runs it over its own store and
/// ships the segments back keyed by tile id, so every matrix is
/// bit-identical however its tiles were distributed.
///
/// Tiles are executed as dynamic tasks on `par.threads()` workers;
/// output order is id-list order regardless of scheduling.
///
/// # Panics
/// If `debias.len() != plan.n()` or an id is outside the plan (callers
/// validate ids against [`TilePlan::tile_count`] first — the engine and
/// protocol layers return typed errors instead).
pub fn execute_tiles<'a, R>(
    plan: &TilePlan,
    ids: &[u64],
    row_values: R,
    debias: &[f64],
    par: &Parallelism,
) -> Vec<TileSegment>
where
    R: Fn(usize) -> &'a [f64] + Sync,
{
    assert_eq!(debias.len(), plan.n(), "one debias constant per row");
    let kernel = par.kernel();
    par_map(ids, par.threads(), |_, &tile_id| {
        let tile = plan
            .tile_at(usize::try_from(tile_id).expect("id fits usize"))
            .expect("tile id validated against the plan");
        let mut values = vec![0.0f64; tile.pair_count()];
        fill_tile_segment(&tile, &row_values, debias, kernel, &mut values);
        TileSegment { tile_id, values }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dp_stats::Summary;
    use dp_transforms::LinearTransform;

    fn config(delta: Option<f64>) -> SketchConfig {
        let mut b = SketchConfig::builder()
            .input_dim(48)
            .alpha(0.3)
            .beta(0.1)
            .epsilon(1.5);
        if let Some(d) = delta {
            b = b.delta(d);
        }
        b.build().unwrap()
    }

    #[test]
    fn every_construction_builds_and_sketches() {
        let cfg = config(Some(1e-6));
        let x = vec![1.0; 48];
        for construction in Construction::all() {
            let sk = AnySketcher::new(construction, &cfg, Seed::new(3)).unwrap();
            let a = sk.sketch(&x, Seed::new(10)).unwrap();
            let b = sk.sketch(&x, Seed::new(11)).unwrap();
            assert_eq!(a.k(), sk.k(), "{construction:?}");
            assert_eq!(a.transform_tag(), sk.tag());
            let est = sk.estimate_sq_distance(&a, &b).unwrap();
            assert!(est.is_finite(), "{construction:?}");
            assert!(sk.debias_constant() >= 0.0);
            assert!(sk.predicted_variance(1.0).predicted_variance > 0.0);
        }
    }

    #[test]
    fn pure_dp_config_rejects_delta_constructions() {
        let cfg = config(None);
        for construction in [
            Construction::SjltGaussian,
            Construction::FjltOutput,
            Construction::FjltInput,
            Construction::Kenthapadi(SigmaCalibration::ExactSensitivity),
        ] {
            assert!(
                matches!(
                    AnySketcher::new(construction, &cfg, Seed::new(1)),
                    Err(CoreError::MissingField("delta"))
                ),
                "{construction:?}"
            );
        }
        // The pure-DP constructions still work.
        assert!(AnySketcher::new(Construction::SjltAuto, &cfg, Seed::new(1)).is_ok());
        assert!(AnySketcher::new(Construction::SjltLaplace, &cfg, Seed::new(1)).is_ok());
    }

    #[test]
    fn spec_roundtrips_through_json() {
        for (construction, delta) in [
            (Construction::SjltAuto, None),
            (Construction::SjltLaplace, None),
            (Construction::FjltInput, Some(1e-7)),
            (
                Construction::Kenthapadi(SigmaCalibration::Theorem1),
                Some(1e-7),
            ),
        ] {
            let spec = SketcherSpec::new(construction, config(delta), Seed::new(42));
            let text = spec.to_json();
            let back = SketcherSpec::from_json(&text).unwrap();
            assert_eq!(spec, back, "{construction:?}");
        }
        assert!(SketcherSpec::from_json("{}").is_err());
        assert!(SketcherSpec::from_json("not json").is_err());
    }

    #[test]
    fn spec_rebuilds_interoperable_sketchers() {
        let cfg = config(Some(1e-6));
        for construction in Construction::all() {
            let spec = SketcherSpec::new(construction, cfg.clone(), Seed::new(7));
            let party_a = spec.build().unwrap();
            let party_b = SketcherSpec::from_json(&spec.to_json())
                .unwrap()
                .build()
                .unwrap();
            let x = vec![0.5; 48];
            let y = vec![0.25; 48];
            let sa = party_a.sketch(&x, Seed::new(100)).unwrap();
            let sb = party_b.sketch(&y, Seed::new(200)).unwrap();
            // Different parties, same spec → combinable releases.
            assert!(sa.estimate_sq_distance(&sb).is_ok(), "{construction:?}");
        }
    }

    #[test]
    fn cross_construction_sketches_refused() {
        let cfg = config(Some(1e-6));
        let x = vec![1.0; 48];
        let sketchers: Vec<AnySketcher> = Construction::all()
            .into_iter()
            .map(|c| AnySketcher::new(c, &cfg, Seed::new(5)).unwrap())
            .collect();
        let sketches: Vec<NoisySketch> = sketchers
            .iter()
            .map(|s| s.sketch(&x, Seed::new(9)).unwrap())
            .collect();
        for i in 0..sketches.len() {
            for j in 0..sketches.len() {
                let est = sketches[i].estimate_sq_distance(&sketches[j]);
                if sketchers[i].tag() == sketchers[j].tag() {
                    assert!(est.is_ok());
                } else {
                    assert!(
                        matches!(est, Err(CoreError::IncompatibleSketches(_))),
                        "({i},{j})"
                    );
                }
            }
        }
    }

    #[test]
    fn trait_objects_are_usable() {
        let cfg = config(Some(1e-6));
        let boxed: Vec<Box<dyn PrivateSketcher>> = vec![
            Box::new(AnySketcher::new(Construction::SjltLaplace, &cfg, Seed::new(1)).unwrap()),
            Box::new(
                AnySketcher::new(
                    Construction::Kenthapadi(SigmaCalibration::ExactSensitivity),
                    &cfg,
                    Seed::new(1),
                )
                .unwrap(),
            ),
        ];
        let x = vec![1.0; 48];
        for sk in &boxed {
            let a = sk.sketch(&x, Seed::new(2)).unwrap();
            let b = sk.sketch(&x, Seed::new(3)).unwrap();
            assert!(sk.estimate_sq_distance(&a, &b).unwrap().is_finite());
            assert_eq!(sk.spec().build().unwrap().k(), sk.k());
        }
    }

    #[test]
    fn sketch_batch_derives_fresh_noise_per_row() {
        let cfg = config(None);
        let sk = AnySketcher::new(Construction::SjltLaplace, &cfg, Seed::new(1)).unwrap();
        let rows = vec![vec![1.0; 48], vec![1.0; 48], vec![0.0; 48]];
        let sketches = sk.sketch_batch(&rows, Seed::new(77)).unwrap();
        assert_eq!(sketches.len(), 3);
        // Identical inputs, distinct derived noise seeds → distinct noise.
        assert_ne!(sketches[0], sketches[1]);
        // Deterministic: the same batch seed reproduces the batch.
        assert_eq!(sketches, sk.sketch_batch(&rows, Seed::new(77)).unwrap());
    }

    #[test]
    fn batch_and_pairwise_estimate_distances() {
        let cfg = SketchConfig::builder()
            .input_dim(256)
            .alpha(0.25)
            .beta(0.05)
            .epsilon(2.0)
            .build()
            .unwrap();
        let d = 256;
        let rows = vec![vec![0.0; d], vec![1.0; d], {
            let mut v = vec![0.0; d];
            v[0] = 1.0;
            v
        }];
        let mut d01 = Summary::new();
        let mut d02 = Summary::new();
        for rep in 0..300u64 {
            let sk = AnySketcher::new(Construction::SjltAuto, &cfg, Seed::new(rep)).unwrap();
            let sketches = sk.sketch_batch(&rows, Seed::new(1000 + rep)).unwrap();
            let m = pairwise_sq_distances(&sketches).unwrap();
            assert_eq!(m.n(), 3);
            assert_eq!(m.as_flat().len(), 9);
            assert_eq!(m.at(0, 1), m.at(1, 0), "symmetry");
            assert_eq!(m.at(2, 2), 0.0, "diagonal");
            d01.push(m.at(0, 1));
            d02.push(m.at(0, 2));
        }
        assert!(
            (d01.mean() - 256.0).abs() / d01.stderr() < 4.0,
            "{}",
            d01.mean()
        );
        assert!(
            (d02.mean() - 1.0).abs() / d02.stderr() < 4.0,
            "{}",
            d02.mean()
        );
    }

    #[test]
    fn finalize_projection_matches_direct_sketch_for_output_noise() {
        let cfg = config(None);
        let sk = AnySketcher::new(Construction::SjltLaplace, &cfg, Seed::new(2)).unwrap();
        let x: Vec<f64> = (0..48).map(|i| (i as f64 * 0.7).sin() * 3.0).collect();
        // The kernel-aware noiseless projection, finalized, must equal a
        // direct sketch under the same noise seed — in both kernel lanes.
        let projection = sk.project(&x).unwrap();
        let via_finalize = sk.finalize_projection(projection, Seed::new(9)).unwrap();
        let direct = sk.sketch(&x, Seed::new(9)).unwrap();
        assert_eq!(via_finalize, direct);
        // Under V1 the projection is the historic transform apply,
        // bit-for-bit.
        let v1 = sk.spec().with_kernel(KernelId::V1Scalar).build().unwrap();
        let historic = v1
            .as_sjlt()
            .unwrap()
            .general()
            .transform()
            .apply(&x)
            .unwrap();
        for (a, b) in v1.project(&x).unwrap().iter().zip(&historic) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        // Wrong length rejected; input-perturbed construction refuses.
        assert!(sk.finalize_projection(vec![0.0; 3], Seed::new(1)).is_err());
        let fin =
            AnySketcher::new(Construction::FjltInput, &config(Some(1e-6)), Seed::new(2)).unwrap();
        assert!(matches!(
            fin.finalize_projection(vec![0.0; fin.k()], Seed::new(1)),
            Err(CoreError::Unsupported(_))
        ));
    }

    /// Deterministic pseudo-random rows for equivalence tests.
    fn rows(n: usize, d: usize, seed: u64) -> Vec<Vec<f64>> {
        use dp_hashing::Prng;
        let mut rng = Seed::new(seed).rng();
        (0..n)
            .map(|_| (0..d).map(|_| rng.next_f64() * 4.0 - 2.0).collect())
            .collect()
    }

    #[test]
    fn batch_and_per_row_sketches_bit_identical_in_both_kernels() {
        let cfg = config(Some(1e-6));
        for construction in Construction::all() {
            for kernel in [KernelId::V1Scalar, KernelId::V2Simd] {
                let spec =
                    SketcherSpec::new(construction, cfg.clone(), Seed::new(3)).with_kernel(kernel);
                let sk = spec.build().unwrap();
                // Ragged batch sizes around the internal block: empty,
                // single, and non-multiples of the block width.
                for n in [0usize, 1, 7, 9] {
                    let xs = rows(n, 48, 21);
                    let batch = sk.sketch_batch(&xs, Seed::new(5)).unwrap();
                    for (i, x) in xs.iter().enumerate() {
                        let single = sk.sketch(x, Seed::new(5).index(i as u64)).unwrap();
                        assert_eq!(
                            batch[i], single,
                            "{construction:?} {kernel:?} n={n} row {i}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn parallel_sketch_batch_is_bit_identical_to_sequential() {
        let cfg = config(Some(1e-6));
        for construction in Construction::all() {
            let sk = AnySketcher::new(construction, &cfg, Seed::new(3)).unwrap();
            let xs = rows(7, 48, 11);
            let reference = sketch_batch_sequential(&sk, &xs, Seed::new(5)).unwrap();
            for threads in [1usize, 2, 3, 8] {
                let par =
                    sketch_batch_par(&sk, &xs, Seed::new(5), &Parallelism::new(threads)).unwrap();
                assert_eq!(par.len(), reference.len());
                for (a, b) in reference.iter().zip(&par) {
                    assert_eq!(a, b, "{construction:?}, threads = {threads}");
                    for (x, y) in a.values().iter().zip(b.values()) {
                        assert_eq!(x.to_bits(), y.to_bits());
                    }
                }
            }
        }
    }

    #[test]
    fn trait_batch_routes_through_the_knob() {
        let cfg = config(None);
        let xs = rows(5, 48, 2);
        let seq = AnySketcher::new(Construction::SjltLaplace, &cfg, Seed::new(1))
            .unwrap()
            .with_parallelism(Parallelism::sequential());
        let par = seq.clone().with_parallelism(Parallelism::new(4));
        assert_eq!(par.parallelism().threads(), 4);
        assert_eq!(
            seq.sketch_batch(&xs, Seed::new(9)).unwrap(),
            par.sketch_batch(&xs, Seed::new(9)).unwrap()
        );
    }

    #[test]
    fn tiled_pairwise_is_bit_identical_to_reference() {
        let cfg = config(None);
        let sk = AnySketcher::new(Construction::SjltAuto, &cfg, Seed::new(8)).unwrap();
        for n in [0usize, 1, 2, 3, 5, 13] {
            let sketches = sk
                .sketch_batch(&rows(n, 48, n as u64), Seed::new(21))
                .unwrap();
            let reference = pairwise_sq_distances_reference(&sketches).unwrap();
            for threads in [1usize, 2, 5] {
                for tile in [1usize, 2, 3, 4, 7, 64] {
                    let tiled = pairwise_sq_distances_with_par(
                        &sketches,
                        |s| s,
                        &Parallelism::new(threads).with_tile(tile),
                    )
                    .unwrap();
                    assert_eq!(tiled.n(), reference.n());
                    for (a, b) in reference.as_flat().iter().zip(tiled.as_flat()) {
                        assert_eq!(
                            a.to_bits(),
                            b.to_bits(),
                            "n = {n}, threads = {threads}, tile = {tile}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn tiled_pairwise_uses_each_rows_own_debias_constant() {
        // check_compatible tolerates relative E[η²] differences up to
        // 1e-12; a hand-built batch exercising that tolerance must
        // still match the reference bit-for-bit, which requires the
        // kernel to debias with row i's own constant, not the first's.
        let m2 = 0.5;
        let m2_perturbed = m2 * (1.0 + 5e-13);
        let sketches = vec![
            NoisySketch::new(vec![1.0, 2.0, 3.0], "t", m2, 0.75),
            NoisySketch::new(vec![0.5, -1.0, 2.0], "t", m2_perturbed, 0.75),
            NoisySketch::new(vec![-2.0, 0.0, 1.5], "t", m2, 0.75),
        ];
        assert_ne!(m2.to_bits(), m2_perturbed.to_bits());
        let reference = pairwise_sq_distances_reference(&sketches).unwrap();
        for threads in [1usize, 4] {
            let tiled = pairwise_sq_distances_with_par(
                &sketches,
                |s| s,
                &Parallelism::new(threads).with_tile(2),
            )
            .unwrap();
            for (a, b) in reference.as_flat().iter().zip(tiled.as_flat()) {
                assert_eq!(a.to_bits(), b.to_bits(), "threads = {threads}");
            }
        }
    }

    #[test]
    fn pairwise_rejects_moment_spans_the_reference_rejects() {
        // Each perturbed moment passes the vs-first check, but the
        // extreme pair (1, 2) exceeds the per-pair tolerance, so the
        // reference rejects the batch — the tiled kernel's span check
        // must reject it too, never silently accept.
        let m2 = 0.5;
        let sketches = vec![
            NoisySketch::new(vec![1.0, 2.0], "t", m2, 0.75),
            NoisySketch::new(vec![0.5, 1.0], "t", m2 + 1.2e-12, 0.75),
            NoisySketch::new(vec![0.0, 1.5], "t", m2 - 1.2e-12, 0.75),
        ];
        assert!(matches!(
            pairwise_sq_distances_reference(&sketches),
            Err(CoreError::IncompatibleSketches(_))
        ));
        for threads in [1usize, 4] {
            assert!(
                matches!(
                    pairwise_sq_distances_with_par(&sketches, |s| s, &Parallelism::new(threads)),
                    Err(CoreError::IncompatibleSketches(_))
                ),
                "threads = {threads}"
            );
        }
    }

    #[test]
    fn pairwise_rejects_incompatible_batches_like_the_reference() {
        let cfg = config(None);
        let a = AnySketcher::new(Construction::SjltAuto, &cfg, Seed::new(1)).unwrap();
        let b = AnySketcher::new(Construction::SjltAuto, &cfg, Seed::new(2)).unwrap();
        let xs = rows(2, 48, 3);
        let mut sketches = a.sketch_batch(&xs, Seed::new(4)).unwrap();
        sketches.extend(b.sketch_batch(&xs, Seed::new(5)).unwrap());
        assert!(matches!(
            pairwise_sq_distances_reference(&sketches),
            Err(CoreError::IncompatibleSketches(_))
        ));
        assert!(matches!(
            pairwise_sq_distances(&sketches),
            Err(CoreError::IncompatibleSketches(_))
        ));
    }

    #[test]
    fn sliced_segments_are_the_kernel_segments_under_any_tile_side() {
        // A matrix built by one plan, read back tile by tile under
        // other plans (sides that do and do not divide n): every slice
        // is the segment the kernel fills for that tile, bit for bit.
        let n = 11;
        let data: Vec<Vec<f64>> = (0..n)
            .map(|i| (0..5).map(|j| ((i * 5 + j) % 7) as f64 - 3.25).collect())
            .collect();
        let debias: Vec<f64> = (0..n).map(|i| 0.125 * i as f64).collect();
        let par = Parallelism::sequential();
        let matrix = pairwise_sq_distances_rows(n, |i| data[i].as_slice(), &debias, &par);
        for side in [1, 3, 4, 11, 64] {
            let plan = TilePlan::new(n, side);
            let ids: Vec<u64> = (0..plan.tile_count() as u64).collect();
            let kernel = execute_tiles(&plan, &ids, |i| data[i].as_slice(), &debias, &par);
            let mut rebuilt = vec![0.0; n * n];
            for (segment, (_, tile)) in kernel.iter().zip(plan.tiles()) {
                let sliced = slice_tile_segment(&tile, matrix.as_flat(), n);
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&sliced), bits(&segment.values), "side {side}");
                scatter_tile_segment(&tile, &sliced, n, &mut rebuilt);
            }
            for (a, b) in rebuilt.iter().zip(matrix.as_flat()) {
                assert_eq!(a.to_bits(), b.to_bits(), "side {side}");
            }
        }
    }

    #[test]
    fn spec_build_with_sets_the_knob() {
        let spec = SketcherSpec::new(Construction::SjltAuto, config(None), Seed::new(6));
        let sk = spec.build_with(Parallelism::new(3).with_tile(16)).unwrap();
        assert_eq!(sk.parallelism().threads(), 3);
        assert_eq!(sk.parallelism().tile(), 16);
        // The knob never leaks into the serialized spec.
        assert_eq!(sk.spec().to_json(), spec.to_json());
    }

    #[test]
    fn note5_applies_uniformly_through_the_trait() {
        // Auto under pure DP → Laplace; auto under a generous δ → Gaussian.
        let pure = AnySketcher::new(Construction::SjltAuto, &config(None), Seed::new(1)).unwrap();
        assert_eq!(pure.noise_name(), "laplace");
        assert!(pure.guarantee().is_pure());
        let approx =
            AnySketcher::new(Construction::SjltAuto, &config(Some(1e-4)), Seed::new(1)).unwrap();
        assert_eq!(approx.noise_name(), "gaussian");
        assert!(!approx.guarantee().is_pure());
    }
}
