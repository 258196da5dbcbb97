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
//!   variants, the Kenthapadi et al. baseline in its three
//!   [`SigmaCalibration`]s, and the private Achlioptas projection.
//! * [`SketcherSpec`] — a serializable (construction, config, public
//!   transform seed) triple. Every party in the distributed protocol
//!   rebuilds the *identical* sketcher from the same spec, which is what
//!   makes releases interoperable; the JSON form travels on the wire.
//! * [`AnySketcher`] — the trait's canonical implementation and the one
//!   construction type: a [`GenSketcher`] over the construction's
//!   [`Projection`] and [`Noise`] (or, for the input-perturbed FJLT, its
//!   FJLT and input noise), calibrated in one function and built from a
//!   [`SketcherSpec`].
//! * [`execute_tiles`] — the one tile executor behind every all-pairs
//!   matrix. The all-pairs surface over released sketches is
//!   `dp_engine::QueryEngine`; [`pairwise_sq_distances_reference`] is the
//!   frozen per-pair loop every matrix is tested bit-identical against.
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
//! workers ([`sketch_batch_par`]), and every all-pairs matrix runs a
//! cache-blocked tile kernel ([`execute_tiles`]).
//! Results are **bit-identical** for every thread count and tile size:
//! per-row noise seeds derive from the row *index* (`noise_seed.index(row)`),
//! never from the executing worker, and each pair's estimate is computed
//! exactly once by one tile with the identical floating-point expression
//! the sequential reference uses.

use crate::config::SketchConfig;
use crate::error::CoreError;
use crate::estimator::{DistanceEstimate, NoisySketch};
use crate::framework::{GenSketcher, Noise, Projection};
use crate::json::{self, JsonValue};
use crate::kernel::{self, KernelId};
use crate::variance::{
    lemma3_variance, var_fjlt_input_bound, var_iid_gaussian, var_sjlt_gaussian, var_sjlt_laplace,
    var_transform_fjlt, var_transform_iid,
};
use dp_hashing::Seed;
use dp_linalg::SparseVector;
use dp_noise::mechanism::{GaussianMechanism, LaplaceMechanism, MechanismChoice, NoiseMechanism};
use dp_noise::PrivacyGuarantee;
use dp_parallel::{par_chunks_mut, par_map, Parallelism, Tile, TilePlan, TileSegment};
use dp_transforms::achlioptas::Achlioptas;
use dp_transforms::fjlt::Fjlt;
use dp_transforms::gaussian_iid::GaussianIid;
use dp_transforms::sjlt::Sjlt;
use dp_transforms::LinearTransform;
use std::sync::Arc;

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

/// Rows each worker must sketch before a batch splits across workers:
/// smaller batches stay on the calling thread, where a scoped spawn and
/// the wake of an idle core cost more than the rows they take over.
/// Read from `bench_sketch` on the 2-CPU host (d = 256, two workers):
/// at 4 rows per worker (its full run's batch = 8) sjlt-auto and
/// fjlt-output read 68.8 and 43.6 ns/element against 43.6 and 24.1 for
/// one row at a time; at 8 rows per worker (its `--quick` batch = 16)
/// every construction read at or below its one-row cost in two runs
/// (sjlt-auto 35.6/43.8 against 37.4/61.2 ns/element).
const SKETCH_ROWS_PER_WORKER: usize = 8;

/// Data-parallel batch release: rows are split into contiguous chunks
/// across up to `par.threads()` workers, each given at least
/// `SKETCH_ROWS_PER_WORKER` (8) rows, so a smaller batch runs on the
/// calling thread. Bit-identical to
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
    let workers = par.workers_for(xs.len(), SKETCH_ROWS_PER_WORKER);
    if workers == 1 {
        return sketch_batch_sequential(sketcher, xs, noise_seed);
    }
    let mut out: Vec<Option<NoisySketch>> = vec![None; xs.len()];
    par_chunks_mut(&mut out, workers, |offset, chunk| {
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

/// How to pick σ for the Kenthapadi et al. baseline's Gaussian noise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SigmaCalibration {
    /// Scan `∆₂(P)` exactly and apply Lemma 2 (sound; `O(dk)` init).
    ExactSensitivity,
    /// Kenthapadi Theorem 1: `σ = (4/ε)√(ln 1/δ)`, requires `ε < ln(1/δ)`.
    Theorem1,
    /// Assume `∆₂ = 1` (expectation). Unsound if the realized `∆₂ > 1`;
    /// for experimentation only.
    AssumedUnit,
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
/// construction + validated config + public transform seed. Its JSON
/// also names the [`KernelId`] every estimate over the spec's releases
/// runs under, `v1-scalar`, the only kernel there is: two replicas
/// agreeing on a spec agree on every matrix entry bit-for-bit, which is
/// what the coordinator's journal replay and the chaos suites assert,
/// and a spec naming any other kernel does not parse.
#[derive(Debug, Clone, PartialEq)]
pub struct SketcherSpec {
    construction: Construction,
    config: SketchConfig,
    transform_seed: u64,
}

impl SketcherSpec {
    /// Bundle a construction choice with shared public parameters.
    #[must_use]
    pub fn new(construction: Construction, config: SketchConfig, transform_seed: Seed) -> Self {
        Self {
            construction,
            config,
            transform_seed: transform_seed.value(),
        }
    }

    /// Pin the distance kernel. There is one, so this changes nothing;
    /// callers that name their kernel explicitly keep compiling.
    #[must_use]
    pub fn with_kernel(self, kernel: KernelId) -> Self {
        match kernel {
            KernelId::V1Scalar => self,
        }
    }

    /// The distance kernel every estimate over this spec's releases
    /// runs under.
    #[must_use]
    pub fn kernel(&self) -> KernelId {
        KernelId::V1Scalar
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

    /// The identity every release of this spec's sketcher carries,
    /// derived from the spec alone: no transform is built, and nothing
    /// is allocated but the tag. [`AnySketcher::new`] takes its tag and
    /// these refusals from here, so a store adopting the spec and a
    /// party building it agree on both.
    ///
    /// # Errors
    /// [`CoreError::MissingField`] (`delta`) for `sjlt-gaussian`, both
    /// FJLT variants and every Kenthapadi calibration under a config
    /// without δ; [`CoreError::CalibrationPrecondition`] when Theorem 1's
    /// `ε < ln(1/δ)` fails; [`CoreError::Transform`] when the SJLT
    /// shape is out of range (`k > 2³¹`); [`CoreError::Noise`] when a
    /// noise scale that needs no realized transform is invalid (every
    /// construction's but Achlioptas', `kenthapadi-exact`'s and
    /// `fjlt-output`'s; an ε so small that the scale overflows).
    pub fn identity(&self) -> Result<SpecIdentity, CoreError> {
        identity_of(self.construction, &self.config, self.transform_seed())
    }

    /// Rebuild the sketcher this spec describes. Deterministic: every
    /// party calling this with an equal spec obtains an interoperable
    /// sketcher (identical transform, identical calibration).
    ///
    /// # Errors
    /// The refusals of [`SketcherSpec::identity`], then construction
    /// failures of the transform or the noise.
    pub fn build(&self) -> Result<AnySketcher, CoreError> {
        AnySketcher::new(self.construction, &self.config, self.transform_seed())
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
                JsonValue::String(self.kernel().name().to_string()),
            ),
        ])
        .to_string()
    }

    /// Parse the JSON wire format, re-validating the config.
    ///
    /// # Errors
    /// [`CoreError::Wire`] on malformed input;
    /// [`CoreError::UnknownKernel`] when the `kernel` field names any
    /// kernel but `v1-scalar` (the retired `v2-simd` included); config
    /// validation errors on out-of-range parameters.
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
        // they were minted by the V1-only codebase, so V1 it is. Any
        // other name is refused: its releases were estimated under
        // other bits.
        if let Some(k) = v.get("kernel") {
            KernelId::parse(k.as_str().ok_or_else(|| missing("kernel"))?)?;
        }
        Ok(Self {
            construction,
            config: builder.build()?,
            transform_seed,
        })
    }
}

/// A spec's release identity, from [`SketcherSpec::identity`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecIdentity {
    /// The transform tag, byte for byte as every release carries it.
    pub tag: String,
    /// The sketch dimension `k`.
    pub k: usize,
    /// The noise family, `"laplace"` or `"gaussian"` (the one the SJLT
    /// and Achlioptas tags name).
    pub noise: &'static str,
}

/// [`SketcherSpec::identity`] over its parts, for
/// [`AnySketcher::new`].
pub(crate) fn identity_of(
    construction: Construction,
    config: &SketchConfig,
    transform_seed: Seed,
) -> Result<SpecIdentity, CoreError> {
    use Construction as C;
    let delta = config.delta();
    if delta.is_none() && !matches!(construction, C::SjltAuto | C::SjltLaplace | C::Achlioptas) {
        return Err(CoreError::MissingField("delta"));
    }
    if let (C::Kenthapadi(SigmaCalibration::Theorem1), Some(delta)) = (construction, delta) {
        let (eps, bound) = (config.epsilon(), (1.0 / delta).ln());
        if eps >= bound {
            return Err(CoreError::CalibrationPrecondition(format!(
                "Theorem 1 needs eps < ln(1/delta): eps = {eps}, ln(1/delta) = {bound}"
            )));
        }
    }
    let noise = if laplace_noise(construction, config) {
        "laplace"
    } else {
        "gaussian"
    };
    let (k, seed) = (config.k(), transform_seed.value());
    let (tag, k) = match construction {
        C::SjltAuto | C::SjltLaplace | C::SjltGaussian => {
            let (k, s) = (config.k_sjlt(), config.s());
            Sjlt::check_shape(config.input_dim(), k, s)?;
            (format!("sjlt(k={k},s={s},seed={seed},noise={noise})"), k)
        }
        C::FjltOutput => (format!("fjlt-out(k={k},seed={seed})"), k),
        C::FjltInput => (format!("fjlt-in(k={k},seed={seed})"), k),
        C::Kenthapadi(cal) => (format!("kenthapadi(k={k},seed={seed},cal={cal:?})"), k),
        C::Achlioptas => (format!("achlioptas(k={k},seed={seed},noise={noise})"), k),
    };
    // The scales that need no realized transform are refused here, so
    // a store never adopts a spec no party can build.
    noise_of(construction, config, None)?;
    Ok(SpecIdentity { tag, k, noise })
}

/// Whether the construction's noise is Laplace rather than Gaussian:
/// forced for `sjlt-laplace`, the Note 5 choice for `sjlt-auto`, and
/// the pure-ε budget's for Achlioptas (no δ).
fn laplace_noise(construction: Construction, config: &SketchConfig) -> bool {
    match construction {
        Construction::SjltLaplace => true,
        Construction::SjltAuto => config.sjlt_noise_choice() == MechanismChoice::Laplace,
        Construction::Achlioptas => config.delta().is_none(),
        _ => false,
    }
}

/// The calibrated noise of a construction: the one place a noise scale
/// is set. `realized` is the built projection; without it, the three
/// constructions whose scale follows its realized sensitivity
/// (Achlioptas, `kenthapadi-exact`, `fjlt-output`) answer `None`, and
/// the other six are calibrated in full, so [`identity_of`] refuses
/// their invalid scales with no transform built.
fn noise_of(
    construction: Construction,
    config: &SketchConfig,
    realized: Option<&Projection>,
) -> Result<Option<Noise>, CoreError> {
    use Construction as C;
    let eps = config.epsilon();
    // Every Gaussian calibration has δ: `identity_of` refused the
    // δ-less specs, and Achlioptas and Note 5 pick Laplace without one.
    let delta = || config.delta().expect("a Gaussian calibration has δ");
    let laplace = |l1: f64| Ok(Noise::Laplace(LaplaceMechanism::new(l1, eps)?));
    let gaussian = |l2: f64| Ok(Noise::Gaussian(GaussianMechanism::new(l2, eps, delta())?));
    let pure = laplace_noise(construction, config);
    let noise: Result<Noise, CoreError> = match (construction, realized) {
        // Theorem 3: the SJLT's sensitivities are a priori, `∆₁ = √s`
        // and `∆₂ = 1`, so no initialization scan. Laplace(√s/ε) is
        // pure ε-DP; Gaussian(√(2 ln(1.25/δ))/ε) is (ε, δ)-DP, the
        // Kenthapadi noise level at the sparse transform's speed
        // (§6.2.3). Note 5 picks Laplace iff `δ < e^{−s}`.
        (C::SjltAuto | C::SjltLaplace, _) if pure => laplace((config.s() as f64).sqrt()),
        (C::SjltAuto | C::SjltGaussian, _) => gaussian(1.0),
        // Lemma 8: noise on the input, whose sensitivity is exactly 1
        // (the identity query), so no scan either. The assumed-unit
        // Kenthapadi calibration takes the same σ as if its `∆₂` were 1,
        // its expectation. Not DP in general: kept so E10 can measure
        // how often the assumption fails.
        (C::FjltInput | C::Kenthapadi(SigmaCalibration::AssumedUnit), _) => gaussian(1.0),
        // Kenthapadi Theorem 1: `σ = (4/ε)·√(ln(1/δ))`, valid only when
        // `ε < ln(1/δ)` (refused by `identity_of`) and when the
        // high-probability bound `∆₂ ≤ 2` holds: the δ hides that
        // bound's failure probability, the weakness §2.1.1 criticizes.
        (C::Kenthapadi(SigmaCalibration::Theorem1), _) => Ok(Noise::Gaussian(
            GaussianMechanism::with_sigma(4.0 / eps * (1.0 / delta()).ln().sqrt(), eps, delta())?,
        )),
        (_, None) => return Ok(None),
        // The realized sensitivities, exact from the built transform:
        // Achlioptas reads its stored sparse columns (no extra scan) and
        // takes Laplace(∆₁/ε) under a pure budget; `kenthapadi-exact`
        // (Note 1's fix) and `fjlt-output` (Note 6) pay an `O(dk)`-class
        // scan of `∆₂` for Gaussian(∆₂·√(2 ln(1.25/δ))/ε).
        (_, Some(t)) if pure => laplace(t.l1_sensitivity()),
        (_, Some(t)) => gaussian(t.l2_sensitivity()),
    };
    noise.map(Some)
}

/// Build a construction's transform and noise from shared public
/// parameters, after the refusals of its identity.
fn calibrate(
    construction: Construction,
    config: &SketchConfig,
    transform_seed: Seed,
) -> Result<(SpecIdentity, Perturbation), CoreError> {
    use Construction as C;
    let identity = identity_of(construction, config, transform_seed)?;
    let (d, k, jl) = (config.input_dim(), config.k(), config.jl());
    let projection = match construction {
        C::SjltAuto | C::SjltLaplace | C::SjltGaussian => {
            Projection::Sjlt(Sjlt::from_params(d, jl, transform_seed)?)
        }
        C::Achlioptas => Projection::Achlioptas(Achlioptas::new(d, k, transform_seed)?),
        C::Kenthapadi(_) => Projection::GaussianIid(GaussianIid::new(d, k, transform_seed)?),
        C::FjltOutput | C::FjltInput => Projection::Fjlt(Fjlt::new(d, k, jl, transform_seed)?),
    };
    let noise = noise_of(construction, config, Some(&projection))?
        .expect("a realized projection calibrates every noise");
    let tag: Arc<str> = identity.tag.as_str().into();
    let perturbation = match (construction, projection, noise) {
        (C::FjltInput, Projection::Fjlt(transform), Noise::Gaussian(mechanism)) => {
            Perturbation::Input {
                transform,
                mechanism,
                tag,
            }
        }
        (_, projection, noise) => Perturbation::Output(GenSketcher::new(projection, noise, tag)),
    };
    Ok((identity, perturbation))
}

/// The trait's canonical implementation and the one construction type:
/// any of the paper's constructions, rebuilt from a [`SketcherSpec`].
#[derive(Debug, Clone)]
pub struct AnySketcher {
    spec: SketcherSpec,
    identity: SpecIdentity,
    perturbation: Perturbation,
    par: Parallelism,
}

/// Where a construction adds its noise.
#[derive(Debug, Clone)]
enum Perturbation {
    /// Lemmas 3–4: the public projection, then calibrated output noise.
    Output(GenSketcher<Projection, Noise>),
    /// Lemma 8: Gaussian noise at input-space `∆₂ = 1`, then the FJLT.
    Input {
        transform: Fjlt,
        mechanism: GaussianMechanism,
        tag: Arc<str>,
    },
}

impl AnySketcher {
    /// Build a construction from shared public parameters.
    ///
    /// # Errors
    /// The refusals of [`SketcherSpec::identity`], then transform and
    /// noise construction failures.
    pub fn new(
        construction: Construction,
        config: &SketchConfig,
        transform_seed: Seed,
    ) -> Result<Self, CoreError> {
        let (identity, perturbation) = calibrate(construction, config, transform_seed)?;
        Ok(Self {
            spec: SketcherSpec::new(construction, config.clone(), transform_seed),
            identity,
            perturbation,
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

    /// Short name of the noise family in effect.
    #[must_use]
    pub fn noise_name(&self) -> &'static str {
        self.identity.noise
    }

    /// The general Lemma 3/4 sketcher of an output-perturbed
    /// construction: its public projection and calibrated noise. `None`
    /// for the input-perturbed FJLT, whose noise precedes its projection.
    #[must_use]
    pub fn general(&self) -> Option<&GenSketcher<Projection, Noise>> {
        match &self.perturbation {
            Perturbation::Output(general) => Some(general),
            Perturbation::Input { .. } => None,
        }
    }

    /// Whether the realized transform's ℓ₂-sensitivity is covered by
    /// the calibrated σ: the §2.1.1 criticism made measurable. False
    /// only for a Kenthapadi Theorem 1 calibration whose realized `∆₂`
    /// exceeds the bound of 2 its σ was built for, or an assumed-unit
    /// one whose `∆₂` exceeds 1; every other construction calibrates to
    /// its exact or a-priori sensitivity.
    #[must_use]
    pub fn calibration_is_sound(&self) -> bool {
        let general = self.general().map(|g| (g.transform(), g.mechanism()));
        match (self.spec.construction(), general) {
            (
                Construction::Kenthapadi(
                    SigmaCalibration::Theorem1 | SigmaCalibration::AssumedUnit,
                ),
                Some((transform, Noise::Gaussian(mechanism))),
            ) => {
                let cfg = self.spec.config();
                let delta = cfg.delta().expect("the identity requires δ");
                let needed = transform.l2_sensitivity() / cfg.epsilon()
                    * (2.0 * (1.25f64 / delta).ln()).sqrt();
                mechanism.sigma() >= needed
            }
            _ => true,
        }
    }

    /// Noiseless projection `S·x`: the exact values this sketcher's
    /// [`PrivateSketcher::sketch`] adds noise to. External accumulators
    /// (and the bit-identity suites) pair it with
    /// [`PrivateSketcher::finalize_projection`] to reproduce a release.
    ///
    /// # Errors
    /// [`CoreError::Transform`] on dimension mismatch;
    /// [`CoreError::Unsupported`] for the input-perturbed FJLT, whose
    /// noise precedes the projection.
    pub fn project(&self, x: &[f64]) -> Result<Vec<f64>, CoreError> {
        let general = self.general().ok_or(CoreError::Unsupported(
            "input-perturbed FJLT adds noise before the projection; \
             it has no noiseless projection to expose",
        ))?;
        Ok(general.transform().apply(x)?)
    }

    /// Sketch batch rows `offset..offset + slots.len()` through the
    /// projection's batch apply in fixed-size blocks, filling `slots`.
    /// Per-row results are independent of block and chunk boundaries
    /// (the batch apply is bit-frozen to the per-row loop), so every
    /// thread count and chunking yields one bit pattern.
    fn sketch_chunk_kernel(
        &self,
        general: &GenSketcher<Projection, Noise>,
        xs: &[Vec<f64>],
        offset: usize,
        slots: &mut [Option<NoisySketch>],
        noise_seed: Seed,
    ) -> Result<(), CoreError> {
        const BLOCK: usize = 8;
        let k = self.k();
        let mut scratch = vec![0.0f64; BLOCK * k];
        let mut start = 0;
        while start < slots.len() {
            let len = BLOCK.min(slots.len() - start);
            let rows: Vec<&[f64]> = xs[offset + start..offset + start + len]
                .iter()
                .map(Vec::as_slice)
                .collect();
            let buf = &mut scratch[..len * k];
            general.transform().apply_batch_into(&rows, buf)?;
            for (i, slot) in slots[start..start + len].iter_mut().enumerate() {
                let row = offset + start + i;
                let projection = buf[i * k..(i + 1) * k].to_vec();
                *slot = Some(general.finalize(projection, noise_seed.index(row as u64))?);
            }
            start += len;
        }
        Ok(())
    }
}

impl PrivateSketcher for AnySketcher {
    fn sketch(&self, x: &[f64], noise_seed: Seed) -> Result<NoisySketch, CoreError> {
        match &self.perturbation {
            Perturbation::Output(general) => general.sketch(x, noise_seed),
            Perturbation::Input {
                transform,
                mechanism,
                tag,
            } => {
                // Φ′(x + η), η ~ N(0, σ²)^d.
                let mut noisy_input = x.to_vec();
                let mut rng = noise_seed.child("fjlt-input-noise").rng();
                for v in noisy_input.iter_mut() {
                    *v += mechanism.sample(&mut rng);
                }
                let values = transform.apply(&noisy_input)?;
                // With the LPP-normalized Φ′, E‖Φ′(x+η) − Φ′(y+µ)‖² =
                // ‖x−y‖² + 2dσ², so the release records the effective
                // per-coordinate moment dσ²/k: the generic debias
                // 2k·E[η²] then subtracts exactly 2dσ². Fourth moment: a
                // Gaussian of the same effective scale (used only for
                // prediction displays).
                let sigma = mechanism.sigma();
                let m2_eff =
                    transform.input_dim() as f64 * sigma * sigma / transform.output_dim() as f64;
                Ok(NoisySketch::new(
                    values,
                    Arc::clone(tag),
                    m2_eff,
                    3.0 * m2_eff * m2_eff,
                ))
            }
        }
    }

    fn sketch_sparse(&self, x: &SparseVector, noise_seed: Seed) -> Result<NoisySketch, CoreError> {
        match &self.perturbation {
            // The SJLT and Achlioptas take their `O(s·‖x‖₀ + k)`-class
            // sparse paths; the dense transforms densify.
            Perturbation::Output(general) => general.sketch_sparse(x, noise_seed),
            Perturbation::Input { .. } => self.sketch(&x.to_dense(), noise_seed),
        }
    }

    fn input_dim(&self) -> usize {
        self.spec.config().input_dim()
    }

    fn k(&self) -> usize {
        self.identity.k
    }

    fn tag(&self) -> &str {
        &self.identity.tag
    }

    /// The guarantee of the calibrated mechanism; for the input-perturbed
    /// FJLT, `(ε, δ)` of the Gaussian mechanism on the identity query,
    /// inherited through post-processing by Φ. For a Kenthapadi Theorem 1
    /// or assumed-unit calibration it holds only when
    /// [`AnySketcher::calibration_is_sound`].
    fn guarantee(&self) -> PrivacyGuarantee {
        match &self.perturbation {
            Perturbation::Output(general) => general.guarantee(),
            Perturbation::Input { mechanism, .. } => mechanism.guarantee(),
        }
    }

    fn debias_constant(&self) -> f64 {
        match &self.perturbation {
            Perturbation::Output(general) => general.debias_constant(),
            // The effective moment's 2k·(dσ²/k) = 2dσ².
            Perturbation::Input {
                transform,
                mechanism,
                ..
            } => 2.0 * transform.input_dim() as f64 * mechanism.sigma() * mechanism.sigma(),
        }
    }

    fn predicted_variance(&self, dist_sq: f64) -> DistanceEstimate {
        use Construction as C;
        let (k, cfg) = (self.k(), self.spec.config());
        let eps = cfg.epsilon();
        let general = match &self.perturbation {
            Perturbation::Output(general) => general,
            // Lemma 8's bound: the input noise costs factors of d
            // (`O(dσ²‖z‖² + d²σ⁴/k)`, the §7 trade-off).
            Perturbation::Input {
                transform,
                mechanism,
                ..
            } => {
                return DistanceEstimate {
                    estimate: dist_sq,
                    predicted_variance: var_fjlt_input_bound(
                        k,
                        transform.input_dim(),
                        transform.q(),
                        mechanism.sigma(),
                        dist_sq,
                    ),
                }
            }
        };
        let predicted_variance = match (self.spec.construction(), general.mechanism()) {
            // Theorem 3's bound under each Note 5 noise, conservative: it
            // drops the `−‖z‖₄⁴` sharpening.
            (C::SjltAuto | C::SjltLaplace | C::SjltGaussian, Noise::Laplace(_)) => {
                var_sjlt_laplace(k, cfg.s(), eps, dist_sq, 0.0)
            }
            (C::SjltAuto | C::SjltLaplace | C::SjltGaussian, Noise::Gaussian(_)) => {
                let delta = cfg.delta().expect("gaussian variant has delta");
                var_sjlt_gaussian(k, eps, delta, dist_sq, 0.0)
            }
            // Kenthapadi Theorem 2, exact: `(2/k)‖z‖⁴ + 8σ²‖z‖² + 8σ⁴k`.
            (C::Kenthapadi(_), Noise::Gaussian(m)) => var_iid_gaussian(k, m.sigma(), dist_sq),
            // Corollary 1's bound: `(3/k)‖z‖⁴ + 8σ²‖z‖² + 8σ⁴k` (Lemma 3
            // with the FJLT term).
            (C::FjltOutput, Noise::Gaussian(m)) => {
                let s2 = m.sigma() * m.sigma();
                lemma3_variance(
                    k,
                    dist_sq,
                    var_transform_fjlt(k, dist_sq),
                    s2,
                    3.0 * s2 * s2,
                )
            }
            // Achlioptas entries are `√(3/k)·{±1 w.p. 1/6 each, 0 w.p.
            // 2/3}`: `E[S²ᵢⱼ] = 1/k` (LPP) and `E[S⁴ᵢⱼ] = 3/k²`, the i.i.d.
            // Gaussian's moments, so its transform term is exact, as are
            // the noise moments.
            _ => {
                general
                    .predicted_variance(dist_sq, var_transform_iid(k, dist_sq))
                    .predicted_variance
            }
        };
        DistanceEstimate {
            estimate: dist_sq,
            predicted_variance,
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
        match &self.perturbation {
            Perturbation::Output(general) => general.finalize(projection, noise_seed),
            Perturbation::Input { .. } => Err(CoreError::Unsupported(
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
        let Some(general) = self.general() else {
            // The input-perturbed FJLT noises each row before projecting
            // it; the per-row data-parallel path is its batch form.
            return sketch_batch_par(self, xs, noise_seed, &self.par);
        };
        // Batched projection: rows chunked across workers (a batch of
        // fewer than two workers' minimum stays on the calling thread),
        // each chunk projected block-at-a-time through the transform's
        // batch apply (the per-row loop for the FJLT) and finalized with
        // the unchanged per-row noise seed `noise_seed.index(row)` —
        // bit-identical to the per-row path for every thread count and
        // batch size.
        let mut out: Vec<Option<NoisySketch>> = vec![None; xs.len()];
        let workers = self.par.workers_for(xs.len(), SKETCH_ROWS_PER_WORKER);
        par_chunks_mut(&mut out, workers, |offset, chunk| {
            self.sketch_chunk_kernel(general, xs, offset, chunk, noise_seed)
        })?;
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

/// The raw tiled kernel over row slices: pair `(i, j)`, `i < j`, is
/// `Σ (row_i − row_j)² − debias[i]`, written symmetrically into a flat
/// row-major matrix with a zero diagonal. The `dp-engine` subset
/// recompute runs it (its store validates compatibility at ingest), and
/// it is bit-identical to [`pairwise_sq_distances_reference`] because
/// the inner expression is exactly the per-pair estimator's. Row `i`
/// is debiased with its own constant, so a batch whose noise moments
/// differ within the compatibility tolerance still matches the
/// reference bit for bit.
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
/// pair estimates into `out` in row-major order. It is the estimator's
/// only tiled implementation, which keeps every matrix, local or
/// gathered, bit-identical.
///
/// The tile's column slices are interleaved once
/// ([`kernel::interleave_columns`]) into ⌈cols / 8⌉ groups of
/// [`kernel::GROUP_WIDTH`] = 8, the last one zero-padded. Each group
/// then runs [`kernel::sq_distance_group`] against every row `i` that
/// has a column `j > i` in it, and only the lanes with
/// `i < j < col_end` are kept. Each lane is exactly
/// [`kernel::v1_scalar`] of its pair, minus `debias[i]`, so blocking
/// changes no bit (guarded by the bit-identity suites). A pair whose
/// slices differ in length from the tile's first column takes the
/// per-pair call, which keeps zip truncation. Every all-pairs tile
/// runs this loop: the cold matrix, a grown memo's frontier, a
/// worker's `ExecuteTilesStream` shard and a subset recompute.
fn fill_tile_segment<'a, R>(tile: &Tile, row_values: &R, debias: &[f64], out: &mut [f64])
where
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
            let raw = (a.len() == k).then(|| kernel::sq_distance_group(a, group));
            for j in first.max(base)..end {
                let col = cols[j - tile.col_start];
                let sum = match raw {
                    Some(lanes) if col.len() == k => lanes[j - base],
                    _ => kernel::v1_scalar(a, col),
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
/// all-pairs executor: the engine's fills run it in process, and a
/// worker server runs it over its own store and ships the segments
/// back keyed by tile id, so every matrix is bit-identical however its
/// tiles were distributed.
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
    par_map(ids, par.threads(), |_, &tile_id| {
        let tile = plan
            .tile_at(usize::try_from(tile_id).expect("id fits usize"))
            .expect("tile id validated against the plan");
        let mut values = vec![0.0f64; tile.pair_count()];
        fill_tile_segment(&tile, &row_values, debias, &mut values);
        TileSegment { tile_id, values }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::variance::var_transform_sjlt;
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

    /// The kernel field: written as `v1-scalar`, read back when absent
    /// (pre-versioning specs were V1), and any other name — the retired
    /// `v2-simd` first — refused with the typed error naming it.
    #[test]
    fn spec_json_names_the_one_kernel_and_refuses_any_other() {
        let spec = SketcherSpec::new(Construction::SjltAuto, config(None), Seed::new(42));
        let text = spec.to_json();
        assert!(text.ends_with(r#","kernel":"v1-scalar"}"#), "{text}");
        let unversioned = text.replace(r#","kernel":"v1-scalar""#, "");
        assert_eq!(SketcherSpec::from_json(&unversioned).unwrap(), spec);
        for name in ["v2-simd", "simd", "v3"] {
            let stamped = text.replace("v1-scalar", name);
            assert_eq!(
                SketcherSpec::from_json(&stamped),
                Err(CoreError::UnknownKernel(name.to_string()))
            );
        }
        let numeric = text.replace(r#""v1-scalar""#, "1");
        assert!(matches!(
            SketcherSpec::from_json(&numeric),
            Err(CoreError::Wire(_))
        ));
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
            let m = pairwise_sq_distances_reference(&sketches).unwrap();
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
        // The noiseless projection, finalized, must equal a direct
        // sketch under the same noise seed.
        let projection = sk.project(&x).unwrap();
        let via_finalize = sk.finalize_projection(projection, Seed::new(9)).unwrap();
        let direct = sk.sketch(&x, Seed::new(9)).unwrap();
        assert_eq!(via_finalize, direct);
        // The projection is the SJLT's own apply, bit-for-bit.
        let Some(Projection::Sjlt(sjlt)) = sk.general().map(GenSketcher::transform) else {
            panic!("an SJLT construction projects through its SJLT");
        };
        for (a, b) in sk.project(&x).unwrap().iter().zip(&sjlt.apply(&x).unwrap()) {
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
    fn batch_and_per_row_sketches_bit_identical() {
        let cfg = config(Some(1e-6));
        for construction in Construction::all() {
            let sk = SketcherSpec::new(construction, cfg.clone(), Seed::new(3))
                .build()
                .unwrap();
            // Ragged batch sizes around the internal block: empty,
            // single, and non-multiples of the block width.
            for n in [0usize, 1, 7, 9] {
                let xs = rows(n, 48, 21);
                let batch = sk.sketch_batch(&xs, Seed::new(5)).unwrap();
                for (i, x) in xs.iter().enumerate() {
                    let single = sk.sketch(x, Seed::new(5).index(i as u64)).unwrap();
                    assert_eq!(batch[i], single, "{construction:?} n={n} row {i}");
                }
            }
        }
    }

    #[test]
    fn parallel_sketch_batch_is_bit_identical_to_sequential() {
        let cfg = config(Some(1e-6));
        for construction in Construction::all() {
            let sk = AnySketcher::new(construction, &cfg, Seed::new(3)).unwrap();
            // 7 rows stay on the calling thread; 37 split into ragged
            // chunks across up to four workers.
            for n in [7, 37] {
                let xs = rows(n, 48, 11);
                let reference = sketch_batch_sequential(&sk, &xs, Seed::new(5)).unwrap();
                for threads in [1usize, 2, 3, 8] {
                    let par = sketch_batch_par(&sk, &xs, Seed::new(5), &Parallelism::new(threads))
                        .unwrap();
                    assert_eq!(par.len(), reference.len());
                    for (a, b) in reference.iter().zip(&par) {
                        assert_eq!(a, b, "{construction:?}, {n} rows, threads = {threads}");
                        for (x, y) in a.values().iter().zip(b.values()) {
                            assert_eq!(x.to_bits(), y.to_bits());
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn trait_batch_routes_through_the_knob() {
        let cfg = config(None);
        let xs = rows(20, 48, 2);
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
    /// Every construction by its wire name, each Kenthapadi
    /// calibration included.
    fn every_construction() -> impl Iterator<Item = Construction> {
        [
            "sjlt-auto",
            "sjlt-laplace",
            "sjlt-gaussian",
            "fjlt-output",
            "fjlt-input",
            "kenthapadi-exact",
            "kenthapadi-theorem1",
            "kenthapadi-assumed-unit",
            "achlioptas",
        ]
        .into_iter()
        .map(|name| Construction::from_name(name).unwrap())
    }

    /// Monte-Carlo over 1,500 transform and noise seeds, under every
    /// budget the identity allows (pure ε and δ = 1e-6): each
    /// construction's estimator is unbiased at a sparse and at a spread
    /// difference, and its empirical variance at the spread one stays
    /// within its own prediction (averaged over the seeds, as the
    /// exact-sensitivity calibrations' σ varies with the transform):
    /// at most 1.2× the SJLT's Theorem 3 bound and Achlioptas's exact
    /// moments, 1.3× the FJLTs' bounds, and within 35% of Kenthapadi's
    /// exact Theorem 2 either way.
    #[test]
    fn every_construction_is_unbiased_within_its_predicted_variance() {
        use Construction as C;
        let x = vec![0.5; 48];
        let spread = vec![0.0; 48]; // ‖x − spread‖² = 12
        let mut sparse = x.clone();
        sparse[0] += 2.0;
        sparse[7] -= 1.0; // ‖x − sparse‖² = 5
        let z: Vec<f64> = x.iter().zip(&spread).map(|(a, b)| a - b).collect();
        // The SJLT names share releases (one tag per noise family).
        let mut tags = std::collections::HashSet::new();
        for construction in every_construction() {
            let (floor, ceiling) = match construction {
                C::SjltAuto | C::SjltLaplace | C::SjltGaussian | C::Achlioptas => (0.0, 1.2),
                C::FjltOutput | C::FjltInput => (0.0, 1.3),
                C::Kenthapadi(_) => (0.65, 1.35),
            };
            for cfg in [config(None), config(Some(1e-6))] {
                let Ok(identity) = identity_of(construction, &cfg, Seed::new(0)) else {
                    continue;
                };
                if !tags.insert(identity.tag) {
                    continue;
                }
                let budget = cfg.delta();
                let (mut near, mut far) = (Summary::new(), Summary::new());
                let mut predicted = Summary::new();
                for rep in 0..1500u64 {
                    let sk = AnySketcher::new(construction, &cfg, Seed::new(rep)).unwrap();
                    let a = sk.sketch(&x, Seed::new(10_000 + rep)).unwrap();
                    let b = sk.sketch(&sparse, Seed::new(20_000 + rep)).unwrap();
                    let c = sk.sketch(&spread, Seed::new(30_000 + rep)).unwrap();
                    near.push(sk.estimate_sq_distance(&a, &b).unwrap());
                    far.push(sk.estimate_sq_distance(&a, &c).unwrap());
                    predicted.push(sk.predicted_variance(12.0).predicted_variance);
                }
                for (stats, truth) in [(&near, 5.0), (&far, 12.0)] {
                    let bias = (stats.mean() - truth).abs() / stats.stderr();
                    assert!(bias < 4.0, "{construction:?}, δ {budget:?}: bias z {bias}");
                }
                let ratio = far.variance() / predicted.mean();
                assert!(
                    floor < ratio && ratio <= ceiling,
                    "{construction:?}, δ {budget:?}: variance ratio {ratio}"
                );
                // The SJLT's exact Lemma 3 form, with the `‖z‖₄⁴`
                // sharpening, sits below the bound it predicts.
                let sk = AnySketcher::new(construction, &cfg, Seed::new(0)).unwrap();
                if let Some(Projection::Sjlt(_)) = sk.general().map(GenSketcher::transform) {
                    let (k, l4) = (sk.k(), dp_linalg::vector::l4_norm(&z));
                    let exact = sk
                        .general()
                        .unwrap()
                        .predicted_variance(12.0, var_transform_sjlt(k, 12.0, l4))
                        .predicted_variance;
                    let bound = sk.predicted_variance(12.0).predicted_variance;
                    assert!(exact <= bound * (1.0 + 1e-9), "{construction:?}");
                }
            }
        }
    }

    /// The noise each construction calibrates: Lemma 2's σ at the
    /// scanned `∆₂` for the exact calibrations, Theorem 1's more
    /// conservative σ, and the §2.1.1 soundness flag read off the
    /// realized transform.
    #[test]
    fn calibrations_set_sigma_and_soundness_from_the_realized_transform() {
        let cfg = config(Some(1e-6));
        let lemma2 = (2.0 * (1.25f64 / 1e-6).ln()).sqrt() / cfg.epsilon();
        let sigma_and_delta2 = |construction| {
            let sk = AnySketcher::new(construction, &cfg, Seed::new(7)).unwrap();
            let general = sk.general().unwrap();
            let Noise::Gaussian(m) = general.mechanism() else {
                panic!("{construction:?} calibrates Gaussian noise");
            };
            (m.sigma(), general.transform().l2_sensitivity(), sk)
        };
        for construction in [
            Construction::Kenthapadi(SigmaCalibration::ExactSensitivity),
            Construction::FjltOutput,
        ] {
            let (sigma, delta2, sk) = sigma_and_delta2(construction);
            assert!((sigma - delta2 * lemma2).abs() < 1e-12, "{construction:?}");
            assert!(
                delta2 > 0.5 && delta2 < 2.5,
                "{construction:?}: ∆₂ {delta2}"
            );
            assert!(sk.calibration_is_sound());
        }
        let exact =
            sigma_and_delta2(Construction::Kenthapadi(SigmaCalibration::ExactSensitivity)).0;
        let (theorem1, delta2, sk) =
            sigma_and_delta2(Construction::Kenthapadi(SigmaCalibration::Theorem1));
        assert!(theorem1 > exact);
        assert!(sk.calibration_is_sound(), "∆₂ = {delta2} is well under 2");
        let (unit, delta2, sk) =
            sigma_and_delta2(Construction::Kenthapadi(SigmaCalibration::AssumedUnit));
        assert_eq!(unit.to_bits(), lemma2.to_bits());
        assert_eq!(sk.calibration_is_sound(), unit >= delta2 * lemma2);
        for construction in every_construction() {
            let sk = AnySketcher::new(construction, &cfg, Seed::new(7)).unwrap();
            if !matches!(construction, Construction::Kenthapadi(_)) {
                assert!(sk.calibration_is_sound(), "{construction:?}");
            }
            let pure = sk.noise_name() == "laplace";
            assert_eq!(sk.guarantee().is_pure(), pure, "{construction:?}");
            assert_eq!(sk.guarantee().delta() == 1e-6, !pure, "{construction:?}");
        }
    }

    #[test]
    fn sparse_fast_paths_release_the_dense_bits() {
        let mut x = vec![0.0; 48];
        x[7] = 2.0;
        x[40] = -1.0;
        let sv = SparseVector::from_dense(&x);
        for construction in every_construction() {
            let sk = AnySketcher::new(construction, &config(Some(1e-6)), Seed::new(3)).unwrap();
            let dense = sk.sketch(&x, Seed::new(5)).unwrap();
            assert_eq!(dense, sk.sketch_sparse(&sv, Seed::new(5)).unwrap());
        }
    }

    /// §7: the input-perturbed FJLT's noise variance scales with `d`,
    /// unlike the output-perturbed constructions'.
    #[test]
    fn fjlt_input_variance_grows_with_d() {
        let predicted = |d: usize| {
            let cfg = SketchConfig::builder()
                .input_dim(d)
                .epsilon(1.0)
                .delta(1e-6)
                .build()
                .unwrap();
            let sk = AnySketcher::new(Construction::FjltInput, &cfg, Seed::new(1)).unwrap();
            sk.predicted_variance(1.0).predicted_variance
        };
        assert!(predicted(4096) > predicted(64) * 10.0);
    }
}
