//! # mcfuser-core — the MCFuser framework
//!
//! The paper's primary contribution, reproduced end to end:
//!
//! * [`space`] — comprehensive search-space generation from tiling
//!   expressions (§III-A), and the lazy index-addressed
//!   [`CandidateSpace`] the tuner explores — no candidate `Vec`, no
//!   materialization cap, every pruning survivor reachable by index;
//!   spaces are content-addressed and shared across same-shaped chains
//!   through the engine-level [`SpaceCache`];
//! * [`prune`](mod@prune) — pruning Rules 1–4 with the Fig. 7 waterfall (§III-C);
//!   Rule 4 becomes the space's survivor index — one count per tile-grid
//!   row, since each row's survivors are a prefix of axis 0 — so
//!   [`PruneStats::after_rule4`](prune::PruneStats::after_rule4) is
//!   exact at any scale;
//! * [`perf_model`] — the analytical performance model, Eqs. 2–5 (§IV-A);
//! * [`search`] — the heuristic evolutionary search with automatic
//!   convergence, Algorithm 1 (§IV-B);
//! * [`tuner`] — the per-chain pipeline ([`McFuser`]) and structured
//!   [`TuneError`];
//! * [`engine`] — the [`FusionEngine`] session API: one configured
//!   object for tuning and end-to-end graph compilation with MBCI
//!   partitioning and fallback backends (§V-B);
//! * [`plan`] — the compile-time / run-time boundary: a
//!   [`CompiledModel`] freezes into an immutable [`ExecutablePlan`]
//!   (topological steps, name-keyed input bindings, buffer plan with
//!   last-use liveness) with structured [`ExecError`]s;
//! * [`runtime`] — the [`ModelRuntime`] serving registry: many plans,
//!   concurrent `infer` from `&self`, [`RuntimeStats`] with virtual
//!   p50/p95 latency;
//! * [`session`] — autoregressive decoder serving on top of the
//!   runtime: [`DecodeServing`] compiles per-bucket prefill/step plans
//!   and [`DecodeSession`] owns arena-pooled, capacity-bounded KV
//!   caches with `prefill()`/`step()` driving coalesced GEMV launches;
//! * [`cache`] — the content-addressed [`TuningCache`] behind the
//!   engine (in-memory and JSON-on-disk, with flush-on-shutdown error
//!   reporting);
//! * [`compiler`] — the [`OpCostModel`] fallback interface.
//!
//! Sessions are built once with explicit knobs, then reused:
//!
//! ```
//! use mcfuser_core::{CachePolicy, FusionEngine, SearchParams};
//! use mcfuser_ir::ChainSpec;
//! use mcfuser_sim::DeviceSpec;
//!
//! let engine = FusionEngine::builder(DeviceSpec::a100())
//!     .search_params(SearchParams::default())
//!     .cache(CachePolicy::InMemory)
//!     .parallelism(2)
//!     .build();
//!
//! let chain = ChainSpec::gemm_chain("demo", 1, 256, 128, 64, 64);
//! let tuned = engine.tune(&chain).unwrap();
//! assert!(tuned.profile.time > 0.0);
//!
//! // Identical requests are cache hits — no new measurements.
//! let again = engine.tune(&chain).unwrap();
//! assert_eq!(again.candidate, tuned.candidate);
//! assert_eq!(engine.stats().cache_hits, 1);
//! ```
//!
//! Serving splits from compilation: freeze a compiled graph into an
//! [`ExecutablePlan`] once, register it in a [`ModelRuntime`], and
//! serve concurrent requests by input name — see the [`runtime`]
//! module docs for the end-to-end example.

#![warn(missing_docs)]

pub mod batch;
pub mod cache;
pub mod compiler;
pub mod engine;
pub mod perf_model;
pub mod plan;
pub mod prune;
pub mod runtime;
pub mod scheduler;
pub mod search;
pub mod session;
pub mod space;
pub mod tuner;

pub use batch::BatchedPlan;
pub use cache::{
    CacheKey, CachedTuning, JsonDiskCache, MemoryCache, TuningCache, MEMORY_CACHE_CAPACITY,
};
pub use compiler::OpCostModel;
pub use engine::{
    CachePolicy, CompiledChain, CompiledModel, EngineBuilder, EngineStats, FusionEngine,
};
pub use mcfuser_sim::{verify_program, verify_widened, VerifyError, VerifyReport};
pub use perf_model::{
    estimate, estimate_or_inf, estimate_or_inf_with, estimate_with, matmul_tile_intensity,
    ModelOptions, PerfEstimate,
};
pub use plan::{
    BufferPlan, ExecError, ExecutablePlan, InputBinding, InputSet, Outputs, RunOptions, Step,
    StepBreakdown, WeightStore,
};
pub use prune::{prune, rule2_ok, rule3_tiles, PruneStats};
pub use runtime::{ModelRuntime, PlanStats, RuntimeStats, ShutdownError, WEIGHT_CACHE_CAPACITY};
pub use scheduler::BatchPolicy;
pub use search::{heuristic_search, MeasuredSet, SearchOutcome, SearchParams};
pub use session::{DecodeError, DecodeServing, DecodeSession, DecodeSpec};
pub use space::{space_fingerprint, CandidateSpace, SearchSpace, SpaceCache, SPACE_CACHE_CAPACITY};
pub use tuner::{
    build_candidate_space, McFuser, Rule4Rejection, SpacePolicy, TuneError, TunedKernel,
};
