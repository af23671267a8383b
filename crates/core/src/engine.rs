//! The `FusionEngine` session API — one configured entry point for
//! everything the paper's pipeline does (§III–§V): per-chain tuning,
//! end-to-end graph compilation with MBCI partitioning, fallback pricing
//! of the non-fused remainder, and freezing compiled models into
//! serving plans ([`FusionEngine::compile_plan`] →
//! [`ModelRuntime`](crate::ModelRuntime)).
//!
//! Previously these lived behind three disjoint entry points
//! (`McFuser::tune`, a free `compile_graph`, `Backend::run_chain`) with no
//! shared configuration or reuse. The engine consolidates them the way
//! FusionStitching and Blockbuster turn a fusion algorithm into a
//! reusable compiler service:
//!
//! * built once via [`EngineBuilder`] with explicit knobs — target
//!   [`DeviceSpec`], [`SearchParams`], fallback [`OpCostModel`],
//!   [`CachePolicy`], [`SpacePolicy`], and a parallelism degree;
//! * owns a content-addressed [`TuningCache`] keyed by chain content
//!   (dtype included), input-transpose layout, device, and search
//!   configuration;
//! * tunes independent chains in parallel with deterministic results:
//!   each chain runs on its own virtual clock (merged afterwards), so
//!   the winning candidates and every aggregate are identical at any
//!   parallelism degree.
//!
//! ```
//! use mcfuser_core::FusionEngine;
//! use mcfuser_ir::ChainSpec;
//! use mcfuser_sim::DeviceSpec;
//!
//! let engine = FusionEngine::builder(DeviceSpec::a100()).build();
//! let chain = ChainSpec::gemm_chain("demo", 1, 256, 128, 64, 64);
//! let tuned = engine.tune(&chain).unwrap();
//! assert!(tuned.profile.time > 0.0);
//! // The second request is served from the session cache.
//! let again = engine.tune(&chain).unwrap();
//! assert_eq!(again.candidate, tuned.candidate);
//! assert_eq!(engine.stats().cache_hits, 1);
//! ```

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use rustc_hash::{FxHashMap, FxHashSet};

use mcfuser_ir::{partition_with, ChainSpec, Graph, NodeId, PartitionOptions};
use mcfuser_sim::{measure_noisy, DeviceSpec, TuningClock, TuningReport};
use mcfuser_tile::{lower, Candidate, LoweringOptions, TilingExpr};

use crate::cache::{CacheKey, CachedTuning, JsonDiskCache, MemoryCache, TuningCache};
use crate::compiler::OpCostModel;
use crate::plan::ExecutablePlan;
use crate::search::SearchParams;
use crate::space::{space_fingerprint, CandidateSpace, SpaceCache};
use crate::tuner::{build_candidate_space, McFuser, SpacePolicy, TuneError, TunedKernel};

/// One fused sub-graph in a compiled model.
#[derive(Debug, Clone)]
pub struct CompiledChain {
    /// The extracted chain.
    pub chain: ChainSpec,
    /// Tuned kernel.
    pub tuned: TunedKernel,
    /// Graph nodes the kernel replaces.
    pub nodes: Vec<NodeId>,
    /// Chain data inputs as graph nodes.
    pub data_inputs: Vec<NodeId>,
    /// The graph node whose value the kernel produces.
    pub output: NodeId,
    /// Inputs stored transposed in the graph relative to chain layout.
    pub transposed_inputs: Vec<bool>,
    /// Whether this chain spent no new measurements in this compile —
    /// served from the engine cache, or deduplicated against an
    /// identical chain tuned earlier in the same batch.
    pub cache_hit: bool,
}

/// A compiled end-to-end model.
#[derive(Debug)]
pub struct CompiledModel {
    /// Model name.
    pub name: String,
    /// Fused chains with their kernels.
    pub chains: Vec<CompiledChain>,
    /// Per-op times of the non-fused remainder.
    pub rest_times: Vec<(NodeId, f64)>,
    /// Fallback backend used for the remainder.
    pub fallback: String,
    /// Total inference time (seconds) = fused kernels + remainder.
    pub total_time: f64,
    /// Time spent in fused chains only.
    pub chain_time: f64,
    /// Virtual tuning time this compile actually spent (cache hits cost
    /// nothing) plus the fallback's preparation cost.
    pub tuning_seconds: f64,
    /// Structural fingerprint of the source graph, captured at compile
    /// time. [`CompiledModel::plan`] verifies the graph it is handed
    /// matches — a same-named but structurally different graph is
    /// rejected instead of silently producing wrong outputs.
    pub graph_fingerprint: u64,
    /// The device the model was tuned for. Carried into
    /// [`ExecutablePlan`] so the serving layer
    /// can price widened batched launches on the same timing model.
    pub device: DeviceSpec,
    /// Stitched chains whose fused kernel could not be tuned and that
    /// degraded to their plain twin, with the prologue/epilogue glue
    /// returned to the fallback remainder. Outputs are unchanged by a
    /// demotion — only the step structure and traffic differ.
    pub stitch_demotions: u64,
}

/// Structural fingerprint of a graph (nodes, shapes, ops, outputs,
/// dtype — everything `Debug` renders), via the deterministic Fx hash.
pub fn graph_fingerprint(graph: &Graph) -> u64 {
    use std::hash::Hasher;
    let mut h = rustc_hash::FxHasher::default();
    h.write(format!("{graph:?}").as_bytes());
    h.finish()
}

/// Where the engine keeps tuning results.
#[derive(Debug, Clone, Default)]
pub enum CachePolicy {
    /// No reuse across requests (identical chains inside one `compile`
    /// still share a single tuning via in-flight deduplication).
    Disabled,
    /// In-memory, for the lifetime of the engine.
    #[default]
    InMemory,
    /// Write-through JSON file: a fresh engine (or process) pointed at
    /// the same path reuses every schedule tuned before it started.
    DiskJson(PathBuf),
}

/// Counters describing what a session has done so far.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Tuning requests answered from the cache.
    pub cache_hits: u64,
    /// Tuning requests that ran the full search pipeline.
    pub cache_misses: u64,
    /// Graphs compiled.
    pub graphs_compiled: u64,
    /// Write-through cache persistence attempts that failed (disk
    /// caches only; the entries stayed live in memory). A non-zero count
    /// means schedules will be re-tuned by the next process — call
    /// [`TuningCache::flush`] (e.g. via
    /// [`ModelRuntime::shutdown`](crate::ModelRuntime::shutdown)) to get
    /// the failure as a `Result`.
    pub cache_persist_errors: u64,
    /// Candidate spaces built from scratch (each one Rule-4 scan). This
    /// counts *distinct space fingerprints*, not tuning tasks: N
    /// same-shaped chains cost one build (more only after an eviction).
    pub space_builds: u64,
    /// Tuning tasks whose candidate space was served from the engine's
    /// [`SpaceCache`] (0 when the tuning cache answered first — a
    /// schedule hit never builds a space at all).
    pub space_cache_hits: u64,
    /// Candidate spaces evicted from the LRU-bounded [`SpaceCache`].
    /// Eviction is safe — spaces rebuild deterministically — but a
    /// non-zero count under a steady workload means the bound is
    /// thrashing and should grow.
    pub space_evictions: u64,
    /// Tuned schedules evicted from the LRU-bounded in-memory
    /// [`TuningCache`]. Like spaces, evicted
    /// schedules re-tune deterministically; the counter sizes the bound.
    pub tuning_cache_evictions: u64,
    /// Lowered programs that passed the static verifier (fresh tuning
    /// winners and cache rehydrations both count; see
    /// `mcfuser_sim::verify`).
    pub programs_verified: u64,
    /// Lowered programs the static verifier rejected. Each reject
    /// either surfaced as [`TuneError::Verify`] or — for a cached
    /// schedule — forced a fresh re-tune. A non-zero count under a
    /// production workload means a lowering or cache-poisoning bug was
    /// caught before the kernel could be served.
    pub verify_rejects: u64,
}

/// Configures and constructs a [`FusionEngine`].
pub struct EngineBuilder {
    device: DeviceSpec,
    params: SearchParams,
    policy: SpacePolicy,
    fallback: Option<Arc<dyn OpCostModel + Send + Sync>>,
    cache: CachePolicy,
    custom_cache: Option<Box<dyn TuningCache>>,
    parallelism: usize,
    stitching: bool,
}

impl EngineBuilder {
    /// Start configuring an engine for a target device.
    pub fn new(device: DeviceSpec) -> Self {
        EngineBuilder {
            device,
            params: SearchParams::default(),
            policy: SpacePolicy::default(),
            fallback: None,
            cache: CachePolicy::default(),
            custom_cache: None,
            parallelism: 1,
            stitching: true,
        }
    }

    /// Algorithm 1 parameters (population, top-n, convergence ε, …).
    pub fn search_params(mut self, params: SearchParams) -> Self {
        self.params = params;
        self
    }

    /// Search-space construction policy (full space by default; the
    /// restricted variants drive the ablation study).
    pub fn space_policy(mut self, policy: SpacePolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Backend pricing the operators MCFuser does not fuse. Required for
    /// [`FusionEngine::compile`]; chain-only sessions can omit it.
    pub fn fallback(mut self, fallback: impl OpCostModel + Send + 'static) -> Self {
        self.fallback = Some(Arc::new(fallback));
        self
    }

    /// Like [`EngineBuilder::fallback`], for an already-shared backend.
    pub fn fallback_arc(mut self, fallback: Arc<dyn OpCostModel + Send + Sync>) -> Self {
        self.fallback = Some(fallback);
        self
    }

    /// Where tuning results live (default: in-memory for the engine's
    /// lifetime).
    pub fn cache(mut self, policy: CachePolicy) -> Self {
        self.cache = policy;
        self.custom_cache = None;
        self
    }

    /// Bring your own [`TuningCache`] implementation.
    pub fn cache_store(mut self, cache: Box<dyn TuningCache>) -> Self {
        self.custom_cache = Some(cache);
        self
    }

    /// Whether the partitioner stitches adjacent elementwise glue
    /// (LayerNorm prologues, residual-Add/LayerNorm epilogues) into the
    /// fused chains (default: on). Disabling it extracts the *same*
    /// chains but emits each as its plain twin with the glue priced by
    /// the fallback — the baseline a stitched plan is bit-identical to.
    pub fn stitching(mut self, enabled: bool) -> Self {
        self.stitching = enabled;
        self
    }

    /// Number of worker threads for independent chains (1 = serial;
    /// results are bit-identical at any degree). 0 selects the host's
    /// available parallelism.
    pub fn parallelism(mut self, degree: usize) -> Self {
        self.parallelism = if degree == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            degree
        };
        self
    }

    /// Construct the engine.
    pub fn build(self) -> FusionEngine {
        let cache: Option<Arc<dyn TuningCache>> = match (self.custom_cache, &self.cache) {
            (Some(c), _) => Some(Arc::from(c)),
            (None, CachePolicy::Disabled) => None,
            (None, CachePolicy::InMemory) => Some(Arc::new(MemoryCache::new())),
            (None, CachePolicy::DiskJson(path)) => Some(Arc::new(JsonDiskCache::open(path))),
        };
        FusionEngine {
            device: self.device,
            tuner: McFuser {
                params: self.params,
            },
            policy: self.policy,
            fallback: self.fallback,
            cache,
            spaces: SpaceCache::new(),
            space_builds: AtomicU64::new(0),
            stitching: self.stitching,
            parallelism: self.parallelism.max(1),
            clock: TuningClock::new(),
            stats: Mutex::new(EngineStats::default()),
        }
    }
}

/// A configured fusion session: tuning, graph compilation, and execution
/// through one object. All methods take `&self`; the engine is `Sync`
/// and safe to share across request threads.
pub struct FusionEngine {
    device: DeviceSpec,
    tuner: McFuser,
    policy: SpacePolicy,
    fallback: Option<Arc<dyn OpCostModel + Send + Sync>>,
    cache: Option<Arc<dyn TuningCache>>,
    /// Built candidate spaces, shared across same-shaped tuning tasks.
    spaces: SpaceCache,
    /// Fresh space constructions (the Rule-4 scan probe).
    space_builds: AtomicU64,
    /// Whether compilation stitches prologue/epilogue glue into chains.
    stitching: bool,
    parallelism: usize,
    clock: TuningClock,
    stats: Mutex<EngineStats>,
}

impl std::fmt::Debug for FusionEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FusionEngine")
            .field("device", &self.device.name)
            .field("parallelism", &self.parallelism)
            .field("cached_entries", &self.cache.as_ref().map(|c| c.len()))
            .field("cached_spaces", &self.spaces.len())
            .field("fallback", &self.fallback.as_ref().map(|b| b.name()))
            .finish()
    }
}

impl FusionEngine {
    /// Start building an engine for a target device.
    pub fn builder(device: DeviceSpec) -> EngineBuilder {
        EngineBuilder::new(device)
    }

    /// The target device.
    pub fn device(&self) -> &DeviceSpec {
        &self.device
    }

    /// The session's search parameters.
    pub fn params(&self) -> &SearchParams {
        &self.tuner.params
    }

    /// Session counters (cache hits/misses, graphs compiled, cache
    /// persistence failures, space builds and space-cache hits).
    pub fn stats(&self) -> EngineStats {
        let mut stats = self.stats.lock().clone();
        stats.cache_persist_errors = self.cache.as_ref().map(|c| c.persist_errors()).unwrap_or(0);
        stats.space_builds = self.space_builds.load(Ordering::Relaxed);
        stats.space_cache_hits = self.spaces.hits();
        stats.space_evictions = self.spaces.evictions();
        stats.tuning_cache_evictions = self.cache.as_ref().map(|c| c.evictions()).unwrap_or(0);
        stats
    }

    /// The session's tuning cache, shareable with a serving layer —
    /// [`ModelRuntime::attach_cache`](crate::ModelRuntime::attach_cache)
    /// flushes it at shutdown so persistence failures become a
    /// `Result` instead of a warning.
    pub fn cache_handle(&self) -> Option<Arc<dyn TuningCache>> {
        self.cache.clone()
    }

    /// Aggregate virtual tuning cost of everything this session tuned
    /// fresh (cache hits charge nothing).
    pub fn session_report(&self) -> TuningReport {
        self.clock.report()
    }

    /// Tune one chain in its natural layout.
    pub fn tune(&self, chain: &ChainSpec) -> Result<TunedKernel, TuneError> {
        self.tune_with_layout(chain, &[])
    }

    /// Tune one chain whose inputs the surrounding graph stores in the
    /// given transpose layout (one flag per input; empty = natural).
    /// Layout is part of the cache identity: two chains differing only
    /// in how their inputs are stored never share a schedule.
    pub fn tune_with_layout(
        &self,
        chain: &ChainSpec,
        transposed_inputs: &[bool],
    ) -> Result<TunedKernel, TuneError> {
        let (tuned, fresh) = self.tune_entry(chain, transposed_inputs)?;
        if let Some(report) = &fresh {
            self.clock.absorb(report);
        }
        Ok(tuned)
    }

    /// Tune many independent chains, in parallel up to the configured
    /// degree. Results come back in input order and are identical to a
    /// serial run (duplicates are deduplicated up front, and fresh
    /// tuning costs are folded into the session clock in input order,
    /// so aggregates are bit-identical at any parallelism degree).
    pub fn tune_many(&self, chains: &[ChainSpec]) -> Vec<Result<TunedKernel, TuneError>> {
        let tasks: Vec<(&ChainSpec, &[bool])> =
            chains.iter().map(|c| (c, &[] as &[bool])).collect();
        self.tune_tasks(&tasks)
            .0
            .into_iter()
            .map(|r| r.map(|(t, _)| t))
            .collect()
    }

    /// Deduplicate tasks by cache key, tune each unique task once (in
    /// parallel), absorb fresh costs deterministically, and fan results
    /// back out in input order. The bool in each result marks cache
    /// hits; the second return value is the total virtual seconds of
    /// fresh tuning (each unique task counted once).
    #[allow(clippy::type_complexity)]
    fn tune_tasks(
        &self,
        tasks: &[(&ChainSpec, &[bool])],
    ) -> (Vec<Result<(TunedKernel, bool), TuneError>>, f64) {
        let mut unique: Vec<(&ChainSpec, &[bool])> = Vec::new();
        let mut task_of: Vec<usize> = Vec::with_capacity(tasks.len());
        let mut index_of: FxHashMap<String, usize> = FxHashMap::default();
        for &(chain, layout) in tasks {
            let key = self.key_for(chain, layout).canonical();
            let idx = *index_of.entry(key).or_insert_with(|| {
                unique.push((chain, layout));
                unique.len() - 1
            });
            task_of.push(idx);
        }

        let results = self.run_jobs(unique.len(), |i| {
            let (chain, layout) = unique[i];
            self.tune_entry(chain, layout)
        });

        // Fold fresh tuning costs into the session clock in job order —
        // doing this on the worker threads would make the f64 sums
        // depend on completion order.
        let mut fresh_seconds = 0.0;
        for r in &results {
            if let Ok((_, Some(report))) = r {
                self.clock.absorb(report);
                fresh_seconds += report.virtual_seconds;
            }
        }

        // Fan out in input order. Only the first occurrence of a fresh
        // tuning is "paid for"; duplicates of it (and all true cache
        // hits) spent nothing and are flagged accordingly.
        let mut paid = vec![false; results.len()];
        let fanned = task_of
            .into_iter()
            .map(|idx| match &results[idx] {
                Ok((t, fresh)) => {
                    let free = fresh.is_none() || paid[idx];
                    paid[idx] = true;
                    Ok((t.clone(), free))
                }
                Err(e) => Err(e.clone()),
            })
            .collect();
        (fanned, fresh_seconds)
    }

    /// Compile a graph end to end with the engine's configured fallback:
    /// partition into MBCI sub-graphs, tune each (in parallel, with
    /// cache reuse), price the remainder.
    pub fn compile(&self, graph: &Graph) -> Result<CompiledModel, TuneError> {
        let fallback = self
            .fallback
            .clone()
            .ok_or_else(|| TuneError::MissingFallback {
                graph: graph.name.clone(),
            })?;
        self.compile_with_fallback(graph, fallback.as_ref())
    }

    /// Compile with an explicit fallback, overriding (or standing in
    /// for) the configured one. Useful for comparing fallback backends
    /// while sharing one engine's tuning cache.
    pub fn compile_with_fallback(
        &self,
        graph: &Graph,
        fallback: &dyn OpCostModel,
    ) -> Result<CompiledModel, TuneError> {
        let part = partition_with(
            graph,
            &self.device,
            PartitionOptions {
                stitch: self.stitching,
            },
        );

        // Identical tuning tasks (e.g. the attention of every layer) are
        // deduplicated by tune_tasks and tuned once, then fanned back out
        // in partition order.
        let tasks: Vec<(&ChainSpec, &[bool])> = part
            .chains
            .iter()
            .map(|fc| (&fc.chain, fc.transposed_inputs.as_slice()))
            .collect();
        let (results, mut fresh_tuning_seconds) = self.tune_tasks(&tasks);

        let mut chains = Vec::with_capacity(part.chains.len());
        let mut chain_time = 0.0;
        let mut stitch_demotions = 0u64;
        let mut rest_nodes: Vec<NodeId> = part.rest.clone();
        for (fc, result) in part.chains.iter().zip(results) {
            let (src, t, cache_hit) = match result {
                Ok((t, hit)) => (fc, t, hit),
                Err(e) => {
                    // A stitched chain whose fused kernel cannot be
                    // tuned degrades to its plain twin: the core chain
                    // still fuses, the glue it had claimed returns to
                    // the fallback remainder, and outputs are unchanged.
                    let Some(twin) = fc.unstitched.as_deref() else {
                        return Err(e);
                    };
                    let (twin_results, twin_seconds) =
                        self.tune_tasks(&[(&twin.chain, twin.transposed_inputs.as_slice())]);
                    fresh_tuning_seconds += twin_seconds;
                    let (t, hit) = twin_results.into_iter().next().expect("one twin task")?;
                    stitch_demotions += 1;
                    rest_nodes.extend(fc.stitched_glue());
                    (twin, t, hit)
                }
            };
            chain_time += t.profile.time;
            chains.push(CompiledChain {
                chain: src.chain.clone(),
                tuned: t,
                nodes: src.nodes.clone(),
                data_inputs: src.data_inputs.clone(),
                output: src.output,
                transposed_inputs: src.transposed_inputs.clone(),
                cache_hit,
            });
        }
        rest_nodes.sort_unstable();

        // Glue whose producer was fused into a chain cannot fold into a
        // producer epilogue — that kernel no longer launches standalone —
        // so it is priced as its own launch.
        let fused: FxHashSet<NodeId> = chains
            .iter()
            .flat_map(|c| c.nodes.iter().copied())
            .collect();
        let rest_times: Vec<(NodeId, f64)> = rest_nodes
            .iter()
            .map(|&n| {
                let producer_fused = graph
                    .node(n)
                    .inputs
                    .first()
                    .is_some_and(|p| fused.contains(p));
                let t = if producer_fused {
                    fallback.op_time_standalone(graph, n, &self.device)
                } else {
                    fallback.op_time(graph, n, &self.device)
                };
                (n, t)
            })
            .collect();
        let rest_total: f64 = rest_times.iter().map(|(_, t)| t).sum();
        let tuning_seconds =
            fresh_tuning_seconds + fallback.tuning_seconds(graph, &rest_nodes, &self.device);
        self.stats.lock().graphs_compiled += 1;
        Ok(CompiledModel {
            name: graph.name.clone(),
            chains,
            rest_times,
            fallback: fallback.name().to_string(),
            total_time: chain_time + rest_total,
            chain_time,
            tuning_seconds,
            graph_fingerprint: graph_fingerprint(graph),
            device: self.device.clone(),
            stitch_demotions,
        })
    }

    /// Compile a graph and freeze the result straight into a serving
    /// [`ExecutablePlan`] — the usual path when the compiled model's
    /// tuning provenance is not needed:
    /// `engine.compile_plan(&g)? → runtime.register(name, plan)`.
    pub fn compile_plan(&self, graph: &Graph) -> Result<ExecutablePlan, TuneError> {
        let model = self.compile(graph)?;
        model.plan(graph).map_err(|e| TuneError::Plan {
            graph: graph.name.clone(),
            detail: e.to_string(),
        })
    }

    fn key_for(&self, chain: &ChainSpec, transposed_inputs: &[bool]) -> CacheKey {
        CacheKey::new(
            chain,
            transposed_inputs,
            &self.device,
            &self.tuner.params,
            &self.policy,
        )
    }

    /// Tune one task, consulting the cache. Returns the kernel plus the
    /// fresh-tuning report (`None` on a cache hit).
    fn tune_entry(
        &self,
        chain: &ChainSpec,
        transposed_inputs: &[bool],
    ) -> Result<(TunedKernel, Option<TuningReport>), TuneError> {
        let key = self.key_for(chain, transposed_inputs);
        if let Some(cache) = &self.cache {
            if let Some(entry) = cache.get(&key) {
                if let Some(t) = self.rehydrate(chain, &entry) {
                    self.stats.lock().cache_hits += 1;
                    return Ok((t, None));
                }
            }
        }
        let local = TuningClock::new();
        let space = self.space_for(chain);
        let tuned = self
            .tuner
            .tune_in_space(chain, &self.device, &local, &space)?;
        // Static gate: the winner must survive symbolic verification
        // before it is cached or returned. A reject here is a lowering
        // bug surfacing as a structured error instead of a miscompile —
        // callers demote (stitched chains fall back to their plain twin
        // in `compile`) rather than serve the kernel.
        if let Err(e) = mcfuser_sim::verify::verify_program(&tuned.kernel.program) {
            self.stats.lock().verify_rejects += 1;
            return Err(TuneError::Verify {
                chain: chain.name.clone(),
                device: self.device.name.clone(),
                detail: e.to_string(),
            });
        }
        self.stats.lock().programs_verified += 1;
        // The local report is returned to the caller, which absorbs it
        // into the session clock in deterministic (input) order — never
        // here on a worker thread, where completion order would make the
        // f64 sums scheduling-dependent.
        let report = local.report();
        self.stats.lock().cache_misses += 1;
        if let Some(cache) = &self.cache {
            cache.put(&key, CachedTuning::from_tuned(&tuned));
        }
        Ok((tuned, Some(report)))
    }

    /// The candidate space for a chain — shared through the engine's
    /// [`SpaceCache`] (content-addressed, so every same-shaped chain and
    /// every layout variant of one reuses a single Rule-4 scan). Only
    /// reached on tuning-cache misses: a schedule hit rehydrates without
    /// a space.
    fn space_for(&self, chain: &ChainSpec) -> Arc<CandidateSpace> {
        self.spaces
            .get_or_build(space_fingerprint(chain, &self.device, &self.policy), || {
                self.space_builds.fetch_add(1, Ordering::Relaxed);
                build_candidate_space(chain, &self.device, &self.policy)
            })
    }

    /// Rebuild a [`TunedKernel`] from a cached schedule: parse the
    /// expression, re-lower (deterministic, virtually free), re-derive
    /// the profile. No measurements are charged — that is the point of
    /// the cache. Returns `None` if the entry does not fit the chain
    /// (treated as a miss).
    fn rehydrate(&self, chain: &ChainSpec, entry: &CachedTuning) -> Option<TunedKernel> {
        let expr = TilingExpr::parse(&entry.expr, chain)?;
        if entry.tiles.len() != chain.num_axes() {
            return None;
        }
        let candidate = Candidate::new(expr, entry.tiles.clone());
        let opts = if self.tuner.params.dead_loop_elimination {
            LoweringOptions::for_device(&self.device)
        } else {
            LoweringOptions::for_device(&self.device).without_dead_loop_elimination()
        };
        let kernel = lower(chain, &candidate, &opts).ok()?;
        if kernel.smem_bytes > self.device.smem_per_block {
            return None;
        }
        // Re-verify rehydrated programs: a stale or hand-edited cache
        // entry that re-lowers into something unsound is treated as a
        // miss (forcing a fresh, itself-verified tune), never served.
        if mcfuser_sim::verify::verify_program(&kernel.program).is_err() {
            self.stats.lock().verify_rejects += 1;
            return None;
        }
        self.stats.lock().programs_verified += 1;
        let profile = measure_noisy(&kernel.program, &self.device, self.tuner.params.seed);
        Some(TunedKernel {
            chain: chain.clone(),
            candidate,
            kernel,
            profile,
            tuning: entry.tuning.clone(),
            prune_stats: entry.prune_stats.clone(),
            rounds: entry.rounds,
            measured: entry.measured,
        })
    }

    /// Run `n` independent jobs, in parallel up to the configured
    /// degree, collecting results in job order (deterministic for
    /// deterministic jobs regardless of scheduling).
    fn run_jobs<T, F>(&self, n: usize, job: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let workers = self.parallelism.min(n);
        if workers <= 1 {
            return (0..n).map(job).collect();
        }
        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
        std::thread::scope(|s| {
            for _ in 0..workers {
                s.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::SeqCst);
                    if i >= n {
                        break;
                    }
                    let result = job(i);
                    *slots[i].lock() = Some(result);
                });
            }
        });
        slots
            .into_iter()
            .map(|m| m.into_inner().expect("every job slot filled"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcfuser_ir::GraphBuilder;
    use mcfuser_sim::DType;

    struct FlatCost;
    impl OpCostModel for FlatCost {
        fn name(&self) -> &str {
            "flat"
        }
        fn op_time(&self, _g: &Graph, _n: NodeId, _d: &DeviceSpec) -> f64 {
            10e-6
        }
        fn tuning_seconds(&self, _g: &Graph, nodes: &[NodeId], _d: &DeviceSpec) -> f64 {
            nodes.len() as f64 * 0.5
        }
    }

    fn tiny_attention_graph() -> Graph {
        let mut gb = GraphBuilder::new("attn", DType::F16);
        let q = gb.input("q", vec![2, 64, 32]);
        let k = gb.input("k", vec![2, 64, 32]);
        let v = gb.input("v", vec![2, 64, 32]);
        let s = gb.batch_matmul("qk", q, k, true);
        let p = gb.softmax("sm", s, 1.0 / (32f32).sqrt());
        let o = gb.batch_matmul("pv", p, v, false);
        let ln = gb.layer_norm("ln", o);
        gb.finish(vec![ln])
    }

    #[test]
    fn engine_tunes_and_caches() {
        let engine = FusionEngine::builder(DeviceSpec::a100()).build();
        let chain = ChainSpec::gemm_chain("g", 1, 256, 128, 64, 64);
        let first = engine.tune(&chain).unwrap();
        let measurements_after_first = engine.session_report().measurements;
        assert!(measurements_after_first > 0);
        let second = engine.tune(&chain).unwrap();
        assert_eq!(first.candidate, second.candidate);
        assert_eq!(first.profile.time, second.profile.time);
        // The hit spent nothing on the session clock.
        assert_eq!(
            engine.session_report().measurements,
            measurements_after_first
        );
        assert_eq!(
            engine.stats(),
            EngineStats {
                cache_hits: 1,
                cache_misses: 1,
                graphs_compiled: 0,
                cache_persist_errors: 0,
                space_builds: 1,
                space_cache_hits: 0,
                // Both the fresh winner and its rehydrated cache hit
                // pass the static gate.
                programs_verified: 2,
                ..EngineStats::default()
            }
        );
    }

    #[test]
    fn compile_fuses_attention_and_prices_rest() {
        let engine = FusionEngine::builder(DeviceSpec::a100())
            .fallback(FlatCost)
            .build();
        let model = engine.compile(&tiny_attention_graph()).unwrap();
        assert_eq!(model.chains.len(), 1);
        assert_eq!(model.rest_times.len(), 1); // the layer norm
        assert!(model.total_time > model.chain_time);
        assert!(model.tuning_seconds > 0.0);
        assert!(!model.chains[0].cache_hit);
    }

    #[test]
    fn compile_without_fallback_is_a_structured_error() {
        let engine = FusionEngine::builder(DeviceSpec::a100()).build();
        let err = engine.compile(&tiny_attention_graph()).unwrap_err();
        assert_eq!(
            err,
            TuneError::MissingFallback {
                graph: "attn".into()
            }
        );
    }

    #[test]
    fn second_compile_is_served_from_cache() {
        let engine = FusionEngine::builder(DeviceSpec::a100())
            .fallback(FlatCost)
            .build();
        let g = tiny_attention_graph();
        let first = engine.compile(&g).unwrap();
        let second = engine.compile(&g).unwrap();
        assert_eq!(first.total_time, second.total_time);
        assert!(second.chains[0].cache_hit);
        // Only the fallback's preparation cost remains.
        assert!(second.tuning_seconds < first.tuning_seconds);
        assert_eq!(engine.stats().cache_misses, 1);
    }

    #[test]
    fn identical_chains_dedup_even_with_cache_disabled() {
        let mut gb = GraphBuilder::new("two", DType::F16);
        let mut outs = Vec::new();
        for l in 0..2 {
            let q = gb.input(format!("q{l}"), vec![2, 64, 32]);
            let k = gb.input(format!("k{l}"), vec![2, 64, 32]);
            let v = gb.input(format!("v{l}"), vec![2, 64, 32]);
            let s = gb.batch_matmul(&format!("qk{l}"), q, k, true);
            let p = gb.softmax(&format!("sm{l}"), s, 1.0);
            let o = gb.batch_matmul(&format!("pv{l}"), p, v, false);
            outs.push(o);
        }
        let g = gb.finish(outs);
        let engine = FusionEngine::builder(DeviceSpec::a100())
            .fallback(FlatCost)
            .cache(CachePolicy::Disabled)
            .build();
        let model = engine.compile(&g).unwrap();
        assert_eq!(model.chains.len(), 2);
        assert_eq!(
            model.chains[0].tuned.candidate,
            model.chains[1].tuned.candidate
        );
        // One tuning session for two identical chains; the duplicate is
        // flagged as costing nothing.
        assert_eq!(engine.stats().cache_misses, 1);
        assert!(!model.chains[0].cache_hit);
        assert!(model.chains[1].cache_hit);
    }

    /// Transformer FFN block with affine LayerNorms on both sides — the
    /// shape the stitching passes fold into one kernel.
    fn ffn_block_graph(m: u64, d: u64, f: u64) -> Graph {
        let mut gb = GraphBuilder::new("blk", DType::F16);
        let proj = gb.input("proj", vec![m, d]);
        let x = gb.input("x", vec![m, d]);
        let res1 = gb.add("res1", proj, x);
        let ln1 = gb.layer_norm_affine("ln1", res1);
        let up = gb.linear("up", ln1, f, true);
        let act = gb.gelu("act", up);
        let down = gb.linear("down", act, d, true);
        let res2 = gb.add("res2", down, ln1);
        let ln2 = gb.layer_norm_affine("ln2", res2);
        gb.finish(vec![ln2])
    }

    #[test]
    fn ffn_block_compiles_to_one_stitched_kernel() {
        let engine = FusionEngine::builder(DeviceSpec::a100())
            .fallback(FlatCost)
            .build();
        let model = engine.compile(&ffn_block_graph(128, 64, 128)).unwrap();
        assert_eq!(model.chains.len(), 1);
        let c = &model.chains[0].chain;
        assert!(c.prologue.is_some() && c.stitch_epilogue.is_some());
        assert!(model.rest_times.is_empty(), "{:?}", model.rest_times);
        assert_eq!(model.stitch_demotions, 0);
        assert_eq!(model.total_time, model.chain_time);
    }

    #[test]
    fn stitching_disabled_compiles_the_twin_with_glue_in_rest() {
        let g = ffn_block_graph(128, 64, 128);
        let engine = FusionEngine::builder(DeviceSpec::a100())
            .fallback(FlatCost)
            .stitching(false)
            .build();
        let model = engine.compile(&g).unwrap();
        assert_eq!(model.chains.len(), 1);
        let c = &model.chains[0].chain;
        assert!(c.prologue.is_none() && c.stitch_epilogue.is_none());
        // res1, ln1, res2, ln2 priced by the fallback.
        assert_eq!(model.rest_times.len(), 4);
        assert_eq!(model.stitch_demotions, 0);
    }

    #[test]
    fn unstitchable_tail_degrades_to_the_plain_twin() {
        // Tail LayerNorm width 72: tile options are multiples of 16, so
        // no candidate can hold the full row in one tile and every
        // stitched lowering fails. The compile must not error — the
        // chain degrades to its plain twin and the glue returns to the
        // fallback remainder.
        let mut gb = GraphBuilder::new("degrade", DType::F16);
        let x = gb.input("x", vec![512, 64]);
        let y = gb.input("y", vec![512, 72]);
        let h = gb.linear("fc1", x, 256, false);
        let o = gb.linear("fc2", h, 72, false);
        let r = gb.add("res", o, y);
        let ln = gb.layer_norm_affine("ln2", r);
        let g = gb.finish(vec![ln]);

        let engine = FusionEngine::builder(DeviceSpec::a100())
            .fallback(FlatCost)
            .build();
        let model = engine.compile(&g).unwrap();
        assert_eq!(model.stitch_demotions, 1);
        assert_eq!(model.chains.len(), 1);
        let c = &model.chains[0].chain;
        assert!(c.prologue.is_none() && c.stitch_epilogue.is_none());
        // The demoted glue (res, ln2) is priced by the fallback again.
        assert_eq!(model.rest_times.len(), 2);
        // The degraded model still freezes into a runnable plan.
        let plan = model.plan(&g).unwrap();
        assert_eq!(plan.fused_kernels(), 1);
        // res + ln2 run on the interpreter (weight materialization
        // steps are counted separately as non-elementwise).
        assert_eq!(plan.step_breakdown().reference_elementwise, 2);
    }

    #[test]
    fn parallel_compile_matches_serial() {
        let g = tiny_attention_graph();
        let run = |threads: usize| {
            let engine = FusionEngine::builder(DeviceSpec::a100())
                .fallback(FlatCost)
                .parallelism(threads)
                .build();
            let m = engine.compile(&g).unwrap();
            (
                m.total_time,
                m.tuning_seconds,
                m.chains[0].tuned.candidate.clone(),
            )
        };
        assert_eq!(run(1), run(8));
    }
}
