//! The compile-time / run-time boundary: [`ExecutablePlan`].
//!
//! A [`CompiledModel`] is a *tuning* artifact — it remembers how each
//! fused chain was found and what it cost. Serving wants none of that
//! history; it wants a frozen, immutable recipe that executes a request
//! without re-deriving anything. [`CompiledModel::plan`] performs that
//! packaging once:
//!
//! * the **step list** — the topological execution order with every
//!   fused kernel's program, input bindings, and transpose flags
//!   resolved ([`Step::Fused`]), and every remaining operator pinned to
//!   the reference interpreter ([`Step::Reference`]);
//! * the **input binding table** — activation inputs addressable by
//!   *name* as well as [`NodeId`], with expected shapes and storage
//!   dtype for up-front validation;
//! * the **buffer plan** — per-node slot sizes and last-use liveness,
//!   so a request recycles intermediate buffers the moment their last
//!   consumer has run instead of keeping every node's value alive.
//!
//! Execution failures are structured [`ExecError`]s (mirroring the
//! [`TuneError`](crate::TuneError) redesign): a serving layer can match
//! on `MissingInput` vs `ShapeMismatch` instead of string-matching a
//! `Box<dyn Error>`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;
use rustc_hash::{FxHashMap, FxHashSet};

use mcfuser_ir::{Graph, GraphError, NodeId, Op};
use mcfuser_sim::{
    execute_with_arena, BufferArena, BufferRole, DType, DeviceSpec, ExecBackend, HostTensor,
    TensorStorage, VerifiedProgram,
};

use crate::engine::CompiledModel;

/// Structured execution failure of a plan or runtime request.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecError {
    /// The runtime has no plan registered under this name.
    UnknownModel {
        /// Requested model name.
        name: String,
    },
    /// A declared activation input was not supplied.
    MissingInput {
        /// Model name.
        model: String,
        /// The missing input's name.
        name: String,
    },
    /// The caller supplied an input the model does not declare.
    UnknownInput {
        /// Model name.
        model: String,
        /// The unrecognized input name (or node id, rendered).
        name: String,
    },
    /// A supplied tensor does not match the declared input shape.
    ShapeMismatch {
        /// Model name.
        model: String,
        /// The input (node) name.
        node: String,
        /// Declared shape.
        expected: Vec<u64>,
        /// Supplied shape.
        got: Vec<u64>,
    },
    /// A supplied tensor was tagged with the wrong storage precision.
    DTypeMismatch {
        /// Model name.
        model: String,
        /// The input (node) name.
        node: String,
        /// The model's storage precision.
        expected: DType,
        /// The tag the caller attached.
        got: DType,
    },
    /// The graph handed to [`CompiledModel::plan`] is not the graph the
    /// model was compiled from (or the pair is internally inconsistent).
    ModelGraphMismatch {
        /// Model name.
        model: String,
        /// Graph name.
        graph: String,
        /// What did not line up.
        detail: String,
    },
    /// A chain's lowered program failed the static verifier while the
    /// plan was being frozen (see `mcfuser_sim::verify`). Every program
    /// a plan would serve is re-checked here — the one check before
    /// execution, whose [`VerifiedProgram`] every launch then trusts —
    /// so a model carrying a corrupted or hand-mutated kernel is
    /// rejected instead of launched.
    Verify {
        /// Model name.
        model: String,
        /// The fused chain's name.
        chain: String,
        /// The rendered `VerifyError`.
        detail: String,
    },
    /// A fused kernel failed inside the functional interpreter.
    Kernel {
        /// Model name.
        model: String,
        /// The fused chain's name.
        chain: String,
        /// Interpreter error.
        detail: String,
    },
    /// A reference-executed operator failed.
    Reference {
        /// Model name.
        model: String,
        /// The failing node's name.
        node: String,
        /// Reference-evaluator error.
        detail: String,
    },
    /// The batching admission queue is full — backpressure. The request
    /// was rejected *before* enqueueing; retry later or shed load.
    Overloaded {
        /// Model name.
        model: String,
        /// The queue capacity that was exhausted
        /// ([`BatchPolicy::queue_cap`](crate::BatchPolicy)).
        queue_cap: usize,
    },
    /// The request's deadline elapsed while it waited in the admission
    /// queue. Expiry happens at batch-formation time, *before* any
    /// execution is wasted on a result nobody is waiting for.
    DeadlineExceeded {
        /// Model name.
        model: String,
        /// The deadline the request carried.
        deadline: Duration,
    },
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::UnknownModel { name } => {
                write!(f, "no model named '{name}' is registered")
            }
            ExecError::MissingInput { model, name } => {
                write!(f, "model '{model}': input '{name}' was not supplied")
            }
            ExecError::UnknownInput { model, name } => {
                write!(f, "model '{model}' declares no input '{name}'")
            }
            ExecError::ShapeMismatch {
                model,
                node,
                expected,
                got,
            } => write!(
                f,
                "model '{model}': input '{node}' expects shape {expected:?}, got {got:?}"
            ),
            ExecError::DTypeMismatch {
                model,
                node,
                expected,
                got,
            } => write!(
                f,
                "model '{model}': input '{node}' expects dtype {expected:?}, got {got:?}"
            ),
            ExecError::ModelGraphMismatch {
                model,
                graph,
                detail,
            } => write!(
                f,
                "compiled model '{model}' does not fit graph '{graph}': {detail}"
            ),
            ExecError::Verify {
                model,
                chain,
                detail,
            } => write!(
                f,
                "model '{model}': fused chain '{chain}' failed static verification: {detail}"
            ),
            ExecError::Kernel {
                model,
                chain,
                detail,
            } => write!(f, "model '{model}': fused chain '{chain}' failed: {detail}"),
            ExecError::Reference {
                model,
                node,
                detail,
            } => write!(f, "model '{model}': operator '{node}' failed: {detail}"),
            ExecError::Overloaded { model, queue_cap } => write!(
                f,
                "model '{model}': admission queue full ({queue_cap} pending requests)"
            ),
            ExecError::DeadlineExceeded { model, deadline } => write!(
                f,
                "model '{model}': request deadline of {deadline:?} expired while queued"
            ),
        }
    }
}

impl std::error::Error for ExecError {}

/// Options of one inference request.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunOptions {
    /// Seed materializing the model's weights (deterministic per seed).
    pub seed: u64,
}

impl RunOptions {
    /// Options with an explicit weight seed.
    pub fn seeded(seed: u64) -> Self {
        RunOptions { seed }
    }
}

#[derive(Debug, Clone)]
struct TaggedTensor {
    tensor: HostTensor,
    dtype: Option<DType>,
}

/// The tensors of one inference request, addressable by input *name*
/// (preferred) or raw [`NodeId`] (compatibility with graph-level code).
///
/// ```
/// use mcfuser_core::InputSet;
/// use mcfuser_sim::HostTensor;
///
/// let inputs = InputSet::new()
///     .with("x", HostTensor::zeros(&[1, 64, 32]));
/// assert_eq!(inputs.len(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct InputSet {
    by_name: FxHashMap<String, TaggedTensor>,
    by_node: FxHashMap<NodeId, TaggedTensor>,
}

impl InputSet {
    /// An empty input set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builder-style insert by name.
    pub fn with(mut self, name: impl Into<String>, tensor: HostTensor) -> Self {
        self.insert(name, tensor);
        self
    }

    /// Bind a tensor to a named input.
    pub fn insert(&mut self, name: impl Into<String>, tensor: HostTensor) {
        self.by_name.insert(
            name.into(),
            TaggedTensor {
                tensor,
                dtype: None,
            },
        );
    }

    /// Bind a tensor and declare the storage precision it was produced
    /// in. A tag differing from the model's precision is rejected with
    /// [`ExecError::DTypeMismatch`] instead of silently quantizing.
    pub fn insert_typed(&mut self, name: impl Into<String>, tensor: HostTensor, dtype: DType) {
        self.by_name.insert(
            name.into(),
            TaggedTensor {
                tensor,
                dtype: Some(dtype),
            },
        );
    }

    /// Bind a tensor to an input by graph node id.
    pub fn insert_node(&mut self, node: NodeId, tensor: HostTensor) {
        self.by_node.insert(
            node,
            TaggedTensor {
                tensor,
                dtype: None,
            },
        );
    }

    /// Build a set from a `NodeId → tensor` map (the pre-plan calling
    /// convention — handy when the caller already addresses graph nodes
    /// by id, e.g. code migrating from the removed
    /// `FusionEngine::execute`).
    pub fn from_node_values(map: &FxHashMap<NodeId, HostTensor>) -> Self {
        InputSet {
            by_name: FxHashMap::default(),
            by_node: map
                .iter()
                .map(|(&n, t)| {
                    (
                        n,
                        TaggedTensor {
                            tensor: t.clone(),
                            dtype: None,
                        },
                    )
                })
                .collect(),
        }
    }

    /// Number of bound tensors.
    pub fn len(&self) -> usize {
        self.by_name.len() + self.by_node.len()
    }

    /// Whether nothing is bound.
    pub fn is_empty(&self) -> bool {
        self.by_name.is_empty() && self.by_node.is_empty()
    }

    fn lookup(&self, name: &str, node: NodeId) -> Option<&TaggedTensor> {
        self.by_name.get(name).or_else(|| self.by_node.get(&node))
    }
}

/// The named output tensors of one inference request, in graph output
/// declaration order.
#[derive(Debug, Clone, PartialEq)]
pub struct Outputs {
    entries: Vec<(String, NodeId, HostTensor)>,
}

impl Outputs {
    pub(crate) fn from_entries(entries: Vec<(String, NodeId, HostTensor)>) -> Self {
        Outputs { entries }
    }

    /// Look up an output by node name.
    pub fn get(&self, name: &str) -> Option<&HostTensor> {
        self.entries
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, _, t)| t)
    }

    /// The first declared output.
    pub fn primary(&self) -> &HostTensor {
        &self.entries[0].2
    }

    /// Iterate `(name, tensor)` pairs in declaration order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &HostTensor)> {
        self.entries.iter().map(|(n, _, t)| (n.as_str(), t))
    }

    /// Number of outputs.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the model declared no outputs.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// One declared activation input of a plan.
#[derive(Debug, Clone, PartialEq)]
pub struct InputBinding {
    /// Input name (the graph node's name).
    pub name: String,
    /// Graph node id (the compatibility key).
    pub node: NodeId,
    /// Expected tensor shape.
    pub shape: Vec<u64>,
}

/// One materialized node value during request execution.
///
/// The slot table used to hold owned `HostTensor`s only, which forced
/// `bind_inputs` to clone every request input up front. Slots are now
/// `Cow`-style: request inputs stay **borrowed** from the caller's
/// [`InputSet`], weights served from the runtime's per-(plan, seed)
/// cache are **shared** [`Arc`]s, and only values actually computed
/// during the request are **owned** (and recycled into the arena at
/// their last use).
#[derive(Debug)]
pub(crate) enum Value<'a> {
    /// Borrowed straight from the request's `InputSet` — zero-copy.
    Borrowed(&'a HostTensor),
    /// Shared from the runtime weight cache.
    Cached(Arc<HostTensor>),
    /// Computed during this request; recyclable into the arena.
    Owned(HostTensor),
}

impl Value<'_> {
    pub(crate) fn tensor(&self) -> &HostTensor {
        match self {
            Value::Borrowed(t) => t,
            Value::Cached(t) => t,
            Value::Owned(t) => t,
        }
    }

    fn into_tensor(self) -> HostTensor {
        match self {
            Value::Borrowed(t) => t.clone(),
            Value::Cached(t) => (*t).clone(),
            Value::Owned(t) => t,
        }
    }
}

/// Weight tensors of one `(plan, seed)` pair, derived lazily and shared
/// across requests. Owned by the runtime's bounded weight cache (see
/// [`RuntimeStats`](crate::RuntimeStats) for the hit/eviction counters);
/// execution paths receive an `Option<&WeightStore>` and fall back to
/// per-request derivation without one.
#[derive(Debug, Default)]
pub struct WeightStore {
    map: Mutex<FxHashMap<usize, Arc<HostTensor>>>,
    hits: Arc<AtomicU64>,
    misses: Arc<AtomicU64>,
}

impl WeightStore {
    /// A store that reports hits/misses into the given shared counters
    /// (the runtime-wide totals, so eviction never loses counts).
    pub(crate) fn with_counters(hits: Arc<AtomicU64>, misses: Arc<AtomicU64>) -> Self {
        WeightStore {
            map: Mutex::new(FxHashMap::default()),
            hits,
            misses,
        }
    }

    /// The weight tensor of `node`, deriving it on first use. Derivation
    /// runs outside the lock — racing requests may derive the same
    /// tensor twice, but [`mcfuser_ir::init_weight`] is deterministic,
    /// so the first insert wins and both see identical values.
    pub(crate) fn get_or_derive(&self, graph: &Graph, node: NodeId, seed: u64) -> Arc<HostTensor> {
        if let Some(t) = self.map.lock().get(&node.0) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return t.clone();
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let derived = Arc::new(mcfuser_ir::init_weight(graph, node, seed));
        self.map.lock().entry(node.0).or_insert(derived).clone()
    }

    /// Number of weight tensors currently materialized.
    pub fn len(&self) -> usize {
        self.map.lock().len()
    }

    /// Whether no weight has been derived yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// One frozen execution step of a plan, in topological order.
#[derive(Debug, Clone)]
pub enum Step {
    /// Run a fused kernel on the functional interpreter.
    Fused {
        /// The fused chain's name (diagnostics).
        chain: String,
        /// The lowered tile program, verified when the plan was built.
        program: Arc<VerifiedProgram>,
        /// Graph nodes feeding the kernel, in program-buffer order.
        data_inputs: Vec<NodeId>,
        /// Per data input: stored transposed relative to chain layout.
        transposed: Vec<bool>,
        /// The node whose value the kernel produces.
        output: NodeId,
        /// The produced tensor's graph shape.
        out_shape: Vec<u64>,
        /// The kernel's measured device time (virtual seconds).
        kernel_time: f64,
        /// Global-memory bytes the kernel moves per launch.
        bytes: f64,
    },
    /// Evaluate one operator on the CPU reference (weights, and the
    /// non-fused remainder priced by the fallback backend).
    Reference {
        /// The node to evaluate.
        node: NodeId,
        /// The fallback backend's device time for this operator
        /// (0 for weight materialization).
        time: f64,
        /// Approximate bytes moved (inputs read + output written).
        bytes: f64,
    },
}

/// How a plan's per-request work splits between fused kernels and
/// reference-interpreted operators — the observable effect of
/// prologue/epilogue stitching (a stitched plan moves elementwise
/// round trips from the `reference_*` columns into its fused kernels).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StepBreakdown {
    /// Fused-kernel steps per request.
    pub fused_steps: usize,
    /// Reference-interpreter steps per request (weights included).
    pub reference_steps: usize,
    /// Reference steps that are elementwise/normalization glue
    /// ([`Op::is_elementwise`]) — the activation round trips stitching
    /// exists to eliminate.
    pub reference_elementwise: usize,
    /// Global-memory bytes per request moved by fused kernels.
    pub fused_bytes: f64,
    /// Global-memory bytes per request moved by reference steps.
    pub reference_bytes: f64,
}

/// Per-node buffer sizing and liveness, computed once at plan time.
///
/// `release_after[s]` lists the nodes whose values have no consumer
/// after step `s` — execution recycles those buffers into the request's
/// arena immediately, so the peak number of live intermediates is
/// [`BufferPlan::peak_live`], not the node count.
#[derive(Debug, Clone)]
pub struct BufferPlan {
    slot_elems: Vec<u64>,
    release_after: Vec<Vec<NodeId>>,
    peak_live: usize,
    total_nodes: usize,
}

impl BufferPlan {
    /// Element count of a node's value slot.
    pub fn slot_elems(&self, node: NodeId) -> u64 {
        self.slot_elems[node.0]
    }

    pub(crate) fn release_after(&self, s: usize) -> &[NodeId] {
        &self.release_after[s]
    }

    /// Peak number of simultaneously materialized node values during one
    /// request (inputs, weights, and intermediates combined).
    pub fn peak_live(&self) -> usize {
        self.peak_live
    }

    /// Total graph nodes (for comparison against [`BufferPlan::peak_live`]).
    pub fn total_nodes(&self) -> usize {
        self.total_nodes
    }
}

/// A self-contained, immutable serving artifact: everything per-request
/// execution needs, frozen at plan time.
///
/// Produced by [`CompiledModel::plan`] (or
/// [`FusionEngine::compile_plan`](crate::FusionEngine::compile_plan)).
/// The plan is `Send + Sync`; requests execute from `&self` and are
/// deterministic per [`RunOptions::seed`].
#[derive(Debug, Clone)]
pub struct ExecutablePlan {
    pub(crate) name: String,
    pub(crate) graph: Graph,
    dtype: DType,
    inputs: Vec<InputBinding>,
    pub(crate) steps: Vec<Step>,
    fused_of: FxHashMap<NodeId, usize>,
    pub(crate) outputs: Vec<(String, NodeId)>,
    pub(crate) buffers: BufferPlan,
    virtual_time: f64,
    bytes_per_request: f64,
    pub(crate) device: DeviceSpec,
}

impl ExecutablePlan {
    /// The model name (the compiled graph's name).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The executor fused kernels run on. There is only one; this is
    /// kept only for the benchmark harness (`perfbench/`), which
    /// replays kernels through it.
    pub fn backend(&self) -> ExecBackend {
        ExecBackend::default()
    }

    /// The model's storage precision; typed inputs must match it.
    pub fn model_dtype(&self) -> DType {
        self.dtype
    }

    /// The declared activation inputs.
    pub fn inputs(&self) -> &[InputBinding] {
        &self.inputs
    }

    /// The declared outputs as `(name, shape)` pairs.
    pub fn output_specs(&self) -> Vec<(String, Vec<u64>)> {
        self.outputs
            .iter()
            .map(|(n, id)| (n.clone(), self.graph.node(*id).shape.clone()))
            .collect()
    }

    /// The frozen step list.
    pub fn steps(&self) -> &[Step] {
        &self.steps
    }

    /// Number of fused-kernel steps.
    pub fn fused_kernels(&self) -> usize {
        self.fused_of.len()
    }

    /// How this plan's steps and bytes split between fused kernels and
    /// the reference interpreter (see [`StepBreakdown`]).
    pub fn step_breakdown(&self) -> StepBreakdown {
        let mut b = StepBreakdown::default();
        for step in &self.steps {
            match step {
                Step::Fused { bytes, .. } => {
                    b.fused_steps += 1;
                    b.fused_bytes += bytes;
                }
                Step::Reference { node, bytes, .. } => {
                    b.reference_steps += 1;
                    b.reference_bytes += bytes;
                    if self.graph.node(*node).op.is_elementwise() {
                        b.reference_elementwise += 1;
                    }
                }
            }
        }
        b
    }

    /// The buffer plan (slot sizes + liveness).
    pub fn buffer_plan(&self) -> &BufferPlan {
        &self.buffers
    }

    /// The request's deterministic virtual latency: fused kernel times
    /// plus the fallback backend's per-operator times.
    pub fn virtual_time_per_request(&self) -> f64 {
        self.virtual_time
    }

    /// Approximate bytes one request moves through global memory.
    pub fn bytes_per_request(&self) -> f64 {
        self.bytes_per_request
    }

    /// The device the plan's kernels were tuned for (also prices widened
    /// batched launches — see [`BatchedPlan`](crate::BatchedPlan)).
    pub fn device(&self) -> &DeviceSpec {
        &self.device
    }

    /// Execute one request. Equivalent to
    /// [`ExecutablePlan::execute_in`] with a throwaway arena.
    pub fn execute(&self, inputs: &InputSet, opts: RunOptions) -> Result<Outputs, ExecError> {
        let mut arena = BufferArena::new();
        self.execute_in(inputs, opts, &mut arena)
    }

    /// Execute one request, drawing and recycling intermediate buffers
    /// through a caller-provided arena (the hot path under a serving
    /// loop — see [`ModelRuntime`](crate::ModelRuntime)).
    pub fn execute_in(
        &self,
        inputs: &InputSet,
        opts: RunOptions,
        arena: &mut BufferArena,
    ) -> Result<Outputs, ExecError> {
        self.execute_cached(inputs, opts, arena, None)
    }

    /// [`ExecutablePlan::execute_in`] with an optional per-(plan, seed)
    /// weight store: `Op::Weight` reference steps resolve through the
    /// store instead of re-deriving the tensor from the seed on every
    /// request. The runtime's `infer`/`submit` paths always pass one.
    pub(crate) fn execute_cached(
        &self,
        inputs: &InputSet,
        opts: RunOptions,
        arena: &mut BufferArena,
        weights: Option<&WeightStore>,
    ) -> Result<Outputs, ExecError> {
        let mut values = self.bind_inputs(inputs)?;
        let empty: FxHashMap<NodeId, HostTensor> = FxHashMap::default();
        for (s, step) in self.steps.iter().enumerate() {
            match step {
                Step::Reference { node, .. } => {
                    let v = self.eval_reference(*node, &values, &empty, opts.seed, weights)?;
                    values[node.0] = Some(v);
                }
                Step::Fused { .. } => self.run_fused_step(s, &mut values, arena)?,
            }
            for node in &self.buffers.release_after[s] {
                if let Some(Value::Owned(t)) = values[node.0].take() {
                    arena.put(t.data);
                }
            }
        }
        // Move outputs out of the value table (it is dropped right
        // after); clone only when the same node is declared again later.
        Ok(Outputs {
            entries: self.collect_outputs(&mut values),
        })
    }

    /// Evaluate one reference step, serving `Op::Weight` nodes from the
    /// weight store when one is attached.
    pub(crate) fn eval_reference(
        &self,
        node: NodeId,
        values: &[Option<Value<'_>>],
        empty: &FxHashMap<NodeId, HostTensor>,
        seed: u64,
        weights: Option<&WeightStore>,
    ) -> Result<Value<'static>, ExecError> {
        if let Some(store) = weights {
            if matches!(self.graph.node(node).op, Op::Weight) {
                return Ok(Value::Cached(store.get_or_derive(&self.graph, node, seed)));
            }
        }
        mcfuser_ir::evaluate_node_with(
            &self.graph,
            node,
            &|n| values[n.0].as_ref().map(Value::tensor),
            empty,
            seed,
        )
        .map(Value::Owned)
        .map_err(|e| self.reference_error(node, e))
    }

    /// Drain the declared outputs from a value table into `(name, node,
    /// tensor)` entries, cloning only when a node is declared again
    /// later (or when the value is borrowed/shared rather than owned).
    pub(crate) fn collect_outputs(
        &self,
        values: &mut [Option<Value<'_>>],
    ) -> Vec<(String, NodeId, HostTensor)> {
        let mut entries = Vec::with_capacity(self.outputs.len());
        for (k, (name, id)) in self.outputs.iter().enumerate() {
            let declared_again = self.outputs[k + 1..].iter().any(|(_, id2)| id2 == id);
            let t = if declared_again {
                values[id.0]
                    .as_ref()
                    .expect("outputs are never released")
                    .tensor()
                    .clone()
            } else {
                values[id.0]
                    .take()
                    .expect("outputs are never released")
                    .into_tensor()
            };
            entries.push((name.clone(), *id, t));
        }
        entries
    }

    /// Run the fused step `steps[s]`: stage its data inputs into an
    /// arena-backed storage, execute the kernel, publish the output into
    /// the value table.
    fn run_fused_step(
        &self,
        s: usize,
        values: &mut [Option<Value<'_>>],
        arena: &mut BufferArena,
    ) -> Result<(), ExecError> {
        let Step::Fused {
            chain,
            program,
            data_inputs,
            transposed,
            output,
            out_shape,
            ..
        } = &self.steps[s]
        else {
            unreachable!("run_fused_step is only called on fused steps");
        };
        let mut st = TensorStorage::for_program_in(program, arena);
        for (j, &node) in data_inputs.iter().enumerate() {
            let src = values[node.0].as_ref().expect("topological order").tensor();
            // Each input is copied, or transposed, straight into its
            // arena buffer. (Chain buffers are [batch, rows, cols]; graph
            // tensors may be flat 2-D with batch = 1 — staging is by
            // element count.)
            let dst = &mut st.tensors[j];
            if dst.data.len() != src.data.len() {
                return Err(ExecError::Kernel {
                    model: self.name.clone(),
                    chain: chain.clone(),
                    detail: format!(
                        "input {j} holds {} elements, kernel expects {}",
                        src.data.len(),
                        dst.data.len()
                    ),
                });
            }
            if transposed.get(j).copied().unwrap_or(false) {
                src.transpose_last2_into(&mut dst.data);
            } else {
                dst.data.copy_from_slice(&src.data);
            }
        }
        execute_with_arena(program, &mut st, arena).map_err(|e| ExecError::Kernel {
            model: self.name.clone(),
            chain: chain.clone(),
            detail: e.to_string(),
        })?;
        let out_data = std::mem::take(&mut st.tensors.last_mut().expect("output buffer").data);
        st.recycle(arena);
        values[output.0] = Some(Value::Owned(HostTensor::from_vec(out_shape, out_data)));
        Ok(())
    }

    /// Validate the request's inputs against the binding table and seed
    /// the value slots: missing inputs, undeclared inputs,
    /// declared-shape mismatches, and wrong dtype tags are all
    /// structured errors (the serving API's strict contract).
    ///
    /// The returned slots *borrow* the request tensors (`Cow`-style) —
    /// binding no longer clones each input; a fused step stages the
    /// borrowed data straight into its arena-backed kernel buffer.
    pub(crate) fn bind_inputs<'a>(
        &self,
        inputs: &'a InputSet,
    ) -> Result<Vec<Option<Value<'a>>>, ExecError> {
        for name in inputs.by_name.keys() {
            if !self.inputs.iter().any(|b| &b.name == name) {
                return Err(ExecError::UnknownInput {
                    model: self.name.clone(),
                    name: name.clone(),
                });
            }
        }
        for node in inputs.by_node.keys() {
            if !self.inputs.iter().any(|b| b.node == *node) {
                return Err(ExecError::UnknownInput {
                    model: self.name.clone(),
                    name: format!("node #{}", node.0),
                });
            }
        }
        let mut values: Vec<Option<Value<'a>>> =
            (0..self.graph.nodes.len()).map(|_| None).collect();
        for binding in &self.inputs {
            let tagged = inputs.lookup(&binding.name, binding.node).ok_or_else(|| {
                ExecError::MissingInput {
                    model: self.name.clone(),
                    name: binding.name.clone(),
                }
            })?;
            if let Some(dt) = tagged.dtype {
                if dt != self.dtype {
                    return Err(ExecError::DTypeMismatch {
                        model: self.name.clone(),
                        node: binding.name.clone(),
                        expected: self.dtype,
                        got: dt,
                    });
                }
            }
            if tagged.tensor.shape != binding.shape {
                return Err(ExecError::ShapeMismatch {
                    model: self.name.clone(),
                    node: binding.name.clone(),
                    expected: binding.shape.clone(),
                    got: tagged.tensor.shape.clone(),
                });
            }
            values[binding.node.0] = Some(Value::Borrowed(&tagged.tensor));
        }
        Ok(values)
    }

    fn reference_error(&self, node: NodeId, e: GraphError) -> ExecError {
        ExecError::Reference {
            model: self.name.clone(),
            node: self.graph.node(node).name.clone(),
            detail: e.to_string(),
        }
    }
}

impl CompiledModel {
    /// Freeze this compiled model against its source graph into a
    /// self-contained [`ExecutablePlan`]: topological step list, named
    /// input bindings, per-node shapes, and the buffer plan with
    /// last-use liveness — everything per-request execution would
    /// otherwise recompute.
    ///
    /// The binding table is name-keyed, so the graph's activation
    /// inputs must have unique names; duplicates are rejected as
    /// [`ExecError::ModelGraphMismatch`].
    pub fn plan(&self, graph: &Graph) -> Result<ExecutablePlan, ExecError> {
        let mismatch = |detail: String| ExecError::ModelGraphMismatch {
            model: self.name.clone(),
            graph: graph.name.clone(),
            detail,
        };
        if self.name != graph.name {
            return Err(mismatch("model and graph names differ".into()));
        }
        if self.graph_fingerprint != crate::engine::graph_fingerprint(graph) {
            return Err(mismatch(
                "graph structure differs from the one this model was compiled from".into(),
            ));
        }
        let n = graph.nodes.len();
        let in_range = |id: NodeId| id.0 < n;
        let mut programs: Vec<Arc<VerifiedProgram>> = Vec::with_capacity(self.chains.len());
        for cc in &self.chains {
            if !in_range(cc.output)
                || cc.nodes.iter().any(|&x| !in_range(x))
                || cc.data_inputs.iter().any(|&x| !in_range(x))
            {
                return Err(mismatch(format!(
                    "chain '{}' references nodes outside the graph",
                    cc.chain.name
                )));
            }
            // Execution stages data_inputs 1:1 onto the program's
            // input-role buffers (which the arena hands out unzeroed) —
            // the arities must agree exactly.
            let declared = cc
                .tuned
                .kernel
                .program
                .buffers
                .iter()
                .filter(|b| b.role == BufferRole::Input)
                .count();
            if declared != cc.data_inputs.len() {
                return Err(mismatch(format!(
                    "chain '{}' binds {} graph inputs to {} kernel input buffers",
                    cc.chain.name,
                    cc.data_inputs.len(),
                    declared
                )));
            }
            // The one gate before execution: every program this plan
            // would serve must pass the static verifier, whatever path
            // it arrived by (fresh tune, cache rehydration, deserialized
            // model, hand-assembled CompiledModel). The witness it
            // yields is what the plan's launches run.
            let program = VerifiedProgram::new(cc.tuned.kernel.program.clone()).map_err(|e| {
                ExecError::Verify {
                    model: self.name.clone(),
                    chain: cc.chain.name.clone(),
                    detail: e.to_string(),
                }
            })?;
            programs.push(Arc::new(program));
        }

        // Interior chain nodes: replaced by the fused kernel, never
        // materialized. Validate nothing outside the chain reads them.
        let mut fused_output: FxHashMap<NodeId, usize> = FxHashMap::default();
        let mut interior: FxHashSet<NodeId> = FxHashSet::default();
        for (ci, cc) in self.chains.iter().enumerate() {
            fused_output.insert(cc.output, ci);
            for &node in &cc.nodes {
                if node != cc.output {
                    interior.insert(node);
                }
            }
        }
        for &out in &graph.outputs {
            if interior.contains(&out) {
                return Err(mismatch(format!(
                    "graph output '{}' is fused away as a chain interior",
                    graph.node(out).name
                )));
            }
        }

        // Named input bindings (names must be unique to key by name).
        let bindings = graph.input_bindings();
        {
            let mut seen: FxHashSet<&str> = FxHashSet::default();
            for (name, _) in &bindings {
                if !seen.insert(name.as_str()) {
                    return Err(mismatch(format!("duplicate input name '{name}'")));
                }
            }
        }
        let inputs: Vec<InputBinding> = bindings
            .into_iter()
            .map(|(name, node)| InputBinding {
                shape: graph.node(node).shape.clone(),
                name,
                node,
            })
            .collect();

        // The step list, in graph (topological) order.
        let rest_time: FxHashMap<NodeId, f64> = self.rest_times.iter().copied().collect();
        let elem_bytes = graph.dtype.size_bytes() as f64;
        let mut steps: Vec<Step> = Vec::new();
        let mut fused_of: FxHashMap<NodeId, usize> = FxHashMap::default();
        let mut virtual_time = 0.0;
        let mut bytes_per_request = 0.0;
        for (i, node) in graph.nodes.iter().enumerate() {
            let id = NodeId(i);
            if matches!(node.op, Op::Input) || interior.contains(&id) {
                continue;
            }
            if let Some(&ci) = fused_output.get(&id) {
                let cc = &self.chains[ci];
                let prof = &cc.tuned.profile;
                virtual_time += prof.time;
                bytes_per_request += prof.gmem_bytes;
                fused_of.insert(id, steps.len());
                steps.push(Step::Fused {
                    chain: cc.chain.name.clone(),
                    program: Arc::clone(&programs[ci]),
                    data_inputs: cc.data_inputs.clone(),
                    transposed: cc.transposed_inputs.clone(),
                    output: id,
                    out_shape: node.shape.clone(),
                    kernel_time: prof.time,
                    bytes: prof.gmem_bytes,
                });
            } else {
                let time = rest_time.get(&id).copied().unwrap_or(0.0);
                let bytes = if matches!(node.op, Op::Weight) {
                    0.0
                } else {
                    let read: u64 = node
                        .inputs
                        .iter()
                        .map(|&x| graph.node(x).shape.iter().product::<u64>())
                        .sum();
                    let written: u64 = node.shape.iter().product();
                    (read + written) as f64 * elem_bytes
                };
                virtual_time += time;
                bytes_per_request += bytes;
                steps.push(Step::Reference {
                    node: id,
                    time,
                    bytes,
                });
            }
        }

        // Liveness: the last step reading each node. Graph outputs (and
        // unread bound inputs) are never released. A step reading a
        // fused-away interior node would dereference a value that is
        // never materialized — reject the pair as inconsistent.
        let keep: FxHashSet<NodeId> = graph.outputs.iter().copied().collect();
        let mut last_use: FxHashMap<NodeId, usize> = FxHashMap::default();
        for (s, step) in steps.iter().enumerate() {
            let reads: &[NodeId] = match step {
                Step::Fused { data_inputs, .. } => data_inputs,
                Step::Reference { node, .. } => &graph.node(*node).inputs,
            };
            for &r in reads {
                if interior.contains(&r) {
                    return Err(mismatch(format!(
                        "a step consumes fused-interior node '{}'",
                        graph.node(r).name
                    )));
                }
                last_use.insert(r, s);
            }
        }
        let mut release_after: Vec<Vec<NodeId>> = vec![Vec::new(); steps.len()];
        for (&node, &s) in &last_use {
            if !keep.contains(&node) {
                release_after[s].push(node);
            }
        }
        for r in &mut release_after {
            r.sort_unstable();
        }

        // Peak-liveness simulation: bound inputs are live up front, each
        // step materializes one value, releases happen right after.
        let mut live = inputs.len();
        let mut peak_live = live;
        for (s, _) in steps.iter().enumerate() {
            live += 1;
            peak_live = peak_live.max(live);
            live -= release_after[s].len();
        }

        let buffers = BufferPlan {
            slot_elems: graph
                .nodes
                .iter()
                .map(|nd| nd.shape.iter().product())
                .collect(),
            release_after,
            peak_live,
            total_nodes: n,
        };

        Ok(ExecutablePlan {
            name: self.name.clone(),
            dtype: graph.dtype,
            inputs,
            steps,
            fused_of,
            outputs: graph
                .outputs
                .iter()
                .map(|&id| (graph.node(id).name.clone(), id))
                .collect(),
            buffers,
            virtual_time,
            bytes_per_request,
            graph: graph.clone(),
            device: self.device.clone(),
        })
    }
}
