//! Widened-batch execution: coalesce `k` same-plan requests into one
//! fused launch per step.
//!
//! The MCFuser pipeline tunes a fused kernel for a *single* request
//! shape. Under a serving load the same plan is executed over and over,
//! and every launch re-pays the per-kernel launch overhead and
//! re-streams the (identical) weight tiles from DRAM. A
//! [`BatchedPlan`] removes both costs without re-tuning anything:
//!
//! * **Widening.** Every lowered program's leading grid dimension is
//!   the chain batch (`VarRef::Grid(0)`, see `lower::lower`), and every
//!   per-request tensor access carries a leading `{Grid(0), tile: 1}`
//!   index. Multiplying `grid[0]` by `k` and the leading extent of
//!   every per-request buffer by `k` turns the program into one launch
//!   that processes `k` stacked requests; request `r` owns batch slots
//!   `[r·B, (r+1)·B)`, so staging and scatter are contiguous copies.
//! * **Weight sharing.** Buffers fed by [`Op::Weight`] nodes keep
//!   their shape; their leading batch index is rewritten to
//!   [`VarRef::Zero`] so all `k` requests read the *same* tiles. This
//!   is mandatory, not an optimization: the interpreter zero-fills
//!   out-of-bounds loads, so a widened grid over an unwidened weight
//!   buffer would silently corrupt results. The rewrite also lets the
//!   timing model charge the weight's DRAM bytes once per batch
//!   instead of once per request — the amortization that makes
//!   batching pay.
//!
//! Widened programs are re-[`validate`](TileProgram::validate)d and
//! re-[`measure`]d per width, and cached per `(plan, width)`.
//! Programs that widening cannot prove safe (a `Temp` buffer, a
//! non-weight input without a leading batch index, a batch-replicated
//! weight) fall back to serial execution — correctness never depends
//! on widening succeeding.
//!
//! Outputs are **bit-identical** to serial execution by construction:
//! blocks of the functional interpreter execute independently, so a
//! widened launch performs exactly the per-request arithmetic in the
//! same order within each request's slots.

use std::sync::Arc;

use parking_lot::Mutex;
use rustc_hash::FxHashMap;

use mcfuser_ir::Op;
use mcfuser_sim::{
    execute_with_arena, measure, BlockStmt, BufferArena, BufferRole, HostTensor, TensorStorage,
    TileAccess, TileIndex, TileProgram, VarRef,
};

use crate::plan::{
    ExecError, ExecutablePlan, InputSet, Outputs, RunOptions, Step, Value, WeightStore,
};

/// One fused step widened to a fixed batch width.
#[derive(Debug)]
pub(crate) struct WidenedStep {
    /// The widened, re-validated tile program.
    program: Arc<TileProgram>,
    /// Per data input: `true` if the buffer is shared across requests
    /// (weights/biases, staged once), `false` if per-request (staged at
    /// `r * slot_elems`).
    shared: Vec<bool>,
    /// Per data input: elements one request (or the shared tensor)
    /// occupies in the widened buffer.
    slot_elems: Vec<usize>,
    /// Elements of one request's output slice.
    out_elems: usize,
    /// Measured virtual time of the widened launch.
    time: f64,
    /// Global-memory bytes of the widened launch.
    bytes: f64,
}

/// A whole plan widened to one batch width: the widened fused steps
/// plus the batch's virtual span.
#[derive(Debug)]
pub(crate) struct WidenedPlan {
    /// Widened fused steps, keyed by step index.
    fused: FxHashMap<usize, WidenedStep>,
    /// Virtual time one drained batch of this width occupies on the
    /// device: widened fused launches once, reference steps `k` times.
    pub(crate) virtual_time: f64,
    /// Global-memory bytes the batch moves.
    pub(crate) bytes: f64,
}

/// Batched execution wrapper around an [`ExecutablePlan`]: widens the
/// plan's fused programs per batch width (cached), executes `k`
/// requests in one launch per step, and scatters each request's output
/// slice back out.
///
/// Built once per registered model by the runtime's admission queue
/// (see [`ModelRuntime::submit`](crate::ModelRuntime::submit)); also
/// usable directly for ad-hoc batched execution.
#[derive(Debug)]
pub struct BatchedPlan {
    plan: Arc<ExecutablePlan>,
    /// Whether every fused step widens safely (probed once at width 2).
    batchable: bool,
    widths: Mutex<FxHashMap<usize, Arc<WidenedPlan>>>,
}

impl BatchedPlan {
    /// Wrap a plan, probing once whether its fused steps widen safely.
    pub fn new(plan: Arc<ExecutablePlan>) -> Self {
        let batchable = widen_plan(&plan, 2).is_some();
        BatchedPlan {
            plan,
            batchable,
            widths: Mutex::new(FxHashMap::default()),
        }
    }

    /// The underlying serial plan.
    pub fn plan(&self) -> &Arc<ExecutablePlan> {
        &self.plan
    }

    /// Whether widening is available (otherwise every batch runs
    /// serially, request by request).
    pub fn is_batchable(&self) -> bool {
        self.batchable
    }

    /// The widened plan for `width`, built and cached on first use.
    pub(crate) fn widened(&self, width: usize) -> Option<Arc<WidenedPlan>> {
        if !self.batchable || width <= 1 {
            return None;
        }
        let mut widths = self.widths.lock();
        if let Some(w) = widths.get(&width) {
            return Some(w.clone());
        }
        let w = Arc::new(widen_plan(&self.plan, width)?);
        widths.insert(width, w.clone());
        Some(w)
    }

    /// Virtual `(time, bytes)` one drained batch of `k` requests
    /// occupies on the device. Falls back to `k ×` the serial numbers
    /// when the plan does not widen.
    pub fn batch_span(&self, k: usize) -> (f64, f64) {
        match self.widened(k) {
            Some(w) => (w.virtual_time, w.bytes),
            None => (
                k as f64 * self.plan.virtual_time_per_request(),
                k as f64 * self.plan.bytes_per_request(),
            ),
        }
    }

    /// Execute `requests` as one widened batch, returning one
    /// [`Outputs`] per request in order. Bit-identical to executing
    /// each request through [`ExecutablePlan::execute_in`] with the
    /// same seed.
    ///
    /// Reference steps evaluate per request (weights resolve through
    /// the shared store, so requests 2..k are cache hits); fused steps
    /// stage shared weights once and each request's activations into
    /// its `[r·B, (r+1)·B)` slots, launch the widened kernel once, and
    /// scatter the output back per request.
    pub fn execute_batch(
        &self,
        requests: &[&InputSet],
        opts: RunOptions,
        arena: &mut BufferArena,
        weights: Option<&WeightStore>,
    ) -> Result<Vec<Outputs>, ExecError> {
        if requests.is_empty() {
            return Ok(Vec::new());
        }
        let plan = &*self.plan;
        let widened = self.widened(requests.len());
        let Some(widened) = widened else {
            // Unbatchable (or a batch of one): serial, same arena.
            return requests
                .iter()
                .map(|r| plan.execute_cached(r, opts, arena, weights))
                .collect();
        };

        let mut tables: Vec<Vec<Option<Value<'_>>>> = requests
            .iter()
            .map(|r| plan.bind_inputs(r))
            .collect::<Result<_, _>>()?;
        let empty = FxHashMap::default();
        for (s, step) in plan.steps.iter().enumerate() {
            match step {
                Step::Reference { node, .. } => {
                    for table in &mut tables {
                        let v = plan.eval_reference(*node, table, &empty, opts.seed, weights)?;
                        table[node.0] = Some(v);
                    }
                }
                Step::Fused {
                    chain,
                    data_inputs,
                    transposed,
                    output,
                    out_shape,
                    ..
                } => {
                    let ws = widened
                        .fused
                        .get(&s)
                        .expect("every fused step of a widened plan is widened");
                    let mut st = TensorStorage::for_program_in(&ws.program, arena);
                    for (j, &node) in data_inputs.iter().enumerate() {
                        let flip = transposed.get(j).copied().unwrap_or(false);
                        if ws.shared[j] {
                            // Weights are identical across the batch
                            // (same plan, same seed): stage once from
                            // the first request's table.
                            stage_slice(&mut st, j, 0, &tables[0], node.0, flip, ws.slot_elems[j])
                                .map_err(|detail| self.kernel_error(chain, detail))?;
                        } else {
                            for (r, table) in tables.iter().enumerate() {
                                stage_slice(
                                    &mut st,
                                    j,
                                    r * ws.slot_elems[j],
                                    table,
                                    node.0,
                                    flip,
                                    ws.slot_elems[j],
                                )
                                .map_err(|detail| self.kernel_error(chain, detail))?;
                            }
                        }
                    }
                    execute_with_arena(&ws.program, &mut st, arena)
                        .map_err(|e| self.kernel_error(chain, e.to_string()))?;
                    let out_data =
                        std::mem::take(&mut st.tensors.last_mut().expect("output buffer").data);
                    st.recycle(arena);
                    for (r, table) in tables.iter_mut().enumerate() {
                        let slice = &out_data[r * ws.out_elems..(r + 1) * ws.out_elems];
                        table[output.0] = Some(Value::Owned(HostTensor::from_vec(
                            out_shape,
                            slice.to_vec(),
                        )));
                    }
                    arena.put(out_data);
                }
            }
            for node in plan.buffers.release_after(s) {
                for table in &mut tables {
                    if let Some(Value::Owned(t)) = table[node.0].take() {
                        arena.put(t.data);
                    }
                }
            }
        }
        Ok(tables
            .iter_mut()
            .map(|t| Outputs::from_entries(plan.collect_outputs(t)))
            .collect())
    }

    fn kernel_error(&self, chain: &str, detail: String) -> ExecError {
        ExecError::Kernel {
            model: self.plan.name().to_string(),
            chain: chain.to_string(),
            detail,
        }
    }
}

/// Stage one value-table entry into buffer `buf` of `st` at `offset`,
/// transposing if the serial plan stages it transposed.
fn stage_slice(
    st: &mut TensorStorage,
    buf: usize,
    offset: usize,
    table: &[Option<Value<'_>>],
    node: usize,
    transposed: bool,
    expect_elems: usize,
) -> Result<(), String> {
    let src = table[node]
        .as_ref()
        .expect("topological order: input staged before use")
        .tensor();
    let flipped;
    let data: &[f32] = if transposed {
        flipped = src.transpose_last2();
        &flipped.data
    } else {
        &src.data
    };
    if data.len() != expect_elems {
        return Err(format!(
            "batched input #{buf} holds {} elements, widened slot expects {expect_elems}",
            data.len()
        ));
    }
    st.stage_at(buf, offset, data).map_err(|e| e.to_string())
}

/// Widen every fused step of `plan` to `width`, summing the batch's
/// virtual span (widened launches once, reference steps `width` times).
/// `None` if any fused step cannot be proven safe to widen.
fn widen_plan(plan: &ExecutablePlan, width: usize) -> Option<WidenedPlan> {
    let mut fused = FxHashMap::default();
    let mut time = 0.0;
    let mut bytes = 0.0;
    for (s, step) in plan.steps.iter().enumerate() {
        match step {
            Step::Fused { .. } => {
                let ws = widen_step(plan, s, width)?;
                time += ws.time;
                bytes += ws.bytes;
                fused.insert(s, ws);
            }
            Step::Reference {
                time: t, bytes: b, ..
            } => {
                time += width as f64 * t;
                bytes += width as f64 * b;
            }
        }
    }
    Some(WidenedPlan {
        fused,
        virtual_time: time,
        bytes,
    })
}

/// Widen fused step `s` to `width`: multiply the leading grid dim and
/// every per-request buffer's leading extent by `width`; rewrite shared
/// weight buffers' leading batch index to [`VarRef::Zero`]. `None` if
/// the program's structure does not fit the widening contract.
fn widen_step(plan: &ExecutablePlan, s: usize, width: usize) -> Option<WidenedStep> {
    let Step::Fused {
        program,
        data_inputs,
        ..
    } = &plan.steps[s]
    else {
        return None;
    };
    let base: &TileProgram = program;
    if base.grid.is_empty() || width == 0 {
        return None;
    }
    let batch = base.grid[0];

    // Classify each buffer's leading index across all of its accesses.
    let nbufs = base.buffers.len();
    let mut any_access = vec![false; nbufs];
    let mut all_batch_led = vec![true; nbufs];
    visit_accesses(&base.body, &mut |a: &TileAccess| {
        let b = a.buf.0;
        any_access[b] = true;
        all_batch_led[b] &= leading_batch(a);
    });

    let mut p = (**program).clone();
    p.name = format!("{}@x{width}", p.name);
    p.grid[0] = batch * width as u64;

    let mut shared = vec![false; data_inputs.len()];
    let mut slot_elems = vec![0usize; data_inputs.len()];
    let mut out_elems = 0usize;
    let mut rewrite_zero = vec![false; nbufs];
    let mut j = 0usize;
    for (bi, buf) in p.buffers.iter_mut().enumerate() {
        match buf.role {
            // Temps only appear in unfused pipelines; a fused program
            // carrying one is outside the widening contract.
            BufferRole::Temp => return None,
            BufferRole::Output => {
                if !any_access[bi] || !all_batch_led[bi] || buf.shape.first() != Some(&batch) {
                    return None;
                }
                out_elems = buf.len() as usize;
                buf.shape[0] = batch * width as u64;
            }
            BufferRole::Input => {
                let node = *data_inputs.get(j)?;
                let elems = buf.len() as usize;
                let is_weight = matches!(plan.graph.node(node).op, Op::Weight);
                if is_weight && buf.shape.first() == Some(&1) && buf.shape.len() >= 2 {
                    // A broadcast weight slab `[1, r, c]`: all requests
                    // read tile 0 — retarget the batch index to Zero.
                    shared[j] = true;
                    slot_elems[j] = elems;
                    rewrite_zero[bi] = true;
                } else if is_weight && !any_access[bi] {
                    shared[j] = true;
                    slot_elems[j] = elems;
                } else if is_weight && all_batch_led[bi] {
                    // Batch-replicated weight (`shape[0] == batch > 1`)
                    // — lowering never emits this; bail rather than
                    // guess.
                    return None;
                } else if is_weight {
                    // Bias-style aux: indexed by column only, already
                    // request-independent.
                    shared[j] = true;
                    slot_elems[j] = elems;
                } else if !any_access[bi] {
                    // Dead activation input: never read, stage once.
                    shared[j] = true;
                    slot_elems[j] = elems;
                } else if all_batch_led[bi] && buf.shape.first() == Some(&batch) {
                    slot_elems[j] = elems;
                    buf.shape[0] = batch * width as u64;
                } else {
                    return None;
                }
                j += 1;
            }
        }
    }
    if j != data_inputs.len() || out_elems == 0 {
        return None;
    }

    if rewrite_zero.iter().any(|&r| r) {
        visit_accesses_mut(&mut p.body, &mut |a: &mut TileAccess| {
            if rewrite_zero[a.buf.0] && leading_batch(a) {
                a.indices[0].var = VarRef::Zero;
            }
        });
    }
    p.validate().ok()?;
    // The widened program must independently re-prove the full static
    // contract — bounds, def-use, cross-slot race freedom — plus the
    // widening special case: every `VarRef::Zero`-pinned shared slab is
    // read-only in all `width` slots. An unprovable widening falls back
    // to serial execution rather than launching a coalesced kernel the
    // verifier cannot vouch for.
    mcfuser_sim::verify::verify_widened(&p).ok()?;
    let prof = measure(&p, plan.device());
    Some(WidenedStep {
        program: Arc::new(p),
        shared,
        slot_elems,
        out_elems,
        time: prof.time,
        bytes: prof.gmem_bytes,
    })
}

/// Whether an access's leading index is the unit-tile batch index the
/// lowering emits (`{Grid(0), tile: 1}`).
fn leading_batch(a: &TileAccess) -> bool {
    matches!(
        a.indices.first(),
        Some(TileIndex {
            var: VarRef::Grid(0),
            tile: 1,
        })
    )
}

/// Visit every global-buffer access of a statement list (including the
/// raw-global reads of the stitched prologue/epilogue statements — missing
/// one here would silently misclassify its buffer during widening).
fn visit_accesses(body: &[BlockStmt], f: &mut impl FnMut(&TileAccess)) {
    for stmt in body {
        match stmt {
            BlockStmt::Loop { body, .. } => visit_accesses(body, f),
            BlockStmt::Load { src, .. } => f(src),
            BlockStmt::Store { dst, .. } => f(dst),
            BlockStmt::AddGlobal { src, .. } => f(src),
            BlockStmt::RowNormStats { a, residual, .. }
            | BlockStmt::AddRecomputedNorm { a, residual, .. } => {
                f(a);
                if let Some(res) = residual {
                    f(res);
                }
            }
            _ => {}
        }
    }
}

/// Mutably visit every global-buffer access of a statement list.
fn visit_accesses_mut(body: &mut [BlockStmt], f: &mut impl FnMut(&mut TileAccess)) {
    for stmt in body {
        match stmt {
            BlockStmt::Loop { body, .. } => visit_accesses_mut(body, f),
            BlockStmt::Load { src, .. } => f(src),
            BlockStmt::Store { dst, .. } => f(dst),
            BlockStmt::AddGlobal { src, .. } => f(src),
            BlockStmt::RowNormStats { a, residual, .. }
            | BlockStmt::AddRecomputedNorm { a, residual, .. } => {
                f(a);
                if let Some(res) = residual {
                    f(res);
                }
            }
            _ => {}
        }
    }
}
