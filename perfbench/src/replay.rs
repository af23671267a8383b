//! Layer-by-layer replay of one request through a frozen
//! [`ExecutablePlan`], using only public functions: the reference lane
//! (`mcfuser_ir::evaluate_node_with`, weights memoized the way the
//! runtime's weight store memoizes them), staging
//! (`TensorStorage::for_program_in` plus input copies), and the plan's
//! execution backend (`ExecBackend::executor().execute_with_arena`).
//!
//! The replay computes the same values as `ModelRuntime::infer` — the
//! tests check bit equality — so its spans split a request's wall time
//! by layer.

use std::collections::HashMap;
use std::sync::Arc;

use mcfuser_core::{ExecutablePlan, Outputs, Step};
use mcfuser_ir::{evaluate_node_with, init_weight, Graph, NodeId, Op};
use mcfuser_sim::{BufferArena, HostTensor, TensorStorage};
use rustc_hash::FxHashMap;

use crate::trace::Tracer;

/// Weight tensors derived once per `(model, seed, node)` and shared by
/// every later replay, like the runtime's per-`(model, seed)` store.
#[derive(Default)]
pub struct WeightMemo {
    map: HashMap<(String, u64, usize), Arc<HostTensor>>,
}

enum Value<'a> {
    Input(&'a HostTensor),
    Shared(Arc<HostTensor>),
    Owned(HostTensor),
}

impl Value<'_> {
    fn tensor(&self) -> &HostTensor {
        match self {
            Value::Input(t) => t,
            Value::Shared(t) => t,
            Value::Owned(t) => t,
        }
    }
}

/// Replay one request of `plan` (registered as `model`, compiled from
/// `graph`) on `inputs`, returning the graph outputs in declaration
/// order. Spans `ir.reference`, `core.plan.stage` and `sim.exec` are
/// recorded under `parent` for op `op`, with counters
/// `ir.reference.steps`, `sim.exec.launches` and `sim.exec.bytes`.
#[allow(clippy::too_many_arguments)]
pub fn replay_plan(
    plan: &ExecutablePlan,
    model: &str,
    graph: &Graph,
    inputs: &[(String, HostTensor)],
    seed: u64,
    weights: &mut WeightMemo,
    arena: &mut BufferArena,
    tracer: &Tracer,
    parent: &'static str,
    op: u64,
) -> Result<Vec<HostTensor>, String> {
    let mut values: Vec<Option<Value<'_>>> = (0..graph.nodes.len()).map(|_| None).collect();
    for (name, tensor) in inputs {
        let node = graph
            .input_named(name)
            .ok_or_else(|| format!("{model}: no input named {name}"))?;
        values[node.0] = Some(Value::Input(tensor));
    }
    let empty: FxHashMap<NodeId, HostTensor> = FxHashMap::default();
    let backend = plan.backend();
    for step in plan.steps() {
        match step {
            Step::Reference { node, .. } => {
                let v = tracer.span("ir.reference", parent, op, || {
                    if matches!(graph.node(*node).op, Op::Weight) {
                        let key = (model.to_string(), seed, node.0);
                        let w = weights
                            .map
                            .entry(key)
                            .or_insert_with(|| Arc::new(init_weight(graph, *node, seed)));
                        return Ok(Value::Shared(w.clone()));
                    }
                    evaluate_node_with(
                        graph,
                        *node,
                        &|n| values[n.0].as_ref().map(Value::tensor),
                        &empty,
                        seed,
                    )
                    .map(Value::Owned)
                    .map_err(|e| format!("{model}: reference step failed: {e}"))
                })?;
                tracer.count("ir.reference.steps", 1.0);
                values[node.0] = Some(v);
            }
            Step::Fused {
                chain,
                program,
                data_inputs,
                transposed,
                output,
                out_shape,
                bytes,
                ..
            } => {
                let mut st = tracer.span("core.plan.stage", parent, op, || {
                    let mut st = TensorStorage::for_program_in(program, arena);
                    for (j, node) in data_inputs.iter().enumerate() {
                        let src = values[node.0]
                            .as_ref()
                            .ok_or_else(|| format!("{chain}: input {j} not computed"))?
                            .tensor();
                        let flipped;
                        let data: &[f32] = if transposed.get(j).copied().unwrap_or(false) {
                            flipped = src.transpose_last2();
                            &flipped.data
                        } else {
                            &src.data
                        };
                        let dst = &mut st.tensors[j].data;
                        if dst.len() != data.len() {
                            return Err(format!("{chain}: input {j} has the wrong size"));
                        }
                        dst.copy_from_slice(data);
                    }
                    Ok(st)
                })?;
                tracer.span("sim.exec", parent, op, || {
                    backend
                        .executor()
                        .execute_with_arena(program, &mut st, arena)
                        .map_err(|e| format!("{chain}: kernel failed: {e}"))
                })?;
                tracer.count("sim.exec.launches", 1.0);
                tracer.count("sim.exec.bytes", *bytes);
                let out = std::mem::take(&mut st.tensors.last_mut().expect("output buffer").data);
                st.recycle(arena);
                values[output.0] = Some(Value::Owned(HostTensor::from_vec(out_shape, out)));
            }
        }
    }
    graph
        .outputs
        .iter()
        .map(|o| {
            values[o.0]
                .as_ref()
                .map(|v| v.tensor().clone())
                .ok_or_else(|| format!("{model}: output not computed"))
        })
        .collect()
}

/// Whether a replay produced exactly `outputs`, bit for bit.
pub fn bit_identical(replayed: &[HostTensor], outputs: &Outputs) -> bool {
    replayed.len() == outputs.len()
        && replayed.iter().zip(outputs.iter()).all(|(a, (_, b))| {
            a.shape == b.shape
                && a.data
                    .iter()
                    .map(|x| x.to_bits())
                    .eq(b.data.iter().map(|x| x.to_bits()))
        })
}
