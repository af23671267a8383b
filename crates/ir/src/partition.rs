//! Graph partitioner: carve MBCI sub-graphs out of an operator graph.
//!
//! Mirrors §V-B of the paper: "we employ a partitioner to segment the
//! model into MBCI sub-graphs and other components". Two pattern
//! families are recognized, both gated on the paper's memory-bound test
//! (compute-bound chains gain nothing from fusion and are left to the
//! per-operator backend — BERT's FFN is rejected, its attention
//! accepted):
//!
//! 1. **Attention**: `BatchMatMul(Q, Kᵀ) [→ +mask] → Softmax →
//!    BatchMatMul(·, V)`, with full Q/K/V shape validation and an
//!    optional additive-mask leaf (causal masks included) folded into a
//!    [`Epilogue::MaskedSoftmax`];
//! 2. **GEMM/Linear chains** of *arbitrary length*: `Linear → [ew] →
//!    Linear → [ew] → Linear → …`, where each hop may carry one
//!    element-wise epilogue (ReLU, GELU, scale) and each `Linear` may
//!    carry a bias (fused as a per-stage bias-add). The matcher grows
//!    chains greedily along single-consumer edges and re-checks the
//!    per-prefix MBCI test at every extension, so a chain only grows
//!    while fusion still pays.
//!
//! A second **stitching** pass then attaches the elementwise glue
//! around each extracted Linear chain to the chain kernel itself:
//!
//! * a `(residual Add →)? LayerNorm(affine)` feeding the chain's first
//!   matmul becomes a fused *prologue* ([`crate::chain::PrologueSpec`]),
//! * a trailing `residual Add (→ LayerNorm)` consuming the chain output
//!   becomes a fused *epilogue* ([`crate::chain::EpilogueStitch`]),
//!
//! and a *second-chance* pass re-visits Linear chains the MBCI gate
//! rejected: with the prologue/epilogue reads folded in, the stitched
//! per-op intensity drops below the ridge for transformer FFN blocks,
//! so e.g. a full BERT layer lowers to exactly two fused kernels with
//! zero elementwise reference steps. Every stitched chain carries its
//! *unstitched twin* ([`FusedChain::unstitched`]) so a failed lowering
//! or tuning run degrades to the plain chain plus reference glue —
//! which the stitched kernel matches bit-for-bit by construction.
//!
//! Every node is claimed by at most one chain (`in_chain` guards on
//! every hop), and all shape constraints are validated before a pattern
//! is accepted — a mismatched graph degrades to "leave it to the
//! fallback backend", never to a miscompiled kernel.

use mcfuser_sim::DeviceSpec;

use crate::chain::{ChainSpec, Epilogue, EpilogueStitch, PrologueSpec, ResidualSource};
use crate::graph::{Graph, NodeId, Op};

/// LayerNorm epsilon used by the graph reference evaluator; stitched
/// kernels must use the same value to stay bit-identical.
pub const LN_EPS: f32 = 1e-5;

/// One fused MBCI sub-graph.
#[derive(Debug, Clone, PartialEq)]
pub struct FusedChain {
    /// The extracted chain specification handed to the tuner.
    pub chain: ChainSpec,
    /// Graph nodes replaced by the fused kernel (compute + epilogues).
    pub nodes: Vec<NodeId>,
    /// Data inputs of the fused kernel in chain order: `A, W₀, W₁ …`,
    /// then auxiliary inputs (biases, masks) in
    /// [`ChainSpec::aux_inputs`] order.
    pub data_inputs: Vec<NodeId>,
    /// The node whose value the fused kernel produces.
    pub output: NodeId,
    /// Per data input: whether the graph stores it transposed relative to
    /// the chain layout (e.g. attention's K is `[N, K]` but the chain's
    /// `W₀` is `[K, N]`).
    pub transposed_inputs: Vec<bool>,
    /// For a stitched chain: the same chain without the fused
    /// prologue/epilogue (the glue nodes evaluated as reference steps
    /// instead). Compilation degrades to this twin when the stitched
    /// kernel fails to lower or tune; the two plans produce bit-identical
    /// values by construction.
    pub unstitched: Option<Box<FusedChain>>,
}

impl FusedChain {
    /// Graph nodes the stitched kernel absorbs beyond its unstitched
    /// twin (the demoted glue ops, in topological order). Empty for
    /// plain chains.
    pub fn stitched_glue(&self) -> Vec<NodeId> {
        let Some(twin) = &self.unstitched else {
            return Vec::new();
        };
        self.nodes
            .iter()
            .copied()
            .filter(|n| !twin.nodes.contains(n))
            .collect()
    }
}

/// Options controlling [`partition_with`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartitionOptions {
    /// Attach prologue/epilogue stitches (default). When `false`, the
    /// stitching passes still run their matching — so the *same* chains
    /// are extracted, including second-chance FFN chains — but each
    /// would-be-stitched chain is emitted as its unstitched twin with
    /// the glue left to the reference backend. This is the baseline a
    /// stitched plan is bit-compared against.
    pub stitch: bool,
}

impl Default for PartitionOptions {
    fn default() -> Self {
        PartitionOptions { stitch: true }
    }
}

/// Result of partitioning.
#[derive(Debug, Clone, PartialEq)]
pub struct Partition {
    /// Extracted MBCI sub-graphs.
    pub chains: Vec<FusedChain>,
    /// Compute/memory nodes not covered by any chain, in topological
    /// order (Input/Weight leaves excluded).
    pub rest: Vec<NodeId>,
}

/// Partition a graph for a target device with default options
/// (stitching enabled).
pub fn partition(graph: &Graph, dev: &DeviceSpec) -> Partition {
    partition_with(graph, dev, PartitionOptions::default())
}

/// Partition a graph for a target device.
pub fn partition_with(graph: &Graph, dev: &DeviceSpec, opts: PartitionOptions) -> Partition {
    let consumers = graph.consumers();
    let mut in_chain = vec![false; graph.nodes.len()];
    let mut chains = Vec::new();

    for i in 0..graph.nodes.len() {
        if let Some(fc) = match_attention(graph, dev, &consumers, &in_chain, NodeId(i)) {
            for id in &fc.nodes {
                in_chain[id.0] = true;
            }
            chains.push(fc);
        }
    }
    for i in 0..graph.nodes.len() {
        if let Some(fc) = match_linear_chain(graph, dev, &consumers, &in_chain, NodeId(i), true) {
            for id in &fc.nodes {
                in_chain[id.0] = true;
            }
            chains.push(fc);
        }
    }

    // Stitching pass 1: attach prologue/epilogue glue to the chains the
    // gated matcher already extracted (pure traffic saving, no re-gate).
    // `chain_outputs` is kept current as stitches land: an epilogue
    // moves a chain's output (e.g. `down` → `ln2`), and downstream
    // chains must see the *new* output as materialized — a BERT layer's
    // `res1 = proj + ln2_prev` folds its residual only if the previous
    // layer's stitched output counts as available.
    let mut chain_outputs: Vec<NodeId> = chains.iter().map(|c| c.output).collect();
    for (ci, fc) in chains.iter_mut().enumerate() {
        if fc.chain.has_softmax() {
            continue; // attention keeps its seed shape (and rest split)
        }
        if let Some(st) = attach_stitch(graph, &consumers, &in_chain, &chain_outputs, fc) {
            if opts.stitch {
                for id in &st.nodes {
                    in_chain[id.0] = true;
                }
                chain_outputs[ci] = st.output;
                *fc = st;
            }
            // !opts.stitch: keep the plain chain; glue stays in `rest`.
        }
    }

    // Stitching pass 2 (second chance): re-visit Linear chains the MBCI
    // headroom gate rejected. Grown un-gated and stitched, the raw-f32
    // prologue/epilogue reads fatten each op's denominator — a
    // transformer FFN drops below the ridge once its `LayerNorm → … →
    // residual Add (→ LayerNorm)` round trips are folded in. A chain is
    // only accepted here if at least one stitch attaches AND every op's
    // stitched intensity sits below the (full, headroom-free) ridge.
    let ridge = dev.ridge_flops_per_byte(graph.dtype);
    for i in 0..graph.nodes.len() {
        if in_chain[i] {
            continue;
        }
        let Some(fc) = match_linear_chain(graph, dev, &consumers, &in_chain, NodeId(i), false)
        else {
            continue;
        };
        let Some(st) = attach_stitch(graph, &consumers, &in_chain, &chain_outputs, &fc) else {
            continue;
        };
        if !(0..st.chain.num_ops()).all(|op| st.chain.stitched_op_intensity(op) < ridge) {
            continue;
        }
        for id in &fc.nodes {
            in_chain[id.0] = true;
        }
        if opts.stitch {
            for id in &st.nodes {
                in_chain[id.0] = true;
            }
            chain_outputs.push(st.output);
            chains.push(st);
        } else {
            chain_outputs.push(fc.output);
            chains.push(fc);
        }
    }

    // Storage-precision fixup, once every stitching decision has
    // landed: a prologue's raw A operand is read at the precision its
    // producer actually stores. A fused chain without a tail stitch
    // quantizes its output to the chain dtype on store; everything else
    // (graph inputs, reference-step values, stitched-tail outputs)
    // crosses the unfused boundary in f32.
    let half_outputs: Vec<NodeId> = chains
        .iter()
        .filter(|c| c.chain.stitch_epilogue.is_none())
        .map(|c| c.output)
        .collect();
    for fc in &mut chains {
        if let Some(p) = fc.chain.prologue.as_mut() {
            p.a_half = half_outputs.contains(&fc.data_inputs[0]);
        }
    }

    let rest = graph
        .nodes
        .iter()
        .enumerate()
        .filter(|(i, n)| !in_chain[*i] && !matches!(n.op, Op::Input | Op::Weight))
        .map(|(i, _)| NodeId(i))
        .collect();

    Partition { chains, rest }
}

/// Try to stitch the elementwise glue around `fc` into the chain
/// kernel. Returns the stitched chain (with `fc` as its unstitched
/// twin) if at least one of prologue/epilogue attaches, `None`
/// otherwise. Claim guards: every absorbed node must be unclaimed, not
/// a graph output, and consumed only inside the stitched kernel; every
/// new data input must be *materialized* (a leaf, a rest node, or
/// another chain's output — never a fused interior value).
fn attach_stitch(
    graph: &Graph,
    consumers: &[Vec<NodeId>],
    in_chain: &[bool],
    chain_outputs: &[NodeId],
    fc: &FusedChain,
) -> Option<FusedChain> {
    let available =
        |n: NodeId| -> bool { !in_chain[n.0] || chain_outputs.contains(&n) || n == fc.output };
    let is_output = |n: NodeId| graph.outputs.contains(&n);

    // --- Epilogue candidate: chain-out → sole-consumer Add (→ LN). ---
    let mut epi: Option<(NodeId, Option<NodeId>, NodeId)> = None; // (add, ln2, other)
    if !is_output(fc.output) {
        if let Some(add) = sole_consumer(consumers, fc.output) {
            if matches!(graph.node(add).op, Op::Add) && !in_chain[add.0] {
                let ins = &graph.node(add).inputs;
                let other = if ins[0] == fc.output && ins[1] != fc.output {
                    Some(ins[1])
                } else if ins[1] == fc.output && ins[0] != fc.output {
                    Some(ins[0])
                } else {
                    None
                };
                if let Some(other) = other {
                    if graph.node(other).shape == graph.node(fc.output).shape {
                        let mut ln2 = None;
                        if !is_output(add) {
                            if let Some(l) = sole_consumer(consumers, add) {
                                let ln_node = graph.node(l);
                                let affine_ok = match ln_node.inputs.len() {
                                    1 => true,
                                    3 => {
                                        let dl = *fc.chain.dims.last().unwrap();
                                        graph.node(ln_node.inputs[1]).shape == [dl]
                                            && graph.node(ln_node.inputs[2]).shape == [dl]
                                    }
                                    _ => false,
                                };
                                if matches!(ln_node.op, Op::LayerNorm)
                                    && !in_chain[l.0]
                                    && affine_ok
                                {
                                    ln2 = Some(l);
                                }
                            }
                        }
                        epi = Some((add, ln2, other));
                    }
                }
            }
        }
    }

    // --- Prologue candidate: (Add →)? affine LayerNorm → chain A. ---
    // Affine is required: the zero-padded γ/β strips zero out-of-range
    // tile columns exactly, matching the unstitched layout's zero-padded
    // loads bit-for-bit; a plain LN would leave `-mean·rstd` residue in
    // padding.
    let mut pro: Option<(Option<NodeId>, NodeId, NodeId, Option<NodeId>)> = None; // (res1, ln, raw, x)
    let a0 = fc.data_inputs[0];
    let a0_node = graph.node(a0);
    if !fc.transposed_inputs[0]
        && matches!(a0_node.op, Op::LayerNorm)
        && a0_node.inputs.len() == 3
        && !in_chain[a0.0]
        && !is_output(a0)
        && graph.node(a0_node.inputs[1]).shape == [fc.chain.dims[0]]
        && graph.node(a0_node.inputs[2]).shape == [fc.chain.dims[0]]
    {
        let first = fc.nodes[0];
        let tail_add = epi.map(|(a, _, _)| a);
        let consumed_in_kernel = consumers[a0.0]
            .iter()
            .all(|c| *c == first || Some(*c) == tail_add);
        if consumed_in_kernel {
            let src = a0_node.inputs[0];
            if matches!(graph.node(src).op, Op::Add)
                && !in_chain[src.0]
                && !is_output(src)
                && sole_consumer(consumers, src) == Some(a0)
            {
                let (p, x) = (graph.node(src).inputs[0], graph.node(src).inputs[1]);
                if available(p)
                    && available(x)
                    && graph.node(p).shape == a0_node.shape
                    && graph.node(x).shape == a0_node.shape
                {
                    pro = Some((Some(src), a0, p, Some(x)));
                }
            }
            if pro.is_none() && available(src) && graph.node(src).shape == a0_node.shape {
                pro = Some((None, a0, src, None));
            }
        }
    }

    // --- Resolve the epilogue's residual source. ---
    let epi = epi.and_then(|(add, ln2, other)| {
        let source = match &pro {
            Some((_, ln, _, _)) if other == *ln => ResidualSource::PrologueOut,
            _ => {
                if !available(other) {
                    return None; // residual value never materialized
                }
                ResidualSource::External
            }
        };
        Some((add, ln2, other, source))
    });

    if pro.is_none() && epi.is_none() {
        return None;
    }

    let mut chain = fc.chain.clone();
    let mut nodes = Vec::new();
    let mut data_inputs = fc.data_inputs.clone();
    let mut output = fc.output;
    if let Some((res1, ln, raw, x)) = pro {
        chain.prologue = Some(PrologueSpec {
            residual: x.is_some(),
            affine: true,
            a_half: false, // storage precision resolved after all passes
            eps: LN_EPS,
        });
        data_inputs[0] = raw;
        nodes.extend(res1);
        nodes.push(ln);
    }
    nodes.extend_from_slice(&fc.nodes);
    if let Some((add, ln2, _, source)) = epi {
        chain.stitch_epilogue = Some(EpilogueStitch {
            residual: source,
            layer_norm: ln2.is_some(),
            affine: ln2
                .map(|l| graph.node(l).inputs.len() == 3)
                .unwrap_or(false),
            eps: LN_EPS,
        });
        nodes.push(add);
        nodes.extend(ln2);
        output = ln2.unwrap_or(add);
    }
    // Append the stitched aux operands in `ChainSpec::aux_inputs` order:
    // prologue (residual, γ, β) then tail (residual, γ, β).
    if let Some((_, ln, _, x)) = pro {
        data_inputs.extend(x);
        data_inputs.push(graph.node(ln).inputs[1]);
        data_inputs.push(graph.node(ln).inputs[2]);
    }
    if let Some((_, ln2, other, source)) = epi {
        if source == ResidualSource::External {
            data_inputs.push(other);
        }
        if let Some(l) = ln2 {
            if graph.node(l).inputs.len() == 3 {
                data_inputs.push(graph.node(l).inputs[1]);
                data_inputs.push(graph.node(l).inputs[2]);
            }
        }
    }
    let mut transposed = fc.transposed_inputs.clone();
    transposed.resize(data_inputs.len(), false);
    debug_assert_eq!(data_inputs.len(), chain.num_inputs());
    Some(FusedChain {
        chain,
        nodes,
        data_inputs,
        output,
        transposed_inputs: transposed,
        unstitched: Some(Box::new(fc.clone())),
    })
}

/// The single consumer of `id`, if it has exactly one.
fn sole_consumer(consumers: &[Vec<NodeId>], id: NodeId) -> Option<NodeId> {
    match consumers[id.0].as_slice() {
        [c] => Some(*c),
        _ => None,
    }
}

/// Map a single-input element-wise op onto its chain epilogue.
fn elementwise_epilogue(op: &Op) -> Option<Epilogue> {
    match op {
        Op::Relu => Some(Epilogue::Relu),
        Op::Gelu => Some(Epilogue::Gelu),
        Op::Scale(f) => Some(Epilogue::Scale(*f)),
        _ => None,
    }
}

/// Try to match an (optionally masked) attention module anchored at a
/// softmax node. Validates every Q/K/V shape constraint; any mismatch
/// skips the pattern rather than emitting a broken chain.
fn match_attention(
    graph: &Graph,
    dev: &DeviceSpec,
    consumers: &[Vec<NodeId>],
    in_chain: &[bool],
    sm: NodeId,
) -> Option<FusedChain> {
    let node = graph.node(sm);
    let Op::Softmax { scale } = node.op else {
        return None;
    };
    if in_chain[sm.0] {
        return None;
    }

    // Producer side: either `QKᵀ` directly, or `QKᵀ + mask` with the
    // mask a graph leaf (Input/Weight) of the scores' exact shape.
    let mut mask: Option<NodeId> = None;
    let mut add: Option<NodeId> = None;
    let mut qk = node.inputs[0];
    if matches!(graph.node(qk).op, Op::Add) {
        let a = qk;
        if in_chain[a.0] || sole_consumer(consumers, a) != Some(sm) {
            return None;
        }
        let (x, y) = (graph.node(a).inputs[0], graph.node(a).inputs[1]);
        let is_qk = |n: NodeId| matches!(graph.node(n).op, Op::BatchMatMul { transpose_b: true });
        let is_leaf = |n: NodeId| matches!(graph.node(n).op, Op::Input | Op::Weight);
        let (bmm, mk) = if is_qk(x) && is_leaf(y) {
            (x, y)
        } else if is_qk(y) && is_leaf(x) {
            (y, x)
        } else {
            return None;
        };
        // The mask must match the *scores* (the BatchMatMul output)
        // exactly — no broadcast. Comparing against the Add node would
        // be vacuous when the mask is the Add's first operand, since
        // the builder copies the Add's shape from that operand.
        if graph.node(mk).shape != graph.node(bmm).shape {
            return None;
        }
        add = Some(a);
        mask = Some(mk);
        qk = bmm;
    }
    let Op::BatchMatMul { transpose_b: true } = graph.node(qk).op else {
        return None;
    };
    if in_chain[qk.0] || sole_consumer(consumers, qk) != Some(add.unwrap_or(sm)) {
        return None;
    }

    // Consumer side: the probabilities feed exactly one `P·V`.
    let pv = sole_consumer(consumers, sm)?;
    let Op::BatchMatMul { transpose_b: false } = graph.node(pv).op else {
        return None;
    };
    if in_chain[pv.0] || graph.node(pv).inputs[0] != sm {
        return None;
    }

    let q = graph.node(qk).inputs[0];
    let k = graph.node(qk).inputs[1];
    let v = graph.node(pv).inputs[1];
    let qs = &graph.node(q).shape;
    let ks = &graph.node(k).shape;
    let vs = &graph.node(v).shape;

    // Shape validation: equal ranks ≥ 2, identical batch dims, matching
    // contraction dims for both matmuls (`QKᵀ` contracts the head dim,
    // `P·V` contracts the sequence dim).
    let rank = qs.len();
    if rank < 2 || ks.len() != rank || vs.len() != rank {
        return None;
    }
    if qs[..rank - 2] != ks[..rank - 2] || qs[..rank - 2] != vs[..rank - 2] {
        return None;
    }
    if qs[rank - 1] != ks[rank - 1] || vs[rank - 2] != ks[rank - 2] {
        return None;
    }

    let batch: u64 = qs[..rank - 2].iter().product();
    let epilogue0 = if mask.is_some() {
        Epilogue::MaskedSoftmax { scale }
    } else {
        Epilogue::Softmax { scale }
    };
    let chain = ChainSpec {
        name: format!("{}::{}", graph.name, node.name),
        batch,
        m: qs[rank - 2],
        dims: vec![qs[rank - 1], ks[rank - 2], vs[rank - 1]],
        epilogues: vec![epilogue0, Epilogue::None],
        biases: vec![false, false],
        dtype: graph.dtype,
        prologue: None,
        stitch_epilogue: None,
    };
    if !chain.is_memory_bound(dev) {
        return None;
    }

    let mut nodes = vec![qk];
    nodes.extend(add);
    nodes.extend([sm, pv]);
    let mut data_inputs = vec![q, k, v];
    let mut transposed = vec![false, true, false];
    if let Some(mk) = mask {
        data_inputs.push(mk);
        transposed.push(false);
    }
    Some(FusedChain {
        chain,
        nodes,
        data_inputs,
        output: pv,
        transposed_inputs: transposed,
        unstitched: None,
    })
}

/// Headroom the Linear-chain growth gate applies to the device ridge
/// point: a stage only joins a chain while its standalone intensity
/// stays below `HEADROOM × ridge`. Borderline operators (within ~10 %
/// of the ridge) are technically memory bound but gain nothing in
/// practice — the marginal traffic saving is eaten by the fused
/// kernel's reduced parallelism, so fusing them regresses end-to-end
/// time (measured on the Fig. 9 BERT-Small FFN, φ ≈ 0.99 × ridge).
/// Attention keeps the paper's plain test: its row-wise softmax makes
/// fusion pay far from the ridge.
pub const CHAIN_MBCI_HEADROOM: f64 = 0.9;

/// One matched stage of a Linear chain.
struct Stage {
    /// The `Linear` node.
    linear: NodeId,
    /// Its weight operand.
    weight: NodeId,
    /// Its bias operand, if the layer is biased.
    bias: Option<NodeId>,
    /// Element-wise node fused after this stage (epilogue), if any.
    ew: Option<NodeId>,
    /// The fused epilogue.
    epilogue: Epilogue,
}

/// Greedily grow a Linear chain forward from `start`. With `gated`,
/// a stage only joins while the whole prefix still classifies as
/// memory bound (the seed behavior); un-gated growth is used by the
/// second-chance stitching pass, which applies its own stitched-
/// intensity gate afterwards.
fn match_linear_chain(
    graph: &Graph,
    dev: &DeviceSpec,
    consumers: &[Vec<NodeId>],
    in_chain: &[bool],
    start: NodeId,
    gated: bool,
) -> Option<FusedChain> {
    let linear_parts = |id: NodeId| -> Option<(NodeId, NodeId, Option<NodeId>, u64)> {
        let n = graph.node(id);
        let Op::Linear = n.op else {
            return None;
        };
        if in_chain[id.0] || n.inputs.len() < 2 || n.inputs.len() > 3 {
            return None;
        }
        let w = n.inputs[1];
        let ws = &graph.node(w).shape;
        if ws.len() != 2 {
            return None;
        }
        let bias = n.inputs.get(2).copied();
        if let Some(b) = bias {
            // The bias must be a `[out_features]` vector; anything else
            // stays with the fallback backend instead of miscompiling.
            if graph.node(b).shape != [ws[1]] {
                return None;
            }
        }
        Some((n.inputs[0], w, bias, ws[1]))
    };

    let (x, w0, b0, first_out) = linear_parts(start)?;
    let xs = &graph.node(x).shape;
    let k = *xs.last()?;
    let m: u64 = xs[..xs.len() - 1].iter().product();
    if graph.node(w0).shape[0] != k {
        return None;
    }

    // The per-prefix MBCI gate (see [`CHAIN_MBCI_HEADROOM`]). Each op's
    // standalone intensity φ = 2mnk/((mk + kn + mn)·esz) depends only
    // on its own (m, k, n), so extending a passing prefix only requires
    // checking the newly appended op.
    let gated_ridge = dev.ridge_flops_per_byte(graph.dtype) * CHAIN_MBCI_HEADROOM;
    let esz = graph.dtype.size_bytes() as f64;
    let op_is_mbci = |kd: u64, nd: u64| -> bool {
        if !gated {
            return true;
        }
        let (mf, kf, nf) = (m as f64, kd as f64, nd as f64);
        let phi = 2.0 * mf * nf * kf / ((mf * kf + kf * nf + mf * nf) * esz);
        phi < gated_ridge
    };

    let mut dims = vec![k, first_out];
    if !op_is_mbci(k, first_out) {
        return None;
    }
    let mut stages = vec![Stage {
        linear: start,
        weight: w0,
        bias: b0,
        ew: None,
        epilogue: Epilogue::None,
    }];
    let mut tail = start;

    // Grow forward one hop at a time: an optional single-consumer
    // element-wise op, then another Linear of matching input width.
    while let Some(hop) = sole_consumer(consumers, tail) {
        let mut nxt = hop;
        let mut ew: Option<(NodeId, Epilogue)> = None;
        if let Some(e) = elementwise_epilogue(&graph.node(nxt).op) {
            if in_chain[nxt.0] {
                break;
            }
            let Some(after) = sole_consumer(consumers, nxt) else {
                break;
            };
            ew = Some((nxt, e));
            nxt = after;
        }
        let Some((lx, w, bias, n)) = linear_parts(nxt) else {
            break;
        };
        // The linear must actually consume the chain tail (not use it as
        // a weight) and agree on the contraction width.
        let expected_input = ew.map(|(e, _)| e).unwrap_or(tail);
        if lx != expected_input || graph.node(w).shape[0] != *dims.last().unwrap() {
            break;
        }
        if !op_is_mbci(*dims.last().unwrap(), n) {
            break; // fusion stops paying here
        }
        dims.push(n);
        let last = stages.last_mut().unwrap();
        if let Some((enode, e)) = ew {
            last.ew = Some(enode);
            last.epilogue = e;
        }
        stages.push(Stage {
            linear: nxt,
            weight: w,
            bias,
            ew: None,
            epilogue: Epilogue::None,
        });
        tail = nxt;
    }

    if stages.len() < 2 {
        return None;
    }

    // Absorb one trailing element-wise op as the final epilogue (its
    // fan-out does not matter — it becomes the chain output).
    let mut output = tail;
    if let Some(enode) = sole_consumer(consumers, tail) {
        if !in_chain[enode.0] {
            if let Some(e) = elementwise_epilogue(&graph.node(enode).op) {
                let last = stages.last_mut().unwrap();
                last.ew = Some(enode);
                last.epilogue = e;
                output = enode;
            }
        }
    }

    let chain = ChainSpec {
        name: format!("{}::{}", graph.name, graph.node(tail).name),
        batch: 1,
        m,
        dims,
        epilogues: stages.iter().map(|s| s.epilogue).collect(),
        biases: stages.iter().map(|s| s.bias.is_some()).collect(),
        dtype: graph.dtype,
        prologue: None,
        stitch_epilogue: None,
    };

    let mut nodes = Vec::new();
    for s in &stages {
        nodes.push(s.linear);
        nodes.extend(s.ew);
    }
    let mut data_inputs = vec![x];
    data_inputs.extend(stages.iter().map(|s| s.weight));
    // Aux inputs in `ChainSpec::aux_inputs` order (per-stage biases).
    data_inputs.extend(stages.iter().filter_map(|s| s.bias));
    let transposed = vec![false; data_inputs.len()];
    Some(FusedChain {
        chain,
        nodes,
        data_inputs,
        output,
        transposed_inputs: transposed,
        unstitched: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;
    use mcfuser_sim::{DType, DeviceSpec};

    /// A bare attention sub-graph: Q,K,V inputs → QKᵀ → softmax → ·V.
    fn attention_graph(heads: u64, m: u64, k: u64) -> Graph {
        let mut gb = GraphBuilder::new("attn", DType::F16);
        let q = gb.input("q", vec![heads, m, k]);
        let kk = gb.input("k", vec![heads, m, k]);
        let v = gb.input("v", vec![heads, m, k]);
        let s = gb.batch_matmul("qk", q, kk, true);
        let p = gb.softmax("sm", s, 1.0 / (k as f32).sqrt());
        let o = gb.batch_matmul("pv", p, v, false);
        gb.finish(vec![o])
    }

    #[test]
    fn attention_is_extracted() {
        let g = attention_graph(8, 512, 64);
        let part = partition(&g, &DeviceSpec::a100());
        assert_eq!(part.chains.len(), 1);
        let c = &part.chains[0].chain;
        assert_eq!(c.batch, 8);
        assert_eq!(c.m, 512);
        assert_eq!(c.dims, vec![64, 512, 64]);
        assert!(c.has_softmax());
        assert!(part.rest.is_empty());
    }

    #[test]
    fn masked_attention_is_extracted() {
        let mut gb = GraphBuilder::new("mattn", DType::F16);
        let q = gb.input("q", vec![8, 512, 64]);
        let k = gb.input("k", vec![8, 512, 64]);
        let v = gb.input("v", vec![8, 512, 64]);
        let mask = gb.input("mask", vec![8, 512, 512]);
        let s = gb.batch_matmul("qk", q, k, true);
        let ms = gb.add("masked", s, mask);
        let p = gb.softmax("sm", ms, 1.0 / 8.0);
        let o = gb.batch_matmul("pv", p, v, false);
        let g = gb.finish(vec![o]);
        let part = partition(&g, &DeviceSpec::a100());
        assert_eq!(part.chains.len(), 1);
        let fc = &part.chains[0];
        assert!(matches!(
            fc.chain.epilogues[0],
            Epilogue::MaskedSoftmax { .. }
        ));
        assert_eq!(fc.nodes.len(), 4); // qk, add, softmax, pv
        assert_eq!(fc.data_inputs.len(), 4); // q, k, v, mask
        assert_eq!(fc.data_inputs[3], mask);
        assert!(part.rest.is_empty(), "{:?}", part.rest);
    }

    #[test]
    fn attention_mask_of_wrong_shape_is_not_fused() {
        let mut gb = GraphBuilder::new("mattn", DType::F16);
        let q = gb.input("q", vec![8, 512, 64]);
        let k = gb.input("k", vec![8, 512, 64]);
        let v = gb.input("v", vec![8, 512, 64]);
        // A bogus mask shape (would need broadcast): not fusable.
        let mask = gb.input("mask", vec![512, 512]);
        let s = gb.batch_matmul("qk", q, k, true);
        let ms = gb.add("masked", s, mask);
        let p = gb.softmax("sm", ms, 1.0 / 8.0);
        let o = gb.batch_matmul("pv", p, v, false);
        let g = gb.finish(vec![o]);
        let part = partition(&g, &DeviceSpec::a100());
        assert!(part.chains.is_empty());

        // Same, with the mask as the Add's FIRST operand — the builder
        // copies the Add's shape from it, so a naive shape check against
        // the Add node is vacuous in this order.
        let mut gb = GraphBuilder::new("mattn2", DType::F16);
        let q = gb.input("q", vec![8, 512, 64]);
        let k = gb.input("k", vec![8, 512, 64]);
        let v = gb.input("v", vec![8, 512, 64]);
        let mask = gb.input("mask", vec![512, 512]);
        let s = gb.batch_matmul("qk", q, k, true);
        let ms = gb.add("masked", mask, s);
        let p = gb.softmax("sm", ms, 1.0 / 8.0);
        let o = gb.batch_matmul("pv", p, v, false);
        let g = gb.finish(vec![o]);
        let part = partition(&g, &DeviceSpec::a100());
        assert!(part.chains.is_empty(), "mask-first operand order");
    }

    /// Regression (bugfix): the attention matcher used to accept Q/K/V
    /// with mismatched batch or contraction dims without ever comparing
    /// their shapes.
    #[test]
    fn attention_with_mismatched_shapes_is_rejected() {
        let dev = DeviceSpec::a100();
        // K contraction dim differs from Q's.
        let mut gb = GraphBuilder::new("bad1", DType::F16);
        let q = gb.input("q", vec![8, 512, 64]);
        let k = gb.input("k", vec![8, 512, 32]);
        let v = gb.input("v", vec![8, 512, 64]);
        let s = gb.batch_matmul("qk", q, k, true);
        let p = gb.softmax("sm", s, 1.0);
        let o = gb.batch_matmul("pv", p, v, false);
        let g = gb.finish(vec![o]);
        assert!(partition(&g, &dev).chains.is_empty(), "k dim mismatch");

        // V sequence dim does not match the scores' columns.
        let mut gb = GraphBuilder::new("bad2", DType::F16);
        let q = gb.input("q", vec![8, 512, 64]);
        let k = gb.input("k", vec![8, 512, 64]);
        let v = gb.input("v", vec![8, 256, 64]);
        let s = gb.batch_matmul("qk", q, k, true);
        let p = gb.softmax("sm", s, 1.0);
        let o = gb.batch_matmul("pv", p, v, false);
        let g = gb.finish(vec![o]);
        assert!(partition(&g, &dev).chains.is_empty(), "v rows mismatch");

        // Batch dims disagree.
        let mut gb = GraphBuilder::new("bad3", DType::F16);
        let q = gb.input("q", vec![8, 512, 64]);
        let k = gb.input("k", vec![4, 512, 64]);
        let v = gb.input("v", vec![8, 512, 64]);
        let s = gb.batch_matmul("qk", q, k, true);
        let p = gb.softmax("sm", s, 1.0);
        let o = gb.batch_matmul("pv", p, v, false);
        let g = gb.finish(vec![o]);
        assert!(partition(&g, &dev).chains.is_empty(), "batch mismatch");
    }

    #[test]
    fn mbci_gemm_chain_is_extracted() {
        let mut gb = GraphBuilder::new("chain", DType::F16);
        let x = gb.input("x", vec![512, 64]);
        let y = gb.linear("fc1", x, 256, false);
        let z = gb.linear("fc2", y, 64, false);
        let g = gb.finish(vec![z]);
        let part = partition(&g, &DeviceSpec::a100());
        assert_eq!(part.chains.len(), 1);
        let c = &part.chains[0].chain;
        assert_eq!((c.m, c.dims.clone()), (512, vec![64, 256, 64]));
        assert!(part.rest.is_empty());
    }

    /// The tentpole: a 4-GEMM chain with mixed per-stage epilogues comes
    /// out as ONE fused chain.
    #[test]
    fn long_chain_with_mixed_epilogues_is_extracted() {
        let mut gb = GraphBuilder::new("mlp", DType::F16);
        let x = gb.input("x", vec![512, 64]);
        let a = gb.linear("fc1", x, 256, false);
        let a = gb.gelu("g1", a);
        let a = gb.linear("fc2", a, 128, false);
        let a = gb.relu("r2", a);
        let a = gb.linear("fc3", a, 256, false);
        let a = gb.linear("fc4", a, 64, false);
        let g = gb.finish(vec![a]);
        let part = partition(&g, &DeviceSpec::a100());
        assert_eq!(part.chains.len(), 1);
        let c = &part.chains[0].chain;
        assert_eq!(c.num_ops(), 4);
        assert_eq!(c.dims, vec![64, 256, 128, 256, 64]);
        assert_eq!(
            c.epilogues,
            vec![
                Epilogue::Gelu,
                Epilogue::Relu,
                Epilogue::None,
                Epilogue::None
            ]
        );
        assert!(part.rest.is_empty(), "{:?}", part.rest);
    }

    #[test]
    fn chain_growth_stops_at_compute_bound_stage() {
        // fc1 and fc2 are memory bound; fc3's fat 2048×2048 reduction is
        // compute bound, so the chain must stop before it.
        let mut gb = GraphBuilder::new("chain", DType::F16);
        let x = gb.input("x", vec![512, 64]);
        let a = gb.linear("fc1", x, 256, false);
        let b = gb.linear("fc2", a, 2048, false);
        let c = gb.linear("fc3", b, 2048, false);
        let g = gb.finish(vec![c]);
        let part = partition(&g, &DeviceSpec::a100());
        assert_eq!(part.chains.len(), 1);
        assert_eq!(part.chains[0].chain.dims, vec![64, 256, 2048]);
        assert_eq!(part.rest, vec![c]);
    }

    #[test]
    fn compute_bound_chain_is_rejected() {
        // BERT-style FFN: 768→3072→768 at seq 512 has fat reductions and
        // is compute bound → the partitioner must leave it alone.
        let mut gb = GraphBuilder::new("ffn", DType::F16);
        let x = gb.input("x", vec![512, 768]);
        let y = gb.linear("fc1", x, 3072, false);
        let r = gb.relu("act", y);
        let z = gb.linear("fc2", r, 768, false);
        let g = gb.finish(vec![z]);
        let part = partition(&g, &DeviceSpec::a100());
        assert!(part.chains.is_empty());
        assert_eq!(part.rest.len(), 3); // fc1, act, fc2
    }

    #[test]
    fn f32_ridge_rejects_what_f16_accepts() {
        // The MBCI test depends on dtype: the f32 ridge is ~16× lower,
        // so the same shape flips from fused to rejected.
        let build = |dtype: DType| {
            let mut gb = GraphBuilder::new("chain", dtype);
            let x = gb.input("x", vec![512, 64]);
            let y = gb.linear("fc1", x, 256, false);
            let z = gb.linear("fc2", y, 64, false);
            gb.finish(vec![z])
        };
        let dev = DeviceSpec::a100();
        assert_eq!(partition(&build(DType::F16), &dev).chains.len(), 1);
        assert!(partition(&build(DType::F32), &dev).chains.is_empty());
    }

    #[test]
    fn relu_between_linears_becomes_epilogue() {
        let mut gb = GraphBuilder::new("chain", DType::F16);
        let x = gb.input("x", vec![512, 64]);
        let y = gb.linear("fc1", x, 256, false);
        let r = gb.relu("act", y);
        let z = gb.linear("fc2", r, 64, false);
        let g = gb.finish(vec![z]);
        let part = partition(&g, &DeviceSpec::a100());
        assert_eq!(part.chains.len(), 1);
        assert_eq!(part.chains[0].chain.epilogues[0], Epilogue::Relu);
        assert_eq!(part.chains[0].nodes.len(), 3);
    }

    #[test]
    fn trailing_elementwise_becomes_final_epilogue() {
        let mut gb = GraphBuilder::new("chain", DType::F16);
        let x = gb.input("x", vec![512, 64]);
        let y = gb.linear("fc1", x, 256, false);
        let z = gb.linear("fc2", y, 64, false);
        let r = gb.relu("out_act", z);
        let g = gb.finish(vec![r]);
        let part = partition(&g, &DeviceSpec::a100());
        assert_eq!(part.chains.len(), 1);
        let fc = &part.chains[0];
        assert_eq!(fc.chain.epilogues, vec![Epilogue::None, Epilogue::Relu]);
        assert_eq!(fc.output, r);
        assert!(part.rest.is_empty());
    }

    #[test]
    fn biased_linears_fuse_with_bias_stages() {
        let mut gb = GraphBuilder::new("chain", DType::F16);
        let x = gb.input("x", vec![512, 64]);
        let y = gb.linear("fc1", x, 256, true);
        let z = gb.linear("fc2", y, 64, true);
        let g = gb.finish(vec![z]);
        let part = partition(&g, &DeviceSpec::a100());
        assert_eq!(part.chains.len(), 1);
        let fc = &part.chains[0];
        assert_eq!(fc.chain.biases, vec![true, true]);
        // data inputs: x, w1, w2, b1, b2.
        assert_eq!(fc.data_inputs.len(), 5);
        assert_eq!(fc.chain.num_inputs(), 5);
        assert!(part.rest.is_empty());
    }

    #[test]
    fn malformed_bias_shape_is_not_fused() {
        // A bias that is not `[out_features]` must leave the chain to
        // the fallback backend, not reach lowering.
        let mut gb = GraphBuilder::new("badbias", DType::F16);
        let x = gb.input("x", vec![512, 64]);
        let w1 = gb.weight("w1", vec![64, 256]);
        let bad = gb.weight("b1", vec![32]); // wrong: should be [256]
        let y = gb.linear_shared("fc1", x, w1, Some(bad));
        let z = gb.linear("fc2", y, 64, false);
        let g = gb.finish(vec![z]);
        let part = partition(&g, &DeviceSpec::a100());
        assert!(part.chains.is_empty());
    }

    #[test]
    fn multi_consumer_intermediate_blocks_fusion() {
        let mut gb = GraphBuilder::new("chain", DType::F16);
        let x = gb.input("x", vec![512, 64]);
        let y = gb.linear("fc1", x, 256, false);
        let z = gb.linear("fc2", y, 64, false);
        let w = gb.relu("side", y); // second consumer of y
        let g = gb.finish(vec![z, w]);
        let part = partition(&g, &DeviceSpec::a100());
        assert!(part.chains.is_empty());
    }

    #[test]
    fn fanout_inside_long_chain_splits_it() {
        // fc2's output feeds both fc3 and a side branch: the chain must
        // stop at fc2; fc3→fc4 forms its own chain.
        let mut gb = GraphBuilder::new("chain", DType::F16);
        let x = gb.input("x", vec![512, 64]);
        let a = gb.linear("fc1", x, 256, false);
        let b = gb.linear("fc2", a, 128, false);
        let c = gb.linear("fc3", b, 256, false);
        let d = gb.linear("fc4", c, 64, false);
        let side = gb.relu("side", b);
        let g = gb.finish(vec![d, side]);
        let part = partition(&g, &DeviceSpec::a100());
        assert_eq!(part.chains.len(), 2);
        assert_eq!(part.chains[0].chain.dims, vec![64, 256, 128]);
        assert_eq!(part.chains[1].chain.dims, vec![128, 256, 64]);
        assert_eq!(part.rest, vec![side]);
    }

    /// Regression (bugfix): a graph node must be claimed by at most one
    /// chain even when patterns overlap (the seed matcher consumed
    /// pattern-2's mid elementwise node without an `in_chain` guard).
    #[test]
    fn overlapping_patterns_claim_each_node_once() {
        let mut gb = GraphBuilder::new("overlap", DType::F16);
        // Attention whose output feeds a scale then a linear chain.
        let q = gb.input("q", vec![8, 512, 64]);
        let k = gb.input("k", vec![8, 512, 64]);
        let v = gb.input("v", vec![8, 512, 64]);
        let s = gb.batch_matmul("qk", q, k, true);
        let p = gb.softmax("sm", s, 0.125);
        let o = gb.batch_matmul("pv", p, v, false);
        let sc = gb.scale("sc", o, 0.5);
        let a = gb.linear("fc1", sc, 256, false);
        let b = gb.linear("fc2", a, 64, false);
        let g = gb.finish(vec![b]);
        let part = partition(&g, &DeviceSpec::a100());
        assert_eq!(part.chains.len(), 2);
        let mut seen = std::collections::HashSet::new();
        for fc in &part.chains {
            for n in &fc.nodes {
                assert!(seen.insert(*n), "node {n:?} claimed twice");
            }
        }
        // The scale between the patterns belongs to exactly one chain
        // (absorbed as the attention chain's final epilogue) or to rest,
        // never to both.
        let claimed = seen.contains(&sc);
        let in_rest = part.rest.contains(&sc);
        assert!(claimed != in_rest, "sc must be claimed exactly once");
    }

    #[test]
    fn shared_weights_between_chains() {
        // Two towers reuse the same weight tensors; both fuse, and the
        // shared weight nodes appear in both chains' data inputs.
        let mut gb = GraphBuilder::new("shared", DType::F16);
        let wa = gb.weight("wa", vec![64, 256]);
        let wb = gb.weight("wb", vec![256, 64]);
        let x1 = gb.input("x1", vec![512, 64]);
        let x2 = gb.input("x2", vec![512, 64]);
        let a1 = gb.linear_shared("t1.fc1", x1, wa, None);
        let o1 = gb.linear_shared("t1.fc2", a1, wb, None);
        let a2 = gb.linear_shared("t2.fc1", x2, wa, None);
        let o2 = gb.linear_shared("t2.fc2", a2, wb, None);
        let g = gb.finish(vec![o1, o2]);
        let part = partition(&g, &DeviceSpec::a100());
        assert_eq!(part.chains.len(), 2);
        for fc in &part.chains {
            assert!(fc.data_inputs.contains(&wa));
            assert!(fc.data_inputs.contains(&wb));
        }
        assert!(part.rest.is_empty());
    }

    /// A BERT-style FFN block with its residual/LayerNorm glue:
    /// `res1 = proj + x; ln1 = LN(res1); ffn = fc2(gelu(fc1(ln1)));
    /// ln2 = LN(ffn + ln1)`.
    fn ffn_block_graph(m: u64, d: u64, f: u64) -> (Graph, NodeId) {
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
        (gb.finish(vec![ln2]), ln2)
    }

    #[test]
    fn ffn_block_is_stitched_into_one_kernel() {
        // The bare FFN is rejected by the headroom gate (see
        // `compute_bound_chain_is_rejected`), but with the prologue and
        // epilogue round trips folded in, the second-chance pass accepts
        // it — the whole block becomes ONE fused kernel, zero rest.
        let (g, ln2) = ffn_block_graph(512, 512, 2048);
        let part = partition(&g, &DeviceSpec::a100());
        assert_eq!(part.chains.len(), 1);
        let fc = &part.chains[0];
        let c = &fc.chain;
        assert_eq!(c.dims, vec![512, 2048, 512]);
        let p = c.prologue.expect("prologue attached");
        assert!(p.residual && p.affine);
        let e = c.stitch_epilogue.expect("epilogue attached");
        assert_eq!(e.residual, ResidualSource::PrologueOut);
        assert!(e.layer_norm && e.affine);
        assert_eq!(fc.output, ln2);
        // res1, ln1, up, act, down, res2, ln2 all claimed.
        assert_eq!(fc.nodes.len(), 7);
        assert!(part.rest.is_empty(), "{:?}", part.rest);
        // A, W_up, W_down, b_up, b_down, x, γ1, β1, γ2, β2.
        assert_eq!(fc.data_inputs.len(), 10);
        assert_eq!(fc.data_inputs.len(), c.num_inputs());
        // The twin is the plain (unstitched) chain over the same 3 core
        // nodes.
        let twin = fc.unstitched.as_ref().expect("twin present");
        assert!(!twin.chain.is_stitched());
        assert_eq!(twin.nodes.len(), 3);
        assert_eq!(fc.stitched_glue().len(), 4); // res1, ln1, res2, ln2
    }

    #[test]
    fn stitch_disabled_emits_the_twin_with_glue_in_rest() {
        let (g, _) = ffn_block_graph(512, 512, 2048);
        let part = partition_with(&g, &DeviceSpec::a100(), PartitionOptions { stitch: false });
        assert_eq!(part.chains.len(), 1);
        let fc = &part.chains[0];
        assert!(!fc.chain.is_stitched());
        assert!(fc.unstitched.is_none());
        assert_eq!(fc.nodes.len(), 3); // up, act, down only
                                       // res1, ln1, res2, ln2 demoted to reference steps.
        assert_eq!(part.rest.len(), 4);
    }

    #[test]
    fn non_affine_layernorm_blocks_the_prologue() {
        // A plain LN cannot zero padded tile columns, so the prologue
        // must not attach; the epilogue still can.
        let mut gb = GraphBuilder::new("blk", DType::F16);
        let x = gb.input("x", vec![512, 512]);
        let ln1 = gb.layer_norm("ln1", x);
        let up = gb.linear("up", ln1, 2048, false);
        let down = gb.linear("down", up, 512, false);
        let res2 = gb.add("res2", down, ln1);
        let g = gb.finish(vec![res2]);
        let part = partition(&g, &DeviceSpec::a100());
        assert_eq!(part.chains.len(), 1);
        let c = &part.chains[0].chain;
        assert!(c.prologue.is_none());
        // ln1 is consumed by up AND res2 but stays a materialized rest
        // node, so the tail residual reads it as an External aux.
        let e = c.stitch_epilogue.expect("epilogue attached");
        assert_eq!(e.residual, ResidualSource::External);
        assert!(!e.layer_norm);
        assert_eq!(part.rest, vec![ln1]);
    }

    #[test]
    fn graph_output_glue_is_not_claimed() {
        // res2 is ALSO a graph output: claiming ln2 would hide it, so
        // the epilogue must stop at the Add (which is the chain output,
        // hence still visible).
        let mut gb = GraphBuilder::new("blk", DType::F16);
        let proj = gb.input("proj", vec![512, 512]);
        let x = gb.input("x", vec![512, 512]);
        let res1 = gb.add("res1", proj, x);
        let ln1 = gb.layer_norm_affine("ln1", res1);
        let up = gb.linear("up", ln1, 2048, true);
        let down = gb.linear("down", up, 512, true);
        let res2 = gb.add("res2", down, ln1);
        let ln2 = gb.layer_norm_affine("ln2", res2);
        let g = gb.finish(vec![res2, ln2]);
        let part = partition(&g, &DeviceSpec::a100());
        assert_eq!(part.chains.len(), 1);
        let fc = &part.chains[0];
        let e = fc.chain.stitch_epilogue.expect("epilogue attached");
        assert!(!e.layer_norm, "ln2 must stay outside the kernel");
        assert_eq!(fc.output, res2);
        assert_eq!(part.rest, vec![ln2]);
    }

    #[test]
    fn second_chance_requires_a_stitch() {
        // Identical FFN shapes but fed by a plain Input: nothing to
        // stitch, so the second-chance pass must keep rejecting it.
        let mut gb = GraphBuilder::new("ffn", DType::F16);
        let x = gb.input("x", vec![512, 512]);
        let y = gb.linear("fc1", x, 2048, false);
        let r = gb.gelu("act", y);
        let z = gb.linear("fc2", r, 512, false);
        let g = gb.finish(vec![z]);
        let part = partition(&g, &DeviceSpec::a100());
        assert!(part.chains.is_empty());
        assert_eq!(part.rest.len(), 3);
    }

    #[test]
    fn stitched_partition_reference_matches_graph_reference() {
        // End-to-end value check: evaluating the stitched ChainSpec on
        // the graph's tensors must reproduce the graph evaluator's ln2
        // output except for the two fused-kernel quantization points —
        // which vanish when the values round-trip f16 exactly.
        use crate::reference::evaluate;
        use rand::{Rng, SeedableRng};
        let (g, ln2) = ffn_block_graph(64, 32, 128);
        let part = partition(&g, &DeviceSpec::a100());
        assert_eq!(part.chains.len(), 1);
        let fc = &part.chains[0];
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let mut feeds = rustc_hash::FxHashMap::default();
        for (i, n) in g.nodes.iter().enumerate() {
            if matches!(n.op, Op::Input) {
                let len = n.shape.iter().product::<u64>() as usize;
                feeds.insert(
                    NodeId(i),
                    mcfuser_sim::HostTensor::from_vec(
                        &n.shape,
                        (0..len).map(|_| rng.gen_range(-1.0f32..1.0)).collect(),
                    ),
                );
            }
        }
        let values = evaluate(&g, &feeds, 123).unwrap();
        let inputs: Vec<_> = fc
            .data_inputs
            .iter()
            .map(|id| values[id.0].clone())
            .collect();
        let got = fc.chain.reference(&inputs);
        let want =
            mcfuser_sim::HostTensor::from_vec(&fc.chain.output_shape(), values[ln2.0].data.clone());
        // Not bit-identical to the *graph* (the graph never quantizes),
        // but within f16 rounding of it.
        let err = got.rel_l2_error(&want);
        assert!(err < 5e-3, "{err}");
    }

    #[test]
    fn rest_excludes_leaves() {
        let g = attention_graph(2, 64, 32);
        let part = partition(&g, &DeviceSpec::a100());
        for id in &part.rest {
            assert!(!matches!(g.node(*id).op, Op::Input | Op::Weight));
        }
    }
}
