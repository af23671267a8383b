//! Integration: the functional interpreter — the one executor behind
//! every plan, batch and session — computes what the reference lane
//! computes.
//!
//! The contract under test:
//!
//! * any chain that lowers — plain GEMM chains, attention, masked
//!   attention, and stitched prologue/epilogue pipelines, across random
//!   permutations, tile sizes and intra-tile policies — matches the
//!   chain's CPU reference, leaves its inputs untouched, and runs
//!   bit-identically on a fresh and on a pooled [`BufferArena`]
//!   (property-tested);
//! * the targeted stitched pipeline exercises the whole statement
//!   vocabulary: `Gemm` with a non-zero `acc_col` (chunked tail panel),
//!   a streamed `SmemDecl`, `RowNormStats`/`NormalizeTile`/
//!   `AddRecomputedNorm`, `Quantize`, and online-softmax attention —
//!   presence is asserted, not hoped for;
//! * widened (slot-strided) batched launches stay bit-identical to
//!   serial execution at any width (property-tested across widths and
//!   seeds), and serial execution matches the graph reference;
//! * every workload family in `mcfuser-workloads` — Table II GEMM
//!   chains, Table III attention, masked attention, the MLP4 chain,
//!   and the graph workloads (BERT, ViT, Mixer, MLP4, masked
//!   attention) — matches the reference lane per `(model, seed)`
//!   (paper-scale shapes stay in the benches; the regression runs each
//!   family's smallest member).

use std::sync::{Arc, OnceLock};

use proptest::prelude::*;

use mcfuser::baselines::Relay;
use mcfuser::ir::{evaluate, EpilogueStitch, Graph, NodeId, PrologueSpec, ResidualSource};
use mcfuser::prelude::*;
use mcfuser::sim::{execute, execute_with_arena, BlockStmt, BufferArena, TileProgram};
use mcfuser::tile::{lower, LoopId, LoweringOptions};
use mcfuser::workloads::{
    attention_workload, bert_graph, gemm_chain_workload, masked_attention_graph,
    masked_attention_workload, mixer_block, mlp4_chain, mlp4_graph, vit_block, BertConfig,
};
use rustc_hash::FxHashMap;

fn bits(t: &HostTensor) -> Vec<u32> {
    t.data.iter().map(|x| x.to_bits()).collect()
}

/// Run `chain`'s lowered `program` on `inputs` and check it against the
/// chain's CPU reference: the output within the kernel tolerance, every
/// input tensor untouched, and a rerun on an arena that already served
/// one launch bit-identical to the fresh run over the entire storage.
fn assert_matches_reference(
    chain: &ChainSpec,
    program: &TileProgram,
    inputs: &[HostTensor],
    what: &str,
) {
    let mut fresh = TensorStorage::for_program(program);
    for (i, t) in inputs.iter().enumerate() {
        fresh.tensors[i] = t.clone();
    }
    let mut pooled = fresh.clone();
    execute(program, &mut fresh).unwrap_or_else(|e| panic!("{what}: execution failed: {e}"));
    let err = fresh
        .tensors
        .last()
        .unwrap()
        .rel_l2_error(&chain.reference(inputs));
    assert!(
        err < 2e-2,
        "{what}: rel L2 error {err} against the reference"
    );
    for (i, t) in inputs.iter().enumerate() {
        assert_eq!(
            bits(&fresh.tensors[i]),
            bits(t),
            "{what}: input {i} written"
        );
    }
    let mut arena = BufferArena::new();
    execute_with_arena(program, &mut pooled.clone(), &mut arena).unwrap();
    execute_with_arena(program, &mut pooled, &mut arena).unwrap();
    for (b, (tf, tp)) in fresh.tensors.iter().zip(&pooled.tensors).enumerate() {
        assert_eq!(
            bits(tf),
            bits(tp),
            "{what}: tensor {b} ({}) differs between fresh and pooled runs",
            program.buffers[b].name,
        );
    }
}

/// Graph-reference values of every node of `graph` for name-keyed
/// inputs.
fn graph_reference(graph: &Graph, named: &[(String, HostTensor)], seed: u64) -> Vec<HostTensor> {
    let by_node: FxHashMap<NodeId, HostTensor> = named
        .iter()
        .map(|(name, t)| (graph.input_named(name).expect("declared input"), t.clone()))
        .collect();
    evaluate(graph, &by_node, seed).expect("reference lane")
}

/// Every declared output of `got` within `tol` rel-L2 of the graph
/// reference.
fn assert_outputs_match(graph: &Graph, got: &Outputs, reference: &[HostTensor], tol: f32) {
    for (name, tensor) in got.iter() {
        let node = graph
            .outputs
            .iter()
            .find(|o| graph.node(**o).name == *name)
            .expect("declared output");
        let err = tensor.rel_l2_error(&reference[node.0]);
        assert!(
            err < tol,
            "{}: output {name} rel L2 error {err}",
            graph.name
        );
    }
}

/// Recursively collect which statement kinds a program body contains.
fn walk_stmts<'a>(stmts: &'a [BlockStmt], seen: &mut Vec<&'a BlockStmt>) {
    for s in stmts {
        if let BlockStmt::Loop { body, .. } = s {
            walk_stmts(body, seen);
        }
        seen.push(s);
    }
}

// ---------------------------------------------------------------------------
// Property: every lowerable chain matches the reference.
// ---------------------------------------------------------------------------

/// A random chain drawn from the three lowering families the statement
/// vocabulary comes from: plain 2-GEMM chains (with random epilogues
/// and biases), attention / masked attention (online softmax), and
/// stitched prologue + tail LayerNorm pipelines.
fn chain_strategy() -> impl Strategy<Value = ChainSpec> {
    let dim = || prop::sample::select(vec![32u64, 48, 64, 96]);
    (
        0usize..3,
        (dim(), dim(), dim(), 1u64..3),
        (any::<bool>(), any::<bool>(), any::<bool>()),
        prop::sample::select(vec![
            Epilogue::None,
            Epilogue::Relu,
            Epilogue::Gelu,
            Epilogue::Scale(0.5),
        ]),
    )
        .prop_map(|(kind, (m, n, d, b), (f0, f1, f2), epi)| match kind {
            // Plain 2-GEMM chain with a random epilogue and bias.
            0 => {
                let h = if f2 { d } else { n };
                let mut c = ChainSpec::gemm_chain("xb-g", b, m, n, d, h);
                c.epilogues = vec![epi, Epilogue::None];
                c.biases = vec![f0, f1];
                c
            }
            // Attention (online softmax) or its masked variant.
            1 => {
                let k = d.min(32);
                if f0 {
                    ChainSpec::masked_attention("xb-ma", b, m, n, k, k)
                } else {
                    ChainSpec::attention("xb-a", b, m, n, k, k)
                }
            }
            // Stitched: affine LayerNorm prologue (optionally with a
            // raw residual) + PrologueOut residual / tail LayerNorm.
            _ => {
                let mut c = ChainSpec::gemm_chain("xb-s", 1, m, n, d, d);
                c.epilogues = vec![epi, Epilogue::None];
                c.prologue = Some(PrologueSpec {
                    residual: f0,
                    affine: true,
                    a_half: f1,
                    eps: 1e-5,
                });
                c.stitch_epilogue = Some(EpilogueStitch {
                    residual: ResidualSource::PrologueOut,
                    layer_norm: true,
                    affine: f2,
                    eps: 1e-5,
                });
                c
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Central property: for any chain, any deep tiling, any intra-tile
    /// policy, execution matches the reference and is bit-identical on a
    /// pooled arena over the *entire* storage.
    #[test]
    fn lowered_chains_execute_identically(
        chain in chain_strategy(),
        perm in Just(vec![0usize, 1, 2, 3]).prop_shuffle(),
        tiles in prop::collection::vec(prop::sample::select(vec![16u64, 32, 48, 64, 96]), 4),
        double_buffer in any::<bool>(),
        seed in 0u64..1000,
    ) {
        let axes: Vec<LoopId> = perm.into_iter().map(LoopId).collect();
        let mut tiles = tiles;
        if chain.stitch_epilogue.is_some() {
            // A tail LayerNorm requires the full output row in one tile.
            tiles[3] = *chain.dims.last().unwrap();
        }
        let cand = Candidate::new(TilingExpr::deep(&axes), tiles);
        let opts = LoweringOptions {
            double_buffer_budget: double_buffer.then_some(1 << 20),
            ..LoweringOptions::default()
        };
        // Rule-2-style rejections are legal outcomes.
        let Ok(k) = lower(&chain, &cand, &opts) else { return Ok(()); };
        let inputs = chain.random_inputs(seed);
        assert_matches_reference(&chain, &k.program, &inputs, &chain.name);
    }
}

// ---------------------------------------------------------------------------
// Targeted: the full statement vocabulary, asserted present.
// ---------------------------------------------------------------------------

/// A stitched FFN-shaped chain whose `d_L = 256 > 128` forces the
/// chunked tail panel: the final weight streams in column slices
/// (`SmemDecl::streamed`) and each slice fills its accumulator columns
/// at a non-zero `acc_col`.
#[test]
fn stitched_pipeline_covers_the_statement_vocabulary() {
    let mut chain = ChainSpec::gemm_chain("xb-vocab", 1, 64, 64, 256, 256);
    chain.epilogues = vec![Epilogue::Gelu, Epilogue::None];
    chain.biases = vec![true, false];
    chain.prologue = Some(PrologueSpec {
        residual: true,
        affine: true,
        a_half: false,
        eps: 1e-5,
    });
    chain.stitch_epilogue = Some(EpilogueStitch {
        residual: ResidualSource::PrologueOut,
        layer_norm: true,
        affine: true,
        eps: 1e-5,
    });
    // Tile layout is constrained (tail LayerNorm pins t_h = d_L) and
    // some permutations violate the single-accumulator rule; take the
    // first permutation that lowers.
    let k = {
        let mut perms = Vec::new();
        for a in 0..4usize {
            for b in 0..4 {
                for c in 0..4 {
                    for d in 0..4 {
                        let p = [a, b, c, d];
                        let mut q = p;
                        q.sort_unstable();
                        if q == [0, 1, 2, 3] {
                            perms.push(p);
                        }
                    }
                }
            }
        }
        perms
            .iter()
            .find_map(|p| {
                let axes: Vec<LoopId> = p.iter().map(|&a| LoopId(a)).collect();
                let mut tiles = vec![32u64, 64, 32, 0];
                tiles[3] = 256;
                let cand = Candidate::new(TilingExpr::deep(&axes), tiles);
                lower(&chain, &cand, &LoweringOptions::default()).ok()
            })
            .expect("some permutation of the stitched chain lowers")
    };
    let mut seen = Vec::new();
    walk_stmts(&k.program.body, &mut seen);
    assert!(
        seen.iter()
            .any(|s| matches!(s, BlockStmt::Gemm { acc_col, .. } if *acc_col > 0)),
        "chunked tail must emit a Gemm at a non-zero acc_col"
    );
    for (what, hit) in [
        (
            "RowNormStats",
            seen.iter()
                .any(|s| matches!(s, BlockStmt::RowNormStats { .. })),
        ),
        (
            "NormalizeTile",
            seen.iter()
                .any(|s| matches!(s, BlockStmt::NormalizeTile { .. })),
        ),
        (
            "AddRecomputedNorm",
            seen.iter()
                .any(|s| matches!(s, BlockStmt::AddRecomputedNorm { .. })),
        ),
        (
            "Quantize",
            seen.iter().any(|s| matches!(s, BlockStmt::Quantize { .. })),
        ),
        (
            "AddBias",
            seen.iter().any(|s| matches!(s, BlockStmt::AddBias { .. })),
        ),
        (
            "Gelu",
            seen.iter().any(|s| matches!(s, BlockStmt::Gelu { .. })),
        ),
        ("streamed smem", k.program.smem.iter().any(|s| s.streamed)),
    ] {
        assert!(hit, "the vocabulary pipeline must contain {what}");
    }

    for seed in 0..3 {
        let inputs = chain.random_inputs(seed);
        assert_matches_reference(&chain, &k.program, &inputs, "xb-vocab");
    }
}

/// Masked attention lowers to the `AddTile` mask + `OnlineSoftmax` +
/// `RowDiv` streaming pipeline; assert the statements and the values.
#[test]
fn masked_attention_covers_softmax_statements() {
    let chain = ChainSpec::masked_attention("xb-mask", 2, 64, 64, 32, 32);
    let cand = Candidate::new(
        TilingExpr::deep(&[LoopId(0), LoopId(1), LoopId(2), LoopId(3)]),
        vec![32, 32, 32, 32],
    );
    let k = lower(&chain, &cand, &LoweringOptions::default()).expect("masked attention lowers");
    let mut seen = Vec::new();
    walk_stmts(&k.program.body, &mut seen);
    for (what, hit) in [
        (
            "OnlineSoftmax",
            seen.iter()
                .any(|s| matches!(s, BlockStmt::OnlineSoftmax { .. })),
        ),
        (
            "AddTile",
            seen.iter().any(|s| matches!(s, BlockStmt::AddTile { .. })),
        ),
        (
            "RowDiv",
            seen.iter().any(|s| matches!(s, BlockStmt::RowDiv { .. })),
        ),
    ] {
        assert!(hit, "masked attention must contain {what}");
    }
    for seed in 0..3 {
        let inputs = chain.random_inputs(seed);
        assert_matches_reference(&chain, &k.program, &inputs, "xb-mask");
    }
}

// ---------------------------------------------------------------------------
// Property: widened (slot-strided) batches equal serial execution.
// ---------------------------------------------------------------------------

fn shared_plans() -> &'static Vec<(Graph, Arc<ExecutablePlan>)> {
    static PLANS: OnceLock<Vec<(Graph, Arc<ExecutablePlan>)>> = OnceLock::new();
    PLANS.get_or_init(|| {
        let engine = FusionEngine::builder(DeviceSpec::a100())
            .fallback(Relay::new())
            .build();
        let mlp = {
            let mut gb = GraphBuilder::new("xb-mlp", DType::F16);
            let x = gb.input("x", vec![64, 32]);
            let y = gb.linear("fc1", x, 64, false);
            let z = gb.linear("fc2", y, 32, false);
            gb.finish(vec![z])
        };
        let attn = {
            let mut gb = GraphBuilder::new("xb-attn", DType::F16);
            let q = gb.input("q", vec![2, 64, 32]);
            let k = gb.input("k", vec![2, 64, 32]);
            let v = gb.input("v", vec![2, 64, 32]);
            let s = gb.batch_matmul("qk", q, k, true);
            let p = gb.softmax("sm", s, 1.0 / (32f32).sqrt());
            let o = gb.batch_matmul("pv", p, v, false);
            let ln = gb.layer_norm("ln", o);
            gb.finish(vec![ln])
        };
        [mlp, attn]
            .into_iter()
            .map(|g| {
                let plan = Arc::new(engine.compile_plan(&g).expect("compiles"));
                (g, plan)
            })
            .collect()
    })
}

fn ramp(shape: &[u64], phase: u64) -> HostTensor {
    let len: u64 = shape.iter().product();
    HostTensor::from_vec(
        shape,
        (0..len)
            .map(|x| (((x + phase) % 23) as f32 - 11.0) / 23.0)
            .collect(),
    )
}

/// Ramp tensors for every declared input of `plan`, by name.
fn inputs_for(plan: &ExecutablePlan, phase: u64) -> Vec<(String, HostTensor)> {
    plan.inputs()
        .iter()
        .enumerate()
        .map(|(i, b)| (b.name.clone(), ramp(&b.shape, phase * 11 + i as u64)))
        .collect()
}

fn to_set(named: &[(String, HostTensor)]) -> InputSet {
    let mut set = InputSet::new();
    for (name, t) in named {
        set.insert(name.clone(), t.clone());
    }
    set
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// A widened launch over per-request slots must reproduce the
    /// serial outputs bit for bit, and those must match the graph
    /// reference.
    #[test]
    fn widened_batches_execute_identically(
        width in 2usize..7,
        seed in 0u64..100,
    ) {
        for (graph, plan) in shared_plans() {
            let named: Vec<Vec<(String, HostTensor)>> =
                (0..width as u64).map(|r| inputs_for(plan, r)).collect();
            let requests: Vec<InputSet> = named.iter().map(|n| to_set(n)).collect();
            let refs: Vec<&InputSet> = requests.iter().collect();
            let serial: Vec<Outputs> = requests
                .iter()
                .map(|r| plan.execute(r, RunOptions::seeded(seed)).unwrap())
                .collect();
            assert_outputs_match(
                graph,
                &serial[0],
                &graph_reference(graph, &named[0], seed),
                2e-2,
            );
            let batched = BatchedPlan::new(plan.clone());
            let mut arena = BufferArena::new();
            let outs = batched
                .execute_batch(&refs, RunOptions::seeded(seed), &mut arena, None)
                .unwrap();
            prop_assert_eq!(outs.len(), width);
            for (r, (got, want)) in outs.iter().zip(&serial).enumerate() {
                for (name, tensor) in want.iter() {
                    let g = got.get(name).expect("declared output present");
                    prop_assert_eq!(&g.shape, &tensor.shape);
                    prop_assert_eq!(
                        &g.data,
                        &tensor.data,
                        "request {} output {} (width {})",
                        r,
                        name,
                        width
                    );
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Regression: every workload family matches the reference lane.
// ---------------------------------------------------------------------------

/// Tuned chain workloads (Table II / Table III / MLP4 families, the
/// smallest member of each) match their chain references.
#[test]
fn chain_workloads_match_the_reference_lane() {
    let engine = FusionEngine::builder(DeviceSpec::a100()).build();
    let chains = [
        gemm_chain_workload("G1").expect("G1 exists"),
        attention_workload("S7").expect("S7 exists"),
        masked_attention_workload("S7").expect("masked S7 exists"),
        mlp4_chain(),
    ];
    for chain in &chains {
        let tuned = engine
            .tune(chain)
            .unwrap_or_else(|e| panic!("{}: tuning failed: {e}", chain.name));
        for seed in 0..2 {
            let inputs = chain.random_inputs(seed);
            assert_matches_reference(chain, &tuned.kernel.program, &inputs, &chain.name);
        }
    }
}

/// Graph workloads (BERT encoder, ViT block, Mixer block, MLP4,
/// masked attention) planned end to end: per (model, seed), every
/// declared output matches the graph reference lane.
#[test]
fn graph_workloads_match_the_reference_lane() {
    let engine = FusionEngine::builder(DeviceSpec::a100())
        .fallback(Relay::new())
        .build();
    let graphs = [
        bert_graph(
            "xb-bert",
            &BertConfig {
                layers: 1,
                hidden: 64,
                heads: 2,
                seq: 32,
                intermediate: 128,
            },
        ),
        vit_block(16, 64, 2),
        mixer_block(32, 64, 128, 128),
        mlp4_graph(),
        masked_attention_graph(2, 32, 16).0,
    ];
    for graph in &graphs {
        let plan = engine
            .compile_plan(graph)
            .unwrap_or_else(|e| panic!("{}: compile failed: {e}", graph.name));
        let named = inputs_for(&plan, 0);
        let set = to_set(&named);
        for seed in 0..2 {
            let got = plan
                .execute(&set, RunOptions::seeded(seed))
                .unwrap_or_else(|e| panic!("{}: run failed: {e}", graph.name));
            assert_outputs_match(graph, &got, &graph_reference(graph, &named, seed), 5e-2);
        }
    }
}
