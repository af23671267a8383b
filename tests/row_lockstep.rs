//! Integration: the executor steps each grid row's blocks in lockstep
//! (`mcfuser::sim::Lanes`), and that is bit for bit running the blocks
//! one at a time.
//!
//! * **What is shared.** On the serve models' kernels, the statements
//!   that run once per row are exactly those that cannot depend on the
//!   last grid index: the Mixer `ch.fc2` kernel shares its first GEMM
//!   across its 8 `d_L` blocks, and an attention kernel shares `QKᵀ`,
//!   the softmax statistics and the probability normalization while
//!   each lane keeps its own `P·V` accumulator.
//! * **Bit identity.** Over randomly lowered chains whose last axis is
//!   split into at least two tiles — 2- and 3-GEMM chains, attention
//!   with several key tiles, masked attention, stitched
//!   prologue/epilogue chains, decode GEMVs, widened batches — every
//!   buffer matches the blocks run one at a time.
//!
//! The oracle appends a grid dimension of extent 1 to the program. That
//! changes no block's coordinates and not the row-major block order,
//! but it makes every row a single block, so the executor runs the
//! blocks one at a time through the whole body — the executor before
//! rows ran in lockstep.

use proptest::prelude::*;

use mcfuser::baselines::Relay;
use mcfuser::core::Step;
use mcfuser::ir::{EpilogueStitch, PrologueSpec, ResidualSource};
use mcfuser::prelude::*;
use mcfuser::sim::{
    execute_with_arena, visit_accesses_mut, BlockStmt, BufferArena, BufferRole, SmemId,
    TileProgram, VarRef, VerifiedProgram,
};
use mcfuser::tile::{lower, LoopId, LoweringOptions};
use mcfuser::workloads::{
    bert_graph, decode_attention_chain, decode_ffn_chain, mixer_block, BertConfig, DecoderConfig,
};

/// The fused program of the first plan step whose chain name contains
/// `name`, from `graph` compiled the way the serve benchmark compiles
/// it (A100, Relay fallback).
fn served_program(graph: &mcfuser::ir::Graph, name: &str) -> std::sync::Arc<VerifiedProgram> {
    let engine = FusionEngine::builder(DeviceSpec::a100())
        .fallback(Relay::new())
        .parallelism(0)
        .build();
    let plan = engine.compile(graph).unwrap().plan(graph).unwrap();
    plan.steps()
        .iter()
        .find_map(|s| match s {
            Step::Fused { chain, program, .. } if chain.contains(name) => Some(program.clone()),
            _ => None,
        })
        .unwrap_or_else(|| panic!("no fused step named {name}"))
}

/// One line per statement: what it does and to which tiles.
fn describe(p: &TileProgram, s: &BlockStmt) -> String {
    let n = |t: &mcfuser::sim::SmemId| p.smem[t.0].name.clone();
    match s {
        BlockStmt::Load { src, dst } => format!("load {} -> {}", p.buffers[src.buf.0].name, n(dst)),
        BlockStmt::Store { dst, src } => {
            format!("store {} -> {}", n(src), p.buffers[dst.buf.0].name)
        }
        BlockStmt::Fill { dst, .. } => format!("fill {}", n(dst)),
        BlockStmt::Gemm { a, b, acc, .. } => format!("gemm {}·{} -> {}", n(a), n(b), n(acc)),
        BlockStmt::OnlineSoftmax { scores, .. } => format!("softmax {}", n(scores)),
        BlockStmt::RowDiv { target, denom } => format!("rowdiv {} / {}", n(target), n(denom)),
        other => format!("{other:?}"),
    }
}

/// Every non-loop statement of `stmts`, in program order.
fn flatten<'a>(stmts: &'a [BlockStmt], out: &mut Vec<&'a BlockStmt>) {
    for s in stmts {
        match s {
            BlockStmt::Loop { body, .. } => flatten(body, out),
            _ => out.push(s),
        }
    }
}

/// The statements of `p` that run once per row.
fn shared_statements(p: &VerifiedProgram) -> Vec<String> {
    let lanes = p.lanes().expect("the program shares work across its row");
    let mut all = Vec::new();
    flatten(&p.body, &mut all);
    all.into_iter()
        .filter(|s| lanes.runs_once_per_row(s))
        .map(|s| describe(p, s))
        .collect()
}

#[test]
fn serve_mixer_fc2_shares_its_first_gemm() {
    let p = served_program(&mixer_block(64, 128, 256, 512), "ch.fc2");
    assert_eq!(p.grid, [1, 4, 8]);
    assert_eq!(
        shared_statements(&p),
        [
            "load A -> tile_0",
            "fill acc_0",
            "load W0 -> tile_1",
            "gemm tile_0·tile_1 -> acc_0"
        ]
    );
}

#[test]
fn serve_attention_shares_its_scores_and_statistics() {
    let bert_mini = bert_graph(
        "bert-mini",
        &BertConfig {
            layers: 2,
            hidden: 128,
            heads: 4,
            seq: 64,
            intermediate: 512,
        },
    );
    let p = served_program(&bert_mini, ".sm");
    assert_eq!(p.grid, [4, 4, 2]);
    assert_eq!(
        shared_statements(&p),
        [
            "fill acc_0",
            "fill row_max",
            "fill row_sum",
            "load A -> tile_0",
            "load W0 -> tile_1",
            "gemm tile_0·tile_1 -> acc_0",
            "softmax acc_0",
            "rowdiv acc_0 / row_sum"
        ]
    );
    // The softmax's statistics are shared, its rescale target is not:
    // each lane's P·V accumulator is rescaled by the same factors.
    let lanes = p.lanes().unwrap();
    let tile = |name: &str| SmemId(p.smem.iter().position(|d| d.name == name).unwrap());
    let mut all = Vec::new();
    flatten(&p.body, &mut all);
    let softmax = all
        .iter()
        .find_map(|s| match s {
            BlockStmt::OnlineSoftmax { rescale, .. } => Some(rescale.clone()),
            _ => None,
        })
        .unwrap();
    assert_eq!(softmax, [tile("acc_1")]);
    assert!(lanes.is_per_lane(tile("acc_1")));
    assert!(!lanes.is_per_lane(tile("row_max")) && !lanes.is_per_lane(tile("row_sum")));
}

// ---------------------------------------------------------------------------
// Property: lockstep rows equal the blocks run one at a time.
// ---------------------------------------------------------------------------

/// `p` widened to `width` request slots the way batched serving widens
/// it: the batch grid dimension and the leading extent of every
/// batch-led tensor grow `width`-fold, and each weight (`W*`) keeps its
/// shape and has its batch index pinned to slot 0.
fn widen(p: &TileProgram, width: u64) -> TileProgram {
    let mut w = p.clone();
    w.grid[0] *= width;
    let weight: Vec<bool> = w.buffers.iter().map(|b| b.name.starts_with('W')).collect();
    visit_accesses_mut(&mut w.body, &mut |acc, _| {
        if weight[acc.buf.0] {
            acc.indices[0].var = VarRef::Zero;
        }
    });
    for (b, is_weight) in w.buffers.iter_mut().zip(weight) {
        if !is_weight && b.shape.len() == 3 {
            b.shape[0] *= width;
        }
    }
    w
}

/// Verify `p` as a plain or a widened program.
fn verify(p: TileProgram, widened: bool) -> VerifiedProgram {
    let v = if widened {
        VerifiedProgram::widened(p)
    } else {
        VerifiedProgram::new(p)
    };
    v.expect("the program verifies")
}

/// Every buffer's bits after running `p` with `inputs` in its leading
/// buffers.
fn run_bits(p: &VerifiedProgram, inputs: &[HostTensor]) -> Vec<Vec<u32>> {
    let mut st = TensorStorage::for_program(p);
    st.tensors[..inputs.len()].clone_from_slice(inputs);
    execute_with_arena(p, &mut st, &mut BufferArena::new()).unwrap();
    st.tensors
        .iter()
        .map(|t| t.data.iter().map(|v| v.to_bits()).collect())
        .collect()
}

/// A chain from one of the lowering families, with a candidate whose
/// last axis splits `d_L` into at least two tiles, and a batch width.
fn case_strategy() -> impl Strategy<Value = (ChainSpec, Candidate, u64)> {
    let dim = || prop::sample::select(vec![32u64, 48, 64, 96]);
    let tile = || prop::sample::select(vec![16u64, 32, 48]);
    (
        0usize..6,
        (dim(), dim(), dim(), dim()),
        (
            tile(),
            tile(),
            tile(),
            tile(),
            prop::sample::select(vec![16u64, 32]),
        ),
        (any::<bool>(), any::<bool>(), 1u64..3),
        prop::sample::select(vec![Epilogue::None, Epilogue::Relu, Epilogue::Gelu]),
        (any::<u64>(), 1u64..4),
    )
        .prop_map(
            |(kind, (m, d1, d2, d3), t, (f0, f1, b), epi, (shuffle, width))| {
                let chain = match kind {
                    0 => {
                        let mut c = ChainSpec::gemm_chain("lk-2", b, m, d1, d2, d3);
                        c.epilogues = vec![epi, Epilogue::None];
                        c.biases = vec![f0, f1];
                        c
                    }
                    1 => ChainSpec::chain(
                        "lk-3",
                        b,
                        m,
                        vec![d1, d2, d3, m],
                        vec![epi, epi, Epilogue::None],
                    ),
                    2 if f0 => ChainSpec::masked_attention("lk-ma", b + 1, m, d1, 32, d3),
                    2 => ChainSpec::attention("lk-a", b + 1, m, d1, 32, d3),
                    3 => {
                        let mut c = ChainSpec::gemm_chain("lk-s", 1, m, d1, d2, d2);
                        c.epilogues = vec![epi, Epilogue::None];
                        c.prologue = Some(PrologueSpec {
                            residual: f0,
                            affine: true,
                            a_half: f1,
                            eps: 1e-5,
                        });
                        c.stitch_epilogue = Some(EpilogueStitch {
                            residual: if f1 {
                                ResidualSource::PrologueOut
                            } else {
                                ResidualSource::External
                            },
                            layer_norm: false,
                            affine: false,
                            eps: 1e-5,
                        });
                        c
                    }
                    4 if f0 => decode_ffn_chain("lk-dffn", &DecoderConfig::gpt_mini()),
                    4 => decode_attention_chain("lk-dattn", &DecoderConfig::gpt_mini(), d1),
                    _ => {
                        let mut c = ChainSpec::gemm_chain("lk-w", 1, m, d1, d2, d3);
                        c.epilogues = vec![epi, Epilogue::None];
                        c
                    }
                };
                let axes = chain.num_axes();
                let mut tiles: Vec<u64> = [t.0, t.1, t.2, t.3]
                    .iter()
                    .cycle()
                    .take(axes)
                    .copied()
                    .collect();
                if chain.m == 1 {
                    tiles[0] = 1;
                }
                // The last axis splits d_L into at least two tiles.
                tiles[axes - 1] = t.4.min(chain.dims[axes - 2] / 2);
                let mut perm: Vec<LoopId> = (0..axes).map(LoopId).collect();
                let mut x = shuffle;
                for i in (1..axes).rev() {
                    perm.swap(i, (x % (i as u64 + 1)) as usize);
                    x /= i as u64 + 1;
                }
                let cand = Candidate::new(TilingExpr::deep(&perm), tiles);
                (chain, cand, if kind == 5 { width + 1 } else { 1 })
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Rows in lockstep compute every buffer — outputs and the untouched
    /// inputs — bit for bit as the blocks run one at a time.
    #[test]
    fn lockstep_rows_match_blocks_one_at_a_time(case in case_strategy(), seed in 0u64..1000) {
        let (chain, cand, width) = case;
        // Rule-2-style rejections are legal outcomes.
        let Ok(k) = lower(&chain, &cand, &LoweringOptions::default()) else { return Ok(()); };
        let widened = width > 1;
        let p = if widened { widen(&k.program, width) } else { k.program };
        prop_assert!(*p.grid.last().unwrap() >= 2, "{}: grid {:?}", chain.name, p.grid);
        let mut rng = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let inputs: Vec<HostTensor> = p
            .buffers
            .iter()
            .filter(|b| b.role == BufferRole::Input)
            .map(|b| {
                let data = (0..b.len())
                    .map(|_| {
                        rng ^= rng << 13;
                        rng ^= rng >> 7;
                        rng ^= rng << 17;
                        (rng >> 40) as f32 / (1u64 << 23) as f32 - 1.0
                    })
                    .collect();
                HostTensor::from_vec(&b.shape, data)
            })
            .collect();
        let mut one_at_a_time = p.clone();
        one_at_a_time.grid.push(1);
        let oracle = verify(one_at_a_time, widened);
        prop_assert!(oracle.lanes().is_none());
        let p = verify(p, widened);
        prop_assert!(p.lanes().is_some(), "{}: nothing shared", chain.name);
        prop_assert!(run_bits(&p, &inputs) == run_bits(&oracle, &inputs), "{} {}", chain.name, cand.describe(&chain));
    }
}
