//! Static-verifier integration tests.
//!
//! Two directions, matching the gate's contract:
//!
//! * **soundness of the analyses** — every tuned winner the search
//!   produces, across every chain family the compiler can lower (plain
//!   GEMM chains, attention, masked attention, stitched BERT chains,
//!   decode-shaped GEMV), passes the full verifier. Each winner is
//!   re-checked with `verify_program` directly, and the engine's gate
//!   is shown transparent: its winners equal the ungated
//!   `McFuser::tune`'s.
//! * **sensitivity** — deliberately corrupted programs (a shifted tile
//!   index, overlapping grid footprints, an uninitialized accumulator,
//!   a load from the buffer the program stores) are each rejected with
//!   the *expected, distinct* `VerifyError` variant, so demotion paths
//!   can trust the error structure, and `execute` refuses to run each
//!   one with that same finding.

use proptest::prelude::*;

use mcfuser::prelude::*;
use mcfuser::sim::verify::{verify_program, VerifyError};
use mcfuser::sim::{execute, BlockStmt, BufferRole, TileProgram, VarRef};
use mcfuser::workloads::{
    bert_graph, decode_attention_chain, decode_ffn_chain, masked_attention_workload, mlp4_chain,
    BertConfig, DecoderConfig,
};

fn engine() -> FusionEngine {
    FusionEngine::builder(DeviceSpec::a100()).build()
}

/// The same random 2-GEMM chains as `proptest_properties.rs`.
fn chain_strategy() -> impl Strategy<Value = ChainSpec> {
    (
        1u64..3,
        prop::sample::select(vec![32u64, 48, 64, 96, 128]),
        prop::sample::select(vec![32u64, 48, 64, 96]),
        prop::sample::select(vec![16u64, 32, 48, 64]),
        prop::sample::select(vec![16u64, 32, 48, 64]),
    )
        .prop_map(|(b, m, n, k, h)| ChainSpec::gemm_chain("prop", b, m, n, k, h))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Every heuristic-search winner over random plain chains carries a
    /// verifiable program: in-bounds, initialized, race-free.
    #[test]
    fn tuned_winners_pass_verifier(chain in chain_strategy()) {
        let tuned = engine().tune(&chain).unwrap();
        let report = verify_program(&tuned.kernel.program).unwrap();
        prop_assert!(report.stores >= 1);
        prop_assert!(report.accesses >= 3);
    }
}

/// Winners across the named chain families — attention, masked
/// attention, stitched BERT layer chains, and the two decode-shaped
/// GEMV chains — all verify, and the gated engine produces the *same*
/// winners as the ungated tuner (the gate never changes tuning results,
/// it only refuses unsound ones).
#[test]
fn family_winners_pass_verifier_and_gate_is_transparent() {
    let mut chains: Vec<ChainSpec> = vec![
        mlp4_chain(),
        ChainSpec::attention("attn", 4, 128, 128, 64, 64),
        masked_attention_workload("S7").unwrap(),
        decode_attention_chain("dec-attn", &DecoderConfig::gpt_mini(), 64),
        decode_ffn_chain("dec-ffn", &DecoderConfig::gpt_mini()),
    ];
    let device = DeviceSpec::a100();
    let bert = bert_graph(
        "bert-tiny",
        &BertConfig {
            layers: 1,
            hidden: 128,
            heads: 4,
            seq: 64,
            intermediate: 512,
        },
    );
    chains.extend(
        mcfuser::ir::partition(&bert, &device)
            .chains
            .iter()
            .map(|fc| fc.chain.clone()),
    );

    let ungated = McFuser::new();
    let gated = FusionEngine::builder(device.clone()).build();
    for chain in &chains {
        let tuned = gated.tune(chain).unwrap();
        let report = verify_program(&tuned.kernel.program)
            .unwrap_or_else(|e| panic!("winner for '{}' failed verification: {e}", chain.name));
        assert!(report.stores >= 1, "'{}' produced no stores", chain.name);
        let ungated_tuned = ungated.tune(chain, &device).unwrap();
        assert_eq!(
            tuned.candidate, ungated_tuned.candidate,
            "verify gate changed the winner for '{}'",
            chain.name
        );
    }
    // Every tune (fresh winner) was verified and none were rejected.
    assert_eq!(gated.stats().programs_verified, chains.len() as u64);
    assert_eq!(gated.stats().verify_rejects, 0);
}

/// A tuned winner for a multi-block GEMM chain, plus the index of a
/// store to the program's output buffer (for targeted corruption).
fn victim_program() -> TileProgram {
    let chain = ChainSpec::gemm_chain("victim", 1, 256, 128, 64, 64);
    let tuned = engine().tune(&chain).unwrap();
    let p = tuned.kernel.program.clone();
    assert!(
        p.grid.len() >= 2 && p.grid[1] >= 2,
        "victim must launch multiple blocks along m (grid {:?})",
        p.grid
    );
    verify_program(&p).expect("victim verifies before corruption");
    p
}

/// The verifier rejects corrupted `p` with a finding `is_expected`
/// accepts, and `execute` refuses to run it, returning that same
/// finding.
fn assert_rejected(p: &TileProgram, is_expected: fn(&VerifyError) -> bool) {
    let found = verify_program(p).expect_err("corrupted program must be rejected");
    assert!(is_expected(&found), "got {found:?}");
    let mut st = TensorStorage::for_program(p);
    match execute(p, &mut st) {
        Err(mcfuser::sim::ExecError::Unverified(e)) => assert_eq!(e, found),
        other => panic!("execute ran a rejected program: {other:?}"),
    }
}

/// Mutate the tile stride of the output store's `Grid(1)`-indexed
/// dimension via `f`, returning whether a store was found.
fn mutate_output_store(p: &mut TileProgram, f: &mut dyn FnMut(&mut u64)) -> bool {
    let out = p
        .buffers
        .iter()
        .position(|b| b.role == BufferRole::Output)
        .expect("program has an output");
    fn walk(stmts: &mut [BlockStmt], out: usize, f: &mut dyn FnMut(&mut u64)) -> bool {
        for s in stmts {
            if let BlockStmt::Loop { body, .. } = s {
                if walk(body, out, f) {
                    return true;
                }
            } else if let BlockStmt::Store { dst, .. } = s {
                if dst.buf.0 == out {
                    let ix = dst
                        .indices
                        .iter_mut()
                        .find(|ix| ix.var == VarRef::Grid(1))
                        .expect("output store is indexed by the m grid dim");
                    f(&mut ix.tile);
                    return true;
                }
            }
        }
        false
    }
    walk(&mut p.body, out, f)
}

/// Corruption 1 — shifted tile index: doubling the output store's m
/// stride walks the last block past the buffer. Rejected as
/// `OutOfBounds`, not silently clipped.
#[test]
fn shifted_tile_index_rejected_as_out_of_bounds() {
    let mut p = victim_program();
    assert!(mutate_output_store(&mut p, &mut |tile| *tile *= 2));
    assert_rejected(&p, |e| matches!(e, VerifyError::OutOfBounds { .. }));
}

/// Corruption 2 — overlapping grid footprints: halving the stride makes
/// adjacent blocks write windows that overlap by half a tile. Rejected
/// as `OverlappingTiles`.
#[test]
fn overlapping_grid_footprints_rejected() {
    let mut p = victim_program();
    assert!(mutate_output_store(&mut p, &mut |tile| {
        assert_eq!(*tile % 2, 0, "winner tile must be even to halve");
        *tile /= 2;
    }));
    assert_rejected(&p, |e| matches!(e, VerifyError::OverlappingTiles { .. }));
}

/// Corruption 3 — uninitialized accumulator: dropping the first `Fill`
/// leaves a GEMM accumulating into garbage. Rejected as
/// `UninitializedAccumulator` (distinct from a generic
/// read-before-write).
#[test]
fn uninitialized_accumulator_rejected() {
    let mut p = victim_program();
    fn drop_first_fill(stmts: &mut Vec<BlockStmt>) -> bool {
        if let Some(i) = stmts
            .iter()
            .position(|s| matches!(s, BlockStmt::Fill { .. }))
        {
            stmts.remove(i);
            return true;
        }
        for s in stmts {
            if let BlockStmt::Loop { body, .. } = s {
                if drop_first_fill(body) {
                    return true;
                }
            }
        }
        false
    }
    assert!(drop_first_fill(&mut p.body), "winner has a Fill to drop");
    assert_rejected(&p, |e| {
        matches!(e, VerifyError::UninitializedAccumulator { .. })
    });
}

/// Corruption 4 — a read of a stored buffer: loading the output tile
/// back into the accumulator just before it is stored would let a block
/// see what another block wrote, so the result would depend on the
/// order the blocks run in. Rejected as `ReadsStoredBuffer`.
#[test]
fn load_from_the_output_rejected() {
    let mut p = victim_program();
    fn load_before_store(stmts: &mut Vec<BlockStmt>) -> bool {
        if let Some(i) = stmts
            .iter()
            .position(|s| matches!(s, BlockStmt::Store { .. }))
        {
            let BlockStmt::Store { dst, src } = &stmts[i] else {
                unreachable!()
            };
            let load = BlockStmt::Load {
                src: dst.clone(),
                dst: *src,
            };
            stmts.insert(i, load);
            return true;
        }
        stmts.iter_mut().any(|s| match s {
            BlockStmt::Loop { body, .. } => load_before_store(body),
            _ => false,
        })
    }
    assert!(load_before_store(&mut p.body), "winner has a store");
    assert_rejected(
        &p,
        |e| matches!(e, VerifyError::ReadsStoredBuffer { buf } if buf == "out"),
    );
}
