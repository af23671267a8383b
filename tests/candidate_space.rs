//! The lazy [`CandidateSpace`] contract: index-for-index equivalent to
//! the eager materialization it replaced, with no caps — candidates the
//! old `Vec` silently clipped are reachable and searched — and, under
//! the default policy, holding only candidates that launch.

use proptest::prelude::*;

use mcfuser::core::{
    build_candidate_space, heuristic_search, CandidateSpace, SearchParams, SharedMemoryPruning,
    SpacePolicy,
};
use mcfuser::ir::{EpilogueStitch, PrologueSpec, ResidualSource};
use mcfuser::prelude::*;
use mcfuser::sim::TuningClock;
use mcfuser::tile::{
    estimate_shmem_bytes_for_tiles, lower, rule4_fits, smem_footprint, Candidate, LoweringOptions,
};
use mcfuser::workloads::{attention_suite, gemm_chain_suite};

/// The Rule-4 policies with a filter: lowering's footprint (the
/// default) and the paper's Eq. 1 at 1.2 × Shm_max.
const PRUNING: [SharedMemoryPruning; 2] = [
    SharedMemoryPruning::Footprint,
    SharedMemoryPruning::PaperEq1,
];

fn policy(pruning: SharedMemoryPruning) -> SpacePolicy {
    SpacePolicy {
        shared_memory_pruning: pruning,
        ..SpacePolicy::default()
    }
}

/// The shared memory Rule 4 prices `tiles` at under `pruning`.
fn measure(chain: &ChainSpec, tiles: &[u64], pruning: SharedMemoryPruning) -> u64 {
    match pruning {
        SharedMemoryPruning::PaperEq1 => estimate_shmem_bytes_for_tiles(chain, tiles),
        _ => smem_footprint(chain, tiles, &LoweringOptions::default()),
    }
}

/// Whether Rule 4 keeps `tiles` under `pruning` on a device with
/// `limit` bytes of shared memory per block.
fn keeps(chain: &ChainSpec, tiles: &[u64], pruning: SharedMemoryPruning, limit: u64) -> bool {
    match pruning {
        SharedMemoryPruning::Footprint => measure(chain, tiles, pruning) <= limit,
        SharedMemoryPruning::PaperEq1 => rule4_fits(chain, tiles, limit),
        SharedMemoryPruning::Off => true,
    }
}

/// The old eager materialization, reproduced as the reference oracle.
struct Eager {
    /// Every candidate, expression-major, in grid order.
    candidates: Vec<Candidate>,
    /// The tile combinations Rule 4 rejected.
    rejected: Vec<Vec<u64>>,
    /// The smallest shared memory over the whole grid, under the
    /// policy's measure.
    min_estimate: Option<u64>,
}

/// An axis-0-fastest odometer over the Rule-3 tile domains that
/// evaluates Rule 4 (`pruning` against `limit`) on every combination in
/// grid order (an expression-independent pre-filter), then
/// expression-major candidate construction. (The shipped version
/// additionally clipped the result at 200 000 candidates and 10⁷
/// odometer steps — the bug under test — so the oracle is only run on
/// small spaces.)
fn eager_materialize(space: &CandidateSpace, pruning: SharedMemoryPruning, limit: u64) -> Eager {
    let chain = &space.chain;
    let mut combos: Vec<Vec<u64>> = Vec::new();
    let mut rejected = Vec::new();
    let mut min_estimate = None::<u64>;
    if space.tile_domains.iter().all(|d| !d.is_empty()) {
        let mut idx = vec![0usize; space.tile_domains.len()];
        'outer: loop {
            let tiles: Vec<u64> = idx
                .iter()
                .enumerate()
                .map(|(a, &i)| space.tile_domains[a][i])
                .collect();
            if pruning != SharedMemoryPruning::Off {
                let est = measure(chain, &tiles, pruning);
                min_estimate = Some(min_estimate.map_or(est, |m| m.min(est)));
            }
            let keep = keeps(chain, &tiles, pruning, limit);
            if keep {
                combos.push(tiles);
            } else {
                rejected.push(tiles);
            }
            let mut a = 0;
            loop {
                if a == idx.len() {
                    break 'outer;
                }
                idx[a] += 1;
                if idx[a] < space.tile_domains[a].len() {
                    break;
                }
                idx[a] = 0;
                a += 1;
            }
        }
    }
    let mut candidates = Vec::new();
    for e in &space.exprs {
        for tiles in &combos {
            candidates.push(Candidate::new(e.clone(), tiles.clone()));
        }
    }
    Eager {
        candidates,
        rejected,
        min_estimate,
    }
}

/// The space agrees with the dense oracle index for index: `len`,
/// `stats.after_rule4`, `iter`, `candidate`, the borrowing `visit` (index,
/// expression position and tiles, and `expr_of`/`index_in` on them), the
/// `index_of` round trip, `index_of` on every rejected combination, and
/// the diagnostic minimum.
fn assert_matches_oracle(space: &CandidateSpace, pruning: SharedMemoryPruning, limit: u64) {
    let name = &space.chain.name;
    assert_eq!(space.shared_memory_pruning(), pruning, "{name}: measure");
    let eager = eager_materialize(space, pruning, limit);
    assert_eq!(space.len() as usize, eager.candidates.len(), "{name}: len");
    assert_eq!(
        space.stats.after_rule4,
        eager.candidates.len() as u128,
        "{name}: after_rule4"
    );
    let mut streamed = 0;
    for (i, (lazy, reference)) in space.iter().zip(&eager.candidates).enumerate() {
        assert_eq!(&lazy, reference, "{name}: stream diverges at {i}");
        assert_eq!(
            &space.candidate(i as u64),
            reference,
            "{name}: index diverges at {i}"
        );
        assert_eq!(
            space.index_of(reference),
            Some(i as u64),
            "{name}: index_of at {i}"
        );
        streamed += 1;
    }
    assert_eq!(streamed, eager.candidates.len(), "{name}: stream length");
    let mut visited = 0usize;
    space.visit(|i, expr, tiles| {
        let reference = &eager.candidates[visited];
        assert_eq!(i, visited as u64, "{name}: visit index at {visited}");
        assert_eq!(
            space.exprs[expr], reference.expr,
            "{name}: visit expr at {i}"
        );
        assert_eq!(tiles, &reference.tiles[..], "{name}: visit tiles at {i}");
        assert_eq!(space.expr_of(i), expr, "{name}: expr_of at {i}");
        assert_eq!(
            space.index_in(expr, tiles),
            Some(i),
            "{name}: index_in at {i}"
        );
        visited += 1;
    });
    assert_eq!(visited, eager.candidates.len(), "{name}: visit length");
    if let Some(expr) = space.exprs.first() {
        for tiles in &eager.rejected {
            let cand = Candidate::new(expr.clone(), tiles.clone());
            assert_eq!(space.index_of(&cand), None, "{name}: rejected {tiles:?}");
        }
    }
    assert_eq!(
        space.min_estimated_smem(),
        eager.min_estimate,
        "{name}: minimum"
    );
}

fn small_chain_strategy() -> impl Strategy<Value = ChainSpec> {
    (
        1u64..3,
        prop::sample::select(vec![48u64, 64, 96, 128, 160]),
        prop::sample::select(vec![32u64, 48, 64, 96]),
        prop::sample::select(vec![16u64, 32, 48, 80]),
        prop::sample::select(vec![16u64, 32, 64, 96]),
    )
        .prop_map(|(b, m, n, k, h)| ChainSpec::gemm_chain("prop", b, m, n, k, h))
}

fn device_strategy() -> impl Strategy<Value = DeviceSpec> {
    prop::sample::select(vec![DeviceSpec::a100(), DeviceSpec::rtx3080()]).prop_map(|d| d)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Lazy enumeration — streaming, indexing and `index_of` — is
    /// index-for-index identical to the eager materialization, and
    /// `PruneStats::after_rule4` is exactly the reachable count, under
    /// lowering's footprint and under the paper's Eq. 1.
    #[test]
    fn lazy_space_equals_eager_materialization(
        chain in small_chain_strategy(),
        dev in device_strategy(),
    ) {
        for pruning in PRUNING {
            let pruned = build_candidate_space(&chain, &dev, &policy(pruning));
            assert_matches_oracle(&pruned, pruning, dev.smem_per_block);
        }
    }

    /// The `-rule4` ablation admits the whole Rule-3 grid through the
    /// same lazy space, again index-for-index equal to eager.
    #[test]
    fn lazy_space_without_rule4_equals_eager(
        chain in small_chain_strategy(),
        dev in device_strategy(),
    ) {
        let off = SharedMemoryPruning::Off;
        let pruned = build_candidate_space(&chain, &dev, &policy(off));
        prop_assert_eq!(pruned.surviving_combos(), pruned.grid_combos());
        assert_matches_oracle(&pruned, off, dev.smem_per_block);
    }
}

/// A stitched FFN with a residual LayerNorm prologue and a tail
/// LayerNorm over d_L = 512 > 128: its last weight panel streams, and
/// Rule 3 pins its last axis to the full row.
fn stitched_tail_layer_norm() -> ChainSpec {
    let mut chain = ChainSpec::gemm_chain("ffn-tail-ln", 1, 512, 2048, 512, 512);
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
    chain
}

/// Every chain family the partitioner emits: plain 2- and 3-GEMM,
/// attention, masked attention, an m = 1 GEMV chain and the stitched
/// tail-LayerNorm chain.
fn chain_families() -> [ChainSpec; 6] {
    [
        ChainSpec::gemm_chain("gemm2", 2, 256, 128, 64, 128),
        ChainSpec::chain(
            "mlp3",
            1,
            96,
            vec![128, 256, 128, 64],
            vec![Epilogue::Relu, Epilogue::Relu, Epilogue::None],
        ),
        ChainSpec::attention("attn", 4, 128, 256, 64, 64),
        ChainSpec::masked_attention("masked-attn", 4, 128, 256, 64, 64),
        ChainSpec::chain(
            "gemv",
            1,
            1,
            vec![256, 1024, 256],
            vec![Epilogue::Relu, Epilogue::None],
        ),
        stitched_tail_layer_norm(),
    ]
}

/// The scan that builds the index — one survivor count per grid row,
/// the end of the row's axis-0 prefix of Rule-4 survivors — equals the
/// dense scan that prices every combination, on every chain family and
/// both devices, under lowering's footprint and under the paper's
/// Eq. 1. The stitched chain's last axis is pinned to its full row, the
/// one tile lowering accepts, under both.
#[test]
fn frontier_scan_equals_dense_scan() {
    for dev in [DeviceSpec::a100(), DeviceSpec::rtx3080()] {
        for pruning in PRUNING {
            for chain in &chain_families() {
                let space = build_candidate_space(chain, &dev, &policy(pruning));
                let what = format!("{} on {} under {pruning:?}", chain.name, dev.name);
                assert!(!space.is_empty(), "{what}");
                assert_matches_oracle(&space, pruning, dev.smem_per_block);
                if chain.stitch_epilogue.is_some() {
                    let d_l = *chain.dims.last().unwrap();
                    assert_eq!(space.tile_domains.last(), Some(&vec![d_l]), "{what}");
                }
            }
        }
    }
}

/// With Rule 4 off every row's frontier is the whole of axis 0: the
/// index admits the full Rule-3 grid and equals the dense scan of it,
/// on every chain family and both devices.
#[test]
fn frontier_scan_equals_dense_scan_without_rule4() {
    let off = SharedMemoryPruning::Off;
    for dev in [DeviceSpec::a100(), DeviceSpec::rtx3080()] {
        for chain in &chain_families() {
            let space = build_candidate_space(chain, &dev, &policy(off));
            assert!(!space.is_empty(), "{} on {}", chain.name, dev.name);
            assert_eq!(
                space.surviving_combos(),
                space.grid_combos(),
                "{}",
                chain.name
            );
            assert_matches_oracle(&space, off, dev.smem_per_block);
        }
    }
}

/// A 3-GEMM chain with a 2.4M-combination Rule-3 grid (non-power-of-two
/// 1536/768 extents keep 14–23 options per axis across 5 axes).
fn big_3gemm() -> ChainSpec {
    ChainSpec::chain(
        "mlp3-1536",
        1,
        1536,
        vec![1536, 768, 1536, 768],
        vec![Epilogue::None; 3],
    )
}

/// On a 2.4M-combination grid, too large for the candidate oracle, a
/// dense walk that prices every combination in grid order finds the
/// same survivor at every sampled rank, and `index_of` agrees on both
/// sides of the Rule-4 boundary.
#[test]
fn large_grid_index_matches_a_dense_walk() {
    let chain = big_3gemm();
    let dev = DeviceSpec::a100();
    let space = build_candidate_space(&chain, &dev, &SpacePolicy::default());
    assert!(space.grid_combos() > 2_000_000, "{}", space.grid_combos());
    let domains = &space.tile_domains;
    let expr = &space.exprs[0];
    let mut idx = vec![0usize; domains.len()];
    let mut tiles: Vec<u64> = domains.iter().map(|d| d[0]).collect();
    let (mut rank, mut rejected) = (0u64, 0u64);
    for _ in 0..space.grid_combos() {
        if keeps(
            &chain,
            &tiles,
            SharedMemoryPruning::Footprint,
            dev.smem_per_block,
        ) {
            if rank % 997 == 0 {
                let cand = space.candidate(rank);
                assert_eq!(cand.tiles, tiles, "rank {rank}");
                assert_eq!(space.index_of(&cand), Some(rank));
            }
            rank += 1;
        } else {
            if rejected % 997 == 0 {
                let cand = Candidate::new(expr.clone(), tiles.clone());
                assert_eq!(space.index_of(&cand), None, "rejected {tiles:?}");
            }
            rejected += 1;
        }
        for (a, d) in domains.iter().enumerate() {
            idx[a] += 1;
            if idx[a] < d.len() {
                tiles[a] = d[idx[a]];
                break;
            }
            idx[a] = 0;
            tiles[a] = d[0];
        }
    }
    assert_eq!(rank, space.surviving_combos());
    assert_eq!(
        space.stats.after_rule4,
        (space.exprs.len() as u64 * rank) as u128
    );
    let last = space.surviving_combos() - 1;
    assert_eq!(space.index_of(&space.candidate(last)), Some(last));
}

/// A 4-GEMM chain whose pruned space exceeds the old 200 000-candidate
/// materialization cap: 541 260 survivors on the A100 under lowering's
/// footprint (the 3-GEMM `big_3gemm` keeps 119 735).
fn big_4gemm() -> ChainSpec {
    ChainSpec::chain("mlp4-768", 1, 1536, vec![768; 5], vec![Epilogue::None; 4])
}

#[test]
fn candidates_beyond_the_old_cap_are_reachable_and_searched() {
    let chain = big_4gemm();
    let dev = DeviceSpec::a100();
    let pruned = build_candidate_space(&chain, &dev, &SpacePolicy::default());

    // The space genuinely exceeds the deleted cap and stays exact.
    assert!(
        pruned.len() > 200_000,
        "space only has {} candidates",
        pruned.len()
    );
    assert_eq!(pruned.stats.after_rule4, pruned.len() as u128);

    // Every index is reachable — including the ones the old eager
    // materialization silently clipped — and decodes to a candidate
    // whose kernel fits the device.
    let opts = LoweringOptions::default();
    for idx in [200_000, pruned.len() / 2, pruned.len() - 1] {
        let c = pruned.candidate(idx);
        assert!(
            smem_footprint(&chain, &c.tiles, &opts) <= dev.smem_per_block,
            "index {idx}"
        );
    }

    // The search actually draws from beyond the cap: uniform sampling
    // over the true extent must hit the formerly-truncated tail. (The
    // old code sampled `gen_range(0..200_000)` here — a biased prefix
    // favoring small tiles on low axes.)
    let mut rng = rand::rngs::StdRng::seed_from_u64(SearchParams::default().seed);
    use rand::{Rng, SeedableRng};
    let beyond = (0..64)
        .map(|_| rng.gen_range(0..pruned.len()))
        .filter(|&i| i >= 200_000)
        .count();
    assert!(beyond > 0, "sampling never left the old cap's prefix");

    // And a real (budget-reduced) search over the uncapped space
    // completes and returns a launchable kernel.
    let params = SearchParams {
        population: 32,
        topk: 4,
        max_rounds: 2,
        ..Default::default()
    };
    let clock = TuningClock::new();
    let out = heuristic_search(&chain, &dev, &pruned, &params, &clock)
        .expect("search over the uncapped space finds a kernel");
    assert!(out.profile.time.is_finite());
    assert!(out.kernel.smem_bytes <= dev.smem_per_block);
    assert_eq!((out.refused, out.illegal), (0, 0));
}

/// Strided samples of the spaces the default policy and MCFuser-Chimera's
/// (deep tilings only, no dead-loop elimination) prune — over the
/// model chain families the verifier sweep draws from and both fig8
/// suites, on the A100 and the RTX 3080 — all lower, and every kernel
/// fits the device's shared memory as emitted, double buffers included.
#[test]
fn every_candidate_in_the_pruned_space_launches() {
    /// Candidates sampled per space.
    const PER_SPACE: u64 = 24;
    for dev in [DeviceSpec::a100(), DeviceSpec::rtx3080()] {
        let mut chains: Vec<ChainSpec> = mcfuser::workloads::model_chain_families(&dev)
            .into_iter()
            .flat_map(|(_, chains)| chains)
            .collect();
        chains.extend(gemm_chain_suite());
        chains.extend(attention_suite());
        let configs = [
            (SpacePolicy::default(), LoweringOptions::for_device(&dev)),
            (
                SpacePolicy {
                    deep_tiling_only: true,
                    ..SpacePolicy::default()
                },
                LoweringOptions::for_device(&dev).without_dead_loop_elimination(),
            ),
        ];
        let mut lowered = 0;
        for chain in &chains {
            for (space_policy, opts) in &configs {
                let space = build_candidate_space(chain, &dev, space_policy);
                assert!(!space.is_empty(), "{} on {}", chain.name, dev.name);
                let step = (space.len() / PER_SPACE).max(1);
                for idx in (0..space.len()).step_by(step as usize) {
                    let cand = space.candidate(idx);
                    let what = format!("{} on {}", cand.describe(chain), dev.name);
                    let kernel =
                        lower(chain, &cand, opts).unwrap_or_else(|e| panic!("{what}: {e}"));
                    assert!(kernel.smem_bytes <= dev.smem_per_block, "{what}");
                    lowered += 1;
                }
            }
        }
        assert!(lowered > 1000, "{}: only {lowered} lowered", dev.name);
    }
}
