//! The lazy [`CandidateSpace`] contract: index-for-index equivalent to
//! the eager materialization it replaced, with no caps — candidates the
//! old `Vec` silently clipped are reachable and searched.

use proptest::prelude::*;

use mcfuser::core::{
    build_candidate_space, heuristic_search, CandidateSpace, SearchParams, SpacePolicy,
};
use mcfuser::ir::{EpilogueStitch, PrologueSpec, ResidualSource};
use mcfuser::prelude::*;
use mcfuser::sim::TuningClock;
use mcfuser::tile::{estimate_shmem_bytes_for_tiles, rule4_fits, Candidate, RULE4_MARGIN};

/// The old eager materialization, reproduced as the reference oracle.
struct Eager {
    /// Every candidate, expression-major, in grid order.
    candidates: Vec<Candidate>,
    /// The tile combinations Rule 4 rejected.
    rejected: Vec<Vec<u64>>,
    /// The smallest Eq. 1 estimate over the whole grid.
    min_estimate: Option<u64>,
}

/// An axis-0-fastest odometer over the Rule-3 tile domains that
/// evaluates Rule 4 on every combination in grid order (an
/// expression-independent pre-filter), then expression-major candidate
/// construction. (The shipped version additionally clipped the result at
/// 200 000 candidates and 10⁷ odometer steps — the bug under test — so
/// the oracle is only run on small spaces.)
fn eager_materialize(space: &CandidateSpace, smem_limit: Option<u64>) -> Eager {
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
            let est = estimate_shmem_bytes_for_tiles(chain, &tiles);
            min_estimate = Some(min_estimate.map_or(est, |m| m.min(est)));
            let keep = match smem_limit {
                Some(limit) => rule4_fits(
                    chain,
                    &Candidate::new(TilingExpr::Unit, tiles.clone()),
                    limit,
                ),
                None => true,
            };
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
fn assert_matches_oracle(space: &CandidateSpace, smem_limit: Option<u64>) {
    let name = &space.chain.name;
    let eager = eager_materialize(space, smem_limit);
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
    let expected_min = smem_limit.and(eager.min_estimate);
    assert_eq!(space.min_estimated_smem(), expected_min, "{name}: minimum");
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
    /// `PruneStats::after_rule4` is exactly the reachable count.
    #[test]
    fn lazy_space_equals_eager_materialization(
        chain in small_chain_strategy(),
        dev in device_strategy(),
    ) {
        let pruned = build_candidate_space(&chain, &dev, &SpacePolicy::default());
        assert_matches_oracle(&pruned, Some(dev.smem_per_block));
    }

    /// The `-rule4` ablation admits the whole Rule-3 grid through the
    /// same lazy space, again index-for-index equal to eager.
    #[test]
    fn lazy_space_without_rule4_equals_eager(
        chain in small_chain_strategy(),
        dev in device_strategy(),
    ) {
        let policy = SpacePolicy { shared_memory_pruning: false, ..Default::default() };
        let pruned = build_candidate_space(&chain, &dev, &policy);
        prop_assert_eq!(pruned.surviving_combos(), pruned.grid_combos());
        assert_matches_oracle(&pruned, None);
    }
}

/// A stitched FFN with a residual LayerNorm prologue and a tail
/// LayerNorm over d_L = 512 > 128: its last weight panel streams, so
/// Eq. 1 falls along the last axis and Rule 4 flips from reject to
/// accept there.
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

/// The frontier scan that builds the index — one binary search per grid
/// row for the end of the row's axis-0 prefix of Rule-4 survivors —
/// equals the dense scan that estimates every combination, on every
/// chain family and both devices. That includes the stitched
/// tail-LayerNorm chain, whose estimate is monotone along axis 0 only.
#[test]
fn frontier_scan_equals_dense_scan() {
    for dev in [DeviceSpec::a100(), DeviceSpec::rtx3080()] {
        for chain in &chain_families() {
            let space = build_candidate_space(chain, &dev, &SpacePolicy::default());
            assert!(!space.is_empty(), "{} on {}", chain.name, dev.name);
            assert_matches_oracle(&space, Some(dev.smem_per_block));
        }
    }

    // The stitched chain really exercises the caveat: on the A100 some
    // row is rejected at a partial last tile and accepted at the full
    // row, so an index that assumed monotonicity along the last axis
    // would drop survivors.
    let chain = stitched_tail_layer_norm();
    let dev = DeviceSpec::a100();
    let space = build_candidate_space(&chain, &dev, &SpacePolicy::default());
    let last = space.tile_domains.len() - 1;
    let d_l = *chain.dims.last().unwrap();
    let flips = space
        .iter()
        .filter(|c| c.tiles[last] == d_l)
        .filter(|c| {
            let mut partial = c.clone();
            partial.tiles[last] = d_l / 2;
            space.index_of(&partial).is_none()
        })
        .count();
    assert!(flips > 0, "no reject-to-accept flip along the last axis");
}

/// With Rule 4 off every row's frontier is the whole of axis 0: the
/// index admits the full Rule-3 grid and equals the dense scan of it,
/// on every chain family and both devices.
#[test]
fn frontier_scan_equals_dense_scan_without_rule4() {
    let policy = SpacePolicy {
        shared_memory_pruning: false,
        ..Default::default()
    };
    for dev in [DeviceSpec::a100(), DeviceSpec::rtx3080()] {
        for chain in &chain_families() {
            let space = build_candidate_space(chain, &dev, &policy);
            assert!(!space.is_empty(), "{} on {}", chain.name, dev.name);
            assert_eq!(
                space.surviving_combos(),
                space.grid_combos(),
                "{}",
                chain.name
            );
            assert_matches_oracle(&space, None);
        }
    }
}

/// A 3-GEMM chain whose pruned space exceeds the old 200 000-candidate
/// materialization cap (non-power-of-two 1536/768 extents keep 14–23
/// Rule-3 options per axis across 5 axes → 273 885 survivors on A100).
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
/// dense walk that estimates every combination in grid order finds the
/// same survivor at every sampled rank, and `index_of` agrees on both
/// sides of the Rule-4 boundary.
#[test]
fn large_grid_index_matches_a_dense_walk() {
    let chain = big_3gemm();
    let dev = DeviceSpec::a100();
    let space = build_candidate_space(&chain, &dev, &SpacePolicy::default());
    assert!(space.grid_combos() > 2_000_000, "{}", space.grid_combos());
    let budget = RULE4_MARGIN * dev.smem_per_block as f64;
    let domains = &space.tile_domains;
    let expr = &space.exprs[0];
    let mut idx = vec![0usize; domains.len()];
    let mut tiles: Vec<u64> = domains.iter().map(|d| d[0]).collect();
    let (mut rank, mut rejected) = (0u64, 0u64);
    for _ in 0..space.grid_combos() {
        let fits = estimate_shmem_bytes_for_tiles(&chain, &tiles) as f64 <= budget;
        if fits {
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

#[test]
fn candidates_beyond_the_old_cap_are_reachable_and_searched() {
    let chain = big_3gemm();
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
    // that passes Rule 4.
    for idx in [200_000, pruned.len() / 2, pruned.len() - 1] {
        let c = pruned.candidate(idx);
        assert!(rule4_fits(&chain, &c, dev.smem_per_block), "index {idx}");
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
        min_rounds: 1,
        ..Default::default()
    };
    let clock = TuningClock::new();
    let out = heuristic_search(&chain, &dev, &pruned, &params, &clock)
        .expect("search over the uncapped space finds a kernel");
    assert!(out.profile.time.is_finite());
    assert!(out.kernel.smem_bytes <= dev.smem_per_block);
}
