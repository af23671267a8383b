//! Integration: the quantitative *shape* claims of the paper's figures
//! must hold on the reproduction (not the absolute numbers — the
//! substrate is a simulator — but who wins, what grows, what shrinks).

use mcfuser::core::{build_candidate_space, estimate, SearchSpace, SpacePolicy};
use mcfuser::prelude::*;
use mcfuser::sim::{measure, measure_noisy};
use mcfuser::tile::{estimate_shmem_bytes, lower, LoweringOptions};
use mcfuser::workloads::{attention_suite, gemm_chain_suite, gemm_chain_workload};

/// Pearson correlation.
fn pearson(xs: &[f64], ys: &[f64]) -> f64 {
    let n = xs.len() as f64;
    let mx = xs.iter().sum::<f64>() / n;
    let my = ys.iter().sum::<f64>() / n;
    let (mut num, mut dx, mut dy) = (0.0, 0.0, 0.0);
    for (x, y) in xs.iter().zip(ys) {
        num += (x - mx) * (y - my);
        dx += (x - mx) * (x - mx);
        dy += (y - my) * (y - my);
    }
    num / (dx.sqrt() * dy.sqrt())
}

#[test]
fn fig3_search_space_census() {
    // 24 deep + 2 flat expressions; 1.09e8 candidates for the running
    // example (§III-C).
    let chain = ChainSpec::gemm_chain("census", 1, 1024, 1024, 512, 512);
    let space = SearchSpace::generate(&chain);
    assert_eq!(space.exprs.len(), 26);
    assert_eq!(space.count(), 109_051_904);
}

#[test]
fn fig7_pruning_waterfall_shape() {
    let chain = ChainSpec::gemm_chain("wf", 1, 1024, 1024, 512, 512);
    let stats = build_candidate_space(&chain, &DeviceSpec::a100(), &SpacePolicy::default()).stats;
    // Each rule strictly shrinks (or keeps) the space; total ≥ 4 orders.
    assert!(stats.after_rule1 < stats.original);
    assert!(stats.after_rule2 <= stats.after_rule1);
    assert!(
        stats.after_rule3 < stats.after_rule2 / 50,
        "rule 3 must cut ~99%"
    );
    assert!(stats.after_rule4 < stats.after_rule3);
    assert!(
        stats.after_rule4 * 10_000 < stats.original,
        "4+ orders of magnitude"
    );
}

#[test]
fn fig2_throughput_collapses_with_k() {
    // Constant-complexity K sweep: achieved TFLOPS at K=32 must be far
    // below K=1024 (the MBCI transition).
    let dev = DeviceSpec::a100();
    let t_of = |m: u64, k: u64| {
        let chain = ChainSpec::single_matmul("sweep", 1, m, m, k);
        let tuned = FusionEngine::builder(dev.clone())
            .build()
            .tune(&chain)
            .unwrap();
        chain.flops() / tuned.profile.time
    };
    let fat = t_of(1024, 1024);
    let skinny = t_of(4096, 64);
    assert!(fat > 1.8 * skinny, "fat {fat:.3e} vs skinny {skinny:.3e}");
}

#[test]
fn fig10_shmem_estimate_accuracy() {
    use rand::prelude::*;
    let dev = DeviceSpec::a100();
    let chain = gemm_chain_workload("G4").unwrap();
    let pruned = build_candidate_space(&chain, &dev, &SpacePolicy::default());
    let mut rng = StdRng::seed_from_u64(99);
    let (mut agree, mut total) = (0, 0);
    for _ in 0..150 {
        // Rules 1–3 only, deliberately spanning the Rule-4 boundary.
        let cand = pruned.sample_rule3(&mut rng);
        let est = estimate_shmem_bytes(&chain, &cand) as f64;
        let Ok(lk) = lower(&chain, &cand, &LoweringOptions::for_device(&dev)) else {
            continue;
        };
        let kept = est <= 1.2 * dev.smem_per_block as f64;
        let runs = lk.smem_bytes <= dev.smem_per_block;
        total += 1;
        if kept == runs {
            agree += 1;
        }
    }
    let acc = agree as f64 / total as f64;
    assert!(acc > 0.7, "estimate accuracy {acc:.2} (paper >0.9)");
}

#[test]
fn fig11_model_correlates_with_measurement() {
    use rand::prelude::*;
    let dev = DeviceSpec::a100();
    let chain = gemm_chain_workload("G2").unwrap();
    let pruned = build_candidate_space(&chain, &dev, &SpacePolicy::default());
    let mut rng = StdRng::seed_from_u64(7);
    let (mut ests, mut meas) = (Vec::new(), Vec::new());
    while ests.len() < 60 {
        let cand = pruned.candidate(rng.gen_range(0..pruned.len()));
        let Ok(e) = estimate(&chain, &cand, &dev) else {
            continue;
        };
        let Ok(lk) = lower(&chain, &cand, &LoweringOptions::for_device(&dev)) else {
            continue;
        };
        if lk.smem_bytes > dev.smem_per_block {
            continue;
        }
        ests.push(e.total);
        meas.push(measure_noisy(&lk.program, &dev, ests.len() as u64).time);
    }
    let r = pearson(&ests, &meas);
    assert!(r > 0.6, "correlation {r:.2} (paper 0.8-0.92)");
}

#[test]
fn all_table_workloads_are_mbci_and_tunable() {
    let dev = DeviceSpec::a100();
    for chain in gemm_chain_suite()
        .into_iter()
        .take(4)
        .chain(attention_suite().into_iter().take(2))
    {
        assert!(chain.is_memory_bound(&dev), "{} not MBCI", chain.name);
        let tuned = FusionEngine::builder(dev.clone())
            .build()
            .tune(&chain)
            .unwrap();
        assert!(tuned.profile.time.is_finite());
        assert!(tuned.kernel.smem_bytes <= dev.smem_per_block);
    }
}

#[test]
fn alpha_slowdown_matches_eq5_shape() {
    // Few-block kernels are penalized exactly like Eq. 5 predicts: the
    // simulator's measured time rises as blocks shrink below the SM count.
    let dev = DeviceSpec::a100();
    let chain = ChainSpec::gemm_chain("alpha", 1, 512, 512, 128, 128);
    let mk = |tm: u64, th: u64| {
        let cand = mcfuser::tile::Candidate::new(
            mcfuser::tile::TilingExpr::parse("mhnk", &chain).unwrap(),
            vec![tm, 64, 64, th],
        );
        let lk = lower(&chain, &cand, &LoweringOptions::for_device(&dev)).unwrap();
        (cand.num_blocks(&chain), measure(&lk.program, &dev).time)
    };
    let (blocks_many, t_many) = mk(64, 32); // 8 × 4 = 32 blocks
    let (blocks_few, t_few) = mk(512, 128); // 1 × 1 = 1 block
    assert!(blocks_many > blocks_few);
    assert!(
        t_few > t_many,
        "few-block kernel must be slower: {t_few} vs {t_many}"
    );
}
