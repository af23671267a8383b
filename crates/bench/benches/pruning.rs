//! Criterion bench: building the pruned space — `SearchSpace::generate`
//! and the Rule 1–4 cascade (§III-C) — on the paper's running example
//! (1.09e8 candidates in, ~1e3 out), plus the lazy
//! [`CandidateSpace`] paths that replaced the eager materialization —
//! the Rule-4 survivor-index build (lowering's footprint, priced once
//! per grid row; the paper's Eq. 1, one binary search per row), the
//! `-rule4` ablation (filter off: O(rows), nothing priced), and indexed
//! candidate decoding.
//!
//! [`CandidateSpace`]: mcfuser_core::CandidateSpace

use criterion::{criterion_group, criterion_main, Criterion};
use mcfuser_core::{build_candidate_space, SharedMemoryPruning, SpacePolicy};
use mcfuser_ir::{ChainSpec, Epilogue};
use mcfuser_sim::DeviceSpec;
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let dev = DeviceSpec::a100();
    let big = ChainSpec::gemm_chain("big", 1, 1024, 1024, 512, 512);
    let attn = ChainSpec::attention("attn", 12, 512, 512, 64, 64);
    let full = SpacePolicy::default();
    let mut g = c.benchmark_group("pruning");
    g.sample_size(20);
    g.bench_function("gemm_chain_1e8_candidates", |b| {
        b.iter(|| build_candidate_space(black_box(&big), &dev, &full))
    });
    g.bench_function("attention_s2", |b| {
        b.iter(|| build_candidate_space(black_box(&attn), &dev, &full))
    });
    // The -rule4 ablation path: the same lazy space with the filter
    // disabled — every row keeps all of axis 0, so the index costs
    // O(rows) and prices nothing.
    let no_rule4 = SpacePolicy {
        shared_memory_pruning: SharedMemoryPruning::Off,
        ..Default::default()
    };
    g.bench_function("lazy_rule4_disabled", |b| {
        b.iter(|| build_candidate_space(black_box(&big), &dev, &no_rule4))
    });
    // The Rule-4 index on a large grid (the non-power-of-two 3-GEMM
    // chain keeps 23/23/14/23/14 Rule-3 options on axes m/k/n/h/p —
    // 2,384,732 combinations in 103,684 rows): one footprint row per
    // grid row.
    let wide = ChainSpec::chain(
        "mlp3-1536",
        1,
        1536,
        vec![1536, 768, 1536, 768],
        vec![Epilogue::None; 3],
    );
    g.bench_function("rule4_index_2_4e6_grid", |b| {
        b.iter(|| build_candidate_space(black_box(&wide), &dev, &full))
    });
    // The largest space the compile workload builds: the biased GELU
    // 3-layer MLP at m 96, h 768 (4 × 14⁴ = 153,664 combinations in
    // 38,416 rows), under lowering's footprint and under the paper's
    // Eq. 1.
    let mut mlp3 = ChainSpec::chain(
        "mlp3-m96-h768",
        1,
        96,
        vec![768; 4],
        vec![Epilogue::Gelu, Epilogue::Gelu, Epilogue::None],
    );
    mlp3.biases = vec![true; 3];
    let paper_rule4 = SpacePolicy {
        shared_memory_pruning: SharedMemoryPruning::PaperEq1,
        ..Default::default()
    };
    g.bench_function("rule4_index_mlp3_m96_h768", |b| {
        b.iter(|| build_candidate_space(black_box(&mlp3), &dev, &full))
    });
    g.bench_function("paper_rule4_index_mlp3_m96_h768", |b| {
        b.iter(|| build_candidate_space(black_box(&mlp3), &dev, &paper_rule4))
    });
    // Indexed decoding: the hot operation of sampling-based search.
    let pruned = build_candidate_space(&big, &dev, &full);
    let stride = (pruned.len() / 251).max(1);
    g.bench_function("candidate_indexing", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            let mut i = 0u64;
            while i < pruned.len() {
                acc ^= black_box(pruned.candidate(i)).tiles[0];
                i += stride;
            }
            acc
        })
    });
    // Streaming enumeration: the full-ranking seed path of Algorithm 1.
    g.bench_function("candidate_streaming", |b| {
        b.iter(|| black_box(&pruned).iter().map(|c| c.tiles[0]).sum::<u64>())
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
