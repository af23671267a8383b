//! Criterion bench: statement placement (§III-B DAG analysis) and
//! lowering to tile programs (the Triton-analogue backend), including a
//! candidate too big for the device: refused by `lower_within` before
//! emission, next to a full `lower` of it.

use criterion::{criterion_group, criterion_main, Criterion};
use mcfuser_ir::ChainSpec;
use mcfuser_sim::DeviceSpec;
use mcfuser_tile::{lower, lower_within, place, Candidate, Launch, LoweringOptions, TilingExpr};
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let chain = ChainSpec::gemm_chain("bench", 1, 1024, 1024, 512, 512);
    let attn = ChainSpec::attention("attn", 12, 512, 512, 64, 64);
    let cand = Candidate::new(
        TilingExpr::parse("mhnk", &chain).unwrap(),
        vec![128, 64, 64, 128],
    );
    let acand = Candidate::new(
        TilingExpr::parse("mhnk", &attn).unwrap(),
        vec![64, 64, 64, 64],
    );
    // Legal, but its f32 accumulators alone outgrow the A100's 164 KiB.
    let big = Candidate::new(
        TilingExpr::parse("mhnk", &chain).unwrap(),
        vec![256, 64, 256, 256],
    );
    let dev = DeviceSpec::a100();
    let opts = LoweringOptions::for_device(&dev);
    assert!(matches!(
        lower_within(&chain, &big, &opts, dev.smem_per_block),
        Ok(Launch::Refused { .. })
    ));
    let mut g = c.benchmark_group("lowering");
    g.bench_function("place_gemm_chain", |b| {
        b.iter(|| place(black_box(&chain), black_box(&cand)).unwrap())
    });
    g.bench_function("lower_gemm_chain", |b| {
        b.iter(|| lower(black_box(&chain), black_box(&cand), &opts).unwrap())
    });
    g.bench_function("lower_attention", |b| {
        b.iter(|| lower(black_box(&attn), black_box(&acand), &opts).unwrap())
    });
    g.bench_function("lower_over_budget", |b| {
        b.iter(|| lower(black_box(&chain), black_box(&big), &opts).unwrap())
    });
    g.bench_function("refuse_over_budget", |b| {
        b.iter(|| {
            lower_within(
                black_box(&chain),
                black_box(&big),
                &opts,
                dev.smem_per_block,
            )
            .unwrap()
        })
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
