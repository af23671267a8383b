//! Criterion bench: a full MCFuser tuning session (prune + Algorithm 1)
//! on a small chain — the end-to-end per-sub-graph cost — and on a
//! stitched FFN whose tail LayerNorm makes most ranked candidates
//! illegal to lower.

use criterion::{criterion_group, criterion_main, Criterion};
use mcfuser_core::McFuser;
use mcfuser_ir::{ChainSpec, Epilogue, EpilogueStitch, PrologueSpec, ResidualSource};
use mcfuser_sim::DeviceSpec;
use std::hint::black_box;

/// A BERT-style FFN with a residual LayerNorm prologue and a residual +
/// LayerNorm tail over d_L = 256: only candidates whose last tile spans
/// the whole row can lower.
fn stitched_ffn() -> ChainSpec {
    let mut c = ChainSpec::gemm_chain("ffn", 1, 128, 512, 256, 256);
    c.biases = vec![true, true];
    c.epilogues[0] = Epilogue::Gelu;
    c.prologue = Some(PrologueSpec {
        residual: true,
        affine: true,
        a_half: false,
        eps: 1e-5,
    });
    c.stitch_epilogue = Some(EpilogueStitch {
        residual: ResidualSource::PrologueOut,
        layer_norm: true,
        affine: true,
        eps: 1e-5,
    });
    c
}

fn bench(c: &mut Criterion) {
    let dev = DeviceSpec::a100();
    let chain = ChainSpec::gemm_chain("bench", 1, 512, 256, 64, 64);
    let attn = ChainSpec::attention("attn", 8, 256, 256, 64, 64);
    let ffn = stitched_ffn();
    let mut g = c.benchmark_group("search");
    g.sample_size(10);
    g.bench_function("tune_gemm_chain_g1", |b| {
        b.iter(|| McFuser::new().tune(black_box(&chain), &dev).unwrap())
    });
    g.bench_function("tune_attention", |b| {
        b.iter(|| McFuser::new().tune(black_box(&attn), &dev).unwrap())
    });
    g.bench_function("tune_stitched_ffn", |b| {
        b.iter(|| McFuser::new().tune(black_box(&ffn), &dev).unwrap())
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
