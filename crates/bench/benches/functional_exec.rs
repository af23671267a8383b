//! Criterion bench: functional (for-value) execution of fused kernels on
//! the simulator — the correctness-oracle path — and the host GEMM and
//! GELU kernels every fused kernel and reference lane runs, at the tile
//! shapes serving and decoding call them with.
//!
//! The fused launches fold each grid row's blocks into lanes that share
//! the row-invariant work: the 2-GEMM chain's grid `[1, 4, 5]` and
//! serve's Mixer `ch.fc2` kernel (`[1, 4, 8]`) share their first GEMM,
//! and serve's BERT-mini attention kernel (`[4, 4, 2]`) shares `QKᵀ` and
//! the softmax.

use criterion::{criterion_group, criterion_main, Criterion};
use mcfuser_ir::{ChainSpec, EpilogueStitch, ResidualSource};
use mcfuser_sim::{
    execute_with_arena, gelu, gelu_in_place, gemm, BufferArena, TensorStorage, VerifiedProgram,
};
use mcfuser_tile::{lower, Candidate, LoweringOptions, TilingExpr};
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let mut mixer_fc2 = ChainSpec::gemm_chain("ch.fc2", 1, 64, 512, 128, 128);
    mixer_fc2.stitch_epilogue = Some(EpilogueStitch {
        residual: ResidualSource::External,
        layer_norm: false,
        affine: false,
        eps: 1e-5,
    });
    let launches = [
        (
            "fused_2gemm_128x96",
            ChainSpec::gemm_chain("bench", 1, 128, 96, 64, 80),
            "mhnk",
            vec![32, 32, 32, 16],
        ),
        (
            "serve_attention_4x4x2",
            ChainSpec::attention("attn", 4, 64, 64, 32, 32),
            "mnkh",
            vec![16, 32, 64, 16],
        ),
        (
            "serve_mixer_fc2_1x4x8",
            mixer_fc2,
            "mnkh",
            vec![16, 128, 64, 16],
        ),
    ];
    let mut g = c.benchmark_group("functional_exec");
    g.sample_size(20);
    for (name, chain, expr, tiles) in &launches {
        let cand = Candidate::new(TilingExpr::parse(expr, chain).unwrap(), tiles.clone());
        let k = lower(chain, &cand, &LoweringOptions::default()).unwrap();
        // Verified once, as a plan does; the timed loop measures execution.
        let program = VerifiedProgram::new(k.program).unwrap();
        assert!(
            program.lanes().is_some(),
            "{name} shares work across its rows"
        );
        let inputs = chain.random_inputs(1);
        g.bench_function(name, |b| {
            b.iter(|| {
                let mut st = TensorStorage::for_program(&program);
                for (i, t) in inputs.iter().enumerate() {
                    st.tensors[i] = t.clone();
                }
                execute_with_arena(black_box(&program), &mut st, &mut BufferArena::new()).unwrap();
                st
            })
        });
    }
    let (_, chain, ..) = &launches[0];
    let inputs = chain.random_inputs(1);
    g.bench_function("cpu_reference_128x96", |b| {
        b.iter(|| chain.reference(black_box(&inputs)))
    });
    g.finish();

    // (m, k, n): serve's FFN, Mixer and attention tiles, decode's m = 1
    // and m = 2 projection GEMVs, one head of the KV scatter, and a
    // 64-row block. One call is m·k·n MACs.
    let mut g = c.benchmark_group("host_gemm");
    g.sample_size(200);
    for (m, k, n) in [
        (16, 128, 64),
        (16, 64, 128),
        (16, 64, 16),
        (16, 32, 16),
        (16, 64, 32),
        (32, 1, 32),
        (1, 128, 128),
        (1, 128, 384),
        (2, 128, 512),
        (64, 128, 128),
    ] {
        let fill = |len: usize, salt: f32| -> Vec<f32> {
            (0..len).map(|i| (i as f32 * 0.37 + salt).sin()).collect()
        };
        let (a, b) = (fill(m * k, 1.0), fill(k * n, 2.0));
        let mut acc = vec![0.0f32; m * n];
        g.bench_function(&format!("gemm_{m}x{k}x{n}"), |bench| {
            bench.iter(|| gemm(black_box(&a), black_box(&b), &mut acc, m, n, k, n))
        });
    }
    g.finish();

    // (rows, cols): serve's FFN tile, and one decode step's FFN
    // activation (GPT-mini's 256-wide intermediate) for a width-2 launch;
    // then the scalar definition on the serve tile.
    let activations =
        |len: usize| -> Vec<f32> { (0..len).map(|i| 3.0 * (i as f32 * 0.37).sin()).collect() };
    let mut g = c.benchmark_group("gelu");
    g.sample_size(200);
    for (rows, cols) in [(16, 64), (2, 256)] {
        let x = activations(rows * cols);
        let mut tile = x.clone();
        g.bench_function(&format!("gelu_{rows}x{cols}"), |bench| {
            bench.iter(|| {
                tile.copy_from_slice(&x);
                gelu_in_place(black_box(&mut tile));
            })
        });
    }
    let x = activations(16 * 64);
    let mut tile = x.clone();
    g.bench_function("libm_16x64", |bench| {
        bench.iter(|| {
            for (t, &v) in tile.iter_mut().zip(&x) {
                *t = gelu(black_box(v));
            }
        })
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
