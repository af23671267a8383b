//! Criterion bench: functional (for-value) execution of fused kernels on
//! the simulator — the correctness-oracle path.

use criterion::{criterion_group, criterion_main, Criterion};
use mcfuser_ir::ChainSpec;
use mcfuser_sim::{execute_with_arena, BufferArena, TensorStorage, VerifiedProgram};
use mcfuser_tile::{lower, Candidate, LoweringOptions, TilingExpr};
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let chain = ChainSpec::gemm_chain("bench", 1, 128, 96, 64, 80);
    let cand = Candidate::new(
        TilingExpr::parse("mhnk", &chain).unwrap(),
        vec![32, 32, 32, 16],
    );
    let k = lower(&chain, &cand, &LoweringOptions::default()).unwrap();
    // Verified once, as a plan does; the timed loop measures execution.
    let program = VerifiedProgram::new(k.program).unwrap();
    let inputs = chain.random_inputs(1);
    let mut g = c.benchmark_group("functional_exec");
    g.sample_size(20);
    g.bench_function("fused_2gemm_128x96", |b| {
        b.iter(|| {
            let mut st = TensorStorage::for_program(&program);
            for (i, t) in inputs.iter().enumerate() {
                st.tensors[i] = t.clone();
            }
            execute_with_arena(black_box(&program), &mut st, &mut BufferArena::new()).unwrap();
            st
        })
    });
    g.bench_function("cpu_reference_128x96", |b| {
        b.iter(|| chain.reference(black_box(&inputs)))
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
