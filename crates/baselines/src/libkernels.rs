//! Vendor-library kernel substrate (the cuBLAS / CUTLASS analogue).
//!
//! Unfused baselines execute chains one operator at a time with library
//! GEMM kernels: fixed tile *templates* chosen by a static heuristic, one
//! kernel launch per operator, intermediates round-tripping through
//! global memory (with L2 residency when they fit — the simulator models
//! that). This module builds those kernels as [`TileProgram`]s so the
//! same timing model prices everything.

use mcfuser_ir::Epilogue;
use mcfuser_sim::{
    ceil_div, measure_opts, mma_efficiency, BlockStmt, BufId, BufferRole, DType, DeviceSpec,
    MeasureOpts, ProgramBuilder, StreamKernel, TileAccess, TileIndex, TileProgram, VarRef,
};

/// The fixed tile templates a vendor library ships (subset of real
/// cuBLAS/CUTLASS kernel shapes).
pub const LIBRARY_TILES: [(u64, u64, u64); 6] = [
    (256, 128, 32),
    (128, 128, 32),
    (128, 64, 32),
    (64, 128, 32),
    (64, 64, 32),
    (64, 64, 16),
];

/// Static library heuristic: pick the template maximizing a utilization
/// score (tensor-core efficiency × occupancy proxy × padding economy).
/// This is deliberately *not* a measured search — the gap between this
/// heuristic and shape-specialized tuning is one of the reasons tuned
/// compilers beat libraries on skinny MBCI shapes.
pub fn pick_library_tile(batch: u64, m: u64, n: u64, k: u64, dev: &DeviceSpec) -> (u64, u64, u64) {
    let mut best = LIBRARY_TILES[0];
    let mut best_score = f64::MIN;
    for &(tm, tn, tk) in &LIBRARY_TILES {
        let blocks = (batch * ceil_div(m, tm) * ceil_div(n, tn)) as f64;
        let occupancy = (blocks / dev.num_sms as f64).min(1.0);
        let padded = (ceil_div(m, tm) * tm * ceil_div(n, tn) * tn * ceil_div(k, tk) * tk) as f64
            / (m * n * k) as f64;
        let score = mma_efficiency(tm, tn, tk) * occupancy / padded;
        if score > best_score {
            best_score = score;
            best = (tm, tn, tk);
        }
    }
    best
}

/// Build a batched matmul kernel `out[b,m,n] = x[b,m,k] · w[b,k,n]`
/// with the given tiles (double buffered, library style). Optionally
/// fuses a simple element-wise epilogue (Relay/BOLT epilogue fusion).
#[allow(clippy::too_many_arguments)]
pub fn matmul_program(
    name: &str,
    batch: u64,
    m: u64,
    n: u64,
    k: u64,
    tiles: (u64, u64, u64),
    dtype: DType,
    epilogue: Epilogue,
) -> TileProgram {
    let (tm, tn, tk) = tiles;
    let mut b = ProgramBuilder::new(name, dtype);
    let x = b.buffer("x", vec![batch, m, k], dtype, BufferRole::Input);
    let w = b.buffer("w", vec![batch, k, n], dtype, BufferRole::Input);
    let out = b.buffer("out", vec![batch, m, n], dtype, BufferRole::Output);
    let sa = b.smem_with("sx", tm, tk, dtype, 8, true);
    let sb = b.smem_with("sw", tk, tn, dtype, 8, true);
    let sc = b.smem("sacc", tm, tn, DType::F32);
    let gb = b.grid_dim(batch);
    let gm = b.grid_dim(ceil_div(m, tm));
    let gn = b.grid_dim(ceil_div(n, tn));
    let kl = b.fresh_loop();
    let mut body = vec![
        BlockStmt::Fill {
            dst: sc,
            value: 0.0,
        },
        BlockStmt::Loop {
            handle: kl,
            extent: ceil_div(k, tk),
            body: vec![
                BlockStmt::Load {
                    src: TileAccess {
                        buf: x,
                        indices: vec![
                            TileIndex { var: gb, tile: 1 },
                            TileIndex { var: gm, tile: tm },
                            TileIndex {
                                var: VarRef::Loop(kl),
                                tile: tk,
                            },
                        ],
                    },
                    dst: sa,
                },
                BlockStmt::Load {
                    src: TileAccess {
                        buf: w,
                        indices: vec![
                            TileIndex { var: gb, tile: 1 },
                            TileIndex {
                                var: VarRef::Loop(kl),
                                tile: tk,
                            },
                            TileIndex { var: gn, tile: tn },
                        ],
                    },
                    dst: sb,
                },
                BlockStmt::Gemm {
                    a: sa,
                    b: sb,
                    acc: sc,
                    acc_col: 0,
                },
            ],
        },
    ];
    match epilogue {
        Epilogue::None | Epilogue::Softmax { .. } | Epilogue::MaskedSoftmax { .. } => {}
        Epilogue::Relu => body.push(BlockStmt::Relu { target: sc }),
        Epilogue::Gelu => body.push(BlockStmt::Gelu { target: sc }),
        Epilogue::Scale(f) => body.push(BlockStmt::Scale {
            target: sc,
            factor: f,
        }),
    }
    body.push(BlockStmt::Store {
        dst: TileAccess {
            buf: out,
            indices: vec![
                TileIndex { var: gb, tile: 1 },
                TileIndex { var: gm, tile: tm },
                TileIndex { var: gn, tile: tn },
            ],
        },
        src: sc,
    });
    b.finish(body)
}

/// Time one library matmul on a device; `hot_input` marks the `x`
/// operand as L2-resident (it was just produced by the previous kernel).
#[allow(clippy::too_many_arguments)]
pub fn matmul_time(
    name: &str,
    batch: u64,
    m: u64,
    n: u64,
    k: u64,
    tiles: (u64, u64, u64),
    dtype: DType,
    dev: &DeviceSpec,
    hot_input: bool,
    epilogue: Epilogue,
) -> f64 {
    let p = matmul_program(name, batch, m, n, k, tiles, dtype, epilogue);
    let opts = MeasureOpts {
        l2_resident: if hot_input { vec![BufId(0)] } else { vec![] },
    };
    measure_opts(&p, dev, &opts).time
}

/// Unfused softmax over a `[rows × cols]` score matrix, library style:
/// one kernel computing row statistics, one normalizing. Returns the
/// kernels so callers can count launches.
pub fn softmax_kernels(rows: u64, cols: u64, esz: u64, hot: bool) -> Vec<StreamKernel> {
    let stats = StreamKernel {
        name: "softmax_stats".into(),
        bytes_read: (rows * cols * esz) as f64,
        bytes_written: (rows * 8) as f64,
        flops: 2.0 * (rows * cols) as f64,
        reads_hit_l2: hot,
    };
    let norm = StreamKernel {
        name: "softmax_norm".into(),
        bytes_read: (rows * cols * esz + rows * 8) as f64,
        bytes_written: (rows * cols * esz) as f64,
        flops: 2.0 * (rows * cols) as f64,
        reads_hit_l2: true, // stats pass just touched the scores
    };
    vec![stats, norm]
}

/// A single fused memory-op kernel (Ansor-style softmax: one launch that
/// still moves two read passes + one write of traffic).
pub fn fused_softmax_kernel(rows: u64, cols: u64, esz: u64, hot: bool) -> StreamKernel {
    StreamKernel {
        name: "fused_softmax".into(),
        bytes_read: 2.0 * (rows * cols * esz) as f64,
        bytes_written: (rows * cols * esz) as f64,
        flops: 4.0 * (rows * cols) as f64,
        reads_hit_l2: hot,
    }
}

/// An element-wise scaling kernel over a matrix.
pub fn scale_kernel(elems: u64, esz: u64, hot: bool) -> StreamKernel {
    let mut k = StreamKernel::elementwise("scale", elems, esz);
    k.reads_hit_l2 = hot;
    k
}

/// LayerNorm as a library kernel (two passes over the row data).
pub fn layernorm_kernel(rows: u64, cols: u64, esz: u64, hot: bool) -> StreamKernel {
    StreamKernel {
        name: "layer_norm".into(),
        bytes_read: 2.0 * (rows * cols * esz) as f64,
        bytes_written: (rows * cols * esz) as f64,
        flops: 6.0 * (rows * cols) as f64,
        reads_hit_l2: hot,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heuristic_prefers_big_tiles_for_big_gemms() {
        let dev = DeviceSpec::a100();
        let t = pick_library_tile(1, 4096, 4096, 4096, &dev);
        assert!(t.0 >= 128 && t.1 >= 128, "{t:?}");
    }

    #[test]
    fn heuristic_shrinks_for_skinny_shapes() {
        let dev = DeviceSpec::a100();
        // M=512, N=256: 128×128 gives only 8 blocks on 108 SMs.
        let t = pick_library_tile(1, 512, 256, 64, &dev);
        assert!(t.0 * t.1 <= 128 * 64, "{t:?}");
    }

    #[test]
    fn matmul_program_validates_and_measures() {
        let dev = DeviceSpec::a100();
        let p = matmul_program(
            "mm",
            2,
            256,
            256,
            128,
            (64, 64, 32),
            DType::F16,
            Epilogue::None,
        );
        p.validate().unwrap();
        let t = matmul_time(
            "mm",
            2,
            256,
            256,
            128,
            (64, 64, 32),
            DType::F16,
            &dev,
            false,
            Epilogue::None,
        );
        assert!(t > 0.0 && t.is_finite());
    }

    #[test]
    fn hot_input_is_faster() {
        let dev = DeviceSpec::a100();
        let cold = matmul_time(
            "mm",
            1,
            512,
            512,
            512,
            (128, 64, 32),
            DType::F16,
            &dev,
            false,
            Epilogue::None,
        );
        let hot = matmul_time(
            "mm",
            1,
            512,
            512,
            512,
            (128, 64, 32),
            DType::F16,
            &dev,
            true,
            Epilogue::None,
        );
        assert!(hot <= cold);
    }

    #[test]
    fn softmax_two_kernels_cost_more_than_fused_one() {
        let dev = DeviceSpec::a100();
        let two: f64 = softmax_kernels(4096, 512, 2, false)
            .iter()
            .map(|k| k.time(&dev))
            .sum();
        let one = fused_softmax_kernel(4096, 512, 2, false).time(&dev);
        assert!(two > one, "{two} !> {one}");
    }

    #[test]
    fn epilogue_fusion_adds_no_launch() {
        let dev = DeviceSpec::a100();
        let plain = matmul_time(
            "mm",
            1,
            512,
            512,
            128,
            (64, 64, 32),
            DType::F16,
            &dev,
            false,
            Epilogue::None,
        );
        let fused = matmul_time(
            "mm",
            1,
            512,
            512,
            128,
            (64, 64, 32),
            DType::F16,
            &dev,
            false,
            Epilogue::Relu,
        );
        // One kernel either way; the epilogue only adds trivial flops.
        assert!((fused - plain).abs() < 0.2 * plain);
    }
}
