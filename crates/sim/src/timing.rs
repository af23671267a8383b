//! Microarchitectural timing model — the simulator's "measurement".
//!
//! This is the substitute for running a compiled kernel on real silicon.
//! It is deliberately *richer* than MCFuser's analytical model (Eqs. 2–5 of
//! the paper): it accounts for L2 caching of re-read tiles, tensor-core
//! utilization as a function of tile shape, double-buffering overlap, wave
//! quantization and per-SM bandwidth caps. The gap between this model and
//! the coarse analytical one is what produces the imperfect-but-useful
//! correlations of the paper's Fig. 11.
//!
//! The model is a throughput/latency roofline evaluated per wave:
//!
//! ```text
//! t_kernel = launch + Σ_waves max(t_compute, t_dram, t_l2, t_smem)
//! ```
//!
//! with per-wave resources scaled by how many SMs the wave actually
//! occupies — which is precisely the effect the paper's slowdown factor
//! α = (N_block + N_SM)/N_block approximates.

use rustc_hash::FxHashMap;

use crate::device::DeviceSpec;
use crate::kernel::{BlockStmt, BufId, TileProgram};
use crate::noise::noise_factor;

/// Which resource a kernel saturates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bound {
    /// Tensor-core / ALU throughput limited.
    Compute,
    /// DRAM bandwidth limited.
    Dram,
    /// L2 bandwidth limited.
    L2,
    /// Shared-memory bandwidth limited.
    Smem,
    /// Too few blocks to fill the machine: serial block latency dominates.
    Latency,
}

/// Detailed measurement of one kernel launch.
#[derive(Debug, Clone)]
pub struct KernelProfile {
    /// End-to-end kernel time in seconds (including launch overhead).
    pub time: f64,
    /// Total floating-point operations.
    pub flops: f64,
    /// Total global-memory bytes requested by the program.
    pub gmem_bytes: f64,
    /// Bytes actually served by DRAM (after L2 filtering).
    pub dram_bytes: f64,
    /// Bytes served by L2 hits.
    pub l2_bytes: f64,
    /// Shared-memory traffic (loads into + operand reads out of smem).
    pub smem_traffic_bytes: f64,
    /// Physical shared memory per block (padding + double buffers).
    pub smem_bytes_per_block: u64,
    /// Launch-grid size.
    pub blocks: u64,
    /// Blocks resident on the device at once.
    pub concurrent_blocks: u32,
    /// Number of waves.
    pub waves: u64,
    /// Dominant resource.
    pub bound: Bound,
    /// Whether load/compute overlap (double buffering) was in effect.
    pub pipelined: bool,
    /// Arithmetic intensity actually achieved (FLOP per DRAM byte).
    pub flops_per_dram_byte: f64,
    /// Achieved arithmetic throughput, FLOP/s.
    pub achieved_flops: f64,
}

/// Options controlling a measurement.
#[derive(Debug, Clone, Default)]
pub struct MeasureOpts {
    /// Buffers assumed resident in L2 from a previous kernel in the same
    /// sequence (their first read hits L2 instead of DRAM). Used by the
    /// unfused baselines to model producer→consumer reuse across launches.
    pub l2_resident: Vec<BufId>,
}

/// Tensor-core (or FMA-pipe) utilization as a function of tile shape.
///
/// Small tiles cannot fill the MMA pipeline: a 16×16×16 tile reaches only
/// ~18 % of peak while 128×128×32 is treated as saturating. The functional
/// form `t/(t+c)` per dimension is a standard pipeline-fill model.
pub fn mma_efficiency(tm: u64, tn: u64, tk: u64) -> f64 {
    #[inline]
    fn f(t: f64, c: f64) -> f64 {
        t / (t + c)
    }
    let raw = f(tm as f64, 24.0) * f(tn as f64, 24.0) * f(tk as f64, 12.0);
    let norm = f(128.0, 24.0) * f(128.0, 24.0) * f(32.0, 12.0);
    // Very large accumulator tiles spill registers: mild penalty.
    let spill = if tm * tn > 128 * 256 { 0.88 } else { 1.0 };
    (raw / norm).min(1.0) * spill
}

/// Per-block statistics collected by walking the program.
#[derive(Debug, Default, Clone)]
struct BlockStats {
    /// Global bytes loaded per block, per buffer.
    load_bytes: FxHashMap<BufId, f64>,
    /// Global bytes stored per block, per buffer.
    store_bytes: FxHashMap<BufId, f64>,
    /// (flops, efficiency) of each GEMM × its trip count.
    gemm_flops: Vec<(f64, f64)>,
    /// Element-wise / softmax FLOPs (run on the FP32 pipe).
    misc_flops: f64,
    /// Shared-memory bytes moved (tile fills + operand reads).
    smem_traffic: f64,
    /// Total loop iterations executed (instruction-issue overhead proxy).
    iterations: f64,
    /// Whether every load target is double buffered (enables overlap).
    all_loads_buffered: bool,
    any_load: bool,
}

fn walk(p: &TileProgram, stmts: &[BlockStmt], trips: f64, st: &mut BlockStats) {
    for s in stmts {
        match s {
            BlockStmt::Loop { extent, body, .. } => {
                st.iterations += trips * *extent as f64;
                walk(p, body, trips * *extent as f64, st);
            }
            BlockStmt::Load { src, dst } => {
                let d = &p.smem[dst.0];
                // Global traffic moves the buffer's *storage* precision;
                // the conversion to the tile's precision happens in
                // registers on the way into shared memory.
                let gmem =
                    (d.rows * d.cols * p.buffers[src.buf.0].dtype.size_bytes()) as f64 * trips;
                *st.load_bytes.entry(src.buf).or_default() += gmem;
                st.any_load = true;
                if d.streamed {
                    // Global->register stream: no smem staging, and the
                    // cp.async pipeline overlaps it like a buffered load.
                } else {
                    let bytes = (d.rows * d.cols * d.dtype.size_bytes()) as f64 * trips;
                    st.smem_traffic += bytes;
                    if !d.double_buffered {
                        st.all_loads_buffered = false;
                    }
                }
            }
            BlockStmt::Store { dst, src } => {
                let d = &p.smem[src.0];
                let bytes =
                    (d.rows * d.cols * p.buffers[dst.buf.0].dtype.size_bytes()) as f64 * trips;
                *st.store_bytes.entry(dst.buf).or_default() += bytes;
                st.smem_traffic += bytes;
            }
            BlockStmt::Gemm { a, b, .. } => {
                let (da, db) = (&p.smem[a.0], &p.smem[b.0]);
                let (m, k) = (da.rows, da.cols);
                // A chunked final stage writes a column slice of the
                // accumulator, so the MAC count follows the B tile.
                let n = db.cols;
                let flops = 2.0 * (m * n * k) as f64 * trips;
                st.gemm_flops.push((flops, mma_efficiency(m, n, k)));
                // Operand reads from smem (accumulator lives in registers).
                // A streamed B panel is already in registers and costs no
                // smem bandwidth.
                let dt = p.dtype.size_bytes() as f64;
                let operands = if db.streamed {
                    (m * k) as f64
                } else {
                    (m * k) as f64 + (k * n) as f64
                };
                st.smem_traffic += operands * dt * trips * (1.0 + n as f64 / 256.0).min(2.0);
            }
            BlockStmt::OnlineSoftmax { scores, .. } => {
                let d = &p.smem[scores.0];
                st.misc_flops += 6.0 * (d.rows * d.cols) as f64 * trips;
            }
            BlockStmt::Gelu { target } => {
                // tanh + polynomial: markedly heavier than a ReLU.
                let d = &p.smem[target.0];
                st.misc_flops += 8.0 * (d.rows * d.cols) as f64 * trips;
            }
            BlockStmt::RowDiv { target, .. }
            | BlockStmt::Relu { target }
            | BlockStmt::Scale { target, .. }
            | BlockStmt::AddBias { target, .. }
            | BlockStmt::AddTile { target, .. } => {
                let d = &p.smem[target.0];
                st.misc_flops += (d.rows * d.cols) as f64 * trips;
            }
            BlockStmt::Fill { dst, .. } => {
                let d = &p.smem[dst.0];
                st.misc_flops += 0.25 * (d.rows * d.cols) as f64 * trips;
            }
            BlockStmt::Quantize { target, .. } => {
                let d = &p.smem[target.0];
                st.misc_flops += (d.rows * d.cols) as f64 * trips;
            }
            BlockStmt::RowNormStats {
                a,
                residual,
                rows,
                cols,
                ..
            } => {
                // Two raw passes over the full rows, straight from global
                // memory at each operand's storage precision (the stitched
                // prologue's extra traffic).
                let pass = |buf: BufId| (rows * cols * p.buffers[buf.0].dtype.size_bytes()) as f64;
                *st.load_bytes.entry(a.buf).or_default() += pass(a.buf) * trips * 2.0;
                if let Some(res) = residual {
                    *st.load_bytes.entry(res.buf).or_default() += pass(res.buf) * trips * 2.0;
                }
                st.misc_flops += 4.0 * (rows * cols) as f64 * trips;
            }
            BlockStmt::NormalizeTile { target, .. } => {
                let d = &p.smem[target.0];
                st.misc_flops += 4.0 * (d.rows * d.cols) as f64 * trips;
                st.smem_traffic += (d.rows * d.cols * 4) as f64 * trips;
            }
            BlockStmt::AddGlobal { target, src } => {
                let d = &p.smem[target.0];
                let bytes =
                    (d.rows * d.cols * p.buffers[src.buf.0].dtype.size_bytes()) as f64 * trips;
                *st.load_bytes.entry(src.buf).or_default() += bytes;
                st.misc_flops += (d.rows * d.cols) as f64 * trips;
            }
            BlockStmt::AddRecomputedNorm {
                target,
                a,
                residual,
                ..
            } => {
                let d = &p.smem[target.0];
                let tile = (d.rows * d.cols) as f64 * trips;
                *st.load_bytes.entry(a.buf).or_default() +=
                    tile * p.buffers[a.buf.0].dtype.size_bytes() as f64;
                if let Some(res) = residual {
                    *st.load_bytes.entry(res.buf).or_default() +=
                        tile * p.buffers[res.buf.0].dtype.size_bytes() as f64;
                }
                st.misc_flops += 5.0 * tile;
            }
            BlockStmt::LayerNormTile { target, .. } => {
                let d = &p.smem[target.0];
                st.misc_flops += 8.0 * (d.rows * d.cols) as f64 * trips;
                st.smem_traffic += (d.rows * d.cols * 4) as f64 * trips;
            }
        }
    }
}

/// Measure a kernel (deterministic; no noise).
pub fn measure(p: &TileProgram, dev: &DeviceSpec) -> KernelProfile {
    measure_opts(p, dev, &MeasureOpts::default())
}

/// Measure a kernel with measurement noise derived from `seed` — this is
/// what "running the candidate on hardware" returns to the tuners.
pub fn measure_noisy(p: &TileProgram, dev: &DeviceSpec, seed: u64) -> KernelProfile {
    let mut prof = measure(p, dev);
    prof.time *= noise_factor(seed, hash_program(p));
    prof
}

/// Stable hash of a program used to seed per-candidate noise.
pub fn hash_program(p: &TileProgram) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = rustc_hash::FxHasher::default();
    p.name.hash(&mut h);
    p.grid.hash(&mut h);
    for s in &p.smem {
        s.rows.hash(&mut h);
        s.cols.hash(&mut h);
        s.double_buffered.hash(&mut h);
    }
    h.finish()
}

/// Measure with explicit options (L2-residency hints for kernel sequences).
pub fn measure_opts(p: &TileProgram, dev: &DeviceSpec, opts: &MeasureOpts) -> KernelProfile {
    let mut st = BlockStats {
        all_loads_buffered: true,
        ..Default::default()
    };
    walk(p, &p.body, 1.0, &mut st);

    let blocks = p.num_blocks();
    let nb = blocks as f64;
    let smem_bytes = p.smem_bytes();
    let conc = dev.concurrent_blocks(smem_bytes);

    // ---- Global-memory traffic with L2 filtering -----------------------
    // Unique bytes of each buffer can be read from DRAM at most once; the
    // remainder are re-reads that hit L2 if the working set fits.
    let mut dram_bytes = 0.0;
    let mut l2_bytes = 0.0;
    let mut total_gmem = 0.0;
    let mut working_set = 0.0;
    for (&buf, &per_block) in &st.load_bytes {
        let total = per_block * nb;
        total_gmem += total;
        working_set += p.buffers[buf.0].bytes() as f64;
    }
    let l2_eff = 0.8 * dev.l2_bytes as f64;
    let miss = if working_set <= l2_eff {
        0.0
    } else {
        1.0 - l2_eff / working_set
    };
    // Blocks of a wave are dispatched in grid order and share slabs of the
    // operand tensors, so even a capacity-missing working set enjoys strong
    // wave-local reuse; discount the modeled misses accordingly.
    const WAVE_LOCALITY: f64 = 0.35;
    let miss = miss * WAVE_LOCALITY;
    for (&buf, &per_block) in &st.load_bytes {
        let total = per_block * nb;
        let unique = (p.buffers[buf.0].bytes() as f64).min(total);
        let rereads = total - unique;
        let resident = opts.l2_resident.contains(&buf) && working_set <= l2_eff;
        if resident {
            // Producer output still hot in L2: first read hits too.
            l2_bytes += total;
        } else {
            dram_bytes += unique + rereads * miss;
            l2_bytes += rereads * (1.0 - miss);
        }
    }
    for &per_block in st.store_bytes.values() {
        let total = per_block * nb;
        total_gmem += total;
        dram_bytes += total;
    }

    // Per-block FLOPs; totals are scaled by the block count below.
    let flops_block: f64 = st.gemm_flops.iter().map(|(f, _)| f).sum::<f64>() + st.misc_flops;
    let flops = flops_block * nb;

    // ---- Per-block compute time on an exclusive SM ----------------------
    let p_sm = dev.peak_flops(p.dtype) / dev.num_sms as f64;
    let p32_sm = dev.peak_fp32_flops / dev.num_sms as f64;
    let mut t_comp_block = 0.0;
    for (f, eff) in &st.gemm_flops {
        t_comp_block += f / (p_sm * eff.max(1e-3));
    }
    t_comp_block += st.misc_flops / p32_sm;
    // Loop/issue overhead: a few cycles of address arithmetic and barrier
    // per tile-loop iteration (penalizes very deep tiny-tile loops).
    t_comp_block += st.iterations * 3e-9;

    let pipelined = st.any_load && st.all_loads_buffered;

    // ---- Wave model ------------------------------------------------------
    let per_block_dram = dram_bytes / nb;
    let per_block_l2 = l2_bytes / nb;
    let per_block_smem = st.smem_traffic;

    // A single SM cannot saturate DRAM: cap how much bandwidth a given
    // number of active SMs can pull (~4× its proportional share).
    let per_sm_dram = dev.effective_bandwidth() * 4.0 / dev.num_sms as f64;
    let per_sm_l2 = dev.l2_bandwidth * 3.0 / dev.num_sms as f64;

    let wave_time = |wave_blocks: f64| -> (f64, Bound) {
        if wave_blocks <= 0.0 {
            return (0.0, Bound::Latency);
        }
        let sms = wave_blocks.min(dev.num_sms as f64);
        let blocks_per_sm = wave_blocks / sms;
        let t_comp = t_comp_block * blocks_per_sm;
        let dram_bw = dev.effective_bandwidth().min(sms * per_sm_dram);
        let l2_bw = dev.l2_bandwidth.min(sms * per_sm_l2);
        let t_dram = wave_blocks * per_block_dram / dram_bw;
        let t_l2 = wave_blocks * per_block_l2 / l2_bw;
        let t_smem = wave_blocks * per_block_smem / (sms * dev.smem_bandwidth_per_sm);
        let mem_bound = if t_dram >= t_l2 {
            Bound::Dram
        } else {
            Bound::L2
        };
        let t_total = if pipelined {
            t_comp.max(t_dram + t_l2).max(t_smem)
        } else {
            (t_comp + t_dram + t_l2).max(t_smem)
        };
        let bound = if t_total <= t_comp * 1.001 {
            Bound::Compute
        } else if t_total <= (t_dram + t_l2) * 1.001 {
            mem_bound
        } else if t_total <= t_smem * 1.001 {
            Bound::Smem
        } else {
            Bound::Compute
        };
        (t_total, bound)
    };

    let conc_f = conc as f64;
    let full_waves = (nb / conc_f).floor();
    let rem = nb - full_waves * conc_f;
    let waves = full_waves as u64 + u64::from(rem > 0.0);
    let (t_full, bound_full) = wave_time(conc_f);
    let (t_rem, bound_rem) = wave_time(rem);
    let mut body = full_waves * t_full + t_rem;
    let mut bound = if full_waves > 0.0 {
        bound_full
    } else {
        bound_rem
    };

    // Latency floor: a kernel can never beat one block's serial time.
    let single_block_floor = {
        let bw = per_sm_dram.min(dev.effective_bandwidth());
        let t_mem = per_block_dram / bw + per_block_l2 / per_sm_l2;
        if pipelined {
            t_comp_block.max(t_mem)
        } else {
            t_comp_block + t_mem
        }
    };
    if body < single_block_floor {
        body = single_block_floor;
        bound = Bound::Latency;
    }

    let time = dev.launch_overhead + body;
    KernelProfile {
        time,
        flops,
        gmem_bytes: total_gmem,
        dram_bytes,
        l2_bytes,
        smem_traffic_bytes: per_block_smem * nb,
        smem_bytes_per_block: smem_bytes,
        blocks,
        concurrent_blocks: conc,
        waves,
        bound,
        pipelined,
        flops_per_dram_byte: if dram_bytes > 0.0 {
            flops / dram_bytes
        } else {
            f64::INFINITY
        },
        achieved_flops: if time > 0.0 { flops / time } else { 0.0 },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dtype::DType;
    use crate::kernel::{BlockStmt, BufferRole, ProgramBuilder, TileAccess, TileIndex, VarRef};

    /// Grid-tiled matmul used throughout the timing tests.
    fn matmul_program(
        m: u64,
        n: u64,
        k: u64,
        tm: u64,
        tn: u64,
        tk: u64,
        double_buffer: bool,
    ) -> TileProgram {
        let mut b = ProgramBuilder::new("mm", DType::F16);
        let a_buf = b.buffer("A", vec![m, k], DType::F16, BufferRole::Input);
        let b_buf = b.buffer("B", vec![k, n], DType::F16, BufferRole::Input);
        let c_buf = b.buffer("C", vec![m, n], DType::F16, BufferRole::Output);
        let sa = b.smem_with("sA", tm, tk, DType::F16, 0, double_buffer);
        let sb = b.smem_with("sB", tk, tn, DType::F16, 0, double_buffer);
        let sc = b.smem("sC", tm, tn, DType::F32);
        let gm = b.grid_dim(crate::kernel::ceil_div(m, tm));
        let gn = b.grid_dim(crate::kernel::ceil_div(n, tn));
        let kl = b.fresh_loop();
        let body = vec![
            BlockStmt::Fill {
                dst: sc,
                value: 0.0,
            },
            BlockStmt::Loop {
                handle: kl,
                extent: crate::kernel::ceil_div(k, tk),
                body: vec![
                    BlockStmt::Load {
                        src: TileAccess {
                            buf: a_buf,
                            indices: vec![
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
                            buf: b_buf,
                            indices: vec![
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
            BlockStmt::Store {
                dst: TileAccess {
                    buf: c_buf,
                    indices: vec![
                        TileIndex { var: gm, tile: tm },
                        TileIndex { var: gn, tile: tn },
                    ],
                },
                src: sc,
            },
        ];
        b.finish(body)
    }

    #[test]
    fn large_square_gemm_is_near_peak() {
        // 4096³ f16 GEMM with good tiles should land within 2-5x of peak
        // tensor throughput on the A100 model (real cublas reaches ~85%).
        let p = matmul_program(4096, 4096, 4096, 128, 128, 32, true);
        let prof = measure(&p, &DeviceSpec::a100());
        let frac = prof.achieved_flops / DeviceSpec::a100().peak_tensor_flops;
        assert!(frac > 0.4, "achieved fraction {frac}");
        assert!(frac <= 1.0);
    }

    #[test]
    fn skinny_k_gemm_is_memory_bound() {
        // K=16: heavy output traffic, little compute.
        let p = matmul_program(4096, 4096, 16, 128, 128, 16, true);
        let prof = measure(&p, &DeviceSpec::a100());
        assert!(
            matches!(prof.bound, Bound::Dram | Bound::L2),
            "{:?}",
            prof.bound
        );
        let tf = prof.achieved_flops / 1e12;
        assert!(tf < 80.0, "throughput {tf} TFLOPS should be far below peak");
    }

    #[test]
    fn throughput_falls_as_k_shrinks() {
        // The Fig. 2 shape: constant M·N·K, decreasing K ⇒ lower TFLOPS.
        let dev = DeviceSpec::a100();
        let t1 =
            measure(&matmul_program(1024, 1024, 1024, 128, 128, 32, true), &dev).achieved_flops;
        let t2 = measure(&matmul_program(2048, 2048, 256, 128, 128, 32, true), &dev).achieved_flops;
        let t3 = measure(&matmul_program(4096, 4096, 64, 128, 128, 32, true), &dev).achieved_flops;
        assert!(t1 > t2, "{t1} {t2}");
        assert!(t2 > t3, "{t2} {t3}");
    }

    #[test]
    fn tiny_tiles_are_slower() {
        let dev = DeviceSpec::a100();
        let good = measure(&matmul_program(1024, 1024, 1024, 128, 128, 32, true), &dev);
        let bad = measure(&matmul_program(1024, 1024, 1024, 16, 16, 16, true), &dev);
        assert!(
            bad.time > 1.5 * good.time,
            "good {} bad {}",
            good.time,
            bad.time
        );
    }

    #[test]
    fn double_buffering_helps_memory_bound_kernels() {
        let dev = DeviceSpec::a100();
        let nodb = measure(&matmul_program(2048, 2048, 128, 64, 64, 32, false), &dev);
        let db = measure(&matmul_program(2048, 2048, 128, 64, 64, 32, true), &dev);
        assert!(db.time <= nodb.time);
        assert!(db.pipelined && !nodb.pipelined);
    }

    #[test]
    fn few_blocks_hit_latency_bound() {
        // One block cannot use the whole machine.
        let p = matmul_program(128, 128, 4096, 128, 128, 32, true);
        let prof = measure(&p, &DeviceSpec::a100());
        assert_eq!(prof.blocks, 1);
        // Far below peak because only one SM works.
        let frac = prof.achieved_flops / DeviceSpec::a100().peak_tensor_flops;
        assert!(frac < 0.05, "{frac}");
    }

    #[test]
    fn wave_quantization_visible() {
        let dev = DeviceSpec::a100();
        let p = matmul_program(4096, 4096, 512, 128, 128, 32, true);
        let prof = measure(&p, &dev);
        assert_eq!(prof.blocks, 32 * 32);
        assert!(prof.waves >= 1);
        assert!(prof.concurrent_blocks > 0);
    }

    #[test]
    fn l2_filters_rereads_of_small_buffers() {
        // 1024³: A and B (2 MiB each) fit L2, so DRAM traffic must be far
        // below total requested traffic.
        let p = matmul_program(1024, 1024, 1024, 128, 128, 32, true);
        let prof = measure(&p, &DeviceSpec::a100());
        assert!(
            prof.dram_bytes < 0.3 * prof.gmem_bytes,
            "dram {} vs gmem {}",
            prof.dram_bytes,
            prof.gmem_bytes
        );
    }

    #[test]
    fn l2_resident_hint_reduces_dram() {
        let p = matmul_program(512, 512, 512, 64, 64, 32, true);
        let dev = DeviceSpec::a100();
        let cold = measure(&p, &dev);
        let hot = measure_opts(
            &p,
            &dev,
            &MeasureOpts {
                l2_resident: vec![BufId(0)],
            },
        );
        assert!(hot.dram_bytes < cold.dram_bytes);
    }

    #[test]
    fn noise_is_small_and_deterministic() {
        let p = matmul_program(512, 512, 512, 64, 64, 32, true);
        let dev = DeviceSpec::a100();
        let base = measure(&p, &dev).time;
        let n1 = measure_noisy(&p, &dev, 42).time;
        let n2 = measure_noisy(&p, &dev, 42).time;
        assert_eq!(n1, n2);
        assert!((n1 / base - 1.0).abs() < 0.05);
    }

    #[test]
    fn mma_efficiency_monotone_and_bounded() {
        assert!(mma_efficiency(16, 16, 16) < mma_efficiency(64, 64, 32));
        assert!(mma_efficiency(64, 64, 32) < mma_efficiency(128, 128, 32));
        assert!(mma_efficiency(128, 128, 32) <= 1.0);
        assert!(mma_efficiency(256, 256, 64) <= 1.0);
        assert!(mma_efficiency(16, 16, 16) > 0.05);
    }

    #[test]
    fn rtx3080_slower_than_a100() {
        let p = matmul_program(2048, 2048, 2048, 128, 128, 32, true);
        let a = measure(&p, &DeviceSpec::a100()).time;
        let r = measure(&p, &DeviceSpec::rtx3080()).time;
        assert!(r > a, "a100 {a} rtx {r}");
    }
}
