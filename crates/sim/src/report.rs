//! Human-readable kernel reports — the `nsight`-style breakdown a
//! downstream user asks for when a fused kernel misbehaves.
//!
//! [`explain`] renders a [`TileProgram`]'s structure (grid, shared-memory
//! plan, per-block statement listing with trip counts) together with the
//! timing model's verdict: where the bytes go, which resource binds, how
//! many waves the grid needs.

use crate::device::DeviceSpec;
use crate::kernel::{BlockStmt, TileProgram};
use crate::timing::{measure, Bound};

/// Render the per-block statement tree with trip counts.
fn render_stmts(p: &TileProgram, stmts: &[BlockStmt], indent: usize, out: &mut String) {
    let pad = "  ".repeat(indent);
    for s in stmts {
        match s {
            BlockStmt::Loop { extent, body, .. } => {
                out.push_str(&format!("{pad}for _ in 0..{extent}:\n"));
                render_stmts(p, body, indent + 1, out);
            }
            BlockStmt::Load { src, dst } => {
                let d = &p.smem[dst.0];
                out.push_str(&format!(
                    "{pad}{} {} <- {} tile {}x{} ({} B)\n",
                    if d.streamed { "stream" } else { "load" },
                    d.name,
                    p.buffers[src.buf.0].name,
                    d.rows,
                    d.cols,
                    d.rows * d.cols * d.dtype.size_bytes()
                ));
            }
            BlockStmt::Store { dst, src } => {
                let d = &p.smem[src.0];
                out.push_str(&format!(
                    "{pad}store {} -> {} tile {}x{}\n",
                    d.name, p.buffers[dst.buf.0].name, d.rows, d.cols
                ));
            }
            BlockStmt::Gemm { a, b, acc, acc_col } => {
                let (da, db, dacc) = (&p.smem[a.0], &p.smem[b.0], &p.smem[acc.0]);
                let at = if *acc_col > 0 {
                    format!(" @col {acc_col}")
                } else {
                    String::new()
                };
                out.push_str(&format!(
                    "{pad}mma {}{at} += {} x {}   [{}x{}x{}]\n",
                    dacc.name, da.name, db.name, da.rows, db.cols, da.cols
                ));
            }
            BlockStmt::Fill { dst, value } => {
                out.push_str(&format!("{pad}fill {} = {value}\n", p.smem[dst.0].name));
            }
            BlockStmt::OnlineSoftmax { scores, .. } => {
                out.push_str(&format!(
                    "{pad}online-softmax over {}\n",
                    p.smem[scores.0].name
                ));
            }
            BlockStmt::RowDiv { target, .. } => {
                out.push_str(&format!("{pad}row-normalize {}\n", p.smem[target.0].name));
            }
            BlockStmt::Relu { target } => {
                out.push_str(&format!("{pad}relu {}\n", p.smem[target.0].name));
            }
            BlockStmt::Gelu { target } => {
                out.push_str(&format!("{pad}gelu {}\n", p.smem[target.0].name));
            }
            BlockStmt::AddTile { target, other } => {
                out.push_str(&format!(
                    "{pad}add {} += {}\n",
                    p.smem[target.0].name, p.smem[other.0].name
                ));
            }
            BlockStmt::Scale { target, factor } => {
                out.push_str(&format!(
                    "{pad}scale {} *= {factor}\n",
                    p.smem[target.0].name
                ));
            }
            BlockStmt::AddBias { target, .. } => {
                out.push_str(&format!("{pad}bias {}\n", p.smem[target.0].name));
            }
            BlockStmt::Quantize { target, dtype } => {
                out.push_str(&format!(
                    "{pad}quantize {} -> {:?}\n",
                    p.smem[target.0].name, dtype
                ));
            }
            BlockStmt::RowNormStats { a, rows, cols, .. } => {
                out.push_str(&format!(
                    "{pad}rownorm-stats over {} rows x {} cols of {}\n",
                    rows, cols, p.buffers[a.buf.0].name
                ));
            }
            BlockStmt::NormalizeTile { target, .. } => {
                out.push_str(&format!("{pad}normalize {}\n", p.smem[target.0].name));
            }
            BlockStmt::AddGlobal { target, src } => {
                out.push_str(&format!(
                    "{pad}add-global {} += {}\n",
                    p.smem[target.0].name, p.buffers[src.buf.0].name
                ));
            }
            BlockStmt::AddRecomputedNorm { target, a, .. } => {
                out.push_str(&format!(
                    "{pad}add-recomputed-norm {} += LN({})\n",
                    p.smem[target.0].name, p.buffers[a.buf.0].name
                ));
            }
            BlockStmt::LayerNormTile { target, .. } => {
                out.push_str(&format!("{pad}layernorm {}\n", p.smem[target.0].name));
            }
        }
    }
}

/// Produce a multi-line report of a kernel's structure and its modeled
/// performance on a device.
pub fn explain(p: &TileProgram, dev: &DeviceSpec) -> String {
    let prof = measure(p, dev);
    let mut out = String::new();
    out.push_str(&format!("kernel {}\n", p.name));
    out.push_str(&format!(
        "grid {:?} = {} blocks ({} concurrent, {} wave{})\n",
        p.grid,
        prof.blocks,
        prof.concurrent_blocks,
        prof.waves,
        if prof.waves == 1 { "" } else { "s" }
    ));
    out.push_str(&format!(
        "shared memory {} B / {} B per block{}\n",
        prof.smem_bytes_per_block,
        dev.smem_per_block,
        if prof.pipelined {
            " (double buffered)"
        } else {
            ""
        }
    ));
    out.push_str("per-block program:\n");
    render_stmts(p, &p.body, 1, &mut out);
    out.push_str(&format!(
        "traffic: {:.1} KiB requested, {:.1} KiB DRAM, {:.1} KiB L2\n",
        prof.gmem_bytes / 1024.0,
        prof.dram_bytes / 1024.0,
        prof.l2_bytes / 1024.0
    ));
    out.push_str(&format!(
        "compute: {:.2} MFLOP at {:.1} TFLOPS achieved\n",
        prof.flops / 1e6,
        prof.achieved_flops / 1e12
    ));
    let bound = match prof.bound {
        Bound::Compute => "compute",
        Bound::Dram => "DRAM bandwidth",
        Bound::L2 => "L2 bandwidth",
        Bound::Smem => "shared-memory bandwidth",
        Bound::Latency => "block latency (low occupancy)",
    };
    out.push_str(&format!(
        "time {:.2} us on {} — bound by {}\n",
        prof.time * 1e6,
        dev.name,
        bound
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dtype::DType;
    use crate::kernel::{BufferRole, ProgramBuilder, TileAccess, TileIndex, VarRef};

    fn demo_program() -> TileProgram {
        let mut b = ProgramBuilder::new("demo", DType::F16);
        let x = b.buffer("X", vec![128, 64], DType::F16, BufferRole::Input);
        let w = b.buffer("W", vec![64, 128], DType::F16, BufferRole::Input);
        let o = b.buffer("O", vec![128, 128], DType::F16, BufferRole::Output);
        let sx = b.smem("sX", 64, 32, DType::F16);
        let sw = b.smem("sW", 32, 64, DType::F16);
        let so = b.smem("sO", 64, 64, DType::F32);
        let gm = b.grid_dim(2);
        let gn = b.grid_dim(2);
        let kl = b.fresh_loop();
        let body = vec![
            BlockStmt::Fill {
                dst: so,
                value: 0.0,
            },
            BlockStmt::Loop {
                handle: kl,
                extent: 2,
                body: vec![
                    BlockStmt::Load {
                        src: TileAccess {
                            buf: x,
                            indices: vec![
                                TileIndex { var: gm, tile: 64 },
                                TileIndex {
                                    var: VarRef::Loop(kl),
                                    tile: 32,
                                },
                            ],
                        },
                        dst: sx,
                    },
                    BlockStmt::Load {
                        src: TileAccess {
                            buf: w,
                            indices: vec![
                                TileIndex {
                                    var: VarRef::Loop(kl),
                                    tile: 32,
                                },
                                TileIndex { var: gn, tile: 64 },
                            ],
                        },
                        dst: sw,
                    },
                    BlockStmt::Gemm {
                        a: sx,
                        b: sw,
                        acc: so,
                        acc_col: 0,
                    },
                ],
            },
            BlockStmt::Store {
                dst: TileAccess {
                    buf: o,
                    indices: vec![
                        TileIndex { var: gm, tile: 64 },
                        TileIndex { var: gn, tile: 64 },
                    ],
                },
                src: so,
            },
        ];
        b.finish(body)
    }

    #[test]
    fn explain_mentions_all_sections() {
        let p = demo_program();
        let s = explain(&p, &DeviceSpec::a100());
        for needle in [
            "kernel demo",
            "blocks",
            "shared memory",
            "per-block program:",
            "for _ in 0..2:",
            "load sX <- X",
            "mma sO += sX x sW",
            "store sO -> O",
            "traffic:",
            "compute:",
            "bound by",
        ] {
            assert!(s.contains(needle), "missing {needle:?} in:\n{s}");
        }
    }

    #[test]
    fn explain_is_deterministic() {
        let p = demo_program();
        let dev = DeviceSpec::a100();
        assert_eq!(explain(&p, &dev), explain(&p, &dev));
    }
}
