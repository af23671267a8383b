//! Fig. 2 — a MatMul across K/M ratios at constant complexity
//! (M·N·K = 1024³, M = N): theoretical compute/memory ratio φ for a
//! 256-tile (left axis) and achieved throughput on the simulated A100
//! (right axis), showing the compute-bound → memory-bound transition.

use mcfuser_baselines::libkernels::{matmul_program, pick_library_tile};
use mcfuser_bench::{fmt_time, write_json, TextTable};
use mcfuser_core::matmul_tile_intensity;
use mcfuser_ir::Epilogue;
use mcfuser_sim::{measure, DType, DeviceSpec};

fn main() {
    let dev = DeviceSpec::a100();
    let ridge = dev.ridge_flops_per_byte(DType::F16);
    let total: f64 = 1024f64 * 1024.0 * 1024.0;

    // K/M sweep from 1.0 down to ~1/256 (the paper's x axis).
    let ratios: Vec<f64> = vec![
        1.0, 0.8, 0.6, 0.4, 0.3, 0.2, 0.15, 0.1, 0.05, 0.025, 0.0125, 0.00625, 0.0039,
    ];

    let mut table = TextTable::new(&[
        "K/M",
        "M=N",
        "K",
        "phi(T=256) op/B",
        "regime",
        "TFLOPS",
        "kernel",
    ]);
    let mut json_rows = Vec::new();
    for &r in &ratios {
        // M²·K = total with K = r·M  ⇒  M = (total / r)^(1/3).
        let m_f = (total / r).powf(1.0 / 3.0);
        let m = ((m_f / 16.0).round() as u64 * 16).max(16);
        let k = (((r * m as f64) / 16.0).round() as u64 * 16)
            .max(16)
            .min(m * 4);
        // φ in FLOPs per *byte* (f16 elements are 2 B).
        let phi = matmul_tile_intensity(256, 256, k) / 2.0;
        // Best library kernel for the shape (vendors search their whole
        // template table internally) — keeps the sweep smooth.
        let mut best: Option<mcfuser_sim::KernelProfile> = None;
        for &tiles in mcfuser_baselines::LIBRARY_TILES.iter() {
            let p = matmul_program("fig2", 1, m, m, k, tiles, DType::F16, Epilogue::None);
            let prof = measure(&p, &dev);
            if best.as_ref().map(|b| prof.time < b.time).unwrap_or(true) {
                best = Some(prof);
            }
        }
        let _ = pick_library_tile(1, m, m, k, &dev);
        let prof = best.unwrap();
        let regime = match prof.bound {
            mcfuser_sim::Bound::Compute => "compute",
            mcfuser_sim::Bound::Dram => "memory",
            mcfuser_sim::Bound::L2 => "memory(L2)",
            mcfuser_sim::Bound::Smem => "smem",
            mcfuser_sim::Bound::Latency => "latency",
        };
        let tflops = prof.achieved_flops / 1e12;
        table.row(vec![
            format!("{r:.4}"),
            m.to_string(),
            k.to_string(),
            format!("{phi:.1}"),
            regime.to_string(),
            format!("{tflops:.1}"),
            fmt_time(prof.time),
        ]);
        json_rows.push(serde_json::json!({
            "k_over_m": r, "m": m, "k": k, "phi_flops_per_byte": phi,
            "regime": regime, "tflops": tflops, "time_s": prof.time,
        }));
    }

    println!(
        "Fig. 2 — MatMul K/M sweep on {} (ridge = {:.0} FLOP/B)",
        dev.name, ridge
    );
    println!("{}", table.render());
    println!(
        "Shape check: throughput collapses once phi falls below the ridge,\n\
         reproducing the compute-bound -> memory-bound transition of Fig. 2."
    );
    write_json(
        "fig2_roofline",
        &serde_json::json!({ "device": dev.name, "ridge_flops_per_byte": ridge, "rows": json_rows }),
    );
}
