//! Fig. 10 — Eq. 1's shared-memory estimate vs. the shared memory the
//! lowering actually allocates, across scheduled candidates from the
//! Fig. 8 experiments.
//!
//! The plane splits into four quadrants at `y = Shm_max` (actual
//! executability) and `x = 1.2 × Shm_max` (the Rule-4 pruning line):
//!
//! * I  — kept and executable (correct keep),
//! * II — kept but unlaunchable (missed prune, caught at PTX lowering),
//! * III — pruned and unlaunchable (correct prune),
//! * IV — pruned but would have run (false prune).
//!
//! The paper reports I+III > 90 %, II ≈ 8.2 %, IV ≈ 1.2 %.

use rand::prelude::*;

use mcfuser_bench::{write_json, TextTable};
use mcfuser_core::{build_candidate_space, SpacePolicy};
use mcfuser_sim::DeviceSpec;
use mcfuser_tile::{estimate_shmem_bytes, lower, LoweringOptions};
use mcfuser_workloads::{attention_workload, gemm_chain_workload};

fn main() {
    let dev = DeviceSpec::a100();
    let shm_max = dev.smem_per_block as f64;
    let per_workload = 400;
    let mut rng = StdRng::seed_from_u64(0x000F_1610);

    let workloads: Vec<_> = ["G1", "G2", "G3", "G4"]
        .iter()
        .filter_map(|n| gemm_chain_workload(n))
        .chain(attention_workload("S2"))
        .collect();

    let (mut q1, mut q2, mut q3, mut q4) = (0u32, 0u32, 0u32, 0u32);
    let mut points = Vec::new();
    for chain in &workloads {
        // Rules 1–3 applied; Rule 4 deliberately NOT, so the sample spans
        // the pruning boundary.
        let pruned = build_candidate_space(chain, &dev, &SpacePolicy::default());
        for _ in 0..per_workload {
            let cand = pruned.sample_rule3(&mut rng);
            let est = estimate_shmem_bytes(chain, &cand) as f64;
            let Ok(lk) = lower(chain, &cand, &LoweringOptions::for_device(&dev)) else {
                continue;
            };
            let actual = lk.smem_bytes as f64;
            let kept = est <= 1.2 * shm_max;
            let runs = actual <= shm_max;
            match (kept, runs) {
                (true, true) => q1 += 1,
                (true, false) => q2 += 1,
                (false, false) => q3 += 1,
                (false, true) => q4 += 1,
            }
            points.push(serde_json::json!({
                "workload": chain.name, "estimated": est, "actual": actual,
            }));
        }
    }
    let total = (q1 + q2 + q3 + q4).max(1) as f64;
    let pct = |q: u32| 100.0 * q as f64 / total;

    println!(
        "Fig. 10 — Eq. 1 estimate vs. lowered shared memory on {} \
         (Shm_max = {} KiB, prune line = 1.2x)\n",
        dev.name,
        dev.smem_per_block / 1024
    );
    let mut t = TextTable::new(&["quadrant", "meaning", "count", "%"]);
    t.row(vec![
        "I".into(),
        "kept & executable".into(),
        q1.to_string(),
        format!("{:.1}", pct(q1)),
    ]);
    t.row(vec![
        "II".into(),
        "kept, unlaunchable".into(),
        q2.to_string(),
        format!("{:.1}", pct(q2)),
    ]);
    t.row(vec![
        "III".into(),
        "pruned & unlaunchable".into(),
        q3.to_string(),
        format!("{:.1}", pct(q3)),
    ]);
    t.row(vec![
        "IV".into(),
        "pruned, would run".into(),
        q4.to_string(),
        format!("{:.1}", pct(q4)),
    ]);
    println!("{}", t.render());
    let acc = pct(q1) + pct(q3);
    println!("Estimation accuracy (I+III): {acc:.1}% (paper: >90%)");
    println!(
        "Pruned fraction (III+IV): {:.1}% (paper: ~40% of candidates removed by Rule 4)",
        pct(q3) + pct(q4)
    );

    write_json(
        "fig10_shmem",
        &serde_json::json!({
            "device": dev.name,
            "shm_max_bytes": dev.smem_per_block,
            "quadrants": serde_json::json!({ "I": q1, "II": q2, "III": q3, "IV": q4 }),
            "accuracy_pct": acc,
            "points": points,
        }),
    );
}
