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
//!
//! Below the table: why quadrant II is larger here (how far lowering
//! allocates past Eq. 1), and what this reproduction's default Rule 4 —
//! lowering's own single-copy footprint within Shm_max — keeps of the
//! same sample.

use rand::prelude::*;

use mcfuser_bench::{write_json, TextTable};
use mcfuser_core::{build_candidate_space, SpacePolicy};
use mcfuser_sim::DeviceSpec;
use mcfuser_tile::{estimate_shmem_bytes, lower, smem_footprint, LoweringOptions};
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
    // Quadrant II with Eq. 1 at or below Shm_max (the rest sit inside
    // the 1.2x margin); lowered-to-Eq. 1 ratios; candidates the
    // footprint rule keeps, and how many of those launch.
    let (mut q2_under, mut fp_kept, mut fp_launch) = (0u32, 0u32, 0u32);
    let mut ratios = Vec::new();
    let mut points = Vec::new();
    for chain in &workloads {
        // Rules 1–3 applied; Rule 4 deliberately NOT, so the sample spans
        // the pruning boundary.
        let pruned = build_candidate_space(chain, &dev, &SpacePolicy::default());
        for _ in 0..per_workload {
            let cand = pruned.sample_rule3(&mut rng);
            let est = estimate_shmem_bytes(chain, &cand) as f64;
            let opts = LoweringOptions::for_device(&dev);
            let Ok(lk) = lower(chain, &cand, &opts) else {
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
            q2_under += u32::from(kept && !runs && est <= shm_max);
            ratios.push(actual / est);
            if smem_footprint(chain, &cand.tiles, &opts) <= dev.smem_per_block {
                fp_kept += 1;
                fp_launch += u32::from(runs);
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
    println!(
        "\nQuadrant II: {q2_under} of {q2} have Eq. 1 <= Shm_max; {} sit inside the 1.2x margin.",
        q2 - q2_under
    );
    ratios.sort_by(f64::total_cmp);
    let n = ratios.len();
    let median = (ratios[(n - 1) / 2] + ratios[n / 2]) / 2.0;
    println!(
        "Lowered / Eq. 1 (double buffers included): {:.2}-{:.2}x, median {median:.2}x, \
         over the {n} lowered candidates.",
        ratios[0],
        ratios[n - 1]
    );
    println!(
        "This repo's Rule 4 (lowering's footprint <= Shm_max) keeps {fp_kept} of {n}; \
         {fp_launch} of those launch."
    );

    write_json(
        "fig10_shmem",
        &serde_json::json!({
            "device": dev.name,
            "shm_max_bytes": dev.smem_per_block,
            "quadrants": serde_json::json!({ "I": q1, "II": q2, "III": q3, "IV": q4 }),
            "quadrant_ii_within_shm_max": q2_under,
            "lowered_over_eq1": serde_json::json!({
                "min": ratios[0], "median": median, "max": ratios[n - 1],
            }),
            "footprint_rule_kept": fp_kept,
            "footprint_rule_kept_launch": fp_launch,
            "accuracy_pct": acc,
            "points": points,
        }),
    );
}
