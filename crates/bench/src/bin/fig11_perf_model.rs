//! Fig. 11 — analytical-model estimates vs. simulated measurements for
//! scheduled candidates of workloads G1–G4 (paper correlation
//! coefficients: 0.86, 0.92, 0.84, 0.80).
//!
//! Candidates are drawn from the paper's Rule-4 space (Eq. 1 at
//! 1.2 × Shm_max), skipping the ones that cannot launch, as in the
//! paper. On G1–G4 what is left is exactly the space the default policy
//! prunes with lowering's footprint; drawing from the paper's keeps the
//! sample.

use rand::prelude::*;

use mcfuser_bench::{pearson, write_json, TextTable};
use mcfuser_core::{build_candidate_space, estimate, SharedMemoryPruning, SpacePolicy};
use mcfuser_sim::{measure_noisy, DeviceSpec};
use mcfuser_tile::{lower, LoweringOptions};
use mcfuser_workloads::gemm_chain_workload;

fn main() {
    let dev = DeviceSpec::a100();
    let samples = 200;
    let mut rng = StdRng::seed_from_u64(0x000F_1611);
    let paper_rule4 = SpacePolicy {
        shared_memory_pruning: SharedMemoryPruning::PaperEq1,
        ..SpacePolicy::default()
    };

    let mut t = TextTable::new(&["workload", "#candidates", "corr(est, meas)", "top-8 hit"]);
    let mut json_rows = Vec::new();

    for name in ["G1", "G2", "G3", "G4"] {
        let chain = gemm_chain_workload(name).unwrap();
        let pruned = build_candidate_space(&chain, &dev, &paper_rule4);
        let mut ests = Vec::new();
        let mut meas = Vec::new();
        let mut tried = 0;
        while ests.len() < samples && tried < samples * 10 {
            tried += 1;
            let cand = pruned.candidate(rng.gen_range(0..pruned.len()));
            let Ok(e) = estimate(&chain, &cand, &dev) else {
                continue;
            };
            let Ok(lk) = lower(&chain, &cand, &LoweringOptions::for_device(&dev)) else {
                continue;
            };
            if lk.smem_bytes > dev.smem_per_block {
                continue;
            }
            let prof = measure_noisy(&lk.program, &dev, ests.len() as u64);
            ests.push(e.total);
            meas.push(prof.time);
        }
        let r = pearson(&ests, &meas);
        // Does the model's top-8 contain the measured best candidate?
        let top8_hit = {
            let mut by_est: Vec<usize> = (0..ests.len()).collect();
            by_est.sort_by(|&a, &b| ests[a].total_cmp(&ests[b]));
            let best_meas = (0..meas.len())
                .min_by(|&a, &b| meas[a].total_cmp(&meas[b]))
                .unwrap();
            by_est[..8.min(by_est.len())].contains(&best_meas)
        };
        t.row(vec![
            name.to_string(),
            ests.len().to_string(),
            format!("{r:.3}"),
            if top8_hit { "yes" } else { "no" }.into(),
        ]);
        json_rows.push(serde_json::json!({
            "workload": name,
            "n": ests.len(),
            "pearson": r,
            "top8_contains_best": top8_hit,
            "estimated_s": ests,
            "measured_s": meas,
        }));
    }

    println!(
        "Fig. 11 — analytical model (Eqs. 2-5) vs. measurement on {}\n",
        dev.name
    );
    println!("{}", t.render());
    println!("Paper correlations: G1 0.86, G2 0.92, G3 0.84, G4 0.80.");
    write_json(
        "fig11_perf_model",
        &serde_json::json!({ "rows": json_rows }),
    );
}
