//! Ablation study — which of MCFuser's design choices buys what
//! (extends the paper's §VI-E "Effectiveness of the System Design").
//!
//! Variants, each differing from full MCFuser in exactly one mechanism:
//!
//! * `full` — the complete system;
//! * `-flat` — deep tilings only (Chimera's space restriction);
//! * `-deadloop` — no §III-B extent-1 DAG elimination (Chimera's
//!   memory optimization level);
//! * `-compute` — data-movement-only objective (drop Eq. 4);
//! * `-alpha` — no parallelism slowdown factor (drop Eq. 5);
//! * `-model` — random ranking instead of the analytical model
//!   (measures what the model itself contributes);
//! * `-rule4` — no shared-memory pruning (Rule 4 off) — shows the
//!   tuning-cost impact of measuring unlaunchable candidates.
//!
//! Each variant is one `FusionEngine` session configured through the
//! builder's `SearchParams` + `SpacePolicy` knobs; chains are tuned in
//! parallel via `tune_many` (results are deterministic regardless of
//! the parallelism degree).
//!
//! Reports fused-kernel quality (vs. full MCFuser) and virtual tuning
//! time per variant, averaged over a workload mix.
//!
//! Usage: `ablation [--fast]`

use mcfuser_bench::{fast_mode, fmt_time, geomean, write_json, TextTable};
use mcfuser_core::{CachePolicy, FusionEngine, ModelOptions, SearchParams, SpacePolicy};
use mcfuser_ir::ChainSpec;
use mcfuser_sim::DeviceSpec;
use mcfuser_workloads::{attention_workload, gemm_chain_workload};

/// One ablation variant: search parameters + space policy.
struct Variant {
    name: &'static str,
    policy: SpacePolicy,
    params: SearchParams,
}

fn variants() -> Vec<Variant> {
    let base = SearchParams::default();
    let full_space = SpacePolicy::default();
    vec![
        Variant {
            name: "full",
            policy: full_space,
            params: base.clone(),
        },
        Variant {
            name: "-flat",
            policy: SpacePolicy {
                deep_tiling_only: true,
                ..full_space
            },
            params: base.clone(),
        },
        Variant {
            name: "-deadloop",
            policy: full_space,
            params: SearchParams {
                dead_loop_elimination: false,
                model: ModelOptions {
                    dead_loop_elimination: false,
                    ..Default::default()
                },
                ..base.clone()
            },
        },
        Variant {
            name: "-compute",
            policy: full_space,
            params: SearchParams {
                model: ModelOptions {
                    include_compute: false,
                    ..Default::default()
                },
                ..base.clone()
            },
        },
        Variant {
            name: "-alpha",
            policy: full_space,
            params: SearchParams {
                model: ModelOptions {
                    include_alpha: false,
                    ..Default::default()
                },
                ..base.clone()
            },
        },
        Variant {
            name: "-model",
            policy: full_space,
            // Random ranking: measure arbitrary candidates instead of the
            // analytical model's top picks.
            params: SearchParams {
                random_ranking: true,
                ..base.clone()
            },
        },
        Variant {
            name: "-rule4",
            policy: SpacePolicy {
                shared_memory_pruning: false,
                ..full_space
            },
            params: base,
        },
    ]
}

/// One engine session per variant; tuning every chain costs fresh.
fn engine_for(v: &Variant, dev: &DeviceSpec) -> FusionEngine {
    FusionEngine::builder(dev.clone())
        .search_params(v.params.clone())
        .space_policy(v.policy)
        .cache(CachePolicy::Disabled)
        .parallelism(0)
        .build()
}

fn main() {
    let dev = DeviceSpec::a100();
    let names: Vec<&str> = if fast_mode() {
        vec!["G1", "G4", "S2"]
    } else {
        vec!["G1", "G3", "G4", "G7", "G10", "S1", "S2", "S4", "S7"]
    };
    let chains: Vec<ChainSpec> = names
        .iter()
        .map(|n| {
            gemm_chain_workload(n)
                .or_else(|| attention_workload(n))
                .expect("known workload")
        })
        .collect();

    let vs = variants();
    let mut table = TextTable::new(&[
        "variant",
        "geomean slowdown vs full",
        "avg tuning",
        "avg measured",
        "notes",
    ]);
    let mut json_rows = Vec::new();

    // Reference: full MCFuser per chain.
    let full_times: Vec<f64> = engine_for(&vs[0], &dev)
        .tune_many(&chains)
        .into_iter()
        .map(|r| r.map(|t| t.profile.time).unwrap_or(f64::INFINITY))
        .collect();

    for v in &vs {
        let engine = engine_for(v, &dev);
        let mut ratios = Vec::new();
        let mut tunings = Vec::new();
        let mut measured = Vec::new();
        for (result, &full_t) in engine.tune_many(&chains).into_iter().zip(&full_times) {
            match result {
                Ok(t) => {
                    ratios.push(t.profile.time / full_t);
                    tunings.push(t.tuning.virtual_seconds);
                    measured.push(t.measured as f64);
                }
                Err(_) => {
                    ratios.push(f64::INFINITY);
                }
            }
        }
        let slow = geomean(&ratios);
        let tune = tunings.iter().sum::<f64>() / tunings.len().max(1) as f64;
        let meas = measured.iter().sum::<f64>() / measured.len().max(1) as f64;
        let note = match v.name {
            "full" => "baseline",
            "-flat" => "Chimera space restriction",
            "-deadloop" => "Fig. 5(b) optimization off",
            "-compute" => "Chimera objective",
            "-alpha" => "Eq. 5 off",
            "-model" => "degenerate ranking",
            "-rule4" => "measures unlaunchable candidates",
            _ => "",
        };
        table.row(vec![
            v.name.into(),
            format!("{slow:.3}x"),
            fmt_time(tune),
            format!("{meas:.0}"),
            note.into(),
        ]);
        json_rows.push(serde_json::json!({
            "variant": v.name,
            "geomean_slowdown": slow,
            "avg_tuning_s": tune,
            "avg_measured": meas,
        }));
    }

    println!(
        "Ablation — contribution of each design choice ({} workloads on {})\n",
        chains.len(),
        dev.name
    );
    println!("{}", table.render());
    println!(
        "Reading: slowdown > 1 means the ablated variant ships worse kernels;\n\
         higher tuning time at equal quality means the mechanism saves search cost."
    );
    write_json(
        "ablation",
        &serde_json::json!({ "workloads": names, "rows": json_rows }),
    );
}
