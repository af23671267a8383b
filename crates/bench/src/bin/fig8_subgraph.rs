//! Fig. 8 — sub-graph performance of batch GEMM chains (Table II) and
//! self-attention modules (Table III) across all backends, normalized to
//! PyTorch, on the simulated A100 and RTX 3080.

use mcfuser_baselines::{Ansor, Backend, Bolt, Chimera, FlashAttention, McFuserBackend, PyTorch};
use mcfuser_bench::{fmt_time, geomean, write_json, TextTable};
use mcfuser_ir::ChainSpec;
use mcfuser_sim::DeviceSpec;
use mcfuser_workloads::{attention_suite, gemm_chain_suite};

fn run_suite(suite_name: &str, chains: &[ChainSpec], dev: &DeviceSpec) -> serde_json::Value {
    let pytorch = PyTorch;
    let ansor = Ansor::new();
    let bolt = Bolt::new();
    let flash = FlashAttention;
    let chimera = Chimera;
    let mcfuser = McFuserBackend::new();
    let with_flash = suite_name == "attention";

    let mut headers = vec!["workload", "PyTorch", "Ansor", "BOLT"];
    if with_flash {
        headers.push("FlashAttn");
    }
    headers.extend(["MCF-Chimera", "MCFuser", "best sched"]);
    let mut table = TextTable::new(&headers);

    let mut speedups: Vec<(&str, Vec<f64>)> = Vec::new();
    let mut rows_json = Vec::new();

    for chain in chains {
        let base = pytorch.run_chain(chain, dev).expect("pytorch always runs");
        let mut cells = vec![
            chain.name.clone(),
            format!("1.00 ({})", fmt_time(base.time)),
        ];
        let mut row_json = serde_json::json!({
            "workload": chain.name,
            "pytorch_s": base.time,
        });
        let mut note = String::new();
        let backends: Vec<(&str, Result<mcfuser_baselines::ChainRun, _>)> = {
            let mut v: Vec<(&str, Result<mcfuser_baselines::ChainRun, _>)> = vec![
                ("Ansor", ansor.run_chain(chain, dev)),
                ("BOLT", bolt.run_chain(chain, dev)),
            ];
            if with_flash {
                v.push(("FlashAttention", flash.run_chain(chain, dev)));
            }
            v.push(("MCFuser-Chimera", chimera.run_chain(chain, dev)));
            v.push(("MCFuser", mcfuser.run_chain(chain, dev)));
            v
        };
        for (name, res) in backends {
            match res {
                Ok(run) => {
                    let speedup = base.time / run.time;
                    cells.push(format!("{speedup:.2}"));
                    row_json[name] = serde_json::json!({
                        "time_s": run.time,
                        "speedup_vs_pytorch": speedup,
                        "fused": run.fused,
                        "tuning_s": run.tuning_seconds,
                    });
                    if name == "MCFuser" {
                        note = run.note.clone();
                    }
                    match speedups.iter_mut().find(|(n, _)| *n == name) {
                        Some((_, v)) => v.push(speedup),
                        None => speedups.push((name, vec![speedup])),
                    }
                }
                Err(e) => {
                    cells.push("-".into());
                    row_json[name] = serde_json::json!({ "unsupported": e.reason });
                }
            }
        }
        cells.push(note);
        table.row(cells);
        rows_json.push(row_json);
    }

    // Geometric-mean speedups (the paper's "avg" bars).
    let mut avg = vec!["avg".to_string(), "1.00".to_string()];
    let order: Vec<&str> = if with_flash {
        vec![
            "Ansor",
            "BOLT",
            "FlashAttention",
            "MCFuser-Chimera",
            "MCFuser",
        ]
    } else {
        vec!["Ansor", "BOLT", "MCFuser-Chimera", "MCFuser"]
    };
    let mut avg_json = serde_json::Map::new();
    for name in &order {
        match speedups.iter().find(|(n, _)| n == name) {
            Some((_, v)) if !v.is_empty() => {
                let g = geomean(v);
                avg.push(format!("{g:.2}"));
                avg_json.insert(name.to_string(), serde_json::json!(g));
            }
            _ => avg.push("-".into()),
        }
    }
    avg.push(String::new());
    table.row(avg);

    println!(
        "Fig. 8 — {} suite on {} (speedup over PyTorch; higher is better)\n",
        suite_name, dev.name
    );
    println!("{}", table.render());

    serde_json::json!({
        "suite": suite_name,
        "device": dev.name,
        "rows": rows_json,
        "geomean_speedups": avg_json,
    })
}

fn main() {
    let suites = [
        ("gemm", gemm_chain_suite()),
        ("attention", attention_suite()),
    ];
    let mut all = Vec::new();
    for dev in [DeviceSpec::a100(), DeviceSpec::rtx3080()] {
        for (name, chains) in &suites {
            all.push(run_suite(name, chains, &dev));
        }
    }
    write_json("fig8_subgraph", &serde_json::json!({ "panels": all }));
}
