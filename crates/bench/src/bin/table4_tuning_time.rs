//! Table IV — tuning times for sub-graph modules and end-to-end models
//! on the virtual tuning clock.
//!
//! Sub-graph half: average per-chain tuning seconds of BOLT, Ansor,
//! MCFuser-Chimera and MCFuser over the Table II / Table III suites.
//! End-to-end half: Relay, BOLT, MCFuser+Relay, Ansor, MCFuser+Ansor on
//! the three BERT models.

use mcfuser_baselines::{Ansor, Backend, Bolt, Chimera, McFuserBackend, Relay};
use mcfuser_bench::{fmt_time, unfused_graph_cost, write_json, TextTable};
use mcfuser_core::FusionEngine;
use mcfuser_sim::DeviceSpec;
use mcfuser_workloads::{attention_suite, bert_base, bert_large, bert_small, gemm_chain_suite};

fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        f64::NAN
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

fn subgraph_half(dev: &DeviceSpec) -> serde_json::Value {
    let bolt = Bolt::new();
    let chimera = Chimera;
    let mcfuser = McFuserBackend::new();

    let suites = [
        ("GEMM Chain", gemm_chain_suite()),
        ("Self Attention", attention_suite()),
    ];

    let mut t = TextTable::new(&[
        "Sub Graph",
        "BOLT",
        "Ansor",
        "MCFuser-Chimera",
        "MCFuser",
        "speedup vs BOLT/Ansor",
    ]);
    let mut json = Vec::new();
    for (name, chains) in &suites {
        let mut per: Vec<(&str, Vec<f64>)> = vec![
            ("BOLT", vec![]),
            ("Ansor", vec![]),
            ("Chimera", vec![]),
            ("MCFuser", vec![]),
        ];
        for chain in chains {
            // Fresh caches per chain: tuning each sub-graph independently.
            let ansor_fresh = Ansor::new();
            if let Ok(r) = bolt.run_chain(chain, dev) {
                per[0].1.push(r.tuning_seconds);
            }
            if let Ok(r) = ansor_fresh.run_chain(chain, dev) {
                per[1].1.push(r.tuning_seconds);
            }
            if let Ok(r) = chimera.run_chain(chain, dev) {
                per[2].1.push(r.tuning_seconds);
            }
            if let Ok(r) = mcfuser.run_chain(chain, dev) {
                per[3].1.push(r.tuning_seconds);
            }
        }
        let bolt_m = mean(&per[0].1);
        let ansor_m = mean(&per[1].1);
        let chim_m = mean(&per[2].1);
        let ours_m = mean(&per[3].1);
        let bolt_speedup: String = if bolt_m.is_finite() {
            format!("{:.1}x", bolt_m / ours_m)
        } else {
            "-".into()
        };
        let speedups = format!("{} / {:.0}x", bolt_speedup, ansor_m / ours_m);
        t.row(vec![
            name.to_string(),
            if per[0].1.is_empty() {
                "-".into()
            } else {
                fmt_time(bolt_m)
            },
            fmt_time(ansor_m),
            fmt_time(chim_m),
            fmt_time(ours_m),
            speedups,
        ]);
        json.push(serde_json::json!({
            "suite": name,
            "bolt_s": bolt_m,
            "ansor_s": ansor_m,
            "chimera_s": chim_m,
            "mcfuser_s": ours_m,
        }));
    }
    println!(
        "Table IV (sub-graphs, per-chain averages) on {}\n",
        dev.name
    );
    println!("{}", t.render());
    println!("Paper: BOLT 88s, Ansor 4895s, Chimera 29s, MCFuser 35s (GEMM chains);");
    println!("       Ansor 2897s, Chimera 32s, MCFuser 39s (self-attention).\n");
    serde_json::json!(json)
}

fn end2end_half(dev: &DeviceSpec) -> serde_json::Value {
    let models = [bert_small(512), bert_base(512), bert_large(512)];
    let mut t = TextTable::new(&[
        "model",
        "Relay",
        "BOLT",
        "MCFuser+Relay",
        "Ansor",
        "MCFuser+Ansor",
    ]);
    let mut json = Vec::new();
    for graph in &models {
        let (_, tune_relay) = unfused_graph_cost(graph, dev, &Relay::new());
        let (_, tune_bolt) = unfused_graph_cost(graph, dev, &Bolt::new());
        let (_, tune_ansor) = unfused_graph_cost(graph, dev, &Ansor::new());
        // Fresh engine sessions per configuration: fresh tuning caches,
        // comparable costs.
        let mcf_relay = FusionEngine::builder(dev.clone())
            .fallback(Relay::new())
            .build()
            .compile(graph)
            .unwrap();
        let mcf_ansor = FusionEngine::builder(dev.clone())
            .fallback(Ansor::new())
            .build()
            .compile(graph)
            .unwrap();
        t.row(vec![
            graph.name.clone(),
            fmt_time(tune_relay),
            fmt_time(tune_bolt),
            format!(
                "{} ({:.2}x)",
                fmt_time(mcf_relay.tuning_seconds),
                tune_bolt / mcf_relay.tuning_seconds
            ),
            fmt_time(tune_ansor),
            format!(
                "{} ({:.2}x)",
                fmt_time(mcf_ansor.tuning_seconds),
                tune_ansor / mcf_ansor.tuning_seconds
            ),
        ]);
        json.push(serde_json::json!({
            "model": graph.name,
            "relay_s": tune_relay,
            "bolt_s": tune_bolt,
            "mcfuser_relay_s": mcf_relay.tuning_seconds,
            "ansor_s": tune_ansor,
            "mcfuser_ansor_s": mcf_ansor.tuning_seconds,
        }));
    }
    println!("Table IV (end-to-end tuning) on {}\n", dev.name);
    println!("{}", t.render());
    println!("Paper: Relay 30-186s, BOLT 94-383s, MCFuser+Relay 81-243s,");
    println!("       Ansor ~4h, MCFuser+Ansor ~2.8h.");
    serde_json::json!(json)
}

fn main() {
    let dev = DeviceSpec::a100();
    let sub = subgraph_half(&dev);
    let e2e = end2end_half(&dev);
    write_json(
        "table4_tuning_time",
        &serde_json::json!({ "subgraph": sub, "end_to_end": e2e }),
    );
}
