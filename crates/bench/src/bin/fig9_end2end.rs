//! Fig. 9 — end-to-end BERT evaluation on the simulated A100.
//!
//! Five configurations, exactly the paper's bars:
//! Relay, BOLT, MCFuser+Relay, Ansor, MCFuser+Ansor — normalized to
//! Relay, with the MCFuser speedup factors annotated.
//!
//! Each MCFuser configuration is a fresh `FusionEngine` session (fresh
//! tuning cache), so tuning costs are comparable across bars.
//!
//! Usage: `fig9_end2end [--fast]` (fast trims models and Ansor trials).

use mcfuser_baselines::{Ansor, Bolt, Relay};
use mcfuser_bench::{fast_mode, fmt_time, unfused_graph_cost, write_json, TextTable};
use mcfuser_core::FusionEngine;
use mcfuser_ir::Graph;
use mcfuser_sim::DeviceSpec;
use mcfuser_workloads::{bert_base, bert_large, bert_small};

fn main() {
    let fast = fast_mode();
    let dev = DeviceSpec::a100();
    let seq = 512;
    let models: Vec<Graph> = if fast {
        vec![bert_small(seq)]
    } else {
        vec![bert_small(seq), bert_base(seq), bert_large(seq)]
    };
    let ansor_trials = if fast { 60 } else { 1000 };

    let mut table = TextTable::new(&[
        "model",
        "Relay",
        "BOLT",
        "MCFuser+Relay",
        "Ansor",
        "MCFuser+Ansor",
        "MCF+Relay vs Relay",
        "MCF+Relay vs Ansor",
        "MCF+Ansor vs Ansor",
    ]);
    let mut stitch_table = TextTable::new(&[
        "model",
        "fused kernels",
        "elementwise ref steps",
        "unstitched MB/req",
        "stitched MB/req",
        "traffic saved",
        "unstitched time",
        "stitched time",
        "time saved",
    ]);
    let mut json_rows = Vec::new();

    for graph in &models {
        // Each configuration gets fresh backends (fresh tuning caches).
        let relay = Relay::new();
        let bolt = Bolt::new();
        let ansor = Ansor::with_trials(ansor_trials);
        let (t_relay, tune_relay) = unfused_graph_cost(graph, &dev, &relay);
        let (t_bolt, tune_bolt) = unfused_graph_cost(graph, &dev, &bolt);
        let (t_ansor, tune_ansor) = unfused_graph_cost(graph, &dev, &ansor);

        let mcf_relay = FusionEngine::builder(dev.clone())
            .fallback(Relay::new())
            .build()
            .compile(graph)
            .expect("compiles");
        let mcf_ansor = FusionEngine::builder(dev.clone())
            .fallback(Ansor::with_trials(ansor_trials))
            .build()
            .compile(graph)
            .expect("compiles");

        // Prologue/epilogue stitching: freeze the stitched plan and an
        // unstitched baseline (same chains, glue on the interpreter) and
        // compare step structure and per-request traffic.
        let stitched_plan = mcf_relay.plan(graph).expect("plan freezes");
        let unstitched_plan = FusionEngine::builder(dev.clone())
            .fallback(Relay::new())
            .stitching(false)
            .build()
            .compile_plan(graph)
            .expect("unstitched plan freezes");
        let sb = stitched_plan.step_breakdown();
        let ub = unstitched_plan.step_breakdown();
        if graph.name == "Bert-Small" {
            // The paper-narrative acceptance bar: every encoder layer is
            // exactly two fused kernels (attention + stitched FFN) with
            // zero elementwise glue left on the reference interpreter.
            assert_eq!(
                stitched_plan.fused_kernels(),
                8,
                "Bert-Small: 2 fused kernels per layer"
            );
            assert_eq!(
                sb.reference_elementwise, 0,
                "Bert-Small: no elementwise Reference steps"
            );
            assert_eq!(mcf_relay.stitch_demotions, 0, "no degraded stitches");
            assert!(
                stitched_plan.bytes_per_request() < unstitched_plan.bytes_per_request(),
                "stitching must save per-request traffic"
            );
            assert!(
                stitched_plan.virtual_time_per_request()
                    < unstitched_plan.virtual_time_per_request(),
                "stitching must save per-request virtual time"
            );
        }
        stitch_table.row(vec![
            graph.name.clone(),
            format!("{}", stitched_plan.fused_kernels()),
            format!(
                "{} -> {}",
                ub.reference_elementwise, sb.reference_elementwise
            ),
            format!("{:.1}", unstitched_plan.bytes_per_request() / 1e6),
            format!("{:.1}", stitched_plan.bytes_per_request() / 1e6),
            format!(
                "{:.1}%",
                (1.0 - stitched_plan.bytes_per_request() / unstitched_plan.bytes_per_request())
                    * 100.0
            ),
            fmt_time(unstitched_plan.virtual_time_per_request()),
            fmt_time(stitched_plan.virtual_time_per_request()),
            format!(
                "{:.1}%",
                (1.0 - stitched_plan.virtual_time_per_request()
                    / unstitched_plan.virtual_time_per_request())
                    * 100.0
            ),
        ]);

        let norm = |t: f64| t_relay / t;
        table.row(vec![
            graph.name.clone(),
            format!("1.00 ({})", fmt_time(t_relay)),
            format!("{:.2}", norm(t_bolt)),
            format!("{:.2}", norm(mcf_relay.total_time)),
            format!("{:.2}", norm(t_ansor)),
            format!("{:.2}", norm(mcf_ansor.total_time)),
            format!("{:.2}x", t_relay / mcf_relay.total_time),
            format!("{:.2}x", t_ansor / mcf_relay.total_time),
            format!("{:.2}x", t_ansor / mcf_ansor.total_time),
        ]);
        let stitched_json = serde_json::json!({
            "fused_steps": sb.fused_steps,
            "reference_steps": sb.reference_steps,
            "reference_elementwise": sb.reference_elementwise,
            "fused_bytes": sb.fused_bytes,
            "reference_bytes": sb.reference_bytes,
            "bytes_per_request": stitched_plan.bytes_per_request(),
            "virtual_time_s": stitched_plan.virtual_time_per_request(),
        });
        let unstitched_json = serde_json::json!({
            "fused_steps": ub.fused_steps,
            "reference_steps": ub.reference_steps,
            "reference_elementwise": ub.reference_elementwise,
            "fused_bytes": ub.fused_bytes,
            "reference_bytes": ub.reference_bytes,
            "bytes_per_request": unstitched_plan.bytes_per_request(),
            "virtual_time_s": unstitched_plan.virtual_time_per_request(),
        });
        let stitching = serde_json::json!({
            "stitch_demotions": mcf_relay.stitch_demotions,
            "stitched": stitched_json,
            "unstitched": unstitched_json,
        });
        let tuning = serde_json::json!({
            "relay_s": tune_relay,
            "bolt_s": tune_bolt,
            "mcfuser_relay_s": mcf_relay.tuning_seconds,
            "ansor_s": tune_ansor,
            "mcfuser_ansor_s": mcf_ansor.tuning_seconds,
        });
        json_rows.push(serde_json::json!({
            "model": graph.name,
            "relay_s": t_relay,
            "bolt_s": t_bolt,
            "mcfuser_relay_s": mcf_relay.total_time,
            "ansor_s": t_ansor,
            "mcfuser_ansor_s": mcf_ansor.total_time,
            "chains_fused": mcf_relay.chains.len(),
            "chain_time_s": mcf_relay.chain_time,
            "tuning": tuning,
            "stitching": stitching,
        }));
    }

    println!(
        "Fig. 9 — end-to-end BERT (seq {seq}) on {} — normalized to Relay\n",
        dev.name
    );
    println!("{}", table.render());
    println!(
        "Paper shape: MCFuser+Relay ≈ 1.45x over Relay, ≈ 1.33x over Ansor;\n\
         MCFuser+Ansor ≈ 1.3-1.5x over Ansor alone."
    );
    println!("\nPrologue/epilogue stitching (stitched vs unstitched plan):\n");
    println!("{}", stitch_table.render());
    write_json(
        "fig9_end2end",
        &serde_json::json!({ "fast": fast, "rows": json_rows }),
    );
}
