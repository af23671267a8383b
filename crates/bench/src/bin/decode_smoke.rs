//! Autoregressive decoder-serving smoke test: drive a GPT-style mini
//! decoder (4 layers, GEMV-shaped decode chains) end to end through
//! [`DecodeServing`] / [`mcfuser_core::DecodeSession`] — prefill plus 40
//! teacher-forced
//! decode steps, crossing a sequence-length bucket boundary midway.
//!
//! Asserts the invariants CI cares about:
//!
//! * the decode-step plan fuses both the KV-cache attention and the FFN
//!   chain of every layer (nonzero fused-step count);
//! * the fused step is **bit-identical** to the pure reference lane;
//! * width-4 batched decode (four sessions stepping in lockstep through
//!   the coalescing queue) is bit-identical to width-1 serial decode
//!   and spends strictly less virtual device time per token;
//! * per-step latency reservoirs (virtual and wall clock) are populated.
//!
//! Prints tokens/s and per-step p50/p95 on both clocks, and writes the
//! report to `results/decode_smoke.json`.
//!
//! ```sh
//! cargo run --release -p mcfuser-bench --bin decode_smoke
//! ```

use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use mcfuser_baselines::Relay;
use mcfuser_core::{
    BatchPolicy, DecodeServing, DecodeSpec, FusionEngine, ModelRuntime, RunOptions, RuntimeStats,
};
use mcfuser_ir::{decode_mask, evaluate, scatter_onehot};
use mcfuser_sim::{DeviceSpec, HostTensor};
use mcfuser_workloads::{decoder_forward_graph, decoder_step_graph, DecoderConfig};

const PROMPT: u64 = 8;
const STEPS: u64 = 40;
const WIDTH: usize = 4;
const BUCKETS: [u64; 2] = [16, 64];
const SEED: u64 = 5;

fn ramp(shape: &[u64], phase: u64) -> HostTensor {
    let len: u64 = shape.iter().product();
    HostTensor::from_vec(
        shape,
        (0..len)
            .map(|x| (((x + phase) % 23) as f32 - 11.0) / 23.0)
            .collect(),
    )
}

fn spec(cfg: &DecoderConfig) -> DecodeSpec {
    DecodeSpec {
        model: "gpt-mini".into(),
        layers: cfg.layers,
        hidden: cfg.hidden,
        heads: cfg.heads,
        kv_heads: cfg.kv_heads,
        buckets: BUCKETS.to_vec(),
    }
}

fn serving(engine: &FusionEngine, cfg: &DecoderConfig, policy: BatchPolicy) -> Arc<DecodeServing> {
    let runtime = Arc::new(ModelRuntime::with_batch_policy(policy));
    let (c1, c2) = (*cfg, *cfg);
    DecodeServing::compile(
        engine,
        runtime,
        spec(cfg),
        move |t_b| decoder_step_graph("gpt-mini", &c1, t_b),
        move |t| decoder_forward_graph("gpt-mini", &c2, t),
    )
    .expect("decoder compiles")
}

/// Teacher-forced token stream for one session: prompt rows then step
/// rows, all from one deterministic ramp sequence.
fn token_rows(cfg: &DecoderConfig, phase: u64) -> (HostTensor, Vec<HostTensor>) {
    let x = ramp(&[PROMPT + STEPS, cfg.hidden], phase);
    let prompt = HostTensor::from_vec(
        &[PROMPT, cfg.hidden],
        x.data[..(PROMPT * cfg.hidden) as usize].to_vec(),
    );
    let rows = (PROMPT..PROMPT + STEPS)
        .map(|p| {
            HostTensor::from_vec(
                &[1, cfg.hidden],
                x.data[(p * cfg.hidden) as usize..((p + 1) * cfg.hidden) as usize].to_vec(),
            )
        })
        .collect();
    (prompt, rows)
}

/// The fused decode step must be bit-identical to the pure reference
/// lane. Returns the plan's fused-step count.
fn assert_step_bit_identity(engine: &FusionEngine, cfg: &DecoderConfig) -> usize {
    let t_b = BUCKETS[0];
    let g = decoder_step_graph("gpt-mini", cfg, t_b);
    let plan = engine.compile_plan(&g).expect("step plan compiles");
    let breakdown = plan.step_breakdown();
    assert!(
        breakdown.fused_steps >= 2 * cfg.layers as usize,
        "attention + FFN must fuse per layer, got {} fused steps",
        breakdown.fused_steps
    );
    for pos in [0u64, 7, 15] {
        let mut named: Vec<(String, HostTensor)> = vec![
            ("x".into(), ramp(&[1, cfg.hidden], pos)),
            ("mask".into(), decode_mask(cfg.heads, t_b, pos)),
            ("onehot".into(), scatter_onehot(cfg.kv_heads, t_b, pos)),
        ];
        for l in 0..cfg.layers {
            let shape = [cfg.kv_heads, t_b, cfg.head_dim()];
            named.push((format!("l{l}.k_cache"), ramp(&shape, pos + 3 * l as u64)));
            named.push((format!("l{l}.v_cache"), ramp(&shape, pos + 5 * l as u64)));
        }
        let mut by_node = rustc_hash_map();
        let mut inputs = mcfuser_core::InputSet::new();
        for (name, t) in &named {
            by_node.insert(g.input_named(name).expect("input"), t.clone());
            inputs.insert(name.clone(), t.clone());
        }
        let vals = evaluate(&g, &by_node, SEED).expect("reference lane");
        let got = plan
            .execute(&inputs, RunOptions::seeded(SEED))
            .expect("fused step");
        for (o, (name, tensor)) in g.outputs.iter().zip(got.iter()) {
            assert_eq!(
                tensor.data, vals[o.0].data,
                "fused output {name} diverged from the reference lane (pos {pos})"
            );
        }
    }
    breakdown.fused_steps
}

fn rustc_hash_map() -> rustc_hash::FxHashMap<mcfuser_ir::NodeId, HostTensor> {
    rustc_hash::FxHashMap::default()
}

/// Per-token virtual/wall summary over every step-plan bucket.
fn step_summary(stats: &RuntimeStats) -> (u64, f64, f64, Vec<serde_json::Value>) {
    let mut tokens = 0u64;
    let mut virtual_busy = 0.0f64;
    let mut wall_busy = 0.0f64;
    let mut plans = Vec::new();
    for p in stats.plans.iter().filter(|p| p.model.contains("@step")) {
        tokens += p.requests;
        virtual_busy += p.virtual_busy;
        wall_busy += p.wall_busy;
        assert!(
            p.p95_latency >= p.p50_latency && p.p50_latency > 0.0,
            "virtual latency reservoir must be populated for {}",
            p.model
        );
        assert!(
            p.wall_p95_latency >= p.wall_p50_latency && p.wall_p50_latency > 0.0,
            "wall latency reservoir must be populated for {}",
            p.model
        );
        println!(
            "  {:>16}: {:>3} steps, virtual p50 {:.1} us / p95 {:.1} us, \
             wall p50 {:.1} us / p95 {:.1} us, {} fused steps",
            p.model,
            p.requests,
            p.p50_latency * 1e6,
            p.p95_latency * 1e6,
            p.wall_p50_latency * 1e6,
            p.wall_p95_latency * 1e6,
            p.fused_steps,
        );
        plans.push(serde_json::json!({
            "model": p.model,
            "steps": p.requests,
            "p50_latency_s": p.p50_latency,
            "p95_latency_s": p.p95_latency,
            "wall_p50_latency_s": p.wall_p50_latency,
            "wall_p95_latency_s": p.wall_p95_latency,
            "virtual_busy_s": p.virtual_busy,
            "fused_steps": p.fused_steps,
        }));
    }
    (tokens, virtual_busy, wall_busy, plans)
}

fn main() {
    let device = DeviceSpec::a100();
    let engine = FusionEngine::builder(device)
        .fallback(Relay::new())
        .parallelism(0)
        .build();
    let cfg = DecoderConfig::gpt_mini();
    assert!(cfg.layers >= 4, "smoke decoder must be at least 4 layers");

    let compile_start = Instant::now();
    let fused_steps = assert_step_bit_identity(&engine, &cfg);
    println!(
        "fused decode step: {} fused kernels per step, bit-identical to the reference lane",
        fused_steps
    );

    // Width-1: one session decoding alone; launches never widen.
    let serial = serving(
        &engine,
        &cfg,
        BatchPolicy {
            max_batch: 1,
            max_wait: Duration::ZERO,
            queue_cap: 64,
        },
    );
    // Width-4: four sessions stepping in lockstep through the queue.
    let batched = serving(
        &engine,
        &cfg,
        BatchPolicy {
            max_batch: WIDTH,
            max_wait: Duration::from_millis(100),
            queue_cap: 256,
        },
    );
    println!(
        "compiled {} plans in {:.1} s wall",
        2 * 2 * BUCKETS.len(),
        compile_start.elapsed().as_secs_f64()
    );

    // ---- Width-1 serial decode ----------------------------------------
    let (prompt, rows) = token_rows(&cfg, 1);
    let decode_start = Instant::now();
    let mut session = serial.open(RunOptions::seeded(SEED));
    session.prefill(&prompt).expect("prefill");
    let mut serial_logits = Vec::with_capacity(rows.len());
    for row in &rows {
        serial_logits.push(session.step(row).expect("step").data);
    }
    let serial_wall = decode_start.elapsed().as_secs_f64();
    assert_eq!(session.pos(), PROMPT + STEPS);
    assert_eq!(
        session.capacity(),
        BUCKETS[1],
        "decoding past bucket 0 must migrate the KV cache"
    );
    drop(session);
    println!("\n[width-1] prefill {PROMPT} + {STEPS} steps in {serial_wall:.2} s wall");
    let serial_stats = serial.runtime().stats();
    let (serial_tokens, serial_virtual, _, serial_plans) = step_summary(&serial_stats);
    assert_eq!(serial_tokens, STEPS);
    let serial_per_token = serial_virtual / serial_tokens as f64;

    // ---- Width-4 lockstep decode --------------------------------------
    let batch_start = Instant::now();
    let barrier = Arc::new(Barrier::new(WIDTH));
    let lane0_logits = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..WIDTH)
            .map(|lane| {
                let serving = batched.clone();
                let barrier = barrier.clone();
                scope.spawn(move || {
                    // Lane 0 replays the serial token stream; other lanes
                    // decode their own streams so scatter bugs can't hide.
                    let (prompt, rows) = token_rows(&cfg, 1 + 9 * lane as u64);
                    let mut session = serving.open(RunOptions::seeded(SEED));
                    session.prefill(&prompt).expect("prefill");
                    let mut logits = Vec::with_capacity(rows.len());
                    for row in &rows {
                        barrier.wait();
                        logits.push(session.step(row).expect("step").data);
                    }
                    logits
                })
            })
            .collect();
        let mut lanes: Vec<Vec<Vec<f32>>> = handles
            .into_iter()
            .map(|h| h.join().expect("decode lane"))
            .collect();
        lanes.swap_remove(0)
    });
    let batched_wall = batch_start.elapsed().as_secs_f64();
    println!(
        "\n[width-{WIDTH}] {} lockstep sessions x {STEPS} steps in {batched_wall:.2} s wall",
        WIDTH
    );
    let batched_stats = batched.runtime().stats();
    let (batched_tokens, batched_virtual, _, batched_plans) = step_summary(&batched_stats);
    assert_eq!(batched_tokens, WIDTH as u64 * STEPS);
    let batched_per_token = batched_virtual / batched_tokens as f64;

    // The coalesced path is bit-identical to serial decode...
    assert_eq!(
        lane0_logits, serial_logits,
        "coalesced decode must match width-1 decode bit for bit"
    );
    // ...actually coalesced...
    let widened: u64 = batched_stats
        .batch_sizes
        .iter()
        .filter(|(w, _)| *w > 1)
        .map(|(_, n)| n)
        .sum();
    println!("  batch widths: {:?}", batched_stats.batch_sizes);
    assert!(widened > 0, "lockstep decode steps must coalesce");
    // ...and cheaper per token on the virtual clock.
    println!(
        "\nper-token virtual time: width-1 {:.2} us, width-{WIDTH} {:.2} us ({:.2}x)",
        serial_per_token * 1e6,
        batched_per_token * 1e6,
        serial_per_token / batched_per_token,
    );
    assert!(
        batched_per_token < serial_per_token,
        "width-{WIDTH} decode must spend less virtual time per token \
         ({batched_per_token:.3e} !< {serial_per_token:.3e})"
    );

    let tokens_per_s_wall = (PROMPT + STEPS) as f64 / serial_wall;
    let tokens_per_s_virtual = serial_tokens as f64 / serial_virtual;
    println!(
        "\nwidth-1 decode: {tokens_per_s_wall:.0} tokens/s wall (prefill amortized), \
         {tokens_per_s_virtual:.0} tokens/s virtual"
    );

    let config_report = serde_json::json!({
        "layers": cfg.layers,
        "hidden": cfg.hidden,
        "heads": cfg.heads,
        "kv_heads": cfg.kv_heads,
        "buckets": BUCKETS.to_vec(),
        "prompt": PROMPT,
        "steps": STEPS,
    });
    let serial_report = serde_json::json!({
        "wall_seconds": serial_wall,
        "tokens_per_s_wall": tokens_per_s_wall,
        "tokens_per_s_virtual": tokens_per_s_virtual,
        "per_token_virtual_s": serial_per_token,
        "plans": serial_plans,
    });
    let batched_report = serde_json::json!({
        "width": WIDTH,
        "wall_seconds": batched_wall,
        "per_token_virtual_s": batched_per_token,
        "widened_launches": widened,
        "batch_sizes": batched_stats
            .batch_sizes
            .iter()
            .map(|&(w, n)| vec![w as u64, n])
            .collect::<Vec<_>>(),
        "plans": batched_plans,
    });
    mcfuser_bench::write_json(
        "decode_smoke",
        &serde_json::json!({
            "config": config_report,
            "fused_steps_per_decode": fused_steps,
            "serial": serial_report,
            "batched": batched_report,
            "virtual_speedup_per_token": serial_per_token / batched_per_token,
        }),
    );
    for s in [serial, batched] {
        s.runtime().shutdown().expect("caches flush cleanly");
    }
    println!("OK — decode_smoke invariants hold.");
}
