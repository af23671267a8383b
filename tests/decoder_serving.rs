//! Integration: the decoder-serving subsystem — GEMV-shaped fused
//! chains, KV-cache decode attention, and `DecodeSession`.
//!
//! The contract under test:
//!
//! * the decode-step graph compiles with **fused** attention and FFN
//!   chains (the memory-bound gate flips at `m = 1`), and fused
//!   execution is bit-identical to the reference lane — property-tested
//!   across seeds and widened batch widths;
//! * `DecodeSession` prefill-then-N-steps matches one full-sequence
//!   forward pass exactly on the reference lane, and within tight
//!   relative error on the fused lane;
//! * sessions are deterministic per seed and populate the wall-clock
//!   reservoir stats on the coalesced decode-step path.

use std::sync::Arc;

use proptest::prelude::*;

use mcfuser::baselines::Relay;
use mcfuser::ir::{causal_mask, decode_mask, evaluate, scatter_onehot};
use mcfuser::prelude::*;
use mcfuser::sim::BufferArena;
use mcfuser::workloads::{decoder_forward_graph, decoder_step_graph, DecoderConfig};
use rustc_hash::FxHashMap;

fn engine() -> FusionEngine {
    FusionEngine::builder(DeviceSpec::a100())
        .fallback(Relay::new())
        .build()
}

fn ramp(shape: &[u64], phase: u64) -> HostTensor {
    let len: u64 = shape.iter().product();
    HostTensor::from_vec(
        shape,
        (0..len)
            .map(|x| (((x + phase) % 19) as f32 - 9.0) / 19.0)
            .collect(),
    )
}

/// Step-graph input tensors for decode position `pos` against ramp
/// caches, as `(name, tensor)` pairs.
fn step_tensors(cfg: &DecoderConfig, t_b: u64, pos: u64, phase: u64) -> Vec<(String, HostTensor)> {
    let mut v = vec![
        ("x".to_string(), ramp(&[1, cfg.hidden], phase)),
        ("mask".to_string(), decode_mask(cfg.heads, t_b, pos)),
        ("onehot".to_string(), scatter_onehot(cfg.kv_heads, t_b, pos)),
    ];
    for l in 0..cfg.layers {
        let shape = [cfg.kv_heads, t_b, cfg.head_dim()];
        v.push((format!("l{l}.k_cache"), ramp(&shape, phase + 2 * l as u64)));
        v.push((format!("l{l}.v_cache"), ramp(&shape, phase + 7 * l as u64)));
    }
    v
}

fn to_input_set(tensors: &[(String, HostTensor)]) -> InputSet {
    let mut set = InputSet::new();
    for (name, t) in tensors {
        set.insert(name.clone(), t.clone());
    }
    set
}

#[test]
fn decode_step_plan_has_fused_gemv_chains() {
    let engine = engine();
    let cfg = DecoderConfig::gpt_mini();
    let g = decoder_step_graph("gpt-mini", &cfg, 16);
    let plan = engine.compile_plan(&g).unwrap();
    let b = plan.step_breakdown();
    assert_eq!(
        b.fused_steps,
        2 * cfg.layers as usize,
        "decode attention + FFN fused per layer"
    );
}

/// Evaluate the graph on the pure reference lane with the same named
/// tensors, returning output values in declaration order.
fn reference_outputs(g: &Graph, tensors: &[(String, HostTensor)], seed: u64) -> Vec<HostTensor> {
    let mut map = FxHashMap::default();
    for (name, t) in tensors {
        map.insert(g.input_named(name).expect("input bound"), t.clone());
    }
    let vals = evaluate(g, &map, seed).unwrap();
    g.outputs.iter().map(|o| vals[o.0].clone()).collect()
}

/// One compiled step plan shared by the property tests (compiling per
/// proptest case would dominate the suite's runtime).
fn shared_step_plan() -> &'static (Graph, Arc<ExecutablePlan>) {
    static PLAN: std::sync::OnceLock<(Graph, Arc<ExecutablePlan>)> = std::sync::OnceLock::new();
    PLAN.get_or_init(|| {
        let cfg = DecoderConfig::gpt_mini();
        let g = decoder_step_graph("gpt-mini", &cfg, 16);
        let plan = Arc::new(engine().compile_plan(&g).unwrap());
        (g, plan)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The fused decode step is bit-identical to the reference lane for
    /// arbitrary seeds and positions, at any widened batch width.
    #[test]
    fn fused_decode_step_bit_identity_property(
        seed in 0u64..500,
        pos in 0u64..16,
        width in 1usize..5,
    ) {
        let cfg = DecoderConfig::gpt_mini();
        let (g, plan) = shared_step_plan();
        let requests: Vec<Vec<(String, HostTensor)>> = (0..width as u64)
            .map(|r| step_tensors(&cfg, 16, pos, seed.wrapping_mul(31) + r))
            .collect();
        let sets: Vec<InputSet> = requests.iter().map(|t| to_input_set(t)).collect();
        let refs: Vec<&InputSet> = sets.iter().collect();
        let want: Vec<Vec<HostTensor>> = requests
            .iter()
            .map(|t| reference_outputs(g, t, seed))
            .collect();
        let batched = BatchedPlan::new(plan.clone());
        let mut arena = BufferArena::new();
        let outs = batched
            .execute_batch(&refs, RunOptions::seeded(seed), &mut arena, None)
            .unwrap();
        for (r, (got, want)) in outs.iter().zip(&want).enumerate() {
            for ((name, a), b) in got.iter().zip(want.iter()) {
                prop_assert_eq!(
                    &a.data,
                    &b.data,
                    "request {} output {} (width {})",
                    r, name, width
                );
            }
        }
    }
}

#[test]
fn fused_decode_step_matches_reference() {
    let engine = engine();
    let cfg = DecoderConfig::gpt_mini();
    let t_b = 16;
    let g = decoder_step_graph("gpt-mini", &cfg, t_b);
    let runtime = ModelRuntime::new();
    runtime.register("fused", engine.compile_plan(&g).unwrap());
    for seed in [0u64, 7] {
        for pos in [0u64, 3, 15] {
            let tensors = step_tensors(&cfg, t_b, pos, seed + pos);
            let inputs = to_input_set(&tensors);
            let want = reference_outputs(&g, &tensors, seed);
            let got = runtime
                .infer("fused", &inputs, RunOptions::seeded(seed))
                .unwrap();
            for ((name, a), b) in got.iter().zip(want.iter()) {
                assert_eq!(a.data, b.data, "output {name} differs (pos {pos})");
            }
        }
    }
}

/// Compile a bucketed decode serving over the gpt-mini decoder.
fn decode_serving(cfg: &DecoderConfig, buckets: &[u64]) -> Arc<DecodeServing> {
    let engine = engine();
    let runtime = Arc::new(ModelRuntime::new());
    let spec = DecodeSpec {
        model: "gpt-mini".into(),
        layers: cfg.layers,
        hidden: cfg.hidden,
        heads: cfg.heads,
        kv_heads: cfg.kv_heads,
        buckets: buckets.to_vec(),
    };
    let c1 = *cfg;
    let c2 = *cfg;
    DecodeServing::compile(
        &engine,
        runtime,
        spec,
        move |t_b| decoder_step_graph("gpt-mini", &c1, t_b),
        move |t| decoder_forward_graph("gpt-mini", &c2, t),
    )
    .unwrap()
}

fn rel_l2(a: &[f32], b: &[f32]) -> f64 {
    let num: f64 = a
        .iter()
        .zip(b)
        .map(|(x, y)| ((x - y) as f64).powi(2))
        .sum::<f64>()
        .sqrt();
    let den: f64 = b.iter().map(|y| (*y as f64).powi(2)).sum::<f64>().sqrt();
    num / den.max(1e-30)
}

/// Teacher-forced session decode: prefill the first `p` rows of a ramp
/// sequence, then step through the rest. Every per-position logits row
/// must match one full-sequence forward pass.
#[test]
fn decode_session_prefill_then_steps_matches_full_forward() {
    let cfg = DecoderConfig::gpt_mini();
    let serving = decode_serving(&cfg, &[8, 16]);
    let (t, p, seed) = (12u64, 5u64, 3u64);
    let x = ramp(&[t, cfg.hidden], 1);

    // Ground truth: the full-sequence forward graph on the reference lane.
    let fwd = decoder_forward_graph("gpt-mini", &cfg, t);
    let tensors = vec![
        ("x".to_string(), x.clone()),
        ("mask".to_string(), causal_mask(cfg.heads, t, t)),
    ];
    let want = &reference_outputs(&fwd, &tensors, seed)[0];
    let vocab = (want.data.len() / t as usize) as u64;

    let mut session = serving.open(RunOptions::seeded(seed));
    let prompt = HostTensor::from_vec(
        &[p, cfg.hidden],
        x.data[..(p * cfg.hidden) as usize].to_vec(),
    );
    let prefill_logits = session.prefill(&prompt).unwrap();
    assert_eq!(prefill_logits.shape, vec![p, vocab]);
    assert_eq!(session.pos(), p);
    assert_eq!(session.capacity(), 8, "prompt of 5 fits the first bucket");
    let err = rel_l2(&prefill_logits.data, &want.data[..(p * vocab) as usize]);
    assert!(err < 1e-5, "prefill logits drift: {err}");

    for pos in p..t {
        let row = HostTensor::from_vec(
            &[1, cfg.hidden],
            x.data[(pos * cfg.hidden) as usize..((pos + 1) * cfg.hidden) as usize].to_vec(),
        );
        let logits = session.step(&row).unwrap();
        let w = &want.data[(pos * vocab) as usize..((pos + 1) * vocab) as usize];
        let err = rel_l2(&logits.data, w);
        assert!(err < 1e-5, "step logits drift at pos {pos}: {err}");
        assert_eq!(session.pos(), pos + 1);
    }
    assert_eq!(
        session.capacity(),
        16,
        "generation past 8 tokens migrated the cache to the next bucket"
    );
    // Sessions recycle through the serving arena: a second session's
    // prefill must still work after the first one is dropped.
    drop(session);
    let mut again = serving.open(RunOptions::seeded(seed));
    again.prefill(&prompt).unwrap();
}

/// Sessions at the same seed decode bit-identically, and the
/// wall-clock reservoir is populated on the coalesced decode-step path
/// (`ModelRuntime::submit`).
#[test]
fn session_steps_are_deterministic_and_record_wall_stats() {
    let cfg = DecoderConfig::gpt_mini();
    let serving = decode_serving(&cfg, &[16]);
    let seed = 11u64;
    let prompt = ramp(&[3, cfg.hidden], 2);
    let steps = 5u64;

    let mut logits_by_session: Vec<Vec<Vec<f32>>> = Vec::new();
    for _ in 0..3 {
        let mut session = serving.open(RunOptions::seeded(seed));
        session.prefill(&prompt).unwrap();
        let mut rows = Vec::new();
        for i in 0..steps {
            let row = ramp(&[1, cfg.hidden], 40 + i);
            rows.push(session.step(&row).unwrap().data);
        }
        logits_by_session.push(rows);
    }
    // Sessions share weights, buffers and the coalescing queue; any
    // divergence means state leaked between them.
    assert_eq!(logits_by_session[0], logits_by_session[1]);
    assert_eq!(logits_by_session[1], logits_by_session[2]);

    let stats = serving.runtime().stats();
    let step_plan = stats
        .plans
        .iter()
        .find(|p| p.model == "gpt-mini@step16")
        .expect("step plan served requests");
    assert_eq!(step_plan.requests, 3 * steps);
    assert!(
        step_plan.wall_p50_latency > 0.0 && step_plan.wall_p95_latency > 0.0,
        "wall-clock reservoir must be populated by submitted steps"
    );
    assert!(step_plan.fused_steps >= 2 * cfg.layers as usize);
}
