//! The `serve` workload: one closed-loop client sends `infer` requests
//! to a `ModelRuntime` holding three encoder plans — BERT-mini (2
//! layers, hidden 128, seq 64), a ViT block (64×128) and a Mixer block
//! (64×128) — at two weight seeds each (well inside the 32-entry weight
//! cache), on a small pool of seeded inputs.
//!
//! Why: GEMM-shaped fused kernels dominate each request, so executor
//! changes show here. Requests bypass the batching queue and nothing is
//! tuned after set-up.
//!
//! The rotation is fixed: blocks of three requests, one per plan, in a
//! seeded order, then one seeded extra request — so every pass holds the
//! same plan mix (each percentile lands on the same plan) while the
//! virtual metrics still depend on the seed.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use mcfuser_core::{ExecutablePlan, InputSet, ModelRuntime, Outputs, RunOptions, RuntimeStats};
use mcfuser_ir::{evaluate, Graph};
use mcfuser_sim::{BufferArena, HostTensor};
use mcfuser_workloads::{bert_graph, mixer_block, vit_block, BertConfig};
use rustc_hash::FxHashMap;

use crate::replay::{bit_identical, replay_plan, WeightMemo};
use crate::report::{self, Metrics, Outcome};
use crate::rng::SplitMix64;
use crate::stats::{rel_l2, Digest};
use crate::trace::Tracer;
use crate::{engine, Args};

/// Requests per pass: 21 blocks of three plans plus one extra.
pub const REQUESTS_PER_PASS: usize = 64;
/// Distinct inputs per plan.
pub const INPUT_POOL: usize = 3;
/// Weight seeds per plan.
pub const WEIGHT_SEEDS: usize = 2;
/// Tolerance of a fused response against the reference lane (the
/// examples' rel-L2 bound).
pub const REL_L2_TOL: f64 = 2e-2;

/// The served models, as `(registered name, graph)`.
pub fn models() -> Vec<(&'static str, Graph)> {
    vec![
        (
            "bert-mini",
            bert_graph(
                "bert-mini",
                &BertConfig {
                    layers: 2,
                    hidden: 128,
                    heads: 4,
                    seq: 64,
                    intermediate: 512,
                },
            ),
        ),
        ("vit", vit_block(64, 128, 4)),
        ("mixer", mixer_block(64, 128, 256, 512)),
    ]
}

/// One request of the rotation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// Index into [`models`].
    pub model: usize,
    /// Index into the run's weight seeds.
    pub weights: usize,
    /// Index into the model's input pool.
    pub input: usize,
}

/// The request sequence of one pass for `seed`.
pub fn op_sequence(seed: u64) -> Vec<Request> {
    let mut rng = SplitMix64::new(seed, "serve.ops");
    let n_models = models().len();
    let mut order: Vec<usize> = Vec::with_capacity(REQUESTS_PER_PASS);
    while order.len() < REQUESTS_PER_PASS {
        let mut block: Vec<usize> = (0..n_models).collect();
        rng.shuffle(&mut block);
        order.extend(block);
    }
    order.truncate(REQUESTS_PER_PASS);
    order
        .into_iter()
        .map(|model| Request {
            model,
            weights: rng.below(WEIGHT_SEEDS),
            input: rng.below(INPUT_POOL),
        })
        .collect()
}

/// Weight seeds of a run.
pub fn weight_seeds(seed: u64) -> Vec<u64> {
    let mut rng = SplitMix64::new(seed, "serve.weights");
    (0..WEIGHT_SEEDS).map(|_| rng.next_u64() >> 16).collect()
}

/// Seeded activation inputs for every declared input of `graph`.
fn make_inputs(graph: &Graph, rng: &mut SplitMix64) -> Vec<(String, HostTensor)> {
    graph
        .input_bindings()
        .into_iter()
        .map(|(name, node)| {
            let shape = graph.node(node).shape.clone();
            let len: u64 = shape.iter().product();
            let data = (0..len).map(|_| rng.centered(1.0)).collect();
            (name, HostTensor::from_vec(&shape, data))
        })
        .collect()
}

/// An input set from named tensors.
pub fn input_set(tensors: &[(String, HostTensor)]) -> InputSet {
    let mut set = InputSet::new();
    for (name, t) in tensors {
        set.insert(name.clone(), t.clone());
    }
    set
}

/// Everything set-up builds.
pub struct Served {
    /// The runtime holding every plan.
    pub runtime: ModelRuntime,
    /// `(name, graph, plan, tuning seconds)` per model.
    pub plans: Vec<(&'static str, Graph, Arc<ExecutablePlan>, f64)>,
}

/// Engine build → compile/plan/register → warm every weight store and
/// the runtime's arena with one request per `(model, weight seed)`.
pub fn setup(wseeds: &[u64], pool: &[Vec<Vec<(String, HostTensor)>>]) -> Result<Served, String> {
    let engine = engine();
    let runtime = ModelRuntime::new();
    let mut plans = Vec::new();
    for (name, graph) in models() {
        let model = engine.compile(&graph).map_err(|e| e.to_string())?;
        let plan = model.plan(&graph).map_err(|e| e.to_string())?;
        let plan = runtime.register(name, plan);
        plans.push((name, graph, plan, model.tuning_seconds));
    }
    for (m, (name, ..)) in plans.iter().enumerate() {
        for &w in wseeds {
            runtime
                .infer(name, &input_set(&pool[m][0]), RunOptions::seeded(w))
                .map_err(|e| e.to_string())?;
        }
    }
    Ok(Served { runtime, plans })
}

/// Seeded input pools, per model.
pub fn input_pools(seed: u64) -> Vec<Vec<Vec<(String, HostTensor)>>> {
    let mut rng = SplitMix64::new(seed, "serve.inputs");
    models()
        .iter()
        .map(|(_, graph)| {
            (0..INPUT_POOL)
                .map(|_| make_inputs(graph, &mut rng))
                .collect()
        })
        .collect()
}

/// The reference lane's outputs for a request.
fn oracle(
    graph: &Graph,
    inputs: &[(String, HostTensor)],
    wseed: u64,
) -> Result<Vec<HostTensor>, String> {
    let mut map: FxHashMap<_, HostTensor> = FxHashMap::default();
    for (name, t) in inputs {
        map.insert(graph.input_named(name).ok_or("unknown input")?, t.clone());
    }
    let values = evaluate(graph, &map, wseed).map_err(|e| e.to_string())?;
    Ok(graph.outputs.iter().map(|o| values[o.0].clone()).collect())
}

fn outputs_match(got: &Outputs, want: &[HostTensor]) -> bool {
    got.len() == want.len()
        && got
            .iter()
            .zip(want)
            .all(|((_, a), b)| a.shape == b.shape && rel_l2(&a.data, &b.data) < REL_L2_TOL)
}

struct Pass {
    latencies_ms: Vec<f64>,
    virtual_us: f64,
    tuning_s: f64,
    failed: u64,
    digest: Digest,
}

struct Bench {
    served: Served,
    wseeds: Vec<u64>,
    pool: Vec<Vec<Vec<(String, HostTensor)>>>,
    sets: Vec<Vec<InputSet>>,
    want: HashMap<(usize, usize, usize), Vec<HostTensor>>,
    ops: Vec<Request>,
}

impl Bench {
    fn pass(&self) -> Pass {
        let mut p = Pass {
            latencies_ms: Vec::with_capacity(self.ops.len()),
            virtual_us: 0.0,
            tuning_s: 0.0,
            failed: 0,
            digest: Digest::default(),
        };
        for r in &self.ops {
            let (name, _, plan, tuning) = &self.served.plans[r.model];
            let start = Instant::now();
            let out = self.served.runtime.infer(
                name,
                &self.sets[r.model][r.input],
                RunOptions::seeded(self.wseeds[r.weights]),
            );
            p.latencies_ms.push(start.elapsed().as_secs_f64() * 1e3);
            p.virtual_us += plan.virtual_time_per_request() * 1e6;
            p.tuning_s += tuning;
            match out {
                Ok(out) => {
                    for (_, t) in out.iter() {
                        p.digest.f32s(&t.data);
                    }
                    if !outputs_match(&out, &self.want[&(r.model, r.weights, r.input)]) {
                        p.failed += 1;
                    }
                }
                Err(e) => {
                    eprintln!("serve request to {name} failed: {e}");
                    p.failed += 1;
                }
            }
        }
        p
    }
}

fn prepare(args: &Args) -> Result<(Vec<f64>, Bench), String> {
    let wseeds = weight_seeds(args.seed);
    let pool = input_pools(args.seed);
    let mut setups = Vec::new();
    let mut served = None;
    for _ in 0..args.setup_repeats() {
        drop(served.take());
        let start = Instant::now();
        let s = setup(&wseeds, &pool)?;
        setups.push(start.elapsed().as_secs_f64());
        served = Some(s);
    }
    let served = served.expect("at least one set-up");

    // Reference-lane oracle: part of set-up, excluded from setup_s.
    let mut want = HashMap::new();
    for (m, (_, graph, ..)) in served.plans.iter().enumerate() {
        for (w, &ws) in wseeds.iter().enumerate() {
            for (i, inputs) in pool[m].iter().enumerate() {
                want.insert((m, w, i), oracle(graph, inputs, ws)?);
            }
        }
    }
    let sets = pool
        .iter()
        .map(|per_model| per_model.iter().map(|t| input_set(t)).collect())
        .collect();
    let bench = Bench {
        served,
        wseeds,
        pool,
        sets,
        want,
        ops: op_sequence(args.seed),
    };
    Ok((setups, bench))
}

/// Run the serve workload.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let (setups, bench) = prepare(args)?;
    if args.trace {
        return run_traced(args, &bench);
    }
    let n = bench.ops.len() as u64;
    let passes: Vec<Pass> = (0..args.passes()).map(|_| bench.pass()).collect();
    let keys: Vec<_> = passes
        .iter()
        .map(|p| (p.virtual_us, p.tuning_s, p.digest))
        .collect();
    report::same_every_pass("serve", &keys)?;
    let first = &passes[0];
    let served = bench.served.runtime.stats().requests;
    let expected = n * passes.len() as u64 + (bench.served.plans.len() * bench.wseeds.len()) as u64;
    if served != expected {
        return Err(format!(
            "serve: runtime served {served} requests, the sequence has {expected}"
        ));
    }
    let all: Vec<f64> = passes.iter().flat_map(|p| p.latencies_ms.clone()).collect();
    let ops_per_s: Vec<f64> = passes
        .iter()
        .map(|p| n as f64 / (p.latencies_ms.iter().sum::<f64>() / 1e3))
        .collect();
    // A request is answered whole: its first output is its response.
    let m = report::end_to_end(
        &setups,
        &ops_per_s,
        &all,
        &all,
        first.virtual_us / n as f64,
        first.tuning_s / n as f64,
    );
    Ok(Outcome {
        attempted: n * passes.len() as u64,
        failed: passes.iter().map(|p| p.failed).sum(),
        metrics: m,
        digest: first.digest,
        notes: vec![format!(
            "requests_per_pass={n} passes={} pass_ops_per_s={ops_per_s:?}",
            passes.len()
        )],
    })
}

/// The traced run: an untraced pass (RSS growth, weight-cache ratio,
/// untraced latency), then a pass with a span around every `infer` and a
/// layer-by-layer replay of each request checked bit for bit against it.
fn run_traced(args: &Args, bench: &Bench) -> Result<Outcome, String> {
    let runtime = &bench.served.runtime;
    let before = runtime.stats();
    let rss_before = crate::rss_kb();
    let untraced = bench.pass();
    let rss_growth = (crate::rss_kb() - rss_before) / bench.ops.len() as f64;
    let after = runtime.stats();
    let hits = (after.weight_cache_hits - before.weight_cache_hits) as f64;
    let misses = (after.weight_cache_misses - before.weight_cache_misses) as f64;

    let tracer = Tracer::default();
    let mut memo = WeightMemo::default();
    let mut arena = BufferArena::new();
    // Derive every weight once, as set-up did for the runtime's store.
    let warm = Tracer::default();
    for (m, (name, graph, plan, _)) in bench.served.plans.iter().enumerate() {
        for &w in &bench.wseeds {
            let inputs = &bench.pool[m][0];
            replay_plan(
                plan, name, graph, inputs, w, &mut memo, &mut arena, &warm, "", 0,
            )?;
        }
    }
    let mut failed = untraced.failed;
    let mut self_ms = 0.0;
    let mut traced_ms = Vec::new();
    let mut digest = Digest::default();
    for (i, r) in bench.ops.iter().enumerate() {
        let id = i as u64;
        let (name, graph, plan, _) = &bench.served.plans[r.model];
        let wseed = bench.wseeds[r.weights];
        let busy = |s: &RuntimeStats| s.plan(name).map_or(0.0, |p| p.wall_busy);
        let busy_before = busy(&runtime.stats());
        let start = Instant::now();
        let out = runtime.infer(
            name,
            &bench.sets[r.model][r.input],
            RunOptions::seeded(wseed),
        );
        let end = Instant::now();
        tracer.record("core.runtime.infer", "", id, start, end);
        let infer_ms = (end - start).as_secs_f64() * 1e3;
        traced_ms.push(infer_ms);
        self_ms += infer_ms - (busy(&runtime.stats()) - busy_before) * 1e3;
        let Ok(out) = out else {
            failed += 1;
            continue;
        };
        for (_, t) in out.iter() {
            digest.f32s(&t.data);
        }
        let inputs = &bench.pool[r.model][r.input];
        let replayed = replay_plan(
            plan,
            name,
            graph,
            inputs,
            wseed,
            &mut memo,
            &mut arena,
            &tracer,
            "core.runtime.infer",
            id,
        );
        let identical = replayed.is_ok_and(|rep| bit_identical(&rep, &out));
        if !identical {
            eprintln!("serve replay of request {i} ({name}) differs from infer");
            failed += 1;
        }
    }
    if digest != untraced.digest {
        return Err("serve: traced pass produced different outputs than the untraced pass".into());
    }

    let n = bench.ops.len() as f64;
    let launches = tracer.counter("sim.exec.launches");
    let mut m = Metrics::per_layer();
    m.set("sim.exec.ms_per_op", tracer.total_ms("sim.exec") / n);
    m.set("sim.exec.launches_per_op", launches / n);
    m.set(
        "sim.exec.us_per_launch",
        tracer.total_ms("sim.exec") * 1e3 / launches.max(1.0),
    );
    m.set(
        "sim.exec.mb_per_op",
        tracer.counter("sim.exec.bytes") / 1e6 / n,
    );
    m.set(
        "ir.reference.ms_per_op",
        tracer.total_ms("ir.reference") / n,
    );
    m.set(
        "ir.reference.steps_per_op",
        tracer.counter("ir.reference.steps") / n,
    );
    m.set(
        "core.plan.stage_ms_per_op",
        tracer.total_ms("core.plan.stage") / n,
    );
    m.set("core.runtime.self_ms_per_op", self_ms / n);
    m.set(
        "core.runtime.weight_cache_hit_ratio",
        hits / (hits + misses).max(1.0),
    );
    m.set("core.runtime.rss_growth_kb_per_op", rss_growth);
    m.set(
        "trace.overhead_pct",
        crate::overhead_pct(&untraced.latencies_ms, &traced_ms),
    );
    crate::write_trace(args, &tracer);
    Ok(Outcome {
        attempted: 2 * bench.ops.len() as u64,
        failed,
        metrics: m,
        digest,
        notes: Vec::new(),
    })
}
