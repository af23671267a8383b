//! The `decode` workload: two sessions on two threads decode GPT-mini in
//! lockstep through `DecodeServing`. The batch policy fills batches by
//! count (`max_batch: 2`, a wait far longer than any step), so every
//! prefill and every step is one width-2 widened launch and the timed
//! path has no wall-clock batch window.
//!
//! Why: this is the only workload that goes through `core.scheduler`,
//! `core.batch` and `core.session`, and it uses the executor and runtime
//! differently from `serve`: many tiny launches, with reference glue,
//! staging and KV bookkeeping dominant.
//!
//! Each session prefills a 16-token prompt into the 32-token bucket and
//! decodes 18–26 tokens, so it always migrates to the 64-token bucket. A
//! pass mixes a fixed set of session lengths with one seeded length, so
//! its token count (and with it the bucket mix and the KV growth) barely
//! moves with the seed. Streams come from a small seeded pool whose
//! full-sequence forward on the reference lane is the oracle for every
//! step. Every pass runs on a serving set up afresh for it, so the
//! memory the runtime's arenas keep stays bounded by one pass.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use mcfuser_core::session::step_plan_name;
use mcfuser_core::{
    BatchPolicy, BatchedPlan, DecodeServing, DecodeSpec, ModelRuntime, RunOptions, RuntimeStats,
};
use mcfuser_ir::{causal_mask, decode_mask, evaluate, scatter_onehot};
use mcfuser_sim::{BufferArena, HostTensor};
use mcfuser_workloads::{decoder_forward_graph, decoder_step_graph, DecoderConfig};
use rustc_hash::FxHashMap;

use crate::replay::{bit_identical, replay_plan, WeightMemo};
use crate::report::{self, Metrics, Outcome};
use crate::rng::SplitMix64;
use crate::stats::{mean, rel_l2, Digest};
use crate::trace::Tracer;
use crate::{engine, Args};

/// Model (and weight-hash graph) name.
pub const MODEL: &str = "gpt-mini";
/// Sequence-length buckets.
pub const BUCKETS: [u64; 2] = [32, 64];
/// Prompt tokens per session.
pub const PROMPT: usize = 16;
/// Decoded tokens per session: every length a pass can hold.
pub const STEPS: std::ops::RangeInclusive<usize> = 18..=26;
/// Session lengths every pass holds; one more pair draws its length
/// from [`STEPS`].
const FIXED_STEPS: [usize; 7] = [18, 19, 21, 22, 23, 25, 26];
/// Nominal wall seconds of one pass, its set-up included, on the
/// reference host (2 cores, opt-level 0).
pub const PASS_SECONDS: f64 = 2.5;
/// Streams in the seeded pool.
pub const STREAMS: usize = 6;
/// Tolerance of a step's logits against the full-sequence forward (the
/// bound `tests/decoder_serving.rs` uses).
pub const REL_L2_TOL: f64 = 1e-5;

fn max_len() -> usize {
    PROMPT + *STEPS.end()
}

fn cfg() -> DecoderConfig {
    DecoderConfig::gpt_mini()
}

/// The bucket serving a step that writes position `pos`.
fn bucket_of(pos: usize) -> usize {
    BUCKETS
        .iter()
        .position(|&b| pos < b as usize)
        .expect("positions stay inside the largest bucket")
}

/// One lockstep pair of sessions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pair {
    /// Stream of each session (indices into the pool, distinct).
    pub streams: [usize; 2],
    /// Decoded tokens per session.
    pub steps: usize,
}

/// The pair sequence of one pass for `seed`.
pub fn op_sequence(seed: u64) -> Vec<Pair> {
    let mut rng = SplitMix64::new(seed, "decode.ops");
    let mut lengths = FIXED_STEPS.to_vec();
    lengths.push(STEPS.start() + rng.below(STEPS.end() - STEPS.start() + 1));
    rng.shuffle(&mut lengths);
    lengths
        .into_iter()
        .map(|steps| {
            let a = rng.below(STREAMS);
            let b = (a + 1 + rng.below(STREAMS - 1)) % STREAMS;
            Pair {
                streams: [a, b],
                steps,
            }
        })
        .collect()
}

/// The run's weight seed.
pub fn weight_seed(seed: u64) -> u64 {
    SplitMix64::new(seed, "decode.weights").next_u64() >> 16
}

/// Seeded token streams, `[max_len, hidden]` each.
pub fn streams(seed: u64) -> Vec<HostTensor> {
    let mut rng = SplitMix64::new(seed, "decode.streams");
    let hidden = cfg().hidden;
    (0..STREAMS)
        .map(|_| {
            let len = max_len() as u64 * hidden;
            HostTensor::from_vec(
                &[max_len() as u64, hidden],
                (0..len).map(|_| rng.centered(0.5)).collect(),
            )
        })
        .collect()
}

/// Full-sequence forward of a stream on the reference lane: logits
/// `[max_len, vocab]`. Causal masking makes every prefix's logits equal
/// to the first rows, so one forward checks every step of a session.
pub fn oracle(stream: &HostTensor, wseed: u64) -> Result<HostTensor, String> {
    let c = cfg();
    let t = max_len() as u64;
    let g = decoder_forward_graph(MODEL, &c, t);
    let mut map = FxHashMap::default();
    map.insert(g.input_named("x").ok_or("no x")?, stream.clone());
    map.insert(
        g.input_named("mask").ok_or("no mask")?,
        causal_mask(c.heads, t, t),
    );
    let values = evaluate(&g, &map, wseed).map_err(|e| e.to_string())?;
    Ok(values[g.outputs[0].0].clone())
}

fn rows(t: &HostTensor, from: usize, to: usize) -> HostTensor {
    let w = t.shape[1] as usize;
    HostTensor::from_vec(
        &[(to - from) as u64, w as u64],
        t.data[from * w..to * w].to_vec(),
    )
}

/// Engine build → compile the bucketed plans → register them with a
/// count-filled batch policy → warm one pair through both buckets.
/// Returns the serving object and the tuning seconds of each bucket's
/// step plan.
pub fn setup(wseed: u64, pool: &[HostTensor]) -> Result<(Arc<DecodeServing>, Vec<f64>), String> {
    let engine = engine();
    let c = cfg();
    // The step plans are compiled here first so their tuning cost is
    // known; DecodeServing::compile then finds them in the engine cache.
    let tuning = BUCKETS
        .iter()
        .map(|&b| {
            engine
                .compile(&decoder_step_graph(MODEL, &c, b))
                .map(|m| m.tuning_seconds)
                .map_err(|e| e.to_string())
        })
        .collect::<Result<Vec<_>, _>>()?;
    let runtime = Arc::new(ModelRuntime::with_batch_policy(BatchPolicy {
        max_batch: 2,
        max_wait: Duration::from_secs(10),
        queue_cap: 64,
    }));
    let spec = DecodeSpec {
        model: MODEL.into(),
        layers: c.layers,
        hidden: c.hidden,
        heads: c.heads,
        kv_heads: c.kv_heads,
        buckets: BUCKETS.to_vec(),
    };
    let serving = DecodeServing::compile(
        &engine,
        runtime,
        spec,
        move |t| decoder_step_graph(MODEL, &c, t),
        move |t| decoder_forward_graph(MODEL, &c, t),
    )
    .map_err(|e| e.to_string())?;
    let warm = Pair {
        streams: [0, 1],
        steps: *STEPS.start(),
    };
    let r = run_pair(&serving, pool, &warm, wseed, None, None, 0);
    if r.iter().any(|s| s.error.is_some()) {
        return Err("decode warm-up failed".into());
    }
    Ok((serving, tuning))
}

/// What one session measured.
#[derive(Default)]
struct SessionRun {
    prefill_ms: f64,
    step_ms: Vec<f64>,
    /// Prefill logits then every step's logits.
    logits: Vec<HostTensor>,
    /// Steps (or the prefill) whose logits missed the oracle.
    misses: u64,
    /// KV cache bytes held at the end.
    kv_bytes: usize,
    /// A failure that ended the session early.
    error: Option<String>,
}

/// The two clients of a pair: a barrier before every prefill and step,
/// and a flag that stops both once either fails.
struct Lockstep {
    barrier: Barrier,
    failed: AtomicBool,
}

impl Lockstep {
    /// Wait for the partner; false once either session has failed (both
    /// see the flag after the same barrier, so neither is left waiting).
    fn meet(&self) -> bool {
        self.barrier.wait();
        !self.failed.load(Ordering::SeqCst)
    }

    /// Stop both sessions at the next meeting.
    fn fail(&self) {
        self.failed.store(true, Ordering::SeqCst);
    }
}

#[allow(clippy::too_many_arguments)]
fn run_session(
    serving: &Arc<DecodeServing>,
    lockstep: &Lockstep,
    stream: &HostTensor,
    steps: usize,
    wseed: u64,
    want: Option<&HostTensor>,
    tracer: Option<&Tracer>,
    op: u64,
) -> SessionRun {
    let mut run = SessionRun::default();
    let vocab = cfg().vocab as usize;
    let miss = |got: &HostTensor, from: usize, to: usize| {
        want.is_some_and(|w| rel_l2(&got.data, &w.data[from * vocab..to * vocab]) >= REL_L2_TOL)
    };
    let mut session = serving.open(RunOptions::seeded(wseed));
    let prompt = rows(stream, 0, PROMPT);
    if lockstep.meet() {
        let start = Instant::now();
        let logits = session.prefill(&prompt);
        let end = Instant::now();
        run.prefill_ms = (end - start).as_secs_f64() * 1e3;
        if let Some(t) = tracer {
            t.record("core.session.prefill", "", op, start, end);
        }
        match logits {
            Ok(l) => {
                run.misses += u64::from(miss(&l, 0, PROMPT));
                run.logits.push(l);
            }
            Err(e) => {
                run.error = Some(e.to_string());
                lockstep.fail();
            }
        }
    }
    for pos in PROMPT..PROMPT + steps {
        let row = rows(stream, pos, pos + 1);
        if !lockstep.meet() {
            break;
        }
        let start = Instant::now();
        let logits = session.step(&row);
        let end = Instant::now();
        run.step_ms.push((end - start).as_secs_f64() * 1e3);
        if let Some(t) = tracer {
            t.record("core.session.step", "", op, start, end);
        }
        match logits {
            Ok(l) => {
                run.misses += u64::from(miss(&l, pos, pos + 1));
                run.logits.push(l);
            }
            Err(e) => {
                run.error = Some(e.to_string());
                lockstep.fail();
            }
        }
    }
    run.kv_bytes = (0..cfg().layers as usize)
        .map(|l| {
            let (k, v) = session.kv_cache(l);
            (k.len() + v.len()) * std::mem::size_of::<f32>()
        })
        .sum();
    run
}

/// Decode one pair of sessions in lockstep on two threads.
///
/// Neither client submits its next step until both have their previous
/// result, so the batch leader has resigned and the two steps always
/// meet in one width-2 launch.
fn run_pair(
    serving: &Arc<DecodeServing>,
    pool: &[HostTensor],
    pair: &Pair,
    wseed: u64,
    oracles: Option<&[HostTensor]>,
    tracer: Option<&Tracer>,
    op: u64,
) -> Vec<SessionRun> {
    let lockstep = Lockstep {
        barrier: Barrier::new(2),
        failed: AtomicBool::new(false),
    };
    let lockstep = &lockstep;
    std::thread::scope(|s| {
        let handles: Vec<_> = pair
            .streams
            .iter()
            .enumerate()
            .map(|(k, &i)| {
                let want = oracles.map(|o| &o[i]);
                s.spawn(move || {
                    run_session(
                        serving,
                        lockstep,
                        &pool[i],
                        pair.steps,
                        wseed,
                        want,
                        tracer,
                        2 * op + k as u64,
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("session thread panicked"))
            .collect()
    })
}

/// Launch-width histogram of the runtime.
fn widths(s: &RuntimeStats) -> FxHashMap<usize, u64> {
    s.batch_sizes.iter().copied().collect()
}

/// Step-plan `(virtual_busy, wall_busy)` summed over buckets.
fn step_busy(s: &RuntimeStats) -> (f64, f64) {
    BUCKETS
        .iter()
        .filter_map(|&b| s.plan(&step_plan_name(MODEL, b)))
        .fold((0.0, 0.0), |(v, w), p| {
            (v + p.virtual_busy, w + p.wall_busy)
        })
}

struct Pass {
    /// Step busy time: per lockstep step, the slower session's latency.
    busy_s: f64,
    step_ms: Vec<f64>,
    prefill_ms: Vec<f64>,
    tokens: u64,
    virtual_us: f64,
    tuning_s: f64,
    failed: u64,
    digest: Digest,
    kv_bytes: Vec<f64>,
    exec_wall_s: f64,
    launches: u64,
    width_sum: u64,
    expired_or_rejected: u64,
}

/// What one set-up built.
struct Served {
    serving: Arc<DecodeServing>,
    /// Tuning seconds of each bucket's step plan.
    tuning: Vec<f64>,
    /// Virtual span of one width-2 step launch, per bucket.
    spans: Vec<f64>,
}

struct Bench {
    wseed: u64,
    pool: Vec<HostTensor>,
    oracles: Vec<HostTensor>,
    ops: Vec<Pair>,
}

impl Bench {
    /// The run's inputs and the reference-lane oracle of every stream
    /// (part of set-up, excluded from `setup_s`).
    fn new(seed: u64) -> Result<Self, String> {
        let wseed = weight_seed(seed);
        let pool = streams(seed);
        let oracles = pool
            .iter()
            .map(|s| oracle(s, wseed))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Bench {
            wseed,
            pool,
            oracles,
            ops: op_sequence(seed),
        })
    }

    /// A fresh set-up and its wall seconds. Every pass gets its own, so
    /// each pass starts from the same runtime state and memory held by
    /// the runtime's pooled arenas does not pile up across passes.
    fn serve(&self) -> Result<(f64, Served), String> {
        let start = Instant::now();
        let (serving, tuning) = setup(self.wseed, &self.pool)?;
        let setup_s = start.elapsed().as_secs_f64();
        let spans = BUCKETS
            .iter()
            .map(|&b| {
                let plan = serving
                    .runtime()
                    .plan(&step_plan_name(MODEL, b))
                    .ok_or("step plan not registered")?;
                Ok(BatchedPlan::new(plan).batch_span(2).0)
            })
            .collect::<Result<Vec<f64>, String>>()?;
        Ok((
            setup_s,
            Served {
                serving,
                tuning,
                spans,
            },
        ))
    }

    fn pass(&self, served: &Served, tracer: Option<&Tracer>) -> Result<Pass, String> {
        let runtime = served.serving.runtime();
        let before = runtime.stats();
        let mut p = Pass {
            busy_s: 0.0,
            step_ms: Vec::new(),
            prefill_ms: Vec::new(),
            tokens: 0,
            virtual_us: 0.0,
            tuning_s: 0.0,
            failed: 0,
            digest: Digest::default(),
            kv_bytes: Vec::new(),
            exec_wall_s: 0.0,
            launches: 0,
            width_sum: 0,
            expired_or_rejected: 0,
        };
        let mut runs = Vec::new();
        for (i, pair) in self.ops.iter().enumerate() {
            runs.push(run_pair(
                &served.serving,
                &self.pool,
                pair,
                self.wseed,
                Some(&self.oracles),
                tracer,
                i as u64,
            ));
        }
        let after = runtime.stats();

        for (pair, sessions) in self.ops.iter().zip(&runs) {
            for s in sessions {
                if let Some(e) = &s.error {
                    return Err(format!("decode session failed: {e}"));
                }
                p.failed += s.misses;
                p.prefill_ms.push(s.prefill_ms);
                p.step_ms.extend(&s.step_ms);
                p.kv_bytes.push(s.kv_bytes as f64);
                for l in &s.logits {
                    p.digest.f32s(&l.data);
                }
            }
            // The two sessions of a lockstep step share one launch: the
            // step is busy until the slower of them has its logits.
            let (s0, s1) = (&sessions[0].step_ms, &sessions[1].step_ms);
            p.busy_s += s0.iter().zip(s1).map(|(x, y)| x.max(*y)).sum::<f64>() / 1e3;
            for pos in PROMPT..PROMPT + pair.steps {
                let b = bucket_of(pos);
                // Both sessions' tokens share one width-2 launch.
                p.virtual_us += served.spans[b] * 1e6;
                p.tuning_s += 2.0 * served.tuning[b];
                p.tokens += 2;
            }
        }

        // Every prefill and step must have been one width-2 launch.
        let (w0, w1) = (widths(&before), widths(&after));
        let mut launched: Vec<(usize, u64)> = w1
            .iter()
            .map(|(&w, &n)| (w, n - w0.get(&w).copied().unwrap_or(0)))
            .filter(|&(_, n)| n > 0)
            .collect();
        launched.sort_unstable();
        let expected: u64 = self.ops.iter().map(|pr| 1 + pr.steps as u64).sum();
        if launched != vec![(2, expected)] {
            return Err(format!(
                "decode launches were {launched:?}, the sequence needs {expected} of width 2"
            ));
        }
        p.launches = expected;
        p.width_sum = 2 * expected;
        let (v0, x0) = step_busy(&before);
        let (v1, x1) = step_busy(&after);
        let stats_virtual_us = (v1 - v0) * 1e6;
        if (stats_virtual_us - p.virtual_us).abs() > 1e-6 * p.virtual_us {
            return Err(format!(
                "decode virtual time {stats_virtual_us} us disagrees with the plan spans {} us",
                p.virtual_us
            ));
        }
        p.exec_wall_s = x1 - x0;
        p.expired_or_rejected =
            (after.expired + after.rejected) - (before.expired + before.rejected);
        Ok(p)
    }
}

/// Run the decode workload.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let bench = Bench::new(args.seed)?;
    if args.trace {
        let (_, served) = bench.serve()?;
        return run_traced(args, &bench, &served);
    }
    let mut setups = Vec::new();
    let mut passes = Vec::new();
    for _ in 0..args.passes() {
        let (setup_s, served) = bench.serve()?;
        setups.push(setup_s);
        passes.push(bench.pass(&served, None)?);
    }
    let keys: Vec<_> = passes
        .iter()
        .map(|p| (p.virtual_us, p.tuning_s, p.digest))
        .collect();
    report::same_every_pass("decode", &keys)?;
    let first = &passes[0];
    let steps: Vec<f64> = passes.iter().flat_map(|p| p.step_ms.clone()).collect();
    let prefills: Vec<f64> = passes.iter().flat_map(|p| p.prefill_ms.clone()).collect();
    let tok_per_s: Vec<f64> = passes.iter().map(|p| p.tokens as f64 / p.busy_s).collect();
    let tokens = first.tokens as f64;
    let m = report::end_to_end(
        &setups,
        &tok_per_s,
        &steps,
        &prefills,
        first.virtual_us / tokens,
        first.tuning_s / tokens,
    );
    Ok(Outcome {
        attempted: passes.iter().map(|p| p.tokens).sum(),
        failed: passes.iter().map(|p| p.failed).sum(),
        metrics: m,
        digest: first.digest,
        notes: vec![format!(
            "tokens_per_pass={} sessions_per_pass={} passes={} pass_ops_per_s={tok_per_s:?}",
            first.tokens,
            2 * bench.ops.len(),
            passes.len()
        )],
    })
}

/// Inputs of one width-1 step at `pos` in bucket `t_b`, with seeded cache
/// contents.
fn step_inputs(t_b: u64, pos: u64, rng: &mut SplitMix64) -> Vec<(String, HostTensor)> {
    let c = cfg();
    let mut v = vec![
        (
            "x".to_string(),
            HostTensor::from_vec(
                &[1, c.hidden],
                (0..c.hidden).map(|_| rng.centered(0.5)).collect(),
            ),
        ),
        ("mask".to_string(), decode_mask(c.heads, t_b, pos)),
        ("onehot".to_string(), scatter_onehot(c.kv_heads, t_b, pos)),
    ];
    let shape = [c.kv_heads, t_b, c.head_dim()];
    let len: u64 = shape.iter().product();
    for l in 0..c.layers {
        for kind in ["k", "v"] {
            let data = (0..len).map(|_| rng.centered(0.5)).collect();
            v.push((
                format!("l{l}.{kind}_cache"),
                HostTensor::from_vec(&shape, data),
            ));
        }
    }
    v
}

/// Replays of the step plan per bucket in the traced run.
const STEP_REPLAYS: usize = 8;

/// The traced run: an untraced pass (RSS growth, untraced latency), a
/// traced pass with spans around every prefill and step, and a width-1
/// replay of the step plan at each bucket, checked bit for bit against
/// `infer` on the same inputs.
fn run_traced(args: &Args, bench: &Bench, served: &Served) -> Result<Outcome, String> {
    let rss_before = crate::rss_kb();
    let untraced = bench.pass(served, None)?;
    let rss_growth = (crate::rss_kb() - rss_before) / untraced.tokens as f64;

    let tracer = Tracer::default();
    let traced = bench.pass(served, Some(&tracer))?;
    if traced.digest != untraced.digest {
        return Err("decode: traced pass produced different logits than the untraced pass".into());
    }
    let mut failed = untraced.failed + traced.failed;

    // Share of tokens each bucket's step plan served.
    let mut per_bucket = vec![0.0; BUCKETS.len()];
    for pair in &bench.ops {
        for pos in PROMPT..PROMPT + pair.steps {
            per_bucket[bucket_of(pos)] += 1.0;
        }
    }
    let total: f64 = per_bucket.iter().sum();
    let runtime = served.serving.runtime();
    let c = cfg();
    let mut rng = SplitMix64::new(args.seed, "decode.replay");
    let (mut reference, mut stage, mut exec, mut launches) = (0.0, 0.0, 0.0, 0.0);
    for (b, &t_b) in BUCKETS.iter().enumerate() {
        let name = step_plan_name(MODEL, t_b);
        let plan = runtime.plan(&name).ok_or("step plan not registered")?;
        let graph = decoder_step_graph(MODEL, &c, t_b);
        let pos = t_b / 2 + 4;
        let inputs = step_inputs(t_b, pos, &mut rng);
        let want = runtime
            .infer(
                &name,
                &crate::serve::input_set(&inputs),
                RunOptions::seeded(bench.wseed),
            )
            .map_err(|e| e.to_string())?;
        let bucket_tracer = Tracer::default();
        let (mut memo, mut arena) = (WeightMemo::default(), BufferArena::new());
        // The first replay derives the weights the runtime's store already
        // holds; it is not measured.
        let warm = Tracer::default();
        for r in 0..=STEP_REPLAYS {
            let got = replay_plan(
                &plan,
                &name,
                &graph,
                &inputs,
                bench.wseed,
                &mut memo,
                &mut arena,
                if r == 0 { &warm } else { &bucket_tracer },
                "core.session.step",
                r as u64,
            )?;
            if !bit_identical(&got, &want) {
                eprintln!("decode replay at bucket {t_b} differs from infer");
                failed += 1;
            }
        }
        let share = per_bucket[b] / total / STEP_REPLAYS as f64;
        reference += share * bucket_tracer.total_ms("ir.reference");
        stage += share * bucket_tracer.total_ms("core.plan.stage");
        exec += share * bucket_tracer.total_ms("sim.exec");
        launches += share * bucket_tracer.counter("sim.exec.launches");
    }

    let step_ms = mean(&tracer.durations_ms("core.session.step"));
    let step_launches = traced.launches - bench.ops.len() as u64;
    let exec_ms = traced.exec_wall_s * 1e3 / step_launches as f64;
    let mut m = Metrics::per_layer();
    m.set("core.session.step_ms_per_op", step_ms);
    m.set("core.batch.exec_ms_per_launch", exec_ms);
    m.set("core.session.self_ms_per_op", step_ms - exec_ms);
    m.set("ir.reference.ms_per_token", reference);
    m.set("core.plan.stage_ms_per_token", stage);
    m.set("sim.exec.ms_per_token", exec);
    m.set("sim.exec.launches_per_token", launches);
    m.set(
        "core.session.prefill_ms",
        mean(&tracer.durations_ms("core.session.prefill")),
    );
    m.set(
        "core.scheduler.mean_width",
        traced.width_sum as f64 / traced.launches as f64,
    );
    m.set(
        "core.scheduler.expired_or_rejected",
        traced.expired_or_rejected as f64,
    );
    m.set("core.runtime.rss_growth_kb_per_op", rss_growth);
    m.set(
        "core.session.kv_mb_per_session",
        mean(&traced.kv_bytes) / 1e6,
    );
    m.set(
        "trace.overhead_pct",
        crate::overhead_pct(&untraced.step_ms, &traced.step_ms),
    );
    crate::write_trace(args, &tracer);
    Ok(Outcome {
        attempted: untraced.tokens + traced.tokens,
        failed,
        metrics: m,
        digest: traced.digest,
        notes: Vec::new(),
    })
}
