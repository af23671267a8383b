//! The `compile` workload: each op builds a fresh `FusionEngine` and runs
//! a cold `compile` + `plan` on a graph drawn from the paper's families.
//!
//! Why: this is the paper's tuning-time claim (Table IV). Partitioning,
//! space construction, Rule-4 pruning, search, lowering and verification
//! do all the work; the executor does none. The MLP spaces fall on both
//! sides of the search's 20k full-ranking limit.
//!
//! Every pass holds the same multiset of op classes, so each latency
//! percentile lands on the same class in every run: p50 inside the
//! BERT-Small/Large band, p90 inside the BERT-Base band. The seed orders
//! the pass and draws the shapes of three cheap classes.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use mcfuser_core::{
    build_candidate_space, estimate_or_inf_with, heuristic_search, space_fingerprint, CacheKey,
    CandidateSpace, CompiledModel, ExecutablePlan, FusionEngine, SearchOutcome, SearchParams,
    SpaceCache, SpacePolicy,
};
use mcfuser_ir::{partition_with, ChainSpec, FusedChain, Graph, GraphBuilder, PartitionOptions};
use mcfuser_sim::{measure_noisy, verify_program, DType, DeviceSpec, TuningClock};
use mcfuser_tile::{lower, LoweringOptions};
use mcfuser_workloads::{
    bert_base, bert_large, bert_small, decoder_forward_graph, decoder_step_graph, mixer_block,
    vit_block, DecoderConfig,
};

use crate::report::{self, Metrics, Outcome};
use crate::rng::SplitMix64;
use crate::stats::{mean, Digest};
use crate::trace::Tracer;
use crate::{engine, Args};

/// Op classes of one pass, cheapest first: `(class, ops per pass)`.
const PASS: [(Class, usize); 8] = [
    (Class::Prefill, 6),
    (Class::Mixer, 6),
    (Class::Vit, 6),
    (Class::DecodeStep, 6),
    (Class::BertSmall, 6),
    (Class::BertLarge, 6),
    (Class::Mlp, 12),
    (Class::BertBase, 12),
];

#[derive(Debug, Clone, Copy)]
enum Class {
    Prefill,
    DecodeStep,
    Mixer,
    Vit,
    BertSmall,
    BertLarge,
    Mlp,
    BertBase,
}

impl Class {
    /// Shapes the class draws from.
    fn shapes(self) -> usize {
        match self {
            Class::Prefill | Class::DecodeStep | Class::BertLarge => 4,
            Class::Mixer | Class::Vit => 2,
            Class::BertSmall => 6,
            Class::Mlp => 12,
            Class::BertBase => 3,
        }
    }

    /// Whether every shape appears equally often in a pass. The classes
    /// whose shapes differ most in compile cost are stratified, which
    /// keeps each pass's cost nearly seed-independent; the others draw
    /// each op's shape from the seed.
    fn stratified(self) -> bool {
        !matches!(self, Class::Prefill | Class::DecodeStep | Class::BertLarge)
    }

    /// The op for shape `i` of this class.
    fn op(self, i: usize) -> CompileOp {
        let gpt = |i: usize| {
            if i / 2 == 1 {
                ("gqa", DecoderConfig::gpt_mini_gqa())
            } else {
                ("mha", DecoderConfig::gpt_mini())
            }
        };
        let (label, graph) = match self {
            Class::Prefill => {
                let ((kind, cfg), t) = (gpt(i), [64u64, 128][i % 2]);
                (
                    format!("gpt-prefill/{kind}/t{t}"),
                    decoder_forward_graph("gpt-mini", &cfg, t),
                )
            }
            Class::DecodeStep => {
                let ((kind, cfg), t) = (gpt(i), [64u64, 128][i % 2]);
                (
                    format!("gpt-step/{kind}/t{t}"),
                    decoder_step_graph("gpt-mini", &cfg, t),
                )
            }
            Class::Mixer => {
                let (t, c, th, ch) = [(64u64, 128u64, 256u64, 512u64), (196, 256, 512, 1024)][i];
                (format!("mixer/{t}x{c}"), mixer_block(t, c, th, ch))
            }
            Class::Vit => {
                let (p, h, heads) = [(64u64, 128u64, 4u64), (196, 256, 8)][i];
                (format!("vit/{p}x{h}"), vit_block(p, h, heads))
            }
            Class::BertSmall => {
                let s = [64u64, 96, 128, 160, 192, 256][i];
                (format!("bert-small/s{s}"), bert_small(s))
            }
            Class::BertLarge => {
                let s = [96u64, 160, 192, 256][i];
                (format!("bert-large/s{s}"), bert_large(s))
            }
            Class::Mlp => {
                let (m, h) = ([32u64, 64, 96, 128][i / 3], [768u64, 1024, 1280][i % 3]);
                (format!("mlp3/m{m}/h{h}"), mlp3(m, h))
            }
            Class::BertBase => {
                let s = [64u64, 128, 160][i];
                (format!("bert-base/s{s}"), bert_base(s))
            }
        };
        CompileOp { label, graph }
    }
}

/// One compile op: a labelled graph.
pub struct CompileOp {
    /// Family and shape, e.g. `bert-base/s128`.
    pub label: String,
    /// The graph to compile.
    pub graph: Graph,
}

/// A skinny 3-layer MLP (`m × h → h → h → h`, biased, GELU between).
fn mlp3(m: u64, h: u64) -> Graph {
    let mut gb = GraphBuilder::new("mlp3", DType::F16);
    let x = gb.input("x", vec![m, h]);
    let a = gb.linear("fc1", x, h, true);
    let a = gb.gelu("act1", a);
    let a = gb.linear("fc2", a, h, true);
    let a = gb.gelu("act2", a);
    let a = gb.linear("fc3", a, h, true);
    gb.finish(vec![a])
}

/// The op sequence of one pass for `seed`.
pub fn op_sequence(seed: u64) -> Vec<CompileOp> {
    let mut rng = SplitMix64::new(seed, "compile.ops");
    let mut picks: Vec<(Class, usize)> = Vec::new();
    for (class, n) in PASS {
        let k = class.shapes();
        if class.stratified() {
            debug_assert_eq!(n % k, 0, "a stratified class uses every shape equally");
            picks.extend((0..n).map(|j| (class, j % k)));
        } else {
            picks.extend((0..n).map(|_| (class, rng.below(k))));
        }
    }
    rng.shuffle(&mut picks);
    picks.into_iter().map(|(class, i)| class.op(i)).collect()
}

/// Cold compile + plan on a fresh engine: the timed unit of work. The
/// engine is returned so that tearing it down stays outside the timing.
pub fn compile_op(graph: &Graph) -> Result<(FusionEngine, CompiledModel, ExecutablePlan), String> {
    let engine = engine();
    let model = engine.compile(graph).map_err(|e| e.to_string())?;
    let plan = model.plan(graph).map_err(|e| e.to_string())?;
    Ok((engine, model, plan))
}

/// Check a compiled op and fold it into the digest. Every winner must
/// pass the static verifier and the plan must have frozen.
fn check(op: &CompileOp, model: &CompiledModel, plan: &ExecutablePlan, d: &mut Digest) -> bool {
    let verified = model
        .chains
        .iter()
        .all(|c| verify_program(&c.tuned.kernel.program).is_ok());
    d.str(&op.label);
    for c in &model.chains {
        d.str(&c.tuned.candidate.describe(&c.chain));
        d.f64(c.tuned.profile.time);
    }
    d.f64(model.total_time);
    d.f64(model.tuning_seconds);
    d.u64(plan.steps().len() as u64);
    verified && model.total_time > 0.0 && model.tuning_seconds > 0.0 && !plan.steps().is_empty()
}

/// What one pass over the op sequence measured.
struct Pass {
    latencies_ms: Vec<f64>,
    virtual_us: f64,
    tuning_s: f64,
    failed: u64,
    digest: Digest,
}

impl Pass {
    fn busy_s(&self) -> f64 {
        self.latencies_ms.iter().sum::<f64>() / 1e3
    }
}

fn timed_pass(ops: &[CompileOp]) -> Pass {
    let mut pass = Pass {
        latencies_ms: Vec::with_capacity(ops.len()),
        virtual_us: 0.0,
        tuning_s: 0.0,
        failed: 0,
        digest: Digest::default(),
    };
    for op in ops {
        let start = Instant::now();
        let result = compile_op(&op.graph);
        pass.latencies_ms.push(start.elapsed().as_secs_f64() * 1e3);
        match result {
            Ok((_, model, plan)) => {
                pass.virtual_us += model.total_time * 1e6;
                pass.tuning_s += model.tuning_seconds;
                if !check(op, &model, &plan, &mut pass.digest) {
                    pass.failed += 1;
                }
            }
            Err(e) => {
                eprintln!("compile op {} failed: {e}", op.label);
                pass.failed += 1;
            }
        }
    }
    pass
}

/// Set-up of the compile workload: build the op sequence's graphs and
/// warm the process with one untimed compile of a fixed small graph.
fn setup(seed: u64) -> Result<(f64, Vec<CompileOp>), String> {
    let start = Instant::now();
    let ops = op_sequence(seed);
    compile_op(&Class::Vit.op(0).graph)?;
    Ok((start.elapsed().as_secs_f64(), ops))
}

/// Run the compile workload.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut setups = Vec::new();
    let mut ops = Vec::new();
    for _ in 0..args.setup_repeats() {
        let (s, o) = setup(args.seed)?;
        setups.push(s);
        ops = o;
    }
    let n = ops.len() as u64;
    if args.trace {
        return run_traced(args, &ops);
    }

    let passes: Vec<Pass> = (0..args.passes()).map(|_| timed_pass(&ops)).collect();
    let keys: Vec<_> = passes
        .iter()
        .map(|p| (p.virtual_us, p.tuning_s, p.digest))
        .collect();
    report::same_every_pass("compile", &keys)?;
    let first = &passes[0];
    let all: Vec<f64> = passes.iter().flat_map(|p| p.latencies_ms.clone()).collect();
    let ops_per_s: Vec<f64> = passes.iter().map(|p| n as f64 / p.busy_s()).collect();
    // A compile has no partial result: its first output is the plan, so
    // time to first output is the op latency.
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
            "ops_per_pass={n} passes={} pass_ops_per_s={ops_per_s:?}",
            passes.len()
        )],
    })
}

/// What one search replay produced for one unique tuning task.
struct TaskReplay {
    chain: ChainSpec,
    space: Arc<CandidateSpace>,
    outcome: SearchOutcome,
    estimates: u64,
}

/// Tune one partition chain the way `FusionEngine::compile` does —
/// shared space, Algorithm 1, static gate — falling back to the
/// unstitched twin when the stitched chain has no verified winner.
fn replay_task(fc: &FusedChain, spaces: &SpaceCache, tracer: &Tracer, op: u64) -> TaskReplay {
    let dev = DeviceSpec::a100();
    let params = SearchParams::default();
    let policy = SpacePolicy::default();
    let tune = |chain: &ChainSpec| {
        let space = tracer.span("core.space", "core.engine.tune", op, || {
            spaces.get_or_build(space_fingerprint(chain, &dev, &policy), || {
                build_candidate_space(chain, &dev, &policy)
            })
        });
        let clock = TuningClock::new();
        let outcome = tracer.span("core.search", "core.engine.tune", op, || {
            heuristic_search(chain, &dev, &space, &params, &clock)
        })?;
        let ok = tracer.span("sim.verify", "core.engine.tune", op, || {
            verify_program(&outcome.kernel.program).is_ok()
        });
        tracer.count("sim.verify.replayed", 1.0);
        ok.then(|| TaskReplay {
            chain: chain.clone(),
            space,
            estimates: clock.report().estimates,
            outcome,
        })
    };
    tune(&fc.chain)
        .or_else(|| fc.unstitched.as_deref().and_then(|twin| tune(&twin.chain)))
        .expect("every chain of the benchmark graphs has a verified winner")
}

/// Run `n` jobs on up to `threads` workers, results in job order — the
/// engine's own fan-out, so the replayed tune phase has the same shape.
fn run_jobs<T: Send>(n: usize, threads: usize, job: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let workers = threads.min(n);
    if workers <= 1 {
        return (0..n).map(job).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::SeqCst);
                if i >= n {
                    break;
                }
                let r = job(i);
                *slots[i].lock().expect("job slot") = Some(r);
            });
        }
    });
    slots
        .into_iter()
        .map(|m| m.into_inner().expect("job slot").expect("every job ran"))
        .collect()
}

/// Replay one compile layer by layer and check that the replay picks the
/// same winner for every chain as `model` did. Returns the number of
/// chains whose winner differs.
pub fn replay_compile(graph: &Graph, model: &CompiledModel, tracer: &Tracer, op: u64) -> usize {
    let dev = DeviceSpec::a100();
    let params = SearchParams::default();
    let policy = SpacePolicy::default();
    let part = tracer.span("ir.partition", "core.engine.compile", op, || {
        partition_with(graph, &dev, PartitionOptions { stitch: true })
    });
    tracer.count("ir.partition.chains", part.chains.len() as f64);

    // Identical tuning tasks are tuned once, as in the engine.
    let mut unique: Vec<&FusedChain> = Vec::new();
    let mut keys: Vec<String> = Vec::new();
    let mut task_of = Vec::with_capacity(part.chains.len());
    for fc in &part.chains {
        let key =
            CacheKey::new(&fc.chain, &fc.transposed_inputs, &dev, &params, &policy).canonical();
        let idx = keys.iter().position(|k| *k == key).unwrap_or_else(|| {
            keys.push(key);
            unique.push(fc);
            unique.len() - 1
        });
        task_of.push(idx);
    }
    let spaces = SpaceCache::new();
    let start = Instant::now();
    let tasks = run_jobs(unique.len(), crate::nproc(), |i| {
        replay_task(unique[i], &spaces, tracer, op)
    });
    tracer.record(
        "core.engine.tune",
        "core.engine.compile",
        op,
        start,
        Instant::now(),
    );

    let mismatches = part
        .chains
        .iter()
        .zip(&task_of)
        .zip(&model.chains)
        .filter(|((_, &t), compiled)| tasks[t].outcome.best != compiled.tuned.candidate)
        .count()
        + part.chains.len().abs_diff(model.chains.len());

    for task in &tasks {
        replay_search_children(task, &dev, &params, tracer, op);
        tracer.count("core.space.candidates", task.space.len() as f64);
        let stats = &task.space.stats;
        if stats.after_rule3 > 0 {
            tracer.count(
                "core.space.rule4_survival",
                stats.after_rule4 as f64 / stats.after_rule3 as f64,
            );
        }
        tracer.count("core.replay.tasks", 1.0);
    }
    mismatches
}

/// Re-run what Algorithm 1 spent its time on: the analytical estimates
/// it ranked, and the lowering + measurement of every candidate it
/// measured (`SearchOutcome::measured_set`).
fn replay_search_children(
    task: &TaskReplay,
    dev: &DeviceSpec,
    params: &SearchParams,
    tracer: &Tracer,
    op: u64,
) {
    let space = &task.space;
    let chain = &task.chain;
    let len = space.len();
    // Every round scored one population; whatever the rounds do not
    // account for was the initial ranking of the whole space.
    let sampled = (task.outcome.rounds * params.population) as u64;
    let full = task.estimates.saturating_sub(sampled);
    let mut sink = 0.0f64;
    let start = Instant::now();
    for cand in space.iter().take(full as usize) {
        sink += estimate_or_inf_with(chain, &cand, dev, &params.model).min(1.0);
    }
    for k in 0..sampled {
        let idx = k.wrapping_mul(0x9E37_79B9_7F4A_7C15) % len.max(1);
        sink += estimate_or_inf_with(chain, &space.candidate(idx), dev, &params.model).min(1.0);
    }
    tracer.record("core.perf_model", "core.search", op, start, Instant::now());
    tracer.count("core.perf_model.estimates", task.estimates as f64);
    std::hint::black_box(sink);

    let opts = LoweringOptions::for_device(dev);
    for &i in &task.outcome.measured_set.indexed {
        let cand = space.candidate(i);
        let lowered = tracer.span("tile.lower", "core.search", op, || {
            lower(chain, &cand, &opts)
        });
        tracer.count("tile.lower.lowerings", 1.0);
        if let Ok(lk) = lowered {
            if lk.smem_bytes <= dev.smem_per_block {
                let prof = tracer.span("sim.timing", "core.search", op, || {
                    measure_noisy(&lk.program, dev, params.seed)
                });
                std::hint::black_box(prof.time);
                tracer.count("sim.timing.measurements", 1.0);
            }
        }
    }
    // Mutants outside the Rule-4 survivors were lowered and measured
    // too, but the outcome keeps only their number: they are counted
    // here and charged at the replayed survivors' mean cost.
    tracer.count(
        "tile.lower.detached",
        task.outcome.measured_set.detached as f64,
    );
}

/// The traced run: one untraced pass, then one pass with spans around
/// every public call and a layer-by-layer replay of each op.
fn run_traced(args: &Args, ops: &[CompileOp]) -> Result<Outcome, String> {
    let tracer = Tracer::default();
    let rss_before = crate::rss_kb();
    let untraced = timed_pass(ops);
    let rss_growth = (crate::rss_kb() - rss_before) / ops.len() as f64;

    let mut failed = untraced.failed;
    let mut traced_ms = Vec::new();
    let (mut tunes, mut chains, mut verified, mut rounds_fresh) = (0.0, 0.0, 0.0, Vec::new());
    let (mut measurements, mut estimates) = (0.0, 0.0);
    let mut mismatched = 0;
    let mut digest = Digest::default();
    for (i, op) in ops.iter().enumerate() {
        let id = i as u64;
        let engine = engine();
        let start = Instant::now();
        let model = engine.compile(&op.graph);
        let end = Instant::now();
        tracer.record("core.engine.compile", "", id, start, end);
        let Ok(model) = model else {
            failed += 1;
            continue;
        };
        let plan = tracer.span("core.plan", "", id, || model.plan(&op.graph));
        traced_ms.push((Instant::now() - start).as_secs_f64() * 1e3);
        let Ok(plan) = plan else {
            failed += 1;
            continue;
        };
        if !check(op, &model, &plan, &mut digest) {
            failed += 1;
        }
        let stats = engine.stats();
        let report = engine.session_report();
        tunes += stats.cache_misses as f64;
        chains += model.chains.len() as f64;
        verified += (stats.programs_verified + model.chains.len() as u64) as f64;
        measurements += report.measurements as f64;
        estimates += report.estimates as f64;
        rounds_fresh.extend(
            model
                .chains
                .iter()
                .filter(|c| !c.cache_hit)
                .map(|c| c.tuned.rounds as f64),
        );
        let warm = tracer.span("core.cache.warm_compile", "", id, || {
            engine.compile(&op.graph)
        });
        if !warm.is_ok_and(|w| w.chains.iter().all(|c| c.cache_hit)) {
            failed += 1;
        }
        let diff = replay_compile(&op.graph, &model, &tracer, id);
        if diff > 0 {
            eprintln!(
                "compile replay picked {diff} different winner(s) for {}",
                op.label
            );
            mismatched += 1;
        }
    }
    if digest != untraced.digest {
        return Err(
            "compile: traced pass produced different winners than the untraced pass".into(),
        );
    }
    failed += mismatched;

    let n = ops.len() as f64;
    let per_op = |name: &str| tracer.total_ms(name) / n;
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let search = per_op("core.search");
    let lowered = tracer.counter("tile.lower.lowerings");
    let detached = tracer.counter("tile.lower.detached");
    // Replayed lowering and measurement time, scaled up to the detached
    // mutants the replay cannot reconstruct.
    let measured_scale = ratio(lowered + detached, lowered);
    let children =
        per_op("core.perf_model") + measured_scale * (per_op("tile.lower") + per_op("sim.timing"));
    let replay_tasks = tracer.counter("core.replay.tasks");
    let compile_ms = per_op("core.engine.compile");

    let mut m = Metrics::per_layer();
    m.set("core.search.ms_per_op", search);
    m.set("core.search.self_ms_per_op", search - children);
    m.set(
        "core.perf_model.estimates_per_op",
        tracer.counter("core.perf_model.estimates") / n,
    );
    m.set(
        "core.perf_model.us_per_estimate",
        ratio(
            tracer.total_ms("core.perf_model") * 1e3,
            tracer.counter("core.perf_model.estimates"),
        ),
    );
    m.set("tile.lower.lowerings_per_op", (lowered + detached) / n);
    m.set(
        "tile.lower.us_per_lowering",
        ratio(tracer.total_ms("tile.lower") * 1e3, lowered),
    );
    m.set(
        "sim.timing.us_per_measurement",
        ratio(
            tracer.total_ms("sim.timing") * 1e3,
            tracer.counter("sim.timing.measurements"),
        ),
    );
    m.set("core.space.ms_per_op", per_op("core.space"));
    m.set(
        "core.space.candidates_per_tune",
        ratio(tracer.counter("core.space.candidates"), replay_tasks),
    );
    m.set(
        "core.space.rule4_survival",
        ratio(tracer.counter("core.space.rule4_survival"), replay_tasks),
    );
    m.set("ir.partition.ms_per_op", per_op("ir.partition"));
    m.set(
        "ir.partition.chains_per_op",
        tracer.counter("ir.partition.chains") / n,
    );
    m.set("sim.verify.programs_per_op", verified / n);
    m.set(
        "sim.verify.us_per_program",
        ratio(
            tracer.total_ms("sim.verify") * 1e3,
            tracer.counter("sim.verify.replayed"),
        ),
    );
    m.set("core.plan.ms_per_op", per_op("core.plan"));
    m.set(
        "core.engine.self_ms_per_op",
        compile_ms - per_op("ir.partition") - per_op("core.engine.tune"),
    );
    m.set("core.engine.tunes_per_chain", ratio(tunes, chains));
    m.set("core.search.rounds_per_tune", mean(&rounds_fresh));
    m.set(
        "core.search.measured_per_estimate",
        ratio(measurements, estimates),
    );
    m.set(
        "core.cache.warm_compile_ms_per_op",
        per_op("core.cache.warm_compile"),
    );
    m.set("core.runtime.rss_growth_kb_per_op", rss_growth);
    m.set(
        "trace.overhead_pct",
        crate::overhead_pct(&untraced.latencies_ms, &traced_ms),
    );
    crate::write_trace(args, &tracer);
    Ok(Outcome {
        attempted: 2 * ops.len() as u64,
        failed,
        metrics: m,
        digest,
        notes: vec![format!("replay_mismatches={mismatched}")],
    })
}
