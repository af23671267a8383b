//! The benchmark's own guarantees: replays agree with the public entry
//! points they split, op sequences are functions of the seed, and the
//! metric catalog matches `BENCHMARK.json`.

use mcfuser_core::RunOptions;
use mcfuser_sim::{BufferArena, HostTensor};
use perfbench::replay::{bit_identical, replay_plan, WeightMemo};
use perfbench::trace::Tracer;
use perfbench::{compile, decode, report, serve};

#[test]
fn compile_replay_picks_the_engines_winners() {
    // One graph per family the replay handles differently: attention +
    // stitched FFN (BERT), GEMV decode chains, and a skinny MLP whose
    // space exceeds the full-ranking limit.
    let ops = compile::op_sequence(3);
    for prefix in ["bert-small", "gpt-step", "mlp3/m32/h768"] {
        let op = ops
            .iter()
            .find(|o| o.label.starts_with(prefix))
            .expect("every pass holds every class");
        let (_, model, _) = compile::compile_op(&op.graph).expect("compiles");
        let tracer = Tracer::default();
        assert_eq!(
            compile::replay_compile(&op.graph, &model, &tracer, 0),
            0,
            "{}",
            op.label
        );
        assert!(tracer.total_ms("core.search") > 0.0);
        assert!(tracer.counter("tile.lower.lowerings") > 0.0);
    }
}

#[test]
fn serve_replay_equals_infer_bit_for_bit() {
    let pool = serve::input_pools(5);
    let wseeds = serve::weight_seeds(5);
    let served = serve::setup(&wseeds, &pool).expect("set-up");
    let (mut memo, mut arena) = (WeightMemo::default(), BufferArena::new());
    let tracer = Tracer::default();
    for (m, (name, graph, plan, _)) in served.plans.iter().enumerate() {
        let inputs = &pool[m][1];
        let want = served
            .runtime
            .infer(
                name,
                &serve::input_set(inputs),
                RunOptions::seeded(wseeds[1]),
            )
            .expect("infer");
        let got = replay_plan(
            plan, name, graph, inputs, wseeds[1], &mut memo, &mut arena, &tracer, "", 0,
        )
        .expect("replay");
        assert!(bit_identical(&got, &want), "{name}");
    }
    assert!(tracer.counter("sim.exec.launches") > 0.0);
}

#[test]
fn same_seed_same_op_sequence() {
    let labels = |seed| {
        compile::op_sequence(seed)
            .into_iter()
            .map(|o| o.label)
            .collect::<Vec<_>>()
    };
    assert_eq!(labels(11), labels(11));
    assert_ne!(labels(11), labels(12));
    assert_eq!(serve::op_sequence(11), serve::op_sequence(11));
    assert_ne!(serve::op_sequence(11), serve::op_sequence(12));
    assert_eq!(decode::op_sequence(11), decode::op_sequence(11));
    assert_ne!(decode::op_sequence(11), decode::op_sequence(12));
    let stream = |seed| decode::streams(seed)[0].data.clone();
    assert_eq!(stream(11), stream(11));
    assert_ne!(stream(11), stream(12));
}

#[test]
fn every_seed_has_the_same_op_classes() {
    // Percentiles land on the same class in every run only if the class
    // mix of a pass does not depend on the seed.
    let classes = |seed| {
        let mut c: Vec<String> = compile::op_sequence(seed)
            .into_iter()
            .map(|o| o.label.split('/').next().unwrap().to_string())
            .collect();
        c.sort();
        c
    };
    assert_eq!(classes(1), classes(2));
    let plans = |seed| {
        let mut per = [0usize; 3];
        for r in serve::op_sequence(seed) {
            per[r.model] += 1;
        }
        per
    };
    // 21 blocks of all three plans, plus one seeded request.
    for seed in 0..8 {
        let p = plans(seed);
        assert_eq!(p.iter().sum::<usize>(), serve::REQUESTS_PER_PASS);
        assert!(p.iter().all(|&n| n == 21 || n == 22), "{p:?}");
    }
    let lengths = |seed| {
        let mut l: Vec<usize> = decode::op_sequence(seed).iter().map(|p| p.steps).collect();
        l.sort();
        l
    };
    // All but one session length are the same for every seed.
    let (a, mut rest) = (lengths(4), lengths(9));
    let common = a
        .iter()
        .filter(|x| match rest.iter().position(|y| y == *x) {
            Some(i) => {
                rest.remove(i);
                true
            }
            None => false,
        })
        .count();
    assert!(common >= a.len() - 1, "{a:?} vs {:?}", lengths(9));
    for pair in decode::op_sequence(4) {
        assert_ne!(pair.streams[0], pair.streams[1]);
        // Every session migrates from the 32- to the 64-token bucket.
        assert!(decode::PROMPT + pair.steps > decode::BUCKETS[0] as usize);
        assert!(decode::PROMPT + pair.steps <= decode::BUCKETS[1] as usize);
    }
}

#[test]
fn decode_warm_up_is_width_two_and_prefill_matches_the_forward() {
    let wseed = decode::weight_seed(2);
    let pool = decode::streams(2);
    let (serving, tuning) = decode::setup(wseed, &pool).expect("set-up");
    assert!(tuning.iter().all(|&t| t > 0.0));
    // Warm-up: one prefill and every step of one pair, all width 2.
    let stats = serving.runtime().stats();
    assert_eq!(
        stats.batch_sizes,
        vec![(2, 1 + *decode::STEPS.start() as u64)]
    );
    let want = decode::oracle(&pool[3], wseed).expect("oracle");
    let hidden = pool[3].shape[1];
    let prompt = HostTensor::from_vec(
        &[decode::PROMPT as u64, hidden],
        pool[3].data[..decode::PROMPT * hidden as usize].to_vec(),
    );
    let got = serving
        .open(RunOptions::seeded(wseed))
        .prefill(&prompt)
        .expect("prefill");
    let rows = got.data.len();
    assert!(perfbench::stats::rel_l2(&got.data, &want.data[..rows]) < decode::REL_L2_TOL);
}

#[test]
fn catalog_matches_benchmark_json() {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    for (name, unit, better) in report::PER_LAYER {
        let entry =
            format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}");
        assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    let listed = text.matches("\"better\"").count();
    let end_to_end = 8;
    assert_eq!(listed, report::PER_LAYER.len() + end_to_end);
}
