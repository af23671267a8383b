//! Integration: the `FusionEngine` session contract — cache-key
//! soundness (the dtype/layout collision the old ad-hoc key had),
//! disk-cache persistence across engine lifetimes, and determinism of
//! parallel tuning.

use std::path::PathBuf;

use mcfuser::baselines::Relay;
use mcfuser::core::{CacheKey, SearchParams, SpacePolicy};
use mcfuser::ir::{evaluate, EpilogueStitch, NodeId, Op, PrologueSpec, ResidualSource};
use mcfuser::prelude::*;
use mcfuser::sim::HostTensor;
use mcfuser::workloads::{bert_graph, BertConfig};
use rustc_hash::FxHashMap;

fn key_for(chain: &ChainSpec, layout: &[bool]) -> CacheKey {
    CacheKey::new(
        chain,
        layout,
        &DeviceSpec::a100(),
        &SearchParams::default(),
        &SpacePolicy::default(),
    )
}

/// Regression for the old `format!("b{}m{}d{:?}e{:?}")` cache key, which
/// silently ignored dtype: an f16 and an f32 chain of identical shape
/// shared one `TunedKernel`. The `CacheKey` must distinguish them.
#[test]
fn cache_key_distinguishes_dtype() {
    let f16 = ChainSpec::gemm_chain("g", 1, 256, 128, 64, 64);
    let mut f32 = f16.clone();
    f32.dtype = DType::F32;
    assert_ne!(key_for(&f16, &[]), key_for(&f32, &[]));
    assert_ne!(
        key_for(&f16, &[]).canonical(),
        key_for(&f32, &[]).canonical()
    );
}

/// Same regression for the input-transpose layout (attention stores K as
/// `[N, K]` while the chain's W₀ is `[K, N]`): layout is part of the
/// tuning task's identity.
#[test]
fn cache_key_distinguishes_transposed_layout() {
    let chain = ChainSpec::attention("s", 2, 128, 128, 32, 32);
    let natural = key_for(&chain, &[false, false, false]);
    let attention_layout = key_for(&chain, &[false, true, false]);
    assert_ne!(natural, attention_layout);
    assert_ne!(natural.canonical(), attention_layout.canonical());
}

/// `[]`, `[false]`, and `[false; n]` all describe the natural layout:
/// a chain tuned directly (empty layout) must be a cache hit when the
/// compiler later extracts the identical chain with explicit all-false
/// transpose flags.
#[test]
fn natural_layout_is_shared_between_tune_and_compile() {
    let engine = FusionEngine::builder(DeviceSpec::a100())
        .fallback(Relay::new())
        .build();
    let chain = ChainSpec::gemm_chain("pre", 1, 512, 256, 64, 64);
    engine.tune(&chain).unwrap();

    let mut gb = GraphBuilder::new("g", DType::F16);
    let x = gb.input("x", vec![512, 64]);
    let y = gb.linear("fc1", x, 256, false);
    let z = gb.linear("fc2", y, 64, false);
    let g = gb.finish(vec![z]);
    let model = engine.compile(&g).unwrap();
    assert_eq!(model.chains.len(), 1);
    assert!(
        model.chains[0].cache_hit,
        "all-false layout must reuse the natural-layout tuning"
    );
    assert_eq!(engine.stats().cache_misses, 1);
}

/// Everything else being equal, the key must also separate devices and
/// search configurations (a schedule tuned for the A100 must never be
/// served to the RTX 3080).
#[test]
fn cache_key_distinguishes_device_and_params() {
    let chain = ChainSpec::gemm_chain("g", 1, 256, 128, 64, 64);
    let params = SearchParams::default();
    let policy = SpacePolicy::default();
    let a100 = CacheKey::new(&chain, &[], &DeviceSpec::a100(), &params, &policy);
    let r3080 = CacheKey::new(&chain, &[], &DeviceSpec::rtx3080(), &params, &policy);
    assert_ne!(a100, r3080);
    let other_params = SearchParams {
        topk: params.topk + 4,
        ..params
    };
    let tweaked = CacheKey::new(&chain, &[], &DeviceSpec::a100(), &other_params, &policy);
    assert_ne!(a100, tweaked);
}

fn temp_cache_path(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mcfuser-engine-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{tag}.json"))
}

/// Tune → persist → a *fresh* engine pointed at the same file serves the
/// schedule from disk: identical result, zero new measurements.
#[test]
fn disk_cache_round_trip_spends_no_measurements() {
    let path = temp_cache_path("round-trip");
    let _ = std::fs::remove_file(&path);
    let chain = ChainSpec::attention("s", 4, 256, 256, 64, 64);

    let first = FusionEngine::builder(DeviceSpec::a100())
        .cache(CachePolicy::DiskJson(path.clone()))
        .build();
    let tuned = first.tune(&chain).unwrap();
    assert!(first.session_report().measurements > 0);
    drop(first);

    let fresh = FusionEngine::builder(DeviceSpec::a100())
        .cache(CachePolicy::DiskJson(path.clone()))
        .build();
    let cached = fresh.tune(&chain).unwrap();
    assert_eq!(cached.candidate, tuned.candidate);
    assert_eq!(cached.profile.time, tuned.profile.time);
    assert_eq!(
        fresh.session_report().measurements,
        0,
        "a disk hit must cost zero new measurements"
    );
    assert_eq!(fresh.stats().cache_hits, 1);
    assert_eq!(fresh.stats().cache_misses, 0);
    let _ = std::fs::remove_file(&path);
}

/// The whole compile path through the disk cache: a fresh engine
/// compiles the same model without tuning anything.
#[test]
fn disk_cached_compile_is_tuning_free() {
    let path = temp_cache_path("compile");
    let _ = std::fs::remove_file(&path);
    let g = bert_graph(
        "bert-cache",
        &BertConfig {
            layers: 2,
            hidden: 128,
            heads: 4,
            seq: 64,
            intermediate: 512,
        },
    );

    let first = FusionEngine::builder(DeviceSpec::a100())
        .fallback(Relay::new())
        .cache(CachePolicy::DiskJson(path.clone()))
        .build();
    let warm = first.compile(&g).unwrap();
    drop(first);

    let fresh = FusionEngine::builder(DeviceSpec::a100())
        .fallback(Relay::new())
        .cache(CachePolicy::DiskJson(path.clone()))
        .build();
    let cold_start = fresh.compile(&g).unwrap();
    assert_eq!(cold_start.total_time, warm.total_time);
    assert!(cold_start.chains.iter().all(|c| c.cache_hit));
    assert_eq!(fresh.session_report().measurements, 0);
    // Only the fallback's preparation cost remains.
    assert!(cold_start.tuning_seconds < warm.tuning_seconds);

    // And the cached model still computes the right values, through the
    // plan serving path.
    let mut inputs: FxHashMap<NodeId, HostTensor> = FxHashMap::default();
    for (i, node) in g.nodes.iter().enumerate() {
        if matches!(node.op, Op::Input) {
            let len: u64 = node.shape.iter().product();
            inputs.insert(
                NodeId(i),
                HostTensor::from_vec(
                    &node.shape,
                    (0..len).map(|x| ((x % 23) as f32 - 11.0) / 23.0).collect(),
                ),
            );
        }
    }
    let plan = cold_start.plan(&g).unwrap();
    let fused = plan
        .execute(&InputSet::from_node_values(&inputs), RunOptions::seeded(11))
        .unwrap();
    let reference = evaluate(&g, &inputs, 11).unwrap();
    let out = g.outputs[0];
    let err = fused.primary().rel_l2_error(&reference[out.0]);
    assert!(err < 5e-2, "cached model error {err}");
    let _ = std::fs::remove_file(&path);
}

/// Parallel tuning must be observationally identical to serial: same
/// candidates, same `CompiledModel.total_time`, same aggregate tuning
/// cost, at parallelism 1 and 8.
#[test]
fn parallel_and_serial_sessions_agree() {
    let g = bert_graph(
        "bert-par",
        &BertConfig {
            layers: 2,
            hidden: 128,
            heads: 4,
            seq: 64,
            intermediate: 512,
        },
    );
    let chains: Vec<ChainSpec> = vec![
        ChainSpec::gemm_chain("g1", 1, 512, 256, 64, 64),
        ChainSpec::attention("s1", 4, 256, 256, 64, 64),
        ChainSpec::gemm_chain("g2", 2, 256, 256, 128, 64),
        ChainSpec::attention("s2", 2, 128, 128, 32, 32),
    ];

    let run = |parallelism: usize| {
        let engine = FusionEngine::builder(DeviceSpec::a100())
            .fallback(Relay::new())
            .parallelism(parallelism)
            .build();
        let tuned: Vec<TunedKernel> = engine
            .tune_many(&chains)
            .into_iter()
            .map(|r| r.unwrap())
            .collect();
        let model = engine.compile(&g).unwrap();
        let report = engine.session_report();
        (
            tuned
                .iter()
                .map(|t| (t.candidate.clone(), t.profile.time.to_bits()))
                .collect::<Vec<_>>(),
            model.total_time.to_bits(),
            model
                .chains
                .iter()
                .map(|c| c.tuned.candidate.clone())
                .collect::<Vec<_>>(),
            report.measurements,
            report.virtual_seconds.to_bits(),
        )
    };

    let serial = run(1);
    let parallel = run(8);
    assert_eq!(serial.0, parallel.0, "per-chain results must match");
    assert_eq!(serial.1, parallel.1, "total_time must be bit-identical");
    assert_eq!(serial.2, parallel.2, "compiled candidates must match");
    assert_eq!(serial.3, parallel.3, "measurement counts must match");
    assert_eq!(serial.4, parallel.4, "virtual cost must be bit-identical");
}

/// Structured errors carry the failing chain and device.
#[test]
fn tune_error_carries_context() {
    // A degenerate chain whose only tile candidates cannot be launched:
    // huge dims with a tiny shared-memory device is impractical to build
    // here, so exercise the MissingFallback variant instead plus the
    // Display form of NoViableCandidate.
    let engine = FusionEngine::builder(DeviceSpec::a100()).build();
    let g = bert_graph(
        "bert-err",
        &BertConfig {
            layers: 1,
            hidden: 128,
            heads: 4,
            seq: 64,
            intermediate: 512,
        },
    );
    let err = engine.compile(&g).unwrap_err();
    assert_eq!(
        err,
        TuneError::MissingFallback {
            graph: "bert-err".into()
        }
    );
    assert!(err.to_string().contains("bert-err"));

    let nv = TuneError::NoViableCandidate {
        chain: "S9".into(),
        device: "A100-PCIE-40GB".into(),
    };
    assert!(nv.to_string().contains("S9") && nv.to_string().contains("A100"));
}

/// Compare two tuned kernels field by field (candidate, measured
/// profile, lowered kernel footprint, pruning waterfall) — "bit
/// identical" for everything the serving path consumes.
fn assert_tuned_eq(a: &TunedKernel, b: &TunedKernel) {
    assert_eq!(a.candidate, b.candidate);
    assert_eq!(a.profile.time, b.profile.time);
    assert_eq!(a.profile.gmem_bytes, b.profile.gmem_bytes);
    assert_eq!(a.kernel.smem_bytes, b.kernel.smem_bytes);
    assert_eq!(a.prune_stats, b.prune_stats);
    assert_eq!(a.rounds, b.rounds);
    assert_eq!(a.measured, b.measured);
}

/// The batched-tuning acceptance contract: `tune_many` over N chains
/// that differ only by name runs ONE tuning task (one space build, one
/// search), and a search per chain under `CachePolicy::Disabled` returns
/// exactly what `McFuser::tune` returns for that chain.
#[test]
fn tune_many_same_domain_chains_share_one_rule4_scan() {
    // Four same-shaped chains with distinct names — the BERT-layer
    // pattern (every layer's attention is content-identical).
    let chains: Vec<ChainSpec> = (0..4)
        .map(|l| ChainSpec::attention(format!("layer{l}.attn"), 4, 128, 128, 32, 32))
        .collect();

    let batch_engine = FusionEngine::builder(DeviceSpec::a100()).build();
    let batched: Vec<TunedKernel> = batch_engine
        .tune_many(&chains)
        .into_iter()
        .map(|r| r.unwrap())
        .collect();
    assert_eq!(batched.len(), 4);
    assert_eq!(
        batch_engine.stats().cache_misses,
        1,
        "4 same-domain chains must merge into one tuning task"
    );
    let reference = McFuser::new()
        .tune(&chains[0], &DeviceSpec::a100())
        .unwrap();
    for tuned in &batched {
        assert_tuned_eq(tuned, &reference);
    }

    // Four independent searches (schedule reuse off, separate tune()
    // calls): each is bit-identical to tuning the chain on its own.
    let engine = FusionEngine::builder(DeviceSpec::a100())
        .cache(CachePolicy::Disabled)
        .build();
    for chain in &chains {
        let per_chain = McFuser::new().tune(chain, &DeviceSpec::a100()).unwrap();
        assert_tuned_eq(&engine.tune(chain).unwrap(), &per_chain);
    }
    assert_eq!(engine.stats().cache_misses, 4, "four full searches ran");
}

/// With schedule reuse off, re-tuning the same chain re-searches
/// (cache_misses climbs) and the second search is bit-identical to the
/// first.
#[test]
fn retunes_are_deterministic_with_tuning_cache_disabled() {
    let chain = ChainSpec::gemm_chain("g", 1, 512, 256, 64, 64);
    let engine = FusionEngine::builder(DeviceSpec::a100())
        .cache(CachePolicy::Disabled)
        .build();
    let first = engine.tune(&chain).unwrap();
    let second = engine.tune(&chain).unwrap();
    let stats = engine.stats();
    assert_eq!(stats.cache_misses, 2, "no schedule reuse was configured");
    assert_eq!(stats.cache_hits, 0);
    assert_tuned_eq(&first, &second);
}

/// A stitched chain and its unstitched twin differ only in the glue,
/// which changes Eq. 1 and therefore the Rule-4 space. Tuned back to
/// back on one engine without schedule reuse, each must get its own
/// space: each result equals `McFuser::tune` of that chain.
#[test]
fn stitched_chain_and_its_twin_are_tuned_in_their_own_spaces() {
    let mut stitched = ChainSpec::gemm_chain("ffn", 1, 128, 512, 256, 256);
    stitched.prologue = Some(PrologueSpec {
        residual: true,
        affine: true,
        a_half: false,
        eps: 1e-5,
    });
    stitched.stitch_epilogue = Some(EpilogueStitch {
        residual: ResidualSource::PrologueOut,
        layer_norm: true,
        affine: true,
        eps: 1e-5,
    });
    let twin = stitched.unstitched();
    let dev = DeviceSpec::a100();
    let engine = FusionEngine::builder(dev.clone())
        .cache(CachePolicy::Disabled)
        .build();
    let mut prune_stats = Vec::new();
    for chain in [&stitched, &twin] {
        let tuned = engine.tune(chain).unwrap();
        let reference = McFuser::new().tune(chain, &dev).unwrap();
        assert_eq!(tuned.candidate, reference.candidate);
        assert_eq!(tuned.profile.time, reference.profile.time);
        assert_eq!(tuned.prune_stats, reference.prune_stats);
        prune_stats.push(tuned.prune_stats);
    }
    assert_ne!(prune_stats[0], prune_stats[1], "the two spaces differ");
}

/// Layout variants of one chain are distinct tuning tasks (transposed
/// inputs change the lowered kernel).
#[test]
fn layout_variants_are_two_tuning_tasks() {
    let chain = ChainSpec::attention("s", 2, 128, 128, 32, 32);
    let engine = FusionEngine::builder(DeviceSpec::a100()).build();
    engine.tune_with_layout(&chain, &[]).unwrap();
    engine
        .tune_with_layout(&chain, &[false, true, false])
        .unwrap();
    let stats = engine.stats();
    assert_eq!(stats.cache_misses, 2, "two distinct tuning tasks");
    assert_eq!(stats.cache_hits, 0);
}

/// A tuning-cache (schedule) hit rehydrates without searching, so it
/// builds no space: the second `tune` of an identical chain is a hit
/// and only the first ran a search.
#[test]
fn schedule_hits_build_no_spaces() {
    let chain = ChainSpec::gemm_chain("g", 1, 512, 256, 64, 64);
    let engine = FusionEngine::builder(DeviceSpec::a100()).build();
    engine.tune(&chain).unwrap();
    engine.tune(&chain).unwrap();
    let stats = engine.stats();
    assert_eq!(stats.cache_hits, 1);
    assert_eq!(stats.cache_misses, 1, "a schedule hit never searches");
}

/// Tuning-cache portability: engines targeting different devices can
/// share one cache store (a fleet-wide schedule database), and the
/// device fingerprint inside [`CacheKey`] keeps their entries distinct —
/// an A100 schedule is never served to an H100 session, while re-tuning
/// on the same device is a clean hit.
#[test]
fn shared_cache_keeps_per_device_entries_distinct() {
    use std::sync::Arc;

    use mcfuser::core::{CachedTuning, MemoryCache, TuningCache};

    /// `cache_store` takes ownership, so sharing one `MemoryCache`
    /// between engines goes through this forwarding handle.
    struct Shared(Arc<MemoryCache>);
    impl TuningCache for Shared {
        fn get(&self, key: &CacheKey) -> Option<CachedTuning> {
            self.0.get(key)
        }
        fn put(&self, key: &CacheKey, entry: CachedTuning) {
            self.0.put(key, entry)
        }
        fn len(&self) -> usize {
            self.0.len()
        }
        fn evictions(&self) -> u64 {
            self.0.evictions()
        }
    }

    let store = Arc::new(MemoryCache::new());
    let chain = ChainSpec::gemm_chain("portable", 1, 256, 128, 64, 64);

    let a100 = FusionEngine::builder(DeviceSpec::a100())
        .cache_store(Box::new(Shared(store.clone())))
        .build();
    let tuned_a = a100.tune(&chain).unwrap();
    assert_eq!(a100.stats().cache_misses, 1);
    assert_eq!(store.len(), 1);

    // Same chain, same store, different device: must miss and add a
    // second entry rather than replaying the A100 schedule.
    let h100 = FusionEngine::builder(DeviceSpec::h100())
        .cache_store(Box::new(Shared(store.clone())))
        .build();
    h100.tune(&chain).unwrap();
    let h_stats = h100.stats();
    assert_eq!(h_stats.cache_hits, 0, "cross-device cache hit");
    assert_eq!(h_stats.cache_misses, 1);
    assert_eq!(store.len(), 2, "one entry per device");

    // A fresh A100 engine on the same store rehydrates without searching.
    let rewarmed = FusionEngine::builder(DeviceSpec::a100())
        .cache_store(Box::new(Shared(store.clone())))
        .build();
    let again = rewarmed.tune(&chain).unwrap();
    assert_eq!(rewarmed.stats().cache_hits, 1);
    assert_eq!(rewarmed.stats().cache_misses, 0);
    assert_eq!(again.candidate, tuned_a.candidate);
    assert_eq!(store.len(), 2);

    // Key level: the two tasks differ exactly in the device fingerprint.
    let params = SearchParams::default();
    let policy = SpacePolicy::default();
    let ka = CacheKey::new(&chain, &[], &DeviceSpec::a100(), &params, &policy);
    let kh = CacheKey::new(&chain, &[], &DeviceSpec::h100(), &params, &policy);
    assert_ne!(ka.device, kh.device);
    assert_eq!((ka.dims, ka.config), (kh.dims.clone(), kh.config.clone()));
}
