//! Ansor-style baseline: per-operator schedule search guided by a
//! learned (gradient-boosted-trees) cost model.
//!
//! Faithful to the mechanism the paper contrasts with (§II-B, Table I):
//!
//! * each compute operator is a *task* tuned independently — MBCI chains
//!   are never fused, compute ops are fusion boundaries;
//! * candidate schedules are tile configurations over the loop nest;
//! * a GBT model (the XGBoost stand-in) ranks candidates; every round the
//!   top-ranked ones are measured on the device, the model retrains, and
//!   *both* the measurements and the training land on the virtual tuning
//!   clock — this is where the paper's 70–139× tuning-time gap originates;
//! * memory-intensive ops are fused into single streaming kernels (what
//!   Ansor is genuinely good at).

use parking_lot::Mutex;
use rand::prelude::*;
use rustc_hash::{FxHashMap, FxHashSet};

use mcfuser_core::OpCostModel;
use mcfuser_ir::{ChainSpec, Epilogue, Graph, NodeId, Op};
use mcfuser_sim::{ceil_div, measure_noisy, CostProfile, DType, DeviceSpec, StreamKernel};
use mcfuser_tile::tile_options;

use crate::backend::{Backend, Capabilities, ChainRun, Unsupported};
use crate::gbt::{GbtModel, GbtParams};
use crate::libkernels::{fused_softmax_kernel, layernorm_kernel, matmul_program, matmul_time};

/// A tuned matmul task.
#[derive(Debug, Clone)]
pub struct TunedMatmul {
    /// Winning tile configuration.
    pub tiles: (u64, u64, u64),
    /// Measured kernel time at the winning configuration.
    pub time: f64,
    /// Virtual seconds spent tuning this task.
    pub tuning_seconds: f64,
    /// Measurements performed.
    pub trials: usize,
}

/// Feature vector of a tile configuration (the cost model inputs).
fn features(batch: u64, m: u64, n: u64, k: u64, t: (u64, u64, u64), dev: &DeviceSpec) -> Vec<f64> {
    let (tm, tn, tk) = t;
    let blocks = (batch * ceil_div(m, tm) * ceil_div(n, tn)) as f64;
    let smem = (tm * tk + tk * tn) as f64 * 2.0 + (tm * tn) as f64 * 4.0;
    let traffic = ((tm * tk + tk * tn) as f64) * ceil_div(k, tk) as f64 * blocks;
    let flops = 2.0 * (m * n * k * batch) as f64;
    vec![
        (tm as f64).ln(),
        (tn as f64).ln(),
        (tk as f64).ln(),
        blocks.ln(),
        (blocks / dev.num_sms as f64).min(4.0),
        smem.ln(),
        traffic.ln(),
        (flops / traffic.max(1.0)).ln(),
        ceil_div(k, tk) as f64,
    ]
}

/// Tune one batched-matmul task with `trials` measurements, or one per
/// distinct tile configuration when the task has fewer. No tile is
/// proposed twice, so every round of up to 64 measurements is new and
/// the model refits at most once per round.
#[allow(clippy::too_many_arguments)]
pub fn tune_matmul_task(
    batch: u64,
    m: u64,
    n: u64,
    k: u64,
    dtype: DType,
    dev: &DeviceSpec,
    trials: usize,
    seed: u64,
) -> TunedMatmul {
    let cost = CostProfile::ansor();
    let mut rng = StdRng::seed_from_u64(seed);
    let dk: Vec<u64> = tile_options(k).into_iter().filter(|&t| t <= 128).collect();
    let mut unmeasured: Vec<(u64, u64, u64)> = Vec::new();
    for &tm in &tile_options(m) {
        for &tn in &tile_options(n) {
            unmeasured.extend(dk.iter().map(|&tk| (tm, tn, tk)));
        }
    }

    let trials = trials.min(unmeasured.len());
    let mut xs: Vec<Vec<f64>> = Vec::new();
    let mut ys: Vec<f64> = Vec::new();
    let mut model: Option<GbtModel> = None;
    let mut tuning = 0.0f64;
    let mut best: Option<((u64, u64, u64), f64)> = None;

    for done in (0..trials).step_by(64) {
        let round = 64.min(trials - done);
        // Candidate proposal: model-ranked exploitation + ε exploration.
        // The model ranks a pool of up to 512 unmeasured tiles, drawn
        // without replacement into the front of `unmeasured` by a partial
        // Fisher–Yates shuffle and priced once each.
        let exploit = match &model {
            Some(mdl) => {
                let pool = 512.min(unmeasured.len());
                for i in 0..pool {
                    let j = rng.gen_range(i..unmeasured.len());
                    unmeasured.swap(i, j);
                }
                let mut ranked: Vec<(f64, (u64, u64, u64))> = unmeasured[..pool]
                    .iter()
                    .map(|&t| (mdl.predict(&features(batch, m, n, k, t, dev)), t))
                    .collect();
                ranked.sort_by(|a, b| a.0.total_cmp(&b.0));
                for (slot, (_, t)) in unmeasured.iter_mut().zip(ranked) {
                    *slot = t;
                }
                round.saturating_sub(8)
            }
            None => 0,
        };
        let mut cands: Vec<(u64, u64, u64)> = unmeasured.drain(..exploit).collect();
        while cands.len() < round {
            cands.push(unmeasured.swap_remove(rng.gen_range(0..unmeasured.len())));
        }
        for (i, t) in cands.into_iter().enumerate() {
            let p = matmul_program("task", batch, m, n, k, t, dtype, Epilogue::None);
            let smem_fits = p.smem_bytes() <= dev.smem_per_block;
            let time = if smem_fits {
                measure_noisy(&p, dev, seed ^ (done + i) as u64).time
            } else {
                f64::INFINITY
            };
            tuning += cost.compile_seconds
                + cost.measure_overhead_seconds
                + if time.is_finite() {
                    cost.measure_repeats as f64 * time
                } else {
                    0.0
                };
            if time.is_finite() {
                xs.push(features(batch, m, n, k, t, dev));
                ys.push(time.ln());
                if best.map(|(_, bt)| time < bt).unwrap_or(true) {
                    best = Some((t, time));
                }
            }
        }
        if xs.len() >= 16 {
            model = Some(GbtModel::fit(&xs, &ys, &GbtParams::default()));
            tuning += cost.train_seconds;
        }
    }

    let (tiles, time) = best.unwrap_or(((64, 64, 32), f64::INFINITY));
    TunedMatmul {
        tiles,
        time,
        tuning_seconds: tuning,
        trials,
    }
}

/// The Ansor baseline.
#[derive(Debug)]
pub struct Ansor {
    /// Total measurement trials per sub-graph (paper: 1000), split across
    /// the sub-graph's tasks.
    pub trials_per_subgraph: usize,
    /// Tuned-task cache: (batch,m,n,k,dev) → result.
    cache: Mutex<FxHashMap<String, TunedMatmul>>,
    /// Matmul tasks whose tuning [`OpCostModel::tuning_seconds`] has
    /// charged, keyed like `cache`. Kept apart from the cache because
    /// `op_time` tunes (and caches) a task before any charge is asked.
    charged: Mutex<FxHashSet<String>>,
}

impl Default for Ansor {
    fn default() -> Self {
        Ansor::with_trials(1000)
    }
}

impl Ansor {
    /// With the paper's 1000 trials per sub-graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// With a reduced budget (for fast tests).
    pub fn with_trials(trials: usize) -> Self {
        Ansor {
            trials_per_subgraph: trials,
            cache: Mutex::new(FxHashMap::default()),
            charged: Mutex::new(FxHashSet::default()),
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn tuned(
        &self,
        batch: u64,
        m: u64,
        n: u64,
        k: u64,
        dtype: DType,
        dev: &DeviceSpec,
        trials: usize,
    ) -> TunedMatmul {
        let key = format!("{batch}x{m}x{n}x{k}:{}:{}", dtype, dev.name);
        if let Some(t) = self.cache.lock().get(&key) {
            return t.clone();
        }
        let t = tune_matmul_task(batch, m, n, k, dtype, dev, trials, 0xA502);
        self.cache.lock().insert(key, t.clone());
        t
    }
}

impl Backend for Ansor {
    fn name(&self) -> &'static str {
        "Ansor"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            supports_mbci: "Yes",
            automatic: "Yes",
            search_space: "Loop transformation + loop opt.",
            objective: "ML cost model (GBT)",
            tuning_time: "Long",
        }
    }

    fn run_chain(&self, chain: &ChainSpec, dev: &DeviceSpec) -> Result<ChainRun, Unsupported> {
        let esz = chain.dtype.size_bytes();
        let n_tasks = chain.num_ops() + usize::from(chain.has_softmax());
        let trials = (self.trials_per_subgraph / n_tasks).max(1);
        let cost = CostProfile::ansor();
        let mut time = 0.0;
        let mut tuning = 0.0;
        let mut kernels = 0u32;
        let mut notes = Vec::new();
        for op in 0..chain.num_ops() {
            let (m, k, n) = (chain.m, chain.dims[op], chain.dims[op + 1]);
            let tuned = self.tuned(chain.batch, m, n, k, chain.dtype, dev, trials);
            tuning += tuned.tuning_seconds;
            // Final run benefits from hot intermediates.
            time += matmul_time(
                &format!("{}::mm{}", chain.name, op),
                chain.batch,
                m,
                n,
                k,
                tuned.tiles,
                chain.dtype,
                dev,
                op > 0,
                Epilogue::None,
            );
            kernels += 1;
            notes.push(format!("mm{op}:{:?}", tuned.tiles));
            match chain.epilogues[op] {
                Epilogue::None => {}
                Epilogue::Relu | Epilogue::Gelu | Epilogue::Scale(_) => {
                    // Ansor fuses element-wise epilogues (and bias adds)
                    // into the GEMM.
                }
                Epilogue::Softmax { .. } | Epilogue::MaskedSoftmax { .. } => {
                    let kern = fused_softmax_kernel(chain.batch * m, n, esz, true);
                    time += kern.time(dev);
                    kernels += 1;
                    // The softmax task is tuned too (cheap measurements).
                    tuning += trials as f64
                        * (cost.compile_seconds
                            + cost.measure_overhead_seconds
                            + cost.measure_repeats as f64 * kern.time(dev));
                }
            }
        }
        Ok(ChainRun {
            time,
            tuning_seconds: tuning,
            kernels,
            fused: false,
            note: notes.join(","),
        })
    }
}

impl OpCostModel for Ansor {
    fn name(&self) -> &str {
        "Ansor"
    }

    fn op_time(&self, graph: &Graph, node: NodeId, dev: &DeviceSpec) -> f64 {
        let n = graph.node(node);
        let esz = graph.dtype.size_bytes();
        match &n.op {
            Op::Input | Op::Weight | Op::Reshape => 0.0,
            Op::Linear | Op::BatchMatMul { .. } => {
                let x = graph.node(n.inputs[0]);
                let k = *x.shape.last().unwrap();
                let out_cols = *n.shape.last().unwrap();
                let rows: u64 = n.shape.iter().product::<u64>() / out_cols;
                let tuned = self.tuned(
                    1,
                    rows,
                    out_cols,
                    k,
                    graph.dtype,
                    dev,
                    self.trials_per_subgraph,
                );
                matmul_time(
                    &n.name,
                    1,
                    rows,
                    out_cols,
                    k,
                    tuned.tiles,
                    graph.dtype,
                    dev,
                    true,
                    Epilogue::None,
                )
            }
            Op::Softmax { .. } => {
                let cols = *n.shape.last().unwrap();
                let rows: u64 = n.shape.iter().product::<u64>() / cols;
                fused_softmax_kernel(rows, cols, esz, true).time(dev)
            }
            Op::LayerNorm => {
                let cols = *n.shape.last().unwrap();
                let rows: u64 = n.shape.iter().product::<u64>() / cols;
                layernorm_kernel(rows, cols, esz, true).time(dev)
            }
            Op::Relu | Op::Gelu | Op::Scale(_) | Op::Add => {
                // Fused into producers by Ansor's memory-op fusion.
                let elems: u64 = n.shape.iter().product();
                // Adds with two live producers still stream once.
                if matches!(n.op, Op::Add) {
                    StreamKernel::elementwise(&n.name, elems, esz)
                        .with_l2_hot()
                        .time(dev)
                        * 0.5
                } else {
                    0.0
                }
            }
            Op::SplitHeads { .. } | Op::MergeHeads | Op::RepeatKv { .. } => {
                // Real data-movement permute: one stream pass, no fold.
                let elems: u64 = n.shape.iter().product();
                StreamKernel::elementwise(&n.name, elems, esz).time(dev)
            }
        }
    }

    fn op_time_standalone(&self, graph: &Graph, node: NodeId, dev: &DeviceSpec) -> f64 {
        let n = graph.node(node);
        // Ansor's memory-op fusion needs a standalone producer stage to
        // inline into; a chain-fused producer leaves a full stream pass.
        if matches!(n.op, Op::Relu | Op::Gelu | Op::Scale(_) | Op::Add) {
            let elems: u64 = n.shape.iter().product();
            return StreamKernel::elementwise(&n.name, elems, graph.dtype.size_bytes())
                .with_l2_hot()
                .time(dev);
        }
        self.op_time(graph, node, dev)
    }

    fn tuning_seconds(&self, graph: &Graph, nodes: &[NodeId], dev: &DeviceSpec) -> f64 {
        // Charge every distinct compute task once per instance, the first
        // time it is asked for, however `op_time` tuned it before; plus a
        // per-memory-task measurement budget on every call.
        let cost = CostProfile::ansor();
        let mut total = 0.0;
        let mut seen: FxHashSet<String> = FxHashSet::default();
        for &id in nodes {
            let n = graph.node(id);
            match &n.op {
                Op::Linear | Op::BatchMatMul { .. } => {
                    let x = graph.node(n.inputs[0]);
                    let k = *x.shape.last().unwrap();
                    let out_cols = *n.shape.last().unwrap();
                    let rows: u64 = n.shape.iter().product::<u64>() / out_cols;
                    let key = format!("1x{rows}x{out_cols}x{k}:{}:{}", graph.dtype, dev.name);
                    if self.charged.lock().insert(key) {
                        let tuned = self.tuned(
                            1,
                            rows,
                            out_cols,
                            k,
                            graph.dtype,
                            dev,
                            self.trials_per_subgraph,
                        );
                        total += tuned.tuning_seconds;
                    }
                }
                Op::Softmax { .. } | Op::LayerNorm => {
                    let key = format!(
                        "{}:{:?}",
                        n.name.split('.').next_back().unwrap_or(""),
                        n.shape
                    );
                    if seen.insert(key) {
                        let t = self.op_time(graph, id, dev);
                        total += (self.trials_per_subgraph / 4) as f64
                            * (cost.compile_seconds
                                + cost.measure_overhead_seconds
                                + cost.measure_repeats as f64 * t);
                    }
                }
                _ => {}
            }
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tuned_matmul_beats_random_tiles_usually() {
        let dev = DeviceSpec::a100();
        let tuned = tune_matmul_task(1, 512, 512, 128, DType::F16, &dev, 120, 7);
        // Compare against a deliberately poor configuration.
        let bad = matmul_time(
            "bad",
            1,
            512,
            512,
            128,
            (16, 16, 16),
            DType::F16,
            &dev,
            false,
            Epilogue::None,
        );
        assert!(tuned.time < bad, "tuned {} vs bad {}", tuned.time, bad);
        assert!(tuned.tuning_seconds > 100.0, "{}", tuned.tuning_seconds);
    }

    #[test]
    fn budget_past_the_distinct_tiles_returns() {
        // (1, 128, 128) has 1 × 8 × 8 = 64 distinct tiles. Tuning runs on
        // its own thread so a regression fails here instead of hanging.
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let dev = DeviceSpec::a100();
            tx.send(tune_matmul_task(1, 1, 128, 128, DType::F16, &dev, 1000, 7))
                .expect("receiver waits");
        });
        let tuned = rx
            .recv_timeout(std::time::Duration::from_secs(60))
            .expect("tuning a 64-tile task with 1000 trials must return");
        assert_eq!(tuned.trials, 64);
        assert!(tuned.time.is_finite());
    }

    #[test]
    fn refits_at_most_once_per_round_of_64() {
        // 32 × 32 × 4 = 4,096 distinct tiles, so all 1000 trials run. The
        // charge is compile + overhead per trial, 100 repeats of each
        // measured time (under one refit's worth in total) and one
        // training charge per refit.
        let dev = DeviceSpec::a100();
        let tuned = tune_matmul_task(1, 512, 512, 64, DType::F16, &dev, 1000, 0xA502);
        assert_eq!(tuned.trials, 1000);
        let cost = CostProfile::ansor();
        let per_trial = cost.compile_seconds + cost.measure_overhead_seconds;
        let refits = ((tuned.tuning_seconds - 1000.0 * per_trial) / cost.train_seconds).floor();
        assert!(refits <= 16.0, "{refits} refits for 1000 trials");
    }

    #[test]
    fn tuning_charges_every_matmul_task_op_time_tuned_first() {
        // Pricing a graph calls `op_time` on every node before asking
        // for the tuning charge, and `op_time` tunes and caches each
        // matmul task. The charge must still include every distinct
        // task once, and only once per instance.
        let mut b = mcfuser_ir::GraphBuilder::new("mlp", DType::F16);
        let x = b.input("x", vec![128, 64]);
        let h = b.linear("fc1", x, 128, false);
        let y = b.linear("fc2", h, 64, false);
        let z = b.linear("fc3", y, 128, false);
        let g = b.finish(vec![z]);
        let nodes: Vec<NodeId> = (0..g.nodes.len())
            .map(NodeId)
            .filter(|&n| matches!(g.node(n).op, Op::Linear))
            .collect();
        let dev = DeviceSpec::a100();
        let ansor = Ansor::with_trials(40);
        for &n in &nodes {
            ansor.op_time(&g, n, &dev);
        }
        // fc1 and fc3 are the same 128 × 128 × 64 task; fc2 is 128 × 64 × 128.
        let expect = tune_matmul_task(1, 128, 128, 64, DType::F16, &dev, 40, 0xA502).tuning_seconds
            + tune_matmul_task(1, 128, 64, 128, DType::F16, &dev, 40, 0xA502).tuning_seconds;
        assert_eq!(ansor.tuning_seconds(&g, &nodes, &dev), expect);
        assert_eq!(ansor.tuning_seconds(&g, &nodes, &dev), 0.0);
    }

    #[test]
    fn chain_is_unfused_two_kernels() {
        let chain = ChainSpec::gemm_chain("g", 1, 512, 256, 64, 64);
        let ansor = Ansor::with_trials(60);
        let run = ansor.run_chain(&chain, &DeviceSpec::a100()).unwrap();
        assert_eq!(run.kernels, 2);
        assert!(!run.fused);
        assert!(run.tuning_seconds > 50.0);
    }

    #[test]
    fn cache_avoids_retuning() {
        let chain = ChainSpec::gemm_chain("g", 1, 512, 256, 64, 64);
        let ansor = Ansor::with_trials(40);
        let dev = DeviceSpec::a100();
        let r1 = ansor.run_chain(&chain, &dev).unwrap();
        let r2 = ansor.run_chain(&chain, &dev).unwrap();
        assert_eq!(r1.time, r2.time);
    }

    #[test]
    fn attention_includes_softmax_kernel() {
        let chain = ChainSpec::attention("s", 4, 256, 256, 64, 64);
        let ansor = Ansor::with_trials(45);
        let run = ansor.run_chain(&chain, &DeviceSpec::a100()).unwrap();
        assert_eq!(run.kernels, 3);
    }

    #[test]
    fn tuning_dwarfs_mcfuser_budget() {
        // Even a tiny 100-trial Ansor burn exceeds MCFuser's whole budget.
        let dev = DeviceSpec::a100();
        let tuned = tune_matmul_task(1, 512, 256, 64, DType::F16, &dev, 100, 1);
        assert!(tuned.tuning_seconds > 200.0, "{}", tuned.tuning_seconds);
    }
}
