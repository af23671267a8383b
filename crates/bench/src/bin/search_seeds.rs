//! Algorithm 1 over six search seeds: how much of a search result is the
//! search, and how much the draw.
//!
//! The search seed alone moves every search number, and every other
//! paper binary reads one seed (the default, 0x5EED). This one runs each
//! of six seeds through `SearchParams::seed` and prints, per row, the
//! median and the range over the six:
//!
//! * the 37 distinct graphs of the benchmark's `compile` workload (GPT
//!   prefill and decode step, Mixer, ViT, the three BERTs and a 3-layer
//!   MLP), compiled on the A100 with the Relay fallback: virtual µs and
//!   tuning seconds per graph, per family;
//! * Fig. 8: MCFuser's geomean speedup over PyTorch, per suite and
//!   device;
//! * Table IV: MCFuser's tuning seconds per chain, per suite, on the
//!   A100.
//!
//! It takes no arguments and reads no wall clock, so its stdout is pinned
//! in `results/paper/search_seeds.txt`. A change that moves the search
//! shows its effect over seeds as the diff of that file.

use mcfuser_baselines::{Backend, McFuserBackend, PyTorch, Relay};
use mcfuser_bench::{geomean, TextTable};
use mcfuser_core::{FusionEngine, SearchParams};
use mcfuser_ir::{ChainSpec, Graph, GraphBuilder};
use mcfuser_sim::{DType, DeviceSpec};
use mcfuser_workloads::{
    attention_suite, bert_base, bert_large, bert_small, decoder_forward_graph, decoder_step_graph,
    gemm_chain_suite, mixer_block, vit_block, DecoderConfig,
};

/// The shipped default first, then five more.
const SEEDS: [u64; 6] = [0x5EED, 1, 2, 3, 4, 5];

/// A skinny 3-layer MLP (`m × h → h → h → h`, biased, GELU between), as
/// the `compile` workload builds it.
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

/// Every distinct graph of the `compile` workload, by family.
fn compile_families() -> Vec<(&'static str, Vec<Graph>)> {
    let gpt = [
        (DecoderConfig::gpt_mini(), 64u64),
        (DecoderConfig::gpt_mini(), 128),
        (DecoderConfig::gpt_mini_gqa(), 64),
        (DecoderConfig::gpt_mini_gqa(), 128),
    ];
    vec![
        (
            "gpt-prefill",
            gpt.iter()
                .map(|(cfg, t)| decoder_forward_graph("gpt-mini", cfg, *t))
                .collect(),
        ),
        (
            "gpt-step",
            gpt.iter()
                .map(|(cfg, t)| decoder_step_graph("gpt-mini", cfg, *t))
                .collect(),
        ),
        (
            "mixer",
            vec![
                mixer_block(64, 128, 256, 512),
                mixer_block(196, 256, 512, 1024),
            ],
        ),
        ("vit", vec![vit_block(64, 128, 4), vit_block(196, 256, 8)]),
        (
            "bert-small",
            [64, 96, 128, 160, 192, 256].map(bert_small).to_vec(),
        ),
        ("bert-large", [96, 160, 192, 256].map(bert_large).to_vec()),
        ("bert-base", [64, 128, 160].map(bert_base).to_vec()),
        (
            "mlp3",
            [32, 64, 96, 128]
                .iter()
                .flat_map(|&m| [768, 1024, 1280].map(|h| mlp3(m, h)))
                .collect(),
        ),
    ]
}

/// Median, minimum and maximum.
fn spread(xs: &[f64]) -> (f64, f64, f64) {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let median = if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    };
    (median, v[0], v[n - 1])
}

/// `median [min, max]` at `prec` decimals.
fn cell(xs: &[f64], prec: usize) -> String {
    let (med, lo, hi) = spread(xs);
    format!("{med:.prec$} [{lo:.prec$}, {hi:.prec$}]")
}

fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}

fn main() {
    let params: Vec<SearchParams> = SEEDS
        .iter()
        .map(|&seed| SearchParams {
            seed,
            ..SearchParams::default()
        })
        .collect();
    let names: Vec<String> = SEEDS.iter().map(|s| format!("{s:#x}")).collect();
    println!(
        "Search seeds {}: median [min, max] over the {}\n",
        names.join(", "),
        SEEDS.len()
    );

    // The compile workload: per family and seed, the mean over the
    // family's graphs of virtual µs and tuning seconds per graph.
    let dev = DeviceSpec::a100();
    let families = compile_families();
    let mut t = TextTable::new(&["family", "graphs", "virtual us", "tuning s"]);
    // Per seed, every graph's virtual µs and tuning seconds.
    let mut all: Vec<(Vec<f64>, Vec<f64>)> = vec![(Vec::new(), Vec::new()); params.len()];
    for (family, graphs) in &families {
        let (mut us, mut tuning) = (Vec::new(), Vec::new());
        for (p, graphs_of_seed) in params.iter().zip(&mut all) {
            let (mut us_s, mut tuning_s) = (Vec::new(), Vec::new());
            for graph in graphs {
                let model = FusionEngine::builder(dev.clone())
                    .fallback(Relay::new())
                    .search_params(p.clone())
                    .parallelism(0)
                    .build()
                    .compile(graph)
                    .unwrap_or_else(|e| panic!("{family} {}: {e}", graph.name));
                us_s.push(model.total_time * 1e6);
                tuning_s.push(model.tuning_seconds);
            }
            us.push(mean(&us_s));
            tuning.push(mean(&tuning_s));
            graphs_of_seed.0.extend(us_s);
            graphs_of_seed.1.extend(tuning_s);
        }
        t.row(vec![
            family.to_string(),
            graphs.len().to_string(),
            cell(&us, 2),
            cell(&tuning, 2),
        ]);
    }
    let us: Vec<f64> = all.iter().map(|(us, _)| mean(us)).collect();
    let tuning: Vec<f64> = all.iter().map(|(_, s)| mean(s)).collect();
    t.row(vec![
        "all".into(),
        all[0].0.len().to_string(),
        cell(&us, 2),
        cell(&tuning, 2),
    ]);
    println!(
        "Compile workload graphs on {} (Relay fallback), per graph\n",
        dev.name
    );
    println!("{}", t.render());

    // Fig. 8 and Table IV: one backend per seed, as those binaries use
    // one. Table IV's MCFuser column is the A100 runs' tuning seconds.
    let suites: [(&str, Vec<ChainSpec>); 2] = [
        ("gemm", gemm_chain_suite()),
        ("attention", attention_suite()),
    ];
    let backends: Vec<McFuserBackend> = params
        .iter()
        .map(|p| McFuserBackend::with_params(p.clone()))
        .collect();
    let mut fig8 = TextTable::new(&["device", "suite", "MCFuser speedup"]);
    let mut table4 = TextTable::new(&["suite", "chains", "MCFuser tuning s"]);
    for (dev, with_table4) in [(DeviceSpec::a100(), true), (DeviceSpec::rtx3080(), false)] {
        for (suite, chains) in &suites {
            let (mut speedups, mut tuning) = (Vec::new(), Vec::new());
            for backend in &backends {
                let (mut sp, mut tu) = (Vec::new(), Vec::new());
                for chain in chains {
                    let base = PyTorch.run_chain(chain, &dev).expect("pytorch always runs");
                    let run = backend
                        .run_chain(chain, &dev)
                        .unwrap_or_else(|e| panic!("{}: {}", chain.name, e.reason));
                    sp.push(base.time / run.time);
                    tu.push(run.tuning_seconds);
                }
                speedups.push(geomean(&sp));
                tuning.push(mean(&tu));
            }
            fig8.row(vec![
                dev.name.clone(),
                suite.to_string(),
                cell(&speedups, 3),
            ]);
            if with_table4 {
                table4.row(vec![
                    suite.to_string(),
                    chains.len().to_string(),
                    cell(&tuning, 2),
                ]);
            }
        }
    }
    println!("Fig. 8, MCFuser geomean speedup over PyTorch\n");
    println!("{}", fig8.render());
    println!("Table IV, MCFuser tuning s per chain on A100\n");
    print!("{}", table4.render());
}
