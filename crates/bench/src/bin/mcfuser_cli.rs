//! `mcfuser_cli` — tune an arbitrary MBCI chain from the command line and
//! inspect the winning kernel, through a `FusionEngine` session.
//!
//! ```sh
//! mcfuser_cli gemm  --m 512 --n 256 --k 64 --h 64 [--batch 1] [--device a100]
//! mcfuser_cli attn  --heads 12 --seq 512 --dim 64 [--device rtx3080]
//! mcfuser_cli explain gemm --m 512 --n 256 --k 64 --h 64   # kernel report
//! mcfuser_cli gemm --m 512 ... --cache tuning.json         # persistent cache
//! ```
//!
//! With `--cache <path>`, the session reuses any schedule tuned by an
//! earlier invocation pointed at the same file (a second identical run
//! reports a cache hit and near-zero tuning cost).

use mcfuser_bench::device_by_name;
use mcfuser_core::{CachePolicy, FusionEngine};
use mcfuser_ir::ChainSpec;
use mcfuser_sim::{explain, DeviceSpec};

fn arg(flag: &str, default: u64) -> u64 {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn arg_str(flag: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let mode = args.get(1).map(String::as_str).unwrap_or("gemm");
    let (want_explain, kind) = if mode == "explain" {
        (true, args.get(2).map(String::as_str).unwrap_or("gemm"))
    } else {
        (false, mode)
    };

    let device: DeviceSpec = arg_str("--device")
        .and_then(|d| device_by_name(&d))
        .unwrap_or_else(DeviceSpec::a100);

    let chain = match kind {
        "attn" | "attention" => {
            let heads = arg("--heads", 12);
            let seq = arg("--seq", 512);
            let dim = arg("--dim", 64);
            ChainSpec::attention("cli", heads, seq, seq, dim, dim)
        }
        _ => {
            let batch = arg("--batch", 1);
            let m = arg("--m", 512);
            let n = arg("--n", 256);
            let k = arg("--k", 64);
            let h = arg("--h", 64);
            ChainSpec::gemm_chain("cli", batch, m, n, k, h)
        }
    };

    println!("chain : {chain}");
    println!(
        "MBCI  : {} (per-op intensity {:.1}/{:.1} vs ridge {:.0} FLOP/B)",
        chain.is_memory_bound(&device),
        chain.op_intensity(0),
        chain.op_intensity(chain.num_ops() - 1),
        device.ridge_flops_per_byte(chain.dtype)
    );

    let cache = match arg_str("--cache") {
        Some(path) => CachePolicy::DiskJson(path.into()),
        None => CachePolicy::InMemory,
    };
    let engine = FusionEngine::builder(device.clone()).cache(cache).build();

    match engine.tune(&chain) {
        Ok(t) => {
            let stats = engine.stats();
            println!("sched : {}", t.candidate.describe(&chain));
            println!(
                "time  : {:.2} us ({} blocks)",
                t.profile.time * 1e6,
                t.profile.blocks
            );
            println!(
                "tuning: {:.0} virtual s ({} measured / {} estimated){}",
                t.tuning.virtual_seconds,
                t.tuning.measurements,
                t.tuning.estimates,
                if stats.cache_hits > 0 {
                    " [cache hit — nothing spent this run]"
                } else {
                    ""
                }
            );
            if want_explain {
                println!("\n{}", explain(&t.kernel.program, &device));
            }
        }
        Err(e) => {
            eprintln!("tuning failed: {e}");
            std::process::exit(1);
        }
    }
}
