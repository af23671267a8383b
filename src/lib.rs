//! # MCFuser — high-performance and rapid fusion of memory-bound
//! compute-intensive operators
//!
//! A from-scratch Rust reproduction of *MCFuser* (Zhang, Yang, Zhou,
//! Cheng — SC 2024) on a deterministic simulated-GPU substrate. This
//! facade crate re-exports the whole workspace:
//!
//! * [`sim`] — the GPU substrate (A100/RTX 3080 models, virtual kernels,
//!   functional execution, timing, tuning clock);
//! * [`ir`] — tensor-operator graphs and the MBCI chain abstraction;
//! * [`tile`] — tiling expressions, schedule DAG, lowering;
//! * [`core`] — search space, pruning Rules 1–4, the analytical
//!   performance model (Eqs. 2–5), Algorithm 1, and the
//!   [`FusionEngine`](mcfuser_core::FusionEngine) session API;
//! * [`baselines`] — PyTorch/Relay/Ansor/BOLT/FlashAttention/Chimera;
//! * [`workloads`] — Tables II & III and BERT/ViT/Mixer graphs.
//!
//! ## Quickstart
//!
//! Everything goes through one builder-configured session:
//!
//! ```
//! use mcfuser::prelude::*;
//!
//! // A memory-bound GEMM chain: C = A×B, E = C×D (the paper's G1).
//! let chain = ChainSpec::gemm_chain("demo", 1, 256, 128, 64, 64);
//! let device = DeviceSpec::a100();
//! assert!(chain.is_memory_bound(&device));
//!
//! // One engine session: tuning, caching, compilation, execution.
//! let engine = FusionEngine::builder(device).build();
//! let tuned = engine.tune(&chain).unwrap();
//! println!(
//!     "fused schedule {} runs in {:.2} us",
//!     tuned.candidate.describe(&chain),
//!     tuned.profile.time * 1e6,
//! );
//!
//! // Tuning again is a cache hit — no new measurements.
//! let again = engine.tune(&chain).unwrap();
//! assert_eq!(again.candidate, tuned.candidate);
//! assert_eq!(engine.stats().cache_hits, 1);
//! ```
//!
//! Compiling a whole graph needs a fallback backend for the operators
//! MCFuser does not fuse (§V-B):
//!
//! ```
//! use mcfuser::baselines::Relay;
//! use mcfuser::prelude::*;
//! use mcfuser::workloads::{bert_graph, BertConfig};
//!
//! let graph = bert_graph(
//!     "bert-tiny",
//!     &BertConfig { layers: 1, hidden: 128, heads: 4, seq: 64, intermediate: 512 },
//! );
//! let engine = FusionEngine::builder(DeviceSpec::a100())
//!     .fallback(Relay::new())
//!     .parallelism(2)
//!     .build();
//! let model = engine.compile(&graph).unwrap();
//! assert!(!model.chains.is_empty() && model.total_time > 0.0);
//! ```

pub use mcfuser_baselines as baselines;
pub use mcfuser_core as core;
pub use mcfuser_ir as ir;
pub use mcfuser_sim as sim;
pub use mcfuser_tile as tile;
pub use mcfuser_workloads as workloads;

/// The most common imports in one place.
pub mod prelude {
    pub use mcfuser_baselines::{Backend, ChainRun, Unsupported};
    pub use mcfuser_core::{
        BatchPolicy, BatchedPlan, CachePolicy, CompiledModel, DecodeError, DecodeServing,
        DecodeSession, DecodeSpec, EngineBuilder, EngineStats, ExecError, ExecutablePlan,
        FusionEngine, InputSet, McFuser, ModelRuntime, Outputs, RunOptions, RuntimeStats,
        SearchParams, SpacePolicy, TuneError, TunedKernel, TuningCache,
    };
    pub use mcfuser_ir::{ChainSpec, Epilogue, Graph, GraphBuilder};
    pub use mcfuser_sim::{DType, DeviceSpec, HostTensor, TensorStorage};
    pub use mcfuser_tile::{Candidate, TilingExpr};
}
