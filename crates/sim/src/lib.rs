//! # mcfuser-sim — deterministic GPU substrate
//!
//! This crate is the hardware substitute for the MCFuser reproduction: a
//! simulated NVIDIA GPU with enough microarchitectural structure that the
//! paper's experiments are meaningful without silicon.
//!
//! It provides:
//!
//! * [`DeviceSpec`] — A100 / RTX 3080 device models (SMs, shared memory,
//!   DRAM & L2 bandwidth, tensor-core throughput, launch overhead);
//! * [`TileProgram`] — the virtual-kernel IR produced by MCFuser's
//!   lowering (the analogue of Triton-generated PTX);
//! * [`exec`] — the functional interpreter that runs kernels for value,
//!   one grid row at a time, checked against CPU references and used by
//!   the serving runtime;
//! * [`gemm()`] — the host's one non-transposed GEMM kernel, shared by the
//!   interpreter and the reference lane and run on the CPU's widest
//!   vectors;
//! * [`gelu_in_place`] — the FFN epilogue's GELU on the CPU's widest
//!   vectors, bit for bit the scalar [`gelu()`] (libm's `tanh`) on every
//!   input;
//! * [`timing`] — a wave/roofline timing model that "measures" kernels,
//!   including the second-order effects (L2, tensor-core fill, double
//!   buffering, wave quantization) the paper's coarse analytical model
//!   deliberately ignores;
//! * [`stream`] — pricing of memory-bound library kernels used by the
//!   unfused baselines;
//! * [`verify`] — the static verifier: symbolic bounds, init/def-use,
//!   and inter-block race analysis over lowered programs, run as a
//!   compile-time gate before any kernel is cached, widened, or served.
//!   Its [`VerifiedProgram`] witness is the only program type the
//!   executor accepts;
//! * [`clock`] — the virtual tuning clock behind Table IV;
//! * [`noise`] — deterministic measurement jitter.
//!
//! ## Example
//!
//! ```
//! use mcfuser_sim::{DeviceSpec, DType};
//!
//! let a100 = DeviceSpec::a100();
//! // The roofline ridge point for f16 tensor-core work:
//! let ridge = a100.ridge_flops_per_byte(DType::F16);
//! assert!(ridge > 100.0);
//! ```

#![warn(missing_docs)]
// Keep every unsafe block explicit and documented.
#![deny(unsafe_op_in_unsafe_fn)]
#![deny(clippy::undocumented_unsafe_blocks)]

pub mod clock;
pub mod device;
pub mod dtype;
pub mod exec;
pub mod gelu;
pub mod gemm;
mod isa;
pub mod kernel;
pub mod noise;
pub mod report;
pub mod stream;
pub mod timing;
pub mod verify;

pub use clock::{CostProfile, TuningClock, TuningReport};
pub use device::{Arch, DeviceSpec};
pub use dtype::DType;
pub use exec::{
    execute, execute_with_arena, BufferArena, ExecBackend, ExecError, HostTensor, Interpreter,
    TensorStorage,
};
pub use gelu::{gelu, gelu_in_place};
pub use gemm::gemm;
pub use kernel::{
    ceil_div, visit_accesses, visit_accesses_mut, BlockStmt, BufId, BufferDecl, BufferRole,
    ClipMark, LoopHandle, ProgramBuilder, ProgramError, SmemDecl, SmemId, TileAccess, TileIndex,
    TileProgram, VarRef,
};
pub use report::explain;
pub use stream::{sequence_time, StreamKernel};
pub use timing::{
    hash_program, measure, measure_noisy, measure_opts, mma_efficiency, Bound, KernelProfile,
    MeasureOpts,
};
pub use verify::{
    is_scatter_onehot, mark_expected_clips, verify_program, verify_widened, Lanes, VerifiedProgram,
    VerifyError, VerifyReport,
};
