//! # mcfuser-tile — the tiling-expression schedule language
//!
//! The middle layer of the MCFuser reproduction: everything between the
//! chain IR and the virtual kernels the simulator runs.
//!
//! * [`loops`] — cross-tile axes, roles (output-spatial / intermediate /
//!   reduction), and the multiples-of-16 tile-size domains of §III-A;
//! * [`expr`] — tiling expressions: deep (loop permutations) and flat
//!   (sequential scopes) arrangements, with printer/parser and exhaustive
//!   enumeration (the paper's 24 + 2 structures for a 2-GEMM chain);
//! * [`stmt`] — Load/Compute/Store primitives with related-axis analysis;
//! * [`candidate`] — expression + tile sizes, Rule-1 grid binding and the
//!   per-block sub-expression;
//! * [`dag`] — the schedule DAG (scope / order edges), dead-loop
//!   elimination, rightmost-related-loop statement placement and
//!   accumulator-instance analysis (§III-B, Figs. 4–6);
//! * [`shmem`] — Eq. 1 shared-memory estimation (the paper's Rule 4);
//! * [`lower`](mod@lower) — lowering to [`mcfuser_sim::TileProgram`]
//!   with the intra-tile policies the real system delegates to Triton.

#![warn(missing_docs)]

pub mod candidate;
pub mod dag;
pub mod expr;
pub mod loops;
pub mod lower;
pub mod shmem;
pub mod stmt;

pub use candidate::{dead_axes_for_tiles, num_blocks_for_tiles, trips_for_tiles, Candidate};
pub use dag::{
    accumulator_instances, dag_view, place, place_into, render_tree, DagView, Placement,
    PlacementError, ScheduleItem, ScheduleTree, Scope,
};
pub use expr::{enumerate_all, enumerate_deep, enumerate_flat, TilingExpr};
pub use loops::{
    axes_of, axis_role, block_axes, grid_axes, tile_option_count, tile_options, AxisInfo, AxisRole,
    LoopId,
};
pub use lower::{
    lower, lower_within, smem_footprint, Launch, LoweredKernel, LoweringError, LoweringOptions,
    SmemFootprint,
};
pub use shmem::{
    chain_tensors, estimate_shmem_bytes, estimate_shmem_bytes_for_tiles, rule4_fits, RULE4_MARGIN,
};
pub use stmt::{
    all_statements, compute_column_axis, compute_output, compute_reduction_axis, order_deps,
    related_axes, tensor_axes, tile_shape, Stmt, TensorRef,
};
