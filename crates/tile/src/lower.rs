//! Lowering: schedule candidate → executable [`TileProgram`].
//!
//! This is the reproduction's stand-in for the paper's TIR → TritonIR →
//! PTX pipeline (§V-A). MCFuser is an *inter-tile* optimizer; intra-tile
//! policies (double buffering, bank-conflict padding, accumulator
//! precision) are applied here deterministically, playing the role of
//! Triton's automatic intra-tile optimizations. The difference between
//! Eq. 1's coarse estimate and what this module actually allocates is the
//! scatter of the paper's Fig. 10.
//!
//! Lowering is a legality step followed by emission. The legality step
//! enforces the conditions the search space is pruned by, cheapest
//! first. Two need no placement and run before it:
//!
//! * a softmax epilogue requires completed score tiles and a streaming
//!   (online) update for the downstream accumulator, so it may only
//!   precede the final block;
//! * a stitched prologue or tail must be honourable: no streaming
//!   softmax beside it, an affine prologue LayerNorm, a tail LayerNorm's
//!   whole row in one tile (`t_{d_L} == d_L`), and a `PrologueOut`
//!   residual only with a prologue and `d_0 == d_L`.
//!
//! Then the statements are placed, and two checks read the result:
//!
//! * accumulators must need exactly one shared-memory tile instance;
//! * consumers may not sit inside their producer's reduction loop
//!   (partial-tile consumption — the Fig. 6(b) shapes Rule 2 removes).
//!
//! [`SmemFootprint`] is the shared memory emission will allocate, one
//! copy of every tile, compiled once per chain into product terms and
//! evaluated from the tile sizes alone. Rule 4 prunes the search space
//! with it (`mcfuser-core`'s default policy), emission uses it as the
//! base of its double-buffering decision, and [`lower_within`] uses it
//! to refuse a kernel that cannot launch without emitting it — which
//! only happens to a candidate from a space pruned some other way.

use mcfuser_ir::{AuxInput, ChainSpec, Epilogue, ResidualSource};
use mcfuser_sim::{
    BlockStmt, BufferRole, DType, LoopHandle, ProgramBuilder, SmemId, TileAccess, TileIndex,
    TileProgram, VarRef,
};

use crate::candidate::Candidate;
use crate::dag::{accumulator_instances, place, Placement, PlacementError, ScheduleItem, Scope};
use crate::loops::LoopId;
use crate::stmt::{compute_reduction_axis, tensor_axes, Stmt, TensorRef};

/// Why a candidate cannot be lowered.
#[derive(Debug, Clone, PartialEq)]
pub enum LoweringError {
    /// Statement placement failed.
    Placement(PlacementError),
    /// Compute block `op` would consume a partially accumulated producer
    /// tile (it is nested inside the producer's reduction loop).
    PartialConsumption {
        /// The consuming compute block.
        op: usize,
    },
    /// An accumulator needs more than one shared-memory tile instance
    /// (the configuration Rule 2 prunes).
    MultiTileAccumulator {
        /// The producing compute block.
        op: usize,
        /// Required tile instances.
        instances: u64,
    },
    /// Softmax epilogue in an unsupported position (only the final
    /// producer→consumer hop supports streaming softmax).
    SoftmaxUnsupported(String),
    /// A prologue/epilogue stitch cannot be honoured by this candidate
    /// (e.g. a tail LayerNorm whose tile does not span the full row).
    /// The tuner skips such candidates; the chain's unstitched twin
    /// remains available as a fallback.
    StitchUnsupported(String),
}

impl std::fmt::Display for LoweringError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoweringError::Placement(e) => write!(f, "placement: {e}"),
            LoweringError::PartialConsumption { op } => {
                write!(f, "compute block {op} consumes a partial accumulator tile")
            }
            LoweringError::MultiTileAccumulator { op, instances } => {
                write!(
                    f,
                    "accumulator of block {op} needs {instances} tile instances"
                )
            }
            LoweringError::SoftmaxUnsupported(m) => write!(f, "softmax: {m}"),
            LoweringError::StitchUnsupported(m) => write!(f, "stitch: {m}"),
        }
    }
}

impl std::error::Error for LoweringError {}

impl From<PlacementError> for LoweringError {
    fn from(e: PlacementError) -> Self {
        LoweringError::Placement(e)
    }
}

/// Intra-tile policy knobs (the "Triton" side of the split).
#[derive(Debug, Clone)]
pub struct LoweringOptions {
    /// Shared-memory budget for enabling double buffering on load tiles.
    /// When doubling every load tile still fits this budget, loads are
    /// double buffered (load/compute overlap). `None` disables.
    pub double_buffer_budget: Option<u64>,
    /// Pad tile rows to dodge shared-memory bank conflicts when the row
    /// stride is a multiple of this many bytes (0 disables padding).
    pub bank_conflict_stride: u64,
    /// Apply the §III-B extent-1 dead-loop elimination before placement.
    /// MCFuser enables this; the Chimera baseline — which only hoists to
    /// the rightmost related loop — disables it and pays the redundant
    /// traffic of Fig. 5(a).
    pub dead_loop_elimination: bool,
}

impl Default for LoweringOptions {
    fn default() -> Self {
        LoweringOptions {
            double_buffer_budget: None,
            bank_conflict_stride: 128,
            dead_loop_elimination: true,
        }
    }
}

impl LoweringOptions {
    /// Policy for a concrete device: budget = the device's per-block
    /// shared-memory limit.
    pub fn for_device(dev: &mcfuser_sim::DeviceSpec) -> Self {
        LoweringOptions {
            double_buffer_budget: Some(dev.smem_per_block),
            ..Default::default()
        }
    }

    /// Chimera-style lowering: no dead-loop elimination.
    pub fn without_dead_loop_elimination(mut self) -> Self {
        self.dead_loop_elimination = false;
        self
    }
}

/// A lowered fused kernel.
#[derive(Debug, Clone)]
pub struct LoweredKernel {
    /// The executable/measurable virtual kernel.
    pub program: TileProgram,
    /// Whether load tiles were double buffered.
    pub double_buffered: bool,
    /// Physical shared-memory bytes per block.
    pub smem_bytes: u64,
}

/// Lower a candidate schedule of a chain into a tile program.
pub fn lower(
    chain: &ChainSpec,
    cand: &Candidate,
    opts: &LoweringOptions,
) -> Result<LoweredKernel, LoweringError> {
    let placement = legal_placement(chain, cand, opts)?;
    Ok(emit(chain, cand, opts, &placement))
}

/// What [`lower_within`] produced for a legal candidate.
#[derive(Debug, Clone)]
pub enum Launch {
    /// The kernel fits the limit: exactly what [`lower`] returns.
    Ready(LoweredKernel),
    /// The kernel would need more shared memory per block than the
    /// limit, so it was never emitted.
    Refused {
        /// Shared memory the kernel needs per block: exactly the
        /// `smem_bytes` [`lower`] reports whenever the double-buffer
        /// budget is within the limit, as under
        /// [`LoweringOptions::for_device`].
        smem_bytes: u64,
    },
}

/// [`lower`] for a launch with `smem_limit` bytes of shared memory per
/// block: a legal candidate whose kernel would exceed the limit is
/// refused without emitting it.
///
/// The refusal is exact. Single-copy tiles ([`smem_footprint`]) are the
/// least lowering allocates, so a footprint over the limit is refused
/// before emission. Lowering doubles the load tiles only when the
/// doubled total fits `double_buffer_budget`, so under
/// [`LoweringOptions::for_device`] (budget = `smem_per_block`) a
/// footprint within the limit always launches; with a larger budget the
/// emitted kernel is checked as well.
pub fn lower_within(
    chain: &ChainSpec,
    cand: &Candidate,
    opts: &LoweringOptions,
    smem_limit: u64,
) -> Result<Launch, LoweringError> {
    let placement = legal_placement(chain, cand, opts)?;
    let footprint = smem_footprint(chain, &cand.tiles, opts);
    if footprint > smem_limit {
        return Ok(Launch::Refused {
            smem_bytes: footprint,
        });
    }
    let kernel = emit(chain, cand, opts, &placement);
    Ok(if kernel.smem_bytes > smem_limit {
        Launch::Refused {
            smem_bytes: kernel.smem_bytes,
        }
    } else {
        Launch::Ready(kernel)
    })
}

/// The legality step of lowering: the checks that need no placement
/// first (softmax position, every stitch check), then the placement and
/// the two checks that read it or the loop nest (accumulator instances,
/// partial consumption). Returns the placement emission walks.
fn legal_placement(
    chain: &ChainSpec,
    cand: &Candidate,
    opts: &LoweringOptions,
) -> Result<Placement, LoweringError> {
    let num_ops = chain.num_ops();
    for (i, e) in chain.epilogues.iter().enumerate() {
        if e.is_rowwise() && i + 2 != num_ops + 1 {
            // softmax between op i and op i+1 requires op i+1 to be final.
            if i + 1 != num_ops - 1 {
                return Err(LoweringError::SoftmaxUnsupported(format!(
                    "softmax after block {i} is not followed by the final block"
                )));
            }
        }
    }
    // Stitched prologue/epilogue legality. The partitioner only attaches
    // stitches to softmax-free chains with an affine prologue LayerNorm
    // (zero-padded gamma/beta strips keep out-of-range columns exactly 0);
    // a tail LayerNorm additionally needs its whole row in one tile.
    let pro = chain.prologue;
    let tail = chain.stitch_epilogue;
    let last_axis = LoopId(chain.num_axes() - 1);
    if (pro.is_some() || tail.is_some()) && chain.has_softmax() {
        return Err(LoweringError::StitchUnsupported(
            "stitches cannot share a kernel with a streaming softmax".into(),
        ));
    }
    if let Some(p) = pro {
        if !p.affine {
            return Err(LoweringError::StitchUnsupported(
                "prologue LayerNorm must be affine".into(),
            ));
        }
    }
    if let Some(t) = tail {
        let d_last = *chain.dims.last().expect("chain has dims");
        if t.layer_norm && cand.tile(last_axis) != d_last {
            return Err(LoweringError::StitchUnsupported(format!(
                "tail LayerNorm needs the full row in one tile (t={} < d_L={})",
                cand.tile(last_axis),
                d_last
            )));
        }
        if t.residual == ResidualSource::PrologueOut
            && (pro.is_none() || chain.dims.first() != chain.dims.last())
        {
            return Err(LoweringError::StitchUnsupported(
                "PrologueOut residual needs a prologue with d_0 == d_L".into(),
            ));
        }
    }

    let placement = if opts.dead_loop_elimination {
        place(chain, cand)?
    } else {
        crate::dag::place_into(chain, cand, &cand.block_expr(chain))?
    };
    for op in 0..num_ops {
        let inst = accumulator_instances(chain, cand, op);
        if inst > 1 {
            return Err(LoweringError::MultiTileAccumulator {
                op,
                instances: inst,
            });
        }
    }
    for op in 1..num_ops {
        // Consumer placed inside producer's reduction loop?
        let red = compute_reduction_axis(chain, op - 1);
        let path = &placement
            .paths
            .iter()
            .find(|(s, _)| *s == Stmt::Compute(op))
            .expect("compute placed")
            .1;
        if path.contains(&red) {
            return Err(LoweringError::PartialConsumption { op });
        }
    }
    Ok(placement)
}

/// A tail LayerNorm pins the last axis to the full row, which would
/// force the final weight tile to hold a whole `t_k × d_L` panel. That
/// panel streams in column chunks instead: only one `t_k × chunk` slice
/// is resident, and each slice fills its accumulator columns. Returns
/// `(chunk, n_chunks)` when the panel is chunked.
fn tail_chunk(chain: &ChainSpec) -> Option<(u64, u64)> {
    chain
        .stitch_epilogue
        .filter(|t| t.layer_norm)
        .and_then(|_| {
            let d_l = *chain.dims.last().expect("chain has dims");
            let chunk = crate::shmem::tail_panel_chunk(d_l);
            (chunk < d_l).then_some((chunk, d_l / chunk))
        })
}

/// Bank-conflict padding of a tile row of `cols` chain-precision
/// elements: 8 extra columns when the row stride is a multiple of
/// [`LoweringOptions::bank_conflict_stride`], which is when `cols` is a
/// multiple of `period` ([`pad_period`]; 0 never pads).
fn bank_pad(period: u64, cols: u64) -> u64 {
    let pads = match period {
        0 => false,
        // The usual strides and element sizes give a power-of-two
        // period, tested without a division.
        p if p.is_power_of_two() => cols & (p - 1) == 0,
        p => cols.is_multiple_of(p),
    };
    if pads {
        8
    } else {
        0
    }
}

/// The period of [`bank_pad`]: `cols × esz` bytes is a multiple of
/// `stride` exactly when `cols` is a multiple of
/// `stride / gcd(stride, esz)`. 0 when padding is off (`stride == 0`).
fn pad_period(stride: u64, esz: DType) -> u64 {
    let (mut x, mut y) = (stride, esz.size_bytes());
    while y != 0 {
        (x, y) = (y, x % y);
    }
    if stride == 0 {
        0
    } else {
        stride / x
    }
}

/// One tile factor of a [`SmemFootprint`] term.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Factor {
    /// 1: the term has a single tile factor.
    One,
    /// The tile of an axis.
    Tile(usize),
    /// The tile of an axis plus its bank-conflict padding (a load
    /// tile's row).
    Padded(usize),
}

/// One product term of a [`SmemFootprint`]: `bytes × a × b`.
#[derive(Debug, Clone, Copy)]
struct Term {
    bytes: u64,
    /// `factors[0]` is `Tile(0)` whenever axis 0 enters the term.
    factors: [Factor; 2],
}

/// The shared memory lowering allocates for a chain's candidates, one
/// copy of every tile, compiled once per chain into product terms:
/// bank-padded load tiles (streamed panels take none), f32
/// accumulators, softmax row statistics, bias strips and mask tiles,
/// and the prologue and stitch tiles. For every tile vector it equals
/// the `smem_bytes` of the kernel [`lower`] emits without double
/// buffering; it depends on the tile sizes alone, not on the
/// expression.
///
/// Axis 0's tile `t_0` enters each term at most once, unpadded, with a
/// non-negative coefficient, so over one row of a tile grid (the tiles
/// of axes `1..` fixed) the footprint is `α·t_0 + β`
/// ([`SmemFootprint::row`]) and never decreases along axis 0.
#[derive(Debug, Clone)]
pub struct SmemFootprint {
    terms: Vec<Term>,
    /// The [`bank_pad`] period of the chain's precision.
    pad_period: u64,
}

impl SmemFootprint {
    /// Compile the footprint of `chain`'s kernels under `opts` (only the
    /// bank-conflict stride matters).
    pub fn new(chain: &ChainSpec, opts: &LoweringOptions) -> SmemFootprint {
        let num_ops = chain.num_ops();
        let esz = chain.dtype;
        let (eb, fb) = (esz.size_bytes(), DType::F32.size_bytes());
        let tm = Factor::Tile(0);
        let tk = Factor::Tile(1);
        let tn = Factor::Tile(chain.num_axes() - 1);
        let tail_streamed = tail_chunk(chain).is_some();
        let mut terms = Vec::with_capacity(4 * num_ops + 6);
        let mut term = |bytes: u64, a: Factor, b: Factor| {
            terms.push(Term {
                bytes,
                factors: [a, b],
            })
        };
        // Load tiles. Panels behind `A` stream when `m == 1`, and so does
        // a chunked tail panel; a stitched prologue stages A raw in f32.
        for i in 0..=num_ops {
            if (i > 0 && chain.m == 1) || (i == num_ops && tail_streamed) {
                continue;
            }
            let [r, c] = tensor_axes(chain, TensorRef::Input(i));
            let dt = if i == 0 && chain.prologue.is_some() {
                fb
            } else {
                eb
            };
            term(dt, Factor::Tile(r.0), Factor::Padded(c.0));
        }
        for op in 0..num_ops {
            let [r, c] = tensor_axes(chain, crate::stmt::compute_output(chain, op));
            term(fb, Factor::Tile(r.0), Factor::Tile(c.0));
        }
        if chain.epilogues.iter().any(Epilogue::is_rowwise) {
            term(2 * fb, tm, Factor::One); // row max and row sum
        }
        for stage in 0..num_ops {
            let cols = Factor::Tile(stage + 2);
            if chain.biases.get(stage).copied().unwrap_or(false) {
                term(eb, cols, Factor::One);
            }
            if chain.epilogues[stage].needs_mask() {
                term(eb, tm, cols);
            }
        }
        if let Some(p) = chain.prologue {
            if p.residual {
                term(fb, tm, Factor::Padded(1));
            }
            // Row mean and rstd, gamma and beta strips.
            term(2 * fb, tm, Factor::One);
            term(2 * fb, tk, Factor::One);
        }
        if let Some(t) = chain.stitch_epilogue {
            if t.residual == ResidualSource::PrologueOut {
                term(2 * fb, tn, Factor::One); // recompute gamma and beta strips
            }
            if t.layer_norm && t.affine {
                term(2 * fb, tn, Factor::One);
            }
        }
        // Axis 0 is never a load tile's (padded) column and never a
        // second factor: the row form below relies on it.
        debug_assert!(terms
            .iter()
            .all(|t| t.factors[1] != tm && !t.factors.contains(&Factor::Padded(0))));
        SmemFootprint {
            terms,
            pad_period: pad_period(opts.bank_conflict_stride, esz),
        }
    }

    fn factor(&self, f: Factor, tiles: &[u64]) -> u64 {
        match f {
            Factor::One => 1,
            Factor::Tile(a) => tiles[a],
            Factor::Padded(a) => tiles[a] + bank_pad(self.pad_period, tiles[a]),
        }
    }

    /// The footprint of one tile vector, in bytes.
    pub fn bytes(&self, tiles: &[u64]) -> u64 {
        self.terms
            .iter()
            .map(|t| t.bytes * self.factor(t.factors[0], tiles) * self.factor(t.factors[1], tiles))
            .sum()
    }

    /// The footprint of the grid row through `tiles` as `(α, β)`: for
    /// every axis-0 tile `t`, the tile vector with `tiles[0] = t` takes
    /// exactly `α·t + β` bytes. `tiles[0]` itself is not read.
    pub fn row(&self, tiles: &[u64]) -> (u64, u64) {
        let (mut slope, mut base) = (0, 0);
        for t in &self.terms {
            let rest = t.bytes * self.factor(t.factors[1], tiles);
            if t.factors[0] == Factor::Tile(0) {
                slope += rest;
            } else {
                base += rest * self.factor(t.factors[0], tiles);
            }
        }
        (slope, base)
    }
}

/// The shared memory lowering allocates for a candidate with these
/// tiles, one copy of every tile: [`SmemFootprint::bytes`] of a
/// footprint compiled for this one call. This is the `smem_bytes` of the
/// kernel [`lower`] emits without double buffering, computed without
/// placing or emitting anything.
pub fn smem_footprint(chain: &ChainSpec, tiles: &[u64], opts: &LoweringOptions) -> u64 {
    SmemFootprint::new(chain, opts).bytes(tiles)
}

/// Emit the tile program of a candidate that passed
/// [`legal_placement`].
fn emit(
    chain: &ChainSpec,
    cand: &Candidate,
    opts: &LoweringOptions,
    placement: &Placement,
) -> LoweredKernel {
    let num_ops = chain.num_ops();
    let pro = chain.prologue;
    let tail = chain.stitch_epilogue;
    let last_axis = LoopId(chain.num_axes() - 1);
    let tail_chunk = tail_chunk(chain);

    // ---- Declarations ----------------------------------------------------
    let esz = chain.dtype;
    let mut b = ProgramBuilder::new(format!("{}::{}", chain.name, cand.describe(chain)), esz);
    // Global buffers: A, W_i, then aux inputs (biases/masks), out. The
    // order mirrors `ChainSpec::input_shapes` so callers can feed the
    // program positionally.
    let shapes = chain.input_shapes();
    let num_data = num_ops + 1;
    let mut input_bufs = Vec::with_capacity(num_data);
    for (i, shape) in shapes.iter().take(num_data).enumerate() {
        let name = if i == 0 {
            "A".to_string()
        } else {
            format!("W{}", i - 1)
        };
        // A stitched prologue reads the raw (pre-LayerNorm) activation —
        // stored at chain precision when its producer is a fused chain
        // that quantizes on store, at boundary f32 otherwise. The smem
        // tile is f32 either way, so values are identical; only the
        // global-traffic accounting follows the storage width.
        let dt = match pro {
            Some(p) if i == 0 => {
                if p.a_half {
                    esz
                } else {
                    DType::F32
                }
            }
            _ => esz,
        };
        input_bufs.push(b.buffer(name, shape.clone(), dt, BufferRole::Input));
    }
    let aux_list = chain.aux_inputs();
    let mut aux_bufs = Vec::with_capacity(aux_list.len());
    for (j, aux) in aux_list.iter().enumerate() {
        let (name, dt) = match aux {
            AuxInput::Bias { stage } => (format!("b{stage}"), esz),
            AuxInput::Mask { stage } => (format!("mask{stage}"), esz),
            // Stitched operands live at unfused-boundary precision: raw f32.
            AuxInput::PrologueResidual => ("p_res".to_string(), DType::F32),
            AuxInput::PrologueGamma => ("p_gamma".to_string(), DType::F32),
            AuxInput::PrologueBeta => ("p_beta".to_string(), DType::F32),
            AuxInput::TailResidual => ("t_res".to_string(), DType::F32),
            AuxInput::TailGamma => ("t_gamma".to_string(), DType::F32),
            AuxInput::TailBeta => ("t_beta".to_string(), DType::F32),
        };
        aux_bufs.push((
            *aux,
            b.buffer(name, shapes[num_data + j].clone(), dt, BufferRole::Input),
        ));
    }
    // A stitched epilogue stores the unfused layout's f32 result.
    let out_dt = if tail.is_some() { DType::F32 } else { esz };
    let out_buf = b.buffer("out", chain.output_shape(), out_dt, BufferRole::Output);

    // Grid: batch, m, d_L.
    let g_batch = b.grid_dim(chain.batch);
    let g_m = b.grid_dim(cand.trips(chain, LoopId(0)));
    let g_last = b.grid_dim(cand.trips(chain, last_axis));

    // Live block loops → handles (the placement's expression decides
    // which loops physically exist).
    let live_axes = if opts.dead_loop_elimination {
        cand.live_block_expr(chain).axes()
    } else {
        cand.block_expr(chain).axes()
    };
    let handles: Vec<(LoopId, LoopHandle)> =
        live_axes.iter().map(|&a| (a, b.fresh_loop())).collect();
    let var_of = |axis: LoopId| -> VarRef {
        if axis == LoopId(0) {
            g_m
        } else if axis == last_axis {
            g_last
        } else if let Some((_, h)) = handles.iter().find(|(a, _)| *a == axis) {
            VarRef::Loop(*h)
        } else {
            VarRef::Zero
        }
    };
    let handle_of = |axis: LoopId| -> LoopHandle {
        handles
            .iter()
            .find(|(a, _)| *a == axis)
            .expect("live loop")
            .1
    };

    // Shared tiles. Load tiles at chain precision; accumulators in f32.
    let period = pad_period(opts.bank_conflict_stride, esz);
    let pad = |cols: u64| bank_pad(period, cols);
    let mut load_tiles = Vec::with_capacity(num_ops + 1);
    for (i, &buf) in input_bufs.iter().enumerate() {
        let t = if i == 0 {
            TensorRef::Input(0)
        } else {
            TensorRef::Input(i)
        };
        let ax = tensor_axes(chain, t);
        let (r, mut c) = (cand.tile(ax[0]), cand.tile(ax[1]));
        if i == num_ops {
            if let Some((chunk, _)) = tail_chunk {
                c = chunk;
            }
        }
        // The prologue normalizes the raw f32 A tile in shared memory
        // before the first GEMM consumes it.
        let dt = if i == 0 && pro.is_some() {
            DType::F32
        } else {
            esz
        };
        let id = b.smem_with(
            format!("tile_{}", i),
            r,
            c,
            dt,
            pad(c),
            false, // double buffering decided below
        );
        load_tiles.push((id, buf, t));
    }
    let mut accs = Vec::with_capacity(num_ops);
    for op in 0..num_ops {
        let t = crate::stmt::compute_output(chain, op);
        let ax = tensor_axes(chain, t);
        let (r, c) = (cand.tile(ax[0]), cand.tile(ax[1]));
        accs.push(b.smem_with(format!("acc_{}", op), r, c, DType::F32, 0, false));
    }
    // Softmax statistics (allocated only when needed).
    let softmax_pos = chain.epilogues.iter().position(Epilogue::is_rowwise);
    let stats = softmax_pos.map(|_| {
        let tm = cand.tile(LoopId(0));
        let mx = b.smem_with("row_max", tm, 1, DType::F32, 0, false);
        let sm = b.smem_with("row_sum", tm, 1, DType::F32, 0, false);
        (mx, sm)
    });
    // Aux tiles: a bias strip `1 × t_cols` per biased stage, a mask tile
    // `t_m × t_cols` per masked softmax. Stitched aux operands get their
    // own tiles below.
    let aux_tiles: Vec<(AuxInput, SmemId, mcfuser_sim::BufId)> = aux_bufs
        .iter()
        .filter_map(|&(aux, buf)| {
            let (name, rows, stage) = match aux {
                AuxInput::Bias { stage } => (format!("bias_{stage}"), 1, stage),
                AuxInput::Mask { stage } => (format!("mask_{stage}"), cand.tile(LoopId(0)), stage),
                _ => return None,
            };
            let cols = cand.tile(LoopId(stage + 2));
            Some((aux, b.smem_with(name, rows, cols, esz, 0, false), buf))
        })
        .collect();
    // Stitch tiles: raw-f32 prologue residual (A-shaped), per-row LayerNorm
    // stats, and `1 × tile` gamma/beta strips for each normalization site.
    let aux_buf = |aux: AuxInput| -> mcfuser_sim::BufId {
        aux_bufs
            .iter()
            .find(|(a, _)| *a == aux)
            .expect("stitched aux buffer declared")
            .1
    };
    let stitch = if pro.is_some() || tail.is_some() {
        let tm = cand.tile(LoopId(0));
        let tk = cand.tile(LoopId(1));
        let tn = cand.tile(last_axis);
        let pro_emit = pro.map(|p| {
            let res = p.residual.then(|| {
                let id = b.smem_with("p_res_tile", tm, tk, DType::F32, pad(tk), false);
                (id, aux_buf(AuxInput::PrologueResidual))
            });
            ProEmit {
                eps: p.eps,
                mean: b.smem_with("row_mean", tm, 1, DType::F32, 0, false),
                rstd: b.smem_with("row_rstd", tm, 1, DType::F32, 0, false),
                res,
                gamma: (
                    b.smem_with("p_gamma_tile", 1, tk, DType::F32, 0, false),
                    aux_buf(AuxInput::PrologueGamma),
                ),
                beta: (
                    b.smem_with("p_beta_tile", 1, tk, DType::F32, 0, false),
                    aux_buf(AuxInput::PrologueBeta),
                ),
            }
        });
        let tail_emit = tail.map(|t| {
            let rec = (t.residual == ResidualSource::PrologueOut).then(|| {
                (
                    b.smem_with("rec_gamma_tile", 1, tn, DType::F32, 0, false),
                    b.smem_with("rec_beta_tile", 1, tn, DType::F32, 0, false),
                )
            });
            let ext_buf =
                (t.residual == ResidualSource::External).then(|| aux_buf(AuxInput::TailResidual));
            let ln_affine = (t.layer_norm && t.affine).then(|| {
                (
                    (
                        b.smem_with("t_gamma_tile", 1, tn, DType::F32, 0, false),
                        aux_buf(AuxInput::TailGamma),
                    ),
                    (
                        b.smem_with("t_beta_tile", 1, tn, DType::F32, 0, false),
                        aux_buf(AuxInput::TailBeta),
                    ),
                )
            });
            TailEmit {
                spec: t,
                rec,
                ext_buf,
                ln_affine,
            }
        });
        Some(StitchEmit {
            a_buf: input_bufs[0],
            pro: pro_emit,
            tail: tail_emit,
        })
    } else {
        None
    };

    // ---- Fill anchoring ---------------------------------------------------
    // acc_i is zeroed at the body start of the deepest live loop on C_i's
    // path whose axis is spatial for T_i; stats/output accs anchor at root.
    let mut fills_at: Vec<(Option<LoopId>, BlockStmt)> = Vec::new();
    #[allow(clippy::needless_range_loop)]
    for op in 0..num_ops {
        let t = crate::stmt::compute_output(chain, op);
        let spatial = tensor_axes(chain, t);
        let path = &placement
            .paths
            .iter()
            .find(|(s, _)| *s == Stmt::Compute(op))
            .expect("compute placed")
            .1;
        let anchor = path.iter().rev().find(|a| spatial.contains(a)).copied();
        fills_at.push((
            anchor,
            BlockStmt::Fill {
                dst: accs[op],
                value: 0.0,
            },
        ));
    }
    if let Some((mx, sm)) = stats {
        fills_at.push((
            None,
            BlockStmt::Fill {
                dst: mx,
                value: f32::NEG_INFINITY,
            },
        ));
        fills_at.push((
            None,
            BlockStmt::Fill {
                dst: sm,
                value: 0.0,
            },
        ));
    }

    // ---- Emit body --------------------------------------------------------
    let ctx = EmitCtx {
        chain,
        cand,
        g_batch,
        var_of: &var_of,
        handle_of: &handle_of,
        load_tiles: &load_tiles,
        accs: &accs,
        stats,
        aux_tiles: &aux_tiles,
        out_buf,
        softmax_pos,
        exact_softmax: softmax_pos
            .is_some_and(|pos| cand.tile(LoopId(pos + 2)) == chain.dims[pos + 1]),
        fills_at: &fills_at,
        stitch: stitch.as_ref(),
        tail_chunk,
    };
    let mut body = emit_scope(&placement.tree.root, None, &ctx);
    // Prologue row statistics: one pass over the block's raw rows (full
    // d0 width, straight from global memory) before any tile work.
    if let Some(p) = stitch.as_ref().and_then(|s| s.pro.as_ref()) {
        let d0 = chain.dims[0];
        let row_access = |buf: mcfuser_sim::BufId| TileAccess {
            buf,
            indices: vec![
                TileIndex {
                    var: g_batch,
                    tile: 1,
                },
                TileIndex {
                    var: g_m,
                    tile: cand.tile(LoopId(0)),
                },
                TileIndex {
                    var: VarRef::Zero,
                    tile: d0,
                },
            ],
        };
        body.insert(
            0,
            BlockStmt::RowNormStats {
                a: row_access(input_bufs[0]),
                residual: p.res.map(|(_, buf)| row_access(buf)),
                rows: cand.tile(LoopId(0)),
                cols: d0,
                mean: p.mean,
                rstd: p.rstd,
                eps: p.eps,
            },
        );
    }

    let mut program = b.finish(body);

    // The chunked tail panel is a single-use operand addressed by
    // compile-time chunk offsets, so it streams global->register and
    // never occupies shared memory (see `SmemDecl::streamed`).
    if tail_chunk.is_some() {
        program.smem[load_tiles[num_ops].0 .0].streamed = true;
    }

    // Decode-shaped GEMV chains (`m == 1`) touch every weight/KV panel
    // element exactly once — there is no row reuse to justify staging —
    // so all panels behind `A` stream global→register the same way and
    // never occupy shared memory.
    if chain.m == 1 {
        for (id, _, _) in load_tiles.iter().skip(1) {
            program.smem[id.0].streamed = true;
        }
    }

    // ---- Intra-tile policy: double buffering ------------------------------
    // Overlap requires *every* load target double buffered — the strips
    // and residual tiles of a stitch included — so the policy is
    // all-or-nothing over the program's actual load destinations.
    // Streamed tiles overlap via the cp.async pipeline and need no copy.
    let mut double_buffered = false;
    if let Some(budget) = opts.double_buffer_budget {
        let mut targets = Vec::new();
        collect_load_targets(&program.body, &mut targets);
        targets.retain(|id| !program.smem[id.0].streamed);
        targets.sort_unstable_by_key(|id| id.0);
        targets.dedup();
        let base = smem_footprint(chain, &cand.tiles, opts);
        debug_assert_eq!(
            base,
            program.smem_bytes(),
            "smem_footprint disagrees with {}",
            cand.describe(chain)
        );
        let extra: u64 = targets
            .iter()
            .map(|id| program.smem[id.0].alloc_bytes())
            .sum();
        if !targets.is_empty() && base + extra <= budget {
            for id in &targets {
                program.smem[id.0].double_buffered = true;
            }
            double_buffered = true;
        }
    }
    let smem_bytes = program.smem_bytes();

    // Declare the partial final tiles this schedule is expected to clip
    // (non-dividing tile sizes on ragged shapes). This is the *only*
    // place clips are blessed: the static verifier rejects any access
    // that runs past a buffer extent without a mark recorded here, so a
    // program mutated after lowering — or built by hand — cannot clip
    // by accident.
    mcfuser_sim::verify::mark_expected_clips(&mut program);

    LoweredKernel {
        program,
        double_buffered,
        smem_bytes,
    }
}

/// Emission context shared by the scope walker.
struct EmitCtx<'a> {
    chain: &'a ChainSpec,
    cand: &'a Candidate,
    g_batch: VarRef,
    var_of: &'a dyn Fn(LoopId) -> VarRef,
    handle_of: &'a dyn Fn(LoopId) -> LoopHandle,
    load_tiles: &'a [(SmemId, mcfuser_sim::BufId, TensorRef)],
    accs: &'a [SmemId],
    stats: Option<(SmemId, SmemId)>,
    aux_tiles: &'a [(AuxInput, SmemId, mcfuser_sim::BufId)],
    out_buf: mcfuser_sim::BufId,
    softmax_pos: Option<usize>,
    /// One tile covers the whole softmax axis: normalize the probability
    /// tile in place (bit-identical to the reference) instead of
    /// deferring the `1/row_sum` division to the store.
    exact_softmax: bool,
    fills_at: &'a [(Option<LoopId>, BlockStmt)],
    stitch: Option<&'a StitchEmit>,
    /// `(chunk, n_chunks)` of a streamed final-stage weight panel.
    tail_chunk: Option<(u64, u64)>,
}

/// Declared tiles/buffers of a stitched prologue/epilogue.
struct StitchEmit {
    /// The raw A input buffer (read again by the tail recompute).
    a_buf: mcfuser_sim::BufId,
    pro: Option<ProEmit>,
    tail: Option<TailEmit>,
}

/// Prologue LayerNorm state: per-row stats, optional residual tile and
/// the affine gamma/beta strips (`1 × t_k`, reloaded per k-tile).
struct ProEmit {
    eps: f32,
    mean: SmemId,
    rstd: SmemId,
    res: Option<(SmemId, mcfuser_sim::BufId)>,
    gamma: (SmemId, mcfuser_sim::BufId),
    beta: (SmemId, mcfuser_sim::BufId),
}

/// Tail residual/LayerNorm state: recompute strips (`1 × t_n`, indexed by
/// the output column axis) for `PrologueOut`, the external residual
/// buffer otherwise, and the tail LayerNorm's affine strips.
struct TailEmit {
    spec: mcfuser_ir::EpilogueStitch,
    rec: Option<(SmemId, SmemId)>,
    ext_buf: Option<mcfuser_sim::BufId>,
    ln_affine: Option<((SmemId, mcfuser_sim::BufId), (SmemId, mcfuser_sim::BufId))>,
}

fn collect_load_targets(stmts: &[BlockStmt], out: &mut Vec<SmemId>) {
    for s in stmts {
        match s {
            BlockStmt::Loop { body, .. } => collect_load_targets(body, out),
            BlockStmt::Load { dst, .. } => out.push(*dst),
            _ => {}
        }
    }
}

fn tile_access(ctx: &EmitCtx<'_>, t: TensorRef, buf: mcfuser_sim::BufId) -> TileAccess {
    let ax = tensor_axes(ctx.chain, t);
    TileAccess {
        buf,
        indices: vec![
            TileIndex {
                var: ctx.g_batch,
                tile: 1,
            },
            TileIndex {
                var: (ctx.var_of)(ax[0]),
                tile: ctx.cand.tile(ax[0]),
            },
            TileIndex {
                var: (ctx.var_of)(ax[1]),
                tile: ctx.cand.tile(ax[1]),
            },
        ],
    }
}

fn emit_scope(scope: &Scope, at_loop: Option<LoopId>, ctx: &EmitCtx<'_>) -> Vec<BlockStmt> {
    let mut out = Vec::new();
    // Anchored accumulator fills first.
    for (anchor, fill) in ctx.fills_at {
        if *anchor == at_loop {
            out.push(fill.clone());
        }
    }
    for item in &scope.items {
        match item {
            ScheduleItem::Loop { axis, trips, body } => {
                out.push(BlockStmt::Loop {
                    handle: (ctx.handle_of)(*axis),
                    extent: *trips,
                    body: emit_scope(body, Some(*axis), ctx),
                });
            }
            ScheduleItem::Stmt(s) => emit_stmt(*s, ctx, &mut out),
        }
    }
    out
}

fn emit_stmt(s: Stmt, ctx: &EmitCtx<'_>, out: &mut Vec<BlockStmt>) {
    let num_ops = ctx.chain.num_ops();
    match s {
        Stmt::Load(t) => {
            if ctx.tail_chunk.is_some() && t == TensorRef::Input(num_ops) {
                // The chunked final weight panel is streamed slice by
                // slice at the GEMM site (see `Stmt::Compute`).
                return;
            }
            let (id, buf, _) = ctx
                .load_tiles
                .iter()
                .find(|(_, _, tt)| *tt == t)
                .expect("load tile declared");
            out.push(BlockStmt::Load {
                src: tile_access(ctx, t, *buf),
                dst: *id,
            });
            if t == TensorRef::Input(0) {
                if let Some(p) = ctx.stitch.and_then(|s| s.pro.as_ref()) {
                    emit_prologue_normalize(p, *id, ctx, out);
                }
            }
        }
        Stmt::Compute(op) => {
            // Producer epilogue (applied once per completed producer tile).
            if op > 0 {
                emit_epilogue(op - 1, ctx, out);
            }
            let a = if op == 0 {
                ctx.load_tiles[0].0
            } else {
                ctx.accs[op - 1]
            };
            let (b_tile, b_buf, b_ref) = ctx.load_tiles[op + 1];
            if op == num_ops - 1 {
                if let Some((chunk, n_chunks)) = ctx.tail_chunk {
                    for c in 0..n_chunks {
                        let mut src = tile_access(ctx, b_ref, b_buf);
                        let col = src.indices.len() - 1;
                        src.indices[col] = TileIndex {
                            var: VarRef::Const(c),
                            tile: chunk,
                        };
                        out.push(BlockStmt::Load { src, dst: b_tile });
                        out.push(BlockStmt::Gemm {
                            a,
                            b: b_tile,
                            acc: ctx.accs[op],
                            acc_col: c * chunk,
                        });
                    }
                    return;
                }
            }
            out.push(BlockStmt::Gemm {
                a,
                b: b_tile,
                acc: ctx.accs[op],
                acc_col: 0,
            });
        }
        Stmt::Store => {
            // Final epilogue + softmax normalization before the store.
            emit_epilogue(num_ops - 1, ctx, out);
            if let (Some(pos), Some((_, sm))) = (ctx.softmax_pos, ctx.stats) {
                let _ = pos;
                if !ctx.exact_softmax {
                    out.push(BlockStmt::RowDiv {
                        target: ctx.accs[num_ops - 1],
                        denom: sm,
                    });
                }
            }
            if let Some(s) = ctx.stitch {
                if let Some(t) = s.tail.as_ref() {
                    emit_tail_stitch(s, t, ctx, out);
                }
            }
            out.push(BlockStmt::Store {
                dst: tile_access(ctx, TensorRef::Output, ctx.out_buf),
                src: ctx.accs[num_ops - 1],
            });
        }
    }
}

/// A rank-1 strip access indexed by one axis' tile variable.
fn strip_access(ctx: &EmitCtx<'_>, axis: LoopId, buf: mcfuser_sim::BufId) -> TileAccess {
    TileAccess {
        buf,
        indices: vec![TileIndex {
            var: (ctx.var_of)(axis),
            tile: ctx.cand.tile(axis),
        }],
    }
}

/// Stitched prologue: fold the residual into the freshly loaded raw A
/// tile, then normalize it in place with the block's row stats and the
/// current k-strip of gamma/beta, rounding to the chain's GEMM precision
/// (so the first GEMM sees exactly `quantize(LN(a + res))`, bit-identical
/// to the unstitched kernel's staged A operand).
fn emit_prologue_normalize(
    p: &ProEmit,
    a_tile: SmemId,
    ctx: &EmitCtx<'_>,
    out: &mut Vec<BlockStmt>,
) {
    if let Some((res_tile, res_buf)) = p.res {
        out.push(BlockStmt::Load {
            src: tile_access(ctx, TensorRef::Input(0), res_buf),
            dst: res_tile,
        });
        out.push(BlockStmt::AddTile {
            target: a_tile,
            other: res_tile,
        });
    }
    let k = LoopId(1);
    out.push(BlockStmt::Load {
        src: strip_access(ctx, k, p.gamma.1),
        dst: p.gamma.0,
    });
    out.push(BlockStmt::Load {
        src: strip_access(ctx, k, p.beta.1),
        dst: p.beta.0,
    });
    out.push(BlockStmt::NormalizeTile {
        target: a_tile,
        mean: p.mean,
        rstd: p.rstd,
        gamma: Some(p.gamma.0),
        beta: Some(p.beta.0),
        round: ctx.chain.dtype,
    });
}

/// Stitched tail: quantize the final accumulator to the chain precision
/// (mirroring the unfused store), add the residual — recomputed prologue
/// LayerNorm output or an external tensor, both read raw from global
/// memory — and optionally apply a full-row tail LayerNorm.
fn emit_tail_stitch(s: &StitchEmit, t: &TailEmit, ctx: &EmitCtx<'_>, out: &mut Vec<BlockStmt>) {
    let acc = ctx.accs[ctx.chain.num_ops() - 1];
    out.push(BlockStmt::Quantize {
        target: acc,
        dtype: ctx.chain.dtype,
    });
    let last_axis = LoopId(ctx.chain.num_axes() - 1);
    match t.spec.residual {
        ResidualSource::PrologueOut => {
            let p = s.pro.as_ref().expect("PrologueOut requires a prologue");
            let (g_rec, b_rec) = t.rec.expect("recompute strips declared");
            out.push(BlockStmt::Load {
                src: strip_access(ctx, last_axis, p.gamma.1),
                dst: g_rec,
            });
            out.push(BlockStmt::Load {
                src: strip_access(ctx, last_axis, p.beta.1),
                dst: b_rec,
            });
            out.push(BlockStmt::AddRecomputedNorm {
                target: acc,
                a: tile_access(ctx, TensorRef::Output, s.a_buf),
                residual: p.res.map(|(_, rb)| tile_access(ctx, TensorRef::Output, rb)),
                mean: p.mean,
                rstd: p.rstd,
                gamma: Some(g_rec),
                beta: Some(b_rec),
            });
        }
        ResidualSource::External => {
            let buf = t.ext_buf.expect("external residual buffer declared");
            out.push(BlockStmt::AddGlobal {
                target: acc,
                src: tile_access(ctx, TensorRef::Output, buf),
            });
        }
    }
    if t.spec.layer_norm {
        let (gamma, beta) = match &t.ln_affine {
            Some(((g, g_buf), (bt, b_buf))) => {
                out.push(BlockStmt::Load {
                    src: strip_access(ctx, last_axis, *g_buf),
                    dst: *g,
                });
                out.push(BlockStmt::Load {
                    src: strip_access(ctx, last_axis, *b_buf),
                    dst: *bt,
                });
                (Some(*g), Some(*bt))
            }
            None => (None, None),
        };
        out.push(BlockStmt::LayerNormTile {
            target: acc,
            gamma,
            beta,
            eps: t.spec.eps,
        });
    }
}

/// Apply stage `i`'s bias (if any) and `chain.epilogues[i]` to `acc_i`.
/// Runs exactly once per completed `acc_i` tile (the legality checks
/// guarantee a consumer never re-reads a producer tile), so even
/// non-idempotent epilogues (scale, bias, masked softmax) are safe.
fn emit_epilogue(i: usize, ctx: &EmitCtx<'_>, out: &mut Vec<BlockStmt>) {
    if ctx.chain.biases.get(i).copied().unwrap_or(false) {
        let (tile, buf) = aux_tile(ctx, AuxInput::Bias { stage: i });
        out.push(BlockStmt::Load {
            src: aux_access(ctx, AuxInput::Bias { stage: i }, buf),
            dst: tile,
        });
        out.push(BlockStmt::AddBias {
            target: ctx.accs[i],
            bias: tile,
        });
    }
    match ctx.chain.epilogues[i] {
        Epilogue::None => {}
        Epilogue::Relu => out.push(BlockStmt::Relu {
            target: ctx.accs[i],
        }),
        Epilogue::Gelu => out.push(BlockStmt::Gelu {
            target: ctx.accs[i],
        }),
        Epilogue::Scale(f) => out.push(BlockStmt::Scale {
            target: ctx.accs[i],
            factor: f,
        }),
        Epilogue::Softmax { scale } => {
            emit_online_softmax(i, scale, ctx, out);
        }
        Epilogue::MaskedSoftmax { scale } => {
            // softmax(scale·(s + mask)): add the mask tile to the
            // completed scores, then stream with the usual pre-scale.
            let (tile, buf) = aux_tile(ctx, AuxInput::Mask { stage: i });
            out.push(BlockStmt::Load {
                src: aux_access(ctx, AuxInput::Mask { stage: i }, buf),
                dst: tile,
            });
            out.push(BlockStmt::AddTile {
                target: ctx.accs[i],
                other: tile,
            });
            emit_online_softmax(i, scale, ctx, out);
        }
    }
}

/// The streaming softmax update for stage `i`'s scores.
fn emit_online_softmax(i: usize, scale: f32, ctx: &EmitCtx<'_>, out: &mut Vec<BlockStmt>) {
    let (mx, sm) = ctx.stats.expect("stats allocated");
    // Rescale every *downstream* accumulator (there is exactly one:
    // the final output, by the legality check).
    let rescale: Vec<SmemId> = ctx.accs[i + 1..].to_vec();
    // An overhanging last tile pads the softmax axis with zero scores;
    // the clip keeps them out of the softmax.
    let col = LoopId(i + 2);
    let (tile, extent) = (ctx.cand.tile(col), ctx.chain.dims[i + 1]);
    let clip = (extent % tile != 0).then(|| {
        let var = (ctx.var_of)(col);
        (TileIndex { var, tile }, extent)
    });
    out.push(BlockStmt::OnlineSoftmax {
        scores: ctx.accs[i],
        row_max: mx,
        row_sum: sm,
        rescale,
        scale,
        clip,
    });
    if ctx.exact_softmax {
        // Single-tile softmax axis: the row sum is already final, so
        // divide the probabilities *before* the PV matmul. This makes
        // the fused chain bit-identical to the reference evaluation
        // (`(Σ eᵢ·vᵢ)/Z` versus `Σ (eᵢ/Z)·vᵢ` drift otherwise).
        out.push(BlockStmt::RowDiv {
            target: ctx.accs[i],
            denom: sm,
        });
    }
}

/// Shared-memory tile and global buffer of an aux input.
fn aux_tile(ctx: &EmitCtx<'_>, aux: AuxInput) -> (SmemId, mcfuser_sim::BufId) {
    ctx.aux_tiles
        .iter()
        .find(|(a, _, _)| *a == aux)
        .map(|(_, t, b)| (*t, *b))
        .expect("aux tile declared")
}

/// Tile access for an aux input: biases are rank-1 `[d]` strips indexed
/// by the stage's column axis; masks are rank-3 `[batch, m, d]` tiles.
fn aux_access(ctx: &EmitCtx<'_>, aux: AuxInput, buf: mcfuser_sim::BufId) -> TileAccess {
    match aux {
        AuxInput::Bias { stage } => {
            let col = LoopId(stage + 2);
            TileAccess {
                buf,
                indices: vec![TileIndex {
                    var: (ctx.var_of)(col),
                    tile: ctx.cand.tile(col),
                }],
            }
        }
        AuxInput::Mask { stage } => {
            let col = LoopId(stage + 2);
            TileAccess {
                buf,
                indices: vec![
                    TileIndex {
                        var: ctx.g_batch,
                        tile: 1,
                    },
                    TileIndex {
                        var: (ctx.var_of)(LoopId(0)),
                        tile: ctx.cand.tile(LoopId(0)),
                    },
                    TileIndex {
                        var: (ctx.var_of)(col),
                        tile: ctx.cand.tile(col),
                    },
                ],
            }
        }
        // Stitched aux operands are accessed through their dedicated
        // emitters, never through the generic bias/mask path.
        _ => unreachable!("stitched aux has no generic access"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::TilingExpr;
    use mcfuser_sim::{execute, DeviceSpec, TensorStorage};

    fn gemm_chain() -> ChainSpec {
        ChainSpec::gemm_chain("g", 1, 128, 96, 64, 80)
    }

    fn cand_for(chain: &ChainSpec, expr: &str, tiles: Vec<u64>) -> Candidate {
        Candidate::new(TilingExpr::parse(expr, chain).unwrap(), tiles)
    }

    /// Run a lowered kernel functionally and compare with the chain oracle.
    fn check_numerics(chain: &ChainSpec, cand: &Candidate, seed: u64) {
        let k = lower(chain, cand, &LoweringOptions::default()).unwrap();
        k.program.validate().unwrap();
        let inputs = chain.random_inputs(seed);
        let mut st = TensorStorage::for_program(&k.program);
        for (i, t) in inputs.iter().enumerate() {
            st.tensors[i] = t.clone();
        }
        execute(&k.program, &mut st).unwrap();
        let expect = chain.reference(&inputs);
        let got = st.tensors.last().unwrap();
        let err = got.rel_l2_error(&expect);
        assert!(err < 2e-2, "rel error {err} for {}", cand.describe(chain));
    }

    #[test]
    fn nk_schedule_computes_correct_result() {
        let c = gemm_chain();
        check_numerics(&c, &cand_for(&c, "mhnk", vec![32, 32, 32, 16]), 1);
    }

    #[test]
    fn flat_schedule_computes_correct_result() {
        let c = gemm_chain();
        check_numerics(&c, &cand_for(&c, "mn(k,h)", vec![32, 32, 32, 16]), 2);
    }

    #[test]
    fn full_dim_tiles_compute_correct_result() {
        let c = gemm_chain();
        // k tile covers K → dead k loop; exercises Fig. 5(b) hoisting.
        check_numerics(&c, &cand_for(&c, "mhnk", vec![32, 64, 32, 16]), 3);
    }

    #[test]
    fn partial_tiles_compute_correct_result() {
        // Dims not divisible by tiles.
        let c = ChainSpec::gemm_chain("g", 1, 100, 72, 40, 56);
        check_numerics(&c, &cand_for(&c, "mhnk", vec![32, 16, 32, 16]), 4);
    }

    #[test]
    fn batched_chain_correct() {
        let c = ChainSpec::gemm_chain("g", 3, 64, 48, 32, 32);
        check_numerics(&c, &cand_for(&c, "mnkh", vec![32, 16, 16, 16]), 5);
    }

    #[test]
    fn relu_epilogue_correct() {
        let mut c = gemm_chain();
        c.epilogues[0] = Epilogue::Relu;
        check_numerics(&c, &cand_for(&c, "mhnk", vec![32, 32, 32, 16]), 6);
    }

    #[test]
    fn attention_softmax_correct() {
        let c = ChainSpec::attention("s", 2, 64, 64, 32, 32);
        check_numerics(&c, &cand_for(&c, "mhnk", vec![32, 32, 16, 32]), 7);
    }

    #[test]
    fn attention_single_n_tile_correct() {
        let c = ChainSpec::attention("s", 1, 64, 64, 32, 32);
        // n tile covers N: softmax in one shot.
        check_numerics(&c, &cand_for(&c, "mhnk", vec![32, 32, 64, 32]), 8);
    }

    #[test]
    fn attention_overhanging_key_tile_correct() {
        // 48 keys in tiles of 32: the second tile's last 16 columns are
        // padding and must not enter the softmax; plain and masked, and
        // with one tile wider than the whole key axis.
        let c = ChainSpec::attention("s", 1, 64, 48, 32, 32);
        check_numerics(&c, &cand_for(&c, "mhnk", vec![32, 32, 32, 32]), 9);
        let c = ChainSpec::masked_attention("s", 2, 32, 48, 32, 32);
        check_numerics(&c, &cand_for(&c, "mhnk", vec![32, 32, 32, 32]), 10);
        let c = ChainSpec::attention("s", 1, 32, 32, 32, 32);
        check_numerics(&c, &cand_for(&c, "mhnk", vec![32, 32, 64, 32]), 11);
    }

    #[test]
    fn kn_order_rejected_as_multi_tile() {
        let c = gemm_chain();
        let cd = cand_for(&c, "mhkn", vec![32, 16, 32, 16]);
        let err = lower(&c, &cd, &LoweringOptions::default()).unwrap_err();
        assert!(
            matches!(
                err,
                LoweringError::MultiTileAccumulator { .. }
                    | LoweringError::PartialConsumption { .. }
            ),
            "{err:?}"
        );
    }

    #[test]
    fn double_buffering_enabled_under_budget() {
        let c = gemm_chain();
        let cd = cand_for(&c, "mhnk", vec![32, 32, 32, 16]);
        let dev = DeviceSpec::a100();
        let k = lower(&c, &cd, &LoweringOptions::for_device(&dev)).unwrap();
        assert!(k.double_buffered);
        let k2 = lower(&c, &cd, &LoweringOptions::default()).unwrap();
        assert!(!k2.double_buffered);
        assert!(k.smem_bytes > k2.smem_bytes);
    }

    #[test]
    fn actual_smem_exceeds_estimate() {
        // Double buffering + f32 accumulators make the lowered footprint
        // larger than Eq. 1's estimate — the Fig. 10 gap.
        let c = gemm_chain();
        let cd = cand_for(&c, "mhnk", vec![32, 32, 32, 16]);
        let dev = DeviceSpec::a100();
        let k = lower(&c, &cd, &LoweringOptions::for_device(&dev)).unwrap();
        let est = crate::shmem::estimate_shmem_bytes(&c, &cd);
        assert!(k.smem_bytes > est, "{} !> {}", k.smem_bytes, est);
    }

    #[test]
    fn single_matmul_lowers_and_computes() {
        let c = ChainSpec::single_matmul("mm", 1, 96, 64, 48);
        check_numerics(&c, &cand_for(&c, "mkn", vec![32, 16, 32]), 9);
    }

    #[test]
    fn scale_epilogue_on_output() {
        let mut c = ChainSpec::single_matmul("mm", 1, 64, 64, 32);
        c.epilogues[0] = Epilogue::Scale(0.5);
        check_numerics(&c, &cand_for(&c, "mkn", vec![32, 16, 32]), 10);
    }

    #[test]
    fn gelu_epilogue_correct() {
        let mut c = gemm_chain();
        c.epilogues[0] = Epilogue::Gelu;
        check_numerics(&c, &cand_for(&c, "mhnk", vec![32, 32, 32, 16]), 11);
    }

    #[test]
    fn biased_stages_correct() {
        let mut c = gemm_chain();
        c.biases = vec![true, true];
        assert_eq!(c.num_inputs(), 5);
        check_numerics(&c, &cand_for(&c, "mhnk", vec![32, 32, 32, 16]), 12);
    }

    #[test]
    fn bias_plus_relu_stage_correct() {
        let mut c = gemm_chain();
        c.biases = vec![true, false];
        c.epilogues[0] = Epilogue::Relu;
        check_numerics(&c, &cand_for(&c, "mhnk", vec![32, 32, 32, 16]), 13);
    }

    #[test]
    fn masked_attention_correct() {
        let c = ChainSpec::masked_attention("ms", 2, 64, 64, 32, 32);
        assert_eq!(c.num_inputs(), 4); // Q, K, V, mask
        check_numerics(&c, &cand_for(&c, "mhnk", vec![32, 32, 16, 32]), 14);
    }

    #[test]
    fn masked_attention_with_causal_mask_is_causal() {
        let c = ChainSpec::masked_attention("ms", 2, 64, 64, 32, 32);
        let cd = cand_for(&c, "mhnk", vec![32, 32, 16, 32]);
        let k = lower(&c, &cd, &LoweringOptions::default()).unwrap();
        let mut inputs = c.random_inputs(15);
        inputs[3] = mcfuser_ir::causal_mask(2, 64, 64);
        let mut st = TensorStorage::for_program(&k.program);
        for (i, t) in inputs.iter().enumerate() {
            st.tensors[i] = t.clone();
        }
        execute(&k.program, &mut st).unwrap();
        let expect = c.reference(&inputs);
        let got = st.tensors.last().unwrap();
        assert!(got.rel_l2_error(&expect) < 2e-2);
        // Row 0 can only attend to position 0: its output must equal
        // V[batch, 0, :] exactly (softmax over one unmasked score = 1).
        let v = &inputs[2];
        for b in 0..2usize {
            for j in 0..32usize {
                let o = got.data[b * 64 * 32 + j];
                let vv = v.data[b * 64 * 32 + j];
                assert!((o - vv).abs() < 1e-2, "b{b} j{j}: {o} vs {vv}");
            }
        }
    }

    #[test]
    fn gemv_chain_streams_weight_panels() {
        // Decode-shaped m = 1 chain: every panel behind `A` streams
        // global→register and drops out of the smem footprint.
        let c = ChainSpec::gemm_chain("gv", 1, 1, 128, 96, 64);
        let cd = cand_for(&c, "mhnk", vec![1, 32, 32, 32]);
        let k = lower(&c, &cd, &LoweringOptions::default()).unwrap();
        let streamed: Vec<bool> = k.program.smem.iter().map(|d| d.streamed).collect();
        assert!(!k.program.smem[0].streamed, "A tile stays staged");
        assert!(
            streamed[1] && streamed[2],
            "m = 1 weight panels stream: {streamed:?}"
        );
        assert_eq!(k.program.smem[1].alloc_bytes(), 0);
        check_numerics(&c, &cd, 23);
    }

    #[test]
    fn decode_attention_single_tile_softmax_bit_exact() {
        // One n tile covers the whole softmax axis → the probability
        // tile is normalized before the PV GEMV and the fused kernel is
        // bit-identical to the reference (f32, so no cast drift either).
        let mut c = ChainSpec::masked_attention("dec", 4, 1, 16, 32, 32);
        c.dtype = DType::F32;
        // Tiles are in axis order (m, k, n, h); n covers the full axis.
        let cd = cand_for(&c, "mnkh", vec![1, 32, 16, 32]);
        let k = lower(&c, &cd, &LoweringOptions::default()).unwrap();
        k.program.validate().unwrap();
        let mut inputs = c.random_inputs(24);
        inputs[3] = mcfuser_ir::decode_mask(4, 16, 9);
        let mut st = TensorStorage::for_program(&k.program);
        for (i, t) in inputs.iter().enumerate() {
            st.tensors[i] = t.clone();
        }
        execute(&k.program, &mut st).unwrap();
        let expect = c.reference(&inputs);
        let got = st.tensors.last().unwrap();
        assert_eq!(got.data, expect.data, "fused decode attention == oracle");
    }

    #[test]
    fn four_gemm_chain_with_mixed_epilogues_correct() {
        let mut c = ChainSpec::chain(
            "mlp4",
            1,
            128,
            vec![64, 96, 64, 96, 64],
            vec![
                Epilogue::Gelu,
                Epilogue::Relu,
                Epilogue::Scale(0.5),
                Epilogue::None,
            ],
        );
        c.biases = vec![true, false, false, true];
        // Deep "mqphnk" nest: reductions innermost-first, the legal
        // generalization of the 2-GEMM "mhnk".
        let mut perm = vec![crate::loops::LoopId(0)];
        perm.extend((1..c.num_axes()).rev().map(crate::loops::LoopId));
        let cd = Candidate::new(TilingExpr::deep(&perm), vec![32, 32, 32, 32, 32, 32]);
        check_numerics(&c, &cd, 16);
    }

    #[test]
    fn stitched_ffn_kernel_matches_reference() {
        let c = stitched_ffn(64, 64, 96);
        check_numerics(&c, &cand_for(&c, "mhnk", vec![32, 32, 32, 64]), 17);
    }

    #[test]
    fn stitched_partial_m_and_k_tiles_correct() {
        // m and k not divisible by their tiles: exercises the zero-padded
        // gamma/beta strips and the OOB row guards of the stats pass.
        let c = stitched_ffn(100, 72, 48);
        check_numerics(&c, &cand_for(&c, "mhnk", vec![32, 32, 16, 72]), 18);
    }

    #[test]
    fn prologue_only_chain_correct() {
        let mut c = stitched_ffn(64, 64, 96);
        c.stitch_epilogue = None;
        check_numerics(&c, &cand_for(&c, "mhnk", vec![32, 32, 32, 16]), 19);
    }

    #[test]
    fn external_residual_tail_correct() {
        let mut c = gemm_chain();
        c.stitch_epilogue = Some(mcfuser_ir::EpilogueStitch {
            residual: mcfuser_ir::ResidualSource::External,
            layer_norm: false,
            affine: false,
            eps: 1e-5,
        });
        check_numerics(&c, &cand_for(&c, "mhnk", vec![32, 32, 32, 16]), 20);
    }

    #[test]
    fn external_residual_with_tail_layernorm_correct() {
        let mut c = gemm_chain();
        c.stitch_epilogue = Some(mcfuser_ir::EpilogueStitch {
            residual: mcfuser_ir::ResidualSource::External,
            layer_norm: true,
            affine: true,
            eps: 1e-5,
        });
        // h = 80 → the tail LN needs t_h = 80.
        check_numerics(&c, &cand_for(&c, "mhnk", vec![32, 32, 32, 80]), 21);
    }

    #[test]
    fn tail_layernorm_partial_tile_rejected() {
        let c = stitched_ffn(64, 64, 96);
        let cd = cand_for(&c, "mhnk", vec![32, 32, 32, 32]);
        let err = lower(&c, &cd, &LoweringOptions::default()).unwrap_err();
        assert!(
            matches!(err, LoweringError::StitchUnsupported(_)),
            "{err:?}"
        );
    }

    #[test]
    fn stitched_kernel_bit_identical_to_unstitched_plus_glue() {
        // The stitched kernel must reproduce exactly what the unstitched
        // twin + f32 reference glue (residual adds and LayerNorms around
        // the kernel) computes: same quantization points, same stats
        // accumulation order → bitwise-equal outputs.
        let (m, d, f) = (64usize, 64usize, 96u64);
        let c = stitched_ffn(m as u64, d as u64, f);
        let cd = cand_for(&c, "mhnk", vec![32, 32, 32, d as u64]);
        let inputs = c.random_inputs(22);
        let k = lower(&c, &cd, &LoweringOptions::default()).unwrap();
        k.program.validate().unwrap();
        let mut st = TensorStorage::for_program(&k.program);
        for (i, t) in inputs.iter().enumerate() {
            st.tensors[i] = t.clone();
        }
        execute(&k.program, &mut st).unwrap();
        let got = st.tensors.last().unwrap().clone();

        // Host glue around the unstitched twin. Aux order of the stitched
        // chain: b0, b1, p_res, p_gamma, p_beta, t_gamma, t_beta.
        let (a, res) = (&inputs[0], &inputs[5]);
        let (g1, b1) = (&inputs[6], &inputs[7]);
        let (g2, b2) = (&inputs[8], &inputs[9]);
        let mut ln1 = a.data.clone();
        for (v, r) in ln1.iter_mut().zip(&res.data) {
            *v += *r;
        }
        mcfuser_ir::layer_norm_rows(&mut ln1, m, d, 1e-5, Some(&g1.data), Some(&b1.data));

        let u = c.unstitched();
        let ku = lower(&u, &cd, &LoweringOptions::default()).unwrap();
        let mut stu = TensorStorage::for_program(&ku.program);
        stu.tensors[0] = mcfuser_sim::HostTensor::from_vec(&u.input_shapes()[0], ln1.clone());
        stu.tensors[1..u.num_inputs()].clone_from_slice(&inputs[1..u.num_inputs()]);
        execute(&ku.program, &mut stu).unwrap();
        let out_u = stu.tensors.last().unwrap();

        let mut fin = out_u.data.clone();
        for (v, l) in fin.iter_mut().zip(&ln1) {
            *v += *l;
        }
        mcfuser_ir::layer_norm_rows(&mut fin, m, d, 1e-5, Some(&g2.data), Some(&b2.data));
        assert_eq!(got.data, fin);
    }

    fn stitched_ffn(m: u64, d: u64, f: u64) -> ChainSpec {
        // gemm_chain args are (m, n, k, h) → dims [d, f, d].
        let mut c = ChainSpec::gemm_chain("ffn", 1, m, f, d, d);
        c.biases = vec![true, true];
        c.epilogues[0] = Epilogue::Gelu;
        c.prologue = Some(mcfuser_ir::PrologueSpec {
            residual: true,
            affine: true,
            a_half: false,
            eps: 1e-5,
        });
        c.stitch_epilogue = Some(mcfuser_ir::EpilogueStitch {
            residual: mcfuser_ir::ResidualSource::PrologueOut,
            layer_norm: true,
            affine: true,
            eps: 1e-5,
        });
        c
    }

    /// Chains covering every kind of tile lowering allocates: plain and
    /// biased 2- and 3-GEMM chains, attention with and without a mask, an
    /// `m == 1` GEMV (streamed panels), a stitched prologue with and
    /// without a residual, a full stitched FFN, and tail LayerNorms with
    /// a streamed (`d_L = 512`) and a resident (`d_L = 128`) last panel.
    fn footprint_families() -> Vec<ChainSpec> {
        let tail_ln = |name: &str, m: u64, d_l: u64| {
            let mut c = ChainSpec::gemm_chain(name, 1, m, 64, 32, d_l);
            c.stitch_epilogue = Some(mcfuser_ir::EpilogueStitch {
                residual: mcfuser_ir::ResidualSource::External,
                layer_norm: true,
                affine: true,
                eps: 1e-5,
            });
            c
        };
        let mut biased = gemm_chain();
        biased.biases = vec![true, true];
        let gemm3 = ChainSpec::chain(
            "g3",
            1,
            64,
            vec![64, 48, 64, 32],
            vec![Epilogue::Relu, Epilogue::Gelu, Epilogue::None],
        );
        let mut biased3 = gemm3.clone();
        biased3.biases = vec![true, false, true];
        let mut prologue = stitched_ffn(64, 64, 96);
        prologue.stitch_epilogue = None;
        let mut prologue_no_res = prologue.clone();
        if let Some(p) = prologue_no_res.prologue.as_mut() {
            p.residual = false;
        }
        vec![
            gemm_chain(),
            biased,
            gemm3,
            biased3,
            ChainSpec::attention("attn", 2, 64, 64, 32, 32),
            ChainSpec::masked_attention("mattn", 2, 64, 48, 32, 32),
            ChainSpec::gemm_chain("gemv", 1, 1, 128, 96, 64),
            prologue,
            prologue_no_res,
            stitched_ffn(64, 64, 96),
            tail_ln("tail512", 32, 512),
            tail_ln("tail128", 64, 128),
        ]
    }

    /// Every expression of `chain` with each axis' smallest, middle and
    /// largest tile option (smallest and largest past four axes).
    fn sampled_candidates(chain: &ChainSpec) -> Vec<Candidate> {
        let picks: Vec<Vec<u64>> = (0..chain.num_axes())
            .map(|a| {
                let opts = crate::loops::tile_options(chain.axis_extent(a));
                let mut p = vec![opts[0], opts[opts.len() - 1]];
                if chain.num_axes() <= 4 {
                    p.push(opts[opts.len() / 2]);
                }
                p.sort_unstable();
                p.dedup();
                p
            })
            .collect();
        let mut tiles = vec![vec![]];
        for p in &picks {
            tiles = tiles
                .iter()
                .flat_map(|t: &Vec<u64>| {
                    p.iter().map(move |&x| {
                        let mut t = t.clone();
                        t.push(x);
                        t
                    })
                })
                .collect();
        }
        crate::expr::enumerate_all(chain)
            .into_iter()
            .flat_map(|e| {
                tiles
                    .iter()
                    .map(move |t| Candidate::new(e.clone(), t.clone()))
            })
            .collect()
    }

    #[test]
    fn smem_footprint_equals_single_copy_smem_bytes() {
        for chain in footprint_families() {
            let mut legal = 0;
            for stride in [0, 96, 128] {
                let opts = LoweringOptions {
                    double_buffer_budget: None,
                    bank_conflict_stride: stride,
                    dead_loop_elimination: true,
                };
                for cand in sampled_candidates(&chain) {
                    let Ok(k) = lower(&chain, &cand, &opts) else {
                        continue;
                    };
                    legal += 1;
                    assert!(!k.double_buffered);
                    assert_eq!(
                        smem_footprint(&chain, &cand.tiles, &opts),
                        k.smem_bytes,
                        "{} stride {stride}",
                        cand.describe(&chain)
                    );
                }
            }
            assert!(legal > 0, "{}: no legal candidate sampled", chain.name);
        }
    }

    #[test]
    fn footprint_rows_are_exact_in_the_axis_0_tile() {
        // Over every row of every family's full tile grid (plain,
        // biased and 3-GEMM chains, attention with and without a mask,
        // m = 1, stitched prologues and tails, tail LayerNorms), the row
        // form `α·t + β` is the footprint at every axis-0 tile.
        for chain in footprint_families() {
            let domains: Vec<Vec<u64>> = (0..chain.num_axes())
                .map(|a| crate::loops::tile_options(chain.axis_extent(a)))
                .collect();
            let rows: usize = domains[1..].iter().map(Vec::len).product();
            for stride in [0, 96, 128] {
                let opts = LoweringOptions {
                    bank_conflict_stride: stride,
                    ..Default::default()
                };
                let fp = SmemFootprint::new(&chain, &opts);
                for row in 0..rows {
                    let mut digits = row;
                    let mut tiles = vec![0u64; domains.len()];
                    for (t, d) in tiles[1..].iter_mut().zip(&domains[1..]) {
                        *t = d[digits % d.len()];
                        digits /= d.len();
                    }
                    let (slope, base) = fp.row(&tiles);
                    for &t in &domains[0] {
                        tiles[0] = t;
                        assert_eq!(
                            slope * t + base,
                            smem_footprint(&chain, &tiles, &opts),
                            "{} {tiles:?} stride {stride}",
                            chain.name
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn lower_within_refuses_exactly_what_cannot_launch() {
        let mut chains = footprint_families();
        chains.push(ChainSpec::gemm_chain("big", 1, 1024, 1024, 512, 512));
        chains.push(ChainSpec::attention("big_attn", 4, 512, 512, 128, 128));
        for dev in [DeviceSpec::a100(), DeviceSpec::rtx3080()] {
            let opts = LoweringOptions::for_device(&dev);
            let limit = dev.smem_per_block;
            let (mut ready, mut refused) = (0, 0);
            for chain in &chains {
                for cand in sampled_candidates(chain) {
                    let what = format!("{} on {}", cand.describe(chain), dev.name);
                    match (
                        lower(chain, &cand, &opts),
                        lower_within(chain, &cand, &opts, limit),
                    ) {
                        (Err(a), Err(b)) => assert_eq!(a, b, "{what}"),
                        (Ok(k), Ok(Launch::Refused { smem_bytes })) => {
                            assert!(k.smem_bytes > limit, "{what}");
                            assert_eq!(smem_bytes, k.smem_bytes, "{what}");
                            refused += 1;
                        }
                        (Ok(k), Ok(Launch::Ready(w))) => {
                            assert!(k.smem_bytes <= limit, "{what}");
                            assert_eq!(w.program, k.program, "{what}");
                            assert_eq!(w.smem_bytes, k.smem_bytes, "{what}");
                            assert_eq!(w.double_buffered, k.double_buffered, "{what}");
                            ready += 1;
                        }
                        (a, b) => panic!("{what}: lower {a:?} but lower_within {b:?}"),
                    }
                }
            }
            assert!(
                ready > 0 && refused > 0,
                "{}: {ready} ready, {refused} refused",
                dev.name
            );
        }
    }

    #[test]
    fn program_grid_matches_candidate() {
        let c = gemm_chain();
        let cd = cand_for(&c, "mhnk", vec![32, 32, 32, 16]);
        let k = lower(&c, &cd, &LoweringOptions::default()).unwrap();
        assert_eq!(k.program.grid, cd.grid(&c));
        assert_eq!(k.program.num_blocks(), cd.num_blocks(&c));
    }
}
