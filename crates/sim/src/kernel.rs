//! The virtual-kernel IR ("VTX") executed by the simulator.
//!
//! A [`TileProgram`] is the analogue of the PTX a Triton kernel compiles to:
//! a grid of independent thread blocks, each running a small loop nest of
//! *tile-granularity* statements — load a tile from global to shared memory,
//! run a tensor-core GEMM on resident tiles, apply an epilogue, store a tile
//! back. MCFuser's lowering (in `mcfuser-tile`) produces these programs;
//! the simulator both *executes* them functionally (for correctness
//! checking) and *measures* them with a microarchitectural timing model.
//!
//! Design notes:
//!
//! * Tile coordinates are affine in grid indices and per-block loop
//!   variables ([`VarRef`]), which is exactly the addressing structure the
//!   paper's tiling expressions generate.
//! * Shared-memory buffers are 2-D (`rows × cols`), optionally padded (to
//!   dodge bank conflicts) and double buffered — the intra-tile policies the
//!   real system delegates to Triton.

use crate::dtype::DType;

/// Identifier of a global-memory buffer declared in a [`TileProgram`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BufId(pub usize);

/// Identifier of a shared-memory tile buffer within a block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SmemId(pub usize);

/// Identifier of a per-block loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LoopHandle(pub usize);

/// Role of a global buffer (determines who initializes it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BufferRole {
    /// Provided by the caller before execution.
    Input,
    /// Written by the kernel.
    Output,
}

/// A global-memory tensor buffer.
#[derive(Debug, Clone, PartialEq)]
pub struct BufferDecl {
    /// Display name.
    pub name: String,
    /// Row-major shape; the trailing two dims are the tiled matrix dims
    /// (rank-1 buffers are treated as a single row).
    pub shape: Vec<u64>,
    /// Storage precision.
    pub dtype: DType,
    /// Who initializes/consumes the buffer.
    pub role: BufferRole,
}

impl BufferDecl {
    /// Total number of elements.
    pub fn len(&self) -> u64 {
        self.shape.iter().product()
    }

    /// True if the buffer holds no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total size in bytes at the declared storage precision.
    pub fn bytes(&self) -> u64 {
        self.len() * self.dtype.size_bytes()
    }
}

/// A shared-memory tile buffer (one logical tile; the allocator may
/// double-buffer it).
#[derive(Debug, Clone, PartialEq)]
pub struct SmemDecl {
    /// Display name.
    pub name: String,
    /// Tile rows.
    pub rows: u64,
    /// Tile columns.
    pub cols: u64,
    /// Storage precision in shared memory.
    pub dtype: DType,
    /// Extra columns of padding per row to avoid bank conflicts.
    pub pad_cols: u64,
    /// Whether the lowering allocated two copies for load/compute overlap.
    pub double_buffered: bool,
    /// Register stream: the tile flows global->register through the
    /// cp.async pipeline and is consumed by the MMA as fragments arrive —
    /// only the in-flight window is ever resident, so the tile occupies
    /// no shared memory. Only legal for single-use operands whose tile
    /// coordinates are compile-time constants (a statically unrolled loop
    /// lets each thread address its fragments in registers; a dynamically
    /// indexed loop would have to bounce through smem). Used for chunked
    /// tail weight panels and for every panel behind `A` in `m == 1`
    /// (decode GEMV) chains, where no output row ever re-reads a panel.
    pub streamed: bool,
}

impl SmemDecl {
    /// Logical element count (what the interpreter allocates).
    pub fn elems(&self) -> u64 {
        self.rows * self.cols
    }

    /// Physical byte footprint including padding and double buffering —
    /// the "actual" shared memory of the paper's Fig. 10.
    pub fn alloc_bytes(&self) -> u64 {
        if self.streamed {
            return 0; // lives in the register file, not shared memory
        }
        let copies = if self.double_buffered { 2 } else { 1 };
        self.rows * (self.cols + self.pad_cols) * self.dtype.size_bytes() * copies
    }
}

/// A value a tile coordinate can be indexed by.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VarRef {
    /// `blockIdx` component `i` of the launch grid.
    Grid(usize),
    /// A per-block loop variable.
    Loop(LoopHandle),
    /// Constant zero (the dimension is covered by a single tile).
    Zero,
    /// A compile-time-known tile coordinate (statically unrolled loops,
    /// e.g. the column chunks of a streamed weight panel).
    Const(u64),
}

/// One dimension of a tile access: element offset = `var * tile`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TileIndex {
    /// The index variable.
    pub var: VarRef,
    /// Tile extent along this dimension (stride of `var` in elements).
    pub tile: u64,
}

/// A rectangular tile of a global buffer.
///
/// `indices.len()` must equal the buffer rank. The trailing two indices
/// (one, for rank-1 buffers) select a `rows × cols` region whose extents
/// come from the destination/source [`SmemDecl`]; leading indices select
/// slices (e.g. the batch).
#[derive(Debug, Clone, PartialEq)]
pub struct TileAccess {
    /// Accessed buffer.
    pub buf: BufId,
    /// One index per buffer dimension.
    pub indices: Vec<TileIndex>,
}

/// Declaration that tile accesses on `buf` may run past the buffer
/// extent along dimension `dim` — the canonical ceil-div partial final
/// tile, where loads zero-pad and stores clip.
///
/// The lowering records these marks at lower time
/// (`mcfuser-tile`'s last step); the static verifier
/// ([`crate::verify`]) rejects any clipped access that is *not* marked,
/// so accidental out-of-bounds addressing (a shifted index, a wrong
/// grid var) can never hide behind the interpreter's zero-fill/clip
/// semantics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ClipMark {
    /// The buffer whose accesses may clip.
    pub buf: BufId,
    /// The (0-based) buffer dimension along which clipping is expected.
    pub dim: usize,
}

/// A statement of the per-block program.
#[allow(missing_docs)] // variant fields are described by the variant docs
#[derive(Debug, Clone, PartialEq)]
pub enum BlockStmt {
    /// A counted loop over tile indices.
    Loop {
        handle: LoopHandle,
        extent: u64,
        body: Vec<BlockStmt>,
    },
    /// Copy a tile from global memory into shared memory (quantizing to the
    /// smem precision).
    Load { src: TileAccess, dst: SmemId },
    /// Copy a tile from shared memory back to global memory.
    Store { dst: TileAccess, src: SmemId },
    /// Fill a shared buffer with a constant (accumulator init, `-inf` for
    /// softmax row maxima, ...).
    Fill { dst: SmemId, value: f32 },
    /// Tensor-core tile GEMM: `acc += a × b`, with `b` K×N.
    Gemm {
        a: SmemId,
        b: SmemId,
        acc: SmemId,
        /// Column offset into `acc` where this GEMM's `N` columns land.
        /// A chunked final stage streams its weight panel in column
        /// slices and fills the accumulator slice by slice; whole-tile
        /// GEMMs use 0.
        acc_col: u64,
    },
    /// FlashAttention-style streaming softmax update over `scores`:
    /// rescales the running accumulators listed in `rescale` and replaces
    /// `scores` with un-normalized probabilities.
    OnlineSoftmax {
        scores: SmemId,
        row_max: SmemId,
        row_sum: SmemId,
        rescale: Vec<SmemId>,
        /// Pre-softmax scaling (e.g. `1/sqrt(d_k)`).
        scale: f32,
        /// `(column tile index, axis extent)` of `scores` along the
        /// softmax axis when the last tile overhangs it. Columns past
        /// the extent are padding: they get probability 0 instead of
        /// entering the softmax as zero scores. `None` when the tile
        /// divides the axis.
        clip: Option<(TileIndex, u64)>,
    },
    /// Divide each row of `target` by the matching `denom` entry
    /// (softmax normalization before the final store).
    RowDiv { target: SmemId, denom: SmemId },
    /// Element-wise ReLU.
    Relu { target: SmemId },
    /// Element-wise GELU (tanh approximation).
    Gelu { target: SmemId },
    /// Element-wise scale by a constant.
    Scale { target: SmemId, factor: f32 },
    /// Element-wise addition of a same-shaped tile: `target += other`
    /// (additive attention masks).
    AddTile { target: SmemId, other: SmemId },
    /// Add a row vector (`bias`, a `1 × cols` buffer) to each row of
    /// `target`.
    AddBias { target: SmemId, bias: SmemId },
    /// Per-row mean and reciprocal-σ over the *full* rows of a global
    /// tensor (optionally summed element-wise with a second tensor), written
    /// into `rows × 1` shared buffers. Block-root statement backing the
    /// prologue-LayerNorm stitch: it reads raw f32 global memory in row
    /// order so the stats are bit-identical to the graph reference.
    /// Out-of-range rows get `mean = 0`, `rstd = 1`.
    RowNormStats {
        a: TileAccess,
        residual: Option<TileAccess>,
        rows: u64,
        cols: u64,
        mean: SmemId,
        rstd: SmemId,
        eps: f32,
    },
    /// In-place row normalization of `target` with per-row stats and an
    /// optional affine transform, rounding each element to `round`:
    /// `t[r,c] = round(((t[r,c] - mean[r]) * rstd[r]) * gamma[c] + beta[c])`.
    NormalizeTile {
        target: SmemId,
        mean: SmemId,
        rstd: SmemId,
        gamma: Option<SmemId>,
        beta: Option<SmemId>,
        round: DType,
    },
    /// Round every element of `target` to `dtype` in place — mirrors the
    /// store-then-reload precision loss at an unfused kernel boundary.
    Quantize { target: SmemId, dtype: DType },
    /// `target[r,c] += src[r,c]` read raw (f32) from global memory; rows
    /// past the tensor extent contribute zero. Epilogue residual stitch.
    AddGlobal { target: SmemId, src: TileAccess },
    /// Recompute the prologue LayerNorm output at this block's tail columns
    /// from raw global memory and add it to `target` in f32 (the
    /// `PrologueOut` epilogue residual — the unfused layout consumes the
    /// *unquantized* LayerNorm values, so they are rebuilt exactly).
    AddRecomputedNorm {
        target: SmemId,
        a: TileAccess,
        residual: Option<TileAccess>,
        mean: SmemId,
        rstd: SmemId,
        gamma: Option<SmemId>,
        beta: Option<SmemId>,
    },
    /// Full-row LayerNorm of `target` in f32. The tile's columns must span
    /// the whole normalized axis (lowering enforces `t_n == d_L`).
    LayerNormTile {
        target: SmemId,
        gamma: Option<SmemId>,
        beta: Option<SmemId>,
        eps: f32,
    },
}

/// Call `f(access, is_store)` on every global-memory access in `stmts`,
/// loop bodies included: loads, stores, and the raw-global reads of the
/// stitched prologue/epilogue statements. The verifier's shared-slab
/// check and batch widening both classify buffers by this walk, where a
/// missed statement would silently misclassify its buffer; a new
/// accessing statement is added here once.
pub fn visit_accesses(stmts: &[BlockStmt], f: &mut impl FnMut(&TileAccess, bool)) {
    for s in stmts {
        match s {
            BlockStmt::Loop { body, .. } => visit_accesses(body, f),
            BlockStmt::Load { src, .. } | BlockStmt::AddGlobal { src, .. } => f(src, false),
            BlockStmt::Store { dst, .. } => f(dst, true),
            BlockStmt::RowNormStats { a, residual, .. }
            | BlockStmt::AddRecomputedNorm { a, residual, .. } => {
                f(a, false);
                if let Some(r) = residual {
                    f(r, false);
                }
            }
            _ => {}
        }
    }
}

/// [`visit_accesses`] with mutable access to each [`TileAccess`].
pub fn visit_accesses_mut(stmts: &mut [BlockStmt], f: &mut impl FnMut(&mut TileAccess, bool)) {
    for s in stmts {
        match s {
            BlockStmt::Loop { body, .. } => visit_accesses_mut(body, f),
            BlockStmt::Load { src, .. } | BlockStmt::AddGlobal { src, .. } => f(src, false),
            BlockStmt::Store { dst, .. } => f(dst, true),
            BlockStmt::RowNormStats { a, residual, .. }
            | BlockStmt::AddRecomputedNorm { a, residual, .. } => {
                f(a, false);
                if let Some(r) = residual {
                    f(r, false);
                }
            }
            _ => {}
        }
    }
}

/// A complete virtual kernel.
#[derive(Debug, Clone, PartialEq)]
pub struct TileProgram {
    /// Kernel name.
    pub name: String,
    /// Global buffers.
    pub buffers: Vec<BufferDecl>,
    /// Shared-memory tile buffers.
    pub smem: Vec<SmemDecl>,
    /// Launch-grid extents; `VarRef::Grid(i)` ranges over `0..grid[i]`.
    pub grid: Vec<u64>,
    /// Per-block statement list.
    pub body: Vec<BlockStmt>,
    /// Operand precision seen by tensor cores (input tiles).
    pub dtype: DType,
    /// Buffer dimensions where partial-tile clipping is *declared*
    /// (see [`ClipMark`]). Populated by the lowering; hand-built
    /// programs default to empty, so any clipped access they contain is
    /// rejected by [`crate::verify::verify_program`].
    pub clip_ok: Vec<ClipMark>,
}

/// Structural validation error.
#[allow(missing_docs)]
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProgramError {
    UnknownBuffer(BufId),
    UnknownSmem(SmemId),
    /// A tile access has the wrong number of indices for its buffer.
    RankMismatch {
        buf: BufId,
        rank: usize,
        indices: usize,
    },
    /// GEMM operand tile shapes do not agree.
    GemmShapeMismatch {
        a: SmemId,
        b: SmemId,
        acc: SmemId,
    },
    /// A GEMM's accumulator is also one of its operands: the kernel
    /// would read the tile it is writing.
    GemmAliased {
        a: SmemId,
        b: SmemId,
        acc: SmemId,
    },
    /// A loop handle is reused in overlapping scopes.
    DuplicateLoop(LoopHandle),
    /// `VarRef::Grid(i)` with `i` out of range of the grid rank.
    UnknownGridDim(usize),
    /// Loop with zero extent.
    EmptyLoop(LoopHandle),
    /// A tile access references a `VarRef::Loop` whose handle is not in
    /// scope at the statement — either never defined or already popped.
    /// The interpreter would silently read the handle's *last* value
    /// (or 0), so this is a miscompile, not a runtime error.
    LoopOutOfScope(LoopHandle),
}

impl std::fmt::Display for ProgramError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProgramError::UnknownBuffer(b) => write!(f, "unknown buffer {:?}", b),
            ProgramError::UnknownSmem(s) => write!(f, "unknown smem buffer {:?}", s),
            ProgramError::RankMismatch { buf, rank, indices } => write!(
                f,
                "tile access on {:?} has {} indices but buffer rank is {}",
                buf, indices, rank
            ),
            ProgramError::GemmShapeMismatch { a, b, acc } => {
                write!(f, "gemm shape mismatch a={:?} b={:?} acc={:?}", a, b, acc)
            }
            ProgramError::GemmAliased { a, b, acc } => {
                write!(
                    f,
                    "gemm accumulator aliases an operand a={a:?} b={b:?} acc={acc:?}"
                )
            }
            ProgramError::DuplicateLoop(l) => write!(f, "loop {:?} redefined in scope", l),
            ProgramError::UnknownGridDim(i) => write!(f, "grid dim {} out of range", i),
            ProgramError::EmptyLoop(l) => write!(f, "loop {:?} has zero extent", l),
            ProgramError::LoopOutOfScope(l) => {
                write!(f, "tile access references loop {:?} out of scope", l)
            }
        }
    }
}

impl std::error::Error for ProgramError {}

impl TileProgram {
    /// Number of thread blocks in the launch grid.
    pub fn num_blocks(&self) -> u64 {
        self.grid.iter().product::<u64>().max(1)
    }

    /// Physical shared-memory footprint per block (padding + double
    /// buffering included) — the quantity Fig. 10 calls "measured".
    pub fn smem_bytes(&self) -> u64 {
        self.smem.iter().map(SmemDecl::alloc_bytes).sum()
    }

    /// Structural validation: buffer/smem ids in range, access ranks match,
    /// GEMM tile shapes compose, loop handles unique along each path.
    pub fn validate(&self) -> Result<(), ProgramError> {
        let mut live_loops: Vec<LoopHandle> = Vec::new();
        self.validate_stmts(&self.body, &mut live_loops)
    }

    fn validate_access(
        &self,
        acc: &TileAccess,
        live_loops: &[LoopHandle],
    ) -> Result<(), ProgramError> {
        let buf = self
            .buffers
            .get(acc.buf.0)
            .ok_or(ProgramError::UnknownBuffer(acc.buf))?;
        if acc.indices.len() != buf.shape.len() {
            return Err(ProgramError::RankMismatch {
                buf: acc.buf,
                rank: buf.shape.len(),
                indices: acc.indices.len(),
            });
        }
        for idx in &acc.indices {
            self.validate_index(idx, live_loops)?;
        }
        Ok(())
    }

    fn validate_index(
        &self,
        idx: &TileIndex,
        live_loops: &[LoopHandle],
    ) -> Result<(), ProgramError> {
        match idx.var {
            VarRef::Grid(g) => {
                if g >= self.grid.len() {
                    return Err(ProgramError::UnknownGridDim(g));
                }
            }
            VarRef::Loop(h) => {
                // An index on a popped (or never-defined) handle would
                // execute against the handle's stale environment slot
                // — reject it here instead of letting the interpreter
                // silently address the wrong tile.
                if !live_loops.contains(&h) {
                    return Err(ProgramError::LoopOutOfScope(h));
                }
            }
            VarRef::Zero | VarRef::Const(_) => {}
        }
        Ok(())
    }

    fn smem_decl(&self, id: SmemId) -> Result<&SmemDecl, ProgramError> {
        self.smem.get(id.0).ok_or(ProgramError::UnknownSmem(id))
    }

    fn validate_stmts(
        &self,
        stmts: &[BlockStmt],
        live_loops: &mut Vec<LoopHandle>,
    ) -> Result<(), ProgramError> {
        for s in stmts {
            match s {
                BlockStmt::Loop {
                    handle,
                    extent,
                    body,
                } => {
                    if *extent == 0 {
                        return Err(ProgramError::EmptyLoop(*handle));
                    }
                    if live_loops.contains(handle) {
                        return Err(ProgramError::DuplicateLoop(*handle));
                    }
                    live_loops.push(*handle);
                    self.validate_stmts(body, live_loops)?;
                    live_loops.pop();
                }
                BlockStmt::Load { src, dst } => {
                    self.validate_access(src, live_loops)?;
                    self.smem_decl(*dst)?;
                }
                BlockStmt::Store { dst, src } => {
                    self.validate_access(dst, live_loops)?;
                    self.smem_decl(*src)?;
                }
                BlockStmt::Fill { dst, .. } => {
                    self.smem_decl(*dst)?;
                }
                BlockStmt::Gemm { a, b, acc, acc_col } => {
                    if acc == a || acc == b {
                        return Err(ProgramError::GemmAliased {
                            a: *a,
                            b: *b,
                            acc: *acc,
                        });
                    }
                    let (da, db, dacc) = (
                        self.smem_decl(*a)?,
                        self.smem_decl(*b)?,
                        self.smem_decl(*acc)?,
                    );
                    if da.cols != db.rows || da.rows != dacc.rows || *acc_col + db.cols > dacc.cols
                    {
                        return Err(ProgramError::GemmShapeMismatch {
                            a: *a,
                            b: *b,
                            acc: *acc,
                        });
                    }
                }
                BlockStmt::OnlineSoftmax {
                    scores,
                    row_max,
                    row_sum,
                    rescale,
                    clip,
                    ..
                } => {
                    if let Some((idx, _)) = clip {
                        self.validate_index(idx, live_loops)?;
                    }
                    let ds = self.smem_decl(*scores)?;
                    let dm = self.smem_decl(*row_max)?;
                    let dn = self.smem_decl(*row_sum)?;
                    if dm.rows != ds.rows || dn.rows != ds.rows {
                        return Err(ProgramError::GemmShapeMismatch {
                            a: *scores,
                            b: *row_max,
                            acc: *row_sum,
                        });
                    }
                    for r in rescale {
                        let dr = self.smem_decl(*r)?;
                        if dr.rows != ds.rows {
                            return Err(ProgramError::GemmShapeMismatch {
                                a: *scores,
                                b: *r,
                                acc: *row_sum,
                            });
                        }
                    }
                }
                BlockStmt::RowDiv { target, denom } => {
                    let dt = self.smem_decl(*target)?;
                    let dd = self.smem_decl(*denom)?;
                    if dt.rows != dd.rows {
                        return Err(ProgramError::GemmShapeMismatch {
                            a: *target,
                            b: *denom,
                            acc: *denom,
                        });
                    }
                }
                BlockStmt::AddBias { target, bias } => {
                    let dt = self.smem_decl(*target)?;
                    let db = self.smem_decl(*bias)?;
                    if db.cols != dt.cols {
                        return Err(ProgramError::GemmShapeMismatch {
                            a: *target,
                            b: *bias,
                            acc: *bias,
                        });
                    }
                }
                BlockStmt::AddTile { target, other } => {
                    let dt = self.smem_decl(*target)?;
                    let d2 = self.smem_decl(*other)?;
                    if dt.rows != d2.rows || dt.cols != d2.cols {
                        return Err(ProgramError::GemmShapeMismatch {
                            a: *target,
                            b: *other,
                            acc: *other,
                        });
                    }
                }
                BlockStmt::Relu { target }
                | BlockStmt::Gelu { target }
                | BlockStmt::Scale { target, .. }
                | BlockStmt::Quantize { target, .. } => {
                    self.smem_decl(*target)?;
                }
                BlockStmt::RowNormStats {
                    a,
                    residual,
                    rows,
                    mean,
                    rstd,
                    ..
                } => {
                    self.validate_access(a, live_loops)?;
                    if let Some(res) = residual {
                        self.validate_access(res, live_loops)?;
                    }
                    let dm = self.smem_decl(*mean)?;
                    let dr = self.smem_decl(*rstd)?;
                    if dm.rows < *rows || dr.rows < *rows {
                        return Err(ProgramError::GemmShapeMismatch {
                            a: *mean,
                            b: *rstd,
                            acc: *mean,
                        });
                    }
                }
                BlockStmt::NormalizeTile {
                    target,
                    mean,
                    rstd,
                    gamma,
                    beta,
                    ..
                } => {
                    let dt = self.smem_decl(*target)?;
                    let dm = self.smem_decl(*mean)?;
                    let dr = self.smem_decl(*rstd)?;
                    if dm.rows < dt.rows || dr.rows < dt.rows {
                        return Err(ProgramError::GemmShapeMismatch {
                            a: *target,
                            b: *mean,
                            acc: *rstd,
                        });
                    }
                    for aff in [gamma, beta].into_iter().flatten() {
                        let da = self.smem_decl(*aff)?;
                        if da.cols != dt.cols {
                            return Err(ProgramError::GemmShapeMismatch {
                                a: *target,
                                b: *aff,
                                acc: *aff,
                            });
                        }
                    }
                }
                BlockStmt::AddGlobal { target, src } => {
                    self.smem_decl(*target)?;
                    self.validate_access(src, live_loops)?;
                }
                BlockStmt::AddRecomputedNorm {
                    target,
                    a,
                    residual,
                    mean,
                    rstd,
                    gamma,
                    beta,
                } => {
                    let dt = self.smem_decl(*target)?;
                    self.validate_access(a, live_loops)?;
                    if let Some(res) = residual {
                        self.validate_access(res, live_loops)?;
                    }
                    let dm = self.smem_decl(*mean)?;
                    let dr = self.smem_decl(*rstd)?;
                    if dm.rows < dt.rows || dr.rows < dt.rows {
                        return Err(ProgramError::GemmShapeMismatch {
                            a: *target,
                            b: *mean,
                            acc: *rstd,
                        });
                    }
                    for aff in [gamma, beta].into_iter().flatten() {
                        let da = self.smem_decl(*aff)?;
                        if da.cols != dt.cols {
                            return Err(ProgramError::GemmShapeMismatch {
                                a: *target,
                                b: *aff,
                                acc: *aff,
                            });
                        }
                    }
                }
                BlockStmt::LayerNormTile {
                    target,
                    gamma,
                    beta,
                    ..
                } => {
                    let dt = self.smem_decl(*target)?;
                    for aff in [gamma, beta].into_iter().flatten() {
                        let da = self.smem_decl(*aff)?;
                        if da.cols != dt.cols {
                            return Err(ProgramError::GemmShapeMismatch {
                                a: *target,
                                b: *aff,
                                acc: *aff,
                            });
                        }
                    }
                }
            }
        }
        Ok(())
    }
}

/// Ergonomic builder for [`TileProgram`]s, used by lowering and by the
/// baseline backends when they synthesize library kernels.
#[derive(Debug, Default)]
pub struct ProgramBuilder {
    name: String,
    buffers: Vec<BufferDecl>,
    smem: Vec<SmemDecl>,
    grid: Vec<u64>,
    dtype: DType,
    next_loop: usize,
}

impl ProgramBuilder {
    /// Start building a kernel with the given compute precision.
    pub fn new(name: impl Into<String>, dtype: DType) -> Self {
        ProgramBuilder {
            name: name.into(),
            dtype,
            ..Default::default()
        }
    }

    /// Declare a global buffer.
    pub fn buffer(
        &mut self,
        name: impl Into<String>,
        shape: Vec<u64>,
        dtype: DType,
        role: BufferRole,
    ) -> BufId {
        self.buffers.push(BufferDecl {
            name: name.into(),
            shape,
            dtype,
            role,
        });
        BufId(self.buffers.len() - 1)
    }

    /// Declare a plain shared-memory tile.
    pub fn smem(&mut self, name: impl Into<String>, rows: u64, cols: u64, dtype: DType) -> SmemId {
        self.smem.push(SmemDecl {
            name: name.into(),
            rows,
            cols,
            dtype,
            pad_cols: 0,
            double_buffered: false,
            streamed: false,
        });
        SmemId(self.smem.len() - 1)
    }

    /// Declare a shared buffer with explicit intra-tile policy.
    pub fn smem_with(
        &mut self,
        name: impl Into<String>,
        rows: u64,
        cols: u64,
        dtype: DType,
        pad_cols: u64,
        double_buffered: bool,
    ) -> SmemId {
        self.smem.push(SmemDecl {
            name: name.into(),
            rows,
            cols,
            dtype,
            pad_cols,
            double_buffered,
            streamed: false,
        });
        SmemId(self.smem.len() - 1)
    }

    /// Append a grid dimension, returning its `VarRef`.
    pub fn grid_dim(&mut self, extent: u64) -> VarRef {
        self.grid.push(extent);
        VarRef::Grid(self.grid.len() - 1)
    }

    /// Allocate a fresh loop handle.
    pub fn fresh_loop(&mut self) -> LoopHandle {
        let h = LoopHandle(self.next_loop);
        self.next_loop += 1;
        h
    }

    /// Finish, attaching the per-block body.
    pub fn finish(self, body: Vec<BlockStmt>) -> TileProgram {
        TileProgram {
            name: self.name,
            buffers: self.buffers,
            smem: self.smem,
            grid: self.grid,
            body,
            dtype: self.dtype,
            clip_ok: Vec::new(),
        }
    }
}

/// Ceiling division for tile counts.
#[inline]
pub fn ceil_div(a: u64, b: u64) -> u64 {
    debug_assert!(b > 0);
    a.div_ceil(b)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_program() -> TileProgram {
        // C[64,64] = A[64,32] x B[32,64], one block, one k-iteration.
        let mut b = ProgramBuilder::new("tiny", DType::F16);
        let a = b.buffer("A", vec![64, 32], DType::F16, BufferRole::Input);
        let bb = b.buffer("B", vec![32, 64], DType::F16, BufferRole::Input);
        let c = b.buffer("C", vec![64, 64], DType::F16, BufferRole::Output);
        let sa = b.smem("sA", 64, 32, DType::F16);
        let sb = b.smem("sB", 32, 64, DType::F16);
        let sc = b.smem("sC", 64, 64, DType::F32);
        let gm = b.grid_dim(1);
        let body = vec![
            BlockStmt::Fill {
                dst: sc,
                value: 0.0,
            },
            BlockStmt::Load {
                src: TileAccess {
                    buf: a,
                    indices: vec![
                        TileIndex { var: gm, tile: 64 },
                        TileIndex {
                            var: VarRef::Zero,
                            tile: 32,
                        },
                    ],
                },
                dst: sa,
            },
            BlockStmt::Load {
                src: TileAccess {
                    buf: bb,
                    indices: vec![
                        TileIndex {
                            var: VarRef::Zero,
                            tile: 32,
                        },
                        TileIndex {
                            var: VarRef::Zero,
                            tile: 64,
                        },
                    ],
                },
                dst: sb,
            },
            BlockStmt::Gemm {
                a: sa,
                b: sb,
                acc: sc,
                acc_col: 0,
            },
            BlockStmt::Store {
                dst: TileAccess {
                    buf: c,
                    indices: vec![
                        TileIndex { var: gm, tile: 64 },
                        TileIndex {
                            var: VarRef::Zero,
                            tile: 64,
                        },
                    ],
                },
                src: sc,
            },
        ];
        b.finish(body)
    }

    #[test]
    fn valid_program_passes() {
        tiny_program().validate().unwrap();
    }

    #[test]
    fn num_blocks_and_smem() {
        let p = tiny_program();
        assert_eq!(p.num_blocks(), 1);
        // 64*32*2 + 32*64*2 + 64*64*4 bytes.
        assert_eq!(p.smem_bytes(), 64 * 32 * 2 + 32 * 64 * 2 + 64 * 64 * 4);
    }

    #[test]
    fn gemm_shape_mismatch_detected() {
        let mut p = tiny_program();
        // Shrink sB's K dim so the gemm no longer composes.
        p.smem[1].rows = 16;
        assert!(matches!(
            p.validate(),
            Err(ProgramError::GemmShapeMismatch { .. })
        ));
    }

    #[test]
    fn gemm_accumulating_into_an_operand_is_rejected() {
        // Square tiles, so every operand/accumulator pairing composes and
        // only the aliasing is wrong.
        let mut p = tiny_program();
        p.smem[0].cols = 64;
        p.smem[1].rows = 64;
        let gemm = |a, b, acc| BlockStmt::Gemm {
            a: SmemId(a),
            b: SmemId(b),
            acc: SmemId(acc),
            acc_col: 0,
        };
        let at = p
            .body
            .iter()
            .position(|s| matches!(s, BlockStmt::Gemm { .. }));
        let at = at.expect("tiny_program has a GEMM");
        for (a, b) in [(2, 1), (0, 2), (2, 2)] {
            p.body[at] = gemm(a, b, 2);
            let err = ProgramError::GemmAliased {
                a: SmemId(a),
                b: SmemId(b),
                acc: SmemId(2),
            };
            assert_eq!(p.validate(), Err(err), "a={a} b={b}");
        }
        p.body[at] = gemm(0, 1, 2);
        p.validate().unwrap();
    }

    #[test]
    fn rank_mismatch_detected() {
        let mut p = tiny_program();
        if let BlockStmt::Load { src, .. } = &mut p.body[1] {
            src.indices.pop();
        }
        assert!(matches!(
            p.validate(),
            Err(ProgramError::RankMismatch { .. })
        ));
    }

    #[test]
    fn duplicate_loop_detected() {
        let mut p = tiny_program();
        let h = LoopHandle(0);
        let inner = BlockStmt::Loop {
            handle: h,
            extent: 2,
            body: vec![],
        };
        p.body = vec![BlockStmt::Loop {
            handle: h,
            extent: 2,
            body: vec![inner],
        }];
        assert!(matches!(p.validate(), Err(ProgramError::DuplicateLoop(_))));
    }

    #[test]
    fn sibling_loops_may_share_handles_not() {
        // Sibling loops with the same handle are fine structurally? No —
        // the builder always hands out fresh handles; reuse in *nested*
        // scopes is the error validate() guards against. Sibling reuse is
        // allowed (scopes don't overlap).
        let mut p = tiny_program();
        let h = LoopHandle(0);
        p.body = vec![
            BlockStmt::Loop {
                handle: h,
                extent: 2,
                body: vec![],
            },
            BlockStmt::Loop {
                handle: h,
                extent: 2,
                body: vec![],
            },
        ];
        p.validate().unwrap();
    }

    #[test]
    fn out_of_scope_loop_index_rejected() {
        // A load indexed by a loop handle whose loop has already closed:
        // before the live-scope check this validated clean and silently
        // read the handle's stale environment slot at run time.
        let mut p = tiny_program();
        let h = LoopHandle(0);
        let load = p.body.remove(1); // the A-tile load
        let mut stale_load = load.clone();
        if let BlockStmt::Load { src, .. } = &mut stale_load {
            src.indices[0].var = VarRef::Loop(h);
        }
        p.body.insert(
            1,
            BlockStmt::Loop {
                handle: h,
                extent: 1,
                body: vec![load],
            },
        );
        // Same handle used *outside* the loop: out of scope.
        p.body.insert(2, stale_load);
        assert_eq!(p.validate(), Err(ProgramError::LoopOutOfScope(h)));

        // Inside the loop the same index is fine.
        let mut ok = tiny_program();
        let load = ok.body.remove(1);
        let mut looped = load.clone();
        if let BlockStmt::Load { src, .. } = &mut looped {
            src.indices[0].var = VarRef::Loop(h);
        }
        ok.body.insert(
            1,
            BlockStmt::Loop {
                handle: h,
                extent: 1,
                body: vec![looped],
            },
        );
        ok.validate().unwrap();
    }

    #[test]
    fn zero_extent_loop_rejected() {
        let mut p = tiny_program();
        p.body = vec![BlockStmt::Loop {
            handle: LoopHandle(0),
            extent: 0,
            body: vec![],
        }];
        assert!(matches!(p.validate(), Err(ProgramError::EmptyLoop(_))));
    }

    #[test]
    fn double_buffering_doubles_footprint() {
        let d = SmemDecl {
            name: "t".into(),
            rows: 16,
            cols: 16,
            dtype: DType::F16,
            pad_cols: 8,
            double_buffered: true,
            streamed: false,
        };
        assert_eq!(d.alloc_bytes(), 16 * 24 * 2 * 2);
        let s = SmemDecl {
            streamed: true,
            ..d
        };
        assert_eq!(s.alloc_bytes(), 0);
    }

    #[test]
    fn ceil_div_works() {
        assert_eq!(ceil_div(1024, 16), 64);
        assert_eq!(ceil_div(1000, 16), 63);
        assert_eq!(ceil_div(1, 16), 1);
    }
}
