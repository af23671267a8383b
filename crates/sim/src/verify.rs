//! `mcfuser-verify` — static analysis over lowered [`TileProgram`]s.
//!
//! The runtime test suites prove lowered kernels correct by *executing*
//! them against a reference; this module proves a complementary set of
//! properties *symbolically*, before a program is ever measured, cached,
//! widened, or served. It is the compile-time gate behind the ROADMAP's
//! "degrade, never miscompile" promise: a program that fails any
//! analysis is demoted (to its unstitched twin, the serial path, or the
//! reference interpreter) instead of being launched.
//!
//! Three analyses run in one walk of the block program:
//!
//! 1. **Symbolic bounds** — every [`TileAccess`] index is evaluated as
//!    an interval over the launch grid, the live loop extents, and
//!    `VarRef::Zero`/`VarRef::Const`. Each global load/store must start
//!    in-bounds for the declared buffer shape, and may run past the end
//!    of a dimension (the interpreter zero-pads loads and clips stores)
//!    *only* where the lowering explicitly declared a partial final tile
//!    via a [`ClipMark`]. An unmarked clip is exactly the signature of a
//!    shifted index or a wrong grid variable hiding behind the
//!    interpreter's forgiving semantics, and is rejected.
//! 2. **Initialization / def-use** — shared-memory state is abstractly
//!    interpreted per block: loads, fills, and stat writes are
//!    definitions; GEMMs, stores, and epilogue statements are uses (most
//!    epilogues are read-modify-write). The analysis rejects
//!    read-before-write (with a dedicated variant for an uninitialized
//!    GEMM accumulator), dead stores whose value no statement ever
//!    observes, out-of-scope `VarRef::Loop` handles, and dtype-flow
//!    violations across the f16-storage / f32-compute boundary
//!    (accumulators and normalization statistics must live in f32).
//! 3. **Inter-block races** — each block's written global footprint is
//!    computed symbolically and proved disjoint across the grid: every
//!    launch-grid dimension with more than one block must separate the
//!    footprint of every store by at least its span. Input buffers must
//!    never be written, every `Output`-role buffer must be written by at
//!    least one store, and no program reads a buffer it stores, so no
//!    block ever sees another block's output and every order of the
//!    blocks computes the same result. [`verify_widened`] adds the
//!    widened-batch special case: a `VarRef::Zero`-pinned shared
//!    weight/aux slab must be read-only in every slot.
//!
//! A [`VerifiedProgram`] also carries its [`Lanes`]: which shared tiles
//! can differ between the blocks of one grid row, so that the executor
//! runs the rest of the row's work once.
//!
//! The engine runs [`verify_program`] on every fresh tuning winner and
//! every cache rehydration. `CompiledModel::plan` re-verifies each
//! served kernel into a [`VerifiedProgram`], and `BatchedPlan` widening
//! builds each widened program with [`VerifiedProgram::widened`] (see
//! the `mcfuser-core` crate). [`VerifiedProgram`] is the only program
//! type the executor accepts, so a launch never re-checks what the
//! plan already proved. The `verify_smoke` bench bin sweeps sampled
//! candidates across every workload family and asserts zero
//! violations.

use crate::dtype::DType;
use crate::exec::HostTensor;
use crate::kernel::{
    visit_accesses, BlockStmt, BufId, BufferRole, ClipMark, LoopHandle, ProgramError, SmemId,
    TileAccess, TileProgram, VarRef,
};

/// A violation found by the static verifier. Every variant names the
/// object it fired on, so demotion paths and tests can match
/// structurally instead of string-matching a message.
#[derive(Debug, Clone, PartialEq)]
pub enum VerifyError {
    /// The program failed [`TileProgram::validate`] before any symbolic
    /// analysis ran.
    Structural(ProgramError),
    /// An access's symbolic start escapes the buffer along `dim`: the
    /// interpreter would zero-fill the whole tile (loads) or drop the
    /// write (stores) for at least one block.
    OutOfBounds {
        /// Buffer name.
        buf: String,
        /// Offending dimension.
        dim: usize,
        /// Maximum symbolic start offset along `dim`.
        start_max: u64,
        /// Declared extent of `dim`.
        extent: u64,
    },
    /// An access runs past the end of `dim` without a matching
    /// [`ClipMark`] — clipping that the lowering never declared.
    UnmarkedClip {
        /// Buffer name.
        buf: String,
        /// Offending dimension.
        dim: usize,
        /// Maximum symbolic end offset (start + span) along `dim`.
        end_max: u64,
        /// Declared extent of `dim`.
        extent: u64,
    },
    /// A raw-view statement (`RowNormStats`, `AddGlobal`,
    /// `AddRecomputedNorm`) targets a rank-<2 buffer; the executors
    /// require a matrix-shaped view.
    RawViewRank {
        /// Buffer name.
        buf: String,
    },
    /// A statement reads a shared-memory tile no statement has written.
    ReadBeforeWrite {
        /// Shared-buffer name.
        smem: String,
    },
    /// A GEMM accumulates into a tile that was never initialized
    /// (no `Fill` reached the `Gemm`) — garbage in the partial sums.
    UninitializedAccumulator {
        /// Accumulator shared-buffer name.
        smem: String,
    },
    /// A load/fill writes a tile whose value no later statement
    /// observes before it is overwritten or the block ends.
    DeadStore {
        /// Shared-buffer name.
        smem: String,
    },
    /// A tile that must carry f32 across the f16-storage / f32-compute
    /// boundary (GEMM accumulators, softmax and LayerNorm statistics)
    /// is declared at a narrower precision.
    DTypeFlow {
        /// Shared-buffer name.
        smem: String,
        /// Required precision.
        expected: DType,
        /// Declared precision.
        got: DType,
    },
    /// A store's footprint does not reference launch-grid dimension
    /// `grid_dim` (which has more than one block): two blocks differing
    /// only in that dimension would write the same elements.
    RaceOnGridDim {
        /// Buffer name.
        buf: String,
        /// The unreferenced grid dimension.
        grid_dim: usize,
    },
    /// A store advances by less than its span along `dim`: adjacent
    /// blocks write overlapping windows.
    OverlappingTiles {
        /// Buffer name.
        buf: String,
        /// Offending dimension.
        dim: usize,
        /// The stride (`var * tile`) between adjacent blocks.
        tile: u64,
        /// The written span along `dim`.
        span: u64,
    },
    /// Two stores to the same buffer disagree on their grid-indexed
    /// dimensions, so the cross-block disjointness proof does not
    /// compose across statements.
    InconsistentStores {
        /// Buffer name.
        buf: String,
    },
    /// A store targets an `Input`-role buffer — fused kernels must
    /// treat caller-staged tensors as read-only.
    InputWritten {
        /// Buffer name.
        buf: String,
    },
    /// An `Output`-role buffer is never stored to: the kernel would
    /// return whatever the arena handed out.
    OutputNeverStored {
        /// Buffer name.
        buf: String,
    },
    /// A widened-batch shared slab (`VarRef::Zero`-pinned leading
    /// index) is written: one request slot would corrupt the weights
    /// every other slot reads.
    SharedBufferWritten {
        /// Buffer name.
        buf: String,
    },
    /// A load or raw-global read names a buffer the program also
    /// stores: a block could read another block's output, and the
    /// result would depend on the order the blocks run in.
    ReadsStoredBuffer {
        /// Buffer name.
        buf: String,
    },
}

impl std::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VerifyError::Structural(e) => write!(f, "structural: {e}"),
            VerifyError::OutOfBounds {
                buf,
                dim,
                start_max,
                extent,
            } => write!(
                f,
                "access on '{buf}' dim {dim} starts at {start_max} past extent {extent}"
            ),
            VerifyError::UnmarkedClip {
                buf,
                dim,
                end_max,
                extent,
            } => write!(
                f,
                "access on '{buf}' dim {dim} clips at {end_max} > extent {extent} without a \
                 declared partial tile"
            ),
            VerifyError::RawViewRank { buf } => {
                write!(f, "raw-view statement on rank-<2 buffer '{buf}'")
            }
            VerifyError::ReadBeforeWrite { smem } => {
                write!(f, "shared tile '{smem}' is read before any write")
            }
            VerifyError::UninitializedAccumulator { smem } => {
                write!(f, "gemm accumulates into uninitialized tile '{smem}'")
            }
            VerifyError::DeadStore { smem } => {
                write!(f, "write to shared tile '{smem}' is never observed")
            }
            VerifyError::DTypeFlow {
                smem,
                expected,
                got,
            } => write!(
                f,
                "tile '{smem}' must be {expected:?} across the storage/compute boundary, \
                 declared {got:?}"
            ),
            VerifyError::RaceOnGridDim { buf, grid_dim } => write!(
                f,
                "store footprint on '{buf}' ignores grid dim {grid_dim}: blocks would overlap"
            ),
            VerifyError::OverlappingTiles {
                buf,
                dim,
                tile,
                span,
            } => write!(
                f,
                "store on '{buf}' dim {dim} advances {tile} but writes {span}: adjacent blocks \
                 overlap"
            ),
            VerifyError::InconsistentStores { buf } => write!(
                f,
                "stores to '{buf}' disagree on grid-indexed dims; disjointness unprovable"
            ),
            VerifyError::InputWritten { buf } => {
                write!(f, "store targets input buffer '{buf}'")
            }
            VerifyError::OutputNeverStored { buf } => {
                write!(f, "output buffer '{buf}' is never written")
            }
            VerifyError::SharedBufferWritten { buf } => {
                write!(f, "widened shared slab '{buf}' is written by the kernel")
            }
            VerifyError::ReadsStoredBuffer { buf } => {
                write!(f, "buffer '{buf}' is both stored and read by the kernel")
            }
        }
    }
}

impl std::error::Error for VerifyError {}

impl From<ProgramError> for VerifyError {
    fn from(e: ProgramError) -> Self {
        VerifyError::Structural(e)
    }
}

/// What one [`verify_program`] run proved — returned on success so
/// callers (engine stats, the `verify_smoke` bench) can account for the
/// work without re-walking the program.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VerifyReport {
    /// Statements walked (loops count once, bodies inline).
    pub stmts: usize,
    /// Global tile accesses bounds-checked.
    pub accesses: usize,
    /// Global stores proved race-free across the grid.
    pub stores: usize,
    /// Accesses that clip and were covered by a declared [`ClipMark`].
    pub clipped: usize,
}

// --- access geometry --------------------------------------------------

/// The per-dimension span of an access, mirroring the executors: the
/// trailing `min(rank, 2)` dims span `rows × cols` (rank-1 buffers span
/// `cols` along their only dim); leading dims select a single slice.
fn spans(rank: usize, rows: u64, cols: u64) -> Vec<u64> {
    let mut v = vec![1u64; rank];
    if rank >= 2 {
        v[rank - 2] = rows;
        v[rank - 1] = cols;
    } else if rank == 1 {
        v[0] = cols;
    }
    v
}

/// Maximum value a [`VarRef`] can take under the given grid and live
/// loop scope. `None` for a loop handle that is not in scope.
fn var_max(var: VarRef, grid: &[u64], scope: &[(LoopHandle, u64)]) -> Option<u64> {
    match var {
        VarRef::Grid(i) => Some(grid[i].saturating_sub(1)),
        VarRef::Loop(h) => scope
            .iter()
            .rev()
            .find(|(sh, _)| *sh == h)
            .map(|(_, extent)| extent - 1),
        VarRef::Zero => Some(0),
        VarRef::Const(c) => Some(c),
    }
}

struct Analysis<'p> {
    p: &'p TileProgram,
    scope: Vec<(LoopHandle, u64)>,
    smem: Vec<SmemState>,
    /// Collected global stores: `(access, spans)`.
    stores: Vec<(TileAccess, Vec<u64>)>,
    report: VerifyReport,
}

#[derive(Debug, Clone, Copy, Default)]
struct SmemState {
    defined: bool,
    /// The last definition was a pure overwrite (load/fill/stat write)
    /// rather than a read-modify-write.
    last_def_pure: bool,
    used_since_def: bool,
}

impl<'p> Analysis<'p> {
    fn new(p: &'p TileProgram) -> Self {
        Analysis {
            p,
            scope: Vec::new(),
            smem: vec![SmemState::default(); p.smem.len()],
            stores: Vec::new(),
            report: VerifyReport::default(),
        }
    }

    fn buf_name(&self, b: BufId) -> String {
        self.p.buffers[b.0].name.clone()
    }

    fn smem_name(&self, s: SmemId) -> String {
        self.p.smem[s.0].name.clone()
    }

    /// Bounds-check one global access with the given per-dim spans.
    fn check_access(&mut self, acc: &TileAccess, spans: &[u64]) -> Result<(), VerifyError> {
        self.report.accesses += 1;
        let shape = &self.p.buffers[acc.buf.0].shape;
        for (d, (ix, (&extent, &span))) in acc
            .indices
            .iter()
            .zip(shape.iter().zip(spans.iter()))
            .enumerate()
        {
            let Some(maxv) = var_max(ix.var, &self.p.grid, &self.scope) else {
                return Err(VerifyError::Structural(ProgramError::LoopOutOfScope(
                    match ix.var {
                        VarRef::Loop(h) => h,
                        _ => unreachable!("only loop vars can be out of scope"),
                    },
                )));
            };
            let start_max = maxv * ix.tile;
            if start_max >= extent {
                return Err(VerifyError::OutOfBounds {
                    buf: self.buf_name(acc.buf),
                    dim: d,
                    start_max,
                    extent,
                });
            }
            let end_max = start_max + span;
            if end_max > extent {
                let marked = self
                    .p
                    .clip_ok
                    .iter()
                    .any(|m| m.buf == acc.buf && m.dim == d);
                if !marked {
                    return Err(VerifyError::UnmarkedClip {
                        buf: self.buf_name(acc.buf),
                        dim: d,
                        end_max,
                        extent,
                    });
                }
                self.report.clipped += 1;
            }
        }
        Ok(())
    }

    /// A raw-view access (`RowNormStats` and friends) — rank must be at
    /// least 2 and the spans come from the statement, not a smem decl.
    fn check_raw_view(
        &mut self,
        acc: &TileAccess,
        rows: u64,
        cols: u64,
    ) -> Result<(), VerifyError> {
        let rank = self.p.buffers[acc.buf.0].shape.len();
        if rank < 2 {
            return Err(VerifyError::RawViewRank {
                buf: self.buf_name(acc.buf),
            });
        }
        let sp = spans(rank, rows, cols);
        self.check_access(acc, &sp)
    }

    /// Record a use of a shared tile; `acc_of_gemm` selects the
    /// dedicated uninitialized-accumulator variant.
    fn use_smem(&mut self, s: SmemId, acc_of_gemm: bool) -> Result<(), VerifyError> {
        let st = &mut self.smem[s.0];
        if !st.defined {
            let smem = self.smem_name(s);
            return Err(if acc_of_gemm {
                VerifyError::UninitializedAccumulator { smem }
            } else {
                VerifyError::ReadBeforeWrite { smem }
            });
        }
        st.used_since_def = true;
        Ok(())
    }

    /// Record a definition. Pure definitions (full overwrites) that
    /// bury an unobserved earlier pure definition are dead stores.
    fn def_smem(&mut self, s: SmemId, pure_def: bool) -> Result<(), VerifyError> {
        let st = &mut self.smem[s.0];
        if pure_def && st.defined && st.last_def_pure && !st.used_since_def {
            return Err(VerifyError::DeadStore {
                smem: self.smem_name(s),
            });
        }
        let st = &mut self.smem[s.0];
        st.defined = true;
        st.last_def_pure = pure_def;
        st.used_since_def = false;
        Ok(())
    }

    /// Require f32 on a tile that crosses the storage/compute boundary.
    fn require_f32(&self, s: SmemId) -> Result<(), VerifyError> {
        let got = self.p.smem[s.0].dtype;
        if got != DType::F32 {
            return Err(VerifyError::DTypeFlow {
                smem: self.smem_name(s),
                expected: DType::F32,
                got,
            });
        }
        Ok(())
    }

    fn walk(&mut self, stmts: &[BlockStmt]) -> Result<(), VerifyError> {
        for s in stmts {
            self.report.stmts += 1;
            match s {
                BlockStmt::Loop {
                    handle,
                    extent,
                    body,
                } => {
                    self.scope.push((*handle, *extent));
                    self.walk(body)?;
                    self.scope.pop();
                    // Loop-carried uses: a tile defined late in the body
                    // and consumed at the top of the next iteration is
                    // observed even though a single sequential pass saw
                    // the def last. Any tile used anywhere in the body
                    // counts as observed after the loop.
                    let mut used = Vec::new();
                    collect_used_smem(body, &mut used);
                    for id in used {
                        self.smem[id.0].used_since_def = true;
                    }
                }
                BlockStmt::Load { src, dst } => {
                    let d = &self.p.smem[dst.0];
                    let sp = spans(self.p.buffers[src.buf.0].shape.len(), d.rows, d.cols);
                    self.check_access(src, &sp)?;
                    self.def_smem(*dst, true)?;
                }
                BlockStmt::Store { dst, src } => {
                    let d = &self.p.smem[src.0];
                    let sp = spans(self.p.buffers[dst.buf.0].shape.len(), d.rows, d.cols);
                    self.check_access(dst, &sp)?;
                    self.use_smem(*src, false)?;
                    self.report.stores += 1;
                    self.stores.push((dst.clone(), sp));
                }
                BlockStmt::Fill { dst, .. } => {
                    self.def_smem(*dst, true)?;
                }
                BlockStmt::Gemm { a, b, acc, .. } => {
                    self.use_smem(*a, false)?;
                    self.use_smem(*b, false)?;
                    self.use_smem(*acc, true)?;
                    self.require_f32(*acc)?;
                    self.def_smem(*acc, false)?;
                }
                BlockStmt::OnlineSoftmax {
                    scores,
                    row_max,
                    row_sum,
                    rescale,
                    ..
                } => {
                    for s in [scores, row_max, row_sum] {
                        self.use_smem(*s, false)?;
                        self.def_smem(*s, false)?;
                    }
                    self.require_f32(*row_max)?;
                    self.require_f32(*row_sum)?;
                    for r in rescale {
                        self.use_smem(*r, false)?;
                        self.def_smem(*r, false)?;
                    }
                }
                BlockStmt::RowDiv { target, denom } => {
                    self.use_smem(*denom, false)?;
                    self.use_smem(*target, false)?;
                    self.def_smem(*target, false)?;
                }
                BlockStmt::Relu { target }
                | BlockStmt::Gelu { target }
                | BlockStmt::Scale { target, .. }
                | BlockStmt::Quantize { target, .. } => {
                    self.use_smem(*target, false)?;
                    self.def_smem(*target, false)?;
                }
                BlockStmt::AddTile { target, other } => {
                    self.use_smem(*other, false)?;
                    self.use_smem(*target, false)?;
                    self.def_smem(*target, false)?;
                }
                BlockStmt::AddBias { target, bias } => {
                    self.use_smem(*bias, false)?;
                    self.use_smem(*target, false)?;
                    self.def_smem(*target, false)?;
                }
                BlockStmt::RowNormStats {
                    a,
                    residual,
                    rows,
                    cols,
                    mean,
                    rstd,
                    ..
                } => {
                    self.check_raw_view(a, *rows, *cols)?;
                    if let Some(res) = residual {
                        self.check_raw_view(res, *rows, *cols)?;
                    }
                    self.require_f32(*mean)?;
                    self.require_f32(*rstd)?;
                    self.def_smem(*mean, true)?;
                    self.def_smem(*rstd, true)?;
                }
                BlockStmt::NormalizeTile {
                    target,
                    mean,
                    rstd,
                    gamma,
                    beta,
                    ..
                } => {
                    self.use_smem(*mean, false)?;
                    self.use_smem(*rstd, false)?;
                    for aff in [gamma, beta].into_iter().flatten() {
                        self.use_smem(*aff, false)?;
                    }
                    self.use_smem(*target, false)?;
                    self.def_smem(*target, false)?;
                }
                BlockStmt::AddGlobal { target, src } => {
                    let d = &self.p.smem[target.0];
                    let (rows, cols) = (d.rows, d.cols);
                    self.check_raw_view(src, rows, cols)?;
                    self.use_smem(*target, false)?;
                    self.def_smem(*target, false)?;
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
                    let d = &self.p.smem[target.0];
                    let (rows, cols) = (d.rows, d.cols);
                    self.check_raw_view(a, rows, cols)?;
                    if let Some(res) = residual {
                        self.check_raw_view(res, rows, cols)?;
                    }
                    self.use_smem(*mean, false)?;
                    self.use_smem(*rstd, false)?;
                    for aff in [gamma, beta].into_iter().flatten() {
                        self.use_smem(*aff, false)?;
                    }
                    self.use_smem(*target, false)?;
                    self.def_smem(*target, false)?;
                }
                BlockStmt::LayerNormTile {
                    target,
                    gamma,
                    beta,
                    ..
                } => {
                    for aff in [gamma, beta].into_iter().flatten() {
                        self.use_smem(*aff, false)?;
                    }
                    self.use_smem(*target, false)?;
                    self.def_smem(*target, false)?;
                }
            }
        }
        Ok(())
    }

    /// Inter-block race analysis over the collected stores.
    fn check_races(&self) -> Result<(), VerifyError> {
        // Group stores by buffer, preserving statement order.
        let mut by_buf: Vec<(BufId, Vec<usize>)> = Vec::new();
        for (i, (acc, _)) in self.stores.iter().enumerate() {
            match by_buf.iter_mut().find(|(b, _)| *b == acc.buf) {
                Some((_, v)) => v.push(i),
                None => by_buf.push((acc.buf, vec![i])),
            }
        }
        for (buf, idxs) in &by_buf {
            let decl = &self.p.buffers[buf.0];
            if decl.role == BufferRole::Input {
                return Err(VerifyError::InputWritten {
                    buf: decl.name.clone(),
                });
            }
            // All stores to one buffer must agree on their grid-indexed
            // dims so the per-dimension separation argument composes
            // across statements.
            let first = &self.stores[idxs[0]].0;
            for &i in &idxs[1..] {
                let other = &self.stores[i].0;
                let grid_dims = |a: &TileAccess| {
                    a.indices
                        .iter()
                        .enumerate()
                        .filter(|(_, ix)| matches!(ix.var, VarRef::Grid(_)))
                        .map(|(d, ix)| (d, ix.var, ix.tile))
                        .collect::<Vec<_>>()
                };
                if grid_dims(first) != grid_dims(other) {
                    return Err(VerifyError::InconsistentStores {
                        buf: decl.name.clone(),
                    });
                }
            }
            // Every grid dimension with >1 block must separate every
            // store's footprint by at least its span along some dim.
            for (g, &blocks) in self.p.grid.iter().enumerate() {
                if blocks <= 1 {
                    continue;
                }
                for &i in idxs {
                    let (acc, sp) = &self.stores[i];
                    let Some((d, ix)) = acc
                        .indices
                        .iter()
                        .enumerate()
                        .find(|(_, ix)| ix.var == VarRef::Grid(g))
                    else {
                        return Err(VerifyError::RaceOnGridDim {
                            buf: decl.name.clone(),
                            grid_dim: g,
                        });
                    };
                    if ix.tile < sp[d] {
                        return Err(VerifyError::OverlappingTiles {
                            buf: decl.name.clone(),
                            dim: d,
                            tile: ix.tile,
                            span: sp[d],
                        });
                    }
                }
            }
        }
        // Every output must be produced.
        for decl in &self.p.buffers {
            if decl.role == BufferRole::Output
                && !by_buf
                    .iter()
                    .any(|(b, _)| self.p.buffers[b.0].name == decl.name)
            {
                return Err(VerifyError::OutputNeverStored {
                    buf: decl.name.clone(),
                });
            }
        }
        Ok(())
    }

    /// No load or raw-global read names a stored buffer.
    fn check_reads_of_stored(&self) -> Result<(), VerifyError> {
        let mut read_stored = None;
        visit_accesses(&self.p.body, &mut |acc: &TileAccess, is_store: bool| {
            if !is_store
                && read_stored.is_none()
                && self.stores.iter().any(|(s, _)| s.buf == acc.buf)
            {
                read_stored = Some(acc.buf);
            }
        });
        match read_stored {
            Some(buf) => Err(VerifyError::ReadsStoredBuffer {
                buf: self.buf_name(buf),
            }),
            None => Ok(()),
        }
    }

    /// Final dead-store sweep: a pure definition still unobserved at
    /// block end wrote a tile nobody read.
    fn check_dead_stores(&self) -> Result<(), VerifyError> {
        for (i, st) in self.smem.iter().enumerate() {
            if st.defined && st.last_def_pure && !st.used_since_def {
                return Err(VerifyError::DeadStore {
                    smem: self.p.smem[i].name.clone(),
                });
            }
        }
        Ok(())
    }
}

fn collect_used_smem(stmts: &[BlockStmt], out: &mut Vec<SmemId>) {
    for s in stmts {
        match s {
            BlockStmt::Loop { body, .. } => collect_used_smem(body, out),
            BlockStmt::Store { src, .. } => out.push(*src),
            BlockStmt::Gemm { a, b, acc, .. } => out.extend([*a, *b, *acc]),
            BlockStmt::OnlineSoftmax {
                scores,
                row_max,
                row_sum,
                rescale,
                ..
            } => {
                out.extend([*scores, *row_max, *row_sum]);
                out.extend(rescale.iter().copied());
            }
            BlockStmt::RowDiv { target, denom } => out.extend([*target, *denom]),
            BlockStmt::Relu { target }
            | BlockStmt::Gelu { target }
            | BlockStmt::Scale { target, .. }
            | BlockStmt::Quantize { target, .. } => out.push(*target),
            BlockStmt::AddTile { target, other } => out.extend([*target, *other]),
            BlockStmt::AddBias { target, bias } => out.extend([*target, *bias]),
            BlockStmt::NormalizeTile {
                target,
                mean,
                rstd,
                gamma,
                beta,
                ..
            } => {
                out.extend([*target, *mean, *rstd]);
                out.extend([gamma, beta].into_iter().flatten());
            }
            BlockStmt::AddGlobal { target, .. } => out.push(*target),
            BlockStmt::AddRecomputedNorm {
                target,
                mean,
                rstd,
                gamma,
                beta,
                ..
            } => {
                out.extend([*target, *mean, *rstd]);
                out.extend([gamma, beta].into_iter().flatten());
            }
            BlockStmt::LayerNormTile {
                target,
                gamma,
                beta,
                ..
            } => {
                out.push(*target);
                out.extend([gamma, beta].into_iter().flatten());
            }
            BlockStmt::Load { .. } | BlockStmt::Fill { .. } | BlockStmt::RowNormStats { .. } => {}
        }
    }
}

/// Run all three analyses over a lowered program. Returns what was
/// proved, or the first violation found (analyses run in program order,
/// so the error is deterministic).
pub fn verify_program(p: &TileProgram) -> Result<VerifyReport, VerifyError> {
    p.validate()?;
    let mut a = Analysis::new(p);
    a.walk(&p.body)?;
    a.check_dead_stores()?;
    a.check_races()?;
    a.check_reads_of_stored()?;
    Ok(a.report)
}

/// [`verify_program`] plus the widened-batch special case: any buffer
/// whose every access pins the leading index to `VarRef::Zero` while
/// the batch grid dimension is widened (`grid[0] > 1`) is a *shared*
/// slab — one copy read by every request slot — and must be read-only.
pub fn verify_widened(p: &TileProgram) -> Result<VerifyReport, VerifyError> {
    let report = verify_program(p)?;
    if p.grid.first().copied().unwrap_or(1) <= 1 {
        return Ok(report);
    }
    let mut zero_pinned = vec![true; p.buffers.len()];
    let mut written = vec![false; p.buffers.len()];
    let mut seen = vec![false; p.buffers.len()];
    visit_accesses(&p.body, &mut |acc: &TileAccess, is_store: bool| {
        seen[acc.buf.0] = true;
        if acc.indices.first().map(|ix| ix.var) != Some(VarRef::Zero) {
            zero_pinned[acc.buf.0] = false;
        }
        if is_store {
            written[acc.buf.0] = true;
        }
    });
    for (i, decl) in p.buffers.iter().enumerate() {
        if seen[i] && zero_pinned[i] && written[i] {
            return Err(VerifyError::SharedBufferWritten {
                buf: decl.name.clone(),
            });
        }
    }
    Ok(report)
}

/// The blocks of one grid row, and which shared tiles differ between
/// them.
///
/// A *row* is the set of blocks that differ only in the last grid index
/// (lowering's `d_L` tile); each of them is a *lane*. A shared tile is
/// *per-lane* when its value can depend on that index. The set is a
/// fixed point over the block body: a `Load`, `RowNormStats`,
/// `AddGlobal`, `AddRecomputedNorm` or softmax clip indexed by the last
/// grid index makes the tiles it writes per-lane, and every statement
/// makes the tiles it writes per-lane when it reads a per-lane tile.
/// `OnlineSoftmax` counts as two statements: its scores and running
/// statistics depend only on one another (and on its clip), and each
/// rescale target only on itself and the statistics, so a row whose
/// scores are shared computes the rescale factors once and applies them
/// to every lane's accumulator.
///
/// A statement that writes only tiles that are not per-lane computes
/// the same values in every lane of a row: it reads nothing per-lane,
/// no global tile indexed by the last grid index, and no buffer the
/// program stores ([`VerifyError::ReadsStoredBuffer`]). The executor
/// runs such a statement once per row and every other statement once
/// per lane, on the lane's own copies of the per-lane tiles.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Lanes {
    /// Lanes per row: the last grid extent.
    count: u64,
    /// The per-lane tiles, in id order.
    per_lane_tiles: Vec<SmemId>,
}

impl Lanes {
    /// The lanes of `p`'s rows, or `None` when a row is one block (the
    /// last grid extent is 1) or no statement can run once per row.
    fn of(p: &TileProgram) -> Option<Lanes> {
        let (&count, row) = p.grid.split_last()?;
        if count <= 1 {
            return None;
        }
        let last = VarRef::Grid(row.len());
        let mut per_lane = vec![false; p.smem.len()];
        while mark_per_lane(&p.body, last, &mut per_lane) {}
        let per_lane_tiles = (0..p.smem.len())
            .filter(|&i| per_lane[i])
            .map(SmemId)
            .collect();
        let lanes = Lanes {
            count,
            per_lane_tiles,
        };
        lanes.shares(&p.body).then_some(lanes)
    }

    /// Whether some statement of `stmts` runs once per row.
    fn shares(&self, stmts: &[BlockStmt]) -> bool {
        stmts.iter().any(|s| match s {
            BlockStmt::Loop { body, .. } => self.shares(body),
            _ => self.runs_once_per_row(s),
        })
    }

    /// Lanes per row: the last grid extent.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether shared tile `t` holds a separate value in each lane.
    pub fn is_per_lane(&self, t: SmemId) -> bool {
        self.per_lane_tiles.binary_search(&t).is_ok()
    }

    /// The per-lane tiles, in id order.
    pub fn per_lane_tiles(&self) -> &[SmemId] {
        &self.per_lane_tiles
    }

    /// Whether statement `s` runs once per row rather than once per
    /// lane: it writes a shared tile that is not per-lane. A `Store`
    /// or `Loop` never does. For `OnlineSoftmax` this is its scores and
    /// statistics; each rescale target is rescaled once or per lane as
    /// [`is_per_lane`](Self::is_per_lane) says.
    pub fn runs_once_per_row(&self, s: &BlockStmt) -> bool {
        written_tile(s).is_some_and(|t| !self.is_per_lane(t))
    }
}

/// The shared tile a non-loop statement writes: its target, a load's or
/// fill's destination, a GEMM's accumulator, `RowNormStats`' mean (its
/// rstd is per-lane exactly when the mean is) and `OnlineSoftmax`'s
/// scores (likewise its statistics). `None` for `Store` and `Loop`.
fn written_tile(s: &BlockStmt) -> Option<SmemId> {
    match s {
        BlockStmt::Loop { .. } | BlockStmt::Store { .. } => None,
        BlockStmt::Load { dst, .. } | BlockStmt::Fill { dst, .. } => Some(*dst),
        BlockStmt::Gemm { acc, .. } => Some(*acc),
        BlockStmt::OnlineSoftmax { scores, .. } => Some(*scores),
        BlockStmt::RowNormStats { mean, .. } => Some(*mean),
        BlockStmt::RowDiv { target, .. }
        | BlockStmt::Relu { target }
        | BlockStmt::Gelu { target }
        | BlockStmt::Scale { target, .. }
        | BlockStmt::AddTile { target, .. }
        | BlockStmt::AddBias { target, .. }
        | BlockStmt::NormalizeTile { target, .. }
        | BlockStmt::Quantize { target, .. }
        | BlockStmt::AddGlobal { target, .. }
        | BlockStmt::AddRecomputedNorm { target, .. }
        | BlockStmt::LayerNormTile { target, .. } => Some(*target),
    }
}

/// One pass of the [`Lanes`] fixed point over `stmts`, with `last` the
/// last grid index. Returns whether it marked a tile.
fn mark_per_lane(stmts: &[BlockStmt], last: VarRef, per_lane: &mut [bool]) -> bool {
    fn mark(per_lane: &mut [bool], tiles: &[SmemId], depends: bool) -> bool {
        let mut changed = false;
        for t in tiles {
            changed |= depends && !std::mem::replace(&mut per_lane[t.0], true);
        }
        changed
    }
    let by_lane = |a: &TileAccess| a.indices.iter().any(|ix| ix.var == last);
    let mut changed = false;
    for s in stmts {
        let any = |tiles: &[Option<SmemId>]| tiles.iter().flatten().any(|t| per_lane[t.0]);
        changed |= match s {
            BlockStmt::Loop { body, .. } => mark_per_lane(body, last, per_lane),
            BlockStmt::Store { .. } => false,
            BlockStmt::Load { src, dst } => mark(per_lane, &[*dst], by_lane(src)),
            BlockStmt::Fill { .. }
            | BlockStmt::Relu { .. }
            | BlockStmt::Gelu { .. }
            | BlockStmt::Scale { .. }
            | BlockStmt::Quantize { .. } => false,
            BlockStmt::Gemm { a, b, acc, .. } => {
                let d = any(&[Some(*a), Some(*b)]);
                mark(per_lane, &[*acc], d)
            }
            BlockStmt::OnlineSoftmax {
                scores,
                row_max,
                row_sum,
                rescale,
                clip,
                ..
            } => {
                let stats = [*scores, *row_max, *row_sum];
                let d = any(&stats.map(Some)) || clip.is_some_and(|(ix, _)| ix.var == last);
                mark(per_lane, &stats, d) | mark(per_lane, rescale, d)
            }
            BlockStmt::RowDiv {
                target,
                denom: other,
            }
            | BlockStmt::AddTile { target, other }
            | BlockStmt::AddBias {
                target,
                bias: other,
            } => {
                let d = any(&[Some(*other)]);
                mark(per_lane, &[*target], d)
            }
            BlockStmt::RowNormStats {
                a,
                residual,
                mean,
                rstd,
                ..
            } => {
                let d = by_lane(a)
                    || residual.as_ref().is_some_and(by_lane)
                    || any(&[Some(*mean), Some(*rstd)]);
                mark(per_lane, &[*mean, *rstd], d)
            }
            BlockStmt::NormalizeTile {
                target,
                mean,
                rstd,
                gamma,
                beta,
                ..
            } => {
                let d = any(&[Some(*mean), Some(*rstd), *gamma, *beta]);
                mark(per_lane, &[*target], d)
            }
            BlockStmt::AddGlobal { target, src } => mark(per_lane, &[*target], by_lane(src)),
            BlockStmt::AddRecomputedNorm {
                target,
                a,
                residual,
                mean,
                rstd,
                gamma,
                beta,
            } => {
                let d = by_lane(a)
                    || residual.as_ref().is_some_and(by_lane)
                    || any(&[Some(*mean), Some(*rstd), *gamma, *beta]);
                mark(per_lane, &[*target], d)
            }
            BlockStmt::LayerNormTile {
                target,
                gamma,
                beta,
                ..
            } => {
                let d = any(&[*gamma, *beta]);
                mark(per_lane, &[*target], d)
            }
        };
    }
    changed
}

/// A [`TileProgram`] the static verifier has accepted, with its
/// [`Lanes`].
///
/// The fields are private, so the only ways to get one are
/// [`VerifiedProgram::new`], which runs [`verify_program`], and
/// [`VerifiedProgram::widened`], which runs [`verify_widened`]. It
/// derefs to the program but never hands out `&mut`, so what was
/// checked is what runs. The executor
/// ([`execute_with_arena`](crate::execute_with_arena)) accepts only
/// this type: a program is checked, and its lanes found, once, when the
/// plan is built, and trusted on every launch after that.
///
/// ```
/// use mcfuser_sim::{
///     execute_with_arena, BlockStmt, BufferArena, BufferRole, DType, ProgramBuilder,
///     TensorStorage, TileAccess, TileIndex, VarRef, VerifiedProgram,
/// };
///
/// // A one-block kernel copying a 4x4 matrix.
/// let mut b = ProgramBuilder::new("copy", DType::F32);
/// let src = b.buffer("in", vec![4, 4], DType::F32, BufferRole::Input);
/// let dst = b.buffer("out", vec![4, 4], DType::F32, BufferRole::Output);
/// let tile = b.smem("t", 4, 4, DType::F32);
/// let at = |buf| TileAccess {
///     buf,
///     indices: vec![TileIndex { var: VarRef::Zero, tile: 4 }; 2],
/// };
/// let p = b.finish(vec![
///     BlockStmt::Load { src: at(src), dst: tile },
///     BlockStmt::Store { dst: at(dst), src: tile },
/// ]);
///
/// let verified = VerifiedProgram::new(p).expect("the copy kernel verifies");
/// let mut st = TensorStorage::for_program(&verified);
/// st.tensors[0].data.fill(2.0);
/// execute_with_arena(&verified, &mut st, &mut BufferArena::new()).unwrap();
/// assert_eq!(st.tensors[1].data, vec![2.0; 16]);
/// ```
///
/// A raw program is not an executor input:
///
/// ```compile_fail,E0308
/// use mcfuser_sim::{execute_with_arena, BufferArena, TensorStorage, TileProgram};
///
/// fn launch(p: &TileProgram, st: &mut TensorStorage) {
///     execute_with_arena(p, st, &mut BufferArena::new()).unwrap();
/// }
/// ```
///
/// and the witness cannot be built around the verifier:
///
/// ```compile_fail,E0423
/// use mcfuser_sim::{TileProgram, VerifiedProgram};
///
/// fn forge(p: TileProgram) -> VerifiedProgram {
///     VerifiedProgram(p)
/// }
/// ```
#[derive(Debug)]
pub struct VerifiedProgram {
    program: TileProgram,
    lanes: Option<Lanes>,
}

impl VerifiedProgram {
    /// Run [`verify_program`] over `p` and wrap it if it passes.
    pub fn new(p: TileProgram) -> Result<Self, VerifyError> {
        verify_program(&p)?;
        Ok(Self::accepted(p))
    }

    /// Run [`verify_widened`] over a widened batch program and wrap it
    /// if it passes.
    pub fn widened(p: TileProgram) -> Result<Self, VerifyError> {
        verify_widened(&p)?;
        Ok(Self::accepted(p))
    }

    fn accepted(program: TileProgram) -> Self {
        let lanes = Lanes::of(&program);
        VerifiedProgram { program, lanes }
    }

    /// The lanes the executor steps each grid row in, or `None` when it
    /// runs the blocks one at a time (a row is one block, or no
    /// statement can run once per row).
    pub fn lanes(&self) -> Option<&Lanes> {
        self.lanes.as_ref()
    }
}

impl std::ops::Deref for VerifiedProgram {
    type Target = TileProgram;

    fn deref(&self) -> &TileProgram {
        &self.program
    }
}

/// Record the partial final tiles a lowered program is *expected* to
/// clip, as [`ClipMark`]s on the program. This is the lowering's
/// explicit declaration point: `mcfuser-tile` calls it as the last step
/// of `lower()`, before any verifier ever sees the program. A program
/// mutated afterwards (or built by hand) carries no marks for its new
/// accesses, so [`verify_program`] rejects any clipping they introduce.
///
/// Only the canonical ceil-div pattern is markable: the access must
/// *start* in-bounds for every block (a start past the extent is never
/// marked — it stays an [`VerifyError::OutOfBounds`]).
pub fn mark_expected_clips(p: &mut TileProgram) {
    fn mark_access(
        p: &TileProgram,
        acc: &TileAccess,
        sp: &[u64],
        scope: &[(LoopHandle, u64)],
        marks: &mut Vec<ClipMark>,
    ) {
        let shape = &p.buffers[acc.buf.0].shape;
        for (d, (ix, (&extent, &span))) in acc
            .indices
            .iter()
            .zip(shape.iter().zip(sp.iter()))
            .enumerate()
        {
            let Some(maxv) = var_max(ix.var, &p.grid, scope) else {
                continue; // out-of-scope loop: validate() rejects it
            };
            let start_max = maxv * ix.tile;
            if start_max < extent && start_max + span > extent {
                let m = ClipMark {
                    buf: acc.buf,
                    dim: d,
                };
                if !marks.contains(&m) {
                    marks.push(m);
                }
            }
        }
    }
    fn walk(
        p: &TileProgram,
        stmts: &[BlockStmt],
        scope: &mut Vec<(LoopHandle, u64)>,
        marks: &mut Vec<ClipMark>,
    ) {
        for s in stmts {
            match s {
                BlockStmt::Loop {
                    handle,
                    extent,
                    body,
                } => {
                    scope.push((*handle, *extent));
                    walk(p, body, scope, marks);
                    scope.pop();
                }
                BlockStmt::Load { src, dst } => {
                    let d = &p.smem[dst.0];
                    let sp = spans(p.buffers[src.buf.0].shape.len(), d.rows, d.cols);
                    mark_access(p, src, &sp, scope, marks);
                }
                BlockStmt::Store { dst, src } => {
                    let d = &p.smem[src.0];
                    let sp = spans(p.buffers[dst.buf.0].shape.len(), d.rows, d.cols);
                    mark_access(p, dst, &sp, scope, marks);
                }
                BlockStmt::RowNormStats {
                    a,
                    residual,
                    rows,
                    cols,
                    ..
                } => {
                    let rank = p.buffers[a.buf.0].shape.len();
                    let sp = spans(rank, *rows, *cols);
                    mark_access(p, a, &sp, scope, marks);
                    if let Some(res) = residual {
                        let rank = p.buffers[res.buf.0].shape.len();
                        mark_access(p, res, &spans(rank, *rows, *cols), scope, marks);
                    }
                }
                BlockStmt::AddGlobal { target, src } => {
                    let d = &p.smem[target.0];
                    let rank = p.buffers[src.buf.0].shape.len();
                    mark_access(p, src, &spans(rank, d.rows, d.cols), scope, marks);
                }
                BlockStmt::AddRecomputedNorm {
                    target,
                    a,
                    residual,
                    ..
                } => {
                    let d = &p.smem[target.0];
                    let (rows, cols) = (d.rows, d.cols);
                    let rank = p.buffers[a.buf.0].shape.len();
                    mark_access(p, a, &spans(rank, rows, cols), scope, marks);
                    if let Some(res) = residual {
                        let rank = p.buffers[res.buf.0].shape.len();
                        mark_access(p, res, &spans(rank, rows, cols), scope, marks);
                    }
                }
                _ => {}
            }
        }
    }
    let mut marks = std::mem::take(&mut p.clip_ok);
    let mut scope = Vec::new();
    let body = std::mem::take(&mut p.body);
    walk(p, &body, &mut scope, &mut marks);
    p.body = body;
    p.clip_ok = marks;
}

/// Whether `t` is a valid one-hot scatter column (`[heads, n, 1]` with
/// exactly one `1.0` per head and zeros elsewhere) — the input-side
/// obligation of the decode-step KV append proof: the fused scatter
/// chain computes `cache + onehot × new_row`, which by linearity
/// changes exactly the one row per head selected here.
pub fn is_scatter_onehot(t: &HostTensor) -> bool {
    let [heads, n, one] = t.shape[..] else {
        return false;
    };
    if one != 1 {
        return false;
    }
    for h in 0..heads {
        let col = &t.data[(h * n) as usize..((h + 1) * n) as usize];
        let ones = col.iter().filter(|&&v| v == 1.0).count();
        let zeros = col.iter().filter(|&&v| v == 0.0).count();
        if ones != 1 || zeros != n as usize - 1 {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{BufferRole, ProgramBuilder, TileIndex};

    /// 1-block 64x64x32 matmul with exact tiles — verifies clean.
    fn exact_program() -> TileProgram {
        let mut b = ProgramBuilder::new("exact", DType::F16);
        let a = b.buffer("A", vec![64, 32], DType::F16, BufferRole::Input);
        let w = b.buffer("W", vec![32, 64], DType::F16, BufferRole::Input);
        let c = b.buffer("C", vec![64, 64], DType::F16, BufferRole::Output);
        let sa = b.smem("sA", 64, 32, DType::F16);
        let sw = b.smem("sW", 32, 64, DType::F16);
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
                    buf: w,
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
                dst: sw,
            },
            BlockStmt::Gemm {
                a: sa,
                b: sw,
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
    fn exact_program_verifies() {
        let r = verify_program(&exact_program()).unwrap();
        assert_eq!(r.stores, 1);
        assert_eq!(r.accesses, 3);
        assert_eq!(r.clipped, 0);
    }

    #[test]
    fn unmarked_clip_rejected_and_marking_allows_it() {
        let mut p = exact_program();
        // Shrink A's row extent so the 64-row tile clips.
        p.buffers[0].shape = vec![60, 32];
        assert!(matches!(
            verify_program(&p),
            Err(VerifyError::UnmarkedClip { dim: 0, .. })
        ));
        mark_expected_clips(&mut p);
        let r = verify_program(&p).unwrap();
        assert_eq!(r.clipped, 1);
    }

    #[test]
    fn shifted_index_is_out_of_bounds() {
        let mut p = exact_program();
        // Corrupt the A load: tile stride doubles, so the (only) block
        // still starts at 0 — widen the grid so blocks walk off the end.
        p.grid[0] = 2;
        p.buffers[2].shape = vec![128, 64]; // out grows with the grid
        if let BlockStmt::Load { src, .. } = &mut p.body[1] {
            src.indices[0].tile = 128; // shifted: should be 64
        }
        assert!(matches!(
            verify_program(&p),
            Err(VerifyError::OutOfBounds { dim: 0, .. })
        ));
    }

    #[test]
    fn uninitialized_accumulator_rejected() {
        let mut p = exact_program();
        p.body.remove(0); // drop the Fill
        assert!(matches!(
            verify_program(&p),
            Err(VerifyError::UninitializedAccumulator { .. })
        ));
    }

    #[test]
    fn dead_store_rejected() {
        let mut p = exact_program();
        // Load sW twice back to back: the first load is never observed.
        let load_w = p.body[2].clone();
        p.body.insert(2, load_w);
        assert!(matches!(
            verify_program(&p),
            Err(VerifyError::DeadStore { .. })
        ));
    }

    #[test]
    fn overlapping_grid_footprints_rejected() {
        let mut p = exact_program();
        // Two blocks along m, but the store advances by less than the
        // tile rows — adjacent blocks overlap by half a tile.
        p.grid[0] = 2;
        p.buffers[2].shape = vec![96, 64];
        p.buffers[0].shape = vec![96, 32];
        p.clip_ok.push(ClipMark {
            buf: BufId(0),
            dim: 0,
        });
        if let BlockStmt::Load { src, .. } = &mut p.body[1] {
            src.indices[0].tile = 32;
        }
        if let BlockStmt::Store { dst, .. } = &mut p.body[4] {
            dst.indices[0].tile = 32; // writes 64 rows, advances 32
        }
        assert!(matches!(
            verify_program(&p),
            Err(VerifyError::OverlappingTiles { dim: 0, .. })
        ));
    }

    #[test]
    fn race_on_unreferenced_grid_dim_rejected() {
        let mut p = exact_program();
        // A second grid dimension no store references: blocks that
        // differ only there write the same footprint.
        p.grid.push(4);
        assert!(matches!(
            verify_program(&p),
            Err(VerifyError::RaceOnGridDim { grid_dim: 1, .. })
        ));
    }

    #[test]
    fn store_to_input_rejected() {
        let mut p = exact_program();
        if let BlockStmt::Store { dst, .. } = &mut p.body[4] {
            dst.buf = BufId(0); // A is Input-role
            dst.indices[1].tile = 32;
        }
        // Make the access shape legal so only the role check fires.
        p.smem[2].cols = 32;
        p.smem[1].cols = 32;
        assert!(matches!(
            verify_program(&p),
            Err(VerifyError::InputWritten { .. })
        ));
    }

    #[test]
    fn widened_shared_slab_must_be_read_only() {
        let mut p = exact_program();
        // Widen the batch: 2 slots along grid dim 0, A and C slot-led.
        p.grid[0] = 2;
        p.buffers[0].shape = vec![128, 32];
        p.buffers[2].shape = vec![128, 64];
        // W stays [32, 64] and Zero-pinned: the shared slab.
        verify_widened(&p).unwrap();
        // A store to the shared slab is rejected even where the plain
        // race analysis would be fooled by a grid reference elsewhere.
        p.body.push(BlockStmt::Store {
            dst: TileAccess {
                buf: BufId(1),
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
            src: SmemId(1),
        });
        assert!(verify_widened(&p).is_err());
    }

    #[test]
    fn scatter_onehot_recognized() {
        let mut t = HostTensor::zeros(&[2, 4, 1]);
        t.data[1] = 1.0;
        t.data[4 + 2] = 1.0;
        assert!(is_scatter_onehot(&t));
        t.data[0] = 1.0; // two ones in head 0
        assert!(!is_scatter_onehot(&t));
        let bad = HostTensor::zeros(&[2, 4, 1]);
        assert!(!is_scatter_onehot(&bad)); // no one at all
    }
}
