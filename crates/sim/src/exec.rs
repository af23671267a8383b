//! Functional execution of [`TileProgram`]s.
//!
//! The interpreter runs a virtual kernel *for value*: every thread block is
//! executed tile-by-tile against host `f32` buffers, with loads/stores
//! quantizing through the declared storage precision. It is the one
//! executor behind plans, widened batches and decode sessions, and it is
//! how the test suite proves that a fused schedule found by MCFuser
//! computes the same function as the unfused reference — the property the
//! real system gets from Triton's code generator being correct.
//!
//! Blocks are executed sequentially in grid order. Grid dimensions bind
//! only spatial loops (each block writes a disjoint output region), so
//! sequential execution is observationally equivalent to any parallel
//! interleaving.

use rustc_hash::FxHashMap;

use crate::dtype::DType;
use crate::kernel::{BlockStmt, BufferRole, ProgramError, SmemId, TileAccess, TileProgram, VarRef};

/// A host-side tensor backing a global buffer.
#[derive(Debug, Clone, PartialEq)]
pub struct HostTensor {
    /// Row-major shape.
    pub shape: Vec<u64>,
    /// Dense f32 payload.
    pub data: Vec<f32>,
}

impl HostTensor {
    /// Allocate a zero-filled tensor.
    pub fn zeros(shape: &[u64]) -> Self {
        let len = shape.iter().product::<u64>() as usize;
        HostTensor {
            shape: shape.to_vec(),
            data: vec![0.0; len],
        }
    }

    /// Build a tensor from explicit data (lengths must agree).
    pub fn from_vec(shape: &[u64], data: Vec<f32>) -> Self {
        assert_eq!(
            shape.iter().product::<u64>() as usize,
            data.len(),
            "shape/data length mismatch"
        );
        HostTensor {
            shape: shape.to_vec(),
            data,
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if the tensor holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Row-major strides.
    pub(crate) fn strides(&self) -> Vec<u64> {
        let mut s = vec![1u64; self.shape.len()];
        for i in (0..self.shape.len().saturating_sub(1)).rev() {
            s[i] = s[i + 1] * self.shape[i + 1];
        }
        s
    }

    /// Maximum absolute difference against another tensor.
    pub fn max_abs_diff(&self, other: &HostTensor) -> f32 {
        assert_eq!(self.shape, other.shape);
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f32::max)
    }

    /// Transpose the trailing two dimensions (batch-wise matrix
    /// transpose). Used when a chain consumes a tensor stored in the
    /// opposite layout (e.g. attention's `Kᵀ`).
    pub fn transpose_last2(&self) -> HostTensor {
        let rank = self.shape.len();
        assert!(rank >= 2, "need at least a matrix");
        let (r, c) = (self.shape[rank - 2] as usize, self.shape[rank - 1] as usize);
        let batch: usize = self.shape[..rank - 2].iter().product::<u64>() as usize;
        let mut shape = self.shape.clone();
        shape.swap(rank - 2, rank - 1);
        let mut data = vec![0.0f32; self.data.len()];
        for b in 0..batch {
            let base = b * r * c;
            // Walk each source row as one contiguous slice and scatter it
            // down a destination column with a raw-pointer stride walk —
            // one bounds check per row instead of per element (the
            // index-arithmetic version dominated oracle-path wall time).
            let src = &self.data[base..base + r * c];
            let dst = &mut data[base..base + r * c];
            for i in 0..r {
                let row = &src[i * c..(i + 1) * c];
                // SAFETY: j ranges over 0..c and i over 0..r, so
                // `j * r + i < r * c == dst.len()` for every write.
                unsafe {
                    let mut dp = dst.as_mut_ptr().add(i);
                    for &v in row {
                        *dp = v;
                        dp = dp.add(r);
                    }
                }
            }
        }
        HostTensor { shape, data }
    }

    /// Relative L2 error against a reference tensor.
    pub fn rel_l2_error(&self, reference: &HostTensor) -> f32 {
        assert_eq!(self.shape, reference.shape);
        let mut num = 0.0f64;
        let mut den = 0.0f64;
        for (a, r) in self.data.iter().zip(&reference.data) {
            num += ((a - r) as f64).powi(2);
            den += (*r as f64).powi(2);
        }
        if den == 0.0 {
            return num.sqrt() as f32;
        }
        (num / den).sqrt() as f32
    }
}

/// Storage for every global buffer of a program, indexed by `BufId`.
#[derive(Debug, Clone)]
pub struct TensorStorage {
    /// One tensor per program buffer, index-aligned with `BufId`.
    pub tensors: Vec<HostTensor>,
}

impl TensorStorage {
    /// Allocate storage matching a program's buffer declarations
    /// (all zero; fill inputs afterwards).
    pub fn for_program(p: &TileProgram) -> Self {
        TensorStorage {
            tensors: p
                .buffers
                .iter()
                .map(|b| HostTensor::zeros(&b.shape))
                .collect(),
        }
    }

    /// Like [`TensorStorage::for_program`], but backed by buffers drawn
    /// from a [`BufferArena`] — a serving loop that executes the same
    /// programs repeatedly recycles allocations instead of paying a heap
    /// round trip per request.
    ///
    /// Input-role buffers come back **unzeroed** (the caller must stage
    /// every element before executing — which the serving plan does);
    /// output/temp buffers are zeroed as usual.
    pub fn for_program_in(p: &TileProgram, arena: &mut BufferArena) -> Self {
        TensorStorage {
            tensors: p
                .buffers
                .iter()
                .map(|b| {
                    let len = b.shape.iter().product::<u64>() as usize;
                    let data = if b.role == BufferRole::Input {
                        arena.take_unzeroed(len)
                    } else {
                        arena.take(len)
                    };
                    HostTensor {
                        shape: b.shape.clone(),
                        data,
                    }
                })
                .collect(),
        }
    }

    /// Return every backing buffer to an arena for reuse. The inverse of
    /// [`TensorStorage::for_program_in`].
    pub fn recycle(self, arena: &mut BufferArena) {
        for t in self.tensors {
            arena.put(t.data);
        }
    }

    /// Stage `data` into buffer `buf` starting at element `offset` — the
    /// batched-serving staging primitive. A widened launch packs each
    /// request's tensor into its batch-slot range of the same input
    /// buffer, so staging is a straight `memcpy` into the arena-backed
    /// allocation at the slot offset (no intermediate per-request
    /// tensor). Errors if the slice does not fit the buffer.
    pub fn stage_at(&mut self, buf: usize, offset: usize, data: &[f32]) -> Result<(), ExecError> {
        let t = self
            .tensors
            .get_mut(buf)
            .ok_or_else(|| ExecError::StorageMismatch(format!("no buffer #{buf} to stage into")))?;
        let end = offset.saturating_add(data.len());
        if end > t.data.len() {
            return Err(ExecError::StorageMismatch(format!(
                "staging {} elements at offset {offset} overflows buffer #{buf} of {}",
                data.len(),
                t.data.len()
            )));
        }
        t.data[offset..end].copy_from_slice(data);
        Ok(())
    }

    /// Zero every output/temp buffer (so a storage can be re-used across
    /// kernel invocations without stale results).
    pub fn clear_outputs(&mut self, p: &TileProgram) {
        for (t, decl) in self.tensors.iter_mut().zip(&p.buffers) {
            if decl.role != BufferRole::Input {
                t.data.fill(0.0);
            }
        }
    }
}

/// A pool of reusable `f32` buffers keyed by length.
///
/// The functional interpreter allocates a shared-memory arena (and, via
/// [`TensorStorage::for_program_in`], the global buffers) per kernel
/// invocation; under a serving workload those allocations recur with the
/// same handful of sizes every request. An arena turns them into pops
/// from a free list. Buffers handed out by [`BufferArena::take`] are
/// always zeroed, so pooled and fresh execution are bit-identical.
///
/// The pool is bounded: [`BufferArena::put`] keeps a buffer only while
/// buffers of its length are still out on loan, so the pool never holds
/// more buffers of a length than were ever handed out at once. Buffers
/// of a length with none on loan (reference-lane results, per-request
/// copies) are dropped instead of pooled forever.
#[derive(Debug, Default)]
pub struct BufferArena {
    free: FxHashMap<usize, Vec<Vec<f32>>>,
    /// Buffers of each length handed out and not yet put back.
    on_loan: FxHashMap<usize, usize>,
    reuses: u64,
    allocs: u64,
}

impl BufferArena {
    /// An empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// A zeroed buffer of exactly `len` elements — recycled when one of
    /// that size is pooled, freshly allocated otherwise.
    pub fn take(&mut self, len: usize) -> Vec<f32> {
        let mut v = self.take_unzeroed(len);
        v.fill(0.0);
        v
    }

    /// Like [`BufferArena::take`] but without the zero fill — for
    /// buffers the caller overwrites in full before any read (e.g.
    /// fused-kernel input staging). Contents are unspecified.
    pub fn take_unzeroed(&mut self, len: usize) -> Vec<f32> {
        if len > 0 {
            *self.on_loan.entry(len).or_default() += 1;
        }
        if let Some(v) = self.free.get_mut(&len).and_then(Vec::pop) {
            self.reuses += 1;
            v
        } else {
            self.allocs += 1;
            vec![0.0; len]
        }
    }

    /// Return a buffer to the pool. It is kept only if a buffer of its
    /// length is on loan, and dropped otherwise.
    pub fn put(&mut self, v: Vec<f32>) {
        match self.on_loan.get_mut(&v.len()) {
            Some(n) if *n > 0 => {
                *n -= 1;
                self.free.entry(v.len()).or_default().push(v);
            }
            _ => {}
        }
    }

    /// Buffers currently pooled, over all lengths.
    #[cfg(test)]
    fn pooled(&self) -> usize {
        self.free.values().map(Vec::len).sum()
    }

    /// Buffers served from the pool so far.
    pub fn reuses(&self) -> u64 {
        self.reuses
    }

    /// Buffers that had to be freshly allocated.
    pub fn allocs(&self) -> u64 {
        self.allocs
    }
}

/// Execution failure.
#[derive(Debug)]
pub enum ExecError {
    /// Program failed structural validation first.
    Invalid(ProgramError),
    /// Storage buffer count/shape does not match declarations.
    StorageMismatch(String),
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::Invalid(e) => write!(f, "invalid program: {e}"),
            ExecError::StorageMismatch(m) => write!(f, "storage mismatch: {m}"),
        }
    }
}

impl std::error::Error for ExecError {}

impl From<ProgramError> for ExecError {
    fn from(e: ProgramError) -> Self {
        ExecError::Invalid(e)
    }
}

/// Per-block shared-memory arena.
struct Smem {
    bufs: Vec<Vec<f32>>,
    rows: Vec<u64>,
    cols: Vec<u64>,
}

impl Smem {
    fn for_program_in(p: &TileProgram, arena: &mut BufferArena) -> Self {
        let mut bufs = Vec::with_capacity(p.smem.len());
        let mut rows = Vec::with_capacity(p.smem.len());
        let mut cols = Vec::with_capacity(p.smem.len());
        for d in &p.smem {
            bufs.push(arena.take(d.elems() as usize));
            rows.push(d.rows);
            cols.push(d.cols);
        }
        Smem { bufs, rows, cols }
    }

    fn recycle(self, arena: &mut BufferArena) {
        for b in self.bufs {
            arena.put(b);
        }
    }
}

/// Execute a program against `storage`. Inputs must be pre-filled; outputs
/// and temps are written in place.
pub fn execute(p: &TileProgram, storage: &mut TensorStorage) -> Result<(), ExecError> {
    let mut arena = BufferArena::new();
    execute_with_arena(p, storage, &mut arena)
}

/// Like [`execute`], but drawing the per-block shared-memory buffers from
/// a caller-provided [`BufferArena`] (and returning them afterwards) —
/// the entry point serving loops use to run the same kernels request
/// after request without per-request heap churn. Results are
/// bit-identical to [`execute`].
pub fn execute_with_arena(
    p: &TileProgram,
    storage: &mut TensorStorage,
    arena: &mut BufferArena,
) -> Result<(), ExecError> {
    p.validate()?;
    if storage.tensors.len() != p.buffers.len() {
        return Err(ExecError::StorageMismatch(format!(
            "{} tensors for {} buffers",
            storage.tensors.len(),
            p.buffers.len()
        )));
    }
    for (t, d) in storage.tensors.iter().zip(&p.buffers) {
        if t.shape != d.shape {
            return Err(ExecError::StorageMismatch(format!(
                "buffer {} declared {:?} but storage has {:?}",
                d.name, d.shape, t.shape
            )));
        }
    }

    let mut smem = Smem::for_program_in(p, arena);
    let grid = if p.grid.is_empty() {
        vec![1]
    } else {
        p.grid.clone()
    };
    let nblocks: u64 = grid.iter().product();
    let mut block_idx = vec![0u64; grid.len()];
    // Loop-variable environment: handles are small dense indices.
    let max_handle = max_loop_handle(&p.body) + 1;
    let mut env = vec![0u64; max_handle];

    for flat in 0..nblocks {
        // Decompose the flat block id into grid coordinates (row-major).
        let mut rem = flat;
        for i in (0..grid.len()).rev() {
            block_idx[i] = rem % grid[i];
            rem /= grid[i];
        }
        run_stmts(p, &p.body, &block_idx, &mut env, &mut smem, storage);
    }
    smem.recycle(arena);
    Ok(())
}

/// The engine lowered kernels execute on.
///
/// The functional interpreter in this module is the only executor. This
/// one-variant type and [`Interpreter`] are kept only because the
/// benchmark harness (`perfbench/`) names them: it records
/// `ExecBackend::default()` and replays kernels through
/// [`ExecBackend::executor`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ExecBackend {
    /// The functional interpreter.
    #[default]
    Interpreter,
}

impl ExecBackend {
    /// The executor implementing this backend.
    pub fn executor(self) -> Interpreter {
        Interpreter
    }
}

impl std::fmt::Display for ExecBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("interpreter")
    }
}

/// The interpreter as returned by [`ExecBackend::executor`] (kept for
/// the benchmark harness, like [`ExecBackend`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct Interpreter;

impl Interpreter {
    /// Run `p` through [`execute_with_arena`].
    pub fn execute_with_arena(
        &self,
        p: &TileProgram,
        storage: &mut TensorStorage,
        arena: &mut BufferArena,
    ) -> Result<(), ExecError> {
        execute_with_arena(p, storage, arena)
    }
}

fn max_loop_handle(stmts: &[BlockStmt]) -> usize {
    let mut m = 0;
    for s in stmts {
        if let BlockStmt::Loop { handle, body, .. } = s {
            m = m.max(handle.0).max(max_loop_handle(body));
        }
    }
    m
}

fn resolve(var: VarRef, block_idx: &[u64], env: &[u64]) -> u64 {
    match var {
        VarRef::Grid(i) => block_idx[i],
        VarRef::Loop(h) => env[h.0],
        VarRef::Zero => 0,
        VarRef::Const(c) => c,
    }
}

/// Compute the global element origin of a tile access.
fn tile_origin(acc: &TileAccess, block_idx: &[u64], env: &[u64]) -> Vec<u64> {
    acc.indices
        .iter()
        .map(|ix| resolve(ix.var, block_idx, env) * ix.tile)
        .collect()
}

#[allow(clippy::too_many_arguments)]
fn run_stmts(
    p: &TileProgram,
    stmts: &[BlockStmt],
    block_idx: &[u64],
    env: &mut Vec<u64>,
    smem: &mut Smem,
    storage: &mut TensorStorage,
) {
    for s in stmts {
        match s {
            BlockStmt::Loop {
                handle,
                extent,
                body,
            } => {
                for i in 0..*extent {
                    env[handle.0] = i;
                    run_stmts(p, body, block_idx, env, smem, storage);
                }
                env[handle.0] = 0;
            }
            BlockStmt::Load { src, dst } => {
                let origin = tile_origin(src, block_idx, env);
                let (rows, cols) = (smem.rows[dst.0], smem.cols[dst.0]);
                let dt = p.smem[dst.0].dtype;
                load_tile(
                    &storage.tensors[src.buf.0],
                    &origin,
                    rows,
                    cols,
                    dt,
                    &mut smem.bufs[dst.0],
                );
            }
            BlockStmt::Store { dst, src } => {
                let origin = tile_origin(dst, block_idx, env);
                let (rows, cols) = (smem.rows[src.0], smem.cols[src.0]);
                let dt = p.buffers[dst.buf.0].dtype;
                store_tile(
                    &smem.bufs[src.0],
                    rows,
                    cols,
                    dt,
                    &mut storage.tensors[dst.buf.0],
                    &origin,
                );
            }
            BlockStmt::Fill { dst, value } => smem.bufs[dst.0].fill(*value),
            BlockStmt::Gemm {
                a,
                b,
                acc,
                b_transposed,
                acc_col,
            } => {
                gemm_tiles(smem, *a, *b, *acc, *b_transposed, *acc_col as usize);
            }
            BlockStmt::OnlineSoftmax {
                scores,
                row_max,
                row_sum,
                rescale,
                scale,
                clip,
            } => {
                let cols = smem.cols[scores.0];
                let valid = clip.map_or(cols, |(ix, extent)| {
                    let start = resolve(ix.var, block_idx, env) * ix.tile;
                    extent.saturating_sub(start).min(cols)
                });
                online_softmax(
                    smem,
                    *scores,
                    *row_max,
                    *row_sum,
                    rescale,
                    *scale,
                    valid as usize,
                );
            }
            BlockStmt::RowDiv { target, denom } => {
                let cols = smem.cols[target.0] as usize;
                let rows = smem.rows[target.0] as usize;
                // Split-borrow via pointer copy of the denominator column.
                let denom_col: Vec<f32> = (0..rows)
                    .map(|r| smem.bufs[denom.0][r * smem.cols[denom.0] as usize])
                    .collect();
                let t = &mut smem.bufs[target.0];
                for r in 0..rows {
                    let d = denom_col[r];
                    if d != 0.0 {
                        for c in 0..cols {
                            t[r * cols + c] /= d;
                        }
                    }
                }
            }
            BlockStmt::Relu { target } => {
                for v in smem.bufs[target.0].iter_mut() {
                    *v = v.max(0.0);
                }
            }
            BlockStmt::Gelu { target } => {
                for v in smem.bufs[target.0].iter_mut() {
                    *v = gelu(*v);
                }
            }
            BlockStmt::AddTile { target, other } => {
                let (t, o) = (target.0, other.0);
                if t == o {
                    for v in smem.bufs[t].iter_mut() {
                        *v += *v;
                    }
                } else {
                    // Disjoint split borrow — no per-trip allocation.
                    let (lo, hi) = smem.bufs.split_at_mut(t.max(o));
                    let (dst, src) = if t < o {
                        (&mut lo[t], &hi[0])
                    } else {
                        (&mut hi[0], &lo[o])
                    };
                    for (v, s) in dst.iter_mut().zip(src.iter()) {
                        *v += s;
                    }
                }
            }
            BlockStmt::Scale { target, factor } => {
                for v in smem.bufs[target.0].iter_mut() {
                    *v *= factor;
                }
            }
            BlockStmt::Exp { target } => {
                for v in smem.bufs[target.0].iter_mut() {
                    *v = v.exp();
                }
            }
            BlockStmt::AddBias { target, bias } => {
                let cols = smem.cols[target.0] as usize;
                let rows = smem.rows[target.0] as usize;
                let bias_row: Vec<f32> = smem.bufs[bias.0][..cols].to_vec();
                let t = &mut smem.bufs[target.0];
                for r in 0..rows {
                    for c in 0..cols {
                        t[r * cols + c] += bias_row[c];
                    }
                }
            }
            BlockStmt::Quantize { target, dtype } => {
                for v in smem.bufs[target.0].iter_mut() {
                    *v = dtype.quantize(*v);
                }
            }
            BlockStmt::RowNormStats {
                a,
                residual,
                rows,
                cols,
                mean,
                rstd,
                eps,
            } => {
                let a_origin = tile_origin(a, block_idx, env);
                let av = RawView::new(&storage.tensors[a.buf.0], &a_origin);
                let resv = residual.as_ref().map(|racc| {
                    let o = tile_origin(racc, block_idx, env);
                    RawView::new(&storage.tensors[racc.buf.0], &o)
                });
                let mcols = smem.cols[mean.0] as usize;
                let rcols = smem.cols[rstd.0] as usize;
                for r in 0..*rows {
                    // Sequential row sums in column order so the stats match
                    // the graph reference's `row.iter().sum()` bit-for-bit.
                    let (m_val, s_val) = if av.row_in_bounds(r) {
                        let mut sum = 0.0f32;
                        for c in 0..*cols {
                            let mut v = av.get(r, c);
                            if let Some(rv) = &resv {
                                v += rv.get(r, c);
                            }
                            sum += v;
                        }
                        let mean_v = sum / *cols as f32;
                        let mut var = 0.0f32;
                        for c in 0..*cols {
                            let mut v = av.get(r, c);
                            if let Some(rv) = &resv {
                                v += rv.get(r, c);
                            }
                            let d = v - mean_v;
                            var += d * d;
                        }
                        (mean_v, 1.0 / (var / *cols as f32 + eps).sqrt())
                    } else {
                        (0.0, 1.0)
                    };
                    smem.bufs[mean.0][r as usize * mcols] = m_val;
                    smem.bufs[rstd.0][r as usize * rcols] = s_val;
                }
            }
            BlockStmt::NormalizeTile {
                target,
                mean,
                rstd,
                gamma,
                beta,
                round,
            } => {
                let rows = smem.rows[target.0] as usize;
                let cols = smem.cols[target.0] as usize;
                let mcols = smem.cols[mean.0] as usize;
                let rcols = smem.cols[rstd.0] as usize;
                let means: Vec<f32> = (0..rows).map(|r| smem.bufs[mean.0][r * mcols]).collect();
                let rstds: Vec<f32> = (0..rows).map(|r| smem.bufs[rstd.0][r * rcols]).collect();
                let gvals = gamma.map(|g| smem.bufs[g.0][..cols].to_vec());
                let bvals = beta.map(|b| smem.bufs[b.0][..cols].to_vec());
                let t = &mut smem.bufs[target.0];
                for r in 0..rows {
                    for c in 0..cols {
                        let mut v = (t[r * cols + c] - means[r]) * rstds[r];
                        if let Some(g) = &gvals {
                            v *= g[c];
                        }
                        if let Some(b) = &bvals {
                            v += b[c];
                        }
                        t[r * cols + c] = round.quantize(v);
                    }
                }
            }
            BlockStmt::AddGlobal { target, src } => {
                let origin = tile_origin(src, block_idx, env);
                let view = RawView::new(&storage.tensors[src.buf.0], &origin);
                let rows = smem.rows[target.0];
                let cols = smem.cols[target.0];
                let t = &mut smem.bufs[target.0];
                for r in 0..rows {
                    for c in 0..cols {
                        t[(r * cols + c) as usize] += view.get(r, c);
                    }
                }
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
                let a_origin = tile_origin(a, block_idx, env);
                let av = RawView::new(&storage.tensors[a.buf.0], &a_origin);
                let resv = residual.as_ref().map(|racc| {
                    let o = tile_origin(racc, block_idx, env);
                    RawView::new(&storage.tensors[racc.buf.0], &o)
                });
                let rows = smem.rows[target.0] as usize;
                let cols = smem.cols[target.0] as usize;
                let mcols = smem.cols[mean.0] as usize;
                let rcols = smem.cols[rstd.0] as usize;
                let means: Vec<f32> = (0..rows).map(|r| smem.bufs[mean.0][r * mcols]).collect();
                let rstds: Vec<f32> = (0..rows).map(|r| smem.bufs[rstd.0][r * rcols]).collect();
                let gvals = gamma.map(|g| smem.bufs[g.0][..cols].to_vec());
                let bvals = beta.map(|b| smem.bufs[b.0][..cols].to_vec());
                let t = &mut smem.bufs[target.0];
                for r in 0..rows {
                    if !av.row_in_bounds(r as u64) {
                        continue;
                    }
                    for c in 0..cols {
                        let mut v = av.get(r as u64, c as u64);
                        if let Some(rv) = &resv {
                            v += rv.get(r as u64, c as u64);
                        }
                        let mut n = (v - means[r]) * rstds[r];
                        if let Some(g) = &gvals {
                            n *= g[c];
                        }
                        if let Some(b) = &bvals {
                            n += b[c];
                        }
                        t[r * cols + c] += n;
                    }
                }
            }
            BlockStmt::LayerNormTile {
                target,
                gamma,
                beta,
                eps,
            } => {
                let rows = smem.rows[target.0] as usize;
                let cols = smem.cols[target.0] as usize;
                let gvals = gamma.map(|g| smem.bufs[g.0][..cols].to_vec());
                let bvals = beta.map(|b| smem.bufs[b.0][..cols].to_vec());
                let t = &mut smem.bufs[target.0];
                for r in 0..rows {
                    let row = &mut t[r * cols..(r + 1) * cols];
                    let mean = row.iter().sum::<f32>() / cols as f32;
                    let var =
                        row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / cols as f32;
                    let inv = 1.0 / (var + eps).sqrt();
                    for (c, v) in row.iter_mut().enumerate() {
                        let mut n = (*v - mean) * inv;
                        if let Some(g) = &gvals {
                            n *= g[c];
                        }
                        if let Some(b) = &bvals {
                            n += b[c];
                        }
                        *v = n;
                    }
                }
            }
        }
    }
}

/// An unquantized window into the trailing two dims of a global tensor,
/// positioned at a tile origin. The stitched prologue/epilogue statements
/// read activations raw (f32) so their numerics mirror the graph
/// reference exactly; out-of-bounds elements read as zero.
struct RawView<'a> {
    data: &'a [f32],
    base: u64,
    ro: u64,
    co: u64,
    rdim: u64,
    cdim: u64,
    rstride: u64,
    in_bounds: bool,
}

impl<'a> RawView<'a> {
    fn new(src: &'a HostTensor, origin: &[u64]) -> Self {
        let strides = src.strides();
        let rank = src.shape.len();
        debug_assert!(rank >= 2, "RawView needs a matrix-shaped tensor");
        let lead = rank - 2;
        let mut base = 0u64;
        let mut in_bounds = true;
        for d in 0..lead {
            if origin[d] >= src.shape[d] {
                in_bounds = false;
            }
            base += origin[d] * strides[d];
        }
        RawView {
            data: &src.data,
            base,
            ro: origin[rank - 2],
            co: origin[rank - 1],
            rdim: src.shape[rank - 2],
            cdim: src.shape[rank - 1],
            rstride: strides[rank - 2],
            in_bounds,
        }
    }

    fn row_in_bounds(&self, r: u64) -> bool {
        self.in_bounds && self.ro + r < self.rdim
    }

    fn get(&self, r: u64, c: u64) -> f32 {
        let (gr, gc) = (self.ro + r, self.co + c);
        if !self.in_bounds || gr >= self.rdim || gc >= self.cdim {
            return 0.0;
        }
        self.data[(self.base + gr * self.rstride + gc) as usize]
    }
}

/// tanh-approximation GELU (matches common framework implementations).
/// The single source of truth for the epilogue's numerics — the CPU
/// reference oracle in `mcfuser-ir` delegates here, so the interpreter
/// and the oracle can never drift apart.
pub fn gelu(x: f32) -> f32 {
    0.5 * x * (1.0 + ((0.797_884_6 * (x + 0.044715 * x * x * x)) as f64).tanh() as f32)
}

/// Copy the in-bounds part `src` of one tile row into `dst`, quantizing
/// to `dt`. F32 rows are a plain `memcpy`.
fn quantize_row(dt: DType, src: &[f32], dst: &mut [f32]) {
    if dt == DType::F32 {
        dst.copy_from_slice(src);
    } else {
        for (d, &v) in dst.iter_mut().zip(src) {
            *d = dt.quantize(v);
        }
    }
}

/// Where a tile at `origin` sits in `t`: the flat offset of its first
/// element, the row stride, and how many of the tile's `rows` and
/// `cols` lie in bounds — `None` when no element does. A rank-1 tensor
/// is one row.
fn tile_window(
    t: &HostTensor,
    origin: &[u64],
    rows: u64,
    cols: u64,
) -> Option<(usize, usize, usize, usize)> {
    let rank = t.shape.len();
    let lead = rank - rank.min(2);
    let strides = t.strides();
    let mut base = 0u64;
    for d in 0..lead {
        if origin[d] >= t.shape[d] {
            return None;
        }
        base += origin[d] * strides[d];
    }
    let (co, cdim) = (origin[rank - 1], t.shape[rank - 1]);
    let in_cols = cdim.saturating_sub(co).min(cols);
    let (in_rows, rstride) = if rank >= 2 {
        let (ro, rdim) = (origin[rank - 2], t.shape[rank - 2]);
        base += ro * strides[rank - 2];
        (rdim.saturating_sub(ro).min(rows), strides[rank - 2])
    } else {
        (rows.min(1), 0)
    };
    if in_rows == 0 || in_cols == 0 {
        return None;
    }
    Some((
        (base + co) as usize,
        rstride as usize,
        in_rows as usize,
        in_cols as usize,
    ))
}

/// Copy a (possibly clipped) `rows × cols` region at `origin` into a dense
/// tile, zero-padding out-of-bounds elements, quantizing to `dt`. A
/// rank-1 source fills every tile row with the same row.
fn load_tile(src: &HostTensor, origin: &[u64], rows: u64, cols: u64, dt: DType, dst: &mut [f32]) {
    let Some((base, rstride, in_rows, in_cols)) = tile_window(src, origin, rows, cols) else {
        dst.fill(0.0);
        return;
    };
    let cols = cols as usize;
    if src.shape.len() == 1 {
        quantize_row(dt, &src.data[base..base + in_cols], &mut dst[..in_cols]);
        dst[in_cols..cols].fill(0.0);
        for r in 1..rows as usize {
            dst.copy_within(0..cols, r * cols);
        }
        return;
    }
    for (r, row) in dst.chunks_exact_mut(cols).enumerate() {
        if r < in_rows {
            let start = base + r * rstride;
            quantize_row(dt, &src.data[start..start + in_cols], &mut row[..in_cols]);
            row[in_cols..].fill(0.0);
        } else {
            row.fill(0.0);
        }
    }
}

/// Write a dense tile back to global memory, clipping at tensor bounds and
/// quantizing to the destination precision.
fn store_tile(src: &[f32], rows: u64, cols: u64, dt: DType, dst: &mut HostTensor, origin: &[u64]) {
    let Some((base, rstride, in_rows, in_cols)) = tile_window(dst, origin, rows, cols) else {
        return;
    };
    for (r, row) in src.chunks_exact(cols as usize).take(in_rows).enumerate() {
        let start = base + r * rstride;
        quantize_row(dt, &row[..in_cols], &mut dst.data[start..start + in_cols]);
    }
}

/// `acc += a × b` on dense tiles (f32 accumulate, mirroring tensor cores).
/// `acc_col` offsets the written columns inside `acc` (chunked panels).
fn gemm_tiles(
    smem: &mut Smem,
    a: SmemId,
    b: SmemId,
    acc: SmemId,
    b_transposed: bool,
    acc_col: usize,
) {
    let (m, k) = (smem.rows[a.0] as usize, smem.cols[a.0] as usize);
    let n = if b_transposed {
        smem.rows[b.0] as usize
    } else {
        smem.cols[b.0] as usize
    };
    let stride = smem.cols[acc.0] as usize;
    debug_assert_eq!(smem.rows[acc.0] as usize, m);
    debug_assert!(acc_col + n <= stride);
    // Lowering never aliases an operand with the accumulator; clone if
    // it ever does, to keep the interpreter total.
    if a.0 == acc.0 || b.0 == acc.0 {
        let av = smem.bufs[a.0].clone();
        let bv = smem.bufs[b.0].clone();
        let accv = &mut smem.bufs[acc.0];
        gemm_inner(&av, &bv, accv, m, n, k, b_transposed, stride, acc_col);
        return;
    }
    let mut accv = std::mem::take(&mut smem.bufs[acc.0]);
    gemm_inner(
        &smem.bufs[a.0],
        &smem.bufs[b.0],
        &mut accv,
        m,
        n,
        k,
        b_transposed,
        stride,
        acc_col,
    );
    smem.bufs[acc.0] = accv;
}

#[inline]
#[allow(clippy::too_many_arguments)]
fn gemm_inner(
    a: &[f32],
    b: &[f32],
    acc: &mut [f32],
    m: usize,
    n: usize,
    k: usize,
    b_transposed: bool,
    stride: usize,
    acc_col: usize,
) {
    if b_transposed {
        // b is n×k.
        for i in 0..m {
            for j in 0..n {
                let mut s = 0.0f32;
                let arow = &a[i * k..(i + 1) * k];
                let brow = &b[j * k..(j + 1) * k];
                for kk in 0..k {
                    s += arow[kk] * brow[kk];
                }
                acc[i * stride + acc_col + j] += s;
            }
        }
    } else {
        // b is k×n; loop order i-k-j for cache friendliness. Zero `a`
        // values are skipped, so each accumulator element adds its
        // non-zero terms in k order. Taking them four at a time keeps
        // the element in a register across four updates without
        // changing that order.
        let brow = |kk: usize| &b[kk * n..(kk + 1) * n];
        for i in 0..m {
            let arow = &a[i * k..(i + 1) * k];
            let crow = &mut acc[i * stride + acc_col..i * stride + acc_col + n];
            let mut terms = arow.iter().enumerate().filter(|(_, &v)| v != 0.0);
            loop {
                match (terms.next(), terms.next(), terms.next(), terms.next()) {
                    (Some((k0, &a0)), Some((k1, &a1)), Some((k2, &a2)), Some((k3, &a3))) => {
                        let (b0, b1) = (&brow(k0)[..n], &brow(k1)[..n]);
                        let (b2, b3) = (&brow(k2)[..n], &brow(k3)[..n]);
                        for j in 0..n {
                            let mut c = crow[j];
                            c += a0 * b0[j];
                            c += a1 * b1[j];
                            c += a2 * b2[j];
                            c += a3 * b3[j];
                            crow[j] = c;
                        }
                    }
                    (t0, t1, t2, _) => {
                        for (kk, &aval) in [t0, t1, t2].into_iter().flatten() {
                            for (c, &bv) in crow.iter_mut().zip(brow(kk)) {
                                *c += aval * bv;
                            }
                        }
                        break;
                    }
                }
            }
        }
    }
}

/// Streaming (FlashAttention-style) softmax update over the first
/// `valid` columns of `scores`; the rest are padding and get
/// probability 0.
fn online_softmax(
    smem: &mut Smem,
    scores: SmemId,
    row_max: SmemId,
    row_sum: SmemId,
    rescale: &[SmemId],
    scale: f32,
    valid: usize,
) {
    let rows = smem.rows[scores.0] as usize;
    let cols = smem.cols[scores.0] as usize;
    let mut alphas = vec![1.0f32; rows];
    {
        // Per-row: new max, rescale factor, probability materialization.
        let max_cols = smem.cols[row_max.0] as usize;
        let sum_cols = smem.cols[row_sum.0] as usize;
        #[allow(clippy::needless_range_loop)]
        for r in 0..rows {
            let m_old = smem.bufs[row_max.0][r * max_cols];
            let mut m_tile = f32::NEG_INFINITY;
            for c in 0..valid {
                m_tile = m_tile.max(scale * smem.bufs[scores.0][r * cols + c]);
            }
            let m_new = m_old.max(m_tile);
            let alpha = if m_old == f32::NEG_INFINITY {
                0.0
            } else {
                (m_old - m_new).exp()
            };
            let mut tile_sum = 0.0f32;
            for c in 0..valid {
                let p = (scale * smem.bufs[scores.0][r * cols + c] - m_new).exp();
                smem.bufs[scores.0][r * cols + c] = p;
                tile_sum += p;
            }
            smem.bufs[scores.0][r * cols + valid..(r + 1) * cols].fill(0.0);
            let s_old = smem.bufs[row_sum.0][r * sum_cols];
            smem.bufs[row_sum.0][r * sum_cols] = s_old * alpha + tile_sum;
            smem.bufs[row_max.0][r * max_cols] = m_new;
            alphas[r] = alpha;
        }
    }
    for id in rescale {
        let c = smem.cols[id.0] as usize;
        let rrows = smem.rows[id.0] as usize;
        let buf = &mut smem.bufs[id.0];
        for (r, &alpha) in alphas.iter().enumerate().take(rrows) {
            if alpha != 1.0 {
                for v in &mut buf[r * c..(r + 1) * c] {
                    *v *= alpha;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{BlockStmt, BufferRole, ProgramBuilder, TileAccess, TileIndex};
    use rand::{Rng, SeedableRng};

    /// Naive reference matmul for oracle checks.
    fn ref_matmul(a: &HostTensor, b: &HostTensor) -> HostTensor {
        let (m, k) = (a.shape[0] as usize, a.shape[1] as usize);
        let n = b.shape[1] as usize;
        let mut out = HostTensor::zeros(&[m as u64, n as u64]);
        for i in 0..m {
            for kk in 0..k {
                let av = a.data[i * k + kk];
                for j in 0..n {
                    out.data[i * n + j] += av * b.data[kk * n + j];
                }
            }
        }
        out
    }

    fn rand_tensor(shape: &[u64], seed: u64) -> HostTensor {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let len = shape.iter().product::<u64>() as usize;
        HostTensor::from_vec(shape, (0..len).map(|_| rng.gen_range(-1.0..1.0)).collect())
    }

    /// Build a tiled matmul kernel: grid over (m, n) tiles, loop over k.
    fn matmul_program(m: u64, n: u64, k: u64, tm: u64, tn: u64, tk: u64) -> TileProgram {
        let mut b = ProgramBuilder::new("mm", DType::F32);
        let a_buf = b.buffer("A", vec![m, k], DType::F32, BufferRole::Input);
        let b_buf = b.buffer("B", vec![k, n], DType::F32, BufferRole::Input);
        let c_buf = b.buffer("C", vec![m, n], DType::F32, BufferRole::Output);
        let sa = b.smem("sA", tm, tk, DType::F32);
        let sb = b.smem("sB", tk, tn, DType::F32);
        let sc = b.smem("sC", tm, tn, DType::F32);
        let gm = b.grid_dim(crate::kernel::ceil_div(m, tm));
        let gn = b.grid_dim(crate::kernel::ceil_div(n, tn));
        let kl = b.fresh_loop();
        let body = vec![
            BlockStmt::Fill {
                dst: sc,
                value: 0.0,
            },
            BlockStmt::Loop {
                handle: kl,
                extent: crate::kernel::ceil_div(k, tk),
                body: vec![
                    BlockStmt::Load {
                        src: TileAccess {
                            buf: a_buf,
                            indices: vec![
                                TileIndex { var: gm, tile: tm },
                                TileIndex {
                                    var: VarRef::Loop(kl),
                                    tile: tk,
                                },
                            ],
                        },
                        dst: sa,
                    },
                    BlockStmt::Load {
                        src: TileAccess {
                            buf: b_buf,
                            indices: vec![
                                TileIndex {
                                    var: VarRef::Loop(kl),
                                    tile: tk,
                                },
                                TileIndex { var: gn, tile: tn },
                            ],
                        },
                        dst: sb,
                    },
                    BlockStmt::Gemm {
                        a: sa,
                        b: sb,
                        acc: sc,
                        b_transposed: false,
                        acc_col: 0,
                    },
                ],
            },
            BlockStmt::Store {
                dst: TileAccess {
                    buf: c_buf,
                    indices: vec![
                        TileIndex { var: gm, tile: tm },
                        TileIndex { var: gn, tile: tn },
                    ],
                },
                src: sc,
            },
        ];
        b.finish(body)
    }

    #[test]
    fn tiled_matmul_matches_reference() {
        let (m, n, k) = (64, 48, 32);
        let p = matmul_program(m, n, k, 16, 16, 16);
        let mut st = TensorStorage::for_program(&p);
        st.tensors[0] = rand_tensor(&[m, k], 1);
        st.tensors[1] = rand_tensor(&[k, n], 2);
        execute(&p, &mut st).unwrap();
        let expect = ref_matmul(&st.tensors[0], &st.tensors[1]);
        assert!(st.tensors[2].rel_l2_error(&expect) < 1e-5);
    }

    #[test]
    fn partial_tiles_are_zero_padded() {
        // Dimensions that do NOT divide evenly by the tile sizes.
        let (m, n, k) = (50, 34, 21);
        let p = matmul_program(m, n, k, 16, 16, 16);
        let mut st = TensorStorage::for_program(&p);
        st.tensors[0] = rand_tensor(&[m, k], 3);
        st.tensors[1] = rand_tensor(&[k, n], 4);
        execute(&p, &mut st).unwrap();
        let expect = ref_matmul(&st.tensors[0], &st.tensors[1]);
        assert!(st.tensors[2].rel_l2_error(&expect) < 1e-5);
    }

    #[test]
    fn f16_storage_quantizes_loads() {
        let (m, n, k) = (16, 16, 16);
        let mut p = matmul_program(m, n, k, 16, 16, 16);
        // Make the A tile f16 in shared memory.
        p.smem[0].dtype = DType::F16;
        let mut st = TensorStorage::for_program(&p);
        let mut a = HostTensor::zeros(&[m, k]);
        a.data[0] = 1.0 + 2f32.powi(-13); // not representable in f16
        st.tensors[0] = a;
        let mut bmat = HostTensor::zeros(&[k, n]);
        bmat.data[0] = 1.0; // B[0,0]
        st.tensors[1] = bmat;
        execute(&p, &mut st).unwrap();
        // C[0,0] = quantized(A[0,0]) * 1.0 = 1.0 exactly.
        assert_eq!(st.tensors[2].data[0], 1.0);
    }

    /// The non-transposed GEMM takes a row's non-zero `a` terms four at
    /// a time; each accumulator element must still see exactly the
    /// plain i-k-j loop's additions, in the same order.
    #[test]
    fn blocked_gemm_matches_plain_loop_bit_for_bit() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(21);
        let mut draw = |zeros: f64| {
            if rng.gen_bool(zeros) {
                0.0
            } else {
                rng.gen_range(-1.0f32..1.0)
            }
        };
        for (m, n, k) in [(1, 5, 1), (3, 7, 6), (4, 64, 13), (16, 16, 32)] {
            let (stride, acc_col) = (n + 3, 2);
            let a: Vec<f32> = (0..m * k).map(|_| draw(0.3)).collect();
            let b: Vec<f32> = (0..k * n).map(|_| draw(0.0)).collect();
            let mut want: Vec<f32> = (0..m * stride).map(|_| draw(0.0)).collect();
            let mut got = want.clone();
            for i in 0..m {
                for kk in 0..k {
                    let av = a[i * k + kk];
                    if av != 0.0 {
                        for j in 0..n {
                            want[i * stride + acc_col + j] += av * b[kk * n + j];
                        }
                    }
                }
            }
            gemm_inner(&a, &b, &mut got, m, n, k, false, stride, acc_col);
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&want), "{m}x{n}x{k}");
        }
    }

    #[test]
    fn online_softmax_matches_two_pass() {
        // One row of 8 scores processed as two tiles of 4 must equal the
        // direct softmax.
        let rows = 2usize;
        let cols = 4usize;
        let mut smem = Smem {
            bufs: vec![
                vec![0.0; rows * cols],        // scores
                vec![f32::NEG_INFINITY; rows], // row max
                vec![0.0; rows],               // row sum
                vec![0.0; rows * 3],           // acc to rescale
            ],
            rows: vec![rows as u64, rows as u64, rows as u64, rows as u64],
            cols: vec![cols as u64, 1, 1, 3],
        };
        let all: Vec<f32> = (0..rows * 8)
            .map(|i| (i as f32 * 0.37).sin() * 3.0)
            .collect();
        let mut acc_contrib = vec![0.0f32; rows];
        for tile in 0..2 {
            for r in 0..rows {
                for c in 0..cols {
                    smem.bufs[0][r * cols + c] = all[r * 8 + tile * cols + c];
                }
            }
            online_softmax(
                &mut smem,
                SmemId(0),
                SmemId(1),
                SmemId(2),
                &[SmemId(3)],
                1.0,
                cols,
            );
            // Accumulate "P @ ones" per row to test downstream consistency.
            #[allow(clippy::needless_range_loop)]
            for r in 0..rows {
                let alpha_applied: f32 = smem.bufs[0][r * cols..(r + 1) * cols].iter().sum();
                acc_contrib[r] += alpha_applied; // acc rescale tested via bufs[3]
            }
        }
        // After both tiles: row_sum must equal sum of exp(x - max) over all 8.
        for r in 0..rows {
            let row = &all[r * 8..(r + 1) * 8];
            let mx = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            let expect: f32 = row.iter().map(|v| (v - mx).exp()).sum();
            let got = smem.bufs[2][r];
            assert!((got - expect).abs() < 1e-4, "row {r}: {got} vs {expect}");
        }
    }

    #[test]
    fn arena_execution_is_bit_identical_and_recycles() {
        let (m, n, k) = (50, 34, 21);
        let p = matmul_program(m, n, k, 16, 16, 16);
        let a = rand_tensor(&[m, k], 5);
        let b = rand_tensor(&[k, n], 6);

        let mut plain = TensorStorage::for_program(&p);
        plain.tensors[0] = a.clone();
        plain.tensors[1] = b.clone();
        execute(&p, &mut plain).unwrap();

        let mut arena = BufferArena::new();
        let mut first = TensorStorage::for_program_in(&p, &mut arena);
        first.tensors[0] = a.clone();
        first.tensors[1] = b.clone();
        execute_with_arena(&p, &mut first, &mut arena).unwrap();
        assert_eq!(first.tensors[2].data, plain.tensors[2].data);
        first.recycle(&mut arena);
        assert_eq!(arena.reuses(), 0, "first request allocates everything");
        let after_first = arena.allocs();

        // The second identical request is served entirely from the pool.
        let mut second = TensorStorage::for_program_in(&p, &mut arena);
        second.tensors[0] = a;
        second.tensors[1] = b;
        execute_with_arena(&p, &mut second, &mut arena).unwrap();
        assert_eq!(second.tensors[2].data, plain.tensors[2].data);
        assert_eq!(arena.allocs(), after_first, "no fresh allocations");
        assert!(arena.reuses() > 0);
    }

    #[test]
    fn arena_pool_stays_at_its_peak() {
        let mut arena = BufferArena::new();
        for _ in 0..5 {
            let bufs: Vec<Vec<f32>> = (0..3).map(|_| arena.take(8)).collect();
            for b in bufs {
                arena.put(b);
            }
            assert_eq!(arena.pooled(), 3, "a take/put cycle returns to the peak");
        }
        assert_eq!(arena.allocs(), 3, "later cycles are served from the pool");
        // Buffers the arena never handed out are dropped, not pooled:
        // foreign buffers of a pooled length, and lengths never taken.
        arena.put(vec![1.0; 8]);
        arena.put(vec![1.0; 5]);
        arena.put(Vec::new());
        assert_eq!(arena.pooled(), 3);
        // An unzeroed take counts as a loan too.
        let v = arena.take_unzeroed(8);
        arena.put(vec![2.0; 8]);
        arena.put(v);
        assert_eq!(arena.pooled(), 3);
    }

    #[test]
    fn arena_buffers_come_back_zeroed() {
        let mut arena = BufferArena::new();
        let mut v = arena.take(4);
        v.copy_from_slice(&[1.0, 2.0, 3.0, 4.0]);
        arena.put(v);
        assert_eq!(arena.take(4), vec![0.0; 4]);
    }

    #[test]
    fn storage_mismatch_rejected() {
        let p = matmul_program(16, 16, 16, 16, 16, 16);
        let mut st = TensorStorage::for_program(&p);
        st.tensors.pop();
        assert!(matches!(
            execute(&p, &mut st),
            Err(ExecError::StorageMismatch(_))
        ));
    }

    #[test]
    fn clear_outputs_preserves_inputs() {
        let p = matmul_program(16, 16, 16, 16, 16, 16);
        let mut st = TensorStorage::for_program(&p);
        st.tensors[0].data[0] = 5.0;
        st.tensors[2].data[0] = 7.0;
        st.clear_outputs(&p);
        assert_eq!(st.tensors[0].data[0], 5.0);
        assert_eq!(st.tensors[2].data[0], 0.0);
    }

    #[test]
    fn rank3_batched_access() {
        // Batched copy kernel: out[b] = in[b] for 2 batches of 4x4, via a
        // grid dim selecting the batch.
        let mut b = ProgramBuilder::new("copy", DType::F32);
        let src = b.buffer("in", vec![2, 4, 4], DType::F32, BufferRole::Input);
        let dst = b.buffer("out", vec![2, 4, 4], DType::F32, BufferRole::Output);
        let tile = b.smem("t", 4, 4, DType::F32);
        let gb = b.grid_dim(2);
        let body = vec![
            BlockStmt::Load {
                src: TileAccess {
                    buf: src,
                    indices: vec![
                        TileIndex { var: gb, tile: 1 },
                        TileIndex {
                            var: VarRef::Zero,
                            tile: 4,
                        },
                        TileIndex {
                            var: VarRef::Zero,
                            tile: 4,
                        },
                    ],
                },
                dst: tile,
            },
            BlockStmt::Store {
                dst: TileAccess {
                    buf: dst,
                    indices: vec![
                        TileIndex { var: gb, tile: 1 },
                        TileIndex {
                            var: VarRef::Zero,
                            tile: 4,
                        },
                        TileIndex {
                            var: VarRef::Zero,
                            tile: 4,
                        },
                    ],
                },
                src: tile,
            },
        ];
        let p = b.finish(body);
        let mut st = TensorStorage::for_program(&p);
        st.tensors[0] = rand_tensor(&[2, 4, 4], 9);
        execute(&p, &mut st).unwrap();
        assert_eq!(st.tensors[1].data, st.tensors[0].data);
    }

    #[test]
    fn gemm_b_transposed() {
        // C = A × Bᵀ with B stored n×k.
        let mut bld = ProgramBuilder::new("mmT", DType::F32);
        let a_buf = bld.buffer("A", vec![8, 4], DType::F32, BufferRole::Input);
        let b_buf = bld.buffer("B", vec![8, 4], DType::F32, BufferRole::Input);
        let c_buf = bld.buffer("C", vec![8, 8], DType::F32, BufferRole::Output);
        let sa = bld.smem("sA", 8, 4, DType::F32);
        let sb = bld.smem("sB", 8, 4, DType::F32);
        let sc = bld.smem("sC", 8, 8, DType::F32);
        let z = VarRef::Zero;
        let body = vec![
            BlockStmt::Fill {
                dst: sc,
                value: 0.0,
            },
            BlockStmt::Load {
                src: TileAccess {
                    buf: a_buf,
                    indices: vec![TileIndex { var: z, tile: 8 }, TileIndex { var: z, tile: 4 }],
                },
                dst: sa,
            },
            BlockStmt::Load {
                src: TileAccess {
                    buf: b_buf,
                    indices: vec![TileIndex { var: z, tile: 8 }, TileIndex { var: z, tile: 4 }],
                },
                dst: sb,
            },
            BlockStmt::Gemm {
                a: sa,
                b: sb,
                acc: sc,
                b_transposed: true,
                acc_col: 0,
            },
            BlockStmt::Store {
                dst: TileAccess {
                    buf: c_buf,
                    indices: vec![TileIndex { var: z, tile: 8 }, TileIndex { var: z, tile: 8 }],
                },
                src: sc,
            },
        ];
        let p = bld.finish(body);
        let mut st = TensorStorage::for_program(&p);
        st.tensors[0] = rand_tensor(&[8, 4], 11);
        st.tensors[1] = rand_tensor(&[8, 4], 12);
        execute(&p, &mut st).unwrap();
        // Reference: C[i][j] = Σ_k A[i][k] * B[j][k].
        for i in 0..8 {
            for j in 0..8 {
                let mut s = 0.0;
                for kk in 0..4 {
                    s += st.tensors[0].data[i * 4 + kk] * st.tensors[1].data[j * 4 + kk];
                }
                let got = st.tensors[2].data[i * 8 + j];
                assert!((got - s).abs() < 1e-5);
            }
        }
    }

    /// Flat index of tile element `(r, c)` at `origin` in `t`, or `None`
    /// when it falls outside the tensor — the per-element definition of
    /// a tile access. A rank-1 tensor is a single row (row 0).
    fn spec_index(t: &HostTensor, origin: &[u64], r: u64, c: u64) -> Option<usize> {
        let rank = t.shape.len();
        let mut idx: Vec<u64> = origin.to_vec();
        idx[rank - 1] += c;
        if rank >= 2 {
            idx[rank - 2] += r;
        } else if r > 0 {
            return None;
        }
        if idx.iter().zip(&t.shape).any(|(i, d)| i >= d) {
            return None;
        }
        Some(idx.iter().zip(t.strides()).map(|(i, s)| i * s).sum::<u64>() as usize)
    }

    fn pattern(len: usize, salt: u32) -> Vec<f32> {
        (0..len)
            .map(|i| ((i as f32 + salt as f32) * 0.377).sin() * 3.0 + 2f32.powi(-13))
            .collect()
    }

    fn tile_case() -> impl proptest::Strategy<Value = (HostTensor, Vec<u64>, u64, u64, DType)> {
        use proptest::prelude::*;
        (
            1usize..4,
            prop::collection::vec(1u64..7, 3),
            (1u64..6, 1u64..6),
            prop::collection::vec(0u64..9, 3),
            prop::sample::select(vec![DType::F32, DType::F16, DType::Bf16]),
        )
            .prop_map(|(rank, dims, (rows, cols), picks, dt)| {
                let shape = dims[..rank].to_vec();
                // Origins run one tile past the end on the tiled dims and
                // one index past it on leading dims, so clipped and
                // entirely out-of-range tiles both occur.
                let origin: Vec<u64> = (0..rank)
                    .map(|d| {
                        let tiled = if rank - d == 1 {
                            Some(cols)
                        } else if rank - d == 2 {
                            Some(rows)
                        } else {
                            None
                        };
                        match tiled {
                            Some(t) => (picks[d] % (shape[d].div_ceil(t) + 1)) * t,
                            None => picks[d] % (shape[d] + 1),
                        }
                    })
                    .collect();
                let len = shape.iter().product::<u64>() as usize;
                (
                    HostTensor::from_vec(&shape, pattern(len, 1)),
                    origin,
                    rows,
                    cols,
                    dt,
                )
            })
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// Row-copy loads equal the per-element definition, bit for bit.
        #[test]
        fn load_tile_matches_per_element_spec(case in tile_case()) {
            let (src, origin, rows, cols, dt) = case;
            let mut got = pattern((rows * cols) as usize, 2);
            load_tile(&src, &origin, rows, cols, dt, &mut got);
            // A rank-1 source fills every tile row with its one row.
            let rank1 = src.shape.len() == 1;
            for r in 0..rows {
                for c in 0..cols {
                    let want = spec_index(&src, &origin, if rank1 { 0 } else { r }, c)
                        .map_or(0.0, |i| dt.quantize(src.data[i]));
                    let g = got[(r * cols + c) as usize];
                    proptest::prop_assert_eq!(
                        g.to_bits(),
                        want.to_bits(),
                        "{:?} at {:?}, {}x{} {}: ({}, {})",
                        src.shape, origin, rows, cols, dt, r, c
                    );
                }
            }
        }

        /// Row-copy stores equal the per-element definition, bit for
        /// bit, and leave everything outside the tile untouched.
        #[test]
        fn store_tile_matches_per_element_spec(case in tile_case()) {
            let (dst, origin, rows, cols, dt) = case;
            let tile = pattern((rows * cols) as usize, 3);
            let mut want = dst.clone();
            for r in 0..rows {
                for c in 0..cols {
                    if let Some(i) = spec_index(&dst, &origin, r, c) {
                        want.data[i] = dt.quantize(tile[(r * cols + c) as usize]);
                    }
                }
            }
            let mut got = dst;
            store_tile(&tile, rows, cols, dt, &mut got, &origin);
            for (i, (g, w)) in got.data.iter().zip(&want.data).enumerate() {
                proptest::prop_assert_eq!(
                    g.to_bits(),
                    w.to_bits(),
                    "{:?} at {:?}, {}x{} {}: element {}",
                    got.shape, origin, rows, cols, dt, i
                );
            }
        }
    }
}
