//! The MBCI operator chain — the unit of fusion MCFuser tunes.
//!
//! A chain is a straight line of matrix multiplications where each
//! operator's output feeds the next operator's left-hand side, with
//! optional memory-intensive epilogues (softmax — plain or masked —
//! ReLU, GELU, scaling) and per-stage bias adds applied in between.
//! The paper's running examples are:
//!
//! * the GEMM chain `C = A×B, E = C×D` (§III, Fig. 3), and
//! * self-attention `E = softmax(Q Kᵀ / √d) V` (§VI-B2),
//!
//! both instances of the same shape-generic structure:
//!
//! ```text
//! T₀ = A · W₀           A: [batch, m, d₀]   W₀: [batch, d₀, d₁]
//! T₁ = ε₀(T₀) · W₁      W₁: [batch, d₁, d₂]
//! ...
//! out = ε_{L-1}(T_{L-1})        out: [batch, m, d_L]
//! ```
//!
//! The cross-tile loop axes of a chain are `m` plus one axis per `dᵢ`
//! (named `k, n, h, p, q, …` to match the paper) and the batch.

use mcfuser_sim::{DType, DeviceSpec, HostTensor};

/// A memory-intensive epilogue fused after a compute block.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum Epilogue {
    /// Identity.
    #[default]
    None,
    /// Element-wise `max(x, 0)`.
    Relu,
    /// Element-wise GELU (tanh approximation).
    Gelu,
    /// Element-wise multiplication by a constant.
    Scale(f32),
    /// Row-wise softmax over the output's last dimension with a
    /// pre-softmax scale (e.g. `1/√d_k` in attention).
    Softmax {
        /// Pre-softmax multiplier.
        scale: f32,
    },
    /// Row-wise softmax over `scale·(x + mask)`, where `mask` is an
    /// auxiliary `[batch, m, d_{i+1}]` chain input (additive attention
    /// mask; a causal mask is the special case of a lower-triangular
    /// one). Matches the graph pattern `Softmax{scale}(Add(scores,
    /// mask))`; for the usual `0/−large` masks this coincides with the
    /// scale-then-mask convention.
    MaskedSoftmax {
        /// Pre-softmax multiplier (applied after the mask is added).
        scale: f32,
    },
}

impl Epilogue {
    /// Whether this epilogue requires full rows before producing output
    /// (forces streaming/online handling when the row dim is tiled).
    pub fn is_rowwise(&self) -> bool {
        matches!(
            self,
            Epilogue::Softmax { .. } | Epilogue::MaskedSoftmax { .. }
        )
    }

    /// Whether this epilogue consumes an auxiliary chain input (the
    /// attention mask). Biases are tracked separately per stage on
    /// [`ChainSpec::biases`].
    pub fn needs_mask(&self) -> bool {
        matches!(self, Epilogue::MaskedSoftmax { .. })
    }
}

/// One auxiliary data input of a chain beyond `A` and the weights:
/// a per-stage bias vector, an attention mask, or a stitched
/// prologue/epilogue operand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AuxInput {
    /// Bias vector `[d_{stage+1}]`, added to stage `stage`'s output
    /// before its elementwise epilogue.
    Bias {
        /// The compute block this bias belongs to.
        stage: usize,
    },
    /// Additive mask `[batch, m, d_{stage+1}]` consumed by stage
    /// `stage`'s [`Epilogue::MaskedSoftmax`].
    Mask {
        /// The compute block this mask belongs to.
        stage: usize,
    },
    /// Raw (f32) residual `[batch, m, d₀]` added to the raw chain input
    /// before the [`PrologueSpec`] normalization.
    PrologueResidual,
    /// Prologue LayerNorm scale `[d₀]` (stored in f32).
    PrologueGamma,
    /// Prologue LayerNorm shift `[d₀]` (stored in f32).
    PrologueBeta,
    /// Raw (f32) residual `[batch, m, d_L]` added to the quantized chain
    /// output by an [`EpilogueStitch`] with
    /// [`ResidualSource::External`]. A [`ResidualSource::PrologueOut`]
    /// residual is recomputed in-kernel from the prologue operands and
    /// needs no extra input.
    TailResidual,
    /// Tail LayerNorm scale `[d_L]` (stored in f32).
    TailGamma,
    /// Tail LayerNorm shift `[d_L]` (stored in f32).
    TailBeta,
}

/// A fused prologue stitched before the chain's first matmul: the chain
/// input `A` arrives *raw* (pre-normalization, f32) and the kernel
/// applies `LayerNorm((A + residual?))` per row of `d₀` before
/// quantizing to the chain dtype and feeding the first GEMM. This folds
/// the `residual Add → LayerNorm → Linear` glue of a transformer layer
/// into the chain kernel, eliminating one round trip of the activation
/// through global memory.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrologueSpec {
    /// Whether a raw residual tensor ([`AuxInput::PrologueResidual`]) is
    /// added to `A` before normalization.
    pub residual: bool,
    /// Whether the normalization has affine scale/shift weights
    /// ([`AuxInput::PrologueGamma`]/[`AuxInput::PrologueBeta`]).
    /// Stitched prologues require affine weights: zero-padded strips
    /// make out-of-range tile columns exactly zero, matching the
    /// zero-padded loads of the unstitched layout bit-for-bit.
    pub affine: bool,
    /// The raw `A` operand is *stored* at the chain's element precision:
    /// its producer is another fused chain without a tail stitch, which
    /// quantizes its output on store. Values are unaffected (loads pass
    /// through the f32 tile), but global traffic moves half the bytes.
    /// `false` for operands crossing the unfused boundary (graph inputs,
    /// reference-step values, stitched-tail outputs), which live in f32.
    pub a_half: bool,
    /// LayerNorm epsilon.
    pub eps: f32,
}

/// Where a stitched tail residual comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResidualSource {
    /// An [`AuxInput::TailResidual`] tensor read from global memory.
    External,
    /// The raw prologue output (e.g. `ln1` in a BERT FFN block), which
    /// the kernel recomputes element-wise from the prologue operands
    /// using whole-row statistics. Requires `d₀ == d_L` and a
    /// [`ChainSpec::prologue`].
    PrologueOut,
}

/// A fused epilogue stitched after the chain's last matmul: the
/// accumulator is quantized to the chain dtype (bit-matching the store
/// the unstitched layout would have performed), a raw residual is added,
/// an optional full-row LayerNorm is applied, and the result is stored
/// *raw* (f32) — exactly the value the downstream graph would have seen
/// from the unstitched `Add (→ LayerNorm)` reference steps.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpilogueStitch {
    /// Source of the residual added to the quantized chain output.
    pub residual: ResidualSource,
    /// Whether a trailing full-row LayerNorm over `d_L` is fused.
    pub layer_norm: bool,
    /// Whether that LayerNorm has affine weights
    /// ([`AuxInput::TailGamma`]/[`AuxInput::TailBeta`]).
    pub affine: bool,
    /// LayerNorm epsilon.
    pub eps: f32,
}

/// A chain of `L = dims.len() - 1` batched matmuls.
#[derive(Debug, Clone, PartialEq)]
pub struct ChainSpec {
    /// Human-readable name (e.g. `"G4"`, `"S2"`).
    pub name: String,
    /// Batch size (product of batch and head count for attention).
    pub batch: u64,
    /// Shared row dimension `m`.
    pub m: u64,
    /// `d₀ … d_L`: the reduction dim of op 0, the intermediate dims, and
    /// the output column dim. For the paper's 2-GEMM chain this is
    /// `[K, N, H]`.
    pub dims: Vec<u64>,
    /// Epilogue applied after op `i` (length `L`). The last entry is
    /// applied before the final store.
    pub epilogues: Vec<Epilogue>,
    /// Whether op `i` adds a bias vector `[d_{i+1}]` to its output
    /// before `epilogues[i]` (length `L`; all-false for the paper's
    /// unbiased chains).
    pub biases: Vec<bool>,
    /// Storage precision of all tensors.
    pub dtype: DType,
    /// Stitched normalization prologue before the first matmul (`None`
    /// for plain chains).
    pub prologue: Option<PrologueSpec>,
    /// Stitched residual/LayerNorm epilogue after the last matmul
    /// (`None` for plain chains).
    pub stitch_epilogue: Option<EpilogueStitch>,
}

/// Canonical axis names used in tiling expressions: `m`, then `k, n, h,
/// p, q, r, s…` for `d₀, d₁, …`.
pub const AXIS_NAMES: [&str; 8] = ["k", "n", "h", "p", "q", "r", "s", "t"];

impl ChainSpec {
    /// A 2-GEMM chain `C = A×B; E = C×D` with the paper's `(M, N, K, H)`
    /// naming (Table II).
    pub fn gemm_chain(name: impl Into<String>, batch: u64, m: u64, n: u64, k: u64, h: u64) -> Self {
        ChainSpec {
            name: name.into(),
            batch,
            m,
            dims: vec![k, n, h],
            epilogues: vec![Epilogue::None, Epilogue::None],
            biases: vec![false, false],
            dtype: DType::F16,
            prologue: None,
            stitch_epilogue: None,
        }
    }

    /// An arbitrary-length chain `T₀ = A·W₀; Tᵢ = εᵢ₋₁(Tᵢ₋₁)·Wᵢ` with
    /// per-stage epilogues (no biases). `dims` is `d₀ … d_L`, so the
    /// chain has `dims.len() - 1` matmuls and `epilogues` must have
    /// that many entries.
    pub fn chain(
        name: impl Into<String>,
        batch: u64,
        m: u64,
        dims: Vec<u64>,
        epilogues: Vec<Epilogue>,
    ) -> Self {
        assert!(dims.len() >= 2, "a chain needs at least one matmul");
        assert_eq!(
            epilogues.len(),
            dims.len() - 1,
            "one epilogue per compute block"
        );
        let ops = dims.len() - 1;
        ChainSpec {
            name: name.into(),
            batch,
            m,
            dims,
            epilogues,
            biases: vec![false; ops],
            dtype: DType::F16,
            prologue: None,
            stitch_epilogue: None,
        }
    }

    /// A self-attention module `E = softmax(Q Kᵀ/√K) V` with `heads`
    /// folded into the batch (Table III).
    pub fn attention(name: impl Into<String>, heads: u64, m: u64, n: u64, k: u64, h: u64) -> Self {
        ChainSpec {
            name: name.into(),
            batch: heads,
            m,
            dims: vec![k, n, h],
            epilogues: vec![
                Epilogue::Softmax {
                    scale: 1.0 / (k as f64).sqrt() as f32,
                },
                Epilogue::None,
            ],
            biases: vec![false, false],
            dtype: DType::F16,
            prologue: None,
            stitch_epilogue: None,
        }
    }

    /// Self-attention with an additive `[heads, m, n]` mask folded into
    /// the softmax: `E = softmax((Q Kᵀ + M)/√K) V` — the mask is added
    /// to the raw scores *before* the pre-softmax scale, matching the
    /// graph pattern `Softmax{scale}(Add(scores, mask))`. For the usual
    /// `0/−large` masks this coincides with the scale-then-mask
    /// convention; relative-position-bias-style soft masks should be
    /// pre-multiplied by `√K` if the other convention is intended.
    pub fn masked_attention(
        name: impl Into<String>,
        heads: u64,
        m: u64,
        n: u64,
        k: u64,
        h: u64,
    ) -> Self {
        let mut c = Self::attention(name, heads, m, n, k, h);
        c.epilogues[0] = Epilogue::MaskedSoftmax {
            scale: 1.0 / (k as f64).sqrt() as f32,
        };
        c
    }

    /// A single matmul `C[m,n] = A[m,k]·B[k,n]` (used by Fig. 2 and by
    /// per-operator baselines).
    pub fn single_matmul(name: impl Into<String>, batch: u64, m: u64, n: u64, k: u64) -> Self {
        ChainSpec {
            name: name.into(),
            batch,
            m,
            dims: vec![k, n],
            epilogues: vec![Epilogue::None],
            biases: vec![false],
            dtype: DType::F16,
            prologue: None,
            stitch_epilogue: None,
        }
    }

    /// Number of compute blocks (matmuls).
    pub fn num_ops(&self) -> usize {
        self.dims.len() - 1
    }

    /// Number of cross-tile loop axes excluding the batch: `m` + one per
    /// `dᵢ`.
    pub fn num_axes(&self) -> usize {
        1 + self.dims.len()
    }

    /// Extent of axis `i` (axis 0 = `m`, axis `1+i` = `dims[i]`).
    pub fn axis_extent(&self, axis: usize) -> u64 {
        if axis == 0 {
            self.m
        } else {
            self.dims[axis - 1]
        }
    }

    /// Display name of axis `i`.
    pub fn axis_name(&self, axis: usize) -> &'static str {
        if axis == 0 {
            "m"
        } else {
            AXIS_NAMES[axis - 1]
        }
    }

    /// Auxiliary data inputs beyond `A` and the weights, in canonical
    /// order: for each stage `i` (ascending), its bias (if any) then its
    /// mask (if any); then the stitched prologue operands (residual,
    /// gamma, beta); then the stitched tail operands (residual, gamma,
    /// beta).
    pub fn aux_inputs(&self) -> Vec<AuxInput> {
        let mut v = Vec::new();
        for i in 0..self.num_ops() {
            if self.biases.get(i).copied().unwrap_or(false) {
                v.push(AuxInput::Bias { stage: i });
            }
            if self.epilogues[i].needs_mask() {
                v.push(AuxInput::Mask { stage: i });
            }
        }
        if let Some(p) = &self.prologue {
            if p.residual {
                v.push(AuxInput::PrologueResidual);
            }
            if p.affine {
                v.push(AuxInput::PrologueGamma);
                v.push(AuxInput::PrologueBeta);
            }
        }
        if let Some(e) = &self.stitch_epilogue {
            if e.residual == ResidualSource::External {
                v.push(AuxInput::TailResidual);
            }
            if e.layer_norm && e.affine {
                v.push(AuxInput::TailGamma);
                v.push(AuxInput::TailBeta);
            }
        }
        v
    }

    /// Shape of one auxiliary input.
    pub fn aux_shape(&self, aux: AuxInput) -> Vec<u64> {
        match aux {
            AuxInput::Bias { stage } => vec![self.dims[stage + 1]],
            AuxInput::Mask { stage } => vec![self.batch, self.m, self.dims[stage + 1]],
            AuxInput::PrologueResidual => vec![self.batch, self.m, self.dims[0]],
            AuxInput::PrologueGamma | AuxInput::PrologueBeta => vec![self.dims[0]],
            AuxInput::TailResidual => vec![self.batch, self.m, *self.dims.last().unwrap()],
            AuxInput::TailGamma | AuxInput::TailBeta => vec![*self.dims.last().unwrap()],
        }
    }

    /// Total number of data inputs: `A`, `L` weights, plus auxiliaries.
    pub fn num_inputs(&self) -> usize {
        self.num_ops() + 1 + self.aux_inputs().len()
    }

    /// The input tensor shapes: `A`, each weight `Wᵢ`, then the
    /// auxiliary inputs (biases/masks) in [`ChainSpec::aux_inputs`]
    /// order.
    pub fn input_shapes(&self) -> Vec<Vec<u64>> {
        let mut v = Vec::with_capacity(self.num_inputs());
        v.push(vec![self.batch, self.m, self.dims[0]]);
        for i in 0..self.num_ops() {
            v.push(vec![self.batch, self.dims[i], self.dims[i + 1]]);
        }
        for aux in self.aux_inputs() {
            v.push(self.aux_shape(aux));
        }
        v
    }

    /// Output shape `[batch, m, d_L]`.
    pub fn output_shape(&self) -> Vec<u64> {
        vec![self.batch, self.m, *self.dims.last().unwrap()]
    }

    /// Shape of intermediate `Tᵢ` = `[batch, m, d_{i+1}]`.
    pub fn intermediate_shape(&self, i: usize) -> Vec<u64> {
        vec![self.batch, self.m, self.dims[i + 1]]
    }

    /// Total floating-point operations of the matmuls.
    pub fn flops(&self) -> f64 {
        let mut f = 0.0;
        for i in 0..self.num_ops() {
            f += 2.0 * (self.batch * self.m * self.dims[i] * self.dims[i + 1]) as f64;
        }
        f
    }

    /// Compulsory global traffic of a perfectly fused kernel: inputs once
    /// in, output once out. Stitched operands (the raw chain input, the
    /// prologue/tail residuals and LayerNorm weights, and the stitched
    /// output) live in f32 regardless of the chain dtype.
    pub fn min_traffic_bytes(&self) -> f64 {
        let e = self.dtype.size_bytes() as f64;
        let raw = 4.0;
        let a_elems = (self.batch * self.m * self.dims[0]) as f64;
        let mut b = a_elems * if self.prologue.is_some() { raw } else { e };
        for i in 0..self.num_ops() {
            b += (self.batch * self.dims[i] * self.dims[i + 1]) as f64 * e;
        }
        for aux in self.aux_inputs() {
            let elems = self.aux_shape(aux).iter().product::<u64>() as f64;
            let sz = match aux {
                AuxInput::Bias { .. } | AuxInput::Mask { .. } => e,
                _ => raw,
            };
            b += elems * sz;
        }
        let out_elems = self.output_shape().iter().product::<u64>() as f64;
        b += out_elems
            * if self.stitch_epilogue.is_some() {
                raw
            } else {
                e
            };
        b
    }

    /// Additional traffic an unfused pipeline pays: every intermediate
    /// written then re-read (plus extra passes for row-wise epilogues).
    pub fn unfused_extra_traffic_bytes(&self) -> f64 {
        let e = self.dtype.size_bytes() as f64;
        let mut b = 0.0;
        for i in 0..self.num_ops().saturating_sub(1) {
            let elems = self.intermediate_shape(i).iter().product::<u64>() as f64;
            // write + read back
            b += 2.0 * elems * e;
            if self.epilogues[i].is_rowwise() {
                // softmax: extra read/write passes over the scores
                b += 3.0 * elems * e;
            }
        }
        b
    }

    /// Arithmetic intensity of the *fused* kernel (FLOP per byte): inputs
    /// once in, output once out. Fusion exists precisely to lift this
    /// above the per-operator intensity.
    pub fn operational_intensity(&self) -> f64 {
        self.flops() / self.min_traffic_bytes()
    }

    /// Arithmetic intensity of operator `i` executed standalone —
    /// the paper's φ = 2MNK/((MK + KN + MN)·esz) for one GEMM (§II-A).
    pub fn op_intensity(&self, i: usize) -> f64 {
        let m = self.m as f64;
        let k = self.dims[i] as f64;
        let n = self.dims[i + 1] as f64;
        let esz = self.dtype.size_bytes() as f64;
        2.0 * m * n * k / ((m * k + k * n + m * n) * esz)
    }

    /// Arithmetic intensity of operator `i` *inside the stitched kernel*:
    /// the prologue makes the first op read its `A` operand (and the
    /// optional residual) raw in f32, twice — once for the row-statistics
    /// pass, once for the normalize-and-load pass — while the tail makes
    /// the last op store raw f32 (plus an external residual read). The
    /// element-wise recompute reads of a [`ResidualSource::PrologueOut`]
    /// tail are streaming loads overlapped with the store and are charged
    /// by the timing model, not here.
    pub fn stitched_op_intensity(&self, i: usize) -> f64 {
        const F32: f64 = 4.0;
        let m = self.m as f64;
        let k = self.dims[i] as f64;
        let n = self.dims[i + 1] as f64;
        let esz = self.dtype.size_bytes() as f64;
        let mut a_term = m * k * esz;
        let w_term = k * n * esz;
        let mut o_term = m * n * esz;
        if i == 0 {
            if let Some(p) = &self.prologue {
                let tensors = if p.residual { 2.0 } else { 1.0 };
                a_term = m * k * F32 * 2.0 * tensors;
            }
        }
        if i + 1 == self.num_ops() {
            if let Some(e) = &self.stitch_epilogue {
                o_term = m * n * F32;
                if e.residual == ResidualSource::External {
                    o_term += m * n * F32;
                }
            }
        }
        2.0 * m * n * k / (a_term + w_term + o_term)
    }

    /// Whether this chain carries a stitched prologue or epilogue.
    pub fn is_stitched(&self) -> bool {
        self.prologue.is_some() || self.stitch_epilogue.is_some()
    }

    /// The same chain with the stitched prologue/epilogue stripped — the
    /// baseline the stitched kernel must match bit-for-bit once the
    /// demoted glue ops are applied outside the kernel.
    pub fn unstitched(&self) -> ChainSpec {
        let mut c = self.clone();
        c.prologue = None;
        c.stitch_epilogue = None;
        c
    }

    /// The paper's MBCI test (§II-A): each compute-intensive operator of
    /// the chain, run standalone, sits *below* the device ridge point
    /// `P/W` — i.e. every operator is memory bound, so fusing the chain
    /// (which raises arithmetic intensity) pays off.
    pub fn is_memory_bound(&self, dev: &DeviceSpec) -> bool {
        let ridge = dev.ridge_flops_per_byte(self.dtype);
        (0..self.num_ops()).all(|i| self.op_intensity(i) < ridge)
    }

    /// True if any epilogue is a row-wise softmax (attention-like chains).
    pub fn has_softmax(&self) -> bool {
        self.epilogues.iter().any(Epilogue::is_rowwise)
    }

    /// Generate deterministic random inputs (values in `[-1, 1]`).
    pub fn random_inputs(&self, seed: u64) -> Vec<HostTensor> {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        self.input_shapes()
            .iter()
            .map(|s| {
                let len = s.iter().product::<u64>() as usize;
                HostTensor::from_vec(s, (0..len).map(|_| rng.gen_range(-1.0f32..1.0)).collect())
            })
            .collect()
    }

    /// Index of an auxiliary input within [`ChainSpec::input_shapes`]
    /// (auxiliaries follow `A` and the `L` weights).
    pub fn aux_index(&self, aux: AuxInput) -> Option<usize> {
        self.aux_inputs()
            .iter()
            .position(|a| *a == aux)
            .map(|p| self.num_ops() + 1 + p)
    }

    /// CPU reference execution — the correctness oracle for fused kernels.
    ///
    /// Computes every matmul naively in f32 with the declared biases and
    /// epilogues. Stitched chains mirror the kernel's quantization points
    /// exactly: the prologue output is rounded to the chain dtype before
    /// entering the first GEMM (as a `load` from an f16 buffer would
    /// round it), and the last accumulator is rounded before the tail
    /// residual add (as the unstitched `store` would round it) — so the
    /// stitched result is bit-identical to running the unstitched chain
    /// plus reference glue ops.
    pub fn reference(&self, inputs: &[HostTensor]) -> HostTensor {
        assert_eq!(inputs.len(), self.num_inputs());
        let b = self.batch as usize;
        let m = self.m as usize;
        let mut prologue_raw: Option<Vec<f32>> = None;
        let mut cur: Vec<f32> = inputs[0].data.clone(); // [b, m, d0]
        if let Some(p) = self.prologue {
            let d0 = self.dims[0] as usize;
            if p.residual {
                let res = &inputs[self.aux_index(AuxInput::PrologueResidual).unwrap()].data;
                for (v, r) in cur.iter_mut().zip(res) {
                    *v += *r;
                }
            }
            let gamma = p
                .affine
                .then(|| &inputs[self.aux_index(AuxInput::PrologueGamma).unwrap()].data[..]);
            let beta = p
                .affine
                .then(|| &inputs[self.aux_index(AuxInput::PrologueBeta).unwrap()].data[..]);
            layer_norm_rows(&mut cur, b * m, d0, p.eps, gamma, beta);
            prologue_raw = Some(cur.clone());
            for v in cur.iter_mut() {
                *v = self.dtype.quantize(*v);
            }
        }
        let mut cur_cols = self.dims[0] as usize;
        for op in 0..self.num_ops() {
            let kd = self.dims[op] as usize;
            let nd = self.dims[op + 1] as usize;
            debug_assert_eq!(cur_cols, kd);
            let w = &inputs[op + 1].data; // [b, kd, nd]
            let mut out = vec![0.0f32; b * m * nd];
            for bb in 0..b {
                let cur_base = bb * m * kd;
                let w_base = bb * kd * nd;
                let out_base = bb * m * nd;
                for i in 0..m {
                    for kk in 0..kd {
                        let av = cur[cur_base + i * kd + kk];
                        if av == 0.0 {
                            continue;
                        }
                        let wrow = &w[w_base + kk * nd..w_base + (kk + 1) * nd];
                        let orow = &mut out[out_base + i * nd..out_base + (i + 1) * nd];
                        for j in 0..nd {
                            orow[j] += av * wrow[j];
                        }
                    }
                }
            }
            if self.biases.get(op).copied().unwrap_or(false) {
                let bias = &inputs[self.aux_index(AuxInput::Bias { stage: op }).unwrap()].data;
                for (r, v) in out.iter_mut().enumerate() {
                    *v += bias[r % nd];
                }
            }
            if let Epilogue::MaskedSoftmax { scale } = self.epilogues[op] {
                let mask = &inputs[self.aux_index(AuxInput::Mask { stage: op }).unwrap()].data;
                apply_masked_softmax(&mut out, mask, b * m, nd, scale);
            } else {
                apply_epilogue(self.epilogues[op], &mut out, b * m, nd);
            }
            cur = out;
            cur_cols = nd;
        }
        if let Some(e) = self.stitch_epilogue {
            let dl = *self.dims.last().unwrap() as usize;
            // The unstitched layout would store the chain output in the
            // chain dtype; round before the residual add so the stitched
            // value matches it bit-for-bit.
            for v in cur.iter_mut() {
                *v = self.dtype.quantize(*v);
            }
            match e.residual {
                ResidualSource::PrologueOut => {
                    let raw = prologue_raw
                        .as_ref()
                        .expect("PrologueOut tail requires a stitched prologue");
                    for (v, r) in cur.iter_mut().zip(raw) {
                        *v += *r;
                    }
                }
                ResidualSource::External => {
                    let res = &inputs[self.aux_index(AuxInput::TailResidual).unwrap()].data;
                    for (v, r) in cur.iter_mut().zip(res) {
                        *v += *r;
                    }
                }
            }
            if e.layer_norm {
                let gamma = e
                    .affine
                    .then(|| &inputs[self.aux_index(AuxInput::TailGamma).unwrap()].data[..]);
                let beta = e
                    .affine
                    .then(|| &inputs[self.aux_index(AuxInput::TailBeta).unwrap()].data[..]);
                layer_norm_rows(&mut cur, b * m, dl, e.eps, gamma, beta);
            }
        }
        HostTensor::from_vec(&self.output_shape(), cur)
    }
}

/// Row-wise LayerNorm over a `rows × cols` row-major matrix, matching
/// the graph reference evaluator's operation order exactly (sequential
/// sums; `n = (v - mean)·inv`, then `n *= γ`, then `n += β`) so that
/// chain-level and graph-level references agree bit-for-bit.
pub fn layer_norm_rows(
    data: &mut [f32],
    rows: usize,
    cols: usize,
    eps: f32,
    gamma: Option<&[f32]>,
    beta: Option<&[f32]>,
) {
    for r in 0..rows {
        let row = &mut data[r * cols..(r + 1) * cols];
        let mean = row.iter().sum::<f32>() / cols as f32;
        let var = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / cols as f32;
        let inv = 1.0 / (var + eps).sqrt();
        for (c, v) in row.iter_mut().enumerate() {
            let mut n = (*v - mean) * inv;
            if let Some(g) = gamma {
                n *= g[c];
            }
            if let Some(b) = beta {
                n += b[c];
            }
            *v = n;
        }
    }
}

/// Apply an epilogue in place over a `rows × cols` row-major matrix.
/// [`Epilogue::MaskedSoftmax`] is applied as a plain softmax here (the
/// mask is an auxiliary tensor this signature cannot carry — use
/// [`apply_masked_softmax`] when the mask is at hand).
pub fn apply_epilogue(e: Epilogue, data: &mut [f32], rows: usize, cols: usize) {
    match e {
        Epilogue::None => {}
        Epilogue::Relu => {
            for v in data.iter_mut() {
                *v = v.max(0.0);
            }
        }
        Epilogue::Gelu => {
            // The scalar definition, not `mcfuser_sim::gelu_in_place`: the
            // chain oracle checks the vectorized kernel from the outside.
            for v in data.iter_mut() {
                *v = crate::reference::gelu(*v);
            }
        }
        Epilogue::Scale(f) => {
            for v in data.iter_mut() {
                *v *= f;
            }
        }
        Epilogue::Softmax { scale } | Epilogue::MaskedSoftmax { scale } => {
            for r in 0..rows {
                let row = &mut data[r * cols..(r + 1) * cols];
                let mx = row.iter().fold(f32::NEG_INFINITY, |a, &v| a.max(scale * v));
                let mut sum = 0.0f32;
                for v in row.iter_mut() {
                    *v = (scale * *v - mx).exp();
                    sum += *v;
                }
                if sum > 0.0 {
                    for v in row.iter_mut() {
                        *v /= sum;
                    }
                }
            }
        }
    }
}

/// Row-wise softmax of `scale·(x + mask)` over a `rows × cols`
/// row-major matrix (`mask` has the same layout).
pub fn apply_masked_softmax(data: &mut [f32], mask: &[f32], rows: usize, cols: usize, scale: f32) {
    for r in 0..rows {
        let row = &mut data[r * cols..(r + 1) * cols];
        let mrow = &mask[r * cols..(r + 1) * cols];
        let mut mx = f32::NEG_INFINITY;
        for (v, mk) in row.iter().zip(mrow) {
            mx = mx.max(scale * (v + mk));
        }
        let mut sum = 0.0f32;
        for (v, mk) in row.iter_mut().zip(mrow) {
            *v = (scale * (*v + mk) - mx).exp();
            sum += *v;
        }
        if sum > 0.0 {
            for v in row.iter_mut() {
                *v /= sum;
            }
        }
    }
}

/// A finite additive causal mask `[heads, m, n]`: `0` on and below the
/// diagonal, a large negative constant above it (finite so padded tiles
/// never produce `inf − inf` NaNs).
pub fn causal_mask(heads: u64, m: u64, n: u64) -> HostTensor {
    const NEG: f32 = -1.0e9;
    let (hh, mm, nn) = (heads as usize, m as usize, n as usize);
    let mut data = vec![0.0f32; hh * mm * nn];
    for h in 0..hh {
        for r in 0..mm {
            for c in 0..nn {
                if c > r {
                    data[h * mm * nn + r * nn + c] = NEG;
                }
            }
        }
    }
    HostTensor::from_vec(&[heads, m, n], data)
}

/// A decode-step mask `[heads, 1, n]` for a query at position `pos`
/// attending over a KV panel of bucket capacity `n`: `0` for columns
/// `0..=pos`, the same large negative constant as [`causal_mask`] for
/// columns beyond. Scaled and exponentiated, the masked columns
/// underflow to an exact `0.0` probability, so outputs are invariant to
/// the bucket padding.
pub fn decode_mask(heads: u64, n: u64, pos: u64) -> HostTensor {
    const NEG: f32 = -1.0e9;
    let (hh, nn, p) = (heads as usize, n as usize, pos as usize);
    let mut data = vec![0.0f32; hh * nn];
    for h in 0..hh {
        for c in (p + 1)..nn {
            data[h * nn + c] = NEG;
        }
    }
    HostTensor::from_vec(&[heads, 1, n], data)
}

/// A one-hot scatter column `[batch, n, 1]` selecting row `pos`: used as
/// the left operand of a batched matmul against a `[batch, 1, d]` new
/// KV row so `cache + onehot×row` appends the row at `pos` without a
/// dedicated scatter op.
pub fn scatter_onehot(batch: u64, n: u64, pos: u64) -> HostTensor {
    let (bb, nn, p) = (batch as usize, n as usize, pos as usize);
    let mut data = vec![0.0f32; bb * nn];
    for b in 0..bb {
        data[b * nn + p] = 1.0;
    }
    HostTensor::from_vec(&[batch, n, 1], data)
}

impl std::fmt::Display for ChainSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: batch={} m={} dims={:?}",
            self.name, self.batch, self.m, self.dims
        )?;
        if self.has_softmax() {
            write!(f, " (softmax)")?;
        }
        if self.prologue.is_some() {
            write!(f, " (+prologue)")?;
        }
        if self.stitch_epilogue.is_some() {
            write!(f, " (+epilogue)")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gemm_chain_shapes() {
        let c = ChainSpec::gemm_chain("g", 1, 512, 256, 64, 128);
        assert_eq!(c.num_ops(), 2);
        assert_eq!(c.num_axes(), 4);
        assert_eq!(
            c.input_shapes(),
            vec![vec![1, 512, 64], vec![1, 64, 256], vec![1, 256, 128],]
        );
        assert_eq!(c.output_shape(), vec![1, 512, 128]);
        assert_eq!(c.axis_name(0), "m");
        assert_eq!(c.axis_name(1), "k");
        assert_eq!(c.axis_name(2), "n");
        assert_eq!(c.axis_name(3), "h");
    }

    #[test]
    fn flops_matches_hand_count() {
        let c = ChainSpec::gemm_chain("g", 2, 8, 4, 3, 5);
        // 2 * (2*8*3*4 + 2*8*4*5) = 2*(192 + 320)... careful:
        // op0: 2*B*M*K*N = 2*2*8*3*4 = 384; op1: 2*2*8*4*5 = 640.
        assert_eq!(c.flops(), 384.0 + 640.0);
    }

    #[test]
    fn mbci_classification_depends_on_k() {
        let dev = DeviceSpec::a100();
        // Fat reduction dims: compute bound.
        let fat = ChainSpec::gemm_chain("fat", 1, 4096, 4096, 4096, 4096);
        assert!(!fat.is_memory_bound(&dev));
        // Skinny reduction dims (the paper's MBCI regime): memory bound.
        let skinny = ChainSpec::gemm_chain("skinny", 1, 512, 256, 64, 64);
        assert!(skinny.is_memory_bound(&dev));
    }

    #[test]
    fn reference_matches_manual_2gemm() {
        let c = ChainSpec::gemm_chain("g", 1, 4, 3, 2, 5);
        let inputs = c.random_inputs(7);
        let out = c.reference(&inputs);
        // Manual: C = A×B (4x3), E = C×D (4x5).
        let (a, bm, d) = (&inputs[0], &inputs[1], &inputs[2]);
        let mut cmat = [0.0f32; 4 * 3];
        for i in 0..4 {
            for j in 0..3 {
                for kk in 0..2 {
                    cmat[i * 3 + j] += a.data[i * 2 + kk] * bm.data[kk * 3 + j];
                }
            }
        }
        let mut e = vec![0.0f32; 4 * 5];
        for i in 0..4 {
            for j in 0..5 {
                for kk in 0..3 {
                    e[i * 5 + j] += cmat[i * 3 + kk] * d.data[kk * 5 + j];
                }
            }
        }
        for (g, want) in out.data.iter().zip(&e) {
            assert!((g - want).abs() < 1e-4);
        }
    }

    #[test]
    fn softmax_rows_sum_to_one_after_reference() {
        let c = ChainSpec::attention("s", 2, 8, 8, 4, 4);
        let inputs = c.random_inputs(3);
        // Check the epilogue by applying it to a raw matrix.
        let mut scores = vec![1.0f32, 2.0, 3.0, 4.0];
        apply_epilogue(Epilogue::Softmax { scale: 1.0 }, &mut scores, 1, 4);
        let s: f32 = scores.iter().sum();
        assert!((s - 1.0).abs() < 1e-6);
        // And that attention output is finite and bounded by value range.
        let out = c.reference(&inputs);
        assert!(out.data.iter().all(|v| v.is_finite()));
        assert!(out.data.iter().all(|v| v.abs() <= 1.0 + 1e-4));
    }

    #[test]
    fn unfused_traffic_exceeds_fused() {
        let c = ChainSpec::attention("s", 8, 512, 512, 64, 64);
        assert!(c.unfused_extra_traffic_bytes() > 0.0);
        let unfused = c.min_traffic_bytes() + c.unfused_extra_traffic_bytes();
        assert!(unfused > 1.5 * c.min_traffic_bytes());
    }

    #[test]
    fn single_matmul_axes() {
        let c = ChainSpec::single_matmul("mm", 1, 128, 64, 32);
        assert_eq!(c.num_ops(), 1);
        assert_eq!(c.num_axes(), 3); // m, k, n
        assert!(!c.has_softmax());
    }

    #[test]
    fn relu_epilogue_in_reference() {
        let mut c = ChainSpec::gemm_chain("g", 1, 4, 4, 4, 4);
        c.epilogues[0] = Epilogue::Relu;
        let inputs = c.random_inputs(11);
        let out = c.reference(&inputs);
        // With ReLU on the intermediate, output == relu(A×B)×D.
        let plain = {
            let mut c2 = c.clone();
            c2.epilogues[0] = Epilogue::None;
            c2.reference(&inputs)
        };
        // They should differ unless A×B was entirely nonnegative (it isn't
        // with random signed data at this size, overwhelmingly likely).
        assert!(out.max_abs_diff(&plain) > 1e-6);
    }

    #[test]
    fn scale_epilogue_scales() {
        let mut v = vec![1.0f32, -2.0, 3.0];
        apply_epilogue(Epilogue::Scale(0.5), &mut v, 1, 3);
        assert_eq!(v, vec![0.5, -1.0, 1.5]);
    }

    #[test]
    fn aux_inputs_follow_weights_in_canonical_order() {
        let mut c = ChainSpec::chain(
            "c",
            1,
            64,
            vec![32, 48, 32, 48],
            vec![Epilogue::Relu, Epilogue::None, Epilogue::None],
        );
        c.biases = vec![true, false, true];
        assert_eq!(
            c.aux_inputs(),
            vec![AuxInput::Bias { stage: 0 }, AuxInput::Bias { stage: 2 }]
        );
        assert_eq!(c.num_inputs(), 6);
        assert_eq!(c.aux_index(AuxInput::Bias { stage: 0 }), Some(4));
        assert_eq!(c.aux_index(AuxInput::Bias { stage: 2 }), Some(5));
        assert_eq!(c.aux_index(AuxInput::Bias { stage: 1 }), None);
        assert_eq!(c.input_shapes()[4], vec![48]);
        assert_eq!(c.input_shapes()[5], vec![48]);
    }

    #[test]
    fn masked_attention_aux_is_the_mask() {
        let c = ChainSpec::masked_attention("s", 4, 64, 64, 32, 32);
        assert_eq!(c.aux_inputs(), vec![AuxInput::Mask { stage: 0 }]);
        assert_eq!(c.aux_shape(AuxInput::Mask { stage: 0 }), vec![4, 64, 64]);
        assert_eq!(c.num_inputs(), 4);
    }

    #[test]
    fn biased_reference_adds_bias() {
        let mut c = ChainSpec::gemm_chain("g", 1, 4, 4, 4, 4);
        c.biases = vec![true, false];
        let mut inputs = c.random_inputs(5);
        // Zero the bias: must equal the unbiased chain exactly.
        let plain = {
            let c2 = {
                let mut c2 = c.clone();
                c2.biases = vec![false, false];
                c2
            };
            c2.reference(&inputs[..3])
        };
        inputs[3] = HostTensor::from_vec(&[4], vec![0.0; 4]);
        let zeroed = c.reference(&inputs);
        assert_eq!(zeroed.data, plain.data);
        // A nonzero bias must change the output.
        inputs[3] = HostTensor::from_vec(&[4], vec![1.0; 4]);
        assert!(c.reference(&inputs).max_abs_diff(&plain) > 1e-6);
    }

    #[test]
    fn causal_mask_reference_is_causal() {
        let c = ChainSpec::masked_attention("s", 2, 8, 8, 4, 4);
        let mut inputs = c.random_inputs(9);
        inputs[3] = causal_mask(2, 8, 8);
        let out = c.reference(&inputs);
        // Row 0 attends only to position 0 → output row 0 == V row 0.
        let v = &inputs[2];
        for b in 0..2usize {
            for j in 0..4usize {
                let got = out.data[b * 8 * 4 + j];
                let want = v.data[b * 8 * 4 + j];
                assert!((got - want).abs() < 1e-5, "{got} vs {want}");
            }
        }
        assert!(out.data.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn masked_softmax_rows_sum_to_one_where_unmasked() {
        let mut scores = vec![1.0f32, 2.0, 3.0, 4.0];
        let mask = vec![0.0f32, 0.0, -1.0e9, -1.0e9];
        apply_masked_softmax(&mut scores, &mask, 1, 4, 0.5);
        let s: f32 = scores.iter().sum();
        assert!((s - 1.0).abs() < 1e-6);
        assert!(scores[2] < 1e-12 && scores[3] < 1e-12);
    }

    #[test]
    fn gelu_epilogue_matches_reference_gelu() {
        let mut v = vec![-1.0f32, 0.0, 1.0, 2.5];
        apply_epilogue(Epilogue::Gelu, &mut v, 1, 4);
        for (a, x) in v.iter().zip([-1.0f32, 0.0, 1.0, 2.5]) {
            assert_eq!(*a, crate::reference::gelu(x));
        }
    }

    #[test]
    fn chain_constructor_checks_lengths() {
        let c = ChainSpec::chain("c", 2, 64, vec![32, 48, 32], vec![Epilogue::Relu; 2]);
        assert_eq!(c.num_ops(), 2);
        assert_eq!(c.biases, vec![false, false]);
    }

    fn stitched_ffn(m: u64, d: u64, f: u64) -> ChainSpec {
        let mut c = ChainSpec::chain(
            "ffn",
            1,
            m,
            vec![d, f, d],
            vec![Epilogue::Gelu, Epilogue::None],
        );
        c.biases = vec![true, true];
        c.prologue = Some(PrologueSpec {
            residual: true,
            affine: true,
            a_half: false,
            eps: 1e-5,
        });
        c.stitch_epilogue = Some(EpilogueStitch {
            residual: ResidualSource::PrologueOut,
            layer_norm: true,
            affine: true,
            eps: 1e-5,
        });
        c
    }

    #[test]
    fn stitched_aux_inputs_follow_bias_and_mask() {
        let c = stitched_ffn(64, 32, 48);
        assert_eq!(
            c.aux_inputs(),
            vec![
                AuxInput::Bias { stage: 0 },
                AuxInput::Bias { stage: 1 },
                AuxInput::PrologueResidual,
                AuxInput::PrologueGamma,
                AuxInput::PrologueBeta,
                AuxInput::TailGamma,
                AuxInput::TailBeta,
            ]
        );
        // A + 2 weights + 7 aux.
        assert_eq!(c.num_inputs(), 10);
        assert_eq!(c.aux_shape(AuxInput::PrologueResidual), vec![1, 64, 32]);
        assert_eq!(c.aux_shape(AuxInput::PrologueGamma), vec![32]);
        assert_eq!(c.aux_shape(AuxInput::TailGamma), vec![32]);
    }

    #[test]
    fn stitched_reference_equals_unstitched_plus_glue() {
        // Composing the unstitched chain with hand-applied glue ops
        // (residual add + LN in, quantize + residual add + LN out) must
        // reproduce the stitched reference bit-for-bit.
        let c = stitched_ffn(16, 8, 24);
        let inputs = c.random_inputs(42);
        let stitched = c.reference(&inputs);

        let u = c.unstitched();
        // Build the unstitched A: quantize(LN(A + res)).
        let mut a = inputs[0].data.clone();
        let res = &inputs[c.aux_index(AuxInput::PrologueResidual).unwrap()].data;
        for (v, r) in a.iter_mut().zip(res) {
            *v += *r;
        }
        let g1 = &inputs[c.aux_index(AuxInput::PrologueGamma).unwrap()].data;
        let b1 = &inputs[c.aux_index(AuxInput::PrologueBeta).unwrap()].data;
        layer_norm_rows(&mut a, 16, 8, 1e-5, Some(g1), Some(b1));
        let ln1_raw = a.clone();
        for v in a.iter_mut() {
            *v = c.dtype.quantize(*v);
        }
        let mut u_inputs = vec![HostTensor::from_vec(&[1, 16, 8], a)];
        u_inputs.extend_from_slice(&inputs[1..1 + u.num_inputs() - 1]);
        let mut out = u.reference(&u_inputs).data;
        for (v, r) in out.iter_mut().zip(&ln1_raw) {
            *v = c.dtype.quantize(*v) + *r;
        }
        let g2 = &inputs[c.aux_index(AuxInput::TailGamma).unwrap()].data;
        let b2 = &inputs[c.aux_index(AuxInput::TailBeta).unwrap()].data;
        layer_norm_rows(&mut out, 16, 8, 1e-5, Some(g2), Some(b2));
        assert_eq!(stitched.data, out);
    }

    #[test]
    fn external_tail_residual_uses_aux_input() {
        let mut c = ChainSpec::gemm_chain("g", 1, 8, 8, 8, 8);
        c.stitch_epilogue = Some(EpilogueStitch {
            residual: ResidualSource::External,
            layer_norm: false,
            affine: false,
            eps: 1e-5,
        });
        assert_eq!(c.aux_inputs(), vec![AuxInput::TailResidual]);
        let inputs = c.random_inputs(3);
        let out = c.reference(&inputs);
        let plain = c.unstitched().reference(&inputs[..3]);
        let res = &inputs[3];
        for ((o, p), r) in out.data.iter().zip(&plain.data).zip(&res.data) {
            assert_eq!(*o, c.dtype.quantize(*p) + *r);
        }
    }

    #[test]
    fn stitched_intensity_below_plain_intensity() {
        // The raw f32 double-pass reads fatten the denominator: stitching
        // lowers the first op's standalone intensity.
        let c = stitched_ffn(512, 512, 2048);
        assert!(c.stitched_op_intensity(0) < c.op_intensity(0));
        // Unstitched chains agree with the plain measure.
        let u = c.unstitched();
        assert_eq!(u.stitched_op_intensity(0), u.op_intensity(0));
        assert_eq!(u.stitched_op_intensity(1), u.op_intensity(1));
    }

    #[test]
    fn operational_intensity_grows_with_k() {
        // For a single matmul, φ = 2mnk/(mk + kn + mn) grows with k —
        // the transition behind the paper's Fig. 2.
        let lo = ChainSpec::single_matmul("a", 1, 1024, 1024, 16);
        let hi = ChainSpec::single_matmul("b", 1, 1024, 1024, 1024);
        assert!(hi.operational_intensity() > lo.operational_intensity());
    }
}
