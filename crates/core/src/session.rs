//! Incremental decode sessions: per-session KV caches over bucketed
//! decode-step plans.
//!
//! Autoregressive serving runs the same tiny step graph thousands of
//! times, with two twists a stateless [`ModelRuntime`] cannot express:
//!
//! * the KV cache is **session state** — each generated token appends
//!   one row per layer, and the next step must see every previous row;
//! * the step graph is compiled against a **bucket capacity** `t_b`,
//!   so a session's cache must live in one of a small set of
//!   sequence-length buckets and migrate to the next bucket when it
//!   fills up.
//!
//! [`DecodeServing`] owns the compiled per-bucket plans (one prefill
//! and one step plan per bucket, all sharing the same weight-hash
//! graph name, so a session can hop buckets without changing weights).
//! [`DecodeSession`] owns the per-session cache buffers — taken from a
//! serving-wide [`BufferArena`] and recycled on drop — and drives
//! [`DecodeSession::prefill`] / [`DecodeSession::step`]. Steps go
//! through [`ModelRuntime::submit`], so concurrent sessions decoding
//! in the same `(model, bucket, seed)` coalesce into one
//! widened fused launch.
//!
//! Graph construction stays in the caller (typically
//! `mcfuser-workloads`' decoder builders): [`DecodeServing::compile`]
//! takes builder closures, keeping this crate model-agnostic.

use std::sync::Arc;

use parking_lot::Mutex;

use mcfuser_ir::{causal_mask, decode_mask, scatter_onehot, Graph};
use mcfuser_sim::{BufferArena, HostTensor};

use crate::engine::FusionEngine;
use crate::plan::{ExecError, InputSet, RunOptions};
use crate::runtime::ModelRuntime;
use crate::tuner::TuneError;

/// Shape metadata a [`DecodeServing`] needs to drive a decoder it did
/// not build: enough to size KV caches and synthesize the shared
/// mask/one-hot inputs of the step graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeSpec {
    /// Model name: the weight-hash graph name shared by every bucket's
    /// prefill and step graph, and the prefix of their plan names.
    pub model: String,
    /// Decoder layers (one K and one V cache panel each).
    pub layers: u32,
    /// Hidden width of the residual stream.
    pub hidden: u64,
    /// Query heads (the additive mask is `[heads, 1, t_b]`).
    pub heads: u64,
    /// KV heads (cache panels are `[kv_heads, t_b, head_dim]`).
    pub kv_heads: u64,
    /// Sequence-length buckets, strictly increasing. Each gets one
    /// compiled prefill plan and one compiled step plan.
    pub buckets: Vec<u64>,
}

impl DecodeSpec {
    /// Head dimension (`hidden / heads`).
    pub fn head_dim(&self) -> u64 {
        self.hidden / self.heads
    }

    /// Elements of one KV cache panel at bucket capacity `t_b`.
    fn panel_len(&self, t_b: u64) -> usize {
        (self.kv_heads * t_b * self.head_dim()) as usize
    }
}

/// Session-level failures, on top of the runtime's [`ExecError`].
#[derive(Debug)]
pub enum DecodeError {
    /// The prompt does not fit the largest configured bucket.
    PromptTooLong {
        /// Prompt length requested.
        prompt: u64,
        /// Largest bucket capacity available.
        largest_bucket: u64,
    },
    /// Every bucket is full: the session generated past the largest
    /// configured capacity.
    CapacityExhausted {
        /// Position the rejected token would have occupied.
        pos: u64,
    },
    /// A step was taken before [`DecodeSession::prefill`].
    NotPrefilled,
    /// The underlying plan execution failed.
    Exec(ExecError),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::PromptTooLong {
                prompt,
                largest_bucket,
            } => write!(
                f,
                "prompt of {prompt} tokens exceeds the largest bucket ({largest_bucket})"
            ),
            DecodeError::CapacityExhausted { pos } => {
                write!(f, "no bucket can hold position {pos}")
            }
            DecodeError::NotPrefilled => write!(f, "step() before prefill()"),
            DecodeError::Exec(e) => write!(f, "decode step failed: {e}"),
        }
    }
}

impl std::error::Error for DecodeError {}

impl From<ExecError> for DecodeError {
    fn from(e: ExecError) -> Self {
        DecodeError::Exec(e)
    }
}

/// Compiled per-bucket decoder plans plus the shared session arena.
///
/// Build once with [`DecodeServing::compile`], then open any number of
/// concurrent [`DecodeSession`]s with [`DecodeServing::open`].
pub struct DecodeServing {
    spec: DecodeSpec,
    runtime: Arc<ModelRuntime>,
    /// KV cache buffers recycled across sessions and bucket hops.
    arena: Mutex<BufferArena>,
}

impl DecodeServing {
    /// Compile and register one prefill and one step plan per bucket.
    ///
    /// `step_graph(t_b)` must build the single-token decode graph at
    /// bucket capacity `t_b` (inputs `x`, `mask`, `onehot`, per-layer
    /// `l{i}.k_cache` / `l{i}.v_cache`; outputs `lm_head` then
    /// per-layer `l{i}.kh` / `l{i}.vh` new rows); `prefill_graph(t)`
    /// the full-sequence causal graph (inputs `x`, `mask`; outputs
    /// `lm_head` then per-layer KV panels). Both must use
    /// [`DecodeSpec::model`] as the *graph* name so every bucket hashes
    /// to the same weights.
    pub fn compile(
        engine: &FusionEngine,
        runtime: Arc<ModelRuntime>,
        spec: DecodeSpec,
        step_graph: impl Fn(u64) -> Graph,
        prefill_graph: impl Fn(u64) -> Graph,
    ) -> Result<Arc<Self>, TuneError> {
        assert!(!spec.buckets.is_empty(), "at least one bucket");
        assert!(
            spec.buckets.windows(2).all(|w| w[0] < w[1]),
            "buckets must be strictly increasing"
        );
        for &b in &spec.buckets {
            let step = step_graph(b);
            assert_eq!(
                step.name, spec.model,
                "step graph must share the model name"
            );
            runtime.register(step_plan_name(&spec.model, b), engine.compile_plan(&step)?);
            let pre = prefill_graph(b);
            assert_eq!(
                pre.name, spec.model,
                "prefill graph must share the model name"
            );
            runtime.register(
                prefill_plan_name(&spec.model, b),
                engine.compile_plan(&pre)?,
            );
        }
        Ok(Arc::new(DecodeServing {
            spec,
            runtime,
            arena: Mutex::new(BufferArena::new()),
        }))
    }

    /// The configured spec.
    pub fn spec(&self) -> &DecodeSpec {
        &self.spec
    }

    /// The runtime holding the per-bucket plans.
    pub fn runtime(&self) -> &Arc<ModelRuntime> {
        &self.runtime
    }

    /// Open a fresh session (no cache allocated until `prefill`).
    pub fn open(self: &Arc<Self>, opts: RunOptions) -> DecodeSession {
        DecodeSession {
            serving: self.clone(),
            opts,
            bucket: None,
            pos: 0,
            k: Vec::new(),
            v: Vec::new(),
        }
    }

    /// Smallest bucket with capacity ≥ `need`.
    fn bucket_for(&self, need: u64) -> Option<usize> {
        self.spec.buckets.iter().position(|&b| b >= need)
    }

    fn take_panels(&self, t_b: u64, n: usize) -> Vec<Vec<f32>> {
        let len = self.spec.panel_len(t_b);
        let mut arena = self.arena.lock();
        (0..n).map(|_| arena.take(len)).collect()
    }

    fn put_panels(&self, panels: impl IntoIterator<Item = Vec<f32>>) {
        let mut arena = self.arena.lock();
        for p in panels {
            arena.put(p);
        }
    }
}

/// Registered plan name of the decode-step plan at bucket `t_b`.
pub fn step_plan_name(model: &str, t_b: u64) -> String {
    format!("{model}@step{t_b}")
}

/// Registered plan name of the prefill plan at bucket `t_b`.
pub fn prefill_plan_name(model: &str, t_b: u64) -> String {
    format!("{model}@prefill{t_b}")
}

/// One decoding stream: bucket-capacity KV caches plus the current
/// position. Obtained from [`DecodeServing::open`]; buffers return to
/// the serving arena on drop.
pub struct DecodeSession {
    serving: Arc<DecodeServing>,
    opts: RunOptions,
    /// Index into `spec.buckets` of the current capacity (None until
    /// prefill).
    bucket: Option<usize>,
    pos: u64,
    /// Per-layer K cache panels `[kv_heads, t_b, head_dim]`.
    k: Vec<Vec<f32>>,
    /// Per-layer V cache panels.
    v: Vec<Vec<f32>>,
}

impl DecodeSession {
    /// Tokens appended so far (prompt + generated).
    pub fn pos(&self) -> u64 {
        self.pos
    }

    /// Current bucket capacity (0 before prefill).
    pub fn capacity(&self) -> u64 {
        self.bucket.map_or(0, |i| self.serving.spec.buckets[i])
    }

    /// Borrow a layer's `(K, V)` cache panels (test/debug hook).
    pub fn kv_cache(&self, layer: usize) -> (&[f32], &[f32]) {
        (&self.k[layer], &self.v[layer])
    }

    /// Run the prompt through the bucket's full-sequence prefill plan,
    /// seeding the KV caches with rows `[0, prompt)` of every layer's
    /// panels. Returns the prompt logits `[prompt, vocab]`.
    ///
    /// The prompt is zero-padded up to the bucket length; causal
    /// masking makes rows `< prompt` (and their KV panel rows)
    /// independent of the padding.
    pub fn prefill(&mut self, x: &HostTensor) -> Result<HostTensor, DecodeError> {
        let spec = self.serving.spec.clone();
        assert_eq!(x.shape.len(), 2, "prompt must be [t, hidden]");
        assert_eq!(x.shape[1], spec.hidden, "prompt width must match hidden");
        let prompt = x.shape[0];
        assert!(prompt > 0, "empty prompt");
        let bucket = self
            .serving
            .bucket_for(prompt)
            .ok_or(DecodeError::PromptTooLong {
                prompt,
                largest_bucket: *spec.buckets.last().unwrap(),
            })?;
        let t_b = spec.buckets[bucket];

        let mut padded = x.data.clone();
        padded.resize((t_b * spec.hidden) as usize, 0.0);
        let mut inputs = InputSet::new();
        inputs.insert("x", HostTensor::from_vec(&[t_b, spec.hidden], padded));
        inputs.insert("mask", causal_mask(spec.heads, t_b, t_b));
        let out =
            self.serving
                .runtime
                .submit(&prefill_plan_name(&spec.model, t_b), inputs, self.opts)?;

        // (Re)allocate the caches at this bucket and seed rows [0, P).
        self.release_panels();
        let layers = spec.layers as usize;
        self.k = self.serving.take_panels(t_b, layers);
        self.v = self.serving.take_panels(t_b, layers);
        let hd = spec.head_dim() as usize;
        let rows = prompt as usize;
        for l in 0..layers {
            for (cache, name) in [(&mut self.k[l], "kh"), (&mut self.v[l], "vh")] {
                let panel = out
                    .get(&format!("l{l}.{name}"))
                    .expect("prefill graph emits per-layer KV panels");
                copy_rows(panel, cache, t_b as usize, hd, rows, spec.kv_heads as usize);
            }
        }
        self.bucket = Some(bucket);
        self.pos = prompt;

        // Trim the padded logits back to the prompt rows.
        let logits = out.primary();
        let vocab = logits.shape[1];
        Ok(HostTensor::from_vec(
            &[prompt, vocab],
            logits.data[..(prompt * vocab) as usize].to_vec(),
        ))
    }

    /// Decode one token: run the bucket's step plan against the cache,
    /// append the new KV rows at the current position, and return the
    /// logits `[1, vocab]`. Migrates the cache to the next bucket first
    /// when the current one is full.
    ///
    /// Steps are submitted through the runtime's batching queue, so
    /// concurrent sessions at the same `(model, bucket, seed)`
    /// coalesce into one widened fused launch.
    pub fn step(&mut self, x: &HostTensor) -> Result<HostTensor, DecodeError> {
        let bucket = self.bucket.ok_or(DecodeError::NotPrefilled)?;
        let spec = self.serving.spec.clone();
        assert_eq!(
            x.data.len(),
            spec.hidden as usize,
            "step input must be one [1, hidden] row"
        );
        let bucket = if self.pos == spec.buckets[bucket] {
            self.grow(bucket)?
        } else {
            bucket
        };
        let t_b = spec.buckets[bucket];
        let hd = spec.head_dim() as usize;

        let mut inputs = InputSet::new();
        inputs.insert("x", HostTensor::from_vec(&[1, spec.hidden], x.data.clone()));
        inputs.insert("mask", decode_mask(spec.heads, t_b, self.pos));
        let onehot = scatter_onehot(spec.kv_heads, t_b, self.pos);
        // The fused KV-append chain computes `cache + onehot × new_row`;
        // by linearity it rewrites exactly the rows this column selects.
        // The verifier's one-hot obligation makes that "exactly one row
        // per head" — checked here where the scatter input is built.
        debug_assert!(
            mcfuser_sim::verify::is_scatter_onehot(&onehot),
            "decode scatter input must be one-hot per head"
        );
        inputs.insert("onehot", onehot);
        let panel_shape = [spec.kv_heads, t_b, hd as u64];
        for l in 0..spec.layers as usize {
            inputs.insert(
                format!("l{l}.k_cache"),
                HostTensor::from_vec(&panel_shape, self.k[l].clone()),
            );
            inputs.insert(
                format!("l{l}.v_cache"),
                HostTensor::from_vec(&panel_shape, self.v[l].clone()),
            );
        }
        let out =
            self.serving
                .runtime
                .submit(&step_plan_name(&spec.model, t_b), inputs, self.opts)?;

        // Append the new KV rows at `pos`.
        let row = self.pos as usize;
        for l in 0..spec.layers as usize {
            for (cache, name) in [(&mut self.k[l], "kh"), (&mut self.v[l], "vh")] {
                let new = out
                    .get(&format!("l{l}.{name}"))
                    .expect("step graph emits per-layer KV rows");
                for h in 0..spec.kv_heads as usize {
                    let dst = (h * t_b as usize + row) * hd;
                    cache[dst..dst + hd].copy_from_slice(&new.data[h * hd..(h + 1) * hd]);
                }
            }
        }
        self.pos += 1;
        Ok(out.primary().clone())
    }

    /// Migrate the cache panels into the next larger bucket.
    fn grow(&mut self, bucket: usize) -> Result<usize, DecodeError> {
        let spec = self.serving.spec.clone();
        let next = bucket + 1;
        if next >= spec.buckets.len() {
            return Err(DecodeError::CapacityExhausted { pos: self.pos });
        }
        let (old_t, new_t) = (spec.buckets[bucket] as usize, spec.buckets[next]);
        let hd = spec.head_dim() as usize;
        let kv = spec.kv_heads as usize;
        let layers = spec.layers as usize;
        let mut k2 = self.serving.take_panels(new_t, layers);
        let mut v2 = self.serving.take_panels(new_t, layers);
        for l in 0..layers {
            for (old, new) in [(&self.k[l], &mut k2[l]), (&self.v[l], &mut v2[l])] {
                for h in 0..kv {
                    let src = h * old_t * hd;
                    let dst = h * new_t as usize * hd;
                    new[dst..dst + old_t * hd].copy_from_slice(&old[src..src + old_t * hd]);
                }
            }
        }
        self.serving.put_panels(std::mem::replace(&mut self.k, k2));
        self.serving.put_panels(std::mem::replace(&mut self.v, v2));
        self.bucket = Some(next);
        Ok(next)
    }

    fn release_panels(&mut self) {
        self.serving.put_panels(std::mem::take(&mut self.k));
        self.serving.put_panels(std::mem::take(&mut self.v));
    }
}

impl Drop for DecodeSession {
    fn drop(&mut self) {
        self.release_panels();
    }
}

/// Copy rows `[0, rows)` of a `[kv_heads, t_src, hd]` panel into the
/// head-strided layout of a `[kv_heads, t_dst, hd]` cache.
fn copy_rows(
    panel: &HostTensor,
    cache: &mut [f32],
    t_dst: usize,
    hd: usize,
    rows: usize,
    kv_heads: usize,
) {
    let t_src = panel.shape[1] as usize;
    for h in 0..kv_heads {
        for r in 0..rows {
            let src = (h * t_src + r) * hd;
            let dst = (h * t_dst + r) * hd;
            cache[dst..dst + hd].copy_from_slice(&panel.data[src..src + hd]);
        }
    }
}
