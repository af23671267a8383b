//! Content-addressed tuning cache behind the [`FusionEngine`] session
//! API (§V-B's "compiler caching tuned tasks", made explicit).
//!
//! The cache key captures everything the winning schedule depends on:
//! the full chain content (batch, `m`, dims, epilogues **and dtype**),
//! the input-transpose layout the graph feeds the kernel with, the
//! target device, and the search configuration. The previous ad-hoc
//! string key (`format!("b{}m{}d{:?}e{:?}", …)` inside `compile_graph`)
//! silently omitted dtype and layout, so e.g. an f16 and an f32 chain of
//! the same shape shared one `TunedKernel`; [`CacheKey`] closes that
//! hole, and `tests/engine_api.rs` keeps it closed.
//!
//! Two implementations of [`TuningCache`] ship: [`MemoryCache`] for
//! within-session reuse and [`JsonDiskCache`] for cross-session
//! persistence (tune once, ship the schedule). Entries store the winning
//! schedule plus its provenance, not the lowered kernel — re-lowering a
//! cached schedule is deterministic and cheap, while measurements are
//! the expensive part a cache exists to avoid.
//!
//! [`FusionEngine`]: crate::engine::FusionEngine

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use parking_lot::Mutex;
use rustc_hash::FxHashMap;

use mcfuser_ir::ChainSpec;
use mcfuser_sim::{DeviceSpec, TuningReport};

use crate::prune::PruneStats;
use crate::search::SearchParams;
use crate::tuner::{SpacePolicy, TunedKernel};

/// Stable fingerprint of *every* field of a device spec (via its
/// `Debug` form, hashed with the deterministic Fx hash). Two specs
/// sharing a name but differing in any performance-relevant number —
/// shared memory, bandwidths, SM count — must never share schedules.
pub fn device_fingerprint(dev: &DeviceSpec) -> String {
    use std::hash::Hasher;
    let mut h = rustc_hash::FxHasher::default();
    h.write(format!("{dev:?}").as_bytes());
    format!("{}#{:016x}", dev.name, h.finish())
}

/// Content-addressed identity of one tuning task.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Batch size.
    pub batch: u64,
    /// Row dimension `m`.
    pub m: u64,
    /// `d₀ … d_L`.
    pub dims: Vec<u64>,
    /// Canonical epilogue descriptions (scales included).
    pub epilogues: Vec<String>,
    /// Per-stage bias flags (a biased chain loads extra tensors and
    /// must never share a schedule entry with its unbiased twin).
    pub biases: Vec<bool>,
    /// Canonical storage-precision name.
    pub dtype: String,
    /// Canonical stitched prologue/epilogue description (`None|None` for
    /// plain chains). A stitched chain loads extra operands and rounds
    /// through different precision points, so it must never share a
    /// schedule entry with its unstitched twin.
    pub stitch: String,
    /// Per input: stored transposed in the graph relative to chain layout.
    pub transposed_inputs: Vec<bool>,
    /// Target-device fingerprint.
    pub device: String,
    /// Search-configuration fingerprint.
    pub config: String,
}

impl CacheKey {
    /// Build the key for tuning `chain` on `dev` under the given search
    /// configuration, with `transposed_inputs` describing the layout the
    /// surrounding graph feeds the kernel with (empty slice = natural
    /// layout for every input).
    pub fn new(
        chain: &ChainSpec,
        transposed_inputs: &[bool],
        dev: &DeviceSpec,
        params: &SearchParams,
        policy: &SpacePolicy,
    ) -> Self {
        // Normalize the layout: trailing `false` flags are the natural
        // layout, so `[]`, `[false]`, and `[false; n]` all describe the
        // same task and must share one key.
        let mut transposed_inputs = transposed_inputs.to_vec();
        while transposed_inputs.last() == Some(&false) {
            transposed_inputs.pop();
        }
        CacheKey {
            batch: chain.batch,
            m: chain.m,
            dims: chain.dims.clone(),
            epilogues: chain.epilogues.iter().map(|e| format!("{e:?}")).collect(),
            biases: chain.biases.clone(),
            dtype: format!("{:?}", chain.dtype),
            stitch: format!("{:?}|{:?}", chain.prologue, chain.stitch_epilogue),
            transposed_inputs,
            device: device_fingerprint(dev),
            config: format!(
                "pop{}top{}eps{}maxr{}seed{}model{:?}{:?}{:?}dle{}rr{}deep{}r4{:?}",
                params.population,
                params.topk,
                params.epsilon,
                params.max_rounds,
                params.seed,
                params.model.dead_loop_elimination,
                params.model.include_compute,
                params.model.include_alpha,
                params.dead_loop_elimination,
                params.random_ranking,
                policy.deep_tiling_only,
                policy.shared_memory_pruning,
            ),
        }
    }

    /// Canonical string form — the map/JSON key.
    pub fn canonical(&self) -> String {
        format!(
            "b{}|m{}|d{:?}|e{:?}|bi{:?}|t{}|st[{}]|x{:?}|dev[{}]|cfg[{}]",
            self.batch,
            self.m,
            self.dims,
            self.epilogues,
            self.biases,
            self.dtype,
            self.stitch,
            self.transposed_inputs,
            self.device,
            self.config,
        )
    }
}

/// The persisted essence of a [`TunedKernel`]: the winning schedule and
/// its tuning provenance. The kernel itself is reconstructed by
/// re-lowering (deterministic) rather than stored.
#[derive(Debug, Clone, PartialEq)]
pub struct CachedTuning {
    /// Winning tiling expression, in `TilingExpr::display` form.
    pub expr: String,
    /// Winning tile sizes.
    pub tiles: Vec<u64>,
    /// Search rounds until convergence.
    pub rounds: usize,
    /// Candidates measured during the original search.
    pub measured: usize,
    /// Pruning waterfall of the original search.
    pub prune_stats: PruneStats,
    /// Virtual tuning-cost report of the original search.
    pub tuning: TuningReport,
}

impl CachedTuning {
    /// Capture the persistable part of a tuned kernel.
    pub fn from_tuned(tuned: &TunedKernel) -> Self {
        CachedTuning {
            expr: tuned.candidate.expr.display(&tuned.chain),
            tiles: tuned.candidate.tiles.clone(),
            rounds: tuned.rounds,
            measured: tuned.measured,
            prune_stats: tuned.prune_stats.clone(),
            tuning: tuned.tuning.clone(),
        }
    }

    fn to_json(&self) -> serde_json::Value {
        let s = &self.prune_stats;
        let prune = serde_json::json!({
            "original": s.original.to_string(),
            "after_rule1": s.after_rule1.to_string(),
            "after_rule2": s.after_rule2.to_string(),
            "after_rule3": s.after_rule3.to_string(),
            "after_rule4": s.after_rule4.to_string(),
            "exprs_original": s.exprs_original,
            "exprs_rule1": s.exprs_rule1,
            "exprs_rule2": s.exprs_rule2,
        });
        let t = &self.tuning;
        let tuning = serde_json::json!({
            "virtual_seconds": t.virtual_seconds,
            "compiles": t.compiles,
            "measurements": t.measurements,
            "train_rounds": t.train_rounds,
            "estimates": t.estimates,
        });
        serde_json::json!({
            "expr": self.expr,
            "tiles": self.tiles,
            "rounds": self.rounds,
            "measured": self.measured,
            "prune_stats": prune,
            "tuning": tuning,
        })
    }

    fn from_json(v: &serde_json::Value) -> Option<Self> {
        let u128_field = |obj: &serde_json::Value, key: &str| -> Option<u128> {
            obj.get(key)?.as_str()?.parse().ok()
        };
        let p = v.get("prune_stats")?;
        let t = v.get("tuning")?;
        Some(CachedTuning {
            expr: v.get("expr")?.as_str()?.to_string(),
            tiles: v
                .get("tiles")?
                .as_array()?
                .iter()
                .map(|x| x.as_u64())
                .collect::<Option<Vec<u64>>>()?,
            rounds: v.get("rounds")?.as_u64()? as usize,
            measured: v.get("measured")?.as_u64()? as usize,
            prune_stats: PruneStats {
                original: u128_field(p, "original")?,
                after_rule1: u128_field(p, "after_rule1")?,
                after_rule2: u128_field(p, "after_rule2")?,
                after_rule3: u128_field(p, "after_rule3")?,
                after_rule4: u128_field(p, "after_rule4")?,
                exprs_original: p.get("exprs_original")?.as_u64()? as usize,
                exprs_rule1: p.get("exprs_rule1")?.as_u64()? as usize,
                exprs_rule2: p.get("exprs_rule2")?.as_u64()? as usize,
            },
            tuning: TuningReport {
                virtual_seconds: t.get("virtual_seconds")?.as_f64()?,
                compiles: t.get("compiles")?.as_u64()?,
                measurements: t.get("measurements")?.as_u64()?,
                train_rounds: t.get("train_rounds")?.as_u64()?,
                estimates: t.get("estimates")?.as_u64()?,
            },
        })
    }
}

/// A store of tuning results shared by every chain an engine session
/// touches. Implementations must be safe to call from the engine's
/// parallel tuning workers.
pub trait TuningCache: Send + Sync {
    /// Look up a tuning task.
    fn get(&self, key: &CacheKey) -> Option<CachedTuning>;
    /// Record a finished tuning task.
    fn put(&self, key: &CacheKey, entry: CachedTuning);
    /// Number of stored entries.
    fn len(&self) -> usize;
    /// Whether the cache holds nothing.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Force pending state to durable storage and report failure —
    /// write-through `put`s deliberately swallow I/O errors to keep
    /// tuning alive, so shutdown paths (e.g.
    /// [`ModelRuntime::shutdown`](crate::ModelRuntime::shutdown)) call
    /// this to learn whether anything was actually lost. Purely
    /// in-memory caches have nothing to persist and return `Ok(())`.
    fn flush(&self) -> std::io::Result<()> {
        Ok(())
    }
    /// How many write-through persistence attempts have failed so far
    /// (surfaced in [`EngineStats`](crate::EngineStats)).
    fn persist_errors(&self) -> u64 {
        0
    }
    /// Entries dropped by a capacity bound, if the implementation has
    /// one (surfaced as
    /// [`EngineStats::tuning_cache_evictions`](crate::EngineStats::tuning_cache_evictions)).
    /// Unbounded caches report 0.
    fn evictions(&self) -> u64 {
        0
    }
}

/// Default [`MemoryCache`] bound: tuned schedules retained before
/// least-recently-used eviction. A schedule re-tunes deterministically
/// after eviction, so the bound trades re-tuning time for a memory
/// ceiling under many-tenant serving.
pub const MEMORY_CACHE_CAPACITY: usize = 512;

/// In-memory cache: reuse within one engine session (and across sessions
/// sharing the engine). LRU-bounded — see [`MEMORY_CACHE_CAPACITY`].
#[derive(Debug)]
pub struct MemoryCache {
    entries: Mutex<LruEntries>,
    capacity: usize,
    evicted: AtomicU64,
}

#[derive(Debug, Default)]
struct LruEntries {
    map: FxHashMap<String, (CachedTuning, u64)>,
    tick: u64,
}

impl LruEntries {
    /// Touch-and-insert; returns the evicted key count (0 or 1).
    fn insert_bounded(&mut self, key: String, entry: CachedTuning, capacity: usize) -> u64 {
        self.tick += 1;
        let tick = self.tick;
        self.map.insert(key.clone(), (entry, tick));
        if self.map.len() > capacity {
            let victim = self
                .map
                .iter()
                .filter(|(k, _)| **k != key)
                .min_by_key(|(_, (_, used))| *used)
                .map(|(k, _)| k.clone());
            if let Some(k) = victim {
                self.map.remove(&k);
                return 1;
            }
        }
        0
    }
}

impl Default for MemoryCache {
    fn default() -> Self {
        Self::with_capacity(MEMORY_CACHE_CAPACITY)
    }
}

impl MemoryCache {
    /// Empty cache with the default bound ([`MEMORY_CACHE_CAPACITY`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty cache retaining at most `capacity` schedules (≥ 1).
    pub fn with_capacity(capacity: usize) -> Self {
        MemoryCache {
            entries: Mutex::new(LruEntries::default()),
            capacity: capacity.max(1),
            evicted: AtomicU64::new(0),
        }
    }
}

impl TuningCache for MemoryCache {
    fn get(&self, key: &CacheKey) -> Option<CachedTuning> {
        let mut inner = self.entries.lock();
        inner.tick += 1;
        let tick = inner.tick;
        inner.map.get_mut(&key.canonical()).map(|slot| {
            slot.1 = tick;
            slot.0.clone()
        })
    }

    fn put(&self, key: &CacheKey, entry: CachedTuning) {
        let evicted = self
            .entries
            .lock()
            .insert_bounded(key.canonical(), entry, self.capacity);
        if evicted > 0 {
            self.evicted.fetch_add(evicted, Ordering::Relaxed);
        }
    }

    fn len(&self) -> usize {
        self.entries.lock().map.len()
    }

    fn evictions(&self) -> u64 {
        self.evicted.load(Ordering::Relaxed)
    }
}

/// JSON-on-disk cache: write-through persistence so a fresh engine (or a
/// fresh process) reuses every schedule tuned before it started.
///
/// Each `put` merges the file's current contents before rewriting, so
/// concurrent engines sharing one path enrich rather than clobber each
/// other (a short read-merge-write race remains; entries for the same
/// key are deterministic, so the races are benign).
#[derive(Debug)]
pub struct JsonDiskCache {
    path: PathBuf,
    entries: Mutex<FxHashMap<String, CachedTuning>>,
    /// Serializes writers without making readers (or tuning workers
    /// inserting into `entries`) wait on disk I/O.
    io: Mutex<()>,
    /// Persistence attempts that failed (write-through keeps going, but
    /// the failures are counted and reported by `persist_errors`/`flush`).
    write_errors: AtomicU64,
    /// Whether the warn-once message has been printed.
    warned: AtomicBool,
}

/// Parse the on-disk document into an entry map. A missing file yields
/// an empty map; a corrupt one yields `None` so callers can warn.
fn read_entries(path: &Path) -> Option<FxHashMap<String, CachedTuning>> {
    let mut entries = FxHashMap::default();
    let Ok(text) = std::fs::read_to_string(path) else {
        return Some(entries);
    };
    let doc = serde_json::from_str(&text).ok()?;
    if let Some(map) = doc.get("entries").and_then(|e| e.as_object()) {
        for (k, v) in map.iter() {
            if let Some(entry) = CachedTuning::from_json(v) {
                entries.insert(k.clone(), entry);
            }
        }
    }
    Some(entries)
}

impl JsonDiskCache {
    /// Open (or create) a cache file. A missing file starts empty; a
    /// corrupt or partially written file is treated as empty rather than
    /// failing the session, matching how a production service degrades.
    pub fn open(path: impl Into<PathBuf>) -> Self {
        let path = path.into();
        let entries = read_entries(&path).unwrap_or_else(|| {
            eprintln!("[mcfuser] ignoring corrupt tuning cache {}", path.display());
            FxHashMap::default()
        });
        JsonDiskCache {
            path,
            entries: Mutex::new(entries),
            io: Mutex::new(()),
            write_errors: AtomicU64::new(0),
            warned: AtomicBool::new(false),
        }
    }

    /// The backing file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Merge the file's current entries into a snapshot (ours win on
    /// conflict), atomically rewrite it, and fold anything another
    /// writer contributed back into memory. Caller must NOT hold the
    /// `entries` lock — only the `io` lock serializes this.
    fn persist(&self, mut entries: FxHashMap<String, CachedTuning>) -> std::io::Result<()> {
        if let Some(on_disk) = read_entries(&self.path) {
            let mut foreign: Vec<(String, CachedTuning)> = Vec::new();
            for (k, v) in on_disk {
                if let std::collections::hash_map::Entry::Vacant(slot) = entries.entry(k) {
                    foreign.push((slot.key().clone(), v.clone()));
                    slot.insert(v);
                }
            }
            if !foreign.is_empty() {
                let mut g = self.entries.lock();
                for (k, v) in foreign {
                    g.entry(k).or_insert(v);
                }
            }
        }
        let mut map = serde_json::Map::new();
        for (k, v) in entries.iter() {
            map.insert(k.clone(), v.to_json());
        }
        let doc = serde_json::json!({ "version": 1u64, "entries": map });
        let text = serde_json::to_string(&doc).expect("serializable cache");
        // Write-then-rename keeps readers from ever seeing a torn file.
        let tmp = self.path.with_extension("json.tmp");
        let result = std::fs::write(&tmp, text).and_then(|()| std::fs::rename(&tmp, &self.path));
        if let Err(e) = &result {
            self.write_errors.fetch_add(1, Ordering::Relaxed);
            // Warn once — a persistently unwritable path would otherwise
            // spam one line per tuned chain. The count keeps climbing and
            // is surfaced via `persist_errors`/`flush`.
            if !self.warned.swap(true, Ordering::Relaxed) {
                eprintln!(
                    "[mcfuser] warning: could not persist tuning cache to {}: {e}",
                    self.path.display()
                );
            }
        }
        result
    }
}

impl TuningCache for JsonDiskCache {
    fn get(&self, key: &CacheKey) -> Option<CachedTuning> {
        self.entries.lock().get(&key.canonical()).cloned()
    }

    fn put(&self, key: &CacheKey, entry: CachedTuning) {
        let snapshot = {
            let mut g = self.entries.lock();
            g.insert(key.canonical(), entry);
            g.clone()
        };
        // Disk I/O happens outside the entries lock so concurrent
        // tuning workers never stall on a file write. Write-through is
        // best-effort: a failure is counted (and warned about once) but
        // never fails the tuning that produced the entry.
        let _writer = self.io.lock();
        let _ = self.persist(snapshot);
    }

    fn len(&self) -> usize {
        self.entries.lock().len()
    }

    fn flush(&self) -> std::io::Result<()> {
        let snapshot = self.entries.lock().clone();
        let _writer = self.io.lock();
        // Name the file in the error: a shutdown report aggregating
        // several caches must say WHICH one lost its entries.
        self.persist(snapshot)
            .map_err(|e| std::io::Error::new(e.kind(), format!("{}: {e}", self.path.display())))
    }

    fn persist_errors(&self) -> u64 {
        self.write_errors.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcfuser_sim::DType;

    fn key_for(chain: &ChainSpec) -> CacheKey {
        CacheKey::new(
            chain,
            &[false; 3],
            &DeviceSpec::a100(),
            &SearchParams::default(),
            &SpacePolicy::default(),
        )
    }

    fn sample_entry() -> CachedTuning {
        CachedTuning {
            expr: "mhnk".into(),
            tiles: vec![64, 32, 64, 16],
            rounds: 4,
            measured: 21,
            prune_stats: PruneStats {
                original: 170_000_000,
                after_rule1: 1_000_000,
                after_rule2: 800_000,
                after_rule3: 12_000,
                after_rule4: 9_000,
                exprs_original: 26,
                exprs_rule1: 11,
                exprs_rule2: 7,
            },
            tuning: TuningReport {
                virtual_seconds: 41.5,
                compiles: 30,
                measurements: 21,
                train_rounds: 0,
                estimates: 900,
            },
        }
    }

    #[test]
    fn json_round_trip_preserves_entry() {
        let e = sample_entry();
        let back = CachedTuning::from_json(&e.to_json()).unwrap();
        assert_eq!(back, e);
    }

    #[test]
    fn dtype_reaches_the_key() {
        let mut a = ChainSpec::gemm_chain("g", 1, 256, 128, 64, 64);
        let mut b = a.clone();
        a.dtype = DType::F16;
        b.dtype = DType::F32;
        assert_ne!(key_for(&a).canonical(), key_for(&b).canonical());
    }

    #[test]
    fn biases_reach_the_key() {
        let a = ChainSpec::gemm_chain("g", 1, 256, 128, 64, 64);
        let mut b = a.clone();
        b.biases = vec![true, false];
        assert_ne!(key_for(&a).canonical(), key_for(&b).canonical());
    }

    #[test]
    fn mask_epilogue_reaches_the_key() {
        let a = ChainSpec::attention("s", 2, 128, 128, 64, 64);
        let b = ChainSpec::masked_attention("s", 2, 128, 128, 64, 64);
        assert_ne!(key_for(&a).canonical(), key_for(&b).canonical());
    }

    #[test]
    fn memory_cache_round_trip() {
        let chain = ChainSpec::gemm_chain("g", 1, 256, 128, 64, 64);
        let cache = MemoryCache::new();
        let key = key_for(&chain);
        assert!(cache.get(&key).is_none());
        cache.put(&key, sample_entry());
        assert_eq!(cache.get(&key).unwrap(), sample_entry());
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn memory_cache_evicts_lru_beyond_capacity() {
        let cache = MemoryCache::with_capacity(2);
        let keys: Vec<CacheKey> = (0..3)
            .map(|i| {
                key_for(&ChainSpec::gemm_chain(
                    format!("g{i}"),
                    1,
                    256 << i,
                    128,
                    64,
                    64,
                ))
            })
            .collect();
        cache.put(&keys[0], sample_entry());
        cache.put(&keys[1], sample_entry());
        // Touch 0 so 1 is the least recently used when 2 overflows.
        assert!(cache.get(&keys[0]).is_some());
        cache.put(&keys[2], sample_entry());
        assert_eq!(cache.evictions(), 1);
        assert_eq!(cache.len(), 2);
        assert!(cache.get(&keys[1]).is_none(), "LRU entry must be evicted");
        assert!(cache.get(&keys[0]).is_some());
        assert!(cache.get(&keys[2]).is_some());
        // Re-putting the evicted key is a fresh insert, evicting again.
        cache.put(&keys[1], sample_entry());
        assert_eq!(cache.evictions(), 2);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn device_fingerprint_covers_every_field() {
        let stock = DeviceSpec::a100();
        let mut bigger_smem = stock.clone();
        bigger_smem.smem_per_block += 1024;
        assert_ne!(device_fingerprint(&stock), device_fingerprint(&bigger_smem));
        let chain = ChainSpec::gemm_chain("g", 1, 256, 128, 64, 64);
        let params = SearchParams::default();
        let policy = SpacePolicy::default();
        assert_ne!(
            CacheKey::new(&chain, &[], &stock, &params, &policy),
            CacheKey::new(&chain, &[], &bigger_smem, &params, &policy),
            "a what-if device study must never share schedules"
        );
    }

    #[test]
    fn concurrent_disk_caches_merge_instead_of_clobbering() {
        let dir = std::env::temp_dir().join(format!(
            "mcfuser-cache-merge-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tuning.json");
        let chain_a = ChainSpec::gemm_chain("a", 1, 256, 128, 64, 64);
        let chain_b = ChainSpec::gemm_chain("b", 2, 512, 128, 64, 64);

        // Two instances on the same path, each writing a different key.
        let one = JsonDiskCache::open(&path);
        let two = JsonDiskCache::open(&path);
        one.put(&key_for(&chain_a), sample_entry());
        two.put(&key_for(&chain_b), sample_entry());

        let reopened = JsonDiskCache::open(&path);
        assert!(reopened.get(&key_for(&chain_a)).is_some(), "a survived");
        assert!(reopened.get(&key_for(&chain_b)).is_some(), "b survived");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unwritable_path_counts_errors_and_flush_reports_them() {
        // A path whose parent directory does not exist: every persist
        // attempt fails. Write-through puts must keep working (the entry
        // stays queryable in memory), the failure must be counted, and
        // flush() must surface it as an Err.
        let path = std::env::temp_dir()
            .join(format!("mcfuser-no-such-dir-{}", std::process::id()))
            .join("tuning.json");
        let cache = JsonDiskCache::open(&path);
        let chain = ChainSpec::gemm_chain("g", 1, 256, 128, 64, 64);
        let key = key_for(&chain);
        cache.put(&key, sample_entry());
        assert_eq!(cache.get(&key).unwrap(), sample_entry(), "put still serves");
        assert_eq!(cache.persist_errors(), 1);
        assert!(cache.flush().is_err(), "flush reports the lost persistence");
        assert_eq!(cache.persist_errors(), 2);
    }

    #[test]
    fn healthy_disk_cache_flushes_cleanly() {
        let dir = std::env::temp_dir().join(format!(
            "mcfuser-cache-flush-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let cache = JsonDiskCache::open(dir.join("tuning.json"));
        let chain = ChainSpec::gemm_chain("g", 1, 256, 128, 64, 64);
        cache.put(&key_for(&chain), sample_entry());
        assert!(cache.flush().is_ok());
        assert_eq!(cache.persist_errors(), 0);
        // And the memory-only cache trivially flushes.
        assert!(MemoryCache::new().flush().is_ok());
        assert_eq!(MemoryCache::new().persist_errors(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disk_cache_survives_reopen_and_ignores_corruption() {
        let dir = std::env::temp_dir().join(format!(
            "mcfuser-cache-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tuning.json");
        let chain = ChainSpec::gemm_chain("g", 2, 256, 128, 64, 64);
        let key = key_for(&chain);

        let first = JsonDiskCache::open(&path);
        first.put(&key, sample_entry());
        drop(first);

        let reopened = JsonDiskCache::open(&path);
        assert_eq!(reopened.get(&key).unwrap(), sample_entry());

        std::fs::write(&path, "{ not json").unwrap();
        let corrupt = JsonDiskCache::open(&path);
        assert!(corrupt.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
