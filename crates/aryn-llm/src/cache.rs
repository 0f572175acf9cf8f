//! Content-addressed LLM call cache with single-flight deduplication.
//!
//! The paper's cost analysis (§6.4) shows LLM invocations dominate query
//! cost, and its materialize/lineage design only caches whole-pipeline
//! prefixes. This module adds the missing layer: a memoization cache keyed by
//! a stable fingerprint of `(model, prompt, max_output, temperature)`, so
//! repeated `llmFilter`/`llmExtract` calls across queries — the dominant
//! pattern in iterative analytics sessions — are paid for once.
//!
//! Two tiers:
//!
//! 1. a bounded in-memory LRU ([`LlmCallCache::with_capacity`]);
//! 2. an optional append-only disk tier ([`LlmCallCache::with_disk`]),
//!    following the `materialize(..., to: dir)` spill conventions — one
//!    checksummed frame per entry in `llm_cache.log`, loadable into a fresh
//!    process or `Context`.
//!
//! **Single-flight:** concurrent workers issuing the *identical* call (the
//! common case in `run_segment_parallel`, where a fused stage maps one prompt
//! template over near-duplicate chunks) block on one in-flight request
//! instead of fanning out N duplicates. Waiters park on a condvar; the
//! computing leader publishes the entry and wakes them. If the leader fails,
//! one waiter is promoted to leader and retries.
//!
//! Cacheability is decided by the caller ([`crate::LlmClient`]): temperature-0
//! calls are pure functions of the prompt and cache safely; re-ask samples
//! (temperature > 0, bumped attempt base) are intentionally fresh draws and
//! must not be memoized.

use crate::model::Usage;
use aryn_core::vfs::{self, Vfs};
use aryn_core::{json, obj, stable_hash, Result, Value};
use std::collections::{HashMap, HashSet};
use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// The disk tier's file under the directory given to
/// [`LlmCallCache::with_disk`].
const LOG: &str = "llm_cache.log";

/// Stable fingerprint of one logical completion call.
///
/// Covers everything that determines a temperature-0 completion: the model
/// name, the full prompt text, the completion cap, and the temperature. Does
/// NOT cover the attempt number — retries of the same logical call share the
/// key (and the caller excludes resampled re-asks from caching entirely).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey(pub u64);

impl CacheKey {
    pub fn for_call(model: &str, prompt: &str, max_output: usize, temperature: f32) -> CacheKey {
        CacheKey(stable_hash(
            0xCA11,
            &[
                model,
                prompt,
                &max_output.to_string(),
                &temperature.to_bits().to_string(),
            ],
        ))
    }

    /// [`for_call`](Self::for_call) under an optional namespace. `None` is
    /// byte-identical to `for_call` (the shared namespace); `Some(ns)`
    /// derives a disjoint key space, so tenants configured for cache
    /// isolation never observe (or time) each other's entries even when
    /// they share one [`LlmCallCache`].
    pub fn for_call_in(
        namespace: Option<&str>,
        model: &str,
        prompt: &str,
        max_output: usize,
        temperature: f32,
    ) -> CacheKey {
        match namespace {
            None => CacheKey::for_call(model, prompt, max_output, temperature),
            Some(ns) => CacheKey(stable_hash(
                0x7E4A_47CA,
                &[
                    ns,
                    model,
                    prompt,
                    &max_output.to_string(),
                    &temperature.to_bits().to_string(),
                ],
            )),
        }
    }
}

/// Aggregate cache counters. `hits` includes single-flight joins (a join
/// avoided a model call exactly like a store hit did), so
/// `hits + misses == lookups` and, when the LRU never evicts, `misses` equals
/// the number of *unique* calls — deterministic regardless of worker
/// interleaving.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct CacheStats {
    /// Lookups served without a model call (store hits + single-flight joins).
    pub hits: u64,
    /// Lookups that had to execute the model call.
    pub misses: u64,
    /// Entries written (≤ misses; failed computations insert nothing).
    pub inserts: u64,
    /// LRU evictions.
    pub evictions: u64,
    /// Subset of `hits` that waited on an in-flight leader.
    pub dedup_joins: u64,
    /// Tails cut while loading the disk tier, one per cut: a torn, corrupt
    /// or foreign frame ends the log's valid prefix and is dropped with
    /// everything after it. A checksummed entry that does not parse is
    /// skipped and counted too. A lost entry is recomputed, never served
    /// wrong.
    pub corrupt_entries: u64,
    /// Simulated dollars the hits would have cost.
    pub cost_saved_usd: f64,
    /// Simulated latency the hits would have added.
    pub latency_saved_ms: f64,
}

impl CacheStats {
    /// Counters accumulated since `earlier` (a prior snapshot of the same
    /// cache). Saturating, so a reset cache yields zeros rather than wrapping.
    pub fn since(&self, earlier: &CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits.saturating_sub(earlier.hits),
            misses: self.misses.saturating_sub(earlier.misses),
            inserts: self.inserts.saturating_sub(earlier.inserts),
            evictions: self.evictions.saturating_sub(earlier.evictions),
            dedup_joins: self.dedup_joins.saturating_sub(earlier.dedup_joins),
            corrupt_entries: self.corrupt_entries.saturating_sub(earlier.corrupt_entries),
            cost_saved_usd: (self.cost_saved_usd - earlier.cost_saved_usd).max(0.0),
            latency_saved_ms: (self.latency_saved_ms - earlier.latency_saved_ms).max(0.0),
        }
    }

    /// Merge another snapshot into this one (summing all counters).
    pub fn merge(&mut self, other: &CacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.inserts += other.inserts;
        self.evictions += other.evictions;
        self.dedup_joins += other.dedup_joins;
        self.corrupt_entries += other.corrupt_entries;
        self.cost_saved_usd += other.cost_saved_usd;
        self.latency_saved_ms += other.latency_saved_ms;
    }

    /// Hit fraction over all lookups so far (0 when no lookups happened).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// One memoized completion.
#[derive(Debug, Clone)]
struct CachedCall {
    text: String,
    usage: Usage,
    last_used: u64,
}

/// What a lookup produced.
#[derive(Debug, Clone)]
pub struct CacheOutcome {
    pub text: String,
    /// Usage of the original (or just-executed) model call.
    pub usage: Usage,
    /// True when no model call was executed for this lookup.
    pub hit: bool,
}

struct CacheInner {
    entries: HashMap<u64, CachedCall>,
    /// Monotonic LRU clock.
    tick: u64,
    /// Keys currently being computed by a leader.
    inflight: HashSet<u64>,
    stats: CacheStats,
}

/// The two-tier, single-flight call cache. Shareable across any number of
/// [`crate::LlmClient`]s (wrap it in an `Arc`); all operations are
/// thread-safe.
pub struct LlmCallCache {
    inner: Mutex<CacheInner>,
    /// Wakes single-flight waiters when any in-flight call completes.
    flights: Condvar,
    capacity: usize,
    /// Disk tier, serialized by its own lock so concurrent inserts do not
    /// interleave frames.
    disk: Option<Mutex<DiskTier>>,
}

/// The disk tier: an append path plus the VFS it goes through, so storage
/// chaos (torn appends, ENOSPC, crash points) covers the cache too.
struct DiskTier {
    path: PathBuf,
    vfs: Arc<dyn Vfs>,
}

impl std::fmt::Debug for LlmCallCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let g = lock(&self.inner);
        write!(
            f,
            "LlmCallCache({} entries, capacity {}, disk: {})",
            g.entries.len(),
            self.capacity,
            self.disk.is_some()
        )
    }
}

/// Mutex lock that survives a poisoned-by-panic peer: cache state is a pure
/// performance layer, so continuing with whatever was committed is safe.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl Default for LlmCallCache {
    fn default() -> Self {
        LlmCallCache::with_capacity(4096)
    }
}

impl LlmCallCache {
    /// An in-memory cache bounded to `capacity` entries (LRU eviction).
    pub fn with_capacity(capacity: usize) -> LlmCallCache {
        LlmCallCache {
            inner: Mutex::new(CacheInner {
                entries: HashMap::new(),
                tick: 0,
                inflight: HashSet::new(),
                stats: CacheStats::default(),
            }),
            flights: Condvar::new(),
            capacity: capacity.max(1),
            disk: None,
        }
    }

    /// Attaches a disk tier under `dir` (conventionally the lake /
    /// materialize spill directory) through `fs`, so storage chaos covers
    /// cache IO: the entries in `{dir}/llm_cache.log` are loaded into the
    /// LRU, and every new insert is appended as one `c` frame, so a later
    /// process (or a second `Context`) warm-starts from the same file.
    /// Loading follows the WAL's torn-tail rule ([`vfs::replay_frame_log`]):
    /// the first torn, corrupt or foreign frame ends the valid prefix and
    /// is cut with everything after it. A corrupt frame mid-file therefore
    /// costs the entries behind it too; they are recomputed, never served
    /// wrong.
    pub fn with_disk(mut self, fs: Arc<dyn Vfs>, dir: impl Into<PathBuf>) -> Result<LlmCallCache> {
        let dir = dir.into();
        fs.create_dir_all(&dir)?;
        let path = dir.join(LOG);
        let mut g = lock(&self.inner);
        let cut = vfs::replay_frame_log(&fs, &path, b"c", |_, payload| {
            match decode_entry(payload) {
                Some((key, mut entry)) => {
                    g.tick += 1;
                    entry.last_used = g.tick;
                    g.entries.insert(key, entry);
                    evict_over_capacity(&mut g, self.capacity);
                }
                None => g.stats.corrupt_entries += 1,
            }
            Ok(())
        })?;
        g.stats.corrupt_entries += u64::from(cut);
        drop(g);
        self.disk = Some(Mutex::new(DiskTier { path, vfs: fs }));
        Ok(self)
    }

    /// Rewrites the disk tier to exactly the live in-memory entries (atomic
    /// temp→sync→rename): drops superseded duplicates and evicted entries.
    /// Returns the number of entries written; no-op `Ok(0)` without a disk
    /// tier.
    pub fn compact_disk(&self) -> Result<usize> {
        let Some(disk) = &self.disk else {
            return Ok(0);
        };
        let tier = lock(disk);
        let g = lock(&self.inner);
        let mut keys: Vec<u64> = g.entries.keys().copied().collect();
        keys.sort_unstable();
        let mut out = Vec::new();
        for key in &keys {
            if let Some(entry) = g.entries.get(key) {
                encode_entry(&mut out, *key, &entry.text, entry.usage)?;
            }
        }
        drop(g);
        vfs::atomic_write(&tier.vfs, &tier.path, &out)?;
        Ok(keys.len())
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    pub fn len(&self) -> usize {
        lock(&self.inner).entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn stats(&self) -> CacheStats {
        lock(&self.inner).stats
    }

    /// Looks up `key`; on miss runs `compute` (exactly once across all
    /// concurrent callers of the same key — single flight) and memoizes a
    /// successful result. `compute` returns the completion text plus its
    /// [`Usage`], which is what hit accounting reports as saved.
    pub fn get_or_compute(
        &self,
        key: CacheKey,
        compute: impl FnOnce() -> Result<(String, Usage)>,
    ) -> Result<CacheOutcome> {
        let mut waited = false;
        let mut g = lock(&self.inner);
        loop {
            if g.entries.contains_key(&key.0) {
                g.tick += 1;
                let tick = g.tick;
                let (text, usage) = match g.entries.get_mut(&key.0) {
                    Some(entry) => {
                        entry.last_used = tick;
                        (entry.text.clone(), entry.usage)
                    }
                    None => continue, // unreachable: checked just above
                };
                g.stats.hits += 1;
                g.stats.cost_saved_usd += usage.cost_usd;
                g.stats.latency_saved_ms += usage.latency_ms;
                if waited {
                    g.stats.dedup_joins += 1;
                }
                return Ok(CacheOutcome {
                    text,
                    usage,
                    hit: true,
                });
            }
            if g.inflight.contains(&key.0) {
                // Another worker is computing this exact call: park until it
                // publishes (then we hit above) or fails (then we lead).
                waited = true;
                g = self
                    .flights
                    .wait(g)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                continue;
            }
            break;
        }
        // We are the leader for this key.
        g.inflight.insert(key.0);
        drop(g);
        let result = compute();
        let mut g = lock(&self.inner);
        g.inflight.remove(&key.0);
        let outcome = match result {
            Ok((text, usage)) => {
                g.stats.misses += 1;
                g.stats.inserts += 1;
                g.tick += 1;
                let tick = g.tick;
                g.entries.insert(
                    key.0,
                    CachedCall {
                        text: text.clone(),
                        usage,
                        last_used: tick,
                    },
                );
                evict_over_capacity(&mut g, self.capacity);
                Ok(CacheOutcome {
                    text,
                    usage,
                    hit: false,
                })
            }
            Err(e) => {
                g.stats.misses += 1;
                Err(e)
            }
        };
        drop(g);
        // Wake waiters whether we succeeded (they hit) or failed (one of
        // them takes over as leader).
        self.flights.notify_all();
        if let (Ok(out), Some(disk)) = (&outcome, &self.disk) {
            self.append_disk(disk, key, out);
        }
        outcome
    }

    /// Probes `key` without computing on a miss. A present entry counts as
    /// a hit (with savings accounting and an LRU refresh); an absent entry
    /// is stats-neutral — the caller is expected to obtain the completion
    /// some other way (e.g. inside a packed batch call) and account the
    /// miss via [`insert`](Self::insert). Does not wait on in-flight
    /// leaders — the batch layer would rather pack a duplicate item than
    /// block a whole batch on one straggler.
    pub fn peek(&self, key: CacheKey) -> Option<CacheOutcome> {
        let mut g = lock(&self.inner);
        if g.entries.contains_key(&key.0) {
            g.tick += 1;
            let tick = g.tick;
            let (text, usage) = match g.entries.get_mut(&key.0) {
                Some(entry) => {
                    entry.last_used = tick;
                    (entry.text.clone(), entry.usage)
                }
                None => return None, // unreachable: checked just above
            };
            g.stats.hits += 1;
            g.stats.cost_saved_usd += usage.cost_usd;
            g.stats.latency_saved_ms += usage.latency_ms;
            return Some(CacheOutcome {
                text,
                usage,
                hit: true,
            });
        }
        None
    }

    /// Inserts a completion obtained outside [`get_or_compute`] — the batch
    /// layer memoizes each packed item under its own single-call fingerprint
    /// here. Counts the miss the [`peek`](Self::peek) probe deferred plus an
    /// insert (mirroring `get_or_compute`'s miss+insert on a computed call),
    /// refreshes the LRU, and appends to the disk tier when one is attached.
    pub fn insert(&self, key: CacheKey, text: String, usage: Usage) {
        let mut g = lock(&self.inner);
        g.stats.misses += 1;
        g.stats.inserts += 1;
        g.tick += 1;
        let tick = g.tick;
        g.entries.insert(
            key.0,
            CachedCall {
                text: text.clone(),
                usage,
                last_used: tick,
            },
        );
        evict_over_capacity(&mut g, self.capacity);
        drop(g);
        if let Some(disk) = &self.disk {
            self.append_disk(
                disk,
                key,
                &CacheOutcome {
                    text,
                    usage,
                    hit: false,
                },
            );
        }
    }

    /// Appends one entry to the disk tier. Disk trouble degrades the cache
    /// to memory-only rather than failing the call that produced the result
    /// (a torn append leaves a corrupt tail the next load cuts away).
    fn append_disk(&self, disk: &Mutex<DiskTier>, key: CacheKey, out: &CacheOutcome) {
        let tier = lock(disk);
        let mut frame = Vec::new();
        let appended = encode_entry(&mut frame, key.0, &out.text, out.usage)
            .and_then(|()| tier.vfs.append(&tier.path, &frame));
        if let Err(e) = appended {
            eprintln!("llm cache: disk tier append failed ({e}); continuing in-memory");
        }
    }
}

/// Appends one disk-tier entry to `out`: a `c` frame around its JSON.
fn encode_entry(out: &mut Vec<u8>, key: u64, text: &str, usage: Usage) -> Result<()> {
    let payload = json::to_string(&obj! {
        "key" => format!("{key:016x}"),
        "text" => text,
        "input_tokens" => usage.input_tokens as i64,
        "output_tokens" => usage.output_tokens as i64,
        "cost_usd" => usage.cost_usd,
        "latency_ms" => usage.latency_ms
    });
    vfs::encode_frame(out, b'c', payload.as_bytes())
}

/// One disk-tier entry from its frame payload; `None` when the JSON does
/// not parse or carries no key.
fn decode_entry(payload: &[u8]) -> Option<(u64, CachedCall)> {
    let v = json::parse(std::str::from_utf8(payload).ok()?).ok()?;
    let key = u64::from_str_radix(v.get("key")?.as_str()?, 16).ok()?;
    let count = |k: &str| v.get(k).and_then(Value::as_int).unwrap_or(0) as usize;
    let amount = |k: &str| v.get(k).and_then(Value::as_float).unwrap_or(0.0);
    let usage = Usage {
        input_tokens: count("input_tokens"),
        output_tokens: count("output_tokens"),
        cost_usd: amount("cost_usd"),
        latency_ms: amount("latency_ms"),
    };
    let text = v.get("text").and_then(Value::as_str).unwrap_or_default().to_string();
    Some((key, CachedCall { text, usage, last_used: 0 }))
}

/// Evicts least-recently-used entries until the store fits `capacity`.
/// Linear scan per eviction: capacities are small (thousands) and eviction
/// only triggers past the bound, so this stays off the hot hit path.
fn evict_over_capacity(g: &mut CacheInner, capacity: usize) {
    while g.entries.len() > capacity {
        let Some(oldest) = g
            .entries
            .iter()
            .min_by_key(|(_, e)| e.last_used)
            .map(|(k, _)| *k)
        else {
            return;
        };
        g.entries.remove(&oldest);
        g.stats.evictions += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aryn_core::vfs::{MemFs, StdFs};
    use aryn_core::ArynError;
    use std::path::Path;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    fn usage(cost: f64) -> Usage {
        Usage {
            input_tokens: 10,
            output_tokens: 5,
            cost_usd: cost,
            latency_ms: 3.0,
        }
    }

    #[test]
    fn key_is_stable_and_discriminating() {
        let a = CacheKey::for_call("gpt-4-sim", "p", 256, 0.0);
        let b = CacheKey::for_call("gpt-4-sim", "p", 256, 0.0);
        assert_eq!(a, b);
        assert_ne!(a, CacheKey::for_call("gpt-3.5-sim", "p", 256, 0.0));
        assert_ne!(a, CacheKey::for_call("gpt-4-sim", "q", 256, 0.0));
        assert_ne!(a, CacheKey::for_call("gpt-4-sim", "p", 128, 0.0));
        assert_ne!(a, CacheKey::for_call("gpt-4-sim", "p", 256, 0.4));
    }

    #[test]
    fn hit_miss_and_savings_accounting() {
        let cache = LlmCallCache::with_capacity(8);
        let key = CacheKey::for_call("m", "p", 64, 0.0);
        let out = cache
            .get_or_compute(key, || Ok(("hello".into(), usage(0.25))))
            .unwrap();
        assert!(!out.hit);
        let out = cache
            .get_or_compute(key, || panic!("must not recompute"))
            .unwrap();
        assert!(out.hit);
        assert_eq!(out.text, "hello");
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.inserts), (1, 1, 1));
        assert!((s.cost_saved_usd - 0.25).abs() < 1e-12);
        assert!(s.latency_saved_ms > 0.0);
    }

    #[test]
    fn failed_compute_is_not_memoized() {
        let cache = LlmCallCache::with_capacity(8);
        let key = CacheKey::for_call("m", "p", 64, 0.0);
        assert!(cache
            .get_or_compute(key, || Err(ArynError::Llm("boom".into())))
            .is_err());
        let out = cache
            .get_or_compute(key, || Ok(("recovered".into(), usage(0.1))))
            .unwrap();
        assert!(!out.hit);
        assert_eq!(cache.stats().inserts, 1);
        assert_eq!(cache.stats().misses, 2);
    }

    #[test]
    fn lru_evicts_oldest_first() {
        let cache = LlmCallCache::with_capacity(2);
        let k = |i: usize| CacheKey::for_call("m", &format!("p{i}"), 64, 0.0);
        for i in 0..3 {
            cache
                .get_or_compute(k(i), || Ok((format!("v{i}"), usage(0.1))))
                .unwrap();
        }
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().evictions, 1);
        // p0 was evicted; p2 (and p1) still hit.
        assert!(!cache
            .get_or_compute(k(0), || Ok(("again".into(), usage(0.1))))
            .unwrap()
            .hit);
        assert!(cache
            .get_or_compute(k(2), || Err(ArynError::Llm("no".into())))
            .unwrap()
            .hit);
    }

    #[test]
    fn lru_refresh_on_hit_protects_hot_entries() {
        let cache = LlmCallCache::with_capacity(2);
        let k = |i: usize| CacheKey::for_call("m", &format!("p{i}"), 64, 0.0);
        cache.get_or_compute(k(0), || Ok(("a".into(), usage(0.1)))).unwrap();
        cache.get_or_compute(k(1), || Ok(("b".into(), usage(0.1)))).unwrap();
        // Touch p0 so p1 becomes the LRU victim.
        cache.get_or_compute(k(0), || Err(ArynError::Llm("no".into()))).unwrap();
        cache.get_or_compute(k(2), || Ok(("c".into(), usage(0.1)))).unwrap();
        assert!(cache
            .get_or_compute(k(0), || Err(ArynError::Llm("no".into())))
            .unwrap()
            .hit);
        assert!(!cache
            .get_or_compute(k(1), || Ok(("b2".into(), usage(0.1))))
            .unwrap()
            .hit);
    }

    #[test]
    fn single_flight_dedups_concurrent_identical_calls() {
        let cache = Arc::new(LlmCallCache::with_capacity(8));
        let computed = Arc::new(AtomicU64::new(0));
        let key = CacheKey::for_call("m", "same prompt", 64, 0.0);
        std::thread::scope(|s| {
            for _ in 0..8 {
                let cache = Arc::clone(&cache);
                let computed = Arc::clone(&computed);
                s.spawn(move || {
                    let out = cache
                        .get_or_compute(key, || {
                            computed.fetch_add(1, Ordering::SeqCst);
                            // Give the other threads time to pile up on the
                            // in-flight slot.
                            std::thread::sleep(std::time::Duration::from_millis(30));
                            Ok(("v".into(), usage(0.5)))
                        })
                        .unwrap();
                    assert_eq!(out.text, "v");
                });
            }
        });
        assert_eq!(computed.load(Ordering::SeqCst), 1, "exactly one leader");
        let s = cache.stats();
        assert_eq!(s.misses, 1);
        assert_eq!(s.hits, 7);
        assert!(s.dedup_joins <= s.hits);
    }

    #[test]
    fn failed_leader_promotes_a_waiter() {
        let cache = Arc::new(LlmCallCache::with_capacity(8));
        let calls = Arc::new(AtomicU64::new(0));
        let key = CacheKey::for_call("m", "flaky", 64, 0.0);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let cache = Arc::clone(&cache);
                let calls = Arc::clone(&calls);
                s.spawn(move || {
                    let _ = cache.get_or_compute(key, || {
                        let n = calls.fetch_add(1, Ordering::SeqCst);
                        std::thread::sleep(std::time::Duration::from_millis(10));
                        if n == 0 {
                            Err(ArynError::Llm("transient".into()))
                        } else {
                            Ok(("ok".into(), usage(0.2)))
                        }
                    });
                });
            }
        });
        // First leader failed, a second one ran; nobody else recomputed.
        assert_eq!(calls.load(Ordering::SeqCst), 2);
        assert!(cache
            .get_or_compute(key, || Err(ArynError::Llm("no".into())))
            .unwrap()
            .hit);
    }

    /// The disk-tier directory the MemFs tests use, and its log.
    const DIR: &str = "/cache";

    fn log_path() -> PathBuf {
        Path::new(DIR).join(LOG)
    }

    /// A fresh cache loading `fs`'s disk tier.
    fn reload(fs: &Arc<MemFs>, capacity: usize) -> LlmCallCache {
        LlmCallCache::with_capacity(capacity).with_disk(fs.clone(), DIR).unwrap()
    }

    /// Byte offsets where each whole frame of `log` ends.
    fn frame_ends(log: &[u8]) -> Vec<usize> {
        let (mut rest, mut ends) = (log, Vec::new());
        while let Some((_, _, tail)) = vfs::decode_frame(rest) {
            rest = tail;
            ends.push(log.len() - rest.len());
        }
        ends
    }

    /// `n` entries computed through a disk tier on a fresh MemFs; returns
    /// the MemFs and the log's bytes.
    fn log_of(n: usize) -> (Arc<MemFs>, Vec<u8>) {
        let fs = Arc::new(MemFs::new());
        let cache = reload(&fs, 8);
        for i in 0..n {
            cache.get_or_compute(entry_key(i), || Ok((format!("v{i}"), usage(0.1)))).unwrap();
        }
        let log = fs.read(&log_path()).unwrap();
        (fs, log)
    }

    fn entry_key(i: usize) -> CacheKey {
        CacheKey::for_call("m", &format!("p{i}"), 64, 0.0)
    }

    #[test]
    fn disk_tier_round_trips() {
        let dir = std::env::temp_dir().join(format!(
            "aryn-llm-cache-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = LlmCallCache::with_capacity(8).with_disk(Arc::new(StdFs), &dir).unwrap();
        let key = CacheKey::for_call("m", "durable prompt", 64, 0.0);
        cache
            .get_or_compute(key, || Ok(("persisted".into(), usage(0.125))))
            .unwrap();
        drop(cache);
        let warm = LlmCallCache::with_capacity(8).with_disk(Arc::new(StdFs), &dir).unwrap();
        assert_eq!(warm.len(), 1);
        let out = warm
            .get_or_compute(key, || panic!("disk tier should have served this"))
            .unwrap();
        assert!(out.hit);
        assert_eq!(out.text, "persisted");
        assert!((out.usage.cost_usd - 0.125).abs() < 1e-12);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_disk_lines_are_skipped_and_counted() {
        // Rewritten for the frame log, whose rule is the WAL's: corruption
        // is no longer skipped entry by entry. The first bad frame ends the
        // valid prefix, so an unchecksummed entry spliced in after the first
        // one plus a torn trailing append cost everything from the splice
        // on, in one cut counted once; the entries behind it are recomputed.
        let (fs, log) = log_of(3);
        let first = frame_ends(&log)[0];
        let mut spliced = log[..first].to_vec();
        spliced.extend_from_slice(br#"{"key": "00000000000000ff", "text": "zzz"}"#);
        spliced.extend_from_slice(&log[first..]);
        spliced.extend_from_slice(b"c\x40\x00");
        fs.write(&log_path(), &spliced).unwrap();
        let warm = reload(&fs, 8);
        assert_eq!(warm.len(), 1, "only the entry before the splice survives");
        assert_eq!(warm.stats().corrupt_entries, 1);
        assert_eq!(fs.read(&log_path()).unwrap(), &log[..first]);
        assert!(warm
            .get_or_compute(entry_key(0), || panic!("should be served from disk"))
            .unwrap()
            .hit);
        assert!(!warm
            .get_or_compute(entry_key(1), || Ok(("v1".into(), usage(0.1))))
            .unwrap()
            .hit);
    }

    #[test]
    fn a_flipped_byte_mid_log_keeps_only_the_entries_before_it() {
        let (fs, log) = log_of(4);
        let ends = frame_ends(&log);
        let mut bad = log.clone();
        bad[ends[1] + 12] ^= 0x01; // a payload byte of the third entry
        fs.write(&log_path(), &bad).unwrap();
        let warm = reload(&fs, 8);
        assert_eq!((warm.len(), warm.stats().corrupt_entries), (2, 1));
        assert_eq!(fs.read(&log_path()).unwrap(), &log[..ends[1]]);
        for i in 0..4 {
            let hit = warm.get_or_compute(entry_key(i), || Ok(("again".into(), usage(0.1)))).unwrap().hit;
            assert_eq!(hit, i < 2, "entry {i}");
        }
    }

    #[test]
    fn corrupt_tail_is_physically_truncated_on_load() {
        let (fs, log) = log_of(1);
        // A crash mid-append leaves a partial frame.
        let mut torn = Vec::new();
        encode_entry(&mut torn, 0xff, "lost", usage(0.1)).unwrap();
        fs.append(&log_path(), &torn[..15]).unwrap();
        let warm = reload(&fs, 8);
        assert_eq!(warm.len(), 1);
        assert_eq!(warm.stats().corrupt_entries, 1);
        assert_eq!(
            fs.read(&log_path()).unwrap().len(),
            log.len(),
            "the torn tail is truncated away, not just skipped"
        );
        // Post-truncation appends land on a frame boundary.
        warm.insert(CacheKey::for_call("m", "q", 64, 0.0), "w".into(), usage(0.1));
        drop(warm);
        let again = reload(&fs, 8);
        assert_eq!(again.len(), 2);
        assert_eq!(again.stats().corrupt_entries, 0, "truncation was physical");
    }

    #[test]
    fn the_log_torn_at_every_offset_of_its_last_frame_keeps_the_whole_frames() {
        let (_, log) = log_of(3);
        let whole = frame_ends(&log)[1];
        for cut in whole..log.len() {
            let fs = Arc::new(MemFs::new());
            fs.write(&log_path(), &log[..cut]).unwrap();
            let warm = reload(&fs, 8);
            assert_eq!(warm.len(), 2, "cut at {cut}");
            assert_eq!(warm.stats().corrupt_entries, u64::from(cut > whole), "cut at {cut}");
            assert_eq!(fs.read(&log_path()).unwrap(), &log[..whole], "cut at {cut}");
            warm.insert(entry_key(9), "later".into(), usage(0.1));
            drop(warm);
            let again = reload(&fs, 8);
            assert_eq!((again.len(), again.stats().corrupt_entries), (3, 0), "cut at {cut}");
        }
    }

    #[test]
    fn compact_disk_drops_dead_lines_atomically() {
        let fs = Arc::new(MemFs::new());
        let cache = reload(&fs, 2);
        for i in 0..3 {
            cache
                .get_or_compute(entry_key(i), || Ok((format!("v{i}"), usage(0.1))))
                .unwrap();
        }
        // Append-only tier holds all 3 entries; memory holds the live 2.
        let entries = |b: Vec<u8>| frame_ends(&b).len();
        assert_eq!(entries(fs.read(&log_path()).unwrap()), 3);
        assert_eq!(cache.compact_disk().unwrap(), 2);
        assert_eq!(entries(fs.read(&log_path()).unwrap()), 2);
        drop(cache);
        let warm = reload(&fs, 8);
        assert_eq!(warm.len(), 2);
        assert_eq!(warm.stats().corrupt_entries, 0);
        assert!(warm
            .get_or_compute(entry_key(2), || panic!("compacted entry must survive"))
            .unwrap()
            .hit);
    }

    #[test]
    fn checksummed_lines_detect_bitflips() {
        let fs = Arc::new(MemFs::new());
        let cache = reload(&fs, 8);
        let k = CacheKey::for_call("m", "p", 64, 0.0);
        cache
            .get_or_compute(k, || Ok(("honest value".into(), usage(0.1))))
            .unwrap();
        drop(cache);
        let mut bytes = fs.read(&log_path()).unwrap();
        // Flip one payload byte: the CRC rejects the mangled text.
        let pos = bytes.len() - 20;
        bytes[pos] ^= 0x02;
        fs.write(&log_path(), &bytes).unwrap();
        let warm = reload(&fs, 8);
        assert_eq!(warm.len(), 0);
        assert_eq!(warm.stats().corrupt_entries, 1);
    }

    #[test]
    fn stats_since_and_merge() {
        let a = CacheStats {
            hits: 5,
            misses: 3,
            inserts: 3,
            evictions: 1,
            dedup_joins: 2,
            corrupt_entries: 2,
            cost_saved_usd: 1.0,
            latency_saved_ms: 10.0,
        };
        let earlier = CacheStats {
            hits: 2,
            misses: 1,
            inserts: 1,
            evictions: 0,
            dedup_joins: 1,
            corrupt_entries: 1,
            cost_saved_usd: 0.25,
            latency_saved_ms: 4.0,
        };
        let d = a.since(&earlier);
        assert_eq!((d.hits, d.misses, d.dedup_joins), (3, 2, 1));
        assert!((d.cost_saved_usd - 0.75).abs() < 1e-12);
        let mut m = earlier;
        m.merge(&d);
        assert_eq!(m, a);
        assert!((a.hit_rate() - 5.0 / 8.0).abs() < 1e-12);
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
    }
}
