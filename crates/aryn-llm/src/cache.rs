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
//! 2. an optional append-only JSONL disk tier ([`LlmCallCache::with_disk`]),
//!    following the `materialize(..., to: dir)` spill conventions — one JSON
//!    object per line, loadable into a fresh process or `Context`.
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
use aryn_core::vfs::{self, StdFs, Vfs};
use aryn_core::{json, obj, stable_hash, Result, Value};
use std::collections::{HashMap, HashSet};
use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

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
    /// Truncated or corrupt lines skipped while loading the disk tier
    /// (crash-mid-append leaves a partial trailing line; it must not poison
    /// the rest of the file).
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
    /// interleave lines.
    disk: Option<Mutex<DiskTier>>,
}

/// The JSONL disk tier: an append path plus the VFS it goes through, so
/// storage chaos (torn appends, ENOSPC, crash points) covers the cache too.
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

    /// Attaches a JSONL disk tier under `dir` (conventionally the lake /
    /// materialize spill directory): existing entries in
    /// `{dir}/llm_cache.jsonl` are loaded into the LRU, and every new insert
    /// is appended, so a later process (or a second `Context`) warm-starts
    /// from the same file.
    pub fn with_disk(self, dir: impl Into<PathBuf>) -> Result<LlmCallCache> {
        self.with_disk_on(Arc::new(StdFs), dir)
    }

    /// [`with_disk`](Self::with_disk) through an explicit VFS, so storage
    /// chaos covers cache IO. New entries append as checksummed records
    /// (`c <crc32> <json>`); loading verifies each line, skips-and-counts
    /// corrupt ones mid-file, physically truncates a corrupt *tail* (the
    /// crash-mid-append shape) with an atomic rewrite.
    pub fn with_disk_on(
        mut self,
        fs: Arc<dyn Vfs>,
        dir: impl Into<PathBuf>,
    ) -> Result<LlmCallCache> {
        let dir = dir.into();
        fs.create_dir_all(&dir)?;
        let path = dir.join("llm_cache.jsonl");
        if fs.exists(&path) {
            let text = vfs::read_to_string(&fs, &path)?;
            let mut g = lock(&self.inner);
            // Bytes of the prefix ending at the last good line: anything
            // after it is the corrupt tail a crashed append left behind.
            let mut good_end = 0usize;
            let mut offset = 0usize;
            for chunk in text.split_inclusive('\n') {
                let start = offset;
                offset += chunk.len();
                let line = chunk.strip_suffix('\n').unwrap_or(chunk);
                if line.trim().is_empty() {
                    continue;
                }
                let parsed = match vfs::decode_record(line) {
                    Ok(('c', payload)) => json::parse(payload).ok(),
                    _ => None,
                };
                let Some(v) = parsed else {
                    g.stats.corrupt_entries += 1;
                    continue;
                };
                let Some(key) = v
                    .get("key")
                    .and_then(Value::as_str)
                    .and_then(|s| u64::from_str_radix(s, 16).ok())
                else {
                    g.stats.corrupt_entries += 1;
                    continue;
                };
                good_end = start + chunk.len();
                let entry = CachedCall {
                    text: v
                        .get("text")
                        .and_then(Value::as_str)
                        .unwrap_or_default()
                        .to_string(),
                    usage: Usage {
                        input_tokens: v
                            .get("input_tokens")
                            .and_then(Value::as_int)
                            .unwrap_or(0) as usize,
                        output_tokens: v
                            .get("output_tokens")
                            .and_then(Value::as_int)
                            .unwrap_or(0) as usize,
                        cost_usd: v.get("cost_usd").and_then(Value::as_float).unwrap_or(0.0),
                        latency_ms: v.get("latency_ms").and_then(Value::as_float).unwrap_or(0.0),
                    },
                    last_used: 0,
                };
                g.tick += 1;
                let tick = g.tick;
                g.entries.insert(key, CachedCall { last_used: tick, ..entry });
                evict_over_capacity(&mut g, self.capacity);
            }
            if good_end < text.len() {
                // Truncate the corrupt tail so the next append starts on a
                // clean line boundary instead of concatenating onto junk.
                let _ = vfs::atomic_write(&fs, &path, &text.as_bytes()[..good_end]);
            }
            drop(g);
        }
        self.disk = Some(Mutex::new(DiskTier { path, vfs: fs }));
        Ok(self)
    }

    /// Rewrites the disk tier to exactly the live in-memory entries (atomic
    /// temp→sync→rename): drops corrupt mid-file lines, superseded
    /// duplicates, and evicted entries. Returns the number of entries
    /// written; no-op `Ok(0)` without a disk tier.
    pub fn compact_disk(&self) -> Result<usize> {
        let Some(disk) = &self.disk else {
            return Ok(0);
        };
        let tier = lock(disk);
        let g = lock(&self.inner);
        let mut keys: Vec<u64> = g.entries.keys().copied().collect();
        keys.sort_unstable();
        let mut out = String::new();
        for key in &keys {
            if let Some(entry) = g.entries.get(key) {
                out.push_str(&encode_disk_line(*key, &entry.text, entry.usage));
            }
        }
        let n = keys.len();
        drop(g);
        vfs::atomic_write(&tier.vfs, &tier.path, out.as_bytes())?;
        Ok(n)
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
    /// (a torn append leaves a corrupt tail the next load truncates away).
    fn append_disk(&self, disk: &Mutex<DiskTier>, key: CacheKey, out: &CacheOutcome) {
        let tier = lock(disk);
        let line = encode_disk_line(key.0, &out.text, out.usage);
        if let Err(e) = tier.vfs.append(&tier.path, line.as_bytes()) {
            eprintln!("llm cache: disk tier append failed ({e}); continuing in-memory");
        }
    }
}

/// One checksummed disk-tier line (newline-terminated).
fn encode_disk_line(key: u64, text: &str, usage: Usage) -> String {
    let payload = json::to_string(&obj! {
        "key" => format!("{key:016x}"),
        "text" => text,
        "input_tokens" => usage.input_tokens as i64,
        "output_tokens" => usage.output_tokens as i64,
        "cost_usd" => usage.cost_usd,
        "latency_ms" => usage.latency_ms
    });
    format!("{}\n", vfs::encode_record('c', &payload))
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
    use aryn_core::ArynError;
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

    #[test]
    fn disk_tier_round_trips() {
        let dir = std::env::temp_dir().join(format!(
            "aryn-llm-cache-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = LlmCallCache::with_capacity(8).with_disk(&dir).unwrap();
        let key = CacheKey::for_call("m", "durable prompt", 64, 0.0);
        cache
            .get_or_compute(key, || Ok(("persisted".into(), usage(0.125))))
            .unwrap();
        drop(cache);
        let warm = LlmCallCache::with_capacity(8).with_disk(&dir).unwrap();
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
        let dir = std::env::temp_dir().join(format!(
            "aryn-llm-cache-corrupt-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = LlmCallCache::with_capacity(8).with_disk(&dir).unwrap();
        let k1 = CacheKey::for_call("m", "good one", 64, 0.0);
        let k2 = CacheKey::for_call("m", "good two", 64, 0.0);
        cache.get_or_compute(k1, || Ok(("v1".into(), usage(0.1)))).unwrap();
        cache.get_or_compute(k2, || Ok(("v2".into(), usage(0.1)))).unwrap();
        drop(cache);
        // Simulate a crash mid-append (truncated trailing line) plus a
        // well-formed entry without a checksum in the middle of the file:
        // no writer produces that, so it is corruption, not an entry.
        let path = dir.join("llm_cache.jsonl");
        let mut lines: Vec<String> =
            std::fs::read_to_string(&path).unwrap().lines().map(String::from).collect();
        lines.insert(1, "{\"key\": \"00000000000000ff\", \"text\": \"zzz\"}".to_string());
        let mut text = lines.join("\n");
        text.push_str("\n{\"key\": \"0000000000000001\", \"te");
        std::fs::write(&path, text).unwrap();
        let warm = LlmCallCache::with_capacity(8).with_disk(&dir).unwrap();
        assert_eq!(warm.len(), 2, "both intact entries survive the corruption");
        assert_eq!(warm.stats().corrupt_entries, 2);
        assert!(warm
            .get_or_compute(k1, || panic!("should be served from disk"))
            .unwrap()
            .hit);
        assert!(warm
            .get_or_compute(k2, || panic!("should be served from disk"))
            .unwrap()
            .hit);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_tail_is_physically_truncated_on_load() {
        use aryn_core::vfs::MemFs;
        use std::path::Path;
        let fs = Arc::new(MemFs::new());
        let dir = Path::new("/cache");
        let cache = LlmCallCache::with_capacity(8)
            .with_disk_on(fs.clone(), dir)
            .unwrap();
        let k1 = CacheKey::for_call("m", "p", 64, 0.0);
        cache.get_or_compute(k1, || Ok(("v".into(), usage(0.1)))).unwrap();
        drop(cache);
        let path = dir.join("llm_cache.jsonl");
        let clean_len = fs.read(&path).unwrap().len();
        // A crash mid-append leaves a partial record with no newline.
        fs.append(&path, b"c 1a2b3c4d {\"key\": \"00").unwrap();
        let warm = LlmCallCache::with_capacity(8)
            .with_disk_on(fs.clone(), dir)
            .unwrap();
        assert_eq!(warm.len(), 1);
        assert_eq!(warm.stats().corrupt_entries, 1);
        assert_eq!(
            fs.read(&path).unwrap().len(),
            clean_len,
            "the torn tail is truncated away, not just skipped"
        );
        // Post-truncation appends land on a clean line boundary.
        warm.insert(CacheKey::for_call("m", "q", 64, 0.0), "w".into(), usage(0.1));
        drop(warm);
        let again = LlmCallCache::with_capacity(8).with_disk_on(fs, dir).unwrap();
        assert_eq!(again.len(), 2);
        assert_eq!(again.stats().corrupt_entries, 0, "truncation was physical");
    }

    #[test]
    fn compact_disk_drops_dead_lines_atomically() {
        use aryn_core::vfs::{MemFs, Vfs};
        use std::path::Path;
        let fs = Arc::new(MemFs::new());
        let dir = Path::new("/cache");
        let cache = LlmCallCache::with_capacity(2)
            .with_disk_on(fs.clone(), dir)
            .unwrap();
        let k = |i: usize| CacheKey::for_call("m", &format!("p{i}"), 64, 0.0);
        for i in 0..3 {
            cache
                .get_or_compute(k(i), || Ok((format!("v{i}"), usage(0.1))))
                .unwrap();
        }
        let path = dir.join("llm_cache.jsonl");
        // Append-only tier holds all 3 lines; memory holds the live 2.
        let lines = |b: Vec<u8>| String::from_utf8(b).unwrap().lines().count();
        assert_eq!(lines(fs.read(&path).unwrap()), 3);
        assert_eq!(cache.compact_disk().unwrap(), 2);
        assert_eq!(lines(fs.read(&path).unwrap()), 2);
        drop(cache);
        let warm = LlmCallCache::with_capacity(8).with_disk_on(fs, dir).unwrap();
        assert_eq!(warm.len(), 2);
        assert_eq!(warm.stats().corrupt_entries, 0);
        assert!(warm
            .get_or_compute(k(2), || panic!("compacted entry must survive"))
            .unwrap()
            .hit);
    }

    #[test]
    fn checksummed_lines_detect_bitflips() {
        use aryn_core::vfs::MemFs;
        use std::path::Path;
        let fs = Arc::new(MemFs::new());
        let dir = Path::new("/cache");
        let cache = LlmCallCache::with_capacity(8)
            .with_disk_on(fs.clone(), dir)
            .unwrap();
        let k = CacheKey::for_call("m", "p", 64, 0.0);
        cache
            .get_or_compute(k, || Ok(("honest value".into(), usage(0.1))))
            .unwrap();
        drop(cache);
        let path = dir.join("llm_cache.jsonl");
        let mut bytes = fs.read(&path).unwrap();
        // Flip one payload byte: the CRC rejects the mangled text.
        let pos = bytes.len() - 20;
        bytes[pos] ^= 0x02;
        fs.write(&path, &bytes).unwrap();
        let warm = LlmCallCache::with_capacity(8).with_disk_on(fs, dir).unwrap();
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
