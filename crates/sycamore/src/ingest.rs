//! Streaming ingestion (DESIGN.md §5j): a continuous parse→ingest→index
//! feed where every arrival pays O(doc) work — a memtable put against the
//! LSM [`DocStore`], a postings delta against a [`ShardedKeywordIndex`], one
//! graph insert into the active shard of a [`ShardedHnsw`], and an
//! optional per-document hook (knowledge-graph upserts) — instead of the
//! offline full-rebuild path. Seals and compactions happen inline at
//! deterministic boundaries; their cost is charged to a virtual clock, which
//! is what makes *index lag* (arrival-to-searchable delay, including any
//! seal/compaction work the document queues behind) a measurable,
//! reproducible number rather than a wall-time artifact.

use crate::context::Context;
use aryn_core::{percentile, Document, Result};
use aryn_index::{
    DocStore, ShardedHnsw, ShardedKeywordIndex, StoreConfig, StoreSnapshot, StoreStats,
    VectorIndex,
};
use aryn_llm::EmbeddingModel;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Streaming-ingestion knobs. One `seal_threshold`/`compact_fanout` pair
/// drives the store *and* its keyword/vector sidecars (keyword shards seal
/// at `seal_threshold`, vector shards grow to `4 × seal_threshold`); the
/// `*_cost_ms` knobs price pipeline stages on the virtual clock
/// (deterministic latency accounting, like the serving layer's DES).
#[derive(Debug, Clone, Copy)]
pub struct IngestConfig {
    /// Documents per segment: memtable/keyword-shard size that seals.
    pub seal_threshold: usize,
    /// Sealed-segment count that triggers compaction.
    pub compact_fanout: usize,
    /// Virtual cost of one document's parse+index work.
    pub doc_cost_ms: f64,
    /// Virtual cost of sealing a segment (freeze + stats refresh).
    pub seal_cost_ms: f64,
    /// Virtual cost of one full-merge compaction.
    pub compact_cost_ms: f64,
    /// Virtual cost of appending one document's WAL record. Charged only
    /// when the target store is durable (DESIGN.md §5k): an in-memory
    /// store's lag profile is unchanged.
    pub wal_cost_ms: f64,
    /// Additional virtual cost of the per-append fsync when the store's
    /// [`aryn_index::WalConfig`] has `fsync` on. Durable-ack streams pay
    /// `wal_cost_ms + fsync_cost_ms` per arrival before the doc counts as
    /// searchable.
    pub fsync_cost_ms: f64,
    /// Maintain the vector sidecar (embedding each arrival if the document
    /// carries none).
    pub embed: bool,
}

impl Default for IngestConfig {
    fn default() -> Self {
        IngestConfig {
            seal_threshold: 256,
            compact_fanout: 4,
            doc_cost_ms: 2.0,
            seal_cost_ms: 8.0,
            compact_cost_ms: 24.0,
            wal_cost_ms: 0.5,
            fsync_cost_ms: 2.0,
            embed: true,
        }
    }
}

/// Counters an ingest stream shares with query layers (registered on the
/// [`Context`] under the target store's name). Luna reads these to surface
/// segment/compaction activity and index lag in `explain_analyze` when a
/// question ran against a live stream.
#[derive(Debug, Default)]
pub struct IngestShared {
    docs: AtomicUsize,
    seals: AtomicUsize,
    compactions: AtomicUsize,
    /// f64 bits of the most recent arrival's index lag.
    last_lag_ms: AtomicU64,
    /// f64 bits of the worst lag seen.
    max_lag_ms: AtomicU64,
}

impl IngestShared {
    pub fn docs(&self) -> usize {
        self.docs.load(Ordering::Relaxed)
    }

    pub fn seals(&self) -> usize {
        self.seals.load(Ordering::Relaxed)
    }

    pub fn compactions(&self) -> usize {
        self.compactions.load(Ordering::Relaxed)
    }

    /// Index lag of the most recent arrival (virtual ms).
    pub fn last_lag_ms(&self) -> f64 {
        f64::from_bits(self.last_lag_ms.load(Ordering::Relaxed))
    }

    /// Worst index lag seen so far (virtual ms).
    pub fn max_lag_ms(&self) -> f64 {
        f64::from_bits(self.max_lag_ms.load(Ordering::Relaxed))
    }
}

/// Summary of a finished (or in-flight) stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IngestReport {
    pub docs: usize,
    pub seals: usize,
    pub compactions: usize,
    pub p50_lag_ms: f64,
    pub p99_lag_ms: f64,
    pub max_lag_ms: f64,
    /// Virtual-clock time when the last arrival became searchable.
    pub clock_ms: f64,
}

/// Per-document callback invoked on every arrival (e.g. incremental
/// knowledge-graph upserts).
type DocHook = Box<dyn FnMut(&Document) + Send>;

/// A streaming-ingestion pipeline bound to one store on a [`Context`].
/// Feed it documents with [`Ingestor::ingest_at`]; take consistent
/// [`StoreSnapshot`]s at any point with [`Ingestor::snapshot`].
pub struct Ingestor {
    ctx: Context,
    store: String,
    cfg: IngestConfig,
    keyword: ShardedKeywordIndex,
    vector: ShardedHnsw,
    embedder: Arc<dyn EmbeddingModel>,
    /// Per-document hook (e.g. incremental knowledge-graph upserts).
    doc_hook: Option<DocHook>,
    clock_ms: f64,
    lags: Vec<f64>,
    shared: Arc<IngestShared>,
    last_stats: StoreStats,
}

impl Ingestor {
    /// Binds a stream to `store` (created with the configured segment
    /// lifecycle if absent) and registers its shared counters on the
    /// context.
    pub fn new(ctx: &Context, store: &str, cfg: IngestConfig) -> Ingestor {
        let store_cfg = StoreConfig {
            seal_threshold: cfg.seal_threshold,
            compact_fanout: cfg.compact_fanout,
        };
        let existing = ctx.with_store_mut(store, |s| {
            s.set_config(store_cfg);
            s.stats()
        });
        let last_stats = match existing {
            Ok(stats) => stats,
            Err(_) => {
                ctx.put_store(store, DocStore::with_config(store_cfg));
                StoreStats::default()
            }
        };
        let shared = Arc::new(IngestShared::default());
        ctx.register_ingest(store, Arc::clone(&shared));
        let embedder = ctx.embedder();
        let dims = embedder.dims();
        Ingestor {
            ctx: ctx.clone(),
            store: store.to_string(),
            cfg,
            keyword: ShardedKeywordIndex::new(cfg.seal_threshold),
            vector: ShardedHnsw::new(dims, cfg.seal_threshold),
            embedder,
            doc_hook: None,
            clock_ms: 0.0,
            lags: Vec::new(),
            shared: Arc::new(IngestShared::default()),
            last_stats,
        }
        .with_shared(shared)
    }

    fn with_shared(mut self, shared: Arc<IngestShared>) -> Ingestor {
        self.shared = shared;
        self
    }

    /// Installs a per-document hook, run before the store put (e.g.
    /// incremental knowledge-graph node/edge upserts).
    pub fn set_doc_hook(&mut self, hook: impl FnMut(&Document) + Send + 'static) {
        self.doc_hook = Some(Box::new(hook));
    }

    /// Ingests one document arriving at `arrival_ms` on the virtual clock.
    /// Returns the arrival's index lag: how long (virtual ms) after arrival
    /// the document was searchable in every sidecar, including any seal or
    /// compaction work it queued behind. O(doc) index work per call.
    ///
    /// Against a durable store the ack is *durable*: `Ok` means the
    /// document's WAL record reached the store's filesystem, and the WAL
    /// (plus fsync, when configured) cost is charged to the virtual clock
    /// before the arrival counts as searchable. `Err` means the arrival was
    /// not acknowledged — it is absent from the store and the sidecars, and
    /// will not survive a crash.
    pub fn ingest_at(&mut self, doc: Document, arrival_ms: f64) -> Result<f64> {
        // The pipeline is busy until `clock_ms`; a doc arriving earlier
        // waits, one arriving later finds the pipeline idle.
        self.clock_ms = self.clock_ms.max(arrival_ms) + self.cfg.doc_cost_ms;
        let text = doc.full_text();
        if let Some(hook) = &mut self.doc_hook {
            hook(&doc);
        }
        let doc_id = doc.id.0.clone();
        let embedding = if self.cfg.embed {
            Some(match &doc.embedding {
                Some(v) => v.clone(),
                None => self.embedder.embed(&text),
            })
        } else {
            None
        };
        let (put, stats, durable, fsync) = self.ctx.with_store_mut(&self.store, |s| {
            let put = s.try_put(doc);
            (put, s.stats(), s.is_durable(), s.wal_fsync())
        })?;
        if durable {
            self.clock_ms += self.cfg.wal_cost_ms;
            if fsync {
                self.clock_ms += self.cfg.fsync_cost_ms;
            }
        }
        // A failed WAL append is a refused ack: the store did not take the
        // document, so the sidecars must not serve it either.
        put?;
        self.keyword.add(doc_id.clone(), &text);
        if let Some(v) = embedding {
            self.vector.add(&doc_id, v)?;
        }
        // The store seals/compacts inline at its thresholds; mirror those
        // boundaries onto the sidecars and charge their virtual cost.
        let seals = stats.seals - self.last_stats.seals;
        let compactions = stats.compactions - self.last_stats.compactions;
        self.last_stats = stats;
        if seals > 0 {
            self.clock_ms += seals as f64 * self.cfg.seal_cost_ms;
        }
        if compactions > 0 {
            self.keyword.compact();
            self.vector.compact();
            self.clock_ms += compactions as f64 * self.cfg.compact_cost_ms;
        }
        let lag = self.clock_ms - arrival_ms;
        self.lags.push(lag);
        self.shared.docs.fetch_add(1, Ordering::Relaxed);
        self.shared.seals.fetch_add(seals, Ordering::Relaxed);
        self.shared
            .compactions
            .fetch_add(compactions, Ordering::Relaxed);
        self.shared
            .last_lag_ms
            .store(lag.to_bits(), Ordering::Relaxed);
        if lag > self.shared.max_lag_ms() {
            self.shared
                .max_lag_ms
                .store(lag.to_bits(), Ordering::Relaxed);
        }
        if seals > 0 || compactions > 0 {
            let tel = self.ctx.telemetry();
            let mut sp = tel.span(format!("ingest:{}", self.store), "ingest");
            sp.add("ingest_seals", seals as u64);
            sp.add("ingest_compactions", compactions as u64);
            sp.gauge("index_lag_ms", lag);
            sp.finish();
        }
        Ok(lag)
    }

    /// A consistent MVCC snapshot of the target store as of now.
    pub fn snapshot(&self) -> Result<Arc<StoreSnapshot>> {
        self.ctx.snapshot_store(&self.store)
    }

    /// The keyword sidecar (searchable at any stream position).
    pub fn keyword(&self) -> &ShardedKeywordIndex {
        &self.keyword
    }

    /// The vector sidecar (searchable at any stream position).
    pub fn vector(&self) -> &ShardedHnsw {
        &self.vector
    }

    pub fn clock_ms(&self) -> f64 {
        self.clock_ms
    }

    pub fn shared(&self) -> Arc<IngestShared> {
        Arc::clone(&self.shared)
    }

    /// Summarizes the stream so far and emits a telemetry span with the
    /// cumulative counters and lag percentiles.
    pub fn report(&self) -> IngestReport {
        let mut sorted = self.lags.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let report = IngestReport {
            docs: self.shared.docs(),
            seals: self.shared.seals(),
            compactions: self.shared.compactions(),
            p50_lag_ms: percentile(&sorted, 50.0),
            p99_lag_ms: percentile(&sorted, 99.0),
            max_lag_ms: sorted.last().copied().unwrap_or(0.0),
            clock_ms: self.clock_ms,
        };
        let tel = self.ctx.telemetry();
        let mut sp = tel.span(format!("ingest:{}:stream", self.store), "ingest");
        sp.set("ingest_docs", report.docs as u64);
        sp.set("ingest_seals", report.seals as u64);
        sp.set("ingest_compactions", report.compactions as u64);
        sp.gauge("index_lag_p50_ms", report.p50_lag_ms);
        sp.gauge("index_lag_p99_ms", report.p99_lag_ms);
        sp.gauge("index_lag_ms", report.max_lag_ms);
        // Durability counters: a counter group is written whole, zeros
        // included (all zero for in-memory stores).
        if let Ok(stats) = self.ctx.with_store(&self.store, |s| s.stats()) {
            for (key, n) in [
                ("wal_appends", stats.wal_appends),
                ("wal_replayed", stats.wal_replayed),
                ("torn_tail_truncated", stats.torn_tail_truncated),
                ("segments_recovered", stats.segments_recovered),
                ("orphans_removed", stats.orphans_removed),
                ("storage_io_errors", stats.io_errors),
            ] {
                sp.set(key, n as u64);
            }
        }
        sp.finish();
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aryn_core::obj;
    use aryn_index::VectorIndex;

    fn doc(i: usize, text: &str) -> Document {
        let mut d = Document::from_text(format!("d{i:04}"), text);
        d.properties = obj! { "n" => i as i64 };
        d
    }

    fn feed(ing: &mut Ingestor, n: usize, rate_ms: f64) {
        let texts = [
            "wind gusts during the landing approach",
            "engine failure after takeoff",
            "fog near the coastal runway",
        ];
        for i in 0..n {
            ing.ingest_at(doc(i, texts[i % texts.len()]), i as f64 * rate_ms)
                .unwrap();
        }
    }

    #[test]
    fn stream_keeps_store_and_sidecars_consistent() {
        let ctx = Context::new();
        let mut ing = Ingestor::new(
            &ctx,
            "stream",
            IngestConfig {
                seal_threshold: 8,
                compact_fanout: 3,
                ..IngestConfig::default()
            },
        );
        feed(&mut ing, 50, 5.0);
        assert_eq!(ctx.with_store("stream", |s| s.len()).unwrap(), 50);
        assert_eq!(ing.keyword().len(), 50);
        assert_eq!(ing.vector().len(), 50);
        let rep = ing.report();
        assert_eq!(rep.docs, 50);
        assert!(rep.seals >= 5, "threshold 8 over 50 docs: {rep:?}");
        assert!(rep.compactions >= 1, "{rep:?}");
        assert!(rep.p50_lag_ms > 0.0 && rep.p99_lag_ms >= rep.p50_lag_ms);
        assert!(rep.max_lag_ms >= rep.p99_lag_ms);
        // Freshly-ingested docs are searchable immediately.
        let hits = ing.keyword().search("engine failure", 5);
        assert!(!hits.is_empty());
        // Shared counters registered on the context for query layers.
        let shared = ctx.ingest_stream("stream").unwrap();
        assert_eq!(shared.docs(), 50);
        assert!(shared.max_lag_ms() > 0.0);
    }

    #[test]
    fn virtual_clock_lag_is_deterministic() {
        let run = || {
            let ctx = Context::new();
            let mut ing = Ingestor::new(
                &ctx,
                "s",
                IngestConfig {
                    seal_threshold: 4,
                    compact_fanout: 2,
                    ..IngestConfig::default()
                },
            );
            feed(&mut ing, 30, 1.0);
            ing.report()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn snapshot_mid_stream_is_frozen() {
        let ctx = Context::new();
        let mut ing = Ingestor::new(
            &ctx,
            "s",
            IngestConfig {
                seal_threshold: 4,
                compact_fanout: 2,
                ..IngestConfig::default()
            },
        );
        feed(&mut ing, 10, 1.0);
        let snap = ing.snapshot().unwrap();
        assert_eq!(snap.len(), 10);
        feed(&mut ing, 40, 1.0); // overwrites d0000..d0009 then grows
        assert_eq!(snap.len(), 10, "snapshot unaffected by later stream");
        assert_eq!(snap.scan().count(), 10);
        // Read through the DocSet layer against the frozen view.
        let n = ctx
            .read_snapshot("s", Arc::clone(&snap))
            .count()
            .unwrap();
        assert_eq!(n, 10);
    }

    #[test]
    fn doc_hook_sees_every_arrival() {
        let ctx = Context::new();
        let mut ing = Ingestor::new(&ctx, "s", IngestConfig::default());
        let seen = Arc::new(AtomicUsize::new(0));
        let seen2 = Arc::clone(&seen);
        ing.set_doc_hook(move |_| {
            seen2.fetch_add(1, Ordering::Relaxed);
        });
        feed(&mut ing, 7, 1.0);
        assert_eq!(seen.load(Ordering::Relaxed), 7);
    }
}
