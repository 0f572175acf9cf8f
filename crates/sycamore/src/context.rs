//! The Sycamore context: data lake, index sinks, embedder, and execution
//! configuration. Cloning a [`Context`] shares the underlying state, the way
//! paper code passes one `context` around (`context.read.opensearch(...)`).

use crate::docset::{DocSet, Source};
use crate::ingest::IngestShared;
use aryn_core::vfs::{ChaosFs, StdFs, Vfs};
use aryn_core::{ArynError, Document, Result};
use aryn_docgen::layout::RawDocument;
use aryn_docgen::Corpus;
use aryn_index::{
    Catalog, DocStore, HnswIndex, KeywordIndex, StoreConfig, StoreSnapshot, VectorIndex, WalConfig,
};
use aryn_llm::{ChaosSchedule, EmbeddingModel, HashedBowEmbedder};
use aryn_telemetry::Telemetry;
use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::sync::Arc;

/// How pipelines execute.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExecConfig {
    /// Worker threads for per-document stages (1 = the calling thread, in
    /// input order).
    pub threads: usize,
    /// Injected worker-failure probability per (doc, attempt) — exercises
    /// the Ray-style retry path.
    pub fail_rate: f64,
    /// Retries per document before it is dropped/failed.
    pub max_retries: u32,
    /// Drop failing documents (recorded in stats) instead of failing the
    /// whole pipeline.
    pub skip_failures: bool,
    pub seed: u64,
    /// Maximum documents packed into one LLM micro-batch call for batchable
    /// semantic ops (`llm_filter`, `extract_properties`). 1 = batching off
    /// (the default): every document gets its own call, preserving
    /// historical call counts exactly.
    pub batch_max_items: usize,
    /// Token budget for the packed payload of one micro-batch call.
    pub batch_token_budget: usize,
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig {
            threads: 1,
            fail_rate: 0.0,
            max_retries: 3,
            skip_failures: false,
            seed: 0x5CA9,
            batch_max_items: 1,
            batch_token_budget: 2048,
        }
    }
}

/// Entries of one lake: `(doc id, raw rendering)` pairs, stably sorted by
/// id, so a lookup is a binary search and the first registered of two
/// equal ids comes first.
pub(crate) type LakeEntries = Vec<(String, Arc<RawDocument>)>;

/// A materialization: the fingerprint of the op-prefix that produced it and
/// its rows, shared with whatever pipeline wrote or resumes from them.
pub(crate) type Checkpoint = (u64, Vec<Arc<Document>>);

pub(crate) struct ContextInner {
    /// "Data lake" of raw renderings: lake name -> (doc id, raw document).
    pub lake: RwLock<BTreeMap<String, LakeEntries>>,
    /// Document stores (the OpenSearch-like sink).
    pub catalog: RwLock<Catalog>,
    /// Keyword indexes.
    pub keyword: RwLock<BTreeMap<String, KeywordIndex>>,
    /// Vector indexes.
    pub vector: RwLock<BTreeMap<String, Box<dyn VectorIndex>>>,
    /// Named in-memory materializations, keyed by name and stamped with a
    /// fingerprint of the op-prefix that produced them — so a checkpoint
    /// written by one pipeline shape is never reused by a different one.
    pub materialized: RwLock<BTreeMap<String, Checkpoint>>,
    /// Chaos fault schedule wrapped around LLM ops built on this context
    /// (one independent schedule clock per op). `None` = calm.
    pub chaos: RwLock<Option<ChaosSchedule>>,
    pub embedder: Arc<dyn EmbeddingModel>,
    /// Execution configuration. Behind a lock so query-time knobs (the
    /// micro-batching pair) can be adjusted on a live context without
    /// rebuilding its sinks; `ExecConfig` is `Copy`, so readers take
    /// snapshots.
    pub exec: RwLock<ExecConfig>,
    /// Span collector shared by the executor, transforms, and the
    /// partitioner; `with_exec` contexts share it so one trace covers a
    /// whole ingest-plus-query session.
    pub telemetry: Telemetry,
    /// Live ingest streams by target store: shared counters registered by
    /// [`crate::ingest::Ingestor`] so query layers can report segment /
    /// compaction activity and index lag alongside a question's trace.
    pub ingest: RwLock<BTreeMap<String, Arc<IngestShared>>>,
    /// The filesystem durable components go through ([`StdFs`] by default).
    /// [`Context::set_chaos`] swaps in a fault-injecting wrapper when the
    /// schedule carries storage faults.
    pub vfs: RwLock<Arc<dyn Vfs>>,
}

/// Shared handle to the Sycamore runtime state.
#[derive(Clone)]
pub struct Context {
    pub(crate) inner: Arc<ContextInner>,
    /// Session/tenant tag carried by this *handle*, not by the shared inner
    /// state: concurrent sessions over one runtime each hold their own
    /// tagged clone (see [`Context::with_session_tag`]), so tagging never
    /// races. Stage stats and spans report it for per-tenant attribution.
    session: Option<Arc<str>>,
}

impl Default for Context {
    fn default() -> Self {
        Context::new()
    }
}

impl Context {
    /// A context with the default hashed-BoW embedder (256 dims).
    pub fn new() -> Context {
        Context::with_embedder(Arc::new(HashedBowEmbedder::new(256, 0xE3B)))
    }

    pub fn with_embedder(embedder: Arc<dyn EmbeddingModel>) -> Context {
        Context {
            inner: Arc::new(ContextInner {
                lake: RwLock::new(BTreeMap::new()),
                catalog: RwLock::new(Catalog::new()),
                keyword: RwLock::new(BTreeMap::new()),
                vector: RwLock::new(BTreeMap::new()),
                materialized: RwLock::new(BTreeMap::new()),
                chaos: RwLock::new(None),
                embedder,
                exec: RwLock::new(ExecConfig::default()),
                telemetry: Telemetry::new("sycamore"),
                ingest: RwLock::new(BTreeMap::new()),
                vfs: RwLock::new(Arc::new(StdFs)),
            }),
            session: None,
        }
    }

    /// A handle over the same shared runtime that tags everything it
    /// executes with `tag` (conventionally `tenant` or `tenant/session`).
    /// Cheap — no state is copied — and purely additive: stage stats carry
    /// the tag in [`crate::stats::StageStats::tenant`] and stage spans note
    /// it, so a multi-tenant service can attribute counters per tenant.
    pub fn with_session_tag(&self, tag: &str) -> Context {
        Context {
            inner: Arc::clone(&self.inner),
            session: Some(Arc::from(tag)),
        }
    }

    /// The session/tenant tag carried by this handle, if any.
    pub fn session_tag(&self) -> Option<&str> {
        self.session.as_deref()
    }

    /// Returns a context with a different execution configuration, carrying
    /// a snapshot of this context's lake and materializations. Index sinks
    /// (catalog, keyword, vector) start empty: executor settings are chosen
    /// before ingestion, and sharing mutable sinks across configs would make
    /// runs order-dependent.
    pub fn with_exec(&self, exec: ExecConfig) -> Context {
        Context {
            inner: Arc::new(ContextInner {
                lake: RwLock::new(self.inner.lake.read().clone()),
                catalog: RwLock::new(Catalog::new()),
                keyword: RwLock::new(BTreeMap::new()),
                vector: RwLock::new(BTreeMap::new()),
                materialized: RwLock::new(self.inner.materialized.read().clone()),
                chaos: RwLock::new(self.inner.chaos.read().clone()),
                embedder: Arc::clone(&self.inner.embedder),
                exec: RwLock::new(exec),
                telemetry: self.inner.telemetry.clone(),
                ingest: RwLock::new(BTreeMap::new()),
                vfs: RwLock::new(self.inner.vfs.read().clone()),
            }),
            session: self.session.clone(),
        }
    }

    pub fn exec_config(&self) -> ExecConfig {
        *self.inner.exec.read()
    }

    /// Adjusts the micro-batching knobs in place. Unlike [`Context::with_exec`],
    /// which starts the index sinks empty because executor settings are an
    /// ingest-time choice, batching is a query-time concern: set it on an
    /// ingested context (Luna's included) without discarding indexes.
    pub fn set_batch(&self, max_items: usize, token_budget: usize) {
        let mut exec = self.inner.exec.write();
        exec.batch_max_items = max_items.max(1);
        exec.batch_token_budget = token_budget.max(1);
    }

    /// Sets the worker count for per-document stages in place. Like
    /// [`Context::set_batch`] this mutates the live context without
    /// discarding index sinks — parallelism is a query-time concern (Luna
    /// applies its configured worker count to an already-ingested context).
    /// Results never depend on it, only wall time does: a stage whose LLM
    /// client keeps call-order state (an arrival-order chaos schedule, a
    /// reliability budget or breaker) runs on one worker whatever `threads`
    /// says.
    pub fn set_workers(&self, threads: usize) {
        self.inner.exec.write().threads = threads.max(1);
    }

    /// Installs a chaos fault schedule. Each LLM op constructed afterwards
    /// wraps its model in a [`aryn_llm::ChaosModel`] with an independent
    /// copy of this schedule (per-op call clocks), so faults land
    /// deterministically regardless of stage interleaving. When the
    /// schedule carries storage faults, the context VFS is additionally
    /// wrapped in a [`ChaosFs`] (one shared IO-op clock), so WAL appends,
    /// segment seals, cache appends, and materialize checkpoints all sit in
    /// the blast radius.
    pub fn set_chaos(&self, schedule: ChaosSchedule) {
        if !schedule.storage.is_calm() {
            let current = self.inner.vfs.read().clone();
            *self.inner.vfs.write() = Arc::new(ChaosFs::wrap(current, schedule.storage.clone()));
        }
        *self.inner.chaos.write() = Some(schedule);
    }

    /// The installed chaos schedule, if any.
    pub fn chaos(&self) -> Option<ChaosSchedule> {
        self.inner.chaos.read().clone()
    }

    /// The filesystem handle durable components share.
    pub fn vfs(&self) -> Arc<dyn Vfs> {
        self.inner.vfs.read().clone()
    }

    /// Replaces the context filesystem (tests inject a `MemFs`; chaos harnesses
    /// inject a pre-wrapped [`ChaosFs`]). Components capture the handle at
    /// construction/open time, so install the VFS before opening stores.
    pub fn set_vfs(&self, fs: Arc<dyn Vfs>) {
        *self.inner.vfs.write() = fs;
    }

    /// The context's span collector. Clone it to record from transforms or
    /// hand it to the partitioner; call `.snapshot()`/`.take()` for export.
    pub fn telemetry(&self) -> Telemetry {
        self.inner.telemetry.clone()
    }

    pub fn embedder(&self) -> Arc<dyn EmbeddingModel> {
        Arc::clone(&self.inner.embedder)
    }

    /// Registers a synthetic corpus's raw renderings as a lake.
    pub fn register_corpus(&self, lake: &str, corpus: &Corpus) {
        let mut entries: LakeEntries = corpus
            .docs
            .iter()
            .map(|d| (d.id.clone(), Arc::new(d.raw.clone())))
            .collect();
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        self.inner.lake.write().insert(lake.to_string(), entries);
    }

    /// Looks up one raw rendering in a lake; of two entries with one id, the
    /// first registered wins.
    pub fn raw_from_lake(&self, lake: &str, id: &str) -> Option<Arc<RawDocument>> {
        let lakes = self.inner.lake.read();
        let docs = lakes.get(lake)?;
        let (k, raw) = docs.get(docs.partition_point(|(k, _)| k.as_str() < id))?;
        (k == id).then(|| Arc::clone(raw))
    }

    /// DocSet over the raw documents of a lake (unpartitioned).
    pub fn read_lake(&self, lake: &str) -> Result<DocSet> {
        if !self.inner.lake.read().contains_key(lake) {
            return Err(ArynError::Index(format!("unknown lake {lake:?}")));
        }
        Ok(DocSet::new(self.clone(), Source::Lake(lake.to_string())))
    }

    /// DocSet over a document store (the `context.read.opensearch(...)` of
    /// the paper's Figure 6).
    pub fn read_store(&self, name: &str) -> Result<DocSet> {
        self.inner.catalog.read().get(name)?;
        Ok(DocSet::new(self.clone(), Source::Store(name.to_string())))
    }

    /// DocSet over in-memory documents.
    pub fn read_docs(&self, docs: Vec<Document>) -> DocSet {
        DocSet::new(self.clone(), Source::Docs(docs.into_iter().map(Arc::new).collect()))
    }

    /// DocSet over rows something else already holds (a store snapshot,
    /// another pipeline's output): the pointers are copied, never the
    /// documents, and a transform that writes to one copies it first.
    pub fn read_shared(&self, rows: &[Arc<Document>]) -> DocSet {
        DocSet::new(self.clone(), Source::Docs(rows.into()))
    }

    /// DocSet over a previous materialization.
    pub fn read_materialized(&self, name: &str) -> Result<DocSet> {
        if !self.inner.materialized.read().contains_key(name) {
            return Err(ArynError::Index(format!("unknown materialization {name:?}")));
        }
        Ok(DocSet::new(self.clone(), Source::Materialized(name.to_string())))
    }

    /// DocSet over a frozen store snapshot: the pipeline reads the
    /// snapshot's contents no matter what ingestion or compaction does to
    /// the live store in the meantime.
    pub fn read_snapshot(&self, name: &str, snap: Arc<StoreSnapshot>) -> DocSet {
        DocSet::new(
            self.clone(),
            Source::Snapshot {
                name: name.to_string(),
                snap,
            },
        )
    }

    // --- sink accessors -----------------------------------------------------

    /// Runs `f` with a read view of a document store.
    pub fn with_store<T>(&self, name: &str, f: impl FnOnce(&DocStore) -> T) -> Result<T> {
        let catalog = self.inner.catalog.read();
        Ok(f(catalog.get(name)?))
    }

    /// Runs `f` with a mutable view of a document store — the per-document
    /// write path streaming ingestion uses (unlike [`Context::put_store`],
    /// which replaces the store wholesale).
    pub fn with_store_mut<T>(&self, name: &str, f: impl FnOnce(&mut DocStore) -> T) -> Result<T> {
        let mut catalog = self.inner.catalog.write();
        Ok(f(catalog.get_mut(name)?))
    }

    /// Takes an MVCC snapshot of a store: a frozen view that stays
    /// bit-stable while ingestion and compaction continue underneath.
    pub fn snapshot_store(&self, name: &str) -> Result<Arc<StoreSnapshot>> {
        self.with_store(name, |s| Arc::new(s.snapshot()))
    }

    /// Inserts (replacing) a document store.
    pub fn put_store(&self, name: &str, store: DocStore) {
        self.inner.catalog.write().insert(name, store);
    }

    /// Opens (or creates) a durable [`DocStore`] at `dir` through the
    /// context VFS, registers it under `name`, and returns its post-recovery
    /// stats (`wal_replayed`, `torn_tail_truncated`, `segments_recovered`,
    /// ...). Acked writes into this store survive a process crash.
    pub fn open_store(
        &self,
        name: &str,
        dir: impl Into<std::path::PathBuf>,
        config: StoreConfig,
        wal: WalConfig,
    ) -> Result<aryn_index::StoreStats> {
        let store = DocStore::open_with(dir, self.vfs(), config, wal)?;
        let stats = store.stats();
        self.put_store(name, store);
        Ok(stats)
    }

    /// Registers an ingest stream's shared counters under its target store
    /// name (done by [`crate::ingest::Ingestor::new`]).
    pub fn register_ingest(&self, store: &str, shared: Arc<IngestShared>) {
        self.inner
            .ingest
            .write()
            .insert(store.to_string(), shared);
    }

    /// The ingest stream feeding a store, if one is registered.
    pub fn ingest_stream(&self, store: &str) -> Option<Arc<IngestShared>> {
        self.inner.ingest.read().get(store).cloned()
    }

    /// Runs `f` with a read view of a keyword index.
    pub fn with_keyword<T>(&self, name: &str, f: impl FnOnce(&KeywordIndex) -> T) -> Result<T> {
        let kw = self.inner.keyword.read();
        let ix = kw
            .get(name)
            .ok_or_else(|| ArynError::Index(format!("unknown keyword index {name:?}")))?;
        Ok(f(ix))
    }

    /// Runs `f` with a read view of a vector index.
    pub fn with_vector<T>(
        &self,
        name: &str,
        f: impl FnOnce(&dyn VectorIndex) -> T,
    ) -> Result<T> {
        let vx = self.inner.vector.read();
        let ix = vx
            .get(name)
            .ok_or_else(|| ArynError::Index(format!("unknown vector index {name:?}")))?;
        Ok(f(ix.as_ref()))
    }

    /// Creates an empty HNSW vector index with the context embedder's dims.
    pub fn create_vector_index(&self, name: &str) {
        let dims = self.inner.embedder.dims();
        self.inner
            .vector
            .write()
            .insert(name.to_string(), Box::new(HnswIndex::with_dims(dims)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_and_read_lake() {
        let ctx = Context::new();
        let corpus = Corpus::ntsb(1, 3);
        ctx.register_corpus("ntsb", &corpus);
        assert!(ctx.read_lake("ntsb").is_ok());
        assert!(ctx.read_lake("none").is_err());
        assert!(ctx.raw_from_lake("ntsb", &corpus.docs[0].id).is_some());
        assert!(ctx.raw_from_lake("ntsb", "ghost").is_none());
    }

    #[test]
    fn lake_lookup_is_keyed_and_the_first_of_equal_ids_wins() {
        use crate::op::PartitionCfg;
        let ctx = Context::new();
        let mut corpus = Corpus::ntsb(1, 6);
        corpus.docs.reverse();
        let mut dup = corpus.docs[4].clone();
        dup.raw = corpus.docs[5].raw.clone();
        assert_ne!(dup.raw, corpus.docs[4].raw);
        corpus.docs.push(dup.clone());
        ctx.register_corpus("ntsb", &corpus);
        for d in &corpus.docs[..6] {
            assert_eq!(*ctx.raw_from_lake("ntsb", &d.id).unwrap(), d.raw, "{}", d.id);
        }
        // Both copies are scanned, in id order; each partitions the first.
        let ids: Vec<String> = ctx.read_lake("ntsb").unwrap().collect().unwrap().into_iter().map(|d| d.id.0).collect();
        let mut want: Vec<String> = corpus.docs.iter().map(|d| d.id.clone()).collect();
        want.sort();
        assert_eq!(ids, want);
        let parted = ctx.read_lake("ntsb").unwrap().partition("ntsb", PartitionCfg::default()).collect().unwrap();
        let copies: Vec<&Document> = parted.iter().filter(|d| d.id.as_str() == dup.id).collect();
        assert_eq!(copies.len(), 2);
        assert_eq!(copies[0], copies[1]);
        assert!(ctx.raw_from_lake("ntsb", "ntsb-").is_none());
        assert!(ctx.raw_from_lake("ntsb", "zzz").is_none());
    }

    #[test]
    fn stores_and_indexes_roundtrip() {
        let ctx = Context::new();
        assert!(ctx.read_store("s").is_err());
        ctx.put_store("s", DocStore::new());
        assert!(ctx.read_store("s").is_ok());
        assert_eq!(ctx.with_store("s", |s| s.len()).unwrap(), 0);
        ctx.create_vector_index("v");
        assert_eq!(ctx.with_vector("v", |v| v.len()).unwrap(), 0);
        assert!(ctx.with_keyword("k", |k| k.len()).is_err());
    }

    #[test]
    fn set_batch_adjusts_live_context_without_dropping_sinks() {
        let ctx = Context::new();
        assert_eq!(ctx.exec_config().batch_max_items, 1);
        ctx.put_store("s", DocStore::new());
        ctx.set_batch(8, 4096);
        let cfg = ctx.exec_config();
        assert_eq!(cfg.batch_max_items, 8);
        assert_eq!(cfg.batch_token_budget, 4096);
        assert!(ctx.read_store("s").is_ok());
        ctx.set_batch(0, 0);
        assert_eq!(ctx.exec_config().batch_max_items, 1);
        assert_eq!(ctx.exec_config().batch_token_budget, 1);
    }

    #[test]
    fn set_parallelism_adjusts_live_context_and_clamps() {
        let ctx = Context::new();
        assert_eq!(ctx.exec_config().threads, 1);
        ctx.put_store("s", DocStore::new());
        ctx.set_workers(8);
        assert_eq!(ctx.exec_config().threads, 8);
        assert!(ctx.read_store("s").is_ok(), "sinks survive the knob change");
        ctx.set_workers(0);
        assert_eq!(ctx.exec_config().threads, 1);
    }

    #[test]
    fn with_exec_shares_lake_but_not_sinks() {
        let ctx = Context::new();
        ctx.register_corpus("ntsb", &Corpus::ntsb(1, 1));
        let par = ctx.with_exec(ExecConfig {
            threads: 4,
            ..ExecConfig::default()
        });
        assert!(par.read_lake("ntsb").is_ok());
        assert_eq!(par.exec_config().threads, 4);
    }
}
