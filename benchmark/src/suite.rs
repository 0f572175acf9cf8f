//! The layer suite: small, fixed, isolated sections that time one public
//! call of one layer each. Every traced run executes one pass per
//! iteration, whatever the workload, so a per-layer number means the same
//! thing everywhere and exists even where the workload never makes the
//! call. Inputs derive from the seed; sizes are constants.

use crate::trace::{self, in_span};
use crate::workloads::Size;
use crate::wrappers::{default_embedder, io_err, traced_context, TracedModel, ZeroCostModel};
use crate::yardstick::yardstick;
use aryn::aryn_core::vfs::{StdFs, Vfs};
use aryn::aryn_core::{ArynError, Document, Result, Value};
use aryn::aryn_docgen::stream::extracted_document;
use aryn::aryn_docgen::{Corpus, DocStream};
use aryn::aryn_index::{
    DocStore, FlatIndex, Predicate, ShardedHnsw, ShardedKeywordIndex, StoreConfig, VectorIndex, WalConfig,
};
use aryn::aryn_llm::prompt::tasks;
use aryn::aryn_llm::{
    CacheKey, EmbeddingModel, LanguageModel, LlmCallCache, LlmClient, LlmRequest, MockLlm, SimConfig, Usage, GPT4_SIM,
};
use aryn::aryn_partitioner::{Detector, Partitioner};
use aryn::aryn_telemetry::Telemetry;
use aryn::luna::{ntsb_schema, Luna, LunaConfig, QueryService, ServeConfig, TenantSpec};
use aryn::sycamore::{Context, ExecConfig, IngestConfig, Ingestor};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Documents per index behind the Luna and store-read sections.
const INDEX_DOCS: usize = 400;
/// Raw documents partitioned / extracted per pass (half NTSB, half earnings).
const PAGES: usize = 20;
const FILTER_DOCS: usize = 150;
const INGEST_DOCS: usize = 50;
const PUT_DOCS: usize = 300;
const WAL_DOCS: usize = 64;
const SIDECAR_DOCS: usize = 200;
const CLIENT_CALLS: usize = 200;
const CACHE_HITS: usize = 1_000;
const FSYNCS: usize = 16;
const SEARCHES: usize = 20;
const HELD_KSPANS: usize = 2;
const DRIFT_ROUNDS: usize = 12;

const QUESTIONS: &[&str] = &[
    "How many incidents involved fatalities?",
    "What was the average fatal injuries per incident?",
    "Which state had the most incidents?",
    "How many companies lowered their guidance?",
    "What was the total revenue of companies in the software sector?",
    "Which sector had the most companies?",
];
const COUNT_QUESTION: &str = "How many incidents occurred in Texas?";
const TENANT: &str = "bench";

pub struct Suite {
    seed: u64,
    dir: PathBuf,
    pass: usize,
    pages: Corpus,
    parted: Vec<Document>,
    /// Extracted NTSB then earnings documents, `INDEX_DOCS` of each.
    docs: Vec<Document>,
    texts: Vec<String>,
    vectors: Vec<Vec<f32>>,
    prompts: Vec<String>,
    ctx: Context,
    luna: Luna,
    service: QueryService,
    mock: Arc<MockLlm>,
    traced_client: LlmClient,
    filter_client: LlmClient,
    zero_client: LlmClient,
    cache: LlmCallCache,
    held: Telemetry,
    count_filter: Predicate,
}

fn dir_bytes(dir: &Path) -> Result<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir).map_err(|e| io_err(dir, e))? {
        let entry = entry.map_err(|e| io_err(dir, e))?;
        total += entry.metadata().map_err(|e| io_err(dir, e))?.len();
    }
    Ok(total)
}

/// A yardstick sample between sections, so every span has a neighbour to
/// be speed-corrected by.
fn tick() {
    trace::note_yardstick(yardstick());
}

impl Suite {
    pub fn setup(seed: u64, size: Size, out: &Path) -> Result<Suite> {
        let n = size.of(INDEX_DOCS);
        let ntsb = Corpus::ntsb(seed, n);
        let earnings = Corpus::earnings(seed, n);
        let pages = Corpus::mixed(seed ^ 0x5EED, PAGES / 2, PAGES / 2);
        let partitioner = Partitioner::with_detector(Detector::DetrSim);
        let parted: Vec<Document> =
            pages.docs.iter().take(PAGES / 2).map(|d| partitioner.partition(&d.id, &d.raw)).collect();
        let docs: Vec<Document> = ntsb.docs.iter().chain(&earnings.docs).map(extracted_document).collect();
        let embedder = default_embedder();
        let texts: Vec<String> = docs.iter().take(size.of(SIDECAR_DOCS)).map(Document::full_text).collect();
        let vectors: Vec<Vec<f32>> = texts.iter().map(|t| embedder.embed(t)).collect();
        let prompts: Vec<String> = parted.iter().map(|d| tasks::extract(&ntsb_schema(), &d.full_text())).collect();
        let ctx = traced_context();
        ctx.put_store("ntsb", docs[..n].iter().cloned().collect());
        ctx.put_store("earnings", docs[n..].iter().cloned().collect());
        let luna = Luna::new(ctx.clone(), &["ntsb", "earnings"], LunaConfig::default())?;
        let service = QueryService::new(
            ctx.clone(),
            &["ntsb", "earnings"],
            ServeConfig { tenants: vec![TenantSpec::new(TENANT, 1.0)], ..ServeConfig::default() },
        )?;
        let mock = Arc::new(MockLlm::new(&GPT4_SIM, SimConfig::with_seed(seed)));
        let model: Arc<dyn LanguageModel> = mock.clone();
        let cache = LlmCallCache::with_capacity(64);
        cache.insert(CacheKey::for_call("zero-cost", "warm", 64, 0.0), "{\"answer\": true}".into(), Usage::default());
        let held = Telemetry::new("held");
        for i in 0..HELD_KSPANS * 1_000 {
            let mut s = held.span(format!("stage-{}", i % 7), "stage");
            s.set("rows_in", i as u64).set("rows_out", i as u64).gauge("wall_ms", 0.25);
            s.finish();
        }
        let dir = out.join(format!("suite-{}", std::process::id()));
        if dir.exists() {
            std::fs::remove_dir_all(&dir).map_err(|e| io_err(&dir, e))?;
        }
        std::fs::create_dir_all(&dir).map_err(|e| io_err(&dir, e))?;
        let suite = Suite {
            seed,
            dir,
            pass: 0,
            pages,
            parted,
            docs,
            texts,
            vectors,
            prompts,
            ctx,
            luna,
            service,
            mock,
            traced_client: LlmClient::new(Arc::new(TracedModel(Arc::clone(&model)))),
            filter_client: LlmClient::new(model),
            zero_client: LlmClient::new(Arc::new(ZeroCostModel)),
            cache,
            held,
            count_filter: Predicate::Eq("us_state_abbrev".into(), Value::from("TX")),
        };
        suite.session_drift(size)?;
        Ok(suite)
    }

    /// `luna.session_drift_ratio`: how much slower the twelfth round of
    /// questions is than the first when nobody drains the session's
    /// telemetry. Once per run, on its own small context.
    fn session_drift(&self, size: Size) -> Result<()> {
        let n = size.of(INDEX_DOCS) / 2;
        let ctx = Context::new();
        ctx.put_store("ntsb", self.docs[..n].iter().cloned().collect());
        let half = self.docs.len() / 2;
        ctx.put_store("earnings", self.docs[half..half + n].iter().cloned().collect());
        let luna = Luna::new(ctx, &["ntsb", "earnings"], LunaConfig::default())?;
        let mut round_ms = Vec::with_capacity(DRIFT_ROUNDS);
        for _ in 0..DRIFT_ROUNDS {
            let y0 = yardstick();
            let started = std::time::Instant::now();
            for q in QUESTIONS {
                luna.ask(q)?;
            }
            let raw = started.elapsed().as_secs_f64() * 1e3;
            round_ms.push(crate::yardstick::correct(raw, 0.0, &[y0, yardstick()]));
        }
        trace::value("luna.session_drift_ratio", round_ms[DRIFT_ROUNDS - 1] / round_ms[0]);
        Ok(())
    }

    /// One pass over every section.
    pub fn pass(&mut self) -> Result<()> {
        self.pass += 1;
        trace::set_op(None);
        tick();
        self.docgen_and_partitioner();
        tick();
        self.sycamore()?;
        tick();
        self.llm()?;
        tick();
        self.durable_store()?;
        tick();
        self.store_reads()?;
        tick();
        self.sidecars()?;
        tick();
        self.luna()?;
        tick();
        Ok(())
    }

    fn docgen_and_partitioner(&self) {
        let seed = self.seed.wrapping_add(self.pass as u64);
        let n = PAGES as u64;
        std::hint::black_box(in_span("docgen.corpus", n, || Corpus::mixed(seed, PAGES / 2, PAGES / 2)));
        let mut stream = DocStream::ntsb(seed, PAGES, 5.0);
        while let Some(arrival) = in_span("docgen.next_arrival", 1, || stream.next_arrival()) {
            std::hint::black_box(arrival);
        }
        let partitioner = Partitioner::with_detector(Detector::DetrSim);
        for d in &self.pages.docs {
            let mut span = trace::span("partitioner.partition");
            let out = partitioner.partition(&d.id, &d.raw);
            span.items(out.elements.len() as u64);
        }
    }

    fn sycamore(&self) -> Result<()> {
        let all = self.docs.clone();
        let n = all.len() as u64;
        let out = in_span("sycamore.noop_map", n, || self.ctx.read_docs(all).map("noop", |d| d).collect())?;
        std::hint::black_box(out);
        let parted = self.parted.clone();
        let n = parted.len() as u64;
        let out = in_span("sycamore.extract_stage", n, || {
            self.ctx.read_docs(parted).extract_properties(&self.traced_client, ntsb_schema()).collect()
        })?;
        std::hint::black_box(out);
        tick();
        // Worker scaling of a per-document LLM stage: same documents, same
        // client, 1 worker then 2. Informational on a 2-vCPU box.
        for (name, threads) in [("sycamore.llm_filter_1w", 1), ("sycamore.llm_filter_2w", 2)] {
            let ctx = self.ctx.with_exec(ExecConfig { threads, ..ExecConfig::default() });
            let docs: Vec<Document> = self.docs[..FILTER_DOCS.min(self.docs.len())].to_vec();
            let n = docs.len() as u64;
            let kept =
                in_span(name, n, || ctx.read_docs(docs).llm_filter(&self.filter_client, "caused by wind").collect())?;
            std::hint::black_box(kept);
        }
        tick();
        let ctx = Context::with_embedder(self.ctx.embedder());
        let mut ingestor = Ingestor::new(&ctx, "stream", IngestConfig::default());
        for (i, d) in self.docs.iter().take(INGEST_DOCS).enumerate() {
            let doc = d.clone();
            in_span("sycamore.ingest_at", 1, || ingestor.ingest_at(doc, i as f64 * 5.0))?;
        }
        Ok(())
    }

    fn llm(&self) -> Result<()> {
        for p in &self.prompts {
            let req = LlmRequest::new(p.as_str()).with_max_tokens(256);
            // A simulated transient failure is still a timed model call.
            let _ = in_span("llm.model", 1, || self.mock.generate(&req));
        }
        let n = CLIENT_CALLS as u64;
        in_span("llm.client_json", n, || {
            for p in self.prompts.iter().cycle().take(CLIENT_CALLS) {
                std::hint::black_box(self.zero_client.generate_json(p, 64)).ok();
            }
        });
        let key = CacheKey::for_call("zero-cost", "warm", 64, 0.0);
        in_span("llm.cache_hit", CACHE_HITS as u64, || -> Result<()> {
            for _ in 0..CACHE_HITS {
                let hit = self.cache.get_or_compute(key, || Err(ArynError::Llm("cold".into())))?;
                std::hint::black_box(hit);
            }
            Ok(())
        })?;
        let batch: Vec<String> = self.prompts.iter().cycle().take(CLIENT_CALLS).cloned().collect();
        let out = in_span("llm.batch_pack", n, || self.zero_client.generate_json_batch(&batch, 64));
        std::hint::black_box(out);
        let embedder = self.ctx.embedder();
        for t in self.texts.iter().take(PAGES) {
            // The context's embedder records the `llm.embed` span itself.
            std::hint::black_box(embedder.embed(t));
        }
        Ok(())
    }

    /// WAL appends, seal, compaction and the two kinds of reopen, on the
    /// real filesystem with fsync on.
    fn durable_store(&self) -> Result<()> {
        let fs: Arc<dyn Vfs> = Arc::new(StdFs);
        let scratch = self.dir.join("fsync.bin");
        let record = vec![b'x'; 6 * 1024];
        for _ in 0..FSYNCS {
            in_span("core.vfs_append", 1, || fs.append(&scratch, &record))?;
            in_span("core.vfs_sync", 1, || fs.sync(&scratch))?;
        }
        std::fs::remove_file(&scratch).map_err(|e| io_err(&scratch, e))?;
        tick();

        let dir = self.dir.join(format!("store-{}", self.pass));
        let config = StoreConfig { seal_threshold: 0, compact_fanout: 0 };
        let mut store = DocStore::open_with(&dir, Arc::clone(&fs), config, WalConfig::default())?;
        let mut docs = self.docs.iter().cycle().cloned();
        let mut put = |store: &mut DocStore, n: usize| -> Result<()> {
            let batch: Vec<Document> = docs.by_ref().take(n).collect();
            in_span("index.wal_put", n as u64, || batch.into_iter().try_for_each(|d| store.try_put(d)))
        };
        put(&mut store, WAL_DOCS)?;
        trace::value("index.wal_bytes_per_doc", dir_bytes(&dir)? as f64 / WAL_DOCS as f64);
        in_span("index.seal", WAL_DOCS as u64, || store.try_seal())?;
        trace::value("index.disk_bytes_per_doc", dir_bytes(&dir)? as f64 / WAL_DOCS as f64);
        put(&mut store, WAL_DOCS)?;
        store.try_seal()?;
        in_span("index.compact", 2 * WAL_DOCS as u64, || store.try_compact())?;
        put(&mut store, WAL_DOCS / 2)?;
        drop(store);
        let reopened = in_span("index.reopen", 1, || DocStore::open(&dir, Arc::clone(&fs)))?;
        if reopened.len() != (2 * WAL_DOCS + WAL_DOCS / 2).min(self.docs.len()) {
            return Err(ArynError::Other(format!("suite: reopened store holds {} documents", reopened.len())));
        }
        drop(reopened);
        std::fs::remove_dir_all(&dir).map_err(|e| io_err(&dir, e))?;
        tick();

        let dir = self.dir.join(format!("wal-{}", self.pass));
        let mut store = DocStore::open_with(&dir, Arc::clone(&fs), config, WalConfig { fsync: false })?;
        for d in self.docs.iter().take(WAL_DOCS) {
            store.try_put(d.clone())?;
        }
        drop(store);
        let replayed = in_span("index.replay", WAL_DOCS as u64, || DocStore::open(&dir, fs))?;
        if replayed.stats().wal_replayed != WAL_DOCS {
            return Err(ArynError::Other(format!("suite: replayed {} WAL records", replayed.stats().wal_replayed)));
        }
        drop(replayed);
        std::fs::remove_dir_all(&dir).map_err(|e| io_err(&dir, e))
    }

    fn store_reads(&self) -> Result<()> {
        let batch: Vec<Document> = self.docs.iter().take(PUT_DOCS).cloned().collect();
        let n = batch.len() as u64;
        let mut store = DocStore::new();
        in_span("index.put", n, || batch.into_iter().try_for_each(|d| store.try_put(d)))?;
        let mut snap = self.ctx.snapshot_store("ntsb")?;
        for _ in 0..SEARCHES {
            snap = in_span("index.snapshot_pin", 1, || self.ctx.snapshot_store("ntsb"))?;
        }
        let n = snap.len() as u64;
        for _ in 0..3 {
            std::hint::black_box(in_span("index.scan", n, || snap.scan().filter(|d| !d.elements.is_empty()).count()));
            std::hint::black_box(in_span("index.filter", n, || snap.filter(&self.count_filter).len()));
            std::hint::black_box(in_span("index.facet", n, || snap.facet("cause_category")));
        }
        Ok(())
    }

    fn sidecars(&self) -> Result<()> {
        let n = self.texts.len() as u64;
        let mut keyword = ShardedKeywordIndex::new(256);
        in_span("index.keyword_add", n, || {
            for (d, t) in self.docs.iter().zip(&self.texts) {
                keyword.add(d.id.0.clone(), t);
            }
        });
        for _ in 0..SEARCHES {
            std::hint::black_box(in_span("index.keyword_search", 1, || {
                keyword.search("engine failure on approach", 10)
            }));
        }
        let dims = self.ctx.embedder().dims();
        let mut hnsw = ShardedHnsw::new(dims, 256);
        let vectors = self.vectors.clone();
        in_span("index.vector_add", n, || {
            self.docs.iter().zip(vectors).try_for_each(|(d, v)| hnsw.add(d.id.as_str(), v))
        })?;
        let mut flat = FlatIndex::new(dims);
        for (d, v) in self.docs.iter().zip(&self.vectors) {
            flat.add(d.id.as_str(), v.clone())?;
        }
        let (mut found, mut wanted) = (0usize, 0usize);
        for q in self.vectors.iter().rev().take(SEARCHES) {
            let got = in_span("index.vector_search", 1, || hnsw.search(q, 10))?;
            let exact = flat.search(q, 10)?;
            wanted += exact.len();
            found += exact.iter().filter(|e| got.iter().any(|g| g.key == e.key)).count();
        }
        trace::value("index.vector_recall_at_10", found as f64 / wanted.max(1) as f64);
        Ok(())
    }

    fn luna(&self) -> Result<()> {
        let opened = in_span("luna.session_open", 1, || {
            Luna::new(self.ctx.clone(), &["ntsb", "earnings"], LunaConfig::default())
        })?;
        drop(opened);
        let scanned = self.docs.len() as u64 / 2;
        for q in QUESTIONS {
            let plan = in_span("luna.plan", 1, || self.luna.plan(q))?;
            let optimized = in_span("luna.optimize", 1, || self.luna.optimize(&plan))?;
            std::hint::black_box(in_span("luna.execute", scanned, || self.luna.execute(&optimized.plan))?);
        }
        tick();
        let answer = self.luna.ask(COUNT_QUESTION)?;
        std::hint::black_box(in_span("luna.explain", 1, || answer.explain_analyze()));
        let snap = self.ctx.snapshot_store("ntsb")?;
        for _ in 0..3 {
            std::hint::black_box(in_span("luna.execute_count", scanned, || self.luna.execute(&answer.optimized_plan))?);
            std::hint::black_box(in_span("index.filter_count", scanned, || snap.filter(&self.count_filter).len()));
        }
        for q in QUESTIONS.iter().take(3) {
            std::hint::black_box(in_span("luna.serve_submit", 1, || self.service.submit(TENANT, q))?);
            std::hint::black_box(in_span("luna.ask", 1, || self.luna.ask(q))?);
        }
        std::hint::black_box(in_span("telemetry.snapshot", HELD_KSPANS as u64, || self.held.snapshot()));
        // What an exporter would do: the suite's sessions must not drift.
        self.ctx.telemetry().take();
        Ok(())
    }
}

impl Drop for Suite {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}
