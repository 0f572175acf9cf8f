//! `stream_durable`: the index layer used for writes beside reads. A round
//! opens a durable store (real filesystem, WAL fsync on) in an empty
//! directory and streams documents into it through an `Ingestor`; an op is
//! one tick of 100 arrivals followed by a read probe against the growing
//! LSM; the round ends by dropping everything and reopening the store.
//!
//! The probe is 16 × (snapshot pin, filter, facet, keyword search, vector
//! search), each of the 16 with its own constants, so that reads are about
//! a tenth of a round: one of each would be 0.5 % and a read regression
//! could never show beside the writes.

use super::{fnv1a, LlmUsage, Size, Verdict, Workload};
use crate::harness::SetupClock;
use crate::trace;
use crate::wrappers::{default_embedder, io_err, traced_context, TracedFs};
use aryn::aryn_core::vfs::{StdFs, Vfs};
use aryn::aryn_core::{ArynError, Document, Result, Value};
use aryn::aryn_docgen::DocStream;
use aryn::aryn_index::{DocStore, FlatIndex, KeywordIndex, Predicate, StoreConfig, VectorIndex, WalConfig};
use aryn::aryn_llm::EmbeddingModel;
use aryn::sycamore::{Context, IngestConfig, Ingestor};
use std::collections::{BTreeMap, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Arrivals per op.
const TICK: usize = 100;
/// Ticks per round. At `IngestConfig` defaults (seal every 256 documents,
/// compact at 4 segments) 1 100 documents see four seals and, in the last
/// tick, one compaction: 1 op in 11 is a compaction op, so `op_p95_ms`
/// sits inside that cluster and `op_p50_ms` inside the plain one.
const TICKS: usize = 11;

const STORE: &str = "stream";
/// Reads of each kind per probe.
const PROBES: usize = 16;
const TOP_K: usize = 10;
const FACETS: [&str; 4] = ["cause_category", "us_state_abbrev", "year", "aircraft_model"];
const KEYWORD_QUERIES: [&str; PROBES] = [
    "engine failure during the landing approach",
    "wind gusts on final",
    "fog obscured the runway",
    "fuel contamination in the tank",
    "landing gear collapsed after touchdown",
    "loss of control during takeoff",
    "icing conditions at altitude",
    "bird strike on climb",
    "pilot reported a loss of engine power",
    "thunderstorm near the airport",
    "improper flare and a hard landing",
    "spatial disorientation at night",
    "propeller damage found on inspection",
    "runway incursion by a vehicle",
    "wire strike during low flight",
    "inadequate preflight inspection",
];
/// Mean recall@10 of the approximate vector searches against exact search
/// below which the probe counts as wrong. The sharded HNSW is built for
/// ≥ 0.95 on average; the suite reports the exact figure.
const RECALL_FLOOR: f64 = 0.9;

/// What one probe returned (or, from the oracle, must return): per read
/// kind, one entry per probe constant.
#[derive(Default, PartialEq, Debug)]
struct Reads {
    filter_hits: Vec<usize>,
    facets: Vec<Vec<(String, usize)>>,
    keyword: Vec<Vec<String>>,
    vector: Vec<Vec<String>>,
}

/// The probe of the op that just ran.
#[derive(Default)]
struct Probe {
    acked: usize,
    snapshot_len: usize,
    reads: Reads,
}

pub struct StreamDurable {
    docs: Vec<(Document, f64)>,
    /// Per tick, what the probe must return: computed once from the
    /// documents acked up to that tick.
    expect: Vec<Reads>,
    filters: Vec<Predicate>,
    query_vecs: Vec<Vec<f32>>,
    scratch: PathBuf,
    round: usize,
    dir: PathBuf,
    /// This round's arrivals, cloned outside the timed region.
    pending: VecDeque<(Document, f64)>,
    ctx: Option<Context>,
    ingestor: Option<Ingestor>,
    acked: Vec<String>,
    last: Probe,
    /// Nanoseconds spent inside filesystem calls, across rounds.
    blocked_ns: Arc<AtomicU64>,
}

fn facet_list(facets: Vec<(Value, usize)>) -> Vec<(String, usize)> {
    let mut v: Vec<(String, usize)> = facets.into_iter().map(|(k, n)| (k.to_string(), n)).collect();
    v.sort();
    v
}

impl StreamDurable {
    pub fn setup(seed: u64, size: Size, scratch: &Path, clock: &mut SetupClock) -> Result<StreamDurable> {
        let ticks = size.of(TICKS).max(2);
        let docs: Vec<(Document, f64)> = clock.phase(|| {
            let mut stream = DocStream::ntsb(seed, ticks * TICK, 5.0);
            std::iter::from_fn(|| stream.next_arrival()).collect()
        });
        // Vector queries are the texts of 16 documents of the first tick
        // (acked from then on): each has itself and its near-duplicates as
        // clear nearest neighbours. Free-text queries sit about equally far
        // from every report, which makes "the ten nearest" a coin toss and
        // recall against exact search meaningless.
        let embedder = default_embedder();
        let query_vecs = (0..PROBES).map(|i| embedder.embed(&docs[i * TICK / PROBES].0.full_text())).collect();
        // One filter per probe: the 16 most common states (cycled if the
        // corpus has fewer).
        let mut counts: BTreeMap<String, usize> = BTreeMap::new();
        for (d, _) in &docs {
            if let Some(s) = d.prop("us_state_abbrev").and_then(Value::as_str) {
                *counts.entry(s.to_string()).or_default() += 1;
            }
        }
        let mut states: Vec<(String, usize)> = counts.into_iter().collect();
        states.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        let filters = (0..PROBES)
            .map(|i| {
                let state = states.get(i % states.len().max(1)).map_or("", |s| s.0.as_str());
                Predicate::Eq("us_state_abbrev".into(), Value::from(state))
            })
            .collect();
        Ok(StreamDurable {
            docs,
            expect: Vec::new(),
            filters,
            query_vecs,
            scratch: scratch.to_path_buf(),
            round: 0,
            dir: PathBuf::new(),
            pending: VecDeque::new(),
            ctx: None,
            ingestor: None,
            acked: Vec::new(),
            last: Probe::default(),
            blocked_ns: Arc::new(AtomicU64::new(0)),
        })
    }

    /// The oracle: a monolithic BM25 index and an exact vector index grown
    /// alongside the acked prefix, plus plain counting. Built once, before
    /// the first round (not per set-up: it is the benchmark's work, not the
    /// system's).
    fn build_oracle(&mut self) -> Result<()> {
        let embedder = default_embedder();
        let mut keyword = KeywordIndex::new();
        let mut flat = FlatIndex::new(embedder.dims());
        let mut facets: Vec<BTreeMap<String, usize>> = vec![BTreeMap::new(); FACETS.len()];
        let mut filter_hits = vec![0usize; PROBES];
        for tick in self.docs.chunks(TICK) {
            for (d, _) in tick {
                let text = d.full_text();
                keyword.add(d.id.0.clone(), &text);
                flat.add(d.id.as_str(), embedder.embed(&text))?;
                for (hits, f) in filter_hits.iter_mut().zip(&self.filters) {
                    *hits += usize::from(f.matches(d));
                }
                for (counts, field) in facets.iter_mut().zip(FACETS) {
                    if let Some(v) = d.prop(field).filter(|v| !matches!(v, Value::Null)) {
                        *counts.entry(v.to_string()).or_default() += 1;
                    }
                }
            }
            let mut reads = Reads { filter_hits: filter_hits.clone(), ..Reads::default() };
            for i in 0..PROBES {
                let counts = &facets[i % FACETS.len()];
                reads.facets.push(counts.iter().map(|(k, n)| (k.clone(), *n)).collect());
                reads.keyword.push(keyword.search(KEYWORD_QUERIES[i], TOP_K).into_iter().map(|h| h.key).collect());
                reads.vector.push(flat.search(&self.query_vecs[i], TOP_K)?.into_iter().map(|n| n.key).collect());
            }
            self.expect.push(reads);
        }
        Ok(())
    }

    /// The real filesystem behind the span-and-time recording wrapper.
    fn fs(&self) -> Arc<dyn Vfs> {
        Arc::new(TracedFs::new(Arc::new(StdFs), Arc::clone(&self.blocked_ns)))
    }

    fn ingestor(&mut self) -> Result<&mut Ingestor> {
        self.ingestor.as_mut().ok_or_else(|| ArynError::Other("round not begun".into()))
    }
}

impl Workload for StreamDurable {
    fn ops_per_round(&self) -> usize {
        self.docs.len() / TICK
    }

    fn begin_round(&mut self) -> Result<()> {
        if self.expect.is_empty() {
            self.build_oracle()?;
        }
        self.round += 1;
        self.dir = self.scratch.join(format!("stream-{}-{}", std::process::id(), self.round));
        if self.dir.exists() {
            std::fs::remove_dir_all(&self.dir).map_err(|e| io_err(&self.dir, e))?;
        }
        self.pending = self.docs.iter().cloned().collect();
        self.acked.clear();
        let ctx = traced_context();
        ctx.set_vfs(self.fs());
        self.ctx = Some(ctx);
        self.ingestor = None;
        Ok(())
    }

    fn run_op(&mut self, op: usize, _traced: bool) -> Result<()> {
        if op == 0 {
            // Opening the store and binding the stream is part of the
            // round's first op, as it is of a real feed's first tick.
            let cfg = IngestConfig::default();
            let ctx = self.ctx.as_ref().ok_or_else(|| ArynError::Other("round not begun".into()))?;
            let _span = trace::span("index.open_empty");
            ctx.open_store(
                STORE,
                &self.dir,
                StoreConfig { seal_threshold: cfg.seal_threshold, compact_fanout: cfg.compact_fanout },
                WalConfig::default(),
            )?;
            self.ingestor = Some(Ingestor::new(ctx, STORE, cfg));
        }
        for _ in 0..TICK {
            let Some((doc, at)) = self.pending.pop_front() else {
                break;
            };
            let id = doc.id.0.clone();
            let _span = trace::span("sycamore.ingest_at");
            self.ingestor()?.ingest_at(doc, at)?;
            self.acked.push(id);
        }
        let acked = self.acked.len();
        let ing = self.ingestor.as_ref().ok_or_else(|| ArynError::Other("round not begun".into()))?;
        let t = |name, units: usize| trace::span_of(name, units as u64);
        let mut reads = Reads::default();
        let mut snapshot_len = 0;
        for i in 0..PROBES {
            let snap = {
                let _s = t("index.snapshot_pin", 1);
                ing.snapshot()?
            };
            snapshot_len = snap.len();
            reads.filter_hits.push({
                let _s = t("index.filter", snap.len());
                snap.filter(&self.filters[i]).len()
            });
            let facets = {
                let _s = t("index.facet", snap.len());
                snap.facet(FACETS[i % FACETS.len()])
            };
            reads.facets.push(facet_list(facets));
            let hits = {
                let _s = t("index.keyword_search", 1);
                ing.keyword().search(KEYWORD_QUERIES[i], TOP_K)
            };
            reads.keyword.push(hits.into_iter().map(|h| h.key).collect());
            let near = {
                let _s = t("index.vector_search", 1);
                ing.vector().search(&self.query_vecs[i], TOP_K)?
            };
            reads.vector.push(near.into_iter().map(|n| n.key).collect());
        }
        self.last = Probe { acked, snapshot_len, reads };
        Ok(())
    }

    /// Five checks per tick: the snapshot holds every acked document, the
    /// filters and the facets agree with plain counting, keyword search with
    /// a monolithic BM25 index, vector search with exact search.
    fn check_op(&mut self, op: usize) -> Verdict {
        let (p, e) = (&self.last, &self.expect[op]);
        let (mut found, mut wanted) = (0usize, 0usize);
        for (got, exact) in p.reads.vector.iter().zip(&e.vector) {
            wanted += exact.len();
            found += exact.iter().filter(|k| got.contains(k)).count();
        }
        let checks = [
            ("snapshot length", p.snapshot_len == p.acked && p.acked == (op + 1) * TICK),
            ("filter counts", p.reads.filter_hits == e.filter_hits),
            ("facets", p.reads.facets == e.facets),
            ("keyword hits", p.reads.keyword == e.keyword),
            ("vector recall", p.reads.vector.len() == e.vector.len() && found as f64 >= RECALL_FLOOR * wanted as f64),
        ];
        let why = checks.iter().find(|c| !c.1).map(|c| {
            let first = |got: &[Vec<String>], want: &[Vec<String>]| {
                got.iter()
                    .zip(want)
                    .position(|(g, w)| g != w)
                    .map(|i| format!(": probe {i} got {:?}, want {:?}", got[i], want[i]))
            };
            let detail = match c.0 {
                "keyword hits" => first(&p.reads.keyword, &e.keyword),
                "vector recall" => Some(format!(": {found} of {wanted} exact neighbours found")),
                _ => None,
            };
            format!("{} disagree with the oracle{}", c.0, detail.unwrap_or_default())
        });
        let text = format!("{} {:?}", p.snapshot_len, p.reads);
        Verdict {
            matched: checks.iter().filter(|c| c.1).count() as u64,
            checked: checks.len() as u64,
            fingerprint: fnv1a(0, text.as_bytes()),
            why,
        }
    }

    /// Crash-free restart: drop the stream and the store, reopen from disk,
    /// read back every acked document.
    fn end_round(&mut self) -> Result<Option<Verdict>> {
        self.ingestor = None;
        self.ctx = None;
        let fs = self.fs();
        let store = {
            let _s = trace::span_of("index.reopen", self.acked.len() as u64);
            DocStore::open(&self.dir, fs)?
        };
        let readable = {
            let _s = trace::span_of("index.get", self.acked.len() as u64);
            self.acked.iter().filter(|id| store.get(id).is_some()).count()
        };
        let ok = readable == self.acked.len() && store.len() == self.acked.len();
        let why = (!ok).then(|| {
            format!(
                "after reopen {readable} of {} acked documents are readable, the store holds {}",
                self.acked.len(),
                store.len()
            )
        });
        Ok(Some(Verdict {
            matched: u64::from(ok),
            checked: 1,
            fingerprint: fnv1a(0, format!("{readable}/{}", store.len()).as_bytes()),
            why,
        }))
    }

    fn after_round(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }

    fn io_ms(&self) -> f64 {
        self.blocked_ns.load(Ordering::Relaxed) as f64 / 1e6
    }

    fn llm_usage(&self) -> LlmUsage {
        LlmUsage::default()
    }

    fn telemetry_spans(&self) -> usize {
        self.ctx.as_ref().map_or(0, |c| c.telemetry().span_count())
    }
}
