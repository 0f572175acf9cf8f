//! `etl_pages`: raw pages → document store, keyword index, vector index.
//! One op is a 40-document batch (20 NTSB reports and 20 earnings reports,
//! so every op is the same class of work) through
//! `read_lake → partition → extract_properties → write_store`,
//! `explode → write_keyword` and document-level `embed → write_vector`.

use super::{fnv1a, LlmUsage, Size, Verdict, Workload};
use crate::harness::SetupClock;
use crate::trace;
use crate::wrappers::{traced_context, TracedModel};
use aryn::aryn_core::{Document, Result, Value};
use aryn::aryn_docgen::Corpus;
use aryn::aryn_index::DocStore;
use aryn::aryn_llm::{LanguageModel, LlmClient, MockLlm, SimConfig, GPT4_SIM};
use aryn::aryn_partitioner::{Partitioner, PartitionerOptions};
use aryn::luna::{earnings_schema, ntsb_schema};
use aryn::sycamore::{Context, PartitionCfg};
use std::sync::Arc;

const OPS_PER_ROUND: usize = 25;
/// Documents of each domain per op.
const DOCS_PER_DOMAIN: usize = 20;

const DOMAINS: [&str; 2] = ["ntsb", "earnings"];

pub struct EtlPages {
    /// Per op: the NTSB and the earnings half of the batch.
    batches: Vec<[Corpus; 2]>,
    schemas: [Value; 2],
    client: LlmClient,
    /// The same model behind a span-recording wrapper, for traced rounds.
    traced_client: LlmClient,
    ctx: Context,
    /// Chunks (exploded elements) written to each keyword index so far
    /// this round, as the oracle counts them.
    chunks_expected: [usize; 2],
}

fn loose_eq(a: &Value, b: &Value) -> bool {
    match (a.as_float(), b.as_float()) {
        (Some(x), Some(y)) => (x - y).abs() <= 1e-9 * y.abs().max(1.0),
        _ => match (a.as_str(), b.as_str()) {
            (Some(x), Some(y)) => x.trim().eq_ignore_ascii_case(y.trim()),
            _ => a == b,
        },
    }
}

impl EtlPages {
    pub fn setup(seed: u64, size: Size, clock: &mut SetupClock) -> Result<EtlPages> {
        let ops = size.of(OPS_PER_ROUND);
        let n = ops * DOCS_PER_DOMAIN;
        let (ntsb, earnings) = clock.phase(|| (Corpus::ntsb(seed, n), Corpus::earnings(seed, n)));
        let batches = clock.phase(|| {
            (0..ops)
                .map(|b| {
                    let at = b * DOCS_PER_DOMAIN..(b + 1) * DOCS_PER_DOMAIN;
                    [Corpus { docs: ntsb.docs[at.clone()].to_vec() }, Corpus { docs: earnings.docs[at].to_vec() }]
                })
                .collect()
        });
        let model: Arc<dyn LanguageModel> = Arc::new(MockLlm::new(&GPT4_SIM, SimConfig::with_seed(seed)));
        Ok(EtlPages {
            batches,
            schemas: [ntsb_schema(), earnings_schema()],
            client: LlmClient::new(Arc::clone(&model)),
            traced_client: LlmClient::new(Arc::new(TracedModel(model))),
            ctx: Context::new(),
            chunks_expected: [0, 0],
        })
    }

    fn lake(domain: &str, op: usize) -> String {
        format!("{domain}-{op:02}")
    }

    fn run_plain(&self, op: usize) -> Result<()> {
        for (i, domain) in DOMAINS.iter().enumerate() {
            let lake = Self::lake(domain, op);
            self.ctx.register_corpus(&lake, &self.batches[op][i]);
            self.ctx
                .read_lake(&lake)?
                .partition(&lake, PartitionCfg::default())
                .extract_properties(&self.client, self.schemas[i].clone())
                .write_store(&lake)?;
            self.ctx.read_store(&lake)?.explode().write_keyword(domain)?;
            self.ctx.read_store(&lake)?.embed().write_vector(domain)?;
        }
        Ok(())
    }

    /// The same batch as its per-stage calls, a span around each. The
    /// partitioner is called directly (as the `partition` transform does,
    /// document by document, carrying the `lake` property over); the
    /// stages hand documents on through `read_docs`, which costs one extra
    /// clone per hand-over — that is the tracing overhead reported as
    /// `bench.trace_overhead_share`.
    fn run_traced(&self, op: usize) -> Result<()> {
        for (i, domain) in DOMAINS.iter().enumerate() {
            let lake = Self::lake(domain, op);
            let corpus = &self.batches[op][i];
            let n = corpus.docs.len() as u64;
            self.ctx.register_corpus(&lake, corpus);
            let cfg = PartitionCfg::default();
            let partitioner = Partitioner::new(PartitionerOptions {
                detector: cfg.detector,
                extract_tables: true,
                merge_tables: cfg.merge_tables,
                use_ocr: cfg.use_ocr,
                summarize_images: None,
                seed: cfg.seed,
                telemetry: self.ctx.telemetry(),
            });
            let mut sorted: Vec<_> = corpus.docs.iter().collect();
            sorted.sort_by(|a, b| a.id.cmp(&b.id));
            let parted: Vec<Document> = sorted
                .iter()
                .map(|d| {
                    let mut span = trace::span("partitioner.partition");
                    let mut out = partitioner.partition(&d.id, &d.raw);
                    span.items(out.elements.len() as u64);
                    out.set_prop("lake", lake.as_str());
                    out
                })
                .collect();
            let extracted = trace::in_span("sycamore.extract_stage", n, || {
                self.ctx.read_docs(parted).extract_properties(&self.traced_client, self.schemas[i].clone()).collect()
            })?;
            trace::in_span("index.store_write", n, || {
                self.ctx.put_store(&lake, extracted.into_iter().collect::<DocStore>());
            });
            let chunks =
                trace::in_span("sycamore.explode_stage", n, || self.ctx.read_store(&lake)?.explode().collect())?;
            trace::in_span("index.keyword_write", chunks.len() as u64, || {
                self.ctx.read_docs(chunks).write_keyword(domain)
            })?;
            let embedded = trace::in_span("sycamore.embed_stage", n, || self.ctx.read_store(&lake)?.embed().collect())?;
            trace::in_span("index.vector_write", n, || self.ctx.read_docs(embedded).write_vector(domain))?;
        }
        Ok(())
    }
}

impl Workload for EtlPages {
    fn ops_per_round(&self) -> usize {
        self.batches.len()
    }

    fn begin_round(&mut self) -> Result<()> {
        // A fresh context per round: empty lake, stores and indexes.
        self.ctx = traced_context();
        self.chunks_expected = [0, 0];
        Ok(())
    }

    fn run_op(&mut self, op: usize, traced: bool) -> Result<()> {
        if traced {
            self.run_traced(op)
        } else {
            self.run_plain(op)
        }
    }

    /// Oracle: every schema field of every document in the batch against
    /// the record the document was rendered from, and the index sizes
    /// against the documents and elements written so far.
    fn check_op(&mut self, op: usize) -> Verdict {
        let mut v = Verdict { matched: 0, checked: 0, fingerprint: 0, why: None };
        for (i, domain) in DOMAINS.iter().enumerate() {
            let lake = Self::lake(domain, op);
            let corpus = &self.batches[op][i];
            let fields: Vec<&String> = self.schemas[i].as_object().map(|o| o.keys().collect()).unwrap_or_default();
            let _ = self.ctx.with_store(&lake, |store| {
                for d in &corpus.docs {
                    let got = store.get(&d.id);
                    self.chunks_expected[i] += got.map_or(0, |g| g.elements.len());
                    for field in &fields {
                        v.checked += 1;
                        let have = got.and_then(|g| g.prop(field));
                        let want = d.record.get(field);
                        if let (Some(h), Some(w)) = (have, want) {
                            v.matched += u64::from(loose_eq(h, w));
                        }
                        let text = have.map(Value::to_string).unwrap_or_default();
                        v.fingerprint = fnv1a(v.fingerprint, text.as_bytes());
                    }
                }
            });
            let docs_so_far = (op + 1) * corpus.docs.len();
            let keyword = self.ctx.with_keyword(domain, |k| k.len()).unwrap_or(0);
            let vector = self.ctx.with_vector(domain, |x| x.len()).unwrap_or(0);
            v.checked += 2;
            v.matched += u64::from(keyword == self.chunks_expected[i]) + u64::from(vector == docs_so_far);
            if keyword != self.chunks_expected[i] || vector != docs_so_far {
                v.why = Some(format!(
                    "{domain}: keyword index holds {keyword} chunks (want {}), vector index {vector} documents (want {docs_so_far})",
                    self.chunks_expected[i]
                ));
            }
            v.fingerprint = fnv1a(v.fingerprint, format!("{keyword}/{vector}").as_bytes());
        }
        v
    }

    /// The simulated detector and extraction model err on purpose (the
    /// paper's partitioner is not perfect either): about 2.5 % of fields
    /// come out wrong. Well below that, something broke.
    fn accuracy_floor(&self) -> f64 {
        0.95
    }

    fn llm_usage(&self) -> LlmUsage {
        let mut total = LlmUsage::default();
        for s in [self.client.stats(), self.traced_client.stats()] {
            total.calls += s.calls;
            total.tokens += (s.usage.input_tokens + s.usage.output_tokens) as u64;
            total.usd += s.usage.cost_usd;
        }
        total
    }

    fn telemetry_spans(&self) -> usize {
        self.ctx.telemetry().span_count()
    }
}
