//! DocSets: "reliable distributed collections ... the elements are
//! hierarchical documents" (paper §3). A DocSet is a lazy plan over a source;
//! transforms build the plan, actions execute it. Execution is morsel-driven
//! (see [`crate::exec`] and DESIGN.md §5g): per-document transforms fuse into
//! segments run in parallel over small document morsels, while barrier ops
//! (sort, reduce, limit, summarize_all, materialize) synchronize the whole
//! collection. Parallelism never changes results — only wall time.

use crate::context::Context;
use crate::op::{Agg, ElementSelector, Op, PartitionCfg};
use crate::stats::ExecStats;
use aryn_core::{ArynError, Document, Result, Value};
use aryn_index::DocStore;
use aryn_llm::LlmClient;
use std::path::PathBuf;
use std::sync::Arc;

/// Where a DocSet's documents come from.
#[derive(Clone)]
pub enum Source {
    /// Raw documents of a lake (unpartitioned).
    Lake(String),
    /// A document store in the catalog.
    Store(String),
    /// Literal in-memory rows.
    Docs(Arc<[Arc<Document>]>),
    /// A named materialization.
    Materialized(String),
    /// A frozen MVCC view of a store (`name` is the store it was taken
    /// from): reads stay bit-stable while ingestion continues underneath.
    Snapshot {
        name: String,
        snap: Arc<aryn_index::StoreSnapshot>,
    },
}

/// A lazy, transformable collection of documents.
#[derive(Clone)]
pub struct DocSet {
    ctx: Context,
    source: Source,
    ops: Vec<Op>,
}

impl DocSet {
    pub(crate) fn new(ctx: Context, source: Source) -> DocSet {
        DocSet {
            ctx,
            source,
            ops: Vec::new(),
        }
    }

    pub fn context(&self) -> &Context {
        &self.ctx
    }

    /// The logical plan (op names), for inspection and tests.
    pub fn plan(&self) -> Vec<String> {
        self.ops.iter().map(Op::name).collect()
    }

    /// Lints the pipeline's operator ordering (see [`crate::lint`]):
    /// advisory diagnostics for stale embeddings, misplaced materializes,
    /// dead sorts, and ops after a terminal sink.
    pub fn check(&self) -> Vec<aryn_core::Diagnostic> {
        crate::lint::check_ops(&self.ops)
    }

    /// Statically estimates this pipeline's cost envelope ([`crate::cost`])
    /// for `input_docs` entering documents, under the context's execution
    /// settings and the reliability policy and call cache the op clients
    /// carry.
    pub fn estimate_cost(&self, input_docs: usize) -> crate::cost::PipelineCost {
        let knobs = crate::cost::CostKnobs::from_context(&self.ctx)
            .with_clients(self.ops.iter().filter_map(Op::client));
        crate::cost::estimate(&self.ops, input_docs, &knobs)
    }

    fn push(mut self, op: Op) -> DocSet {
        self.ops.push(op);
        self
    }

    /// Clones a client into an op, wrapping the model in the context's
    /// chaos schedule (each op gets a fresh fault clock). Fallback tiers
    /// inside the client keep their own wiring — chaos targets the endpoint
    /// the op talks to first.
    fn attach(&self, client: &LlmClient) -> LlmClient {
        match self.ctx.chaos() {
            Some(schedule) => client.clone().with_chaos(schedule),
            None => client.clone(),
        }
    }

    // --- core transforms ---------------------------------------------------

    /// Arbitrary per-document function.
    pub fn map(
        self,
        name: &str,
        f: impl Fn(Document) -> Document + Send + Sync + 'static,
    ) -> DocSet {
        self.push(Op::Map {
            name: name.to_string(),
            f: Arc::new(f),
        })
    }

    /// Keep documents matching the predicate.
    pub fn filter(
        self,
        name: &str,
        f: impl Fn(&Document) -> bool + Send + Sync + 'static,
    ) -> DocSet {
        self.push(Op::Filter {
            name: name.to_string(),
            f: Arc::new(f),
        })
    }

    /// 1→N per-document function.
    pub fn flat_map(
        self,
        name: &str,
        f: impl Fn(Document) -> Vec<Document> + Send + Sync + 'static,
    ) -> DocSet {
        self.push(Op::FlatMap {
            name: name.to_string(),
            f: Arc::new(f),
        })
    }

    // --- structural transforms ----------------------------------------------

    /// Run the Aryn Partitioner over the raw renderings of `lake`.
    pub fn partition(self, lake: &str, cfg: PartitionCfg) -> DocSet {
        self.push(Op::Partition {
            lake: lake.to_string(),
            cfg,
        })
    }

    /// Emit each element as its own chunk document.
    pub fn explode(self) -> DocSet {
        self.push(Op::Explode)
    }

    // --- analytic transforms --------------------------------------------------

    /// Group by a property and aggregate.
    pub fn reduce_by_key(self, key: &str, aggs: Vec<(String, Agg)>) -> DocSet {
        self.push(Op::ReduceByKey {
            key: key.to_string(),
            aggs,
        })
    }

    /// Sort by a property.
    pub fn sort_by(self, path: &str, descending: bool) -> DocSet {
        self.push(Op::SortBy {
            path: path.to_string(),
            descending,
        })
    }

    /// Keep the first `n` documents.
    pub fn limit(self, n: usize) -> DocSet {
        self.push(Op::Limit(n))
    }

    // --- LLM-powered transforms -----------------------------------------------

    /// Free-prompt per-document query (paper §5.2 `llm_query`).
    pub fn llm_query(self, client: &LlmClient, template: &str, output_path: &str) -> DocSet {
        self.llm_query_selected(client, template, output_path, ElementSelector::All)
    }

    pub fn llm_query_selected(
        self,
        client: &LlmClient,
        template: &str,
        output_path: &str,
        selector: ElementSelector,
    ) -> DocSet {
        let client = self.attach(client);
        self.push(Op::LlmQuery {
            client,
            template: template.to_string(),
            output_path: output_path.to_string(),
            selector,
        })
    }

    /// Schema-driven extraction (paper Figure 3): `schema` maps field name →
    /// type name ("string" | "int" | "float" | "bool").
    pub fn extract_properties(self, client: &LlmClient, schema: Value) -> DocSet {
        self.extract_properties_selected(client, schema, ElementSelector::All)
    }

    fn extract_properties_selected(
        self,
        client: &LlmClient,
        schema: Value,
        selector: ElementSelector,
    ) -> DocSet {
        let client = self.attach(client);
        self.push(Op::ExtractProperties {
            client,
            schema,
            selector,
        })
    }

    /// Semantic filter by natural-language predicate (Luna's `llmFilter`).
    pub fn llm_filter(self, client: &LlmClient, predicate: &str) -> DocSet {
        let client = self.attach(client);
        self.push(Op::LlmFilter {
            client,
            predicate: predicate.to_string(),
            selector: ElementSelector::All,
        })
    }

    /// Closed-set classification: picks one of `labels` per document and
    /// stores it under `output_path` (Table 1's LLM-powered class).
    pub fn llm_classify(
        self,
        client: &LlmClient,
        question: &str,
        labels: &[&str],
        output_path: &str,
    ) -> DocSet {
        let client = self.attach(client);
        self.push(Op::LlmClassify {
            client,
            question: question.to_string(),
            labels: labels.iter().map(|s| s.to_string()).collect(),
            output_path: output_path.to_string(),
            selector: ElementSelector::All,
        })
    }

    /// Per-document summary into `output_path`.
    pub fn summarize(self, client: &LlmClient, instructions: &str, output_path: &str) -> DocSet {
        let client = self.attach(client);
        self.push(Op::Summarize {
            client,
            instructions: instructions.to_string(),
            output_path: output_path.to_string(),
            selector: ElementSelector::All,
        })
    }

    /// Per-section summarization over the document's semantic tree: each
    /// titled section gets a one-sentence summary under
    /// `properties.section_summaries.<slug>`.
    pub fn summarize_sections(self, client: &LlmClient) -> DocSet {
        let client = self.attach(client);
        self.push(Op::SummarizeSections { client })
    }

    /// Collection-level hierarchical summarization into one document.
    pub fn summarize_all(self, client: &LlmClient, instructions: &str) -> DocSet {
        let client = self.attach(client);
        self.push(Op::SummarizeAll {
            client,
            instructions: instructions.to_string(),
        })
    }

    /// Attach embeddings using the context's embedding model.
    pub fn embed(self) -> DocSet {
        self.push(Op::Embed)
    }

    /// Cache the stream here under `name` (memory only).
    pub fn materialize(self, name: &str) -> DocSet {
        self.push(Op::Materialize {
            name: name.to_string(),
            dir: None,
        })
    }

    /// Cache the stream here and spill to `{dir}/{name}.docs`.
    pub fn materialize_to(self, name: &str, dir: PathBuf) -> DocSet {
        self.push(Op::Materialize {
            name: name.to_string(),
            dir: Some(dir),
        })
    }

    // --- actions -------------------------------------------------------------

    /// Executes the plan and returns the documents, owned: a row nothing
    /// else holds is unwrapped for free, one still shared with a store or a
    /// materialization is copied here.
    pub fn collect(&self) -> Result<Vec<Document>> {
        Ok(self.collect_stats()?.0)
    }

    /// Executes the plan, returning documents and per-stage statistics.
    pub fn collect_stats(&self) -> Result<(Vec<Document>, ExecStats)> {
        let (rows, stats) = self.collect_shared_stats()?;
        Ok((rows.into_iter().map(Arc::unwrap_or_clone).collect(), stats))
    }

    /// Executes the plan and returns the rows as the executor holds them:
    /// rows no transform wrote to are still the source's own documents.
    pub fn collect_shared(&self) -> Result<Vec<Arc<Document>>> {
        Ok(self.collect_shared_stats()?.0)
    }

    /// [`DocSet::collect_shared`] with per-stage statistics.
    pub fn collect_shared_stats(&self) -> Result<(Vec<Arc<Document>>, ExecStats)> {
        crate::exec::execute(&self.ctx, &self.source, &self.ops, 0)
    }

    /// Executes for an index sink, which reads each row's id and its text or
    /// embedding. A trailing `embed`, and the `explode` before it, run
    /// projected (DESIGN.md §5g). Returns the rows and whether the `embed`
    /// was projected, so a vector sink must embed every row itself.
    fn sink_rows(&self) -> Result<(Vec<Arc<Document>>, bool)> {
        let mut tail = self.ops.iter().rev().peekable();
        let embed = tail.next_if(|op| matches!(op, Op::Embed)).is_some();
        let explode = tail.next_if(|op| matches!(op, Op::Explode)).is_some();
        let projected = usize::from(embed) + usize::from(explode);
        Ok((crate::exec::execute(&self.ctx, &self.source, &self.ops, projected)?.0, embed))
    }

    /// Executes and counts.
    pub fn count(&self) -> Result<usize> {
        Ok(self.collect_shared()?.len())
    }

    /// Executes and returns the first document, if any.
    pub fn first(&self) -> Result<Option<Document>> {
        Ok(self.collect_shared()?.into_iter().next().map(Arc::unwrap_or_clone))
    }

    /// Executes and writes the documents into a (new or replaced) document
    /// store in the catalog.
    pub fn write_store(&self, name: &str) -> Result<usize> {
        let docs = self.collect()?;
        let n = docs.len();
        let store: DocStore = docs.into_iter().collect();
        self.ctx.put_store(name, store);
        Ok(n)
    }

    /// Executes and indexes full text into a keyword index.
    pub fn write_keyword(&self, name: &str) -> Result<usize> {
        let (docs, _) = self.sink_rows()?;
        let mut kw = self.ctx.inner.keyword.write();
        let ix = kw.entry(name.to_string()).or_default();
        let mut text = String::new();
        for d in &docs {
            ix.add(d.id.as_str(), d.full_text_in(&mut text));
        }
        Ok(docs.len())
    }

    /// Executes and writes embeddings into a vector index (created if
    /// missing). Documents without an embedding are embedded on the fly, as
    /// is every row of a plan that ends in `embed`.
    pub fn write_vector(&self, name: &str) -> Result<usize> {
        let (docs, embed_all) = self.sink_rows()?;
        {
            let vx = self.ctx.inner.vector.read();
            if !vx.contains_key(name) {
                drop(vx);
                self.ctx.create_vector_index(name);
            }
        }
        let embedder = self.ctx.embedder();
        let mut vx = self.ctx.inner.vector.write();
        let ix = vx
            .get_mut(name)
            .ok_or_else(|| ArynError::Index(format!("vector index {name:?} vanished mid-write")))?;
        let mut text = String::new();
        for d in &docs {
            match &d.embedding {
                Some(v) if !embed_all => ix.add_slice(d.id.as_str(), v)?,
                _ => ix.add(d.id.as_str(), embedder.embed(d.full_text_in(&mut text)))?,
            }
        }
        Ok(docs.len())
    }
}
