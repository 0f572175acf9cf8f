//! Implementations of the per-document and barrier transforms.
//!
//! [`apply_per_doc`] is the unit of work the morsel executor schedules: it
//! must stay a pure function of `(op, doc)` plus deterministic context state,
//! because the executor calls it from multiple workers in arbitrary order and
//! relies on output assembly by input position — never arrival order — for
//! bit-identical results at any parallelism (DESIGN.md §5g).
//!
//! Rows are shared `Arc<Document>`s (DESIGN.md "Data plane"): a transform
//! that only reads or drops a row forwards the pointer; one that writes goes
//! through `Arc::make_mut`, after its fallible work, so a row still held by
//! a snapshot, a materialization or a retry original is copied once, at the
//! first write, and never for a row that is about to be dropped.

use crate::context::Context;
use crate::op::{Agg, ElementSelector, Op, PartitionCfg};
use aryn_core::json;
use aryn_core::vfs::{self, Vfs};
use aryn_core::{obj, ArynError, Document, LineageRecord, Result, Value};
use aryn_llm::prompt::tasks;
use aryn_llm::semantics;
use aryn_llm::{run_batched, BatchConfig, BatchReport, LlmClient, TaskKind};
use aryn_partitioner::{Partitioner, PartitionerOptions};
use std::sync::Arc;

// Completion caps, in tokens, of the engine's LLM calls. The cost model
// (`crate::cost`, and Luna's over its plan operators) bounds each call's
// completion by the same constant.
pub const FILTER_MAX_OUTPUT: usize = 64;
pub(crate) const CLASSIFY_MAX_OUTPUT: usize = 64;
pub const EXTRACT_MAX_OUTPUT: usize = 512;
pub const SUMMARIZE_MAX_OUTPUT: usize = 256;
pub(crate) const SECTION_SUMMARY_MAX_OUTPUT: usize = 128;
pub(crate) const QUERY_MAX_OUTPUT: usize = 256;

/// Applies one per-document op, producing 0..N output documents. A
/// `projected` op's rows only an index sink reads (DESIGN.md §5g, "Sink
/// projection"): `explode` emits chunks of just id and text, and `embed`
/// forwards the row untouched, leaving the vector to a vector sink, which
/// embeds the row's text.
pub fn apply_per_doc(ctx: &Context, op: &Op, projected: bool, mut doc: Arc<Document>) -> Result<Vec<Arc<Document>>> {
    match op {
        Op::Map { name, f } => {
            let mut out = f(Arc::unwrap_or_clone(doc));
            out.lineage.push(LineageRecord::new("map", name.clone()));
            Ok(vec![Arc::new(out)])
        }
        Op::Filter { name, f } => {
            if f(&doc) {
                Arc::make_mut(&mut doc)
                    .lineage
                    .push(LineageRecord::new("filter", name.clone()));
                Ok(vec![doc])
            } else {
                Ok(vec![])
            }
        }
        Op::FlatMap { name, f } => {
            let src = doc.id.0.clone();
            Ok(f(Arc::unwrap_or_clone(doc))
                .into_iter()
                .map(|mut d| {
                    d.lineage.push(
                        LineageRecord::new("flat_map", name.clone()).with_sources(vec![src.clone()]),
                    );
                    Arc::new(d)
                })
                .collect())
        }
        Op::Partition { lake, cfg } => partition(ctx, lake, cfg, &doc).map(|d| vec![Arc::new(d)]),
        Op::Explode if projected => Ok(explode_projected(&doc)),
        Op::Explode => Ok(explode(&doc)),
        Op::LlmQuery {
            client,
            template,
            output_path,
            selector,
        } => llm_query(client, template, output_path, selector, doc).map(|d| vec![d]),
        Op::ExtractProperties {
            client,
            schema,
            selector,
        } => extract_properties(client, schema, selector, doc).map(|d| vec![d]),
        Op::LlmFilter {
            client,
            predicate,
            selector,
        } => llm_filter(client, predicate, selector, doc),
        Op::LlmClassify {
            client,
            question,
            labels,
            output_path,
            selector,
        } => llm_classify(client, question, labels, output_path, selector, doc).map(|d| vec![d]),
        Op::Summarize {
            client,
            instructions,
            output_path,
            selector,
        } => summarize_doc(client, instructions, output_path, selector, doc).map(|d| vec![d]),
        Op::SummarizeSections { client } => summarize_sections(client, doc).map(|d| vec![d]),
        Op::Embed if projected => Ok(vec![doc]),
        Op::Embed => {
            let embedding = ctx.embedder().embed(doc.full_text_in(&mut String::new()));
            let d = Arc::make_mut(&mut doc);
            d.embedding = Some(embedding);
            d.lineage
                .push(LineageRecord::new("embed", ctx.embedder().name().to_string()));
            Ok(vec![doc])
        }
        barrier => Err(ArynError::Exec(format!(
            "{} is a barrier op, not per-document",
            barrier.name()
        ))),
    }
}

/// `"{parent}#{i}"`, the id of a document's `i`-th chunk, in one allocation.
fn chunk_id(parent: &str, i: usize) -> String {
    use std::fmt::Write;
    let mut id = String::with_capacity(parent.len() + 8);
    let _ = write!(id, "{parent}#{i}");
    id
}

/// Runs the Aryn Partitioner against the raw rendering in the lake.
fn partition(ctx: &Context, lake: &str, cfg: &PartitionCfg, doc: &Document) -> Result<Document> {
    let raw = ctx.raw_from_lake(lake, doc.id.as_str()).ok_or_else(|| {
        ArynError::Exec(format!(
            "partition: no raw rendering for {:?} in lake {lake:?}",
            doc.id
        ))
    })?;
    let p = Partitioner::new(PartitionerOptions {
        detector: cfg.detector,
        extract_tables: true,
        merge_tables: cfg.merge_tables,
        use_ocr: cfg.use_ocr,
        summarize_images: cfg.summarize_images.clone(),
        seed: cfg.seed,
        telemetry: ctx.telemetry(),
    });
    let mut out = p.partition(doc.id.as_str(), &raw);
    // Carry over upstream properties and lineage.
    out.properties = doc.properties.clone();
    let mut lineage = doc.lineage.clone();
    lineage.append(&mut out.lineage);
    out.lineage = lineage;
    Ok(out)
}

/// [`explode`] for an index sink: each chunk holds only its id and the text
/// its element renders, nothing else of the parent.
fn explode_projected(doc: &Document) -> Vec<Arc<Document>> {
    let chunk = |(i, e): (usize, &aryn_core::Element)| {
        let mut text = String::with_capacity(e.text.len() + 1);
        e.push_line(&mut text);
        let id = chunk_id(doc.id.as_str(), i);
        Arc::new(Document { content: aryn_core::DocContent::Text(text), ..Document::new(id) })
    };
    doc.elements.iter().enumerate().map(chunk).collect()
}

/// Emits each element as a chunk document (paper §5.2: explode "creates a
/// new DocSet containing the elements of its input documents").
fn explode(doc: &Document) -> Vec<Arc<Document>> {
    let parent_id = doc.id.0.clone();
    doc.elements
        .iter()
        .enumerate()
        .map(|(i, e)| {
            let mut child = Document::new(chunk_id(&parent_id, i));
            child.properties = doc.properties.clone();
            child.set_prop("parent_id", parent_id.as_str());
            child.set_prop("element_type", e.etype.name());
            child.set_prop("page", e.page as i64);
            child.content = aryn_core::DocContent::Text(e.content_text());
            child.elements = vec![e.clone()];
            child.lineage = doc.lineage.clone();
            child
                .lineage
                .push(LineageRecord::new("explode", "").with_sources(vec![parent_id.clone()]));
            Arc::new(child)
        })
        .collect()
}

/// Renders an `llm_query` template: `{text}` is the selected document text,
/// `{prop:path}` interpolates a property, `{id}` the document id.
fn render_template(template: &str, doc: &Document, text: &str) -> String {
    let mut out = String::with_capacity(template.len() + text.len());
    let mut rest = template;
    while let Some(start) = rest.find('{') {
        out.push_str(&rest[..start]);
        let after = &rest[start + 1..];
        match after.find('}') {
            Some(end) => {
                let key = &after[..end];
                if key == "text" {
                    out.push_str(text);
                } else if key == "id" {
                    out.push_str(doc.id.as_str());
                } else if let Some(path) = key.strip_prefix("prop:") {
                    if let Some(v) = doc.prop(path) {
                        out.push_str(&v.display_text());
                    }
                } else {
                    out.push('{');
                    out.push_str(key);
                    out.push('}');
                }
                rest = &after[end + 1..];
            }
            None => {
                out.push('{');
                rest = after;
            }
        }
    }
    out.push_str(rest);
    out
}

fn llm_query(
    client: &LlmClient,
    template: &str,
    output_path: &str,
    selector: &ElementSelector,
    mut row: Arc<Document>,
) -> Result<Arc<Document>> {
    let text = selector.select_text(&row);
    let question = render_template(template, &row, "");
    let prompt = client.fit_prompt(&text, QUERY_MAX_OUTPUT, |ctx| tasks::answer(&question, ctx));
    let v = client.generate_json(&prompt, QUERY_MAX_OUTPUT)?;
    let answer = v
        .get("answer")
        .cloned()
        .unwrap_or(Value::Null);
    let doc = Arc::make_mut(&mut row);
    doc.properties.set_path(output_path, answer);
    doc.lineage.push(
        LineageRecord::new("llm_query", template.to_string()).with_llm(1, 0.0),
    );
    Ok(row)
}

fn extract_properties(
    client: &LlmClient,
    schema: &Value,
    selector: &ElementSelector,
    mut row: Arc<Document>,
) -> Result<Arc<Document>> {
    let text = selector.select_text(&row);
    let (v, degraded_to) =
        match client.generate_json_with_fallback(&text, EXTRACT_MAX_OUTPUT, &|ctx| tasks::extract(schema, ctx)) {
            Ok(out) => (out.value, out.degraded_to),
            // Reliability cut the ladder off: the document passes through
            // unextracted, flagged — an incomplete answer, never a silent
            // wrong one.
            Err(ArynError::CircuitOpen { .. } | ArynError::DeadlineExceeded { .. }) => {
                (Value::Null, Some("skipped".to_string()))
            }
            Err(e) => return Err(e),
        };
    let doc = Arc::make_mut(&mut row);
    accept_extracted(doc, schema, &v);
    if let Some(tier) = degraded_to {
        doc.set_prop("_degraded", tier.as_str());
        client.note_degraded_docs(1);
    }
    Ok(row)
}

/// Writes an extraction result into `doc`: only the fields the schema asked
/// for (models sometimes hallucinate extras), then the lineage record. The
/// batched and unbatched paths share it so their outputs cannot drift.
fn accept_extracted(doc: &mut Document, schema: &Value, extracted: &Value) {
    if let Some(fields) = extracted.as_object() {
        for (k, val) in fields {
            if schema.get(k).is_some() {
                doc.properties.set_path(k, val.clone());
            }
        }
    }
    doc.lineage.push(
        LineageRecord::new("extract_properties", json::to_string(schema)).with_llm(1, 0.0),
    );
}

fn llm_filter(
    client: &LlmClient,
    predicate: &str,
    selector: &ElementSelector,
    mut row: Arc<Document>,
) -> Result<Vec<Arc<Document>>> {
    let text = selector.select_text(&row);
    let (keep, degraded_to) =
        match client.generate_json_with_fallback(&text, FILTER_MAX_OUTPUT, &|ctx| tasks::filter(predicate, ctx)) {
            Ok(out) => (
                out.value.get("match").and_then(Value::as_bool).unwrap_or(false),
                out.degraded_to,
            ),
            // Final degradation tier: deterministic string matching against
            // the selected text. Costs no LLM budget; the flag records how
            // the verdict was produced.
            Err(ArynError::CircuitOpen { .. } | ArynError::DeadlineExceeded { .. }) => (
                semantics::eval_predicate(predicate, &semantics::Reading::new(&text)),
                Some("string-match".to_string()),
            ),
            Err(e) => return Err(e),
        };
    if degraded_to.is_some() {
        client.note_degraded_docs(1);
    }
    if !keep {
        return Ok(vec![]);
    }
    let doc = Arc::make_mut(&mut row);
    if let Some(tier) = degraded_to {
        doc.set_prop("_degraded", tier.as_str());
    }
    doc.lineage
        .push(LineageRecord::new("llm_filter", predicate.to_string()).with_llm(1, 0.0));
    Ok(vec![row])
}

/// Applies one batchable semantic op collection-at-a-time through the
/// micro-batch packer (DESIGN.md §5e). Returns the surviving documents, the
/// number dropped under `skip` (the stage's `skip_failures`), and the
/// packer's report. Per-item contexts are fitted with
/// [`LlmClient::fit_context`] so each item's singleton prompt — and
/// therefore its cache fingerprint and simulated answer — is
/// byte-identical to the unbatched path's.
pub fn apply_batched(
    op: &Op,
    docs: Vec<Arc<Document>>,
    cfg: BatchConfig,
    skip: bool,
) -> Result<(Vec<Arc<Document>>, usize, BatchReport)> {
    match op {
        Op::LlmFilter {
            client,
            predicate,
            selector,
        } => llm_filter_batched(client, predicate, selector, docs, cfg, skip),
        Op::ExtractProperties {
            client,
            schema,
            selector,
        } => extract_properties_batched(client, schema, selector, docs, cfg, skip),
        other => Err(ArynError::Exec(format!(
            "{} is not a batchable op",
            other.name()
        ))),
    }
}

fn llm_filter_batched(
    client: &LlmClient,
    predicate: &str,
    selector: &ElementSelector,
    docs: Vec<Arc<Document>>,
    cfg: BatchConfig,
    skip_failures: bool,
) -> Result<(Vec<Arc<Document>>, usize, BatchReport)> {
    let params = obj! { "predicate" => predicate };
    let contexts: Vec<String> = docs
        .iter()
        .map(|d| {
            client.fit_context(&selector.select_text(d), FILTER_MAX_OUTPUT, |ctx| {
                tasks::filter(predicate, ctx)
            })
        })
        .collect();
    let (values, report) = run_batched(client, TaskKind::Filter, &params, &contexts, FILTER_MAX_OUTPUT, cfg);
    let mut out = Vec::with_capacity(docs.len());
    let mut failed = 0usize;
    for (mut doc, res) in docs.into_iter().zip(values) {
        match res {
            Ok(v) => {
                if v.get("match").and_then(Value::as_bool).unwrap_or(false) {
                    Arc::make_mut(&mut doc).lineage.push(
                        LineageRecord::new("llm_filter", predicate.to_string()).with_llm(1, 0.0),
                    );
                    out.push(doc);
                }
            }
            Err(e) => {
                if skip_failures {
                    failed += 1;
                } else {
                    return Err(ArynError::Exec(format!("{:?}: {e}", doc.id)));
                }
            }
        }
    }
    Ok((out, failed, report))
}

fn extract_properties_batched(
    client: &LlmClient,
    schema: &Value,
    selector: &ElementSelector,
    docs: Vec<Arc<Document>>,
    cfg: BatchConfig,
    skip_failures: bool,
) -> Result<(Vec<Arc<Document>>, usize, BatchReport)> {
    let params = obj! { "schema" => schema.clone() };
    let contexts: Vec<String> = docs
        .iter()
        .map(|d| {
            client.fit_context(&selector.select_text(d), EXTRACT_MAX_OUTPUT, |ctx| {
                tasks::extract(schema, ctx)
            })
        })
        .collect();
    let (values, report) = run_batched(client, TaskKind::Extract, &params, &contexts, EXTRACT_MAX_OUTPUT, cfg);
    let mut out = Vec::with_capacity(docs.len());
    let mut failed = 0usize;
    for (mut doc, res) in docs.into_iter().zip(values) {
        match res {
            Ok(v) => {
                accept_extracted(Arc::make_mut(&mut doc), schema, &v);
                out.push(doc);
            }
            Err(e) => {
                if skip_failures {
                    failed += 1;
                } else {
                    return Err(ArynError::Exec(format!("{:?}: {e}", doc.id)));
                }
            }
        }
    }
    Ok((out, failed, report))
}

fn llm_classify(
    client: &LlmClient,
    question: &str,
    labels: &[String],
    output_path: &str,
    selector: &ElementSelector,
    mut row: Arc<Document>,
) -> Result<Arc<Document>> {
    let text = selector.select_text(&row);
    let label_refs: Vec<&str> = labels.iter().map(String::as_str).collect();
    let prompt = client.fit_prompt(&text, CLASSIFY_MAX_OUTPUT, |ctx| tasks::classify(question, &label_refs, ctx));
    let v = client.generate_json(&prompt, CLASSIFY_MAX_OUTPUT)?;
    let label = v.get("label").cloned().unwrap_or(Value::Null);
    let doc = Arc::make_mut(&mut row);
    doc.properties.set_path(output_path, label);
    doc.lineage
        .push(LineageRecord::new("llm_classify", question.to_string()).with_llm(1, 0.0));
    Ok(row)
}

fn summarize_doc(
    client: &LlmClient,
    instructions: &str,
    output_path: &str,
    selector: &ElementSelector,
    mut row: Arc<Document>,
) -> Result<Arc<Document>> {
    let text = selector.select_text(&row);
    let prompt = client.fit_prompt(&text, SUMMARIZE_MAX_OUTPUT, |ctx| tasks::summarize(instructions, ctx));
    let v = client.generate_json(&prompt, SUMMARIZE_MAX_OUTPUT)?;
    let summary = v.get("summary").cloned().unwrap_or(Value::Null);
    let doc = Arc::make_mut(&mut row);
    doc.properties.set_path(output_path, summary);
    doc.lineage
        .push(LineageRecord::new("summarize", instructions.to_string()).with_llm(1, 0.0));
    Ok(row)
}

/// Summarizes each section of the document's semantic tree into
/// `properties.section_summaries.<heading>`, one LLM call per section with
/// a non-empty body.
fn summarize_sections(client: &LlmClient, mut row: Arc<Document>) -> Result<Arc<Document>> {
    let sections: Vec<(String, String)> = {
        let tree = row.tree();
        tree.sections()
            .iter()
            .filter(|s| !s.body.is_empty())
            .map(|s| {
                let body: String = s
                    .body
                    .iter()
                    .map(|i| row.elements[*i].content_text())
                    .collect::<Vec<_>>()
                    .join("\n");
                (s.heading_text().to_string(), body)
            })
            .collect()
    };
    // Every call first, then the writes: a failing section must leave a row
    // shared with the retry original untouched.
    let mut summaries: Vec<(String, Value)> = Vec::new();
    for (heading, body) in sections {
        if body.trim().is_empty() || heading.is_empty() {
            continue;
        }
        let prompt = client.fit_prompt(&body, SECTION_SUMMARY_MAX_OUTPUT, |ctx| {
            tasks::summarize(&format!("Summarize the {heading:?} section in one sentence."), ctx)
        });
        let v = client.generate_json(&prompt, SECTION_SUMMARY_MAX_OUTPUT)?;
        let summary = v.get("summary").cloned().unwrap_or(Value::Null);
        // Heading as a property key: sanitized to a path-safe slug.
        let slug: String = heading
            .to_lowercase()
            .chars()
            .map(|c| if c.is_alphanumeric() { c } else { '_' })
            .collect();
        summaries.push((format!("section_summaries.{slug}"), summary));
    }
    let doc = Arc::make_mut(&mut row);
    let calls = summaries.len() as u32;
    for (path, summary) in summaries {
        doc.properties.set_path(&path, summary);
    }
    doc.lineage
        .push(LineageRecord::new("summarize_sections", "").with_llm(calls, 0.0));
    Ok(row)
}

// ---------------------------------------------------------------------------
// Barrier transforms
// ---------------------------------------------------------------------------

/// A row's sort/group key, borrowed: a missing property orders as `Null`.
fn key_of<'a>(doc: &'a Document, path: &str) -> &'a Value {
    doc.prop(path).unwrap_or(&Value::Null)
}

/// Groups documents by a key property and aggregates. Missing keys group
/// under `Null`; missing aggregated values are skipped. Groups come out in
/// key order (`cmp_total`), members and sums in input order.
pub fn reduce_by_key(
    docs: &[Arc<Document>],
    key: &str,
    aggs: &[(String, Agg)],
) -> Vec<Arc<Document>> {
    let mut fold = GroupFold::new(key, aggs);
    docs.iter().for_each(|d| fold.push_row(d));
    fold.finish()
}

/// The one group fold: rows arrive once, in order, each with its key and
/// its value per aggregate, from documents ([`GroupFold::push_row`]) or from
/// a store's columns ([`GroupFold::push`], or [`GroupFold::fold_at`] for a
/// reader that resolves each distinct key to its slot once). A key finds its
/// group by binary search over the groups' keys; the first row of a group
/// names it. Each row counts, and is a lineage source of its group unless
/// it came through [`GroupFold::fold_at`].
pub struct GroupFold<'a> {
    key: &'a str,
    aggs: &'a [(String, Agg)],
    /// Group indices in key order.
    order: Vec<usize>,
    groups: Vec<Group>,
}

struct Group {
    key: Value,
    rows: usize,
    sources: Vec<String>,
    folds: Vec<AggFold>,
}

impl<'a> GroupFold<'a> {
    pub fn new(key: &'a str, aggs: &'a [(String, Agg)]) -> GroupFold<'a> {
        GroupFold { key, aggs, order: Vec::new(), groups: Vec::new() }
    }

    /// Adds document `id` with its `key` value and its value for each
    /// aggregate (aligned with `aggs`; missing at the end, and ignored for
    /// `Count`).
    pub fn push(&mut self, id: &str, key: Option<&Value>, values: &[Option<&Value>]) {
        let slot = self.slot(key);
        self.fold_at(slot, values);
        self.groups[slot].sources.push(id.to_string());
    }

    /// [`GroupFold::push`] into the group at `slot`, which
    /// [`GroupFold::slot`] returned for the row's key, without naming the
    /// row among the group's sources: for a reader that resolves each
    /// distinct key once and gathers sources later, for the groups it keeps.
    pub fn fold_at(&mut self, slot: usize, values: &[Option<&Value>]) {
        let group = &mut self.groups[slot];
        group.rows += 1;
        for (i, fold) in group.folds.iter_mut().enumerate() {
            fold.push(values.get(i).copied().flatten());
        }
    }

    /// [`GroupFold::push`] reading the key and values from the document.
    fn push_row(&mut self, doc: &Document) {
        let aggs = self.aggs;
        let slot = self.slot(doc.prop(self.key));
        let group = &mut self.groups[slot];
        group.rows += 1;
        group.sources.push(doc.id.0.clone());
        for ((_, agg), fold) in aggs.iter().zip(&mut group.folds) {
            fold.push(agg.path().and_then(|p| doc.prop(p)));
        }
    }

    /// The slot of `key`'s group (missing keys group under `Null`), opened
    /// with `key` as its name if new. A slot stays its group's for the
    /// fold's life.
    pub fn slot(&mut self, key: Option<&Value>) -> usize {
        let key = key.unwrap_or(&Value::Null);
        match self.order.binary_search_by(|&g| self.groups[g].key.cmp_total(key)) {
            Ok(i) => self.order[i],
            Err(i) => {
                self.order.insert(i, self.groups.len());
                self.groups.push(Group {
                    key: key.clone(),
                    rows: 0,
                    sources: Vec::new(),
                    folds: self.aggs.iter().map(|(_, agg)| AggFold::new(agg)).collect(),
                });
                self.groups.len() - 1
            }
        }
    }

    /// Each slot's position among [`GroupFold::finish`]'s documents.
    pub fn positions(&self) -> Vec<usize> {
        let mut positions = vec![0; self.groups.len()];
        for (i, &g) in self.order.iter().enumerate() {
            positions[g] = i;
        }
        positions
    }

    /// One document per group, in key order.
    pub fn finish(self) -> Vec<Arc<Document>> {
        let mut groups: Vec<Option<Group>> = self.groups.into_iter().map(Some).collect();
        self.order
            .iter()
            .filter_map(|&g| groups[g].take())
            .map(|group| {
                let mut g = Document::new(format!("group:{}", group.key.display_text()));
                g.set_prop(self.key, group.key);
                g.set_prop("count", group.rows as i64);
                for ((out_name, _), fold) in self.aggs.iter().zip(group.folds) {
                    g.properties.set_path(out_name, fold.finish());
                }
                g.lineage.push(LineageRecord::new("reduce_by_key", self.key.to_string()).with_sources(group.sources));
                Arc::new(g)
            })
            .collect()
    }
}

/// One aggregate folded over a stream of values in arrival order. Missing
/// and non-numeric values are skipped where the aggregate needs numbers,
/// nulls where it needs values; `Count` counts every push.
#[derive(Debug)]
pub struct AggFold {
    pushed: usize,
    state: AggState,
}

#[derive(Debug)]
enum AggState {
    Count,
    /// The running sum and how many numbers it holds.
    Sum(f64, usize),
    Avg(f64, usize),
    /// The pick so far: the first minimum, the last maximum.
    Min(Option<Value>),
    Max(Option<Value>),
    /// First-seen representatives under `loose_eq`.
    Distinct(Vec<Value>),
}

impl AggFold {
    pub fn new(agg: &Agg) -> AggFold {
        // Std's `Sum` for floats folds from this neutral element, so the
        // running sum is bit for bit `numbers.iter().sum()`.
        let zero = std::iter::empty::<f64>().sum();
        let state = match agg {
            Agg::Count => AggState::Count,
            Agg::Sum(_) => AggState::Sum(zero, 0),
            Agg::Avg(_) => AggState::Avg(zero, 0),
            Agg::Min(_) => AggState::Min(None),
            Agg::Max(_) => AggState::Max(None),
            Agg::CollectDistinct(_) => AggState::Distinct(Vec::new()),
        };
        AggFold { pushed: 0, state }
    }

    pub fn push(&mut self, v: Option<&Value>) {
        use std::cmp::Ordering::Less;
        self.pushed += 1;
        let value = v.filter(|v| !v.is_null());
        match &mut self.state {
            AggState::Count => {}
            AggState::Sum(sum, n) | AggState::Avg(sum, n) => {
                if let Some(x) = v.and_then(Value::as_float) {
                    *sum += x;
                    *n += 1;
                }
            }
            AggState::Min(pick) => {
                if let Some(v) = value.filter(|v| pick.as_ref().is_none_or(|p| v.cmp_total(p) == Less)) {
                    *pick = Some(v.clone());
                }
            }
            AggState::Max(pick) => {
                if let Some(v) = value.filter(|v| pick.as_ref().is_none_or(|p| v.cmp_total(p) != Less)) {
                    *pick = Some(v.clone());
                }
            }
            AggState::Distinct(vals) => {
                if let Some(v) = value.filter(|v| !vals.iter().any(|x| x.loose_eq(v))) {
                    vals.push(v.clone());
                }
            }
        }
    }

    /// Values pushed so far (missing ones included).
    pub fn pushed(&self) -> usize {
        self.pushed
    }

    pub fn finish(self) -> Value {
        match self.state {
            AggState::Count => Value::Int(self.pushed as i64),
            AggState::Sum(_, 0) | AggState::Avg(_, 0) => Value::Null,
            AggState::Sum(sum, _) => Value::Float(sum),
            AggState::Avg(sum, n) => Value::Float(sum / n as f64),
            AggState::Min(pick) | AggState::Max(pick) => pick.unwrap_or(Value::Null),
            AggState::Distinct(mut vals) => {
                vals.sort_by(|a, b| a.cmp_total(b));
                Value::Array(vals)
            }
        }
    }
}

/// Stable sort by property (total order; missing = Null sorts first
/// ascending, last descending).
pub fn sort_by(docs: &[Arc<Document>], path: &str, descending: bool) -> Vec<Arc<Document>> {
    let mut sorted = docs.to_vec();
    sorted.sort_by(|a, b| {
        let ord = key_of(a, path).cmp_total(key_of(b, path));
        if descending {
            ord.reverse()
        } else {
            ord
        }
    });
    sorted
}

/// Hierarchical collection summarization: per-document summaries are packed
/// into context-window-sized batches, each batch summarized, then the batch
/// summaries summarized — so arbitrarily large collections fit bounded
/// context (the paper's answer to "LLM context sizes are limited", §2).
pub fn summarize_all(
    client: &LlmClient,
    instructions: &str,
    docs: &[Arc<Document>],
) -> Result<Document> {
    Ok(summarize_all_stats(client, instructions, docs, false)?.0)
}

/// [`summarize_all`] with failure accounting: returns the summary document
/// plus the number of *source documents* whose content was dropped because a
/// batch summarization failed permanently. With `skip_failures` false any
/// batch failure aborts (the historical behaviour); with it true, failed
/// batches are dropped and their source-document weight is reported — so a
/// barrier stage's `failed_docs` reflects inner per-batch failures instead of
/// hardcoding zero.
pub fn summarize_all_stats(
    client: &LlmClient,
    instructions: &str,
    docs: &[Arc<Document>],
    skip_failures: bool,
) -> Result<(Document, usize)> {
    // Each piece carries the number of source documents it represents, so a
    // dropped batch in round 3 still counts the right number of documents.
    let mut pieces: Vec<(String, usize)> = docs
        .iter()
        .map(|d| {
            // Prefer an existing summary property; else lead text.
            let text = d
                .prop("summary")
                .and_then(Value::as_str)
                .map(str::to_string)
                .unwrap_or_else(|| {
                    aryn_core::text::truncate_tokens(&d.full_text(), 120).to_string()
                });
            (text, 1)
        })
        .collect();
    let mut failed_weight = 0usize;
    let mut rounds = 0;
    while pieces.len() > 1 {
        rounds += 1;
        if rounds > 12 {
            return Err(ArynError::Exec("summarize_all failed to converge".into()));
        }
        let budget = client.context_budget(96, SUMMARIZE_MAX_OUTPUT).max(256);
        let mut batches: Vec<(String, usize)> = Vec::new();
        let mut cur = String::new();
        let mut cur_weight = 0usize;
        for (p, w) in &pieces {
            let candidate_len =
                aryn_core::text::count_tokens(&cur) + aryn_core::text::count_tokens(p) + 2;
            if !cur.is_empty() && candidate_len > budget {
                batches.push((std::mem::take(&mut cur), cur_weight));
                cur_weight = 0;
            }
            if !cur.is_empty() {
                cur.push_str("\n\n");
            }
            cur.push_str(aryn_core::text::truncate_tokens(p, budget.saturating_sub(8)));
            cur_weight += w;
        }
        if !cur.is_empty() {
            batches.push((cur, cur_weight));
        }
        let n_batches = batches.len();
        let mut next: Vec<(String, usize)> = Vec::with_capacity(n_batches);
        for (b, w) in &batches {
            let prompt = client.fit_prompt(b, SUMMARIZE_MAX_OUTPUT, |ctx| tasks::summarize(instructions, ctx));
            match client.generate_json(&prompt, SUMMARIZE_MAX_OUTPUT) {
                Ok(v) => next.push((
                    v.get("summary")
                        .and_then(Value::as_str)
                        .unwrap_or("")
                        .to_string(),
                    *w,
                )),
                Err(e) => {
                    if !skip_failures {
                        return Err(e);
                    }
                    failed_weight += w;
                }
            }
        }
        if next.is_empty() {
            // Every batch of a round failed: nothing left to summarize.
            return Err(ArynError::Exec(format!(
                "summarize_all: all {n_batches} batch(es) failed in round {rounds}"
            )));
        }
        if next.len() >= pieces.len() && pieces.len() > 1 {
            // No progress (pathologically small budget): force-merge.
            let weight: usize = next.iter().map(|(_, w)| w).sum();
            let merged = next
                .iter()
                .map(|(s, _)| s.as_str())
                .collect::<Vec<_>>()
                .join(" ");
            next = vec![(merged, weight)];
        }
        pieces = next;
    }
    let mut doc = Document::new("summary");
    doc.set_prop(
        "summary",
        pieces.pop().map(|(s, _)| s).unwrap_or_default(),
    );
    doc.set_prop("source_count", docs.len() as i64);
    doc.lineage.push(
        LineageRecord::new("summarize_all", instructions.to_string())
            .with_sources(docs.iter().map(|d| d.id.0.clone()).collect()),
    );
    Ok((doc, failed_weight))
}

/// Materializes documents: cached in memory under `name` — stamped with the
/// fingerprint of the op-prefix that produced them, so resume only reuses
/// the checkpoint for an identical upstream plan — optionally spilled to
/// `{dir}/{name}.docs`. The spill goes through the context's [`Vfs`] as a
/// frame file of binary documents written atomically (temp → sync →
/// rename), so a crash mid-checkpoint leaves either the previous checkpoint
/// or a complete new one — never a torn file that resume would half-trust.
pub fn materialize(
    ctx: &Context,
    name: &str,
    fingerprint: u64,
    dir: Option<&std::path::Path>,
    docs: &[Arc<Document>],
) -> Result<()> {
    ctx.inner
        .materialized
        .write()
        .insert(name.to_string(), (fingerprint, docs.to_vec()));
    if let Some(dir) = dir {
        let fs = ctx.vfs();
        fs.create_dir_all(dir)?;
        let mut file = Vec::new();
        for d in docs {
            vfs::encode_frame_with(&mut file, b'p', |o| aryn_core::serialize::encode_document(d, o))?;
        }
        vfs::finish_frame_file(&mut file, docs.len())?;
        vfs::atomic_write(&fs, &dir.join(format!("{name}.docs")), &file)?;
    }
    Ok(())
}

/// Loads a disk materialization written by [`materialize`] through `fs`
/// (the context's [`Vfs`]). Any checksum or footer mismatch is an error — a
/// torn checkpoint is discarded by the caller and recomputed, never
/// half-loaded.
pub fn load_materialized(fs: &dyn Vfs, path: &std::path::Path) -> Result<Vec<Document>> {
    let bytes = fs.read(path)?;
    vfs::decode_frame_file(&bytes)?
        .into_iter()
        .map(|(tag, payload)| {
            if tag != b'p' {
                return Err(ArynError::Io(format!(
                    "materialized file {}: unexpected record tag {:?}",
                    path.display(),
                    char::from(tag)
                )));
            }
            aryn_core::serialize::decode_document(payload)
        })
        .collect()
}
