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
use aryn_core::vfs::{self, StdFs, Vfs};
use aryn_core::{obj, ArynError, Document, LineageRecord, Result, Value};
use aryn_llm::prompt::tasks;
use aryn_llm::semantics;
use aryn_llm::{run_batched, BatchConfig, BatchReport, LlmClient, TaskKind};
use aryn_partitioner::{Partitioner, PartitionerOptions};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Applies one per-document op, producing 0..N output documents.
pub fn apply_per_doc(ctx: &Context, op: &Op, mut doc: Arc<Document>) -> Result<Vec<Arc<Document>>> {
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
        Op::Embed => {
            let embedding = ctx.embedder().embed(&doc.full_text());
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

/// Emits each element as a chunk document (paper §5.2: explode "creates a
/// new DocSet containing the elements of its input documents").
fn explode(doc: &Document) -> Vec<Arc<Document>> {
    let parent_id = doc.id.0.clone();
    doc.elements
        .iter()
        .enumerate()
        .map(|(i, e)| {
            let mut child = Document::new(format!("{parent_id}#{i}"));
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
    let prompt = client.fit_prompt(&text, 256, |ctx| tasks::answer(&question, ctx));
    let v = client.generate_json(&prompt, 256)?;
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
        match client.generate_json_with_fallback(&text, 512, &|ctx| tasks::extract(schema, ctx)) {
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
        match client.generate_json_with_fallback(&text, 64, &|ctx| tasks::filter(predicate, ctx)) {
            Ok(out) => (
                out.value.get("match").and_then(Value::as_bool).unwrap_or(false),
                out.degraded_to,
            ),
            // Final degradation tier: deterministic string matching against
            // the selected text. Costs no LLM budget; the flag records how
            // the verdict was produced.
            Err(ArynError::CircuitOpen { .. } | ArynError::DeadlineExceeded { .. }) => (
                semantics::eval_predicate(predicate, &text),
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
/// number dropped under `skip_failures`, and the packer's report. Per-item
/// contexts are fitted with [`LlmClient::fit_context`] so each item's
/// singleton prompt — and therefore its cache fingerprint and simulated
/// answer — is byte-identical to the unbatched path's.
pub fn apply_batched(
    ctx: &Context,
    op: &Op,
    docs: Vec<Arc<Document>>,
    cfg: BatchConfig,
) -> Result<(Vec<Arc<Document>>, usize, BatchReport)> {
    let skip = ctx.exec_config().skip_failures;
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
            client.fit_context(&selector.select_text(d), 64, |ctx| {
                tasks::filter(predicate, ctx)
            })
        })
        .collect();
    let (values, report) = run_batched(client, TaskKind::Filter, &params, &contexts, 64, cfg);
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
            client.fit_context(&selector.select_text(d), 512, |ctx| {
                tasks::extract(schema, ctx)
            })
        })
        .collect();
    let (values, report) = run_batched(client, TaskKind::Extract, &params, &contexts, 512, cfg);
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
    let prompt = client.fit_prompt(&text, 64, |ctx| tasks::classify(question, &label_refs, ctx));
    let v = client.generate_json(&prompt, 64)?;
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
    let prompt = client.fit_prompt(&text, 256, |ctx| tasks::summarize(instructions, ctx));
    let v = client.generate_json(&prompt, 256)?;
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
        let prompt = client.fit_prompt(&body, 128, |ctx| {
            tasks::summarize(&format!("Summarize the {heading:?} section in one sentence."), ctx)
        });
        let v = client.generate_json(&prompt, 128)?;
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
/// under `Null`; missing aggregated values are skipped.
pub fn reduce_by_key(
    docs: &[Arc<Document>],
    key: &str,
    aggs: &[(String, Agg)],
) -> Vec<Arc<Document>> {
    let mut sorted: Vec<&Document> = docs.iter().map(Arc::as_ref).collect();
    sorted.sort_by(|a, b| key_of(a, key).cmp_total(key_of(b, key)));
    let mut out = Vec::new();
    let mut i = 0;
    while i < sorted.len() {
        let key_val = key_of(sorted[i], key);
        let mut j = i;
        while j < sorted.len()
            && key_of(sorted[j], key).cmp_total(key_val) == std::cmp::Ordering::Equal
        {
            j += 1;
        }
        let group = &sorted[i..j];
        let mut g = Document::new(format!("group:{}", key_val.display_text()));
        g.set_prop(key, key_val.clone());
        g.set_prop("count", group.len() as i64);
        for (out_name, agg) in aggs {
            let v = eval_agg(group, agg);
            g.properties.set_path(out_name, v);
        }
        g.lineage.push(
            LineageRecord::new("reduce_by_key", key.to_string())
                .with_sources(group.iter().map(|d| d.id.0.clone()).collect()),
        );
        out.push(Arc::new(g));
        i = j;
    }
    out
}

fn eval_agg(group: &[&Document], agg: &Agg) -> Value {
    let nums = |path: &str| -> Vec<f64> {
        group
            .iter()
            .filter_map(|d| d.prop(path))
            .filter_map(Value::as_float)
            .collect()
    };
    match agg {
        Agg::Count => Value::Int(group.len() as i64),
        Agg::Sum(path) => {
            let xs = nums(path);
            if xs.is_empty() {
                Value::Null
            } else {
                Value::Float(xs.iter().sum())
            }
        }
        Agg::Avg(path) => {
            let xs = nums(path);
            if xs.is_empty() {
                Value::Null
            } else {
                Value::Float(xs.iter().sum::<f64>() / xs.len() as f64)
            }
        }
        Agg::Min(path) | Agg::Max(path) => {
            let mut vals: Vec<&Value> = group
                .iter()
                .filter_map(|d| d.prop(path))
                .filter(|v| !v.is_null())
                .collect();
            vals.sort_by(|a, b| a.cmp_total(b));
            let pick = if matches!(agg, Agg::Min(_)) {
                vals.first()
            } else {
                vals.last()
            };
            pick.map(|v| (*v).clone()).unwrap_or(Value::Null)
        }
        Agg::CollectDistinct(path) => {
            let mut vals: Vec<Value> = Vec::new();
            for d in group {
                if let Some(v) = d.prop(path) {
                    if !v.is_null() && !vals.iter().any(|x| x.loose_eq(v)) {
                        vals.push(v.clone());
                    }
                }
            }
            vals.sort_by(|a, b| a.cmp_total(b));
            Value::Array(vals)
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
        let budget = client.context_budget(96, 256).max(256);
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
            let prompt = client.fit_prompt(b, 256, |ctx| tasks::summarize(instructions, ctx));
            match client.generate_json(&prompt, 256) {
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

/// Loads a disk materialization written by [`materialize`].
pub fn load_materialized(path: &std::path::Path) -> Result<Vec<Document>> {
    load_materialized_on(&StdFs, path)
}

/// [`load_materialized`] against an explicit [`Vfs`]. Any checksum or
/// footer mismatch is an error — a torn checkpoint is discarded by the
/// caller and recomputed, never half-loaded.
pub fn load_materialized_on(fs: &dyn Vfs, path: &std::path::Path) -> Result<Vec<Document>> {
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

/// Groups documents into a BTreeMap keyed by the *display text* of a
/// property — a helper for tests and joins.
pub fn group_index(docs: &[Document], key: &str) -> BTreeMap<String, Vec<usize>> {
    let mut out: BTreeMap<String, Vec<usize>> = BTreeMap::new();
    for (i, d) in docs.iter().enumerate() {
        let k = d
            .prop(key)
            .map(|v| v.display_text())
            .unwrap_or_else(|| "null".into());
        out.entry(k).or_default().push(i);
    }
    out
}
