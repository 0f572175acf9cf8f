//! Plan execution with full traceability.
//!
//! Nodes execute in topological order; each node's output (a row set or a
//! scalar) is kept so that shared inputs (Figure 5's `out_0`) compute once.
//! Every node leaves a [`NodeTrace`]: rows in/out, wall time, LLM calls and
//! cost (meter deltas), and sample rows — "a detailed trace of how the
//! answer was computed" (§2, §6.1).
//!
//! Row sets are shared `Arc<Document>`s (DESIGN.md "Data plane"): a scan
//! hands out the pinned snapshot's own documents, filters, sorts and counts
//! move or read pointers, and only `llmExtract`, `graphExpand` and `join`
//! copy a document, because they write to it.

use crate::ops::{Plan, PlanOp};
use aryn_core::{ArynError, Document, Result, Value};
use aryn_index::{CompiledPredicate, GraphStore, Predicate, StoreSnapshot};
use aryn_llm::prompt::tasks;
use aryn_llm::{CacheStats, LlmClient, MeterScope, UsageStats};
use aryn_telemetry::Telemetry;
use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// A node's output.
#[derive(Debug, Clone, PartialEq)]
pub enum NodeOutput {
    Rows(Vec<Arc<Document>>),
    Scalar(Value),
}

impl NodeOutput {
    pub fn rows(&self) -> Option<&[Arc<Document>]> {
        match self {
            NodeOutput::Rows(r) => Some(r),
            NodeOutput::Scalar(_) => None,
        }
    }

    pub fn scalar(&self) -> Option<&Value> {
        match self {
            NodeOutput::Scalar(v) => Some(v),
            NodeOutput::Rows(_) => None,
        }
    }

    pub fn len(&self) -> usize {
        match self {
            NodeOutput::Rows(r) => r.len(),
            NodeOutput::Scalar(_) => 1,
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Per-node execution record.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeTrace {
    pub node_id: usize,
    pub op_kind: String,
    pub description: String,
    pub rows_in: usize,
    pub rows_out: usize,
    pub wall_ms: f64,
    /// Model calls, tokens, dollars, LLM retries, batching and reliability
    /// counters metered while this node ran.
    pub llm: UsageStats,
    /// Call-cache activity while this node ran (zeros when no cache is
    /// attached).
    pub cache: CacheStats,
    /// Up to three sample row ids (provenance peek).
    pub sample_ids: Vec<String>,
    /// Scalar output, if the node produced one.
    pub scalar: Option<Value>,
}

/// The result of executing a plan.
#[derive(Debug, Clone, PartialEq)]
pub struct LunaResult {
    /// Final output of the result node.
    pub output: NodeOutput,
    /// Natural-language answer (set when the result node generates text,
    /// otherwise a rendering of the output).
    pub answer: String,
    pub traces: Vec<NodeTrace>,
}

impl LunaResult {
    /// LLM usage merged over all nodes.
    pub fn llm(&self) -> UsageStats {
        let mut total = UsageStats::default();
        self.traces.iter().for_each(|t| total.merge(&t.llm));
        total
    }

    /// Call-cache activity merged over all nodes.
    pub fn cache(&self) -> CacheStats {
        let mut total = CacheStats::default();
        self.traces.iter().for_each(|t| total.merge(&t.cache));
        total
    }

    /// Renders the execution history as a table (the debugging view §6.1).
    pub fn render_trace(&self) -> String {
        let mut out = String::from(
            "node  op              rows_in  rows_out  llm_calls  tokens  retries  cost_usd\n",
        );
        for t in &self.traces {
            out.push_str(&format!(
                "out_{:<2} {:<15} {:>7}  {:>8}  {:>9}  {:>6}  {:>7}  {:>9.4}\n",
                t.node_id,
                t.op_kind,
                t.rows_in,
                t.rows_out,
                t.llm.calls,
                t.llm.usage.tokens(),
                t.llm.retries,
                t.llm.usage.cost_usd
            ));
        }
        out
    }
}

/// Executes plans against a Sycamore context.
pub struct PlanExecutor {
    pub ctx: sycamore::Context,
    /// Default client for semantic operators.
    pub client: LlmClient,
    /// Optional per-model clients (the optimizer pins models by name).
    pub model_clients: BTreeMap<String, LlmClient>,
    /// Knowledge graph for `graphExpand` nodes (None = the operator errors).
    pub graph: Option<Arc<GraphStore>>,
    /// Span collector; defaults to the context's, so engine-level stage
    /// spans and Luna operator spans land in one trace.
    pub telemetry: Telemetry,
    /// Explicitly pinned MVCC snapshots by index name. `execute` reads a
    /// plan's stores through these when present; stores the plan scans that
    /// are not pinned here get a fresh snapshot taken at plan start. Either
    /// way a whole question runs against one consistent view per store while
    /// ingestion continues underneath.
    pins: RwLock<BTreeMap<String, Arc<StoreSnapshot>>>,
}

impl PlanExecutor {
    pub fn new(ctx: sycamore::Context, client: LlmClient) -> PlanExecutor {
        let telemetry = ctx.telemetry();
        PlanExecutor {
            ctx,
            client,
            model_clients: BTreeMap::new(),
            graph: None,
            telemetry,
            pins: RwLock::new(BTreeMap::new()),
        }
    }

    /// Pins `index` to its current snapshot: every subsequent `execute`
    /// reads the store through this frozen view until [`Self::unpin_all`].
    pub fn pin_index(&self, index: &str) -> Result<Arc<StoreSnapshot>> {
        let snap = self.ctx.snapshot_store(index)?;
        self.pins
            .write()
            .insert(index.to_string(), Arc::clone(&snap));
        Ok(snap)
    }

    /// The explicitly pinned snapshot for `index`, if any.
    pub fn pinned(&self, index: &str) -> Option<Arc<StoreSnapshot>> {
        self.pins.read().get(index).cloned()
    }

    /// Drops all explicit pins; `execute` goes back to snapshotting each
    /// scanned store at plan start.
    pub fn unpin_all(&self) {
        self.pins.write().clear();
    }

    pub fn with_graph(mut self, graph: Arc<GraphStore>) -> PlanExecutor {
        self.graph = Some(graph);
        self
    }

    pub fn with_model(mut self, name: &str, client: LlmClient) -> PlanExecutor {
        self.model_clients.insert(name.to_string(), client);
        self
    }

    fn client_for(&self, model: &str) -> &LlmClient {
        if model.is_empty() {
            &self.client
        } else {
            self.model_clients.get(model).unwrap_or(&self.client)
        }
    }

    /// Runs a validated plan. Beyond structural validation, the semantic
    /// analyzer ([`crate::analyze`]) runs against schemas discovered from
    /// the scanned stores; a plan with Error-severity diagnostics is refused
    /// before any operator executes.
    pub fn execute(&self, plan: &Plan) -> Result<LunaResult> {
        plan.validate()?;
        // Pin every store the plan scans to one MVCC snapshot for the whole
        // run (explicit pins win), so a question sees a single consistent
        // view per store even while an ingest stream mutates it underneath.
        // A store that cannot be snapshotted cannot be scanned either: its
        // `Index` error is the run's error.
        let mut run_pins: BTreeMap<String, Arc<StoreSnapshot>> = self.pins.read().clone();
        for n in &plan.nodes {
            let PlanOp::QueryDatabase { index, .. } = &n.op else { continue };
            if !run_pins.contains_key(index) {
                run_pins.insert(index.clone(), self.ctx.snapshot_store(index)?);
            }
        }
        self.check_plan(plan, &run_pins)?;
        self.record_ingest_spans(&run_pins);
        // One span per plan run recording the execution mode the engine's
        // per-doc stages will use. Gauges only: the mode shapes scheduling,
        // never results, so it must stay out of the trace fingerprint.
        let exec_cfg = self.ctx.exec_config();
        if self.telemetry.is_enabled() && exec_cfg.threads > 1 {
            let mut span = self.telemetry.span("exec_mode", "executor");
            span.gauge("workers", exec_cfg.threads as f64)
                .gauge("morsel_size", exec_cfg.morsel_size as f64);
            span.finish();
        }
        let order = plan.topo_order()?;
        let mut outputs: BTreeMap<usize, NodeOutput> = BTreeMap::new();
        let mut traces = Vec::with_capacity(order.len());
        for id in order {
            let node = plan
                .node(id)
                .ok_or_else(|| ArynError::InvalidPlan(format!("node out_{id} missing from plan")))?;
            let start = Instant::now();
            let scope =
                MeterScope::open(std::iter::once(&self.client).chain(self.model_clients.values()));
            let inputs: Vec<&NodeOutput> = node
                .inputs
                .iter()
                .map(|i| {
                    outputs.get(i).ok_or_else(|| {
                        ArynError::InvalidPlan(format!("input out_{i} not executed before out_{id}"))
                    })
                })
                .collect::<Result<_>>()?;
            let rows_in = inputs.iter().map(|o| o.len()).sum();
            let out = self.run_node(&node.op, &inputs, &outputs, &run_pins)?;
            let (llm, cache) = scope.finish();
            let trace = NodeTrace {
                node_id: id,
                op_kind: node.op.kind().to_string(),
                description: node.description.clone(),
                rows_in,
                rows_out: out.len(),
                wall_ms: start.elapsed().as_secs_f64() * 1000.0,
                llm,
                cache,
                sample_ids: out
                    .rows()
                    .map(|r| r.iter().take(3).map(|d| d.id.0.clone()).collect())
                    .unwrap_or_default(),
                scalar: out.scalar().cloned(),
            };
            self.record_node_span(&trace);
            traces.push(trace);
            outputs.insert(id, out);
        }
        let output = outputs.remove(&plan.result).ok_or_else(|| {
            ArynError::InvalidPlan(format!("result node out_{} was never executed", plan.result))
        })?;
        let answer = render_answer(&output);
        Ok(LunaResult {
            output,
            answer,
            traces,
        })
    }

    /// The executor's analyzer gate. It judges the plan against the schema
    /// each pinned snapshot maintains (O(paths), no corpus walk), so the
    /// analyzer and the scan operators see the same frozen view.
    fn check_plan(&self, plan: &Plan, pins: &BTreeMap<String, Arc<StoreSnapshot>>) -> Result<()> {
        let mut schemas: Vec<crate::schema::IndexSchema> = Vec::new();
        for n in &plan.nodes {
            let PlanOp::QueryDatabase { index, .. } = &n.op else { continue };
            if schemas.iter().any(|s| s.index == *index) {
                continue;
            }
            let snap = run_snapshot(pins, index)?;
            schemas.push(crate::schema::IndexSchema::discover(index, snap.len(), snap.schema()));
        }
        let analysis = crate::analyze::analyze(plan, &schemas);
        if self.telemetry.is_enabled() {
            self.telemetry.count(
                "analyze:execute",
                "analyzer",
                &[
                    ("errors", analysis.errors().len() as u64),
                    (
                        "diagnostics",
                        analysis.diagnostics.len() as u64,
                    ),
                ],
            );
        }
        if analysis.has_errors() {
            return Err(ArynError::InvalidPlan(format!(
                "refusing to execute a plan with analyzer errors:\n{}",
                analysis.render_errors()
            )));
        }
        Ok(())
    }

    fn record_node_span(&self, t: &NodeTrace) {
        if !self.telemetry.is_enabled() {
            return;
        }
        let mut span = self
            .telemetry
            .span(format!("out_{}:{}", t.node_id, t.op_kind), "operator");
        span.note(t.description.clone());
        span.set("rows_in", t.rows_in as u64)
            .set("rows_out", t.rows_out as u64)
            .set("retries", t.llm.retries)
            .gauge("wall_ms", t.wall_ms);
        sycamore::stats::write_llm_group(&mut span, &t.llm, &t.cache);
        span.finish();
    }

    /// One span per live ingest stream feeding a store this run pinned:
    /// stream progress (docs/seals/compactions) and the current index lag,
    /// so `explain_analyze` can say what was churning under the question.
    /// Quiet stores record nothing.
    fn record_ingest_spans(&self, pins: &BTreeMap<String, Arc<StoreSnapshot>>) {
        if !self.telemetry.is_enabled() {
            return;
        }
        for index in pins.keys() {
            let Some(stream) = self.ctx.ingest_stream(index) else { continue };
            if stream.docs() == 0 {
                continue;
            }
            let mut span = self.telemetry.span(format!("ingest@{index}"), "ingest");
            span.note(format!("index={index}"));
            span.set("ingest_docs", stream.docs() as u64)
                .set("ingest_seals", stream.seals() as u64)
                .set("ingest_compactions", stream.compactions() as u64)
                .gauge("index_lag_ms", stream.last_lag_ms())
                .gauge("index_lag_max_ms", stream.max_lag_ms());
            // Durability/recovery counters (all zero for in-memory stores).
            if let Ok(stats) = self.ctx.with_store(index, |s| s.stats()) {
                for (key, n) in [
                    ("wal_appends", stats.wal_appends),
                    ("wal_replayed", stats.wal_replayed),
                    ("torn_tail_truncated", stats.torn_tail_truncated),
                    ("segments_recovered", stats.segments_recovered),
                    ("orphans_removed", stats.orphans_removed),
                    ("storage_io_errors", stats.io_errors),
                ] {
                    span.set(key, n as u64);
                }
            }
            span.finish();
        }
    }

    fn run_node(
        &self,
        op: &PlanOp,
        inputs: &[&NodeOutput],
        all: &BTreeMap<usize, NodeOutput>,
        pins: &BTreeMap<String, Arc<StoreSnapshot>>,
    ) -> Result<NodeOutput> {
        let rows_of = |i: usize| -> Result<&[Arc<Document>]> {
            inputs
                .get(i)
                .and_then(|o| o.rows())
                .ok_or_else(|| ArynError::Exec(format!("{} expects a row input", op.kind())))
        };
        match op {
            PlanOp::QueryDatabase { index, prefilter } => {
                let filter = RowFilter::all_eq(prefilter.iter().map(|(path, value)| (path, value)));
                // The run's pinned snapshot: consistent reads while
                // ingestion continues underneath. The property conjuncts are
                // evaluated inside the store's scan.
                let rows = run_snapshot(pins, index)?
                    .filter_shared(&filter.props)
                    .filter(|d| filter.keeps_id(d))
                    .map(Arc::clone)
                    .collect();
                Ok(NodeOutput::Rows(rows))
            }
            PlanOp::BasicFilter { path, value } => {
                let filter = RowFilter::all_eq([(path, value)]);
                Ok(kept(rows_of(0)?, |d| filter.keeps_id(d) && filter.props.matches(d)))
            }
            PlanOp::RangeFilter { path, lo, hi } => {
                let range = Predicate::Range { path: path.clone(), lo: lo.clone(), hi: hi.clone() }
                    .compile();
                Ok(kept(rows_of(0)?, |d| range.matches(d)))
            }
            PlanOp::LlmFilter { predicate, model } => {
                let out = self
                    .ctx
                    .read_shared(rows_of(0)?)
                    .llm_filter(self.client_for(model), predicate)
                    .collect_shared()?;
                Ok(NodeOutput::Rows(out))
            }
            PlanOp::LlmExtract { field, ftype, model } => {
                let schema = aryn_core::obj! { field.as_str() => ftype.as_str() };
                let out = self
                    .ctx
                    .read_shared(rows_of(0)?)
                    .extract_properties(self.client_for(model), schema)
                    .collect_shared()?;
                Ok(NodeOutput::Rows(out))
            }
            PlanOp::Count => Ok(NodeOutput::Scalar(Value::Int(rows_of(0)?.len() as i64))),
            PlanOp::Aggregate { key, func, path } => {
                let aggs = [("value".to_string(), agg_from_name(func, path)?)];
                if key.is_empty() {
                    // Whole-collection aggregate → scalar.
                    let groups = sycamore::transforms::reduce_by_key(rows_of(0)?, "__all__", &aggs);
                    let v = groups
                        .first()
                        .and_then(|g| g.prop("value"))
                        .cloned()
                        .unwrap_or(Value::Null);
                    Ok(NodeOutput::Scalar(v))
                } else {
                    Ok(NodeOutput::Rows(sycamore::transforms::reduce_by_key(rows_of(0)?, key, &aggs)))
                }
            }
            PlanOp::Sort { path, descending } => Ok(NodeOutput::Rows(
                sycamore::transforms::sort_by(rows_of(0)?, path, *descending),
            )),
            PlanOp::TopK { path, descending, k } => {
                let mut docs = sycamore::transforms::sort_by(rows_of(0)?, path, *descending);
                docs.truncate(*k);
                Ok(NodeOutput::Rows(docs))
            }
            PlanOp::Join { on } => {
                let left = rows_of(0)?;
                let right = rows_of(1)?;
                let mut out = Vec::new();
                for l in left {
                    let Some(lv) = l.prop(on) else { continue };
                    for r in right {
                        if r.prop(on).is_some_and(|rv| rv.loose_eq(lv)) {
                            let mut merged = Document::clone(l);
                            if let (Some(dst), Some(src)) = (
                                merged.properties.as_object_mut(),
                                r.properties.as_object(),
                            ) {
                                for (k, v) in src {
                                    dst.entry(k.clone()).or_insert_with(|| v.clone());
                                }
                            }
                            merged.lineage.push(
                                aryn_core::LineageRecord::new("join", on.clone())
                                    .with_sources(vec![l.id.0.clone(), r.id.0.clone()]),
                            );
                            out.push(Arc::new(merged));
                        }
                    }
                }
                Ok(NodeOutput::Rows(out))
            }
            PlanOp::Math { expr } => {
                // Substitute {out_N} with scalar values from the whole DAG.
                let resolved = substitute_outputs(expr, all)?;
                let v = eval_math(&resolved)?;
                Ok(NodeOutput::Scalar(Value::Float(v)))
            }
            PlanOp::GraphExpand { relation, output } => {
                let graph = self.graph.as_ref().ok_or_else(|| {
                    ArynError::Exec("graphExpand requires a knowledge graph".into())
                })?;
                let docs = rows_of(0)?;
                let mut out = Vec::with_capacity(docs.len());
                for row in docs {
                    let mut d = Document::clone(row);
                    // Resolve the row to a graph node: by a name-like
                    // property first, then by document id.
                    let node_id = ["company", "entity", "name"]
                        .iter()
                        .find_map(|k| d.prop(k).and_then(Value::as_str).map(str::to_string))
                        .unwrap_or_else(|| d.id.0.clone());
                    let mut neighbors: Vec<String> = graph
                        .neighbors(&node_id, Some(relation))
                        .into_iter()
                        .map(|n| n.id.clone())
                        .chain(
                            graph
                                .incoming(&node_id, Some(relation))
                                .into_iter()
                                .map(|n| n.id.clone()),
                        )
                        .collect();
                    neighbors.sort();
                    neighbors.dedup();
                    d.properties.set_path(
                        output,
                        Value::Array(neighbors.into_iter().map(Value::from).collect()),
                    );
                    d.lineage.push(
                        aryn_core::LineageRecord::new("graph_expand", relation.clone()),
                    );
                    out.push(Arc::new(d));
                }
                Ok(NodeOutput::Rows(out))
            }
            PlanOp::SummarizeData { instructions } => {
                let doc =
                    sycamore::transforms::summarize_all(&self.client, instructions, rows_of(0)?)?;
                let text = doc
                    .prop("summary")
                    .and_then(Value::as_str)
                    .unwrap_or("")
                    .to_string();
                Ok(NodeOutput::Scalar(Value::from(text)))
            }
            PlanOp::LlmGenerate { question } => {
                // Render rows (and any scalar inputs) as context and ask.
                let mut context = String::new();
                for o in inputs {
                    match o {
                        NodeOutput::Scalar(v) => {
                            context.push_str(&format!("value: {v}\n"));
                        }
                        NodeOutput::Rows(rows) => {
                            for d in rows.iter().take(40) {
                                context.push_str(&format!(
                                    "- {}: {}\n",
                                    d.id,
                                    aryn_core::json::to_string(&d.properties)
                                ));
                            }
                        }
                    }
                }
                let prompt = self
                    .client
                    .fit_prompt(&context, 512, |c| tasks::answer(question, c));
                let v = self.client.generate_json(&prompt, 512)?;
                let answer = v
                    .get("answer")
                    .map(|a| a.display_text())
                    .unwrap_or_default();
                Ok(NodeOutput::Scalar(Value::from(answer)))
            }
        }
    }
}

/// The run's snapshot of `index`; `execute` pins every store the plan scans
/// before any node runs.
fn run_snapshot<'a>(
    pins: &'a BTreeMap<String, Arc<StoreSnapshot>>,
    index: &str,
) -> Result<&'a Arc<StoreSnapshot>> {
    pins.get(index)
        .ok_or_else(|| ArynError::Index(format!("index {index:?} was not pinned for this run")))
}

/// A structured Luna filter lowered onto the store's predicate evaluator.
/// The `_id` pseudo-field is the document key, not a property, so equality
/// on it is peeled off here and compared against the key directly.
struct RowFilter {
    props: CompiledPredicate,
    ids: Vec<Value>,
}

impl RowFilter {
    /// The conjunction of `path == value` pairs.
    fn all_eq<'a>(pairs: impl IntoIterator<Item = (&'a String, &'a Value)>) -> RowFilter {
        let mut ids = Vec::new();
        let mut props = Vec::new();
        for (path, value) in pairs {
            if path == "_id" {
                ids.push(value.clone());
            } else {
                props.push(Predicate::Eq(path.clone(), value.clone()));
            }
        }
        RowFilter { props: Predicate::And(props).compile(), ids }
    }

    fn keeps_id(&self, d: &Document) -> bool {
        self.ids
            .iter()
            .all(|v| v.as_str().is_some_and(|s| d.id.as_str().eq_ignore_ascii_case(s)))
    }
}

/// The rows `keep` accepts, as pointers to the same documents.
fn kept(rows: &[Arc<Document>], keep: impl Fn(&Document) -> bool) -> NodeOutput {
    NodeOutput::Rows(rows.iter().filter(|d| keep(d)).map(Arc::clone).collect())
}

fn agg_from_name(func: &str, path: &str) -> Result<sycamore::Agg> {
    Ok(match func {
        "count" | "" => sycamore::Agg::Count,
        "sum" => sycamore::Agg::Sum(path.to_string()),
        "avg" | "mean" | "average" => sycamore::Agg::Avg(path.to_string()),
        "min" => sycamore::Agg::Min(path.to_string()),
        "max" => sycamore::Agg::Max(path.to_string()),
        other => {
            return Err(ArynError::InvalidPlan(format!(
                "unknown aggregate function {other:?}"
            )))
        }
    })
}

fn render_answer(output: &NodeOutput) -> String {
    match output {
        NodeOutput::Scalar(Value::Str(s)) => s.clone(),
        NodeOutput::Scalar(v) => v.to_string(),
        NodeOutput::Rows(rows) => {
            let mut out = String::new();
            for d in rows.iter().take(10) {
                out.push_str(&format!("{}: {}\n", d.id, aryn_core::json::to_string(&d.properties)));
            }
            if rows.len() > 10 {
                out.push_str(&format!("... ({} rows total)\n", rows.len()));
            }
            out
        }
    }
}

/// Replaces `{out_N}` references with their scalar values.
fn substitute_outputs(expr: &str, all: &BTreeMap<usize, NodeOutput>) -> Result<String> {
    let mut out = String::new();
    let mut rest = expr;
    while let Some(start) = rest.find("{out_") {
        out.push_str(&rest[..start]);
        let after = &rest[start + 5..];
        let end = after
            .find('}')
            .ok_or_else(|| ArynError::Exec("unclosed {out_N} reference".into()))?;
        let id: usize = after[..end]
            .parse()
            .map_err(|_| ArynError::Exec(format!("bad node reference {{out_{}}}", &after[..end])))?;
        let node = all
            .get(&id)
            .ok_or_else(|| ArynError::Exec(format!("math references out_{id} which has not run")))?;
        let v = match node {
            NodeOutput::Scalar(v) => v
                .as_float()
                .ok_or_else(|| ArynError::Exec(format!("out_{id} is not numeric")))?,
            NodeOutput::Rows(r) => r.len() as f64,
        };
        out.push_str(&format!("{v}"));
        rest = &after[end + 1..];
    }
    out.push_str(rest);
    Ok(out)
}

/// Evaluates arithmetic: `+ - * /`, parentheses, unary minus.
pub fn eval_math(expr: &str) -> Result<f64> {
    let tokens = math_tokens(expr)?;
    let mut pos = 0;
    let v = parse_expr(&tokens, &mut pos)?;
    if pos != tokens.len() {
        return Err(ArynError::Exec(format!("trailing tokens in math expr {expr:?}")));
    }
    Ok(v)
}

#[derive(Debug, PartialEq)]
enum Tok {
    Num(f64),
    Plus,
    Minus,
    Star,
    Slash,
    LParen,
    RParen,
}

fn math_tokens(expr: &str) -> Result<Vec<Tok>> {
    let mut out = Vec::new();
    let bytes = expr.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            ' ' | '\t' => i += 1,
            '+' => {
                out.push(Tok::Plus);
                i += 1;
            }
            '-' => {
                out.push(Tok::Minus);
                i += 1;
            }
            '*' => {
                out.push(Tok::Star);
                i += 1;
            }
            '/' => {
                out.push(Tok::Slash);
                i += 1;
            }
            '(' => {
                out.push(Tok::LParen);
                i += 1;
            }
            ')' => {
                out.push(Tok::RParen);
                i += 1;
            }
            c if c.is_ascii_digit() || c == '.' => {
                let start = i;
                while i < bytes.len()
                    && ((bytes[i] as char).is_ascii_digit() || bytes[i] == b'.' || bytes[i] == b'e'
                        || (bytes[i] == b'-' && i > start && bytes[i - 1] == b'e'))
                {
                    i += 1;
                }
                let n: f64 = expr[start..i]
                    .parse()
                    .map_err(|_| ArynError::Exec(format!("bad number in {expr:?}")))?;
                out.push(Tok::Num(n));
            }
            other => {
                return Err(ArynError::Exec(format!(
                    "unexpected character {other:?} in math expr"
                )))
            }
        }
    }
    Ok(out)
}

fn parse_expr(toks: &[Tok], pos: &mut usize) -> Result<f64> {
    let mut v = parse_term(toks, pos)?;
    while *pos < toks.len() {
        match toks[*pos] {
            Tok::Plus => {
                *pos += 1;
                v += parse_term(toks, pos)?;
            }
            Tok::Minus => {
                *pos += 1;
                v -= parse_term(toks, pos)?;
            }
            _ => break,
        }
    }
    Ok(v)
}

fn parse_term(toks: &[Tok], pos: &mut usize) -> Result<f64> {
    let mut v = parse_factor(toks, pos)?;
    while *pos < toks.len() {
        match toks[*pos] {
            Tok::Star => {
                *pos += 1;
                v *= parse_factor(toks, pos)?;
            }
            Tok::Slash => {
                *pos += 1;
                let d = parse_factor(toks, pos)?;
                if d == 0.0 {
                    return Err(ArynError::Exec("division by zero in math expr".into()));
                }
                v /= d;
            }
            _ => break,
        }
    }
    Ok(v)
}

fn parse_factor(toks: &[Tok], pos: &mut usize) -> Result<f64> {
    match toks.get(*pos) {
        Some(Tok::Num(n)) => {
            *pos += 1;
            Ok(*n)
        }
        Some(Tok::Minus) => {
            *pos += 1;
            Ok(-parse_factor(toks, pos)?)
        }
        Some(Tok::LParen) => {
            *pos += 1;
            let v = parse_expr(toks, pos)?;
            match toks.get(*pos) {
                Some(Tok::RParen) => {
                    *pos += 1;
                    Ok(v)
                }
                _ => Err(ArynError::Exec("missing closing paren".into())),
            }
        }
        _ => Err(ArynError::Exec("expected number or '('".into())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn math_evaluator() {
        assert_eq!(eval_math("1 + 2 * 3").unwrap(), 7.0);
        assert_eq!(eval_math("(1 + 2) * 3").unwrap(), 9.0);
        assert_eq!(eval_math("100 * 4 / 8").unwrap(), 50.0);
        assert_eq!(eval_math("-3 + 5").unwrap(), 2.0);
        assert_eq!(eval_math("2.5 * 2").unwrap(), 5.0);
        assert!(eval_math("1 / 0").is_err());
        assert!(eval_math("1 +").is_err());
        assert!(eval_math("(1").is_err());
        assert!(eval_math("foo").is_err());
        assert!(eval_math("1 2").is_err());
    }

    #[test]
    fn substitution_resolves_scalars_and_rowcounts() {
        let mut all = BTreeMap::new();
        all.insert(2usize, NodeOutput::Scalar(Value::Int(8)));
        all.insert(
            4usize,
            NodeOutput::Rows(vec![Arc::new(Document::new("a")), Arc::new(Document::new("b"))]),
        );
        let s = substitute_outputs("100 * {out_4} / {out_2}", &all).unwrap();
        assert_eq!(eval_math(&s).unwrap(), 25.0);
        assert!(substitute_outputs("{out_9}", &all).is_err());
        assert!(substitute_outputs("{out_", &all).is_err());
    }

    #[test]
    fn render_answer_shapes() {
        assert_eq!(render_answer(&NodeOutput::Scalar(Value::from("hi"))), "hi");
        assert_eq!(render_answer(&NodeOutput::Scalar(Value::Int(3))), "3");
        let rows = NodeOutput::Rows(vec![Arc::new(Document::new("x"))]);
        assert!(render_answer(&rows).contains("x:"));
    }
}
