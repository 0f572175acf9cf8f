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
//!
//! A `queryDatabase` and the `basicFilter`/`rangeFilter` nodes under it do
//! not even collect pointers: they stay a [`Selection`] — the pinned
//! snapshot plus a conjunction — that the store evaluates on its columns.
//! `count` reads its length, `aggregate` folds projected values, and rows
//! are collected only for a consumer that needs them. A keyed `aggregate`
//! over it leaves its groups' lineage sources to gather the same way: a
//! `topK` gathers only the sources of the groups it keeps.

use crate::analyze::{Analyzer, CheckedPlan, Parsed};
use crate::ops::{Plan, PlanOp, ANSWER_MAX_OUTPUT, GRAPH_LOOKUP_KEYS};
use crate::schema::IndexSchema;
use aryn_core::{ArynError, Document, Result, Value};
use aryn_index::{CompiledPredicate, GraphStore, Predicate, ScanStats, StoreSnapshot};
use aryn_llm::prompt::tasks;
use aryn_llm::{CacheStats, LlmClient, MeterScope, UsageStats};
use aryn_telemetry::Telemetry;
use parking_lot::RwLock;
use std::cell::{Cell, OnceCell};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;
use sycamore::transforms::{AggFold, GroupFold};

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

    /// Runs a plan the analyzer has not checked: it is checked against the
    /// schemas its scanned stores maintain as pinned for this run, and a
    /// plan with Error-severity diagnostics is refused before any operator
    /// executes.
    pub fn execute(&self, plan: &Plan) -> Result<LunaResult> {
        let pins = self.pin_scanned(plan)?;
        self.run_pinned(&check_pinned(plan, &pins)?, &pins)
    }

    /// Runs a checked plan. It pins each store the plan scans once; when a
    /// pin no longer maintains the schema the plan was checked by (a write
    /// changed it since), the plan is checked again against the pins.
    pub fn run(&self, plan: &CheckedPlan) -> Result<LunaResult> {
        let pins = self.pin_scanned(plan.plan())?;
        let judged = scanned(plan.plan()).all(|index| {
            let snap = &pins[index];
            plan.schemas().iter().any(|s| s.index == *index && s.describes(snap.len(), snap.shared_schema()))
        });
        let rechecked;
        let plan = if judged { plan } else { rechecked = check_pinned(plan.plan(), &pins)?; &rechecked };
        self.run_pinned(plan, &pins)
    }

    /// Pins every store the plan scans to one MVCC snapshot for the whole
    /// run (explicit pins win), so a question sees a single consistent view
    /// per store even while an ingest stream mutates it underneath. A store
    /// that cannot be snapshotted cannot be scanned either: its `Index`
    /// error is the run's error.
    fn pin_scanned(&self, plan: &Plan) -> Result<Pins> {
        let mut pins = self.pins.read().clone();
        for index in scanned(plan) {
            if !pins.contains_key(index) {
                pins.insert(index.clone(), self.ctx.snapshot_store(index)?);
            }
        }
        Ok(pins)
    }

    /// Runs a checked plan over the snapshots `pin_scanned` took for it.
    fn run_pinned(&self, plan: &CheckedPlan, pins: &Pins) -> Result<LunaResult> {
        if self.telemetry.is_enabled() {
            let analysis = plan.analysis();
            let counts = [("errors", analysis.errors().len() as u64), ("diagnostics", analysis.diagnostics.len() as u64)];
            self.telemetry.count("analyze:execute", "analyzer", &counts);
        }
        self.record_ingest_spans(pins);
        // One span per plan run recording the execution mode the engine's
        // per-doc stages will use. Gauges only: the mode shapes scheduling,
        // never results, so it must stay out of the trace fingerprint.
        let exec_cfg = self.ctx.exec_config();
        if self.telemetry.is_enabled() && exec_cfg.threads > 1 {
            let mut span = self.telemetry.span("exec_mode", "executor");
            span.gauge("workers", exec_cfg.threads as f64);
            span.finish();
        }
        // Each node's output, in run order: the check ran every input and
        // every math reference before the node that reads it.
        let mut outputs: Vec<Out> = Vec::with_capacity(plan.plan().nodes.len());
        let mut traces = Vec::with_capacity(plan.plan().nodes.len());
        for (node, parsed) in plan.steps() {
            let start = Instant::now();
            let scope =
                MeterScope::open(std::iter::once(&self.client).chain(self.model_clients.values()));
            let inputs: Vec<&Out> = node.inputs.iter().map(|&i| &outputs[plan.slot(i)]).collect();
            let rows_in = inputs.iter().map(|o| o.len()).sum();
            let reads = Cell::new(ReadStats::default());
            let of_node = |id: usize| &outputs[plan.slot(id)];
            let out = self.run_node(&node.op, parsed, &inputs, of_node, pins, &reads)?;
            let (llm, cache) = scope.finish();
            let trace = NodeTrace {
                node_id: node.id,
                op_kind: node.op.kind().to_string(),
                description: node.description.clone(),
                rows_in,
                rows_out: out.len(),
                wall_ms: start.elapsed().as_secs_f64() * 1000.0,
                llm,
                cache,
                sample_ids: out.sample_ids(),
                scalar: out.scalar().cloned(),
            };
            self.record_node_span(&trace, reads.get());
            traces.push(trace);
            outputs.push(out);
        }
        let output = outputs.swap_remove(plan.slot(plan.plan().result)).into_output();
        let answer = render_answer(&output);
        Ok(LunaResult {
            output,
            answer,
            traces,
        })
    }

    fn record_node_span(&self, t: &NodeTrace, read: ReadStats) {
        if !self.telemetry.is_enabled() {
            return;
        }
        let mut span = self
            .telemetry
            .span(format!("out_{}:{}", t.node_id, t.op_kind), "operator");
        if !t.description.is_empty() {
            span.note(t.description.clone());
        }
        span.set("rows_in", t.rows_in as u64)
            .set("rows_out", t.rows_out as u64)
            .set("retries", t.llm.retries)
            .gauge("wall_ms", t.wall_ms);
        // Where the node's structured reads ran. Gauges: which reads build
        // a column depends on what ran before on the store, not on the plan.
        if read != ReadStats::default() {
            span.gauge("column_rows", read.column_rows as f64)
                .gauge("row_rows", read.row_rows as f64)
                .gauge("columns_built", read.columns_built as f64);
        }
        // The LLM group only where the node met a model or its cache: an
        // absent counter reads as 0.
        if t.llm != UsageStats::default() || t.cache != CacheStats::default() {
            sycamore::stats::write_llm_group(&mut span, &t.llm, &t.cache);
        }
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

    /// Runs one node over its inputs; `of_node` is the output of any node
    /// that ran before it.
    fn run_node<'o>(
        &self,
        op: &PlanOp,
        parsed: &Parsed,
        inputs: &[&'o Out],
        of_node: impl Fn(usize) -> &'o Out,
        pins: &Pins,
        reads: &Cell<ReadStats>,
    ) -> Result<Out> {
        // Every analyzer runs `scalar-input` and only an analyzer makes a
        // checked plan, so no row operator meets a scalar input here; this
        // is the executor's one check of it.
        if !matches!(op, PlanOp::Math { .. } | PlanOp::LlmGenerate { .. })
            && inputs.iter().any(|o| o.scalar().is_some())
        {
            return Err(ArynError::Exec(format!("{} expects a row input", op.kind())));
        }
        // The check's structural pass gave each node its operator's arity.
        let rows_of = |i: usize| inputs[i].rows(reads).unwrap_or_default();
        let rows = |r: Vec<Arc<Document>>| Ok(Out::Done(NodeOutput::Rows(r)));
        let scalar = |v: Value| Ok(Out::Done(NodeOutput::Scalar(v)));
        match (op, parsed) {
            (PlanOp::QueryDatabase { index, prefilter }, _) => {
                // The run's pinned snapshot: consistent reads while
                // ingestion continues underneath.
                let conjuncts = prefilter.iter().map(|(path, value)| Conjunct::eq(path, value));
                Ok(Out::Selection(Selection::new(Arc::clone(&pins[index]), conjuncts, reads)))
            }
            (PlanOp::BasicFilter { path, value }, _) => {
                let c = Conjunct::eq(path, value);
                match inputs[0] {
                    Out::Selection(sel) => Ok(Out::Selection(sel.narrowed(c, reads))),
                    _ => rows(kept(rows_of(0), &c, reads)),
                }
            }
            (PlanOp::RangeFilter { path, lo, hi }, _) => {
                let c = Conjunct::Prop(Predicate::Range { path: path.clone(), lo: lo.clone(), hi: hi.clone() });
                match inputs[0] {
                    Out::Selection(sel) => Ok(Out::Selection(sel.narrowed(c, reads))),
                    _ => rows(kept(rows_of(0), &c, reads)),
                }
            }
            (PlanOp::LlmFilter { predicate, model }, _) => rows(
                self.ctx
                    .read_shared(rows_of(0))
                    .llm_filter(self.client_for(model), predicate)
                    .collect_shared()?,
            ),
            (PlanOp::LlmExtract { field, ftype, model }, _) => {
                let schema = aryn_core::obj! { field.as_str() => ftype.as_str() };
                rows(
                    self.ctx
                        .read_shared(rows_of(0))
                        .extract_properties(self.client_for(model), schema)
                        .collect_shared()?,
                )
            }
            (PlanOp::Count, _) => scalar(Value::Int(inputs[0].len() as i64)),
            (PlanOp::Aggregate { key, path, .. }, Parsed::Aggregate(func)) => {
                let agg = func.agg(path);
                let src = inputs[0];
                if key.is_empty() {
                    // Whole-collection aggregate → scalar (`Null` over no rows).
                    let mut fold = AggFold::new(&agg);
                    src.fold(agg.path().into_iter().collect(), reads, |_, vals| {
                        fold.push(vals.first().copied().flatten())
                    });
                    scalar(if fold.pushed() == 0 { Value::Null } else { fold.finish() })
                } else {
                    let aggs = [("value".to_string(), agg)];
                    let mut fold = GroupFold::new(key, &aggs);
                    let path = aggs[0].1.path();
                    match src {
                        Out::Selection(sel) => Ok(Out::Groups(sel.grouped(key, path, fold, reads))),
                        _ => {
                            let paths = std::iter::once(key.as_str()).chain(path).collect();
                            src.fold(paths, reads, |id, vals| fold.push(id, vals[0], &vals[1..]));
                            rows(fold.finish())
                        }
                    }
                }
            }
            (PlanOp::Sort { path, descending }, _) => {
                rows(sycamore::transforms::sort_by(rows_of(0), path, *descending))
            }
            (PlanOp::TopK { path, descending, k }, _) => {
                let mut docs = match inputs[0] {
                    Out::Groups(groups) => groups.top(path, *descending, *k, reads),
                    _ => sycamore::transforms::sort_by(rows_of(0), path, *descending),
                };
                docs.truncate(*k);
                rows(docs)
            }
            (PlanOp::Join { on }, _) => {
                let left = rows_of(0);
                let right = rows_of(1);
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
                rows(out)
            }
            (PlanOp::Math { .. }, Parsed::Math(expr)) => {
                scalar(Value::Float(expr.eval(|id| of_node(id).math_value(id))?))
            }
            // The check parses every aggregate's function and every math
            // expression; no other code makes a checked plan.
            (PlanOp::Aggregate { .. } | PlanOp::Math { .. }, _) => {
                Err(ArynError::Exec(format!("{} node without its parsed parameters", op.kind())))
            }
            (PlanOp::GraphExpand { relation, output }, _) => {
                let graph = self.graph.as_ref().ok_or_else(|| {
                    ArynError::Exec("graphExpand requires a knowledge graph".into())
                })?;
                let docs = rows_of(0);
                let mut out = Vec::with_capacity(docs.len());
                for row in docs {
                    let mut d = Document::clone(row);
                    // Resolve the row to a graph node: by a name-like
                    // property first, then by document id.
                    let node_id = GRAPH_LOOKUP_KEYS
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
                rows(out)
            }
            (PlanOp::SummarizeData { instructions }, _) => {
                let doc =
                    sycamore::transforms::summarize_all(&self.client, instructions, rows_of(0))?;
                let text = doc
                    .prop("summary")
                    .and_then(Value::as_str)
                    .unwrap_or("")
                    .to_string();
                scalar(Value::from(text))
            }
            (PlanOp::LlmGenerate { question }, _) => {
                // Render rows (and any scalar inputs) as context and ask.
                let mut context = String::new();
                for o in inputs {
                    match o.rows(reads) {
                        None => {
                            let v = o.scalar().unwrap_or(&Value::Null);
                            context.push_str(&format!("value: {v}\n"));
                        }
                        Some(rows) => {
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
                    .fit_prompt(&context, ANSWER_MAX_OUTPUT, |c| tasks::answer(question, c));
                let v = self.client.generate_json(&prompt, ANSWER_MAX_OUTPUT)?;
                let answer = v
                    .get("answer")
                    .map(|a| a.display_text())
                    .unwrap_or_default();
                scalar(Value::from(answer))
            }
        }
    }
}

/// A run's snapshot of each store, by index name.
type Pins = BTreeMap<String, Arc<StoreSnapshot>>;

/// The indexes a plan scans.
fn scanned(plan: &Plan) -> impl Iterator<Item = &String> {
    plan.nodes.iter().filter_map(|n| match &n.op {
        PlanOp::QueryDatabase { index, .. } => Some(index),
        _ => None,
    })
}

/// The executor's check of `plan` against the schema each pinned snapshot
/// maintains (O(paths), no corpus walk), so the analyzer and the scan
/// operators see the same frozen view.
fn check_pinned(plan: &Plan, pins: &Pins) -> Result<CheckedPlan> {
    let mut schemas: Vec<IndexSchema> = Vec::new();
    for index in scanned(plan) {
        if !schemas.iter().any(|s| s.index == *index) {
            let snap = &pins[index];
            schemas.push(IndexSchema::discover(index, snap.len(), snap.schema()));
        }
    }
    Analyzer::new().check_for("refusing to execute a plan with analyzer errors", plan, schemas.into())
}

/// A structured Luna filter lowered onto the store's predicate evaluator.
/// The `_id` pseudo-field is the document key, not a property, so equality
/// on it is kept apart and compared against the key directly.
enum Conjunct {
    Prop(Predicate),
    Id(Value),
}

impl Conjunct {
    fn eq(path: &str, value: &Value) -> Conjunct {
        if path == "_id" {
            Conjunct::Id(value.clone())
        } else {
            Conjunct::Prop(Predicate::Eq(path.to_string(), value.clone()))
        }
    }
}

fn keeps_id(ids: &[Value], d: &Document) -> bool {
    ids.iter()
        .all(|v| v.as_str().is_some_and(|s| d.id.as_str().eq_ignore_ascii_case(s)))
}

/// The rows the conjunct accepts, as pointers to the same documents.
fn kept(rows: &[Arc<Document>], c: &Conjunct, reads: &Cell<ReadStats>) -> Vec<Arc<Document>> {
    add_row_reads(reads, rows.len());
    let rows = rows.iter();
    match c {
        Conjunct::Prop(p) => {
            let p = p.compile();
            rows.filter(|d| p.matches(d)).map(Arc::clone).collect()
        }
        Conjunct::Id(v) => rows.filter(|d| keeps_id(std::slice::from_ref(v), d)).map(Arc::clone).collect(),
    }
}

/// The rows of a pinned snapshot that pass a conjunction of structured
/// filters, left unmaterialized. Its length and first ids are counted when
/// it is made (every node's trace reports them); the rows themselves are
/// collected once, and only if a consumer asks for them.
struct Selection {
    snap: Arc<StoreSnapshot>,
    /// Property conjuncts, as store predicates.
    props: Vec<Predicate>,
    /// `_id` equalities.
    ids: Vec<Value>,
    pred: CompiledPredicate,
    len: usize,
    sample_ids: Vec<String>,
    rows: OnceCell<Vec<Arc<Document>>>,
}

impl Selection {
    fn new(snap: Arc<StoreSnapshot>, conjuncts: impl IntoIterator<Item = Conjunct>, reads: &Cell<ReadStats>) -> Selection {
        let (mut props, mut ids) = (Vec::new(), Vec::new());
        for c in conjuncts {
            match c {
                Conjunct::Prop(p) => props.push(p),
                Conjunct::Id(v) => ids.push(v),
            }
        }
        let pred = Predicate::And(props.clone()).compile();
        let mut sel =
            Selection { snap, props, ids, pred, len: 0, sample_ids: Vec::new(), rows: OnceCell::new() };
        if sel.props.is_empty() && sel.ids.is_empty() {
            // The whole snapshot: its length is known.
            sel.len = sel.snap.len();
            sel.sample_ids = sel.snap.scan().take(3).map(|d| d.id.0.clone()).collect();
        } else {
            let mut matches = sel.snap.filter_shared(&sel.pred);
            sel.sample_ids = matches.by_ref().filter(|d| keeps_id(&sel.ids, d)).take(3).map(|d| d.id.0.clone()).collect();
            // Without `_id` equalities the rest is counted from the store's
            // verdicts alone; with them each row's id is compared.
            sel.len = sel.sample_ids.len()
                + if sel.ids.is_empty() {
                    matches.count_rest()
                } else {
                    matches.by_ref().filter(|d| keeps_id(&sel.ids, d)).count()
                };
            add_column_reads(reads, matches.stats());
        }
        sel
    }

    /// This selection with one more conjunct.
    fn narrowed(&self, c: Conjunct, reads: &Cell<ReadStats>) -> Selection {
        let conjuncts = self.props.iter().cloned().map(Conjunct::Prop);
        let ids = self.ids.iter().cloned().map(Conjunct::Id);
        Selection::new(Arc::clone(&self.snap), conjuncts.chain(ids).chain([c]), reads)
    }

    fn rows(&self, reads: &Cell<ReadStats>) -> &[Arc<Document>] {
        self.rows.get_or_init(|| {
            let mut matches = self.snap.filter_shared(&self.pred);
            let rows = matches.by_ref().filter(|d| keeps_id(&self.ids, d)).map(Arc::clone).collect();
            add_column_reads(reads, matches.stats());
            rows
        })
    }

    /// Folds the rows into `fold` under their value at `key`, with their
    /// value at `path`, from the store's columns: each distinct stored key
    /// finds its group once, at its first kept row, and no row is read
    /// (bar its id, under `_id` equalities).
    fn grouped(&self, key: &str, path: Option<&str>, mut fold: GroupFold, reads: &Cell<ReadStats>) -> Groups {
        let paths: Vec<&str> = path.into_iter().collect();
        let mut of_row: Vec<u32> = Vec::with_capacity(self.len);
        let stats = self.snap.project_grouped(&self.pred, key, &paths, |slot, key, d, vals| {
            if keeps_id(&self.ids, d) {
                let g = *slot.get_or_insert_with(|| fold.slot(key));
                fold.fold_at(g, vals);
                of_row.push(g as u32);
            }
        });
        add_column_reads(reads, stats);
        let positions = fold.positions();
        of_row.iter_mut().for_each(|g| *g = positions[*g as usize] as u32);
        Groups {
            snap: Arc::clone(&self.snap),
            pred: self.pred.clone(),
            ids: self.ids.clone(),
            of_row,
            heads: fold.finish(),
            rows: OnceCell::new(),
        }
    }
}

/// A keyed aggregate over a selection with its lineage still to gather:
/// the group documents without their sources, and the group of each kept
/// row in scan order. `topK` gathers the sources of the groups it keeps,
/// any other consumer every group's, by one more walk of the selection.
struct Groups {
    snap: Arc<StoreSnapshot>,
    pred: CompiledPredicate,
    ids: Vec<Value>,
    /// Per kept row, in scan order, its group's index in `heads`.
    of_row: Vec<u32>,
    /// One document per group, in key order, its sources empty.
    heads: Vec<Arc<Document>>,
    rows: OnceCell<Vec<Arc<Document>>>,
}

impl Groups {
    /// Every group with its sources.
    fn rows(&self, reads: &Cell<ReadStats>) -> &[Arc<Document>] {
        self.rows.get_or_init(|| self.sourced(&(0..self.heads.len()).collect::<Vec<_>>(), reads))
    }

    /// The groups sorted by `path`, as [`sycamore::transforms::sort_by`]
    /// sorts rows, the first `k` with their sources.
    fn top(&self, path: &str, descending: bool, k: usize, reads: &Cell<ReadStats>) -> Vec<Arc<Document>> {
        let mut top = sycamore::transforms::sort_by(&self.heads, path, descending);
        top.truncate(k);
        let keep: Vec<usize> =
            top.iter().filter_map(|t| self.heads.iter().position(|h| Arc::ptr_eq(h, t))).collect();
        self.sourced(&keep, reads)
    }

    /// The groups at `keep`, in that order, each with its sources: the ids
    /// of its rows in scan order.
    fn sourced(&self, keep: &[usize], reads: &Cell<ReadStats>) -> Vec<Arc<Document>> {
        let mut wanted: Vec<Option<usize>> = vec![None; self.heads.len()];
        keep.iter().enumerate().for_each(|(j, &g)| wanted[g] = Some(j));
        let mut sizes = vec![0; keep.len()];
        self.of_row.iter().filter_map(|&g| wanted[g as usize]).for_each(|j| sizes[j] += 1);
        let mut sources: Vec<Vec<String>> = sizes.into_iter().map(Vec::with_capacity).collect();
        let mut matches = self.snap.filter_shared(&self.pred);
        for (d, &g) in matches.by_ref().filter(|d| keeps_id(&self.ids, d)).zip(&self.of_row) {
            if let Some(j) = wanted[g as usize] {
                sources[j].push(d.id.0.clone());
            }
        }
        add_column_reads(reads, matches.stats());
        keep.iter()
            .zip(sources)
            .map(|(&g, ids)| {
                let mut doc = Document::clone(&self.heads[g]);
                if let Some(record) = doc.lineage.last_mut() {
                    record.sources = ids;
                }
                Arc::new(doc)
            })
            .collect()
    }
}

/// Where one node's structured reads ran: on a store's columns (a
/// selection) or on materialized documents.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct ReadStats {
    column_rows: usize,
    row_rows: usize,
    columns_built: usize,
}

fn add_column_reads(reads: &Cell<ReadStats>, more: ScanStats) {
    let mut total = reads.get();
    total.column_rows += more.rows;
    total.columns_built += more.columns_built;
    reads.set(total);
}

fn add_row_reads(reads: &Cell<ReadStats>, rows: usize) {
    let mut total = reads.get();
    total.row_rows += rows;
    reads.set(total);
}

/// A node's output while the plan runs.
enum Out {
    Done(NodeOutput),
    Selection(Selection),
    Groups(Groups),
}

impl Out {
    fn len(&self) -> usize {
        match self {
            Out::Done(o) => o.len(),
            Out::Selection(sel) => sel.len,
            Out::Groups(groups) => groups.heads.len(),
        }
    }

    fn scalar(&self) -> Option<&Value> {
        match self {
            Out::Done(o) => o.scalar(),
            Out::Selection(_) | Out::Groups(_) => None,
        }
    }

    /// The rows, collecting a selection's on first use.
    fn rows(&self, reads: &Cell<ReadStats>) -> Option<&[Arc<Document>]> {
        match self {
            Out::Done(o) => o.rows(),
            Out::Selection(sel) => Some(sel.rows(reads)),
            Out::Groups(groups) => Some(groups.rows(reads)),
        }
    }

    /// The value a math expression reads for this output of node `id`: a
    /// number, or the row count of a row set.
    fn math_value(&self, id: usize) -> Result<f64> {
        match self.scalar() {
            Some(v) => v.as_float().ok_or_else(|| ArynError::Exec(format!("out_{id} is not numeric"))),
            None => Ok(self.len() as f64),
        }
    }

    fn sample_ids(&self) -> Vec<String> {
        match self {
            Out::Done(o) => {
                o.rows().map(|r| r.iter().take(3).map(|d| d.id.0.clone()).collect()).unwrap_or_default()
            }
            Out::Selection(sel) => sel.sample_ids.clone(),
            Out::Groups(groups) => groups.heads.iter().take(3).map(|d| d.id.0.clone()).collect(),
        }
    }

    /// Streams every row with its id and values at `paths`, in row order:
    /// a selection's from the store's columns, rows' from the documents.
    fn fold(&self, paths: Vec<&str>, reads: &Cell<ReadStats>, mut f: impl FnMut(&str, &[Option<&Value>])) {
        match self {
            Out::Selection(sel) => {
                let stats = sel.snap.project(&sel.pred, &paths, |d, vals| {
                    if keeps_id(&sel.ids, d) {
                        f(d.id.as_str(), vals)
                    }
                });
                add_column_reads(reads, stats);
            }
            Out::Done(_) | Out::Groups(_) => {
                let rows = self.rows(reads).unwrap_or_default();
                add_row_reads(reads, rows.len());
                let mut vals = Vec::with_capacity(paths.len());
                for d in rows {
                    vals.clear();
                    vals.extend(paths.iter().map(|p| d.prop(p)));
                    f(d.id.as_str(), &vals);
                }
            }
        }
    }

    fn into_output(self) -> NodeOutput {
        match self {
            Out::Done(o) => o,
            Out::Selection(sel) => NodeOutput::Rows(sel.rows(&Cell::default()).to_vec()),
            Out::Groups(groups) => NodeOutput::Rows(groups.rows(&Cell::default()).to_vec()),
        }
    }
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::MathExpr;

    #[test]
    fn substitution_resolves_scalars_and_rowcounts() {
        let mut all = BTreeMap::new();
        all.insert(2usize, Out::Done(NodeOutput::Scalar(Value::Int(8))));
        all.insert(
            4usize,
            Out::Done(NodeOutput::Rows(vec![Arc::new(Document::new("a")), Arc::new(Document::new("b"))])),
        );
        all.insert(5usize, Out::Done(NodeOutput::Scalar(Value::from("text"))));
        let eval = |expr: &str| MathExpr::parse(expr)?.eval(|id| all[&id].math_value(id));
        assert_eq!(eval("100 * {out_4} / {out_2}").unwrap(), 25.0);
        assert!(eval("{out_5} + 1").is_err());
        assert!(eval("{out_").is_err());
    }

    #[test]
    fn render_answer_shapes() {
        assert_eq!(render_answer(&NodeOutput::Scalar(Value::from("hi"))), "hi");
        assert_eq!(render_answer(&NodeOutput::Scalar(Value::Int(3))), "3");
        let rows = NodeOutput::Rows(vec![Arc::new(Document::new("x"))]);
        assert!(render_answer(&rows).contains("x:"));
    }
}
