//! Luna's logical query plans.
//!
//! "Luna uses an LLM to interpret a user question and decompose it to a DAG
//! of data processing operations ... The LLM generates the plan in JSON
//! format, which we translate into Sycamore code for execution" (§6.1).
//!
//! A [`Plan`] is a DAG of [`PlanNode`]s mixing traditional operators
//! (query/filter/count/aggregate/join/sort/math) with semantic operators
//! (`llmFilter`, `llmExtract`, `summarizeData`, `llmGenerate`). Plans are
//! data: they serialize to/from JSON, validate structurally, render as
//! natural language (Figure 5) and as Python-like code (Figure 6), and can
//! be edited by a human before execution.

use crate::analyze::FieldType;
use aryn_core::text::count_tokens;
use aryn_core::{json, obj, ArynError, Result, Value};
use aryn_llm::prompt::tasks;
use std::collections::BTreeSet;

/// One plan operator.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanOp {
    /// Scan a named document store, optionally with a structured prefilter
    /// (`field`, `value` loose-equality pairs). Source node (no inputs).
    QueryDatabase {
        index: String,
        prefilter: Vec<(String, Value)>,
    },
    /// Structured filter on an existing property.
    BasicFilter { path: String, value: Value },
    /// Structured range filter on a property (inclusive bounds, either
    /// optional).
    RangeFilter {
        path: String,
        lo: Option<Value>,
        hi: Option<Value>,
    },
    /// Semantic filter via LLM. `model` optionally pins a model (the
    /// optimizer's choice); empty = executor default.
    LlmFilter { predicate: String, model: String },
    /// Query-time property extraction via LLM (the Figure 5 "LLM Extract
    /// incident root cause" node).
    LlmExtract {
        field: String,
        ftype: String,
        model: String,
    },
    /// Count rows → scalar.
    Count,
    /// Group by `key` (empty = single group) with an aggregate over `path`.
    Aggregate {
        key: String,
        func: String, // "count" | "sum" | "avg" | "min" | "max"
        path: String,
    },
    /// Sort rows by property.
    Sort { path: String, descending: bool },
    /// Top-k rows by property.
    TopK {
        path: String,
        descending: bool,
        k: usize,
    },
    /// Join two inputs on equal property values.
    Join { on: String },
    /// Arithmetic over scalar node outputs: `"100 * {out_4} / {out_2}"`.
    Math { expr: String },
    /// Expand each row with its knowledge-graph neighbours over a relation
    /// (the §1 data-integration pattern: "...and their competitors"); the
    /// neighbour ids land in the `output` property.
    GraphExpand { relation: String, output: String },
    /// Collection summarization via LLM.
    SummarizeData { instructions: String },
    /// Final natural-language answer synthesis from rows + scalars.
    LlmGenerate { question: String },
}

impl PlanOp {
    pub fn kind(&self) -> &'static str {
        match self {
            PlanOp::QueryDatabase { .. } => "queryDatabase",
            PlanOp::BasicFilter { .. } => "basicFilter",
            PlanOp::RangeFilter { .. } => "rangeFilter",
            PlanOp::LlmFilter { .. } => "llmFilter",
            PlanOp::LlmExtract { .. } => "llmExtract",
            PlanOp::Count => "count",
            PlanOp::Aggregate { .. } => "aggregate",
            PlanOp::Sort { .. } => "sort",
            PlanOp::TopK { .. } => "topK",
            PlanOp::Join { .. } => "join",
            PlanOp::Math { .. } => "math",
            PlanOp::GraphExpand { .. } => "graphExpand",
            PlanOp::SummarizeData { .. } => "summarizeData",
            PlanOp::LlmGenerate { .. } => "llmGenerate",
        }
    }

    /// How many inputs this operator requires.
    pub fn arity(&self) -> (usize, usize) {
        match self {
            PlanOp::QueryDatabase { .. } => (0, 0),
            PlanOp::Join { .. } => (2, 2),
            PlanOp::Math { .. } | PlanOp::LlmGenerate { .. } => (1, usize::MAX),
            _ => (1, 1),
        }
    }

    /// Whether the operator calls an LLM (cost driver for the optimizer).
    pub fn is_semantic(&self) -> bool {
        self.llm_call().is_some()
    }

    /// All operator kind names, advertised to the planner LLM.
    pub const KINDS: [&'static str; 14] = [
        "queryDatabase",
        "basicFilter",
        "rangeFilter",
        "llmFilter",
        "llmExtract",
        "count",
        "aggregate",
        "sort",
        "topK",
        "join",
        "math",
        "graphExpand",
        "summarizeData",
        "llmGenerate",
    ];

    // --- Operator facts: each stated once, read by the analyzer, the cost
    // model, liveness, the optimizer and the executor. ---------------------

    /// How the operator's output rows relate to its input rows.
    pub(crate) fn row_flow(&self) -> RowFlow<'_> {
        match self {
            PlanOp::QueryDatabase { index, prefilter } => RowFlow::Scan { index, prefiltered: !prefilter.is_empty() },
            PlanOp::BasicFilter { .. } | PlanOp::RangeFilter { .. } | PlanOp::LlmFilter { .. } => RowFlow::Narrowed,
            PlanOp::LlmExtract { .. } | PlanOp::Sort { .. } | PlanOp::GraphExpand { .. } => RowFlow::Kept,
            PlanOp::TopK { k, .. } => RowFlow::Capped(*k),
            PlanOp::Aggregate { key, func, path } if !key.is_empty() => {
                RowFlow::Grouped { key, func: AggFunc::parse(func), path }
            }
            PlanOp::Join { .. } => RowFlow::Joined,
            PlanOp::Count | PlanOp::Math { .. } | PlanOp::Aggregate { .. } => RowFlow::Scalar(FieldType::Num),
            PlanOp::SummarizeData { .. } | PlanOp::LlmGenerate { .. } => RowFlow::Scalar(FieldType::Str),
        }
    }

    /// The property fields the operator reads from its input rows (empty
    /// names are unused slots), or `None` when it serializes every property
    /// into a prompt. `llmFilter`/`llmExtract` prompts render the element
    /// text, never the properties.
    pub(crate) fn reads(&self) -> Option<[&str; 3]> {
        Some(match self {
            PlanOp::BasicFilter { path, .. }
            | PlanOp::RangeFilter { path, .. }
            | PlanOp::Sort { path, .. }
            | PlanOp::TopK { path, .. } => [path, "", ""],
            PlanOp::Aggregate { key, path, .. } => [key, path, ""],
            PlanOp::Join { on } => [on, "", ""],
            PlanOp::GraphExpand { .. } => GRAPH_LOOKUP_KEYS,
            PlanOp::LlmGenerate { .. } | PlanOp::SummarizeData { .. } => return None,
            _ => ["", "", ""],
        })
    }

    /// The property the operator adds to each row, with its type.
    pub(crate) fn writes(&self) -> Option<(&str, FieldType)> {
        match self {
            PlanOp::LlmExtract { field, ftype, .. } => Some((field, FieldType::parse(ftype))),
            PlanOp::GraphExpand { output, .. } => Some((output, FieldType::List)),
            _ => None,
        }
    }

    /// The LLM call of a semantic operator.
    pub(crate) fn llm_call(&self) -> Option<LlmCall<'_>> {
        use sycamore::transforms::{EXTRACT_MAX_OUTPUT, FILTER_MAX_OUTPUT, SUMMARIZE_MAX_OUTPUT};
        let (model, max_output, prompts, terminal) = match self {
            PlanOp::LlmFilter { model, .. } => (model.as_str(), FILTER_MAX_OUTPUT, Prompts::PerRow, Some("string-match")),
            PlanOp::LlmExtract { model, .. } => (model.as_str(), EXTRACT_MAX_OUTPUT, Prompts::PerRow, Some("skip")),
            PlanOp::SummarizeData { .. } => ("", SUMMARIZE_MAX_OUTPUT, Prompts::ReduceTree, None),
            PlanOp::LlmGenerate { .. } => ("", ANSWER_MAX_OUTPUT, Prompts::One, None),
            _ => return None,
        };
        let batchable = prompts == Prompts::PerRow;
        Some(LlmCall { op: self, model, max_output, prompts, batchable, terminal })
    }
}

/// The completion cap of `llmGenerate`'s answer call.
pub(crate) const ANSWER_MAX_OUTPUT: usize = 512;

/// The properties `graphExpand` finds a row's graph node by, in order,
/// before the document id.
pub(crate) const GRAPH_LOOKUP_KEYS: [&str; 3] = ["company", "entity", "name"];

/// How an operator's output rows relate to its input rows.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum RowFlow<'a> {
    /// The documents of `index`, or some of them under a prefilter.
    Scan { index: &'a str, prefiltered: bool },
    /// One output row per input row.
    Kept,
    /// Some of the input rows.
    Narrowed,
    /// At most this many of the input rows.
    Capped(usize),
    /// One row per distinct `key`, carrying the key, `count` and `value`.
    Grouped { key: &'a str, func: Option<AggFunc>, path: &'a str },
    /// The matching pairs of the two inputs' rows, merged.
    Joined,
    /// One value of this type, no rows.
    Scalar(FieldType),
}

/// How many prompts a semantic operator issues: one per input row, a
/// hierarchical reduce (at most `2n + 1` for `n` rows, one at least when any
/// row flows in), or one per run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Prompts {
    PerRow,
    ReduceTree,
    One,
}

/// The LLM call of one semantic operator.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LlmCall<'a> {
    op: &'a PlanOp,
    /// The pinned model; empty means the executor's default model.
    pub model: &'a str,
    /// Completion cap in tokens.
    pub max_output: usize,
    pub prompts: Prompts,
    /// Eligible for cross-document micro-batching.
    pub batchable: bool,
    /// What answers once a reliability policy's degradation ladder is
    /// spent; `None` for a call that walks no ladder.
    pub terminal: Option<&'static str>,
}

impl LlmCall<'_> {
    /// Prompt tokens of the task with an empty context: the minimum of
    /// every singleton call.
    pub(crate) fn envelope(&self) -> f64 {
        let prompt = match self.op {
            PlanOp::LlmFilter { predicate, .. } => tasks::filter(predicate, ""),
            PlanOp::LlmExtract { field, ftype, .. } => tasks::extract(&obj! { field.as_str() => ftype.as_str() }, ""),
            PlanOp::SummarizeData { instructions } => tasks::summarize(instructions, ""),
            PlanOp::LlmGenerate { question } => tasks::answer(question, ""),
            _ => String::new(),
        };
        count_tokens(&prompt) as f64
    }
}

/// An aggregate function, by the names a plan may give it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AggFunc {
    Count,
    Sum,
    Avg,
    Min,
    Max,
}

impl AggFunc {
    /// `None` for a name outside the vocabulary; no name counts.
    pub(crate) fn parse(name: &str) -> Option<AggFunc> {
        Some(match name {
            "count" | "" => AggFunc::Count,
            "sum" => AggFunc::Sum,
            "avg" | "mean" | "average" => AggFunc::Avg,
            "min" => AggFunc::Min,
            "max" => AggFunc::Max,
            _ => return None,
        })
    }

    /// The type of the aggregate over a field of type `path`.
    pub(crate) fn value_type(self, path: FieldType) -> FieldType {
        if matches!(self, AggFunc::Min | AggFunc::Max) { path } else { FieldType::Num }
    }

    /// The engine's fold of this function over `path`.
    pub(crate) fn agg(self, path: &str) -> sycamore::Agg {
        let path = path.to_string();
        match self {
            AggFunc::Count => sycamore::Agg::Count,
            AggFunc::Sum => sycamore::Agg::Sum(path),
            AggFunc::Avg => sycamore::Agg::Avg(path),
            AggFunc::Min => sycamore::Agg::Min(path),
            AggFunc::Max => sycamore::Agg::Max(path),
        }
    }
}

/// A piece of a `math` expression: text, an `{out_N}` reference to node
/// `N`'s output, or a malformed reference (a non-numeric id, or no closing
/// brace), verbatim.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum MathPiece<'a> {
    Text(&'a str),
    Ref(usize),
    Malformed(&'a str),
}

impl std::fmt::Display for MathPiece<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MathPiece::Text(s) | MathPiece::Malformed(s) => f.write_str(s),
            MathPiece::Ref(id) => write!(f, "{{out_{id}}}"),
        }
    }
}

/// Splits a `math` expression into pieces, in order; they render back to
/// the expression.
pub(crate) fn math_pieces(expr: &str) -> impl Iterator<Item = MathPiece<'_>> {
    let (mut rest, mut next) = (Some(expr), None);
    std::iter::from_fn(move || {
        if let Some(piece) = next.take() {
            return Some(piece);
        }
        let text = rest?;
        let Some(start) = text.find("{out_") else {
            rest = None;
            return Some(MathPiece::Text(text));
        };
        let end = text[start..].find('}').map_or(text.len(), |e| start + e + 1);
        let id = text[start + 5..end].strip_suffix('}').and_then(|id| id.parse().ok());
        next = Some(id.map_or(MathPiece::Malformed(&text[start..end]), MathPiece::Ref));
        rest = Some(&text[end..]);
        Some(MathPiece::Text(&text[..start]))
    })
}

/// The nodes a `math` expression references, in order.
pub(crate) fn math_refs(expr: &str) -> impl Iterator<Item = usize> + '_ {
    math_pieces(expr).filter_map(|p| if let MathPiece::Ref(id) = p { Some(id) } else { None })
}

/// A node in the plan DAG.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanNode {
    /// Node id; the node's output is referred to as `out_<id>`.
    pub id: usize,
    pub op: PlanOp,
    /// Ids of input nodes.
    pub inputs: Vec<usize>,
    /// Human-readable description (Luna "expresses the query plans it
    /// produces as natural language text", §6.1).
    pub description: String,
}

/// A query plan: DAG plus designated result node.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    pub nodes: Vec<PlanNode>,
    pub result: usize,
}

impl Plan {
    pub fn node(&self, id: usize) -> Option<&PlanNode> {
        self.nodes.iter().find(|n| n.id == id)
    }

    pub fn node_mut(&mut self, id: usize) -> Option<&mut PlanNode> {
        self.nodes.iter_mut().find(|n| n.id == id)
    }

    /// Topological order of node ids; errors on cycles or dangling inputs.
    pub fn topo_order(&self) -> Result<Vec<usize>> {
        let ids: BTreeSet<usize> = self.nodes.iter().map(|n| n.id).collect();
        let mut order = Vec::new();
        let mut placed: BTreeSet<usize> = BTreeSet::new();
        let mut remaining: Vec<&PlanNode> = self.nodes.iter().collect();
        while !remaining.is_empty() {
            let before = remaining.len();
            remaining.retain(|n| {
                if n.inputs.iter().all(|i| placed.contains(i)) {
                    order.push(n.id);
                    placed.insert(n.id);
                    false
                } else {
                    true
                }
            });
            if remaining.len() == before {
                // No progress: cycle or dangling reference.
                for n in &remaining {
                    for i in &n.inputs {
                        if !ids.contains(i) {
                            return Err(ArynError::InvalidPlan(format!(
                                "node {} references unknown input {}",
                                n.id, i
                            )));
                        }
                    }
                }
                return Err(ArynError::InvalidPlan("plan contains a cycle".into()));
            }
        }
        Ok(order)
    }

    /// Structural validation: unique ids, valid arities, acyclic, result
    /// exists, semantic ops have non-empty parameters.
    ///
    /// Thin wrapper over [`crate::analyze::structural`], which reports the
    /// same checks as [`aryn_core::Diagnostic`]s; the first finding becomes
    /// the `InvalidPlan` message. Semantic checking (field resolution, type
    /// checking, lints) lives in [`crate::analyze::analyze`].
    pub fn validate(&self) -> Result<()> {
        match crate::analyze::structural(self).into_iter().next() {
            Some(d) => Err(ArynError::InvalidPlan(d.message)),
            None => Ok(()),
        }
    }

    // --- JSON ---------------------------------------------------------------

    /// Serializes to the JSON shape the planner LLM produces.
    pub fn to_value(&self) -> Value {
        obj! {
            "result" => self.result as i64,
            "nodes" => self
                .nodes
                .iter()
                .map(|n| {
                    let mut v = obj! {
                        "id" => n.id as i64,
                        "op" => n.op.kind(),
                        "inputs" => n.inputs.iter().map(|i| Value::Int(*i as i64)).collect::<Vec<_>>(),
                        "description" => n.description.as_str(),
                    };
                    op_params(&n.op, &mut v);
                    v
                })
                .collect::<Vec<_>>(),
        }
    }

    /// Parses a plan from the planner LLM's JSON.
    pub fn from_value(v: &Value) -> Result<Plan> {
        let nodes_v = v
            .get("nodes")
            .and_then(Value::as_array)
            .ok_or_else(|| ArynError::InvalidPlan("missing nodes array".into()))?;
        let mut nodes = Vec::with_capacity(nodes_v.len());
        for nv in nodes_v {
            nodes.push(node_from_value(nv)?);
        }
        let result = v
            .get("result")
            .and_then(Value::as_int)
            .map(|i| i as usize)
            .or_else(|| nodes.last().map(|n| n.id))
            .ok_or_else(|| ArynError::InvalidPlan("missing result".into()))?;
        Ok(Plan { nodes, result })
    }

    /// Parses + validates from raw LLM text (lenient JSON).
    ///
    /// ```
    /// use luna::{Plan, PlanOp};
    /// let text = r#"Here is your plan:
    /// {"result": 1, "nodes": [
    ///   {"id": 0, "op": "queryDatabase", "index": "ntsb", "inputs": []},
    ///   {"id": 1, "op": "count", "inputs": [0]}
    /// ]}"#;
    /// let plan = Plan::parse(text).unwrap();
    /// assert!(matches!(plan.node(1).unwrap().op, PlanOp::Count));
    /// ```
    pub fn parse(text: &str) -> Result<Plan> {
        let v = json::parse_lenient(text)
            .map_err(|e| ArynError::InvalidPlan(format!("unparseable plan json: {e}")))?;
        let plan = Plan::from_value(&v)?;
        plan.validate()?;
        Ok(plan)
    }

    /// Natural-language rendering (the Figure 5 view).
    pub fn describe(&self) -> String {
        let mut out = String::new();
        for (i, id) in self.topo_order().unwrap_or_default().iter().enumerate() {
            let Some(n) = self.node(*id) else { continue };
            let desc = if n.description.is_empty() {
                default_description(&n.op)
            } else {
                n.description.clone()
            };
            out.push_str(&format!("{}. [out_{}] {desc}", i + 1, n.id));
            if !n.inputs.is_empty() {
                let ins: Vec<String> = n.inputs.iter().map(|x| format!("out_{x}")).collect();
                out.push_str(&format!(" (inputs: {})", ins.join(", ")));
            }
            out.push('\n');
        }
        out
    }
}

fn default_description(op: &PlanOp) -> String {
    match op {
        PlanOp::QueryDatabase { index, .. } => format!("Scan the {index:?} index"),
        PlanOp::BasicFilter { path, value } => format!("Keep records where {path} = {value}"),
        PlanOp::RangeFilter { path, .. } => format!("Keep records where {path} is in range"),
        PlanOp::LlmFilter { predicate, .. } => format!("LLM filter: {predicate:?}"),
        PlanOp::LlmExtract { field, .. } => format!("LLM extract {field:?} from each record"),
        PlanOp::Count => "Count the records".into(),
        PlanOp::Aggregate { key, func, path } => {
            if key.is_empty() {
                format!("Compute {func} of {path}")
            } else {
                format!("Group by {key} and compute {func} of {path}")
            }
        }
        PlanOp::Sort { path, descending } => format!(
            "Sort by {path} {}",
            if *descending { "descending" } else { "ascending" }
        ),
        PlanOp::TopK { path, k, .. } => format!("Take the top {k} by {path}"),
        PlanOp::Join { on } => format!("Join the two inputs on {on}"),
        PlanOp::Math { expr } => format!("Compute {expr}"),
        PlanOp::GraphExpand { relation, .. } => {
            format!("Look up each record's {relation} neighbours in the knowledge graph")
        }
        PlanOp::SummarizeData { .. } => "Summarize the records".into(),
        PlanOp::LlmGenerate { question } => format!("Generate the answer to {question:?}"),
    }
}

fn op_params(op: &PlanOp, v: &mut Value) {
    match op {
        PlanOp::QueryDatabase { index, prefilter } => {
            v.set_path("index", Value::from(index.as_str()));
            if !prefilter.is_empty() {
                let mut m = std::collections::BTreeMap::new();
                for (k, val) in prefilter {
                    m.insert(k.clone(), val.clone());
                }
                v.set_path("prefilter", Value::Object(m));
            }
        }
        PlanOp::BasicFilter { path, value } => {
            v.set_path("path", Value::from(path.as_str()));
            v.set_path("value", value.clone());
        }
        PlanOp::RangeFilter { path, lo, hi } => {
            v.set_path("path", Value::from(path.as_str()));
            if let Some(lo) = lo {
                v.set_path("lo", lo.clone());
            }
            if let Some(hi) = hi {
                v.set_path("hi", hi.clone());
            }
        }
        PlanOp::LlmFilter { predicate, model } => {
            v.set_path("predicate", Value::from(predicate.as_str()));
            if !model.is_empty() {
                v.set_path("model", Value::from(model.as_str()));
            }
        }
        PlanOp::LlmExtract { field, ftype, model } => {
            v.set_path("field", Value::from(field.as_str()));
            v.set_path("ftype", Value::from(ftype.as_str()));
            if !model.is_empty() {
                v.set_path("model", Value::from(model.as_str()));
            }
        }
        PlanOp::Count => {}
        PlanOp::Aggregate { key, func, path } => {
            v.set_path("key", Value::from(key.as_str()));
            v.set_path("func", Value::from(func.as_str()));
            v.set_path("path", Value::from(path.as_str()));
        }
        PlanOp::Sort { path, descending } => {
            v.set_path("path", Value::from(path.as_str()));
            v.set_path("descending", Value::Bool(*descending));
        }
        PlanOp::TopK { path, descending, k } => {
            v.set_path("path", Value::from(path.as_str()));
            v.set_path("descending", Value::Bool(*descending));
            v.set_path("k", Value::Int(*k as i64));
        }
        PlanOp::Join { on } => {
            v.set_path("on", Value::from(on.as_str()));
        }
        PlanOp::Math { expr } => {
            v.set_path("expr", Value::from(expr.as_str()));
        }
        PlanOp::GraphExpand { relation, output } => {
            v.set_path("relation", Value::from(relation.as_str()));
            v.set_path("output", Value::from(output.as_str()));
        }
        PlanOp::SummarizeData { instructions } => {
            v.set_path("instructions", Value::from(instructions.as_str()));
        }
        PlanOp::LlmGenerate { question } => {
            v.set_path("question", Value::from(question.as_str()));
        }
    }
}

fn node_from_value(v: &Value) -> Result<PlanNode> {
    let id = v
        .get("id")
        .and_then(Value::as_int)
        .ok_or_else(|| ArynError::InvalidPlan("node missing id".into()))? as usize;
    let kind = v
        .get("op")
        .and_then(Value::as_str)
        .ok_or_else(|| ArynError::InvalidPlan(format!("node {id} missing op")))?;
    let s = |k: &str| -> String {
        v.get(k).and_then(Value::as_str).unwrap_or("").to_string()
    };
    let op = match kind {
        "queryDatabase" => PlanOp::QueryDatabase {
            index: s("index"),
            prefilter: v
                .get("prefilter")
                .and_then(Value::as_object)
                .map(|m| m.iter().map(|(k, val)| (k.clone(), val.clone())).collect())
                .unwrap_or_default(),
        },
        "basicFilter" => PlanOp::BasicFilter {
            path: s("path"),
            value: v.get("value").cloned().unwrap_or(Value::Null),
        },
        "rangeFilter" => PlanOp::RangeFilter {
            path: s("path"),
            lo: v.get("lo").cloned(),
            hi: v.get("hi").cloned(),
        },
        "llmFilter" => PlanOp::LlmFilter {
            predicate: s("predicate"),
            model: s("model"),
        },
        "llmExtract" => PlanOp::LlmExtract {
            field: s("field"),
            ftype: Some(s("ftype")).filter(|t| !t.is_empty()).unwrap_or_else(|| "string".into()),
            model: s("model"),
        },
        "count" => PlanOp::Count,
        "aggregate" => PlanOp::Aggregate {
            key: s("key"),
            func: s("func"),
            path: s("path"),
        },
        "sort" => PlanOp::Sort {
            path: s("path"),
            descending: v.get("descending").and_then(Value::as_bool).unwrap_or(false),
        },
        "topK" => PlanOp::TopK {
            path: s("path"),
            descending: v.get("descending").and_then(Value::as_bool).unwrap_or(true),
            k: v.get("k").and_then(Value::as_int).unwrap_or(5) as usize,
        },
        "join" => PlanOp::Join { on: s("on") },
        "math" => PlanOp::Math { expr: s("expr") },
        "graphExpand" => PlanOp::GraphExpand {
            relation: s("relation"),
            output: Some(s("output")).filter(|o| !o.is_empty()).unwrap_or_else(|| "neighbors".into()),
        },
        "summarizeData" => PlanOp::SummarizeData {
            instructions: s("instructions"),
        },
        "llmGenerate" => PlanOp::LlmGenerate {
            question: s("question"),
        },
        other => {
            return Err(ArynError::InvalidPlan(format!(
                "node {id}: unknown operator {other:?}"
            )))
        }
    };
    let inputs = v
        .get("inputs")
        .and_then(Value::as_array)
        .map(|a| {
            a.iter()
                .filter_map(Value::as_int)
                .map(|i| i as usize)
                .collect()
        })
        .unwrap_or_default();
    Ok(PlanNode {
        id,
        op,
        inputs,
        description: s("description"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's Figure 5 plan.
    pub fn figure5_plan() -> Plan {
        Plan {
            nodes: vec![
                PlanNode {
                    id: 0,
                    op: PlanOp::QueryDatabase {
                        index: "ntsb".into(),
                        prefilter: vec![],
                    },
                    inputs: vec![],
                    description: "Scan the ntsb incident reports".into(),
                },
                PlanNode {
                    id: 1,
                    op: PlanOp::LlmFilter {
                        predicate: "caused by environmental factors".into(),
                        model: String::new(),
                    },
                    inputs: vec![0],
                    description: String::new(),
                },
                PlanNode {
                    id: 2,
                    op: PlanOp::Count,
                    inputs: vec![1],
                    description: String::new(),
                },
                PlanNode {
                    id: 3,
                    op: PlanOp::LlmFilter {
                        predicate: "caused by wind".into(),
                        model: String::new(),
                    },
                    inputs: vec![0],
                    description: String::new(),
                },
                PlanNode {
                    id: 4,
                    op: PlanOp::Count,
                    inputs: vec![3],
                    description: String::new(),
                },
                PlanNode {
                    id: 5,
                    op: PlanOp::Math {
                        expr: "100 * {out_4} / {out_2}".into(),
                    },
                    inputs: vec![2, 4],
                    description: String::new(),
                },
            ],
            result: 5,
        }
    }

    #[test]
    fn json_roundtrip() {
        let p = figure5_plan();
        let v = p.to_value();
        let back = Plan::from_value(&v).unwrap();
        assert_eq!(back, p);
        // And through text + lenient parsing with chatter.
        let text = format!("Here's the plan:\n```json\n{}\n```", json::to_string_pretty(&v));
        let reparsed = Plan::parse(&text).unwrap();
        assert_eq!(reparsed, p);
    }

    #[test]
    fn validate_accepts_figure5() {
        assert!(figure5_plan().validate().is_ok());
        let order = figure5_plan().topo_order().unwrap();
        assert_eq!(order[0], 0);
        assert_eq!(order.len(), 6);
        let pos =
            |id: usize| order.iter().position(|x| *x == id).unwrap();
        assert!(pos(1) < pos(2));
        assert!(pos(3) < pos(4));
        assert!(pos(2) < pos(5) && pos(4) < pos(5));
    }

    #[test]
    fn validate_rejects_malformed() {
        // Duplicate ids.
        let mut p = figure5_plan();
        p.nodes[1].id = 0;
        assert!(p.validate().is_err());
        // Dangling input.
        let mut p = figure5_plan();
        p.nodes[1].inputs = vec![99];
        assert!(p.validate().is_err());
        // Cycle.
        let mut p = figure5_plan();
        p.nodes[0].op = PlanOp::Count;
        p.nodes[0].inputs = vec![5];
        assert!(matches!(p.validate(), Err(ArynError::InvalidPlan(m)) if m.contains("cycle")));
        // Wrong arity.
        let mut p = figure5_plan();
        p.nodes[5].op = PlanOp::Join { on: "x".into() };
        p.nodes[5].inputs = vec![2];
        assert!(p.validate().is_err());
        // Missing result.
        let mut p = figure5_plan();
        p.result = 42;
        assert!(p.validate().is_err());
        // Empty predicate.
        let mut p = figure5_plan();
        p.nodes[1].op = PlanOp::LlmFilter { predicate: "  ".into(), model: String::new() };
        assert!(p.validate().is_err());
    }

    #[test]
    fn parse_rejects_unknown_operator() {
        let text = r#"{"result": 0, "nodes": [{"id": 0, "op": "teleport", "inputs": []}]}"#;
        assert!(matches!(Plan::parse(text), Err(ArynError::InvalidPlan(_))));
    }

    #[test]
    fn describe_renders_numbered_steps() {
        let d = figure5_plan().describe();
        assert!(d.contains("1. [out_0]"));
        assert!(d.contains("environmental factors"));
        assert!(d.contains("inputs: out_2, out_4"));
        assert_eq!(d.lines().count(), 6);
    }

    #[test]
    fn math_pieces_split_references_and_render_back() {
        for expr in ["100 * {out_4} / {out_2}", "{out_x} + {out_3}", "1 + {out_", "{out_}{out_7}", "no refs"] {
            assert_eq!(math_pieces(expr).map(|p| p.to_string()).collect::<String>(), expr);
        }
        assert_eq!(math_refs("100 * {out_4} / {out_2} - {out_4}").collect::<Vec<_>>(), [4, 2, 4]);
        // A malformed reference does not hide the ones after it.
        let pieces: Vec<MathPiece> = math_pieces("{out_x} + {out_3}").filter(|p| *p != MathPiece::Text("")).collect();
        assert_eq!(pieces, [MathPiece::Malformed("{out_x}"), MathPiece::Text(" + "), MathPiece::Ref(3)]);
        assert!(math_pieces("2 * {out_1").any(|p| p == MathPiece::Malformed("{out_1")));
    }

    #[test]
    fn missing_result_defaults_to_last_node() {
        let text = r#"{"nodes": [
            {"id": 0, "op": "queryDatabase", "index": "ntsb", "inputs": []},
            {"id": 1, "op": "count", "inputs": [0]}
        ]}"#;
        let p = Plan::parse(text).unwrap();
        assert_eq!(p.result, 1);
    }
}
