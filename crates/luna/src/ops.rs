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
pub enum AggFunc {
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

/// A `math` expression parsed once: `+ - * /`, parentheses and unary minus
/// over numbers and `{out_N}` node references. It holds the expression
/// tree in postfix order, so parsing, evaluating, rendering and dropping it
/// walk an explicit stack: no nesting depth can overflow the call stack.
#[derive(Debug, Clone, PartialEq)]
pub struct MathExpr(Vec<MathTerm>);

#[derive(Debug, Clone, Copy, PartialEq)]
enum MathTerm {
    Num(f64),
    Ref(usize),
    /// Unary minus.
    Neg,
    /// One of `+ - * /`, or `(` while parsing.
    Op(u8),
}

impl MathTerm {
    /// How tightly the term binds its operands.
    fn binding(self) -> u8 {
        match self {
            MathTerm::Num(_) | MathTerm::Ref(_) => 4,
            MathTerm::Neg => 3,
            MathTerm::Op(b'*' | b'/') => 2,
            MathTerm::Op(_) => 1,
        }
    }
}

impl MathExpr {
    /// Parses `expr` (shunting-yard); a malformed `{out_N}` reference, a
    /// stray character or an unbalanced expression is an error.
    pub fn parse(expr: &str) -> Result<MathExpr> {
        let err = |what: &str| ArynError::Exec(format!("{what} in math expr {expr:?}"));
        let mut tokens = Vec::new();
        let mut rest = expr.trim_start_matches([' ', '\t']);
        while let Some(c) = rest.bytes().next() {
            let (term, len) = match c {
                b'+' | b'-' | b'*' | b'/' | b'(' | b')' => (MathTerm::Op(c), 1),
                b'0'..=b'9' | b'.' => {
                    let b = rest.as_bytes();
                    let number = |i: usize| b[i].is_ascii_digit() || b[i] == b'.' || b[i] == b'e' || (b[i] == b'-' && b[i - 1] == b'e');
                    let len = (1..b.len()).find(|&i| !number(i)).unwrap_or(b.len());
                    let n = rest[..len].parse().ok().filter(|n: &f64| n.is_finite()).ok_or_else(|| err("bad number"))?;
                    (MathTerm::Num(n), len)
                }
                b'{' => {
                    let len = rest.find('}').map_or(rest.len(), |end| end + 1);
                    let id = rest[..len].strip_prefix("{out_").and_then(|r| r.strip_suffix('}')?.parse().ok());
                    (MathTerm::Ref(id.ok_or_else(|| err("malformed {out_N} reference"))?), len)
                }
                _ => return Err(err("unexpected character")),
            };
            tokens.push(term);
            rest = rest[len..].trim_start_matches([' ', '\t']);
        }
        // Postfix output, and the operators and `(`s still pending.
        let (mut out, mut pending, mut operand) = (Vec::with_capacity(tokens.len()), Vec::new(), true);
        for t in tokens {
            match (operand, t) {
                (true, MathTerm::Num(_) | MathTerm::Ref(_)) => {
                    out.push(t);
                    operand = false;
                }
                (true, MathTerm::Op(b'-')) => pending.push(MathTerm::Neg),
                (true, MathTerm::Op(b'(')) => pending.push(t),
                (false, MathTerm::Op(b')')) => loop {
                    match pending.pop() {
                        Some(MathTerm::Op(b'(')) => break,
                        Some(op) => out.push(op),
                        None => return Err(err("unbalanced ')'")),
                    }
                },
                (false, MathTerm::Op(op)) if op != b'(' => {
                    let binds = |top: &mut MathTerm| *top != MathTerm::Op(b'(') && top.binding() >= t.binding();
                    while let Some(top) = pending.pop_if(binds) {
                        out.push(top);
                    }
                    pending.push(t);
                    operand = true;
                }
                (true, _) => return Err(err("expected number or '('")),
                (false, _) => return Err(err("trailing tokens")),
            }
        }
        if operand {
            return Err(err("expected number or '('"));
        }
        while let Some(op) = pending.pop() {
            if op == MathTerm::Op(b'(') {
                return Err(err("missing closing paren"));
            }
            out.push(op);
        }
        Ok(MathExpr(out))
    }

    /// The nodes the expression references, in order.
    pub fn refs(&self) -> impl Iterator<Item = usize> + '_ {
        self.0.iter().filter_map(|t| if let MathTerm::Ref(id) = t { Some(*id) } else { None })
    }

    /// The expression with its references to node `from` made to `to`.
    pub(crate) fn renamed(&self, from: usize, to: usize) -> MathExpr {
        MathExpr(self.0.iter().map(|&t| if t == MathTerm::Ref(from) { MathTerm::Ref(to) } else { t }).collect())
    }

    /// The expression's value, each reference valued by `value_of`.
    pub fn eval(&self, mut value_of: impl FnMut(usize) -> Result<f64>) -> Result<f64> {
        let mut stack: Vec<f64> = Vec::with_capacity(self.0.len());
        // `parse` leaves every operator its operands.
        let pop = |stack: &mut Vec<f64>| stack.pop().unwrap_or(f64::NAN);
        for term in &self.0 {
            let v = match *term {
                MathTerm::Num(n) => n,
                MathTerm::Ref(id) => value_of(id)?,
                MathTerm::Neg => -pop(&mut stack),
                MathTerm::Op(op) => {
                    let (r, l) = (pop(&mut stack), pop(&mut stack));
                    match op {
                        b'+' => l + r,
                        b'-' => l - r,
                        b'*' => l * r,
                        _ if r == 0.0 => return Err(ArynError::Exec("division by zero in math expr".into())),
                        _ => l / r,
                    }
                }
            };
            stack.push(v);
        }
        Ok(pop(&mut stack))
    }
}

/// Evaluates arithmetic without node references (`+ - * /`, parentheses,
/// unary minus): a checked math expression with its `{out_N}` references
/// written out as numbers evaluates to the same value.
pub fn eval_math(expr: &str) -> Result<f64> {
    MathExpr::parse(expr)?.eval(|id| Err(ArynError::Exec(format!("math references out_{id}, which has no value here"))))
}

/// Renders with the fewest parentheses that keep the tree: `parse` of the
/// rendering is the same expression.
impl std::fmt::Display for MathExpr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // The tree: each operator's operands, by position.
        let mut operands = vec![(0, 0); self.0.len()];
        let mut stack = Vec::new();
        for (i, term) in self.0.iter().enumerate() {
            match term {
                MathTerm::Neg => operands[i].1 = stack.pop().unwrap_or_default(),
                MathTerm::Op(_) => {
                    let r = stack.pop().unwrap_or_default();
                    operands[i] = (stack.pop().unwrap_or_default(), r);
                }
                _ => {}
            }
            stack.push(i);
        }
        enum Step {
            Term(usize, bool),
            Text(&'static str),
        }
        // Written left to right from an explicit stack of what is still to write.
        let mut todo: Vec<Step> = stack.pop().map(|root| Step::Term(root, false)).into_iter().collect();
        while let Some(step) = todo.pop() {
            let (i, parens) = match step {
                Step::Text(text) => {
                    f.write_str(text)?;
                    continue;
                }
                Step::Term(i, parens) => (i, parens),
            };
            if parens {
                f.write_str("(")?;
                todo.push(Step::Text(")"));
            }
            let (term, (l, r)) = (self.0[i], operands[i]);
            match term {
                MathTerm::Num(n) => write!(f, "{n}")?,
                MathTerm::Ref(id) => write!(f, "{{out_{id}}}")?,
                MathTerm::Neg => {
                    f.write_str("-")?;
                    todo.push(Step::Term(r, self.0[r].binding() < term.binding()));
                }
                MathTerm::Op(op) => {
                    let text = match op { b'+' => " + ", b'-' => " - ", b'*' => " * ", _ => " / " };
                    todo.push(Step::Term(r, self.0[r].binding() <= term.binding()));
                    todo.push(Step::Text(text));
                    todo.push(Step::Term(l, self.0[l].binding() < term.binding()));
                }
            }
        }
        Ok(())
    }
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
    /// A `math` node's `{out_N}` references to nodes of the plan are edges
    /// too, listed as inputs or not: it reads their outputs.
    pub fn topo_order(&self) -> Result<Vec<usize>> {
        let ids: BTreeSet<usize> = self.nodes.iter().map(|n| n.id).collect();
        let refs = |n: &PlanNode| match &n.op {
            PlanOp::Math { expr } => MathExpr::parse(expr).iter().flat_map(MathExpr::refs).filter(|r| ids.contains(r)).collect(),
            _ => Vec::new(),
        };
        let mut order = Vec::new();
        let mut placed: BTreeSet<usize> = BTreeSet::new();
        let mut remaining: Vec<(&PlanNode, Vec<usize>)> = self.nodes.iter().map(|n| (n, refs(n))).collect();
        while !remaining.is_empty() {
            let before = remaining.len();
            remaining.retain(|(n, refs)| {
                if n.inputs.iter().chain(refs).all(|i| placed.contains(i)) {
                    order.push(n.id);
                    placed.insert(n.id);
                    false
                } else {
                    true
                }
            });
            if remaining.len() == before {
                // No progress: cycle or dangling reference.
                for (n, _) in &remaining {
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
    fn math_references_parse_in_order_and_malformed_ones_are_refused() {
        let refs = |expr: &str| MathExpr::parse(expr).unwrap().refs().collect::<Vec<_>>();
        assert_eq!(refs("100 * {out_4} / {out_2} - {out_4}"), [4, 2, 4]);
        assert_eq!(refs("{out_7}"), [7]);
        for bad in ["{out_x} + {out_3}", "1 + {out_", "{out_}{out_7}", "2 * {out_1", "{out_1 + 2}", "{in_1}"] {
            assert!(MathExpr::parse(bad).is_err(), "{bad}");
        }
    }

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
    fn math_renders_with_the_fewest_parentheses_that_keep_its_tree() {
        for expr in ["100 * {out_4} / {out_2}", "1 - (2 - 3)", "(1 + 2) * -{out_0}", "-(2 * 3) - --4", "2 / (3 * 4)"] {
            let parsed = MathExpr::parse(expr).unwrap();
            assert_eq!(parsed.to_string(), expr);
        }
        assert_eq!(MathExpr::parse("((1+2))*3").unwrap().to_string(), "(1 + 2) * 3");
        assert!(MathExpr::parse("{out_1}{out_2}").is_err(), "two operands in a row");
        assert!(MathExpr::parse("1e999").is_err(), "a number renders back only when finite");
        assert!(MathExpr::parse("1)").is_err() && MathExpr::parse("()").is_err());
    }

    #[test]
    fn math_nesting_depth_costs_no_call_stack() {
        // Deep enough to overflow any recursive parser, evaluator, renderer
        // or drop.
        let n = 200_000;
        let deep = format!("{}{{out_1}}{}", "(".repeat(n), ")".repeat(n));
        let parsed = MathExpr::parse(&deep).unwrap();
        assert_eq!(parsed.eval(|_| Ok(2.0)).unwrap(), 2.0);
        assert_eq!(parsed.to_string(), "{out_1}");
        let negated = format!("{}7", "-".repeat(n));
        assert_eq!(eval_math(&negated).unwrap(), 7.0);
        assert_eq!(MathExpr::parse(&negated).unwrap().to_string(), negated);
        let chain = vec!["1"; n].join(" - ");
        assert_eq!(eval_math(&chain).unwrap(), 2.0 - n as f64);
        assert_eq!(MathExpr::parse(&chain).unwrap().to_string(), chain);
        assert!(eval_math(&"(".repeat(n)).is_err());
    }

    #[test]
    fn a_math_reference_orders_the_run_and_a_reference_cycle_is_a_cycle() {
        let node = |id: usize, op: PlanOp, inputs: Vec<usize>| PlanNode { id, op, inputs, description: String::new() };
        let scan = PlanOp::QueryDatabase { index: "t".into(), prefilter: vec![] };
        let math = |expr: &str| PlanOp::Math { expr: expr.into() };
        let plan = Plan {
            nodes: vec![
                node(0, scan.clone(), vec![]),
                node(1, math("100 * {out_2} / {out_3}"), vec![0]),
                node(2, PlanOp::Count, vec![0]),
                node(3, PlanOp::Count, vec![0]),
            ],
            result: 1,
        };
        assert_eq!(plan.topo_order().unwrap(), [0, 2, 3, 1]);
        let cyclic = Plan {
            nodes: vec![node(0, scan, vec![]), node(1, math("{out_2}"), vec![0]), node(2, math("{out_1}"), vec![0])],
            result: 2,
        };
        assert!(matches!(cyclic.validate(), Err(ArynError::InvalidPlan(m)) if m.contains("cycle")));
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
