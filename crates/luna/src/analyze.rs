//! Static semantic analysis over Luna plan DAGs.
//!
//! The paper's Luna planner (§6) puts *plan validation* between LLM plan
//! generation and cost-based optimization. Structural validation (arity,
//! duplicate ids, cycles — see [`structural`]) cannot catch an LLM-hallucinated
//! field name, a type-mismatched predicate, or an aggregate over a non-numeric
//! column; those only surfaced at runtime, as wrong-but-plausible answers.
//!
//! This module is a real static analyzer:
//!
//! 1. **Schema inference.** Starting from the scan's discovered
//!    [`IndexSchema`], every operator's output shape is inferred over a small
//!    type lattice ([`FieldType`]: string/number/bool/date/list/any). Semantic
//!    operators extend the schema (`llmExtract` adds its target field,
//!    `aggregate` produces `key`/`count`/`value` rows, `graphExpand` adds a
//!    list field), so downstream references to query-time-extracted fields
//!    resolve correctly.
//! 2. **Reference resolution.** Every field reference — filters, prefilters,
//!    aggregates, sorts, joins, math `{out_N}` refs — is resolved against the
//!    inferred shape of its input.
//! 3. **Lint rules.** An extensible registry of [`LintRule`]s produces
//!    structured [`Diagnostic`]s with stable codes (documented in DESIGN.md,
//!    enforced by `cargo xtask lint`).
//!
//! Diagnostics feed three gates: the planner re-prompts the LLM once with
//! rendered Error diagnostics (the repair loop), and [`Analyzer::check`]
//! turns a plan free of Errors into the [`CheckedPlan`] that the optimizer
//! rewrites (checking each rewrite again) and the executor runs.

use crate::ops::{AggFunc, MathExpr, Plan, PlanNode, PlanOp, RowFlow};
use crate::schema::IndexSchema;
use aryn_core::{ArynError, Diagnostic, Result, Severity, Value};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Diagnostic codes emitted by the plan analyzer. Every code here must be
/// documented in DESIGN.md; `cargo xtask lint` enforces that.
pub mod codes {
    pub const EMPTY_PLAN: &str = "empty-plan";
    pub const DUPLICATE_NODE_ID: &str = "duplicate-node-id";
    pub const BAD_ARITY: &str = "bad-arity";
    pub const EMPTY_PARAM: &str = "empty-param";
    pub const UNKNOWN_INPUT: &str = "unknown-input";
    pub const CYCLE: &str = "cycle";
    pub const MISSING_RESULT: &str = "missing-result";
    pub const UNKNOWN_INDEX: &str = "unknown-index";
    pub const UNKNOWN_FIELD: &str = "unknown-field";
    pub const TYPE_MISMATCH: &str = "type-mismatch";
    pub const AGGREGATE_NON_NUMERIC: &str = "aggregate-non-numeric";
    pub const UNKNOWN_AGGREGATE_FUNC: &str = "unknown-aggregate-func";
    pub const SCALAR_INPUT: &str = "scalar-input";
    pub const MATH_UNKNOWN_REF: &str = "math-unknown-ref";
    pub const MATH_REF_NOT_INPUT: &str = "math-ref-not-input";
    pub const MATH_SYNTAX: &str = "math-syntax";
    pub const JOIN_KEY_TYPE_SKEW: &str = "join-key-type-skew";
    pub const SEMANTIC_PUSHDOWN: &str = "semantic-pushdown";
    pub const FILTER_REORDER: &str = "filter-reorder";
    pub const DEAD_NODE: &str = "dead-node";
    pub const REDUNDANT_EXTRACT: &str = "redundant-extract";
    // L22–L27: cost/liveness diagnostics from [`crate::costmodel`].
    pub const INFEASIBLE_DEADLINE: &str = "infeasible-deadline";
    pub const TOKEN_BUDGET_OVERFLOW: &str = "token-budget-overflow";
    pub const UNBOUNDED_CARDINALITY: &str = "unbounded-cardinality";
    pub const DEGRADED_TERMINAL_ONLY: &str = "degraded-terminal-only";
    pub const CACHE_BLIND_REEXEC: &str = "cache-blind-reexec";
    pub const DEAD_FIELD: &str = "dead-field";

    /// All analyzer codes, for documentation checks.
    pub const ALL: &[&str] = &[
        EMPTY_PLAN,
        DUPLICATE_NODE_ID,
        BAD_ARITY,
        EMPTY_PARAM,
        UNKNOWN_INPUT,
        CYCLE,
        MISSING_RESULT,
        UNKNOWN_INDEX,
        UNKNOWN_FIELD,
        TYPE_MISMATCH,
        AGGREGATE_NON_NUMERIC,
        UNKNOWN_AGGREGATE_FUNC,
        SCALAR_INPUT,
        MATH_UNKNOWN_REF,
        MATH_REF_NOT_INPUT,
        MATH_SYNTAX,
        JOIN_KEY_TYPE_SKEW,
        SEMANTIC_PUSHDOWN,
        FILTER_REORDER,
        DEAD_NODE,
        REDUNDANT_EXTRACT,
        INFEASIBLE_DEADLINE,
        TOKEN_BUDGET_OVERFLOW,
        UNBOUNDED_CARDINALITY,
        DEGRADED_TERMINAL_ONLY,
        CACHE_BLIND_REEXEC,
        DEAD_FIELD,
    ];
}

// --- Type lattice -----------------------------------------------------------

/// The analyzer's field type lattice. `Any` is the top: everything joins to
/// it, and it is compatible with everything (used for open schemas and
/// fields whose type cannot be pinned down).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FieldType {
    Str,
    Num,
    Bool,
    Date,
    List,
    Any,
}

impl FieldType {
    /// Parses a schema/extraction type name ("string", "int", "float", ...).
    pub fn parse(name: &str) -> FieldType {
        let name = name.trim();
        let is = |names: &[&str]| names.iter().any(|n| n.eq_ignore_ascii_case(name));
        if is(&["string", "str", "text"]) {
            FieldType::Str
        } else if is(&["int", "integer", "float", "number", "double"]) {
            FieldType::Num
        } else if is(&["bool", "boolean"]) {
            FieldType::Bool
        } else if is(&["date", "datetime"]) {
            FieldType::Date
        } else if is(&["array", "list"]) {
            FieldType::List
        } else {
            FieldType::Any
        }
    }

    /// The type of a literal JSON value.
    fn of_value(v: &Value) -> FieldType {
        match v {
            Value::Str(_) => FieldType::Str,
            Value::Int(_) | Value::Float(_) => FieldType::Num,
            Value::Bool(_) => FieldType::Bool,
            Value::Array(_) => FieldType::List,
            _ => FieldType::Any,
        }
    }

    /// Lattice join: equal types stay, different types widen to `Any`.
    pub fn join(self, other: FieldType) -> FieldType {
        if self == other {
            self
        } else {
            FieldType::Any
        }
    }

    /// Whether a value of type `other` can meaningfully compare to this
    /// field. `Any` on either side is compatible; dates compare as strings.
    pub fn compatible(self, other: FieldType) -> bool {
        if self == FieldType::Any || other == FieldType::Any {
            return true;
        }
        if self == other {
            return true;
        }
        matches!(
            (self, other),
            (FieldType::Date, FieldType::Str) | (FieldType::Str, FieldType::Date)
        )
    }

    fn is_numeric(self) -> bool {
        matches!(self, FieldType::Num | FieldType::Any)
    }

    pub fn name(self) -> &'static str {
        match self {
            FieldType::Str => "string",
            FieldType::Num => "number",
            FieldType::Bool => "bool",
            FieldType::Date => "date",
            FieldType::List => "list",
            FieldType::Any => "any",
        }
    }
}

// --- Shapes -----------------------------------------------------------------

/// What a field reference resolved to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Resolution {
    /// Field exists with this type.
    Known(FieldType),
    /// Schema is closed and the field is absent.
    Unknown,
    /// Schema is open (scan of an undiscovered index); absence proves nothing.
    Open,
}

/// The inferred output of one plan node: a row set with a field map, or a
/// scalar.
#[derive(Debug, Clone, PartialEq)]
pub enum Shape {
    Rows {
        fields: BTreeMap<String, FieldType>,
        /// Open shapes come from scans whose schema is unavailable; field
        /// resolution is lenient there.
        open: bool,
    },
    Scalar(FieldType),
}

impl Shape {
    fn open_rows() -> Shape {
        Shape::Rows {
            fields: BTreeMap::new(),
            open: true,
        }
    }

    /// Resolves a field path against this shape. `_id` is the document-key
    /// pseudo-field and always resolves to a string.
    pub fn resolve(&self, path: &str) -> Resolution {
        if path == "_id" {
            return Resolution::Known(FieldType::Str);
        }
        match self {
            Shape::Rows { fields, open } => match fields.get(path) {
                Some(t) => Resolution::Known(*t),
                None if *open => Resolution::Open,
                None => Resolution::Unknown,
            },
            Shape::Scalar(_) => Resolution::Open,
        }
    }

    /// Field names, for `unknown-field` suggestions.
    fn field_names(&self) -> Vec<&str> {
        match self {
            Shape::Rows { fields, .. } => fields.keys().map(String::as_str).collect(),
            Shape::Scalar(_) => Vec::new(),
        }
    }
}

// --- Analysis result --------------------------------------------------------

/// The outcome of analyzing one plan.
#[derive(Debug, Clone, Default)]
pub struct Analysis {
    pub diagnostics: Vec<Diagnostic>,
    /// Inferred output shape per node id (empty when structural errors stop
    /// inference).
    pub shapes: BTreeMap<usize, Shape>,
}

impl Analysis {
    pub fn errors(&self) -> Vec<&Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .collect()
    }

    pub fn has_errors(&self) -> bool {
        aryn_core::diag::has_errors(&self.diagnostics)
    }

    pub fn count(&self, severity: Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == severity)
            .count()
    }

    /// All diagnostics rendered one per line, errors first.
    pub fn render(&self) -> String {
        aryn_core::diag::render(&self.diagnostics)
    }

    /// Only the Error diagnostics, rendered for error messages and the
    /// planner repair prompt.
    pub fn render_errors(&self) -> String {
        let errs: Vec<Diagnostic> = self
            .diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .cloned()
            .collect();
        aryn_core::diag::render(&errs)
    }
}

// --- The checked plan -------------------------------------------------------

/// A node's string parameters, parsed once by the check.
#[derive(Debug, Clone, PartialEq)]
pub enum Parsed {
    /// The operator has no parameter to parse.
    Nothing,
    /// An `aggregate`'s function.
    Aggregate(AggFunc),
    /// An `llmExtract`'s field type.
    Extract(FieldType),
    /// A `math` node's expression.
    Math(MathExpr),
}

/// A plan the analyzer found free of Error diagnostics, with what the check
/// learned: its analysis, the schemas that judged it, its run order and each
/// node's parsed parameters. Only the analyzer makes one ([`Analyzer::check`]),
/// so the optimizer and the executor take it without judging it again.
#[derive(Debug, Clone)]
pub struct CheckedPlan {
    plan: Plan,
    analysis: Analysis,
    schemas: Arc<[IndexSchema]>,
    /// The nodes in run order: each one's position in `plan.nodes` and its
    /// parsed parameters.
    steps: Vec<(usize, Parsed)>,
    /// Each node's place in `steps`, by id.
    slots: BTreeMap<usize, usize>,
}

impl CheckedPlan {
    /// `plan` with `analysis`, an analyzer's of it by `schemas`; an
    /// `InvalidPlan` that opens with `refusal` and renders the Error
    /// diagnostics when there are any.
    pub(crate) fn new(refusal: &str, plan: Plan, analysis: Analysis, schemas: Arc<[IndexSchema]>) -> Result<CheckedPlan> {
        if analysis.has_errors() {
            return Err(ArynError::InvalidPlan(format!("{refusal}:\n{}", analysis.render_errors())));
        }
        let mut steps = Vec::with_capacity(plan.nodes.len());
        let mut slots = BTreeMap::new();
        for id in plan.topo_order()? {
            let Some(pos) = plan.nodes.iter().position(|n| n.id == id) else { continue };
            let parsed = match &plan.nodes[pos].op {
                PlanOp::Aggregate { func, .. } => Parsed::Aggregate(
                    AggFunc::parse(func)
                        .ok_or_else(|| ArynError::InvalidPlan(format!("unknown aggregate function {func:?}")))?,
                ),
                PlanOp::LlmExtract { ftype, .. } => Parsed::Extract(FieldType::parse(ftype)),
                PlanOp::Math { expr } => Parsed::Math(MathExpr::parse(expr)?),
                _ => Parsed::Nothing,
            };
            slots.insert(id, steps.len());
            steps.push((pos, parsed));
        }
        Ok(CheckedPlan { plan, analysis, schemas, steps, slots })
    }

    /// [`Analyzer::check`] of `plan` under the schemas that judged this one.
    pub(crate) fn recheck(&self, analyzer: &Analyzer, refusal: &str, plan: Plan) -> Result<CheckedPlan> {
        let analysis = analyzer.analyze(&plan, &self.schemas);
        CheckedPlan::new(refusal, plan, analysis, Arc::clone(&self.schemas))
    }

    pub fn plan(&self) -> &Plan {
        &self.plan
    }

    pub fn into_plan(self) -> Plan {
        self.plan
    }

    pub fn analysis(&self) -> &Analysis {
        &self.analysis
    }

    /// The schemas the plan was checked against.
    pub fn schemas(&self) -> &[IndexSchema] {
        &self.schemas
    }

    /// The nodes in run order, each with its parsed parameters: a node runs
    /// after its inputs and the nodes its math references.
    pub fn steps(&self) -> impl Iterator<Item = (&PlanNode, &Parsed)> {
        self.steps.iter().map(|(pos, parsed)| (&self.plan.nodes[*pos], parsed))
    }

    /// The place in the run order of node `id`, which the check found in the
    /// plan (an input, a math reference or the result).
    pub(crate) fn slot(&self, id: usize) -> usize {
        self.slots[&id]
    }
}

// --- Structural checks (the old `Plan::validate`) ---------------------------

/// Structural validation as diagnostics: unique ids, valid arities, acyclic,
/// result exists, semantic ops have non-empty parameters. This is the single
/// source of truth behind [`Plan::validate`], which surfaces the first Error
/// here for API stability.
pub fn structural(plan: &Plan) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    if plan.nodes.is_empty() {
        out.push(Diagnostic::error(codes::EMPTY_PLAN, "empty plan").at_path("nodes"));
        return out;
    }
    let mut seen = BTreeSet::new();
    for (pos, n) in plan.nodes.iter().enumerate() {
        let npath = format!("nodes[{pos}]");
        if !seen.insert(n.id) {
            out.push(
                Diagnostic::error(
                    codes::DUPLICATE_NODE_ID,
                    format!("duplicate node id {}", n.id),
                )
                .at_node(n.id)
                .at_path(format!("{npath}.id")),
            );
        }
        let (lo, hi) = n.op.arity();
        if n.inputs.len() < lo || n.inputs.len() > hi {
            out.push(
                Diagnostic::error(
                    codes::BAD_ARITY,
                    format!(
                        "node {} ({}) takes {lo}..{} inputs, got {}",
                        n.id,
                        n.op.kind(),
                        if hi == usize::MAX {
                            "N".to_string()
                        } else {
                            hi.to_string()
                        },
                        n.inputs.len()
                    ),
                )
                .at_node(n.id)
                .at_path(format!("{npath}.inputs")),
            );
        }
        // The parameter an operator cannot run without: (JSON key, value, name).
        let required = match &n.op {
            PlanOp::LlmFilter { predicate, .. } => Some(("predicate", predicate, "predicate")),
            PlanOp::LlmExtract { field, .. } => Some(("field", field, "field")),
            PlanOp::Math { expr } => Some(("expr", expr, "expression")),
            _ => None,
        };
        if let Some((key, _, name)) = required.filter(|(_, value, _)| value.trim().is_empty()) {
            out.push(
                Diagnostic::error(codes::EMPTY_PARAM, format!("node {}: {} with empty {name}", n.id, n.op.kind()))
                    .at_node(n.id)
                    .at_path(format!("{npath}.{key}")),
            );
        }
    }
    if plan.node(plan.result).is_none() {
        out.push(
            Diagnostic::error(
                codes::MISSING_RESULT,
                format!("result node {} does not exist", plan.result),
            )
            .at_path("result"),
        );
    }
    if let Err(e) = plan.topo_order() {
        let msg = e.to_string();
        let msg = msg.strip_prefix("invalid plan: ").unwrap_or(&msg).to_string();
        let code = if msg.contains("cycle") {
            codes::CYCLE
        } else {
            codes::UNKNOWN_INPUT
        };
        out.push(Diagnostic::error(code, msg).at_path("nodes"));
    }
    out
}

// --- Shape inference --------------------------------------------------------

fn schema_shape(index: &str, schemas: &[IndexSchema]) -> Shape {
    match schemas.iter().find(|s| s.index == index) {
        Some(s) => Shape::Rows {
            fields: s
                .fields
                .iter()
                .map(|f| (f.path.clone(), FieldType::parse(&f.ftype)))
                .collect(),
            open: false,
        },
        None => Shape::open_rows(),
    }
}

fn input_rows_shape(node: &PlanNode, shapes: &BTreeMap<usize, Shape>, i: usize) -> Shape {
    match node.inputs.get(i).and_then(|id| shapes.get(id)) {
        Some(s @ Shape::Rows { .. }) => s.clone(),
        _ => Shape::open_rows(),
    }
}

/// Infers each node's output shape in topological order.
fn infer_shapes(
    plan: &Plan,
    schemas: &[IndexSchema],
    order: &[usize],
) -> BTreeMap<usize, Shape> {
    let mut shapes: BTreeMap<usize, Shape> = BTreeMap::new();
    for id in order {
        let Some(node) = plan.node(*id) else { continue };
        let shape = match node.op.row_flow() {
            RowFlow::Scan { index, .. } => schema_shape(index, schemas),
            RowFlow::Kept | RowFlow::Narrowed | RowFlow::Capped(_) => {
                let mut s = input_rows_shape(node, &shapes, 0);
                if let (Shape::Rows { fields, .. }, Some((field, t))) = (&mut s, node.op.writes()) {
                    fields.insert(field.to_string(), t);
                }
                s
            }
            RowFlow::Grouped { key, func, path } => {
                let input = input_rows_shape(node, &shapes, 0);
                let known = |field| match input.resolve(field) {
                    Resolution::Known(t) => t,
                    _ => FieldType::Any,
                };
                let mut fields = BTreeMap::new();
                fields.insert(key.to_string(), known(key));
                fields.insert("count".to_string(), FieldType::Num);
                let value = func.map_or(FieldType::Any, |f| f.value_type(known(path)));
                fields.insert("value".to_string(), value);
                Shape::Rows {
                    fields,
                    open: false,
                }
            }
            RowFlow::Joined => {
                let left = input_rows_shape(node, &shapes, 0);
                let right = input_rows_shape(node, &shapes, 1);
                match (left, right) {
                    (
                        Shape::Rows {
                            fields: mut lf,
                            open: lo,
                        },
                        Shape::Rows {
                            fields: rf,
                            open: ro,
                        },
                    ) => {
                        for (k, v) in rf {
                            // Left side wins on conflict (executor keeps the
                            // left value via or_insert).
                            lf.entry(k).or_insert(v);
                        }
                        Shape::Rows {
                            fields: lf,
                            open: lo || ro,
                        }
                    }
                    _ => Shape::open_rows(),
                }
            }
            RowFlow::Scalar(t) => Shape::Scalar(t),
        };
        shapes.insert(*id, shape);
    }
    shapes
}

// --- Rule registry ----------------------------------------------------------

/// Context handed to every lint rule: the plan, the discovered schemas, the
/// inferred per-node shapes, and the topological order.
pub struct PlanCtx<'a> {
    pub plan: &'a Plan,
    pub schemas: &'a [IndexSchema],
    pub shapes: &'a BTreeMap<usize, Shape>,
    pub order: &'a [usize],
}

impl<'a> PlanCtx<'a> {
    /// JSON path to a node's field in the plan rendering.
    pub fn path(&self, node_id: usize, field: &str) -> String {
        let pos = self
            .plan
            .nodes
            .iter()
            .position(|n| n.id == node_id)
            .unwrap_or(0);
        if field.is_empty() {
            format!("nodes[{pos}]")
        } else {
            format!("nodes[{pos}].{field}")
        }
    }

    fn shape_of(&self, node_id: usize) -> Option<&Shape> {
        self.shapes.get(&node_id)
    }

    /// Shape of a node's i-th input (open rows when unavailable).
    fn input_shape(&self, node: &PlanNode, i: usize) -> Shape {
        input_rows_shape(node, self.shapes, i)
    }
}

/// One lint rule. Rules run after structural validation and shape inference
/// and append [`Diagnostic`]s. Register custom rules with
/// [`Analyzer::with_rule`].
pub trait LintRule: Send + Sync {
    /// The diagnostic code this rule emits (documentation key).
    fn code(&self) -> &'static str;
    fn check(&self, cx: &PlanCtx<'_>, out: &mut Vec<Diagnostic>);
}

/// The analyzer: structural checks + shape inference + a rule registry.
pub struct Analyzer {
    rules: Vec<Box<dyn LintRule>>,
}

impl Default for Analyzer {
    fn default() -> Self {
        Analyzer::new()
    }
}

impl Analyzer {
    /// The default rule set.
    pub fn new() -> Analyzer {
        Analyzer {
            rules: vec![
                Box::new(ScalarInputRule),
                Box::new(FieldRefRule),
                Box::new(MathRule),
                Box::new(UnknownIndexRule),
                Box::new(RewriteHintRule),
                Box::new(DeadNodeRule),
                Box::new(RedundantExtractRule),
            ],
        }
    }

    pub fn with_rule(mut self, rule: Box<dyn LintRule>) -> Analyzer {
        self.rules.push(rule);
        self
    }

    /// Checks `plan` against `schemas` with one analysis: the
    /// [`CheckedPlan`] when it has no Error diagnostic, otherwise an
    /// `InvalidPlan` that renders them with their codes.
    pub fn check(&self, plan: &Plan, schemas: impl Into<Arc<[IndexSchema]>>) -> Result<CheckedPlan> {
        self.check_for("plan failed semantic analysis", plan, schemas.into())
    }

    /// [`Analyzer::check`], its refusal opening with `refusal`.
    pub(crate) fn check_for(&self, refusal: &str, plan: &Plan, schemas: Arc<[IndexSchema]>) -> Result<CheckedPlan> {
        CheckedPlan::new(refusal, plan.clone(), self.analyze(plan, &schemas), schemas)
    }

    /// Runs the full analysis. Structural errors stop inference (shapes stay
    /// empty); otherwise every rule runs over the inferred shapes.
    pub fn analyze(&self, plan: &Plan, schemas: &[IndexSchema]) -> Analysis {
        let mut diagnostics = structural(plan);
        let order = match plan.topo_order() {
            Ok(order) if !aryn_core::diag::has_errors(&diagnostics) => order,
            _ => return Analysis { diagnostics, shapes: BTreeMap::new() },
        };
        let shapes = infer_shapes(plan, schemas, &order);
        let cx = PlanCtx {
            plan,
            schemas,
            shapes: &shapes,
            order: &order,
        };
        for rule in &self.rules {
            rule.check(&cx, &mut diagnostics);
        }
        Analysis {
            diagnostics,
            shapes,
        }
    }
}

/// Analyzes a plan with the default rule set.
pub fn analyze(plan: &Plan, schemas: &[IndexSchema]) -> Analysis {
    Analyzer::new().analyze(plan, schemas)
}

// --- Built-in rules ---------------------------------------------------------

fn available_fields(shape: &Shape) -> Option<String> {
    let names = shape.field_names();
    if names.is_empty() {
        return None;
    }
    let shown: Vec<&str> = names.iter().take(8).copied().collect();
    Some(format!("available fields: {}", shown.join(", ")))
}

fn unknown_field(
    cx: &PlanCtx<'_>,
    severity: Severity,
    node: &PlanNode,
    json_field: &str,
    field: &str,
    shape: &Shape,
) -> Diagnostic {
    let message = format!("node {} ({}): field {field:?} does not exist in its input", node.id, node.op.kind());
    let d = Diagnostic::new(codes::UNKNOWN_FIELD, severity, message)
        .at_node(node.id)
        .at_path(cx.path(node.id, json_field));
    match available_fields(shape) {
        Some(s) => d.with_suggestion(s),
        None => d,
    }
}

/// Row-consuming operators fed a scalar input fail at runtime; catch them
/// statically.
struct ScalarInputRule;

impl LintRule for ScalarInputRule {
    fn code(&self) -> &'static str {
        codes::SCALAR_INPUT
    }

    fn check(&self, cx: &PlanCtx<'_>, out: &mut Vec<Diagnostic>) {
        for node in &cx.plan.nodes {
            // Math and llmGenerate accept scalar inputs; everything else
            // that takes inputs needs rows.
            if matches!(node.op, PlanOp::Math { .. } | PlanOp::LlmGenerate { .. }) {
                continue;
            }
            for (i, input) in node.inputs.iter().enumerate() {
                if let Some(Shape::Scalar(_)) = cx.shape_of(*input) {
                    out.push(
                        Diagnostic::error(
                            codes::SCALAR_INPUT,
                            format!(
                                "node {} ({}) requires a row input, but out_{input} produces a scalar",
                                node.id,
                                node.op.kind()
                            ),
                        )
                        .at_node(node.id)
                        .at_path(cx.path(node.id, &format!("inputs[{i}]"))),
                    );
                }
            }
        }
    }
}

/// Resolves every field reference against the inferred input shape and
/// checks literal types: the `unknown-field` / `type-mismatch` /
/// `aggregate-non-numeric` / `unknown-aggregate-func` / `join-key-type-skew`
/// lints.
struct FieldRefRule;

impl FieldRefRule {
    /// Type-checks a literal compared with `field`, named by its JSON key.
    fn check_literal(
        cx: &PlanCtx<'_>,
        node: &PlanNode,
        at: &str,
        field: &str,
        ftype: FieldType,
        value: &Value,
        out: &mut Vec<Diagnostic>,
    ) {
        let vt = FieldType::of_value(value);
        if !value.is_null() && !ftype.compatible(vt) {
            let (kind, ft, vn) = (node.op.kind(), ftype.name(), vt.name());
            let message = format!("node {} ({kind}): field {field:?} is {ft} but the literal {value} is {vn}", node.id);
            out.push(Diagnostic::error(codes::TYPE_MISMATCH, message).at_node(node.id).at_path(cx.path(node.id, at)));
        }
    }

    /// Resolves `field`, named by the JSON key `at`, against `shape`,
    /// reporting an unknown field at `severity`; its type when known.
    fn check_resolved(
        cx: &PlanCtx<'_>,
        node: &PlanNode,
        at: &str,
        field: &str,
        shape: &Shape,
        severity: Severity,
        out: &mut Vec<Diagnostic>,
    ) -> Option<FieldType> {
        match shape.resolve(field) {
            Resolution::Known(t) => Some(t),
            Resolution::Open => None,
            Resolution::Unknown => {
                out.push(unknown_field(cx, severity, node, at, field, shape));
                None
            }
        }
    }
}

impl LintRule for FieldRefRule {
    fn code(&self) -> &'static str {
        codes::UNKNOWN_FIELD
    }

    fn check(&self, cx: &PlanCtx<'_>, out: &mut Vec<Diagnostic>) {
        for node in &cx.plan.nodes {
            match &node.op {
                PlanOp::QueryDatabase { prefilter, .. } => {
                    let Some(shape) = cx.shape_of(node.id) else { continue };
                    for (k, v) in prefilter {
                        let at = format!("prefilter.{k}");
                        if let Some(t) = Self::check_resolved(cx, node, &at, k, shape, Severity::Error, out) {
                            Self::check_literal(cx, node, &at, k, t, v, out);
                        }
                    }
                }
                PlanOp::BasicFilter { path, value } => {
                    let shape = cx.input_shape(node, 0);
                    if let Some(t) = Self::check_resolved(cx, node, "path", path, &shape, Severity::Error, out) {
                        Self::check_literal(cx, node, "value", path, t, value, out);
                    }
                }
                PlanOp::RangeFilter { path, lo, hi } => {
                    let shape = cx.input_shape(node, 0);
                    if let Some(t) = Self::check_resolved(cx, node, "path", path, &shape, Severity::Error, out) {
                        for (at, bound) in [("lo", lo), ("hi", hi)] {
                            if let Some(v) = bound {
                                Self::check_literal(cx, node, at, path, t, v, out);
                            }
                        }
                    }
                }
                PlanOp::Aggregate { key, func, path } => {
                    let shape = cx.input_shape(node, 0);
                    let agg = AggFunc::parse(func);
                    let needs_numeric = matches!(agg, Some(AggFunc::Sum | AggFunc::Avg));
                    let ordered = matches!(agg, Some(AggFunc::Min | AggFunc::Max));
                    if agg.is_none() {
                        let message = format!("node {}: unknown aggregate function {func:?}", node.id);
                        out.push(
                            Diagnostic::error(codes::UNKNOWN_AGGREGATE_FUNC, message)
                            .at_node(node.id)
                            .at_path(cx.path(node.id, "func"))
                            .with_suggestion("use one of count, sum, avg, min, max"),
                        );
                    }
                    if needs_numeric || ordered {
                        let severity = if needs_numeric { Severity::Error } else { Severity::Warning };
                        if let Some(t) = Self::check_resolved(cx, node, "path", path, &shape, severity, out) {
                            if !t.is_numeric() {
                                out.push(
                                    Diagnostic::new(
                                        codes::AGGREGATE_NON_NUMERIC,
                                        severity,
                                        format!(
                                            "node {}: {func} over non-numeric field {path:?} ({})",
                                            node.id,
                                            t.name()
                                        ),
                                    )
                                    .at_node(node.id)
                                    .at_path(cx.path(node.id, "path"))
                                    .with_suggestion(
                                        "aggregate a numeric field, or llmExtract a numeric value first",
                                    ),
                                );
                            }
                        }
                    }
                    if !key.is_empty() {
                        Self::check_resolved(cx, node, "key", key, &shape, Severity::Warning, out);
                    }
                }
                PlanOp::Sort { path, .. } | PlanOp::TopK { path, .. } => {
                    let shape = cx.input_shape(node, 0);
                    Self::check_resolved(cx, node, "path", path, &shape, Severity::Warning, out);
                }
                PlanOp::Join { on } => {
                    if on.trim().is_empty() {
                        out.push(
                            Diagnostic::error(
                                codes::EMPTY_PARAM,
                                format!("node {}: join with empty key", node.id),
                            )
                            .at_node(node.id)
                            .at_path(cx.path(node.id, "on")),
                        );
                        continue;
                    }
                    let mut sides = Vec::new();
                    for (i, side) in ["left", "right"].iter().enumerate() {
                        let shape = cx.input_shape(node, i);
                        match shape.resolve(on) {
                            Resolution::Known(t) => sides.push(Some(t)),
                            Resolution::Open => sides.push(None),
                            Resolution::Unknown => {
                                out.push(
                                    Diagnostic::error(
                                        codes::UNKNOWN_FIELD,
                                        format!(
                                            "node {}: join key {on:?} missing from the {side} input",
                                            node.id
                                        ),
                                    )
                                    .at_node(node.id)
                                    .at_path(cx.path(node.id, "on")),
                                );
                                sides.push(None);
                            }
                        }
                    }
                    if let (Some(Some(l)), Some(Some(r))) = (sides.first(), sides.get(1)) {
                        if *l != FieldType::Any && *r != FieldType::Any && l != r {
                            out.push(
                                Diagnostic::warning(
                                    codes::JOIN_KEY_TYPE_SKEW,
                                    format!(
                                        "node {}: join key {on:?} is {} on the left but {} on the right",
                                        node.id,
                                        l.name(),
                                        r.name()
                                    ),
                                )
                                .at_node(node.id)
                                .at_path(cx.path(node.id, "on")),
                            );
                        }
                    }
                }
                _ => {}
            }
        }
    }
}

/// Checks math expressions: they must parse ([`MathExpr::parse`]), and their
/// `{out_N}` references must name existing nodes (ideally the node's
/// declared inputs) with numeric outputs.
struct MathRule;

impl LintRule for MathRule {
    fn code(&self) -> &'static str {
        codes::MATH_SYNTAX
    }

    fn check(&self, cx: &PlanCtx<'_>, out: &mut Vec<Diagnostic>) {
        for node in &cx.plan.nodes {
            let PlanOp::Math { expr } = &node.op else { continue };
            let parsed = match MathExpr::parse(expr) {
                Ok(parsed) => parsed,
                Err(e) => {
                    let message = format!("node {}: math expression {expr:?} does not parse: {e}", node.id);
                    out.push(Diagnostic::error(codes::MATH_SYNTAX, message).at_node(node.id).at_path(cx.path(node.id, "expr")));
                    continue;
                }
            };
            for r in parsed.refs() {
                if cx.plan.node(r).is_none() {
                    out.push(
                        Diagnostic::error(
                            codes::MATH_UNKNOWN_REF,
                            format!(
                                "node {}: math references out_{r}, which is not in the plan",
                                node.id
                            ),
                        )
                        .at_node(node.id)
                        .at_path(cx.path(node.id, "expr")),
                    );
                    continue;
                }
                if !node.inputs.contains(&r) {
                    out.push(
                        Diagnostic::warning(
                            codes::MATH_REF_NOT_INPUT,
                            format!(
                                "node {}: math references out_{r} without listing it as an input (it still runs first)",
                                node.id
                            ),
                        )
                        .at_node(node.id)
                        .at_path(cx.path(node.id, "inputs")),
                    );
                }
                if let Some(Shape::Scalar(t)) = cx.shape_of(r) {
                    if !t.is_numeric() {
                        out.push(
                            Diagnostic::error(
                                codes::TYPE_MISMATCH,
                                format!(
                                    "node {}: math uses out_{r}, which is a {} scalar, not a number",
                                    node.id,
                                    t.name()
                                ),
                            )
                            .at_node(node.id)
                            .at_path(cx.path(node.id, "expr")),
                        );
                    }
                }
            }
        }
    }
}

/// Scans of indexes the analyzer has no schema for.
struct UnknownIndexRule;

impl LintRule for UnknownIndexRule {
    fn code(&self) -> &'static str {
        codes::UNKNOWN_INDEX
    }

    fn check(&self, cx: &PlanCtx<'_>, out: &mut Vec<Diagnostic>) {
        if cx.schemas.is_empty() {
            return;
        }
        for node in &cx.plan.nodes {
            let PlanOp::QueryDatabase { index, .. } = &node.op else { continue };
            if !cx.schemas.iter().any(|s| s.index == *index) {
                let known: Vec<&str> = cx.schemas.iter().map(|s| s.index.as_str()).collect();
                out.push(
                    Diagnostic::warning(
                        codes::UNKNOWN_INDEX,
                        format!(
                            "node {}: index {index:?} has no discovered schema; field checks are disabled for it",
                            node.id
                        ),
                    )
                    .at_node(node.id)
                    .at_path(cx.path(node.id, "index"))
                    .with_suggestion(format!("known indexes: {}", known.join(", "))),
                );
            }
        }
    }
}

/// The rewrites the default pass order makes, as hints, each detected by
/// the optimizer's own site finder:
/// - `semantic-pushdown`: `llmFilter` predicates the optimizer answers by
///   string matching against an extracted property — the paper's "string
///   matching vs semantic matching" decision (§6.1) — at the sites
///   [`crate::optimize::pushdown_sites`] finds;
/// - `filter-reorder`: structured filters downstream of a semantic filter in
///   a linear chain, which the reorder pass moves first to shrink the rows
///   the LLM sees — [`crate::optimize::reorder_sites`] of the plan as
///   pushdown leaves it, so a pushed-down filter is never named semantic.
struct RewriteHintRule;

impl LintRule for RewriteHintRule {
    fn code(&self) -> &'static str {
        codes::SEMANTIC_PUSHDOWN
    }

    fn check(&self, cx: &PlanCtx<'_>, out: &mut Vec<Diagnostic>) {
        let pushdowns = crate::optimize::pushdown_sites(cx.plan, cx.shapes);
        for (id, op) in &pushdowns {
            let Some(PlanOp::LlmFilter { predicate, .. }) = cx.plan.node(*id).map(|n| &n.op) else { continue };
            out.push(
                Diagnostic::hint(
                    codes::SEMANTIC_PUSHDOWN,
                    format!(
                        "node {id}: llmFilter {predicate:?} can be answered by string matching on an extracted property"
                    ),
                )
                .at_node(*id)
                .at_path(cx.path(*id, "predicate"))
                .with_suggestion(format!("{} {}", op.kind(), crate::optimize::condition(op))),
            );
        }
        let pushed: Vec<usize> = pushdowns.iter().map(|(id, _)| *id).collect();
        for (parent, child) in crate::optimize::reorder_sites(cx.plan, &pushed) {
            out.push(
                Diagnostic::hint(
                    codes::FILTER_REORDER,
                    format!(
                        "node {child}: structured filter runs after LLM operator out_{parent}; \
                         running it first would reduce per-row LLM calls"
                    ),
                )
                .at_node(child)
                .at_path(cx.path(child, ""))
                .with_suggestion("let the optimizer reorder structured filters before semantic ones"),
            );
        }
    }
}

/// Nodes whose output never reaches the result.
struct DeadNodeRule;

impl LintRule for DeadNodeRule {
    fn code(&self) -> &'static str {
        codes::DEAD_NODE
    }

    fn check(&self, cx: &PlanCtx<'_>, out: &mut Vec<Diagnostic>) {
        let mut live: BTreeSet<usize> = BTreeSet::new();
        let mut stack = vec![cx.plan.result];
        while let Some(id) = stack.pop() {
            if !live.insert(id) {
                continue;
            }
            if let Some(n) = cx.plan.node(id) {
                stack.extend(n.inputs.iter().copied());
                // Math nodes may pull values from referenced nodes that are
                // not wired as inputs; those are live too.
                if let PlanOp::Math { expr } = &n.op {
                    stack.extend(MathExpr::parse(expr).iter().flat_map(MathExpr::refs));
                }
            }
        }
        for node in &cx.plan.nodes {
            if !live.contains(&node.id) {
                out.push(
                    Diagnostic::warning(
                        codes::DEAD_NODE,
                        format!(
                            "node {} ({}) does not contribute to the result node {}",
                            node.id,
                            node.op.kind(),
                            cx.plan.result
                        ),
                    )
                    .at_node(node.id)
                    .at_path(cx.path(node.id, ""))
                    .with_suggestion("remove the node, or wire its output into the result"),
                );
            }
        }
    }
}

/// `llmExtract` of a field the schema already carries: the stored property is
/// free, the extraction costs one LLM call per row.
struct RedundantExtractRule;

impl LintRule for RedundantExtractRule {
    fn code(&self) -> &'static str {
        codes::REDUNDANT_EXTRACT
    }

    fn check(&self, cx: &PlanCtx<'_>, out: &mut Vec<Diagnostic>) {
        for node in &cx.plan.nodes {
            let PlanOp::LlmExtract { field, .. } = &node.op else { continue };
            let shape = cx.input_shape(node, 0);
            if let Resolution::Known(_) = shape.resolve(field) {
                out.push(
                    Diagnostic::warning(
                        codes::REDUNDANT_EXTRACT,
                        format!(
                            "node {}: llmExtract of {field:?}, which its input already carries",
                            node.id
                        ),
                    )
                    .at_node(node.id)
                    .at_path(cx.path(node.id, "field"))
                    .with_suggestion(format!("read the stored property {field:?} directly")),
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aryn_core::obj;
    use aryn_index::DocStore;

    fn ntsb_schema_fixture() -> Vec<IndexSchema> {
        let mut ntsb = DocStore::new();
        let mut d = aryn_core::Document::new("n1");
        d.properties = obj! {
            "us_state_abbrev" => "AK", "year" => 2019i64, "cause_category" => "environmental",
            "cause_detail" => "wind", "fatal" => 0i64, "weather_related" => true,
        };
        ntsb.try_put(d).unwrap();
        vec![IndexSchema::discover("ntsb", ntsb.len(), ntsb.schema())]
    }

    fn scan(id: usize) -> PlanNode {
        PlanNode {
            id,
            op: PlanOp::QueryDatabase {
                index: "ntsb".into(),
                prefilter: vec![],
            },
            inputs: vec![],
            description: String::new(),
        }
    }

    fn node(id: usize, op: PlanOp, inputs: Vec<usize>) -> PlanNode {
        PlanNode {
            id,
            op,
            inputs,
            description: String::new(),
        }
    }

    #[test]
    fn clean_plan_has_no_errors() {
        let plan = Plan {
            nodes: vec![
                scan(0),
                node(
                    1,
                    PlanOp::BasicFilter {
                        path: "us_state_abbrev".into(),
                        value: Value::from("AK"),
                    },
                    vec![0],
                ),
                node(2, PlanOp::Count, vec![1]),
            ],
            result: 2,
        };
        let a = analyze(&plan, &ntsb_schema_fixture());
        assert!(!a.has_errors(), "{}", a.render());
        assert!(matches!(a.shapes.get(&2), Some(Shape::Scalar(FieldType::Num))));
    }

    #[test]
    fn unknown_field_is_an_error_on_closed_schema() {
        let plan = Plan {
            nodes: vec![
                scan(0),
                node(
                    1,
                    PlanOp::BasicFilter {
                        path: "altitude".into(),
                        value: Value::Int(3000),
                    },
                    vec![0],
                ),
            ],
            result: 1,
        };
        // Structural validation accepts this…
        plan.validate().unwrap();
        // …but the analyzer catches it.
        let a = analyze(&plan, &ntsb_schema_fixture());
        assert!(a
            .errors()
            .iter()
            .any(|d| d.code == codes::UNKNOWN_FIELD && d.node_id == Some(1)));
        // With no schema the scan is open and the reference is tolerated.
        let open = analyze(&plan, &[]);
        assert!(!open.has_errors(), "{}", open.render());
    }

    #[test]
    fn type_mismatch_is_caught() {
        let plan = Plan {
            nodes: vec![
                scan(0),
                node(
                    1,
                    PlanOp::BasicFilter {
                        path: "year".into(),
                        value: Value::from("two thousand nineteen"),
                    },
                    vec![0],
                ),
            ],
            result: 1,
        };
        plan.validate().unwrap();
        let a = analyze(&plan, &ntsb_schema_fixture());
        assert!(a.errors().iter().any(|d| d.code == codes::TYPE_MISMATCH));
    }

    #[test]
    fn aggregate_over_non_numeric_is_caught() {
        let plan = Plan {
            nodes: vec![
                scan(0),
                node(
                    1,
                    PlanOp::Aggregate {
                        key: String::new(),
                        func: "sum".into(),
                        path: "cause_detail".into(),
                    },
                    vec![0],
                ),
            ],
            result: 1,
        };
        plan.validate().unwrap();
        let a = analyze(&plan, &ntsb_schema_fixture());
        assert!(a
            .errors()
            .iter()
            .any(|d| d.code == codes::AGGREGATE_NON_NUMERIC));
    }

    #[test]
    fn llm_extract_extends_the_schema() {
        let plan = Plan {
            nodes: vec![
                scan(0),
                node(
                    1,
                    PlanOp::LlmExtract {
                        field: "phase".into(),
                        ftype: "string".into(),
                        model: String::new(),
                    },
                    vec![0],
                ),
                node(
                    2,
                    PlanOp::Aggregate {
                        key: "phase".into(),
                        func: "count".into(),
                        path: String::new(),
                    },
                    vec![1],
                ),
                node(
                    3,
                    PlanOp::TopK {
                        path: "count".into(),
                        descending: true,
                        k: 1,
                    },
                    vec![2],
                ),
            ],
            result: 3,
        };
        let a = analyze(&plan, &ntsb_schema_fixture());
        assert!(!a.has_errors(), "{}", a.render());
        // The aggregate's output shape carries the group key and count.
        match a.shapes.get(&2) {
            Some(Shape::Rows { fields, .. }) => {
                assert!(fields.contains_key("phase"));
                assert!(fields.contains_key("count"));
            }
            other => panic!("expected rows, got {other:?}"),
        }
    }

    #[test]
    fn scalar_input_is_caught() {
        let plan = Plan {
            nodes: vec![
                scan(0),
                node(1, PlanOp::Count, vec![0]),
                node(
                    2,
                    PlanOp::BasicFilter {
                        path: "year".into(),
                        value: Value::Int(2019),
                    },
                    vec![1],
                ),
            ],
            result: 2,
        };
        plan.validate().unwrap();
        let a = analyze(&plan, &ntsb_schema_fixture());
        assert!(a.errors().iter().any(|d| d.code == codes::SCALAR_INPUT));
    }

    #[test]
    fn math_rules_catch_bad_refs_and_syntax() {
        let bad_ref = Plan {
            nodes: vec![
                scan(0),
                node(1, PlanOp::Count, vec![0]),
                node(2, PlanOp::Math { expr: "{out_9} + 1".into() }, vec![1]),
            ],
            result: 2,
        };
        let a = analyze(&bad_ref, &ntsb_schema_fixture());
        assert!(a.errors().iter().any(|d| d.code == codes::MATH_UNKNOWN_REF));

        let bad_syntax = Plan {
            nodes: vec![
                scan(0),
                node(1, PlanOp::Count, vec![0]),
                node(2, PlanOp::Math { expr: "{out_1} + ".into() }, vec![1]),
            ],
            result: 2,
        };
        let a = analyze(&bad_syntax, &ntsb_schema_fixture());
        assert!(a.errors().iter().any(|d| d.code == codes::MATH_SYNTAX));

        let not_input = Plan {
            nodes: vec![
                scan(0),
                node(1, PlanOp::Count, vec![0]),
                node(2, PlanOp::Count, vec![0]),
                node(3, PlanOp::Math { expr: "{out_1} + {out_2}".into() }, vec![1]),
            ],
            result: 3,
        };
        let a = analyze(&not_input, &ntsb_schema_fixture());
        assert!(a
            .diagnostics
            .iter()
            .any(|d| d.code == codes::MATH_REF_NOT_INPUT));
    }

    #[test]
    fn hints_fire_for_pushdown_and_reorder() {
        let llm_filter = |id: usize, predicate: &str| {
            node(id, PlanOp::LlmFilter { predicate: predicate.into(), model: String::new() }, vec![id - 1])
        };
        let since_2019 = |id: usize| {
            node(id, PlanOp::RangeFilter { path: "year".into(), lo: Some(Value::Int(2019)), hi: None }, vec![id - 1])
        };
        let hinted = |nodes: Vec<PlanNode>, code: &str| {
            let result = nodes.len();
            let mut nodes = nodes;
            nodes.push(node(result, PlanOp::Count, vec![result - 1]));
            let a = analyze(&Plan { nodes, result }, &ntsb_schema_fixture());
            assert!(!a.has_errors(), "{}", a.render());
            a.diagnostics.iter().filter(|d| d.code == code).filter_map(|d| d.node_id).collect::<Vec<_>>()
        };
        let alaska = "the incident occurred in Alaska (AK)";
        let gusts = "the report mentions strong gusts";
        // The pushed-down filter is structured by the time the reorder pass
        // runs: nothing to swap.
        let pushed = || vec![scan(0), llm_filter(1, alaska), since_2019(2)];
        assert_eq!(hinted(pushed(), codes::SEMANTIC_PUSHDOWN), vec![1]);
        assert!(hinted(pushed(), codes::FILTER_REORDER).is_empty());
        // A semantic filter the pushdown leaves alone keeps its reorder hint.
        let kept = || vec![scan(0), llm_filter(1, alaska), llm_filter(2, gusts), since_2019(3)];
        assert_eq!(hinted(kept(), codes::SEMANTIC_PUSHDOWN), vec![1]);
        assert_eq!(hinted(kept(), codes::FILTER_REORDER), vec![3]);
        // Pushdown can also make a site: its rewrite follows a semantic filter.
        let made = vec![scan(0), llm_filter(1, gusts), llm_filter(2, alaska)];
        assert_eq!(hinted(made, codes::FILTER_REORDER), vec![2]);
    }

    #[test]
    fn fatality_pushdown_is_hinted_unless_negated() {
        let hints = |predicate: &str| {
            let plan = Plan {
                nodes: vec![
                    scan(0),
                    node(1, PlanOp::LlmFilter { predicate: predicate.into(), model: String::new() }, vec![0]),
                    node(2, PlanOp::Count, vec![1]),
                ],
                result: 2,
            };
            let a = analyze(&plan, &ntsb_schema_fixture());
            a.diagnostics
                .into_iter()
                .filter(|d| d.code == codes::SEMANTIC_PUSHDOWN)
                .map(|d| d.suggestion.unwrap_or_default())
                .collect::<Vec<_>>()
        };
        assert_eq!(hints("involved a fatality"), vec!["rangeFilter fatal >= 1".to_string()]);
        assert!(hints("the incident involved no fatalities").is_empty());
        assert!(hints("the accident was not fatal").is_empty());
    }

    #[test]
    fn extract_then_range_filter_is_not_a_reorder_site() {
        // The reorder pass only swaps past an llmFilter, so an extract
        // followed by a structured filter gets no hint.
        let plan = Plan {
            nodes: vec![
                scan(0),
                node(
                    1,
                    PlanOp::LlmExtract { field: "phase".into(), ftype: "string".into(), model: String::new() },
                    vec![0],
                ),
                node(
                    2,
                    PlanOp::RangeFilter { path: "year".into(), lo: Some(Value::Int(2019)), hi: None },
                    vec![1],
                ),
                node(3, PlanOp::Count, vec![2]),
            ],
            result: 3,
        };
        let a = analyze(&plan, &ntsb_schema_fixture());
        assert!(!a.has_errors(), "{}", a.render());
        assert!(a.diagnostics.iter().all(|d| d.code != codes::FILTER_REORDER), "{}", a.render());
    }

    #[test]
    fn dead_node_and_redundant_extract_warn() {
        let plan = Plan {
            nodes: vec![
                scan(0),
                node(1, PlanOp::Count, vec![0]),
                node(
                    2,
                    PlanOp::LlmExtract {
                        field: "cause_detail".into(),
                        ftype: "string".into(),
                        model: String::new(),
                    },
                    vec![0],
                ),
            ],
            result: 1,
        };
        let a = analyze(&plan, &ntsb_schema_fixture());
        assert!(a.diagnostics.iter().any(|d| d.code == codes::DEAD_NODE && d.node_id == Some(2)));
        assert!(a
            .diagnostics
            .iter()
            .any(|d| d.code == codes::REDUNDANT_EXTRACT));
        assert!(!a.has_errors());
    }

    #[test]
    fn join_type_skew_warns() {
        let mut left = DocStore::new();
        let mut d = aryn_core::Document::new("l1");
        d.properties = obj! { "company" => "Apex", "year" => 2024i64 };
        left.try_put(d).unwrap();
        let mut right = DocStore::new();
        let mut d = aryn_core::Document::new("r1");
        d.properties = obj! { "company" => 7i64 };
        right.try_put(d).unwrap();
        let schemas = vec![
            IndexSchema::discover("left", left.len(), left.schema()),
            IndexSchema::discover("right", right.len(), right.schema()),
        ];
        let plan = Plan {
            nodes: vec![
                node(
                    0,
                    PlanOp::QueryDatabase { index: "left".into(), prefilter: vec![] },
                    vec![],
                ),
                node(
                    1,
                    PlanOp::QueryDatabase { index: "right".into(), prefilter: vec![] },
                    vec![],
                ),
                node(2, PlanOp::Join { on: "company".into() }, vec![0, 1]),
            ],
            result: 2,
        };
        let a = analyze(&plan, &schemas);
        assert!(a
            .diagnostics
            .iter()
            .any(|d| d.code == codes::JOIN_KEY_TYPE_SKEW));
    }

    #[test]
    fn unknown_aggregate_func_is_an_error() {
        let plan = Plan {
            nodes: vec![
                scan(0),
                node(
                    1,
                    PlanOp::Aggregate {
                        key: String::new(),
                        func: "median".into(),
                        path: "fatal".into(),
                    },
                    vec![0],
                ),
            ],
            result: 1,
        };
        let a = analyze(&plan, &ntsb_schema_fixture());
        assert!(a
            .errors()
            .iter()
            .any(|d| d.code == codes::UNKNOWN_AGGREGATE_FUNC));
    }

    #[test]
    fn structural_errors_short_circuit() {
        let plan = Plan { nodes: vec![], result: 0 };
        let a = analyze(&plan, &[]);
        assert!(a.has_errors());
        assert!(a.shapes.is_empty());
    }

    #[test]
    fn custom_rules_extend_the_registry() {
        struct NoJoins;
        impl LintRule for NoJoins {
            fn code(&self) -> &'static str {
                "no-joins"
            }
            fn check(&self, cx: &PlanCtx<'_>, out: &mut Vec<Diagnostic>) {
                for n in &cx.plan.nodes {
                    if matches!(n.op, PlanOp::Join { .. }) {
                        out.push(
                            Diagnostic::warning("no-joins", "joins are banned here").at_node(n.id),
                        );
                    }
                }
            }
        }
        let plan = Plan {
            nodes: vec![
                scan(0),
                scan(1),
                node(2, PlanOp::Join { on: "year".into() }, vec![0, 1]),
            ],
            result: 2,
        };
        let a = Analyzer::new()
            .with_rule(Box::new(NoJoins))
            .analyze(&plan, &ntsb_schema_fixture());
        assert!(a.diagnostics.iter().any(|d| d.code == "no-joins"));
    }

    #[test]
    fn field_type_lattice() {
        assert_eq!(FieldType::parse("int"), FieldType::Num);
        assert_eq!(FieldType::parse("string"), FieldType::Str);
        assert_eq!(FieldType::Num.join(FieldType::Num), FieldType::Num);
        assert_eq!(FieldType::Num.join(FieldType::Str), FieldType::Any);
        assert!(FieldType::Any.compatible(FieldType::Bool));
        assert!(FieldType::Date.compatible(FieldType::Str));
        assert!(!FieldType::Num.compatible(FieldType::Str));
    }

    #[test]
    fn duplicate_scan_arity_messages_match_validate() {
        // The thin validate() wrapper must surface the same first error.
        let mut p = Plan {
            nodes: vec![scan(0), node(1, PlanOp::Count, vec![0])],
            result: 1,
        };
        p.nodes[1].id = 0;
        let d = structural(&p);
        assert!(d.iter().any(|d| d.code == codes::DUPLICATE_NODE_ID));
        match p.validate() {
            Err(aryn_core::ArynError::InvalidPlan(m)) => assert!(m.contains("duplicate node id")),
            other => panic!("{other:?}"),
        }
    }
}
