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
//! rendered Error diagnostics (the repair loop), the optimizer verifies every
//! pass output in all build profiles, and the executor refuses plans with
//! Error diagnostics.

use crate::ops::{Plan, PlanNode, PlanOp};
use crate::schema::IndexSchema;
use aryn_core::{Diagnostic, Severity, Value};
use std::collections::{BTreeMap, BTreeSet};

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
        match name.trim().to_ascii_lowercase().as_str() {
            "string" | "str" | "text" => FieldType::Str,
            "int" | "integer" | "float" | "number" | "double" => FieldType::Num,
            "bool" | "boolean" => FieldType::Bool,
            "date" | "datetime" => FieldType::Date,
            "array" | "list" => FieldType::List,
            _ => FieldType::Any,
        }
    }

    /// The type of a literal JSON value.
    pub fn of_value(v: &Value) -> FieldType {
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

    pub fn is_numeric(self) -> bool {
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
    pub fn open_rows() -> Shape {
        Shape::Rows {
            fields: BTreeMap::new(),
            open: true,
        }
    }

    pub fn is_rows(&self) -> bool {
        matches!(self, Shape::Rows { .. })
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
    pub fn field_names(&self) -> Vec<&str> {
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
        match &n.op {
            PlanOp::LlmFilter { predicate, .. } if predicate.trim().is_empty() => {
                out.push(
                    Diagnostic::error(
                        codes::EMPTY_PARAM,
                        format!("node {}: llmFilter with empty predicate", n.id),
                    )
                    .at_node(n.id)
                    .at_path(format!("{npath}.predicate")),
                );
            }
            PlanOp::LlmExtract { field, .. } if field.trim().is_empty() => {
                out.push(
                    Diagnostic::error(
                        codes::EMPTY_PARAM,
                        format!("node {}: llmExtract with empty field", n.id),
                    )
                    .at_node(n.id)
                    .at_path(format!("{npath}.field")),
                );
            }
            PlanOp::Math { expr } if expr.trim().is_empty() => {
                out.push(
                    Diagnostic::error(
                        codes::EMPTY_PARAM,
                        format!("node {}: math with empty expression", n.id),
                    )
                    .at_node(n.id)
                    .at_path(format!("{npath}.expr")),
                );
            }
            _ => {}
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

fn agg_value_type(func: &str, path_type: FieldType) -> FieldType {
    match func {
        "count" | "" | "sum" | "avg" | "mean" | "average" => FieldType::Num,
        "min" | "max" => path_type,
        _ => FieldType::Any,
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
        let shape = match &node.op {
            PlanOp::QueryDatabase { index, .. } => schema_shape(index, schemas),
            PlanOp::BasicFilter { .. }
            | PlanOp::RangeFilter { .. }
            | PlanOp::LlmFilter { .. }
            | PlanOp::Sort { .. }
            | PlanOp::TopK { .. } => input_rows_shape(node, &shapes, 0),
            PlanOp::LlmExtract { field, ftype, .. } => {
                let mut s = input_rows_shape(node, &shapes, 0);
                if let Shape::Rows { fields, .. } = &mut s {
                    fields.insert(field.clone(), FieldType::parse(ftype));
                }
                s
            }
            PlanOp::Count => Shape::Scalar(FieldType::Num),
            PlanOp::Aggregate { key, func, path } => {
                if key.is_empty() {
                    Shape::Scalar(FieldType::Num)
                } else {
                    let input = input_rows_shape(node, &shapes, 0);
                    let key_type = match input.resolve(key) {
                        Resolution::Known(t) => t,
                        _ => FieldType::Any,
                    };
                    let path_type = match input.resolve(path) {
                        Resolution::Known(t) => t,
                        _ => FieldType::Any,
                    };
                    let mut fields = BTreeMap::new();
                    fields.insert(key.clone(), key_type);
                    fields.insert("count".to_string(), FieldType::Num);
                    fields.insert("value".to_string(), agg_value_type(func, path_type));
                    Shape::Rows {
                        fields,
                        open: false,
                    }
                }
            }
            PlanOp::Join { .. } => {
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
            PlanOp::Math { .. } => Shape::Scalar(FieldType::Num),
            PlanOp::GraphExpand { output, .. } => {
                let mut s = input_rows_shape(node, &shapes, 0);
                if let Shape::Rows { fields, .. } = &mut s {
                    fields.insert(output.clone(), FieldType::List);
                }
                s
            }
            PlanOp::SummarizeData { .. } | PlanOp::LlmGenerate { .. } => {
                Shape::Scalar(FieldType::Str)
            }
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

    pub fn shape_of(&self, node_id: usize) -> Option<&Shape> {
        self.shapes.get(&node_id)
    }

    /// Shape of a node's i-th input (open rows when unavailable).
    pub fn input_shape(&self, node: &PlanNode, i: usize) -> Shape {
        input_rows_shape(node, self.shapes, i)
    }

    /// How many nodes consume a node's output.
    pub fn consumers(&self, node_id: usize) -> usize {
        self.plan
            .nodes
            .iter()
            .filter(|n| n.inputs.contains(&node_id))
            .count()
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
                Box::new(PushdownHintRule),
                Box::new(ReorderHintRule),
                Box::new(DeadNodeRule),
                Box::new(RedundantExtractRule),
            ],
        }
    }

    /// An analyzer with no rules (structural checks + inference only).
    pub fn empty() -> Analyzer {
        Analyzer { rules: Vec::new() }
    }

    pub fn with_rule(mut self, rule: Box<dyn LintRule>) -> Analyzer {
        self.rules.push(rule);
        self
    }

    /// Runs the full analysis. Structural errors stop inference (shapes stay
    /// empty); otherwise every rule runs over the inferred shapes.
    pub fn analyze(&self, plan: &Plan, schemas: &[IndexSchema]) -> Analysis {
        let mut diagnostics = structural(plan);
        if aryn_core::diag::has_errors(&diagnostics) {
            return Analysis {
                diagnostics,
                shapes: BTreeMap::new(),
            };
        }
        let order = match plan.topo_order() {
            Ok(o) => o,
            Err(_) => {
                // Unreachable: structural() already vetted the DAG.
                return Analysis {
                    diagnostics,
                    shapes: BTreeMap::new(),
                };
            }
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
    let mut d = Diagnostic::new(
        codes::UNKNOWN_FIELD,
        severity,
        format!(
            "node {} ({}): field {field:?} does not exist in its input",
            node.id,
            node.op.kind()
        ),
    )
    .at_node(node.id)
    .at_path(cx.path(node.id, json_field));
    if let Some(s) = available_fields(shape) {
        d = d.with_suggestion(s);
    }
    d
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
    fn check_literal(
        cx: &PlanCtx<'_>,
        node: &PlanNode,
        json_field: &str,
        field: &str,
        ftype: FieldType,
        value: &Value,
        out: &mut Vec<Diagnostic>,
    ) {
        if value.is_null() {
            return;
        }
        let vt = FieldType::of_value(value);
        if !ftype.compatible(vt) {
            out.push(
                Diagnostic::error(
                    codes::TYPE_MISMATCH,
                    format!(
                        "node {} ({}): field {field:?} is {} but the literal {value} is {}",
                        node.id,
                        node.op.kind(),
                        ftype.name(),
                        vt.name()
                    ),
                )
                .at_node(node.id)
                .at_path(cx.path(node.id, json_field)),
            );
        }
    }

    fn check_resolved(
        cx: &PlanCtx<'_>,
        node: &PlanNode,
        json_field: &str,
        field: &str,
        shape: &Shape,
        severity: Severity,
        out: &mut Vec<Diagnostic>,
    ) -> Option<FieldType> {
        match shape.resolve(field) {
            Resolution::Known(t) => Some(t),
            Resolution::Open => None,
            Resolution::Unknown => {
                out.push(unknown_field(cx, severity, node, json_field, field, shape));
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
                    let Some(shape) = cx.shape_of(node.id).cloned() else { continue };
                    for (k, v) in prefilter {
                        if let Some(t) = Self::check_resolved(
                            cx,
                            node,
                            &format!("prefilter.{k}"),
                            k,
                            &shape,
                            Severity::Error,
                            out,
                        ) {
                            Self::check_literal(
                                cx,
                                node,
                                &format!("prefilter.{k}"),
                                k,
                                t,
                                v,
                                out,
                            );
                        }
                    }
                }
                PlanOp::BasicFilter { path, value } => {
                    let shape = cx.input_shape(node, 0);
                    if let Some(t) = Self::check_resolved(
                        cx,
                        node,
                        "path",
                        path,
                        &shape,
                        Severity::Error,
                        out,
                    ) {
                        Self::check_literal(cx, node, "value", path, t, value, out);
                    }
                }
                PlanOp::RangeFilter { path, lo, hi } => {
                    let shape = cx.input_shape(node, 0);
                    if let Some(t) = Self::check_resolved(
                        cx,
                        node,
                        "path",
                        path,
                        &shape,
                        Severity::Error,
                        out,
                    ) {
                        for (name, bound) in [("lo", lo), ("hi", hi)] {
                            if let Some(v) = bound {
                                Self::check_literal(cx, node, name, path, t, v, out);
                            }
                        }
                    }
                }
                PlanOp::Aggregate { key, func, path } => {
                    let shape = cx.input_shape(node, 0);
                    let needs_numeric = matches!(func.as_str(), "sum" | "avg" | "mean" | "average");
                    let ordered = matches!(func.as_str(), "min" | "max");
                    if !needs_numeric && !ordered && !matches!(func.as_str(), "count" | "") {
                        out.push(
                            Diagnostic::error(
                                codes::UNKNOWN_AGGREGATE_FUNC,
                                format!(
                                    "node {}: unknown aggregate function {func:?}",
                                    node.id
                                ),
                            )
                            .at_node(node.id)
                            .at_path(cx.path(node.id, "func"))
                            .with_suggestion("use one of count, sum, avg, min, max"),
                        );
                    }
                    if needs_numeric || ordered {
                        let severity = if needs_numeric {
                            Severity::Error
                        } else {
                            Severity::Warning
                        };
                        if let Some(t) =
                            Self::check_resolved(cx, node, "path", path, &shape, severity, out)
                        {
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
                        Self::check_resolved(
                            cx,
                            node,
                            "key",
                            key,
                            &shape,
                            Severity::Warning,
                            out,
                        );
                    }
                }
                PlanOp::Sort { path, .. } | PlanOp::TopK { path, .. } => {
                    let shape = cx.input_shape(node, 0);
                    Self::check_resolved(
                        cx,
                        node,
                        "path",
                        path,
                        &shape,
                        Severity::Warning,
                        out,
                    );
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

/// Checks `{out_N}` references in math expressions: they must name existing
/// nodes (ideally the node's declared inputs) with numeric outputs, and the
/// expression must parse.
struct MathRule;

impl MathRule {
    fn refs(expr: &str) -> (Vec<usize>, bool) {
        let mut refs = Vec::new();
        let mut rest = expr;
        let mut malformed = false;
        while let Some(start) = rest.find("{out_") {
            let after = &rest[start + 5..];
            match after.find('}') {
                Some(end) => {
                    match after[..end].parse::<usize>() {
                        Ok(id) => refs.push(id),
                        Err(_) => malformed = true,
                    }
                    rest = &after[end + 1..];
                }
                None => {
                    malformed = true;
                    break;
                }
            }
        }
        (refs, malformed)
    }
}

impl LintRule for MathRule {
    fn code(&self) -> &'static str {
        codes::MATH_SYNTAX
    }

    fn check(&self, cx: &PlanCtx<'_>, out: &mut Vec<Diagnostic>) {
        for node in &cx.plan.nodes {
            let PlanOp::Math { expr } = &node.op else { continue };
            let (refs, malformed) = Self::refs(expr);
            if malformed {
                out.push(
                    Diagnostic::error(
                        codes::MATH_SYNTAX,
                        format!("node {}: malformed {{out_N}} reference in {expr:?}", node.id),
                    )
                    .at_node(node.id)
                    .at_path(cx.path(node.id, "expr")),
                );
                continue;
            }
            for r in &refs {
                if cx.plan.node(*r).is_none() {
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
                if !node.inputs.contains(r) {
                    out.push(
                        Diagnostic::warning(
                            codes::MATH_REF_NOT_INPUT,
                            format!(
                                "node {}: math references out_{r} but does not list it as an input; \
                                 execution order is not guaranteed",
                                node.id
                            ),
                        )
                        .at_node(node.id)
                        .at_path(cx.path(node.id, "inputs")),
                    );
                }
                if let Some(Shape::Scalar(t)) = cx.shape_of(*r) {
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
            // Syntax check: substitute each reference with a distinct
            // constant and evaluate. Division-by-zero under the substitution
            // is not a syntax error.
            let mut probe = expr.clone();
            for (i, r) in refs.iter().enumerate() {
                probe = probe.replace(&format!("{{out_{r}}}"), &format!("{}", 3 + 2 * i));
            }
            if let Err(e) = crate::exec::eval_math(&probe) {
                let msg = e.to_string();
                if !msg.contains("division by zero") {
                    out.push(
                        Diagnostic::error(
                            codes::MATH_SYNTAX,
                            format!("node {}: math expression {expr:?} does not parse: {msg}", node.id),
                        )
                        .at_node(node.id)
                        .at_path(cx.path(node.id, "expr")),
                    );
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

/// `llmFilter` predicates the optimizer could answer by string matching
/// against an extracted property — the paper's "string matching vs semantic
/// matching" decision (§6.1).
struct PushdownHintRule;

impl LintRule for PushdownHintRule {
    fn code(&self) -> &'static str {
        codes::SEMANTIC_PUSHDOWN
    }

    fn check(&self, cx: &PlanCtx<'_>, out: &mut Vec<Diagnostic>) {
        let index = cx.plan.nodes.iter().find_map(|n| match &n.op {
            PlanOp::QueryDatabase { index, .. } => Some(index.clone()),
            _ => None,
        });
        let Some(index) = index else { return };
        let Some(schema) = cx.schemas.iter().find(|s| s.index == index) else { return };
        for node in &cx.plan.nodes {
            let PlanOp::LlmFilter { predicate, .. } = &node.op else { continue };
            if let Some((path, value)) = crate::optimize::structured_equivalent(predicate, schema) {
                out.push(
                    Diagnostic::hint(
                        codes::SEMANTIC_PUSHDOWN,
                        format!(
                            "node {}: llmFilter {predicate:?} can be answered by string matching on an extracted property",
                            node.id
                        ),
                    )
                    .at_node(node.id)
                    .at_path(cx.path(node.id, "predicate"))
                    .with_suggestion(format!("basicFilter {path} = {value}")),
                );
            }
        }
    }
}

/// Structured filters downstream of LLM operators in a linear chain: running
/// them first shrinks the row set the LLM sees.
struct ReorderHintRule;

impl LintRule for ReorderHintRule {
    fn code(&self) -> &'static str {
        codes::FILTER_REORDER
    }

    fn check(&self, cx: &PlanCtx<'_>, out: &mut Vec<Diagnostic>) {
        for node in &cx.plan.nodes {
            if !matches!(
                node.op,
                PlanOp::BasicFilter { .. } | PlanOp::RangeFilter { .. }
            ) {
                continue;
            }
            let [parent_id] = node.inputs[..] else { continue };
            let Some(parent) = cx.plan.node(parent_id) else { continue };
            if !matches!(
                parent.op,
                PlanOp::LlmFilter { .. } | PlanOp::LlmExtract { .. }
            ) {
                continue;
            }
            if cx.consumers(parent_id) != 1 {
                continue;
            }
            out.push(
                Diagnostic::hint(
                    codes::FILTER_REORDER,
                    format!(
                        "node {}: structured filter runs after LLM operator out_{parent_id}; \
                         running it first would reduce per-row LLM calls",
                        node.id
                    ),
                )
                .at_node(node.id)
                .at_path(cx.path(node.id, ""))
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
                    let (refs, _) = MathRule::refs(expr);
                    stack.extend(refs);
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
        ntsb.put(d);
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
        let plan = Plan {
            nodes: vec![
                scan(0),
                node(
                    1,
                    PlanOp::LlmFilter {
                        predicate: "the incident occurred in Alaska (AK)".into(),
                        model: String::new(),
                    },
                    vec![0],
                ),
                node(
                    2,
                    PlanOp::RangeFilter {
                        path: "year".into(),
                        lo: Some(Value::Int(2019)),
                        hi: None,
                    },
                    vec![1],
                ),
                node(3, PlanOp::Count, vec![2]),
            ],
            result: 3,
        };
        let a = analyze(&plan, &ntsb_schema_fixture());
        assert!(!a.has_errors(), "{}", a.render());
        assert!(a
            .diagnostics
            .iter()
            .any(|d| d.code == codes::SEMANTIC_PUSHDOWN));
        assert!(a.diagnostics.iter().any(|d| d.code == codes::FILTER_REORDER));
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
        left.put(d);
        let mut right = DocStore::new();
        let mut d = aryn_core::Document::new("r1");
        d.properties = obj! { "company" => 7i64 };
        right.put(d);
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
        let a = Analyzer::empty()
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
