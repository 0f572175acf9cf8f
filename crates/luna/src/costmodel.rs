//! Static cost & liveness analysis over Luna plans — an abstract interpreter
//! that runs *before* the first execution-model dollar is spent.
//!
//! For every plan node it propagates interval abstractions ([`Interval`],
//! shared with the engine-side mirror `sycamore::cost`): row cardinality,
//! LLM calls (micro-batch-packing aware), prompt/completion tokens,
//! simulated dollars, and virtual-clock latency. The intervals are a
//! **checked contract**: an executed node's real [`crate::exec::NodeTrace`]
//! must land inside them for any worker count, batch width, cache state, or
//! chaos seed (enforced by the `cost_envelope` proptests). Alongside the
//! sound bounds, each node carries clean-run *point estimates* (`expected_*`)
//! used for feasibility warnings and the predicted-vs-actual bench deltas.
//!
//! Two consumers sit on top:
//!
//! 1. **Budget-feasibility verification** ([`verify`], packaged as the
//!    [`CostRules`] lint rule): compares the report against the active
//!    [`aryn_llm::ReliabilityPolicy`] deadline and emits the `L22`–`L27`
//!    diagnostics (`infeasible-deadline`, `token-budget-overflow`,
//!    `unbounded-cardinality`, `degraded-terminal-only`,
//!    `cache-blind-reexec`, `dead-field`) through the PR 2 pipeline — so the
//!    planner's repair loop and the execution gate see them like any other
//!    lint.
//! 2. **Field-liveness dataflow** ([`liveness`]): a backward pass over the
//!    plan DAG computing which extracted fields are ever read downstream;
//!    the optimizer's `prune_dead_fields` rewrite consumes it.

use crate::analyze::{codes, LintRule, PlanCtx};
use crate::ops::{Plan, PlanOp};
use crate::schema::IndexSchema;
use aryn_core::text::count_tokens;
use aryn_core::Diagnostic;
use aryn_llm::prompt::tasks;
use aryn_llm::registry::{spec_by_name, ModelSpec, ALL_MODELS};
use std::collections::{BTreeMap, BTreeSet};

pub use sycamore::cost::{CostKnobs, Interval, LlmBounds};
use sycamore::cost::{llm_bounds, TierFacts};

/// Typical per-document context tokens assumed by the clean-run point
/// estimates (sim corpora produce short narratives).
const TYP_CTX_TOKENS: f64 = 220.0;
/// Typical completion tokens per answered item for the point estimates.
const TYP_OUT_TOKENS: f64 = 20.0;

/// Per-node cost abstraction: sound intervals plus clean-run point
/// estimates.
#[derive(Debug, Clone)]
pub struct NodeCost {
    pub node_id: usize,
    pub op_kind: String,
    /// Rows (or 1 for a scalar) flowing out of this node.
    pub rows: Interval,
    pub llm: LlmBounds,
    pub expected_calls: f64,
    pub expected_tokens: f64,
    pub expected_cost_usd: f64,
    pub expected_latency_ms: f64,
}

impl NodeCost {
    fn pure(node_id: usize, op_kind: &str, rows: Interval) -> NodeCost {
        NodeCost {
            node_id,
            op_kind: op_kind.to_string(),
            rows,
            llm: LlmBounds::default(),
            expected_calls: 0.0,
            expected_tokens: 0.0,
            expected_cost_usd: 0.0,
            expected_latency_ms: 0.0,
        }
    }
}

/// The plan-level report, nodes in topological order.
#[derive(Debug, Clone, Default)]
pub struct CostReport {
    pub nodes: Vec<NodeCost>,
    pub rows_out: Interval,
    pub llm: LlmBounds,
    /// Makespan bound: per-doc work divides across workers at best, runs
    /// sequentially at worst.
    pub critical_path_ms: Interval,
    pub expected_calls: f64,
    pub expected_tokens: f64,
    pub expected_cost_usd: f64,
    pub expected_latency_ms: f64,
}

impl CostReport {
    pub fn node(&self, id: usize) -> Option<&NodeCost> {
        self.nodes.iter().find(|n| n.node_id == id)
    }

    /// One line per node plus totals — the `explain_analyze` cost block.
    pub fn render(&self) -> String {
        let mut out = String::from("static cost envelope (per node):\n");
        for n in &self.nodes {
            out.push_str(&format!(
                "  out_{} [{}] rows {}  calls {}  tokens {}  cost {}\n",
                n.node_id,
                n.op_kind,
                n.rows.render(),
                n.llm.calls.render(),
                n.llm.total_tokens().render(),
                n.llm.cost_usd.render()
            ));
        }
        out.push_str(&format!(
            "  totals: calls {}  tokens {}  cost {}  latency_ms {}  critical_path_ms {}\n",
            self.llm.calls.render(),
            self.llm.total_tokens().render(),
            self.llm.cost_usd.render(),
            self.llm.latency_ms.render(),
            self.critical_path_ms.render()
        ));
        out.push_str(&format!(
            "  expected (clean run): {:.0} calls  {:.0} tokens  ${:.4}  {:.0} ms\n",
            self.expected_calls, self.expected_tokens, self.expected_cost_usd, self.expected_latency_ms
        ));
        out
    }
}

/// Parameters of one LLM-calling node, fed to the shared transfer function.
struct LlmShape {
    /// Logical prompts issued (usually the input cardinality).
    items: Interval,
    /// Prompt tokens of the rendered task with an empty context — the
    /// guaranteed minimum per singleton call.
    envelope: f64,
    max_output: f64,
    /// Eligible for the PR 4 cross-document micro-batcher.
    batchable: bool,
    /// Walks a degradation ladder under a reliability policy
    /// (`generate_json_with_fallback` sites; plain `generate_json` sites
    /// only ever meter their primary tier).
    laddered: bool,
}

fn llm_node(
    node_id: usize,
    op_kind: &str,
    rows: Interval,
    shape: &LlmShape,
    primary: &'static ModelSpec,
    knobs: &CostKnobs,
) -> NodeCost {
    // The tiers this node's calls can reach: the catalogue ladder from the
    // primary down when it degrades, the primary alone otherwise.
    let facts = if shape.laddered && knobs.reliability.is_some() {
        let start = ALL_MODELS.iter().position(|s| s.name == primary.name).unwrap_or(0);
        TierFacts::of(&ALL_MODELS[start..])
    } else {
        TierFacts::of(&[primary])
    };
    let llm = llm_bounds(shape.items, shape.envelope, shape.max_output, shape.batchable, &facts, knobs);
    // Clean-run point estimates: one attempt per item at the upper
    // cardinality, typical context, typical completion.
    let (expected_calls, expected_tokens, expected_cost_usd, expected_latency_ms) =
        if shape.items.hi.is_finite() {
            let items = shape.items.hi;
            let calls_e = (items / knobs.pack(shape.batchable)).ceil();
            let in_e = items * (TYP_CTX_TOKENS + 4.0) + calls_e * shape.envelope;
            let out_e = items * TYP_OUT_TOKENS.min(shape.max_output);
            let cost_e = in_e / 1000.0 * primary.usd_per_1k_input
                + out_e / 1000.0 * primary.usd_per_1k_output;
            let lat_e = calls_e * primary.base_latency_ms
                + (in_e * 0.2 + out_e) / primary.tokens_per_sec * 1000.0;
            (calls_e, in_e + out_e, cost_e, lat_e)
        } else {
            (f64::INFINITY, f64::INFINITY, f64::INFINITY, f64::INFINITY)
        };
    NodeCost {
        node_id,
        op_kind: op_kind.to_string(),
        rows,
        llm,
        expected_calls,
        expected_tokens,
        expected_cost_usd,
        expected_latency_ms,
    }
}

fn model_of(name: &str, knobs: &CostKnobs) -> &'static ModelSpec {
    if name.is_empty() {
        knobs.default_model
    } else {
        spec_by_name(name).unwrap_or(knobs.default_model)
    }
}

/// Abstractly interprets a plan. Structurally broken plans (no topological
/// order) get an empty report — the structural lints own that failure mode.
pub fn estimate(plan: &Plan, schemas: &[IndexSchema], knobs: &CostKnobs) -> CostReport {
    let Ok(order) = plan.topo_order() else {
        return CostReport::default();
    };
    let mut rows_of: BTreeMap<usize, Interval> = BTreeMap::new();
    let mut nodes: Vec<NodeCost> = Vec::with_capacity(order.len());
    for id in order {
        let Some(node) = plan.node(id) else { continue };
        let input = |i: usize| -> Interval {
            node.inputs
                .get(i)
                .and_then(|x| rows_of.get(x))
                .copied()
                .unwrap_or(Interval::ZERO)
        };
        let in0 = input(0);
        let nc = match &node.op {
            PlanOp::QueryDatabase { index, prefilter } => {
                let rows = match schemas.iter().find(|s| s.index == *index) {
                    Some(s) if prefilter.is_empty() => Interval::exact(s.doc_count as f64),
                    Some(s) => Interval::new(0.0, s.doc_count as f64),
                    // Unknown index: cardinality is statically unbounded.
                    None => Interval::at_least(0.0),
                };
                NodeCost::pure(id, node.op.kind(), rows)
            }
            PlanOp::BasicFilter { .. } | PlanOp::RangeFilter { .. } => {
                NodeCost::pure(id, node.op.kind(), Interval::new(0.0, in0.hi))
            }
            PlanOp::LlmFilter { predicate, model } => llm_node(
                id,
                node.op.kind(),
                Interval::new(0.0, in0.hi),
                &LlmShape {
                    items: in0,
                    envelope: count_tokens(&tasks::filter(predicate, "")) as f64,
                    max_output: 64.0,
                    batchable: true,
                    laddered: true,
                },
                model_of(model, knobs),
                knobs,
            ),
            PlanOp::LlmExtract { field, ftype, model } => {
                let schema = aryn_core::obj! { field.as_str() => ftype.as_str() };
                llm_node(
                    id,
                    node.op.kind(),
                    in0,
                    &LlmShape {
                        items: in0,
                        envelope: count_tokens(&tasks::extract(&schema, "")) as f64,
                        max_output: 512.0,
                        batchable: true,
                        laddered: true,
                    },
                    model_of(model, knobs),
                    knobs,
                )
            }
            PlanOp::Count | PlanOp::Math { .. } => {
                NodeCost::pure(id, node.op.kind(), Interval::exact(1.0))
            }
            PlanOp::Aggregate { key, .. } => {
                let rows = if key.is_empty() {
                    Interval::exact(1.0)
                } else {
                    Interval::new(if in0.lo > 0.0 { 1.0 } else { 0.0 }, in0.hi)
                };
                NodeCost::pure(id, node.op.kind(), rows)
            }
            PlanOp::Sort { .. } | PlanOp::GraphExpand { .. } => {
                NodeCost::pure(id, node.op.kind(), in0)
            }
            PlanOp::TopK { k, .. } => NodeCost::pure(id, node.op.kind(), in0.cap(*k as f64)),
            PlanOp::Join { .. } => {
                NodeCost::pure(id, node.op.kind(), Interval::new(0.0, in0.hi * input(1).hi))
            }
            PlanOp::SummarizeData { instructions } => llm_node(
                id,
                node.op.kind(),
                Interval::exact(1.0),
                &LlmShape {
                    // Hierarchical reduce: ≤ 2n+1 calls for n rows.
                    items: Interval::new(
                        if in0.lo > 0.0 { 1.0 } else { 0.0 },
                        if in0.hi == 0.0 { 0.0 } else { 2.0 * in0.hi + 1.0 },
                    ),
                    envelope: count_tokens(&tasks::summarize(instructions, "")) as f64,
                    max_output: 256.0,
                    batchable: false,
                    laddered: false,
                },
                knobs.default_model,
                knobs,
            ),
            PlanOp::LlmGenerate { question } => llm_node(
                id,
                node.op.kind(),
                Interval::exact(1.0),
                &LlmShape {
                    items: Interval::new(if knobs.calls_guaranteed() { 1.0 } else { 0.0 }, 1.0),
                    envelope: count_tokens(&tasks::answer(question, "")) as f64,
                    max_output: 512.0,
                    batchable: false,
                    laddered: false,
                },
                knobs.default_model,
                knobs,
            ),
        };
        rows_of.insert(id, nc.rows);
        nodes.push(nc);
    }
    let llm = nodes.iter().fold(LlmBounds::default(), |a, n| a + n.llm);
    CostReport {
        rows_out: rows_of.get(&plan.result).copied().unwrap_or(Interval::ZERO),
        critical_path_ms: llm.critical_path_ms(knobs.workers),
        llm,
        expected_calls: nodes.iter().map(|n| n.expected_calls).sum(),
        expected_tokens: nodes.iter().map(|n| n.expected_tokens).sum(),
        expected_cost_usd: nodes.iter().map(|n| n.expected_cost_usd).sum(),
        expected_latency_ms: nodes.iter().map(|n| n.expected_latency_ms).sum(),
        nodes,
    }
}

// --- Field liveness ---------------------------------------------------------

/// Which property fields a node's *output* must carry for downstream
/// consumers (live-out). `All` means the rows are user-visible (the result
/// rendering, an LLM prompt serializing properties) so everything is live.
#[derive(Debug, Clone, PartialEq)]
pub enum Live {
    All,
    Fields(BTreeSet<String>),
}

impl Live {
    fn none() -> Live {
        Live::Fields(BTreeSet::new())
    }

    fn union_into(&mut self, other: Live) {
        match (self, other) {
            (l @ Live::Fields(_), Live::All) => *l = Live::All,
            (Live::Fields(a), Live::Fields(b)) => a.extend(b),
            (Live::All, _) => {}
        }
    }

    pub fn contains(&self, field: &str) -> bool {
        match self {
            Live::All => true,
            Live::Fields(s) => s.contains(field),
        }
    }
}

fn fields(names: &[&str]) -> Live {
    Live::Fields(names.iter().filter(|n| !n.is_empty()).map(|n| n.to_string()).collect())
}

/// The demand a consumer places on its `pos`-th input: the fields the
/// consumer reads, plus whatever of its own live-out passes through.
fn input_demand(op: &PlanOp, live_out: &Live, _pos: usize) -> Live {
    let mut d = match op {
        // Structured references.
        PlanOp::BasicFilter { path, .. } => fields(&[path]),
        PlanOp::RangeFilter { path, .. } => fields(&[path]),
        PlanOp::Sort { path, .. } => fields(&[path]),
        PlanOp::TopK { path, .. } => fields(&[path]),
        PlanOp::Aggregate { key, path, .. } => fields(&[key, path]),
        PlanOp::Join { on } => fields(&[on]),
        // graphExpand resolves rows to graph nodes via name-like props.
        PlanOp::GraphExpand { .. } => fields(&["company", "entity", "name"]),
        // These serialize the whole property bag (or the document text,
        // which extraction cannot change) into a prompt.
        PlanOp::LlmGenerate { .. } | PlanOp::SummarizeData { .. } => Live::All,
        // Text-only consumers: llmFilter/llmExtract prompts render the
        // document's element text, never its properties.
        PlanOp::LlmFilter { .. } | PlanOp::LlmExtract { .. } => Live::none(),
        PlanOp::Count | PlanOp::Math { .. } => Live::none(),
        PlanOp::QueryDatabase { .. } => Live::none(),
    };
    // Pass-through: operators whose output rows are their input rows keep
    // every downstream-live field alive upstream. Aggregates and scalar
    // producers mint fresh rows/values, so nothing passes through them.
    let passes_through = matches!(
        op,
        PlanOp::BasicFilter { .. }
            | PlanOp::RangeFilter { .. }
            | PlanOp::LlmFilter { .. }
            | PlanOp::LlmExtract { .. }
            | PlanOp::Sort { .. }
            | PlanOp::TopK { .. }
            | PlanOp::Join { .. }
            | PlanOp::GraphExpand { .. }
    );
    if passes_through {
        let mut through = live_out.clone();
        // Fields the operator itself writes are satisfied locally.
        if let (Live::Fields(s), PlanOp::LlmExtract { field, .. }) = (&mut through, op) {
            s.remove(field);
        }
        if let (Live::Fields(s), PlanOp::GraphExpand { output, .. }) = (&mut through, op) {
            s.remove(output);
        }
        d.union_into(through);
    }
    d
}

/// Backward field-liveness dataflow over the plan DAG: live-out per node.
/// One reverse-topological pass suffices (every consumer is processed before
/// its producers).
pub fn liveness(plan: &Plan) -> BTreeMap<usize, Live> {
    let mut live: BTreeMap<usize, Live> = plan.nodes.iter().map(|n| (n.id, Live::none())).collect();
    let Ok(order) = plan.topo_order() else {
        return live;
    };
    // The result node's rows are rendered verbatim into the answer.
    let result_is_rows = plan.node(plan.result).is_some_and(|n| {
        !matches!(
            n.op,
            PlanOp::Count
                | PlanOp::Math { .. }
                | PlanOp::SummarizeData { .. }
                | PlanOp::LlmGenerate { .. }
        ) && !matches!(&n.op, PlanOp::Aggregate { key, .. } if key.is_empty())
    });
    if result_is_rows {
        live.insert(plan.result, Live::All);
    }
    for &id in order.iter().rev() {
        let Some(node) = plan.node(id) else { continue };
        let out = live.get(&id).cloned().unwrap_or_else(Live::none);
        for (pos, input) in node.inputs.iter().enumerate() {
            let demand = input_demand(&node.op, &out, pos);
            if let Some(slot) = live.get_mut(input) {
                slot.union_into(demand);
            }
        }
    }
    live
}

/// `llmExtract` nodes whose extracted field is never read downstream,
/// in topological order.
pub fn dead_extracts(plan: &Plan) -> Vec<usize> {
    let live = liveness(plan);
    let Ok(order) = plan.topo_order() else { return Vec::new() };
    order
        .into_iter()
        .filter(|id| {
            plan.node(*id).is_some_and(|n| match &n.op {
                PlanOp::LlmExtract { field, .. } => {
                    !live.get(id).is_some_and(|l| l.contains(field))
                }
                _ => false,
            })
        })
        .collect()
}

// --- Budget-feasibility verification (L22–L27) ------------------------------

/// Verifies a cost report against the active policy/knobs, emitting the
/// `L22`–`L27` diagnostics. `enforce` promotes hard infeasibility to
/// Error severity (gating planning/execution); otherwise it stays advisory.
pub fn verify(
    plan: &Plan,
    report: &CostReport,
    knobs: &CostKnobs,
    enforce: bool,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let hard = |code, msg: String| {
        if enforce {
            Diagnostic::error(code, msg)
        } else {
            Diagnostic::warning(code, msg)
        }
    };
    // L22: the deadline budget cannot (or may not) cover the plan.
    if let Some(p) = knobs.reliability.filter(|p| p.deadline_ms > 0.0) {
        if report.llm.latency_ms.lo > p.deadline_ms {
            out.push(
                hard(
                    codes::INFEASIBLE_DEADLINE,
                    format!(
                        "plan cannot finish inside the {:.0} ms deadline: even the optimistic \
                         latency bound is {:.0} ms",
                        p.deadline_ms, report.llm.latency_ms.lo
                    ),
                )
                .at_node(plan.result)
                .with_suggestion("reduce cardinality (prefilter/topK) or raise the deadline"),
            );
        } else if report.expected_latency_ms > p.deadline_ms {
            out.push(
                Diagnostic::warning(
                    codes::INFEASIBLE_DEADLINE,
                    format!(
                        "expected clean-run latency {:.0} ms exceeds the {:.0} ms deadline; \
                         late calls will degrade or fail",
                        report.expected_latency_ms, p.deadline_ms
                    ),
                )
                .at_node(plan.result),
            );
        }
        // L25: a deadline below the proactive-degradation floor means every
        // guarded call skips straight to its terminal tier.
        if p.degrade_below_ms > 0.0 && p.deadline_ms <= p.degrade_below_ms {
            for n in &plan.nodes {
                let terminal = match &n.op {
                    PlanOp::LlmFilter { .. } => "string-match",
                    PlanOp::LlmExtract { .. } => "skip",
                    _ => continue,
                };
                out.push(
                    Diagnostic::warning(
                        codes::DEGRADED_TERMINAL_ONLY,
                        format!(
                            "deadline {:.0} ms never exceeds degrade_below {:.0} ms: every call \
                             proactively degrades to its {terminal} terminal",
                            p.deadline_ms, p.degrade_below_ms
                        ),
                    )
                    .at_node(n.id),
                );
            }
        }
    }
    for n in &plan.nodes {
        // L23: a guaranteed-minimum prompt that cannot fit the model window.
        let (envelope, max_output, model) = match &n.op {
            PlanOp::LlmFilter { predicate, model } => (
                count_tokens(&tasks::filter(predicate, "")) as f64,
                64.0,
                model_of(model, knobs),
            ),
            PlanOp::LlmExtract { field, ftype, model } => {
                let schema = aryn_core::obj! { field.as_str() => ftype.as_str() };
                (
                    count_tokens(&tasks::extract(&schema, "")) as f64,
                    512.0,
                    model_of(model, knobs),
                )
            }
            PlanOp::SummarizeData { instructions } => (
                count_tokens(&tasks::summarize(instructions, "")) as f64,
                256.0,
                knobs.default_model,
            ),
            PlanOp::LlmGenerate { question } => (
                count_tokens(&tasks::answer(question, "")) as f64,
                512.0,
                knobs.default_model,
            ),
            _ => continue,
        };
        if envelope + max_output + 16.0 > model.context_window as f64 {
            out.push(
                Diagnostic::error(
                    codes::TOKEN_BUDGET_OVERFLOW,
                    format!(
                        "prompt envelope ({:.0} tokens) plus completion cap ({:.0}) can never \
                         fit {}'s {}-token window",
                        envelope, max_output, model.name, model.context_window
                    ),
                )
                .at_node(n.id)
                .with_suggestion("shorten the predicate/instructions or pin a larger-window model"),
            );
        } else if knobs.batch_max_items > 1
            && matches!(n.op, PlanOp::LlmFilter { .. } | PlanOp::LlmExtract { .. })
            && envelope + knobs.batch_token_budget as f64 + max_output + 24.0
                > model.context_window as f64
        {
            out.push(
                Diagnostic::warning(
                    codes::TOKEN_BUDGET_OVERFLOW,
                    format!(
                        "micro-batch token budget {} cannot fit {}'s {}-token window alongside \
                         the envelope; packs will shrink toward singletons",
                        knobs.batch_token_budget, model.name, model.context_window
                    ),
                )
                .at_node(n.id),
            );
        }
    }
    // L24: unbounded cardinality feeding a reducer or per-row LLM operator.
    for n in &plan.nodes {
        let consumes_rows = matches!(
            n.op,
            PlanOp::LlmFilter { .. }
                | PlanOp::LlmExtract { .. }
                | PlanOp::Aggregate { .. }
                | PlanOp::Count
                | PlanOp::Sort { .. }
                | PlanOp::SummarizeData { .. }
        );
        if !consumes_rows {
            continue;
        }
        let unbounded_input = n.inputs.iter().any(|i| {
            report.node(*i).is_some_and(|c| c.rows.is_unbounded())
        });
        if unbounded_input {
            out.push(
                Diagnostic::warning(
                    codes::UNBOUNDED_CARDINALITY,
                    format!(
                        "statically unbounded cardinality flows into {} — the cost envelope \
                         is open above",
                        n.op.kind()
                    ),
                )
                .at_node(n.id)
                .with_suggestion("scan a known index or cap the set with topK/prefilters"),
            );
        }
    }
    // L26: identical semantic subtrees re-executed without a call cache.
    if !knobs.call_cache {
        let mut sigs: BTreeMap<String, usize> = BTreeMap::new();
        if let Ok(order) = plan.topo_order() {
            let mut sig_of: BTreeMap<usize, String> = BTreeMap::new();
            for id in order {
                let Some(n) = plan.node(id) else { continue };
                let ins: Vec<&str> = n
                    .inputs
                    .iter()
                    .map(|i| sig_of.get(i).map(String::as_str).unwrap_or("?"))
                    .collect();
                let sig = format!("{:?}<-({})", n.op, ins.join(","));
                if n.op.is_semantic() {
                    if let Some(first) = sigs.get(&sig) {
                        out.push(
                            Diagnostic::warning(
                                codes::CACHE_BLIND_REEXEC,
                                format!(
                                    "identical semantic subtree already computed at out_{first}; \
                                     without the call cache its LLM calls are paid twice"
                                ),
                            )
                            .at_node(id)
                            .with_suggestion("enable call_cache or deduplicate the subtree"),
                        );
                    } else {
                        sigs.insert(sig.clone(), id);
                    }
                }
                sig_of.insert(id, sig);
            }
        }
    }
    // L27: extracted fields nobody reads.
    for id in dead_extracts(plan) {
        if let Some(PlanOp::LlmExtract { field, .. }) = plan.node(id).map(|n| &n.op) {
            out.push(
                Diagnostic::warning(
                    codes::DEAD_FIELD,
                    format!("extracted field {field:?} is never read downstream"),
                )
                .at_node(id)
                .with_suggestion("enable prune_dead_fields or drop the llmExtract node"),
            );
        }
    }
    out
}

/// The cost/liveness verifier packaged as a PR 2 lint rule, so cost
/// diagnostics flow through the same repair loop, optimizer gate, and
/// telemetry counters as the semantic lints.
pub struct CostRules {
    pub knobs: CostKnobs,
    /// Promote hard infeasibility to Error severity (the
    /// `enforce_budget` knob).
    pub enforce: bool,
}

impl LintRule for CostRules {
    fn code(&self) -> &'static str {
        codes::INFEASIBLE_DEADLINE
    }

    fn check(&self, cx: &PlanCtx<'_>, out: &mut Vec<Diagnostic>) {
        let report = estimate(cx.plan, cx.schemas, &self.knobs);
        out.extend(verify(cx.plan, &report, &self.knobs, self.enforce));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::PlanNode;
    use crate::schema::Field;
    use aryn_core::Severity;
    use aryn_llm::ReliabilityPolicy;

    fn schema(docs: usize) -> IndexSchema {
        IndexSchema {
            index: "ntsb".into(),
            doc_count: docs,
            fields: vec![
                Field { path: "fatal".into(), ftype: "int".into(), count: docs },
                Field { path: "year".into(), ftype: "int".into(), count: docs },
            ],
        }
    }

    fn node(id: usize, op: PlanOp, inputs: Vec<usize>) -> PlanNode {
        PlanNode { id, op, inputs, description: String::new() }
    }

    fn scan(id: usize) -> PlanNode {
        node(
            id,
            PlanOp::QueryDatabase { index: "ntsb".into(), prefilter: vec![] },
            vec![],
        )
    }

    fn plan(nodes: Vec<PlanNode>, result: usize) -> Plan {
        Plan { nodes, result }
    }

    #[test]
    fn scan_filter_count_cardinality() {
        let p = plan(
            vec![
                scan(0),
                node(1, PlanOp::BasicFilter { path: "fatal".into(), value: 1.into() }, vec![0]),
                node(2, PlanOp::Count, vec![1]),
            ],
            2,
        );
        let r = estimate(&p, &[schema(60)], &CostKnobs::default());
        assert_eq!(r.node(0).map(|n| n.rows), Some(Interval::exact(60.0)));
        assert_eq!(r.node(1).map(|n| n.rows), Some(Interval::new(0.0, 60.0)));
        assert_eq!(r.rows_out, Interval::exact(1.0));
        assert_eq!(r.llm.calls, Interval::ZERO);
    }

    #[test]
    fn llm_filter_call_bounds_track_knobs() {
        let p = plan(
            vec![
                scan(0),
                node(
                    1,
                    PlanOp::LlmFilter { predicate: "was it fatal".into(), model: String::new() },
                    vec![0],
                ),
            ],
            1,
        );
        let exact = estimate(&p, &[schema(10)], &CostKnobs::default());
        let calls = exact.node(1).map(|n| n.llm.calls).unwrap_or(Interval::ZERO);
        assert_eq!(calls.lo, 10.0);
        assert!(calls.contains(10.0));
        // Batching drops the floor to the pack count.
        let batched = estimate(
            &p,
            &[schema(10)],
            &CostKnobs { batch_max_items: 4, ..CostKnobs::default() },
        );
        assert_eq!(batched.node(1).map(|n| n.llm.calls.lo), Some(3.0));
        // A cache (or reliability, or chaos) legalizes zero calls.
        let cached = estimate(
            &p,
            &[schema(10)],
            &CostKnobs { call_cache: true, ..CostKnobs::default() },
        );
        assert_eq!(cached.node(1).map(|n| n.llm.calls.lo), Some(0.0));
        // A reliability ladder multiplies the ceiling.
        let laddered = estimate(
            &p,
            &[schema(10)],
            &CostKnobs {
                reliability: Some(ReliabilityPolicy::standard()),
                ..CostKnobs::default()
            },
        );
        assert!(
            laddered.node(1).map(|n| n.llm.calls.hi) > exact.node(1).map(|n| n.llm.calls.hi)
        );
    }

    #[test]
    fn unknown_index_is_unbounded_and_l24_fires() {
        let p = plan(
            vec![
                node(
                    0,
                    PlanOp::QueryDatabase { index: "nowhere".into(), prefilter: vec![] },
                    vec![],
                ),
                node(1, PlanOp::Count, vec![0]),
            ],
            1,
        );
        let knobs = CostKnobs::default();
        let r = estimate(&p, &[schema(60)], &knobs);
        assert!(r.node(0).is_some_and(|n| n.rows.is_unbounded()));
        let diags = verify(&p, &r, &knobs, false);
        assert!(diags.iter().any(|d| d.code == codes::UNBOUNDED_CARDINALITY));
    }

    #[test]
    fn infeasible_deadline_is_hard_under_enforce() {
        let p = plan(
            vec![
                scan(0),
                node(
                    1,
                    PlanOp::LlmFilter { predicate: "p".into(), model: String::new() },
                    vec![0],
                ),
            ],
            1,
        );
        // 60 docs × ≥450 ms base latency can never fit a 1 s deadline —
        // except that under reliability calls can degrade to terminals, so
        // the sound lower bound is 0 and only the *expected* check fires.
        let knobs = CostKnobs {
            reliability: Some(ReliabilityPolicy {
                deadline_ms: 1_000.0,
                ..ReliabilityPolicy::standard()
            }),
            ..CostKnobs::default()
        };
        let r = estimate(&p, &[schema(60)], &knobs);
        assert_eq!(r.llm.latency_ms.lo, 0.0);
        let diags = verify(&p, &r, &knobs, true);
        let l22: Vec<_> =
            diags.iter().filter(|d| d.code == codes::INFEASIBLE_DEADLINE).collect();
        assert!(!l22.is_empty());
        assert!(l22.iter().all(|d| d.severity == Severity::Warning));
        assert!(r.expected_latency_ms > 1_000.0);
    }

    #[test]
    fn terminal_only_deadline_warns_l25() {
        let knobs = CostKnobs {
            reliability: Some(ReliabilityPolicy {
                deadline_ms: 1_000.0,
                degrade_below_ms: 2_000.0,
                ..ReliabilityPolicy::standard()
            }),
            ..CostKnobs::default()
        };
        let p = plan(
            vec![
                scan(0),
                node(
                    1,
                    PlanOp::LlmExtract {
                        field: "cause".into(),
                        ftype: "string".into(),
                        model: String::new(),
                    },
                    vec![0],
                ),
            ],
            1,
        );
        let r = estimate(&p, &[schema(10)], &knobs);
        let diags = verify(&p, &r, &knobs, false);
        assert!(diags.iter().any(|d| d.code == codes::DEGRADED_TERMINAL_ONLY));
    }

    #[test]
    fn duplicate_semantic_subtree_warns_l26_unless_cached() {
        let dup = |id| {
            node(
                id,
                PlanOp::LlmFilter { predicate: "same predicate".into(), model: String::new() },
                vec![0],
            )
        };
        let p = plan(vec![scan(0), dup(1), dup(2), node(3, PlanOp::Join { on: "year".into() }, vec![1, 2])], 3);
        let knobs = CostKnobs::default();
        let r = estimate(&p, &[schema(10)], &knobs);
        let diags = verify(&p, &r, &knobs, false);
        assert!(diags.iter().any(|d| d.code == codes::CACHE_BLIND_REEXEC));
        let cached = CostKnobs { call_cache: true, ..CostKnobs::default() };
        let diags = verify(&p, &r, &cached, false);
        assert!(diags.iter().all(|d| d.code != codes::CACHE_BLIND_REEXEC));
    }

    #[test]
    fn liveness_finds_dead_extract_but_spares_consumed_and_result_fields() {
        // scan → extract(cause) → extract(unused) → filter(cause) → count
        let p = plan(
            vec![
                scan(0),
                node(
                    1,
                    PlanOp::LlmExtract {
                        field: "cause".into(),
                        ftype: "string".into(),
                        model: String::new(),
                    },
                    vec![0],
                ),
                node(
                    2,
                    PlanOp::LlmExtract {
                        field: "unused".into(),
                        ftype: "string".into(),
                        model: String::new(),
                    },
                    vec![1],
                ),
                node(
                    3,
                    PlanOp::BasicFilter { path: "cause".into(), value: "bird strike".into() },
                    vec![2],
                ),
                node(4, PlanOp::Count, vec![3]),
            ],
            4,
        );
        assert_eq!(dead_extracts(&p), vec![2]);
        // If the rows themselves are the result, everything is live.
        let p_rows = plan(p.nodes[..4].to_vec(), 3);
        assert!(dead_extracts(&p_rows).is_empty());
    }

    #[test]
    fn envelope_overflow_is_a_hard_error_l23() {
        let huge = "fatal ".repeat(3000);
        let p = plan(
            vec![
                scan(0),
                node(1, PlanOp::LlmFilter { predicate: huge, model: "llama-7b-sim".into() }, vec![0]),
            ],
            1,
        );
        let knobs = CostKnobs::default();
        let r = estimate(&p, &[schema(5)], &knobs);
        let diags = verify(&p, &r, &knobs, false);
        assert!(diags
            .iter()
            .any(|d| d.code == codes::TOKEN_BUDGET_OVERFLOW && d.severity == Severity::Error));
    }

    #[test]
    fn cost_rules_flow_through_the_analyzer() {
        let p = plan(
            vec![
                scan(0),
                node(
                    1,
                    PlanOp::LlmExtract {
                        field: "unused".into(),
                        ftype: "string".into(),
                        model: String::new(),
                    },
                    vec![0],
                ),
                node(2, PlanOp::Count, vec![1]),
            ],
            2,
        );
        let analysis = crate::analyze::Analyzer::new()
            .with_rule(Box::new(CostRules { knobs: CostKnobs::default(), enforce: false }))
            .analyze(&p, &[schema(10)]);
        assert!(analysis.diagnostics.iter().any(|d| d.code == codes::DEAD_FIELD));
    }
}
