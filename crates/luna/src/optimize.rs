//! The plan optimizer (§6.1): "The plan optimizer makes trade-offs based on
//! cost vs efficiency ... It is able to combine and batch operations when
//! possible, and make decisions about what technique (string matching vs
//! semantic matching), and tool (e.g., GPT-4 versus Llama 7B) to use."
//!
//! Three passes, each recorded as a human-readable rewrite note:
//!
//! 1. **Structured pushdown** — an `llmFilter` whose predicate maps onto a
//!    discovered schema field ("occurred in Alaska (AK)" → `us_state_abbrev
//!    = "AK"`; "in the AI sector" → `sector = "AI"`) becomes a free
//!    `basicFilter` (string matching instead of semantic matching).
//! 2. **Filter ordering** — structured filters run before semantic ones, so
//!    the LLM sees fewer rows.
//! 3. **Model selection** — remaining semantic operators are costed against
//!    the model catalogue: lexically easy predicates route to the cheap
//!    model, hard ones (sentiment, vague phrasing) to the strong one.
//!
//! Passes 1 and 2 rewrite the sites [`pushdown_sites`] and [`reorder_sites`]
//! find, and the analyzer's `semantic-pushdown` and `filter-reorder` hints
//! report those same sites: each rewrite is detected in one place.

use crate::analyze::{Analyzer, CheckedPlan, FieldType, Resolution, Shape};
use crate::costmodel::CostKnobs;
use crate::ops::{MathExpr, Plan, PlanOp};
use crate::schema::IndexSchema;
use aryn_core::text::has_negation_cue;
use aryn_core::{lexicon, Result, Value};
use aryn_llm::registry::{ladder, ModelSpec, GPT4_SIM, LLAMA7B_SIM};
use std::collections::{BTreeMap, BTreeSet};

/// Optimizer configuration.
#[derive(Debug, Clone)]
pub struct OptimizerCfg {
    pub pushdown: bool,
    pub reorder: bool,
    /// Fuse consecutive semantic filters into one batched LLM call per row
    /// (§6.1: "combine and batch operations when possible").
    pub batch_filters: bool,
    pub model_selection: bool,
    /// Minimum acceptable per-call accuracy when picking a model.
    pub min_accuracy: f64,
    /// Remove `llmExtract` nodes whose field the [`crate::costmodel`]
    /// liveness pass proves is never read downstream (the `L27 dead-field`
    /// lint made actionable), recording before/after cost-model deltas.
    pub prune_dead_fields: bool,
}

impl Default for OptimizerCfg {
    fn default() -> Self {
        OptimizerCfg {
            pushdown: true,
            reorder: true,
            batch_filters: true,
            model_selection: true,
            min_accuracy: 0.85,
            prune_dead_fields: false,
        }
    }
}

/// The result of optimization: the rewritten plan plus rewrite notes.
#[derive(Debug, Clone)]
pub struct Optimized {
    pub plan: Plan,
    pub notes: Vec<String>,
}

/// [`rewrite`] of a plan the analyzer has not checked yet: its check is the
/// gate of an "input" pass.
pub fn optimize(
    plan: &Plan,
    schemas: &[IndexSchema],
    cfg: &OptimizerCfg,
    knobs: &CostKnobs,
) -> Result<Optimized> {
    let analyzer = Analyzer::new();
    let checked = analyzer.check_for(&refusal("input"), plan, schemas.into())?;
    let (checked, notes) = rewrite(checked, &analyzer, cfg, knobs)?;
    Ok(Optimized { plan: checked.into_plan(), notes })
}

/// Runs all enabled passes over a checked plan, returning the checked
/// rewrite and the rewrite notes. `knobs` are the settings the plan will
/// run under: its batch width and reliability policy only add notes
/// (packing and degradation happen at execution time, and
/// `explain_analyze` shows both decisions before they happen), and
/// `prune_dead_fields` prices its rewrite with them.
///
/// Every pass that rewrites the plan is checked again by `analyzer` against
/// the plan's schemas, in all build profiles: a rewrite that hallucinates a
/// field, breaks the DAG, or changes an operator's input shape is an
/// `InvalidPlan` error naming the offending pass, never a silently wrong
/// answer at runtime.
pub fn rewrite(
    mut plan: CheckedPlan,
    analyzer: &Analyzer,
    cfg: &OptimizerCfg,
    knobs: &CostKnobs,
) -> Result<(CheckedPlan, Vec<String>)> {
    let mut notes = Vec::new();
    if cfg.pushdown {
        let sites = pushdown_sites(plan.plan(), &plan.analysis().shapes);
        plan = run_pass("pushdown", plan, analyzer, |p, _| pushdown(p, sites, &mut notes))?;
    }
    if cfg.reorder {
        plan = run_pass("reorder", plan, analyzer, |p, _| reorder_filters(p, &mut notes))?;
    }
    if cfg.batch_filters {
        plan = run_pass("batch", plan, analyzer, |p, _| batch_filters(p, &mut notes))?;
    }
    if cfg.model_selection {
        plan = run_pass("model-selection", plan, analyzer, |p, _| select_models(p, cfg, &mut notes))?;
    }
    if cfg.prune_dead_fields {
        plan = run_pass("prune-dead-fields", plan, analyzer, |p, schemas| prune_dead(p, schemas, knobs, &mut notes))?;
    }
    if knobs.batch_max_items > 1 {
        note_batching(plan.plan(), plan.schemas(), knobs.batch_max_items, &mut notes);
    }
    if knobs.reliability.is_some() {
        note_degradation(plan.plan(), knobs.default_model, &mut notes);
    }
    Ok((plan, notes))
}

/// Cost-model pass for cross-document micro-batching: estimates the call
/// reduction each surviving semantic operator gets from packing up to
/// `k` documents per call. Row counts are upper-bounded by the document
/// count of the index the operator reads (filters only shrink the set), so
/// the estimate is a ceiling on calls and a floor on savings.
fn note_batching(plan: &Plan, schemas: &[IndexSchema], k: usize, notes: &mut Vec<String>) {
    for n in &plan.nodes {
        if !n.op.llm_call().is_some_and(|call| call.batchable) {
            continue;
        }
        let kind = n.op.kind();
        match scanned_docs(plan, schemas, n.id) {
            Some(rows) if rows > 0 => {
                let calls = rows.div_ceil(k);
                notes.push(format!(
                    "out_{}: {kind} micro-batches up to {k} docs/call (≤{rows} rows → ≤{calls} calls, saving ≥{})",
                    n.id,
                    rows - calls
                ));
            }
            _ => notes.push(format!(
                "out_{}: {kind} micro-batches up to {k} docs/call",
                n.id
            )),
        }
    }
}

/// The document count of the index node `id` reads through one-input
/// operators; none behind a join or for an index without a schema.
fn scanned_docs(plan: &Plan, schemas: &[IndexSchema], mut id: usize) -> Option<usize> {
    loop {
        let n = plan.node(id)?;
        match (&n.op, &n.inputs[..]) {
            (PlanOp::QueryDatabase { index, .. }, _) => {
                return schemas.iter().find(|s| s.index == *index).map(|s| s.doc_count)
            }
            (_, [input]) => id = *input,
            _ => return None,
        }
    }
}

/// Cost-model note for degradation ladders: records each semantic
/// operator's fallback route under the reliability policy — the cheaper
/// catalogue tiers its breaker/deadline failures would walk from its pinned
/// model (`default_model` when none is pinned), ending at its terminal.
fn note_degradation(plan: &Plan, default_model: &ModelSpec, notes: &mut Vec<String>) {
    for n in &plan.nodes {
        let Some(call) = n.op.llm_call() else { continue };
        let Some(terminal) = call.terminal else { continue };
        let primary = if call.model.is_empty() { default_model.name } else { call.model };
        let mut tiers: Vec<&str> = ladder(primary).iter().map(|s| s.name).collect();
        tiers.push(terminal);
        notes.push(format!(
            "out_{}: {} degradation ladder {} (breaker/deadline failures fall through)",
            n.id,
            n.op.kind(),
            tiers.join(" -> ")
        ));
    }
}

/// Pass 5 (opt-in): splice out `llmExtract` nodes whose extracted field the
/// backward liveness analysis ([`crate::costmodel::liveness`]) proves is
/// never read downstream. Extraction is 1:1 on rows, so consumers are
/// rewired to the extract's input (and `math` `{out_N}` references renamed)
/// without changing any answer; iterates to a fixed point because removing
/// one extract can orphan another's field. The note records the cost-model
/// delta so `explain_analyze` shows what the rewrite bought.
fn prune_dead(plan: &mut Plan, schemas: &[IndexSchema], knobs: &CostKnobs, notes: &mut Vec<String>) {
    let before = crate::costmodel::estimate(plan, schemas, knobs);
    let mut pruned: Vec<(usize, String)> = Vec::new();
    loop {
        let dead = crate::costmodel::dead_extracts(plan);
        let Some(&id) = dead.first() else { break };
        let Some(node) = plan.node(id) else { break };
        let Some(&input) = node.inputs.first() else { break };
        let field = match &node.op {
            PlanOp::LlmExtract { field, .. } => field.clone(),
            _ => break,
        };
        for n in &mut plan.nodes {
            for i in &mut n.inputs {
                if *i == id {
                    *i = input;
                }
            }
            if let PlanOp::Math { expr } = &mut n.op {
                if let Some(parsed) = MathExpr::parse(expr).ok().filter(|e| e.refs().any(|r| r == id)) {
                    *expr = parsed.renamed(id, input).to_string();
                }
            }
        }
        if plan.result == id {
            plan.result = input;
        }
        plan.nodes.retain(|n| n.id != id);
        pruned.push((id, field));
    }
    if pruned.is_empty() {
        return;
    }
    for (id, field) in &pruned {
        notes.push(format!(
            "out_{id}: pruned dead llmExtract field {field:?} (liveness: never read downstream)"
        ));
    }
    let after = crate::costmodel::estimate(plan, schemas, knobs);
    notes.push(format!(
        "prune-dead-fields: predicted calls {} -> {}, tokens {} -> {}, cost {} -> {}",
        before.llm.calls.render(),
        after.llm.calls.render(),
        before.llm.total_tokens().render(),
        after.llm.total_tokens().render(),
        before.llm.cost_usd.render(),
        after.llm.cost_usd.render(),
    ));
}

/// Runs one pass over the plan and its schemas; when it rewrote the plan,
/// the rewrite is checked again.
fn run_pass(
    name: &str,
    checked: CheckedPlan,
    analyzer: &Analyzer,
    pass: impl FnOnce(&mut Plan, &[IndexSchema]),
) -> Result<CheckedPlan> {
    let mut plan = checked.plan().clone();
    pass(&mut plan, checked.schemas());
    if plan == *checked.plan() {
        return Ok(checked);
    }
    checked.recheck(analyzer, &refusal(name), plan)
}

/// How the analyzer gate behind a pass refuses the pass's output.
fn refusal(pass: &str) -> String {
    format!("optimizer pass {pass:?} produced an invalid plan")
}

/// The `llmFilter` nodes string matching can answer, each with the
/// structured filter that replaces it: the paper's "string matching vs
/// semantic matching" decision (§6.1). The analyzer's `semantic-pushdown`
/// hint reports exactly these sites and the pushdown pass rewrites them.
///
/// A site's field resolves as `Known`, with a type its literal compares to,
/// in the filter's own input shape (the shape the gate's field checks read,
/// so no rewrite fails the gate), and no `llmExtract` upstream writes it: a
/// query-time extraction and the filter read the text differently. A filter
/// keeps its input's shape, so the sites of a plan are still sites once
/// the others are rewritten.
pub(crate) fn pushdown_sites(plan: &Plan, shapes: &BTreeMap<usize, Shape>) -> Vec<(usize, PlanOp)> {
    plan.nodes
        .iter()
        .filter_map(|n| {
            let PlanOp::LlmFilter { predicate, .. } = &n.op else { return None };
            let shape = shapes.get(n.inputs.first()?)?;
            let extracted = extracted_upstream(plan, n.id);
            let usable = |field: &str, literal: FieldType| {
                matches!(shape.resolve(field), Resolution::Known(t) if t.compatible(literal))
                    && !extracted.contains(field)
            };
            structured_equivalent(predicate, usable).map(|op| (n.id, op))
        })
        .collect()
}

/// The fields semantic operators upstream of node `id` write.
fn extracted_upstream(plan: &Plan, id: usize) -> BTreeSet<&str> {
    let mut fields = BTreeSet::new();
    let mut seen = BTreeSet::new();
    let mut stack: Vec<usize> = plan.node(id).map(|n| n.inputs.clone()).unwrap_or_default();
    while let Some(id) = stack.pop() {
        let Some(n) = plan.node(id).filter(|_| seen.insert(id)) else { continue };
        if let Some((field, _)) = n.op.writes().filter(|_| n.op.is_semantic()) {
            fields.insert(field);
        }
        stack.extend(&n.inputs);
    }
    fields
}

/// Pass 1: every pushdown site rewritten at once.
fn pushdown(plan: &mut Plan, sites: Vec<(usize, PlanOp)>, notes: &mut Vec<String>) {
    for (id, op) in sites {
        let Some(n) = plan.nodes.iter_mut().find(|n| n.id == id) else { continue };
        let PlanOp::LlmFilter { predicate, .. } = &n.op else { continue };
        notes.push(format!(
            "out_{id}: pushed down llmFilter {predicate:?} to structured filter {}",
            condition(&op)
        ));
        n.op = op;
    }
}

/// The test a pushed-down filter applies: `path = value` or `path >= lo`.
pub(crate) fn condition(op: &PlanOp) -> String {
    match op {
        PlanOp::BasicFilter { path, value } => format!("{path} = {value}"),
        PlanOp::RangeFilter { path, lo: Some(lo), hi: None } => format!("{path} >= {lo}"),
        other => other.kind().to_string(),
    }
}

/// The structured filter equivalent to a semantic predicate, when the
/// predicate names a categorical value or a fatality and `usable(field,
/// literal type)` allows comparing that field. A predicate with a negation
/// cue has none: "involved no fatalities" is not `fatal >= 1`.
fn structured_equivalent(predicate: &str, usable: impl Fn(&str, FieldType) -> bool) -> Option<PlanOp> {
    let p = predicate.to_lowercase();
    if has_negation_cue(&p) {
        return None;
    }
    let eq = |path: &str, value: Value| Some(PlanOp::BasicFilter { path: path.into(), value });
    // State mentions: "occurred in Alaska (AK)" — the planner annotates the
    // abbreviation; bare full names also resolve via the lexicon.
    if usable("us_state_abbrev", FieldType::Str) {
        for (abbrev, full) in lexicon::US_STATES {
            if p.contains(&format!("({})", abbrev.to_lowercase())) || p.contains(&full.to_lowercase()) {
                return eq("us_state_abbrev", Value::from(*abbrev));
            }
        }
    }
    // Cause predicates: ETL already extracted cause_detail/cause_category,
    // so "caused by wind" is a string match on the extracted field — the
    // optimizer's "string matching vs semantic matching" decision (§6.1).
    if usable("cause_category", FieldType::Str) {
        for (cat, _) in lexicon::CAUSES {
            if p.contains(cat) {
                return eq("cause_category", Value::from(*cat));
            }
        }
    }
    if usable("cause_detail", FieldType::Str) && (p.contains("caused by") || p.contains("due to")) {
        for (_, details) in lexicon::CAUSES {
            for d in *details {
                if p.contains(d) {
                    return eq("cause_detail", Value::from(*d));
                }
            }
        }
    }
    // Sector mentions: any lexicon sector named with the word "sector".
    if usable("sector", FieldType::Str) {
        for name in lexicon::SECTORS {
            if p.contains(&format!("{} sector", name.to_lowercase())) {
                return eq("sector", Value::from(*name));
            }
        }
    }
    // Guidance: "the company lowered its guidance".
    if usable("guidance", FieldType::Str) {
        for g in ["lowered", "raised", "maintained"] {
            if p.contains(&format!("{g} its guidance")) || p.contains(&format!("{g} guidance")) {
                return eq("guidance", Value::from(g));
            }
        }
    }
    // CEO change.
    if usable("ceo_changed", FieldType::Bool) && p.contains("ceo") && p.contains("chang") {
        return eq("ceo_changed", Value::Bool(true));
    }
    // Weather flag: "caused by environmental factors" — equivalent to the
    // extracted weather_related property when ETL extracted it.
    if usable("weather_related", FieldType::Bool)
        && (p.contains("environmental factors") || p.contains("weather related"))
    {
        return eq("weather_related", Value::Bool(true));
    }
    // Sentiment.
    if usable("sentiment", FieldType::Str) {
        for s in ["positive", "negative", "neutral"] {
            if p.contains(&format!("{s} sentiment")) {
                return eq("sentiment", Value::from(s));
            }
        }
    }
    // Fatality predicates: a range over the extracted count.
    if usable("fatal", FieldType::Num) && p.contains("fatal") {
        return Some(PlanOp::RangeFilter { path: "fatal".into(), lo: Some(Value::Int(1)), hi: None });
    }
    None
}

/// Structured filters fed by an `llmFilter` that feeds nothing else, as
/// `(parent, child)`: running the structured filter first shrinks the rows
/// the LLM sees. The analyzer's `filter-reorder` hint reports exactly these
/// sites. No two share a node (a site's parent is semantic, its child
/// structured), so the reorder pass swaps them all at once.
pub(crate) fn reorder_sites(plan: &Plan) -> Vec<(usize, usize)> {
    plan.nodes
        .iter()
        .filter_map(|child| {
            if !matches!(child.op, PlanOp::BasicFilter { .. } | PlanOp::RangeFilter { .. }) {
                return None;
            }
            let [parent] = child.inputs[..] else { return None };
            let consumers = plan.nodes.iter().filter(|n| n.inputs.contains(&parent)).count();
            (matches!(plan.node(parent)?.op, PlanOp::LlmFilter { .. }) && consumers == 1)
                .then_some((parent, child.id))
        })
        .collect()
}

/// Pass 2: swap the ops of every reorder site (keeping the node wiring
/// keeps the DAG valid) until none is left.
fn reorder_filters(plan: &mut Plan, notes: &mut Vec<String>) {
    loop {
        let sites = reorder_sites(plan);
        if sites.is_empty() {
            return;
        }
        for (parent, child) in sites {
            let pos = |id: usize| plan.nodes.iter().position(|n| n.id == id);
            let (Some(p), Some(c)) = (pos(parent), pos(child)) else { continue };
            let (left, right) = plan.nodes.split_at_mut(p.max(c));
            std::mem::swap(&mut left[p.min(c)].op, &mut right[0].op);
            notes.push(format!(
                "out_{parent}/out_{child}: reordered structured filter before semantic filter"
            ));
        }
    }
}

/// Pass 3: fuse a linear chain `llmFilter(A) → llmFilter(B)` into a single
/// `llmFilter(A; and also B)` — half the per-row LLM calls.
fn batch_filters(plan: &mut Plan, notes: &mut Vec<String>) {
    // A child llmFilter whose sole input is an llmFilter consumed only by
    // this child.
    let fusable = |plan: &Plan| {
        plan.nodes.iter().enumerate().find_map(|(ci, child)| {
            let (PlanOp::LlmFilter { .. }, [parent]) = (&child.op, &child.inputs[..]) else { return None };
            let pi = plan.nodes.iter().position(|n| n.id == *parent)?;
            let sole = plan.nodes.iter().filter(|n| n.inputs.contains(parent)).count() == 1;
            (sole && matches!(plan.nodes[pi].op, PlanOp::LlmFilter { .. })).then_some((pi, ci))
        })
    };
    while let Some((pi, ci)) = fusable(plan) {
        let parent = plan.nodes.remove(pi);
        let child = &mut plan.nodes[if ci > pi { ci - 1 } else { ci }];
        if let (PlanOp::LlmFilter { predicate: first, model: first_model }, PlanOp::LlmFilter { predicate, model }) =
            (parent.op, &mut child.op)
        {
            *predicate = format!("{first}; and also {predicate}");
            if model.is_empty() {
                *model = first_model;
            }
        }
        child.inputs = parent.inputs;
        notes.push(format!("out_{}/out_{}: batched two semantic filters into one call", parent.id, child.id));
    }
}

/// Pass 4: pick a model per semantic operator, cheapest that clears the
/// accuracy bar for the predicate's difficulty.
fn select_models(plan: &mut Plan, cfg: &OptimizerCfg, notes: &mut Vec<String>) {
    for n in &mut plan.nodes {
        let (predicate, model_slot): (String, &mut String) = match &mut n.op {
            PlanOp::LlmFilter { predicate, model } => (predicate.clone(), model),
            PlanOp::LlmExtract { field, model, .. } => (field.clone(), model),
            _ => continue,
        };
        if !model_slot.is_empty() {
            continue; // human already pinned a model
        }
        let difficulty = predicate_difficulty(&predicate);
        let chosen = choose_model(difficulty, cfg.min_accuracy);
        *model_slot = chosen.name.to_string();
        notes.push(format!(
            "out_{}: routed {predicate:?} (difficulty {difficulty:.2}) to {}",
            n.id, chosen.name
        ));
    }
}

/// Heuristic difficulty in `[0,1]`: lexicon-anchored predicates are easy;
/// sentiment/comparison/vague phrasing is hard.
pub fn predicate_difficulty(predicate: &str) -> f64 {
    let p = predicate.to_lowercase();
    let mut d: f64 = 0.5;
    // Easy: a concrete cause/category/field term the cheap model's lexicon
    // pins down.
    let concrete = lexicon::CAUSES
        .iter()
        .flat_map(|(_, details)| details.iter())
        .any(|t| p.contains(t))
        || lexicon::CAUSES.iter().any(|(c, _)| p.contains(c))
        || p.contains("(")  // planner-annotated structured hint
        || p.contains("guidance");
    if concrete {
        d -= 0.3;
    }
    // Hard: judgment calls.
    for cue in ["sentiment", "outlook", "compare", "better", "worse", "recently", "tone"] {
        if p.contains(cue) {
            d += 0.25;
        }
    }
    if p.split_whitespace().count() > 8 {
        d += 0.1;
    }
    d.clamp(0.0, 1.0)
}

/// Expected accuracy of a model on a predicate of given difficulty.
pub fn expected_accuracy(spec: &ModelSpec, difficulty: f64) -> f64 {
    // Harder predicates erode accuracy, weaker models erode faster.
    let erosion = difficulty * (1.0 - spec.accuracy.filter) * 1.5;
    (spec.accuracy.filter - erosion).clamp(0.0, 1.0)
}

fn choose_model(difficulty: f64, min_accuracy: f64) -> &'static ModelSpec {
    // Candidates cheapest-first.
    for spec in [&LLAMA7B_SIM, &aryn_llm::GPT35_SIM, &GPT4_SIM] {
        if expected_accuracy(spec, difficulty) >= min_accuracy {
            return spec;
        }
    }
    &GPT4_SIM
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::PlanNode;
    use crate::planner::RulePlanner;
    use aryn_core::obj;
    use aryn_index::DocStore;

    fn schemas() -> Vec<IndexSchema> {
        let mut ntsb = DocStore::new();
        let mut d = aryn_core::Document::new("n1");
        d.properties = obj! {
            "us_state_abbrev" => "AK", "year" => 2019i64, "weather_related" => true,
            "cause_detail" => "wind",
        };
        ntsb.try_put(d).unwrap();
        let mut earn = DocStore::new();
        let mut d = aryn_core::Document::new("e1");
        d.properties = obj! {
            "company" => "Apex", "sector" => "AI", "guidance" => "lowered",
            "ceo_changed" => true, "sentiment" => "negative", "growth_pct" => 1.0,
        };
        earn.try_put(d).unwrap();
        vec![
            IndexSchema::discover("ntsb", ntsb.len(), ntsb.schema()),
            IndexSchema::discover("earnings", earn.len(), earn.schema()),
        ]
    }

    /// Optimizes under the default knobs (no batching, no reliability).
    pub(super) fn run(plan: &Plan, schemas: &[IndexSchema], cfg: &OptimizerCfg) -> Optimized {
        optimize(plan, schemas, cfg, &CostKnobs::default()).unwrap()
    }

    #[test]
    fn pushdown_converts_state_filter() {
        let planner = RulePlanner::new(schemas());
        let plan = planner.plan_question("How many incidents occurred in Alaska?");
        let opt = run(&plan, &schemas(), &OptimizerCfg::default());
        assert!(opt
            .plan
            .nodes
            .iter()
            .any(|n| matches!(&n.op, PlanOp::BasicFilter { path, value }
                if path == "us_state_abbrev" && value.as_str() == Some("AK"))));
        assert!(opt.notes.iter().any(|n| n.contains("pushed down")));
        opt.plan.validate().unwrap();
    }

    #[test]
    fn pushdown_respects_schema_absence() {
        // The ntsb schema has no "sector": sector predicates stay semantic.
        let plan = Plan {
            nodes: vec![
                PlanNode {
                    id: 0,
                    op: PlanOp::QueryDatabase { index: "ntsb".into(), prefilter: vec![] },
                    inputs: vec![],
                    description: String::new(),
                },
                PlanNode {
                    id: 1,
                    op: PlanOp::LlmFilter { predicate: "in the AI sector".into(), model: String::new() },
                    inputs: vec![0],
                    description: String::new(),
                },
            ],
            result: 1,
        };
        let opt = run(&plan, &schemas(), &OptimizerCfg::default());
        assert!(matches!(&opt.plan.nodes[1].op, PlanOp::LlmFilter { .. }));
    }

    #[test]
    fn pushdown_skips_fields_an_upstream_extract_writes() {
        // A query-time extraction and the semantic filter read the text
        // differently, so a filter over an extracted field stays semantic.
        let node = |id: usize, op: PlanOp| PlanNode { id, op, inputs: vec![id.saturating_sub(1)], description: String::new() };
        let plan = Plan {
            nodes: vec![
                PlanNode {
                    id: 0,
                    op: PlanOp::QueryDatabase { index: "earnings".into(), prefilter: vec![] },
                    inputs: vec![],
                    description: String::new(),
                },
                node(1, PlanOp::LlmExtract { field: "sector".into(), ftype: "string".into(), model: String::new() }),
                node(2, PlanOp::LlmFilter { predicate: "in the AI sector".into(), model: String::new() }),
                node(3, PlanOp::Count),
            ],
            result: 3,
        };
        let opt = run(&plan, &schemas(), &OptimizerCfg::default());
        assert!(matches!(&opt.plan.nodes[2].op, PlanOp::LlmFilter { .. }), "{:?}", opt.notes);
    }

    #[test]
    fn reorder_puts_structured_first() {
        // llmFilter then rangeFilter in a linear chain → swapped.
        let plan = Plan {
            nodes: vec![
                PlanNode {
                    id: 0,
                    op: PlanOp::QueryDatabase { index: "ntsb".into(), prefilter: vec![] },
                    inputs: vec![],
                    description: String::new(),
                },
                PlanNode {
                    id: 1,
                    op: PlanOp::LlmFilter { predicate: "caused by a rare anomaly".into(), model: String::new() },
                    inputs: vec![0],
                    description: String::new(),
                },
                PlanNode {
                    id: 2,
                    op: PlanOp::RangeFilter { path: "year".into(), lo: Some(Value::Int(2019)), hi: Some(Value::Int(2019)) },
                    inputs: vec![1],
                    description: String::new(),
                },
                PlanNode { id: 3, op: PlanOp::Count, inputs: vec![2], description: String::new() },
            ],
            result: 3,
        };
        let opt = run(&plan, &schemas(), &OptimizerCfg::default());
        assert!(matches!(opt.plan.nodes[1].op, PlanOp::RangeFilter { .. }));
        assert!(matches!(opt.plan.nodes[2].op, PlanOp::LlmFilter { .. }));
        assert!(opt.notes.iter().any(|n| n.contains("reordered")));
        opt.plan.validate().unwrap();
    }

    #[test]
    fn reorder_skips_shared_scans() {
        // Figure 5: out_0 feeds two branches — no swap may move a filter
        // above the shared scan.
        let planner = RulePlanner::new(schemas());
        let plan = planner
            .plan_question("What percent of environmentally caused incidents were due to wind?");
        let opt = run(&plan, &schemas(), &OptimizerCfg { pushdown: false, ..OptimizerCfg::default() });
        assert!(matches!(&opt.plan.nodes[0].op, PlanOp::QueryDatabase { .. }));
        opt.plan.validate().unwrap();
    }

    #[test]
    fn model_selection_routes_by_difficulty() {
        let plan = Plan {
            nodes: vec![
                PlanNode {
                    id: 0,
                    op: PlanOp::QueryDatabase { index: "earnings".into(), prefilter: vec![] },
                    inputs: vec![],
                    description: String::new(),
                },
                PlanNode {
                    id: 1,
                    op: PlanOp::LlmFilter { predicate: "caused by wind".into(), model: String::new() },
                    inputs: vec![0],
                    description: String::new(),
                },
                PlanNode {
                    id: 2,
                    op: PlanOp::LlmFilter {
                        predicate: "management's tone suggests a cautious outlook compared to last quarter".into(),
                        model: String::new(),
                    },
                    inputs: vec![1],
                    description: String::new(),
                },
            ],
            result: 2,
        };
        let models_at = |min_accuracy: f64| -> Vec<String> {
            let opt = run(
                &plan,
                &schemas(),
                &OptimizerCfg {
                    pushdown: false,
                    reorder: false,
                    batch_filters: false,
                    min_accuracy,
                    ..OptimizerCfg::default()
                },
            );
            opt.plan
                .nodes
                .iter()
                .filter_map(|n| match &n.op {
                    PlanOp::LlmFilter { model, .. } => Some(model.clone()),
                    _ => None,
                })
                .collect()
        };
        // At a relaxed accuracy bar, easy predicates route to the cheap
        // model while hard ones still need the strong one.
        let relaxed = models_at(0.68);
        assert_eq!(relaxed[0], "llama-7b-sim", "easy predicate → cheap model");
        assert_eq!(relaxed[1], "gpt-4-sim", "hard predicate → strong model");
        // At the strict default bar, everything needs the strong model.
        let strict = models_at(0.85);
        assert!(strict.iter().all(|m| m == "gpt-4-sim"), "{strict:?}");
    }

    #[test]
    fn pinned_models_are_respected() {
        let plan = Plan {
            nodes: vec![
                PlanNode {
                    id: 0,
                    op: PlanOp::QueryDatabase { index: "ntsb".into(), prefilter: vec![] },
                    inputs: vec![],
                    description: String::new(),
                },
                PlanNode {
                    id: 1,
                    op: PlanOp::LlmFilter { predicate: "caused by wind".into(), model: "gpt-4-sim".into() },
                    inputs: vec![0],
                    description: String::new(),
                },
            ],
            result: 1,
        };
        let opt = run(&plan, &schemas(), &OptimizerCfg::default());
        // Pushdown may not apply ("wind" has no single structured field in
        // this schema? cause_detail exists — but predicate is causal, not
        // named; assert the model stays pinned if the filter survived).
        for n in &opt.plan.nodes {
            if let PlanOp::LlmFilter { model, .. } = &n.op {
                assert_eq!(model, "gpt-4-sim");
            }
        }
    }

    #[test]
    fn dead_extract_is_pruned_with_cost_delta() {
        // scan → extract("summary", never read) → rangeFilter(year) → count
        let plan = Plan {
            nodes: vec![
                PlanNode {
                    id: 0,
                    op: PlanOp::QueryDatabase { index: "ntsb".into(), prefilter: vec![] },
                    inputs: vec![],
                    description: String::new(),
                },
                PlanNode {
                    id: 1,
                    op: PlanOp::LlmExtract {
                        field: "summary".into(),
                        ftype: "string".into(),
                        model: String::new(),
                    },
                    inputs: vec![0],
                    description: String::new(),
                },
                PlanNode {
                    id: 2,
                    op: PlanOp::RangeFilter {
                        path: "year".into(),
                        lo: Some(Value::Int(2019)),
                        hi: None,
                    },
                    inputs: vec![1],
                    description: String::new(),
                },
                PlanNode { id: 3, op: PlanOp::Count, inputs: vec![2], description: String::new() },
            ],
            result: 3,
        };
        let cfg = OptimizerCfg { prune_dead_fields: true, ..OptimizerCfg::default() };
        let opt = run(&plan, &schemas(), &cfg);
        assert!(
            !opt.plan.nodes.iter().any(|n| matches!(n.op, PlanOp::LlmExtract { .. })),
            "dead extract should be spliced out: {:?}",
            opt.plan
        );
        // The filter now reads the scan directly.
        let filt = opt
            .plan
            .nodes
            .iter()
            .find(|n| matches!(n.op, PlanOp::RangeFilter { .. }))
            .unwrap();
        assert_eq!(filt.inputs, vec![0]);
        assert!(opt.notes.iter().any(|n| n.contains("pruned dead llmExtract")));
        assert!(opt.notes.iter().any(|n| n.contains("prune-dead-fields: predicted calls")));
        opt.plan.validate().unwrap();
        // Off by default: the extract survives.
        let off = run(&plan, &schemas(), &OptimizerCfg::default());
        assert!(off.plan.nodes.iter().any(|n| matches!(n.op, PlanOp::LlmExtract { .. })));
    }

    #[test]
    fn live_extract_is_not_pruned() {
        // The filter reads the extracted field — pruning would change the
        // answer, so the pass must leave the plan alone.
        let plan = Plan {
            nodes: vec![
                PlanNode {
                    id: 0,
                    op: PlanOp::QueryDatabase { index: "ntsb".into(), prefilter: vec![] },
                    inputs: vec![],
                    description: String::new(),
                },
                PlanNode {
                    id: 1,
                    op: PlanOp::LlmExtract {
                        field: "cause_detail".into(),
                        ftype: "string".into(),
                        model: String::new(),
                    },
                    inputs: vec![0],
                    description: String::new(),
                },
                PlanNode {
                    id: 2,
                    op: PlanOp::BasicFilter {
                        path: "cause_detail".into(),
                        value: Value::from("wind"),
                    },
                    inputs: vec![1],
                    description: String::new(),
                },
                PlanNode { id: 3, op: PlanOp::Count, inputs: vec![2], description: String::new() },
            ],
            result: 3,
        };
        let cfg = OptimizerCfg { prune_dead_fields: true, ..OptimizerCfg::default() };
        let opt = run(&plan, &schemas(), &cfg);
        assert!(opt.plan.nodes.iter().any(|n| matches!(n.op, PlanOp::LlmExtract { .. })));
        assert!(opt.notes.iter().all(|n| !n.contains("pruned dead")));
    }

    #[test]
    fn difficulty_ordering() {
        assert!(predicate_difficulty("caused by wind") < predicate_difficulty("carries a negative sentiment"));
        assert!(expected_accuracy(&GPT4_SIM, 0.9) > expected_accuracy(&LLAMA7B_SIM, 0.9));
    }
}

#[cfg(test)]
mod batch_tests {
    use super::tests::run;
    use super::*;
    use crate::ops::PlanNode;

    fn chain_plan() -> Plan {
        Plan {
            nodes: vec![
                PlanNode {
                    id: 0,
                    op: PlanOp::QueryDatabase { index: "ntsb".into(), prefilter: vec![] },
                    inputs: vec![],
                    description: String::new(),
                },
                PlanNode {
                    id: 1,
                    op: PlanOp::LlmFilter { predicate: "mentions strong gusts".into(), model: String::new() },
                    inputs: vec![0],
                    description: String::new(),
                },
                PlanNode {
                    id: 2,
                    op: PlanOp::LlmFilter { predicate: "the airplane was damaged".into(), model: String::new() },
                    inputs: vec![1],
                    description: String::new(),
                },
                PlanNode { id: 3, op: PlanOp::Count, inputs: vec![2], description: String::new() },
            ],
            result: 3,
        }
    }

    #[test]
    fn consecutive_semantic_filters_fuse() {
        let cfg = OptimizerCfg {
            pushdown: false,
            reorder: false,
            model_selection: false,
            ..OptimizerCfg::default()
        };
        let opt = run(&chain_plan(), &[], &cfg);
        opt.plan.validate().unwrap();
        let filters: Vec<&PlanOp> = opt
            .plan
            .nodes
            .iter()
            .filter(|n| matches!(n.op, PlanOp::LlmFilter { .. }))
            .map(|n| &n.op)
            .collect();
        assert_eq!(filters.len(), 1, "two filters fused into one");
        match filters[0] {
            PlanOp::LlmFilter { predicate, .. } => {
                assert!(predicate.contains("; and also "), "{predicate}");
                assert!(predicate.contains("gusts") && predicate.contains("damaged"));
            }
            _ => unreachable!(),
        }
        assert!(opt.notes.iter().any(|n| n.contains("batched")));
        // Count still reads from the fused filter.
        let count = opt.plan.nodes.iter().find(|n| matches!(n.op, PlanOp::Count)).unwrap();
        let fused_id = opt
            .plan
            .nodes
            .iter()
            .find(|n| matches!(n.op, PlanOp::LlmFilter { .. }))
            .unwrap()
            .id;
        assert_eq!(count.inputs, vec![fused_id]);
    }

    #[test]
    fn shared_branches_do_not_fuse() {
        // Figure 5: both filters read the shared scan; fusing them would
        // change semantics. The batching pass must leave them alone.
        let planner = crate::planner::RulePlanner::new(vec![]);
        let _ = planner; // (Figure 5 shape built directly)
        let mut plan = chain_plan();
        // Re-wire: both filters read the scan, a second count reads filter 1.
        plan.nodes[2].inputs = vec![0];
        plan.nodes.push(PlanNode {
            id: 4,
            op: PlanOp::Count,
            inputs: vec![1],
            description: String::new(),
        });
        let cfg = OptimizerCfg {
            pushdown: false,
            reorder: false,
            model_selection: false,
            ..OptimizerCfg::default()
        };
        let opt = run(&plan, &[], &cfg);
        let n_filters = opt
            .plan
            .nodes
            .iter()
            .filter(|n| matches!(n.op, PlanOp::LlmFilter { .. }))
            .count();
        assert_eq!(n_filters, 2, "parallel branches must not fuse");
    }

    #[test]
    fn micro_batching_cost_model_notes_call_reduction() {
        let mut store = aryn_index::DocStore::new();
        for i in 0..10 {
            let mut d = aryn_core::Document::new(format!("n{i}"));
            d.properties = aryn_core::obj! { "us_state_abbrev" => "AK" };
            store.try_put(d).unwrap();
        }
        let schemas = vec![crate::schema::IndexSchema::discover("ntsb", store.len(), store.schema())];
        let cfg = OptimizerCfg {
            pushdown: false,
            reorder: false,
            batch_filters: false,
            model_selection: false,
            ..OptimizerCfg::default()
        };
        let batched = CostKnobs { batch_max_items: 4, ..CostKnobs::default() };
        let opt = optimize(&chain_plan(), &schemas, &cfg, &batched).unwrap();
        // 10 rows at ≤4 docs/call → ≤3 calls, saving ≥7; one note per
        // semantic operator.
        let batch_notes: Vec<&String> = opt
            .notes
            .iter()
            .filter(|n| n.contains("micro-batches"))
            .collect();
        assert_eq!(batch_notes.len(), 2, "{:?}", opt.notes);
        assert!(batch_notes[0].contains("≤10 rows → ≤3 calls, saving ≥7"));
        // Off by default: no notes.
        let off = run(&chain_plan(), &schemas, &cfg);
        assert!(off.notes.iter().all(|n| !n.contains("micro-batches")));
    }

    #[test]
    fn degradation_ladder_starts_at_the_default_model() {
        // An unpinned semantic operator runs on the executor's default
        // model, so its ladder starts there, not at the catalogue's top.
        let node = |id: usize, op: PlanOp, inputs: Vec<usize>| PlanNode { id, op, inputs, description: String::new() };
        let plan = Plan {
            nodes: vec![
                node(0, PlanOp::QueryDatabase { index: "ntsb".into(), prefilter: vec![] }, vec![]),
                node(1, PlanOp::LlmFilter { predicate: "caused by a rare anomaly".into(), model: String::new() }, vec![0]),
                node(2, PlanOp::Count, vec![1]),
            ],
            result: 2,
        };
        let cfg = OptimizerCfg { model_selection: false, ..OptimizerCfg::default() };
        let knobs = CostKnobs {
            default_model: &LLAMA7B_SIM,
            reliability: Some(aryn_llm::ReliabilityPolicy::standard()),
            ..CostKnobs::default()
        };
        let opt = optimize(&plan, &[], &cfg, &knobs).unwrap();
        let ladders: Vec<&String> = opt.notes.iter().filter(|n| n.contains("degradation ladder")).collect();
        assert_eq!(ladders.len(), 1, "{:?}", opt.notes);
        assert!(ladders[0].contains("ladder llama-7b-sim -> string-match ("), "{}", ladders[0]);
    }

    #[test]
    fn batched_predicate_semantics_are_conjunctive() {
        use aryn_llm::semantics::{eval_predicate, Reading};
        let text = Reading::new("The airplane was substantially damaged after strong gusts hit on final.");
        assert!(eval_predicate("mentions strong gusts; and also the airplane was damaged", &text));
        assert!(!eval_predicate("mentions strong gusts; and also the pilot was a student", &text));
    }
}
