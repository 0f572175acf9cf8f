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

use crate::ops::{Plan, PlanOp};
use crate::schema::IndexSchema;
use aryn_core::{lexicon, ArynError, Result, Value};
use aryn_llm::registry::{ModelSpec, GPT4_SIM, LLAMA7B_SIM};

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
    /// Cross-document micro-batch width the engine will apply to surviving
    /// semantic operators (1 = off). The cost model doesn't rewrite the plan
    /// for it — packing happens at execution time — but it notes the
    /// expected call reduction so `explain_analyze` surfaces the decision.
    pub batch_max_items: usize,
    /// Set when the engine runs under a reliability policy with
    /// model-degradation ladders: the cost model notes each semantic
    /// operator's fallback route (cheaper catalogue tiers, then string
    /// matching) so `explain_analyze` shows where a degraded answer could
    /// come from before it happens.
    pub degradation_chain: bool,
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
            batch_max_items: 1,
            degradation_chain: false,
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

/// Runs all enabled passes.
///
/// Every pass output is re-checked by the semantic analyzer
/// ([`crate::analyze`]) in all build profiles — a rewrite that hallucinates
/// a field, breaks the DAG, or changes an operator's input shape is an
/// `InvalidPlan` error naming the offending pass, never a silently wrong
/// answer at runtime.
pub fn optimize(plan: &Plan, schemas: &[IndexSchema], cfg: &OptimizerCfg) -> Result<Optimized> {
    let mut plan = plan.clone();
    let mut notes = Vec::new();
    check_pass("input", &plan, schemas)?;
    if cfg.pushdown {
        pushdown(&mut plan, schemas, &mut notes);
        check_pass("pushdown", &plan, schemas)?;
    }
    if cfg.reorder {
        reorder_filters(&mut plan, &mut notes);
        check_pass("reorder", &plan, schemas)?;
    }
    if cfg.batch_filters {
        batch_filters(&mut plan, &mut notes);
        check_pass("batch", &plan, schemas)?;
    }
    if cfg.model_selection {
        select_models(&mut plan, cfg, &mut notes);
        check_pass("model-selection", &plan, schemas)?;
    }
    if cfg.prune_dead_fields {
        prune_dead(&mut plan, schemas, cfg, &mut notes);
        check_pass("prune-dead-fields", &plan, schemas)?;
    }
    if cfg.batch_max_items > 1 {
        note_batching(&plan, schemas, cfg, &mut notes);
    }
    if cfg.degradation_chain {
        note_degradation(&plan, &mut notes);
    }
    Ok(Optimized { plan, notes })
}

/// Cost-model pass for cross-document micro-batching: estimates the call
/// reduction each surviving semantic operator gets from packing up to
/// `batch_max_items` documents per call. Row counts are upper-bounded by the
/// scanned index's document count (filters only shrink the set), so the
/// estimate is a ceiling on calls and a floor on savings.
fn note_batching(plan: &Plan, schemas: &[IndexSchema], cfg: &OptimizerCfg, notes: &mut Vec<String>) {
    let index_docs = plan.nodes.iter().find_map(|n| match &n.op {
        PlanOp::QueryDatabase { index, .. } => schemas
            .iter()
            .find(|s| s.index == *index)
            .map(|s| s.doc_count),
        _ => None,
    });
    let k = cfg.batch_max_items;
    for n in &plan.nodes {
        let kind = match &n.op {
            PlanOp::LlmFilter { .. } => "llmFilter",
            PlanOp::LlmExtract { .. } => "llmExtract",
            _ => continue,
        };
        match index_docs {
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

/// Cost-model note for degradation ladders: records each semantic
/// operator's fallback route under the reliability policy — the cheaper
/// catalogue tiers its breaker/deadline failures would walk, ending at
/// string matching for `llmFilter` (a skipped extraction for `llmExtract`).
fn note_degradation(plan: &Plan, notes: &mut Vec<String>) {
    for n in &plan.nodes {
        let (kind, model, terminal) = match &n.op {
            PlanOp::LlmFilter { model, .. } => ("llmFilter", model, "string-match"),
            PlanOp::LlmExtract { model, .. } => ("llmExtract", model, "skip"),
            _ => continue,
        };
        let primary = if model.is_empty() { GPT4_SIM.name } else { model.as_str() };
        let start = aryn_llm::ALL_MODELS
            .iter()
            .position(|s| s.name == primary)
            .unwrap_or(0);
        let mut tiers: Vec<&str> = aryn_llm::ALL_MODELS[start..].iter().map(|s| s.name).collect();
        tiers.push(terminal);
        notes.push(format!(
            "out_{}: {kind} degradation ladder {} (breaker/deadline failures fall through)",
            n.id,
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
fn prune_dead(plan: &mut Plan, schemas: &[IndexSchema], cfg: &OptimizerCfg, notes: &mut Vec<String>) {
    let knobs = crate::costmodel::CostKnobs {
        batch_max_items: cfg.batch_max_items.max(1),
        ..crate::costmodel::CostKnobs::default()
    };
    let before = crate::costmodel::estimate(plan, schemas, &knobs);
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
                *expr = expr.replace(&format!("{{out_{id}}}"), &format!("{{out_{input}}}"));
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
    let after = crate::costmodel::estimate(plan, schemas, &knobs);
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

/// The analyzer gate behind each pass (replaces the old `debug_assert!`,
/// which vanished in release builds).
fn check_pass(pass: &str, plan: &Plan, schemas: &[IndexSchema]) -> Result<()> {
    let analysis = crate::analyze::analyze(plan, schemas);
    if analysis.has_errors() {
        return Err(ArynError::InvalidPlan(format!(
            "optimizer pass {pass:?} produced an invalid plan:\n{}",
            analysis.render_errors()
        )));
    }
    Ok(())
}

/// Pass 1: llmFilter → basicFilter when the predicate names a schema value.
fn pushdown(plan: &mut Plan, schemas: &[IndexSchema], notes: &mut Vec<String>) {
    // Which index does this plan scan?
    let index = plan.nodes.iter().find_map(|n| match &n.op {
        PlanOp::QueryDatabase { index, .. } => Some(index.clone()),
        _ => None,
    });
    let Some(index) = index else { return };
    let Some(schema) = schemas.iter().find(|s| s.index == index) else { return };
    for n in &mut plan.nodes {
        let PlanOp::LlmFilter { predicate, .. } = &n.op else { continue };
        if let Some((path, value)) = structured_equivalent(predicate, schema) {
            notes.push(format!(
                "out_{}: pushed down llmFilter {predicate:?} to structured filter {path} = {value}",
                n.id
            ));
            n.op = PlanOp::BasicFilter { path, value };
            continue;
        }
        // Fatality predicates push to a range over the extracted count.
        if schema.field("fatal").is_some() && predicate.to_lowercase().contains("fatal") {
            notes.push(format!(
                "out_{}: pushed down llmFilter {predicate:?} to structured filter fatal >= 1",
                n.id
            ));
            n.op = PlanOp::RangeFilter {
                path: "fatal".into(),
                lo: Some(Value::Int(1)),
                hi: None,
            };
        }
    }
}

/// Maps a semantic predicate to `(field, value)` when it names a known
/// categorical value of the schema. Shared with the analyzer's
/// `semantic-pushdown` hint.
pub(crate) fn structured_equivalent(predicate: &str, schema: &IndexSchema) -> Option<(String, Value)> {
    let p = predicate.to_lowercase();
    // State mentions: "occurred in Alaska (AK)" — the planner annotates the
    // abbreviation; bare full names also resolve via the lexicon.
    if let Some(f) = schema.field("us_state_abbrev") {
        for (abbrev, full) in lexicon::US_STATES {
            if p.contains(&format!("({})", abbrev.to_lowercase()))
                || p.contains(&full.to_lowercase())
            {
                let _ = f;
                return Some(("us_state_abbrev".into(), Value::from(*abbrev)));
            }
        }
    }
    // Cause predicates: ETL already extracted cause_detail/cause_category,
    // so "caused by wind" is a string match on the extracted field — the
    // optimizer's "string matching vs semantic matching" decision (§6.1).
    if schema.field("cause_category").is_some() {
        for (cat, _) in lexicon::CAUSES {
            if p.contains(cat) || (*cat == "pilot error" && p.contains("pilot error")) {
                return Some(("cause_category".into(), Value::from(*cat)));
            }
        }
    }
    if schema.field("cause_detail").is_some() && (p.contains("caused by") || p.contains("due to")) {
        for (_, details) in lexicon::CAUSES {
            for d in *details {
                if p.contains(d) {
                    return Some(("cause_detail".into(), Value::from(*d)));
                }
            }
        }
    }
    // Sector mentions: any lexicon sector named with the word "sector".
    if schema.field("sector").is_some() {
        for name in lexicon::SECTORS {
            if p.contains(&format!("{} sector", name.to_lowercase())) {
                return Some(("sector".into(), Value::from(*name)));
            }
        }
    }
    // Guidance: "the company lowered its guidance".
    if schema.field("guidance").is_some() {
        for g in ["lowered", "raised", "maintained"] {
            if p.contains(&format!("{g} its guidance")) || p.contains(&format!("{g} guidance")) {
                return Some(("guidance".into(), Value::from(g)));
            }
        }
    }
    // CEO change.
    if schema.field("ceo_changed").is_some() && p.contains("ceo") && p.contains("chang") {
        return Some(("ceo_changed".into(), Value::Bool(true)));
    }
    // Weather flag: "caused by environmental factors" — equivalent to the
    // extracted weather_related property when ETL extracted it.
    if schema.field("weather_related").is_some()
        && (p.contains("environmental factors") || p.contains("weather related"))
    {
        return Some(("weather_related".into(), Value::Bool(true)));
    }
    // Sentiment.
    if schema.field("sentiment").is_some() {
        for s in ["positive", "negative", "neutral"] {
            if p.contains(&format!("{s} sentiment")) {
                return Some(("sentiment".into(), Value::from(s)));
            }
        }
    }
    None
}

/// Pass 2: within each linear filter chain, structured filters first.
fn reorder_filters(plan: &mut Plan, notes: &mut Vec<String>) {
    // Find chains: sequences n1 → n2 where n2.inputs == [n1.id] and both are
    // filters; bubble structured filters ahead of semantic ones by swapping
    // the ops (keeping the node wiring intact keeps the DAG valid).
    fn is_structured(op: &PlanOp) -> bool {
        matches!(op, PlanOp::BasicFilter { .. } | PlanOp::RangeFilter { .. })
    }
    fn is_filter(op: &PlanOp) -> bool {
        is_structured(op) || matches!(op, PlanOp::LlmFilter { .. })
    }
    let mut changed = true;
    while changed {
        changed = false;
        for i in 0..plan.nodes.len() {
            let child_id = plan.nodes[i].id;
            let Some(parent_id) = (plan.nodes[i].inputs.len() == 1).then(|| plan.nodes[i].inputs[0]) else {
                continue;
            };
            let Some(parent_pos) = plan.nodes.iter().position(|n| n.id == parent_id) else { continue };
            // Only swap when the parent feeds just this child (linear chain).
            let consumers = plan
                .nodes
                .iter()
                .filter(|n| n.inputs.contains(&parent_id))
                .count();
            if consumers != 1 {
                continue;
            }
            let parent_op = plan.nodes[parent_pos].op.clone();
            let child_op = plan.nodes[i].op.clone();
            if is_filter(&parent_op)
                && is_filter(&child_op)
                && !is_structured(&parent_op)
                && is_structured(&child_op)
            {
                plan.nodes[parent_pos].op = child_op;
                plan.nodes[i].op = parent_op;
                notes.push(format!(
                    "out_{parent_id}/out_{child_id}: reordered structured filter before semantic filter"
                ));
                changed = true;
            }
        }
    }
}

/// Pass 3: fuse a linear chain `llmFilter(A) → llmFilter(B)` into a single
/// `llmFilter(A; and also B)` — half the per-row LLM calls.
fn batch_filters(plan: &mut Plan, notes: &mut Vec<String>) {
    loop {
        // Find a child llmFilter whose sole input is an llmFilter consumed
        // only by this child.
        let mut fused = None;
        for (ci, child) in plan.nodes.iter().enumerate() {
            let PlanOp::LlmFilter { .. } = &child.op else { continue };
            if child.inputs.len() != 1 {
                continue;
            }
            let parent_id = child.inputs[0];
            let Some(pi) = plan.nodes.iter().position(|n| n.id == parent_id) else { continue };
            let PlanOp::LlmFilter { .. } = &plan.nodes[pi].op else { continue };
            let consumers = plan.nodes.iter().filter(|n| n.inputs.contains(&parent_id)).count();
            if consumers == 1 {
                fused = Some((pi, ci));
                break;
            }
        }
        let Some((pi, ci)) = fused else { break };
        let (parent_pred, parent_model) = match &plan.nodes[pi].op {
            PlanOp::LlmFilter { predicate, model } => (predicate.clone(), model.clone()),
            _ => unreachable!("checked above"),
        };
        let parent_id = plan.nodes[pi].id;
        let parent_inputs = plan.nodes[pi].inputs.clone();
        {
            let child = &mut plan.nodes[ci];
            let child_id = child.id;
            if let PlanOp::LlmFilter { predicate, model } = &mut child.op {
                *predicate = format!("{parent_pred}; and also {predicate}");
                if model.is_empty() {
                    *model = parent_model;
                }
            }
            child.inputs = parent_inputs;
            notes.push(format!(
                "out_{parent_id}/out_{child_id}: batched two semantic filters into one call"
            ));
        }
        plan.nodes.remove(pi);
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
        ntsb.put(d);
        let mut earn = DocStore::new();
        let mut d = aryn_core::Document::new("e1");
        d.properties = obj! {
            "company" => "Apex", "sector" => "AI", "guidance" => "lowered",
            "ceo_changed" => true, "sentiment" => "negative", "growth_pct" => 1.0,
        };
        earn.put(d);
        vec![
            IndexSchema::discover("ntsb", ntsb.len(), ntsb.schema()),
            IndexSchema::discover("earnings", earn.len(), earn.schema()),
        ]
    }

    #[test]
    fn pushdown_converts_state_filter() {
        let planner = RulePlanner::new(schemas());
        let plan = planner.plan_question("How many incidents occurred in Alaska?");
        let opt = optimize(&plan, &schemas(), &OptimizerCfg::default()).unwrap();
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
        let opt = optimize(&plan, &schemas(), &OptimizerCfg::default()).unwrap();
        assert!(matches!(&opt.plan.nodes[1].op, PlanOp::LlmFilter { .. }));
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
        let opt = optimize(&plan, &schemas(), &OptimizerCfg::default()).unwrap();
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
        let opt = optimize(&plan, &schemas(), &OptimizerCfg { pushdown: false, ..OptimizerCfg::default() }).unwrap();
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
            let opt = optimize(
                &plan,
                &schemas(),
                &OptimizerCfg {
                    pushdown: false,
                    reorder: false,
                    batch_filters: false,
                    min_accuracy,
                    ..OptimizerCfg::default()
                },
            )
            .unwrap();
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
        let opt = optimize(&plan, &schemas(), &OptimizerCfg::default()).unwrap();
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
        let opt = optimize(&plan, &schemas(), &cfg).unwrap();
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
        let off = optimize(&plan, &schemas(), &OptimizerCfg::default()).unwrap();
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
        let opt = optimize(&plan, &schemas(), &cfg).unwrap();
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
        let opt = optimize(&chain_plan(), &[], &cfg).unwrap();
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
        let opt = optimize(&plan, &[], &cfg).unwrap();
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
            store.put(d);
        }
        let schemas = vec![crate::schema::IndexSchema::discover("ntsb", store.len(), store.schema())];
        let cfg = OptimizerCfg {
            pushdown: false,
            reorder: false,
            batch_filters: false,
            model_selection: false,
            batch_max_items: 4,
            ..OptimizerCfg::default()
        };
        let opt = optimize(&chain_plan(), &schemas, &cfg).unwrap();
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
        let off = optimize(&chain_plan(), &schemas, &OptimizerCfg {
            pushdown: false,
            reorder: false,
            batch_filters: false,
            model_selection: false,
            ..OptimizerCfg::default()
        })
        .unwrap();
        assert!(off.notes.iter().all(|n| !n.contains("micro-batches")));
    }

    #[test]
    fn batched_predicate_semantics_are_conjunctive() {
        let text = "The airplane was substantially damaged after strong gusts hit on final.";
        assert!(aryn_llm::semantics::eval_predicate(
            "mentions strong gusts; and also the airplane was damaged",
            text
        ));
        assert!(!aryn_llm::semantics::eval_predicate(
            "mentions strong gusts; and also the pilot was a student",
            text
        ));
    }
}
