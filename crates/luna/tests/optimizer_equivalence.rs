//! Optimizer equivalence (§6.1): every rewrite the optimizer performs —
//! structured pushdown, filter reordering, filter batching, model routing —
//! must preserve the answer. Property-tested over generated plans on both
//! domain schemas (one index's linear chain, or two indexes' counted chains
//! summed by a math node), executed against real ingested stores under a
//! noise-free simulation so any divergence is the optimizer's fault. Two
//! more properties: graded against the docgen records, an optimized count is
//! never further from the truth than the unoptimized one; and the analyzer's
//! `semantic-pushdown` / `filter-reorder` hints name exactly the sites the
//! optimizer rewrites.

use aryn_core::Value;
use aryn_docgen::Corpus;
use aryn_llm::{LlmClient, MockLlm, SimConfig, GPT4_SIM};
use luna::analyze::codes;
use luna::{
    earnings_schema, ingest_lake, ntsb_schema, Luna, LunaConfig, OptimizerCfg, Plan, PlanNode,
    PlanOp,
};
use proptest::prelude::*;
use std::sync::{Arc, OnceLock};
use sycamore::Context;

/// The docgen corpus behind an index, records included.
fn corpus(index: &str) -> &'static Corpus {
    static NTSB: OnceLock<Corpus> = OnceLock::new();
    static EARNINGS: OnceLock<Corpus> = OnceLock::new();
    if index == "ntsb" {
        NTSB.get_or_init(|| Corpus::ntsb(13, 18))
    } else {
        EARNINGS.get_or_init(|| Corpus::earnings(13, 14))
    }
}

/// One Luna over both corpora, built once: plan generation is cheap, ingest
/// is not.
fn fixture() -> &'static Luna {
    static LUNA: OnceLock<Luna> = OnceLock::new();
    LUNA.get_or_init(|| {
        let ctx = Context::new();
        ctx.register_corpus("ntsb", corpus("ntsb"));
        ctx.register_corpus("earnings", corpus("earnings"));
        let client = LlmClient::new(Arc::new(MockLlm::new(&GPT4_SIM, SimConfig::perfect(13))));
        ingest_lake(&ctx, "ntsb", "ntsb", &client, ntsb_schema(), aryn_partitioner::Detector::DetrSim).unwrap();
        ingest_lake(&ctx, "earnings", "earnings", &client, earnings_schema(), aryn_partitioner::Detector::DetrSim)
            .unwrap();
        Luna::new(
            ctx,
            &["ntsb", "earnings"],
            LunaConfig {
                sim: SimConfig::perfect(13),
                ..LunaConfig::default()
            },
        )
        .unwrap()
    })
}

fn llm_filter(predicate: &str) -> PlanOp {
    PlanOp::LlmFilter {
        predicate: predicate.into(),
        model: String::new(),
    }
}

/// Filters whose semantic and structured forms must agree: each is either a
/// pushdown candidate (state, cause, weather, fatality, sector, guidance,
/// CEO, sentiment), a negated predicate that must stay semantic, a predicate
/// naming a field only the other index has, or a plain structured filter
/// the reorder pass can move.
fn filter_pool(index: &str) -> Vec<PlanOp> {
    if index == "ntsb" {
        vec![
            llm_filter("the incident occurred in Alaska (AK)"),
            llm_filter("the incident was caused by environmental factors"),
            llm_filter("the incident was caused by wind"),
            llm_filter("the accident was fatal"),
            llm_filter("the incident involved no fatalities"),
            llm_filter("the incident was not caused by wind"),
            llm_filter("the report mentions the AI sector"),
            PlanOp::BasicFilter {
                path: "weather_related".into(),
                value: Value::Bool(true),
            },
            PlanOp::RangeFilter {
                path: "year".into(),
                lo: Some(Value::Int(1999)),
                hi: Some(Value::Int(2004)),
            },
        ]
    } else {
        vec![
            llm_filter("the company is in the AI sector"),
            llm_filter("the company lowered its guidance"),
            llm_filter("the company changed its CEO"),
            llm_filter("the report had negative sentiment"),
            llm_filter("the company did not lower its guidance"),
            llm_filter("the company is not in the AI sector"),
            llm_filter("the report mentions a fatal accident"),
            PlanOp::BasicFilter {
                path: "guidance".into(),
                value: Value::from("lowered"),
            },
            PlanOp::RangeFilter {
                path: "growth_pct".into(),
                lo: Some(Value::Float(0.0)),
                hi: None,
            },
        ]
    }
}

/// What a pool filter means, read off a docgen record (the ground truth,
/// not the simulated model's reading).
fn holds(op: &PlanOp, record: &Value) -> bool {
    let is = |field: &str, want: &str| record.get(field).and_then(Value::as_str) == Some(want);
    let flag = |field: &str| record.get(field).and_then(Value::as_bool) == Some(true);
    let fatal = record.get("fatal").and_then(Value::as_int).unwrap_or(0) > 0;
    match op {
        PlanOp::LlmFilter { predicate, .. } => match predicate.as_str() {
            "the incident occurred in Alaska (AK)" => is("us_state_abbrev", "AK"),
            "the incident was caused by environmental factors" => flag("weather_related"),
            "the incident was caused by wind" => is("cause_detail", "wind"),
            "the incident was not caused by wind" => !is("cause_detail", "wind"),
            "the accident was fatal" | "the report mentions a fatal accident" => fatal,
            "the incident involved no fatalities" => !fatal,
            "the company is in the AI sector" | "the report mentions the AI sector" => is("sector", "AI"),
            "the company is not in the AI sector" => !is("sector", "AI"),
            "the company lowered its guidance" => is("guidance", "lowered"),
            "the company did not lower its guidance" => !is("guidance", "lowered"),
            "the company changed its CEO" => flag("ceo_changed"),
            "the report had negative sentiment" => is("sentiment", "negative"),
            other => panic!("no ground truth for {other:?}"),
        },
        PlanOp::BasicFilter { path, value } => record.get(path) == Some(value),
        PlanOp::RangeFilter { path, lo, hi } => record.get(path).and_then(Value::as_float).is_some_and(|v| {
            lo.as_ref().and_then(Value::as_float).is_none_or(|lo| v >= lo)
                && hi.as_ref().and_then(Value::as_float).is_none_or(|hi| v <= hi)
        }),
        other => panic!("no ground truth for {}", other.kind()),
    }
}

/// Appends `op` reading `inputs`; returns its id.
fn push(nodes: &mut Vec<PlanNode>, op: PlanOp, inputs: Vec<usize>) -> usize {
    let id = nodes.len();
    nodes.push(PlanNode { id, op, inputs, description: String::new() });
    id
}

/// Appends a scan of `index` and the picked filters; returns the last id.
fn push_chain(nodes: &mut Vec<PlanNode>, index: &str, picks: &[usize]) -> usize {
    let pool = filter_pool(index);
    let scan = PlanOp::QueryDatabase { index: index.into(), prefilter: vec![] };
    let mut last = push(nodes, scan, vec![]);
    for pick in picks {
        last = push(nodes, pool[pick % pool.len()].clone(), vec![last]);
    }
    last
}

/// Builds a plan. Without `second`: scan → chosen filters → optional
/// terminal. With it: scan `index` → `picks` → count, scan the other index →
/// `second` → count, and a math node summing the counts.
fn build_plan(index: &str, picks: &[usize], second: Option<&[usize]>, terminal: usize) -> Plan {
    let mut nodes = Vec::new();
    let last = push_chain(&mut nodes, index, picks);
    if let Some(second) = second {
        let a = push(&mut nodes, PlanOp::Count, vec![last]);
        let other = if index == "ntsb" { "earnings" } else { "ntsb" };
        let last = push_chain(&mut nodes, other, second);
        let b = push(&mut nodes, PlanOp::Count, vec![last]);
        let result = push(&mut nodes, PlanOp::Math { expr: format!("{{out_{a}}} + {{out_{b}}}") }, vec![a, b]);
        return Plan { nodes, result };
    }
    let sort_path = if index == "ntsb" { "year" } else { "growth_pct" };
    let terminal_op = match terminal {
        0 => None,
        1 => Some(PlanOp::Count),
        2 => Some(PlanOp::Sort {
            path: sort_path.into(),
            descending: true,
        }),
        _ => Some(PlanOp::TopK {
            path: sort_path.into(),
            descending: true,
            k: 5,
        }),
    };
    let result = match terminal_op {
        Some(op) => push(&mut nodes, op, vec![last]),
        None => last,
    };
    Plan { nodes, result }
}

/// Per count node of `plan`: how many docgen records pass every filter
/// between the count and its scan.
fn true_counts(plan: &Plan) -> Vec<(usize, usize)> {
    plan.nodes
        .iter()
        .filter(|n| matches!(n.op, PlanOp::Count))
        .map(|count| {
            let mut filters = Vec::new();
            let mut id = count.inputs[0];
            let index = loop {
                let n = plan.node(id).unwrap();
                match &n.op {
                    PlanOp::QueryDatabase { index, .. } => break index.as_str(),
                    op => filters.push(op),
                }
                id = n.inputs[0];
            };
            let truth = corpus(index).docs.iter().filter(|d| filters.iter().all(|f| holds(f, &d.record))).count();
            (count.id, truth)
        })
        .collect()
}

/// The rows each count node of an executed plan counted.
fn counted(r: &luna::LunaResult, count: usize) -> usize {
    r.traces.iter().find(|t| t.node_id == count).map(|t| t.rows_in).unwrap()
}

/// The node ids the notes containing `marker` rewrote, in note order: the
/// `N` of `out_N:`, or the child's of `out_P/out_C:`.
fn noted(notes: &[String], marker: &str) -> Vec<usize> {
    notes
        .iter()
        .filter(|n| n.contains(marker))
        .map(|n| {
            let site = n.split(':').next().unwrap();
            site.rsplit('/').next().unwrap().trim_start_matches("out_").parse().unwrap()
        })
        .collect()
}

fn sorted(mut ids: Vec<usize>) -> Vec<usize> {
    ids.sort_unstable();
    ids
}

/// Output signature for comparison: scalar value or ordered row ids.
fn signature(r: &luna::LunaResult) -> (String, Option<Vec<String>>) {
    let rows = r
        .output
        .rows()
        .map(|docs| docs.iter().map(|d| d.id.0.clone()).collect());
    (r.answer.clone(), rows)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn optimized_plans_answer_identically(
        on_ntsb in any::<bool>(),
        picks in prop::collection::vec(0usize..64, 0..=3),
        second in prop::option::of(prop::collection::vec(0usize..64, 0..=3)),
        terminal in 0usize..4,
    ) {
        let luna = fixture();
        let index = if on_ntsb { "ntsb" } else { "earnings" };
        let plan = build_plan(index, &picks, second.as_deref(), terminal);
        plan.validate().unwrap();

        let optimized = luna.optimize(&plan).unwrap();
        optimized.plan.validate().unwrap();

        let base = luna.execute(&plan).unwrap();
        let opt = luna.execute(&optimized.plan).unwrap();
        prop_assert_eq!(
            signature(&base),
            signature(&opt),
            "optimizer changed the answer; rewrites: {:?}\nplan: {}\noptimized: {}",
            optimized.notes,
            plan.describe(),
            optimized.plan.describe()
        );
    }

    #[test]
    fn each_pass_alone_preserves_answers(
        on_ntsb in any::<bool>(),
        picks in prop::collection::vec(0usize..64, 1..=3),
        second in prop::option::of(prop::collection::vec(0usize..64, 0..=3)),
        pass in 0usize..4,
    ) {
        let luna = fixture();
        let index = if on_ntsb { "ntsb" } else { "earnings" };
        let plan = build_plan(index, &picks, second.as_deref(), 1);
        let cfg = OptimizerCfg {
            pushdown: pass == 0,
            reorder: pass == 1,
            batch_filters: pass == 2,
            model_selection: pass == 3,
            ..OptimizerCfg::default()
        };
        let optimized = luna::optimize(&plan, luna.schemas(), &cfg, &luna.cost_knobs()).unwrap();
        let base = luna.execute(&plan).unwrap();
        let opt = luna.execute(&optimized.plan).unwrap();
        prop_assert_eq!(
            signature(&base),
            signature(&opt),
            "pass {} changed the answer; rewrites: {:?}",
            pass,
            optimized.notes
        );
    }

    /// §ISSUE acceptance: every optimizer pass output is analyzer-clean.
    /// `optimize()` itself re-analyzes after each enabled pass and errors if
    /// a pass broke the plan (in every build profile), so `Ok` already
    /// certifies the intermediate outputs; the final plan is re-checked here
    /// explicitly, warnings included in the failure message.
    #[test]
    fn analyzer_accepts_every_optimizer_output(
        on_ntsb in any::<bool>(),
        picks in prop::collection::vec(0usize..64, 0..=4),
        second in prop::option::of(prop::collection::vec(0usize..64, 0..=3)),
        terminal in 0usize..4,
        pass in 0usize..5,
    ) {
        let luna = fixture();
        let index = if on_ntsb { "ntsb" } else { "earnings" };
        let plan = build_plan(index, &picks, second.as_deref(), terminal);
        let input = luna.analyze(&plan);
        prop_assert!(!input.has_errors(), "generated plan not clean:\n{}", input.render());
        let cfg = OptimizerCfg {
            pushdown: pass == 0 || pass == 4,
            reorder: pass == 1 || pass == 4,
            batch_filters: pass == 2 || pass == 4,
            model_selection: pass == 3 || pass == 4,
            ..OptimizerCfg::default()
        };
        let optimized = luna::optimize(&plan, luna.schemas(), &cfg, &luna.cost_knobs()).unwrap();
        let out = luna.analyze(&optimized.plan);
        prop_assert!(
            !out.has_errors(),
            "pass set {} produced analyzer errors:\n{}\nplan: {}",
            pass,
            out.render(),
            optimized.plan.describe()
        );
    }
}

proptest! {
    /// Graded against the docgen records rather than the simulated model: a
    /// rewrite may keep a wrong answer, never make one.
    #[test]
    fn optimized_counts_are_never_further_from_the_truth(
        on_ntsb in any::<bool>(),
        picks in prop::collection::vec(0usize..64, 0..=3),
        second in prop::option::of(prop::collection::vec(0usize..64, 0..=3)),
    ) {
        let luna = fixture();
        let index = if on_ntsb { "ntsb" } else { "earnings" };
        let plan = build_plan(index, &picks, second.as_deref(), 1);
        let optimized = luna.optimize(&plan).unwrap();
        let base = luna.execute(&plan).unwrap();
        let opt = luna.execute(&optimized.plan).unwrap();
        for (count, truth) in true_counts(&plan) {
            let (b, o) = (counted(&base, count), counted(&opt, count));
            prop_assert!(
                o.abs_diff(truth) <= b.abs_diff(truth),
                "out_{}: optimized {}, unoptimized {}, truth {}; rewrites: {:?}\nplan: {}",
                count,
                o,
                b,
                truth,
                optimized.notes,
                plan.describe()
            );
        }
    }

    /// One detection per rewrite: the pushdown pass rewrites exactly the
    /// nodes the `semantic-pushdown` hint names, alone and in the default
    /// pass order, and in that order (pushdown, then reorder) the reorder
    /// pass's first round swaps exactly the sites the `filter-reorder` hint
    /// names (later rounds swap only sites the earlier swaps made). A filter
    /// the pushdown pass rewrote is never hinted as semantic.
    #[test]
    fn hinted_sites_are_the_rewritten_sites(
        on_ntsb in any::<bool>(),
        picks in prop::collection::vec(0usize..64, 0..=4),
        second in prop::option::of(prop::collection::vec(0usize..64, 0..=3)),
        terminal in 0usize..4,
    ) {
        let luna = fixture();
        let index = if on_ntsb { "ntsb" } else { "earnings" };
        let plan = build_plan(index, &picks, second.as_deref(), terminal);
        let analysis = luna.analyze(&plan);
        let hinted = |code: &str| {
            sorted(analysis.diagnostics.iter().filter(|d| d.code == code).filter_map(|d| d.node_id).collect())
        };
        let notes = |reorder: bool| {
            let cfg = OptimizerCfg {
                pushdown: true,
                reorder,
                batch_filters: false,
                model_selection: false,
                ..OptimizerCfg::default()
            };
            luna::optimize(&plan, luna.schemas(), &cfg, &luna.cost_knobs()).unwrap().notes
        };
        let default_order = notes(true);
        let hinted_pushdown = hinted(codes::SEMANTIC_PUSHDOWN);
        prop_assert_eq!(hinted_pushdown.clone(), sorted(noted(&notes(false), "pushed down")));
        prop_assert_eq!(hinted_pushdown, sorted(noted(&default_order, "pushed down")));
        let hinted_reorder = hinted(codes::FILTER_REORDER);
        let reordered = noted(&default_order, "reordered");
        prop_assert!(hinted_reorder.len() <= reordered.len(), "hinted {:?}, reordered {:?}", hinted_reorder, reordered);
        prop_assert_eq!(hinted_reorder.clone(), sorted(reordered[..hinted_reorder.len()].to_vec()));
    }
}

/// §ISSUE acceptance: the analyzer accepts every planner-generated plan over
/// both domain schemas — the question pool covers every plan shape the rule
/// planner produces (percent-of, count, average, top-k, superlative, list,
/// summarize, graph expansion, query-time extraction, joins of cues).
#[test]
fn analyzer_accepts_every_planner_generated_plan() {
    let luna = fixture();
    let questions = [
        // NTSB shapes.
        "What percent of environmentally caused incidents were due to wind?",
        "How many incidents occurred in Alaska?",
        "How many incidents were caused by wind?",
        "How many incidents were caused by engine failure in 2019?",
        "Which state had the most incidents?",
        "What was the average fatal injuries per incident?",
        "How many incidents involved fatalities?",
        "What was the most common phase of incidents?",
        "Summarize the incidents caused by weather",
        // Earnings shapes.
        "What was the average revenue growth of companies in the AI sector?",
        "Which company had the highest revenue?",
        "How many companies lowered guidance?",
        "List the companies whose CEO recently changed",
        "What is the yearly revenue growth and sentiment of companies whose CEO recently changed?",
        "List the fastest growing companies in the AI market and their competitors",
    ];
    for q in questions {
        let (plan, analysis) = luna.check(q).expect(q);
        assert!(
            !analysis.has_errors(),
            "{q}: planner plan failed analysis:\n{}\nplan: {}",
            analysis.render(),
            plan.describe()
        );
        // And the fully optimized form stays clean.
        let optimized = luna.optimize(&plan).expect(q);
        let out = luna.analyze(&optimized.plan);
        assert!(
            !out.has_errors(),
            "{q}: optimized plan failed analysis:\n{}",
            out.render()
        );
    }
}
