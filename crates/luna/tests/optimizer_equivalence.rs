//! Optimizer equivalence (§6.1): every rewrite the optimizer performs —
//! structured pushdown, filter reordering, filter batching, model routing —
//! must preserve the answer. Property-tested over generated linear plans on
//! both domain schemas, executed against real ingested stores under a
//! noise-free simulation so any divergence is the optimizer's fault.

use aryn_core::Value;
use aryn_docgen::Corpus;
use aryn_llm::{LlmClient, MockLlm, SimConfig, GPT4_SIM};
use luna::{
    earnings_schema, ingest_lake, ntsb_schema, Luna, LunaConfig, OptimizerCfg, Plan, PlanNode,
    PlanOp,
};
use proptest::prelude::*;
use std::sync::{Arc, OnceLock};
use sycamore::Context;

/// One Luna over both corpora, built once: plan generation is cheap, ingest
/// is not.
fn fixture() -> &'static Luna {
    static LUNA: OnceLock<Luna> = OnceLock::new();
    LUNA.get_or_init(|| {
        let ctx = Context::new();
        ctx.register_corpus("ntsb", &Corpus::ntsb(13, 18));
        ctx.register_corpus("earnings", &Corpus::earnings(13, 14));
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
/// CEO, sentiment) or a plain structured filter the reorder pass can move.
fn filter_pool(index: &str) -> Vec<PlanOp> {
    if index == "ntsb" {
        vec![
            llm_filter("the incident occurred in Alaska (AK)"),
            llm_filter("the incident was caused by environmental factors"),
            llm_filter("the incident was caused by wind"),
            llm_filter("the accident was fatal"),
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

/// Builds a linear plan: scan → chosen filters → optional terminal.
fn build_plan(index: &str, picks: &[usize], terminal: usize) -> Plan {
    let pool = filter_pool(index);
    let sort_path = if index == "ntsb" { "year" } else { "growth_pct" };
    let mut nodes = vec![PlanNode {
        id: 0,
        op: PlanOp::QueryDatabase {
            index: index.into(),
            prefilter: vec![],
        },
        inputs: vec![],
        description: String::new(),
    }];
    for pick in picks {
        let id = nodes.len();
        nodes.push(PlanNode {
            id,
            op: pool[pick % pool.len()].clone(),
            inputs: vec![id - 1],
            description: String::new(),
        });
    }
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
    if let Some(op) = terminal_op {
        let id = nodes.len();
        nodes.push(PlanNode {
            id,
            op,
            inputs: vec![id - 1],
            description: String::new(),
        });
    }
    let result = nodes.len() - 1;
    Plan { nodes, result }
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
        terminal in 0usize..4,
    ) {
        let luna = fixture();
        let index = if on_ntsb { "ntsb" } else { "earnings" };
        let plan = build_plan(index, &picks, terminal);
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
        pass in 0usize..4,
    ) {
        let luna = fixture();
        let index = if on_ntsb { "ntsb" } else { "earnings" };
        let plan = build_plan(index, &picks, 1);
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
        terminal in 0usize..4,
        pass in 0usize..5,
    ) {
        let luna = fixture();
        let index = if on_ntsb { "ntsb" } else { "earnings" };
        let plan = build_plan(index, &picks, terminal);
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
