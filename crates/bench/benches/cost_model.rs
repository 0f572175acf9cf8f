//! E-cost — the static cost analyzer (DESIGN.md §5h) against reality.
//!
//! Two experiments:
//!
//! 1. **Predicted vs actual.** Every bench18 question is planned with
//!    `analyze_cost` on and executed; the run's real calls/tokens/cost must
//!    land inside the static envelope, and the expected-case point estimate
//!    is compared to the actuals. The per-question deltas are exported to
//!    `bench_results/cost_model.txt`.
//! 2. **Dead-field pruning.** Two plans carrying an `llmExtract` whose field
//!    is never read downstream run with `prune_dead_fields` off and on. The
//!    answers must be bit-identical while both the predicted and the actual
//!    token spend drop.
//!
//! Run with: `cargo bench -p bench --bench cost_model`
//! Smoke mode (CI): `COST_MODEL_SMOKE=1` shrinks the corpora.

use aryn::luna::bench18::{Bench18, Bench18Cfg};
use aryn::luna::{ntsb_schema, Plan, PlanNode, PlanOp};
use aryn::prelude::*;
use std::fmt::Write as _;
use std::sync::Arc;

const SEED: u64 = 17;

fn main() {
    let smoke = std::env::var("COST_MODEL_SMOKE").is_ok();
    let mut report = String::new();
    predicted_vs_actual(smoke, &mut report);
    dead_field_pruning(smoke, &mut report);

    let dir = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../bench_results");
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("cannot create bench_results/: {e}");
        return;
    }
    let path = dir.join("cost_model.txt");
    match std::fs::write(&path, &report) {
        Ok(()) => println!("\nreport exported to {}", path.display()),
        Err(e) => eprintln!("cannot write {}: {e}", path.display()),
    }
}

/// Experiment 1: run every bench18 question with cost analysis on; assert
/// the envelope contains the actuals and tabulate expected-vs-actual error.
fn predicted_vs_actual(smoke: bool, report: &mut String) {
    let (n_ntsb, n_earnings) = if smoke { (14, 12) } else { (60, 48) };
    println!(
        "E-cost 1: predicted vs actual over bench18 ({n_ntsb} NTSB / {n_earnings} earnings docs)\n"
    );
    let fixture = Bench18::build(Bench18Cfg {
        n_ntsb,
        n_earnings,
        analyze_cost: true,
        ..Bench18Cfg::default()
    })
    .expect("bench18 fixture builds");
    let _ = writeln!(
        report,
        "predicted vs actual (bench18, {n_ntsb}+{n_earnings} docs)\n\
         {:<10} {:>9} {:>9} {:>10} {:>10}  question",
        "verdict", "exp calls", "act calls", "exp tokens", "act tokens"
    );
    println!(
        "{:<26} {:>9} {:>9} {:>10} {:>10}  question",
        "calls interval", "expected", "actual", "exp tokens", "act tokens"
    );
    for q in &fixture.questions {
        let ans = fixture.luna.ask(&q.question).expect("question executes");
        let cost = ans.cost.as_ref().expect("analyze_cost attaches a report");
        let calls = ans.result.llm().calls as f64;
        let tokens = ans.result.llm().usage.tokens() as f64;
        assert!(
            cost.llm.calls.contains(calls),
            "{}: actual calls {calls} outside {}",
            q.question,
            cost.llm.calls.render()
        );
        assert!(
            cost.llm.total_tokens().contains(tokens),
            "{}: actual tokens {tokens} outside {}",
            q.question,
            cost.llm.total_tokens().render()
        );
        assert!(
            cost.llm.cost_usd.contains(ans.result.llm().usage.cost_usd),
            "{}: actual cost {} outside {}",
            q.question,
            ans.result.llm().usage.cost_usd,
            cost.llm.cost_usd.render()
        );
        println!(
            "{:<26} {:>9.1} {:>9.0} {:>10.0} {:>10.0}  {}",
            cost.llm.calls.render(),
            cost.expected_calls,
            calls,
            cost.expected_tokens,
            tokens,
            q.question
        );
        let _ = writeln!(
            report,
            "{:<10} {:>9.1} {:>9.0} {:>10.0} {:>10.0}  {}",
            "inside",
            cost.expected_calls,
            calls,
            cost.expected_tokens,
            tokens,
            q.question
        );
    }
    println!("\nall {} questions landed inside the static envelope", fixture.questions.len());
}

/// Builds a Luna over a small NTSB lake with cost analysis on and the prune
/// pass toggled.
fn build_luna(n_docs: usize, prune: bool) -> Luna {
    let ctx = Context::new();
    ctx.register_corpus("ntsb", &Corpus::ntsb(SEED, n_docs));
    let client = LlmClient::new(Arc::new(MockLlm::new(&GPT4_SIM, SimConfig::perfect(SEED))));
    ingest_lake(&ctx, "ntsb", "ntsb", &client, ntsb_schema(), Detector::DetrSim)
        .expect("lake ingests");
    Luna::new(
        ctx,
        &["ntsb"],
        LunaConfig {
            sim: SimConfig::perfect(SEED),
            analyze_cost: true,
            prune_dead_fields: prune,
            ..LunaConfig::default()
        },
    )
    .expect("luna builds")
}

fn node(id: usize, op: PlanOp, inputs: Vec<usize>) -> PlanNode {
    PlanNode {
        id,
        op,
        inputs,
        description: String::new(),
    }
}

fn scan(id: usize) -> PlanNode {
    node(
        id,
        PlanOp::QueryDatabase {
            index: "ntsb".into(),
            prefilter: vec![],
        },
        vec![],
    )
}

/// Two "questions" whose plans carry a dead `llmExtract`: the extracted
/// field is never read by any downstream operator or the result.
fn dead_field_plans() -> Vec<(&'static str, Plan)> {
    vec![
        (
            "How many incidents occurred in 2015 or later? (plan pads a dead summary extract)",
            Plan {
                nodes: vec![
                    scan(0),
                    node(
                        1,
                        PlanOp::LlmExtract {
                            field: "incident_summary".into(),
                            ftype: "string".into(),
                            model: String::new(),
                        },
                        vec![0],
                    ),
                    node(
                        2,
                        PlanOp::RangeFilter {
                            path: "year".into(),
                            lo: Some(Value::Int(2015)),
                            hi: None,
                        },
                        vec![1],
                    ),
                    node(3, PlanOp::Count, vec![2]),
                ],
                result: 3,
            },
        ),
        (
            "How many incidents involved substantial damage? (plan pads a dead weather extract)",
            Plan {
                nodes: vec![
                    scan(0),
                    node(
                        1,
                        PlanOp::LlmExtract {
                            field: "weather_detail".into(),
                            ftype: "string".into(),
                            model: String::new(),
                        },
                        vec![0],
                    ),
                    node(
                        2,
                        PlanOp::LlmFilter {
                            predicate: "the aircraft was substantially damaged".into(),
                            model: String::new(),
                        },
                        vec![1],
                    ),
                    node(3, PlanOp::Count, vec![2]),
                ],
                result: 3,
            },
        ),
    ]
}

/// Experiment 2: optimize + execute each dead-field plan with the prune
/// pass off and on; answers must match bit-for-bit while predicted and
/// actual token spend both shrink.
fn dead_field_pruning(smoke: bool, report: &mut String) {
    let n_docs = if smoke { 8 } else { 24 };
    println!("\nE-cost 2: dead-field pruning over {n_docs} NTSB docs\n");
    let _ = writeln!(report, "\ndead-field pruning ({n_docs} docs)");
    let keep = build_luna(n_docs, false);
    let prune = build_luna(n_docs, true);
    for (question, plan) in dead_field_plans() {
        let run = |luna: &Luna, label: &str| {
            let optimized = luna.optimize(&plan).expect("plan optimizes");
            let est = luna
                .estimate_cost(&optimized.plan)
                .expect("analyze_cost is on");
            let result = luna.execute(&optimized.plan).unwrap_or_else(|e| {
                panic!("{label}: execution failed: {e}");
            });
            (optimized, est, result)
        };
        let (opt_off, est_off, res_off) = run(&keep, "prune=off");
        let (opt_on, est_on, res_on) = run(&prune, "prune=on");
        assert_eq!(
            res_off.answer, res_on.answer,
            "{question}: pruning changed the answer"
        );
        assert!(
            opt_on.plan.nodes.len() < opt_off.plan.nodes.len(),
            "{question}: the dead extract was not pruned"
        );
        assert!(
            est_on.expected_tokens < est_off.expected_tokens,
            "{question}: predicted tokens did not drop ({} -> {})",
            est_off.expected_tokens,
            est_on.expected_tokens
        );
        assert!(
            res_on.llm().usage.tokens() < res_off.llm().usage.tokens(),
            "{question}: actual tokens did not drop ({} -> {})",
            res_off.llm().usage.tokens(),
            res_on.llm().usage.tokens()
        );
        println!(
            "answer {:?} (bit-identical)\n  predicted tokens {:>8.0} -> {:>8.0}   actual tokens {:>7} -> {:>7}\n  {}",
            res_on.answer,
            est_off.expected_tokens,
            est_on.expected_tokens,
            res_off.llm().usage.tokens(),
            res_on.llm().usage.tokens(),
            question
        );
        let _ = writeln!(
            report,
            "answer={:?} predicted {:.0} -> {:.0} tokens, actual {} -> {} tokens  {}",
            res_on.answer,
            est_off.expected_tokens,
            est_on.expected_tokens,
            res_off.llm().usage.tokens(),
            res_on.llm().usage.tokens(),
            question
        );
    }
    println!("\nboth questions: bit-identical answers, predicted and actual tokens reduced");
}
