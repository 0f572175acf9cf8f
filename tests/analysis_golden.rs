//! bench18's static analysis, pinned: for every question, the diagnostics,
//! cost report and dead extracts of the planned and the optimized plan, and
//! the optimizer's notes — once under default knobs, then with micro-batching
//! and a reliability policy on, with and without the pushdown pass. The analyzer, the cost model, liveness and
//! the optimizer all read per-operator facts; a change to any of them that
//! moves a finding shows here.

use aryn::prelude::*;
use luna::bench18::{Bench18, Bench18Cfg, BenchQuestion};
use luna::{Analysis, CostAnalysis, Luna, LunaConfig, OptimizerCfg, Plan};

/// One plan's diagnostics, cost report and dead extracts.
fn render_plan(label: &str, luna: &Luna, plan: &Plan, analysis: &Analysis, out: &mut String) {
    out.push_str(&format!("  {label}:\n"));
    for d in &analysis.diagnostics {
        out.push_str(&format!("    {d}\n"));
    }
    if let Some(report) = luna.estimate_cost(plan) {
        for line in report.render().lines() {
            out.push_str(&format!("    {line}\n"));
        }
    }
    out.push_str(&format!("    dead_extracts: {:?}\n", luna::dead_extracts(plan)));
}

fn render_questions(luna: &Luna, questions: &[BenchQuestion], out: &mut String) {
    for (i, q) in questions.iter().enumerate() {
        out.push_str(&format!("Q{:02} {}\n", i + 1, q.question));
        let (plan, analysis) = match luna.check(&q.question) {
            Ok(planned) => planned,
            Err(e) => {
                out.push_str(&format!("  planning failed: {e}\n"));
                continue;
            }
        };
        render_plan("planned", luna, &plan, &analysis, out);
        match luna.optimize(&plan) {
            Ok(optimized) => {
                for note in &optimized.notes {
                    out.push_str(&format!("  note: {note}\n"));
                }
                let analysis = luna.analyze(&optimized.plan);
                render_plan("optimized", luna, &optimized.plan, &analysis, out);
            }
            Err(e) => out.push_str(&format!("  optimize failed: {e}\n")),
        }
    }
}

/// The `cargo xtask lint --plans` fixture, analyzed under default knobs,
/// then again by Lunas over the same stores with a micro-batch width of 4
/// and the standard reliability policy, with and without pushdown.
fn render_analysis() -> String {
    let fixture = Bench18::build(Bench18Cfg {
        n_ntsb: 14,
        n_earnings: 12,
        cost_analysis: CostAnalysis::Analyze,
        ..Default::default()
    })
    .expect("fixture builds");
    let mut out = String::from("== default knobs\n");
    render_questions(&fixture.luna, &fixture.questions, &mut out);
    let ctx = fixture.luna.context().clone();
    ctx.set_batch(4, 2048);
    let guarded = |optimizer: OptimizerCfg| {
        let cfg = LunaConfig {
            sim: SimConfig::with_seed(42),
            cost_analysis: CostAnalysis::Analyze,
            reliability: Some(ReliabilityPolicy::standard()),
            optimizer,
            ..LunaConfig::default()
        };
        Luna::new(ctx.clone(), &["ntsb", "earnings"], cfg).expect("guarded Luna builds")
    };
    out.push_str("== batch 4, standard reliability\n");
    render_questions(&guarded(OptimizerCfg::default()), &fixture.questions, &mut out);
    // Without pushdown the semantic operators survive optimization, so
    // model routing, batching and degradation notes show too.
    out.push_str("== batch 4, standard reliability, no pushdown\n");
    let no_pushdown = OptimizerCfg { pushdown: false, ..OptimizerCfg::default() };
    render_questions(&guarded(no_pushdown), &fixture.questions, &mut out);
    out
}

/// `golden/bench18_analysis.golden` was written by this same
/// `render_analysis`. A refactor of the per-operator facts must reproduce it
/// byte for byte.
#[test]
fn bench18_static_analysis_matches_the_golden_file() {
    let got = render_analysis();
    let want = include_str!("golden/bench18_analysis.golden");
    for (n, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(g, w, "golden line {}", n + 1);
    }
    assert_eq!(got.lines().count(), want.lines().count());
}
