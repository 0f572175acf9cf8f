//! The financial-research use case from the paper's §1: analyzing earnings
//! reports — "yearly revenue growth and outlook of companies whose CEO
//! recently changed", fastest-growing companies, sector aggregates — plus a
//! human-in-the-loop plan edit.
//!
//! Run with: `cargo run --example earnings_research`

use aryn::prelude::*;
use luna::{earnings_schema, PlanOp};
use aryn::aryn_core::Document;
use std::sync::Arc;

fn main() -> aryn_core::Result<()> {
    let ctx = Context::new();
    let corpus = Corpus::earnings(42, 48);
    ctx.register_corpus("earnings", &corpus);
    let client = LlmClient::new(Arc::new(MockLlm::new(&GPT4_SIM, SimConfig::with_seed(42))));
    let n = ingest_lake(
        &ctx,
        "earnings",
        "earnings",
        &client,
        earnings_schema(),
        Detector::DetrSim,
    )?;
    println!("ingested {n} earnings reports\n");

    let luna = Luna::new(
        ctx,
        &["earnings"],
        LunaConfig {
            sim: SimConfig::with_seed(42),
            ..LunaConfig::default()
        },
    )?;

    // The discovered schema Luna plans against (§6.1 "Data schema").
    println!("--- discovered schema ---");
    for f in &luna.schemas()[0].fields {
        println!("  {:<16} {:<7} in {}/{} docs", f.path, f.ftype, f.count, luna.schemas()[0].doc_count);
    }

    for q in [
        "List the companies whose CEO recently changed.",
        "What was the average revenue growth of companies in the AI sector?",
        "List the fastest growing companies in the AI market.",
        "How many companies lowered their guidance?",
        // The §1 data-integration pattern: the competitor lookup goes
        // through the pay-as-you-go knowledge graph built from extraction.
        "List the fastest growing companies in the AI market and their competitors",
    ] {
        let ans = luna.ask(q)?;
        println!("\nQ: {q}\nA: {}", ans.answer());
        if !ans.optimizer_notes.is_empty() {
            println!("   (optimizer: {})", ans.optimizer_notes.join("; "));
        }
    }

    // Human-in-the-loop: the analyst inspects a plan and tightens it.
    println!("\n--- human-in-the-loop plan editing ---");
    let mut plan = luna.plan("List the companies whose CEO recently changed.")?;
    println!("planner produced:\n{}", plan.describe());
    // Narrow the question to the AI sector by inserting a structured filter
    // between the scan and the existing filter.
    let scan_id = plan.nodes[0].id;
    let next_id = plan.nodes.iter().map(|n| n.id).max().unwrap_or(0) + 1;
    for node in &mut plan.nodes {
        if node.inputs.contains(&scan_id) {
            node.inputs = vec![next_id];
        }
    }
    plan.nodes.insert(
        1,
        luna::PlanNode {
            id: next_id,
            op: PlanOp::BasicFilter {
                path: "sector".into(),
                value: Value::from("AI"),
            },
            inputs: vec![scan_id],
            description: "analyst edit: only the AI sector".into(),
        },
    );
    let result = luna.execute_edited(&plan)?;
    println!("after edit (AI sector only):\nA: {}", result.answer);
    print!("\n{}", result.render_trace());

    // --- joining with a structured repository (§8 future work) ------------
    // A hand-maintained "data warehouse" table of sector market sizes joins
    // against the extracted earnings data through a hand-authored plan —
    // plans are data, so an analyst can write one directly.
    println!("\n--- join with a structured warehouse table ---");
    let mut warehouse = aryn::aryn_index::DocStore::new();
    for (sector, market_busd) in [
        ("AI", 310.0),
        ("software", 650.0),
        ("semiconductors", 520.0),
        ("retail", 1800.0),
        ("energy", 2400.0),
        ("healthcare", 1500.0),
        ("fintech", 340.0),
        ("logistics", 980.0),
    ] {
        let mut d = Document::new(format!("ref-{sector}"));
        d.set_prop("sector", sector);
        d.set_prop("market_busd", market_busd);
        warehouse.try_put(d).unwrap();
    }
    luna.context().put_store("sector_reference", warehouse);
    let join_plan = luna::Plan {
        nodes: vec![
            luna::PlanNode {
                id: 0,
                op: PlanOp::QueryDatabase { index: "earnings".into(), prefilter: vec![] },
                inputs: vec![],
                description: "extracted earnings reports".into(),
            },
            luna::PlanNode {
                id: 1,
                op: PlanOp::TopK { path: "growth_pct".into(), descending: true, k: 3 },
                inputs: vec![0],
                description: "three fastest-growing reports".into(),
            },
            luna::PlanNode {
                id: 2,
                op: PlanOp::QueryDatabase { index: "sector_reference".into(), prefilter: vec![] },
                inputs: vec![],
                description: "warehouse: sector market sizes".into(),
            },
            luna::PlanNode {
                id: 3,
                op: PlanOp::Join { on: "sector".into() },
                inputs: vec![1, 2],
                description: "attach each company's sector market size".into(),
            },
        ],
        result: 3,
    };
    let joined = luna.execute_edited(&join_plan)?;
    for row in joined.output.rows().unwrap_or(&[]) {
        println!(
            "  {:<22} growth {:>5.1}%  sector {:<14} market ${:.0}B",
            row.prop("company").map(|v| v.display_text()).unwrap_or_default(),
            row.prop("growth_pct").and_then(Value::as_float).unwrap_or(0.0),
            row.prop("sector").map(|v| v.display_text()).unwrap_or_default(),
            row.prop("market_busd").and_then(Value::as_float).unwrap_or(0.0),
        );
    }
    Ok(())
}
