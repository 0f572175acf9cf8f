//! E16 — per-query LLM cost vs. corpus size, optimizer on/off.
//!
//! The paper's economics (§5, §6.1): "operations involving vision models or
//! LLMs are quite expensive, and can't always be run at ETL time" — so the
//! optimizer's job is to keep the *per-query* LLM spend from scaling with
//! the corpus. With pushdown, a count query touches only extracted fields
//! (O(1) LLM calls per query); without it, every document gets a semantic
//! filter call (O(n)).
//!
//! Run with: `cargo bench -p bench --bench query_cost_scaling`

use aryn::aryn_docgen::Corpus;
use aryn::luna::{ingest_lake, ntsb_schema, Luna, LunaConfig, OptimizerCfg};
use aryn::prelude::*;
use std::sync::Arc;

fn main() {
    println!("E16: Luna per-query LLM calls and cost vs corpus size\n");
    println!(
        "{:>6} {:>22} {:>22} {:>14}",
        "docs", "no pushdown (calls/$)", "pushdown (calls/$)", "ETL cost ($)"
    );
    let question = "How many incidents were caused by engine failure?";
    for n in [25usize, 50, 100, 200] {
        let seed = 42;
        let ctx = Context::new();
        let corpus = Corpus::ntsb(seed, n);
        ctx.register_corpus("ntsb", &corpus);
        let ingest_client =
            LlmClient::new(Arc::new(MockLlm::new(&GPT4_SIM, SimConfig::with_seed(seed))));
        ingest_lake(&ctx, "ntsb", "ntsb", &ingest_client, ntsb_schema(), Detector::DetrSim)
            .unwrap();
        let etl_cost = ingest_client.stats().usage.cost_usd;
        let luna = Luna::new(
            ctx,
            &["ntsb"],
            LunaConfig {
                sim: SimConfig::with_seed(seed),
                ..LunaConfig::default()
            },
        )
        .unwrap();
        let plan = luna.plan(question).unwrap();
        // No pushdown: the raw semantic plan.
        let raw = luna.execute(&plan).unwrap();
        // Full optimizer.
        let opt_cfg = OptimizerCfg::default();
        let optimized =
            aryn::luna::optimize(&plan, luna.schemas(), &opt_cfg, &luna.cost_knobs()).unwrap();
        let opt = luna.execute(&optimized.plan).unwrap();
        println!(
            "{:>6} {:>14} / {:<6.4} {:>14} / {:<6.4} {:>14.4}",
            n,
            raw.llm().calls,
            raw.llm().usage.cost_usd,
            opt.llm().calls,
            opt.llm().usage.cost_usd,
            etl_cost
        );
    }
    println!(
        "\nexpected shape: unoptimized query cost grows linearly with the corpus\n\
         (one semantic call per document); optimized queries touch extracted\n\
         fields and stay flat. The one-time ETL cost amortizes across queries\n\
         — the paper's argument for moving LLM work to ingestion when the\n\
         query workload allows it (§5)."
    );
}
