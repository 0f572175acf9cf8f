//! End-to-end Luna tests: ingest → plan → optimize → execute → explain.

use aryn_core::Value;
use aryn_docgen::Corpus;
use aryn_llm::{LlmClient, MockLlm, SimConfig};
use luna::{ingest_lake, ntsb_schema, Luna, LunaConfig, Plan, PlanOp};
use std::sync::Arc;
use sycamore::Context;

fn fixture(n: usize, sim: SimConfig) -> (Luna, Corpus) {
    let ctx = Context::new();
    let corpus = Corpus::ntsb(7, n);
    ctx.register_corpus("ntsb", &corpus);
    let client = LlmClient::new(Arc::new(MockLlm::new(&aryn_llm::GPT4_SIM, sim.clone())));
    ingest_lake(
        &ctx,
        "ntsb",
        "ntsb",
        &client,
        ntsb_schema(),
        aryn_partitioner::Detector::DetrSim,
    )
    .unwrap();
    let luna = Luna::new(ctx, &["ntsb"], LunaConfig { sim, ..LunaConfig::default() }).unwrap();
    (luna, corpus)
}

#[test]
fn figure5_question_end_to_end() {
    let (luna, corpus) = fixture(30, SimConfig::perfect(3));
    let ans = luna
        .ask("What percent of environmentally caused incidents were due to wind?")
        .unwrap();
    // Ground truth percentage.
    let wind = corpus
        .docs
        .iter()
        .filter(|d| d.record.get("cause_detail").and_then(Value::as_str) == Some("wind"))
        .count() as f64;
    let env = corpus
        .docs
        .iter()
        .filter(|d| d.record.get("weather_related").and_then(Value::as_bool) == Some(true))
        .count() as f64;
    let want = 100.0 * wind / env;
    let got = aryn_llm::semantics::first_number(ans.answer()).expect("numeric answer");
    assert!((got - want).abs() < 1e-6, "got {got}, want {want}");
    // The plan has the Figure 5 shape and the trace covers every node.
    let kinds: Vec<String> = ans.plan.nodes.iter().map(|n| n.op.kind().to_string()).collect();
    assert_eq!(kinds[0], "queryDatabase");
    assert!(kinds.iter().filter(|k| *k == "count").count() == 2);
    assert_eq!(ans.result.traces.len(), ans.optimized_plan.nodes.len());
    // Explain renders all the views.
    let explain = ans.explain();
    assert!(explain.contains("context.read.opensearch"));
    assert!(explain.contains("Execution trace"));
}

#[test]
fn optimizer_pushdown_reduces_llm_calls() {
    let (luna, _) = fixture(25, SimConfig::perfect(5));
    let plan = luna.plan("How many incidents occurred in Alaska?").unwrap();
    // Unoptimized: semantic filter over every document.
    let unopt = luna.execute(&plan).unwrap();
    // Optimized: pushed down to a structured filter; no per-row LLM calls.
    let optimized = luna.optimize(&plan).unwrap();
    assert!(optimized.notes.iter().any(|n| n.contains("pushed down")), "{:?}", optimized.notes);
    let opt = luna.execute(&optimized.plan).unwrap();
    assert!(opt.llm().calls < unopt.llm().calls);
    assert!(opt.llm().usage.cost_usd < unopt.llm().usage.cost_usd);
    // The structured filter is also *more accurate*: the documents never
    // spell out "Alaska", so the semantic filter under-matches, while the
    // pushed-down filter reads the extracted property.
    let opt_n = aryn_llm::semantics::first_number(&opt.answer).unwrap();
    let unopt_n = aryn_llm::semantics::first_number(&unopt.answer).unwrap();
    assert!(opt_n >= unopt_n, "opt {opt_n} unopt {unopt_n}");
}

#[test]
fn human_in_the_loop_plan_editing() {
    let (luna, corpus) = fixture(25, SimConfig::perfect(9));
    // Plan asks for wind; the analyst edits the predicate to fog.
    let mut plan = luna.plan("How many incidents were caused by wind?").unwrap();
    let edited: Vec<usize> = plan
        .nodes
        .iter()
        .filter(|n| matches!(&n.op, PlanOp::LlmFilter { .. }))
        .map(|n| n.id)
        .collect();
    for id in edited {
        if let Some(n) = plan.node_mut(id) {
            n.op = PlanOp::LlmFilter {
                predicate: "caused by fog".into(),
                model: String::new(),
            };
        }
    }
    let result = luna.execute_edited(&plan).unwrap();
    let fog = corpus
        .docs
        .iter()
        .filter(|d| d.record.get("cause_detail").and_then(Value::as_str) == Some("fog"))
        .count() as i64;
    assert_eq!(
        aryn_llm::semantics::first_number(&result.answer).map(|n| n as i64),
        Some(fog)
    );
    // Invalid edits are rejected before execution.
    let mut broken = luna.plan("How many incidents were caused by wind?").unwrap();
    broken.nodes[1].inputs = vec![99];
    assert!(luna.execute_edited(&broken).is_err());
}

#[test]
fn traces_expose_per_operator_history() {
    let (luna, _) = fixture(20, SimConfig::perfect(11));
    let ans = luna
        .ask("How many incidents were caused by engine failure?")
        .unwrap();
    let trace = &ans.result.traces;
    // The scan reads all docs; the filter narrows; the count is scalar.
    assert_eq!(trace[0].op_kind, "queryDatabase");
    assert_eq!(trace[0].rows_out, 20);
    let count_trace = trace.iter().find(|t| t.op_kind == "count").unwrap();
    assert!(count_trace.scalar.is_some());
    let filter_trace = trace
        .iter()
        .find(|t| t.op_kind.contains("Filter") || t.op_kind.contains("filter"))
        .unwrap();
    assert!(filter_trace.rows_out <= filter_trace.rows_in);
    assert!(!filter_trace.sample_ids.is_empty() || filter_trace.rows_out == 0);
}

#[test]
fn schema_discovery_drives_planner_fields() {
    let (luna, _) = fixture(15, SimConfig::perfect(13));
    let schema = &luna.schemas()[0];
    assert_eq!(schema.index, "ntsb");
    assert!(schema.field("us_state_abbrev").is_some());
    assert!(schema.field("cause_detail").is_some());
    // The discovered schema resolves planner mentions.
    assert_eq!(schema.resolve_field("state").unwrap().path, "us_state_abbrev");
}

#[test]
fn plan_json_round_trips_through_files() {
    let (luna, _) = fixture(10, SimConfig::perfect(17));
    let plan = luna
        .plan("What percent of environmentally caused incidents were due to wind?")
        .unwrap();
    let text = aryn_core::json::to_string_pretty(&plan.to_value());
    let back = Plan::parse(&text).unwrap();
    assert_eq!(back, plan);
}

#[test]
fn noisy_models_still_answer_with_bounded_degradation() {
    // Under the default (noisy) sim, Luna still returns plans and answers;
    // counts are close to truth thanks to pushdown onto extracted fields.
    let (luna, corpus) = fixture(30, SimConfig::with_seed(23));
    let ans = luna.ask("How many incidents involved fatalities?").unwrap();
    let truth = corpus
        .docs
        .iter()
        .filter(|d| d.record.get("fatal").and_then(Value::as_int).unwrap_or(0) > 0)
        .count() as f64;
    let got = aryn_llm::semantics::first_number(ans.answer()).unwrap();
    assert!((got - truth).abs() <= 3.0, "got {got}, truth {truth}");
}

#[test]
fn query_time_extraction_end_to_end() {
    // "phase" is deliberately not in the ingestion schema; Luna extracts it
    // at query time (the Figure 5 dynamic-extraction pattern) and still
    // finds the corpus's most common flight phase.
    let ctx = Context::new();
    let corpus = Corpus::ntsb(19, 25);
    ctx.register_corpus("ntsb", &corpus);
    let client = LlmClient::new(Arc::new(MockLlm::new(&aryn_llm::GPT4_SIM, SimConfig::perfect(19))));
    // Schema without "phase".
    let schema = aryn_core::obj! { "us_state_abbrev" => "string", "cause_detail" => "string" };
    ingest_lake(&ctx, "ntsb", "ntsb", &client, schema, aryn_partitioner::Detector::DetrSim).unwrap();
    let luna = Luna::new(
        ctx,
        &["ntsb"],
        LunaConfig {
            sim: SimConfig::perfect(19),
            ..LunaConfig::default()
        },
    )
    .unwrap();
    let ans = luna.ask("What was the most common phase of incidents?").unwrap();
    // Ground truth: modal phase from the records.
    let mut counts: std::collections::BTreeMap<String, usize> = Default::default();
    for d in &corpus.docs {
        let p = d.record.get("phase").and_then(Value::as_str).unwrap().to_string();
        *counts.entry(p).or_default() += 1;
    }
    let top = counts.iter().max_by_key(|(_, c)| **c).map(|(p, _)| p.clone()).unwrap();
    assert!(
        ans.answer().to_lowercase().contains(&top),
        "answer {:?} should name the modal phase {top:?}",
        ans.answer()
    );
    // The trace shows the extraction step doing per-row LLM work.
    let extract_trace = ans
        .result
        .traces
        .iter()
        .find(|t| t.op_kind == "llmExtract")
        .expect("extraction executed");
    assert_eq!(extract_trace.rows_in, 25);
    assert!(extract_trace.llm.calls >= 25);
}

#[test]
fn data_integration_pattern_with_knowledge_graph() {
    // The §1 motivating question: "list the fastest growing companies in
    // the BNPL market and their competitors, where the competitive
    // information may involve a lookup in a database" — here the lookup is
    // the pay-as-you-go knowledge graph built from extracted properties.
    let ctx = Context::new();
    let corpus = Corpus::earnings(42, 40);
    ctx.register_corpus("earnings", &corpus);
    let client = LlmClient::new(Arc::new(MockLlm::new(&aryn_llm::GPT4_SIM, SimConfig::perfect(42))));
    luna::ingest_lake(
        &ctx,
        "earnings",
        "earnings",
        &client,
        luna::earnings_schema(),
        aryn_partitioner::Detector::DetrSim,
    )
    .unwrap();
    let luna = Luna::new(
        ctx,
        &["earnings"],
        LunaConfig {
            sim: SimConfig::perfect(42),
            ..LunaConfig::default()
        },
    )
    .unwrap();
    // The graph exists and has company/sector structure.
    let graph = luna.graph().expect("graph built at construction");
    assert!(graph.nodes_with_label("company").len() >= 10);
    assert!(graph.nodes_with_label("sector").len() >= 3);

    let ans = luna
        .ask("List the fastest growing companies in the AI market and their competitors")
        .unwrap();
    // The plan carries the graph-expansion node and the code renders it.
    assert!(ans
        .optimized_plan
        .nodes
        .iter()
        .any(|n| n.op.kind() == "graphExpand"));
    assert!(luna::codegen::to_python(&ans.optimized_plan).contains("graph_expand"));
    // The expansion's trace rows carry a competitors property drawn from the
    // graph, verified against the extracted sectors.
    let expand_trace = ans
        .result
        .traces
        .iter()
        .find(|t| t.op_kind == "graphExpand")
        .expect("expansion executed");
    assert!(expand_trace.rows_out >= 1);
    // Ground-truth: every top AI company's competitors are the other AI
    // companies in the store.
    let store_sectors: std::collections::BTreeMap<String, String> = luna
        .context()
        .with_store("earnings", |s| {
            s.scan()
                .filter_map(|d| {
                    Some((
                        d.prop("company")?.as_str()?.to_string(),
                        d.prop("sector")?.as_str()?.to_string(),
                    ))
                })
                .collect()
        })
        .unwrap();
    for (company, sector) in store_sectors.iter().filter(|(_, s)| *s == "AI").take(2) {
        let comp = luna::competitors_of(graph, company);
        assert!(
            comp.iter().all(|c| store_sectors.get(&c.id) == Some(sector)),
            "competitors of {company} must share its sector"
        );
    }
}

#[test]
fn unoptimized_plan_renders_figure6_verbatim() {
    // The planner's raw output (before pushdown) renders exactly the
    // paper's Figure 6 code shape, semantic filters and all.
    let (luna, _) = fixture(5, SimConfig::perfect(29));
    let plan = luna
        .plan("What percent of environmentally caused incidents were due to wind?")
        .unwrap();
    let code = luna::codegen::to_python(&plan);
    let expected = "\
out_0 = context.read.opensearch(index_name=\"ntsb\")
out_1 = out_0.filter(\"caused by environmental factors\")
out_2 = out_1.count()
out_3 = out_0.filter(\"caused by wind\")
out_4 = out_3.count()
out_5 = math_operation(expr=\"100 * {out_4} / {out_2}\")
result = out_5
";
    assert_eq!(code, expected);
}

/// Larger-scale end-to-end smoke: 400 documents through the full pipeline
/// and a battery of questions. Ignored by default (several seconds).
#[test]
#[ignore]
fn stress_four_hundred_documents() {
    let ctx = Context::new();
    let corpus = Corpus::ntsb(99, 400);
    ctx.register_corpus("ntsb", &corpus);
    let client = LlmClient::new(Arc::new(MockLlm::new(&aryn_llm::GPT4_SIM, SimConfig::with_seed(99))));
    let n = ingest_lake(
        &ctx,
        "ntsb",
        "ntsb",
        &client,
        ntsb_schema(),
        aryn_partitioner::Detector::DetrSim,
    )
    .unwrap();
    assert_eq!(n, 400);
    let luna = Luna::new(
        ctx,
        &["ntsb"],
        LunaConfig {
            sim: SimConfig::with_seed(99),
            ..LunaConfig::default()
        },
    )
    .unwrap();
    for q in [
        "How many incidents were caused by wind?",
        "Which state had the most incidents?",
        "What percent of environmentally caused incidents were due to wind?",
        "What was the average fatal injuries per incident?",
    ] {
        let ans = luna.ask(q).unwrap();
        assert!(!ans.answer().is_empty(), "{q}");
    }
    // Counts stay near truth even at this scale (extraction error is
    // per-field ~0.5%, so ±4 on 400 docs).
    let truth = corpus
        .docs
        .iter()
        .filter(|d| d.record.get("cause_detail").and_then(Value::as_str) == Some("wind"))
        .count() as f64;
    let got = aryn_llm::semantics::first_number(
        luna.ask("How many incidents were caused by wind?").unwrap().answer(),
    )
    .unwrap();
    assert!((got - truth).abs() <= 5.0, "got {got}, truth {truth}");
}

#[test]
fn section1_motivating_question_verbatim() {
    // "What is yearly revenue growth and outlook of companies whose CEO
    // recently changed?" — the paper's §1 example, end to end.
    let ctx = Context::new();
    let corpus = Corpus::earnings(42, 36);
    ctx.register_corpus("earnings", &corpus);
    let client = LlmClient::new(Arc::new(MockLlm::new(&aryn_llm::GPT4_SIM, SimConfig::perfect(42))));
    luna::ingest_lake(
        &ctx,
        "earnings",
        "earnings",
        &client,
        luna::earnings_schema(),
        aryn_partitioner::Detector::DetrSim,
    )
    .unwrap();
    let luna = Luna::new(
        ctx,
        &["earnings"],
        LunaConfig {
            sim: SimConfig::perfect(42),
            ..LunaConfig::default()
        },
    )
    .unwrap();
    let ans = luna
        .ask("What is the yearly revenue growth and sentiment of companies whose CEO recently changed?")
        .unwrap();
    // The plan filters on the CEO change (pushed down) and the answer names
    // every changed-CEO company with its growth figure and sentiment.
    assert!(ans
        .optimizer_notes
        .iter()
        .any(|n| n.contains("ceo_changed")), "{:?}", ans.optimizer_notes);
    let changed: Vec<String> = corpus
        .docs
        .iter()
        .filter(|d| d.record.get("ceo_changed").and_then(Value::as_bool) == Some(true))
        .filter_map(|d| d.record.get("company").and_then(Value::as_str).map(str::to_string))
        .collect();
    assert!(!changed.is_empty());
    let named = changed
        .iter()
        .filter(|c| ans.answer().contains(c.as_str()))
        .count();
    assert!(
        named * 10 >= changed.len() * 7,
        "answer names {named}/{} changed-CEO companies: {}",
        changed.len(),
        ans.answer()
    );
    assert!(ans.answer().contains("growth_pct"), "{}", ans.answer());
    assert!(ans.answer().contains("sentiment"), "{}", ans.answer());
}

#[test]
fn schema_evolves_with_new_extractions() {
    // §6.1: "The schema can evolve over time, based on new semantic
    // relationships discovered in the data." Ingest with a narrow schema,
    // then enrich the store with a new extracted field; re-discovery picks
    // it up and the planner immediately uses it for structured aggregation.
    let ctx = Context::new();
    let corpus = Corpus::ntsb(3, 15);
    ctx.register_corpus("ntsb", &corpus);
    let client = LlmClient::new(Arc::new(MockLlm::new(&aryn_llm::GPT4_SIM, SimConfig::perfect(3))));
    // Narrow first pass: no "phase".
    ingest_lake(
        &ctx,
        "ntsb",
        "ntsb",
        &client,
        aryn_core::obj! { "us_state_abbrev" => "string" },
        aryn_partitioner::Detector::DetrSim,
    )
    .unwrap();
    let luna1 = Luna::new(
        ctx.clone(),
        &["ntsb"],
        LunaConfig { sim: SimConfig::perfect(3), ..LunaConfig::default() },
    )
    .unwrap();
    assert!(luna1.schemas()[0].field("phase").is_none());
    // The planner compensates with query-time extraction...
    let p1 = luna1.plan("What was the most common phase of incidents?").unwrap();
    assert!(p1.nodes.iter().any(|n| n.op.kind() == "llmExtract"));

    // Second ETL pass enriches the store with the phase field.
    ctx.read_store("ntsb")
        .unwrap()
        .extract_properties(&client, aryn_core::obj! { "phase" => "string" })
        .write_store("ntsb")
        .unwrap();
    let luna2 = Luna::new(
        ctx,
        &["ntsb"],
        LunaConfig { sim: SimConfig::perfect(3), ..LunaConfig::default() },
    )
    .unwrap();
    let phase_field = luna2.schemas()[0].field("phase").expect("schema evolved");
    assert!(phase_field.count >= 13);
    // ...and the evolved schema removes the query-time extraction step.
    let p2 = luna2.plan("What was the most common phase of incidents?").unwrap();
    assert!(
        !p2.nodes.iter().any(|n| n.op.kind() == "llmExtract"),
        "{:?}",
        p2.describe()
    );
}

/// Regression: the planner consults the index schema on every question and
/// every `QueryDatabase` execution; the store maintains its schema
/// incrementally on every put/delete, so no amount of discovery or
/// execution ever triggers a corpus rescan.
#[test]
fn repeated_queries_reuse_cached_index_schema() {
    let ctx = Context::new();
    let corpus = Corpus::ntsb(7, 12);
    ctx.register_corpus("ntsb", &corpus);
    let client = LlmClient::new(Arc::new(MockLlm::new(&aryn_llm::GPT4_SIM, SimConfig::perfect(7))));
    ingest_lake(
        &ctx,
        "ntsb",
        "ntsb",
        &client,
        ntsb_schema(),
        aryn_partitioner::Detector::DetrSim,
    )
    .unwrap();
    let luna = Luna::new(
        ctx.clone(),
        &["ntsb"],
        LunaConfig { sim: SimConfig::perfect(7), ..LunaConfig::default() },
    )
    .unwrap();
    let after_build = ctx.with_store("ntsb", |s| s.schema_scan_count()).unwrap();
    assert_eq!(after_build, 0, "incremental schema maintenance never rescans");
    for _ in 0..3 {
        luna.ask("How many incidents were caused by environmental factors?").unwrap();
        luna.plan("Which incidents were fatal?").unwrap();
    }
    assert_eq!(
        ctx.with_store("ntsb", |s| s.schema_scan_count()).unwrap(),
        after_build,
        "repeated planning and execution must reuse the cached schema"
    );
}

/// Micro-batching is answer-preserving end to end: a Luna with
/// `batch_max_items > 1` returns the same answer as an unbatched one while
/// issuing fewer LLM calls, and the savings surface in `explain_analyze`.
#[test]
fn micro_batched_queries_answer_identically_and_save_calls() {
    // Pushdown is disabled so the planner's llmFilter survives to execution
    // (otherwise it becomes a structured filter and nothing batches).
    let build = |batch: usize| {
        let ctx = Context::new();
        let corpus = Corpus::ntsb(7, 24);
        ctx.register_corpus("ntsb", &corpus);
        let client =
            LlmClient::new(Arc::new(MockLlm::new(&aryn_llm::GPT4_SIM, SimConfig::perfect(7))));
        ingest_lake(
            &ctx,
            "ntsb",
            "ntsb",
            &client,
            ntsb_schema(),
            aryn_partitioner::Detector::DetrSim,
        )
        .unwrap();
        Luna::new(
            ctx,
            &["ntsb"],
            LunaConfig {
                sim: SimConfig::perfect(7),
                batch_max_items: batch,
                batch_token_budget: 1 << 20,
                optimizer: luna::OptimizerCfg { pushdown: false, ..Default::default() },
                ..LunaConfig::default()
            },
        )
        .unwrap()
    };
    let q = "How many incidents were caused by environmental factors?";
    let base = build(1).ask(q).unwrap();
    let ans = build(8).ask(q).unwrap();

    assert_eq!(ans.answer(), base.answer(), "batching changed the answer");
    assert_eq!(base.result.llm().batched_calls, 0);
    assert!(ans.result.llm().batched_calls > 0, "llmFilter must have batched");
    assert!(ans.result.llm().calls_saved > 0);
    assert!(
        ans.result.llm().calls < base.result.llm().calls,
        "batched run must issue fewer calls: {} vs {}",
        ans.result.llm().calls,
        base.result.llm().calls
    );
    let explained = ans.explain_analyze();
    assert!(explained.contains("batch:"), "{explained}");
    assert!(explained.contains("calls saved"), "{explained}");
}

#[test]
fn reliability_chain_degrades_under_blackout_without_changing_the_answer() {
    use aryn_llm::{ChaosSchedule, FaultKind, ReliabilityPolicy};
    let build = |reliability: Option<ReliabilityPolicy>, chaos: Option<ChaosSchedule>| {
        let ctx = Context::new();
        ctx.register_corpus("ntsb", &Corpus::ntsb(7, 16));
        let client =
            LlmClient::new(Arc::new(MockLlm::new(&aryn_llm::GPT4_SIM, SimConfig::perfect(7))));
        ingest_lake(
            &ctx,
            "ntsb",
            "ntsb",
            &client,
            ntsb_schema(),
            aryn_partitioner::Detector::DetrSim,
        )
        .unwrap();
        Luna::new(
            ctx,
            &["ntsb"],
            LunaConfig {
                sim: SimConfig::perfect(7),
                reliability,
                chaos,
                // Keep the semantic filter: pushed down it would become a
                // structured predicate with no LLM calls to degrade.
                optimizer: luna::OptimizerCfg { pushdown: false, ..Default::default() },
                ..LunaConfig::default()
            },
        )
        .unwrap()
    };
    let q = "How many incidents were caused by environmental factors?";
    let calm = build(None, None).ask(q).unwrap();

    // Primary endpoint dark for the whole question; generous deadline so
    // only the breaker + degradation ladder are in play.
    let policy = ReliabilityPolicy {
        deadline_ms: 1e9,
        breaker_window: 4,
        breaker_threshold: 0.5,
        breaker_cooldown_ms: 1e12,
        ..ReliabilityPolicy::default()
    };
    let storm = ChaosSchedule::calm().with_window(FaultKind::Blackout, 0, 100_000);
    let luna = build(Some(policy), Some(storm));
    let ans = luna.ask(q).unwrap();

    assert_eq!(ans.answer(), calm.answer(), "degradation changed the answer");
    assert!(ans.result.llm().fallback_calls > 0, "ladder must have been walked");
    assert!(ans.result.llm().degraded_docs > 0, "degraded docs must be flagged");
    assert!(ans.result.llm().breaker_trips >= 1, "breaker must trip under blackout");
    // Degradation is visible end to end: node traces, explain_analyze, and
    // the optimizer's cost notes.
    let analyzed = ans.explain_analyze();
    assert!(analyzed.contains("degraded:"), "{analyzed}");
    assert!(
        ans.optimizer_notes.iter().any(|n| n.contains("degradation ladder")),
        "{:?}",
        ans.optimizer_notes
    );

    // The calm run with the same reliability policy stays undegraded and
    // bit-identical: the layer is inert without faults.
    let quiet = build(Some(policy), None).ask(q).unwrap();
    assert_eq!(quiet.answer(), calm.answer());
    assert_eq!(quiet.result.llm().degraded_docs, 0);
    assert_eq!(quiet.result.llm().fallback_calls, 0);
}
