//! Acceptance test for the telemetry subsystem: every `Luna::ask` and every
//! `collect_stats` run yields a JSON-exportable trace whose spans are
//! non-empty, internally consistent with the execution stats, and
//! deterministic per seed (paper §6: full traceability of each answer).

use aryn::prelude::*;
use aryn_core::Value;
use std::sync::Arc;

fn build_luna(seed: u64) -> Luna {
    let ctx = Context::new();
    let corpus = Corpus::ntsb(seed, 16);
    ctx.register_corpus("ntsb", &corpus);
    let client = LlmClient::new(Arc::new(MockLlm::new(&GPT4_SIM, SimConfig::with_seed(seed))));
    ingest_lake(&ctx, "ntsb", "ntsb", &client, luna::ntsb_schema(), Detector::DetrSim).unwrap();
    Luna::new(
        ctx,
        &["ntsb"],
        LunaConfig {
            sim: SimConfig::with_seed(seed),
            ..LunaConfig::default()
        },
    )
    .unwrap()
}

#[test]
fn every_answer_carries_a_consistent_trace() {
    let luna = build_luna(41);
    let ans = luna
        .ask("How many incidents were caused by environmental factors?")
        .unwrap();

    let trace = &ans.trace;
    assert!(!trace.spans.is_empty(), "ask() must record spans");
    // The three layers all reported in: planner, optimizer, operators.
    assert!(!trace.spans_of_kind("planner").is_empty());
    assert!(!trace.spans_of_kind("optimizer").is_empty());
    let operators = trace.spans_of_kind("operator");
    assert_eq!(
        operators.len(),
        ans.result.traces.len(),
        "one operator span per executed plan node"
    );

    // Span counters must agree with the executor's own NodeTrace bookkeeping.
    assert_eq!(
        trace.total_for_kind("operator", "llm_calls"),
        ans.result.llm().calls
    );
    assert_eq!(
        trace.total_for_kind("operator", "llm_input_tokens")
            + trace.total_for_kind("operator", "llm_output_tokens"),
        ans.result.llm().usage.tokens()
    );
    assert_eq!(
        trace.total_for_kind("operator", "retries"),
        ans.result.llm().retries
    );
    for (span, nt) in operators.iter().zip(&ans.result.traces) {
        assert_eq!(span.counter("rows_in"), nt.rows_in as u64);
        assert_eq!(span.counter("rows_out"), nt.rows_out as u64);
        assert_eq!(span.counter("llm_calls"), nt.llm.calls);
    }
}

#[test]
fn traces_are_json_exportable() {
    let luna = build_luna(42);
    let ans = luna.ask("How many incidents happened in Alaska?").unwrap();
    let json = ans.trace.to_json();
    let parsed = aryn_core::json::parse(&json).expect("trace JSON must parse");
    let spans = parsed.get("spans").and_then(Value::as_array).unwrap();
    assert_eq!(spans.len(), ans.trace.spans.len());
    for s in spans {
        assert!(s.get("name").and_then(Value::as_str).is_some());
        assert!(s.get("kind").and_then(Value::as_str).is_some());
    }
    assert!(
        parsed.get("fingerprint").is_some(),
        "export embeds the deterministic fingerprint"
    );
}

#[test]
fn traces_are_deterministic_per_seed() {
    let run = || {
        let luna = build_luna(43);
        let ans = luna
            .ask("How many incidents were weather related?")
            .unwrap();
        (ans.trace.fingerprint(), ans.answer().to_string())
    };
    let (fp_a, ans_a) = run();
    let (fp_b, ans_b) = run();
    assert_eq!(ans_a, ans_b);
    assert_eq!(fp_a, fp_b, "same seed must fingerprint identically");
}

#[test]
fn explain_analyze_renders_the_full_story() {
    let luna = build_luna(44);
    let ans = luna
        .ask("How many incidents were caused by environmental factors?")
        .unwrap();
    let report = ans.explain_analyze();
    for needle in ["EXPLAIN ANALYZE", "rows:", "planner", "fingerprint"] {
        assert!(report.contains(needle), "missing {needle:?} in:\n{report}");
    }
    // Every executed node appears by id.
    for t in &ans.result.traces {
        assert!(
            report.contains(&format!("out_{}", t.node_id)),
            "node out_{} missing from explain_analyze",
            t.node_id
        );
    }
}

#[test]
fn worker_gauges_are_exact_under_parallel_execution() {
    // S4 of the morsel-executor PR: per-worker utilization gauges used to be
    // sampled racily; now each worker publishes an exact private shard at
    // stage finalize, so the gauges must be internally consistent — docs sum
    // to rows_in, the critical path is the longest worker's busy time and
    // never exceeds the stage wall time, and steals never exceed morsels.
    let seed = 46;
    let ctx = Context::new();
    let corpus = Corpus::ntsb(seed, 16);
    ctx.register_corpus("ntsb", &corpus);
    // Parallel ingest *and* parallel question execution.
    ctx.set_parallelism(4, 2, StealPolicy::Ring);
    let client = LlmClient::new(Arc::new(MockLlm::new(&GPT4_SIM, SimConfig::with_seed(seed))));
    ingest_lake(&ctx, "ntsb", "ntsb", &client, luna::ntsb_schema(), Detector::DetrSim).unwrap();
    let luna = Luna::new(
        ctx,
        &["ntsb"],
        LunaConfig {
            sim: SimConfig::with_seed(seed),
            exec_workers: 4,
            exec_morsel_size: 2,
            ..LunaConfig::default()
        },
    )
    .unwrap();
    // A question whose semantic filter cannot be pushed down to a structured
    // one, so the engine runs a real docset pipeline (and hence
    // morsel-parallel stage spans) while answering it.
    let ans = luna
        .ask("How many incidents were caused by a distracted mechanic?")
        .unwrap();

    let trace = luna.telemetry().snapshot();
    let mut parallel_stages = 0;
    for span in trace.spans_of_kind("stage") {
        let workers = span.gauge("workers") as usize;
        if workers == 0 {
            continue; // barrier/batched stages carry no worker gauges
        }
        if workers > 1 {
            parallel_stages += 1;
        }
        let docs_sum: u64 = (0..workers)
            .map(|w| span.gauge(&format!("worker_{w}_docs")) as u64)
            .sum();
        assert_eq!(
            docs_sum,
            span.counter("rows_in"),
            "stage {}: worker docs must sum to rows_in",
            span.name
        );
        let wall = span.gauge("wall_ms");
        let cp = span.gauge("critical_path_ms");
        let max_busy = (0..workers)
            .map(|w| span.gauge(&format!("worker_{w}_busy_ms")))
            .fold(0.0f64, f64::max);
        assert!(
            (cp - max_busy).abs() < 1e-9,
            "stage {}: critical path must be the longest worker busy time \
             ({cp} vs {max_busy})",
            span.name
        );
        // CPU busy time cannot exceed elapsed wall time (small slack for
        // clock granularity on very short stages).
        assert!(
            cp <= wall + 1.0,
            "stage {}: critical path {cp}ms exceeds wall {wall}ms",
            span.name
        );
        for w in 0..workers {
            let frac = span.gauge(&format!("worker_{w}_busy_frac"));
            assert!(frac.is_finite() && frac >= 0.0, "stage {}: bad busy_frac {frac}", span.name);
            if wall > 0.0 {
                let busy = span.gauge(&format!("worker_{w}_busy_ms"));
                assert!(
                    (frac - busy / wall).abs() < 1e-9,
                    "stage {}: busy_frac must be busy_ms / wall_ms",
                    span.name
                );
            }
        }
        assert!(
            span.gauge("steals") <= span.gauge("morsels"),
            "stage {}: every steal is a morsel",
            span.name
        );
    }
    assert!(
        parallel_stages > 0,
        "expected at least one morsel-parallel stage in the trace"
    );
    // Luna recorded the execution mode it ran the question under.
    let modes = trace.spans_of_kind("executor");
    assert!(
        modes
            .iter()
            .any(|s| s.name == "exec_mode" && s.gauge("workers") == 4.0),
        "exec_mode span with the configured worker count must be present"
    );
    // And explain_analyze folds the morsel summary into its engine line.
    let report = ans.explain_analyze();
    assert!(
        report.contains("engine stages:"),
        "engine line missing from:\n{report}"
    );
    assert!(
        report.contains("workers") && report.contains("morsels"),
        "parallel run must render the worker/morsel summary:\n{report}"
    );
}

#[test]
fn ingest_records_partitioner_spans() {
    let luna = build_luna(45);
    // The shared collector kept the ingest-time spans: partitioner timings
    // and engine stage spans live alongside question-time spans.
    let full = luna.telemetry().snapshot();
    let parts = full.spans_of_kind("partitioner");
    assert_eq!(parts.len(), 16, "one partition_doc span per ingested doc");
    for p in &parts {
        assert!(p.counter("elements") > 0);
        assert!(p.gauge("detect_ms") >= 0.0);
    }
    assert!(!full.spans_of_kind("stage").is_empty(), "engine stages recorded");
}
