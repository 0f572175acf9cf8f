//! Invariants over execution statistics and telemetry counters: conservation
//! laws that must hold for every run regardless of thread count or seed.

use aryn::prelude::*;
use aryn_core::Document;
use std::sync::Arc;
use sycamore::ExecStats;

/// partition → extract → embed: no stage filters or fans out, so row counts
/// must be conserved end to end.
fn conserving_pipeline(
    threads: usize,
    fail_rate: f64,
    max_retries: u32,
    skip_failures: bool,
) -> (Context, Vec<Document>, ExecStats) {
    let ctx = Context::new().with_exec(ExecConfig {
        threads,
        fail_rate,
        max_retries,
        skip_failures,
        seed: 42,
        ..ExecConfig::default()
    });
    let corpus = Corpus::ntsb(9, 12);
    ctx.register_corpus("ntsb", &corpus);
    let client = LlmClient::new(Arc::new(MockLlm::new(&GPT4_SIM, SimConfig::perfect(9))));
    let (docs, stats) = ctx
        .read_lake("ntsb")
        .unwrap()
        .partition("ntsb", PartitionCfg::default())
        .extract_properties(&client, obj! { "us_state_abbrev" => "string" })
        .embed()
        .collect_stats()
        .unwrap();
    (ctx, docs, stats)
}

#[test]
fn non_filtering_stages_conserve_rows() {
    let (_ctx, docs, stats) = conserving_pipeline(4, 0.0, 3, false);
    assert_eq!(docs.len(), 12);
    for s in &stats.stages {
        assert_eq!(
            s.rows_out, s.rows_in,
            "stage {} must conserve rows: {} in, {} out",
            s.name, s.rows_in, s.rows_out
        );
    }
}

#[test]
fn zero_fail_rate_means_zero_retries() {
    let (_ctx, _docs, stats) = conserving_pipeline(8, 0.0, 3, false);
    assert_eq!(stats.total_retries(), 0, "{}", stats.render());
    for s in &stats.stages {
        assert_eq!(s.retries, 0, "stage {} retried without failures", s.name);
        assert_eq!(s.failed_docs, 0);
    }
}

#[test]
fn generous_retries_absorb_every_injected_failure() {
    let (_ctx, docs, stats) = conserving_pipeline(4, 0.3, 16, true);
    assert!(stats.total_retries() > 0, "failures must have been injected");
    assert_eq!(
        stats.total_failed_docs(),
        0,
        "16 retries at fail_rate=0.3 must absorb everything: {}",
        stats.render()
    );
    assert_eq!(docs.len(), 12, "no documents lost");
}

#[test]
fn llm_usage_is_attributed_to_the_stage_that_spent_it() {
    let (_ctx, _docs, stats) = conserving_pipeline(1, 0.0, 3, false);
    let extract = stats
        .stages
        .iter()
        .find(|s| s.name.contains("extract_properties"))
        .expect("extract stage present");
    assert!(extract.llm.calls >= 12, "one call per doc: {}", extract.llm.calls);
    assert!(extract.llm.usage.input_tokens > 0);
    assert!(extract.llm.usage.output_tokens > 0);
    assert!(extract.llm.usage.cost_usd > 0.0);
    // Stages with no LLM op spend nothing.
    for s in stats.stages.iter().filter(|s| !s.name.contains("extract")) {
        assert_eq!(s.llm.calls, 0, "stage {} attributed stray LLM calls", s.name);
    }
    assert_eq!(stats.llm().calls, extract.llm.calls);
}

#[test]
fn telemetry_mirrors_exec_stats() {
    let (ctx, _docs, stats) = conserving_pipeline(4, 0.2, 16, true);
    let trace = ctx.telemetry().snapshot();
    assert!(!trace.spans.is_empty());
    assert_eq!(trace.total_for_kind("stage", "rows_in") as usize,
        stats.stages.iter().map(|s| s.rows_in).sum::<usize>());
    assert_eq!(trace.total_for_kind("stage", "rows_out") as usize,
        stats.stages.iter().map(|s| s.rows_out).sum::<usize>());
    assert_eq!(trace.total_for_kind("stage", "retries") as usize, stats.total_retries());
    assert_eq!(trace.total_for_kind("stage", "failed_docs") as usize, stats.total_failed_docs());
    assert_eq!(trace.total_for_kind("stage", "llm_calls"), stats.llm().calls);
    assert_eq!(
        trace.total_for_kind("stage", "llm_input_tokens")
            + trace.total_for_kind("stage", "llm_output_tokens"),
        stats.llm().usage.tokens()
    );
    // The partitioner contributed its own spans under the same collector.
    assert!(!trace.spans_of_kind("partitioner").is_empty());
}

#[test]
fn worker_shards_sum_exactly_to_stage_totals() {
    // The morsel executor gives every worker a private stats shard and merges
    // the shards once at finalize. *Which* worker handled a document is
    // scheduling-dependent; the shard sums are not: for every per-doc stage
    // they must equal the stage totals exactly, at any worker count.
    for threads in [1usize, 2, 4, 8] {
        let (_ctx, _docs, stats) = conserving_pipeline(threads, 0.3, 16, true);
        let mut sharded_stages = 0;
        for s in &stats.stages {
            if s.workers.is_empty() {
                continue; // barrier/batched stages run collection-at-a-time
            }
            sharded_stages += 1;
            assert_eq!(
                s.workers.iter().map(|w| w.docs).sum::<usize>(),
                s.rows_in,
                "threads={threads}, stage {}: worker docs must sum to rows_in",
                s.name
            );
            assert_eq!(
                s.workers.iter().map(|w| w.retries).sum::<usize>(),
                s.retries,
                "threads={threads}, stage {}: worker retries must sum to stage retries",
                s.name
            );
            assert_eq!(
                s.workers.iter().map(|w| w.failed).sum::<usize>(),
                s.failed_docs,
                "threads={threads}, stage {}: worker failures must sum to failed_docs",
                s.name
            );
            for w in &s.workers {
                assert!(
                    w.morsels <= w.docs && (w.docs > 0) == (w.morsels > 0),
                    "threads={threads}, stage {}: every morsel holds a document",
                    s.name
                );
            }
            if threads == 1 {
                // One worker: one shard, ⌈n / size⌉ morsels of at most 32
                // documents, about 4 of them for small inputs.
                let size = 32.min(s.rows_in.div_ceil(4)).max(1);
                assert_eq!(s.workers.len(), 1, "stage {}: one shard", s.name);
                assert_eq!(
                    s.morsels(),
                    s.rows_in.div_ceil(size),
                    "stage {}: morsels",
                    s.name
                );
            }
            let max_busy = s.workers.iter().map(|w| w.busy_ms).fold(0.0f64, f64::max);
            assert!(
                (s.critical_path_ms - max_busy).abs() < 1e-9,
                "threads={threads}, stage {}: critical path is the longest worker",
                s.name
            );
            for f in s.worker_busy_fractions() {
                assert!(f.is_finite() && f >= 0.0, "busy fraction out of range: {f}");
            }
        }
        assert!(sharded_stages > 0, "threads={threads}: no sharded stage observed");
    }
}

#[test]
fn permanently_failed_docs_are_conserved_across_shards() {
    // Starve retries so some documents fail permanently: the per-worker
    // failure tallies must sum to each stage's failed_docs, and every
    // permanently failed document must be missing from the output.
    let (_ctx, docs, stats) = conserving_pipeline(4, 0.5, 1, true);
    assert!(
        stats.total_failed_docs() > 0,
        "fail_rate=0.5 with one retry must drop documents: {}",
        stats.render()
    );
    assert_eq!(
        docs.len() + stats.total_failed_docs(),
        12,
        "dropped + surviving documents must account for every input"
    );
    for s in stats.stages.iter().filter(|s| !s.workers.is_empty()) {
        assert_eq!(
            s.workers.iter().map(|w| w.failed).sum::<usize>(),
            s.failed_docs,
            "stage {}: shard failure sum",
            s.name
        );
    }
}

#[test]
fn client_meter_and_call_cache_agree_with_stage_attribution() {
    // The per-stage LLM numbers are carved out of the shared client meter by
    // snapshot deltas; under the morsel executor those deltas must still add
    // up to exactly what the client and the call cache observed globally.
    use aryn_llm::LlmCallCache;
    let cache = Arc::new(LlmCallCache::with_capacity(256));
    let ctx = Context::new().with_exec(ExecConfig {
        threads: 8,
        seed: 42,
        ..ExecConfig::default()
    });
    let corpus = Corpus::ntsb(9, 12);
    ctx.register_corpus("ntsb", &corpus);
    let client = LlmClient::new(Arc::new(MockLlm::new(&GPT4_SIM, SimConfig::perfect(9))))
        .with_cache(Arc::clone(&cache));
    let run = || {
        ctx.read_lake("ntsb")
            .unwrap()
            .partition("ntsb", PartitionCfg::default())
            .extract_properties(&client, obj! { "us_state_abbrev" => "string" })
            .embed()
            .collect_stats()
            .unwrap()
    };
    let (_docs1, stats1) = run();
    assert_eq!(
        stats1.llm().calls,
        client.stats().calls,
        "stage-attributed calls must equal the client meter"
    );
    assert_eq!(stats1.cache().hits, cache.stats().hits);
    // A second identical run is answered entirely from the call cache: the
    // stage attribution must report the hits and the meter must not move.
    let calls_before = client.stats().calls;
    let (_docs2, stats2) = run();
    assert_eq!(client.stats().calls, calls_before, "second run must be all cache hits");
    assert_eq!(stats2.llm().calls, 0);
    assert!(stats2.cache().hits > 0);
    assert_eq!(
        stats1.cache().hits + stats2.cache().hits,
        cache.stats().hits,
        "per-stage cache-hit attribution must sum to the cache's own meter"
    );
}

#[test]
fn telemetry_totals_are_seed_deterministic() {
    // Two identical runs — and a run at a different thread count — must
    // fingerprint identically: deterministic facts live in counters, timing
    // and scheduling live in gauges, and only counters are fingerprinted.
    let fp = |threads: usize| {
        let (ctx, _docs, _stats) = conserving_pipeline(threads, 0.2, 16, true);
        ctx.telemetry().snapshot().fingerprint()
    };
    let a = fp(4);
    let b = fp(4);
    let c = fp(1);
    assert_eq!(a, b, "same-seed runs must produce identical telemetry totals");
    assert_eq!(a, c, "thread count must not leak into fingerprinted counters");
}

/// One accounting record, three views: on every bench18 question the node
/// records, the operator spans and the client meters tell the same story.
#[test]
fn node_records_operator_spans_and_meters_agree_on_bench18() {
    use luna::bench18::{Bench18, Bench18Cfg};
    let bench = Bench18::build(Bench18Cfg { n_ntsb: 30, n_earnings: 24, ..Bench18Cfg::default() })
        .unwrap();
    let mut answered = 0;
    for q in &bench.questions {
        let before = bench.luna.usage_stats();
        let Ok(ans) = bench.luna.ask(&q.question) else { continue };
        answered += 1;
        let spent = bench.luna.usage_stats().since(&before);
        let nodes = ans.result.llm();
        for (counter, in_nodes) in [
            ("llm_calls", nodes.calls),
            ("llm_input_tokens", nodes.usage.input_tokens as u64),
            ("llm_output_tokens", nodes.usage.output_tokens as u64),
        ] {
            let in_spans = ans.trace.total_for_kind("operator", counter);
            assert_eq!(in_spans, in_nodes, "{}: {counter}", q.question);
        }
        let planner = ans.trace.total_for_kind("planner", "llm_calls");
        assert_eq!(spent.calls - planner, nodes.calls, "{}", q.question);
    }
    assert!(answered >= 15, "only {answered} of 18 questions answered");
}
