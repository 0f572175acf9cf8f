//! Differential harness for the executor (§5.3): the parallel path must be
//! observationally identical to the sequential one. Same seed, same pipeline,
//! different thread counts → bit-identical documents, element order, lineage,
//! and failure bookkeeping — with and without injected worker failures.

use aryn::prelude::*;
use aryn_core::Document;
use std::sync::Arc;
use sycamore::ExecStats;

/// One representative multi-stage pipeline: partition → LLM extraction →
/// explode → embed. Covers barrier-free per-doc chains, an LLM op, and a
/// row-count-changing op.
fn run_pipeline(threads: usize, fail_rate: f64, skip_failures: bool) -> (Vec<Document>, ExecStats) {
    let ctx = Context::new().with_exec(ExecConfig {
        threads,
        fail_rate,
        max_retries: 10,
        skip_failures,
        seed: 0xD1FF,
        ..ExecConfig::default()
    });
    let corpus = Corpus::ntsb(17, 14);
    ctx.register_corpus("ntsb", &corpus);
    let client = LlmClient::new(Arc::new(MockLlm::new(&GPT4_SIM, SimConfig::with_seed(17))));
    ctx.read_lake("ntsb")
        .unwrap()
        .partition("ntsb", PartitionCfg::default())
        .extract_properties(
            &client,
            obj! { "us_state_abbrev" => "string", "fatal" => "int" },
        )
        .explode()
        .embed()
        .collect_stats()
        .unwrap()
}

fn assert_identical(a: &[Document], b: &[Document], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: document counts differ");
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.id, y.id, "{what}: document order differs");
        assert_eq!(x.lineage, y.lineage, "{what}: lineage differs for {}", x.id.0);
        assert_eq!(
            x.elements.len(),
            y.elements.len(),
            "{what}: element count differs for {}",
            x.id.0
        );
        for (ex, ey) in x.elements.iter().zip(&y.elements) {
            assert_eq!(ex, ey, "{what}: element order/content differs in {}", x.id.0);
        }
    }
    // Full structural equality last: properties, embeddings, tables, text.
    assert_eq!(a, b, "{what}: documents not bit-identical");
}

#[test]
fn serial_and_parallel_agree_without_failures() {
    let (d1, s1) = run_pipeline(1, 0.0, false);
    let (d8, s8) = run_pipeline(8, 0.0, false);
    assert!(!d1.is_empty());
    assert_identical(&d1, &d8, "threads=1 vs threads=8, fail_rate=0");
    assert_eq!(s1.total_retries(), 0);
    assert_eq!(s8.total_retries(), 0);
    assert_eq!(s1.total_failed_docs(), 0);
    assert_eq!(s8.total_failed_docs(), 0);
}

#[test]
fn serial_and_parallel_agree_under_injected_failures() {
    // Failure injection is keyed by (seed, stage, doc, attempt), never by
    // scheduling — so the retry storm itself must replay identically across
    // thread counts.
    let (d1, s1) = run_pipeline(1, 0.25, true);
    let (d8, s8) = run_pipeline(8, 0.25, true);
    assert!(!d1.is_empty());
    assert_identical(&d1, &d8, "threads=1 vs threads=8, fail_rate=0.25");
    assert!(s1.total_retries() > 0, "failures must have been injected");
    assert_eq!(
        s1.total_retries(),
        s8.total_retries(),
        "retry counts are scheduling-independent"
    );
    assert_eq!(s1.total_failed_docs(), s8.total_failed_docs());
    // Per-stage bookkeeping agrees too, not just the totals.
    for (a, b) in s1.stages.iter().zip(&s8.stages) {
        assert_eq!(a.name, b.name);
        assert_eq!((a.rows_in, a.rows_out), (b.rows_in, b.rows_out), "{}", a.name);
        assert_eq!(a.retries, b.retries, "{}", a.name);
        assert_eq!(a.failed_docs, b.failed_docs, "{}", a.name);
        assert_eq!(a.llm.calls, b.llm.calls, "{}", a.name);
    }
}

#[test]
fn fail_stop_mode_is_also_thread_count_independent() {
    // With skip_failures=false and a fail rate that retries can absorb,
    // both executors must still produce identical successful output.
    let (d1, _) = run_pipeline(1, 0.15, false);
    let (d8, _) = run_pipeline(8, 0.15, false);
    assert_identical(&d1, &d8, "fail-stop, fail_rate=0.15");
}

#[test]
fn worker_doc_attribution_sums_to_docs_processed() {
    // Per-worker document counts are exact (each worker publishes its local
    // tally once at exit), so within every per-doc stage span the worker
    // gauges must sum to exactly the documents the stage processed. The
    // distribution across workers is scheduling-dependent; the sum is not.
    for threads in [1, 4, 8] {
        let ctx = Context::new().with_exec(ExecConfig {
            threads,
            seed: 0xD1FF,
            ..ExecConfig::default()
        });
        let corpus = Corpus::ntsb(17, 14);
        ctx.register_corpus("ntsb", &corpus);
        let client = LlmClient::new(Arc::new(MockLlm::new(&GPT4_SIM, SimConfig::with_seed(17))));
        ctx.read_lake("ntsb")
            .unwrap()
            .partition("ntsb", PartitionCfg::default())
            .extract_properties(
                &client,
                obj! { "us_state_abbrev" => "string", "fatal" => "int" },
            )
            .explode()
            .embed()
            .collect_stats()
            .unwrap();
        let trace = ctx.telemetry().snapshot();
        let mut attributed_stages = 0;
        for span in trace.spans_of_kind("stage") {
            let workers = span.gauge("workers") as usize;
            if workers == 0 {
                continue; // barrier stages carry no per-worker attribution
            }
            attributed_stages += 1;
            let sum: usize = (0..workers)
                .map(|w| span.gauge(&format!("worker_{w}_docs")) as usize)
                .sum();
            assert_eq!(
                sum,
                span.counter("rows_in") as usize,
                "threads={threads}, stage {}: worker gauges must sum to docs processed",
                span.name
            );
        }
        assert!(
            attributed_stages > 0,
            "threads={threads}: expected at least one per-doc stage with worker gauges"
        );
    }
}

#[test]
fn morsel_size_and_steal_policy_never_change_results() {
    // Morsel granularity and the steal policy are pure scheduling knobs: the
    // same pipeline must be bit-identical across every combination, including
    // degenerate one-doc morsels and stealing disabled entirely.
    let run = |morsel_size: usize, steal: StealPolicy| {
        let ctx = Context::new().with_exec(ExecConfig {
            threads: 8,
            morsel_size,
            steal,
            fail_rate: 0.25,
            max_retries: 10,
            skip_failures: true,
            seed: 0xD1FF,
            ..ExecConfig::default()
        });
        let corpus = Corpus::ntsb(17, 14);
        ctx.register_corpus("ntsb", &corpus);
        let client = LlmClient::new(Arc::new(MockLlm::new(&GPT4_SIM, SimConfig::with_seed(17))));
        ctx.read_lake("ntsb")
            .unwrap()
            .partition("ntsb", PartitionCfg::default())
            .extract_properties(
                &client,
                obj! { "us_state_abbrev" => "string", "fatal" => "int" },
            )
            .explode()
            .embed()
            .collect_stats()
            .unwrap()
    };
    let (baseline_docs, baseline_stats) = run(32, StealPolicy::Ring);
    for morsel_size in [1usize, 2, 7, 64] {
        for steal in [StealPolicy::Ring, StealPolicy::Disabled] {
            let (docs, stats) = run(morsel_size, steal);
            assert_identical(
                &baseline_docs,
                &docs,
                &format!("morsel_size={morsel_size} steal={steal:?}"),
            );
            assert_eq!(
                baseline_stats.total_retries(),
                stats.total_retries(),
                "morsel_size={morsel_size} steal={steal:?}: retries"
            );
            assert_eq!(baseline_stats.total_failed_docs(), stats.total_failed_docs());
            assert_eq!(baseline_stats.llm().calls, stats.llm().calls);
        }
    }
}

#[test]
fn stats_shards_account_for_every_document_at_every_thread_count() {
    // Same invariant the telemetry gauges pin, but read straight off
    // ExecStats: for every per-doc stage the merged worker shards must
    // account for each input document, retry, and permanent failure exactly.
    for threads in [1usize, 2, 4, 8] {
        let (_docs, stats) = run_pipeline(threads, 0.25, true);
        for s in stats.stages.iter().filter(|s| !s.workers.is_empty()) {
            assert_eq!(
                s.workers.iter().map(|w| w.docs).sum::<usize>(),
                s.rows_in,
                "threads={threads}, stage {}: shard docs",
                s.name
            );
            assert_eq!(
                s.workers.iter().map(|w| w.retries).sum::<usize>(),
                s.retries,
                "threads={threads}, stage {}: shard retries",
                s.name
            );
            assert_eq!(
                s.workers.iter().map(|w| w.failed).sum::<usize>(),
                s.failed_docs,
                "threads={threads}, stage {}: shard failures",
                s.name
            );
            if threads == 1 {
                assert_eq!(s.workers.len(), 1, "sequential path is a single shard");
                assert_eq!(s.morsels(), 0, "sequential path cuts no morsels");
            }
        }
    }
}

#[test]
fn repeated_runs_are_bit_identical_per_seed() {
    let (a, sa) = run_pipeline(8, 0.25, true);
    let (b, sb) = run_pipeline(8, 0.25, true);
    assert_identical(&a, &b, "run 1 vs run 2, threads=8");
    assert_eq!(sa.total_retries(), sb.total_retries());
    assert_eq!(sa.llm().calls, sb.llm().calls);
}
