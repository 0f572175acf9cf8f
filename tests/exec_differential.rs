//! Differential harness for the executor (§5.3): any worker count must be
//! observationally identical to one worker. Same seed, same pipeline,
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

/// Documents per morsel for a per-doc stage of `n` documents at `workers`
/// workers: at most 32, fewer so that the work splits into about 4 morsels
/// per worker.
fn morsel_size(n: usize, workers: usize) -> usize {
    32.min(n.div_ceil(workers * 4)).max(1)
}

fn expected_morsels(n: usize, workers: usize) -> usize {
    n.div_ceil(morsel_size(n, workers))
}

#[test]
fn worker_count_and_input_size_never_change_results() {
    // Worker count is a pure scheduling knob, and the input size sets the
    // morsel size (1 to 32 documents across this matrix): every cell must be
    // bit-identical to one worker — documents, order, lineage, retries,
    // failures and LLM calls — under injected failures.
    let run = |threads: usize, n: usize| {
        let ctx = Context::new().with_exec(ExecConfig {
            threads,
            fail_rate: 0.25,
            max_retries: 2,
            skip_failures: true,
            seed: 0xD1FF,
            ..ExecConfig::default()
        });
        let client = LlmClient::new(Arc::new(MockLlm::new(&GPT4_SIM, SimConfig::with_seed(17))));
        let docs: Vec<Document> = (0..n)
            .map(|i| {
                let state = ["CA", "WA", "TX", "OR"][i % 4];
                Document::from_text(
                    format!("doc-{i:04}"),
                    format!(
                        "Incident {i} in {state}: engine failure, {} injured.",
                        i % 3
                    ),
                )
            })
            .collect();
        ctx.read_docs(docs)
            .map("tag", |mut d| {
                let len = d.full_text().len() as i64;
                d.set_prop("len", len);
                d
            })
            .extract_properties(
                &client,
                obj! { "us_state_abbrev" => "string", "injured" => "int" },
            )
            .flat_map("copies", |d| {
                let k = d.id.as_str().bytes().map(usize::from).sum::<usize>() % 3;
                (0..k)
                    .map(|c| {
                        let mut copy = d.clone();
                        copy.id = format!("{}#{c}", d.id.as_str()).into();
                        copy
                    })
                    .collect()
            })
            .filter("even", |d| {
                d.id.as_str().ends_with("#0")
                    || d.prop("len")
                        .and_then(|v| v.as_int())
                        .is_some_and(|l| l % 2 == 0)
            })
            .embed()
            .collect_stats()
            .unwrap()
    };
    let mut sizes = std::collections::BTreeSet::new();
    for n in [1usize, 6, 45, 300] {
        let (base_docs, base_stats) = run(1, n);
        assert_eq!(
            base_stats.stages.len(),
            1,
            "n={n}: the per-doc chain fuses into one stage"
        );
        for threads in [1usize, 2, 3, 8] {
            let what = format!("threads={threads} n={n}");
            let (docs, stats) = if threads == 1 {
                (base_docs.clone(), base_stats.clone())
            } else {
                run(threads, n)
            };
            assert_identical(&base_docs, &docs, &what);
            assert_eq!(
                base_stats.total_retries(),
                stats.total_retries(),
                "{what}: retries"
            );
            assert_eq!(
                base_stats.total_failed_docs(),
                stats.total_failed_docs(),
                "{what}: failures"
            );
            assert_eq!(
                base_stats.llm().calls,
                stats.llm().calls,
                "{what}: LLM calls"
            );
            assert_eq!(
                stats.total_morsels(),
                expected_morsels(n, threads),
                "{what}: morsels"
            );
            sizes.insert(morsel_size(n, threads));
        }
        if n == 300 {
            assert!(
                base_stats.total_retries() > 0,
                "failures must have been injected"
            );
        }
    }
    assert_eq!(sizes.first(), Some(&1), "smallest morsel: {sizes:?}");
    assert_eq!(sizes.last(), Some(&32), "largest morsel: {sizes:?}");
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
                assert_eq!(s.workers.len(), 1, "one worker is a single shard");
                assert_eq!(
                    s.morsels(),
                    expected_morsels(s.rows_in, 1),
                    "stage {}: one worker's morsels",
                    s.name
                );
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
