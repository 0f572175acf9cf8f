//! S3 of the morsel-executor PR: a cheap, criterion-free regression guard
//! against the negative scaling the old collection-at-a-time executor
//! exhibited (9.6ms @ 1 worker → 13.4ms @ 4 in the seed's
//! `bench_results/sycamore_scaling.txt`).
//!
//! The guard runs a 1k-document pipeline at 1 and 8 workers and compares
//! **critical paths on a virtual clock that charges one tick per document**:
//! with stealing off, which worker runs which morsel is fixed by the
//! round-robin deal, so every worker's document count — and the longest
//! one, the makespan a host with one core per worker would observe for
//! uniform documents — is the same on every run, on any core count and under
//! any load. Measured milliseconds (thread CPU time, wall time) belong to the
//! `sycamore_scaling` bench, not to tier-1.

use aryn::prelude::*;
use aryn_core::{stable_hash, Document};
use sycamore::{ExecStats, StageStats};

/// A little pure CPU per document, so the pipeline is the shape the guard
/// was written for (map → filter over per-document work).
fn cpu_work(seed: &str) -> u64 {
    let mut acc = 0u64;
    let mut token = seed.to_string();
    for _ in 0..150 {
        acc = acc.wrapping_add(stable_hash(acc, &[token.as_str()]));
        token = format!("{acc:x}");
    }
    acc
}

fn run(threads: usize, n_docs: usize) -> ExecStats {
    let ctx = Context::new().with_exec(ExecConfig {
        threads,
        steal: StealPolicy::Disabled,
        ..ExecConfig::default()
    });
    let docs: Vec<Document> = (0..n_docs)
        .map(|i| Document::from_text(format!("doc-{i:04}"), format!("payload {i}")))
        .collect();
    let (out, stats) = ctx
        .read_docs(docs)
        .map("hashwork", |mut d| {
            let acc = cpu_work(d.id.as_str());
            d.set_prop("acc", acc as i64);
            d
        })
        .filter("keep_all", |d| d.prop("acc").is_some())
        .collect_stats()
        .unwrap();
    assert_eq!(out.len(), n_docs);
    stats
}

/// The one fused per-document stage of [`run`]'s pipeline.
fn stage(stats: &ExecStats) -> &StageStats {
    assert_eq!(stats.stages.len(), 1, "map → filter fuses into one stage");
    &stats.stages[0]
}

/// The stage's critical path in document ticks: the longest worker's count.
fn critical_path_docs(stats: &ExecStats) -> usize {
    let stage = stage(stats);
    let shard_sum: usize = stage.workers.iter().map(|w| w.docs).sum();
    assert_eq!(shard_sum, stage.rows_in, "worker shards must account for every input row");
    stage.workers.iter().map(|w| w.docs).max().unwrap_or(0)
}

#[test]
fn eight_workers_never_slower_than_one_on_the_virtual_clock() {
    let s1 = run(1, 1000);
    let s8 = run(8, 1000);
    let cp1 = critical_path_docs(&s1);
    let cp8 = critical_path_docs(&s8);
    assert_eq!(cp1, 1000, "one worker runs every document");
    assert_eq!(stage(&s8).workers.len(), 8);
    // The regression guard proper: the work is embarrassingly parallel, so
    // the longest worker at 8 must carry at most 1/2.5 of the single
    // worker's load (the acceptance floor; an even deal gives 1/8).
    assert!(
        cp8 * 5 <= cp1 * 2,
        "expected >= 2.5x critical-path speedup at 8 workers, got {cp1} -> {cp8} documents"
    );
    // The morsel machinery really ran: the parallel run cut morsels, the
    // sequential baseline none.
    assert_eq!(s1.total_morsels(), 0, "sequential path cuts no morsels");
    assert!(
        s8.total_morsels() >= 8,
        "8-worker run must split into morsels: {}",
        s8.total_morsels()
    );
    assert_eq!(s8.total_steals(), 0, "stealing is off");
}

#[test]
fn critical_path_is_monotone_in_worker_count() {
    // Cheaper sweep (fewer docs) across the full ladder: the virtual-clock
    // makespan must be non-increasing from 1 -> 2 -> 4 -> 8 workers.
    let mut prev = usize::MAX;
    for threads in [1usize, 2, 4, 8] {
        let cp = critical_path_docs(&run(threads, 400));
        assert!(
            cp <= prev,
            "critical path must not grow with workers: {cp} documents @ {threads} after {prev}"
        );
        prev = cp;
    }
}
