//! A cheap, deterministic guard on how the morsel runner splits work: a
//! 1k-document map → filter pipeline at 1 and 8 workers must fuse into one
//! stage, keep one stats shard per worker whose document counts sum to the
//! input, cut at least 4 morsels per worker at 8 workers, and return exactly
//! what one worker returns. Which worker runs which morsel depends on
//! scheduling, so makespans are not pinned here: measured milliseconds
//! (thread CPU time, wall time) belong to the `sycamore_scaling` bench.

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

fn run(threads: usize, n_docs: usize) -> (Vec<Document>, ExecStats) {
    let ctx = Context::new().with_exec(ExecConfig {
        threads,
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
    (out, stats)
}

/// The one fused per-document stage of [`run`]'s pipeline.
fn stage(stats: &ExecStats) -> &StageStats {
    assert_eq!(stats.stages.len(), 1, "map → filter fuses into one stage");
    &stats.stages[0]
}

#[test]
fn eight_workers_split_one_stage_and_match_one_worker() {
    let (out1, s1) = run(1, 1000);
    let (out8, s8) = run(8, 1000);
    for (stats, workers) in [(&s1, 1), (&s8, 8)] {
        let stage = stage(stats);
        assert_eq!(stage.workers.len(), workers, "one shard per worker");
        let shard_sum: usize = stage.workers.iter().map(|w| w.docs).sum();
        assert_eq!(
            shard_sum, 1000,
            "worker shards must account for every input row"
        );
    }
    assert!(
        s8.total_morsels() >= 4 * 8,
        "8-worker run must cut at least 4 morsels per worker: {}",
        s8.total_morsels()
    );
    assert_eq!(out1, out8, "8 workers return what one worker returns");
}
