//! Index-lag guard (CI): streaming ingestion must keep index lag — the
//! virtual-clock delay between a document's arrival and the instant every
//! sidecar index can serve it, including seal/compaction work it queues
//! behind (DESIGN.md §5j) — below a pinned bound. The clock is virtual
//! (constant per-doc/seal/compaction costs), so the bound is exact and
//! machine-independent: a regression here means the segment lifecycle
//! started doing super-O(doc) work per arrival, not that CI got slow.

use aryn_docgen::DocStream;
use sycamore::ingest::{COMPACT_COST_MS, DOC_COST_MS, SEAL_COST_MS};
use sycamore::{Context, IngestConfig, Ingestor};

const CFG: IngestConfig = IngestConfig {
    seal_threshold: 64,
    compact_fanout: 4,
    embed: true,
};

fn run_stream(n: usize, interval_ms: f64) -> (sycamore::IngestReport, Context) {
    let ctx = Context::new();
    let mut ing = Ingestor::new(&ctx, "ntsb", CFG);
    let mut stream = DocStream::ntsb(23, n, interval_ms);
    while let Some((doc, at)) = stream.next_arrival() {
        ing.ingest_at(doc, at).unwrap();
    }
    (ing.report(), ctx)
}

/// Arrivals every 5 virtual ms against a 2 ms/doc pipeline: the queue
/// drains between arrivals, so lag is bounded by one doc plus the worst
/// seal + compaction burst — never by stream length.
#[test]
fn index_lag_stays_below_pinned_bound() {
    let (report, ctx) = run_stream(500, 5.0);
    assert_eq!(report.docs, 500);
    assert!(report.seals >= 7, "threshold 64 over 500 docs: {report:?}");
    assert!(report.compactions >= 1, "{report:?}");
    // Worst burst: doc (2) + seal (8) + compaction (24) = 34 virtual ms,
    // plus bounded carry-over into the next arrival. 64 ms is the guard.
    let burst = DOC_COST_MS + SEAL_COST_MS + COMPACT_COST_MS;
    assert!(
        (burst..=64.0).contains(&report.max_lag_ms),
        "index lag regressed: {report:?}"
    );
    // Steady state is just the per-doc cost.
    assert!(report.p50_lag_ms <= 4.0 * DOC_COST_MS, "{report:?}");
    assert!(report.p99_lag_ms <= 64.0, "{report:?}");
    // The shared gauge agrees with the report.
    let shared = ctx.ingest_stream("ntsb").unwrap();
    assert_eq!(shared.docs(), 500);
    assert!(shared.max_lag_ms() <= 64.0);
}

/// Lag is a pure function of the virtual clock: identical runs report
/// identical percentiles, so the guard can never flake.
#[test]
fn lag_report_is_deterministic() {
    let (a, _) = run_stream(200, 3.0);
    let (b, _) = run_stream(200, 3.0);
    assert_eq!(a, b);
}

/// Overload behaves sanely: arrivals faster than the pipeline (1 ms
/// interval vs 2 ms/doc) queue up, lag grows with backlog, and a consistent
/// snapshot is still available mid-stream.
#[test]
fn overloaded_stream_degrades_gracefully_not_incorrectly() {
    let (fast, ctx) = run_stream(300, 1.0);
    let (slow, _) = run_stream(300, 5.0);
    assert!(fast.max_lag_ms > slow.max_lag_ms, "backlog must show up as lag");
    assert_eq!(ctx.with_store("ntsb", |s| s.len()).unwrap(), 300);
    let snap = ctx.with_store("ntsb", |s| s.snapshot()).unwrap();
    assert_eq!(snap.scan().count(), 300, "no arrivals lost under overload");
}
