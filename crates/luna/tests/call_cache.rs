//! The repeated-query workload the call cache exists for: running the same
//! question suite twice in one Context must spend far fewer model calls the
//! second time, while answering byte-for-byte identically — with the cache
//! on or off.

use aryn_core::vfs::{MemFs, Vfs};
use aryn_docgen::Corpus;
use aryn_llm::{LlmClient, MockLlm, SimConfig};
use luna::bench18::{tally, Bench18, Bench18Cfg};
use luna::{ingest_lake, ntsb_schema, Luna, LunaConfig};
use std::path::Path;
use std::sync::Arc;
use sycamore::Context;

fn small_cfg(call_cache: bool) -> Bench18Cfg {
    Bench18Cfg {
        n_ntsb: 12,
        n_earnings: 10,
        call_cache,
        ..Bench18Cfg::default()
    }
}

#[test]
fn repeated_suite_reuses_cached_calls_and_answers_identically() {
    let bench = Bench18::build(small_cfg(true)).unwrap();
    let baseline = bench.luna.usage_stats();

    let rows1 = bench.run().unwrap();
    let after1 = bench.luna.usage_stats();
    let calls1 = after1.since(&baseline).calls;
    assert!(calls1 > 0, "first pass must issue real model calls");

    let rows2 = bench.run().unwrap();
    let calls2 = bench.luna.usage_stats().since(&after1).calls;

    // Acceptance bar: the warm pass saves at least 30% of the calls.
    assert!(
        (calls2 as f64) < 0.7 * calls1 as f64,
        "warm run must save >=30% of model calls: cold={calls1} warm={calls2}"
    );
    let cs = bench.luna.cache_stats();
    assert!(cs.hits > 0, "cache must report hits: {cs:?}");
    assert!(cs.cost_saved_usd > 0.0);

    // Identical answers across the two passes.
    assert_eq!(rows1.len(), rows2.len());
    for ((q1, a1, g1), (q2, a2, g2)) in rows1.iter().zip(&rows2) {
        assert_eq!(q1.question, q2.question);
        assert_eq!(a1.answer(), a2.answer(), "answer drift on {:?}", q1.question);
        assert_eq!(g1, g2);
    }

    // explain_analyze surfaces the savings on the warm pass.
    let warm = rows2.iter().map(|(_, a, _)| a.explain_analyze()).collect::<Vec<_>>();
    assert!(
        warm.iter().any(|e| e.contains("cache:")),
        "at least one warm plan should report cache savings"
    );

    // And caching never changes what Luna answers: a cache-off fixture built
    // from the identical configuration produces the identical transcript.
    let plain = Bench18::build(small_cfg(false)).unwrap();
    assert!(plain.luna.call_cache().is_none());
    let rows_off = plain.run().unwrap();
    for ((q1, a1, _), (q2, a2, _)) in rows1.iter().zip(&rows_off) {
        assert_eq!(q1.question, q2.question);
        assert_eq!(
            a1.answer(),
            a2.answer(),
            "cache on/off answers must be byte-identical for {:?}",
            q1.question
        );
    }
    assert_eq!(tally(&rows1), tally(&rows_off));
}

/// The disk tier writes through the session context's VFS: over a `MemFs`
/// the log lands in the `MemFs`, and nothing reaches the host path.
#[test]
fn the_disk_tier_goes_through_the_context_vfs() {
    let dir = Path::new("/aryn-cache-test");
    let mem = Arc::new(MemFs::new());
    let ctx = Context::new();
    ctx.set_vfs(mem.clone());
    ctx.register_corpus("ntsb", &Corpus::ntsb(7, 6));
    let client = LlmClient::new(Arc::new(MockLlm::new(&aryn_llm::GPT4_SIM, SimConfig::perfect(7))));
    ingest_lake(&ctx, "ntsb", "ntsb", &client, ntsb_schema(), aryn_partitioner::Detector::DetrSim).unwrap();
    let cfg = LunaConfig {
        sim: SimConfig::perfect(7),
        call_cache: true,
        call_cache_dir: Some(dir.into()),
        ..LunaConfig::default()
    };
    let luna = Luna::new(ctx, &["ntsb"], cfg).unwrap();
    luna.ask("How many incidents were caused by wind?").unwrap();
    assert!(mem.read(&dir.join("llm_cache.log")).is_ok_and(|log| !log.is_empty()));
    assert!(!dir.exists(), "the cache wrote to the host filesystem");
}
