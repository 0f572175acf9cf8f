//! Integration tests for the content-addressed LLM call cache: single-flight
//! dedup under the parallel executor, the disk tier across two Contexts,
//! barrier-stage failure accounting, lake-scan determinism, and a property
//! test that caching never changes pipeline output.

use aryn_core::{obj, ArynError, Document};
use aryn_docgen::Corpus;
use aryn_llm::{
    LanguageModel, LlmCallCache, LlmClient, LlmRequest, LlmResponse, MockLlm, SimConfig, Usage,
    GPT4_SIM,
};
use proptest::prelude::*;
use std::sync::Arc;
use sycamore::{Context, ExecConfig};

fn cached_client(cache: &Arc<LlmCallCache>) -> LlmClient {
    LlmClient::new(Arc::new(MockLlm::new(&GPT4_SIM, SimConfig::perfect(7))))
        .with_cache(Arc::clone(cache))
}

/// N workers racing on identical prompts must collapse to ONE model call:
/// the leader computes, the rest join its flight and record cache hits.
#[test]
fn single_flight_under_parallel_executor() {
    let n = 8;
    let docs: Vec<Document> = (0..n)
        .map(|i| {
            Document::from_text(
                format!("d{i}"),
                "The aircraft encountered strong gusting winds during final approach.",
            )
        })
        .collect();
    let cache = Arc::new(LlmCallCache::with_capacity(64));
    let client = cached_client(&cache);
    let ctx = Context::new().with_exec(ExecConfig {
        threads: 4,
        ..ExecConfig::default()
    });
    let (_, stats) = ctx
        .read_docs(docs)
        .llm_filter(&client, "the incident was weather related")
        .collect_stats()
        .unwrap();
    // One real model call, everyone else served from the cache (either a
    // completed entry or a joined in-flight computation).
    assert_eq!(client.stats().calls, 1, "exactly one model call for {n} identical prompts");
    let cs = cache.stats();
    assert_eq!(cs.misses, 1);
    assert_eq!(cs.hits, (n - 1) as u64);
    assert_eq!(cache.len(), 1);
    // The savings surface in per-stage executor stats.
    assert_eq!(stats.cache().hits, (n - 1) as u64, "{}", stats.render());
    assert!(stats.cache().cost_saved_usd > 0.0);
}

/// The disk tier persists completed calls; a brand-new Context + client over
/// the same lake replays every call from disk without touching the model.
#[test]
fn disk_tier_round_trips_across_contexts() {
    let dir = std::env::temp_dir().join("sycamore-call-cache-test");
    let _ = std::fs::remove_dir_all(&dir);
    let corpus = Corpus::ntsb(1, 4);
    let schema = obj! { "us_state_abbrev" => "string" };

    let run = |expect_calls: u64| {
        let ctx = Context::new();
        let cache = Arc::new(LlmCallCache::with_capacity(64).with_disk(ctx.vfs(), &dir).unwrap());
        let client = cached_client(&cache);
        ctx.register_corpus("ntsb", &corpus);
        let docs = ctx
            .read_lake("ntsb")
            .unwrap()
            .extract_properties(&client, schema.clone())
            .collect()
            .unwrap();
        assert_eq!(client.stats().calls, expect_calls);
        docs
    };

    let first = run(4); // cold: every document hits the model
    let second = run(0); // warm: everything replayed from llm_cache.log
    assert_eq!(first, second, "disk-tier answers must be byte-identical");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A model that refuses any prompt containing "POISON" and otherwise answers
/// with a fixed summary. The tiny window forces summarize_all to batch.
struct PoisonModel;

impl LanguageModel for PoisonModel {
    fn name(&self) -> &str {
        "poison-sim"
    }
    fn context_window(&self) -> usize {
        600
    }
    fn generate(&self, req: &LlmRequest) -> aryn_core::Result<LlmResponse> {
        if req.prompt.contains("POISON") {
            return Err(ArynError::Llm("poisoned batch".into()));
        }
        Ok(LlmResponse {
            text: "{\"summary\": \"condensed\"}".into(),
            usage: Usage {
                input_tokens: 50,
                output_tokens: 5,
                cost_usd: 0.001,
                latency_ms: 1.0,
            },
            model: "poison-sim".into(),
        })
    }
}

/// A summarize_all barrier that drops an inner batch (skip_failures on) must
/// report those source documents in the stage's failed_docs instead of the
/// hardcoded zero it used to emit.
#[test]
fn barrier_reports_failed_docs_from_summarize_all() {
    let filler = "incident report narrative detail ".repeat(40);
    let docs: Vec<Document> = (0..6)
        .map(|i| {
            let mut d = Document::from_text(format!("d{i}"), "body");
            let summary = if i == 3 {
                format!("POISON {filler}")
            } else {
                format!("summary {i}: {filler}")
            };
            d.set_prop("summary", summary);
            d
        })
        .collect();
    let client = LlmClient::new(Arc::new(PoisonModel));
    let ctx = Context::new().with_exec(ExecConfig {
        skip_failures: true,
        ..ExecConfig::default()
    });
    let (out, stats) = ctx
        .read_docs(docs.clone())
        .summarize_all(&client, "summarize the incidents")
        .collect_stats()
        .unwrap();
    assert_eq!(out.len(), 1, "surviving batches still produce a summary");
    assert!(
        stats.total_failed_docs() >= 1,
        "poisoned batch must surface in failed_docs: {}",
        stats.render()
    );
    assert!(stats.total_failed_docs() < 6, "only the poisoned batch fails");

    // Without skip_failures the same pipeline propagates the batch error.
    let strict = Context::new();
    strict
        .read_docs(docs)
        .summarize_all(&client, "summarize the incidents")
        .collect()
        .unwrap_err();
}

/// Lake scans must yield documents in doc-id order no matter what order the
/// corpus registered them in.
#[test]
fn lake_scan_order_is_deterministic() {
    let mut corpus = Corpus::ntsb(1, 6);
    corpus.docs.reverse();
    let ctx = Context::new();
    ctx.register_corpus("ntsb", &corpus);
    let ids: Vec<String> = ctx
        .read_lake("ntsb")
        .unwrap()
        .collect()
        .unwrap()
        .iter()
        .map(|d| d.id.0.clone())
        .collect();
    let mut sorted = ids.clone();
    sorted.sort();
    assert_eq!(ids, sorted, "lake scan must be sorted by doc id");
    assert_eq!(ids.len(), 6);
}

fn text_docs_strategy() -> impl Strategy<Value = Vec<Document>> {
    prop::collection::vec(
        prop_oneof![
            Just("strong winds and icing during the descent"),
            Just("engine flameout after fuel exhaustion"),
            Just("routine flight with no anomalies reported"),
            Just("pilot reported severe turbulence near the ridge"),
        ],
        1..10,
    )
    .prop_map(|texts| {
        texts
            .into_iter()
            .enumerate()
            .map(|(i, t)| Document::from_text(format!("d{i}"), t))
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Caching is transparent: the cached pipeline produces exactly the same
    /// documents as the uncached one, for any mix of (repeated) inputs.
    #[test]
    fn cached_pipeline_matches_uncached(docs in text_docs_strategy()) {
        let run = |cache: Option<Arc<LlmCallCache>>| {
            let mut client =
                LlmClient::new(Arc::new(MockLlm::new(&GPT4_SIM, SimConfig::perfect(11))));
            if let Some(c) = cache {
                client = client.with_cache(c);
            }
            let ctx = Context::new();
            ctx.read_docs(docs.clone())
                .llm_filter(&client, "the flight was affected by weather")
                .collect()
                .unwrap()
        };
        let uncached = run(None);
        let cache = Arc::new(LlmCallCache::with_capacity(64));
        let cached = run(Some(Arc::clone(&cache)));
        prop_assert_eq!(&uncached, &cached);
        // And a warm second run over the same cache is still identical.
        let warm = run(Some(cache));
        prop_assert_eq!(&uncached, &warm);
    }
}
