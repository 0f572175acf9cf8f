//! Equivalence and accounting tests for cross-document LLM micro-batching
//! (DESIGN.md §5e): a batched pipeline must be byte-identical to the
//! unbatched one — same documents, order, properties, and lineage — while
//! issuing at most `ceil(n / max_items)` packed calls, and it must compose
//! with the content-addressed call cache so warm items are never re-packed.

use aryn_core::{obj, Document};
use aryn_docgen::Corpus;
use aryn_llm::{LlmCallCache, LlmClient, MockLlm, SimConfig, GPT4_SIM};
use proptest::prelude::*;
use std::sync::Arc;
use sycamore::{Context, ExecConfig};

fn client(seed: u64) -> LlmClient {
    LlmClient::new(Arc::new(MockLlm::new(&GPT4_SIM, SimConfig::with_seed(seed))))
}

fn perfect_client(seed: u64) -> LlmClient {
    LlmClient::new(Arc::new(MockLlm::new(&GPT4_SIM, SimConfig::perfect(seed))))
}

/// 64 distinct single-doc reports; roughly half mention weather so the
/// filter's keep set is non-trivial in both directions.
fn weather_docs(n: usize) -> Vec<Document> {
    (0..n)
        .map(|i| {
            let text = if i % 2 == 0 {
                format!(
                    "Report {i}: the loss of control was caused by strong wind \
                     and severe icing during final approach near Anchorage."
                )
            } else {
                format!(
                    "Report {i}: the engine lost power on climb-out after a \
                     fuel line fitting worked loose; skies were clear."
                )
            };
            Document::from_text(format!("d{i:03}"), text)
        })
        .collect()
}

fn ctx_with_batch(max_items: usize, token_budget: usize) -> Context {
    Context::new().with_exec(ExecConfig {
        batch_max_items: max_items,
        batch_token_budget: token_budget,
        ..ExecConfig::default()
    })
}

/// The acceptance bar from the issue: a batched `llm_filter` over a 64-doc
/// corpus issues at most `ceil(64 / max_items)` model calls and returns
/// results identical to the unbatched run.
#[test]
fn batched_llm_filter_is_byte_identical_and_saves_calls() {
    let n = 64;
    let max_items = 8;
    let predicate = "the incident was weather related";

    let unbatched_client = perfect_client(11);
    let plain = Context::new();
    let (base_docs, base_stats) = plain
        .read_docs(weather_docs(n))
        .llm_filter(&unbatched_client, predicate)
        .collect_stats()
        .unwrap();
    assert_eq!(unbatched_client.stats().calls, n as u64);

    let batched_client = perfect_client(11);
    let ctx = ctx_with_batch(max_items, 1 << 20);
    let (docs, stats) = ctx
        .read_docs(weather_docs(n))
        .llm_filter(&batched_client, predicate)
        .collect_stats()
        .unwrap();

    assert_eq!(docs, base_docs, "batched output must be byte-identical");
    assert!(!docs.is_empty() && docs.len() < n, "filter must be non-trivial");

    let calls = batched_client.stats().calls;
    let ceil = n.div_ceil(max_items) as u64;
    assert!(calls <= ceil, "{calls} calls > ceil({n}/{max_items}) = {ceil}");
    assert_eq!(calls, ceil, "generous token budget must pack to max_items");

    // Executor accounting: packed calls and calls saved surface in stats.
    assert_eq!(stats.llm().batched_calls, calls);
    assert_eq!(stats.llm().calls, calls);
    assert_eq!(stats.llm().calls_saved, (n as u64) - calls);
    assert_eq!(stats.batch_size_histogram(), vec![(max_items, ceil as usize)]);
    assert_eq!(base_stats.llm().calls_saved, 0);
    assert_eq!(base_stats.llm().batched_calls, 0);
}

/// Same equivalence bar for `extract_properties`, over a real corpus run
/// through partition first (a fused per-doc segment with a batchable tail).
#[test]
fn batched_extract_properties_is_byte_identical() {
    let corpus = Corpus::ntsb(5, 16);
    let schema = obj! { "us_state_abbrev" => "string", "fatal" => "int" };

    let run = |ctx: Context, client: &LlmClient| {
        ctx.register_corpus("ntsb", &corpus);
        ctx.read_lake("ntsb")
            .unwrap()
            .partition("ntsb", Default::default())
            .extract_properties(client, schema.clone())
            .collect_stats()
            .unwrap()
    };

    let c1 = perfect_client(5);
    let (base_docs, _) = run(Context::new(), &c1);
    let base_calls = c1.stats().calls;
    assert!(base_calls >= 16);

    let c2 = perfect_client(5);
    let (docs, stats) = run(ctx_with_batch(4, 1 << 20), &c2);

    assert_eq!(docs, base_docs, "batched extraction must be byte-identical");
    assert!(c2.stats().calls < base_calls, "batching must reduce calls");
    assert!(stats.llm().calls_saved > 0);
    assert_eq!(
        stats.llm().calls_saved + c2.stats().calls,
        base_calls,
        "every saved call is accounted for"
    );
}

/// Batching composes with the call cache in both directions: a warm cache
/// short-circuits packing entirely, and a batched run memoizes every item
/// individually so a later unbatched run replays from cache.
#[test]
fn batching_composes_with_call_cache() {
    let n = 12;
    let predicate = "the incident was weather related";
    let cache = Arc::new(LlmCallCache::with_capacity(256));

    // Cold batched run: packs misses, memoizes each item under its own
    // singleton fingerprint.
    let c1 = perfect_client(3).with_cache(Arc::clone(&cache));
    let ctx1 = ctx_with_batch(4, 1 << 20);
    let (batched_docs, s1) = ctx1
        .read_docs(weather_docs(n))
        .llm_filter(&c1, predicate)
        .collect_stats()
        .unwrap();
    assert_eq!(c1.stats().calls, 3, "12 docs / 4 per pack");
    assert_eq!(s1.llm().batched_calls, 3);
    assert_eq!(cache.len(), n, "every item memoized individually");

    // Warm unbatched run: zero model calls, identical output.
    let c2 = perfect_client(3).with_cache(Arc::clone(&cache));
    let (unbatched_docs, _) = Context::new()
        .read_docs(weather_docs(n))
        .llm_filter(&c2, predicate)
        .collect_stats()
        .unwrap();
    assert_eq!(c2.stats().calls, 0, "warm cache serves every singleton");
    assert_eq!(unbatched_docs, batched_docs);

    // Warm batched run: per-item fingerprints hit, nothing gets packed.
    let c3 = perfect_client(3).with_cache(Arc::clone(&cache));
    let ctx3 = ctx_with_batch(4, 1 << 20);
    let (warm_docs, s3) = ctx3
        .read_docs(weather_docs(n))
        .llm_filter(&c3, predicate)
        .collect_stats()
        .unwrap();
    assert_eq!(c3.stats().calls, 0, "warm items are never re-packed");
    assert_eq!(s3.llm().batched_calls, 0);
    assert_eq!(warm_docs, batched_docs);
}

/// `Context::set_batch` flips batching on for an already-built context, so
/// Luna can apply per-query knobs without rebuilding sinks.
#[test]
fn set_batch_enables_packing_on_live_context() {
    let ctx = Context::new();
    ctx.set_batch(6, 1 << 20);
    let c = perfect_client(9);
    let (docs, stats) = ctx
        .read_docs(weather_docs(18))
        .llm_filter(&c, "the incident was weather related")
        .collect_stats()
        .unwrap();
    assert!(!docs.is_empty());
    assert_eq!(c.stats().calls, 3);
    assert_eq!(stats.llm().batched_calls, 3);
    assert_eq!(stats.llm().calls_saved, 15);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Batched and unbatched pipelines are observationally identical for any
    /// doc count, batch width, token budget, and sim seed — including seeds
    /// whose malformed draws force split-and-retry down to singletons.
    #[test]
    fn batched_equals_unbatched_llm_filter(
        n in 1usize..24,
        max_items in 1usize..7,
        budget in prop_oneof![Just(256usize), Just(2048), Just(1 << 16)],
        seed in 0u64..256,
    ) {
        let predicate = "the incident was weather related";
        let c1 = client(seed);
        let base = Context::new()
            .read_docs(weather_docs(n))
            .llm_filter(&c1, predicate)
            .collect()
            .unwrap();

        let c2 = client(seed);
        let docs = ctx_with_batch(max_items, budget)
            .read_docs(weather_docs(n))
            .llm_filter(&c2, predicate)
            .collect()
            .unwrap();

        prop_assert_eq!(&docs, &base);
        prop_assert!(c2.stats().calls <= c1.stats().calls);
    }

    /// Same property for extraction, which carries structured per-item
    /// payloads back out of the packed response.
    #[test]
    fn batched_equals_unbatched_extract_properties(
        n in 1usize..16,
        max_items in 1usize..6,
        seed in 0u64..256,
    ) {
        let schema = obj! { "us_state_abbrev" => "string" };
        let c1 = client(seed);
        let base = Context::new()
            .read_docs(weather_docs(n))
            .extract_properties(&c1, schema.clone())
            .collect()
            .unwrap();

        let c2 = client(seed);
        let docs = ctx_with_batch(max_items, 1 << 16)
            .read_docs(weather_docs(n))
            .extract_properties(&c2, schema.clone())
            .collect()
            .unwrap();

        prop_assert_eq!(&docs, &base);
        prop_assert!(c2.stats().calls <= c1.stats().calls);
    }
}
