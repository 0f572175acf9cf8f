//! Differential test of sink projection (DESIGN.md §5g): a DocSet that ends
//! in `explode → write_keyword`, `embed → write_vector`,
//! `explode → embed → write_vector` or `explode → embed → write_keyword`
//! runs its trailing ops projected, building only the ids, texts and
//! vectors the sink reads. The reference is the
//! unprojected pipeline on a twin context: `collect_stats()` of the same
//! chain, then `read_docs(..).write_*` of the full rows. Indexes must be
//! bit-identical and the stages must report the same rows, retries and
//! failures, at any worker count, under injected worker failures (with and
//! without `skip_failures`) and under a chaos schedule.

use aryn_core::text::analyze;
use aryn_core::{Document, Element, ElementType, ImageInfo, Table};
use aryn_docgen::Corpus;
use aryn_llm::{ChaosSchedule, LlmClient, MockLlm, RetryPolicy, SimConfig, GPT4_SIM};
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::sync::Arc;
use sycamore::{Context, DocSet, ExecConfig, PartitionCfg};

#[derive(Debug, Clone, Copy, PartialEq)]
enum Chain {
    /// `explode → write_keyword`
    ExplodeKeyword,
    /// `embed → write_vector`
    EmbedVector,
    /// `explode → embed → write_vector`
    ExplodeEmbedVector,
    /// `explode → embed → write_keyword`: the embedding is never read.
    ExplodeEmbedKeyword,
}

const CHAINS: [Chain; 4] = [
    Chain::ExplodeKeyword,
    Chain::EmbedVector,
    Chain::ExplodeEmbedVector,
    Chain::ExplodeEmbedKeyword,
];

impl Chain {
    fn ops(self, ds: DocSet) -> DocSet {
        match self {
            Chain::ExplodeKeyword => ds.explode(),
            Chain::EmbedVector => ds.embed(),
            Chain::ExplodeEmbedVector | Chain::ExplodeEmbedKeyword => ds.explode().embed(),
        }
    }

    fn write(self, ds: &DocSet) -> aryn_core::Result<usize> {
        match self {
            Chain::ExplodeKeyword | Chain::ExplodeEmbedKeyword => ds.write_keyword("ix"),
            _ => ds.write_vector("ix"),
        }
    }
}

/// What a stage reported: name, rows in and out, retries, failed documents.
type Stage = (String, u64, u64, u64, u64);

/// The stages `ctx` recorded, as its stage spans carry them.
fn stage_spans(ctx: &Context) -> Vec<Stage> {
    let trace = ctx.telemetry().snapshot();
    trace
        .spans_of_kind("stage")
        .into_iter()
        .map(|s| {
            let c = |k: &str| s.counter(k);
            (
                s.name.clone(),
                c("rows_in"),
                c("rows_out"),
                c("retries"),
                c("failed_docs"),
            )
        })
        .collect()
}

/// Runs `chain` over `source` projected on `fast` and unprojected on `slow`
/// (both fresh twins) and requires the same outcome, stages and index.
/// Returns the reference's stages, for coverage checks.
fn assert_projection_holds(
    fast: &Context,
    slow: &Context,
    source: impl Fn(&Context) -> DocSet,
    chain: Chain,
) -> Vec<Stage> {
    let projected = chain.write(&chain.ops(source(fast)));
    let reference = chain.ops(source(slow)).collect_stats();
    let (rows, stats) = match reference {
        Err(e) => {
            let got = projected.expect_err("the reference failed, the projected run must too");
            // Which failing document a fail-stop names depends on scheduling
            // once several workers run.
            if fast.exec_config().threads == 1 {
                assert_eq!(got.to_string(), e.to_string());
            }
            assert_eq!(stage_spans(fast), stage_spans(slow));
            return stage_spans(slow);
        }
        Ok(out) => out,
    };
    let n = rows.len();
    let texts: Vec<(String, String)> = rows
        .iter()
        .map(|d| (d.id.0.clone(), d.full_text()))
        .collect();
    assert_eq!(chain.write(&slow.read_docs(rows)).unwrap(), n);
    assert_eq!(
        projected.expect("the reference succeeded"),
        n,
        "{chain:?}: rows written"
    );

    let want: Vec<Stage> = stats
        .stages
        .iter()
        .map(|s| {
            (
                s.name.clone(),
                s.rows_in as u64,
                s.rows_out as u64,
                s.retries as u64,
                s.failed_docs as u64,
            )
        })
        .collect();
    assert_eq!(stage_spans(fast), want, "{chain:?}: stages");
    assert_eq!(stage_spans(slow), want);

    match chain {
        Chain::ExplodeKeyword | Chain::ExplodeEmbedKeyword => {
            assert_same_keyword(fast, slow, &texts)
        }
        _ => assert_same_vectors(fast, slow),
    }
    want
}

fn assert_same_keyword(fast: &Context, slow: &Context, texts: &[(String, String)]) {
    let summary = |ctx: &Context| {
        ctx.with_keyword("ix", |k| {
            let terms: BTreeSet<String> = texts.iter().flat_map(|(_, t)| analyze(t)).collect();
            let lens: Vec<Option<u32>> = texts.iter().map(|(id, _)| k.doc_len(id)).collect();
            let dfs: Vec<usize> = terms.iter().map(|t| k.df(t)).collect();
            let hits: Vec<Vec<(String, u64)>> = [
                "probable cause wind",
                "revenue quarter",
                "engine",
                "table summary",
                "zzz",
            ]
            .iter()
            .map(|q| {
                k.search(q, 25)
                    .into_iter()
                    .map(|h| (h.key, h.score.to_bits()))
                    .collect()
            })
            .collect();
            (k.len(), k.doc_count(), k.total_len(), lens, dfs, hits)
        })
        .unwrap()
    };
    assert_eq!(summary(fast), summary(slow), "keyword index");
}

fn assert_same_vectors(fast: &Context, slow: &Context) {
    let summary = |ctx: &Context| {
        ctx.with_vector("ix", |v| {
            let entries: Vec<(String, Vec<u32>)> = v
                .entries()
                .map(|(k, x)| (k.to_string(), x.iter().map(|f| f.to_bits()).collect()))
                .collect();
            let queries: Vec<Vec<f32>> = [
                "wind during approach",
                "quarterly revenue",
                "engine failure",
            ]
            .iter()
            .map(|q| ctx.embedder().embed(q))
            .collect();
            let hits: Vec<Vec<(String, u32)>> = queries
                .iter()
                .map(|q| {
                    v.search(q, 10)
                        .unwrap()
                        .into_iter()
                        .map(|n| (n.key, n.score.to_bits()))
                        .collect()
                })
                .collect();
            (v.len(), entries, hits)
        })
        .unwrap()
    };
    assert_eq!(summary(fast), summary(slow), "vector index");
}

fn twins(cfg: ExecConfig) -> (Context, Context) {
    (Context::new().with_exec(cfg), Context::new().with_exec(cfg))
}

fn lake_source(corpus: &Corpus) -> impl Fn(&Context) -> DocSet + '_ {
    move |ctx| {
        ctx.register_corpus("lake", corpus);
        ctx.read_lake("lake")
            .unwrap()
            .partition("lake", PartitionCfg::default())
    }
}

/// `partition` fused with the projected ops, at 1 and 4 workers, with and
/// without injected worker failures, skipped or fatal.
#[test]
fn projected_sinks_match_the_unprojected_pipeline() {
    let mut corpus = Corpus::ntsb(5, 8);
    corpus.docs.extend(Corpus::earnings(5, 8).docs);
    let (mut retried, mut skipped, mut fatal) = (false, false, false);
    for chain in CHAINS {
        for threads in [1, 4] {
            for (fail_rate, max_retries, skip_failures) in [
                (0.0, 3, false),
                (0.2, 1, true),
                (0.2, 1, false),
                (0.2, 3, false),
            ] {
                let cfg = ExecConfig {
                    threads,
                    fail_rate,
                    max_retries,
                    skip_failures,
                    ..ExecConfig::default()
                };
                let (fast, slow) = twins(cfg);
                let stages = assert_projection_holds(&fast, &slow, lake_source(&corpus), chain);
                retried |= stages.iter().any(|s| s.3 > 0);
                skipped |= stages.iter().any(|s| s.4 > 0);
                fatal |= stages.is_empty();
            }
        }
    }
    assert!(
        retried && skipped && fatal,
        "coverage: retried {retried}, skipped {skipped}, fatal {fatal}"
    );
}

/// An LLM stage under a chaos schedule before the projected ops: the
/// semantic filter's faults, and the documents they cost, must not change
/// what the sink indexes.
#[test]
fn projected_sinks_match_under_a_chaos_schedule() {
    let corpus = Corpus::ntsb(9, 12);
    // No transient retries: a fault fails its document, which is skipped.
    let strict = RetryPolicy {
        max_transient: 0,
        ..RetryPolicy::default()
    };
    let client = LlmClient::new(Arc::new(MockLlm::new(&GPT4_SIM, SimConfig::with_seed(9))))
        .with_policy(strict);
    let cfg = ExecConfig {
        threads: 4,
        max_retries: 0,
        skip_failures: true,
        ..ExecConfig::default()
    };
    for chain in CHAINS {
        let (fast, slow) = twins(cfg);
        for ctx in [&fast, &slow] {
            ctx.set_chaos(ChaosSchedule::from_seed(17, 80, 0.9));
        }
        let source = |ctx: &Context| {
            lake_source(&corpus)(ctx).llm_filter(&client, "the incident involved wind")
        };
        let stages = assert_projection_holds(&fast, &slow, source, chain);
        assert!(
            stages[0].4 > 0,
            "the schedule must cost documents: {stages:?}"
        );
    }
}

/// A micro-batched `llm_filter` fused with the projected ops: the batched
/// segment hands its tail to the per-document path.
#[test]
fn projected_sinks_match_after_a_micro_batched_stage() {
    let corpus = Corpus::ntsb(11, 12);
    let client = LlmClient::new(Arc::new(MockLlm::new(&GPT4_SIM, SimConfig::perfect(11))));
    for threads in [1, 4] {
        let cfg = ExecConfig {
            threads,
            batch_max_items: 4,
            ..ExecConfig::default()
        };
        for chain in CHAINS {
            let (fast, slow) = twins(cfg);
            let source = |ctx: &Context| {
                lake_source(&corpus)(ctx).llm_filter(&client, "the incident was caused by wind")
            };
            let stages = assert_projection_holds(&fast, &slow, source, chain);
            assert!(stages[0].2 > 0, "the filter must keep rows: {stages:?}");
        }
    }
}

const WORDS: &[&str] = &[
    "the", "wind", "gusting", "reported", "engine", "revenue", "quarter", "Straße", "東京", "A380",
    "2024", "of",
];

/// A store row: elements of every content kind, some empty; every third
/// row carries a stale embedding that `embed` must replace.
fn synthetic(id: usize, elements: &[(u8, Vec<usize>)]) -> Document {
    let mut d = Document::new(format!("doc-{id:02}"));
    d.set_prop("n", id as i64);
    d.embedding = id.is_multiple_of(3).then(|| vec![0.5; 256]);
    for (kind, words) in elements {
        let text: String = words
            .iter()
            .map(|&w| WORDS[w])
            .collect::<Vec<_>>()
            .join(" ");
        let e = match kind % 4 {
            0 => Element::text(ElementType::Text, text),
            1 => Element::text(ElementType::Title, text),
            2 => {
                let mut e = Element::text(ElementType::Table, "");
                let mut t = Table::from_grid(&[vec!["engine".into(), text.clone()]], false);
                t.caption = (!text.is_empty()).then(|| "Table summary".to_string());
                e.table = Some(t);
                e
            }
            _ => {
                let mut e = Element::text(ElementType::Picture, text);
                e.image = Some(ImageInfo {
                    format: "png".into(),
                    width_px: 10,
                    height_px: 10,
                    summary: Some("wind sock".into()),
                    ocr_text: None,
                });
                e
            }
        };
        d.elements.push(e);
    }
    d
}

proptest! {
    /// Rows read straight from a store (shared with it, so `embed` may not
    /// write to them), any worker count and morsel size, injected failures.
    #[test]
    fn projected_store_sinks_match(
        docs in prop::collection::vec(
            prop::collection::vec((0u8..4, prop::collection::vec(0..WORDS.len(), 0..6)), 0..5),
            0..10,
        ),
        chain in 0..CHAINS.len(),
        threads in 1usize..5,
        failures in 0usize..3,
        seed in 0u64..1000,
    ) {
        let docs: Vec<Document> = docs.iter().enumerate().map(|(i, els)| synthetic(i, els)).collect();
        let (fail_rate, skip_failures) = [(0.0, false), (0.2, true), (0.2, false)][failures];
        let cfg = ExecConfig { threads, fail_rate, max_retries: 1, skip_failures, seed, ..ExecConfig::default() };
        let (fast, slow) = twins(cfg);
        for ctx in [&fast, &slow] {
            ctx.put_store("s", docs.iter().cloned().collect());
        }
        assert_projection_holds(&fast, &slow, |ctx| ctx.read_store("s").unwrap(), CHAINS[chain]);
        // The store's rows are untouched.
        let stored = fast.with_store("s", |s| s.scan().cloned().collect::<Vec<_>>()).unwrap();
        prop_assert_eq!(stored, docs);
    }
}
