//! End-to-end tests of the Sycamore DocSet engine.

use aryn_core::{obj, Document, ElementType, Value};
use aryn_docgen::Corpus;
use aryn_llm::{LlmClient, MockLlm, SimConfig, GPT4_SIM, LLAMA7B_SIM};
use std::sync::Arc;
use sycamore::{Agg, Context, ExecConfig, PartitionCfg};

fn perfect_client() -> LlmClient {
    LlmClient::new(Arc::new(MockLlm::new(&GPT4_SIM, SimConfig::perfect(7))))
}

fn ntsb_ctx(n: usize) -> (Context, Corpus) {
    let ctx = Context::new();
    let corpus = Corpus::ntsb(1, n);
    ctx.register_corpus("ntsb", &corpus);
    (ctx, corpus)
}

#[test]
fn figure3_pipeline_partition_extract_explode_embed() {
    // The paper's Figure 3 script end-to-end.
    let (ctx, corpus) = ntsb_ctx(4);
    let client = perfect_client();
    let schema = obj! {
        "us_state_abbrev" => "string",
        "probable_cause" => "string",
        "weather_related" => "bool",
    };
    let ds = ctx
        .read_lake("ntsb")
        .unwrap()
        .partition("ntsb", PartitionCfg::default())
        .extract_properties(&client, schema)
        .explode()
        .embed();
    let docs = ds.collect().unwrap();
    assert!(docs.len() > corpus.len() * 5, "exploded chunks expected");
    // Chunks inherit extracted parent properties (Figure 4's output shape).
    let with_state = docs
        .iter()
        .filter(|d| d.prop("us_state_abbrev").is_some_and(|v| !v.is_null()))
        .count();
    assert!(with_state * 10 >= docs.len() * 8, "{with_state}/{}", docs.len());
    assert!(docs.iter().all(|d| d.embedding.is_some()));
    // Chunks carry full provenance.
    let chunk = &docs[0];
    let transforms: Vec<&str> = chunk.lineage.iter().map(|l| l.transform.as_str()).collect();
    assert!(transforms.contains(&"partition"));
    assert!(transforms.contains(&"extract_properties"));
    assert!(transforms.contains(&"explode"));
    assert!(transforms.contains(&"embed"));
}

#[test]
fn extraction_accuracy_against_ground_truth() {
    let (ctx, corpus) = ntsb_ctx(20);
    let client = perfect_client();
    let docs = ctx
        .read_lake("ntsb")
        .unwrap()
        .partition("ntsb", PartitionCfg::default())
        .extract_properties(&client, obj! { "us_state_abbrev" => "string" })
        .collect()
        .unwrap();
    let mut correct = 0;
    for d in &docs {
        let truth = corpus.record_for(d.id.as_str()).unwrap();
        if d.prop("us_state_abbrev") == truth.get("us_state_abbrev") {
            correct += 1;
        }
    }
    assert!(correct >= 17, "state extraction {correct}/20");
}

#[test]
fn map_filter_flat_map_compose() {
    let ctx = Context::new();
    let docs: Vec<Document> = (0..10)
        .map(|i| {
            let mut d = Document::new(format!("d{i}"));
            d.set_prop("n", i as i64);
            d
        })
        .collect();
    let out = ctx
        .read_docs(docs)
        .filter("even", |d| d.prop("n").and_then(Value::as_int).unwrap_or(0) % 2 == 0)
        .map("double", |mut d| {
            let n = d.prop("n").and_then(Value::as_int).unwrap_or(0);
            d.set_prop("n2", n * 2);
            d
        })
        .flat_map("dup", |d| vec![d.clone(), d])
        .collect()
        .unwrap();
    assert_eq!(out.len(), 10); // 5 evens duplicated
    assert_eq!(out[0].prop("n2").unwrap().as_int(), Some(0));
}

#[test]
fn reduce_by_key_with_aggregates_handles_missing() {
    let ctx = Context::new();
    let mut docs = Vec::new();
    for (i, (state, rev)) in [
        ("AK", Some(10.0)),
        ("AK", Some(30.0)),
        ("TX", None),
        ("TX", Some(5.0)),
    ]
    .iter()
    .enumerate()
    {
        let mut d = Document::new(format!("d{i}"));
        d.set_prop("state", *state);
        if let Some(r) = rev {
            d.set_prop("revenue", *r);
        }
        docs.push(d);
    }
    // A doc with no key at all groups under null.
    docs.push(Document::new("nokey"));
    let out = ctx
        .read_docs(docs)
        .reduce_by_key(
            "state",
            vec![
                ("total".into(), Agg::Sum("revenue".into())),
                ("avg".into(), Agg::Avg("revenue".into())),
                ("n".into(), Agg::Count),
            ],
        )
        .sort_by("state", false)
        .collect()
        .unwrap();
    assert_eq!(out.len(), 3);
    // Null group sorts first.
    assert!(out[0].prop("state").unwrap().is_null());
    let ak = &out[1];
    assert_eq!(ak.prop("state").unwrap().as_str(), Some("AK"));
    assert_eq!(ak.prop("total").unwrap().as_float(), Some(40.0));
    assert_eq!(ak.prop("avg").unwrap().as_float(), Some(20.0));
    assert_eq!(ak.prop("n").unwrap().as_int(), Some(2));
    let tx = &out[2];
    assert_eq!(tx.prop("total").unwrap().as_float(), Some(5.0), "missing skipped");
    assert_eq!(tx.prop("count").unwrap().as_int(), Some(2), "count includes missing");
}

#[test]
fn sort_and_limit() {
    let ctx = Context::new();
    let docs: Vec<Document> = [3i64, 1, 2]
        .iter()
        .enumerate()
        .map(|(i, n)| {
            let mut d = Document::new(format!("d{i}"));
            d.set_prop("n", *n);
            d
        })
        .collect();
    let out = ctx
        .read_docs(docs)
        .sort_by("n", true)
        .limit(2)
        .collect()
        .unwrap();
    let ns: Vec<i64> = out.iter().map(|d| d.prop("n").unwrap().as_int().unwrap()).collect();
    assert_eq!(ns, vec![3, 2]);
}

#[test]
fn llm_filter_keeps_matching_documents() {
    let (ctx, corpus) = ntsb_ctx(12);
    let client = perfect_client();
    let kept = ctx
        .read_lake("ntsb")
        .unwrap()
        .llm_filter(&client, "the incident was caused by environmental factors")
        .collect()
        .unwrap();
    let truth: Vec<&str> = corpus
        .docs
        .iter()
        .filter(|d| {
            d.record.get("weather_related").and_then(Value::as_bool) == Some(true)
        })
        .map(|d| d.id.as_str())
        .collect();
    let kept_ids: Vec<&str> = kept.iter().map(|d| d.id.as_str()).collect();
    // Perfect model + honest semantics should agree with ground truth on
    // most documents.
    let agree = truth.iter().filter(|t| kept_ids.contains(t)).count();
    assert!(agree * 10 >= truth.len() * 8, "{agree}/{}", truth.len());
}

#[test]
fn summarize_all_is_hierarchical_and_window_safe() {
    let (ctx, _) = ntsb_ctx(30);
    // Small-window model forces multiple reduction rounds.
    let small = LlmClient::new(Arc::new(MockLlm::new(&LLAMA7B_SIM, SimConfig::perfect(3))));
    let out = ctx
        .read_lake("ntsb")
        .unwrap()
        .summarize_all(&small, "summarize the incidents")
        .collect()
        .unwrap();
    assert_eq!(out.len(), 1);
    let summary = out[0].prop("summary").unwrap().as_str().unwrap();
    assert!(!summary.is_empty());
    assert_eq!(out[0].prop("source_count").unwrap().as_int(), Some(30));
    assert_eq!(out[0].lineage[0].sources.len(), 30);
}

#[test]
fn parallel_execution_matches_sequential() {
    let (ctx, _) = ntsb_ctx(12);
    let client = perfect_client();
    let build = |c: &Context| {
        c.read_lake("ntsb")
            .unwrap()
            .partition("ntsb", PartitionCfg::default())
            .extract_properties(&client, obj! { "us_state_abbrev" => "string" })
            .explode()
    };
    let seq = build(&ctx).collect().unwrap();
    let par_ctx = ctx.with_exec(ExecConfig {
        threads: 4,
        ..ExecConfig::default()
    });
    let par = build(&par_ctx).collect().unwrap();
    assert_eq!(seq.len(), par.len());
    // Order and content identical (ordered parallel collection).
    for (a, b) in seq.iter().zip(&par) {
        assert_eq!(a.id, b.id);
        assert_eq!(a.properties, b.properties);
    }
}

#[test]
fn injected_worker_failures_are_retried() {
    let (ctx, _) = ntsb_ctx(20);
    let flaky = ctx.with_exec(ExecConfig {
        threads: 4,
        fail_rate: 0.3,
        max_retries: 6,
        ..ExecConfig::default()
    });
    let (docs, stats) = flaky
        .read_lake("ntsb")
        .unwrap()
        .map("identity", |d| d)
        .collect_stats()
        .unwrap();
    assert_eq!(docs.len(), 20, "all docs survive despite failures");
    assert!(stats.total_retries() > 0, "failures should have been injected");
}

#[test]
fn exhausted_retries_fail_or_skip_by_config() {
    let (ctx, _) = ntsb_ctx(5);
    // fail_rate 1.0: every attempt fails.
    let doomed = ctx.with_exec(ExecConfig {
        threads: 1,
        fail_rate: 1.0,
        max_retries: 2,
        skip_failures: false,
        ..ExecConfig::default()
    });
    assert!(doomed
        .read_lake("ntsb")
        .unwrap()
        .map("id", |d| d)
        .collect()
        .is_err());
    let skipping = ctx.with_exec(ExecConfig {
        threads: 1,
        fail_rate: 1.0,
        max_retries: 2,
        skip_failures: true,
        ..ExecConfig::default()
    });
    let (docs, stats) = skipping
        .read_lake("ntsb")
        .unwrap()
        .map("id", |d| d)
        .collect_stats()
        .unwrap();
    assert!(docs.is_empty());
    assert_eq!(stats.total_failed_docs(), 5);
}

#[test]
fn materialize_caches_and_reloads() {
    let (ctx, _) = ntsb_ctx(3);
    let dir = std::env::temp_dir().join("sycamore-mat-test");
    let _ = std::fs::remove_dir_all(&dir);
    let n = ctx
        .read_lake("ntsb")
        .unwrap()
        .partition("ntsb", PartitionCfg::default())
        .materialize_to("partitioned", dir.clone())
        .count()
        .unwrap();
    assert_eq!(n, 3);
    // Read back from the in-memory materialization without re-partitioning.
    let again = ctx.read_materialized("partitioned").unwrap().collect().unwrap();
    assert_eq!(again.len(), 3);
    assert!(!again[0].elements.is_empty());
    // And from disk.
    let from_disk = sycamore::load_materialized(&dir.join("partitioned.docs")).unwrap();
    assert_eq!(from_disk.len(), 3);
    assert_eq!(from_disk[0], again[0]);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn writers_populate_sinks() {
    let (ctx, _) = ntsb_ctx(5);
    let ds = ctx
        .read_lake("ntsb")
        .unwrap()
        .partition("ntsb", PartitionCfg::default());
    assert_eq!(ds.write_store("ntsb_docs").unwrap(), 5);
    assert_eq!(ctx.with_store("ntsb_docs", |s| s.len()).unwrap(), 5);
    assert!(ds.clone().explode().write_keyword("ntsb_kw").unwrap() > 5);
    let hits = ctx
        .with_keyword("ntsb_kw", |k| k.search("probable cause", 5))
        .unwrap();
    assert!(!hits.is_empty());
    let n = ds.clone().explode().embed().write_vector("ntsb_vec").unwrap();
    assert!(n > 5);
    let q = ctx.embedder().embed("wind during approach");
    let nn = ctx.with_vector("ntsb_vec", |v| v.search(&q, 3)).unwrap().unwrap();
    assert_eq!(nn.len(), 3);
}

#[test]
fn llm_query_uses_template_and_selector() {
    let (ctx, _) = ntsb_ctx(3);
    let client = perfect_client();
    let docs = ctx
        .read_lake("ntsb")
        .unwrap()
        .partition("ntsb", PartitionCfg::default())
        .llm_query_selected(
            &client,
            "What was the probable cause?",
            "cause_answer",
            sycamore::ElementSelector::Types(vec![ElementType::Text]),
        )
        .collect()
        .unwrap();
    let answered = docs
        .iter()
        .filter(|d| d.prop("cause_answer").and_then(Value::as_str).is_some_and(|s| !s.is_empty()))
        .count();
    assert_eq!(answered, docs.len());
}

#[test]
fn stats_report_stage_shapes() {
    let (ctx, _) = ntsb_ctx(6);
    let (docs, stats) = ctx
        .read_lake("ntsb")
        .unwrap()
        .partition("ntsb", PartitionCfg::default())
        .explode()
        .sort_by("page", false)
        .limit(10)
        .collect_stats()
        .unwrap();
    assert_eq!(docs.len(), 10);
    assert_eq!(stats.stages.len(), 3, "{}", stats.render());
    assert!(stats.stages[0].name.contains("partition"));
    assert!(stats.stages[0].name.contains("explode"));
    assert_eq!(stats.stages[0].rows_in, 6);
    assert!(stats.stages[0].rows_out > 30);
    assert_eq!(stats.stages[2].rows_out, 10);
}

#[test]
fn plan_is_inspectable_before_execution() {
    let (ctx, _) = ntsb_ctx(1);
    let ds = ctx
        .read_lake("ntsb")
        .unwrap()
        .partition("ntsb", PartitionCfg::default())
        .explode()
        .limit(5);
    assert_eq!(ds.plan(), vec!["partition", "explode", "limit(5)"]);
}

#[test]
fn cost_accounting_flows_through_meter() {
    let (ctx, _) = ntsb_ctx(4);
    let client = perfect_client();
    ctx.read_lake("ntsb")
        .unwrap()
        .llm_filter(&client, "caused by wind")
        .collect()
        .unwrap();
    let stats = client.stats();
    assert_eq!(stats.calls, 4);
    assert!(stats.usage.cost_usd > 0.0);
    assert!(stats.usage.input_tokens > 100);
}

#[test]
fn materialize_checkpoint_skips_upstream_recomputation() {
    let (ctx, _) = ntsb_ctx(6);
    let client = perfect_client();
    let ds = ctx
        .read_lake("ntsb")
        .unwrap()
        .partition("ntsb", PartitionCfg::default())
        .extract_properties(&client, obj! { "us_state_abbrev" => "string" })
        .materialize("checkpoint")
        .explode();
    // First run executes everything and fills the cache.
    let first = ds.collect().unwrap();
    let calls_after_first = client.stats().calls;
    assert_eq!(calls_after_first, 6, "one extraction call per document");
    // Second run resumes from the checkpoint: no new LLM calls, identical
    // output, and the stats say so.
    let (second, stats) = ds.collect_stats().unwrap();
    assert_eq!(second, first);
    assert_eq!(client.stats().calls, calls_after_first, "no recomputation");
    assert!(
        stats.stages[0].name.contains("cache hit"),
        "{}",
        stats.render()
    );
}

#[test]
fn changed_upstream_plan_invalidates_materialize_checkpoint() {
    // Regression: resume used to key the materialize cache by name alone, so
    // a plan with a *different* upstream prefix silently reused a stale
    // checkpoint. The fingerprint stamp must force recomputation.
    let (ctx, _) = ntsb_ctx(4);
    let client = perfect_client();
    let warm = ctx
        .read_lake("ntsb")
        .unwrap()
        .llm_filter(&client, "caused by wind")
        .materialize("ckpt")
        .collect()
        .unwrap();
    let calls_after_warm = client.stats().calls;
    assert_eq!(calls_after_warm, 4);
    // Same name, different upstream op: must NOT reuse the checkpoint.
    let changed = ctx
        .read_lake("ntsb")
        .unwrap()
        .llm_filter(&client, "engine failure during flight")
        .materialize("ckpt")
        .collect()
        .unwrap();
    assert_eq!(
        client.stats().calls,
        calls_after_warm + 4,
        "changed prefix must recompute, not serve the stale checkpoint"
    );
    // The checkpoint now belongs to the new plan: re-running it resumes.
    let (rerun, stats) = ctx
        .read_lake("ntsb")
        .unwrap()
        .llm_filter(&client, "engine failure during flight")
        .materialize("ckpt")
        .collect_stats()
        .unwrap();
    assert_eq!(rerun, changed);
    assert_eq!(client.stats().calls, calls_after_warm + 4, "resume: no new calls");
    assert!(stats.stages[0].cache_hit, "{}", stats.render());
    // And the identical original plan no longer matches the overwritten
    // checkpoint, so it recomputes rather than serving the other filter's rows.
    let cold = ctx
        .read_lake("ntsb")
        .unwrap()
        .llm_filter(&client, "caused by wind")
        .materialize("ckpt")
        .collect()
        .unwrap();
    assert_eq!(cold, warm);
    assert_eq!(client.stats().calls, calls_after_warm + 8);
}

#[test]
fn llm_classify_assigns_labels_from_closed_set() {
    let (ctx, corpus) = ntsb_ctx(12);
    let client = perfect_client();
    let docs = ctx
        .read_lake("ntsb")
        .unwrap()
        .llm_classify(
            &client,
            "What was the root cause category of the incident?",
            &["environmental", "mechanical", "pilot error", "other"],
            "assigned_category",
        )
        .collect()
        .unwrap();
    let mut agree = 0;
    for d in &docs {
        let got = d.prop("assigned_category").and_then(Value::as_str).unwrap_or("");
        assert!(
            ["environmental", "mechanical", "pilot error", "other"].contains(&got),
            "label {got:?} outside the closed set"
        );
        let truth = corpus
            .record_for(d.id.as_str())
            .unwrap()
            .get("cause_category")
            .unwrap()
            .as_str()
            .unwrap();
        if got == truth {
            agree += 1;
        }
    }
    assert!(agree >= 8, "classification agreement {agree}/12");
    assert!(docs[0].lineage.iter().any(|l| l.transform == "llm_classify"));
}

#[test]
fn summarize_sections_walks_the_semantic_tree() {
    let (ctx, _) = ntsb_ctx(3);
    let client = perfect_client();
    let docs = ctx
        .read_lake("ntsb")
        .unwrap()
        .partition("ntsb", PartitionCfg::default())
        .summarize_sections(&client)
        .collect()
        .unwrap();
    let mut any = 0;
    let mut saw_analysis = false;
    for d in &docs {
        let Some(summaries) = d.prop("section_summaries").and_then(Value::as_object) else {
            continue;
        };
        any += summaries.len();
        for (slug, summary) in summaries {
            assert!(!slug.is_empty());
            assert!(
                summary.as_str().is_some_and(|s| !s.is_empty()),
                "empty summary for {slug}"
            );
        }
        saw_analysis |= summaries.keys().any(|k| k.contains("analysis"));
    }
    assert!(any >= 6, "sections summarized across docs: {any}");
    // Detector noise can fold a section into its neighbour in any one
    // document, but the Analysis section survives somewhere in the corpus.
    assert!(saw_analysis);
    assert!(client.stats().calls >= any as u64);
}
