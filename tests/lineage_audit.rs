//! Explainability audit: the paper's tenet that the system "provide[s] a
//! detailed trace of how the answer was computed, including the provenance
//! of intermediate results" (§2).

use aryn::prelude::*;
use std::sync::Arc;

fn client(seed: u64) -> LlmClient {
    LlmClient::new(Arc::new(MockLlm::new(&GPT4_SIM, SimConfig::perfect(seed))))
}

#[test]
fn every_transform_leaves_a_lineage_record() {
    let ctx = Context::new();
    let corpus = Corpus::ntsb(1, 4);
    ctx.register_corpus("ntsb", &corpus);
    let c = client(1);
    let docs = ctx
        .read_lake("ntsb")
        .unwrap()
        .partition("ntsb", PartitionCfg::default())
        .extract_properties(&c, obj! { "us_state_abbrev" => "string" })
        .explode()
        .embed()
        .collect()
        .unwrap();
    let chunk = &docs[0];
    let chain: Vec<&str> = chunk.lineage.iter().map(|l| l.transform.as_str()).collect();
    assert_eq!(chain, vec!["partition", "extract_properties", "explode", "embed"]);
    // The explode record points back at the parent document.
    let explode = chunk.lineage.iter().find(|l| l.transform == "explode").unwrap();
    assert_eq!(explode.sources, vec![chunk.prop("parent_id").unwrap().as_str().unwrap().to_string()]);
    // LLM-powered steps record their calls.
    let extract = chunk.lineage.iter().find(|l| l.transform == "extract_properties").unwrap();
    assert_eq!(extract.llm_calls, 1);
}

#[test]
fn reduce_records_group_provenance() {
    let ctx = Context::new();
    let docs: Vec<Document> = (0..6)
        .map(|i| {
            let mut d = Document::new(format!("d{i}"));
            d.set_prop("state", if i % 2 == 0 { "AK" } else { "TX" });
            d
        })
        .collect();
    let out = ctx
        .read_docs(docs)
        .reduce_by_key("state", vec![("n".into(), Agg::Count)])
        .collect()
        .unwrap();
    for group in &out {
        let rec = &group.lineage[0];
        assert_eq!(rec.transform, "reduce_by_key");
        assert_eq!(rec.sources.len(), 3, "every contributing doc is recorded");
    }
}

#[test]
fn lineage_survives_disk_materialization() {
    let ctx = Context::new();
    let corpus = Corpus::ntsb(2, 2);
    ctx.register_corpus("ntsb", &corpus);
    let dir = std::env::temp_dir().join("aryn-lineage-audit");
    let _ = std::fs::remove_dir_all(&dir);
    ctx.read_lake("ntsb")
        .unwrap()
        .partition("ntsb", PartitionCfg::default())
        .materialize_to("p", dir.clone())
        .count()
        .unwrap();
    let loaded = sycamore::load_materialized(&*ctx.vfs(), &dir.join("p.docs")).unwrap();
    assert_eq!(loaded[0].lineage[0].transform, "partition");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn luna_traces_account_for_all_rows_and_costs() {
    let seed = 4;
    let ctx = Context::new();
    let corpus = Corpus::ntsb(seed, 20);
    ctx.register_corpus("ntsb", &corpus);
    let c = client(seed);
    ingest_lake(&ctx, "ntsb", "ntsb", &c, luna::ntsb_schema(), Detector::DetrSim).unwrap();
    let luna = Luna::new(
        ctx,
        &["ntsb"],
        LunaConfig {
            sim: SimConfig::with_seed(seed),
            ..LunaConfig::default()
        },
    )
    .unwrap();
    let ans = luna
        .ask("What percent of environmentally caused incidents were due to wind?")
        .unwrap();
    let traces = &ans.result.traces;
    // One trace per plan node, in topological order, with consistent flow:
    assert_eq!(traces.len(), ans.optimized_plan.nodes.len());
    let scan = &traces[0];
    assert_eq!(scan.rows_out, 20);
    // Each filter's rows_in equals the scan's rows_out (shared input).
    for t in traces.iter().filter(|t| t.op_kind.ends_with("Filter") || t.op_kind.ends_with("filter")) {
        assert_eq!(t.rows_in, 20);
        assert!(t.rows_out <= t.rows_in);
    }
    // Scalars recorded for count/math nodes.
    let scalars = traces.iter().filter(|t| t.scalar.is_some()).count();
    assert!(scalars >= 3, "{scalars}");
    // Costs are non-negative and total to the result's accounting.
    assert!(traces.iter().all(|t| t.llm.usage.cost_usd >= 0.0));
}

#[test]
fn audit_can_reconstruct_why_a_document_was_kept() {
    // The audit trail: a kept document's lineage shows the filter predicate
    // that admitted it.
    let ctx = Context::new();
    let corpus = Corpus::ntsb(11, 15);
    ctx.register_corpus("ntsb", &corpus);
    let c = client(11);
    let kept = ctx
        .read_lake("ntsb")
        .unwrap()
        .llm_filter(&c, "caused by environmental factors")
        .collect()
        .unwrap();
    for d in &kept {
        let rec = d
            .lineage
            .iter()
            .find(|l| l.transform == "llm_filter")
            .expect("filter lineage present");
        assert_eq!(rec.detail, "caused by environmental factors");
        assert!(rec.llm_calls >= 1);
    }
    // And it survives the binary codec persisted documents go through.
    let mut bytes = Vec::new();
    aryn_core::serialize::encode_document(&kept[0], &mut bytes).unwrap();
    let back = aryn_core::serialize::decode_document(&bytes).unwrap();
    assert_eq!(back.lineage, kept[0].lineage);
    assert!(back.lineage.iter().any(|l| l.transform == "llm_filter"));
}
