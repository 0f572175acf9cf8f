//! E13 — index substrate performance: BM25 search latency, HNSW vs. flat
//! vector search latency, and HNSW recall@10 (printed before the criterion
//! timings); then the document store's structured reads over a pinned
//! 1 500-document NTSB snapshot (a filter with a count, a filter with a
//! one-path projection, a keyed count: the reads behind a structured Luna
//! question) and `Luna::execute` of a keyed and a pushed-down count over it.
//!
//! Run with: `cargo bench -p bench --bench index_perf`

use aryn::aryn_docgen::stream::extracted_document;
use aryn::aryn_index::{recall_at_k, DocStore, FlatIndex, HnswIndex, KeywordIndex, Predicate, VectorIndex};
use aryn::aryn_llm::{EmbeddingModel, HashedBowEmbedder};
use aryn::prelude::*;
use aryn::sycamore::transforms::GroupFold;
use criterion::{criterion_group, criterion_main, Criterion};
use std::sync::Arc;

fn build_fixture(n: usize) -> (KeywordIndex, FlatIndex, HnswIndex, Vec<Vec<f32>>) {
    let corpus = Corpus::ntsb(5, n);
    let embedder = Arc::new(HashedBowEmbedder::new(256, 5));
    let mut kw = KeywordIndex::new();
    let mut flat = FlatIndex::new(256);
    let mut hnsw = HnswIndex::with_dims(256);
    for d in &corpus.docs {
        let text = d.raw.full_text();
        kw.add(d.id.clone(), &text);
        let v = embedder.embed(&text);
        flat.add(&d.id, v.clone()).unwrap();
        hnsw.add(&d.id, v).unwrap();
    }
    let queries: Vec<Vec<f32>> = [
        "wind gusts during the landing approach",
        "engine failure and forced landing",
        "fog obscured visibility near the coast",
        "fuel contamination in the tank",
        "probable cause pilot error",
    ]
    .iter()
    .map(|q| embedder.embed(q))
    .collect();
    (kw, flat, hnsw, queries)
}

fn bench_indexes(c: &mut Criterion) {
    let (kw, flat, hnsw, queries) = build_fixture(400);

    // Recall table first (accuracy context for the latency numbers).
    let recall = recall_at_k(&flat, &hnsw, &queries, 10).unwrap();
    println!("\nE13: HNSW recall@10 vs exact search on 400 docs: {recall:.3}\n");

    let mut g = c.benchmark_group("index_search");
    g.sample_size(30);
    g.bench_function("bm25_search", |b| {
        b.iter(|| kw.search("wind during landing approach", 10))
    });
    g.bench_function("vector_flat_search", |b| {
        b.iter(|| flat.search(&queries[0], 10).unwrap())
    });
    g.bench_function("vector_hnsw_search", |b| {
        b.iter(|| hnsw.search(&queries[0], 10).unwrap())
    });
    g.finish();

    let mut g = c.benchmark_group("index_build");
    g.sample_size(10);
    let corpus = Corpus::ntsb(5, 100);
    let embedder = HashedBowEmbedder::new(256, 5);
    let vectors: Vec<(String, Vec<f32>)> = corpus
        .docs
        .iter()
        .map(|d| (d.id.clone(), embedder.embed(&d.raw.full_text())))
        .collect();
    g.bench_function("hnsw_insert_100", |b| {
        b.iter(|| {
            let mut ix = HnswIndex::with_dims(256);
            for (k, v) in &vectors {
                ix.add(k, v.clone()).unwrap();
            }
            ix.len()
        })
    });
    g.bench_function("bm25_index_100", |b| {
        b.iter(|| {
            let mut ix = KeywordIndex::new();
            for d in &corpus.docs {
                ix.add(d.id.clone(), &d.raw.full_text());
            }
            ix.len()
        })
    });
    g.finish();

    // Crossover: at larger corpus sizes the graph search beats the scan.
    let mut g = c.benchmark_group("search_at_scale_4000");
    g.sample_size(20);
    let mut rng_seed = 0u64;
    let rand_vec = |seed: &mut u64| -> Vec<f32> {
        let mut v = Vec::with_capacity(256);
        for i in 0..256u64 {
            *seed = seed.wrapping_mul(6364136223846793005).wrapping_add(i | 1);
            v.push(((*seed >> 33) as f32 / (1u64 << 31) as f32) - 1.0);
        }
        let n: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
        v.iter().map(|x| x / n).collect()
    };
    let mut flat_big = FlatIndex::new(256);
    let mut hnsw_big = HnswIndex::with_dims(256);
    for i in 0..4000 {
        let v = rand_vec(&mut rng_seed);
        flat_big.add(&format!("v{i}"), v.clone()).unwrap();
        hnsw_big.add(&format!("v{i}"), v).unwrap();
    }
    let q = rand_vec(&mut rng_seed);
    g.bench_function("flat_4000", |b| b.iter(|| flat_big.search(&q, 10).unwrap()));
    g.bench_function("hnsw_4000", |b| b.iter(|| hnsw_big.search(&q, 10).unwrap()));
    g.finish();

    // Warm reads: the first read of each builds the columns and the
    // visible-entry plan the timed ones reuse.
    let mut g = c.benchmark_group("store_reads_1500");
    g.sample_size(500);
    let store: DocStore = Corpus::ntsb(11, 1500).docs.iter().map(extracted_document).collect();
    let snap = store.snapshot();
    let texas = Predicate::Eq("us_state_abbrev".into(), Value::from("TX")).compile();
    g.bench_function("filter_count", |b| b.iter(|| snap.filter_shared(&texas).count()));
    g.bench_function("filter_project_one_path", |b| {
        b.iter(|| {
            let mut fatal = 0;
            snap.project(&texas, &["fatal"], |_, v| fatal += v[0].and_then(Value::as_int).unwrap_or(0));
            fatal
        })
    });
    // A keyed count (the group-by under "Which state had the most
    // incidents?") as Luna's `aggregate` folds a selection: each distinct
    // stored state finds its group once, and no row is read.
    let all = Predicate::And(Vec::new()).compile();
    let aggs = [("value".to_string(), Agg::Count)];
    g.bench_function("keyed_count", |b| {
        b.iter(|| {
            let mut fold = GroupFold::new("us_state_abbrev", &aggs);
            snap.project_grouped(&all, "us_state_abbrev", &[], |slot, key, _, v| {
                let g = *slot.get_or_insert_with(|| fold.slot(key));
                fold.fold_at(g, v)
            });
            fold.finish().len()
        })
    });
    // The same question's optimized plan and a pushed-down count, through
    // `Luna::execute` (pins, the analyzer gate, operator spans).
    let ctx = Context::new();
    ctx.put_store("ntsb", store);
    let luna = Luna::new(ctx, &["ntsb"], LunaConfig::default()).unwrap();
    let keyed = luna.ask("Which state had the most incidents?").unwrap().optimized_plan;
    g.bench_function("luna_execute_keyed_count", |b| b.iter(|| luna.execute(&keyed).unwrap()));
    let count = luna.ask("How many incidents occurred in Texas?").unwrap().optimized_plan;
    g.bench_function("luna_execute_count", |b| b.iter(|| luna.execute(&count).unwrap()));
    g.finish();
}

criterion_group!(benches, bench_indexes);
criterion_main!(benches);
