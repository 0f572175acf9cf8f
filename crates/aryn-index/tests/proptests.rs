//! Property-based tests for the index substrates.

use aryn_core::{obj, Document, Value};
use aryn_index::{DocStore, FlatIndex, HnswIndex, KeywordIndex, Predicate, VectorIndex};
use proptest::prelude::*;

fn unit_vectors(n: usize, dims: usize) -> impl Strategy<Value = Vec<Vec<f32>>> {
    prop::collection::vec(
        prop::collection::vec(-1.0f32..1.0, dims..=dims).prop_filter_map("nonzero", |v| {
            let norm: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
            if norm < 1e-3 {
                None
            } else {
                Some(v.into_iter().map(|x| x / norm).collect::<Vec<f32>>())
            }
        }),
        n..=n,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn flat_search_is_sorted_and_bounded(vecs in unit_vectors(24, 8), k in 1usize..30) {
        let mut ix = FlatIndex::new(8);
        for (i, v) in vecs.iter().enumerate() {
            ix.add(&format!("v{i}"), v.clone()).unwrap();
        }
        let out = ix.search(&vecs[0], k).unwrap();
        prop_assert!(out.len() <= k.min(24));
        for w in out.windows(2) {
            prop_assert!(w[0].score >= w[1].score);
        }
        // Self-query: the vector itself is the top hit.
        prop_assert_eq!(out[0].key.as_str(), "v0");
    }

    #[test]
    fn hnsw_top1_matches_flat_on_small_sets(vecs in unit_vectors(20, 8)) {
        let mut flat = FlatIndex::new(8);
        let mut hnsw = HnswIndex::with_dims(8);
        for (i, v) in vecs.iter().enumerate() {
            flat.add(&format!("v{i}"), v.clone()).unwrap();
            hnsw.add(&format!("v{i}"), v.clone()).unwrap();
        }
        for q in vecs.iter().take(5) {
            let a = flat.search(q, 1).unwrap();
            let b = hnsw.search(q, 1).unwrap();
            // Scores must agree even if distinct keys tie.
            prop_assert!((a[0].score - b[0].score).abs() < 1e-4);
        }
    }

    #[test]
    fn hnsw_never_returns_duplicates(vecs in unit_vectors(30, 8), k in 1usize..12) {
        let mut hnsw = HnswIndex::with_dims(8);
        for (i, v) in vecs.iter().enumerate() {
            hnsw.add(&format!("v{i}"), v.clone()).unwrap();
        }
        let out = hnsw.search(&vecs[3], k).unwrap();
        let mut keys: Vec<&str> = out.iter().map(|n| n.key.as_str()).collect();
        let before = keys.len();
        keys.sort_unstable();
        keys.dedup();
        prop_assert_eq!(keys.len(), before);
    }

    #[test]
    fn bm25_unique_term_doc_ranks_first(filler in "[a-d ]{10,60}") {
        let mut ix = KeywordIndex::new();
        for i in 0..10 {
            ix.add(format!("doc{i}"), &format!("{filler} common words here"));
        }
        ix.add("target", &format!("{filler} zephyrquake common words"));
        let hits = ix.search("zephyrquake", 3);
        prop_assert_eq!(hits[0].key.as_str(), "target");
    }

    #[test]
    fn bm25_scores_sorted_and_k_bounded(k in 1usize..8) {
        let mut ix = KeywordIndex::new();
        for i in 0..12 {
            let reps = "wind ".repeat(i + 1);
            ix.add(format!("d{i}"), &format!("{reps} calm air report"));
        }
        let hits = ix.search("wind report", k);
        prop_assert!(hits.len() <= k);
        for w in hits.windows(2) {
            prop_assert!(w[0].score >= w[1].score);
        }
    }

    #[test]
    fn predicate_not_is_complement(year in 1990i64..2030, split in 1990i64..2030) {
        let mut store = DocStore::new();
        for i in 0..20 {
            let mut d = Document::new(format!("d{i}"));
            d.properties = obj! { "year" => year + (i % 7) };
            store.try_put(d).unwrap();
        }
        let p = Predicate::Range {
            path: "year".into(),
            lo: Some(Value::Int(split)),
            hi: None,
        };
        let yes = store.filter(&p).len();
        let no = store.filter(&Predicate::Not(Box::new(p))).len();
        prop_assert_eq!(yes + no, 20);
    }

    #[test]
    fn predicate_and_is_intersection(a in 0i64..5, b in 0i64..5) {
        let mut store = DocStore::new();
        for i in 0..25i64 {
            let mut d = Document::new(format!("d{i}"));
            d.properties = obj! { "x" => i % 5, "y" => (i / 5) % 5 };
            store.try_put(d).unwrap();
        }
        let px = Predicate::Eq("x".into(), Value::Int(a));
        let py = Predicate::Eq("y".into(), Value::Int(b));
        let and = Predicate::And(vec![px.clone(), py.clone()]);
        let n_and = store.filter(&and).len();
        let xs: Vec<&str> = store.filter(&px).iter().map(|d| d.id.as_str()).collect();
        let both = store
            .filter(&py)
            .iter()
            .filter(|d| xs.contains(&d.id.as_str()))
            .count();
        prop_assert_eq!(n_and, both);
        // Or is the union (inclusion-exclusion).
        let or = Predicate::Or(vec![px.clone(), py.clone()]);
        prop_assert_eq!(
            store.filter(&or).len(),
            store.filter(&px).len() + store.filter(&py).len() - n_and
        );
    }

    #[test]
    fn facet_counts_sum_to_docs_with_field(n in 1usize..30) {
        let mut store = DocStore::new();
        for i in 0..n {
            let mut d = Document::new(format!("d{i}"));
            if i % 3 != 0 {
                d.set_prop("state", ["AK", "TX", "WA"][i % 3]);
            }
            store.try_put(d).unwrap();
        }
        let total: usize = store.facet("state").iter().map(|(_, c)| *c).sum();
        let with_field = store
            .scan()
            .filter(|d| d.prop("state").is_some())
            .count();
        prop_assert_eq!(total, with_field);
    }
}
