//! The HNSW arena and its per-thread search scratch (DESIGN.md §5j): reuse
//! must leak no state between searches, layers or indexes, and the default
//! parameters must keep near-exact recall.

use aryn_index::{recall_at_k, FlatIndex, HnswIndex, ShardedHnsw, VectorIndex};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

fn random_vectors(n: usize, dims: usize, seed: u64) -> Vec<Vec<f32>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| (0..dims).map(|_| rng.gen_range(-1.0f32..1.0)).collect()).collect()
}

/// 256-dim vectors with the low intrinsic dimension real embeddings have:
/// seeded mixtures of 16 fixed directions. (Uniform random 256-dim vectors
/// have no neighbourhood structure; no graph at `ef_search` 40 finds their
/// exact top-10 — recall@10 is 0.70 before and after this layout.)
fn embedding_like(n: usize, seed: u64) -> Vec<Vec<f32>> {
    let basis = random_vectors(16, 256, 0xBA515);
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let mut v = vec![0.0f32; 256];
            for b in &basis {
                let weight = rng.gen_range(-1.0f32..1.0);
                v.iter_mut().zip(b).for_each(|(x, y)| *x += weight * y);
            }
            v
        })
        .collect()
}

/// Searches between the adds (on this index and on another one sharing the
/// thread's scratch) change nothing: same neighbours, same order, same bits.
#[test]
fn interleaved_searches_leave_no_trace_in_the_graph() {
    let vecs = random_vectors(400, 32, 41);
    let queries = random_vectors(25, 32, 43);
    let mut quiet = HnswIndex::with_dims(32);
    let mut busy = HnswIndex::with_dims(32);
    let mut other = HnswIndex::with_dims(32);
    for (i, v) in vecs.iter().enumerate() {
        quiet.add_slice(&format!("v{i}"), v).unwrap();
    }
    for (i, v) in vecs.iter().enumerate() {
        busy.add_slice(&format!("v{i}"), v).unwrap();
        let q = &queries[i % queries.len()];
        busy.search(q, 1 + i % 12).unwrap();
        if i % 3 == 0 {
            other.add_slice(&format!("o{i}"), q).unwrap();
            other.search(v, 5).unwrap();
        }
    }
    for q in &queries {
        assert_eq!(busy.search(q, 10).unwrap(), quiet.search(q, 10).unwrap());
    }
}

#[test]
fn default_parameters_keep_recall_and_compaction_keeps_answers() {
    let vecs = embedding_like(2000, 7);
    let queries = embedding_like(40, 11);
    let mut flat = FlatIndex::new(256);
    let mut hnsw = HnswIndex::with_dims(256);
    let mut sharded = ShardedHnsw::new(256, 256);
    for (i, v) in vecs.iter().enumerate() {
        let key = format!("v{i:04}");
        flat.add_slice(&key, v).unwrap();
        hnsw.add_slice(&key, v).unwrap();
        sharded.add_slice(&key, v).unwrap();
    }
    let recall = recall_at_k(&flat, &hnsw, &queries, 10).unwrap();
    assert!(recall >= 0.97, "monolithic recall@10 = {recall}");

    let top10 = |ix: &ShardedHnsw| -> Vec<BTreeSet<String>> {
        queries.iter().map(|q| ix.search(q, 10).unwrap().into_iter().map(|n| n.key).collect()).collect()
    };
    assert_eq!(sharded.sealed_count(), 7, "2000 / 256");
    let before = top10(&sharded);
    sharded.compact();
    assert_eq!(sharded.sealed_count(), 2, "1024-vector tiers");
    assert_eq!(sharded.len(), 2000);
    assert_eq!(top10(&sharded), before);
}

/// The one similarity kernel against an `f64` reference, across the lane
/// boundary (8) and the production width (256).
#[test]
fn dot_matches_an_f64_reference() {
    for len in [0, 1, 7, 8, 9, 255, 256] {
        let a = &random_vectors(1, len, 3)[0];
        let b = &random_vectors(1, len, 5)[0];
        let exact: f64 = a.iter().zip(b).map(|(x, y)| f64::from(*x) * f64::from(*y)).sum();
        let scale: f64 = a.iter().zip(b).map(|(x, y)| f64::from(x * y).abs()).sum();
        let got = f64::from(aryn_index::vector::dot(a, b));
        assert!((got - exact).abs() <= 1e-5 * scale, "len {len}: {got} vs {exact}");
    }
}
