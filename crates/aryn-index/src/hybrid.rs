//! Hybrid retrieval: reciprocal-rank fusion of keyword and vector hits.
//!
//! RAG stacks combine lexical and semantic retrieval; RRF is the standard
//! score-free fusion. `score(d) = Σ_lists 1 / (k + rank_d)`.

/// RRF constant; 60 is the canonical choice from the original paper.
pub const RRF_K: f64 = 60.0;

/// Fuses ranked lists of keys by reciprocal rank. Input lists are best-first;
/// output is fused best-first with scores.
pub fn rrf_fuse(lists: &[Vec<String>], limit: usize) -> Vec<(String, f64)> {
    let mut scores: std::collections::BTreeMap<String, f64> = std::collections::BTreeMap::new();
    for list in lists {
        for (rank, key) in list.iter().enumerate() {
            *scores.entry(key.clone()).or_insert(0.0) += 1.0 / (RRF_K + rank as f64 + 1.0);
        }
    }
    let mut out: Vec<(String, f64)> = scores.into_iter().collect();
    out.sort_by(|a, b| {
        b.1.partial_cmp(&a.1)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.0.cmp(&b.0))
    });
    out.truncate(limit);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn agreement_ranks_first() {
        let fused = rrf_fuse(
            &[
                vec!["a".into(), "b".into(), "c".into()],
                vec!["b".into(), "a".into(), "d".into()],
            ],
            10,
        );
        // b and a appear in both lists; b is (rank 2 + rank 1), a is (1 + 2): tie.
        assert_eq!(fused.len(), 4);
        assert!(fused[0].0 == "a" || fused[0].0 == "b");
        assert!(fused[0].1 > fused[2].1);
        let keys: Vec<&str> = fused.iter().map(|(k, _)| k.as_str()).collect();
        assert!(keys.contains(&"c") && keys.contains(&"d"));
    }

    #[test]
    fn single_list_preserves_order() {
        let fused = rrf_fuse(&[vec!["x".into(), "y".into()]], 10);
        assert_eq!(fused[0].0, "x");
        assert_eq!(fused[1].0, "y");
    }

    #[test]
    fn limit_truncates_and_empty_ok() {
        assert!(rrf_fuse(&[], 5).is_empty());
        let fused = rrf_fuse(&[vec!["a".into(), "b".into(), "c".into()]], 2);
        assert_eq!(fused.len(), 2);
    }
}
