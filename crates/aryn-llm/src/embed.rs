//! Embedding models.
//!
//! The stand-in for hosted embedding endpoints is a hashed bag-of-words
//! embedder with IDF-style term weighting: each analyzed term hashes to a
//! dimension and a sign, weighted by an approximate inverse document
//! frequency, and the vector is L2-normalized. Cosine similarity then
//! reflects real term overlap — and, critically for reproducing the paper's
//! §2 claim, *discrimination genuinely degrades* as the corpus grows, because
//! distinct vocabularies collide in a fixed number of dimensions and nearest
//! neighbours crowd together.

use aryn_core::text::any_analyzed;
use aryn_core::{stable_hash, ArynError, Result};

/// An embedding model mapping text to fixed-dimension vectors.
pub trait EmbeddingModel: Send + Sync {
    fn name(&self) -> &str;
    fn dims(&self) -> usize;
    fn embed(&self, text: &str) -> Vec<f32>;

    fn embed_batch(&self, texts: &[String]) -> Vec<Vec<f32>> {
        texts.iter().map(|t| self.embed(t)).collect()
    }
}

/// Hashed bag-of-words embedder (feature hashing / random projection).
///
/// ```
/// use aryn_llm::{cosine, EmbeddingModel, HashedBowEmbedder};
/// let e = HashedBowEmbedder::new(128, 7);
/// let a = e.embed("wind gusts during the landing approach");
/// let b = e.embed("gusting winds while landing");
/// let c = e.embed("quarterly revenue and earnings");
/// assert!(cosine(&a, &b).unwrap() > cosine(&a, &c).unwrap());
/// ```
#[derive(Debug, Clone)]
pub struct HashedBowEmbedder {
    pub dims: usize,
    pub seed: u64,
    /// Number of hash projections per term; >1 smooths collisions.
    pub projections: usize,
}

impl HashedBowEmbedder {
    pub fn new(dims: usize, seed: u64) -> HashedBowEmbedder {
        HashedBowEmbedder {
            dims,
            seed,
            projections: 2,
        }
    }

    /// A crude universal IDF: rarer-looking (longer) terms weigh more, and
    /// a few ubiquitous document words are damped. A real model learns this;
    /// a hash-based one must approximate it statically.
    fn term_weight(term: &str) -> f32 {
        let damped = matches!(
            term,
            "report" | "document" | "page" | "company" | "airplane" | "pilot" | "quarter"
        );
        let len_boost = (term.len() as f32 / 4.0).min(2.0);
        if damped {
            0.3
        } else {
            0.5 + 0.5 * len_boost
        }
    }
}

impl EmbeddingModel for HashedBowEmbedder {
    fn name(&self) -> &str {
        "hashed-bow"
    }

    fn dims(&self) -> usize {
        self.dims
    }

    fn embed(&self, text: &str) -> Vec<f32> {
        // Terms stream through the tokenizer's one buffer: no `String` each.
        let mut v = vec![0.0f32; self.dims];
        any_analyzed(text, |term| {
            let w = Self::term_weight(term);
            for p in 0..self.projections {
                let h = stable_hash(self.seed.wrapping_add(p as u64), &[term]);
                let dim = (h % self.dims as u64) as usize;
                let sign = if (h >> 32) & 1 == 0 { 1.0 } else { -1.0 };
                v[dim] += sign * w;
            }
            false
        });
        l2_normalize(&mut v);
        v
    }
}

/// Normalizes in place; zero vectors stay zero.
pub fn l2_normalize(v: &mut [f32]) {
    let norm: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
    if norm > 0.0 {
        for x in v.iter_mut() {
            *x /= norm;
        }
    }
}

/// Cosine similarity; errors on dimension mismatch.
pub fn cosine(a: &[f32], b: &[f32]) -> Result<f32> {
    if a.len() != b.len() {
        return Err(ArynError::Index(format!(
            "dimension mismatch: {} vs {}",
            a.len(),
            b.len()
        )));
    }
    let dot: f32 = a.iter().zip(b).map(|(x, y)| x * y).sum();
    let na: f32 = a.iter().map(|x| x * x).sum::<f32>().sqrt();
    let nb: f32 = b.iter().map(|x| x * x).sum::<f32>().sqrt();
    if na == 0.0 || nb == 0.0 {
        return Ok(0.0);
    }
    Ok(dot / (na * nb))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn emb() -> HashedBowEmbedder {
        HashedBowEmbedder::new(256, 42)
    }

    #[test]
    fn vectors_are_unit_norm() {
        let v = emb().embed("the pilot reported wind gusts on approach");
        let norm: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
        assert!((norm - 1.0).abs() < 1e-4);
    }

    #[test]
    fn empty_text_is_zero_vector() {
        let v = emb().embed("");
        assert!(v.iter().all(|x| *x == 0.0));
    }

    #[test]
    fn similar_texts_are_closer_than_dissimilar() {
        let e = emb();
        let a = e.embed("the airplane encountered strong wind during landing approach");
        let b = e.embed("wind gusts during the landing approach affected the airplane");
        let c = e.embed("quarterly revenue grew and earnings per share beat guidance");
        let sim_ab = cosine(&a, &b).unwrap();
        let sim_ac = cosine(&a, &c).unwrap();
        assert!(sim_ab > sim_ac + 0.2, "ab={sim_ab} ac={sim_ac}");
    }

    #[test]
    fn deterministic_across_calls_and_seeded() {
        let e = emb();
        assert_eq!(e.embed("wind"), e.embed("wind"));
        let other = HashedBowEmbedder::new(256, 43);
        assert_ne!(e.embed("wind"), other.embed("wind"));
    }

    #[test]
    fn cosine_edge_cases() {
        assert!(cosine(&[1.0, 0.0], &[1.0]).is_err());
        assert_eq!(cosine(&[0.0, 0.0], &[1.0, 0.0]).unwrap(), 0.0);
        assert!((cosine(&[1.0, 0.0], &[1.0, 0.0]).unwrap() - 1.0).abs() < 1e-6);
        assert!((cosine(&[1.0, 0.0], &[-1.0, 0.0]).unwrap() + 1.0).abs() < 1e-6);
    }

    #[test]
    fn stemming_makes_variants_match() {
        let e = emb();
        let a = e.embed("reported injuries");
        let b = e.embed("reporting injury");
        assert!(cosine(&a, &b).unwrap() > 0.9);
    }

    /// The `analyze`-based `embed` that the streaming one replaced.
    fn reference_embed(e: &HashedBowEmbedder, text: &str) -> Vec<f32> {
        let mut v = vec![0.0f32; e.dims];
        for term in aryn_core::text::analyze(text) {
            let w = HashedBowEmbedder::term_weight(&term);
            for p in 0..e.projections {
                let h = stable_hash(e.seed.wrapping_add(p as u64), &[&term]);
                let dim = (h % e.dims as u64) as usize;
                let sign = if (h >> 32) & 1 == 0 { 1.0 } else { -1.0 };
                v[dim] += sign * w;
            }
        }
        l2_normalize(&mut v);
        v
    }

    const WORDS: &[&str] = &[
        "the", "of", "wind", "winds", "reported", "reporting", "pilot", "company", "national",
        "A380", "2024", "x", "Straße", "İstanbul", "ÉCOLE", "naïve", "東京", "ǅemal", "it's",
    ];
    const SEPS: &[&str] = &[" ", ", ", ".\n", "-", "'", "…", ""];

    proptest::proptest! {
        #[test]
        fn streaming_embed_equals_the_analyze_one(
            picks in proptest::collection::vec((0..WORDS.len(), 0..SEPS.len()), 0..60),
            dims in 1usize..300,
        ) {
            let text: String = picks.iter().map(|&(w, s)| format!("{}{}", WORDS[w], SEPS[s])).collect();
            let e = HashedBowEmbedder::new(dims, 42);
            let bits = |v: Vec<f32>| v.into_iter().map(f32::to_bits).collect::<Vec<_>>();
            proptest::prop_assert_eq!(bits(e.embed(&text)), bits(reference_embed(&e, &text)));
        }
    }

    #[test]
    fn batch_matches_single() {
        let e = emb();
        let texts = vec!["alpha".to_string(), "beta".to_string()];
        let batch = e.embed_batch(&texts);
        assert_eq!(batch[0], e.embed("alpha"));
        assert_eq!(batch[1], e.embed("beta"));
    }
}
