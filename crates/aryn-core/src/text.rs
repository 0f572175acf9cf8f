//! Text processing shared by the keyword index, embeddings, and the
//! simulated LLM's semantic engine: tokenization, stopwords, a light
//! suffix-stripping stemmer, sentence splitting, and token counting.

/// Splits text into lowercase word tokens (alphanumeric runs; numbers kept).
pub fn tokenize(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    // One growing buffer; each finished token is copied out at its exact size.
    let mut cur = String::new();
    for c in text.chars() {
        if c.is_ascii_alphanumeric() {
            cur.push(c.to_ascii_lowercase());
        } else if !c.is_ascii() && c.is_alphanumeric() {
            // Some lowercasings expand to combining marks; keep only
            // alphanumeric output so tokens stay clean.
            cur.extend(c.to_lowercase().filter(|lc| lc.is_alphanumeric()));
        } else if !cur.is_empty() {
            out.push(cur.as_str().to_string());
            cur.clear();
        }
    }
    if !cur.is_empty() {
        out.push(cur);
    }
    out
}

/// Tokenizes, removes stopwords, and stems — the normalization used for
/// indexing and bag-of-words embeddings.
pub fn analyze(text: &str) -> Vec<String> {
    let mut tokens = tokenize(text);
    tokens.retain_mut(|t| {
        let keep = !is_stopword(t);
        if keep {
            stem_in_place(t);
        }
        keep
    });
    tokens
}

const STOPWORDS: &[&str] = &[
    "a", "an", "and", "are", "as", "at", "be", "but", "by", "for", "from", "had", "has", "have",
    "he", "her", "his", "if", "in", "into", "is", "it", "its", "of", "on", "or", "s", "she",
    "that", "the", "their", "there", "these", "they", "this", "to", "was", "were", "which",
    "while", "with", "would",
];

/// True for common English function words that carry no retrieval signal.
pub fn is_stopword(token: &str) -> bool {
    STOPWORDS.binary_search(&token).is_ok()
}

/// Suffix rules of [`stem`], first match wins.
const STEM_RULES: &[(&str, &str)] = &[
    ("ational", "ate"),
    ("ization", "ize"),
    ("fulness", "ful"),
    ("ousness", "ous"),
    ("iveness", "ive"),
    ("ement", "e"),
    ("ments", "ment"),
    ("ingly", ""),
    ("edly", ""),
    ("tion", "t"),
    ("sion", "s"),
    ("ness", ""),
    ("ing", ""),
    ("ies", "y"),
    ("ied", "y"),
    ("est", ""),
    ("ers", "er"),
    ("ed", ""),
    ("ly", ""),
    ("es", ""),
    ("s", ""),
];

/// A light suffix-stripping stemmer (a small subset of Porter's rules):
/// enough to conflate `reported/reports/reporting` without a full Porter
/// implementation. Never shrinks a word below three characters.
pub fn stem(token: &str) -> String {
    let mut t = token.to_string();
    stem_in_place(&mut t);
    t
}

/// [`stem`] on an owned token: truncates and appends, never reallocates
/// (no replacement is longer than its suffix).
fn stem_in_place(token: &mut String) {
    for (suffix, replace) in STEM_RULES {
        if token.ends_with(suffix) {
            let stripped = token.len() - suffix.len();
            if stripped + replace.len() >= 3 && stripped >= 2 {
                token.truncate(stripped);
                token.push_str(replace);
                return;
            }
        }
    }
}

/// Splits text into sentences on `.`, `!`, `?` followed by whitespace,
/// keeping abbreviation-like short tokens ("U.S.", "No. 4") attached.
pub fn sentences(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut cur = String::new();
    let chars: Vec<char> = text.chars().collect();
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        cur.push(c);
        if matches!(c, '.' | '!' | '?') {
            let next_ws = chars.get(i + 1).is_none_or(|n| n.is_whitespace());
            // Don't split after single-letter abbreviations like "U." or digits "No. 4".
            let prev_word = cur
                .trim_end_matches(['.', '!', '?'])
                .rsplit(|ch: char| ch.is_whitespace())
                .next()
                .unwrap_or("");
            // Words with internal dots ("U.S") or very short ones ("No") are
            // abbreviation-like; keep the sentence going.
            let abbrev = prev_word.len() <= 2 || prev_word.contains('.');
            if next_ws && !abbrev {
                let s = cur.trim().to_string();
                if !s.is_empty() {
                    out.push(s);
                }
                cur.clear();
            }
        }
        i += 1;
    }
    let s = cur.trim().to_string();
    if !s.is_empty() {
        out.push(s);
    }
    out
}

/// Approximates an LLM token count: roughly one token per 4 characters, with
/// a floor of one token per whitespace-separated word. This is the unit used
/// by context-window accounting and the cost meter.
pub fn count_tokens(text: &str) -> usize {
    let chars = text.chars().count();
    let words = text.split_whitespace().count();
    (chars / 4).max(words)
}

/// Truncates text to approximately `max_tokens` (see [`count_tokens`]),
/// cutting at a word boundary.
pub fn truncate_tokens(text: &str, max_tokens: usize) -> &str {
    if count_tokens(text) <= max_tokens {
        return text;
    }
    // Walk word boundaries, keeping the longest prefix within budget.
    // Prefix token count is tracked incrementally to stay linear.
    let mut end = 0;
    let mut in_word = false;
    let mut words = 0usize;
    for (n_chars, (i, c)) in text.char_indices().enumerate() {
        if c.is_whitespace() {
            if in_word {
                words += 1;
                if (n_chars / 4).max(words) <= max_tokens {
                    end = i;
                } else {
                    break;
                }
            }
            in_word = false;
        } else {
            in_word = true;
        }
    }
    &text[..end]
}

/// Case-insensitive substring test on whole words: `contains_term("due to
/// wind gusts", "wind")` is true but `"rewinding"` does not contain `"wind"`.
pub fn contains_term(haystack: &str, term: &str) -> bool {
    contains_tokens(haystack, &tokenize(term))
}

/// [`contains_term`] against a pre-tokenized needle. Predicates evaluated
/// across a whole corpus tokenize the needle once up front and call this per
/// document instead of re-tokenizing the search term on every comparison.
pub fn contains_tokens(haystack: &str, needle: &[String]) -> bool {
    if needle.is_empty() {
        return false;
    }
    tokenize(haystack).windows(needle.len()).any(|w| w == needle)
}

/// Jaccard similarity of analyzed token sets — the cheap "string matching"
/// technique Luna's optimizer can choose instead of a semantic LLM match.
pub fn jaccard(a: &str, b: &str) -> f64 {
    use std::collections::BTreeSet;
    let sa: BTreeSet<String> = analyze(a).into_iter().collect();
    let sb: BTreeSet<String> = analyze(b).into_iter().collect();
    if sa.is_empty() && sb.is_empty() {
        return 0.0;
    }
    let inter = sa.intersection(&sb).count();
    let union = sa.union(&sb).count();
    inter as f64 / union as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokenize_basic() {
        assert_eq!(
            tokenize("The pilot's failure, at 14:32!"),
            vec!["the", "pilot", "s", "failure", "at", "14", "32"]
        );
        assert!(tokenize("").is_empty());
        assert!(tokenize("!!! --- ").is_empty());
    }

    #[test]
    fn stopwords_sorted_for_binary_search() {
        let mut sorted = STOPWORDS.to_vec();
        sorted.sort_unstable();
        assert_eq!(sorted, STOPWORDS, "STOPWORDS must stay sorted");
        assert!(is_stopword("the"));
        assert!(!is_stopword("wind"));
    }

    #[test]
    fn stemming_conflates_variants() {
        assert_eq!(stem("reported"), stem("reports"));
        assert_eq!(stem("reporting"), stem("report"));
        assert_eq!(stem("injuries"), stem("injury"));
        // Short words survive untouched.
        assert_eq!(stem("as"), "as");
        assert_eq!(stem("is"), "is");
    }

    #[test]
    fn analyze_drops_stopwords_and_stems() {
        let a = analyze("The airplane was damaged by the winds");
        assert!(a.contains(&"wind".to_string()));
        assert!(!a.iter().any(|t| t == "the"));
    }

    #[test]
    fn sentence_split() {
        let s = sentences("The pilot reported a loss of power. The airplane impacted terrain. No injuries!");
        assert_eq!(s.len(), 3);
        assert!(s[0].ends_with("power."));
    }

    #[test]
    fn sentence_split_keeps_abbreviations() {
        let s = sentences("Flight departed from the U.S. mainland. It landed safely.");
        assert_eq!(s.len(), 2, "{s:?}");
    }

    #[test]
    fn token_counting_and_truncation() {
        let text = "word ".repeat(100);
        let n = count_tokens(&text);
        assert!(n >= 100, "floor of one token per word");
        let cut = truncate_tokens(&text, 10);
        assert!(count_tokens(cut) <= 11);
        assert!(!cut.ends_with(char::is_whitespace) || cut.is_empty());
        // Short text passes through untouched.
        assert_eq!(truncate_tokens("ab cd", 100), "ab cd");
    }

    #[test]
    fn contains_term_whole_words() {
        assert!(contains_term("gusting wind conditions", "wind"));
        assert!(contains_term("due to Wind Shear", "wind shear"));
        assert!(!contains_term("rewinding the tape", "wind"));
        assert!(!contains_term("anything", ""));
    }

    #[test]
    fn jaccard_bounds() {
        assert!((jaccard("wind damage", "wind damage") - 1.0).abs() < 1e-9);
        assert_eq!(jaccard("alpha beta", "gamma delta"), 0.0);
        let j = jaccard("engine failure on approach", "engine failed during approach");
        assert!(j > 0.3 && j < 1.0, "{j}");
    }
}
