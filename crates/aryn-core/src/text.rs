//! Text processing shared by the keyword index, embeddings, and the
//! simulated LLM's semantic engine: tokenization, stopwords, a light
//! suffix-stripping stemmer, sentence splitting, and token counting.

/// The tokenizer itself: builds each token of `text` in the one buffer `cur`
/// and hands it to `on_token` (which may rewrite it in place), stopping at
/// the first `true`. Returns whether some call returned `true`.
fn scan_tokens(
    text: &str,
    cur: &mut String,
    mut on_token: impl FnMut(&mut String) -> bool,
) -> bool {
    cur.clear();
    for c in text.chars() {
        if c.is_ascii_alphanumeric() {
            cur.push(c.to_ascii_lowercase());
        } else if !c.is_ascii() && c.is_alphanumeric() {
            // Some lowercasings expand to combining marks; keep only
            // alphanumeric output so tokens stay clean.
            cur.extend(c.to_lowercase().filter(|lc| lc.is_alphanumeric()));
        } else if !cur.is_empty() {
            if on_token(cur) {
                return true;
            }
            cur.clear();
        }
    }
    !cur.is_empty() && on_token(cur)
}

/// Splits text into lowercase word tokens (alphanumeric runs; numbers kept).
pub fn tokenize(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    // Each finished token is copied out of the buffer at its exact size.
    scan_tokens(text, &mut String::new(), |t| {
        out.push(t.as_str().to_string());
        false
    });
    out
}

/// Streams the tokens [`tokenize`] would return, in order, through `f`
/// without collecting them: one buffer for the whole text, and the scan
/// stops at the first token for which `f` returns `true`. Returns whether
/// one did.
pub fn any_token(text: &str, mut f: impl FnMut(&str) -> bool) -> bool {
    scan_tokens(text, &mut String::new(), |t| f(t))
}

/// True when `text` carries a negation cue: "no", "not", "non-", "none",
/// "nobody", "neither", "nor", "never", "without", or an "n't" contraction
/// (which [`tokenize`] splits into a word ending in `n` and a lone `t`).
pub fn has_negation_cue(text: &str) -> bool {
    let mut after_n = false;
    any_token(text, |t| {
        let cue = matches!(t, "no" | "not" | "non" | "none" | "nobody" | "neither" | "nor" | "never" | "without")
            || (after_n && t == "t");
        after_n = t.ends_with('n');
        cue
    })
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

/// [`any_token`] over the terms [`analyze`] would return: stopwords
/// skipped, each token stemmed in the shared buffer before `f` sees it. The
/// buffer starts wide enough for any ordinary word, so it never regrows.
pub fn any_analyzed(text: &str, mut f: impl FnMut(&str) -> bool) -> bool {
    scan_tokens(text, &mut String::with_capacity(32), |t| {
        if is_stopword(t) {
            return false;
        }
        stem_in_place(t);
        f(t)
    })
}

const STOPWORDS: &[&str] = &[
    "a", "an", "and", "are", "as", "at", "be", "but", "by", "for", "from", "had", "has", "have",
    "he", "her", "his", "if", "in", "into", "is", "it", "its", "of", "on", "or", "s", "she",
    "that", "the", "their", "there", "these", "they", "this", "to", "was", "were", "which",
    "while", "with", "would",
];

/// True for common English function words that carry no retrieval signal.
pub fn is_stopword(token: &str) -> bool {
    // No stopword is longer than seven bytes, so each compares as one
    // integer instead of a string.
    token.len() <= 7 && STOPWORD_KEYS.binary_search(&word_key(token.as_bytes())).is_ok()
}

/// A word of at most seven bytes as one integer: its bytes zero-padded to
/// seven and read big-endian, then its length. Distinct words get distinct
/// keys, and words without a zero byte order like their keys.
const fn word_key(word: &[u8]) -> u64 {
    let mut key = 0;
    let mut i = 0;
    while i < 7 {
        key = key << 8 | if i < word.len() { word[i] as u64 } else { 0 };
        i += 1;
    }
    key << 8 | word.len() as u64
}

/// [`STOPWORDS`] as [`word_key`]s, in the same (sorted) order.
const STOPWORD_KEYS: [u64; STOPWORDS.len()] = {
    let mut keys = [0; STOPWORDS.len()];
    let mut i = 0;
    while i < keys.len() {
        keys[i] = word_key(STOPWORDS[i].as_bytes());
        i += 1;
    }
    keys
};

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
pub fn stem_in_place(token: &mut String) {
    let last = token.as_bytes().last().copied();
    for (suffix, replace) in STEM_RULES {
        // The last byte first: most rules are out after one comparison.
        if suffix.as_bytes().last().copied() == last && token.ends_with(suffix) {
            let stripped = token.len() - suffix.len();
            if stripped + replace.len() >= 3 && stripped >= 2 {
                token.truncate(stripped);
                token.push_str(replace);
                return;
            }
        }
    }
}

/// The start that every word [`stem`]ming to `term` has: `term` less the
/// longest replacement of a rule it ends with, since a rule only cuts a
/// suffix and appends its replacement.
pub fn stem_root(term: &str) -> &str {
    let cut = STEM_RULES.iter().filter(|(_, r)| term.ends_with(r)).map(|(_, r)| r.len()).max().unwrap_or(0);
    &term[..term.len() - cut]
}

/// Splits text into sentences on `.`, `!`, `?` followed by whitespace,
/// keeping abbreviation-like short tokens ("U.S.", "No. 4") attached.
pub fn sentences(text: &str) -> Vec<String> {
    sentence_spans(text).map(str::to_string).collect()
}

/// The sentences of [`sentences`] as trimmed slices of `text`, found lazily:
/// nothing is copied.
pub fn sentence_spans(text: &str) -> impl Iterator<Item = &str> {
    // `start` opens the current sentence; `end` is one past the last
    // terminator looked at. Terminators are ASCII, so a byte scan finds
    // them and every `end` is a char boundary.
    let (mut start, mut end) = (0, 0);
    std::iter::from_fn(move || {
        while let Some(k) = text.as_bytes()[end..].iter().position(is_terminator) {
            end += k + 1;
            if ends_sentence(text, end) {
                let s = text[start..end].trim();
                start = end;
                if !s.is_empty() {
                    return Some(s);
                }
            }
        }
        let s = text[start..].trim();
        start = text.len();
        (!s.is_empty()).then_some(s)
    })
}

/// The sentence of [`sentence_spans`] that holds byte `at` of `text`, a
/// byte that is not whitespace, found from the terminators around it alone.
pub fn sentence_around(text: &str, at: usize) -> &str {
    let bytes = text.as_bytes();
    let mut before = at;
    let start = loop {
        match bytes[..before].iter().rposition(is_terminator) {
            Some(k) if ends_sentence(text, k + 1) => break k + 1,
            Some(k) => before = k,
            None => break 0,
        }
    };
    let mut end = at;
    while let Some(k) = bytes[end..].iter().position(is_terminator) {
        end += k + 1;
        if ends_sentence(text, end) {
            return text[start..end].trim();
        }
    }
    text[start..].trim()
}

fn is_terminator(b: &u8) -> bool {
    matches!(b, b'.' | b'!' | b'?')
}

/// Whether the terminator just before byte `end` closes a sentence: one
/// whitespace or the text's end follows it, and the word it ends is no
/// abbreviation. Only the text around `end` is read — the word before it
/// reaches back to a whitespace, which starts every sentence but the first,
/// or to the text's start — so the rule needs no sentence start.
fn ends_sentence(text: &str, end: usize) -> bool {
    let next_ws = text[end..].chars().next().is_none_or(char::is_whitespace);
    // Don't split after single-letter abbreviations like "U." or digits "No. 4".
    let prev_word = text[..end].trim_end_matches(['.', '!', '?']).rsplit(char::is_whitespace).next().unwrap_or("");
    // Words with internal dots ("U.S") or very short ones ("No") are
    // abbreviation-like; keep the sentence going.
    let abbrev = prev_word.len() <= 2 || prev_word.contains('.');
    next_ws && !abbrev
}

/// Approximates an LLM token count: roughly one token per 4 characters, with
/// a floor of one token per whitespace-separated word. This is the unit used
/// by context-window accounting and the cost meter.
pub fn count_tokens(text: &str) -> usize {
    (text.chars().count() / 4).max(count_words(text))
}

/// `text.split_whitespace().count()`, reading ASCII runs as bytes (where
/// `char::is_whitespace` is exactly space and `\t`..=`\r`) and decoding only
/// the characters in between.
fn count_words(text: &str) -> usize {
    // A word starts at every non-whitespace character after whitespace.
    let (mut words, mut prev_ws) = (0, true);
    let mut rest = text;
    while !rest.is_empty() {
        let ascii = rest.bytes().position(|b| !b.is_ascii()).unwrap_or(rest.len());
        let run = &rest.as_bytes()[..ascii];
        if let (Some(&first), Some(&last)) = (run.first(), run.last()) {
            words += word_starts(run) + usize::from(prev_ws && !ascii_ws(first));
            prev_ws = ascii_ws(last);
        }
        rest = &rest[ascii..];
        if let Some(c) = rest.chars().next() {
            words += usize::from(prev_ws && !c.is_whitespace());
            prev_ws = c.is_whitespace();
            rest = &rest[c.len_utf8()..];
        }
    }
    words
}

fn ascii_ws(b: u8) -> bool {
    matches!(b, b' ' | b'\t'..=b'\r')
}

/// Words that start inside an ASCII run after its first byte: each byte
/// pair is judged on its own, with nothing carried from one pair to the
/// next, and counted in `u8` lanes 255 pairs at a time, so the loop
/// vectorizes.
fn word_starts(run: &[u8]) -> usize {
    let (heads, tails) = (&run[..run.len() - 1], &run[1..]);
    heads
        .chunks(255)
        .zip(tails.chunks(255))
        .map(|(a, b)| {
            let starts = a.iter().zip(b).map(|(&a, &b)| u8::from(ascii_ws(a) & !ascii_ws(b)));
            usize::from(starts.fold(0u8, u8::wrapping_add))
        })
        .sum()
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
///
/// The haystack is streamed, never collected: bit `k` of `run` says the
/// last `k + 1` tokens equal `needle[..=k]` (shift-and), so the scan holds
/// one token at a time and stops at the first whole match.
pub fn contains_tokens(haystack: &str, needle: &[String]) -> bool {
    let n = needle.len();
    if n == 0 {
        return false;
    }
    if n > 64 {
        return tokenize(haystack).windows(n).any(|w| w == needle);
    }
    let mut run = 0u64;
    any_token(haystack, |t| {
        let mut hits = 0u64;
        for (k, w) in needle.iter().enumerate() {
            if w == t {
                hits |= 1 << k;
            }
        }
        run = ((run << 1) | 1) & hits;
        run & (1 << (n - 1)) != 0
    })
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
    fn negation_cues() {
        for p in [
            "the incident involved no fatalities",
            "the accident was not fatal",
            "a non-fatal accident",
            "landed without fatalities",
            "the crew never declared an emergency",
            "the company didn't lower its guidance",
            "it wasn\u{2019}t fatal",
        ] {
            assert!(has_negation_cue(p), "{p:?}");
        }
        for p in ["the incident involved a fatality", "in the AI sector", "noted a nonzero total", "caused by snow", ""] {
            assert!(!has_negation_cue(p), "{p:?}");
        }
    }

    #[test]
    fn every_word_starts_with_the_root_of_its_stem() {
        // One word per rule that appends a replacement, and a few that cut.
        for w in [
            "relational", "organization", "hopefulness", "famousness", "decisiveness", "enforcement", "payments",
            "station", "mission", "ponies", "carried", "lowers", "pilots", "rated", "ab", "a",
        ] {
            let stemmed = stem(w);
            assert!(w.starts_with(stem_root(&stemmed)), "{w:?} stems to {stemmed:?}, root {:?}", stem_root(&stemmed));
        }
        assert_eq!(stem_root("pony"), "pon");
        assert_eq!(stem_root("wind"), "wind");
    }

    #[test]
    fn stopwords_sorted_for_binary_search() {
        let mut sorted = STOPWORDS.to_vec();
        sorted.sort_unstable();
        assert_eq!(sorted, STOPWORDS, "STOPWORDS must stay sorted");
        assert!(STOPWORD_KEYS.windows(2).all(|w| w[0] < w[1]), "keys sort like the words");
        assert!(STOPWORDS.iter().all(|w| w.len() <= 7 && is_stopword(w)));
        assert!(is_stopword("the"));
        // The integer keys answer exactly what the word list does, on every
        // prefix and one-byte extension of every stopword.
        for w in STOPWORDS {
            for cut in 0..=w.len() {
                for ext in ["", "s", "e", "\u{0}", "\u{e9}"] {
                    let probe = format!("{}{ext}", &w[..cut]);
                    assert_eq!(is_stopword(&probe), STOPWORDS.contains(&probe.as_str()), "{probe:?}");
                }
            }
        }
        assert!(!is_stopword("whichever") && !is_stopword("wind"));
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
