//! The simulated LLM's semantic engine.
//!
//! Everything here is honest text analysis: extractors, predicates,
//! classification, summarization, and QA all operate on the *actual prompt
//! context* using lexicons and surface patterns — never on hidden ground
//! truth. The error model in [`crate::mock`] sits on top and decides when to
//! corrupt an honest result; this module is deterministic and RNG-free.
//!
//! A model call reads its context once: the recognizers share one
//! [`Reading`] of it, and every lexicon is tokenized once per process and
//! matched in one pass over the reading's words.

use aryn_core::lexicon;
use aryn_core::text::{
    analyze, any_token, contains_tokens, has_negation_cue, is_stopword, sentence_around, sentence_spans, sentences,
    stem, stem_in_place, stem_root, tokenize,
};
use aryn_core::Value;
use std::borrow::Cow;
use std::cell::OnceCell;
use std::sync::OnceLock;

/// One read of a context, shared by every recognizer a model call runs.
/// Each view — the lowercased words, the sentence spans, the lowercased
/// text, its ASCII lowercase and the causal region — is built the first
/// time a recognizer asks for it, and only then.
pub struct Reading<'a> {
    text: Cow<'a, str>,
    words: OnceCell<Words>,
    sentences: OnceCell<Sentences>,
    lower: OnceCell<String>,
    ascii_lower: OnceCell<String>,
    causal: OnceCell<Option<Box<Reading<'static>>>>,
}

impl<'a> Reading<'a> {
    pub fn new(text: &'a str) -> Reading<'a> {
        Reading::of(Cow::Borrowed(text))
    }

    fn of(text: Cow<'a, str>) -> Reading<'a> {
        Reading {
            text,
            words: OnceCell::new(),
            sentences: OnceCell::new(),
            lower: OnceCell::new(),
            ascii_lower: OnceCell::new(),
            causal: OnceCell::new(),
        }
    }

    fn text(&self) -> &str {
        &self.text
    }

    /// The words [`tokenize`] returns.
    fn words(&self) -> &Words {
        self.words.get_or_init(|| {
            let mut w = Words::with_capacity(self.text.len());
            any_token(&self.text, |t| {
                w.push(t);
                false
            });
            w
        })
    }

    /// Streams the terms [`analyze`] returns — the words less stopwords,
    /// stemmed — that may be one of `terms` through `f`, stopping at the
    /// first `true`. Returns whether one did. A word `terms` rules out is
    /// neither looked up as a stopword nor stemmed. The words are read as
    /// [`Reading::contains`] reads them.
    fn any_term(&self, terms: &Terms, mut f: impl FnMut(&str) -> bool) -> bool {
        let mut term = String::with_capacity(32);
        let on_word = |w: &str| {
            if !terms.admits(w) || is_stopword(w) {
                return false;
            }
            term.clear();
            term.push_str(w);
            stem_in_place(&mut term);
            f(&term)
        };
        match self.words.get() {
            Some(words) => words.iter().any(on_word),
            None => any_token(&self.text, on_word),
        }
    }

    /// Whether `needle` occurs as a run of the words: read from the stored
    /// words when a recognizer has built them, streamed over the text
    /// otherwise; either way the search stops at the first match.
    fn contains(&self, needle: &[String]) -> bool {
        match self.words.get() {
            Some(words) => words.contains(needle),
            None => contains_tokens(&self.text, needle),
        }
    }

    /// The sentences [`sentence_spans`] returns, each with its
    /// `to_lowercase()`.
    fn sentences(&self) -> impl Iterator<Item = (&str, &str)> {
        let sentences = self.sentences.get_or_init(|| {
            let base = self.text.as_ptr() as usize;
            let (mut spans, mut lower) = (Vec::new(), Words::with_capacity(self.text.len()));
            for s in sentence_spans(&self.text) {
                spans.push((s.as_ptr() as usize - base, s.len()));
                lower.push_lowercase(s);
            }
            Sentences { spans, lower }
        });
        let text = &self.text;
        sentences.spans.iter().enumerate().map(move |(i, &(at, len))| (&text[at..at + len], sentences.lower.get(i)))
    }

    /// `text.to_lowercase()`.
    fn lower(&self) -> &str {
        self.lower.get_or_init(|| self.text.to_lowercase())
    }

    /// `text.to_ascii_lowercase()`: byte offsets are the text's.
    fn ascii_lower(&self) -> &str {
        self.ascii_lower.get_or_init(|| self.text.to_ascii_lowercase())
    }

    /// Whether some analyzed term of the text may be `term`. A word that
    /// stems to an ASCII term is lowercased from ASCII characters alone when
    /// the text holds no `İ` or `K` (the only characters outside ASCII that
    /// lowercase into it), so it is then a piece of the ASCII lowercase that
    /// starts with the term's [`stem_root`].
    fn may_have_term(&self, term: &str) -> bool {
        let folds_into_ascii = || self.text.contains('\u{130}') || self.text.contains('\u{212a}');
        !term.is_ascii()
            || (!self.text.is_ascii() && folds_into_ascii())
            || self.ascii_lower().contains(stem_root(term))
    }

    /// The sentences around causal markers — where a report states its
    /// cause — joined by spaces, or the whole text when none has a marker.
    fn causal(&self) -> &Reading<'a> {
        let region = self.causal.get_or_init(|| {
            let text: &str = &self.text;
            let base = text.as_ptr() as usize;
            // Marker offsets ascend, so the sentences come in text order,
            // each once: `taken` is where the last one taken ends.
            let (mut out, mut taken) = (String::new(), 0);
            for at in causal_marker_starts(self.ascii_lower()) {
                if at < taken {
                    continue;
                }
                let s = sentence_around(text, at);
                taken = s.as_ptr() as usize - base + s.len();
                out.push_str(s);
                out.push(' ');
            }
            (!out.is_empty()).then(|| Box::new(Reading::of(Cow::Owned(out))))
        });
        match region {
            Some(causal) => causal,
            None => self,
        }
    }
}

/// Words laid end to end in one buffer: word `i` is
/// `buf[ends[i - 1]..ends[i]]`.
struct Words {
    buf: String,
    ends: Vec<u32>,
}

impl Words {
    /// Room for the words of a `text_len`-byte text without regrowing.
    fn with_capacity(text_len: usize) -> Words {
        Words { buf: String::with_capacity(text_len), ends: Vec::with_capacity(text_len / 4 + 1) }
    }

    fn push(&mut self, word: &str) {
        self.buf.push_str(word);
        self.ends.push(self.buf.len() as u32);
    }

    /// Appends `s.to_lowercase()`; an ASCII `s` is lowercased in place.
    fn push_lowercase(&mut self, s: &str) {
        if s.is_ascii() {
            let start = self.buf.len();
            self.buf.push_str(s);
            self.buf[start..].make_ascii_lowercase();
        } else {
            self.buf.push_str(&s.to_lowercase());
        }
        self.ends.push(self.buf.len() as u32);
    }

    fn len(&self) -> usize {
        self.ends.len()
    }

    fn get(&self, i: usize) -> &str {
        let start = if i == 0 { 0 } else { self.ends[i - 1] as usize };
        &self.buf[start..self.ends[i] as usize]
    }

    fn iter(&self) -> impl Iterator<Item = &str> {
        (0..self.len()).map(|i| self.get(i))
    }

    /// Whether `needle` occurs as a run starting at word `i`.
    fn run_at(&self, i: usize, needle: &[String]) -> bool {
        i + needle.len() <= self.len() && needle.iter().enumerate().all(|(k, n)| self.get(i + k) == n)
    }

    /// Whether `needle` occurs as a run anywhere; never for an empty needle.
    fn contains(&self, needle: &[String]) -> bool {
        !needle.is_empty() && (0..self.len()).any(|i| self.run_at(i, needle))
    }
}

/// Sentence spans of a text, `(start, len)`, and their lowercase.
struct Sentences {
    spans: Vec<(usize, usize)>,
    lower: Words,
}

/// At most 64 lexicon entries, each tokenized once, indexed by first word:
/// one pass over a text's words finds every entry that occurs in it.
struct Lexicon {
    needles: Vec<Vec<String>>,
    /// `(first word, entry)` for every non-empty needle, sorted.
    first: Vec<(String, usize)>,
    /// [`bloom_bit`] of every first word: most words miss the index here,
    /// before a binary search.
    bloom: [u64; 4],
}

/// A word's bit in a [`Lexicon`]'s 256-bit filter, from its length and its
/// first and last bytes.
fn bloom_bit(word: &str) -> usize {
    let b = word.as_bytes();
    let (first, last) = (*b.first().unwrap_or(&0) as usize, *b.last().unwrap_or(&0) as usize);
    (b.len() * 31 + first * 7 + last) & 255
}

impl Lexicon {
    fn new<'s>(entries: impl IntoIterator<Item = &'s str>) -> Lexicon {
        let needles: Vec<Vec<String>> = entries.into_iter().map(tokenize).collect();
        assert!(needles.len() <= 64, "a lexicon holds at most 64 entries");
        let mut first: Vec<(String, usize)> =
            needles.iter().enumerate().filter_map(|(k, n)| Some((n.first()?.clone(), k))).collect();
        first.sort_unstable();
        let mut bloom = [0u64; 4];
        for (w, _) in &first {
            let bit = bloom_bit(w);
            bloom[bit / 64] |= 1 << (bit % 64);
        }
        Lexicon { needles, first, bloom }
    }

    /// Which entries occur in `words` as runs of whole words: bit `k` for
    /// entry `k`.
    fn hits(&self, words: &Words) -> u64 {
        let mut hits = 0u64;
        for i in 0..words.len() {
            let w = words.get(i);
            let bit = bloom_bit(w);
            if self.bloom[bit / 64] & (1 << (bit % 64)) == 0 {
                continue;
            }
            let from = self.first.partition_point(|(f, _)| f.as_str() < w);
            for (_, k) in self.first[from..].iter().take_while(|(f, _)| f == w) {
                if words.run_at(i, &self.needles[*k]) {
                    hits |= 1 << k;
                }
            }
        }
        hits
    }

    /// The first entry, in lexicon order, that occurs in `words`.
    fn first_hit(&self, words: &Words) -> Option<usize> {
        let hits = self.hits(words);
        (hits != 0).then(|| hits.trailing_zeros() as usize)
    }

    /// Whether entry `k` occurs in `context`.
    fn occurs(&self, context: &Reading, k: usize) -> bool {
        context.contains(&self.needles[k])
    }
}

/// Terms to find among a reading's analyzed terms, with what a word must
/// look like to stem to one. No rule cuts a word below two bytes, so a
/// word's stem starts with the word's first two bytes (or is the word), and
/// a word stemming to a term starts with the term's [`stem_root`].
struct Terms<'t> {
    terms: &'t [String],
    /// A 256-bit filter of the terms' [`head_bit`]s.
    heads: [u64; 4],
    /// `(head bit, root)` of every term, sorted.
    roots: Vec<(usize, &'t str)>,
}

impl<'t> Terms<'t> {
    fn new(terms: &'t [String]) -> Terms<'t> {
        let mut roots: Vec<(usize, &str)> = terms.iter().map(|t| (head_bit(t), stem_root(t))).collect();
        roots.sort_unstable();
        let mut heads = [0u64; 4];
        for &(bit, _) in &roots {
            heads[bit / 64] |= 1 << (bit % 64);
        }
        Terms { terms, heads, roots }
    }

    /// Whether `word` may stem to one of the terms: its head is one of
    /// theirs, and it starts with the root of a term with that head.
    fn admits(&self, word: &str) -> bool {
        let bit = head_bit(word);
        if self.heads[bit / 64] & (1 << (bit % 64)) == 0 {
            return false;
        }
        let from = self.roots.partition_point(|&(b, _)| b < bit);
        self.roots[from..].iter().take_while(|&&(b, _)| b == bit).any(|(_, root)| word.starts_with(root))
    }
}

/// A word's bit in a [`Terms`] filter, from its first two bytes.
fn head_bit(word: &str) -> usize {
    let b = word.as_bytes();
    let (first, second) = (*b.first().unwrap_or(&0) as usize, *b.get(1).unwrap_or(&0) as usize);
    (first * 37 + second) & 255
}

/// The lexicons the recognizers match, built once per process.
struct Lexicons {
    cities: Lexicon,
    states: Lexicon,
    /// Every detail cause, category by category.
    causes: Lexicon,
    /// Bit mask over `causes` of each category's details.
    cause_masks: Vec<u64>,
    categories: Lexicon,
    /// The environmental details, then "weather" and "environmental".
    weather: Lexicon,
    phases: Lexicon,
    sectors: Lexicon,
    /// Each sector's `to_lowercase()`, as a predicate names it.
    sector_names: Vec<String>,
}

fn lexicons() -> &'static Lexicons {
    static LEXICONS: OnceLock<Lexicons> = OnceLock::new();
    LEXICONS.get_or_init(|| {
        let mut cause_masks = Vec::new();
        let mut next = 0;
        for (_, details) in lexicon::CAUSES {
            cause_masks.push(((1u64 << details.len()) - 1) << next);
            next += details.len();
        }
        let env = lexicon::CAUSES.iter().find(|(c, _)| *c == "environmental").map_or(&[][..], |(_, d)| *d);
        Lexicons {
            cities: Lexicon::new(lexicon::CITIES.iter().map(|(c, _)| *c)),
            states: Lexicon::new(lexicon::US_STATES.iter().map(|(_, full)| *full)),
            causes: Lexicon::new(lexicon::CAUSES.iter().flat_map(|(_, d)| d.iter().copied())),
            cause_masks,
            categories: Lexicon::new(lexicon::CAUSES.iter().map(|(c, _)| *c)),
            weather: Lexicon::new(env.iter().copied().chain(["weather", "environmental"])),
            phases: Lexicon::new(lexicon::FLIGHT_PHASES.iter().copied()),
            sectors: Lexicon::new(lexicon::SECTORS.iter().copied()),
            sector_names: lexicon::SECTORS.iter().map(|s| s.to_lowercase()).collect(),
        }
    })
}

/// `s.to_lowercase().starts_with(prefix)` for a lowercase ASCII `prefix`,
/// reading no more of `s` than the prefix is long when that much is ASCII.
fn lower_starts_with(s: &str, prefix: &str) -> bool {
    match s.as_bytes().get(..prefix.len()) {
        Some(head) if head.is_ascii() => head.eq_ignore_ascii_case(prefix.as_bytes()),
        _ => s.to_lowercase().starts_with(prefix),
    }
}

/// Extracts one schema field from context text, dispatching on the field
/// name the way an instruction-following model keys off the schema.
/// Returns [`Value::Null`] when nothing plausible is found.
pub fn extract_field(name: &str, ftype: &str, context: &Reading) -> Value {
    let lname = name.to_lowercase();
    // Domain-specific recognizers, most specific first.
    if lname.contains("state") {
        return find_state(context).map(Value::from).unwrap_or(Value::Null);
    }
    if lname.contains("city") || lname.contains("location") {
        return find_city(context).map(Value::from).unwrap_or(Value::Null);
    }
    if lname.contains("registration") || lname.contains("tail_number") {
        return find_registration(context).map(Value::from).unwrap_or(Value::Null);
    }
    if lname.contains("date") {
        return find_date(context).map(Value::from).unwrap_or(Value::Null);
    }
    if lname.contains("year") {
        return find_year(context).map(|y| Value::Int(y as i64)).unwrap_or(Value::Null);
    }
    if lname.contains("weather_related") || (ftype == "bool" && lname.contains("weather")) {
        return Value::Bool(weather_related(context));
    }
    if lname.contains("cause") {
        if lname.contains("category") {
            return find_cause_category(context).map(Value::from).unwrap_or(Value::Null);
        }
        return find_cause(context).map(Value::from).unwrap_or(Value::Null);
    }
    if lname.contains("phase") {
        return find_phase(context).map(Value::from).unwrap_or(Value::Null);
    }
    if lname.contains("make") || lname.contains("manufacturer") {
        return find_aircraft(context)
            .map(|(m, _)| Value::from(m))
            .unwrap_or(Value::Null);
    }
    if lname.contains("aircraft") || lname.contains("model") {
        return find_aircraft(context)
            .map(|(m, md)| Value::from(format!("{m} {md}")))
            .unwrap_or(Value::Null);
    }
    if lname.contains("fatal") {
        return Value::Int(fatal_count(context));
    }
    if lname.contains("injur") || lname.contains("occupant") {
        return count_near(context, &["injur", "occupant", "aboard"])
            .map(Value::Int)
            .unwrap_or(Value::Int(0));
    }
    if lname.contains("company") {
        return find_company(context).map(Value::from).unwrap_or(Value::Null);
    }
    if lname.contains("ticker") || lname.contains("symbol") {
        return find_ticker(context).map(Value::from).unwrap_or(Value::Null);
    }
    if lname.contains("revenue") {
        return find_money(context, &["revenue", "revenues"])
            .map(Value::Float)
            .unwrap_or(Value::Null);
    }
    if lname.contains("growth") {
        return find_percent(context, &["grew", "growth", "increase", "decline", "decreased"])
            .map(Value::Float)
            .unwrap_or(Value::Null);
    }
    if lname.contains("eps") || lname.contains("earnings_per_share") {
        return find_money(context, &["per share", "eps"])
            .map(Value::Float)
            .unwrap_or(Value::Null);
    }
    if lname.contains("ceo") || lname.contains("executive") {
        if ftype == "bool" || lname.contains("changed") || lname.contains("new") {
            return Value::Bool(ceo_changed(context));
        }
        return find_ceo(context).map(Value::from).unwrap_or(Value::Null);
    }
    if lname.contains("sector") || lname.contains("industry") {
        return find_sector(context).map(Value::from).unwrap_or(Value::Null);
    }
    if lname.contains("sentiment") || lname.contains("outlook") {
        return Value::from(sentiment(context));
    }
    if lname.contains("quarter") {
        return find_quarter(context).map(Value::from).unwrap_or(Value::Null);
    }
    if lname.contains("guidance") {
        return find_guidance(context).map(Value::from).unwrap_or(Value::Null);
    }
    // Generic fallbacks by declared type.
    match ftype {
        "bool" => Value::Bool(context.words().contains(&tokenize(&lname.replace('_', " ")))),
        "int" => first_number(context.text()).map(|n| Value::Int(n as i64)).unwrap_or(Value::Null),
        "float" | "number" => first_number(context.text()).map(Value::Float).unwrap_or(Value::Null),
        _ => {
            // Best sentence mentioning the field-name words.
            let terms = lname.replace('_', " ");
            best_sentence(&terms, context).map(Value::from).unwrap_or(Value::Null)
        }
    }
}

/// Evaluates a natural-language yes/no predicate against context.
pub fn eval_predicate(predicate: &str, context: &Reading) -> bool {
    let p = predicate.to_lowercase();
    // Batched conjunctions (the optimizer fuses filters with this marker):
    // every part must hold.
    if p.contains("; and also ") {
        return p.split("; and also ").all(|part| eval_predicate(part, context));
    }
    // Causal predicates get special treatment: match against the causal
    // region of the document rather than anywhere.
    for marker in ["caused by ", "due to ", "cause was ", "attributed to "] {
        if let Some(idx) = p.find(marker) {
            let target = p[idx + marker.len()..]
                .trim_end_matches(['.', '?', '!'])
                .trim();
            return cause_matches(target, context);
        }
    }
    if p.contains("weather") || p.contains("environmental") {
        return weather_related(context);
    }
    // "involved no fatalities", "was not fatal", "non-fatal": a negated
    // fatality predicate holds when nobody died.
    if p.contains("fatal") {
        return (fatal_count(context) > 0) != has_negation_cue(&p);
    }
    if (p.contains("ceo") || p.contains("executive")) && (p.contains("chang") || p.contains("new"))
    {
        return ceo_changed(context);
    }
    if p.contains("positive sentiment") || p.contains("optimistic") {
        return sentiment(context) == "positive";
    }
    if p.contains("negative sentiment") || p.contains("pessimistic") {
        return sentiment(context) == "negative";
    }
    // Sector membership: "in the AI sector" holds when the report talks
    // about that sector at all, even without the literal word "sector"
    // nearby ("a slowdown in AI spending").
    if p.contains("sector") {
        let lex = lexicons();
        if let Some(k) = lex.sector_names.iter().position(|name| p.contains(name.as_str())) {
            return lex.sectors.occurs(context, k);
        }
    }
    // Generic: a majority of the predicate's content terms appear, with
    // simple negation awareness.
    let terms: Vec<String> = analyze(&p)
        .into_iter()
        .filter(|t| {
            !matches!(
                t.as_str(),
                "document" | "incident" | "report" | "company" | "mention" | "contain"
                    | "describe" | "involve" | "about" | "discuss"
            )
        })
        .collect();
    if terms.is_empty() {
        return false;
    }
    let frac = terms_present(&terms, context) as f64 / terms.len() as f64;
    if frac < 0.6 {
        return false;
    }
    !negated(&terms, context)
}

/// Which of `terms` occur among the context's analyzed terms, one bit each
/// (bit `k` for `terms[k]`), the scan stopped once every term has been
/// seen. At most 64 terms.
fn analyzed_hits(terms: &Terms, context: &Reading) -> u64 {
    debug_assert!(terms.terms.len() <= 64);
    let all = match terms.terms.len() {
        64 => u64::MAX,
        n => (1u64 << n) - 1,
    };
    let mut seen = 0u64;
    context.any_term(terms, |t| {
        for (k, term) in terms.terms.iter().enumerate() {
            if term == t {
                seen |= 1 << k;
            }
        }
        seen == all
    });
    seen
}

/// How many entries of `terms` occur among the context's analyzed terms.
fn terms_present(terms: &[String], context: &Reading) -> usize {
    if terms.len() <= 64 {
        return analyzed_hits(&Terms::new(terms), context).count_ones() as usize;
    }
    terms.iter().filter(|t| context.any_term(&Terms::new(std::slice::from_ref(t)), |w| w == t.as_str())).count()
}

/// True when the cause description in `context` matches `target`, which may
/// be a detail cause ("wind"), a category ("environmental factors"), or a
/// free phrase.
pub fn cause_matches(target: &str, context: &Reading) -> bool {
    let t = target.to_lowercase();
    // Category-level match: "environmental factors" ⊇ {wind, fog, ...}.
    let lex = lexicons();
    for (k, (cat, _)) in lexicon::CAUSES.iter().enumerate() {
        if t.contains(cat) || (*cat == "pilot error" && t.contains("pilot")) {
            let causal = context.causal();
            return lex.causes.hits(causal.words()) & lex.cause_masks[k] != 0
                || lex.categories.occurs(causal, k);
        }
    }
    // Detail-level match on the causal region. A term that may be in no
    // word of the text is in none of the region: when too few may be,
    // the region is not read.
    let terms = analyze(&t);
    let possible = terms.iter().filter(|term| context.may_have_term(term)).count();
    if terms.is_empty() || possible * 2 < terms.len() {
        return false;
    }
    terms_present(&terms, context.causal()) * 2 >= terms.len()
}

/// Sentence markers of a report's causal statement.
const CAUSAL_MARKERS: &[&str] =
    &["probable cause", "caused by", "due to", "result of", "resulted in", "failure to"];

/// Where causal markers start in a text's ASCII lowercase `lower`,
/// ascending. `lower` holds a marker exactly where a sentence's
/// `to_lowercase()` does: the markers hold no terminator, no `k`, and every
/// `i` in them is followed by a letter, while the only characters outside
/// ASCII that lowercase into ASCII are `K` (to `k`) and `İ` (to `i` +
/// U+0307).
fn causal_marker_starts(lower: &str) -> Vec<usize> {
    // `contains` first: it rules out an absent marker faster than
    // `match_indices` can.
    let mut starts: Vec<usize> = CAUSAL_MARKERS
        .iter()
        .filter(|m| lower.contains(**m))
        .flat_map(|m| lower.match_indices(m).map(|(at, _)| at))
        .collect();
    starts.sort_unstable();
    starts
}

/// Picks the best label for the context from a closed set.
pub fn classify(labels: &[String], context: &Reading) -> Option<String> {
    let lex = lexicons();
    let mut best: Option<(usize, f64)> = None;
    for (i, label) in labels.iter().enumerate() {
        let mut score = 0.0;
        // Direct term hits.
        score += terms_present(&analyze(label), context) as f64;
        // Category expansion via the cause lexicon.
        let label = label.to_lowercase();
        for (k, (cat, _)) in lexicon::CAUSES.iter().enumerate() {
            if label.contains(cat) {
                let details = lex.causes.hits(context.words()) & lex.cause_masks[k];
                score += details.count_ones() as f64 * 1.5;
            }
        }
        // Sentiment labels.
        match label.as_str() {
            "positive" => score += pos_neg(context).0 as f64 * 0.5,
            "negative" => score += pos_neg(context).1 as f64 * 0.5,
            _ => {}
        }
        if best.is_none_or(|(_, s)| score > s) {
            best = Some((i, score));
        }
    }
    best.map(|(i, _)| labels[i].clone())
}

/// Extractive summarization: the lead sentence plus the highest-signal
/// sentences, bounded to ~`max_sentences`.
pub fn summarize(instructions: &str, context: &str, max_sentences: usize) -> String {
    let sents = sentences(context);
    if sents.is_empty() {
        return String::new();
    }
    // Score sentences by instruction-term overlap + global term frequency.
    let inst_terms = analyze(instructions);
    let mut freq = std::collections::BTreeMap::new();
    for t in analyze(context) {
        *freq.entry(t).or_insert(0usize) += 1;
    }
    let mut scored: Vec<(usize, f64)> = sents
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let toks = analyze(s);
            let tf: usize = toks.iter().map(|t| freq.get(t).copied().unwrap_or(0)).sum();
            let inst_hits = toks.iter().filter(|t| inst_terms.contains(t)).count();
            let lead_bonus = if i == 0 { 2.0 } else { 0.0 };
            (i, tf as f64 / (toks.len().max(1) as f64) + 3.0 * inst_hits as f64 + lead_bonus)
        })
        .collect();
    scored.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
    // Greedy selection with a diversity guard: skip sentences nearly
    // identical to one already chosen (boilerplate repeats across
    // documents in a collection).
    let mut chosen: Vec<usize> = Vec::new();
    for (i, _) in &scored {
        if chosen.len() >= max_sentences {
            break;
        }
        let candidate = &sents[*i];
        let near_dup = chosen
            .iter()
            .any(|c| aryn_core::text::jaccard(candidate, &sents[*c]) > 0.7);
        if !near_dup {
            chosen.push(*i);
        }
    }
    chosen.sort_unstable();
    chosen
        .into_iter()
        .map(|i| sents[i].as_str())
        .collect::<Vec<_>>()
        .join(" ")
}

/// Answers a question from context. Returns `(answer_text, position)` where
/// `position` in `[0,1]` is where the supporting evidence sat in the context
/// — input to the "lost in the middle" decay.
pub fn answer_question(question: &str, context: &str) -> (String, f64) {
    // Retrieval contexts separate passages with "---"; evidence lookups must
    // not leak across passage boundaries (that is how RAG answers from the
    // wrong document).
    let passages: Vec<&str> = if context.contains("\n---\n") {
        context.split("\n---\n").collect()
    } else {
        vec![context]
    };
    // (passage index, sentence index within passage, sentence text)
    let mut sents: Vec<(usize, usize, String)> = Vec::new();
    let mut passage_sents: Vec<Vec<String>> = Vec::new();
    for (pi, p) in passages.iter().enumerate() {
        let ps = sentences(p);
        for (si, s) in ps.iter().enumerate() {
            sents.push((pi, si, s.clone()));
        }
        passage_sents.push(ps);
    }
    if sents.is_empty() {
        return ("The context does not contain the answer.".into(), 0.5);
    }
    let q_terms = analyze(question);
    let mut best = (0usize, -1.0f64);
    for (i, (_, _, s)) in sents.iter().enumerate() {
        let toks = analyze(s);
        let hits = q_terms.iter().filter(|t| toks.contains(t)).count();
        let score = hits as f64 / (q_terms.len().max(1) as f64);
        if score > best.1 {
            best = (i, score);
        }
    }
    let (flat_idx, score) = best;
    if score <= 0.0 {
        return ("The context does not contain the answer.".into(), 0.5);
    }
    let position = flat_idx as f64 / (sents.len().max(2) - 1) as f64;
    let (pass_idx, idx, _) = sents[flat_idx].clone();
    let sents = &passage_sents[pass_idx];
    let context = passages[pass_idx];
    let sentence = &sents[idx];
    let ql = question.to_lowercase();
    // Numeric questions get the number out of the evidence sentence.
    if ql.starts_with("how many") || ql.contains("number of") || ql.contains("count of") {
        if let Some(n) = first_number(sentence) {
            return (format!("{}", n as i64), position);
        }
    }
    if ql.contains("percent") || ql.contains("%") {
        if let Some(p) = find_percent(&Reading::new(sentence), &[]) {
            return (format!("{p}%"), position);
        }
    }
    // For wh-questions, prefer the evidence sentence, then its local
    // neighbourhood (same passage), then the whole context.
    let neighbourhood = || {
        let lo = idx.saturating_sub(3);
        let hi = (idx + 4).min(sents.len());
        Reading::of(Cow::Owned(sents[lo..hi].join(" ")))
    };
    let (in_sentence, in_passage) = (Reading::new(sentence), Reading::new(context));
    if ql.starts_with("where") || ql.contains("which city") || ql.contains("what city") {
        if let Some(city) = find_city(&in_sentence)
            .or_else(|| find_city(&neighbourhood()))
            .or_else(|| find_city(&in_passage))
        {
            return (city, position);
        }
        if let Some(st) = find_state(&in_sentence).or_else(|| find_state(&neighbourhood())) {
            return (st, position);
        }
    }
    if ql.starts_with("when") {
        if let Some(d) = find_date(&in_sentence)
            .or_else(|| find_date(&neighbourhood()))
            .or_else(|| find_date(&in_passage))
        {
            return (d, position);
        }
    }
    if ql.starts_with("who") {
        if let Some(name) = find_person(&in_sentence) {
            return (name, position);
        }
    }
    // List questions over row-dump contexts: collect the name-like field
    // from every row instead of answering from one.
    let is_list = ql.starts_with("list") || ql.starts_with("show") || ql.starts_with("name the")
        || ql.starts_with("which companies") || ql.starts_with("which incidents");
    // "... and their <array field>" list questions: pair the entity with the
    // named array field per row. Checked before the plain list path so the
    // secondary field is not dropped.
    if context.contains("\":") && (ql.contains(" and their ") || ql.contains(" with their ")) {
        if let Some(rendered) = render_rows_with_array_field(&ql, context) {
            return (rendered, position);
        }
    }
    if is_list && context.contains("\":") {
        if let Some(values) = collect_json_field_values(&ql, context) {
            return (values.join(", "), position);
        }
    }
    // Multi-field row questions ("the revenue growth and outlook of ..."):
    // when the question names two or more row fields, answer with each
    // entity and all the requested fields.
    if context.contains("\":") {
        if let Some(rendered) = render_rows_with_fields(&ql, context) {
            return (rendered, position);
        }
    }
    // Row-dump contexts (Luna's llmGenerate feeds JSON-ish rows): if the
    // question names a field present as a `"key": value` pair, answer with
    // that value rather than echoing the row.
    if sentence.contains("\":") {
        if let Some(v) = find_json_field_value(&ql, sentence) {
            return (v, position);
        }
    }
    // Real models answer concisely; cap the evidence echo so long merged
    // pseudo-sentences don't blow the completion budget.
    let capped = aryn_core::text::truncate_tokens(sentence, 90);
    let answer = if capped.is_empty() { sentence.as_str() } else { capped };
    (answer.trim().to_string(), position)
}

/// Collects, across all JSON-ish rows in `text`, the distinct values of the
/// best entity field for a list question (prefers name-like string fields:
/// company, city, state, ...). Returns `None` when no such field exists.
fn collect_json_field_values(question: &str, text: &str) -> Option<Vec<String>> {
    // Candidate keys in priority order; first one present wins.
    const NAME_KEYS: &[&str] = &["company", "city", "us_state_abbrev", "ceo", "ticker", "id"];
    let q = question.to_lowercase();
    let keys: Vec<&str> = NAME_KEYS
        .iter()
        .copied()
        .filter(|k| text.contains(&format!("\"{k}\"")))
        .collect();
    if keys.is_empty() {
        return None;
    }
    // The earliest question token naming a key wins ("list the companies
    // whose CEO changed" → company, not ceo).
    let q_tokens = analyze(&q);
    let mut key = keys[0];
    'outer: for t in &q_tokens {
        for k in &keys {
            let mention = analyze(&k.replace('_', " "));
            if mention.contains(t) {
                key = k;
                break 'outer;
            }
        }
    }
    let needle = format!("\"{key}\"");
    let mut out: Vec<String> = Vec::new();
    let mut search = 0;
    while let Some(rel) = text[search..].find(&needle) {
        let after = &text[search + rel + needle.len()..];
        let after = after.trim_start().strip_prefix(':').unwrap_or(after).trim_start();
        let value = if let Some(stripped) = after.strip_prefix('\"') {
            stripped.split('\"').next().unwrap_or("").to_string()
        } else {
            after
                .chars()
                .take_while(|c| !matches!(c, ',' | '}' | '\n'))
                .collect::<String>()
                .trim()
                .to_string()
        };
        if !value.is_empty() && !out.contains(&value) {
            out.push(value);
        }
        search = search + rel + needle.len();
    }
    if out.is_empty() {
        None
    } else {
        Some(out)
    }
}

/// For questions like "list the companies and their competitors": renders
/// each JSON-ish row as `Entity (field: a, b)` using the array field whose
/// key matches a question term.
fn render_rows_with_array_field(question: &str, text: &str) -> Option<String> {
    let q_terms = analyze(question);
    let mut out: Vec<String> = Vec::new();
    for line in text.lines().filter(|l| l.contains("\":")) {
        let entity = find_json_field_value("company city state name", line)
            .or_else(|| line.trim_start_matches(['-', ' ']).split(':').next().map(str::to_string))?;
        // Find an array field whose key matches a question term.
        let mut extra = None;
        let mut search = 0;
        while let Some(pos) = line[search..].find('"') {
            let start = search + pos + 1;
            let Some(end_rel) = line[start..].find('"') else { break };
            let key = &line[start..start + end_rel];
            let after = line[start + end_rel + 1..].trim_start();
            if let Some(rest) = after.strip_prefix(':') {
                let rest = rest.trim_start();
                if let Some(arr_body) = rest.strip_prefix('[') {
                    let key_terms = analyze(&key.replace('_', " "));
                    if key_terms.iter().any(|t| q_terms.contains(t)) {
                        let inner: String =
                            arr_body.chars().take_while(|c| *c != ']').collect();
                        let values: Vec<String> = inner
                            .split(',')
                            .map(|v| v.trim().trim_matches('"').to_string())
                            .filter(|v| !v.is_empty())
                            .collect();
                        extra = Some(format!("{key}: {}", values.join(", ")));
                    }
                }
            }
            search = start + end_rel + 1;
        }
        match extra {
            Some(e) => out.push(format!("{entity} ({e})")),
            None => out.push(entity),
        }
    }
    if out.is_empty() {
        None
    } else {
        Some(out.join("; "))
    }
}

/// When a question names two or more fields present in JSON-ish rows
/// ("the revenue growth and outlook of companies ..."), renders each row as
/// `Entity: field=value, field=value`. Returns `None` when fewer than two
/// fields match (single-field extraction handles that case better).
fn render_rows_with_fields(question: &str, text: &str) -> Option<String> {
    const NAME_KEYS: &[&str] = &["company", "city", "us_state_abbrev", "name", "id"];
    let q_terms = analyze(question);
    let rows: Vec<&str> = text.lines().filter(|l| l.contains("\":")).collect();
    if rows.is_empty() {
        return None;
    }
    // Discover keys present in the first row.
    let mut keys: Vec<String> = Vec::new();
    let first = rows[0];
    let mut search = 0;
    while let Some(pos) = first[search..].find('\"') {
        let start = search + pos + 1;
        let Some(end_rel) = first[start..].find('\"') else { break };
        let key = &first[start..start + end_rel];
        if first[start + end_rel + 1..].trim_start().starts_with(':') && !keys.iter().any(|k| k == key)
        {
            keys.push(key.to_string());
        }
        search = start + end_rel + 1;
    }
    let entity_key = NAME_KEYS.iter().find(|k| keys.iter().any(|x| x == *k))?;
    let matching: Vec<&String> = keys
        .iter()
        .filter(|k| k.as_str() != *entity_key)
        .filter(|k| {
            let kt = analyze(&k.replace('_', " "));
            kt.iter().any(|t| q_terms.contains(t))
        })
        .collect();
    if matching.len() < 2 {
        return None;
    }
    let mut out = Vec::new();
    for row in rows {
        let entity = find_json_field_value(&entity_key.replace('_', " "), row)?;
        let fields: Vec<String> = matching
            .iter()
            .filter_map(|k| {
                find_json_field_value(&k.replace('_', " "), row).map(|v| format!("{k} {v}"))
            })
            .collect();
        out.push(format!("{entity}: {}", fields.join(", ")));
    }
    Some(out.join("; "))
}

/// Looks for a JSON-ish `"key": value` pair whose key shares a content term
/// with the question, returning the value's text.
fn find_json_field_value(question: &str, row_text: &str) -> Option<String> {
    let q_terms = analyze(question);
    // Rank by key-term overlap, breaking ties toward the more specific
    // (longer) value — "engine failure" over "mechanical".
    let mut best: Option<((usize, usize), String)> = None;
    let bytes = row_text.as_bytes();
    let mut i = 0;
    while let Some(pos) = row_text[i..].find('"') {
        let start = i + pos + 1;
        let Some(end_rel) = row_text[start..].find('"') else { break };
        let key = &row_text[start..start + end_rel];
        let after = row_text[start + end_rel + 1..].trim_start();
        if let Some(rest) = after.strip_prefix(':') {
            let key_terms = analyze(&key.replace('_', " "));
            let hits = key_terms.iter().filter(|t| q_terms.contains(t)).count();
            if hits > 0 {
                // Parse the value: quoted string or number/bool.
                let rest = rest.trim_start();
                let value = if let Some(stripped) = rest.strip_prefix('"') {
                    stripped.split('"').next().unwrap_or("").to_string()
                } else {
                    rest.chars()
                        .take_while(|c| !matches!(c, ',' | '}' | '\n'))
                        .collect::<String>()
                        .trim()
                        .to_string()
                };
                let rank = (hits, value.len());
                if !value.is_empty() && best.as_ref().is_none_or(|(r, _)| rank > *r) {
                    best = Some((rank, value));
                }
            }
        }
        i = start + end_rel + 1;
        let _ = bytes;
    }
    best.map(|(_, v)| v)
}

// ---------------------------------------------------------------------------
// Recognizers
// ---------------------------------------------------------------------------

/// US state abbreviation: prefers ", XX" renderings, falls back to full names.
pub fn find_state(context: &Reading) -> Option<String> {
    // ", AK." / ", AK," / ", AK " patterns.
    let context_text = context.text();
    let bytes = context_text.as_bytes();
    let mut i = 0;
    while i + 4 <= bytes.len() {
        // `get`: the two bytes after ", " may end inside a character.
        if let (b',', b' ', Some(cand)) = (bytes[i], bytes[i + 1], context_text.get(i + 2..i + 4)) {
            if cand.chars().all(|c| c.is_ascii_uppercase()) && lexicon::is_state_abbrev(cand) {
                let after = bytes.get(i + 4).copied().unwrap_or(b' ');
                if !(after as char).is_ascii_alphanumeric() {
                    return Some(cand.to_string());
                }
            }
        }
        i += 1;
    }
    let k = lexicons().states.first_hit(context.words())?;
    Some(lexicon::US_STATES[k].0.to_string())
}

/// A known city name appearing in the text.
pub fn find_city(context: &Reading) -> Option<String> {
    let k = lexicons().cities.first_hit(context.words())?;
    Some(lexicon::CITIES[k].0.to_string())
}

/// FAA registration ("N" + digits + letters).
pub fn find_registration(context: &Reading) -> Option<String> {
    for word in context.text().split(|c: char| !(c.is_ascii_alphanumeric())) {
        if word.len() >= 4
            && word.len() <= 6
            && word.starts_with('N')
            && word[1..].chars().take_while(|c| c.is_ascii_digit()).count() >= 2
            && word[1..].chars().all(|c| c.is_ascii_digit() || c.is_ascii_uppercase())
        {
            return Some(word.to_string());
        }
    }
    None
}

const MONTHS: &[&str] = &[
    "January", "February", "March", "April", "May", "June", "July", "August", "September",
    "October", "November", "December",
];

/// "Month D, YYYY" date, normalized to `YYYY-MM-DD`.
pub fn find_date(context: &Reading) -> Option<String> {
    let context = context.text();
    // `contains` first: it skips a month the text never names faster than
    // `find` can.
    for (mi, month) in MONTHS.iter().enumerate().filter(|(_, m)| context.contains(*m)) {
        let mut start = 0;
        while let Some(pos) = context[start..].find(month) {
            let abs = start + pos;
            let rest = &context[abs + month.len()..];
            let rest = rest.trim_start();
            let day = leading_digits(rest);
            if !day.is_empty() {
                let after_day = rest[day.len()..].trim_start_matches([',', ' ']);
                let year = leading_digits(after_day);
                if year.len() == 4 {
                    return Some(format!("{year}-{:02}-{:02}", mi + 1, day.parse::<u32>().ok()?));
                }
            }
            start = abs + month.len();
        }
    }
    None
}

/// The ASCII digits `s` starts with.
fn leading_digits(s: &str) -> &str {
    &s[..s.bytes().take_while(u8::is_ascii_digit).count()]
}

/// First plausible calendar year (1950..=2049).
pub fn find_year(context: &Reading) -> Option<u32> {
    for word in context.text().split(|c: char| !c.is_ascii_digit()) {
        if word.len() == 4 {
            if let Ok(y) = word.parse::<u32>() {
                if (1950..2050).contains(&y) {
                    return Some(y);
                }
            }
        }
    }
    None
}

/// Whether the document's stated cause is environmental/weather.
pub fn weather_related(context: &Reading) -> bool {
    lexicons().weather.hits(context.causal().words()) != 0
}

/// The detail cause named in the causal region.
pub fn find_cause(context: &Reading) -> Option<String> {
    let causal = context.causal();
    if let Some(k) = lexicons().causes.first_hit(causal.words()) {
        let detail = lexicon::CAUSES.iter().flat_map(|(_, d)| d.iter()).nth(k);
        return detail.map(|d| (*d).to_string());
    }
    // Fallback: the clause after a causal marker (NTSB reports phrase it
    // "determines the probable cause ... to be: <clause>"), found
    // case-insensitively where it stands in the text.
    let text = causal.text();
    for marker in ["to be: ", "due to ", "caused by "] {
        let at = text.as_bytes().windows(marker.len()).position(|w| w.eq_ignore_ascii_case(marker.as_bytes()));
        if let Some(i) = at {
            let tail: String = text[i + marker.len()..]
                .chars()
                .take_while(|c| *c != '.' && *c != ',')
                .collect();
            let t = tail.trim();
            if !t.is_empty() {
                return Some(t.to_string());
            }
        }
    }
    None
}

/// The cause category implied by the causal region.
pub fn find_cause_category(context: &Reading) -> Option<String> {
    find_cause(context)
        .and_then(|d| lexicon::cause_category(&d))
        .or_else(|| {
            let k = lexicons().categories.first_hit(context.causal().words())?;
            Some(lexicon::CAUSES[k].0)
        })
        .map(str::to_string)
}

/// Flight phase named in the text.
pub fn find_phase(context: &Reading) -> Option<String> {
    let k = lexicons().phases.first_hit(context.words())?;
    Some(lexicon::FLIGHT_PHASES[k].to_string())
}

/// Aircraft `(make, model)` from the lexicon.
pub fn find_aircraft(context: &Reading) -> Option<(String, String)> {
    let context = context.text();
    for (make, models) in lexicon::AIRCRAFT {
        if context.contains(make) {
            for m in *models {
                if context.contains(m) {
                    return Some(((*make).to_string(), (*m).to_string()));
                }
            }
            return Some(((*make).to_string(), String::new()));
        }
    }
    None
}

/// Company `"<Head> <Tail>"` bigram from the lexicon.
pub fn find_company(context: &Reading) -> Option<String> {
    let context = context.text();
    for head in lexicon::COMPANY_HEADS.iter().filter(|h| context.contains(*h)) {
        let mut start = 0;
        while let Some(pos) = context[start..].find(head) {
            let abs = start + pos;
            let rest = context[abs + head.len()..].trim_start();
            for tail in lexicon::COMPANY_TAILS {
                if rest.starts_with(tail) {
                    return Some(format!("{head} {tail}"));
                }
            }
            start = abs + head.len();
        }
    }
    None
}

/// Ticker symbol rendered as "(XXXX)".
pub fn find_ticker(context: &Reading) -> Option<String> {
    let context = context.text();
    for (i, c) in context.char_indices() {
        if c == '(' {
            let rest = &context[i + 1..];
            let sym = &rest[..rest.bytes().take_while(u8::is_ascii_uppercase).count()];
            if (2..=5).contains(&sym.len()) && rest[sym.len()..].starts_with(')') {
                return Some(sym.to_string());
            }
        }
    }
    None
}

/// Dollar amount in millions near one of `anchors` (empty anchors = any).
pub fn find_money(context: &Reading, anchors: &[&str]) -> Option<f64> {
    for (_, ls) in context.sentences() {
        let anchor_pos = if anchors.is_empty() {
            Some(0)
        } else {
            anchors.iter().filter_map(|a| ls.find(a)).min()
        };
        let Some(anchor_pos) = anchor_pos else { continue };
        // Consider every "$<number>" in the sentence; take the one nearest
        // the anchor term ("earnings of $1.42 per share" must not pick the
        // revenue figure earlier in the same sentence). Both offsets are
        // taken in the lowercased sentence: lowercasing can change a
        // character's byte length.
        let mut best: Option<(usize, f64)> = None;
        let mut search = 0;
        while let Some(rel) = ls[search..].find('$') {
            let i = search + rel;
            let rest = &ls[i + 1..];
            let num: String = rest
                .chars()
                .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == ',')
                .collect();
            if let Ok(mut v) = num.replace(',', "").parse::<f64>() {
                let tail = rest[num.len()..].trim_start();
                if lower_starts_with(tail, "billion") {
                    v *= 1000.0;
                } else if !lower_starts_with(tail, "million") && v > 10_000.0 {
                    v /= 1.0e6; // raw dollars → millions
                }
                let dist = i.abs_diff(anchor_pos);
                if best.is_none_or(|(d, _)| dist < d) {
                    best = Some((dist, v));
                }
            }
            search = i + 1;
        }
        if let Some((_, v)) = best {
            return Some(v);
        }
    }
    None
}

/// Percentage near one of `anchors`; negative when a decline verb anchors it.
pub fn find_percent(context: &Reading, anchors: &[&str]) -> Option<f64> {
    for (s, ls) in context.sentences() {
        if !anchors.is_empty() && !anchors.iter().any(|a| ls.contains(a)) {
            continue;
        }
        if let Some(i) = s.find('%') {
            let head = &s[..i];
            let num = &head[head.len() - head.bytes().rev().take_while(|b| b.is_ascii_digit() || *b == b'.').count()..];
            if let Ok(v) = num.parse::<f64>() {
                let sign = if ls.contains("decline") || ls.contains("decrease") || ls.contains("fell")
                {
                    -1.0
                } else {
                    1.0
                };
                return Some(sign * v);
            }
        }
    }
    None
}

/// Whether text reports a CEO change/appointment.
pub fn ceo_changed(context: &Reading) -> bool {
    let l = context.lower();
    ["new chief executive", "new ceo", "appointed", "succeeds", "stepped down", "named as ceo",
     "transition at the top", "incoming ceo"]
        .iter()
        .any(|m| l.contains(m))
}

/// CEO name: "FIRST LAST" lexicon bigram near a CEO mention.
pub fn find_ceo(context: &Reading) -> Option<String> {
    for (s, l) in context.sentences() {
        if l.contains("ceo") || l.contains("chief executive") {
            if let Some(n) = find_person(&Reading::new(s)) {
                return Some(n);
            }
        }
    }
    find_person(context)
}

/// The earliest "FIRST LAST" bigram (by text position) from the name
/// lexicons — earliest, so "appointed Maria Chen ... James Anderson stepped
/// down" resolves to the appointee.
pub fn find_person(context: &Reading) -> Option<String> {
    let context = context.text();
    let mut best: Option<(usize, String)> = None;
    for first in lexicon::FIRST_NAMES.iter().filter(|f| context.contains(*f)) {
        let mut start = 0;
        while let Some(pos) = context[start..].find(first) {
            let abs = start + pos;
            let rest = context[abs + first.len()..].trim_start();
            for last in lexicon::LAST_NAMES {
                if rest.starts_with(last) && best.as_ref().is_none_or(|(p, _)| abs < *p) {
                    best = Some((abs, format!("{first} {last}")));
                }
            }
            start = abs + first.len();
        }
    }
    best.map(|(_, name)| name)
}

/// Sector term from the lexicon.
pub fn find_sector(context: &Reading) -> Option<String> {
    let k = lexicons().sectors.first_hit(context.words())?;
    Some(lexicon::SECTORS[k].to_string())
}

/// Guidance direction mentioned near the word "guidance".
pub fn find_guidance(context: &Reading) -> Option<String> {
    let l = context.lower();
    let mut best: Option<(usize, &str)> = None;
    for g in ["lowered", "raised", "maintained"].into_iter().filter(|g| l.contains(g)) {
        let mut start = 0;
        while let Some(pos) = l[start..].find(g) {
            let abs = start + pos;
            // Within ~60 bytes of a "guidance"/"outlook" mention (bounds
            // snapped to char boundaries).
            let mut window_lo = abs.saturating_sub(60);
            while !l.is_char_boundary(window_lo) {
                window_lo -= 1;
            }
            let mut window_hi = (abs + 60).min(l.len());
            while !l.is_char_boundary(window_hi) {
                window_hi += 1;
            }
            if (l[window_lo..window_hi].contains("guidance") || l[window_lo..window_hi].contains("outlook"))
                && best.is_none_or(|(p, _)| abs < p) {
                    best = Some((abs, g));
                }
            start = abs + g.len();
        }
    }
    best.map(|(_, g)| g.to_string())
}

/// Fiscal quarter like "Q3 2024".
pub fn find_quarter(context: &Reading) -> Option<String> {
    let context = context.text();
    let bytes = context.as_bytes();
    for i in 0..bytes.len().saturating_sub(1) {
        if bytes[i] == b'Q' && bytes[i + 1].is_ascii_digit() && (b'1'..=b'4').contains(&bytes[i + 1])
        {
            let q = &context[i..i + 2];
            let year = leading_digits(context[i + 2..].trim_start());
            if year.len() == 4 {
                return Some(format!("{q} {year}"));
            }
            return Some(q.to_string());
        }
    }
    None
}

/// `(positive_cues, negative_cues)` counts.
fn pos_neg(context: &Reading) -> (usize, usize) {
    // The cue stems, positive first, built once.
    static CUE_STEMS: OnceLock<Vec<String>> = OnceLock::new();
    static CUES: OnceLock<Terms<'static>> = OnceLock::new();
    let cues = CUES.get_or_init(|| {
        Terms::new(CUE_STEMS.get_or_init(|| {
            lexicon::POSITIVE_CUES.iter().chain(lexicon::NEGATIVE_CUES).map(|c| stem(c)).collect()
        }))
    });
    let hits = analyzed_hits(cues, context);
    let pos_mask = (1u64 << lexicon::POSITIVE_CUES.len()) - 1;
    ((hits & pos_mask).count_ones() as usize, (hits & !pos_mask).count_ones() as usize)
}

/// Three-way sentiment from cue counts.
pub fn sentiment(context: &Reading) -> &'static str {
    let (p, n) = pos_neg(context);
    if p > n {
        "positive"
    } else if n > p {
        "negative"
    } else {
        "neutral"
    }
}

/// Number of fatalities stated in the text: reads both table rows
/// ("Fatal | 0 | 0 | 2" — the trailing total column) and narrative
/// ("Two occupants were fatally injured"). Returns the maximum statement.
pub fn fatal_count(context: &Reading) -> i64 {
    const WORDS: &[(&str, i64)] = &[
        ("one", 1), ("two", 2), ("three", 3), ("four", 4), ("five", 5), ("six", 6),
    ];
    let toks = context.words();
    let mut best: i64 = 0;
    for i in 0..toks.len() {
        if !toks.get(i).starts_with("fatal") {
            continue;
        }
        // Table shape: digits following the keyword; take the last of the
        // run (the Total column).
        let mut last_digit: Option<i64> = None;
        for next in (i + 1..toks.len()).take(4) {
            match toks.get(next).parse::<i64>() {
                Ok(n) if n < 1000 => last_digit = Some(n),
                _ => break,
            }
        }
        if let Some(n) = last_digit {
            best = best.max(n);
            continue;
        }
        // Narrative shape: a count (digit or number word) shortly before
        // "fatally injured" / "fatal injuries".
        for back in (i.saturating_sub(4)..i).map(|j| toks.get(j)) {
            if let Ok(n) = back.parse::<i64>() {
                if n < 100 {
                    best = best.max(n);
                }
            }
            if let Some((_, n)) = WORDS.iter().find(|(w, _)| *w == back) {
                best = best.max(*n);
            }
        }
    }
    best
}

/// Count appearing in the same sentence as one of the anchor stems; handles
/// "no injuries" and number words up to twelve.
pub fn count_near(context: &Reading, anchors: &[&str]) -> Option<i64> {
    const WORDS: &[(&str, i64)] = &[
        ("zero", 0), ("one", 1), ("two", 2), ("three", 3), ("four", 4), ("five", 5), ("six", 6),
        ("seven", 7), ("eight", 8), ("nine", 9), ("ten", 10), ("eleven", 11), ("twelve", 12),
    ];
    for (s, l) in context.sentences() {
        if !anchors.iter().any(|a| l.contains(a)) {
            continue;
        }
        if l.contains("no injur") || l.contains("not injured") || l.contains("uninjured") {
            return Some(0);
        }
        if let Some(n) = first_number(s) {
            return Some(n as i64);
        }
        let toks = tokenize(l);
        for (w, n) in WORDS {
            if toks.iter().any(|t| t == w) {
                return Some(*n);
            }
        }
    }
    None
}

/// First number (integer or decimal) in the text, skipping 4-digit years.
pub fn first_number(text: &str) -> Option<f64> {
    let mut cur = String::new();
    let mut results = Vec::new();
    for c in text.chars().chain(std::iter::once(' ')) {
        if c.is_ascii_digit() || (c == '.' && !cur.is_empty()) {
            cur.push(c);
        } else {
            if !cur.is_empty() {
                let t = cur.trim_end_matches('.');
                if let Ok(v) = t.parse::<f64>() {
                    let is_year = t.len() == 4 && (1950.0..2050.0).contains(&v);
                    results.push((v, is_year));
                }
                cur.clear();
            }
        }
    }
    results
        .iter()
        .find(|(_, y)| !y)
        .or_else(|| results.first())
        .map(|(v, _)| *v)
}

/// The sentence with the highest term overlap with `terms` text.
pub fn best_sentence(terms: &str, context: &Reading) -> Option<String> {
    let want = analyze(terms);
    let mut best: Option<(String, usize)> = None;
    for (s, _) in context.sentences() {
        let toks = analyze(s);
        let hits = want.iter().filter(|t| toks.contains(t)).count();
        if hits > 0 && best.as_ref().is_none_or(|(_, h)| hits > *h) {
            best = Some((s.to_string(), hits));
        }
    }
    best.map(|(s, _)| s)
}

/// Crude negation check: any matched term preceded by no/not/without nearby
/// (within the three tokens before it).
fn negated(terms: &[String], context: &Reading) -> bool {
    // Which of the last three tokens were negation cues, newest in bit 0. A
    // token is stemmed only when one was.
    let mut recent = 0u8;
    context.words().iter().any(|t| {
        let hit = recent != 0 && terms.contains(&stem(t));
        let cue = matches!(t, "no" | "not" | "without" | "never");
        recent = ((recent << 1) | u8::from(cue)) & 0b111;
        hit
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const NTSB_SAMPLE: &str = "Aviation Accident Final Report. The accident occurred on June 3, \
        2019 near Anchorage, AK. The Cessna 172, registration N4521B, was on approach when it \
        encountered gusting wind conditions. The pilot reported a loss of altitude. The airplane \
        impacted terrain short of the runway. One passenger was seriously injured. The National \
        Transportation Safety Board determines the probable cause to be an encounter with wind \
        during approach.";

    const EARNINGS_SAMPLE: &str = "Apex Robotics (APXR) reported Q3 2024 results. Revenue was \
        $412.5 million, and revenue grew 18.2% year over year. Earnings per share came in at \
        $1.42 per share. The AI sector remained strong with record demand and robust momentum. \
        The board appointed Maria Chen as the new CEO, as James Anderson stepped down.";

    #[test]
    fn extracts_ntsb_fields() {
        assert_eq!(extract_field("us_state_abbrev", "string", &Reading::new(NTSB_SAMPLE)), Value::from("AK"));
        assert_eq!(extract_field("city", "string", &Reading::new(NTSB_SAMPLE)), Value::from("Anchorage"));
        assert_eq!(extract_field("date", "string", &Reading::new(NTSB_SAMPLE)), Value::from("2019-06-03"));
        assert_eq!(extract_field("year", "int", &Reading::new(NTSB_SAMPLE)), Value::Int(2019));
        assert_eq!(
            extract_field("registration", "string", &Reading::new(NTSB_SAMPLE)),
            Value::from("N4521B")
        );
        assert_eq!(
            extract_field("aircraft_model", "string", &Reading::new(NTSB_SAMPLE)),
            Value::from("Cessna 172")
        );
        assert_eq!(extract_field("weather_related", "bool", &Reading::new(NTSB_SAMPLE)), Value::Bool(true));
        assert_eq!(extract_field("cause_detail", "string", &Reading::new(NTSB_SAMPLE)), Value::from("wind"));
        assert_eq!(
            extract_field("cause_category", "string", &Reading::new(NTSB_SAMPLE)),
            Value::from("environmental")
        );
        assert_eq!(extract_field("phase", "string", &Reading::new(NTSB_SAMPLE)), Value::from("approach"));
    }

    #[test]
    fn extracts_earnings_fields() {
        assert_eq!(extract_field("company", "string", &Reading::new(EARNINGS_SAMPLE)), Value::from("Apex Robotics"));
        assert_eq!(extract_field("ticker", "string", &Reading::new(EARNINGS_SAMPLE)), Value::from("APXR"));
        assert_eq!(extract_field("revenue_musd", "float", &Reading::new(EARNINGS_SAMPLE)), Value::Float(412.5));
        assert_eq!(extract_field("growth_pct", "float", &Reading::new(EARNINGS_SAMPLE)), Value::Float(18.2));
        assert_eq!(extract_field("quarter", "string", &Reading::new(EARNINGS_SAMPLE)), Value::from("Q3 2024"));
        assert_eq!(extract_field("ceo", "string", &Reading::new(EARNINGS_SAMPLE)), Value::from("Maria Chen"));
        assert_eq!(extract_field("ceo_changed", "bool", &Reading::new(EARNINGS_SAMPLE)), Value::Bool(true));
        assert_eq!(extract_field("sector", "string", &Reading::new(EARNINGS_SAMPLE)), Value::from("AI"));
        assert_eq!(extract_field("sentiment", "string", &Reading::new(EARNINGS_SAMPLE)), Value::from("positive"));
    }

    #[test]
    fn missing_fields_are_null_or_default() {
        assert_eq!(extract_field("ticker", "string", &Reading::new(NTSB_SAMPLE)), Value::Null);
        assert_eq!(extract_field("city", "string", &Reading::new("nothing here")), Value::Null);
    }

    #[test]
    fn predicates_on_causes() {
        assert!(eval_predicate("caused by wind", &Reading::new(NTSB_SAMPLE)));
        assert!(eval_predicate("caused by environmental factors", &Reading::new(NTSB_SAMPLE)));
        assert!(!eval_predicate("caused by engine failure", &Reading::new(NTSB_SAMPLE)));
        assert!(!eval_predicate("caused by pilot error", &Reading::new(NTSB_SAMPLE)));
    }

    #[test]
    fn generic_predicates_with_negation() {
        assert!(eval_predicate("mentions a runway", &Reading::new(NTSB_SAMPLE)));
        assert!(!eval_predicate("mentions a helicopter", &Reading::new(NTSB_SAMPLE)));
        let injured = |text| eval_predicate("passengers were injured", &Reading::new(text));
        assert!(!injured("There were no injured passengers aboard."));
        // A negation cue reaches exactly three tokens ahead.
        assert!(!injured("Not all four passengers were injured."));
        assert!(injured("Not even all four passengers were injured."));
    }

    #[test]
    fn classify_prefers_supported_label() {
        let labels: Vec<String> = vec!["environmental".into(), "mechanical".into(), "pilot error".into()];
        assert_eq!(classify(&labels, &Reading::new(NTSB_SAMPLE)), Some("environmental".into()));
        let labels2: Vec<String> = vec!["positive".into(), "negative".into(), "neutral".into()];
        assert_eq!(classify(&labels2, &Reading::new(EARNINGS_SAMPLE)), Some("positive".into()));
    }

    #[test]
    fn summarize_is_extractive_and_bounded() {
        let s = summarize("cause of the accident", NTSB_SAMPLE, 2);
        let n = aryn_core::text::sentences(&s).len();
        assert!(n <= 2, "{s}");
        assert!(s.contains("probable cause") || s.contains("Aviation Accident"), "{s}");
    }

    #[test]
    fn answers_locate_evidence() {
        let (a, pos) = answer_question("What was the probable cause?", NTSB_SAMPLE);
        assert!(a.contains("wind"), "{a}");
        assert!(pos > 0.5, "cause is near the end: {pos}");
        let (a, _) = answer_question("Where did the accident occur?", NTSB_SAMPLE);
        assert_eq!(a, "Anchorage");
        let (a, _) = answer_question("When did the accident occur?", NTSB_SAMPLE);
        assert_eq!(a, "2019-06-03");
        let (a, _) = answer_question("Who is the new CEO?", EARNINGS_SAMPLE);
        assert_eq!(a, "Maria Chen");
    }

    #[test]
    fn unanswerable_questions_admit_it() {
        let (a, _) = answer_question("What is the GDP of France?", "The cat sat on the mat.");
        assert!(a.contains("does not contain"));
    }

    #[test]
    fn injury_counts() {
        assert_eq!(count_near(&Reading::new(NTSB_SAMPLE), &["injur"]), Some(1));
        assert_eq!(count_near(&Reading::new("There were no injuries reported."), &["injur"]), Some(0));
        assert_eq!(count_near(&Reading::new("Three occupants were fatally injured."), &["fatal"]), Some(3));
    }

    #[test]
    fn first_number_skips_years() {
        assert_eq!(first_number("In 2019 the airplane carried 4 people"), Some(4.0));
        assert_eq!(first_number("In 2019 it happened"), Some(2019.0));
        assert_eq!(first_number("nothing"), None);
    }

    #[test]
    fn money_and_percent_variants() {
        assert_eq!(find_money(&Reading::new("Revenue was $2.1 billion this year."), &["revenue"]), Some(2100.0));
        assert_eq!(find_percent(&Reading::new("Sales declined 4.5% in Q2."), &["decline"]), Some(-4.5));
        assert_eq!(find_percent(&Reading::new("no numbers here"), &[]), None);
    }

    #[test]
    fn money_nearest_the_anchor_survives_lowercasing_that_grows_text() {
        // 'Ⱥ' is 2 bytes and its lowercase 3: offsets from the original and
        // the lowercased sentence would disagree by one per 'Ⱥ'.
        let text = format!("{} $7 million in revenue and a cost base of $900 million.", "Ⱥ".repeat(20));
        assert_eq!(find_money(&Reading::new(&text), &["revenue"]), Some(7.0));
    }
}

#[cfg(test)]
mod newer_recognizer_tests {
    use super::*;

    #[test]
    fn negated_fatality_predicates_hold_when_nobody_died() {
        let fatal = Reading::new("Two occupants were fatally injured.");
        let safe = Reading::new("Fatal | 0 | 0 | 0 Serious | 1 | 0 | 1");
        for p in ["the incident involved no fatalities", "the accident was not fatal", "a non-fatal accident", "without fatalities"] {
            assert!(!eval_predicate(p, &fatal), "{p:?}");
            assert!(eval_predicate(p, &safe), "{p:?}");
        }
        assert!(eval_predicate("the accident involved fatalities", &fatal));
        assert!(!eval_predicate("the accident involved fatalities", &safe));
    }

    #[test]
    fn fatal_count_reads_tables_and_narrative() {
        // Table shape: the trailing Total column wins.
        assert_eq!(fatal_count(&Reading::new("Injuries | Crew | Passengers | Total Fatal | 1 | 1 | 2 Serious | 0 | 0 | 0")), 2);
        assert_eq!(fatal_count(&Reading::new("Fatal | 0 | 0 | 0 Serious | 1 | 0 | 1")), 0);
        // Narrative shapes.
        assert_eq!(fatal_count(&Reading::new("Two occupants were fatally injured.")), 2);
        assert_eq!(fatal_count(&Reading::new("3 occupants were fatally injured in the crash.")), 3);
        assert_eq!(fatal_count(&Reading::new("The occupants were not injured.")), 0);
        // Multiple statements: take the max (table + narrative agree).
        assert_eq!(
            fatal_count(&Reading::new("One occupant was fatally injured. Fatal | 0 | 1 | 1")),
            1
        );
        assert_eq!(fatal_count(&Reading::new("")), 0);
    }

    #[test]
    fn guidance_recognizer_requires_nearby_anchor() {
        assert_eq!(
            find_guidance(&Reading::new("Full-year guidance lowered after the quarter.")),
            Some("lowered".into())
        );
        assert_eq!(
            find_guidance(&Reading::new("the company raised its outlook for the year")),
            Some("raised".into())
        );
        // "lowered" far from any guidance mention doesn't count.
        assert_eq!(
            find_guidance(&Reading::new("The landing gear was lowered on final. Nothing else happened in this long sentence about flying.")),
            None
        );
        assert_eq!(find_guidance(&Reading::new("")), None);
    }

    #[test]
    fn json_field_value_prefers_specific_values() {
        let row = r#"- e1: {"cause_category":"mechanical","cause_detail":"engine failure","year":2020}"#;
        assert_eq!(
            find_json_field_value("what was the probable cause", row),
            Some("engine failure".into())
        );
        assert_eq!(
            find_json_field_value("which year", row),
            Some("2020".into())
        );
        assert_eq!(find_json_field_value("altitude of the flight", row), None);
    }

    #[test]
    fn collect_values_uses_question_head_noun() {
        let text = "- e1: {\"ceo\":\"Maria Chen\",\"company\":\"Apex Systems\"}\n- e2: {\"ceo\":\"Omar Kim\",\"company\":\"Lumen Labs\"}";
        let companies =
            collect_json_field_values("list the companies whose ceo changed", text).unwrap();
        assert_eq!(companies, vec!["Apex Systems", "Lumen Labs"]);
        let ceos = collect_json_field_values("list the ceo names", text).unwrap();
        assert_eq!(ceos, vec!["Maria Chen", "Omar Kim"]);
        assert!(collect_json_field_values("list things", "no json here").is_none());
    }

    #[test]
    fn rows_with_array_field_render_pairs() {
        let text = "- e1: {\"company\":\"Apex Systems\",\"competitors\":[\"Lumen Labs\",\"Vertex\"]}";
        let out = render_rows_with_array_field(
            "list the companies and their competitors",
            text,
        )
        .unwrap();
        assert!(out.contains("Apex Systems"));
        assert!(out.contains("competitors: Lumen Labs, Vertex"), "{out}");
        // No matching array field → entity only.
        let out2 = render_rows_with_array_field(
            "list the companies and their subsidiaries",
            text,
        )
        .unwrap();
        assert_eq!(out2, "Apex Systems");
    }

    #[test]
    fn conjunction_predicates_are_all_of() {
        let text = Reading::new("Strong winds damaged the airplane near Reno.");
        assert!(eval_predicate("mentions winds; and also mentions Reno", &text));
        assert!(!eval_predicate("mentions winds; and also mentions Boston", &text));
        assert!(!eval_predicate("mentions snow; and also mentions Reno", &text));
    }
}

#[cfg(test)]
mod multi_field_tests {
    use super::*;

    #[test]
    fn multi_field_rows_render_all_requested_fields() {
        let text = "- e1: {\"company\":\"Apex Systems\",\"growth_pct\":18.2,\"sentiment\":\"positive\",\"eps\":1.42}\n- e2: {\"company\":\"Lumen Labs\",\"growth_pct\":-3.0,\"sentiment\":\"negative\",\"eps\":0.8}";
        let out = render_rows_with_fields(
            "what is the revenue growth and sentiment of companies whose ceo changed",
            text,
        )
        .unwrap();
        assert!(out.contains("Apex Systems"), "{out}");
        assert!(out.contains("growth_pct 18.2"), "{out}");
        assert!(out.contains("sentiment positive"), "{out}");
        assert!(out.contains("Lumen Labs"), "{out}");
        // Unrequested fields are omitted.
        assert!(!out.contains("eps"), "{out}");
    }

    #[test]
    fn single_matching_field_defers_to_single_value_path() {
        let text = "- e1: {\"company\":\"Apex\",\"growth_pct\":18.2}";
        assert!(render_rows_with_fields("what is the growth", text).is_none());
    }
}
