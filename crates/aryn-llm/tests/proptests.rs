//! Property-based tests for the LLM substrate.

use aryn_core::{json, obj, Value};
use aryn_llm::embed::{cosine, EmbeddingModel, HashedBowEmbedder};
use aryn_llm::mock::{MockLlm, SimConfig};
use aryn_llm::model::{LanguageModel, LlmRequest};
use aryn_llm::prompt::{build_prompt, parse_prompt, tasks};
use aryn_llm::registry::{TaskKind, GPT4_SIM, LLAMA7B_SIM};
use aryn_llm::semantics::Reading;
use aryn_llm::LlmClient;
use aryn_docgen::corpus::Domain;
use aryn_docgen::stream::{corpus_doc, extracted_document};
use proptest::prelude::*;
use std::sync::Arc;

fn context_strategy() -> impl Strategy<Value = String> {
    // Context text without the template's section markers (a real document
    // would not contain "[PARAMS]" on its own line).
    "[a-zA-Z0-9 ,.\\-]{0,300}"
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn prompt_roundtrip_for_all_tasks(
        predicate in "[a-zA-Z0-9 ]{1,60}",
        context in context_strategy(),
    ) {
        for kind in [
            TaskKind::Extract,
            TaskKind::Filter,
            TaskKind::Classify,
            TaskKind::Summarize,
            TaskKind::Answer,
            TaskKind::Plan,
        ] {
            let params = obj! { "predicate" => predicate.as_str() };
            let p = build_prompt(kind, &params, &context);
            let t = parse_prompt(&p).unwrap();
            prop_assert_eq!(t.kind, kind);
            prop_assert_eq!(&t.params, &params);
            prop_assert_eq!(t.context, context.as_str());
        }
    }

    #[test]
    fn mock_model_never_panics_on_arbitrary_prompts(junk in ".{0,400}") {
        let m = MockLlm::new(&LLAMA7B_SIM, SimConfig::with_seed(3));
        let _ = m.generate(&LlmRequest::new(junk).with_max_tokens(64));
    }

    #[test]
    fn mock_model_is_a_pure_function_of_prompt(context in context_strategy()) {
        let m = MockLlm::new(&GPT4_SIM, SimConfig::with_seed(5));
        let p = tasks::filter("mentions wind", &context);
        let a = m.generate(&LlmRequest::new(p.clone()));
        let b = m.generate(&LlmRequest::new(p));
        match (a, b) {
            (Ok(x), Ok(y)) => prop_assert_eq!(x.text, y.text),
            (Err(_), Err(_)) => {}
            other => prop_assert!(false, "mismatched results {other:?}"),
        }
    }

    #[test]
    fn usage_accounting_scales_with_prompt(context in "[a-z ]{50,400}") {
        let m = MockLlm::new(&GPT4_SIM, SimConfig::perfect(7));
        let short = m
            .generate(&LlmRequest::new(tasks::filter("x", "tiny")))
            .unwrap();
        let long = m
            .generate(&LlmRequest::new(tasks::filter("x", &context)))
            .unwrap();
        prop_assert!(long.usage.input_tokens > short.usage.input_tokens);
        prop_assert!(long.usage.cost_usd > short.usage.cost_usd);
        prop_assert!(long.usage.latency_ms > 0.0);
    }

    #[test]
    fn embedder_outputs_unit_or_zero_norm(text in ".{0,200}") {
        let e = HashedBowEmbedder::new(128, 9);
        let v = e.embed(&text);
        prop_assert_eq!(v.len(), 128);
        let norm: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
        prop_assert!((norm - 1.0).abs() < 1e-3 || norm == 0.0, "norm {norm}");
    }

    #[test]
    fn cosine_self_similarity_is_one(text in "[a-z ]{3,100}") {
        let e = HashedBowEmbedder::new(128, 9);
        let v = e.embed(&text);
        prop_assume!(v.iter().any(|x| *x != 0.0));
        let sim = cosine(&v, &v).unwrap();
        prop_assert!((sim - 1.0).abs() < 1e-4);
    }

    #[test]
    fn lenient_parser_recovers_filter_responses(
        context in "[a-zA-Z ,.]{5,200}",
        seed in 0u64..500,
    ) {
        // Whatever the (possibly malformed) model output looks like, either
        // lenient parsing recovers a JSON value or the client would re-ask —
        // it must never be the case that strict parsing succeeds and lenient
        // fails.
        let m = MockLlm::new(&LLAMA7B_SIM, SimConfig { malformed_scale: 3.0, ..SimConfig::with_seed(seed) });
        let p = tasks::filter("mentions wind", &context);
        if let Ok(resp) = m.generate(&LlmRequest::new(p)) {
            let strict = json::parse(&resp.text).is_ok();
            let lenient = json::parse_lenient(&resp.text).is_ok();
            prop_assert!(!strict || lenient);
            if lenient {
                let v = json::parse_lenient(&resp.text).unwrap();
                prop_assert!(v.get("match").and_then(Value::as_bool).is_some());
            }
        }
    }

    #[test]
    fn extraction_only_returns_requested_fields(city in prop_oneof![Just("Denver"), Just("Boston"), Just("Austin")]) {
        let m = MockLlm::new(&GPT4_SIM, SimConfig::perfect(11));
        let schema = obj! { "city" => "string" };
        let p = tasks::extract(&schema, &format!("The event took place in {city} last week."));
        let resp = m.generate(&LlmRequest::new(p)).unwrap();
        let v = json::parse_lenient(&resp.text).unwrap();
        let obj = v.as_object().unwrap();
        prop_assert_eq!(obj.len(), 1);
        prop_assert_eq!(v.get("city").unwrap().as_str(), Some(city));
    }
}

/// The recognizers as they stood when each read its `&str` context on its
/// own — re-tokenizing it per lexicon entry, rebuilding the causal region
/// per field — with the streamed term helpers written as plain collected
/// vectors. The one difference: two slices that could panic on non-ASCII
/// text are taken where they stand (`find_state`'s two bytes after ", "
/// may end inside a character; `find_cause` located its marker in the
/// lowercased text, whose offsets drift once a character before it changes
/// length when lowercased). With them, the client's prompt fitting as it
/// stood when it always counted tokens.
mod reference {
    use aryn_core::lexicon;
    use aryn_core::text::{analyze, contains_term, count_tokens, sentence_spans, stem, tokenize, truncate_tokens};
    use aryn_core::Value;
    use aryn_llm::semantics::first_number;
    use aryn_llm::LlmClient;
    use std::borrow::Cow;

    /// `LlmClient::fit_prompt` as it stood before the byte bound: the
    /// fixed parts and the context are always counted.
    pub fn fit_prompt(
        client: &LlmClient,
        context: &str,
        max_output: usize,
        prompt_fn: impl Fn(&str) -> String,
    ) -> String {
        let empty = prompt_fn("");
        let overhead = count_tokens(&empty);
        let budget = client.context_budget(overhead, max_output);
        let fitted = truncate_tokens(context, budget);
        prompt_fn(fitted)
    }

    /// `LlmClient::fit_context` as it stood before the byte bound.
    pub fn fit_context(
        client: &LlmClient,
        context: &str,
        max_output: usize,
        prompt_fn: impl Fn(&str) -> String,
    ) -> String {
        let overhead = count_tokens(&prompt_fn(""));
        truncate_tokens(context, client.context_budget(overhead, max_output)).to_string()
    }

    /// Extracts one schema field from context text, dispatching on the field
    /// name the way an instruction-following model keys off the schema.
    /// Returns [`Value::Null`] when nothing plausible is found.
    pub fn extract_field(name: &str, ftype: &str, context: &str) -> Value {
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
            "bool" => Value::Bool(contains_term(context, &lname.replace('_', " "))),
            "int" => first_number(context).map(|n| Value::Int(n as i64)).unwrap_or(Value::Null),
            "float" | "number" => first_number(context).map(Value::Float).unwrap_or(Value::Null),
            _ => {
                // Best sentence mentioning the field-name words.
                let terms = lname.replace('_', " ");
                best_sentence(&terms, context).map(Value::from).unwrap_or(Value::Null)
            }
        }
    }

    /// Evaluates a natural-language yes/no predicate against context.
    pub fn eval_predicate(predicate: &str, context: &str) -> bool {
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
        if p.contains("fatal") {
            return (fatal_count(context) > 0) != aryn_core::text::has_negation_cue(&p);
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
            for name in lexicon::SECTORS {
                if p.contains(&name.to_lowercase()) {
                    return contains_term(context, name);
                }
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

    /// How many entries of `terms` occur among `text`'s analyzed terms.
    fn terms_present(terms: &[String], text: &str) -> usize {
        let tokens = analyze(text);
        terms.iter().filter(|t| tokens.contains(t)).count()
    }

    /// True when the cause description in `context` matches `target`, which may
    /// be a detail cause ("wind"), a category ("environmental factors"), or a
    /// free phrase.
    pub fn cause_matches(target: &str, context: &str) -> bool {
        let causal = causal_region(context);
        let t = target.to_lowercase();
        // Category-level match: "environmental factors" ⊇ {wind, fog, ...}.
        for (cat, details) in lexicon::CAUSES {
            if t.contains(cat) || (*cat == "pilot error" && t.contains("pilot")) {
                return details.iter().any(|d| contains_term(&causal, d))
                    || contains_term(&causal, cat);
            }
        }
        // Detail-level match on the causal region first, whole document second.
        let terms = analyze(&t);
        if terms.is_empty() {
            return false;
        }
        terms_present(&terms, &causal) * 2 >= terms.len().max(1)
    }

    /// Sentence markers of a report's causal statement.
    const CAUSAL_MARKERS: &[&str] =
        &["probable cause", "caused by", "due to", "result of", "resulted in", "failure to"];

    /// The sentences around causal markers — where a report states its cause —
    /// or the whole context when none has a marker. Each sentence is lowercased
    /// into one reused buffer for the marker test.
    fn causal_region(context: &str) -> Cow<'_, str> {
        let mut out = String::new();
        let mut lower = String::new();
        for s in sentence_spans(context) {
            lower.clear();
            if s.is_ascii() {
                lower.push_str(s);
                lower.make_ascii_lowercase();
            } else {
                lower.extend(s.chars().flat_map(char::to_lowercase));
            }
            if CAUSAL_MARKERS.iter().any(|m| lower.contains(m)) {
                out.push_str(s);
                out.push(' ');
            }
        }
        if out.is_empty() {
            Cow::Borrowed(context)
        } else {
            Cow::Owned(out)
        }
    }

    /// Picks the best label for the context from a closed set.
    pub fn classify(labels: &[String], context: &str) -> Option<String> {
        let mut best: Option<(usize, f64)> = None;
        for (i, label) in labels.iter().enumerate() {
            let mut score = 0.0;
            // Direct term hits.
            let terms = analyze(label);
            let ctx_tokens = analyze(context);
            for t in &terms {
                if ctx_tokens.contains(t) {
                    score += 1.0;
                }
            }
            // Category expansion via the cause lexicon.
            for (cat, details) in lexicon::CAUSES {
                if label.to_lowercase().contains(cat) {
                    score += details.iter().filter(|d| contains_term(context, d)).count() as f64 * 1.5;
                }
            }
            // Sentiment labels.
            match label.to_lowercase().as_str() {
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

    // ---------------------------------------------------------------------------
    // Recognizers
    // ---------------------------------------------------------------------------

    /// US state abbreviation: prefers ", XX" renderings, falls back to full names.
    pub fn find_state(context: &str) -> Option<String> {
        // ", AK." / ", AK," / ", AK " patterns.
        let bytes = context.as_bytes();
        let mut i = 0;
        while i + 4 <= bytes.len() {
            if bytes[i] == b',' && bytes[i + 1] == b' ' && context.is_char_boundary(i + 4) {
                let cand = &context[i + 2..(i + 4).min(context.len())];
                if cand.len() == 2
                    && cand.chars().all(|c| c.is_ascii_uppercase())
                    && lexicon::is_state_abbrev(cand)
                {
                    let after = bytes.get(i + 4).copied().unwrap_or(b' ');
                    if !(after as char).is_ascii_alphanumeric() {
                        return Some(cand.to_string());
                    }
                }
            }
            i += 1;
        }
        for (ab, full) in lexicon::US_STATES {
            if contains_term(context, full) {
                return Some((*ab).to_string());
            }
        }
        None
    }

    /// A known city name appearing in the text.
    pub fn find_city(context: &str) -> Option<String> {
        lexicon::CITIES
            .iter()
            .find(|(city, _)| contains_term(context, city))
            .map(|(city, _)| (*city).to_string())
    }

    /// FAA registration ("N" + digits + letters).
    pub fn find_registration(context: &str) -> Option<String> {
        for word in context.split(|c: char| !(c.is_ascii_alphanumeric())) {
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
    pub fn find_date(context: &str) -> Option<String> {
        for (mi, month) in MONTHS.iter().enumerate() {
            let mut start = 0;
            while let Some(pos) = context[start..].find(month) {
                let abs = start + pos;
                let rest = &context[abs + month.len()..];
                let rest = rest.trim_start();
                let day: String = rest.chars().take_while(|c| c.is_ascii_digit()).collect();
                if !day.is_empty() {
                    let after_day = rest[day.len()..].trim_start_matches([',', ' ']);
                    let year: String = after_day.chars().take_while(|c| c.is_ascii_digit()).collect();
                    if year.len() == 4 {
                        return Some(format!("{year}-{:02}-{:02}", mi + 1, day.parse::<u32>().ok()?));
                    }
                }
                start = abs + month.len();
            }
        }
        None
    }

    /// First plausible calendar year (1950..=2049).
    pub fn find_year(context: &str) -> Option<u32> {
        for word in context.split(|c: char| !c.is_ascii_digit()) {
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
    pub fn weather_related(context: &str) -> bool {
        let causal = causal_region(context);
        let env = lexicon::CAUSES
            .iter()
            .find(|(c, _)| *c == "environmental")
            .map(|(_, d)| *d)
            .unwrap_or(&[]);
        env.iter().any(|d| contains_term(&causal, d))
            || contains_term(&causal, "weather")
            || contains_term(&causal, "environmental")
    }

    /// The detail cause named in the causal region.
    pub fn find_cause(context: &str) -> Option<String> {
        let causal = causal_region(context);
        for (_, details) in lexicon::CAUSES {
            for d in *details {
                if contains_term(&causal, d) {
                    return Some((*d).to_string());
                }
            }
        }
        // Fallback: the clause after a causal marker (NTSB reports phrase it
        // "determines the probable cause ... to be: <clause>").
        let l = causal.to_ascii_lowercase();
        for marker in ["to be: ", "due to ", "caused by "] {
            if let Some(i) = l.find(marker) {
                let tail: String = causal[i + marker.len()..]
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
    pub fn find_cause_category(context: &str) -> Option<String> {
        find_cause(context)
            .and_then(|d| lexicon::cause_category(&d))
            .map(str::to_string)
            .or_else(|| {
                let causal = causal_region(context);
                lexicon::CAUSES
                    .iter()
                    .find(|(cat, _)| contains_term(&causal, cat))
                    .map(|(cat, _)| (*cat).to_string())
            })
    }

    /// Flight phase named in the text.
    pub fn find_phase(context: &str) -> Option<String> {
        lexicon::FLIGHT_PHASES
            .iter()
            .find(|p| contains_term(context, p))
            .map(|p| (*p).to_string())
    }

    /// Aircraft `(make, model)` from the lexicon.
    pub fn find_aircraft(context: &str) -> Option<(String, String)> {
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
    pub fn find_company(context: &str) -> Option<String> {
        for head in lexicon::COMPANY_HEADS {
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
    pub fn find_ticker(context: &str) -> Option<String> {
        let chars = context.char_indices().peekable();
        for (i, c) in chars {
            if c == '(' {
                let rest = &context[i + 1..];
                let sym: String = rest.chars().take_while(|c| c.is_ascii_uppercase()).collect();
                if (2..=5).contains(&sym.len()) && rest[sym.len()..].starts_with(')') {
                    return Some(sym);
                }
            }
        }
        None
    }

    /// Dollar amount in millions near one of `anchors` (empty anchors = any).
    pub fn find_money(context: &str, anchors: &[&str]) -> Option<f64> {
        for s in sentence_spans(context) {
            let ls = s.to_lowercase();
            let anchor_pos = if anchors.is_empty() {
                Some(0)
            } else {
                anchors.iter().filter_map(|a| ls.find(a)).min()
            };
            let Some(anchor_pos) = anchor_pos else { continue };
            // Consider every "$<number>" in the sentence; take the one nearest
            // the anchor term ("earnings of $1.42 per share" must not pick the
            // revenue figure earlier in the same sentence).
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
                    let tail = rest[num.len()..].trim_start().to_lowercase();
                    if tail.starts_with("billion") {
                        v *= 1000.0;
                    } else if !tail.starts_with("million") && v > 10_000.0 {
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
    pub fn find_percent(context: &str, anchors: &[&str]) -> Option<f64> {
        for s in sentence_spans(context) {
            let ls = s.to_lowercase();
            if !anchors.is_empty() && !anchors.iter().any(|a| ls.contains(a)) {
                continue;
            }
            if let Some(i) = s.find('%') {
                let head = &s[..i];
                let num: String = head
                    .chars()
                    .rev()
                    .take_while(|c| c.is_ascii_digit() || *c == '.')
                    .collect::<Vec<_>>()
                    .into_iter()
                    .rev()
                    .collect();
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
    pub fn ceo_changed(context: &str) -> bool {
        let l = context.to_lowercase();
        ["new chief executive", "new ceo", "appointed", "succeeds", "stepped down", "named as ceo",
         "transition at the top", "incoming ceo"]
            .iter()
            .any(|m| l.contains(m))
    }

    /// CEO name: "FIRST LAST" lexicon bigram near a CEO mention.
    pub fn find_ceo(context: &str) -> Option<String> {
        for s in sentence_spans(context) {
            let l = s.to_lowercase();
            if l.contains("ceo") || l.contains("chief executive") {
                if let Some(n) = find_person(s) {
                    return Some(n);
                }
            }
        }
        find_person(context)
    }

    /// The earliest "FIRST LAST" bigram (by text position) from the name
    /// lexicons — earliest, so "appointed Maria Chen ... James Anderson stepped
    /// down" resolves to the appointee.
    pub fn find_person(context: &str) -> Option<String> {
        let mut best: Option<(usize, String)> = None;
        for first in lexicon::FIRST_NAMES {
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
    pub fn find_sector(context: &str) -> Option<String> {
        lexicon::SECTORS
            .iter()
            .find(|s| contains_term(context, s))
            .map(|s| (*s).to_string())
    }

    /// Guidance direction mentioned near the word "guidance".
    pub fn find_guidance(context: &str) -> Option<String> {
        let l = context.to_lowercase();
        let mut best: Option<(usize, &str)> = None;
        for g in ["lowered", "raised", "maintained"] {
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
    pub fn find_quarter(context: &str) -> Option<String> {
        let bytes = context.as_bytes();
        for i in 0..bytes.len().saturating_sub(1) {
            if bytes[i] == b'Q' && bytes[i + 1].is_ascii_digit() && (b'1'..=b'4').contains(&bytes[i + 1])
            {
                let q = &context[i..i + 2];
                let rest = context[i + 2..].trim_start();
                let year: String = rest.chars().take_while(|c| c.is_ascii_digit()).collect();
                if year.len() == 4 {
                    return Some(format!("{q} {year}"));
                }
                return Some(q.to_string());
            }
        }
        None
    }

    /// `(positive_cues, negative_cues)` counts.
    fn pos_neg(context: &str) -> (usize, usize) {
        let terms = analyze(context);
        let count = |cues: &[&str]| cues.iter().filter(|c| terms.contains(&stem(c))).count();
        (count(lexicon::POSITIVE_CUES), count(lexicon::NEGATIVE_CUES))
    }

    /// Three-way sentiment from cue counts.
    pub fn sentiment(context: &str) -> &'static str {
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
    pub fn fatal_count(context: &str) -> i64 {
        const WORDS: &[(&str, i64)] = &[
            ("one", 1), ("two", 2), ("three", 3), ("four", 4), ("five", 5), ("six", 6),
        ];
        let toks = tokenize(context);
        let mut best: i64 = 0;
        for (i, t) in toks.iter().enumerate() {
            if !t.starts_with("fatal") {
                continue;
            }
            // Table shape: digits following the keyword; take the last of the
            // run (the Total column).
            let mut last_digit: Option<i64> = None;
            for next in toks.iter().skip(i + 1).take(4) {
                match next.parse::<i64>() {
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
            for back in toks[i.saturating_sub(4)..i].iter() {
                if let Ok(n) = back.parse::<i64>() {
                    if n < 100 {
                        best = best.max(n);
                    }
                }
                if let Some((_, n)) = WORDS.iter().find(|(w, _)| w == back) {
                    best = best.max(*n);
                }
            }
        }
        best
    }

    /// Count appearing in the same sentence as one of the anchor stems; handles
    /// "no injuries" and number words up to twelve.
    pub fn count_near(context: &str, anchors: &[&str]) -> Option<i64> {
        const WORDS: &[(&str, i64)] = &[
            ("zero", 0), ("one", 1), ("two", 2), ("three", 3), ("four", 4), ("five", 5), ("six", 6),
            ("seven", 7), ("eight", 8), ("nine", 9), ("ten", 10), ("eleven", 11), ("twelve", 12),
        ];
        for s in sentence_spans(context) {
            let l = s.to_lowercase();
            if !anchors.iter().any(|a| l.contains(a)) {
                continue;
            }
            if l.contains("no injur") || l.contains("not injured") || l.contains("uninjured") {
                return Some(0);
            }
            if let Some(n) = first_number(s) {
                return Some(n as i64);
            }
            let toks = tokenize(&l);
            for (w, n) in WORDS {
                if toks.iter().any(|t| t == w) {
                    return Some(*n);
                }
            }
        }
        None
    }

    /// The sentence with the highest term overlap with `terms` text.
    pub fn best_sentence(terms: &str, context: &str) -> Option<String> {
        let want = analyze(terms);
        let mut best: Option<(String, usize)> = None;
        for s in sentence_spans(context) {
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
    fn negated(terms: &[String], context: &str) -> bool {
        let toks = tokenize(context);
        let cue = |t: &String| matches!(t.as_str(), "no" | "not" | "without" | "never");
        (0..toks.len()).any(|i| toks[i.saturating_sub(3)..i].iter().any(cue) && terms.contains(&stem(&toks[i])))
    }
}

/// Field names that reach every branch of `extract_field`, typed.
const FIELDS: &[(&str, &str)] = &[
    ("us_state_abbrev", "string"), ("city", "string"), ("date", "string"), ("year", "int"),
    ("aircraft_model", "string"), ("cause_category", "string"), ("cause_detail", "string"),
    ("weather_related", "bool"), ("fatal", "int"), ("company", "string"), ("ticker", "string"),
    ("sector", "string"), ("quarter", "string"), ("revenue_musd", "float"), ("growth_pct", "float"),
    ("eps", "float"), ("guidance", "string"), ("ceo", "string"), ("ceo_changed", "bool"),
    ("sentiment", "string"), ("location", "string"), ("registration", "string"), ("phase", "string"),
    ("make", "string"), ("injuries", "int"), ("occupants", "int"), ("weather", "bool"),
    ("runway_wet", "bool"), ("altitude", "int"), ("speed", "float"), ("probable_summary", "string"),
];

/// One predicate per branch of `eval_predicate`.
const PREDICATES: &[&str] = &[
    "the incident was caused by wind", "caused by icing", "the accident was due to engine failure",
    "the incident was caused by environmental factors", "caused by pilot error",
    "the cause was a bird strike near the runway", "attributed to a loss of control",
    "the incident was weather related", "the accident involved fatalities",
    "the incident involved no fatalities", "mentions a runway",
    "passengers were injured", "the company had a new CEO", "the report has positive sentiment",
    "the outlook is pessimistic", "the company is in the AI sector", "the company is in the retail sector",
    "the report mentions headwinds", "revenue grew year over year; and also mentions record demand",
    // As Luna's planner words them.
    "caused by control cable failure", "caused by fuel contamination", "in the AI sector", "in the energy sector",
    "carries a negative sentiment", "carries a positive sentiment", "caused by w\u{130}nd", "caused by g\u{fc}st",
];

const LABELS: &[&[&str]] = &[
    &["environmental", "mechanical", "pilot error", "other"],
    &["positive", "negative", "neutral"],
    &["wind", "fog", "engine"],
];

const ANCHORS: &[&[&str]] = &[&[], &["revenue"], &["grew", "growth", "decline"], &["per share", "eps"]];

/// A recognizer that answers with a string, or with nothing, and its
/// reference.
type Recognizer = fn(&Reading) -> Option<String>;
type Reference = fn(&str) -> Option<String>;

/// Every recognizer, through one shared reading, against its reference on
/// the same text.
fn assert_recognizers_match(text: &str) {
    use aryn_llm::semantics as s;
    let r = Reading::new(text);
    for (f, t) in FIELDS {
        assert_eq!(s::extract_field(f, t, &r), reference::extract_field(f, t, text), "{f} of {text:?}");
    }
    for p in PREDICATES {
        assert_eq!(s::eval_predicate(p, &r), reference::eval_predicate(p, text), "{p:?} on {text:?}");
    }
    for target in [
        "wind", "environmental factors", "pilot", "engine failure", "a gusty crosswind", "icing conditions",
        "control cable failures", "the fuel", "w\u{130}nd", "\u{212a}nots",
    ] {
        assert_eq!(s::cause_matches(target, &r), reference::cause_matches(target, text), "{target:?} on {text:?}");
    }
    for labels in LABELS {
        let labels: Vec<String> = labels.iter().map(|l| l.to_string()).collect();
        assert_eq!(s::classify(&labels, &r), reference::classify(&labels, text), "{labels:?} on {text:?}");
    }
    for anchors in ANCHORS {
        assert_eq!(s::find_money(&r, anchors), reference::find_money(text, anchors), "{anchors:?} on {text:?}");
        assert_eq!(s::find_percent(&r, anchors), reference::find_percent(text, anchors), "{anchors:?} on {text:?}");
    }
    let strings: [(Recognizer, Reference); 15] = [
        (s::find_state, reference::find_state),
        (s::find_city, reference::find_city),
        (s::find_registration, reference::find_registration),
        (s::find_date, reference::find_date),
        (s::find_cause, reference::find_cause),
        (s::find_cause_category, reference::find_cause_category),
        (s::find_phase, reference::find_phase),
        (s::find_company, reference::find_company),
        (s::find_ticker, reference::find_ticker),
        (s::find_ceo, reference::find_ceo),
        (s::find_person, reference::find_person),
        (s::find_sector, reference::find_sector),
        (s::find_guidance, reference::find_guidance),
        (s::find_quarter, reference::find_quarter),
        (|r| s::best_sentence("probable cause wind", r), |t| reference::best_sentence("probable cause wind", t)),
    ];
    for (k, (new, old)) in strings.iter().enumerate() {
        assert_eq!(new(&r), old(text), "string recognizer #{k} on {text:?}");
    }
    assert_eq!(s::find_year(&r), reference::find_year(text), "{text:?}");
    assert_eq!(s::find_aircraft(&r), reference::find_aircraft(text), "{text:?}");
    assert_eq!(s::weather_related(&r), reference::weather_related(text), "{text:?}");
    assert_eq!(s::ceo_changed(&r), reference::ceo_changed(text), "{text:?}");
    assert_eq!(s::sentiment(&r), reference::sentiment(text), "{text:?}");
    assert_eq!(s::fatal_count(&r), reference::fatal_count(text), "{text:?}");
    assert_eq!(s::count_near(&r, &["injur", "occupant"]), reference::count_near(text, &["injur", "occupant"]), "{text:?}");
}

/// A docgen report's text, whole or cut at a character boundary.
fn docgen_text(earnings: bool, seed: u64, i: usize, cut: usize) -> String {
    let domain = if earnings { Domain::Earnings } else { Domain::Ntsb };
    let text = extracted_document(&corpus_doc(domain, seed, i)).full_text();
    match text.char_indices().nth(cut) {
        Some((at, _)) if cut > 0 => text[..at].to_string(),
        _ => text,
    }
}

/// A character from across Unicode, weighted toward ASCII and toward
/// characters whose lowercase changes length or case-folds oddly.
fn unicode_char() -> impl Strategy<Value = char> {
    const SPECIAL: &[char] = &[
        '\u{130}', '\u{df}', '\u{1c5}', '\u{fb01}', '\u{1f88}', '\u{3a3}', '\u{3c2}', '\u{149}', '\u{2160}',
        '\u{b2}', '\u{23a}', '\u{212a}', '\u{2c65}', '\u{a0}', '\u{2026}',
    ];
    (0u32..8, any::<u32>()).prop_map(|(class, x)| {
        let (lo, hi) = match class {
            0 | 1 => (0x20, 0x7f),
            2 => (0x80, 0x250),
            3 => (0x300, 0x370),
            4 => (0x370, 0x530),
            5 => return SPECIAL[x as usize % SPECIAL.len()],
            6 => (0x3040, 0x30ff),
            _ => (0, 0x11_0000),
        };
        char::from_u32(lo + x % (hi - lo)).unwrap_or(' ')
    })
}

/// Words and marks the recognizers key on, so arbitrary text still hits
/// lexicon entries, causal markers, tables and amounts.
const VOCAB: &[&str] = &[
    "Anchorage", "Salt Lake City", "Kansas", "Alaska", ", AK.", ", Wé", "probable cause", "due to ", "to be: ",
    "caused by ", "wind", "engine failure", "ICING", "weather", "environmental", "Fatal | 0 | 1 | 2", "two",
    "fatally injured", "Cessna 172", "N4521B", "June 3, 2019", "Q3 2024", "(APXR)", "Apex Robotics",
    "Maria Chen", "CEO", "appointed", "$412.5 million", "$2.1 Billion", "18.2%", "declined", "revenue",
    "guidance", "lowered", "strong", "record", "headwinds", "AI", "retail", "approach", "no", "not", ". ",
    "W\u{130}ND", "\u{212a}nots", "failure to", "resulted in", "control cable failures",
    "! ", "? ", "U.S. ", "\n", " ",
];

/// A model that only has a context window, for fitting prompts to it.
struct Window(usize);

impl LanguageModel for Window {
    fn name(&self) -> &str {
        "window"
    }

    fn context_window(&self) -> usize {
        self.0
    }

    fn generate(&self, _req: &LlmRequest) -> aryn_core::Result<aryn_llm::model::LlmResponse> {
        Err(aryn_core::ArynError::Llm("a window answers nothing".into()))
    }
}

/// A prompt that embeds its context zero, one or two times, only its first
/// 40 characters, or nothing else (so the fixed part costs no token and a
/// window a few bytes off the bound decides the fit).
fn shaped_prompt(shape: usize, ctx: &str) -> String {
    match shape {
        0 => tasks::filter("caused by wind", ""),
        1 => tasks::filter("caused by wind", ctx),
        2 => tasks::answer(ctx, ctx),
        3 => tasks::summarize("short", &ctx.chars().take(40).collect::<String>()),
        _ => ctx.to_string(),
    }
}

proptest! {
    #[test]
    fn byte_bound_fit_matches_the_counting_fit(
        pieces in prop_oneof![
            prop::collection::vec((any::<bool>(), unicode_char()), 0..8),
            prop::collection::vec((any::<bool>(), unicode_char()), 0..400),
        ],
        shape in 0usize..5,
        max_output in 0usize..80,
        near_tokens in any::<bool>(),
        offset in 0usize..17,
    ) {
        let context: String = pieces.iter().map(|&(space, c)| if space { ' ' } else { c }).collect();
        let prompt_fn = |ctx: &str| shaped_prompt(shape, ctx);
        let empty = prompt_fn("");
        // A window within eight of the byte bound, or of the token count
        // where truncation starts, on either side.
        let fixed = max_output + 16;
        let bound = if near_tokens {
            aryn_core::text::count_tokens(&empty) + aryn_core::text::count_tokens(&context) + fixed
        } else {
            empty.len() + context.len() + fixed
        };
        let client = LlmClient::new(Arc::new(Window((bound + offset).saturating_sub(8))));
        prop_assert_eq!(
            client.fit_prompt(&context, max_output, prompt_fn),
            reference::fit_prompt(&client, &context, max_output, prompt_fn)
        );
        prop_assert_eq!(
            client.fit_context(&context, max_output, prompt_fn),
            reference::fit_context(&client, &context, max_output, prompt_fn)
        );
    }

    #[test]
    fn recognizers_match_their_references_on_docgen_text(
        earnings in any::<bool>(),
        seed in 0u64..10_000,
        i in 0usize..400,
        cut in prop_oneof![Just(0usize), 0usize..2_000],
    ) {
        assert_recognizers_match(&docgen_text(earnings, seed, i, cut));
    }

    #[test]
    fn recognizers_match_their_references_on_unicode_text(
        pieces in prop::collection::vec((any::<bool>(), unicode_char(), 0usize..VOCAB.len()), 0..60),
    ) {
        let text: String = pieces
            .iter()
            .map(|&(word, c, k)| if word { VOCAB[k].to_string() } else { c.to_string() })
            .collect();
        assert_recognizers_match(&text);
    }
}
