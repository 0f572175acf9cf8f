//! The simulated model's semantic engine, frozen: every `llmFilter` verdict,
//! sentiment, weather flag and cause it derives from a document's text is
//! pinned by `golden/semantics_verdicts.golden`. The engine's text path
//! (sentence spans, streamed tokens, the causal region) may get cheaper; what
//! it answers may not move, because benchmark answers and LLM token counts
//! both read it.

use aryn::prelude::*;
use aryn_docgen::stream::extracted_document;
use aryn_llm::model::{LanguageModel, LlmRequest};
use aryn_llm::prompt::tasks;
use aryn_llm::semantics::{
    answer_question, classify, eval_predicate, extract_field, find_cause, sentiment, summarize,
    weather_related, Reading,
};
use luna::luna::{earnings_schema, ntsb_schema};

/// One predicate per branch of `eval_predicate`: causal details, categories
/// and free phrases, weather, fatalities, CEO change, both sentiments,
/// sector membership, the generic majority-of-terms path (with and without
/// negation cues) and a fused conjunction.
const PREDICATES: &[&str] = &[
    "the incident was caused by wind",
    "caused by icing",
    "the accident was due to engine failure",
    "the incident was caused by environmental factors",
    "caused by pilot error",
    "the cause was a bird strike near the runway",
    "the incident was weather related",
    "the accident involved fatalities",
    "mentions a runway",
    "passengers were injured",
    "the aircraft was substantially damaged during landing",
    "the company had a new CEO",
    "the report has positive sentiment",
    "the outlook is pessimistic",
    "the company is in the AI sector",
    "the company is in the retail sector",
    "the report mentions headwinds",
    "revenue grew year over year; and also mentions record demand",
];

/// One line per document: corpus, seed, id, the predicate verdicts as a bit
/// string, then sentiment, weather flag and cause.
fn render() -> String {
    let mut out = String::new();
    for seed in 1..=3 {
        for (name, corpus) in [("ntsb", Corpus::ntsb(seed, 200)), ("earnings", Corpus::earnings(seed, 200))] {
            for d in &corpus.docs {
                let full_text = extracted_document(d).full_text();
                let text = Reading::new(&full_text);
                let bits: String = PREDICATES.iter().map(|p| if eval_predicate(p, &text) { '1' } else { '0' }).collect();
                out.push_str(&format!(
                    "{name}{seed} {} {bits} {} {} {:?}\n",
                    d.id,
                    sentiment(&text),
                    u8::from(weather_related(&text)),
                    find_cause(&text)
                ));
            }
        }
    }
    out
}

/// `golden/semantics_verdicts.golden` was written by this same `render` at
/// the commit before the streaming text path, when every helper still
/// collected whole token vectors.
#[test]
fn semantic_verdicts_match_the_golden_file() {
    let got = render();
    let want = include_str!("golden/semantics_verdicts.golden");
    for (n, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(g, w, "golden line {}", n + 1);
    }
    assert_eq!(got.lines().count(), want.lines().count());
}

/// Questions for `answer_question`, one per answer shape: city, date,
/// person, count, percent and free evidence.
const QUESTIONS: &[&str] = &[
    "Where did the accident occur?",
    "When did it happen?",
    "Who is the new CEO?",
    "How many occupants were fatally injured?",
    "What percent did revenue grow?",
    "What was the probable cause?",
];

/// Three lines per document: every schema field through `extract_field`;
/// the simulated completion of one extraction prompt with its token counts;
/// then `classify` over the cause categories and the sentiments, and the
/// FNV-1a hashes of `summarize` and of each `answer_question` reply (with
/// its evidence position).
fn render_extraction() -> String {
    let model = MockLlm::new(&LLAMA7B_SIM, SimConfig::with_seed(7));
    let causes: Vec<String> = ["environmental", "mechanical", "pilot error", "other"].map(String::from).to_vec();
    let moods: Vec<String> = ["positive", "negative", "neutral"].map(String::from).to_vec();
    let hash = |s: &str| aryn_core::fnv1a(s.as_bytes());
    let mut out = String::new();
    for seed in 1..=3 {
        for (name, corpus, schema) in [
            ("ntsb", Corpus::ntsb(seed, 200), ntsb_schema()),
            ("earnings", Corpus::earnings(seed, 200), earnings_schema()),
        ] {
            let fields = schema.as_object().expect("a schema is an object");
            for d in &corpus.docs {
                let text = extracted_document(d).full_text();
                let reading = Reading::new(&text);
                let tag = format!("{name}{seed} {}", d.id);
                out.push_str(&tag);
                for (field, ftype) in fields {
                    let v = extract_field(field, ftype.as_str().unwrap_or("string"), &reading);
                    out.push_str(&format!(" {field}={}", aryn_core::json::to_string(&v)));
                }
                let r = model.generate(&LlmRequest::new(tasks::extract(&schema, &text))).expect("no transient faults at seed 7");
                out.push_str(&format!(
                    "\n{tag} completion {:?} in={} out={}\n",
                    r.text, r.usage.input_tokens, r.usage.output_tokens
                ));
                out.push_str(&format!(
                    "{tag} classify={:?}/{:?} summary={:016x}",
                    classify(&causes, &reading),
                    classify(&moods, &reading),
                    hash(&summarize("cause of the accident and outlook", &text, 3))
                ));
                for q in QUESTIONS {
                    let (a, pos) = answer_question(q, &text);
                    out.push_str(&format!(" {:016x}@{pos:?}", hash(&a)));
                }
                out.push('\n');
            }
        }
    }
    out
}

/// `golden/extraction.golden` was written by this same `render_extraction`
/// at the commit before the recognizers shared one tokenized reading of the
/// document, when each lexicon entry re-tokenized the context.
#[test]
fn extraction_matches_the_golden_file() {
    let got = render_extraction();
    let want = include_str!("golden/extraction.golden");
    for (n, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(g, w, "golden line {}", n + 1);
    }
    assert_eq!(got.lines().count(), want.lines().count());
}
