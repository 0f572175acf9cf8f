//! The simulated model's semantic engine, frozen: every `llmFilter` verdict,
//! sentiment, weather flag and cause it derives from a document's text is
//! pinned by `golden/semantics_verdicts.golden`. The engine's text path
//! (sentence spans, streamed tokens, the causal region) may get cheaper; what
//! it answers may not move, because benchmark answers and LLM token counts
//! both read it.

use aryn::prelude::*;
use aryn_docgen::stream::extracted_document;
use aryn_llm::semantics::{eval_predicate, find_cause, sentiment, weather_related};

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
                let text = extracted_document(d).full_text();
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
