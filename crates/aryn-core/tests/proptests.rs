//! Property-based tests for aryn-core invariants.

use aryn_core::bbox::BBox;
use aryn_core::ids::stable_hash;
use aryn_core::json;
use aryn_core::text;
use aryn_core::Value;
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Strategy producing arbitrary JSON values of bounded depth.
fn value_strategy() -> impl Strategy<Value = Value> {
    let leaf = prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::Int),
        // Finite floats only: NaN/Inf intentionally serialize as null.
        prop::num::f64::NORMAL.prop_map(Value::Float),
        "[a-zA-Z0-9 _\\-\"\\\\\n\t\u{00e9}\u{4e16}]{0,24}".prop_map(Value::Str),
    ];
    leaf.prop_recursive(3, 32, 6, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..6).prop_map(Value::Array),
            prop::collection::btree_map("[a-z_]{1,8}", inner, 0..6)
                .prop_map(|m| Value::Object(m.into_iter().collect::<BTreeMap<_, _>>())),
        ]
    })
}

fn bbox_strategy() -> impl Strategy<Value = BBox> {
    (0.0f32..600.0, 0.0f32..780.0, 1.0f32..600.0, 1.0f32..780.0)
        .prop_map(|(x0, y0, w, h)| BBox::new(x0, y0, x0 + w, y0 + h))
}

/// The text analysis as it stood before the allocation-light rewrite, kept
/// verbatim as the reference: the embedder, BM25 and the simulated model all
/// read `analyze`, so the rewritten functions must agree byte for byte.
mod reference {
    pub fn tokenize(text: &str) -> Vec<String> {
        let mut out = Vec::new();
        let mut cur = String::new();
        for c in text.chars() {
            if c.is_alphanumeric() {
                for lc in c.to_lowercase() {
                    if lc.is_alphanumeric() {
                        cur.push(lc);
                    }
                }
            } else if !cur.is_empty() {
                out.push(std::mem::take(&mut cur));
            }
        }
        if !cur.is_empty() {
            out.push(cur);
        }
        out
    }

    pub fn analyze(text: &str) -> Vec<String> {
        tokenize(text)
            .into_iter()
            .filter(|t| !aryn_core::text::is_stopword(t))
            .map(|t| stem(&t))
            .collect()
    }

    pub fn stem(token: &str) -> String {
        let t = token;
        for (suffix, replace) in [
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
        ] {
            if let Some(stripped) = t.strip_suffix(suffix) {
                if stripped.len() + replace.len() >= 3 && stripped.len() >= 2 {
                    return format!("{stripped}{replace}");
                }
            }
        }
        t.to_string()
    }
}

fn assert_analysis_frozen(s: &str) {
    assert_eq!(text::tokenize(s), reference::tokenize(s), "tokenize({s:?})");
    assert_eq!(text::analyze(s), reference::analyze(s), "analyze({s:?})");
    for tok in reference::tokenize(s) {
        assert_eq!(text::stem(&tok), reference::stem(&tok), "stem({tok:?})");
    }
}

/// Characters from the blocks where case mapping and `is_alphanumeric`
/// disagree with ASCII intuition, plus the whole scalar range.
fn unicode_char() -> impl Strategy<Value = char> {
    const SPECIAL: &[char] =
        &['\u{130}', '\u{df}', '\u{1c5}', '\u{fb01}', '\u{1f88}', '\u{3a3}', '\u{3c2}', '\u{149}', '\u{2160}', '\u{b2}'];
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

#[test]
fn analysis_is_frozen_on_edge_cases() {
    let rules = [
        "relational", "organization", "hopefulness", "nervousness", "effectiveness", "movement", "payments",
        "seemingly", "reportedly", "ignition", "decision", "darkness", "landing", "injuries", "studied",
        "highest", "pilots", "landers", "reported", "quickly", "gusts", "boxes", "wings",
    ];
    let edges = [
        "", " ", "\u{130}stanbul \u{130}", "Stra\u{df}e STRASSE \u{1e9e}", "\u{1c5}ungla \u{1c4} \u{1c6}",
        "e\u{301}cole cafe\u{301} \u{301}\u{301} a\u{300}b", "N123AB 737max 3rd 14:32 v2.0beta", "a an of I x9 ok by us",
        "is as es ed ly s ss ies ied ing est ers", "bed red fly yes bus ties tied king best hers",
        "THE Pilot's FAILURE\u{2014}at\u{a0}14:32!", "\u{fb01}nancial \u{3a3}\u{3a3} \u{2160}\u{2161} x\u{b2}",
        "\u{4e16}\u{754c}ing \u{e9}s \u{e9}\u{e9}s na\u{ef}vely \u{43f}\u{440}\u{438}\u{432}\u{435}\u{442}s",
    ];
    for s in rules.iter().chain(&edges) {
        assert_analysis_frozen(s);
        assert_analysis_frozen(&s.to_uppercase());
    }
    // Every suffix rule fires on its own word (the fixed list is not vacuous).
    for w in rules {
        assert_ne!(text::stem(w), w, "{w} should stem");
    }
}

proptest! {
    #[test]
    fn json_roundtrip_compact(v in value_strategy()) {
        let s = json::to_string(&v);
        let back = json::parse(&s).expect("reparse");
        prop_assert_eq!(back, v);
    }

    #[test]
    fn json_roundtrip_pretty(v in value_strategy()) {
        let s = json::to_string_pretty(&v);
        let back = json::parse(&s).expect("reparse pretty");
        prop_assert_eq!(back, v);
    }

    #[test]
    fn lenient_parser_accepts_strict_output(v in value_strategy()) {
        let s = json::to_string(&v);
        let back = json::parse_lenient(&s).expect("lenient parse");
        prop_assert_eq!(back, v);
    }

    #[test]
    fn lenient_recovers_json_from_prose(v in value_strategy()) {
        // Objects/arrays embedded in chatter must be recoverable.
        if matches!(v, Value::Object(_) | Value::Array(_)) {
            let wrapped = format!("Sure, here you go:\n```json\n{}\n```\nHope that helps!", json::to_string(&v));
            let back = json::parse_lenient(&wrapped).expect("recover");
            prop_assert_eq!(back, v);
        }
    }

    #[test]
    fn cmp_total_is_reflexive_and_antisymmetric(a in value_strategy(), b in value_strategy()) {
        use std::cmp::Ordering;
        prop_assert_eq!(a.cmp_total(&a), Ordering::Equal);
        let ab = a.cmp_total(&b);
        let ba = b.cmp_total(&a);
        prop_assert_eq!(ab, ba.reverse());
    }

    #[test]
    fn cmp_total_sorts_without_panic(mut vs in prop::collection::vec(value_strategy(), 0..20)) {
        vs.sort_by(|a, b| a.cmp_total(b));
        // After sorting, adjacent pairs must be non-decreasing.
        for w in vs.windows(2) {
            prop_assert_ne!(w[0].cmp_total(&w[1]), std::cmp::Ordering::Greater);
        }
    }

    #[test]
    fn set_then_get_path(key1 in "[a-z]{1,6}", key2 in "[a-z]{1,6}", v in value_strategy()) {
        let mut obj = Value::object();
        let path = format!("{key1}.{key2}");
        obj.set_path(&path, v.clone());
        prop_assert_eq!(obj.get_path(&path), Some(&v));
    }

    #[test]
    fn iou_symmetric_and_bounded(a in bbox_strategy(), b in bbox_strategy()) {
        let ab = a.iou(&b);
        let ba = b.iou(&a);
        prop_assert!((ab - ba).abs() < 1e-5);
        prop_assert!((0.0..=1.0 + 1e-6).contains(&ab));
    }

    #[test]
    fn union_contains_both(a in bbox_strategy(), b in bbox_strategy()) {
        let u = a.union(&b);
        prop_assert!(u.contains(&a));
        prop_assert!(u.contains(&b));
    }

    #[test]
    fn intersect_within_both(a in bbox_strategy(), b in bbox_strategy()) {
        if let Some(i) = a.intersect(&b) {
            prop_assert!(a.contains(&i));
            prop_assert!(b.contains(&i));
            prop_assert!(i.area() <= a.area().min(b.area()) + 1e-3);
        }
    }

    #[test]
    fn tokenize_is_lowercase_alnum(s in ".{0,100}") {
        for tok in text::tokenize(&s) {
            prop_assert!(!tok.is_empty());
            // Some Unicode uppercase letters have no lowercase mapping; only
            // ASCII uppercase is guaranteed gone.
            prop_assert!(tok.chars().all(|c| c.is_alphanumeric() && !c.is_ascii_uppercase()));
        }
    }

    #[test]
    fn analysis_is_frozen_on_unicode(cs in prop::collection::vec(unicode_char(), 0..80)) {
        assert_analysis_frozen(&cs.into_iter().collect::<String>());
    }

    #[test]
    fn analysis_is_frozen_on_report_like_text(
        words in prop::collection::vec(("[a-zA-Z0-9]{0,10}", 0usize..32, "[ ,.;:'()/-]{1,3}"), 0..40),
    ) {
        const SUFFIXES: &[&str] = &[
            "s", "ed", "ing", "ly", "es", "ies", "ied", "est", "ers", "tion", "sion", "ness", "ments", "ement",
            "ingly", "edly", "ational", "ization", "fulness", "ousness", "iveness", "S", "ING", "Tion",
        ];
        let mut report = String::new();
        for (word, suffix, sep) in &words {
            report.push_str(word);
            report.push_str(SUFFIXES.get(*suffix).unwrap_or(&""));
            report.push_str(sep);
        }
        assert_analysis_frozen(&report);
    }

    #[test]
    fn truncate_never_exceeds_budget(s in "[a-z ]{0,400}", max in 1usize..50) {
        let cut = text::truncate_tokens(&s, max);
        prop_assert!(text::count_tokens(cut) <= max + 1);
        prop_assert!(s.starts_with(cut));
    }

    #[test]
    fn stable_hash_is_deterministic(seed in any::<u64>(), a in "[ -~]{0,30}", b in "[ -~]{0,30}") {
        prop_assert_eq!(stable_hash(seed, &[&a, &b]), stable_hash(seed, &[&a, &b]));
    }

    #[test]
    fn sentences_preserve_nonspace_content(s in "[a-zA-Z .!?]{0,200}") {
        let joined: String = text::sentences(&s).join(" ");
        let strip = |x: &str| x.chars().filter(|c| !c.is_whitespace()).collect::<String>();
        prop_assert_eq!(strip(&joined), strip(&s));
    }
}
