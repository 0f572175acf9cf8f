//! Property-based tests for aryn-core invariants.

use aryn_core::bbox::BBox;
use aryn_core::ids::stable_hash;
use aryn_core::json;
use aryn_core::text;
use aryn_core::{serialize, vfs};
use aryn_core::{Cell, DocContent, Document, Element, ElementType, ImageInfo, LineageRecord, Table, Value};
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

/// Floats by raw bits: NaNs with payloads, infinities, `-0.0`, subnormals.
fn f64_bits() -> impl Strategy<Value = f64> {
    prop_oneof![
        any::<u64>().prop_map(f64::from_bits),
        Just(-0.0),
        Just(f64::NAN),
        prop::num::f64::NORMAL,
    ]
}

fn f32_bits() -> impl Strategy<Value = f32> {
    prop_oneof![any::<u32>().prop_map(f32::from_bits), Just(-0.0f32), Just(0.5f32)]
}

/// Unicode and empty strings.
const TEXT: &str = "[a-zA-Z0-9 _\\-\"\n\t\u{00e9}\u{4e16}\u{2014}]{0,12}";

/// Values of every kind, floats by bits (so NaN and `-0.0` too), an `Int`
/// and the `Float` of the same number both reachable.
fn any_value() -> impl Strategy<Value = Value> {
    let leaf = prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::Int),
        (-3i64..3).prop_map(|i| Value::Float(i as f64)),
        f64_bits().prop_map(Value::Float),
        TEXT.prop_map(Value::Str),
    ];
    leaf.prop_recursive(3, 32, 4, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..4).prop_map(Value::Array),
            prop::collection::btree_map(TEXT, inner, 0..4).prop_map(Value::Object),
        ]
    })
}

fn any_bbox() -> impl Strategy<Value = Option<BBox>> {
    prop::option::of((f32_bits(), f32_bits(), f32_bits(), f32_bits()))
        .prop_map(|b| b.map(|(x0, y0, x1, y1)| BBox { x0, y0, x1, y1 }))
}

fn any_element() -> impl Strategy<Value = Element> {
    let cell = (any::<usize>(), any::<usize>(), TEXT, any_bbox(), any::<bool>())
        .prop_map(|(row, col, text, bbox, is_header)| Cell { row, col, text, bbox, is_header });
    let table = (any::<usize>(), any::<usize>(), any::<usize>(), prop::option::of(TEXT), prop::collection::vec(cell, 0..3))
        .prop_map(|(rows, cols, header_rows, caption, cells)| Table { rows, cols, header_rows, caption, cells });
    let image = (TEXT, any::<u32>(), any::<u32>(), prop::option::of(TEXT), prop::option::of(TEXT)).prop_map(
        |(format, width_px, height_px, summary, ocr_text)| ImageInfo { format, width_px, height_px, summary, ocr_text },
    );
    let parts = (TEXT, any::<usize>(), any_bbox(), f32_bits(), prop::option::of(table), prop::option::of(image));
    (0usize..ElementType::ALL.len(), parts, any_value()).prop_map(
        |(t, (text, page, bbox, confidence, table, image), properties)| Element {
            etype: ElementType::ALL[t],
            text,
            page,
            bbox,
            confidence,
            table,
            image,
            properties,
        },
    )
}

fn any_document() -> impl Strategy<Value = Document> {
    let lineage = (TEXT, TEXT, prop::collection::vec(TEXT, 0..3), any::<u32>(), f64_bits()).prop_map(
        |(transform, detail, sources, llm_calls, cost_usd)| LineageRecord { transform, detail, sources, llm_calls, cost_usd },
    );
    let content = prop_oneof![
        Just(DocContent::None),
        TEXT.prop_map(DocContent::Text),
        prop::collection::vec(any::<u8>(), 0..16).prop_map(DocContent::Binary),
    ];
    (
        TEXT,
        any_value(),
        content,
        prop::collection::vec(any_element(), 0..3),
        prop::collection::vec(lineage, 0..3),
        prop::option::of(prop::collection::vec(f32_bits(), 0..6)),
    )
        .prop_map(|(id, properties, content, elements, lineage, embedding)| Document {
            id: id.into(),
            properties,
            content,
            elements,
            lineage,
            embedding,
        })
}

fn encode(d: &Document) -> Vec<u8> {
    let mut out = Vec::new();
    serialize::encode_document(d, &mut out).expect("encodable");
    out
}

/// CRC-32 bit by bit, the reference for the slice-by-8 tables.
fn crc32_bytewise(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c ^= u32::from(b);
        for _ in 0..8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
        }
    }
    !c
}

/// `n` arrays nested around a `Null`.
fn nested(n: usize) -> Value {
    (0..n).fold(Value::Null, |v, _| Value::Array(vec![v]))
}

#[test]
fn crc32_slice_by_8_equals_the_bytewise_loop_on_every_short_length() {
    let data: Vec<u8> = (0..200u32).map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8).collect();
    for len in 0..=64 {
        for start in [0, 1, 3, 7] {
            let s = &data[start..start + len];
            assert_eq!(vfs::crc32(s), crc32_bytewise(s), "len {len} at offset {start}");
        }
    }
    assert_eq!(vfs::crc32(b"123456789"), 0xCBF4_3926);
}

#[test]
fn forged_lengths_are_errors_not_allocations() {
    // A document of id "x", null properties and no content, then a field
    // whose length claims four billion items: decoding must refuse before
    // reserving room for them (a `Vec` of u32::MAX elements would abort).
    let head = |tail: &[u8]| {
        let mut b = vec![1, 0, 0, 0, b'x', 0, 0];
        b.extend_from_slice(tail);
        b
    };
    let forged = u32::MAX.to_le_bytes();
    let mut cases = vec![forged.to_vec()];
    cases.push(head(&forged)); // element count
    cases.push(head(&[0, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF])); // lineage count
    cases.push(head(&[0, 0, 0, 0, 0, 0, 0, 0, 1, 0xFF, 0xFF, 0xFF, 0x7F])); // embedding length
    cases.push(vec![1, 0, 0, 0, b'x', 5, 0xFF, 0xFF, 0xFF, 0xFF]); // array length
    cases.push(vec![1, 0, 0, 0, b'x', 0, 2, 0xFF, 0xFF, 0xFF, 0xFF]); // binary content
    for bytes in &cases {
        assert!(serialize::decode_document(bytes).is_err(), "{bytes:?}");
    }
}

#[test]
fn nesting_past_the_depth_limit_is_an_error() {
    let at_limit = Document { properties: nested(serialize::MAX_DEPTH), ..Document::new("deep") };
    let bytes = encode(&at_limit);
    assert_eq!(serialize::decode_document(&bytes).expect("at the limit"), at_limit);
    let too_deep = Document { properties: nested(serialize::MAX_DEPTH + 1), ..Document::new("deep") };
    assert!(serialize::encode_document(&too_deep, &mut Vec::new()).is_err());
    // The same bytes forged by hand: one more array header in front.
    let mut forged = bytes[..8].to_vec();
    forged.extend_from_slice(&[5, 1, 0, 0, 0]);
    forged.extend_from_slice(&bytes[8..]);
    assert!(serialize::decode_document(&forged).is_err());
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
    fn crc32_slice_by_8_equals_the_bytewise_loop(bytes in prop::collection::vec(any::<u8>(), 0..600), skip in 0usize..9) {
        let s = &bytes[skip.min(bytes.len())..];
        prop_assert_eq!(vfs::crc32(s), crc32_bytewise(s));
    }

    #[test]
    fn documents_roundtrip_exactly(d in any_document()) {
        let bytes = encode(&d);
        let back = serialize::decode_document(&bytes).expect("decodes");
        // Floats travel as bits, so the re-encoding is byte-identical even
        // where NaN makes `==` false.
        prop_assert_eq!(encode(&back), bytes);
        if d == d {
            prop_assert_eq!(back, d);
        }
    }

    #[test]
    fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..200)) {
        if let Ok(d) = serialize::decode_document(&bytes) {
            prop_assert_eq!(serialize::decode_document(&encode(&d)).map(|b| encode(&b)), Ok(encode(&d)));
        }
        prop_assert!(vfs::decode_frame_file(&bytes).is_err());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn truncated_and_mutated_encodings_never_panic(d in any_document(), flip in 1u8..=255) {
        let bytes = encode(&d);
        let mut frame = Vec::new();
        vfs::encode_frame(&mut frame, b'p', &bytes).expect("framed");
        for cut in 0..bytes.len() {
            prop_assert!(serialize::decode_document(&bytes[..cut]).is_err(), "cut at {}", cut);
        }
        for cut in 0..frame.len() {
            prop_assert!(vfs::decode_frame(&frame[..cut]).is_none(), "frame cut at {}", cut);
        }
        for at in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[at] ^= flip;
            // A flipped text byte can still be a valid document; whatever
            // decodes is one the codec round-trips.
            if let Ok(m) = serialize::decode_document(&bad) {
                prop_assert_eq!(serialize::decode_document(&encode(&m)).map(|b| encode(&b)), Ok(encode(&m)));
            }
        }
        for at in 0..frame.len() {
            // Framed, every single-byte mutation is caught by the CRC.
            let mut bad = frame.clone();
            bad[at] ^= flip;
            prop_assert!(vfs::decode_frame(&bad).is_none(), "frame flip at {}", at);
        }
    }
}

proptest! {
    #[test]
    fn sentences_preserve_nonspace_content(s in "[a-zA-Z .!?]{0,200}") {
        let joined: String = text::sentences(&s).join(" ");
        let strip = |x: &str| x.chars().filter(|c| !c.is_whitespace()).collect::<String>();
        prop_assert_eq!(strip(&joined), strip(&s));
    }
}
