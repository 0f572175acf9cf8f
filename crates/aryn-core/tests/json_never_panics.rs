//! `aryn_core::json` reads text this process did not write: every LLM
//! response goes through `parse_lenient`, manifests and cache logs through
//! `parse`. Whatever the input — arbitrary bytes, deep nesting, a valid
//! document cut short or with one byte changed — both parsers return `Ok`
//! or `Err`; they never panic and never run out of stack.
//!
//! Case counts follow `PROPTEST_CASES` (256 by default).

use aryn_core::json::{self, parse, parse_lenient};
use aryn_core::serialize::MAX_DEPTH;
use aryn_core::Value;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

/// Runs both parsers; a panic fails the test. Whatever the strict parser
/// accepts, it accepts again after a round trip.
fn parse_both(text: &str) -> std::result::Result<(), TestCaseError> {
    if let Ok(v) = parse(text) {
        prop_assert_eq!(
            parse(&json::to_string(&v)).map(|w| json::to_string(&w)),
            Ok(json::to_string(&v))
        );
    }
    let _ = parse_lenient(text);
    Ok(())
}

fn value() -> impl Strategy<Value = Value> {
    let leaf = prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::Int),
        prop::num::f64::NORMAL.prop_map(Value::Float),
        "[a-z\"\\\\ \u{e9}\u{1F600}]{0,8}".prop_map(Value::Str),
    ];
    leaf.prop_recursive(3, 16, 4, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..4).prop_map(Value::Array),
            prop::collection::btree_map("[a-z]{1,4}", inner, 0..4).prop_map(Value::Object),
        ]
    })
}

/// `depth` containers, alternating arrays and single-key objects, closed.
fn nested(depth: usize) -> String {
    let mut open = String::new();
    let mut close = String::new();
    for i in 0..depth {
        if i % 2 == 0 {
            open.push('[');
            close.insert(0, ']');
        } else {
            open.push_str("{\"k\":");
            close.insert(0, '}');
        }
    }
    format!("{open}1{close}")
}

#[test]
fn deep_nesting_is_an_error_not_a_stack_overflow() {
    for unit in ["[", "{\"a\":", "[{'k':", "{a:["] {
        let text = unit.repeat(200_000);
        assert!(parse(&text).is_err(), "{unit:?} x 200000");
        assert!(parse_lenient(&text).is_err(), "{unit:?} x 200000, lenient");
    }
    // The codec's bound: `MAX_DEPTH` containers parse, one more does not.
    assert!(parse(&nested(MAX_DEPTH)).is_ok());
    assert!(parse_lenient(&nested(MAX_DEPTH)).is_ok());
    assert!(parse(&nested(MAX_DEPTH + 1)).is_err());
}

proptest! {
    #[test]
    fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..200)) {
        parse_both(&String::from_utf8_lossy(&bytes))?;
    }

    #[test]
    fn json_shaped_noise_never_panics(text in "[\\[\\]{}:,\"'\\\\ntrufalsNTF0-9.eE+\\- u]{0,120}") {
        parse_both(&text)?;
    }

    #[test]
    fn nesting_parses_up_to_the_bound_and_no_further(depth in 1usize..400) {
        prop_assert_eq!(parse(&nested(depth)).is_ok(), depth <= MAX_DEPTH);
        // Past the bound the lenient parser falls back to an inner value.
        prop_assert!(parse_lenient(&nested(depth)).is_ok());
    }

    #[test]
    fn every_truncation_and_byte_flip_of_valid_json_is_ok_or_err(v in value(), flip in 1u8..=255) {
        let text = json::to_string_pretty(&v);
        prop_assert_eq!(parse(&text).map(|w| json::to_string(&w)), Ok(json::to_string(&v)));
        let bytes = text.as_bytes();
        for cut in 0..bytes.len() {
            parse_both(&String::from_utf8_lossy(&bytes[..cut]))?;
        }
        for at in 0..bytes.len() {
            let mut bad = bytes.to_vec();
            bad[at] ^= flip;
            parse_both(&String::from_utf8_lossy(&bad))?;
        }
    }
}
