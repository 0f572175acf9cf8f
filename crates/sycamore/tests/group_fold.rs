//! The one-pass group fold behind `reduce_by_key` against the stable-sort
//! implementation it replaced (`support/group_reference.rs`): same groups in
//! the same order, same group ids, bit-identical values and the same
//! lineage sources, over keys that are missing, `Null`, `Int`/`Float`
//! twins that compare equal, case variants and NaN, and values with ties.

use aryn_core::{Document, Value};
use proptest::prelude::*;
use std::sync::Arc;
use sycamore::transforms::{reduce_by_key, AggFold};
use sycamore::Agg;

#[path = "support/group_reference.rs"]
mod reference;

/// Keys and values drawn from a small pool, so groups collide and ties are
/// common: `2` and `2.0` compare equal, `"AK"`/`"ak"` do not, NaN equals
/// NaN under `cmp_total`, and `-0.0` equals `0.0`.
fn pool_value() -> impl Strategy<Value = Option<Value>> {
    prop_oneof![
        Just(None),
        Just(Some(Value::Null)),
        (-3i64..4).prop_map(|i| Some(Value::Int(i))),
        (-3i64..4).prop_map(|i| Some(Value::Float(i as f64))),
        Just(Some(Value::Float(0.5))),
        Just(Some(Value::Float(-0.0))),
        Just(Some(Value::Float(f64::NAN))),
        Just(Some(Value::Float(1e16))),
        prop_oneof![Just("AK"), Just("ak"), Just("Ak"), Just("TX"), Just("")]
            .prop_map(|s| Some(Value::from(s))),
        Just(Some(Value::Bool(true))),
        Just(Some(Value::Array(vec![Value::Int(1), Value::Float(2.0)]))),
    ]
}

fn rows() -> impl Strategy<Value = Vec<Arc<Document>>> {
    prop::collection::vec((pool_value(), pool_value()), 0..40).prop_map(|rows| {
        rows.into_iter()
            .enumerate()
            .map(|(i, (k, x))| {
                let mut d = Document::new(format!("d{i:02}"));
                if let Some(k) = k {
                    d.set_prop("k", k);
                }
                if let Some(x) = x {
                    d.set_prop("x", x);
                }
                Arc::new(d)
            })
            .collect()
    })
}

fn all_aggs() -> Vec<(String, Agg)> {
    vec![
        ("n".into(), Agg::Count),
        ("sum".into(), Agg::Sum("x".into())),
        ("avg".into(), Agg::Avg("x".into())),
        ("min".into(), Agg::Min("x".into())),
        ("max".into(), Agg::Max("x".into())),
        ("distinct".into(), Agg::CollectDistinct("x".into())),
        // The key as the aggregated value: ties on the key itself.
        ("min_k".into(), Agg::Min("k".into())),
        ("max_k".into(), Agg::Max("k".into())),
    ]
}

/// A group document as text: `Debug` shows `2` and `2.0`, NaN and `-0.0`
/// apart, so equal renderings mean bit-identical values.
fn render(docs: &[Arc<Document>]) -> Vec<String> {
    docs.iter()
        .map(|d| format!("{} {:?} {:?}", d.id.as_str(), d.properties, d.lineage))
        .collect()
}

proptest! {
    #[test]
    fn one_pass_fold_equals_the_stable_sort_reference(docs in rows(), by_missing in any::<bool>()) {
        let aggs = all_aggs();
        let key = if by_missing { "absent" } else { "k" };
        prop_assert_eq!(render(&reduce_by_key(&docs, key, &aggs)), render(&reference::reduce_by_key(&docs, key, &aggs)));
    }

    #[test]
    fn one_aggregate_fold_equals_the_reference(docs in rows()) {
        let refs: Vec<&Document> = docs.iter().map(Arc::as_ref).collect();
        for (_, agg) in all_aggs() {
            let mut fold = AggFold::new(&agg);
            for d in &docs {
                fold.push(agg.path().and_then(|p| d.prop(p)));
            }
            prop_assert_eq!(fold.pushed(), docs.len());
            prop_assert_eq!(format!("{:?}", fold.finish()), format!("{:?}", reference::eval_agg(&refs, &agg)));
        }
    }
}
