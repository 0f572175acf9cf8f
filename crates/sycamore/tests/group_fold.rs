//! The one-pass group fold behind `reduce_by_key` against the stable-sort
//! implementation it replaced, kept here as the reference: same groups in
//! the same order, same group ids, bit-identical values and the same
//! lineage sources, over keys that are missing, `Null`, `Int`/`Float`
//! twins that compare equal, case variants and NaN, and values with ties.

use aryn_core::{Document, LineageRecord, Value};
use proptest::prelude::*;
use std::sync::Arc;
use sycamore::transforms::{reduce_by_key, AggFold};
use sycamore::Agg;

mod reference {
    use super::*;

    fn key_of<'a>(doc: &'a Document, path: &str) -> &'a Value {
        doc.prop(path).unwrap_or(&Value::Null)
    }

    /// Sorts the rows by key (stable), then walks runs of equal keys.
    pub fn reduce_by_key(
        docs: &[Arc<Document>],
        key: &str,
        aggs: &[(String, Agg)],
    ) -> Vec<Arc<Document>> {
        let mut sorted: Vec<&Document> = docs.iter().map(Arc::as_ref).collect();
        sorted.sort_by(|a, b| key_of(a, key).cmp_total(key_of(b, key)));
        let mut out = Vec::new();
        let mut i = 0;
        while i < sorted.len() {
            let key_val = key_of(sorted[i], key);
            let mut j = i;
            while j < sorted.len()
                && key_of(sorted[j], key).cmp_total(key_val) == std::cmp::Ordering::Equal
            {
                j += 1;
            }
            let group = &sorted[i..j];
            let mut g = Document::new(format!("group:{}", key_val.display_text()));
            g.set_prop(key, key_val.clone());
            g.set_prop("count", group.len() as i64);
            for (out_name, agg) in aggs {
                g.properties.set_path(out_name, eval_agg(group, agg));
            }
            g.lineage.push(
                LineageRecord::new("reduce_by_key", key.to_string())
                    .with_sources(group.iter().map(|d| d.id.0.clone()).collect()),
            );
            out.push(Arc::new(g));
            i = j;
        }
        out
    }

    pub fn eval_agg(group: &[&Document], agg: &Agg) -> Value {
        let nums = |path: &str| -> Vec<f64> {
            group
                .iter()
                .filter_map(|d| d.prop(path))
                .filter_map(Value::as_float)
                .collect()
        };
        match agg {
            Agg::Count => Value::Int(group.len() as i64),
            Agg::Sum(path) => {
                let xs = nums(path);
                if xs.is_empty() {
                    Value::Null
                } else {
                    Value::Float(xs.iter().sum())
                }
            }
            Agg::Avg(path) => {
                let xs = nums(path);
                if xs.is_empty() {
                    Value::Null
                } else {
                    Value::Float(xs.iter().sum::<f64>() / xs.len() as f64)
                }
            }
            Agg::Min(path) | Agg::Max(path) => {
                let mut vals: Vec<&Value> = group
                    .iter()
                    .filter_map(|d| d.prop(path))
                    .filter(|v| !v.is_null())
                    .collect();
                vals.sort_by(|a, b| a.cmp_total(b));
                let pick = if matches!(agg, Agg::Min(_)) {
                    vals.first()
                } else {
                    vals.last()
                };
                pick.map(|v| (*v).clone()).unwrap_or(Value::Null)
            }
            Agg::CollectDistinct(path) => {
                let mut vals: Vec<Value> = Vec::new();
                for d in group {
                    if let Some(v) = d.prop(path) {
                        if !v.is_null() && !vals.iter().any(|x| x.loose_eq(v)) {
                            vals.push(v.clone());
                        }
                    }
                }
                vals.sort_by(|a, b| a.cmp_total(b));
                Value::Array(vals)
            }
        }
    }
}

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
