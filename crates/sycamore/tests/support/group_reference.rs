//! The stable-sort group-by that `reduce_by_key`'s one-pass fold
//! replaced, kept as the reference the fold and Luna's keyed `aggregate`
//! are checked against: sort the rows by key (`cmp_total`, stable), then
//! one group per run of equal keys, named by its first row.

use aryn_core::{Document, LineageRecord, Value};
use std::sync::Arc;
use sycamore::Agg;

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
