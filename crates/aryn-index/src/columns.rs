//! Dictionary-encoded property columns (DESIGN.md §5j "Read path").
//!
//! A store layer's entries never change while anything reads them (the
//! memtable is copy-on-write, sealed segments are immutable), so the values
//! one property path takes across them can be read once and kept: every
//! distinct value once in a dictionary, and one small code per entry. A
//! predicate leaf is then tested once per distinct value instead of once per
//! row, and a projection is an array read instead of a `get_path` walk
//! through each document's property tree. Columns are built on first use,
//! held by the layer (so every snapshot sharing it shares them) and never
//! persisted.

use aryn_core::{Document, Value};
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// One property path over a layer's entries, in entry (id) order.
#[derive(Debug)]
pub struct Column {
    /// The distinct values, exactly as stored (no case or numeric folding:
    /// `"AK"` and `"ak"`, `2` and `2.0` are separate entries).
    values: Vec<Value>,
    /// Per entry: `0` when the path is missing (or the entry is a
    /// tombstone), else `1 +` the value's dictionary index.
    codes: Vec<u32>,
}

impl Column {
    /// Reads `path` from every entry of `entries` (a layer's, in order).
    pub(crate) fn build<'a>(
        entries: impl Iterator<Item = &'a Option<Arc<Document>>>,
        path: &str,
    ) -> Column {
        let mut values: Vec<Value> = Vec::new();
        let mut index: HashMap<Exact<'a>, u32> = HashMap::new();
        let codes = entries
            .map(|entry| {
                let Some(v) = entry.as_ref().and_then(|d| d.properties.get_path(path)) else {
                    return 0;
                };
                *index.entry(Exact(v)).or_insert_with(|| {
                    values.push(v.clone());
                    values.len() as u32
                })
            })
            .collect();
        Column { values, codes }
    }

    /// The value of entry `pos`, `None` where the path is missing.
    pub(crate) fn value(&self, pos: usize) -> Option<&Value> {
        self.lookup(self.codes[pos])
    }

    /// The value behind a code.
    pub(crate) fn lookup(&self, code: u32) -> Option<&Value> {
        code.checked_sub(1).map(|i| &self.values[i as usize])
    }

    /// Per entry code; see [`Column::lookup`].
    pub(crate) fn codes(&self) -> &[u32] {
        &self.codes
    }

    /// `f` applied to "missing" (code 0) and to every distinct value, in
    /// code order: a per-code table.
    pub(crate) fn table<T>(&self, mut f: impl FnMut(Option<&Value>) -> T) -> Vec<T> {
        std::iter::once(f(None))
            .chain(self.values.iter().map(|v| f(Some(v))))
            .collect()
    }
}

/// A value under exact identity: same variant, same contents, floats by
/// their bits. Two values equal here answer every predicate leaf alike,
/// which is what lets a leaf be tested once per dictionary entry.
struct Exact<'a>(&'a Value);

fn exact_eq(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
        (Value::Array(x), Value::Array(y)) => {
            x.len() == y.len() && x.iter().zip(y).all(|(a, b)| exact_eq(a, b))
        }
        (Value::Object(x), Value::Object(y)) => {
            x.len() == y.len()
                && x.iter()
                    .zip(y)
                    .all(|((ka, va), (kb, vb))| ka == kb && exact_eq(va, vb))
        }
        (Value::Float(_), _) | (_, Value::Float(_)) => false,
        (Value::Array(_), _) | (_, Value::Array(_)) => false,
        (Value::Object(_), _) | (_, Value::Object(_)) => false,
        (a, b) => a == b,
    }
}

fn exact_hash<H: Hasher>(v: &Value, h: &mut H) {
    std::mem::discriminant(v).hash(h);
    match v {
        Value::Null => {}
        Value::Bool(b) => b.hash(h),
        Value::Int(i) => i.hash(h),
        Value::Float(f) => f.to_bits().hash(h),
        Value::Str(s) => s.hash(h),
        Value::Array(a) => {
            a.len().hash(h);
            a.iter().for_each(|x| exact_hash(x, h));
        }
        Value::Object(m) => {
            m.len().hash(h);
            for (k, x) in m {
                k.hash(h);
                exact_hash(x, h);
            }
        }
    }
}

impl PartialEq for Exact<'_> {
    fn eq(&self, other: &Self) -> bool {
        exact_eq(self.0, other.0)
    }
}

impl Eq for Exact<'_> {}

impl Hash for Exact<'_> {
    fn hash<H: Hasher>(&self, h: &mut H) {
        exact_hash(self.0, h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aryn_core::obj;

    fn entry(props: Value) -> Option<Arc<Document>> {
        let mut d = Document::new("x");
        d.properties = props;
        Some(Arc::new(d))
    }

    #[test]
    fn distinct_values_are_exact_and_missing_is_code_zero() {
        let entries = vec![
            entry(obj! { "s" => "AK" }),
            entry(obj! { "s" => "ak" }),
            None,
            entry(obj! { "t" => 1i64 }),
            entry(obj! { "s" => "AK" }),
            entry(obj! { "s" => 2i64 }),
            entry(obj! { "s" => 2.0 }),
            entry(obj! { "s" => f64::NAN }),
            entry(obj! { "s" => f64::NAN }),
            entry(obj! { "s" => Value::Null }),
        ];
        let col = Column::build(entries.iter(), "s");
        assert_eq!(col.codes(), &[1, 2, 0, 0, 1, 3, 4, 5, 5, 6]);
        assert_eq!(col.value(0), Some(&Value::from("AK")));
        assert_eq!(col.value(2), None);
        assert!(col
            .value(8)
            .and_then(Value::as_float)
            .is_some_and(f64::is_nan));
        assert_eq!(
            col.table(|v| v.is_some()),
            vec![false, true, true, true, true, true, true]
        );
    }
}
