//! Luna's data schema (§6.1): "Luna operates on data ingested using
//! Sycamore, benefiting from structured information extracted from
//! unstructured data. Luna uses this schema during the query planning phase."
//!
//! The schema is *discovered* from a document store's properties and "can
//! evolve over time" — re-deriving it after new extractions picks up new
//! fields automatically. The store maintains `path -> (type, count)` from
//! put/delete deltas, so discovery is O(paths) and never walks the corpus.

use aryn_core::Value;
use std::collections::BTreeMap;

/// One discovered field.
#[derive(Debug, Clone, PartialEq)]
pub struct Field {
    pub path: String,
    pub ftype: String,
    /// How many documents carry the field.
    pub count: usize,
}

/// Schema of one index.
#[derive(Debug, Clone, PartialEq)]
pub struct IndexSchema {
    pub index: String,
    pub doc_count: usize,
    pub fields: Vec<Field>,
}

impl IndexSchema {
    /// The schema of an index from what its store (or a frozen snapshot of
    /// it) maintains: `len()` and `schema()`. From a pinned snapshot the
    /// fields and counts are those of its sequence number, stable under
    /// concurrent ingestion.
    pub fn discover(
        index: &str,
        doc_count: usize,
        maintained: BTreeMap<String, (String, usize)>,
    ) -> IndexSchema {
        IndexSchema {
            index: index.to_string(),
            doc_count,
            fields: maintained
                .into_iter()
                .map(|(path, (ftype, count))| Field { path, ftype, count })
                .collect(),
        }
    }

    /// Whether [`IndexSchema::discover`] of `doc_count` and `maintained`
    /// is this schema, compared without building it.
    pub fn describes(&self, doc_count: usize, maintained: &aryn_index::Schema) -> bool {
        self.doc_count == doc_count
            && self.fields.len() == maintained.len()
            && self.fields.iter().zip(maintained).all(|(f, (path, (ftype, count)))| {
                f.path == *path && f.ftype == *ftype && f.count == *count
            })
    }

    pub fn field(&self, path: &str) -> Option<&Field> {
        self.fields.iter().find(|f| f.path == path)
    }

    /// Resolves a natural-language mention to the best-matching field by
    /// token overlap (e.g. "revenue growth" → `growth_pct`).
    pub fn resolve_field(&self, mention: &str) -> Option<&Field> {
        let want = aryn_core::text::analyze(&mention.replace('_', " "));
        if want.is_empty() {
            return None;
        }
        let mut best: Option<(&Field, f64)> = None;
        for f in &self.fields {
            let have = aryn_core::text::analyze(&f.path.replace('_', " "));
            let hits = want.iter().filter(|t| have.contains(t)).count();
            if hits == 0 {
                continue;
            }
            // Prefer precise matches: overlap relative to both sides.
            let score = hits as f64 / want.len() as f64 + hits as f64 / have.len() as f64;
            if best.is_none_or(|(_, s)| score > s) {
                best = Some((f, score));
            }
        }
        best.map(|(f, _)| f)
    }

    /// Renders the schema for the planner prompt.
    pub fn render(&self) -> Value {
        let mut m = BTreeMap::new();
        for f in &self.fields {
            m.insert(f.path.clone(), Value::from(f.ftype.as_str()));
        }
        Value::Object(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aryn_core::{obj, Document};
    use aryn_index::DocStore;

    fn schema() -> IndexSchema {
        let s = store();
        IndexSchema::discover("x", s.len(), s.schema())
    }

    fn store() -> DocStore {
        let mut s = DocStore::new();
        for (i, (state, growth)) in [("AK", 10.5), ("TX", -2.0), ("AK", 3.0)].iter().enumerate() {
            let mut d = Document::new(format!("d{i}"));
            d.properties = obj! {
                "us_state_abbrev" => *state,
                "growth_pct" => *growth,
                "revenue_musd" => 100.0 + i as f64,
            };
            s.try_put(d).unwrap();
        }
        s
    }

    #[test]
    fn discover_collects_fields_and_counts() {
        let schema = schema();
        assert_eq!(schema.doc_count, 3);
        let state = schema.field("us_state_abbrev").unwrap();
        assert_eq!(state.ftype, "string");
        assert_eq!(state.count, 3);
        // A frozen snapshot yields the same schema as the live store.
        let snap = store().snapshot();
        assert_eq!(IndexSchema::discover("x", snap.len(), snap.schema()), schema);
    }

    #[test]
    fn resolve_field_by_mention() {
        let schema = schema();
        assert_eq!(schema.resolve_field("growth").unwrap().path, "growth_pct");
        assert_eq!(schema.resolve_field("revenue").unwrap().path, "revenue_musd");
        assert_eq!(schema.resolve_field("state").unwrap().path, "us_state_abbrev");
        assert!(schema.resolve_field("altitude").is_none());
        assert!(schema.resolve_field("").is_none());
    }

    #[test]
    fn render_is_prompt_friendly() {
        let schema = schema();
        let v = schema.render();
        assert_eq!(v.get("growth_pct").unwrap().as_str(), Some("float"));
    }
}
