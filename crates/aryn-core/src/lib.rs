//! # aryn-core
//!
//! Shared substrate for Aryn-RS, a Rust reproduction of *"The Design of an
//! LLM-powered Unstructured Analytics System"* (CIDR 2025):
//!
//! * [`Value`] / [`json`] — the JSON-like property data model, with a strict
//!   parser and a lenient parser for repairing LLM output;
//! * [`Document`] / [`Element`] / [`Table`] — the hierarchical, multi-modal
//!   document model DocSets flow through;
//! * [`BBox`] — page geometry for the partitioner;
//! * [`text`] — tokenization, stemming, sentence splitting, token counting;
//! * [`ids`] — deterministic hashing and identifiers;
//! * [`LineageRecord`] — provenance for explainability;
//! * [`percentile`] — the nearest-rank percentile latency reports use.

pub mod bbox;
pub mod diag;
pub mod document;
pub mod error;
pub mod ids;
pub mod json;
pub mod lexicon;
pub mod lineage;
pub mod serialize;
pub mod table;
pub mod text;
pub mod value;
pub mod vfs;

pub use bbox::BBox;
pub use diag::{Diagnostic, Severity};
pub use document::{DocContent, DocNode, DocTree, Document, Element, ElementType, ImageInfo};
pub use error::{ArynError, Result};
pub use ids::{fnv1a, stable_hash, DocId, ElementId};
pub use lineage::LineageRecord;
pub use table::{Cell, Table};
pub use value::Value;
pub use vfs::{ChaosFs, MemFs, StdFs, StorageFault, StorageSchedule, StorageWindow, Vfs};

/// Nearest-rank percentile (`p` in 0..=100) of an ascending-sorted slice;
/// 0 for an empty one.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::percentile;

    #[test]
    fn percentile_nearest_rank() {
        let v = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(percentile(&v, 50.0), 20.0);
        assert_eq!(percentile(&v, 99.0), 40.0);
        assert_eq!(percentile(&v, 0.0), 10.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }
}
