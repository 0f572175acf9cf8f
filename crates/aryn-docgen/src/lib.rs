//! # aryn-docgen
//!
//! Synthetic document corpora for Aryn-RS. Ground-truth records
//! ([`records`]) are rendered through prose templates ([`ntsb`],
//! [`earnings`]) and a page-layout engine ([`layout`]) into "PDF-like"
//! [`layout::RawDocument`]s — positioned text fragments, table rules, image
//! rasters — together with DocLayNet-style labeled [`layout::GroundTruth`]
//! used only for evaluation. [`corpus`] assembles seeded collections.

pub mod corpus;
pub mod earnings;
pub mod layout;
pub mod ntsb;
pub mod records;
pub mod stream;

pub use corpus::{gold_document, Corpus, CorpusDoc, Domain};
pub use stream::{extracted_document, DocStream};
pub use layout::{Block, Fragment, GroundTruth, GtBox, LayoutEngine, RawDocument, RawImage, Rule,
                 MARGIN, PAGE_H, PAGE_W};
pub use records::{EarningsRecord, NtsbRecord};
