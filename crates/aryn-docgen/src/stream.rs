//! Streaming corpus generation: documents delivered one at a time with
//! arrival timestamps on a virtual clock, instead of a whole [`Corpus`]
//! materialized up front. Each [`DocStream::next_arrival`] generates exactly
//! one record (O(doc) work, O(1) memory beyond the emitted document), which
//! is what a streaming-ingestion pipeline needs to measure per-arrival index
//! lag without the generator itself dominating the profile.

use crate::corpus::{gold_document, CorpusDoc, Domain};
use crate::records::{EarningsRecord, NtsbRecord};
use aryn_core::Document;

/// A rate-controlled, seeded document feed of extracted documents
/// ([`extracted_document`]): gold elements plus the grading record's fields
/// as properties, immediately plannable by Luna.
#[derive(Debug, Clone)]
pub struct DocStream {
    domain: Domain,
    seed: u64,
    total: usize,
    next_i: usize,
    /// Virtual milliseconds between consecutive arrivals.
    interval_ms: f64,
}

impl DocStream {
    /// NTSB accident reports arriving every `interval_ms` virtual ms.
    pub fn ntsb(seed: u64, total: usize, interval_ms: f64) -> DocStream {
        DocStream {
            domain: Domain::Ntsb,
            seed,
            total,
            next_i: 0,
            interval_ms,
        }
    }

    /// Earnings reports arriving every `interval_ms` virtual ms.
    pub fn earnings(seed: u64, total: usize, interval_ms: f64) -> DocStream {
        DocStream {
            domain: Domain::Earnings,
            seed,
            total,
            next_i: 0,
            interval_ms,
        }
    }

    /// Documents not yet emitted.
    pub fn remaining(&self) -> usize {
        self.total - self.next_i
    }

    /// Generates the next document and its arrival timestamp.
    pub fn next_arrival(&mut self) -> Option<(Document, f64)> {
        if self.remaining() == 0 {
            return None;
        }
        let i = self.next_i;
        self.next_i += 1;
        let entry = corpus_doc(self.domain, self.seed, i);
        Some((extracted_document(&entry), i as f64 * self.interval_ms))
    }
}

/// Generates the `i`-th corpus entry of a domain — identical to the entry
/// `Corpus::ntsb/earnings` would build at position `i` (same seeding), so a
/// stream and a batch corpus over the same seed agree document-for-document.
pub fn corpus_doc(domain: Domain, seed: u64, i: usize) -> CorpusDoc {
    match domain {
        Domain::Ntsb => {
            let r = NtsbRecord::generate(seed, i);
            let (raw, gt) = crate::ntsb::render(&r);
            CorpusDoc {
                id: r.id.clone(),
                domain,
                raw,
                ground_truth: gt,
                record: r.to_value(),
            }
        }
        Domain::Earnings => {
            let r = EarningsRecord::generate(seed, i);
            let (raw, gt) = crate::earnings::render(&r);
            CorpusDoc {
                id: r.id.clone(),
                domain,
                raw,
                ground_truth: gt,
                record: r.to_value(),
            }
        }
    }
}

/// The gold document plus the grading record's fields as extracted
/// properties (perfect extraction).
pub fn extracted_document(d: &CorpusDoc) -> Document {
    let mut doc = gold_document(d);
    if let (Some(dst), Some(src)) = (doc.properties.as_object_mut(), d.record.as_object()) {
        for (k, v) in src {
            if k != "id" {
                dst.entry(k.clone()).or_insert_with(|| v.clone());
            }
        }
    }
    doc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::Corpus;

    #[test]
    fn stream_matches_batch_corpus_doc_for_doc() {
        let corpus = Corpus::ntsb(3, 5);
        let mut stream = DocStream::ntsb(3, 5, 10.0);
        let mut n = 0;
        while let Some((doc, at)) = stream.next_arrival() {
            let want = extracted_document(&corpus.docs[n]);
            assert_eq!(doc.id, want.id);
            assert_eq!(doc.full_text(), want.full_text());
            assert_eq!(at, n as f64 * 10.0);
            n += 1;
        }
        assert_eq!(n, 5);
        assert_eq!(stream.remaining(), 0);
    }

    #[test]
    fn extracted_stage_carries_record_properties() {
        let mut stream = DocStream::earnings(1, 2, 5.0);
        let (doc, _) = stream.next_arrival().unwrap();
        assert!(doc.prop("company").is_some());
        assert!(doc.prop("revenue_musd").is_some());
        assert!(doc.prop("sector").is_some());
        assert!(doc.prop("id").is_none(), "grading id stays out of properties");
        assert!(!doc.elements.is_empty(), "gold elements ride along");
    }
}
