//! Corpus assembly: seeded collections of rendered documents with ground
//! truth, plus conversion into the [`Document`] model at the two stages the
//! paper describes (§5.1): raw (pre-partitioning, binary-ish content only)
//! and gold (perfectly partitioned from ground truth, for isolating
//! downstream logic from partitioner noise).

use crate::layout::{GroundTruth, RawDocument};
use crate::records::{EarningsRecord, NtsbRecord};
use aryn_core::{DocContent, Document, Element, ElementType, ImageInfo, Value};

/// Which generator a corpus entry came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Domain {
    Ntsb,
    Earnings,
}

impl Domain {
    pub fn name(&self) -> &'static str {
        match self {
            Domain::Ntsb => "ntsb",
            Domain::Earnings => "earnings",
        }
    }
}

/// One corpus entry: rendered pages, annotation, and the grading record.
#[derive(Debug, Clone)]
pub struct CorpusDoc {
    pub id: String,
    pub domain: Domain,
    pub raw: RawDocument,
    pub ground_truth: GroundTruth,
    /// The generating record as JSON — for grading only.
    pub record: Value,
}

/// A seeded synthetic corpus.
#[derive(Debug, Clone, Default)]
pub struct Corpus {
    pub docs: Vec<CorpusDoc>,
}

impl Corpus {
    /// `n` NTSB accident reports.
    pub fn ntsb(seed: u64, n: usize) -> Corpus {
        let docs = (0..n)
            .map(|i| {
                let r = NtsbRecord::generate(seed, i);
                let (raw, gt) = crate::ntsb::render(&r);
                CorpusDoc {
                    id: r.id.clone(),
                    domain: Domain::Ntsb,
                    raw,
                    ground_truth: gt,
                    record: r.to_value(),
                }
            })
            .collect();
        Corpus { docs }
    }

    /// `n` earnings reports.
    pub fn earnings(seed: u64, n: usize) -> Corpus {
        let docs = (0..n)
            .map(|i| {
                let r = EarningsRecord::generate(seed, i);
                let (raw, gt) = crate::earnings::render(&r);
                CorpusDoc {
                    id: r.id.clone(),
                    domain: Domain::Earnings,
                    raw,
                    ground_truth: gt,
                    record: r.to_value(),
                }
            })
            .collect();
        Corpus { docs }
    }

    /// A mixed corpus (NTSB then earnings).
    pub fn mixed(seed: u64, n_ntsb: usize, n_earnings: usize) -> Corpus {
        let mut c = Corpus::ntsb(seed, n_ntsb);
        c.docs.extend(Corpus::earnings(seed, n_earnings).docs);
        c
    }

    pub fn len(&self) -> usize {
        self.docs.len()
    }

    pub fn is_empty(&self) -> bool {
        self.docs.is_empty()
    }

    /// Documents partitioned *perfectly from ground truth* — the oracle
    /// partitioning, used to isolate downstream stages in tests and to
    /// compare against real partitioner output.
    pub fn gold_documents(&self) -> Vec<Document> {
        self.docs.iter().map(gold_document).collect()
    }

    /// The grading record for a document id.
    pub fn record_for(&self, id: &str) -> Option<&Value> {
        self.docs.iter().find(|d| d.id == id).map(|d| &d.record)
    }
}

/// Builds the perfectly-partitioned document for one corpus entry.
pub fn gold_document(d: &CorpusDoc) -> Document {
    let mut doc = Document::new(d.id.clone());
    doc.content = DocContent::Text(d.raw.full_text());
    doc.set_prop("domain", d.domain.name());
    let mut boxes: Vec<&crate::layout::GtBox> = d.ground_truth.boxes.iter().collect();
    boxes.sort_by(|a, b| {
        a.page.cmp(&b.page).then(
            a.bbox
                .y0
                .partial_cmp(&b.bbox.y0)
                .unwrap_or(std::cmp::Ordering::Equal),
        )
    });
    for b in boxes {
        let mut e = Element::text(b.etype, b.text.clone());
        e.page = b.page;
        e.bbox = Some(b.bbox);
        e.table = b.table.clone();
        if b.etype == ElementType::Picture {
            // Attach the raster stand-in so multimodal transforms can see it.
            if let Some(img) = d
                .raw
                .images
                .iter()
                .find(|im| im.page == b.page && im.bbox == b.bbox)
            {
                e.image = Some(ImageInfo {
                    format: "png".into(),
                    width_px: img.bbox.width() as u32,
                    height_px: img.bbox.height() as u32,
                    summary: None,
                    ocr_text: None,
                });
                e.properties.set_path("image_description", Value::from(img.description.as_str()));
                if !img.embedded_text.is_empty() {
                    e.properties
                        .set_path("embedded_text", Value::from(img.embedded_text.as_str()));
                }
            }
        }
        doc.elements.push(e);
    }
    doc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpora_are_seeded_and_sized() {
        let c = Corpus::ntsb(1, 5);
        assert_eq!(c.len(), 5);
        let c2 = Corpus::ntsb(1, 5);
        assert_eq!(c.docs[3].raw, c2.docs[3].raw);
        let c3 = Corpus::ntsb(2, 5);
        assert_ne!(c.docs[3].raw, c3.docs[3].raw);
    }

    #[test]
    fn mixed_corpus_has_both_domains() {
        let c = Corpus::mixed(1, 3, 4);
        assert_eq!(c.len(), 7);
        assert_eq!(c.docs.iter().filter(|d| d.domain == Domain::Ntsb).count(), 3);
        assert_eq!(c.docs.iter().filter(|d| d.domain == Domain::Earnings).count(), 4);
    }

    #[test]
    fn gold_documents_are_fully_partitioned() {
        let c = Corpus::ntsb(1, 3);
        let docs = c.gold_documents();
        for (doc, entry) in docs.iter().zip(&c.docs) {
            assert_eq!(doc.elements.len(), entry.ground_truth.boxes.len());
            // Reading order: pages ascend.
            let pages: Vec<usize> = doc.elements.iter().map(|e| e.page).collect();
            let mut sorted = pages.clone();
            sorted.sort_unstable();
            assert_eq!(pages, sorted);
            assert!(doc.first_table().is_some());
        }
    }

    #[test]
    fn gold_picture_elements_carry_description() {
        let c = Corpus::ntsb(9, 40);
        let with_img = c
            .docs
            .iter()
            .map(gold_document)
            .find(|d| d.elements_of(ElementType::Picture).count() > 0)
            .expect("some doc has an image");
        let pic = with_img.elements_of(ElementType::Picture).next().unwrap();
        assert!(pic.image.is_some());
        assert!(pic
            .properties
            .get("image_description")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("wreckage"));
    }

    #[test]
    fn record_lookup_by_id() {
        let c = Corpus::earnings(1, 3);
        let id = c.docs[1].id.clone();
        assert!(c.record_for(&id).is_some());
        assert!(c.record_for("nope").is_none());
    }
}
