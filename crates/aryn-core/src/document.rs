//! The hierarchical, multi-modal document model (paper §5.1).
//!
//! "A document in Sycamore is a tree, where each node contains some content,
//! which may be text or binary, an ordered list of child nodes, and a set of
//! JSON-like key-value properties. We refer to leaf-level nodes in the tree
//! as elements."
//!
//! [`Document`] keeps its leaf [`Element`]s in reading order (the canonical
//! representation DocSets flow through) and exposes the section hierarchy as
//! a [`DocTree`] view built from title/section-header elements, which is how
//! structural transforms (flatten, section summarization) consume it.

use crate::bbox::BBox;
use crate::ids::DocId;
use crate::lineage::LineageRecord;
use crate::table::Table;
use crate::value::Value;

/// Element type system — the 11 DocLayNet classes the Aryn Partitioner's
/// DETR model labels regions with (§4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ElementType {
    Caption,
    Footnote,
    Formula,
    ListItem,
    PageFooter,
    PageHeader,
    Picture,
    SectionHeader,
    Table,
    Text,
    Title,
}

impl ElementType {
    /// All classes, in DocLayNet's canonical order.
    pub const ALL: [ElementType; 11] = [
        ElementType::Caption,
        ElementType::Footnote,
        ElementType::Formula,
        ElementType::ListItem,
        ElementType::PageFooter,
        ElementType::PageHeader,
        ElementType::Picture,
        ElementType::SectionHeader,
        ElementType::Table,
        ElementType::Text,
        ElementType::Title,
    ];

    pub fn name(&self) -> &'static str {
        match self {
            ElementType::Caption => "Caption",
            ElementType::Footnote => "Footnote",
            ElementType::Formula => "Formula",
            ElementType::ListItem => "List-item",
            ElementType::PageFooter => "Page-footer",
            ElementType::PageHeader => "Page-header",
            ElementType::Picture => "Picture",
            ElementType::SectionHeader => "Section-header",
            ElementType::Table => "Table",
            ElementType::Text => "Text",
            ElementType::Title => "Title",
        }
    }

    pub fn from_name(name: &str) -> Option<ElementType> {
        ElementType::ALL.iter().copied().find(|t| t.name().eq_ignore_ascii_case(name))
    }
}

impl std::fmt::Display for ElementType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Reserved properties of a Picture element: "an ImageElement has information
/// about the format and resolution" (§5.1).
#[derive(Debug, Clone, PartialEq)]
pub struct ImageInfo {
    pub format: String,
    pub width_px: u32,
    pub height_px: u32,
    /// Multimodal-LLM summary of the image contents, once extracted.
    pub summary: Option<String>,
    /// OCR'd text for images of printed/handwritten text.
    pub ocr_text: Option<String>,
}

/// A leaf-level chunk of a document: a paragraph, title, table, image, ...
#[derive(Debug, Clone, PartialEq)]
pub struct Element {
    pub etype: ElementType,
    /// Extracted text content (empty for pure images).
    pub text: String,
    /// Page number, 0-based.
    pub page: usize,
    /// Location on the page, when known.
    pub bbox: Option<BBox>,
    /// Detector confidence in `[0,1]` (1.0 for ground truth / synthetic).
    pub confidence: f32,
    /// Type-specific structured table content.
    pub table: Option<Table>,
    /// Type-specific image metadata.
    pub image: Option<ImageInfo>,
    /// Free-form JSON-like properties.
    pub properties: Value,
}

impl Element {
    /// A plain text element.
    pub fn text(etype: ElementType, text: impl Into<String>) -> Element {
        Element {
            etype,
            text: text.into(),
            page: 0,
            bbox: None,
            confidence: 1.0,
            table: None,
            image: None,
            properties: Value::object(),
        }
    }

    /// The element's content rendered as plain text, including table
    /// linearization and image summaries — what gets embedded or prompted.
    pub fn content_text(&self) -> String {
        let mut s = String::new();
        self.push_content_text(&mut s);
        s
    }

    /// Appends [`Element::content_text`] to `out` without building it
    /// first.
    fn push_content_text(&self, out: &mut String) {
        match (&self.table, &self.image) {
            (Some(t), _) => {
                if let Some(c) = &t.caption {
                    out.push_str(c);
                    out.push('\n');
                }
                t.push_text(out);
            }
            (_, Some(img)) => {
                let start = out.len();
                out.push_str(&self.text);
                for part in [&img.summary, &img.ocr_text].into_iter().flatten() {
                    if out.len() > start {
                        out.push('\n');
                    }
                    out.push_str(part);
                }
            }
            _ => out.push_str(&self.text),
        }
    }

    /// Appends the element's content and a newline to `out`; nothing when
    /// the content is empty. The one rendering every prompt and
    /// [`Document::full_text`] joins elements with.
    pub fn push_line(&self, out: &mut String) {
        let start = out.len();
        self.push_content_text(out);
        if out.len() > start {
            out.push('\n');
        }
    }
}

/// Document-level content before partitioning.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum DocContent {
    /// Nothing beyond the elements.
    #[default]
    None,
    /// Full plain text.
    Text(String),
    /// Raw bytes (the "single-node document with the raw PDF binary as the
    /// content" stage, §5.1).
    Binary(Vec<u8>),
}

/// A document flowing through a DocSet.
#[derive(Debug, Clone, PartialEq)]
pub struct Document {
    pub id: DocId,
    /// JSON-like key-value properties (extraction results land here).
    pub properties: Value,
    /// Raw content, present before/independent of partitioning.
    pub content: DocContent,
    /// Leaf elements in reading order; empty until partitioned.
    pub elements: Vec<Element>,
    /// Provenance of every transform that produced/modified this document.
    pub lineage: Vec<LineageRecord>,
    /// Embedding vector, set by the `embed` transform (chunk-level after
    /// `explode`, document-level otherwise).
    pub embedding: Option<Vec<f32>>,
}

impl Document {
    pub fn new(id: impl Into<DocId>) -> Document {
        Document {
            id: id.into(),
            properties: Value::object(),
            content: DocContent::None,
            elements: Vec::new(),
            lineage: Vec::new(),
            embedding: None,
        }
    }

    /// Convenience: a document holding only raw text content.
    pub fn from_text(id: impl Into<DocId>, text: impl Into<String>) -> Document {
        let mut d = Document::new(id);
        d.content = DocContent::Text(text.into());
        d
    }

    /// Gets a property by dotted path.
    pub fn prop(&self, path: &str) -> Option<&Value> {
        self.properties.get_path(path)
    }

    /// Sets a property by dotted path.
    pub fn set_prop(&mut self, path: &str, value: impl Into<Value>) {
        self.properties.set_path(path, value.into());
    }

    /// The document rendered as plain text: raw text content if present,
    /// otherwise all elements' content in reading order.
    pub fn full_text(&self) -> String {
        let mut out = String::new();
        for e in &self.elements {
            e.push_line(&mut out);
        }
        match &self.content {
            DocContent::Text(t) if out.is_empty() => t.clone(),
            _ => out,
        }
    }

    /// [`Document::full_text`] without a new string where none is needed:
    /// raw text is borrowed, rendered elements land in `buf` (cleared
    /// first), so one buffer serves a whole run of documents.
    pub fn full_text_in<'a>(&'a self, buf: &'a mut String) -> &'a str {
        buf.clear();
        for e in &self.elements {
            e.push_line(buf);
        }
        match &self.content {
            DocContent::Text(t) if buf.is_empty() => t,
            _ => buf,
        }
    }

    /// Elements of a given type.
    pub fn elements_of(&self, etype: ElementType) -> impl Iterator<Item = &Element> {
        self.elements.iter().filter(move |e| e.etype == etype)
    }

    /// First table in the document, if any.
    pub fn first_table(&self) -> Option<&Table> {
        self.elements.iter().find_map(|e| e.table.as_ref())
    }

    /// Drops elements below a detector-confidence threshold, returning how
    /// many were removed. The partitioner attaches per-element confidences;
    /// pipelines that prefer precision over recall prune on them.
    pub fn retain_confident(&mut self, min_confidence: f32) -> usize {
        let before = self.elements.len();
        self.elements.retain(|e| e.confidence >= min_confidence);
        before - self.elements.len()
    }

    /// Builds the section-hierarchy view.
    pub fn tree(&self) -> DocTree<'_> {
        DocTree::build(self)
    }
}

/// A node in the section-hierarchy view of a document: a title or section
/// header plus the run of elements (and subsections) beneath it.
#[derive(Debug)]
pub struct DocNode<'a> {
    /// The heading element index, or `None` for the synthetic root/preamble.
    pub heading: Option<usize>,
    /// Indexes of the non-heading elements directly in this section.
    pub body: Vec<usize>,
    pub children: Vec<DocNode<'a>>,
    pub doc: &'a Document,
}

impl<'a> DocNode<'a> {
    /// Heading text ("" for the root).
    pub fn heading_text(&self) -> &str {
        self.heading.map_or("", |i| self.doc.elements[i].text.as_str())
    }
}

/// Section hierarchy of a document: `Title` nodes at depth 1,
/// `SectionHeader` nodes at depth 2, everything else as body.
#[derive(Debug)]
pub struct DocTree<'a> {
    pub root: DocNode<'a>,
}

impl<'a> DocTree<'a> {
    fn build(doc: &'a Document) -> DocTree<'a> {
        fn level(e: &Element) -> Option<u8> {
            match e.etype {
                ElementType::Title => Some(1),
                ElementType::SectionHeader => Some(2),
                _ => None,
            }
        }
        let mut root = DocNode {
            heading: None,
            body: Vec::new(),
            children: Vec::new(),
            doc,
        };
        // Stack of (level, path of child indexes into the tree).
        let mut stack: Vec<(u8, Vec<usize>)> = Vec::new();
        for (i, e) in doc.elements.iter().enumerate() {
            if let Some(lv) = level(e) {
                while let Some((top, _)) = stack.last() {
                    if *top >= lv {
                        stack.pop();
                    } else {
                        break;
                    }
                }
                let parent = node_at_mut(&mut root, stack.last().map(|(_, p)| p.as_slice()).unwrap_or(&[]));
                parent.children.push(DocNode {
                    heading: Some(i),
                    body: Vec::new(),
                    children: Vec::new(),
                    doc,
                });
                let mut path = stack.last().map(|(_, p)| p.clone()).unwrap_or_default();
                path.push(parent.children.len() - 1);
                stack.push((lv, path));
            } else {
                let parent = node_at_mut(&mut root, stack.last().map(|(_, p)| p.as_slice()).unwrap_or(&[]));
                parent.body.push(i);
            }
        }
        DocTree { root }
    }

    /// Depth-first iterator over all section nodes (excluding the root).
    pub fn sections(&self) -> Vec<&DocNode<'a>> {
        let mut out = Vec::new();
        fn walk<'b, 'a>(n: &'b DocNode<'a>, out: &mut Vec<&'b DocNode<'a>>) {
            for c in &n.children {
                out.push(c);
                walk(c, out);
            }
        }
        walk(&self.root, &mut out);
        out
    }
}

fn node_at_mut<'b, 'a>(root: &'b mut DocNode<'a>, path: &[usize]) -> &'b mut DocNode<'a> {
    let mut cur = root;
    for &i in path {
        cur = &mut cur.children[i];
    }
    cur
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obj;

    fn doc_with_sections() -> Document {
        let mut d = Document::new("t1");
        d.elements = vec![
            Element::text(ElementType::PageHeader, "NTSB Report"),
            Element::text(ElementType::Title, "Aviation Accident Final Report"),
            Element::text(ElementType::Text, "preamble paragraph"),
            Element::text(ElementType::SectionHeader, "Analysis"),
            Element::text(ElementType::Text, "The pilot reported a loss of power."),
            Element::text(ElementType::SectionHeader, "Findings"),
            Element::text(ElementType::ListItem, "fuel contamination"),
        ];
        d
    }

    #[test]
    fn element_type_names_roundtrip() {
        for t in ElementType::ALL {
            assert_eq!(ElementType::from_name(t.name()), Some(t));
        }
        assert_eq!(ElementType::from_name("section-header"), Some(ElementType::SectionHeader));
        assert_eq!(ElementType::from_name("nope"), None);
    }

    #[test]
    fn properties_roundtrip() {
        let mut d = Document::new("x");
        d.set_prop("entity.state", "AK");
        assert_eq!(d.prop("entity.state").unwrap().as_str(), Some("AK"));
        assert!(d.prop("entity.missing").is_none());
    }

    #[test]
    fn full_text_prefers_elements_once_partitioned() {
        let mut d = Document::from_text("x", "raw bytes stand-in");
        assert_eq!(d.full_text(), "raw bytes stand-in");
        d.elements.push(Element::text(ElementType::Text, "partitioned text"));
        assert!(d.full_text().contains("partitioned text"));
        assert!(!d.full_text().contains("raw bytes"));
        // The borrowing form renders the same text, whatever the buffer held.
        let mut buf = String::from("stale");
        assert_eq!(d.full_text_in(&mut buf), d.full_text());
        d.elements = vec![Element::text(ElementType::Picture, "")];
        assert_eq!(d.full_text_in(&mut buf), "raw bytes stand-in");
        assert_eq!(d.full_text(), "raw bytes stand-in");
    }

    #[test]
    fn content_text_includes_table_and_image() {
        let mut e = Element::text(ElementType::Table, "");
        let mut t = Table::from_grid(&[vec!["a".into(), "b".into()]], false);
        t.caption = Some("Table 1".into());
        e.table = Some(t);
        assert!(e.content_text().contains("Table 1"));
        assert!(e.content_text().contains("a | b"));

        let mut img = Element::text(ElementType::Picture, "Figure 1");
        img.image = Some(ImageInfo {
            format: "png".into(),
            width_px: 100,
            height_px: 80,
            summary: Some("wreckage photo".into()),
            ocr_text: None,
        });
        assert!(img.content_text().contains("wreckage photo"));
    }

    #[test]
    fn tree_builds_title_and_sections() {
        let d = doc_with_sections();
        let tree = d.tree();
        // PageHeader lands in root body (before the title).
        assert_eq!(tree.root.body, vec![0]);
        assert_eq!(tree.root.children.len(), 1);
        let title = &tree.root.children[0];
        assert_eq!(title.heading_text(), "Aviation Accident Final Report");
        assert_eq!(title.body, vec![2]);
        assert_eq!(title.children.len(), 2);
        assert_eq!(title.children[0].heading_text(), "Analysis");
        assert_eq!(title.children[0].body, vec![4]);
        assert_eq!(title.children[1].heading_text(), "Findings");
    }

    #[test]
    fn tree_sibling_sections_do_not_nest() {
        let d = doc_with_sections();
        let tree = d.tree();
        let sections = tree.sections();
        assert_eq!(sections.len(), 3); // Title + 2 section headers
        let analysis = sections.iter().find(|s| s.heading_text() == "Analysis").unwrap();
        assert!(analysis.children.is_empty());
    }

    #[test]
    fn elements_of_filters_by_type() {
        let d = doc_with_sections();
        assert_eq!(d.elements_of(ElementType::SectionHeader).count(), 2);
        assert_eq!(d.elements_of(ElementType::Table).count(), 0);
    }

    #[test]
    fn obj_properties_on_element() {
        let mut e = Element::text(ElementType::Text, "x");
        e.properties = obj! { "lang" => "en" };
        assert_eq!(e.properties.get("lang").unwrap().as_str(), Some("en"));
    }
}
