//! The page-layout engine: the stand-in for PDF rendering.
//!
//! Content blocks flow onto US-Letter pages producing a [`RawDocument`] — the
//! "raw PDF" the rest of the system consumes: positioned text fragments
//! (like PDF content-stream runs), ruling lines for tables, and image
//! rasters. Alongside, the engine emits [`GroundTruth`]: the labeled region
//! boxes a DocLayNet annotator would draw, used *only* for evaluation.
//!
//! Tables that do not fit the remaining page space split across pages — by
//! design, since the cross-page-table failure mode is one of the paper's
//! motivating examples (§2).

use aryn_core::{BBox, ElementType, Table};

/// Page geometry (US Letter, points).
pub const PAGE_W: f32 = 612.0;
pub const PAGE_H: f32 = 792.0;
pub const MARGIN: f32 = 54.0;

/// Approximate glyph width as a fraction of font size.
const CHAR_W: f32 = 0.52;
/// Line height as a multiple of font size.
const LINE_H: f32 = 1.35;

/// A positioned text run (one rendered line or table cell).
#[derive(Debug, Clone, PartialEq)]
pub struct Fragment {
    pub text: String,
    pub bbox: BBox,
    pub font_size: f32,
    pub bold: bool,
    pub page: usize,
}

/// A ruling line (table borders).
#[derive(Debug, Clone, PartialEq)]
pub struct Rule {
    pub x0: f32,
    pub y0: f32,
    pub x1: f32,
    pub y1: f32,
    pub page: usize,
}

/// A rendered image region. `description` is what the pixels depict — the
/// input to the simulated multimodal summarizer / OCR, standing in for the
/// raster itself.
#[derive(Debug, Clone, PartialEq)]
pub struct RawImage {
    pub bbox: BBox,
    pub page: usize,
    pub description: String,
    /// Text "printed inside" the image, for the OCR path (empty if none).
    pub embedded_text: String,
}

/// The rendered document: what a PDF parser would recover.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RawDocument {
    pub fragments: Vec<Fragment>,
    pub rules: Vec<Rule>,
    pub images: Vec<RawImage>,
    pub pages: usize,
}

impl RawDocument {
    /// Fragments on one page, in reading order (sorted by y, then x).
    fn page_fragments(&self, page: usize) -> Vec<&Fragment> {
        let mut v: Vec<&Fragment> = self.fragments.iter().filter(|f| f.page == page).collect();
        v.sort_by(|a, b| {
            a.bbox
                .y0
                .partial_cmp(&b.bbox.y0)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.bbox.x0.partial_cmp(&b.bbox.x0).unwrap_or(std::cmp::Ordering::Equal))
        });
        v
    }

    /// All text, in layout order.
    pub fn full_text(&self) -> String {
        let mut out = String::new();
        for p in 0..self.pages {
            for f in self.page_fragments(p) {
                out.push_str(&f.text);
                out.push('\n');
            }
        }
        out
    }
}

/// One labeled ground-truth region.
#[derive(Debug, Clone, PartialEq)]
pub struct GtBox {
    pub etype: ElementType,
    pub bbox: BBox,
    pub page: usize,
    /// The text content of the region (joined fragments).
    pub text: String,
    /// For Table regions: the structured truth, including whether this is a
    /// continuation segment of a table started on an earlier page.
    pub table: Option<Table>,
    pub continuation: bool,
}

/// Ground truth for a rendered document.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GroundTruth {
    pub boxes: Vec<GtBox>,
}

impl GroundTruth {
    pub fn boxes_on(&self, page: usize) -> impl Iterator<Item = &GtBox> {
        self.boxes.iter().filter(move |b| b.page == page)
    }
}

/// A logical content block to be laid out.
#[derive(Debug, Clone)]
pub enum Block {
    /// A paragraph-like run of text with an element label.
    Para {
        etype: ElementType,
        text: String,
        font_size: f32,
        bold: bool,
        /// Extra space above, in points.
        space_before: f32,
    },
    /// A structured table (optionally captioned separately).
    TableBlock { table: Table },
    /// An image with a natural size.
    ImageBlock {
        description: String,
        embedded_text: String,
        width: f32,
        height: f32,
    },
}

impl Block {
    pub fn title(text: impl Into<String>) -> Block {
        Block::Para {
            etype: ElementType::Title,
            text: text.into(),
            font_size: 17.0,
            bold: true,
            space_before: 10.0,
        }
    }

    pub fn section(text: impl Into<String>) -> Block {
        Block::Para {
            etype: ElementType::SectionHeader,
            text: text.into(),
            font_size: 13.0,
            bold: true,
            space_before: 14.0,
        }
    }

    pub fn text(text: impl Into<String>) -> Block {
        Block::Para {
            etype: ElementType::Text,
            text: text.into(),
            font_size: 10.0,
            bold: false,
            space_before: 6.0,
        }
    }

    pub fn list_item(text: impl Into<String>) -> Block {
        Block::Para {
            etype: ElementType::ListItem,
            text: format!("\u{2022} {}", text.into()),
            font_size: 10.0,
            bold: false,
            space_before: 3.0,
        }
    }

    pub fn caption(text: impl Into<String>) -> Block {
        Block::Para {
            etype: ElementType::Caption,
            text: text.into(),
            font_size: 9.0,
            bold: false,
            space_before: 4.0,
        }
    }

    pub fn footnote(text: impl Into<String>) -> Block {
        Block::Para {
            etype: ElementType::Footnote,
            text: text.into(),
            font_size: 7.5,
            bold: false,
            space_before: 4.0,
        }
    }
}

/// Wraps text to lines that fit `width` at `font_size`.
fn wrap(text: &str, font_size: f32, width: f32) -> Vec<String> {
    let max_chars = ((width / (font_size * CHAR_W)) as usize).max(8);
    let mut lines = Vec::new();
    let mut cur = String::new();
    for word in text.split_whitespace() {
        if !cur.is_empty() && cur.chars().count() + 1 + word.chars().count() > max_chars {
            lines.push(std::mem::take(&mut cur));
        }
        if !cur.is_empty() {
            cur.push(' ');
        }
        cur.push_str(word);
    }
    if !cur.is_empty() {
        lines.push(cur);
    }
    lines
}

/// Lays out blocks into a rendered document plus ground truth.
///
/// `header`/`footer` render on every page (Page-header / Page-footer ground
/// truth boxes); `{page}` in the footer is replaced by the page number.
#[derive(Default)]
pub struct LayoutEngine {
    pub header: Option<String>,
    pub footer: Option<String>,
}


struct Cursor {
    page: usize,
    y: f32,
}

impl LayoutEngine {
    pub fn layout(&self, blocks: &[Block]) -> (RawDocument, GroundTruth) {
        let mut doc = RawDocument::default();
        let mut gt = GroundTruth::default();
        let mut cur = Cursor { page: 0, y: MARGIN + 24.0 };
        self.stamp_chrome(&mut doc, &mut gt, 0);
        let body_w = PAGE_W - 2.0 * MARGIN;
        let bottom = PAGE_H - MARGIN - 20.0;

        for block in blocks {
            match block {
                Block::Para {
                    etype,
                    text,
                    font_size,
                    bold,
                    space_before,
                } => {
                    let lines = wrap(text, *font_size, body_w);
                    let line_h = font_size * LINE_H;
                    let need = lines.len() as f32 * line_h + space_before;
                    if cur.y + need > bottom && cur.y > MARGIN + 30.0 {
                        self.new_page(&mut doc, &mut gt, &mut cur);
                    }
                    cur.y += space_before;
                    let y_start = cur.y;
                    let mut frag_boxes = Vec::new();
                    for line in &lines {
                        let w = line.chars().count() as f32 * font_size * CHAR_W;
                        let b = BBox::new(MARGIN, cur.y, MARGIN + w.min(body_w), cur.y + font_size * 1.1);
                        doc.fragments.push(Fragment {
                            text: line.clone(),
                            bbox: b,
                            font_size: *font_size,
                            bold: *bold,
                            page: cur.page,
                        });
                        frag_boxes.push(b);
                        cur.y += line_h;
                    }
                    if let Some(region) = BBox::enclosing(frag_boxes) {
                        gt.boxes.push(GtBox {
                            etype: *etype,
                            bbox: region,
                            page: cur.page,
                            text: lines.join(" "),
                            table: None,
                            continuation: false,
                        });
                    }
                    let _ = y_start;
                }
                Block::TableBlock { table } => {
                    self.layout_table(table, &mut doc, &mut gt, &mut cur, bottom);
                }
                Block::ImageBlock {
                    description,
                    embedded_text,
                    width,
                    height,
                } => {
                    if cur.y + height + 8.0 > bottom {
                        self.new_page(&mut doc, &mut gt, &mut cur);
                    }
                    cur.y += 8.0;
                    let b = BBox::new(MARGIN, cur.y, MARGIN + width.min(body_w), cur.y + height);
                    doc.images.push(RawImage {
                        bbox: b,
                        page: cur.page,
                        description: description.clone(),
                        embedded_text: embedded_text.clone(),
                    });
                    gt.boxes.push(GtBox {
                        etype: ElementType::Picture,
                        bbox: b,
                        page: cur.page,
                        text: String::new(),
                        table: None,
                        continuation: false,
                    });
                    cur.y += height + 6.0;
                }
            }
        }
        doc.pages = cur.page + 1;
        (doc, gt)
    }

    /// Renders a table row by row, splitting across pages when needed. Each
    /// page segment gets its own ground-truth Table box; continuation
    /// segments are marked and (faithfully to the failure mode) do not
    /// repeat the header.
    fn layout_table(
        &self,
        table: &Table,
        doc: &mut RawDocument,
        gt: &mut GroundTruth,
        cur: &mut Cursor,
        bottom: f32,
    ) {
        let font_size = 9.0f32;
        let row_h = 16.0f32;
        let body_w = PAGE_W - 2.0 * MARGIN;
        let col_w = body_w / table.cols.max(1) as f32;
        cur.y += 8.0;
        // Ensure at least the header plus one row fits before starting.
        if cur.y + 2.0 * row_h > bottom {
            self.new_page(doc, gt, cur);
        }
        let mut seg_rows: Vec<Vec<String>> = Vec::new();
        let mut seg_top = cur.y;
        let mut seg_first_row = 0usize;
        let mut r = 0usize;
        while r < table.rows {
            if cur.y + row_h > bottom {
                // Close the current segment.
                self.emit_table_segment(
                    table,
                    &seg_rows,
                    seg_first_row,
                    seg_top,
                    cur,
                    col_w,
                    gt,
                );
                seg_rows.clear();
                self.new_page(doc, gt, cur);
                seg_top = cur.y;
                seg_first_row = r;
            }
            let mut row_texts = Vec::with_capacity(table.cols);
            for c in 0..table.cols {
                let text = table.text_at(r, c).to_string();
                let x0 = MARGIN + c as f32 * col_w;
                let b = BBox::new(x0 + 3.0, cur.y + 3.0, x0 + 3.0 + (text.chars().count() as f32 * font_size * CHAR_W).min(col_w - 6.0).max(4.0), cur.y + 3.0 + font_size * 1.1);
                if !text.is_empty() {
                    doc.fragments.push(Fragment {
                        text: text.clone(),
                        bbox: b,
                        font_size,
                        bold: r < table.header_rows,
                        page: cur.page,
                    });
                }
                row_texts.push(text);
            }
            // Horizontal rule under the row.
            doc.rules.push(Rule {
                x0: MARGIN,
                y0: cur.y + row_h,
                x1: MARGIN + body_w,
                y1: cur.y + row_h,
                page: cur.page,
            });
            seg_rows.push(row_texts);
            cur.y += row_h;
            r += 1;
        }
        self.emit_table_segment(table, &seg_rows, seg_first_row, seg_top, cur, col_w, gt);
        // Vertical rules for the final segment's columns are approximated by
        // one outer border per page segment (enough for structure recovery,
        // which keys off alignment).
        cur.y += 6.0;
    }

    #[allow(clippy::too_many_arguments)]
    fn emit_table_segment(
        &self,
        table: &Table,
        seg_rows: &[Vec<String>],
        seg_first_row: usize,
        seg_top: f32,
        cur: &Cursor,
        col_w: f32,
        gt: &mut GroundTruth,
    ) {
        if seg_rows.is_empty() {
            return;
        }
        let continuation = seg_first_row > 0;
        // Structured truth for this segment: header rows only when the
        // segment includes them.
        let header = !continuation && table.header_rows > 0;
        let mut seg_table = Table::from_grid(seg_rows, header);
        seg_table.caption = table.caption.clone();
        let region = BBox::new(
            MARGIN,
            seg_top,
            MARGIN + col_w * table.cols as f32,
            cur.y + 2.0,
        );
        gt.boxes.push(GtBox {
            etype: ElementType::Table,
            bbox: region,
            page: cur.page,
            text: seg_rows
                .iter()
                .map(|r| r.join(" | "))
                .collect::<Vec<_>>()
                .join("\n"),
            table: Some(seg_table),
            continuation,
        });
    }

    fn new_page(&self, doc: &mut RawDocument, gt: &mut GroundTruth, cur: &mut Cursor) {
        cur.page += 1;
        cur.y = MARGIN + 24.0;
        self.stamp_chrome(doc, gt, cur.page);
    }

    /// Page header and footer fragments + ground truth.
    fn stamp_chrome(&self, doc: &mut RawDocument, gt: &mut GroundTruth, page: usize) {
        if let Some(h) = &self.header {
            let b = BBox::new(MARGIN, MARGIN - 30.0, MARGIN + h.chars().count() as f32 * 8.0 * CHAR_W, MARGIN - 20.0);
            doc.fragments.push(Fragment {
                text: h.clone(),
                bbox: b,
                font_size: 8.0,
                bold: false,
                page,
            });
            gt.boxes.push(GtBox {
                etype: ElementType::PageHeader,
                bbox: b,
                page,
                text: h.clone(),
                table: None,
                continuation: false,
            });
        }
        if let Some(f) = &self.footer {
            let text = f.replace("{page}", &(page + 1).to_string());
            let b = BBox::new(
                MARGIN,
                PAGE_H - MARGIN + 8.0,
                MARGIN + text.chars().count() as f32 * 8.0 * CHAR_W,
                PAGE_H - MARGIN + 18.0,
            );
            doc.fragments.push(Fragment {
                text: text.clone(),
                bbox: b,
                font_size: 8.0,
                bold: false,
                page,
            });
            gt.boxes.push(GtBox {
                etype: ElementType::PageFooter,
                bbox: b,
                page,
                text,
                table: None,
                continuation: false,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine() -> LayoutEngine {
        LayoutEngine {
            header: Some("National Transportation Safety Board".into()),
            footer: Some("Page {page}".into()),
        }
    }

    #[test]
    fn simple_flow_produces_fragments_and_gt() {
        let blocks = vec![
            Block::title("Aviation Accident Final Report"),
            Block::section("Analysis"),
            Block::text("The pilot reported that the airplane lost power. ".repeat(4)),
        ];
        let (doc, gt) = engine().layout(&blocks);
        assert_eq!(doc.pages, 1);
        assert!(doc.fragments.len() >= 5); // header, footer, title, section, ≥1 text line
        // Ground truth: one box per block plus chrome.
        let types: Vec<ElementType> = gt.boxes.iter().map(|b| b.etype).collect();
        assert!(types.contains(&ElementType::Title));
        assert!(types.contains(&ElementType::SectionHeader));
        assert!(types.contains(&ElementType::Text));
        assert!(types.contains(&ElementType::PageHeader));
        assert!(types.contains(&ElementType::PageFooter));
    }

    #[test]
    fn wrapping_respects_width() {
        let long = "word ".repeat(60);
        let lines = wrap(&long, 10.0, PAGE_W - 2.0 * MARGIN);
        assert!(lines.len() > 1);
        for l in &lines {
            assert!(l.chars().count() as f32 * 10.0 * CHAR_W <= PAGE_W - 2.0 * MARGIN + 10.0 * CHAR_W * 5.0);
        }
    }

    #[test]
    fn long_content_paginates() {
        let blocks: Vec<Block> = (0..40)
            .map(|i| Block::text(format!("Paragraph {i}. ") + &"Filler sentence here. ".repeat(6)))
            .collect();
        let (doc, gt) = engine().layout(&blocks);
        assert!(doc.pages >= 2, "{} pages", doc.pages);
        // Chrome on every page.
        for p in 0..doc.pages {
            assert!(gt.boxes_on(p).any(|b| b.etype == ElementType::PageHeader));
            assert!(gt.boxes_on(p).any(|b| b.etype == ElementType::PageFooter));
        }
        // Footer text carries the right page number.
        let footer_p2 = gt
            .boxes
            .iter()
            .find(|b| b.etype == ElementType::PageFooter && b.page == 1)
            .unwrap();
        assert_eq!(footer_p2.text, "Page 2");
    }

    #[test]
    fn all_fragments_within_page_bounds() {
        let blocks: Vec<Block> = (0..30).map(|i| Block::text(format!("Block {i} content. ").repeat(8))).collect();
        let (doc, _) = engine().layout(&blocks);
        for f in &doc.fragments {
            assert!(f.bbox.x0 >= 0.0 && f.bbox.x1 <= PAGE_W, "{f:?}");
            assert!(f.bbox.y0 >= 0.0 && f.bbox.y1 <= PAGE_H, "{f:?}");
        }
    }

    #[test]
    fn big_table_splits_across_pages_without_repeating_header() {
        // Push the cursor near the bottom, then lay a tall table.
        let mut blocks = vec![Block::text("Intro paragraph. ".repeat(12))];
        let grid: Vec<Vec<String>> = std::iter::once(vec!["Name".to_string(), "Count".to_string()])
            .chain((0..60).map(|i| vec![format!("row{i}"), i.to_string()]))
            .collect();
        blocks.push(Block::TableBlock {
            table: Table::from_grid(&grid, true),
        });
        let (doc, gt) = engine().layout(&blocks);
        assert!(doc.pages >= 2);
        let segments: Vec<&GtBox> = gt.boxes.iter().filter(|b| b.etype == ElementType::Table).collect();
        assert!(segments.len() >= 2, "table should split: {}", segments.len());
        assert!(!segments[0].continuation);
        assert!(segments[1].continuation);
        // First segment carries the header; continuation does not.
        assert_eq!(segments[0].table.as_ref().unwrap().header_rows, 1);
        assert_eq!(segments[1].table.as_ref().unwrap().header_rows, 0);
        // Merging segments reconstructs all 60 body rows.
        let mut merged = segments[0].table.clone().unwrap();
        for s in &segments[1..] {
            merged.merge_below(s.table.as_ref().unwrap());
        }
        assert_eq!(merged.rows, 61);
    }

    #[test]
    fn images_flow_and_are_labeled() {
        let blocks = vec![
            Block::text("before"),
            Block::ImageBlock {
                description: "Photograph of wreckage".into(),
                embedded_text: String::new(),
                width: 300.0,
                height: 200.0,
            },
            Block::caption("Figure 1: wreckage"),
        ];
        let (doc, gt) = engine().layout(&blocks);
        assert_eq!(doc.images.len(), 1);
        assert!(gt.boxes.iter().any(|b| b.etype == ElementType::Picture));
        assert!(gt.boxes.iter().any(|b| b.etype == ElementType::Caption));
    }

    #[test]
    fn reading_order_is_top_down() {
        let blocks = vec![Block::title("T"), Block::text("first"), Block::text("second")];
        let (doc, _) = engine().layout(&blocks);
        let frags = doc.page_fragments(0);
        let t_idx = frags.iter().position(|f| f.text == "T").unwrap();
        let f_idx = frags.iter().position(|f| f.text == "first").unwrap();
        let s_idx = frags.iter().position(|f| f.text == "second").unwrap();
        assert!(t_idx < f_idx && f_idx < s_idx);
    }
}
