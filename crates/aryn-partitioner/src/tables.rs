//! Table structure recognition — the Table-Transformer stand-in.
//!
//! Given a detected table region and the text fragments inside it, recovers
//! the cell grid the way the paper describes its pipeline: "we use the Table
//! Transformer model to identify the bounding box of each cell in the table,
//! and then intersect those bounding boxes with the text extracted from the
//! PDF" (§4). Rows come from y-clustering, columns from x-alignment across
//! rows; the header is detected from bold styling. Cross-page continuations
//! are merged with header propagation (the paper's §2 failure example).

use aryn_core::{BBox, Document, ElementType, Table};
use aryn_docgen::layout::{Fragment, RawDocument};

/// Recovers a structured table from the fragments inside a table region.
fn recover_table(region_bbox: &BBox, frags: &[&Fragment]) -> Option<Table> {
    if frags.is_empty() {
        return None;
    }
    // 1. Row clustering by y-center.
    let mut by_y: Vec<&&Fragment> = frags.iter().collect();
    by_y.sort_by(|a, b| a.bbox.y0.partial_cmp(&b.bbox.y0).unwrap_or(std::cmp::Ordering::Equal));
    let mut rows: Vec<Vec<&Fragment>> = Vec::new();
    for f in by_y {
        let fy = f.bbox.center().1;
        match rows.last_mut() {
            Some(row) if (fy - row[0].bbox.center().1).abs() < f.bbox.height() * 0.8 => {
                row.push(f);
            }
            _ => rows.push(vec![f]),
        }
    }
    // 2. Column boundaries from left-edge alignment across all rows.
    let mut lefts: Vec<f32> = frags.iter().map(|f| f.bbox.x0).collect();
    lefts.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let mut col_edges: Vec<f32> = Vec::new();
    for x in lefts {
        if col_edges.last().is_none_or(|l| (x - l).abs() > 12.0) {
            col_edges.push(x);
        }
    }
    let cols = col_edges.len().max(1);
    // 3. Place each fragment into its (row, col) cell.
    let n_rows = rows.len();
    let mut grid: Vec<Vec<String>> = vec![vec![String::new(); cols]; n_rows];
    let mut bold_rows: Vec<bool> = vec![true; n_rows];
    let mut cell_boxes: Vec<Vec<Option<BBox>>> = vec![vec![None; cols]; n_rows];
    for (ri, row) in rows.iter().enumerate() {
        let mut any = false;
        for f in row {
            let ci = col_edges
                .iter()
                .rposition(|e| f.bbox.x0 >= e - 6.0)
                .unwrap_or(0);
            if !grid[ri][ci].is_empty() {
                grid[ri][ci].push(' ');
            }
            grid[ri][ci].push_str(&f.text);
            cell_boxes[ri][ci] = Some(match cell_boxes[ri][ci] {
                Some(b) => b.union(&f.bbox),
                None => f.bbox,
            });
            bold_rows[ri] &= f.bold;
            any = true;
        }
        if !any {
            bold_rows[ri] = false;
        }
    }
    // 4. Header: a leading run of all-bold rows.
    let header_rows = bold_rows.iter().take_while(|b| **b).count().min(n_rows.saturating_sub(1));
    let mut table = Table::from_grid(&grid, false);
    table.header_rows = header_rows;
    // Mark header cells + attach recovered boxes.
    let cols = table.cols;
    for (ri, row_boxes) in cell_boxes.iter().enumerate() {
        for (ci, b) in row_boxes.iter().enumerate() {
            if let Some(cell) = table.cells.get_mut(ri * cols + ci) {
                cell.bbox = *b;
                cell.is_header = ri < header_rows;
            }
        }
    }
    let _ = region_bbox;
    Some(table)
}

/// Recovers tables for every Table element in a partitioned document, using
/// the raw fragments. Elements gain their `table` payload in place.
pub fn attach_tables(doc: &mut Document, raw: &RawDocument) {
    for e in doc.elements.iter_mut().filter(|e| e.etype == ElementType::Table) {
        let Some(bbox) = e.bbox else { continue };
        let frags: Vec<&Fragment> = raw
            .fragments
            .iter()
            .filter(|f| f.page == e.page && bbox.inflate(4.0).coverage_by(&f.bbox) > 0.0 && bbox.inflate(4.0).contains(&f.bbox))
            .collect();
        e.table = recover_table(&bbox, &frags);
        if let Some(t) = &e.table {
            e.text = t.to_text();
        }
    }
}

/// Merges cross-page table continuations: a Table element that starts a page
/// (no header row detected) and directly follows a Table element ending the
/// previous page with a compatible column count is folded into it, keeping
/// the first segment's header — fixing the split-table failure the paper
/// describes in §2.
pub fn merge_cross_page_tables(doc: &mut Document) {
    // Page chrome sits between a table's page segments in reading order;
    // a continuation may follow the chrome, not the table directly.
    fn is_chrome(e: &aryn_core::Element) -> bool {
        matches!(e.etype, ElementType::PageFooter | ElementType::PageHeader)
    }
    let mut i = 0;
    while i < doc.elements.len() {
        if doc.elements[i].etype != ElementType::Table || doc.elements[i].table.is_none() {
            i += 1;
            continue;
        }
        // A table split over N pages merges N-1 continuations; track the
        // page of the most recently absorbed segment.
        let mut last_page = doc.elements[i].page;
        loop {
            // Find the next non-chrome element; a continuation is a
            // headerless table on the following page with a compatible
            // column count.
            let mut j = i + 1;
            while j < doc.elements.len() && is_chrome(&doc.elements[j]) {
                j += 1;
            }
            let can_merge = j < doc.elements.len() && {
                let prev = &doc.elements[i];
                let cur = &doc.elements[j];
                cur.etype == ElementType::Table
                    && cur.page == last_page + 1
                    && match (&prev.table, &cur.table) {
                        (Some(a), Some(b)) => {
                            b.header_rows == 0 && (a.cols as i64 - b.cols as i64).abs() <= 1
                        }
                        _ => false,
                    }
            };
            if !can_merge {
                break;
            }
            let cur = doc.elements.remove(j);
            last_page = cur.page;
            let prev = &mut doc.elements[i];
            if let (Some(a), Some(b)) = (prev.table.as_mut(), cur.table.as_ref()) {
                a.merge_below(b);
            }
            if let Some(t) = &prev.table {
                prev.text = t.to_text();
            }
        }
        i += 1;
    }
}

/// Cell-level F1 against a ground-truth table: a predicted cell is correct
/// if the same (row, col) holds the same trimmed text.
pub fn cell_f1(predicted: &Table, truth: &Table) -> f64 {
    let truth_cells: Vec<(usize, usize, &str)> = truth
        .cells
        .iter()
        .filter(|c| !c.text.trim().is_empty())
        .map(|c| (c.row, c.col, c.text.trim()))
        .collect();
    let pred_cells: Vec<(usize, usize, &str)> = predicted
        .cells
        .iter()
        .filter(|c| !c.text.trim().is_empty())
        .map(|c| (c.row, c.col, c.text.trim()))
        .collect();
    if truth_cells.is_empty() || pred_cells.is_empty() {
        return 0.0;
    }
    let tp = pred_cells.iter().filter(|p| truth_cells.contains(p)).count() as f64;
    let precision = tp / pred_cells.len() as f64;
    let recall = tp / truth_cells.len() as f64;
    if precision + recall == 0.0 {
        0.0
    } else {
        2.0 * precision * recall / (precision + recall)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aryn_core::{Element, ElementType};
    use aryn_docgen::{Corpus, NtsbRecord};

    /// Builds (region bbox, fragments) for each ground-truth table in a doc.
    fn gt_tables(d: &aryn_docgen::CorpusDoc) -> Vec<(BBox, Vec<&Fragment>, Table)> {
        d.ground_truth
            .boxes
            .iter()
            .filter(|b| b.etype == ElementType::Table)
            .map(|b| {
                let frags: Vec<&Fragment> = d
                    .raw
                    .fragments
                    .iter()
                    .filter(|f| f.page == b.page && b.bbox.inflate(4.0).contains(&f.bbox))
                    .collect();
                (b.bbox, frags, b.table.clone().unwrap())
            })
            .collect()
    }

    #[test]
    fn recovers_clean_tables_with_high_cell_f1() {
        let c = Corpus::ntsb(1, 8);
        let mut f1_sum = 0.0;
        let mut n = 0;
        for d in &c.docs {
            for (bbox, frags, truth) in gt_tables(d) {
                let rec = recover_table(&bbox, &frags).expect("table recovered");
                f1_sum += cell_f1(&rec, &truth);
                n += 1;
            }
        }
        let avg = f1_sum / n as f64;
        assert!(avg > 0.9, "avg cell F1 {avg:.3} over {n} tables");
    }

    #[test]
    fn header_detected_from_bold_row() {
        let c = Corpus::ntsb(2, 3);
        let d = &c.docs[0];
        let (bbox, frags, truth) = gt_tables(d).into_iter().next().unwrap();
        let rec = recover_table(&bbox, &frags).unwrap();
        assert_eq!(rec.header_rows, truth.header_rows);
    }

    #[test]
    fn empty_region_recovers_nothing() {
        assert!(recover_table(&BBox::new(0.0, 0.0, 10.0, 10.0), &[]).is_none());
    }

    #[test]
    fn cross_page_merge_restores_full_table() {
        // Find a record whose injuries table splits (rare in NTSB docs), or
        // construct one directly via the layout engine.
        let grid: Vec<Vec<String>> = std::iter::once(vec!["K".to_string(), "V".to_string()])
            .chain((0..60).map(|i| vec![format!("k{i}"), i.to_string()]))
            .collect();
        let blocks = vec![
            aryn_docgen::Block::text("intro ".repeat(40)),
            aryn_docgen::Block::TableBlock {
                table: Table::from_grid(&grid, true),
            },
        ];
        let engine = aryn_docgen::LayoutEngine::default();
        let (raw, gt) = engine.layout(&blocks);
        // Build a document from ground truth segments (as the gold pipeline
        // would), then merge.
        let entry = aryn_docgen::CorpusDoc {
            id: "t".into(),
            domain: aryn_docgen::Domain::Ntsb,
            raw: raw.clone(),
            ground_truth: gt,
            record: aryn_core::Value::object(),
        };
        let mut doc = aryn_docgen::gold_document(&entry);
        let before = doc.elements_of(ElementType::Table).count();
        assert!(before >= 2, "table should have split into {before} segments");
        merge_cross_page_tables(&mut doc);
        let after: Vec<&Element> = doc.elements_of(ElementType::Table).collect();
        assert_eq!(after.len(), 1);
        let merged = after[0].table.as_ref().unwrap();
        assert_eq!(merged.rows, 61);
        assert_eq!(merged.headers(), vec!["K", "V"]);
        assert_eq!(merged.column("V").len(), 60);
    }

    #[test]
    fn merge_requires_adjacent_pages_and_headerless_continuation() {
        let mut doc = Document::new("x");
        let mut t1 = Element::text(ElementType::Table, "");
        t1.page = 0;
        t1.table = Some(Table::from_grid(&[vec!["H".into()], vec!["a".into()]], true));
        let mut t2 = Element::text(ElementType::Table, "");
        t2.page = 2; // not adjacent
        t2.table = Some(Table::from_grid(&[vec!["b".into()]], false));
        doc.elements = vec![t1.clone(), t2.clone()];
        merge_cross_page_tables(&mut doc);
        assert_eq!(doc.elements.len(), 2, "non-adjacent pages must not merge");

        // A continuation *with* a header is a new table, not a continuation.
        let mut t3 = Element::text(ElementType::Table, "");
        t3.page = 1;
        t3.table = Some(Table::from_grid(&[vec!["H2".into()], vec!["c".into()]], true));
        doc.elements = vec![t1, t3];
        merge_cross_page_tables(&mut doc);
        assert_eq!(doc.elements.len(), 2, "headered tables must not merge");
    }

    #[test]
    fn attach_tables_populates_detected_regions() {
        let r = NtsbRecord::generate(4, 2);
        let (raw, _) = aryn_docgen::ntsb::render(&r);
        let regions = crate::segment::segment(&raw);
        let mut doc = Document::new("a");
        for reg in &regions {
            let mut e = Element::text(reg.etype, reg.text.clone());
            e.page = reg.page;
            e.bbox = Some(reg.bbox);
            doc.elements.push(e);
        }
        attach_tables(&mut doc, &raw);
        let t = doc.first_table().expect("table attached");
        assert!(t.rows >= 2 && t.cols >= 2);
    }

    #[test]
    fn cell_f1_bounds() {
        let t = Table::from_grid(&[vec!["a".into(), "b".into()]], false);
        assert!((cell_f1(&t, &t) - 1.0).abs() < 1e-9);
        let other = Table::from_grid(&[vec!["x".into(), "y".into()]], false);
        assert_eq!(cell_f1(&t, &other), 0.0);
        assert_eq!(cell_f1(&t, &Table::default()), 0.0);
    }
}
