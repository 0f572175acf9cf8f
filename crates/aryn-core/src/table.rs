//! Structured tables extracted from documents.
//!
//! The paper's `TableElement` "has properties containing rows and columns"
//! (§5.1) and can be converted "to formats like HTML, CSV, and Pandas
//! Dataframes" (§4). [`Table`] is that structure: a dense grid of cells with
//! optional header rows, plus conversion and typed column access.

use crate::bbox::BBox;
use crate::value::Value;

/// One table cell.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    pub row: usize,
    pub col: usize,
    /// Extracted text content (may be empty for blank cells).
    pub text: String,
    /// Where the cell sits on the page, when known.
    pub bbox: Option<BBox>,
    /// True for header cells.
    pub is_header: bool,
}

/// A structured table: `rows x cols` cells in row-major order.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Table {
    pub rows: usize,
    pub cols: usize,
    pub cells: Vec<Cell>,
    /// Number of leading header rows (0 if none detected).
    pub header_rows: usize,
    /// Optional caption text.
    pub caption: Option<String>,
}

impl Table {
    /// Builds a table from a grid of strings; the first row becomes the
    /// header when `header` is true.
    pub fn from_grid(grid: &[Vec<String>], header: bool) -> Table {
        let rows = grid.len();
        let cols = grid.iter().map(Vec::len).max().unwrap_or(0);
        let mut cells = Vec::with_capacity(rows * cols);
        for (r, row) in grid.iter().enumerate() {
            for c in 0..cols {
                cells.push(Cell {
                    row: r,
                    col: c,
                    text: row.get(c).cloned().unwrap_or_default(),
                    bbox: None,
                    is_header: header && r == 0,
                });
            }
        }
        Table {
            rows,
            cols,
            cells,
            header_rows: usize::from(header && rows > 0),
            caption: None,
        }
    }

    /// Cell at `(row, col)`, if in range.
    pub fn cell(&self, row: usize, col: usize) -> Option<&Cell> {
        if row < self.rows && col < self.cols {
            self.cells.get(row * self.cols + col)
        } else {
            None
        }
    }

    /// Cell text at `(row, col)`, empty string if out of range.
    pub fn text_at(&self, row: usize, col: usize) -> &str {
        self.cell(row, col).map_or("", |c| c.text.as_str())
    }

    /// Header labels (from the first header row), or column indexes as
    /// strings when the table has no header.
    pub fn headers(&self) -> Vec<String> {
        if self.header_rows > 0 {
            (0..self.cols).map(|c| self.text_at(0, c).to_string()).collect()
        } else {
            (0..self.cols).map(|c| c.to_string()).collect()
        }
    }

    /// Index of the column whose header contains `name` (case-insensitive).
    fn column_index(&self, name: &str) -> Option<usize> {
        let needle = name.to_lowercase();
        self.headers()
            .iter()
            .position(|h| h.to_lowercase().contains(&needle))
    }

    /// Body cells (below the header) of the named column as text.
    pub fn column(&self, name: &str) -> Vec<&str> {
        match self.column_index(name) {
            Some(c) => (self.header_rows..self.rows)
                .map(|r| self.text_at(r, c))
                .collect(),
            None => Vec::new(),
        }
    }

    /// Body rows as `(header -> value)` objects, the shape `extract_properties`
    /// and Luna's table operators consume.
    pub fn records(&self) -> Vec<Value> {
        let headers = self.headers();
        (self.header_rows..self.rows)
            .map(|r| {
                let mut obj = std::collections::BTreeMap::new();
                for (c, h) in headers.iter().enumerate() {
                    obj.insert(h.clone(), parse_cell(self.text_at(r, c)));
                }
                Value::Object(obj)
            })
            .collect()
    }

    /// CSV rendering (RFC-4180 quoting).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        for r in 0..self.rows {
            for c in 0..self.cols {
                if c > 0 {
                    out.push(',');
                }
                let t = self.text_at(r, c);
                if t.contains([',', '"', '\n']) {
                    out.push('"');
                    out.push_str(&t.replace('"', "\"\""));
                    out.push('"');
                } else {
                    out.push_str(t);
                }
            }
            out.push('\n');
        }
        out
    }

    /// HTML rendering with `<th>` header cells.
    pub fn to_html(&self) -> String {
        let mut out = String::from("<table>\n");
        for r in 0..self.rows {
            out.push_str("  <tr>");
            for c in 0..self.cols {
                let tag = if r < self.header_rows { "th" } else { "td" };
                let t = self
                    .text_at(r, c)
                    .replace('&', "&amp;")
                    .replace('<', "&lt;")
                    .replace('>', "&gt;");
                out.push_str(&format!("<{tag}>{t}</{tag}>"));
            }
            out.push_str("</tr>\n");
        }
        out.push_str("</table>");
        out
    }

    /// Flat text rendering used when a table is stuffed into an LLM prompt.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        self.push_text(&mut out);
        out
    }

    /// Appends [`Table::to_text`] to `out`, cell by cell.
    pub fn push_text(&self, out: &mut String) {
        for r in 0..self.rows {
            for c in 0..self.cols {
                if c > 0 {
                    out.push_str(" | ");
                }
                out.push_str(self.text_at(r, c));
            }
            out.push('\n');
        }
    }

    /// Appends another table's body below this one. Used for cross-page
    /// table merging: the continuation keeps this table's header (the paper's
    /// §2 example of a "table split across two pages ... where the table
    /// heading is only present on the first page").
    pub fn merge_below(&mut self, other: &Table) {
        let skip = other.header_rows;
        let cols = self.cols.max(other.cols);
        if cols != self.cols {
            // Re-grid self to the wider column count.
            let mut cells = Vec::with_capacity(self.rows * cols);
            for r in 0..self.rows {
                for c in 0..cols {
                    cells.push(self.cell(r, c).cloned().unwrap_or(Cell {
                        row: r,
                        col: c,
                        text: String::new(),
                        bbox: None,
                        is_header: r < self.header_rows,
                    }));
                }
            }
            self.cells = cells;
            self.cols = cols;
        }
        for r in skip..other.rows {
            for c in 0..cols {
                self.cells.push(Cell {
                    row: self.rows,
                    col: c,
                    text: other.text_at(r, c).to_string(),
                    bbox: other.cell(r, c).and_then(|x| x.bbox),
                    is_header: false,
                });
            }
            self.rows += 1;
        }
    }
}

/// Parses cell text into a typed value: int, float, bool, else string.
fn parse_cell(text: &str) -> Value {
    let t = text.trim();
    if t.is_empty() {
        return Value::Null;
    }
    if let Ok(i) = t.replace(',', "").parse::<i64>() {
        return Value::Int(i);
    }
    if let Ok(f) = t.replace(',', "").trim_end_matches('%').parse::<f64>() {
        return Value::Float(f);
    }
    match t.to_ascii_lowercase().as_str() {
        "true" | "yes" => Value::Bool(true),
        "false" | "no" => Value::Bool(false),
        _ => Value::Str(t.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        Table::from_grid(
            &[
                vec!["Injury Level".into(), "Crew".into(), "Passengers".into()],
                vec!["Fatal".into(), "0".into(), "0".into()],
                vec!["Serious".into(), "1".into(), "2".into()],
            ],
            true,
        )
    }

    #[test]
    fn grid_and_access() {
        let t = sample();
        assert_eq!((t.rows, t.cols, t.header_rows), (3, 3, 1));
        assert_eq!(t.text_at(1, 0), "Fatal");
        assert_eq!(t.text_at(9, 9), "");
        assert_eq!(t.headers(), vec!["Injury Level", "Crew", "Passengers"]);
    }

    #[test]
    fn column_lookup_is_fuzzy() {
        let t = sample();
        assert_eq!(t.column_index("crew"), Some(1));
        assert_eq!(t.column("passengers"), vec!["0", "2"]);
        assert!(t.column("altitude").is_empty());
    }

    #[test]
    fn records_are_typed() {
        let t = sample();
        let recs = t.records();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].get("Crew").unwrap().as_int(), Some(0));
        assert_eq!(recs[1].get("Injury Level").unwrap().as_str(), Some("Serious"));
    }

    #[test]
    fn csv_quotes_specials() {
        let t = Table::from_grid(&[vec!["a,b".into(), "c\"d".into()]], false);
        assert_eq!(t.to_csv(), "\"a,b\",\"c\"\"d\"\n");
    }

    #[test]
    fn html_marks_headers() {
        let html = sample().to_html();
        assert!(html.contains("<th>Injury Level</th>"));
        assert!(html.contains("<td>Serious</td>"));
    }

    #[test]
    fn merge_below_skips_duplicate_header_and_keeps_ours() {
        let mut first = sample();
        // Continuation page re-detected with no header (the paper's broken case
        // is treating it as a separate, headerless table).
        let cont = Table::from_grid(
            &[vec!["Minor".into(), "0".into(), "1".into()]],
            false,
        );
        first.merge_below(&cont);
        assert_eq!(first.rows, 4);
        assert_eq!(first.text_at(3, 0), "Minor");
        assert_eq!(first.headers()[0], "Injury Level");
        // And a continuation that *did* re-print its header gets it skipped.
        let mut a = sample();
        let b = sample();
        a.merge_below(&b);
        assert_eq!(a.rows, 5);
        assert_eq!(a.column("crew"), vec!["0", "1", "0", "1"]);
    }

    #[test]
    fn merge_below_widens_columns() {
        let mut a = Table::from_grid(&[vec!["x".into()]], false);
        let b = Table::from_grid(&[vec!["y".into(), "z".into()]], false);
        a.merge_below(&b);
        assert_eq!((a.rows, a.cols), (2, 2));
        assert_eq!(a.text_at(0, 1), "");
        assert_eq!(a.text_at(1, 1), "z");
    }

    #[test]
    fn cell_parsing_types() {
        assert_eq!(parse_cell("1,234"), Value::Int(1234));
        assert_eq!(parse_cell("3.5%"), Value::Float(3.5));
        assert_eq!(parse_cell("yes"), Value::Bool(true));
        assert_eq!(parse_cell(""), Value::Null);
        assert_eq!(parse_cell("N-1234X"), Value::Str("N-1234X".into()));
    }
}
