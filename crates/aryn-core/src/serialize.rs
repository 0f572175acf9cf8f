//! Document serialization: the binary codec every persisted document goes
//! through ([`encode_document`] / [`decode_document`]: DocStore WAL records
//! and segments, materialize checkpoints), and Document ⇄ JSON for the
//! partitioner's JSON output mode.
//!
//! The binary format is little-endian, field by field: `u32` length prefixes,
//! `0`/`1` option and bool bytes, enum and `Value` tag bytes, floats as raw
//! bits, so documents round-trip exactly (NaN and `-0.0` too). Decoding
//! checks every length against the bytes left before allocating, caps
//! nesting at [`MAX_DEPTH`] and rejects trailing bytes: never a panic.

use crate::bbox::BBox;
use crate::document::{DocContent, Document, Element, ElementType, ImageInfo};
use crate::ids::DocId;
use crate::lineage::LineageRecord;
use crate::table::{Cell, Table};
use crate::value::Value;
use crate::{arr, obj, ArynError, Result};

/// Deepest `Value` nesting the codec writes or reads.
pub const MAX_DEPTH: usize = 128;

/// Appends `doc`'s binary encoding to `out`. `Err` (a length over `u32`,
/// nesting past [`MAX_DEPTH`]) may leave a partial encoding behind; frame
/// writers discard it.
pub fn encode_document(doc: &Document, out: &mut Vec<u8>) -> Result<()> {
    doc.put(&mut Writer { out, depth: 0 })
}

/// Decodes exactly one document written by [`encode_document`].
pub fn decode_document(bytes: &[u8]) -> Result<Document> {
    let mut r = Reader { rest: bytes, depth: 0 };
    let doc = Document::get(&mut r)?;
    if r.rest.is_empty() { Ok(doc) } else { Err(corrupt("trailing bytes")) }
}

fn corrupt(what: &str) -> ArynError {
    ArynError::Io(format!("corrupt document encoding: {what}"))
}

/// `depth` counts the arrays and objects around the value being coded.
struct Writer<'a> {
    out: &'a mut Vec<u8>,
    depth: usize,
}

struct Reader<'a> {
    rest: &'a [u8],
    depth: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let (head, rest) = self.rest.split_at_checked(n).ok_or_else(|| corrupt("truncated"))?;
        self.rest = rest;
        Ok(head)
    }

    /// A length prefix, checked against the bytes left (every item takes
    /// at least one) so a forged length never drives an allocation.
    fn len(&mut self) -> Result<usize> {
        let n = usize::try_from(u32::get(self)?).unwrap_or(usize::MAX);
        (n <= self.rest.len()).then_some(n).ok_or_else(|| corrupt("length past the end"))
    }
}

/// Codes `$body` one container level deeper on the writer or reader `$c`:
/// `Err` past [`MAX_DEPTH`] for both alike, so whatever encodes decodes.
macro_rules! nested {
    ($c:ident, $body:expr) => {{
        $c.depth += 1;
        let out = if $c.depth > MAX_DEPTH { Err(corrupt("value nesting too deep")) } else { $body };
        $c.depth -= 1;
        out
    }};
}

/// One type's binary form.
trait Codec: Sized {
    fn put(&self, w: &mut Writer) -> Result<()>;
    fn get(r: &mut Reader) -> Result<Self>;
}

macro_rules! little_endian {
    ($($t:ty),*) => {$(
        impl Codec for $t {
            fn put(&self, w: &mut Writer) -> Result<()> { w.out.extend_from_slice(&self.to_le_bytes()); Ok(()) }
            fn get(r: &mut Reader) -> Result<$t> {
                r.take(size_of::<$t>())?.try_into().map(<$t>::from_le_bytes).map_err(|_| corrupt("truncated"))
            }
        }
    )*};
}
little_endian!(u8, u32, u64, i64, f32, f64);

/// Structs as their fields, in the order listed.
macro_rules! fields {
    ($($t:ident { $($f:ident),* })*) => {$(
        impl Codec for $t {
            fn put(&self, w: &mut Writer) -> Result<()> { $(self.$f.put(w)?;)* Ok(()) }
            fn get(r: &mut Reader) -> Result<$t> { Ok($t { $($f: Codec::get(r)?),* }) }
        }
    )*};
}
fields! {
    // Field by field: `BBox::new` would renormalize the corners.
    BBox { x0, y0, x1, y1 }
    Cell { row, col, text, bbox, is_header }
    Table { rows, cols, cells, header_rows, caption }
    ImageInfo { format, width_px, height_px, summary, ocr_text }
    Element { etype, text, page, bbox, confidence, table, image, properties }
    LineageRecord { transform, detail, sources, llm_calls, cost_usd }
    Document { id, properties, content, elements, lineage, embedding }
}

impl Codec for usize {
    fn put(&self, w: &mut Writer) -> Result<()> { u64::try_from(*self).map_err(|_| corrupt("count over u64"))?.put(w) }
    fn get(r: &mut Reader) -> Result<usize> { usize::try_from(u64::get(r)?).map_err(|_| corrupt("count over usize")) }
}

impl Codec for bool {
    fn put(&self, w: &mut Writer) -> Result<()> { u8::from(*self).put(w) }
    fn get(r: &mut Reader) -> Result<bool> {
        u8::get(r).and_then(|b| if b < 2 { Ok(b == 1) } else { Err(corrupt(&format!("bool byte {b}"))) })
    }
}

/// A `u32` length prefix.
fn put_len(n: usize, w: &mut Writer) -> Result<()> {
    u32::try_from(n).map_err(|_| corrupt("length over u32"))?.put(w)
}

impl Codec for String {
    fn put(&self, w: &mut Writer) -> Result<()> { put_len(self.len(), w).map(|()| w.out.extend_from_slice(self.as_bytes())) }
    fn get(r: &mut Reader) -> Result<String> {
        let n = r.len()?;
        std::str::from_utf8(r.take(n)?).map(str::to_owned).map_err(|_| corrupt("invalid utf-8"))
    }
}

impl Codec for DocId {
    fn put(&self, w: &mut Writer) -> Result<()> { self.0.put(w) }
    fn get(r: &mut Reader) -> Result<DocId> { String::get(r).map(DocId) }
}

impl<T: Codec> Codec for Option<T> {
    fn put(&self, w: &mut Writer) -> Result<()> { self.is_some().put(w).and_then(|()| self.as_ref().map_or(Ok(()), |v| v.put(w))) }
    fn get(r: &mut Reader) -> Result<Option<T>> { bool::get(r)?.then(|| T::get(r)).transpose() }
}

impl<T: Codec> Codec for Vec<T> {
    fn put(&self, w: &mut Writer) -> Result<()> { put_len(self.len(), w).and_then(|()| self.iter().try_for_each(|v| v.put(w))) }
    fn get(r: &mut Reader) -> Result<Vec<T>> {
        let n = r.len()?;
        (0..n).try_fold(Vec::with_capacity(n), |mut out, _| {
            out.push(T::get(r)?);
            Ok(out)
        })
    }
}

impl Codec for ElementType {
    // Declaration order, which `ElementType::ALL` lists.
    fn put(&self, w: &mut Writer) -> Result<()> { (*self as u8).put(w) }
    fn get(r: &mut Reader) -> Result<ElementType> {
        let tag = u8::get(r)?;
        ElementType::ALL.get(usize::from(tag)).copied().ok_or_else(|| corrupt(&format!("element type {tag}")))
    }
}

impl Codec for DocContent {
    fn put(&self, w: &mut Writer) -> Result<()> {
        match self {
            DocContent::None => 0u8.put(w),
            DocContent::Text(t) => 1u8.put(w).and_then(|()| t.put(w)),
            DocContent::Binary(b) => 2u8.put(w).and_then(|()| b.put(w)),
        }
    }
    fn get(r: &mut Reader) -> Result<DocContent> {
        match u8::get(r)? {
            0 => Ok(DocContent::None),
            1 => String::get(r).map(DocContent::Text),
            2 => Vec::get(r).map(DocContent::Binary),
            t => Err(corrupt(&format!("content tag {t}"))),
        }
    }
}

impl Codec for Value {
    fn put(&self, w: &mut Writer) -> Result<()> {
        match self {
            Value::Null => 0u8.put(w),
            Value::Bool(b) => 1u8.put(w).and_then(|()| b.put(w)),
            Value::Int(i) => 2u8.put(w).and_then(|()| i.put(w)),
            Value::Float(f) => 3u8.put(w).and_then(|()| f.put(w)),
            Value::Str(s) => 4u8.put(w).and_then(|()| s.put(w)),
            Value::Array(items) => 5u8.put(w).and_then(|()| nested!(w, items.put(w))),
            Value::Object(map) => {
                6u8.put(w)?;
                put_len(map.len(), w)?;
                nested!(w, map.iter().try_for_each(|(k, v)| k.put(w).and_then(|()| v.put(w))))
            }
        }
    }
    fn get(r: &mut Reader) -> Result<Value> {
        match u8::get(r)? {
            0 => Ok(Value::Null),
            1 => bool::get(r).map(Value::Bool),
            2 => i64::get(r).map(Value::Int),
            3 => f64::get(r).map(Value::Float),
            4 => String::get(r).map(Value::Str),
            5 => nested!(r, Vec::get(r)).map(Value::Array),
            6 => {
                let n = r.len()?;
                nested!(r, (0..n).map(|_| Ok((String::get(r)?, <Value as Codec>::get(r)?))).collect()).map(Value::Object)
            }
            t => Err(corrupt(&format!("value tag {t}"))),
        }
    }
}

/// Serializes a document to a JSON value.
pub fn document_to_value(doc: &Document) -> Value {
    let mut v = obj! {
        "id" => doc.id.as_str(),
        "properties" => doc.properties.clone(),
        "elements" => doc.elements.iter().map(element_to_value).collect::<Vec<_>>(),
        "lineage" => doc.lineage.iter().map(|l| l.to_value()).collect::<Vec<_>>(),
    };
    match &doc.content {
        DocContent::None => {}
        DocContent::Text(t) => {
            v.set_path("content_text", Value::from(t.as_str()));
        }
        DocContent::Binary(b) => {
            // Binary content serializes as an int array (rare; our PDF
            // stand-in is text).
            v.set_path(
                "content_binary",
                Value::Array(b.iter().map(|x| Value::Int(*x as i64)).collect()),
            );
        }
    }
    if let Some(e) = &doc.embedding {
        v.set_path(
            "embedding",
            Value::Array(e.iter().map(|x| Value::Float(*x as f64)).collect()),
        );
    }
    v
}

/// Parses a document serialized by [`document_to_value`].
pub fn document_from_value(v: &Value) -> Result<Document> {
    let id = v
        .get("id")
        .and_then(Value::as_str)
        .ok_or_else(|| ArynError::MissingField("id".into()))?;
    let mut doc = Document::new(id);
    doc.properties = v.get("properties").cloned().unwrap_or_else(Value::object);
    if let Some(t) = v.get("content_text").and_then(Value::as_str) {
        doc.content = DocContent::Text(t.to_string());
    } else if let Some(b) = v.get("content_binary").and_then(Value::as_array) {
        doc.content = DocContent::Binary(
            b.iter()
                .filter_map(Value::as_int)
                .map(|x| x as u8)
                .collect(),
        );
    }
    if let Some(els) = v.get("elements").and_then(Value::as_array) {
        for e in els {
            doc.elements.push(element_from_value(e)?);
        }
    }
    if let Some(ls) = v.get("lineage").and_then(Value::as_array) {
        for l in ls {
            doc.lineage.push(
                LineageRecord::from_value(l)
                    .ok_or_else(|| ArynError::Other("bad lineage record".into()))?,
            );
        }
    }
    if let Some(e) = v.get("embedding").and_then(Value::as_array) {
        doc.embedding = Some(e.iter().filter_map(Value::as_float).map(|x| x as f32).collect());
    }
    Ok(doc)
}

fn bbox_to_value(b: &BBox) -> Value {
    arr![b.x0 as f64, b.y0 as f64, b.x1 as f64, b.y1 as f64]
}

fn bbox_from_value(v: &Value) -> Option<BBox> {
    let a = v.as_array()?;
    if a.len() != 4 {
        return None;
    }
    Some(BBox::new(
        a[0].as_float()? as f32,
        a[1].as_float()? as f32,
        a[2].as_float()? as f32,
        a[3].as_float()? as f32,
    ))
}

fn element_to_value(e: &Element) -> Value {
    let mut v = obj! {
        "type" => e.etype.name(),
        "text" => e.text.as_str(),
        "page" => e.page as i64,
        "confidence" => e.confidence as f64,
        "properties" => e.properties.clone(),
    };
    if let Some(b) = &e.bbox {
        v.set_path("bbox", bbox_to_value(b));
    }
    if let Some(t) = &e.table {
        v.set_path("table", table_to_value(t));
    }
    if let Some(i) = &e.image {
        v.set_path(
            "image",
            obj! {
                "format" => i.format.as_str(),
                "width_px" => i.width_px as i64,
                "height_px" => i.height_px as i64,
                "summary" => i.summary.clone(),
                "ocr_text" => i.ocr_text.clone(),
            },
        );
    }
    v
}

fn element_from_value(v: &Value) -> Result<Element> {
    let tname = v
        .get("type")
        .and_then(Value::as_str)
        .ok_or_else(|| ArynError::MissingField("element.type".into()))?;
    let etype = ElementType::from_name(tname)
        .ok_or_else(|| ArynError::Other(format!("unknown element type {tname:?}")))?;
    let mut e = Element::text(etype, v.get("text").and_then(Value::as_str).unwrap_or(""));
    e.page = v.get("page").and_then(Value::as_int).unwrap_or(0) as usize;
    e.confidence = v.get("confidence").and_then(Value::as_float).unwrap_or(1.0) as f32;
    e.properties = v.get("properties").cloned().unwrap_or_else(Value::object);
    e.bbox = v.get("bbox").and_then(bbox_from_value);
    if let Some(t) = v.get("table") {
        e.table = Some(table_from_value(t)?);
    }
    if let Some(i) = v.get("image") {
        e.image = Some(ImageInfo {
            format: i
                .get("format")
                .and_then(Value::as_str)
                .unwrap_or("png")
                .to_string(),
            width_px: i.get("width_px").and_then(Value::as_int).unwrap_or(0) as u32,
            height_px: i.get("height_px").and_then(Value::as_int).unwrap_or(0) as u32,
            summary: i.get("summary").and_then(Value::as_str).map(str::to_string),
            ocr_text: i.get("ocr_text").and_then(Value::as_str).map(str::to_string),
        });
    }
    Ok(e)
}

/// Serializes a table to a JSON value.
pub fn table_to_value(t: &Table) -> Value {
    obj! {
        "rows" => t.rows as i64,
        "cols" => t.cols as i64,
        "header_rows" => t.header_rows as i64,
        "caption" => t.caption.clone(),
        "cells" => t
            .cells
            .iter()
            .map(|c| {
                let mut v = obj! {
                    "row" => c.row as i64,
                    "col" => c.col as i64,
                    "text" => c.text.as_str(),
                    "is_header" => c.is_header,
                };
                if let Some(b) = &c.bbox {
                    v.set_path("bbox", bbox_to_value(b));
                }
                v
            })
            .collect::<Vec<_>>(),
    }
}

/// Parses a table serialized by [`table_to_value`].
pub fn table_from_value(v: &Value) -> Result<Table> {
    let get_usize = |k: &str| -> Result<usize> {
        v.get(k)
            .and_then(Value::as_int)
            .map(|i| i as usize)
            .ok_or_else(|| ArynError::MissingField(format!("table.{k}")))
    };
    let mut t = Table {
        rows: get_usize("rows")?,
        cols: get_usize("cols")?,
        header_rows: get_usize("header_rows")?,
        caption: v.get("caption").and_then(Value::as_str).map(str::to_string),
        cells: Vec::new(),
    };
    if let Some(cells) = v.get("cells").and_then(Value::as_array) {
        for c in cells {
            t.cells.push(Cell {
                row: c.get("row").and_then(Value::as_int).unwrap_or(0) as usize,
                col: c.get("col").and_then(Value::as_int).unwrap_or(0) as usize,
                text: c.get("text").and_then(Value::as_str).unwrap_or("").to_string(),
                bbox: c.get("bbox").and_then(bbox_from_value),
                is_header: c.get("is_header").and_then(Value::as_bool).unwrap_or(false),
            });
        }
    }
    Ok(t)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rich_document() -> Document {
        let mut d = Document::from_text("doc-1", "raw text");
        d.set_prop("entity.state", "AK");
        d.set_prop("count", 3i64);
        let mut e = Element::text(ElementType::Table, "tbl");
        e.page = 1;
        e.bbox = Some(BBox::new(1.0, 2.0, 3.0, 4.0));
        let mut t = Table::from_grid(&[vec!["H".into()], vec!["v".into()]], true);
        t.caption = Some("cap".into());
        t.cells[1].bbox = Some(BBox::new(0.5, 0.5, 1.5, 1.5));
        e.table = Some(t);
        d.elements.push(e);
        let mut img = Element::text(ElementType::Picture, "");
        img.image = Some(ImageInfo {
            format: "png".into(),
            width_px: 100,
            height_px: 50,
            summary: Some("a photo".into()),
            ocr_text: None,
        });
        d.elements.push(img);
        d.lineage.push(LineageRecord::new("partition", "detr").with_llm(1, 0.002));
        d.embedding = Some(vec![0.25, -0.5]);
        d
    }

    #[test]
    fn document_roundtrip_preserves_everything() {
        let d = rich_document();
        let v = document_to_value(&d);
        let back = document_from_value(&v).unwrap();
        assert_eq!(back, d);
    }

    #[test]
    fn roundtrip_through_json_text() {
        let d = rich_document();
        let text = crate::json::to_string(&document_to_value(&d));
        let back = document_from_value(&crate::json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, d);
    }

    #[test]
    fn binary_content_roundtrips() {
        let mut d = Document::new("b");
        d.content = DocContent::Binary(vec![0, 127, 255]);
        let back = document_from_value(&document_to_value(&d)).unwrap();
        assert_eq!(back.content, DocContent::Binary(vec![0, 127, 255]));
    }

    #[test]
    fn binary_roundtrip_is_exact() {
        let mut d = rich_document();
        d.content = DocContent::Binary(vec![0, 127, 255]);
        for t in ElementType::ALL {
            d.elements.push(Element::text(t, t.name()));
        }
        d.set_prop("neg_zero", -0.0f64);
        let mut buf = Vec::new();
        encode_document(&d, &mut buf).unwrap();
        let back = decode_document(&buf).unwrap();
        assert_eq!(back, d);
        assert!(back.prop("neg_zero").and_then(Value::as_float).unwrap().is_sign_negative());
        // Trailing bytes and truncations are errors.
        buf.push(0);
        assert!(decode_document(&buf).is_err());
        assert!(decode_document(&buf[..buf.len() - 2]).is_err());
    }

    #[test]
    fn malformed_input_errors() {
        assert!(document_from_value(&Value::object()).is_err());
        assert!(document_from_value(&obj! { "id" => 5i64 }).is_err());
        let bad_el = obj! { "id" => "x", "elements" => vec![Value::object()] };
        assert!(document_from_value(&bad_el).is_err());
    }
}
