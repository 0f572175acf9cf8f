//! Logical operators — the transform vocabulary of Table 1.
//!
//! A DocSet is a lazy plan: a source plus a list of [`Op`]s. Per-document
//! ops (map/filter/partition/LLM transforms/embed) can run document-parallel;
//! barrier ops (reduce_by_key, sort, limit, collection summarize,
//! materialize) need the whole collection.

use aryn_core::Value;
use aryn_llm::LlmClient;
use aryn_partitioner::Detector;
use std::path::PathBuf;
use std::sync::Arc;

/// User-provided per-document function.
pub type MapFn = Arc<dyn Fn(aryn_core::Document) -> aryn_core::Document + Send + Sync>;
/// User-provided predicate.
pub type FilterFn = Arc<dyn Fn(&aryn_core::Document) -> bool + Send + Sync>;
/// User-provided 1→N function.
pub type FlatMapFn = Arc<dyn Fn(aryn_core::Document) -> Vec<aryn_core::Document> + Send + Sync>;

/// Which elements an LLM transform sees (paper §5.2: a prompt "can be
/// configured to process a subset of elements").
#[derive(Debug, Clone, PartialEq)]
pub enum ElementSelector {
    /// The whole document text.
    All,
    /// Only the first `n` elements (e.g. the first page's prefix).
    First(usize),
    /// Only elements of the given types.
    Types(Vec<aryn_core::ElementType>),
    /// Only elements on pages `0..n`.
    Pages(usize),
}

impl ElementSelector {
    /// Renders the selected portion of a document as prompt context.
    pub fn select_text(&self, doc: &aryn_core::Document) -> String {
        if doc.elements.is_empty() {
            return doc.full_text();
        }
        let mut out = String::new();
        let push = |e: &aryn_core::Element| e.push_line(&mut out);
        match self {
            ElementSelector::All => doc.elements.iter().for_each(push),
            ElementSelector::First(n) => doc.elements.iter().take(*n).for_each(push),
            ElementSelector::Types(ts) => {
                doc.elements.iter().filter(|e| ts.contains(&e.etype)).for_each(push)
            }
            ElementSelector::Pages(n) => {
                doc.elements.iter().filter(|e| e.page < *n).for_each(push)
            }
        }
        out
    }
}

/// Aggregation functions for `reduce_by_key`. All of them "handle missing
/// values" (§5.2): documents without the aggregated property are skipped
/// (except `Count`, which counts group membership).
#[derive(Debug, Clone, PartialEq)]
pub enum Agg {
    /// Number of documents in the group.
    Count,
    /// Sum of a numeric property.
    Sum(String),
    /// Mean of a numeric property.
    Avg(String),
    /// Minimum by total order.
    Min(String),
    /// Maximum by total order.
    Max(String),
    /// Distinct values collected into an array.
    CollectDistinct(String),
}

impl Agg {
    /// The property the aggregate reads (`None` for `Count`).
    pub fn path(&self) -> Option<&str> {
        match self {
            Agg::Count => None,
            Agg::Sum(p) | Agg::Avg(p) | Agg::Min(p) | Agg::Max(p) | Agg::CollectDistinct(p) => Some(p),
        }
    }
}

/// Partition-transform configuration.
#[derive(Clone)]
pub struct PartitionCfg {
    pub detector: Detector,
    pub merge_tables: bool,
    pub use_ocr: bool,
    pub summarize_images: Option<LlmClient>,
    pub seed: u64,
}

impl Default for PartitionCfg {
    fn default() -> Self {
        PartitionCfg {
            detector: Detector::DetrSim,
            merge_tables: true,
            use_ocr: true,
            summarize_images: None,
            seed: 0x9A27,
        }
    }
}

/// One logical operator.
#[derive(Clone)]
pub enum Op {
    /// Arbitrary per-document function.
    Map { name: String, f: MapFn },
    /// Keep documents matching the predicate.
    Filter { name: String, f: FilterFn },
    /// 1→N per-document function.
    FlatMap { name: String, f: FlatMapFn },
    /// Run the Aryn Partitioner on the raw rendering from the lake.
    Partition { lake: String, cfg: PartitionCfg },
    /// Emit each element as its own chunk document.
    Explode,
    /// Free-prompt LLM transform: render `template` (with `{prop}` and
    /// `{text}` placeholders) per document, store the `answer` under
    /// `output_path`.
    LlmQuery {
        client: LlmClient,
        template: String,
        output_path: String,
        selector: ElementSelector,
    },
    /// Schema-driven property extraction (paper Figure 3/4).
    ExtractProperties {
        client: LlmClient,
        schema: Value,
        selector: ElementSelector,
    },
    /// Semantic filter by natural-language predicate.
    LlmFilter {
        client: LlmClient,
        predicate: String,
        selector: ElementSelector,
    },
    /// Closed-set classification into a property.
    LlmClassify {
        client: LlmClient,
        question: String,
        labels: Vec<String>,
        output_path: String,
        selector: ElementSelector,
    },
    /// Per-section summarization using the document's semantic tree
    /// (paper §5.1: documents are hierarchical; long documents have
    /// chapters/sections). One LLM call per section; results land under
    /// `properties.section_summaries.<heading>`.
    SummarizeSections { client: LlmClient },
    /// Per-document summarization into a property.
    Summarize {
        client: LlmClient,
        instructions: String,
        output_path: String,
        selector: ElementSelector,
    },
    /// Attach embeddings (context's embedder).
    Embed,
    /// Group by a property and aggregate. Barrier.
    ReduceByKey {
        key: String,
        aggs: Vec<(String, Agg)>,
    },
    /// Sort by a property (missing values first ascending / last descending
    /// by total order, deterministic). Barrier.
    SortBy { path: String, descending: bool },
    /// Keep the first `n`. Barrier.
    Limit(usize),
    /// Summarize the whole collection into one document, hierarchically
    /// (map-reduce over context-window-sized batches). Barrier.
    SummarizeAll {
        client: LlmClient,
        instructions: String,
    },
    /// Cache the stream here (named; optionally spilled to disk). Barrier.
    Materialize {
        name: String,
        dir: Option<PathBuf>,
    },
}

impl Op {
    /// Operator name for stats, traces, and lineage.
    pub fn name(&self) -> String {
        match self {
            Op::Map { name, .. } => format!("map({name})"),
            Op::Filter { name, .. } => format!("filter({name})"),
            Op::FlatMap { name, .. } => format!("flat_map({name})"),
            Op::Partition { .. } => "partition".into(),
            Op::Explode => "explode".into(),
            Op::LlmQuery { .. } => "llm_query".into(),
            Op::ExtractProperties { .. } => "extract_properties".into(),
            Op::LlmFilter { .. } => "llm_filter".into(),
            Op::LlmClassify { .. } => "llm_classify".into(),
            Op::SummarizeSections { .. } => "summarize_sections".into(),
            Op::Summarize { .. } => "summarize".into(),
            Op::Embed => "embed".into(),
            Op::ReduceByKey { key, .. } => format!("reduce_by_key({key})"),
            Op::SortBy { path, .. } => format!("sort({path})"),
            Op::Limit(n) => format!("limit({n})"),
            Op::SummarizeAll { .. } => "summarize_all".into(),
            Op::Materialize { name, .. } => format!("materialize({name})"),
        }
    }

    /// A string identifying this op for materialize-checkpoint
    /// fingerprints: the display name plus every parameter that changes the
    /// op's output (predicates, schemas, templates, model names, selectors).
    /// Closure bodies (map/filter/flat_map) are invisible — only their
    /// user-given names participate.
    pub fn fingerprint(&self) -> String {
        match self {
            Op::LlmQuery { client, template, output_path, selector } => format!(
                "llm_query|{}|{template}|{output_path}|{selector:?}",
                client.model_name()
            ),
            Op::ExtractProperties { client, schema, selector } => format!(
                "extract_properties|{}|{}|{selector:?}",
                client.model_name(),
                aryn_core::json::to_string(schema)
            ),
            Op::LlmFilter { client, predicate, selector } => format!(
                "llm_filter|{}|{predicate}|{selector:?}",
                client.model_name()
            ),
            Op::LlmClassify { client, question, labels, output_path, selector } => format!(
                "llm_classify|{}|{question}|{}|{output_path}|{selector:?}",
                client.model_name(),
                labels.join(",")
            ),
            Op::Summarize { client, instructions, output_path, selector } => format!(
                "summarize|{}|{instructions}|{output_path}|{selector:?}",
                client.model_name()
            ),
            Op::SummarizeSections { client } => {
                format!("summarize_sections|{}", client.model_name())
            }
            Op::SummarizeAll { client, instructions } => format!(
                "summarize_all|{}|{instructions}",
                client.model_name()
            ),
            Op::ReduceByKey { key, aggs } => format!("reduce_by_key|{key}|{aggs:?}"),
            Op::SortBy { path, descending } => format!("sort|{path}|{descending}"),
            Op::Partition { lake, cfg } => format!(
                "partition|{lake}|{:?}|{}|{}|{}",
                cfg.detector, cfg.merge_tables, cfg.use_ocr, cfg.seed
            ),
            other => other.name(),
        }
    }

    /// The LLM client this op calls, if any. Stage accounting opens an
    /// [`aryn_llm::MeterScope`] over these; the scope walks fallback chains.
    pub fn client(&self) -> Option<&LlmClient> {
        match self {
            Op::LlmQuery { client, .. }
            | Op::ExtractProperties { client, .. }
            | Op::LlmFilter { client, .. }
            | Op::LlmClassify { client, .. }
            | Op::SummarizeSections { client }
            | Op::Summarize { client, .. }
            | Op::SummarizeAll { client, .. } => Some(client),
            Op::Partition { cfg, .. } => cfg.summarize_images.as_ref(),
            _ => None,
        }
    }

    /// Barrier ops need the whole collection at once.
    pub fn is_barrier(&self) -> bool {
        matches!(
            self,
            Op::ReduceByKey { .. }
                | Op::SortBy { .. }
                | Op::Limit(_)
                | Op::SummarizeAll { .. }
                | Op::Materialize { .. }
        )
    }

    /// True for ops the micro-batch packer (DESIGN.md §5e) can run
    /// collection-at-a-time, packing documents into shared LLM calls. When
    /// batching is enabled these become soft barriers: the morsel executor
    /// hands the whole collection to the packer instead of streaming
    /// per-document morsels through them.
    pub fn is_batchable(&self) -> bool {
        matches!(self, Op::LlmFilter { .. } | Op::ExtractProperties { .. })
    }
}

impl std::fmt::Debug for Op {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aryn_core::{Document, Element, ElementType};

    fn doc_with_elements() -> Document {
        let mut d = Document::new("x");
        d.elements = vec![
            Element::text(ElementType::Title, "A Title"),
            Element::text(ElementType::Text, "first paragraph"),
            {
                let mut e = Element::text(ElementType::Text, "second page text");
                e.page = 1;
                e
            },
        ];
        d
    }

    #[test]
    fn selector_all_first_types_pages() {
        let d = doc_with_elements();
        assert!(ElementSelector::All.select_text(&d).contains("second page"));
        let first = ElementSelector::First(1).select_text(&d);
        assert!(first.contains("A Title") && !first.contains("paragraph"));
        let text_only = ElementSelector::Types(vec![ElementType::Text]).select_text(&d);
        assert!(!text_only.contains("A Title"));
        let page0 = ElementSelector::Pages(1).select_text(&d);
        assert!(!page0.contains("second page"));
    }

    #[test]
    fn selector_falls_back_to_full_text_when_unpartitioned() {
        let d = Document::from_text("y", "raw content");
        assert_eq!(ElementSelector::First(1).select_text(&d), "raw content");
    }

    #[test]
    fn barrier_classification() {
        assert!(Op::Limit(3).is_barrier());
        assert!(Op::SortBy { path: "x".into(), descending: false }.is_barrier());
        assert!(!Op::Explode.is_barrier());
        assert!(!Op::Map { name: "f".into(), f: Arc::new(|d| d) }.is_barrier());
    }

    #[test]
    fn names_are_descriptive() {
        assert_eq!(Op::Explode.name(), "explode");
        assert_eq!(
            Op::ReduceByKey { key: "state".into(), aggs: vec![] }.name(),
            "reduce_by_key(state)"
        );
        assert_eq!(format!("{:?}", Op::Limit(5)), "limit(5)");
    }
}
