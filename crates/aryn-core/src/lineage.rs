//! Lineage: per-document provenance records.
//!
//! A design tenet of the paper is explainability: "Aryn should provide a
//! detailed trace of how the answer was computed, including the provenance of
//! intermediate results" (§2). Every Sycamore transform appends a
//! [`LineageRecord`] to the documents it touches; Luna's execution traces
//! aggregate them per operator.

/// One step in a document's provenance chain.
#[derive(Debug, Clone, PartialEq)]
pub struct LineageRecord {
    /// The transform that ran, e.g. `"extract_properties"`.
    pub transform: String,
    /// Short human-readable description (the prompt, predicate, key, ...).
    pub detail: String,
    /// Ids of the source documents when this document was derived from
    /// others (explode, reduce_by_key); empty for in-place transforms.
    pub sources: Vec<String>,
    /// Number of LLM calls this step spent on this document.
    pub llm_calls: u32,
    /// Cost in simulated dollars spent on this document by this step.
    pub cost_usd: f64,
}

impl LineageRecord {
    pub fn new(transform: impl Into<String>, detail: impl Into<String>) -> LineageRecord {
        LineageRecord {
            transform: transform.into(),
            detail: detail.into(),
            sources: Vec::new(),
            llm_calls: 0,
            cost_usd: 0.0,
        }
    }

    pub fn with_sources(mut self, sources: Vec<String>) -> LineageRecord {
        self.sources = sources;
        self
    }

    pub fn with_llm(mut self, calls: u32, cost_usd: f64) -> LineageRecord {
        self.llm_calls = calls;
        self.cost_usd = cost_usd;
        self
    }
}
