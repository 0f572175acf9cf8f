//! # aryn
//!
//! Umbrella crate for Aryn-RS, a Rust reproduction of *"The Design of an
//! LLM-powered Unstructured Analytics System"* (CIDR 2025). Re-exports the
//! full public API; the repository's `examples/` and `tests/` build against
//! this crate.
//!
//! Component map (paper section → crate):
//!
//! * §3 architecture glue → [`sycamore::Context`] + [`aryn_index`]
//! * §4 Aryn Partitioner → [`aryn_partitioner`]
//! * §5 Sycamore DocSets → [`sycamore`]
//! * §6 Luna → [`luna`]
//! * §2 RAG baseline → [`aryn_rag`]
//! * substrates → [`aryn_core`], [`aryn_llm`], [`aryn_docgen`]

pub use aryn_core;
pub use aryn_docgen;
pub use aryn_index;
pub use aryn_llm;
pub use aryn_partitioner;
pub use aryn_rag;
pub use aryn_telemetry;
pub use luna;
pub use sycamore;

/// Common imports for examples and notebooks.
pub mod prelude {
    pub use aryn_core::{obj, BBox, DocId, Document, Element, ElementType, Table, Value};
    pub use aryn_docgen::{Corpus, NtsbRecord};
    pub use aryn_llm::{
        ChaosSchedule, FaultKind, LlmClient, MockLlm, ReliabilityPolicy, SimConfig, GPT35_SIM,
        GPT4_SIM, LLAMA7B_SIM,
    };
    pub use aryn_partitioner::{Detector, Partitioner, PartitionerOptions};
    pub use aryn_telemetry::{Telemetry, Trace};
    pub use luna::{ingest_lake, Luna, LunaConfig};
    pub use sycamore::{Agg, Context, ExecConfig, PartitionCfg};
}
