//! # sycamore
//!
//! The DocSet document-processing engine (paper §5): a Spark-like lazy
//! dataflow over hierarchical documents with core, structural, analytic, and
//! LLM-powered transforms (Table 1), a morsel-driven document-parallel
//! executor with Ray-style failure retry (§5.3), named materializations
//! (memory or disk), per-document lineage, and writers into
//! keyword/vector/document stores.
//!
//! ```
//! use sycamore::{Context, PartitionCfg};
//! use aryn_docgen::Corpus;
//!
//! let ctx = Context::new();
//! ctx.register_corpus("ntsb", &Corpus::ntsb(1, 3));
//! let n = ctx.read_lake("ntsb").unwrap()
//!     .partition("ntsb", PartitionCfg::default())
//!     .explode()
//!     .count().unwrap();
//! assert!(n > 3);
//! ```

pub mod context;
pub mod cost;
pub mod docset;
pub mod exec;
pub mod ingest;
pub mod lint;
pub mod op;
pub mod stats;
pub mod transforms;

pub use context::{Context, ExecConfig};
pub use cost::{CostKnobs, Interval, LlmBounds, OpCost, PipelineCost};
pub use docset::{DocSet, Source};
pub use ingest::{IngestConfig, IngestReport, IngestShared, Ingestor};
pub use op::{Agg, ElementSelector, Op, PartitionCfg};
pub use stats::{ExecStats, StageStats, WorkerStats};
pub use transforms::load_materialized;
