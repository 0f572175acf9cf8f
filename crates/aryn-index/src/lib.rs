//! # aryn-index
//!
//! The index substrates DocSets are written to (paper §3: "keyword, vector,
//! and graph stores"): a BM25 inverted index ([`keyword`]), exact and HNSW
//! vector indexes ([`vector`]), reciprocal-rank hybrid fusion ([`hybrid`]),
//! an LSM-segmented property docstore with MVCC snapshots, structured
//! predicates and incremental schema discovery ([`docstore`]), and a
//! property graph ([`graph`]). The keyword and vector stores both come in
//! sharded, incrementally-maintainable forms ([`ShardedKeywordIndex`],
//! [`ShardedHnsw`]) so a streaming feed pays O(doc) index work per arrival.

pub mod columns;
pub mod docstore;
pub mod graph;
pub mod hybrid;
pub mod keyword;
pub mod vector;

pub use docstore::{
    Catalog, CompiledPredicate, DocStore, Matches, Predicate, ScanStats, Schema, Segment,
    StoreConfig, StoreSnapshot, StoreStats, WalConfig,
};
pub use graph::{Edge, GraphNode, GraphStore};
pub use hybrid::{rrf_fuse, RRF_K};
pub use keyword::{Hit, KeywordIndex, ShardedKeywordIndex};
pub use vector::{
    recall_at_k, FlatIndex, HnswIndex, Neighbor, ShardedHnsw, VectorIndex,
};
