//! # aryn-llm
//!
//! The LLM substrate for Aryn-RS: a provider-agnostic [`LanguageModel`]
//! trait, a deterministic simulated implementation ([`MockLlm`]) with
//! calibrated accuracy/cost/latency/context profiles per model tier, a
//! retrying + JSON-repairing [`LlmClient`], and embedding models.
//!
//! See DESIGN.md §2 for how the simulation substitutes for hosted models
//! while preserving the behaviours the paper's system depends on.

pub mod batch;
pub mod cache;
pub mod chaos;
pub mod client;
pub mod embed;
pub mod fairshare;
pub mod mock;
pub mod model;
pub mod prompt;
pub mod registry;
pub mod reliability;
pub mod semantics;

pub use batch::{run_batched, BatchConfig, BatchReport};
pub use cache::{CacheKey, CacheStats, LlmCallCache};
pub use chaos::{
    ChaosKeying, ChaosModel, ChaosSchedule, FaultKind, FaultWindow, StorageFault, StorageSchedule,
};
pub use client::{DegradedJson, LlmClient, MeterScope, RetryPolicy, UsageMeter, UsageStats};
pub use reliability::{
    BreakerBoard, BreakerState, CircuitBreaker, ReliabilityPolicy, ReliabilitySlot,
    ReliabilityState,
};
pub use embed::{cosine, EmbeddingModel, HashedBowEmbedder};
pub use fairshare::{jain_index, DrrQueue, FairShare, FairShareStats, SlotGuard};
pub use mock::{EngineCtx, MockLlm, SimConfig, TaskEngine};
pub use model::{LanguageModel, LlmRequest, LlmResponse, Usage};
pub use registry::{spec_by_name, ModelSpec, TaskKind, ALL_MODELS, GPT35_SIM, GPT4_SIM, LLAMA7B_SIM};
