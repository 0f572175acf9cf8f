//! # luna
//!
//! LLM-powered unstructured analytics (paper §6): a natural-language query
//! planner producing JSON plan DAGs over traditional + semantic operators
//! ([`ops`]), schema discovery ([`schema`]), a rule-grammar planner engine
//! registered as the simulated LLM's `plan` task ([`planner`]), a cost-based
//! optimizer (pushdown / reorder / model selection, [`mod@optimize`]), codegen
//! to Python-like Sycamore scripts ([`codegen`]), and a traced executor with
//! human-in-the-loop plan editing ([`exec`], [`luna`]).

pub mod analyze;
pub mod bench18;
pub mod codegen;
pub mod costmodel;
pub mod exec;
pub mod kg;
pub mod luna;
pub mod ops;
pub mod optimize;
pub mod planner;
pub mod schema;
pub mod serve;

pub use analyze::{analyze, Analysis, Analyzer, CheckedPlan, FieldType, LintRule, Parsed, PlanCtx, Shape};
pub use costmodel::{
    dead_extracts, estimate as estimate_cost, liveness, CostKnobs,
    CostReport, CostRules, Interval, Live, NodeCost,
};
pub use exec::{LunaResult, NodeOutput, NodeTrace, PlanExecutor};
pub use kg::{build_earnings_graph, build_ntsb_graph, competitors_of};
pub use luna::{
    earnings_schema, ingest_lake, ntsb_schema, CostAnalysis, Luna, LunaAnswer, LunaConfig,
    SessionWiring,
};
pub use serve::{
    Admission, AdmissionGuard, CacheKeyPolicy, LoadGen, LoadProfile, LoadTenant,
    QueryService, ServeConfig, ServeStats, SimReport, TenantSim, TenantSpec, TenantStats,
};
pub use ops::{eval_math, AggFunc, MathExpr, Plan, PlanNode, PlanOp};
pub use optimize::{optimize, Optimized, OptimizerCfg};
pub use planner::{PlannerEngine, RulePlanner};
pub use schema::{Field, IndexSchema};
