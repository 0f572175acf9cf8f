//! The Luna front end: natural-language question → plan (via the LLM) →
//! optimize → Sycamore execution, with human-in-the-loop plan editing.

use crate::analyze::Analysis;
use crate::exec::{LunaResult, PlanExecutor};
use crate::ops::{Plan, PlanOp};
use crate::optimize::{optimize, Optimized, OptimizerCfg};
use crate::planner::{PlannerEngine, RulePlanner};
use crate::schema::IndexSchema;
use aryn_core::{ArynError, Result, Severity, Value};
use aryn_llm::prompt::tasks;
use aryn_llm::{
    CacheStats, FairShare, LlmCallCache, LlmClient, MeterScope, MockLlm, ModelSpec,
    ReliabilitySlot, ReliabilityState, SimConfig, TaskEngine, UsageStats,
};
use aryn_telemetry::{Telemetry, Trace};
use std::sync::Arc;

/// Serving-mode wiring for one Luna session (see [`crate::serve`]). The
/// multi-tenant service builds shared infrastructure — call cache, fair-share
/// gate, tenant-scoped reliability forks, discovered schemas, the knowledge
/// graph — exactly once and injects it here, so creating a session is cheap
/// and sessions never mutate the shared context's global knobs.
pub struct SessionWiring {
    /// Tenant the session belongs to (fair-share identity; also the breaker
    /// scope when the reliability state is tenant-scoped).
    pub tenant: String,
    /// Tag stamped on every stage this session executes (conventionally
    /// `tenant/session-N`), reported via `StageStats::tenant` and stage
    /// span notes.
    pub session_tag: String,
    /// Shared call cache. `None` = no cache for this session.
    pub call_cache: Option<Arc<LlmCallCache>>,
    /// Cache-key namespace: `Some` isolates this session's entries from
    /// other namespaces in the shared cache (per-tenant cache policy);
    /// `None` shares the global key space.
    pub cache_namespace: Option<String>,
    /// The session's reliability handle (typically a tenant-scoped fork of
    /// the service's base state). Each `ask` installs a fresh
    /// [`ReliabilityState::fork`] of it, so question budgets are isolated
    /// while breaker boards stay shared.
    pub reliability: Option<Arc<ReliabilityState>>,
    /// Fair-share LLM call-slot gate shared across all sessions.
    pub slots: Option<Arc<FairShare>>,
    /// Pre-discovered index schemas (skips per-session discovery).
    pub schemas: Option<Vec<IndexSchema>>,
    /// Prebuilt knowledge graph (skips the per-session O(docs) build).
    pub graph: Option<Arc<aryn_index::GraphStore>>,
}

/// Luna configuration.
pub struct LunaConfig {
    /// Planner model spec (plan-generation quality comes from its `plan`
    /// accuracy).
    pub planner_model: &'static ModelSpec,
    /// Default execution model.
    pub exec_model: &'static ModelSpec,
    pub sim: SimConfig,
    pub optimizer: OptimizerCfg,
    /// Re-plan attempts when the produced plan fails validation.
    pub max_replan: u32,
    /// Override for the planner brain registered on the simulated LLM
    /// (defaults to [`PlannerEngine`] over the discovered schemas). Tests
    /// inject engines here to exercise the repair loop.
    pub planner_engine: Option<Box<dyn TaskEngine>>,
    /// Enable the content-addressed LLM call cache ([`aryn_llm::cache`]):
    /// one cache shared by the planner, the default execution client, and
    /// every pinned model client, so repeated questions in a session reuse
    /// identical temperature-0 completions. Off by default (call counts stay
    /// exact for tests and benchmarks that pin them).
    pub call_cache: bool,
    /// In-memory entry bound for the call cache (LRU beyond this).
    pub call_cache_capacity: usize,
    /// Optional JSONL disk tier directory (conventionally the lake dir):
    /// entries persist across Luna instances and processes.
    pub call_cache_dir: Option<std::path::PathBuf>,
    /// Cross-document micro-batching width for batchable semantic operators
    /// (`llmFilter`, `llmExtract`): up to this many documents share one
    /// packed LLM call. 1 = off (the default; call counts stay exact for
    /// tests and benchmarks that pin them).
    pub batch_max_items: usize,
    /// Token budget for one packed micro-batch payload.
    pub batch_token_budget: usize,
    /// Reliability policy ([`aryn_llm::reliability`]): per-call timeouts,
    /// a per-question deadline over the simulated clock, circuit breakers,
    /// and model-degradation chains (each execution model falls back to the
    /// next-cheaper catalogue tier, ultimately string matching). `None`
    /// (the default) keeps every call unguarded and call counts exact.
    pub reliability: Option<aryn_llm::ReliabilityPolicy>,
    /// Deterministic fault schedule ([`aryn_llm::chaos`]) injected in front
    /// of every execution model: rate-limit storms, timeout bursts,
    /// malformed-JSON streaks, endpoint blackouts. `None` = calm.
    pub chaos: Option<aryn_llm::ChaosSchedule>,
    /// Worker threads for the engine's morsel-driven per-document stages.
    /// 1 (the default) runs sequentially; higher counts split every fused
    /// per-doc segment into work-stealing morsels. Never changes results —
    /// only wall time and the per-worker telemetry gauges.
    pub exec_workers: usize,
    /// Documents per executor work morsel (upper bound; small inputs split
    /// finer automatically).
    pub exec_morsel_size: usize,
    /// How idle executor workers acquire morsels.
    pub exec_steal: sycamore::StealPolicy,
    /// Run the static cost analyzer ([`crate::costmodel`]) over every plan:
    /// L22–L27 feasibility/liveness diagnostics join the semantic analysis
    /// (warnings only), and each answer carries a [`crate::costmodel::CostReport`]
    /// that `explain_analyze` renders as predicted-vs-actual.
    pub analyze_cost: bool,
    /// Promote hard budget infeasibility (a deadline the optimistic latency
    /// bound already exceeds, a prompt that can never fit its model window)
    /// to Error severity: the planner repair loop re-prompts once and
    /// `Luna::plan` rejects the plan before any execution-model call.
    /// Implies `analyze_cost`.
    pub enforce_budget: bool,
    /// Optimizer rewrite: splice out `llmExtract` nodes whose field the
    /// liveness pass proves is never read downstream (with cost deltas in
    /// the optimizer notes). Answers are unchanged — extraction is 1:1.
    pub prune_dead_fields: bool,
    /// Serving-mode wiring ([`SessionWiring`]): shared infrastructure
    /// injected by the multi-tenant service. When set, Luna never mutates
    /// context-global knobs (`set_reliability`, `set_chaos`) and skips
    /// schema discovery / KG construction where prebuilt artifacts are
    /// provided. `None` (the default) is the classic single-session path.
    pub session: Option<SessionWiring>,
}

impl Default for LunaConfig {
    fn default() -> Self {
        LunaConfig {
            planner_model: &aryn_llm::GPT4_SIM,
            exec_model: &aryn_llm::GPT4_SIM,
            sim: SimConfig::default(),
            optimizer: OptimizerCfg::default(),
            max_replan: 3,
            planner_engine: None,
            call_cache: false,
            call_cache_capacity: 4096,
            call_cache_dir: None,
            batch_max_items: 1,
            batch_token_budget: 2048,
            reliability: None,
            chaos: None,
            exec_workers: 1,
            exec_morsel_size: 32,
            exec_steal: sycamore::StealPolicy::Ring,
            analyze_cost: false,
            enforce_budget: false,
            prune_dead_fields: false,
            session: None,
        }
    }
}

/// The end-to-end natural-language query system.
pub struct Luna {
    schemas: Vec<IndexSchema>,
    planner_client: LlmClient,
    executor: PlanExecutor,
    optimizer: OptimizerCfg,
    max_replan: u32,
    /// The shared call cache, when `LunaConfig::call_cache` is on.
    call_cache: Option<Arc<LlmCallCache>>,
    /// Static cost-analysis knobs, when `analyze_cost`/`enforce_budget` is
    /// on — mirrors the execution wiring so the envelope matches how plans
    /// actually run.
    cost_knobs: Option<crate::costmodel::CostKnobs>,
    enforce_budget: bool,
    /// Session-mode reliability: the session's base state plus the one slot
    /// every ladder tier holds. `ask` installs `base.fork()` into the slot,
    /// giving each question fresh budget clocks without touching the
    /// context-global reliability state other sessions may be using.
    session_reliability: Option<(Arc<ReliabilityState>, Arc<ReliabilitySlot>)>,
}

impl Luna {
    /// Builds Luna over a Sycamore context whose catalog already holds the
    /// ingested stores named in `indexes`.
    pub fn new(ctx: sycamore::Context, indexes: &[&str], cfg: LunaConfig) -> Result<Luna> {
        let mut cfg = cfg;
        let wiring = cfg.session.take();
        // A session executes on its own tagged context handle: the tag is
        // per-handle (never shared), so concurrent sessions stamp their own
        // stage stats without racing.
        let ctx = match &wiring {
            Some(w) if !w.session_tag.is_empty() => ctx.with_session_tag(&w.session_tag),
            _ => ctx,
        };
        // Apply the micro-batching knobs to the live context (a query-time
        // setting: the sinks survive, unlike `with_exec`), and let the
        // optimizer's cost model know so its notes reflect the engine's
        // actual packing width.
        let mut optimizer = cfg.optimizer.clone();
        if cfg.prune_dead_fields {
            optimizer.prune_dead_fields = true;
        }
        if cfg.batch_max_items > 1 {
            ctx.set_batch(cfg.batch_max_items, cfg.batch_token_budget);
            optimizer.batch_max_items = cfg.batch_max_items;
        }
        // Parallelism rides the same channel as batching: a live mutation of
        // the execution config, so the already-ingested sinks survive. Every
        // semantic operator Luna's plan nodes build routes through the
        // context's morsel executor and inherits these knobs.
        if cfg.exec_workers > 1 || cfg.exec_morsel_size != 32 {
            ctx.set_parallelism(cfg.exec_workers, cfg.exec_morsel_size, cfg.exec_steal);
        }
        // Reliability. Classic mode: one shared state (clock, budget,
        // per-model breakers) installed on the context, so every
        // docset-level semantic operator — including the ones Luna's plan
        // nodes build — runs under it; the chaos schedule rides the same
        // channel. Session mode: the service injects the session's state
        // and Luna NEVER touches the context-global slot (concurrent
        // sessions would trample each other); instead every client tier
        // shares one `ReliabilitySlot` that `ask` repoints at a fresh fork.
        let (reliability_state, reliability_slot) = match &wiring {
            Some(w) => {
                let state = w.reliability.clone().filter(|s| s.policy().enabled());
                let slot = state.as_ref().map(|s| ReliabilitySlot::new(Arc::clone(s)));
                (state, slot)
            }
            None => {
                let state = cfg
                    .reliability
                    .filter(|p| p.enabled())
                    .map(|p| ctx.set_reliability(p));
                (state, None)
            }
        };
        if wiring.is_none() {
            if let Some(schedule) = &cfg.chaos {
                ctx.set_chaos(schedule.clone());
            }
        }
        optimizer.degradation_chain = reliability_state.is_some();
        let schemas = match wiring.as_ref().and_then(|w| w.schemas.clone()) {
            Some(prebuilt) => prebuilt,
            None => {
                let mut schemas = Vec::new();
                for name in indexes {
                    let schema = ctx.with_store(name, |s| IndexSchema::discover(name, s.len(), s.schema()))?;
                    schemas.push(schema);
                }
                schemas
            }
        };
        // The planner LLM: the rule planner registered as its `plan` brain
        // (or an injected engine, used by repair-loop tests).
        let engine = cfg.planner_engine.unwrap_or_else(|| {
            Box::new(PlannerEngine::new(RulePlanner::new(schemas.clone())))
        });
        // One call cache shared by every client Luna owns, so any operator
        // (or the planner) repeating an identical temperature-0 call hits it.
        // In session mode the service's shared cache is injected instead;
        // the session's namespace (per-tenant cache policy) and fair-share
        // slot gate ride the same attach path so every tier honors them.
        let call_cache: Option<Arc<LlmCallCache>> = match &wiring {
            Some(w) => w.call_cache.clone(),
            None if cfg.call_cache => {
                let cache = LlmCallCache::with_capacity(cfg.call_cache_capacity);
                let cache = match &cfg.call_cache_dir {
                    Some(dir) => cache.with_disk(dir)?,
                    None => cache,
                };
                Some(Arc::new(cache))
            }
            None => None,
        };
        let cache_namespace = wiring.as_ref().and_then(|w| w.cache_namespace.clone());
        let fair_slots = wiring
            .as_ref()
            .and_then(|w| w.slots.clone().map(|gate| (gate, w.tenant.clone())));
        let attach = |client: LlmClient| {
            let mut c = client;
            if let Some(cache) = &call_cache {
                c = c.with_cache(Arc::clone(cache));
            }
            if let Some(ns) = &cache_namespace {
                c = c.with_cache_namespace(ns);
            }
            if let Some((gate, tenant)) = &fair_slots {
                c = c.with_slots(Arc::clone(gate), tenant);
            }
            c
        };
        let planner_llm = MockLlm::new(cfg.planner_model, cfg.sim.clone()).with_engine(engine);
        let mut planner_client = attach(LlmClient::new(Arc::new(planner_llm)).with_policy(
            aryn_llm::RetryPolicy {
                max_reask: 4,
                ..aryn_llm::RetryPolicy::default()
            },
        ));
        // Session mode meters planning against the tenant's budget too —
        // a pushed-down question's only LLM work is its plan call, and the
        // serving layer accounts every simulated millisecond. Classic mode
        // keeps the planner unguarded (historical call counts and
        // fingerprints stay exact).
        if let Some(slot) = &reliability_slot {
            planner_client = planner_client.with_reliability_slot(Arc::clone(slot));
        }
        // Execution clients: default plus one per catalogue model, so the
        // optimizer's routing decisions have real endpoints. Under a
        // reliability policy each client is the head of a degradation
        // ladder: its fallback chain walks the cheaper catalogue tiers in
        // quality order (gpt-4-sim → gpt-3.5-sim → llama-7b-sim), every
        // tier sharing the one reliability state and call cache. Built
        // cheapest-first so each tier owns the next.
        let ladder = |primary: &'static ModelSpec| -> LlmClient {
            let start = aryn_llm::ALL_MODELS
                .iter()
                .position(|s| s.name == primary.name)
                .unwrap_or(0);
            let mut chain: Option<LlmClient> = None;
            for spec in aryn_llm::ALL_MODELS[start..].iter().rev() {
                let mut c = attach(LlmClient::new(Arc::new(MockLlm::new(spec, cfg.sim.clone()))));
                if let Some(slot) = &reliability_slot {
                    // Session mode: every tier holds the SAME slot, so one
                    // `install` per question repoints the whole ladder.
                    c = c.with_reliability_slot(Arc::clone(slot));
                } else if let Some(state) = &reliability_state {
                    c = c.with_reliability(Arc::clone(state));
                }
                if let Some(cheaper) = chain.take() {
                    c = c.with_fallback(cheaper);
                }
                chain = Some(c);
            }
            chain.unwrap_or_else(|| {
                // Unreachable while ALL_MODELS is non-empty; a bare primary
                // keeps construction total without panicking.
                attach(LlmClient::new(Arc::new(MockLlm::new(
                    primary,
                    cfg.sim.clone(),
                ))))
            })
        };
        let exec_client = if reliability_state.is_some() {
            ladder(cfg.exec_model)
        } else {
            attach(LlmClient::new(Arc::new(MockLlm::new(cfg.exec_model, cfg.sim.clone()))))
        };
        // Pay-as-you-go knowledge graph over the ingested stores (§7): built
        // from extracted properties, merged across indexes. O(docs), so
        // serving injects one prebuilt graph rather than paying per session.
        let graph: Arc<aryn_index::GraphStore> = match wiring.as_ref().and_then(|w| w.graph.clone())
        {
            Some(prebuilt) => prebuilt,
            None => {
                let mut graph = aryn_index::GraphStore::new();
                for name in indexes {
                    ctx.with_store(name, |s| {
                        let _ = crate::kg::build_earnings_graph(s, &mut graph);
                        let _ = crate::kg::build_ntsb_graph(s, &mut graph);
                    })?;
                }
                Arc::new(graph)
            }
        };
        let mut executor = PlanExecutor::new(ctx, exec_client).with_graph(graph);
        for spec in aryn_llm::ALL_MODELS {
            let client = if reliability_state.is_some() {
                ladder(spec)
            } else {
                attach(LlmClient::new(Arc::new(MockLlm::new(spec, cfg.sim.clone()))))
            };
            executor = executor.with_model(spec.name, client);
        }
        // The static cost analyzer sees the same knobs execution runs under,
        // so its intervals are a checked contract on the real traces.
        let cost_knobs = (cfg.analyze_cost || cfg.enforce_budget).then(|| {
            let retry = aryn_llm::RetryPolicy::default();
            crate::costmodel::CostKnobs {
                default_model: cfg.exec_model,
                batch_max_items: cfg.batch_max_items.max(1),
                batch_token_budget: cfg.batch_token_budget,
                max_transient: retry.max_transient,
                max_reask: retry.max_reask,
                backoff_base_ms: retry.backoff_base_ms,
                reliability: reliability_state
                    .as_ref()
                    .map(|s| s.policy())
                    .filter(|p| p.enabled()),
                chaos: cfg.chaos.is_some(),
                call_cache: call_cache.is_some(),
                workers: cfg.exec_workers.max(1),
            }
        });
        let session_reliability = match (&reliability_state, reliability_slot) {
            (Some(state), Some(slot)) => Some((Arc::clone(state), slot)),
            _ => None,
        };
        Ok(Luna {
            schemas,
            planner_client,
            executor,
            optimizer,
            max_replan: cfg.max_replan,
            call_cache,
            cost_knobs,
            enforce_budget: cfg.enforce_budget,
            session_reliability,
        })
    }

    pub fn schemas(&self) -> &[IndexSchema] {
        &self.schemas
    }

    /// The span collector shared with the executor and the Sycamore engine.
    pub fn telemetry(&self) -> Telemetry {
        self.executor.telemetry.clone()
    }

    pub fn context(&self) -> &sycamore::Context {
        &self.executor.ctx
    }

    /// The knowledge graph built from the ingested stores.
    pub fn graph(&self) -> Option<&aryn_index::GraphStore> {
        self.executor.graph.as_deref()
    }

    /// Pins every index Luna plans against to its current MVCC snapshot:
    /// until [`Luna::unpin_indexes`], each question reads those stores
    /// through the frozen views, bit-stable while an ingest stream mutates
    /// the live stores underneath. Without explicit pins, each question
    /// still pins its scanned stores to one snapshot at plan start —
    /// explicit pinning just fixes *which* snapshot across questions.
    pub fn pin_indexes(&self) -> Result<()> {
        for s in &self.schemas {
            self.executor.pin_index(&s.index)?;
        }
        Ok(())
    }

    /// Drops explicit snapshot pins; questions go back to snapshotting
    /// their stores at plan start.
    pub fn unpin_indexes(&self) {
        self.executor.unpin_all();
    }

    /// Session mode only: the reliability state the most recent `ask` ran
    /// under. Its budget clocks are that question's spend (each `ask`
    /// installs a fresh fork), so the serving layer reads per-question
    /// deadline/token/$ accounting here. `None` in classic mode.
    pub fn question_reliability(&self) -> Option<Arc<ReliabilityState>> {
        self.session_reliability
            .as_ref()
            .map(|(_, slot)| slot.current())
    }

    /// Plans a question via the LLM, validating and re-asking on failure —
    /// the paper's planning loop — then gates the result on the semantic
    /// analyzer ([`crate::analyze`]). On Error-severity diagnostics the
    /// planner is re-prompted once with the rendered diagnostics (the repair
    /// loop) before the question fails.
    pub fn plan(&self, question: &str) -> Result<Plan> {
        let (plan, analysis) = self.plan_with_analysis(question)?;
        if analysis.has_errors() {
            return Err(ArynError::InvalidPlan(format!(
                "plan failed semantic analysis:\n{}",
                analysis.render_errors()
            )));
        }
        Ok(plan)
    }

    /// Plans a question and returns the full analyzer report without gating
    /// on it — the REPL's `check` command. The repair loop still runs, so a
    /// clean result means "clean after at most one repair".
    pub fn check(&self, question: &str) -> Result<(Plan, Analysis)> {
        self.plan_with_analysis(question)
    }

    /// Analyzes an already-built plan against the discovered schemas. With
    /// `analyze_cost`/`enforce_budget` on, the static cost analyzer's
    /// L22–L27 feasibility and liveness diagnostics join the report.
    pub fn analyze(&self, plan: &Plan) -> Analysis {
        match &self.cost_knobs {
            Some(knobs) => crate::analyze::Analyzer::new()
                .with_rule(Box::new(crate::costmodel::CostRules {
                    knobs: knobs.clone(),
                    enforce: self.enforce_budget,
                }))
                .analyze(plan, &self.schemas),
            None => crate::analyze::analyze(plan, &self.schemas),
        }
    }

    /// The static cost report for a plan, when cost analysis is enabled.
    pub fn estimate_cost(&self, plan: &Plan) -> Option<crate::costmodel::CostReport> {
        self.cost_knobs
            .as_ref()
            .map(|k| crate::costmodel::estimate(plan, &self.schemas, k))
    }

    fn plan_with_analysis(&self, question: &str) -> Result<(Plan, Analysis)> {
        let schema_render = if self.schemas.is_empty() {
            Value::object()
        } else {
            self.schemas[0].render()
        };
        let base_prompt = tasks::plan(question, &schema_render, &PlanOp::KINDS);
        let mut prompt = base_prompt.clone();
        let mut last_err = None;
        let tel = self.executor.telemetry.clone();
        let scope = MeterScope::open([&self.planner_client]);
        let started = std::time::Instant::now();
        // Records the planning session as one span: LLM spend, re-plan
        // attempts, and whether a valid plan came out.
        let record = |replans: u32, outcome: &str, plan_nodes: usize| {
            if !tel.is_enabled() {
                return;
            }
            let (llm, cache) = scope.finish();
            let mut span = tel.span("plan", "planner");
            span.note(format!("question={question}"));
            span.note(format!("outcome={outcome}"));
            span.set("retries", llm.retries)
                .set("replans", replans as u64)
                .set("plan_nodes", plan_nodes as u64)
                .gauge("wall_ms", started.elapsed().as_secs_f64() * 1e3);
            sycamore::stats::write_llm_group(&mut span, &llm, &cache);
            span.finish();
        };
        // One semantic repair re-prompt per question: structural re-asks are
        // cheap resamples, but a semantic failure feeds the rendered
        // diagnostics back as a prompt param (DocETL's agentic-rewrite
        // pattern applied to our validation stage).
        let mut repaired = false;
        for attempt in 0..=self.max_replan {
            let v = match self.planner_client.generate_json(&prompt, 2048) {
                Ok(v) => v,
                Err(e) => {
                    // Unparseable output counts as a failed attempt too.
                    prompt = format!(
                        "{base_prompt}\nAttempt {attempt}: no valid JSON was produced ({e}). Produce a corrected plan."
                    );
                    last_err = Some(e);
                    continue;
                }
            };
            match Plan::from_value(&v).and_then(|p| {
                p.validate()?;
                Ok(p)
            }) {
                Ok(plan) => {
                    let analysis = self.analyze(&plan);
                    self.record_analysis("analyze:plan", &analysis);
                    if analysis.has_errors() && !repaired {
                        repaired = true;
                        let rendered = analysis.render_errors();
                        prompt = tasks::plan_repair(
                            question,
                            &schema_render,
                            &PlanOp::KINDS,
                            &rendered,
                        );
                        last_err = Some(ArynError::InvalidPlan(rendered));
                        continue;
                    }
                    let nodes = plan.topo_order().map(|o| o.len()).unwrap_or(0);
                    let outcome = if analysis.has_errors() {
                        "semantic-errors"
                    } else {
                        "ok"
                    };
                    record(attempt, outcome, nodes);
                    return Ok((plan, analysis));
                }
                Err(e) => {
                    // Re-prompt with feedback: a fresh prompt also resamples
                    // the model's output, as re-asking a real LLM would.
                    prompt = format!(
                        "{base_prompt}\nAttempt {attempt}: the previous plan was invalid ({e}). Produce a corrected plan."
                    );
                    last_err = Some(e);
                }
            }
        }
        record(self.max_replan, "failed", 0);
        Err(last_err.unwrap_or_else(|| ArynError::Plan("planning failed".into())))
    }

    /// Records an analyzer verdict as telemetry counters: per-severity
    /// tallies plus one counter per lint code that fired.
    fn record_analysis(&self, site: &str, analysis: &Analysis) {
        let tel = &self.executor.telemetry;
        if !tel.is_enabled() {
            return;
        }
        let mut counters: Vec<(&str, u64)> = vec![
            ("errors", analysis.count(Severity::Error) as u64),
            ("warnings", analysis.count(Severity::Warning) as u64),
            ("hints", analysis.count(Severity::Hint) as u64),
        ];
        let mut by_code: std::collections::BTreeMap<&str, u64> = Default::default();
        for d in &analysis.diagnostics {
            *by_code.entry(d.code).or_insert(0) += 1;
        }
        counters.extend(by_code);
        tel.count(site, "analyzer", &counters);
    }

    /// Optimizes a plan, returning the rewritten plan and notes. Each
    /// optimizer decision (e.g. rewriting a semantic LLM filter into a
    /// structured string match) is recorded as a span note. Every pass
    /// output is re-checked by the analyzer; a pass that breaks the plan is
    /// an error in all build profiles.
    pub fn optimize(&self, plan: &Plan) -> Result<Optimized> {
        let optimized = optimize(plan, &self.schemas, &self.optimizer)?;
        self.record_analysis("analyze:optimize", &self.analyze(&optimized.plan));
        let tel = &self.executor.telemetry;
        if tel.is_enabled() {
            let mut span = tel.span("optimize", "optimizer");
            span.set("rewrites", optimized.notes.len() as u64).set(
                "plan_nodes",
                optimized.plan.topo_order().map(|o| o.len()).unwrap_or(0) as u64,
            );
            for note in &optimized.notes {
                span.note(note.clone());
            }
            span.finish();
        }
        Ok(optimized)
    }

    /// Executes a (validated) plan with tracing.
    pub fn execute(&self, plan: &Plan) -> Result<LunaResult> {
        self.executor.execute(plan)
    }

    /// The full path: plan → optimize → execute. The answer carries the
    /// telemetry spans recorded while serving this question (planner,
    /// optimizer, per-operator, and any engine stage spans).
    pub fn ask(&self, question: &str) -> Result<LunaAnswer> {
        // Each question gets a fresh deadline/retry budget; circuit-breaker
        // state persists across questions (an open endpoint stays open until
        // its cooldown elapses on the shared clock). Session mode repoints
        // the ladder's shared slot at a fresh fork — budget clocks are
        // question-scoped and never shared with concurrent sessions, while
        // the breaker board behind the fork stays shared. Classic mode keeps
        // the legacy in-place reset, safe because the context-installed
        // state has exactly one caller.
        if let Some((base, slot)) = &self.session_reliability {
            slot.install(base.fork());
        } else if let Some(state) = self.executor.ctx.reliability() {
            state.reset_budget();
        }
        let tel = self.executor.telemetry.clone();
        let mark = tel.span_count();
        let plan = self.plan(question)?;
        let optimized = self.optimize(&plan)?;
        // The envelope is computed over the executed (optimized) plan so the
        // per-node intervals line up with the execution traces.
        let cost = self.estimate_cost(&optimized.plan);
        let result = self.execute(&optimized.plan)?;
        let trace = tel.spans_since(mark);
        Ok(LunaAnswer {
            question: question.to_string(),
            plan,
            optimized_plan: optimized.plan,
            optimizer_notes: optimized.notes,
            result,
            trace,
            cost,
        })
    }

    /// `EXPLAIN ANALYZE` for a question, including plans the analyzer gate
    /// rejects: instead of a bare error, the rendered diagnostics (code,
    /// offending node path, suggestion) and the offending plan are emitted,
    /// so a rejected plan is as explainable as an executed one.
    pub fn explain_question(&self, question: &str) -> String {
        let first_err = match self.ask(question) {
            Ok(answer) => return answer.explain_analyze(),
            Err(e) => e,
        };
        match self.check(question) {
            Ok((plan, analysis)) if analysis.has_errors() => {
                let mut out = format!(
                    "EXPLAIN ANALYZE {question:?}\nplan rejected by analyzer ({} errors, {} warnings):\n",
                    analysis.count(Severity::Error),
                    analysis.count(Severity::Warning),
                );
                for d in &analysis.diagnostics {
                    out.push_str(&format!("  {d}\n"));
                }
                out.push_str("\nRejected plan:\n");
                out.push_str(&plan.describe());
                out
            }
            _ => format!("EXPLAIN ANALYZE {question:?}\nfailed: {first_err}"),
        }
    }

    /// Executes an edited plan (the human-in-the-loop path): the plan is
    /// re-validated and re-analyzed before running.
    pub fn execute_edited(&self, plan: &Plan) -> Result<LunaResult> {
        plan.validate()?;
        let optimized = self.optimize(plan)?;
        self.execute(&optimized.plan)
    }

    /// Total planning + execution spend so far (simulated dollars),
    /// including spend by fallback tiers behind degradation ladders.
    pub fn total_cost(&self) -> f64 {
        self.usage_stats().usage.cost_usd
    }

    /// Aggregate usage across the planner and every execution client
    /// (fallback tiers included, each meter once). `calls` counts real model
    /// calls only (cache hits never meter), so call-count deltas between
    /// runs measure what the cache saved.
    pub fn usage_stats(&self) -> UsageStats {
        let clients = [&self.planner_client, &self.executor.client]
            .into_iter()
            .chain(self.executor.model_clients.values());
        MeterScope::open(clients).totals().0
    }

    /// Counters of the shared call cache (zeros when the cache is off).
    pub fn cache_stats(&self) -> CacheStats {
        self.call_cache.as_ref().map(|c| c.stats()).unwrap_or_default()
    }

    /// The shared call cache, when enabled.
    pub fn call_cache(&self) -> Option<Arc<LlmCallCache>> {
        self.call_cache.clone()
    }
}

/// Everything Luna can tell you about one question.
#[derive(Debug, Clone)]
pub struct LunaAnswer {
    pub question: String,
    /// The plan as the LLM produced it.
    pub plan: Plan,
    /// The plan as executed, after optimization.
    pub optimized_plan: Plan,
    pub optimizer_notes: Vec<String>,
    pub result: LunaResult,
    /// Telemetry spans recorded while serving this question.
    pub trace: Trace,
    /// Static cost envelope of the executed plan (when `analyze_cost` /
    /// `enforce_budget` is on): the actual traces must land inside it.
    pub cost: Option<crate::costmodel::CostReport>,
}

impl LunaAnswer {
    pub fn answer(&self) -> &str {
        &self.result.answer
    }

    /// The full explainability bundle: NL plan, code, notes, trace.
    pub fn explain(&self) -> String {
        format!(
            "Question: {}\n\nPlan:\n{}\nGenerated code:\n{}\nOptimizer notes:\n{}\n\nExecution trace:\n{}",
            self.question,
            self.optimized_plan.describe(),
            crate::codegen::to_python(&self.optimized_plan),
            if self.optimizer_notes.is_empty() {
                "  (none)".to_string()
            } else {
                self.optimizer_notes
                    .iter()
                    .map(|n| format!("  - {n}"))
                    .collect::<Vec<_>>()
                    .join("\n")
            },
            self.result.render_trace()
        )
    }

    /// An `EXPLAIN ANALYZE`-style rendering: per-operator row counts, wall
    /// times, LLM calls/tokens/retries and cost, followed by the planner and
    /// optimizer spans and the trace fingerprint — the paper's §6
    /// traceability surface for one answered question.
    pub fn explain_analyze(&self) -> String {
        let mut out = format!("EXPLAIN ANALYZE {:?}\n", self.question);
        for t in &self.result.traces {
            out.push_str(&format!(
                "out_{} [{}] {}\n  rows: {} -> {}  wall: {:.2} ms\n",
                t.node_id, t.op_kind, t.description, t.rows_in, t.rows_out, t.wall_ms
            ));
            if t.llm.calls > 0 {
                out.push_str(&format!(
                    "  llm: {} calls  {} in / {} out tokens  {} retries  ${:.4}\n",
                    t.llm.calls,
                    t.llm.usage.input_tokens,
                    t.llm.usage.output_tokens,
                    t.llm.retries,
                    t.llm.usage.cost_usd
                ));
            }
            push_savings(&mut out, "  ", &t.llm, &t.cache);
        }
        if let Some(p) = self.trace.spans_of_kind("planner").first() {
            out.push_str(&format!(
                "planner: {} llm calls  {} replans  {} retries\n",
                p.counter("llm_calls"),
                p.counter("replans"),
                p.counter("retries")
            ));
        }
        if let Some(o) = self.trace.spans_of_kind("optimizer").first() {
            out.push_str(&format!("optimizer: {} rewrites\n", o.counter("rewrites")));
            for note in &o.notes {
                out.push_str(&format!("  - {note}\n"));
            }
        }
        let stages = self.trace.spans_of_kind("stage");
        if !stages.is_empty() {
            // Morsel-execution summary from the engine's stage spans: these
            // are gauges (exact per-worker shard merges, but legally shaped
            // by worker count and morsel size, so they stay out of the
            // fingerprint).
            let workers = stages.iter().map(|s| s.gauge("workers") as usize).max().unwrap_or(0);
            let morsels: usize = stages.iter().map(|s| s.gauge("morsels") as usize).sum();
            let steals: usize = stages.iter().map(|s| s.gauge("steals") as usize).sum();
            if morsels > 0 {
                out.push_str(&format!(
                    "engine stages: {}  ({} workers, {} morsels, {} stolen)\n",
                    stages.len(),
                    workers,
                    morsels,
                    steals
                ));
            } else {
                out.push_str(&format!("engine stages: {}\n", stages.len()));
            }
        }
        // Live ingest streams observed under this question (recorded only
        // when a scanned store had a non-empty stream registered).
        for sp in self
            .trace
            .spans_of_kind("ingest")
            .iter()
            .filter(|s| s.name.starts_with("ingest@"))
        {
            out.push_str(&format!(
                "ingest stream [{}]: {} docs  {} seals  {} compactions  index lag {:.1} ms (max {:.1} ms)\n",
                sp.name.trim_start_matches("ingest@"),
                sp.counter("ingest_docs"),
                sp.counter("ingest_seals"),
                sp.counter("ingest_compactions"),
                sp.gauge("index_lag_ms"),
                sp.gauge("index_lag_max_ms"),
            ));
            // Durable stores add a recovery line when anything happened:
            // WAL traffic, replay at open, torn-tail truncation, or faults.
            let recovery = [
                ("wal appends", sp.counter("wal_appends")),
                ("wal replayed", sp.counter("wal_replayed")),
                ("torn tails truncated", sp.counter("torn_tail_truncated")),
                ("segments recovered", sp.counter("segments_recovered")),
                ("orphans removed", sp.counter("orphans_removed")),
                ("io errors", sp.counter("storage_io_errors")),
            ];
            if recovery.iter().any(|(_, n)| *n > 0) {
                let parts: Vec<String> = recovery
                    .iter()
                    .filter(|(_, n)| *n > 0)
                    .map(|(k, n)| format!("{n} {k}"))
                    .collect();
                out.push_str(&format!("  durability: {}\n", parts.join("  ")));
            }
        }
        let (llm, cache) = (self.result.llm(), self.result.cache());
        out.push_str(&format!(
            "totals: {} llm calls  {} tokens  {} retries  ${:.4}  fingerprint {:016x}\n",
            llm.calls,
            llm.usage.tokens(),
            llm.retries,
            llm.usage.cost_usd,
            self.trace.fingerprint()
        ));
        push_savings(&mut out, "", &llm, &cache);
        if let Some(cost) = &self.cost {
            out.push_str(&cost.render());
            out.push_str(&format!(
                "predicted vs actual: calls {} actual {}  tokens {} actual {}  cost {} actual ${:.4}\n",
                cost.llm.calls.render(),
                llm.calls,
                cost.llm.total_tokens().render(),
                llm.usage.tokens(),
                cost.llm.cost_usd.render(),
                llm.usage.cost_usd,
            ));
        }
        out
    }
}

/// The cache / batch / degraded lines of one accounting record — a node's or
/// the whole answer's — each present only when something happened.
fn push_savings(out: &mut String, indent: &str, llm: &UsageStats, cache: &CacheStats) {
    if cache.hits > 0 {
        out.push_str(&format!(
            "{indent}cache: {} hits  ${:.4} saved\n",
            cache.hits, cache.cost_saved_usd
        ));
    }
    if llm.batched_calls > 0 {
        out.push_str(&format!(
            "{indent}batch: {} packed calls  {} calls saved\n",
            llm.batched_calls, llm.calls_saved
        ));
    }
    if llm.fallback_calls + llm.degraded_docs + llm.breaker_trips > 0 {
        out.push_str(&format!(
            "{indent}degraded: {} fallback calls  {} degraded docs  {} breaker trips\n",
            llm.fallback_calls, llm.degraded_docs, llm.breaker_trips
        ));
    }
}

/// Ingest helper: partitions a registered lake, extracts a property schema,
/// and writes the result as a document store — the ETL phase Luna plans
/// against. Returns the number of documents ingested.
pub fn ingest_lake(
    ctx: &sycamore::Context,
    lake: &str,
    store: &str,
    client: &LlmClient,
    schema: Value,
    detector: aryn_partitioner::Detector,
) -> Result<usize> {
    ctx.read_lake(lake)?
        .partition(
            lake,
            sycamore::PartitionCfg {
                detector,
                ..sycamore::PartitionCfg::default()
            },
        )
        .extract_properties(client, schema)
        .write_store(store)
}

/// The standard NTSB extraction schema used by examples and benches.
pub fn ntsb_schema() -> Value {
    aryn_core::obj! {
        "us_state_abbrev" => "string",
        "city" => "string",
        "date" => "string",
        "year" => "int",
        "aircraft_model" => "string",
        "cause_category" => "string",
        "cause_detail" => "string",
        "weather_related" => "bool",
        "fatal" => "int",
    }
}

/// The standard earnings extraction schema.
pub fn earnings_schema() -> Value {
    aryn_core::obj! {
        "company" => "string",
        "ticker" => "string",
        "sector" => "string",
        "quarter" => "string",
        "year" => "int",
        "revenue_musd" => "float",
        "growth_pct" => "float",
        "eps" => "float",
        "guidance" => "string",
        "ceo" => "string",
        "ceo_changed" => "bool",
        "sentiment" => "string",
    }
}
