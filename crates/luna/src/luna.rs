//! The Luna front end: natural-language question → plan (via the LLM) →
//! optimize → Sycamore execution, with human-in-the-loop plan editing.

use crate::analyze::{Analysis, Analyzer, CheckedPlan};
use crate::costmodel::{CostKnobs, CostRules};
use crate::exec::{LunaResult, PlanExecutor};
use crate::ops::{Plan, PlanOp};
use crate::optimize::{Optimized, OptimizerCfg};
use crate::planner::{PlannerEngine, RulePlanner};
use crate::schema::IndexSchema;
use aryn_core::{ArynError, Result, Severity, Value};
use aryn_index::GraphStore;
use aryn_llm::prompt::tasks;
use aryn_llm::{
    CacheStats, FairShare, LlmCallCache, LlmClient, MeterScope, MockLlm, ModelSpec,
    ReliabilitySlot, ReliabilityState, SimConfig, TaskEngine, UsageStats, GPT4_SIM,
};
use aryn_telemetry::{Telemetry, Trace};
use std::sync::Arc;

/// Re-plan attempts when the produced plan fails validation.
const MAX_REPLAN: u32 = 3;
/// In-memory entry bound for a standalone Luna's call cache (LRU beyond it).
const CALL_CACHE_CAPACITY: usize = 4096;

/// What a Luna shares with the rest of its deployment: call cache,
/// fair-share gate, reliability base state, discovered schemas and the
/// knowledge graph. [`crate::serve::QueryService`] builds these once and
/// hands every session a wiring that references them; a standalone Luna
/// builds its own from its [`LunaConfig`]. Either way `Luna::new` wires
/// its clients from this one struct.
pub struct SessionWiring {
    /// Tenant the session belongs to (fair-share identity; also the breaker
    /// scope when the reliability state is tenant-scoped). Empty for a
    /// standalone Luna.
    pub tenant: String,
    /// Tag stamped on every stage this session executes (conventionally
    /// `tenant/session-N`), reported via `StageStats::tenant` and stage
    /// span notes. Empty = untagged.
    pub session_tag: String,
    /// Shared call cache. `None` = no cache for this session.
    pub call_cache: Option<Arc<LlmCallCache>>,
    /// Cache-key namespace: `Some` isolates this session's entries from
    /// other namespaces in the shared cache (per-tenant cache policy);
    /// `None` shares the global key space.
    pub cache_namespace: Option<String>,
    /// The base reliability state (for a session, a tenant-scoped fork of
    /// the service's). Each `ask` installs a fresh
    /// [`ReliabilityState::fork`] of it, so question budgets are isolated
    /// while breaker boards stay shared.
    pub reliability: Option<Arc<ReliabilityState>>,
    /// Fair-share LLM call-slot gate shared across all sessions.
    pub slots: Option<Arc<FairShare>>,
    /// The discovered schemas of the indexes Luna plans against.
    pub schemas: Vec<IndexSchema>,
    /// The knowledge graph over those indexes.
    pub graph: Arc<GraphStore>,
}

impl SessionWiring {
    /// A standalone Luna's wiring: no tenant, no fair-share gate, a private
    /// call cache and base reliability state from `cfg`, and the schemas
    /// and graph of `indexes`. Applies `cfg.exec_workers` first, as
    /// [`crate::serve::QueryService::new`] does for its sessions.
    fn standalone(
        ctx: &sycamore::Context,
        indexes: &[&str],
        cfg: &LunaConfig,
    ) -> Result<SessionWiring> {
        cfg.apply_context_knobs(ctx);
        let call_cache = match (cfg.call_cache, &cfg.call_cache_dir) {
            (false, _) => None,
            (true, None) => Some(Arc::new(LlmCallCache::with_capacity(CALL_CACHE_CAPACITY))),
            (true, Some(dir)) => Some(Arc::new(
                LlmCallCache::with_capacity(CALL_CACHE_CAPACITY).with_disk(ctx.vfs(), dir)?,
            )),
        };
        let (schemas, graph) = discover(ctx, indexes)?;
        Ok(SessionWiring {
            tenant: String::new(),
            session_tag: String::new(),
            call_cache,
            cache_namespace: None,
            reliability: cfg.reliability.map(ReliabilityState::new),
            slots: None,
            schemas,
            graph,
        })
    }
}

/// Discovers the schemas of `indexes` and builds the pay-as-you-go
/// knowledge graph over them (§7), merged across indexes. Both are O(docs),
/// so a service builds them once for all its sessions.
pub(crate) fn discover(
    ctx: &sycamore::Context,
    indexes: &[&str],
) -> Result<(Vec<IndexSchema>, Arc<GraphStore>)> {
    let mut schemas = Vec::with_capacity(indexes.len());
    let mut graph = GraphStore::new();
    for name in indexes {
        ctx.with_store(name, |s| {
            schemas.push(IndexSchema::discover(name, s.len(), s.schema()));
            let _ = crate::kg::build_earnings_graph(s, &mut graph);
            let _ = crate::kg::build_ntsb_graph(s, &mut graph);
        })?;
    }
    Ok((schemas, Arc::new(graph)))
}

/// How Luna runs the static cost analyzer ([`crate::costmodel`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CostAnalysis {
    /// No cost analysis.
    Off,
    /// L22–L27 feasibility/liveness diagnostics join the semantic analysis
    /// (warnings only), and each answer carries a
    /// [`crate::costmodel::CostReport`] that `explain_analyze` renders as
    /// predicted-vs-actual.
    Analyze,
    /// `Analyze`, and hard budget infeasibility (a deadline the optimistic
    /// latency bound already exceeds, a prompt that can never fit its model
    /// window) is an Error: the planner repair loop re-prompts once and
    /// `Luna::plan` rejects the plan before any execution-model call.
    Enforce,
}

/// Luna configuration.
///
/// [`GPT4_SIM`] plans every question (plan-generation quality comes from its
/// `plan` accuracy) and runs every plan node that pins no model.
pub struct LunaConfig {
    pub sim: SimConfig,
    pub optimizer: OptimizerCfg,
    /// Override for the planner brain registered on the simulated LLM
    /// (defaults to [`PlannerEngine`] over the discovered schemas). Tests
    /// inject engines here to exercise the repair loop.
    pub planner_engine: Option<Box<dyn TaskEngine>>,
    /// Enable the content-addressed LLM call cache ([`aryn_llm::cache`]):
    /// one cache shared by the planner, the default execution client, and
    /// every pinned model client, so repeated questions reuse identical
    /// temperature-0 completions. Off by default (call counts stay exact
    /// for tests and benchmarks that pin them).
    pub call_cache: bool,
    /// Optional disk tier directory (conventionally the lake dir), written
    /// through the context's VFS: entries persist across sessions and processes.
    pub call_cache_dir: Option<std::path::PathBuf>,
    /// Reliability policy ([`aryn_llm::reliability`]): per-call timeouts,
    /// a per-question deadline over the simulated clock that planning and
    /// execution both draw down, circuit breakers, and model-degradation
    /// chains (each execution model falls back to the next-cheaper
    /// catalogue tier, ultimately string matching). `None` (the default)
    /// keeps every call unguarded and call counts exact.
    pub reliability: Option<aryn_llm::ReliabilityPolicy>,
    /// Worker threads for the engine's morsel-driven per-document stages,
    /// applied to the context by `Luna::new` (the context's own default is
    /// one worker, for ETL). Defaults to the host's available parallelism.
    /// Never changes results, only wall time. Batch width and token budget
    /// (`Context::set_batch`) and the chaos schedule (`Context::set_chaos`)
    /// are read from the context itself.
    pub exec_workers: usize,
    /// Static cost analysis of every plan ([`CostAnalysis`]).
    pub cost_analysis: CostAnalysis,
    /// Serving-mode wiring ([`SessionWiring`]), injected by
    /// [`crate::serve::QueryService`]. `None` (the default) builds a
    /// standalone Luna's wiring from this config. `exec_workers` is applied
    /// to the context only when this is `None`; a service applies it once
    /// for all its sessions.
    pub session: Option<SessionWiring>,
}

impl Default for LunaConfig {
    fn default() -> Self {
        LunaConfig {
            sim: SimConfig::default(),
            optimizer: OptimizerCfg::default(),
            planner_engine: None,
            call_cache: false,
            call_cache_dir: None,
            reliability: None,
            exec_workers: std::thread::available_parallelism()
                .map_or(1, std::num::NonZeroUsize::get),
            cost_analysis: CostAnalysis::Off,
            session: None,
        }
    }
}

impl LunaConfig {
    /// Applies `exec_workers` to a live context (the sinks survive, unlike
    /// `with_exec`); one worker leaves the context's own setting alone.
    pub(crate) fn apply_context_knobs(&self, ctx: &sycamore::Context) {
        if self.exec_workers > 1 {
            ctx.set_workers(self.exec_workers);
        }
    }
}

/// The end-to-end natural-language query system.
pub struct Luna {
    schemas: Arc<[IndexSchema]>,
    planner_client: LlmClient,
    executor: PlanExecutor,
    optimizer: OptimizerCfg,
    call_cache: Option<Arc<LlmCallCache>>,
    cost_analysis: CostAnalysis,
    /// The base reliability state and the one slot the planner and every
    /// ladder tier hold. `ask` installs `base.fork()` into the slot, giving
    /// each question fresh budget clocks over the shared breaker board.
    reliability: Option<(Arc<ReliabilityState>, Arc<ReliabilitySlot>)>,
}

impl Luna {
    /// Builds Luna over a Sycamore context whose catalog already holds the
    /// ingested stores named in `indexes`.
    pub fn new(ctx: sycamore::Context, indexes: &[&str], cfg: LunaConfig) -> Result<Luna> {
        let mut cfg = cfg;
        let wiring = match cfg.session.take() {
            Some(wiring) => wiring,
            None => SessionWiring::standalone(&ctx, indexes, &cfg)?,
        };
        let SessionWiring {
            tenant,
            session_tag,
            call_cache,
            cache_namespace,
            reliability,
            slots,
            schemas,
            graph,
        } = wiring;
        // A session executes on its own tagged context handle: the tag is
        // per-handle (never shared), so concurrent sessions stamp their own
        // stage stats without racing.
        let ctx = if session_tag.is_empty() { ctx } else { ctx.with_session_tag(&session_tag) };
        let reliability = reliability.filter(|s| s.policy().enabled()).map(|base| {
            let slot = ReliabilitySlot::new(Arc::clone(&base));
            (base, slot)
        });
        // Every client Luna owns shares the call cache (under the session's
        // namespace), the fair-share gate, and the reliability slot, so
        // planning and execution draw on one question budget.
        let attach = |client: LlmClient| {
            let mut c = client;
            if let Some(cache) = &call_cache {
                c = c.with_cache(Arc::clone(cache));
            }
            if let Some(ns) = &cache_namespace {
                c = c.with_cache_namespace(ns);
            }
            if let Some(gate) = &slots {
                c = c.with_slots(Arc::clone(gate), &tenant);
            }
            if let Some((_, slot)) = &reliability {
                c = c.with_reliability_slot(Arc::clone(slot));
            }
            c
        };
        // The planner LLM: the rule planner registered as its `plan` brain
        // (or an injected engine, used by repair-loop tests).
        let engine = cfg.planner_engine.take().unwrap_or_else(|| {
            Box::new(PlannerEngine::new(RulePlanner::new(schemas.clone())))
        });
        let schemas = Arc::from(schemas);
        let planner_llm = MockLlm::new(&GPT4_SIM, cfg.sim.clone()).with_engine(engine);
        let planner_client = attach(LlmClient::new(Arc::new(planner_llm)).with_policy(
            aryn_llm::RetryPolicy {
                max_reask: 4,
                ..aryn_llm::RetryPolicy::default()
            },
        ));
        // Execution clients: default plus one per catalogue model, so the
        // optimizer's routing decisions have real endpoints. Under a
        // reliability policy each client is the head of a degradation
        // ladder: its fallback chain walks the cheaper catalogue tiers in
        // quality order (gpt-4-sim → gpt-3.5-sim → llama-7b-sim). Built
        // cheapest-first so each tier owns the next.
        let model = |spec: &'static ModelSpec| {
            attach(LlmClient::new(Arc::new(MockLlm::new(spec, cfg.sim.clone()))))
        };
        let exec_client = |primary: &'static ModelSpec| -> LlmClient {
            if reliability.is_none() {
                return model(primary);
            }
            aryn_llm::registry::ladder(primary.name)
                .iter()
                .rev()
                .fold(None, |cheaper: Option<LlmClient>, spec| {
                    let c = model(spec);
                    Some(match cheaper {
                        Some(cheaper) => c.with_fallback(cheaper),
                        None => c,
                    })
                })
                .unwrap_or_else(|| model(primary))
        };
        let mut executor = PlanExecutor::new(ctx, exec_client(&GPT4_SIM)).with_graph(graph);
        for spec in aryn_llm::ALL_MODELS {
            executor = executor.with_model(spec.name, exec_client(spec));
        }
        Ok(Luna {
            schemas,
            planner_client,
            executor,
            optimizer: cfg.optimizer,
            call_cache,
            cost_analysis: cfg.cost_analysis,
            reliability,
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
        for s in self.schemas.iter() {
            self.executor.pin_index(&s.index)?;
        }
        Ok(())
    }

    /// Drops explicit snapshot pins; questions go back to snapshotting
    /// their stores at plan start.
    pub fn unpin_indexes(&self) {
        self.executor.unpin_all();
    }

    /// The reliability state the most recent `ask` ran under. Its budget
    /// clocks are that question's spend, planning included (each `ask`
    /// installs a fresh fork), so the serving layer reads per-question
    /// deadline/token/$ accounting here. `None` without an enabled policy.
    pub fn question_reliability(&self) -> Option<Arc<ReliabilityState>> {
        self.reliability.as_ref().map(|(_, slot)| slot.current())
    }

    /// Plans a question via the LLM, validating and re-asking on failure —
    /// the paper's planning loop — then gates the result on the semantic
    /// analyzer ([`crate::analyze`]). On Error-severity diagnostics the
    /// planner is re-prompted once with the rendered diagnostics (the repair
    /// loop) before the question fails.
    pub fn plan(&self, question: &str) -> Result<Plan> {
        self.plan_checked(question, &self.analyzer(&self.cost_knobs())).map(CheckedPlan::into_plan)
    }

    /// [`Luna::plan`], as the planning gate's check of the plan.
    fn plan_checked(&self, question: &str, analyzer: &Analyzer) -> Result<CheckedPlan> {
        let (plan, analysis) = self.plan_with_analysis(question, analyzer)?;
        CheckedPlan::new("plan failed semantic analysis", plan, analysis, Arc::clone(&self.schemas))
    }

    /// Plans a question and returns the full analyzer report without gating
    /// on it — the REPL's `check` command. The repair loop still runs, so a
    /// clean result means "clean after at most one repair".
    pub fn check(&self, question: &str) -> Result<(Plan, Analysis)> {
        self.plan_with_analysis(question, &self.analyzer(&self.cost_knobs()))
    }

    /// The cost-model knobs a question runs under: the context's execution
    /// settings plus the reliability policy and call cache Luna's execution
    /// clients carry. Built per question, so settings changed on the
    /// context after `Luna::new` price and annotate plans too.
    pub fn cost_knobs(&self) -> CostKnobs {
        CostKnobs::from_context(&self.executor.ctx).with_clients([&self.executor.client])
    }

    /// Analyzes an already-built plan against the discovered schemas. With
    /// `cost_analysis` on, the static cost analyzer's L22–L27 feasibility
    /// and liveness diagnostics join the report.
    pub fn analyze(&self, plan: &Plan) -> Analysis {
        self.analyzer(&self.cost_knobs()).analyze(plan, &self.schemas)
    }

    /// The analyzer Luna checks plans with: the default rules, plus the cost
    /// rules under `knobs` when `cost_analysis` is on.
    fn analyzer(&self, knobs: &CostKnobs) -> Analyzer {
        let analyzer = Analyzer::new();
        if self.cost_analysis == CostAnalysis::Off {
            return analyzer;
        }
        let enforce = self.cost_analysis == CostAnalysis::Enforce;
        analyzer.with_rule(Box::new(CostRules { knobs: knobs.clone(), enforce }))
    }

    /// The static cost report for a plan, when cost analysis is enabled.
    pub fn estimate_cost(&self, plan: &Plan) -> Option<crate::costmodel::CostReport> {
        self.estimate_with(plan, &self.cost_knobs())
    }

    fn estimate_with(
        &self,
        plan: &Plan,
        knobs: &CostKnobs,
    ) -> Option<crate::costmodel::CostReport> {
        (self.cost_analysis != CostAnalysis::Off)
            .then(|| crate::costmodel::estimate(plan, &self.schemas, knobs))
    }

    fn plan_with_analysis(&self, question: &str, analyzer: &Analyzer) -> Result<(Plan, Analysis)> {
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
        for attempt in 0..=MAX_REPLAN {
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
                    let analysis = analyzer.analyze(&plan, &self.schemas);
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
        record(MAX_REPLAN, "failed", 0);
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
    /// structured string match) is recorded as a span note. The input and
    /// every pass that rewrites it are checked by the analyzer; a pass that
    /// breaks the plan is an error in all build profiles.
    pub fn optimize(&self, plan: &Plan) -> Result<Optimized> {
        let knobs = self.cost_knobs();
        let analyzer = self.analyzer(&knobs);
        let checked = analyzer.check(plan, Arc::clone(&self.schemas))?;
        let (checked, notes) = self.rewrite(checked, &analyzer, &knobs)?;
        Ok(Optimized { plan: checked.into_plan(), notes })
    }

    /// The optimizer over a checked plan ([`crate::optimize::rewrite`]),
    /// recording the checked rewrite's analysis and the rewrite notes.
    fn rewrite(&self, plan: CheckedPlan, analyzer: &Analyzer, knobs: &CostKnobs) -> Result<(CheckedPlan, Vec<String>)> {
        let (checked, notes) = crate::optimize::rewrite(plan, analyzer, &self.optimizer, knobs)?;
        self.record_analysis("analyze:optimize", checked.analysis());
        let tel = &self.executor.telemetry;
        if tel.is_enabled() {
            let mut span = tel.span("optimize", "optimizer");
            span.set("rewrites", notes.len() as u64).set("plan_nodes", checked.plan().nodes.len() as u64);
            for note in &notes {
                span.note(note.clone());
            }
            span.finish();
        }
        Ok((checked, notes))
    }

    /// Executes a plan with tracing; the executor checks it against the
    /// stores it scans first.
    pub fn execute(&self, plan: &Plan) -> Result<LunaResult> {
        self.executor.execute(plan)
    }

    /// The full path: plan → check → optimize → run. The answer carries the
    /// telemetry spans recorded while serving this question (planner,
    /// optimizer, per-operator, and any engine stage spans).
    pub fn ask(&self, question: &str) -> Result<LunaAnswer> {
        // Each question gets fresh deadline/token/$ clocks, owned by no
        // other Luna; the breaker board behind the fork is shared, so an open
        // endpoint stays open until its cooldown elapses.
        if let Some((base, slot)) = &self.reliability {
            slot.install(base.fork());
        }
        let tel = self.executor.telemetry.clone();
        let mark = tel.span_count();
        let knobs = self.cost_knobs();
        let analyzer = self.analyzer(&knobs);
        let checked = self.plan_checked(question, &analyzer)?;
        let plan = checked.plan().clone();
        let (optimized, optimizer_notes) = self.rewrite(checked, &analyzer, &knobs)?;
        // The envelope is computed over the executed (optimized) plan so the
        // per-node intervals line up with the execution traces.
        let cost = self.estimate_with(optimized.plan(), &knobs);
        let result = self.executor.run(&optimized)?;
        let trace = tel.spans_since(mark);
        Ok(LunaAnswer {
            question: question.to_string(),
            plan,
            optimized_plan: optimized.into_plan(),
            optimizer_notes,
            result,
            trace,
            cost,
        })
    }

    /// Executes an edited plan (the human-in-the-loop path): the plan is
    /// checked, optimized and run like a planned one.
    pub fn execute_edited(&self, plan: &Plan) -> Result<LunaResult> {
        let knobs = self.cost_knobs();
        let analyzer = self.analyzer(&knobs);
        let checked = analyzer.check(plan, Arc::clone(&self.schemas))?;
        let (optimized, _) = self.rewrite(checked, &analyzer, &knobs)?;
        self.executor.run(&optimized)
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
    /// Static cost envelope of the executed plan (when `cost_analysis` is
    /// on): the actual traces must land inside it.
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
            // Where a structured read ran: the store's columns or documents.
            if let Some(sp) = self.trace.span_named(&format!("out_{}:{}", t.node_id, t.op_kind)) {
                let (columns, rows) = (sp.gauge("column_rows"), sp.gauge("row_rows"));
                if columns + rows > 0.0 {
                    out.push_str(&format!(
                        "  read: {columns} rows from columns ({} built), {rows} from documents\n",
                        sp.gauge("columns_built")
                    ));
                }
            }
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
            // by worker count and scheduling, so they stay out of the
            // fingerprint).
            let workers = stages.iter().map(|s| s.gauge("workers") as usize).max().unwrap_or(0);
            let morsels: usize = stages.iter().map(|s| s.gauge("morsels") as usize).sum();
            if morsels > 0 {
                out.push_str(&format!(
                    "engine stages: {}  ({} workers, {} morsels)\n",
                    stages.len(),
                    workers,
                    morsels
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
