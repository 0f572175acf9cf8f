//! Multi-tenant query service: many concurrent Luna sessions over shared
//! indexes and one shared call cache.
//!
//! The serving layer owns everything that must exist exactly once — the
//! discovered schemas, the knowledge graph, the LLM call cache, the breaker
//! board, the fair-share call-slot gate — and hands each session a cheap
//! [`SessionWiring`] referencing it:
//!
//! - **Admission control**: at most `max_active` questions execute at once;
//!   up to `queue_depth` more wait; beyond that `submit` fails fast with
//!   [`ArynError::Overloaded`] instead of letting latency collapse for
//!   everyone (the paper's "interactive analytics" posture: a crisp reject
//!   beats an unbounded queue).
//! - **Per-tenant budgets**: every tenant gets a scoped
//!   [`ReliabilityState`] fork of one base state; every question forks
//!   again, so deadline/token/$ clocks are question-scoped — one tenant
//!   burning its budget never drains another's, and a tenant's breaker
//!   storms trip `{tenant}/{model}` keys instead of the shared ones.
//! - **Fair-share LLM slots**: all sessions draw model-call slots from one
//!   [`FairShare`] gate scheduled by deficit round-robin over tenant
//!   weights, so an aggressor's question storm queues behind its own
//!   deficit instead of starving everyone else.
//! - **Cache-key policy**: [`CacheKeyPolicy::Shared`] lets tenants reuse
//!   each other's temperature-0 completions (cheapest);
//!   [`CacheKeyPolicy::PerTenant`] folds the tenant id into the cache key
//!   namespace so entries never cross tenants (isolation when prompts may
//!   embed tenant data).
//!
//! The closed-loop [`LoadGen`] drives the same deficit-round-robin
//! discipline as a discrete-event simulation on the virtual clock —
//! hundreds of simulated users issuing questions back-to-back — and
//! reports per-tenant p50/p99 latency plus the Jain fairness index, which
//! is how the serving bench and the CI fairness guard measure that one
//! tenant's storm cannot starve the others.

use crate::luna::{Luna, LunaConfig, SessionWiring};
use crate::schema::IndexSchema;
use aryn_core::{ArynError, Result};
use aryn_llm::{
    jain_index, DrrQueue, FairShare, FairShareStats, LlmCallCache, ReliabilityPolicy,
    ReliabilityState, SimConfig,
};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// Re-acquires a poisoned lock: state behind these mutexes is counters and
/// queues that stay coherent even if a holder panicked mid-update.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// How cache keys are scoped across tenants in the shared call cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheKeyPolicy {
    /// One key space: tenants reuse each other's temperature-0 completions.
    Shared,
    /// The tenant id is folded into every cache key (a disjoint namespace
    /// per tenant): entries never leak across tenants.
    PerTenant,
}

/// One tenant of the service.
#[derive(Debug, Clone)]
pub struct TenantSpec {
    pub id: String,
    /// Fair-share weight: a tenant with weight 2.0 gets twice the LLM call
    /// slots of a weight-1.0 tenant under contention.
    pub weight: f64,
    /// Per-tenant reliability/budget override; `None` inherits the
    /// service-wide policy.
    pub policy: Option<ReliabilityPolicy>,
}

impl TenantSpec {
    pub fn new(id: &str, weight: f64) -> TenantSpec {
        TenantSpec { id: id.to_string(), weight, policy: None }
    }

    pub fn with_policy(mut self, policy: ReliabilityPolicy) -> TenantSpec {
        self.policy = Some(policy);
        self
    }
}

/// Service-wide knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Questions executing concurrently before new arrivals queue.
    pub max_active: usize,
    /// Arrivals waiting beyond `max_active` before `submit` rejects with
    /// [`ArynError::Overloaded`].
    pub queue_depth: usize,
    /// Capacity of the fair-share LLM call-slot gate shared by all
    /// sessions.
    pub llm_slots: usize,
    /// Cache-key scoping across tenants.
    pub cache_policy: CacheKeyPolicy,
    /// In-memory entry bound for the shared call cache.
    pub cache_capacity: usize,
    /// Base reliability policy (per-question deadline/token/$ budgets and
    /// breaker tuning); tenants may override via [`TenantSpec::policy`].
    pub reliability: ReliabilityPolicy,
    pub tenants: Vec<TenantSpec>,
    pub sim: SimConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            max_active: 8,
            queue_depth: 32,
            llm_slots: 4,
            cache_policy: CacheKeyPolicy::Shared,
            cache_capacity: 8192,
            reliability: ReliabilityPolicy::standard(),
            tenants: Vec::new(),
            sim: SimConfig::default(),
        }
    }
}

// ---------------------------------------------------------------------------
// Admission control
// ---------------------------------------------------------------------------

#[derive(Default)]
struct AdmissionInner {
    active: usize,
    waiting: usize,
}

/// Bounded-queue admission: `max_active` run, `queue_depth` wait, the rest
/// are rejected fast.
pub struct Admission {
    max_active: usize,
    queue_depth: usize,
    inner: Mutex<AdmissionInner>,
    cv: Condvar,
}

impl Admission {
    pub fn new(max_active: usize, queue_depth: usize) -> Arc<Admission> {
        Arc::new(Admission {
            max_active: max_active.max(1),
            queue_depth,
            inner: Mutex::new(AdmissionInner::default()),
            cv: Condvar::new(),
        })
    }

    /// Admits the caller, blocking in the bounded queue if the service is
    /// at capacity; errs [`ArynError::Overloaded`] when the queue is full.
    pub fn enter(self: &Arc<Self>) -> Result<AdmissionGuard> {
        let mut g = lock(&self.inner);
        if g.active >= self.max_active {
            if g.waiting >= self.queue_depth {
                return Err(ArynError::Overloaded { active: g.active, queued: g.waiting });
            }
            g.waiting += 1;
            while g.active >= self.max_active {
                g = self.cv.wait(g).unwrap_or_else(std::sync::PoisonError::into_inner);
            }
            g.waiting -= 1;
        }
        g.active += 1;
        Ok(AdmissionGuard { adm: Arc::clone(self) })
    }

    /// (active, waiting) right now.
    pub fn load(&self) -> (usize, usize) {
        let g = lock(&self.inner);
        (g.active, g.waiting)
    }
}

/// Releases the admission slot on drop and wakes one waiter.
pub struct AdmissionGuard {
    adm: Arc<Admission>,
}

impl Drop for AdmissionGuard {
    fn drop(&mut self) {
        let mut g = lock(&self.adm.inner);
        g.active = g.active.saturating_sub(1);
        drop(g);
        self.adm.cv.notify_one();
    }
}

// ---------------------------------------------------------------------------
// Per-tenant serving stats
// ---------------------------------------------------------------------------

/// Per-tenant counters the service accumulates across questions.
#[derive(Debug, Default, Clone)]
pub struct TenantStats {
    /// Questions submitted (answered + failed + rejected).
    pub questions: u64,
    pub answered: u64,
    /// Rejections at admission ([`ArynError::Overloaded`]).
    pub overloaded: u64,
    /// Questions that ran out of their simulated deadline.
    pub deadline_exceeded: u64,
    /// Questions that ran out of token or dollar budget.
    pub budget_exhausted: u64,
    /// Other failures (planner rejects, execution errors…).
    pub failed: u64,
    /// Simulated milliseconds charged against this tenant's deadlines.
    pub spent_ms: f64,
    pub spent_tokens: u64,
    pub spent_usd: f64,
}

/// Snapshot of the whole service's accounting.
#[derive(Debug, Default, Clone)]
pub struct ServeStats {
    pub tenants: BTreeMap<String, TenantStats>,
}

impl ServeStats {
    /// Jain fairness index over per-tenant answered-question counts
    /// normalized by fair-share weight (1.0 = perfectly fair).
    pub fn jain_by_weight(&self, weights: &BTreeMap<String, f64>) -> f64 {
        let alloc: Vec<f64> = self
            .tenants
            .iter()
            .map(|(id, t)| t.answered as f64 / weights.get(id).copied().unwrap_or(1.0).max(1e-9))
            .collect();
        jain_index(&alloc)
    }
}

// ---------------------------------------------------------------------------
// The service
// ---------------------------------------------------------------------------

struct TenantHandle {
    spec: TenantSpec,
    /// Tenant-scoped fork of the base state: breaker keys are
    /// `{tenant}/{model}`, budget clocks are re-forked per question.
    reliability: Arc<ReliabilityState>,
}

/// A multi-tenant Luna front end over one Sycamore runtime.
pub struct QueryService {
    ctx: sycamore::Context,
    indexes: Vec<String>,
    schemas: Vec<IndexSchema>,
    graph: Arc<aryn_index::GraphStore>,
    cache: Arc<LlmCallCache>,
    cache_policy: CacheKeyPolicy,
    gate: Arc<FairShare>,
    base: Arc<ReliabilityState>,
    tenants: BTreeMap<String, TenantHandle>,
    admission: Arc<Admission>,
    stats: Mutex<ServeStats>,
    session_seq: AtomicU64,
    sim: SimConfig,
}

impl QueryService {
    /// Builds the service over a context whose catalog already holds the
    /// ingested stores named in `indexes`: schemas are discovered and the
    /// knowledge graph is built exactly once, then shared by every session.
    pub fn new(ctx: sycamore::Context, indexes: &[&str], cfg: ServeConfig) -> Result<QueryService> {
        let mut schemas = Vec::new();
        for name in indexes {
            schemas.push(ctx.with_store(name, |s| IndexSchema::discover(name, s.len(), s.schema()))?);
        }
        let mut graph = aryn_index::GraphStore::new();
        for name in indexes {
            ctx.with_store(name, |s| {
                let _ = crate::kg::build_earnings_graph(s, &mut graph);
                let _ = crate::kg::build_ntsb_graph(s, &mut graph);
            })?;
        }
        let cache = Arc::new(LlmCallCache::with_capacity(cfg.cache_capacity));
        let base = ReliabilityState::new(cfg.reliability);
        let gate = FairShare::new(cfg.llm_slots);
        let mut tenants = BTreeMap::new();
        let mut stats = ServeStats::default();
        for spec in &cfg.tenants {
            gate.set_weight(&spec.id, spec.weight);
            let policy = spec.policy.unwrap_or(cfg.reliability);
            let reliability = base.fork_scoped(&spec.id, policy);
            stats.tenants.insert(spec.id.clone(), TenantStats::default());
            tenants.insert(spec.id.clone(), TenantHandle { spec: spec.clone(), reliability });
        }
        Ok(QueryService {
            ctx,
            indexes: indexes.iter().map(|s| s.to_string()).collect(),
            schemas,
            graph: Arc::new(graph),
            cache,
            cache_policy: cfg.cache_policy,
            gate,
            base,
            tenants,
            admission: Admission::new(cfg.max_active, cfg.queue_depth),
            stats: Mutex::new(stats),
            session_seq: AtomicU64::new(0),
            sim: cfg.sim,
        })
    }

    fn handle(&self, tenant: &str) -> Result<&TenantHandle> {
        self.tenants
            .get(tenant)
            .ok_or_else(|| ArynError::Other(format!("unknown tenant: {tenant}")))
    }

    /// Opens a session for a tenant: a full Luna built from the shared
    /// precomputed artifacts (cheap — no schema discovery, no KG build).
    /// Sessions are independent handles; any number may run concurrently.
    pub fn session(&self, tenant: &str) -> Result<Luna> {
        let handle = self.handle(tenant)?;
        let seq = self.session_seq.fetch_add(1, Ordering::Relaxed);
        let namespace = match self.cache_policy {
            CacheKeyPolicy::Shared => None,
            CacheKeyPolicy::PerTenant => Some(tenant.to_string()),
        };
        let wiring = SessionWiring {
            tenant: tenant.to_string(),
            session_tag: format!("{tenant}/session-{seq}"),
            call_cache: Some(Arc::clone(&self.cache)),
            cache_namespace: namespace,
            reliability: Some(Arc::clone(&handle.reliability)),
            slots: Some(Arc::clone(&self.gate)),
            schemas: Some(self.schemas.clone()),
            graph: Some(Arc::clone(&self.graph)),
        };
        let index_refs: Vec<&str> = self.indexes.iter().map(String::as_str).collect();
        Luna::new(
            self.ctx.clone(),
            &index_refs,
            LunaConfig { sim: self.sim.clone(), session: Some(wiring), ..LunaConfig::default() },
        )
    }

    /// One question end to end under admission control: open a session,
    /// ask, account the spend against the tenant. Blocks in the admission
    /// queue when the service is at capacity; errs
    /// [`ArynError::Overloaded`] when the queue is full too.
    pub fn submit(&self, tenant: &str, question: &str) -> Result<crate::luna::LunaAnswer> {
        self.handle(tenant)?;
        {
            let mut g = lock(&self.stats);
            g.tenants.entry(tenant.to_string()).or_default().questions += 1;
        }
        let _slot = match self.admission.enter() {
            Ok(guard) => guard,
            Err(e) => {
                if let ArynError::Overloaded { .. } = &e {
                    lock(&self.stats).tenants.entry(tenant.to_string()).or_default().overloaded +=
                        1;
                }
                return Err(e);
            }
        };
        let session = self.session(tenant)?;
        let outcome = session.ask(question);
        let mut g = lock(&self.stats);
        let t = g.tenants.entry(tenant.to_string()).or_default();
        if let Some(state) = session.question_reliability() {
            t.spent_ms += state.now_ms();
            t.spent_tokens += state.spent_tokens();
            t.spent_usd += state.spent_usd();
        }
        match &outcome {
            Ok(_) => t.answered += 1,
            Err(ArynError::DeadlineExceeded { .. }) => t.deadline_exceeded += 1,
            Err(ArynError::BudgetExhausted { .. }) => t.budget_exhausted += 1,
            Err(_) => t.failed += 1,
        }
        outcome
    }

    /// Per-tenant accounting so far.
    pub fn stats(&self) -> ServeStats {
        lock(&self.stats).clone()
    }

    /// Fair-share gate counters (grants and queue depths per tenant).
    pub fn fair_stats(&self) -> FairShareStats {
        self.gate.stats()
    }

    /// Shared call-cache counters.
    pub fn cache_stats(&self) -> aryn_llm::CacheStats {
        self.cache.stats()
    }

    /// Total circuit-breaker trips across every tenant scope and model.
    pub fn breaker_trips(&self) -> u64 {
        self.base.board().total_trips()
    }

    /// (active, waiting) questions right now.
    pub fn load(&self) -> (usize, usize) {
        self.admission.load()
    }

    /// The admission controller (tests hold a slot to provoke overload
    /// deterministically).
    pub fn admission(&self) -> Arc<Admission> {
        Arc::clone(&self.admission)
    }

    /// Fair-share weights by tenant (for fairness reporting).
    pub fn weights(&self) -> BTreeMap<String, f64> {
        self.tenants.iter().map(|(id, h)| (id.clone(), h.spec.weight)).collect()
    }
}

// ---------------------------------------------------------------------------
// Closed-loop load generator (discrete-event simulation, virtual clock)
// ---------------------------------------------------------------------------

/// Deterministic per-question service demands (simulated milliseconds of
/// LLM slot time), cycled in order. Profile these from solo runs so the
/// simulation's demands match what real questions cost.
#[derive(Debug, Clone)]
pub struct LoadProfile {
    pub service_ms: Vec<f64>,
}

impl LoadProfile {
    pub fn uniform(ms: f64) -> LoadProfile {
        LoadProfile { service_ms: vec![ms.max(1e-9)] }
    }

    pub fn of(service_ms: Vec<f64>) -> LoadProfile {
        assert!(!service_ms.is_empty(), "load profile needs at least one service time");
        LoadProfile { service_ms }
    }

    fn demand(&self, n: usize) -> f64 {
        self.service_ms[n % self.service_ms.len()].max(1e-9)
    }
}

/// One tenant's closed-loop workload: `users` virtual users, each issuing
/// `questions_per_user` questions back-to-back (a user's next question
/// arrives the instant its previous answer lands).
#[derive(Debug, Clone)]
pub struct LoadTenant {
    pub id: String,
    pub weight: f64,
    pub users: usize,
    pub questions_per_user: usize,
    pub profile: LoadProfile,
}

/// Closed-loop load generator over the virtual clock: the same
/// deficit-round-robin slot discipline the live [`FairShare`] gate runs,
/// driven as a discrete-event simulation so thousands of concurrent
/// simulated questions cost microseconds of real time and the result is
/// bit-reproducible.
#[derive(Debug, Clone)]
pub struct LoadGen {
    /// Parallel LLM call slots (the gate capacity being modeled).
    pub slots: usize,
    /// DRR quantum in simulated milliseconds of service demand.
    pub quantum: f64,
    pub tenants: Vec<LoadTenant>,
}

/// Per-tenant results of one simulation run.
#[derive(Debug, Clone, Default)]
pub struct TenantSim {
    pub completed: u64,
    pub p50_ms: f64,
    pub p99_ms: f64,
    pub mean_ms: f64,
    pub max_ms: f64,
    /// Useful work: total simulated service milliseconds granted.
    pub service_ms: f64,
}

/// The simulation's report: per-tenant latency distributions, the Jain
/// fairness index over weight-normalized useful work, and the horizon.
///
/// Jain is computed over the **contention window** — from time zero to the
/// earliest instant any tenant ran out of work. Outside that window a
/// work-conserving scheduler hands idle capacity to whoever still has
/// backlog (correct, not unfair), so totals over the whole run would
/// reflect offered load, not scheduling fairness.
#[derive(Debug, Clone, Default)]
pub struct SimReport {
    pub tenants: BTreeMap<String, TenantSim>,
    pub jain: f64,
    pub horizon_ms: f64,
    /// End of the contention window the Jain index was measured over.
    pub contention_ms: f64,
}

impl SimReport {
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "horizon {:.0} ms, jain fairness {:.4} (contention window {:.0} ms)\n",
            self.horizon_ms, self.jain, self.contention_ms
        ));
        for (id, t) in &self.tenants {
            out.push_str(&format!(
                "  {id}: {} answered, p50 {:.1} ms, p99 {:.1} ms, mean {:.1} ms, max {:.1} ms, {:.0} ms service\n",
                t.completed, t.p50_ms, t.p99_ms, t.mean_ms, t.max_ms, t.service_ms,
            ));
        }
        out
    }
}

struct Job {
    tenant: usize,
    arrival: f64,
    service: f64,
}

/// Nearest-rank percentile over an unsorted sample (p in [0, 100]).
pub fn percentile(samples: &mut [f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let rank = ((p / 100.0) * samples.len() as f64).ceil().max(1.0) as usize - 1;
    samples[rank.min(samples.len() - 1)]
}

impl LoadGen {
    /// Runs the closed loop to completion on the virtual clock.
    pub fn run(&self) -> SimReport {
        let slots = self.slots.max(1);
        let mut queue: DrrQueue<Job> = DrrQueue::new(self.quantum.max(1.0));
        for t in &self.tenants {
            queue.register(&t.id, t.weight);
        }
        // Per-tenant issue counters (how many questions the tenant has
        // started, across its users) and completion targets.
        let mut issued: Vec<usize> = vec![0; self.tenants.len()];
        let targets: Vec<usize> =
            self.tenants.iter().map(|t| t.users * t.questions_per_user).collect();
        let mut latencies: Vec<Vec<f64>> = vec![Vec::new(); self.tenants.len()];
        let mut service_done: Vec<f64> = vec![0.0; self.tenants.len()];
        // (finish, service) per completion, for windowed fairness math.
        let mut completions: Vec<Vec<(f64, f64)>> = vec![Vec::new(); self.tenants.len()];
        // Closed loop: every user starts with one in-flight question.
        for (ti, t) in self.tenants.iter().enumerate() {
            for _ in 0..t.users.min(targets[ti]) {
                let n = issued[ti];
                issued[ti] += 1;
                let service = t.profile.demand(n);
                queue.push(&t.id, service, Job { tenant: ti, arrival: 0.0, service });
            }
        }
        // In-flight jobs keyed by finish time; `slots` is small, so a
        // linear min-scan beats heap bookkeeping.
        let mut inflight: Vec<(f64, Job)> = Vec::with_capacity(slots);
        let mut now = 0.0f64;
        loop {
            while inflight.len() < slots {
                match queue.pop() {
                    Some((_, job)) => {
                        let finish = now + job.service;
                        inflight.push((finish, job));
                    }
                    None => break,
                }
            }
            if inflight.is_empty() {
                break;
            }
            let (mi, _) = inflight
                .iter()
                .enumerate()
                .min_by(|a, b| {
                    a.1 .0.partial_cmp(&b.1 .0).unwrap_or(std::cmp::Ordering::Equal)
                })
                .map(|(i, e)| (i, e.0))
                .unwrap_or((0, 0.0));
            let (finish, job) = inflight.swap_remove(mi);
            now = finish;
            let ti = job.tenant;
            latencies[ti].push(now - job.arrival);
            service_done[ti] += job.service;
            completions[ti].push((now, job.service));
            // The user behind this question immediately issues its next one.
            if issued[ti] < targets[ti] {
                let n = issued[ti];
                issued[ti] += 1;
                let t = &self.tenants[ti];
                let service = t.profile.demand(n);
                queue.push(&t.id, service, Job { tenant: ti, arrival: now, service });
            }
        }
        // The contention window ends when the first tenant exhausted its
        // work (its last completion); Jain over weight-normalized service
        // granted inside the window measures scheduling fairness under
        // contention, independent of offered-load asymmetry.
        let contention_end = completions
            .iter()
            .filter(|c| !c.is_empty())
            .map(|c| c.last().map(|(t, _)| *t).unwrap_or(0.0))
            .fold(f64::INFINITY, f64::min);
        let contention_end = if contention_end.is_finite() { contention_end } else { 0.0 };
        let mut report =
            SimReport { horizon_ms: now, contention_ms: contention_end, ..SimReport::default() };
        let mut alloc = Vec::new();
        for (ti, t) in self.tenants.iter().enumerate() {
            let windowed: f64 = completions[ti]
                .iter()
                .filter(|(finish, _)| *finish <= contention_end)
                .map(|(_, service)| *service)
                .sum();
            let lat = &mut latencies[ti];
            let completed = lat.len() as u64;
            let mean =
                if lat.is_empty() { 0.0 } else { lat.iter().sum::<f64>() / lat.len() as f64 };
            let max = lat.iter().cloned().fold(0.0f64, f64::max);
            let sim = TenantSim {
                completed,
                p50_ms: percentile(lat, 50.0),
                p99_ms: percentile(lat, 99.0),
                mean_ms: mean,
                max_ms: max,
                service_ms: service_done[ti],
            };
            report.tenants.insert(t.id.clone(), sim);
            alloc.push(windowed / t.weight.max(1e-9));
        }
        report.jain = jain_index(&alloc);
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn admission_rejects_beyond_queue() {
        let adm = Admission::new(1, 0);
        let g = adm.enter().expect("first admit");
        match adm.enter() {
            Err(ArynError::Overloaded { active, queued }) => {
                assert_eq!(active, 1);
                assert_eq!(queued, 0);
            }
            Ok(_) => panic!("expected Overloaded, got an admit"),
            Err(other) => panic!("expected Overloaded, got {other:?}"),
        }
        drop(g);
        let _g2 = adm.enter().expect("slot freed");
    }

    #[test]
    fn admission_queue_drains_in_capacity_order() {
        let adm = Admission::new(1, 8);
        let first = adm.enter().expect("admit");
        let mut joins = Vec::new();
        for _ in 0..4 {
            let a = Arc::clone(&adm);
            joins.push(thread::spawn(move || {
                let _g = a.enter().expect("queued admit");
            }));
        }
        // Wait until all four are parked in the queue, then release.
        for _ in 0..1000 {
            if adm.load().1 == 4 {
                break;
            }
            thread::yield_now();
        }
        drop(first);
        for j in joins {
            j.join().expect("queued caller completes");
        }
        assert_eq!(adm.load(), (0, 0));
    }

    #[test]
    fn loadgen_even_tenants_are_fair() {
        let gen = LoadGen {
            slots: 4,
            quantum: 100.0,
            tenants: (0..3)
                .map(|i| LoadTenant {
                    id: format!("t{i}"),
                    weight: 1.0,
                    users: 8,
                    questions_per_user: 50,
                    profile: LoadProfile::uniform(120.0),
                })
                .collect(),
        };
        let report = gen.run();
        assert!(report.jain > 0.99, "even tenants should be fair: {}", report.render());
        for t in report.tenants.values() {
            assert_eq!(t.completed, 8 * 50);
        }
    }

    #[test]
    fn loadgen_aggressor_cannot_starve_victim() {
        let solo = LoadGen {
            slots: 4,
            quantum: 100.0,
            tenants: vec![LoadTenant {
                id: "victim".into(),
                weight: 1.0,
                users: 4,
                questions_per_user: 50,
                profile: LoadProfile::uniform(100.0),
            }],
        }
        .run();
        let contested = LoadGen {
            slots: 4,
            quantum: 100.0,
            tenants: vec![
                LoadTenant {
                    id: "victim".into(),
                    weight: 1.0,
                    users: 4,
                    questions_per_user: 50,
                    profile: LoadProfile::uniform(100.0),
                },
                LoadTenant {
                    id: "aggressor".into(),
                    weight: 1.0,
                    users: 64,
                    questions_per_user: 50,
                    profile: LoadProfile::uniform(100.0),
                },
            ],
        }
        .run();
        let solo_p99 = solo.tenants["victim"].p99_ms;
        let contested_p99 = contested.tenants["victim"].p99_ms;
        // DRR halves the victim's slot share (two equal-weight tenants), so
        // its p99 may roughly double — but a 64-user storm must not push it
        // toward the aggressor's own queueing delay.
        assert!(
            contested_p99 <= solo_p99 * 4.0 + 1.0,
            "victim p99 {contested_p99} vs solo {solo_p99}:\n{}",
            contested.render()
        );
        assert!(contested.jain > 0.9, "jain {} too low:\n{}", contested.jain, contested.render());
    }

    #[test]
    fn loadgen_weights_shift_service_share() {
        let report = LoadGen {
            slots: 2,
            quantum: 100.0,
            tenants: vec![
                LoadTenant {
                    id: "gold".into(),
                    weight: 3.0,
                    users: 16,
                    questions_per_user: 40,
                    profile: LoadProfile::uniform(100.0),
                },
                LoadTenant {
                    id: "bronze".into(),
                    weight: 1.0,
                    users: 16,
                    questions_per_user: 40,
                    profile: LoadProfile::uniform(100.0),
                },
            ],
        }
        .run();
        // Weight-normalized service should be near-equal → high Jain.
        // Steady-state latency (p99, mean — p50 is polluted by the low-
        // backlog warm-up transient) should favor the heavier weight.
        assert!(report.jain > 0.9, "jain {}:\n{}", report.jain, report.render());
        assert!(
            report.tenants["gold"].p99_ms < report.tenants["bronze"].p99_ms
                && report.tenants["gold"].mean_ms < report.tenants["bronze"].mean_ms,
            "{}",
            report.render()
        );
    }

    #[test]
    fn percentile_nearest_rank() {
        let mut v = vec![10.0, 20.0, 30.0, 40.0];
        assert_eq!(percentile(&mut v, 50.0), 20.0);
        assert_eq!(percentile(&mut v, 99.0), 40.0);
        assert_eq!(percentile([].as_mut_slice(), 50.0), 0.0);
    }
}
