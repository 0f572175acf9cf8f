//! Reliability layer: deadlines, circuit breakers, and degradation state.
//!
//! Long-running semantic pipelines need more than a flat retry loop: a
//! persistently-failing endpoint would burn the full retry ladder for every
//! document, and an unlucky run has no bound on total (simulated) wall time.
//! This module adds the three missing mechanisms the paper's production
//! stack leans on (§5.3 fault tolerance, §6 model choice):
//!
//! 1. a per-query **deadline budget** enforced against the simulated clock
//!    ([`Usage::latency_ms`](crate::model::Usage) — no real sleeping), with
//!    exponential backoff plus seeded jitter charged into that clock, and
//!    optional per-query **token and dollar budgets** charged from each
//!    call's usage;
//! 2. a per-model **circuit breaker** (closed → open on a sliding-window
//!    failure rate → half-open single probe) so dead endpoints fail fast
//!    with a structured [`ArynError::CircuitOpen`];
//! 3. shared [`ReliabilityState`] that degradation chains consult to decide
//!    when to fall back to a cheaper model (see
//!    [`LlmClient::with_fallback`](crate::client::LlmClient::with_fallback)).
//!
//! **Scoping (multi-tenant serving).** Budget clocks are *per query*, never
//! client-global: a `ReliabilityState` is one query's (or one session's)
//! budget handle. [`ReliabilityState::fork`] derives a fresh handle — zeroed
//! spent clocks, same policy — that shares the underlying [`BreakerBoard`],
//! because endpoint health outlives any one query while deadlines must not
//! leak between concurrent queries. [`ReliabilitySlot`] lets a session's
//! whole client ladder repoint at a fresh fork per question without
//! rebuilding clients.
//!
//! Everything is inert by default: [`ReliabilityPolicy::default`] disables
//! every mechanism, so clients without an explicit policy behave exactly as
//! before (same call counts, same usage accounting).

use crate::client::BACKOFF_BASE_MS;
use aryn_core::{stable_hash, ArynError, Result};
use parking_lot::{Mutex, RwLock};
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

/// Knobs for the reliability layer. All-zero (the default) disables it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReliabilityPolicy {
    /// Per-call timeout on the simulated clock, in ms. A successful response
    /// whose simulated latency exceeds this counts as a timeout failure
    /// (charged at the timeout, recorded against the breaker) and is retried.
    /// `0.0` disables call timeouts.
    pub call_timeout_ms: f64,
    /// Per-query deadline on the simulated clock, in ms. Once the budget is
    /// spent, calls fail with [`ArynError::DeadlineExceeded`]. `0.0` disables
    /// the deadline.
    pub deadline_ms: f64,
    /// Per-query token budget (prompt + completion tokens across all calls
    /// charged to this state). Once spent, calls fail with
    /// [`ArynError::BudgetExhausted`]. `0` disables it.
    pub max_tokens: u64,
    /// Per-query dollar budget (simulated). Once spent, calls fail with
    /// [`ArynError::BudgetExhausted`]. `0.0` disables it.
    pub max_cost_usd: f64,
    /// Sliding-window size for the circuit breaker (outcomes per model).
    /// `0` disables breakers.
    pub breaker_window: usize,
    /// Failure-rate threshold in `[0,1]` that opens the breaker once the
    /// window is full.
    pub breaker_threshold: f64,
    /// Simulated ms an open breaker waits before admitting a half-open probe.
    pub breaker_cooldown_ms: f64,
    /// When the remaining deadline budget drops below this many simulated ms,
    /// degradation chains skip the primary model and go straight to the
    /// cheaper fallback. `0.0` disables proactive degradation.
    pub degrade_below_ms: f64,
}

impl Default for ReliabilityPolicy {
    fn default() -> Self {
        ReliabilityPolicy {
            call_timeout_ms: 0.0,
            deadline_ms: 0.0,
            max_tokens: 0,
            max_cost_usd: 0.0,
            breaker_window: 0,
            breaker_threshold: 0.5,
            breaker_cooldown_ms: 0.0,
            degrade_below_ms: 0.0,
        }
    }
}

impl ReliabilityPolicy {
    /// A sane non-trivial policy for tests and examples: 10s call timeout,
    /// 5-minute query deadline, breaker opening at 50% failures over a
    /// 8-call window with a 30s cooldown.
    pub fn standard() -> ReliabilityPolicy {
        ReliabilityPolicy {
            call_timeout_ms: 10_000.0,
            deadline_ms: 300_000.0,
            max_tokens: 0,
            max_cost_usd: 0.0,
            breaker_window: 8,
            breaker_threshold: 0.5,
            breaker_cooldown_ms: 30_000.0,
            degrade_below_ms: 5_000.0,
        }
    }

    /// True when any mechanism is active. Inert policies make the client
    /// byte-identical to one with no reliability state at all.
    pub fn enabled(&self) -> bool {
        self.call_timeout_ms > 0.0
            || self.deadline_ms > 0.0
            || self.breaker_window > 0
            || self.max_tokens > 0
            || self.max_cost_usd > 0.0
    }

    /// True when a call's outcome depends on the calls charged before it: a
    /// deadline, token or dollar budget (every call draws down one clock) or
    /// circuit breakers (every outcome moves one window). A per-call timeout
    /// alone judges each call by itself.
    pub fn order_dependent(&self) -> bool {
        self.deadline_ms > 0.0
            || self.max_tokens > 0
            || self.max_cost_usd > 0.0
            || self.breaker_window > 0
    }
}

/// Seed for the backoff jitter (mixed with model name and attempt).
const JITTER_SEED: u64 = 0x5EED;

/// Exponential backoff from [`BACKOFF_BASE_MS`] with seeded jitter for a
/// retry `attempt` (1-based) against `model`, in simulated ms.
pub(crate) fn backoff_ms(model: &str, attempt: u32) -> f64 {
    let exp = BACKOFF_BASE_MS * ((1u64 << (attempt.saturating_sub(1)).min(16)) as f64);
    let h = stable_hash(JITTER_SEED ^ attempt as u64, &[model, "jitter"]);
    // Jitter in [0, 0.5) of the exponential term, seeded and stable.
    let frac = ((h >> 11) as f64 / (1u64 << 53) as f64) * 0.5;
    exp * (1.0 + frac)
}

/// Circuit-breaker state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Normal operation; outcomes feed the sliding window.
    Closed,
    /// Failing fast; calls are rejected until the cooldown elapses.
    Open,
    /// Cooldown elapsed; one probe call is admitted to test recovery.
    HalfOpen,
}

#[derive(Debug)]
struct BreakerInner {
    state: BreakerState,
    /// Recent call outcomes, `true` = success.
    window: VecDeque<bool>,
    /// Simulated-clock instant the breaker last opened.
    opened_at_ms: f64,
    /// Whether a half-open probe token is currently held by a caller.
    /// `allow()` hands out exactly one; `record()` returns it. Without this
    /// token, concurrent callers racing between `allow()` and `record()`
    /// could each be admitted as "the" probe, and a single slow endpoint
    /// would be double-counted into an immediate re-trip (or, worse, N
    /// probes would hammer an endpoint the breaker exists to protect).
    probing: bool,
    /// Simulated instant the current probe token was handed out; a probe
    /// that never reports back (caller hit its deadline first) goes stale
    /// after one cooldown and the token is re-issued.
    probe_at_ms: f64,
    trips: u64,
}

/// Per-model circuit breaker over the simulated clock.
#[derive(Debug)]
pub struct CircuitBreaker {
    window_size: usize,
    threshold: f64,
    cooldown_ms: f64,
    inner: Mutex<BreakerInner>,
}

impl CircuitBreaker {
    pub fn new(window_size: usize, threshold: f64, cooldown_ms: f64) -> CircuitBreaker {
        CircuitBreaker {
            window_size,
            threshold,
            cooldown_ms,
            inner: Mutex::new(BreakerInner {
                state: BreakerState::Closed,
                window: VecDeque::new(),
                opened_at_ms: 0.0,
                probing: false,
                probe_at_ms: 0.0,
                trips: 0,
            }),
        }
    }

    /// Whether a call may proceed at simulated instant `now_ms`. An open
    /// breaker whose cooldown has elapsed transitions to half-open and
    /// admits exactly one probe; concurrent callers are rejected until that
    /// probe reports its outcome (or goes stale after another cooldown).
    pub fn allow(&self, now_ms: f64) -> bool {
        let mut g = self.inner.lock();
        match g.state {
            BreakerState::Closed => true,
            BreakerState::HalfOpen => {
                if !g.probing || now_ms - g.probe_at_ms >= self.cooldown_ms {
                    // Either the probe slot is free, or the previous probe
                    // holder vanished without recording: re-issue the token.
                    g.probing = true;
                    g.probe_at_ms = now_ms;
                    true
                } else {
                    false
                }
            }
            BreakerState::Open => {
                if now_ms - g.opened_at_ms >= self.cooldown_ms {
                    g.state = BreakerState::HalfOpen;
                    g.probing = true;
                    g.probe_at_ms = now_ms;
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Records a call outcome at simulated instant `now_ms`. Returns `true`
    /// when this outcome tripped the breaker open (for trip metering).
    pub fn record(&self, ok: bool, now_ms: f64) -> bool {
        let mut g = self.inner.lock();
        match g.state {
            BreakerState::HalfOpen => {
                g.probing = false;
                if ok {
                    // Probe succeeded: close and start a fresh window.
                    g.state = BreakerState::Closed;
                    g.window.clear();
                    false
                } else {
                    // Probe failed: re-open and restart the cooldown.
                    g.state = BreakerState::Open;
                    g.opened_at_ms = now_ms;
                    g.trips += 1;
                    true
                }
            }
            BreakerState::Open => false, // rejected callers don't feed the window
            BreakerState::Closed => {
                g.window.push_back(ok);
                if g.window.len() > self.window_size {
                    g.window.pop_front();
                }
                let full = g.window.len() >= self.window_size;
                let failures = g.window.iter().filter(|o| !**o).count();
                let rate = failures as f64 / g.window.len().max(1) as f64;
                if full && rate >= self.threshold {
                    g.state = BreakerState::Open;
                    g.opened_at_ms = now_ms;
                    g.trips += 1;
                    g.window.clear();
                    true
                } else {
                    false
                }
            }
        }
    }

    pub fn state(&self) -> BreakerState {
        self.inner.lock().state
    }

    /// Times this breaker has transitioned closed/half-open → open.
    pub fn trips(&self) -> u64 {
        self.inner.lock().trips
    }
}

/// The shared breaker registry behind every fork of one reliability state:
/// endpoint health is a property of the endpoint (or of a tenant's view of
/// it), not of any one query, so forks share the board while owning their
/// own budget clocks. Keys are `model` for shared breakers or
/// `"{scope}/{model}"` for tenant-scoped ones (see
/// [`ReliabilityState::fork_scoped`]).
#[derive(Debug)]
pub struct BreakerBoard {
    window: usize,
    threshold: f64,
    cooldown_ms: f64,
    breakers: Mutex<BTreeMap<String, Arc<CircuitBreaker>>>,
}

impl BreakerBoard {
    pub fn new(window: usize, threshold: f64, cooldown_ms: f64) -> Arc<BreakerBoard> {
        Arc::new(BreakerBoard {
            window,
            threshold,
            cooldown_ms,
            breakers: Mutex::new(BTreeMap::new()),
        })
    }

    /// The breaker under `key`, created on first use.
    pub fn breaker(&self, key: &str) -> Arc<CircuitBreaker> {
        let mut g = self.breakers.lock();
        Arc::clone(g.entry(key.to_string()).or_insert_with(|| {
            Arc::new(CircuitBreaker::new(
                self.window,
                self.threshold,
                self.cooldown_ms,
            ))
        }))
    }

    /// Total trips across every breaker on the board.
    pub fn total_trips(&self) -> u64 {
        self.breakers.lock().values().map(|b| b.trips()).sum()
    }
}

/// The per-query clocks: simulated ms, tokens, and dollars spent so far.
#[derive(Debug, Default)]
struct BudgetInner {
    spent_ms: f64,
    spent_tokens: u64,
    spent_usd: f64,
}

/// Reliability state for **one query or one session handle**: the policy,
/// the budget clocks, and a shared [`BreakerBoard`]. Clone the `Arc` to
/// share across a degradation chain so all tiers draw from one budget; call
/// [`fork`](Self::fork) to start a new query with fresh clocks but the same
/// breaker health.
#[derive(Debug)]
pub struct ReliabilityState {
    policy: ReliabilityPolicy,
    budget: Mutex<BudgetInner>,
    board: Arc<BreakerBoard>,
    /// Breaker-key prefix for tenant-scoped breakers (`None` = shared).
    scope: Option<String>,
}

impl ReliabilityState {
    pub fn new(policy: ReliabilityPolicy) -> Arc<ReliabilityState> {
        Arc::new(ReliabilityState {
            policy,
            budget: Mutex::new(BudgetInner::default()),
            board: BreakerBoard::new(
                policy.breaker_window,
                policy.breaker_threshold,
                policy.breaker_cooldown_ms,
            ),
            scope: None,
        })
    }

    /// A fresh budget handle for a new query: zeroed clocks, same policy and
    /// scope, **shared** breaker board. Every query forks its own clock, so
    /// concurrent queries never charge each other's budgets.
    pub fn fork(self: &Arc<Self>) -> Arc<ReliabilityState> {
        self.fork_with(self.policy)
    }

    /// [`fork`](Self::fork) with a per-query policy override (e.g. a
    /// tenant-specific deadline or dollar cap). Breaker parameters still
    /// come from the shared board, which was sized by the original policy.
    fn fork_with(self: &Arc<Self>, policy: ReliabilityPolicy) -> Arc<ReliabilityState> {
        Arc::new(ReliabilityState {
            policy,
            budget: Mutex::new(BudgetInner::default()),
            board: Arc::clone(&self.board),
            scope: self.scope.clone(),
        })
    }

    /// A fork whose breakers are keyed per `scope` (typically a tenant id):
    /// failures observed by this fork trip `{scope}/{model}` instead of the
    /// shared `model` breaker, so one tenant's storm against a poisoned
    /// prompt shape cannot open the breaker under everyone else. The board
    /// itself stays shared (one registry, one trip total).
    pub fn fork_scoped(
        self: &Arc<Self>,
        scope: &str,
        policy: ReliabilityPolicy,
    ) -> Arc<ReliabilityState> {
        Arc::new(ReliabilityState {
            policy,
            budget: Mutex::new(BudgetInner::default()),
            board: Arc::clone(&self.board),
            scope: Some(scope.to_string()),
        })
    }

    pub fn policy(&self) -> ReliabilityPolicy {
        self.policy
    }

    /// The shared breaker board behind this state and all its forks.
    pub fn board(&self) -> Arc<BreakerBoard> {
        Arc::clone(&self.board)
    }

    /// The breaker-key scope of this handle (a tenant id), if any.
    pub fn scope(&self) -> Option<&str> {
        self.scope.as_deref()
    }

    /// The simulated instant "now": total charged ms so far.
    pub fn now_ms(&self) -> f64 {
        self.budget.lock().spent_ms
    }

    /// Charges simulated time against the deadline budget.
    pub fn charge(&self, ms: f64) {
        self.budget.lock().spent_ms += ms;
    }

    /// Charges a call's token and dollar usage against the per-query caps.
    pub fn charge_usage(&self, tokens: u64, cost_usd: f64) {
        let mut g = self.budget.lock();
        g.spent_tokens += tokens;
        g.spent_usd += cost_usd;
    }

    /// Tokens charged to this handle so far.
    pub fn spent_tokens(&self) -> u64 {
        self.budget.lock().spent_tokens
    }

    /// Simulated dollars charged to this handle so far.
    pub fn spent_usd(&self) -> f64 {
        self.budget.lock().spent_usd
    }

    /// Errs with [`ArynError::DeadlineExceeded`] once the deadline is spent,
    /// or [`ArynError::BudgetExhausted`] once the token or dollar budget is.
    pub fn check_deadline(&self) -> Result<()> {
        let (spent_ms, spent_tokens, spent_usd) = {
            let g = self.budget.lock();
            (g.spent_ms, g.spent_tokens, g.spent_usd)
        };
        if self.policy.deadline_ms > 0.0 && spent_ms >= self.policy.deadline_ms {
            return Err(ArynError::DeadlineExceeded {
                spent_ms,
                budget_ms: self.policy.deadline_ms,
            });
        }
        if self.policy.max_tokens > 0 && spent_tokens >= self.policy.max_tokens {
            return Err(ArynError::BudgetExhausted {
                resource: "tokens",
                spent: spent_tokens as f64,
                budget: self.policy.max_tokens as f64,
            });
        }
        if self.policy.max_cost_usd > 0.0 && spent_usd >= self.policy.max_cost_usd {
            return Err(ArynError::BudgetExhausted {
                resource: "cost_usd",
                spent: spent_usd,
                budget: self.policy.max_cost_usd,
            });
        }
        Ok(())
    }

    /// Simulated ms left before the deadline (infinite when disabled).
    fn remaining_ms(&self) -> f64 {
        if self.policy.deadline_ms <= 0.0 {
            f64::INFINITY
        } else {
            (self.policy.deadline_ms - self.now_ms()).max(0.0)
        }
    }

    /// True when the remaining budget has dropped below the proactive
    /// degradation threshold (never true when either knob is disabled).
    pub fn budget_low(&self) -> bool {
        self.policy.degrade_below_ms > 0.0 && self.remaining_ms() < self.policy.degrade_below_ms
    }

    /// The breaker for `model`, created on first use (`None` when breakers
    /// are disabled by the policy). Scoped handles key by
    /// `"{scope}/{model}"` so tenants' breakers are independent.
    pub fn breaker(&self, model: &str) -> Option<Arc<CircuitBreaker>> {
        if self.policy.breaker_window == 0 {
            return None;
        }
        let key = match &self.scope {
            Some(scope) => format!("{scope}/{model}"),
            None => model.to_string(),
        };
        Some(self.board.breaker(&key))
    }

    /// Total breaker trips across all models (and all scopes) on the shared
    /// board.
    pub fn total_trips(&self) -> u64 {
        self.board.total_trips()
    }
}

/// A swappable reliability pointer shared by every client of one session.
///
/// A session builds its degradation-ladder clients once; each new question
/// then [`install`](Self::install)s a fresh [`ReliabilityState::fork`] so
/// the question gets its own deadline/token/$ clocks while the clients —
/// and the breaker board behind them — stay shared. One slot belongs to one
/// session serving one question at a time; concurrent questions belong in
/// separate sessions, each with its own slot.
#[derive(Debug)]
pub struct ReliabilitySlot {
    inner: RwLock<Arc<ReliabilityState>>,
}

impl ReliabilitySlot {
    pub fn new(state: Arc<ReliabilityState>) -> Arc<ReliabilitySlot> {
        Arc::new(ReliabilitySlot {
            inner: RwLock::new(state),
        })
    }

    /// Repoints the slot at `state` (typically a fresh fork for a new
    /// query).
    pub fn install(&self, state: Arc<ReliabilityState>) {
        *self.inner.write() = state;
    }

    /// The state currently installed.
    pub fn current(&self) -> Arc<ReliabilityState> {
        Arc::clone(&self.inner.read())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_policy_is_inert() {
        let p = ReliabilityPolicy::default();
        assert!(!p.enabled());
        let state = ReliabilityState::new(p);
        assert!(state.check_deadline().is_ok());
        assert!(state.breaker("gpt-4-sim").is_none());
        assert!(!state.budget_low());
        assert_eq!(state.remaining_ms(), f64::INFINITY);
    }

    #[test]
    fn deadline_trips_after_budget_spent() {
        let state = ReliabilityState::new(ReliabilityPolicy {
            deadline_ms: 100.0,
            ..ReliabilityPolicy::default()
        });
        assert!(state.check_deadline().is_ok());
        state.charge(60.0);
        assert!(state.check_deadline().is_ok());
        state.charge(60.0);
        match state.check_deadline() {
            Err(ArynError::DeadlineExceeded { spent_ms, budget_ms }) => {
                assert_eq!(budget_ms, 100.0);
                assert!(spent_ms >= 100.0);
            }
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
    }

    #[test]
    fn token_and_dollar_budgets_trip() {
        let state = ReliabilityState::new(ReliabilityPolicy {
            max_tokens: 100,
            max_cost_usd: 1.0,
            ..ReliabilityPolicy::default()
        });
        assert!(state.policy().enabled());
        state.charge_usage(50, 0.2);
        assert!(state.check_deadline().is_ok());
        state.charge_usage(50, 0.0);
        match state.check_deadline() {
            Err(ArynError::BudgetExhausted { resource, .. }) => assert_eq!(resource, "tokens"),
            other => panic!("expected BudgetExhausted, got {other:?}"),
        }
        let state = ReliabilityState::new(ReliabilityPolicy {
            max_cost_usd: 0.25,
            ..ReliabilityPolicy::default()
        });
        state.charge_usage(10, 0.3);
        match state.check_deadline() {
            Err(ArynError::BudgetExhausted { resource, .. }) => assert_eq!(resource, "cost_usd"),
            other => panic!("expected BudgetExhausted, got {other:?}"),
        }
    }

    #[test]
    fn breaker_opens_half_opens_and_recovers() {
        let b = CircuitBreaker::new(4, 0.5, 50.0);
        assert_eq!(b.state(), BreakerState::Closed);
        // Fill the window with failures: trips open on the 4th outcome.
        assert!(!b.record(false, 0.0));
        assert!(!b.record(false, 1.0));
        assert!(!b.record(true, 2.0));
        assert!(b.record(false, 3.0), "window full at 75% failures should trip");
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.trips(), 1);
        // Rejected during cooldown, admitted after.
        assert!(!b.allow(10.0));
        assert!(b.allow(60.0));
        assert_eq!(b.state(), BreakerState::HalfOpen);
        // Failed probe re-opens (another trip), successful probe closes.
        assert!(b.record(false, 61.0));
        assert_eq!((b.state(), b.trips()), (BreakerState::Open, 2));
        assert!(b.allow(120.0));
        assert!(!b.record(true, 121.0));
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn half_open_admits_exactly_one_probe() {
        let b = CircuitBreaker::new(2, 0.5, 50.0);
        b.record(false, 0.0);
        assert!(b.record(false, 1.0));
        assert_eq!(b.state(), BreakerState::Open);
        // Cooldown elapsed: the first caller takes the probe token...
        assert!(b.allow(60.0));
        // ...and racing callers are rejected until the probe reports.
        assert!(!b.allow(61.0));
        assert!(!b.allow(70.0));
        // The probe's failure is recorded exactly once: one re-trip, and the
        // next cooldown starts from the failure instant.
        assert!(b.record(false, 71.0));
        assert_eq!(b.trips(), 2);
        assert!(!b.allow(80.0));
        // A probe that never reports back goes stale after one cooldown and
        // the token is re-issued to a new caller.
        assert!(b.allow(130.0));
        assert!(!b.allow(131.0));
        assert!(b.allow(190.0), "stale probe token is reclaimed");
        assert!(!b.record(true, 191.0));
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn jitter_is_deterministic_and_bounded() {
        let a = backoff_ms("gpt-4-sim", 1);
        let b = backoff_ms("gpt-4-sim", 1);
        assert_eq!(a, b, "same inputs, same jitter");
        assert!((100.0..150.0).contains(&a), "attempt 1 in [base, 1.5*base): {a}");
        let c = backoff_ms("gpt-4-sim", 3);
        assert!((400.0..600.0).contains(&c), "attempt 3 in [4*base, 6*base): {c}");
        assert_ne!(
            backoff_ms("gpt-4-sim", 1),
            backoff_ms("llama-7b-sim", 1),
            "jitter varies by model"
        );
    }

    #[test]
    fn fork_isolates_budgets_but_shares_breakers() {
        let base = ReliabilityState::new(ReliabilityPolicy {
            deadline_ms: 100.0,
            breaker_window: 2,
            breaker_threshold: 0.5,
            breaker_cooldown_ms: 1000.0,
            ..ReliabilityPolicy::default()
        });
        let a = base.fork();
        let b = base.fork();
        a.charge(90.0);
        a.charge_usage(500, 2.5);
        assert_eq!(b.now_ms(), 0.0, "forked clocks are independent");
        assert_eq!(b.spent_tokens(), 0);
        assert!(b.check_deadline().is_ok());
        a.charge(20.0);
        assert!(a.check_deadline().is_err());
        assert!(b.check_deadline().is_ok(), "no cross-fork deadline leakage");
        // Breakers are shared: a trip observed via one fork is visible to all.
        let br = a.breaker("m").unwrap();
        br.record(false, 0.0);
        br.record(false, 1.0);
        assert_eq!(b.total_trips(), 1);
        assert_eq!(b.breaker("m").unwrap().state(), BreakerState::Open);
    }

    #[test]
    fn scoped_forks_key_breakers_per_tenant() {
        let base = ReliabilityState::new(ReliabilityPolicy {
            breaker_window: 2,
            breaker_threshold: 0.5,
            breaker_cooldown_ms: 1000.0,
            ..ReliabilityPolicy::default()
        });
        let noisy = base.fork_scoped("acme", base.policy());
        let quiet = base.fork_scoped("globex", base.policy());
        let nb = noisy.breaker("m").unwrap();
        nb.record(false, 0.0);
        nb.record(false, 1.0);
        assert_eq!(nb.state(), BreakerState::Open);
        assert_eq!(
            quiet.breaker("m").unwrap().state(),
            BreakerState::Closed,
            "tenant-scoped breakers are independent"
        );
        assert_eq!(base.total_trips(), 1, "one shared board, one trip total");
        assert!(base.board.breakers.lock().contains_key("acme/m"));
    }

    #[test]
    fn slot_swaps_state_for_all_holders() {
        let base = ReliabilityState::new(ReliabilityPolicy {
            deadline_ms: 50.0,
            ..ReliabilityPolicy::default()
        });
        let slot = ReliabilitySlot::new(base.fork());
        let holder = Arc::clone(&slot);
        holder.current().charge(60.0);
        assert!(holder.current().check_deadline().is_err());
        slot.install(base.fork());
        assert!(holder.current().check_deadline().is_ok(), "fresh fork, fresh clock");
        assert_eq!(holder.current().now_ms(), 0.0);
    }
}
