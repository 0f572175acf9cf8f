//! Deterministic chaos injection for the simulated LLM stack.
//!
//! Real pipelines meet rate-limit storms, slow responses, malformed-output
//! streaks, and whole-endpoint outages. [`ChaosModel`] wraps any
//! [`LanguageModel`] and injects exactly those fault classes on a **seeded
//! schedule over call indices** — no randomness at run time, so a chaos run
//! is perfectly reproducible and proptests can assert the reliability
//! invariant: within-budget runs are bit-identical to calm runs; over-budget
//! runs degrade with flags or fail with structured errors, never silently
//! diverge.
//!
//! This replaces ad-hoc `fail_rate` knobs in tests: the schedule names the
//! fault class and its window, so a test can target "blackout during docs
//! 10–20" instead of hoping a uniform rate hits the interesting path.

use crate::model::{LanguageModel, LlmRequest, LlmResponse};
use aryn_core::{stable_hash, ArynError, Result};
pub use aryn_core::vfs::{StorageFault, StorageSchedule, StorageWindow};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The injectable fault classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Transient API failure (rate limit / 5xx); the client's retry ladder
    /// absorbs short storms.
    RateLimit,
    /// The call succeeds but its simulated latency is inflated past any
    /// sane per-call timeout.
    Timeout,
    /// The response text is garbled: fenced-prose wrapping (repairable by
    /// the lenient parser) on even call indices, truncation (usually forcing
    /// a re-ask) on odd ones.
    Malformed,
    /// The endpoint is down: every call errors until the window ends.
    Blackout,
}

impl FaultKind {
    pub fn name(&self) -> &'static str {
        match self {
            FaultKind::RateLimit => "rate_limit",
            FaultKind::Timeout => "timeout",
            FaultKind::Malformed => "malformed",
            FaultKind::Blackout => "blackout",
        }
    }
}

/// A contiguous run of faulty calls: indices `start .. start + len`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultWindow {
    pub kind: FaultKind,
    pub start: u64,
    pub len: u64,
}

impl FaultWindow {
    pub fn covers(&self, call_idx: u64) -> bool {
        call_idx >= self.start && call_idx < self.start + self.len
    }
}

/// How a schedule maps its windows onto calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ChaosKeying {
    /// Windows cover the op's global call sequence in arrival order (the
    /// default). Which document a window hits is fixed by call order, so
    /// the executor runs a stage over such a client on one worker
    /// ([`LanguageModel::order_dependent`]).
    #[default]
    CallIndex,
    /// Windows cover a virtual index derived from the request itself:
    /// `stable_hash(prompt) % horizon`, plus a per-request attempt counter
    /// so a retried request walks forward out of its window the way a
    /// sequential retry walks the call clock. Scheduling-independent — the
    /// same request faults identically at any worker count or morsel size —
    /// which is what the morsel executor's determinism proptests need to
    /// assert bit-identical output across thread counts under chaos.
    RequestKey {
        /// The virtual index space windows are laid out over; matches the
        /// `horizon` of [`ChaosSchedule::from_seed`].
        horizon: u64,
    },
}

/// A seeded fault schedule over call indices.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ChaosSchedule {
    pub windows: Vec<FaultWindow>,
    /// Extra simulated latency added by a [`FaultKind::Timeout`] fault, ms.
    pub timeout_inflation_ms: f64,
    /// How windows are mapped onto calls (arrival order by default).
    pub keying: ChaosKeying,
    /// Storage-fault plan riding alongside the LLM faults: torn writes,
    /// short reads, ENOSPC, and crash points over IO-op indices.
    /// `Context::set_chaos` wraps the session VFS in a `ChaosFs` when this
    /// is non-calm. Always calm from [`ChaosSchedule::from_seed`]; set it
    /// explicitly to attach storage faults.
    pub storage: StorageSchedule,
}

impl ChaosSchedule {
    /// An empty (calm) schedule.
    pub fn calm() -> ChaosSchedule {
        ChaosSchedule::default()
    }

    /// Generates a schedule deterministically from a seed. `intensity` in
    /// `[0,1]` scales how many windows land in the first `horizon` calls
    /// (0 → none, 1 → about one window per 12 calls).
    pub fn from_seed(seed: u64, horizon: u64, intensity: f64) -> ChaosSchedule {
        let mut windows = Vec::new();
        let n = ((horizon as f64 / 12.0) * intensity.clamp(0.0, 1.0)).round() as u64;
        for i in 0..n {
            let h = stable_hash(seed ^ 0xC4A0_5000, &["chaos", &i.to_string()]);
            let start = h % horizon.max(1);
            let len = 1 + (h >> 17) % 4;
            let kind = match (h >> 33) % 4 {
                0 => FaultKind::RateLimit,
                1 => FaultKind::Timeout,
                2 => FaultKind::Malformed,
                _ => FaultKind::Blackout,
            };
            windows.push(FaultWindow { kind, start, len });
        }
        windows.sort_by_key(|w| (w.start, w.len));
        ChaosSchedule {
            windows,
            timeout_inflation_ms: 60_000.0,
            keying: ChaosKeying::CallIndex,
            storage: StorageSchedule::calm(),
        }
    }

    /// Adds one explicit window (builder style, for targeted tests).
    pub fn with_window(mut self, kind: FaultKind, start: u64, len: u64) -> ChaosSchedule {
        self.windows.push(FaultWindow { kind, start, len });
        self
    }

    pub fn with_timeout_inflation(mut self, ms: f64) -> ChaosSchedule {
        self.timeout_inflation_ms = ms;
        self
    }

    /// Switches the schedule to [`ChaosKeying::RequestKey`]: faults land by
    /// request content instead of arrival order, so they are reproducible
    /// under any parallel schedule. A request's virtual index is
    /// `stable_hash(prompt) % horizon + attempt`: the retry ladder's bumped
    /// attempt numbers walk the request forward out of finite windows, so
    /// short storms stay absorbable exactly as they are in arrival order.
    pub fn keyed_by_request(mut self, horizon: u64) -> ChaosSchedule {
        self.keying = ChaosKeying::RequestKey { horizon: horizon.max(1) };
        self
    }

    /// The virtual index [`ChaosKeying::RequestKey`] assigns to a request.
    fn request_index(prompt: &str, attempt: u32, horizon: u64) -> u64 {
        stable_hash(0xC4A0_6B1D, &[prompt]) % horizon.max(1) + attempt as u64
    }

    /// The fault covering `call_idx`, if any (first matching window wins).
    pub fn fault_at(&self, call_idx: u64) -> Option<FaultKind> {
        self.windows.iter().find(|w| w.covers(call_idx)).map(|w| w.kind)
    }

    pub fn is_calm(&self) -> bool {
        self.windows.is_empty() && self.storage.is_calm()
    }
}

/// A [`LanguageModel`] wrapper that injects scheduled faults.
pub struct ChaosModel {
    inner: Arc<dyn LanguageModel>,
    schedule: ChaosSchedule,
    calls: AtomicU64,
    faults: AtomicU64,
}

impl ChaosModel {
    pub fn wrap(inner: Arc<dyn LanguageModel>, schedule: ChaosSchedule) -> ChaosModel {
        ChaosModel { inner, schedule, calls: AtomicU64::new(0), faults: AtomicU64::new(0) }
    }

    /// Calls seen so far (the schedule's clock).
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::SeqCst)
    }

    /// Faults injected so far.
    pub fn faults_injected(&self) -> u64 {
        self.faults.load(Ordering::SeqCst)
    }

    pub fn schedule(&self) -> &ChaosSchedule {
        &self.schedule
    }
}

impl LanguageModel for ChaosModel {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn context_window(&self) -> usize {
        self.inner.context_window()
    }

    /// Windows over arrival indices make which call meets a fault depend on
    /// call order; request-keyed windows place every fault by the request.
    fn order_dependent(&self) -> bool {
        let by_arrival =
            self.schedule.keying == ChaosKeying::CallIndex && !self.schedule.windows.is_empty();
        by_arrival || self.inner.order_dependent()
    }

    fn generate(&self, req: &LlmRequest) -> Result<LlmResponse> {
        let arrival = self.calls.fetch_add(1, Ordering::SeqCst);
        let idx = match self.schedule.keying {
            ChaosKeying::CallIndex => arrival,
            ChaosKeying::RequestKey { horizon } => {
                ChaosSchedule::request_index(&req.prompt, req.attempt, horizon)
            }
        };
        let Some(kind) = self.schedule.fault_at(idx) else {
            return self.inner.generate(req);
        };
        self.faults.fetch_add(1, Ordering::SeqCst);
        match kind {
            FaultKind::RateLimit => Err(ArynError::Llm(format!(
                "{}: rate limited (simulated transient failure)",
                self.inner.name()
            ))),
            FaultKind::Blackout => Err(ArynError::Llm(format!(
                "{}: endpoint blackout (simulated outage)",
                self.inner.name()
            ))),
            FaultKind::Timeout => {
                let mut resp = self.inner.generate(req)?;
                resp.usage.latency_ms += self.schedule.timeout_inflation_ms;
                Ok(resp)
            }
            FaultKind::Malformed => {
                let mut resp = self.inner.generate(req)?;
                resp.text = if idx.is_multiple_of(2) {
                    // Fenced-prose wrap: the lenient parser repairs this, so
                    // the parsed value is unchanged (bit-identical answers).
                    format!("Sure, here you go:\n```json\n{}\n```\nHope this helps!", resp.text)
                } else {
                    // Truncation: usually unparseable, forcing a re-ask.
                    let keep = resp.text.len().saturating_sub(resp.text.len() / 3 + 2);
                    resp.text[..keep].to_string()
                };
                Ok(resp)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mock::{MockLlm, SimConfig};
    use crate::registry::GPT4_SIM;

    fn chaotic(schedule: ChaosSchedule) -> ChaosModel {
        ChaosModel::wrap(Arc::new(MockLlm::new(&GPT4_SIM, SimConfig::perfect(1))), schedule)
    }

    #[test]
    fn calm_schedule_passes_through() {
        let m = chaotic(ChaosSchedule::calm());
        let req = LlmRequest::new("Context:\nwind\n\nQuestion: is it windy?\nAnswer:");
        let r1 = m.generate(&req).unwrap();
        let inner = MockLlm::new(&GPT4_SIM, SimConfig::perfect(1));
        let r2 = inner.generate(&req).unwrap();
        assert_eq!(r1.text, r2.text);
        assert_eq!(m.faults_injected(), 0);
    }

    #[test]
    fn blackout_window_errors_then_recovers() {
        let m = chaotic(ChaosSchedule::calm().with_window(FaultKind::Blackout, 0, 3));
        let req = LlmRequest::new("hello");
        for _ in 0..3 {
            let err = m.generate(&req).unwrap_err();
            assert!(err.to_string().contains("blackout"), "{err}");
        }
        assert!(m.generate(&req).is_ok(), "recovered after the window");
        assert_eq!(m.faults_injected(), 3);
    }

    #[test]
    fn timeout_inflates_latency_only() {
        let m = chaotic(
            ChaosSchedule::calm()
                .with_window(FaultKind::Timeout, 0, 1)
                .with_timeout_inflation(9_999.0),
        );
        let req = LlmRequest::new("hello");
        let slow = m.generate(&req).unwrap();
        let fast = m.generate(&req).unwrap();
        assert_eq!(slow.text, fast.text, "timeout changes latency, not content");
        assert!(slow.usage.latency_ms >= fast.usage.latency_ms + 9_999.0);
    }

    #[test]
    fn malformed_wraps_or_truncates() {
        let m = chaotic(ChaosSchedule::calm().with_window(FaultKind::Malformed, 0, 2));
        let req = LlmRequest::new("hello");
        let wrapped = m.generate(&req).unwrap();
        assert!(wrapped.text.contains("```json"), "{}", wrapped.text);
        let truncated = m.generate(&req).unwrap();
        assert!(!truncated.text.contains("```"));
    }

    #[test]
    fn request_keyed_faults_ignore_arrival_order() {
        // Two requests, one of whose keys lands inside a blackout window.
        // Under RequestKey the same request faults no matter how calls
        // interleave — the property the morsel executor's cross-thread
        // determinism proptests stand on.
        let horizon = 64;
        let a = LlmRequest::new("prompt alpha");
        let b = LlmRequest::new("prompt beta");
        let ia = ChaosSchedule::request_index(&a.prompt, 0, horizon);
        let schedule = ChaosSchedule::calm()
            .with_window(FaultKind::Blackout, ia, 1)
            .keyed_by_request(horizon);
        // Arrival order 1: a, b, a. Order 2: b, a, a. `a` always faults at
        // attempt 0; `b` never does; `a` at attempt 1 has walked out of the
        // 1-call window.
        for order in [["a", "b", "a"], ["b", "a", "a"]] {
            let m = chaotic(schedule.clone());
            let mut a_seen = 0;
            for who in order {
                if who == "a" {
                    let req = a.clone().with_attempt(a_seen);
                    let res = m.generate(&req);
                    if a_seen == 0 {
                        assert!(res.is_err(), "first attempt of `a` must black out");
                    } else {
                        assert!(res.is_ok(), "retry walks out of the window");
                    }
                    a_seen += 1;
                } else {
                    assert!(m.generate(&b).is_ok(), "`b` never faults");
                }
            }
            assert_eq!(m.faults_injected(), 1);
        }
    }

    #[test]
    fn seeded_schedules_are_stable_and_scale_with_intensity() {
        let a = ChaosSchedule::from_seed(42, 120, 0.5);
        let b = ChaosSchedule::from_seed(42, 120, 0.5);
        assert_eq!(a, b);
        assert!(ChaosSchedule::from_seed(42, 120, 0.0).is_calm());
        let heavy = ChaosSchedule::from_seed(42, 120, 1.0);
        assert!(heavy.windows.len() >= a.windows.len());
        for w in &heavy.windows {
            assert!(w.start < 120 && w.len >= 1);
        }
    }
}
