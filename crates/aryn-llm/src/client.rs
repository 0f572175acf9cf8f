//! The LLM client: retries, JSON repair, context budgeting, and metering.
//!
//! "For all of these transforms, Sycamore handles retries and model-specific
//! details like parsing the output as JSON" (§5.2). [`LlmClient`] is where
//! that happens: it wraps any [`LanguageModel`], truncates context to the
//! window, retries transient failures with (simulated) backoff, repairs
//! malformed JSON with the lenient parser, re-asks with a fresh sample when
//! repair fails, and records every call in a shared [`UsageMeter`].

use crate::cache::{CacheKey, CacheStats, LlmCallCache};
use crate::fairshare::FairShare;
use crate::model::{LanguageModel, LlmRequest, Usage};
use crate::reliability::{ReliabilitySlot, ReliabilityState};
use aryn_core::text::{count_tokens, truncate_tokens};
use aryn_core::{json, ArynError, Result, Value};
use parking_lot::Mutex;
use std::sync::Arc;

/// Aggregate usage across calls, shared by clones of a client.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct UsageStats {
    pub calls: u64,
    pub retries: u64,
    pub parse_repairs: u64,
    pub parse_failures: u64,
    pub transient_failures: u64,
    /// Packed (multi-item) model calls issued by the batch layer.
    pub batched_calls: u64,
    /// Items resolved out of packed batch responses (singleton fallbacks and
    /// cache hits are not counted here).
    pub batched_items: u64,
    /// Model calls avoided by packing: for each packed call that resolved
    /// `m` items, `m - 1` calls an unbatched run would have issued.
    pub calls_saved: u64,
    /// Circuit-breaker transitions to open observed by this client.
    pub breaker_trips: u64,
    /// Logical calls answered by a fallback tier instead of the primary
    /// model (see [`LlmClient::with_fallback`]).
    pub fallback_calls: u64,
    /// Documents whose result came from a degraded path (fallback model or
    /// the string-match tier) and were flagged as such.
    pub degraded_docs: u64,
    pub usage: Usage,
}

impl UsageStats {
    /// Counters accumulated since `earlier` (a prior snapshot of the same
    /// meter). Saturating, so a reset meter yields zeros rather than wrapping.
    pub fn since(&self, earlier: &UsageStats) -> UsageStats {
        UsageStats {
            calls: self.calls.saturating_sub(earlier.calls),
            retries: self.retries.saturating_sub(earlier.retries),
            parse_repairs: self.parse_repairs.saturating_sub(earlier.parse_repairs),
            parse_failures: self.parse_failures.saturating_sub(earlier.parse_failures),
            transient_failures: self
                .transient_failures
                .saturating_sub(earlier.transient_failures),
            batched_calls: self.batched_calls.saturating_sub(earlier.batched_calls),
            batched_items: self.batched_items.saturating_sub(earlier.batched_items),
            calls_saved: self.calls_saved.saturating_sub(earlier.calls_saved),
            breaker_trips: self.breaker_trips.saturating_sub(earlier.breaker_trips),
            fallback_calls: self.fallback_calls.saturating_sub(earlier.fallback_calls),
            degraded_docs: self.degraded_docs.saturating_sub(earlier.degraded_docs),
            usage: Usage {
                input_tokens: self.usage.input_tokens.saturating_sub(earlier.usage.input_tokens),
                output_tokens: self
                    .usage
                    .output_tokens
                    .saturating_sub(earlier.usage.output_tokens),
                cost_usd: (self.usage.cost_usd - earlier.usage.cost_usd).max(0.0),
                latency_ms: (self.usage.latency_ms - earlier.usage.latency_ms).max(0.0),
            },
        }
    }

    /// Merge another snapshot into this one (summing all counters).
    pub fn merge(&mut self, other: &UsageStats) {
        self.calls += other.calls;
        self.retries += other.retries;
        self.parse_repairs += other.parse_repairs;
        self.parse_failures += other.parse_failures;
        self.transient_failures += other.transient_failures;
        self.batched_calls += other.batched_calls;
        self.batched_items += other.batched_items;
        self.calls_saved += other.calls_saved;
        self.breaker_trips += other.breaker_trips;
        self.fallback_calls += other.fallback_calls;
        self.degraded_docs += other.degraded_docs;
        self.usage.add(&other.usage);
    }
}

/// Thread-safe usage meter.
#[derive(Debug, Default)]
pub struct UsageMeter {
    inner: Mutex<UsageStats>,
}

impl UsageMeter {
    pub fn new() -> Arc<UsageMeter> {
        Arc::new(UsageMeter::default())
    }

    pub fn snapshot(&self) -> UsageStats {
        *self.inner.lock()
    }

    pub fn reset(&self) {
        *self.inner.lock() = UsageStats::default();
    }

    pub(crate) fn record(&self, usage: &Usage) {
        let mut s = self.inner.lock();
        s.calls += 1;
        s.usage.add(usage);
    }

    pub(crate) fn bump(&self, f: impl FnOnce(&mut UsageStats)) {
        f(&mut self.inner.lock());
    }
}

/// One measurement of LLM work: the meters and call caches reachable from a
/// set of clients (each client's whole fallback chain), every distinct meter
/// and cache counted once however many clients share it. Opened before a
/// stage, a plan node or a planning session runs; [`MeterScope::finish`]
/// returns what happened in between. This is the only place accounting is
/// measured — stage and node records carry the returned pair.
pub struct MeterScope {
    meters: Vec<Arc<UsageMeter>>,
    caches: Vec<Arc<LlmCallCache>>,
    opened_at: (UsageStats, CacheStats),
}

impl MeterScope {
    pub fn open<'a>(clients: impl IntoIterator<Item = &'a LlmClient>) -> MeterScope {
        let mut scope = MeterScope {
            meters: Vec::new(),
            caches: Vec::new(),
            opened_at: Default::default(),
        };
        for client in clients {
            for tier in client.fallback_chain() {
                if !scope.meters.iter().any(|m| Arc::ptr_eq(m, &tier.meter)) {
                    scope.meters.push(Arc::clone(&tier.meter));
                }
                if let Some(cache) = &tier.cache {
                    if !scope.caches.iter().any(|c| Arc::ptr_eq(c, cache)) {
                        scope.caches.push(Arc::clone(cache));
                    }
                }
            }
        }
        scope.opened_at = scope.totals();
        scope
    }

    /// Lifetime totals of the scoped meters and caches, as of now.
    pub fn totals(&self) -> (UsageStats, CacheStats) {
        let mut llm = UsageStats::default();
        let mut cache = CacheStats::default();
        for m in &self.meters {
            llm.merge(&m.snapshot());
        }
        for c in &self.caches {
            cache.merge(&c.stats());
        }
        (llm, cache)
    }

    /// Usage and cache activity since the scope was opened.
    pub fn finish(&self) -> (UsageStats, CacheStats) {
        let (llm, cache) = self.totals();
        (llm.since(&self.opened_at.0), cache.since(&self.opened_at.1))
    }
}

/// Retry policy for one logical call.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Max attempts for transient failures.
    pub max_transient: u32,
    /// Max re-asks when output JSON is unparseable even leniently.
    pub max_reask: u32,
}

/// Base of the (simulated) exponential backoff between transient retries,
/// in ms.
pub const BACKOFF_BASE_MS: f64 = 100.0;

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_transient: 4,
            max_reask: 2,
        }
    }
}

/// Result of a degradation-aware structured call: the parsed value plus
/// which fallback model answered (None when the primary did).
#[derive(Debug, Clone, PartialEq)]
pub struct DegradedJson {
    pub value: Value,
    pub degraded_to: Option<String>,
}

/// A metering, retrying client over a [`LanguageModel`].
#[derive(Clone)]
pub struct LlmClient {
    model: Arc<dyn LanguageModel>,
    meter: Arc<UsageMeter>,
    policy: RetryPolicy,
    cache: Option<Arc<LlmCallCache>>,
    /// Cache-key namespace: `Some` isolates this client's cache entries from
    /// other namespaces sharing the same [`LlmCallCache`] (per-tenant cache
    /// policy in the serving layer); `None` shares the global namespace.
    cache_namespace: Option<Arc<str>>,
    /// Reliability indirection: the slot lets a session repoint every client
    /// in its ladder at a fresh per-query budget fork without rebuilding
    /// clients (see [`ReliabilitySlot`]).
    reliability: Option<Arc<ReliabilitySlot>>,
    /// Fair-share call-slot gate plus the tenant id to acquire under.
    slots: Option<(Arc<FairShare>, Arc<str>)>,
    fallback: Option<Box<LlmClient>>,
}

impl LlmClient {
    pub fn new(model: Arc<dyn LanguageModel>) -> LlmClient {
        LlmClient {
            model,
            meter: UsageMeter::new(),
            policy: RetryPolicy::default(),
            cache: None,
            cache_namespace: None,
            reliability: None,
            slots: None,
            fallback: None,
        }
    }

    pub fn with_policy(mut self, policy: RetryPolicy) -> LlmClient {
        self.policy = policy;
        self
    }

    /// Shares an existing meter (so multiple clients aggregate together).
    #[cfg(test)]
    fn with_meter(mut self, meter: Arc<UsageMeter>) -> LlmClient {
        self.meter = meter;
        self
    }

    /// Shares a call cache (see [`crate::cache`]). Only deterministic calls
    /// are memoized — temperature 0, first logical attempt; re-ask samples
    /// at raised temperature always reach the model. Cache hits do NOT bump
    /// the meter: `UsageStats::calls` stays a count of real model calls, so
    /// hit savings are directly visible in the metering.
    pub fn with_cache(mut self, cache: Arc<LlmCallCache>) -> LlmClient {
        self.cache = Some(cache);
        self
    }

    /// Attaches shared reliability state (deadline budget + per-model
    /// breakers; see [`crate::reliability`]). With the default (inert)
    /// policy this is a no-op: call counts and usage accounting are
    /// byte-identical to a client with no reliability state.
    ///
    /// The state is wrapped in a private [`ReliabilitySlot`]; clients that
    /// should all repoint together at a per-query fork share one slot via
    /// [`with_reliability_slot`](Self::with_reliability_slot) instead.
    pub fn with_reliability(mut self, state: Arc<ReliabilityState>) -> LlmClient {
        self.reliability = Some(ReliabilitySlot::new(state));
        self
    }

    /// Shares a swappable reliability slot: installing a fresh
    /// [`ReliabilityState::fork`] into the slot retargets every client
    /// holding it (a session's whole degradation ladder) at the new budget.
    pub fn with_reliability_slot(mut self, slot: Arc<ReliabilitySlot>) -> LlmClient {
        self.reliability = Some(slot);
        self
    }

    /// Namespaces this client's cache keys (see [`CacheKey::for_call_in`]):
    /// clients in different namespaces never share entries even over one
    /// [`LlmCallCache`]. The serving layer uses tenant ids here when a
    /// tenant opts out of the shared cache.
    pub fn with_cache_namespace(mut self, namespace: &str) -> LlmClient {
        self.cache_namespace = Some(Arc::from(namespace));
        self
    }

    /// Gates real model calls through a fair-share slot scheduler under
    /// `tenant`'s identity (see [`crate::fairshare`]). Cache hits bypass the
    /// gate — only calls that would occupy a model endpoint queue for slots.
    pub fn with_slots(mut self, gate: Arc<FairShare>, tenant: &str) -> LlmClient {
        self.slots = Some((gate, Arc::from(tenant)));
        self
    }

    /// Chains a cheaper fallback client behind this one. Degradation-aware
    /// callers ([`LlmClient::generate_json_with_fallback`]) walk the chain
    /// when this tier's breaker is open, its budget is low, or its retry
    /// ladder is exhausted.
    pub fn with_fallback(mut self, fallback: LlmClient) -> LlmClient {
        self.fallback = Some(Box::new(fallback));
        self
    }

    /// Wraps the underlying model in a [`crate::chaos::ChaosModel`] with the
    /// given fault schedule. The wrapper gets a fresh call clock, so each
    /// wrapped client sees the schedule from call index 0.
    pub fn with_chaos(mut self, schedule: crate::chaos::ChaosSchedule) -> LlmClient {
        self.model = Arc::new(crate::chaos::ChaosModel::wrap(
            Arc::clone(&self.model),
            schedule,
        ));
        self
    }

    /// The reliability state currently installed (through the slot, so a
    /// per-query fork installed by the session is what callers see).
    pub fn reliability(&self) -> Option<Arc<ReliabilityState>> {
        self.reliability.as_ref().map(|s| s.current())
    }

    /// The cache-key namespace, if any.
    pub fn cache_namespace(&self) -> Option<&str> {
        self.cache_namespace.as_deref()
    }

    pub fn fallback(&self) -> Option<&LlmClient> {
        self.fallback.as_deref()
    }

    /// This client followed by its transitive fallbacks (primary first).
    /// Stage accounting walks this so fallback-tier meters are attributed
    /// to the stage that used them.
    pub fn fallback_chain(&self) -> Vec<&LlmClient> {
        let mut chain = vec![self];
        let mut cur = self;
        while let Some(next) = cur.fallback.as_deref() {
            chain.push(next);
            cur = next;
        }
        chain
    }

    /// True when a call's outcome depends on the calls issued before it,
    /// through this client or any tier of its fallback chain: an
    /// arrival-order chaos schedule ([`LanguageModel::order_dependent`]) or
    /// a reliability policy whose budgets or breakers keep one running
    /// account ([`ReliabilityPolicy::order_dependent`]). The executor runs a
    /// stage over such a client on one worker, so the worker count never
    /// decides which document meets fault #k or the deadline.
    ///
    /// [`ReliabilityPolicy::order_dependent`]: crate::ReliabilityPolicy::order_dependent
    pub fn order_dependent(&self) -> bool {
        self.fallback_chain().iter().any(|c| {
            c.model.order_dependent()
                || c.reliability().is_some_and(|r| r.policy().order_dependent())
        })
    }

    /// Flags `n` documents as degraded in the meter (called by transforms
    /// when a document's result came from a fallback tier or string-match).
    pub fn note_degraded_docs(&self, n: u64) {
        if n > 0 {
            self.meter.bump(|s| s.degraded_docs += n);
        }
    }

    pub fn model_name(&self) -> &str {
        self.model.name()
    }

    /// The wrapped model's context window, in tokens.
    pub fn context_window(&self) -> usize {
        self.model.context_window()
    }

    pub(crate) fn meter_ref(&self) -> &UsageMeter {
        &self.meter
    }

    pub(crate) fn retry_policy(&self) -> RetryPolicy {
        self.policy
    }

    pub fn stats(&self) -> UsageStats {
        self.meter.snapshot()
    }

    pub fn cache(&self) -> Option<Arc<LlmCallCache>> {
        self.cache.clone()
    }

    /// Cache counters (zeros when no cache is attached).
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.as_ref().map(|c| c.stats()).unwrap_or_default()
    }

    /// Budget available for context text in a prompt whose fixed parts cost
    /// `overhead_tokens`, leaving room for `max_output` completion tokens.
    pub fn context_budget(&self, overhead_tokens: usize, max_output: usize) -> usize {
        self.model
            .context_window()
            .saturating_sub(overhead_tokens + max_output + 16)
    }

    /// Truncates `context` so that `prompt_fn(context)` fits the window with
    /// `max_output` completion tokens to spare, then returns the prompt.
    pub fn fit_prompt(
        &self,
        context: &str,
        max_output: usize,
        prompt_fn: impl Fn(&str) -> String,
    ) -> String {
        prompt_fn(self.fitted(context, max_output, &prompt_fn))
    }

    /// Truncates `context` exactly the way [`LlmClient::fit_prompt`] would,
    /// returning the fitted context instead of the rendered prompt. Callers
    /// that pack several contexts into one envelope (see [`crate::batch`])
    /// need the per-item text whose singleton prompt is byte-identical to
    /// `fit_prompt`'s output, so cache fingerprints line up.
    pub fn fit_context(
        &self,
        context: &str,
        max_output: usize,
        prompt_fn: impl Fn(&str) -> String,
    ) -> String {
        self.fitted(context, max_output, &prompt_fn).to_string()
    }

    /// The longest word-boundary prefix of `context` within the budget the
    /// rest of the prompt leaves. A token is at least one byte, so when the
    /// bytes fit, the tokens do: the whole context is kept without counting.
    fn fitted<'c>(&self, context: &'c str, max_output: usize, prompt_fn: impl Fn(&str) -> String) -> &'c str {
        let empty = prompt_fn("");
        let bytes = empty.len().saturating_add(context.len()).saturating_add(max_output).saturating_add(16);
        if bytes <= self.model.context_window() {
            return context;
        }
        truncate_tokens(context, self.context_budget(count_tokens(&empty), max_output))
    }

    /// One raw completion with transient-failure retries and metering.
    pub fn generate(&self, prompt: &str, max_output: usize) -> Result<String> {
        self.generate_at(prompt, max_output, 0.0, 0)
    }

    fn generate_at(
        &self,
        prompt: &str,
        max_output: usize,
        temperature: f32,
        attempt_base: u32,
    ) -> Result<String> {
        // Cacheability policy: temperature-0 first-attempt calls are pure
        // functions of the prompt; re-asks (bumped attempt base, raised
        // temperature) are deliberate fresh samples and must not be memoized.
        let cacheable = temperature == 0.0 && attempt_base == 0;
        if cacheable {
            if let Some(cache) = &self.cache {
                let key = CacheKey::for_call_in(
                    self.cache_namespace.as_deref(),
                    self.model.name(),
                    prompt,
                    max_output,
                    temperature,
                );
                let out = cache.get_or_compute(key, || {
                    self.call_model(prompt, max_output, temperature, attempt_base)
                })?;
                if !out.hit {
                    self.meter.record(&out.usage);
                }
                return Ok(out.text);
            }
        }
        let (text, usage) = self.call_model(prompt, max_output, temperature, attempt_base)?;
        self.meter.record(&usage);
        Ok(text)
    }

    /// The raw transient-retry loop around the model, returning the text and
    /// the (backoff-inclusive) usage of the successful attempt. Metering of
    /// the successful call is the caller's job; transient failures are
    /// metered here, where they happen.
    pub(crate) fn call_model(
        &self,
        prompt: &str,
        max_output: usize,
        temperature: f32,
        attempt_base: u32,
    ) -> Result<(String, Usage)> {
        // Reliability gates only engage with an explicit, non-inert policy;
        // otherwise this loop is byte-identical to the ungated client.
        // Resolved through the slot once per logical call: a fork installed
        // mid-call does not retroactively re-budget in-flight attempts.
        let rel = self
            .reliability
            .as_ref()
            .map(|s| s.current())
            .filter(|r| r.policy().enabled());
        let rel = rel.as_deref();
        let breaker = rel.and_then(|r| r.breaker(self.model.name()));
        let mut last_err = None;
        // A policy of 0 transient retries still means one attempt: the model
        // must be called at least once per logical request.
        for attempt in 0..self.policy.max_transient.max(1) {
            if let Some(r) = rel {
                r.check_deadline()?;
            }
            if let Some(b) = &breaker {
                if !b.allow(rel.map_or(0.0, |r| r.now_ms())) {
                    return Err(ArynError::CircuitOpen {
                        model: self.model.name().to_string(),
                    });
                }
            }
            let req = LlmRequest::new(prompt)
                .with_max_tokens(max_output)
                .with_temperature(temperature)
                .with_attempt(attempt_base + attempt);
            // Fair-share gating: hold a call slot for the duration of the
            // model call so one tenant's storm queues here instead of
            // monopolizing the endpoint pool. Queue waits are real thread
            // waits, not budget charges — a queued query's deadline clock
            // only ticks for work done on its behalf, which keeps its
            // accounting bit-identical to an uncontended run.
            let slot = self
                .slots
                .as_ref()
                .map(|(gate, tenant)| gate.acquire(tenant));
            let generated = self.model.generate(&req);
            drop(slot);
            match generated {
                Ok(resp) => {
                    let model_latency_ms = resp.usage.latency_ms;
                    if let Some(r) = rel {
                        // Tokens and dollars were consumed whether or not the
                        // call beats the timeout below.
                        r.charge_usage(
                            (resp.usage.input_tokens + resp.usage.output_tokens) as u64,
                            resp.usage.cost_usd,
                        );
                        let p = r.policy();
                        if p.call_timeout_ms > 0.0 && model_latency_ms > p.call_timeout_ms {
                            // Simulated per-call timeout: the caller would
                            // have hung up. Charge the timeout, fail the
                            // breaker, and retry like any transient failure.
                            r.charge(p.call_timeout_ms);
                            if let Some(b) = &breaker {
                                if b.record(false, r.now_ms()) {
                                    self.meter.bump(|s| s.breaker_trips += 1);
                                }
                            }
                            self.meter.bump(|s| {
                                s.transient_failures += 1;
                                s.retries += 1;
                            });
                            last_err = Some(ArynError::Llm(format!(
                                "{}: call timed out ({:.0}ms > {:.0}ms budget)",
                                self.model.name(),
                                model_latency_ms,
                                p.call_timeout_ms
                            )));
                            continue;
                        }
                        // Backoff was charged per failure below; only the
                        // model's own latency joins the budget here.
                        r.charge(model_latency_ms);
                        if let Some(b) = &breaker {
                            b.record(true, r.now_ms());
                        }
                    }
                    let mut usage = resp.usage;
                    // Simulated backoff time joins the latency account.
                    if attempt > 0 {
                        usage.latency_ms += BACKOFF_BASE_MS * ((1 << (attempt - 1)) as f64);
                    }
                    return Ok((resp.text, usage));
                }
                Err(e @ ArynError::ContextOverflow { .. }) => return Err(e),
                Err(e) => {
                    self.meter.bump(|s| {
                        s.transient_failures += 1;
                        s.retries += 1;
                    });
                    if let Some(r) = rel {
                        // Exponential backoff with seeded jitter, charged to
                        // the virtual clock instead of sleeping.
                        let backoff =
                            crate::reliability::backoff_ms(self.model.name(), attempt + 1);
                        r.charge(backoff);
                        if let Some(b) = &breaker {
                            if b.record(false, r.now_ms()) {
                                self.meter.bump(|s| s.breaker_trips += 1);
                            }
                        }
                    }
                    last_err = Some(e);
                }
            }
        }
        Err(last_err.unwrap_or_else(|| ArynError::Llm("exhausted retries".into())))
    }

    /// A completion parsed as JSON. Strategy, mirroring production stacks:
    ///
    /// 1. strict parse;
    /// 2. lenient repair (fences, prose, quotes) — counted as a repair;
    /// 3. re-ask at temperature 0.4 with a bumped attempt (fresh sample),
    ///    up to `max_reask` times.
    pub fn generate_json(&self, prompt: &str, max_output: usize) -> Result<Value> {
        let mut attempt_base = 0;
        for reask in 0..=self.policy.max_reask {
            let temperature = if reask == 0 { 0.0 } else { 0.4 };
            let text = self.generate_at(prompt, max_output, temperature, attempt_base)?;
            attempt_base += self.policy.max_transient.max(1);
            if let Ok(v) = json::parse(&text) {
                return Ok(v);
            }
            match json::parse_lenient(&text) {
                Ok(v) => {
                    self.meter.bump(|s| s.parse_repairs += 1);
                    return Ok(v);
                }
                Err(_) => {
                    self.meter.bump(|s| {
                        s.parse_failures += 1;
                        if reask < self.policy.max_reask {
                            s.retries += 1;
                        }
                    });
                }
            }
        }
        Err(ArynError::Llm(format!(
            "{}: unparseable JSON after {} re-asks",
            self.model.name(),
            self.policy.max_reask
        )))
    }

    /// A structured call that walks the degradation chain. Each tier fits
    /// `context` to its own window via `prompt_fn` and runs the full
    /// `generate_json` ladder; the next (cheaper) tier is tried when a tier
    /// fails with [`ArynError::CircuitOpen`], [`ArynError::DeadlineExceeded`],
    /// or an exhausted retry ladder. When the deadline budget is low, tiers
    /// with a fallback are skipped proactively (why pay for GPT-4 when the
    /// answer may not land in time). With no fallback and no reliability
    /// state this is exactly `fit_prompt` + `generate_json`.
    pub fn generate_json_with_fallback(
        &self,
        context: &str,
        max_output: usize,
        prompt_fn: &dyn Fn(&str) -> String,
    ) -> Result<DegradedJson> {
        let mut tier = Some(self);
        let mut primary = true;
        let mut last_err = None;
        while let Some(c) = tier {
            // Proactive degradation: skip an expensive tier outright when
            // the remaining budget is below the policy threshold and a
            // cheaper tier exists.
            let skip = c.fallback.is_some()
                && c.reliability().is_some_and(|r| r.budget_low());
            if !skip {
                let prompt = c.fit_prompt(context, max_output, prompt_fn);
                match c.generate_json(&prompt, max_output) {
                    Ok(value) => {
                        if !primary {
                            self.meter.bump(|s| s.fallback_calls += 1);
                        }
                        return Ok(DegradedJson {
                            value,
                            degraded_to: (!primary).then(|| c.model_name().to_string()),
                        });
                    }
                    // These are the degradation triggers; anything else
                    // (context overflow, IO) propagates unchanged.
                    Err(
                        e @ (ArynError::CircuitOpen { .. }
                        | ArynError::DeadlineExceeded { .. }
                        | ArynError::Llm(_)),
                    ) => last_err = Some(e),
                    Err(e) => return Err(e),
                }
            }
            tier = c.fallback.as_deref();
            primary = false;
        }
        Err(last_err.unwrap_or_else(|| ArynError::Llm("no model tiers available".into())))
    }

    /// Runs `generate_json` over many prompts, preserving order. (The
    /// parallel executor in Sycamore parallelizes at the document level;
    /// this is the simple sequential path.)
    pub fn generate_json_batch(&self, prompts: &[String], max_output: usize) -> Vec<Result<Value>> {
        prompts
            .iter()
            .map(|p| self.generate_json(p, max_output))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mock::{MockLlm, SimConfig};
    use crate::prompt::tasks;
    use crate::registry::{GPT35_SIM, GPT4_SIM, LLAMA7B_SIM};
    use aryn_core::obj;

    fn client(spec: &'static crate::registry::ModelSpec, cfg: SimConfig) -> LlmClient {
        LlmClient::new(Arc::new(MockLlm::new(spec, cfg)))
    }

    #[test]
    fn generate_json_parses_and_meters() {
        let c = client(&GPT4_SIM, SimConfig::perfect(1));
        let p = tasks::extract(&obj! { "city" => "string" }, "Happened near Denver, CO.");
        let v = c.generate_json(&p, 256).unwrap();
        assert_eq!(v.get("city").unwrap().as_str(), Some("Denver"));
        let s = c.stats();
        assert_eq!(s.calls, 1);
        assert!(s.usage.cost_usd > 0.0);
    }

    #[test]
    fn malformed_outputs_get_repaired_or_reasked() {
        let c = client(&LLAMA7B_SIM, SimConfig::with_seed(5));
        let mut ok = 0;
        for i in 0..200 {
            let p = tasks::extract(
                &obj! { "us_state_abbrev" => "string" },
                &format!("Case {i} near Anchorage, AK."),
            );
            if c.generate_json(&p, 256).is_ok() {
                ok += 1;
            }
        }
        let s = c.stats();
        assert!(s.parse_repairs > 0, "lenient repairs should fire: {s:?}");
        assert!(ok >= 195, "almost all calls should eventually parse: {ok}");
    }

    #[test]
    fn transient_failures_are_retried() {
        let c = client(&GPT35_SIM, SimConfig { seed: 9, transient_scale: 20.0, ..SimConfig::perfect(9) });
        // 20x the 1% transient rate = 20% per attempt; retries should push
        // success rate high anyway.
        let mut ok = 0;
        for i in 0..100 {
            let p = tasks::filter("mentions wind", &format!("doc {i} with wind"));
            if c.generate(&p, 64).is_ok() {
                ok += 1;
            }
        }
        assert!(ok >= 95, "{ok}");
        assert!(c.stats().transient_failures > 0);
    }

    #[test]
    fn fit_prompt_respects_window() {
        let c = client(&LLAMA7B_SIM, SimConfig::perfect(2));
        let huge = "verbose filler text ".repeat(2000);
        let p = c.fit_prompt(&huge, 256, |ctx| tasks::answer("what?", ctx));
        assert!(count_tokens(&p) + 256 <= LLAMA7B_SIM.context_window);
        // And the model accepts it.
        assert!(c.generate(&p, 256).is_ok());
    }

    #[test]
    fn context_overflow_not_retried() {
        let c = client(&LLAMA7B_SIM, SimConfig::perfect(2));
        let huge = "word ".repeat(6000);
        let p = tasks::answer("what?", &huge);
        assert!(matches!(
            c.generate(&p, 128),
            Err(ArynError::ContextOverflow { .. })
        ));
        assert_eq!(c.stats().retries, 0);
    }

    #[test]
    fn meters_can_be_shared() {
        let meter = UsageMeter::new();
        let a = client(&GPT4_SIM, SimConfig::perfect(1)).with_meter(Arc::clone(&meter));
        let b = client(&GPT35_SIM, SimConfig::perfect(1)).with_meter(Arc::clone(&meter));
        let p = tasks::filter("x", "y");
        a.generate(&p, 32).unwrap();
        b.generate(&p, 32).unwrap();
        assert_eq!(meter.snapshot().calls, 2);
    }

    #[test]
    fn meter_scope_counts_each_meter_and_cache_once() {
        let meter = UsageMeter::new();
        let cache = Arc::new(crate::cache::LlmCallCache::with_capacity(32));
        // `a` and `b` share one meter; `a`'s fallback tier shares `a`'s cache
        // but meters on its own; `pinned` shares nothing.
        let tier = client(&LLAMA7B_SIM, SimConfig::perfect(1)).with_cache(Arc::clone(&cache));
        let a = client(&GPT4_SIM, SimConfig::perfect(1))
            .with_meter(Arc::clone(&meter))
            .with_cache(Arc::clone(&cache))
            .with_fallback(tier);
        let b = client(&GPT35_SIM, SimConfig::perfect(1)).with_meter(Arc::clone(&meter));
        let pinned = client(&GPT35_SIM, SimConfig::perfect(2));
        let p = tasks::filter("mentions wind", "gusty wind all day");
        a.generate(&p, 32).unwrap(); // spend before the scope opens: not in the delta
        let before = [a.stats(), a.fallback().unwrap().stats(), pinned.stats()];
        let cache_before = cache.stats();
        let scope = MeterScope::open([&a, &b, &pinned, &a]);
        assert_eq!((scope.meters.len(), scope.caches.len()), (3, 1));
        a.generate(&p, 32).unwrap(); // cache hit: no meter moves
        b.generate(&p, 32).unwrap();
        a.fallback().unwrap().generate(&p, 32).unwrap();
        pinned.generate(&p, 32).unwrap();
        pinned.generate(&tasks::filter("mentions rain", "heavy rain"), 32).unwrap();
        let (llm, hits) = scope.finish();
        let mut want = UsageStats::default();
        for (c, b4) in [&a, a.fallback().unwrap(), &pinned].into_iter().zip(&before) {
            want.merge(&c.stats().since(b4));
        }
        assert_eq!((llm.calls, llm.usage.tokens()), (want.calls, want.usage.tokens()));
        // Dollars are a float sum: equal up to summation order.
        assert!((llm.usage.cost_usd - want.usage.cost_usd).abs() < 1e-12);
        assert_eq!(llm.calls, 4, "shared meter counted once, not per client");
        assert_eq!(hits, cache.stats().since(&cache_before));
        assert_eq!((hits.hits, hits.misses), (1, 1));
    }

    #[test]
    fn zero_transient_budget_still_calls_model_once() {
        // Regression: max_transient == 0 used to skip the model entirely and
        // report Llm("exhausted retries") for a call that never happened.
        let c = client(&GPT4_SIM, SimConfig::perfect(1)).with_policy(RetryPolicy {
            max_transient: 0,
            ..RetryPolicy::default()
        });
        let p = tasks::filter("mentions wind", "gusty wind all day");
        let text = c.generate(&p, 64).unwrap();
        assert!(!text.is_empty());
        assert_eq!(c.stats().calls, 1);
        assert_eq!(c.stats().retries, 0);
    }

    #[test]
    fn cache_serves_repeat_calls_without_model_calls() {
        let cache = Arc::new(crate::cache::LlmCallCache::with_capacity(32));
        let c = client(&GPT4_SIM, SimConfig::perfect(1)).with_cache(Arc::clone(&cache));
        let p = tasks::extract(&obj! { "city" => "string" }, "Happened near Denver, CO.");
        let v1 = c.generate_json(&p, 256).unwrap();
        let v2 = c.generate_json(&p, 256).unwrap();
        assert_eq!(v1, v2);
        // One real model call; the second was a hit and did not meter.
        assert_eq!(c.stats().calls, 1);
        let s = c.cache_stats();
        assert_eq!((s.hits, s.misses), (1, 1));
        assert!(s.cost_saved_usd > 0.0);
    }

    /// A model that emits garbage at temperature 0 and valid JSON on the
    /// re-ask sample, counting every call it receives.
    struct ReaskModel {
        calls: std::sync::atomic::AtomicU64,
    }

    impl LanguageModel for ReaskModel {
        fn name(&self) -> &str {
            "reask-sim"
        }
        fn context_window(&self) -> usize {
            8192
        }
        fn generate(&self, req: &LlmRequest) -> Result<crate::model::LlmResponse> {
            self.calls.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            let text = if req.temperature == 0.0 {
                "total garbage ]] not json".to_string()
            } else {
                "{\"ok\": true}".to_string()
            };
            Ok(crate::model::LlmResponse {
                text,
                usage: Usage {
                    input_tokens: 10,
                    output_tokens: 5,
                    cost_usd: 0.01,
                    latency_ms: 1.0,
                },
                model: "reask-sim".to_string(),
            })
        }
    }

    #[test]
    fn reask_samples_bypass_the_cache() {
        let cache = Arc::new(crate::cache::LlmCallCache::with_capacity(32));
        let c = LlmClient::new(Arc::new(ReaskModel {
            calls: std::sync::atomic::AtomicU64::new(0),
        }))
        .with_cache(Arc::clone(&cache));
        let v = c.generate_json("prompt", 64).unwrap();
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true));
        // Call 1: temp-0 garbage (cached as a miss+insert). Call 2: the
        // temp-0.4 re-ask, never cached.
        assert_eq!(cache.len(), 1);
        let v = c.generate_json("prompt", 64).unwrap();
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true));
        let s = cache.stats();
        // Second query hit the cached garbage, then re-asked the model again.
        assert_eq!((s.hits, s.misses, s.inserts), (1, 1, 1));
        assert_eq!(c.stats().calls, 3, "temp0 + reask, then reask only");
    }

    #[test]
    fn inert_reliability_policy_changes_nothing() {
        use crate::reliability::{ReliabilityPolicy, ReliabilityState};
        let state = ReliabilityState::new(ReliabilityPolicy::default());
        let c = client(&GPT4_SIM, SimConfig::perfect(1)).with_reliability(state);
        let p = tasks::extract(&obj! { "city" => "string" }, "Happened near Denver, CO.");
        let v = c.generate_json(&p, 256).unwrap();
        assert_eq!(v.get("city").unwrap().as_str(), Some("Denver"));
        let s = c.stats();
        assert_eq!((s.calls, s.retries, s.breaker_trips), (1, 0, 0));
    }

    #[test]
    fn breaker_trips_then_fails_fast() {
        use crate::chaos::{ChaosModel, ChaosSchedule, FaultKind};
        use crate::reliability::{ReliabilityPolicy, ReliabilityState};
        let dead = Arc::new(ChaosModel::wrap(
            Arc::new(MockLlm::new(&GPT4_SIM, SimConfig::perfect(1))),
            ChaosSchedule::calm().with_window(FaultKind::Blackout, 0, 1_000),
        ));
        let state = ReliabilityState::new(ReliabilityPolicy {
            breaker_window: 4,
            breaker_threshold: 0.5,
            breaker_cooldown_ms: 1e9,
            ..ReliabilityPolicy::default()
        });
        let c = LlmClient::new(Arc::clone(&dead) as Arc<dyn LanguageModel>)
            .with_reliability(state);
        // First logical call burns the retry ladder (4 attempts) and trips
        // the breaker on the 4th failure.
        let err = c.generate("hello", 32).unwrap_err();
        assert!(matches!(err, ArynError::Llm(_)), "{err}");
        assert_eq!(dead.calls(), 4);
        assert_eq!(c.stats().breaker_trips, 1);
        // Subsequent calls fail fast without touching the endpoint.
        let err = c.generate("hello again", 32).unwrap_err();
        assert!(matches!(err, ArynError::CircuitOpen { ref model } if model == "gpt-4-sim"));
        assert_eq!(dead.calls(), 4, "open breaker must not call the model");
    }

    #[test]
    fn deadline_exceeded_is_structured() {
        use crate::reliability::{ReliabilityPolicy, ReliabilityState};
        let state = ReliabilityState::new(ReliabilityPolicy {
            deadline_ms: 500.0,
            ..ReliabilityPolicy::default()
        });
        let c = client(&GPT4_SIM, SimConfig::perfect(1)).with_reliability(Arc::clone(&state));
        // GPT-4-sim's base latency alone (450ms) nearly exhausts the budget.
        let p = tasks::filter("mentions wind", "gusty wind all day");
        c.generate(&p, 64).unwrap();
        assert!(state.now_ms() >= 450.0);
        let err = c.generate(&tasks::filter("mentions rain", "heavy rain"), 64).unwrap_err();
        assert!(matches!(err, ArynError::DeadlineExceeded { .. }), "{err}");
    }

    #[test]
    fn fallback_chain_answers_and_flags_degradation() {
        use crate::chaos::{ChaosModel, ChaosSchedule, FaultKind};
        use crate::reliability::{ReliabilityPolicy, ReliabilityState};
        let dead = Arc::new(ChaosModel::wrap(
            Arc::new(MockLlm::new(&GPT4_SIM, SimConfig::perfect(1))),
            ChaosSchedule::calm().with_window(FaultKind::Blackout, 0, 1_000),
        ));
        let state = ReliabilityState::new(ReliabilityPolicy {
            breaker_window: 4,
            breaker_threshold: 0.5,
            breaker_cooldown_ms: 1e9,
            ..ReliabilityPolicy::default()
        });
        let llama = client(&LLAMA7B_SIM, SimConfig::perfect(1))
            .with_reliability(Arc::clone(&state));
        let c = LlmClient::new(Arc::clone(&dead) as Arc<dyn LanguageModel>)
            .with_reliability(state)
            .with_fallback(llama);
        let out = c
            .generate_json_with_fallback("Happened near Denver, CO.", 256, &|ctx| {
                tasks::extract(&obj! { "city" => "string" }, ctx)
            })
            .unwrap();
        assert_eq!(out.degraded_to.as_deref(), Some("llama-7b-sim"));
        assert_eq!(out.value.get("city").unwrap().as_str(), Some("Denver"));
        assert_eq!(c.stats().fallback_calls, 1);
        // Second call: the open breaker skips the dead endpoint entirely.
        let calls_before = dead.calls();
        let out = c
            .generate_json_with_fallback("Happened near Austin, TX.", 256, &|ctx| {
                tasks::extract(&obj! { "city" => "string" }, ctx)
            })
            .unwrap();
        assert_eq!(out.degraded_to.as_deref(), Some("llama-7b-sim"));
        assert_eq!(dead.calls(), calls_before);
    }

    #[test]
    fn low_budget_skips_the_expensive_tier_proactively() {
        use crate::reliability::{ReliabilityPolicy, ReliabilityState};
        let state = ReliabilityState::new(ReliabilityPolicy {
            deadline_ms: 10_000.0,
            degrade_below_ms: 20_000.0, // remaining (10s) is already "low"
            ..ReliabilityPolicy::default()
        });
        let gpt4_meter = UsageMeter::new();
        let llama = client(&LLAMA7B_SIM, SimConfig::perfect(1))
            .with_reliability(Arc::clone(&state));
        let c = client(&GPT4_SIM, SimConfig::perfect(1))
            .with_meter(Arc::clone(&gpt4_meter))
            .with_reliability(state)
            .with_fallback(llama);
        let out = c
            .generate_json_with_fallback("Happened near Denver, CO.", 256, &|ctx| {
                tasks::extract(&obj! { "city" => "string" }, ctx)
            })
            .unwrap();
        assert_eq!(out.degraded_to.as_deref(), Some("llama-7b-sim"));
        assert_eq!(gpt4_meter.snapshot().calls, 0, "primary tier skipped");
        assert_eq!(c.stats().fallback_calls, 1);
    }

    #[test]
    fn batch_preserves_order() {
        let c = client(&GPT4_SIM, SimConfig::perfect(3));
        let prompts: Vec<String> = ["Denver, CO.", "Austin, TX."]
            .iter()
            .map(|d| tasks::extract(&obj! { "us_state_abbrev" => "string" }, d))
            .collect();
        let out = c.generate_json_batch(&prompts, 128);
        assert_eq!(out[0].as_ref().unwrap().get("us_state_abbrev").unwrap().as_str(), Some("CO"));
        assert_eq!(out[1].as_ref().unwrap().get("us_state_abbrev").unwrap().as_str(), Some("TX"));
    }
}
