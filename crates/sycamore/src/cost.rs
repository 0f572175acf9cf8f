//! Static cost analysis over Sycamore pipelines — the engine-side half of
//! the abstract interpreter (the plan-side half lives in `luna::costmodel`
//! and reuses this module's [`Interval`] lattice, [`CostKnobs`] and LLM
//! transfer function [`llm_bounds`]).
//!
//! Every operator gets a *transfer function* over interval abstractions:
//! document cardinality `[lo, hi]`, LLM calls, prompt/completion tokens,
//! simulated dollars, and virtual-clock latency. The bounds are **sound**,
//! not tight: an executed pipeline's real [`crate::stats::ExecStats`] must
//! land inside them under any worker count, batch width, cache state, or
//! chaos schedule (enforced by the `cost_envelope` tests). Upper bounds
//! therefore carry retry headroom (every transient retry and JSON re-ask
//! meters as a real call), degradation-ladder headroom (each fallback tier
//! runs its own attempt ladder), and micro-batch bisection headroom (a
//! malformed pack splits toward singletons); lower bounds drop to zero
//! whenever a cache hit, circuit breaker, or proactive deadline skip could
//! legally answer without a metered call.

use crate::context::Context;
use crate::op::Op;
use crate::transforms::{
    CLASSIFY_MAX_OUTPUT, EXTRACT_MAX_OUTPUT, FILTER_MAX_OUTPUT, QUERY_MAX_OUTPUT,
    SECTION_SUMMARY_MAX_OUTPUT, SUMMARIZE_MAX_OUTPUT,
};
use aryn_core::text::count_tokens;
use aryn_llm::client::BACKOFF_BASE_MS;
use aryn_llm::prompt::tasks;
use aryn_llm::registry::{ModelSpec, GPT4_SIM};
use aryn_llm::{LlmClient, ReliabilityPolicy, RetryPolicy};

/// A closed interval `[lo, hi]` over a non-negative cost dimension.
/// `hi = +∞` means the dimension is statically unbounded (e.g. cardinality
/// through `flat_map` or `explode`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interval {
    pub lo: f64,
    pub hi: f64,
}

/// Interval sum.
impl std::ops::Add for Interval {
    type Output = Interval;
    fn add(self, other: Interval) -> Interval {
        Interval::new(self.lo + other.lo, self.hi + other.hi)
    }
}

/// Interval product (both operands non-negative, so endpoints multiply).
impl std::ops::Mul for Interval {
    type Output = Interval;
    fn mul(self, other: Interval) -> Interval {
        Interval::new(self.lo * other.lo, self.hi * other.hi)
    }
}

impl Default for Interval {
    fn default() -> Self {
        Interval::ZERO
    }
}

impl Interval {
    pub const ZERO: Interval = Interval { lo: 0.0, hi: 0.0 };

    pub fn new(lo: f64, hi: f64) -> Interval {
        Interval {
            lo: lo.max(0.0),
            hi: hi.max(lo.max(0.0)),
        }
    }

    /// The degenerate interval `[v, v]`.
    pub fn exact(v: f64) -> Interval {
        Interval::new(v, v)
    }

    /// `[lo, +∞)` — cardinality the analysis cannot bound above.
    pub fn at_least(lo: f64) -> Interval {
        Interval::new(lo, f64::INFINITY)
    }

    pub fn is_unbounded(&self) -> bool {
        self.hi.is_infinite()
    }

    /// Scales both endpoints by a non-negative constant.
    pub fn scale(self, k: f64) -> Interval {
        Interval::new(self.lo * k, self.hi * k)
    }

    /// Least upper bound: the hull of both intervals.
    pub fn join(self, other: Interval) -> Interval {
        Interval::new(self.lo.min(other.lo), self.hi.max(other.hi))
    }

    /// Caps the interval at `n` (for `limit`/`topK`).
    pub fn cap(self, n: f64) -> Interval {
        Interval::new(self.lo.min(n), self.hi.min(n))
    }

    /// Membership with a small relative tolerance for float accumulation
    /// (cost dollars are sums of many per-call products).
    pub fn contains(&self, v: f64) -> bool {
        let eps = 1e-6 + if self.hi.is_finite() { 1e-9 * self.hi } else { 0.0 };
        v >= self.lo - eps && (self.hi.is_infinite() || v <= self.hi + eps)
    }

    pub fn render(&self) -> String {
        let fmt = |v: f64| {
            if v.is_infinite() {
                "inf".to_string()
            } else if v.fract() == 0.0 && v < 1e15 {
                format!("{}", v as u64)
            } else {
                format!("{v:.4}")
            }
        };
        format!("[{}..{}]", fmt(self.lo), fmt(self.hi))
    }
}

/// Execution knobs the cost estimators read — this module's and
/// `luna::costmodel`'s. Built by [`CostKnobs::from_context`] from the
/// settings the engine runs with, then [`CostKnobs::with_clients`] adds what
/// the op clients carry. Retry ladders are [`RetryPolicy::default`]'s, and
/// an op whose client names no catalogue model is priced as [`GPT4_SIM`];
/// `reliability`, `chaos` and `call_cache` widen the bounds for execution
/// modes where calls can legally vanish (cache hits, breaker/deadline skips)
/// or multiply (chaos-driven retries walking a fallback ladder).
#[derive(Debug, Clone)]
pub struct CostKnobs {
    pub workers: usize,
    /// Micro-batch width (1 = off) and token budget, as in `ExecConfig`.
    pub batch_max_items: usize,
    pub batch_token_budget: usize,
    /// Active reliability policy: degradation ladders multiply the call
    /// ceiling, breakers/skips allow zero calls, and Luna verifies the
    /// deadline against it.
    pub reliability: Option<ReliabilityPolicy>,
    /// A chaos schedule is installed (faults consume retry budget).
    pub chaos: bool,
    /// A call cache is attached somewhere (warm calls never meter).
    pub call_cache: bool,
}

impl Default for CostKnobs {
    fn default() -> Self {
        CostKnobs {
            workers: 1,
            batch_max_items: 1,
            batch_token_budget: 2048,
            reliability: None,
            chaos: false,
            call_cache: false,
        }
    }
}

impl CostKnobs {
    /// The knobs a pipeline on `ctx` runs under: its `ExecConfig`'s workers
    /// and batch width/budget, and whether a chaos schedule is installed.
    pub fn from_context(ctx: &Context) -> CostKnobs {
        let exec = ctx.exec_config();
        CostKnobs {
            workers: exec.threads,
            batch_max_items: exec.batch_max_items,
            batch_token_budget: exec.batch_token_budget,
            chaos: ctx.chaos().is_some(),
            ..CostKnobs::default()
        }
    }

    /// Adds what `clients` (and their fallback tiers) carry: the first
    /// enabled reliability policy, and whether any tier has a call cache.
    pub fn with_clients<'a>(mut self, clients: impl IntoIterator<Item = &'a LlmClient>) -> Self {
        for tier in clients.into_iter().flat_map(LlmClient::fallback_chain) {
            let policy = tier.reliability().map(|s| s.policy());
            self.reliability = self.reliability.or(policy.filter(|p| p.enabled()));
            self.call_cache |= tier.cache().is_some();
        }
        self
    }

    /// Whether at least one metered call per item is guaranteed: nothing is
    /// installed that can answer from a cache, a breaker, or a skip.
    pub fn calls_guaranteed(&self) -> bool {
        !self.call_cache && self.reliability.is_none() && !self.chaos
    }

    /// Items one packed call can hold (token budgets only shrink packs).
    pub fn pack(&self, batchable: bool) -> f64 {
        if batchable { self.batch_max_items.max(1) as f64 } else { 1.0 }
    }
}

/// Pricing/latency facts across the model tiers an operator's calls can
/// reach (one tier, or a degradation ladder): the worst (priciest/slowest)
/// and best tier bound each dimension.
#[derive(Debug, Clone, Copy)]
pub struct TierFacts {
    pub tiers: usize,
    pub window: f64,
    pub usd_in_min: f64,
    pub usd_in_max: f64,
    pub usd_out_max: f64,
    pub base_ms_min: f64,
    pub base_ms_max: f64,
    pub tps_min: f64,
}

impl TierFacts {
    pub fn of(specs: &[&'static ModelSpec]) -> TierFacts {
        let max = |f: fn(&ModelSpec) -> f64| specs.iter().map(|s| f(s)).fold(0.0, f64::max);
        let min = |f: fn(&ModelSpec) -> f64| specs.iter().map(|s| f(s)).fold(f64::INFINITY, f64::min);
        TierFacts {
            tiers: specs.len(),
            window: max(|s| s.context_window as f64),
            usd_in_min: min(|s| s.usd_per_1k_input),
            usd_in_max: max(|s| s.usd_per_1k_input),
            usd_out_max: max(|s| s.usd_per_1k_output),
            base_ms_min: min(|s| s.base_latency_ms),
            base_ms_max: max(|s| s.base_latency_ms),
            tps_min: min(|s| s.tokens_per_sec),
        }
    }
}

/// The five cost dimensions of LLM work, as sound intervals.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LlmBounds {
    pub calls: Interval,
    pub input_tokens: Interval,
    pub output_tokens: Interval,
    pub cost_usd: Interval,
    /// Total virtual-clock latency of the calls (the quantity a per-query
    /// deadline budget observes — workers share one budget).
    pub latency_ms: Interval,
}

impl std::ops::Add for LlmBounds {
    type Output = LlmBounds;
    fn add(self, o: LlmBounds) -> LlmBounds {
        LlmBounds {
            calls: self.calls + o.calls,
            input_tokens: self.input_tokens + o.input_tokens,
            output_tokens: self.output_tokens + o.output_tokens,
            cost_usd: self.cost_usd + o.cost_usd,
            latency_ms: self.latency_ms + o.latency_ms,
        }
    }
}

impl LlmBounds {
    /// LLM work the analysis cannot bound above.
    pub const UNBOUNDED: LlmBounds = {
        let open = Interval { lo: 0.0, hi: f64::INFINITY };
        LlmBounds {
            calls: open,
            input_tokens: open,
            output_tokens: open,
            cost_usd: open,
            latency_ms: open,
        }
    };

    pub fn total_tokens(&self) -> Interval {
        self.input_tokens + self.output_tokens
    }

    /// Makespan bound: per-doc work divides across workers at best, runs
    /// sequentially at worst.
    pub fn critical_path_ms(&self, workers: usize) -> Interval {
        Interval::new(self.latency_ms.lo / workers.max(1) as f64, self.latency_ms.hi)
    }
}

/// The one transfer function for a per-item LLM operator, shared by this
/// module and `luna::costmodel`: `items` logical prompts, each answered with
/// at most `max_output` completion tokens and at least `envelope` prompt
/// tokens (the rendered prompt with an empty context).
pub fn llm_bounds(
    items: Interval,
    envelope: f64,
    max_output: f64,
    batchable: bool,
    facts: &TierFacts,
    knobs: &CostKnobs,
) -> LlmBounds {
    let pack = knobs.pack(batchable);
    // Worst case per item: the primary tier's full attempt ladder (every
    // transient retry and JSON re-ask meters as a call), repeated by every
    // degradation tier below it, doubled when micro-batch bisection can
    // re-submit items in shrinking packs.
    let retry = RetryPolicy::default();
    let attempts = 1.0 + retry.max_transient as f64 + retry.max_reask as f64;
    let bisect = if pack > 1.0 { 2.0 } else { 1.0 };
    let calls = Interval::new(
        if knobs.calls_guaranteed() { (items.lo / pack).ceil() } else { 0.0 },
        items.hi * attempts * facts.tiers.max(1) as f64 * bisect,
    );
    // Minimum prompt: the envelope itself. Packed prompts use a different
    // template, so only the pack count survives as a lower bound there.
    let env_lo = if pack > 1.0 { 1.0 } else { envelope };
    let input_tokens = Interval::new(calls.lo * env_lo, calls.hi * facts.window);
    // Per item: `max_output` (+8 packed headroom); per call: +16 pack
    // overhead. `calls.hi` dominates both counts, so it bounds the sum.
    let output_tokens = Interval::new(0.0, calls.hi * (max_output + 24.0));
    let cost_usd = Interval::new(
        input_tokens.lo / 1000.0 * facts.usd_in_min,
        input_tokens.hi / 1000.0 * facts.usd_in_max
            + output_tokens.hi / 1000.0 * facts.usd_out_max,
    );
    // Worst-case retry backoff per item (exponential, ×1.5 jitter headroom),
    // summed over the attempt ladder; charged to the deadline budget, never
    // slept.
    let retries = (retry.max_transient + retry.max_reask).min(30);
    let backoff_ceiling = BACKOFF_BASE_MS * 1.5 * ((1u64 << retries) as f64 - 1.0);
    // Mock latency: base + (0.2·in + out)/tps · 1000, plus the backoff.
    let latency_ms = Interval::new(
        calls.lo * facts.base_ms_min,
        calls.hi * facts.base_ms_max
            + (input_tokens.hi * 0.2 + output_tokens.hi) / facts.tps_min * 1000.0
            + items.hi * backoff_ceiling,
    );
    LlmBounds { calls, input_tokens, output_tokens, cost_usd, latency_ms }
}

/// Per-operator cost abstraction.
#[derive(Debug, Clone)]
pub struct OpCost {
    pub name: String,
    /// Documents flowing *out* of this operator.
    pub docs: Interval,
    pub llm: LlmBounds,
}

/// The pipeline-level report: per-op rows plus totals and the workers-aware
/// critical-path (makespan) interval.
#[derive(Debug, Clone)]
pub struct PipelineCost {
    pub ops: Vec<OpCost>,
    pub docs_out: Interval,
    pub llm: LlmBounds,
    pub critical_path_ms: Interval,
}

impl PipelineCost {
    pub fn render(&self) -> String {
        let mut out = String::from("op                docs            llm_calls       cost_usd\n");
        for o in &self.ops {
            out.push_str(&format!(
                "{:<17} {:<15} {:<15} {}\n",
                o.name,
                o.docs.render(),
                o.llm.calls.render(),
                o.llm.cost_usd.render()
            ));
        }
        out.push_str(&format!(
            "totals: calls {}  tokens {}  cost {}  latency_ms {}\n",
            self.llm.calls.render(),
            self.llm.total_tokens().render(),
            self.llm.cost_usd.render(),
            self.llm.latency_ms.render()
        ));
        out
    }
}

/// The tiers an op's client can reach: its degradation chain, or the
/// default model when the client's models are not in the catalogue.
fn client_facts(client: &LlmClient) -> TierFacts {
    let specs: Vec<&'static ModelSpec> = client
        .fallback_chain()
        .iter()
        .filter_map(|c| aryn_llm::registry::spec_by_name(c.model_name()))
        .collect();
    if specs.is_empty() {
        TierFacts::of(&[&GPT4_SIM])
    } else {
        TierFacts::of(&specs)
    }
}

/// Abstractly interprets a pipeline fed `input_docs` documents: one
/// [`OpCost`] per operator, document cardinality threaded through the
/// transfer functions.
pub fn estimate(ops: &[Op], input_docs: usize, knobs: &CostKnobs) -> PipelineCost {
    let mut docs = Interval::exact(input_docs as f64);
    let mut rows = Vec::with_capacity(ops.len());
    // Fan-out ops and per-section calls are statically unbounded above.
    let open = |d: Interval| if d.hi == 0.0 { Interval::ZERO } else { Interval::at_least(0.0) };
    let pure = |docs: Interval| (docs, LlmBounds::default());
    let llm = |docs_out, items, envelope: usize, max_output: usize, batchable, client| {
        let facts = client_facts(client);
        (docs_out, llm_bounds(items, envelope as f64, max_output as f64, batchable, &facts, knobs))
    };
    for op in ops {
        let (docs_out, bounds) = match op {
            Op::Map { .. } | Op::Embed | Op::SortBy { .. } | Op::Materialize { .. } => pure(docs),
            // Image summarization calls are element-count-shaped.
            Op::Partition { cfg, .. } if cfg.summarize_images.is_some() => {
                (docs, LlmBounds::UNBOUNDED)
            }
            Op::Partition { .. } => pure(docs),
            Op::Filter { .. } => pure(Interval::new(0.0, docs.hi)),
            Op::FlatMap { .. } | Op::Explode => pure(open(docs)),
            Op::ReduceByKey { .. } => {
                pure(Interval::new(if docs.lo > 0.0 { 1.0 } else { 0.0 }, docs.hi))
            }
            Op::Limit(n) => pure(docs.cap(*n as f64)),
            Op::LlmQuery { client, .. } => llm(docs, docs, 1, QUERY_MAX_OUTPUT, false, client),
            Op::ExtractProperties { client, schema, .. } => {
                let env = count_tokens(&tasks::extract(schema, ""));
                llm(docs, docs, env, EXTRACT_MAX_OUTPUT, true, client)
            }
            Op::LlmFilter { client, predicate, .. } => {
                let env = count_tokens(&tasks::filter(predicate, ""));
                llm(Interval::new(0.0, docs.hi), docs, env, FILTER_MAX_OUTPUT, true, client)
            }
            Op::LlmClassify { client, question, labels, .. } => {
                let refs: Vec<&str> = labels.iter().map(String::as_str).collect();
                let env = count_tokens(&tasks::classify(question, &refs, ""));
                llm(docs, docs, env, CLASSIFY_MAX_OUTPUT, false, client)
            }
            Op::Summarize { client, instructions, .. } => {
                let env = count_tokens(&tasks::summarize(instructions, ""));
                llm(docs, docs, env, SUMMARIZE_MAX_OUTPUT, false, client)
            }
            // Calls per document = its section count.
            Op::SummarizeSections { client } => llm(docs, open(docs), 1, SECTION_SUMMARY_MAX_OUTPUT, false, client),
            Op::SummarizeAll { client, instructions } => {
                // Hierarchical reduce: ≤ 2n+1 calls for n documents (leaf
                // batches plus the reduction tree), at least one when any
                // document flows in.
                let env = count_tokens(&tasks::summarize(instructions, ""));
                let items = Interval::new(
                    if docs.lo > 0.0 { 1.0 } else { 0.0 },
                    if docs.hi == 0.0 { 0.0 } else { 2.0 * docs.hi + 1.0 },
                );
                llm(Interval::exact(1.0), items, env, SUMMARIZE_MAX_OUTPUT, false, client)
            }
        };
        docs = docs_out;
        rows.push(OpCost { name: op.name(), docs, llm: bounds });
    }
    let llm = rows.iter().fold(LlmBounds::default(), |a, o| a + o.llm);
    PipelineCost {
        ops: rows,
        docs_out: docs,
        critical_path_ms: llm.critical_path_ms(knobs.workers),
        llm,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aryn_llm::{MockLlm, SimConfig};
    use std::sync::Arc;

    fn client() -> LlmClient {
        LlmClient::new(Arc::new(MockLlm::new(&GPT4_SIM, SimConfig::perfect(1))))
    }

    #[test]
    fn interval_algebra() {
        let a = Interval::new(1.0, 3.0);
        let b = Interval::new(2.0, 5.0);
        assert_eq!(a + b, Interval::new(3.0, 8.0));
        assert_eq!(a * b, Interval::new(2.0, 15.0));
        assert_eq!(a.join(b), Interval::new(1.0, 5.0));
        assert_eq!(a.cap(2.0), Interval::new(1.0, 2.0));
        assert!(a.contains(1.0) && a.contains(3.0) && !a.contains(3.5));
        assert!(Interval::at_least(2.0).contains(1e12));
        assert!(!Interval::at_least(2.0).contains(1.0));
        // Degenerate constructor input is clamped into a valid interval.
        assert_eq!(Interval::new(5.0, 1.0), Interval::new(5.0, 5.0));
    }

    #[test]
    fn pure_pipeline_is_exact_and_free() {
        let ops = vec![
            Op::Map { name: "id".into(), f: Arc::new(|d| d) },
            Op::Limit(3),
        ];
        let est = estimate(&ops, 10, &CostKnobs::default());
        assert_eq!(est.docs_out, Interval::exact(3.0));
        assert_eq!(est.llm.calls, Interval::ZERO);
        assert_eq!(est.llm.cost_usd, Interval::ZERO);
    }

    #[test]
    fn llm_filter_bounds_cover_the_per_doc_path() {
        let ops = vec![Op::LlmFilter {
            client: client(),
            predicate: "mentions fatal injuries".into(),
            selector: crate::ElementSelector::All,
        }];
        let est = estimate(&ops, 8, &CostKnobs::default());
        // Guaranteed path: exactly one call per doc sits inside the bounds.
        assert!(est.llm.calls.contains(8.0), "got {}", est.llm.calls.render());
        assert_eq!(est.llm.calls.lo, 8.0);
        assert!(est.llm.calls.hi >= 8.0);
        assert!(est.docs_out.contains(0.0) && est.docs_out.contains(8.0));
        // Cache on: zero calls becomes legal.
        let cached = estimate(&ops, 8, &CostKnobs { call_cache: true, ..CostKnobs::default() });
        assert_eq!(cached.llm.calls.lo, 0.0);
    }

    #[test]
    fn batching_lowers_the_call_floor_and_keeps_the_ceiling_sound() {
        let ops = vec![Op::ExtractProperties {
            client: client(),
            schema: aryn_core::obj! { "year" => "int" },
            selector: crate::ElementSelector::All,
        }];
        let batched = CostKnobs { batch_max_items: 4, ..CostKnobs::default() };
        let e1 = estimate(&ops, 12, &CostKnobs::default());
        let e4 = estimate(&ops, 12, &batched);
        assert_eq!(e1.llm.calls.lo, 12.0);
        assert_eq!(e4.llm.calls.lo, 3.0); // ceil(12/4)
        assert!(e4.llm.calls.hi >= e1.llm.calls.hi); // bisection headroom
    }

    #[test]
    fn unbounded_cardinality_propagates() {
        let ops = vec![
            Op::Explode,
            Op::LlmFilter {
                client: client(),
                predicate: "p".into(),
                selector: crate::ElementSelector::All,
            },
        ];
        let est = estimate(&ops, 2, &CostKnobs::default());
        assert!(est.docs_out.is_unbounded());
        assert!(est.llm.calls.is_unbounded());
        assert!(est.llm.cost_usd.is_unbounded());
    }

    #[test]
    fn critical_path_divides_by_workers() {
        let ops = vec![Op::LlmQuery {
            client: client(),
            template: "what is {text}?".into(),
            output_path: "a".into(),
            selector: crate::ElementSelector::All,
        }];
        let est1 = estimate(&ops, 8, &CostKnobs::default());
        let est8 = estimate(&ops, 8, &CostKnobs { workers: 8, ..CostKnobs::default() });
        assert!(est8.critical_path_ms.lo < est1.critical_path_ms.lo);
        assert_eq!(est8.critical_path_ms.hi, est1.critical_path_ms.hi);
    }
}
