//! Execution statistics: per-stage row counts, retries, LLM usage, wall time.
//!
//! Stats back Luna's traceability story: every executed plan can report
//! "how the dataset was transformed during each operation" (§6). A stage's
//! LLM usage is the [`aryn_llm::MeterScope`] delta over the stage's clients,
//! carried whole, so calls/tokens/cost are attributed to the stage even when
//! several stages share a client.

use aryn_llm::{CacheStats, UsageStats};
use aryn_telemetry::SpanBuilder;

/// One worker's statistics shard for one fused per-doc stage. Each morsel
/// worker owns exactly one shard (`&mut`, no locks) while the stage runs;
/// the shards are merged into the stage totals once at finalize. *Which*
/// worker processed a given document is scheduling-dependent under work
/// stealing, but every shard is exact — so the shard sums always equal the
/// stage totals (`sum(docs) == rows_in`, `sum(retries) == retries`,
/// `sum(failed) == failed_docs`), an invariant the stats tests pin.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct WorkerStats {
    /// Input documents this worker ran through the fused segment.
    pub docs: usize,
    /// Worker-failure retries this worker performed.
    pub retries: usize,
    /// Documents that failed permanently on this worker (skip mode).
    pub failed: usize,
    /// Morsels this worker executed (own deque + stolen).
    pub morsels: usize,
    /// Morsels this worker stole from another worker's deque.
    pub steals: usize,
    /// Time this worker spent processing morsels, on the per-thread busy
    /// clock (thread CPU time on Linux): immune to preemption, so the
    /// critical path `max(busy_ms)` reflects true work distribution even
    /// when the host has fewer cores than workers.
    pub busy_ms: f64,
}

/// Counters for one executed stage (one op, or one fused per-doc chain).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StageStats {
    pub name: String,
    /// Tenant (or session) the execution ran on behalf of; empty outside
    /// the multi-tenant serving layer. Set from the context's session tag
    /// so per-stage counters can be attributed per tenant.
    pub tenant: String,
    pub rows_in: usize,
    pub rows_out: usize,
    pub wall_ms: f64,
    /// Worker-failure retries (injected or real) during this stage.
    pub retries: usize,
    /// Documents dropped because an op failed permanently on them.
    pub failed_docs: usize,
    /// Model calls, tokens, dollars, LLM retries, batching and reliability
    /// counters metered while this stage ran.
    pub llm: UsageStats,
    /// Call-cache activity while this stage ran (zeros when no call cache
    /// is attached to the stage's clients).
    pub cache: CacheStats,
    /// Documents per packed micro-batch call issued by this stage, in issue
    /// order. Empty when batching is off (the default).
    pub batch_sizes: Vec<usize>,
    /// True if this stage was served from a materialize cache instead of
    /// being recomputed.
    pub cache_hit: bool,
    /// Per-worker shards, merged at finalize. One entry per worker for
    /// morsel-executed per-doc stages (length 1 for the sequential path);
    /// empty for barrier and batched stages, which run collection-at-a-time
    /// on the coordinating thread.
    pub workers: Vec<WorkerStats>,
    /// The stage's critical path: the longest per-worker busy time for
    /// morsel stages, wall time for barrier/batched stages. The makespan a
    /// perfectly parallel host would observe — the scaling bench and the
    /// regression guard compare this across worker counts, which stays
    /// meaningful even on hosts with fewer cores than workers.
    pub critical_path_ms: f64,
}

impl StageStats {
    /// Histogram of this stage's micro-batch sizes: sorted `(size, count)`
    /// pairs. Empty when the stage issued no packed calls.
    pub fn batch_size_histogram(&self) -> Vec<(usize, usize)> {
        let mut hist = std::collections::BTreeMap::new();
        for s in &self.batch_sizes {
            *hist.entry(*s).or_insert(0usize) += 1;
        }
        hist.into_iter().collect()
    }

    /// Morsels executed by this stage's workers (0 for barrier/batched
    /// stages).
    pub fn morsels(&self) -> usize {
        self.workers.iter().map(|w| w.morsels).sum()
    }

    /// Morsels acquired by stealing rather than from the owner's deque.
    pub fn steals(&self) -> usize {
        self.workers.iter().map(|w| w.steals).sum()
    }

    /// Each worker's busy fraction of the stage's wall time, in worker
    /// order. On an unloaded many-core host these approach 1.0 for balanced
    /// stages; on an oversubscribed host they sum to about the core count.
    pub fn worker_busy_fractions(&self) -> Vec<f64> {
        if self.wall_ms <= 0.0 {
            return vec![0.0; self.workers.len()];
        }
        self.workers.iter().map(|w| w.busy_ms / self.wall_ms).collect()
    }
}

/// Statistics for one pipeline execution.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ExecStats {
    pub stages: Vec<StageStats>,
}

impl ExecStats {
    pub fn total_retries(&self) -> usize {
        self.stages.iter().map(|s| s.retries).sum()
    }

    pub fn total_failed_docs(&self) -> usize {
        self.stages.iter().map(|s| s.failed_docs).sum()
    }

    pub fn total_wall_ms(&self) -> f64 {
        self.stages.iter().map(|s| s.wall_ms).sum()
    }

    /// LLM usage merged over all stages.
    pub fn llm(&self) -> UsageStats {
        let mut total = UsageStats::default();
        self.stages.iter().for_each(|s| total.merge(&s.llm));
        total
    }

    /// Call-cache activity merged over all stages.
    pub fn cache(&self) -> CacheStats {
        let mut total = CacheStats::default();
        self.stages.iter().for_each(|s| total.merge(&s.cache));
        total
    }

    /// Morsels executed across all stages.
    pub fn total_morsels(&self) -> usize {
        self.stages.iter().map(StageStats::morsels).sum()
    }

    /// Stolen morsels across all stages.
    pub fn total_steals(&self) -> usize {
        self.stages.iter().map(StageStats::steals).sum()
    }

    /// The pipeline's critical path: per-doc stages contribute their longest
    /// worker busy time, barriers their wall time. This is the makespan on
    /// the executor's virtual clock — what a host with one core per worker
    /// would observe end to end — and the quantity the scaling regression
    /// guard pins (it must not increase with the worker count).
    pub fn total_critical_path_ms(&self) -> f64 {
        self.stages.iter().map(|s| s.critical_path_ms).sum()
    }

    /// Histogram of micro-batch sizes across all stages: sorted
    /// `(size, count)` pairs.
    pub fn batch_size_histogram(&self) -> Vec<(usize, usize)> {
        let mut hist = std::collections::BTreeMap::new();
        for s in &self.stages {
            for size in &s.batch_sizes {
                *hist.entry(*size).or_insert(0usize) += 1;
            }
        }
        hist.into_iter().collect()
    }

    /// Renders a compact table for traces and debugging.
    pub fn render(&self) -> String {
        let mut out = String::from(
            "stage                          rows_in  rows_out  retries  failed  llm_calls    tokens  cache_hits\n",
        );
        for s in &self.stages {
            out.push_str(&format!(
                "{:<30} {:>7}  {:>8}  {:>7}  {:>6}  {:>9}  {:>8}  {:>10}\n",
                s.name,
                s.rows_in,
                s.rows_out,
                s.retries,
                s.failed_docs,
                s.llm.calls,
                s.llm.usage.tokens(),
                s.cache.hits
            ));
        }
        out
    }
}

/// Writes one accounting record's LLM/cache group onto a span — the single
/// writer behind engine stage spans and Luna's operator and planner spans.
/// The rule for every span: an integer that is a function of (seed, inputs)
/// is a counter and feeds the trace fingerprint; dollars, times and anything
/// scheduling can shape are gauges, which the fingerprint ignores. The whole
/// group is written every time, zeros included, so a span's shape does not
/// depend on what happened to run.
pub fn write_llm_group(span: &mut SpanBuilder, llm: &UsageStats, cache: &CacheStats) {
    span.set("llm_calls", llm.calls)
        .set("llm_input_tokens", llm.usage.input_tokens as u64)
        .set("llm_output_tokens", llm.usage.output_tokens as u64)
        .set("llm_parse_repairs", llm.parse_repairs)
        .set("llm_parse_failures", llm.parse_failures)
        .set("llm_batched_calls", llm.batched_calls)
        .set("llm_calls_saved", llm.calls_saved)
        .set("breaker_trips", llm.breaker_trips)
        .set("fallback_calls", llm.fallback_calls)
        .set("degraded_docs", llm.degraded_docs)
        .set("llm_cache_hits", cache.hits)
        .gauge("llm_cost_usd", llm.usage.cost_usd)
        .gauge("llm_cost_saved_usd", cache.cost_saved_usd);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_and_render() {
        let stats = ExecStats {
            stages: vec![
                StageStats {
                    name: "filter(x)".into(),
                    tenant: String::new(),
                    rows_in: 10,
                    rows_out: 4,
                    wall_ms: 1.5,
                    retries: 2,
                    failed_docs: 1,
                    llm: UsageStats {
                        calls: 10,
                        batched_calls: 4,
                        calls_saved: 6,
                        breaker_trips: 1,
                        fallback_calls: 2,
                        degraded_docs: 3,
                        usage: aryn_llm::Usage {
                            input_tokens: 500,
                            output_tokens: 50,
                            cost_usd: 0.02,
                            latency_ms: 0.0,
                        },
                        ..UsageStats::default()
                    },
                    cache: CacheStats { hits: 3, cost_saved_usd: 0.005, ..CacheStats::default() },
                    batch_sizes: vec![4, 4, 2, 4],
                    cache_hit: false,
                    workers: vec![
                        WorkerStats {
                            docs: 6,
                            retries: 2,
                            failed: 1,
                            morsels: 2,
                            steals: 1,
                            busy_ms: 1.2,
                        },
                        WorkerStats {
                            docs: 4,
                            retries: 0,
                            failed: 0,
                            morsels: 1,
                            steals: 0,
                            busy_ms: 0.9,
                        },
                    ],
                    critical_path_ms: 1.2,
                },
                StageStats {
                    name: "count".into(),
                    rows_in: 4,
                    rows_out: 1,
                    wall_ms: 0.5,
                    ..StageStats::default()
                },
            ],
        };
        assert_eq!(stats.total_retries(), 2);
        assert_eq!(stats.total_failed_docs(), 1);
        assert!((stats.total_wall_ms() - 2.0).abs() < 1e-9);
        let llm = stats.llm();
        assert_eq!((llm.calls, llm.usage.tokens()), (10, 550));
        assert!((llm.usage.cost_usd - 0.02).abs() < 1e-12);
        assert_eq!((llm.batched_calls, llm.calls_saved), (4, 6));
        assert_eq!((llm.breaker_trips, llm.fallback_calls, llm.degraded_docs), (1, 2, 3));
        assert_eq!(stats.cache().hits, 3);
        assert!((stats.cache().cost_saved_usd - 0.005).abs() < 1e-12);
        assert_eq!(stats.batch_size_histogram(), vec![(2, 1), (4, 3)]);
        assert_eq!(stats.total_morsels(), 3);
        assert_eq!(stats.total_steals(), 1);
        assert!((stats.total_critical_path_ms() - 1.2).abs() < 1e-9);
        let fr = stats.stages[0].worker_busy_fractions();
        assert_eq!(fr.len(), 2);
        assert!((fr[0] - 0.8).abs() < 1e-9, "{fr:?}");
        let r = stats.render();
        assert!(r.contains("filter(x)"));
        assert!(r.contains("550"));
        assert!(r.lines().count() >= 3);
    }
}
