//! The one table of workloads and metrics. `BENCHMARK.json`, the `list`
//! command, the printed report and the final JSON line are all generated
//! from it, and a unit test checks the committed `BENCHMARK.json` against
//! it.

use crate::trace::SpanCost;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Seconds one run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u32 = 20;

pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: &[WorkloadSpec] = &[
    WorkloadSpec {
        name: "etl_pages",
        why: "Raw pages to store, keyword and vector indexes: the paper's DocParse+Sycamore ETL path; partitioner, sycamore exec, llm client and index adds do the work, Luna none.",
    },
    WorkloadSpec {
        name: "ask_structured",
        why: "Luna questions whose optimized plan has no per-document LLM node, over large pre-extracted indexes: luna exec and the store scan dominate, the LLM path must show nothing.",
    },
    WorkloadSpec {
        name: "ask_semantic",
        why: "Luna questions whose plans keep a per-document llmFilter, over small indexes: per-document LLM calls and throwaway DocSets dominate, the store scan is small.",
    },
    WorkloadSpec {
        name: "stream_durable",
        why: "Streaming ingest into a WAL-backed store (fsync on) beside read probes on the growing LSM, ending in a reopen: a write-side gain that costs reads or replay shows.",
    },
];

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
    pub what: &'static str,
}

pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        what: "speed-corrected set-up time (inputs, stores, sessions), median of several set-ups",
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.12,
        what: "ops per round / median over rounds of the round's speed-corrected time",
    },
    EndToEnd {
        name: "op_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.12,
        what: "median speed-corrected op time, pooled over measured rounds",
    },
    EndToEnd {
        name: "op_p95_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        what: "95th percentile of speed-corrected op time, pooled over measured rounds",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.08,
        what: "VmHWM of the benchmark process at exit",
    },
    EndToEnd {
        name: "answer_accuracy",
        unit: "share",
        better: Better::Higher,
        bound: 0.02,
        what: "share of outputs that match the oracle; repeats exactly on one seed",
    },
];

/// How a per-layer number is derived from the traced run.
#[derive(Clone, Copy, Debug)]
pub enum Derive {
    /// Per round: Σ corrected self time ÷ Σ units of the named spans;
    /// median over rounds.
    SelfPerUnit(&'static [&'static str]),
    /// Per round: Σ corrected self time ÷ span count; median over rounds.
    SelfPerSpan(&'static [&'static str]),
    /// Σ items ÷ Σ units over every named span (exact, no timing).
    ItemsPerUnit(&'static [&'static str]),
    /// Per round: Σ corrected duration of the first ÷ Σ of the second;
    /// median over rounds.
    Ratio(&'static str, &'static str),
    /// Per round: mean corrected duration of the first − of the second;
    /// median over rounds.
    Diff(&'static str, &'static str),
    /// A named observation recorded by the harness; median over rounds.
    Value,
}

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub derive: Derive,
    /// Repeats bit-for-bit on one seed.
    pub exact: bool,
    /// The timed call.
    pub call: &'static str,
    /// Where the number comes from: `suite` (the fixed isolated sections
    /// every traced run executes) or `workload` (the workload being run).
    pub home: &'static str,
    /// The end-to-end metric and workload it should move.
    pub moves: &'static str,
}

const fn timing(
    name: &'static str,
    unit: &'static str,
    derive: Derive,
    call: &'static str,
    moves: &'static str,
) -> PerLayer {
    PerLayer { name, unit, better: Better::Lower, derive, exact: false, call, home: "suite", moves }
}

const fn observed(
    name: &'static str,
    unit: &'static str,
    better: Better,
    exact: bool,
    call: &'static str,
    home: &'static str,
    moves: &'static str,
) -> PerLayer {
    PerLayer { name, unit, better, derive: Derive::Value, exact, call, home, moves }
}

use Derive::{Diff, ItemsPerUnit, Ratio, SelfPerSpan, SelfPerUnit};

pub const PER_LAYER: &[PerLayer] = &[
    // --- docgen --------------------------------------------------------------
    timing(
        "docgen.us_per_doc",
        "us",
        SelfPerUnit(&["docgen.corpus", "docgen.next_arrival"]),
        "Corpus::ntsb/earnings, DocStream::next_arrival",
        "setup_s, all",
    ),
    // --- partitioner -----------------------------------------------------------
    timing(
        "partitioner.us_per_doc",
        "us",
        SelfPerUnit(&["partitioner.partition"]),
        "Partitioner::partition",
        "ops_per_s, etl_pages",
    ),
    PerLayer {
        name: "partitioner.elements_per_doc",
        unit: "count",
        better: Better::Lower,
        derive: ItemsPerUnit(&["partitioner.partition"]),
        exact: true,
        call: "Partitioner::partition",
        home: "suite",
        moves: "none (work size)",
    },
    // --- sycamore ----------------------------------------------------------------
    timing(
        "sycamore.exec_overhead_us_per_doc",
        "us",
        SelfPerUnit(&["sycamore.noop_map"]),
        "no-op map collect() over 800 docs",
        "ops_per_s, etl_pages and ask_semantic",
    ),
    timing(
        "sycamore.extract_stage_us_per_doc",
        "us",
        SelfPerUnit(&["sycamore.extract_stage"]),
        "extract_properties().collect(), model time excluded",
        "ops_per_s, etl_pages",
    ),
    PerLayer {
        name: "sycamore.worker_speedup_2w",
        unit: "ratio",
        better: Better::Higher,
        derive: Ratio("sycamore.llm_filter_1w", "sycamore.llm_filter_2w"),
        exact: false,
        call: "llm_filter stage, 1 worker / 2 workers",
        home: "suite",
        moves: "none (all e2e runs are 1-thread)",
    },
    timing(
        "sycamore.ingest_at_us_per_doc",
        "us",
        SelfPerUnit(&["sycamore.ingest_at"]),
        "Ingestor::ingest_at, in-memory store, embedding excluded",
        "ops_per_s, stream_durable",
    ),
    // --- llm ---------------------------------------------------------------------
    timing(
        "llm.model_us_per_call",
        "us",
        SelfPerUnit(&["llm.model"]),
        "MockLlm::generate",
        "ops_per_s, ask_semantic and etl_pages",
    ),
    timing(
        "llm.client_self_us_per_call",
        "us",
        SelfPerUnit(&["llm.client_json"]),
        "LlmClient::generate_json over a zero-cost model",
        "op_p50_ms, ask_semantic",
    ),
    timing(
        "llm.cache_hit_us",
        "us",
        SelfPerUnit(&["llm.cache_hit"]),
        "LlmCallCache::get_or_compute, warm key",
        "none at defaults",
    ),
    timing(
        "llm.batch_pack_us_per_item",
        "us",
        SelfPerUnit(&["llm.batch_pack"]),
        "generate_json_batch over the zero-cost model",
        "none at defaults",
    ),
    observed(
        "llm.calls_per_op",
        "count",
        Better::Lower,
        true,
        "usage meter delta per op",
        "workload",
        "ops_per_s, ask_semantic",
    ),
    observed(
        "llm.tokens_per_op",
        "count",
        Better::Lower,
        true,
        "usage meter delta per op",
        "workload",
        "ops_per_s, ask_semantic",
    ),
    observed(
        "llm.usd_per_op",
        "usd",
        Better::Lower,
        true,
        "usage meter delta per op",
        "workload",
        "ops_per_s, ask_semantic",
    ),
    timing(
        "llm.embed_us_per_doc",
        "us",
        SelfPerUnit(&["llm.embed"]),
        "embedder().embed",
        "ops_per_s, etl_pages and stream_durable",
    ),
    // --- core --------------------------------------------------------------------
    timing(
        "core.vfs_append_us",
        "us",
        SelfPerUnit(&["core.vfs_append"]),
        "StdFs append of one WAL-sized record",
        "ops_per_s, stream_durable",
    ),
    timing(
        "core.vfs_sync_us",
        "us",
        SelfPerUnit(&["core.vfs_sync"]),
        "StdFs sync after that append",
        "ops_per_s, stream_durable",
    ),
    // --- index -------------------------------------------------------------------
    timing(
        "index.put_us_per_doc",
        "us",
        SelfPerUnit(&["index.put"]),
        "DocStore::try_put, in-memory",
        "ops_per_s, etl_pages",
    ),
    timing(
        "index.wal_put_us_per_doc",
        "us",
        SelfPerUnit(&["index.wal_put"]),
        "DocStore::try_put, durable, fsync on",
        "ops_per_s, stream_durable",
    ),
    observed(
        "index.wal_bytes_per_doc",
        "B",
        Better::Lower,
        true,
        "WAL file size after the puts",
        "suite",
        "none (space)",
    ),
    observed(
        "index.disk_bytes_per_doc",
        "B",
        Better::Lower,
        true,
        "store directory size after seal",
        "suite",
        "none (space)",
    ),
    timing(
        "index.seal_ms",
        "ms",
        SelfPerSpan(&["index.seal"]),
        "DocStore::try_seal, durable, 64 docs",
        "op_p95_ms, stream_durable",
    ),
    timing(
        "index.compact_ms",
        "ms",
        SelfPerSpan(&["index.compact"]),
        "DocStore::try_compact, durable, 2 segments",
        "op_p95_ms, stream_durable",
    ),
    timing(
        "index.reopen_ms",
        "ms",
        SelfPerSpan(&["index.reopen"]),
        "DocStore::open, one segment plus a WAL tail",
        "ops_per_s, stream_durable",
    ),
    timing(
        "index.replay_us_per_doc",
        "us",
        SelfPerUnit(&["index.replay"]),
        "DocStore::open, WAL only",
        "ops_per_s, stream_durable",
    ),
    timing(
        "index.snapshot_pin_us",
        "us",
        SelfPerUnit(&["index.snapshot_pin"]),
        "Context::snapshot_store",
        "op_p50_ms, ask_structured and stream_durable",
    ),
    timing(
        "index.scan_us_per_doc",
        "us",
        SelfPerUnit(&["index.scan"]),
        "StoreSnapshot::scan",
        "ops_per_s, ask_structured",
    ),
    timing(
        "index.filter_us_per_doc",
        "us",
        SelfPerUnit(&["index.filter"]),
        "StoreSnapshot::filter",
        "ops_per_s, ask_structured",
    ),
    timing(
        "index.facet_us_per_doc",
        "us",
        SelfPerUnit(&["index.facet"]),
        "StoreSnapshot::facet",
        "ops_per_s, ask_structured",
    ),
    timing(
        "index.keyword_add_us_per_doc",
        "us",
        SelfPerUnit(&["index.keyword_add"]),
        "ShardedKeywordIndex::add",
        "ops_per_s, stream_durable and etl_pages",
    ),
    timing(
        "index.keyword_search_us",
        "us",
        SelfPerUnit(&["index.keyword_search"]),
        "ShardedKeywordIndex::search",
        "ops_per_s, stream_durable",
    ),
    timing(
        "index.vector_add_us_per_doc",
        "us",
        SelfPerUnit(&["index.vector_add"]),
        "ShardedHnsw::add",
        "ops_per_s, stream_durable",
    ),
    timing(
        "index.vector_search_us",
        "us",
        SelfPerUnit(&["index.vector_search"]),
        "ShardedHnsw::search",
        "ops_per_s, stream_durable",
    ),
    observed(
        "index.vector_recall_at_10",
        "share",
        Better::Higher,
        true,
        "ShardedHnsw::search vs FlatIndex::search",
        "suite",
        "answer_accuracy, stream_durable",
    ),
    // --- luna --------------------------------------------------------------------
    timing(
        "luna.session_open_ms",
        "ms",
        SelfPerSpan(&["luna.session_open"]),
        "Luna::new",
        "setup_s, ask_structured and ask_semantic",
    ),
    timing("luna.plan_us", "us", SelfPerSpan(&["luna.plan"]), "Luna::plan", "op_p50_ms, ask_structured"),
    timing("luna.optimize_us", "us", SelfPerSpan(&["luna.optimize"]), "Luna::optimize", "op_p50_ms, ask_structured"),
    timing("luna.execute_ms", "ms", SelfPerSpan(&["luna.execute"]), "Luna::execute", "ops_per_s, ask_structured"),
    timing(
        "luna.execute_us_per_scanned_doc",
        "us",
        SelfPerUnit(&["luna.execute"]),
        "Luna::execute",
        "ops_per_s, ask_structured",
    ),
    PerLayer {
        name: "luna.exec_over_filter_ratio",
        unit: "ratio",
        better: Better::Lower,
        derive: Ratio("luna.execute_count", "index.filter_count"),
        exact: false,
        call: "execute of a count question / StoreSnapshot::filter of the same predicate",
        home: "suite",
        moves: "ops_per_s, ask_structured",
    },
    timing("luna.explain_us", "us", SelfPerSpan(&["luna.explain"]), "LunaAnswer::explain_analyze", "none"),
    PerLayer {
        name: "luna.serve_submit_overhead_us",
        unit: "us",
        better: Better::Lower,
        derive: Diff("luna.serve_submit", "luna.ask"),
        exact: false,
        call: "QueryService::submit - Luna::ask, one tenant",
        home: "suite",
        moves: "none",
    },
    observed(
        "luna.session_drift_ratio",
        "ratio",
        Better::Lower,
        false,
        "round 12 / round 1 of an undrained session",
        "suite",
        "none (drained in e2e)",
    ),
    // --- telemetry ---------------------------------------------------------------
    observed(
        "telemetry.spans_per_op",
        "count",
        Better::Lower,
        true,
        "Telemetry::span_count delta per op",
        "workload",
        "op_p50_ms, ask_structured",
    ),
    timing(
        "telemetry.snapshot_us_per_kspan",
        "us",
        SelfPerUnit(&["telemetry.snapshot"]),
        "Telemetry::snapshot (units are thousands of spans held)",
        "op_p50_ms, ask_structured",
    ),
    // --- allocator ---------------------------------------------------------------
    observed(
        "alloc.count_per_op",
        "count",
        Better::Lower,
        false,
        "counting #[global_allocator]",
        "workload",
        "ops_per_s, every workload",
    ),
    observed(
        "alloc.kb_per_op",
        "KB",
        Better::Lower,
        false,
        "counting #[global_allocator]",
        "workload",
        "ops_per_s, every workload",
    ),
    // --- where the workload's op time goes ----------------------------------------
    observed(
        "op_share.docgen",
        "share",
        Better::Lower,
        false,
        "self time of docgen spans / traced op time",
        "workload",
        "none (attribution)",
    ),
    observed(
        "op_share.partitioner",
        "share",
        Better::Lower,
        false,
        "self time of partitioner spans / traced op time",
        "workload",
        "none (attribution)",
    ),
    observed(
        "op_share.sycamore",
        "share",
        Better::Lower,
        false,
        "self time of sycamore spans / traced op time",
        "workload",
        "none (attribution)",
    ),
    observed(
        "op_share.llm",
        "share",
        Better::Lower,
        false,
        "self time of llm spans / traced op time",
        "workload",
        "none (attribution)",
    ),
    observed(
        "op_share.core",
        "share",
        Better::Lower,
        false,
        "self time of core (vfs) spans / traced op time",
        "workload",
        "none (attribution)",
    ),
    observed(
        "op_share.index",
        "share",
        Better::Lower,
        false,
        "self time of index spans / traced op time",
        "workload",
        "none (attribution)",
    ),
    observed(
        "op_share.luna",
        "share",
        Better::Lower,
        false,
        "self time of luna spans / traced op time",
        "workload",
        "none (attribution)",
    ),
    observed(
        "op_share.telemetry",
        "share",
        Better::Lower,
        false,
        "self time of telemetry spans / traced op time",
        "workload",
        "none (attribution)",
    ),
    observed(
        "op_share.unattributed",
        "share",
        Better::Lower,
        false,
        "traced op time outside every span",
        "workload",
        "none (harness glue)",
    ),
    // --- the harness itself --------------------------------------------------------
    observed(
        "bench.raw_ops_per_s",
        "1/s",
        Better::Higher,
        false,
        "uncorrected ops_per_s of the untraced rounds",
        "workload",
        "none",
    ),
    observed(
        "bench.raw_op_p50_ms",
        "ms",
        Better::Lower,
        false,
        "uncorrected op_p50_ms of the untraced rounds",
        "workload",
        "none",
    ),
    observed("bench.yardstick_ms", "ms", Better::Lower, false, "median yardstick sample", "workload", "none"),
    observed(
        "bench.yardstick_spread",
        "share",
        Better::Lower,
        false,
        "(p95 - p5) / median of yardstick samples",
        "workload",
        "none",
    ),
    observed(
        "bench.trace_overhead_share",
        "share",
        Better::Lower,
        false,
        "traced round time / untraced round time - 1",
        "workload",
        "none",
    ),
];

/// Names of the per-layer shares, by layer, in table order.
pub const SHARE_LAYERS: &[&str] = &["docgen", "partitioner", "sycamore", "llm", "core", "index", "luna", "telemetry"];

fn scale_ns(unit: &str) -> f64 {
    match unit {
        "ms" => 1e-6,
        "us" => 1e-3,
        _ => 1.0,
    }
}

/// Median over rounds of `f(spans of that round)`, skipping rounds where
/// `f` has nothing to say.
fn median_over_rounds(costs: &[SpanCost], f: impl Fn(&[&SpanCost]) -> Option<f64>) -> Option<f64> {
    let mut by_round: BTreeMap<u32, Vec<&SpanCost>> = BTreeMap::new();
    for c in costs {
        by_round.entry(c.round).or_default().push(c);
    }
    let per_round: Vec<f64> = by_round.values().filter_map(|spans| f(spans)).collect();
    (!per_round.is_empty()).then(|| crate::stats::median(&per_round))
}

/// Computes one per-layer metric from a traced run's span costs and named
/// observations. `None` means the run recorded nothing for it.
pub fn derive(m: &PerLayer, costs: &[SpanCost], values: &[(&'static str, u32, f64)]) -> Option<f64> {
    let named = |names: &[&str]| -> Vec<&SpanCost> { costs.iter().filter(|c| names.contains(&c.name)).collect() };
    let sum = |spans: &[&SpanCost], name: &str, f: fn(&SpanCost) -> f64| -> (f64, usize) {
        let hits: Vec<f64> = spans.iter().filter(|c| c.name == name).map(|c| f(c)).collect();
        (hits.iter().sum(), hits.len())
    };
    match m.derive {
        SelfPerUnit(names) => median_over_rounds(costs, |spans| {
            let hits: Vec<&&SpanCost> = spans.iter().filter(|c| names.contains(&c.name)).collect();
            let units: u64 = hits.iter().map(|c| c.units).sum();
            let self_ns: f64 = hits.iter().map(|c| c.self_ns).sum();
            (units > 0).then(|| self_ns / units as f64 * scale_ns(m.unit))
        }),
        SelfPerSpan(names) => median_over_rounds(costs, |spans| {
            let hits: Vec<&&SpanCost> = spans.iter().filter(|c| names.contains(&c.name)).collect();
            let self_ns: f64 = hits.iter().map(|c| c.self_ns).sum();
            (!hits.is_empty()).then(|| self_ns / hits.len() as f64 * scale_ns(m.unit))
        }),
        ItemsPerUnit(names) => {
            let hits = named(names);
            let units: u64 = hits.iter().map(|c| c.units).sum();
            let items: u64 = hits.iter().map(|c| c.items).sum();
            (units > 0).then(|| items as f64 / units as f64)
        }
        Ratio(a, b) => median_over_rounds(costs, |spans| {
            let (ta, _) = sum(spans, a, |c| c.total_ns);
            let (tb, nb) = sum(spans, b, |c| c.total_ns);
            (nb > 0 && tb > 0.0).then(|| ta / tb)
        }),
        Diff(a, b) => median_over_rounds(costs, |spans| {
            let (ta, na) = sum(spans, a, |c| c.total_ns);
            let (tb, nb) = sum(spans, b, |c| c.total_ns);
            (na > 0 && nb > 0).then(|| (ta / na as f64 - tb / nb as f64) * scale_ns(m.unit))
        }),
        Derive::Value => {
            let obs: Vec<f64> = values.iter().filter(|(n, _, _)| *n == m.name).map(|(_, _, v)| *v).collect();
            (!obs.is_empty()).then(|| crate::stats::median(&obs))
        }
    }
}

/// The text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n");
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    out.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let sep = if i + 1 == WORKLOADS.len() { "" } else { "," };
        let _ = writeln!(out, "    {{\"name\": \"{}\", \"why\": \"{}\"}}{sep}", w.name, w.why);
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let sep = if i + 1 == END_TO_END.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{sep}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound
        );
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let sep = if i + 1 == PER_LAYER.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{sep}",
            m.name,
            m.unit,
            m.better.as_str()
        );
    }
    out.push_str("  ]\n}\n");
    out
}

/// The `list` command's text.
pub fn listing() -> String {
    let mut out = String::new();
    let _ = writeln!(out, "workloads ({RUN_SECONDS} s measured per run)");
    for w in WORKLOADS {
        let _ = writeln!(out, "  {:<16} {}", w.name, w.why);
    }
    out.push_str("\nend-to-end metrics (--trace 0)\n");
    for m in END_TO_END {
        let _ =
            writeln!(out, "  {:<16} {:<6} {:<6} bound {:<5} {}", m.name, m.unit, m.better.as_str(), m.bound, m.what);
    }
    out.push_str("\nper-layer metrics (--trace 1; '=' repeats exactly on one seed)\n");
    for m in PER_LAYER {
        let _ = writeln!(
            out,
            "  {:<36}{} {:<6} {:<6} from {:<8} call: {}; moves: {}",
            m.name,
            if m.exact { "=" } else { " " },
            m.unit,
            m.better.as_str(),
            m.home,
            m.call,
            m.moves
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use aryn::aryn_core::{json, Value};

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty() && unit.len() <= 16 && unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for name in WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name))
        {
            assert!(valid_name(name), "{name}");
            assert!(seen.insert(name), "{name} used twice");
        }
        for unit in END_TO_END.iter().map(|m| m.unit).chain(PER_LAYER.iter().map(|m| m.unit)) {
            assert!(valid_unit(unit), "{unit}");
        }
        for w in WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}: why too long", w.name);
        }
        for m in END_TO_END {
            assert!(m.bound >= 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!(END_TO_END.iter().any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower));
        for layer in SHARE_LAYERS {
            assert!(PER_LAYER.iter().any(|m| m.name == format!("op_share.{layer}")), "{layer}");
        }
    }

    #[test]
    fn committed_benchmark_json_agrees_with_the_table() {
        let committed = include_str!("../../BENCHMARK.json");
        assert_eq!(committed, benchmark_json(), "regenerate with `aryn-benchmark list --json`");
        assert!(committed.len() <= 64 * 1024);
        let v = json::parse(committed).expect("BENCHMARK.json parses");
        let keys: Vec<&str> = v.as_object().expect("object").keys().map(String::as_str).collect();
        assert_eq!(keys, ["command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"]);
        let names = |key: &str| -> Vec<String> {
            v.get(key)
                .and_then(Value::as_array)
                .expect("array")
                .iter()
                .map(|e| e.get("name").and_then(Value::as_str).expect("name").to_string())
                .collect()
        };
        assert_eq!(names("workloads"), WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>());
        assert_eq!(names("end_to_end"), END_TO_END.iter().map(|m| m.name).collect::<Vec<_>>());
        assert_eq!(names("per_layer"), PER_LAYER.iter().map(|m| m.name).collect::<Vec<_>>());
        assert_eq!(v.get("run_seconds").and_then(Value::as_int), Some(i64::from(RUN_SECONDS)));
        let e2e = v.get("end_to_end").and_then(Value::as_array).expect("array");
        for (entry, m) in e2e.iter().zip(END_TO_END) {
            assert_eq!(entry.get("unit").and_then(Value::as_str), Some(m.unit));
            assert_eq!(entry.get("better").and_then(Value::as_str), Some(m.better.as_str()));
            assert_eq!(entry.get("bound").and_then(Value::as_float), Some(m.bound));
        }
        let command = v.get("command").and_then(Value::as_array).expect("array");
        assert!(command.len() <= 32);
    }

    #[test]
    fn listing_names_every_metric() {
        let text = listing();
        for name in WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name))
        {
            assert!(text.contains(name), "{name}");
        }
    }

    fn cost(name: &'static str, round: u32, self_ns: f64, total_ns: f64, units: u64, items: u64) -> SpanCost {
        SpanCost { name, round, self_ns, total_ns, raw_self_ns: self_ns, raw_total_ns: total_ns, units, items }
    }

    fn metric(name: &str) -> &'static PerLayer {
        PER_LAYER.iter().find(|m| m.name == name).expect("metric exists")
    }

    #[test]
    fn derivations_follow_their_rules() {
        let costs = vec![
            cost("partitioner.partition", 1, 2_000_000.0, 2_000_000.0, 1, 30),
            cost("partitioner.partition", 1, 4_000_000.0, 4_000_000.0, 1, 50),
            cost("partitioner.partition", 2, 8_000_000.0, 8_000_000.0, 2, 80),
            cost("index.seal", 1, 3_000_000.0, 5_000_000.0, 256, 0),
            cost("sycamore.llm_filter_1w", 1, 0.0, 9_000_000.0, 1, 0),
            cost("sycamore.llm_filter_2w", 1, 0.0, 6_000_000.0, 1, 0),
            cost("luna.serve_submit", 1, 0.0, 5_000_000.0, 1, 0),
            cost("luna.serve_submit", 1, 0.0, 7_000_000.0, 1, 0),
            cost("luna.ask", 1, 0.0, 4_000_000.0, 1, 0),
        ];
        // Round 1: 6 ms / 2 docs = 3000 us; round 2: 8 ms / 2 = 4000 us.
        assert_eq!(derive(metric("partitioner.us_per_doc"), &costs, &[]), Some(3500.0));
        assert_eq!(derive(metric("partitioner.elements_per_doc"), &costs, &[]), Some(40.0));
        assert_eq!(derive(metric("index.seal_ms"), &costs, &[]), Some(3.0));
        assert_eq!(derive(metric("sycamore.worker_speedup_2w"), &costs, &[]), Some(1.5));
        assert_eq!(derive(metric("luna.serve_submit_overhead_us"), &costs, &[]), Some(2000.0));
        assert_eq!(derive(metric("index.compact_ms"), &costs, &[]), None);
        let values = [("alloc.kb_per_op", 1, 10.0), ("alloc.kb_per_op", 2, 30.0), ("alloc.kb_per_op", 3, 20.0)];
        assert_eq!(derive(metric("alloc.kb_per_op"), &costs, &values), Some(20.0));
    }
}
