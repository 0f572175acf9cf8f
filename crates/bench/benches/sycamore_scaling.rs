//! E7 — §5.3 distributed execution: document-parallel scaling of a
//! partition → extract → explode → embed pipeline across worker threads
//! (the morsel-driven Ray-substitute executor).
//!
//! Two measurements:
//!
//! 1. A criterion sweep of the LLM pipeline over real wall time. On hosts
//!    with fewer cores than workers this cannot show speedup — threads
//!    timeshare — so it serves as an overhead check: adding workers must
//!    not make the pipeline slower (the pre-morsel executor regressed
//!    9.6ms @ 1 → 13.4ms @ 4 here through per-doc lock round-trips).
//! 2. A makespan table for a CPU-bound 1 000-doc pipeline on the executor's
//!    virtual clock: each worker accumulates busy time on its thread CPU
//!    clock, and a stage's critical path (max worker busy) is the wall time
//!    a host with one core per worker would observe. This is where the
//!    morsel executor's scaling is visible regardless of host core count,
//!    alongside the morsel counter.
//!
//! Run with: `cargo bench -p bench --bench sycamore_scaling`
//! Smoke mode (CI): `SYCAMORE_SCALING_SMOKE=1 cargo bench -p bench --bench
//! sycamore_scaling` runs only the makespan table and the trace export.

use aryn::aryn_core::{stable_hash, Document};
use aryn::prelude::*;
use aryn::sycamore::ExecStats;
use criterion::{criterion_group, BenchmarkId, Criterion};
use std::sync::Arc;

/// ~tens of microseconds of pure CPU per document (mirrors the
/// `scaling_guard` integration test).
fn cpu_work(seed: &str) -> u64 {
    let mut acc = 0u64;
    let mut token = seed.to_string();
    for _ in 0..150 {
        acc = acc.wrapping_add(stable_hash(acc, &[token.as_str()]));
        token = format!("{acc:x}");
    }
    acc
}

fn cpu_bound_run(threads: usize, n_docs: usize) -> (f64, ExecStats) {
    let ctx = Context::new().with_exec(ExecConfig {
        threads,
        ..ExecConfig::default()
    });
    let docs: Vec<Document> = (0..n_docs)
        .map(|i| Document::from_text(format!("doc-{i:04}"), format!("payload {i}")))
        .collect();
    let t0 = std::time::Instant::now();
    let (_out, stats) = ctx
        .read_docs(docs)
        .map("hashwork", |mut d| {
            let acc = cpu_work(d.id.as_str());
            d.set_prop("acc", acc as i64);
            d
        })
        .filter("keep_all", |d| d.prop("acc").is_some())
        .collect_stats()
        .unwrap();
    (t0.elapsed().as_secs_f64() * 1e3, stats)
}

/// The non-criterion makespan table: CPU-bound pipeline, workers 1→8,
/// critical path on the virtual clock plus the morsel counter.
fn makespan_table() {
    const N_DOCS: usize = 1000;
    println!("cpu-bound makespan, {N_DOCS} docs (virtual clock = max worker busy time)");
    println!(
        "{:>8} {:>10} {:>14} {:>9} {:>8}",
        "workers", "wall_ms", "critical_ms", "speedup", "morsels"
    );
    let mut base_cp = None;
    for threads in [1usize, 2, 4, 8] {
        let (wall_ms, stats) = cpu_bound_run(threads, N_DOCS);
        let cp = stats.total_critical_path_ms();
        let base = *base_cp.get_or_insert(cp);
        println!(
            "{:>8} {:>10.2} {:>14.2} {:>8.2}x {:>8}",
            threads,
            wall_ms,
            cp,
            base / cp.max(1e-9),
            stats.total_morsels()
        );
    }
}

fn bench_scaling(c: &mut Criterion) {
    let corpus = Corpus::ntsb(3, 48);
    let client = LlmClient::new(Arc::new(MockLlm::new(&GPT4_SIM, SimConfig::perfect(3))));
    let mut g = c.benchmark_group("pipeline_scaling");
    g.sample_size(10);
    for threads in [1usize, 2, 4, 8] {
        g.bench_with_input(BenchmarkId::from_parameter(threads), &threads, |b, &threads| {
            let ctx = Context::new().with_exec(ExecConfig {
                threads,
                ..ExecConfig::default()
            });
            ctx.register_corpus("ntsb", &corpus);
            b.iter(|| {
                ctx.read_lake("ntsb")
                    .unwrap()
                    .partition("ntsb", PartitionCfg::default())
                    .extract_properties(&client, obj! { "us_state_abbrev" => "string" })
                    .explode()
                    .embed()
                    .count()
                    .unwrap()
            })
        });
    }
    g.finish();

    // Retry overhead: the same pipeline under injected worker failures.
    let mut g = c.benchmark_group("retry_overhead");
    g.sample_size(10);
    for fail_rate in [0.0f64, 0.2] {
        g.bench_with_input(
            BenchmarkId::from_parameter(format!("fail{fail_rate}")),
            &fail_rate,
            |b, &fail_rate| {
                let ctx = Context::new().with_exec(ExecConfig {
                    threads: 4,
                    fail_rate,
                    max_retries: 8,
                    ..ExecConfig::default()
                });
                ctx.register_corpus("ntsb", &corpus);
                b.iter(|| {
                    ctx.read_lake("ntsb")
                        .unwrap()
                        .partition("ntsb", PartitionCfg::default())
                        .explode()
                        .count()
                        .unwrap()
                })
            },
        );
    }
    g.finish();
}

/// One instrumented run whose stage spans — carrying the morsel and
/// per-worker busy gauges — become the JSON trace artifact.
fn export_instrumented_trace() {
    let corpus = Corpus::ntsb(3, 48);
    let client = LlmClient::new(Arc::new(MockLlm::new(&GPT4_SIM, SimConfig::perfect(3))));
    let ctx = Context::new().with_exec(ExecConfig {
        threads: 4,
        ..ExecConfig::default()
    });
    ctx.register_corpus("ntsb", &corpus);
    ctx.read_lake("ntsb")
        .unwrap()
        .partition("ntsb", PartitionCfg::default())
        .extract_properties(&client, obj! { "us_state_abbrev" => "string" })
        .explode()
        .embed()
        .count()
        .unwrap();
    match bench::export_trace("sycamore_scaling", &ctx.telemetry().snapshot()) {
        Ok(p) => println!("trace exported to {}", p.display()),
        Err(e) => eprintln!("trace export failed: {e}"),
    }
}

criterion_group!(benches, bench_scaling);

fn main() {
    makespan_table();
    export_instrumented_trace();
    // Smoke mode runs only the cheap makespan table + trace export: enough
    // for CI to catch a scaling regression without criterion's sample loops.
    if std::env::var_os("SYCAMORE_SCALING_SMOKE").is_none() {
        benches();
        Criterion::default().configure_from_args().final_summary();
    }
}
