//! E14 — reliability layer under chaos: breaker trips and degraded-doc
//! fractions across fault scenarios.
//!
//! Runs the same property-extraction pipeline (gpt-4-sim primary with a
//! llama-7b-sim fallback tier, shared deadline budget and per-model circuit
//! breakers) against a sweep of deterministic chaos schedules, and reports
//! per scenario how the reliability layer routed the work: retries absorbed,
//! breaker trips, fallback calls, and the fraction of documents answered by
//! a degraded tier. Calm-run answers are the accuracy baseline — a scenario
//! "diverges" only on documents it did not flag.
//!
//! Run with: `cargo bench -p bench --bench reliability`

use aryn::prelude::*;
use std::fmt::Write as _;
use std::sync::Arc;

const DOCS: usize = 24;

fn schema() -> Value {
    obj! { "us_state_abbrev" => "string", "year" => "int" }
}

fn policy() -> ReliabilityPolicy {
    ReliabilityPolicy {
        call_timeout_ms: 10_000.0,
        deadline_ms: 120_000.0,
        breaker_window: 6,
        breaker_threshold: 0.5,
        breaker_cooldown_ms: 30_000.0,
        degrade_below_ms: 2_000.0,
        ..ReliabilityPolicy::default()
    }
}

struct Row {
    name: &'static str,
    docs: usize,
    diverged: usize,
    stats: aryn::aryn_llm::UsageStats,
}

fn run_scenario(name: &'static str, schedule: ChaosSchedule, calm: &[Document]) -> Row {
    let ctx = Context::new();
    ctx.register_corpus("ntsb", &Corpus::ntsb(7, DOCS));
    let state = aryn::aryn_llm::ReliabilityState::new(policy());
    ctx.set_chaos(schedule);
    let fallback = LlmClient::new(Arc::new(MockLlm::new(&LLAMA7B_SIM, SimConfig::perfect(1))))
        .with_reliability(Arc::clone(&state));
    let client = LlmClient::new(Arc::new(MockLlm::new(&GPT4_SIM, SimConfig::perfect(1))))
        .with_reliability(state)
        .with_fallback(fallback);
    let docs = ctx
        .read_lake("ntsb")
        .expect("corpus registered")
        .extract_properties(&client, schema())
        .collect()
        .expect("pipeline survives chaos");
    // Unflagged documents must match the calm baseline; count divergence.
    let diverged = docs
        .iter()
        .zip(calm)
        .filter(|(a, b)| a.prop("_degraded").is_none() && a.properties != b.properties)
        .count();
    Row {
        name,
        docs: docs.len(),
        diverged,
        stats: client.stats(),
    }
}

fn main() {
    println!("E14: breaker trips and degraded-doc fractions under chaos\n");
    let calm_ctx = Context::new();
    calm_ctx.register_corpus("ntsb", &Corpus::ntsb(7, DOCS));
    let calm = calm_ctx
        .read_lake("ntsb")
        .expect("corpus registered")
        .extract_properties(
            &LlmClient::new(Arc::new(MockLlm::new(&GPT4_SIM, SimConfig::perfect(1)))),
            schema(),
        )
        .collect()
        .expect("calm baseline executes");

    let scenarios: Vec<(&'static str, ChaosSchedule)> = vec![
        ("calm", ChaosSchedule::calm()),
        (
            "rate-limit storm",
            ChaosSchedule::calm().with_window(FaultKind::RateLimit, 2, 6),
        ),
        (
            "timeout burst",
            ChaosSchedule::calm()
                .with_window(FaultKind::Timeout, 0, 8)
                .with_timeout_inflation(60_000.0),
        ),
        (
            "endpoint blackout",
            ChaosSchedule::calm().with_window(FaultKind::Blackout, 0, 10_000),
        ),
        ("seeded mix (seed 17)", ChaosSchedule::from_seed(17, 120, 0.7)),
        ("seeded mix (seed 42)", ChaosSchedule::from_seed(42, 120, 0.7)),
    ];

    let mut report = String::new();
    let _ = writeln!(
        report,
        "{:<22} {:>5} {:>8} {:>7} {:>9} {:>10} {:>10} {:>9}",
        "scenario", "docs", "retries", "trips", "fallback", "degraded", "degr_frac", "diverged"
    );
    for (name, schedule) in scenarios {
        let row = run_scenario(name, schedule, &calm);
        let s = &row.stats;
        let frac = s.degraded_docs as f64 / row.docs.max(1) as f64;
        let _ = writeln!(
            report,
            "{:<22} {:>5} {:>8} {:>7} {:>9} {:>10} {:>9.1}% {:>9}",
            row.name,
            row.docs,
            s.retries,
            s.breaker_trips,
            s.fallback_calls,
            s.degraded_docs,
            100.0 * frac,
            row.diverged
        );
    }
    let _ = writeln!(report);
    let _ = writeln!(
        report,
        "invariant: diverged must be 0 everywhere — a chaotic run may degrade \
         (flagged) but never silently change an unflagged answer"
    );
    print!("{report}");

    let dir = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../bench_results");
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("cannot create bench_results/: {e}");
        return;
    }
    let path = dir.join("reliability.txt");
    match std::fs::write(&path, &report) {
        Ok(()) => println!("\nreport exported to {}", path.display()),
        Err(e) => eprintln!("report export failed: {e}"),
    }
}
