//! The reliability invariant under deterministic chaos (DESIGN.md §5f):
//!
//! * faults the retry ladder can absorb leave results **bit-identical** to a
//!   calm run;
//! * faults it cannot absorb degrade with explicit flags (`_degraded`
//!   properties, `degraded_docs` counters) or fail with a structured
//!   [`ArynError::DeadlineExceeded`] / [`ArynError::CircuitOpen`] —
//!   **never a silent wrong answer**;
//! * identical seeds replay identical runs, fault for fault.
//!
//! The chaos schedules come from [`aryn_llm::chaos`]; the invariant proptest
//! also runs under three pinned seeds (`seed_3` / `seed_17` / `seed_42`) so
//! CI's chaos matrix exercises known-interesting schedules cheaply, and so
//! does the check that a Luna session at four workers replays its
//! one-worker run exactly (`workers_match_sequential_seed_*`).

use aryn_core::{obj, ArynError, Document, Value};
use aryn_docgen::stream::extracted_document;
use aryn_docgen::Corpus;
use aryn_index::DocStore;
use aryn_llm::{
    ChaosSchedule, FaultKind, LlmClient, MockLlm, ReliabilityPolicy, ReliabilityState, SimConfig,
    UsageStats, GPT4_SIM, LLAMA7B_SIM,
};
use luna::{Luna, LunaConfig, Plan, PlanNode, PlanOp};
use proptest::prelude::*;
use std::sync::Arc;
use sycamore::{Context, ExecStats};

fn schema() -> Value {
    obj! { "us_state_abbrev" => "string", "year" => "int" }
}

fn corpus_ctx(n: usize) -> Context {
    let ctx = Context::new();
    ctx.register_corpus("ntsb", &Corpus::ntsb(7, n));
    ctx
}

fn perfect_client() -> LlmClient {
    LlmClient::new(Arc::new(MockLlm::new(&GPT4_SIM, SimConfig::perfect(1))))
}

/// The calm baseline: no chaos, no reliability policy.
fn calm_extract(n: usize) -> Vec<Document> {
    let ctx = corpus_ctx(n);
    ctx.read_lake("ntsb")
        .unwrap()
        .extract_properties(&perfect_client(), schema())
        .collect()
        .unwrap()
}

/// One chaotic extraction run. The client is the head of a degradation
/// ladder (gpt-4-sim → llama-7b-sim) when `ladder`; chaos always targets
/// the primary endpoint only (the context wraps the op's top tier).
fn chaotic_extract(
    n: usize,
    schedule: ChaosSchedule,
    policy: ReliabilityPolicy,
    ladder: bool,
) -> (Result<(Vec<Document>, ExecStats), ArynError>, LlmClient) {
    let ctx = corpus_ctx(n);
    let state = ReliabilityState::new(policy);
    ctx.set_chaos(schedule);
    let mut client = perfect_client().with_reliability(Arc::clone(&state));
    if ladder {
        let fallback = LlmClient::new(Arc::new(MockLlm::new(&LLAMA7B_SIM, SimConfig::perfect(1))))
            .with_reliability(state);
        client = client.with_fallback(fallback);
    }
    let run = ctx
        .read_lake("ntsb")
        .unwrap()
        .extract_properties(&client, schema())
        .collect_stats();
    (run, client)
}

/// Degradation flag of a document, if any.
fn degraded(d: &Document) -> Option<&str> {
    d.prop("_degraded").and_then(Value::as_str)
}

#[test]
fn absorbable_faults_are_bit_identical_to_calm() {
    // Short fault windows, all absorbable: a 2-call rate-limit storm, one
    // repairable + one truncated response, one slow call. The retry ladder
    // (4 transient attempts, 2 re-asks) rides them all out.
    let schedule = ChaosSchedule::calm()
        .with_window(FaultKind::RateLimit, 2, 2)
        .with_window(FaultKind::Malformed, 6, 2)
        .with_window(FaultKind::Timeout, 10, 1);
    let policy = ReliabilityPolicy {
        call_timeout_ms: 10_000.0,
        deadline_ms: 100_000_000.0,
        breaker_window: 16,
        breaker_threshold: 0.9,
        breaker_cooldown_ms: 1_000.0,
        ..ReliabilityPolicy::default()
    };
    let calm = calm_extract(12);
    let (run, client) = chaotic_extract(12, schedule, policy, false);
    let (docs, stats) = run.unwrap();
    assert_eq!(docs.len(), calm.len());
    for (a, b) in docs.iter().zip(&calm) {
        assert_eq!(a.id, b.id);
        assert_eq!(a.properties, b.properties, "chaos must not change answers");
        assert!(degraded(a).is_none());
    }
    // The faults really fired — they were absorbed, not skipped.
    let s = client.stats();
    assert!(s.retries >= 3, "rate-limit + timeout retries: {s:?}");
    assert!(s.transient_failures >= 2, "{s:?}");
    assert!(s.parse_repairs + s.parse_failures >= 2, "malformed window fired: {s:?}");
    assert_eq!(s.degraded_docs, 0);
    assert_eq!(stats.llm().degraded_docs, 0);
}

#[test]
fn blackout_trips_the_breaker_and_degrades_with_flags() {
    // The primary endpoint is dark for the whole run. The breaker opens
    // after one window of failures; every document is answered by the
    // fallback tier and flagged.
    let schedule = ChaosSchedule::calm().with_window(FaultKind::Blackout, 0, 10_000);
    let policy = ReliabilityPolicy {
        deadline_ms: 100_000_000.0,
        breaker_window: 4,
        breaker_threshold: 0.5,
        breaker_cooldown_ms: 1_000_000_000.0,
        ..ReliabilityPolicy::default()
    };
    let calm = calm_extract(8);
    let (run, client) = chaotic_extract(8, schedule, policy, true);
    let (docs, stats) = run.unwrap();
    assert_eq!(docs.len(), calm.len(), "degradation loses no documents");
    for d in &docs {
        assert_eq!(degraded(d), Some("llama-7b-sim"), "every doc flagged: {d:?}");
    }
    let s = client.stats();
    assert!(s.breaker_trips >= 1, "breaker must trip: {s:?}");
    assert_eq!(s.degraded_docs, 8);
    assert_eq!(s.fallback_calls, 8);
    // Stage accounting sees the same story.
    assert!(stats.llm().breaker_trips >= 1);
    assert_eq!(stats.llm().degraded_docs, 8);
    assert_eq!(stats.llm().fallback_calls, 8);
    // The fallback tier did the work and its meter shows it.
    let tiers = client.fallback_chain();
    assert_eq!(tiers.len(), 2);
    assert!(tiers[1].stats().calls >= 8, "{:?}", tiers[1].stats());
}

#[test]
fn deadline_exhaustion_degrades_filter_to_string_match() {
    // A budget that covers only the first couple of calls: once it is
    // spent, llm_filter falls to the deterministic string-match tier. With
    // a perfect sim both tiers agree, so the kept set matches calm — but
    // the route is recorded, never silent.
    let ctx = corpus_ctx(10);
    let state = ReliabilityState::new(ReliabilityPolicy {
        deadline_ms: 1_000.0, // ~2 gpt-4-sim calls at 450ms base latency
        ..ReliabilityPolicy::default()
    });
    let client = perfect_client().with_reliability(Arc::clone(&state));
    let (docs, stats) = ctx
        .read_lake("ntsb")
        .unwrap()
        .llm_filter(&client, "caused by wind")
        .collect_stats()
        .unwrap();
    let calm_ctx = corpus_ctx(10);
    let calm = calm_ctx
        .read_lake("ntsb")
        .unwrap()
        .llm_filter(&perfect_client(), "caused by wind")
        .collect()
        .unwrap();
    let ids: Vec<&str> = docs.iter().map(|d| d.id.as_str()).collect();
    let calm_ids: Vec<&str> = calm.iter().map(|d| d.id.as_str()).collect();
    assert_eq!(ids, calm_ids, "string-match tier agrees with the calm run");
    assert!(
        stats.llm().degraded_docs > 0,
        "budget exhaustion must flag degraded documents: {stats:?}"
    );
    assert!(docs
        .iter()
        .filter(|d| degraded(d).is_some())
        .all(|d| degraded(d) == Some("string-match")));
    // The structured error is reachable directly: a drained budget refuses
    // further calls with DeadlineExceeded, not a generic failure.
    state.charge(10_000.0);
    match state.check_deadline() {
        Err(ArynError::DeadlineExceeded { budget_ms, .. }) => assert_eq!(budget_ms, 1_000.0),
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
}

/// The core invariant, replayed for an arbitrary seeded schedule: a chaotic
/// run either matches calm per-document, or flags what it degraded, or
/// fails with a structured error — and the same seed replays identically.
fn chaos_invariant(seed: u64) {
    let calm = calm_extract(10);
    let schedule = ChaosSchedule::from_seed(seed, 80, 0.7);
    let policy = ReliabilityPolicy {
        call_timeout_ms: 10_000.0,
        deadline_ms: 60_000.0,
        breaker_window: 6,
        breaker_threshold: 0.5,
        breaker_cooldown_ms: 30_000.0,
        degrade_below_ms: 2_000.0,
        ..ReliabilityPolicy::default()
    };
    let run = |sched: ChaosSchedule| chaotic_extract(10, sched, policy, true).0;
    let first = run(schedule.clone());
    match &first {
        Ok((docs, stats)) => {
            assert_eq!(docs.len(), calm.len(), "extraction drops no documents");
            let mut flagged = 0u64;
            for (a, b) in docs.iter().zip(&calm) {
                assert_eq!(a.id, b.id);
                if degraded(a).is_some() {
                    flagged += 1;
                } else {
                    assert_eq!(
                        a.properties, b.properties,
                        "unflagged documents must match the calm run (seed {seed})"
                    );
                }
            }
            assert_eq!(
                flagged,
                stats.llm().degraded_docs,
                "flags and counters agree (seed {seed})"
            );
        }
        Err(e) => assert!(
            matches!(
                e,
                ArynError::DeadlineExceeded { .. }
                    | ArynError::CircuitOpen { .. }
                    | ArynError::Llm(_)
                    | ArynError::Exec(_)
            ),
            "only structured failures are allowed (seed {seed}): {e:?}"
        ),
    }
    // Determinism: the same schedule replays the same outcome.
    let second = run(schedule);
    match (&first, &second) {
        (Ok((d1, _)), Ok((d2, _))) => {
            assert_eq!(d1.len(), d2.len());
            for (a, b) in d1.iter().zip(d2) {
                assert_eq!(a.id, b.id);
                assert_eq!(a.properties, b.properties, "chaos replay diverged (seed {seed})");
            }
        }
        (Err(e1), Err(e2)) => assert_eq!(e1.to_string(), e2.to_string()),
        (a, b) => panic!("replay changed outcome (seed {seed}): {a:?} vs {b:?}"),
    }
}

// The CI chaos matrix: three pinned seeds, runnable by name.
#[test]
fn chaos_invariant_seed_3() {
    chaos_invariant(3);
}

#[test]
fn chaos_invariant_seed_17() {
    chaos_invariant(17);
}

#[test]
fn chaos_invariant_seed_42() {
    chaos_invariant(42);
}

/// What one Luna run leaves behind, down to everything scheduling could
/// move: the answer, each node's LLM counters and every kept row's
/// `_degraded` flag.
type LunaRun = (String, Vec<UsageStats>, Vec<(String, Option<String>)>);

/// An llmFilter plan through a fresh Luna session over an NTSB store
/// without its cause fields, under `seed`'s arrival-order chaos schedule and
/// a deadline that runs out part-way through the filter.
fn luna_run(seed: u64, workers: usize) -> LunaRun {
    let ctx = Context::new();
    let store: DocStore = Corpus::ntsb(7, 24)
        .docs
        .iter()
        .map(|d| {
            let mut doc = extracted_document(d);
            if let Some(props) = doc.properties.as_object_mut() {
                props.remove("cause_detail");
                props.remove("cause_category");
            }
            doc
        })
        .collect();
    ctx.put_store("ntsb", store);
    ctx.set_chaos(ChaosSchedule::from_seed(seed, 80, 0.7));
    let cfg = LunaConfig {
        sim: SimConfig::perfect(1),
        reliability: Some(ReliabilityPolicy {
            call_timeout_ms: 10_000.0,
            deadline_ms: 40_000.0,
            degrade_below_ms: 2_000.0,
            ..ReliabilityPolicy::default()
        }),
        exec_workers: workers,
        ..LunaConfig::default()
    };
    let luna = Luna::new(ctx, &["ntsb"], cfg).unwrap();
    let predicate = "the incident was caused by environmental factors".to_string();
    let node = |id, op, inputs| PlanNode { id, op, inputs, description: String::new() };
    let plan = Plan {
        nodes: vec![
            node(0, PlanOp::QueryDatabase { index: "ntsb".into(), prefilter: vec![] }, vec![]),
            node(1, PlanOp::LlmFilter { predicate, model: String::new() }, vec![0]),
        ],
        result: 1,
    };
    let result = luna.execute(&plan).unwrap();
    let rows = result.output.rows().unwrap_or_default();
    (
        result.answer.clone(),
        result.traces.iter().map(|t| t.llm).collect(),
        rows.iter().map(|d| (d.id.to_string(), degraded(d).map(str::to_string))).collect(),
    )
}

/// `exec_workers` is a speed knob only: under arrival-order chaos and a
/// deadline, every stage over those clients runs in input order, so four
/// workers reproduce one worker's run — answer, per-node counters (compared
/// as printed, so floats by their shortest exact rendering) and degradation
/// flags — byte for byte, every time.
fn workers_match_sequential(seed: u64) {
    let sequential = luna_run(seed, 1);
    let degraded_docs: u64 = sequential.1.iter().map(|s| s.degraded_docs).sum();
    assert!(
        degraded_docs > 0 && degraded_docs < 24,
        "seed {seed}: the deadline must cut the filter part-way ({degraded_docs} of 24 documents degraded)"
    );
    let want = format!("{sequential:?}");
    for repeat in 0..5 {
        assert_eq!(format!("{:?}", luna_run(seed, 4)), want, "seed {seed}, repeat {repeat}");
    }
}

#[test]
fn workers_match_sequential_seed_3() {
    workers_match_sequential(3);
}

#[test]
fn workers_match_sequential_seed_17() {
    workers_match_sequential(17);
}

#[test]
fn workers_match_sequential_seed_42() {
    workers_match_sequential(42);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn chaos_never_silently_diverges(seed in 0u64..512) {
        chaos_invariant(seed);
    }
}
