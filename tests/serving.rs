//! Multi-tenant serving: budget isolation, cache-key policy, fair-share
//! scheduling, admission control, and the CI fairness guard.
//!
//! The acceptance bar for the serving layer is *isolation you can measure*:
//! a tenant running concurrently with an aggressor must see the same
//! per-question budget accounting, the same answers, and a bounded p99 —
//! compared bit-for-bit against its own solo run.

use aryn::prelude::*;
use aryn_docgen::stream::extracted_document;
use aryn_index::DocStore;
use luna::{
    CacheKeyPolicy, LoadGen, LoadProfile, LoadTenant, LunaAnswer, QueryService, ServeConfig,
    TenantSpec,
};
use proptest::prelude::*;
use std::sync::Arc;
use std::thread;

const QUESTIONS: &[&str] = &[
    "How many incidents were caused by environmental factors?",
    "How many incidents happened in Alaska?",
    "How many incidents were caused by wind?",
    "How many incidents were weather related?",
];

/// One ingested NTSB context, shared by every session of a service.
fn serving_ctx(seed: u64, docs: usize) -> Context {
    let ctx = Context::new();
    let corpus = Corpus::ntsb(seed, docs);
    ctx.register_corpus("ntsb", &corpus);
    let client = LlmClient::new(Arc::new(MockLlm::new(&GPT4_SIM, SimConfig::with_seed(seed))));
    ingest_lake(&ctx, "ntsb", "ntsb", &client, luna::ntsb_schema(), Detector::DetrSim).unwrap();
    ctx
}

/// An extracted NTSB store without its cause and weather fields, so a
/// question about causes keeps a per-document `llmFilter` after
/// optimization.
fn semantic_ctx(docs: usize) -> Context {
    let ctx = Context::new();
    let store: DocStore = Corpus::ntsb(7, docs)
        .docs
        .iter()
        .map(|d| {
            let mut doc = extracted_document(d);
            if let Some(props) = doc.properties.as_object_mut() {
                props.remove("cause_detail");
                props.remove("cause_category");
                props.remove("weather_related");
            }
            doc
        })
        .collect();
    ctx.put_store("ntsb", store);
    ctx
}

fn service(ctx: Context, cfg: ServeConfig) -> QueryService {
    QueryService::new(ctx, &["ntsb"], cfg).unwrap()
}

fn two_tenant_cfg(policy: CacheKeyPolicy) -> ServeConfig {
    ServeConfig {
        cache_policy: policy,
        tenants: vec![TenantSpec::new("acme", 1.0), TenantSpec::new("globex", 1.0)],
        sim: SimConfig::with_seed(7),
        ..ServeConfig::default()
    }
}

/// Per-question accounting for one tenant asked solo: the reference the
/// concurrent runs must reproduce bit-for-bit.
fn solo_accounting(seed: u64, tenant: &str, questions: &[&str]) -> Vec<(String, f64, u64, f64)> {
    let svc = service(serving_ctx(seed, 18), two_tenant_cfg(CacheKeyPolicy::PerTenant));
    questions
        .iter()
        .map(|q| {
            let session = svc.session(tenant).unwrap();
            let ans = session.ask(q).unwrap();
            let state = session.question_reliability().expect("session mode");
            (ans.answer().to_string(), state.now_ms(), state.spent_tokens(), state.spent_usd())
        })
        .collect()
}

/// Tentpole acceptance: a session's deadline/token/$ accounting while an
/// aggressor hammers the service concurrently is IDENTICAL to its solo run
/// — zero cross-tenant budget leakage. Budget clocks are forked per
/// question and queue waits are never charged, so the numbers match to the
/// last bit, not within a tolerance.
#[test]
fn concurrent_budget_accounting_matches_solo_bit_for_bit() {
    let seed = 11;
    let solo = solo_accounting(seed, "acme", QUESTIONS);

    let svc = Arc::new(service(serving_ctx(seed, 18), two_tenant_cfg(CacheKeyPolicy::PerTenant)));
    let aggressor = {
        let svc = Arc::clone(&svc);
        thread::spawn(move || {
            for _ in 0..3 {
                for q in QUESTIONS {
                    let _ = svc.submit("globex", q);
                }
            }
        })
    };
    let concurrent: Vec<(String, f64, u64, f64)> = QUESTIONS
        .iter()
        .map(|q| {
            let session = svc.session("acme").unwrap();
            let ans = session.ask(q).unwrap();
            let state = session.question_reliability().expect("session mode");
            (ans.answer().to_string(), state.now_ms(), state.spent_tokens(), state.spent_usd())
        })
        .collect();
    aggressor.join().unwrap();

    assert_eq!(solo, concurrent, "per-question accounting must not see the aggressor");
    // The aggressor's own accounting landed on its tenant, not on acme's.
    let stats = svc.stats();
    assert_eq!(stats.tenants["globex"].answered, 3 * QUESTIONS.len() as u64);
    assert!(stats.tenants["globex"].spent_ms > 0.0);
    assert_eq!(stats.tenants["acme"].questions, 0, "direct sessions bypass submit counters");
}

/// Sessions never touch the shared context's knobs: the service applies the
/// default worker count once, when it is built, and opening sessions and
/// asking through them leaves the execution config as it was — here a
/// non-default one set after the service was built.
#[test]
fn opening_sessions_leaves_the_exec_config_unchanged() {
    let ctx = serving_ctx(5, 12);
    let svc = service(ctx.clone(), two_tenant_cfg(CacheKeyPolicy::Shared));
    assert_eq!(ctx.exec_config().threads, LunaConfig::default().exec_workers);
    ctx.set_workers(3);
    let pinned = ctx.exec_config();
    for tenant in ["acme", "globex", "acme"] {
        let session = svc.session(tenant).unwrap();
        assert_eq!(ctx.exec_config(), pinned, "opening a {tenant} session");
        session.ask(QUESTIONS[1]).unwrap();
        assert_eq!(ctx.exec_config(), pinned, "asking through a {tenant} session");
    }
    svc.submit("globex", QUESTIONS[0]).unwrap();
    assert_eq!(ctx.exec_config(), pinned, "submitting");
}

/// Cache-key policy: `Shared` lets tenant B reuse tenant A's identical
/// temperature-0 completions; `PerTenant` folds the tenant into the key so
/// the same question misses again. Answers are identical either way.
#[test]
fn cache_policy_controls_cross_tenant_reuse() {
    let q = QUESTIONS[0];

    let shared = service(serving_ctx(3, 16), two_tenant_cfg(CacheKeyPolicy::Shared));
    let a1 = shared.submit("acme", q).unwrap();
    let misses_after_first = shared.cache_stats().misses;
    let a2 = shared.submit("globex", q).unwrap();
    let shared_stats = shared.cache_stats();
    assert_eq!(a1.answer(), a2.answer());
    assert!(
        shared_stats.hits > 0,
        "shared policy: globex should hit acme's entries ({shared_stats:?})"
    );
    assert_eq!(
        shared_stats.misses, misses_after_first,
        "shared policy: the repeat question must add no misses"
    );

    let isolated = service(serving_ctx(3, 16), two_tenant_cfg(CacheKeyPolicy::PerTenant));
    let b1 = isolated.submit("acme", q).unwrap();
    let misses_after_first = isolated.cache_stats().misses;
    let b2 = isolated.submit("globex", q).unwrap();
    let isolated_stats = isolated.cache_stats();
    assert_eq!(b1.answer(), b2.answer());
    assert_eq!(
        isolated_stats.hits, 0,
        "per-tenant policy: globex must never read acme's entries ({isolated_stats:?})"
    );
    assert!(
        isolated_stats.misses > misses_after_first,
        "per-tenant policy: the repeat question pays its own misses"
    );
}

/// Tenant-scoped breakers: one tenant tripping a model's breaker leaves
/// the same model usable by every other tenant (keys are `{tenant}/{model}`
/// on the shared board).
#[test]
fn breaker_trips_stay_within_tenant_scope() {
    use aryn_llm::{ReliabilityPolicy, ReliabilityState};
    let base = ReliabilityState::new(ReliabilityPolicy::standard());
    let acme = base.fork_scoped("acme", ReliabilityPolicy::standard());
    let globex = base.fork_scoped("globex", ReliabilityPolicy::standard());
    let breaker = acme.breaker("gpt-4-sim").expect("breaker enabled");
    for _ in 0..8 {
        breaker.record(false, 0.0);
    }
    assert!(!breaker.allow(1.0), "acme tripped its breaker");
    let other = globex.breaker("gpt-4-sim").expect("breaker enabled");
    assert!(other.allow(1.0), "globex is unaffected");
    assert_eq!(base.board().total_trips(), 1);
}

/// Admission control: with the only slot held and a zero-depth queue,
/// `submit` rejects fast with `Overloaded` and accounts the rejection.
#[test]
fn admission_rejects_when_saturated() {
    let cfg = ServeConfig {
        max_active: 1,
        queue_depth: 0,
        ..two_tenant_cfg(CacheKeyPolicy::Shared)
    };
    let svc = service(serving_ctx(5, 12), cfg);
    let held = svc.admission().enter().unwrap();
    match svc.submit("acme", QUESTIONS[0]) {
        Err(aryn_core::ArynError::Overloaded { active, queued }) => {
            assert_eq!((active, queued), (1, 0));
        }
        other => panic!("expected Overloaded, got {:?}", other.map(|a| a.answer().to_string())),
    }
    drop(held);
    svc.submit("acme", QUESTIONS[0]).expect("slot freed, question runs");
    let stats = svc.stats();
    assert_eq!(stats.tenants["acme"].overloaded, 1);
    assert_eq!(stats.tenants["acme"].answered, 1);
}

/// CI fairness guard (pinned bound): an aggressor with 16× the victim's
/// users may not push the victim's simulated p99 beyond 4× its solo p99,
/// and weight-normalized service during contention stays Jain ≥ 0.9. The
/// service demands are profiled from real solo question runs, so the
/// simulation's load shape tracks the live system.
#[test]
fn fairness_guard_aggressor_bounded() {
    let svc = service(serving_ctx(13, 18), two_tenant_cfg(CacheKeyPolicy::Shared));
    // Profile per-question service demand (simulated ms) from solo runs.
    let mut demand = Vec::new();
    for q in QUESTIONS {
        let session = svc.session("acme").unwrap();
        session.ask(q).unwrap();
        let ms = session.question_reliability().expect("session mode").now_ms();
        demand.push(ms.max(1.0));
    }
    // DRR quantum at the mean demand: grants interleave at question
    // granularity instead of bursting many grants per rotation.
    let quantum = demand.iter().sum::<f64>() / demand.len() as f64;
    let victim = |users: usize| LoadTenant {
        id: "victim".into(),
        weight: 1.0,
        users,
        questions_per_user: 25,
        profile: LoadProfile::of(demand.clone()),
    };
    let solo = LoadGen { slots: 4, quantum, tenants: vec![victim(4)] }.run();
    let contested = LoadGen {
        slots: 4,
        quantum,
        tenants: vec![
            victim(4),
            LoadTenant {
                id: "aggressor".into(),
                weight: 1.0,
                users: 64,
                questions_per_user: 25,
                profile: LoadProfile::of(demand.clone()),
            },
        ],
    }
    .run();
    let solo_p99 = solo.tenants["victim"].p99_ms;
    let contested_p99 = contested.tenants["victim"].p99_ms;
    assert!(
        contested_p99 <= solo_p99 * 4.0 + 1.0,
        "victim p99 {contested_p99:.1} ms exceeds pinned bound (solo {solo_p99:.1} ms):\n{}",
        contested.render()
    );
    assert!(
        contested.jain >= 0.9,
        "fair-share violated: jain {:.4}\n{}",
        contested.jain,
        contested.render()
    );
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 4, ..ProptestConfig::default() })]

    /// Mixed concurrent sessions stay deterministic: whatever interleaving
    /// the threads land on, every tenant's answers equal its solo run's.
    #[test]
    fn concurrent_mixed_sessions_deterministic(
        seed in 1u64..64,
        threads_per_tenant in 1usize..3,
    ) {
        let solo: Vec<String> = {
            let svc = service(serving_ctx(seed, 12), two_tenant_cfg(CacheKeyPolicy::PerTenant));
            QUESTIONS.iter().map(|q| svc.submit("acme", q).unwrap().answer().to_string()).collect()
        };
        let svc = Arc::new(service(serving_ctx(seed, 12), two_tenant_cfg(CacheKeyPolicy::PerTenant)));
        let mut handles = Vec::new();
        for tenant in ["acme", "globex"] {
            for _ in 0..threads_per_tenant {
                let svc = Arc::clone(&svc);
                handles.push(thread::spawn(move || {
                    QUESTIONS
                        .iter()
                        .map(|q| svc.submit(tenant, q).unwrap().answer().to_string())
                        .collect::<Vec<String>>()
                }));
            }
        }
        for h in handles {
            let answers = h.join().unwrap();
            prop_assert_eq!(&answers, &solo, "a concurrent session diverged from the solo run");
        }
    }
}

/// One question's spend as its Luna reports it: simulated ms, tokens, $.
fn question_spend(luna: &Luna) -> Option<(f64, u64, f64)> {
    luna.question_reliability().map(|s| (s.now_ms(), s.spent_tokens(), s.spent_usd()))
}

/// Each node's LLM counters, as printed (floats by their exact rendering).
fn node_counters(answer: &LunaAnswer) -> Vec<String> {
    answer.result.traces.iter().map(|t| format!("out_{} {:?}", t.node_id, t.llm)).collect()
}

/// Two standalone Lunas with reliability policies share one context, and
/// each question of each still starts from a fresh budget: building B
/// does not take over A's budget, and A's second question is not charged
/// for its first. The deadline fits one question, planning included, but
/// not two.
#[test]
fn standalone_lunas_on_one_context_keep_per_question_budgets() {
    const DEADLINE_MS: f64 = 60_000.0;
    let ctx = semantic_ctx(12);
    let build = || {
        let cfg = LunaConfig {
            sim: SimConfig::perfect(7),
            reliability: Some(ReliabilityPolicy {
                deadline_ms: DEADLINE_MS,
                ..ReliabilityPolicy::default()
            }),
            ..LunaConfig::default()
        };
        Luna::new(ctx.clone(), &["ntsb"], cfg).unwrap()
    };
    let a = build();
    let b = build();
    let q = QUESTIONS[0];
    let first = a.ask(q).unwrap();
    let first_spend = question_spend(&a);
    let second = a.ask(q).unwrap();
    assert_eq!(second.answer(), first.answer());
    assert_eq!(first.result.llm().degraded_docs, 0, "one question fits the deadline");
    assert_eq!(second.result.llm().degraded_docs, 0, "the second question has its own budget");
    let (ms, _, _) = first_spend.expect("a Luna with a policy reports its question's spend");
    assert!(first.result.llm().calls > 0 && 2.0 * ms > DEADLINE_MS, "{ms} ms per question");
    assert_eq!(question_spend(&a), first_spend);
    let from_b = b.ask(q).unwrap();
    assert_eq!(from_b.answer(), first.answer());
    assert_eq!(question_spend(&b), first_spend);
}

/// A standalone Luna and a service session are wired the same way: under
/// one policy and from a cold cache, one question gets the same answer,
/// the same per-node LLM counters and the same budget spend, planning
/// included.
#[test]
fn standalone_luna_matches_a_service_session() {
    let policy = ReliabilityPolicy::standard();
    let sim = SimConfig::with_seed(7);
    let q = QUESTIONS[0];
    let cfg = LunaConfig {
        sim: sim.clone(),
        reliability: Some(policy),
        call_cache: true,
        ..LunaConfig::default()
    };
    let luna = Luna::new(semantic_ctx(12), &["ntsb"], cfg).unwrap();
    let standalone = luna.ask(q).unwrap();
    let spend = question_spend(&luna).expect("a Luna with a policy reports its question's spend");

    let svc = service(
        semantic_ctx(12),
        ServeConfig {
            reliability: policy,
            tenants: vec![TenantSpec::new("acme", 1.0)],
            sim,
            ..ServeConfig::default()
        },
    );
    let served = svc.submit("acme", q).unwrap();
    let acme = &svc.stats().tenants["acme"];

    assert_eq!(served.answer(), standalone.answer());
    assert_eq!(node_counters(&served), node_counters(&standalone));
    assert_eq!((acme.spent_ms, acme.spent_tokens, acme.spent_usd), spend);
    let executed = standalone.result.llm();
    assert!(executed.calls > 0, "the question keeps a per-document llmFilter");
    assert!(
        spend.1 > executed.usage.tokens(),
        "planning is charged to the question: {} tokens spent, {} executed",
        spend.1,
        executed.usage.tokens()
    );
}
