//! The morsel-driven runner (DESIGN.md §5g) must be *bit-identical* at any
//! worker count to its 1-worker baseline across random pipelines, seeds,
//! input sizes (which set the morsel size) and worker counts — and it must
//! stay bit-identical with the chaos injector installed, because
//! request-keyed chaos ([`ChaosKeying::RequestKey`]) places faults by request
//! content, never by arrival order.
//!
//! Morsels and workers are pure scheduling: they decide *who* runs a
//! document and *when*, never *what* the document becomes. Output order is
//! restored by morsel id, injected worker failures are keyed by
//! `(seed, stage, doc, attempt)`, and chaos faults by `(prompt, attempt)` —
//! so every observable (documents, order, lineage, retry totals, failure
//! totals, LLM call counts) replays exactly at any parallelism.

use aryn::prelude::*;
use aryn_core::{Document, Value};
use proptest::prelude::*;
use std::sync::Arc;
use sycamore::ExecStats;

/// Pipeline shape bits: which optional per-doc stages are present. All
/// shapes start with partition (so documents have elements) and end with
/// embed; bit 4 appends a reduce_by_key barrier so segment fusion has a
/// boundary to respect.
const SHAPE_EXTRACT: u8 = 1 << 0;
const SHAPE_EXPLODE: u8 = 1 << 1;
const SHAPE_MAP: u8 = 1 << 2;
const SHAPE_FILTER: u8 = 1 << 3;
const SHAPE_BARRIER: u8 = 1 << 4;

fn schema() -> Value {
    obj! { "us_state_abbrev" => "string", "fatal" => "int" }
}

#[derive(Clone, Copy, Debug)]
struct RunCfg {
    shape: u8,
    corpus_seed: u64,
    threads: usize,
    /// Corpus size: with the worker count it sets the morsel size.
    docs: usize,
    fail_rate: f64,
    chaos: bool,
}

fn run(cfg: RunCfg) -> (Vec<Document>, ExecStats) {
    let ctx = Context::new().with_exec(ExecConfig {
        threads: cfg.threads,
        fail_rate: cfg.fail_rate,
        max_retries: 12,
        skip_failures: true,
        seed: 0x3035,
        ..ExecConfig::default()
    });
    let corpus = Corpus::ntsb(cfg.corpus_seed, cfg.docs);
    ctx.register_corpus("ntsb", &corpus);
    if cfg.chaos {
        // Request-keyed chaos: the same request faults identically at any
        // worker count, so chaotic runs stay comparable across parallelism.
        let schedule =
            ChaosSchedule::from_seed(cfg.corpus_seed, 64, 0.5).keyed_by_request(64);
        ctx.set_chaos(schedule);
    }
    let client = LlmClient::new(Arc::new(MockLlm::new(
        &GPT4_SIM,
        SimConfig::with_seed(cfg.corpus_seed),
    )));
    let mut ds = ctx
        .read_lake("ntsb")
        .unwrap()
        .partition("ntsb", PartitionCfg::default());
    if cfg.shape & SHAPE_EXTRACT != 0 {
        ds = ds.extract_properties(&client, schema());
    }
    if cfg.shape & SHAPE_EXPLODE != 0 {
        ds = ds.explode();
    }
    if cfg.shape & SHAPE_MAP != 0 {
        ds = ds.map("tag", |mut d| {
            let tag = d.id.as_str().len() as i64;
            d.set_prop("tag", tag);
            d
        });
    }
    if cfg.shape & SHAPE_FILTER != 0 {
        ds = ds.filter("half", |d| d.id.as_str().len() % 2 == 0);
    }
    ds = ds.embed();
    if cfg.shape & SHAPE_BARRIER != 0 {
        ds = ds.sort_by("properties.path", false);
    }
    ds.collect_stats().unwrap()
}

fn assert_identical(a: &[Document], b: &[Document], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: document counts differ");
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.id, y.id, "{what}: order differs");
        assert_eq!(x.lineage, y.lineage, "{what}: lineage differs for {}", x.id.0);
    }
    assert_eq!(a, b, "{what}: documents not bit-identical");
}

/// The core differential: one configuration against its own 1-worker
/// baseline, all observables equal.
fn differential(cfg: RunCfg) {
    let baseline = RunCfg { threads: 1, ..cfg };
    let (d1, s1) = run(baseline);
    let (dn, sn) = run(cfg);
    let what = format!(
        "threads={} docs={} fail={} chaos={} shape={:#07b}",
        cfg.threads, cfg.docs, cfg.fail_rate, cfg.chaos, cfg.shape
    );
    assert_identical(&d1, &dn, &what);
    assert_eq!(s1.total_retries(), sn.total_retries(), "{what}: retries");
    assert_eq!(
        s1.total_failed_docs(),
        sn.total_failed_docs(),
        "{what}: failed docs"
    );
    assert_eq!(s1.llm().calls, sn.llm().calls, "{what}: llm calls");
}

#[test]
fn every_worker_count_matches_sequential_on_a_pinned_pipeline() {
    let base = RunCfg {
        shape: SHAPE_EXTRACT | SHAPE_EXPLODE | SHAPE_MAP,
        corpus_seed: 11,
        threads: 1,
        docs: 13,
        fail_rate: 0.2,
        chaos: false,
    };
    for threads in [1, 2, 4, 8] {
        differential(RunCfg { threads, ..base });
    }
}

#[test]
fn chaos_is_bit_identical_across_worker_counts_when_request_keyed() {
    let base = RunCfg {
        shape: SHAPE_EXTRACT | SHAPE_EXPLODE,
        corpus_seed: 7,
        threads: 1,
        docs: 13,
        fail_rate: 0.0,
        chaos: true,
    };
    for threads in [1, 2, 4, 8] {
        differential(RunCfg { threads, ..base });
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Random pipeline × random worker count and input size ≡ 1-worker
    /// baseline.
    #[test]
    fn morsel_schedules_never_change_results(
        shape in 0u8..32,
        corpus_seed in 1u64..64,
        threads_ix in 0usize..3,
        docs_ix in 0usize..3,
        faults in any::<bool>(),
    ) {
        differential(RunCfg {
            shape,
            corpus_seed,
            threads: [2usize, 4, 8][threads_ix],
            docs: [5usize, 13, 21][docs_ix],
            fail_rate: if faults { 0.25 } else { 0.0 },
            chaos: false,
        });
    }

    /// Same property with the PR 5 chaos injector installed (request-keyed,
    /// so fault placement is scheduling-independent by construction).
    #[test]
    fn chaotic_morsel_schedules_never_change_results(
        corpus_seed in 1u64..48,
        threads_ix in 0usize..3,
        docs_ix in 0usize..2,
    ) {
        differential(RunCfg {
            shape: SHAPE_EXTRACT | SHAPE_MAP,
            corpus_seed,
            threads: [2usize, 4, 8][threads_ix],
            docs: [4usize, 13][docs_ix],
            fail_rate: 0.0,
            chaos: true,
        });
    }
}
