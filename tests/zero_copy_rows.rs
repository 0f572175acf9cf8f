//! The row plane (DESIGN.md "Data plane"): rows flow from the LSM segments
//! to the answer as shared `Arc<Document>` pointers, and a document is
//! copied only by the first operator that writes to a row something else
//! still holds.
//!
//! (a) read-only plans return the pinned snapshot's own documents;
//! (b) plans with a row writer downstream of a scan leave the snapshot
//!     bit-identical, at 1 and 4 workers and with per-document retries —
//!     the retry original never sees a failed attempt's writes;
//! (c) the executor reproduces bench18's answers and per-node counters as
//!     recorded at the commit before rows became shared.

use aryn::prelude::*;
use aryn_index::{DocStore, GraphNode, GraphStore, StoreSnapshot};
use aryn_llm::RetryPolicy;
use luna::bench18::{Bench18, Bench18Cfg};
use luna::{Plan, PlanExecutor, PlanNode, PlanOp};
use std::sync::Arc;

const STATES: [&str; 4] = ["AK", "TX", "NY", "CA"];
const COMPANIES: [&str; 3] = ["Apex", "Lumen", "Vertex"];

/// 40 documents over two sealed segments and a memtable, so a scan merges
/// layers the way a streamed store does.
fn store() -> DocStore {
    let mut s = DocStore::new();
    for i in 0..40usize {
        let mut d = Document::from_text(format!("d{i:02}"), format!("report {i} on a windy day"));
        d.properties = obj! {
            "state" => STATES[i % STATES.len()],
            "fatal" => (i % 5) as i64,
            "company" => COMPANIES[i % COMPANIES.len()],
            "bumps" => 0i64,
        };
        s.put(d);
        if i == 14 || i == 29 {
            s.seal();
        }
    }
    s
}

/// A client whose logical call is a single attempt: one injected rate-limit
/// fault fails the operator, so the executor's per-document retry — not the
/// client's — has to absorb it.
fn one_shot_client() -> LlmClient {
    LlmClient::new(Arc::new(MockLlm::new(&GPT4_SIM, SimConfig::perfect(7)))).with_policy(
        RetryPolicy { max_transient: 1, ..RetryPolicy::default() },
    )
}

/// A context holding `store()` as "t" (and as "u", for joins), with worker
/// failures injected before attempts and LLM faults injected inside them.
fn context(threads: usize) -> Context {
    let ctx = Context::new().with_exec(ExecConfig {
        threads,
        morsel_size: 4,
        fail_rate: 0.2,
        max_retries: 10,
        ..ExecConfig::default()
    });
    ctx.put_store("t", store());
    ctx.put_store("u", store());
    // Every third call of each LLM op fails, twelve times: a dozen documents
    // lose an attempt after the ops before the LLM call have already written
    // to their row.
    let faults = (0..12).fold(ChaosSchedule::calm(), |schedule, k| {
        schedule.with_window(FaultKind::RateLimit, 2 + 3 * k, 1)
    });
    ctx.set_chaos(faults);
    ctx
}

fn node(id: usize, op: PlanOp, inputs: Vec<usize>) -> PlanNode {
    PlanNode { id, op, inputs, description: String::new() }
}

fn scan(id: usize, index: &str, prefilter: Vec<(String, Value)>) -> PlanNode {
    node(id, PlanOp::QueryDatabase { index: index.into(), prefilter }, vec![])
}

fn snapshot_row<'a>(snap: &'a StoreSnapshot, id: &str) -> &'a Arc<Document> {
    snap.scan_shared().find(|d| d.id.as_str() == id).expect("row comes from the snapshot")
}

#[test]
fn read_only_plans_return_the_snapshots_own_documents() {
    let ex = PlanExecutor::new(context(1), one_shot_client());
    let snap = ex.pin_index("t").unwrap();
    let plans = [
        (
            Plan {
                nodes: vec![
                    scan(0, "t", vec![]),
                    node(1, PlanOp::BasicFilter { path: "state".into(), value: "ak".into() }, vec![0]),
                    node(2, PlanOp::TopK { path: "fatal".into(), descending: true, k: 3 }, vec![1]),
                ],
                result: 2,
            },
            3,
        ),
        (
            Plan {
                nodes: vec![
                    scan(0, "t", vec![("state".into(), "TX".into())]),
                    node(
                        1,
                        PlanOp::RangeFilter { path: "fatal".into(), lo: Some(Value::Int(1)), hi: None },
                        vec![0],
                    ),
                ],
                result: 1,
            },
            8,
        ),
    ];
    for (plan, want) in plans {
        let result = ex.execute(&plan).unwrap();
        let rows = result.output.rows().unwrap();
        assert_eq!(rows.len(), want);
        for row in rows {
            assert!(
                Arc::ptr_eq(row, snapshot_row(&snap, row.id.as_str())),
                "{} was copied on a read-only plan",
                row.id
            );
        }
    }
}

/// Runs `plan` against a pinned snapshot of "t" and checks the writer's
/// contract: every output row carries `written` and is a copy, and neither
/// the snapshot nor the live store changed by a bit.
fn assert_writer_copies(ex: &PlanExecutor, plan: &Plan, written: &str, what: &str) {
    let snap = ex.pin_index("t").unwrap();
    let before: Vec<Document> = snap.scan().cloned().collect();
    let result = ex.execute(plan).unwrap();
    let rows = result.output.rows().unwrap();
    assert!(!rows.is_empty(), "{what}: no rows");
    for row in rows {
        assert!(row.prop(written).is_some(), "{what}: {} lacks {written}", row.id);
        let original = snapshot_row(&snap, row.id.as_str());
        assert!(!Arc::ptr_eq(row, original), "{what}: {} written in place", row.id);
        assert!(original.prop(written).is_none(), "{what}: the write leaked into the snapshot");
    }
    assert!(snap.scan().eq(before.iter()), "{what}: snapshot changed");
    let live = ex.ctx.with_store("t", |s| s.scan().eq(before.iter())).unwrap();
    assert!(live, "{what}: live store changed");
    ex.unpin_all();
}

#[test]
fn luna_row_writers_copy_on_write() {
    for threads in [1usize, 4] {
        let mut graph = GraphStore::new();
        for id in COMPANIES {
            graph.upsert_node(GraphNode { id: id.into(), label: "company".into(), properties: Value::object() });
        }
        graph.add_edge("Apex", "competitor_of", "Lumen").unwrap();
        let ex = PlanExecutor::new(context(threads), one_shot_client()).with_graph(Arc::new(graph));

        let extract = Plan {
            nodes: vec![
                scan(0, "t", vec![]),
                node(
                    1,
                    PlanOp::LlmExtract { field: "wind".into(), ftype: "string".into(), model: String::new() },
                    vec![0],
                ),
            ],
            result: 1,
        };
        let retries_before = ex.client.stats().transient_failures;
        assert_writer_copies(&ex, &extract, "wind", &format!("llmExtract @{threads}"));
        assert!(
            ex.client.stats().transient_failures > retries_before,
            "the fault window must have cost some documents an attempt"
        );

        let expand = Plan {
            nodes: vec![
                scan(0, "t", vec![]),
                node(
                    1,
                    PlanOp::GraphExpand { relation: "competitor_of".into(), output: "competitors".into() },
                    vec![0],
                ),
            ],
            result: 1,
        };
        assert_writer_copies(&ex, &expand, "competitors", &format!("graphExpand @{threads}"));

        // Join "t" with rows of "u" that carry an extra property: the merged
        // row is a copy of the left row plus the right row's new field.
        ex.ctx
            .with_store_mut("u", |u| {
                let mut d = Document::new("extra");
                d.properties = obj! { "company" => "Apex", "hq" => "Denver" };
                u.put(d);
            })
            .unwrap();
        let join = Plan {
            nodes: vec![
                scan(0, "t", vec![]),
                scan(1, "u", vec![("_id".into(), "EXTRA".into())]),
                node(2, PlanOp::Join { on: "company".into() }, vec![0, 1]),
            ],
            result: 2,
        };
        assert_writer_copies(&ex, &join, "hq", &format!("join @{threads}"));
    }
}

#[test]
fn sycamore_retry_original_never_sees_a_failed_attempts_writes() {
    for threads in [1usize, 4] {
        let ctx = context(threads);
        let snap = ctx.snapshot_store("t").unwrap();
        let before: Vec<Document> = snap.scan().cloned().collect();
        // `bump` writes before the LLM call can fail: a retry that started
        // from a row the failed attempt had written to would count twice.
        let (rows, stats) = ctx
            .read_store("t")
            .unwrap()
            .map("bump", |mut d| {
                let bumps = d.prop("bumps").and_then(Value::as_int).unwrap_or(0);
                d.set_prop("bumps", bumps + 1);
                d
            })
            .extract_properties(&one_shot_client(), obj! { "wind" => "string" })
            .collect_shared_stats()
            .unwrap();
        assert_eq!(rows.len(), before.len());
        assert_eq!(stats.total_failed_docs(), 0, "retries absorb every failure");
        assert!(
            stats.total_retries() >= 12,
            "injected faults must have forced retries: {}",
            stats.total_retries()
        );
        for row in &rows {
            assert_eq!(row.prop("bumps").and_then(Value::as_int), Some(1), "{} @{threads}", row.id);
            assert!(!Arc::ptr_eq(row, snapshot_row(&snap, row.id.as_str())));
        }
        assert!(snap.scan().eq(before.iter()), "snapshot changed @{threads}");
        assert!(ctx.with_store("t", |s| s.scan().eq(before.iter())).unwrap(), "store changed @{threads}");

        // A pipeline that never writes hands back the store's own rows.
        let kept = ctx.read_snapshot("t", Arc::clone(&snap)).limit(5).collect_shared().unwrap();
        assert_eq!(kept.len(), 5);
        for row in &kept {
            assert!(Arc::ptr_eq(row, snapshot_row(&snap, row.id.as_str())));
        }
    }
}

/// bench18's answers and each node's deterministic counters, one line each.
fn render_bench18() -> String {
    let fixture = Bench18::build(Bench18Cfg::default()).expect("fixture builds");
    let rows = fixture.run().expect("all questions execute");
    let mut out = String::new();
    for (i, (q, a, _)) in rows.iter().enumerate() {
        out.push_str(&format!("Q{:02} {}\n", i + 1, q.question));
        out.push_str(&format!("  answer: {:?}\n", a.answer()));
        for t in &a.result.traces {
            out.push_str(&format!(
                "  out_{} {} rows_in={} rows_out={} llm_calls={} input_tokens={} output_tokens={}\n",
                t.node_id, t.op_kind, t.rows_in, t.rows_out, t.llm.calls, t.llm.usage.input_tokens, t.llm.usage.output_tokens
            ));
        }
    }
    out
}

/// `golden/bench18_nodes.golden` was written by this same `render_bench18`
/// at commit 8bee5b7 (owned `Vec<Document>` rows, node interpreter). Any
/// executor that replaces this one must keep reproducing it.
#[test]
fn bench18_answers_and_node_counters_match_the_golden_file() {
    let got = render_bench18();
    let want = include_str!("golden/bench18_nodes.golden");
    for (n, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(g, w, "golden line {}", n + 1);
    }
    assert_eq!(got.lines().count(), want.lines().count());
}
