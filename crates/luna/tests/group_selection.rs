//! A keyed `aggregate` over a store selection (the column-code group fold,
//! its lineage gathered by the consumer) against the same plan over
//! materialized rows and against the stable-sort reference group-by, for
//! every aggregate function, on random multi-layer stores: puts,
//! overwrites, deletes, seals and compactions, with keys that are missing,
//! `Null`, `Int`/`Float` twins that compare equal, case variants and NaN,
//! unfiltered, filtered on a property or on `_id`. Rows, their order,
//! properties and lineage sources must match, and so must a `topK` over the
//! groups.

use aryn_core::{Document, Value};
use aryn_index::{DocStore, Predicate, StoreConfig};
use aryn_llm::{LlmClient, MockLlm, SimConfig, GPT4_SIM};
use luna::{Plan, PlanExecutor, PlanNode, PlanOp};
use proptest::prelude::*;
use std::sync::Arc;
use sycamore::{Agg, Context};

#[path = "../../sycamore/tests/support/group_reference.rs"]
mod reference;

/// Keys from a small pool, so groups collide: `2` and `2.0` (and `-0.0`
/// and `0.0`) compare equal and are stored as distinct column values,
/// `"AK"`/`"ak"` do not, and NaN equals NaN under `cmp_total`.
fn key() -> impl Strategy<Value = Option<Value>> {
    prop_oneof![
        Just(None),
        Just(Some(Value::Null)),
        (0i64..3).prop_map(|i| Some(Value::Int(i))),
        (0i64..3).prop_map(|i| Some(Value::Float(i as f64))),
        Just(Some(Value::Float(-0.0))),
        Just(Some(Value::Float(f64::NAN))),
        prop_oneof![Just("AK"), Just("ak"), Just("TX")].prop_map(|s| Some(Value::from(s))),
        Just(Some(Value::Bool(true))),
    ]
}

/// Aggregated values: numbers mostly (so `sum`/`avg` pass the analyzer),
/// with ties, NaN, a string and gaps.
fn number() -> impl Strategy<Value = Option<Value>> {
    prop_oneof![
        Just(None),
        Just(Some(Value::Null)),
        (-2i64..3).prop_map(|i| Some(Value::Int(i))),
        (-2i64..3).prop_map(|i| Some(Value::Float(i as f64 + 0.5))),
        Just(Some(Value::Float(f64::NAN))),
        Just(Some(Value::from("n/a"))),
    ]
}

#[derive(Debug, Clone)]
enum Op {
    Put(usize, Option<Value>, Option<Value>, &'static str),
    Delete(usize),
    Seal,
    Compact,
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0usize..24, key(), number(), prop_oneof![Just("a"), Just("A"), Just("b")])
            .prop_map(|(id, k, x, tag)| Op::Put(id, k, x, tag)),
        (0usize..24, key(), number(), Just("a")).prop_map(|(id, k, x, tag)| Op::Put(id, k, x, tag)),
        (0usize..24).prop_map(Op::Delete),
        Just(Op::Seal),
        Just(Op::Compact),
    ]
}

/// The store the ops leave: seals and compactions only where asked.
fn store(ops: &[Op]) -> DocStore {
    let mut s = DocStore::with_config(StoreConfig { seal_threshold: 0, compact_fanout: 0 });
    for op in ops {
        match op {
            Op::Put(id, k, x, tag) => {
                let mut d = Document::new(format!("d{id:02}"));
                // `one` is the same on every row: sorting by it keeps scan order.
                d.set_prop("one", 1i64);
                d.set_prop("tag", *tag);
                if let Some(k) = k {
                    d.set_prop("k", k.clone());
                }
                if let Some(x) = x {
                    d.set_prop("x", x.clone());
                }
                s.try_put(d).unwrap();
            }
            Op::Delete(id) => {
                s.try_delete(&format!("d{id:02}")).unwrap();
            }
            Op::Seal => s.try_seal().unwrap(),
            Op::Compact => s.try_compact().unwrap(),
        }
    }
    s
}

fn node(id: usize, op: PlanOp, inputs: Vec<usize>) -> PlanNode {
    PlanNode { id, op, inputs, description: String::new() }
}

/// `queryDatabase → [sort by "one"] → aggregate → [topK]`: with the sort
/// the aggregate reads materialized rows in scan order, without it the
/// store's selection.
fn plan(prefilter: &[(String, Value)], func: &str, materialize: bool, top: Option<usize>) -> Plan {
    let path = if func == "count" { "" } else { "x" };
    let mut nodes = vec![node(0, PlanOp::QueryDatabase { index: "s".into(), prefilter: prefilter.to_vec() }, vec![])];
    if materialize {
        nodes.push(node(1, PlanOp::Sort { path: "one".into(), descending: false }, vec![0]));
    }
    let last = nodes.len() - 1;
    nodes.push(node(
        nodes.len(),
        PlanOp::Aggregate { key: "k".into(), func: func.into(), path: path.into() },
        vec![last],
    ));
    if let Some(k) = top {
        let last = nodes.len() - 1;
        nodes.push(node(nodes.len(), PlanOp::TopK { path: "value".into(), descending: true, k }, vec![last]));
    }
    let result = nodes.len() - 1;
    Plan { nodes, result }
}

/// Group documents as text: `Debug` shows `2` and `2.0`, NaN and `-0.0`
/// apart, so equal renderings mean bit-identical values.
fn render(docs: &[Arc<Document>]) -> Vec<String> {
    docs.iter().map(|d| format!("{} {:?} {:?}", d.id.as_str(), d.properties, d.lineage)).collect()
}

/// The rendered result rows; `Err` when the analyzer gate refuses the plan.
fn rows_of(exec: &PlanExecutor, plan: &Plan) -> Result<Vec<String>, ()> {
    exec.execute(plan).map(|r| render(r.output.rows().unwrap())).map_err(|_| ())
}

proptest! {
    #[test]
    fn a_keyed_aggregate_over_a_selection_equals_rows_and_the_reference(
        ops in prop::collection::vec(op(), 1..40),
        filter in 0usize..3,
        id in 0usize..24,
        k in 1usize..4,
    ) {
        let ctx = Context::new();
        ctx.put_store("s", store(&ops));
        let snap = ctx.snapshot_store("s").unwrap();
        let client = LlmClient::new(Arc::new(MockLlm::new(&GPT4_SIM, SimConfig::perfect(1))));
        let exec = PlanExecutor::new(ctx, client);
        // No filter, a property filter, or an `_id` equality (kept apart
        // from the store's predicate and compared per row).
        let id = format!("D{id:02}");
        let prefilter: Vec<(String, Value)> = match filter {
            0 => Vec::new(),
            1 => vec![("tag".into(), Value::from("a"))],
            _ => vec![("_id".into(), Value::from(id.as_str()))],
        };
        let tag = Predicate::Eq("tag".into(), Value::from("a"));
        let kept = |d: &Document| match filter {
            0 => true,
            1 => tag.matches(d),
            _ => d.id.as_str().eq_ignore_ascii_case(&id),
        };
        let rows: Vec<Arc<Document>> = snap.scan_shared().filter(|d| kept(d)).cloned().collect();
        for (func, agg) in [
            ("count", Agg::Count),
            ("sum", Agg::Sum("x".into())),
            ("avg", Agg::Avg("x".into())),
            ("min", Agg::Min("x".into())),
            ("max", Agg::Max("x".into())),
        ] {
            let selection = rows_of(&exec, &plan(&prefilter, func, false, None));
            prop_assert_eq!(&selection, &rows_of(&exec, &plan(&prefilter, func, true, None)), "{}", func);
            let top = rows_of(&exec, &plan(&prefilter, func, false, Some(k)));
            prop_assert_eq!(&top, &rows_of(&exec, &plan(&prefilter, func, true, Some(k))), "{} top {}", func, k);
            // Refused alike (no `k` or no numeric `x` in the schema) or
            // answered as the reference answers.
            if let Ok(selection) = selection {
                let want = reference::reduce_by_key(&rows, "k", &[("value".to_string(), agg)]);
                prop_assert_eq!(selection, render(&want), "{}", func);
            }
        }
    }
}
