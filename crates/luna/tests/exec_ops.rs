//! Operator-level tests of the plan executor: joins, aggregates, top-k,
//! graph expansion, and error paths.

use aryn_core::{obj, ArynError, Document, Value};
use aryn_index::{DocStore, GraphNode, GraphStore};
use aryn_llm::{LlmClient, MockLlm, SimConfig, GPT4_SIM};
use luna::{Analyzer, IndexSchema, NodeOutput, Plan, PlanExecutor, PlanNode, PlanOp};
use std::sync::Arc;
use sycamore::Context;

fn store(name: &str, rows: Vec<Value>) -> Context {
    let ctx = Context::new();
    let mut s = DocStore::new();
    for (i, props) in rows.into_iter().enumerate() {
        let mut d = Document::new(format!("{name}{i}"));
        d.properties = props;
        s.try_put(d).unwrap();
    }
    ctx.put_store(name, s);
    ctx
}

fn executor(ctx: Context) -> PlanExecutor {
    PlanExecutor::new(
        ctx,
        LlmClient::new(Arc::new(MockLlm::new(&GPT4_SIM, SimConfig::perfect(1)))),
    )
}

fn node(id: usize, op: PlanOp, inputs: Vec<usize>) -> PlanNode {
    PlanNode {
        id,
        op,
        inputs,
        description: String::new(),
    }
}

#[test]
fn join_merges_matching_rows() {
    let ctx = store(
        "left",
        vec![
            obj! { "company" => "Apex", "growth" => 10.0 },
            obj! { "company" => "Lumen", "growth" => -2.0 },
        ],
    );
    let mut right = DocStore::new();
    for (i, props) in [
        obj! { "company" => "Apex", "hq" => "Denver" },
        obj! { "company" => "Vertex", "hq" => "Austin" },
    ]
    .into_iter()
    .enumerate()
    {
        let mut d = Document::new(format!("r{i}"));
        d.properties = props;
        right.try_put(d).unwrap();
    }
    ctx.put_store("right", right);
    let plan = Plan {
        nodes: vec![
            node(0, PlanOp::QueryDatabase { index: "left".into(), prefilter: vec![] }, vec![]),
            node(1, PlanOp::QueryDatabase { index: "right".into(), prefilter: vec![] }, vec![]),
            node(2, PlanOp::Join { on: "company".into() }, vec![0, 1]),
        ],
        result: 2,
    };
    let result = executor(ctx).execute(&plan).unwrap();
    let rows = result.output.rows().unwrap();
    assert_eq!(rows.len(), 1, "only Apex matches");
    assert_eq!(rows[0].prop("hq").unwrap().as_str(), Some("Denver"));
    assert_eq!(rows[0].prop("growth").unwrap().as_float(), Some(10.0));
    // Join provenance recorded.
    assert!(rows[0].lineage.iter().any(|l| l.transform == "join"));
}

#[test]
fn aggregate_variants_and_unknown_func() {
    let ctx = store(
        "t",
        vec![
            obj! { "g" => "a", "x" => 1.0 },
            obj! { "g" => "a", "x" => 3.0 },
            obj! { "g" => "b", "x" => 10.0 },
            obj! { "g" => "b" }, // missing x
        ],
    );
    let ex = executor(ctx);
    for (func, want_a) in [("sum", 4.0), ("avg", 2.0), ("min", 1.0), ("max", 3.0)] {
        let plan = Plan {
            nodes: vec![
                node(0, PlanOp::QueryDatabase { index: "t".into(), prefilter: vec![] }, vec![]),
                node(
                    1,
                    PlanOp::Aggregate { key: "g".into(), func: func.into(), path: "x".into() },
                    vec![0],
                ),
                node(2, PlanOp::Sort { path: "g".into(), descending: false }, vec![1]),
            ],
            result: 2,
        };
        let rows = ex.execute(&plan).unwrap().output.rows().unwrap().to_vec();
        assert_eq!(rows.len(), 2, "{func}");
        assert_eq!(rows[0].prop("value").unwrap().as_float(), Some(want_a), "{func}");
    }
    // Unknown aggregate function fails cleanly.
    let bad = Plan {
        nodes: vec![
            node(0, PlanOp::QueryDatabase { index: "t".into(), prefilter: vec![] }, vec![]),
            node(
                1,
                PlanOp::Aggregate { key: String::new(), func: "median".into(), path: "x".into() },
                vec![0],
            ),
        ],
        result: 1,
    };
    assert!(matches!(ex.execute(&bad), Err(ArynError::InvalidPlan(_))));
}

#[test]
fn topk_and_scalar_count() {
    let ctx = store(
        "t",
        (0..7).map(|i| obj! { "x" => i as f64 }).collect(),
    );
    let ex = executor(ctx);
    let plan = Plan {
        nodes: vec![
            node(0, PlanOp::QueryDatabase { index: "t".into(), prefilter: vec![] }, vec![]),
            node(1, PlanOp::TopK { path: "x".into(), descending: true, k: 3 }, vec![0]),
            node(2, PlanOp::Count, vec![1]),
        ],
        result: 2,
    };
    let result = ex.execute(&plan).unwrap();
    assert_eq!(result.output.scalar(), Some(&Value::Int(3)));
    // The intermediate trace shows the top row was x=6.
    let topk = result.traces.iter().find(|t| t.op_kind == "topK").unwrap();
    assert_eq!(topk.rows_out, 3);
}

#[test]
fn graph_expand_without_graph_is_a_clean_error() {
    let ctx = store("t", vec![obj! { "company" => "Apex" }]);
    let ex = executor(ctx); // no graph attached
    let plan = Plan {
        nodes: vec![
            node(0, PlanOp::QueryDatabase { index: "t".into(), prefilter: vec![] }, vec![]),
            node(
                1,
                PlanOp::GraphExpand { relation: "competitor_of".into(), output: "competitors".into() },
                vec![0],
            ),
        ],
        result: 1,
    };
    match ex.execute(&plan) {
        Err(ArynError::Exec(msg)) => assert!(msg.contains("knowledge graph")),
        other => panic!("expected Exec error, got {other:?}"),
    }
}

#[test]
fn graph_expand_resolves_rows_by_name_property() {
    let ctx = store(
        "t",
        vec![obj! { "company" => "Apex" }, obj! { "company" => "Ghost" }],
    );
    let mut g = GraphStore::new();
    for id in ["Apex", "Lumen"] {
        g.upsert_node(GraphNode {
            id: id.into(),
            label: "company".into(),
            properties: Value::object(),
        });
    }
    g.add_edge("Apex", "competitor_of", "Lumen").unwrap();
    let ex = executor(ctx).with_graph(Arc::new(g));
    let plan = Plan {
        nodes: vec![
            node(0, PlanOp::QueryDatabase { index: "t".into(), prefilter: vec![] }, vec![]),
            node(
                1,
                PlanOp::GraphExpand { relation: "competitor_of".into(), output: "competitors".into() },
                vec![0],
            ),
        ],
        result: 1,
    };
    let rows = ex.execute(&plan).unwrap().output.rows().unwrap().to_vec();
    let apex = rows.iter().find(|d| d.prop("company").unwrap().as_str() == Some("Apex")).unwrap();
    assert_eq!(
        apex.prop("competitors").unwrap().as_array().unwrap(),
        &[Value::from("Lumen")]
    );
    // Unknown entity expands to an empty list, not an error.
    let ghost = rows.iter().find(|d| d.prop("company").unwrap().as_str() == Some("Ghost")).unwrap();
    assert!(ghost.prop("competitors").unwrap().as_array().unwrap().is_empty());
}

#[test]
fn math_over_rows_uses_row_counts_and_scans_error_on_missing_store() {
    let ctx = store("t", (0..4).map(|_| Value::object()).collect());
    let ex = executor(ctx);
    let plan = Plan {
        nodes: vec![
            node(0, PlanOp::QueryDatabase { index: "t".into(), prefilter: vec![] }, vec![]),
            node(1, PlanOp::Math { expr: "10 * {out_0}".into() }, vec![0]),
        ],
        result: 1,
    };
    let result = ex.execute(&plan).unwrap();
    assert_eq!(result.output.scalar().and_then(Value::as_float), Some(40.0));
    // Unknown index errors cleanly.
    let missing = Plan {
        nodes: vec![node(
            0,
            PlanOp::QueryDatabase { index: "nope".into(), prefilter: vec![] },
            vec![],
        )],
        result: 0,
    };
    assert!(matches!(ex.execute(&missing), Err(ArynError::Index(_))));
}

#[test]
fn prefilter_and_id_pseudofield() {
    let ctx = store(
        "t",
        vec![obj! { "state" => "AK" }, obj! { "state" => "TX" }],
    );
    let ex = executor(ctx);
    let plan = Plan {
        nodes: vec![node(
            0,
            PlanOp::QueryDatabase {
                index: "t".into(),
                prefilter: vec![("state".into(), Value::from("ak"))],
            },
            vec![],
        )],
        result: 0,
    };
    assert_eq!(ex.execute(&plan).unwrap().output.len(), 1, "loose-eq prefilter");
    let by_id = Plan {
        nodes: vec![
            node(0, PlanOp::QueryDatabase { index: "t".into(), prefilter: vec![] }, vec![]),
            node(
                1,
                PlanOp::BasicFilter { path: "_id".into(), value: Value::from("t1") },
                vec![0],
            ),
        ],
        result: 1,
    };
    let rows = ex.execute(&by_id).unwrap();
    assert_eq!(rows.output.len(), 1);
    assert_eq!(rows.output.rows().unwrap()[0].id.as_str(), "t1");
    let _ = NodeOutput::Scalar(Value::Null); // type is public API
}

#[test]
fn a_math_node_runs_after_the_nodes_it_references_wherever_it_is_listed() {
    let rows = ["AK", "TX", "AK", "CA", "WA"].iter().map(|s| obj! { "state" => *s }).collect();
    let ex = executor(store("t", rows));
    let math = node(1, PlanOp::Math { expr: "100 * {out_2} / {out_3}".into() }, vec![0]);
    let mut plan = Plan {
        nodes: vec![
            node(0, PlanOp::QueryDatabase { index: "t".into(), prefilter: vec![] }, vec![]),
            math,
            node(2, PlanOp::BasicFilter { path: "state".into(), value: Value::from("AK") }, vec![0]),
            node(3, PlanOp::Count, vec![0]),
        ],
        result: 1,
    };
    // The references are not listed as inputs: a warning, not an error.
    let analysis = luna::analyze(&plan, &[]);
    assert!(!analysis.has_errors(), "{}", analysis.render());
    assert_eq!(analysis.diagnostics.iter().filter(|d| d.code == "math-ref-not-input").count(), 2);
    let listed_second = ex.execute(&plan).unwrap();
    assert_eq!(listed_second.output.scalar().and_then(Value::as_float), Some(40.0));
    let math = plan.nodes.remove(1);
    plan.nodes.push(math);
    assert_eq!(ex.execute(&plan).unwrap().output, listed_second.output);
}

#[test]
fn a_run_checks_again_when_a_write_changed_the_schema_it_was_checked_by() {
    let ctx = store("t", vec![obj! { "state" => "AK" }, obj! { "state" => "TX" }]);
    let ex = executor(ctx.clone());
    let plan = Plan {
        nodes: vec![
            node(0, PlanOp::QueryDatabase { index: "t".into(), prefilter: vec![] }, vec![]),
            node(1, PlanOp::BasicFilter { path: "state".into(), value: Value::from("AK") }, vec![0]),
            node(2, PlanOp::Count, vec![1]),
        ],
        result: 2,
    };
    let schemas = ctx.with_store("t", |s| vec![IndexSchema::discover("t", s.len(), s.schema())]).unwrap();
    let checked = Analyzer::new().check(&plan, schemas).unwrap();
    assert_eq!(ex.run(&checked).unwrap().output.scalar(), Some(&Value::Int(1)));
    // Overwrites drop the field the plan filters on: the pinned store no
    // longer has the schema the plan was checked by.
    ctx.with_store_mut("t", |s| {
        for i in 0..2 {
            let mut d = Document::new(format!("t{i}"));
            d.properties = obj! { "city" => "Juneau" };
            s.try_put(d).unwrap();
        }
    })
    .unwrap();
    match ex.run(&checked) {
        Err(ArynError::InvalidPlan(msg)) => {
            assert!(msg.contains("refusing to execute"), "{msg}");
            assert!(msg.contains("unknown-field"), "{msg}");
        }
        other => panic!("expected the run to check again and refuse, got {other:?}"),
    }
}
