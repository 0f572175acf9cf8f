//! Semantic analyzer integration tests: per-code negative cases against a
//! real ingested store, the regressions the analyzer exists for (plans that
//! structural validation accepts but that reference hallucinated fields,
//! mismatch types, or aggregate non-numeric columns), the executor's refusal
//! gate, and the planner repair loop fixing an injected bad plan.

use aryn_core::Value;
use aryn_docgen::Corpus;
use aryn_llm::prompt::ParsedTask;
use aryn_llm::{EngineCtx, LlmClient, MockLlm, SimConfig, TaskEngine, TaskKind};
use luna::analyze::codes;
use luna::{ingest_lake, ntsb_schema, Luna, LunaConfig, Plan, PlanNode, PlanOp};
use std::sync::Arc;
use sycamore::Context;

fn fixture_with(cfg_engine: Option<Box<dyn TaskEngine>>) -> Luna {
    let ctx = Context::new();
    ctx.register_corpus("ntsb", &Corpus::ntsb(7, 20));
    let client = LlmClient::new(Arc::new(MockLlm::new(&aryn_llm::GPT4_SIM, SimConfig::perfect(7))));
    ingest_lake(
        &ctx,
        "ntsb",
        "ntsb",
        &client,
        ntsb_schema(),
        aryn_partitioner::Detector::DetrSim,
    )
    .unwrap();
    Luna::new(
        ctx,
        &["ntsb"],
        LunaConfig {
            sim: SimConfig::perfect(7),
            planner_engine: cfg_engine,
            ..LunaConfig::default()
        },
    )
    .unwrap()
}

fn fixture() -> Luna {
    fixture_with(None)
}

fn scan(id: usize) -> PlanNode {
    node(
        id,
        PlanOp::QueryDatabase {
            index: "ntsb".into(),
            prefilter: vec![],
        },
        vec![],
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

fn filter(id: usize, path: &str, value: Value, input: usize) -> PlanNode {
    node(
        id,
        PlanOp::BasicFilter {
            path: path.into(),
            value,
        },
        vec![input],
    )
}

// --- Structural codes (the folded-in validate() checks) ---------------------

#[test]
fn structural_codes_each_fire() {
    use luna::analyze::structural;

    let empty = Plan { nodes: vec![], result: 0 };
    assert!(structural(&empty).iter().any(|d| d.code == codes::EMPTY_PLAN));

    let mut dup = Plan { nodes: vec![scan(0), node(1, PlanOp::Count, vec![0])], result: 1 };
    dup.nodes[1].id = 0;
    assert!(structural(&dup).iter().any(|d| d.code == codes::DUPLICATE_NODE_ID));

    let arity = Plan {
        nodes: vec![scan(0), node(1, PlanOp::Count, vec![])],
        result: 1,
    };
    assert!(structural(&arity).iter().any(|d| d.code == codes::BAD_ARITY));

    let empty_param = Plan {
        nodes: vec![
            scan(0),
            node(
                1,
                PlanOp::LlmFilter { predicate: "  ".into(), model: String::new() },
                vec![0],
            ),
        ],
        result: 1,
    };
    assert!(structural(&empty_param).iter().any(|d| d.code == codes::EMPTY_PARAM));

    let unknown_input = Plan {
        nodes: vec![scan(0), node(1, PlanOp::Count, vec![9])],
        result: 1,
    };
    assert!(structural(&unknown_input).iter().any(|d| d.code == codes::UNKNOWN_INPUT));

    let cycle = Plan {
        nodes: vec![
            scan(0),
            node(1, PlanOp::Sort { path: "year".into(), descending: true }, vec![2]),
            node(2, PlanOp::Sort { path: "year".into(), descending: false }, vec![1]),
        ],
        result: 2,
    };
    assert!(structural(&cycle).iter().any(|d| d.code == codes::CYCLE));

    let missing_result = Plan { nodes: vec![scan(0)], result: 5 };
    assert!(structural(&missing_result).iter().any(|d| d.code == codes::MISSING_RESULT));

    // Each structural diagnostic is also what validate() reports: the
    // wrapper surfaces the first message verbatim.
    let err = empty.validate().unwrap_err();
    assert!(err.to_string().contains("empty plan"), "{err}");
}

// --- The regressions: validate() accepts, analyzer catches ------------------

#[test]
fn analyzer_catches_hallucinated_field_that_validate_accepts() {
    let luna = fixture();
    let plan = Plan {
        nodes: vec![
            scan(0),
            filter(1, "altitude", Value::Int(3000), 0),
            node(2, PlanOp::Count, vec![1]),
        ],
        result: 2,
    };
    plan.validate().unwrap();
    let a = luna.analyze(&plan);
    assert!(
        a.errors().iter().any(|d| d.code == codes::UNKNOWN_FIELD),
        "{}",
        a.render()
    );
    // The diagnostic points into the plan JSON and suggests a fix.
    let d = a
        .diagnostics
        .iter()
        .find(|d| d.code == codes::UNKNOWN_FIELD)
        .unwrap();
    assert_eq!(d.node_id, Some(1));
    assert!(d.path.starts_with("nodes[1]"), "{}", d.path);
}

#[test]
fn analyzer_catches_type_mismatch_that_validate_accepts() {
    let luna = fixture();
    let plan = Plan {
        nodes: vec![
            scan(0),
            filter(1, "year", Value::from("nineteen ninety-nine"), 0),
        ],
        result: 1,
    };
    plan.validate().unwrap();
    let a = luna.analyze(&plan);
    assert!(
        a.errors().iter().any(|d| d.code == codes::TYPE_MISMATCH),
        "{}",
        a.render()
    );
}

#[test]
fn analyzer_catches_non_numeric_aggregate_that_validate_accepts() {
    let luna = fixture();
    let plan = Plan {
        nodes: vec![
            scan(0),
            node(
                1,
                PlanOp::Aggregate {
                    key: String::new(),
                    func: "avg".into(),
                    path: "cause_detail".into(),
                },
                vec![0],
            ),
        ],
        result: 1,
    };
    plan.validate().unwrap();
    let a = luna.analyze(&plan);
    assert!(
        a.errors().iter().any(|d| d.code == codes::AGGREGATE_NON_NUMERIC),
        "{}",
        a.render()
    );
}

#[test]
fn unknown_index_warns_but_does_not_refuse() {
    let luna = fixture();
    let plan = Plan {
        nodes: vec![
            node(
                0,
                PlanOp::QueryDatabase { index: "nope".into(), prefilter: vec![] },
                vec![],
            ),
            node(1, PlanOp::Count, vec![0]),
        ],
        result: 1,
    };
    let a = luna.analyze(&plan);
    assert!(
        a.diagnostics.iter().any(|d| d.code == codes::UNKNOWN_INDEX),
        "{}",
        a.render()
    );
    assert!(!a.has_errors());
    // Execution still reports the runtime index error, not an analyzer
    // refusal (exec_ops relies on this).
    match luna.execute(&plan) {
        Err(aryn_core::ArynError::Index(_)) => {}
        other => panic!("expected index error, got {other:?}"),
    }
}

// --- The executor gate ------------------------------------------------------

#[test]
fn executor_refuses_plans_with_analyzer_errors() {
    let luna = fixture();
    let plan = Plan {
        nodes: vec![
            scan(0),
            filter(1, "altitude", Value::Int(3000), 0),
            node(2, PlanOp::Count, vec![1]),
        ],
        result: 2,
    };
    match luna.execute(&plan) {
        Err(aryn_core::ArynError::InvalidPlan(msg)) => {
            assert!(msg.contains("refusing to execute"), "{msg}");
            assert!(msg.contains(codes::UNKNOWN_FIELD), "{msg}");
        }
        other => panic!("expected refusal, got {other:?}"),
    }
    // Clean plans on the same fixture execute fine.
    let ok = Plan {
        nodes: vec![
            scan(0),
            filter(1, "us_state_abbrev", Value::from("AK"), 0),
            node(2, PlanOp::Count, vec![1]),
        ],
        result: 2,
    };
    luna.execute(&ok).unwrap();
}

// --- The repair loop --------------------------------------------------------

/// A planner brain that hallucinates a field on the first attempt and only
/// produces the corrected plan once the repair prompt carries the analyzer
/// diagnostics back to it — the injected-bad-plan fixture for the repair
/// loop.
struct BadThenGoodPlanner;

fn plan_json(plan: &Plan) -> String {
    aryn_core::json::to_string_pretty(&plan.to_value())
}

impl TaskEngine for BadThenGoodPlanner {
    fn kind(&self) -> TaskKind {
        TaskKind::Plan
    }

    fn run(&self, task: &ParsedTask, _ctx: &EngineCtx<'_>) -> Option<String> {
        let diagnostics = task.params.get("diagnostics").and_then(Value::as_str);
        let path = if diagnostics.is_some() { "us_state_abbrev" } else { "altitude" };
        let value = if diagnostics.is_some() { Value::from("AK") } else { Value::Int(3000) };
        // A repaired plan must actually read the diagnostics: only produce
        // the fix when the prompt names the hallucinated field.
        if let Some(d) = diagnostics {
            assert!(d.contains("altitude"), "repair prompt missing diagnostics: {d}");
        }
        let plan = Plan {
            nodes: vec![
                scan(0),
                filter(1, path, value, 0),
                node(2, PlanOp::Count, vec![1]),
            ],
            result: 2,
        };
        Some(plan_json(&plan))
    }
}

#[test]
fn repair_loop_fixes_injected_bad_plan() {
    let luna = fixture_with(Some(Box::new(BadThenGoodPlanner)));
    let plan = luna.plan("How many incidents occurred in Alaska?").unwrap();
    // The repaired plan filters the real field.
    assert!(
        plan.nodes
            .iter()
            .any(|n| matches!(&n.op, PlanOp::BasicFilter { path, .. } if path == "us_state_abbrev")),
        "{}",
        plan.describe()
    );
    assert!(luna.analyze(&plan).diagnostics.is_empty(), "repaired plan should be clean");
    // The telemetry trail shows the analyzer rejecting the first attempt:
    // one analyzer span with an unknown-field counter, then a clean one.
    let spans = luna.telemetry().snapshot().spans;
    let analyzer: Vec<_> = spans
        .iter()
        .filter(|s| s.kind == "analyzer" && s.name == "analyze:plan")
        .collect();
    assert_eq!(analyzer.len(), 2, "one verdict per attempt");
    assert!(analyzer[0].counter(codes::UNKNOWN_FIELD) >= 1);
    assert!(analyzer[0].counter("errors") >= 1);
    assert_eq!(analyzer[1].counter("errors"), 0);
    // And the repaired plan executes end to end.
    luna.execute(&plan).unwrap();
}

/// A planner brain that never repairs: the gate in `plan()` must fail the
/// question rather than hand a hallucinated plan to the executor.
struct AlwaysBadPlanner;

impl TaskEngine for AlwaysBadPlanner {
    fn kind(&self) -> TaskKind {
        TaskKind::Plan
    }

    fn run(&self, _task: &ParsedTask, _ctx: &EngineCtx<'_>) -> Option<String> {
        let plan = Plan {
            nodes: vec![
                scan(0),
                filter(1, "altitude", Value::Int(3000), 0),
            ],
            result: 1,
        };
        Some(plan_json(&plan))
    }
}

#[test]
fn unrepaired_semantic_errors_fail_the_question() {
    let luna = fixture_with(Some(Box::new(AlwaysBadPlanner)));
    match luna.plan("How many incidents occurred in Alaska?") {
        Err(aryn_core::ArynError::InvalidPlan(msg)) => {
            assert!(msg.contains("semantic analysis"), "{msg}");
            assert!(msg.contains(codes::UNKNOWN_FIELD), "{msg}");
        }
        other => panic!("expected semantic-analysis failure, got {other:?}"),
    }
    // `check` still surfaces the plan and its diagnostics for inspection.
    let (_, analysis) = luna.check("How many incidents occurred in Alaska?").unwrap();
    assert!(analysis.has_errors());
}

// --- Optimizer gate ---------------------------------------------------------

#[test]
fn optimizer_gate_rejects_a_pass_that_breaks_plans() {
    // Simulate a broken pass by feeding optimize() a plan that is already
    // semantically broken: the input check fires before any pass runs, in
    // every build profile.
    let luna = fixture();
    let plan = Plan {
        nodes: vec![
            scan(0),
            filter(1, "altitude", Value::Int(3000), 0),
        ],
        result: 1,
    };
    match luna::optimize(&plan, luna.schemas(), &luna::OptimizerCfg::default(), &luna.cost_knobs()) {
        Err(aryn_core::ArynError::InvalidPlan(msg)) => {
            assert!(msg.contains("optimizer pass"), "{msg}");
            assert!(msg.contains(codes::UNKNOWN_FIELD), "{msg}");
        }
        other => panic!("expected optimizer gate failure, got {other:?}"),
    }
}

// --- REPL `check` surface ---------------------------------------------------

#[test]
fn annotated_codegen_carries_diagnostics_for_check_view() {
    let luna = fixture();
    let plan = Plan {
        nodes: vec![
            scan(0),
            filter(1, "altitude", Value::Int(3000), 0),
            node(2, PlanOp::Count, vec![1]),
        ],
        result: 2,
    };
    let analysis = luna.analyze(&plan);
    let code = luna::codegen::to_python_annotated(&plan, &analysis);
    let lines: Vec<&str> = code.lines().collect();
    let comment = lines
        .iter()
        .position(|l| l.contains(codes::UNKNOWN_FIELD))
        .expect("diagnostic rendered");
    assert!(lines[comment + 1].starts_with("out_1 = "), "{code}");
}

// --- Math nesting -------------------------------------------------------------

#[test]
fn deeply_nested_math_is_refused_without_overflowing_the_stack() {
    let luna = fixture();
    let math = |expr: String| Plan {
        nodes: vec![scan(0), node(1, PlanOp::Count, vec![0]), node(2, PlanOp::Math { expr }, vec![1])],
        result: 2,
    };
    let unclosed = math("(".repeat(100_000));
    assert!(luna.analyze(&unclosed).errors().iter().any(|d| d.code == codes::MATH_SYNTAX));
    match luna.execute_edited(&unclosed) {
        Err(aryn_core::ArynError::InvalidPlan(msg)) => assert!(msg.contains(codes::MATH_SYNTAX), "{}", msg.get(..200).unwrap_or(&msg)),
        other => panic!("expected a math-syntax refusal, got {:?}", other.map(|r| r.answer)),
    }
    // Balanced, the same depth is an expression like any other.
    let n = 100_000;
    let balanced = math(format!("{}{{out_1}}{}", "(".repeat(n), ")".repeat(n)));
    let count = luna.execute(&math("{out_1}".into())).unwrap().answer;
    assert_eq!(luna.execute_edited(&balanced).unwrap().answer, count);
}
