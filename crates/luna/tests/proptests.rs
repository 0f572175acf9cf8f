//! Property-based tests for plans and the math evaluator.

use aryn_core::{json, obj, Document, Value};
use aryn_index::DocStore;
use luna::{eval_math, Analyzer, IndexSchema, Parsed, Plan, PlanNode, PlanOp};
use proptest::prelude::*;

/// Arbitrary single-input operator.
fn op_strategy() -> impl Strategy<Value = PlanOp> {
    prop_oneof![
        ("[a-z_]{1,8}", prop_oneof![
            any::<i64>().prop_map(Value::Int),
            "[a-z]{1,6}".prop_map(Value::from),
        ])
            .prop_map(|(path, value)| PlanOp::BasicFilter { path, value }),
        ("[a-z_]{1,8}", any::<bool>()).prop_map(|(path, descending)| PlanOp::Sort {
            path,
            descending
        }),
        ("[a-z ]{1,16}").prop_map(|predicate| PlanOp::LlmFilter {
            predicate,
            model: String::new()
        }),
        ("[a-z_]{1,8}", 1usize..20).prop_map(|(path, k)| PlanOp::TopK {
            path,
            descending: true,
            k
        }),
        ("[a-z_]{1,8}").prop_map(|field| PlanOp::LlmExtract {
            field,
            ftype: "string".into(),
            model: String::new()
        }),
        Just(PlanOp::Count),
        ("[a-z_]{1,8}", "[a-z_]{1,8}").prop_map(|(relation, output)| PlanOp::GraphExpand {
            relation,
            output
        }),
        ("[a-z ]{1,16}").prop_map(|instructions| PlanOp::SummarizeData { instructions }),
    ]
}

/// A random linear plan: scan followed by a chain of single-input ops.
fn plan_strategy() -> impl Strategy<Value = Plan> {
    prop::collection::vec(op_strategy(), 0..8).prop_map(|ops| {
        let mut nodes = vec![PlanNode {
            id: 0,
            op: PlanOp::QueryDatabase {
                index: "ntsb".into(),
                prefilter: vec![],
            },
            inputs: vec![],
            description: String::new(),
        }];
        for (i, op) in ops.into_iter().enumerate() {
            nodes.push(PlanNode {
                id: i + 1,
                op,
                inputs: vec![i],
                description: String::new(),
            });
        }
        let result = nodes.len() - 1;
        Plan { nodes, result }
    })
}

/// A random arithmetic expression with its reference value.
fn expr_strategy() -> impl Strategy<Value = (String, f64)> {
    let leaf = (1i32..200).prop_map(|n| (n.to_string(), n as f64));
    leaf.prop_recursive(4, 24, 2, |inner| {
        (inner.clone(), prop_oneof![Just('+'), Just('-'), Just('*'), Just('/')], inner).prop_map(
            |((ls, lv), op, (rs, rv))| {
                let s = format!("({ls} {op} {rs})");
                let v = match op {
                    '+' => lv + rv,
                    '-' => lv - rv,
                    '*' => lv * rv,
                    _ => lv / rv, // rv >= 1 by construction at leaves; composites stay nonzero-ish
                };
                (s, v)
            },
        )
    })
    // Guard against division blowups producing subnormal comparisons.
    .prop_filter("finite", |(_, v)| v.is_finite() && v.abs() < 1e12)
}

/// `first`, then `terms`, joined by one of `ops` each: `len` terms in all.
fn joined(
    first: BoxedStrategy<String>,
    terms: BoxedStrategy<String>,
    ops: [&'static str; 2],
    len: std::ops::Range<usize>,
) -> BoxedStrategy<String> {
    let op = prop_oneof![Just(ops[0]), Just(ops[1])];
    (first, prop::collection::vec((op, terms), len.start - 1..len.end - 1))
        .prop_map(|(first, rest)| rest.into_iter().fold(first, |acc, (op, term)| format!("{acc} {op} {term}")))
}

/// A math expression over `{out_0}`..`{out_4}` as `MathExpr` renders it: a
/// sum of products, each opening with a number or a reference, whose later
/// factors may be a parenthesized sum of two or more products; one in five
/// is junk instead.
fn math_expr_strategy() -> impl Strategy<Value = String> {
    let leaf = prop_oneof![(1u32..200).prop_map(|n| n.to_string()), (0usize..5).prop_map(|id| format!("{{out_{id}}}"))]
        .boxed();
    let first = leaf.clone();
    let product = move |factor: BoxedStrategy<String>| joined(first.clone(), factor, ["*", "/"], 1..3);
    let sum = move |factor: BoxedStrategy<String>, len| joined(product(factor.clone()), product(factor), ["+", "-"], len);
    let parenthesized = {
        let sum = sum.clone();
        move |factor| sum(factor, 2..4).prop_map(|sum| format!("({sum})"))
    };
    let expr = sum(leaf.prop_recursive(3, 24, 3, parenthesized), 1..4);
    prop_oneof![expr.clone(), expr.clone(), expr.clone(), expr, ".{0,12}"]
}

/// A `plan_strategy()` plan whose result is a math node over its outputs,
/// with the value each `{out_N}` reads.
fn math_plan_strategy() -> impl Strategy<Value = (Plan, Vec<f64>)> {
    let values = prop::collection::vec((-40i32..40).prop_map(|q| f64::from(q) / 4.0), 10..11);
    (plan_strategy(), math_expr_strategy(), values).prop_map(|(mut plan, expr, values)| {
        let id = plan.nodes.len();
        plan.nodes.push(PlanNode { id, op: PlanOp::Math { expr }, inputs: vec![id - 1], description: String::new() });
        plan.result = id;
        (plan, values)
    })
}

/// A closed schema, so most generated field references are unknown.
fn ntsb_schemas() -> Vec<IndexSchema> {
    let mut store = DocStore::new();
    let mut d = Document::new("n1");
    d.properties = obj! { "state" => "AK", "year" => 2019i64, "fatal" => 1i64 };
    store.try_put(d).unwrap();
    vec![IndexSchema::discover("ntsb", store.len(), store.schema())]
}

proptest! {
    #[test]
    fn checked_plans_agree_with_the_analyzer((plan, values) in math_plan_strategy()) {
        let schemas = ntsb_schemas();
        let analysis = luna::analyze(&plan, &schemas);
        let checked = Analyzer::new().check(&plan, &schemas[..]);
        prop_assert_eq!(checked.is_ok(), !analysis.has_errors(), "{}", analysis.render());
        let Ok(checked) = checked else { return Ok(()) };
        for (node, parsed) in checked.steps() {
            let (PlanOp::Math { expr }, Parsed::Math(ast)) = (&node.op, parsed) else { continue };
            prop_assert_eq!(&ast.to_string(), expr);
            let substituted = (0..values.len())
                .fold(expr.clone(), |e, id| e.replace(&format!("{{out_{id}}}"), &values[id].to_string()));
            let got = ast.eval(|id| Ok(values[id])).map_err(|e| e.to_string());
            let want = eval_math(&substituted).map_err(|e| e.to_string());
            prop_assert_eq!(got, want, "{} as {}", expr, substituted);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn generated_plans_validate_and_roundtrip(plan in plan_strategy()) {
        // Some generated ops are semantically odd, but structurally every
        // linear chain must validate and survive JSON.
        if plan.validate().is_ok() {
            let text = json::to_string_pretty(&plan.to_value());
            let back = Plan::parse(&text).unwrap();
            prop_assert_eq!(back, plan);
        }
    }

    #[test]
    fn describe_and_codegen_cover_every_node(plan in plan_strategy()) {
        prop_assume!(plan.validate().is_ok());
        let desc = luna::Plan::describe(&plan);
        let code = luna::codegen::to_python(&plan);
        for n in &plan.nodes {
            let tag = format!("[out_{}]", n.id);
            let var = format!("out_{}", n.id);
            let in_desc = desc.contains(&tag);
            let in_code = code.contains(&var);
            prop_assert!(in_desc, "missing {tag} in description");
            prop_assert!(in_code, "missing {var} in code");
        }
        let tail = format!("result = out_{}\n", plan.result);
        let ends = code.ends_with(&tail);
        prop_assert!(ends, "code should end with {tail:?}");
    }

    #[test]
    fn dangling_input_mutation_always_caught(plan in plan_strategy(), victim in 0usize..8) {
        prop_assume!(plan.nodes.len() > 1);
        let mut broken = plan;
        let idx = 1 + victim % (broken.nodes.len() - 1);
        broken.nodes[idx].inputs = vec![9999];
        prop_assert!(broken.validate().is_err());
    }

    #[test]
    fn duplicate_id_mutation_always_caught(plan in plan_strategy(), victim in 0usize..8) {
        prop_assume!(plan.nodes.len() > 1);
        let mut broken = plan;
        let idx = 1 + victim % (broken.nodes.len() - 1);
        broken.nodes[idx].id = 0;
        prop_assert!(broken.validate().is_err());
    }

    #[test]
    fn math_evaluator_matches_reference((expr, want) in expr_strategy()) {
        match eval_math(&expr) {
            Ok(got) => {
                let tol = want.abs().max(1.0) * 1e-9;
                prop_assert!((got - want).abs() <= tol, "{expr}: got {got}, want {want}");
            }
            Err(e) => {
                // Division by an exactly-zero subexpression is the only
                // legitimate failure.
                prop_assert!(e.to_string().contains("division by zero"), "{expr}: {e}");
            }
        }
    }

    #[test]
    fn math_evaluator_never_panics(junk in ".{0,40}") {
        let _ = eval_math(&junk);
    }

    #[test]
    fn plan_parse_never_panics(junk in ".{0,200}") {
        let _ = Plan::parse(&junk);
    }
}
