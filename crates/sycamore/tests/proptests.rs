//! Property-based tests for the DocSet engine's analytic invariants.

use aryn_core::{Document, Value};
use proptest::prelude::*;
use sycamore::{Agg, Context};

fn docs_strategy() -> impl Strategy<Value = Vec<Document>> {
    prop::collection::vec(
        (
            prop_oneof![Just(None), Just(Some("AK")), Just(Some("TX")), Just(Some("WA"))],
            prop::option::of(-100.0f64..100.0),
        ),
        0..40,
    )
    .prop_map(|rows| {
        rows.into_iter()
            .enumerate()
            .map(|(i, (state, x))| {
                let mut d = Document::new(format!("d{i}"));
                if let Some(s) = state {
                    d.set_prop("state", s);
                }
                if let Some(x) = x {
                    d.set_prop("x", x);
                }
                d
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn reduce_group_counts_sum_to_input(docs in docs_strategy()) {
        let n = docs.len();
        let ctx = Context::new();
        let groups = ctx
            .read_docs(docs)
            .reduce_by_key("state", vec![("n".into(), Agg::Count)])
            .collect()
            .unwrap();
        let total: i64 = groups
            .iter()
            .map(|g| g.prop("n").and_then(Value::as_int).unwrap_or(0))
            .sum();
        prop_assert_eq!(total, n as i64);
        // Group keys are distinct.
        let mut keys: Vec<String> = groups
            .iter()
            .map(|g| g.prop("state").map(|v| v.display_text()).unwrap_or_default())
            .collect();
        let before = keys.len();
        keys.sort();
        keys.dedup();
        prop_assert_eq!(keys.len(), before);
    }

    #[test]
    fn reduce_sum_matches_reference(docs in docs_strategy()) {
        let reference: f64 = docs
            .iter()
            .filter_map(|d| d.prop("x").and_then(Value::as_float))
            .sum();
        let ctx = Context::new();
        let groups = ctx
            .read_docs(docs)
            .reduce_by_key("__all__", vec![("total".into(), Agg::Sum("x".into()))])
            .collect()
            .unwrap();
        let got = groups
            .first()
            .and_then(|g| g.prop("total"))
            .and_then(Value::as_float)
            .unwrap_or(0.0);
        prop_assert!((got - reference).abs() < 1e-6);
    }

    #[test]
    fn sort_is_ordered_permutation(docs in docs_strategy(), desc in any::<bool>()) {
        let ctx = Context::new();
        let input_ids: Vec<String> = docs.iter().map(|d| d.id.0.clone()).collect();
        let out = ctx.read_docs(docs).sort_by("x", desc).collect().unwrap();
        // Permutation: same multiset of ids.
        let mut out_ids: Vec<String> = out.iter().map(|d| d.id.0.clone()).collect();
        let mut want = input_ids;
        out_ids.sort();
        want.sort();
        prop_assert_eq!(out_ids, want);
        // Ordered under cmp_total.
        for w in out.windows(2) {
            let a = w[0].prop("x").cloned().unwrap_or(Value::Null);
            let b = w[1].prop("x").cloned().unwrap_or(Value::Null);
            let ord = a.cmp_total(&b);
            if desc {
                prop_assert_ne!(ord, std::cmp::Ordering::Less);
            } else {
                prop_assert_ne!(ord, std::cmp::Ordering::Greater);
            }
        }
    }

    #[test]
    fn limit_is_prefix(docs in docs_strategy(), k in 0usize..50) {
        let ctx = Context::new();
        let all = ctx.read_docs(docs.clone()).collect().unwrap();
        let cut = ctx.read_docs(docs).limit(k).collect().unwrap();
        prop_assert_eq!(cut.len(), k.min(all.len()));
        for (a, b) in cut.iter().zip(&all) {
            prop_assert_eq!(&a.id, &b.id);
        }
    }

    #[test]
    fn filter_then_count_matches_retain(docs in docs_strategy()) {
        let ctx = Context::new();
        let reference = docs
            .iter()
            .filter(|d| d.prop("x").and_then(Value::as_float).unwrap_or(-1.0) > 0.0)
            .count();
        let got = ctx
            .read_docs(docs)
            .filter("positive", |d| {
                d.prop("x").and_then(Value::as_float).unwrap_or(-1.0) > 0.0
            })
            .count()
            .unwrap();
        prop_assert_eq!(got, reference);
    }

    #[test]
    fn document_serialization_roundtrips(docs in docs_strategy()) {
        for d in &docs {
            let mut bytes = Vec::new();
            aryn_core::serialize::encode_document(d, &mut bytes).unwrap();
            let back = aryn_core::serialize::decode_document(&bytes).unwrap();
            prop_assert_eq!(&back, d);
        }
    }

    #[test]
    fn parallel_equals_sequential_for_pure_transforms(
        docs in docs_strategy(),
        threads in 2usize..6,
    ) {
        let seq_ctx = Context::new();
        let par_ctx = Context::new().with_exec(sycamore::ExecConfig {
            threads,
            ..sycamore::ExecConfig::default()
        });
        let run = |ctx: &Context| {
            ctx.read_docs(docs.clone())
                .map("stamp", |mut d| {
                    d.set_prop("stamped", true);
                    d
                })
                .filter("has_x", |d| d.prop("x").is_some())
                .collect()
                .unwrap()
        };
        prop_assert_eq!(run(&seq_ctx), run(&par_ctx));
    }
}
