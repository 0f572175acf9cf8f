//! Column reads against the row oracle. A store's reads — `filter_shared`,
//! `facet` and the value projection — judge rows from dictionary-encoded
//! columns; this checks them against the interpreted `Predicate::matches`
//! and plain per-document `get_path` over a flat model of the same writes.
//!
//! Stores are layered: a memtable over several segments, with overwrites,
//! deletes (tombstones), seals and compactions, read in between so columns
//! and visible-entry plans are built at every stage. Every store and
//! snapshot is read twice: the second read must come from what the first
//! built (no column, no plan built) and answer the same. Values are nested,
//! in arrays, missing, `Null`, `Int`/`Float` twins, NaN and case variants;
//! predicates are every kind, composed. Snapshots are pinned along the way,
//! one of them across a compaction, and must keep answering for the writes
//! they saw; others are read, dropped, and the memtable they shared written
//! in place under the plan it kept. A read judges every visible row once
//! (`ScanStats::rows`), and a scan keeps id order.
//!
//! Case counts follow `PROPTEST_CASES` (256 by default).

use aryn_core::{Document, Value};
use aryn_index::{DocStore, Predicate, ScanStats, StoreConfig, StoreSnapshot};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::collections::BTreeMap;

type Model = BTreeMap<String, Document>;

const PATHS: [&str; 7] = ["s", "n", "o.x", "arr.0", "arr.1", "arr", "missing"];

fn scalar() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        Just(Value::Bool(true)),
        (-2i64..3).prop_map(Value::Int),
        (-2i64..3).prop_map(|i| Value::Float(i as f64)),
        Just(Value::Float(0.5)),
        Just(Value::Float(-0.0)),
        Just(Value::Float(f64::NAN)),
        prop_oneof![
            Just("AK"),
            Just("ak"),
            Just("Ak"),
            Just("TX"),
            Just("wind"),
            Just("Wind Shear"),
            Just("wind shear aloft"),
            Just("2"),
            Just(""),
        ]
        .prop_map(Value::from),
    ]
}

/// A property tree: each of `s`, `n`, `o` (an object, or not) and `arr` is
/// present or missing.
fn props() -> impl Strategy<Value = Value> {
    let opt = || prop::option::of(scalar());
    (
        opt(),
        opt(),
        prop::option::of((opt(), any::<bool>())),
        prop::option::of((scalar(), opt())),
    )
        .prop_map(|(s, n, o, arr)| {
            let mut m = BTreeMap::new();
            if let Some(s) = s {
                m.insert("s".to_string(), s);
            }
            if let Some(n) = n {
                m.insert("n".to_string(), n);
            }
            if let Some((x, as_object)) = o {
                let x = x.unwrap_or(Value::Null);
                let o = if as_object {
                    Value::Object(BTreeMap::from([("x".to_string(), x)]))
                } else {
                    x
                };
                m.insert("o".to_string(), o);
            }
            if let Some((first, second)) = arr {
                m.insert(
                    "arr".to_string(),
                    Value::Array(std::iter::once(first).chain(second).collect()),
                );
            }
            Value::Object(m)
        })
}

fn path() -> impl Strategy<Value = String> {
    (0usize..PATHS.len()).prop_map(|i| PATHS[i].to_string())
}

fn leaf() -> impl Strategy<Value = Predicate> {
    let term = prop_oneof![
        Just("wind"),
        Just("shear"),
        Just("wind shear"),
        Just("AK"),
        Just("")
    ];
    prop_oneof![
        (path(), scalar()).prop_map(|(p, v)| Predicate::Eq(p, v)),
        (path(), scalar()).prop_map(|(p, v)| Predicate::Ne(p, v)),
        (
            path(),
            prop::option::of(scalar()),
            prop::option::of(scalar())
        )
            .prop_map(|(path, lo, hi)| Predicate::Range { path, lo, hi }),
        (path(), prop::collection::vec(scalar(), 0..3)).prop_map(|(p, vs)| Predicate::In(p, vs)),
        path().prop_map(Predicate::Exists),
        (path(), term).prop_map(|(p, t)| Predicate::Contains(p, t.to_string())),
    ]
}

fn predicate() -> impl Strategy<Value = Predicate> {
    leaf().prop_recursive(2, 8, 3, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..3).prop_map(Predicate::And),
            prop::collection::vec(inner.clone(), 0..3).prop_map(Predicate::Or),
            inner.prop_map(|p| Predicate::Not(Box::new(p))),
        ]
    })
}

#[derive(Debug, Clone)]
enum Op {
    Put(usize, Value),
    Delete(usize),
    Seal,
    Compact,
    /// Check the live store now (builds columns at this stage).
    Read,
    /// Pin a snapshot, checked against the model as of now at the end.
    Pin,
    /// Read a snapshot and drop it, then put: the memtable it shared is
    /// written in place.
    ReadDropPut(usize, Value),
}

fn op() -> impl Strategy<Value = Op> {
    let put = || (0usize..12, props()).prop_map(|(i, p)| Op::Put(i, p));
    prop_oneof![
        put(),
        put(),
        put(),
        put(),
        (0usize..12).prop_map(Op::Delete),
        Just(Op::Seal),
        Just(Op::Compact),
        Just(Op::Read),
        Just(Op::Pin),
        (0usize..12, props()).prop_map(|(i, p)| Op::ReadDropPut(i, p)),
    ]
}

fn config() -> impl Strategy<Value = StoreConfig> {
    ((0usize..4), (0usize..3)).prop_map(|(s, c)| StoreConfig {
        seal_threshold: [0, 2, 3, 5][s],
        compact_fanout: [0, 2, 3][c],
    })
}

fn doc(i: usize, props: Value) -> Document {
    let mut d = Document::new(format!("d{i:02}"));
    d.properties = props;
    d
}

/// The facet the row path computes: group by `loose_eq`, first value seen
/// names the group, most frequent first.
fn facet_oracle(model: &Model, path: &str) -> Vec<(Value, usize)> {
    let mut counts: Vec<(Value, usize)> = Vec::new();
    for d in model.values() {
        let Some(v) = d.prop(path).filter(|v| !v.is_null()) else {
            continue;
        };
        match counts.iter_mut().find(|(k, _)| k.loose_eq(v)) {
            Some((_, c)) => *c += 1,
            None => counts.push((v.clone(), 1)),
        }
    }
    counts.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp_total(&b.0)));
    counts
}

/// `Debug` tells `2` from `2.0`, `-0.0` from `0.0` and shows NaN, so equal
/// renderings are identical values.
fn show<T: std::fmt::Debug>(v: &T) -> String {
    format!("{v:?}")
}

fn ids<'a>(docs: impl Iterator<Item = &'a Document>) -> Vec<String> {
    docs.map(|d| d.id.0.clone()).collect()
}

/// A read after the first over the same stack builds nothing.
fn check_reused(
    stats: ScanStats,
    pass: usize,
    what: &str,
) -> std::result::Result<(), TestCaseError> {
    if pass > 0 {
        prop_assert_eq!(
            (stats.columns_built, stats.plans_built),
            (0, 0),
            "{} read again",
            what
        );
    }
    Ok(())
}

fn check_store(
    store: &DocStore,
    model: &Model,
    preds: &[Predicate],
) -> std::result::Result<(), TestCaseError> {
    for pass in 0..2 {
        prop_assert_eq!(
            ids(store.scan_shared().map(|d| d.as_ref())),
            model.keys().cloned().collect::<Vec<_>>()
        );
        for p in preds {
            let want = ids(model.values().filter(|d| p.matches(d)));
            let mut matches = store.filter_shared(&p.compile());
            prop_assert_eq!(ids(matches.by_ref().map(|d| d.as_ref())), want, "{:?}", p);
            prop_assert_eq!(matches.stats().rows, model.len(), "rows judged under {:?}", p);
            check_reused(matches.stats(), pass, "filter")?;
        }
        for path in PATHS {
            prop_assert_eq!(
                show(&store.facet(path)),
                show(&facet_oracle(model, path)),
                "facet {}",
                path
            );
        }
    }
    Ok(())
}

fn check_snapshot(
    snap: &StoreSnapshot,
    model: &Model,
    preds: &[Predicate],
) -> std::result::Result<(), TestCaseError> {
    prop_assert_eq!(snap.len(), model.len());
    for pass in 0..2 {
        prop_assert_eq!(
            ids(snap.scan_shared().map(|d| d.as_ref())),
            model.keys().cloned().collect::<Vec<_>>()
        );
        for p in preds {
            let compiled = p.compile();
            let want = ids(model.values().filter(|d| p.matches(d)));
            let mut matches = snap.filter_shared(&compiled);
            prop_assert_eq!(ids(matches.by_ref().map(|d| d.as_ref())), want.clone(), "{:?}", p);
            prop_assert_eq!(matches.stats().rows, model.len(), "rows judged under {:?}", p);
            check_reused(matches.stats(), pass, "filter")?;
            // Two rows read, the rest counted from the verdicts.
            let mut matches = snap.filter_shared(&compiled);
            let read = matches.by_ref().take(2).count();
            prop_assert_eq!(read + matches.count_rest(), want.len(), "count under {:?}", p);
            prop_assert_eq!(matches.stats().rows, model.len(), "rows counted under {:?}", p);
            let mut got = Vec::new();
            let stats = snap.project(&compiled, &PATHS, |d, vals| {
                got.push(format!("{} {:?}", d.id.as_str(), vals))
            });
            let want: Vec<String> = model
                .values()
                .filter(|d| p.matches(d))
                .map(|d| format!("{} {:?}", d.id.as_str(), PATHS.map(|path| d.prop(path))))
                .collect();
            prop_assert_eq!(got, want, "projection under {:?}", p);
            prop_assert_eq!(stats.rows, model.len(), "rows projected under {:?}", p);
            check_reused(stats, pass, "projection")?;
        }
        for path in PATHS {
            prop_assert_eq!(
                show(&snap.facet(path)),
                show(&facet_oracle(model, path)),
                "facet {}",
                path
            );
        }
    }
    Ok(())
}

proptest! {
    #[test]
    fn column_reads_equal_the_row_oracle(
        config in config(),
        ops in prop::collection::vec(op(), 0..48),
        preds in prop::collection::vec(predicate(), 1..5),
        last in props(),
    ) {
        let mut store = DocStore::with_config(config);
        let mut model = Model::new();
        let mut pins: Vec<(StoreSnapshot, Model)> = Vec::new();
        for op in ops {
            match op {
                Op::Put(i, p) => {
                    let d = doc(i, p);
                    model.insert(d.id.0.clone(), d.clone());
                    store.try_put(d).expect("in-memory put");
                }
                Op::Delete(i) => {
                    let id = format!("d{i:02}");
                    prop_assert_eq!(store.try_delete(&id).expect("in-memory delete"), model.remove(&id).is_some());
                }
                Op::Seal => store.try_seal().expect("in-memory seal"),
                Op::Compact => store.try_compact().expect("in-memory compaction"),
                Op::Read => check_store(&store, &model, &preds)?,
                Op::Pin => pins.push((store.snapshot(), model.clone())),
                Op::ReadDropPut(i, p) => {
                    check_snapshot(&store.snapshot(), &model, &preds)?;
                    let d = doc(i, p);
                    model.insert(d.id.0.clone(), d.clone());
                    store.try_put(d).expect("in-memory put");
                    check_store(&store, &model, &preds)?;
                }
            }
        }
        check_store(&store, &model, &preds)?;
        // A snapshot read (columns built) and pinned, then a compaction and
        // an overwrite underneath it.
        let pinned = store.snapshot();
        check_snapshot(&pinned, &model, &preds)?;
        let before = model.clone();
        store.try_seal().expect("in-memory seal");
        store.try_compact().expect("in-memory compaction");
        let d = doc(0, last);
        model.insert(d.id.0.clone(), d.clone());
        store.try_put(d).expect("in-memory put");
        check_store(&store, &model, &preds)?;
        check_snapshot(&store.snapshot(), &model, &preds)?;
        pins.push((pinned, before));
        for (snap, seen) in &pins {
            check_snapshot(snap, seen, &preds)?;
        }
    }
}
