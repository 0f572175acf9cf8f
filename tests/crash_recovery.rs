//! Crash-recovery invariants for the durable LSM DocStore (DESIGN.md §5k).
//!
//! The headline is the crash-point sweep: run a fixed ingest/seal/compact
//! workload against a [`ChaosFs`] once calmly to count every gated IO op,
//! then re-run it once per op index with a crash injected exactly there.
//! After each simulated crash the surviving disk image (the inner
//! [`MemFs`]) is reopened and the recovered store must be a *consistent
//! prefix* of the workload: equal to the state after the first `j`
//! operations for some `j` between the acked count and the submitted
//! count, with query answers bit-identical to the model over that prefix.
//!
//! Satellites covered here: recovery idempotency (replay twice ≡ replay
//! once), ENOSPC/short-read fault windows, durable Ingestor acks with
//! WAL/fsync charges on the virtual clock, and torn materialize
//! checkpoints being discarded rather than half-loaded.

use aryn_core::vfs::{ChaosFs, MemFs, StorageFault, StorageSchedule, Vfs};
use aryn_core::{obj, Document};
use aryn_index::{DocStore, StoreConfig, WalConfig};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;

const DIR: &str = "/chaos/store";

const TEXTS: [&str; 3] = [
    "wind gusts during the landing approach",
    "engine failure after takeoff",
    "fog near the coastal runway",
];

fn doc(i: usize) -> Document {
    let mut d = Document::from_text(format!("d{i:04}"), TEXTS[i % TEXTS.len()]);
    d.properties = obj! {
        "n" => i as i64,
        "cat" => if i.is_multiple_of(2) { "even" } else { "odd" }
    };
    d
}

/// One step of the fixed workload: a put or a delete.
#[derive(Clone)]
enum Step {
    Put(usize),
    Delete(usize),
}

/// 24 puts with two deletes interleaved; threshold 8 / fanout 2 makes the
/// run cross several seals and at least one compaction, so the sweep hits
/// crash points inside segment writes, manifest swaps, and WAL rotations.
fn workload() -> Vec<Step> {
    let mut steps = Vec::new();
    for i in 0..24 {
        steps.push(Step::Put(i));
        if i == 9 {
            steps.push(Step::Delete(3));
        }
        if i == 17 {
            steps.push(Step::Delete(12));
        }
    }
    steps
}

fn store_cfg() -> StoreConfig {
    StoreConfig {
        seal_threshold: 8,
        compact_fanout: 2,
    }
}

fn canon(d: &Document) -> Vec<u8> {
    let mut out = Vec::new();
    aryn_core::serialize::encode_document(d, &mut out).unwrap();
    out
}

/// Whether a canonical encoding is a document of category "even".
fn is_even(c: &[u8]) -> bool {
    let d = aryn_core::serialize::decode_document(c).unwrap();
    d.prop("cat").and_then(|v| v.as_str()) == Some("even")
}

/// The reference state after applying the first `j` steps.
fn model_after(steps: &[Step], j: usize) -> BTreeMap<String, Vec<u8>> {
    let mut m = BTreeMap::new();
    for step in &steps[..j] {
        match step {
            Step::Put(i) => {
                let d = doc(*i);
                m.insert(d.id.0.clone(), canon(&d));
            }
            Step::Delete(i) => {
                m.remove(&format!("d{i:04}"));
            }
        }
    }
    m
}

fn snapshot_map(store: &DocStore) -> BTreeMap<String, Vec<u8>> {
    store.scan().map(|d| (d.id.0.clone(), canon(d))).collect()
}

/// Runs the workload through `fs`, stopping at the first IO error (the
/// simulated crash). Returns how many steps were *acked* (Ok from
/// try_put/try_delete) before the run died, and whether it completed.
fn drive(fs: Arc<dyn Vfs>, steps: &[Step]) -> (usize, bool) {
    let mut store = match DocStore::open_with(DIR, fs, store_cfg(), WalConfig { fsync: true }) {
        Ok(s) => s,
        Err(_) => return (0, false),
    };
    let mut acked = 0usize;
    for step in steps {
        let ok = match step {
            Step::Put(i) => store.try_put(doc(*i)).is_ok(),
            Step::Delete(i) => store.try_delete(&format!("d{i:04}")).is_ok(),
        };
        if !ok {
            return (acked, false);
        }
        acked += 1;
    }
    (acked, true)
}

/// Reopens the post-crash image and checks the consistent-prefix
/// invariant: recovered state == model state after `j` steps for some
/// `acked <= j <= submitted`, and queries over the recovered snapshot are
/// bit-identical to the model's answers over that same prefix.
fn assert_consistent_prefix(recovered: &DocStore, steps: &[Step], acked: usize, label: &str) {
    let got = snapshot_map(recovered);
    let submitted = steps.len();
    let j = (acked..=submitted)
        .find(|&j| model_after(steps, j) == got)
        .unwrap_or_else(|| {
            panic!(
                "{label}: recovered {} docs but no prefix in [{acked}, {submitted}] matches",
                got.len()
            )
        });
    let model = model_after(steps, j);
    // Query equivalence over the recovered prefix: filter + facet answers
    // must be byte-identical to running the same queries on the model.
    let recovered_even: Vec<&String> = {
        let mut v: Vec<&String> = got
            .iter()
            .filter(|(_, c)| is_even(c))
            .map(|(id, _)| id)
            .collect();
        v.sort();
        v
    };
    let model_even: Vec<&String> = {
        let mut v: Vec<&String> = model
            .iter()
            .filter(|(_, c)| is_even(c))
            .map(|(id, _)| id)
            .collect();
        v.sort();
        v
    };
    assert_eq!(recovered_even, model_even, "{label}: filter answers diverge at prefix {j}");
    let facet = |m: &BTreeMap<String, Vec<u8>>| -> (usize, usize) {
        let even = m.values().filter(|c| is_even(c)).count();
        (even, m.len() - even)
    };
    assert_eq!(facet(&got), facet(&model), "{label}: facet counts diverge at prefix {j}");
}

/// Calm pass: counts gated IO ops and pins the full-run reference state.
fn calm_ops() -> u64 {
    let mem: Arc<MemFs> = Arc::new(MemFs::new());
    let chaos = Arc::new(ChaosFs::wrap(mem.clone(), StorageSchedule::calm()));
    let steps = workload();
    let (acked, done) = drive(chaos.clone(), &steps);
    assert!(done, "calm run must complete");
    assert_eq!(acked, steps.len());
    // The calm image reopens to exactly the full model.
    let reopened = DocStore::open(DIR, mem as Arc<dyn Vfs>).unwrap();
    assert_eq!(snapshot_map(&reopened), model_after(&steps, steps.len()));
    chaos.ops()
}

/// The headline invariant: crash at EVERY io op during ingest/seal/compact;
/// reopen must recover a consistent prefix of acked writes with
/// bit-identical query answers.
#[test]
fn crash_point_sweep_recovers_consistent_prefix() {
    let total = calm_ops();
    assert!(total > 50, "workload too small to exercise seal/compact: {total} ops");
    let steps = workload();
    for crash_at in 0..total {
        let mem: Arc<MemFs> = Arc::new(MemFs::new());
        let schedule = StorageSchedule::calm().with_seed(77).with_crash_at(crash_at);
        let chaos = Arc::new(ChaosFs::wrap(mem.clone(), schedule));
        // The crash can land inside a swallowed seal/compact on the last
        // step, in which case `drive` still reports completion — only the
        // crashed flag is authoritative.
        let (acked, _done) = drive(chaos.clone(), &steps);
        assert!(chaos.crashed(), "crash at {crash_at} never fired");
        let recovered = DocStore::open(DIR, mem as Arc<dyn Vfs>)
            .unwrap_or_else(|e| panic!("reopen after crash at {crash_at} failed: {e:?}"));
        assert_consistent_prefix(&recovered, &steps, acked, &format!("crash@{crash_at}"));
    }
}

/// With fsync on, every *acked* write survives: the recovered store is
/// never a shorter prefix than the ack count, at any crash point.
#[test]
fn acked_writes_survive_crash_with_fsync() {
    let total = calm_ops();
    let steps = workload();
    // A coarser stride keeps this secondary check fast; the full sweep
    // above already visits every op.
    for crash_at in (0..total).step_by(7) {
        let mem: Arc<MemFs> = Arc::new(MemFs::new());
        let chaos = Arc::new(ChaosFs::wrap(
            mem.clone(),
            StorageSchedule::calm().with_seed(5).with_crash_at(crash_at),
        ));
        let (acked, _) = drive(chaos.clone(), &steps);
        let recovered = DocStore::open(DIR, mem as Arc<dyn Vfs>).unwrap();
        let got = snapshot_map(&recovered);
        // Acked puts that were never later deleted must all be present.
        let must_have = model_after(&steps, acked);
        for (id, c) in &must_have {
            // A later (unacked) step can only *add* docs or delete ones we
            // model; with fsync on, nothing acked may be missing unless a
            // later submitted delete removed it.
            let later_delete = steps[acked..].iter().any(
                |s| matches!(s, Step::Delete(i) if format!("d{i:04}") == *id),
            );
            if !later_delete {
                assert_eq!(
                    got.get(id),
                    Some(c),
                    "crash@{crash_at}: acked doc {id} lost (acked={acked})"
                );
            }
        }
    }
}

/// Pinned-seed crash matrix (CI runs each seed as its own job): seeded
/// fault windows *plus* a seeded crash point, recovery must still land on
/// a consistent prefix.
fn crash_matrix(seed: u64) {
    let total = calm_ops();
    let steps = workload();
    // Seeded crash point and a short ENOSPC window before it.
    let crash_at = aryn_core::stable_hash(seed, &["crash-matrix"]) % total;
    let window_start = aryn_core::stable_hash(seed, &["window"]) % total;
    let mem: Arc<MemFs> = Arc::new(MemFs::new());
    let schedule = StorageSchedule::calm()
        .with_seed(seed)
        .with_window(StorageFault::Enospc, window_start, 2)
        .with_crash_at(crash_at);
    let chaos = Arc::new(ChaosFs::wrap(mem.clone(), schedule));
    let (acked, _) = drive(chaos.clone(), &steps);
    let recovered = DocStore::open(DIR, mem as Arc<dyn Vfs>)
        .unwrap_or_else(|e| panic!("seed {seed}: reopen failed: {e:?}"));
    // Fault windows can refuse acks before the crash, so the invariant is
    // the same consistent-prefix check — `acked` is just smaller.
    assert_consistent_prefix(&recovered, &steps, acked.min(steps.len()), &format!("seed{seed}"));
}

#[test]
fn crash_matrix_seed_1() {
    crash_matrix(1);
}

#[test]
fn crash_matrix_seed_2() {
    crash_matrix(2);
}

#[test]
fn crash_matrix_seed_3() {
    crash_matrix(3);
}

/// Replay twice ≡ replay once: reopening an un-cleanly-closed image is
/// idempotent — every reopen sees the same documents and replays the same
/// WAL prefix.
#[test]
fn recovery_is_idempotent() {
    let mem: Arc<dyn Vfs> = Arc::new(MemFs::new());
    let steps = workload();
    let (acked, done) = drive(mem.clone(), &steps);
    assert!(done);
    assert_eq!(acked, steps.len());
    let first = DocStore::open(DIR, mem.clone()).unwrap();
    let first_map = snapshot_map(&first);
    let first_replayed = first.stats().wal_replayed;
    drop(first); // no clean close: the WAL stays as-is on disk
    let second = DocStore::open(DIR, mem.clone()).unwrap();
    assert_eq!(snapshot_map(&second), first_map);
    assert_eq!(second.stats().wal_replayed, first_replayed);
    drop(second);
    let third = DocStore::open(DIR, mem).unwrap();
    assert_eq!(snapshot_map(&third), first_map);
    assert_eq!(snapshot_map(&third), model_after(&steps, steps.len()));
}

/// ENOSPC windows refuse acks without corrupting state: puts inside the
/// window error, `io_errors` counts them, puts after the window succeed,
/// and a reopen recovers exactly the acked set.
#[test]
fn enospc_window_refuses_acks_cleanly() {
    let mem: Arc<MemFs> = Arc::new(MemFs::new());
    let schedule = StorageSchedule::calm()
        .with_seed(9)
        .with_window(StorageFault::Enospc, 10, 6);
    let chaos: Arc<dyn Vfs> = Arc::new(ChaosFs::wrap(mem.clone(), schedule));
    let mut store =
        DocStore::open_with(DIR, chaos, store_cfg(), WalConfig { fsync: true }).unwrap();
    let mut acked: Vec<usize> = Vec::new();
    let mut refused = 0usize;
    for i in 0..16 {
        match store.try_put(doc(i)) {
            Ok(()) => acked.push(i),
            Err(_) => refused += 1,
        }
    }
    assert!(refused > 0, "window never fired");
    assert!(store.stats().io_errors >= refused);
    assert_eq!(store.len(), acked.len(), "refused puts must not half-apply");
    // Everything acked (and nothing refused) survives a restart.
    let recovered = DocStore::open(DIR, mem as Arc<dyn Vfs>).unwrap();
    let got = snapshot_map(&recovered);
    assert_eq!(got.len(), acked.len());
    for i in acked {
        assert!(got.contains_key(&format!("d{i:04}")), "acked d{i:04} lost");
    }
}

/// Short-read windows at reopen time either fail the open or recover a
/// consistent prefix — never a panic, never fabricated documents.
#[test]
fn short_read_on_reopen_degrades_to_prefix_or_error() {
    let steps = workload();
    for start in [0u64, 1, 2, 3, 4] {
        let mem: Arc<dyn Vfs> = Arc::new(MemFs::new());
        let (acked, done) = drive(mem.clone(), &steps);
        assert!(done);
        let schedule = StorageSchedule::calm()
            .with_seed(start)
            .with_window(StorageFault::ShortRead, start, 2);
        let chaos: Arc<dyn Vfs> = Arc::new(ChaosFs::wrap(mem.clone(), schedule));
        if let Ok(recovered) = DocStore::open(DIR, chaos) {
            let got = snapshot_map(&recovered);
            let matched = (0..=steps.len()).any(|j| model_after(&steps, j) == got);
            assert!(matched, "short-read@{start}: recovered state is not a prefix");
        }
        let _ = acked;
    }
}

/// Randomized sweep (proptest): arbitrary crash points and seeds over the
/// same workload keep the consistent-prefix invariant. The deterministic
/// sweep above visits every op; this varies the torn-tail cut seeds too.
mod prop {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn random_crash_points_recover_a_prefix(crash_at in 0u64..160, seed in 0u64..1000) {
            let steps = workload();
            let mem: Arc<MemFs> = Arc::new(MemFs::new());
            let schedule = StorageSchedule::calm().with_seed(seed).with_crash_at(crash_at);
            let chaos = Arc::new(ChaosFs::wrap(mem.clone(), schedule));
            let (acked, _) = drive(chaos.clone(), &steps);
            let recovered = DocStore::open(DIR, mem as Arc<dyn Vfs>).unwrap();
            let got = snapshot_map(&recovered);
            let matched = (acked..=steps.len()).any(|j| model_after(&steps, j) == got);
            prop_assert!(matched, "crash@{crash_at} seed {seed}: not a consistent prefix");
        }
    }
}

/// Durable ingestion end to end: the Ingestor acks only after the WAL
/// append, the virtual clock carries the WAL+fsync charge, and every acked
/// arrival survives a restart of the store directory.
#[test]
fn ingestor_durable_acks_survive_restart() {
    use sycamore::ingest::{DOC_COST_MS, FSYNC_COST_MS, WAL_COST_MS};
    use sycamore::{Context, IngestConfig, Ingestor};
    let mem: Arc<MemFs> = Arc::new(MemFs::new());
    let ctx = Context::new();
    ctx.set_vfs(mem.clone() as Arc<dyn Vfs>);
    ctx.open_store("dur", "/ingest/dur", store_cfg(), WalConfig { fsync: true })
        .unwrap();
    let cfg = IngestConfig {
        seal_threshold: 8,
        compact_fanout: 2,
        embed: false,
    };
    let mut ing = Ingestor::new(&ctx, "dur", cfg);
    let mut lags = Vec::new();
    for i in 0..20 {
        // Spaced arrivals: the pipeline is idle, so lag is pure cost.
        lags.push(ing.ingest_at(doc(i), i as f64 * 100.0).unwrap());
    }
    // First arrival's lag = doc + wal + fsync cost, nothing queued behind.
    let expected = DOC_COST_MS + WAL_COST_MS + FSYNC_COST_MS;
    assert_eq!(lags[0], expected, "durable ack must charge WAL+fsync");
    let report = ing.report();
    assert_eq!(report.docs, 20);
    assert!(ctx.with_store("dur", |s| s.stats().wal_appends).unwrap() >= 20);
    // "Restart": reopen the directory from the same disk image.
    let recovered = DocStore::open("/ingest/dur", mem as Arc<dyn Vfs>).unwrap();
    assert_eq!(recovered.len(), 20);
    for i in 0..20 {
        assert!(recovered.get(&format!("d{i:04}")).is_some(), "d{i:04} lost");
    }
}

/// In-memory streams are untouched by the durability charges: identical
/// config minus the durable store yields the original lag profile.
#[test]
fn wal_overhead_absent_for_in_memory_stores() {
    use sycamore::{Context, IngestConfig, Ingestor};
    let run = |durable: bool, fsync: bool| -> f64 {
        let mem: Arc<MemFs> = Arc::new(MemFs::new());
        let ctx = Context::new();
        ctx.set_vfs(mem as Arc<dyn Vfs>);
        if durable {
            ctx.open_store("s", "/w/s", store_cfg(), WalConfig { fsync }).unwrap();
        }
        let cfg = IngestConfig {
            seal_threshold: 8,
            compact_fanout: 2,
            embed: false,
        };
        let mut ing = Ingestor::new(&ctx, "s", cfg);
        for i in 0..12 {
            ing.ingest_at(doc(i), i as f64 * 100.0).unwrap();
        }
        ing.clock_ms()
    };
    let memory = run(false, false);
    let wal_only = run(true, false);
    let wal_fsync = run(true, true);
    assert!(wal_only > memory, "WAL charge missing: {wal_only} vs {memory}");
    assert!(wal_fsync > wal_only, "fsync charge missing: {wal_fsync} vs {wal_only}");
}

/// A torn materialize checkpoint is discarded (load errors), not
/// half-loaded; recomputing the checkpoint restores a clean load.
#[test]
fn torn_materialize_checkpoint_is_discarded() {
    use sycamore::Context;
    let mem: Arc<MemFs> = Arc::new(MemFs::new());
    let ctx = Context::new();
    ctx.set_vfs(mem.clone() as Arc<dyn Vfs>);
    let docs: Vec<Arc<Document>> = (0..6).map(doc).map(Arc::new).collect();
    let dir = Path::new("/mat");
    sycamore::transforms::materialize(&ctx, "ckpt", 42, Some(dir), &docs).unwrap();
    let path = dir.join("ckpt.docs");
    let full = sycamore::load_materialized(&*mem, &path).unwrap();
    assert_eq!(full.len(), 6);
    // Tear the checkpoint: drop the footer and half the last record.
    let bytes = mem.read(&path).unwrap();
    let torn_len = bytes.len() * 2 / 3;
    mem.write(&path, &bytes[..torn_len]).unwrap();
    let err = sycamore::load_materialized(&*mem, &path);
    assert!(err.is_err(), "torn checkpoint must not half-load");
    // Recompute: materialize again (the checkpoint is rebuilt atomically).
    sycamore::transforms::materialize(&ctx, "ckpt", 42, Some(dir), &docs).unwrap();
    let again = sycamore::load_materialized(&*mem, &path).unwrap();
    assert_eq!(again.len(), 6);
}

/// A restarted stream serves what it recovered: after 300 durable arrivals
/// and a drop, a new `Ingestor` bound to the reopened directory answers
/// keyword queries as a monolithic BM25 index over the recovered documents
/// does, and vector queries with recall@10 ≥ 0.95 against exact search.
#[test]
fn a_restarted_stream_searches_what_it_recovered() {
    use aryn_docgen::DocStream;
    use aryn_index::{recall_at_k, FlatIndex, KeywordIndex, VectorIndex};
    use sycamore::{Context, IngestConfig, Ingestor};
    let mem: Arc<MemFs> = Arc::new(MemFs::new());
    let cfg = IngestConfig { seal_threshold: 64, compact_fanout: 3, embed: true };
    let store = StoreConfig { seal_threshold: cfg.seal_threshold, compact_fanout: cfg.compact_fanout };
    let fsync = WalConfig { fsync: true };
    {
        let ctx = Context::new();
        ctx.set_vfs(mem.clone() as Arc<dyn Vfs>);
        ctx.open_store("s", "/restart/s", store, fsync).unwrap();
        let mut ing = Ingestor::new(&ctx, "s", cfg);
        let mut stream = DocStream::ntsb(31, 300, 5.0);
        while let Some((doc, at)) = stream.next_arrival() {
            ing.ingest_at(doc, at).unwrap();
        }
    }
    let ctx = Context::new();
    ctx.set_vfs(mem as Arc<dyn Vfs>);
    let stats = ctx.open_store("s", "/restart/s", store, fsync).unwrap();
    assert!(stats.segments_recovered > 0 && stats.wal_replayed > 0, "{stats:?}");
    let ing = Ingestor::new(&ctx, "s", cfg);
    let docs: Vec<Document> = ctx.with_store("s", |s| s.scan().cloned().collect()).unwrap();
    assert_eq!(docs.len(), 300);
    let embedder = ctx.embedder();
    let mut keyword = KeywordIndex::new();
    let mut flat = FlatIndex::new(embedder.dims());
    for d in &docs {
        keyword.add(d.id.0.clone(), &d.full_text());
        flat.add(d.id.as_str(), embedder.embed(&d.full_text())).unwrap();
    }
    assert_eq!((ing.keyword().len(), ing.vector().len()), (300, 300));
    let keys = |hits: Vec<aryn_index::Hit>| hits.into_iter().map(|h| h.key).collect::<Vec<_>>();
    for q in ["engine failure during the landing approach", "fog obscured the runway", "bird strike on climb"] {
        let want = keys(keyword.search(q, 10));
        assert!(!want.is_empty(), "{q}");
        assert_eq!(keys(ing.keyword().search(q, 10)), want, "{q}");
    }
    let queries: Vec<Vec<f32>> = docs.iter().step_by(15).map(|d| embedder.embed(&d.full_text())).collect();
    let recall = recall_at_k(&flat, ing.vector(), &queries, 10).unwrap();
    assert!(recall >= 0.95, "recall@10 after restart = {recall}");
}

/// A failed fsync refuses the ack cleanly: arrivals whose WAL sync fails
/// are absent from the store and both sidecars, the next append repairs
/// the WAL so later arrivals are acked and searchable, and a reopen holds
/// exactly the acked set.
#[test]
fn a_failed_fsync_refuses_the_ack_cleanly() {
    use aryn_docgen::DocStream;
    use aryn_index::VectorIndex;
    use sycamore::{Context, IngestConfig, Ingestor};
    let mem: Arc<MemFs> = Arc::new(MemFs::new());
    // Opening an empty directory takes five ops and each arrival then
    // appends and syncs: op 20 fails the eighth arrival's sync, and ops 22,
    // 24 and 26 the syncs of the WAL repairs that the next three arrivals
    // try first. No seal rotates the WAL, so the reopen replays all of it.
    let schedule = StorageSchedule::calm().with_seed(13).with_window(StorageFault::SyncError, 20, 8);
    let chaos: Arc<dyn Vfs> = Arc::new(ChaosFs::wrap(mem.clone(), schedule));
    let ctx = Context::new();
    ctx.set_vfs(chaos);
    ctx.open_store("s", "/syncerr/s", store_cfg(), WalConfig { fsync: true }).unwrap();
    let mut ing = Ingestor::new(&ctx, "s", IngestConfig { seal_threshold: 64, compact_fanout: 2, embed: true });
    let mut stream = DocStream::ntsb(5, 30, 5.0);
    // Per arrival, in order: id, text, acked.
    let mut arrivals = Vec::new();
    while let Some((doc, at)) = stream.next_arrival() {
        let text = doc.full_text();
        let ok = ing.ingest_at(doc.clone(), at).is_ok();
        arrivals.push((doc.id.0, text, ok));
    }
    let (acked, refused): (Vec<_>, Vec<_>) = arrivals.iter().partition(|a| a.2);
    assert_eq!(refused.len(), 4, "the window refuses four arrivals");
    let after = &arrivals[arrivals.iter().rposition(|a| !a.2).unwrap() + 1..];
    assert!(after.len() >= 10, "{} arrivals acked after the window", after.len());
    assert!(ctx.with_store("s", |s| s.stats().io_errors).unwrap() >= refused.len());
    assert_eq!(ctx.with_store("s", |s| s.len()).unwrap(), acked.len());
    assert_eq!((ing.keyword().len(), ing.vector().len()), (acked.len(), acked.len()));
    let embedder = ctx.embedder();
    let found = |id: &str, text: &str| {
        let in_store = ctx.with_store("s", |s| s.get(id).is_some()).unwrap();
        let by_keyword = ing.keyword().search(text, 10).iter().any(|h| h.key == id);
        let by_vector = ing.vector().search(&embedder.embed(text), 10).unwrap().iter().any(|n| n.key == id);
        (in_store, by_keyword, by_vector)
    };
    for (id, text, _) in refused {
        assert_eq!(found(id, text), (false, false, false), "refused {id} is served");
    }
    for (id, text, _) in after {
        assert_eq!(found(id, text), (true, true, true), "acked {id} is not served");
    }
    drop(ing);
    let recovered = DocStore::open("/syncerr/s", mem as Arc<dyn Vfs>).unwrap();
    let mut want: Vec<&str> = acked.iter().map(|a| a.0.as_str()).collect();
    want.sort();
    assert_eq!(recovered.scan().map(|d| d.id.as_str()).collect::<Vec<_>>(), want);
}
