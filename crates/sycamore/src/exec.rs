//! The execution engine: lazy plans run here.
//!
//! Plans execute as morsel-driven pipelines (Leis et al.; DESIGN.md §5g):
//! maximal runs of per-document ops are fused into segments, the input is
//! split into small morsels, and each worker runs a morsel through the
//! *entire* fused segment before touching the next — so operator boundaries
//! inside a segment are never barriers. Idle workers steal morsels from the
//! cold end of their peers' deques. Only semantically-required barriers
//! remain collection-at-a-time: sort, reduce, limit, collection summarize,
//! materialize, and micro-batched segments (which pack documents across one
//! shared LLM call). Each worker owns a private [`WorkerStats`] shard —
//! merged once at finalize, never locked mid-stage — so per-worker
//! utilization gauges are exact, and retries of injected Ray-style failures
//! stay keyed by `(seed, stage, doc, attempt)`, never by scheduling.
//!
//! Rows are shared `Arc<Document>`s end to end (DESIGN.md "Data plane"):
//! sources, morsels, retries and barriers move pointers, and a document is
//! copied only by the first transform that writes to a row something else
//! still holds.

use crate::context::{Context, StealPolicy};
use crate::docset::Source;
use crate::op::Op;
use crate::stats::{write_llm_group, ExecStats, StageStats, WorkerStats};
use crate::transforms;
use aryn_core::{stable_hash, ArynError, Document, Result};
use aryn_llm::MeterScope;
use aryn_telemetry::Telemetry;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Reads this thread's busy clock in nanoseconds. On Linux this is the
/// thread CPU clock (`CLOCK_THREAD_CPUTIME_ID`), which only advances while
/// the thread actually runs — so per-worker busy times, and the critical
/// path derived from them, measure true work distribution even when the
/// host has fewer cores than workers and threads timeshare. Elsewhere it
/// falls back to a process-wide monotonic clock (busy times then include
/// preemption).
#[cfg(target_os = "linux")]
fn busy_clock_ns() -> u64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clockid: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: clock_gettime writes one Timespec; the pointer is valid and
    // the clock id is a constant the kernel supports for every thread.
    if unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) } != 0 {
        return 0;
    }
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

#[cfg(not(target_os = "linux"))]
fn busy_clock_ns() -> u64 {
    use std::sync::OnceLock;
    static START: OnceLock<Instant> = OnceLock::new();
    START.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Records one executed stage into the context's trace: row counts, worker
/// retries and the stage's LLM group as counters, times and the
/// scheduling-shaped values — morsel and steal counts, per-worker docs and
/// busy fractions — as gauges (the rule is on [`write_llm_group`]). The
/// gauges are *exact* (each worker owns its shard and the shards merge once
/// at finalize) but they legally vary with worker count and morsel size.
fn record_stage_span(tel: &Telemetry, stage: &StageStats) {
    if !tel.is_enabled() {
        return;
    }
    let mut span = tel.span(&stage.name, "stage");
    // Only serving-layer sessions carry a tag.
    if !stage.tenant.is_empty() {
        span.note(format!("tenant={}", stage.tenant));
    }
    span.set("rows_in", stage.rows_in as u64)
        .set("rows_out", stage.rows_out as u64)
        .set("retries", stage.retries as u64)
        .set("failed_docs", stage.failed_docs as u64)
        .set("cache_hit", stage.cache_hit as u64);
    write_llm_group(&mut span, &stage.llm, &stage.cache);
    for (size, count) in stage.batch_size_histogram() {
        span.set(&format!("batch_size_{size}"), count as u64);
    }
    span.gauge("wall_ms", stage.wall_ms)
        .gauge("workers", stage.workers.len() as f64)
        .gauge("morsels", stage.morsels() as f64)
        .gauge("steals", stage.steals() as f64)
        .gauge("critical_path_ms", stage.critical_path_ms);
    let fractions = stage.worker_busy_fractions();
    for (w, shard) in stage.workers.iter().enumerate() {
        span.gauge(&format!("worker_{w}_docs"), shard.docs as f64);
        span.gauge(&format!("worker_{w}_busy_ms"), shard.busy_ms);
        span.gauge(&format!("worker_{w}_busy_frac"), fractions[w]);
    }
    span.finish();
}

/// Executes a plan, returning the output documents and per-stage stats.
///
/// Materialize points act as resumable checkpoints: if a `materialize(name)`
/// op's cache is already populated (a previous run of this plan, or an
/// explicit warm-up), execution resumes from the *last* cached checkpoint
/// instead of recomputing the upstream stages — the paper's "avoid redundant
/// execution" behaviour (§5.3). A checkpoint is only reused when the
/// fingerprint of the op-prefix that would produce it matches the one
/// stamped at write time, so a changed upstream pipeline (or a different
/// source) invalidates the cache instead of silently serving stale rows.
pub fn execute(
    ctx: &Context,
    source: &Source,
    ops: &[Op],
) -> Result<(Vec<Arc<Document>>, ExecStats)> {
    let tel = ctx.telemetry();
    let mut stats = ExecStats::default();
    // Find the last cached materialize checkpoint whose recorded op-prefix
    // fingerprint matches this plan's, if any.
    let mut resume_at: Option<(usize, Vec<Arc<Document>>)> = None;
    for (idx, op) in ops.iter().enumerate() {
        if let Op::Materialize { name, .. } = op {
            let fp = plan_fingerprint(source, &ops[..=idx]);
            if let Some((stored_fp, cached)) = ctx.inner.materialized.read().get(name) {
                if *stored_fp == fp {
                    resume_at = Some((idx, cached.clone()));
                }
            }
        }
    }
    let tenant = ctx.session_tag().unwrap_or_default().to_string();
    let (mut docs, mut i) = match resume_at {
        Some((idx, cached)) => {
            let stage = StageStats {
                name: format!("{} [cache hit]", ops[idx].name()),
                tenant: tenant.clone(),
                rows_in: cached.len(),
                rows_out: cached.len(),
                cache_hit: true,
                ..StageStats::default()
            };
            record_stage_span(&tel, &stage);
            stats.stages.push(stage);
            (cached, idx + 1)
        }
        None => (resolve_source(ctx, source)?, 0),
    };
    while i < ops.len() {
        // A stage is one barrier op, or the maximal fused run of per-doc ops.
        let barrier = ops[i].is_barrier();
        let j = if barrier {
            i + 1
        } else {
            i + ops[i..].iter().take_while(|op| !op.is_barrier()).count()
        };
        let stage_ops = &ops[i..j];
        let scope = MeterScope::open(stage_ops.iter().filter_map(Op::client));
        let start = Instant::now();
        let rows_in = docs.len();
        let outcome = if barrier {
            apply_barrier(ctx, &ops[i], docs, plan_fingerprint(source, &ops[..j]))?
        } else {
            run_segment(ctx, stage_ops, docs)?
        };
        let (llm, cache) = scope.finish();
        let wall_ms = start.elapsed().as_secs_f64() * 1000.0;
        let stage = StageStats {
            name: stage_ops.iter().map(Op::name).collect::<Vec<_>>().join(" → "),
            tenant: tenant.clone(),
            rows_in,
            rows_out: outcome.docs.len(),
            wall_ms,
            // A barrier has no per-doc worker retries, but its inner LLM
            // work (e.g. summarize_all's hierarchical batches) can retry;
            // the meter delta is the real count.
            retries: if barrier { llm.retries as usize } else { outcome.retries },
            failed_docs: outcome.failed,
            llm,
            cache,
            batch_sizes: outcome.batch_sizes,
            cache_hit: false,
            // Barriers and batched segments run on the coordinating thread
            // and carry no worker shards: their critical path is their wall
            // time.
            critical_path_ms: if outcome.workers.is_empty() {
                wall_ms
            } else {
                outcome.workers.iter().map(|w| w.busy_ms).fold(0.0, f64::max)
            },
            workers: outcome.workers,
        };
        record_stage_span(&tel, &stage);
        stats.stages.push(stage);
        docs = outcome.docs;
        i = j;
    }
    Ok((docs, stats))
}

/// Fingerprint of the op-prefix that produces a materialize checkpoint:
/// a stable hash over the source identity and [`Op::fingerprint`] of every
/// op up to and including the materialize. Stamped on the checkpoint at
/// write time and checked before resume, so a changed predicate or schema,
/// an added stage, or a different source invalidates the cached rows.
/// Closure bodies (map/filter/flat_map) are invisible — only their
/// user-given names participate.
fn plan_fingerprint(source: &Source, prefix: &[Op]) -> u64 {
    let mut parts: Vec<String> = Vec::with_capacity(prefix.len() + 1);
    parts.push(match source {
        Source::Lake(name) => format!("lake:{name}"),
        Source::Store(name) => format!("store:{name}"),
        Source::Materialized(name) => format!("materialized:{name}"),
        Source::Docs(docs) => {
            let ids: Vec<&str> = docs.iter().map(|d| d.id.as_str()).collect();
            format!("docs:{}", ids.join(","))
        }
        // Sequence-stamped: two snapshots of the same store at different
        // points in the stream are different sources.
        Source::Snapshot { name, snap } => format!("snapshot:{name}@{}", snap.seq()),
    });
    parts.extend(prefix.iter().map(Op::fingerprint));
    let refs: Vec<&str> = parts.iter().map(String::as_str).collect();
    stable_hash(0x4D47_F1A5, &refs)
}

/// The source's rows. Stores, snapshots, literal rows and materializations
/// hand out pointers to the documents they hold; only a lake builds new ones.
fn resolve_source(ctx: &Context, source: &Source) -> Result<Vec<Arc<Document>>> {
    match source {
        Source::Docs(docs) => Ok(docs.iter().map(Arc::clone).collect()),
        Source::Lake(name) => {
            let lake = ctx.inner.lake.read();
            let entries = lake
                .get(name)
                .ok_or_else(|| ArynError::Index(format!("unknown lake {name:?}")))?;
            let mut docs: Vec<Arc<Document>> = entries
                .iter()
                .map(|(id, raw)| {
                    let mut d = Document::from_text(id.clone(), raw.full_text());
                    d.set_prop("lake", name.as_str());
                    Arc::new(d)
                })
                .collect();
            // Scan order must not depend on ingest interleaving: sort by doc
            // id so runs, materialize fingerprints, and the differential
            // harness are reproducible.
            docs.sort_by(|a, b| a.id.as_str().cmp(b.id.as_str()));
            Ok(docs)
        }
        Source::Store(name) => ctx.with_store(name, |s| s.scan_shared().map(Arc::clone).collect()),
        Source::Snapshot { snap, .. } => Ok(snap.scan_shared().map(Arc::clone).collect()),
        Source::Materialized(name) => ctx
            .inner
            .materialized
            .read()
            .get(name)
            .map(|(_, docs)| docs.clone())
            .ok_or_else(|| ArynError::Index(format!("unknown materialization {name:?}"))),
    }
}

/// What one stage produced.
#[derive(Default)]
struct SegmentOutcome {
    docs: Vec<Arc<Document>>,
    retries: usize,
    failed: usize,
    /// Per-worker stats shards (empty for batched segments, which have no
    /// per-worker attribution). *Which* worker got a given document is
    /// scheduling-dependent under work stealing, so the per-worker split
    /// feeds gauges only — but each worker counts its own work in a shard it
    /// exclusively owns, so the shard sums always equal the stage totals
    /// (the differential and stats-invariant tests pin this).
    workers: Vec<WorkerStats>,
    /// Documents per packed micro-batch call, in issue order. Empty unless
    /// this segment ran a batchable op with batching enabled.
    batch_sizes: Vec<usize>,
}

/// Applies a fused run of per-doc ops over all documents — morsel-parallel
/// when configured, with cross-document micro-batching when enabled.
fn run_segment(ctx: &Context, segment: &[Op], docs: Vec<Arc<Document>>) -> Result<SegmentOutcome> {
    let cfg = ctx.exec_config();
    if cfg.batch_max_items > 1 && segment.iter().any(Op::is_batchable) {
        run_segment_batched(ctx, segment, docs)
    } else if cfg.threads <= 1 || docs.len() <= 1 {
        run_segment_sequential(ctx, segment, docs)
    } else {
        run_segment_morsels(ctx, segment, docs)
    }
}

/// Runs a fused segment with cross-document micro-batching: maximal
/// non-batchable sub-runs go through the ordinary per-doc machinery (worker
/// pool, injected failures, retries), while each batchable op (`llm_filter`,
/// `extract_properties`) runs collection-at-a-time through
/// [`aryn_llm::run_batched`], which packs documents into shared prompts and
/// bisects on malformed responses. Per-item semantics — output order, values,
/// and `skip_failures` accounting — match the unbatched path exactly.
fn run_segment_batched(
    ctx: &Context,
    segment: &[Op],
    docs: Vec<Arc<Document>>,
) -> Result<SegmentOutcome> {
    let cfg = ctx.exec_config();
    let bcfg = aryn_llm::BatchConfig {
        max_items: cfg.batch_max_items,
        token_budget: cfg.batch_token_budget,
    };
    let mut acc = SegmentOutcome { docs, ..SegmentOutcome::default() };
    let mut i = 0;
    while i < segment.len() {
        if segment[i].is_batchable() {
            let (docs, failed, report) =
                transforms::apply_batched(ctx, &segment[i], std::mem::take(&mut acc.docs), bcfg)?;
            acc.docs = docs;
            acc.failed += failed;
            acc.batch_sizes.extend(report.batch_sizes);
            i += 1;
        } else {
            let mut j = i;
            while j < segment.len() && !segment[j].is_batchable() {
                j += 1;
            }
            let sub_docs = std::mem::take(&mut acc.docs);
            let sub = if cfg.threads <= 1 || sub_docs.len() <= 1 {
                run_segment_sequential(ctx, &segment[i..j], sub_docs)?
            } else {
                run_segment_morsels(ctx, &segment[i..j], sub_docs)?
            };
            acc.docs = sub.docs;
            acc.retries += sub.retries;
            acc.failed += sub.failed;
            i = j;
        }
    }
    Ok(acc)
}

/// Applies the op chain to one document (with injected worker failures and
/// retries), yielding its 0..N outputs or an error after retries exhaust.
/// `doc` is the retry original: every attempt but the last runs on a pointer
/// to it, so an attempt's writes land in a copy made at its first write and
/// a failed attempt leaves the original as it was; the last attempt has no
/// retry to protect and takes the original itself.
fn process_doc(
    ctx: &Context,
    segment: &[Op],
    stage_tag: &str,
    doc: Arc<Document>,
) -> (Result<Vec<Arc<Document>>>, usize) {
    let cfg = ctx.exec_config();
    let mut retries = 0usize;
    let id = doc.id.clone();
    let mut original = Some(doc);
    for attempt in 0..=cfg.max_retries {
        // Injected worker failure (deterministic per doc+attempt): the
        // Ray-style fault the scheduler must absorb.
        if cfg.fail_rate > 0.0 {
            let h = stable_hash(
                cfg.seed,
                &[stage_tag, id.as_str(), &attempt.to_string()],
            );
            let draw = (h >> 11) as f64 / (1u64 << 53) as f64;
            if draw < cfg.fail_rate {
                retries += 1;
                continue;
            }
        }
        let input = if attempt == cfg.max_retries {
            original.take()
        } else {
            original.clone()
        };
        let mut current: Vec<Arc<Document>> = input.into_iter().collect();
        let mut err = None;
        'seg: for op in segment {
            let mut next = Vec::with_capacity(current.len());
            for d in std::mem::take(&mut current) {
                match transforms::apply_per_doc(ctx, op, d) {
                    Ok(mut out) => next.append(&mut out),
                    Err(e) => {
                        err = Some(e);
                        break 'seg;
                    }
                }
            }
            current = next;
        }
        match err {
            None => return (Ok(current), retries),
            Some(e) => {
                if attempt == cfg.max_retries {
                    return (Err(e), retries);
                }
                retries += 1;
            }
        }
    }
    (
        Err(ArynError::Exec(format!(
            "worker failed {} times on {:?}",
            cfg.max_retries + 1,
            id
        ))),
        retries,
    )
}

fn run_segment_sequential(
    ctx: &Context,
    segment: &[Op],
    docs: Vec<Arc<Document>>,
) -> Result<SegmentOutcome> {
    let cfg = ctx.exec_config();
    let tag = segment
        .iter()
        .map(Op::name)
        .collect::<Vec<_>>()
        .join(",");
    let mut out = Vec::with_capacity(docs.len());
    let mut shard = WorkerStats::default();
    let t0 = busy_clock_ns();
    for doc in docs {
        let id = doc.id.clone();
        let (res, r) = process_doc(ctx, segment, &tag, doc);
        shard.retries += r;
        shard.docs += 1;
        match res {
            Ok(mut produced) => out.append(&mut produced),
            Err(e) => {
                if cfg.skip_failures {
                    shard.failed += 1;
                } else {
                    return Err(ArynError::Exec(format!("{id:?}: {e}")));
                }
            }
        }
    }
    shard.busy_ms = (busy_clock_ns().saturating_sub(t0)) as f64 / 1e6;
    Ok(SegmentOutcome {
        docs: out,
        retries: shard.retries,
        failed: shard.failed,
        workers: vec![shard],
        batch_sizes: Vec::new(),
    })
}

/// A morsel: a small contiguous run of input documents. `id` is the morsel's
/// position in input order (its result slot); `base` is the input index of
/// its first document (for fail-stop error reporting). Morsels are cut
/// positionally, so the reassembled output is bit-identical to the
/// sequential result regardless of morsel size, worker count, or who stole
/// what.
struct Morsel {
    id: usize,
    base: usize,
    docs: Vec<Arc<Document>>,
}

/// What one completed morsel contributes: its output documents (in input
/// order) and how many of its documents failed permanently (skip mode).
type MorselResult = (Vec<Arc<Document>>, usize);

/// The effective morsel size: the configured size, shrunk for small inputs
/// so the work splits into at least ~4 morsels per worker. Load balance
/// only — never semantics.
fn effective_morsel_size(cfg_size: usize, n: usize, workers: usize) -> usize {
    let target = n.div_ceil(workers.max(1) * 4).max(1);
    cfg_size.max(1).min(target)
}

/// Pops the next morsel for worker `w`: its own deque from the hot end,
/// then — under [`StealPolicy::Ring`] — its peers' deques from the cold end
/// in ring order. `None` means no work is left anywhere this worker may
/// look: since no morsel is ever produced mid-stage, that is a terminal
/// condition and the worker exits (no condvar, no spinning).
fn next_morsel(
    w: usize,
    deques: &[Mutex<VecDeque<Morsel>>],
    steal: StealPolicy,
) -> Option<(Morsel, bool)> {
    if let Some(m) = deques[w].lock().pop_front() {
        return Some((m, false));
    }
    if steal == StealPolicy::Disabled {
        return None;
    }
    let k = deques.len();
    for off in 1..k {
        if let Some(m) = deques[(w + off) % k].lock().pop_back() {
            return Some((m, true));
        }
    }
    None
}

/// The morsel-driven parallel path (DESIGN.md §5g). Input documents are cut
/// into positional morsels, dealt round-robin onto per-worker deques, and
/// each worker runs one morsel at a time through the whole fused segment.
/// Results land in a slot per morsel, so reassembly is in input order. All
/// statistics live in per-worker shards owned `&mut` by their worker — the
/// only shared mutable state is the deques, one result-slot write per
/// morsel, and the fail-stop flag.
fn run_segment_morsels(
    ctx: &Context,
    segment: &[Op],
    docs: Vec<Arc<Document>>,
) -> Result<SegmentOutcome> {
    let cfg = ctx.exec_config();
    let tag = segment
        .iter()
        .map(Op::name)
        .collect::<Vec<_>>()
        .join(",");
    let n = docs.len();
    let msize = effective_morsel_size(cfg.morsel_size, n, cfg.threads);
    let num_morsels = n.div_ceil(msize);
    let workers = cfg.threads.min(num_morsels).max(1);

    // Cut the input into positional morsels and deal them round-robin.
    let deques: Vec<Mutex<VecDeque<Morsel>>> =
        (0..workers).map(|_| Mutex::new(VecDeque::new())).collect();
    let mut docs = docs.into_iter();
    let mut base = 0usize;
    for id in 0..num_morsels {
        let chunk: Vec<Arc<Document>> = docs.by_ref().take(msize).collect();
        let len = chunk.len();
        deques[id % workers].lock().push_back(Morsel { id, base, docs: chunk });
        base += len;
    }

    // One result slot per morsel; one shard per worker; a fail-stop flag
    // plus the first error seen (lowest input index wins, matching the
    // sequential path as closely as scheduling allows).
    let slots: Mutex<Vec<Option<MorselResult>>> = Mutex::new((0..num_morsels).map(|_| None).collect());
    let first_error: Mutex<Option<(usize, ArynError)>> = Mutex::new(None);
    let abort = AtomicBool::new(false);
    let mut shards: Vec<WorkerStats> = (0..workers).map(|_| WorkerStats::default()).collect();

    let worker_loop = |w: usize, shard: &mut WorkerStats| {
        while !abort.load(Ordering::Relaxed) {
            let Some((morsel, stolen)) = next_morsel(w, &deques, cfg.steal) else {
                break;
            };
            shard.morsels += 1;
            if stolen {
                shard.steals += 1;
            }
            let t0 = busy_clock_ns();
            let mut out = Vec::with_capacity(morsel.docs.len());
            let mut failed = 0usize;
            let mut fatal = false;
            for (k, doc) in morsel.docs.into_iter().enumerate() {
                if abort.load(Ordering::Relaxed) {
                    fatal = true;
                    break;
                }
                let id = doc.id.clone();
                let (res, r) = process_doc(ctx, segment, &tag, doc);
                shard.retries += r;
                shard.docs += 1;
                match res {
                    Ok(mut produced) => out.append(&mut produced),
                    Err(e) => {
                        if cfg.skip_failures {
                            failed += 1;
                            shard.failed += 1;
                        } else {
                            let index = morsel.base + k;
                            let mut g = first_error.lock();
                            if g.as_ref().is_none_or(|(i, _)| index < *i) {
                                *g = Some((index, ArynError::Exec(format!("doc #{index} ({id:?}): {e}"))));
                            }
                            abort.store(true, Ordering::Relaxed);
                            fatal = true;
                            break;
                        }
                    }
                }
            }
            shard.busy_ms += (busy_clock_ns().saturating_sub(t0)) as f64 / 1e6;
            if fatal {
                break;
            }
            slots.lock()[morsel.id] = Some((out, failed));
        }
    };

    if let Some((caller_shard, spawned)) = shards.split_first_mut() {
        crossbeam::thread::scope(|scope| {
            for (i, shard) in spawned.iter_mut().enumerate() {
                let worker_loop = &worker_loop;
                scope.spawn(move |_| worker_loop(i + 1, shard));
            }
            // The coordinating thread participates as worker 0, so
            // `threads: k` spawns only k-1 OS threads and small segments do
            // not pay a full fleet of spawns.
            worker_loop(0, caller_shard);
        })
        .map_err(|_| ArynError::Exec("worker thread panicked".into()))?;
    }

    if let Some((_, e)) = first_error.into_inner() {
        return Err(e);
    }
    let mut out = Vec::with_capacity(n);
    let mut failed = 0usize;
    // Every slot is Some here: a missing slot implies an aborted morsel,
    // and every abort records a first_error, which returned above.
    for (mut produced, f) in slots.into_inner().into_iter().flatten() {
        out.append(&mut produced);
        failed += f;
    }
    let retries = shards.iter().map(|s| s.retries).sum();
    debug_assert_eq!(shards.iter().map(|s| s.docs).sum::<usize>(), n);
    Ok(SegmentOutcome {
        docs: out,
        retries,
        failed,
        workers: shards,
        batch_sizes: Vec::new(),
    })
}

/// Applies one barrier op; `failed` counts source documents dropped by inner
/// failures (summarize_all batches). `fingerprint` identifies the op-prefix
/// that produced `docs`; materialize stamps it on the checkpoint so resume
/// can detect stale caches.
fn apply_barrier(
    ctx: &Context,
    op: &Op,
    docs: Vec<Arc<Document>>,
    fingerprint: u64,
) -> Result<SegmentOutcome> {
    let mut failed = 0;
    let docs = match op {
        Op::ReduceByKey { key, aggs } => transforms::reduce_by_key(&docs, key, aggs),
        Op::SortBy { path, descending } => transforms::sort_by(&docs, path, *descending),
        Op::Limit(n) => {
            let mut d = docs;
            d.truncate(*n);
            d
        }
        Op::SummarizeAll {
            client,
            instructions,
        } => {
            let skip = ctx.exec_config().skip_failures;
            let (doc, dropped) =
                transforms::summarize_all_stats(client, instructions, &docs, skip)?;
            failed = dropped;
            vec![Arc::new(doc)]
        }
        Op::Materialize { name, dir } => {
            transforms::materialize(ctx, name, fingerprint, dir.as_deref(), &docs)?;
            docs
        }
        other => {
            return Err(ArynError::Exec(format!(
                "{} is not a barrier op",
                other.name()
            )))
        }
    };
    Ok(SegmentOutcome { docs, failed, ..SegmentOutcome::default() })
}
