//! The measurement loop: closed loop, one client, one measured thread,
//! rounds of a fixed op list, a yardstick sample next to every op.

use crate::metrics::{self, END_TO_END, PER_LAYER, SHARE_LAYERS};
use crate::stats::{median, percentile};
use crate::suite::Suite;
use crate::trace;
use crate::workloads::{self, LlmUsage, Size, Verdict, Workload};
use crate::wrappers::io_err;
use crate::yardstick::{correct, yardstick, YARD_REF_MS};
use aryn::aryn_core::{ArynError, Result};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// Set-ups per run: at least `MIN_SETUPS`, then more while they are cheap
/// (a 20 ms set-up needs more repeats than a 500 ms one for a steady
/// median). `setup_s` is the median.
const MIN_SETUPS: usize = 5;
const MAX_SETUPS: usize = 15;
const SETUP_BUDGET_S: f64 = 1.5;
/// Failure explanations kept for the report.
const MAX_ERRORS: usize = 10;

pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Fixed-work mode: exactly this many rounds (the first is warm-up)
    /// instead of running until `seconds` is used up.
    pub rounds: Option<usize>,
    pub out: PathBuf,
}

/// Times the phases of one set-up, with a yardstick sample before the
/// first phase and after each, so the total can be speed-corrected.
pub struct SetupClock {
    raw_ms: f64,
    yards: Vec<f64>,
}

impl SetupClock {
    pub fn new() -> SetupClock {
        SetupClock { raw_ms: 0.0, yards: vec![yardstick()] }
    }

    /// Runs one set-up phase under the clock.
    pub fn phase<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let started = Instant::now();
        let out = f();
        self.raw_ms += started.elapsed().as_secs_f64() * 1e3;
        self.yards.push(yardstick());
        out
    }

    /// Speed-corrected set-up time in seconds.
    pub fn corrected_s(&self) -> f64 {
        correct(self.raw_ms, 0.0, &self.yards) / 1e3
    }
}

/// One timed region: an op or a round's epilogue.
#[derive(Clone, Copy, Default)]
struct Timed {
    raw_ms: f64,
    /// Part of `raw_ms` the workload spent blocked on the disk.
    io_ms: f64,
    /// Index (into the loop's yardstick series) of the sample taken right
    /// after the region; the one before it is the sample taken right before.
    yard_after: usize,
}

/// What one round recorded.
#[derive(Default)]
struct Round {
    ops: Vec<Timed>,
    epilogue: Option<Timed>,
    allocs: u64,
    alloc_bytes: u64,
    llm: LlmUsage,
    /// Spans the repo's own telemetry recorded during the round.
    telemetry_spans: usize,
}

/// A round's speed-corrected (or raw) timings.
struct RoundMs {
    op_ms: Vec<f64>,
    total_ms: f64,
}

/// Everything a run learned.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)` in table order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    pub notes: Vec<String>,
}

struct Loop {
    workload: Box<dyn Workload>,
    yards: Vec<f64>,
    attempted: u64,
    failed: u64,
    matched: u64,
    checked: u64,
    /// Round 1's fingerprint per op (`ops_per_round` = the epilogue's).
    reference: BTreeMap<usize, u64>,
    reproducible: bool,
    errors: Vec<String>,
}

impl Loop {
    fn new(workload: Box<dyn Workload>) -> Loop {
        Loop {
            workload,
            yards: Vec::new(),
            attempted: 0,
            failed: 0,
            matched: 0,
            checked: 0,
            reference: BTreeMap::new(),
            reproducible: true,
            errors: Vec::new(),
        }
    }

    /// Takes a yardstick sample and returns its index in the series.
    fn sample_yardstick(&mut self) -> usize {
        let ms = yardstick();
        trace::note_yardstick(ms);
        self.yards.push(ms);
        self.yards.len() - 1
    }

    fn judge(&mut self, slot: usize, v: Verdict) {
        self.matched += v.matched;
        self.checked += v.checked;
        if let Some(why) = v.why.filter(|_| self.errors.len() < MAX_ERRORS) {
            self.errors.push(format!("op {slot}: {why}"));
        }
        match self.reference.get(&slot) {
            Some(first) if *first != v.fingerprint => {
                if self.reproducible {
                    self.errors.push(format!("op {slot}: output differs from the first round's"));
                }
                self.reproducible = false;
            }
            Some(_) => {}
            None => {
                self.reference.insert(slot, v.fingerprint);
            }
        }
    }

    /// Times `f` under a root span (inert unless a traced round is
    /// recording), then takes the yardstick sample that follows it.
    fn timed<T>(&mut self, root: &'static str, f: impl FnOnce(&mut dyn Workload) -> T) -> (T, Timed) {
        let io0 = self.workload.io_ms();
        let started = Instant::now();
        let out = {
            let _root = trace::span(root);
            f(self.workload.as_mut())
        };
        let raw_ms = started.elapsed().as_secs_f64() * 1e3;
        let io_ms = self.workload.io_ms() - io0;
        (out, Timed { raw_ms, io_ms, yard_after: self.sample_yardstick() })
    }

    /// One round of the op list. An op that errs counts as failed and the
    /// round goes on.
    fn round(&mut self, traced: bool) -> Result<Round> {
        trace::set_enabled(traced);
        let mut r = Round::default();
        self.workload.begin_round()?;
        let ops = self.workload.ops_per_round();
        let usage0 = self.workload.llm_usage();
        let spans0 = self.workload.telemetry_spans();
        // A fresh sample before the first op: the last one may be a whole
        // suite pass old.
        self.sample_yardstick();
        for op in 0..ops {
            trace::set_op(Some(op as u32));
            let (a0, b0) = crate::alloc::snapshot();
            let (res, timed) = self.timed("bench.op", |w| w.run_op(op, traced));
            let (a1, b1) = crate::alloc::snapshot();
            trace::set_op(None);
            r.ops.push(timed);
            r.allocs += a1 - a0;
            r.alloc_bytes += b1 - b0;
            self.attempted += 1;
            match res {
                Ok(()) => {
                    let v = self.workload.check_op(op);
                    self.judge(op, v);
                }
                Err(e) => {
                    self.failed += 1;
                    if self.errors.len() < MAX_ERRORS {
                        self.errors.push(format!("op {op}: {e}"));
                    }
                }
            }
        }
        let usage1 = self.workload.llm_usage();
        r.llm = LlmUsage {
            calls: usage1.calls - usage0.calls,
            tokens: usage1.tokens - usage0.tokens,
            usd: usage1.usd - usage0.usd,
        };
        r.telemetry_spans = self.workload.telemetry_spans().saturating_sub(spans0);
        let (res, timed) = self.timed("bench.epilogue", |w| w.end_round());
        match res {
            Ok(Some(v)) => {
                self.attempted += 1;
                r.epilogue = Some(timed);
                self.judge(ops, v);
            }
            Ok(None) => {}
            Err(e) => {
                self.attempted += 1;
                self.failed += 1;
                self.errors.push(format!("round epilogue: {e}"));
            }
        }
        self.workload.after_round();
        Ok(r)
    }

    /// Speed-corrects one timed region against the yardstick samples around
    /// it: up to two before and two after.
    fn corrected(&self, t: &Timed) -> f64 {
        let window = &self.yards[t.yard_after.saturating_sub(2)..(t.yard_after + 2).min(self.yards.len())];
        correct(t.raw_ms, t.io_ms, window)
    }

    fn round_ms(&self, r: &Round, raw: bool) -> RoundMs {
        let ms = |t: &Timed| if raw { t.raw_ms } else { self.corrected(t) };
        let op_ms: Vec<f64> = r.ops.iter().map(ms).collect();
        let total_ms = op_ms.iter().sum::<f64>() + r.epilogue.as_ref().map_or(0.0, ms);
        RoundMs { op_ms, total_ms }
    }

    /// `(ops_per_s, op_p50_ms, op_p95_ms)` over measured rounds.
    fn headline(&self, rounds: &[Round], raw: bool) -> (f64, f64, f64) {
        let per_round: Vec<RoundMs> = rounds.iter().map(|r| self.round_ms(r, raw)).collect();
        let totals: Vec<f64> = per_round.iter().map(|r| r.total_ms).collect();
        let pooled: Vec<f64> = per_round.iter().flat_map(|r| r.op_ms.iter().copied()).collect();
        let ops = self.workload.ops_per_round();
        (ops as f64 / (median(&totals) / 1e3), percentile(&pooled, 50.0), percentile(&pooled, 95.0))
    }

    fn accuracy(&self) -> f64 {
        if self.checked == 0 {
            return 0.0;
        }
        self.matched as f64 / self.checked as f64
    }
}

/// Builds the workload several times under a [`SetupClock`], keeping the
/// last one. Each earlier instance is dropped before the next is built so
/// peak memory is one instance's. Returns the workload, the median
/// corrected set-up time and how many set-ups ran.
fn set_up(args: &RunArgs, size: Size, repeat: bool) -> Result<(Box<dyn Workload>, f64, usize)> {
    let mut times = Vec::new();
    let mut built = None;
    let started = Instant::now();
    loop {
        drop(built.take());
        let mut clock = SetupClock::new();
        built = Some(workloads::build(&args.workload, args.seed, size, &args.out, &mut clock)?);
        times.push(clock.corrected_s());
        let cheap = started.elapsed().as_secs_f64() < SETUP_BUDGET_S && times.len() < MAX_SETUPS;
        if !repeat || (times.len() >= MIN_SETUPS && !cheap) {
            break;
        }
    }
    let workload = built.ok_or_else(|| ArynError::Other("no set-up ran".into()))?;
    Ok((workload, median(&times), times.len()))
}

/// Fixed work when `rounds` is given; otherwise at least `min` rounds, then
/// on until `seconds` are used up (a round is started only if half of it
/// still fits).
fn keep_going(rounds: Option<usize>, seconds: f64, started: &Instant, done: usize, min: usize, last_s: f64) -> bool {
    match rounds {
        Some(n) => done < n,
        None => done < min || started.elapsed().as_secs_f64() + last_s * 0.5 < seconds,
    }
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// `--rounds 2` is the smoke mode: quarter-size inputs, one set-up.
fn size_of(args: &RunArgs) -> Size {
    match args.rounds {
        Some(n) if n <= 2 => Size::Smoke,
        _ => Size::Full,
    }
}

fn finish(
    l: Loop,
    shape: std::result::Result<(), String>,
    metrics: Vec<(&'static str, f64, &'static str)>,
    mut notes: Vec<String>,
) -> Outcome {
    let mut correct = l.failed == 0 && l.reproducible && l.checked > 0;
    let (acc, floor) = (l.accuracy(), l.workload.accuracy_floor());
    if acc < floor {
        notes.push(format!("oracle: {} of {} checks passed, below the floor of {floor}", l.matched, l.checked));
        correct = false;
    }
    if let Err(why) = &shape {
        notes.push(format!("workload shape check failed: {why}"));
        correct = false;
    }
    if metrics.iter().any(|(_, v, _)| !v.is_finite()) {
        notes.push("a metric is not a finite number".into());
        correct = false;
    }
    notes.extend(l.errors.iter().cloned());
    Outcome { correct, attempted: l.attempted, failed: l.failed, metrics, notes }
}

/// `--trace 0`: the end-to-end metrics.
fn run_end_to_end(args: &RunArgs) -> Result<Outcome> {
    let size = size_of(args);
    let (workload, setup_s, setups) = set_up(args, size, size == Size::Full)?;
    let mut l = Loop::new(workload);
    let started = Instant::now();
    let mut measured: Vec<Round> = Vec::new();
    let mut shape = Ok(());
    let mut done = 0usize;
    let mut last_s = 0.0;
    while keep_going(args.rounds, args.seconds, &started, done, 3, last_s) {
        let t = Instant::now();
        let r = l.round(false)?;
        last_s = t.elapsed().as_secs_f64();
        // Round 0 warms caches, lazy statics and the allocator; discarded.
        if done == 0 {
            shape = l.workload.shape_ok();
        } else {
            measured.push(r);
        }
        done += 1;
    }
    let (ops_per_s, p50, p95) = l.headline(&measured, false);
    let (raw_ops_per_s, raw_p50, raw_p95) = l.headline(&measured, true);
    let samples = measured.iter().map(|r| r.ops.len()).sum::<usize>();
    let mut notes = vec![
        format!(
            "{} measured rounds of {} ops ({samples} op samples) after 1 warm-up round; {setups} set-ups",
            measured.len(),
            l.workload.ops_per_round(),
        ),
        format!(
            "yardstick median {:.3} ms over {} samples (reference {YARD_REF_MS} ms); uncorrected: ops_per_s {raw_ops_per_s:.4}, op_p50_ms {raw_p50:.4}, op_p95_ms {raw_p95:.4}",
            median(&l.yards),
            l.yards.len(),
        ),
    ];
    if let Some(p) = crate::stats::highest_supported_percentile(samples, 10) {
        notes.push(format!("highest percentile with 10 samples beyond it: p{p}"));
    }
    let values: BTreeMap<&str, f64> = [
        ("setup_s", setup_s),
        ("ops_per_s", ops_per_s),
        ("op_p50_ms", p50),
        ("op_p95_ms", p95),
        ("peak_rss_mb", peak_rss_mb()),
        ("answer_accuracy", l.accuracy()),
    ]
    .into_iter()
    .collect();
    let metrics =
        END_TO_END.iter().map(|m| (m.name, values.get(m.name).copied().unwrap_or(f64::NAN), m.unit)).collect();
    Ok(finish(l, shape, metrics, notes))
}

/// For each span, whether it sits under a `bench.op`/`bench.epilogue` root
/// (i.e. belongs to the traced workload rather than to the layer suite).
fn under_workload_root(rec: &trace::Recording) -> Vec<bool> {
    let mut under = vec![false; rec.spans.len()];
    for (i, s) in rec.spans.iter().enumerate() {
        under[i] = s.parent.is_some_and(|p| under[p as usize] || rec.spans[p as usize].name.starts_with("bench."));
    }
    under
}

/// `--trace 1`: the per-layer metrics. Alternates untraced rounds (the
/// reference the tracing overhead is measured against), traced rounds and
/// passes of the isolated layer suite.
fn run_traced(args: &RunArgs) -> Result<Outcome> {
    let size = size_of(args);
    let (workload, _, _) = set_up(args, size, false)?;
    trace::start();
    let mut suite = Suite::setup(args.seed, size, &args.out)?;
    let mut l = Loop::new(workload);
    let ops = l.workload.ops_per_round() as f64;
    let started = Instant::now();
    l.round(false)?;
    let shape = l.workload.shape_ok();
    let mut plain: Vec<Round> = Vec::new();
    let mut traced: Vec<Round> = Vec::new();
    let mut done = 0usize;
    let mut last_s = 0.0;
    let min_iters = if size == Size::Smoke { 1 } else { 2 };
    // The warm-up round counts towards `--rounds`.
    let iterations = args.rounds.map(|n| n.saturating_sub(1).max(1));
    while keep_going(iterations, args.seconds, &started, done, min_iters, last_s) {
        let t = Instant::now();
        trace::set_round(done as u32 + 1);
        let r = l.round(false)?;
        trace::value("llm.calls_per_op", r.llm.calls as f64 / ops);
        trace::value("llm.tokens_per_op", r.llm.tokens as f64 / ops);
        trace::value("llm.usd_per_op", r.llm.usd / ops);
        trace::value("telemetry.spans_per_op", r.telemetry_spans as f64 / ops);
        trace::value("alloc.count_per_op", r.allocs as f64 / ops);
        trace::value("alloc.kb_per_op", r.alloc_bytes as f64 / 1024.0 / ops);
        plain.push(r);
        traced.push(l.round(true)?);
        trace::set_enabled(true);
        suite.pass()?;
        last_s = t.elapsed().as_secs_f64();
        done += 1;
    }
    drop(suite);
    let rec = trace::finish().ok_or_else(|| ArynError::Other("trace recorder vanished".into()))?;
    let costs = trace::costs(&rec, YARD_REF_MS);
    let under = under_workload_root(&rec);

    let mut values = rec.values.clone();
    let (raw_ops_per_s, raw_p50, _) = l.headline(&plain, true);
    let total = |rounds: &[Round]| median(&rounds.iter().map(|r| l.round_ms(r, false).total_ms).collect::<Vec<_>>());
    values.push(("bench.raw_ops_per_s", 0, raw_ops_per_s));
    values.push(("bench.raw_op_p50_ms", 0, raw_p50));
    values.push(("bench.yardstick_ms", 0, median(&l.yards)));
    values.push((
        "bench.yardstick_spread",
        0,
        (percentile(&l.yards, 95.0) - percentile(&l.yards, 5.0)) / median(&l.yards),
    ));
    values.push(("bench.trace_overhead_share", 0, total(&traced) / total(&plain) - 1.0));
    // Where the traced workload's time went, layer by layer: shares of one
    // stretch of wall time, so taken from the times as measured. (`+ 0.0`
    // turns the empty sum's -0.0 into 0.0.)
    let roots = || costs.iter().filter(|c| c.name.starts_with("bench."));
    let root_total: f64 = roots().map(|c| c.raw_total_ns).sum();
    for layer in SHARE_LAYERS {
        let self_ns: f64 = costs
            .iter()
            .zip(&under)
            .filter(|(c, under)| **under && c.name.split('.').next() == Some(layer))
            .map(|(c, _)| c.raw_self_ns)
            .sum();
        let name = PER_LAYER
            .iter()
            .map(|m| m.name)
            .find(|n| n.strip_prefix("op_share.") == Some(layer))
            .ok_or_else(|| ArynError::Other(format!("no op_share metric for layer {layer}")))?;
        values.push((name, 0, self_ns / root_total + 0.0));
    }
    values.push(("op_share.unattributed", 0, roots().map(|c| c.raw_self_ns).sum::<f64>() / root_total));

    // The table's timing metrics come from the suite's spans only, so they
    // mean the same thing whatever workload ran beside them.
    let suite_costs: Vec<trace::SpanCost> = costs
        .into_iter()
        .zip(&under)
        .filter(|(c, under)| !**under && !c.name.starts_with("bench."))
        .map(|(c, _)| c)
        .collect();
    let mut notes = vec![format!(
        "{done} iterations of (untraced round, traced round, layer suite pass) after 1 warm-up round; {} spans",
        rec.spans.len()
    )];
    let mut metrics = Vec::with_capacity(PER_LAYER.len());
    for m in PER_LAYER {
        let v = metrics::derive(m, &suite_costs, &values).unwrap_or(f64::NAN);
        if v.is_nan() {
            notes.push(format!("{}: nothing recorded", m.name));
        }
        metrics.push((m.name, v, m.unit));
    }
    std::fs::create_dir_all(&args.out).map_err(|e| io_err(&args.out, e))?;
    let path = args.out.join(format!("trace_{}.json", args.workload));
    std::fs::write(&path, trace::to_json(&rec, &args.workload, args.seed, YARD_REF_MS))
        .map_err(|e| io_err(&path, e))?;
    notes.push(format!("trace written to {}", path.display()));
    Ok(finish(l, shape, metrics, notes))
}

pub fn run(args: &RunArgs) -> Result<Outcome> {
    // Wake the allocator and the yardstick's code paths before anything is timed.
    for _ in 0..3 {
        yardstick();
    }
    if args.trace {
        run_traced(args)
    } else {
        run_end_to_end(args)
    }
}
