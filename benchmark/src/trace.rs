//! In-memory span recorder for the traced run (`--trace 1`).
//!
//! The repo's crates are not touched by this benchmark, so spans are opened
//! here, around each call into a layer's public functions; what happens
//! inside a call is visible only where the layer lets the benchmark inject
//! a wrapper (the language model, the embedder, the filesystem). A span's
//! layer is the prefix of its name (`index.filter` → `index`), and a
//! layer's cost is its spans' *self* time: duration minus the part covered
//! by child spans.
//!
//! The recorder lives in a thread-local and only the thread that called
//! [`start`] records; the measured path is single-threaded by design.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct SpanRec {
    pub name: &'static str,
    pub parent: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Measured round this span belongs to.
    pub round: u32,
    /// Op within the round (shared by every span of one request);
    /// `u32::MAX` outside any op (isolated layer sections, round epilogue).
    pub op: u32,
    /// How many documents / calls / items the call processed (the divisor
    /// of a per-unit metric).
    pub units: u64,
    /// A second count carried for exact metrics (elements, bytes, …).
    pub items: u64,
}

impl SpanRec {
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[derive(Default)]
struct Recorder {
    /// Spans are recorded only while this is set; the traced run clears it
    /// for its untraced reference rounds.
    enabled: bool,
    spans: Vec<SpanRec>,
    stack: Vec<u32>,
    round: u32,
    op: u32,
    /// Yardstick samples as `(time, ms)`, for per-span speed correction.
    yards: Vec<(u64, f64)>,
    /// Named observations that are not span timings (ratios, byte counts).
    values: Vec<(&'static str, u32, f64)>,
}

thread_local! {
    static RECORDER: RefCell<Option<(Instant, Recorder)>> = const { RefCell::new(None) };
}

/// Everything a traced run recorded.
pub struct Recording {
    pub spans: Vec<SpanRec>,
    pub yards: Vec<(u64, f64)>,
    pub values: Vec<(&'static str, u32, f64)>,
}

/// Installs a fresh recorder on this thread, recording.
pub fn start() {
    let rec = Recorder { enabled: true, op: u32::MAX, ..Recorder::default() };
    RECORDER.with(|r| *r.borrow_mut() = Some((Instant::now(), rec)));
}

/// Switches span recording on or off (yardstick samples and observations
/// are always kept).
pub fn set_enabled(enabled: bool) {
    with(|_, rec| rec.enabled = enabled);
}

/// Removes the recorder and returns what it holds (`None` if tracing was
/// never started on this thread).
pub fn finish() -> Option<Recording> {
    RECORDER.with(|r| r.borrow_mut().take()).map(|(_, rec)| Recording {
        spans: rec.spans,
        yards: rec.yards,
        values: rec.values,
    })
}

fn with<T>(f: impl FnOnce(&Instant, &mut Recorder) -> T) -> Option<T> {
    RECORDER.with(|r| r.borrow_mut().as_mut().map(|(origin, rec)| f(origin, rec)))
}

pub fn set_round(round: u32) {
    with(|_, rec| rec.round = round);
}

/// Marks the op subsequent spans belong to (`None` = outside any op).
pub fn set_op(op: Option<u32>) {
    with(|_, rec| rec.op = op.unwrap_or(u32::MAX));
}

pub fn note_yardstick(ms: f64) {
    with(|origin, rec| rec.yards.push((origin.elapsed().as_nanos() as u64, ms)));
}

/// Records a named observation for the current round.
pub fn value(name: &'static str, v: f64) {
    with(|_, rec| {
        let round = rec.round;
        rec.values.push((name, round, v));
    });
}

/// Closes its span on drop. Inert when no recorder is installed.
pub struct SpanGuard {
    id: Option<u32>,
}

/// Opens a span named `layer.call`; nest by holding the guard.
pub fn span(name: &'static str) -> SpanGuard {
    let id = with(|origin, rec| {
        if !rec.enabled {
            return None;
        }
        let id = rec.spans.len() as u32;
        rec.spans.push(SpanRec {
            name,
            parent: rec.stack.last().copied(),
            start_ns: origin.elapsed().as_nanos() as u64,
            end_ns: 0,
            round: rec.round,
            op: rec.op,
            units: 1,
            items: 0,
        });
        rec.stack.push(id);
        Some(id)
    })
    .flatten();
    SpanGuard { id }
}

impl SpanGuard {
    pub fn units(&mut self, n: u64) -> &mut Self {
        if let Some(id) = self.id {
            with(|_, rec| rec.spans[id as usize].units = n);
        }
        self
    }

    pub fn items(&mut self, n: u64) -> &mut Self {
        if let Some(id) = self.id {
            with(|_, rec| rec.spans[id as usize].items = n);
        }
        self
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(id) = self.id {
            with(|origin, rec| {
                rec.spans[id as usize].end_ns = origin.elapsed().as_nanos() as u64;
                // Guards drop in LIFO order, so the top of the stack is ours.
                if rec.stack.last() == Some(&id) {
                    rec.stack.pop();
                }
            });
        }
    }
}

/// Opens a span that covers `units` documents / calls / items.
pub fn span_of(name: &'static str, units: u64) -> SpanGuard {
    let mut g = span(name);
    g.units(units);
    g
}

/// Runs `f` inside a span.
pub fn in_span<T>(name: &'static str, units: u64, f: impl FnOnce() -> T) -> T {
    let _g = span_of(name, units);
    f()
}

/// Self time of every span: duration minus the time its direct children
/// cover. Children are fully nested in their parent and siblings do not
/// overlap (one thread, LIFO guards), so a plain sum is exact.
pub fn self_times_ns(spans: &[SpanRec]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            covered[p as usize] += s.dur_ns();
        }
    }
    spans.iter().zip(&covered).map(|(s, c)| s.dur_ns().saturating_sub(*c)).collect()
}

/// Speed-correction factor for a moment in time: `yard_ref / median` of
/// the yardstick samples nearest to it, up to two before and two after. A
/// single sample is one preemption away from a 50 % error; the median of
/// four shrugs one off, and four samples span well under a second, far
/// less than the box's mood swings last.
pub fn correction_at(yards: &[(u64, f64)], t_ns: u64, yard_ref_ms: f64) -> f64 {
    let after = yards.partition_point(|(t, _)| *t < t_ns);
    let window: Vec<f64> = yards[after.saturating_sub(2)..(after + 2).min(yards.len())].iter().map(|y| y.1).collect();
    if window.is_empty() {
        return 1.0;
    }
    yard_ref_ms / crate::stats::median(&window)
}

/// One span's contribution to the per-layer numbers.
pub struct SpanCost {
    pub name: &'static str,
    pub round: u32,
    /// Speed-corrected self time.
    pub self_ns: f64,
    /// Speed-corrected duration.
    pub total_ns: f64,
    /// Self time and duration as measured, for shares of one stretch of
    /// time (where the correction would cancel anyway).
    pub raw_self_ns: f64,
    pub raw_total_ns: f64,
    pub units: u64,
    pub items: u64,
}

pub fn costs(rec: &Recording, yard_ref_ms: f64) -> Vec<SpanCost> {
    let selfs = self_times_ns(&rec.spans);
    rec.spans
        .iter()
        .zip(selfs)
        .map(|(s, self_ns)| {
            // Time inside a filesystem call is waiting, not work: it does
            // not scale with the box's CPU speed and is left as measured.
            let k = match s.layer() {
                "core" => 1.0,
                _ => correction_at(&rec.yards, (s.start_ns + s.end_ns) / 2, yard_ref_ms),
            };
            SpanCost {
                name: s.name,
                round: s.round,
                self_ns: self_ns as f64 * k,
                total_ns: s.dur_ns() as f64 * k,
                raw_self_ns: self_ns as f64,
                raw_total_ns: s.dur_ns() as f64,
                units: s.units,
                items: s.items,
            }
        })
        .collect()
}

/// Renders the recording as the `trace_<workload>.json` document.
pub fn to_json(rec: &Recording, workload: &str, seed: u64, yard_ref_ms: f64) -> String {
    use std::fmt::Write as _;
    let selfs = self_times_ns(&rec.spans);
    let mut layers: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
    for (s, self_ns) in rec.spans.iter().zip(&selfs) {
        let e = layers.entry(s.layer()).or_default();
        e.0 += 1;
        e.1 += self_ns;
    }
    let mut out = String::with_capacity(rec.spans.len() * 160 + 1024);
    let _ = write!(out, "{{\"workload\":\"{workload}\",\"seed\":{seed},\"yard_ref_ms\":{yard_ref_ms},\"layers\":{{");
    for (i, (layer, (count, self_ns))) in layers.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(out, "{sep}\"{layer}\":{{\"spans\":{count},\"self_us\":{:.1}}}", *self_ns as f64 / 1e3);
    }
    out.push_str("},\"yardstick\":[");
    for (i, (t, ms)) in rec.yards.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(out, "{sep}{{\"t_us\":{:.1},\"ms\":{ms:.4}}}", *t as f64 / 1e3);
    }
    out.push_str("],\"spans\":[\n");
    for (i, (s, self_ns)) in rec.spans.iter().zip(&selfs).enumerate() {
        let sep = if i == 0 { "" } else { ",\n" };
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let op = if s.op == u32::MAX { "null".to_string() } else { s.op.to_string() };
        let _ = write!(
            out,
            "{sep}{{\"id\":{i},\"parent\":{parent},\"name\":\"{}\",\"layer\":\"{}\",\"round\":{},\"op\":{op},\"start_us\":{:.1},\"end_us\":{:.1},\"self_us\":{:.1},\"units\":{},\"items\":{}}}",
            s.name,
            s.layer(),
            s.round,
            s.start_ns as f64 / 1e3,
            s.end_ns as f64 / 1e3,
            *self_ns as f64 / 1e3,
            s.units,
            s.items,
        );
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(name: &'static str, parent: Option<u32>, start_ns: u64, end_ns: u64) -> SpanRec {
        SpanRec { name, parent, start_ns, end_ns, round: 1, op: 0, units: 1, items: 0 }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        // root [0,100) ── a [10,40) ── a1 [15,25)
        //              └─ b [50,90)
        let spans = vec![
            rec("luna.execute", None, 0, 100),
            rec("index.filter", Some(0), 10, 40),
            rec("llm.model", Some(1), 15, 25),
            rec("index.facet", Some(0), 50, 90),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 20, 10, 40]);
        // Self times partition the root's duration.
        assert_eq!(self_times_ns(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn guards_record_nesting_and_units() {
        start();
        set_round(3);
        set_op(Some(7));
        {
            let mut outer = span("sycamore.extract_stage");
            outer.units(40);
            {
                let _inner = span("llm.model");
            }
            in_span("llm.model", 2, || ());
        }
        set_op(None);
        let _ = span("index.seal");
        set_enabled(false);
        let _ = span("index.compact");
        set_enabled(true);
        value("bench.x", 1.5);
        note_yardstick(7.5);
        let r = finish().expect("recorder was started");
        assert_eq!(r.spans.len(), 4);
        assert_eq!(r.spans[0].parent, None);
        assert_eq!(r.spans[1].parent, Some(0));
        assert_eq!(r.spans[2].parent, Some(0));
        assert_eq!(r.spans[2].units, 2);
        assert_eq!(r.spans[0].units, 40);
        assert_eq!((r.spans[0].round, r.spans[0].op), (3, 7));
        assert_eq!(r.spans[3].parent, None, "stack unwound after the outer guard dropped");
        assert_eq!(r.spans[3].op, u32::MAX);
        assert_eq!(r.spans[0].layer(), "sycamore");
        assert!(r.spans[0].end_ns >= r.spans[2].end_ns);
        assert_eq!(r.values, vec![("bench.x", 3, 1.5)]);
        assert_eq!(r.yards.len(), 1);
        assert!(finish().is_none());
    }

    #[test]
    fn spans_are_inert_without_a_recorder() {
        let mut g = span("index.put");
        g.units(5).items(9);
        drop(g);
        assert!(finish().is_none());
    }

    #[test]
    fn correction_uses_neighbouring_yardsticks() {
        let yards = [(100, 7.0), (200, 7.2), (300, 21.0), (400, 7.4), (500, 9.0)];
        // Two before (7.0, 7.2), two after (21.0, 7.4): the preempted
        // sample of 21 ms does not move the median of 7.3.
        assert!((correction_at(&yards, 250, 7.0) - 7.0 / 7.3).abs() < 1e-12);
        assert!((correction_at(&yards, 50, 7.0) - 7.0 / 7.1).abs() < 1e-12, "only later samples");
        assert!((correction_at(&yards, 600, 7.0) - 7.0 / 8.2).abs() < 1e-12, "only earlier samples");
        assert_eq!(correction_at(&[], 10, 7.0), 1.0);
    }

    #[test]
    fn trace_json_is_well_formed() {
        let r = Recording {
            spans: vec![rec("luna.plan", None, 0, 2_000), rec("llm.model", Some(0), 500, 1_500)],
            yards: vec![(0, 7.0)],
            values: vec![],
        };
        let text = to_json(&r, "ask_structured", 3, 7.0);
        let v = aryn::aryn_core::json::parse(&text).expect("valid JSON");
        let spans = v.get("spans").and_then(|s| s.as_array()).expect("spans array");
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].get("parent").and_then(|p| p.as_int()), Some(0));
        assert_eq!(spans[0].get("self_us").and_then(|p| p.as_float()), Some(1.0));
        assert!(v.get("layers").and_then(|l| l.get("llm")).is_some());
    }
}
