//! Lightweight span/counter telemetry for the Aryn stack.
//!
//! The paper's traceability story (§6) requires that every answer can be
//! traced back through the operators, LLM calls, and documents that produced
//! it. This crate is the substrate: a dependency-free, deterministic span
//! collector that the partitioner, the Sycamore executor, and Luna all write
//! into.
//!
//! Design constraints, in order:
//!
//! 1. **Determinism-friendly.** The whole workspace is a deterministic
//!    simulation keyed by seeds. Telemetry must not break that: the
//!    [`Trace::fingerprint`] covers span names, kinds, and counters but
//!    excludes wall-clock durations and is *order-independent*, so parallel
//!    workers recording spans in racy order still fingerprint identically.
//! 2. **Cheap.** A span is a name, a kind, counters, and gauges. Recording
//!    is one short critical section; a disabled [`Telemetry`] handle records
//!    nothing at all.
//! 3. **Exportable.** [`Trace::to_value`]/[`Trace::to_json`] render the
//!    whole trace as `aryn_core::Value` JSON for `bench_results/` artifacts
//!    and for `explain_analyze()` output.
//!
//! Typical use:
//!
//! ```
//! use aryn_telemetry::Telemetry;
//!
//! let tel = Telemetry::new("demo");
//! let mut span = tel.span("partition", "stage");
//! span.add("docs_in", 4);
//! span.add("docs_out", 4);
//! span.gauge("wall_ms", 1.25);
//! span.finish();
//!
//! let trace = tel.snapshot();
//! assert_eq!(trace.total("docs_in"), 4);
//! assert!(trace.to_json().contains("partition"));
//! ```

use aryn_core::{stable_hash, Value};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// One recorded unit of work: a named span with integer counters and float
/// gauges. `seq` is the record order (racy under parallelism — display only;
/// never part of the fingerprint).
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub kind: String,
    pub seq: u64,
    pub counters: BTreeMap<String, u64>,
    pub gauges: BTreeMap<String, f64>,
    pub notes: Vec<String>,
}

impl Span {
    pub fn counter(&self, key: &str) -> u64 {
        self.counters.get(key).copied().unwrap_or(0)
    }

    pub fn gauge(&self, key: &str) -> f64 {
        self.gauges.get(key).copied().unwrap_or(0.0)
    }

    /// Hash of the deterministic parts of this span: name, kind, counters,
    /// and notes. Gauges (wall times, rates) and `seq` are excluded.
    fn det_hash(&self) -> u64 {
        let mut parts: Vec<String> = vec![self.name.clone(), self.kind.clone()];
        for (k, v) in &self.counters {
            parts.push(format!("{k}={v}"));
        }
        for n in &self.notes {
            parts.push(n.clone());
        }
        let refs: Vec<&str> = parts.iter().map(String::as_str).collect();
        stable_hash(0x7E1E, &refs)
    }

    fn to_value(&self) -> Value {
        let mut obj = BTreeMap::new();
        obj.insert("name".to_string(), Value::Str(self.name.clone()));
        obj.insert("kind".to_string(), Value::Str(self.kind.clone()));
        obj.insert("seq".to_string(), Value::Int(self.seq as i64));
        let counters = self
            .counters
            .iter()
            .map(|(k, v)| (k.clone(), Value::Int(*v as i64)))
            .collect();
        obj.insert("counters".to_string(), Value::Object(counters));
        let gauges = self
            .gauges
            .iter()
            .map(|(k, v)| (k.clone(), Value::Float(*v)))
            .collect();
        obj.insert("gauges".to_string(), Value::Object(gauges));
        if !self.notes.is_empty() {
            obj.insert(
                "notes".to_string(),
                Value::Array(self.notes.iter().cloned().map(Value::Str).collect()),
            );
        }
        Value::Object(obj)
    }
}

/// A finished (or in-progress snapshot of a) collection of spans.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    pub label: String,
    pub spans: Vec<Span>,
}

impl Trace {
    /// Sum of a counter across all spans.
    pub fn total(&self, counter: &str) -> u64 {
        self.spans.iter().map(|s| s.counter(counter)).sum()
    }

    /// Sum of a counter across spans of one kind.
    pub fn total_for_kind(&self, kind: &str, counter: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.kind == kind)
            .map(|s| s.counter(counter))
            .sum()
    }

    /// Sum of a gauge across all spans.
    pub fn total_gauge(&self, gauge: &str) -> f64 {
        self.spans.iter().map(|s| s.gauge(gauge)).sum()
    }

    pub fn spans_of_kind(&self, kind: &str) -> Vec<&Span> {
        self.spans.iter().filter(|s| s.kind == kind).collect()
    }

    pub fn span_named(&self, name: &str) -> Option<&Span> {
        self.spans.iter().find(|s| s.name == name)
    }

    /// Order-independent hash of the deterministic content (names, kinds,
    /// counters, notes — not wall times, not record order). Two runs with
    /// the same seed must produce the same fingerprint even if their worker
    /// threads interleaved differently.
    pub fn fingerprint(&self) -> u64 {
        self.spans
            .iter()
            .map(Span::det_hash)
            .fold(stable_hash(0xF1, &[self.label.as_str()]), |acc, h| {
                acc.wrapping_add(h)
            })
    }

    /// Render the trace as a JSON-ready `Value` tree. Spans are sorted by
    /// (kind, name, seq) so the export itself is stable across runs.
    pub fn to_value(&self) -> Value {
        let mut sorted: Vec<&Span> = self.spans.iter().collect();
        sorted.sort_by(|a, b| {
            (&a.kind, &a.name, a.seq).cmp(&(&b.kind, &b.name, b.seq))
        });
        let mut obj = BTreeMap::new();
        obj.insert("label".to_string(), Value::Str(self.label.clone()));
        obj.insert("span_count".to_string(), Value::Int(self.spans.len() as i64));
        obj.insert(
            "fingerprint".to_string(),
            Value::Str(format!("{:016x}", self.fingerprint())),
        );
        obj.insert(
            "spans".to_string(),
            Value::Array(sorted.iter().map(|s| s.to_value()).collect()),
        );
        Value::Object(obj)
    }

    pub fn to_json(&self) -> String {
        aryn_core::json::to_string_pretty(&self.to_value())
    }
}

struct Collector {
    label: String,
    spans: Vec<Span>,
    next_seq: u64,
}

/// A clonable, thread-safe handle to a span collector. Cloning shares the
/// underlying trace; `Telemetry::disabled()` is a null sink whose spans are
/// dropped on `finish()`.
#[derive(Clone)]
pub struct Telemetry {
    inner: Option<Arc<Mutex<Collector>>>,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            Some(c) => write!(f, "Telemetry({:?}, {} spans)", c.lock().label, c.lock().spans.len()),
            None => write!(f, "Telemetry(disabled)"),
        }
    }
}

impl Telemetry {
    pub fn new(label: impl Into<String>) -> Telemetry {
        Telemetry {
            inner: Some(Arc::new(Mutex::new(Collector {
                label: label.into(),
                spans: Vec::new(),
                next_seq: 0,
            }))),
        }
    }

    /// A sink that records nothing; all span operations are no-ops.
    pub fn disabled() -> Telemetry {
        Telemetry { inner: None }
    }

    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Start building a span. The builder records wall time from this call
    /// until `finish()` into the `wall_ms` gauge (unless overridden).
    pub fn span(&self, name: impl Into<String>, kind: impl Into<String>) -> SpanBuilder {
        SpanBuilder {
            telemetry: self.clone(),
            name: name.into(),
            kind: kind.into(),
            counters: BTreeMap::new(),
            gauges: BTreeMap::new(),
            notes: Vec::new(),
            started: Instant::now(),
        }
    }

    fn record(&self, mut span: Span) {
        if let Some(inner) = &self.inner {
            let mut c = inner.lock();
            span.seq = c.next_seq;
            c.next_seq += 1;
            c.spans.push(span);
        }
    }

    /// One-shot counter recording: a span holding only counters, skipping
    /// the builder dance. Used for verdict/tally events like the plan
    /// analyzer's per-severity and per-lint-code counts.
    pub fn count(
        &self,
        name: impl Into<String>,
        kind: impl Into<String>,
        counters: &[(&str, u64)],
    ) {
        if !self.is_enabled() {
            return;
        }
        let mut span = self.span(name, kind);
        for (k, v) in counters {
            span.add(k, *v);
        }
        span.finish();
    }

    /// Copy of the trace so far (the collector keeps recording).
    pub fn snapshot(&self) -> Trace {
        self.spans_since(0)
    }

    /// Copy of only the spans recorded after the first `mark` (a value
    /// [`Telemetry::span_count`] returned earlier): what one request added
    /// to a long-lived collector, at a cost independent of its history.
    pub fn spans_since(&self, mark: usize) -> Trace {
        match &self.inner {
            Some(inner) => {
                let c = inner.lock();
                Trace {
                    label: c.label.clone(),
                    spans: c.spans[mark.min(c.spans.len())..].to_vec(),
                }
            }
            None => Trace::default(),
        }
    }

    /// Drain all recorded spans, leaving the collector empty.
    pub fn take(&self) -> Trace {
        match &self.inner {
            Some(inner) => {
                let mut c = inner.lock();
                Trace {
                    label: c.label.clone(),
                    spans: std::mem::take(&mut c.spans),
                }
            }
            None => Trace::default(),
        }
    }

    pub fn reset(&self) {
        if let Some(inner) = &self.inner {
            let mut c = inner.lock();
            c.spans.clear();
            c.next_seq = 0;
        }
    }

    pub fn span_count(&self) -> usize {
        match &self.inner {
            Some(inner) => inner.lock().spans.len(),
            None => 0,
        }
    }
}

/// Accumulates counters/gauges for one span; pushes into the collector on
/// [`SpanBuilder::finish`]. Dropping without `finish()` discards the span.
pub struct SpanBuilder {
    telemetry: Telemetry,
    name: String,
    kind: String,
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    notes: Vec<String>,
    started: Instant,
}

impl SpanBuilder {
    /// Add to an integer counter (creating it at 0).
    pub fn add(&mut self, key: &str, amount: u64) -> &mut Self {
        *self.counters.entry(key.to_string()).or_insert(0) += amount;
        self
    }

    /// Set a counter to an absolute value.
    pub fn set(&mut self, key: &str, value: u64) -> &mut Self {
        self.counters.insert(key.to_string(), value);
        self
    }

    /// Set a float gauge (costs, rates, millisecond timings).
    pub fn gauge(&mut self, key: &str, value: f64) -> &mut Self {
        self.gauges.insert(key.to_string(), value);
        self
    }

    /// Attach a free-form note (participates in the fingerprint).
    pub fn note(&mut self, note: impl Into<String>) -> &mut Self {
        self.notes.push(note.into());
        self
    }

    /// Record the span. Fills the `wall_ms` gauge with the builder's
    /// lifetime if the caller didn't set it explicitly.
    pub fn finish(mut self) {
        self.gauges
            .entry("wall_ms".to_string())
            .or_insert_with(|| self.started.elapsed().as_secs_f64() * 1e3);
        let span = Span {
            name: std::mem::take(&mut self.name),
            kind: std::mem::take(&mut self.kind),
            seq: 0,
            counters: std::mem::take(&mut self.counters),
            gauges: std::mem::take(&mut self.gauges),
            notes: std::mem::take(&mut self.notes),
        };
        self.telemetry.record(span);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(tel: &Telemetry) {
        let mut a = tel.span("partition", "stage");
        a.add("docs_in", 10).add("docs_out", 9).gauge("wall_ms", 2.0);
        a.finish();
        let mut b = tel.span("llm_filter", "operator");
        b.add("llm_calls", 4).add("input_tokens", 120).note("model=gpt4-sim");
        b.finish();
    }

    #[test]
    fn totals_and_lookup() {
        let tel = Telemetry::new("t");
        sample(&tel);
        let trace = tel.snapshot();
        assert_eq!(trace.spans.len(), 2);
        assert_eq!(trace.total("docs_in"), 10);
        assert_eq!(trace.total("llm_calls"), 4);
        assert_eq!(trace.total_for_kind("stage", "llm_calls"), 0);
        assert_eq!(trace.span_named("partition").unwrap().counter("docs_out"), 9);
        assert_eq!(trace.spans_of_kind("operator").len(), 1);
    }

    #[test]
    fn fingerprint_ignores_order_and_wall_time() {
        let t1 = Telemetry::new("t");
        let mut a = t1.span("x", "stage");
        a.add("n", 1).gauge("wall_ms", 5.0);
        a.finish();
        let mut b = t1.span("y", "stage");
        b.add("n", 2).gauge("wall_ms", 7.0);
        b.finish();

        // Same spans, reversed order, different wall times.
        let t2 = Telemetry::new("t");
        let mut b = t2.span("y", "stage");
        b.add("n", 2).gauge("wall_ms", 100.0);
        b.finish();
        let mut a = t2.span("x", "stage");
        a.add("n", 1).gauge("wall_ms", 0.5);
        a.finish();

        assert_eq!(t1.snapshot().fingerprint(), t2.snapshot().fingerprint());

        // Different counter value => different fingerprint.
        let t3 = Telemetry::new("t");
        let mut a = t3.span("x", "stage");
        a.add("n", 99);
        a.finish();
        let mut b = t3.span("y", "stage");
        b.add("n", 2);
        b.finish();
        assert_ne!(t1.snapshot().fingerprint(), t3.snapshot().fingerprint());
    }

    #[test]
    fn count_records_a_counter_only_span() {
        let tel = Telemetry::new("t");
        tel.count("analyze:plan", "analyzer", &[("errors", 2), ("warnings", 1)]);
        let trace = tel.snapshot();
        assert_eq!(trace.spans.len(), 1);
        let span = trace.span_named("analyze:plan").unwrap();
        assert_eq!(span.kind, "analyzer");
        assert_eq!(span.counter("errors"), 2);
        assert_eq!(span.counter("warnings"), 1);
        // A disabled handle records nothing.
        let off = Telemetry::disabled();
        off.count("x", "analyzer", &[("errors", 1)]);
        assert_eq!(off.span_count(), 0);
    }

    #[test]
    fn disabled_is_a_null_sink() {
        let tel = Telemetry::disabled();
        assert!(!tel.is_enabled());
        let mut s = tel.span("x", "stage");
        s.add("n", 1);
        s.finish();
        assert_eq!(tel.span_count(), 0);
        assert_eq!(tel.snapshot().spans.len(), 0);
    }

    #[test]
    fn clones_share_and_take_drains() {
        let tel = Telemetry::new("t");
        let clone = tel.clone();
        sample(&clone);
        assert_eq!(tel.span_count(), 2);
        let taken = tel.take();
        assert_eq!(taken.spans.len(), 2);
        assert_eq!(tel.span_count(), 0);
    }

    #[test]
    fn spans_since_copies_only_the_tail() {
        let tel = Telemetry::new("t");
        sample(&tel);
        let mark = tel.span_count();
        tel.count("later", "analyzer", &[("n", 1)]);
        let tail = tel.spans_since(mark);
        assert_eq!(tail.label, "t");
        assert_eq!(tail.spans.len(), 1);
        assert_eq!(tail.spans[0].name, "later");
        assert_eq!(tel.span_count(), 3, "the collector keeps everything");
        // A mark past the end (the collector was drained in between) is empty.
        assert!(tel.spans_since(99).spans.is_empty());
        assert_eq!(tel.spans_since(0).spans, tel.snapshot().spans);
    }

    #[test]
    fn json_export_is_stable_and_parseable() {
        let tel = Telemetry::new("export");
        sample(&tel);
        let trace = tel.snapshot();
        let json = trace.to_json();
        let parsed = aryn_core::json::parse(&json).expect("trace JSON parses");
        assert_eq!(
            parsed.get_path("label"),
            Some(&Value::Str("export".to_string()))
        );
        assert_eq!(parsed.get_path("span_count"), Some(&Value::Int(2)));
        // Export sorted by (kind, name): operator span first.
        let spans = parsed.get_path("spans").and_then(Value::as_array).unwrap();
        assert_eq!(
            spans[0].get_path("name"),
            Some(&Value::Str("llm_filter".to_string()))
        );
    }

    #[test]
    fn concurrent_recording_is_sound() {
        let tel = Telemetry::new("mt");
        std::thread::scope(|s| {
            for _ in 0..4 {
                let tel = tel.clone();
                s.spawn(move || {
                    for _ in 0..25 {
                        let mut sp = tel.span("work", "stage");
                        sp.add("n", 1);
                        sp.finish();
                    }
                });
            }
        });
        let trace = tel.snapshot();
        assert_eq!(trace.spans.len(), 100);
        assert_eq!(trace.total("n"), 100);
        // seq values are unique even under contention.
        let mut seqs: Vec<u64> = trace.spans.iter().map(|s| s.seq).collect();
        seqs.sort_unstable();
        seqs.dedup();
        assert_eq!(seqs.len(), 100);
    }
}
