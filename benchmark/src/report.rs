//! The two renderings of a run: the readable table and the final JSON line.

use crate::harness::{Outcome, RunArgs};
use std::fmt::Write as _;

/// Every metric by name, with its unit, plus the harness's notes.
pub fn human(args: &RunArgs, o: &Outcome) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "workload {}  seed {}  trace {}  (nproc = {})",
        args.workload,
        args.seed,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, usize::from),
    );
    for (name, value, unit) in &o.metrics {
        let _ = writeln!(out, "  {name:<36} {value:>16.4} {unit}");
    }
    let _ = writeln!(out, "  attempted {}  failed {}  correct {}", o.attempted, o.failed, o.correct);
    for note in &o.notes {
        let _ = writeln!(out, "  note: {note}");
    }
    out
}

fn number(v: f64) -> String {
    if v.is_finite() {
        // Shortest text that reads back to the same f64: every digit measured.
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// `{"correct": …, "attempted": …, "failed": …, "metrics": {name: {"value": …, "unit": …}}}`
pub fn json_line(o: &Outcome) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        o.correct, o.attempted, o.failed
    );
    for (i, (name, value, unit)) in o.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(out, "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", number(*value));
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use aryn::aryn_core::{json, Value};

    #[test]
    fn final_line_has_exactly_the_contract_keys() {
        let o = Outcome {
            correct: true,
            attempted: 450,
            failed: 0,
            metrics: vec![("ops_per_s", 23.456_789_012_345, "1/s"), ("setup_s", 0.25, "s")],
            notes: vec![],
        };
        let line = json_line(&o);
        assert!(!line.contains('\n'));
        let v = json::parse(&line).expect("one JSON object");
        let keys: Vec<&str> = v.as_object().expect("object").keys().map(String::as_str).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(v.get("correct").and_then(Value::as_bool), Some(true));
        assert_eq!(v.get("attempted").and_then(Value::as_int), Some(450));
        assert_eq!(v.get("failed").and_then(Value::as_int), Some(0));
        let m = v.get("metrics").and_then(|m| m.get("ops_per_s")).expect("metric");
        let keys: Vec<&str> = m.as_object().expect("object").keys().map(String::as_str).collect();
        assert_eq!(keys, ["unit", "value"]);
        assert_eq!(m.get("value").and_then(Value::as_float), Some(23.456_789_012_345), "all digits kept");
        assert_eq!(m.get("unit").and_then(Value::as_str), Some("1/s"));
    }

    #[test]
    fn non_finite_values_stay_valid_json() {
        let o =
            Outcome { correct: false, attempted: 1, failed: 1, metrics: vec![("x", f64::NAN, "ms")], notes: vec![] };
        assert!(json::parse(&json_line(&o)).is_ok());
    }
}
