//! `repeat`: the noise self-check. Runs each workload N times at one seed,
//! each in its own process (so `peak_rss_mb` is per run), and prints every
//! end-to-end value, the median and `(max − min) / median`.

use crate::metrics::{END_TO_END, WORKLOADS};
use crate::stats::{median, spread};
use aryn::aryn_core::{json, Value};
use std::process::Command;

/// A spread above the metric's bound or this, whichever is larger, fails.
const SPREAD_FLOOR: f64 = 0.10;

fn one_run(workload: &str, seed: u64, seconds: f64) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", workload, "--trace", "0"])
        .args(["--seed", &seed.to_string(), "--seconds", &seconds.to_string()])
        .output()
        .map_err(|e| format!("cannot start a run: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or("");
    if !out.status.success() {
        return Err(format!("{workload}: run exited with {}: {}", out.status, String::from_utf8_lossy(&out.stderr)));
    }
    let v = json::parse(last).map_err(|e| format!("{workload}: last line is not JSON ({e}): {last}"))?;
    if v.get("correct").and_then(Value::as_bool) != Some(true) {
        return Err(format!("{workload}: run was not correct: {last}"));
    }
    END_TO_END
        .iter()
        .map(|m| {
            v.get("metrics")
                .and_then(|ms| ms.get(m.name))
                .and_then(|e| e.get("value"))
                .and_then(Value::as_float)
                .ok_or_else(|| format!("{workload}: no value for {}", m.name))
        })
        .collect()
}

/// Returns `Ok(false)` when some spread is out of bounds.
pub fn repeat(runs: usize, workload: Option<String>, seed: u64, seconds: f64) -> Result<bool, String> {
    if runs < 2 {
        return Err("--runs: at least 2".into());
    }
    let mut ok = true;
    for w in WORKLOADS.iter().filter(|w| workload.as_deref().is_none_or(|name| name == w.name)) {
        println!("{}  seed {seed}  {runs} runs", w.name);
        let mut per_metric: Vec<Vec<f64>> = vec![Vec::with_capacity(runs); END_TO_END.len()];
        for _ in 0..runs {
            for (values, v) in per_metric.iter_mut().zip(one_run(w.name, seed, seconds)?) {
                values.push(v);
            }
        }
        for (m, values) in END_TO_END.iter().zip(&per_metric) {
            let s = spread(values);
            let limit = m.bound.max(SPREAD_FLOOR);
            let verdict = if s <= limit { "ok" } else { "TOO NOISY" };
            ok &= s <= limit;
            let listed: Vec<String> = values.iter().map(|v| format!("{v:.4}")).collect();
            println!(
                "  {:<16} median {:>12.4} {:<5} spread {:>6.4} (limit {limit:.2}) {verdict}  [{}]",
                m.name,
                median(values),
                m.unit,
                s,
                listed.join(" ")
            );
        }
    }
    Ok(ok)
}
