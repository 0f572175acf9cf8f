//! The speed yardstick. On this 2-vCPU shared VM anything that allocates
//! runs ±15 % faster or slower for tens of seconds at a time, in CPU time
//! as much as in wall time, so no statistic over raw timings repeats. The
//! yardstick is a fixed allocation-heavy kernel timed next to every
//! measured op; dividing the op's time by it cancels the box's mood.
//!
//! It uses only `std` and calls no repo crate, so no PR can make it faster.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// The yardstick's median on a quiet run of the reference box (2 vCPU).
/// Corrected times read as "milliseconds on that box at that speed".
pub const YARD_REF_MS: f64 = 1.65;

const MAPS: usize = 600;
const ENTRIES: usize = 12;

/// One yardstick sample in milliseconds: build 600 string→string maps of
/// 12 entries, clone the whole vector, collect one column and sort it —
/// the same mix of small allocations, copies and comparisons the document
/// pipeline is made of.
pub fn yardstick() -> f64 {
    let started = Instant::now();
    let mut rows: Vec<BTreeMap<String, String>> = Vec::with_capacity(MAPS);
    for i in 0..MAPS {
        let mut m = BTreeMap::new();
        for j in 0..ENTRIES {
            m.insert(format!("field_{j:02}"), format!("value-{:05}-{j}", (i * 7919 + j * 104_729) % 100_003));
        }
        rows.push(m);
    }
    let cloned = black_box(rows.clone());
    let mut column: Vec<&str> = cloned.iter().filter_map(|m| m.get("field_07").map(String::as_str)).collect();
    column.sort_unstable();
    black_box(&column);
    started.elapsed().as_secs_f64() * 1e3
}

/// Speed-corrects a raw time of `raw_ms`, of which `io_ms` was spent
/// blocked on the disk: `(raw − io) × YARD_REF_MS / median(yards) + io`.
/// `yards` are the yardstick samples around the op (the harness passes up
/// to two before and two after). Only the CPU part scales with the box's
/// speed; time inside `fsync` does not get shorter on a fast day.
pub fn correct(raw_ms: f64, io_ms: f64, yards: &[f64]) -> f64 {
    let io = io_ms.clamp(0.0, raw_ms);
    (raw_ms - io) * YARD_REF_MS / crate::stats::median(yards) + io
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_slowdown_cancels_out() {
        // A box running 1.3× slower stretches ops and yardstick alike.
        let ops = [21.0, 48.5, 33.3, 120.0];
        let yards = [1.71, 1.59, 1.63, 1.70, 1.62, 1.66, 1.64];
        for slow in [1.0, 1.3, 0.8] {
            for (i, op) in ops.iter().enumerate() {
                let window = &yards[i..i + 4];
                let slowed: Vec<f64> = window.iter().map(|y| y * slow).collect();
                let quiet = correct(*op, 0.0, window);
                let loaded = correct(op * slow, 0.0, &slowed);
                assert!((loaded / quiet - 1.0).abs() < 0.01, "{loaded} vs {quiet}");
            }
        }
    }

    #[test]
    fn one_preempted_yardstick_sample_is_ignored() {
        let clean = correct(40.0, 0.0, &[1.6, 1.7, 1.6, 1.7]);
        let spiked = correct(40.0, 0.0, &[1.6, 1.7, 4.9, 1.7]);
        assert!((spiked / clean - 1.0).abs() < 0.04, "{spiked} vs {clean}");
    }

    #[test]
    fn reference_speed_leaves_times_alone() {
        let at_ref = [YARD_REF_MS; 4];
        assert!((correct(50.0, 0.0, &at_ref) - 50.0).abs() < 1e-9);
        // Half speed: a 100 ms reading is 50 ms of reference-box work.
        assert!((correct(100.0, 0.0, &[2.0 * YARD_REF_MS; 4]) - 50.0).abs() < 1e-9);
    }

    #[test]
    fn time_blocked_on_the_disk_is_not_scaled() {
        // 100 ms, 40 of them in fsync, on a box at half speed: the 60 ms of
        // CPU work count as 30, the 40 ms of waiting stay 40.
        assert!((correct(100.0, 40.0, &[2.0 * YARD_REF_MS; 4]) - 70.0).abs() < 1e-9);
        // An I/O reading larger than the op itself is capped.
        assert!((correct(10.0, 25.0, &[2.0 * YARD_REF_MS; 4]) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn yardstick_does_real_work() {
        assert!(yardstick() > 0.05);
    }
}
