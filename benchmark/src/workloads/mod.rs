//! The four workloads. Each is a fixed list of ops run round after round;
//! the harness times the ops, the workload checks their outputs.

pub mod ask;
pub mod etl_pages;
pub mod stream_durable;

use crate::harness::SetupClock;
use aryn::aryn_core::Result;

/// Outcome of checking one op's output against the oracle.
#[derive(Debug, Clone, PartialEq)]
pub struct Verdict {
    /// Oracle checks that passed / were made (an op may carry many: one
    /// per extracted field, one per probe).
    pub matched: u64,
    pub checked: u64,
    /// Hash of the op's output: every round must reproduce round 1's.
    pub fingerprint: u64,
    /// What the first failed check expected and got, for the report.
    pub why: Option<String>,
}

/// Cumulative LLM usage, for the per-op call/token/dollar metrics.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LlmUsage {
    pub calls: u64,
    pub tokens: u64,
    pub usd: f64,
}

pub trait Workload {
    fn ops_per_round(&self) -> usize;

    /// Untimed: per-round state (a fresh `Context`, an empty directory).
    fn begin_round(&mut self) -> Result<()>;

    /// Timed: one op. With `traced` an op that is one call (`Luna::ask`,
    /// a DocSet pipeline) runs as its public steps instead, a span around
    /// each; the outputs must be the same either way. Spans themselves need
    /// no switch: they are inert unless a traced round is recording.
    fn run_op(&mut self, op: usize, traced: bool) -> Result<()>;

    /// Untimed: checks the output of the op that just ran.
    fn check_op(&mut self, op: usize) -> Verdict;

    /// Timed: work that belongs to the round but to no op (counted in the
    /// round's time, not in op percentiles). Returns its check, if any.
    fn end_round(&mut self) -> Result<Option<Verdict>> {
        Ok(None)
    }

    /// Untimed: what an exporter would do between rounds (drain telemetry).
    fn after_round(&mut self) {}

    /// Structural facts about the workload that must hold for the numbers
    /// to mean what the README says (e.g. every plan has a semantic node).
    /// Checked once, after the warm-up round.
    fn shape_ok(&self) -> std::result::Result<(), String> {
        Ok(())
    }

    /// The share of oracle checks that must pass for the run to count as
    /// correct. 1.0 unless the workload's inputs are noisy by design.
    fn accuracy_floor(&self) -> f64 {
        1.0
    }

    /// Cumulative milliseconds spent blocked on the disk (fsync and
    /// friends). That part of an op's time is not speed-corrected.
    fn io_ms(&self) -> f64 {
        0.0
    }

    fn llm_usage(&self) -> LlmUsage;

    /// Spans the repo's own telemetry collector holds right now.
    fn telemetry_spans(&self) -> usize;
}

/// Input sizes: full for measurement, a quarter for the smoke mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Smoke,
}

impl Size {
    pub fn of(self, full: usize) -> usize {
        match self {
            Size::Full => full,
            Size::Smoke => (full / 4).max(1),
        }
    }
}

/// Builds a workload from a seed. Set-up phases are timed through `clock`.
pub fn build(
    name: &str,
    seed: u64,
    size: Size,
    scratch: &std::path::Path,
    clock: &mut SetupClock,
) -> Result<Box<dyn Workload>> {
    match name {
        "etl_pages" => Ok(Box::new(etl_pages::EtlPages::setup(seed, size, clock)?)),
        "ask_structured" => Ok(Box::new(ask::Ask::setup(ask::Kind::Structured, seed, size, clock)?)),
        "ask_semantic" => Ok(Box::new(ask::Ask::setup(ask::Kind::Semantic, seed, size, clock)?)),
        "stream_durable" => Ok(Box::new(stream_durable::StreamDurable::setup(seed, size, scratch, clock)?)),
        other => Err(aryn::aryn_core::ArynError::Other(format!("unknown workload {other:?}"))),
    }
}

/// FNV-1a over bytes: the output fingerprint. Stable across runs and
/// platforms, unlike the std hasher.
pub fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    let mut h = if hash == 0 { 0xcbf2_9ce4_8422_2325 } else { hash };
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}
