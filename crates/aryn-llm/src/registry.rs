//! Model catalogue: capability, cost, and latency profiles.
//!
//! Luna's optimizer "make\[s\] decisions about what ... tool (e.g., GPT-4
//! versus Llama 7B) to use" (§6.1). Those decisions need a price/quality
//! surface to trade over; [`ModelSpec`] defines it for each simulated model.

/// Task families the simulated models are calibrated on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TaskKind {
    /// Schema-driven field extraction.
    Extract,
    /// Yes/no semantic predicate over a document.
    Filter,
    /// Pick one label from a closed set.
    Classify,
    /// Free-text summarization.
    Summarize,
    /// Question answering over provided context (RAG).
    Answer,
    /// Natural-language → query-plan JSON (Luna's planner task).
    Plan,
    /// An indexed multi-document envelope around one inner task (micro-
    /// batching): K items in one prompt, index-keyed JSON object out.
    Batch,
}

impl TaskKind {
    pub fn name(&self) -> &'static str {
        match self {
            TaskKind::Extract => "extract",
            TaskKind::Filter => "filter",
            TaskKind::Classify => "classify",
            TaskKind::Summarize => "summarize",
            TaskKind::Answer => "answer",
            TaskKind::Plan => "plan",
            TaskKind::Batch => "batch",
        }
    }

    pub fn from_name(s: &str) -> Option<TaskKind> {
        Some(match s {
            "extract" => TaskKind::Extract,
            "filter" => TaskKind::Filter,
            "classify" => TaskKind::Classify,
            "summarize" => TaskKind::Summarize,
            "answer" => TaskKind::Answer,
            "plan" => TaskKind::Plan,
            "batch" => TaskKind::Batch,
            _ => return None,
        })
    }
}

/// Static profile of a simulated model.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelSpec {
    pub name: &'static str,
    /// Context window in tokens (prompt + completion).
    pub context_window: usize,
    /// Base task accuracy in `[0,1]`, before difficulty adjustments.
    pub accuracy: TaskAccuracy,
    /// Probability a structured response comes back malformed (prose-wrapped
    /// or truncated JSON) and needs repair or retry.
    pub malformed_rate: f64,
    /// Probability of a transient API failure (rate limit / 5xx).
    pub transient_fail_rate: f64,
    pub usd_per_1k_input: f64,
    pub usd_per_1k_output: f64,
    /// Decoding speed for the latency model.
    pub tokens_per_sec: f64,
    /// Fixed per-call overhead.
    pub base_latency_ms: f64,
    /// Strength of the "lost in the middle" positional decay (0 disables;
    /// see paper §2 / Liu et al. 2023).
    pub lost_in_middle: f64,
}

/// Per-task-kind accuracy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TaskAccuracy {
    pub extract: f64,
    pub filter: f64,
    pub classify: f64,
    pub summarize: f64,
    pub answer: f64,
    pub plan: f64,
}

impl TaskAccuracy {
    pub fn get(&self, kind: TaskKind) -> f64 {
        match kind {
            TaskKind::Extract => self.extract,
            TaskKind::Filter => self.filter,
            TaskKind::Classify => self.classify,
            TaskKind::Summarize => self.summarize,
            TaskKind::Answer => self.answer,
            TaskKind::Plan => self.plan,
            // Batch envelopes carry no accuracy of their own: each packed
            // item is judged with the inner task's accuracy by the mock.
            TaskKind::Batch => self.extract,
        }
    }
}

/// The flagship simulated model: accurate, slow, expensive (GPT-4 class).
pub const GPT4_SIM: ModelSpec = ModelSpec {
    name: "gpt-4-sim",
    context_window: 8192,
    accuracy: TaskAccuracy {
        extract: 0.96,
        filter: 0.94,
        classify: 0.95,
        summarize: 0.95,
        answer: 0.93,
        plan: 0.90,
    },
    malformed_rate: 0.02,
    transient_fail_rate: 0.005,
    usd_per_1k_input: 0.03,
    usd_per_1k_output: 0.06,
    tokens_per_sec: 28.0,
    base_latency_ms: 450.0,
    lost_in_middle: 0.35,
};

/// Mid-tier simulated model (GPT-3.5 class).
pub const GPT35_SIM: ModelSpec = ModelSpec {
    name: "gpt-3.5-sim",
    context_window: 4096,
    accuracy: TaskAccuracy {
        extract: 0.90,
        filter: 0.87,
        classify: 0.88,
        summarize: 0.88,
        answer: 0.84,
        plan: 0.70,
    },
    malformed_rate: 0.06,
    transient_fail_rate: 0.01,
    usd_per_1k_input: 0.001,
    usd_per_1k_output: 0.002,
    tokens_per_sec: 90.0,
    base_latency_ms: 250.0,
    lost_in_middle: 0.5,
};

/// Small open-weights simulated model (Llama-7B class): cheap, fast, noisy.
pub const LLAMA7B_SIM: ModelSpec = ModelSpec {
    name: "llama-7b-sim",
    context_window: 4096,
    accuracy: TaskAccuracy {
        extract: 0.80,
        filter: 0.76,
        classify: 0.78,
        summarize: 0.78,
        answer: 0.70,
        plan: 0.45,
    },
    malformed_rate: 0.14,
    transient_fail_rate: 0.0,
    usd_per_1k_input: 0.0002,
    usd_per_1k_output: 0.0002,
    tokens_per_sec: 140.0,
    base_latency_ms: 80.0,
    lost_in_middle: 0.7,
};

/// All built-in model specs.
pub const ALL_MODELS: &[&ModelSpec] = &[&GPT4_SIM, &GPT35_SIM, &LLAMA7B_SIM];

/// Looks up a built-in spec by name.
pub fn spec_by_name(name: &str) -> Option<&'static ModelSpec> {
    ALL_MODELS.iter().copied().find(|m| m.name == name)
}

/// The degradation ladder from a primary model: the catalogue tiers from
/// `primary` down to the cheapest, in quality order. A model outside the
/// catalogue starts at the top.
pub fn ladder(primary: &str) -> &'static [&'static ModelSpec] {
    let start = ALL_MODELS.iter().position(|m| m.name == primary).unwrap_or(0);
    &ALL_MODELS[start..]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_runs_from_the_primary_down() {
        let names = |primary| ladder(primary).iter().map(|m| m.name).collect::<Vec<_>>();
        assert_eq!(names("gpt-3.5-sim"), ["gpt-3.5-sim", "llama-7b-sim"]);
        assert_eq!(names("llama-7b-sim"), ["llama-7b-sim"]);
        assert_eq!(names("gpt-9").len(), ALL_MODELS.len());
    }

    #[test]
    fn lookup_by_name() {
        assert_eq!(spec_by_name("gpt-4-sim").unwrap().context_window, 8192);
        assert!(spec_by_name("gpt-9").is_none());
    }

    #[test]
    fn quality_cost_ordering_holds() {
        // The optimizer's premise: better models cost more and run slower.
        // (Read through a slice so the comparisons stay runtime checks even
        // though the specs are consts.)
        let by_quality: Vec<&ModelSpec> = ALL_MODELS.to_vec();
        assert!(by_quality[0].accuracy.filter > by_quality[1].accuracy.filter);
        assert!(by_quality[1].accuracy.filter > by_quality[2].accuracy.filter);
        assert!(by_quality[0].usd_per_1k_input > by_quality[1].usd_per_1k_input);
        assert!(by_quality[1].usd_per_1k_input > by_quality[2].usd_per_1k_input);
        assert!(by_quality[0].tokens_per_sec < by_quality[2].tokens_per_sec);
    }

    #[test]
    fn task_kind_names_roundtrip() {
        for k in [
            TaskKind::Extract,
            TaskKind::Filter,
            TaskKind::Classify,
            TaskKind::Summarize,
            TaskKind::Answer,
            TaskKind::Plan,
            TaskKind::Batch,
        ] {
            assert_eq!(TaskKind::from_name(k.name()), Some(k));
        }
        assert_eq!(TaskKind::from_name("poetry"), None);
    }

    #[test]
    fn accuracy_get_matches_fields() {
        assert_eq!(GPT4_SIM.accuracy.get(TaskKind::Plan), 0.90);
        assert_eq!(LLAMA7B_SIM.accuracy.get(TaskKind::Answer), 0.70);
    }
}
