//! The language-model interface.
//!
//! Sycamore "supports a variety of LLMs, including OpenAI, Anthropic, and
//! Llama" (§5.2). [`LanguageModel`] is that provider seam: requests carry a
//! prompt and decoding options; responses carry text plus token/cost/latency
//! accounting. The only in-tree implementation is the simulated
//! [`MockLlm`](crate::mock::MockLlm), but everything above this trait
//! (client, transforms, planner) is provider-agnostic.

use aryn_core::Result;

/// A completion request.
#[derive(Debug, Clone, PartialEq)]
pub struct LlmRequest {
    /// The full prompt (system + user concatenated; the simulated models do
    /// not distinguish roles).
    pub prompt: String,
    /// Cap on generated tokens.
    pub max_tokens: usize,
    /// Sampling temperature. The simulated models are deterministic for a
    /// given `(seed, model, prompt)` regardless, but a non-zero temperature
    /// perturbs the error-draw stream, modelling resampling on retry.
    pub temperature: f32,
    /// Retry attempt number, mixed into the error draw so a retry can
    /// genuinely produce a different completion (as resampling would).
    pub attempt: u32,
}

impl LlmRequest {
    pub fn new(prompt: impl Into<String>) -> LlmRequest {
        LlmRequest {
            prompt: prompt.into(),
            max_tokens: 1024,
            temperature: 0.0,
            attempt: 0,
        }
    }

    pub fn with_max_tokens(mut self, n: usize) -> Self {
        self.max_tokens = n;
        self
    }

    pub fn with_temperature(mut self, t: f32) -> Self {
        self.temperature = t;
        self
    }

    pub fn with_attempt(mut self, a: u32) -> Self {
        self.attempt = a;
        self
    }
}

/// Token, dollar, and latency accounting for one call.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Usage {
    pub input_tokens: usize,
    pub output_tokens: usize,
    pub cost_usd: f64,
    /// Simulated wall-clock latency. Models do not sleep; latency is computed
    /// from the spec's tokens/sec so benches can report it deterministically.
    pub latency_ms: f64,
}

impl Usage {
    /// Prompt plus completion tokens.
    pub fn tokens(&self) -> u64 {
        (self.input_tokens + self.output_tokens) as u64
    }

    pub fn add(&mut self, other: &Usage) {
        self.input_tokens += other.input_tokens;
        self.output_tokens += other.output_tokens;
        self.cost_usd += other.cost_usd;
        self.latency_ms += other.latency_ms;
    }
}

/// A completion response.
#[derive(Debug, Clone, PartialEq)]
pub struct LlmResponse {
    pub text: String,
    pub usage: Usage,
    pub model: String,
}

/// A language model endpoint.
pub trait LanguageModel: Send + Sync {
    /// The model identifier, e.g. `"gpt-4-sim"`.
    fn name(&self) -> &str;

    /// Maximum context (prompt + completion) in tokens.
    fn context_window(&self) -> usize;

    /// Runs one completion. Implementations may fail transiently (rate
    /// limits) or with [`aryn_core::ArynError::ContextOverflow`].
    fn generate(&self, req: &LlmRequest) -> Result<LlmResponse>;

    /// True when a response depends on how many calls came before it (a
    /// fault schedule over arrival order), so calls must be issued in input
    /// order for a run to replay. A model that answers from the request
    /// alone — the default — may be called from any number of workers.
    fn order_dependent(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_builder() {
        let r = LlmRequest::new("hi").with_max_tokens(5).with_temperature(0.7).with_attempt(2);
        assert_eq!(r.max_tokens, 5);
        assert_eq!(r.attempt, 2);
        assert!((r.temperature - 0.7).abs() < 1e-6);
    }

    #[test]
    fn usage_accumulates() {
        let mut u = Usage::default();
        u.add(&Usage { input_tokens: 10, output_tokens: 5, cost_usd: 0.01, latency_ms: 3.0 });
        u.add(&Usage { input_tokens: 1, output_tokens: 1, cost_usd: 0.002, latency_ms: 1.0 });
        assert_eq!(u.input_tokens, 11);
        assert_eq!(u.output_tokens, 6);
        assert!((u.cost_usd - 0.012).abs() < 1e-9);
    }
}
