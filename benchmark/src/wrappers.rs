//! Span-recording wrappers for the three seams where a layer accepts a
//! trait object from outside: the language model, the embedder and the
//! filesystem. They let the traced run see those calls *inside* a pipeline
//! stage without touching the repo's crates.

use crate::trace;
use aryn::aryn_core::vfs::Vfs;
use aryn::aryn_core::{ArynError, Result};
use aryn::aryn_llm::{EmbeddingModel, HashedBowEmbedder, LanguageModel, LlmRequest, LlmResponse};
use aryn::sycamore::Context;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// `Context::new()`'s embedder.
pub fn default_embedder() -> HashedBowEmbedder {
    HashedBowEmbedder::new(256, 0xE3B)
}

/// A fresh `Context` like `Context::new()`, its embedder behind the
/// span-recording wrapper (inert unless a traced round is recording).
pub fn traced_context() -> Context {
    Context::with_embedder(Arc::new(TracedEmbedder(Arc::new(default_embedder()))))
}

/// An I/O failure of the benchmark's own file handling, as the repo's error.
pub fn io_err(path: &Path, e: std::io::Error) -> ArynError {
    ArynError::Io(format!("{}: {e}", path.display()))
}

/// `llm.model` span around every `generate`.
pub struct TracedModel(pub Arc<dyn LanguageModel>);

impl LanguageModel for TracedModel {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn context_window(&self) -> usize {
        self.0.context_window()
    }

    fn generate(&self, req: &LlmRequest) -> Result<LlmResponse> {
        let _span = trace::span("llm.model");
        self.0.generate(req)
    }
}

/// A model that answers instantly with a fixed JSON object: what is left
/// of a client call's time is the client's own overhead.
pub struct ZeroCostModel;

impl LanguageModel for ZeroCostModel {
    fn name(&self) -> &str {
        "zero-cost"
    }

    fn context_window(&self) -> usize {
        128_000
    }

    fn generate(&self, _req: &LlmRequest) -> Result<LlmResponse> {
        Ok(LlmResponse {
            text: "{\"answer\": true}".to_string(),
            usage: Default::default(),
            model: "zero-cost".to_string(),
        })
    }
}

/// `llm.embed` span around every `embed`.
pub struct TracedEmbedder(pub Arc<dyn EmbeddingModel>);

impl EmbeddingModel for TracedEmbedder {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn dims(&self) -> usize {
        self.0.dims()
    }

    fn embed(&self, text: &str) -> Vec<f32> {
        let _span = trace::span("llm.embed");
        self.0.embed(text)
    }
}

/// `core.vfs_*` spans around the calls that move bytes or wait for the
/// disk, and a running total of the time spent inside them (always on: the
/// harness leaves that part of an op's time out of the speed correction).
/// Queries (`exists`, `list`) pass straight through.
#[derive(Debug)]
pub struct TracedFs {
    inner: Arc<dyn Vfs>,
    blocked_ns: Arc<AtomicU64>,
}

impl TracedFs {
    pub fn new(inner: Arc<dyn Vfs>, blocked_ns: Arc<AtomicU64>) -> TracedFs {
        TracedFs { inner, blocked_ns }
    }

    fn io<T>(&self, name: &'static str, f: impl FnOnce(&dyn Vfs) -> T) -> T {
        let _span = trace::span(name);
        let started = Instant::now();
        let out = f(self.inner.as_ref());
        self.blocked_ns.fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
        out
    }
}

impl Vfs for TracedFs {
    fn read(&self, path: &Path) -> Result<Vec<u8>> {
        self.io("core.vfs_read", |fs| fs.read(path))
    }

    fn write(&self, path: &Path, data: &[u8]) -> Result<()> {
        self.io("core.vfs_write", |fs| fs.write(path, data))
    }

    fn append(&self, path: &Path, data: &[u8]) -> Result<()> {
        self.io("core.vfs_append", |fs| fs.append(path, data))
    }

    fn sync(&self, path: &Path) -> Result<()> {
        self.io("core.vfs_sync", |fs| fs.sync(path))
    }

    fn rename(&self, from: &Path, to: &Path) -> Result<()> {
        self.io("core.vfs_rename", |fs| fs.rename(from, to))
    }

    fn remove(&self, path: &Path) -> Result<()> {
        self.inner.remove(path)
    }

    fn create_dir_all(&self, path: &Path) -> Result<()> {
        self.inner.create_dir_all(path)
    }

    fn list(&self, dir: &Path) -> Result<Vec<String>> {
        self.inner.list(dir)
    }

    fn exists(&self, path: &Path) -> bool {
        self.inner.exists(path)
    }
}
