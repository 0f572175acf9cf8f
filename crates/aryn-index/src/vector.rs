//! Vector indexes — the "vector store" sink (paper §3).
//!
//! Two implementations behind one trait: [`FlatIndex`] (exact brute force,
//! the correctness baseline) and [`HnswIndex`] (hierarchical navigable small
//! world graphs, the production ANN structure). Experiment E13 measures the
//! recall/latency trade between them.

use aryn_core::{stable_hash, ArynError, Result};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cell::RefCell;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashSet};
use std::sync::Arc;

/// A scored neighbour.
#[derive(Debug, Clone, PartialEq)]
pub struct Neighbor {
    pub key: String,
    /// Cosine similarity in `[-1, 1]`, higher is closer.
    pub score: f32,
}

/// Common interface for vector indexes.
pub trait VectorIndex: Send + Sync {
    /// Adds a vector under `key`. Errors on dimension mismatch.
    fn add(&mut self, key: &str, vector: Vec<f32>) -> Result<()> {
        self.add_slice(key, &vector)
    }
    /// [`VectorIndex::add`] from a borrowed vector: the index copies it into
    /// its own storage, so callers holding an embedding need not clone it.
    fn add_slice(&mut self, key: &str, vector: &[f32]) -> Result<()>;
    /// Returns up to `k` nearest neighbours by cosine similarity.
    fn search(&self, query: &[f32], k: usize) -> Result<Vec<Neighbor>>;
    fn len(&self) -> usize;
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    fn dims(&self) -> usize;
}

/// Dot product over the common prefix. Eight independent lanes summed in a
/// fixed tree, then the tail: the order is part of the contract, so the loop
/// vectorises and every machine produces the same bits (and so the same
/// graphs and rankings) whatever its SIMD width.
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    let n = a.len().min(b.len());
    let (a, b) = (a[..n].chunks_exact(8), b[..n].chunks_exact(8));
    let tail: f32 = a.remainder().iter().zip(b.remainder()).map(|(x, y)| x * y).sum();
    let mut lanes = [0.0f32; 8];
    for (x, y) in a.zip(b) {
        for i in 0..8 {
            lanes[i] += x[i] * y[i];
        }
    }
    ((lanes[0] + lanes[4]) + (lanes[1] + lanes[5])) + ((lanes[2] + lanes[6]) + (lanes[3] + lanes[7])) + tail
}

fn norm(v: &[f32]) -> f32 {
    dot(v, v).sqrt()
}

/// Keys and vectors in insertion order: one flat arena of stride `dims`
/// plus each vector's norm, computed once at insert so a comparison is one
/// `dot` instead of three.
#[derive(Debug, Clone)]
struct Arena {
    dims: usize,
    keys: Vec<String>,
    data: Vec<f32>,
    norms: Vec<f32>,
}

impl Arena {
    fn new(dims: usize) -> Arena {
        Arena { dims, keys: Vec::new(), data: Vec::new(), norms: Vec::new() }
    }

    fn check(&self, len: usize, what: &str) -> Result<()> {
        if len == self.dims {
            return Ok(());
        }
        Err(ArynError::Index(format!("dimension mismatch: index {} vs {what} {len}", self.dims)))
    }

    /// Appends a vector and returns its id.
    fn push(&mut self, key: &str, vector: &[f32]) -> Result<u32> {
        self.check(vector.len(), "vector")?;
        self.keys.push(key.to_string());
        self.data.extend_from_slice(vector);
        self.norms.push(norm(vector));
        Ok(self.keys.len() as u32 - 1)
    }

    fn vector(&self, id: u32) -> &[f32] {
        &self.data[id as usize * self.dims..(id as usize + 1) * self.dims]
    }

    /// Cosine similarity of a query (with its norm) to a stored vector,
    /// assuming nothing about normalization.
    fn sim(&self, query: &[f32], query_norm: f32, id: u32) -> f32 {
        let n = self.norms[id as usize];
        if query_norm == 0.0 || n == 0.0 {
            return 0.0;
        }
        dot(query, self.vector(id)) / (query_norm * n)
    }

    fn entries(&self) -> impl Iterator<Item = (&str, &[f32])> {
        (0..self.keys.len() as u32).map(|id| (self.keys[id as usize].as_str(), self.vector(id)))
    }

    fn neighbor(&self, score: f32, id: u32) -> Neighbor {
        Neighbor { key: self.keys[id as usize].clone(), score }
    }
}

/// Exact nearest-neighbour search by linear scan.
#[derive(Debug)]
pub struct FlatIndex {
    arena: Arena,
}

impl FlatIndex {
    pub fn new(dims: usize) -> FlatIndex {
        FlatIndex { arena: Arena::new(dims) }
    }
}

impl VectorIndex for FlatIndex {
    fn add_slice(&mut self, key: &str, vector: &[f32]) -> Result<()> {
        self.arena.push(key, vector).map(|_| ())
    }

    fn search(&self, query: &[f32], k: usize) -> Result<Vec<Neighbor>> {
        self.arena.check(query.len(), "query")?;
        let qn = norm(query);
        let mut scored: Vec<(f32, u32)> =
            (0..self.arena.keys.len() as u32).map(|id| (self.arena.sim(query, qn, id), id)).collect();
        scored.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(Ordering::Equal));
        Ok(scored.into_iter().take(k).map(|(score, id)| self.arena.neighbor(score, id)).collect())
    }

    fn len(&self) -> usize {
        self.arena.keys.len()
    }

    fn dims(&self) -> usize {
        self.arena.dims
    }
}

/// HNSW configuration.
#[derive(Debug, Clone, Copy)]
pub struct HnswParams {
    /// Max links per node on upper layers (layer 0 uses `2 * m`).
    pub m: usize,
    /// Candidate-list width during construction.
    pub ef_construction: usize,
    /// Candidate-list width during search.
    pub ef_search: usize,
    pub seed: u64,
}

impl Default for HnswParams {
    fn default() -> Self {
        HnswParams {
            m: 12,
            ef_construction: 80,
            ef_search: 40,
            seed: 0x45_57,
        }
    }
}

/// Hierarchical navigable small-world index.
#[derive(Clone)]
pub struct HnswIndex {
    params: HnswParams,
    arena: Arena,
    /// layers[l][node] = neighbour ids; nodes absent from a layer have no entry.
    layers: Vec<Vec<Vec<u32>>>,
    /// Highest layer of each node.
    node_level: Vec<usize>,
    entry: Option<u32>,
}

/// Max-heap entry by similarity.
#[derive(PartialEq)]
struct Cand(f32, u32);
impl Eq for Cand {}
impl PartialOrd for Cand {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Cand {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.partial_cmp(&other.0).unwrap_or(Ordering::Equal)
    }
}

/// Working memory of one layer search, reused across searches, layers and
/// indexes. `stamp[node] == generation` marks a node visited, so starting a
/// search is a counter bump, never an O(index) clear.
#[derive(Default)]
struct Scratch {
    stamp: Vec<u32>,
    generation: u32,
    candidates: BinaryHeap<Cand>,
    /// The layer search's answer, best first.
    results: Vec<(f32, u32)>,
    /// `(similarity, position, node)` of a link list being pruned.
    prune: Vec<(f32, u32, u32)>,
}

thread_local! {
    /// One scratch per thread: `add` and the `&self` query path share it, so
    /// concurrent queries on a shared index never contend or allocate.
    static SCRATCH: RefCell<Scratch> = RefCell::default();
}

impl Scratch {
    fn begin(&mut self, nodes: usize) {
        self.candidates.clear();
        self.results.clear();
        if self.stamp.len() < nodes {
            self.stamp.resize(nodes, 0);
        }
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            // Wrapped: stamps from 2^32 searches ago would read as visited.
            self.stamp.fill(0);
            self.generation = 1;
        }
    }

    /// Marks `node` visited; false when it already was.
    fn visit(&mut self, node: u32) -> bool {
        let seen = std::mem::replace(&mut self.stamp[node as usize], self.generation);
        seen != self.generation
    }
}

impl HnswIndex {
    pub fn new(dims: usize, params: HnswParams) -> HnswIndex {
        HnswIndex {
            params,
            arena: Arena::new(dims),
            layers: Vec::new(),
            node_level: Vec::new(),
            entry: None,
        }
    }

    pub fn with_dims(dims: usize) -> HnswIndex {
        HnswIndex::new(dims, HnswParams::default())
    }

    fn random_level(&self, node: usize) -> usize {
        // Geometric distribution with p = 1/e-like decay, deterministic per node.
        let mut rng =
            StdRng::seed_from_u64(stable_hash(self.params.seed, &["level", &node.to_string()]));
        let mut level = 0usize;
        while rng.gen::<f64>() < 1.0 / std::f64::consts::E && level < 16 {
            level += 1;
        }
        level
    }

    /// Greedy search on one layer leaving up to `ef` best candidates in
    /// `s.results` (sorted descending); returns the best node.
    fn search_layer(&self, s: &mut Scratch, query: &[f32], qn: f32, entry: u32, ef: usize, layer: usize) -> u32 {
        s.begin(self.arena.keys.len());
        let e_sim = self.arena.sim(query, qn, entry);
        s.visit(entry);
        s.candidates.push(Cand(e_sim, entry));
        s.results.push((e_sim, entry));
        while let Some(Cand(sim, node)) = s.candidates.pop() {
            // Stop when the best remaining candidate is worse than the worst kept.
            let worst = s.results.last().map(|(w, _)| *w).unwrap_or(f32::MIN);
            if s.results.len() >= ef && sim < worst {
                break;
            }
            for &nb in &self.layers[layer][node as usize] {
                if !s.visit(nb) {
                    continue;
                }
                let sim = self.arena.sim(query, qn, nb);
                let worst = s.results.last().map(|(w, _)| *w).unwrap_or(f32::MIN);
                if s.results.len() < ef || sim > worst {
                    s.candidates.push(Cand(sim, nb));
                    let pos = s
                        .results
                        .binary_search_by(|(r, _)| sim.partial_cmp(r).unwrap_or(Ordering::Equal))
                        .unwrap_or_else(|p| p);
                    s.results.insert(pos, (sim, nb));
                    if s.results.len() > ef {
                        s.results.pop();
                    }
                }
            }
        }
        s.results.first().map_or(entry, |(_, best)| *best)
    }

    /// Key/vector pairs in insertion order — used by sharded wrappers to
    /// rebuild or compact shards without re-embedding.
    pub fn entries(&self) -> impl Iterator<Item = (&str, &[f32])> {
        self.arena.entries()
    }

    fn max_links(&self, layer: usize) -> usize {
        if layer == 0 {
            self.params.m * 2
        } else {
            self.params.m
        }
    }

    fn link(&mut self, s: &mut Scratch, layer: usize, a: u32, b: u32) {
        if a == b {
            return;
        }
        let max_links = self.max_links(layer);
        for (x, y) in [(a, b), (b, a)] {
            let links = &mut self.layers[layer][x as usize];
            if !links.contains(&y) {
                links.push(y);
            }
            if links.len() > max_links {
                // Prune: keep the most similar neighbours, earlier links
                // first among equals (a stable sort without its buffer).
                let (base, bn) = (self.arena.vector(x), self.arena.norms[x as usize]);
                s.prune.clear();
                s.prune.extend(links.iter().zip(0u32..).map(|(&n, pos)| (self.arena.sim(base, bn, n), pos, n)));
                s.prune.sort_unstable_by(|p, q| q.0.partial_cmp(&p.0).unwrap_or(Ordering::Equal).then(p.1.cmp(&q.1)));
                links.clear();
                links.extend(s.prune.iter().take(max_links).map(|&(_, _, n)| n));
            }
        }
    }

    /// Links node `id` (already in the arena and layer tables) into the graph.
    fn insert(&mut self, s: &mut Scratch, id: u32, level: usize, entry: u32, query: &[f32]) {
        let qn = self.arena.norms[id as usize];
        let top = self.layers.len() - 1;
        let mut cur = entry;
        // Descend from the top to level+1 greedily.
        for layer in (level + 1..=top).rev() {
            cur = self.search_layer(s, query, qn, cur, 1, layer);
        }
        // Insert with links from level down to 0.
        for layer in (0..=level.min(top)).rev() {
            cur = self.search_layer(s, query, qn, cur, self.params.ef_construction, layer);
            // `link` prunes through its own buffer, so `results` stays put.
            for i in 0..s.results.len().min(self.max_links(layer)) {
                let nb = s.results[i].1;
                self.link(s, layer, id, nb);
            }
        }
    }

    /// Releases growth slack once the index stops taking inserts.
    fn shrink_to_fit(&mut self) {
        self.arena.keys.shrink_to_fit();
        self.arena.data.shrink_to_fit();
        self.arena.norms.shrink_to_fit();
    }
}

impl VectorIndex for HnswIndex {
    fn add_slice(&mut self, key: &str, vector: &[f32]) -> Result<()> {
        let id = self.arena.push(key, vector)?;
        let level = self.random_level(id as usize);
        self.node_level.push(level);
        while self.layers.len() <= level {
            // New top layer: every existing node slot exists but unlinked.
            self.layers.push(vec![Vec::new(); id as usize]);
        }
        for layer in &mut self.layers {
            layer.push(Vec::new());
        }
        let Some(entry) = self.entry else {
            self.entry = Some(id);
            return Ok(());
        };
        SCRATCH.with(|s| self.insert(&mut s.borrow_mut(), id, level, entry, vector));
        // Track the entry point at the highest level (`entry` is the
        // pre-insert entry point bound above).
        if level >= self.node_level[entry as usize] {
            self.entry = Some(id);
        }
        Ok(())
    }

    fn search(&self, query: &[f32], k: usize) -> Result<Vec<Neighbor>> {
        self.arena.check(query.len(), "query")?;
        let Some(entry) = self.entry else {
            return Ok(Vec::new());
        };
        let qn = norm(query);
        SCRATCH.with(|s| {
            let s = &mut *s.borrow_mut();
            let mut cur = entry;
            for layer in (1..self.layers.len()).rev() {
                cur = self.search_layer(s, query, qn, cur, 1, layer);
            }
            self.search_layer(s, query, qn, cur, self.params.ef_search.max(k), 0);
            Ok(s.results.iter().take(k).map(|&(score, id)| self.arena.neighbor(score, id)).collect())
        })
    }

    fn len(&self) -> usize {
        self.arena.keys.len()
    }

    fn dims(&self) -> usize {
        self.arena.dims
    }
}

/// Sentinel shard location for keys owned by the active (unsealed) shard.
const ACTIVE_SHARD: usize = usize::MAX;

/// An incrementally-maintained ANN index: immutable sealed [`HnswIndex`]
/// shards plus one bounded active shard (DESIGN.md §5j). Inserts are O(doc)
/// against the small active shard; deletes and overwrites of sealed keys are
/// tombstones (ownership moves; stale copies are filtered out of results at
/// query time and physically dropped by [`ShardedHnsw::compact`]). Searches
/// fan out over all shards, over-fetching by the live tombstone count, and
/// merge by score with deterministic key tie-breaks.
pub struct ShardedHnsw {
    dims: usize,
    params: HnswParams,
    /// Active-shard size that triggers an automatic seal; `0` = never.
    shard_cap: usize,
    sealed: Vec<Arc<HnswIndex>>,
    active: HnswIndex,
    /// key -> owning shard (sealed position or [`ACTIVE_SHARD`]).
    owner: std::collections::BTreeMap<String, usize>,
    /// Stale copies lingering in sealed shards.
    dead: usize,
}

impl ShardedHnsw {
    pub fn new(dims: usize, shard_cap: usize) -> ShardedHnsw {
        ShardedHnsw::with_params(dims, HnswParams::default(), shard_cap)
    }

    pub fn with_params(dims: usize, params: HnswParams, shard_cap: usize) -> ShardedHnsw {
        ShardedHnsw {
            dims,
            params,
            shard_cap,
            sealed: Vec::new(),
            active: HnswIndex::new(dims, params),
            owner: std::collections::BTreeMap::new(),
            dead: 0,
        }
    }

    pub fn sealed_count(&self) -> usize {
        self.sealed.len()
    }

    /// Stale copies awaiting compaction.
    pub fn dead(&self) -> usize {
        self.dead
    }

    fn layers(&self) -> impl Iterator<Item = (usize, &HnswIndex)> {
        self.sealed
            .iter()
            .enumerate()
            .map(|(i, s)| (i, s.as_ref()))
            .chain(std::iter::once((ACTIVE_SHARD, &self.active)))
    }

    /// Rebuilds the active shard without `key` (HNSW graphs do not support
    /// in-place deletion; the active shard is bounded so this is O(cap)).
    fn rebuild_active_without(&mut self, key: &str) {
        let old = std::mem::replace(&mut self.active, HnswIndex::new(self.dims, self.params));
        for (k, v) in old.entries().filter(|(k, _)| *k != key) {
            let _ = self.active.add_slice(k, v);
        }
    }

    /// Removes a key. Sealed copies become tombstones filtered at query
    /// time until the next compaction.
    pub fn remove(&mut self, key: &str) -> bool {
        match self.owner.remove(key) {
            Some(ACTIVE_SHARD) => {
                self.rebuild_active_without(key);
                true
            }
            Some(_) => {
                self.dead += 1;
                true
            }
            None => false,
        }
    }

    /// Freezes the active shard (no-op when empty). Relabels only the keys
    /// the shard holds, so a seal costs O(shard), not O(corpus).
    pub fn seal_active(&mut self) {
        if self.active.is_empty() {
            return;
        }
        let idx = self.sealed.len();
        let mut frozen = std::mem::replace(&mut self.active, HnswIndex::new(self.dims, self.params));
        for (key, _) in frozen.entries() {
            if let Some(loc) = self.owner.get_mut(key) {
                *loc = idx;
            }
        }
        frozen.shrink_to_fit();
        self.sealed.push(Arc::new(frozen));
    }

    /// Tiered compaction: seals the active shard, drops every stale copy,
    /// and merges small sealed shards into settled shards of at most
    /// `4 * shard_cap` vectors (unbounded when `shard_cap == 0`). A settled
    /// shard with no stale copies is carried over by `Arc` without any
    /// rebuild, so compaction work stays proportional to the *recently
    /// ingested* tail rather than the whole corpus — and per-shard graphs
    /// stay small enough that fan-out search keeps near-exact recall.
    /// Deterministic: shards are replayed in order, straight from their
    /// arenas, so the rebuilt graphs are reproducible. A graph is a pure
    /// function of its entry sequence (levels are seeded by node position),
    /// so a merge whose first shard has no stale copies starts from that
    /// shard's graph instead of replaying it: the same graph, built once.
    pub fn compact(&mut self) {
        self.seal_active();
        let tier_cap = if self.shard_cap == 0 {
            usize::MAX
        } else {
            self.shard_cap.saturating_mul(4)
        };
        let mut old = std::mem::take(&mut self.sealed);
        let mut new_sealed: Vec<Arc<HnswIndex>> = Vec::new();
        let mut remap: Vec<usize> = vec![0; old.len()];
        // Shards awaiting a merge, with their live entry counts.
        let mut pending: Vec<(usize, usize)> = Vec::new();
        let mut flush = |old: &mut [Arc<HnswIndex>], pending: &mut Vec<(usize, usize)>| {
            let Some(&(first, n)) = pending.first() else { return };
            let mut replay = &pending[..];
            let mut merged = if n == old[first].len() {
                replay = &pending[1..];
                let placeholder = Arc::new(HnswIndex::new(self.dims, self.params));
                Arc::unwrap_or_clone(std::mem::replace(&mut old[first], placeholder))
            } else {
                HnswIndex::new(self.dims, self.params)
            };
            for &(i, _) in replay {
                for (k, v) in old[i].entries().filter(|(k, _)| self.owner.get(*k) == Some(&i)) {
                    let _ = merged.add_slice(k, v);
                }
            }
            for (i, _) in pending.drain(..) {
                remap[i] = new_sealed.len();
            }
            if !merged.is_empty() {
                merged.shrink_to_fit();
                new_sealed.push(Arc::new(merged));
            }
        };
        for i in 0..old.len() {
            let n = old[i].entries().filter(|(k, _)| self.owner.get(*k) == Some(&i)).count();
            let settled = n == old[i].len() && n >= tier_cap;
            if settled || pending.iter().map(|p| p.1).sum::<usize>() + n > tier_cap {
                flush(&mut old, &mut pending);
            }
            pending.push((i, n));
            if settled {
                // Settled and clean: kept as it is, zero work.
                flush(&mut old, &mut pending);
            }
        }
        flush(&mut old, &mut pending);
        self.sealed = new_sealed;
        for loc in self.owner.values_mut() {
            *loc = remap[*loc];
        }
        self.dead = 0;
    }
}

impl VectorIndex for ShardedHnsw {
    /// Adds (or replaces) a vector — O(doc) work against the bounded active
    /// shard regardless of total corpus size.
    fn add_slice(&mut self, key: &str, vector: &[f32]) -> Result<()> {
        self.active.arena.check(vector.len(), "vector")?;
        match self.owner.get(key) {
            Some(&ACTIVE_SHARD) => self.rebuild_active_without(key),
            Some(_) => self.dead += 1,
            None => {}
        }
        self.active.add_slice(key, vector)?;
        self.owner.insert(key.to_string(), ACTIVE_SHARD);
        if self.shard_cap > 0 && self.active.len() >= self.shard_cap {
            self.seal_active();
        }
        Ok(())
    }

    fn search(&self, query: &[f32], k: usize) -> Result<Vec<Neighbor>> {
        self.active.arena.check(query.len(), "query")?;
        // Over-fetch per shard by the stale-copy count so tombstone
        // filtering cannot starve the merged top-k.
        let fetch = k.saturating_add(self.dead);
        let mut merged: Vec<Neighbor> = Vec::new();
        for (loc, shard) in self.layers() {
            for n in shard.search(query, fetch)? {
                if self.owner.get(&n.key) == Some(&loc) {
                    merged.push(n);
                }
            }
        }
        merged.sort_by(|a, b| {
            b.score
                .partial_cmp(&a.score)
                .unwrap_or(Ordering::Equal)
                .then_with(|| a.key.cmp(&b.key))
        });
        merged.truncate(k);
        Ok(merged)
    }

    fn len(&self) -> usize {
        self.owner.len()
    }

    fn dims(&self) -> usize {
        self.dims
    }
}

/// Recall@k of `test` against the exact index `truth` over given queries.
pub fn recall_at_k(
    truth: &dyn VectorIndex,
    test: &dyn VectorIndex,
    queries: &[Vec<f32>],
    k: usize,
) -> Result<f64> {
    if queries.is_empty() {
        return Ok(0.0);
    }
    let mut hit = 0usize;
    let mut total = 0usize;
    for q in queries {
        let want: HashSet<String> = truth.search(q, k)?.into_iter().map(|n| n.key).collect();
        let got = test.search(q, k)?;
        hit += got.iter().filter(|n| want.contains(&n.key)).count();
        total += want.len();
    }
    Ok(hit as f64 / total.max(1) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use aryn_llm::{EmbeddingModel, HashedBowEmbedder};

    fn random_vectors(n: usize, dims: usize, seed: u64) -> Vec<Vec<f32>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let mut v: Vec<f32> = (0..dims).map(|_| rng.gen_range(-1.0..1.0)).collect();
                let n = norm(&v);
                v.iter_mut().for_each(|x| *x /= n);
                v
            })
            .collect()
    }

    #[test]
    fn flat_finds_exact_nearest() {
        let mut ix = FlatIndex::new(4);
        ix.add("x", vec![1.0, 0.0, 0.0, 0.0]).unwrap();
        ix.add("y", vec![0.0, 1.0, 0.0, 0.0]).unwrap();
        ix.add("xy", vec![0.7, 0.7, 0.0, 0.0]).unwrap();
        let out = ix.search(&[1.0, 0.1, 0.0, 0.0], 2).unwrap();
        assert_eq!(out[0].key, "x");
        assert_eq!(out[1].key, "xy");
    }

    #[test]
    fn dimension_mismatch_errors() {
        let mut ix = FlatIndex::new(4);
        assert!(ix.add("a", vec![1.0]).is_err());
        ix.add("a", vec![1.0, 0.0, 0.0, 0.0]).unwrap();
        assert!(ix.search(&[1.0], 1).is_err());
        let mut h = HnswIndex::with_dims(4);
        assert!(h.add("a", vec![1.0]).is_err());
    }

    #[test]
    fn hnsw_matches_flat_on_small_sets() {
        // With few points HNSW degenerates to near-exhaustive search.
        let vecs = random_vectors(30, 16, 3);
        let mut flat = FlatIndex::new(16);
        let mut hnsw = HnswIndex::with_dims(16);
        for (i, v) in vecs.iter().enumerate() {
            flat.add(&format!("v{i}"), v.clone()).unwrap();
            hnsw.add(&format!("v{i}"), v.clone()).unwrap();
        }
        for q in random_vectors(10, 16, 7) {
            let a = flat.search(&q, 1).unwrap();
            let b = hnsw.search(&q, 1).unwrap();
            assert_eq!(a[0].key, b[0].key);
        }
    }

    #[test]
    fn hnsw_recall_is_high_on_larger_sets() {
        let vecs = random_vectors(800, 32, 5);
        let mut flat = FlatIndex::new(32);
        let mut hnsw = HnswIndex::with_dims(32);
        for (i, v) in vecs.iter().enumerate() {
            flat.add(&format!("v{i}"), v.clone()).unwrap();
            hnsw.add(&format!("v{i}"), v.clone()).unwrap();
        }
        let queries = random_vectors(30, 32, 11);
        let r = recall_at_k(&flat, &hnsw, &queries, 10).unwrap();
        assert!(r > 0.85, "recall@10 = {r}");
    }

    #[test]
    fn hnsw_on_real_embeddings() {
        let emb = HashedBowEmbedder::new(128, 1);
        let mut hnsw = HnswIndex::with_dims(128);
        let texts = [
            "wind gusts during landing approach",
            "engine failure over mountains",
            "record quarterly revenue growth",
            "fog obscured the runway at night",
        ];
        for (i, t) in texts.iter().enumerate() {
            hnsw.add(&format!("t{i}"), emb.embed(t)).unwrap();
        }
        let out = hnsw.search(&emb.embed("strong winds on approach to land"), 1).unwrap();
        assert_eq!(out[0].key, "t0");
    }

    #[test]
    fn empty_index_returns_empty() {
        let h = HnswIndex::with_dims(8);
        assert!(h.search(&[0.0; 8], 3).unwrap().is_empty());
        assert!(h.is_empty());
    }

    #[test]
    fn search_is_deterministic() {
        let vecs = random_vectors(200, 16, 9);
        let mut h = HnswIndex::with_dims(16);
        for (i, v) in vecs.iter().enumerate() {
            h.add(&format!("v{i}"), v.clone()).unwrap();
        }
        let q = &random_vectors(1, 16, 13)[0];
        assert_eq!(h.search(q, 5).unwrap(), h.search(q, 5).unwrap());
    }

    #[test]
    fn sharded_hnsw_recall_with_seals_and_tombstones() {
        let vecs = random_vectors(600, 32, 21);
        let mut flat = FlatIndex::new(32);
        let mut sharded = ShardedHnsw::new(32, 128); // several seals
        for (i, v) in vecs.iter().enumerate() {
            sharded.add(&format!("v{i}"), v.clone()).unwrap();
        }
        assert!(sharded.sealed_count() >= 3);
        // Delete a slice (some sealed, some active), then build the exact
        // baseline over the surviving set only.
        for i in (0..600).step_by(10) {
            assert!(sharded.remove(&format!("v{i}")));
        }
        assert!(sharded.dead() > 0);
        for (i, v) in vecs.iter().enumerate() {
            if i % 10 != 0 {
                flat.add(&format!("v{i}"), v.clone()).unwrap();
            }
        }
        assert_eq!(sharded.len(), flat.len());
        let queries = random_vectors(20, 32, 23);
        let r = recall_at_k(&flat, &sharded, &queries, 10).unwrap();
        assert!(r >= 0.9, "sharded recall@10 = {r}");
        // Tombstoned keys never surface.
        for q in &queries {
            for n in sharded.search(q, 20).unwrap() {
                let i: usize = n.key[1..].parse().unwrap();
                assert_ne!(i % 10, 0, "tombstoned {} returned", n.key);
            }
        }
        // Compaction drops the stale copies without changing results much.
        // Tiered merge (cap 128 -> 512-vector tiers) leaves a couple of
        // settled shards instead of one monolith.
        let before = sharded.sealed_count();
        sharded.compact();
        assert_eq!(sharded.dead(), 0);
        assert!(sharded.sealed_count() <= before.min(2), "540 live / 512-tier");
        let r2 = recall_at_k(&flat, &sharded, &queries, 10).unwrap();
        assert!(r2 >= 0.9, "post-compaction recall@10 = {r2}");
    }

    #[test]
    fn sharded_hnsw_replace_updates_vector() {
        let mut sharded = ShardedHnsw::new(4, 3);
        sharded.add("a", vec![1.0, 0.0, 0.0, 0.0]).unwrap();
        sharded.add("b", vec![0.0, 1.0, 0.0, 0.0]).unwrap();
        sharded.add("c", vec![0.0, 0.0, 1.0, 0.0]).unwrap();
        assert_eq!(sharded.sealed_count(), 1, "cap 3 seals");
        // Replace a sealed key: the stale copy must be shadowed.
        sharded.add("a", vec![0.0, 0.0, 0.0, 1.0]).unwrap();
        assert_eq!(sharded.len(), 3);
        let out = sharded.search(&[0.0, 0.0, 0.0, 1.0], 1).unwrap();
        assert_eq!(out[0].key, "a");
        let out = sharded.search(&[1.0, 0.05, 0.0, 0.0], 3).unwrap();
        assert_ne!(out[0].key, "a", "old vector for `a` is dead");
        // Deterministic across identical rebuilds.
        let out2 = sharded.search(&[1.0, 0.05, 0.0, 0.0], 3).unwrap();
        assert_eq!(out, out2);
    }

    /// Seals as `seal_active` did before it relabelled only its own keys.
    fn seal_walking_every_owner(ix: &mut ShardedHnsw) {
        let idx = ix.sealed.len();
        ix.owner.values_mut().filter(|loc| **loc == ACTIVE_SHARD).for_each(|loc| *loc = idx);
        let frozen = std::mem::replace(&mut ix.active, HnswIndex::new(ix.dims, ix.params));
        ix.sealed.push(Arc::new(frozen));
    }

    #[test]
    fn seals_relabel_exactly_like_a_full_owner_walk() {
        let cap = 16;
        let (mut fast, mut walked) = (ShardedHnsw::new(8, cap), ShardedHnsw::new(8, 0));
        for (i, v) in random_vectors(5 * cap, 8, 17).iter().enumerate() {
            // Every fifth add overwrites an older, mostly sealed key; every
            // seventh step tombstones one.
            let key = if i % 5 == 4 { format!("v{}", i / 2) } else { format!("v{i}") };
            for ix in [&mut fast, &mut walked] {
                ix.add_slice(&key, v).unwrap();
                if i % 7 == 6 {
                    ix.remove(&format!("v{}", i / 3));
                }
            }
            if walked.active.len() >= cap {
                seal_walking_every_owner(&mut walked);
            }
        }
        assert!(fast.sealed_count() >= 4 && fast.dead() > 0);
        assert_eq!((fast.sealed_count(), fast.dead()), (walked.sealed_count(), walked.dead()));
        assert_eq!(fast.owner, walked.owner);
        for q in random_vectors(10, 8, 19) {
            assert_eq!(fast.search(&q, 10).unwrap(), walked.search(&q, 10).unwrap());
        }
    }

    /// Compaction as it stood before reusing a clean first shard: every
    /// merged shard is a fresh graph fed its live entries in shard order.
    fn compact_by_replay(ix: &mut ShardedHnsw) {
        ix.seal_active();
        let tier_cap = if ix.shard_cap == 0 { usize::MAX } else { ix.shard_cap * 4 };
        let (old, owner, dims, params) = (std::mem::take(&mut ix.sealed), &ix.owner, ix.dims, ix.params);
        let live = |i: usize| old[i].entries().filter(move |(k, _)| owner.get(*k) == Some(&i)).collect::<Vec<_>>();
        let (mut new_sealed, mut remap, mut pending) = (Vec::new(), vec![0; old.len()], Vec::<(usize, usize)>::new());
        let flush = |pending: &mut Vec<(usize, usize)>, new_sealed: &mut Vec<Arc<HnswIndex>>, remap: &mut [usize]| {
            let mut merged = HnswIndex::new(dims, params);
            for (i, _) in pending.drain(..) {
                remap[i] = new_sealed.len();
                live(i).into_iter().for_each(|(k, v)| merged.add_slice(k, v).unwrap());
            }
            if !merged.is_empty() {
                new_sealed.push(Arc::new(merged));
            }
        };
        for (i, shard) in old.iter().enumerate() {
            let n = live(i).len();
            let settled = n == shard.len() && n >= tier_cap;
            if settled || pending.iter().map(|p| p.1).sum::<usize>() + n > tier_cap {
                flush(&mut pending, &mut new_sealed, &mut remap);
            }
            if settled {
                remap[i] = new_sealed.len();
                new_sealed.push(Arc::clone(shard));
            } else {
                pending.push((i, n));
            }
        }
        flush(&mut pending, &mut new_sealed, &mut remap);
        ix.sealed = new_sealed;
        ix.owner.values_mut().for_each(|loc| *loc = remap[*loc]);
        ix.dead = 0;
    }

    fn same_graph(a: &HnswIndex, b: &HnswIndex) -> bool {
        (&a.arena.keys, &a.arena.data, &a.arena.norms) == (&b.arena.keys, &b.arena.data, &b.arena.norms)
            && (&a.layers, &a.node_level, a.entry) == (&b.layers, &b.node_level, b.entry)
    }

    #[test]
    fn compaction_equals_a_rebuild_from_the_same_entries() {
        let vecs = random_vectors(90, 16, 41);
        let queries = random_vectors(12, 16, 43);
        // `stale` removes keys from the first sealed shard, so its merge
        // must fall back to a full replay; otherwise that shard is reused.
        for stale in [false, true] {
            let build = || {
                let mut ix = ShardedHnsw::new(16, 10);
                for (i, v) in vecs.iter().enumerate() {
                    ix.add_slice(&format!("v{i}"), v).unwrap();
                    if i % 9 == 8 {
                        // Tombstone a key in a later shard, or in the first.
                        let victim = if stale { i / 9 } else { i.saturating_sub(4) };
                        ix.remove(&format!("v{victim}"));
                    }
                }
                ix
            };
            let (mut fast, mut slow) = (build(), build());
            assert_eq!(fast.sealed[0].len() == fast.sealed[0].entries().filter(|(k, _)| fast.owner.get(*k) == Some(&0)).count(), !stale);
            fast.compact();
            compact_by_replay(&mut slow);
            assert_eq!(fast.sealed.len(), slow.sealed.len(), "stale={stale}");
            assert!(fast.sealed.iter().zip(&slow.sealed).all(|(a, b)| same_graph(a, b)), "stale={stale}");
            assert_eq!(fast.owner, slow.owner);
            for q in &queries {
                assert_eq!(fast.search(q, 10).unwrap(), slow.search(q, 10).unwrap(), "stale={stale}");
            }
            // A second compaction over a settled-size tail agrees as well.
            for (i, v) in vecs.iter().enumerate().take(25) {
                for ix in [&mut fast, &mut slow] {
                    ix.add_slice(&format!("w{i}"), v).unwrap();
                }
            }
            fast.compact();
            compact_by_replay(&mut slow);
            assert!(fast.sealed.iter().zip(&slow.sealed).all(|(a, b)| same_graph(a, b)), "stale={stale}");
        }
    }

    #[test]
    fn generation_wrap_keeps_results_identical() {
        let vecs = random_vectors(300, 16, 31);
        let build = || {
            let mut h = HnswIndex::with_dims(16);
            vecs.iter().enumerate().for_each(|(i, v)| h.add_slice(&format!("v{i}"), v).unwrap());
            h
        };
        let queries = random_vectors(10, 16, 33);
        let want: Vec<_> = queries.iter().map(|q| build().search(q, 10).unwrap()).collect();
        // Wrap in the middle of construction: stale stamps must not read as visited.
        SCRATCH.with(|s| s.borrow_mut().generation = u32::MAX - 200);
        let wrapped = build();
        assert!(SCRATCH.with(|s| s.borrow().generation) < u32::MAX / 2, "the counter wrapped");
        let got: Vec<_> = queries.iter().map(|q| wrapped.search(q, 10).unwrap()).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn recall_of_truth_against_itself_is_one() {
        let vecs = random_vectors(50, 8, 2);
        let mut flat = FlatIndex::new(8);
        for (i, v) in vecs.iter().enumerate() {
            flat.add(&format!("v{i}"), v.clone()).unwrap();
        }
        let queries = random_vectors(5, 8, 3);
        let r = recall_at_k(&flat, &flat, &queries, 5).unwrap();
        assert!((r - 1.0).abs() < 1e-9);
    }
}
