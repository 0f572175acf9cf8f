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
use std::collections::{BTreeMap, BinaryHeap, HashSet};
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
    /// Every live key with its stored vector, in insertion order per graph:
    /// what a sharded index replays, and what an audit compares.
    fn entries(&self) -> Box<dyn Iterator<Item = (&str, &[f32])> + '_>;
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

    fn entries(&self) -> Box<dyn Iterator<Item = (&str, &[f32])> + '_> {
        Box::new(self.arena.entries())
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

/// One edge of the graph: the neighbour and its similarity to the list's
/// owner, computed once when the edge is made. [`dot`] multiplies pairwise
/// and sums in a fixed order, so cosine is symmetric bit for bit: both ends
/// of an edge hold the same value, and a prune reads exactly what
/// recomputing it would give.
#[derive(Clone, Copy, PartialEq)]
struct Link {
    sim: f32,
    id: u32,
}

/// Hierarchical navigable small-world index.
#[derive(Clone)]
pub struct HnswIndex {
    params: HnswParams,
    arena: Arena,
    /// layers[l][node] = the node's links; nodes absent from a layer have no
    /// entry.
    layers: Vec<Vec<Vec<Link>>>,
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
            for &Link { id: nb, .. } in &self.layers[layer][node as usize] {
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

    /// Leaves the best `max(ef_search, k)` nodes for `query` (of norm `qn`)
    /// in `s.results`, best first; none when the index is empty.
    fn search_nodes(&self, s: &mut Scratch, query: &[f32], qn: f32, k: usize) {
        s.results.clear();
        let Some(entry) = self.entry else { return };
        let mut cur = entry;
        for layer in (1..self.layers.len()).rev() {
            cur = self.search_layer(s, query, qn, cur, 1, layer);
        }
        self.search_layer(s, query, qn, cur, self.params.ef_search.max(k), 0);
    }

    fn max_links(&self, layer: usize) -> usize {
        if layer == 0 {
            self.params.m * 2
        } else {
            self.params.m
        }
    }

    /// Links `a` and `b` both ways (`sim` is their similarity), pruning a
    /// list that overflows.
    fn link(&mut self, s: &mut Scratch, layer: usize, a: u32, b: u32, sim: f32) {
        if a == b {
            return;
        }
        let max_links = self.max_links(layer);
        for (x, y) in [(a, b), (b, a)] {
            let links = &mut self.layers[layer][x as usize];
            if links.iter().any(|l| l.id == y) {
                continue;
            }
            links.push(Link { sim, id: y });
            if links.len() > max_links {
                // Prune: keep the most similar neighbours, earlier links
                // first among equals (a stable sort without its buffer).
                s.prune.clear();
                s.prune.extend(links.iter().zip(0u32..).map(|(l, pos)| (l.sim, pos, l.id)));
                s.prune.sort_unstable_by(|p, q| q.0.partial_cmp(&p.0).unwrap_or(Ordering::Equal).then(p.1.cmp(&q.1)));
                links.clear();
                links.extend(s.prune.iter().take(max_links).map(|&(sim, _, id)| Link { sim, id }));
            }
        }
    }

    /// Links node `id` (already in the arena and layer tables) into the graph.
    fn connect(&mut self, s: &mut Scratch, id: u32, level: usize, entry: u32, query: &[f32]) {
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
                let (sim, nb) = s.results[i];
                self.link(s, layer, id, nb, sim);
            }
        }
    }

    /// Adds a vector and links it into the graph; returns its node id.
    fn add_node(&mut self, key: &str, vector: &[f32]) -> Result<u32> {
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
            return Ok(id);
        };
        SCRATCH.with(|s| self.connect(&mut s.borrow_mut(), id, level, entry, vector));
        // Track the entry point at the highest level (`entry` is the
        // pre-insert entry point bound above).
        if level >= self.node_level[entry as usize] {
            self.entry = Some(id);
        }
        Ok(id)
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
        self.add_node(key, vector).map(|_| ())
    }

    fn search(&self, query: &[f32], k: usize) -> Result<Vec<Neighbor>> {
        self.arena.check(query.len(), "query")?;
        let qn = norm(query);
        SCRATCH.with(|s| {
            let s = &mut *s.borrow_mut();
            self.search_nodes(s, query, qn, k);
            Ok(s.results.iter().take(k).map(|&(score, id)| self.arena.neighbor(score, id)).collect())
        })
    }

    fn len(&self) -> usize {
        self.arena.keys.len()
    }

    fn dims(&self) -> usize {
        self.arena.dims
    }

    fn entries(&self) -> Box<dyn Iterator<Item = (&str, &[f32])> + '_> {
        Box::new(self.arena.entries())
    }
}

/// Sentinel shard location for keys owned by the active (unsealed) shard.
const ACTIVE_SHARD: usize = usize::MAX;

/// Where a key's live copy sits: its shard (a sealed position or
/// [`ACTIVE_SHARD`]) and its node in that shard's graph. Every other copy
/// of the key is stale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Slot {
    shard: usize,
    node: u32,
}

/// An incrementally-maintained ANN index: immutable sealed [`HnswIndex`]
/// shards plus one active shard (DESIGN.md §5j). Each vector is inserted
/// into a graph once: the active shard takes every add until it holds its
/// tier, `4 × shard_cap` vectors, and is then sealed as built. Deletes and
/// overwrites leave stale copies behind — the owner map names each key's
/// live node, other copies are filtered out of results at query time and
/// dropped by [`ShardedHnsw::compact`]. Searches fan out over all shards,
/// over-fetching by the stale-copy count, and merge by score with
/// deterministic key tie-breaks.
pub struct ShardedHnsw {
    dims: usize,
    params: HnswParams,
    /// Vectors per shard: the active shard seals when it holds this many,
    /// and compaction refills into shards of at most this many.
    tier_cap: usize,
    sealed: Vec<Arc<HnswIndex>>,
    active: HnswIndex,
    owner: BTreeMap<String, Slot>,
    /// Stale copies lingering in any shard.
    dead: usize,
}

impl ShardedHnsw {
    /// `shard_cap` is the store's segment size (`0` = unbounded): shards
    /// grow to a tier of `4 × shard_cap` vectors.
    pub fn new(dims: usize, shard_cap: usize) -> ShardedHnsw {
        ShardedHnsw::with_params(dims, HnswParams::default(), shard_cap)
    }

    pub fn with_params(dims: usize, params: HnswParams, shard_cap: usize) -> ShardedHnsw {
        ShardedHnsw {
            dims,
            params,
            tier_cap: if shard_cap == 0 { usize::MAX } else { shard_cap.saturating_mul(4) },
            sealed: Vec::new(),
            active: HnswIndex::new(dims, params),
            owner: BTreeMap::new(),
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

    /// Whether `node` of the shard at `loc` is its key's live copy.
    fn is_live(&self, loc: usize, shard: &HnswIndex, node: u32) -> bool {
        self.owner.get(&shard.arena.keys[node as usize]) == Some(&Slot { shard: loc, node })
    }

    /// Removes a key. Its copy goes stale: filtered at query time until the
    /// next compaction.
    pub fn remove(&mut self, key: &str) -> bool {
        let removed = self.owner.remove(key).is_some();
        self.dead += usize::from(removed);
        removed
    }

    /// Freezes the active shard as built (no-op when empty). Relabels only
    /// the keys the shard holds, so a seal costs O(shard), not O(corpus).
    fn seal_active(&mut self) {
        if self.active.is_empty() {
            return;
        }
        let idx = self.sealed.len();
        let mut frozen = std::mem::replace(&mut self.active, HnswIndex::new(self.dims, self.params));
        for (key, _) in frozen.entries() {
            if let Some(slot) = self.owner.get_mut(key).filter(|slot| slot.shard == ACTIVE_SHARD) {
                slot.shard = idx;
            }
        }
        frozen.shrink_to_fit();
        self.sealed.push(Arc::new(frozen));
    }

    /// The live entries of the shard at `loc`, in node order.
    fn live_entries<'a>(
        &'a self,
        loc: usize,
        shard: &'a HnswIndex,
    ) -> impl Iterator<Item = (&'a str, &'a [f32])> {
        (0u32..)
            .zip(shard.entries())
            .filter(move |&(node, _)| self.is_live(loc, shard, node))
            .map(|(_, entry)| entry)
    }

    /// A fresh graph over `entries`, inserted in order.
    fn build<'a>(&self, entries: impl Iterator<Item = (&'a str, &'a [f32])>) -> HnswIndex {
        let mut shard = HnswIndex::new(self.dims, self.params);
        for (key, vector) in entries {
            let _ = shard.add_slice(key, vector);
        }
        shard
    }

    /// Points every key of `shard` (all live) at its node there.
    fn claim(&mut self, loc: usize, shard: &HnswIndex) {
        for (node, (key, _)) in (0u32..).zip(shard.entries()) {
            if let Some(slot) = self.owner.get_mut(key) {
                *slot = Slot { shard: loc, node };
            }
        }
    }

    /// Drops every stale copy, and builds a graph only where one sat: a
    /// full shard without stale copies — and a clean growing active shard —
    /// is kept exactly as built, so a stream without deletes or overwrites
    /// compacts with zero graph work. The live entries of every other
    /// sealed shard are replayed, in shard order, into as few fresh shards
    /// of at most the tier as they fill, so at most one sealed shard is
    /// partial; an active shard that held stale copies is replayed in place
    /// and keeps growing. Deterministic: a graph is a pure function of its
    /// entry sequence (levels are seeded by node position).
    pub fn compact(&mut self) {
        if self.dead == 0 {
            return;
        }
        let tier = self.tier_cap;
        if self.live_entries(ACTIVE_SHARD, &self.active).count() < self.active.len() {
            let fresh = self.build(self.live_entries(ACTIVE_SHARD, &self.active));
            self.claim(ACTIVE_SHARD, &fresh);
            self.active = fresh;
        }
        let (keep, replay): (Vec<_>, Vec<_>) = std::mem::take(&mut self.sealed)
            .into_iter()
            .enumerate()
            .partition(|(i, shard)| shard.len() >= tier && self.live_entries(*i, shard).count() == shard.len());
        let mut refilled = Vec::new();
        {
            let mut live = replay.iter().flat_map(|(i, shard)| self.live_entries(*i, shard)).peekable();
            while live.peek().is_some() {
                let mut shard = self.build(live.by_ref().take(tier));
                shard.shrink_to_fit();
                refilled.push(shard);
            }
        }
        // Kept shards only move: renumber their slots by position. The
        // replayed keys are claimed by their new shards below.
        let mut moved = vec![None; keep.len() + replay.len()];
        for (new, (old, _)) in keep.iter().enumerate() {
            moved[*old] = Some(new);
        }
        for slot in self.owner.values_mut() {
            if let Some(&Some(new)) = moved.get(slot.shard) {
                slot.shard = new;
            }
        }
        self.sealed = keep.into_iter().map(|(_, shard)| shard).collect();
        for shard in refilled {
            self.claim(self.sealed.len(), &shard);
            self.sealed.push(Arc::new(shard));
        }
        self.dead = 0;
    }
}

impl VectorIndex for ShardedHnsw {
    /// Adds (or replaces) a vector: one insert into the active shard's graph.
    /// A replaced copy goes stale where it is.
    fn add_slice(&mut self, key: &str, vector: &[f32]) -> Result<()> {
        let node = self.active.add_node(key, vector)?;
        if self.owner.insert(key.to_string(), Slot { shard: ACTIVE_SHARD, node }).is_some() {
            self.dead += 1;
        }
        if self.active.len() >= self.tier_cap {
            self.seal_active();
        }
        Ok(())
    }

    fn search(&self, query: &[f32], k: usize) -> Result<Vec<Neighbor>> {
        self.active.arena.check(query.len(), "query")?;
        // Over-fetch per shard by the stale-copy count so filtering them out
        // cannot starve the merged top-k.
        let fetch = k.saturating_add(self.dead);
        let qn = norm(query);
        let mut merged: Vec<Neighbor> = Vec::new();
        SCRATCH.with(|s| {
            let s = &mut *s.borrow_mut();
            for (loc, shard) in self.layers() {
                shard.search_nodes(s, query, qn, fetch);
                for &(score, node) in s.results.iter().take(fetch) {
                    if self.is_live(loc, shard, node) {
                        merged.push(shard.arena.neighbor(score, node));
                    }
                }
            }
        });
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

    fn entries(&self) -> Box<dyn Iterator<Item = (&str, &[f32])> + '_> {
        Box::new(self.layers().flat_map(|(loc, shard)| self.live_entries(loc, shard)))
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

    /// Every stored link similarity is, bit for bit, the one a prune used to
    /// recompute from the two vectors — so pruning from the stored values
    /// keeps the same neighbours in the same order and builds the same
    /// graphs. Duplicate vectors (exact ties) and a zero vector included.
    #[test]
    fn stored_link_similarities_equal_recomputed_ones() {
        let mut vecs = random_vectors(400, 24, 51);
        vecs[7] = vecs[3].clone();
        vecs[8] = vecs[3].clone();
        vecs[9] = vec![0.0; 24];
        let mut h = HnswIndex::with_dims(24);
        for (i, v) in vecs.iter().enumerate() {
            h.add_slice(&format!("v{i}"), v).unwrap();
        }
        let mut links = 0usize;
        for (layer, lists) in h.layers.iter().enumerate() {
            for (x, list) in lists.iter().enumerate() {
                let x = x as u32;
                assert!(list.len() <= h.max_links(layer));
                for l in list {
                    let recomputed = h.arena.sim(h.arena.vector(x), h.arena.norms[x as usize], l.id);
                    assert_eq!(l.sim.to_bits(), recomputed.to_bits(), "layer {layer}: {x} -> {}", l.id);
                    links += 1;
                }
            }
        }
        assert!(links > 400 * 8, "{links} links checked");
    }

    fn stored(ix: &ShardedHnsw) -> usize {
        ix.layers().map(|(_, shard)| shard.len()).sum()
    }

    #[test]
    fn sharded_hnsw_recall_with_seals_and_tombstones() {
        let vecs = random_vectors(600, 32, 21);
        let mut flat = FlatIndex::new(32);
        let mut sharded = ShardedHnsw::new(32, 32); // shards grow to 128: several seals
        for (i, v) in vecs.iter().enumerate() {
            sharded.add(&format!("v{i}"), v.clone()).unwrap();
        }
        assert_eq!(sharded.sealed_count(), 4, "600 / 128");
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
        // Compaction drops the stale copies without changing results much:
        // the four sealed shards' 460 live entries refill four tier-sized
        // shards, and the active shard is replayed in place.
        sharded.compact();
        assert_eq!(sharded.dead(), 0);
        assert_eq!(stored(&sharded), sharded.len(), "no stale copy is left");
        assert_eq!(sharded.sealed_count(), 4);
        let r2 = recall_at_k(&flat, &sharded, &queries, 10).unwrap();
        assert!(r2 >= 0.9, "post-compaction recall@10 = {r2}");
    }

    #[test]
    fn sharded_hnsw_replace_updates_vector() {
        let mut sharded = ShardedHnsw::new(4, 1); // shards grow to 4 vectors
        for (key, v) in [
            ("a", [1.0, 0.0, 0.0, 0.0]),
            ("b", [0.0, 1.0, 0.0, 0.0]),
            ("c", [0.0, 0.0, 1.0, 0.0]),
            ("d", [0.0, 0.0, 1.0, 1.0]),
        ] {
            sharded.add_slice(key, &v).unwrap();
        }
        assert_eq!(sharded.sealed_count(), 1, "the tier of 4 seals");
        // Replace a sealed key, then a key of the active shard: both old
        // copies must be shadowed.
        sharded.add("a", vec![0.0, 0.0, 0.0, 1.0]).unwrap();
        sharded.add("e", vec![0.0, 1.0, 1.0, 0.0]).unwrap();
        sharded.add("e", vec![1.0, 0.0, 0.0, 1.0]).unwrap();
        assert_eq!((sharded.len(), sharded.dead()), (5, 2));
        let out = sharded.search(&[0.0, 0.0, 0.0, 1.0], 1).unwrap();
        assert_eq!(out[0].key, "a");
        let out = sharded.search(&[1.0, 0.05, 0.0, 0.0], 3).unwrap();
        assert_ne!(out[0].key, "a", "old vector for `a` is dead");
        let out = sharded.search(&[0.0, 1.0, 1.0, 0.0], 5).unwrap();
        assert!(out.iter().all(|n| n.score < 0.99), "old vector for `e` is dead: {out:?}");
        // Deterministic across identical searches, and compaction, which
        // drops both old copies, changes no answer.
        let queries = [[0.0, 0.0, 0.0, 1.0], [1.0, 0.05, 0.0, 0.0], [0.0, 1.0, 1.0, 0.0]];
        let before: Vec<_> = queries.iter().map(|q| sharded.search(q, 5).unwrap()).collect();
        assert_eq!(before, queries.iter().map(|q| sharded.search(q, 5).unwrap()).collect::<Vec<_>>());
        sharded.compact();
        assert_eq!((sharded.len(), sharded.dead(), stored(&sharded)), (5, 0, 5));
        assert_eq!(before, queries.iter().map(|q| sharded.search(q, 5).unwrap()).collect::<Vec<_>>());
    }

    /// Seals as `seal_active` did before it relabelled only its own keys.
    fn seal_walking_every_owner(ix: &mut ShardedHnsw) {
        let idx = ix.sealed.len();
        ix.owner.values_mut().filter(|slot| slot.shard == ACTIVE_SHARD).for_each(|slot| slot.shard = idx);
        let frozen = std::mem::replace(&mut ix.active, HnswIndex::new(ix.dims, ix.params));
        ix.sealed.push(Arc::new(frozen));
    }

    #[test]
    fn seals_relabel_exactly_like_a_full_owner_walk() {
        let cap = 4; // shards grow to 16
        let (mut fast, mut walked) = (ShardedHnsw::new(8, cap), ShardedHnsw::new(8, 0));
        for (i, v) in random_vectors(20 * cap, 8, 17).iter().enumerate() {
            // Every fifth add overwrites an older, mostly sealed key; every
            // seventh step tombstones one.
            let key = if i % 5 == 4 { format!("v{}", i / 2) } else { format!("v{i}") };
            for ix in [&mut fast, &mut walked] {
                ix.add_slice(&key, v).unwrap();
                if i % 7 == 6 {
                    ix.remove(&format!("v{}", i / 3));
                }
            }
            if walked.active.len() >= fast.tier_cap {
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

    fn same_graph(a: &HnswIndex, b: &HnswIndex) -> bool {
        (&a.arena.keys, &a.arena.data, &a.arena.norms) == (&b.arena.keys, &b.arena.data, &b.arena.norms)
            && (&a.layers, &a.node_level, a.entry) == (&b.layers, &b.node_level, b.entry)
    }

    /// A monolithic index fed `keys` (looked up in `vecs` by number) in order.
    fn replayed(keys: &[usize], vecs: &[Vec<f32>]) -> HnswIndex {
        let mut h = HnswIndex::with_dims(vecs[0].len());
        keys.iter().for_each(|&i| h.add_slice(&format!("v{i}"), &vecs[i]).unwrap());
        h
    }

    /// Every vector is inserted once: each sealed shard is the graph a
    /// monolithic index builds from the same run of adds, and compacting a
    /// stream without stale copies keeps every graph as it is.
    #[test]
    fn shards_are_built_once_and_clean_compaction_keeps_them() {
        let vecs = random_vectors(110, 16, 41);
        let mut ix = ShardedHnsw::new(16, 5); // shards grow to 20
        for (i, v) in vecs.iter().enumerate() {
            ix.add_slice(&format!("v{i}"), v).unwrap();
        }
        assert_eq!((ix.sealed_count(), ix.active.len()), (5, 10));
        for (s, shard) in ix.sealed.iter().enumerate() {
            assert!(same_graph(shard, &replayed(&(20 * s..20 * s + 20).collect::<Vec<_>>(), &vecs)), "shard {s}");
        }
        assert!(same_graph(&ix.active, &replayed(&(100..110).collect::<Vec<_>>(), &vecs)));
        let sealed: Vec<Arc<HnswIndex>> = ix.sealed.iter().map(Arc::clone).collect();
        let active = ix.active.clone();
        ix.compact();
        assert!(ix.sealed.iter().zip(&sealed).all(|(a, b)| Arc::ptr_eq(a, b)) && ix.sealed.len() == sealed.len());
        assert!(same_graph(&ix.active, &active));
    }

    /// Compaction replays exactly the live entries of the shards that held
    /// stale copies, in shard order, into tier-sized shards; clean shards
    /// keep their graphs (the same allocation), and answers follow the owner.
    #[test]
    fn compaction_equals_a_rebuild_from_the_same_entries() {
        let vecs = random_vectors(110, 16, 43);
        let queries = random_vectors(12, 16, 47);
        let mut ix = ShardedHnsw::new(16, 5); // shards grow to 20
        for (i, v) in vecs.iter().enumerate() {
            ix.add_slice(&format!("v{i}"), v).unwrap();
        }
        // Stale copies in sealed shards 1 and 3 and in the active shard.
        ix.remove("v25");
        ix.remove("v61");
        ix.remove("v105");
        ix.add_slice("v62", &vecs[0]).unwrap();
        assert_eq!((ix.dead(), ix.len()), (4, 107));
        let clean: Vec<Arc<HnswIndex>> = [0, 2, 4].iter().map(|&s| Arc::clone(&ix.sealed[s])).collect();
        ix.compact();
        assert_eq!((ix.dead(), stored(&ix), ix.len()), (0, 107, 107));
        assert!(ix.sealed[..3].iter().zip(&clean).all(|(a, b)| Arc::ptr_eq(a, b)));
        let live: Vec<usize> = (20..40).chain(60..80).filter(|&i| ![25, 61, 62].contains(&i)).collect();
        assert_eq!(ix.sealed.len(), 5, "37 live entries refill two shards");
        assert!(same_graph(&ix.sealed[3], &replayed(&live[..20], &vecs)));
        assert!(same_graph(&ix.sealed[4], &replayed(&live[20..], &vecs)));
        let mut active = replayed(&(100..110).filter(|&i| i != 105).collect::<Vec<_>>(), &vecs);
        active.add_slice("v62", &vecs[0]).unwrap();
        assert!(same_graph(&ix.active, &active));
        // Every live key is found where the owner says, at its own vector.
        for (i, v) in vecs.iter().enumerate().filter(|(i, _)| ![25, 61, 105].contains(i)) {
            let want = if i == 62 { &vecs[0] } else { v };
            let hits = ix.search(want, 2).unwrap();
            assert!(hits.iter().any(|n| n.key == format!("v{i}") && n.score > 0.999), "v{i}: {hits:?}");
        }
        for q in &queries {
            assert!(ix.search(q, 20).unwrap().iter().all(|n| !["v25", "v61", "v105"].contains(&n.key.as_str())));
        }
    }

    /// A stream of adds, overwrites and deletes compacted every round keeps
    /// the shard count bounded: after each compaction every sealed shard
    /// but at most one is full, so fan-out tracks the live count.
    #[test]
    fn compaction_bounds_the_shard_count_under_deletes_and_overwrites() {
        let vecs = random_vectors(600, 8, 53);
        let mut ix = ShardedHnsw::new(8, 4); // shards grow to 16
        let mut next = 0usize;
        for round in 0..30 {
            for _ in 0..20 {
                ix.add_slice(&format!("v{next}"), &vecs[next]).unwrap();
                next += 1;
            }
            // One overwrite and one delete of older keys, spread over the shards.
            let old = (round * 37) % next;
            ix.add_slice(&format!("v{old}"), &vecs[(old + 1) % next]).unwrap();
            ix.remove(&format!("v{}", (round * 53 + 11) % next));
            ix.compact();
            assert_eq!((ix.dead(), stored(&ix)), (0, ix.len()), "round {round}");
            let partial = ix.sealed.iter().filter(|shard| shard.len() < ix.tier_cap).count();
            assert!(partial <= 1, "round {round}: {partial} partial shards");
            assert!(ix.sealed_count() <= ix.len().div_ceil(ix.tier_cap) + 1, "round {round}");
        }
        assert!(ix.sealed_count() >= 30, "the stream sealed many shards");
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
