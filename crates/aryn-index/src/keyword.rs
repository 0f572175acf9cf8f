//! BM25 inverted index — the "keyword store" sink (paper §3).

use aryn_core::text::{analyze, any_analyzed};
use std::collections::BTreeMap;
use std::sync::Arc;

/// BM25 term-frequency saturation.
const K1: f64 = 1.2;
/// BM25 document-length normalization.
const B: f64 = 0.75;

/// A scored search hit.
#[derive(Debug, Clone, PartialEq)]
pub struct Hit {
    pub key: String,
    pub score: f64,
}

/// An in-memory inverted index with BM25 ranking.
///
/// ```
/// use aryn_index::KeywordIndex;
/// let mut ix = KeywordIndex::new();
/// ix.add("a", "the airplane encountered strong wind during approach");
/// ix.add("b", "quarterly revenue grew in the software sector");
/// let hits = ix.search("wind on approach", 5);
/// assert_eq!(hits[0].key, "a");
/// ```
#[derive(Debug, Default)]
pub struct KeywordIndex {
    /// term -> postings (doc ordinal, term frequency)
    postings: BTreeMap<String, Vec<(u32, u32)>>,
    /// doc ordinal -> (external key, token length)
    docs: Vec<(String, u32)>,
    /// external key -> ordinal
    by_key: BTreeMap<String, u32>,
    total_len: u64,
}

impl KeywordIndex {
    pub fn new() -> KeywordIndex {
        KeywordIndex::default()
    }

    pub fn len(&self) -> usize {
        self.docs.len()
    }

    pub fn is_empty(&self) -> bool {
        self.docs.is_empty()
    }

    /// Indexes (or re-indexes) a document's text under `key`. Terms stream
    /// through the tokenizer's one buffer: a term's postings are found by
    /// `&str` and its tf counted on the list's last entry, so a `String` is
    /// made only for a term the index has never seen.
    pub fn add(&mut self, key: impl Into<String>, text: &str) {
        let key = key.into();
        if self.by_key.contains_key(&key) {
            self.remove(&key);
        }
        let (ord, mut len) = (self.docs.len() as u32, 0u32);
        any_analyzed(text, |term| {
            len += 1;
            match self.postings.get_mut(term) {
                Some(plist) => match plist.last_mut() {
                    Some((last, tf)) if *last == ord => *tf += 1,
                    _ => plist.push((ord, 1)),
                },
                None => {
                    self.postings.insert(term.to_string(), vec![(ord, 1)]);
                }
            }
            false
        });
        self.total_len += u64::from(len);
        self.by_key.insert(key.clone(), ord);
        self.docs.push((key, len));
    }

    /// Removes a document (tombstone: postings entries are filtered lazily).
    pub fn remove(&mut self, key: &str) {
        if let Some(ord) = self.by_key.remove(key) {
            let len = self.docs[ord as usize].1;
            self.total_len -= len as u64;
            self.docs[ord as usize].1 = 0;
            self.docs[ord as usize].0.clear();
            for plist in self.postings.values_mut() {
                plist.retain(|(d, _)| *d != ord);
            }
        }
    }

    fn live_docs(&self) -> usize {
        self.by_key.len()
    }

    /// Live document count (excluding removed tombstone slots).
    pub fn doc_count(&self) -> usize {
        self.live_docs()
    }

    /// Total live token length (for corpus-wide avgdl merging).
    pub fn total_len(&self) -> u64 {
        self.total_len
    }

    /// Document frequency of an (analyzed) term.
    pub fn df(&self, term: &str) -> usize {
        self.postings.get(term).map_or(0, Vec::len)
    }

    /// Token length of a live document.
    pub fn doc_len(&self, key: &str) -> Option<u32> {
        self.by_key.get(key).map(|&ord| self.docs[ord as usize].1)
    }

    /// BM25 search; returns up to `k` hits, best first. Query-constant terms
    /// of the BM25 formula (idf per term, the `k1`/`b`/avgdl mixes) are
    /// precomputed once per query, not per posting.
    pub fn search(&self, query: &str, k: usize) -> Vec<Hit> {
        let terms = analyze(query);
        if terms.is_empty() || self.live_docs() == 0 {
            return Vec::new();
        }
        let n = self.live_docs() as f64;
        let avg_len = self.total_len as f64 / n.max(1.0);
        let consts = Bm25Consts::new(avg_len);
        let mut scores: BTreeMap<u32, f64> = BTreeMap::new();
        for term in &terms {
            let Some(plist) = self.postings.get(term) else { continue };
            let idf = bm25_idf(n, plist.len() as f64);
            for (ord, tf) in plist {
                let doc_len = self.docs[*ord as usize].1 as f64;
                *scores.entry(*ord).or_insert(0.0) += consts.score(idf, *tf as f64, doc_len);
            }
        }
        let mut hits: Vec<Hit> = scores
            .into_iter()
            .filter(|(ord, _)| !self.docs[*ord as usize].0.is_empty())
            .map(|(ord, score)| Hit {
                key: self.docs[ord as usize].0.clone(),
                score,
            })
            .collect();
        sort_hits(&mut hits, k);
        hits
    }
}

/// One shard holding the live documents of `old[i]` for each `i` in
/// `pending`, in shard then ordinal order: the compaction merge. Postings
/// move over by index through a per-shard old → new ordinal table, never
/// re-analyzed and never looked up by key.
fn merge_live(old: &[Arc<KeywordIndex>], owner: &BTreeMap<String, usize>, pending: &[usize]) -> KeywordIndex {
    const DROPPED: u32 = u32::MAX;
    let mut merged = KeywordIndex::new();
    let mut ords: Vec<u32> = Vec::new();
    for &i in pending {
        ords.clear();
        for (key, dl) in &old[i].docs {
            if key.is_empty() || owner.get(key) != Some(&i) {
                ords.push(DROPPED); // tombstone or stale copy
                continue;
            }
            let ord = merged.docs.len() as u32;
            ords.push(ord);
            merged.docs.push((key.clone(), *dl));
            merged.by_key.insert(key.clone(), ord);
            merged.total_len += u64::from(*dl);
        }
        // Old postings are ordinal-sorted and this shard's new ordinals
        // exceed every earlier shard's, so each list stays sorted as it grows.
        for (term, plist) in &old[i].postings {
            let live = plist.iter().filter_map(|&(ord, tf)| {
                let new = ords[ord as usize];
                (new != DROPPED).then_some((new, tf))
            });
            match merged.postings.get_mut(term) {
                Some(into) => into.extend(live),
                None => {
                    let fresh: Vec<(u32, u32)> = live.collect();
                    if !fresh.is_empty() {
                        merged.postings.insert(term.clone(), fresh);
                    }
                }
            }
        }
    }
    merged
}

/// Query-constant pieces of the BM25 score, computed once per query.
#[derive(Clone, Copy)]
struct Bm25Consts {
    k1_plus_1: f64,
    /// `k1 * (1 - b)`
    k1_one_minus_b: f64,
    /// `k1 * b / avgdl`
    k1_b_over_avg: f64,
}

impl Bm25Consts {
    fn new(avg_len: f64) -> Bm25Consts {
        Bm25Consts {
            k1_plus_1: K1 + 1.0,
            k1_one_minus_b: K1 * (1.0 - B),
            k1_b_over_avg: K1 * B / avg_len,
        }
    }

    #[inline]
    fn score(self, idf: f64, tf: f64, doc_len: f64) -> f64 {
        idf * tf * self.k1_plus_1 / (tf + self.k1_one_minus_b + self.k1_b_over_avg * doc_len)
    }
}

fn bm25_idf(n: f64, df: f64) -> f64 {
    (((n - df + 0.5) / (df + 0.5)) + 1.0).ln()
}

fn sort_hits(hits: &mut Vec<Hit>, k: usize) {
    hits.sort_by(|a, b| {
        b.score
            .partial_cmp(&a.score)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.key.cmp(&b.key))
    });
    hits.truncate(k);
}

/// Sentinel shard location for keys owned by the active (unsealed) shard.
const ACTIVE_SHARD: usize = usize::MAX;

/// An incrementally-maintained BM25 index made of immutable sealed shards
/// plus one active shard (DESIGN.md §5j). Adding a document is O(doc): a
/// postings delta against the active shard. Sealing freezes the active shard
/// behind an `Arc`; deletes and overwrites of sealed keys are tombstones
/// (ownership moves, the stale copy is filtered at query time and physically
/// dropped by [`ShardedKeywordIndex::compact`]).
///
/// Scoring is *globally* consistent: document frequency is lazily merged
/// across shards per query and avgdl/N are tracked corpus-wide, so results
/// are bit-identical to one monolithic [`KeywordIndex`] over the same live
/// documents.
#[derive(Debug)]
pub struct ShardedKeywordIndex {
    /// Active-shard size that triggers an automatic seal; `0` = never.
    shard_cap: usize,
    sealed: Vec<Arc<KeywordIndex>>,
    active: KeywordIndex,
    /// key -> owning shard (sealed position or [`ACTIVE_SHARD`]); a key
    /// present in a shard but not owned by it is a stale copy.
    owner: BTreeMap<String, usize>,
    /// Total token length over live documents.
    live_len: u64,
    /// Stale (tombstoned or superseded) copies lingering in sealed shards.
    dead: usize,
}

impl Default for ShardedKeywordIndex {
    fn default() -> Self {
        ShardedKeywordIndex::new(2048)
    }
}

impl ShardedKeywordIndex {
    pub fn new(shard_cap: usize) -> ShardedKeywordIndex {
        ShardedKeywordIndex {
            shard_cap,
            sealed: Vec::new(),
            active: KeywordIndex::new(),
            owner: BTreeMap::new(),
            live_len: 0,
            dead: 0,
        }
    }

    pub fn len(&self) -> usize {
        self.owner.len()
    }

    pub fn is_empty(&self) -> bool {
        self.owner.is_empty()
    }

    pub fn sealed_count(&self) -> usize {
        self.sealed.len()
    }

    /// Stale copies awaiting compaction.
    pub fn dead(&self) -> usize {
        self.dead
    }

    /// All shards with their location markers, sealed first then active.
    fn layers(&self) -> impl Iterator<Item = (usize, &KeywordIndex)> {
        self.sealed
            .iter()
            .enumerate()
            .map(|(i, s)| (i, s.as_ref()))
            .chain(std::iter::once((ACTIVE_SHARD, &self.active)))
    }

    /// Indexes (or re-indexes) a document's text — O(doc) work against the
    /// active shard regardless of corpus size.
    pub fn add(&mut self, key: impl Into<String>, text: &str) {
        let key = key.into();
        match self.owner.get(&key) {
            Some(&ACTIVE_SHARD) => {
                self.live_len -= u64::from(self.active.doc_len(&key).unwrap_or(0));
            }
            Some(&loc) => {
                self.live_len -= u64::from(self.sealed[loc].doc_len(&key).unwrap_or(0));
                self.dead += 1;
            }
            None => {}
        }
        self.active.add(key.clone(), text);
        self.live_len += u64::from(self.active.doc_len(&key).unwrap_or(0));
        self.owner.insert(key, ACTIVE_SHARD);
        if self.shard_cap > 0 && self.active.doc_count() >= self.shard_cap {
            self.seal_active();
        }
    }

    /// Removes a document. Sealed copies become tombstones filtered at
    /// query time until the next compaction.
    pub fn remove(&mut self, key: &str) -> bool {
        match self.owner.remove(key) {
            Some(ACTIVE_SHARD) => {
                self.live_len -= u64::from(self.active.doc_len(key).unwrap_or(0));
                self.active.remove(key);
                true
            }
            Some(loc) => {
                self.live_len -= u64::from(self.sealed[loc].doc_len(key).unwrap_or(0));
                self.dead += 1;
                true
            }
            None => false,
        }
    }

    /// Freezes the active shard into a sealed one (no-op when empty).
    /// Relabels only the shard's own live keys: O(shard), not O(corpus).
    pub fn seal_active(&mut self) {
        if self.active.doc_count() == 0 {
            return;
        }
        let idx = self.sealed.len();
        for key in self.active.by_key.keys() {
            if let Some(loc) = self.owner.get_mut(key) {
                *loc = idx;
            }
        }
        let frozen = std::mem::replace(&mut self.active, KeywordIndex::new());
        self.sealed.push(Arc::new(frozen));
    }

    /// Tiered compaction: seals the active shard, drops every stale copy,
    /// and merges small sealed shards into settled shards of at most
    /// `4 * shard_cap` documents (unbounded when `shard_cap == 0`). A
    /// settled shard with no stale copies is carried over by `Arc` without
    /// any rebuild, so compaction work stays proportional to the recently
    /// ingested tail rather than the whole corpus. Postings-level:
    /// documents are never re-analyzed. Deterministic (shard-ordered
    /// replay), and scoring stays bit-identical to a monolithic index
    /// because global df/avgdl are merged lazily per query regardless of
    /// how documents are sharded.
    pub fn compact(&mut self) {
        self.seal_active();
        let tier_cap = if self.shard_cap == 0 {
            usize::MAX
        } else {
            self.shard_cap.saturating_mul(4)
        };
        fn flush(
            old: &[Arc<KeywordIndex>],
            owner: &BTreeMap<String, usize>,
            pending: &mut Vec<usize>,
            pending_docs: &mut usize,
            new_sealed: &mut Vec<Arc<KeywordIndex>>,
            remap: &mut [usize],
        ) {
            if pending.is_empty() {
                return;
            }
            for &i in pending.iter() {
                remap[i] = new_sealed.len();
            }
            let merged = merge_live(old, owner, pending);
            pending.clear();
            *pending_docs = 0;
            if merged.doc_count() > 0 {
                new_sealed.push(Arc::new(merged));
            }
        }
        let old = std::mem::take(&mut self.sealed);
        let mut new_sealed: Vec<Arc<KeywordIndex>> = Vec::new();
        let mut remap: Vec<usize> = vec![0; old.len()];
        let mut pending: Vec<usize> = Vec::new();
        let mut pending_docs = 0usize;
        for (i, shard) in old.iter().enumerate() {
            let live = shard
                .docs
                .iter()
                .filter(|(k, _)| !k.is_empty() && self.owner.get(k) == Some(&i))
                .count();
            if live == shard.doc_count() && live >= tier_cap {
                // Settled and clean: keep the built postings, zero work.
                flush(&old, &self.owner, &mut pending, &mut pending_docs, &mut new_sealed, &mut remap);
                remap[i] = new_sealed.len();
                new_sealed.push(Arc::clone(shard));
                continue;
            }
            if pending_docs + live > tier_cap {
                flush(&old, &self.owner, &mut pending, &mut pending_docs, &mut new_sealed, &mut remap);
            }
            pending_docs += live;
            pending.push(i);
        }
        flush(&old, &self.owner, &mut pending, &mut pending_docs, &mut new_sealed, &mut remap);
        self.sealed = new_sealed;
        for loc in self.owner.values_mut() {
            *loc = remap[*loc];
        }
        self.dead = 0;
    }

    /// BM25 search across all shards with lazily-merged global statistics:
    /// per query, each term's document frequency is summed over live copies
    /// shard by shard, and one corpus-wide avgdl/N feeds the score — results
    /// match a monolithic index bit for bit.
    pub fn search(&self, query: &str, k: usize) -> Vec<Hit> {
        let terms = analyze(query);
        if terms.is_empty() || self.owner.is_empty() {
            return Vec::new();
        }
        let n = self.owner.len() as f64;
        let avg_len = self.live_len as f64 / n.max(1.0);
        let consts = Bm25Consts::new(avg_len);
        let mut scores: BTreeMap<&str, f64> = BTreeMap::new();
        let mut matched: Vec<(&str, f64, f64)> = Vec::new();
        for term in &terms {
            matched.clear();
            for (loc, shard) in self.layers() {
                let Some(plist) = shard.postings.get(term) else { continue };
                for (ord, tf) in plist {
                    let (key, dl) = &shard.docs[*ord as usize];
                    if key.is_empty() || self.owner.get(key) != Some(&loc) {
                        continue; // stale copy or tombstone
                    }
                    matched.push((key.as_str(), f64::from(*dl), f64::from(*tf)));
                }
            }
            if matched.is_empty() {
                continue;
            }
            let idf = bm25_idf(n, matched.len() as f64);
            for &(key, dl, tf) in &matched {
                *scores.entry(key).or_insert(0.0) += consts.score(idf, tf, dl);
            }
        }
        let mut hits: Vec<Hit> = scores
            .into_iter()
            .map(|(key, score)| Hit {
                key: key.to_string(),
                score,
            })
            .collect();
        sort_hits(&mut hits, k);
        hits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_index() -> KeywordIndex {
        let mut ix = KeywordIndex::new();
        ix.add("a", "the airplane encountered wind during approach near Anchorage");
        ix.add("b", "engine failure caused a forced landing in a field");
        ix.add("c", "wind and fog conditions near the coast with gusting wind reported");
        ix.add("d", "quarterly revenue grew strongly in the software sector");
        ix
    }

    #[test]
    fn relevant_docs_rank_first() {
        let ix = sample_index();
        let hits = ix.search("wind conditions", 10);
        assert!(!hits.is_empty());
        assert_eq!(hits[0].key, "c", "{hits:?}");
        assert!(hits.iter().any(|h| h.key == "a"));
        assert!(!hits.iter().any(|h| h.key == "d"));
    }

    #[test]
    fn idf_downweights_common_terms() {
        let mut ix = KeywordIndex::new();
        for i in 0..20 {
            ix.add(format!("common{i}"), "airplane airplane airplane");
        }
        ix.add("rare", "airplane turbulence");
        let hits = ix.search("turbulence airplane", 5);
        assert_eq!(hits[0].key, "rare");
    }

    #[test]
    fn stemming_matches_variants() {
        let ix = sample_index();
        let hits = ix.search("gusts winds", 10);
        assert!(hits.iter().any(|h| h.key == "c"), "{hits:?}");
    }

    #[test]
    fn remove_and_reindex() {
        let mut ix = sample_index();
        ix.remove("c");
        let hits = ix.search("wind", 10);
        assert!(!hits.iter().any(|h| h.key == "c"));
        // Re-adding under the same key replaces content.
        ix.add("a", "completely different content about icing");
        let hits = ix.search("wind", 10);
        assert!(!hits.iter().any(|h| h.key == "a"));
        let hits = ix.search("icing", 10);
        assert_eq!(hits[0].key, "a");
    }

    #[test]
    fn empty_query_and_empty_index() {
        let ix = sample_index();
        assert!(ix.search("", 5).is_empty());
        assert!(ix.search("the of and", 5).is_empty(), "stopword-only query");
        let empty = KeywordIndex::new();
        assert!(empty.search("wind", 5).is_empty());
    }

    #[test]
    fn k_truncates() {
        let ix = sample_index();
        assert_eq!(ix.search("wind", 1).len(), 1);
    }

    #[test]
    fn deterministic_tie_break_by_key() {
        let mut ix = KeywordIndex::new();
        ix.add("z", "identical text");
        ix.add("y", "identical text");
        let hits = ix.search("identical", 5);
        assert_eq!(hits[0].key, "y");
        assert_eq!(hits[1].key, "z");
    }
}

/// The sort-and-run-length `add` that the streaming one replaced, kept as
/// the reference it must match field for field.
#[cfg(test)]
mod streaming_add {
    use super::*;
    use proptest::prelude::*;

    fn reference_add(ix: &mut KeywordIndex, key: &str, text: &str) {
        let key = key.to_string();
        if ix.by_key.contains_key(&key) {
            ix.remove(&key);
        }
        let mut tokens = analyze(text);
        let (ord, len) = (ix.docs.len() as u32, tokens.len() as u32);
        tokens.sort_unstable();
        let mut tokens = tokens.into_iter().peekable();
        while let Some(term) = tokens.next() {
            let mut tf = 1;
            while tokens.next_if_eq(&term).is_some() {
                tf += 1;
            }
            ix.postings.entry(term).or_default().push((ord, tf));
        }
        ix.total_len += u64::from(len);
        ix.by_key.insert(key.clone(), ord);
        ix.docs.push((key, len));
    }

    /// Words the generator draws from: stopwords, stem variants, repeats,
    /// numbers, and Unicode that lowercases to several chars or to marks.
    const WORDS: &[&str] = &[
        "the", "of", "a", "wind", "winds", "windy", "reported", "reporting", "reports", "gusting",
        "national", "organization", "A380", "2024", "x", "Straße", "İstanbul", "ÉCOLE", "naïve",
        "東京", "ǅemal", "runway", "RUNWAY", "runways", "it's", "is",
    ];
    const SEPS: &[&str] = &[" ", "  ", ", ", ".\n", "-", "'", "\t", "/", "…", ""];

    fn text(picks: &[(usize, usize)]) -> String {
        picks.iter().map(|&(w, s)| format!("{}{}", WORDS[w], SEPS[s])).collect()
    }

    fn assert_same(a: &KeywordIndex, b: &KeywordIndex) {
        assert_eq!(a.postings, b.postings);
        assert_eq!(a.docs, b.docs);
        assert_eq!(a.by_key, b.by_key);
        assert_eq!(a.total_len, b.total_len);
    }

    proptest! {
        #[test]
        fn streaming_add_equals_the_sorting_one(
            adds in prop::collection::vec(
                (0usize..6, prop::collection::vec((0..WORDS.len(), 0..SEPS.len()), 0..40)),
                1..12,
            ),
        ) {
            let (mut fast, mut slow) = (KeywordIndex::new(), KeywordIndex::new());
            // Six keys over up to eleven adds: re-adding an existing key is common.
            for (key, picks) in &adds {
                let (key, text) = (format!("k{key}"), text(picks));
                fast.add(key.as_str(), &text);
                reference_add(&mut slow, &key, &text);
                assert_same(&fast, &slow);
            }
            for q in ["wind report", "runway", "istanbul strasse", ""] {
                prop_assert_eq!(fast.search(q, 10), slow.search(q, 10));
            }
        }
    }

    #[test]
    fn empty_and_stopword_only_texts_index_zero_tokens() {
        let (mut fast, mut slow) = (KeywordIndex::new(), KeywordIndex::new());
        for (key, text) in [("e", ""), ("s", "the of a it's"), ("e", "wind wind")] {
            fast.add(key, text);
            reference_add(&mut slow, key, text);
            assert_same(&fast, &slow);
        }
        assert_eq!(fast.doc_len("s"), Some(0));
    }
}

#[cfg(test)]
mod sharded_tests {
    use super::*;

    fn corpus(n: usize) -> Vec<(String, String)> {
        let topics = [
            "wind gusts during the landing approach",
            "engine failure after takeoff from the field",
            "fog and low visibility near the coast",
            "quarterly revenue growth in the software sector",
            "hydraulic pressure loss on final descent",
        ];
        (0..n)
            .map(|i| {
                (
                    format!("d{i:03}"),
                    format!("{} incident number {i}", topics[i % topics.len()]),
                )
            })
            .collect()
    }

    fn assert_same_hits(a: &[Hit], b: &[Hit], ctx: &str) {
        assert_eq!(a.len(), b.len(), "{ctx}: hit counts differ");
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.key, y.key, "{ctx}");
            assert_eq!(x.score, y.score, "{ctx}: score drift on {}", x.key);
        }
    }

    #[test]
    fn sharded_scores_match_monolithic_bitwise() {
        let queries = ["wind approach", "engine failure", "revenue growth", "fog", "descent"];
        let mut mono = KeywordIndex::new();
        let mut sharded = ShardedKeywordIndex::new(7); // many seals over 40 docs
        for (k, t) in corpus(40) {
            mono.add(k.clone(), &t);
            sharded.add(k, &t);
        }
        assert!(sharded.sealed_count() >= 4, "cap 7 over 40 docs must seal");
        for q in queries {
            assert_same_hits(&sharded.search(q, 10), &mono.search(q, 10), q);
        }
        // Deletes and overwrites (tombstoning sealed copies)...
        for victim in ["d003", "d010", "d024"] {
            mono.remove(victim);
            assert!(sharded.remove(victim));
        }
        mono.add("d007", "completely new icing narrative");
        sharded.add("d007", "completely new icing narrative");
        assert!(sharded.dead() > 0);
        for q in queries.iter().chain(["icing narrative"].iter()) {
            assert_same_hits(&sharded.search(q, 10), &mono.search(q, 10), q);
        }
        // ...and compaction changes nothing observable. Tiered merge
        // (cap 7 -> 28-doc tiers) settles 37 live docs into two shards.
        sharded.compact();
        assert!(sharded.sealed_count() <= 2, "37 live / 28-doc tier");
        assert_eq!(sharded.dead(), 0);
        for q in queries.iter().chain(["icing narrative"].iter()) {
            assert_same_hits(&sharded.search(q, 10), &mono.search(q, 10), q);
        }
        assert_eq!(sharded.len(), mono.doc_count());
    }

    /// Seals as `seal_active` did before it relabelled only its own keys.
    fn seal_walking_every_owner(ix: &mut ShardedKeywordIndex) {
        let idx = ix.sealed.len();
        ix.owner.values_mut().filter(|loc| **loc == ACTIVE_SHARD).for_each(|loc| *loc = idx);
        let frozen = std::mem::replace(&mut ix.active, KeywordIndex::new());
        ix.sealed.push(Arc::new(frozen));
    }

    #[test]
    fn seals_relabel_exactly_like_a_full_owner_walk() {
        let cap = 8;
        let (mut fast, mut walked) = (ShardedKeywordIndex::new(cap), ShardedKeywordIndex::new(0));
        for (i, (key, text)) in corpus(5 * cap).into_iter().enumerate() {
            // Every fifth add overwrites an older, mostly sealed key; every
            // seventh step tombstones one.
            let key = if i % 5 == 4 { format!("d{:03}", i / 2) } else { key };
            for ix in [&mut fast, &mut walked] {
                ix.add(key.clone(), &text);
                if i % 7 == 6 {
                    ix.remove(&format!("d{:03}", i / 3));
                }
            }
            if walked.active.doc_count() >= cap {
                seal_walking_every_owner(&mut walked);
            }
        }
        assert!(fast.sealed_count() >= 4 && fast.dead() > 0);
        assert_eq!((fast.sealed_count(), fast.dead()), (walked.sealed_count(), walked.dead()));
        assert_eq!(fast.owner, walked.owner);
        for q in ["wind approach", "engine failure", "revenue growth", "fog", "incident number"] {
            assert_same_hits(&fast.search(q, 10), &walked.search(q, 10), q);
        }
    }

    /// The compaction merge as it stood before ordinal remapping: two key
    /// lookups per posting and a term copy per term per shard, then a sort.
    fn merge_by_key_lookup(
        old: &[Arc<KeywordIndex>],
        owner: &BTreeMap<String, usize>,
        pending: &[usize],
    ) -> KeywordIndex {
        let mut merged = KeywordIndex::new();
        for &i in pending {
            for (key, dl) in &old[i].docs {
                if key.is_empty() || owner.get(key) != Some(&i) {
                    continue;
                }
                let ord = merged.docs.len() as u32;
                merged.docs.push((key.clone(), *dl));
                merged.by_key.insert(key.clone(), ord);
                merged.total_len += u64::from(*dl);
            }
        }
        for &i in pending {
            for (term, plist) in &old[i].postings {
                for (ord, tf) in plist {
                    let (key, _) = &old[i].docs[*ord as usize];
                    if key.is_empty() || owner.get(key) != Some(&i) {
                        continue;
                    }
                    let new_ord = merged.by_key[key];
                    merged.postings.entry(term.clone()).or_default().push((new_ord, *tf));
                }
            }
        }
        for plist in merged.postings.values_mut() {
            plist.sort_unstable();
        }
        merged
    }

    #[test]
    fn remapped_merge_equals_the_key_lookup_merge() {
        let mut ix = ShardedKeywordIndex::new(6);
        for (i, (key, text)) in corpus(60).into_iter().enumerate() {
            // Overwrites and deletes leave stale copies in sealed shards and
            // tombstones in the active one.
            let key = if i % 4 == 3 { format!("d{:03}", i / 3) } else { key };
            ix.add(key, &text);
            if i % 5 == 4 {
                ix.remove(&format!("d{:03}", i / 2));
            }
        }
        ix.seal_active();
        assert!(ix.sealed_count() >= 8 && ix.dead() > 0);
        let all: Vec<usize> = (0..ix.sealed_count()).collect();
        for pending in [&all[..], &all[..1], &all[2..5], &all[all.len() - 3..]] {
            let got = merge_live(&ix.sealed, &ix.owner, pending);
            let want = merge_by_key_lookup(&ix.sealed, &ix.owner, pending);
            assert_eq!(got.postings, want.postings, "{pending:?}");
            assert_eq!(got.docs, want.docs, "{pending:?}");
            assert_eq!(got.by_key, want.by_key, "{pending:?}");
            assert_eq!(got.total_len, want.total_len, "{pending:?}");
        }
    }

    #[test]
    fn incremental_add_is_visible_immediately() {
        let mut ix = ShardedKeywordIndex::new(4);
        for (k, t) in corpus(9) {
            ix.add(k, &t);
        }
        assert!(ix.sealed_count() >= 2);
        ix.add("fresh", "microburst wind shear alert on short final");
        let hits = ix.search("microburst", 3);
        assert_eq!(hits[0].key, "fresh", "active-shard doc searchable pre-seal");
    }

    #[test]
    fn empty_and_removed_edge_cases() {
        let mut ix = ShardedKeywordIndex::new(2);
        assert!(ix.search("wind", 5).is_empty());
        assert!(!ix.remove("ghost"));
        ix.add("a", "solo wind report");
        ix.add("b", "second wind report");
        ix.add("c", "third wind report");
        assert!(ix.remove("a"));
        assert!(!ix.remove("a"), "double remove is a no-op");
        assert_eq!(ix.len(), 2);
        let hits = ix.search("wind", 10);
        assert_eq!(hits.len(), 2);
        assert!(!hits.iter().any(|h| h.key == "a"));
        ix.compact();
        assert_eq!(ix.search("wind", 10).len(), 2);
    }
}
