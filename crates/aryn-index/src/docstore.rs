//! The document store: the OpenSearch-like sink Luna scans
//! (`context.read.opensearch(index_name="ntsb")` in the paper's Figure 6).
//!
//! Holds full [`Document`]s keyed by id, with structured predicate filtering
//! over properties — the "time, hierarchy, or categories" faceting that
//! embedding-only retrieval cannot do (paper §2).
//!
//! The store is LSM-shaped so ingestion is incremental (DESIGN.md §5j):
//! writes land in a mutable memtable that seals into immutable, id-sorted
//! [`Segment`]s shared via `Arc`; sealed segments merge back into one by
//! deterministic compaction, which is when tombstones (deletes shadowing
//! sealed entries) are dropped. Readers either scan the live store — a k-way
//! merge of memtable + segments, newest layer winning per id — or take a
//! [`StoreSnapshot`], an O(memtable) frozen view that stays bit-stable while
//! ingestion and compaction continue underneath it (MVCC reads).

use aryn_core::vfs::{self, Vfs};
use aryn_core::{ArynError, Document, Result, Value};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// A structured predicate over document properties.
///
/// ```
/// use aryn_index::Predicate;
/// use aryn_core::{obj, Document, Value};
/// let mut doc = Document::new("d1");
/// doc.properties = obj! { "state" => "AK", "year" => 2019i64 };
/// let p = Predicate::And(vec![
///     Predicate::Eq("state".into(), Value::from("ak")),
///     Predicate::Range { path: "year".into(), lo: Some(Value::Int(2018)), hi: None },
/// ]);
/// assert!(p.matches(&doc));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum Predicate {
    /// Property equals value (loose equality: numbers numeric,
    /// strings case-insensitive).
    Eq(String, Value),
    /// Property != value.
    Ne(String, Value),
    /// Property in numeric/string range `[lo, hi]` (inclusive); either side
    /// optional.
    Range {
        path: String,
        lo: Option<Value>,
        hi: Option<Value>,
    },
    /// Property is one of the listed values.
    In(String, Vec<Value>),
    /// Property exists and is non-null.
    Exists(String),
    /// String property contains the term (word-boundary aware).
    Contains(String, String),
    And(Vec<Predicate>),
    Or(Vec<Predicate>),
    Not(Box<Predicate>),
}

impl Predicate {
    /// Evaluates against a document's properties. Missing properties fail
    /// leaf predicates (except under `Not`).
    pub fn matches(&self, doc: &Document) -> bool {
        self.matches_value(&doc.properties)
    }

    /// Evaluates against a bare properties object.
    pub fn matches_value(&self, props: &Value) -> bool {
        match self {
            Predicate::Eq(path, want) => props
                .get_path(path)
                .is_some_and(|v| v.loose_eq(want)),
            Predicate::Ne(path, want) => props
                .get_path(path)
                .is_some_and(|v| !v.loose_eq(want)),
            Predicate::Range { path, lo, hi } => {
                let Some(v) = props.get_path(path) else { return false };
                if v.is_null() {
                    return false;
                }
                range_ok(v, lo.as_ref(), hi.as_ref())
            }
            Predicate::In(path, options) => props
                .get_path(path)
                .is_some_and(|v| options.iter().any(|o| v.loose_eq(o))),
            Predicate::Exists(path) => props.get_path(path).is_some_and(|v| !v.is_null()),
            Predicate::Contains(path, term) => props
                .get_path(path)
                .and_then(Value::as_str)
                .is_some_and(|s| aryn_core::text::contains_term(s, term)),
            Predicate::And(ps) => ps.iter().all(|p| p.matches_value(props)),
            Predicate::Or(ps) => ps.iter().any(|p| p.matches_value(props)),
            Predicate::Not(p) => !p.matches_value(props),
        }
    }

    /// Precompiles the predicate for evaluation across many documents:
    /// per-comparison work that only depends on the predicate itself
    /// (tokenizing `Contains` terms) is hoisted out of the per-document loop.
    pub fn compile(&self) -> CompiledPredicate {
        CompiledPredicate {
            root: CompiledNode::build(self),
        }
    }
}

fn range_ok(v: &Value, lo: Option<&Value>, hi: Option<&Value>) -> bool {
    let ge = lo.is_none_or(|l| v.cmp_total(l) != std::cmp::Ordering::Less);
    let le = hi.is_none_or(|h| v.cmp_total(h) != std::cmp::Ordering::Greater);
    ge && le
}

/// A [`Predicate`] with per-predicate state precomputed (satellite of the
/// segmented-store rework): `Contains` needles are tokenized once at compile
/// time instead of once per document per leaf. `DocStore::filter` and
/// snapshot filters compile automatically; callers evaluating one predicate
/// against a whole corpus should compile explicitly.
#[derive(Debug, Clone)]
pub struct CompiledPredicate {
    root: CompiledNode,
}

#[derive(Debug, Clone)]
enum CompiledNode {
    Eq(String, Value),
    Ne(String, Value),
    Range {
        path: String,
        lo: Option<Value>,
        hi: Option<Value>,
    },
    In(String, Vec<Value>),
    Exists(String),
    Contains {
        path: String,
        /// The term pre-tokenized (lowercased word tokens).
        needle: Vec<String>,
    },
    And(Vec<CompiledNode>),
    Or(Vec<CompiledNode>),
    Not(Box<CompiledNode>),
}

impl CompiledNode {
    fn build(p: &Predicate) -> CompiledNode {
        match p {
            Predicate::Eq(path, want) => CompiledNode::Eq(path.clone(), want.clone()),
            Predicate::Ne(path, want) => CompiledNode::Ne(path.clone(), want.clone()),
            Predicate::Range { path, lo, hi } => CompiledNode::Range {
                path: path.clone(),
                lo: lo.clone(),
                hi: hi.clone(),
            },
            Predicate::In(path, options) => CompiledNode::In(path.clone(), options.clone()),
            Predicate::Exists(path) => CompiledNode::Exists(path.clone()),
            Predicate::Contains(path, term) => CompiledNode::Contains {
                path: path.clone(),
                needle: aryn_core::text::tokenize(term),
            },
            Predicate::And(ps) => CompiledNode::And(ps.iter().map(CompiledNode::build).collect()),
            Predicate::Or(ps) => CompiledNode::Or(ps.iter().map(CompiledNode::build).collect()),
            Predicate::Not(p) => CompiledNode::Not(Box::new(CompiledNode::build(p))),
        }
    }

    fn matches_value(&self, props: &Value) -> bool {
        match self {
            CompiledNode::Eq(path, want) => props
                .get_path(path)
                .is_some_and(|v| v.loose_eq(want)),
            CompiledNode::Ne(path, want) => props
                .get_path(path)
                .is_some_and(|v| !v.loose_eq(want)),
            CompiledNode::Range { path, lo, hi } => {
                let Some(v) = props.get_path(path) else { return false };
                if v.is_null() {
                    return false;
                }
                range_ok(v, lo.as_ref(), hi.as_ref())
            }
            CompiledNode::In(path, options) => props
                .get_path(path)
                .is_some_and(|v| options.iter().any(|o| v.loose_eq(o))),
            CompiledNode::Exists(path) => props.get_path(path).is_some_and(|v| !v.is_null()),
            CompiledNode::Contains { path, needle } => props
                .get_path(path)
                .and_then(Value::as_str)
                .is_some_and(|s| aryn_core::text::contains_tokens(s, needle)),
            CompiledNode::And(ps) => ps.iter().all(|p| p.matches_value(props)),
            CompiledNode::Or(ps) => ps.iter().any(|p| p.matches_value(props)),
            CompiledNode::Not(p) => !p.matches_value(props),
        }
    }
}

impl CompiledPredicate {
    pub fn matches(&self, doc: &Document) -> bool {
        self.root.matches_value(&doc.properties)
    }

    pub fn matches_value(&self, props: &Value) -> bool {
        self.root.matches_value(props)
    }
}

/// Segment lifecycle knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreConfig {
    /// Memtable size (in documents) at which a segment seals automatically.
    /// `0` disables auto-sealing (everything stays in the memtable).
    pub seal_threshold: usize,
    /// Sealed-segment count that triggers a full-merge compaction right
    /// after a seal. `0` disables auto-compaction.
    pub compact_fanout: usize,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            seal_threshold: 1024,
            compact_fanout: 8,
        }
    }
}

/// Write-ahead-log knobs for durable stores.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalConfig {
    /// fsync the WAL after every append before acking the write. Off, acked
    /// writes may still be lost to a crash (recovery then yields a prefix of
    /// *submitted* writes); on, recovery covers every acked write.
    pub fsync: bool,
}

impl Default for WalConfig {
    fn default() -> Self {
        WalConfig { fsync: true }
    }
}

/// Lifecycle counters, cumulative over the store's in-process life
/// (recovery replays count toward `puts`/`deletes` again).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    pub puts: usize,
    pub deletes: usize,
    /// Memtables sealed into segments.
    pub seals: usize,
    /// Full-merge compactions performed.
    pub compactions: usize,
    /// Segments consumed by compactions.
    pub segments_merged: usize,
    /// Tombstones resolved and dropped by compactions.
    pub tombstones_dropped: usize,
    /// WAL records durably appended (acked writes on a durable store).
    pub wal_appends: usize,
    /// WAL records replayed into the memtable by `open`.
    pub wal_replayed: usize,
    /// Torn/corrupt WAL tail records truncated during recovery.
    pub torn_tail_truncated: usize,
    /// Sealed segment files loaded from the manifest by `open`.
    pub segments_recovered: usize,
    /// Stale files (orphaned temps, retired WALs/segments) swept by `open`.
    pub orphans_removed: usize,
    /// IO failures swallowed by the infallible mutation API (`put`, `seal`,
    /// ...); the durable image stays consistent, the write was not acked.
    pub io_errors: usize,
}

/// One immutable, id-sorted run of documents. `None` entries are tombstones
/// shadowing older layers; they survive until compaction resolves them.
#[derive(Debug)]
pub struct Segment {
    id: u64,
    docs: BTreeMap<String, Option<Arc<Document>>>,
}

impl Segment {
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Entries including tombstones.
    pub fn len(&self) -> usize {
        self.docs.len()
    }

    pub fn is_empty(&self) -> bool {
        self.docs.is_empty()
    }
}

type Layer = BTreeMap<String, Option<Arc<Document>>>;

/// On-disk layout (DESIGN.md §5k): a manifest naming live segments and the
/// current WAL, checksummed per-record.
const MANIFEST: &str = "MANIFEST";

/// The on-disk format the manifest declares: binary frames of
/// [`aryn_core::serialize::encode_document`] records. A manifest without
/// it (the JSON-line stores) or with another value is refused at open.
const FORMAT: i64 = 2;

fn seg_name(id: u64) -> String {
    format!("seg-{id:06}.seg")
}

fn wal_name(seq: u64) -> String {
    format!("wal-{seq:06}.log")
}

/// Durable-mode state: everything persistence needs, absent on in-memory
/// stores.
#[derive(Debug)]
struct Durable {
    vfs: Arc<dyn Vfs>,
    dir: PathBuf,
    fsync: bool,
    /// Rotates on every seal; the manifest names the live sequence.
    wal_seq: u64,
    /// The live WAL's path (`wal_seq`'s file).
    wal: PathBuf,
    /// Set when an append failed and the WAL tail may be torn; the log is
    /// atomically rewritten from the memtable before the next append.
    wal_dirty: bool,
    /// The record being appended, reused so a put stages nothing.
    frame: Vec<u8>,
}

impl Durable {
    fn seg_path(&self, id: u64) -> PathBuf {
        self.dir.join(seg_name(id))
    }
}

fn write_manifest(
    fs: &dyn Vfs,
    dir: &Path,
    segments: &[u64],
    wal_seq: u64,
    next_segment: u64,
) -> Result<()> {
    let payload = aryn_core::json::to_string(&Value::Object(BTreeMap::from([
        (
            "segments".to_string(),
            Value::Array(segments.iter().map(|id| Value::Int(*id as i64)).collect()),
        ),
        ("wal".to_string(), Value::Int(wal_seq as i64)),
        ("next_segment".to_string(), Value::Int(next_segment as i64)),
        ("format".to_string(), Value::Int(FORMAT)),
    ])));
    let line = format!("{}\n", vfs::encode_record('m', &payload));
    vfs::atomic_write(fs, &dir.join(MANIFEST), line.as_bytes())
}

/// A memtable's state as WAL records: `p` + the encoded document per entry,
/// `d` + the id's bytes per tombstone. Repairs a possibly-torn WAL tail, and
/// with the count footer it is a sealed segment file.
fn wal_bytes_for(layer: &Layer) -> Result<Vec<u8>> {
    let mut out = Vec::new();
    for (id, entry) in layer {
        match entry {
            Some(doc) => vfs::encode_frame_with(&mut out, b'p', |o| aryn_core::serialize::encode_document(doc, o))?,
            None => vfs::encode_frame(&mut out, b'd', id.as_bytes())?,
        }
    }
    Ok(out)
}

fn segment_bytes(layer: &Layer) -> Result<Vec<u8>> {
    let mut out = wal_bytes_for(layer)?;
    vfs::finish_frame_file(&mut out, layer.len())?;
    Ok(out)
}

fn id_from(payload: &[u8]) -> Result<&str> {
    std::str::from_utf8(payload).map_err(|_| ArynError::Io("record id is not utf-8".into()))
}

fn load_segment(fs: &dyn Vfs, dir: &Path, id: u64) -> Result<Layer> {
    let path = dir.join(seg_name(id));
    let bytes = fs.read(&path)?;
    vfs::decode_frame_file(&bytes)?
        .into_iter()
        .map(|(tag, payload)| match tag {
            b'p' => {
                let d = aryn_core::serialize::decode_document(payload)?;
                Ok((d.id.0.clone(), Some(Arc::new(d))))
            }
            b'd' => Ok((id_from(payload)?.to_string(), None)),
            other => Err(ArynError::Io(format!(
                "{}: unexpected record tag {:?}",
                path.display(),
                char::from(other)
            ))),
        })
        .collect()
}

/// A named collection of documents (LSM-segmented; see module docs).
#[derive(Debug, Default)]
pub struct DocStore {
    /// The mutable top layer. Shadows all segments.
    mem: Layer,
    /// Immutable sealed runs, oldest first. Newer segments shadow older.
    segments: Vec<Arc<Segment>>,
    config: StoreConfig,
    stats: StoreStats,
    /// Live (non-deleted) document count across all layers.
    live: usize,
    /// Mutation counter; identifies snapshots.
    seq: u64,
    next_segment: u64,
    /// Incrementally-maintained schema: `path -> type name -> doc count`.
    /// Updated by put/delete deltas, never by a corpus walk.
    schema_types: BTreeMap<String, BTreeMap<String, usize>>,
    /// Present on stores opened via [`DocStore::open`]: WAL + manifest
    /// persistence through the VFS. In-memory stores skip it entirely.
    durable: Option<Durable>,
}

impl DocStore {
    pub fn new() -> DocStore {
        DocStore::default()
    }

    pub fn with_config(config: StoreConfig) -> DocStore {
        DocStore {
            config,
            ..DocStore::default()
        }
    }

    pub fn config(&self) -> StoreConfig {
        self.config
    }

    pub fn set_config(&mut self, config: StoreConfig) {
        self.config = config;
    }

    pub fn len(&self) -> usize {
        self.live
    }

    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Lifecycle counters (seals, compactions, tombstones dropped, ...).
    pub fn stats(&self) -> StoreStats {
        self.stats
    }

    /// Number of sealed segments currently live.
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// Documents (and tombstones) in the mutable memtable.
    pub fn memtable_len(&self) -> usize {
        self.mem.len()
    }

    /// Mutation sequence number; two snapshots with the same `seq` are
    /// identical views.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Whether this store persists through a VFS (opened via
    /// [`DocStore::open`]).
    pub fn is_durable(&self) -> bool {
        self.durable.is_some()
    }

    /// Whether acked writes are fsynced (always `false` for in-memory
    /// stores).
    pub fn wal_fsync(&self) -> bool {
        self.durable.as_ref().is_some_and(|d| d.fsync)
    }

    /// The durable store's directory, if any.
    pub fn dir(&self) -> Option<&Path> {
        self.durable.as_ref().map(|d| d.dir.as_path())
    }

    /// Inserts or replaces a document. O(doc): the memtable insert plus a
    /// schema delta for the old and new property trees. On a durable store
    /// an IO failure leaves memory unchanged and bumps `io_errors`; use
    /// [`DocStore::try_put`] when the ack matters.
    pub fn put(&mut self, doc: Document) {
        let _ = self.try_put(doc);
    }

    /// Inserts or replaces a document; `Ok` is the durability ack. On a
    /// durable store the WAL record is appended (and fsynced, per
    /// [`WalConfig`]) *before* memory mutates, so `Ok` means the write
    /// survives a crash; `Err` means it was never applied.
    pub fn try_put(&mut self, doc: Document) -> Result<()> {
        if let Err(e) = self.wal_append(b'p', |o| aryn_core::serialize::encode_document(&doc, o)) {
            self.stats.io_errors += 1;
            return Err(e);
        }
        self.apply_put(doc);
        if self.config.seal_threshold > 0 && self.mem.len() >= self.config.seal_threshold {
            // A failed seal doesn't unack the put: the record is in the WAL
            // and the memtable simply stays large until a seal succeeds.
            if self.try_seal().is_err() {
                self.stats.io_errors += 1;
            }
        }
        Ok(())
    }

    /// The memory half of a put (shared with WAL replay).
    fn apply_put(&mut self, doc: Document) {
        let id = doc.id.0.clone();
        if let Some(old) = layered_lookup(&self.mem, &self.segments, &id).cloned() {
            adjust_schema(&mut self.schema_types, "", &old.properties, -1);
        } else {
            self.live += 1;
        }
        adjust_schema(&mut self.schema_types, "", &doc.properties, 1);
        self.mem.insert(id, Some(Arc::new(doc)));
        self.stats.puts += 1;
        self.seq += 1;
    }

    /// Appends one checksummed frame, whose payload `fill` writes, to the
    /// WAL (no-op on in-memory stores), repairing a torn tail first if a
    /// previous append failed mid-write.
    fn wal_append(&mut self, tag: u8, fill: impl FnOnce(&mut Vec<u8>) -> Result<()>) -> Result<()> {
        let Some(d) = self.durable.as_mut() else {
            return Ok(());
        };
        if d.wal_dirty {
            // State-equivalent rewrite: the memtable already reflects every
            // acked record, so an atomic dump of it repairs the tail.
            vfs::atomic_write(&d.vfs, &d.wal, &wal_bytes_for(&self.mem)?)?;
            d.wal_dirty = false;
        }
        d.frame.clear();
        vfs::encode_frame_with(&mut d.frame, tag, fill)?;
        let mut io = d.vfs.append(&d.wal, &d.frame);
        if io.is_ok() && d.fsync {
            io = d.vfs.sync(&d.wal);
        }
        if io.is_err() {
            d.wal_dirty = true;
            return io;
        }
        self.stats.wal_appends += 1;
        Ok(())
    }

    pub fn get(&self, id: &str) -> Option<&Document> {
        layered_lookup(&self.mem, &self.segments, id).map(Arc::as_ref)
    }

    /// Deletes a document. If a sealed segment still holds the id, a
    /// tombstone shadows it until compaction; otherwise the memtable entry
    /// is simply dropped. IO failures bump `io_errors` and report `false`.
    pub fn delete(&mut self, id: &str) -> bool {
        self.try_delete(id).unwrap_or(false)
    }

    /// Deletes with a durability ack (see [`DocStore::try_put`]).
    pub fn try_delete(&mut self, id: &str) -> Result<bool> {
        if layered_lookup(&self.mem, &self.segments, id).is_none() {
            return Ok(false);
        }
        let appended = self.wal_append(b'd', |o| {
            o.extend_from_slice(id.as_bytes());
            Ok(())
        });
        if let Err(e) = appended {
            self.stats.io_errors += 1;
            return Err(e);
        }
        self.apply_delete(id);
        Ok(true)
    }

    /// The memory half of a delete (shared with WAL replay); the id must be
    /// live.
    fn apply_delete(&mut self, id: &str) {
        if let Some(old) = layered_lookup(&self.mem, &self.segments, id).cloned() {
            adjust_schema(&mut self.schema_types, "", &old.properties, -1);
        }
        self.live -= 1;
        self.stats.deletes += 1;
        self.seq += 1;
        self.mem.remove(id);
        // Still visible through a sealed segment? Shadow it.
        if segment_lookup(&self.segments, id).is_some() {
            self.mem.insert(id.to_string(), None);
        }
    }

    /// Seals the memtable into an immutable segment (no-op when empty), then
    /// compacts if the sealed-segment count reached `compact_fanout`.
    /// Deterministic inline "background" maintenance: there are no threads,
    /// so runs are bit-reproducible. IO failures bump `io_errors` and leave
    /// the memtable in place (retried at the next threshold crossing).
    pub fn seal(&mut self) {
        if self.try_seal().is_err() {
            self.stats.io_errors += 1;
        }
    }

    /// Fallible seal. On a durable store the order is crash-safe: segment
    /// file (atomic temp→sync→rename), then the manifest naming it and
    /// rotating the WAL (atomic), then memory. A crash between any two
    /// steps recovers to either the pre-seal state (WAL replay) or the
    /// post-seal state (manifest) — never a mix.
    pub fn try_seal(&mut self) -> Result<()> {
        if self.mem.is_empty() {
            return Ok(());
        }
        if let Some(d) = self.durable.as_mut() {
            let seg_id = self.next_segment;
            vfs::atomic_write(&d.vfs, &d.seg_path(seg_id), &segment_bytes(&self.mem)?)?;
            let mut ids: Vec<u64> = self.segments.iter().map(|s| s.id).collect();
            ids.push(seg_id);
            let new_wal = d.wal_seq + 1;
            write_manifest(&d.vfs, &d.dir, &ids, new_wal, seg_id + 1)?;
            // The seal is durable; the superseded WAL is garbage (recovery
            // sweeps it if this remove never runs).
            let old = std::mem::replace(&mut d.wal, d.dir.join(wal_name(new_wal)));
            d.wal_seq = new_wal;
            d.wal_dirty = false;
            let _ = d.vfs.remove(&old);
        }
        let docs = std::mem::take(&mut self.mem);
        self.segments.push(Arc::new(Segment {
            id: self.next_segment,
            docs,
        }));
        self.next_segment += 1;
        self.stats.seals += 1;
        self.seq += 1;
        if self.config.compact_fanout > 0 && self.segments.len() >= self.config.compact_fanout {
            // The seal stands even if compaction fails; fanout stays high
            // and the next seal retries it.
            if self.try_compact().is_err() {
                self.stats.io_errors += 1;
            }
        }
        Ok(())
    }

    /// Merges all sealed segments into one, resolving shadowed entries and
    /// dropping tombstones (nothing older remains for them to shadow).
    /// Existing snapshots keep their `Arc`s to the pre-compaction segments.
    /// IO failures bump `io_errors` and change nothing.
    pub fn compact(&mut self) {
        if self.try_compact().is_err() {
            self.stats.io_errors += 1;
        }
    }

    /// Fallible compaction: merged segment file first, then the manifest
    /// swap (atomic), then memory — crash-safe like [`DocStore::try_seal`].
    pub fn try_compact(&mut self) -> Result<()> {
        if self.segments.is_empty() {
            return Ok(());
        }
        let mut merged: Layer = BTreeMap::new();
        let mut dropped = 0usize;
        for seg in &self.segments {
            for (id, entry) in &seg.docs {
                match entry {
                    Some(doc) => {
                        merged.insert(id.clone(), Some(doc.clone()));
                    }
                    None => {
                        merged.remove(id);
                        dropped += 1;
                    }
                }
            }
        }
        if let Some(d) = self.durable.as_mut() {
            let new_id = self.next_segment;
            if merged.is_empty() {
                write_manifest(&d.vfs, &d.dir, &[], d.wal_seq, new_id)?;
            } else {
                vfs::atomic_write(&d.vfs, &d.seg_path(new_id), &segment_bytes(&merged)?)?;
                write_manifest(&d.vfs, &d.dir, &[new_id], d.wal_seq, new_id + 1)?;
            }
            for seg in &self.segments {
                let _ = d.vfs.remove(&d.seg_path(seg.id));
            }
        }
        self.stats.compactions += 1;
        self.stats.segments_merged += self.segments.len();
        self.stats.tombstones_dropped += dropped;
        self.segments = if merged.is_empty() {
            Vec::new()
        } else {
            let seg = Segment {
                id: self.next_segment,
                docs: merged,
            };
            self.next_segment += 1;
            vec![Arc::new(seg)]
        };
        self.seq += 1;
        Ok(())
    }

    /// An MVCC snapshot: a frozen view sharing the sealed segments by `Arc`
    /// and cloning only the memtable (bounded by `seal_threshold`). The view
    /// is bit-stable under any later puts, deletes, seals, or compactions.
    pub fn snapshot(&self) -> StoreSnapshot {
        StoreSnapshot {
            seq: self.seq,
            live: self.live,
            mem: self.mem.clone(),
            segments: self.segments.clone(),
            schema: self.schema(),
        }
    }

    /// All documents, id-ordered (deterministic scan order): a k-way merge
    /// of memtable and segments, newest layer winning per id.
    pub fn scan(&self) -> impl Iterator<Item = &Document> {
        self.scan_shared().map(Arc::as_ref)
    }

    /// [`DocStore::scan`] handing out the stored rows themselves: cloning an
    /// item is a pointer copy, never a document copy.
    pub fn scan_shared(&self) -> impl Iterator<Item = &Arc<Document>> {
        layered_scan(&self.mem, &self.segments)
    }

    /// Documents matching a structured predicate. The predicate is compiled
    /// once (term tokenization hoisted), then streamed over the scan.
    pub fn filter(&self, pred: &Predicate) -> Vec<&Document> {
        let compiled = pred.compile();
        self.filter_shared(&compiled).map(Arc::as_ref).collect()
    }

    /// The stored rows matching an already compiled predicate, streamed.
    pub fn filter_shared<'a, 'p>(
        &'a self,
        pred: &'p CompiledPredicate,
    ) -> impl Iterator<Item = &'a Arc<Document>> + use<'a, 'p> {
        self.scan_shared().filter(move |d| pred.matches(d))
    }

    /// Distinct non-null values of a property with counts (facets).
    pub fn facet(&self, path: &str) -> Vec<(Value, usize)> {
        layered_facet(self.scan(), path)
    }

    /// The observed property schema: `path -> (type name, occurrence count)`.
    /// This is Luna's "data schema" (§6.1), discovered from ingested data.
    /// Maintained incrementally from put/delete deltas: deriving it is
    /// O(paths), never a corpus walk, so a streaming feed keeps the planner's
    /// schema fresh for free.
    pub fn schema(&self) -> BTreeMap<String, (String, usize)> {
        self.schema_types
            .iter()
            .filter_map(|(path, types)| {
                let total: usize = types.values().sum();
                if total == 0 {
                    return None;
                }
                // Dominant type wins; ties break to the lexicographically
                // smaller type name for determinism.
                let ty = types
                    .iter()
                    .max_by(|a, b| a.1.cmp(b.1).then_with(|| b.0.cmp(a.0)))
                    .map(|(t, _)| t.clone())?;
                Some((path.clone(), (ty, total)))
            })
            .collect()
    }

    /// How many full corpus walks `schema()` has performed — always `0`
    /// since the schema became delta-maintained; kept as an API probe so
    /// tests can pin that discovery stays rescan-free.
    pub fn schema_scan_count(&self) -> usize {
        0
    }
}

fn segment_lookup<'a>(segments: &'a [Arc<Segment>], id: &str) -> Option<&'a Arc<Document>> {
    for seg in segments.iter().rev() {
        if let Some(entry) = seg.docs.get(id) {
            return entry.as_ref();
        }
    }
    None
}

fn layered_lookup<'a>(
    mem: &'a Layer,
    segments: &'a [Arc<Segment>],
    id: &str,
) -> Option<&'a Arc<Document>> {
    match mem.get(id) {
        Some(entry) => entry.as_ref(),
        None => segment_lookup(segments, id),
    }
}

fn layered_scan<'a>(mem: &'a Layer, segments: &'a [Arc<Segment>]) -> MergeScan<'a> {
    // Sources ordered newest first; ties on id resolve to the lowest source.
    let mut iters = Vec::with_capacity(1 + segments.len());
    iters.push(mem.iter().peekable());
    for seg in segments.iter().rev() {
        iters.push(seg.docs.iter().peekable());
    }
    MergeScan { iters }
}

fn layered_facet<'a>(
    scan: impl Iterator<Item = &'a Document>,
    path: &str,
) -> Vec<(Value, usize)> {
    let mut counts: Vec<(Value, usize)> = Vec::new();
    for d in scan {
        let Some(v) = d.prop(path) else { continue };
        if v.is_null() {
            continue;
        }
        match counts.iter_mut().find(|(k, _)| k.loose_eq(v)) {
            Some((_, c)) => *c += 1,
            None => counts.push((v.clone(), 1)),
        }
    }
    counts.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp_total(&b.0)));
    counts
}

/// K-way merge over id-sorted layers: smallest id next, the newest layer
/// (lowest source index) winning duplicates, tombstones skipped.
struct MergeScan<'a> {
    iters: Vec<std::iter::Peekable<std::collections::btree_map::Iter<'a, String, Option<Arc<Document>>>>>,
}

impl<'a> Iterator for MergeScan<'a> {
    type Item = &'a Arc<Document>;

    fn next(&mut self) -> Option<&'a Arc<Document>> {
        loop {
            let mut best: Option<&'a String> = None;
            for it in self.iters.iter_mut() {
                if let Some(&(k, _)) = it.peek() {
                    if best.is_none_or(|b| k < b) {
                        best = Some(k);
                    }
                }
            }
            let key = best?;
            // Advance every layer holding this id; the first (newest) wins.
            let mut winner: Option<&'a Option<Arc<Document>>> = None;
            for it in self.iters.iter_mut() {
                if it.peek().is_some_and(|&(k, _)| k == key) {
                    if let Some((_, entry)) = it.next() {
                        winner.get_or_insert(entry);
                    }
                }
            }
            if let Some(Some(doc)) = winner {
                return Some(doc);
            }
            // Tombstone on top — skip the id entirely.
        }
    }
}

/// Applies a document's property tree to the incremental schema with the
/// given sign: objects recurse, nulls are skipped, every other leaf bumps
/// `path -> type` by `delta`. Mirrors the original full-walk discovery.
fn adjust_schema(
    out: &mut BTreeMap<String, BTreeMap<String, usize>>,
    prefix: &str,
    v: &Value,
    delta: i64,
) {
    let Some(obj) = v.as_object() else { return };
    for (k, child) in obj {
        let path = if prefix.is_empty() {
            k.clone()
        } else {
            format!("{prefix}.{k}")
        };
        match child {
            Value::Object(_) => adjust_schema(out, &path, child, delta),
            Value::Null => {}
            other => {
                let types = out.entry(path.clone()).or_default();
                let ty = other.type_name();
                if delta > 0 {
                    *types.entry(ty.to_string()).or_insert(0) += 1;
                } else if let Some(n) = types.get_mut(ty) {
                    *n = n.saturating_sub(1);
                    if *n == 0 {
                        types.remove(ty);
                    }
                }
                if types.is_empty() {
                    out.remove(&path);
                }
            }
        }
    }
}

/// A frozen MVCC view of a [`DocStore`]: shares sealed segments by `Arc` and
/// owns a copy of the memtable taken at snapshot time. Read-only mirror of
/// the store's read API; unaffected by later ingestion or compaction.
#[derive(Debug, Clone)]
pub struct StoreSnapshot {
    seq: u64,
    live: usize,
    mem: Layer,
    segments: Vec<Arc<Segment>>,
    schema: BTreeMap<String, (String, usize)>,
}

impl StoreSnapshot {
    /// The store's mutation sequence number at snapshot time.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    pub fn len(&self) -> usize {
        self.live
    }

    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    pub fn get(&self, id: &str) -> Option<&Document> {
        layered_lookup(&self.mem, &self.segments, id).map(Arc::as_ref)
    }

    pub fn scan(&self) -> impl Iterator<Item = &Document> {
        self.scan_shared().map(Arc::as_ref)
    }

    /// The frozen rows themselves, id-ordered: cloning an item is a pointer
    /// copy, so a reader can hold any subset without copying a document.
    pub fn scan_shared(&self) -> impl Iterator<Item = &Arc<Document>> {
        layered_scan(&self.mem, &self.segments)
    }

    pub fn filter(&self, pred: &Predicate) -> Vec<&Document> {
        let compiled = pred.compile();
        self.filter_shared(&compiled).map(Arc::as_ref).collect()
    }

    /// The frozen rows matching an already compiled predicate, streamed.
    pub fn filter_shared<'a, 'p>(
        &'a self,
        pred: &'p CompiledPredicate,
    ) -> impl Iterator<Item = &'a Arc<Document>> + use<'a, 'p> {
        self.scan_shared().filter(move |d| pred.matches(d))
    }

    pub fn facet(&self, path: &str) -> Vec<(Value, usize)> {
        layered_facet(self.scan(), path)
    }

    pub fn schema(&self) -> BTreeMap<String, (String, usize)> {
        self.schema.clone()
    }
}

impl DocStore {
    /// Opens (or creates) a durable store at `dir` with default configs.
    /// See [`DocStore::open_with`].
    pub fn open(dir: impl Into<PathBuf>, fs: Arc<dyn Vfs>) -> Result<DocStore> {
        DocStore::open_with(dir, fs, StoreConfig::default(), WalConfig::default())
    }

    /// Opens a durable store: loads the manifest's segments, replays the
    /// WAL's valid prefix into the memtable (truncating a torn tail), and
    /// sweeps orphaned files. Recovery yields exactly the consistent prefix
    /// of writes whose WAL records are durable — every acked write when
    /// `wal.fsync` is on. Counters land in [`StoreStats`] (`wal_replayed`,
    /// `torn_tail_truncated`, `segments_recovered`, `orphans_removed`).
    pub fn open_with(
        dir: impl Into<PathBuf>,
        fs: Arc<dyn Vfs>,
        config: StoreConfig,
        wal: WalConfig,
    ) -> Result<DocStore> {
        let dir: PathBuf = dir.into();
        fs.create_dir_all(&dir)?;
        let mut store = DocStore::with_config(config);
        let manifest_path = dir.join(MANIFEST);
        let mut wal_seq = 0u64;
        if fs.exists(&manifest_path) {
            let text = vfs::read_to_string(&fs, &manifest_path)?;
            let line = text
                .lines()
                .find(|l| !l.trim().is_empty())
                .ok_or_else(|| ArynError::Io(format!("{}: empty", manifest_path.display())))?;
            let (tag, payload) = vfs::decode_record(line)?;
            if tag != 'm' {
                return Err(ArynError::Io(format!(
                    "{}: not a manifest (tag {tag:?})",
                    manifest_path.display()
                )));
            }
            let v = aryn_core::json::parse(payload)?;
            // Refuse a foreign format before touching anything: replaying
            // it would read every record as a torn tail and truncate it.
            let format = v.get("format").and_then(Value::as_int);
            if format != Some(FORMAT) {
                return Err(ArynError::Io(format!(
                    "{}: store format {format:?}, this build reads {FORMAT}",
                    manifest_path.display()
                )));
            }
            let seg_ids: Vec<u64> = v
                .get("segments")
                .and_then(Value::as_array)
                .map(|a| a.iter().filter_map(Value::as_int).map(|i| i as u64).collect())
                .unwrap_or_default();
            wal_seq = v.get("wal").and_then(Value::as_int).unwrap_or(0) as u64;
            store.next_segment = v.get("next_segment").and_then(Value::as_int).unwrap_or(0) as u64;
            for id in seg_ids {
                let docs = load_segment(&fs, &dir, id)?;
                store.segments.push(Arc::new(Segment { id, docs }));
                store.stats.segments_recovered += 1;
            }
            // Rebuild live count + schema from segment-visible docs in one
            // layered pass (the WAL replay below then applies clean deltas).
            let empty: Layer = BTreeMap::new();
            let mut live = 0usize;
            for d in layered_scan(&empty, &store.segments) {
                adjust_schema(&mut store.schema_types, "", &d.properties, 1);
                live += 1;
            }
            store.live = live;
            store.replay_wal(&fs, &dir.join(wal_name(wal_seq)))?;
        } else {
            // Fresh directory: persist an empty manifest immediately so a
            // crash before the first seal still reopens cleanly.
            write_manifest(&fs, &dir, &[], 0, 0)?;
        }
        // Sweep files the manifest no longer names: staged temps, retired
        // WALs, compacted-away segments. Only our own name shapes.
        let keep_wal = wal_name(wal_seq);
        let live_segs: std::collections::BTreeSet<String> =
            store.segments.iter().map(|s| seg_name(s.id)).collect();
        for name in fs.list(&dir)? {
            if name == MANIFEST || name == keep_wal || live_segs.contains(&name) {
                continue;
            }
            if name.starts_with("wal-") || name.starts_with("seg-") || name.ends_with(".tmp") {
                let _ = fs.remove(&dir.join(&name));
                store.stats.orphans_removed += 1;
            }
        }
        store.durable = Some(Durable {
            vfs: fs,
            wal: dir.join(keep_wal),
            dir,
            fsync: wal.fsync,
            wal_seq,
            wal_dirty: false,
            frame: Vec::new(),
        });
        // The replayed memtable may already exceed the seal threshold.
        if store.config.seal_threshold > 0
            && store.mem.len() >= store.config.seal_threshold
            && store.try_seal().is_err()
        {
            store.stats.io_errors += 1;
        }
        Ok(store)
    }

    /// Replays the WAL's valid record prefix; a torn or corrupt tail is
    /// truncated away with an atomic rewrite (the tail was never acked).
    fn replay_wal(&mut self, fs: &Arc<dyn Vfs>, wal_path: &Path) -> Result<()> {
        if !fs.exists(wal_path) {
            return Ok(());
        }
        let data = fs.read(wal_path)?;
        let mut rest = &data[..];
        let mut records: Vec<(u8, &[u8])> = Vec::new();
        // The first bad frame ends the valid prefix: everything from there
        // is the torn tail (appends are strictly ordered).
        while let Some((tag, payload, tail)) =
            vfs::decode_frame(rest).filter(|(tag, ..)| matches!(tag, b'p' | b'd'))
        {
            records.push((tag, payload));
            rest = tail;
        }
        if !rest.is_empty() {
            vfs::atomic_write(fs, wal_path, &data[..data.len() - rest.len()])?;
            self.stats.torn_tail_truncated += 1;
        }
        for (tag, payload) in records {
            if tag == b'p' {
                self.apply_put(aryn_core::serialize::decode_document(payload)?);
            } else {
                let id = id_from(payload)?;
                if layered_lookup(&self.mem, &self.segments, id).is_some() {
                    self.apply_delete(id);
                }
            }
            self.stats.wal_replayed += 1;
        }
        Ok(())
    }
}

/// Materializes a store from documents.
impl FromIterator<Document> for DocStore {
    fn from_iter<I: IntoIterator<Item = Document>>(iter: I) -> DocStore {
        let mut s = DocStore::new();
        for d in iter {
            s.put(d);
        }
        s
    }
}

/// A registry of named stores (the "indexes" Luna plans against).
#[derive(Debug, Default)]
pub struct Catalog {
    stores: BTreeMap<String, DocStore>,
}

impl Catalog {
    pub fn new() -> Catalog {
        Catalog::default()
    }

    pub fn insert(&mut self, name: impl Into<String>, store: DocStore) {
        self.stores.insert(name.into(), store);
    }

    pub fn get(&self, name: &str) -> Result<&DocStore> {
        self.stores
            .get(name)
            .ok_or_else(|| ArynError::Index(format!("unknown index {name:?}")))
    }

    pub fn get_mut(&mut self, name: &str) -> Result<&mut DocStore> {
        self.stores
            .get_mut(name)
            .ok_or_else(|| ArynError::Index(format!("unknown index {name:?}")))
    }

    pub fn names(&self) -> Vec<&str> {
        self.stores.keys().map(String::as_str).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aryn_core::obj;

    fn doc(id: &str, props: Value) -> Document {
        let mut d = Document::new(id);
        d.properties = props;
        d
    }

    fn store() -> DocStore {
        [
            doc("a", obj! { "state" => "AK", "year" => 2019i64, "fatal" => 0i64, "cause" => "wind" }),
            doc("b", obj! { "state" => "TX", "year" => 2021i64, "fatal" => 2i64, "cause" => "engine failure" }),
            doc("c", obj! { "state" => "AK", "year" => 2022i64, "fatal" => 0i64 }),
            doc("d", obj! { "state" => "WA", "year" => 2020i64, "fatal" => 1i64, "cause" => "wind shear" }),
        ]
        .into_iter()
        .collect()
    }

    #[test]
    fn eq_and_in_filters() {
        let s = store();
        let ak = s.filter(&Predicate::Eq("state".into(), Value::from("ak")));
        assert_eq!(ak.len(), 2, "case-insensitive eq");
        let two = s.filter(&Predicate::In(
            "state".into(),
            vec![Value::from("TX"), Value::from("WA")],
        ));
        assert_eq!(two.len(), 2);
    }

    #[test]
    fn range_filters_respect_bounds_and_missing() {
        let s = store();
        let recent = s.filter(&Predicate::Range {
            path: "year".into(),
            lo: Some(Value::Int(2020)),
            hi: None,
        });
        assert_eq!(recent.len(), 3);
        let windowed = s.filter(&Predicate::Range {
            path: "year".into(),
            lo: Some(Value::Int(2020)),
            hi: Some(Value::Int(2021)),
        });
        assert_eq!(windowed.len(), 2);
        // Missing property fails the range.
        let has_cause = s.filter(&Predicate::Range {
            path: "cause".into(),
            lo: Some(Value::from("a")),
            hi: Some(Value::from("zzz")),
        });
        assert_eq!(has_cause.len(), 3);
    }

    #[test]
    fn contains_is_word_boundary_aware() {
        let s = store();
        let wind = s.filter(&Predicate::Contains("cause".into(), "wind".into()));
        assert_eq!(wind.len(), 2);
        let shear = s.filter(&Predicate::Contains("cause".into(), "wind shear".into()));
        assert_eq!(shear.len(), 1);
    }

    #[test]
    fn compiled_predicate_matches_interpreted() {
        let s = store();
        let preds = [
            Predicate::Contains("cause".into(), "wind".into()),
            Predicate::Contains("cause".into(), "".into()),
            Predicate::And(vec![
                Predicate::Eq("state".into(), Value::from("AK")),
                Predicate::Not(Box::new(Predicate::Contains("cause".into(), "engine".into()))),
            ]),
            Predicate::Or(vec![
                Predicate::Range {
                    path: "year".into(),
                    lo: Some(Value::Int(2021)),
                    hi: None,
                },
                Predicate::In("state".into(), vec![Value::from("wa")]),
            ]),
            Predicate::Ne("fatal".into(), Value::Int(0)),
            Predicate::Exists("cause".into()),
        ];
        for p in &preds {
            let c = p.compile();
            for d in s.scan() {
                assert_eq!(p.matches(d), c.matches(d), "{p:?} on {}", d.id.as_str());
            }
        }
    }

    #[test]
    fn boolean_composition() {
        let s = store();
        let p = Predicate::And(vec![
            Predicate::Eq("state".into(), Value::from("AK")),
            Predicate::Eq("fatal".into(), Value::Int(0)),
        ]);
        assert_eq!(s.filter(&p).len(), 2);
        let p = Predicate::Or(vec![
            Predicate::Eq("state".into(), Value::from("TX")),
            Predicate::Eq("state".into(), Value::from("WA")),
        ]);
        assert_eq!(s.filter(&p).len(), 2);
        let p = Predicate::Not(Box::new(Predicate::Exists("cause".into())));
        let missing = s.filter(&p);
        assert_eq!(missing.len(), 1);
        assert_eq!(missing[0].id.as_str(), "c");
    }

    #[test]
    fn facets_count_and_rank() {
        let s = store();
        let f = s.facet("state");
        assert_eq!(f[0], (Value::from("AK"), 2));
        assert_eq!(f.len(), 3);
        assert!(s.facet("nope").is_empty());
    }

    #[test]
    fn schema_discovery() {
        let s = store();
        let schema = s.schema();
        assert_eq!(schema["state"].0, "string");
        assert_eq!(schema["year"].0, "int");
        assert_eq!(schema["cause"].1, 3, "cause present in 3 docs");
    }

    #[test]
    fn schema_is_incremental_and_never_rescans() {
        let mut s = store();
        // Schema derivation is delta-maintained: no corpus walk ever runs.
        assert_eq!(s.schema_scan_count(), 0);
        let first = s.schema();
        assert_eq!(first["state"].1, 4);
        assert_eq!(s.schema(), first);
        // put folds the new document's fields in...
        s.put(doc("e", obj! { "state" => "HI", "island" => "Maui" }));
        let with_island = s.schema();
        assert_eq!(with_island["island"].0, "string");
        assert_eq!(with_island["state"].1, 5);
        // ...delete folds them back out...
        s.delete("e");
        assert!(!s.schema().contains_key("island"));
        s.delete("ghost");
        assert_eq!(s.schema(), first);
        // ...replacement swaps old fields for new...
        s.put(doc("a", obj! { "state" => "AK", "narrative_len" => 12i64 }));
        let replaced = s.schema();
        assert_eq!(replaced["narrative_len"].0, "int");
        assert!(!replaced.contains_key("year") || replaced["year"].1 == 3);
        // ...and seals/compactions never trigger a rescan.
        s.seal();
        s.compact();
        assert_eq!(s.schema(), replaced);
        assert_eq!(s.schema_scan_count(), 0);
    }

    #[test]
    fn put_replaces_and_delete_removes() {
        let mut s = store();
        s.put(doc("a", obj! { "state" => "OR" }));
        assert_eq!(s.get("a").unwrap().prop("state").unwrap().as_str(), Some("OR"));
        assert!(s.delete("a"));
        assert!(!s.delete("a"));
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn catalog_lookup() {
        let mut c = Catalog::new();
        c.insert("ntsb", store());
        assert!(c.get("ntsb").is_ok());
        assert!(matches!(c.get("none"), Err(ArynError::Index(_))));
        assert_eq!(c.names(), vec!["ntsb"]);
    }
}

#[cfg(test)]
mod lsm_tests {
    use super::*;
    use aryn_core::obj;

    fn doc(id: &str, n: i64) -> Document {
        let mut d = Document::new(id);
        d.properties = obj! { "n" => n, "bucket" => (n % 3).to_string() };
        d
    }

    fn small_store() -> DocStore {
        DocStore::with_config(StoreConfig {
            seal_threshold: 4,
            compact_fanout: 3,
        })
    }

    #[test]
    fn reads_match_a_flat_model_across_seals_and_compactions() {
        let mut s = small_store();
        let mut model: BTreeMap<String, i64> = BTreeMap::new();
        for i in 0..40i64 {
            let id = format!("d{:02}", i % 20); // overwrite half the ids
            s.put(doc(&id, i));
            model.insert(id, i);
            if i % 7 == 0 {
                let victim = format!("d{:02}", (i + 3) % 20);
                let in_model = model.remove(&victim).is_some();
                assert_eq!(s.delete(&victim), in_model);
            }
        }
        assert_eq!(s.len(), model.len());
        assert!(s.stats().seals > 0, "small threshold must have sealed");
        assert!(s.stats().compactions > 0, "fanout must have compacted");
        // Scan order and content match the flat model exactly.
        let got: Vec<(String, i64)> = s
            .scan()
            .map(|d| (d.id.0.clone(), d.prop("n").unwrap().as_int().unwrap()))
            .collect();
        let want: Vec<(String, i64)> = model.iter().map(|(k, v)| (k.clone(), *v)).collect();
        assert_eq!(got, want);
        for (id, n) in &model {
            assert_eq!(s.get(id).unwrap().prop("n").unwrap().as_int(), Some(*n));
        }
    }

    #[test]
    fn tombstones_shadow_sealed_entries_and_compaction_drops_them() {
        let mut s = DocStore::with_config(StoreConfig {
            seal_threshold: 0, // manual control
            compact_fanout: 0,
        });
        s.put(doc("a", 1));
        s.put(doc("b", 2));
        s.seal();
        assert_eq!(s.segment_count(), 1);
        assert!(s.delete("a"));
        assert!(s.get("a").is_none(), "memtable tombstone shadows the segment");
        assert_eq!(s.scan().count(), 1);
        assert_eq!(s.len(), 1);
        // Seal the tombstone, then compact: it resolves and disappears.
        s.seal();
        s.compact();
        assert_eq!(s.segment_count(), 1);
        assert_eq!(s.stats().tombstones_dropped, 1);
        assert!(s.get("a").is_none());
        assert_eq!(s.len(), 1);
        // Deleting a memtable-only doc needs no tombstone.
        s.put(doc("c", 3));
        assert!(s.delete("c"));
        assert_eq!(s.memtable_len(), 0);
    }

    #[test]
    fn snapshot_is_frozen_under_ingestion_and_compaction() {
        let mut s = small_store();
        for i in 0..10i64 {
            s.put(doc(&format!("d{i}"), i));
        }
        let snap = s.snapshot();
        let seq = snap.seq();
        let before: Vec<String> = snap.scan().map(|d| d.id.0.clone()).collect();
        let schema_before = snap.schema();
        // Mutate heavily underneath: overwrites, deletes, seals, compactions.
        for i in 10..60i64 {
            s.put(doc(&format!("d{}", i % 30), i));
        }
        s.delete("d3");
        s.seal();
        s.compact();
        assert!(s.seq() > seq);
        let after: Vec<String> = snap.scan().map(|d| d.id.0.clone()).collect();
        assert_eq!(before, after, "snapshot scan is bit-stable");
        assert_eq!(snap.len(), 10);
        assert_eq!(snap.schema(), schema_before);
        assert_eq!(
            snap.get("d3").unwrap().prop("n").unwrap().as_int(),
            Some(3),
            "snapshot still sees the deleted doc's old value"
        );
        // Snapshot filter/facet run against the frozen view.
        let f = snap.filter(&Predicate::Range {
            path: "n".into(),
            lo: Some(Value::Int(5)),
            hi: None,
        });
        assert_eq!(f.len(), 5);
        assert!(!snap.facet("bucket").is_empty());
    }

    #[test]
    fn replacement_across_layers_keeps_newest() {
        let mut s = DocStore::with_config(StoreConfig {
            seal_threshold: 0,
            compact_fanout: 0,
        });
        s.put(doc("x", 1));
        s.seal();
        s.put(doc("x", 2));
        s.seal();
        s.put(doc("x", 3));
        assert_eq!(s.len(), 1);
        assert_eq!(s.get("x").unwrap().prop("n").unwrap().as_int(), Some(3));
        assert_eq!(s.scan().count(), 1);
        s.compact();
        // Memtable still shadows the merged segment.
        assert_eq!(s.get("x").unwrap().prop("n").unwrap().as_int(), Some(3));
        s.seal();
        s.compact();
        assert_eq!(s.get("x").unwrap().prop("n").unwrap().as_int(), Some(3));
        assert_eq!(s.len(), 1);
    }
}

#[cfg(test)]
mod durability_tests {
    use super::*;
    use aryn_core::obj;
    use aryn_core::vfs::{ChaosFs, MemFs, StorageFault, StorageSchedule};

    fn doc(id: &str, n: i64) -> Document {
        let mut d = Document::new(id);
        d.properties = obj! { "n" => n, "bucket" => (n % 3).to_string() };
        d
    }

    fn cfg() -> StoreConfig {
        StoreConfig {
            seal_threshold: 4,
            compact_fanout: 3,
        }
    }

    #[test]
    fn open_put_reopen_recovers_everything() {
        let mem: Arc<dyn Vfs> = Arc::new(MemFs::new());
        let dir = Path::new("/store");
        let mut s = DocStore::open_with(dir, mem.clone(), cfg(), WalConfig::default()).unwrap();
        assert!(s.is_durable());
        assert!(s.wal_fsync());
        assert_eq!(s.dir(), Some(dir));
        for i in 0..10 {
            s.try_put(doc(&format!("d{i:02}"), i)).unwrap();
        }
        s.try_delete("d03").unwrap();
        assert!(s.stats().seals > 0);
        let want: Vec<(String, i64)> = s
            .scan()
            .map(|d| (d.id.0.clone(), d.prop("n").unwrap().as_int().unwrap()))
            .collect();
        let schema = s.schema();
        drop(s);

        let r = DocStore::open_with(dir, mem, cfg(), WalConfig::default()).unwrap();
        let got: Vec<(String, i64)> = r
            .scan()
            .map(|d| (d.id.0.clone(), d.prop("n").unwrap().as_int().unwrap()))
            .collect();
        assert_eq!(got, want);
        assert_eq!(r.schema(), schema, "schema rebuilt from segments + wal");
        assert!(r.stats().segments_recovered > 0);
        assert!(r.get("d03").is_none());
        assert_eq!(r.schema_scan_count(), 0);
    }

    #[test]
    fn torn_wal_tail_is_truncated_not_fatal() {
        let mem: Arc<dyn Vfs> = Arc::new(MemFs::new());
        let dir = Path::new("/store");
        let mut s = DocStore::open_with(
            dir,
            mem.clone(),
            StoreConfig {
                seal_threshold: 0,
                compact_fanout: 0,
            },
            WalConfig::default(),
        )
        .unwrap();
        s.try_put(doc("a", 1)).unwrap();
        s.try_put(doc("b", 2)).unwrap();
        drop(s);
        // Tear the log mid-record, as a crash during an append would.
        let wal = dir.join(wal_name(0));
        let mut bytes = mem.read(&wal).unwrap();
        bytes.truncate(bytes.len() - 7);
        mem.write(&wal, &bytes).unwrap();

        let r = DocStore::open(dir, mem.clone()).unwrap();
        assert_eq!(r.len(), 1, "only the intact record survives");
        assert!(r.get("a").is_some());
        assert_eq!(r.stats().wal_replayed, 1);
        assert_eq!(r.stats().torn_tail_truncated, 1);
        drop(r);
        // The truncation is physical: a second open replays cleanly.
        let r2 = DocStore::open(dir, mem).unwrap();
        assert_eq!(r2.stats().torn_tail_truncated, 0);
        assert_eq!(r2.len(), 1);
    }

    /// Every file on `fs`, bytes included.
    fn disk_image(fs: &MemFs) -> Vec<(String, Vec<u8>)> {
        fs.file_names().into_iter().map(|p| (p.clone(), fs.read(Path::new(&p)).unwrap())).collect()
    }

    #[test]
    fn wal_torn_at_every_offset_of_its_last_frame_keeps_the_whole_frames() {
        let manual = StoreConfig {
            seal_threshold: 0,
            compact_fanout: 0,
        };
        let dir = Path::new("/store");
        let mem = Arc::new(MemFs::new());
        let mut s = DocStore::open_with(dir, mem.clone(), manual, WalConfig::default()).unwrap();
        for i in 0..3 {
            s.try_put(doc(&format!("d{i}"), i)).unwrap();
        }
        s.try_delete("d0").unwrap();
        drop(s);
        let wal = dir.join(wal_name(0));
        let full = mem.read(&wal).unwrap();
        let last = 9 + "d0".len();
        for cut in full.len() - last..full.len() {
            let img = Arc::new(MemFs::new());
            img.write(&dir.join(MANIFEST), &mem.read(&dir.join(MANIFEST)).unwrap()).unwrap();
            img.write(&wal, &full[..cut]).unwrap();
            let r = DocStore::open_with(dir, img.clone(), manual, WalConfig::default()).unwrap();
            assert_eq!(r.stats().wal_replayed, 3, "cut at {cut}");
            assert_eq!(r.stats().torn_tail_truncated, usize::from(cut > full.len() - last));
            assert!(r.get("d0").is_some(), "the torn delete never applied");
            assert_eq!(img.read(&wal).unwrap(), &full[..full.len() - last], "tail physically cut");
            drop(r);
            let again = DocStore::open_with(dir, img, manual, WalConfig::default()).unwrap();
            assert_eq!((again.stats().wal_replayed, again.stats().torn_tail_truncated), (3, 0));
        }
    }

    #[test]
    fn a_foreign_store_is_an_error_never_a_truncation() {
        // A store as the JSON-line format wrote it: a manifest without a
        // format version and a WAL of text records.
        let mem = Arc::new(MemFs::new());
        let dir = Path::new("/store");
        let manifest = r#"{"next_segment":0,"segments":[],"wal":0}"#;
        mem.write(&dir.join(MANIFEST), format!("{}\n", vfs::encode_record('m', manifest)).as_bytes())
            .unwrap();
        let record = r#"{"elements":[],"id":"a","lineage":[],"properties":{"n":1}}"#;
        mem.write(&dir.join(wal_name(0)), format!("{}\n", vfs::encode_record('p', record)).as_bytes())
            .unwrap();
        mem.write(&dir.join("seg-000007.seg.tmp"), b"orphan").unwrap();
        let before = disk_image(&mem);
        let err = DocStore::open(dir, mem.clone()).unwrap_err();
        assert!(matches!(&err, ArynError::Io(m) if m.contains("format")), "{err:?}");
        assert_eq!(disk_image(&mem), before, "no sweep, no WAL rewrite");
    }

    #[test]
    fn recovery_is_idempotent_replay_twice_equals_once() {
        let mem: Arc<dyn Vfs> = Arc::new(MemFs::new());
        let dir = Path::new("/store");
        let mut s = DocStore::open_with(dir, mem.clone(), cfg(), WalConfig::default()).unwrap();
        for i in 0..9 {
            s.try_put(doc(&format!("d{i}"), i)).unwrap();
        }
        s.try_delete("d2").unwrap();
        s.try_put(doc("d5", 50)).unwrap();
        drop(s);
        let pass = |fs: Arc<dyn Vfs>| {
            let r = DocStore::open_with(dir, fs, cfg(), WalConfig::default()).unwrap();
            let rows: Vec<(String, i64)> = r
                .scan()
                .map(|d| (d.id.0.clone(), d.prop("n").unwrap().as_int().unwrap()))
                .collect();
            (rows, r.schema(), r.len())
        };
        let first = pass(mem.clone());
        let second = pass(mem);
        assert_eq!(first, second, "open is a pure function of the disk image");
    }

    #[test]
    fn unsynced_wal_allows_prefix_loss_never_corruption() {
        // fsync off: a crash may lose the volatile tail, but recovery still
        // yields a clean prefix of submitted writes.
        let inner = Arc::new(MemFs::new());
        let chaos: Arc<dyn Vfs> = Arc::new(ChaosFs::wrap(
            inner.clone(),
            StorageSchedule::calm().with_crash_at(14).with_seed(3),
        ));
        let dir = Path::new("/store");
        let mut s = DocStore::open_with(
            dir,
            chaos,
            StoreConfig {
                seal_threshold: 0,
                compact_fanout: 0,
            },
            WalConfig { fsync: false },
        )
        .unwrap();
        let mut submitted = Vec::new();
        for i in 0..40 {
            let id = format!("d{i:02}");
            if s.try_put(doc(&id, i)).is_err() {
                break;
            }
            submitted.push(id);
        }
        assert!(submitted.len() < 40, "crash interrupted the run");
        let r = DocStore::open(dir, inner).unwrap();
        let got: Vec<String> = r.scan().map(|d| d.id.0.clone()).collect();
        assert!(got.len() <= submitted.len());
        assert_eq!(got[..], submitted[..got.len()], "recovered = clean prefix");
    }

    #[test]
    fn enospc_put_is_not_acked_and_store_stays_usable() {
        let mem: Arc<dyn Vfs> = Arc::new(MemFs::new());
        let chaos: Arc<dyn Vfs> = Arc::new(ChaosFs::wrap(
            mem.clone(),
            // Ops 0..2 are open's mkdir + fresh manifest write; fault the
            // first puts after that.
            StorageSchedule::calm().with_window(StorageFault::Enospc, 4, 2),
        ));
        let dir = Path::new("/store");
        let mut s = DocStore::open_with(
            dir,
            chaos,
            StoreConfig {
                seal_threshold: 0,
                compact_fanout: 0,
            },
            WalConfig { fsync: false },
        )
        .unwrap();
        let mut acked = 0;
        let mut rejected = 0;
        for i in 0..6 {
            match s.try_put(doc(&format!("d{i}"), i)) {
                Ok(()) => acked += 1,
                Err(_) => rejected += 1,
            }
        }
        assert!(rejected > 0, "ENOSPC must reject some puts");
        assert_eq!(s.len(), acked, "rejected puts never mutate memory");
        assert_eq!(s.stats().io_errors, rejected);
        drop(s);
        let r = DocStore::open(dir, mem).unwrap();
        assert_eq!(r.len(), acked, "exactly the acked puts recover");
    }
}
