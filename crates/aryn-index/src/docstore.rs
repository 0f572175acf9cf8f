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
//! sealed entries) are dropped. Readers either read the live store or take a
//! [`StoreSnapshot`], an O(segments) frozen view that stays bit-stable while
//! ingestion and compaction continue underneath it (MVCC reads). Either way a
//! read walks the layer stack's visible entries — worked out once by a k-way
//! merge, newest layer winning per id, and kept until the stack changes —
//! and judges and projects rows through per-layer property columns
//! ([`crate::columns`]).

use crate::columns::Column;
use aryn_core::vfs::{self, Vfs};
use aryn_core::{ArynError, Document, Result, Value};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::{mpsc, Arc, OnceLock};
use std::thread::JoinHandle;

/// A store's observed property schema: `path -> (dominant type name,
/// occurrence count)` ([`DocStore::schema`]).
pub type Schema = BTreeMap<String, (String, usize)>;

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
    fn matches_value(&self, props: &Value) -> bool {
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

/// A [`Predicate`] with per-predicate state precomputed: `Contains` needles
/// are tokenized once at compile time instead of once per document per
/// leaf. `DocStore::filter` and snapshot filters compile automatically;
/// callers evaluating one predicate against a whole corpus should compile
/// explicitly.
#[derive(Debug, Clone)]
pub struct CompiledPredicate {
    root: CompiledNode,
}

#[derive(Debug, Clone)]
enum CompiledNode {
    /// The value at a property path, tested by one [`Leaf`].
    Leaf(String, Leaf),
    And(Vec<CompiledNode>),
    Or(Vec<CompiledNode>),
    Not(Box<CompiledNode>),
}

/// One comparison against the value at a path (`None` when the path is
/// missing). Store reads test it once per distinct value of a layer's
/// column, [`CompiledPredicate::matches`] once per document: one function,
/// so the two cannot disagree.
#[derive(Debug, Clone)]
enum Leaf {
    Eq(Value),
    Ne(Value),
    Range { lo: Option<Value>, hi: Option<Value> },
    In(Vec<Value>),
    Exists,
    /// The term pre-tokenized (lowercased word tokens).
    Contains(Vec<String>),
}

impl Leaf {
    fn test(&self, v: Option<&Value>) -> bool {
        let Some(v) = v else { return false };
        match self {
            Leaf::Eq(want) => v.loose_eq(want),
            Leaf::Ne(want) => !v.loose_eq(want),
            Leaf::Range { lo, hi } => !v.is_null() && range_ok(v, lo.as_ref(), hi.as_ref()),
            Leaf::In(options) => options.iter().any(|o| v.loose_eq(o)),
            Leaf::Exists => !v.is_null(),
            Leaf::Contains(needle) => v
                .as_str()
                .is_some_and(|s| aryn_core::text::contains_tokens(s, needle)),
        }
    }
}

impl CompiledNode {
    fn build(p: &Predicate) -> CompiledNode {
        let leaf = |path: &String, leaf| CompiledNode::Leaf(path.clone(), leaf);
        match p {
            Predicate::Eq(path, want) => leaf(path, Leaf::Eq(want.clone())),
            Predicate::Ne(path, want) => leaf(path, Leaf::Ne(want.clone())),
            Predicate::Range { path, lo, hi } => leaf(path, Leaf::Range { lo: lo.clone(), hi: hi.clone() }),
            Predicate::In(path, options) => leaf(path, Leaf::In(options.clone())),
            Predicate::Exists(path) => leaf(path, Leaf::Exists),
            Predicate::Contains(path, term) => leaf(path, Leaf::Contains(aryn_core::text::tokenize(term))),
            Predicate::And(ps) => CompiledNode::And(ps.iter().map(CompiledNode::build).collect()),
            Predicate::Or(ps) => CompiledNode::Or(ps.iter().map(CompiledNode::build).collect()),
            Predicate::Not(p) => CompiledNode::Not(Box::new(CompiledNode::build(p))),
        }
    }

    fn matches_value(&self, props: &Value) -> bool {
        match self {
            CompiledNode::Leaf(path, leaf) => leaf.test(props.get_path(path)),
            CompiledNode::And(ps) => ps.iter().all(|p| p.matches_value(props)),
            CompiledNode::Or(ps) => ps.iter().any(|p| p.matches_value(props)),
            CompiledNode::Not(p) => !p.matches_value(props),
        }
    }

    /// The verdict for every entry of a run, read from its columns: each
    /// leaf is tested once per distinct value of its path.
    fn run_mask(&self, run: &Run, stats: &mut ScanStats) -> Vec<bool> {
        match self {
            CompiledNode::Leaf(path, leaf) => {
                let col = run.column(path, stats);
                let table = col.table(|v| leaf.test(v));
                col.codes().iter().map(|&c| table[c as usize]).collect()
            }
            CompiledNode::And(ps) | CompiledNode::Or(ps) => {
                // The first child's mask is the start: an empty `And` is
                // all true, an empty `Or` all false.
                let all = matches!(self, CompiledNode::And(_));
                let Some((first, rest)) = ps.split_first() else { return vec![all; run.docs.len()] };
                let mut mask = first.run_mask(run, stats);
                for p in rest {
                    for (m, v) in mask.iter_mut().zip(p.run_mask(run, stats)) {
                        *m = if all { *m && v } else { *m || v };
                    }
                }
                mask
            }
            CompiledNode::Not(p) => {
                let mut mask = p.run_mask(run, stats);
                mask.iter_mut().for_each(|m| *m = !*m);
                mask
            }
        }
    }
}

impl CompiledPredicate {
    pub fn matches(&self, doc: &Document) -> bool {
        self.root.matches_value(&doc.properties)
    }
}

/// What a columnar read did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanStats {
    /// Visible rows the read judged (all of them from columns).
    pub rows: usize,
    /// Columns this read had to build: first reads of a path on a run.
    pub columns_built: usize,
    /// Visible-entry plans this read had to build: first reads of a layer
    /// stack.
    pub plans_built: usize,
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
    /// Failed durable writes, counted once by the method whose IO failed
    /// (`try_put`, `try_delete`, `try_seal`, `try_compact`) — including a
    /// threshold seal or fanout compaction another call triggered. The
    /// durable image stays consistent; the write was not applied.
    pub io_errors: usize,
}

/// One immutable, id-sorted run of documents. `None` entries are tombstones
/// shadowing older layers; they survive until compaction resolves them.
#[derive(Debug)]
pub struct Segment {
    id: u64,
    run: Arc<Run>,
}

impl Segment {
    fn new(id: u64, docs: Layer) -> Segment {
        Segment { id, run: Arc::new(Run::new(docs)) }
    }

    pub fn id(&self) -> u64 {
        self.id
    }

    /// Entries including tombstones.
    pub fn len(&self) -> usize {
        self.run.docs.len()
    }

    pub fn is_empty(&self) -> bool {
        self.run.docs.is_empty()
    }
}

type Layer = BTreeMap<String, Option<Arc<Document>>>;

/// A layer's entries with what reads have built over them: property
/// columns, the entries by position, and (on a stack's top run) the plan of
/// the stack's visible entries. A run is never written while anything else
/// holds it: the memtable is copy-on-write ([`DocStore::mem_mut`]) and a
/// seal hands the memtable's run to its segment as is, so all of it stays
/// true for as long as its run lives and every snapshot holding the run
/// shares it.
#[derive(Debug, Default)]
struct Run {
    docs: Layer,
    /// Columns by path, built on first read of the path.
    columns: Mutex<BTreeMap<String, Arc<Column>>>,
    /// The entries in id order, built on the first read of a row by
    /// position.
    entries: OnceLock<Vec<Option<Arc<Document>>>>,
    /// The visible entries of the stack this run tops (see [`visible`]).
    plan: Mutex<Option<KeptPlan>>,
}

/// A stack's visible-entry spans with the ids of the segments that were
/// beneath its top run when they were worked out.
type KeptPlan = (Vec<u64>, Arc<[Span]>);

impl Clone for Run {
    /// The entries only: the copy is about to be written.
    fn clone(&self) -> Run {
        Run::new(self.docs.clone())
    }
}

impl Run {
    fn new(docs: Layer) -> Run {
        Run { docs, ..Run::default() }
    }

    /// The column of `path`, built under the run's lock on first use (one
    /// `get_path` per entry), counted in `stats.columns_built`.
    fn column(&self, path: &str, stats: &mut ScanStats) -> Arc<Column> {
        let mut columns = self.columns.lock();
        if let Some(col) = columns.get(path) {
            return Arc::clone(col);
        }
        stats.columns_built += 1;
        let col = Arc::new(Column::build(self.docs.values(), path));
        columns.insert(path.to_string(), Arc::clone(&col));
        col
    }

    /// The entries by position (`None`: a tombstone, which no plan names),
    /// built on first use.
    fn entries(&self) -> &[Option<Arc<Document>>] {
        self.entries.get_or_init(|| self.docs.values().cloned().collect())
    }
}

/// On-disk layout (DESIGN.md §5k): a manifest naming live segments and the
/// current WAL, a frame file of one `m` frame.
const MANIFEST: &str = "MANIFEST";

/// The on-disk format the manifest declares: every file is frames, records
/// are [`aryn_core::serialize::encode_document`] bytes. A manifest of an
/// older format (text lines) or with another value is refused at open.
const FORMAT: i64 = 3;

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
    /// The live WAL's path (`wal_seq`'s file), shared with the syncer.
    wal: Arc<Path>,
    /// Set while the WAL tail may be torn or hold a record memory never
    /// applied (an append or its fsync failed, or the put's work unwound);
    /// the log is atomically rewritten from the memtable before the next
    /// append.
    wal_dirty: bool,
    /// The record being appended, reused so a put stages nothing.
    frame: Vec<u8>,
    /// The WAL's fsync thread, started by the first append with fsync on.
    syncer: Option<Syncer>,
}

/// A long-lived thread that fsyncs the WAL, so a put's caller can do the
/// arrival's read-only work while the sync is in flight
/// ([`DocStore::try_put_with`]). One request is outstanding at a time;
/// dropping the store stops and joins the thread.
#[derive(Debug)]
struct Syncer {
    /// `None` only while dropping: closing the channel ends the thread.
    requests: Option<mpsc::Sender<Arc<Path>>>,
    /// Behind a `Mutex` only so that `DocStore` stays `Sync`; reached
    /// through `get_mut`, never locked.
    replies: Mutex<mpsc::Receiver<Result<()>>>,
    /// A request whose reply was never taken (the caller's work unwound):
    /// drained before the next request so replies stay paired.
    pending: bool,
    thread: Option<JoinHandle<()>>,
}

impl Syncer {
    fn start(vfs: Arc<dyn Vfs>) -> Result<Syncer> {
        let (requests, inbox) = mpsc::channel::<Arc<Path>>();
        let (outbox, replies) = mpsc::channel();
        let thread = std::thread::Builder::new()
            .name("wal-sync".into())
            .spawn(move || {
                for path in inbox {
                    if outbox.send(vfs.sync(&path)).is_err() {
                        break;
                    }
                }
            })
            .map_err(|e| ArynError::Io(format!("cannot start the WAL syncer: {e}")))?;
        Ok(Syncer { requests: Some(requests), replies: Mutex::new(replies), pending: false, thread: Some(thread) })
    }

    /// Fsyncs `path` on the syncer thread while `work` runs on this one;
    /// returns `work`'s value once the sync has finished, with its result.
    fn sync_while<R>(&mut self, path: &Arc<Path>, work: impl FnOnce() -> R) -> (R, Result<()>) {
        let gone = || ArynError::Io("the WAL syncer thread has stopped".into());
        let replies = self.replies.get_mut();
        if self.pending {
            let _ = replies.recv();
            self.pending = false;
        }
        let sent = self.requests.as_ref().is_some_and(|tx| tx.send(Arc::clone(path)).is_ok());
        self.pending = sent;
        let value = work();
        if !sent {
            return (value, Err(gone()));
        }
        let synced = replies.recv().unwrap_or_else(|_| Err(gone()));
        self.pending = false;
        (value, synced)
    }
}

impl Drop for Syncer {
    fn drop(&mut self) {
        self.requests.take();
        if let Some(thread) = self.thread.take() {
            // A panic on the syncer already failed its put's ack.
            let _ = thread.join();
        }
    }
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
    let mut file = Vec::new();
    vfs::encode_frame(&mut file, b'm', payload.as_bytes())?;
    vfs::finish_frame_file(&mut file, 1)?;
    vfs::atomic_write(fs, &dir.join(MANIFEST), &file)
}

/// Parses the manifest at `path`. Anything but one `m` frame under its
/// footer — a torn file, a flipped byte, an older text-line manifest — is
/// not this format and is refused, as is a payload declaring another one.
fn read_manifest(fs: &dyn Vfs, path: &Path) -> Result<Value> {
    let bytes = fs.read(path)?;
    let not_ours = |why: &str| ArynError::Io(format!("{}: not a format-{FORMAT} manifest ({why})", path.display()));
    let payload = match vfs::decode_frame_file(&bytes).map_err(|e| not_ours(&e.to_string()))?[..] {
        [(b'm', payload)] => payload,
        _ => return Err(not_ours("expected one `m` frame")),
    };
    let v = aryn_core::json::parse(std::str::from_utf8(payload).map_err(|_| not_ours("payload is not utf-8"))?)?;
    let format = v.get("format").and_then(Value::as_int);
    if format != Some(FORMAT) {
        return Err(ArynError::Io(format!(
            "{}: store format {format:?}, this build reads {FORMAT}",
            path.display()
        )));
    }
    Ok(v)
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
    /// The mutable top layer. Shadows all segments. Written through
    /// [`DocStore::mem_mut`] only.
    mem: Arc<Run>,
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
    /// [`DocStore::schema`] as the snapshots since the last write share
    /// it: derived at the first pin after a write, dropped by the write.
    shared_schema: OnceLock<Arc<Schema>>,
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
    #[cfg(test)]
    fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// Documents (and tombstones) in the mutable memtable.
    #[cfg(test)]
    fn memtable_len(&self) -> usize {
        self.mem.docs.len()
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

    /// Inserts or replaces a document; `Ok` is the durability ack. O(doc):
    /// the memtable insert plus a schema delta for the old and new property
    /// trees. On a durable store the WAL record is appended (and fsynced,
    /// per [`WalConfig`]) *before* memory mutates, so `Ok` means the write
    /// survives a crash; `Err` means it was never applied. In-memory
    /// stores never fail.
    pub fn try_put(&mut self, doc: Document) -> Result<()> {
        self.try_put_with(doc, || ())
    }

    /// [`DocStore::try_put`] that also runs `work` on the caller's thread
    /// and returns its value: after the WAL append, while the record's
    /// fsync runs on the store's syncer thread, and before the memtable
    /// put, which waits for the sync to succeed. `work` must not touch this
    /// store; it suits the arrival's read-only index work. It does not run
    /// when the append fails; when the sync fails, its value is dropped
    /// with the refused ack.
    pub fn try_put_with<R>(&mut self, doc: Document, work: impl FnOnce() -> R) -> Result<R> {
        let value = self
            .wal_append(b'p', |o| aryn_core::serialize::encode_document(&doc, o), work)
            .inspect_err(|_| self.stats.io_errors += 1)?;
        self.apply_put(doc);
        if self.config.seal_threshold > 0 && self.mem.docs.len() >= self.config.seal_threshold {
            // A failed seal (counted by `try_seal`) doesn't unack the put:
            // the record is in the WAL and the memtable simply stays large
            // until a seal succeeds.
            let _ = self.try_seal();
        }
        Ok(value)
    }

    /// The memtable's entries for writing: copied first if a snapshot still
    /// holds the current run, and everything reads built over it (columns,
    /// positions, plan, the shared schema) dropped either way.
    fn mem_mut(&mut self) -> &mut Layer {
        self.shared_schema.take();
        let run = Arc::make_mut(&mut self.mem);
        run.columns.lock().clear();
        run.entries.take();
        run.plan.lock().take();
        &mut run.docs
    }

    /// The memory half of a put (shared with WAL replay).
    fn apply_put(&mut self, doc: Document) {
        let id = doc.id.0.clone();
        if let Some(old) = layered_lookup(&self.mem.docs, &self.segments, &id).cloned() {
            adjust_schema(&mut self.schema_types, "", &old.properties, -1);
        } else {
            self.live += 1;
        }
        adjust_schema(&mut self.schema_types, "", &doc.properties, 1);
        self.mem_mut().insert(id, Some(Arc::new(doc)));
        self.stats.puts += 1;
        self.seq += 1;
    }

    /// Appends one checksummed frame, whose payload `fill` writes, to the
    /// WAL, repairing a torn tail first if a previous append failed
    /// mid-write, and runs `work` once the frame is appended: beside the
    /// fsync when the store syncs, after the append otherwise, and alone on
    /// in-memory stores. `Ok` carries `work`'s value once the record is
    /// durable.
    fn wal_append<R>(
        &mut self,
        tag: u8,
        fill: impl FnOnce(&mut Vec<u8>) -> Result<()>,
        work: impl FnOnce() -> R,
    ) -> Result<R> {
        let Some(d) = self.durable.as_mut() else {
            return Ok(work());
        };
        if d.wal_dirty {
            // State-equivalent rewrite: the memtable already reflects every
            // acked record, so an atomic dump of it repairs the tail.
            vfs::atomic_write(&d.vfs, &d.wal, &wal_bytes_for(&self.mem.docs)?)?;
            d.wal_dirty = false;
        }
        d.frame.clear();
        vfs::encode_frame_with(&mut d.frame, tag, fill)?;
        if d.fsync && d.syncer.is_none() {
            // Started before the append, so a store that cannot sync
            // refuses the put with the WAL untouched.
            d.syncer = Some(Syncer::start(Arc::clone(&d.vfs))?);
        }
        // Dirty until the record is durable: an error or an unwinding
        // `work` leaves a tail that memory never applies.
        d.wal_dirty = true;
        d.vfs.append(&d.wal, &d.frame)?;
        let value = match &mut d.syncer {
            Some(syncer) => {
                let (value, synced) = syncer.sync_while(&d.wal, work);
                synced?;
                value
            }
            None => work(),
        };
        d.wal_dirty = false;
        self.stats.wal_appends += 1;
        Ok(value)
    }

    pub fn get(&self, id: &str) -> Option<&Document> {
        layered_lookup(&self.mem.docs, &self.segments, id).map(Arc::as_ref)
    }

    /// Deletes a document with a durability ack (see [`DocStore::try_put`]);
    /// `Ok(false)` when the id was not live. If a sealed segment still holds
    /// the id, a tombstone shadows it until compaction; otherwise the
    /// memtable entry is simply dropped.
    pub fn try_delete(&mut self, id: &str) -> Result<bool> {
        if layered_lookup(&self.mem.docs, &self.segments, id).is_none() {
            return Ok(false);
        }
        self.wal_append(
            b'd',
            |o| {
                o.extend_from_slice(id.as_bytes());
                Ok(())
            },
            || (),
        )
        .inspect_err(|_| self.stats.io_errors += 1)?;
        self.apply_delete(id);
        Ok(true)
    }

    /// The memory half of a delete (shared with WAL replay); the id must be
    /// live.
    fn apply_delete(&mut self, id: &str) {
        if let Some(old) = layered_lookup(&self.mem.docs, &self.segments, id).cloned() {
            adjust_schema(&mut self.schema_types, "", &old.properties, -1);
        }
        self.live -= 1;
        self.stats.deletes += 1;
        self.seq += 1;
        let shadowed = segment_lookup(&self.segments, id).is_some();
        let mem = self.mem_mut();
        mem.remove(id);
        // Still visible through a sealed segment? Shadow it.
        if shadowed {
            mem.insert(id.to_string(), None);
        }
    }

    /// Seals the memtable into an immutable segment (no-op when empty), then
    /// compacts if the sealed-segment count reached `compact_fanout`.
    /// Deterministic inline "background" maintenance: no maintenance
    /// thread, so runs are bit-reproducible. On a durable store the order is
    /// crash-safe: segment file (atomic temp→sync→rename), then the manifest
    /// naming it and rotating the WAL (atomic), then memory. A crash between
    /// any two steps recovers to either the pre-seal state (WAL replay) or
    /// the post-seal state (manifest) — never a mix. An IO failure bumps
    /// `io_errors` and leaves the memtable in place (retried at the next
    /// threshold crossing).
    pub fn try_seal(&mut self) -> Result<()> {
        if self.mem.docs.is_empty() {
            return Ok(());
        }
        if let Some(d) = self.durable.as_mut() {
            let seg_id = self.next_segment;
            let mut ids: Vec<u64> = self.segments.iter().map(|s| s.id).collect();
            ids.push(seg_id);
            let new_wal = d.wal_seq + 1;
            segment_bytes(&self.mem.docs)
                .and_then(|seg| vfs::atomic_write(&d.vfs, &d.seg_path(seg_id), &seg))
                .and_then(|()| write_manifest(&d.vfs, &d.dir, &ids, new_wal, seg_id + 1))
                .inspect_err(|_| self.stats.io_errors += 1)?;
            // The seal is durable; the superseded WAL is garbage (recovery
            // sweeps it if this remove never runs).
            let old = std::mem::replace(&mut d.wal, d.dir.join(wal_name(new_wal)).into());
            d.wal_seq = new_wal;
            d.wal_dirty = false;
            let _ = d.vfs.remove(&old);
        }
        // The memtable's run, columns and all, becomes the segment's.
        let run = std::mem::take(&mut self.mem);
        self.segments.push(Arc::new(Segment { id: self.next_segment, run }));
        self.next_segment += 1;
        self.stats.seals += 1;
        self.seq += 1;
        if self.config.compact_fanout > 0 && self.segments.len() >= self.config.compact_fanout {
            // The seal stands even if compaction fails (counted by
            // `try_compact`); fanout stays high and the next seal retries it.
            let _ = self.try_compact();
        }
        Ok(())
    }

    /// Merges all sealed segments into one, resolving shadowed entries and
    /// dropping tombstones (nothing older remains for them to shadow).
    /// Existing snapshots keep their `Arc`s to the pre-compaction segments.
    /// On a durable store: merged segment file first, then the manifest swap
    /// (atomic), then memory — crash-safe like [`DocStore::try_seal`]. An IO
    /// failure bumps `io_errors` and changes nothing.
    pub fn try_compact(&mut self) -> Result<()> {
        if self.segments.is_empty() {
            return Ok(());
        }
        let mut merged: Layer = BTreeMap::new();
        let mut dropped = 0usize;
        for seg in &self.segments {
            for (id, entry) in &seg.run.docs {
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
            let persisted = if merged.is_empty() {
                write_manifest(&d.vfs, &d.dir, &[], d.wal_seq, new_id)
            } else {
                segment_bytes(&merged)
                    .and_then(|seg| vfs::atomic_write(&d.vfs, &d.seg_path(new_id), &seg))
                    .and_then(|()| write_manifest(&d.vfs, &d.dir, &[new_id], d.wal_seq, new_id + 1))
            };
            persisted.inspect_err(|_| self.stats.io_errors += 1)?;
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
            let seg = Segment::new(self.next_segment, merged);
            self.next_segment += 1;
            vec![Arc::new(seg)]
        };
        self.seq += 1;
        Ok(())
    }

    /// An MVCC snapshot: a frozen view sharing the sealed segments, the
    /// memtable's current run and the schema by `Arc` (the schema is
    /// derived, O(paths), by the first pin after a write). The next write
    /// copies the memtable (bounded by `seal_threshold`) if a snapshot still
    /// holds it. The view is bit-stable under any later puts, deletes,
    /// seals, or compactions.
    pub fn snapshot(&self) -> StoreSnapshot {
        StoreSnapshot {
            seq: self.seq,
            live: self.live,
            mem: Arc::clone(&self.mem),
            segments: self.segments.clone(),
            schema: Arc::clone(self.shared_schema.get_or_init(|| Arc::new(self.schema()))),
        }
    }

    /// All documents, id-ordered (deterministic scan order): the newest
    /// layer's entry per id, read from the stack's visible-entry plan.
    pub fn scan(&self) -> impl Iterator<Item = &Document> {
        self.scan_shared().map(Arc::as_ref)
    }

    /// [`DocStore::scan`] handing out the stored rows themselves: cloning an
    /// item is a pointer copy, never a document copy.
    pub fn scan_shared(&self) -> impl Iterator<Item = &Arc<Document>> {
        layered_rows(&self.mem, &self.segments)
    }

    /// Documents matching a structured predicate. The predicate is compiled
    /// once (term tokenization hoisted), then streamed over the scan.
    pub fn filter(&self, pred: &Predicate) -> Vec<&Document> {
        let compiled = pred.compile();
        self.filter_shared(&compiled).map(Arc::as_ref).collect()
    }

    /// The stored rows matching an already compiled predicate, streamed in
    /// scan order, each judged from its layer's columns.
    pub fn filter_shared<'a>(&'a self, pred: &CompiledPredicate) -> Matches<'a> {
        Matches::new(&self.mem, &self.segments, pred)
    }

    /// Distinct non-null values of a property with counts (facets).
    pub fn facet(&self, path: &str) -> Vec<(Value, usize)> {
        layered_facet(&self.mem, &self.segments, path)
    }

    /// The observed property schema: `path -> (type name, occurrence count)`.
    /// This is Luna's "data schema" (§6.1), discovered from ingested data.
    /// Maintained incrementally from put/delete deltas: deriving it is
    /// O(paths), never a corpus walk, so a streaming feed keeps the planner's
    /// schema fresh for free.
    pub fn schema(&self) -> Schema {
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
}

fn segment_lookup<'a>(segments: &'a [Arc<Segment>], id: &str) -> Option<&'a Arc<Document>> {
    for seg in segments.iter().rev() {
        if let Some(entry) = seg.run.docs.get(id) {
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

/// Consecutive visible entries `start..end` of one layer (an index into
/// [`Visible::layers`]).
#[derive(Debug, Clone, Copy)]
struct Span {
    layer: usize,
    start: usize,
    end: usize,
}

/// A read's view of one layer stack: its layers, newest first (the
/// memtable's run, then the sealed segments' from the newest down), and its
/// visible entries in id order as spans of positions in them.
struct Visible<'a> {
    layers: Vec<&'a Run>,
    spans: Arc<[Span]>,
}

/// The stack of `mem` over `segments`. An entry is visible when no newer
/// layer holds its id and it is not a tombstone. The spans come from one
/// merge of the layers and are kept on `mem`, keyed by the ids of the
/// segments beneath it: a write drops them ([`DocStore::mem_mut`]), a seal
/// puts a new run on top and a compaction changes the ids, so a kept plan
/// always belongs to the stack that finds it. A build counts in
/// `stats.plans_built`.
fn visible<'a>(mem: &'a Run, segments: &'a [Arc<Segment>], stats: &mut ScanStats) -> Visible<'a> {
    let layers: Vec<&Run> = std::iter::once(mem).chain(segments.iter().rev().map(|seg| seg.run.as_ref())).collect();
    let mut plan = mem.plan.lock();
    let spans = match &*plan {
        Some((ids, spans)) if ids.iter().eq(segments.iter().map(|seg| &seg.id)) => Arc::clone(spans),
        _ => {
            stats.plans_built += 1;
            let mut spans: Vec<Span> = Vec::new();
            for (layer, pos) in MergeScan::new(&layers) {
                match spans.last_mut() {
                    Some(span) if span.layer == layer && span.end == pos => span.end += 1,
                    _ => spans.push(Span { layer, start: pos, end: pos + 1 }),
                }
            }
            let spans: Arc<[Span]> = spans.into();
            *plan = Some((segments.iter().map(|seg| seg.id).collect(), Arc::clone(&spans)));
            spans
        }
    };
    drop(plan);
    Visible { layers, spans }
}

impl Visible<'_> {
    /// Each visible entry's layer and position, in id order.
    fn positions(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.spans.iter().flat_map(|span| (span.start..span.end).map(move |pos| (span.layer, pos)))
    }
}

/// The visible rows of a stack in id order (see [`visible`]).
fn layered_rows<'a>(mem: &'a Run, segments: &'a [Arc<Segment>]) -> impl Iterator<Item = &'a Arc<Document>> {
    let Visible { layers, spans } = visible(mem, segments, &mut ScanStats::default());
    (0..spans.len()).flat_map(move |i| {
        let Span { layer, start, end } = spans[i];
        let run: &'a Run = layers[layer];
        run.entries()[start..end].iter().flatten()
    })
}

/// What a facet has decided about one column code.
#[derive(Clone, Copy)]
enum FacetSlot {
    Unseen,
    /// Missing or null: not counted.
    Skip,
    Group(usize),
}

/// Distinct non-null values at `path` with counts, most frequent first.
/// Values group by `loose_eq`, each group shown as its first value in scan
/// order. A row reads its column code, and a code decides its group once —
/// except for values not `loose_eq` to themselves (NaN), which open a group
/// per row.
fn layered_facet(mem: &Run, segments: &[Arc<Segment>], path: &str) -> Vec<(Value, usize)> {
    let mut stats = ScanStats::default();
    let visible = visible(mem, segments, &mut stats);
    let columns: Vec<Arc<Column>> = visible.layers.iter().map(|run| run.column(path, &mut stats)).collect();
    let mut slots: Vec<Vec<FacetSlot>> = columns.iter().map(|c| c.table(|_| FacetSlot::Unseen)).collect();
    let mut counts: Vec<(Value, usize)> = Vec::new();
    for (layer, pos) in visible.positions() {
        let col = &columns[layer];
        let code = col.codes()[pos];
        let slot = &mut slots[layer][code as usize];
        let g = match *slot {
            FacetSlot::Group(g) => g,
            FacetSlot::Skip => continue,
            FacetSlot::Unseen => {
                let Some(v) = col.lookup(code).filter(|v| !v.is_null()) else {
                    *slot = FacetSlot::Skip;
                    continue;
                };
                let g = counts.iter().position(|(k, _)| k.loose_eq(v)).unwrap_or_else(|| {
                    counts.push((v.clone(), 0));
                    counts.len() - 1
                });
                if v.loose_eq(v) {
                    *slot = FacetSlot::Group(g);
                }
                g
            }
        };
        counts[g].1 += 1;
    }
    counts.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp_total(&b.0)));
    counts
}

type LayerIter<'a> = std::iter::Peekable<
    std::iter::Enumerate<std::collections::btree_map::Iter<'a, String, Option<Arc<Document>>>>,
>;

/// K-way merge over id-sorted layers, newest first, yielding each visible
/// entry's layer and position: smallest id next, the newest layer (lowest
/// index) winning duplicates, tombstones skipped. Where one layer's ids run
/// below every other layer's next id (a streamed store's segments cover
/// disjoint id ranges), the run is emitted with a single comparison per
/// entry. It builds the plans [`visible`] keeps; reads walk those.
struct MergeScan<'a> {
    iters: Vec<LayerIter<'a>>,
    /// A layer whose entries below the bound (`None`: all) no other layer
    /// holds.
    solo: Option<(usize, Option<&'a String>)>,
}

impl<'a> MergeScan<'a> {
    fn new(layers: &[&'a Run]) -> MergeScan<'a> {
        let iters = layers.iter().map(|run| run.docs.iter().enumerate().peekable()).collect();
        MergeScan { iters, solo: None }
    }
}

impl Iterator for MergeScan<'_> {
    type Item = (usize, usize);

    fn next(&mut self) -> Option<(usize, usize)> {
        loop {
            if let Some((layer, bound)) = self.solo {
                let it = &mut self.iters[layer];
                if it.peek().is_some_and(|&(_, (k, _))| bound.is_none_or(|b| k < b)) {
                    match it.next() {
                        Some((pos, (_, Some(_)))) => return Some((layer, pos)),
                        _ => continue, // a tombstone
                    }
                }
                self.solo = None;
            }
            // The smallest next id and the next-smallest after it.
            let mut best: Option<(&String, usize)> = None;
            let mut second: Option<&String> = None;
            for (layer, it) in self.iters.iter_mut().enumerate() {
                let Some(&(_, (k, _))) = it.peek() else { continue };
                match best {
                    Some((b, _)) if k >= b => second = Some(second.map_or(k, |s| s.min(k))),
                    _ => {
                        second = best.map(|(b, _)| second.map_or(b, |s| s.min(b)));
                        best = Some((k, layer));
                    }
                }
            }
            let (key, layer) = best?;
            if second != Some(key) {
                self.solo = Some((layer, second));
                continue;
            }
            // Several layers hold this id: advance them all; the first
            // (newest) wins.
            let mut winner: Option<(usize, usize, bool)> = None;
            for (layer, it) in self.iters.iter_mut().enumerate() {
                if it.peek().is_some_and(|&(_, (k, _))| k == key) {
                    if let Some((pos, (_, entry))) = it.next() {
                        winner.get_or_insert((layer, pos, entry.is_some()));
                    }
                }
            }
            if let Some((layer, pos, true)) = winner {
                return Some((layer, pos));
            }
            // Tombstone on top — skip the id entirely.
        }
    }
}

/// The rows of a store or snapshot matching a compiled predicate, in scan
/// order ([`DocStore::filter_shared`]). Every layer's verdicts are read from
/// its columns up front; the read then walks the stack's visible spans
/// against them.
pub struct Matches<'a> {
    visible: Visible<'a>,
    /// Per layer, the verdict per entry.
    masks: Vec<Vec<bool>>,
    /// The span being read, and the next position in it to judge.
    span: usize,
    pos: usize,
    stats: ScanStats,
}

impl<'a> Matches<'a> {
    fn new(mem: &'a Run, segments: &'a [Arc<Segment>], pred: &CompiledPredicate) -> Self {
        let mut stats = ScanStats::default();
        let visible = visible(mem, segments, &mut stats);
        let masks = visible.layers.iter().map(|run| pred.root.run_mask(run, &mut stats)).collect();
        let pos = visible.spans.first().map_or(0, |span| span.start);
        Matches { visible, masks, span: 0, pos, stats }
    }

    /// The rows read so far, the columns and plans built.
    pub fn stats(&self) -> ScanStats {
        self.stats
    }

    /// The matches not read yet, counted from the verdicts alone: no row is
    /// read.
    pub fn count_rest(&mut self) -> usize {
        let mut n = 0;
        while let Some(&Span { layer, end, .. }) = self.visible.spans.get(self.span) {
            n += self.masks[layer][self.pos..end].iter().filter(|&&m| m).count();
            self.stats.rows += end - self.pos;
            self.next_span();
        }
        n
    }

    fn next_span(&mut self) {
        self.span += 1;
        self.pos = self.visible.spans.get(self.span).map_or(0, |span| span.start);
    }

    /// The next match: its layer, position and row.
    fn next_match(&mut self) -> Option<(usize, usize, &'a Arc<Document>)> {
        while let Some(&Span { layer, end, .. }) = self.visible.spans.get(self.span) {
            let from = self.pos;
            let Some(i) = self.masks[layer][from..end].iter().position(|&m| m) else {
                self.stats.rows += end - from;
                self.next_span();
                continue;
            };
            self.stats.rows += i + 1;
            self.pos = from + i + 1;
            let run: &'a Run = self.visible.layers[layer];
            if let Some(doc) = &run.entries()[from + i] {
                return Some((layer, from + i, doc));
            }
        }
        None
    }

    /// Drains the matches through `f` with their layer, position and values
    /// at `paths`.
    fn project(
        mut self,
        paths: &[&str],
        mut f: impl FnMut(usize, usize, &'a Arc<Document>, &[Option<&Value>]),
    ) -> ScanStats {
        let columns: Vec<Vec<Arc<Column>>> = self
            .visible
            .layers
            .iter()
            .map(|run| paths.iter().map(|p| run.column(p, &mut self.stats)).collect())
            .collect();
        let mut values: Vec<Option<&Value>> = Vec::with_capacity(paths.len());
        while let Some((layer, pos, doc)) = self.next_match() {
            values.clear();
            values.extend(columns[layer].iter().map(|c| c.value(pos)));
            f(layer, pos, doc, &values);
        }
        self.stats
    }

    /// [`Matches::project`] handing each match its value at `key` and the
    /// group slot of that value's column code in its layer (see
    /// [`StoreSnapshot::project_grouped`]).
    fn project_grouped(
        mut self,
        key: &str,
        paths: &[&str],
        mut f: impl FnMut(&mut Option<usize>, Option<&Value>, &'a Arc<Document>, &[Option<&Value>]),
    ) -> ScanStats {
        let keys: Vec<Arc<Column>> =
            self.visible.layers.iter().map(|run| run.column(key, &mut self.stats)).collect();
        let mut slots: Vec<Vec<Option<usize>>> = keys.iter().map(|col| col.table(|_| None)).collect();
        self.project(paths, |layer, pos, doc, values| {
            let code = keys[layer].codes()[pos];
            f(&mut slots[layer][code as usize], keys[layer].lookup(code), doc, values)
        })
    }
}

impl<'a> Iterator for Matches<'a> {
    type Item = &'a Arc<Document>;

    fn next(&mut self) -> Option<&'a Arc<Document>> {
        self.next_match().map(|(_, _, doc)| doc)
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
    mem: Arc<Run>,
    segments: Vec<Arc<Segment>>,
    schema: Arc<Schema>,
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

    pub fn get(&self, id: &str) -> Option<&Document> {
        layered_lookup(&self.mem.docs, &self.segments, id).map(Arc::as_ref)
    }

    pub fn scan(&self) -> impl Iterator<Item = &Document> {
        self.scan_shared().map(Arc::as_ref)
    }

    /// The frozen rows themselves, id-ordered: cloning an item is a pointer
    /// copy, so a reader can hold any subset without copying a document.
    pub fn scan_shared(&self) -> impl Iterator<Item = &Arc<Document>> {
        layered_rows(&self.mem, &self.segments)
    }

    pub fn filter(&self, pred: &Predicate) -> Vec<&Document> {
        let compiled = pred.compile();
        self.filter_shared(&compiled).map(Arc::as_ref).collect()
    }

    /// The frozen rows matching an already compiled predicate, streamed
    /// (see [`DocStore::filter_shared`]).
    pub fn filter_shared<'a>(&'a self, pred: &CompiledPredicate) -> Matches<'a> {
        Matches::new(&self.mem, &self.segments, pred)
    }

    /// The rows matching `pred` in scan order, each handed to `f` with its
    /// values at `paths` (`None` where missing), read from the layers'
    /// columns.
    pub fn project<'a>(
        &'a self,
        pred: &CompiledPredicate,
        paths: &[&str],
        mut f: impl FnMut(&'a Arc<Document>, &[Option<&Value>]),
    ) -> ScanStats {
        Matches::new(&self.mem, &self.segments, pred).project(paths, |_, _, doc, values| f(doc, values))
    }

    /// [`StoreSnapshot::project`] for a group-by on the value at `key`:
    /// `f` also gets each match's key value (`None` where missing) and a
    /// group slot, one per distinct stored value of each layer, `None` until
    /// `f` fills it. A caller that fills a slot with the group of its key
    /// names each value's group once, at its first match in scan order (as
    /// [`StoreSnapshot::facet`] decides a value), and every other match of
    /// it only reads the slot.
    pub fn project_grouped<'a>(
        &'a self,
        pred: &CompiledPredicate,
        key: &str,
        paths: &[&str],
        f: impl FnMut(&mut Option<usize>, Option<&Value>, &'a Arc<Document>, &[Option<&Value>]),
    ) -> ScanStats {
        Matches::new(&self.mem, &self.segments, pred).project_grouped(key, paths, f)
    }

    pub fn facet(&self, path: &str) -> Vec<(Value, usize)> {
        layered_facet(&self.mem, &self.segments, path)
    }

    pub fn schema(&self) -> Schema {
        Schema::clone(&self.schema)
    }

    /// The schema without a copy: every snapshot pinned between the same
    /// two writes shares this one.
    pub fn shared_schema(&self) -> &Arc<Schema> {
        &self.schema
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
            // Refuse a foreign format before touching anything: replaying
            // it would read every record as a torn tail and truncate it.
            let v = read_manifest(&fs, &manifest_path)?;
            let seg_ids: Vec<u64> = v
                .get("segments")
                .and_then(Value::as_array)
                .map(|a| a.iter().filter_map(Value::as_int).map(|i| i as u64).collect())
                .unwrap_or_default();
            wal_seq = v.get("wal").and_then(Value::as_int).unwrap_or(0) as u64;
            store.next_segment = v.get("next_segment").and_then(Value::as_int).unwrap_or(0) as u64;
            for id in seg_ids {
                let docs = load_segment(&fs, &dir, id)?;
                store.segments.push(Arc::new(Segment::new(id, docs)));
                store.stats.segments_recovered += 1;
            }
            // Rebuild live count + schema from segment-visible docs in one
            // layered pass (the WAL replay below then applies clean deltas).
            let empty = Run::default();
            let mut live = 0usize;
            for doc in layered_rows(&empty, &store.segments) {
                adjust_schema(&mut store.schema_types, "", &doc.properties, 1);
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
            wal: dir.join(keep_wal).into(),
            dir,
            fsync: wal.fsync,
            wal_seq,
            wal_dirty: false,
            frame: Vec::new(),
            syncer: None,
        });
        // The replayed memtable may already exceed the seal threshold; a
        // failed seal (counted by `try_seal`) leaves it in the memtable.
        if store.config.seal_threshold > 0 && store.mem.docs.len() >= store.config.seal_threshold {
            let _ = store.try_seal();
        }
        Ok(store)
    }

    /// Replays the WAL's valid record prefix by [`vfs::replay_frame_log`]'s
    /// torn-tail rule: the tail it cuts was never acked.
    fn replay_wal(&mut self, fs: &dyn Vfs, wal_path: &Path) -> Result<()> {
        let cut = vfs::replay_frame_log(fs, wal_path, b"pd", |tag, payload| {
            if tag == b'p' {
                self.apply_put(aryn_core::serialize::decode_document(payload)?);
            } else {
                let id = id_from(payload)?;
                if layered_lookup(&self.mem.docs, &self.segments, id).is_some() {
                    self.apply_delete(id);
                }
            }
            self.stats.wal_replayed += 1;
            Ok(())
        })?;
        self.stats.torn_tail_truncated += usize::from(cut);
        Ok(())
    }
}

/// Materializes an in-memory store from documents.
impl FromIterator<Document> for DocStore {
    fn from_iter<I: IntoIterator<Item = Document>>(iter: I) -> DocStore {
        let mut s = DocStore::new();
        for d in iter {
            // In-memory: no WAL, so `try_put` cannot fail.
            let _ = s.try_put(d);
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
    fn one_child_and_or_give_the_childs_verdicts() {
        let s = store();
        let ids = |p: &Predicate| s.filter(p).iter().map(|d| d.id.0.clone()).collect::<Vec<_>>();
        for p in [
            Predicate::Eq("state".into(), Value::from("AK")),
            Predicate::Not(Box::new(Predicate::Exists("cause".into()))),
            Predicate::Range { path: "year".into(), lo: Some(Value::Int(2020)), hi: None },
        ] {
            assert_eq!(ids(&Predicate::And(vec![p.clone()])), ids(&p), "And([{p:?}])");
            assert_eq!(ids(&Predicate::Or(vec![p.clone()])), ids(&p), "Or([{p:?}])");
        }
        assert_eq!(s.filter(&Predicate::And(Vec::new())).len(), s.len(), "an empty And keeps all");
        assert!(s.filter(&Predicate::Or(Vec::new())).is_empty(), "an empty Or keeps none");
    }

    #[test]
    fn pins_between_writes_share_one_schema() {
        let mut s = store();
        let (a, b) = (s.snapshot(), s.snapshot());
        assert!(Arc::ptr_eq(a.shared_schema(), b.shared_schema()));
        assert_eq!(**a.shared_schema(), s.schema());
        s.try_put(doc("e", obj! { "state" => "HI", "island" => "Maui" })).unwrap();
        let c = s.snapshot();
        assert!(!Arc::ptr_eq(a.shared_schema(), c.shared_schema()), "a write drops the shared schema");
        assert!(!a.schema().contains_key("island"), "an earlier pin keeps its own");
        assert_eq!(**c.shared_schema(), s.schema());
        s.try_delete("e").unwrap();
        assert_eq!(s.snapshot().schema(), a.schema());
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
        // Schema derivation is delta-maintained: every write folds in.
        let first = s.schema();
        assert_eq!(first["state"].1, 4);
        assert_eq!(s.schema(), first);
        // put folds the new document's fields in...
        s.try_put(doc("e", obj! { "state" => "HI", "island" => "Maui" })).unwrap();
        let with_island = s.schema();
        assert_eq!(with_island["island"].0, "string");
        assert_eq!(with_island["state"].1, 5);
        // ...delete folds them back out...
        s.try_delete("e").unwrap();
        assert!(!s.schema().contains_key("island"));
        s.try_delete("ghost").unwrap();
        assert_eq!(s.schema(), first);
        // ...replacement swaps old fields for new...
        s.try_put(doc("a", obj! { "state" => "AK", "narrative_len" => 12i64 })).unwrap();
        let replaced = s.schema();
        assert_eq!(replaced["narrative_len"].0, "int");
        assert!(!replaced.contains_key("year") || replaced["year"].1 == 3);
        // ...and seals/compactions leave it as it is.
        s.try_seal().unwrap();
        s.try_compact().unwrap();
        assert_eq!(s.schema(), replaced);
    }

    #[test]
    fn put_replaces_and_delete_removes() {
        let mut s = store();
        s.try_put(doc("a", obj! { "state" => "OR" })).unwrap();
        assert_eq!(s.get("a").unwrap().prop("state").unwrap().as_str(), Some("OR"));
        assert!(s.try_delete("a").unwrap());
        assert!(!s.try_delete("a").unwrap());
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
            s.try_put(doc(&id, i)).unwrap();
            model.insert(id, i);
            if i % 7 == 0 {
                let victim = format!("d{:02}", (i + 3) % 20);
                let in_model = model.remove(&victim).is_some();
                assert_eq!(s.try_delete(&victim).unwrap(), in_model);
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
        s.try_put(doc("a", 1)).unwrap();
        s.try_put(doc("b", 2)).unwrap();
        s.try_seal().unwrap();
        assert_eq!(s.segment_count(), 1);
        assert!(s.try_delete("a").unwrap());
        assert!(s.get("a").is_none(), "memtable tombstone shadows the segment");
        assert_eq!(s.scan().count(), 1);
        assert_eq!(s.len(), 1);
        // Seal the tombstone, then compact: it resolves and disappears.
        s.try_seal().unwrap();
        s.try_compact().unwrap();
        assert_eq!(s.segment_count(), 1);
        assert_eq!(s.stats().tombstones_dropped, 1);
        assert!(s.get("a").is_none());
        assert_eq!(s.len(), 1);
        // Deleting a memtable-only doc needs no tombstone.
        s.try_put(doc("c", 3)).unwrap();
        assert!(s.try_delete("c").unwrap());
        assert_eq!(s.memtable_len(), 0);
    }

    #[test]
    fn snapshot_is_frozen_under_ingestion_and_compaction() {
        let mut s = small_store();
        for i in 0..10i64 {
            s.try_put(doc(&format!("d{i}"), i)).unwrap();
        }
        let snap = s.snapshot();
        let seq = snap.seq();
        let before: Vec<String> = snap.scan().map(|d| d.id.0.clone()).collect();
        let schema_before = snap.schema();
        // Mutate heavily underneath: overwrites, deletes, seals, compactions.
        for i in 10..60i64 {
            s.try_put(doc(&format!("d{}", i % 30), i)).unwrap();
        }
        s.try_delete("d3").unwrap();
        s.try_seal().unwrap();
        s.try_compact().unwrap();
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
        s.try_put(doc("x", 1)).unwrap();
        s.try_seal().unwrap();
        s.try_put(doc("x", 2)).unwrap();
        s.try_seal().unwrap();
        s.try_put(doc("x", 3)).unwrap();
        assert_eq!(s.len(), 1);
        assert_eq!(s.get("x").unwrap().prop("n").unwrap().as_int(), Some(3));
        assert_eq!(s.scan().count(), 1);
        s.try_compact().unwrap();
        // Memtable still shadows the merged segment.
        assert_eq!(s.get("x").unwrap().prop("n").unwrap().as_int(), Some(3));
        s.try_seal().unwrap();
        s.try_compact().unwrap();
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

    /// A text-line record as formats 1 and 2 wrote them:
    /// `"<tag> <crc32:08x> <payload>\n"`.
    fn text_record(tag: char, payload: &str) -> String {
        format!("{tag} {:08x} {payload}\n", vfs::crc32(payload.as_bytes()))
    }

    #[test]
    fn a_foreign_store_is_an_error_never_a_truncation() {
        // Format 1 (JSON lines): a manifest without a format version and a
        // WAL of text records. Format 2: a text-line manifest declaring
        // format 2 beside a WAL of binary frames.
        let record = r#"{"elements":[],"id":"a","lineage":[],"properties":{"n":1}}"#;
        let mut frames = Vec::new();
        vfs::encode_frame_with(&mut frames, b'p', |o| aryn_core::serialize::encode_document(&doc("a", 1), o)).unwrap();
        let fixtures = [
            (r#"{"next_segment":0,"segments":[],"wal":0}"#, text_record('p', record).into_bytes()),
            (r#"{"format":2,"next_segment":0,"segments":[],"wal":0}"#, frames),
        ];
        for (manifest, wal) in fixtures {
            let mem = Arc::new(MemFs::new());
            let dir = Path::new("/store");
            mem.write(&dir.join(MANIFEST), text_record('m', manifest).as_bytes()).unwrap();
            mem.write(&dir.join(wal_name(0)), &wal).unwrap();
            mem.write(&dir.join("seg-000007.seg.tmp"), b"orphan").unwrap();
            let before = disk_image(&mem);
            let err = DocStore::open(dir, mem.clone()).unwrap_err();
            assert!(matches!(&err, ArynError::Io(m) if m.contains("format")), "{err:?}");
            assert_eq!(disk_image(&mem), before, "no sweep, no WAL rewrite");
        }
    }

    #[test]
    fn a_torn_or_mutated_manifest_is_an_error_and_touches_nothing() {
        let mem = Arc::new(MemFs::new());
        let dir = Path::new("/store");
        let mut s = DocStore::open_with(dir, mem.clone(), cfg(), WalConfig::default()).unwrap();
        for i in 0..6 {
            s.try_put(doc(&format!("d{i}"), i)).unwrap();
        }
        drop(s);
        let path = dir.join(MANIFEST);
        let manifest = mem.read(&path).unwrap();
        let mut damaged: Vec<Vec<u8>> = (0..manifest.len()).map(|cut| manifest[..cut].to_vec()).collect();
        for at in 0..manifest.len() {
            let mut bad = manifest.clone();
            bad[at] ^= 0x20;
            damaged.push(bad);
        }
        for bytes in damaged {
            mem.write(&path, &bytes).unwrap();
            let before = disk_image(&mem);
            assert!(DocStore::open(dir, mem.clone()).is_err(), "{bytes:?}");
            assert_eq!(disk_image(&mem), before, "{bytes:?}");
        }
        mem.write(&path, &manifest).unwrap();
        assert_eq!(DocStore::open(dir, mem).unwrap().len(), 6);
    }

    #[test]
    fn a_failed_seal_or_compaction_counts_one_io_error_and_changes_nothing() {
        // Ops 0..=4 are open (mkdir, the fresh manifest's write + sync +
        // rename, the sweep's list); a put is one append (fsync off); a
        // seal is seven ops (segment and manifest write + sync + rename,
        // the old WAL's remove). Op 7 is the first seal's segment write,
        // op 23 the compaction's.
        let mem = Arc::new(MemFs::new());
        let schedule = StorageSchedule::calm()
            .with_window(StorageFault::Enospc, 7, 1)
            .with_window(StorageFault::Enospc, 23, 1);
        let chaos: Arc<dyn Vfs> = Arc::new(ChaosFs::wrap(mem.clone(), schedule));
        let manual = StoreConfig {
            seal_threshold: 0,
            compact_fanout: 0,
        };
        let dir = Path::new("/store");
        let mut s = DocStore::open_with(dir, chaos, manual, WalConfig { fsync: false }).unwrap();
        s.try_put(doc("a", 1)).unwrap();
        s.try_put(doc("b", 2)).unwrap();
        let (memtable, seq) = (s.memtable_len(), s.seq());
        assert!(s.try_seal().is_err());
        assert_eq!(s.stats().io_errors, 1);
        assert_eq!((s.memtable_len(), s.seq(), s.segment_count()), (memtable, seq, 0));
        s.try_seal().unwrap();
        s.try_put(doc("c", 3)).unwrap();
        s.try_seal().unwrap();
        let seq = s.seq();
        assert!(s.try_compact().is_err());
        assert_eq!(s.stats().io_errors, 2);
        assert_eq!((s.segment_count(), s.seq(), s.stats().compactions), (2, seq, 0));
        s.try_compact().unwrap();
        assert_eq!((s.segment_count(), s.stats().compactions, s.stats().io_errors), (1, 1, 2));
        drop(s);
        assert_eq!(DocStore::open(dir, mem).unwrap().len(), 3);
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
