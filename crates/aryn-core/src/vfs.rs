//! The virtual filesystem durability goes through (DESIGN.md §5k).
//!
//! Every byte the system persists — DocStore WAL/segments/manifest, the LLM
//! cache disk tier, materialize checkpoints — flows through the [`Vfs`]
//! trait instead of `std::fs` (a lint enforces this). That indirection buys
//! two things: a crash/fault model precise enough to test against, and a
//! deterministic way to exercise it. [`StdFs`] is the real filesystem;
//! [`MemFs`] is an in-process map for tests; [`ChaosFs`] wraps any of them
//! and injects torn writes, short reads, ENOSPC, and seeded crash-points at
//! arbitrary IO-op indices, modelling what a kernel may do to unsynced data.
//!
//! The model: `write`/`append` land in the page cache (visible but
//! volatile), `sync` makes a file's current length durable, and `rename` is
//! atomic and durable (journaled metadata). On a simulated crash, every
//! file's unsynced tail is truncated to its durable length plus a seeded
//! fraction of the in-flight bytes — exactly the torn-tail shapes a real
//! power cut produces — and the handle is poisoned so later ops fail.
//!
//! [`crc32`] checksums every persisted record. Binary data (WAL records,
//! sealed segments, materialize checkpoints) travels in frames,
//! `[tag u8][len u32 LE][crc32 u32 LE][payload]`, the CRC covering tag,
//! length and payload ([`encode_frame_with`] / [`decode_frame`]); whole-file
//! formats end in a count-bearing `e` footer frame ([`finish_frame_file`] /
//! [`decode_frame_file`]) so truncation is always detectable. Text lines (the store manifest, LLM cache lines) use
//! [`encode_record`] / [`decode_record`]: `"<tag> <crc32:08x> <payload>"`.

use crate::{ArynError, Result};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// Object-safe filesystem surface. Implementations must be thread-safe;
/// callers share them as `Arc<dyn Vfs>`.
pub trait Vfs: Send + Sync + std::fmt::Debug {
    /// Reads the whole file.
    fn read(&self, path: &Path) -> Result<Vec<u8>>;
    /// Creates or truncates `path` with `data`. Not durable until [`Vfs::sync`].
    fn write(&self, path: &Path, data: &[u8]) -> Result<()>;
    /// Appends to `path`, creating it if missing. Not durable until [`Vfs::sync`].
    fn append(&self, path: &Path, data: &[u8]) -> Result<()>;
    /// Makes the file's current contents durable (fsync).
    fn sync(&self, path: &Path) -> Result<()>;
    /// Atomically replaces `to` with `from` (durable on return).
    fn rename(&self, from: &Path, to: &Path) -> Result<()>;
    /// Removes a file.
    fn remove(&self, path: &Path) -> Result<()>;
    fn create_dir_all(&self, path: &Path) -> Result<()>;
    /// File names (not paths) directly under `dir`, sorted. Empty for a
    /// missing directory.
    fn list(&self, dir: &Path) -> Result<Vec<String>>;
    /// Whether a file or directory exists. Pure query: fault injection
    /// never gates it.
    fn exists(&self, path: &Path) -> bool;
}

impl<T: Vfs + ?Sized> Vfs for Arc<T> {
    fn read(&self, path: &Path) -> Result<Vec<u8>> {
        (**self).read(path)
    }
    fn write(&self, path: &Path, data: &[u8]) -> Result<()> {
        (**self).write(path, data)
    }
    fn append(&self, path: &Path, data: &[u8]) -> Result<()> {
        (**self).append(path, data)
    }
    fn sync(&self, path: &Path) -> Result<()> {
        (**self).sync(path)
    }
    fn rename(&self, from: &Path, to: &Path) -> Result<()> {
        (**self).rename(from, to)
    }
    fn remove(&self, path: &Path) -> Result<()> {
        (**self).remove(path)
    }
    fn create_dir_all(&self, path: &Path) -> Result<()> {
        (**self).create_dir_all(path)
    }
    fn list(&self, dir: &Path) -> Result<Vec<String>> {
        (**self).list(dir)
    }
    fn exists(&self, path: &Path) -> bool {
        (**self).exists(path)
    }
}

/// Reads a file as UTF-8 text.
pub fn read_to_string(vfs: &dyn Vfs, path: &Path) -> Result<String> {
    let bytes = vfs.read(path)?;
    String::from_utf8(bytes)
        .map_err(|_| ArynError::Io(format!("{}: invalid utf-8", path.display())))
}

/// Writes `data` atomically: temp file → sync → rename. A crash at any
/// point leaves either the old contents or the new, never a torn mix.
pub fn atomic_write(vfs: &dyn Vfs, path: &Path, data: &[u8]) -> Result<()> {
    let tmp = tmp_path(path);
    vfs.write(&tmp, data)?;
    vfs.sync(&tmp)?;
    vfs.rename(&tmp, path)
}

/// The temp-file name `atomic_write` stages through (recognizable so
/// recovery can sweep orphans).
pub fn tmp_path(path: &Path) -> PathBuf {
    let mut name = path.file_name().map(|n| n.to_string_lossy().into_owned()).unwrap_or_default();
    name.push_str(".tmp");
    path.with_file_name(name)
}

/// Slice-by-8 tables: `T[0]` is the byte-wise CRC table, `T[k][i]` is
/// `i`'s CRC advanced by `k` further zero bytes.
const CRC32_TABLES: [[u32; 256]; 8] = {
    /// One byte through the register, bit by bit.
    const fn byte(mut c: u32) -> u32 {
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        c
    }
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let (mut c, mut k) = (byte(i as u32), 0);
        while k < 8 {
            t[k][i] = c;
            c = (c >> 8) ^ byte(c & 0xFF);
            k += 1;
        }
        i += 1;
    }
    t
};

/// CRC-32 (IEEE), the checksum of every persisted record.
pub fn crc32(bytes: &[u8]) -> u32 {
    !crc32_update(!0, bytes)
}

/// Advances a (pre-inverted) CRC register over `bytes`: eight bytes per
/// step through the slice-by-8 tables, the tail byte by byte.
fn crc32_update(mut c: u32, bytes: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let (chunks, tail) = bytes.as_chunks::<8>();
    for chunk in chunks {
        let x = u64::from_le_bytes(*chunk) ^ u64::from(c);
        c = (0..8).fold(0, |acc, k| acc ^ t[7 - k][(x >> (8 * k)) as usize & 0xFF]);
    }
    for &b in tail {
        c = t[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

/// Bytes before a frame's payload: tag, length, CRC.
const FRAME_HEADER: usize = 9;

/// A frame's checksum: the CRC-32 of its tag, length and payload.
fn frame_crc(tag_len: &[u8], payload: &[u8]) -> u32 {
    !crc32_update(crc32_update(!0, tag_len), payload)
}

/// Appends one frame whose payload `fill` writes straight into `out`; the
/// header is patched in afterwards, so nothing is staged. On `Err` (from
/// `fill`, or a payload over `u32::MAX` bytes) `out` is left as it was.
pub fn encode_frame_with(out: &mut Vec<u8>, tag: u8, fill: impl FnOnce(&mut Vec<u8>) -> Result<()>) -> Result<()> {
    let start = out.len();
    out.extend_from_slice(&[tag, 0, 0, 0, 0, 0, 0, 0, 0]);
    let len = fill(out).and_then(|()| {
        u32::try_from(out.len() - start - FRAME_HEADER).map_err(|_| ArynError::Io("frame payload over 4 GiB".into()))
    });
    let len = len.inspect_err(|_| out.truncate(start))?;
    out[start + 1..start + 5].copy_from_slice(&len.to_le_bytes());
    let crc = frame_crc(&out[start..start + 5], &out[start + FRAME_HEADER..]);
    out[start + 5..start + FRAME_HEADER].copy_from_slice(&crc.to_le_bytes());
    Ok(())
}

/// Appends one frame carrying `payload`.
pub fn encode_frame(out: &mut Vec<u8>, tag: u8, payload: &[u8]) -> Result<()> {
    encode_frame_with(out, tag, |o| {
        o.extend_from_slice(payload);
        Ok(())
    })
}

/// Splits the frame at the head of `bytes` into `(tag, payload, rest)`;
/// `None` when the head is torn (short header or payload) or corrupt (CRC
/// mismatch anywhere in tag, length or payload).
pub fn decode_frame(bytes: &[u8]) -> Option<(u8, &[u8], &[u8])> {
    let (header, body) = bytes.split_at_checked(FRAME_HEADER)?;
    let len = u32::from_le_bytes([header[1], header[2], header[3], header[4]]);
    let crc = u32::from_le_bytes([header[5], header[6], header[7], header[8]]);
    let (payload, rest) = body.split_at_checked(usize::try_from(len).ok()?)?;
    (frame_crc(&header[..5], payload) == crc).then_some((header[0], payload, rest))
}

/// Closes a frame file holding `count` record frames with the `e` footer
/// frame (payload: the count, u64 LE).
pub fn finish_frame_file(out: &mut Vec<u8>, count: usize) -> Result<()> {
    encode_frame(out, b'e', &(count as u64).to_le_bytes())
}

/// Decodes a frame file into its `(tag, payload)` records, verifying every
/// CRC and the footer count. Any tear, bit-flip, missing footer or byte
/// after the footer is `Err`.
pub fn decode_frame_file(mut bytes: &[u8]) -> Result<Vec<(u8, &[u8])>> {
    let mut records = Vec::new();
    while let Some((tag, payload, rest)) = decode_frame(bytes) {
        bytes = rest;
        if tag == b'e' {
            let count = <[u8; 8]>::try_from(payload).ok().map(u64::from_le_bytes);
            if bytes.is_empty() && count == Some(records.len() as u64) {
                return Ok(records);
            }
            break;
        }
        records.push((tag, payload));
    }
    Err(ArynError::Io("frame file: torn, corrupt, or footer mismatch".into()))
}

/// Frames one record line: `"<tag> <crc32:08x> <payload>"` (no newline).
pub fn encode_record(tag: char, payload: &str) -> String {
    format!("{tag} {:08x} {payload}", crc32(payload.as_bytes()))
}

/// Parses and verifies a record line; `Err` means torn or corrupt.
pub fn decode_record(line: &str) -> Result<(char, &str)> {
    let bytes = line.as_bytes();
    let bad = || ArynError::Io(format!("corrupt record: {:?}", truncate_for_err(line)));
    if bytes.len() < 11 || bytes[1] != b' ' || bytes[10] != b' ' || !bytes[0].is_ascii() {
        return Err(bad());
    }
    let tag = bytes[0] as char;
    let want = u32::from_str_radix(&line[2..10], 16).map_err(|_| bad())?;
    let payload = &line[11..];
    if crc32(payload.as_bytes()) != want {
        return Err(bad());
    }
    Ok((tag, payload))
}

fn truncate_for_err(line: &str) -> &str {
    let cut = line
        .char_indices()
        .nth(40)
        .map(|(i, _)| i)
        .unwrap_or(line.len());
    &line[..cut]
}

fn io_err(path: &Path, e: std::io::Error) -> ArynError {
    ArynError::Io(format!("{}: {e}", path.display()))
}

/// The real filesystem.
#[derive(Debug, Default, Clone, Copy)]
pub struct StdFs;

impl Vfs for StdFs {
    fn read(&self, path: &Path) -> Result<Vec<u8>> {
        std::fs::read(path).map_err(|e| io_err(path, e))
    }

    fn write(&self, path: &Path, data: &[u8]) -> Result<()> {
        std::fs::write(path, data).map_err(|e| io_err(path, e))
    }

    fn append(&self, path: &Path, data: &[u8]) -> Result<()> {
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| io_err(path, e))?;
        f.write_all(data).map_err(|e| io_err(path, e))
    }

    fn sync(&self, path: &Path) -> Result<()> {
        std::fs::File::open(path)
            .and_then(|f| f.sync_all())
            .map_err(|e| io_err(path, e))
    }

    fn rename(&self, from: &Path, to: &Path) -> Result<()> {
        std::fs::rename(from, to).map_err(|e| io_err(from, e))
    }

    fn remove(&self, path: &Path) -> Result<()> {
        std::fs::remove_file(path).map_err(|e| io_err(path, e))
    }

    fn create_dir_all(&self, path: &Path) -> Result<()> {
        std::fs::create_dir_all(path).map_err(|e| io_err(path, e))
    }

    fn list(&self, dir: &Path) -> Result<Vec<String>> {
        if !dir.is_dir() {
            return Ok(Vec::new());
        }
        let mut names = Vec::new();
        for entry in std::fs::read_dir(dir).map_err(|e| io_err(dir, e))? {
            let entry = entry.map_err(|e| io_err(dir, e))?;
            if entry.path().is_file() {
                names.push(entry.file_name().to_string_lossy().into_owned());
            }
        }
        names.sort();
        Ok(names)
    }

    fn exists(&self, path: &Path) -> bool {
        path.exists()
    }
}

fn norm(path: &Path) -> String {
    let s = path.to_string_lossy();
    s.trim_end_matches('/').to_string()
}

/// In-memory filesystem for tests: a map of path → bytes behind a mutex.
/// `sync` is a no-op (everything is "durable" — volatility is [`ChaosFs`]'s
/// job). Share one `Arc<MemFs>` under a `ChaosFs` to inspect the disk image
/// that survives a simulated crash.
#[derive(Debug, Default)]
pub struct MemFs {
    state: Mutex<MemState>,
}

#[derive(Debug, Default)]
struct MemState {
    files: BTreeMap<String, Vec<u8>>,
    dirs: std::collections::BTreeSet<String>,
}

impl MemFs {
    pub fn new() -> MemFs {
        MemFs::default()
    }

    /// Paths of all files, sorted.
    pub fn file_names(&self) -> Vec<String> {
        match self.state.lock() {
            Ok(s) => s.files.keys().cloned().collect(),
            Err(_) => Vec::new(),
        }
    }
}

impl Vfs for MemFs {
    fn read(&self, path: &Path) -> Result<Vec<u8>> {
        let s = self.state.lock().map_err(|_| poisoned())?;
        s.files
            .get(&norm(path))
            .cloned()
            .ok_or_else(|| ArynError::Io(format!("{}: not found", path.display())))
    }

    fn write(&self, path: &Path, data: &[u8]) -> Result<()> {
        let mut s = self.state.lock().map_err(|_| poisoned())?;
        s.files.insert(norm(path), data.to_vec());
        Ok(())
    }

    fn append(&self, path: &Path, data: &[u8]) -> Result<()> {
        let mut s = self.state.lock().map_err(|_| poisoned())?;
        s.files.entry(norm(path)).or_default().extend_from_slice(data);
        Ok(())
    }

    fn sync(&self, _path: &Path) -> Result<()> {
        Ok(())
    }

    fn rename(&self, from: &Path, to: &Path) -> Result<()> {
        let mut s = self.state.lock().map_err(|_| poisoned())?;
        let data = s
            .files
            .remove(&norm(from))
            .ok_or_else(|| ArynError::Io(format!("{}: not found", from.display())))?;
        s.files.insert(norm(to), data);
        Ok(())
    }

    fn remove(&self, path: &Path) -> Result<()> {
        let mut s = self.state.lock().map_err(|_| poisoned())?;
        s.files
            .remove(&norm(path))
            .map(|_| ())
            .ok_or_else(|| ArynError::Io(format!("{}: not found", path.display())))
    }

    fn create_dir_all(&self, path: &Path) -> Result<()> {
        let mut s = self.state.lock().map_err(|_| poisoned())?;
        let mut p = norm(path);
        loop {
            s.dirs.insert(p.clone());
            match p.rfind('/') {
                Some(i) if i > 0 => p.truncate(i),
                _ => break,
            }
        }
        Ok(())
    }

    fn list(&self, dir: &Path) -> Result<Vec<String>> {
        let s = self.state.lock().map_err(|_| poisoned())?;
        let prefix = format!("{}/", norm(dir));
        let names: Vec<String> = s
            .files
            .keys()
            .filter_map(|k| k.strip_prefix(&prefix))
            .filter(|rest| !rest.contains('/'))
            .map(str::to_string)
            .collect();
        Ok(names)
    }

    fn exists(&self, path: &Path) -> bool {
        let Ok(s) = self.state.lock() else { return false };
        let key = norm(path);
        s.files.contains_key(&key) || s.dirs.contains(&key)
    }
}

fn poisoned() -> ArynError {
    ArynError::Io("vfs lock poisoned".into())
}

/// Storage fault kinds [`ChaosFs`] injects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StorageFault {
    /// A write/append persists only a seeded prefix, then errors.
    TornWrite,
    /// A read returns only a seeded prefix of the file.
    ShortRead,
    /// A write/append fails without persisting anything (disk full).
    Enospc,
}

impl StorageFault {
    pub fn name(&self) -> &'static str {
        match self {
            StorageFault::TornWrite => "torn_write",
            StorageFault::ShortRead => "short_read",
            StorageFault::Enospc => "enospc",
        }
    }
}

/// A half-open op-index interval during which one fault kind fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StorageWindow {
    pub kind: StorageFault,
    pub start: u64,
    pub len: u64,
}

impl StorageWindow {
    pub fn covers(&self, op: u64) -> bool {
        op >= self.start && op < self.start.saturating_add(self.len)
    }
}

/// Deterministic storage-fault plan: fault windows over IO-op indices plus
/// an optional crash point. Lives alongside the LLM fault schedule in the
/// chaos injector (`aryn-llm::chaos::ChaosSchedule::storage`); the same
/// seed always yields the same faults regardless of wall-clock or threads.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StorageSchedule {
    pub windows: Vec<StorageWindow>,
    /// Simulate a crash when the op counter reaches this index: the
    /// in-flight op's unsynced bytes and every file's unsynced tail are cut
    /// to a seeded prefix, and all later ops fail.
    pub crash_at: Option<u64>,
    /// Seeds torn-prefix lengths (and window placement in `from_seed`).
    pub seed: u64,
}

impl StorageSchedule {
    /// No faults, no crash.
    pub fn calm() -> StorageSchedule {
        StorageSchedule::default()
    }

    pub fn is_calm(&self) -> bool {
        self.windows.is_empty() && self.crash_at.is_none()
    }

    pub fn with_window(mut self, kind: StorageFault, start: u64, len: u64) -> StorageSchedule {
        self.windows.push(StorageWindow { kind, start, len });
        self
    }

    pub fn with_crash_at(mut self, op: u64) -> StorageSchedule {
        self.crash_at = Some(op);
        self
    }

    pub fn with_seed(mut self, seed: u64) -> StorageSchedule {
        self.seed = seed;
        self
    }

    /// Derives a reproducible schedule: `intensity` (0..=1) scales how much
    /// of the first `horizon` ops fault windows cover. No crash point —
    /// crashes are explicit via [`StorageSchedule::with_crash_at`].
    pub fn from_seed(seed: u64, horizon: u64, intensity: f64) -> StorageSchedule {
        let intensity = intensity.clamp(0.0, 1.0);
        let mut windows = Vec::new();
        let kinds = [
            StorageFault::TornWrite,
            StorageFault::ShortRead,
            StorageFault::Enospc,
        ];
        let budget = ((horizon as f64) * intensity) as u64;
        let per = budget / kinds.len() as u64;
        for (i, kind) in kinds.iter().enumerate() {
            if per == 0 {
                break;
            }
            let h = crate::ids::stable_hash(seed, &["storage", kind.name(), &i.to_string()]);
            let start = h % horizon.max(1);
            windows.push(StorageWindow {
                kind: *kind,
                start,
                len: per,
            });
        }
        StorageSchedule {
            windows,
            crash_at: None,
            seed,
        }
    }

    /// The first fault window covering `op`.
    pub fn fault_at(&self, op: u64) -> Option<StorageFault> {
        self.windows.iter().find(|w| w.covers(op)).map(|w| w.kind)
    }
}

#[derive(Debug, Default, Clone, Copy)]
struct FileTrack {
    /// Bytes guaranteed to survive a crash (last synced length).
    durable_len: u64,
    /// Bytes currently visible (page cache).
    current_len: u64,
}

#[derive(Debug, Default)]
struct ChaosState {
    ops: u64,
    faults: u64,
    crashed: bool,
    /// Per-file durability tracking. Untracked files (pre-existing, never
    /// touched through this handle) are assumed fully durable.
    tracked: BTreeMap<String, FileTrack>,
}

/// A [`Vfs`] wrapper that injects the [`StorageSchedule`]'s faults.
///
/// Counts every gated IO op (reads, writes, appends, syncs, renames,
/// removes, dir creates — `exists` is free) and consults the schedule at
/// each index. On the crash op it materializes the torn post-crash disk
/// image *onto the inner vfs* (so reopening through the inner handle sees
/// exactly what a restart would) and poisons itself: all later ops return
/// `Err`, modelling the process being gone.
#[derive(Debug)]
pub struct ChaosFs {
    inner: Arc<dyn Vfs>,
    schedule: StorageSchedule,
    state: Mutex<ChaosState>,
}

impl ChaosFs {
    pub fn wrap(inner: Arc<dyn Vfs>, schedule: StorageSchedule) -> ChaosFs {
        ChaosFs {
            inner,
            schedule,
            state: Mutex::new(ChaosState::default()),
        }
    }

    pub fn schedule(&self) -> &StorageSchedule {
        &self.schedule
    }

    /// Gated IO ops seen so far (a calm run's total bounds a crash sweep).
    pub fn ops(&self) -> u64 {
        self.state.lock().map(|s| s.ops).unwrap_or(0)
    }

    pub fn faults_injected(&self) -> u64 {
        self.state.lock().map(|s| s.faults).unwrap_or(0)
    }

    pub fn crashed(&self) -> bool {
        self.state.lock().map(|s| s.crashed).unwrap_or(true)
    }

    /// Claims the next op index, failing if already crashed.
    fn begin(&self) -> Result<(std::sync::MutexGuard<'_, ChaosState>, u64)> {
        let mut s = self.state.lock().map_err(|_| poisoned())?;
        if s.crashed {
            return Err(ArynError::Io("simulated crash: filesystem gone".into()));
        }
        let op = s.ops;
        s.ops += 1;
        Ok((s, op))
    }

    fn crash_due(&self, op: u64) -> bool {
        self.schedule.crash_at == Some(op)
    }

    /// Seeded cut length in `[lo, hi]`.
    fn cut(&self, op: u64, path: &str, lo: u64, hi: u64) -> u64 {
        if hi <= lo {
            return lo;
        }
        let h = crate::ids::stable_hash(self.schedule.seed, &["cut", path, &op.to_string()]);
        lo + h % (hi - lo + 1)
    }

    /// Current length of `path` on the inner vfs (0 if missing).
    fn inner_len(&self, path: &Path) -> u64 {
        self.inner.read(path).map(|d| d.len() as u64).unwrap_or(0)
    }

    fn track_entry<'a>(
        &self,
        s: &'a mut ChaosState,
        path: &Path,
        existing_durable: u64,
    ) -> &'a mut FileTrack {
        s.tracked.entry(norm(path)).or_insert(FileTrack {
            durable_len: existing_durable,
            current_len: existing_durable,
        })
    }

    /// Materializes the post-crash disk image: every tracked file keeps its
    /// durable bytes plus a seeded fraction of the unsynced tail. Then the
    /// handle is poisoned.
    fn crash(&self, s: &mut ChaosState, op: u64) {
        for (key, track) in s.tracked.iter() {
            if track.current_len <= track.durable_len {
                continue;
            }
            let path = PathBuf::from(key);
            let keep = self.cut(op, key, track.durable_len, track.current_len);
            if let Ok(data) = self.inner.read(&path) {
                let keep = (keep as usize).min(data.len());
                let _ = self.inner.write(&path, &data[..keep]);
            }
        }
        s.crashed = true;
        s.faults += 1;
    }
}

impl Vfs for ChaosFs {
    fn read(&self, path: &Path) -> Result<Vec<u8>> {
        let (mut s, op) = self.begin()?;
        if self.crash_due(op) {
            self.crash(&mut s, op);
            return Err(ArynError::Io("simulated crash during read".into()));
        }
        let data = self.inner.read(path)?;
        if self.schedule.fault_at(op) == Some(StorageFault::ShortRead) && !data.is_empty() {
            s.faults += 1;
            let keep = self.cut(op, &norm(path), 0, data.len() as u64 - 1) as usize;
            return Ok(data[..keep].to_vec());
        }
        Ok(data)
    }

    fn write(&self, path: &Path, data: &[u8]) -> Result<()> {
        let (mut s, op) = self.begin()?;
        match self.schedule.fault_at(op) {
            Some(StorageFault::Enospc) if !self.crash_due(op) => {
                s.faults += 1;
                return Err(ArynError::Io(format!("{}: no space left", path.display())));
            }
            Some(StorageFault::TornWrite) if !self.crash_due(op) => {
                s.faults += 1;
                let keep = self.cut(op, &norm(path), 0, data.len().saturating_sub(1) as u64);
                self.inner.write(path, &data[..keep as usize])?;
                let t = self.track_entry(&mut s, path, 0);
                // A truncating write discards the old durable image.
                t.durable_len = 0;
                t.current_len = keep;
                return Err(ArynError::Io(format!("{}: torn write", path.display())));
            }
            _ => {}
        }
        // The write reaches the page cache (even on the crash op — the
        // crash then decides how much of it survives).
        self.inner.write(path, data)?;
        let t = self.track_entry(&mut s, path, 0);
        t.durable_len = 0;
        t.current_len = data.len() as u64;
        if self.crash_due(op) {
            self.crash(&mut s, op);
            return Err(ArynError::Io("simulated crash during write".into()));
        }
        Ok(())
    }

    fn append(&self, path: &Path, data: &[u8]) -> Result<()> {
        let (mut s, op) = self.begin()?;
        let existing = if s.tracked.contains_key(&norm(path)) {
            0 // already tracked; existing_durable unused
        } else {
            self.inner_len(path)
        };
        match self.schedule.fault_at(op) {
            Some(StorageFault::Enospc) if !self.crash_due(op) => {
                s.faults += 1;
                return Err(ArynError::Io(format!("{}: no space left", path.display())));
            }
            Some(StorageFault::TornWrite) if !self.crash_due(op) => {
                s.faults += 1;
                let keep = self.cut(op, &norm(path), 0, data.len().saturating_sub(1) as u64);
                self.inner.append(path, &data[..keep as usize])?;
                let t = self.track_entry(&mut s, path, existing);
                t.current_len += keep;
                return Err(ArynError::Io(format!("{}: torn append", path.display())));
            }
            _ => {}
        }
        self.inner.append(path, data)?;
        let t = self.track_entry(&mut s, path, existing);
        t.current_len += data.len() as u64;
        if self.crash_due(op) {
            self.crash(&mut s, op);
            return Err(ArynError::Io("simulated crash during append".into()));
        }
        Ok(())
    }

    fn sync(&self, path: &Path) -> Result<()> {
        let (mut s, op) = self.begin()?;
        if self.crash_due(op) {
            // Crash before the sync takes effect: the tail stays volatile.
            self.crash(&mut s, op);
            return Err(ArynError::Io("simulated crash during sync".into()));
        }
        self.inner.sync(path)?;
        if let Some(t) = s.tracked.get_mut(&norm(path)) {
            t.durable_len = t.current_len;
        }
        Ok(())
    }

    fn rename(&self, from: &Path, to: &Path) -> Result<()> {
        let (mut s, op) = self.begin()?;
        if self.crash_due(op) {
            // Atomic rename: a crash at this op happens *before* it, so the
            // target keeps its old identity.
            self.crash(&mut s, op);
            return Err(ArynError::Io("simulated crash during rename".into()));
        }
        self.inner.rename(from, to)?;
        // Rename is modelled atomic + durable (journaled metadata): the
        // moved file carries its synced state to the new name.
        let track = s.tracked.remove(&norm(from));
        match track {
            Some(t) => {
                s.tracked.insert(norm(to), t);
            }
            None => {
                s.tracked.remove(&norm(to));
            }
        }
        Ok(())
    }

    fn remove(&self, path: &Path) -> Result<()> {
        let (mut s, op) = self.begin()?;
        if self.crash_due(op) {
            self.crash(&mut s, op);
            return Err(ArynError::Io("simulated crash during remove".into()));
        }
        self.inner.remove(path)?;
        s.tracked.remove(&norm(path));
        Ok(())
    }

    fn create_dir_all(&self, path: &Path) -> Result<()> {
        let (mut s, op) = self.begin()?;
        if self.crash_due(op) {
            self.crash(&mut s, op);
            return Err(ArynError::Io("simulated crash during mkdir".into()));
        }
        self.inner.create_dir_all(path)
    }

    fn list(&self, dir: &Path) -> Result<Vec<String>> {
        let (mut s, op) = self.begin()?;
        if self.crash_due(op) {
            self.crash(&mut s, op);
            return Err(ArynError::Io("simulated crash during list".into()));
        }
        self.inner.list(dir)
    }

    fn exists(&self, path: &Path) -> bool {
        if self.crashed() {
            return false;
        }
        self.inner.exists(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn record_roundtrip_and_corruption_detection() {
        let line = encode_record('p', r#"{"id":"d1"}"#);
        let (tag, payload) = decode_record(&line).unwrap();
        assert_eq!(tag, 'p');
        assert_eq!(payload, r#"{"id":"d1"}"#);
        // Flip a payload byte: crc mismatch.
        let corrupt = line.replace("d1", "d2");
        assert!(decode_record(&corrupt).is_err());
        // Torn prefix: framing fails.
        assert!(decode_record(&line[..line.len() - 3]).is_err());
        assert!(decode_record("").is_err());
        // Empty payload is legal.
        let empty = encode_record('e', "");
        assert_eq!(decode_record(&empty).unwrap(), ('e', ""));
    }

    #[test]
    fn frame_roundtrip_and_torn_detection() {
        let mut buf = Vec::new();
        encode_frame(&mut buf, b'p', b"payload").unwrap();
        encode_frame(&mut buf, b'd', b"").unwrap();
        let (tag, payload, rest) = decode_frame(&buf).unwrap();
        assert_eq!((tag, payload), (b'p', &b"payload"[..]));
        assert_eq!(decode_frame(rest), Some((b'd', &b""[..], &b""[..])));
        // Every strict prefix of the first frame is torn; a flipped payload
        // bit fails the CRC.
        for cut in 0..FRAME_HEADER + 7 {
            assert_eq!(decode_frame(&buf[..cut]), None, "cut at {cut}");
        }
        // The CRC covers tag, length and payload: any flipped byte fails.
        for at in 0..FRAME_HEADER + 7 {
            let mut bad = buf.clone();
            bad[at] ^= 1;
            assert_eq!(decode_frame(&bad), None, "flip at {at}");
        }
        // A failing fill leaves the buffer untouched.
        let mut out = b"keep".to_vec();
        let err = encode_frame_with(&mut out, b'p', |o| {
            o.extend_from_slice(b"half");
            Err(ArynError::Io("no".into()))
        });
        assert!(err.is_err());
        assert_eq!(out, b"keep");
    }

    #[test]
    fn frame_file_detects_truncation_and_counts() {
        let mut file = Vec::new();
        encode_frame(&mut file, b's', b"one").unwrap();
        let first = file.len();
        encode_frame(&mut file, b't', b"two").unwrap();
        let records = file.len();
        finish_frame_file(&mut file, 2).unwrap();
        let want: Vec<(u8, &[u8])> = vec![(b's', b"one"), (b't', b"two")];
        assert_eq!(decode_frame_file(&file).unwrap(), want);
        // Any truncation, the footer's included, is an error.
        for cut in 0..file.len() {
            assert!(decode_frame_file(&file[..cut]).is_err(), "cut at {cut}");
        }
        // A dropped record under an intact footer: count mismatch.
        let mut missing = file[..first].to_vec();
        missing.extend_from_slice(&file[records..]);
        assert!(decode_frame_file(&missing).is_err());
        // Trailing bytes after the footer.
        let mut trailing = file.clone();
        trailing.push(0);
        assert!(decode_frame_file(&trailing).is_err());
    }

    #[test]
    fn memfs_basic_ops() {
        let fs = MemFs::new();
        let dir = Path::new("/data");
        fs.create_dir_all(dir).unwrap();
        assert!(fs.exists(dir));
        fs.write(&dir.join("a.txt"), b"one").unwrap();
        fs.append(&dir.join("a.txt"), b"+two").unwrap();
        assert_eq!(fs.read(&dir.join("a.txt")).unwrap(), b"one+two");
        fs.write(&dir.join("b.txt"), b"x").unwrap();
        assert_eq!(fs.list(dir).unwrap(), vec!["a.txt", "b.txt"]);
        fs.rename(&dir.join("a.txt"), &dir.join("c.txt")).unwrap();
        assert!(!fs.exists(&dir.join("a.txt")));
        assert_eq!(fs.read(&dir.join("c.txt")).unwrap(), b"one+two");
        fs.remove(&dir.join("b.txt")).unwrap();
        assert!(fs.read(&dir.join("b.txt")).is_err());
        assert!(fs.list(Path::new("/empty")).unwrap().is_empty());
    }

    #[test]
    fn atomic_write_replaces_whole_file() {
        let fs = MemFs::new();
        let p = Path::new("/data/m");
        atomic_write(&fs, p, b"v1").unwrap();
        assert_eq!(fs.read(p).unwrap(), b"v1");
        atomic_write(&fs, p, b"v2-longer").unwrap();
        assert_eq!(fs.read(p).unwrap(), b"v2-longer");
        assert!(!fs.exists(&tmp_path(p)), "tmp staged file renamed away");
    }

    #[test]
    fn chaos_enospc_and_torn_write_fault() {
        let mem = Arc::new(MemFs::new());
        let sched = StorageSchedule::calm()
            .with_window(StorageFault::Enospc, 0, 1)
            .with_window(StorageFault::TornWrite, 1, 1)
            .with_seed(7);
        let fs = ChaosFs::wrap(mem.clone(), sched);
        let p = Path::new("/d/f");
        // Op 0: ENOSPC — nothing lands.
        assert!(fs.write(p, b"hello world").is_err());
        assert!(!mem.exists(p));
        // Op 1: torn write — a strict prefix lands.
        assert!(fs.write(p, b"hello world").is_err());
        let got = mem.read(p).unwrap();
        assert!(got.len() < b"hello world".len());
        assert_eq!(&b"hello world"[..got.len()], &got[..]);
        assert_eq!(fs.faults_injected(), 2);
        // Op 2+: calm again.
        fs.write(p, b"ok").unwrap();
        assert_eq!(mem.read(p).unwrap(), b"ok");
    }

    #[test]
    fn chaos_short_read_returns_prefix() {
        let mem = Arc::new(MemFs::new());
        mem.write(Path::new("/f"), b"0123456789").unwrap();
        let fs = ChaosFs::wrap(
            mem,
            StorageSchedule::calm().with_window(StorageFault::ShortRead, 0, 1),
        );
        let got = fs.read(Path::new("/f")).unwrap();
        assert!(got.len() < 10);
        assert_eq!(&b"0123456789"[..got.len()], &got[..]);
        let full = fs.read(Path::new("/f")).unwrap();
        assert_eq!(full, b"0123456789");
    }

    #[test]
    fn crash_truncates_unsynced_tails_and_poisons() {
        let mem = Arc::new(MemFs::new());
        // synced: write + sync (ops 0,1); unsynced append op 2; crash op 3.
        let fs = ChaosFs::wrap(
            mem.clone(),
            StorageSchedule::calm().with_crash_at(3).with_seed(42),
        );
        let p = Path::new("/wal");
        fs.write(p, b"synced|").unwrap();
        fs.sync(p).unwrap();
        fs.append(p, b"volatile-tail").unwrap();
        assert!(fs.append(p, b"never").is_err(), "crash op fails");
        assert!(fs.crashed());
        // Every later op fails.
        assert!(fs.read(p).is_err());
        assert!(fs.write(p, b"x").is_err());
        // The inner image kept the synced prefix, and at most a prefix of
        // the volatile tail (the crashing append landed in cache first).
        let img = mem.read(p).unwrap();
        assert!(img.starts_with(b"synced|"), "synced bytes survive: {img:?}");
        let full = b"synced|volatile-tailnever";
        assert!(img.len() <= full.len());
        assert_eq!(&full[..img.len()], &img[..]);
    }

    #[test]
    fn crash_sweep_atomic_write_leaves_old_or_new() {
        // atomic_write = 3 ops (write tmp, sync tmp, rename). Crashing at
        // every point must leave the destination as old or new, never torn.
        for k in 0..3u64 {
            let mem = Arc::new(MemFs::new());
            mem.write(Path::new("/m"), b"old-contents").unwrap();
            let fs = ChaosFs::wrap(
                mem.clone(),
                StorageSchedule::calm().with_crash_at(k).with_seed(k + 1),
            );
            assert!(atomic_write(&fs, Path::new("/m"), b"new!").is_err());
            let img = mem.read(Path::new("/m")).unwrap();
            assert!(
                img == b"old-contents" || img == b"new!",
                "crash at op {k} left torn destination {img:?}"
            );
        }
        // And with no crash it completes.
        let mem = Arc::new(MemFs::new());
        mem.write(Path::new("/m"), b"old").unwrap();
        let fs = ChaosFs::wrap(mem.clone(), StorageSchedule::calm());
        atomic_write(&fs, Path::new("/m"), b"new!").unwrap();
        assert_eq!(mem.read(Path::new("/m")).unwrap(), b"new!");
        assert_eq!(fs.ops(), 3);
    }

    #[test]
    fn from_seed_is_deterministic() {
        let a = StorageSchedule::from_seed(9, 100, 0.3);
        let b = StorageSchedule::from_seed(9, 100, 0.3);
        assert_eq!(a, b);
        assert!(!a.is_calm());
        assert!(StorageSchedule::from_seed(10, 100, 0.3) != a);
        assert!(StorageSchedule::calm().is_calm());
    }
}
