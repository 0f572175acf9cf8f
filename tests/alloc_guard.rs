//! Allocation guard for the row plane (DESIGN.md "Data plane") and the
//! sidecar index adds (§5j): what a structured question, a semantic filter,
//! one HNSW insert, one BM25 insert and one durable put allocate, counted —
//! nothing is timed. The binary installs a counting global allocator whose counters are
//! per thread, and both checks run single-threaded (`exec` workers = 1), so
//! the numbers repeat exactly and other tests' threads cannot disturb them.

use aryn::prelude::*;
use aryn_docgen::stream::extracted_document;
use aryn_index::{DocStore, HnswIndex, KeywordIndex, VectorIndex};
use luna::{Plan, PlanNode, PlanOp};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

thread_local! {
    /// Bytes this thread asked the allocator for.
    static BYTES: Cell<u64> = const { Cell::new(0) };
    /// Blocks this thread allocated with exactly [`row_block`]'s layout.
    static ROW_BLOCKS: Cell<u64> = const { Cell::new(0) };
    /// Blocks this thread allocated or regrew (`alloc` + `realloc` calls).
    static BLOCKS: Cell<u64> = const { Cell::new(0) };
}

/// The heap cell of an `Arc<Document>`: two reference counts, then the
/// document. Every copy of a row allocates exactly one.
fn row_block() -> Layout {
    let (cell, _) = Layout::new::<[usize; 2]>()
        .extend(Layout::new::<Document>())
        .expect("layout fits");
    cell.pad_to_align()
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`; the counters are
// const-initialised thread-locals without destructors, so touching them
// neither allocates nor runs during thread teardown.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BYTES.with(|b| b.set(b.get() + layout.size() as u64));
        BLOCKS.with(|n| n.set(n.get() + 1));
        if layout == row_block() {
            ROW_BLOCKS.with(|n| n.set(n.get() + 1));
        }
        // SAFETY: same layout the caller gave us.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        BYTES.with(|b| b.set(b.get() + new_size.saturating_sub(layout.size()) as u64));
        BLOCKS.with(|n| n.set(n.get() + 1));
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// `(bytes, row-sized blocks)` this thread allocated while `f` ran.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let (b0, r0) = (BYTES.with(Cell::get), ROW_BLOCKS.with(Cell::get));
    let out = f();
    (out, BYTES.with(Cell::get) - b0, ROW_BLOCKS.with(Cell::get) - r0)
}

/// Blocks this thread allocated or regrew while `f` ran.
fn blocks(f: impl FnOnce()) -> u64 {
    let before = BLOCKS.with(Cell::get);
    f();
    BLOCKS.with(Cell::get) - before
}

fn ntsb_context(n: usize) -> Context {
    let ctx = Context::new();
    let store: DocStore = Corpus::ntsb(11, n).docs.iter().map(extracted_document).collect();
    ctx.put_store("ntsb", store);
    ctx
}

fn node(id: usize, op: PlanOp, inputs: Vec<usize>) -> PlanNode {
    PlanNode { id, op, inputs, description: String::new() }
}

#[test]
fn a_structured_count_allocates_under_1kb_per_scanned_document() {
    const DOCS: usize = 2_000;
    let luna = Luna::new(ntsb_context(DOCS), &["ntsb"], LunaConfig::default()).unwrap();
    let alaska = ("us_state_abbrev".to_string(), Value::from("AK"));
    let scan = |prefilter| PlanOp::QueryDatabase { index: "ntsb".into(), prefilter };
    // The optimizer's pushed-down shape, and the shape it starts from.
    let pushed_down = Plan {
        nodes: vec![node(0, scan(vec![alaska.clone()]), vec![]), node(1, PlanOp::Count, vec![0])],
        result: 1,
    };
    let filtered = Plan {
        nodes: vec![
            node(0, scan(vec![]), vec![]),
            node(1, PlanOp::BasicFilter { path: alaska.0, value: alaska.1 }, vec![0]),
            node(2, PlanOp::Count, vec![1]),
        ],
        result: 2,
    };
    let warm = luna.execute(&pushed_down).unwrap();
    assert!(warm.answer.parse::<usize>().is_ok_and(|n| n > 0 && n < DOCS), "{}", warm.answer);
    for (what, plan) in [("pushed down", &pushed_down), ("scan then filter", &filtered)] {
        let (result, bytes, row_blocks) = counted(|| luna.execute(plan).unwrap());
        assert_eq!(result.answer, warm.answer, "{what}");
        assert_eq!(row_blocks, 0, "{what}: a count copies no document");
        let per_doc = bytes / DOCS as u64;
        assert!(
            per_doc < 1024,
            "{what}: {bytes} B for {DOCS} scanned documents = {per_doc} B each"
        );
    }
}

#[test]
fn llm_filter_copies_kept_rows_only() {
    const DOCS: usize = 200;
    let ctx = ntsb_context(DOCS);
    let snap = ctx.snapshot_store("ntsb").unwrap();
    let client = LlmClient::new(Arc::new(MockLlm::new(&GPT4_SIM, SimConfig::perfect(11))));
    let pipeline = ctx
        .read_snapshot("ntsb", snap)
        .llm_filter(&client, "the incident was caused by wind");
    let (kept, _, row_blocks) = counted(|| pipeline.collect_shared().unwrap());
    assert!(
        !kept.is_empty() && kept.len() < DOCS / 2,
        "the predicate must reject most rows: kept {}",
        kept.len()
    );
    // A kept row gets a lineage record, so it is copied once; a rejected row
    // is read through the snapshot's pointer and dropped.
    assert_eq!(row_blocks, kept.len() as u64, "document copies != kept rows");
}

#[test]
fn one_hnsw_add_allocates_a_handful_of_blocks() {
    let ctx = Context::new();
    let vectors: Vec<Vec<f32>> =
        Corpus::ntsb(11, 520).docs.iter().map(|d| ctx.embedder().embed(&extracted_document(d).full_text())).collect();
    assert_eq!(vectors[0].len(), 256);
    let mut index = HnswIndex::with_dims(256);
    for (i, v) in vectors.iter().enumerate().take(500) {
        index.add_slice(&format!("doc-{i}"), v).unwrap();
    }
    // Measured: 6 to 13 blocks per add (99 to 142 at the parent commit): the
    // key, the level hash's label, the new node's link lists doubling up to
    // 24 entries, now and then a neighbour's list or the arena growing. No
    // search state: visited stamps, candidate heap, result list and prune
    // buffer are the thread's scratch, warm by now. (The parent allocated a
    // hash set's growth chain and a result vector per layer search, and two
    // vector copies and a sort buffer per prune.)
    for (i, v) in vectors.iter().enumerate().skip(500) {
        let key = format!("doc-{i}");
        let n = blocks(|| index.add_slice(&key, v).unwrap());
        assert!(n <= 16, "add #{i} allocated {n} blocks");
    }
}

#[test]
fn one_durable_put_allocates_a_bounded_handful_of_blocks() {
    use aryn_core::vfs::{MemFs, Vfs};
    use aryn_index::{StoreConfig, WalConfig};
    let docs: Vec<Document> = Corpus::ntsb(11, 60).docs.iter().map(extracted_document).collect();
    let fs: Arc<dyn Vfs> = Arc::new(MemFs::new());
    let manual = StoreConfig { seal_threshold: 0, compact_fanout: 0 };
    let mut store = DocStore::open_with("/alloc/store", fs, manual, WalConfig::default()).unwrap();
    let (warm, measured) = docs.split_at(20);
    for d in warm {
        store.try_put(d.clone()).unwrap();
    }
    // The WAL frame is encoded in place into the store's reused buffer, so
    // what is left is the memtable entry (the key, the shared row), the
    // schema delta's path strings, the MemFs key and now and then the log
    // growing. Measured: 54 or 55 blocks; the JSON text codec allocated 738
    // in its encode alone.
    for d in measured {
        let d = d.clone();
        let n = blocks(|| store.try_put(d).unwrap());
        assert!(n <= 100, "one durable put allocated {n} blocks");
    }
}

#[test]
fn one_keyword_add_allocates_no_more_than_its_tokens_and_terms() {
    let docs = Corpus::ntsb(11, 40).docs;
    let mut index = KeywordIndex::new();
    for d in &docs {
        let text: String = extracted_document(d).full_text().split_whitespace().take(200).collect::<Vec<_>>().join(" ");
        let tokens = aryn_core::text::tokenize(&text);
        let mut terms = aryn_core::text::analyze(&text);
        terms.sort_unstable();
        terms.dedup();
        assert!(tokens.len() >= 150, "{} tokens", tokens.len());
        let n = blocks(|| index.add(d.id.as_str(), &text));
        // One block per token (stopwords too: the tokenizer makes them before
        // the analyzer drops them), at most a new postings list per distinct
        // term, and a constant for map nodes, the key's two copies and the
        // growth of the token vector and buffer. Measured: 298 into the empty
        // index (179 tokens, 91 terms), then 196 to 272; the parent's
        // per-token clone into a frequency map made it 506 to 606.
        let bound = (tokens.len() + terms.len() + 32) as u64;
        assert!(n <= bound, "{n} blocks for {} tokens and {} distinct terms", tokens.len(), terms.len());
    }
}
