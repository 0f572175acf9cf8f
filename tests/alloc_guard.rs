//! Allocation guard for the row plane (DESIGN.md "Data plane"): what a
//! structured question and a semantic filter allocate, counted — nothing is
//! timed. The binary installs a counting global allocator whose counters are
//! per thread, and both checks run single-threaded (`exec` workers = 1), so
//! the numbers repeat exactly and other tests' threads cannot disturb them.

use aryn::prelude::*;
use aryn_docgen::stream::extracted_document;
use aryn_index::DocStore;
use luna::{Plan, PlanNode, PlanOp};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

thread_local! {
    /// Bytes this thread asked the allocator for.
    static BYTES: Cell<u64> = const { Cell::new(0) };
    /// Blocks this thread allocated with exactly [`row_block`]'s layout.
    static ROW_BLOCKS: Cell<u64> = const { Cell::new(0) };
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
