//! Allocation guard for the row plane (DESIGN.md "Data plane"), the
//! semantic operators' per-call path, the sidecar index adds (§5j) and the
//! projected ETL sinks (§5g): what a structured question, a semantic
//! filter, one HNSW insert, one BM25 insert, one durable put, an
//! `explode`/`embed` into an index and one simulated-model extraction call
//! allocate, counted — nothing is timed. The
//! binary installs a counting global allocator whose counters are per
//! thread. The pipelines run on a `Context::new()`, which executes on the
//! calling thread (`LunaConfig::default()` would ask for the host's worker
//! count), and the structured count's plan has no per-document stage, so
//! the numbers repeat exactly and other tests' threads cannot disturb them.

use aryn::prelude::*;
use aryn_docgen::stream::extracted_document;
use aryn_index::{DocStore, HnswIndex, KeywordIndex, Predicate, VectorIndex};
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
fn a_second_count_over_a_pinned_store_builds_nothing() {
    const DOCS: usize = 1_500;
    let ctx = ntsb_context(DOCS);
    let snap = ctx.snapshot_store("ntsb").unwrap();
    let alaska = Predicate::Eq("us_state_abbrev".into(), Value::from("AK")).compile();
    // What a `Selection` does: three sample rows, the rest counted.
    let count = || {
        let mut matches = snap.filter_shared(&alaska);
        let sample = matches.by_ref().take(3).count();
        (sample + matches.count_rest(), matches.stats())
    };
    let (first, built) = count();
    assert!(first > 0 && first < DOCS, "{first}");
    assert_eq!((built.plans_built, built.columns_built, built.rows), (1, 2, DOCS), "the first count builds");
    let ((again, stats), bytes, row_blocks) = counted(count);
    assert_eq!(again, first);
    assert_eq!((stats.plans_built, stats.columns_built, stats.rows), (0, 0, DOCS), "the second builds nothing");
    assert_eq!(row_blocks, 0, "a count copies no document");
    // Measured: 1 626 B in 6 blocks (a verdict byte per entry, the layer
    // and mask lists).
    assert!(bytes < 4 * 1024, "{bytes} B");
    let blocks = blocks(|| {
        count();
    });
    assert!(blocks <= 12, "{blocks} blocks");
}

#[test]
fn a_one_conjunct_and_count_allocates_one_mask_per_layer() {
    const DOCS: usize = 1_500;
    let ctx = ntsb_context(DOCS);
    let snap = ctx.snapshot_store("ntsb").unwrap();
    // The conjunction every `Selection` compiles, here of one filter.
    let alaska = Predicate::And(vec![Predicate::Eq("us_state_abbrev".into(), Value::from("AK"))]).compile();
    let count = || {
        let mut matches = snap.filter_shared(&alaska);
        let sample = matches.by_ref().take(3).count();
        sample + matches.count_rest()
    };
    let first = count();
    let (again, bytes, _) = counted(count);
    assert_eq!(again, first);
    // Measured: 1 626 B, as for the bare `Eq`; a fresh all-true mask under
    // the `And` made it 3 126 B.
    assert!(bytes < 3_126, "{bytes} B");
}

#[test]
fn a_keyed_count_over_a_pinned_store_allocates_o_rows_plus_groups() {
    const DOCS: usize = 1_500;
    let luna = Luna::new(ntsb_context(DOCS), &["ntsb"], LunaConfig::default()).unwrap();
    let scan = PlanOp::QueryDatabase { index: "ntsb".into(), prefilter: vec![] };
    let by_state = PlanOp::Aggregate { key: "us_state_abbrev".into(), func: "count".into(), path: String::new() };
    let grouped = Plan { nodes: vec![node(0, scan.clone(), vec![]), node(1, by_state.clone(), vec![0])], result: 1 };
    let top = Plan {
        nodes: vec![
            node(0, scan, vec![]),
            node(1, by_state, vec![0]),
            node(2, PlanOp::TopK { path: "count".into(), descending: true, k: 1 }, vec![1]),
        ],
        result: 2,
    };
    let warm = luna.execute(&grouped).unwrap();
    let groups = warm.output.len() as u64;
    assert!(groups > 10 && groups < 60, "{groups} groups");
    let rows = DOCS as u64;
    let sources = |r: &luna::LunaResult| -> u64 {
        r.output.rows().unwrap().iter().map(|g| g.lineage[0].sources.len() as u64).sum()
    };
    assert_eq!(sources(&warm), rows, "every row is a source of its group");
    let mut result = None;
    let all = blocks(|| result = Some(luna.execute(&grouped).unwrap()));
    assert_eq!(result.take().unwrap().output, warm.output);
    // Every group with its sources: a block per row (its id), a few dozen
    // per group (its document, built once without sources and copied
    // with them: id, key, count, lineage, the source list), and the run's
    // fixed cost (155 blocks for a scan and count). Measured: 2 592 blocks
    // for 1 500 rows and 30 groups.
    assert!(all <= rows + 40 * groups + 200, "{all} blocks for {rows} rows and {groups} groups");
    // A top group gathers the sources of the group it keeps only.
    let kept = blocks(|| result = Some(luna.execute(&top).unwrap()));
    let kept_rows = sources(&result.unwrap());
    assert!(kept_rows > 0 && kept_rows < rows / 4, "{kept_rows}");
    // Measured: 834 blocks for the top group's 97 rows.
    assert!(kept <= kept_rows + 40 * groups + 200, "{kept} blocks for {kept_rows} kept rows and {groups} groups");
}

#[test]
fn two_pins_with_no_write_between_share_one_schema() {
    let ctx = ntsb_context(300);
    let first = ctx.snapshot_store("ntsb").unwrap();
    let (second, bytes, _) = counted(|| ctx.snapshot_store("ntsb").unwrap());
    assert!(Arc::ptr_eq(first.shared_schema(), second.shared_schema()));
    // Measured: 72 B (the snapshot's cell and segment list); a copy of the
    // schema map, which every pin used to build, is 2 226 B.
    assert!(bytes < 512, "{bytes} B");
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

/// An `llm_filter` pass over a store of `n` documents, pinned to one worker:
/// blocks allocated per document.
fn llm_filter_blocks_per_doc(store: DocStore, predicate: &str) -> u64 {
    let n = store.len() as u64;
    let ctx = Context::new().with_exec(ExecConfig { threads: 1, ..ExecConfig::default() });
    ctx.put_store("s", store);
    let client = LlmClient::new(Arc::new(MockLlm::new(&GPT4_SIM, SimConfig::perfect(11))));
    let pipeline = ctx.read_store("s").unwrap().llm_filter(&client, predicate);
    pipeline.collect_shared().unwrap();
    let mut kept = 0;
    let total = blocks(|| kept = pipeline.collect_shared().unwrap().len());
    assert!(kept > 0 && (kept as u64) < n, "{predicate:?} kept {kept} of {n}");
    total / n
}

#[test]
fn an_llm_filter_call_allocates_under_100_blocks_per_document() {
    // Per document: the selected text, the fitted prompt, the simulated
    // model's prompt parse, verdict and JSON reply, the metering — and no
    // longer one block per token of the context, which the semantic engine
    // now streams. Measured: 49 (a causal predicate over NTSB: the ASCII
    // lowercase and the marker sentences, no lowercased copy of every
    // sentence) and 56 (a sector predicate over earnings: the words
    // streamed, not stored); 63 and 60 with a lowercased sentence buffer
    // and a stored word buffer; 199 and 241 collecting token vectors.
    let ntsb: DocStore = Corpus::ntsb(11, 120).docs.iter().map(extracted_document).collect();
    let earnings: DocStore = Corpus::earnings(11, 120).docs.iter().map(extracted_document).collect();
    for (what, store, predicate) in [
        ("ntsb", ntsb, "the incident was caused by wind"),
        ("earnings", earnings, "the company is in the AI sector"),
    ] {
        let per_doc = llm_filter_blocks_per_doc(store, predicate);
        assert!(per_doc <= 60, "{what}: {per_doc} blocks per document");
    }
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
        let new_terms = terms.iter().filter(|t| index.df(t) == 0).count();
        assert!(tokens.len() >= 150, "{} tokens", tokens.len());
        let n = blocks(|| index.add(d.id.as_str(), &text));
        // Nothing per token: terms stream through the tokenizer's buffer and
        // find their postings by `&str`. Per new term a key and a postings
        // list; the constant covers map nodes, the key's two copies, the
        // buffer, and the postings lists that double when a common term's
        // document frequency crosses a power of two (about 70 lists at once
        // in this corpus). Measured: 199 into the empty index (179 tokens,
        // 91 new terms), then 15 to 124 (4 to 27 new terms). This bound is
        // 104 to 278 here; the previous one, a block per token plus one per
        // distinct term, was 299 to 313 and is above it for every document.
        let bound = (2 * new_terms + 96) as u64;
        assert!(n <= bound, "{n} blocks for {} tokens and {new_terms} new terms", tokens.len());
    }
}

/// A store of 20 partitioned NTSB reports (357 elements) on a one-worker
/// context.
fn partitioned_store() -> (Context, usize) {
    let ctx = Context::new();
    ctx.register_corpus("lake", &Corpus::ntsb(11, 20));
    ctx.read_lake("lake").unwrap().partition("lake", PartitionCfg::default()).write_store("s").unwrap();
    let chunks = ctx.with_store("s", |s| s.scan().map(|d| d.elements.len()).sum()).unwrap();
    (ctx, chunks)
}

#[test]
fn explode_then_write_keyword_allocates_only_keys_per_chunk() {
    let (ctx, chunks) = partitioned_store();
    let pipeline = ctx.read_store("s").unwrap().explode();
    // The first write creates the terms; the second re-indexes every key.
    pipeline.write_keyword("kw").unwrap();
    let mut n = 0;
    let ((), _, row_blocks) = counted(|| n = blocks(|| assert_eq!(pipeline.write_keyword("kw").unwrap(), chunks)));
    // The chunk is projected: its id, its text and its row, then the
    // index's two copies of the key, plus the executor's per-document
    // vectors. No parent properties, lineage or element are copied.
    // Measured: 2 343 blocks for 357 chunks (6.6 each); full chunks, as
    // `collect()` still builds them, made it 16 100 (45 each).
    assert_eq!(row_blocks, chunks as u64, "one row per chunk, no copy of a parent");
    assert!(n <= 7 * chunks as u64, "{n} blocks for {chunks} chunks");
}

#[test]
fn embed_then_write_vector_copies_no_document() {
    let (ctx, _) = partitioned_store();
    let pipeline = ctx.read_store("s").unwrap().embed();
    let (n, _, row_blocks) = counted(|| pipeline.write_vector("v").unwrap());
    assert_eq!(n, 20);
    // The store's rows are forwarded and the sink embeds their text.
    // Measured: 408 blocks, 74 KB; the unprojected `embed` copied each
    // shared row to attach its vector: 20 copies, 5 636 blocks, 455 KB.
    assert_eq!(row_blocks, 0, "document copies");
}

/// Blocks each extraction `generate` of `schema` allocates, one call per
/// document of `corpus`, after one warm-up call.
fn extraction_blocks(corpus: &Corpus, schema: &Value) -> Vec<u64> {
    use aryn_llm::model::{LanguageModel, LlmRequest};
    let model = MockLlm::new(&GPT4_SIM, SimConfig::perfect(11));
    let requests: Vec<LlmRequest> = corpus
        .docs
        .iter()
        .map(|d| LlmRequest::new(aryn_llm::prompt::tasks::extract(schema, &extracted_document(d).full_text())))
        .collect();
    model.generate(&requests[0]).unwrap();
    requests.iter().map(|r| blocks(|| drop(model.generate(r).unwrap()))).collect()
}

#[test]
fn one_extraction_call_reads_its_document_once() {
    // Per call: the prompt parse, one reading of the context (its words, its
    // sentence spans, the causal region and that region's words), each
    // field's value, the JSON reply and the usage. Measured over 40
    // documents: 79 to 88 blocks per NTSB call (mean 80) and 94 to 101 per
    // earnings call (mean 95). Re-reading the context per lexicon entry and
    // per field made it 325 to 820 (mean 585) and 134 to 173 (mean 149).
    for (what, corpus, schema) in [
        ("ntsb", Corpus::ntsb(11, 40), luna::luna::ntsb_schema()),
        ("earnings", Corpus::earnings(11, 40), luna::luna::earnings_schema()),
    ] {
        for (i, n) in extraction_blocks(&corpus, &schema).into_iter().enumerate() {
            assert!(n <= 110, "{what} document {i}: one extraction call allocated {n} blocks");
        }
    }
}
