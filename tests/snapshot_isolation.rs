//! Snapshot isolation under streaming ingestion (DESIGN.md §5j): a Luna
//! question answered against a pinned MVCC snapshot is bit-identical whether
//! or not an ingest stream is appending, sealing, and compacting the store
//! underneath. The property is checked two ways: a proptest over seeds,
//! stream sizes, and segment lifecycles with deterministic interleaving, and
//! a genuinely concurrent thread hammering the store mid-question.

use aryn_docgen::DocStream;
use aryn_llm::SimConfig;
use luna::{Luna, LunaConfig};
use proptest::prelude::*;
use sycamore::{Context, IngestConfig, Ingestor};

const QUESTIONS: [&str; 4] = [
    "How many incidents were caused by environmental factors?",
    "How many incidents involved fatalities?",
    "What was the most common phase of incidents?",
    "How many incidents were weather related?",
];

fn feed(ing: &mut Ingestor, stream: &mut DocStream, n: usize) {
    for _ in 0..n {
        let Some((doc, at)) = stream.next_arrival() else { break };
        ing.ingest_at(doc, at).unwrap();
    }
}

fn build_luna(ctx: Context) -> Luna {
    Luna::new(
        ctx,
        &["ntsb"],
        LunaConfig {
            sim: SimConfig::perfect(5),
            ..LunaConfig::default()
        },
    )
    .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 10,
        ..ProptestConfig::default()
    })]

    /// For any seed, prefix size, stream extension, segment lifecycle, and
    /// question: pin → ask → ingest/seal/compact → ask again is bit-stable,
    /// and matches a control world where the extension never happened.
    #[test]
    fn pinned_question_is_bit_identical_under_ingestion(
        seed in 1u64..40,
        n0 in 6usize..18,
        extra in 1usize..24,
        seal_threshold in 3usize..8,
        qix in 0usize..QUESTIONS.len(),
    ) {
        let cfg = IngestConfig {
            seal_threshold,
            compact_fanout: 3,
            ..IngestConfig::default()
        };
        let q = QUESTIONS[qix];

        // Streaming world: pin after a prefix, then keep ingesting.
        let ctx = Context::new();
        let mut ing = Ingestor::new(&ctx, "ntsb", cfg);
        let mut stream = DocStream::ntsb(seed, n0 + extra, 5.0);
        feed(&mut ing, &mut stream, n0);
        let luna = build_luna(ctx.clone());
        luna.pin_indexes().unwrap();
        let before = luna.ask(q).unwrap();
        feed(&mut ing, &mut stream, extra);
        // Force the rest of the segment lifecycle under the pin too.
        ctx.with_store_mut("ntsb", |s| {
            s.try_seal().unwrap();
            s.try_compact().unwrap();
        })
        .unwrap();
        let after = luna.ask(q).unwrap();
        prop_assert_eq!(before.answer(), after.answer());
        prop_assert_eq!(&before.result.output, &after.result.output);

        // Control world: only the pinned prefix ever existed.
        let ctx2 = Context::new();
        let mut ing2 = Ingestor::new(&ctx2, "ntsb", cfg);
        let mut stream2 = DocStream::ntsb(seed, n0, 5.0);
        feed(&mut ing2, &mut stream2, n0);
        let luna2 = build_luna(ctx2);
        let control = luna2.ask(q).unwrap();
        prop_assert_eq!(before.answer(), control.answer());
        prop_assert_eq!(&before.result.output, &control.result.output);

        // Unpinning lets the next question see the grown store.
        luna.unpin_indexes();
        let unpinned = luna.ask(q).unwrap();
        let grown = ctx.with_store("ntsb", |s| s.len()).unwrap();
        prop_assert_eq!(grown, n0 + extra);
        // The scan feeding the answer reflects the full store now.
        let scanned: usize = unpinned.result.traces
            .iter()
            .find(|t| t.op_kind == "queryDatabase")
            .map(|t| t.rows_out)
            .unwrap_or(0);
        prop_assert_eq!(scanned, grown);
    }
}

/// Real concurrency: a thread streams 100 more documents (with seals and
/// compactions) while the main thread asks the pinned question repeatedly.
/// Every answer matches the one taken before the thread started.
#[test]
fn concurrent_thread_ingestion_never_changes_pinned_answers() {
    let ctx = Context::new();
    let cfg = IngestConfig {
        seal_threshold: 4,
        compact_fanout: 2,
        ..IngestConfig::default()
    };
    let mut ing = Ingestor::new(&ctx, "ntsb", cfg);
    let mut stream = DocStream::ntsb(11, 120, 2.0);
    feed(&mut ing, &mut stream, 20);
    let luna = build_luna(ctx.clone());
    luna.pin_indexes().unwrap();
    let q = QUESTIONS[0];
    let control = luna.ask(q).unwrap();
    let writer = std::thread::spawn(move || {
        while let Some((doc, at)) = stream.next_arrival() {
            ing.ingest_at(doc, at).unwrap();
        }
        ing.report()
    });
    let mut answers = Vec::new();
    for _ in 0..4 {
        answers.push(luna.ask(q).unwrap());
    }
    let report = writer.join().unwrap();
    assert_eq!(report.docs, 120, "the writer streamed everything");
    assert!(report.seals > 0 && report.compactions > 0);
    for a in &answers {
        assert_eq!(a.answer(), control.answer());
        assert_eq!(a.result.output, control.result.output);
    }
    assert_eq!(ctx.with_store("ntsb", |s| s.len()).unwrap(), 120);
}
