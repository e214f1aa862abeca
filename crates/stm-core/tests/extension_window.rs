//! Regression test for the timestamp-extension window of open-for-read.
//!
//! A read that observes a version newer than the snapshot `rv` extends the
//! snapshot: it heals the clock, re-samples `rv` and revalidates the read
//! set. If the read itself were logged only *after* that revalidation, a
//! writer committing to the same object between the read and the clock
//! re-sample would never be checked: the reader's new `rv` covers the
//! writer's stamp, so the read-only fast commit (or, for a writer, the
//! `wv == rv + 1` skip) would commit a snapshot mixing the old value of
//! the first object with the new value of the second.
//!
//! The syncpoint script parks the reader inside that window while a
//! writer commits `(a, b) = (2, 2)` over `(1, 1)`; the reader must never
//! return the torn pair `(1, 2)`.

use std::sync::Arc;
use stm_core::config::{ClockMode, Granularity, IsolationLevel, StmConfig, Versioning};
use stm_core::heap::{FieldDef, Heap, ObjRef, Shape};
use stm_core::syncpoint::{as_actor, ActorId, Script, SyncPoint};
use stm_core::txn::atomic;

const READER: ActorId = ActorId(1);
const WRITER: ActorId = ActorId(2);

fn write_pair(heap: &Heap, a: ObjRef, b: ObjRef, v: u64) {
    atomic(heap, |tx| {
        tx.write(a, 0, v)?;
        tx.write(b, 0, v)
    });
}

/// Runs the scripted interleaving and returns the pair the reader's
/// committed attempt saw, plus the heap for further checks.
fn race_extension_window(reader_writes: bool) -> ((u64, u64), Arc<Heap>, ObjRef) {
    let heap = Heap::new(StmConfig {
        versioning: Versioning::Eager,
        granularity: Granularity::PerObject,
        isolation: IsolationLevel::StrongAtomicity,
        clock: ClockMode::Global,
        multiversion: false,
        ..StmConfig::default()
    });
    let shape = heap.define_shape(Shape::new("Cell", vec![FieldDef::int("v")]));
    let (a, b, c) = (heap.alloc_public(shape), heap.alloc_public(shape), heap.alloc_public(shape));

    let script = Arc::new(Script::new([
        // The reader has begun: its `rv` is sampled.
        (READER, SyncPoint::User(1)),
        // The writer commits (1, 1), moving `a` past the reader's `rv`.
        (WRITER, SyncPoint::User(2)),
        (WRITER, SyncPoint::User(3)),
        // The reader reads a = 1, double-checks it and starts extending.
        (READER, SyncPoint::User(4)),
        (READER, SyncPoint::TxnExtendBegin),
        // Inside the window the writer commits (2, 2) and ticks the clock.
        (WRITER, SyncPoint::User(5)),
        (WRITER, SyncPoint::User(6)),
        // Only now does the reader re-sample `rv`, past the writer's stamp.
        (READER, SyncPoint::TxnExtendHealed),
    ]));
    heap.install_script(Arc::clone(&script));

    let writer = {
        let heap = Arc::clone(&heap);
        std::thread::spawn(move || {
            as_actor(WRITER, || {
                heap.hit(SyncPoint::User(2));
                write_pair(&heap, a, b, 1);
                heap.hit(SyncPoint::User(3));
                heap.hit(SyncPoint::User(5));
                write_pair(&heap, a, b, 2);
                heap.hit(SyncPoint::User(6));
            })
        })
    };
    let seen = as_actor(READER, || {
        atomic(&heap, |tx| {
            heap.hit(SyncPoint::User(1));
            heap.hit(SyncPoint::User(4));
            let x = tx.read(a, 0)?;
            let y = tx.read(b, 0)?;
            if reader_writes {
                tx.write(c, 0, x + y)?;
            }
            Ok((x, y))
        })
    });
    writer.join().unwrap();
    assert_eq!(script.remaining(), 0, "the interleaving did not run as scripted");
    heap.clear_script();
    (seen, heap, c)
}

#[test]
fn read_only_commit_never_returns_a_torn_pair() {
    let (seen, heap, _) = race_extension_window(false);
    assert_eq!(seen, (2, 2), "read-only block committed a torn snapshot");
    let snap = heap.stats_snapshot();
    assert!(snap.aborts_validation >= 1, "the extension did not catch the write to `a`");
    heap.audit().assert_clean();
}

#[test]
fn skipped_revalidation_never_commits_a_torn_pair() {
    let (seen, heap, c) = race_extension_window(true);
    assert_eq!(seen, (2, 2), "writer block committed a torn snapshot");
    assert_eq!(heap.read_raw(c, 0), 4);
    heap.audit().assert_clean();
}
