//! Eager-versioning transactions (the paper's base McRT-STM, §3).
//!
//! Optimistic read concurrency with per-record version numbers, strict
//! two-phase locking and in-place (eager) updates for writes, and an undo
//! log for rollback. Conflicting record states are resolved by a bounded
//! conflict manager: after `conflict_retries` backoffs the transaction
//! aborts itself, which breaks deadlocks between writers.
//!
//! The open-read, acquire, validate, release, and finish paths are the
//! shared [`TxnCore`] pipeline ([`crate::pipeline`]); this module adds only
//! what is eager-specific — the undo log (the core's pooled span log) and
//! in-place stores. The DEA private-access compensation sets also live in
//! the core's pooled scratch.
//!
//! Dynamic escape analysis integration (paper §4): accesses to *private*
//! records skip locking and read-set logging entirely. Because a reference
//! written into a public object publishes immediately — even inside a
//! transaction, since a doomed transaction may expose speculative
//! references — the transaction compensates at publication time: objects it
//! read or wrote while they were private are retroactively added to the
//! read set / acquired for writing, preserving serializability.

use crate::contention::ConflictSite;
use crate::cost::{charge, CostKind};
use crate::dea;
use crate::fault::{self, FaultSite};
use crate::heap::{Heap, Obj, ObjRef, Word};
use crate::pipeline::{Acquired, AttemptPolicy, CoreMark, ReadKind, SpanEntry, TxnCore, MAX_SPAN};
use crate::stats::TxnTelemetry;
use crate::syncpoint::SyncPoint;
use crate::txn::{TxResult, TxnKind};
use crate::txnrec::RecWord;
use std::sync::atomic::Ordering;

/// A savepoint for closed nesting: log lengths to roll back to.
#[derive(Copy, Clone, Debug)]
pub(crate) struct SavePoint {
    mark: CoreMark,
    undo_len: usize,
}

/// An eager-versioning transaction. Use via [`crate::txn::atomic`].
pub struct EagerTxn<'h> {
    core: TxnCore<'h>,
}

impl<'h> EagerTxn<'h> {
    pub(crate) fn new(heap: &'h Heap, age: u64, kind: TxnKind, policy: AttemptPolicy) -> Self {
        EagerTxn { core: TxnCore::begin(heap, age, kind, policy) }
    }

    pub(crate) fn heap(&self) -> &'h Heap {
        self.core.heap
    }

    pub(crate) fn owner_word(&self) -> usize {
        self.core.owner_word()
    }

    pub(crate) fn slot_index(&self) -> Option<usize> {
        self.core.slot_index()
    }

    /// Opens `r` for reading (paper: open-for-read barrier) and returns the
    /// field value.
    pub(crate) fn read(&mut self, r: ObjRef, field: usize) -> TxResult<Word> {
        let (val, kind) = self.core.open_read(r, field)?;
        if kind == ReadKind::Private {
            // DEA fast path: no logging; compensated on publication.
            self.core.private_reads.insert(r);
        }
        Ok(val)
    }

    /// Acquires `r` (whose object is `obj`) for writing and logs the undo
    /// span for `field`.
    fn open_write(&mut self, r: ObjRef, obj: &Obj, field: usize) -> TxResult<()> {
        self.core.ro_write_guard()?;
        self.core.write_preamble()?;
        match self
            .core
            .acquire_for_write(r, obj, ConflictSite::TxnWrite, CostKind::TxnOpenWrite)?
        {
            Acquired::Private => {
                self.core.private_writes.insert(r);
            }
            Acquired::Held => {}
        }
        self.log_undo(r, obj, field);
        Ok(())
    }

    fn log_undo(&mut self, r: ObjRef, obj: &Obj, field: usize) {
        let span = self.heap().config.version_granularity.span(field, obj.fields.len());
        let mut vals = [0u64; MAX_SPAN];
        for (i, f) in span.clone().enumerate() {
            vals[i] = obj.field(f).load(Ordering::Relaxed);
        }
        let entry = SpanEntry {
            obj: r,
            base: span.start as u32,
            len: span.len() as u8,
            vals,
        };
        self.core.spans.push(entry);
        self.core.note_undo(entry);
    }

    /// Transactional write: acquire, undo-log, update in place, publish
    /// escaping references immediately (doomed-transaction rule, paper §4).
    pub(crate) fn write(&mut self, r: ObjRef, field: usize, value: Word) -> TxResult<()> {
        let heap = self.heap();
        let obj = heap.obj(r);
        self.open_write(r, obj, field)?;
        let obj_private = obj.rec.load_relaxed().is_private();
        if !obj_private && heap.config.dea && heap.slot_is_ref(obj.kind, field) {
            self.publish_escaping(value);
        }
        obj.field(field).store(value, Ordering::Relaxed);
        self.heap().hit(SyncPoint::EagerAfterWrite);
        // The crash-safety hot spot: a panic injected here unwinds while the
        // record word is Exclusive and the undo log holds the only pre-image.
        fault::hook(self.heap(), FaultSite::PostWrite)?;
        Ok(())
    }

    /// Publishes the object graph behind `word` and compensates the
    /// transaction's private-access bookkeeping: published objects this
    /// transaction wrote while private are acquired; published objects it
    /// read while private join the read set (unless their guard slot is
    /// already ours — a lock-protected read needs no logging).
    fn publish_escaping(&mut self, word: Word) {
        let Some(root) = ObjRef::from_word(word) else { return };
        if !self.heap().is_private(root) {
            return;
        }
        let mut published = Vec::new();
        dea::publish_with(self.heap(), root, &mut |o| published.push(o));
        for o in published {
            if self.core.private_writes.remove(&o) {
                self.core.acquire_published(o);
                self.core.private_reads.remove(&o);
            } else if self.core.private_reads.remove(&o) {
                let rec = self.heap().guard_load(o, self.heap().obj(o));
                if rec.is_shared() {
                    self.core.log_read(o, rec);
                }
            }
        }
    }

    /// Mid-transaction validation.
    pub(crate) fn validate(&mut self) -> TxResult<()> {
        self.core.validate()
    }

    /// Attempts to commit. On validation failure the transaction is rolled
    /// back and released before `Err(Abort::Conflict)` is returned.
    pub(crate) fn commit(&mut self) -> TxResult<()> {
        match self.core.try_fast_commit() {
            Ok(true) => return Ok(()),
            Ok(false) => {}
            Err(abort) => {
                self.abort();
                return Err(abort);
            }
        }
        if let Err(abort) = self.core.validate_for_commit() {
            self.abort();
            return Err(abort);
        }
        self.heap().hit(SyncPoint::EagerAfterValidate);
        // Install multiversion entries while still exclusive, so wait-free
        // readers cannot miss this commit; the release loop then stamps
        // every written guard with the drawn write version. The eager span
        // log holds pre-images, which seed still-empty rings.
        self.core.mv_publish_owned(true);
        self.core.release_owned(true, false);
        self.core.finish_commit();
        Ok(())
    }

    /// Whether this attempt asked to be re-executed as read-write.
    pub(crate) fn ro_demoted(&self) -> bool {
        self.core.ro_demoted()
    }

    /// Rolls back all speculative updates and releases all locks.
    pub(crate) fn abort(&mut self) {
        self.heap().hit(SyncPoint::EagerBeforeRollback);
        let heap = self.core.heap;
        // Undo replay in reverse append order.
        while let Some(e) = self.core.spans.pop() {
            charge(CostKind::TxnCommitEntry);
            e.store_vals(heap, Ordering::Relaxed);
        }
        // Version bump on release: concurrent optimistic readers that
        // observed the speculative values must fail validation.
        self.core.release_owned(false, true);
        self.heap().hit(SyncPoint::EagerAfterRollback);
        self.core.finish_abort();
    }

    /// This attempt's contention telemetry.
    pub(crate) fn telemetry(&self) -> TxnTelemetry {
        self.core.telemetry()
    }

    /// Snapshot of the read set, used by `retry` to wait for a change.
    pub(crate) fn read_snapshot(&self) -> Vec<(ObjRef, RecWord)> {
        self.core.read_snapshot()
    }

    pub(crate) fn savepoint(&self) -> SavePoint {
        SavePoint { mark: self.core.mark(), undo_len: self.core.spans.len() }
    }

    /// Closed-nesting partial rollback (paper: "closed nesting" support).
    /// Locks acquired inside the nested block are retained — safe under
    /// two-phase locking, merely conservative.
    pub(crate) fn rollback_to(&mut self, sp: SavePoint) {
        let heap = self.core.heap;
        // `while let`, not an indexed pop-and-expect: this runs on unwind
        // paths (closed-nesting rollback inside a panicking attempt), where
        // a secondary panic would escalate to an abort of the process.
        while self.core.spans.len() > sp.undo_len {
            let Some(e) = self.core.spans.pop() else { break };
            e.store_vals(heap, Ordering::Relaxed);
        }
        self.core.rollback_to_mark(sp.mark);
    }

    pub(crate) fn push_on_abort(&mut self, h: Box<dyn FnOnce() + 'h>) {
        self.core.push_on_abort(h);
    }

    pub(crate) fn push_on_commit(&mut self, h: Box<dyn FnOnce() + 'h>) {
        self.core.push_on_commit(h);
    }
}

impl std::fmt::Debug for EagerTxn<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (reads, owned) = self.core.debug_counts();
        f.debug_struct("EagerTxn")
            .field("owner", &self.core.owner)
            .field("reads", &reads)
            .field("owned", &owned)
            .field("undo", &self.core.spans.len())
            .finish()
    }
}
