//! Lazy-versioning transactions (the class of STMs analysed in paper §2.3).
//!
//! Writes are buffered privately; commit acquires the written records (in a
//! global order, avoiding committer deadlock), validates the read set,
//! writes the buffers back, and releases with a version bump. The window
//! between logical commit (validation) and the completion of write-back is
//! precisely where the paper's *memory inconsistency* anomalies live; the
//! engine announces [`SyncPoint::LazyAfterValidate`] and
//! [`SyncPoint::LazyMidWriteback`] so litmus tests can open that window
//! deterministically.
//!
//! The read protocol, commit-time acquisition, validation, release, and
//! finish paths are the shared [`TxnCore`] pipeline ([`crate::pipeline`]);
//! this module adds only what is lazy-specific — the write buffer (the
//! core's pooled span log plus its read-your-own-writes index) and the
//! commit-time write-back.
//!
//! Versioning granularity (paper §2.4): when the configured granularity
//! spans more than one field, creating a buffer entry snapshots the whole
//! span. Reads served from the buffer then see the *stale snapshot* of
//! neighbouring fields (granular inconsistent read), and write-back stores
//! the whole span (granular lost update) — both exactly as the paper
//! describes.

use crate::contention::ConflictSite;
use crate::cost::{charge, CostKind};
use crate::dea;
use crate::fault::{self, FaultSite};
use crate::heap::{Heap, ObjRef, Word};
use crate::pipeline::{AttemptPolicy, CoreMark, SpanEntry, TxnCore, MAX_SPAN};
use crate::stats::TxnTelemetry;
use crate::syncpoint::SyncPoint;
use crate::txn::{TxResult, TxnKind};
use crate::txnrec::RecWord;
use std::collections::HashMap;
use std::sync::atomic::Ordering;

/// Closed-nesting savepoint: the lazy engine snapshots its buffer wholesale
/// (nested blocks are rare; clarity over cleverness).
#[derive(Clone, Debug)]
pub(crate) struct LazySavePoint {
    mark: CoreMark,
    spans: Vec<SpanEntry>,
    index: HashMap<(ObjRef, u32), usize>,
}

/// A lazy-versioning transaction. Use via [`crate::txn::atomic`].
pub struct LazyTxn<'h> {
    core: TxnCore<'h>,
}

impl<'h> LazyTxn<'h> {
    pub(crate) fn new(heap: &'h Heap, age: u64, kind: TxnKind, policy: AttemptPolicy) -> Self {
        LazyTxn { core: TxnCore::begin(heap, age, kind, policy) }
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

    fn span_base(&self, r: ObjRef, field: usize) -> (u32, u8) {
        let len = self.heap().obj(r).fields.len();
        let span = self.heap().config.version_granularity.span(field, len);
        (span.start as u32, span.len() as u8)
    }

    /// Transactional read: buffered value if the span was written (including
    /// the stale-neighbour case that yields granular inconsistent reads),
    /// else the shared optimistic-read protocol.
    pub(crate) fn read(&mut self, r: ObjRef, field: usize) -> TxResult<Word> {
        self.core.read_preamble()?;
        let (base, _len) = self.span_base(r, field);
        if let Some(&i) = self.core.span_index.get(&(r, base)) {
            return Ok(self.core.spans[i].vals[field - base as usize]);
        }
        // Exclusive guards here mean a committer is writing back (or a
        // non-transactional writer owns the record anonymously); both
        // finish in bounded time, so the protocol loop just waits them out.
        let (val, _kind) = self.core.open_read_protocol(r, field)?;
        Ok(val)
    }

    /// Transactional write: buffer only; shared memory is untouched until
    /// commit (`SyncPoint::LazyAfterBuffer` marks the non-event).
    ///
    /// Creating a buffer entry snapshots the whole versioning span, which
    /// *is* a read: the snapshot joins the read set so commit validation
    /// catches concurrent barriered writers of neighbouring fields (this is
    /// what lets a strongly atomic lazy system hide the versioning
    /// granularity, paper §2.4 end).
    pub(crate) fn write(&mut self, r: ObjRef, field: usize, value: Word) -> TxResult<()> {
        self.core.ro_write_guard()?;
        charge(CostKind::TxnOpenWrite);
        let (base, len) = self.span_base(r, field);
        let idx = match self.core.span_index.get(&(r, base)) {
            Some(&i) => i,
            None => {
                // Snapshot the whole span — the source of §2.4's granular
                // anomalies when the span exceeds one field.
                let obj = self.heap().obj(r);
                let mut attempt = 0u32;
                let rec = loop {
                    let rec = self.heap().guard_load(r, obj);
                    if rec.is_private() || rec.is_shared() {
                        self.core.conflict_resolved(attempt);
                        break rec;
                    }
                    self.core.conflict(ConflictSite::TxnWrite, &mut attempt, rec)?;
                };
                let mut vals = [0u64; MAX_SPAN];
                for (i, v) in vals.iter_mut().enumerate().take(len as usize) {
                    *v = obj.field(base as usize + i).load(Ordering::Acquire);
                }
                if rec.is_shared() {
                    self.core.log_read(r, rec);
                }
                let i = self.core.spans.len();
                self.core.spans.push(SpanEntry { obj: r, base, len, vals });
                self.core.span_index.insert((r, base), i);
                i
            }
        };
        self.core.spans[idx].vals[field - base as usize] = value;
        self.heap().hit(SyncPoint::LazyAfterBuffer);
        fault::hook(self.heap(), FaultSite::PostBuffer)?;
        Ok(())
    }

    /// Mid-transaction validation.
    pub(crate) fn validate(&mut self) -> TxResult<()> {
        self.core.validate()
    }

    /// Commit: acquire written records in global order, validate, write
    /// back, release. On failure everything is restored untouched.
    pub(crate) fn commit(&mut self) -> TxResult<()> {
        match self.core.try_fast_commit() {
            Ok(true) => return Ok(()),
            Ok(false) => {}
            Err(abort) => {
                self.abort();
                return Err(abort);
            }
        }
        let heap = self.core.heap;
        // Acquire in guard-slot order to avoid deadlock between committers.
        // Slot order, not ObjRef order: under the striped table two objects
        // may share one slot, and it is the slots that are locked. ObjRef
        // breaks ties so the order stays total and deterministic. The order
        // lives in the core's pooled scratch; `sort_unstable` because a
        // stable sort allocates its merge buffer (keys are distinct, so the
        // result is identical).
        {
            let TxnCore { spans, order, .. } = &mut self.core;
            order.clear();
            order.extend(0..spans.len());
            order.sort_unstable_by_key(|&i| {
                let r = spans[i].obj;
                (heap.slot_of(r), r)
            });
        }
        for k in 0..self.core.order.len() {
            let r = self.core.spans[self.core.order[k]].obj;
            if self.core.owns(r) {
                continue;
            }
            // `Acquired::Private` ⇒ still private ⇒ still ours alone; no
            // lock needed. `Held` ⇒ the slot is now ours.
            if let Err(abort) = self.core.acquire_for_write(
                r,
                heap.obj(r),
                ConflictSite::TxnCommit,
                CostKind::TxnCommitEntry,
            ) {
                self.core.restore_owned();
                self.abort();
                return Err(abort);
            }
        }

        if let Err(abort) = self.core.validate_for_commit() {
            // No memory was written: restore the exact prior words so
            // versions do not change.
            self.core.restore_owned();
            self.abort();
            return Err(abort);
        }

        // Logically committed (serialized) here.
        self.heap().hit(SyncPoint::LazyAfterValidate);

        // Write-back: one buffered span at a time. The paper only promises
        // "no particular order" (§2.3); we fix heap-address order so runs
        // are deterministic — which is also an order that exposes the
        // publication-before-initialization flavour of memory inconsistency
        // (a root holding the publishing reference usually has a lower
        // address than the freshly allocated object it publishes).
        {
            let TxnCore { spans, order, .. } = &mut self.core;
            order.sort_unstable_by_key(|&i| (spans[i].obj, spans[i].base));
        }
        for k in 0..self.core.order.len() {
            let e = self.core.spans[self.core.order[k]];
            self.heap().hit(SyncPoint::LazyBeforeWritebackEntry);
            let obj = heap.obj(e.obj);
            let publishing = heap.config.dea && !heap.is_private(e.obj);
            for i in 0..e.len as usize {
                let field = e.base as usize + i;
                if publishing && heap.field_is_ref(e.obj, field) {
                    dea::publish_word(heap, e.vals[i]);
                }
                charge(CostKind::TxnCommitEntry);
                obj.field(field).store(e.vals[i], Ordering::Release);
            }
            self.heap().hit(SyncPoint::LazyMidWriteback);
        }
        self.heap().hit(SyncPoint::LazyAfterWriteback);

        // Install multiversion entries while still exclusive, so wait-free
        // readers cannot miss this commit; the release loop then stamps
        // every written guard with the drawn write version. The lazy span
        // log holds the new values (no pre-images survive write-back), so
        // it seeds nothing.
        self.core.mv_publish_owned(false);
        self.core.release_owned(false, false);
        self.core.finish_commit();
        Ok(())
    }

    /// Whether this attempt asked to be re-executed as read-write.
    pub(crate) fn ro_demoted(&self) -> bool {
        self.core.ro_demoted()
    }

    /// Aborts: buffers are simply dropped; shared memory was never touched.
    pub(crate) fn abort(&mut self) {
        self.core.finish_abort();
    }

    /// This attempt's contention telemetry.
    pub(crate) fn telemetry(&self) -> TxnTelemetry {
        self.core.telemetry()
    }

    pub(crate) fn read_snapshot(&self) -> Vec<(ObjRef, RecWord)> {
        self.core.read_snapshot()
    }

    pub(crate) fn savepoint(&self) -> LazySavePoint {
        LazySavePoint {
            mark: self.core.mark(),
            spans: self.core.spans.clone(),
            index: self.core.span_index.clone(),
        }
    }

    pub(crate) fn rollback_to(&mut self, sp: LazySavePoint) {
        self.core.spans = sp.spans;
        self.core.span_index = sp.index;
        self.core.rollback_to_mark(sp.mark);
    }

    pub(crate) fn push_on_abort(&mut self, h: Box<dyn FnOnce() + 'h>) {
        self.core.push_on_abort(h);
    }

    pub(crate) fn push_on_commit(&mut self, h: Box<dyn FnOnce() + 'h>) {
        self.core.push_on_commit(h);
    }
}

impl std::fmt::Debug for LazyTxn<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (reads, _owned) = self.core.debug_counts();
        f.debug_struct("LazyTxn")
            .field("owner", &self.core.owner)
            .field("reads", &reads)
            .field("buffered", &self.core.spans.len())
            .finish()
    }
}
