//! Commit-time quiescence (paper §3.4).
//!
//! Quiescence gives *partial* isolation/ordering guarantees without
//! non-transactional barriers: a completing transaction waits until every
//! other in-flight transaction has reached a consistent state — for an
//! eager STM, until doomed transactions that may have observed the
//! committer's data can no longer act on it; for a lazy STM, until
//! previously serialized transactions have finished applying their updates.
//! This handles the privatization idiom of paper Figure 1 (and Figure 4(b)),
//! but *not* the general anomalies (speculative dirty reads, memory
//! inconsistency) — a distinction the litmus suite demonstrates.
//!
//! Quiescence tracks transaction *slots*, not records, so it is agnostic to
//! [`crate::config::Granularity`]: waiting out in-flight transactions works
//! identically over per-object and striped record tables.

use crate::contention::{resolve, ConflictSite};
use crate::heap::Heap;
use crate::syncpoint::SyncPoint;
use crate::txn::token_is_active;
use std::sync::atomic::Ordering;

/// Marks the slot at `idx` finished (at a fresh serialization point) and,
/// on commit, waits until every other active transaction has reached a
/// consistent state at or after that point.
///
/// Consistent states are announced through `TxnSlot::vserial`: transactions
/// bump it at begin, successful validation, commit, and abort. Progress
/// therefore relies on in-flight transactions eventually reaching one of
/// those events — the same assumption the quiescence literature makes
/// (long-running transactions should call `Txn::validate` periodically).
///
/// The committer walks the registry *in place* — slot table entries have
/// stable addresses, so this takes no lock and clones nothing. Slots
/// appended concurrently with the walk belong to transactions that began
/// after our serialization point (their `vserial` starts at a begin serial
/// `>= s` only if they started after us; if below `s`, they are waited out
/// like any other laggard), so visiting a prefix is sound and visiting a
/// concurrent append is harmless.
///
/// `wait_cap` bounds the committer-side wait in rounds (the remainder of a
/// [`crate::config::TxnPolicy::deadline`]): the commit itself is past its
/// serialization point and *stands* regardless — a spent cap stops the
/// residual ordering wait, it never aborts. `None` waits unbounded (the
/// historical behaviour).
pub(crate) fn finish_and_quiesce(heap: &Heap, idx: usize, committed: bool, wait_cap: Option<u32>) {
    let s = heap.serial.fetch_add(1, Ordering::AcqRel) + 1;
    let slot = heap.txn_slot(idx);
    slot.vserial.store(s, Ordering::Release);
    slot.active.store(false, Ordering::Release);
    if !committed {
        return;
    }
    heap.hit(SyncPoint::QuiesceStart);
    let mut waited = false;
    let mut attempt = 0u32;
    'slots: for (i, other) in heap.registry.iter() {
        if i == idx {
            continue;
        }
        while other.active.load(Ordering::Acquire) && other.vserial.load(Ordering::Acquire) < s {
            // A committer whose deadline remainder is spent stops waiting:
            // the caller traded residual ordering strength for progress.
            if wait_cap.is_some_and(|cap| attempt >= cap) {
                break 'slots;
            }
            // A slot whose owner died mid-flight (panic with panic safety
            // off) will never reach another consistent state; its doomed
            // reads can no longer be acted on, so the committer skips it.
            // "Dead" here means *not registered alive*: a reclaimed owner is
            // retired, and waiting on its slot would hang forever. Live
            // owners are never mistaken for dead ones because the slot
            // registers its owner alive before it is marked active.
            let (ow, live) = other.holder();
            if heap.config.watchdog.enabled && !live {
                break;
            }
            // A slot owned by an *enclosing* transaction of this thread
            // (open nesting) is suspended beneath us on the same stack: it
            // cannot reach a consistent state until we return, so waiting
            // on it is a self-deadlock. It is not concurrent — it resumes
            // only after this commit completes — so skipping it preserves
            // the quiescence guarantee.
            if ow != 0 && token_is_active(ow) {
                break;
            }
            if !waited {
                heap.stats.quiescence_wait();
                waited = true;
            }
            // Quiescence cannot abort — the committer has already won; the
            // contention manager only shapes how hard it spins.
            let _ = resolve(heap, ConflictSite::Quiesce, None, None, &mut attempt);
        }
    }
    if attempt > 0 {
        heap.stats.record_wait_span(attempt);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::StmConfig;
    use std::sync::Arc;

    #[test]
    fn abort_does_not_wait() {
        let heap = Heap::new(StmConfig { quiescence: true, ..StmConfig::default() });
        let (mine, _) = heap.claim_txn_slot(0, 0);
        // Another transaction is active and behind — an abort must not wait
        // for it.
        let _other = heap.claim_txn_slot(0, 0);
        finish_and_quiesce(&heap, mine, false, None);
        assert!(!heap.txn_slot(mine).active.load(Ordering::Acquire));
        assert_eq!(heap.stats().snapshot().quiescence_waits, 0);
    }

    #[test]
    fn commit_waits_for_lagging_txn() {
        let heap = Heap::new(StmConfig { quiescence: true, ..StmConfig::default() });
        let (mine, _) = heap.claim_txn_slot(0, 0);
        let (other, _) = heap.claim_txn_slot(0, 0);

        let heap2 = Arc::clone(&heap);
        let committer = std::thread::spawn(move || {
            finish_and_quiesce(&heap2, mine, true, None);
        });
        std::thread::sleep(std::time::Duration::from_millis(30));
        assert!(!committer.is_finished(), "committer must quiesce-wait");
        // The lagging transaction reaches a consistent state.
        heap.txn_slot(other)
            .vserial
            .store(heap.serial.load(Ordering::Acquire) + 1, Ordering::Release);
        committer.join().unwrap();
        assert!(heap.stats().snapshot().quiescence_waits > 0);
    }

    #[test]
    fn commit_wait_is_bounded_by_the_deadline_remainder() {
        // A lagging transaction never reaches a consistent state, but the
        // committer carries a wait cap: it stops waiting (the commit stands)
        // instead of hanging forever.
        let heap = Heap::new(StmConfig { quiescence: true, ..StmConfig::default() });
        let (mine, _) = heap.claim_txn_slot(0, 0);
        let _laggard = heap.claim_txn_slot(0, 0);
        finish_and_quiesce(&heap, mine, true, Some(3));
        assert!(!heap.txn_slot(mine).active.load(Ordering::Acquire));
        assert!(heap.stats().snapshot().quiescence_waits > 0, "it did wait first");
    }

    #[test]
    fn commit_skips_inactive_slots() {
        let heap = Heap::new(StmConfig { quiescence: true, ..StmConfig::default() });
        let (mine, _) = heap.claim_txn_slot(0, 0);
        let (other, _) = heap.claim_txn_slot(0, 0);
        heap.txn_slot(other).active.store(false, Ordering::Release);
        finish_and_quiesce(&heap, mine, true, None); // returns immediately
    }

    #[test]
    fn commit_skips_dead_owner_slots() {
        let heap = Heap::new(StmConfig { quiescence: true, ..StmConfig::default() });
        let (mine, _) = heap.claim_txn_slot(0, 0);
        // Another transaction is active, behind, and its owner has died
        // without deactivating the slot — the committer must not wait on it.
        let (other, dead) = heap.claim_txn_slot(0, 0);
        heap.owner_vanished(dead.word());
        assert!(heap.owner_dead(dead.word()));
        finish_and_quiesce(&heap, mine, true, None); // returns immediately
        assert!(
            heap.txn_slot(other).active.load(Ordering::Acquire),
            "slot untouched"
        );
    }

    #[test]
    fn commit_skips_retired_owner_slots() {
        // An owner retired while its slot still reads active — the state a
        // reclaimer passes through — is not alive; the committer must skip
        // its stale slot rather than hang.
        let heap = Heap::new(StmConfig { quiescence: true, ..StmConfig::default() });
        let (mine, _) = heap.claim_txn_slot(0, 0);
        let (other, gone) = heap.claim_txn_slot(0, 0);
        heap.txn_slot(other).retire(gone);
        finish_and_quiesce(&heap, mine, true, None); // returns immediately
        assert!(heap.txn_slot(other).active.load(Ordering::Acquire));
    }
}
