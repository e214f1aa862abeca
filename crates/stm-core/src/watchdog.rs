//! Stuck-owner watchdog: liveness tracking and orphaned-record reclamation.
//!
//! The paper's protocol assumes every exclusive owner releases in bounded
//! time; a thread that dies (panics with panic-safe rollback disabled) while
//! holding a record in `Exclusive` state breaks that assumption and wedges
//! every waiter forever. This module restores bounded waiting:
//!
//! * every transaction attempt is registered in its slot of the heap's
//!   transaction registry, and its owner token *is* that slot's index plus
//!   the slot's generation — the paper's `Exclusive(owner)` word names the
//!   owner's descriptor directly, with no side table to look it up in;
//! * the slot carries the attempt's liveness (alive, dead, being
//!   reclaimed, retired) and a [`RecoveryLog`]: the eager engine mirrors its
//!   acquisitions and undo-log entries into it *before* touching shared
//!   memory, so the recovery data survives the owner's stack;
//! * the runner's token guard marks the owner **dead** if the attempt ends
//!   without a commit or abort (i.e. a panic unwound past it);
//! * any spin site that exceeds [`WatchdogConfig::spin_budget`] backoff
//!   rounds (virtual-time rounds under the [`crate::cost`] hooks) calls
//!   [`try_reclaim`] through [`crate::contention::resolve`]: records
//!   orphaned by a dead owner are rolled back from the mirrored undo log and
//!   released; waiters stuck on a live-but-slow owner escalate (counted in
//!   [`crate::stats::StatsSnapshot::watchdog_escalations`]) and, at
//!   abortable sites, self-abort.
//!
//! Reclamation is safe because a token names one attempt and is never
//! reissued (the next claim of the slot takes the next generation), and a
//! dead owner's records can never be released twice: the one reclaimer whose
//! CAS moves the slot from dead to reclaiming drains the recovery log, and
//! rivals wait for it to finish. A reclaimed slot is deactivated, so the
//! dead attempt's thread takes it up again for its next attempt.

use crate::cost::backoff_wait;
use crate::heap::{Heap, HolderState, ObjRef};
use crate::pipeline::SpanEntry;
use crate::txnrec::RecWord;
use std::sync::atomic::Ordering;

/// Stuck-owner watchdog configuration
/// ([`crate::config::StmConfig::watchdog`]).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct WatchdogConfig {
    /// Enables the recovery-log mirror and orphan reclamation.
    pub enabled: bool,
    /// Backoff rounds a single acquisition tolerates before consulting the
    /// holder's registry slot. Rounds are contention-manager waits, which run
    /// through the [`crate::cost`] hooks — under a simulated clock this is a
    /// virtual-time budget. The default (1024) sits above the longest wait
    /// any shipped contention policy produces with the default retry budget
    /// (karma's patience valve: 64 × 8 = 512 rounds), so the watchdog never
    /// second-guesses ordinary contention.
    pub spin_budget: u32,
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        WatchdogConfig { enabled: true, spin_budget: 1024 }
    }
}

/// The watchdog's mirror of one attempt's effects, kept in its registry
/// slot so that it survives the owner's stack. Only capacities survive from
/// one attempt to the next.
#[derive(Debug, Default)]
pub(crate) struct RecoveryLog {
    /// Records this owner acquired, with the shared word to restore-and-bump.
    owned: Vec<(ObjRef, RecWord)>,
    /// Mirrored undo log ([`SpanEntry`] — the same type the eager engine
    /// keeps privately, lifted to the heap), in append order.
    undo: Vec<SpanEntry>,
}

impl RecoveryLog {
    /// Mirrors an acquisition. Called by the owner before it stores to the
    /// acquired object, so the recovery data is never behind shared memory.
    pub(crate) fn note_acquired(&mut self, obj: ObjRef, prior: RecWord) {
        self.owned.push((obj, prior));
    }

    /// Mirrors an undo-log append (same ordering contract).
    pub(crate) fn note_undo(&mut self, entry: SpanEntry) {
        self.undo.push(entry);
    }

    /// Empties the log for the slot's next attempt, keeping its capacity.
    pub(crate) fn clear(&mut self) {
        self.owned.clear();
        self.undo.clear();
    }
}

/// Outcome of a reclamation attempt at a stuck spin site.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub(crate) enum ReclaimOutcome {
    /// The holder was dead; its writes were rolled back and its records
    /// released. The caller re-reads the record and proceeds.
    Reclaimed {
        /// Records released (0 if a concurrent reclaimer finished first).
        records: usize,
    },
    /// The holder is registered and alive — genuinely slow, not dead.
    OwnerAlive,
    /// The holder is not registered (already finished or reclaimed, or its
    /// token names no registry slot).
    Unknown,
}

/// Attempts to reclaim the records of the owner encoded in `holder` (which
/// a waiter observed in `Exclusive` state). Rolls the mirrored undo log
/// back in reverse order, then releases every owned record with a version
/// bump so optimistic readers of the speculative values fail validation.
pub(crate) fn try_reclaim(heap: &Heap, holder: RecWord) -> ReclaimOutcome {
    debug_assert!(holder.is_txn_exclusive());
    let word = holder.raw();
    let Some(slot) = heap.registry.owner_slot(word) else {
        return ReclaimOutcome::Unknown;
    };
    let mut waited = 0u32;
    loop {
        match slot.holder_state(word) {
            HolderState::Alive => return ReclaimOutcome::OwnerAlive,
            HolderState::Gone if waited > 0 => return ReclaimOutcome::Reclaimed { records: 0 },
            HolderState::Gone => return ReclaimOutcome::Unknown,
            // A rival reclaimer is draining the log: wait for it, as the
            // records are released once it is done.
            HolderState::Draining => {
                backoff_wait(waited);
                waited = waited.saturating_add(1);
            }
            HolderState::Dead => {
                if slot.begin_reclaim(word).is_ok() {
                    break;
                }
            }
        }
    }
    // SAFETY: `begin_reclaim` moved the dead owner to `RECLAIMING`, which
    // makes this thread the log's only accessor until `end_reclaim`.
    let records = unsafe { slot.with_log(|log| drain(heap, holder, log)) };
    slot.end_reclaim(word, true);
    ReclaimOutcome::Reclaimed { records }
}

/// Replays and empties a dead owner's recovery log; returns the number of
/// records released.
fn drain(heap: &Heap, holder: RecWord, log: &mut RecoveryLog) -> usize {
    while let Some(u) = log.undo.pop() {
        u.store_vals(heap, Ordering::Relaxed);
    }
    // One fresh clock tick covers the whole reclaim batch: the released
    // versions must exceed every running transaction's read version
    // (optimistic readers of the speculative values must fail validation,
    // and the commit-time revalidation skip must see the tick). Published
    // on mv heaps like every tick.
    let tick = if log.owned.is_empty() { 0 } else { heap.clock_tick() };
    let mut released_max = 0u64;
    let mut records = 0;
    for (r, prior) in log.owned.drain(..) {
        // The log mirrors acquisitions per guard *slot*, so this releases
        // each striped slot exactly once too.
        let guard = heap.guard(r, heap.obj(r));
        debug_assert_eq!(guard.load().raw(), holder.raw());
        let stamp = tick.max(prior.version() as u64 + 1);
        released_max = released_max.max(stamp);
        guard.release_txn_at(stamp as usize);
        heap.stats().orphan_reclaim();
        records += 1;
    }
    // A reclaim is an abort on the dead owner's behalf: under the
    // thread-local clock its stamps follow the GV5 abort rule and land in
    // the shared counter (see `TxnCore::release_owned`).
    if records > 0 && heap.config().clock == crate::config::ClockMode::ThreadLocal {
        heap.clock_advance_to(released_max);
    }
    if tick != 0 && heap.mv_enabled() {
        heap.clock_publish(tick);
    }
    records
}

/// Dead, unreclaimed owners: `(owner word, records still listed, undo
/// entries still listed)`. Non-empty at a quiescent moment means an orphan
/// was never reclaimed. Each log is read under the same dead-to-reclaiming
/// claim a reclaimer takes, then handed back unchanged.
pub(crate) fn dead_logs(heap: &Heap) -> Vec<(usize, usize, usize)> {
    let mut out = Vec::new();
    for (_, slot) in heap.registry.iter() {
        let (word, live) = slot.holder();
        if word == 0 || live || slot.begin_reclaim(word).is_err() {
            continue;
        }
        // SAFETY: `begin_reclaim` succeeded, so this thread is the log's
        // only accessor until `end_reclaim`.
        let (records, undo) = unsafe { slot.with_log(|log| (log.owned.len(), log.undo.len())) };
        slot.end_reclaim(word, false);
        out.push((word, records, undo));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::barrier::read_barrier;
    use crate::config::{StmConfig, Versioning};
    use crate::contention::ContentionPolicy;
    use crate::heap::{FieldDef, Shape};
    use crate::txn::atomic;
    use crate::txnrec::OwnerToken;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::Arc;

    fn heap_with_pair(config: StmConfig) -> (Arc<Heap>, ObjRef) {
        let heap = Heap::new(config);
        let s = heap.define_shape(Shape::new("Pair", vec![FieldDef::int("a"), FieldDef::int("b")]));
        let o = heap.alloc_public(s);
        (heap, o)
    }

    /// The token an attempt runs under, read back from the record it holds.
    fn holder_word(heap: &Heap, o: ObjRef) -> usize {
        let w = heap.guard(o, heap.obj(o)).load();
        assert!(w.is_txn_exclusive());
        w.raw()
    }

    #[test]
    fn a_finished_token_never_names_the_next_attempt_on_its_slot() {
        let (heap, o) =
            heap_with_pair(StmConfig::default().with_contention(ContentionPolicy::Karma));
        let mut seen = Vec::new();
        for i in 0..3u64 {
            atomic(&heap, |tx| {
                tx.write(o, 0, i)?;
                let word = holder_word(&heap, o);
                assert!(heap.owner_alive(word));
                assert!(heap.age_of_word(word).is_some(), "karma stores the ticket");
                seen.push((tx.quiescence_slot().unwrap(), word));
                Ok(())
            });
        }
        let (slot, first) = seen[0];
        assert!(seen.iter().all(|&(s, _)| s == slot), "one parked slot: {seen:?}");
        let (_, last) = seen[2];
        assert_ne!(first, last);
        assert_eq!(OwnerToken::from_word(last).slot(), slot);
        assert_eq!(
            OwnerToken::from_word(last).generation(),
            OwnerToken::from_word(first).generation() + 2,
            "each claim takes the next generation"
        );
        for &(_, word) in &seen {
            assert!(!heap.owner_alive(word));
            assert!(!heap.owner_dead(word));
            heap.owner_vanished(word);
            assert!(!heap.owner_dead(word), "a finished owner cannot be marked dead");
            assert_eq!(
                try_reclaim(&heap, RecWord::from_raw(word)),
                ReclaimOutcome::Unknown
            );
            assert_eq!(heap.age_of_word(word), None);
        }
        // A later attempt on the same slot is unaffected by the stale marks.
        atomic(&heap, |tx| {
            tx.write(o, 0, 9)?;
            let word = holder_word(&heap, o);
            assert_eq!(tx.quiescence_slot(), Some(slot));
            assert!(heap.owner_alive(word) && !heap.owner_dead(word));
            assert!(!seen.iter().any(|&(_, w)| w == word));
            Ok(())
        });
        heap.audit().assert_clean();
    }

    #[test]
    fn a_dead_owner_on_a_reused_slot_is_rolled_back() {
        let (heap, o) = heap_with_pair(StmConfig {
            versioning: Versioning::Eager,
            panic_safety: false,
            watchdog: crate::watchdog::WatchdogConfig { enabled: true, spin_budget: 16 },
            ..StmConfig::default()
        });
        heap.write_raw(o, 0, 7);
        let worker = Arc::clone(&heap);
        let (slots, dead_slot, dead) = std::thread::spawn(move || {
            let heap = worker;
            // Three clean attempts park and reuse one slot.
            let mut slots = Vec::new();
            for i in 0..3 {
                atomic(&heap, |tx| {
                    slots.push(tx.quiescence_slot().unwrap());
                    tx.write(o, 1, i)
                });
            }
            // The fourth dies on that same slot holding `o`, overwritten in
            // place.
            let mut dead = (0, 0);
            let crashed = catch_unwind(AssertUnwindSafe(|| {
                atomic::<()>(&heap, |tx| {
                    tx.write(o, 0, 99)?;
                    dead = (tx.quiescence_slot().unwrap(), holder_word(&heap, o));
                    panic!("simulated crash while holding the record");
                })
            }));
            assert!(crashed.is_err());
            (slots, dead.0, dead.1)
        })
        .join()
        .unwrap();
        assert!(slots.iter().all(|&s| s == dead_slot), "{slots:?} vs {dead_slot}");
        assert!(heap.owner_dead(dead));
        assert_eq!(heap.read_raw(o, 0), 99, "rollback was off");
        assert!(!heap.audit().is_clean(), "the stranded record is a finding");

        // A barrier spins past its budget, reclaims the orphan from the
        // slot's recovery log, and reads the pre-crash value.
        assert_eq!(read_barrier(&heap, o, 0), 7);
        assert_eq!(heap.read_raw(o, 1), 2, "committed writes stand");
        assert!(!heap.owner_dead(dead) && !heap.owner_alive(dead));
        assert_eq!(try_reclaim(&heap, RecWord::from_raw(dead)), ReclaimOutcome::Unknown);
        assert!(heap.stats_snapshot().orphan_reclaims >= 1);
        assert!(
            !heap.txn_slot(dead_slot).active.load(Ordering::Acquire),
            "a reclaimed slot is free for its thread's next attempt"
        );
        heap.audit().assert_clean();
    }
}
