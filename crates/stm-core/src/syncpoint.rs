//! Deterministic interleaving control for anomaly litmus tests.
//!
//! The weak-atomicity anomalies of paper §2 occur only under *specific*
//! interleavings of transactional and non-transactional code (e.g. a
//! non-transactional read landing between a transaction's speculative write
//! and its rollback). To reproduce each anomaly deterministically, the STM
//! internals announce named [`SyncPoint`]s; a test installs a [`Script`] — a
//! total order of `(actor, point)` steps — on the heap, and each thread
//! registers an [`ActorId`]. A thread reaching a scripted point blocks until
//! every earlier step of the script has executed.
//!
//! When no script is installed (all production use), the announcement is a
//! single relaxed atomic load.

use parking_lot::{Condvar, Mutex};
use std::cell::Cell;
use std::collections::VecDeque;
use std::time::Duration;

/// Named locations inside the STM protocols where a script may interpose.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum SyncPoint {
    /// A transaction is about to begin (or re-begin after abort).
    TxnBegin,
    /// Eager STM: immediately after an in-place speculative write.
    EagerAfterWrite,
    /// Eager STM: after commit-time validation succeeded, before locks are
    /// released.
    EagerAfterValidate,
    /// Eager STM: validation failed / abort decided, before undo rollback.
    EagerBeforeRollback,
    /// Eager STM: rollback complete, locks released.
    EagerAfterRollback,
    /// Lazy STM: a write was buffered (no shared memory touched).
    LazyAfterBuffer,
    /// Lazy STM: commit validated and serialized; write-back has not started.
    /// This is the window in which the paper's memory-inconsistency (MI)
    /// anomalies are visible.
    LazyAfterValidate,
    /// Lazy STM: about to write back one buffered entry (the entry's values
    /// have not reached shared memory yet).
    LazyBeforeWritebackEntry,
    /// Lazy STM: one buffered entry was written back (mid write-back).
    LazyMidWriteback,
    /// Lazy STM: write-back finished, locks released.
    LazyAfterWriteback,
    /// A transaction committed (all policies), after all release work.
    TxnCommitted,
    /// Non-transactional write barrier acquired the record, before the data
    /// write.
    BarrierWriteAcquired,
    /// Non-transactional access completed (read value returned / write
    /// released).
    NonTxnAccessDone,
    /// A plain (weak, unbarriered) non-transactional access is about to run.
    PlainAccess,
    /// Quiescence wait is about to start.
    QuiesceStart,
    /// Timestamp extension begins: a transactional read observed a version
    /// newer than the snapshot `rv` and has been logged; the clock has not
    /// been healed or re-sampled.
    TxnExtendBegin,
    /// Timestamp extension healed the clock past the observed version and
    /// is about to re-sample `rv` and revalidate the read set.
    TxnExtendHealed,
    /// Free-form point for tests and workloads.
    User(u32),
}

/// Identifies a scripted thread. Register with [`set_actor`].
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct ActorId(pub u32);

thread_local! {
    static ACTOR: Cell<Option<ActorId>> = const { Cell::new(None) };
}

/// Registers the calling thread under `actor` for script matching; returns
/// the previous registration.
pub fn set_actor(actor: Option<ActorId>) -> Option<ActorId> {
    ACTOR.with(|a| a.replace(actor))
}

/// The calling thread's actor registration.
pub fn current_actor() -> Option<ActorId> {
    ACTOR.with(|a| a.get())
}

/// Runs `f` with the thread registered as `actor`, restoring the previous
/// registration afterwards.
pub fn as_actor<R>(actor: ActorId, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<ActorId>);
    impl Drop for Restore {
        fn drop(&mut self) {
            set_actor(self.0.take());
        }
    }
    let _restore = Restore(set_actor(Some(actor)));
    f()
}

/// A totally ordered interleaving script.
///
/// Semantics at a point `p` hit by actor `a`:
/// * if the remaining script contains no `(a, p)` step, the thread passes
///   straight through;
/// * otherwise the thread blocks until `(a, p)` is the *head* of the script,
///   consumes it, and wakes everyone else.
///
/// Steps for the same `(actor, point)` pair may repeat (loops); the first
/// remaining occurrence is the one matched.
#[derive(Debug)]
pub struct Script {
    steps: Mutex<VecDeque<(ActorId, SyncPoint)>>,
    cond: Condvar,
    timeout: Duration,
}

impl Script {
    /// Builds a script from `(actor, point)` steps in execution order.
    pub fn new(steps: impl IntoIterator<Item = (ActorId, SyncPoint)>) -> Self {
        Script {
            steps: Mutex::new(steps.into_iter().collect()),
            cond: Condvar::new(),
            timeout: Duration::from_secs(10),
        }
    }

    /// Overrides the deadlock-detection timeout (default 10s).
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = timeout;
        self
    }

    /// Number of unexecuted steps.
    pub fn remaining(&self) -> usize {
        self.steps.lock().len()
    }

    /// Announce that `actor` reached `point`; blocks per the script.
    ///
    /// # Panics
    /// Panics if the script deadlocks (the step never becomes the head
    /// within the timeout) — this indicates a bug in the test's script, and
    /// panicking beats hanging the suite.
    pub fn hit(&self, actor: ActorId, point: SyncPoint) {
        let mut steps = self.steps.lock();
        if !steps.iter().any(|s| *s == (actor, point)) {
            return;
        }
        loop {
            if steps.front() == Some(&(actor, point)) {
                steps.pop_front();
                self.cond.notify_all();
                return;
            }
            if self
                .cond
                .wait_for(&mut steps, self.timeout)
                .timed_out()
            {
                panic!(
                    "syncpoint script deadlock: actor {actor:?} stuck at {point:?}, \
                     head is {:?}, {} steps remain",
                    steps.front(),
                    steps.len()
                );
            }
        }
    }

    /// Blocks the caller until the whole script has executed.
    pub fn wait_all_done(&self) {
        let mut steps = self.steps.lock();
        while !steps.is_empty() {
            if self
                .cond
                .wait_for(&mut steps, self.timeout)
                .timed_out()
            {
                panic!(
                    "syncpoint script did not complete: {} steps remain, head {:?}",
                    steps.len(),
                    steps.front()
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn unscripted_points_pass_through() {
        let s = Script::new([(ActorId(1), SyncPoint::TxnBegin)]);
        // Actor 2 is not in the script at all.
        s.hit(ActorId(2), SyncPoint::TxnBegin);
        // Actor 1 at a different point is not in the script.
        s.hit(ActorId(1), SyncPoint::TxnCommitted);
        assert_eq!(s.remaining(), 1);
    }

    #[test]
    fn enforces_total_order() {
        let a = ActorId(1);
        let b = ActorId(2);
        let script = Arc::new(Script::new([
            (a, SyncPoint::User(1)),
            (b, SyncPoint::User(2)),
            (a, SyncPoint::User(3)),
        ]));
        let order = Arc::new(Mutex::new(Vec::new()));

        let t1 = {
            let (s, o) = (script.clone(), order.clone());
            std::thread::spawn(move || {
                s.hit(a, SyncPoint::User(1));
                o.lock().push(1);
                s.hit(a, SyncPoint::User(3));
                o.lock().push(3);
            })
        };
        let t2 = {
            let (s, o) = (script.clone(), order.clone());
            std::thread::spawn(move || {
                s.hit(b, SyncPoint::User(2));
                o.lock().push(2);
            })
        };
        t1.join().unwrap();
        t2.join().unwrap();
        // Step 2 must have been enabled only after step 1, and step 3 after
        // step 2; the post-hit pushes cannot be reordered *before* their
        // enabling hits.
        let o = order.lock().clone();
        assert_eq!(o.len(), 3);
        assert!(o.iter().position(|&x| x == 1) < o.iter().position(|&x| x == 2) || o[0] == 1);
        assert_eq!(script.remaining(), 0);
    }

    #[test]
    fn repeated_steps_match_in_order() {
        let a = ActorId(1);
        let s = Script::new([
            (a, SyncPoint::User(7)),
            (a, SyncPoint::User(7)),
        ]);
        s.hit(a, SyncPoint::User(7));
        assert_eq!(s.remaining(), 1);
        s.hit(a, SyncPoint::User(7));
        assert_eq!(s.remaining(), 0);
        // Third hit: no longer scripted, passes.
        s.hit(a, SyncPoint::User(7));
    }

    #[test]
    #[should_panic(expected = "deadlock")]
    fn deadlock_panics_not_hangs() {
        let s = Script::new([
            (ActorId(1), SyncPoint::User(1)),
            (ActorId(2), SyncPoint::User(2)),
        ])
        .with_timeout(Duration::from_millis(50));
        // Actor 2 hits its step while actor 1 never shows up.
        s.hit(ActorId(2), SyncPoint::User(2));
    }

    #[test]
    fn actor_registration_scoped() {
        assert_eq!(current_actor(), None);
        as_actor(ActorId(9), || {
            assert_eq!(current_actor(), Some(ActorId(9)));
        });
        assert_eq!(current_actor(), None);
    }
}
