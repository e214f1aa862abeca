//! Crash-safety litmus tests: a transaction that *dies* (panics) while
//! holding a record in `Exclusive` state, observed by non-transactional
//! barrier traffic.
//!
//! Three regimes, three outcomes:
//!
//! * **panic-safe rollback** (the default) — the runner rolls the attempt
//!   back before the unwind resumes, so the record is released immediately
//!   and barriers never notice;
//! * **rollback off, watchdog on** — the record is stranded, but a barrier
//!   that exceeds its spin budget finds the owner dead in its registry
//!   slot, replays the mirrored undo log, and releases the record itself;
//! * **both off** — the classic failure the paper's protocol assumes away:
//!   the record stays `Exclusive` forever, every barrier wedges, and only
//!   [`Heap::audit`] tells you why.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;
use stm_core::audit::AuditFinding;
use stm_core::barrier::{read_barrier, write_barrier};
use stm_core::config::{StmConfig, Versioning};
use stm_core::heap::{FieldDef, Heap, ObjRef, Shape};
use stm_core::txn::atomic;
use stm_core::watchdog::WatchdogConfig;

/// Pre-crash value of the victim field; the crashing writer overwrites it
/// in place (eager versioning) before dying.
const INITIAL: u64 = 7;

/// Builds an eager heap with one public two-field object holding
/// [`INITIAL`], under the given crash-safety switches.
fn crash_world(panic_safety: bool, watchdog: WatchdogConfig) -> (Arc<Heap>, ObjRef) {
    let heap = Heap::new(StmConfig {
        versioning: Versioning::Eager,
        granularity: crate::harness::current_conflict_granularity(),
        panic_safety,
        watchdog,
        ..StmConfig::default()
    });
    let s = heap.define_shape(Shape::new(
        "Victim",
        vec![FieldDef::int("n"), FieldDef::int("side")],
    ));
    let o = heap.alloc_public(s);
    heap.write_raw(o, 0, INITIAL);
    (heap, o)
}

/// Runs a transaction on its own thread that acquires `o`, writes 99 over
/// [`INITIAL`] in place, and panics while still holding the record. Joins
/// the thread (observing its panic) before returning, so the caller sees
/// the post-crash heap.
fn crash_owner(heap: &Arc<Heap>, o: ObjRef) {
    let heap = Arc::clone(heap);
    let owner = std::thread::spawn(move || {
        let _ = catch_unwind(AssertUnwindSafe(|| {
            atomic(&heap, |tx| {
                tx.write(o, 0, 99)?;
                if tx.read(o, 0)? == 99 {
                    panic!("simulated crash while holding the record");
                }
                Ok(())
            })
        }));
    });
    owner.join().expect("the panic was caught inside the crashing thread");
}

/// Runs `f` on a fresh thread and waits at most `timeout` for its result;
/// `None` means the thread is (still) wedged. The thread is detached on
/// timeout — deliberately leaked, exactly like the real stuck waiter it
/// models.
fn with_deadline<T: Send + 'static>(
    timeout: Duration,
    f: impl FnOnce() -> T + Send + 'static,
) -> Option<T> {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    rx.recv_timeout(timeout).ok()
}

/// Regime 1: panic-safe rollback releases the record before the unwind
/// leaves the runner; barriers proceed instantly and the heap audits clean.
pub fn panic_safe_rollback_releases_record() {
    let (heap, o) = crash_world(true, WatchdogConfig::default());
    crash_owner(&heap, o);

    assert!(heap.record_version(o).is_some(), "record back in Shared state");
    assert_eq!(heap.read_raw(o, 0), INITIAL, "in-place write rolled back");
    assert_eq!(read_barrier(&heap, o, 0), INITIAL, "barrier sees the restored value");
    write_barrier(&heap, o, 1, 5);
    assert_eq!(heap.read_raw(o, 1), 5);

    let snap = heap.stats_snapshot();
    assert_eq!(snap.panic_rollbacks, 1);
    assert_eq!(snap.orphan_reclaims, 0, "nothing left for the watchdog");
    heap.audit().assert_clean();
}

/// Regime 2: rollback disabled, watchdog enabled. The record is stranded by
/// the dead owner; barrier traffic exceeds its spin budget, reclaims the
/// orphan (replaying the mirrored undo log), and completes.
pub fn watchdog_unblocks_barriers_after_crash() {
    let (heap, o) = crash_world(false, WatchdogConfig { enabled: true, spin_budget: 16 });
    crash_owner(&heap, o);

    assert!(
        heap.record_version(o).is_none(),
        "with rollback off the record is stranded Exclusive"
    );
    assert_eq!(heap.read_raw(o, 0), 99, "the speculative write is still in place");

    // A non-transactional read must not hang: the watchdog reclaims the
    // orphan and the barrier observes the *pre-crash* value.
    let h = Arc::clone(&heap);
    let r = with_deadline(Duration::from_secs(10), move || read_barrier(&h, o, 0));
    assert_eq!(r, Some(INITIAL), "read barrier unblocked with the rolled-back value");

    // And a write barrier on the (now released) record works too.
    let h = Arc::clone(&heap);
    let w = with_deadline(Duration::from_secs(10), move || write_barrier(&h, o, 1, 5));
    assert_eq!(w, Some(()), "write barrier unblocked");
    assert_eq!(heap.read_raw(o, 1), 5);

    let snap = heap.stats_snapshot();
    assert_eq!(snap.panic_rollbacks, 0, "rollback was off");
    assert!(snap.orphan_reclaims >= 1, "the watchdog released the record");
    assert!(snap.watchdog_escalations >= 1, "a spin site escalated");
    heap.audit().assert_clean();
}

/// Regime 3 (regression): with panic-safe rollback AND the watchdog both
/// disabled, the crash strands the record forever — a barrier wedges, and
/// the auditor reports the orphan.
pub fn crash_strands_record_without_safeguards() {
    let (heap, o) = crash_world(false, WatchdogConfig { enabled: false, spin_budget: 16 });
    crash_owner(&heap, o);

    assert!(heap.record_version(o).is_none(), "record stranded Exclusive");
    assert_eq!(heap.read_raw(o, 0), 99, "speculative write never undone");

    // The reader is still spinning when the deadline expires; the thread is
    // leaked on purpose (it can never finish).
    let h = Arc::clone(&heap);
    let r = with_deadline(Duration::from_millis(200), move || read_barrier(&h, o, 0));
    assert_eq!(r, None, "the barrier is wedged with no safeguard to free it");

    // The stranded record is an object header under per-object granularity
    // and a stripe slot under the striped table; the auditor names it either
    // way.
    let report = heap.audit();
    assert!(
        report.findings.iter().any(|f| matches!(
            f,
            AuditFinding::OrphanExclusive { .. } | AuditFinding::StripeExclusive { .. }
        )),
        "auditor must name the stranded record: {report}"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn panic_safe_rollback_releases() {
        panic_safe_rollback_releases_record();
    }

    #[test]
    fn watchdog_reclaims_orphan() {
        watchdog_unblocks_barriers_after_crash();
    }

    #[test]
    fn unprotected_crash_strands_record() {
        crash_strands_record_without_safeguards();
    }
}
