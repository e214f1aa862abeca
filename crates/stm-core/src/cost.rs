//! Virtual-time cost hooks.
//!
//! The scalability experiments (paper Figures 18–20) were run on a 16-way
//! multiprocessor; this reproduction runs on a single CPU and instead drives
//! the *same* STM state machine from a discrete-event simulated
//! multiprocessor (`simsched`). The simulator installs a thread-local
//! [`CostHook`]; every interesting STM operation reports a [`CostKind`]
//! through [`charge`], which the simulator converts into virtual cycles and
//! scheduling points. When no hook is installed (normal native execution)
//! `charge` is a single thread-local flag load.

use std::cell::{Cell, RefCell};
use std::sync::Arc;

/// Categories of chargeable STM work. The simulator maps each to a cycle
/// cost; the defaults in `simsched::costs` are calibrated so that the ratio
/// of barrier cost to plain access matches the paper's measured overheads
/// (write barriers dominated by one atomic RMW, read barriers by two extra
/// loads and a compare).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum CostKind {
    /// An unbarriered (weak) heap read.
    PlainRead,
    /// An unbarriered (weak) heap write.
    PlainWrite,
    /// Non-transactional read barrier, slow (public) path.
    BarrierRead,
    /// Non-transactional write barrier, slow (public) path: one atomic RMW
    /// to acquire plus one to release.
    BarrierWrite,
    /// Barrier that took the DEA private fast path.
    BarrierPrivateFast,
    /// Entry/exit bookkeeping of an aggregated barrier (amortized acquire).
    BarrierAggregated,
    /// Transactional open-for-read (read-set logging).
    TxnOpenRead,
    /// Transactional open-for-write (CAS acquire + undo/buffer logging).
    TxnOpenWrite,
    /// Per-read-set-entry commit validation work.
    TxnValidateEntry,
    /// Per-write-set-entry commit release / write-back work.
    TxnCommitEntry,
    /// Fixed transaction begin cost.
    TxnBegin,
    /// Fixed transaction commit cost.
    TxnCommit,
    /// Abort and rollback (per undo entry charged via `TxnCommitEntry`).
    TxnAbort,
    /// One conflict-manager backoff iteration.
    Backoff,
    /// Lock acquire in the lock-based baseline.
    LockAcquire,
    /// Lock release in the lock-based baseline.
    LockRelease,
    /// Application-level unit of work (charged by workloads directly).
    AppWork(u32),
    /// Publication of one object by `publishObject`.
    Publish,
}

/// Receiver for cost events; implemented by the simulator.
pub trait CostHook: Send + Sync {
    /// Charge the current virtual thread for `kind`.
    fn charge(&self, kind: CostKind);
    /// A point at which the current virtual thread may be descheduled while
    /// it waits for other threads to make progress (conflict-manager and
    /// quiescence loops call this instead of spinning hot).
    fn backoff_wait(&self, attempt: u32);
}

thread_local! {
    static HOOK: RefCell<Option<Arc<dyn CostHook>>> = const { RefCell::new(None) };
    /// Whether [`HOOK`] holds a hook; kept in step by [`set_thread_hook`]
    /// so the unhooked [`charge`] never touches the `RefCell`.
    static HOOKED: Cell<bool> = const { Cell::new(false) };
}

/// Installs `hook` as the current thread's cost sink, returning the previous
/// one. The simulator installs a hook in every virtual thread it hosts.
pub fn set_thread_hook(hook: Option<Arc<dyn CostHook>>) -> Option<Arc<dyn CostHook>> {
    HOOKED.with(|f| f.set(hook.is_some()));
    HOOK.with(|h| std::mem::replace(&mut *h.borrow_mut(), hook))
}

/// True if the current thread has a cost hook installed.
pub fn has_hook() -> bool {
    HOOKED.with(Cell::get)
}

/// Reports `kind` to the current thread's hook, if any.
#[inline]
pub fn charge(kind: CostKind) {
    if HOOKED.with(Cell::get) {
        charge_hook(kind);
    }
}

/// Out of line so the unhooked [`charge`] stays a flag test when inlined.
#[inline(never)]
fn charge_hook(kind: CostKind) {
    HOOK.with(|h| {
        if let Some(hook) = h.borrow().as_ref() {
            hook.charge(kind);
        }
    });
}

/// Cooperative wait: lets the simulator advance virtual time (or, natively,
/// spin-loops with an OS yield after a few attempts). Like [`charge`], the
/// unhooked path tests the flag and never borrows the hook's `RefCell`.
#[inline]
pub fn backoff_wait(attempt: u32) {
    if !(HOOKED.with(Cell::get) && backoff_hook(attempt)) {
        if attempt < 4 {
            std::hint::spin_loop();
        } else if attempt < 16 {
            std::thread::yield_now();
        } else {
            // Exponential but bounded: conflicts resolve in microseconds.
            let us = 1u64 << (attempt.min(24) / 4);
            std::thread::sleep(std::time::Duration::from_micros(us.min(256)));
        }
    }
}

/// Out of line, like [`charge_hook`]. Returns whether a hook took the wait.
#[inline(never)]
fn backoff_hook(attempt: u32) -> bool {
    HOOK.with(|h| match h.borrow().as_ref() {
        Some(hook) => {
            hook.backoff_wait(attempt);
            true
        }
        None => false,
    })
}

/// Runs `f` with `hook` installed, restoring the previous hook afterwards
/// (even on panic).
pub fn with_hook<R>(hook: Arc<dyn CostHook>, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<Arc<dyn CostHook>>);
    impl Drop for Restore {
        fn drop(&mut self) {
            set_thread_hook(self.0.take());
        }
    }
    let _restore = Restore(set_thread_hook(Some(hook)));
    f()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[derive(Default)]
    struct Counting {
        charges: AtomicU64,
        waits: AtomicU64,
    }
    impl CostHook for Counting {
        fn charge(&self, _kind: CostKind) {
            self.charges.fetch_add(1, Ordering::Relaxed);
        }
        fn backoff_wait(&self, _attempt: u32) {
            self.waits.fetch_add(1, Ordering::Relaxed);
        }
    }

    #[test]
    fn hook_receives_charges() {
        let hook = Arc::new(Counting::default());
        with_hook(hook.clone(), || {
            charge(CostKind::PlainRead);
            charge(CostKind::BarrierWrite);
            backoff_wait(0);
        });
        assert_eq!(hook.charges.load(Ordering::Relaxed), 2);
        assert_eq!(hook.waits.load(Ordering::Relaxed), 1);
        // Uninstalled after with_hook.
        assert!(!has_hook());
        charge(CostKind::PlainRead);
        assert_eq!(hook.charges.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn hook_restored_on_panic() {
        let hook = Arc::new(Counting::default());
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            with_hook(hook.clone(), || panic!("boom"));
        }));
        assert!(r.is_err());
        assert!(!has_hook());
    }

    #[test]
    fn native_backoff_terminates() {
        for attempt in 0..32 {
            backoff_wait(attempt);
        }
    }
}
