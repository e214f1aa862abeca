//! Stuck-owner watchdog: liveness tracking and orphaned-record reclamation.
//!
//! The paper's protocol assumes every exclusive owner releases in bounded
//! time; a thread that dies (panics with panic-safe rollback disabled) while
//! holding a record in `Exclusive` state breaks that assumption and wedges
//! every waiter forever. This module restores bounded waiting:
//!
//! * every transaction attempt registers an [`OwnerDesc`] in the heap's
//!   liveness registry keyed by its owner-token word; the eager engine
//!   mirrors its acquisitions and undo-log entries into the descriptor
//!   *before* touching shared memory, so the recovery data survives the
//!   owner's stack;
//! * the runner's token guard marks the owner **dead** if the attempt ends
//!   without a commit or abort (i.e. a panic unwound past it);
//! * any spin site that exceeds [`WatchdogConfig::spin_budget`] backoff
//!   rounds (virtual-time rounds under the [`crate::cost`] hooks) consults
//!   the registry through [`crate::contention::resolve`]: records orphaned
//!   by a dead owner are rolled back from the mirrored undo log and
//!   released; waiters stuck on a live-but-slow owner escalate (counted in
//!   [`crate::stats::StatsSnapshot::watchdog_escalations`]) and, at
//!   abortable sites, self-abort.
//!
//! Reclamation is safe because owner tokens are process-unique and a dead
//! owner's records can never be released twice: the per-descriptor mutex
//! serializes competing reclaimers and the first one drains the recovery
//! log.

use crate::heap::{Heap, ObjRef};
use crate::pipeline::SpanEntry;
use crate::shardmap::ShardMap;
use crate::txnrec::{OwnerToken, RecWord};
use parking_lot::Mutex;
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Stuck-owner watchdog configuration
/// ([`crate::config::StmConfig::watchdog`]).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct WatchdogConfig {
    /// Enables the owner-liveness registry and orphan reclamation.
    pub enabled: bool,
    /// Backoff rounds a single acquisition tolerates before consulting the
    /// liveness registry. Rounds are contention-manager waits, which run
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

#[derive(Debug, Default)]
struct DescInner {
    /// Records this owner acquired, with the shared word to restore-and-bump.
    owned: Vec<(ObjRef, RecWord)>,
    /// Mirrored undo log ([`SpanEntry`] — the same type the eager engine
    /// keeps privately, lifted to the heap), in append order.
    undo: Vec<SpanEntry>,
}

/// A per-attempt owner descriptor shared between the owning transaction and
/// potential reclaimers.
#[derive(Debug)]
pub(crate) struct OwnerDesc {
    alive: AtomicBool,
    inner: Mutex<DescInner>,
}

impl OwnerDesc {
    /// Mirrors an acquisition. Called by the owner before it stores to the
    /// acquired object, so the recovery data is never behind shared memory.
    pub(crate) fn note_acquired(&self, obj: ObjRef, prior: RecWord) {
        self.inner.lock().owned.push((obj, prior));
    }

    /// Mirrors an undo-log append (same ordering contract).
    pub(crate) fn note_undo(&self, entry: SpanEntry) {
        self.inner.lock().undo.push(entry);
    }
}

/// Pool depth for retired descriptors (mirrors the scratch pool's depth:
/// open nesting keeps several attempts live on one thread).
const DESC_POOL_DEPTH: usize = 8;

thread_local! {
    /// Retired owner descriptors, reused by later attempts on this thread
    /// so steady-state liveness registration allocates nothing.
    static DESC_POOL: RefCell<Vec<Arc<OwnerDesc>>> = const { RefCell::new(Vec::new()) };
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
    /// The holder is not in the registry (already finished or reclaimed, or
    /// liveness tracking is off).
    Unknown,
}

/// The owner-liveness registry, one per heap. Sharded by owner word, so
/// register/deregister on distinct threads practically never contend — the
/// registry is on the begin/commit fast path whenever the watchdog is on.
#[derive(Debug, Default)]
pub(crate) struct Liveness {
    map: ShardMap<Arc<OwnerDesc>>,
}

impl Liveness {
    /// Registers a fresh, live owner and returns its descriptor (pooled
    /// when possible).
    pub(crate) fn register(&self, owner: OwnerToken) -> Arc<OwnerDesc> {
        let desc = DESC_POOL
            .try_with(|p| p.borrow_mut().pop())
            .ok()
            .flatten()
            .unwrap_or_else(|| {
                Arc::new(OwnerDesc {
                    alive: AtomicBool::new(true),
                    inner: Mutex::new(DescInner::default()),
                })
            });
        desc.alive.store(true, Ordering::Release);
        self.map.insert(owner.word(), Arc::clone(&desc));
        desc
    }

    /// Removes an owner that completed normally (commit or abort). The
    /// descriptor is pooled for reuse — but only if no reclaimer still
    /// holds a clone (a descriptor another thread can reach must never be
    /// handed to a fresh owner).
    pub(crate) fn deregister(&self, owner: OwnerToken) {
        if let Some(desc) = self.map.remove(owner.word()) {
            if Arc::strong_count(&desc) == 1 {
                {
                    let mut inner = desc.inner.lock();
                    inner.owned.clear();
                    inner.undo.clear();
                }
                let _ = DESC_POOL.try_with(move |p| {
                    let mut pool = p.borrow_mut();
                    if pool.len() < DESC_POOL_DEPTH {
                        pool.push(desc);
                    }
                });
            }
        }
    }

    /// Marks an owner dead. Called from the runner's token guard when an
    /// attempt unwinds without completing; tokens are never reused, so a
    /// dead mark can never apply to a later transaction.
    pub(crate) fn mark_dead(&self, owner_word: usize) {
        self.map.with(owner_word, |d| d.alive.store(false, Ordering::Release));
    }

    /// Whether `owner_word` is registered and known dead.
    pub(crate) fn is_dead(&self, owner_word: usize) -> bool {
        self.map
            .with(owner_word, |d| !d.alive.load(Ordering::Acquire))
            .unwrap_or(false)
    }

    /// Whether `owner_word` is registered and alive. Quiescence waits only
    /// on slots whose owner passes this — an owner that was reclaimed (and
    /// so *removed* from the registry) must read as not-alive, which
    /// `!is_dead` would get wrong.
    pub(crate) fn is_alive(&self, owner_word: usize) -> bool {
        self.map
            .with(owner_word, |d| d.alive.load(Ordering::Acquire))
            .unwrap_or(false)
    }

    /// Registered descriptors whose owner is dead:
    /// `(owner word, records still listed, undo entries still listed)`.
    /// Non-empty at a quiescent moment means an orphan was never reclaimed.
    pub(crate) fn dead_descriptors(&self) -> Vec<(usize, usize, usize)> {
        let mut out = Vec::new();
        self.map.for_each(|w, d| {
            if !d.alive.load(Ordering::Acquire) {
                let inner = d.inner.lock();
                out.push((w, inner.owned.len(), inner.undo.len()));
            }
        });
        out
    }

    /// Attempts to reclaim the records of the owner encoded in `holder`
    /// (which a waiter observed in `Exclusive` state). Rolls the mirrored
    /// undo log back in reverse order, then releases every owned record
    /// with a version bump so optimistic readers of the speculative values
    /// fail validation.
    pub(crate) fn try_reclaim(&self, heap: &Heap, holder: RecWord) -> ReclaimOutcome {
        debug_assert!(holder.is_txn_exclusive());
        let desc = match self.map.get(holder.raw()) {
            Some(d) => d,
            None => return ReclaimOutcome::Unknown,
        };
        if desc.alive.load(Ordering::Acquire) {
            return ReclaimOutcome::OwnerAlive;
        }
        let mut records = 0;
        {
            let mut inner = desc.inner.lock();
            while let Some(u) = inner.undo.pop() {
                u.store_vals(heap, Ordering::Relaxed);
            }
            // One fresh clock tick covers the whole reclaim batch: the
            // released versions must exceed every running transaction's
            // read version (optimistic readers of the speculative values
            // must fail validation, and the commit-time revalidation skip
            // must see the tick). Published on mv heaps like every tick.
            let tick = if inner.owned.is_empty() { 0 } else { heap.clock_tick() };
            let mut released_max = 0u64;
            for (r, prior) in inner.owned.drain(..) {
                // The descriptor mirrors acquisitions per guard *slot*, so
                // this releases each striped slot exactly once too.
                let guard = heap.guard(r, heap.obj(r));
                debug_assert_eq!(guard.load().raw(), holder.raw());
                let stamp = tick.max(prior.version() as u64 + 1);
                released_max = released_max.max(stamp);
                guard.release_txn_at(stamp as usize);
                heap.stats().orphan_reclaim();
                records += 1;
            }
            // A reclaim is an abort on the dead owner's behalf: under the
            // thread-local clock its stamps follow the GV5 abort rule and
            // land in the shared counter (see `TxnCore::release_owned`).
            if records > 0 && heap.config().clock == crate::config::ClockMode::ThreadLocal {
                heap.clock_advance_to(released_max);
            }
            if tick != 0 && heap.mv_enabled() {
                heap.clock_publish(tick);
            }
        }
        self.map.remove(holder.raw());
        ReclaimOutcome::Reclaimed { records }
    }
}
