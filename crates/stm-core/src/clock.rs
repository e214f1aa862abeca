//! The global version clock (TL2 lineage).
//!
//! One clock per heap is the single source of *time* for every protocol
//! that needs it:
//!
//! * **Optimistic read validation** — a transaction samples the clock at
//!   begin (`rv`) and validates each read with one O(1) compare
//!   (`record version <= rv`); commit draws a write version (`wv`) and
//!   releases every written record at it, so the record-word version *is*
//!   the commit stamp.
//! * **Snapshot isolation** — the begin stamp and the first-committer-wins
//!   comparison stamps are clock values; the per-slot stamp side-table the
//!   SI implementation used to carry is gone.
//! * **Multi-version visibility** — the [`VersionClock::visible_now`]
//!   cursor trails the allocation cursor and is advanced in stamp order by
//!   [`VersionClock::publish`], exactly the old `si_visible` clock.
//!
//! The clock starts at [`CLOCK_INITIAL`]` = 1`, matching the version a
//! fresh transaction record is born with ([`crate::txnrec::TxnRecord`]):
//! "never written" and "written at time 1" are indistinguishable, and both
//! are inside every snapshot.
//!
//! ## Modes
//!
//! * [`ClockMode::Global`] — `tick` is one `fetch_add` on the shared
//!   counter. Stamps are unique and gapless, which is what makes the
//!   commit-time `wv == rv + 1` revalidation-skip and the in-order
//!   multi-version publish protocol sound.
//! * [`ClockMode::ThreadLocal`] — the GV5-style fallback for global-clock
//!   contention: `tick` never writes the shared counter; it returns
//!   `max(shared, thread's last stamp) + 1` and remembers the result
//!   per-thread. Stamps may duplicate across threads and leave gaps, so
//!   readers that observe a stamp ahead of the shared counter heal it with
//!   [`VersionClock::advance_to`] (the timestamp-extension path), the
//!   `wv == rv + 1` skip is disabled, and a multi-version heap coerces the
//!   mode back to `Global` (in-order publication needs gapless stamps).

use crate::config::ClockMode;
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

/// The value a fresh clock starts at. Equal to the version of a fresh
/// transaction record, so a never-written record compares as "committed at
/// the beginning of time" under the `version <= rv` read check.
pub const CLOCK_INITIAL: u64 = 1;

/// Process-unique clock identities for the thread-local stamp cache.
static CLOCK_IDS: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// `(clock id, last stamp this thread drew from it)` — the GV5
    /// thread-local increment state. A single-entry cache: a thread
    /// alternating between two `ThreadLocal`-mode heaps re-seeds from the
    /// shared counter, which only costs stamp uniqueness (already not
    /// guaranteed in this mode), never monotonicity of a released record
    /// (releases take `max(stamp, prior + 1)`).
    static TL_LAST: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

/// A value alone on a 128-byte block: two 64-byte lines, because the
/// adjacent-line prefetcher moves lines in pairs.
#[repr(align(128))]
#[derive(Debug)]
struct OwnLine<T>(T);

impl<T> std::ops::Deref for OwnLine<T> {
    type Target = T;
    #[inline]
    fn deref(&self) -> &T {
        &self.0
    }
}

/// A heap's global version clock: the allocation cursor (`raw`) plus the
/// multi-version visibility cursor (`visible`) that trails it.
///
/// Each cursor sits on a cache line of its own. Every committing writer
/// RMWs `raw`; were it to share a line with the read-mostly heap fields
/// (configuration, object store) that every open and barrier loads, each
/// tick would invalidate that line in every other core's cache.
#[derive(Debug)]
pub struct VersionClock {
    /// The allocation cursor: the newest stamp handed out (Global mode) or
    /// the floor every new stamp must exceed (ThreadLocal mode).
    raw: OwnLine<AtomicU64>,
    /// The visibility cursor: the newest stamp whose commit effects are
    /// fully installed. Advanced in stamp order by [`VersionClock::publish`].
    visible: OwnLine<AtomicU64>,
    mode: ClockMode,
    id: u64,
}

impl VersionClock {
    /// A fresh clock at [`CLOCK_INITIAL`].
    pub fn new(mode: ClockMode) -> Self {
        Self::with_start(mode, CLOCK_INITIAL)
    }

    /// A clock starting at an arbitrary value (tests exercising the
    /// tag-bit-boundary wraparound start near the top of the version space).
    pub fn with_start(mode: ClockMode, start: u64) -> Self {
        VersionClock {
            raw: OwnLine(AtomicU64::new(start)),
            visible: OwnLine(AtomicU64::new(start)),
            mode,
            id: CLOCK_IDS.fetch_add(1, Ordering::Relaxed),
        }
    }

    /// The mode this clock runs in.
    #[inline]
    pub fn mode(&self) -> ClockMode {
        self.mode
    }

    /// The current clock value. Sampled as `rv` at transaction begin; every
    /// stamp drawn by [`VersionClock::tick`] *after* this load is strictly
    /// greater (Global mode) or healed to be observable via
    /// [`VersionClock::advance_to`] (ThreadLocal mode).
    #[inline]
    pub fn now(&self) -> u64 {
        self.raw.load(Ordering::Acquire)
    }

    /// Draws a write version.
    ///
    /// Global mode: one atomic `fetch_add`; the stamp is unique and exactly
    /// `now() + 1` at the instant of the draw — the uniqueness the
    /// `wv == rv + 1` revalidation skip relies on. ThreadLocal mode: no
    /// shared-counter write at all; `max(shared, thread-last) + 1`.
    #[inline]
    pub fn tick(&self) -> u64 {
        match self.mode {
            ClockMode::Global => self.raw.fetch_add(1, Ordering::AcqRel) + 1,
            ClockMode::ThreadLocal => {
                let shared = self.raw.load(Ordering::Acquire);
                let last = TL_LAST
                    .try_with(|c| {
                        let (id, l) = c.get();
                        if id == self.id {
                            l
                        } else {
                            0
                        }
                    })
                    .unwrap_or(0);
                let stamp = shared.max(last) + 1;
                let _ = TL_LAST.try_with(|c| c.set((self.id, stamp)));
                stamp
            }
        }
    }

    /// Advances the shared counter to at least `target` (CAS loop). Returns
    /// the number of *failed* CAS attempts, which the caller feeds into the
    /// `clock_cas_retries` statistic. A no-op returning 0 when the counter
    /// is already there — which it always is in Global mode, where every
    /// stamp was drawn from the counter itself.
    pub fn advance_to(&self, target: u64) -> u64 {
        let mut retries = 0;
        let mut cur = self.raw.load(Ordering::Acquire);
        while cur < target {
            match self
                .raw
                .compare_exchange_weak(cur, target, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => break,
                Err(seen) => {
                    retries += 1;
                    cur = seen;
                }
            }
        }
        retries
    }

    /// Address of the allocation cursor (layout checks).
    #[cfg(test)]
    pub(crate) fn counter_addr(&self) -> usize {
        &*self.raw as *const AtomicU64 as usize
    }

    /// The visibility cursor: the newest stamp whose commit is fully
    /// installed. Read-only multi-version transactions sample this — not
    /// the allocation cursor — as their snapshot.
    #[inline]
    pub fn visible_now(&self) -> u64 {
        self.visible.load(Ordering::Acquire)
    }

    /// Marks `stamp` visible. Publication is strictly in-order (stamp `n`
    /// waits for `n - 1`), so the visibility cursor always bounds a
    /// prefix-closed set of commits. Idempotent: publishing an
    /// already-visible stamp returns immediately, so an abort path that
    /// publishes an orphaned stamp can never double-advance or wedge a
    /// publisher that raced it.
    ///
    /// The wait for the predecessor routes through
    /// [`crate::cost::backoff_wait`]: under the simulated multiprocessor a
    /// raw spin never yields the virtual processor, so waiting for a
    /// descheduled predecessor would wedge the whole machine.
    pub fn publish(&self, stamp: u64) {
        let mut attempt = 0u32;
        loop {
            let vis = self.visible.load(Ordering::Acquire);
            if vis >= stamp {
                return;
            }
            if vis == stamp - 1
                && self
                    .visible
                    .compare_exchange(vis, stamp, Ordering::AcqRel, Ordering::Acquire)
                    .is_ok()
            {
                return;
            }
            crate::cost::backoff_wait(attempt);
            attempt = attempt.saturating_add(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_at_initial_and_ticks_globally() {
        let c = VersionClock::new(ClockMode::Global);
        assert_eq!(c.now(), CLOCK_INITIAL);
        assert_eq!(c.visible_now(), CLOCK_INITIAL);
        assert_eq!(c.tick(), CLOCK_INITIAL + 1);
        assert_eq!(c.tick(), CLOCK_INITIAL + 2);
        assert_eq!(c.now(), CLOCK_INITIAL + 2);
    }

    #[test]
    fn global_ticks_are_unique_across_threads() {
        use std::collections::HashSet;
        use std::sync::Arc;
        let c = Arc::new(VersionClock::new(ClockMode::Global));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || (0..500).map(|_| c.tick()).collect::<Vec<_>>())
            })
            .collect();
        let mut seen = HashSet::new();
        for h in handles {
            for s in h.join().unwrap() {
                assert!(seen.insert(s), "duplicate global stamp {s}");
            }
        }
        assert_eq!(c.now(), CLOCK_INITIAL + 4000);
    }

    #[test]
    fn thread_local_ticks_never_move_the_shared_counter() {
        let c = VersionClock::new(ClockMode::ThreadLocal);
        let a = c.tick();
        let b = c.tick();
        assert!(b > a, "a thread's own stamps are strictly increasing");
        assert_eq!(c.now(), CLOCK_INITIAL, "shared counter untouched");
        // Healing: a reader that observes stamp `b` extends the clock.
        assert_eq!(c.advance_to(b), 0);
        assert_eq!(c.now(), b);
        // The next local stamp climbs past the healed counter.
        assert!(c.tick() > b);
    }

    #[test]
    fn advance_to_is_monotonic_and_idempotent() {
        let c = VersionClock::new(ClockMode::Global);
        c.advance_to(10);
        assert_eq!(c.now(), 10);
        c.advance_to(5); // never moves backwards
        assert_eq!(c.now(), 10);
        c.advance_to(10);
        assert_eq!(c.now(), 10);
    }

    #[test]
    fn publish_is_in_order_and_idempotent() {
        let c = VersionClock::with_start(ClockMode::Global, 3);
        c.publish(4);
        assert_eq!(c.visible_now(), 4);
        c.publish(4); // idempotent
        c.publish(3); // already covered
        assert_eq!(c.visible_now(), 4);
        c.publish(5);
        assert_eq!(c.visible_now(), 5);
    }

    #[test]
    fn publish_waits_for_predecessor() {
        use std::sync::Arc;
        let c = Arc::new(VersionClock::with_start(ClockMode::Global, 0));
        let c2 = Arc::clone(&c);
        let t = std::thread::spawn(move || {
            c2.publish(2); // must wait for 1
            c2.visible_now()
        });
        std::thread::sleep(std::time::Duration::from_millis(10));
        assert_eq!(c.visible_now(), 0, "stamp 2 may not publish before 1");
        c.publish(1);
        assert_eq!(t.join().unwrap(), 2);
    }
}
