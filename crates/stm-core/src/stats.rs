//! Lightweight runtime counters for experiments and test assertions.
//!
//! Two layers:
//!
//! * The original flat event counters (commits, aborts, barrier executions,
//!   …), kept for compatibility with the seed's assertions.
//! * Structured contention telemetry fed by [`crate::contention::resolve`]
//!   and the abort paths: per-[`ConflictSite`] conflict/wait/self-abort
//!   counters, abort-reason counters, and a fixed-bucket histogram of how
//!   many backoff rounds each resolved conflict took
//!   ([`StatsSnapshot::wait_hist`]).
//!
//! Everything is relaxed atomics: counters are diagnostics, not
//! synchronization. Snapshot with [`Stats::snapshot`] (or
//! [`crate::heap::Heap::stats_snapshot`]).
//!
//! ## Sharding
//!
//! The counters sit on the hot path of every barrier and transaction, so a
//! single set of shared atomics becomes a cache-line ping-pong hot spot
//! exactly when the STM itself scales. [`Stats`] therefore keeps
//! [`SHARDS`] cache-line-aligned copies of every counter plus one overflow
//! copy, and [`Stats::snapshot`] sums across all of them, so every
//! aggregate identity the test suite asserts (commits + aborts, per-site
//! vs total waits, …) holds unchanged — the split is invisible outside
//! this module.
//!
//! A thread *leases* one shard index on its first counted event, by
//! setting a bit in a process-wide bitmask, and returns it from a
//! thread-local destructor when it exits. The index is the thread's in
//! every [`Stats`] instance, and while it holds the lease no other thread
//! writes that shard. An increment on a leased shard is therefore a
//! relaxed `load` plus `store` — no read-modify-write, no `lock` prefix —
//! and still exact: there is only one writer. Concurrent
//! [`Stats::snapshot`] readers see each counter's latest store, exactly
//! as they saw the latest `fetch_add` before.
//!
//! Threads that find every lease taken, and events counted during thread
//! teardown after the lease went back, use the shared overflow shard,
//! which keeps `fetch_add`. Taking a lease is an `Acquire` RMW on the
//! bitmask and returning it a `Release` RMW, so a shard's next owner
//! observes its previous owner's totals and continues from them.

use crate::contention::ConflictSite;
use std::cell::Cell;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

/// Number of buckets in the wait-span histogram. Bucket `i` counts conflicts
/// resolved (or given up) after `n` backoff rounds with
/// `2^i <= n < 2^(i+1)` (bucket 0 additionally holds `n == 1`; zero-round
/// resolutions are not conflicts and are not recorded).
pub const WAIT_BUCKETS: usize = 8;

fn site_array() -> [AtomicU64; ConflictSite::COUNT] {
    std::array::from_fn(|_| AtomicU64::new(0))
}

/// Number of leasable per-thread counter shards (see the module docs). A
/// thread beyond this many live counting threads uses the overflow shard.
pub const SHARDS: usize = 16;

/// One shard of the counters: a full private copy of every counter,
/// cache-line-aligned so neighbouring shards never false-share.
#[repr(align(128))]
#[derive(Debug)]
struct StatShard {
    /// Committed transactions.
    commits: AtomicU64,
    /// Aborted transaction attempts (validation failure, conflict-manager
    /// self-abort, or explicit user retry).
    aborts: AtomicU64,
    /// Non-transactional read barriers executed (slow protocol, i.e. not the
    /// private fast path).
    read_barriers: AtomicU64,
    /// Non-transactional write barriers executed (slow protocol).
    write_barriers: AtomicU64,
    /// Barrier executions that took the DEA private fast path.
    private_fast_paths: AtomicU64,
    /// Objects published by `publishObject` (including transitively reached
    /// ones).
    publishes: AtomicU64,
    /// Conflict-manager waits (both transactional and barrier-side).
    conflict_waits: AtomicU64,
    /// Transactions blocked in commit-time quiescence at least once.
    quiescence_waits: AtomicU64,
    /// User-initiated `retry` operations.
    retries: AtomicU64,

    // --- structured contention telemetry ---
    /// Distinct conflict events per site (each acquisition that found the
    /// record/lock taken counts once, however long it then waited).
    conflict_events: [AtomicU64; ConflictSite::COUNT],
    /// Contention-manager wait decisions per site (one per backoff round).
    cm_waits: [AtomicU64; ConflictSite::COUNT],
    /// Contention-manager self-abort decisions per site.
    cm_self_aborts: [AtomicU64; ConflictSite::COUNT],
    /// Aborts caused by read-set validation failure.
    aborts_validation: AtomicU64,
    /// Top-level cancels (`Txn::cancel` reaching `try_atomic`).
    aborts_cancel: AtomicU64,
    /// Wait-span histogram; see [`WAIT_BUCKETS`].
    wait_hist: [AtomicU64; WAIT_BUCKETS],

    // --- crash-safety telemetry ---
    /// Structured deadlock aborts (`Abort::Deadlock`).
    aborts_deadlock: AtomicU64,
    /// Panicking atomic blocks rolled back by the panic-safe runner.
    panic_rollbacks: AtomicU64,
    /// Injected delays fired by the fault injector.
    faults_delays: AtomicU64,
    /// Injected forced aborts fired by the fault injector.
    faults_forced_aborts: AtomicU64,
    /// Injected panics fired by the fault injector.
    faults_panics: AtomicU64,
    /// Records reclaimed from dead owners by the stuck-owner watchdog.
    orphan_reclaims: AtomicU64,
    /// Spin sites that exhausted the watchdog budget (counted once per
    /// acquisition that crossed the budget).
    watchdog_escalations: AtomicU64,
    /// Self-aborts forced by the watchdog after an exhausted budget against
    /// a live (or unknown) owner.
    watchdog_self_aborts: AtomicU64,

    // --- isolation-level telemetry ---
    /// Transactional reads served from the snapshot-isolation read cache
    /// (repeatable reads; only bumped under `SnapshotIsolation`).
    si_snapshot_reads: AtomicU64,
    /// First-committer-wins conflicts: commits refused because an
    /// overlapping write committed after this transaction began (each such
    /// conflict also surfaces as an `aborts_validation` abort, keeping the
    /// abort-accounting identity intact).
    si_write_conflicts: AtomicU64,
    /// Non-transactional access barriers elided at runtime because the heap
    /// runs under `QuiescencePrivatization`.
    barriers_elided: AtomicU64,

    // --- multi-version read-concurrency telemetry ---
    /// Read-only transactional reads served from a retained version (the
    /// version ring or the stamped current value) without logging or
    /// validation.
    mv_snapshot_reads: AtomicU64,
    /// Versions installed into rings by committing writers.
    mv_version_installs: AtomicU64,
    /// Read-only reads that found every retained version newer than the
    /// reader's snapshot (the ring overflowed past it); the reader falls
    /// back to the validated read-write path.
    mv_ring_overflows: AtomicU64,
    /// Transactions that committed through the read-only / empty-write-set
    /// fast path: no validation work beyond what isolation requires, no
    /// record releases, no committer-side quiescence wait.
    ro_fast_commits: AtomicU64,
    // --- progress-policy and overload telemetry ---
    /// Aborts raised because a block's wait-round deadline was spent at a
    /// wait site (`Abort::DeadlineExceeded`).
    deadline_aborts: AtomicU64,
    /// Blocks whose retry budget ran out (`Abort::RetryExhausted`). Counted
    /// once per block, not per attempt — the final attempt's abort is
    /// already attributed to its own cause.
    retries_exhausted: AtomicU64,
    /// Transactions rejected by the overload admission controller before
    /// touching any shared state (`Abort::Overloaded`).
    admission_rejects: AtomicU64,
    /// Blocks that escalated to serialized "inevitable-lite" mode (took the
    /// global serialization token).
    escalations_to_serial: AtomicU64,

    // --- global-version-clock telemetry ---
    /// Optimistic reads validated with the O(1) `version <= rv` compare
    /// (the TL2 read protocol; snapshot-isolation and wait-free
    /// multi-version reads validate differently and are not counted here).
    o1_validations: AtomicU64,
    /// Successful timestamp extensions: a read observed a version newer
    /// than `rv`, the read set revalidated against the re-sampled clock,
    /// and the transaction continued instead of aborting.
    rv_extensions: AtomicU64,
    /// Commits that skipped read-set revalidation entirely — either the
    /// drawn write version proved no rival committed since begin
    /// (`wv == rv + 1`, global clock mode), or a read-only commit whose
    /// every read was already O(1)-validated at read time.
    revalidations_skipped: AtomicU64,
    /// Failed CAS attempts while advancing the global clock (timestamp
    /// extension healing a thread-local-mode stamp past the counter).
    clock_cas_retries: AtomicU64,
}

impl Default for StatShard {
    fn default() -> Self {
        StatShard {
            commits: AtomicU64::new(0),
            aborts: AtomicU64::new(0),
            read_barriers: AtomicU64::new(0),
            write_barriers: AtomicU64::new(0),
            private_fast_paths: AtomicU64::new(0),
            publishes: AtomicU64::new(0),
            conflict_waits: AtomicU64::new(0),
            quiescence_waits: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            conflict_events: site_array(),
            cm_waits: site_array(),
            cm_self_aborts: site_array(),
            aborts_validation: AtomicU64::new(0),
            aborts_cancel: AtomicU64::new(0),
            wait_hist: std::array::from_fn(|_| AtomicU64::new(0)),
            aborts_deadlock: AtomicU64::new(0),
            panic_rollbacks: AtomicU64::new(0),
            faults_delays: AtomicU64::new(0),
            faults_forced_aborts: AtomicU64::new(0),
            faults_panics: AtomicU64::new(0),
            orphan_reclaims: AtomicU64::new(0),
            watchdog_escalations: AtomicU64::new(0),
            watchdog_self_aborts: AtomicU64::new(0),
            si_snapshot_reads: AtomicU64::new(0),
            si_write_conflicts: AtomicU64::new(0),
            barriers_elided: AtomicU64::new(0),
            mv_snapshot_reads: AtomicU64::new(0),
            mv_version_installs: AtomicU64::new(0),
            mv_ring_overflows: AtomicU64::new(0),
            ro_fast_commits: AtomicU64::new(0),
            deadline_aborts: AtomicU64::new(0),
            retries_exhausted: AtomicU64::new(0),
            admission_rejects: AtomicU64::new(0),
            escalations_to_serial: AtomicU64::new(0),
            o1_validations: AtomicU64::new(0),
            rv_extensions: AtomicU64::new(0),
            revalidations_skipped: AtomicU64::new(0),
            clock_cas_retries: AtomicU64::new(0),
        }
    }
}

/// Per-heap event counters (sharded; see the module docs).
#[derive(Debug, Default)]
pub struct Stats {
    /// Leased shards: only the thread holding lease `i` writes `shards[i]`.
    shards: [StatShard; SHARDS],
    /// Shared by threads without a lease; every write is an atomic RMW.
    overflow: StatShard,
}

/// Bit `i` set while some live thread holds the lease on shard `i`.
static LEASES: AtomicU32 = AtomicU32::new(0);

/// Shard index of a thread that holds no lease: the overflow shard.
const OVERFLOW: usize = SHARDS;
/// [`SHARD`] before the thread's first counted event.
const UNLEASED: usize = usize::MAX;

thread_local! {
    /// This thread's shard: a lease index, [`OVERFLOW`], or [`UNLEASED`].
    /// Const-initialized and drop-free, so reading it is one TLS load and
    /// stays valid during thread teardown.
    static SHARD: Cell<usize> = const { Cell::new(UNLEASED) };
    /// Owns the lease; its destructor hands the shard back.
    static LEASE: Lease = Lease::take();
}

/// A held shard lease (or none, when every shard was taken).
struct Lease(usize);

impl Lease {
    fn take() -> Lease {
        const _: () = assert!(SHARDS <= u32::BITS as usize);
        let full = u32::MAX >> (u32::BITS as usize - SHARDS);
        let mut cur = LEASES.load(Ordering::Relaxed);
        let idx = loop {
            if cur & full == full {
                break OVERFLOW;
            }
            let i = (!cur).trailing_zeros();
            let taken = cur | 1 << i;
            match LEASES.compare_exchange_weak(cur, taken, Ordering::Acquire, Ordering::Relaxed) {
                Ok(_) => break i as usize,
                Err(now) => cur = now,
            }
        };
        SHARD.with(|s| s.set(idx));
        Lease(idx)
    }
}

impl Drop for Lease {
    fn drop(&mut self) {
        // Later events on this thread (other TLS destructors) go to the
        // overflow shard; the owner we hand to must not race with them.
        SHARD.with(|s| s.set(OVERFLOW));
        if self.0 < SHARDS {
            LEASES.fetch_and(!(1 << self.0), Ordering::Release);
        }
    }
}

/// This thread's shard index: its lease, or [`OVERFLOW`].
#[inline]
fn thread_shard() -> usize {
    let i = SHARD.with(Cell::get);
    if i != UNLEASED {
        return i;
    }
    lease_shard()
}

/// First counted event on this thread: take a lease. After the lease's
/// destruction [`Lease::drop`] has already pointed [`SHARD`] at the
/// overflow shard; only a thread whose first event comes so late in its
/// teardown that the lease cannot be created lands here again (and counts
/// on the overflow shard each time).
#[cold]
fn lease_shard() -> usize {
    LEASE.try_with(|l| l.0).unwrap_or(OVERFLOW)
}

/// Snapshot of the lease bitmask: bit `i` is set while a live thread holds
/// shard `i` (diagnostics and tests).
pub fn leased_shards() -> u32 {
    LEASES.load(Ordering::Acquire)
}

macro_rules! bump {
    ($($name:ident => $field:ident),* $(,)?) => {
        $(
            #[doc = concat!("Increments `", stringify!($field), "` (this thread's shard).")]
            #[inline]
            pub fn $name(&self) {
                self.add(|s| &s.$field, 1);
            }
        )*
    };
}

/// Sums one scalar field across all shards.
macro_rules! sum {
    ($self:ident, $field:ident) => {
        $self.all_shards().map(|s| s.$field.load(Ordering::Relaxed)).sum::<u64>()
    };
}

/// Sums one array field across all shards, element-wise.
macro_rules! sum_array {
    ($self:ident, $field:ident) => {
        std::array::from_fn(|i| {
            $self.all_shards().map(|s| s.$field[i].load(Ordering::Relaxed)).sum::<u64>()
        })
    };
}

impl Stats {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        Stats::default()
    }

    /// Adds `n` to the counter `pick` selects in this thread's shard: a
    /// plain load and store on a leased shard (this thread is its only
    /// writer), an atomic RMW on the shared overflow shard.
    #[inline]
    fn add(&self, pick: impl Fn(&StatShard) -> &AtomicU64, n: u64) {
        let i = thread_shard();
        if i < SHARDS {
            let c = pick(&self.shards[i]);
            c.store(c.load(Ordering::Relaxed).wrapping_add(n), Ordering::Relaxed);
        } else {
            pick(&self.overflow).fetch_add(n, Ordering::Relaxed);
        }
    }

    fn all_shards(&self) -> impl Iterator<Item = &StatShard> {
        self.shards.iter().chain(std::iter::once(&self.overflow))
    }

    bump! {
        commit => commits,
        abort => aborts,
        read_barrier => read_barriers,
        write_barrier => write_barriers,
        private_fast_path => private_fast_paths,
        publish => publishes,
        conflict_wait => conflict_waits,
        quiescence_wait => quiescence_waits,
        retry => retries,
        abort_validation => aborts_validation,
        abort_cancel => aborts_cancel,
        abort_deadlock => aborts_deadlock,
        panic_rollback => panic_rollbacks,
        fault_delay => faults_delays,
        fault_forced_abort => faults_forced_aborts,
        fault_panic => faults_panics,
        orphan_reclaim => orphan_reclaims,
        watchdog_escalation => watchdog_escalations,
        watchdog_self_abort => watchdog_self_aborts,
        si_snapshot_read => si_snapshot_reads,
        si_write_conflict => si_write_conflicts,
        barrier_elided => barriers_elided,
        mv_snapshot_read => mv_snapshot_reads,
        mv_version_install => mv_version_installs,
        mv_ring_overflow => mv_ring_overflows,
        ro_fast_commit => ro_fast_commits,
        deadline_abort => deadline_aborts,
        retry_exhausted => retries_exhausted,
        admission_reject => admission_rejects,
        escalation_to_serial => escalations_to_serial,
        o1_validation => o1_validations,
        rv_extension => rv_extensions,
        revalidation_skipped => revalidations_skipped,
    }

    /// Adds `n` failed clock-CAS attempts (batched per advance call).
    #[inline]
    pub fn clock_cas_retries_add(&self, n: u64) {
        self.add(|s| &s.clock_cas_retries, n);
    }

    /// Records a fresh conflict event at `site`.
    #[inline]
    pub fn conflict_event(&self, site: ConflictSite) {
        self.add(|s| &s.conflict_events[site.index()], 1);
    }

    /// Records one contention-manager wait round at `site`.
    #[inline]
    pub fn cm_wait(&self, site: ConflictSite) {
        self.add(|s| &s.cm_waits[site.index()], 1);
    }

    /// Records a contention-manager self-abort decision at `site`.
    #[inline]
    pub fn cm_self_abort(&self, site: ConflictSite) {
        self.add(|s| &s.cm_self_aborts[site.index()], 1);
    }

    /// Records that a conflict was resolved (or abandoned) after `rounds`
    /// backoff rounds. Zero rounds means no conflict; not recorded.
    #[inline]
    pub fn record_wait_span(&self, rounds: u32) {
        if rounds == 0 {
            return;
        }
        let bucket = (31 - rounds.leading_zeros()).min(WAIT_BUCKETS as u32 - 1) as usize;
        self.add(|s| &s.wait_hist[bucket], 1);
    }

    /// A point-in-time snapshot, convenient for assertions: sums every
    /// counter across the shards.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            commits: sum!(self, commits),
            aborts: sum!(self, aborts),
            read_barriers: sum!(self, read_barriers),
            write_barriers: sum!(self, write_barriers),
            private_fast_paths: sum!(self, private_fast_paths),
            publishes: sum!(self, publishes),
            conflict_waits: sum!(self, conflict_waits),
            quiescence_waits: sum!(self, quiescence_waits),
            retries: sum!(self, retries),
            conflict_events: sum_array!(self, conflict_events),
            cm_waits: sum_array!(self, cm_waits),
            cm_self_aborts: sum_array!(self, cm_self_aborts),
            aborts_validation: sum!(self, aborts_validation),
            aborts_cancel: sum!(self, aborts_cancel),
            wait_hist: sum_array!(self, wait_hist),
            aborts_deadlock: sum!(self, aborts_deadlock),
            panic_rollbacks: sum!(self, panic_rollbacks),
            faults_delays: sum!(self, faults_delays),
            faults_forced_aborts: sum!(self, faults_forced_aborts),
            faults_panics: sum!(self, faults_panics),
            orphan_reclaims: sum!(self, orphan_reclaims),
            watchdog_escalations: sum!(self, watchdog_escalations),
            watchdog_self_aborts: sum!(self, watchdog_self_aborts),
            si_snapshot_reads: sum!(self, si_snapshot_reads),
            si_write_conflicts: sum!(self, si_write_conflicts),
            barriers_elided: sum!(self, barriers_elided),
            mv_snapshot_reads: sum!(self, mv_snapshot_reads),
            mv_version_installs: sum!(self, mv_version_installs),
            mv_ring_overflows: sum!(self, mv_ring_overflows),
            ro_fast_commits: sum!(self, ro_fast_commits),
            deadline_aborts: sum!(self, deadline_aborts),
            retries_exhausted: sum!(self, retries_exhausted),
            admission_rejects: sum!(self, admission_rejects),
            escalations_to_serial: sum!(self, escalations_to_serial),
            o1_validations: sum!(self, o1_validations),
            rv_extensions: sum!(self, rv_extensions),
            revalidations_skipped: sum!(self, revalidations_skipped),
            clock_cas_retries: sum!(self, clock_cas_retries),
        }
    }
}

/// Plain-value snapshot of [`Stats`].
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Committed transactions.
    pub commits: u64,
    /// Aborted transaction attempts.
    pub aborts: u64,
    /// Slow-path non-transactional read barriers.
    pub read_barriers: u64,
    /// Slow-path non-transactional write barriers.
    pub write_barriers: u64,
    /// DEA private-fast-path barrier executions.
    pub private_fast_paths: u64,
    /// Objects published.
    pub publishes: u64,
    /// Total conflict-manager wait rounds.
    pub conflict_waits: u64,
    /// Transactions that quiesce-waited.
    pub quiescence_waits: u64,
    /// User retries.
    pub retries: u64,
    /// Conflict events per [`ConflictSite::index`].
    pub conflict_events: [u64; ConflictSite::COUNT],
    /// Wait decisions per site.
    pub cm_waits: [u64; ConflictSite::COUNT],
    /// Self-abort decisions per site.
    pub cm_self_aborts: [u64; ConflictSite::COUNT],
    /// Aborts from read-set validation failure.
    pub aborts_validation: u64,
    /// Top-level cancels.
    pub aborts_cancel: u64,
    /// Wait-span histogram (see [`WAIT_BUCKETS`]).
    pub wait_hist: [u64; WAIT_BUCKETS],
    /// Structured deadlock aborts (`Abort::Deadlock`).
    pub aborts_deadlock: u64,
    /// Panicking atomic blocks rolled back by the panic-safe runner.
    pub panic_rollbacks: u64,
    /// Injected delays fired by the fault injector.
    pub faults_delays: u64,
    /// Injected forced aborts fired by the fault injector.
    pub faults_forced_aborts: u64,
    /// Injected panics fired by the fault injector.
    pub faults_panics: u64,
    /// Records reclaimed from dead owners by the stuck-owner watchdog.
    pub orphan_reclaims: u64,
    /// Spin sites that exhausted the watchdog budget.
    pub watchdog_escalations: u64,
    /// Watchdog-forced self-aborts.
    pub watchdog_self_aborts: u64,
    /// Reads served from the snapshot-isolation read cache.
    pub si_snapshot_reads: u64,
    /// First-committer-wins write conflicts (snapshot isolation).
    pub si_write_conflicts: u64,
    /// Barriers elided under quiescence-only privatization.
    pub barriers_elided: u64,
    /// Read-only reads served from retained multi-version state.
    pub mv_snapshot_reads: u64,
    /// Versions installed into rings by committing writers.
    pub mv_version_installs: u64,
    /// Ring overflows that demoted a read-only reader to the validated path.
    pub mv_ring_overflows: u64,
    /// Commits through the read-only / empty-write-set fast path.
    pub ro_fast_commits: u64,
    /// Aborts raised because a wait-round deadline was spent at a wait site.
    pub deadline_aborts: u64,
    /// Blocks whose retry budget ran out (one per block, not per attempt).
    pub retries_exhausted: u64,
    /// Transactions rejected by overload admission control.
    pub admission_rejects: u64,
    /// Blocks escalated to serialized "inevitable-lite" mode.
    pub escalations_to_serial: u64,
    /// Optimistic reads validated with the O(1) `version <= rv` compare.
    pub o1_validations: u64,
    /// Timestamp extensions that revalidated and continued instead of
    /// aborting.
    pub rv_extensions: u64,
    /// Commits that proved read-set revalidation unnecessary and skipped it.
    pub revalidations_skipped: u64,
    /// Failed CAS attempts while advancing the global version clock.
    pub clock_cas_retries: u64,
}

impl StatsSnapshot {
    /// Conflict events at `site`.
    pub fn conflicts_at(&self, site: ConflictSite) -> u64 {
        self.conflict_events[site.index()]
    }

    /// Wait rounds at `site`.
    pub fn waits_at(&self, site: ConflictSite) -> u64 {
        self.cm_waits[site.index()]
    }

    /// Self-aborts at `site`.
    pub fn self_aborts_at(&self, site: ConflictSite) -> u64 {
        self.cm_self_aborts[site.index()]
    }

    /// Total conflict events across all sites.
    pub fn total_conflicts(&self) -> u64 {
        self.conflict_events.iter().sum()
    }

    /// Total contention-manager self-aborts across all sites.
    pub fn total_self_aborts(&self) -> u64 {
        self.cm_self_aborts.iter().sum()
    }

    /// Total wait spans recorded in the histogram.
    pub fn total_wait_spans(&self) -> u64 {
        self.wait_hist.iter().sum()
    }

    /// Renders the telemetry as a compact multi-line report (used by the
    /// bench harness's contention experiment).
    pub fn render_contention(&self) -> String {
        let mut out = String::new();
        out.push_str("site            conflicts  waits      self-aborts\n");
        for site in ConflictSite::ALL {
            let i = site.index();
            if self.conflict_events[i] + self.cm_waits[i] + self.cm_self_aborts[i] == 0 {
                continue;
            }
            out.push_str(&format!(
                "{:<15} {:<10} {:<10} {}\n",
                site.label(),
                self.conflict_events[i],
                self.cm_waits[i],
                self.cm_self_aborts[i],
            ));
        }
        out.push_str("wait-span rounds:");
        for (i, n) in self.wait_hist.iter().enumerate() {
            if *n > 0 {
                let lo = 1u64 << i;
                out.push_str(&format!("  [{}+]={}", lo, n));
            }
        }
        out.push('\n');
        out
    }
}

/// Per-transaction contention telemetry.
///
/// Each engine accumulates one of these per attempt; the
/// [`crate::txn::atomic_traced`] entry point sums the attempts of one atomic
/// block and returns the total next to the block's result.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct TxnTelemetry {
    /// Executions of the atomic block (1 = committed first try).
    pub attempts: u32,
    /// Distinct conflict events this block's transactions hit.
    pub conflicts: u32,
    /// Total contention-manager wait rounds across those conflicts.
    pub wait_rounds: u32,
    /// Conflict-manager self-aborts suffered (including watchdog-forced
    /// ones).
    pub self_aborts: u32,
    /// Provable-deadlock aborts ([`crate::txn::Abort::Deadlock`]) this block
    /// hit. Deadlock is not retried, so this is 0 or 1 per block.
    pub deadlocks: u32,
}

impl TxnTelemetry {
    /// Accumulates another attempt's telemetry into this total.
    pub fn absorb(&mut self, other: TxnTelemetry) {
        self.attempts += other.attempts;
        self.conflicts += other.conflicts;
        self.wait_rounds += other.wait_rounds;
        self.self_aborts += other.self_aborts;
        self.deadlocks += other.deadlocks;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_count() {
        let s = Stats::new();
        s.commit();
        s.commit();
        s.abort();
        s.read_barrier();
        s.private_fast_path();
        let snap = s.snapshot();
        assert_eq!(snap.commits, 2);
        assert_eq!(snap.aborts, 1);
        assert_eq!(snap.read_barriers, 1);
        assert_eq!(snap.private_fast_paths, 1);
        assert_eq!(snap.write_barriers, 0);
    }

    #[test]
    fn shards_aggregate_across_threads() {
        // Each thread leases its own shard; the snapshot must still see
        // every increment exactly once.
        let s = std::sync::Arc::new(Stats::new());
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let s = std::sync::Arc::clone(&s);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        s.commit();
                        s.conflict_event(ConflictSite::TxnRead);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let snap = s.snapshot();
        assert_eq!(snap.commits, 8000);
        assert_eq!(snap.conflicts_at(ConflictSite::TxnRead), 8000);
    }

    #[test]
    fn per_site_counters_are_independent() {
        let s = Stats::new();
        s.conflict_event(ConflictSite::TxnRead);
        s.conflict_event(ConflictSite::TxnRead);
        s.cm_wait(ConflictSite::BarrierWrite);
        s.cm_self_abort(ConflictSite::TxnCommit);
        let snap = s.snapshot();
        assert_eq!(snap.conflicts_at(ConflictSite::TxnRead), 2);
        assert_eq!(snap.conflicts_at(ConflictSite::TxnWrite), 0);
        assert_eq!(snap.waits_at(ConflictSite::BarrierWrite), 1);
        assert_eq!(snap.self_aborts_at(ConflictSite::TxnCommit), 1);
        assert_eq!(snap.total_conflicts(), 2);
        assert_eq!(snap.total_self_aborts(), 1);
    }

    #[test]
    fn wait_hist_buckets_by_power_of_two() {
        let s = Stats::new();
        s.record_wait_span(0); // not recorded
        s.record_wait_span(1); // bucket 0
        s.record_wait_span(2); // bucket 1
        s.record_wait_span(3); // bucket 1
        s.record_wait_span(4); // bucket 2
        s.record_wait_span(255); // bucket 7
        s.record_wait_span(u32::MAX); // clamped to bucket 7
        let snap = s.snapshot();
        assert_eq!(snap.wait_hist[0], 1);
        assert_eq!(snap.wait_hist[1], 2);
        assert_eq!(snap.wait_hist[2], 1);
        assert_eq!(snap.wait_hist[7], 2);
        assert_eq!(snap.total_wait_spans(), 6);
    }

    #[test]
    fn contention_report_renders() {
        let s = Stats::new();
        s.conflict_event(ConflictSite::Lock);
        s.cm_wait(ConflictSite::Lock);
        s.record_wait_span(1);
        let r = s.snapshot().render_contention();
        assert!(r.contains("lock"));
        assert!(r.contains("[1+]=1"));
    }
}
