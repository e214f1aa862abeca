//! Pluggable contention management.
//!
//! Every spin-until-available loop in the system — transactional open-for-
//! read/write, lazy commit-time acquisition, the non-transactional isolation
//! barriers, the lock-based baseline's monitors, and commit-time quiescence —
//! funnels its "someone else owns this" decision through a
//! [`ContentionManager`] installed on the heap at construction
//! ([`crate::config::StmConfig::contention`]).
//!
//! The manager decides, per conflict event, whether the blocked party backs
//! off and retries (`Wait`) or gives up its transaction (`SelfAbort`).
//! Non-transactional parties — barriers, monitors, quiescence — can never
//! abort: the paper's protocol guarantees every exclusive owner releases in
//! bounded time, so [`resolve`] coerces their decisions to waits.
//!
//! That bounded-release guarantee fails if an owner *dies* mid-critical-
//! section (a panic with [`crate::config::StmConfig::panic_safety`]
//! disabled). [`resolve`] therefore also hosts the stuck-owner watchdog:
//! once a waiter exceeds [`crate::watchdog::WatchdogConfig::spin_budget`]
//! rounds it consults the holder's registry slot and reclaims records
//! orphaned by dead owners, restoring the bound (see [`crate::watchdog`]).
//!
//! Three policies ship with the system:
//!
//! * [`ContentionPolicy::Aggressive`] — abort self immediately on any
//!   transactional conflict. The simplest deadlock-free policy; relies on
//!   the re-execution loop's randomized backoff for progress.
//! * [`ContentionPolicy::Backoff`] (default) — wait with jittered
//!   exponential backoff, aborting after
//!   [`crate::config::StmConfig::conflict_retries`] rounds. This is the
//!   bounded conflict manager the paper's McRT base system uses.
//! * [`ContentionPolicy::Karma`] — age-based greedy priority: each atomic
//!   block draws a birth ticket at its first attempt and keeps it across
//!   re-executions, so accumulated work is never forgotten. On conflict the
//!   younger transaction aborts quickly while the older one waits the
//!   youngster out; ageless holders (barriers) are simply waited out.

use crate::cost::{backoff_wait, charge, CostKind};
use crate::heap::Heap;
use crate::stats::Stats;
use crate::txnrec::{OwnerToken, RecWord};
use crate::watchdog::{try_reclaim, ReclaimOutcome};
use std::cell::Cell;
use std::sync::Arc;

/// Which code path detected the conflict. Indexes the per-site telemetry
/// counters in [`crate::stats::Stats`].
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum ConflictSite {
    /// Transactional open-for-read found the record exclusively owned.
    TxnRead,
    /// Transactional open-for-write found the record exclusively owned.
    TxnWrite,
    /// Lazy commit-time acquisition found the record exclusively owned.
    TxnCommit,
    /// Non-transactional read barrier (including the §3.3 ordering barrier).
    BarrierRead,
    /// Non-transactional write barrier.
    BarrierWrite,
    /// Aggregated (§6) barrier acquisition.
    BarrierAggregate,
    /// Lock-based baseline monitor acquisition.
    Lock,
    /// Commit-time quiescence wait (§3.4).
    Quiesce,
}

impl ConflictSite {
    /// Number of sites (array dimension for per-site counters).
    pub const COUNT: usize = 8;

    /// All sites, in [`ConflictSite::index`] order.
    pub const ALL: [ConflictSite; ConflictSite::COUNT] = [
        ConflictSite::TxnRead,
        ConflictSite::TxnWrite,
        ConflictSite::TxnCommit,
        ConflictSite::BarrierRead,
        ConflictSite::BarrierWrite,
        ConflictSite::BarrierAggregate,
        ConflictSite::Lock,
        ConflictSite::Quiesce,
    ];

    /// Dense index for counter arrays.
    #[inline]
    pub fn index(self) -> usize {
        match self {
            ConflictSite::TxnRead => 0,
            ConflictSite::TxnWrite => 1,
            ConflictSite::TxnCommit => 2,
            ConflictSite::BarrierRead => 3,
            ConflictSite::BarrierWrite => 4,
            ConflictSite::BarrierAggregate => 5,
            ConflictSite::Lock => 6,
            ConflictSite::Quiesce => 7,
        }
    }

    /// Short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            ConflictSite::TxnRead => "txn-read",
            ConflictSite::TxnWrite => "txn-write",
            ConflictSite::TxnCommit => "txn-commit",
            ConflictSite::BarrierRead => "barrier-read",
            ConflictSite::BarrierWrite => "barrier-write",
            ConflictSite::BarrierAggregate => "barrier-agg",
            ConflictSite::Lock => "lock",
            ConflictSite::Quiesce => "quiesce",
        }
    }

    /// Whether the blocked party is a transaction that *can* abort itself.
    /// Barriers, monitors, and quiescence have no transaction to give up.
    #[inline]
    pub fn can_abort(self) -> bool {
        matches!(
            self,
            ConflictSite::TxnRead | ConflictSite::TxnWrite | ConflictSite::TxnCommit
        )
    }
}

/// One conflict event, as presented to a [`ContentionManager`].
#[derive(Copy, Clone, Debug)]
pub struct ConflictCtx {
    /// Where the conflict was detected.
    pub site: ConflictSite,
    /// How many times this particular acquisition has already waited.
    pub attempt: u32,
    /// The blocked transaction's owner token (`None` for barriers, monitors
    /// and quiescence).
    pub me: Option<OwnerToken>,
    /// The record word observed, when the conflict is over a transaction
    /// record (`None` for monitors and quiescence).
    pub holder: Option<RecWord>,
    /// Birth ticket of the blocked atomic block, if age tracking is on.
    pub my_age: Option<u64>,
    /// Birth ticket of the holding transaction, if known.
    pub holder_age: Option<u64>,
    /// The heap's configured retry budget.
    pub retry_budget: u32,
}

/// What a [`ContentionManager`] decided about one conflict event.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum CmDecision {
    /// Back off (with [`crate::cost::backoff_wait`] severity `severity`) and
    /// retry the acquisition.
    Wait {
        /// Backoff severity: the attempt index handed to `backoff_wait`.
        severity: u32,
    },
    /// Abort the blocked transaction; the atomic block re-executes.
    /// Meaningless for sites where [`ConflictSite::can_abort`] is false —
    /// [`resolve`] coerces it to a wait there.
    SelfAbort,
}

/// A contention-management policy. Implementations must be cheap: `decide`
/// runs on every conflict iteration of every spin loop in the system.
pub trait ContentionManager: Send + Sync + std::fmt::Debug {
    /// Stable policy name (appears in telemetry reports).
    fn name(&self) -> &'static str;

    /// Decides what the blocked party does about the conflict in `ctx`.
    fn decide(&self, ctx: &ConflictCtx) -> CmDecision;

    /// Whether [`resolve`] should look up birth tickets for this policy.
    /// Age bookkeeping costs a mutex per transaction begin/end, so only
    /// age-based policies opt in.
    fn needs_age(&self) -> bool {
        false
    }
}

/// Config-level policy selector (see [`crate::config::StmConfig::contention`]).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, Default)]
pub enum ContentionPolicy {
    /// Self-abort on first transactional conflict ([`AggressiveManager`]).
    Aggressive,
    /// Jittered exponential backoff with a bounded retry budget
    /// ([`BackoffManager`]). The paper's base-system behaviour.
    #[default]
    Backoff,
    /// Age-based greedy priority ([`KarmaManager`]).
    Karma,
}

impl ContentionPolicy {
    /// All policies, for experiment sweeps.
    pub const ALL: [ContentionPolicy; 3] = [
        ContentionPolicy::Aggressive,
        ContentionPolicy::Backoff,
        ContentionPolicy::Karma,
    ];

    /// Instantiates the manager for this policy.
    pub fn build(self) -> Arc<dyn ContentionManager> {
        match self {
            ContentionPolicy::Aggressive => Arc::new(AggressiveManager),
            ContentionPolicy::Backoff => Arc::new(BackoffManager),
            ContentionPolicy::Karma => Arc::new(KarmaManager),
        }
    }

    /// Stable label (matches the built manager's `name()`).
    pub fn label(self) -> &'static str {
        match self {
            ContentionPolicy::Aggressive => "aggressive",
            ContentionPolicy::Backoff => "backoff",
            ContentionPolicy::Karma => "karma",
        }
    }
}

/// Aborts self immediately on any transactional conflict; waits with plain
/// exponential backoff where aborting is impossible.
#[derive(Debug)]
pub struct AggressiveManager;

impl ContentionManager for AggressiveManager {
    fn name(&self) -> &'static str {
        "aggressive"
    }

    fn decide(&self, ctx: &ConflictCtx) -> CmDecision {
        if ctx.site.can_abort() {
            CmDecision::SelfAbort
        } else {
            CmDecision::Wait { severity: ctx.attempt }
        }
    }
}

/// Jittered exponential backoff, aborting after the configured retry budget.
/// With jitter disabled this is exactly the seed system's bounded conflict
/// manager; the jitter de-synchronizes convoys of equal-aged waiters.
#[derive(Debug)]
pub struct BackoffManager;

impl ContentionManager for BackoffManager {
    fn name(&self) -> &'static str {
        "backoff"
    }

    fn decide(&self, ctx: &ConflictCtx) -> CmDecision {
        if ctx.site.can_abort() && ctx.attempt >= ctx.retry_budget {
            return CmDecision::SelfAbort;
        }
        // Jitter: randomly soften the exponent by one step so that waiters
        // released together do not re-collide in lockstep.
        let severity = ctx.attempt.saturating_sub(jitter_below(2) as u32);
        CmDecision::Wait { severity }
    }
}

/// How many rounds a younger transaction humours an older holder before
/// yielding (a little grace avoids aborting on momentary ownership).
const KARMA_YOUNG_GRACE: u32 = 4;

/// Safety-valve multiplier on the retry budget for an older transaction
/// waiting out a younger holder (breaks pathological cycles involving
/// parties whose age is unknown).
const KARMA_OLD_PATIENCE: u32 = 8;

/// Age-based greedy priority: the atomic block that started first wins.
///
/// Each top-level atomic block draws a monotonically increasing birth ticket
/// on its *first* attempt and keeps it across conflict-induced
/// re-executions, so a transaction's priority — like Karma's accumulated
/// work — survives its aborts. On a transactional conflict the younger
/// party self-aborts after a short grace while the older party waits;
/// ageless holders (anonymous barrier owners, or transactions whose ticket
/// is unknown) are waited out within the normal retry budget.
#[derive(Debug)]
pub struct KarmaManager;

impl ContentionManager for KarmaManager {
    fn name(&self) -> &'static str {
        "karma"
    }

    fn needs_age(&self) -> bool {
        true
    }

    fn decide(&self, ctx: &ConflictCtx) -> CmDecision {
        if !ctx.site.can_abort() {
            return CmDecision::Wait { severity: ctx.attempt };
        }
        match (ctx.my_age, ctx.holder_age) {
            (Some(me), Some(holder)) if me < holder => {
                // I am older: wait the youngster out. The safety valve keeps
                // a cycle of unknown-age parties from hanging the system.
                if ctx.attempt >= ctx.retry_budget.saturating_mul(KARMA_OLD_PATIENCE) {
                    CmDecision::SelfAbort
                } else {
                    // Cap the exponent: an entitled waiter polls briskly.
                    CmDecision::Wait { severity: ctx.attempt.min(6) }
                }
            }
            (Some(_), Some(_)) => {
                // I am younger (ties cannot occur: tickets are unique).
                if ctx.attempt >= KARMA_YOUNG_GRACE.min(ctx.retry_budget) {
                    CmDecision::SelfAbort
                } else {
                    CmDecision::Wait { severity: ctx.attempt }
                }
            }
            _ => {
                // Anonymous or unknown-age holder: behave like Backoff.
                if ctx.attempt >= ctx.retry_budget {
                    CmDecision::SelfAbort
                } else {
                    CmDecision::Wait { severity: ctx.attempt }
                }
            }
        }
    }
}

/// Central conflict funnel: consults the heap's manager, updates telemetry,
/// performs the wait. Returns `Err(())` when the blocked transaction should
/// abort itself (never for non-abortable sites).
///
/// `attempt` is the caller's per-acquisition wait counter; it is incremented
/// on every wait. Callers that eventually succeed should report the final
/// counter through [`Stats::record_wait_span`].
#[inline]
pub(crate) fn resolve(
    heap: &Heap,
    site: ConflictSite,
    me: Option<OwnerToken>,
    holder: Option<RecWord>,
    attempt: &mut u32,
) -> Result<(), ()> {
    resolve_with(heap, site, me, holder, attempt, false)
}

/// [`resolve`] with an *unyielding* flag for escalated ("inevitable-lite")
/// transactions holding the global serialization token: every decision to
/// self-abort on behalf of a peer — the contention manager's and the
/// watchdog's live-holder escape — coerces to a plain wait, so the holder of
/// the token can never be starved out by contention management. Watchdog
/// reclamation of *dead* holders still runs (waiting on a corpse helps
/// nobody), and the open-nesting self-deadlock check fires before this
/// funnel, so unyielding waits stay deadlock-free: peers still yield, and
/// only one unyielding transaction exists per heap.
#[inline]
pub(crate) fn resolve_with(
    heap: &Heap,
    site: ConflictSite,
    me: Option<OwnerToken>,
    holder: Option<RecWord>,
    attempt: &mut u32,
    unyielding: bool,
) -> Result<(), ()> {
    let stats: &Stats = heap.stats();
    if *attempt == 0 {
        stats.conflict_event(site);
    }
    // Serial-mode priority: while an escalated block holds the global
    // serialization token, every abortable optimistic waiter yields its
    // conflicts immediately instead of waiting. The token holder is
    // unabortable, so a waiter holding something the serial transaction
    // needs would otherwise wedge it until a deadline fired; yielding at
    // once keeps the degraded mode's critical path at serial speed and is
    // what makes escalation a progress *guarantee* rather than a priority
    // hint.
    if !unyielding && site.can_abort() && heap.serial_active() {
        stats.cm_self_abort(site);
        stats.record_wait_span(*attempt);
        return Err(());
    }
    // Stuck-owner watchdog: a waiter that has burned through the spin budget
    // (set above every policy's worst-case legitimate wait) stops trusting
    // the holder to make progress. A dead transactional holder is rolled
    // back and its records released, unblocking this spin site; a live (or
    // unidentifiable) holder forces an abortable waiter to self-abort so it
    // cannot spin forever. Non-abortable waiters against live holders keep
    // waiting — there is nothing safe they can do.
    let wd = heap.config().watchdog;
    if wd.enabled && *attempt >= wd.spin_budget {
        if *attempt == wd.spin_budget {
            stats.watchdog_escalation();
        }
        match holder.filter(|h| h.is_txn_exclusive()) {
            Some(h) => match try_reclaim(heap, h) {
                ReclaimOutcome::Reclaimed { .. } => return Ok(()),
                ReclaimOutcome::OwnerAlive | ReclaimOutcome::Unknown => {
                    if site.can_abort() && !unyielding {
                        stats.watchdog_self_abort();
                        stats.record_wait_span(*attempt);
                        return Err(());
                    }
                }
            },
            None => {
                if site.can_abort() && !unyielding {
                    stats.watchdog_self_abort();
                    stats.record_wait_span(*attempt);
                    return Err(());
                }
            }
        }
    }
    let cm = heap.contention();
    let (my_age, holder_age) = if cm.needs_age() {
        (
            me.and_then(|t| heap.age_of_word(t.word())),
            holder
                .filter(|h| h.is_txn_exclusive())
                .and_then(|h| heap.age_of_word(h.raw())),
        )
    } else {
        (None, None)
    };
    let ctx = ConflictCtx {
        site,
        attempt: *attempt,
        me,
        holder,
        my_age,
        holder_age,
        retry_budget: heap.config().conflict_retries,
    };
    match cm.decide(&ctx) {
        CmDecision::SelfAbort if site.can_abort() && !unyielding => {
            stats.cm_self_abort(site);
            stats.record_wait_span(*attempt);
            Err(())
        }
        // Non-abortable party (or the unyielding serialization-token
        // holder): a stray SelfAbort coerces to a plain wait.
        CmDecision::SelfAbort => wait_once(heap, site, ctx.attempt, attempt),
        CmDecision::Wait { severity } => wait_once(heap, site, severity, attempt),
    }
}

#[inline]
fn wait_once(
    heap: &Heap,
    site: ConflictSite,
    severity: u32,
    attempt: &mut u32,
) -> Result<(), ()> {
    let stats = heap.stats();
    stats.cm_wait(site);
    stats.conflict_wait();
    // The sleep-at-wait-site fault (delay-only): a hostile scheduler
    // stretching exactly the rounds a deadline has to account for.
    let _ = crate::fault::hook(heap, crate::fault::FaultSite::WaitSite);
    charge(CostKind::Backoff);
    backoff_wait(severity);
    *attempt = attempt.saturating_add(1);
    Ok(())
}

thread_local! {
    // Fixed seed: each thread starts from the same point but decorrelates
    // as its conflict history (and hence draw count) diverges. A global
    // seeding counter would desynchronize convoys slightly better, but it
    // leaks real-world nondeterminism into the simulated multiprocessor,
    // whose runs must be exactly reproducible.
    static JITTER: Cell<u64> = const { Cell::new(0x9E37_79B9_7F4A_7C15) };
}

/// Cheap thread-local pseudo-random value in `[0, bound)` (xorshift64).
fn jitter_below(bound: u64) -> u64 {
    JITTER.with(|c| {
        let mut x = c.get();
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        c.set(x);
        x % bound
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(site: ConflictSite, attempt: u32) -> ConflictCtx {
        ConflictCtx {
            site,
            attempt,
            me: None,
            holder: None,
            my_age: None,
            holder_age: None,
            retry_budget: 64,
        }
    }

    #[test]
    fn site_indices_are_dense_and_unique() {
        let mut seen = [false; ConflictSite::COUNT];
        for s in ConflictSite::ALL {
            assert!(!seen[s.index()], "duplicate index for {s:?}");
            seen[s.index()] = true;
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn aggressive_aborts_txn_sites_only() {
        let m = AggressiveManager;
        assert_eq!(m.decide(&ctx(ConflictSite::TxnRead, 0)), CmDecision::SelfAbort);
        assert_eq!(m.decide(&ctx(ConflictSite::TxnCommit, 0)), CmDecision::SelfAbort);
        assert!(matches!(
            m.decide(&ctx(ConflictSite::BarrierWrite, 3)),
            CmDecision::Wait { .. }
        ));
        assert!(matches!(
            m.decide(&ctx(ConflictSite::Quiesce, 0)),
            CmDecision::Wait { .. }
        ));
    }

    #[test]
    fn backoff_honours_budget() {
        let m = BackoffManager;
        assert!(matches!(
            m.decide(&ctx(ConflictSite::TxnWrite, 63)),
            CmDecision::Wait { .. }
        ));
        assert_eq!(m.decide(&ctx(ConflictSite::TxnWrite, 64)), CmDecision::SelfAbort);
        // Barriers never abort, however long they have waited.
        assert!(matches!(
            m.decide(&ctx(ConflictSite::BarrierRead, 10_000)),
            CmDecision::Wait { .. }
        ));
    }

    #[test]
    fn backoff_jitter_stays_near_attempt() {
        let m = BackoffManager;
        for attempt in [0u32, 1, 5, 20] {
            for _ in 0..32 {
                match m.decide(&ctx(ConflictSite::TxnRead, attempt)) {
                    CmDecision::Wait { severity } => {
                        assert!(severity <= attempt);
                        assert!(severity >= attempt.saturating_sub(1));
                    }
                    d => panic!("unexpected {d:?}"),
                }
            }
        }
    }

    #[test]
    fn karma_older_waits_younger_aborts() {
        let m = KarmaManager;
        let mut old = ctx(ConflictSite::TxnWrite, KARMA_YOUNG_GRACE + 1);
        old.my_age = Some(1);
        old.holder_age = Some(9);
        assert!(matches!(m.decide(&old), CmDecision::Wait { .. }), "older party waits");

        let mut young = ctx(ConflictSite::TxnWrite, KARMA_YOUNG_GRACE);
        young.my_age = Some(9);
        young.holder_age = Some(1);
        assert_eq!(m.decide(&young), CmDecision::SelfAbort, "younger party yields");

        let mut young_early = ctx(ConflictSite::TxnWrite, 0);
        young_early.my_age = Some(9);
        young_early.holder_age = Some(1);
        assert!(matches!(m.decide(&young_early), CmDecision::Wait { .. }), "grace period");
    }

    #[test]
    fn karma_unknown_age_falls_back_to_budget() {
        let m = KarmaManager;
        assert!(matches!(
            m.decide(&ctx(ConflictSite::TxnRead, 63)),
            CmDecision::Wait { .. }
        ));
        assert_eq!(m.decide(&ctx(ConflictSite::TxnRead, 64)), CmDecision::SelfAbort);
    }

    #[test]
    fn karma_old_safety_valve() {
        let m = KarmaManager;
        let mut old = ctx(ConflictSite::TxnWrite, 64 * KARMA_OLD_PATIENCE);
        old.my_age = Some(1);
        old.holder_age = Some(9);
        assert_eq!(m.decide(&old), CmDecision::SelfAbort, "bounded even when entitled");
    }

    #[test]
    fn policies_build_with_matching_names() {
        for p in ContentionPolicy::ALL {
            assert_eq!(p.build().name(), p.label());
        }
        assert_eq!(ContentionPolicy::default(), ContentionPolicy::Backoff);
    }

    #[test]
    fn jitter_is_bounded() {
        for _ in 0..100 {
            assert!(jitter_below(2) < 2);
        }
    }
}
