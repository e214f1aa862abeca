//! Atomic blocks: the user-facing transaction API.
//!
//! [`atomic`] runs a closure as a transaction against a [`Heap`], dispatching
//! to the eager or lazy engine per the heap's configuration, re-executing on
//! conflict, blocking on user [`Txn::retry`] until the read set changes, and
//! supporting closed nesting ([`Txn::nested`]) and open nesting
//! ([`Txn::open_nested`]).
//!
//! # Examples
//! ```
//! use stm_core::config::StmConfig;
//! use stm_core::heap::{FieldDef, Heap, Shape};
//! use stm_core::txn::atomic;
//!
//! let heap = Heap::new(StmConfig::default());
//! let acct = heap.define_shape(Shape::new("Account", vec![FieldDef::int("balance")]));
//! let a = heap.alloc_public(acct);
//! let b = heap.alloc_public(acct);
//! heap.write_raw(a, 0, 100);
//!
//! atomic(&heap, |tx| {
//!     let from = tx.read(a, 0)?;
//!     let to = tx.read(b, 0)?;
//!     tx.write(a, 0, from - 30)?;
//!     tx.write(b, 0, to + 30)?;
//!     Ok(())
//! });
//! assert_eq!(heap.read_raw(a, 0), 70);
//! assert_eq!(heap.read_raw(b, 0), 30);
//! ```

use crate::config::{TxnPolicy, Versioning};
use crate::cost::backoff_wait;
use crate::eager::EagerTxn;
use crate::fault::{self, FaultSite};
use crate::heap::{Heap, ObjRef, SerialGuard, ShapeId, Word, BOOST_BASE};
use crate::lazy::LazyTxn;
use crate::pipeline::AttemptPolicy;
use crate::stats::TxnTelemetry;
use crate::syncpoint::SyncPoint;
use crate::txnrec::RecWord;
use std::cell::RefCell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

/// Why a transaction attempt stopped. Returned inside `Err` from
/// transactional operations; `?` propagates it to the [`atomic`] runner.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Abort {
    /// A conflict was detected (validation failure or contention budget
    /// exhausted); the atomic block re-executes.
    Conflict,
    /// User-initiated `retry`: the block waits for its read set to change,
    /// then re-executes (paper: "user-initiated retry operations").
    Retry,
    /// User-initiated cancellation: the block rolls back and does not
    /// re-execute. Only meaningful under [`try_atomic`].
    Cancel,
    /// A provable deadlock: the transaction waited on data locked by an
    /// enclosing transaction of the same thread, which can never release it.
    /// The block rolls back and does not re-execute (re-executing would
    /// deadlock identically); [`Txn::open_nested`] escalates it to a panic,
    /// [`try_atomic`] callers observe `None`.
    Deadlock,
    /// The transaction followed a reference word that does not name an
    /// initialized heap object — the signature of state torn by a crashed
    /// participant: a panic-unwound writer's speculative reference, still
    /// in shared memory until rollback or watchdog reclamation restores the
    /// pre-image. The block re-executes like a conflict (validation would
    /// have doomed this attempt anyway); it never dereferences the torn
    /// word.
    Reclaimed,
    /// The block's wait-round deadline ([`crate::config::TxnPolicy::deadline`])
    /// was spent: a wait site that would have blocked aborted the attempt
    /// instead. The attempt rolls back cleanly (the heap stays audit-clean)
    /// and the block does **not** re-execute — [`atomic_with`] /
    /// [`try_atomic_with`] callers observe the typed error. Only raised
    /// *before* the attempt's serialization point; once a commit is past
    /// validation the deadline merely bounds residual quiescence waits.
    DeadlineExceeded,
    /// The block burned its retry budget
    /// ([`crate::config::TxnPolicy::max_retries`]): the final attempt's
    /// abort was an ordinary conflict, but the wrapper refuses to re-execute
    /// and surfaces this instead of looping forever.
    RetryExhausted,
    /// The heap's admission controller ([`crate::config::AdmissionConfig`])
    /// is shedding load: the windowed abort ratio crossed the overload
    /// threshold and this block was rejected *before it touched any shared
    /// state*. Callers should back off, queue, or shed the request; the
    /// gate reopens (with hysteresis) as pressure drains.
    Overloaded,
}

impl std::fmt::Display for Abort {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Abort::Conflict => write!(f, "transaction conflict"),
            Abort::Retry => write!(f, "transaction retry requested"),
            Abort::Cancel => write!(f, "transaction cancelled"),
            Abort::Deadlock => {
                write!(f, "provable self-deadlock on data locked by an enclosing transaction")
            }
            Abort::Reclaimed => {
                write!(f, "followed a torn reference left by a crashed participant")
            }
            Abort::DeadlineExceeded => {
                write!(f, "transaction deadline exceeded while waiting on a conflict")
            }
            Abort::RetryExhausted => {
                write!(f, "transaction retry budget exhausted")
            }
            Abort::Overloaded => {
                write!(f, "transaction rejected by overload admission control")
            }
        }
    }
}

impl std::error::Error for Abort {}

/// Result type of transactional operations.
pub type TxResult<T> = Result<T, Abort>;

/// Declared access mode of an atomic block.
///
/// Under [`StmConfig::multiversion`] a block declared [`TxnKind::ReadOnly`]
/// (via [`atomic_read_only`]) reads a consistent begin-time snapshot from
/// the per-field version rings and commits **wait-free** — no read-set
/// validation, no record acquisition, no aborts. Two events fall off the
/// wait-free path, both by re-executing the block as an ordinary
/// [`TxnKind::ReadWrite`] transaction: a write inside the block (the
/// declaration was wrong), and a ring overflow (the reader outlived the
/// bounded version history — it falls back to the validated path rather
/// than spin or see a torn value). Without multiversion the hint is
/// ignored and the block runs as an ordinary transaction.
///
/// [`StmConfig::multiversion`]: crate::config::StmConfig::multiversion
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub enum TxnKind {
    /// An ordinary transaction (the default): optimistic reads, two-phase
    /// locked writes, commit-time validation.
    #[default]
    ReadWrite,
    /// Declared read-only: serve every read from the newest committed
    /// version at or before the block's begin stamp.
    ReadOnly,
}

thread_local! {
    static ACTIVE_TOKENS: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

/// Whether `word` is the owner token of a transaction currently running on
/// this thread (open-nesting self-deadlock detection). Checked in place —
/// the conflict path must not clone the token stack on every probe.
pub(crate) fn token_is_active(word: usize) -> bool {
    ACTIVE_TOKENS.with(|t| t.borrow().contains(&word))
}

/// Scope guard for one transaction attempt. Besides maintaining the
/// per-thread token stack, its `Drop` doubles as the death oracle for the
/// stuck-owner watchdog: a transaction that commits or aborts retires its
/// token in its registry slot first, so reaching `Drop` with the token still
/// live there means the attempt unwound mid-flight — the owner is marked
/// dead and its records become reclaimable.
struct TokenGuard<'h> {
    heap: &'h Heap,
    token: usize,
}
impl<'h> TokenGuard<'h> {
    fn push(heap: &'h Heap, token: usize) -> Self {
        ACTIVE_TOKENS.with(|t| t.borrow_mut().push(token));
        TokenGuard { heap, token }
    }
}
impl Drop for TokenGuard<'_> {
    fn drop(&mut self) {
        ACTIVE_TOKENS.with(|t| {
            t.borrow_mut().pop();
        });
        self.heap.owner_vanished(self.token);
    }
}

enum Inner<'h> {
    Eager(EagerTxn<'h>),
    Lazy(LazyTxn<'h>),
}

/// A savepoint handle for closed nesting.
enum AnySavePoint {
    Eager(crate::eager::SavePoint),
    Lazy(crate::lazy::LazySavePoint),
}

/// An in-flight transaction, handed to the closure passed to [`atomic`].
pub struct Txn<'h> {
    inner: Inner<'h>,
}

impl<'h> Txn<'h> {
    fn begin(heap: &'h Heap, age: u64, kind: TxnKind, ap: AttemptPolicy) -> Self {
        let inner = match heap.config.versioning {
            Versioning::Eager => Inner::Eager(EagerTxn::new(heap, age, kind, ap)),
            Versioning::Lazy => Inner::Lazy(LazyTxn::new(heap, age, kind, ap)),
        };
        Txn { inner }
    }

    /// The heap this transaction runs against.
    pub fn heap(&self) -> &'h Heap {
        match &self.inner {
            Inner::Eager(t) => t.heap(),
            Inner::Lazy(t) => t.heap(),
        }
    }

    fn owner_word(&self) -> usize {
        match &self.inner {
            Inner::Eager(t) => t.owner_word(),
            Inner::Lazy(t) => t.owner_word(),
        }
    }

    /// Index of this transaction's quiescence slot, if quiescence is
    /// enabled. Exposed for the slot-exclusivity stress tests; not part of
    /// the stable API.
    #[doc(hidden)]
    pub fn quiescence_slot(&self) -> Option<usize> {
        match &self.inner {
            Inner::Eager(t) => t.slot_index(),
            Inner::Lazy(t) => t.slot_index(),
        }
    }

    /// Transactional read of `field` of `r`.
    ///
    /// # Errors
    /// [`Abort::Conflict`] if the conflict-manager budget is exhausted.
    pub fn read(&mut self, r: ObjRef, field: usize) -> TxResult<Word> {
        self.check_target(r)?;
        match &mut self.inner {
            Inner::Eager(t) => t.read(r, field),
            Inner::Lazy(t) => t.read(r, field),
        }
    }

    /// Transactional write of `field` of `r`.
    ///
    /// # Errors
    /// [`Abort::Conflict`] if the conflict-manager budget is exhausted.
    pub fn write(&mut self, r: ObjRef, field: usize, value: Word) -> TxResult<()> {
        self.check_target(r)?;
        match &mut self.inner {
            Inner::Eager(t) => t.write(r, field, value),
            Inner::Lazy(t) => t.write(r, field, value),
        }
    }

    /// Rejects an [`ObjRef`] that does not name an initialized heap object
    /// with [`Abort::Reclaimed`] instead of letting the engines panic on
    /// it. Such refs only arise from decoding a *word read out of shared
    /// memory* — i.e. a speculative reference a crashed (panic-unwound,
    /// not-yet-reclaimed) writer left behind; rolling back and re-executing
    /// reads the restored pre-image.
    #[inline]
    fn check_target(&self, r: ObjRef) -> TxResult<()> {
        let heap = match &self.inner {
            Inner::Eager(t) => t.heap(),
            Inner::Lazy(t) => t.heap(),
        };
        if heap.try_obj(r).is_none() {
            return Err(Abort::Reclaimed);
        }
        Ok(())
    }

    /// Reads a reference field.
    pub fn read_ref(&mut self, r: ObjRef, field: usize) -> TxResult<Option<ObjRef>> {
        Ok(ObjRef::from_word(self.read(r, field)?))
    }

    /// Writes a reference field (`None` stores null).
    pub fn write_ref(&mut self, r: ObjRef, field: usize, value: Option<ObjRef>) -> TxResult<()> {
        self.write(r, field, value.map_or(0, ObjRef::to_word))
    }

    /// Allocates a fresh object (private under DEA, like any allocation).
    pub fn alloc(&mut self, shape: ShapeId) -> ObjRef {
        self.heap().alloc(shape)
    }

    /// User-initiated retry: aborts and blocks until another thread changes
    /// something this transaction read, then re-executes the block.
    pub fn retry<T>(&mut self) -> TxResult<T> {
        self.heap().stats.retry();
        Err(Abort::Retry)
    }

    /// Cancels the atomic block: rolls back without re-executing.
    /// Top-level blocks run with [`try_atomic`] observe `None`; inside
    /// [`Txn::nested`] the enclosing transaction continues.
    pub fn cancel<T>(&mut self) -> TxResult<T> {
        Err(Abort::Cancel)
    }

    /// Validates the read set mid-transaction. Long-running transactions
    /// should call this periodically so that doomed executions stop early
    /// and quiescent committers do not wait on them.
    pub fn validate(&mut self) -> TxResult<()> {
        match &mut self.inner {
            Inner::Eager(t) => t.validate(),
            Inner::Lazy(t) => t.validate(),
        }
    }

    /// Closed-nested block (paper: "closed nesting"): if `f` cancels, only
    /// the nested block's effects roll back and `Ok(None)` is returned;
    /// conflicts and retries propagate to the outermost level.
    pub fn nested<T>(
        &mut self,
        f: impl FnOnce(&mut Txn<'h>) -> TxResult<T>,
    ) -> TxResult<Option<T>> {
        let sp = match &self.inner {
            Inner::Eager(t) => AnySavePoint::Eager(t.savepoint()),
            Inner::Lazy(t) => AnySavePoint::Lazy(t.savepoint()),
        };
        match f(self) {
            Ok(v) => Ok(Some(v)),
            Err(Abort::Cancel) => {
                match (&mut self.inner, sp) {
                    (Inner::Eager(t), AnySavePoint::Eager(sp)) => t.rollback_to(sp),
                    (Inner::Lazy(t), AnySavePoint::Lazy(sp)) => t.rollback_to(sp),
                    _ => unreachable!("savepoint kind matches engine kind"),
                }
                Ok(None)
            }
            Err(e) => Err(e),
        }
    }

    /// Open-nested transaction (paper §3: "closed and open nesting"): runs
    /// `f` as an independent transaction that commits immediately,
    /// regardless of the enclosing transaction's fate. Pair with
    /// [`Txn::on_abort`] to register a compensating action.
    ///
    /// # Panics
    /// Panics if the open-nested code touches data locked by an enclosing
    /// transaction (unresolvable self-deadlock — the engines detect it and
    /// abort with [`Abort::Deadlock`]), or if `f` cancels.
    pub fn open_nested<T>(&mut self, f: impl FnMut(&mut Txn<'_>) -> TxResult<T>) -> T {
        let (v, telem) = try_atomic_traced(self.heap(), f);
        match v {
            Some(v) => v,
            None if telem.deadlocks > 0 => panic!(
                "open-nested transaction accessed data locked by an enclosing \
                 transaction; open-nested code must use disjoint data"
            ),
            None => panic!("open-nested atomic block cancelled; use try_atomic"),
        }
    }

    /// Registers a handler to run if this transaction aborts (compensation
    /// for open-nested effects).
    ///
    /// # Ordering contract
    /// Handlers run in **reverse registration order** (LIFO), mirroring how
    /// compensations must undo effects: the most recent open-nested action
    /// is compensated first. They run on *every* abort path — conflict
    /// re-execution (once per aborted attempt), user cancel, structured
    /// deadlock, and panic-unwind rollback (when
    /// [`crate::config::StmConfig::panic_safety`] is enabled) — after the
    /// transaction's own writes have been rolled back and its records
    /// released.
    pub fn on_abort(&mut self, h: impl FnOnce() + 'h) {
        match &mut self.inner {
            Inner::Eager(t) => t.push_on_abort(Box::new(h)),
            Inner::Lazy(t) => t.push_on_abort(Box::new(h)),
        }
    }

    /// Registers a handler to run after this transaction commits.
    pub fn on_commit(&mut self, h: impl FnOnce() + 'h) {
        match &mut self.inner {
            Inner::Eager(t) => t.push_on_commit(Box::new(h)),
            Inner::Lazy(t) => t.push_on_commit(Box::new(h)),
        }
    }

    fn commit(&mut self) -> TxResult<()> {
        match &mut self.inner {
            Inner::Eager(t) => t.commit(),
            Inner::Lazy(t) => t.commit(),
        }
    }

    fn abort(&mut self) {
        match &mut self.inner {
            Inner::Eager(t) => t.abort(),
            Inner::Lazy(t) => t.abort(),
        }
    }

    fn read_snapshot(&self) -> Vec<(ObjRef, RecWord)> {
        match &self.inner {
            Inner::Eager(t) => t.read_snapshot(),
            Inner::Lazy(t) => t.read_snapshot(),
        }
    }

    fn ro_demoted(&self) -> bool {
        match &self.inner {
            Inner::Eager(t) => t.ro_demoted(),
            Inner::Lazy(t) => t.ro_demoted(),
        }
    }

    fn telemetry(&self) -> TxnTelemetry {
        match &self.inner {
            Inner::Eager(t) => t.telemetry(),
            Inner::Lazy(t) => t.telemetry(),
        }
    }
}

impl std::fmt::Debug for Txn<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            Inner::Eager(t) => t.fmt(f),
            Inner::Lazy(t) => t.fmt(f),
        }
    }
}

/// Runs `f` as an atomic block, re-executing until it commits.
///
/// The block runs under [`TxnPolicy::from_config`] — fully permissive unless
/// the heap's [`StmConfig::deadline`] / [`StmConfig::retry_budget`] opt into
/// bounded progress, in which case policy stops surface as panics here; use
/// [`atomic_with`] / [`try_atomic_with`] to observe them as typed errors.
///
/// [`StmConfig::deadline`]: crate::config::StmConfig::deadline
/// [`StmConfig::retry_budget`]: crate::config::StmConfig::retry_budget
///
/// # Panics
/// Panics if `f` cancels ([`Txn::cancel`]); use [`try_atomic`] for
/// cancellable blocks. Panics if a heap-level progress policy stops the
/// block; use [`atomic_with`] for policy-aware blocks.
pub fn atomic<T>(heap: &Heap, f: impl FnMut(&mut Txn<'_>) -> TxResult<T>) -> T {
    atomic_traced(heap, f).0
}

/// Runs `f` as an atomic block; returns `None` if the block cancelled, hit
/// a provable deadlock, or was stopped by a heap-level progress policy
/// (deadline, retry budget, or admission control — use [`try_atomic_with`]
/// to distinguish those as typed errors).
pub fn try_atomic<T>(heap: &Heap, f: impl FnMut(&mut Txn<'_>) -> TxResult<T>) -> Option<T> {
    try_atomic_traced(heap, f).0
}

/// Runs `f` as a declared-read-only atomic block ([`TxnKind::ReadOnly`]).
///
/// Under [`StmConfig::multiversion`] the block reads a consistent
/// begin-time snapshot and commits wait-free — no validation, no locks, no
/// aborts; if the block writes, or a version ring overflows past the
/// block's snapshot, it transparently re-executes as an ordinary
/// read-write transaction. Without multiversion the hint is ignored.
///
/// [`StmConfig::multiversion`]: crate::config::StmConfig::multiversion
///
/// # Panics
/// Panics if `f` cancels; use [`try_atomic_read_only`] for cancellable
/// blocks.
pub fn atomic_read_only<T>(heap: &Heap, f: impl FnMut(&mut Txn<'_>) -> TxResult<T>) -> T {
    atomic_read_only_traced(heap, f).0
}

/// Like [`atomic_read_only`], but also returns the block's accumulated
/// [`TxnTelemetry`].
///
/// # Panics
/// Panics if `f` cancels.
pub fn atomic_read_only_traced<T>(
    heap: &Heap,
    f: impl FnMut(&mut Txn<'_>) -> TxResult<T>,
) -> (T, TxnTelemetry) {
    let (v, telem) = run_atomic(heap, TxnKind::ReadOnly, TxnPolicy::from_config(&heap.config), f);
    match v {
        Ok(Some(v)) => (v, telem),
        Ok(None) => panic!("top-level atomic block cancelled; use try_atomic_read_only"),
        Err(e) => panic!("atomic block stopped by progress policy ({e}); use try_atomic_with"),
    }
}

/// Runs `f` as a declared-read-only atomic block; returns `None` if the
/// block cancelled, hit a provable deadlock, or was stopped by a heap-level
/// progress policy.
pub fn try_atomic_read_only<T>(heap: &Heap, f: impl FnMut(&mut Txn<'_>) -> TxResult<T>) -> Option<T> {
    run_atomic(heap, TxnKind::ReadOnly, TxnPolicy::from_config(&heap.config), f)
        .0
        .unwrap_or(None)
}

/// Like [`atomic`], but also returns the block's accumulated
/// [`TxnTelemetry`] — attempts, conflicts, wait rounds and self-aborts
/// summed over every re-execution until the commit.
///
/// # Panics
/// Panics if `f` cancels; use [`try_atomic_traced`] for cancellable blocks.
pub fn atomic_traced<T>(
    heap: &Heap,
    f: impl FnMut(&mut Txn<'_>) -> TxResult<T>,
) -> (T, TxnTelemetry) {
    let (v, telem) = run_atomic(heap, TxnKind::ReadWrite, TxnPolicy::from_config(&heap.config), f);
    match v {
        Ok(Some(v)) => (v, telem),
        Ok(None) => panic!("top-level atomic block cancelled; use try_atomic_traced"),
        Err(e) => panic!("atomic block stopped by progress policy ({e}); use try_atomic_with"),
    }
}

/// Runs `f` as an atomic block, accumulating [`TxnTelemetry`] across
/// re-executions; returns `None` if the block cancelled or hit a provable
/// deadlock.
///
/// The runner is panic-safe: an unwind escaping `f` (including injected
/// faults, see [`crate::fault`]) rolls the attempt back — undo log replayed,
/// owned records released, `on_abort` compensations run — before the unwind
/// resumes, so a panicking transaction never strands a lock. Set
/// [`crate::config::StmConfig::panic_safety`] to `false` to model a crashed
/// participant instead; the stuck-owner watchdog then has to reclaim the
/// stranded records.
pub fn try_atomic_traced<T>(
    heap: &Heap,
    f: impl FnMut(&mut Txn<'_>) -> TxResult<T>,
) -> (Option<T>, TxnTelemetry) {
    let (v, telem) = run_atomic(heap, TxnKind::ReadWrite, TxnPolicy::from_config(&heap.config), f);
    // Policy stops (deadline / retry budget / admission) collapse to `None`
    // on the legacy surface; callers that need to distinguish them use
    // `try_atomic_with_traced`.
    (v.unwrap_or(None), telem)
}

/// Runs `f` as an atomic block under an explicit progress [`TxnPolicy`].
///
/// This is the policy-aware front door: a spent
/// [`deadline`](TxnPolicy::deadline) surfaces as
/// [`Abort::DeadlineExceeded`], a burned
/// [`retry budget`](TxnPolicy::max_retries) as [`Abort::RetryExhausted`],
/// and an admission-control rejection ([`crate::config::AdmissionConfig`])
/// as [`Abort::Overloaded`]. Every such stop has already rolled the attempt
/// back cleanly — the heap stays audit-clean and no locks are stranded.
///
/// # Panics
/// Panics if `f` cancels; use [`try_atomic_with`] for cancellable blocks.
pub fn atomic_with<T>(
    heap: &Heap,
    policy: TxnPolicy,
    f: impl FnMut(&mut Txn<'_>) -> TxResult<T>,
) -> Result<T, Abort> {
    let (v, _telem) = try_atomic_with_traced(heap, policy, f);
    Ok(v?.expect("top-level atomic block cancelled; use try_atomic_with"))
}

/// Like [`atomic_with`], but `Ok(None)` reports a cancelled (or provably
/// deadlocked) block instead of panicking.
pub fn try_atomic_with<T>(
    heap: &Heap,
    policy: TxnPolicy,
    f: impl FnMut(&mut Txn<'_>) -> TxResult<T>,
) -> Result<Option<T>, Abort> {
    try_atomic_with_traced(heap, policy, f).0
}

/// Like [`try_atomic_with`], but also returns the block's accumulated
/// [`TxnTelemetry`] (attempts, conflicts, wait rounds — including rounds
/// spent in policy escalation).
pub fn try_atomic_with_traced<T>(
    heap: &Heap,
    policy: TxnPolicy,
    f: impl FnMut(&mut Txn<'_>) -> TxResult<T>,
) -> (Result<Option<T>, Abort>, TxnTelemetry) {
    run_atomic(heap, TxnKind::ReadWrite, policy, f)
}

/// The atomic-block runner: re-executes `f` until it commits or the
/// progress `policy` stops it.
///
/// `Ok(Some(v))` is a commit, `Ok(None)` a cancel or provable deadlock
/// (terminal but not a policy matter), and `Err` a typed policy stop.
///
/// Progress machinery, in escalation order:
/// 1. **Admission** — before touching any shared state, a heap with an
///    [`crate::config::AdmissionConfig`] may shed this block entirely.
/// 2. **Backoff** — aborted attempts re-execute after exponential backoff
///    (the historical behaviour).
/// 3. **Priority boost** — after [`TxnPolicy::boost_after`] failed attempts
///    the block's age ticket drops below every unboosted ticket
///    ([`BOOST_BASE`]), so the karma contention manager resolves conflicts
///    in its favour.
/// 4. **Serialized mode** — after [`TxnPolicy::serialize_after`] failed
///    attempts the block takes the heap's single serialization token and
///    re-executes *unyielding* (inevitable-lite): wait sites never
///    self-abort, so peers back off instead. Deadlock freedom holds because
///    the token is exclusive per heap and self-deadlocks are detected
///    structurally before the unyielding coercion applies. Open-nested
///    blocks never escalate (the enclosing block may hold the token).
/// 5. **Deadline / retry budget** — a block whose cumulative wait rounds
///    spend [`TxnPolicy::deadline`], or whose attempt count reaches
///    [`TxnPolicy::max_retries`], stops with a typed error instead of
///    looping forever.
fn run_atomic<T>(
    heap: &Heap,
    mut kind: TxnKind,
    policy: TxnPolicy,
    mut f: impl FnMut(&mut Txn<'_>) -> TxResult<T>,
) -> (Result<Option<T>, Abort>, TxnTelemetry) {
    let mut telem = TxnTelemetry::default();
    // Open-nested blocks run on a thread already inside a transaction: they
    // bypass admission (the enclosing block was already admitted) and never
    // take the serialization token (the enclosing block may hold it).
    let nested = ACTIVE_TOKENS.with(|t| !t.borrow().is_empty());
    if !nested && !heap.admit() {
        heap.stats.admission_reject();
        return (Err(Abort::Overloaded), telem);
    }
    // One age ticket per atomic block, held across re-executions: this is
    // what lets the karma policy favour long-suffering transactions.
    let mut age = heap.issue_age();
    let mut boosted = false;
    let mut serial_guard: Option<SerialGuard<'_>> = None;
    let mut attempt = 0u32;
    loop {
        // Escalation ladder, keyed on completed attempts. The boost moves
        // this block's ticket below BOOST_BASE — older than every unboosted
        // ticket, still unique among boosted ones (tickets are unique and
        // the subtraction is order-preserving).
        if !boosted && telem.attempts >= policy.boost_after {
            age -= BOOST_BASE;
            boosted = true;
        }
        if serial_guard.is_none() && !nested && telem.attempts >= policy.serialize_after {
            // The escalation fault site sits outside any transaction: it
            // may delay or panic (nothing is held), never abort.
            let _ = fault::hook(heap, FaultSite::Escalation);
            let mut spin = 0u32;
            loop {
                if let Some(g) = heap.try_serialize() {
                    heap.stats.escalation_to_serial();
                    serial_guard = Some(g);
                    break;
                }
                // Waiting for a rival serialized block counts against the
                // deadline like any other wait. No `deadline_abort` stat:
                // there is no transaction to abort yet.
                if policy.deadline.is_some_and(|d| telem.wait_rounds >= d) {
                    return (Err(Abort::DeadlineExceeded), telem);
                }
                telem.wait_rounds = telem.wait_rounds.saturating_add(1);
                backoff_wait(spin);
                spin = spin.saturating_add(1);
            }
        }
        heap.hit(SyncPoint::TxnBegin);
        let ap = AttemptPolicy {
            wait_budget: policy.deadline.map(|d| d.saturating_sub(telem.wait_rounds)),
            unyielding: serial_guard.is_some(),
            isolation: policy.isolation,
        };
        let mut txn = Txn::begin(heap, age, kind, ap);
        let guard = TokenGuard::push(heap, txn.owner_word());
        let result = match catch_unwind(AssertUnwindSafe(|| f(&mut txn))) {
            Ok(r) => r,
            Err(payload) => {
                telem.absorb(txn.telemetry());
                if heap.config.panic_safety {
                    heap.stats.panic_rollback();
                    txn.abort();
                }
                // With panic safety off the transaction is abandoned as-is;
                // the guard's Drop marks its owner dead so the watchdog can
                // reclaim whatever it stranded.
                drop(guard);
                resume_unwind(payload);
            }
        };
        match result {
            Ok(v) => {
                let committed = txn.commit();
                telem.absorb(txn.telemetry());
                match committed {
                    Ok(()) => {
                        heap.admission_record(false);
                        return (Ok(Some(v)), telem);
                    }
                    Err(Abort::Deadlock) => {
                        heap.stats.abort_deadlock();
                        return (Ok(None), telem);
                    }
                    // The engines roll a failed commit back internally; a
                    // deadline spent at a commit-time wait site (e.g. lazy
                    // acquisition) is terminal, anything else re-executes.
                    Err(Abort::DeadlineExceeded) => {
                        heap.stats.deadline_abort();
                        heap.admission_record(true);
                        return (Err(Abort::DeadlineExceeded), telem);
                    }
                    Err(_) => {
                        heap.admission_record(true);
                        drop(guard);
                        if policy.max_retries.is_some_and(|m| telem.attempts >= m) {
                            heap.stats.retry_exhausted();
                            return (Err(Abort::RetryExhausted), telem);
                        }
                        backoff_wait(attempt);
                        attempt = attempt.saturating_add(1);
                    }
                }
            }
            // A deadline raised at a wait site inside `f` — or a policy
            // error a nested policy-aware block propagated out with `?` —
            // rolls back and stops the block.
            Err(e @ (Abort::DeadlineExceeded | Abort::RetryExhausted | Abort::Overloaded)) => {
                telem.absorb(txn.telemetry());
                if e == Abort::DeadlineExceeded {
                    heap.stats.deadline_abort();
                }
                txn.abort();
                heap.admission_record(true);
                return (Err(e), telem);
            }
            Err(Abort::Conflict | Abort::Reclaimed) => {
                telem.absorb(txn.telemetry());
                // A declared-read-only attempt that wrote, or whose version
                // ring overflowed past its snapshot, cannot be retried
                // wait-free: fall back to the validated read-write path for
                // the remaining attempts.
                if txn.ro_demoted() {
                    kind = TxnKind::ReadWrite;
                }
                txn.abort();
                heap.admission_record(true);
                drop(guard);
                if policy.max_retries.is_some_and(|m| telem.attempts >= m) {
                    heap.stats.retry_exhausted();
                    return (Err(Abort::RetryExhausted), telem);
                }
                backoff_wait(attempt);
                attempt = attempt.saturating_add(1);
            }
            Err(Abort::Retry) => {
                telem.absorb(txn.telemetry());
                let snapshot = txn.read_snapshot();
                txn.abort();
                drop(guard);
                let remaining = policy.deadline.map(|d| d.saturating_sub(telem.wait_rounds));
                let (rounds, deadline_hit) = wait_for_change(heap, &snapshot, remaining);
                telem.wait_rounds = telem.wait_rounds.saturating_add(rounds);
                if deadline_hit {
                    // The Retry attempt's abort was already recorded; the
                    // deadline merely stops the wait for a wake-up.
                    heap.admission_record(true);
                    return (Err(Abort::DeadlineExceeded), telem);
                }
                attempt = 0;
            }
            Err(Abort::Cancel) => {
                telem.absorb(txn.telemetry());
                heap.stats.abort_cancel();
                txn.abort();
                return (Ok(None), telem);
            }
            Err(Abort::Deadlock) => {
                telem.absorb(txn.telemetry());
                heap.stats.abort_deadlock();
                txn.abort();
                return (Ok(None), telem);
            }
        }
    }
}

/// Blocks until any record in `snapshot` differs from its logged word, or
/// until `deadline` rounds are spent. Returns the rounds waited and whether
/// the deadline cut the wait short.
///
/// An empty snapshot (a retry before any reads) can never be woken by a
/// write; we back off once and re-execute, which matches the common
/// "retry is a hint" reading and avoids a guaranteed deadlock.
fn wait_for_change(
    heap: &Heap,
    snapshot: &[(ObjRef, RecWord)],
    deadline: Option<u32>,
) -> (u32, bool) {
    if snapshot.is_empty() {
        backoff_wait(8);
        return (1, false);
    }
    let mut attempt = 0u32;
    loop {
        for &(r, logged) in snapshot {
            if heap.guard_load(r, heap.obj(r)) != logged {
                return (attempt, false);
            }
        }
        if deadline.is_some_and(|d| attempt >= d) {
            return (attempt, true);
        }
        backoff_wait(attempt);
        attempt = attempt.saturating_add(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{StmConfig, VersionGranularity, Versioning};
    use crate::heap::{FieldDef, Shape};

    #[test]
    fn torn_reference_is_a_structured_abort_not_a_panic() {
        // A reference word that names no initialized object — what a
        // crashed writer's half-written field looks like — must surface as
        // `Abort::Reclaimed` (and re-execute), never as an engine panic.
        let heap = Heap::new(StmConfig::default());
        let s = heap.define_shape(Shape::new("N", vec![FieldDef::int("v")]));
        let o = heap.alloc_public(s);
        let torn = ObjRef::from_word(0xDEAD_BEEF).unwrap();
        let mut first = true;
        let (v, _telem) = try_atomic_traced(&heap, |tx| {
            if std::mem::take(&mut first) {
                assert_eq!(tx.read(torn, 0), Err(Abort::Reclaimed));
                assert_eq!(tx.write(torn, 0, 1), Err(Abort::Reclaimed));
                return Err(Abort::Reclaimed); // re-execute, as a zombie would
            }
            tx.read(o, 0)
        });
        assert_eq!(v, Some(0));
        heap.audit().assert_clean();
    }
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    fn heap_of(versioning: Versioning) -> Arc<Heap> {
        Heap::new(StmConfig { versioning, ..StmConfig::default() })
    }

    fn counter_shape(heap: &Heap) -> crate::heap::ShapeId {
        heap.define_shape(Shape::new(
            "Counter",
            vec![FieldDef::int("n"), FieldDef::int("m")],
        ))
    }

    fn check_basic(versioning: Versioning) {
        let heap = heap_of(versioning);
        let s = counter_shape(&heap);
        let c = heap.alloc_public(s);
        let out = atomic(&heap, |tx| {
            let v = tx.read(c, 0)?;
            tx.write(c, 0, v + 5)?;
            tx.read(c, 0)
        });
        assert_eq!(out, 5, "read-your-own-writes");
        assert_eq!(heap.read_raw(c, 0), 5);
        assert_eq!(heap.stats().snapshot().commits, 1);
    }

    #[test]
    fn basic_eager() {
        check_basic(Versioning::Eager);
    }

    #[test]
    fn basic_lazy() {
        check_basic(Versioning::Lazy);
    }

    fn check_concurrent_counter(versioning: Versioning) {
        let heap = heap_of(versioning);
        let s = counter_shape(&heap);
        let c = heap.alloc_public(s);
        let threads = 4;
        let per = 500;
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let heap = Arc::clone(&heap);
                std::thread::spawn(move || {
                    for _ in 0..per {
                        atomic(&heap, |tx| {
                            let v = tx.read(c, 0)?;
                            tx.write(c, 0, v + 1)
                        });
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(heap.read_raw(c, 0), (threads * per) as u64);
    }

    #[test]
    fn concurrent_counter_eager() {
        check_concurrent_counter(Versioning::Eager);
    }

    #[test]
    fn concurrent_counter_lazy() {
        check_concurrent_counter(Versioning::Lazy);
    }

    fn check_invariant_pairs(versioning: Versioning) {
        // Writers keep n == m; readers must never observe a broken pair.
        let heap = heap_of(versioning);
        let s = counter_shape(&heap);
        let c = heap.alloc_public(s);
        let violations = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::new();
        for _ in 0..2 {
            let heap = Arc::clone(&heap);
            handles.push(std::thread::spawn(move || {
                for _ in 0..400 {
                    atomic(&heap, |tx| {
                        let n = tx.read(c, 0)?;
                        tx.write(c, 0, n + 1)?;
                        let m = tx.read(c, 1)?;
                        tx.write(c, 1, m + 1)
                    });
                }
            }));
        }
        for _ in 0..2 {
            let heap = Arc::clone(&heap);
            let violations = Arc::clone(&violations);
            handles.push(std::thread::spawn(move || {
                for _ in 0..400 {
                    let (n, m) = atomic(&heap, |tx| Ok((tx.read(c, 0)?, tx.read(c, 1)?)));
                    if n != m {
                        violations.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(violations.load(Ordering::Relaxed), 0, "isolation held");
        assert_eq!(heap.read_raw(c, 0), 800);
        assert_eq!(heap.read_raw(c, 1), 800);
    }

    #[test]
    fn isolation_eager() {
        check_invariant_pairs(Versioning::Eager);
    }

    #[test]
    fn isolation_lazy() {
        check_invariant_pairs(Versioning::Lazy);
    }

    #[test]
    fn try_atomic_cancel_rolls_back() {
        let heap = heap_of(Versioning::Eager);
        let s = counter_shape(&heap);
        let c = heap.alloc_public(s);
        let out: Option<()> = try_atomic(&heap, |tx| {
            tx.write(c, 0, 99)?;
            tx.cancel()
        });
        assert_eq!(out, None);
        assert_eq!(heap.read_raw(c, 0), 0, "write rolled back");
        assert_eq!(heap.stats().snapshot().aborts, 1);
    }

    #[test]
    fn cancel_rolls_back_lazy() {
        let heap = heap_of(Versioning::Lazy);
        let s = counter_shape(&heap);
        let c = heap.alloc_public(s);
        let out: Option<()> = try_atomic(&heap, |tx| {
            tx.write(c, 0, 99)?;
            tx.cancel()
        });
        assert_eq!(out, None);
        assert_eq!(heap.read_raw(c, 0), 0);
    }

    #[test]
    fn nested_cancel_partial_rollback_eager() {
        let heap = heap_of(Versioning::Eager);
        let s = counter_shape(&heap);
        let c = heap.alloc_public(s);
        atomic(&heap, |tx| {
            tx.write(c, 0, 1)?;
            let inner = tx.nested(|tx| {
                tx.write(c, 1, 50)?;
                tx.cancel::<()>()
            })?;
            assert_eq!(inner, None);
            // The nested write must already be rolled back inside the txn.
            assert_eq!(tx.read(c, 1)?, 0);
            Ok(())
        });
        assert_eq!(heap.read_raw(c, 0), 1, "outer write survives");
        assert_eq!(heap.read_raw(c, 1), 0, "nested write rolled back");
    }

    #[test]
    fn nested_cancel_partial_rollback_lazy() {
        let heap = heap_of(Versioning::Lazy);
        let s = counter_shape(&heap);
        let c = heap.alloc_public(s);
        atomic(&heap, |tx| {
            tx.write(c, 0, 1)?;
            tx.nested(|tx| {
                tx.write(c, 1, 50)?;
                tx.cancel::<()>()
            })?;
            assert_eq!(tx.read(c, 1)?, 0);
            Ok(())
        });
        assert_eq!(heap.read_raw(c, 0), 1);
        assert_eq!(heap.read_raw(c, 1), 0);
    }

    #[test]
    fn nested_success_keeps_effects() {
        let heap = heap_of(Versioning::Eager);
        let s = counter_shape(&heap);
        let c = heap.alloc_public(s);
        atomic(&heap, |tx| {
            let inner = tx.nested(|tx| {
                tx.write(c, 1, 7)?;
                Ok(42)
            })?;
            assert_eq!(inner, Some(42));
            Ok(())
        });
        assert_eq!(heap.read_raw(c, 1), 7);
    }

    #[test]
    fn retry_blocks_until_read_set_changes() {
        let heap = heap_of(Versioning::Eager);
        let s = counter_shape(&heap);
        let flag = heap.alloc_public(s);
        let heap2 = Arc::clone(&heap);
        let waiter = std::thread::spawn(move || {
            atomic(&heap2, |tx| {
                let v = tx.read(flag, 0)?;
                if v == 0 {
                    return tx.retry();
                }
                Ok(v)
            })
        });
        std::thread::sleep(std::time::Duration::from_millis(30));
        assert!(!waiter.is_finished(), "retry must block while flag is 0");
        atomic(&heap, |tx| tx.write(flag, 0, 123));
        assert_eq!(waiter.join().unwrap(), 123);
        assert!(heap.stats().snapshot().retries >= 1);
    }

    #[test]
    fn open_nested_commits_despite_outer_cancel() {
        let heap = heap_of(Versioning::Eager);
        let s = counter_shape(&heap);
        let log = heap.alloc_public(s);
        let data = heap.alloc_public(s);
        let out: Option<()> = try_atomic(&heap, |tx| {
            tx.write(data, 0, 5)?;
            tx.open_nested(|otx| {
                let v = otx.read(log, 0)?;
                otx.write(log, 0, v + 1)
            });
            tx.cancel()
        });
        assert_eq!(out, None);
        assert_eq!(heap.read_raw(data, 0), 0, "outer rolled back");
        assert_eq!(heap.read_raw(log, 0), 1, "open-nested effect survives");
    }

    #[test]
    fn on_abort_compensation_runs() {
        let heap = heap_of(Versioning::Eager);
        let s = counter_shape(&heap);
        let log = heap.alloc_public(s);
        let compensated = Arc::new(AtomicU64::new(0));
        let comp2 = Arc::clone(&compensated);
        let _: Option<()> = try_atomic(&heap, |tx| {
            let c = Arc::clone(&comp2);
            tx.open_nested(|otx| otx.write(log, 0, 1));
            tx.on_abort(move || {
                c.fetch_add(1, Ordering::Relaxed);
            });
            tx.cancel()
        });
        assert_eq!(compensated.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn on_commit_runs_once() {
        let heap = heap_of(Versioning::Eager);
        let s = counter_shape(&heap);
        let c = heap.alloc_public(s);
        let ran = Arc::new(AtomicU64::new(0));
        let ran2 = Arc::clone(&ran);
        atomic(&heap, |tx| {
            let r = Arc::clone(&ran2);
            tx.on_commit(move || {
                r.fetch_add(1, Ordering::Relaxed);
            });
            tx.write(c, 0, 1)
        });
        assert_eq!(ran.load(Ordering::Relaxed), 1);
    }

    #[test]
    #[should_panic(expected = "open-nested transaction accessed data locked")]
    fn open_nested_self_deadlock_detected() {
        let heap = heap_of(Versioning::Eager);
        let s = counter_shape(&heap);
        let c = heap.alloc_public(s);
        atomic(&heap, |tx| {
            tx.write(c, 0, 1)?;
            tx.open_nested(|otx| otx.write(c, 0, 2));
            Ok(())
        });
    }

    #[test]
    fn granular_pair_undo_respects_config() {
        // With Pair granularity an abort restores both fields of the span —
        // the mechanism behind granular lost updates (exercised as an
        // anomaly in the litmus crate; here we just check the span logic).
        let heap = Heap::new(StmConfig {
            version_granularity: VersionGranularity::Pair,
            ..StmConfig::default()
        });
        let s = counter_shape(&heap);
        let c = heap.alloc_public(s);
        heap.write_raw(c, 1, 10);
        let _: Option<()> = try_atomic(&heap, |tx| {
            tx.write(c, 0, 5)?; // snapshots fields {0,1}
            tx.cancel()
        });
        assert_eq!(heap.read_raw(c, 0), 0);
        assert_eq!(heap.read_raw(c, 1), 10);
    }

    #[test]
    fn conflicting_writers_one_aborts_and_recovers() {
        // Force a write-write conflict; both transactions must eventually
        // commit thanks to conflict-manager self-abort.
        let heap = Heap::new(StmConfig { conflict_retries: 2, ..StmConfig::default() });
        let s = counter_shape(&heap);
        let c = heap.alloc_public(s);
        let barrier = Arc::new(std::sync::Barrier::new(2));
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let heap = Arc::clone(&heap);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    for _ in 0..200 {
                        atomic(&heap, |tx| {
                            let v = tx.read(c, 0)?;
                            tx.write(c, 0, v + 1)
                        });
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(heap.read_raw(c, 0), 400);
    }

    #[test]
    fn dea_private_objects_in_txn() {
        let heap = Heap::new(StmConfig { dea: true, ..StmConfig::default() });
        let s = heap.define_shape(Shape::new(
            "Box",
            vec![FieldDef::int("v"), FieldDef::reference("r")],
        ));
        let shared = heap.alloc_public(s);
        let result = atomic(&heap, |tx| {
            let p = tx.alloc(s);
            tx.write(p, 0, 11)?; // private write: no lock taken
            tx.write_ref(shared, 1, Some(p))?; // publishes p
            tx.read(p, 0)
        });
        assert_eq!(result, 11);
        let p = ObjRef::from_word(heap.read_raw(shared, 1)).unwrap();
        assert!(!heap.is_private(p), "published by transactional store");
        assert_eq!(heap.read_raw(p, 0), 11);
    }

    #[test]
    fn deadline_exceeded_is_typed_and_rolls_back() {
        // A parks inside a transaction holding the record's lock; B runs
        // under a small deadline and must surface `DeadlineExceeded` (never
        // hang), leaving the heap audit-clean.
        let heap = heap_of(Versioning::Eager);
        let s = counter_shape(&heap);
        let c = heap.alloc_public(s);
        let hold = Arc::new(std::sync::Barrier::new(2));
        let release = Arc::new(std::sync::Barrier::new(2));
        let holder = {
            let (heap, hold, release) = (Arc::clone(&heap), Arc::clone(&hold), Arc::clone(&release));
            std::thread::spawn(move || {
                atomic(&heap, |tx| {
                    tx.write(c, 0, 1)?;
                    hold.wait();
                    release.wait();
                    Ok(())
                });
            })
        };
        hold.wait();
        let policy = TxnPolicy::default().with_deadline(64);
        let out = try_atomic_with(&heap, policy, |tx| tx.write(c, 0, 2));
        release.wait();
        holder.join().unwrap();
        assert_eq!(out, Err(Abort::DeadlineExceeded));
        let snap = heap.stats().snapshot();
        assert_eq!(snap.deadline_aborts, 1);
        assert_eq!(heap.read_raw(c, 0), 1, "the holder's commit stands");
        heap.audit().assert_clean();
    }

    #[test]
    fn retry_budget_exhaustion_is_typed() {
        let heap = heap_of(Versioning::Eager);
        let s = counter_shape(&heap);
        let c = heap.alloc_public(s);
        let policy = TxnPolicy::default().with_max_retries(3);
        let mut runs = 0u32;
        let out: Result<Option<()>, Abort> = try_atomic_with(&heap, policy, |tx| {
            runs += 1;
            tx.write(c, 0, 9)?;
            Err(Abort::Conflict) // a perpetually doomed block
        });
        assert_eq!(out, Err(Abort::RetryExhausted));
        assert_eq!(runs, 3, "exactly max_retries attempts ran");
        assert_eq!(heap.read_raw(c, 0), 0, "every attempt rolled back");
        assert_eq!(heap.stats().snapshot().retries_exhausted, 1);
        heap.audit().assert_clean();
    }

    #[test]
    fn deadline_bounds_a_retry_wait() {
        // `Txn::retry` with nobody around to wake it would wait forever;
        // the deadline turns that into a typed stop.
        let heap = heap_of(Versioning::Eager);
        let s = counter_shape(&heap);
        let flag = heap.alloc_public(s);
        let policy = TxnPolicy::default().with_deadline(32);
        let out: Result<Option<u64>, Abort> = try_atomic_with(&heap, policy, |tx| {
            let v = tx.read(flag, 0)?;
            if v == 0 {
                return tx.retry();
            }
            Ok(v)
        });
        assert_eq!(out, Err(Abort::DeadlineExceeded));
        heap.audit().assert_clean();
    }

    #[test]
    fn admission_control_sheds_load_and_reopens() {
        use crate::config::AdmissionConfig;
        let heap = Heap::new(StmConfig {
            admission: Some(AdmissionConfig {
                window: 16,
                reject_above_permille: 500,
                reopen_below_permille: 300,
            }),
            ..StmConfig::default()
        });
        let s = counter_shape(&heap);
        let c = heap.alloc_public(s);
        // Saturate the window with aborts: each block burns one attempt and
        // feeds the monitor one aborted outcome.
        let doomed = TxnPolicy::default().with_max_retries(1);
        for _ in 0..32 {
            let _ = try_atomic_with(&heap, doomed, |tx| {
                tx.read(c, 0)?;
                Err::<(), _>(Abort::Conflict)
            });
        }
        assert!(heap.admission_closed(), "the gate closed under pure aborts");
        let out = try_atomic_with(&heap, TxnPolicy::default(), |tx| tx.read(c, 0));
        assert_eq!(out, Err(Abort::Overloaded));
        assert!(heap.stats().snapshot().admission_rejects >= 1);
        // Probe admissions that commit drain the window and reopen the gate.
        let mut reopened = false;
        for _ in 0..2048 {
            if try_atomic_with(&heap, TxnPolicy::default(), |tx| tx.read(c, 0)).is_ok()
                && !heap.admission_closed()
            {
                reopened = true;
                break;
            }
        }
        assert!(reopened, "hysteresis reopened the gate");
        heap.audit().assert_clean();
    }

    #[test]
    fn escalation_takes_and_releases_the_serial_token() {
        let heap = heap_of(Versioning::Eager);
        let s = counter_shape(&heap);
        let c = heap.alloc_public(s);
        let policy = TxnPolicy { serialize_after: 0, ..TxnPolicy::default() };
        let out = atomic_with(&heap, policy, |tx| {
            let v = tx.read(c, 0)?;
            tx.write(c, 0, v + 1)?;
            Ok(v + 1)
        });
        assert_eq!(out, Ok(1));
        assert_eq!(heap.stats().snapshot().escalations_to_serial, 1);
        // The token was released: a second serialized block runs fine.
        let out = atomic_with(&heap, policy, |tx| tx.read(c, 0));
        assert_eq!(out, Ok(1));
        heap.audit().assert_clean();
    }

    #[test]
    fn open_nested_inside_escalated_block_does_not_deadlock() {
        let heap = heap_of(Versioning::Eager);
        let s = counter_shape(&heap);
        let log = heap.alloc_public(s);
        let data = heap.alloc_public(s);
        let policy = TxnPolicy { serialize_after: 0, ..TxnPolicy::default() };
        let out = atomic_with(&heap, policy, |tx| {
            tx.write(data, 0, 5)?;
            // The open-nested block must not try to take the serial token
            // its enclosing block holds.
            tx.open_nested(|otx| {
                let v = otx.read(log, 0)?;
                otx.write(log, 0, v + 1)
            });
            Ok(())
        });
        assert_eq!(out, Ok(()));
        assert_eq!(heap.read_raw(log, 0), 1);
        heap.audit().assert_clean();
    }

    #[test]
    fn dea_private_write_rolls_back_on_abort() {
        let heap = Heap::new(StmConfig { dea: true, ..StmConfig::default() });
        let s = counter_shape(&heap);
        // Allocate privately *outside* any transaction.
        let p = heap.alloc(s);
        heap.write_raw(p, 0, 3);
        let _: Option<()> = try_atomic(&heap, |tx| {
            tx.write(p, 0, 77)?;
            tx.cancel()
        });
        assert_eq!(heap.read_raw(p, 0), 3, "private write undone on abort");
        assert!(heap.is_private(p));
    }
}
