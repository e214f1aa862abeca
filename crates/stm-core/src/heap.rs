//! The shared object heap.
//!
//! The paper's system is a Java VM: objects are headers plus typed fields,
//! and every object header carries a transaction record. This module
//! reproduces that substrate. Objects live in an append-only store
//! ([`crate::segvec::SegVec`]) so references ([`ObjRef`]) are plain indices
//! that never dangle; fields are 64-bit words held in atomics so that racy
//! programs (the whole point of the weak-atomicity study) have well-defined
//! Rust semantics. A *shape* describes which fields hold references — needed
//! by `publishObject` (paper Figure 11) to traverse the private object
//! graph — and which are `final` (the JIT elides their barriers, paper §6).

use crate::audit::VersionHighWater;
use crate::clock::VersionClock;
use crate::config::{AdmissionConfig, ClockMode, StmConfig};
use crate::contention::ContentionManager;
use crate::fault::FaultInjector;
use crate::mv::MvTable;
use crate::segvec::SegVec;
use crate::stats::{Stats, StatsSnapshot};
use crate::syncpoint::{current_actor, Script, SyncPoint};
use crate::txnrec::{
    OwnerToken, RecWord, RecordTable, TxnRecord, OWNER_GEN_BITS, OWNER_SLOT_BITS,
};
use crate::watchdog::RecoveryLog;
use parking_lot::{Mutex, RwLock};
use std::cell::{RefCell, UnsafeCell};
use std::collections::HashMap;
use std::num::NonZeroU64;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Weak};

/// A 64-bit field value. Integer fields store the value directly; reference
/// fields store [`ObjRef::to_word`] (0 = null).
pub type Word = u64;

/// A transactional/non-transactional conflict observed by an isolation
/// barrier while [`StmConfig::record_races`] is set — evidence of a data
/// race between code inside and outside transactions (paper §3.2's
/// debugging aid).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct RaceEvent {
    /// The contended object.
    pub obj: ObjRef,
    /// What the non-transactional side was doing.
    pub access: RaceAccess,
    /// The record word observed at detection (identifies the owner state).
    pub holder: crate::txnrec::RecWord,
}

/// The non-transactional access kind in a [`RaceEvent`].
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum RaceAccess {
    /// A barriered read found the object transactionally owned or modified.
    Read,
    /// A barriered write found the object owned.
    Write,
}

/// A reference to a heap object. Copyable, never dangling (objects live as
/// long as their [`Heap`]).
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ObjRef(NonZeroU64);

impl ObjRef {
    #[inline]
    pub(crate) fn from_index(index: usize) -> Self {
        ObjRef(NonZeroU64::new(index as u64 + 1).expect("index + 1 is non-zero"))
    }

    #[inline]
    pub(crate) fn index(self) -> usize {
        (self.0.get() - 1) as usize
    }

    /// Encodes this reference as a field word.
    #[inline]
    pub fn to_word(self) -> Word {
        self.0.get()
    }

    /// Decodes a field word into a reference; `0` is null.
    #[inline]
    pub fn from_word(word: Word) -> Option<ObjRef> {
        NonZeroU64::new(word).map(ObjRef)
    }
}

impl std::fmt::Debug for ObjRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ObjRef(#{})", self.index())
    }
}

/// Identifier of a registered [`Shape`].
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct ShapeId(pub(crate) u32);

/// One declared field of a shape.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FieldDef {
    /// Field name, used by TMIR and diagnostics.
    pub name: String,
    /// Whether the field holds an [`ObjRef`] word.
    pub is_ref: bool,
    /// `final` fields are written only during construction; the JIT elides
    /// their isolation barriers (paper §6).
    pub is_final: bool,
}

impl FieldDef {
    /// A mutable integer field.
    pub fn int(name: &str) -> Self {
        FieldDef { name: name.to_string(), is_ref: false, is_final: false }
    }
    /// A mutable reference field.
    pub fn reference(name: &str) -> Self {
        FieldDef { name: name.to_string(), is_ref: true, is_final: false }
    }
    /// Marks the field `final`.
    pub fn final_(mut self) -> Self {
        self.is_final = true;
        self
    }
}

/// The layout of a class of objects.
#[derive(Clone, Debug)]
pub struct Shape {
    /// Class name (unique per heap).
    pub name: String,
    /// Field declarations, in slot order.
    pub fields: Vec<FieldDef>,
    /// Indices of reference fields (precomputed for `publishObject`).
    pub(crate) ref_fields: Vec<u32>,
}

impl Shape {
    /// Builds a shape, precomputing its reference-slot map.
    pub fn new(name: &str, fields: Vec<FieldDef>) -> Self {
        let ref_fields = fields
            .iter()
            .enumerate()
            .filter(|(_, f)| f.is_ref)
            .map(|(i, _)| i as u32)
            .collect();
        Shape { name: name.to_string(), fields, ref_fields }
    }

    /// Slot index of the field called `name`.
    pub fn field_index(&self, name: &str) -> Option<usize> {
        self.fields.iter().position(|f| f.name == name)
    }
}

/// What kind of object a heap slot holds.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Kind {
    /// A class instance laid out by a [`Shape`].
    Object(ShapeId),
    /// An array of integer words.
    IntArray,
    /// An array of reference words.
    RefArray,
}

/// A heap object: transaction record, kind tag, and field words.
pub(crate) struct Obj {
    pub(crate) rec: TxnRecord,
    pub(crate) kind: Kind,
    pub(crate) fields: Box<[AtomicU64]>,
}

impl Obj {
    #[inline]
    pub(crate) fn field(&self, i: usize) -> &AtomicU64 {
        &self.fields[i]
    }
}

/// A slot in the transaction registry. Every top-level attempt claims one —
/// normally this thread's parked slot — and the slot is the attempt's
/// descriptor for as long as it runs:
///
/// * its identity: the owner token is the slot index plus the slot's
///   generation ([`OwnerToken::for_slot`]), so naming an attempt, asking
///   whether it is alive and finding its recovery log are an index and a
///   generation compare;
/// * its liveness, in the tag bits of the `owner` word;
/// * its Karma birth ticket (age-based contention policies only);
/// * the watchdog's mirrored recovery log;
/// * the quiescence state (paper §3.4): whether the attempt is running and
///   the serial number at which it last reached a consistent state (begin,
///   validate, commit, or abort), and the multiversion snapshot stamp.
///
/// Only the claiming thread writes a live slot, with plain stores; other
/// threads read it, and a reclaimer takes over a dead one by CAS. The slot
/// fills a 128-byte block of its own, so one thread's begin and commit never
/// write a line another thread's attempt uses.
#[repr(align(128))]
#[derive(Debug)]
pub(crate) struct TxnSlot {
    pub(crate) active: AtomicBool,
    pub(crate) vserial: AtomicU64,
    /// Owner-token word of the slot's current (or last) attempt, with its
    /// liveness in the three tag bits, which a token word keeps zero:
    /// exactly the token while the attempt runs (`LIVE`); `| DEAD` once it
    /// unwound without finishing; `| RECLAIMING` while a watchdog reclaimer
    /// drains its log; `| RETIRED` after it finished or was reclaimed. 0 =
    /// never claimed. The next claim derives the next generation from it.
    owner: AtomicUsize,
    /// Karma birth ticket of the running attempt; meaningful only while
    /// `owner` names it and the heap's policy needs ages.
    age: AtomicU64,
    /// Multiversion read stamp (`rv + 1`; 0 = not a snapshot reader).
    /// Published by read-only transactions under [`StmConfig::multiversion`]
    /// so committing writers can compute the oldest snapshot still in use
    /// (the eviction horizon) and not starve a live reader out of the ring.
    pub(crate) rv: AtomicU64,
    /// Free-list link: `index + 1` of the next free slot (0 = end of list).
    /// Owned by the registry's Treiber stack; meaningful only while the
    /// slot is on it.
    next_free: AtomicU64,
    /// The watchdog's mirror of the running attempt's acquisitions and undo
    /// entries. Written only by the slot's live holder, read only by the
    /// reclaimer that moved a dead holder to `RECLAIMING`.
    log: UnsafeCell<RecoveryLog>,
}

// SAFETY: every field but `log` is atomic. `log` has one accessor at a time:
// the thread whose attempt is live in the slot (the only thread that can
// have claimed it), or — once that attempt is marked dead, which the holder
// does itself as it unwinds — the single reclaimer whose CAS moved `owner`
// from `DEAD` to `RECLAIMING`. The holder's `DEAD` store is a release and
// the reclaimer's CAS an acquire, so the reclaimer sees every entry.
unsafe impl Sync for TxnSlot {}

/// Liveness tags in the low bits of a slot's `owner` word.
const LIVE: usize = 0;
const DEAD: usize = 0b001;
const RECLAIMING: usize = 0b010;
const RETIRED: usize = 0b100;
const LIVENESS_MASK: usize = 0b111;

impl TxnSlot {
    fn new() -> Self {
        TxnSlot {
            active: AtomicBool::new(false),
            vserial: AtomicU64::new(0),
            owner: AtomicUsize::new(0),
            age: AtomicU64::new(0),
            rv: AtomicU64::new(0),
            next_free: AtomicU64::new(0),
            log: UnsafeCell::new(RecoveryLog::default()),
        }
    }

    /// Starts the next generation of this (inactive, exclusively claimed)
    /// slot at index `idx`: registers a fresh owner token alive, with the
    /// attempt's birth ticket when the policy uses one, and activates the
    /// slot at `serial`. Plain stores only; `owner` is written before
    /// `active`, so a quiescence waiter that sees the slot active also sees
    /// its live owner, and `active` is stored last.
    fn activate(&self, idx: usize, serial: u64, age: Option<u64>) -> OwnerToken {
        let last = self.owner.load(Ordering::Relaxed);
        let generation = match (last >> 3) >> OWNER_SLOT_BITS {
            g if g + 1 >= 1 << OWNER_GEN_BITS => 1,
            g => g + 1,
        };
        let token = OwnerToken::for_slot(idx, generation);
        // SAFETY: the slot is inactive and claimed by this thread, so no
        // attempt is live in it and no reclaimer holds it.
        unsafe { self.with_log(RecoveryLog::clear) };
        if let Some(age) = age {
            self.age.store(age, Ordering::Release);
        }
        self.rv.store(0, Ordering::Release);
        self.vserial.store(serial, Ordering::Release);
        self.owner.store(token.word(), Ordering::Release);
        self.active.store(true, Ordering::Release);
        token
    }

    /// Runs `f` on the recovery log.
    ///
    /// # Safety
    /// The caller is the slot's only accessor of the log: the thread whose
    /// attempt is live in it (or that is activating it), or the reclaimer
    /// that moved its dead owner to `RECLAIMING`.
    pub(crate) unsafe fn with_log<R>(&self, f: impl FnOnce(&mut RecoveryLog) -> R) -> R {
        f(&mut *self.log.get())
    }

    /// The slot's owner-token word (liveness tag stripped; 0 if never
    /// claimed) and whether that owner is registered alive.
    #[inline]
    pub(crate) fn holder(&self) -> (usize, bool) {
        let w = self.owner.load(Ordering::Acquire);
        (w & !LIVENESS_MASK, w != 0 && w & LIVENESS_MASK == LIVE)
    }

    /// Where `word`'s attempt stands in this slot.
    #[inline]
    pub(crate) fn holder_state(&self, word: usize) -> HolderState {
        let w = self.owner.load(Ordering::Acquire);
        if w & !LIVENESS_MASK != word {
            return HolderState::Gone;
        }
        match w & LIVENESS_MASK {
            LIVE => HolderState::Alive,
            DEAD => HolderState::Dead,
            RECLAIMING => HolderState::Draining,
            _ => HolderState::Gone,
        }
    }

    /// Retires the finished attempt `owner`: its token never names a live
    /// attempt again. Called by the holder before the slot is deactivated.
    #[inline]
    pub(crate) fn retire(&self, owner: OwnerToken) {
        debug_assert_eq!(self.holder_state(owner.word()), HolderState::Alive);
        self.owner.store(owner.word() | RETIRED, Ordering::Release);
    }

    /// Marks `word` dead if it is this slot's live attempt; a no-op for an
    /// attempt that already finished (the slot retired it or moved on to a
    /// later generation). Only the attempt's own thread calls this, so the
    /// load-compare-store cannot race another transition out of `LIVE`.
    fn mark_dead(&self, word: usize) {
        if self.holder_state(word) == HolderState::Alive {
            self.owner.store(word | DEAD, Ordering::Release);
        }
    }

    /// The birth ticket of `word`'s attempt while it is registered here
    /// (alive, or dead and not yet reclaimed). The second look at `owner`
    /// rejects a ticket that a later generation stored meanwhile: the next
    /// claim retires `word` before it writes a new ticket.
    fn age_of(&self, word: usize) -> Option<u64> {
        if self.holder_state(word) == HolderState::Gone {
            return None;
        }
        let age = self.age.load(Ordering::Acquire);
        (self.holder_state(word) != HolderState::Gone).then_some(age)
    }

    /// Moves `word`'s attempt from dead to being reclaimed. The caller that
    /// wins owns the recovery log until it calls [`TxnSlot::end_reclaim`].
    pub(crate) fn begin_reclaim(&self, word: usize) -> Result<(), usize> {
        self.owner
            .compare_exchange(word | DEAD, word | RECLAIMING, Ordering::AcqRel, Ordering::Acquire)
            .map(|_| ())
    }

    /// Ends a reclaim begun with [`TxnSlot::begin_reclaim`]: `retire` drops
    /// the dead attempt's identity for good and frees the slot for its
    /// thread's next attempt; otherwise the owner reads as dead again (an
    /// inspection that changed nothing).
    pub(crate) fn end_reclaim(&self, word: usize, retire: bool) {
        if retire {
            self.owner.store(word | RETIRED, Ordering::Release);
            self.active.store(false, Ordering::Release);
        } else {
            self.owner.store(word | DEAD, Ordering::Release);
        }
    }

}

/// An owner's standing in its registry slot ([`TxnSlot::holder_state`]).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub(crate) enum HolderState {
    /// Registered and running.
    Alive,
    /// Unwound without finishing; its records await reclamation.
    Dead,
    /// Dead, and a reclaimer is draining its recovery log.
    Draining,
    /// Finished or reclaimed (the slot retired the token or moved on).
    Gone,
}

const FREE_IDX_MASK: u64 = 0xffff_ffff;

/// The lock-free transaction-slot table: an append-only [`SegVec`] of slots
/// (stable addresses, index-addressed, iterable in place) plus a
/// Treiber-style free list of retired slot indices. The free-list head is
/// tagged — low 32 bits `index + 1` (0 = empty), high 32 bits a pop counter
/// — so a stale CAS cannot splice the list through a reused head (ABA).
///
/// Slots parked in a thread's [`SlotCache`] are *not* on the free list;
/// only their owning thread ever activates them, which is what makes the
/// cached claim plain stores instead of a CAS.
#[derive(Debug, Default)]
pub(crate) struct Registry {
    /// First segment of four slots: the registry holds about one slot per
    /// thread, so it starts small and doubles.
    slots: SegVec<TxnSlot, 2>,
    free_head: AtomicU64,
}

impl Registry {
    /// The slot at `idx`. Indices come from [`Heap::claim_txn_slot`] and
    /// are always initialized.
    #[inline]
    pub(crate) fn slot(&self, idx: usize) -> &TxnSlot {
        self.slots.get(idx).expect("slot index was issued by this registry")
    }

    /// The slot an owner-token word names, if the registry has one there.
    /// Words decoded from shared memory may name any index; this never
    /// panics.
    #[inline]
    pub(crate) fn owner_slot(&self, word: usize) -> Option<&TxnSlot> {
        self.slots.get(OwnerToken::from_word(word).slot())
    }

    /// Number of slots ever created — bounded by peak transaction
    /// concurrency (plus one parked slot per thread), never by the number
    /// of transactions run.
    pub(crate) fn len(&self) -> usize {
        self.slots.len()
    }

    /// In-place iteration over every slot: no clone, no lock.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (usize, &TxnSlot)> {
        self.slots.iter().enumerate()
    }

    /// Pops a free slot or appends a fresh one. Either way the slot is
    /// inactive and exclusively the caller's until it activates it.
    fn acquire(&self) -> usize {
        self.pop_free().unwrap_or_else(|| {
            let idx = self.slots.push(TxnSlot::new());
            assert!(
                idx < 1 << OWNER_SLOT_BITS,
                "transaction registry outgrew the owner-token slot field"
            );
            idx
        })
    }

    fn push_free(&self, idx: usize) {
        let slot = self.slot(idx);
        debug_assert!(!slot.active.load(Ordering::Acquire), "free-listing an active slot");
        let mut head = self.free_head.load(Ordering::Acquire);
        loop {
            slot.next_free.store(head & FREE_IDX_MASK, Ordering::Release);
            let tag = (head >> 32).wrapping_add(1);
            let new = (tag << 32) | (idx as u64 + 1);
            match self
                .free_head
                .compare_exchange_weak(head, new, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => return,
                Err(cur) => head = cur,
            }
        }
    }

    fn pop_free(&self) -> Option<usize> {
        let mut head = self.free_head.load(Ordering::Acquire);
        loop {
            let idx1 = head & FREE_IDX_MASK;
            if idx1 == 0 {
                return None;
            }
            let idx = (idx1 - 1) as usize;
            let next = self.slot(idx).next_free.load(Ordering::Acquire);
            let tag = (head >> 32).wrapping_add(1);
            let new = (tag << 32) | (next & FREE_IDX_MASK);
            match self
                .free_head
                .compare_exchange_weak(head, new, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => return Some(idx),
                Err(cur) => head = cur,
            }
        }
    }
}

/// Source of process-unique heap identities for the per-thread slot cache.
static HEAP_IDS: AtomicU64 = AtomicU64::new(1);

/// This thread's parked quiescence slot: claimed once, then reused by every
/// later top-level transaction on the same heap, so steady-state begin
/// never touches the free list. The `Weak` back-reference lets eviction
/// (thread exit or heap switch) return the slot to the owning heap's free
/// list without keeping the heap alive.
struct SlotCache {
    heap_id: u64,
    idx: usize,
    heap: Weak<Heap>,
}

struct SlotCacheCell(Option<SlotCache>);

impl SlotCacheCell {
    /// Returns the cached slot to its heap's free list — unless the heap is
    /// already gone, or the slot is still active (an enclosing transaction
    /// on this thread is using it; its own retire free-lists it once the
    /// cache no longer points there).
    fn evict(&mut self) {
        if let Some(c) = self.0.take() {
            if let Some(heap) = c.heap.upgrade() {
                if !heap.registry.slot(c.idx).active.load(Ordering::Acquire) {
                    heap.registry.push_free(c.idx);
                }
            }
        }
    }
}

impl Drop for SlotCacheCell {
    fn drop(&mut self) {
        self.evict();
    }
}

thread_local! {
    static SLOT_CACHE: RefCell<SlotCacheCell> = const { RefCell::new(SlotCacheCell(None)) };
}

/// Normal birth tickets start here; a Karma priority boost subtracts this
/// base, so boosted ages stay unique and ordered among themselves while
/// sorting below (older than) every unboosted transaction in the system.
pub(crate) const BOOST_BASE: u64 = 1 << 32;

/// The heap-side half of [`AdmissionConfig`]: a sliding window of attempt
/// outcomes whose abort ratio opens and closes the admission gate.
///
/// The window is maintained with relaxed atomics and evaluated by whichever
/// recorder crosses the boundary; concurrent recorders may lose or
/// double-count a few outcomes around a reset. That is deliberate — the
/// monitor is a heuristic pressure gauge feeding a hysteresis gate, not an
/// exact ledger, and keeping it contention-free matters more under exactly
/// the overload it exists to detect.
#[derive(Debug)]
pub(crate) struct AdmissionMonitor {
    config: AdmissionConfig,
    commits: AtomicU64,
    aborts: AtomicU64,
    closed: AtomicBool,
    rejects: AtomicU64,
}

impl AdmissionMonitor {
    fn new(config: AdmissionConfig) -> Self {
        AdmissionMonitor {
            config,
            commits: AtomicU64::new(0),
            aborts: AtomicU64::new(0),
            closed: AtomicBool::new(false),
            rejects: AtomicU64::new(0),
        }
    }

    /// Whether a new top-level transaction may begin. While the gate is
    /// closed, every eighth rejected candidate is admitted anyway as a
    /// probe, so the window keeps sampling live pressure and the gate can
    /// reopen as it drains (otherwise a closed gate with no running
    /// transactions would never see another outcome).
    fn admit(&self) -> bool {
        if !self.closed.load(Ordering::Relaxed) {
            return true;
        }
        self.rejects.fetch_add(1, Ordering::Relaxed) % 8 == 7
    }

    /// Feeds one attempt outcome into the window; the outcome that fills
    /// the window evaluates the abort ratio against the hysteresis band and
    /// resets the counters.
    fn record(&self, aborted: bool) {
        let (a, c) = if aborted {
            (self.aborts.fetch_add(1, Ordering::Relaxed) + 1, self.commits.load(Ordering::Relaxed))
        } else {
            (self.aborts.load(Ordering::Relaxed), self.commits.fetch_add(1, Ordering::Relaxed) + 1)
        };
        let total = a + c;
        if total < (self.config.window.max(16)) as u64 {
            return;
        }
        let ratio = a * 1000 / total;
        if self.closed.load(Ordering::Relaxed) {
            if ratio < self.config.reopen_below_permille as u64 {
                self.closed.store(false, Ordering::Relaxed);
            }
        } else if ratio > self.config.reject_above_permille as u64 {
            self.closed.store(true, Ordering::Relaxed);
        }
        self.aborts.store(0, Ordering::Relaxed);
        self.commits.store(0, Ordering::Relaxed);
    }

    fn closed(&self) -> bool {
        self.closed.load(Ordering::Relaxed)
    }
}

/// RAII holder of the global serialization token (see
/// [`crate::config::TxnPolicy::serialize_after`]): at most one atomic block
/// per heap holds it, and while held the block's conflicts never self-abort
/// on behalf of peers. Dropping releases the token — including when the
/// holder unwinds, so an injected crash at the escalation point cannot
/// strand it.
pub(crate) struct SerialGuard<'h> {
    heap: &'h Heap,
}

impl Drop for SerialGuard<'_> {
    fn drop(&mut self) {
        self.heap.serial_token.store(false, Ordering::Release);
    }
}

/// First segment of the shape table: 16 shapes. Programs declare a handful
/// of classes, and some callers build a fresh heap per run, so the default
/// 4096-slot segment would be mostly dead weight.
const SHAPE_SEG0_BITS: u32 = 4;

/// The shared transactional heap.
///
/// # Examples
/// ```
/// use stm_core::heap::{FieldDef, Heap, Shape};
/// use stm_core::config::StmConfig;
///
/// let heap = Heap::new(StmConfig::default());
/// let point = heap.define_shape(Shape::new(
///     "Point",
///     vec![FieldDef::int("x"), FieldDef::int("y")],
/// ));
/// let p = heap.alloc(point);
/// heap.write_raw(p, 0, 42);
/// assert_eq!(heap.read_raw(p, 0), 42);
/// ```
pub struct Heap {
    /// Process-unique identity, compared by the per-thread slot cache to
    /// tell whether its parked slot belongs to *this* heap.
    heap_id: u64,
    /// Back-reference handed to slot caches so thread-exit eviction can
    /// find the registry without keeping the heap alive.
    self_weak: Weak<Heap>,
    store: SegVec<Obj>,
    /// Where conflict-detection records live: embedded per object or in a
    /// striped global table ([`crate::config::Granularity`]). All protocol
    /// code reaches records through [`Heap::guard`] / [`Heap::guard_load`],
    /// which is what makes the engines granularity-agnostic.
    pub(crate) table: RecordTable,
    /// Registered shapes, indexed by [`ShapeId`]. Append-only and read
    /// without a lock: the write and aggregate barriers, the eager write and
    /// every allocation borrow a shape from here.
    shapes: SegVec<Shape, SHAPE_SEG0_BITS>,
    /// Name → id. Its write lock serializes [`Heap::define_shape`], which
    /// keeps ids dense and names unique; no hot path takes it.
    shape_names: RwLock<HashMap<String, ShapeId>>,
    pub(crate) config: StmConfig,
    pub(crate) stats: Stats,
    script_active: AtomicBool,
    script: RwLock<Option<Arc<Script>>>,
    /// Global serialization counter for quiescence (paper §3.4).
    pub(crate) serial: AtomicU64,
    /// The transaction registry: one slot per running attempt, holding its
    /// owner identity, liveness, age and recovery log.
    pub(crate) registry: Registry,
    races: Mutex<Vec<RaceEvent>>,
    /// The contention manager built from [`StmConfig::contention`].
    cm: Arc<dyn ContentionManager>,
    /// `cm.needs_age()`, read once: whether blocks draw birth tickets and
    /// attempts store them in their registry slots.
    needs_age: bool,
    /// Birth-ticket source for age-based contention policies.
    age_counter: AtomicU64,
    /// The global version clock (TL2 protocol; see [`crate::clock`]). One
    /// source of time for everything: optimistic reads validate against a
    /// begin-time sample of it (`version <= rv`), committing writers release
    /// their records at a stamp drawn from it (the record-word version *is*
    /// the commit timestamp), snapshot-isolation first-committer-wins
    /// compares those stamps, and the multi-version visibility cursor is
    /// its trailing `visible` half.
    pub(crate) clock: VersionClock,
    /// Multi-version table: per-field bounded rings of committed
    /// `(stamp, value)` versions. `Some` iff [`StmConfig::multiversion`] is
    /// on; committing writers install into it (reusing the SI commit clock)
    /// and read-only transactions serve snapshot reads from it.
    pub(crate) mv: Option<MvTable>,
    /// Armed fault injector (from [`StmConfig::fault`]).
    fault: Option<FaultInjector>,
    /// Overload admission monitor (from [`StmConfig::admission`]).
    admission: Option<AdmissionMonitor>,
    /// The global serialization token for escalated ("inevitable-lite")
    /// blocks; held through [`SerialGuard`].
    serial_token: AtomicBool,
    /// High-water version marks maintained by [`Heap::audit`].
    pub(crate) audit_versions: VersionHighWater,
}

impl Heap {
    /// Creates a heap with the given configuration.
    ///
    /// Normalization: `IsolationLevel::QuiescencePrivatization` *is* the
    /// commit-time-quiescence-only discipline, so it forces
    /// [`StmConfig::quiescence`] on — a caller cannot construct the level
    /// without its one remaining protection.
    pub fn new(mut config: StmConfig) -> Arc<Heap> {
        if config.isolation.elides_barriers() {
            config.quiescence = true;
        }
        // Multi-version publication is strictly in-order over commit
        // stamps, so it needs the unique, gapless stamps only the global
        // counter provides: the thread-local clock is coerced back.
        if config.multiversion && config.clock == ClockMode::ThreadLocal {
            config.clock = ClockMode::Global;
        }
        let config_clock = config.clock;
        let cm = config.contention.build();
        let needs_age = cm.needs_age();
        let fault = config.fault.map(FaultInjector::new);
        let table = RecordTable::new(config.granularity);
        let mv = config.multiversion.then(MvTable::default);
        let admission = config.admission.map(AdmissionMonitor::new);
        Arc::new_cyclic(|weak| Heap {
            heap_id: HEAP_IDS.fetch_add(1, Ordering::Relaxed),
            self_weak: weak.clone(),
            store: SegVec::new(),
            table,
            shapes: SegVec::empty(),
            shape_names: RwLock::new(HashMap::new()),
            config,
            stats: Stats::new(),
            script_active: AtomicBool::new(false),
            script: RwLock::new(None),
            serial: AtomicU64::new(1),
            registry: Registry::default(),
            races: Mutex::new(Vec::new()),
            cm,
            needs_age,
            age_counter: AtomicU64::new(BOOST_BASE),
            clock: VersionClock::new(config_clock),
            mv,
            fault,
            admission,
            serial_token: AtomicBool::new(false),
            audit_versions: VersionHighWater::default(),
        })
    }

    /// Claims a registry slot for an attempt beginning at `serial` and
    /// registers the attempt in it: returns the slot index and the
    /// attempt's owner token (the slot index plus the slot's next
    /// generation). `age` is stored only when the contention policy uses
    /// birth tickets.
    ///
    /// Fast path: this thread's parked slot. A parked slot is never on the
    /// free list, so only this thread can activate it — no CAS is needed,
    /// just plain stores to a line no other attempt writes.
    ///
    /// If the parked slot is already active, an enclosing transaction on
    /// this thread (open nesting) is using it, or an attempt of this thread
    /// died in it and awaits reclamation: fall through to the shared
    /// acquire path without touching the cache. If the cache points at a
    /// *different* heap, evict its slot back to that heap and re-park here.
    pub(crate) fn claim_txn_slot(&self, serial: u64, age: u64) -> (usize, OwnerToken) {
        let idx = SLOT_CACHE
            .try_with(|cell| {
                let mut cell = cell.borrow_mut();
                if let Some(c) = cell.0.as_ref() {
                    if c.heap_id == self.heap_id {
                        if self.registry.slot(c.idx).active.load(Ordering::Acquire) {
                            return self.registry.acquire();
                        }
                        return c.idx;
                    }
                }
                cell.evict();
                let idx = self.registry.acquire();
                cell.0 = Some(SlotCache {
                    heap_id: self.heap_id,
                    idx,
                    heap: self.self_weak.clone(),
                });
                idx
            })
            // TLS already torn down (transaction inside a thread-local
            // destructor): no cache to consult, use the shared path.
            .unwrap_or_else(|_| self.registry.acquire());
        let owner = self.registry.slot(idx).activate(idx, serial, self.needs_age.then_some(age));
        (idx, owner)
    }

    /// Returns a (deactivated) slot after the transaction finished: parked
    /// slots stay parked for the next begin on this thread; any other slot
    /// goes back on the free list.
    pub(crate) fn retire_txn_slot(&self, idx: usize) {
        debug_assert!(
            !self.registry.slot(idx).active.load(Ordering::Acquire),
            "retiring a still-active slot"
        );
        let parked = SLOT_CACHE
            .try_with(|cell| {
                cell.borrow()
                    .0
                    .as_ref()
                    .is_some_and(|c| c.heap_id == self.heap_id && c.idx == idx)
            })
            .unwrap_or(false);
        if !parked {
            self.registry.push_free(idx);
        }
    }

    /// The quiescence slot at `idx`.
    #[inline]
    pub(crate) fn txn_slot(&self, idx: usize) -> &TxnSlot {
        self.registry.slot(idx)
    }

    /// Number of quiescence slots ever created. Bounded by peak transaction
    /// concurrency plus one parked slot per thread that has run here — not
    /// by the number of transactions — which the churn stress tests assert.
    pub fn txn_slot_count(&self) -> usize {
        self.registry.len()
    }

    /// Where the attempt named by `owner_word` stands in its registry slot.
    fn holder_state(&self, owner_word: usize) -> HolderState {
        self.registry
            .owner_slot(owner_word)
            .map_or(HolderState::Gone, |s| s.holder_state(owner_word))
    }

    /// Whether the attempt named by `owner_word` is registered alive.
    #[cfg(test)]
    pub(crate) fn owner_alive(&self, owner_word: usize) -> bool {
        self.holder_state(owner_word) == HolderState::Alive
    }

    /// Whether the attempt named by `owner_word` died unfinished and has not
    /// been reclaimed yet.
    pub(crate) fn owner_dead(&self, owner_word: usize) -> bool {
        matches!(self.holder_state(owner_word), HolderState::Dead | HolderState::Draining)
    }

    /// The armed fault injector, if [`StmConfig::fault`] set one.
    #[inline]
    pub(crate) fn fault_injector(&self) -> Option<&FaultInjector> {
        self.fault.as_ref()
    }

    /// Marks the attempt named by `owner_word` dead. Called by the runner's
    /// token guard when an attempt unwinds without committing or aborting;
    /// a no-op for an attempt that already finished.
    pub(crate) fn owner_vanished(&self, owner_word: usize) {
        if let Some(slot) = self.registry.owner_slot(owner_word) {
            slot.mark_dead(owner_word);
        }
    }

    /// This heap's configuration.
    pub fn config(&self) -> &StmConfig {
        &self.config
    }

    /// Runtime counters.
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// Point-in-time snapshot of all runtime counters, including the
    /// per-site contention telemetry and wait-span histogram.
    pub fn stats_snapshot(&self) -> StatsSnapshot {
        self.stats.snapshot()
    }

    /// The installed contention manager.
    pub fn contention(&self) -> &dyn ContentionManager {
        self.cm.as_ref()
    }

    /// Whether a new top-level transaction may begin right now. Always true
    /// without an [`StmConfig::admission`] controller; with one, false while
    /// the overload gate is closed (except for the occasional probe that
    /// keeps the window sampling).
    pub(crate) fn admit(&self) -> bool {
        self.admission.as_ref().is_none_or(|m| m.admit())
    }

    /// Feeds one attempt outcome (commit or conflict-abort) into the
    /// admission monitor's sliding window, if one is armed.
    pub(crate) fn admission_record(&self, aborted: bool) {
        if let Some(m) = &self.admission {
            m.record(aborted);
        }
    }

    /// Whether the overload admission gate is currently closed (load
    /// shedding active). Always false without an admission controller.
    pub fn admission_closed(&self) -> bool {
        self.admission.as_ref().is_some_and(|m| m.closed())
    }

    /// Whether some escalated block currently holds the serialization
    /// token. Optimistic transactions consult this to yield conflicts to
    /// the (unabortable) token holder immediately instead of waiting it
    /// out.
    pub(crate) fn serial_active(&self) -> bool {
        self.serial_token.load(Ordering::Relaxed)
    }

    /// Tries to take the global serialization token for an escalated block.
    /// At most one holder per heap; `None` if another block holds it.
    pub(crate) fn try_serialize(&self) -> Option<SerialGuard<'_>> {
        self.serial_token
            .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_ok()
            .then(|| SerialGuard { heap: self })
    }

    /// Draws a fresh birth ticket for an atomic block (monotonic; lower =
    /// older). Used by age-based contention policies. Tickets start at
    /// [`BOOST_BASE`] so a Karma priority boost (subtracting the base) maps
    /// starving blocks into a reserved below-normal band, still unique and
    /// ordered among themselves. Under a policy that ignores ages no ticket
    /// is drawn — the shared counter is left alone — and every block gets
    /// [`BOOST_BASE`].
    pub(crate) fn issue_age(&self) -> u64 {
        if self.needs_age {
            self.age_counter.fetch_add(1, Ordering::Relaxed)
        } else {
            BOOST_BASE
        }
    }

    /// Birth ticket of the attempt whose owner token encodes to `word`,
    /// while it is registered in its slot (and the policy uses ages).
    pub(crate) fn age_of_word(&self, word: usize) -> Option<u64> {
        if !self.needs_age {
            return None;
        }
        self.registry.owner_slot(word)?.age_of(word)
    }

    /// Registers a shape; names must be unique.
    ///
    /// # Panics
    /// Panics if a shape with the same name already exists.
    pub fn define_shape(&self, shape: Shape) -> ShapeId {
        let mut names = self.shape_names.write();
        assert!(
            !names.contains_key(&shape.name),
            "shape {:?} already defined",
            shape.name
        );
        let name = shape.name.clone();
        let id = ShapeId(self.shapes.push(shape) as u32);
        names.insert(name, id);
        id
    }

    /// Looks up a shape by name.
    pub fn shape_id(&self, name: &str) -> Option<ShapeId> {
        self.shape_names.read().get(name).copied()
    }

    /// The shape for `id`.
    ///
    /// # Panics
    /// Panics if `id` was not issued by this heap.
    #[inline]
    pub fn shape(&self, id: ShapeId) -> &Shape {
        self.shapes
            .get(id.0 as usize)
            .expect("ShapeId was issued by this heap")
    }

    fn fresh_record(&self, force_public: bool) -> TxnRecord {
        if self.config.dea && !force_public {
            TxnRecord::new_private()
        } else {
            TxnRecord::new_shared()
        }
    }

    fn alloc_obj(&self, kind: Kind, len: usize, force_public: bool) -> ObjRef {
        let fields: Box<[AtomicU64]> = (0..len).map(|_| AtomicU64::new(0)).collect();
        let idx = self.store.push(Obj {
            rec: self.fresh_record(force_public),
            kind,
            fields,
        });
        ObjRef::from_index(idx)
    }

    /// Allocates an instance of `shape`, zero-initialized. Under dynamic
    /// escape analysis the object starts *private* (paper §4: "a freshly
    /// minted object is private").
    pub fn alloc(&self, shape: ShapeId) -> ObjRef {
        let len = self.shape(shape).fields.len();
        self.alloc_obj(Kind::Object(shape), len, false)
    }

    /// Allocates an instance already in the public (shared) state, e.g. for
    /// global roots that are shared by construction.
    pub fn alloc_public(&self, shape: ShapeId) -> ObjRef {
        let len = self.shape(shape).fields.len();
        self.alloc_obj(Kind::Object(shape), len, true)
    }

    /// Allocates an integer array of `len` zeroed elements.
    pub fn alloc_int_array(&self, len: usize) -> ObjRef {
        self.alloc_obj(Kind::IntArray, len, false)
    }

    /// Allocates an integer array already public (models Java `static`
    /// arrays, which are visible to all threads — the `mpegaudio` case of
    /// paper §7).
    pub fn alloc_int_array_public(&self, len: usize) -> ObjRef {
        self.alloc_obj(Kind::IntArray, len, true)
    }

    /// Allocates a reference array of `len` null elements.
    pub fn alloc_ref_array(&self, len: usize) -> ObjRef {
        self.alloc_obj(Kind::RefArray, len, false)
    }

    /// Allocates a public reference array.
    pub fn alloc_ref_array_public(&self, len: usize) -> ObjRef {
        self.alloc_obj(Kind::RefArray, len, true)
    }

    #[inline]
    pub(crate) fn obj(&self, r: ObjRef) -> &Obj {
        self.store
            .get(r.index())
            .expect("ObjRef refers to an initialized heap slot")
    }

    /// Checked object lookup: `None` when `r` does not name an initialized
    /// heap slot. Used where an [`ObjRef`] was decoded from a *word read
    /// out of shared memory* — a panic-unwound writer can leave a
    /// half-written reference field behind until rollback or watchdog
    /// reclamation restores it, and following such a word must degrade
    /// gracefully instead of panicking.
    #[inline]
    pub(crate) fn try_obj(&self, r: ObjRef) -> Option<&Obj> {
        self.store.get(r.index())
    }

    /// The object's kind tag.
    pub fn kind(&self, r: ObjRef) -> Kind {
        self.obj(r).kind
    }

    /// Number of field slots (array length for arrays).
    pub fn num_fields(&self, r: ObjRef) -> usize {
        self.obj(r).fields.len()
    }

    /// Whether slot `field` of `r` holds a reference.
    pub fn field_is_ref(&self, r: ObjRef, field: usize) -> bool {
        self.slot_is_ref(self.obj(r).kind, field)
    }

    /// Whether slot `field` of an object of kind `kind` holds a reference.
    pub(crate) fn slot_is_ref(&self, kind: Kind, field: usize) -> bool {
        match kind {
            Kind::Object(s) => self.shape(s).fields[field].is_ref,
            Kind::IntArray => false,
            Kind::RefArray => true,
        }
    }

    /// True if the object's record is currently in the private state.
    ///
    /// Privacy always lives in the embedded per-object record, regardless of
    /// the conflict-detection granularity: a striped slot is shared between
    /// objects and can never carry one object's privacy bit.
    pub fn is_private(&self, r: ObjRef) -> bool {
        self.obj(r).rec.load_relaxed().is_private()
    }

    /// The atomic record cell *guarding* `r` for conflict detection: the
    /// embedded header record in per-object mode, the address-hashed stripe
    /// slot in striped mode.
    ///
    /// Callers performing state transitions (BTR, CAS, release) go through
    /// this; callers that only need the merged state (including privacy)
    /// use [`Heap::guard_load`].
    ///
    /// `obj` must be `r`'s object, already resolved by the caller: a hot
    /// path looks the object up once per access and derives the record
    /// from it, instead of walking the object store again here.
    #[inline]
    pub(crate) fn guard<'a>(&'a self, r: ObjRef, obj: &'a Obj) -> &'a TxnRecord {
        match &self.table {
            RecordTable::PerObject => &obj.rec,
            t @ RecordTable::Striped { .. } => t.stripe(t.slot_of_index(r.index())),
        }
    }

    /// Loads the record word guarding `r` (whose object is `obj`), folding
    /// in the privacy state: in striped mode a private object reports
    /// `Private` from its embedded record (private objects never touch
    /// stripe slots); everything else reports the guard's word.
    #[inline]
    pub(crate) fn guard_load(&self, r: ObjRef, obj: &Obj) -> RecWord {
        match &self.table {
            RecordTable::PerObject => obj.rec.load(),
            t @ RecordTable::Striped { .. } => {
                if self.config.dea && obj.rec.load_relaxed().is_private() {
                    return RecWord::private();
                }
                t.stripe(t.slot_of_index(r.index())).load()
            }
        }
    }

    /// The slot key of `r`'s guard. Two objects compare equal exactly when
    /// they share a guard record (never, in per-object mode). Transaction
    /// ownership maps are keyed by this, so a stripe shared by several
    /// written objects is acquired and released exactly once.
    #[inline]
    pub(crate) fn slot_of(&self, r: ObjRef) -> usize {
        self.table.slot_of_index(r.index())
    }

    /// The current global-clock value — the `rv` a beginning transaction
    /// samples. Every read it then performs validates with one O(1)
    /// compare against this; under snapshot isolation it doubles as the
    /// begin stamp first-committer-wins measures against.
    pub(crate) fn clock_now(&self) -> u64 {
        self.clock.now()
    }

    /// Draws a write version (`wv`) from the global clock. Committing
    /// writers call this once, after every lock is held, and release each
    /// written record at the drawn stamp — the record word carries the
    /// commit timestamp from then on.
    ///
    /// On a multiversion heap every drawn stamp MUST subsequently be
    /// published with [`Heap::clock_publish`] (after the commit's version
    /// installs), on a panic-free straight-line path: publication is
    /// in-order, so one unpublished stamp stalls every later publisher.
    pub(crate) fn clock_tick(&self) -> u64 {
        self.clock.tick()
    }

    /// Advances the global clock to at least `target` (the timestamp-
    /// extension healing step: a thread-local-mode stamp can run ahead of
    /// the shared counter). Failed CAS attempts are folded into the
    /// `clock_cas_retries` statistic. Returns the retry count.
    pub(crate) fn clock_advance_to(&self, target: u64) -> u64 {
        let retries = self.clock.advance_to(target);
        if retries > 0 {
            self.stats.clock_cas_retries_add(retries);
        }
        retries
    }

    /// Multiversion: marks commit stamp `stamp` *visible* — all of its
    /// version installs and in-place stores have landed. Publication is
    /// strictly in-order (stamp `n` waits for `n-1`), so
    /// [`Heap::clock_visible`] bounds a prefix-closed set of commits: a
    /// read-only transaction whose `rv` comes from the visible cursor can
    /// never observe one field of a commit without the rest. Idempotent,
    /// so an abort path publishing an orphaned stamp can never wedge or
    /// double-advance.
    ///
    /// The wait is writer-vs-writer only and bounded: the predecessor is
    /// between its clock draw and its publish, a short panic-free span.
    pub(crate) fn clock_publish(&self, stamp: u64) {
        self.clock.publish(stamp);
    }

    /// Multiversion: the newest commit stamp whose effects are fully
    /// installed (see [`Heap::clock_publish`]). Read-only transactions
    /// sample this — not the allocation cursor — as their `rv`.
    pub(crate) fn clock_visible(&self) -> u64 {
        self.clock.visible_now()
    }

    /// Whether the multi-version table is maintained
    /// ([`StmConfig::multiversion`]).
    #[inline]
    pub(crate) fn mv_enabled(&self) -> bool {
        self.mv.is_some()
    }

    /// Multiversion: installs a committed `(stamp, value)` version of
    /// `field` of `r`. The caller owns the guarding record exclusively (or
    /// holds the barrier's anonymous lock), so installs to one ring never
    /// race each other. Eviction is oldest-first; an overtaken reader is
    /// forced to fall back by the ring's floor, never served stale.
    pub(crate) fn mv_install(&self, r: ObjRef, field: usize, stamp: u64, val: Word) {
        if let Some(mv) = &self.mv {
            mv.with_ring(r.index(), field as u32, |ring| ring.install(stamp, val));
            self.stats.mv_version_install();
        }
    }

    /// Multiversion: seeds the ring of `field` of `r` with its pre-image —
    /// the value it held before the first stamped write, valid since
    /// `stamp` (usually 0 = pre-history). A no-op once the ring has any
    /// version.
    pub(crate) fn mv_seed(&self, r: ObjRef, field: usize, stamp: u64, val: Word) {
        if let Some(mv) = &self.mv {
            mv.with_ring(r.index(), field as u32, |ring| ring.seed(stamp, val));
        }
    }

    /// Multiversion: the newest retained version of `field` of `r` with
    /// stamp at most `rv`. `None` means the ring has no such version (never
    /// created, or overflowed past this reader) and the caller must fall
    /// back to the validated path.
    pub(crate) fn mv_read_at(&self, r: ObjRef, field: usize, rv: u64) -> Option<Word> {
        let mv = self.mv.as_ref()?;
        mv.with_existing(r.index(), field as u32, |ring| ring.read_at(rv))
            .flatten()
            .map(|(_, v)| v)
    }

    /// Multiversion: the oldest begin stamp of any live read-only
    /// transaction — the GC horizon. `u64::MAX` when no snapshot reader is
    /// active (only the newest version then needs retaining).
    pub(crate) fn mv_horizon(&self) -> u64 {
        let mut horizon = u64::MAX;
        for (_, slot) in self.registry.iter() {
            if slot.active.load(Ordering::Acquire) {
                let rv1 = slot.rv.load(Ordering::Acquire);
                if rv1 > 0 {
                    horizon = horizon.min(rv1 - 1);
                }
            }
        }
        horizon
    }

    /// Multiversion: drops versions superseded for every possible reader
    /// (strictly older than the newest version at or below the current
    /// horizon). Returns how many versions were reclaimed.
    pub fn mv_gc(&self) -> usize {
        let Some(mv) = &self.mv else { return 0 };
        let horizon = self.mv_horizon();
        let mut dropped = 0;
        mv.for_each(|_, _, ring| dropped += ring.gc(horizon));
        dropped
    }

    /// Number of slots in the striped ownership-record table, or `None` in
    /// per-object mode.
    pub fn stripe_count(&self) -> Option<usize> {
        self.table.stripes()
    }

    /// Current version of the record guarding `r`, if it has one
    /// (diagnostics). In striped mode this is the stripe's version.
    pub fn record_version(&self, r: ObjRef) -> Option<usize> {
        use crate::txnrec::RecState::*;
        match self.guard_load(r, self.obj(r)).state() {
            Shared { version } | ExclusiveAnon { version } => Some(version),
            _ => None,
        }
    }

    /// Raw (weak-atomicity) read: goes directly to memory, bypassing the STM
    /// protocols. This is exactly what the paper means by a
    /// non-transactional access in a weakly atomic system.
    #[inline]
    pub fn read_raw(&self, r: ObjRef, field: usize) -> Word {
        self.obj(r).field(field).load(Ordering::Relaxed)
    }

    /// Raw (weak-atomicity) write.
    #[inline]
    pub fn write_raw(&self, r: ObjRef, field: usize, value: Word) {
        self.obj(r).field(field).store(value, Ordering::Relaxed);
    }

    /// Volatile read (Java `volatile` semantics: sequentially consistent).
    #[inline]
    pub fn read_volatile(&self, r: ObjRef, field: usize) -> Word {
        self.obj(r).field(field).load(Ordering::SeqCst)
    }

    /// Volatile write.
    #[inline]
    pub fn write_volatile(&self, r: ObjRef, field: usize, value: Word) {
        self.obj(r).field(field).store(value, Ordering::SeqCst);
    }

    /// Atomic compare-and-swap on a field (used by lock-free workload code).
    pub fn cas_raw(&self, r: ObjRef, field: usize, expected: Word, new: Word) -> Result<Word, Word> {
        self.obj(r)
            .field(field)
            .compare_exchange(expected, new, Ordering::SeqCst, Ordering::SeqCst)
    }

    /// A process-unique owner token that names no attempt: its slot index is
    /// the top of the slot field, which no registry reaches. For tests that
    /// plant an owner in a record by hand.
    #[cfg(test)]
    pub(crate) fn fresh_owner(&self) -> OwnerToken {
        static NEXT: AtomicUsize = AtomicUsize::new(1);
        OwnerToken::for_slot((1 << OWNER_SLOT_BITS) - 1, NEXT.fetch_add(1, Ordering::Relaxed))
    }

    /// Installs an interleaving script for litmus tests.
    pub fn install_script(&self, script: Arc<Script>) {
        *self.script.write() = Some(script);
        self.script_active.store(true, Ordering::Release);
    }

    /// Removes any installed script.
    pub fn clear_script(&self) {
        self.script_active.store(false, Ordering::Release);
        *self.script.write() = None;
    }

    /// Announces a protocol sync point (no-op unless a script is installed
    /// and the calling thread registered an actor).
    #[inline]
    pub fn hit(&self, point: SyncPoint) {
        if self.script_active.load(Ordering::Relaxed) {
            self.hit_slow(point);
        }
        if let Some(inj) = &self.fault {
            crate::fault::protocol_tick(self, inj);
        }
    }

    #[cold]
    fn hit_slow(&self, point: SyncPoint) {
        if let Some(actor) = current_actor() {
            if let Some(script) = self.script.read().as_ref() {
                script.hit(actor, point);
            }
        }
    }

    /// Total number of objects ever allocated.
    pub fn object_count(&self) -> usize {
        self.store.len()
    }

    /// Records a barrier-detected race (no-op unless
    /// [`StmConfig::record_races`] is set).
    pub(crate) fn note_race(&self, obj: ObjRef, access: RaceAccess, holder: crate::txnrec::RecWord) {
        if self.config.record_races {
            self.races.lock().push(RaceEvent { obj, access, holder });
        }
    }

    /// Races recorded so far (paper §3.2's debugging aid). Empty unless
    /// [`StmConfig::record_races`] is enabled.
    pub fn races(&self) -> Vec<RaceEvent> {
        self.races.lock().clone()
    }
}

impl std::fmt::Debug for Heap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Heap")
            .field("objects", &self.store.len())
            .field("config", &self.config)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_int_shape(heap: &Heap) -> ShapeId {
        heap.define_shape(Shape::new(
            "Pair",
            vec![FieldDef::int("a"), FieldDef::int("b")],
        ))
    }

    #[test]
    fn objref_word_roundtrip() {
        let r = ObjRef::from_index(12345);
        assert_eq!(ObjRef::from_word(r.to_word()), Some(r));
        assert_eq!(ObjRef::from_word(0), None);
    }

    #[test]
    fn alloc_and_raw_access() {
        let heap = Heap::new(StmConfig::default());
        let s = two_int_shape(&heap);
        let o = heap.alloc(s);
        assert_eq!(heap.read_raw(o, 0), 0);
        heap.write_raw(o, 1, 99);
        assert_eq!(heap.read_raw(o, 1), 99);
        assert_eq!(heap.num_fields(o), 2);
        assert_eq!(heap.kind(o), Kind::Object(s));
    }

    #[test]
    fn dea_allocations_start_private() {
        let heap = Heap::new(StmConfig { dea: true, ..StmConfig::default() });
        let s = two_int_shape(&heap);
        assert!(heap.is_private(heap.alloc(s)));
        assert!(!heap.is_private(heap.alloc_public(s)));
        assert!(heap.is_private(heap.alloc_int_array(4)));
        assert!(!heap.is_private(heap.alloc_int_array_public(4)));
    }

    #[test]
    fn non_dea_allocations_start_shared() {
        let heap = Heap::new(StmConfig::default());
        let s = two_int_shape(&heap);
        assert!(!heap.is_private(heap.alloc(s)));
    }

    #[test]
    fn shapes_declare_refness() {
        let heap = Heap::new(StmConfig::default());
        let s = heap.define_shape(Shape::new(
            "Node",
            vec![FieldDef::int("val"), FieldDef::reference("next")],
        ));
        let o = heap.alloc(s);
        assert!(!heap.field_is_ref(o, 0));
        assert!(heap.field_is_ref(o, 1));
        let a = heap.alloc_ref_array(3);
        assert!(heap.field_is_ref(a, 2));
        let b = heap.alloc_int_array(3);
        assert!(!heap.field_is_ref(b, 2));
    }

    #[test]
    #[should_panic(expected = "already defined")]
    fn duplicate_shape_names_rejected() {
        let heap = Heap::new(StmConfig::default());
        two_int_shape(&heap);
        two_int_shape(&heap);
    }

    #[test]
    fn shape_lookup() {
        let heap = Heap::new(StmConfig::default());
        let s = two_int_shape(&heap);
        assert_eq!(heap.shape_id("Pair"), Some(s));
        assert_eq!(heap.shape_id("Missing"), None);
        assert_eq!(heap.shape(s).field_index("b"), Some(1));
        assert_eq!(heap.shape(s).field_index("z"), None);
    }

    #[test]
    fn shape_table_grows_lock_free_under_concurrent_use() {
        // Definers push enough shapes to cross the first segment while
        // readers allocate the shapes defined so far and check ref-ness.
        const DEFINERS: usize = 3;
        const READERS: usize = 3;
        const PER: usize = 40;
        let name = |t: usize, k: usize| format!("D{t}_{k}");
        let heap = Heap::new(StmConfig::default());
        let seed = heap.define_shape(Shape::new(
            "Seed",
            vec![FieldDef::int("v"), FieldDef::reference("next")],
        ));
        let seed_shape: *const Shape = heap.shape(seed);
        let defined = AtomicUsize::new(0);
        let start = std::sync::Barrier::new(READERS + DEFINERS);
        let ids: Vec<(String, ShapeId)> = std::thread::scope(|s| {
            for _ in 0..READERS {
                s.spawn(|| {
                    start.wait();
                    loop {
                        let finished = defined.load(Ordering::Acquire) == DEFINERS;
                        let o = heap.alloc(seed);
                        assert!(!heap.field_is_ref(o, 0) && heap.field_is_ref(o, 1));
                        for t in 0..DEFINERS {
                            for k in 0..PER {
                                let Some(id) = heap.shape_id(&name(t, k)) else { continue };
                                let o = heap.alloc(id);
                                assert_eq!(heap.shape(id).name, name(t, k));
                                assert!(!heap.field_is_ref(o, 0));
                                assert_eq!(heap.field_is_ref(o, 1), k % 2 == 1);
                            }
                        }
                        if finished {
                            break;
                        }
                    }
                });
            }
            let definers: Vec<_> = (0..DEFINERS)
                .map(|t| {
                    let (heap, defined, start) = (&heap, &defined, &start);
                    s.spawn(move || {
                        start.wait();
                        let ids: Vec<_> = (0..PER)
                            .map(|k| {
                                let second = if k % 2 == 1 {
                                    FieldDef::reference("b")
                                } else {
                                    FieldDef::int("b")
                                };
                                let fields = vec![FieldDef::int("a"), second];
                                (name(t, k), heap.define_shape(Shape::new(&name(t, k), fields)))
                            })
                            .collect();
                        defined.fetch_add(1, Ordering::Release);
                        ids
                    })
                })
                .collect();
            definers.into_iter().flat_map(|h| h.join().unwrap()).collect()
        });
        let mut dense: Vec<u32> = ids.iter().map(|(_, id)| id.0).collect();
        dense.sort_unstable();
        assert_eq!(dense, (1..=(DEFINERS * PER) as u32).collect::<Vec<_>>(), "dense, unique ids");
        for (n, id) in &ids {
            assert_eq!(heap.shape_id(n), Some(*id));
            assert_eq!(&heap.shape(*id).name, n);
        }
        assert_eq!(heap.shape_id("Seed"), Some(seed));
        assert!(
            std::ptr::eq(heap.shape(seed), seed_shape),
            "a borrowed shape does not move when the table grows"
        );
    }

    #[test]
    fn cas_raw_works() {
        let heap = Heap::new(StmConfig::default());
        let a = heap.alloc_int_array(1);
        assert!(heap.cas_raw(a, 0, 0, 5).is_ok());
        assert_eq!(heap.cas_raw(a, 0, 0, 6), Err(5));
        assert_eq!(heap.read_raw(a, 0), 5);
    }

    #[test]
    fn registry_reuses_slots() {
        let heap = Heap::new(StmConfig::default());
        let i1 = heap.claim_txn_slot(1, 0).0;
        heap.txn_slot(i1).active.store(false, Ordering::Release);
        heap.retire_txn_slot(i1);
        // The retired slot is parked on this thread and claimed again.
        let i2 = heap.claim_txn_slot(2, 0).0;
        assert_eq!(i1, i2, "parked slot is reused by the same thread");
        // A second concurrent claim (the parked slot is busy) gets a
        // distinct slot.
        let i3 = heap.claim_txn_slot(3, 0).0;
        assert_ne!(i2, i3);
        assert_eq!(heap.txn_slot_count(), 2);
        // Retiring the non-parked slot free-lists it; the table never grows
        // past peak concurrency.
        heap.txn_slot(i3).active.store(false, Ordering::Release);
        heap.retire_txn_slot(i3);
        heap.txn_slot(i2).active.store(false, Ordering::Release);
        heap.retire_txn_slot(i2);
        let a = heap.claim_txn_slot(4, 0).0;
        let b = heap.claim_txn_slot(5, 0).0;
        assert_ne!(a, b);
        assert_eq!(heap.txn_slot_count(), 2);
    }

    #[test]
    fn slot_cache_moves_between_heaps() {
        let h1 = Heap::new(StmConfig::default());
        let h2 = Heap::new(StmConfig::default());
        let i1 = h1.claim_txn_slot(1, 0).0;
        h1.txn_slot(i1).active.store(false, Ordering::Release);
        h1.retire_txn_slot(i1);
        // Claiming on another heap evicts the parked slot back to h1's free
        // list; a later claim on h1 still reuses it (via the free list).
        let j = h2.claim_txn_slot(1, 0).0;
        h2.txn_slot(j).active.store(false, Ordering::Release);
        h2.retire_txn_slot(j);
        let i2 = h1.claim_txn_slot(2, 0).0;
        assert_eq!(i1, i2, "evicted slot was free-listed, not leaked");
        assert_eq!(h1.txn_slot_count(), 1);
    }

    #[test]
    fn clock_counter_has_a_line_of_its_own() {
        // Every committing writer RMWs the clock counter; every open and
        // barrier reads `config` and `store`, every public write `shapes`.
        // The 128-byte block (an adjacent-line prefetch pair) holding the
        // counter must hold none of them.
        let heap = Heap::new(StmConfig::default());
        let clock = heap.clock.counter_addr();
        assert_eq!(clock % 128, 0, "clock counter is not 128-byte aligned");
        let block = |addr: usize| addr / 128;
        let fields = [
            ("config", &heap.config as *const StmConfig as usize, std::mem::size_of::<StmConfig>()),
            ("store", &heap.store as *const SegVec<Obj> as usize, std::mem::size_of::<SegVec<Obj>>()),
            (
                "shapes",
                &heap.shapes as *const SegVec<Shape, SHAPE_SEG0_BITS> as usize,
                std::mem::size_of::<SegVec<Shape, SHAPE_SEG0_BITS>>(),
            ),
        ];
        for (name, start, len) in fields {
            assert!(
                block(clock) < block(start) || block(clock) > block(start + len - 1),
                "clock counter at {clock:#x} shares a 128-byte block with `{name}` \
                 ({start:#x}, {len} bytes)"
            );
        }
    }

    #[test]
    fn registry_slots_do_not_share_lines() {
        let heap = Heap::new(StmConfig::default());
        let (a, _) = heap.claim_txn_slot(0, 0);
        let (b, _) = heap.claim_txn_slot(0, 0);
        let addr = |i| heap.txn_slot(i) as *const TxnSlot as usize;
        assert_eq!(addr(a) % 128, 0);
        assert!(addr(a).abs_diff(addr(b)) >= 128);
    }

    #[test]
    fn owner_tokens_unique() {
        let heap = Heap::new(StmConfig::default());
        let a = heap.fresh_owner();
        let b = heap.fresh_owner();
        assert_ne!(a, b);
    }
}
