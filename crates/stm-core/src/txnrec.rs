//! Transaction-record word encoding (paper Figure 7) and state transitions
//! (paper Figure 8).
//!
//! Every heap object carries one pointer-sized *transaction record* that
//! encodes the object's synchronization state in its three least-significant
//! bits:
//!
//! | Encoding   | State               | Upper bits      |
//! |------------|---------------------|-----------------|
//! | `x..x011`  | Shared              | version number  |
//! | `x..xx00`  | Exclusive           | owner token     |
//! | `x..x010`  | Exclusive anonymous | version number  |
//! | `1..1111`  | Private             | all ones        |
//!
//! The encoding is chosen so that the paper's barrier instruction sequences
//! map onto single atomic read-modify-write operations:
//!
//! * a non-transactional write acquires a *shared* record by atomically
//!   clearing bit 0 (`lock btr [TxRec],0` in the paper), which turns
//!   `Shared(v)` into `ExclusiveAnonymous(v)` in place;
//! * releasing adds the constant [`RELEASE_INCREMENT`] (= 9), which both
//!   increments the version number (bit 3 upward) and restores the `011`
//!   shared tag;
//! * a non-transactional read only needs to test bit 1 to detect a
//!   transactional owner (both shared and exclusive-anonymous states have
//!   bit 1 set, the transactional exclusive state does not);
//! * the private state is all ones, so the private fast path is a single
//!   comparison against `-1`, and — because bit 1 is set — the *optional*
//!   private check in the read barrier can be skipped entirely
//!   (paper §4, Figure 10).

use std::sync::atomic::{AtomicUsize, Ordering};

/// A decoded transaction-record state. See [`RecWord`] for the packed form.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // variant fields are described on the variants
pub enum RecState {
    /// Read-shared; any number of transactions may read optimistically.
    /// Carries the version number used for optimistic read validation.
    Shared { version: usize },
    /// Owned read-write by the transaction identified by `owner`
    /// (a [`OwnerToken`], never zero).
    Exclusive { owner: OwnerToken },
    /// Owned read-write by *some* non-transactional thread; the record does
    /// not say which. Carries the version from the preceding shared state.
    ExclusiveAnon { version: usize },
    /// Visible to a single thread only (dynamic escape analysis, paper §4).
    Private,
}

/// An opaque non-zero token identifying the transaction attempt that owns a
/// record in the [`RecState::Exclusive`] state.
///
/// The paper stores a pointer to the owning transaction's descriptor. Here
/// the descriptor is the attempt's slot in the heap's transaction registry,
/// so the token's id is that slot's index (the low [`OWNER_SLOT_BITS`])
/// plus the slot's generation (the upper [`OWNER_GEN_BITS`]), shifted left
/// so the low three bits are zero — the same encoding constraint
/// (`x..xx00`). Generations start at 1 and advance on every claim of the
/// slot, so a token names one attempt and is never reissued while any
/// record or waiter could still hold it.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct OwnerToken(usize);

/// Bits of an owner id naming the registry slot of the owning attempt.
pub const OWNER_SLOT_BITS: u32 = 24;
/// Bits of an owner id carrying the slot's generation: the rest of the 61
/// bits above the record tag.
pub const OWNER_GEN_BITS: u32 = usize::BITS - 3 - OWNER_SLOT_BITS;
const _: () = assert!(
    OWNER_SLOT_BITS + OWNER_GEN_BITS + 3 == usize::BITS && OWNER_GEN_BITS >= 32,
    "owner ids split the 61 bits above the tag into slot index and generation"
);
const OWNER_SLOT_MASK: usize = (1 << OWNER_SLOT_BITS) - 1;

impl OwnerToken {
    /// Creates a token from a non-zero descriptor id.
    ///
    /// # Panics
    /// Panics if `id` is zero or too large to fit in the upper bits.
    pub fn from_id(id: usize) -> Self {
        assert!(id != 0, "owner token id must be non-zero");
        assert!(
            id <= usize::MAX >> 3,
            "owner token id overflows record encoding"
        );
        OwnerToken(id << 3)
    }

    /// The raw record word for this owner.
    #[inline]
    pub fn word(self) -> usize {
        self.0
    }

    /// The descriptor id this token was built from.
    #[inline]
    pub fn id(self) -> usize {
        self.0 >> 3
    }

    /// Reinterprets an owner-token word read out of shared memory. Only the
    /// tag bits are dropped; the result names a slot and a generation that
    /// need not exist.
    #[inline]
    pub(crate) fn from_word(word: usize) -> Self {
        OwnerToken(word & !TAG_MASK)
    }

    /// The token of generation `generation` of registry slot `slot`.
    ///
    /// # Panics
    /// Panics (in debug builds) if `slot` or `generation` overflows its
    /// field, or `generation` is zero.
    #[inline]
    pub fn for_slot(slot: usize, generation: usize) -> Self {
        debug_assert!(slot <= OWNER_SLOT_MASK, "slot index overflows the owner id");
        debug_assert!(
            generation != 0 && generation < 1 << OWNER_GEN_BITS,
            "generation out of range"
        );
        OwnerToken(((generation << OWNER_SLOT_BITS) | slot) << 3)
    }

    /// The registry slot index encoded in this token.
    #[inline]
    pub fn slot(self) -> usize {
        self.id() & OWNER_SLOT_MASK
    }

    /// The slot generation encoded in this token.
    #[inline]
    pub fn generation(self) -> usize {
        self.id() >> OWNER_SLOT_BITS
    }
}

/// Tag mask covering the three least-significant encoding bits.
pub const TAG_MASK: usize = 0b111;
/// Tag for the shared state.
pub const TAG_SHARED: usize = 0b011;
/// Tag for the exclusive-anonymous state.
pub const TAG_EXCL_ANON: usize = 0b010;
/// The private state is the all-ones word (paper: "All ones").
pub const PRIVATE_WORD: usize = usize::MAX;
/// Adding 9 to an exclusive-anonymous word increments the version (bit 3
/// upward) and restores the shared tag: `(v<<3|010) + 9 == ((v+1)<<3|011)`.
pub const RELEASE_INCREMENT: usize = 9;
/// The largest version number a record word can carry (61 bits on a 64-bit
/// platform). The stamped release primitives mask to this, so a clock stamp
/// past the tag-bit boundary wraps exactly like the `add 9` release does.
pub const MAX_VERSION: usize = usize::MAX >> 3;

/// A packed transaction-record word (paper Figure 7).
///
/// This is a plain value; the atomic cell living in each object header is
/// [`TxnRecord`].
#[derive(Copy, Clone, PartialEq, Eq, Hash)]
pub struct RecWord(usize);

impl RecWord {
    /// Packs a shared record with the given version.
    ///
    /// # Panics
    /// Panics if the version is too large for the upper bits. A version
    /// counter incremented once per release cannot overflow 61 bits in any
    /// realistic execution.
    #[inline]
    pub fn shared(version: usize) -> Self {
        debug_assert!(version <= usize::MAX >> 3, "version overflow");
        // The all-ones word is reserved for Private; a shared word can never
        // equal it because its tag bits are 011.
        RecWord((version << 3) | TAG_SHARED)
    }

    /// Packs an exclusive-anonymous record preserving `version`.
    #[inline]
    pub fn exclusive_anon(version: usize) -> Self {
        debug_assert!(version <= usize::MAX >> 3, "version overflow");
        RecWord((version << 3) | TAG_EXCL_ANON)
    }

    /// Packs an exclusive record owned by `owner`.
    #[inline]
    pub fn exclusive(owner: OwnerToken) -> Self {
        RecWord(owner.word())
    }

    /// The private record word (all ones).
    #[inline]
    pub fn private() -> Self {
        RecWord(PRIVATE_WORD)
    }

    /// Reconstructs a word from its raw bits.
    #[inline]
    pub fn from_raw(raw: usize) -> Self {
        RecWord(raw)
    }

    /// The raw bits.
    #[inline]
    pub fn raw(self) -> usize {
        self.0
    }

    /// Decodes the packed state.
    #[inline]
    pub fn state(self) -> RecState {
        if self.0 == PRIVATE_WORD {
            RecState::Private
        } else if self.0 & 0b11 == 0b11 {
            RecState::Shared { version: self.0 >> 3 }
        } else if self.0 & TAG_MASK == TAG_EXCL_ANON {
            RecState::ExclusiveAnon { version: self.0 >> 3 }
        } else {
            debug_assert_eq!(self.0 & 0b11, 0b00);
            RecState::Exclusive { owner: OwnerToken(self.0) }
        }
    }

    /// True for the private state. This is the DEA fast-path test
    /// (`cmp [TxRec], -1` in paper Figure 10).
    #[inline]
    pub fn is_private(self) -> bool {
        self.0 == PRIVATE_WORD
    }

    /// True if bit 1 is set — the non-transactional *read* barrier's only
    /// state test (`test ecx, 2` in paper Figure 9). Shared,
    /// exclusive-anonymous, and private records pass; records exclusively
    /// owned by a transaction fail.
    #[inline]
    pub fn read_bit_ok(self) -> bool {
        self.0 & 0b10 != 0
    }

    /// True if the record is in the shared state.
    #[inline]
    pub fn is_shared(self) -> bool {
        self.0 & 0b11 == 0b11 && self.0 != PRIVATE_WORD
    }

    /// True if the record is exclusively owned by a transaction (tag `00`).
    #[inline]
    pub fn is_txn_exclusive(self) -> bool {
        self.0 & 0b11 == 0b00
    }

    /// True if the record is owned by `owner`.
    #[inline]
    pub fn owned_by(self, owner: OwnerToken) -> bool {
        self.0 == owner.word()
    }

    /// The version number, for shared / exclusive-anonymous records.
    ///
    /// # Panics
    /// Panics (in debug builds) if the record is in a state without a
    /// version.
    #[inline]
    pub fn version(self) -> usize {
        debug_assert!(
            matches!(
                self.state(),
                RecState::Shared { .. } | RecState::ExclusiveAnon { .. }
            ),
            "version() on versionless record state"
        );
        self.0 >> 3
    }
}

impl std::fmt::Debug for RecWord {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "RecWord({:#x} = {:?})", self.0, self.state())
    }
}

/// The atomic transaction record embedded in every object header.
///
/// All protocol transitions of paper Figure 8 are methods here so that the
/// eager STM, the lazy STM, and the non-transactional barriers share one
/// audited implementation.
#[derive(Debug)]
pub struct TxnRecord {
    word: AtomicUsize,
}

impl TxnRecord {
    /// A fresh record in the shared state with version 1.
    pub fn new_shared() -> Self {
        TxnRecord {
            word: AtomicUsize::new(RecWord::shared(1).raw()),
        }
    }

    /// A fresh record in the private state (object allocated under dynamic
    /// escape analysis).
    pub fn new_private() -> Self {
        TxnRecord {
            word: AtomicUsize::new(PRIVATE_WORD),
        }
    }

    /// Loads the record with acquire ordering.
    #[inline]
    pub fn load(&self) -> RecWord {
        RecWord(self.word.load(Ordering::Acquire))
    }

    /// Loads the record with relaxed ordering (for statistics / debugging).
    #[inline]
    pub fn load_relaxed(&self) -> RecWord {
        RecWord(self.word.load(Ordering::Relaxed))
    }

    /// The paper's `lock btr [TxRec],0`: atomically clears bit 0 and reports
    /// whether it was previously set.
    ///
    /// On a *shared* record this acquires exclusive-anonymous ownership in
    /// place (version preserved). Returns `Ok(prior)` if the bit was set
    /// (ownership acquired), `Err(prior)` if the record was already in an
    /// exclusive state (bit 0 already clear).
    ///
    /// Must not be called while the record may be private (the all-ones word
    /// also has bit 0 set); callers perform the private check first exactly
    /// as paper Figure 10 does.
    #[inline]
    pub fn bit_test_and_reset(&self) -> Result<RecWord, RecWord> {
        let prior = self.word.fetch_and(!1, Ordering::AcqRel);
        debug_assert_ne!(prior, PRIVATE_WORD, "BTR on a private record");
        if prior & 1 != 0 {
            Ok(RecWord(prior))
        } else {
            Err(RecWord(prior))
        }
    }

    /// The paper's `add [TxRec], 9`: releases exclusive-anonymous ownership,
    /// atomically incrementing the version and restoring the shared tag.
    #[inline]
    pub fn release_anon(&self) {
        let prior = self.word.fetch_add(RELEASE_INCREMENT, Ordering::AcqRel);
        debug_assert_eq!(
            prior & TAG_MASK,
            TAG_EXCL_ANON,
            "release_anon on record not in exclusive-anonymous state"
        );
    }

    /// Transactional open-for-write acquisition: CAS from an expected shared
    /// word to exclusive ownership by `owner` (paper Figure 8, "CAS" edge).
    #[inline]
    pub fn try_acquire_txn(&self, expected: RecWord, owner: OwnerToken) -> Result<(), RecWord> {
        debug_assert!(expected.is_shared());
        match self.word.compare_exchange(
            expected.raw(),
            owner.word(),
            Ordering::AcqRel,
            Ordering::Acquire,
        ) {
            Ok(_) => Ok(()),
            Err(cur) => Err(RecWord(cur)),
        }
    }

    /// Transaction-end release (paper Figure 8, "Txn end" edge): stores a
    /// shared word with the version incremented past `prior_shared`.
    ///
    /// The caller must own the record.
    #[inline]
    pub fn release_txn(&self, prior_shared: RecWord) {
        debug_assert!(prior_shared.is_shared());
        self.word.store(
            RecWord::shared(prior_shared.version() + 1).raw(),
            Ordering::Release,
        );
    }

    /// Transaction-end release at an explicit version (the TL2 protocol:
    /// the stored version is the commit's global-clock write stamp, so the
    /// record word *is* the commit timestamp an O(1) `version <= rv` read
    /// check compares against). Masks to [`MAX_VERSION`], wrapping at the
    /// tag-bit boundary exactly like [`TxnRecord::release_anon`].
    ///
    /// The caller must own the record.
    #[inline]
    pub fn release_txn_at(&self, version: usize) {
        self.word
            .store(RecWord::shared(version & MAX_VERSION).raw(), Ordering::Release);
    }

    /// Anonymous-owner release at an explicit version (non-transactional
    /// write barriers releasing at a fresh clock stamp). See
    /// [`TxnRecord::release_txn_at`].
    #[inline]
    pub fn release_anon_at(&self, version: usize) {
        debug_assert_eq!(
            self.load_relaxed().raw() & TAG_MASK,
            TAG_EXCL_ANON,
            "release_anon_at on record not in exclusive-anonymous state"
        );
        self.word
            .store(RecWord::shared(version & MAX_VERSION).raw(), Ordering::Release);
    }

    /// Restores the exact pre-acquisition shared word (used by the lazy STM
    /// when commit validation fails before any memory was written back: no
    /// values changed, so the version must not change either).
    #[inline]
    pub fn restore(&self, prior_shared: RecWord) {
        debug_assert!(prior_shared.is_shared());
        self.word.store(prior_shared.raw(), Ordering::Release);
    }

    /// Publishes a private record: transitions private → shared
    /// (paper Figure 8, `publishObject` edge).
    ///
    /// The object is only visible to the calling thread, so a plain store
    /// with release ordering suffices; there can be no contention by
    /// definition of privacy.
    #[inline]
    pub fn publish(&self) {
        debug_assert!(self.load_relaxed().is_private(), "publish on public record");
        self.word
            .store(RecWord::shared(1).raw(), Ordering::Release);
    }

    /// Raw store, for tests that need to force a record state.
    #[cfg(any(test, feature = "testing"))]
    pub fn store_raw(&self, w: RecWord) {
        self.word.store(w.raw(), Ordering::SeqCst);
    }
}

/// One slot of the striped ownership-record table, padded to a cache line
/// so that concurrent acquisitions of neighbouring stripes never contend on
/// the same line (the false sharing the stripe layout exists to avoid —
/// [`crate::heap::Heap::audit`] checks the alignment invariant).
#[repr(align(64))]
#[derive(Debug)]
pub(crate) struct PaddedRecord(pub(crate) TxnRecord);

/// Where the transaction record guarding an object lives
/// ([`crate::config::Granularity`]).
///
/// * `PerObject` — the record is the one embedded in the object header;
///   this table holds no storage of its own.
/// * `Striped` — a TL2-style global array of records; an object maps to the
///   slot indexed by its heap address (object index) masked to the
///   power-of-two table size. Object indices are dense, so the shift-free
///   `index & mask` hash spreads a small heap perfectly (no aliasing until
///   the heap outgrows the table) — the same word-alignment argument TL2
///   makes for `(addr >> shift) & mask`.
///
/// In striped mode the embedded per-object records still exist but only
/// carry the dynamic-escape-analysis *privacy* state (`Private` vs
/// `Shared`); all ownership and versioning lives in the stripe slots, and
/// private objects never touch them.
#[derive(Debug)]
pub(crate) enum RecordTable {
    /// Records are embedded in object headers.
    PerObject,
    /// Striped global table; `slots.len()` is a power of two and
    /// `mask == slots.len() - 1`.
    Striped { slots: Box<[PaddedRecord]>, mask: usize },
}

impl RecordTable {
    /// Builds the table for the configured granularity.
    ///
    /// # Panics
    /// Panics if a striped stripe count is zero or not a power of two.
    pub(crate) fn new(granularity: crate::config::Granularity) -> Self {
        match granularity {
            crate::config::Granularity::PerObject => RecordTable::PerObject,
            crate::config::Granularity::Striped { stripes } => {
                assert!(
                    stripes.is_power_of_two(),
                    "stripe count must be a non-zero power of two, got {stripes}"
                );
                let slots = (0..stripes)
                    .map(|_| PaddedRecord(TxnRecord::new_shared()))
                    .collect();
                RecordTable::Striped { slots, mask: stripes - 1 }
            }
        }
    }

    /// Number of stripes, or `None` in per-object mode.
    pub(crate) fn stripes(&self) -> Option<usize> {
        match self {
            RecordTable::PerObject => None,
            RecordTable::Striped { slots, .. } => Some(slots.len()),
        }
    }

    /// The stripe record for `slot` (striped mode only).
    pub(crate) fn stripe(&self, slot: usize) -> &TxnRecord {
        match self {
            RecordTable::PerObject => unreachable!("stripe() in per-object mode"),
            RecordTable::Striped { slots, .. } => &slots[slot].0,
        }
    }

    /// The slot an object index maps to. In per-object mode every object is
    /// its own slot, so the identity mapping keeps slot keys unique.
    #[inline]
    pub(crate) fn slot_of_index(&self, obj_index: usize) -> usize {
        match self {
            RecordTable::PerObject => obj_index,
            RecordTable::Striped { mask, .. } => obj_index & mask,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_roundtrip() {
        for v in [0usize, 1, 2, 12345, usize::MAX >> 3] {
            let w = RecWord::shared(v);
            assert_eq!(w.state(), RecState::Shared { version: v });
            assert!(w.is_shared());
            assert!(w.read_bit_ok());
            assert!(!w.is_txn_exclusive());
            assert_eq!(w.version(), v);
        }
    }

    #[test]
    fn exclusive_anon_roundtrip() {
        for v in [0usize, 7, 99999] {
            let w = RecWord::exclusive_anon(v);
            assert_eq!(w.state(), RecState::ExclusiveAnon { version: v });
            assert!(!w.is_shared());
            // Bit 1 is set: the read barrier's single-bit test passes, as the
            // paper notes it may (conflicts between two non-transactional
            // threads need not be detected).
            assert!(w.read_bit_ok());
            assert_eq!(w.version(), v);
        }
    }

    #[test]
    fn exclusive_roundtrip() {
        for id in [1usize, 2, 77, 1 << 40] {
            let t = OwnerToken::from_id(id);
            assert_eq!(t.id(), id);
            let w = RecWord::exclusive(t);
            assert_eq!(w.state(), RecState::Exclusive { owner: t });
            assert!(w.is_txn_exclusive());
            assert!(!w.read_bit_ok());
            assert!(w.owned_by(t));
            assert!(!w.owned_by(OwnerToken::from_id(id + 1)));
        }
    }

    #[test]
    fn owner_token_splits_slot_and_generation() {
        let top_gen = (1 << OWNER_GEN_BITS) - 1;
        for (slot, gen) in [(0, 1), (7, 3), (OWNER_SLOT_MASK, 1), (0, top_gen), (OWNER_SLOT_MASK, top_gen)] {
            let t = OwnerToken::for_slot(slot, gen);
            assert_eq!((t.slot(), t.generation()), (slot, gen));
            assert!(RecWord::exclusive(t).is_txn_exclusive());
            assert_ne!(t.word(), 0);
        }
        assert_ne!(OwnerToken::for_slot(5, 1), OwnerToken::for_slot(5, 2));
        assert_ne!(OwnerToken::for_slot(5, 1), OwnerToken::for_slot(6, 1));
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn owner_token_zero_rejected() {
        let _ = OwnerToken::from_id(0);
    }

    #[test]
    fn private_is_all_ones() {
        let w = RecWord::private();
        assert_eq!(w.raw(), usize::MAX);
        assert_eq!(w.state(), RecState::Private);
        assert!(w.is_private());
        // Private has bit 1 set, which is what makes the read barrier's
        // private check optional (paper §4).
        assert!(w.read_bit_ok());
    }

    #[test]
    fn btr_acquires_shared_in_place() {
        let r = TxnRecord::new_shared();
        let before = r.load();
        let prior = r.bit_test_and_reset().expect("shared record acquires");
        assert_eq!(prior, before);
        assert_eq!(
            r.load().state(),
            RecState::ExclusiveAnon { version: before.version() }
        );
    }

    #[test]
    fn btr_fails_on_txn_exclusive() {
        let r = TxnRecord::new_shared();
        let owner = OwnerToken::from_id(5);
        r.try_acquire_txn(r.load(), owner).unwrap();
        let err = r.bit_test_and_reset().expect_err("exclusive record rejects");
        assert!(err.is_txn_exclusive());
        // The failed BTR must not have disturbed the owner word.
        assert!(r.load().owned_by(owner));
    }

    #[test]
    fn release_increment_bumps_version_and_restores_shared() {
        let r = TxnRecord::new_shared();
        let v0 = r.load().version();
        r.bit_test_and_reset().unwrap();
        r.release_anon();
        let after = r.load();
        assert_eq!(after.state(), RecState::Shared { version: v0 + 1 });
    }

    #[test]
    fn txn_acquire_release_cycle() {
        let r = TxnRecord::new_shared();
        let owner = OwnerToken::from_id(9);
        let prior = r.load();
        r.try_acquire_txn(prior, owner).unwrap();
        assert!(r.load().owned_by(owner));
        // A competing CAS with a stale expected word must fail.
        assert!(r
            .try_acquire_txn(prior, OwnerToken::from_id(10))
            .is_err());
        r.release_txn(prior);
        assert_eq!(
            r.load().state(),
            RecState::Shared { version: prior.version() + 1 }
        );
    }

    #[test]
    fn stamped_releases_store_the_given_version() {
        let r = TxnRecord::new_shared();
        let prior = r.load();
        r.try_acquire_txn(prior, OwnerToken::from_id(4)).unwrap();
        r.release_txn_at(1234);
        assert_eq!(r.load().state(), RecState::Shared { version: 1234 });

        r.bit_test_and_reset().unwrap();
        r.release_anon_at(5678);
        assert_eq!(r.load().state(), RecState::Shared { version: 5678 });
    }

    #[test]
    fn stamped_release_wraps_at_tag_bit_boundary() {
        // A stamp past the 61-bit version space masks back in, mirroring
        // the wraparound of the `add 9` release — and never manufactures
        // the private (all-ones) word.
        let r = TxnRecord::new_shared();
        let prior = r.load();
        r.try_acquire_txn(prior, OwnerToken::from_id(4)).unwrap();
        r.release_txn_at(MAX_VERSION.wrapping_add(3));
        let w = r.load();
        assert!(!w.is_private());
        assert_eq!(w.state(), RecState::Shared { version: 2 });
    }

    #[test]
    fn publish_transitions_private_to_shared() {
        let r = TxnRecord::new_private();
        assert!(r.load().is_private());
        r.publish();
        assert!(r.load().is_shared());
    }

    #[test]
    fn restore_preserves_version() {
        let r = TxnRecord::new_shared();
        let prior = r.load();
        r.try_acquire_txn(prior, OwnerToken::from_id(3)).unwrap();
        r.restore(prior);
        assert_eq!(r.load(), prior);
    }

    #[test]
    fn record_table_striped_layout() {
        // Padding is what prevents false sharing between adjacent stripes.
        assert!(std::mem::align_of::<PaddedRecord>() >= 64);
        let t = RecordTable::new(crate::config::Granularity::Striped { stripes: 8 });
        assert_eq!(t.stripes(), Some(8));
        for i in 0..8 {
            assert!(t.stripe(i).load().is_shared(), "fresh stripes are shared");
        }
        assert_eq!(t.slot_of_index(9), 1, "dense indices wrap by mask");
        assert_eq!(t.slot_of_index(7), 7);
    }

    #[test]
    fn record_table_per_object_is_identity() {
        let t = RecordTable::new(crate::config::Granularity::PerObject);
        assert_eq!(t.stripes(), None);
        assert_eq!(t.slot_of_index(9), 9);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn record_table_rejects_bad_stripe_count() {
        let _ = RecordTable::new(crate::config::Granularity::Striped { stripes: 3 });
    }

    #[test]
    fn concurrent_btr_single_winner() {
        use std::sync::Arc;
        let r = Arc::new(TxnRecord::new_shared());
        let mut handles = Vec::new();
        for _ in 0..8 {
            let r = Arc::clone(&r);
            handles.push(std::thread::spawn(move || {
                r.bit_test_and_reset().is_ok()
            }));
        }
        let wins: usize = handles
            .into_iter()
            .map(|h| h.join().unwrap() as usize)
            .sum();
        assert_eq!(wins, 1, "exactly one BTR may observe the set bit");
    }
}
