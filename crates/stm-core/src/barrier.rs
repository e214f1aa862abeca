//! Non-transactional isolation barriers (paper §3, Figures 9 and 10).
//!
//! These are the heart of strong atomicity: code running *outside*
//! transactions routes its heap accesses through these functions, which
//! speak the same transaction-record protocol as the STM itself.
//!
//! * [`read_barrier`] is paper Figure 9(a)/10(a): load record, load value,
//!   private fast path, single-bit owner test, record recheck.
//! * [`write_barrier`] is Figure 9(b)/10(b): private fast path, `BTR`
//!   acquisition into the exclusive-anonymous state, publication of written
//!   references, data write, `+9` release.
//! * [`ordering_read_barrier`] is the §3.3 barrier for lazy-versioning STMs,
//!   which only needs to detect pending write-backs of committed
//!   transactions (no recheck).
//! * [`aggregate`] is the §6 aggregated barrier: one acquisition amortized
//!   over several accesses to the same object (paper Figure 14).
//!
//! Under dynamic escape analysis, the write barrier's private check is
//! mandatory (a private record would otherwise be corrupted by `BTR`), while
//! the read barrier's is optional — private records have bit 1 set, so they
//! pass the owner test and survive the recheck (records never transition
//! *into* the private state). We perform the explicit check when DEA is on,
//! as the paper's Figure 10 does, because it skips the recheck load.
//!
//! ## Crash safety and stuck owners
//!
//! Barriers cannot abort, so their wait loops rely on the paper's
//! assumption that every exclusive owner releases in bounded time. A
//! transaction whose thread dies mid-critical-section (panic with
//! [`crate::config::StmConfig::panic_safety`] disabled) breaks that
//! assumption — a barrier spinning on its record would hang forever.
//! Because every barrier re-reads the record each iteration and funnels its
//! wait through [`crate::contention::resolve`], the stuck-owner watchdog
//! ([`crate::watchdog`]) transparently unblocks it: once the spin budget is
//! exhausted, the dead owner's records are rolled back and released, the
//! next record re-read observes the restored `Shared` word, and the barrier
//! completes normally.

use crate::contention::{resolve, ConflictSite};
use crate::cost::{charge, CostKind};
use crate::dea;
use crate::heap::{Heap, Obj, ObjRef, RaceAccess, Word};
use crate::syncpoint::SyncPoint;
use crate::txnrec::RecWord;
use std::sync::atomic::Ordering;

/// Non-transactional read barrier (paper Figures 9(a)/10(a)).
///
/// Blocks (with conflict-manager backoff) while the object is exclusively
/// owned by a transaction, and retries if a writer intervened between the
/// record read and its recheck. For lazy-versioning heaps this dispatches to
/// the cheaper [`ordering_read_barrier`].
#[inline]
pub fn read_barrier(heap: &Heap, r: ObjRef, field: usize) -> Word {
    // Quiescence-only privatization: per-access isolation barriers are
    // elided at runtime — the access degenerates to a plain load and the
    // only remaining protection is commit-time quiescence.
    if heap.config.isolation.elides_barriers() {
        heap.stats.barrier_elided();
        charge(CostKind::PlainRead);
        return heap.read_raw(r, field);
    }
    if matches!(heap.config.versioning, crate::config::Versioning::Lazy) {
        return ordering_read_barrier(heap, r, field);
    }
    let obj = heap.obj(r);
    let mut attempt = 0u32;
    loop {
        let rec = heap.guard_load(r, obj);
        // DEA private fast path (optional; see module docs).
        if heap.config.dea && rec.is_private() {
            heap.stats.private_fast_path();
            charge(CostKind::BarrierPrivateFast);
            return obj.field(field).load(Ordering::Relaxed);
        }
        // Acquire ordering on the data load keeps the recheck from being
        // reordered before it.
        let val = obj.field(field).load(Ordering::Acquire);
        if rec.read_bit_ok() && heap.guard_load(r, obj) == rec {
            heap.stats.read_barrier();
            charge(CostKind::BarrierRead);
            if attempt > 0 {
                heap.stats.record_wait_span(attempt);
            }
            heap.hit(SyncPoint::NonTxnAccessDone);
            return val;
        }
        if attempt == 0 {
            heap.note_race(r, RaceAccess::Read, rec);
        }
        // Barriers cannot abort (there is no transaction to re-execute), so
        // the contention manager's SelfAbort is coerced to a wait.
        let _ = resolve(heap, ConflictSite::BarrierRead, None, Some(rec), &mut attempt);
    }
}

/// Ordering-only read barrier for lazy-versioning STMs (paper §3.3).
///
/// A lazy STM never exposes dirty data, so the only hazard is reading a
/// location whose new value a *committed* transaction has not yet written
/// back; waiting for bit 1 suffices, and no recheck is needed.
#[inline]
pub fn ordering_read_barrier(heap: &Heap, r: ObjRef, field: usize) -> Word {
    let obj = heap.obj(r);
    let mut attempt = 0u32;
    loop {
        // Private records have bit 1 set, so (in striped+DEA mode, where
        // `guard_load` folds privacy in) they pass the owner test below.
        let rec = heap.guard_load(r, obj);
        if rec.read_bit_ok() {
            heap.stats.read_barrier();
            charge(CostKind::BarrierRead);
            let val = obj.field(field).load(Ordering::Acquire);
            if attempt > 0 {
                heap.stats.record_wait_span(attempt);
            }
            heap.hit(SyncPoint::NonTxnAccessDone);
            return val;
        }
        if attempt == 0 {
            heap.note_race(r, RaceAccess::Read, rec);
        }
        let _ = resolve(heap, ConflictSite::BarrierRead, None, Some(rec), &mut attempt);
    }
}

/// Non-transactional write barrier (paper Figures 9(b)/10(b)).
///
/// Acquires the record into the exclusive-anonymous state with a single
/// atomic bit-test-and-reset, publishes any private object the written word
/// references (reference fields only — the asterisked instructions of
/// Figure 10(b)), performs the write, and releases at a fresh global-clock
/// stamp, which bumps the version past every running transaction's read
/// version and restores the shared tag.
#[inline]
pub fn write_barrier(heap: &Heap, r: ObjRef, field: usize, value: Word) {
    write_barrier_inner(heap, r, field, value, Ordering::Relaxed);
}

/// Write barrier with `volatile` (sequentially consistent) data-store
/// semantics, for Java-`volatile`-like fields.
#[inline]
pub fn write_barrier_volatile(heap: &Heap, r: ObjRef, field: usize, value: Word) {
    write_barrier_inner(heap, r, field, value, Ordering::SeqCst);
}

fn write_barrier_inner(heap: &Heap, r: ObjRef, field: usize, value: Word, ord: Ordering) {
    // Quiescence-only privatization: see `read_barrier`.
    if heap.config.isolation.elides_barriers() {
        heap.stats.barrier_elided();
        charge(CostKind::PlainWrite);
        heap.obj(r).field(field).store(value, ord);
        return;
    }
    let obj = heap.obj(r);
    let mut attempt = 0u32;
    loop {
        let rec = heap.guard_load(r, obj);
        if rec.is_private() {
            // Private fast path: the object is visible only to this thread,
            // so a plain store needs no synchronization at all. A reference
            // written into a *private* object does not publish anything.
            heap.stats.private_fast_path();
            charge(CostKind::BarrierPrivateFast);
            obj.field(field).store(value, ord);
            heap.hit(SyncPoint::NonTxnAccessDone);
            return;
        }
        // Records never become private (and striped slots carry no privacy
        // at all), so after the check above BTR on the guard is safe.
        let guard = heap.guard(r, obj);
        match guard.bit_test_and_reset() {
            Ok(prior) => {
                heap.hit(SyncPoint::BarrierWriteAcquired);
                // Publication check (reference types only): the object is
                // public, so a private object written into it escapes now.
                if heap.slot_is_ref(obj.kind, field) {
                    dea::publish_word(heap, value);
                }
                // Multiversion: the overwritten value is this field's
                // pre-image; it seeds a still-empty ring so snapshot
                // readers older than this write are still served. It has
                // been current since the guard's last release stamp — the
                // version BTR preserved in `prior`.
                let pre = heap
                    .mv_enabled()
                    .then(|| obj.field(field).load(Ordering::Relaxed));
                obj.field(field).store(value, ord);
                // A barriered write is a committed write: it draws a clock
                // tick and releases the guard stamped with it. The tick is
                // unconditional — a release at an un-ticked version would
                // pass a later transaction's `version <= rv` check and
                // slip under its commit-time revalidation skip. The `max`
                // covers thread-local clock mode, where a rival's stamp
                // can run ahead of this thread's tick.
                let tick = heap.clock_tick();
                let stamp = tick.max(prior.version() as u64 + 1);
                if let Some(pre) = pre {
                    heap.mv_seed(r, field, prior.version() as u64, pre);
                }
                if heap.mv_enabled() {
                    heap.mv_install(r, field, stamp, value);
                    // Every mv-heap tick must publish (in-order
                    // visibility; a gap wedges later publishers).
                    heap.clock_publish(tick);
                }
                guard.release_anon_at(stamp as usize);
                heap.stats.write_barrier();
                charge(CostKind::BarrierWrite);
                if attempt > 0 {
                    heap.stats.record_wait_span(attempt);
                }
                heap.hit(SyncPoint::NonTxnAccessDone);
                return;
            }
            Err(owned) => {
                if attempt == 0 && owned.is_txn_exclusive() {
                    heap.note_race(r, RaceAccess::Write, owned);
                }
                let _ =
                    resolve(heap, ConflictSite::BarrierWrite, None, Some(owned), &mut attempt);
            }
        }
    }
}

/// An object held exclusively (or privately) for the duration of an
/// aggregated barrier. Created by [`aggregate`].
pub struct OwnedObj<'h> {
    heap: &'h Heap,
    r: ObjRef,
    obj: &'h Obj,
    private: bool,
    /// Fields written through this aggregate (multiversion heaps only):
    /// their committed values are installed into the version rings at
    /// release under one commit stamp.
    mv_written: Vec<usize>,
}

impl<'h> OwnedObj<'h> {
    /// Reads a field. No per-access synchronization: the aggregated barrier
    /// already owns the record.
    #[inline]
    pub fn get(&self, field: usize) -> Word {
        self.obj.field(field).load(Ordering::Relaxed)
    }

    /// Writes a field, publishing referenced private objects when the
    /// containing object is public.
    #[inline]
    pub fn set(&mut self, field: usize, value: Word) {
        if !self.private && self.heap.slot_is_ref(self.obj.kind, field) {
            dea::publish_word(self.heap, value);
        }
        if !self.private && self.heap.mv_enabled() {
            // The overwritten value is the field's pre-image: seed a
            // still-empty ring before it is lost, and remember the field
            // for the release-time install. BTR preserved the guard's last
            // release stamp in the held word — the pre-image has been
            // current since then.
            let pre = self.obj.field(field).load(Ordering::Relaxed);
            let since = self.heap.guard_load(self.r, self.obj).version() as u64;
            self.heap.mv_seed(self.r, field, since, pre);
            self.mv_written.push(field);
        }
        self.obj.field(field).store(value, Ordering::Relaxed);
    }

    /// The object this barrier owns.
    pub fn obj_ref(&self) -> ObjRef {
        self.r
    }
}

/// Aggregated barrier (paper §6, Figure 14): acquires the object's record
/// once, runs `f` with direct field access, and releases once.
///
/// Matches the constraints the paper's JIT enforces: a single object, no
/// calls back into barriers, a finite body. The private fast path applies as
/// a whole: a private object's aggregated barrier performs no
/// synchronization at all.
pub fn aggregate<R>(heap: &Heap, r: ObjRef, f: impl FnOnce(&mut OwnedObj<'_>) -> R) -> R {
    let obj = heap.obj(r);
    let mut attempt = 0u32;
    loop {
        let rec = heap.guard_load(r, obj);
        if rec.is_private() {
            heap.stats.private_fast_path();
            charge(CostKind::BarrierPrivateFast);
            let mut owned = OwnedObj { heap, r, obj, private: true, mv_written: Vec::new() };
            return f(&mut owned);
        }
        let guard = heap.guard(r, obj);
        match guard.bit_test_and_reset() {
            Ok(prior) => {
                heap.hit(SyncPoint::BarrierWriteAcquired);
                charge(CostKind::BarrierAggregated);
                heap.stats.write_barrier();
                let mut owned = OwnedObj { heap, r, obj, private: false, mv_written: Vec::new() };
                let out = f(&mut owned);
                // Aggregated barriers may write (and the non-mv heap has no
                // record of whether this one did), so every release draws a
                // clock tick and stamps the guard with it — exactly like
                // `write_barrier`, and for the same revalidation-skip
                // soundness reason. Written fields install at the stamp
                // under multiversion.
                let tick = heap.clock_tick();
                let stamp = tick.max(prior.version() as u64 + 1);
                for &field in &owned.mv_written {
                    let val = obj.field(field).load(Ordering::Relaxed);
                    heap.mv_install(r, field, stamp, val);
                }
                if heap.mv_enabled() {
                    // Publish whenever a tick is drawn on an mv heap — even
                    // with no installs — or later publishers wedge on the
                    // gap.
                    heap.clock_publish(tick);
                }
                guard.release_anon_at(stamp as usize);
                if attempt > 0 {
                    heap.stats.record_wait_span(attempt);
                }
                heap.hit(SyncPoint::NonTxnAccessDone);
                return out;
            }
            Err(holder) => {
                let _ = resolve(
                    heap,
                    ConflictSite::BarrierAggregate,
                    None,
                    Some(holder),
                    &mut attempt,
                );
            }
        }
    }
}

/// Dispatches a non-transactional read according to `mode` (weak accesses go
/// straight to memory). This is the access-site decision the compiler makes
/// in the paper's system.
#[inline]
pub fn read_access(heap: &Heap, mode: crate::config::BarrierMode, r: ObjRef, field: usize) -> Word {
    if mode.reads() {
        read_barrier(heap, r, field)
    } else {
        charge(CostKind::PlainRead);
        heap.read_raw(r, field)
    }
}

/// Dispatches a non-transactional write according to `mode`.
#[inline]
pub fn write_access(
    heap: &Heap,
    mode: crate::config::BarrierMode,
    r: ObjRef,
    field: usize,
    value: Word,
) {
    if mode.writes() {
        write_barrier(heap, r, field, value);
    } else {
        charge(CostKind::PlainWrite);
        heap.write_raw(r, field, value);
    }
}

/// Detects conflicts between two non-transactional writers (paper §3.2
/// footnote: inspect only the lowest bit). Used by tests.
pub fn record_snapshot(heap: &Heap, r: ObjRef) -> RecWord {
    heap.guard_load(r, heap.obj(r))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{BarrierMode, StmConfig, Versioning};
    use crate::heap::{FieldDef, Shape, ShapeId};
    use crate::txnrec::RecState;
    use std::sync::Arc;

    fn heap_with(dea: bool) -> Arc<Heap> {
        Heap::new(StmConfig { dea, ..StmConfig::default() })
    }

    fn node(heap: &Heap) -> ShapeId {
        heap.define_shape(Shape::new(
            "Node",
            vec![FieldDef::int("val"), FieldDef::reference("next")],
        ))
    }

    #[test]
    fn read_write_roundtrip_public() {
        let heap = heap_with(false);
        let s = node(&heap);
        let o = heap.alloc(s);
        write_barrier(&heap, o, 0, 17);
        assert_eq!(read_barrier(&heap, o, 0), 17);
        let snap = heap.stats().snapshot();
        assert_eq!(snap.write_barriers, 1);
        assert_eq!(snap.read_barriers, 1);
        assert_eq!(snap.private_fast_paths, 0);
    }

    #[test]
    fn write_barrier_bumps_version() {
        let heap = heap_with(false);
        let s = node(&heap);
        let o = heap.alloc(s);
        let v0 = heap.record_version(o).unwrap();
        write_barrier(&heap, o, 0, 1);
        assert_eq!(heap.record_version(o), Some(v0 + 1));
        // Record is back in the shared state.
        assert!(record_snapshot(&heap, o).is_shared());
    }

    #[test]
    fn private_fast_path_under_dea() {
        let heap = heap_with(true);
        let s = node(&heap);
        let o = heap.alloc(s);
        write_barrier(&heap, o, 0, 5);
        assert_eq!(read_barrier(&heap, o, 0), 5);
        let snap = heap.stats().snapshot();
        assert_eq!(snap.private_fast_paths, 2);
        assert_eq!(snap.write_barriers, 0, "no slow write barrier ran");
        assert!(heap.is_private(o), "barriers do not publish");
        // Version untouched: private records have none.
        assert_eq!(heap.record_version(o), None);
    }

    #[test]
    fn writing_private_ref_into_public_object_publishes() {
        let heap = heap_with(true);
        let s = node(&heap);
        let shared = heap.alloc_public(s);
        let priv_a = heap.alloc(s);
        let priv_b = heap.alloc(s);
        heap.write_raw(priv_a, 1, priv_b.to_word());
        write_barrier(&heap, shared, 1, priv_a.to_word());
        assert!(!heap.is_private(priv_a), "written object published");
        assert!(!heap.is_private(priv_b), "reachable object published");
    }

    #[test]
    fn writing_int_field_does_not_publish() {
        let heap = heap_with(true);
        let s = node(&heap);
        let shared = heap.alloc_public(s);
        let p = heap.alloc(s);
        // Write a word that *looks* like a reference into an int field; the
        // barrier must not chase it (Figure 10(b) asterisked code is for
        // reference types only).
        write_barrier(&heap, shared, 0, p.to_word());
        assert!(heap.is_private(p));
    }

    #[test]
    fn write_into_private_object_does_not_publish_target() {
        let heap = heap_with(true);
        let s = node(&heap);
        let a = heap.alloc(s);
        let b = heap.alloc(s);
        write_barrier(&heap, a, 1, b.to_word());
        assert!(heap.is_private(a));
        assert!(heap.is_private(b));
    }

    #[test]
    fn read_barrier_waits_out_txn_owner() {
        // Force a record into the txn-exclusive state, verify the read
        // barrier blocks, then release and verify it completes.
        let heap = heap_with(false);
        let s = node(&heap);
        let o = heap.alloc(s);
        heap.write_raw(o, 0, 7);
        let rec_prior = record_snapshot(&heap, o);
        let owner = heap.fresh_owner();
        heap.guard(o, heap.obj(o)).try_acquire_txn(rec_prior, owner).unwrap();

        let heap2 = Arc::clone(&heap);
        let reader = std::thread::spawn(move || read_barrier(&heap2, o, 0));
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert!(!reader.is_finished(), "reader must wait on exclusive owner");
        heap.write_raw(o, 0, 8);
        heap.guard(o, heap.obj(o)).release_txn(rec_prior);
        assert_eq!(reader.join().unwrap(), 8);
        assert!(heap.stats().snapshot().conflict_waits > 0);
    }

    #[test]
    fn write_barrier_waits_out_anon_owner() {
        let heap = heap_with(false);
        let s = node(&heap);
        let o = heap.alloc(s);
        heap.guard(o, heap.obj(o)).bit_test_and_reset().unwrap();
        assert_eq!(
            record_snapshot(&heap, o).state(),
            RecState::ExclusiveAnon { version: 1 }
        );
        let heap2 = Arc::clone(&heap);
        let writer = std::thread::spawn(move || write_barrier(&heap2, o, 0, 42));
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert!(!writer.is_finished());
        heap.guard(o, heap.obj(o)).release_anon();
        writer.join().unwrap();
        assert_eq!(heap.read_raw(o, 0), 42);
    }

    #[test]
    fn aggregate_single_acquire_release() {
        let heap = heap_with(false);
        let s = node(&heap);
        let o = heap.alloc(s);
        let v0 = heap.record_version(o).unwrap();
        let sum = aggregate(&heap, o, |owned| {
            owned.set(0, 10);
            let x = owned.get(0);
            owned.set(0, x + 1);
            owned.get(0)
        });
        assert_eq!(sum, 11);
        // One version bump for the whole aggregate, not one per access.
        assert_eq!(heap.record_version(o), Some(v0 + 1));
        assert_eq!(heap.stats().snapshot().write_barriers, 1);
    }

    #[test]
    fn aggregate_private_fast_path() {
        let heap = heap_with(true);
        let s = node(&heap);
        let o = heap.alloc(s);
        aggregate(&heap, o, |owned| owned.set(0, 3));
        assert!(heap.is_private(o));
        assert_eq!(heap.stats().snapshot().private_fast_paths, 1);
    }

    #[test]
    fn aggregate_set_publishes_refs() {
        let heap = heap_with(true);
        let s = node(&heap);
        let shared = heap.alloc_public(s);
        let p = heap.alloc(s);
        aggregate(&heap, shared, |owned| owned.set(1, p.to_word()));
        assert!(!heap.is_private(p));
    }

    #[test]
    fn barrier_mode_dispatch() {
        let heap = heap_with(false);
        let s = node(&heap);
        let o = heap.alloc(s);
        write_access(&heap, BarrierMode::Weak, o, 0, 1);
        assert_eq!(heap.stats().snapshot().write_barriers, 0);
        write_access(&heap, BarrierMode::Strong, o, 0, 2);
        assert_eq!(heap.stats().snapshot().write_barriers, 1);
        assert_eq!(read_access(&heap, BarrierMode::Weak, o, 0), 2);
        assert_eq!(heap.stats().snapshot().read_barriers, 0);
        assert_eq!(read_access(&heap, BarrierMode::ReadOnly, o, 0), 2);
        assert_eq!(heap.stats().snapshot().read_barriers, 1);
        write_access(&heap, BarrierMode::ReadOnly, o, 0, 3);
        assert_eq!(heap.stats().snapshot().write_barriers, 1, "read-only mode skips write barriers");
    }

    #[test]
    fn lazy_heap_uses_ordering_barrier() {
        let heap = Heap::new(StmConfig { versioning: Versioning::Lazy, ..StmConfig::default() });
        let s = node(&heap);
        let o = heap.alloc(s);
        heap.write_raw(o, 0, 9);
        assert_eq!(read_barrier(&heap, o, 0), 9);
        assert_eq!(heap.stats().snapshot().read_barriers, 1);
    }

    #[test]
    fn concurrent_nontxn_increments_do_not_lose_updates() {
        // Aggregated read-modify-write barriers serialize against each other
        // through the record, so counter increments compose.
        let heap = heap_with(false);
        let s = node(&heap);
        let o = heap.alloc(s);
        let threads = 4;
        let per = 2000;
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let heap = Arc::clone(&heap);
                std::thread::spawn(move || {
                    for _ in 0..per {
                        aggregate(&heap, o, |owned| {
                            let v = owned.get(0);
                            owned.set(0, v + 1);
                        });
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(heap.read_raw(o, 0), (threads * per) as u64);
    }
}
