//! Lifecycle stress tests for the lock-free quiescence-slot registry.
//!
//! The registry's contract: a slot is owned by exactly one live transaction
//! at a time, slot counts stay bounded by concurrency (not transaction
//! count) thanks to per-thread slot caching and the Treiber free list, and
//! the steady-state begin/commit path performs no heap allocation. These
//! tests drive begin/commit churn far past the slot-table size to prove
//! all three.

use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use stm_core::config::{AdmissionConfig, StmConfig, TxnPolicy, VersionGranularity, Versioning};
use stm_core::heap::{FieldDef, Heap, ObjRef, Shape};
use stm_core::txn::{atomic, try_atomic, try_atomic_with, Abort};

// ---------------------------------------------------------------------------
// Counting allocator: the whole test binary routes through it, but the
// counter is thread-local, so each test observes only its own allocations.
// ---------------------------------------------------------------------------

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

// SAFETY: defers to the system allocator; the counter bump uses `try_with`
// so allocation during TLS teardown cannot recurse or abort.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn allocations_on_this_thread() -> u64 {
    ALLOCS.with(|c| c.get())
}

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

fn quiescent_heap(versioning: Versioning) -> Arc<Heap> {
    Heap::new(StmConfig { versioning, quiescence: true, ..StmConfig::default() })
}

fn alloc_counter(heap: &Arc<Heap>) -> ObjRef {
    let shape = heap.define_shape(Shape::new("Counter", vec![FieldDef::int("n")]));
    heap.alloc_public(shape)
}

// ---------------------------------------------------------------------------
// Churn: many more transactions than slots, exclusivity asserted live
// ---------------------------------------------------------------------------

/// N threads × M short transactions. Each transaction publishes its slot
/// index into a shared occupancy table for its whole lifetime (closure
/// through post-commit); a CAS failure there means two live transactions
/// shared a slot. The slot table must end no larger than the thread count:
/// slots are recycled, never accumulated.
#[test]
fn churn_keeps_slots_bounded_and_exclusive() {
    const THREADS: usize = 8;
    const TXNS: usize = 400;
    const TABLE: usize = 256;

    for versioning in [Versioning::Eager, Versioning::Lazy] {
        let heap = quiescent_heap(versioning);
        let occupancy: Arc<Vec<AtomicUsize>> =
            Arc::new((0..TABLE).map(|_| AtomicUsize::new(0)).collect());
        let shape = heap.define_shape(Shape::new("Counter", vec![FieldDef::int("n")]));

        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let heap = Arc::clone(&heap);
                let occupancy = Arc::clone(&occupancy);
                let obj = heap.alloc_public(shape); // disjoint per thread
                std::thread::spawn(move || {
                    let tid = t + 1;
                    for _ in 0..TXNS {
                        let slot = atomic(&heap, |tx| {
                            let slot = tx.quiescence_slot().expect("quiescence on");
                            assert!(slot < TABLE, "slot index {slot} exploded");
                            // First attempt claims; a retry of the same
                            // transaction re-observes its own claim.
                            match occupancy[slot].compare_exchange(
                                0,
                                tid,
                                Ordering::AcqRel,
                                Ordering::Acquire,
                            ) {
                                Ok(_) => {}
                                Err(cur) => assert_eq!(
                                    cur, tid,
                                    "slot {slot} shared between live transactions"
                                ),
                            }
                            let v = tx.read(obj, 0)?;
                            tx.write(obj, 0, v + 1)?;
                            Ok(slot)
                        });
                        // The transaction (commit + quiescence included) is
                        // over; only now may another owner take the slot.
                        let prev = occupancy[slot].swap(0, Ordering::AcqRel);
                        assert_eq!(prev, tid, "slot {slot} stolen while live");
                    }
                    obj
                })
            })
            .collect();
        let objs: Vec<ObjRef> = handles.into_iter().map(|h| h.join().unwrap()).collect();

        for obj in objs {
            assert_eq!(heap.read_raw(obj, 0), TXNS as u64);
        }
        let slots = heap.txn_slot_count();
        assert!(
            slots <= THREADS,
            "{versioning:?}: {} txns created {slots} slots (> {THREADS} threads)",
            THREADS * TXNS
        );
        heap.audit().assert_clean();
    }
}

/// Sequential waves of short-lived threads: each exiting thread's cached
/// slot must return to the free list (TLS-drop eviction), so later waves
/// reuse slots instead of growing the table.
#[test]
fn thread_waves_recycle_slots() {
    const WAVES: usize = 6;
    const PER_WAVE: usize = 4;

    let heap = quiescent_heap(Versioning::Eager);
    let obj = alloc_counter(&heap);
    for _ in 0..WAVES {
        let handles: Vec<_> = (0..PER_WAVE)
            .map(|_| {
                let heap = Arc::clone(&heap);
                std::thread::spawn(move || {
                    for _ in 0..16 {
                        atomic(&heap, |tx| {
                            let v = tx.read(obj, 0)?;
                            tx.write(obj, 0, v + 1)
                        });
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }
    assert_eq!(heap.read_raw(obj, 0), (WAVES * PER_WAVE * 16) as u64);
    let slots = heap.txn_slot_count();
    assert!(
        slots <= PER_WAVE,
        "{WAVES} waves of {PER_WAVE} threads left {slots} slots (recycling broken)"
    );
    heap.audit().assert_clean();
}

// ---------------------------------------------------------------------------
// Allocation-free steady state
// ---------------------------------------------------------------------------

/// After warm-up (pools primed, shard maps at capacity), a begin / read /
/// write / commit cycle must perform zero heap allocations on this thread —
/// under both engines, with quiescence and the watchdog both on.
#[test]
fn steady_state_lifecycle_is_allocation_free() {
    for versioning in [Versioning::Eager, Versioning::Lazy] {
        let heap = quiescent_heap(versioning);
        let obj = alloc_counter(&heap);

        // Warm-up: prime the scratch pool, park a registry slot in this
        // thread's cache, and grow its recovery log to capacity.
        for _ in 0..4096 {
            atomic(&heap, |tx| {
                let v = tx.read(obj, 0)?;
                tx.write(obj, 0, v + 1)
            });
        }

        let before = allocations_on_this_thread();
        for _ in 0..256 {
            atomic(&heap, |tx| {
                let v = tx.read(obj, 0)?;
                tx.write(obj, 0, v + 1)
            });
        }
        let delta = allocations_on_this_thread() - before;
        assert_eq!(
            delta, 0,
            "{versioning:?}: steady-state lifecycle allocated {delta} times in 256 txns"
        );
        assert_eq!(heap.read_raw(obj, 0), 4096 + 256);
    }
}

// ---------------------------------------------------------------------------
// Nesting
// ---------------------------------------------------------------------------

/// An open-nested transaction is a distinct attempt and must not scribble
/// on its enclosing transaction's slot: the cache holds the outer (active)
/// slot, so the inner attempt takes a fresh one.
#[test]
fn open_nested_transactions_use_distinct_slots() {
    let heap = quiescent_heap(Versioning::Eager);
    let obj = alloc_counter(&heap);
    atomic(&heap, |tx| {
        let outer = tx.quiescence_slot().expect("quiescence on");
        let inner = tx.open_nested(|itx| {
            let inner = itx.quiescence_slot().expect("quiescence on");
            let v = itx.read(obj, 0)?;
            itx.write(obj, 0, v + 1)?;
            Ok(inner)
        });
        assert_ne!(outer, inner, "nested attempt reused the live outer slot");
        Ok(())
    });
    // Both slots are retired; churning afterwards reuses them.
    for _ in 0..8 {
        atomic(&heap, |tx| {
            let v = tx.read(obj, 0)?;
            tx.write(obj, 0, v + 1)
        });
    }
    assert!(heap.txn_slot_count() <= 2);
    heap.audit().assert_clean();
}

// ---------------------------------------------------------------------------
// Property: arbitrary lifecycles leave the heap auditable
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any single-threaded mix of committing and cancelled transactions —
    /// across engines and granularities, quiescence and watchdog on —
    /// leaves the audit clean (no stranded-active slot, no dead owner left
    /// in a slot) and the slot table at its single-thread bound.
    #[test]
    fn slot_reuse_preserves_liveness_and_audit(
        ops in prop::collection::vec((any::<bool>(), 0usize..4, any::<u8>()), 1..40),
        lazy in any::<bool>(),
        pair in any::<bool>(),
    ) {
        let heap = Heap::new(StmConfig {
            versioning: if lazy { Versioning::Lazy } else { Versioning::Eager },
            version_granularity: if pair {
                VersionGranularity::Pair
            } else {
                VersionGranularity::PerField
            },
            quiescence: true,
            ..StmConfig::default()
        });
        let shape = heap.define_shape(Shape::new(
            "Quad",
            vec![
                FieldDef::int("a"),
                FieldDef::int("b"),
                FieldDef::int("c"),
                FieldDef::int("d"),
            ],
        ));
        let obj = heap.alloc_public(shape);
        let mut committed = 0u64;
        for (cancel, field, val) in ops {
            let r = try_atomic(&heap, |tx| {
                let v = tx.read(obj, field)?;
                tx.write(obj, field, v + val as u64)?;
                if cancel {
                    tx.cancel()
                } else {
                    Ok(())
                }
            });
            if r.is_some() {
                committed += 1;
            }
            prop_assert_eq!(r.is_none(), cancel);
        }
        let _ = committed;
        // Single-threaded: one parked slot, plus at most one transient.
        prop_assert!(heap.txn_slot_count() <= 2,
            "single-threaded run grew {} slots", heap.txn_slot_count());
        let report = heap.audit();
        prop_assert!(report.is_clean(), "audit dirty after churn:\n{}", report);
    }

    /// Policy-stopped blocks (retry budgets, deadlines, admission shedding,
    /// escalation) must retire their quiescence slots exactly like commits
    /// and cancels do: any single-threaded mix leaves the slot table at its
    /// single-thread bound and the audit clean.
    #[test]
    fn policy_stops_release_slots_and_stay_auditable(
        ops in prop::collection::vec(0u8..4, 1..40),
        lazy in any::<bool>(),
    ) {
        let heap = Heap::new(StmConfig {
            versioning: if lazy { Versioning::Lazy } else { Versioning::Eager },
            quiescence: true,
            admission: Some(AdmissionConfig {
                window: 16,
                reject_above_permille: 500,
                reopen_below_permille: 200,
            }),
            ..StmConfig::default()
        });
        let obj = alloc_counter(&heap);
        let mut committed = 0u64;
        for kind in ops {
            match kind {
                // Retry budget exhausting against a doomed closure.
                0 => {
                    let r = try_atomic_with(
                        &heap,
                        TxnPolicy::default().with_max_retries(1),
                        |tx| {
                            tx.write(obj, 0, 999)?;
                            Err::<(), _>(Abort::Conflict)
                        },
                    );
                    prop_assert!(
                        matches!(r, Err(Abort::RetryExhausted) | Err(Abort::Overloaded)),
                        "doomed block returned {r:?}"
                    );
                }
                // A retry-wait whose deadline fires (nothing ever changes).
                1 => {
                    let r = try_atomic_with(
                        &heap,
                        TxnPolicy::default().with_deadline(2),
                        |tx| {
                            let _ = tx.read(obj, 0)?;
                            tx.retry::<()>()
                        },
                    );
                    prop_assert!(
                        matches!(r, Err(Abort::DeadlineExceeded) | Err(Abort::Overloaded)),
                        "retry-wait returned {r:?}"
                    );
                }
                // An escalated (serialized) increment.
                2 => {
                    let esc = TxnPolicy { serialize_after: 0, ..TxnPolicy::default() };
                    let r = try_atomic_with(&heap, esc, |tx| {
                        let v = tx.read(obj, 0)?;
                        tx.write(obj, 0, v + 1)
                    });
                    match r {
                        Ok(Some(())) => committed += 1,
                        Err(Abort::Overloaded) => {}
                        other => prop_assert!(false, "escalated block returned {other:?}"),
                    }
                }
                // Plain traffic (sheddable while the gate is closed).
                _ => {
                    let r = try_atomic_with(&heap, TxnPolicy::default(), |tx| {
                        let v = tx.read(obj, 0)?;
                        tx.write(obj, 0, v + 1)
                    });
                    match r {
                        Ok(Some(())) => committed += 1,
                        Err(Abort::Overloaded) => {}
                        other => prop_assert!(false, "plain block returned {other:?}"),
                    }
                }
            }
        }
        prop_assert_eq!(heap.read_raw(obj, 0), committed, "stopped blocks rolled back");
        prop_assert!(heap.txn_slot_count() <= 2,
            "policy stops leaked slots: {}", heap.txn_slot_count());
        let report = heap.audit();
        prop_assert!(report.is_clean(), "audit dirty after policy stops:\n{}", report);
    }
}
