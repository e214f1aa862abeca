//! Heap integrity auditor — the oracle behind the chaos campaigns.
//!
//! [`Heap::audit`] sweeps every object and checks the invariants the
//! paper's protocol maintains at any quiescent moment (no transactions or
//! barriers mid-flight):
//!
//! * no record is stranded in a transactional `Exclusive` state (a live
//!   system releases every acquisition in bounded time; after a crash the
//!   watchdog must have reclaimed it);
//! * no record is stranded in the `ExclusiveAnon` state (barrier acquire
//!   and release are straight-line code);
//! * version numbers never regress between audits of the same heap (the
//!   release protocol only ever adds);
//! * the transaction registry holds no dead owner (every recovery log was
//!   drained — undo entries replayed, records released);
//! * under dynamic escape analysis, no *public* object's reference field
//!   points at a *private* object (privacy would be violated the moment
//!   another thread followed the reference).
//!
//! Under [`crate::config::Granularity::Striped`] the same stranded-slot and
//! version-monotonicity checks run over the striped ownership-record table
//! (every slot must be back in `Shared` after quiescence — the `Stripe*`
//! findings mirror the per-object ones), plus two stripe-specific checks:
//! no slot may carry the `Private` word (privacy lives only in the embedded
//! per-object records), and adjacent slots must not share a cache line
//! (the padding exists precisely to stop barrier-heavy threads from
//! false-sharing neighbouring stripes).
//!
//! The auditor is read-only and cheap (one pass over the store); chaos runs
//! call it after every campaign and fail on any finding.

use crate::heap::{Heap, ObjRef};
use crate::txnrec::{RecState, RecordTable};
use parking_lot::Mutex;
use std::collections::HashMap;

/// One invariant violation found by [`Heap::audit`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AuditFinding {
    /// A record is stuck in transactional `Exclusive` state.
    OrphanExclusive {
        /// The stranded object.
        obj: ObjRef,
        /// The owner-token word holding it.
        owner_word: usize,
        /// Whether the owner's registry slot says it died unfinished (a dead
        /// owner here means the watchdog never ran or was disabled).
        owner_dead: bool,
    },
    /// A record is stuck in the `ExclusiveAnon` (barrier-owned) state.
    OrphanAnon {
        /// The stranded object.
        obj: ObjRef,
        /// The version carried by the stuck record.
        version: usize,
    },
    /// A record's version went backwards since the previous audit.
    VersionRegressed {
        /// The object whose version regressed.
        obj: ObjRef,
        /// High-water version from earlier audits.
        before: usize,
        /// Version observed now.
        after: usize,
    },
    /// A registry slot still holds a dead owner — its recovery log was
    /// never drained.
    UndrainedRecoveryLog {
        /// The dead owner's token word.
        owner_word: usize,
        /// Records still listed as owned.
        records: usize,
        /// Undo entries never replayed.
        undo_entries: usize,
    },
    /// A public object's reference field points at a private object
    /// (dynamic-escape-analysis privacy bit inconsistent with
    /// reachability).
    PrivateReachable {
        /// The public object holding the reference.
        container: ObjRef,
        /// The offending field slot.
        field: usize,
        /// The private object reachable through it.
        target: ObjRef,
    },
    /// A striped ownership-record slot is stuck in transactional
    /// `Exclusive` state.
    StripeExclusive {
        /// The stranded slot index.
        stripe: usize,
        /// The owner-token word holding it.
        owner_word: usize,
        /// Whether the owner's registry slot says it died unfinished.
        owner_dead: bool,
    },
    /// A striped slot is stuck in the `ExclusiveAnon` (barrier-owned)
    /// state.
    StripeAnon {
        /// The stranded slot index.
        stripe: usize,
        /// The version carried by the stuck slot.
        version: usize,
    },
    /// A striped slot's version went backwards since the previous audit.
    StripeVersionRegressed {
        /// The slot whose version regressed.
        stripe: usize,
        /// High-water version from earlier audits.
        before: usize,
        /// Version observed now.
        after: usize,
    },
    /// A striped slot carries the all-ones `Private` word. Privacy lives
    /// only in the embedded per-object records; a private stripe would make
    /// every object hashing to it silently skip the protocol.
    StripePrivate {
        /// The corrupt slot index.
        stripe: usize,
    },
    /// Two adjacent stripes are closer than a cache line — the padding
    /// failed and barrier-heavy threads would false-share them.
    StripeFalseSharing {
        /// The first of the adjacent slots.
        stripe: usize,
        /// Observed distance in bytes.
        gap: usize,
    },
    /// A multiversion ring retains a stamp newer than the commit clock —
    /// a version no committer can have installed (leaked or corrupt entry).
    MvFutureStamp {
        /// The ring's object index.
        obj: usize,
        /// The ring's field slot.
        field: u32,
        /// The impossible stamp.
        stamp: u64,
        /// The commit clock at audit time.
        clock: u64,
    },
    /// A multiversion ring's newest retained stamp went backwards since the
    /// previous audit: installs only ever add newer versions, and GC only
    /// drops superseded *older* ones.
    MvStampRegressed {
        /// The ring's object index.
        obj: usize,
        /// The ring's field slot.
        field: u32,
        /// High-water newest stamp from earlier audits.
        before: u64,
        /// Newest stamp observed now.
        after: u64,
    },
    /// A multiversion ring holds the same stamp in two entries — one commit
    /// occupying two slots halves the usable history and means the
    /// in-place-reinstall path was bypassed.
    MvDuplicateStamp {
        /// The ring's object index.
        obj: usize,
        /// The ring's field slot.
        field: u32,
        /// The duplicated stamp.
        stamp: u64,
    },
    /// A quiescence slot is still marked active at a quiescent moment even
    /// though its owner is registered alive (or the slot carries no owner
    /// at all) — the transaction lifecycle leaked the slot. Slots stranded
    /// by *crashed* owners (owner word set, owner not registered alive) are
    /// expected leftovers under fault injection and are not reported.
    SlotStrandedActive {
        /// The leaked slot's index in the registry.
        slot: usize,
        /// The owner word the slot carries (0 = never set).
        owner_word: usize,
    },
}

impl std::fmt::Display for AuditFinding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AuditFinding::OrphanExclusive { obj, owner_word, owner_dead } => write!(
                f,
                "{obj:?}: stranded Exclusive record (owner {owner_word:#x}, {})",
                if *owner_dead { "owner known dead" } else { "owner liveness unknown" }
            ),
            AuditFinding::OrphanAnon { obj, version } => {
                write!(f, "{obj:?}: stranded ExclusiveAnon record (version {version})")
            }
            AuditFinding::VersionRegressed { obj, before, after } => {
                write!(f, "{obj:?}: version regressed {before} -> {after}")
            }
            AuditFinding::UndrainedRecoveryLog { owner_word, records, undo_entries } => write!(
                f,
                "owner {owner_word:#x}: dead but unreclaimed ({records} records, \
                 {undo_entries} undo entries)"
            ),
            AuditFinding::PrivateReachable { container, field, target } => write!(
                f,
                "{container:?}.{field}: public object references private {target:?}"
            ),
            AuditFinding::StripeExclusive { stripe, owner_word, owner_dead } => write!(
                f,
                "stripe[{stripe}]: stranded Exclusive slot (owner {owner_word:#x}, {})",
                if *owner_dead { "owner known dead" } else { "owner liveness unknown" }
            ),
            AuditFinding::StripeAnon { stripe, version } => {
                write!(f, "stripe[{stripe}]: stranded ExclusiveAnon slot (version {version})")
            }
            AuditFinding::StripeVersionRegressed { stripe, before, after } => {
                write!(f, "stripe[{stripe}]: version regressed {before} -> {after}")
            }
            AuditFinding::StripePrivate { stripe } => {
                write!(f, "stripe[{stripe}]: slot carries the Private word")
            }
            AuditFinding::StripeFalseSharing { stripe, gap } => write!(
                f,
                "stripe[{stripe}]: adjacent slots only {gap} bytes apart (cache-line sharing)"
            ),
            AuditFinding::MvFutureStamp { obj, field, stamp, clock } => write!(
                f,
                "mv[{obj}.{field}]: retained stamp {stamp} is newer than the commit clock {clock}"
            ),
            AuditFinding::MvStampRegressed { obj, field, before, after } => write!(
                f,
                "mv[{obj}.{field}]: newest stamp regressed {before} -> {after}"
            ),
            AuditFinding::MvDuplicateStamp { obj, field, stamp } => write!(
                f,
                "mv[{obj}.{field}]: stamp {stamp} retained in two ring entries"
            ),
            AuditFinding::SlotStrandedActive { slot, owner_word } => write!(
                f,
                "txn-slot[{slot}]: active at a quiescent moment (owner {owner_word:#x} \
                 registered alive or never set)"
            ),
        }
    }
}

/// The result of one [`Heap::audit`] sweep.
#[derive(Clone, Debug, Default)]
pub struct AuditReport {
    /// Every violation found, in store order.
    pub findings: Vec<AuditFinding>,
}

impl AuditReport {
    /// True when the sweep found nothing.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Panics with the full findings list unless the heap audited clean.
    ///
    /// # Panics
    /// Panics if the report contains any finding.
    #[track_caller]
    pub fn assert_clean(&self) {
        assert!(self.is_clean(), "heap audit failed:\n{self}");
    }
}

impl std::fmt::Display for AuditReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.findings.is_empty() {
            return writeln!(f, "audit clean");
        }
        for finding in &self.findings {
            writeln!(f, "  - {finding}")?;
        }
        Ok(())
    }
}

/// Per-heap high-water version marks, fed by successive audits so version
/// monotonicity is checked across the heap's whole lifetime.
#[derive(Debug, Default)]
pub(crate) struct VersionHighWater {
    marks: Mutex<HashMap<usize, usize>>,
    /// Separate key space for striped-table slots (a slot index would
    /// otherwise collide with an object index).
    stripe_marks: Mutex<HashMap<usize, usize>>,
    /// Newest-retained-stamp high water per multiversion ring.
    mv_marks: Mutex<HashMap<(usize, u32), u64>>,
}

impl Heap {
    /// Audits heap integrity at a quiescent moment (see the module docs for
    /// the invariant list). Read-only; safe to call repeatedly — version
    /// monotonicity is checked against the high-water marks of earlier
    /// audits.
    ///
    /// Records legitimately held by *in-flight* transactions or barriers
    /// will be reported as orphans: call this only when no STM operation is
    /// running.
    pub fn audit(&self) -> AuditReport {
        let mut findings = Vec::new();
        let n = self.object_count();
        let mut marks = self.audit_versions.marks.lock();
        for i in 0..n {
            let r = ObjRef::from_index(i);
            match self.obj(r).rec.load().state() {
                RecState::Private => {}
                RecState::Shared { version } => {
                    let mark = marks.entry(i).or_insert(version);
                    if version < *mark {
                        findings.push(AuditFinding::VersionRegressed {
                            obj: r,
                            before: *mark,
                            after: version,
                        });
                    } else {
                        *mark = version;
                    }
                }
                RecState::Exclusive { owner } => {
                    findings.push(AuditFinding::OrphanExclusive {
                        obj: r,
                        owner_word: owner.word(),
                        owner_dead: self.owner_dead(owner.word()),
                    });
                }
                RecState::ExclusiveAnon { version } => {
                    findings.push(AuditFinding::OrphanAnon { obj: r, version });
                }
            }
        }
        drop(marks);
        // Striped ownership-record table: after quiescence every slot must
        // be back in `Shared` (the per-object checks above still run — in
        // striped mode the embedded records carry only the privacy state,
        // and stranding one is just as much a protocol violation).
        if let RecordTable::Striped { slots, .. } = &self.table {
            let mut stripe_marks = self.audit_versions.stripe_marks.lock();
            for (i, slot) in slots.iter().enumerate() {
                match slot.0.load().state() {
                    RecState::Shared { version } => {
                        let mark = stripe_marks.entry(i).or_insert(version);
                        if version < *mark {
                            findings.push(AuditFinding::StripeVersionRegressed {
                                stripe: i,
                                before: *mark,
                                after: version,
                            });
                        } else {
                            *mark = version;
                        }
                    }
                    RecState::Exclusive { owner } => {
                        findings.push(AuditFinding::StripeExclusive {
                            stripe: i,
                            owner_word: owner.word(),
                            owner_dead: self.owner_dead(owner.word()),
                        });
                    }
                    RecState::ExclusiveAnon { version } => {
                        findings.push(AuditFinding::StripeAnon { stripe: i, version });
                    }
                    RecState::Private => {
                        findings.push(AuditFinding::StripePrivate { stripe: i });
                    }
                }
                // False-sharing audit on the live allocation: the padding
                // must keep neighbouring slots on distinct cache lines.
                if i + 1 < slots.len() {
                    let a = &slots[i] as *const _ as usize;
                    let b = &slots[i + 1] as *const _ as usize;
                    if b.wrapping_sub(a) < 64 {
                        findings.push(AuditFinding::StripeFalseSharing {
                            stripe: i,
                            gap: b.wrapping_sub(a),
                        });
                    }
                }
            }
        }
        // Multiversion rings: every retained stamp must have been drawn
        // from the commit clock (no future stamps), the newest retained
        // stamp per ring must never regress (installs add newer versions,
        // GC drops only superseded older ones), and no commit may occupy
        // two entries of one ring. Bounded length is structural — the ring
        // is a fixed array — so these three checks are what "no leaked
        // versions" means operationally.
        if let Some(mv) = &self.mv {
            let clock = self.clock_now();
            let mut mv_marks = self.audit_versions.mv_marks.lock();
            mv.for_each(|obj, field, ring| {
                let mut stamps = ring.stamps();
                stamps.sort_unstable();
                for pair in stamps.windows(2) {
                    if pair[0] == pair[1] {
                        findings.push(AuditFinding::MvDuplicateStamp {
                            obj,
                            field,
                            stamp: pair[0],
                        });
                    }
                }
                for &stamp in &stamps {
                    if stamp > clock {
                        findings.push(AuditFinding::MvFutureStamp { obj, field, stamp, clock });
                    }
                }
                if let Some(newest) = ring.newest_stamp() {
                    let mark = mv_marks.entry((obj, field)).or_insert(newest);
                    if newest < *mark {
                        findings.push(AuditFinding::MvStampRegressed {
                            obj,
                            field,
                            before: *mark,
                            after: newest,
                        });
                    } else {
                        *mark = newest;
                    }
                }
            });
        }
        // Quiescence-slot registry: at a quiescent moment every slot must be
        // inactive unless its owner crashed mid-flight (those are expected
        // leftovers — quiescence skips them — and already surface through
        // the orphan/recovery findings above when they matter).
        for (i, slot) in self.registry.iter() {
            if !slot.active.load(std::sync::atomic::Ordering::Acquire) {
                continue;
            }
            let (owner_word, live) = slot.holder();
            if owner_word == 0 || live {
                findings.push(AuditFinding::SlotStrandedActive { slot: i, owner_word });
            }
        }
        // Recovery logs exist only while the watchdog mirrors them; without
        // it a dead owner has nothing left to drain.
        if self.config.watchdog.enabled {
            for (owner_word, records, undo_entries) in crate::watchdog::dead_logs(self) {
                findings.push(AuditFinding::UndrainedRecoveryLog {
                    owner_word,
                    records,
                    undo_entries,
                });
            }
        }
        if self.config.dea {
            for i in 0..n {
                let r = ObjRef::from_index(i);
                if self.is_private(r) {
                    continue;
                }
                for field in 0..self.num_fields(r) {
                    if !self.field_is_ref(r, field) {
                        continue;
                    }
                    if let Some(target) = ObjRef::from_word(self.read_raw(r, field)) {
                        if target.index() < n && self.is_private(target) {
                            findings.push(AuditFinding::PrivateReachable {
                                container: r,
                                field,
                                target,
                            });
                        }
                    }
                }
            }
        }
        AuditReport { findings }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::StmConfig;
    use crate::heap::{FieldDef, Shape};
    use crate::txn::atomic;
    use crate::txnrec::{OwnerToken, RecWord};

    fn shape(heap: &Heap) -> crate::heap::ShapeId {
        heap.define_shape(Shape::new(
            "Node",
            vec![FieldDef::int("v"), FieldDef::reference("next")],
        ))
    }

    #[test]
    fn clean_heap_audits_clean() {
        let heap = Heap::new(StmConfig::strong_default());
        let s = shape(&heap);
        let o = heap.alloc_public(s);
        atomic(&heap, |tx| tx.write(o, 0, 7));
        let _ = crate::barrier::read_barrier(&heap, o, 0);
        heap.audit().assert_clean();
        heap.audit().assert_clean();
    }

    #[test]
    fn stranded_exclusive_is_found() {
        // Strands the *guard* of `o`, so the finding is per-object or
        // striped depending on the heap's ambient granularity.
        let heap = Heap::new(StmConfig::default());
        let s = shape(&heap);
        let o = heap.alloc_public(s);
        heap.guard(o, heap.obj(o)).store_raw(RecWord::exclusive(OwnerToken::from_id(42)));
        let report = heap.audit();
        assert!(matches!(
            report.findings.as_slice(),
            [AuditFinding::OrphanExclusive { owner_dead: false, .. }]
                | [AuditFinding::StripeExclusive { owner_dead: false, .. }]
        ));
        assert!(report.to_string().contains("stranded Exclusive"));
    }

    #[test]
    fn stranded_anon_is_found() {
        let heap = Heap::new(StmConfig::default());
        let s = shape(&heap);
        let o = heap.alloc_public(s);
        heap.guard(o, heap.obj(o)).bit_test_and_reset().unwrap();
        let report = heap.audit();
        assert!(matches!(
            report.findings.as_slice(),
            [AuditFinding::OrphanAnon { .. }] | [AuditFinding::StripeAnon { .. }]
        ));
    }

    #[test]
    fn version_regression_is_found() {
        let heap = Heap::new(StmConfig::default());
        let s = shape(&heap);
        let o = heap.alloc_public(s);
        atomic(&heap, |tx| tx.write(o, 0, 1));
        heap.audit().assert_clean();
        heap.guard(o, heap.obj(o)).store_raw(RecWord::shared(1));
        let report = heap.audit();
        assert!(matches!(
            report.findings.as_slice(),
            [AuditFinding::VersionRegressed { .. }]
                | [AuditFinding::StripeVersionRegressed { .. }]
        ));
    }

    #[test]
    fn striped_table_audits_clean_after_quiescence() {
        let heap = Heap::new(
            StmConfig::strong_default()
                .with_granularity(crate::config::Granularity::Striped { stripes: 8 }),
        );
        let s = shape(&heap);
        // More objects than stripes, so slots are genuinely shared.
        let objs: Vec<_> = (0..32).map(|_| heap.alloc_public(s)).collect();
        for (i, &o) in objs.iter().enumerate() {
            atomic(&heap, |tx| tx.write(o, 0, i as u64));
            crate::barrier::write_barrier(&heap, o, 0, i as u64 + 1);
        }
        heap.audit().assert_clean();
        heap.audit().assert_clean();
    }

    #[test]
    fn striped_stranded_slot_is_found() {
        let heap = Heap::new(
            StmConfig::default()
                .with_granularity(crate::config::Granularity::Striped { stripes: 8 }),
        );
        let s = shape(&heap);
        let o = heap.alloc_public(s);
        heap.guard(o, heap.obj(o)).store_raw(RecWord::exclusive(OwnerToken::from_id(7)));
        let report = heap.audit();
        assert!(matches!(
            report.findings.as_slice(),
            [AuditFinding::StripeExclusive { owner_dead: false, .. }]
        ));
        assert!(report.to_string().contains("stripe["));
    }

    #[test]
    fn stranded_active_slot_is_found() {
        let heap = Heap::new(StmConfig { quiescence: true, ..StmConfig::default() });
        let (idx, owner) = heap.claim_txn_slot(0, 0);
        let report = heap.audit();
        assert!(matches!(
            report.findings.as_slice(),
            [AuditFinding::SlotStrandedActive { owner_word, .. }] if *owner_word == owner.word()
        ));
        assert!(report.to_string().contains("txn-slot["));
        // A slot stranded by a *retired* (reclaimed) owner is an expected
        // leftover, not a finding.
        heap.txn_slot(idx).retire(owner);
        heap.audit().assert_clean();
    }

    #[test]
    fn dead_owner_with_a_recovery_log_is_found() {
        let heap = Heap::new(StmConfig::default());
        let (_, owner) = heap.claim_txn_slot(0, 0);
        heap.owner_vanished(owner.word());
        let report = heap.audit();
        assert!(matches!(
            report.findings.as_slice(),
            [AuditFinding::UndrainedRecoveryLog { owner_word, records: 0, undo_entries: 0 }]
                if *owner_word == owner.word()
        ));
        // Inspecting the log hands it back: the owner still reads dead.
        assert!(heap.owner_dead(owner.word()));
    }

    #[test]
    fn multiversion_heap_audits_clean() {
        let heap = Heap::new(StmConfig::strong_default().with_multiversion(true));
        let s = shape(&heap);
        let o = heap.alloc_public(s);
        atomic(&heap, |tx| tx.write(o, 0, 7));
        crate::barrier::write_barrier(&heap, o, 0, 8);
        let v = crate::txn::atomic_read_only(&heap, |tx| tx.read(o, 0));
        assert_eq!(v, 8);
        heap.audit().assert_clean();
        heap.audit().assert_clean();
    }

    #[test]
    fn mv_future_stamp_is_found() {
        let heap = Heap::new(StmConfig::strong_default().with_multiversion(true));
        // Clock never advanced: any nonzero stamp is from the future.
        heap.mv
            .as_ref()
            .unwrap()
            .with_ring(0, 0, |ring| ring.install(999, 1));
        let report = heap.audit();
        assert!(matches!(
            report.findings.as_slice(),
            [AuditFinding::MvFutureStamp { stamp: 999, .. }]
        ));
        assert!(report.to_string().contains("newer than the commit clock"));
    }

    #[test]
    fn mv_stamp_regression_is_found() {
        let heap = Heap::new(StmConfig::strong_default().with_multiversion(true));
        for _ in 0..5 {
            let stamp = heap.clock_tick();
            heap.clock_publish(stamp);
        }
        let mv = heap.mv.as_ref().unwrap();
        mv.with_ring(0, 0, |ring| ring.install(5, 1));
        heap.audit().assert_clean();
        mv.with_ring(0, 0, |ring| {
            ring.clear();
            ring.install(3, 1);
        });
        let report = heap.audit();
        assert!(matches!(
            report.findings.as_slice(),
            [AuditFinding::MvStampRegressed { before: 5, after: 3, .. }]
        ));
    }

    #[test]
    fn mv_duplicate_stamp_is_found() {
        let heap = Heap::new(StmConfig::strong_default().with_multiversion(true));
        for _ in 0..10 {
            let stamp = heap.clock_tick();
            heap.clock_publish(stamp);
        }
        heap.mv.as_ref().unwrap().with_ring(0, 0, |ring| {
            ring.force_entry(0, 10, 1);
            ring.force_entry(1, 10, 2);
        });
        let report = heap.audit();
        assert!(matches!(
            report.findings.as_slice(),
            [AuditFinding::MvDuplicateStamp { stamp: 10, .. }]
        ));
    }

    #[test]
    fn private_reachable_from_public_is_found() {
        let heap = Heap::new(StmConfig::strong_default());
        let s = shape(&heap);
        let public = heap.alloc_public(s);
        let private = heap.alloc(s);
        assert!(heap.is_private(private));
        // Bypass the publishing write barrier: a raw store leaks the
        // private reference without flipping its privacy bit.
        heap.write_raw(public, 1, private.to_word());
        let report = heap.audit();
        assert!(matches!(
            report.findings.as_slice(),
            [AuditFinding::PrivateReachable { .. }]
        ));
    }
}
