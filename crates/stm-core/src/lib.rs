//! # stm-core — a strongly atomic software transactional memory
//!
//! Reproduction of the STM system of *Shpeisman et al., "Enforcing Isolation
//! and Ordering in STM", PLDI 2007*: an eager-versioning, optimistic-read
//! STM (McRT-style) extended with **strong atomicity** — non-transactional
//! reads and writes execute isolation barriers that speak the same
//! transaction-record protocol as transactions themselves — plus the
//! paper's **dynamic escape analysis** (private/public object tracking with
//! `publishObject`), a **lazy-versioning** engine for the §2.3 anomaly
//! studies, **quiescence** as a privatization-only alternative, and
//! **aggregated barriers**.
//!
//! ## Layout
//! * [`txnrec`] — the 4-state transaction-record word (paper Figures 7–8).
//! * [`heap`] — the shared object heap (shapes, typed fields, raw/volatile
//!   access).
//! * [`txn`] — atomic blocks: [`txn::atomic`], retry, closed/open nesting.
//! * [`eager`] / [`lazy`] — the two version-management engines, built on a
//!   shared internal pipeline (`pipeline`) that owns the open-read,
//!   acquire, validate, release, and commit/abort paths for both — and
//!   that reaches records through the granularity-agnostic guard API
//!   ([`config::Granularity`]: embedded per-object records, or the
//!   TL2-style striped ownership-record table).
//! * [`barrier`] — non-transactional isolation barriers (Figures 9–10) and
//!   barrier aggregation (Figure 14).
//! * [`dea`] — object publication (Figure 11).
//! * [`quiesce`] — commit-time quiescence (§3.4).
//! * [`locks`] — the `synchronized` baseline.
//! * [`syncpoint`] — deterministic interleaving scripts for the anomaly
//!   litmus tests.
//! * [`cost`] — virtual-time hooks for the simulated multiprocessor.
//! * [`fault`] — seeded deterministic fault injection (delays, forced
//!   aborts, mid-critical-section panics) for crash-safety campaigns.
//! * [`watchdog`] — stuck-owner liveness tracking and orphaned-record
//!   reclamation.
//! * [`audit`] — the heap integrity auditor ([`heap::Heap::audit`]), the
//!   oracle behind the chaos runs.
//!
//! ## Quick start
//! ```
//! use stm_core::prelude::*;
//!
//! // A strongly atomic heap with dynamic escape analysis.
//! let heap = Heap::new(StmConfig::strong_default());
//! let node = heap.define_shape(Shape::new(
//!     "Node",
//!     vec![FieldDef::int("value"), FieldDef::reference("next")],
//! ));
//!
//! let shared = heap.alloc_public(node);
//!
//! // Transactional code.
//! atomic(&heap, |tx| {
//!     let v = tx.read(shared, 0)?;
//!     tx.write(shared, 0, v + 1)
//! });
//!
//! // NON-transactional code uses isolation barriers — this is what makes
//! // the system strongly atomic.
//! let v = stm_core::barrier::read_barrier(&heap, shared, 0);
//! assert_eq!(v, 1);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod audit;
pub mod barrier;
pub mod clock;
pub mod config;
pub mod contention;
pub mod cost;
pub mod dea;
pub mod eager;
pub mod fault;
pub mod heap;
pub mod lazy;
pub mod locks;
pub mod mv;
mod pipeline;
pub mod quiesce;
pub mod segvec;
pub mod stats;
pub mod syncpoint;
pub mod txn;
pub mod txnrec;
pub mod typed;
pub mod watchdog;

#[doc(hidden)]
pub use paste;

/// Commonly used items, re-exported.
pub mod prelude {
    pub use crate::audit::{AuditFinding, AuditReport};
    pub use crate::barrier::{aggregate, read_access, read_barrier, write_access, write_barrier};
    pub use crate::config::{
        AdmissionConfig, BarrierMode, ClockMode, Granularity, IsolationLevel, StmConfig,
        TxnPolicy, VersionGranularity, Versioning,
    };
    pub use crate::contention::{CmDecision, ConflictSite, ContentionManager, ContentionPolicy};
    pub use crate::fault::{FaultPlan, FaultSite, InjectedPanic};
    pub use crate::heap::{FieldDef, Heap, Kind, ObjRef, Shape, ShapeId, Word};
    pub use crate::locks::SyncTable;
    pub use crate::stats::{StatsSnapshot, TxnTelemetry};
    pub use crate::txn::{
        atomic, atomic_read_only, atomic_read_only_traced, atomic_traced, atomic_with, try_atomic,
        try_atomic_read_only, try_atomic_traced, try_atomic_with, try_atomic_with_traced, Abort,
        TxResult, Txn, TxnKind,
    };
    pub use crate::typed::{RefRecord, TArray, TCell, Transactable};
    pub use crate::watchdog::WatchdogConfig;
}
