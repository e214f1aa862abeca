//! Per-layer counts from `Heap::stats_snapshot()` deltas, and the shared
//! ratio helpers.

use crate::report::Metrics;
use crate::trace::Trace;
use stm_core::stats::{StatsSnapshot, TxnTelemetry};

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Reads one counter of a stats snapshot.
pub type Field = fn(&StatsSnapshot) -> u64;

/// Sets the barrier, DEA, transaction, clock and contention counts, each
/// read through `count` (for example, the delta between two snapshots).
pub fn stm_counts(m: &mut Metrics, count: impl Fn(Field) -> u64) {
    let d = |f: Field| count(f) as f64;
    let reads = d(|s| s.read_barriers);
    let writes = d(|s| s.write_barriers);
    let fast = d(|s| s.private_fast_paths);
    m.set("barrier.reads", reads);
    m.set("barrier.writes", writes);
    m.set("dea.private_fast_paths", fast);
    m.set("dea.publishes", d(|s| s.publishes));
    m.set("dea.private_hit_ratio", ratio(fast, fast + reads + writes));
    let (commits, aborts) = (d(|s| s.commits), d(|s| s.aborts));
    m.set("txn.commits", commits);
    m.set("txn.aborts", aborts);
    m.set("txn.aborts_validation", d(|s| s.aborts_validation));
    m.set("txn.abort_ratio", ratio(aborts, commits + aborts));
    m.set("clock.rv_extensions", d(|s| s.rv_extensions));
    m.set(
        "clock.revalidations_skipped",
        d(|s| s.revalidations_skipped),
    );
    m.set("clock.cas_retries", d(|s| s.clock_cas_retries));
    m.set("contention.conflict_waits", d(|s| s.conflict_waits));
    m.set("contention.self_aborts", d(|s| s.total_self_aborts()));
    m.set(
        "contention.escalations_to_serial",
        d(|s| s.escalations_to_serial),
    );
    m.set("contention.deadline_aborts", d(|s| s.deadline_aborts));
    m.set("contention.retries_exhausted", d(|s| s.retries_exhausted));
}

/// `count` for [`stm_counts`]: what happened between two snapshots.
pub fn delta<'a>(
    before: &'a StatsSnapshot,
    after: &'a StatsSnapshot,
) -> impl Fn(Field) -> u64 + 'a {
    move |f| f(after) - f(before)
}

/// Sets the span-derived times: mean self time of `txn.read`, `txn.write`
/// and `txn.block` spans (the block's self time is begin + commit +
/// rollback), and the self time of the isolation-barrier spans.
pub fn span_times(m: &mut Metrics, t: &Trace) {
    m.set("txn.read_ns", t.get("txn.read").mean_self_ns());
    m.set("txn.write_ns", t.get("txn.write").mean_self_ns());
    m.set("txn.block_self_ns", t.get("txn.block").mean_self_ns());
    let (read, aggr) = (t.get("barrier.read"), t.get("barrier.aggregate"));
    let self_ns = (read.self_ns + aggr.self_ns) as f64;
    m.set("barrier.self_s", self_ns / 1e9);
    m.set(
        "barrier.ns_per_access",
        ratio(self_ns, (read.count + aggr.count) as f64),
    );
}

/// Tracing overhead: how much faster untraced operations ran, in percent.
pub fn overhead_pct(untraced_rate: f64, traced_rate: f64) -> f64 {
    (ratio(untraced_rate, traced_rate) - 1.0) * 100.0
}

/// Sets the per-block figures summed from atomic-block telemetry.
pub fn block_counts(m: &mut Metrics, blocks: u64, tel: &TxnTelemetry) {
    m.set(
        "txn.attempts_per_block",
        ratio(tel.attempts as f64, blocks as f64),
    );
    m.set("contention.wait_rounds", tel.wait_rounds as f64);
}
