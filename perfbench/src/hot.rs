//! `strong-hot`: two clients over 64 hot objects holding (balance, counter),
//! with isolation barriers beside transactions on the same objects.
//!
//! Each client runs 50% transfers that read the source's counter and move
//! balance, 10% declared read-only scans of all 64 balances, 20%
//! `aggregate` increments of a counter, and 20% `read_barrier` reads of a
//! balance. Barrier writes land on records that transactions read, so
//! conflict waits, validation aborts and escalation do the work.
//!
//! Latency is per atomic block; the non-transactional ops take a few
//! hundred nanoseconds and are timed by the barrier spans of the traced run.
//!
//! Odd slices of the untraced run repeat the same stream with the
//! non-transactional ops unbarriered; `strong_slowdown_x` compares the two.
//! A client increments only the counters of its own residue class, so even
//! unbarriered increments lose no update and every gate holds in both modes.
//!
//! Transfers and scans end with an explicit `Txn::validate`. Without it the
//! scan gate fails within seconds: a read that triggers timestamp extension
//! is logged only after the extension revalidated the read set, so a write
//! landing between that read and the re-sampled clock goes unseen, and the
//! read-only fast commit (or the `wv == rv + 1` skip) commits the torn
//! snapshot.

use crate::check;
use crate::clients::{self, ClientLog, Mode, Rng, Window};
use crate::report::Outcome;
use crate::stats::{median, quiet_median};
use crate::trace::Trace;
use std::time::Instant;
use stm_core::barrier::{aggregate, read_barrier};
use stm_core::prelude::*;

/// Hot objects.
pub const OBJECTS: u32 = 64;
/// Every object's opening balance.
pub const OPENING: Word = 1000;
const BALANCE: usize = 0;
const COUNTER: usize = 1;
const CLIENTS: usize = 2;
const STREAM_LEN: usize = 1 << 16;
/// Times the set-up (objects and op streams) runs; `setup_s` is the median
/// of the fastest quarter.
const SETUPS: usize = 101;

/// One client operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HotOp {
    /// Read `from`'s counter, then move `amount` of balance if covered.
    Transfer { from: u32, to: u32, amount: u32 },
    /// Sum all balances in a declared read-only block.
    Scan,
    /// Increment a counter non-transactionally (aggregated barrier).
    Increment(u32),
    /// Read a balance non-transactionally (read barrier).
    Read(u32),
}

/// Client `client`'s op stream for run seed `seed`.
pub fn stream(seed: u64, client: usize, len: usize) -> Vec<HotOp> {
    let mut rng = Rng::new(seed, 0x407 + client as u64);
    let classes = OBJECTS as u64 / CLIENTS as u64;
    (0..len)
        .map(|_| match rng.below(100) {
            0..=49 => {
                let from = rng.below(OBJECTS as u64) as u32;
                let to = (from + 1 + rng.below(OBJECTS as u64 - 1) as u32) % OBJECTS;
                HotOp::Transfer {
                    from,
                    to,
                    amount: 1 + rng.below(50) as u32,
                }
            }
            50..=59 => HotOp::Scan,
            60..=79 => {
                HotOp::Increment((rng.below(classes) * CLIENTS as u64) as u32 + client as u32)
            }
            _ => HotOp::Read(rng.below(OBJECTS as u64) as u32),
        })
        .collect()
}

/// Fails unless a scan saw the invariant total of all balances.
pub fn check_scan(total: Word) -> Result<(), String> {
    check::expect_total("strong-hot scan", total, OPENING * OBJECTS as Word)
}

fn build() -> (std::sync::Arc<Heap>, Vec<ObjRef>) {
    let heap = Heap::new(crate::config::pinned(true));
    let shape = heap.define_shape(Shape::new(
        "Hot",
        vec![FieldDef::int("balance"), FieldDef::int("counter")],
    ));
    let objs = (0..OBJECTS)
        .map(|_| {
            let o = heap.alloc_public(shape);
            heap.write_raw(o, BALANCE, OPENING);
            o
        })
        .collect();
    (heap, objs)
}

/// Runs every client over the objects through `window`, then checks the gates:
/// no scan saw a broken total, the counters add up to the increments made,
/// the balances are conserved, and the heap audits clean.
fn drive(
    heap: &Heap,
    objs: &[ObjRef],
    window: &Window,
    streams: &[Vec<HotOp>],
) -> Result<(Vec<ClientLog>, Trace), String> {
    let (logs, trace) = clients::run_clients(window, streams, |op, id, mode, rec, log| {
        log.attempted += 1;
        let weak = mode == Mode::Weak;
        match *op {
            HotOp::Transfer { from, to, amount } => {
                let (from, to, amount) = (objs[from as usize], objs[to as usize], amount as Word);
                rec.enter("txn.block", id);
                let (res, tel) = try_atomic_with_traced(heap, TxnPolicy::bounded(), |tx| {
                    let seen = rec.span("txn.read", id, || tx.read(from, COUNTER))?;
                    let a = rec.span("txn.read", id, || tx.read(from, BALANCE))?;
                    let b = rec.span("txn.read", id, || tx.read(to, BALANCE))?;
                    if a >= amount {
                        rec.span("txn.write", id, || tx.write(from, BALANCE, a - amount))?;
                        rec.span("txn.write", id, || tx.write(to, BALANCE, b + amount))?;
                    }
                    // The library defect in the module docs: validate here.
                    tx.validate()?;
                    Ok(seen)
                });
                rec.exit();
                log.blocks += 1;
                log.tel.absorb(tel);
                match res {
                    Ok(Some(seen)) => {
                        std::hint::black_box(seen);
                    }
                    Ok(None) => log.violations.push("a transfer was cancelled".into()),
                    Err(_) => log.failed += 1,
                }
                true
            }
            HotOp::Scan => {
                rec.enter("txn.block", id);
                let (total, tel) = atomic_read_only_traced(heap, |tx| {
                    let mut total: Word = 0;
                    for &o in objs {
                        total =
                            total.wrapping_add(rec.span("txn.read", id, || tx.read(o, BALANCE))?);
                    }
                    tx.validate()?;
                    Ok(total)
                });
                rec.exit();
                log.blocks += 1;
                log.tel.absorb(tel);
                if let Err(e) = check_scan(total) {
                    log.violations.push(format!("{e} ({mode:?} slice)"));
                }
                true
            }
            HotOp::Increment(i) => {
                let o = objs[i as usize];
                if weak {
                    heap.write_raw(o, COUNTER, heap.read_raw(o, COUNTER) + 1);
                } else {
                    rec.span("barrier.aggregate", id, || {
                        aggregate(heap, o, |obj| obj.set(COUNTER, obj.get(COUNTER) + 1))
                    });
                }
                log.increments += 1;
                false
            }
            HotOp::Read(i) => {
                let o = objs[i as usize];
                let v = if weak {
                    heap.read_raw(o, BALANCE)
                } else {
                    rec.span("barrier.read", id, || read_barrier(heap, o, BALANCE))
                };
                std::hint::black_box(v);
                false
            }
        }
    })?;
    clients::violations(&logs)?;
    let increments: u64 = logs.iter().map(|l| l.increments).sum();
    let counters = check::sum(objs, |o| heap.read_raw(o, COUNTER));
    check::expect_total("strong-hot counters", counters, increments)?;
    let balances = check::sum(objs, |o| heap.read_raw(o, BALANCE));
    check::expect_total("strong-hot balances", balances, OPENING * OBJECTS as Word)?;
    check::audit("strong-hot", heap)?;
    Ok((logs, trace))
}

/// Runs the workload.
pub fn run(seed: u64, seconds: f64, traced: bool) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    let mut built = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        let (heap, objs) = build();
        let streams: Vec<Vec<HotOp>> = (0..CLIENTS).map(|c| stream(seed, c, STREAM_LEN)).collect();
        setups.push(t.elapsed().as_secs_f64());
        built = Some((heap, objs, streams));
    }
    let (heap, objs, streams) = built.expect("set up at least once");
    out.e2e.set("setup_s", quiet_median(&setups));
    out.notes
        .push(format!("resolved config: {:?}", heap.config()));

    let window = Window::new(
        seconds,
        [Mode::Plain, if traced { Mode::Traced } else { Mode::Weak }],
    );
    let before = heap.stats_snapshot();
    let (logs, trace) = drive(&heap, &objs, &window, &streams)?;
    let after = heap.stats_snapshot();
    clients::summarize(&window, &logs, &trace, traced, &mut out)?;
    crate::layers::stm_counts(&mut out.layer, crate::layers::delta(&before, &after));
    out.layer
        .set("heap.objects_allocated", heap.object_count() as f64);
    if !traced {
        // Each unbarriered slice against the barriered slice before it, so
        // drift in machine speed cancels.
        let (plain, weak) = (
            window.rates(&logs, Mode::Plain),
            window.rates(&logs, Mode::Weak),
        );
        let ratios: Vec<f64> = plain.iter().zip(&weak).map(|(p, w)| w / p).collect();
        out.e2e.set("strong_slowdown_x", median(&ratios));
    } else {
        crate::report::write_trace(&trace, "strong-hot", seed, &mut out);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_stream_is_seeded_and_partitions_increments() {
        let a = stream(11, 1, 10_000);
        assert_eq!(a, stream(11, 1, 10_000));
        assert_ne!(a, stream(12, 1, 10_000));
        let count = |f: fn(&HotOp) -> bool| a.iter().filter(|op| f(op)).count();
        assert!((4700..5300).contains(&count(|op| matches!(op, HotOp::Transfer { .. }))));
        assert!((800..1200).contains(&count(|op| matches!(op, HotOp::Scan))));
        for op in &a {
            if let HotOp::Increment(i) = op {
                assert_eq!(
                    *i as usize % CLIENTS,
                    1,
                    "client 1 increments only its own counters"
                );
            }
        }
    }

    #[test]
    fn scan_checker_catches_a_broken_total() {
        assert!(check_scan(OPENING * OBJECTS as Word).is_ok());
        assert!(check_scan(OPENING * OBJECTS as Word + 1).is_err());
    }
}
