//! `bank-wide`: two clients over 2^20 public accounts.
//!
//! 80% transfers (2 reads + 2 writes) under `TxnPolicy::bounded()`, 20%
//! declared read-only scans of 8 accounts. The working set is far larger
//! than the caches and conflicts are rare, so the cost of a transaction's
//! begin, open-for-read/write, validation and commit dominates.
//! `strong_slowdown_x` prices a non-transactional read of public data: a
//! sweep over a cache-resident prefix of the balances with read barriers vs
//! raw reads.

use crate::check;
use crate::clients::{self, Mode, Rng, Window};
use crate::report::Outcome;
use crate::stats::{median, quiet_median};
use crate::trace::Trace;
use std::sync::Arc;
use std::time::Instant;
use stm_core::barrier::read_barrier;
use stm_core::prelude::*;

/// Accounts in the bank.
pub const ACCOUNTS: u32 = 1 << 20;
/// Every account's opening balance.
pub const OPENING: Word = 1000;
const CLIENTS: usize = 2;
/// Ops generated per client before timing; the client cycles through them.
const STREAM_LEN: usize = 1 << 18;
/// Times the set-up (bank and op streams) runs; `setup_s` is the median
/// of the fastest quarter.
const SETUPS: usize = 5;
/// Pairs of prefix sweeps (with and without barriers) behind the slowdown.
const SWEEPS: usize = 201;
/// Accounts in the cache-resident prefix the slowdown sweeps.
const SWEPT: usize = 1 << 14;

/// One client operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BankOp {
    /// Move `amount` from one account to another, if it is covered.
    Transfer { from: u32, to: u32, amount: u32 },
    /// Sum eight accounts in a declared read-only block.
    Scan([u32; 8]),
}

/// Client `client`'s op stream for run seed `seed`.
pub fn stream(seed: u64, client: usize, len: usize) -> Vec<BankOp> {
    let mut rng = Rng::new(seed, client as u64);
    let account = |rng: &mut Rng| rng.below(ACCOUNTS as u64) as u32;
    (0..len)
        .map(|_| {
            if rng.below(100) < 80 {
                let from = account(&mut rng);
                let to = (from + 1 + rng.below(ACCOUNTS as u64 - 1) as u32) % ACCOUNTS;
                BankOp::Transfer {
                    from,
                    to,
                    amount: 1 + rng.below(100) as u32,
                }
            } else {
                BankOp::Scan(std::array::from_fn(|_| account(&mut rng)))
            }
        })
        .collect()
}

/// The heap and its accounts.
pub struct Bank {
    /// The heap.
    pub heap: Arc<Heap>,
    /// Every account, one public object each.
    pub accounts: Vec<ObjRef>,
}

/// Builds and funds the bank.
pub fn build() -> Bank {
    let heap = Heap::new(crate::config::pinned(true));
    let shape = heap.define_shape(Shape::new("Account", vec![FieldDef::int("balance")]));
    let accounts = (0..ACCOUNTS)
        .map(|_| {
            let o = heap.alloc_public(shape);
            heap.write_raw(o, 0, OPENING);
            o
        })
        .collect();
    Bank { heap, accounts }
}

/// Runs the workload.
pub fn run(seed: u64, seconds: f64, traced: bool) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    let mut built = None;
    for _ in 0..SETUPS {
        drop(built.take());
        let t = Instant::now();
        let bank = build();
        let streams: Vec<Vec<BankOp>> = (0..CLIENTS).map(|c| stream(seed, c, STREAM_LEN)).collect();
        setups.push(t.elapsed().as_secs_f64());
        built = Some((bank, streams));
    }
    let (bank, streams) = built.expect("set up at least once");
    out.e2e.set("setup_s", quiet_median(&setups));
    out.notes
        .push(format!("resolved config: {:?}", bank.heap.config()));

    let odd = if traced { Mode::Traced } else { Mode::Plain };
    let window = Window::new(seconds, [Mode::Plain, odd]);
    let before = bank.heap.stats_snapshot();
    let (logs, trace): (_, Trace) =
        clients::run_clients(&window, &streams, |op, id, _mode, rec, log| {
            log.attempted += 1;
            match *op {
                BankOp::Transfer { from, to, amount } => {
                    let (from, to) = (bank.accounts[from as usize], bank.accounts[to as usize]);
                    let amount = amount as Word;
                    rec.enter("txn.block", id);
                    let (res, tel) =
                        try_atomic_with_traced(&bank.heap, TxnPolicy::bounded(), |tx| {
                            let a = rec.span("txn.read", id, || tx.read(from, 0))?;
                            let b = rec.span("txn.read", id, || tx.read(to, 0))?;
                            if a >= amount {
                                rec.span("txn.write", id, || tx.write(from, 0, a - amount))?;
                                rec.span("txn.write", id, || tx.write(to, 0, b + amount))?;
                            }
                            Ok(())
                        });
                    rec.exit();
                    log.blocks += 1;
                    log.tel.absorb(tel);
                    match res {
                        Ok(Some(())) => {}
                        Ok(None) => log.violations.push("a transfer was cancelled".into()),
                        Err(_) => log.failed += 1,
                    }
                }
                BankOp::Scan(idx) => {
                    rec.enter("txn.block", id);
                    let (sum, tel) = atomic_read_only_traced(&bank.heap, |tx| {
                        let mut sum: Word = 0;
                        for &i in &idx {
                            let o = bank.accounts[i as usize];
                            sum = sum.wrapping_add(rec.span("txn.read", id, || tx.read(o, 0))?);
                        }
                        Ok(sum)
                    });
                    rec.exit();
                    std::hint::black_box(sum);
                    log.blocks += 1;
                    log.tel.absorb(tel);
                }
            }
            true
        })?;
    let after = bank.heap.stats_snapshot();
    clients::summarize(&window, &logs, &trace, traced, &mut out)?;
    crate::layers::stm_counts(&mut out.layer, crate::layers::delta(&before, &after));
    out.layer
        .set("heap.objects_allocated", bank.heap.object_count() as f64);

    // Conservation gate: every balance, read through the barrier and raw.
    let want = OPENING * ACCOUNTS as Word;
    let barriered = check::sum(&bank.accounts, |o| read_barrier(&bank.heap, o, 0));
    check::expect_total("bank-wide (barrier sweep)", barriered, want)?;
    let raw = check::sum(&bank.accounts, |o| bank.heap.read_raw(o, 0));
    check::expect_total("bank-wide (raw sweep)", raw, want)?;
    // The slowdown sweeps a cache-resident prefix of the accounts, so it
    // prices the barrier itself rather than the memory system, in pairs run
    // back to back (in alternating order); the median pair ratio cancels
    // drift in machine speed.
    let prefix = &bank.accounts[..SWEPT];
    let sweep = |barriers: bool| {
        let t = Instant::now();
        let sum = if barriers {
            check::sum(prefix, |o| read_barrier(&bank.heap, o, 0))
        } else {
            check::sum(prefix, |o| bank.heap.read_raw(o, 0))
        };
        std::hint::black_box(sum);
        t.elapsed().as_secs_f64()
    };
    let ratios: Vec<f64> = (0..SWEEPS)
        .map(|i| {
            if i % 2 == 0 {
                let b = sweep(true);
                b / sweep(false)
            } else {
                let r = sweep(false);
                sweep(true) / r
            }
        })
        .collect();
    out.e2e.set("strong_slowdown_x", median(&ratios));
    check::audit("bank-wide", &bank.heap)?;
    if traced {
        crate::report::write_trace(&trace, "bank-wide", seed, &mut out);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_stream_is_seeded() {
        let a = stream(7, 0, 5000);
        assert_eq!(a, stream(7, 0, 5000), "same seed, same stream");
        assert_ne!(a, stream(8, 0, 5000), "another seed, another stream");
        assert_ne!(a, stream(7, 1, 5000), "clients get their own streams");
        let transfers = a
            .iter()
            .filter(|op| matches!(op, BankOp::Transfer { .. }))
            .count();
        assert!(
            (3800..4200).contains(&transfers),
            "80% transfers, got {transfers}"
        );
        for op in &a {
            match *op {
                BankOp::Transfer { from, to, amount } => {
                    assert!(from != to && from < ACCOUNTS && to < ACCOUNTS);
                    assert!((1..=100).contains(&amount));
                }
                BankOp::Scan(idx) => assert!(idx.iter().all(|&i| i < ACCOUNTS)),
            }
        }
    }
}
