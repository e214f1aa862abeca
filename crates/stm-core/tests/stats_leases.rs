//! Exactness of the leased statistics shards.
//!
//! A thread leases one of `SHARDS` counter shards on its first counted
//! event and returns it at thread exit; threads beyond that share an
//! overflow shard. Increments on a leased shard are plain load/store
//! pairs, so these tests pin down the three ways that could lose counts:
//! more live threads than shards, lease reuse across thread generations,
//! and events counted during thread teardown after the lease went back.
//!
//! The lease bitmask is process-wide, so the tests take a common lock and
//! count only from threads they spawn and join: the test thread itself
//! never holds a lease, and the mask is empty between tests.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier, Mutex, MutexGuard};
use stm_core::stats::{leased_shards, Stats, SHARDS};

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

const ALL_LEASED: u32 = u32::MAX >> (u32::BITS as usize - SHARDS);

/// 40 concurrently live threads, 16 shards: every lease is taken while
/// they count, so at least 24 threads go through the overflow shard.
#[test]
fn counts_stay_exact_past_the_shard_count() {
    let _serial = serial();
    const THREADS: usize = 40;
    const BUMPS: u64 = 10_000;
    let stats = Arc::new(Stats::new());
    let started = Arc::new(Barrier::new(THREADS));
    let handles: Vec<_> = (0..THREADS)
        .map(|_| {
            let stats = Arc::clone(&stats);
            let started = Arc::clone(&started);
            std::thread::spawn(move || {
                stats.commit();
                // Everyone holds a lease or sits on the overflow shard now,
                // and nobody exits before everyone has looked.
                started.wait();
                let full = leased_shards() == ALL_LEASED;
                started.wait();
                for _ in 1..BUMPS {
                    stats.commit();
                    stats.private_fast_path();
                }
                stats.private_fast_path();
                full
            })
        })
        .collect();
    let saw_full: Vec<bool> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    assert!(saw_full.iter().all(|&f| f), "not every lease was taken by 40 live threads");
    let snap = stats.snapshot();
    assert_eq!(snap.commits, THREADS as u64 * BUMPS);
    assert_eq!(snap.private_fast_paths, THREADS as u64 * BUMPS);
    assert_eq!(leased_shards(), 0, "exited threads kept their leases");
}

/// Eight sequential waves of `SHARDS` threads: each wave reuses the
/// leases the previous one returned and continues from its totals.
#[test]
fn leases_are_recycled_across_thread_waves() {
    let _serial = serial();
    const WAVES: usize = 8;
    const BUMPS: u64 = 1_000;
    let stats = Arc::new(Stats::new());
    for wave in 0..WAVES {
        let handles: Vec<_> = (0..SHARDS)
            .map(|_| {
                let stats = Arc::clone(&stats);
                std::thread::spawn(move || {
                    for _ in 0..BUMPS {
                        stats.read_barrier();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(leased_shards(), 0, "wave {wave} left leases behind");
        let expected = (wave as u64 + 1) * SHARDS as u64 * BUMPS;
        assert_eq!(stats.snapshot().read_barriers, expected, "after wave {wave}");
    }
}

/// Counts an event from its destructor. Initialized before the thread's
/// first counted event, so its destructor is registered before the lease's
/// and runs after the lease has been returned.
struct BumpOnExit {
    stats: Arc<Stats>,
    lease_bit: u32,
    returned_first: Arc<AtomicBool>,
}

impl Drop for BumpOnExit {
    fn drop(&mut self) {
        let returned = leased_shards() & self.lease_bit == 0;
        self.returned_first.store(returned, Ordering::SeqCst);
        self.stats.commit();
    }
}

thread_local! {
    static ON_EXIT: RefCell<Option<BumpOnExit>> = const { RefCell::new(None) };
}

#[test]
fn teardown_bumps_after_the_lease_is_returned_still_count() {
    let _serial = serial();
    let stats = Arc::new(Stats::new());
    let returned_first = Arc::new(AtomicBool::new(false));
    let (s, r) = (Arc::clone(&stats), Arc::clone(&returned_first));
    std::thread::spawn(move || {
        ON_EXIT.with(|slot| {
            *slot.borrow_mut() =
                Some(BumpOnExit { stats: Arc::clone(&s), lease_bit: 0, returned_first: r })
        });
        let before = leased_shards();
        s.commit();
        let bit = leased_shards() & !before;
        assert_eq!(bit.count_ones(), 1, "the first counted event takes one lease");
        ON_EXIT.with(|slot| slot.borrow_mut().as_mut().unwrap().lease_bit = bit);
        s.commit();
    })
    .join()
    .unwrap();
    assert!(
        returned_first.load(Ordering::SeqCst),
        "the destructor ran while the lease was still held"
    );
    assert_eq!(stats.snapshot().commits, 3);
    assert_eq!(leased_shards(), 0);
}
