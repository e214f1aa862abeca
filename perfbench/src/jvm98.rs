//! `jvm98-nontxn`: the seven JVM98 kernels, single-threaded, with isolation
//! barriers at `OptLevel::Dea` (elision + aggregation + DEA) and, interleaved
//! with them, the unbarriered `Baseline`. One op is one kernel run at `Dea`.
//!
//! This is the paper's Figure 15 cost: the barrier and DEA layers do nearly
//! all the work and no transaction runs. Each kernel runs on a fresh heap;
//! the seed picks the kernel order of every round and which level runs
//! first. Barrier and DEA counts of a kernel do not depend on the schedule,
//! so every round must repeat them exactly. Throughput and the median
//! latency are taken over the rounds whose `Baseline` pass ran fastest
//! ([`quiet_rounds`]), the tail latency and the slowdown over every round.

use crate::check;
use crate::clients::{median_at, quiet_rounds, round_hist, round_median, Mode, Rng, Round};
use crate::layers::ratio;
use crate::report::Outcome;
use crate::stats::quiet_median;
use crate::trace::{Recorder, Trace};
use std::time::{Duration, Instant};
use stm_core::prelude::*;
use workloads::jvm98::{Kernel, KernelConfig, OptLevel};

/// Kernel work multiplier.
const SCALE: usize = 1;
/// Times the set-up (heap build + one warm-up rotation) is measured;
/// `setup_s` is the median of the fastest quarter.
const SETUPS: usize = 101;

/// Schedule-independent counts of one kernel run at `Dea`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Counts {
    reads: u64,
    writes: u64,
    fast: u64,
    publishes: u64,
    objects: u64,
}

impl Counts {
    fn of(heap: &Heap) -> Self {
        let s = heap.stats_snapshot();
        Counts {
            reads: s.read_barriers,
            writes: s.write_barriers,
            fast: s.private_fast_paths,
            publishes: s.publishes,
            objects: heap.object_count() as u64,
        }
    }
}

/// One timed kernel run on a fresh heap: (seconds, checksum, heap).
fn run_once(
    kernel: Kernel,
    level: OptLevel,
    rec: &mut Recorder,
    op: u64,
) -> (f64, u64, std::sync::Arc<Heap>) {
    let heap = Heap::new(crate::config::pinned(level == OptLevel::Dea));
    let cfg = KernelConfig::fig15(level, SCALE);
    rec.enter("jvm98.kernel", op);
    let t = Instant::now();
    let sum = std::hint::black_box(kernel.run(&heap, &cfg));
    let dt = t.elapsed().as_secs_f64();
    rec.exit();
    (dt, sum, heap)
}

/// Runs the workload.
pub fn run(seed: u64, seconds: f64, traced: bool) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    // Pass i runs on the i-th allowed CPU, in rotation.
    let cpus = crate::affinity::allowed_cpus();
    let mut refused = 0u64;
    let mut pin = |i: usize| {
        if !cpus.is_empty() && !crate::affinity::pin_to(cpus[i % cpus.len()]) {
            refused += 1;
        }
    };
    let mut rec = Recorder::new(0, Instant::now());
    let mut setups = Vec::new();
    for i in 0..SETUPS {
        pin(i);
        let t = Instant::now();
        for k in Kernel::ALL {
            for level in [OptLevel::Dea, OptLevel::Baseline] {
                run_once(k, level, &mut rec, 0);
            }
        }
        setups.push(t.elapsed().as_secs_f64());
    }
    out.e2e.set("setup_s", quiet_median(&setups));
    out.notes.push(format!(
        "resolved config: {:?}",
        crate::config::pinned(true)
    ));

    let mut rng = Rng::new(seed, 0x98);
    let mut expected: [Option<(u64, Counts)>; 7] = [None; 7];
    // Per round: summed Dea and Baseline kernel seconds, and the mode; and
    // the Dea latency of each kernel, ns.
    let mut rounds: Vec<Round> = Vec::new();
    let mut lats: Vec<[u64; 7]> = Vec::new();
    let mut rotation = Counts::default();
    let mut op = 0u64;
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    while Instant::now() < deadline {
        let mode = if traced && rounds.len() % 2 == 1 {
            Mode::Traced
        } else {
            Mode::Plain
        };
        rec.on = mode == Mode::Traced;
        // Two rounds per CPU, so a traced run's plain and traced rounds
        // both visit every CPU.
        pin(rounds.len() / 2);
        let mut order: [usize; 7] = std::array::from_fn(|i| i);
        for i in (1..order.len()).rev() {
            order.swap(i, rng.below(i as u64 + 1) as usize);
        }
        let (mut dea_s, mut base_s) = (0.0, 0.0);
        let mut round_lat = [0u64; 7];
        for ki in order {
            let kernel = Kernel::ALL[ki];
            let levels = if rng.below(2) == 0 {
                [OptLevel::Dea, OptLevel::Baseline]
            } else {
                [OptLevel::Baseline, OptLevel::Dea]
            };
            let mut sums = [0u64; 2];
            for level in levels {
                op += 1;
                let (dt, sum, heap) = run_once(kernel, level, &mut rec, op);
                check::audit(kernel.name(), &heap)?;
                if level == OptLevel::Baseline {
                    base_s += dt;
                    sums[1] = sum;
                    continue;
                }
                dea_s += dt;
                sums[0] = sum;
                out.attempted += 1;
                round_lat[ki] = (dt * 1e9) as u64;
                let seen = (sum, Counts::of(&heap));
                match expected[ki] {
                    None => expected[ki] = Some(seen),
                    Some(want) if want != seen => {
                        return Err(format!(
                            "{}: (checksum, counts) drifted between runs: {want:?} then {seen:?}",
                            kernel.name()
                        ))
                    }
                    Some(_) => {}
                }
            }
            if sums[0] != sums[1] {
                return Err(format!(
                    "{}: checksum {} at Dea, {} at Baseline",
                    kernel.name(),
                    sums[0],
                    sums[1]
                ));
            }
        }
        rounds.push(Round {
            strong: dea_s,
            weak: base_s,
            mode,
        });
        lats.push(round_lat);
    }
    rec.on = false;
    out.notes.push(format!(
        "rotated over CPUs {cpus:?}; the kernel refused {refused} of the moves"
    ));
    for (_, counts) in expected.iter().flatten() {
        rotation.reads += counts.reads;
        rotation.writes += counts.writes;
        rotation.fast += counts.fast;
        rotation.publishes += counts.publishes;
        rotation.objects += counts.objects;
    }

    // Throughput and the median latency come from the quiet rounds; the
    // tail, and the slowdown (a ratio within each round), from all.
    let dea = round_median(&rounds, Mode::Plain, |r| r.strong);
    let base = round_median(&rounds, Mode::Plain, |r| r.weak);
    let per_round = Kernel::ALL.len() as f64;
    let quiet = quiet_rounds(&rounds, Mode::Plain, 1);
    let throughput = median_at(&rounds, &quiet, |r| per_round / r.strong);
    out.e2e.set("throughput_ops_s", throughput);
    out.e2e.set("strong_slowdown_x", dea / base);
    let plain = (0..rounds.len()).filter(|&i| rounds[i].mode == Mode::Plain);
    crate::clients::latency_metrics(
        &round_hist(&lats, quiet.iter().copied()),
        &round_hist(&lats, plain),
        &mut out,
    );
    out.notes.push(format!(
        "rounds: {} (7 kernels at Dea and at Baseline each), {} quiet ones timed",
        rounds.len(),
        quiet.len()
    ));

    let m = &mut out.layer;
    let accesses = (rotation.reads + rotation.writes + rotation.fast) as f64;
    m.set("barrier.reads", rotation.reads as f64);
    m.set("barrier.writes", rotation.writes as f64);
    m.set("barrier.self_s", dea - base);
    m.set("barrier.ns_per_access", ratio((dea - base) * 1e9, accesses));
    m.set("dea.private_fast_paths", rotation.fast as f64);
    m.set("dea.publishes", rotation.publishes as f64);
    m.set(
        "dea.private_hit_ratio",
        ratio(rotation.fast as f64, accesses),
    );
    m.set("jvm98.body_s", base);
    m.set("heap.objects_allocated", rotation.objects as f64);
    if traced {
        let quiet = quiet_rounds(&rounds, Mode::Traced, 1);
        let traced_rate = median_at(&rounds, &quiet, |r| per_round / r.strong);
        m.set(
            "trace.overhead_pct",
            crate::layers::overhead_pct(throughput, traced_rate),
        );
    }
    out.notes.push(format!(
        "exact counts per rotation (no drift over {} rounds): reads={} writes={} private_fast={} publishes={} objects={}",
        rounds.len(),
        rotation.reads,
        rotation.writes,
        rotation.fast,
        rotation.publishes,
        rotation.objects
    ));
    if traced {
        let mut trace = Trace::default();
        trace.absorb(rec);
        crate::report::write_trace(&trace, "jvm98-nontxn", seed, &mut out);
    }
    Ok(out)
}
