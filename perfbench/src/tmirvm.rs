//! `tmir-vm`: the four scaled TMIR programs (jvm98, tsp, oo7, jbb) run in a
//! fixed rotation on the bytecode VM after elision + NAIT + aggregation.
//! One op is one program run; tsp, oo7 and jbb each spawn two VM threads.
//!
//! Set-up is the compile pipeline: parse + check, compile, NAIT, passes.
//! Every round also runs each program compiled under the weak barrier table
//! (`strong_slowdown_x`), and the traced run adds the plain unoptimised VM
//! (`bytecode.<prog>.passes_gain_x`). Every run's output and return value
//! must equal the plain VM's, taken once outside every timed section.
//! Throughput and the median latency are taken over the rounds whose
//! weak-table runs went fastest ([`quiet_rounds`]), the tail latency and the
//! slowdown over every round.

use crate::check;
use crate::clients::{median_at, quiet_rounds, round_hist, round_median, Mode, Rng, Round};
use crate::layers::ratio;
use crate::report::{Outcome, PROGRAMS};
use crate::stats::{median, quiet_median};
use crate::trace::{Recorder, Trace};
use std::collections::HashSet;
use std::sync::Arc;
use std::time::{Duration, Instant};
use stm_core::stats::StatsSnapshot;
use tmir::bytecode::{optimize, CompiledProgram, PassOptions};
use tmir::vm::{BarrierStats, BcVmConfig, BytecodeVm};
use tmir::BarrierTable;
use tmir_analysis::nait::analyze_and_remove;
use workloads::tmir_sources;

/// Outer-loop multiplier of every program.
const SCALE: u32 = 2;
/// Times the compile pipeline is measured; `setup_s` is the median
/// of the fastest quarter.
const SETUPS: usize = 201;

/// The compiled forms of one program.
struct Prog {
    name: &'static str,
    /// Strong table, then elision + NAIT + aggregation: the deployed form.
    passes: CompiledProgram,
    /// Weak table: no barriers at all.
    weak: CompiledProgram,
    /// Strong table, no passes.
    plain: CompiledProgram,
}

/// Seconds spent in each compile stage, summed over the programs.
#[derive(Clone, Copy, Default)]
struct StageTimes {
    parse_check: f64,
    compile: f64,
    nait: f64,
    optimize: f64,
}

fn sources() -> [String; 4] {
    [
        tmir_sources::jvm98_scaled(SCALE),
        tmir_sources::tsp_scaled(SCALE),
        tmir_sources::oo7_scaled(SCALE),
        tmir_sources::jbb_scaled(SCALE),
    ]
}

/// Runs the compile pipeline over every program, timing each stage.
fn prepare() -> Result<(Vec<Prog>, StageTimes), String> {
    let mut st = StageTimes::default();
    let mut progs = Vec::new();
    for (name, src) in PROGRAMS.into_iter().zip(sources()) {
        let t = Instant::now();
        let checked = tmir::parse::parse(&src)
            .map_err(|e| e.to_string())
            .and_then(|p| tmir::check(p).map_err(|e| e.to_string()))
            .map_err(|e| format!("{name}: {e}"))?;
        st.parse_check += t.elapsed().as_secs_f64();
        let t = Instant::now();
        let plain = tmir::compile(&checked, &BarrierTable::strong(&checked.program));
        let weak = tmir::compile(&checked, &BarrierTable::weak());
        st.compile += t.elapsed().as_secs_f64();
        let t = Instant::now();
        let (_, removal) = analyze_and_remove(&checked.program);
        st.nait += t.elapsed().as_secs_f64();
        // Elisions first (JIT-local, then NAIT), so aggregation only fuses
        // accesses that still carry barriers.
        let t = Instant::now();
        let mut passes = plain.clone();
        optimize(&mut passes, PassOptions::elim_only());
        removal.apply_nait_bytecode(&mut passes);
        optimize(
            &mut passes,
            PassOptions {
                immutable: false,
                escape: false,
                aggregate: true,
            },
        );
        st.optimize += t.elapsed().as_secs_f64();
        progs.push(Prog {
            name,
            passes,
            weak,
            plain,
        });
    }
    Ok((progs, st))
}

#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum Variant {
    Passes,
    Weak,
    Plain,
}

/// What one VM run left behind.
struct VmRun {
    secs: f64,
    output: Vec<i64>,
    ret: u64,
    stats: StatsSnapshot,
    barriers: BarrierStats,
    objects: usize,
}

/// Runs `cp` once on a fresh VM; only `run` itself is timed.
fn run_vm(cp: &CompiledProgram, rec: &mut Recorder, op: u64) -> Result<VmRun, String> {
    let config = BcVmConfig {
        stm: crate::config::pinned(true),
        validate_interval: 256,
        unlogged_txn_reads: HashSet::new(),
    };
    let vm: Arc<BytecodeVm> = BytecodeVm::new(cp.clone(), config);
    rec.enter("vm.run", op);
    let t = Instant::now();
    let r = vm.run();
    let secs = t.elapsed().as_secs_f64();
    rec.exit();
    let r = r.map_err(|trap| trap.to_string())?;
    check::audit("tmir-vm", vm.heap())?;
    Ok(VmRun {
        secs,
        output: r.output,
        ret: r.ret,
        stats: r.stats,
        barriers: vm.barrier_stats(),
        objects: vm.heap().object_count(),
    })
}

/// Per-program samples gathered over the `Plain` rounds of a traced run.
#[derive(Default)]
struct Samples {
    passes: Vec<f64>,
    weak: Vec<f64>,
    plain: Vec<f64>,
    /// (executed, elided, aggregated, regions) of each deployed run.
    barriers: Vec<[u64; 4]>,
    objects: Vec<f64>,
    stats: Vec<StatsSnapshot>,
}

/// Runs the workload.
pub fn run(seed: u64, seconds: f64, traced: bool) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    let mut stages = Vec::new();
    let mut progs = Vec::new();
    for _ in 0..SETUPS {
        let t = Instant::now();
        let (p, st) = prepare()?;
        setups.push(t.elapsed().as_secs_f64());
        stages.push(st);
        progs = p;
    }
    out.e2e.set("setup_s", quiet_median(&setups));
    out.notes.push(format!(
        "resolved config: {:?}",
        crate::config::pinned(true)
    ));

    let mut rec = Recorder::new(0, Instant::now());
    let mut reference = Vec::new();
    for p in &progs {
        let r =
            run_vm(&p.plain, &mut rec, 0).map_err(|e| format!("{} reference run: {e}", p.name))?;
        reference.push((r.output, r.ret));
    }

    let variants: &[Variant] = if traced {
        &[Variant::Passes, Variant::Weak, Variant::Plain]
    } else {
        &[Variant::Passes, Variant::Weak]
    };
    let mut rng = Rng::new(seed, 0x7312);
    let mut samples: Vec<Samples> = progs.iter().map(|_| Samples::default()).collect();
    let mut exact: Option<(BarrierStats, u64, u64)> = None;
    // Per round: summed deployed seconds, summed weak seconds, mode; and the
    // latency of each deployed run that did not trap, ns.
    let mut rounds: Vec<Round> = Vec::new();
    let mut lats: Vec<Vec<u64>> = Vec::new();
    let mut op = 0u64;
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    while Instant::now() < deadline {
        let mode = if traced && rounds.len() % 2 == 1 {
            Mode::Traced
        } else {
            Mode::Plain
        };
        rec.on = mode == Mode::Traced;
        // Per-run samples feed only the per-layer metrics; an untraced run
        // keeps none, so its peak RSS does not grow with its round count.
        let keep = traced && mode == Mode::Plain;
        let (mut passes_s, mut weak_s) = (0.0, 0.0);
        let mut round_lat = Vec::with_capacity(progs.len());
        for (pi, p) in progs.iter().enumerate() {
            let first = rng.below(variants.len() as u64) as usize;
            for k in 0..variants.len() {
                let variant = variants[(first + k) % variants.len()];
                let cp = match variant {
                    Variant::Passes => &p.passes,
                    Variant::Weak => &p.weak,
                    Variant::Plain => &p.plain,
                };
                op += 1;
                let r = match run_vm(cp, &mut rec, op) {
                    Ok(r) => r,
                    Err(e) if variant == Variant::Passes => {
                        out.attempted += 1;
                        out.failed += 1;
                        out.notes.push(format!("{} trapped: {e}", p.name));
                        continue;
                    }
                    Err(e) => return Err(format!("{} ({variant:?}): {e}", p.name)),
                };
                if (&r.output, r.ret) != (&reference[pi].0, reference[pi].1) {
                    return Err(format!(
                        "{} ({variant:?}): output {:?} / return {} differ from the plain VM's {:?} / {}",
                        p.name, r.output, r.ret, reference[pi].0, reference[pi].1
                    ));
                }
                let s = &mut samples[pi];
                match variant {
                    Variant::Passes => {
                        out.attempted += 1;
                        passes_s += r.secs;
                        if p.name == "jvm98" {
                            // Single-threaded: its counts must repeat exactly.
                            let seen = (
                                r.barriers.clone(),
                                r.stats.read_barriers,
                                r.stats.write_barriers,
                            );
                            match &exact {
                                None => exact = Some(seen),
                                Some(want) if *want != seen => {
                                    return Err(format!(
                                        "jvm98 barrier counts drifted: {want:?} then {seen:?}"
                                    ))
                                }
                                Some(_) => {}
                            }
                        }
                        round_lat.push((r.secs * 1e9) as u64);
                        if keep {
                            s.passes.push(r.secs);
                            let b = &r.barriers;
                            s.barriers
                                .push([b.executed, b.elided, b.aggregated, b.regions]);
                            s.objects.push(r.objects as f64);
                            s.stats.push(r.stats);
                        }
                    }
                    Variant::Weak => {
                        weak_s += r.secs;
                        if keep {
                            s.weak.push(r.secs);
                        }
                    }
                    Variant::Plain => {
                        if keep {
                            s.plain.push(r.secs);
                        }
                    }
                }
            }
        }
        rounds.push(Round {
            strong: passes_s,
            weak: weak_s,
            mode,
        });
        lats.push(round_lat);
    }
    rec.on = false;

    // Throughput and the median latency come from the quiet rounds; the
    // tail, and the slowdown (a ratio within each round), from all.
    let per_round = progs.len() as f64;
    let quiet = quiet_rounds(&rounds, Mode::Plain, 1);
    let throughput = median_at(&rounds, &quiet, |r| per_round / r.strong);
    out.e2e.set("throughput_ops_s", throughput);
    out.e2e.set(
        "strong_slowdown_x",
        round_median(&rounds, Mode::Plain, |r| r.strong)
            / round_median(&rounds, Mode::Plain, |r| r.weak),
    );
    let plain = (0..rounds.len()).filter(|&i| rounds[i].mode == Mode::Plain);
    crate::clients::latency_metrics(
        &round_hist(&lats, quiet.iter().copied()),
        &round_hist(&lats, plain),
        &mut out,
    );
    out.notes.push(format!(
        "rounds: {} (4 programs per round), {} quiet ones timed",
        rounds.len(),
        quiet.len()
    ));

    let m = &mut out.layer;
    let stage = |f: fn(&StageTimes) -> f64| median(&stages.iter().map(f).collect::<Vec<_>>());
    m.set("tmir.parse_check_s", stage(|s| s.parse_check));
    m.set("nait.analyze_s", stage(|s| s.nait));
    m.set("bytecode.compile_s", stage(|s| s.compile));
    m.set("bytecode.optimize_s", stage(|s| s.optimize));
    let mut barrier_self_s = 0.0;
    for (p, s) in progs.iter().zip(&samples) {
        let (passes, weak) = (median(&s.passes), median(&s.weak));
        barrier_self_s += passes - weak;
        let col = |i: usize| median(&s.barriers.iter().map(|b| b[i] as f64).collect::<Vec<_>>());
        m.set(format!("vm.{}.run_s", p.name), passes);
        m.set(format!("vm.{}.barriers_executed", p.name), col(0));
        m.set(format!("vm.{}.barriers_elided", p.name), col(1));
        m.set(format!("vm.{}.barriers_aggregated", p.name), col(2));
        m.set(format!("vm.{}.regions", p.name), col(3));
        m.set(format!("vm.{}.barrier_self_s", p.name), passes - weak);
        if traced {
            m.set(
                format!("bytecode.{}.passes_gain_x", p.name),
                median(&s.plain) / passes,
            );
        }
    }
    m.set("barrier.self_s", barrier_self_s);
    // Stack counts per rotation: the median of each program's runs, summed.
    let rotation = |f: crate::layers::Field| -> u64 {
        samples
            .iter()
            .map(|s| median(&s.stats.iter().map(|x| f(x) as f64).collect::<Vec<_>>()) as u64)
            .sum()
    };
    crate::layers::stm_counts(m, rotation);
    let (commits, aborts) = (
        rotation(|s| s.commits) as f64,
        rotation(|s| s.aborts) as f64,
    );
    m.set("txn.attempts_per_block", ratio(commits + aborts, commits));
    m.set(
        "heap.objects_allocated",
        samples.iter().map(|s| median(&s.objects)).sum(),
    );
    m.set("error_rate", ratio(out.failed as f64, out.attempted as f64));
    if traced {
        let quiet = quiet_rounds(&rounds, Mode::Traced, 1);
        let traced_rate = median_at(&rounds, &quiet, |r| per_round / r.strong);
        m.set(
            "trace.overhead_pct",
            crate::layers::overhead_pct(throughput, traced_rate),
        );
    }
    if let Some((b, reads, writes)) = &exact {
        out.notes.push(format!(
            "exact counts per jvm98 run (no drift over {} runs): executed={} elided={} aggregated={} regions={} read_barriers={reads} write_barriers={writes}",
            rounds.len(),
            b.executed,
            b.elided,
            b.aggregated,
            b.regions
        ));
    }
    if traced {
        let mut trace = Trace::default();
        trace.absorb(rec);
        crate::report::write_trace(&trace, "tmir-vm", seed, &mut out);
    }
    Ok(out)
}
