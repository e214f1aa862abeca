//! Closed-loop client threads: a seeded op stream per client, a measurement
//! window cut into slices, and per-client logs of what completed.
//!
//! Each client issues its next operation only after the previous one
//! returns. The window is cut into [`SLICES`] equal slices; in a traced run
//! odd slices record spans, so traced and untraced slices see the same
//! machine conditions. Throughput is the median over slices of one mode.

use crate::report::Outcome;
use crate::stats::{median, LatHist};
use crate::trace::{Recorder, Trace};
use std::time::{Duration, Instant};
use stm_core::stats::TxnTelemetry;

/// Slices per measurement window.
pub const SLICES: usize = 40;

/// SplitMix64: the seeded generator behind every op stream.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for stream `stream` of run seed `seed`.
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    /// Next pseudo-random word.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// How a slice runs.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Mode {
    /// The deployed configuration, untraced: the end-to-end figures.
    Plain,
    /// The deployed configuration with spans recorded.
    Traced,
    /// Non-transactional accesses without isolation barriers.
    Weak,
}

/// The measurement window shared by all clients of a run.
#[derive(Clone, Debug)]
pub struct Window {
    start: Instant,
    slice: Duration,
    /// Modes of even and odd slices.
    modes: [Mode; 2],
}

impl Window {
    /// A window of `seconds`, opening shortly from now so that every client
    /// thread is running when it does; even slices run in `modes[0]`, odd
    /// ones in `modes[1]`.
    pub fn new(seconds: f64, modes: [Mode; 2]) -> Self {
        Window {
            start: Instant::now() + Duration::from_millis(50),
            slice: Duration::from_secs_f64(seconds / SLICES as f64),
            modes,
        }
    }

    /// The slice `t` falls in, or `None` before the window opens or after it
    /// closes.
    pub fn slice_at(&self, t: Instant) -> Option<usize> {
        let i = t.checked_duration_since(self.start)?.as_nanos() / self.slice.as_nanos();
        (i < SLICES as u128).then_some(i as usize)
    }

    /// The mode of slice `i`.
    pub fn mode(&self, i: usize) -> Mode {
        self.modes[i % 2]
    }

    /// Completed operations per second in each slice of `mode`, over all
    /// clients.
    pub fn rates(&self, logs: &[ClientLog], mode: Mode) -> Vec<f64> {
        (0..SLICES)
            .filter(|&i| self.mode(i) == mode)
            .map(|i| logs.iter().map(|l| l.ops[i]).sum::<u64>() as f64 / self.slice.as_secs_f64())
            .collect()
    }

    /// Median completed operations per second over the slices of `mode`.
    pub fn rate(&self, logs: &[ClientLog], mode: Mode) -> f64 {
        median(&self.rates(logs, mode))
    }
}

/// One round of a workload run from a single loop (`jvm98-nontxn`, `tmir-vm`).
#[derive(Clone, Copy, Debug)]
pub struct Round {
    /// Seconds spent in the deployed strong-atomicity runs.
    pub strong: f64,
    /// Seconds spent in the same work without barriers.
    pub weak: f64,
    /// How the round ran.
    pub mode: Mode,
}

/// Median of `f` over the rounds of `mode`.
pub fn round_median(rounds: &[Round], mode: Mode, f: impl Fn(&Round) -> f64) -> f64 {
    median(
        &rounds
            .iter()
            .filter(|r| r.mode == mode)
            .map(f)
            .collect::<Vec<_>>(),
    )
}

/// Indices of the rounds of `mode` that ran while the machine was quietest:
/// the eighth with the shortest `weak` time, but at least `min` of them
/// when there are that many.
///
/// A shared host's cores run this code at a speed that swings by a third
/// from one second to the next, as other tenants load them. A round's weak
/// run shares that round's conditions with its strong run, so ranking by
/// the weak time picks the quiet rounds without ranking by the measured
/// strong time itself.
pub fn quiet_rounds(rounds: &[Round], mode: Mode, min: usize) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..rounds.len())
        .filter(|&i| rounds[i].mode == mode)
        .collect();
    idx.sort_by(|&a, &b| rounds[a].weak.total_cmp(&rounds[b].weak));
    idx.truncate((idx.len() / 8).max(min));
    idx
}

/// Median of `f` over the rounds at `idx`.
pub fn median_at(rounds: &[Round], idx: &[usize], f: impl Fn(&Round) -> f64) -> f64 {
    median(&idx.iter().map(|&i| f(&rounds[i])).collect::<Vec<_>>())
}

/// Histogram of the per-round latencies (ns) of the rounds at `idx`.
pub fn round_hist<L: AsRef<[u64]>>(lats: &[L], idx: impl IntoIterator<Item = usize>) -> LatHist {
    let mut h = LatHist::default();
    for i in idx {
        lats[i].as_ref().iter().for_each(|&ns| h.record(ns));
    }
    h
}

/// What one client saw.
#[derive(Debug)]
pub struct ClientLog {
    /// Operations completed per slice.
    pub ops: [u64; SLICES],
    /// Latencies of the timed operations in `Plain` slices, ns.
    pub lat: LatHist,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations ended by a typed stop.
    pub failed: u64,
    /// Atomic blocks run.
    pub blocks: u64,
    /// Their summed telemetry.
    pub tel: TxnTelemetry,
    /// Non-transactional counter increments made.
    pub increments: u64,
    /// Correctness violations seen (each fails the run).
    pub violations: Vec<String>,
}

impl Default for ClientLog {
    fn default() -> Self {
        ClientLog {
            ops: [0; SLICES],
            lat: LatHist::default(),
            attempted: 0,
            failed: 0,
            blocks: 0,
            tel: TxnTelemetry::default(),
            increments: 0,
            violations: Vec::new(),
        }
    }
}

/// Runs `ops` in a closed loop, cycling through the stream, until `window`
/// closes. `step` performs one operation: it gets the op, its id, the slice
/// mode, the recorder (already switched on in `Traced` slices) and the log,
/// and returns whether the op's latency counts toward the latency metrics.
pub fn drive<O>(
    window: &Window,
    client: usize,
    ops: &[O],
    rec: &mut Recorder,
    mut step: impl FnMut(&O, u64, Mode, &mut Recorder, &mut ClientLog) -> bool,
) -> ClientLog {
    let mut log = ClientLog::default();
    if let Some(wait) = window.start.checked_duration_since(Instant::now()) {
        std::thread::sleep(wait);
    }
    let mut t = Instant::now();
    let Some(mut slice) = window.slice_at(t) else {
        return log;
    };
    for (i, op) in ops.iter().cycle().enumerate() {
        let mode = window.mode(slice);
        rec.on = mode == Mode::Traced;
        let timed = step(op, ((client as u64) << 40) | i as u64, mode, rec, &mut log);
        let done = Instant::now();
        log.ops[slice] += 1;
        if timed && mode == Mode::Plain {
            log.lat.record((done - t).as_nanos() as u64);
        }
        t = done;
        match window.slice_at(t) {
            Some(s) => slice = s,
            None => break,
        }
    }
    rec.on = false;
    log
}

/// Runs one client thread per stream through `window` and joins them all.
/// Returns every client's log (violations are left for the caller) and the
/// merged trace.
pub fn run_clients<O: Sync>(
    window: &Window,
    streams: &[Vec<O>],
    step: impl Fn(&O, u64, Mode, &mut Recorder, &mut ClientLog) -> bool + Sync,
) -> Result<(Vec<ClientLog>, Trace), String> {
    let epoch = Instant::now();
    let step = &step;
    let joined: Vec<std::thread::Result<(ClientLog, Recorder)>> = std::thread::scope(|s| {
        let handles: Vec<_> = streams
            .iter()
            .enumerate()
            .map(|(c, ops)| {
                s.spawn(move || {
                    let mut rec = Recorder::new(c as u16, epoch);
                    let log = drive(window, c, ops, &mut rec, step);
                    (log, rec)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join()).collect()
    });
    let mut logs = Vec::new();
    let mut trace = Trace::default();
    for j in joined {
        let (log, rec) = j.map_err(|_| "a client thread panicked".to_string())?;
        logs.push(log);
        trace.absorb(rec);
    }
    Ok((logs, trace))
}

/// Fails if any client saw a correctness violation.
pub fn violations(logs: &[ClientLog]) -> Result<(), String> {
    match logs.iter().flat_map(|l| &l.violations).next() {
        None => Ok(()),
        Some(v) => {
            let n: usize = logs.iter().map(|l| l.violations.len()).sum();
            Err(format!("{n} violation(s), first: {v}"))
        }
    }
}

/// Folds the client logs into `out`: operation counts, throughput and
/// latency of the `Plain` slices, the error rate, per-block telemetry,
/// span times and (when `trace`) the tracing overhead. Fails on any
/// violation a client saw.
pub fn summarize(
    window: &Window,
    logs: &[ClientLog],
    trace: &Trace,
    traced: bool,
    out: &mut Outcome,
) -> Result<(), String> {
    violations(logs)?;
    out.attempted = logs.iter().map(|l| l.attempted).sum();
    out.failed = logs.iter().map(|l| l.failed).sum();
    let plain = window.rate(logs, Mode::Plain);
    out.e2e.set("throughput_ops_s", plain);
    let rates: Vec<String> = window
        .rates(logs, Mode::Plain)
        .iter()
        .map(|r| format!("{r:.0}"))
        .collect();
    out.notes
        .push(format!("ops/s per untraced slice: {}", rates.join(" ")));
    let mut lat = LatHist::default();
    let mut tel = TxnTelemetry::default();
    for l in logs {
        lat.merge(&l.lat);
        tel.absorb(l.tel);
    }
    latency_metrics(&lat, &lat, out);
    let blocks = logs.iter().map(|l| l.blocks).sum();
    crate::layers::block_counts(&mut out.layer, blocks, &tel);
    crate::layers::span_times(&mut out.layer, trace);
    out.layer.set(
        "error_rate",
        crate::layers::ratio(out.failed as f64, out.attempted as f64),
    );
    if traced {
        let pct = crate::layers::overhead_pct(plain, window.rate(logs, Mode::Traced));
        out.layer.set("trace.overhead_pct", pct);
    }
    Ok(())
}

/// Sets `latency_p50_us` from `mid` and, when at least ten samples lie
/// beyond it, `latency_p99_us` from `tail` (both ns); notes the sample
/// counts with the highest percentile of `tail` that has ten samples beyond
/// it.
pub fn latency_metrics(mid: &LatHist, tail: &LatHist, out: &mut Outcome) {
    let n = tail.len();
    let us = |lat: &LatHist, p| lat.percentile(p) / 1e3;
    match crate::stats::tail_percentile(n) {
        Some(p) => out.notes.push(format!(
            "latency samples: {} for p50, {n} for the tail; tail p{p} = {:.3} us",
            mid.len(),
            us(tail, p)
        )),
        None => out
            .notes
            .push(format!("latency samples: {n}; too few for any percentile")),
    }
    if mid.len() > 0 {
        out.e2e.set("latency_p50_us", us(mid, 50.0));
    }
    if crate::stats::beyond(n, 99.0) >= 10 {
        out.e2e.set("latency_p99_us", us(tail, 99.0));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_slices_and_modes() {
        let w = Window::new(4.0, [Mode::Plain, Mode::Weak]);
        assert_eq!(w.slice_at(Instant::now()), None, "not open yet");
        assert_eq!(w.slice_at(w.start), Some(0));
        assert_eq!(w.slice_at(w.start + Duration::from_millis(250)), Some(2));
        assert_eq!(w.slice_at(w.start + Duration::from_secs(4)), None, "closed");
        assert_eq!(
            (w.mode(0), w.mode(1), w.mode(8)),
            (Mode::Plain, Mode::Weak, Mode::Plain)
        );
        // Slice i completes i + 1 ops in 0.1 s.
        let log = ClientLog {
            ops: std::array::from_fn(|i| i as u64 + 1),
            ..Default::default()
        };
        let logs = std::slice::from_ref(&log);
        assert_eq!(w.rates(logs, Mode::Plain)[..3], [10.0, 30.0, 50.0]);
        assert_eq!(w.rate(logs, Mode::Plain), 200.0);
        assert_eq!(w.rate(logs, Mode::Weak), 210.0);
    }

    #[test]
    fn quiet_rounds_rank_by_weak_time() {
        let round = |weak: f64, mode| Round {
            strong: 1.0,
            weak,
            mode,
        };
        let mut rounds: Vec<Round> = [
            5.0, 3.0, 8.0, 1.0, 7.0, 2.0, 6.0, 4.0, 13.0, 11.0, 16.0, 9.0, 15.0, 10.0, 14.0, 12.0,
        ]
        .map(|w| round(w, Mode::Plain))
        .to_vec();
        rounds.push(round(0.5, Mode::Traced));
        assert_eq!(quiet_rounds(&rounds, Mode::Plain, 0), vec![3, 5]);
        assert_eq!(quiet_rounds(&rounds, Mode::Plain, 3), vec![3, 5, 1]);
        assert_eq!(quiet_rounds(&rounds, Mode::Plain, 20).len(), 16);
        assert_eq!(quiet_rounds(&rounds, Mode::Traced, 0), Vec::<usize>::new());
        assert_eq!(quiet_rounds(&rounds, Mode::Traced, 1), vec![16]);
        assert_eq!(median_at(&rounds, &[3, 5, 1], |r| r.weak), 2.0);
    }
}
