//! `repro` — regenerate the paper's tables and figures.
//!
//! ```text
//! repro all [scale]      # everything (EXPERIMENTS.md content)
//! repro fig1..fig5       # anomaly litmus tests (one report)
//! repro fig6             # weak-atomicity behavior matrix
//! repro fig13            # NAIT vs TL static counts
//! repro fig14            # barrier aggregation demo
//! repro fig15|16|17 [scale]  # JVM98 barrier overheads (measured)
//! repro fig18|19|20      # Tsp / OO7 / JBB scalability (simulated)
//! repro contention       # contention-policy abort telemetry shootout
//! repro granularity [ops]  # per-object vs striped-orec conflict detection:
//!                        # contended + disjoint (false-conflict) workloads,
//!                        # stripe-count and thread sweeps; writes
//!                        # BENCH_granularity.json (default 2000 ops/thread)
//! repro chaos [--seeds N] [--seed S]   # crash-safety campaign: seeded fault
//!                        # injection vs the heap auditor (default 32 seeds
//!                        # from 1; --seed S replays the single seed S)
//! repro scale [ops]      # transaction-lifecycle scalability: begin/commit
//!                        # throughput over 1..16 simulated threads, per
//!                        # engine, disjoint + contended; writes
//!                        # BENCH_scale.json (default 2000 ops/thread)
//! repro isolation [ops]  # isolation-level spectrum: the 9-anomaly x
//!                        # 6-column witness matrix (strong / snapshot /
//!                        # quiescence x eager / lazy) plus a mixed-workload
//!                        # cost sweep; writes BENCH_isolation.json
//!                        # (default 2000 ops/thread)
//! repro mv [ops]         # multiversion read concurrency: contended
//!                        # read-heavy sweep over 1..16 workers with the
//!                        # version rings off vs on (wait-free read-only
//!                        # commits); writes BENCH_mv.json
//!                        # (default 2000 ops/thread)
//! repro overload [ops]   # progress guarantees past saturation: 1..16
//!                        # hostile workers under deadlines, retry budgets,
//!                        # escalation and admission control; asserts the
//!                        # throughput plateau and zero hung workers; writes
//!                        # BENCH_overload.json (default 400 ops/worker)
//! repro clock [ops]      # global-version-clock validation-cost sweep:
//!                        # commit cost vs read-set size (4..256 reads),
//!                        # TL2 O(1) skip (global) vs full read-set walk
//!                        # (tl-clock); writes BENCH_clock.json
//!                        # (default 2000 ops/thread)
//! repro vm [scale]       # bytecode-VM shootout: tree-walking interpreter
//!                        # vs bytecode VM vs VM+passes (elision + NAIT +
//!                        # aggregation) over the scaled TMIR suite; asserts
//!                        # the VM speedup and the strict barrier reduction;
//!                        # writes BENCH_vm.json (default scale 32)
//! ```

use bench::experiments as ex;
use std::path::Path;
use std::str::FromStr;

/// The experiment's numeric argument (ops, or scale), or `default`.
fn arg_or<T: FromStr>(args: &[String], default: T) -> T {
    args.get(1).and_then(|s| s.parse().ok()).unwrap_or(default)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let which = args.first().map(String::as_str).unwrap_or("all");
    let scale: usize = arg_or(&args, 2);
    // Sweeps write their BENCH_<name>.json into the working directory.
    let dir = Path::new(".");
    let out = match which {
        "all" => ex::all(scale, dir),
        "fig1" | "fig2" | "fig3" | "fig4" | "fig5" => Ok(ex::figs_1_to_5()),
        "fig6" => Ok(ex::fig6()),
        "fig13" => Ok(ex::fig13()),
        "fig14" => Ok(ex::fig14()),
        "fig15" => Ok(ex::fig15(scale)),
        "fig16" => Ok(ex::fig16(scale)),
        "fig17" => Ok(ex::fig17(scale)),
        "fig18" => Ok(ex::fig18()),
        "fig19" => Ok(ex::fig19()),
        "fig20" => Ok(ex::fig20()),
        "contention" => Ok(ex::contention()),
        "granularity" => ex::granularity(arg_or(&args, 2000), dir),
        "scale" => ex::scale(arg_or(&args, 2000), dir),
        "isolation" => ex::isolation(arg_or(&args, 2000), dir),
        "mv" => ex::mv(arg_or(&args, 2000), dir),
        "overload" => ex::overload(arg_or(&args, 400), dir),
        "clock" => ex::clock(arg_or(&args, 2000), dir),
        "vm" => ex::vm(arg_or(&args, 32), dir),
        "chaos" => {
            let mut first = 1u64;
            let mut count = 32u64;
            let mut i = 1;
            while i < args.len() {
                let value = args.get(i + 1).and_then(|s| s.parse().ok());
                match (args[i].as_str(), value) {
                    ("--seeds", Some(v)) => {
                        count = v;
                        i += 1;
                    }
                    ("--seed", Some(v)) => {
                        first = v;
                        count = 1;
                        i += 1;
                    }
                    _ => {}
                }
                i += 1;
            }
            Ok(ex::chaos(first, count))
        }
        other => {
            eprintln!(
                "unknown experiment `{other}`; try: all, fig1..fig6, fig13..fig20, \
                 contention, granularity, chaos, scale, isolation, mv, overload, clock, vm"
            );
            std::process::exit(2);
        }
    };
    match out {
        Ok(report) => println!("{report}"),
        Err(e) => {
            eprintln!("repro {which}: {e}");
            std::process::exit(1);
        }
    }
}
