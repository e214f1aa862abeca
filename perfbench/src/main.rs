//! The repository benchmark: one command, four workloads, every end-to-end
//! metric checked and printed with its unit, and a separate traced run for
//! the per-layer metrics.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <jvm98-nontxn|bank-wide|strong-hot|tmir-vm> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed` and `metrics` (the end-to-end metrics with
//! `--trace 0`, the per-layer ones with `--trace 1`). A failed correctness
//! gate prints no result and exits with status 1; bad arguments, or an
//! `STM_*` variable in the environment, exit with status 2.

mod affinity;
mod bank;
mod check;
mod clients;
mod config;
mod hot;
mod jvm98;
mod layers;
mod report;
mod stats;
mod tmirvm;
mod trace;

use std::process::ExitCode;

/// Workload names and runners.
type Runner = fn(u64, f64, bool) -> Result<report::Outcome, String>;
const WORKLOADS: [(&str, Runner); 4] = [
    ("jvm98-nontxn", jvm98::run),
    ("bank-wide", bank::run),
    ("strong-hot", hot::run),
    ("tmir-vm", tmirvm::run),
];

struct Args {
    workload: &'static str,
    run: Runner,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(i + 1)
            .cloned()
            .ok_or(format!("{flag} needs a value"))
    };
    let name = get("--workload")?;
    let &(workload, run) = WORKLOADS
        .iter()
        .find(|(n, _)| *n == name)
        .ok_or(format!("unknown workload {name:?}"))?;
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(0.1..=3600.0).contains(&seconds) {
        return Err(format!("--seconds {seconds} is outside 0.1..=3600"));
    }
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    Ok(Args {
        workload,
        run,
        seed,
        seconds,
        trace,
    })
}

/// Peak resident set of this process, MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |v| v.trim().to_string())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            eprintln!("workloads: {}", WORKLOADS.map(|w| w.0).join(", "));
            return ExitCode::from(2);
        }
    };
    let set = config::env_overrides();
    if !set.is_empty() {
        eprintln!(
            "perfbench: refusing to run with {} set: the configuration is pinned",
            set.join(", ")
        );
        return ExitCode::from(2);
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "perfbench workload={} seed={} seconds={} trace={} nproc={nproc} rustc=\"{}\"",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        rustc_version()
    );
    let result = (args.run)(args.seed, args.seconds, args.trace).and_then(|mut out| {
        out.e2e.set("peak_rss_mb", peak_rss_mb()?);
        let rows = report::select(&out, args.trace)?;
        Ok((out, rows))
    });
    let (out, rows) = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {} FAILED: {e}", args.workload);
            return ExitCode::from(1);
        }
    };
    for note in &out.notes {
        println!("{note}");
    }
    println!("attempted={} failed={}", out.attempted, out.failed);
    for (name, value, unit) in &rows {
        println!("{name} = {value} {unit}");
    }
    println!("{}", report::json_line(out.attempted, out.failed, &rows));
    ExitCode::SUCCESS
}
