//! The one STM configuration every workload runs, spelled out field by field.
//!
//! `StmConfig::default()` consults `STM_*` environment variables, so a stray
//! variable would silently change what is measured. The benchmark builds its
//! configuration explicitly and refuses to start while any of those variables
//! is set.

use stm_core::prelude::*;

/// Environment variables that steer library defaults; any of them set makes
/// the run refuse to start.
pub const PINNED_ENV: [&str; 6] = [
    "STM_GRANULARITY",
    "STM_ISOLATION",
    "STM_CLOCK",
    "STM_MULTIVERSION",
    "STM_DEADLINE",
    "STM_MAX_RETRIES",
];

/// Names the pinned variables that are set in this process's environment.
pub fn env_overrides() -> Vec<&'static str> {
    PINNED_ENV
        .iter()
        .copied()
        .filter(|v| std::env::var_os(v).is_some())
        .collect()
}

/// The deployed strong-atomicity configuration: eager versioning, per-object
/// records, `StrongAtomicity`, the global clock, multiversion off. `dea` is
/// on everywhere except the unbarriered JVM98 baseline.
pub fn pinned(dea: bool) -> StmConfig {
    StmConfig {
        versioning: Versioning::Eager,
        granularity: Granularity::PerObject,
        isolation: IsolationLevel::StrongAtomicity,
        version_granularity: VersionGranularity::PerField,
        dea,
        quiescence: false,
        conflict_retries: 64,
        contention: ContentionPolicy::Backoff,
        record_races: false,
        eager_validation: false,
        fault: None,
        watchdog: WatchdogConfig {
            enabled: true,
            spin_budget: 1024,
        },
        panic_safety: true,
        multiversion: false,
        deadline: None,
        retry_budget: None,
        admission: None,
        clock: ClockMode::Global,
    }
}
