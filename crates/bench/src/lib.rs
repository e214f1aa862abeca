//! # bench — harness regenerating every table and figure of the paper
//!
//! One runner per evaluation artifact of *"Enforcing Isolation and Ordering
//! in STM"* (PLDI 2007); see [`experiments`]. The `repro` binary prints
//! them (`repro all`, `repro fig6`, `repro fig18`, ...); each sweep also
//! writes its rows as `BENCH_<name>.json` through one column-described table.
//! Criterion benches under `benches/` provide the statistically rigorous
//! versions of the timing experiments.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod experiments;
mod table;
