//! # mlf-bench — figure regeneration and benchmarks
//!
//! One binary per table/figure of the paper (see `src/bin/`), plus the
//! gated benches (see `benches/`). This library holds the shared
//! scaffolding: a plain-text table renderer, a CSV writer for plotting, a
//! tiny `Result`-based `--key value` argument parser so the binaries stay
//! dependency-free and exit cleanly (status 2) on malformed input, and the
//! paired timing the benches gate on.
//!
//! The binaries compose their experiments through the `mlf-scenario`
//! crate's `Scenario` builder and the `mlf-core` `Allocator` trait.
//!
//! ## The CI bench gates
//!
//! Each bench is a plain `fn main` program that asserts its bitwise and
//! determinism claims, then gates on a ratio measured in one process
//! against frozen code ([`paired`]): a speed-up floor over the
//! optimized engine's frozen reference, or a ceiling on a sweep's time
//! over a fixed frozen-reference solve (the [`paired::yardstick`]). No
//! number is compared against another run or another machine.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod csvout;
pub mod paired;
pub mod table;

pub use cli::{knob, or_exit, usage, Args, CliError, Knob};
pub use csvout::write_csv;
pub use table::Table;
