//! End-to-end and per-layer benchmark of the ES2 simulator.
//!
//! Three workloads drive the simulator through its public API only
//! ([`cells`]); one run measures a closed loop of simulation batches for
//! a fixed host time, checks every simulation's output, and prints the
//! metrics `BENCHMARK.json` lists ([`bench`]). A traced run
//! (`--trace 1`) times the same public calls from outside ([`trace`])
//! and probes each substrate crate ([`probes`]) for per-layer figures.

pub mod bench;
pub mod cells;
pub mod host;
pub mod metrics;
pub mod probes;
pub mod trace;
