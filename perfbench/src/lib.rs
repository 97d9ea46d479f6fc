//! Benchmark of the digital fountain: verified downloads per second over
//! three workloads, with a traced run that times each layer.
//!
//! See `README.md` in this directory for the workloads and metrics.

pub mod driven;
pub mod host;
pub mod report;
pub mod stats;
pub mod trace;
pub mod traced;
pub mod workload;
