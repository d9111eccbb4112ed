//! `zab-benchmark`: the benchmark that later performance and simplicity
//! changes are judged by. See `benchmark/README.md` for the workloads, the
//! metrics and their bounds, and the public surface of the repository this
//! crate pins.

pub mod apps;
pub mod cli;
pub mod ensemble;
pub mod gen;
pub mod procfs;
pub mod report;
pub mod stats;
pub mod workload;
