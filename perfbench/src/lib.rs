//! The System R/X repository benchmark: three client-facing XML workloads
//! driven through an in-process `rx-server` over protocol-v2 TCP loopback.
//! See `README.md` for the workloads, the metrics and how to run it.

pub mod run;
pub mod trace;
pub mod workload;

pub use run::{run, Metric, Report, Settings, Window, GATED_E2E};
pub use workload::{Corpus, Op, OpStream, Workload};
