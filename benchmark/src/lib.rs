//! The DReAMSim benchmark: four workloads, end-to-end metrics measured
//! untraced in fresh child processes, and per-layer metrics from a
//! separate traced run. See `README.md` beside this crate.

pub mod compare;
pub mod harness;
mod json;
pub mod metrics;
mod probe;
mod trace;
pub mod workloads;
