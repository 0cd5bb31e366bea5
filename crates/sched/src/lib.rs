//! # dreamsim-sched
//!
//! Task scheduling policies for DReAMSim — the paper's core subsystem
//! "task scheduling manager", which "can implement different scheduling
//! policies to schedule tasks onto various nodes".
//!
//! The centerpiece is [`CaseStudyScheduler`], the Section V case-study
//! algorithm (Fig. 5 + Algorithm 1) that drives every figure in the
//! paper's evaluation. Its behaviour depends on the run's
//! [`ReconfigMode`](dreamsim_engine::ReconfigMode):
//!
//! * **Partial** — the four-phase pipeline *allocation → configuration →
//!   partial configuration → partial re-configuration*, then suspension
//!   or discard.
//! * **Full** — the one-node-one-task baseline: *allocation →
//!   configuration → re-configuration* (the two partial phases collapse:
//!   a node is only ever reconfigured whole).
//!
//! [`AllocationStrategy`] swaps the allocation phase's pick (first fit,
//! worst fit, random, least loaded) for the policy ablation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod case_study;

pub use case_study::{AllocationStrategy, CaseStudyScheduler};
