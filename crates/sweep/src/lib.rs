//! # dreamsim-sweep
//!
//! The experiment harness behind Section VI: deterministic, parallel
//! parameter sweeps and regeneration of every figure in the paper.
//!
//! * [`runner`] — run one simulation from a declarative [`SweepPoint`]
//!   (parameters + scheduler), or a whole batch across OS threads
//!   with order-independent, seed-deterministic results.
//! * [`figures`] — the paper's figure definitions (Fig. 6a–10): which
//!   node count, which Table I metric, and which direction the paper
//!   reports partial vs full reconfiguration to win. One
//!   [`ExperimentGrid`] run yields every figure, because the figures all
//!   read different metrics off the same (nodes × mode × tasks) runs.
//! * [`ablations`] — the DESIGN.md A1–A5 ablation harnesses (allocation
//!   strategy, data structures, suspension queue, driver equivalence,
//!   placement model).
//! * [`chaos`] — the chaos campaign harness behind `dreamsim chaos`
//!   (DESIGN.md §14): declarative failure-domain/overload scenarios
//!   (a name and a [`SimParams`](dreamsim_engine::SimParams)) run under
//!   continuous audit, each with a kill-and-resume drill.
//! * [`parallel`] — the deterministic hand-rolled worker pool behind
//!   `--jobs`: index-ordered merge and LPT claim order (DESIGN.md §13).
//!   Each point builds its own simulation; workers share nothing.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablations;
pub mod chaos;
pub mod figures;
pub mod parallel;
pub mod runner;

pub use chaos::{
    parse_campaign, run_campaign, service_drill, CampaignCase, CampaignOptions, CampaignReport,
    ChaosError, ChaosScenario, DrillResult, ServiceDrillReport, BUILTIN_CAMPAIGN,
};
pub use figures::{ExperimentGrid, Figure, FigureSeries};
pub use parallel::{cost_descending_order, effective_jobs, run_ordered};
pub use runner::{replicate, run_batch, run_point, Replicated, SweepPoint};
