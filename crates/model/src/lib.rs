//! # dreamsim-model
//!
//! The DReAMSim system model (Nadeem et al., IPDPSW 2012, Section IV):
//! reconfigurable nodes, processor configurations, application tasks, and
//! the dynamic data structures the resource information manager uses to
//! track them.
//!
//! The paper models (Eq. 1–3):
//!
//! * a **node** `Nodeᵢ(TotalArea, AvailableArea, C, family, caps, state)`
//!   — a partially reconfigurable processing element holding a set `C` of
//!   currently instantiated processor configurations ([`soa::NodeStore`],
//!   one record per node, built from [`node::Node`] records);
//! * a **configuration** `Cᵢ(ReqArea, Ptype, param, BSize, ConfigTime)` —
//!   a soft processor occupying `ReqArea` area units
//!   ([`config::Config`]);
//! * a **task** `Taskᵢ(t_required, Cpref, data)` — a unit of work that
//!   wants a particular processor configuration ([`task::Task`], one row
//!   of the columnar [`task::TaskTable`], whose checkpoint form is
//!   [`compact`]).
//!
//! Section IV.B's dynamic structures are reproduced in [`lists`] (the
//! per-configuration idle/busy lists headed by `Idle_start` /
//! `Busy_start`, one vector each, which checkpoints carry as vectors
//! too: columns 15–16 of the node table, `soa/columns.rs`) and
//! [`suspension`] (the suspension queue). [`store::ResourceManager`] ties
//! everything together and is the single mutation point, so the area and
//! list invariants can be checked in one place
//! ([`store::ResourceManager::check_invariants`]). Runtime node state is
//! read through one API, the index accessors of [`soa::NodeStore`]
//! (`rm.node_store().available_area(i)`, `.is_down(i)`, `.slots(i)`, …),
//! and mutated only through it: the store is the one implementation of
//! a node's slots, Eq. 4 and slot-index reuse. [`node::Node`] is a plain
//! record, the construction spec of one blank node; checkpoints never
//! write it.
//!
//! Every traversal of a list or scan of the node table is charged to a
//! [`steps::StepCounter`], reproducing the paper's two step metrics
//! (*average scheduling steps per task* and *total scheduler workload*,
//! Table I).
//!
//! One deliberate generalization over Fig. 3 is documented in DESIGN.md:
//! idle/busy list entries are **per (node, slot)** rather than per node,
//! because a partially reconfigured node can be idle in one
//! configuration's list and busy in another's at the same time. With one
//! slot per node (full reconfiguration) the structure degenerates to the
//! paper's exact layout.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod caps;
pub mod compact;
pub mod config;
pub mod contiguous;
pub mod ids;
pub mod lists;
pub mod naive;
pub mod node;
pub mod pack;
pub mod search;
pub mod soa;
pub mod steps;
pub mod store;
pub mod suspension;
pub mod task;

pub use caps::{Capabilities, Capability, DeviceFamily};
pub use config::{Config, ProcessorType};
pub use contiguous::Strip;
pub use ids::{Area, ConfigId, EntryRef, NodeId, TaskId, Ticks};
pub use lists::ConfigLists;
pub use node::{Node, NodeState};
pub use search::{IndexSnapshot, SearchIndex};
pub use soa::{NodeStore, SlotView};
pub use steps::StepCounter;
pub use store::{Demand, ResourceManager};
pub use suspension::SuspensionQueue;
pub use task::{PreferredConfig, Task, TaskState, TaskTable, TaskTableError};
