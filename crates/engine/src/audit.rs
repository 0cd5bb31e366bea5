//! Continuous state-invariant auditor.
//!
//! [`check`] cross-validates every piece of live simulator state against
//! every other: the resource store's intrusive idle/busy lists against
//! node slot flags (plus the live search index against a from-scratch
//! rebuild — see DESIGN.md §11),
//! per-slot area against the configuration table, the task table against
//! slot occupancy, pending events against the tasks and nodes they
//! target, and the suspension queue against task states.
//!
//! The auditor runs at checkpoint boundaries (a checkpoint of corrupted
//! state is worse than no checkpoint), under the CLI's `--audit` /
//! `--audit-every` flags, and on every restore. A violation produces a
//! structured [`AuditError`] naming the offending ids — the simulation
//! aborts with a typed error instead of silently producing a wrong
//! result.
//!
//! All checks are read-only and use only public accessors, so the
//! auditor can never itself perturb the state it is validating. Cost is
//! O(nodes × slots + events + tasks) per invocation.

use crate::event::{Event, EventQueue};
use crate::sim::TaskTable;
use dreamsim_model::{
    Area, ConfigId, EntryRef, NodeId, ResourceManager, SuspensionQueue, TaskId, TaskState, Ticks,
};
use std::collections::{BTreeMap, BTreeSet};

/// A violated state invariant, with enough context to locate the
/// corruption.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AuditError {
    /// The resource store's own cross-structure invariants failed
    /// (intrusive-list reachability, acyclicity, membership, Eq. 4 area
    /// accounting). Carries the store's walk trace.
    Store {
        /// Diagnostic from [`ResourceManager::check_invariants`],
        /// including the list-walk trace of the offending entry.
        detail: String,
    },
    /// A live slot's recorded area disagrees with the configuration
    /// table.
    SlotArea {
        /// Node holding the slot.
        node: NodeId,
        /// Slot index within the node.
        slot: u32,
        /// Configuration the slot claims to hold.
        config: ConfigId,
        /// Area recorded on the slot.
        slot_area: Area,
        /// Area the configuration table says that config occupies.
        config_area: Area,
    },
    /// The task table and the slot occupancy disagree (a slot names a
    /// non-running task, a task is in two slots, or a running task is in
    /// no slot).
    TaskSlot {
        /// Offending task.
        task: TaskId,
        /// What disagreed, including the slot walk.
        detail: String,
    },
    /// A pending event targets state that cannot receive it.
    EventTarget {
        /// When the event is due.
        time: Ticks,
        /// What is wrong with the event's target.
        detail: String,
    },
    /// The suspension queue and the task table disagree.
    Suspension {
        /// What disagreed, including queue contents where relevant.
        detail: String,
    },
}

impl std::fmt::Display for AuditError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AuditError::Store { detail } => write!(f, "store invariant violated: {detail}"),
            AuditError::SlotArea {
                node,
                slot,
                config,
                slot_area,
                config_area,
            } => write!(
                f,
                "area mismatch on {node} slot {slot}: slot records {slot_area} \
                 but {config} requires {config_area}"
            ),
            AuditError::TaskSlot { task, detail } => {
                write!(f, "task/slot mismatch for {task}: {detail}")
            }
            AuditError::EventTarget { time, detail } => {
                write!(
                    f,
                    "pending event at t={time} has an invalid target: {detail}"
                )
            }
            AuditError::Suspension { detail } => {
                write!(f, "suspension queue inconsistent: {detail}")
            }
        }
    }
}

impl std::error::Error for AuditError {}

/// Cross-check all live simulator state. Returns the first violation
/// found.
///
/// The five check groups, in order:
/// 1. store internals — intrusive-list reachability/acyclicity/membership
///    and Eq. 4 area accounting ([`ResourceManager::check_invariants`]);
/// 2. slot areas — every live slot's `area` matches its configuration's
///    `req_area` and its config id is in range;
/// 3. task ⇔ slot bijection — slots hold exactly the `Running` tasks,
///    each exactly once;
/// 4. event targets — every pending event is due no earlier than `clock`
///    and targets in-range ids (domain events against `num_domains`, the
///    count of configured failure domains — 0 when domains are off, so
///    any pending domain event is then invalid); *current* (non-stale)
///    completion/failure events point at the slot actually running the
///    task, and current suspension timeouts point at a queued task;
/// 5. suspension queue — queued ids are in range and `Suspended`, no
///    duplicates, and the queue holds exactly the suspended tasks.
pub fn check(
    resources: &ResourceManager,
    tasks: &TaskTable,
    events: &EventQueue,
    suspension: &SuspensionQueue,
    clock: Ticks,
    num_domains: usize,
) -> Result<(), AuditError> {
    check_store(resources)?;
    check_slot_areas(resources)?;
    check_task_slot_bijection(resources, tasks)?;
    check_event_targets(resources, tasks, suspension, events, clock, num_domains)?;
    check_suspension(tasks, suspension)?;
    Ok(())
}

fn check_store(resources: &ResourceManager) -> Result<(), AuditError> {
    resources
        .check_invariants()
        .map_err(|detail| AuditError::Store { detail })
}

fn check_slot_areas(resources: &ResourceManager) -> Result<(), AuditError> {
    for n in resources.nodes() {
        for (idx, slot) in n.slots() {
            if slot.config.index() >= resources.num_configs() {
                return Err(AuditError::Store {
                    detail: format!(
                        "{} slot {idx} holds out-of-range {} (have {} configs)",
                        n.id,
                        slot.config,
                        resources.num_configs()
                    ),
                });
            }
            let config_area = resources.config(slot.config).req_area;
            if slot.area != config_area {
                return Err(AuditError::SlotArea {
                    node: n.id,
                    slot: idx,
                    config: slot.config,
                    slot_area: slot.area,
                    config_area,
                });
            }
        }
    }
    Ok(())
}

fn check_task_slot_bijection(
    resources: &ResourceManager,
    tasks: &TaskTable,
) -> Result<(), AuditError> {
    let mut placed: BTreeMap<TaskId, EntryRef> = BTreeMap::new();
    for n in resources.nodes() {
        for (idx, slot) in n.slots() {
            let Some(task) = slot.task else { continue };
            let entry = EntryRef::new(n.id, idx);
            if task.index() >= tasks.len() {
                return Err(AuditError::TaskSlot {
                    task,
                    detail: format!(
                        "{entry} runs out-of-range task (table has {} tasks)",
                        tasks.len()
                    ),
                });
            }
            if let Some(prev) = placed.insert(task, entry) {
                return Err(AuditError::TaskSlot {
                    task,
                    detail: format!("running on two slots at once: {prev} and {entry}"),
                });
            }
            let state = tasks.get(task).state;
            if state != TaskState::Running {
                return Err(AuditError::TaskSlot {
                    task,
                    detail: format!("occupies {entry} but its state is {state:?}, not Running"),
                });
            }
        }
    }
    for t in tasks.iter() {
        if t.state == TaskState::Running && !placed.contains_key(&t.id) {
            return Err(AuditError::TaskSlot {
                task: t.id,
                detail: "state is Running but no slot holds it".to_string(),
            });
        }
    }
    Ok(())
}

fn check_event_targets(
    resources: &ResourceManager,
    tasks: &TaskTable,
    suspension: &SuspensionQueue,
    events: &EventQueue,
    clock: Ticks,
    num_domains: usize,
) -> Result<(), AuditError> {
    let queued: BTreeSet<TaskId> = suspension.iter().collect();
    let task_in_range = |t: TaskId| t.index() < tasks.len();
    let node_in_range = |n: NodeId| n.index() < resources.num_nodes();
    for (time, ev) in events.pending() {
        if time < clock {
            return Err(AuditError::EventTarget {
                time,
                detail: format!("{ev:?} is due before the clock ({clock})"),
            });
        }
        match ev {
            Event::TaskArrival { task } | Event::ReconfigFailed { task } => {
                if !task_in_range(task) {
                    return Err(AuditError::EventTarget {
                        time,
                        detail: format!("{ev:?} targets out-of-range {task}"),
                    });
                }
            }
            Event::NodeFailure { node } | Event::NodeRepair { node } => {
                if !node_in_range(node) {
                    return Err(AuditError::EventTarget {
                        time,
                        detail: format!("{ev:?} targets out-of-range {node}"),
                    });
                }
            }
            Event::TaskCompletion {
                task,
                entry,
                started_at,
            }
            | Event::TaskFailed {
                task,
                entry,
                started_at,
            } => {
                if !task_in_range(task) || !node_in_range(entry.node) {
                    return Err(AuditError::EventTarget {
                        time,
                        detail: format!("{ev:?} targets out-of-range task or node"),
                    });
                }
                // Stale events (killed/resubmitted runs) are legal; only
                // a *current* event must match live slot occupancy.
                let t = tasks.get(task);
                let current = t.state == TaskState::Running && t.start_time == Some(started_at);
                if current
                    && resources
                        .node(entry.node)
                        .slot(entry.slot)
                        .is_none_or(|s| s.task != Some(task))
                {
                    return Err(AuditError::EventTarget {
                        time,
                        detail: format!("current {ev:?} but {entry} does not hold {task}"),
                    });
                }
            }
            Event::DomainOutage { domain, .. } | Event::DomainRestore { domain } => {
                // BOUND: u32 domain index; usize is at least 32 bits on every supported target.
                if domain as usize >= num_domains {
                    return Err(AuditError::EventTarget {
                        time,
                        detail: format!(
                            "{ev:?} targets out-of-range domain (have {num_domains} domains)"
                        ),
                    });
                }
            }
            Event::SuspensionTimeout { task, enqueued_at } => {
                if !task_in_range(task) {
                    return Err(AuditError::EventTarget {
                        time,
                        detail: format!("{ev:?} targets out-of-range {task}"),
                    });
                }
                let t = tasks.get(task);
                let current =
                    t.state == TaskState::Suspended && t.suspended_at == Some(enqueued_at);
                if current && !queued.contains(&task) {
                    return Err(AuditError::EventTarget {
                        time,
                        detail: format!("current {ev:?} but {task} is not in the suspension queue"),
                    });
                }
            }
        }
    }
    Ok(())
}

fn check_suspension(tasks: &TaskTable, suspension: &SuspensionQueue) -> Result<(), AuditError> {
    let mut seen: BTreeSet<TaskId> = BTreeSet::new();
    for task in suspension.iter() {
        if task.index() >= tasks.len() {
            return Err(AuditError::Suspension {
                detail: format!(
                    "queue holds out-of-range {task} (table has {} tasks)",
                    tasks.len()
                ),
            });
        }
        if !seen.insert(task) {
            return Err(AuditError::Suspension {
                detail: format!("{task} queued more than once"),
            });
        }
        let state = tasks.get(task).state;
        if state != TaskState::Suspended {
            return Err(AuditError::Suspension {
                detail: format!("queued {task} has state {state:?}, not Suspended"),
            });
        }
    }
    let suspended = tasks
        .iter()
        .filter(|t| t.state == TaskState::Suspended)
        .count();
    if suspended != suspension.len() {
        return Err(AuditError::Suspension {
            detail: format!(
                "{suspended} tasks are Suspended but the queue holds {} entries",
                suspension.len()
            ),
        });
    }
    Ok(())
}
