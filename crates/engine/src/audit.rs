//! Continuous state-invariant auditor.
//!
//! [`check`] cross-validates every piece of live simulator state against
//! every other: the resource store's idle/busy lists against node slot
//! flags (plus the live search index against a from-scratch
//! rebuild — see DESIGN.md §11),
//! per-slot area against the configuration table, the task table against
//! slot occupancy and the configuration table, pending events against
//! the tasks and nodes they target, and the suspension queue (ids and
//! config column) against the task table's state and config columns.
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
//! O(nodes × slots + events + tasks) per invocation: sets keyed by dense
//! task ids are vectors over the task table, not ordered containers.

use crate::event::{Event, EventQueue};
use dreamsim_model::{
    Area, Capabilities, ConfigId, Demand, EntryRef, NodeId, ResourceManager, SuspensionQueue,
    TaskId, TaskState, TaskTable, Ticks,
};

/// A violated state invariant, with enough context to locate the
/// corruption.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AuditError {
    /// The resource store's own cross-structure invariants failed (list
    /// membership and uniqueness, Eq. 4 area accounting, the search
    /// index against a rebuild). Carries the store's walk trace.
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
    /// A task names a configuration the configuration table does not
    /// have.
    TaskConfig {
        /// Offending task.
        task: TaskId,
        /// Which field names which configuration.
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
            AuditError::TaskConfig { task, detail } => {
                write!(f, "{task} names a nonexistent configuration: {detail}")
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
/// The six check groups, in order:
/// 1. store internals — list membership and uniqueness and Eq. 4 area
///    accounting ([`ResourceManager::check_invariants`]);
/// 2. slot areas — every live slot's `area` matches its configuration's
///    `req_area` and its config id is in range;
/// 3. task ⇔ slot bijection — slots hold exactly the `Running` tasks,
///    each exactly once;
/// 4. task configurations — every task's `resolved_config` and
///    `assigned_config`, when set, is in range;
/// 5. event targets — every pending event is due no earlier than `clock`
///    and targets in-range ids (domain events against `num_domains`, the
///    count of configured failure domains — 0 when domains are off, so
///    any pending domain event is then invalid); *current* (non-stale)
///    completion/failure events point at the slot actually running the
///    task, and current suspension timeouts point at a queued task;
/// 6. suspension queue — queued ids are in range and `Suspended`, no
///    duplicates, the queue holds exactly the suspended tasks, its
///    config column holds each queued task's `resolved_config`, and that
///    configuration fits some node's `TotalArea` with the capabilities
///    it requires (otherwise the task could never leave the queue).
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
    check_task_configs(resources, tasks)?;
    check_event_targets(resources, tasks, suspension, events, clock, num_domains)?;
    check_suspension(resources, tasks, suspension)?;
    Ok(())
}

fn check_store(resources: &ResourceManager) -> Result<(), AuditError> {
    resources
        .check_invariants()
        .map_err(|detail| AuditError::Store { detail })
}

fn check_slot_areas(resources: &ResourceManager) -> Result<(), AuditError> {
    let nodes = resources.node_store();
    for i in 0..nodes.len() {
        let node = NodeId::from_index(i);
        for (idx, slot) in nodes.slots(i) {
            if slot.config.index() >= resources.num_configs() {
                return Err(AuditError::Store {
                    detail: format!(
                        "{node} slot {idx} holds out-of-range {} (have {} configs)",
                        slot.config,
                        resources.num_configs()
                    ),
                });
            }
            let config_area = resources.config(slot.config).req_area;
            if slot.area != config_area {
                return Err(AuditError::SlotArea {
                    node,
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
    // Per task id, the slot running it.
    let mut placed: Vec<Option<EntryRef>> = vec![None; tasks.len()];
    let nodes = resources.node_store();
    for i in 0..nodes.len() {
        for (idx, slot) in nodes.slots(i) {
            let Some(task) = slot.task else { continue };
            let entry = EntryRef::new(NodeId::from_index(i), idx);
            if task.index() >= tasks.len() {
                return Err(AuditError::TaskSlot {
                    task,
                    detail: format!(
                        "{entry} runs out-of-range task (table has {} tasks)",
                        tasks.len()
                    ),
                });
            }
            if let Some(prev) = placed[task.index()].replace(entry) {
                return Err(AuditError::TaskSlot {
                    task,
                    detail: format!("running on two slots at once: {prev} and {entry}"),
                });
            }
            let state = tasks.state(task);
            if state != TaskState::Running {
                return Err(AuditError::TaskSlot {
                    task,
                    detail: format!("occupies {entry} but its state is {state:?}, not Running"),
                });
            }
        }
    }
    for (i, &state) in tasks.states().iter().enumerate() {
        if state == TaskState::Running && placed[i].is_none() {
            return Err(AuditError::TaskSlot {
                task: TaskId::from_index(i),
                detail: "state is Running but no slot holds it".to_string(),
            });
        }
    }
    Ok(())
}

fn check_task_configs(resources: &ResourceManager, tasks: &TaskTable) -> Result<(), AuditError> {
    let num_configs = resources.num_configs();
    for i in 0..tasks.len() {
        let task = TaskId::from_index(i);
        for (field, config) in [
            ("resolved_config", tasks.resolved_config(task)),
            ("assigned_config", tasks.assigned_config(task)),
        ] {
            if let Some(c) = config.filter(|c| c.index() >= num_configs) {
                return Err(AuditError::TaskConfig {
                    task,
                    detail: format!("{field} is {c} (have {num_configs} configs)"),
                });
            }
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
    // Per task id, whether it is queued; an out-of-range id is group 6's.
    let mut queued = vec![false; tasks.len()];
    for t in suspension.iter() {
        if let Some(q) = queued.get_mut(t.index()) {
            *q = true;
        }
    }
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
                let current = tasks.state(task) == TaskState::Running
                    && tasks.start_time(task) == Some(started_at);
                if current
                    && resources
                        .node_store()
                        .slot(entry.node.index(), entry.slot)
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
                let current = tasks.state(task) == TaskState::Suspended
                    && tasks.suspended_at(task) == Some(enqueued_at);
                if current && !queued[task.index()] {
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

fn check_suspension(
    resources: &ResourceManager,
    tasks: &TaskTable,
    suspension: &SuspensionQueue,
) -> Result<(), AuditError> {
    if suspension.configs().len() != suspension.len() {
        return Err(AuditError::Suspension {
            detail: format!(
                "config column holds {} entries but the queue holds {}",
                suspension.configs().len(),
                suspension.len()
            ),
        });
    }
    // An empty queue asks no configuration whether it fits.
    let hostable = if suspension.is_empty() {
        Vec::new()
    } else {
        hostable_configs(resources)
    };
    let mut seen = vec![false; tasks.len()];
    for (task, config) in suspension.iter().zip(suspension.configs()) {
        if task.index() >= tasks.len() {
            return Err(AuditError::Suspension {
                detail: format!(
                    "queue holds out-of-range {task} (table has {} tasks)",
                    tasks.len()
                ),
            });
        }
        if std::mem::replace(&mut seen[task.index()], true) {
            return Err(AuditError::Suspension {
                detail: format!("{task} queued more than once"),
            });
        }
        let state = tasks.state(task);
        if state != TaskState::Suspended {
            return Err(AuditError::Suspension {
                detail: format!("queued {task} has state {state:?}, not Suspended"),
            });
        }
        let resolved = tasks.resolved_config(task);
        if config != resolved {
            return Err(AuditError::Suspension {
                detail: format!(
                    "config column records {config:?} for queued {task}, whose \
                     resolved_config is {resolved:?}"
                ),
            });
        }
        // An out-of-range id has no entry; group 4 has rejected it.
        if let Some(c) = config.filter(|c| hostable.get(c.index()) == Some(&false)) {
            let config = resources.config(c);
            return Err(AuditError::Suspension {
                detail: format!(
                    "queued {task} needs {c} ({} area units, capabilities {:?}), which no \
                     node can host",
                    config.req_area,
                    config.required_caps.iter().collect::<Vec<_>>()
                ),
            });
        }
    }
    let suspended = tasks
        .states()
        .iter()
        .filter(|&&s| s == TaskState::Suspended)
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

/// Per configuration, whether some node, up or down, has the
/// `TotalArea` and capabilities to host it. The nodes fold into the
/// largest area per capability set (an array over the 128 sets) first,
/// so the cost is one pass over the nodes plus configs × sets, whatever
/// the queue's length.
fn hostable_configs(resources: &ResourceManager) -> Vec<bool> {
    let nodes = resources.node_store();
    let mut widest: [Option<Area>; Capabilities::SETS] = [None; Capabilities::SETS];
    for i in 0..nodes.len() {
        let area = nodes.total_area(i);
        let w = &mut widest[usize::from(nodes.caps(i).bits())];
        *w = Some(w.map_or(area, |a| a.max(area)));
    }
    let sets: Vec<(Capabilities, Area)> = widest
        .iter()
        .enumerate()
        .filter_map(|(bits, &area)| {
            let caps = u8::try_from(bits).ok().and_then(Capabilities::from_bits)?;
            Some((caps, area?))
        })
        .collect();
    resources
        .configs()
        .iter()
        .map(|c| {
            let demand = Demand::of(c);
            sets.iter()
                .any(|&(caps, area)| area >= demand.area && demand.caps_ok(caps))
        })
        .collect()
}
