//! Application tasks (Eq. 3): `Taskᵢ(t_required, Cpref, data)`.
//!
//! A task asks for a *preferred* processor configuration `Cpref` and runs
//! for `t_required` timeticks once placed on it. Per Table II, a fraction
//! of tasks (15 % in the paper's runs) prefer a configuration that does
//! not exist in the configuration list; the scheduler then falls back to
//! the *closest match* — the smallest configuration bigger than the
//! preferred one. Such preferences are modeled as
//! [`PreferredConfig::Phantom`] carrying only the required area.
//!
//! The driver keeps its tasks in a [`TaskTable`]: one dense column per
//! field, with no id column (`id == first + index`) and sentinels instead
//! of `Option` padding. A [`Task`] is the by-value row the table
//! assembles for observers, the public row API and tests.
//!
//! `first` is the id of the table's first row. It stays 0 in a batch
//! run, which keeps every row. A service retires finished rows at each
//! ring snapshot ([`TaskTable::retire_finished`]): the longest prefix of
//! Completed and Discarded rows leaves the table and `first` moves past
//! it, so the table holds the unfinished window, not the history. A
//! retired id reads as finished ([`TaskTable::state`] is `None`); any
//! other accessor panics on it, as on an id past the last row.
//!
//! | column            | element        | bound that makes it fit                       |
//! |-------------------|----------------|-----------------------------------------------|
//! | `required_time`   | `u64`          | none needed (`MAX_TICKS` is 2^32)             |
//! | `preferred`       | `u32`          | palette index; at most one entry per task     |
//! | `needed_area`     | `u32`          | `MAX_AREA` = 2^24 (see below)                 |
//! | `data_bytes`      | `u64`          | none needed                                   |
//! | `create_time`     | `u64`          | none needed                                   |
//! | `start_time`      | `u64`          | `u64::MAX` = `None`; time stays below it      |
//! | `completion_time` | `u64`          | `u64::MAX` = `None`                           |
//! | `assigned_config` | `u32`          | `u32::MAX` = `None`; config ids stay below it |
//! | `resolved_config` | `u32`          | `u32::MAX` = `None`                           |
//! | `sus_retry`       | `u32`          | saturates at `u32::MAX` (see below)           |
//! | `fault_retries`   | `u32`          | already `u32` in the row                      |
//! | `suspended_at`    | `u64`          | `u64::MAX` = `None`                           |
//! | `state`           | [`TaskState`]  | one byte                                      |
//!
//! That is [`TaskTable::BYTES_PER_TASK`] = 73 bytes a task, against the
//! 136 of a `Task` row. Areas are held to
//! [`MAX_AREA`](crate::ids::MAX_AREA) wherever a run takes them in
//! (parameters, traces, the engine's source boundary and the checkpoint
//! decoder), far inside the `u32` column. `SusRetry` counts saturate at
//! `u32::MAX`: the engine validates every retry limit below it
//! (`MAX_SUS_RETRIES`, `u32::MAX − 1`), so a limit check sees the exact
//! count, and no report reads the count itself. A value a column cannot
//! hold at all (an area or a retry count above `u32::MAX`, a time or
//! configuration id equal to its column's sentinel) is a
//! [`TaskTableError`] where it enters: [`TaskTable::create`],
//! [`TaskTable::push`] or the checkpoint decoder ([`crate::compact`]).

use crate::ids::{Area, ConfigId, TaskId, Ticks};
use serde::{Deserialize, Serialize};

/// What configuration a task asks for.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PreferredConfig {
    /// The task prefers a configuration present in the configuration list.
    Known(ConfigId),
    /// The task prefers a configuration *not* in the list; only its area
    /// requirement is known, and the scheduler must substitute the
    /// closest match (Section V).
    Phantom {
        /// Area the preferred (unavailable) configuration would need.
        area: Area,
    },
}

/// Lifecycle state of a task (drives the Table I counters).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TaskState {
    /// Created, not yet handled by the scheduler.
    #[default]
    Created,
    /// Waiting in the suspension queue for a busy node to free up.
    Suspended,
    /// Executing on a node.
    Running,
    /// Finished execution.
    Completed,
    /// Rejected: no configuration or node could ever serve it.
    Discarded,
}

/// An application task (Eq. 3 plus the bookkeeping fields of the UML
/// `Task` class: create/start/completion times, assigned configuration,
/// suspension retries).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Task {
    /// Task identifier (`TaskNo`).
    pub id: TaskId,
    /// Execution time on the preferred configuration, in timeticks
    /// (`t_required`).
    pub required_time: Ticks,
    /// The preferred configuration (`Cpref`) — possibly phantom.
    pub preferred: PreferredConfig,
    /// Area needed by the preferred configuration (`NeededArea`); for
    /// known preferences this mirrors the config's `ReqArea`, for phantom
    /// preferences it is the only sizing information available.
    pub needed_area: Area,
    /// Input data size in bytes (`data` in Eq. 3); affects nothing in the
    /// paper's evaluation but is carried for workload realism.
    pub data_bytes: u64,
    /// Creation (arrival) time (`CreateTime`).
    pub create_time: Ticks,
    /// Time the task started executing on a node (`StartTime`).
    pub start_time: Option<Ticks>,
    /// Time the task finished (`CompletionTime`).
    pub completion_time: Option<Ticks>,
    /// Configuration actually assigned (`AssignedConfig`); differs from
    /// `preferred` when the closest match was used.
    pub assigned_config: Option<ConfigId>,
    /// Configuration the scheduler resolved for this task (exact or
    /// closest match), cached at first scheduling so suspension-queue
    /// rescans don't repeat the configuration-list search.
    pub resolved_config: Option<ConfigId>,
    /// Number of times the task was pulled from the suspension queue and
    /// retried (`SusRetry`).
    pub sus_retry: u64,
    /// Fault-injection extension: how many times this task has been
    /// retried after a failed reconfiguration or resubmitted after a
    /// failed execution / node failure. Stays 0 in failure-free runs.
    #[serde(default)]
    pub fault_retries: u32,
    /// Fault-injection extension: when the task last entered the
    /// suspension queue. Lets a suspension-deadline event recognise that
    /// the task it timed was resumed and re-suspended in the meantime.
    #[serde(default)]
    pub suspended_at: Option<Ticks>,
    /// Current lifecycle state.
    pub state: TaskState,
}

impl Task {
    /// Create a task at `create_time` with the given preference.
    ///
    /// `needed_area` must be supplied by the caller because for
    /// [`PreferredConfig::Known`] it mirrors the configuration's area,
    /// which the task table does not have access to.
    #[must_use]
    pub fn new(
        id: TaskId,
        create_time: Ticks,
        required_time: Ticks,
        preferred: PreferredConfig,
        needed_area: Area,
    ) -> Self {
        Self {
            id,
            required_time,
            preferred,
            needed_area,
            data_bytes: 0,
            create_time,
            start_time: None,
            completion_time: None,
            assigned_config: None,
            resolved_config: None,
            sus_retry: 0,
            fault_retries: 0,
            suspended_at: None,
            state: TaskState::Created,
        }
    }

    /// Builder-style data payload size.
    #[must_use]
    pub fn with_data_bytes(mut self, bytes: u64) -> Self {
        self.data_bytes = bytes;
        self
    }

    /// Waiting time per Eq. 8 components available on the task itself:
    /// `tstart − tcreate`. The communication and configuration components
    /// are added by the statistics module, which knows the placement.
    /// Returns `None` until the task has started.
    #[must_use]
    pub fn queueing_delay(&self) -> Option<Ticks> {
        self.start_time.map(|s| s.saturating_sub(self.create_time))
    }

    /// Whether the task reached a terminal state.
    #[must_use]
    pub fn is_terminal(&self) -> bool {
        matches!(self.state, TaskState::Completed | TaskState::Discarded)
    }
}

/// How the `Option<Ticks>` columns store `None`.
const NO_TIME: Ticks = Ticks::MAX;

/// How the `Option<ConfigId>` columns store `None`, as the suspension
/// queue's config column does.
const NO_CONFIG: u32 = u32::MAX;

/// A value a [`TaskTable`] column cannot hold, named with its task.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TaskTableError {
    /// A needed area or a retry count above `u32::MAX`.
    TooWide {
        /// The task carrying it.
        task: TaskId,
        /// The column: `needed_area` or `sus_retry`.
        what: &'static str,
        /// The value.
        value: u64,
    },
    /// A time or configuration id equal to its column's `None` sentinel
    /// (`u64::MAX` or `u32::MAX`).
    Sentinel {
        /// The task carrying it.
        task: TaskId,
        /// The column.
        what: &'static str,
    },
}

impl std::fmt::Display for TaskTableError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TaskTableError::TooWide { task, what, value } => {
                write!(f, "{task}: {what} {value} does not fit its u32 column")
            }
            TaskTableError::Sentinel { task, what } => write!(
                f,
                "{task}: {what} equals the column's None sentinel, so it cannot be stored"
            ),
        }
    }
}

impl std::error::Error for TaskTableError {}

/// A value as a `u32` column holds it.
fn u32_cell(task: TaskId, what: &'static str, value: u64) -> Result<u32, TaskTableError> {
    u32::try_from(value).map_err(|_| TaskTableError::TooWide { task, what, value })
}

/// An optional time as its column holds it.
pub(crate) fn time_cell(
    task: TaskId,
    what: &'static str,
    time: Option<Ticks>,
) -> Result<Ticks, TaskTableError> {
    match time {
        None => Ok(NO_TIME),
        Some(NO_TIME) => Err(TaskTableError::Sentinel { task, what }),
        Some(t) => Ok(t),
    }
}

/// An optional configuration id as its column holds it.
pub(crate) fn config_cell(
    task: TaskId,
    what: &'static str,
    config: Option<ConfigId>,
) -> Result<u32, TaskTableError> {
    match config {
        None => Ok(NO_CONFIG),
        Some(ConfigId(NO_CONFIG)) => Err(TaskTableError::Sentinel { task, what }),
        Some(c) => Ok(c.0),
    }
}

pub(crate) fn time_of(cell: Ticks) -> Option<Ticks> {
    (cell != NO_TIME).then_some(cell)
}

pub(crate) fn config_of(cell: u32) -> Option<ConfigId> {
    (cell != NO_CONFIG).then_some(ConfigId(cell))
}

/// A time a setter stores: the engine's clock, which stays below the
/// `None` sentinel.
fn stored_time(time: Option<Ticks>) -> Ticks {
    // BOUND: the clock is a sum of validated tick values and trace times
    // capped at MAX_TICKS (2^32), far below u64::MAX (DESIGN.md §14.4).
    assert_ne!(time, Some(NO_TIME), "a time equal to the None sentinel");
    time.unwrap_or(NO_TIME)
}

/// A configuration id a setter stores: an index into the configuration
/// table, which stays below the `None` sentinel.
fn stored_config(config: Option<ConfigId>) -> u32 {
    // BOUND: ids index the configuration table; a table reaching
    // u32::MAX entries would need hundreds of gigabytes.
    assert_ne!(
        config,
        Some(ConfigId(NO_CONFIG)),
        "a config id equal to the None sentinel"
    );
    config.map_or(NO_CONFIG, |c| c.0)
}

/// How the palette's index vectors mark a preference not seen yet. No
/// palette reaches `u32::MAX` entries (at most one per task id).
const NOT_SEEN: u32 = u32::MAX;

/// `Known` ids below this are looked up by id in a dense vector
/// (4 bytes an id, at most 256 KiB); a wider id (a trace or a crafted
/// checkpoint may name any `u32`) goes to the map with the phantoms.
const DENSE_KNOWN: usize = 1 << 16;

/// Dense task table (the driver's master copy of its tasks), one column
/// per field; see the module docs for each column's width and bound.
///
/// Hot paths read and write single columns through the accessors;
/// [`row`](Self::row) assembles a [`Task`] by value. Serialization
/// writes the checkpoint's packed columnar form ([`crate::compact`]).
#[derive(Clone, Default)]
pub struct TaskTable {
    /// The id of the first row; rows below it were retired
    /// ([`retire_finished`](Self::retire_finished)).
    pub(crate) first: u32,
    pub(crate) required_time: Vec<Ticks>,
    /// Index into `palette`.
    pub(crate) preferred: Vec<u32>,
    /// The distinct preferences in first-seen order, as the checkpoint's
    /// palette lists them.
    pub(crate) palette: Vec<PreferredConfig>,
    /// Each palette entry's index, for appends; derived from `palette`.
    palette_index: PaletteIndex,
    pub(crate) needed_area: Vec<u32>,
    pub(crate) data_bytes: Vec<u64>,
    pub(crate) create_time: Vec<Ticks>,
    pub(crate) start_time: Vec<Ticks>,
    pub(crate) completion_time: Vec<Ticks>,
    pub(crate) assigned_config: Vec<u32>,
    pub(crate) resolved_config: Vec<u32>,
    pub(crate) sus_retry: Vec<u32>,
    pub(crate) fault_retries: Vec<u32>,
    pub(crate) suspended_at: Vec<Ticks>,
    pub(crate) state: Vec<TaskState>,
}

impl TaskTable {
    /// Bytes one task takes across the columns (see the module docs).
    pub const BYTES_PER_TASK: usize = 73;

    /// Empty table.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty table with every column reserved for `capacity` tasks.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        let mut table = Self::default();
        table.reserve(capacity);
        table
    }

    /// Reserve every column for at least `additional` more tasks, so no
    /// column regrows until the table holds that many more.
    pub fn reserve(&mut self, additional: usize) {
        self.required_time.reserve(additional);
        self.preferred.reserve(additional);
        self.needed_area.reserve(additional);
        self.data_bytes.reserve(additional);
        self.create_time.reserve(additional);
        self.start_time.reserve(additional);
        self.completion_time.reserve(additional);
        self.assigned_config.reserve(additional);
        self.resolved_config.reserve(additional);
        self.sus_retry.reserve(additional);
        self.fault_retries.reserve(additional);
        self.suspended_at.reserve(additional);
        self.state.reserve(additional);
    }

    /// Number of rows held: every task created, less those retired.
    #[must_use]
    pub fn len(&self) -> usize {
        self.state.len()
    }

    /// Whether the table holds no rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.state.is_empty()
    }

    /// The id of the first row: 0 until finished rows are retired.
    #[must_use]
    pub fn first(&self) -> TaskId {
        TaskId(self.first)
    }

    /// Tasks created so far, retired ones included: `first + len`, the
    /// id the next created task gets.
    #[must_use]
    pub fn created(&self) -> u64 {
        u64::from(self.first) + self.len() as u64
    }

    /// Whether `id` names a row the table holds (neither retired nor
    /// past the last row).
    #[must_use]
    pub fn holds(&self, id: TaskId) -> bool {
        id.0 >= self.first && self.at(id) < self.len()
    }

    /// The row index of task `id`. A retired id wraps past every row, so
    /// indexing with it panics as with an id past the last row.
    #[inline]
    fn at(&self, id: TaskId) -> usize {
        // BOUND: a u32 difference; usize is at least 32 bits on every supported target.
        id.0.wrapping_sub(self.first) as usize
    }

    /// The palette index of `preferred`, appending it on first sight.
    fn intern(&mut self, preferred: PreferredConfig) -> u32 {
        // BOUND: the palette gains at most one entry per task, and task
        // ids are u32; a decoded palette is capped at u32::MAX entries.
        let next = self.palette.len() as u32;
        let slot = self.palette_index.slot(preferred);
        if *slot == NOT_SEEN {
            *slot = next;
            self.palette.push(preferred);
        }
        *slot
    }

    /// Append a decoded palette entry, indexing it unless an earlier
    /// entry holds the same preference (that one keeps the index).
    pub(crate) fn push_palette_entry(&mut self, preferred: PreferredConfig) {
        // BOUND: the decoder caps the palette at u32::MAX entries.
        let next = self.palette.len() as u32;
        let slot = self.palette_index.slot(preferred);
        if *slot == NOT_SEEN {
            *slot = next;
        }
        self.palette.push(preferred);
    }

    /// Retire the longest prefix of finished (Completed or Discarded)
    /// rows: they leave every column and `first` moves past them.
    /// Returns how many rows retired. The palette keeps its entries, so
    /// a preference seen again keeps its index.
    ///
    /// A service calls this at each ring snapshot; a batch run never
    /// does. Only a row no event, slot or queue can still act on may go:
    /// a finished task is in no slot and no queue, and an event naming
    /// it is stale, as one naming a retired id is ([`state`](Self::state)
    /// reads it as finished).
    pub fn retire_finished(&mut self) -> usize {
        let n = self
            .state
            .iter()
            .take_while(|s| matches!(s, TaskState::Completed | TaskState::Discarded))
            .count();
        if n == 0 {
            return 0;
        }
        self.required_time.drain(..n);
        self.preferred.drain(..n);
        self.needed_area.drain(..n);
        self.data_bytes.drain(..n);
        self.create_time.drain(..n);
        self.start_time.drain(..n);
        self.completion_time.drain(..n);
        self.assigned_config.drain(..n);
        self.resolved_config.drain(..n);
        self.sus_retry.drain(..n);
        self.fault_retries.drain(..n);
        self.suspended_at.drain(..n);
        self.state.drain(..n);
        // BOUND: n rows held ids first..first+n, each a u32.
        self.first += n as u32;
        n
    }

    /// Append a task as the source yields it: created at `create_time`,
    /// nothing resolved, assigned or started yet. Returns its id,
    /// [`created`](Self::created) before the append.
    ///
    /// A needed area above `u32::MAX` is an error, and the table is left
    /// unchanged.
    ///
    /// # Panics
    /// Panics if the id would exceed `u32::MAX`.
    pub fn create(
        &mut self,
        create_time: Ticks,
        required_time: Ticks,
        preferred: PreferredConfig,
        needed_area: Area,
        data_bytes: u64,
    ) -> Result<TaskId, TaskTableError> {
        // BOUND: a u32 widened to usize, plus a row count.
        let id = TaskId::from_index(self.first as usize + self.len());
        let needed_area = u32_cell(id, "needed_area", needed_area)?;
        let preferred = self.intern(preferred);
        self.required_time.push(required_time);
        self.preferred.push(preferred);
        self.needed_area.push(needed_area);
        self.data_bytes.push(data_bytes);
        self.create_time.push(create_time);
        self.start_time.push(NO_TIME);
        self.completion_time.push(NO_TIME);
        self.assigned_config.push(NO_CONFIG);
        self.resolved_config.push(NO_CONFIG);
        self.sus_retry.push(0);
        self.fault_retries.push(0);
        self.suspended_at.push(NO_TIME);
        self.state.push(TaskState::Created);
        Ok(id)
    }

    /// Append a whole row; its id must be the next one,
    /// [`created`](Self::created). A value a column cannot hold is an
    /// error, and the table is left unchanged.
    ///
    /// # Panics
    /// Panics if `task.id` is not the next id: ids are positions here,
    /// not data.
    pub fn push(&mut self, task: Task) -> Result<(), TaskTableError> {
        assert_eq!(
            u64::from(task.id.0),
            self.created(),
            "task ids must be dense"
        );
        let id = task.id;
        let start = time_cell(id, "start_time", task.start_time)?;
        let completion = time_cell(id, "completion_time", task.completion_time)?;
        let suspended_at = time_cell(id, "suspended_at", task.suspended_at)?;
        let assigned = config_cell(id, "assigned_config", task.assigned_config)?;
        let resolved = config_cell(id, "resolved_config", task.resolved_config)?;
        let sus_retry = u32_cell(id, "sus_retry", task.sus_retry)?;
        self.create(
            task.create_time,
            task.required_time,
            task.preferred,
            task.needed_area,
            task.data_bytes,
        )?;
        let i = self.at(id);
        self.start_time[i] = start;
        self.completion_time[i] = completion;
        self.suspended_at[i] = suspended_at;
        self.assigned_config[i] = assigned;
        self.resolved_config[i] = resolved;
        self.sus_retry[i] = sus_retry;
        self.fault_retries[i] = task.fault_retries;
        self.state[i] = task.state;
        Ok(())
    }

    /// Assemble task `id`'s row.
    #[must_use]
    pub fn row(&self, id: TaskId) -> Task {
        let i = self.at(id);
        Task {
            id,
            required_time: self.required_time[i],
            preferred: self.preferred(id),
            needed_area: self.needed_area(id),
            data_bytes: self.data_bytes[i],
            create_time: self.create_time[i],
            start_time: self.start_time(id),
            completion_time: self.completion_time(id),
            assigned_config: self.assigned_config(id),
            resolved_config: self.resolved_config(id),
            sus_retry: u64::from(self.sus_retry[i]),
            fault_retries: self.fault_retries[i],
            suspended_at: self.suspended_at(id),
            state: self.state[i],
        }
    }

    /// Every held task's row, by value, in id order.
    #[must_use]
    pub fn iter(&self) -> Rows<'_> {
        Rows {
            table: self,
            // BOUND: a u32 widened to usize, plus a row count.
            ids: self.first as usize..self.first as usize + self.len(),
        }
    }

    /// `t_required`.
    #[must_use]
    pub fn required_time(&self, id: TaskId) -> Ticks {
        self.required_time[self.at(id)]
    }

    /// `Cpref`.
    #[must_use]
    pub fn preferred(&self, id: TaskId) -> PreferredConfig {
        // BOUND: u32 palette index; usize is at least 32 bits on every supported target.
        self.palette[self.preferred[self.at(id)] as usize]
    }

    /// `NeededArea`.
    #[must_use]
    pub fn needed_area(&self, id: TaskId) -> Area {
        Area::from(self.needed_area[self.at(id)])
    }

    /// `CreateTime`.
    #[must_use]
    pub fn create_time(&self, id: TaskId) -> Ticks {
        self.create_time[self.at(id)]
    }

    /// `StartTime` of the current run, if running or finished.
    #[must_use]
    pub fn start_time(&self, id: TaskId) -> Option<Ticks> {
        time_of(self.start_time[self.at(id)])
    }

    /// Record (or clear) the current run's start.
    pub fn set_start_time(&mut self, id: TaskId, time: Option<Ticks>) {
        let i = self.at(id);
        self.start_time[i] = stored_time(time);
    }

    /// `CompletionTime`.
    #[must_use]
    pub fn completion_time(&self, id: TaskId) -> Option<Ticks> {
        time_of(self.completion_time[self.at(id)])
    }

    /// Record the completion time.
    pub fn set_completion_time(&mut self, id: TaskId, time: Option<Ticks>) {
        let i = self.at(id);
        self.completion_time[i] = stored_time(time);
    }

    /// `AssignedConfig` of the current run.
    #[must_use]
    pub fn assigned_config(&self, id: TaskId) -> Option<ConfigId> {
        config_of(self.assigned_config[self.at(id)])
    }

    /// Record (or clear) the current run's configuration.
    pub fn set_assigned_config(&mut self, id: TaskId, config: Option<ConfigId>) {
        let i = self.at(id);
        self.assigned_config[i] = stored_config(config);
    }

    /// The configuration the scheduler resolved for the task.
    #[must_use]
    pub fn resolved_config(&self, id: TaskId) -> Option<ConfigId> {
        config_of(self.resolved_config[self.at(id)])
    }

    /// Cache the resolved configuration.
    pub fn set_resolved_config(&mut self, id: TaskId, config: Option<ConfigId>) {
        let i = self.at(id);
        self.resolved_config[i] = stored_config(config);
    }

    /// `SusRetry`.
    #[must_use]
    pub fn sus_retry(&self, id: TaskId) -> u32 {
        self.sus_retry[self.at(id)]
    }

    /// Count one more suspension retry; returns the new count, which
    /// saturates at `u32::MAX` (see the module docs).
    pub fn bump_sus_retry(&mut self, id: TaskId) -> u32 {
        let i = self.at(id);
        let n = &mut self.sus_retry[i];
        *n = n.saturating_add(1);
        *n
    }

    /// Fault retries so far.
    #[must_use]
    pub fn fault_retries(&self, id: TaskId) -> u32 {
        self.fault_retries[self.at(id)]
    }

    /// Set the fault-retry count.
    pub fn set_fault_retries(&mut self, id: TaskId, retries: u32) {
        let i = self.at(id);
        self.fault_retries[i] = retries;
    }

    /// When the task last entered the suspension queue.
    #[must_use]
    pub fn suspended_at(&self, id: TaskId) -> Option<Ticks> {
        time_of(self.suspended_at[self.at(id)])
    }

    /// Record when the task entered the suspension queue.
    pub fn set_suspended_at(&mut self, id: TaskId, time: Option<Ticks>) {
        let i = self.at(id);
        self.suspended_at[i] = stored_time(time);
    }

    /// Lifecycle state, or `None` for a retired task: it finished
    /// (Completed or Discarded) before its row left the table.
    ///
    /// # Panics
    /// Panics if `id` is past the last row.
    #[must_use]
    pub fn state(&self, id: TaskId) -> Option<TaskState> {
        (id.0 >= self.first).then(|| self.state[self.at(id)])
    }

    /// Set the lifecycle state.
    pub fn set_state(&mut self, id: TaskId, state: TaskState) {
        let i = self.at(id);
        self.state[i] = state;
    }

    /// The state column, in id order from [`first`](Self::first).
    #[must_use]
    pub fn states(&self) -> &[TaskState] {
        &self.state
    }
}

/// Each palette entry's index by preference. A `Known` preference, the
/// common case, is looked up by config id in a dense vector, so a
/// created task hashes nothing; the map holds only the rest.
#[derive(Clone, Default)]
struct PaletteIndex {
    /// By config id, for ids below `DENSE_KNOWN` (`NOT_SEEN` where
    /// none); empty until the first `Known` preference.
    known: Vec<u32>,
    /// Phantom areas, and a known id past `DENSE_KNOWN`.
    // lint: allow(r1) -- the palette's index map: lookups only, never iterated
    sparse: std::collections::HashMap<PreferredConfig, u32>,
}

impl PaletteIndex {
    /// The index slot of `preferred` (`NOT_SEEN` until set): its config
    /// id's entry in the dense vector, grown to reach it, or its map
    /// entry.
    fn slot(&mut self, preferred: PreferredConfig) -> &mut u32 {
        match preferred {
            PreferredConfig::Known(c) if c.index() < DENSE_KNOWN => {
                if c.index() >= self.known.len() {
                    self.known.resize(c.index() + 1, NOT_SEEN);
                }
                &mut self.known[c.index()]
            }
            _ => self.sparse.entry(preferred).or_insert(NOT_SEEN),
        }
    }
}

/// The rows of a [`TaskTable`], assembled by value in id order
/// ([`TaskTable::iter`]).
#[derive(Clone, Debug)]
pub struct Rows<'a> {
    table: &'a TaskTable,
    ids: std::ops::Range<usize>,
}

impl Iterator for Rows<'_> {
    type Item = Task;

    fn next(&mut self) -> Option<Task> {
        let i = self.ids.next()?;
        Some(self.table.row(TaskId::from_index(i)))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.ids.size_hint()
    }
}

impl ExactSizeIterator for Rows<'_> {}

impl<'a> IntoIterator for &'a TaskTable {
    type Item = Task;
    type IntoIter = Rows<'a>;

    fn into_iter(self) -> Rows<'a> {
        self.iter()
    }
}

impl PartialEq for TaskTable {
    /// Row-wise equality: two tables are equal when they hold the same
    /// ids and every row is equal, however their palettes were laid out.
    fn eq(&self, other: &Self) -> bool {
        let preferred_eq = || {
            self.preferred
                .iter()
                .zip(&other.preferred)
                // BOUND: u32 palette indices; usize is at least 32 bits on every supported target.
                .all(|(&a, &b)| self.palette[a as usize] == other.palette[b as usize])
        };
        self.first == other.first
            && self.len() == other.len()
            && self.required_time == other.required_time
            && self.needed_area == other.needed_area
            && self.data_bytes == other.data_bytes
            && self.create_time == other.create_time
            && self.start_time == other.start_time
            && self.completion_time == other.completion_time
            && self.assigned_config == other.assigned_config
            && self.resolved_config == other.resolved_config
            && self.sus_retry == other.sus_retry
            && self.fault_retries == other.fault_retries
            && self.suspended_at == other.suspended_at
            && self.state == other.state
            && preferred_eq()
    }
}

impl std::fmt::Debug for TaskTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn task() -> Task {
        Task::new(
            TaskId(1),
            100,
            5000,
            PreferredConfig::Known(ConfigId(2)),
            800,
        )
    }

    #[test]
    fn new_task_is_created_state() {
        let t = task();
        assert_eq!(t.state, TaskState::Created);
        assert!(!t.is_terminal());
        assert_eq!(t.queueing_delay(), None);
        assert_eq!(t.sus_retry, 0);
    }

    #[test]
    fn queueing_delay_after_start() {
        let mut t = task();
        t.start_time = Some(175);
        assert_eq!(t.queueing_delay(), Some(75));
    }

    #[test]
    fn queueing_delay_saturates_rather_than_underflows() {
        // A start time before creation is a driver bug, but the metric
        // must not panic mid-simulation; it clamps to zero.
        let mut t = task();
        t.start_time = Some(50);
        assert_eq!(t.queueing_delay(), Some(0));
    }

    #[test]
    fn terminal_states() {
        let mut t = task();
        for (s, term) in [
            (TaskState::Created, false),
            (TaskState::Suspended, false),
            (TaskState::Running, false),
            (TaskState::Completed, true),
            (TaskState::Discarded, true),
        ] {
            t.state = s;
            assert_eq!(t.is_terminal(), term, "{s:?}");
        }
    }

    #[test]
    fn phantom_preference_carries_area() {
        let t = Task::new(
            TaskId(0),
            0,
            10,
            PreferredConfig::Phantom { area: 1234 },
            1234,
        );
        match t.preferred {
            PreferredConfig::Phantom { area } => assert_eq!(area, 1234),
            PreferredConfig::Known(_) => panic!("expected phantom"),
        }
        assert_eq!(t.needed_area, 1234);
    }

    #[test]
    fn builder_data_bytes() {
        let t = task().with_data_bytes(4096);
        assert_eq!(t.data_bytes, 4096);
    }

    /// The element width of a column, in bytes.
    fn width<T>(_: &[T]) -> usize {
        std::mem::size_of::<T>()
    }

    #[test]
    fn column_widths_sum_to_the_budget() {
        let t = TaskTable::new();
        let widths = [
            width(&t.required_time),
            width(&t.preferred),
            width(&t.needed_area),
            width(&t.data_bytes),
            width(&t.create_time),
            width(&t.start_time),
            width(&t.completion_time),
            width(&t.assigned_config),
            width(&t.resolved_config),
            width(&t.sus_retry),
            width(&t.fault_retries),
            width(&t.suspended_at),
            width(&t.state),
        ];
        let total: usize = widths.iter().sum();
        assert_eq!(total, TaskTable::BYTES_PER_TASK, "{widths:?}");
        assert_eq!(std::mem::size_of::<TaskState>(), 1);
        // The memory gate (`checkpoint_scale`) allows 80 bytes a task;
        // the row the columns replaced took 136.
        const { assert!(TaskTable::BYTES_PER_TASK <= 80) };
        assert!(std::mem::size_of::<Task>() > TaskTable::BYTES_PER_TASK);
    }

    #[test]
    fn table_rows_round_trip_through_the_columns() {
        let mut table = TaskTable::with_capacity(3);
        let mut done = task();
        done.id = TaskId(0);
        done.start_time = Some(120);
        done.completion_time = Some(5_120);
        done.assigned_config = Some(ConfigId(2));
        done.resolved_config = Some(ConfigId(2));
        done.sus_retry = 3;
        done.fault_retries = 1;
        done.suspended_at = Some(110);
        done.state = TaskState::Completed;
        let phantom = Task::new(TaskId(1), 7, 10, PreferredConfig::Phantom { area: 90 }, 90)
            .with_data_bytes(80);
        table.push(done.clone()).unwrap();
        table.push(phantom.clone()).unwrap();
        let created = table
            .create(9, 11, PreferredConfig::Known(ConfigId(2)), 800, 88)
            .unwrap();
        assert_eq!(created, TaskId(2));
        assert_eq!(table.len(), 3);
        assert_eq!(table.row(TaskId(0)), done);
        assert_eq!(table.row(TaskId(1)), phantom);
        let fresh = table.row(created);
        assert_eq!(fresh.state, TaskState::Created);
        assert_eq!((fresh.start_time, fresh.resolved_config), (None, None));
        // One palette entry per distinct preference, in first-seen order.
        assert_eq!(table.palette.len(), 2);
        assert_eq!(table.iter().count(), 3);
    }

    /// A table of `states.len()` rows from id 0, row `i` in `states[i]`.
    fn table_in(states: &[TaskState]) -> TaskTable {
        let mut table = TaskTable::new();
        for (i, &state) in states.iter().enumerate() {
            let mut row = task();
            row.id = TaskId::from_index(i);
            row.state = state;
            table.push(row).unwrap();
        }
        table
    }

    #[test]
    fn retiring_drops_the_finished_prefix_and_moves_first() {
        use TaskState::{Completed, Discarded, Running, Suspended};
        let mut table = table_in(&[Completed, Discarded, Running, Completed, Suspended]);
        assert_eq!(table.retire_finished(), 2);
        assert_eq!(
            (table.first(), table.len(), table.created()),
            (TaskId(2), 3, 5)
        );
        // A retired id reads as finished; the held ones keep their rows.
        assert_eq!(table.state(TaskId(1)), None);
        assert_eq!(table.state(TaskId(2)), Some(Running));
        assert_eq!(table.row(TaskId(3)).state, Completed);
        assert!(!table.holds(TaskId(1)) && table.holds(TaskId(4)) && !table.holds(TaskId(5)));
        let ids: Vec<TaskId> = table.iter().map(|t| t.id).collect();
        assert_eq!(ids, [TaskId(2), TaskId(3), TaskId(4)]);
        // Nothing finished leads the table now, so nothing retires.
        assert_eq!(table.retire_finished(), 0);
        // New rows continue the ids.
        let next = table
            .create(9, 11, PreferredConfig::Known(ConfigId(2)), 800, 0)
            .unwrap();
        assert_eq!(next, TaskId(5));
        table.set_state(TaskId(2), Completed);
        table.set_state(TaskId(4), Discarded);
        assert_eq!(table.retire_finished(), 3);
        assert_eq!((table.first(), table.len()), (TaskId(5), 1));
        // Equality compares ids, not only rows.
        let other = table_in(&[TaskState::Created]);
        assert_eq!(other.row(TaskId(0)).state, table.row(TaskId(5)).state);
        assert_ne!(table, other);
    }

    #[test]
    #[should_panic(expected = "task ids must be dense")]
    fn a_pushed_row_must_continue_past_the_retired_ids() {
        let mut table = table_in(&[TaskState::Completed]);
        table.retire_finished();
        let mut row = task();
        row.id = TaskId(0);
        let _ = table.push(row);
    }

    #[test]
    fn preferences_intern_in_first_seen_order_however_they_are_looked_up() {
        let mut table = TaskTable::new();
        let wide = PreferredConfig::Known(ConfigId(u32::MAX - 1));
        let prefs = [
            PreferredConfig::Known(ConfigId(7)),
            PreferredConfig::Phantom { area: 300 },
            wide,
            PreferredConfig::Known(ConfigId(0)),
            PreferredConfig::Known(ConfigId(7)),
            PreferredConfig::Phantom { area: 300 },
            wide,
        ];
        for (i, &p) in prefs.iter().enumerate() {
            table.create(i as u64, 1, p, 300, 0).unwrap();
        }
        assert_eq!(table.palette, prefs[..4]);
        assert_eq!(table.preferred, [0, 1, 2, 3, 0, 1, 2]);
        // A dense lookup reaches only the ids it was asked for.
        assert_eq!(table.palette_index.known.len(), 8);
    }

    #[test]
    fn values_a_column_cannot_hold_are_typed_errors() {
        let mut table = TaskTable::new();
        let mut sentinel_time = task();
        sentinel_time.id = TaskId(0);
        sentinel_time.start_time = Some(Ticks::MAX);
        let mut sentinel_config = task();
        sentinel_config.id = TaskId(0);
        sentinel_config.resolved_config = Some(ConfigId(u32::MAX));
        let mut wide_retries = task();
        wide_retries.id = TaskId(0);
        wide_retries.sus_retry = u64::from(u32::MAX) + 1;
        let wide_area = Task::new(
            TaskId(0),
            0,
            1,
            PreferredConfig::Known(ConfigId(0)),
            1 << 32,
        );
        for (row, expected) in [
            (
                sentinel_time,
                "TaskId(0): start_time equals the column's None sentinel",
            ),
            (
                sentinel_config,
                "TaskId(0): resolved_config equals the column's None sentinel",
            ),
            (
                wide_retries,
                "TaskId(0): sus_retry 4294967296 does not fit its u32 column",
            ),
            (
                wide_area,
                "TaskId(0): needed_area 4294967296 does not fit its u32 column",
            ),
        ] {
            let err = table.push(row).unwrap_err().to_string();
            assert!(err.starts_with(expected), "got {err}");
            assert!(
                table.is_empty(),
                "a rejected row leaves the table unchanged"
            );
        }
    }

    #[test]
    fn sus_retry_saturates_at_the_column_width() {
        let mut table = TaskTable::new();
        let mut row = task();
        row.id = TaskId(0);
        row.sus_retry = u64::from(u32::MAX) - 1;
        table.push(row).unwrap();
        assert_eq!(table.bump_sus_retry(TaskId(0)), u32::MAX);
        assert_eq!(table.bump_sus_retry(TaskId(0)), u32::MAX);
        assert_eq!(table.row(TaskId(0)).sus_retry, u64::from(u32::MAX));
    }

    #[test]
    fn serde_round_trip() {
        let t = task();
        let js = serde_json::to_string(&t).unwrap();
        let back: Task = serde_json::from_str(&js).unwrap();
        assert_eq!(t, back);
    }
}
