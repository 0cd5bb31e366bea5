//! Simulation parameters (Table II).
//!
//! Defaults reproduce the paper's experimental setup:
//!
//! | Parameter | Paper value |
//! |---|---|
//! | Total nodes | 100 or 200 |
//! | Total configurations | 50 |
//! | Total tasks generated | 1 000 … 100 000 |
//! | Next task generation interval | U\[1..50\] ticks |
//! | Configuration `ReqArea` range | U\[200..2000\] |
//! | Node `TotalArea` range | U\[1000..4000\] |
//! | Task `t_required` range | U\[100..100 000\] |
//! | `t_config` range | U\[10..20\] |
//! | Closest-match percentage | 15 % |
//! | Reconfiguration method | with / without partial |
//!
//! The network-delay range is implicit in the paper (the `tcomm` term of
//! Eq. 8 and the UML's `NWDLow`/`NWDHigh` members); the default here is
//! U\[1..10\] and is configurable.

use dreamsim_model::ids::{Area, MAX_AREA};
use serde::{Deserialize, Serialize};

/// Whether nodes support partial reconfiguration (the two scenarios
/// compared throughout Section VI).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ReconfigMode {
    /// One node – one configuration – one task at a time
    /// ("without partial configuration").
    Full,
    /// A node hosts as many configurations as its area allows
    /// ("with partial configuration").
    Partial,
}

impl ReconfigMode {
    /// Short label used in reports and figure legends.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            ReconfigMode::Full => "full",
            ReconfigMode::Partial => "partial",
        }
    }

    /// Parse a [`label`](Self::label).
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "full" => Some(ReconfigMode::Full),
            "partial" => Some(ReconfigMode::Partial),
            _ => None,
        }
    }
}

impl std::fmt::Display for ReconfigMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// How reconfigurable area is modeled (DESIGN.md experiment A5).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PlacementModel {
    /// The paper's model: area is a scalar budget (Eq. 4).
    #[default]
    Scalar,
    /// Realistic FPGA model: configurations must fit into a contiguous
    /// gap of fabric columns (first-fit gap selection); external
    /// fragmentation can reject placements the scalar model admits.
    Contiguous,
}

impl PlacementModel {
    /// Short label for reports.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            PlacementModel::Scalar => "scalar",
            PlacementModel::Contiguous => "contiguous",
        }
    }

    /// Parse a [`label`](Self::label).
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "scalar" => Some(PlacementModel::Scalar),
            "contiguous" => Some(PlacementModel::Contiguous),
            _ => None,
        }
    }
}

/// Task inter-arrival time distribution. The paper uses a uniform
/// interval; Poisson and exponential arrivals are provided because the
/// input subsystem advertises configurable "task arrival rate and arrival
/// distribution functions".
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum ArrivalDistribution {
    /// Uniform integer interval `[1 ..= max_interval]` (Table II).
    Uniform,
    /// Poisson-distributed interval with mean `(1 + max_interval) / 2`
    /// (matched mean to the uniform case).
    Poisson,
    /// Geometric (discretized exponential) interval with the same mean.
    Exponential,
}

impl ArrivalDistribution {
    /// Parse a CLI label: `uniform`, `poisson` or `exponential`.
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "uniform" => Some(ArrivalDistribution::Uniform),
            "poisson" => Some(ArrivalDistribution::Poisson),
            "exponential" => Some(ArrivalDistribution::Exponential),
            _ => None,
        }
    }
}

/// An inclusive integer range `[lo, hi]`, the form all Table II
/// parameters take.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Range {
    /// Inclusive lower bound.
    pub lo: u64,
    /// Inclusive upper bound.
    pub hi: u64,
}

impl Range {
    /// Construct a range; `lo` must not exceed `hi` (validated by
    /// [`SimParams::validate`]).
    #[must_use]
    pub const fn new(lo: u64, hi: u64) -> Self {
        Self { lo, hi }
    }

    /// Midpoint, used to match means across arrival distributions.
    #[must_use]
    pub fn mean(&self) -> f64 {
        (self.lo + self.hi) as f64 / 2.0
    }

    /// Whether `v` lies inside the range.
    #[must_use]
    pub fn contains(&self, v: u64) -> bool {
        (self.lo..=self.hi).contains(&v)
    }
}

/// What a domain-level outage does to the member nodes (the two
/// correlated-failure shapes the chaos layer injects).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum DomainOutageKind {
    /// Hard rack/zone failure: every member node goes down atomically
    /// and the tasks running there are killed (resubmitted within the
    /// retry budget, like per-node failures).
    #[default]
    Fail,
    /// Network partition: member nodes become unreachable for the
    /// outage window; tasks running there restart from the suspension
    /// queue once capacity returns instead of being resubmitted as
    /// fresh arrivals.
    Partition,
}

impl DomainOutageKind {
    /// Short label for reports and the CLI.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            DomainOutageKind::Fail => "fail",
            DomainOutageKind::Partition => "partition",
        }
    }

    /// Parse a CLI/scenario label.
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "fail" => Some(DomainOutageKind::Fail),
            "partition" => Some(DomainOutageKind::Partition),
            _ => None,
        }
    }
}

/// One scripted (deterministic) domain outage: domain `domain` goes
/// down at tick `at` and is restored `duration` ticks later.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScriptedOutage {
    /// Which failure domain (index into the domain list).
    pub domain: u32,
    /// Outage start, in ticks.
    pub at: u64,
    /// Outage length, in ticks (must be nonzero).
    pub duration: u64,
}

/// Correlated failure-domain parameters (racks/zones). Nodes are
/// assigned to `count` domains in contiguous blocks; a domain outage
/// takes every member node down atomically. `None` in
/// [`SimParams::domains`] (the default) disables the whole subsystem:
/// no domain RNG stream is consumed and runs stay bit-identical to the
/// domain-free simulator.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct DomainParams {
    /// Number of failure domains (nodes are split into contiguous
    /// blocks of `ceil(total_nodes / count)`).
    pub count: usize,
    /// Mean time to (correlated) failure of each domain, in ticks
    /// (exponentially distributed, per domain, on a dedicated RNG
    /// stream). `None` disables stochastic outages; scripted outages
    /// still fire.
    pub mttf: Option<u64>,
    /// Mean time to restore a downed domain, in ticks (exponentially
    /// distributed; scripted outages carry their own fixed duration).
    pub mttr: u64,
    /// What an outage does to member nodes.
    pub kind: DomainOutageKind,
    /// Deterministic, pre-scheduled outages (chaos scenario scripts).
    pub scripted: Vec<ScriptedOutage>,
}

impl Default for DomainParams {
    /// One domain, stochastic outages off, 1000-tick mean restore.
    fn default() -> Self {
        Self {
            count: 1,
            mttf: None,
            mttr: 1_000,
            kind: DomainOutageKind::Fail,
            scripted: Vec::new(),
        }
    }
}

/// Admission policy for a bounded suspension queue: what happens when
/// parking one more task would exceed [`SimParams::suspension_cap`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum AdmissionPolicy {
    /// Reject the newcomer: the task that would overflow the queue is
    /// discarded ([`DiscardReason::AdmissionBlocked`]).
    ///
    /// [`DiscardReason::AdmissionBlocked`]: crate::DiscardReason::AdmissionBlocked
    #[default]
    Block,
    /// Shed the oldest queued task to make room for the newcomer
    /// ([`DiscardReason::AdmissionShed`]).
    ///
    /// [`DiscardReason::AdmissionShed`]: crate::DiscardReason::AdmissionShed
    ShedOldest,
    /// Degrade the newcomer: place it immediately on the idle instance
    /// of the closest larger configuration, paying wasted area instead
    /// of queueing; falls back to `Block` when no such instance exists.
    DegradeClosest,
}

impl AdmissionPolicy {
    /// Short label for reports and the CLI.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            AdmissionPolicy::Block => "block",
            AdmissionPolicy::ShedOldest => "shed-oldest",
            AdmissionPolicy::DegradeClosest => "degrade-closest",
        }
    }

    /// Parse a CLI/scenario label.
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "block" => Some(AdmissionPolicy::Block),
            "shed-oldest" => Some(AdmissionPolicy::ShedOldest),
            "degrade-closest" => Some(AdmissionPolicy::DegradeClosest),
            _ => None,
        }
    }
}

/// An overload burst: inside `[start, end)` the synthetic source caps
/// the inter-arrival draw at `interval` instead of
/// [`SimParams::next_task_max_interval`], compressing arrivals to
/// stress the suspension queue. `None` (default) leaves the arrival
/// process byte-identical to the burst-free simulator.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct BurstWindow {
    /// First tick of the burst (inclusive).
    pub start: u64,
    /// End of the burst (exclusive).
    pub end: u64,
    /// Inter-arrival upper bound during the burst (must be nonzero).
    pub interval: u64,
}

/// Open-system service-mode parameters (`dreamsim serve`). Instead of
/// the paper's closed batch of `total_tasks` arrivals, the service
/// driver streams arrivals for `horizon` ticks, optionally modulating
/// the mean inter-arrival time with an integer diurnal load curve and
/// rolling sliding-window live metrics. `None` in
/// [`SimParams::service`] (the default) disables the whole subsystem
/// and keeps batch runs byte-identical to the service-free simulator.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServiceParams {
    /// Length of the service window, in ticks. Arrivals stream freely
    /// until this horizon; the service leg then drains in-flight work
    /// bookkeeping and snapshots a final checkpoint.
    pub horizon: u64,
    /// Period of the diurnal load curve, in ticks (a triangle wave:
    /// load peaks mid-period and troughs at the period boundary).
    /// Ignored when `amplitude_permille` is zero.
    pub day_length: u64,
    /// Diurnal modulation depth in permille of the base arrival rate
    /// (0 = flat Poisson; 500 = mean inter-arrival swings ±50 %).
    /// Capped at 900 so the effective rate never collapses to zero.
    pub amplitude_permille: u32,
    /// Sliding-window bucket length for live metrics, in ticks.
    /// Zero disables window accounting entirely.
    pub window: u64,
    /// How many closed window buckets to retain (older buckets are
    /// trimmed as the service runs). Must be nonzero when `window` is.
    pub window_retain: u64,
}

impl Default for ServiceParams {
    /// A 50 000-tick flat-Poisson window with live metrics off.
    fn default() -> Self {
        Self {
            horizon: 50_000,
            day_length: 0,
            amplitude_permille: 0,
            window: 0,
            window_retain: 0,
        }
    }
}

/// The largest value a tick-valued parameter may take: 2^32 ticks, about
/// 43 000 times Table II's longest task.
///
/// Every delay the engine adds to its clock is a tick parameter, a sum
/// of three of them (configuration, network and execution time), or an
/// exponential draw from one, which stays below 45 times its mean. So
/// one delay is below 2^38, and the engine's `clock + delay` sums (the
/// `// BOUND:` notes, DESIGN.md §14.4) cannot reach 2^64 until the
/// clock has absorbed more than 2^25 such delays in a row.
pub const MAX_TICKS: u64 = 1 << 32;

/// The largest suspension-retry limit ([`SimParams::max_sus_retries`]):
/// `u32::MAX − 1`. The task table counts `SusRetry` in a `u32` column
/// that saturates at `u32::MAX`, so below this ceiling a limit check
/// always sees the exact count.
pub const MAX_SUS_RETRIES: u64 = u32::MAX as u64 - 1;

/// Parameter validation error.
#[derive(Clone, Debug, PartialEq)]
pub enum ParamsError {
    /// A range has `lo > hi`.
    InvalidRange {
        /// Which parameter.
        name: &'static str,
        /// Lower bound given.
        lo: u64,
        /// Upper bound given.
        hi: u64,
    },
    /// A count parameter is zero.
    ZeroCount(&'static str),
    /// The closest-match fraction is outside `[0, 1]`.
    InvalidFraction(f64),
    /// A probability parameter is outside `[0, 1]` (or NaN).
    InvalidProbability {
        /// Which parameter.
        name: &'static str,
        /// Value given.
        value: f64,
    },
    /// No configuration could ever fit on any node
    /// (`config_area.lo > node_area.hi`).
    ConfigsNeverFit,
    /// More failure domains than nodes: at least one domain would be
    /// empty.
    DomainsExceedNodes {
        /// Configured domain count.
        domains: usize,
        /// Configured node count.
        nodes: usize,
    },
    /// A service-mode parameter combination is invalid.
    InvalidService(&'static str),
    /// A scripted outage names a domain outside the configured range.
    ScriptedOutageOutOfRange {
        /// Index into `domains.scripted`.
        index: usize,
        /// Domain id the entry names.
        domain: u32,
        /// Configured domain count.
        count: usize,
    },
    /// A tick-valued parameter exceeds [`MAX_TICKS`].
    TicksTooLarge {
        /// Which parameter.
        name: &'static str,
        /// Value given.
        value: u64,
    },
    /// An area range reaches above [`MAX_AREA`].
    AreaTooLarge {
        /// Which parameter.
        name: &'static str,
        /// Upper bound given.
        value: Area,
    },
    /// The suspension-retry limit exceeds [`MAX_SUS_RETRIES`].
    RetryLimitTooLarge(u64),
    /// No entry of [`SimParams::FLAGS`] has this name.
    UnknownFlag(String),
    /// A flag's value does not match the flag's grammar.
    FlagValue {
        /// The flag, without its `--`.
        flag: &'static str,
        /// Value given.
        value: String,
        /// The grammar ([`ParamFlag::value`]).
        expected: &'static str,
    },
    /// A failure-domain flag was set before `domains`.
    NeedsDomains(&'static str),
}

impl std::fmt::Display for ParamsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParamsError::InvalidRange { name, lo, hi } => {
                write!(f, "parameter {name}: invalid range [{lo}..{hi}]")
            }
            ParamsError::ZeroCount(name) => write!(f, "parameter {name} must be nonzero"),
            ParamsError::InvalidFraction(v) => {
                write!(f, "closest-match fraction {v} outside [0,1]")
            }
            ParamsError::InvalidProbability { name, value } => {
                write!(f, "parameter {name}: probability {value} outside [0,1]")
            }
            ParamsError::ConfigsNeverFit => {
                write!(f, "smallest configuration exceeds largest node area")
            }
            ParamsError::DomainsExceedNodes { domains, nodes } => {
                write!(
                    f,
                    "domains.count {domains} exceeds total_nodes {nodes}: \
                     at least one failure domain would be empty"
                )
            }
            ParamsError::InvalidService(msg) => write!(f, "service parameters: {msg}"),
            ParamsError::ScriptedOutageOutOfRange {
                index,
                domain,
                count,
            } => {
                write!(
                    f,
                    "domains.scripted[{index}] names domain {domain}, but only \
                     {count} domain(s) are configured"
                )
            }
            ParamsError::TicksTooLarge { name, value } => write!(
                f,
                "parameter {name}: {value} ticks exceeds the ceiling of {MAX_TICKS} ticks"
            ),
            ParamsError::RetryLimitTooLarge(value) => write!(
                f,
                "parameter max_sus_retries: {value} exceeds the ceiling of {MAX_SUS_RETRIES} \
                 retries"
            ),
            ParamsError::AreaTooLarge { name, value } => write!(
                f,
                "parameter {name}: {value} area units exceeds the ceiling of {MAX_AREA} area units"
            ),
            ParamsError::UnknownFlag(name) => write!(f, "unknown flag --{name}"),
            ParamsError::FlagValue {
                flag,
                value,
                expected,
            } => write!(f, "--{flag} expects {expected}, got {value:?}"),
            ParamsError::NeedsDomains(flag) => write!(f, "--{flag} requires --domains N"),
        }
    }
}

impl std::error::Error for ParamsError {}

/// Fault-injection parameters (robustness extension; see the
/// "Failure model" section of DESIGN.md). The default is fully
/// disabled: no failures are drawn, no retry events are scheduled, and
/// runs are bit-identical to the failure-free simulator.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct FaultParams {
    /// Mean time to failure of each node, in ticks (exponentially
    /// distributed, per node). `None` disables injected node failures.
    pub node_mttf: Option<u64>,
    /// Mean time to repair a failed node, in ticks (exponentially
    /// distributed).
    pub node_mttr: u64,
    /// Probability that one bitstream-load (reconfiguration) attempt
    /// fails and must be retried.
    pub reconfig_fail_prob: f64,
    /// Probability that a placed task fails mid-execution and must be
    /// resubmitted.
    pub task_fail_prob: f64,
    /// Retry budget per task: bounded reconfiguration retries before the
    /// scheduler degrades to the closest-match configuration, and
    /// resubmission attempts for failed or killed tasks before they are
    /// discarded.
    pub max_retries: u32,
    /// First retry delay in ticks; attempt `n` backs off to
    /// `base << (n-1)`, capped by [`retry_backoff_cap`].
    ///
    /// [`retry_backoff_cap`]: FaultParams::retry_backoff_cap
    pub retry_backoff_base: u64,
    /// Upper bound on the exponential backoff delay, in ticks.
    pub retry_backoff_cap: u64,
    /// Whether tasks killed by node or execution failures are
    /// resubmitted to the scheduler (within the retry budget) instead of
    /// being discarded outright.
    pub resubmit: bool,
    /// Maximum ticks a task may sit in the suspension queue before it is
    /// discarded with [`DiscardReason::SuspensionTimeout`]. `None`
    /// (default) means suspended tasks wait indefinitely.
    ///
    /// [`DiscardReason::SuspensionTimeout`]: crate::DiscardReason::SuspensionTimeout
    pub suspension_deadline: Option<u64>,
}

impl Default for FaultParams {
    /// Everything disabled — the paper's failure-free world.
    fn default() -> Self {
        Self {
            node_mttf: None,
            node_mttr: 1_000,
            reconfig_fail_prob: 0.0,
            task_fail_prob: 0.0,
            max_retries: 3,
            retry_backoff_base: 8,
            retry_backoff_cap: 512,
            resubmit: true,
            suspension_deadline: None,
        }
    }
}

impl FaultParams {
    /// Whether any fault-injection feature is active. When this is
    /// false the engine must not draw from the fault RNG stream or
    /// charge any steps on fault paths.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.node_mttf.is_some()
            || self.reconfig_fail_prob > 0.0
            || self.task_fail_prob > 0.0
            || self.suspension_deadline.is_some()
    }

    fn validate(&self) -> Result<(), ParamsError> {
        for (name, v) in [
            ("faults.reconfig_fail_prob", self.reconfig_fail_prob),
            ("faults.task_fail_prob", self.task_fail_prob),
        ] {
            if !(0.0..=1.0).contains(&v) || v.is_nan() {
                return Err(ParamsError::InvalidProbability { name, value: v });
            }
        }
        if self.node_mttf == Some(0) {
            return Err(ParamsError::ZeroCount("faults.node_mttf"));
        }
        if self.node_mttr == 0 {
            return Err(ParamsError::ZeroCount("faults.node_mttr"));
        }
        if self.retry_backoff_base == 0 {
            return Err(ParamsError::ZeroCount("faults.retry_backoff_base"));
        }
        if self.retry_backoff_cap == 0 {
            return Err(ParamsError::ZeroCount("faults.retry_backoff_cap"));
        }
        if self.suspension_deadline == Some(0) {
            return Err(ParamsError::ZeroCount("faults.suspension_deadline"));
        }
        Ok(())
    }
}

/// Full parameter set for one simulation run (the `DreamSim` class's
/// data members in Fig. 4).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SimParams {
    /// Number of reconfigurable nodes (`TotalNodes`).
    pub total_nodes: usize,
    /// Number of processor configurations (`TotalConfigs`).
    pub total_configs: usize,
    /// Number of tasks to generate (`TotalTasks`).
    pub total_tasks: usize,
    /// Upper bound of the inter-arrival interval
    /// (`NextTaskMaxInterval`); intervals are drawn from
    /// `[1 ..= this]` under [`ArrivalDistribution::Uniform`].
    pub next_task_max_interval: u64,
    /// Arrival distribution (Table II uses uniform).
    pub arrival: ArrivalDistribution,
    /// Configuration `ReqArea` range (`TasklowA`/`TaskHighA` pair feeding
    /// configs in the original; Table II: \[200..2000\]).
    pub config_area: Range,
    /// Node `TotalArea` range (`NodelowA`/`NodeHighA`; \[1000..4000\]).
    pub node_area: Range,
    /// Task `t_required` range (`TaskReqTimeLow/High`; \[100..100 000\]).
    pub task_time: Range,
    /// Configuration time range (`ConfigTimeLow/High`; \[10..20\]).
    pub config_time: Range,
    /// Node network delay range (`NWDLow/High`; the `tcomm` of Eq. 8).
    pub network_delay: Range,
    /// Fraction of tasks whose preferred configuration is absent from
    /// the configuration list (Table II: 15 %).
    pub closest_match_fraction: f64,
    /// Reconfiguration method (the two compared scenarios).
    pub mode: ReconfigMode,
    /// Area model: the paper's scalar budget or contiguous 1-D
    /// placement (experiment A5).
    pub placement: PlacementModel,
    /// Probability that a generated configuration requires each hardware
    /// capability of its host node (0.0 — the paper's case — means
    /// placement ignores capabilities entirely).
    pub capability_requirement_prob: f64,
    /// Whether the suspension queue is enabled (ablation A3 disables it:
    /// tasks that would suspend are discarded instead).
    pub suspension_enabled: bool,
    /// Maximum resume retries before a suspended task is discarded;
    /// `None` (paper behaviour) retries indefinitely. At most
    /// [`MAX_SUS_RETRIES`].
    pub max_sus_retries: Option<u64>,
    /// Fault-injection parameters (disabled by default).
    pub faults: FaultParams,
    /// Correlated failure domains (racks/zones). `None` (default)
    /// disables the chaos layer entirely.
    pub domains: Option<DomainParams>,
    /// Bound on the suspension-queue length; exceeding it triggers the
    /// [`admission`](Self::admission) policy. `None` (default) leaves
    /// the queue unbounded, as in the paper.
    pub suspension_cap: Option<usize>,
    /// What to do when a suspension would exceed `suspension_cap`.
    pub admission: AdmissionPolicy,
    /// Overload burst window for the synthetic arrival process. `None`
    /// (default) keeps the paper's steady arrival rate.
    pub burst: Option<BurstWindow>,
    /// Open-system service-mode parameters (`dreamsim serve`). `None`
    /// (default) keeps the paper's closed-batch driver.
    pub service: Option<ServiceParams>,
    /// Master seed for all randomness in the run.
    pub seed: u64,
}

impl Default for SimParams {
    /// Table II defaults with 200 nodes and 10 000 tasks, partial mode.
    fn default() -> Self {
        Self {
            total_nodes: 200,
            total_configs: 50,
            total_tasks: 10_000,
            next_task_max_interval: 50,
            arrival: ArrivalDistribution::Uniform,
            config_area: Range::new(200, 2000),
            node_area: Range::new(1000, 4000),
            task_time: Range::new(100, 100_000),
            config_time: Range::new(10, 20),
            network_delay: Range::new(1, 10),
            closest_match_fraction: 0.15,
            mode: ReconfigMode::Partial,
            placement: PlacementModel::Scalar,
            capability_requirement_prob: 0.0,
            suspension_enabled: true,
            max_sus_retries: None,
            faults: FaultParams::default(),
            domains: None,
            suspension_cap: None,
            admission: AdmissionPolicy::Block,
            burst: None,
            service: None,
            seed: 0x5EED,
        }
    }
}

impl SimParams {
    /// Table II defaults with the given node count, task count, and mode
    /// (the axes the paper's figures vary).
    #[must_use]
    pub fn paper(total_nodes: usize, total_tasks: usize, mode: ReconfigMode) -> Self {
        Self {
            total_nodes,
            total_tasks,
            mode,
            ..Self::default()
        }
    }

    /// Builder-style seed override.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Validate every parameter; returns the first problem found.
    pub fn validate(&self) -> Result<(), ParamsError> {
        for (name, r) in [
            ("config_area", self.config_area),
            ("node_area", self.node_area),
            ("task_time", self.task_time),
            ("config_time", self.config_time),
            ("network_delay", self.network_delay),
        ] {
            if r.lo > r.hi {
                return Err(ParamsError::InvalidRange {
                    name,
                    lo: r.lo,
                    hi: r.hi,
                });
            }
        }
        if self.total_nodes == 0 {
            return Err(ParamsError::ZeroCount("total_nodes"));
        }
        if self.total_configs == 0 {
            return Err(ParamsError::ZeroCount("total_configs"));
        }
        if self.next_task_max_interval == 0 {
            return Err(ParamsError::ZeroCount("next_task_max_interval"));
        }
        if !(0.0..=1.0).contains(&self.closest_match_fraction)
            || self.closest_match_fraction.is_nan()
        {
            return Err(ParamsError::InvalidFraction(self.closest_match_fraction));
        }
        if !(0.0..=1.0).contains(&self.capability_requirement_prob)
            || self.capability_requirement_prob.is_nan()
        {
            return Err(ParamsError::InvalidFraction(
                self.capability_requirement_prob,
            ));
        }
        if self.config_area.lo > self.node_area.hi {
            return Err(ParamsError::ConfigsNeverFit);
        }
        for (name, r) in [
            ("config_area", self.config_area),
            ("node_area", self.node_area),
        ] {
            if r.hi > MAX_AREA {
                return Err(ParamsError::AreaTooLarge { name, value: r.hi });
            }
        }
        if let Some((name, value)) = self.tick_params().find(|&(_, v)| v > MAX_TICKS) {
            return Err(ParamsError::TicksTooLarge { name, value });
        }
        if let Some(limit) = self.max_sus_retries.filter(|&l| l > MAX_SUS_RETRIES) {
            return Err(ParamsError::RetryLimitTooLarge(limit));
        }
        self.faults.validate()?;
        if let Some(d) = &self.domains {
            if d.count == 0 {
                return Err(ParamsError::ZeroCount("domains.count"));
            }
            if d.count > self.total_nodes {
                return Err(ParamsError::DomainsExceedNodes {
                    domains: d.count,
                    nodes: self.total_nodes,
                });
            }
            if d.mttf == Some(0) {
                return Err(ParamsError::ZeroCount("domains.mttf"));
            }
            if d.mttr == 0 {
                return Err(ParamsError::ZeroCount("domains.mttr"));
            }
            for (i, s) in d.scripted.iter().enumerate() {
                // BOUND: u32 domain index; usize is at least 32 bits on every supported target.
                if s.domain as usize >= d.count {
                    return Err(ParamsError::ScriptedOutageOutOfRange {
                        index: i,
                        domain: s.domain,
                        count: d.count,
                    });
                }
                if s.duration == 0 {
                    return Err(ParamsError::ZeroCount("domains.scripted.duration"));
                }
            }
        }
        if let Some(b) = &self.burst {
            if b.interval == 0 {
                return Err(ParamsError::ZeroCount("burst.interval"));
            }
            if b.start >= b.end {
                return Err(ParamsError::InvalidRange {
                    name: "burst",
                    lo: b.start,
                    hi: b.end,
                });
            }
        }
        if let Some(s) = &self.service {
            if s.horizon == 0 {
                return Err(ParamsError::ZeroCount("service.horizon"));
            }
            if s.amplitude_permille > 900 {
                return Err(ParamsError::InvalidService(
                    "amplitude_permille must be at most 900",
                ));
            }
            if s.amplitude_permille > 0 && s.day_length < 2 {
                return Err(ParamsError::InvalidService(
                    "day_length must be at least 2 when amplitude_permille is nonzero",
                ));
            }
            if s.window > 0 && s.window_retain == 0 {
                return Err(ParamsError::ZeroCount("service.window_retain"));
            }
        }
        Ok(())
    }

    /// Every tick-valued parameter that is set, by name.
    fn tick_params(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        let f = &self.faults;
        let fixed = [
            ("next_task_max_interval", Some(self.next_task_max_interval)),
            ("task_time", Some(self.task_time.hi)),
            ("config_time", Some(self.config_time.hi)),
            ("network_delay", Some(self.network_delay.hi)),
            ("faults.node_mttf", f.node_mttf),
            ("faults.node_mttr", Some(f.node_mttr)),
            ("faults.retry_backoff_base", Some(f.retry_backoff_base)),
            ("faults.retry_backoff_cap", Some(f.retry_backoff_cap)),
            ("faults.suspension_deadline", f.suspension_deadline),
            ("domains.mttf", self.domains.as_ref().and_then(|d| d.mttf)),
            ("domains.mttr", self.domains.as_ref().map(|d| d.mttr)),
            ("burst.start", self.burst.map(|b| b.start)),
            ("burst.end", self.burst.map(|b| b.end)),
            ("burst.interval", self.burst.map(|b| b.interval)),
            ("service.horizon", self.service.map(|s| s.horizon)),
            ("service.day_length", self.service.map(|s| s.day_length)),
            ("service.window", self.service.map(|s| s.window)),
        ];
        let scripted = self.domains.iter().flat_map(|d| &d.scripted).flat_map(|s| {
            [
                ("domains.scripted.at", s.at),
                ("domains.scripted.duration", s.duration),
            ]
        });
        fixed
            .into_iter()
            .filter_map(|(name, value)| value.map(|v| (name, v)))
            .chain(scripted)
    }
}

/// How a [`ParamFlag`] writes its value into the parameters: `None`,
/// leaving them as they were, when the value does not parse.
type Apply = fn(&mut SimParams, &str) -> Option<()>;

/// The one spelling of a run parameter: `--NAME VALUE` on the `dreamsim
/// run` and `serve` command lines, and the line `NAME VALUE` in a chaos
/// scenario.
#[derive(Clone, Copy, Debug)]
pub struct ParamFlag {
    /// The flag without its leading `--`.
    pub name: &'static str,
    /// The value's grammar, as errors name it; `None` for a bare flag,
    /// which takes no value.
    pub value: Option<&'static str>,
    /// Whether the flag configures failure domains, which `domains` must
    /// enable first.
    needs_domains: bool,
    apply: Apply,
}

/// A flag that takes a value of grammar `value`.
const fn valued(name: &'static str, value: &'static str, apply: Apply) -> ParamFlag {
    ParamFlag {
        name,
        value: Some(value),
        needs_domains: false,
        apply,
    }
}

/// A flag that takes no value.
const fn bare(name: &'static str, apply: Apply) -> ParamFlag {
    ParamFlag {
        name,
        value: None,
        needs_domains: false,
        apply,
    }
}

/// A failure-domain flag: `domains` must be set first.
const fn in_domains(name: &'static str, value: &'static str, apply: Apply) -> ParamFlag {
    ParamFlag {
        needs_domains: true,
        ..valued(name, value, apply)
    }
}

const COUNT: &str = "a count";
const TICKS: &str = "a tick count";
const PROBABILITY: &str = "a probability";

/// `*slot = value` when the value parsed.
fn put<T>(slot: &mut T, value: Option<T>) -> Option<()> {
    *slot = value?;
    Some(())
}

fn num<T: std::str::FromStr>(v: &str) -> Option<T> {
    v.parse().ok()
}

/// `D:AT:DUR[,D:AT:DUR...]`: scripted domain outages.
fn outages(v: &str) -> Option<Vec<ScriptedOutage>> {
    v.split(',')
        .map(|entry| {
            let mut parts = entry.trim().split(':');
            let outage = ScriptedOutage {
                domain: num(parts.next()?)?,
                at: num(parts.next()?)?,
                duration: num(parts.next()?)?,
            };
            parts.next().is_none().then_some(outage)
        })
        .collect()
}

/// `START,END,INTERVAL`: an overload burst window.
fn burst(v: &str) -> Option<BurstWindow> {
    let mut parts = v.split(',').map(|x| num(x.trim()));
    let window = BurstWindow {
        start: parts.next()??,
        end: parts.next()??,
        interval: parts.next()??,
    };
    parts.next().is_none().then_some(window)
}

impl SimParams {
    /// Every run-parameter flag, in the order a command line applies
    /// them: `domains` comes before the flags that need it, so their
    /// order on the command line does not matter.
    pub const FLAGS: &'static [ParamFlag] = &[
        valued("nodes", COUNT, |p, v| put(&mut p.total_nodes, num(v))),
        valued("tasks", COUNT, |p, v| put(&mut p.total_tasks, num(v))),
        valued("mode", "full or partial", |p, v| {
            put(&mut p.mode, ReconfigMode::parse(v))
        }),
        valued("seed", "an integer", |p, v| put(&mut p.seed, num(v))),
        valued("arrival", "uniform, poisson or exponential", |p, v| {
            put(&mut p.arrival, ArrivalDistribution::parse(v))
        }),
        valued("placement", "scalar or contiguous", |p, v| {
            put(&mut p.placement, PlacementModel::parse(v))
        }),
        bare("no-suspension", |p, _| {
            put(&mut p.suspension_enabled, Some(false))
        }),
        valued("mttf", TICKS, |p, v| {
            put(&mut p.faults.node_mttf, num(v).map(Some))
        }),
        valued("mttr", TICKS, |p, v| put(&mut p.faults.node_mttr, num(v))),
        valued("reconfig-fail-prob", PROBABILITY, |p, v| {
            put(&mut p.faults.reconfig_fail_prob, num(v))
        }),
        valued("task-fail-prob", PROBABILITY, |p, v| {
            put(&mut p.faults.task_fail_prob, num(v))
        }),
        valued("max-retries", COUNT, |p, v| {
            put(&mut p.faults.max_retries, num(v))
        }),
        valued("suspension-deadline", TICKS, |p, v| {
            put(&mut p.faults.suspension_deadline, num(v).map(Some))
        }),
        bare("no-resubmit", |p, _| {
            put(&mut p.faults.resubmit, Some(false))
        }),
        valued("domains", COUNT, |p, v| {
            let count = num(v)?;
            p.domains.get_or_insert_with(DomainParams::default).count = count;
            Some(())
        }),
        in_domains("domain-mttf", TICKS, |p, v| {
            put(&mut p.domains.as_mut()?.mttf, num(v).map(Some))
        }),
        in_domains("domain-mttr", TICKS, |p, v| {
            put(&mut p.domains.as_mut()?.mttr, num(v))
        }),
        in_domains("domain-kind", "fail or partition", |p, v| {
            put(&mut p.domains.as_mut()?.kind, DomainOutageKind::parse(v))
        }),
        in_domains("outages", "D:AT:DUR[,D:AT:DUR...]", |p, v| {
            put(&mut p.domains.as_mut()?.scripted, outages(v))
        }),
        valued("suspension-cap", COUNT, |p, v| {
            put(&mut p.suspension_cap, num(v).map(Some))
        }),
        valued(
            "admission",
            "block, shed-oldest or degrade-closest",
            |p, v| put(&mut p.admission, AdmissionPolicy::parse(v)),
        ),
        valued("burst", "START,END,INTERVAL", |p, v| {
            put(&mut p.burst, burst(v).map(Some))
        }),
    ];

    /// Set the run parameter `flag` (a [`FLAGS`](Self::FLAGS) name) from
    /// its text `value`, which is empty for a bare flag. Only the
    /// flag's grammar is checked; [`validate`](Self::validate) checks
    /// the values once every flag is set.
    ///
    /// # Errors
    /// An unknown flag, a value outside the flag's grammar, or a
    /// failure-domain flag while `domains` is unset. The parameters are
    /// left unchanged.
    pub fn set(&mut self, flag: &str, value: &str) -> Result<(), ParamsError> {
        let f = Self::FLAGS
            .iter()
            .find(|f| f.name == flag)
            .ok_or_else(|| ParamsError::UnknownFlag(flag.to_string()))?;
        if f.needs_domains && self.domains.is_none() {
            return Err(ParamsError::NeedsDomains(f.name));
        }
        let applied = match f.value {
            None if !value.is_empty() => None,
            _ => (f.apply)(self, value),
        };
        applied.ok_or_else(|| ParamsError::FlagValue {
            flag: f.name,
            value: value.to_string(),
            expected: f.value.unwrap_or("no value"),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_table_ii() {
        let p = SimParams::default();
        assert_eq!(p.total_configs, 50);
        assert_eq!(p.next_task_max_interval, 50);
        assert_eq!(p.config_area, Range::new(200, 2000));
        assert_eq!(p.node_area, Range::new(1000, 4000));
        assert_eq!(p.task_time, Range::new(100, 100_000));
        assert_eq!(p.config_time, Range::new(10, 20));
        assert!((p.closest_match_fraction - 0.15).abs() < 1e-12);
        assert!(p.suspension_enabled);
        assert_eq!(p.max_sus_retries, None);
        p.validate().unwrap();
    }

    #[test]
    fn a_retry_limit_above_the_ceiling_is_rejected() {
        let mut p = SimParams::default();
        p.max_sus_retries = Some(MAX_SUS_RETRIES);
        assert_eq!(p.validate(), Ok(()));
        p.max_sus_retries = Some(MAX_SUS_RETRIES + 1);
        let err = p.validate().unwrap_err();
        assert_eq!(err, ParamsError::RetryLimitTooLarge(MAX_SUS_RETRIES + 1));
        assert_eq!(
            err.to_string(),
            "parameter max_sus_retries: 4294967295 exceeds the ceiling of 4294967294 retries"
        );
    }

    #[test]
    fn tick_parameters_above_the_ceiling_are_rejected() {
        type Set = fn(&mut SimParams, u64);
        let over = MAX_TICKS + 1;
        let cases: [(&str, Set); 5] = [
            ("task_time", |p, v| p.task_time = Range::new(100, v)),
            ("faults.suspension_deadline", |p, v| {
                p.faults.suspension_deadline = Some(v);
            }),
            ("burst.end", |p, v| {
                p.burst = Some(BurstWindow {
                    start: 0,
                    end: v,
                    interval: 1,
                });
            }),
            ("service.horizon", |p, v| {
                p.service = Some(ServiceParams {
                    horizon: v,
                    ..ServiceParams::default()
                });
            }),
            ("domains.scripted.duration", |p, v| {
                p.domains = Some(DomainParams {
                    scripted: vec![ScriptedOutage {
                        domain: 0,
                        at: 1,
                        duration: v,
                    }],
                    ..DomainParams::default()
                });
            }),
        ];
        for (name, set) in cases {
            let mut p = SimParams::default();
            set(&mut p, MAX_TICKS);
            assert_eq!(p.validate(), Ok(()), "{name} at the ceiling");
            set(&mut p, over);
            assert_eq!(
                p.validate(),
                Err(ParamsError::TicksTooLarge { name, value: over })
            );
        }
    }

    #[test]
    fn paper_constructor_sets_axes() {
        let p = SimParams::paper(100, 50_000, ReconfigMode::Full);
        assert_eq!(p.total_nodes, 100);
        assert_eq!(p.total_tasks, 50_000);
        assert_eq!(p.mode, ReconfigMode::Full);
        p.validate().unwrap();
    }

    #[test]
    fn validation_catches_bad_ranges() {
        let mut p = SimParams::default();
        p.node_area = Range::new(4000, 1000);
        assert_eq!(
            p.validate().unwrap_err(),
            ParamsError::InvalidRange {
                name: "node_area",
                lo: 4000,
                hi: 1000
            }
        );
        type Field = fn(&mut SimParams) -> &mut Range;
        let areas: [(&str, Field); 2] = [
            ("config_area", |p| &mut p.config_area),
            ("node_area", |p| &mut p.node_area),
        ];
        for (name, area) in areas {
            let mut p = SimParams::default();
            area(&mut p).hi = MAX_AREA;
            assert_eq!(p.validate(), Ok(()), "{name} at the ceiling");
            area(&mut p).hi = MAX_AREA + 1;
            assert_eq!(
                p.validate(),
                Err(ParamsError::AreaTooLarge {
                    name,
                    value: MAX_AREA + 1
                })
            );
        }
    }

    #[test]
    fn validation_catches_zero_counts() {
        let mut p = SimParams::default();
        p.total_nodes = 0;
        assert_eq!(
            p.validate().unwrap_err(),
            ParamsError::ZeroCount("total_nodes")
        );
        let mut p = SimParams::default();
        p.total_configs = 0;
        assert_eq!(
            p.validate().unwrap_err(),
            ParamsError::ZeroCount("total_configs")
        );
        let mut p = SimParams::default();
        p.next_task_max_interval = 0;
        assert_eq!(
            p.validate().unwrap_err(),
            ParamsError::ZeroCount("next_task_max_interval")
        );
    }

    #[test]
    fn validation_catches_bad_fraction_and_misfit() {
        let mut p = SimParams::default();
        p.closest_match_fraction = 1.5;
        assert_eq!(p.validate().unwrap_err(), ParamsError::InvalidFraction(1.5));
        let mut p = SimParams::default();
        p.closest_match_fraction = f64::NAN;
        assert!(matches!(
            p.validate().unwrap_err(),
            ParamsError::InvalidFraction(_)
        ));
        let mut p = SimParams::default();
        p.config_area = Range::new(5000, 6000);
        assert_eq!(p.validate().unwrap_err(), ParamsError::ConfigsNeverFit);
    }

    #[test]
    fn range_helpers() {
        let r = Range::new(1, 50);
        assert_eq!(r.mean(), 25.5);
        assert!(r.contains(1) && r.contains(50) && !r.contains(51) && !r.contains(0));
    }

    #[test]
    fn mode_labels() {
        assert_eq!(ReconfigMode::Full.label(), "full");
        assert_eq!(ReconfigMode::Partial.to_string(), "partial");
    }

    #[test]
    fn serde_round_trip() {
        let p = SimParams::default();
        let js = serde_json::to_string(&p).unwrap();
        let back: SimParams = serde_json::from_str(&js).unwrap();
        assert_eq!(p, back);
    }

    #[test]
    fn fault_defaults_are_disabled() {
        let f = FaultParams::default();
        assert!(!f.enabled());
        assert!(f.node_mttf.is_none());
        assert_eq!(f.reconfig_fail_prob, 0.0);
        assert_eq!(f.task_fail_prob, 0.0);
        assert!(f.suspension_deadline.is_none());
        SimParams::default().validate().unwrap();
    }

    #[test]
    fn fault_enabled_detects_each_feature() {
        let mut f = FaultParams::default();
        f.node_mttf = Some(500);
        assert!(f.enabled());
        let mut f = FaultParams::default();
        f.reconfig_fail_prob = 0.1;
        assert!(f.enabled());
        let mut f = FaultParams::default();
        f.task_fail_prob = 0.1;
        assert!(f.enabled());
        let mut f = FaultParams::default();
        f.suspension_deadline = Some(100);
        assert!(f.enabled());
    }

    #[test]
    fn validation_catches_bad_fault_probabilities() {
        let mut p = SimParams::default();
        p.faults.reconfig_fail_prob = 1.5;
        assert_eq!(
            p.validate().unwrap_err(),
            ParamsError::InvalidProbability {
                name: "faults.reconfig_fail_prob",
                value: 1.5
            }
        );
        let mut p = SimParams::default();
        p.faults.task_fail_prob = f64::NAN;
        assert!(matches!(
            p.validate().unwrap_err(),
            ParamsError::InvalidProbability {
                name: "faults.task_fail_prob",
                ..
            }
        ));
    }

    #[test]
    fn validation_catches_zero_fault_parameters() {
        for (set, name) in [
            (
                (|p: &mut SimParams| p.faults.node_mttf = Some(0)) as fn(&mut SimParams),
                "faults.node_mttf",
            ),
            (|p| p.faults.node_mttr = 0, "faults.node_mttr"),
            (
                |p| p.faults.retry_backoff_base = 0,
                "faults.retry_backoff_base",
            ),
            (
                |p| p.faults.retry_backoff_cap = 0,
                "faults.retry_backoff_cap",
            ),
            (
                |p| p.faults.suspension_deadline = Some(0),
                "faults.suspension_deadline",
            ),
        ] {
            let mut p = SimParams::default();
            set(&mut p);
            assert_eq!(p.validate().unwrap_err(), ParamsError::ZeroCount(name));
        }
    }

    #[test]
    fn chaos_defaults_are_disabled() {
        let p = SimParams::default();
        assert!(p.domains.is_none());
        assert!(p.suspension_cap.is_none());
        assert_eq!(p.admission, AdmissionPolicy::Block);
        assert!(p.burst.is_none());
        p.validate().unwrap();
    }

    #[test]
    fn validation_catches_bad_domain_parameters() {
        let with_domains = |f: fn(&mut DomainParams)| {
            let mut p = SimParams::default();
            let mut d = DomainParams {
                count: 4,
                ..DomainParams::default()
            };
            f(&mut d);
            p.domains = Some(d);
            p.validate()
        };
        assert_eq!(
            with_domains(|d| d.count = 0).unwrap_err(),
            ParamsError::ZeroCount("domains.count")
        );
        assert_eq!(
            with_domains(|d| d.count = 500).unwrap_err(),
            ParamsError::DomainsExceedNodes {
                domains: 500,
                nodes: 200
            }
        );
        assert_eq!(
            with_domains(|d| d.mttf = Some(0)).unwrap_err(),
            ParamsError::ZeroCount("domains.mttf")
        );
        assert_eq!(
            with_domains(|d| d.mttr = 0).unwrap_err(),
            ParamsError::ZeroCount("domains.mttr")
        );
        assert_eq!(
            with_domains(|d| d.scripted.push(ScriptedOutage {
                domain: 4,
                at: 100,
                duration: 10
            }))
            .unwrap_err(),
            ParamsError::ScriptedOutageOutOfRange {
                index: 0,
                domain: 4,
                count: 4
            }
        );
        assert_eq!(
            with_domains(|d| d.scripted.push(ScriptedOutage {
                domain: 0,
                at: 100,
                duration: 0
            }))
            .unwrap_err(),
            ParamsError::ZeroCount("domains.scripted.duration")
        );
        with_domains(|_| {}).unwrap();
    }

    #[test]
    fn validation_catches_bad_burst_window() {
        let mut p = SimParams::default();
        p.burst = Some(BurstWindow {
            start: 100,
            end: 500,
            interval: 0,
        });
        assert_eq!(
            p.validate().unwrap_err(),
            ParamsError::ZeroCount("burst.interval")
        );
        p.burst = Some(BurstWindow {
            start: 500,
            end: 500,
            interval: 2,
        });
        assert_eq!(
            p.validate().unwrap_err(),
            ParamsError::InvalidRange {
                name: "burst",
                lo: 500,
                hi: 500
            }
        );
        p.burst = Some(BurstWindow {
            start: 100,
            end: 500,
            interval: 2,
        });
        p.validate().unwrap();
    }

    #[test]
    fn validation_catches_bad_service_parameters() {
        let with_service = |f: fn(&mut ServiceParams)| {
            let mut p = SimParams::default();
            let mut s = ServiceParams::default();
            f(&mut s);
            p.service = Some(s);
            p.validate()
        };
        assert_eq!(
            with_service(|s| s.horizon = 0).unwrap_err(),
            ParamsError::ZeroCount("service.horizon")
        );
        assert!(matches!(
            with_service(|s| s.amplitude_permille = 901).unwrap_err(),
            ParamsError::InvalidService(_)
        ));
        assert!(matches!(
            with_service(|s| {
                s.amplitude_permille = 300;
                s.day_length = 1;
            })
            .unwrap_err(),
            ParamsError::InvalidService(_)
        ));
        assert_eq!(
            with_service(|s| s.window = 500).unwrap_err(),
            ParamsError::ZeroCount("service.window_retain")
        );
        with_service(|s| {
            s.amplitude_permille = 300;
            s.day_length = 2_000;
            s.window = 500;
            s.window_retain = 8;
        })
        .unwrap();
    }

    #[test]
    fn service_params_serde_round_trip() {
        let mut p = SimParams::default();
        p.service = Some(ServiceParams {
            horizon: 20_000,
            day_length: 4_000,
            amplitude_permille: 400,
            window: 1_000,
            window_retain: 6,
        });
        let js = serde_json::to_string(&p).unwrap();
        let back: SimParams = serde_json::from_str(&js).unwrap();
        assert_eq!(p, back);
    }

    #[test]
    fn admission_and_kind_labels_round_trip() {
        for a in [
            AdmissionPolicy::Block,
            AdmissionPolicy::ShedOldest,
            AdmissionPolicy::DegradeClosest,
        ] {
            assert_eq!(AdmissionPolicy::parse(a.label()), Some(a));
        }
        assert_eq!(AdmissionPolicy::parse("nope"), None);
        for k in [DomainOutageKind::Fail, DomainOutageKind::Partition] {
            assert_eq!(DomainOutageKind::parse(k.label()), Some(k));
        }
        assert_eq!(DomainOutageKind::parse("nope"), None);
    }

    #[test]
    fn chaos_params_serde_round_trip() {
        let mut p = SimParams::default();
        p.domains = Some(DomainParams {
            count: 4,
            mttf: Some(5_000),
            mttr: 500,
            kind: DomainOutageKind::Partition,
            scripted: vec![ScriptedOutage {
                domain: 1,
                at: 2_000,
                duration: 300,
            }],
        });
        p.suspension_cap = Some(16);
        p.admission = AdmissionPolicy::ShedOldest;
        p.burst = Some(BurstWindow {
            start: 1_000,
            end: 3_000,
            interval: 2,
        });
        let js = serde_json::to_string(&p).unwrap();
        let back: SimParams = serde_json::from_str(&js).unwrap();
        assert_eq!(p, back);
    }

    #[test]
    fn set_reads_list_values_and_rejects_what_their_grammar_does_not_take() {
        let mut p = SimParams::default();
        p.set("domains", "3").unwrap();
        p.set("outages", "0:500:800, 2:1500:600").unwrap();
        p.set("burst", "0, 4000,2").unwrap();
        p.set("no-resubmit", "").unwrap();
        let d = p.domains.as_ref().unwrap();
        assert_eq!(d.count, 3);
        assert_eq!(
            d.scripted,
            [(0, 500, 800), (2, 1500, 600)].map(|(domain, at, duration)| ScriptedOutage {
                domain,
                at,
                duration
            })
        );
        let window = BurstWindow {
            start: 0,
            end: 4000,
            interval: 2,
        };
        assert_eq!(p.burst, Some(window));
        assert!(!p.faults.resubmit);
        let before = p.clone();
        for (flag, value) in [
            ("outages", "0:500"),
            ("outages", "0:500:800:1"),
            ("burst", "0 4000 2"),
            ("burst", "0,4000,2,"),
            ("admission", "degrade-to-closest-match"),
            ("domains", "-1"),
            ("no-suspension", "yes"),
            ("nodes", ""),
        ] {
            let expected = SimParams::FLAGS
                .iter()
                .find(|f| f.name == flag)
                .and_then(|f| f.value)
                .unwrap_or("no value");
            assert_eq!(
                p.set(flag, value),
                Err(ParamsError::FlagValue {
                    flag,
                    value: value.to_string(),
                    expected
                })
            );
            assert_eq!(
                p, before,
                "a rejected --{flag} {value} leaves the parameters"
            );
        }
        assert_eq!(
            p.set("node-mttf", "2000").unwrap_err().to_string(),
            "unknown flag --node-mttf"
        );
        let err = SimParams::default().set("domain-kind", "partition");
        assert_eq!(err, Err(ParamsError::NeedsDomains("domain-kind")));
        assert_eq!(
            err.unwrap_err().to_string(),
            "--domain-kind requires --domains N"
        );
    }

    #[test]
    fn fault_params_serde_round_trip() {
        let mut p = SimParams::default();
        p.faults.task_fail_prob = 0.25;
        let js = serde_json::to_string(&p).unwrap();
        let back: SimParams = serde_json::from_str(&js).unwrap();
        assert_eq!(p, back);
    }
}
