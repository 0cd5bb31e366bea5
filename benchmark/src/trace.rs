//! Outside-in tracing: an in-memory span recorder plus [`TaskSource`]
//! and [`SchedulePolicy`] wrappers that time every call into the
//! workload and scheduler layers.
//!
//! Nothing here reaches inside the simulator: the engine may not read
//! clocks (determinism lint), so every span sits around a public call
//! the benchmark itself makes or a trait method the engine calls on the
//! wrappers. Spans stay in memory until the run ends.

use dreamsim_engine::{Decision, Resume, SchedCtx, SchedulePolicy, SourceYield, TaskSource};
use dreamsim_model::{EntryRef, NodeId, TaskId, Ticks};
use dreamsim_rng::Rng;
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

/// Per-call timings of one fine-grained layer.
#[derive(Debug, Default)]
pub struct CallStats {
    /// Calls made.
    pub calls: u64,
    /// Summed wall time of the calls, ns.
    pub total_ns: u64,
    /// Every call's duration, ns (kept for the p99).
    pub samples: Vec<u32>,
}

impl CallStats {
    fn add(&mut self, ns: u64) {
        self.calls += 1;
        self.total_ns += ns;
        self.samples.push(u32::try_from(ns).unwrap_or(u32::MAX));
    }

    /// 99th-percentile call duration, ns (nearest rank); 0 with no calls.
    #[must_use]
    pub fn p99_ns(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        let mut s = self.samples.clone();
        let rank = (s.len() * 99).div_ceil(100).max(1) - 1;
        let (_, p99, _) = s.select_nth_unstable(rank);
        f64::from(*p99)
    }
}

/// One coarse span: a timed public call made by the benchmark.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer name, e.g. `engine.run`.
    pub name: &'static str,
    /// Start, ns since the recorder was created.
    pub start_ns: u64,
    /// End, ns since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

/// Everything one traced run records.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    open: Vec<usize>,
    /// Coarse spans in start order.
    pub spans: Vec<Span>,
    /// `TaskSource::next_task` calls.
    pub next_task: CallStats,
    /// `SchedulePolicy::schedule` calls.
    pub schedule: CallStats,
    /// `SchedulePolicy::on_slot_freed` calls.
    pub slot_freed: CallStats,
    /// `schedule` calls that placed the task.
    pub placed: u64,
    /// `schedule` calls that suspended the task.
    pub suspended: u64,
    /// `schedule` calls that discarded the task.
    pub discarded: u64,
    /// `on_slot_freed` calls that placed or discarded a queued task.
    pub freed_hits: u64,
    /// Suspension-queue length summed over `on_slot_freed` calls,
    /// read just before each call.
    pub queued_sum: u64,
}

/// Recorder shared between the benchmark and the wrappers it hands to
/// the simulation (which owns them by value).
pub type Shared = Rc<RefCell<Recorder>>;

impl Recorder {
    /// A fresh recorder whose clock starts now.
    #[must_use]
    pub fn shared() -> Shared {
        Rc::new(RefCell::new(Self {
            origin: Instant::now(),
            open: Vec::new(),
            spans: Vec::new(),
            next_task: CallStats::default(),
            schedule: CallStats::default(),
            slot_freed: CallStats::default(),
            placed: 0,
            suspended: 0,
            discarded: 0,
            freed_hits: 0,
            queued_sum: 0,
        }))
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Summed duration of every span called `name`, seconds.
    #[must_use]
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
            .sum()
    }

    /// Number of spans called `name`.
    #[must_use]
    pub fn count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }
}

/// Time `f` as a span called `name`, nested under whichever span is
/// open. The recorder is not borrowed while `f` runs, so `f` may drive
/// a simulation whose wrappers record into the same recorder.
pub fn span<T>(rec: &Shared, name: &'static str, f: impl FnOnce() -> T) -> T {
    let id = {
        let mut r = rec.borrow_mut();
        let start_ns = r.now_ns();
        let parent = r.open.last().copied();
        r.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
        });
        let id = r.spans.len() - 1;
        r.open.push(id);
        id
    };
    let out = f();
    let mut r = rec.borrow_mut();
    let end_ns = r.now_ns();
    r.spans[id].end_ns = end_ns;
    r.open.pop();
    out
}

fn elapsed_ns(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// A [`TaskSource`] that times every `next_task` call of the source it
/// wraps and delegates everything else unchanged.
pub struct TracedSource<S> {
    inner: S,
    rec: Shared,
}

impl<S> TracedSource<S> {
    /// Wrap `inner`, recording into `rec`.
    pub fn new(inner: S, rec: &Shared) -> Self {
        Self {
            inner,
            rec: Rc::clone(rec),
        }
    }
}

impl<S: TaskSource> TaskSource for TracedSource<S> {
    fn next_task(&mut self, now: Ticks, rng: &mut Rng) -> SourceYield {
        let t = Instant::now();
        let y = self.inner.next_task(now, rng);
        self.rec.borrow_mut().next_task.add(elapsed_ns(t));
        y
    }

    fn on_task_completed(&mut self, task: TaskId, now: Ticks) {
        self.inner.on_task_completed(task, now);
    }

    fn source_kind(&self) -> &'static str {
        self.inner.source_kind()
    }

    fn source_cursor(&self) -> u64 {
        self.inner.source_cursor()
    }

    fn restore_cursor(&mut self, cursor: u64) -> bool {
        self.inner.restore_cursor(cursor)
    }
}

/// A [`SchedulePolicy`] that times `schedule` and `on_slot_freed` of the
/// policy it wraps, counts their outcomes, and delegates everything else
/// unchanged (including the checkpoint label, so resumes still match).
pub struct TracedPolicy<P> {
    inner: P,
    rec: Shared,
}

impl<P> TracedPolicy<P> {
    /// Wrap `inner`, recording into `rec`.
    pub fn new(inner: P, rec: &Shared) -> Self {
        Self {
            inner,
            rec: Rc::clone(rec),
        }
    }
}

impl<P: SchedulePolicy> SchedulePolicy for TracedPolicy<P> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn schedule(&mut self, ctx: &mut SchedCtx<'_>, task: TaskId) -> Decision {
        let t = Instant::now();
        let d = self.inner.schedule(ctx, task);
        let ns = elapsed_ns(t);
        let mut r = self.rec.borrow_mut();
        r.schedule.add(ns);
        match d {
            Decision::Placed(_) => r.placed += 1,
            Decision::Suspended => r.suspended += 1,
            Decision::Discarded(_) => r.discarded += 1,
        }
        d
    }

    fn on_slot_freed(&mut self, ctx: &mut SchedCtx<'_>, freed: EntryRef) -> Vec<Resume> {
        let queued = ctx.suspension.len() as u64;
        let t = Instant::now();
        let out = self.inner.on_slot_freed(ctx, freed);
        let ns = elapsed_ns(t);
        let mut r = self.rec.borrow_mut();
        r.slot_freed.add(ns);
        r.queued_sum += queued;
        if !out.is_empty() {
            r.freed_hits += 1;
        }
        out
    }

    fn on_node_repaired(&mut self, ctx: &mut SchedCtx<'_>, node: NodeId) -> Vec<Resume> {
        self.inner.on_node_repaired(ctx, node)
    }

    fn state_label(&self) -> String {
        self.inner.state_label()
    }
}
