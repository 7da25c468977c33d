//! A deterministic, virtual-time, priority-preemptive scheduler.
//!
//! [`Simulator`] models a single CPU dispatching fixed-priority tasks with
//! RTSJ release semantics:
//!
//! * **periodic** tasks release on their own timeline;
//! * **sporadic** tasks release on [`Simulator::fire`] or when an upstream
//!   task completes (see [`Simulator::link`]), with minimum-interarrival
//!   enforcement;
//! * **aperiodic** tasks release on demand with no deadline monitoring.
//!
//! A [`GcConfig`] adds stop-the-world windows during which only
//! `NoHeapRealtimeThread` tasks may run. Completions propagate *transaction
//! tokens* along links so end-to-end pipeline latencies fall out of the
//! simulation directly — this is how the paper's production-line scenario is
//! modelled in virtual time.
//!
//! ```
//! use rtsj::sched::Simulator;
//! use rtsj::thread::{Priority, ReleaseParameters, RtThread, ThreadKind};
//! use rtsj::time::{AbsoluteTime, RelativeTime};
//!
//! let mut sim = Simulator::new();
//! let t = sim.add_task(RtThread::new(
//!     "sensor",
//!     ThreadKind::NoHeapRealtime,
//!     Priority::new(30),
//!     ReleaseParameters::periodic(RelativeTime::from_millis(10), RelativeTime::from_micros(40)),
//! ));
//! sim.run_until(AbsoluteTime::from_millis(100));
//! assert_eq!(sim.stats(t).unwrap().completions, 10);
//! ```

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use crate::error::RtsjError;
use crate::gc::GcConfig;
use crate::thread::{ReleaseParameters, RtThread};
use crate::time::{AbsoluteTime, RelativeTime};
use crate::trace::{ExecutionTrace, TaskId, TraceEvent};
use crate::Result;

/// Summary statistics over a set of latency samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SampleSummary {
    /// Number of samples.
    pub count: usize,
    /// Median sample.
    pub median: RelativeTime,
    /// Arithmetic mean.
    pub mean: RelativeTime,
    /// Mean absolute deviation from the median — the paper's "jitter".
    pub jitter: RelativeTime,
    /// Smallest sample.
    pub min: RelativeTime,
    /// Largest sample ("worst case").
    pub max: RelativeTime,
}

impl SampleSummary {
    /// Computes a summary; returns `None` for an empty slice.
    pub fn compute(samples: &[RelativeTime]) -> Option<SampleSummary> {
        if samples.is_empty() {
            return None;
        }
        let mut sorted: Vec<u64> = samples.iter().map(|s| s.as_nanos()).collect();
        sorted.sort_unstable();
        let median = sorted[sorted.len() / 2];
        let sum: u128 = sorted.iter().map(|&v| v as u128).sum();
        let mean = (sum / sorted.len() as u128) as u64;
        let dev_sum: u128 = sorted
            .iter()
            .map(|&v| (v as i128 - median as i128).unsigned_abs())
            .sum();
        let jitter = (dev_sum / sorted.len() as u128) as u64;
        Some(SampleSummary {
            count: sorted.len(),
            median: RelativeTime::from_nanos(median),
            mean: RelativeTime::from_nanos(mean),
            jitter: RelativeTime::from_nanos(jitter),
            min: RelativeTime::from_nanos(sorted[0]),
            max: RelativeTime::from_nanos(*sorted.last().expect("non-empty")),
        })
    }
}

/// Per-task accounting collected during simulation.
#[derive(Debug, Clone, Default)]
pub struct TaskStats {
    /// Jobs released.
    pub releases: u64,
    /// Jobs completed.
    pub completions: u64,
    /// Jobs that finished after their deadline.
    pub deadline_misses: u64,
    /// Response time (completion − release) of every completed job.
    pub response_times: Vec<RelativeTime>,
}

impl TaskStats {
    /// Summary of the response times, if any job completed.
    pub fn response_summary(&self) -> Option<SampleSummary> {
        SampleSummary::compute(&self.response_times)
    }
}

#[derive(Debug, Clone, Copy)]
struct Job {
    release: AbsoluteTime,
    remaining: RelativeTime,
    /// Release instant of the transaction head that (transitively) caused
    /// this job; used for end-to-end pipeline latency.
    txn_start: AbsoluteTime,
}

#[derive(Debug)]
struct Task {
    spec: RtThread,
    pending: VecDeque<Job>,
    current: Option<Job>,
    last_release: Option<AbsoluteTime>,
    links: Vec<TaskId>,
    stats: TaskStats,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EventKind {
    PeriodicRelease(TaskId),
    Arrival(TaskId, AbsoluteTime /* txn start */),
    GcStart,
    GcEnd,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Event {
    time: AbsoluteTime,
    seq: u64,
    kind: EventKind,
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// The virtual-time scheduler. See the [module docs](self) for an overview.
#[derive(Debug)]
pub struct Simulator {
    tasks: Vec<Task>,
    events: BinaryHeap<Reverse<Event>>,
    seq: u64,
    now: AbsoluteTime,
    gc: GcConfig,
    gc_active: bool,
    running: Option<TaskId>,
    trace: ExecutionTrace,
    transactions: Vec<RelativeTime>,
}

impl Simulator {
    /// Creates an empty simulator at time zero with GC disabled.
    pub fn new() -> Self {
        Simulator {
            tasks: Vec::new(),
            events: BinaryHeap::new(),
            seq: 0,
            now: AbsoluteTime::ZERO,
            gc: GcConfig::disabled(),
            gc_active: false,
            running: None,
            trace: ExecutionTrace::new(),
            transactions: Vec::new(),
        }
    }

    /// Registers a task; periodic tasks are armed immediately.
    pub fn add_task(&mut self, spec: RtThread) -> TaskId {
        let id = TaskId::from_raw(self.tasks.len() as u32);
        if let ReleaseParameters::Periodic { start, .. } = spec.release {
            let t = AbsoluteTime::ZERO + start;
            self.push_event(t, EventKind::PeriodicRelease(id));
        }
        self.tasks.push(Task {
            spec,
            pending: VecDeque::new(),
            current: None,
            last_release: None,
            links: Vec::new(),
            stats: TaskStats::default(),
        });
        id
    }

    /// Declares that each completion of `from` releases a job of `to`
    /// (asynchronous message passing along a pipeline).
    ///
    /// # Errors
    ///
    /// [`RtsjError::UnknownTask`] if either id is unknown.
    pub fn link(&mut self, from: TaskId, to: TaskId) -> Result<()> {
        if to.as_raw() as usize >= self.tasks.len() {
            return Err(RtsjError::UnknownTask(to.as_raw()));
        }
        let f = self.task_mut(from)?;
        f.links.push(to);
        Ok(())
    }

    /// Configures the stop-the-world collector.
    pub fn set_gc(&mut self, gc: GcConfig) {
        self.gc = gc;
        if gc.enabled() {
            let t = AbsoluteTime::ZERO + gc.start;
            self.push_event(t, EventKind::GcStart);
        }
    }

    /// Releases a sporadic/aperiodic task at `time` (external event).
    ///
    /// Sporadic minimum-interarrival is enforced by deferring the release.
    ///
    /// # Errors
    ///
    /// * [`RtsjError::UnknownTask`] for an unknown id.
    /// * [`RtsjError::IllegalState`] when firing a periodic task or firing
    ///   in the past.
    pub fn fire(&mut self, task: TaskId, time: AbsoluteTime) -> Result<()> {
        if time < self.now {
            return Err(RtsjError::IllegalState(format!(
                "fire at {time} is before current time {}",
                self.now
            )));
        }
        let t = self.task(task)?;
        if t.spec.release.is_periodic() {
            return Err(RtsjError::IllegalState(format!(
                "task '{}' is periodic; it cannot be fired",
                t.spec.name
            )));
        }
        self.push_event(time, EventKind::Arrival(task, time));
        Ok(())
    }

    /// Current virtual time.
    pub fn now(&self) -> AbsoluteTime {
        self.now
    }

    /// The execution trace recorded so far.
    pub fn trace(&self) -> &ExecutionTrace {
        &self.trace
    }

    /// End-to-end latencies of completed transactions (pipelines whose tail
    /// has no outgoing links).
    pub fn transactions(&self) -> &[RelativeTime] {
        &self.transactions
    }

    /// Statistics for `task`.
    ///
    /// # Errors
    ///
    /// [`RtsjError::UnknownTask`] for an unknown id.
    pub fn stats(&self, task: TaskId) -> Result<&TaskStats> {
        Ok(&self.task(task)?.stats)
    }

    /// The descriptor `task` was registered with.
    ///
    /// # Errors
    ///
    /// [`RtsjError::UnknownTask`] for an unknown id.
    pub fn spec(&self, task: TaskId) -> Result<&RtThread> {
        Ok(&self.task(task)?.spec)
    }

    fn task(&self, id: TaskId) -> Result<&Task> {
        self.tasks
            .get(id.as_raw() as usize)
            .ok_or(RtsjError::UnknownTask(id.as_raw()))
    }

    fn task_mut(&mut self, id: TaskId) -> Result<&mut Task> {
        self.tasks
            .get_mut(id.as_raw() as usize)
            .ok_or(RtsjError::UnknownTask(id.as_raw()))
    }

    fn push_event(&mut self, time: AbsoluteTime, kind: EventKind) {
        self.seq += 1;
        self.events.push(Reverse(Event {
            time,
            seq: self.seq,
            kind,
        }));
    }

    /// Advances virtual time to `until`, dispatching everything due.
    pub fn run_until(&mut self, until: AbsoluteTime) {
        while self.now < until {
            // 1. Apply every event due now.
            while let Some(Reverse(ev)) = self.events.peek().copied() {
                if ev.time > self.now {
                    break;
                }
                self.events.pop();
                self.apply_event(ev);
            }

            // 2. Pick the highest-priority runnable job.
            let next_event_time = self
                .events
                .peek()
                .map(|Reverse(e)| e.time)
                .unwrap_or(until)
                .min(until);
            let chosen = self.pick_runnable();

            match chosen {
                None => {
                    // Idle until the next event.
                    if self.running.is_some() {
                        // The previously running task became non-runnable
                        // (GC window); record the preemption.
                        let prev = self.running.take().expect("checked is_some");
                        self.trace.push(self.now, TraceEvent::Preempt(prev));
                    }
                    if next_event_time <= self.now {
                        // No runnable work and no future events: done.
                        if self.events.is_empty() {
                            self.now = until;
                        }
                        continue;
                    }
                    self.now = next_event_time;
                }
                Some(id) => {
                    if self.running != Some(id) {
                        if let Some(prev) = self.running.take() {
                            self.trace.push(self.now, TraceEvent::Preempt(prev));
                        }
                        self.trace.push(self.now, TraceEvent::Dispatch(id));
                        self.running = Some(id);
                    }
                    // 3. Run until the job ends or the next event intervenes.
                    let task = self.task(id).expect("picked task exists");
                    let remaining = task.current.expect("runnable implies current").remaining;
                    let slice = if next_event_time > self.now {
                        remaining.min(next_event_time - self.now)
                    } else {
                        remaining
                    };
                    self.now += slice;
                    let task = self.task_mut(id).expect("picked task exists");
                    let job = task.current.as_mut().expect("runnable implies current");
                    job.remaining -= slice;
                    if job.remaining.is_zero() {
                        self.complete(id);
                    }
                }
            }
        }
    }

    /// Runs until the event queue drains or `limit` is reached; returns the
    /// final virtual time. Useful for letting pipelines flush.
    pub fn run_to_quiescence(&mut self, limit: AbsoluteTime) -> AbsoluteTime {
        while self.now < limit && (!self.events.is_empty() || self.any_work_pending()) {
            let step = self
                .events
                .peek()
                .map(|Reverse(e)| e.time)
                .unwrap_or(limit)
                .max(self.now + RelativeTime::from_nanos(1))
                .min(limit);
            self.run_until(step);
        }
        self.now
    }

    fn any_work_pending(&self) -> bool {
        self.tasks
            .iter()
            .any(|t| t.current.is_some() || !t.pending.is_empty())
    }

    fn apply_event(&mut self, ev: Event) {
        match ev.kind {
            EventKind::PeriodicRelease(id) => {
                let now = self.now;
                let task = self.task_mut(id).expect("event for known task");
                let (period, cost) = match task.spec.release {
                    ReleaseParameters::Periodic { period, cost, .. } => (period, cost),
                    _ => unreachable!("periodic event on non-periodic task"),
                };
                task.stats.releases += 1;
                task.last_release = Some(now);
                let job = Job {
                    release: now,
                    remaining: cost,
                    txn_start: now,
                };
                if task.current.is_none() {
                    task.current = Some(job);
                } else {
                    task.pending.push_back(job);
                }
                self.trace.push(now, TraceEvent::Release(id));
                self.push_event(now + period, EventKind::PeriodicRelease(id));
            }
            EventKind::Arrival(id, txn_start) => {
                let now = self.now;
                let task = self.task_mut(id).expect("event for known task");
                // Sporadic MIT enforcement: defer the release if needed.
                if let ReleaseParameters::Sporadic {
                    min_interarrival, ..
                } = task.spec.release
                {
                    if let Some(last) = task.last_release {
                        let earliest = last + min_interarrival;
                        if now < earliest {
                            self.push_event(earliest, EventKind::Arrival(id, txn_start));
                            return;
                        }
                    }
                }
                let cost = task.spec.release.cost();
                task.stats.releases += 1;
                task.last_release = Some(now);
                let job = Job {
                    release: now,
                    remaining: cost,
                    txn_start,
                };
                if task.current.is_none() {
                    task.current = Some(job);
                } else {
                    task.pending.push_back(job);
                }
                self.trace.push(now, TraceEvent::Release(id));
            }
            EventKind::GcStart => {
                self.gc_active = true;
                self.trace.push(self.now, TraceEvent::GcStart);
                self.push_event(self.now + self.gc.pause, EventKind::GcEnd);
            }
            EventKind::GcEnd => {
                self.gc_active = false;
                self.trace.push(self.now, TraceEvent::GcEnd);
                self.push_event(
                    self.now + (self.gc.period - self.gc.pause),
                    EventKind::GcStart,
                );
            }
        }
    }

    fn pick_runnable(&self) -> Option<TaskId> {
        self.tasks
            .iter()
            .enumerate()
            .filter(|(_, t)| t.current.is_some())
            .filter(|(_, t)| !self.gc_active || !t.spec.kind.preemptible_by_gc())
            .max_by_key(|(i, t)| {
                (
                    t.spec.priority,
                    Reverse(t.current.expect("filtered on is_some").release),
                    Reverse(*i),
                )
            })
            .map(|(i, _)| TaskId::from_raw(i as u32))
    }

    fn complete(&mut self, id: TaskId) {
        let now = self.now;
        let task = self.task_mut(id).expect("completing known task");
        let job = task.current.take().expect("completing a running job");
        task.stats.completions += 1;
        let response = now.since(job.release);
        task.stats.response_times.push(response);
        let missed = task
            .spec
            .release
            .deadline()
            .map(|d| response > d)
            .unwrap_or(false);
        if missed {
            task.stats.deadline_misses += 1;
        }
        if let Some(next) = task.pending.pop_front() {
            task.current = Some(next);
        }
        let links = task.links.clone();
        self.trace.push(now, TraceEvent::Complete(id));
        if missed {
            self.trace.push(now, TraceEvent::DeadlineMiss(id));
        }
        self.running = None;
        if links.is_empty() {
            // Pipeline tail: record the end-to-end transaction latency.
            self.transactions.push(now.since(job.txn_start));
        } else {
            for target in links {
                self.push_event(now, EventKind::Arrival(target, job.txn_start));
            }
        }
    }
}

impl Default for Simulator {
    fn default() -> Self {
        Simulator::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::thread::{Priority, ThreadKind};

    fn periodic(name: &str, prio: u8, period_us: u64, cost_us: u64) -> RtThread {
        RtThread::new(
            name,
            ThreadKind::Realtime,
            Priority::new(prio),
            ReleaseParameters::periodic(
                RelativeTime::from_micros(period_us),
                RelativeTime::from_micros(cost_us),
            ),
        )
    }

    #[test]
    fn periodic_task_completes_on_schedule() {
        let mut sim = Simulator::new();
        let t = sim.add_task(periodic("p", 30, 1_000, 100));
        sim.run_until(AbsoluteTime::from_millis(10));
        let st = sim.stats(t).unwrap();
        assert_eq!(st.releases, 10);
        assert_eq!(st.completions, 10);
        assert_eq!(st.deadline_misses, 0);
        // Uncontended: every response equals the cost.
        assert!(st
            .response_times
            .iter()
            .all(|&r| r == RelativeTime::from_micros(100)));
    }

    #[test]
    fn higher_priority_preempts_lower() {
        let mut sim = Simulator::new();
        let low = sim.add_task(periodic("low", 20, 10_000, 4_000));
        let high = sim.add_task(periodic("high", 40, 2_000, 500));
        sim.run_until(AbsoluteTime::from_millis(40));
        let hs = sim.stats(high).unwrap();
        // High always runs immediately: response == cost.
        assert!(hs
            .response_times
            .iter()
            .all(|&r| r == RelativeTime::from_micros(500)));
        let ls = sim.stats(low).unwrap();
        // Low gets preempted: some responses exceed its cost.
        assert!(ls
            .response_times
            .iter()
            .any(|&r| r > RelativeTime::from_micros(4_000)));
        assert_eq!(ls.deadline_misses, 0, "still schedulable");
    }

    #[test]
    fn sporadic_fire_and_mit_deferral() {
        let mut sim = Simulator::new();
        let s = sim.add_task(RtThread::new(
            "sp",
            ThreadKind::Realtime,
            Priority::new(30),
            ReleaseParameters::sporadic(
                RelativeTime::from_millis(5),
                RelativeTime::from_micros(100),
            ),
        ));
        sim.fire(s, AbsoluteTime::from_millis(1)).unwrap();
        sim.fire(s, AbsoluteTime::from_millis(2)).unwrap(); // 1ms later < 5ms MIT
        sim.run_until(AbsoluteTime::from_millis(20));
        let st = sim.stats(s).unwrap();
        assert_eq!(st.completions, 2);
        // Second release deferred to t=6ms (1ms + MIT).
        let releases: Vec<_> = sim
            .trace()
            .filter(|r| matches!(r.event, TraceEvent::Release(id) if id == s))
            .map(|r| r.time)
            .collect();
        assert_eq!(releases[1], AbsoluteTime::from_millis(6));
    }

    #[test]
    fn firing_periodic_task_is_an_error() {
        let mut sim = Simulator::new();
        let t = sim.add_task(periodic("p", 30, 1_000, 100));
        assert!(matches!(
            sim.fire(t, AbsoluteTime::from_millis(1)),
            Err(RtsjError::IllegalState(_))
        ));
    }

    #[test]
    fn deadline_misses_detected() {
        let mut sim = Simulator::new();
        // Cost exceeds period: guaranteed misses.
        let t = sim.add_task(periodic("over", 30, 1_000, 1_500));
        sim.run_until(AbsoluteTime::from_millis(10));
        let st = sim.stats(t).unwrap();
        assert!(st.deadline_misses > 0);
        assert!(sim.trace().count(TraceEvent::DeadlineMiss(t)) > 0);
    }

    #[test]
    fn pipeline_links_propagate_transactions() {
        let mut sim = Simulator::new();
        let head = sim.add_task(periodic("head", 35, 10_000, 50));
        let mid = sim.add_task(RtThread::new(
            "mid",
            ThreadKind::Realtime,
            Priority::new(30),
            ReleaseParameters::sporadic(
                RelativeTime::from_micros(100),
                RelativeTime::from_micros(30),
            ),
        ));
        let tail = sim.add_task(RtThread::new(
            "tail",
            ThreadKind::Regular,
            Priority::new(5),
            ReleaseParameters::aperiodic(RelativeTime::from_micros(20)),
        ));
        sim.link(head, mid).unwrap();
        sim.link(mid, tail).unwrap();
        sim.run_until(AbsoluteTime::from_millis(100));
        assert_eq!(sim.stats(head).unwrap().completions, 10);
        assert_eq!(sim.stats(tail).unwrap().completions, 10);
        assert_eq!(sim.transactions().len(), 10);
        // End-to-end = 50 + 30 + 20 us when uncontended.
        assert!(sim
            .transactions()
            .iter()
            .all(|&t| t == RelativeTime::from_micros(100)));
    }

    #[test]
    fn gc_pauses_heap_tasks_but_not_nhrt() {
        let mut sim = Simulator::new();
        let nhrt = sim.add_task(RtThread::new(
            "nhrt",
            ThreadKind::NoHeapRealtime,
            Priority::new(35),
            ReleaseParameters::periodic(
                RelativeTime::from_millis(1),
                RelativeTime::from_micros(800),
            ),
        ));
        let reg = sim.add_task(RtThread::new(
            "reg",
            ThreadKind::Regular,
            Priority::new(5),
            ReleaseParameters::periodic(
                RelativeTime::from_millis(10),
                RelativeTime::from_micros(500),
            ),
        ));
        sim.set_gc(GcConfig::periodic(
            RelativeTime::from_millis(7),
            RelativeTime::from_millis(2),
        ));
        sim.run_until(AbsoluteTime::from_millis(100));
        let ns = sim.stats(nhrt).unwrap();
        assert_eq!(ns.deadline_misses, 0, "NHRT immune to GC");
        assert!(ns
            .response_times
            .iter()
            .all(|&r| r == RelativeTime::from_micros(800)));
        assert!(sim.trace().ran_during_gc(nhrt));
        assert!(!sim.trace().ran_during_gc(reg));
        let rs = sim.stats(reg).unwrap();
        // The regular task sees inflated responses when GC overlaps it.
        assert!(rs
            .response_times
            .iter()
            .any(|&r| r > RelativeTime::from_micros(500)));
    }

    #[test]
    fn sample_summary_statistics() {
        let samples: Vec<RelativeTime> = [10u64, 12, 11, 50, 10]
            .iter()
            .map(|&v| RelativeTime::from_micros(v))
            .collect();
        let s = SampleSummary::compute(&samples).unwrap();
        assert_eq!(s.count, 5);
        assert_eq!(s.median, RelativeTime::from_micros(11));
        assert_eq!(s.min, RelativeTime::from_micros(10));
        assert_eq!(s.max, RelativeTime::from_micros(50));
        assert!(s.jitter > RelativeTime::ZERO);
        assert!(SampleSummary::compute(&[]).is_none());
    }

    #[test]
    fn fire_in_the_past_rejected() {
        let mut sim = Simulator::new();
        let s = sim.add_task(RtThread::new(
            "s",
            ThreadKind::Realtime,
            Priority::new(20),
            ReleaseParameters::aperiodic(RelativeTime::from_micros(10)),
        ));
        sim.run_until(AbsoluteTime::from_millis(5));
        assert!(sim.fire(s, AbsoluteTime::from_millis(1)).is_err());
    }

    #[test]
    fn run_to_quiescence_flushes_pipelines() {
        let mut sim = Simulator::new();
        let a = sim.add_task(RtThread::new(
            "a",
            ThreadKind::Realtime,
            Priority::new(20),
            ReleaseParameters::aperiodic(RelativeTime::from_micros(10)),
        ));
        let b = sim.add_task(RtThread::new(
            "b",
            ThreadKind::Realtime,
            Priority::new(19),
            ReleaseParameters::aperiodic(RelativeTime::from_micros(10)),
        ));
        sim.link(a, b).unwrap();
        sim.fire(a, AbsoluteTime::from_micros(1)).unwrap();
        sim.run_to_quiescence(AbsoluteTime::from_millis(1));
        assert_eq!(sim.stats(b).unwrap().completions, 1);
        assert_eq!(sim.transactions().len(), 1);
    }
}
