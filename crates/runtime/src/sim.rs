//! Virtual-time deployment: a [`SystemSpec`] as a scheduled task set.
//!
//! The wall-clock engine ([`crate::system::System`]) measures framework
//! overhead; this module answers the *scheduling* questions — deadline
//! behaviour, GC interference, end-to-end pipeline latency under load — by
//! deploying the same spec onto the deterministic
//! [`rtsj::sched::Simulator`]: one task per active component (thread kind
//! and priority from its ThreadDomain), one link per asynchronous binding.
//! The E5 determinism experiment runs the motivation pipeline here twice —
//! NHRT domains vs. regular threads — under an aggressive collector.
//!
//! The module's second half drives **virtual-time fault campaigns**
//! against the wall-clock engine itself: a seeded fault storm runs on a
//! live [`Deployment`] whose engine-level injectors advance the *release
//! clock* instead of busy-waiting (see
//! [`FaultInjector::with_virtual_clock`](soleil_membrane::interceptors::FaultInjector::with_virtual_clock)),
//! and [`run_recovery_campaign`] measures recovery in that virtual time:
//! time-to-restart per fault episode, releases suppressed while
//! quarantined, deadline misses during recovery, and the conservation
//! ledger at quiescence. The `reproduce -- recovery-gate` artifact sweeps
//! these metrics across seeds and modes in CI.

use std::collections::HashMap;

use rtsj::gc::GcConfig;
use rtsj::sched::Simulator;
use rtsj::thread::{Priority, ReleaseParameters, RtThread, ThreadKind};
use rtsj::time::{AbsoluteTime, RelativeTime};
use rtsj::trace::TaskId;
use soleil_membrane::content::Payload;
use soleil_membrane::FrameworkError;

use crate::deploy::{ComponentRef, Deployment};
use crate::spec::{Activation, ProtocolSpec, SystemSpec};

/// Per-component execution costs for the virtual-time deployment.
#[derive(Debug, Clone)]
pub struct SimCosts {
    /// Cost used when a component has no specific entry.
    pub default_cost: RelativeTime,
    per_component: HashMap<String, RelativeTime>,
}

impl SimCosts {
    /// Uniform costs.
    pub fn uniform(cost: RelativeTime) -> Self {
        SimCosts {
            default_cost: cost,
            per_component: HashMap::new(),
        }
    }

    /// Overrides the cost of one component (builder style).
    #[must_use]
    pub fn with(mut self, component: impl Into<String>, cost: RelativeTime) -> Self {
        self.per_component.insert(component.into(), cost);
        self
    }

    /// The cost of `component`.
    pub fn cost_of(&self, component: &str) -> RelativeTime {
        self.per_component
            .get(component)
            .copied()
            .unwrap_or(self.default_cost)
    }
}

/// The result of deploying a spec into a simulator.
#[derive(Debug)]
pub struct SimDeployment {
    /// The configured simulator (GC installed if requested).
    pub simulator: Simulator,
    /// Task ids by component name (active components only).
    pub tasks: HashMap<String, TaskId>,
}

impl SimDeployment {
    /// Deadline misses summed across every deployed task — the analytic
    /// counterpart of the runtime engine's deadline-miss counter
    /// (`Deployment::deadline_misses`), so integration tests can
    /// cross-check the simulator's virtual-time verdicts against the
    /// contract monitors' wall-clock ones on the same spec.
    pub fn deadline_misses(&self) -> u64 {
        self.tasks
            .values()
            .filter_map(|&id| self.simulator.stats(id).ok())
            .map(|s| s.deadline_misses)
            .sum()
    }
}

/// Optional overrides applied during deployment.
#[derive(Debug, Clone, Default)]
pub struct SimOptions {
    /// Replace every domain's thread kind (e.g. force `Regular` to show GC
    /// interference on an otherwise NHRT design).
    pub force_thread_kind: Option<ThreadKind>,
    /// Install a collector.
    pub gc: Option<GcConfig>,
}

/// Deploys the active components of `spec` onto a fresh simulator.
///
/// Periodic components become periodic tasks; sporadic components become
/// sporadic tasks with a minimum interarrival of half their *triggering*
/// producer's period (a conservative default) or their own cost when no
/// producer exists. Asynchronous bindings become completion links, so the
/// simulator's transaction log directly yields end-to-end pipeline
/// latencies.
///
/// Passive components do not schedule; their cost is charged to the caller
/// by adding it to the calling component's cost (run-to-completion
/// semantics), which the caller models through `costs`.
pub fn deploy(spec: &SystemSpec, costs: &SimCosts, options: &SimOptions) -> SimDeployment {
    let mut sim = Simulator::new();
    if let Some(gc) = options.gc {
        sim.set_gc(gc);
    }
    let mut tasks = HashMap::new();

    for c in &spec.components {
        let (kind, priority) = match c.domain {
            Some(d) => {
                let dom = &spec.domains[d];
                (
                    options.force_thread_kind.unwrap_or(dom.kind),
                    Priority::new(dom.priority),
                )
            }
            None => continue, // passive: modelled inside callers' costs
        };
        let cost = costs.cost_of(&c.name);
        let release = match c.activation {
            Activation::Periodic { period } => ReleaseParameters::periodic(period, cost),
            Activation::Sporadic => ReleaseParameters::Sporadic {
                min_interarrival: cost,
                cost,
                deadline: deadline_for(spec, &c.name),
            },
            Activation::Passive => continue,
        };
        let id = sim.add_task(RtThread::new(c.name.clone(), kind, priority, release));
        tasks.insert(c.name.clone(), id);
    }

    for b in &spec.bindings {
        if matches!(b.protocol, ProtocolSpec::Async { .. }) {
            let from = spec.components[b.client].name.as_str();
            let to = spec.components[b.server].name.as_str();
            if let (Some(&f), Some(&t)) = (tasks.get(from), tasks.get(to)) {
                sim.link(f, t).expect("tasks registered above");
            }
        }
    }

    SimDeployment {
        simulator: sim,
        tasks,
    }
}

/// Deadline for a sporadic component: the period of the periodic component
/// at the head of its pipeline (every stage must finish within the
/// production interval), or 10 ms when none is found.
fn deadline_for(spec: &SystemSpec, name: &str) -> RelativeTime {
    // Walk producers backwards through async bindings.
    let mut current = spec.component_index(name);
    let mut hops = 0;
    while let Some(ix) = current {
        if let Activation::Periodic { period } = spec.components[ix].activation {
            return period;
        }
        current = spec
            .bindings
            .iter()
            .find(|b| b.server == ix)
            .map(|b| b.client);
        hops += 1;
        if hops > spec.components.len() {
            break; // defensive: cyclic pipelines
        }
    }
    RelativeTime::from_millis(10)
}

// ---------------------------------------------------------------------------
// Virtual-time recovery campaigns (engine-backed)
// ---------------------------------------------------------------------------

/// One fault episode observed by a recovery campaign: a watched component
/// entered quarantine and (normally) was restarted by its supervision
/// machinery, all timed on the engine's **virtual** release clock.
#[derive(Debug, Clone)]
pub struct RecoveryEpisode {
    /// The component that was quarantined.
    pub component: String,
    /// Virtual instant the quarantine was first observed.
    pub fault_at: AbsoluteTime,
    /// Virtual instant the component was observed healthy again; `None`
    /// when the campaign ended with it still quarantined.
    pub recovered_at: Option<AbsoluteTime>,
    /// Releases suppressed (skipped because of the quarantine) during the
    /// episode.
    pub suppressed_releases: u64,
    /// Deadline misses recorded by attached contracts during the episode.
    pub deadline_misses: u64,
}

impl RecoveryEpisode {
    /// Virtual time from quarantine to restart; `None` while unrecovered.
    pub fn time_to_restart(&self) -> Option<RelativeTime> {
        self.recovered_at.map(|r| r.since(self.fault_at))
    }
}

/// Per-seed recovery metrics of one campaign run (see
/// [`run_recovery_campaign`]).
#[derive(Debug, Clone)]
pub struct RecoveryMetrics {
    /// The seed driving the deployment's fault injectors (recorded for the
    /// gate table; the campaign itself is deterministic given the
    /// deployment).
    pub seed: u64,
    /// Ticks driven.
    pub ticks: u64,
    /// Virtual time elapsed across the campaign — tick quanta plus every
    /// latency spike the injectors charged to the clock.
    pub elapsed_virtual: RelativeTime,
    /// Faults contained by supervision across the run.
    pub faults_contained: u64,
    /// Supervised restarts performed (direct or via escalation).
    pub restarts: u64,
    /// Total releases suppressed while watched components sat quarantined.
    pub suppressed_releases: u64,
    /// Deadline misses recorded while at least one episode was open.
    pub deadline_misses_during_recovery: u64,
    /// Every fault episode, in observation order.
    pub episodes: Vec<RecoveryEpisode>,
    /// `async_messages == delivered_messages + quarantine_drops` over the
    /// campaign — every *accepted* message was delivered or counted-dropped
    /// at a quarantine gate. Full-ring rejections are counted in
    /// `dropped_messages` but never entered a queue, so they sit outside
    /// this identity (the same ledger the chaos suite asserts).
    pub ledger_balanced: bool,
}

impl RecoveryMetrics {
    /// Episodes that never recovered before the campaign ended.
    pub fn unrecovered(&self) -> usize {
        self.episodes
            .iter()
            .filter(|e| e.recovered_at.is_none())
            .count()
    }

    /// The longest observed time-to-restart, if any episode recovered.
    pub fn max_time_to_restart(&self) -> Option<RelativeTime> {
        self.episodes
            .iter()
            .filter_map(|e| e.time_to_restart())
            .max()
    }

    /// True when every episode recovered and none took longer than
    /// `budget` of virtual time — the recovery-gate acceptance predicate.
    pub fn recovery_bounded(&self, budget: RelativeTime) -> bool {
        self.episodes.iter().all(|e| match e.time_to_restart() {
            Some(t) => t <= budget,
            None => false,
        })
    }
}

/// Runs a virtual-time fault campaign against a live engine deployment:
/// `ticks` release ticks, watching `watch` for quarantine/recovery
/// transitions between transactions. The deployment is expected to carry
/// seeded engine-level
/// [`FaultInjector`](soleil_membrane::interceptors::FaultInjector)s built
/// [`with_virtual_clock`](soleil_membrane::interceptors::FaultInjector::with_virtual_clock)
/// — their latency spikes then advance the engine's release clock instead
/// of the OS clock, so a campaign with multi-millisecond spikes still
/// finishes in microseconds of wall time and every metric below is exact
/// virtual time.
///
/// Episode accounting is quarantine-edge driven: a watched component
/// transitioning healthy→quarantined opens an episode stamped with the
/// current virtual clock; quarantined→healthy closes it. Suppressed
/// releases and deadline misses are charged to the open episodes by delta,
/// so overlapping episodes on different components never double-count.
///
/// # Errors
///
/// [`FrameworkError::Content`] for foreign refs; engine errors from ticks
/// (a fault escaping containment — e.g. an exhausted restart budget under
/// a root `Escalate` — aborts the campaign, like the chaos harness).
pub fn run_recovery_campaign<P: Payload>(
    dep: &mut Deployment<P>,
    watch: &[ComponentRef],
    seed: u64,
    ticks: u64,
) -> Result<RecoveryMetrics, FrameworkError> {
    struct Watch {
        name: String,
        r: ComponentRef,
        quarantined: bool,
        /// Index into `episodes` while an episode is open.
        open: Option<usize>,
        /// Suppressed-release counter at episode open.
        suppressed_at_open: u64,
    }

    let start_clock = dep.timer_clock();
    let start_stats = dep.stats();
    let mut episodes: Vec<RecoveryEpisode> = Vec::new();
    let mut watches: Vec<Watch> = Vec::with_capacity(watch.len());
    for &r in watch {
        watches.push(Watch {
            name: dep.name_of(r)?.to_string(),
            r,
            quarantined: dep.quarantined(r)?,
            open: None,
            suppressed_at_open: 0,
        });
    }

    let mut misses_before = dep.deadline_misses();
    for _ in 0..ticks {
        dep.run_tick()?;
        let now = dep.timer_clock();
        // Deadline misses this tick are charged to every open episode —
        // "misses during recovery" in the gate's sense.
        let misses_now = dep.deadline_misses();
        let miss_delta = misses_now - misses_before;
        misses_before = misses_now;
        if miss_delta > 0 {
            for w in &watches {
                if let Some(ix) = w.open {
                    episodes[ix].deadline_misses += miss_delta;
                }
            }
        }
        for w in &mut watches {
            let q = dep.quarantined(w.r)?;
            if q && !w.quarantined {
                // Healthy → quarantined: open an episode.
                let (_, _, suppressed) = dep.supervision_counts(w.r)?;
                w.open = Some(episodes.len());
                w.suppressed_at_open = suppressed;
                episodes.push(RecoveryEpisode {
                    component: w.name.clone(),
                    fault_at: now,
                    recovered_at: None,
                    suppressed_releases: 0,
                    deadline_misses: 0,
                });
            } else if !q && w.quarantined {
                // Quarantined → healthy: close the episode.
                if let Some(ix) = w.open.take() {
                    let (_, _, suppressed) = dep.supervision_counts(w.r)?;
                    episodes[ix].recovered_at = Some(now);
                    episodes[ix].suppressed_releases = suppressed - w.suppressed_at_open;
                }
            }
            w.quarantined = q;
        }
    }
    // Campaign over: charge still-open episodes their suppression so far.
    for w in &mut watches {
        if let Some(ix) = w.open.take() {
            let (_, _, suppressed) = dep.supervision_counts(w.r)?;
            episodes[ix].suppressed_releases = suppressed - w.suppressed_at_open;
        }
    }

    let stats = dep.stats();
    let mut faults_contained = 0u64;
    let mut restarts = 0u64;
    let mut suppressed_releases = 0u64;
    for w in &watches {
        let (f, r, s) = dep.supervision_counts(w.r)?;
        faults_contained += f;
        restarts += r;
        suppressed_releases += s;
    }
    Ok(RecoveryMetrics {
        seed,
        ticks,
        elapsed_virtual: dep.timer_clock().since(start_clock),
        faults_contained,
        restarts,
        suppressed_releases,
        deadline_misses_during_recovery: episodes.iter().map(|e| e.deadline_misses).sum(),
        episodes,
        ledger_balanced: (stats.async_messages - start_stats.async_messages)
            == (stats.delivered_messages - start_stats.delivered_messages)
                + (stats.quarantine_drops - start_stats.quarantine_drops),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{AreaSpec, BindingSpec, BufferPlacement, ComponentSpec, DomainSpec};
    use rtsj::memory::MemoryKind;
    use rtsj::time::AbsoluteTime;

    fn spec() -> SystemSpec {
        SystemSpec {
            name: "simtest".into(),
            areas: vec![AreaSpec {
                name: "imm".into(),
                kind: MemoryKind::Immortal,
                size: Some(64 * 1024),
                parent: None,
            }],
            domains: vec![
                DomainSpec {
                    name: "nhrt".into(),
                    kind: ThreadKind::NoHeapRealtime,
                    priority: 30,
                },
                DomainSpec {
                    name: "reg".into(),
                    kind: ThreadKind::Regular,
                    priority: 5,
                },
            ],
            components: vec![
                ComponentSpec {
                    name: "head".into(),
                    content_class: "H".into(),
                    activation: Activation::Periodic {
                        period: RelativeTime::from_millis(10),
                    },
                    domain: Some(0),
                    area: 0,
                    server_ports: vec![],
                },
                ComponentSpec {
                    name: "tail".into(),
                    content_class: "T".into(),
                    activation: Activation::Sporadic,
                    domain: Some(1),
                    area: 0,
                    server_ports: vec!["in".into()],
                },
            ],
            bindings: vec![BindingSpec {
                client: 0,
                client_port: "out".into(),
                server: 1,
                server_port: "in".into(),
                protocol: ProtocolSpec::Async {
                    capacity: 8,
                    placement: BufferPlacement::Immortal,
                },
            }],
        }
    }

    #[test]
    fn deploys_actives_and_links() {
        let costs = SimCosts::uniform(RelativeTime::from_micros(100))
            .with("head", RelativeTime::from_micros(50));
        let mut d = deploy(&spec(), &costs, &SimOptions::default());
        assert_eq!(d.tasks.len(), 2);
        d.simulator.run_until(AbsoluteTime::from_millis(100));
        let head = d.tasks["head"];
        let tail = d.tasks["tail"];
        assert_eq!(d.simulator.stats(head).unwrap().completions, 10);
        assert_eq!(d.simulator.stats(tail).unwrap().completions, 10);
        // End-to-end: 50 + 100 us, uncontended.
        assert!(d
            .simulator
            .transactions()
            .iter()
            .all(|&t| t == RelativeTime::from_micros(150)));
    }

    #[test]
    fn forced_thread_kind_exposes_gc() {
        let costs = SimCosts::uniform(RelativeTime::from_micros(500));
        let gc = GcConfig::periodic(RelativeTime::from_millis(15), RelativeTime::from_millis(3));

        // NHRT deployment: immune.
        let mut nhrt = deploy(
            &spec(),
            &costs,
            &SimOptions {
                force_thread_kind: None,
                gc: Some(gc),
            },
        );
        nhrt.simulator.run_until(AbsoluteTime::from_millis(200));
        let head = nhrt.tasks["head"];
        assert_eq!(nhrt.simulator.stats(head).unwrap().deadline_misses, 0);

        // Regular deployment of the same system: GC inflates responses.
        let mut reg = deploy(
            &spec(),
            &costs,
            &SimOptions {
                force_thread_kind: Some(ThreadKind::Regular),
                gc: Some(gc),
            },
        );
        reg.simulator.run_until(AbsoluteTime::from_millis(200));
        let rhead = reg.tasks["head"];
        let worst = reg
            .simulator
            .stats(rhead)
            .unwrap()
            .response_times
            .iter()
            .copied()
            .max()
            .unwrap();
        assert!(
            worst > RelativeTime::from_micros(500),
            "GC must delay regular threads (worst {worst})"
        );
    }

    #[test]
    fn deadline_walks_to_pipeline_head() {
        let s = spec();
        assert_eq!(deadline_for(&s, "tail"), RelativeTime::from_millis(10));
        assert_eq!(deadline_for(&s, "head"), RelativeTime::from_millis(10));
    }
}
