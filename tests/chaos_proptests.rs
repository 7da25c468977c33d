//! Chaos property tests: deterministic seeded fault schedules over
//! randomly generated fan-out architectures, deployed on one shard and
//! sharded (the source's and the workers' domains shard apart, joined by
//! cross-shard rings), both driven by the same `run_tick` calls. Whatever
//! the schedule does — errors, panics, quarantines, supervised restarts —
//! the engine must keep its books: every pushed message is either
//! delivered or counted-dropped, quarantine is monotonic until a restart,
//! and the whole run replays bit-identically from the same seeds.

use proptest::prelude::*;
use soleil::prelude::*;

/// One consumer's supervision configuration, drawn at random.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct WorkerPlan {
    /// 0 = Escalate (injector forced idle), 1 = Isolate, 2 = Restart.
    policy: u8,
    /// Injector seed — the only source of chaos.
    seed: u64,
    /// Fire roughly every `rate` activations; 0 = idle.
    rate: u32,
    /// 0 = errors, 1 = panics, 2 = both.
    menu: u8,
}

#[derive(Debug, Clone)]
struct ChaosPlan {
    workers: Vec<WorkerPlan>,
    ticks: u64,
    /// 0 = SOLEIL, 1 = MERGE-ALL, 2 = ULTRA-MERGE.
    mode: u8,
}

fn worker_strategy() -> impl Strategy<Value = WorkerPlan> {
    (0u8..3, 0u64..u64::MAX, 0u32..5, 0u8..3).prop_map(|(policy, seed, rate, menu)| WorkerPlan {
        policy,
        seed,
        // Escalate workers keep their injector idle: a firing injector
        // under Escalate aborts the tick, which is the unit-tested path;
        // chaos runs probe containment.
        rate: if policy == 0 { 0 } else { rate },
        menu,
    })
}

fn plan_strategy() -> impl Strategy<Value = ChaosPlan> {
    (
        proptest::collection::vec(worker_strategy(), 1..5),
        4u64..28,
        0u8..3,
    )
        .prop_map(|(workers, ticks, mode)| ChaosPlan {
            workers,
            ticks,
            mode,
        })
}

fn mode_of(plan: &ChaosPlan) -> Mode {
    match plan.mode {
        0 => Mode::Soleil,
        1 => Mode::MergeAll,
        _ => Mode::UltraMerge,
    }
}

fn policy_of(w: &WorkerPlan) -> FaultPolicy {
    match w.policy {
        0 => FaultPolicy::Escalate,
        1 => FaultPolicy::Isolate,
        // A budget far above any fault count this run can produce: the
        // supervisor must keep re-arming, never escalate.
        _ => FaultPolicy::Restart {
            max_restarts: 1_000,
            window: RelativeTime::from_millis(3_600_000),
            backoff: RelativeTime::from_millis(1),
        },
    }
}

fn injector_of(name: &str, w: &WorkerPlan) -> FaultInjector {
    let menu = match w.menu {
        0 => FaultInjector::MENU_ERROR,
        1 => FaultInjector::MENU_PANIC,
        _ => FaultInjector::MENU_ERROR | FaultInjector::MENU_PANIC,
    };
    FaultInjector::new(name, w.seed, w.rate).with_menu(menu)
}

/// A periodic source fanning out async to one sporadic worker per plan
/// entry. The source runs NHRT/immortal; workers share an RT/heap domain.
fn build_arch(n_workers: usize) -> Architecture {
    let mut b = BusinessView::new("chaos-fan");
    b.active_periodic("source", "10ms").unwrap();
    b.content("source", "Fan").unwrap();
    let worker_names: Vec<String> = (0..n_workers).map(|i| format!("worker{i}")).collect();
    for (i, w) in worker_names.iter().enumerate() {
        b.active_sporadic(w).unwrap();
        b.content(w, "Count").unwrap();
        b.require("source", &format!("out{i}"), "I").unwrap();
        b.provide(w, "in", "I").unwrap();
        b.bind_async("source", &format!("out{i}"), w, "in", 8)
            .unwrap();
    }
    let mut flow = DesignFlow::new(b);
    flow.thread_domain("dhead", ThreadKind::NoHeapRealtime, 30, &["source"])
        .unwrap();
    flow.memory_area("mhead", MemoryKind::Immortal, Some(128 * 1024), &["dhead"])
        .unwrap();
    let refs: Vec<&str> = worker_names.iter().map(String::as_str).collect();
    flow.thread_domain("dwork", ThreadKind::NoHeapRealtime, 20, &refs)
        .unwrap();
    flow.memory_area("mwork", MemoryKind::Immortal, Some(256 * 1024), &["dwork"])
        .unwrap();
    flow.merge().unwrap()
}

fn registry(n_workers: usize) -> ContentRegistry<u64> {
    let mut r = ContentRegistry::new();
    r.register("Fan", move || {
        #[derive(Debug)]
        struct Fan(usize);
        impl Content<u64> for Fan {
            fn on_invoke(
                &mut self,
                _p: &str,
                msg: &mut u64,
                out: &mut dyn Ports<u64>,
            ) -> InvokeResult {
                for i in 0..self.0 {
                    out.send(&format!("out{i}"), *msg)?;
                }
                Ok(())
            }
        }
        Box::new(Fan(n_workers))
    });
    r.register("Count", || {
        #[derive(Debug, Default)]
        struct Count(u64);
        impl Content<u64> for Count {
            fn on_invoke(
                &mut self,
                _p: &str,
                _msg: &mut u64,
                _out: &mut dyn Ports<u64>,
            ) -> InvokeResult {
                self.0 += 1;
                Ok(())
            }
        }
        Box::<Count>::default()
    });
    r
}

/// Everything a chaos run observes — compared across replays for the
/// determinism property.
#[derive(Debug, PartialEq, Eq)]
struct RunRecord {
    stats: EngineStats,
    /// Per worker: (faults contained, restarts, suppressed activations).
    supervision: Vec<(u64, u64, u64)>,
    /// Per worker: (activations seen, faults injected) by the injector.
    injections: Vec<(u64, u64)>,
    /// Per worker: quarantine flag at the end of the driving phase.
    quarantined: Vec<bool>,
}

/// Deploys the plan's chaos fan on one shard, or `sharded` on two, with
/// every worker's policy and injector armed.
fn deploy_chaos(plan: &ChaosPlan, sharded: bool) -> (Deployment<u64>, Vec<ComponentRef>) {
    let n = plan.workers.len();
    let arch = build_arch(n).into_validated().expect("chaos fan validates");
    let mut dep = if sharded {
        deploy_parallel(&arch, mode_of(plan), &registry(n))
    } else {
        deploy(&arch, mode_of(plan), &registry(n))
    }
    .expect("chaos fan deploys");
    assert_eq!(dep.shard_count(), if sharded { 2 } else { 1 });
    let workers: Vec<ComponentRef> = (0..n)
        .map(|i| dep.resolve(&format!("worker{i}")).unwrap())
        .collect();
    for (w, cfg) in workers.iter().zip(&plan.workers) {
        dep.set_fault_policy(*w, policy_of(cfg)).unwrap();
        let name = dep.name_of(*w).unwrap().to_string();
        dep.install_fault_injector(*w, injector_of(&name, cfg))
            .unwrap();
    }
    (dep, workers)
}

/// Deploys the plan, drives `ticks` transactions under fault injection,
/// then disarms every injector and settles so deferred messages drain.
/// Panics inside are test failures; `prop_assert` happens in the caller.
fn run_chaos(plan: &ChaosPlan, sharded: bool) -> RunRecord {
    let n = plan.workers.len();
    let (mut dep, workers) = deploy_chaos(plan, sharded);

    // Drive. Containment means no tick may error: Escalate workers have
    // idle injectors, Isolate contains, Restart never exhausts its budget.
    // Along the way, Isolate quarantine must be monotonic — it can only
    // be lifted by an explicit restart, which this run never issues.
    let mut was_quarantined = vec![false; n];
    for tick in 0..plan.ticks {
        dep.run_tick()
            .unwrap_or_else(|e| panic!("tick {tick} escaped containment: {e}"));
        for (i, (w, cfg)) in workers.iter().zip(&plan.workers).enumerate() {
            let q = dep.quarantined(*w).unwrap();
            if cfg.policy == 1 && was_quarantined[i] {
                assert!(
                    q,
                    "worker{i}: Isolate quarantine lifted without a restart (tick {tick})"
                );
            }
            was_quarantined[i] = q;
        }
    }

    // Capture the chaos-phase observations, then settle: disarm every
    // injector and flush. A contained fault during a drain defers the
    // rest of the pending heap to the next transaction, so a couple of
    // fault-free ticks guarantee quiescence — every deferred message is
    // delivered or count-dropped at a quarantine gate.
    let injections: Vec<(u64, u64)> = workers
        .iter()
        .map(|w| dep.injector_counts(*w).unwrap().unwrap_or((0, 0)))
        .collect();
    let quarantined: Vec<bool> = workers
        .iter()
        .map(|w| dep.quarantined(*w).unwrap())
        .collect();
    for w in &workers {
        dep.remove_fault_injector(*w).unwrap();
    }
    for _ in 0..2 {
        dep.run_tick().expect("settling ticks are fault-free");
    }

    RunRecord {
        stats: dep.stats(),
        supervision: workers
            .iter()
            .map(|w| dep.supervision_counts(*w).unwrap())
            .collect(),
        injections,
        quarantined,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The conservation ledger survives arbitrary fault schedules: after
    /// quiescence, every async push was either delivered to an activation
    /// boundary or counted-dropped — nothing silently lost, in any mode,
    /// under any mix of policies, seeds and fault menus.
    #[test]
    fn chaos_conserves_every_message(plan in plan_strategy()) {
        for sharded in [false, true] {
            let r = run_chaos(&plan, sharded);
            prop_assert_eq!(
                r.stats.async_messages,
                r.stats.delivered_messages + r.stats.dropped_messages,
                "ledger leak: {:?} (plan {:?}, sharded {})", r.stats, plan, sharded
            );
            // The books cross-check the supervisors: a quarantined worker at
            // end-of-chaos implies its policy allowed quarantine and at least
            // one contained fault; contained faults imply injected ones.
            for (i, cfg) in plan.workers.iter().enumerate() {
                let (faults, restarts, _suppressed) = r.supervision[i];
                let (_seen, injected) = r.injections[i];
                prop_assert!(faults <= injected,
                    "worker{}: contained {} faults but injected only {}", i, faults, injected);
                if r.quarantined[i] {
                    prop_assert!(cfg.policy != 0, "worker{}: Escalate never quarantines", i);
                    prop_assert!(faults > 0, "worker{}: quarantined without a fault", i);
                }
                if cfg.policy == 1 {
                    prop_assert_eq!(restarts, 0u64,
                        "worker{}: Isolate must never self-restart", i);
                }
                if cfg.policy == 0 {
                    prop_assert_eq!((faults, injected), (0, 0),
                        "worker{}: idle injector fired", i);
                }
            }
            // Quarantine findings and the ledger agree, on a deployment of
            // the same shape.
            let report = {
                let (mut dep, _) = deploy_chaos(&plan, sharded);
                for _ in 0..plan.ticks { dep.run_tick().unwrap(); }
                dep.health_report()
            };
            for (i, q) in r.quarantined.iter().enumerate() {
                let name = format!("worker{i}");
                prop_assert_eq!(
                    report.by_code("SOL-020").any(|d| d.subject == name), *q,
                    "worker{}: SOL-020 disagrees with quarantined() (sharded {})", i, sharded
                );
            }
        }
    }

    /// Chaos replays: the same plan (same seeds) produces bit-identical
    /// engine statistics, supervision counters, injector counters and
    /// quarantine flags — the injector schedule is a pure function of
    /// `(seed, activation index)`, never of wall-clock or iteration order.
    #[test]
    fn chaos_replays_bit_identically(plan in plan_strategy()) {
        for sharded in [false, true] {
            let first = run_chaos(&plan, sharded);
            let second = run_chaos(&plan, sharded);
            prop_assert_eq!(
                first, second, "replay diverged (plan {:?}, sharded {})", plan, sharded
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Warm-state and supervision-tree properties
// ---------------------------------------------------------------------------

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A per-worker observation pair: total invocations ever (across every
/// instance) and the last value of the *instance* counter.
#[derive(Debug, Clone, Default)]
struct CkProbe {
    invocations: Arc<AtomicU64>,
    last_count: Arc<AtomicU64>,
}

/// A counter whose state rides the Checkpoint capability. Observational
/// equivalence modulo counted drops: if every restart restores the warm
/// image, the instance counter equals the total invocation count at all
/// times — a cold restart would reset it and leave it lagging forever.
#[derive(Debug)]
struct CkCount {
    count: u64,
    probe: CkProbe,
}

impl Content<u64> for CkCount {
    fn on_invoke(&mut self, _p: &str, _m: &mut u64, _o: &mut dyn Ports<u64>) -> InvokeResult {
        self.count += 1;
        self.probe.invocations.fetch_add(1, Ordering::Relaxed);
        self.probe.last_count.store(self.count, Ordering::Relaxed);
        Ok(())
    }
    fn state_bytes(&self) -> usize {
        64
    }
    fn checkpoint(&self, image: &mut StateImage) -> bool {
        image.write_u64(self.count)
    }
    fn restore(&mut self, image: &StateImage) {
        if let Some(v) = image.read_u64(0) {
            self.count = v;
        }
    }
}

/// Like [`build_arch`], but each worker gets its own content class so its
/// factory can carry a per-worker probe.
fn build_arch_per_worker(n_workers: usize) -> Architecture {
    let mut b = BusinessView::new("chaos-warm");
    b.active_periodic("source", "10ms").unwrap();
    b.content("source", "Fan").unwrap();
    for i in 0..n_workers {
        let w = format!("worker{i}");
        b.active_sporadic(&w).unwrap();
        b.content(&w, &format!("CkCount{i}")).unwrap();
        b.require("source", &format!("out{i}"), "I").unwrap();
        b.provide(&w, "in", "I").unwrap();
        b.bind_async("source", &format!("out{i}"), &w, "in", 8)
            .unwrap();
    }
    let mut flow = DesignFlow::new(b);
    flow.thread_domain("dhead", ThreadKind::NoHeapRealtime, 30, &["source"])
        .unwrap();
    flow.memory_area("mhead", MemoryKind::Immortal, Some(128 * 1024), &["dhead"])
        .unwrap();
    let worker_names: Vec<String> = (0..n_workers).map(|i| format!("worker{i}")).collect();
    let refs: Vec<&str> = worker_names.iter().map(String::as_str).collect();
    flow.thread_domain("dwork", ThreadKind::NoHeapRealtime, 20, &refs)
        .unwrap();
    flow.memory_area("mwork", MemoryKind::Immortal, Some(256 * 1024), &["dwork"])
        .unwrap();
    flow.merge().unwrap()
}

fn registry_ck(n_workers: usize, probes: &[CkProbe]) -> ContentRegistry<u64> {
    let mut r = ContentRegistry::new();
    r.register("Fan", move || {
        #[derive(Debug)]
        struct Fan(usize);
        impl Content<u64> for Fan {
            fn on_invoke(
                &mut self,
                _p: &str,
                msg: &mut u64,
                out: &mut dyn Ports<u64>,
            ) -> InvokeResult {
                for i in 0..self.0 {
                    out.send(&format!("out{i}"), *msg)?;
                }
                Ok(())
            }
        }
        Box::new(Fan(n_workers))
    });
    for (i, probe) in probes.iter().enumerate() {
        let p = probe.clone();
        r.register(format!("CkCount{i}"), move || {
            Box::new(CkCount {
                count: 0,
                probe: p.clone(),
            })
        });
    }
    r
}

/// A restart policy whose short window keeps the exponential backoff from
/// outliving the settling phase no matter how many faults a plan lands.
fn short_window_restart() -> FaultPolicy {
    FaultPolicy::Restart {
        max_restarts: 1_000,
        window: RelativeTime::from_millis(30),
        backoff: RelativeTime::from_millis(1),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Checkpoint/restore round-trips are observationally equivalent
    /// modulo counted drops: under an arbitrary error/panic schedule with
    /// every worker checkpointing at cadence 1 under a restart policy,
    /// each worker's instance counter always equals its all-instances
    /// invocation total — warm state is never lost (a panic restores the
    /// last healthy cadence image; the poisoned activation itself never
    /// ran the content) — and restores track supervised restarts exactly.
    #[test]
    fn checkpointed_restarts_preserve_observational_state(
        n in 1usize..4,
        seeds in proptest::collection::vec(0u64..u64::MAX, 3..4),
        rates in proptest::collection::vec(1u32..4, 3..4),
        menus in proptest::collection::vec(0u8..3, 3..4),
        ticks in 6u64..24,
        mode in 0u8..3,
    ) {
        let mode = match mode {
            0 => Mode::Soleil,
            1 => Mode::MergeAll,
            _ => Mode::UltraMerge,
        };
        let probes: Vec<CkProbe> = (0..n).map(|_| CkProbe::default()).collect();
        let arch = build_arch_per_worker(n).into_validated().expect("validates");
        let mut dep = deploy(&arch, mode, &registry_ck(n, &probes)).expect("deploys");
        let workers: Vec<ComponentRef> = (0..n)
            .map(|i| dep.resolve(&format!("worker{i}")).unwrap())
            .collect();
        for (i, w) in workers.iter().enumerate() {
            dep.set_fault_policy(*w, short_window_restart()).unwrap();
            dep.enable_checkpoint(*w, 1).unwrap();
            let menu = match menus[i] {
                0 => FaultInjector::MENU_ERROR,
                1 => FaultInjector::MENU_PANIC,
                _ => FaultInjector::MENU_ERROR | FaultInjector::MENU_PANIC,
            };
            dep.install_fault_injector(
                *w,
                FaultInjector::new(format!("worker{i}"), seeds[i], rates[i]).with_menu(menu),
            )
            .unwrap();
        }
        for tick in 0..ticks {
            dep.run_tick()
                .unwrap_or_else(|e| panic!("tick {tick} escaped containment: {e}"));
        }
        for w in &workers {
            dep.remove_fault_injector(*w).unwrap();
        }
        // Settle generously: the short window keeps every pending backoff
        // under a few ms, so the timers all fire within these ticks.
        for _ in 0..6 {
            dep.run_tick().expect("settling ticks are fault-free");
        }

        // The exact post-quiescence ledger: every *accepted* message was
        // either delivered or counted-dropped at a quarantine gate.
        // Full-ring rejections (a backlogged worker mid-backoff) never
        // entered a queue — they are counted in `dropped_messages` but not
        // in `async_messages`, per the EngineStats contract.
        let stats = dep.stats();
        prop_assert_eq!(
            stats.async_messages,
            stats.delivered_messages + stats.quarantine_drops,
            "ledger leak under checkpointed restarts"
        );
        prop_assert!(
            stats.dropped_messages >= stats.quarantine_drops,
            "rejections are counted, never negative"
        );
        for (i, w) in workers.iter().enumerate() {
            prop_assert!(!dep.quarantined(*w).unwrap(), "worker{} still down", i);
            let invocations = probes[i].invocations.load(Ordering::Relaxed);
            let last = probes[i].last_count.load(Ordering::Relaxed);
            prop_assert_eq!(
                last, invocations,
                "worker{}: instance counter diverged from invocation total — \
                 a restart lost warm state", i
            );
            let (_, restarts, _) = dep.supervision_counts(*w).unwrap();
            let (_, restores) = dep.checkpoint_counts(*w).unwrap().expect("enabled");
            prop_assert_eq!(
                restores, restarts,
                "worker{}: every supervised restart must restore the image", i
            );
        }
    }

    /// Restarting a subtree touches only that subtree: with the declared
    /// tree worker0 → worker1 → worker2 and faults injected at worker0
    /// only, the containment quarantines and restarts workers 0 and 1 as
    /// a unit while worker2 (the handler) and every sibling keep running
    /// every single tick.
    #[test]
    fn subtree_restart_leaves_siblings_untouched(
        n in 3usize..6,
        seed in 0u64..u64::MAX,
        rate in 1u32..4,
        menu in 0u8..3,
        ticks in 6u64..24,
        mode in 0u8..3,
    ) {
        const SETTLE: u64 = 6;
        let mode = match mode {
            0 => Mode::Soleil,
            1 => Mode::MergeAll,
            _ => Mode::UltraMerge,
        };
        let probes: Vec<CkProbe> = (0..n).map(|_| CkProbe::default()).collect();
        let arch = build_arch_per_worker(n).into_validated().expect("validates");
        let mut dep = deploy(&arch, mode, &registry_ck(n, &probes)).expect("deploys");
        let workers: Vec<ComponentRef> = (0..n)
            .map(|i| dep.resolve(&format!("worker{i}")).unwrap())
            .collect();
        // Declared tree: worker0 and worker1 escalate, worker2 contains.
        dep.set_supervisor(workers[0], Some(workers[1])).unwrap();
        dep.set_supervisor(workers[1], Some(workers[2])).unwrap();
        dep.set_fault_policy(workers[2], short_window_restart()).unwrap();
        let menu = match menu {
            0 => FaultInjector::MENU_ERROR,
            1 => FaultInjector::MENU_PANIC,
            _ => FaultInjector::MENU_ERROR | FaultInjector::MENU_PANIC,
        };
        dep.install_fault_injector(
            workers[0],
            FaultInjector::new("worker0", seed, rate).with_menu(menu),
        )
        .unwrap();
        for tick in 0..ticks {
            dep.run_tick()
                .unwrap_or_else(|e| panic!("tick {tick} escaped the tree: {e}"));
        }
        dep.remove_fault_injector(workers[0]).unwrap();
        for _ in 0..SETTLE {
            dep.run_tick().expect("settling ticks are fault-free");
        }

        let (f0, r0, _) = dep.supervision_counts(workers[0]).unwrap();
        let (f1, r1, _) = dep.supervision_counts(workers[1]).unwrap();
        prop_assert!(f0 >= 1, "the storm must land at least one fault");
        prop_assert_eq!(f1, 0, "worker1 is co-quarantined, never the origin");
        prop_assert_eq!(r0, r1, "the subtree restarts as one unit");
        prop_assert_eq!(
            dep.escalation_path(workers[2]).unwrap().as_deref(),
            Some("worker0 -> worker1 -> worker2"),
            "the handler records the declared walk"
        );
        // The handler and every sibling branch never missed a delivery:
        // one invocation per tick, storm and settle alike.
        for (i, w) in workers.iter().enumerate().skip(2) {
            let (f, r, s) = dep.supervision_counts(*w).unwrap();
            prop_assert_eq!((f, r, s), (0, 0, 0), "worker{} was touched", i);
            prop_assert!(!dep.quarantined(*w).unwrap(), "worker{} was downed", i);
            prop_assert_eq!(
                probes[i].invocations.load(Ordering::Relaxed),
                ticks + SETTLE,
                "worker{}: sibling branches must keep running every tick", i
            );
        }
        // Same exact ledger as above: accepted == delivered + quarantine
        // drops, with any full-ring rejections counted on the side.
        let stats = dep.stats();
        prop_assert_eq!(
            stats.async_messages,
            stats.delivered_messages + stats.quarantine_drops,
            "ledger leak under subtree restarts"
        );
    }
}
