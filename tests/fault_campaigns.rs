//! Fault-campaign integration tests across the facade: injected latency
//! spikes against declarative deadline contracts (serial and parallel),
//! and the wall-clock independence of virtual-clock spikes — a campaign
//! with seconds of injected virtual latency must finish in real
//! milliseconds, because the injector charges the engine's release clock
//! instead of busy-waiting the OS clock.

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use soleil::generator::{deploy, deploy_parallel};
use soleil::prelude::*;
use soleil::scenario::{motivation_validated, registry_with_probe, ScenarioProbe};

/// A deadline far tighter than the injected spike: the healthy scenario
/// transaction completes in microseconds, so only spiked activations miss.
/// It is still generous enough that a healthy debug-build transaction
/// descheduled under a loaded parallel test harness cannot overrun it —
/// the miss count is asserted exactly.
fn tight_contract() -> TimingContract {
    TimingContract::new().with_deadline(RelativeTime::from_millis(25))
}

const SPIKE_NS: u64 = 75_000_000; // 75 ms, three times the deadline

#[test]
fn latency_spikes_breach_the_deadline_contract_serially() {
    let arch = motivation_validated().expect("fixture validates");
    for mode in [Mode::Soleil, Mode::MergeAll, Mode::UltraMerge] {
        let probe = ScenarioProbe::new();
        let mut dep = deploy(&arch, mode, &registry_with_probe(&probe)).expect("deploys");
        let head = dep.resolve("ProductionLine").expect("head exists");
        dep.attach_contract(head, tight_contract())
            .expect("contract attaches");
        // Every other activation eats a real 75 ms spike (MENU_LATENCY
        // alone never errors or panics — the transaction itself succeeds).
        dep.install_fault_injector(
            head,
            FaultInjector::new("ProductionLine", 0xA11CE, 2)
                .with_menu(FaultInjector::MENU_LATENCY)
                .with_latency_spike_ns(SPIKE_NS),
        )
        .expect("injector installs");

        for _ in 0..10 {
            dep.run_tick().expect("latency faults never abort a tick");
        }

        let (seen, injected) = dep
            .injector_counts(head)
            .expect("head resolves")
            .expect("injector installed");
        assert_eq!(seen, 10, "{mode}: every release drew from the injector");
        assert!(injected > 0, "{mode}: the spike schedule must fire");
        assert_eq!(
            dep.deadline_misses(),
            injected,
            "{mode}: exactly the spiked activations miss the 25 ms deadline"
        );
        let report = dep.contract_report();
        assert!(
            report
                .by_code("SOL-016")
                .any(|d| d.subject == "ProductionLine"),
            "{mode}: SOL-016 must name the spiked head: {report}"
        );
        // The spikes delayed transactions but lost nothing: the ledger is
        // exact and nothing was quarantined or dropped.
        let stats = dep.stats();
        assert_eq!(
            stats.async_messages,
            stats.delivered_messages + stats.dropped_messages,
            "{mode}: ledger must balance"
        );
        assert_eq!(stats.dropped_messages, 0, "{mode}: latency never drops");
        assert_eq!(
            probe.audits(),
            10,
            "{mode}: every spiked-or-not measurement reached the audit trail"
        );
    }
}

#[test]
fn latency_spikes_breach_the_deadline_contract_in_parallel() {
    let arch = motivation_validated().expect("fixture validates");
    let probe = ScenarioProbe::new();
    let mut sys =
        deploy_parallel(&arch, Mode::MergeAll, &registry_with_probe(&probe)).expect("deploys");
    sys.attach_contract("ProductionLine", tight_contract())
        .expect("contract attaches");
    sys.install_fault_injector(
        "ProductionLine",
        FaultInjector::new("ProductionLine", 0xA11CE, 2)
            .with_menu(FaultInjector::MENU_LATENCY)
            .with_latency_spike_ns(SPIKE_NS),
    )
    .expect("injector installs");

    sys.run_ticks(10)
        .expect("latency faults never abort a tick");

    let (seen, injected) = sys
        .injector_counts("ProductionLine")
        .expect("resolves")
        .expect("injector installed");
    assert_eq!(seen, 10, "every release drew from the injector");
    assert!(injected > 0, "the spike schedule must fire");
    assert_eq!(
        sys.deadline_misses(),
        injected,
        "exactly the spiked activations miss the 25 ms deadline on the shard"
    );
    let report = sys.contract_report();
    assert!(
        report
            .by_code("SOL-016")
            .any(|d| d.subject == "ProductionLine"),
        "SOL-016 must name the spiked head: {report}"
    );
    let stats = sys.stats();
    assert_eq!(
        stats.async_messages,
        stats.delivered_messages + stats.dropped_messages,
        "parallel ledger must balance across shards"
    );
    assert_eq!(stats.dropped_messages, 0, "latency never drops");
}

#[test]
fn virtual_clock_spikes_are_wall_clock_independent() {
    let arch = motivation_validated().expect("fixture validates");
    let probe = ScenarioProbe::new();
    let mut dep = deploy(&arch, Mode::MergeAll, &registry_with_probe(&probe)).expect("deploys");
    let head = dep.resolve("ProductionLine").expect("head exists");
    // Ten seconds of injected latency per activation: busy-waiting this
    // schedule would stall the test for minutes.
    dep.install_fault_injector(
        head,
        FaultInjector::new("ProductionLine", 0xA11CE, 1)
            .with_menu(FaultInjector::MENU_LATENCY)
            .with_latency_spike_ns(10_000_000_000)
            .with_virtual_clock(),
    )
    .expect("injector installs");

    let clock0 = dep.timer_clock();
    let wall = Instant::now();
    for _ in 0..20 {
        dep.run_tick().expect("virtual spikes never abort a tick");
    }
    let elapsed_wall = wall.elapsed();
    let elapsed_virtual = dep.timer_clock().since(clock0);

    assert!(
        elapsed_virtual >= RelativeTime::from_millis(20 * 10_000),
        "twenty 10 s spikes must land on the release clock (got {elapsed_virtual})"
    );
    assert!(
        elapsed_wall < Duration::from_secs(5),
        "virtual spikes must not busy-wait the OS clock (took {elapsed_wall:?} \
         for {elapsed_virtual} of virtual time)"
    );
    // Virtual time bends, the books do not.
    let stats = dep.stats();
    assert_eq!(
        stats.async_messages,
        stats.delivered_messages + stats.dropped_messages,
        "ledger must balance under virtual spikes"
    );
    assert_eq!(stats.transactions, 20, "every tick completed");
}

/// A passive service whose first call fails — with a typed error, or with
/// a panic when `panics` — and whose later calls succeed. `calls` counts
/// every call, across the fresh instances restarts install.
#[derive(Debug)]
struct Flaky {
    calls: Arc<AtomicU32>,
    panics: bool,
}

impl Content<u64> for Flaky {
    fn on_invoke(&mut self, _p: &str, _m: &mut u64, _o: &mut dyn Ports<u64>) -> InvokeResult {
        if self.calls.fetch_add(1, Ordering::Relaxed) > 0 {
            return Ok(());
        }
        if self.panics {
            panic!("first call panicked");
        }
        Err(FrameworkError::Faulted {
            component: "svc".into(),
            kind: FaultKind::Error,
            detail: "first call failed".into(),
        })
    }
}

#[derive(Debug)]
struct Calling;

impl Content<u64> for Calling {
    fn on_invoke(&mut self, _p: &str, msg: &mut u64, out: &mut dyn Ports<u64>) -> InvokeResult {
        out.call("svc", msg)
    }
}

/// The periodic `caller` calls the passive `svc`, a `Flaky` service,
/// synchronously.
fn flaky_service(mode: Mode, panics: bool, calls: &Arc<AtomicU32>) -> Deployment<u64> {
    let mut bv = BusinessView::new("flaky-service");
    bv.active_periodic("caller", "5ms").unwrap();
    bv.passive("svc").unwrap();
    bv.content("caller", "Calling").unwrap();
    bv.content("svc", "Flaky").unwrap();
    bv.require("caller", "svc", "ISvc").unwrap();
    bv.provide("svc", "svc", "ISvc").unwrap();
    bv.bind_sync("caller", "svc", "svc", "svc").unwrap();
    let mut flow = DesignFlow::new(bv);
    flow.thread_domain("rt", ThreadKind::Realtime, 22, &["caller"])
        .unwrap();
    flow.memory_area("imm", MemoryKind::Immortal, Some(64 * 1024), &["rt", "svc"])
        .unwrap();
    let arch = flow.merge().unwrap().into_validated().unwrap();
    let mut registry: ContentRegistry<u64> = ContentRegistry::new();
    registry.register("Calling", || Box::new(Calling));
    let calls = calls.clone();
    registry.register("Flaky", move || {
        Box::new(Flaky {
            calls: calls.clone(),
            panics,
        })
    });
    deploy(&arch, mode, &registry).unwrap()
}

/// One lifecycle record gates every mode: a quarantined service survives
/// a committed stop and start, and every mode refuses calls into it until
/// `restart_component` lifts the quarantine.
#[test]
fn a_quarantine_survives_stop_and_start_until_restart_in_every_mode() {
    for mode in [Mode::Soleil, Mode::MergeAll] {
        let calls = Arc::new(AtomicU32::new(0));
        let mut dep = flaky_service(mode, false, &calls);
        let (caller, svc) = (dep.resolve("caller").unwrap(), dep.resolve("svc").unwrap());
        dep.set_fault_policy(svc, FaultPolicy::Isolate).unwrap();
        dep.run_transaction(caller).unwrap();
        assert!(dep.quarantined(svc).unwrap(), "{mode}");

        dep.reconfigure(|txn| {
            txn.stop(svc)?;
            txn.start(svc)
        })
        .unwrap();
        let err = dep.run_transaction(caller).unwrap_err();
        assert!(
            err.to_string().contains("quarantined pending restart"),
            "{mode}: {err}"
        );
        assert!(dep.quarantined(svc).unwrap(), "{mode}");
        assert_eq!(
            calls.load(Ordering::Relaxed),
            1,
            "{mode}: refused, not served"
        );

        dep.restart_component(svc).unwrap();
        dep.run_transaction(caller).unwrap();
        assert_eq!(
            calls.load(Ordering::Relaxed),
            2,
            "{mode}: served after restart"
        );
    }
}

/// An escalated fault changes no lifecycle state: after a synchronously
/// called service panics under the default `Escalate` policy, every mode
/// keeps serving it.
#[test]
fn an_escalated_panic_leaves_the_service_serving_in_every_mode() {
    for mode in [Mode::Soleil, Mode::MergeAll, Mode::UltraMerge] {
        let calls = Arc::new(AtomicU32::new(0));
        let mut dep = flaky_service(mode, true, &calls);
        let (caller, svc) = (dep.resolve("caller").unwrap(), dep.resolve("svc").unwrap());
        let err = dep.run_transaction(caller).unwrap_err();
        assert!(
            matches!(
                err,
                FrameworkError::Faulted {
                    kind: FaultKind::Panic,
                    ..
                }
            ),
            "{mode}: {err}"
        );
        assert!(!dep.quarantined(svc).unwrap(), "{mode}");
        dep.run_transaction(caller).unwrap();
        assert_eq!(calls.load(Ordering::Relaxed), 2, "{mode}: still served");
    }
}

/// A counter that publishes its count to `seen` and checkpoints it. Its
/// `checkpoint` hook panics once: on the first capture after `armed` is
/// set.
#[derive(Debug)]
struct Checkpointed {
    count: u64,
    seen: Arc<AtomicU64>,
    armed: Arc<AtomicBool>,
}

impl Content<u64> for Checkpointed {
    fn on_invoke(&mut self, _p: &str, _m: &mut u64, _o: &mut dyn Ports<u64>) -> InvokeResult {
        self.count += 1;
        self.seen.store(self.count, Ordering::Relaxed);
        Ok(())
    }

    fn state_bytes(&self) -> usize {
        8
    }

    fn checkpoint(&self, image: &mut StateImage) -> bool {
        if self.armed.swap(false, Ordering::Relaxed) {
            panic!("checkpoint panics");
        }
        image.write_u64(self.count)
    }

    fn restore(&mut self, image: &StateImage) {
        if let Some(count) = image.read_u64(0) {
            self.count = count;
        }
    }
}

#[derive(Debug)]
struct Idle;

impl Content<u64> for Idle {
    fn on_invoke(&mut self, _p: &str, _m: &mut u64, _o: &mut dyn Ports<u64>) -> InvokeResult {
        Ok(())
    }
}

/// The periodic `work` counter in domain `d` and an idle periodic
/// component in domain `e`: one shard, or two under `deploy_parallel`.
fn checkpointed_counter(
    mode: Mode,
    sharded: bool,
    seen: &Arc<AtomicU64>,
    armed: &Arc<AtomicBool>,
) -> Deployment<u64> {
    let mut bv = BusinessView::new("checkpointed-counter");
    bv.active_periodic("work", "10ms").unwrap();
    bv.active_periodic("idle", "10ms").unwrap();
    bv.content("work", "Checkpointed").unwrap();
    bv.content("idle", "Idle").unwrap();
    let mut flow = DesignFlow::new(bv);
    flow.thread_domain("d", ThreadKind::Realtime, 20, &["work"])
        .unwrap();
    flow.thread_domain("e", ThreadKind::Realtime, 15, &["idle"])
        .unwrap();
    flow.memory_area("imm", MemoryKind::Immortal, Some(64 * 1024), &["d", "e"])
        .unwrap();
    let arch = flow.merge().unwrap().into_validated().unwrap();
    let mut registry: ContentRegistry<u64> = ContentRegistry::new();
    let (seen, armed) = (seen.clone(), armed.clone());
    registry.register("Checkpointed", move || {
        Box::new(Checkpointed {
            count: 0,
            seen: seen.clone(),
            armed: armed.clone(),
        })
    });
    registry.register("Idle", || Box::new(Idle));
    let dep = if sharded {
        deploy_parallel(&arch, mode, &registry)
    } else {
        deploy(&arch, mode, &registry)
    }
    .unwrap();
    assert_eq!(dep.shard_count(), if sharded { 2 } else { 1 });
    dep
}

/// A `checkpoint` hook that panics on a cadence capture is a fault of its
/// component, caught at the activation boundary like a panicking
/// `on_invoke`, and the domain's memory context is handed back. Under
/// `Escalate` the call returns the typed fault and the next call runs.
/// Under `Isolate` the component is quarantined poisoned, so a restart
/// restores the last healthy image instead of capturing the outgoing
/// instance; the supervised restart of `Restart` does the same. In every
/// mode, on one shard and on two.
#[test]
fn a_panicking_cadence_checkpoint_is_a_contained_fault() {
    let restart = FaultPolicy::Restart {
        max_restarts: 3,
        window: RelativeTime::from_millis(1_000),
        backoff: RelativeTime::from_millis(1),
    };
    for mode in [Mode::Soleil, Mode::MergeAll, Mode::UltraMerge] {
        for sharded in [false, true] {
            for policy in [FaultPolicy::Escalate, FaultPolicy::Isolate, restart] {
                let case = format!("{mode}, sharded: {sharded}, {policy:?}");
                let seen = Arc::new(AtomicU64::new(0));
                let armed = Arc::new(AtomicBool::new(false));
                let mut dep = checkpointed_counter(mode, sharded, &seen, &armed);
                let work = dep.resolve("work").unwrap();
                dep.set_fault_policy(work, policy).unwrap();
                for _ in 0..3 {
                    dep.run_transaction(work).unwrap();
                }
                // Enabling captures count 3: the last healthy image.
                dep.enable_checkpoint(work, 1).unwrap();
                assert_eq!(dep.checkpoint_counts(work).unwrap(), Some((1, 0)), "{case}");
                armed.store(true, Ordering::Relaxed);
                let first = dep.run_transaction(work);
                assert_eq!(seen.load(Ordering::Relaxed), 4, "{case}");
                match policy {
                    FaultPolicy::Escalate => {
                        let panicked = FrameworkError::Faulted {
                            component: "work".into(),
                            kind: FaultKind::Panic,
                            detail: "checkpoint panics".into(),
                        };
                        assert_eq!(first, Err(panicked), "{case}");
                        assert!(!dep.quarantined(work).unwrap(), "{case}");
                        dep.run_transaction(work).unwrap();
                        assert_eq!(seen.load(Ordering::Relaxed), 5, "{case}");
                    }
                    FaultPolicy::Isolate => {
                        first.unwrap();
                        assert!(dep.quarantined(work).unwrap(), "{case}");
                        dep.restart_component(work).unwrap();
                        // Poisoned: no capture of the outgoing instance (4);
                        // the fresh one restores 3.
                        assert_eq!(dep.checkpoint_counts(work).unwrap(), Some((1, 1)), "{case}");
                        dep.run_transaction(work).unwrap();
                        assert_eq!(seen.load(Ordering::Relaxed), 4, "{case}");
                    }
                    FaultPolicy::Restart { .. } => {
                        first.unwrap();
                        assert!(dep.quarantined(work).unwrap(), "{case}");
                        // The backoff expires within one tick: the restart
                        // restores 3, then the tick's release counts 4.
                        dep.run_tick().unwrap();
                        assert!(!dep.quarantined(work).unwrap(), "{case}");
                        assert_eq!(dep.supervision_counts(work).unwrap().1, 1, "{case}");
                        assert_eq!(seen.load(Ordering::Relaxed), 4, "{case}");
                        assert_eq!(dep.checkpoint_counts(work).unwrap(), Some((2, 1)), "{case}");
                    }
                }
                dep.run_tick().unwrap();
            }
        }
    }
}
