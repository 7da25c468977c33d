//! Fault-campaign integration tests across the facade: injected latency
//! spikes against declarative deadline contracts (serial and parallel),
//! and the wall-clock independence of virtual-clock spikes — a campaign
//! with seconds of injected virtual latency must finish in real
//! milliseconds, because the injector charges the engine's release clock
//! instead of busy-waiting the OS clock.

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
