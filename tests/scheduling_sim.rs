//! Virtual-time scheduling integration: the compiled motivation
//! architecture deployed on the deterministic scheduler, plus the E5
//! determinism experiment's invariants at integration level.

use rtsj::gc::GcConfig;
use rtsj::thread::ThreadKind;
use rtsj::time::{AbsoluteTime, RelativeTime};
use soleil::generator::compile;
use soleil::runtime::sim::{deploy, SimCosts, SimOptions};
use soleil::scenario::motivation_validated;

fn costs() -> SimCosts {
    SimCosts::uniform(RelativeTime::from_micros(50))
        .with("ProductionLine", RelativeTime::from_micros(40))
        .with("MonitoringSystem", RelativeTime::from_micros(80))
        .with("AuditLog", RelativeTime::from_micros(40))
}

#[test]
fn motivation_pipeline_schedules_cleanly_without_gc() {
    let spec = compile(&motivation_validated().unwrap()).unwrap();
    let mut d = deploy(&spec, &costs(), &SimOptions::default());
    d.simulator.run_until(AbsoluteTime::from_millis(1_000));

    // 100 production releases over 1 s at 10 ms.
    let pl = d.tasks["ProductionLine"];
    let stats = d.simulator.stats(pl).unwrap();
    assert_eq!(stats.releases, 100);
    assert_eq!(stats.completions, 100);
    assert_eq!(stats.deadline_misses, 0);

    // Every stage ran once per release; end-to-end latency is the sum of
    // stage costs when uncontended (40 + 80 + 40 us).
    assert_eq!(d.simulator.transactions().len(), 100);
    assert!(d
        .simulator
        .transactions()
        .iter()
        .all(|&t| t == RelativeTime::from_micros(160)));
}

#[test]
fn nhrt_design_immune_to_gc_regular_is_not() {
    let spec = compile(&motivation_validated().unwrap()).unwrap();
    let gc = GcConfig::periodic(RelativeTime::from_millis(40), RelativeTime::from_millis(12));

    let mut as_designed = deploy(
        &spec,
        &costs(),
        &SimOptions {
            force_thread_kind: None,
            gc: Some(gc),
        },
    );
    as_designed
        .simulator
        .run_until(AbsoluteTime::from_millis(2_000));
    let pl = as_designed.tasks["ProductionLine"];
    let st = as_designed.simulator.stats(pl).unwrap();
    assert_eq!(st.deadline_misses, 0);
    let summary = st.response_summary().unwrap();
    assert_eq!(
        summary.jitter,
        RelativeTime::ZERO,
        "NHRT stage perfectly flat"
    );
    assert!(as_designed.simulator.trace().ran_during_gc(pl));

    let mut forced = deploy(
        &spec,
        &costs(),
        &SimOptions {
            force_thread_kind: Some(ThreadKind::Regular),
            gc: Some(gc),
        },
    );
    forced.simulator.run_until(AbsoluteTime::from_millis(2_000));
    let pl = forced.tasks["ProductionLine"];
    let st = forced.simulator.stats(pl).unwrap();
    assert!(st.deadline_misses > 0, "regular threads eat the GC pauses");
    assert!(!forced.simulator.trace().ran_during_gc(pl));
    assert!(st.response_summary().unwrap().max >= RelativeTime::from_millis(10));
}

#[test]
fn priorities_from_domains_drive_preemption() {
    // ProductionLine (p30) preempts MonitoringSystem (p25): when both are
    // ready, production completes first even if monitoring was released
    // earlier. Verify through the trace: monitoring never runs while
    // production has remaining work.
    let spec = compile(&motivation_validated().unwrap()).unwrap();
    // Make monitoring slow enough to overlap the next production release.
    let costs = SimCosts::uniform(RelativeTime::from_micros(50))
        .with("MonitoringSystem", RelativeTime::from_micros(9_800));
    let mut d = deploy(&spec, &costs, &SimOptions::default());
    d.simulator.run_until(AbsoluteTime::from_millis(500));
    let pl_stats = d.simulator.stats(d.tasks["ProductionLine"]).unwrap();
    // The production line is never delayed by the lower-priority monitor.
    assert!(pl_stats
        .response_times
        .iter()
        .all(|&r| r == RelativeTime::from_micros(50)));
    assert_eq!(pl_stats.deadline_misses, 0);
}

#[test]
fn utilization_sweep_finds_the_breaking_point() {
    // Scale the monitoring cost until the pipeline stops meeting its
    // 10 ms production period; the breaking point must exist and be
    // monotone (once it misses, higher cost keeps missing).
    let spec = compile(&motivation_validated().unwrap()).unwrap();
    let mut first_miss: Option<u64> = None;
    let mut seen_meeting_after_miss = false;
    for cost_us in [1_000u64, 4_000, 8_000, 9_500, 11_000, 14_000] {
        let costs = SimCosts::uniform(RelativeTime::from_micros(40))
            .with("MonitoringSystem", RelativeTime::from_micros(cost_us));
        let mut d = deploy(&spec, &costs, &SimOptions::default());
        d.simulator.run_until(AbsoluteTime::from_millis(1_000));
        let misses: u64 = d
            .tasks
            .values()
            .map(|&t| d.simulator.stats(t).unwrap().deadline_misses)
            .sum();
        if misses > 0 {
            first_miss.get_or_insert(cost_us);
        } else if first_miss.is_some() {
            seen_meeting_after_miss = true;
        }
    }
    let breaking = first_miss.expect("overload must eventually miss");
    assert!(breaking > 4_000, "well-dimensioned costs meet deadlines");
    assert!(!seen_meeting_after_miss, "misses are monotone in cost");
}

#[test]
fn runtime_contract_verdicts_agree_with_the_analytic_simulator() {
    // The same architecture, two clocks: the virtual-time simulator
    // computes analytic deadline verdicts from declared costs; the
    // wall-clock engine records real latencies into the contract
    // histograms. On a healthy configuration both must report zero
    // misses; on a pathological one both must detect the failure.
    use soleil::prelude::*;
    use soleil::runtime::sim::deploy as sim_deploy;
    use soleil::scenario::{registry_with_probe, ScenarioProbe};

    let arch = motivation_validated().unwrap();
    let spec = compile(&arch).unwrap();

    // Healthy, analytic: well-dimensioned costs meet every deadline.
    let mut sim = sim_deploy(&spec, &costs(), &SimOptions::default());
    sim.simulator.run_until(AbsoluteTime::from_millis(1_000));
    assert_eq!(sim.deadline_misses(), 0, "analytic run must be clean");

    // Healthy, wall-clock: a generous contract on the same head stays
    // compliant, and its histogram is internally consistent.
    let probe = ScenarioProbe::new();
    let mut dep =
        soleil::generator::deploy(&arch, Mode::MergeAll, &registry_with_probe(&probe)).unwrap();
    let head = dep.resolve("ProductionLine").unwrap();
    dep.attach_contract(
        head,
        TimingContract::new().with_deadline(RelativeTime::from_millis(500)),
    )
    .unwrap();
    for _ in 0..200 {
        dep.run_transaction(head).unwrap();
    }
    assert_eq!(dep.deadline_misses(), 0, "wall-clock run must agree");
    let snap = dep.latency_snapshot(head).unwrap().expect("monitored");
    assert_eq!(snap.activations, 200);
    assert!(snap.min_ns <= snap.p50_ns && snap.p50_ns <= snap.p99_ns);
    assert!(snap.p99_ns <= snap.max_ns.max(snap.p99_ns));
    assert!(dep.contract_report().is_empty(), "no SOL-016..019 expected");

    // Pathological, analytic: overload one stage past the 10 ms period.
    let overload = SimCosts::uniform(RelativeTime::from_micros(40))
        .with("MonitoringSystem", RelativeTime::from_micros(14_000));
    let mut sim = sim_deploy(&spec, &overload, &SimOptions::default());
    sim.simulator.run_until(AbsoluteTime::from_millis(1_000));
    assert!(sim.deadline_misses() > 0, "overload must miss analytically");

    // Pathological, wall-clock: a zero deadline no real transaction can
    // meet — every activation misses and the verdict surfaces as SOL-016.
    assert!(dep.detach_contract(head).unwrap());
    dep.attach_contract(
        head,
        TimingContract::new().with_deadline(RelativeTime::ZERO),
    )
    .unwrap();
    for _ in 0..50 {
        dep.run_transaction(head).unwrap();
    }
    assert_eq!(dep.deadline_misses(), 50, "every activation misses");
    let report = dep.contract_report();
    assert_eq!(report.by_code("SOL-016").count(), 1, "{report}");
}

/// Two NHRT domains (priorities 25 and 31) calling one passive console:
/// the validator gives the console a priority ceiling (SOL-014).
fn shared_console_arch() -> soleil::core::ValidatedArchitecture {
    use soleil::prelude::*;
    let mut b = BusinessView::new("shared-console");
    b.active_sporadic("m1").unwrap();
    b.active_sporadic("m2").unwrap();
    b.passive("console").unwrap();
    b.content("m1", "M").unwrap();
    b.content("m2", "M").unwrap();
    b.content("console", "C").unwrap();
    b.require("m1", "c", "IC").unwrap();
    b.require("m2", "c", "IC").unwrap();
    b.provide("console", "c", "IC").unwrap();
    b.bind_sync("m1", "c", "console", "c").unwrap();
    b.bind_sync("m2", "c", "console", "c").unwrap();
    let mut flow = DesignFlow::new(b);
    flow.thread_domain("d1", ThreadKind::NoHeapRealtime, 25, &["m1"])
        .unwrap();
    flow.thread_domain("d2", ThreadKind::NoHeapRealtime, 31, &["m2"])
        .unwrap();
    flow.memory_area(
        "imm",
        MemoryKind::Immortal,
        Some(64 * 1024),
        &["d1", "d2", "console"],
    )
    .unwrap();
    flow.merge().unwrap().into_validated().unwrap()
}

#[test]
fn ceiling_metadata_reaches_the_spec() {
    // The motivation example's Console is called from a single domain: no
    // ceiling. A variant with a second NHRT domain calling it gets one.
    let spec = compile(&motivation_validated().unwrap()).unwrap();
    assert_eq!(spec.ceiling(spec.component_index("Console").unwrap()), None);

    let arch = shared_console_arch();
    let report = arch.report();
    assert!(report.by_code("SOL-014").next().is_some(), "{report}");
    let spec = compile(&arch).unwrap();
    assert_eq!(
        spec.ceiling(spec.component_index("console").unwrap()),
        Some(31),
        "max of the two client priorities"
    );
}

/// A deployment reads the ceiling through a resolved token: the
/// `ComponentRef` is checked, never looked up again by name.
#[test]
fn ceiling_of_a_token_performs_no_name_lookup() {
    use soleil::prelude::*;
    #[derive(Debug)]
    struct Noop;
    impl Content<u64> for Noop {
        fn on_invoke(&mut self, _p: &str, _m: &mut u64, _o: &mut dyn Ports<u64>) -> InvokeResult {
            Ok(())
        }
    }
    let mut registry: ContentRegistry<u64> = ContentRegistry::new();
    registry.register("M", || Box::new(Noop));
    registry.register("C", || Box::new(Noop));
    let arch = shared_console_arch();
    for mode in [Mode::Soleil, Mode::MergeAll, Mode::UltraMerge] {
        let dep = soleil::deploy(&arch, mode, &registry).unwrap();
        let console = dep.resolve("console").unwrap();
        let m1 = dep.resolve("m1").unwrap();
        let lookups = dep.name_lookups();
        assert_eq!(
            dep.ceiling_of(console).unwrap(),
            Some(Priority::new(31)),
            "{mode}"
        );
        assert_eq!(dep.ceiling_of(m1).unwrap(), None, "{mode}");
        assert_eq!(dep.name_lookups(), lookups, "{mode}");
    }
}
