//! The validator acceptance/rejection catalog, exercised through the
//! public design-flow API: every rule of the paper's composition semantics
//! demonstrated with a minimal architecture that trips it — and the
//! generator refusing exactly the non-compliant ones.

use soleil::generator::compile;
use soleil::prelude::*;

/// The refusal shorthand: a non-compliant architecture must be refused by
/// the consuming validator, so it can never become deployment input.
fn refused(arch: &Architecture) -> bool {
    arch.clone().into_validated().is_err()
}

/// Pins a report's exact rendering, one line per diagnostic: code,
/// severity, subject, message, suggestion and order.
#[track_caller]
fn assert_renders(report: &ValidationReport, expected: &[&str]) {
    let text = report.to_string();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines, expected, "rendered report:\n{text}");
}

/// Helper: a business view with one periodic producer and one sporadic
/// consumer bound asynchronously.
fn producer_consumer() -> BusinessView {
    let mut b = BusinessView::new("pc");
    b.active_periodic("producer", "10ms").unwrap();
    b.active_sporadic("consumer").unwrap();
    b.content("producer", "P").unwrap();
    b.content("consumer", "C").unwrap();
    b.require("producer", "out", "IMsg").unwrap();
    b.provide("consumer", "in", "IMsg").unwrap();
    b.bind_async("producer", "out", "consumer", "in", 8)
        .unwrap();
    b
}

#[test]
fn fully_deployed_architecture_is_compliant_and_compiles() {
    let mut flow = DesignFlow::new(producer_consumer());
    flow.thread_domain("rt", ThreadKind::Realtime, 25, &["producer", "consumer"])
        .unwrap();
    flow.memory_area("imm", MemoryKind::Immortal, Some(64 * 1024), &["rt"])
        .unwrap();
    let arch = flow.merge().unwrap();
    let report = validate(&arch);
    assert!(report.is_compliant(), "{report}");
    assert_renders(&report, &["architecture is RTSJ-compliant (no findings)"]);
    compile(&arch.into_validated().expect("compliant")).expect("compliant architectures compile");
}

#[test]
fn sol001_active_component_needs_exactly_one_domain() {
    // Zero domains.
    let mut flow = DesignFlow::new(producer_consumer());
    flow.memory_area(
        "imm",
        MemoryKind::Immortal,
        Some(64 * 1024),
        &["producer", "consumer"],
    )
    .unwrap();
    let arch = flow.merge().unwrap();
    let report = validate(&arch);
    assert!(!report.is_compliant());
    assert_eq!(report.by_code("SOL-001").count(), 2);
    assert!(refused(&arch), "witness refused");
    assert_renders(&report, &[
        "[SOL-001] error (producer): active component is not nested in any ThreadDomain — suggestion: deploy it into a ThreadDomain in the thread-management view",
        "[SOL-001] error (consumer): active component is not nested in any ThreadDomain — suggestion: deploy it into a ThreadDomain in the thread-management view",
    ]);

    // Two domains for the same component.
    let mut flow = DesignFlow::new(producer_consumer());
    flow.thread_domain("d1", ThreadKind::Realtime, 25, &["producer", "consumer"])
        .unwrap();
    flow.thread_domain("d2", ThreadKind::Realtime, 20, &["producer"])
        .unwrap();
    flow.memory_area("imm", MemoryKind::Immortal, Some(64 * 1024), &["d1", "d2"])
        .unwrap();
    let arch = flow.merge().unwrap();
    let report = validate(&arch);
    assert!(report
        .by_code("SOL-001")
        .any(|d| d.message.contains("2 ThreadDomains")));
    assert_renders(&report, &[
        "[SOL-001] error (producer): active component is nested in 2 ThreadDomains — suggestion: an active component must have a unique ThreadDomain",
    ]);
}

#[test]
fn sol003_nhrt_domain_must_not_reach_heap() {
    let mut flow = DesignFlow::new(producer_consumer());
    flow.thread_domain(
        "nhrt",
        ThreadKind::NoHeapRealtime,
        30,
        &["producer", "consumer"],
    )
    .unwrap();
    flow.memory_area("h", MemoryKind::Heap, None, &["nhrt"])
        .unwrap();
    let arch = flow.merge().unwrap();
    let report = validate(&arch);
    assert!(!report.is_compliant());
    assert!(report.by_code("SOL-003").next().is_some(), "{report}");
    assert_renders(&report, &[
        "[SOL-003] error (producer): member of NHRT domain 'nhrt' is allocated in heap memory — suggestion: allocate NHRT members in immortal or scoped memory",
        "[SOL-003] error (consumer): member of NHRT domain 'nhrt' is allocated in heap memory — suggestion: allocate NHRT members in immortal or scoped memory",
    ]);
}

#[test]
fn sol005_priority_bands_enforced() {
    let mut flow = DesignFlow::new(producer_consumer());
    // Regular domain with a real-time priority.
    flow.thread_domain("reg", ThreadKind::Regular, 40, &["producer", "consumer"])
        .unwrap();
    flow.memory_area("imm", MemoryKind::Immortal, Some(64 * 1024), &["reg"])
        .unwrap();
    let arch = flow.merge().unwrap();
    let report = validate(&arch);
    assert!(report
        .by_code("SOL-005")
        .any(|d| d.severity == Severity::Error));
    assert_renders(&report, &[
        "[SOL-005] error (reg): priority 40 is outside the band for Regular threads — suggestion: real-time domains need priority >= 11, regular domains < 11",
    ]);
}

#[test]
fn sol007_patterns_reported_for_cross_area_bindings() {
    let mut b = BusinessView::new("cross");
    b.active_sporadic("caller").unwrap();
    b.passive("scoped-svc").unwrap();
    b.content("caller", "C").unwrap();
    b.content("scoped-svc", "S").unwrap();
    b.require("caller", "svc", "ISvc").unwrap();
    b.provide("scoped-svc", "svc", "ISvc").unwrap();
    b.bind_sync("caller", "svc", "scoped-svc", "svc").unwrap();
    // Trigger warning SOL-009 is irrelevant here; focus on the pattern info.
    let mut flow = DesignFlow::new(b);
    flow.thread_domain("rt", ThreadKind::Realtime, 25, &["caller"])
        .unwrap();
    flow.memory_area("imm", MemoryKind::Immortal, Some(64 * 1024), &["rt"])
        .unwrap();
    flow.memory_area("s", MemoryKind::Scoped, Some(8 * 1024), &["scoped-svc"])
        .unwrap();
    let arch = flow.merge().unwrap();
    let report = validate(&arch);
    assert!(
        report
            .by_code("SOL-007")
            .any(|d| d.message.contains("enter-inner")),
        "{report}"
    );
    assert_renders(&report, &[
        "[SOL-007] info (caller.svc -> scoped-svc.svc): cross-scope binding: memory interceptor will use 'enter-inner' — suggestion: pattern enter-inner is generated automatically",
        "[SOL-009] warning (caller): sporadic active component has no incoming asynchronous binding to trigger it — suggestion: bind a producer to one of its server interfaces asynchronously",
    ]);
}

#[test]
fn sol008_sync_into_active_warned_but_compliant() {
    let mut b = BusinessView::new("warn");
    b.active_periodic("caller", "10ms").unwrap();
    b.active_sporadic("callee").unwrap();
    b.content("caller", "C").unwrap();
    b.content("callee", "D").unwrap();
    b.require("caller", "out", "I").unwrap();
    b.provide("callee", "in", "I").unwrap();
    b.bind_sync("caller", "out", "callee", "in").unwrap();
    let mut flow = DesignFlow::new(b);
    flow.thread_domain("rt", ThreadKind::Realtime, 25, &["caller", "callee"])
        .unwrap();
    flow.memory_area("imm", MemoryKind::Immortal, Some(64 * 1024), &["rt"])
        .unwrap();
    let arch = flow.merge().unwrap();
    let report = validate(&arch);
    assert!(report
        .by_code("SOL-008")
        .any(|d| d.severity == Severity::Warning));
    assert!(report
        .by_code("SOL-009")
        .any(|d| d.severity == Severity::Warning));
    // Warnings do not block generation.
    assert!(report.is_compliant());
    assert_renders(&report, &[
        "[SOL-008] warning (caller.out -> callee.in): synchronous call into an active component breaks run-to-completion — suggestion: use an asynchronous binding with a message buffer",
        "[SOL-009] warning (callee): sporadic active component has no incoming asynchronous binding to trigger it — suggestion: bind a producer to one of its server interfaces asynchronously",
    ]);
}

#[test]
fn sol010_zero_capacity_buffer_is_refused() {
    let mut b = BusinessView::new("zb");
    b.active_periodic("p", "10ms").unwrap();
    b.active_sporadic("c").unwrap();
    b.content("p", "P").unwrap();
    b.content("c", "C").unwrap();
    b.require("p", "out", "I").unwrap();
    b.provide("c", "in", "I").unwrap();
    b.bind_async("p", "out", "c", "in", 0).unwrap();
    let mut flow = DesignFlow::new(b);
    flow.thread_domain("rt", ThreadKind::Realtime, 25, &["p", "c"])
        .unwrap();
    flow.memory_area("imm", MemoryKind::Immortal, Some(64 * 1024), &["rt"])
        .unwrap();
    let arch = flow.merge().unwrap();
    let report = validate(&arch);
    assert!(!report.is_compliant());
    assert!(refused(&arch));
    assert_renders(&report, &[
        "[SOL-010] error (p.out -> c.in): asynchronous binding with zero-capacity buffer — suggestion: declare bufferSize >= 1",
    ]);
}

#[test]
fn validator_report_lists_suggestions() {
    let mut flow = DesignFlow::new(producer_consumer());
    flow.memory_area(
        "imm",
        MemoryKind::Immortal,
        Some(64 * 1024),
        &["producer", "consumer"],
    )
    .unwrap();
    let arch = flow.merge().unwrap();
    let report = validate(&arch);
    let with_suggestions = report
        .diagnostics()
        .iter()
        .filter(|d| d.suggestion.is_some())
        .count();
    assert!(with_suggestions > 0, "diagnostics carry remediation hints");
    // Display form mentions the rule codes.
    let text = report.to_string();
    assert!(text.contains("SOL-001"));
}

#[test]
fn rejection_carries_the_report() {
    let mut flow = DesignFlow::new(producer_consumer());
    flow.memory_area(
        "imm",
        MemoryKind::Immortal,
        Some(64 * 1024),
        &["producer", "consumer"],
    )
    .unwrap();
    let arch = flow.merge().unwrap();
    // The consuming validator's rejection renders the structured report...
    let rejected = arch.into_validated().unwrap_err();
    let text = rejected.to_string();
    assert!(text.contains("violates RTSJ"));
    assert!(text.contains("SOL-001"));
}

/// SOL-020…022 are the catalog's *online* rules: emitted by the runtime's
/// `health_report()` rather than the design-time validator, but rendered
/// through the same `ValidationReport` machinery — codes, severities,
/// subjects and remediation suggestions included.
#[test]
fn sol020_to_022_supervision_codes_surface_online() {
    use soleil::generator::deploy;

    let mut flow = DesignFlow::new(producer_consumer());
    flow.thread_domain("rt", ThreadKind::Realtime, 25, &["producer", "consumer"])
        .unwrap();
    flow.memory_area("imm", MemoryKind::Immortal, Some(64 * 1024), &["rt"])
        .unwrap();
    let arch = flow.merge().unwrap().into_validated().expect("compliant");

    #[derive(Debug, Default)]
    struct Relay;
    impl Content<u64> for Relay {
        fn on_invoke(&mut self, _p: &str, msg: &mut u64, out: &mut dyn Ports<u64>) -> InvokeResult {
            match out.send("out", *msg) {
                Ok(()) | Err(FrameworkError::Binding(_)) => Ok(()),
                Err(e) => Err(e),
            }
        }
    }
    let mut registry: ContentRegistry<u64> = ContentRegistry::new();
    registry.register("P", || Box::new(Relay));
    registry.register("C", || Box::new(Relay));
    let mut dep = deploy(&arch, Mode::MergeAll, &registry).expect("deploys");
    let consumer = dep.resolve("consumer").expect("resolves");

    // A healthy deployment reports nothing.
    assert!(dep.health_report().is_empty());

    // One contained fault under Isolate: SOL-020 (error, quarantined, with
    // a remediation suggestion) — then counted drops bring SOL-022.
    dep.set_fault_policy(consumer, FaultPolicy::Isolate)
        .expect("policy attaches");
    dep.install_fault_injector(
        consumer,
        FaultInjector::new("consumer", 9, 1).with_menu(FaultInjector::MENU_ERROR),
    )
    .expect("injector installs");
    let head = dep.resolve("producer").expect("resolves");
    dep.run_transaction(head).expect("contained");
    let report = dep.health_report();
    let quarantine = report
        .by_code("SOL-020")
        .next()
        .expect("quarantine finding");
    assert_eq!(quarantine.subject, "consumer");
    assert!(quarantine.suggestion.is_some(), "carries remediation");
    dep.run_transaction(head)
        .expect("drop is counted, not fatal");
    assert!(dep.health_report().by_code("SOL-022").next().is_some());

    // An exhausted restart budget: SOL-021 names the component and the
    // fault escalates with the original typed error.
    dep.set_fault_policy(
        consumer,
        FaultPolicy::Restart {
            max_restarts: 0,
            window: RelativeTime::from_millis(1_000),
            backoff: RelativeTime::from_millis(1),
        },
    )
    .expect("policy attaches");
    dep.restart_component(consumer).expect("restarts");
    let escalated = dep.run_transaction(head).unwrap_err();
    assert!(matches!(escalated, FrameworkError::Faulted { .. }));
    let report = dep.health_report();
    assert!(report.by_code("SOL-021").any(|d| d.subject == "consumer"));
}

/// The Fig. 4 motivation architecture renders one finding: the
/// enter-inner pattern of the console binding.
#[test]
fn motivation_report_is_pinned() {
    let arch = soleil::scenario::motivation_architecture().unwrap();
    assert_renders(&validate(&arch), &[
        "[SOL-007] info (MonitoringSystem.iConsole -> Console.iConsole): cross-scope binding: memory interceptor will use 'enter-inner' — suggestion: pattern enter-inner is generated automatically",
    ]);
}

/// A churn-shaped fixture: `worker` calls the active `sink` synchronously
/// (SOL-008) and nothing triggers `spare` (SOL-009).
#[test]
fn churn_shaped_report_is_pinned() {
    let mut b = BusinessView::new("churn");
    b.active_periodic("producer", "10ms").unwrap();
    b.active_sporadic("worker").unwrap();
    b.active_sporadic("sink").unwrap();
    b.active_sporadic("spare").unwrap();
    b.content("producer", "Stamper").unwrap();
    b.content("worker", "Worker").unwrap();
    b.content("sink", "Service").unwrap();
    b.content("spare", "Service").unwrap();
    b.require("producer", "out1", "I").unwrap();
    b.require("producer", "out2", "I").unwrap();
    b.require("worker", "peer", "I").unwrap();
    b.provide("worker", "in", "I").unwrap();
    b.provide("sink", "in", "I").unwrap();
    b.provide("spare", "in", "I").unwrap();
    b.bind_async("producer", "out1", "worker", "in", 64)
        .unwrap();
    b.bind_async("producer", "out2", "sink", "in", 64).unwrap();
    b.bind_sync("worker", "peer", "sink", "in").unwrap();
    let mut flow = DesignFlow::new(b);
    flow.thread_domain("A", ThreadKind::NoHeapRealtime, 30, &["producer"])
        .unwrap();
    flow.thread_domain("B", ThreadKind::NoHeapRealtime, 25, &["worker"])
        .unwrap();
    flow.thread_domain("C", ThreadKind::Realtime, 20, &["sink", "spare"])
        .unwrap();
    for (area, domain) in [("ImmA", "A"), ("ImmB", "B"), ("ImmC", "C")] {
        flow.memory_area(area, MemoryKind::Immortal, Some(1 << 20), &[domain])
            .unwrap();
    }
    let arch = flow.merge().unwrap();
    let report = validate(&arch);
    assert!(report.is_compliant(), "{report}");
    assert_renders(&report, &[
        "[SOL-008] warning (worker.peer -> sink.in): synchronous call into an active component breaks run-to-completion — suggestion: use an asynchronous binding with a message buffer",
        "[SOL-009] warning (spare): sporadic active component has no incoming asynchronous binding to trigger it — suggestion: bind a producer to one of its server interfaces asynchronously",
    ]);
}
