//! End-to-end integration: ADL text → validation → generation → execution,
//! across every generation mode, checked against the hand-written OO
//! oracle.

use soleil::core::adl::{from_xml, to_json, to_xml, MOTIVATION_EXAMPLE_XML};
use soleil::generator::{compile, GeneratorError};
use soleil::prelude::*;
use soleil::rtsj::memory::AreaId;
use soleil::rtsj::RtsjError;
use soleil::scenario::{
    motivation_architecture, motivation_validated, registry, registry_with_probe, OoSystem,
    ScenarioProbe,
};

const MODES: [Mode; 3] = [Mode::Soleil, Mode::MergeAll, Mode::UltraMerge];

#[test]
fn adl_to_running_system_in_every_mode() {
    let arch = from_xml(MOTIVATION_EXAMPLE_XML)
        .expect("fixture parses")
        .into_validated()
        .expect("fixture is compliant");
    assert!(arch.report().is_compliant());

    for mode in MODES {
        let probe = ScenarioProbe::new();
        let mut sys = deploy(&arch, mode, &registry_with_probe(&probe)).expect("deploys");
        let head = sys.resolve("ProductionLine").expect("head exists");
        for _ in 0..100 {
            sys.run_transaction(head).expect("transaction");
        }
        assert_eq!(sys.stats().transactions, 100, "{mode}");
        assert_eq!(probe.audits(), 100, "{mode}: every measurement audited");
        assert_eq!(probe.consoles(), 10, "{mode}: every 10th is anomalous");
        assert_eq!(sys.stats().dropped_messages, 0, "{mode}");
    }
}

#[test]
fn steady_state_loop_is_free_of_name_resolution() {
    // The acceptance property of the typed deployment API: after the cold
    // resolve, driving transactions performs zero name lookups.
    let arch = motivation_validated().expect("fixture validates");
    for mode in MODES {
        let probe = ScenarioProbe::new();
        let mut dep = deploy(&arch, mode, &registry_with_probe(&probe)).expect("deploys");
        let head = dep.resolve("ProductionLine").expect("head exists");
        let baseline = dep.name_lookups();
        for _ in 0..200 {
            dep.run_transaction(head).expect("transaction");
        }
        assert_eq!(
            dep.name_lookups(),
            baseline,
            "{mode}: run_transaction must not resolve names"
        );
        // Injection through a pre-resolved PortRef is equally string-free.
        let monitoring = dep.resolve("MonitoringSystem").expect("resolves");
        let port = dep.port(monitoring, "iMonitor").expect("port resolves");
        let baseline = dep.name_lookups();
        for _ in 0..50 {
            dep.inject(port, Default::default()).expect("inject");
        }
        assert_eq!(
            dep.name_lookups(),
            baseline,
            "{mode}: inject must not resolve names"
        );
    }
}

#[test]
fn all_implementations_agree_with_oo_oracle() {
    const N: usize = 200;
    let oo_probe = ScenarioProbe::new();
    let mut oo = OoSystem::new(&oo_probe).expect("baseline builds");
    for _ in 0..N {
        oo.run_transaction().expect("oo transaction");
    }

    let arch = motivation_validated().expect("fixture validates");
    for mode in MODES {
        let probe = ScenarioProbe::new();
        let mut sys = deploy(&arch, mode, &registry_with_probe(&probe)).expect("deploys");
        let head = sys.resolve("ProductionLine").expect("head exists");
        for _ in 0..N {
            sys.run_transaction(head).expect("transaction");
        }
        assert_eq!(probe.audits(), oo_probe.audits(), "{mode}");
        assert_eq!(probe.consoles(), oo_probe.consoles(), "{mode}");
        let delta = (probe.value_sum() - oo_probe.value_sum()).abs();
        assert!(
            delta < 1e-9,
            "{mode}: functional fingerprint drifted by {delta}"
        );
    }
}

#[test]
fn serialization_forms_are_interchangeable() {
    let arch = motivation_architecture().expect("fixture parses");
    // XML round trip, then JSON round trip, still generates and runs.
    let xml = to_xml(&arch);
    let from_xml_again = from_xml(&xml).expect("roundtrips");
    let json = to_json(&from_xml_again);
    let restored = soleil::core::adl::from_json(&json)
        .expect("json roundtrips")
        .into_validated()
        .expect("roundtrip stays compliant");

    let probe = ScenarioProbe::new();
    let mut sys = deploy(&restored, Mode::MergeAll, &registry_with_probe(&probe)).expect("deploys");
    let head = sys.resolve("ProductionLine").expect("head exists");
    for _ in 0..30 {
        sys.run_transaction(head).expect("transaction");
    }
    assert_eq!(probe.audits(), 30);
}

#[test]
fn footprint_shape_matches_fig7c() {
    let arch = motivation_validated().expect("fixture validates");
    let mut totals = Vec::new();
    for mode in MODES {
        let probe = ScenarioProbe::new();
        let sys = deploy(&arch, mode, &registry_with_probe(&probe)).expect("deploys");
        totals.push((mode, sys.footprint().framework_bytes));
    }
    assert!(
        totals[0].1 > 4 * totals[1].1,
        "SOLEIL ({} B) should dwarf MERGE-ALL ({} B)",
        totals[0].1,
        totals[1].1
    );
    assert!(
        totals[1].1 > totals[2].1,
        "MERGE-ALL ({} B) should exceed ULTRA-MERGE ({} B)",
        totals[1].1,
        totals[2].1
    );
}

#[test]
fn engine_counters_are_exact() {
    let arch = motivation_validated().expect("fixture validates");
    let probe = ScenarioProbe::new();
    let mut sys = deploy(&arch, Mode::Soleil, &registry_with_probe(&probe)).expect("deploys");
    let head = sys.resolve("ProductionLine").expect("head exists");
    for _ in 0..50 {
        sys.run_transaction(head).expect("transaction");
    }
    let st = sys.stats();
    // Per transaction: 3 activations (ProductionLine, MonitoringSystem, AuditLog).
    assert_eq!(st.activations, 150);
    // Two async messages per transaction.
    assert_eq!(st.async_messages, 100);
    // One sync console call per anomaly (every 10th).
    assert_eq!(st.sync_calls, 5);
}

#[test]
fn shutdown_reclaims_scoped_memory_in_all_modes() {
    let arch = motivation_validated().expect("fixture validates");
    for mode in MODES {
        let probe = ScenarioProbe::new();
        let mut sys = deploy(&arch, mode, &registry_with_probe(&probe)).expect("deploys");
        let s1 = sys
            .memory()
            .area_by_name("S1")
            .expect("console scope exists");
        assert!(sys.memory().stats(s1).expect("stats").consumed > 0);
        sys.shutdown().expect("shutdown");
        assert_eq!(sys.memory().stats(s1).expect("stats").consumed, 0, "{mode}");
    }
}

#[test]
fn compile_is_deterministic() {
    let arch = motivation_validated().expect("fixture validates");
    let a = compile(&arch).expect("compiles");
    let b = compile(&arch).expect("compiles");
    assert_eq!(a, b, "same architecture must compile to the same spec");
}

/// An untrusted `bufferSize` on the first binding is refused with a typed
/// out-of-memory error before any ring storage exists — by the serial
/// deploy (an `ExchangeBuffer`) and the sharded one (an SPSC ring), in
/// every mode. The sizes overflow the backing-store product (2^61 messages
/// of 16 bytes), exceed every budget (2^40), and have no power of two in
/// `usize` (2^63 + 1). In release the overflows would wrap instead of
/// panicking, so this test runs in both profiles.
#[test]
fn untrusted_buffer_sizes_are_refused_before_allocating() {
    for size in [1usize << 61, 1 << 40, (1 << 63) + 1] {
        let xml = MOTIVATION_EXAMPLE_XML.replacen(
            r#"bufferSize="10""#,
            &format!(r#"bufferSize="{size}""#),
            1,
        );
        let arch = from_xml(&xml)
            .expect("parses")
            .into_validated()
            .expect("validates");
        for mode in MODES {
            let refusals = [
                ("deploy", deploy(&arch, mode, &registry()).map(drop)),
                (
                    "deploy_parallel",
                    deploy_parallel(&arch, mode, &registry()).map(drop),
                ),
            ];
            for (how, result) in refusals {
                let err = result.expect_err("an unprovisionable buffer must be refused");
                assert!(
                    matches!(
                        err,
                        GeneratorError::Build(FrameworkError::Rtsj(RtsjError::OutOfMemory {
                            area: AreaId::IMMORTAL,
                            ..
                        }))
                    ),
                    "{how} {mode} bufferSize={size}: {err}"
                );
            }
        }
    }
}
