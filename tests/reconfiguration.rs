//! The dynamic-adaptation capability matrix (§4.2 / §4.3) through the
//! typed deployment API: what each generation mode allows at runtime, and
//! the transactional guarantees of `Deployment::reconfigure` — commit-time
//! RTSJ re-validation, all-or-nothing application, rollback on error.
//!
//! | capability | SOLEIL | MERGE-ALL | ULTRA-MERGE |
//! |---|---|---|---|
//! | membrane introspection | yes | no | no |
//! | reconfigure (stop/start/rebind/domain) | yes | yes | no |
//! | reconfigure (contracts/policies/supervisors) | yes | yes | yes |
//! | reified deployment spec | yes | no | no |

use soleil::core::validate::Diagnostic;
use soleil::generator::{deploy, deploy_parallel, GeneratorError};
use soleil::patterns::PatternKind;
use soleil::prelude::*;
use soleil::rtsj::RtsjError;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

#[derive(Debug, Clone, Copy, Default)]
struct Ping;

#[derive(Debug, Default)]
struct Caller;
impl Content<Ping> for Caller {
    fn on_invoke(&mut self, _p: &str, msg: &mut Ping, out: &mut dyn Ports<Ping>) -> InvokeResult {
        out.call("svc", msg)
    }
}

#[derive(Debug)]
struct Counter(Arc<AtomicU32>);
impl Content<Ping> for Counter {
    fn on_invoke(&mut self, _p: &str, _m: &mut Ping, _o: &mut dyn Ports<Ping>) -> InvokeResult {
        self.0.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }
}

struct Fixture {
    dep: Deployment<Ping>,
    a: Arc<AtomicU32>,
    b: Arc<AtomicU32>,
}

fn fixture(mode: Mode) -> Fixture {
    let mut bv = BusinessView::new("matrix");
    bv.active_periodic("caller", "5ms").unwrap();
    bv.passive("svc-a").unwrap();
    bv.passive("svc-b").unwrap();
    bv.content("caller", "Caller").unwrap();
    bv.content("svc-a", "A").unwrap();
    bv.content("svc-b", "B").unwrap();
    bv.require("caller", "svc", "ISvc").unwrap();
    bv.provide("svc-a", "svc", "ISvc").unwrap();
    bv.provide("svc-b", "svc", "ISvc").unwrap();
    bv.bind_sync("caller", "svc", "svc-a", "svc").unwrap();
    let mut flow = DesignFlow::new(bv);
    flow.thread_domain("rt", ThreadKind::Realtime, 22, &["caller"])
        .unwrap();
    flow.memory_area(
        "imm",
        MemoryKind::Immortal,
        Some(64 * 1024),
        &["rt", "svc-a", "svc-b"],
    )
    .unwrap();
    let arch = flow.merge().unwrap().into_validated().unwrap();

    let a = Arc::new(AtomicU32::new(0));
    let b = Arc::new(AtomicU32::new(0));
    let mut registry: ContentRegistry<Ping> = ContentRegistry::new();
    registry.register("Caller", || Box::new(Caller));
    let ac = a.clone();
    registry.register("A", move || Box::new(Counter(ac.clone())));
    let bc = b.clone();
    registry.register("B", move || Box::new(Counter(bc.clone())));
    let dep = deploy(&arch, mode, &registry).unwrap();
    Fixture { dep, a, b }
}

/// The SOL-006 fixture: an NHRT caller bound to an immortal service,
/// whose rebind onto the heap-held `svc-heap` the commit-time validator
/// refuses. `a` counts `svc-imm` calls, `b` counts `svc-heap` calls.
fn heap_rebind_fixture(mode: Mode) -> Fixture {
    let mut bv = BusinessView::new("rebind-into-heap");
    bv.active_periodic("caller", "5ms").unwrap();
    bv.passive("svc-imm").unwrap();
    bv.passive("svc-heap").unwrap();
    bv.content("caller", "Caller").unwrap();
    bv.content("svc-imm", "A").unwrap();
    bv.content("svc-heap", "B").unwrap();
    bv.require("caller", "svc", "ISvc").unwrap();
    bv.provide("svc-imm", "svc", "ISvc").unwrap();
    bv.provide("svc-heap", "svc", "ISvc").unwrap();
    bv.bind_sync("caller", "svc", "svc-imm", "svc").unwrap();
    let mut flow = DesignFlow::new(bv);
    flow.thread_domain("nhrt", ThreadKind::NoHeapRealtime, 30, &["caller"])
        .unwrap();
    flow.memory_area(
        "imm",
        MemoryKind::Immortal,
        Some(64 * 1024),
        &["nhrt", "svc-imm"],
    )
    .unwrap();
    flow.memory_area("heap", MemoryKind::Heap, None, &["svc-heap"])
        .unwrap();
    let arch = flow.merge().unwrap().into_validated().unwrap();

    let a = Arc::new(AtomicU32::new(0));
    let b = Arc::new(AtomicU32::new(0));
    let mut registry: ContentRegistry<Ping> = ContentRegistry::new();
    registry.register("Caller", || Box::new(Caller));
    let ac = a.clone();
    registry.register("A", move || Box::new(Counter(ac.clone())));
    let bc = b.clone();
    registry.register("B", move || Box::new(Counter(bc.clone())));
    let dep = deploy(&arch, mode, &registry).unwrap();
    Fixture { dep, a, b }
}

#[test]
fn soleil_full_matrix() {
    let Fixture { mut dep, a, b } = fixture(Mode::Soleil);
    let caller = dep.resolve("caller").unwrap();
    let svc_b = dep.resolve("svc-b").unwrap();

    // Introspection available.
    let info = dep.membrane_info(caller).unwrap();
    assert!(info.started);
    assert_eq!(info.bound_ports, vec!["svc".to_string()]);
    assert!(dep.reified_spec().is_some());

    dep.run_transaction(caller).unwrap();
    assert_eq!(
        (a.load(Ordering::Relaxed), b.load(Ordering::Relaxed)),
        (1, 0)
    );

    // A full stop → rebind → start transaction redirects the traffic.
    dep.reconfigure(|txn| {
        txn.stop(caller)?;
        txn.rebind(caller, "svc", svc_b)?;
        txn.start(caller)
    })
    .unwrap();
    dep.run_transaction(caller).unwrap();
    assert_eq!(
        (a.load(Ordering::Relaxed), b.load(Ordering::Relaxed)),
        (1, 1)
    );

    // The committed architecture tracks the live topology.
    let arch = dep.architecture();
    let caller_id = arch.id_of("caller").unwrap();
    let bound_to = arch
        .bindings()
        .iter()
        .find(|bi| bi.client.component == caller_id)
        .map(|bi| arch.component(bi.server.component).unwrap().name.clone());
    assert_eq!(bound_to.as_deref(), Some("svc-b"));
    // So does the reified plan: it is the plan the commit updated.
    let plan = dep.reified_spec().unwrap();
    let caller_ix = plan.component_index("caller").unwrap();
    let served_by: Vec<&str> = plan
        .bindings
        .iter()
        .filter(|bi| bi.client == caller_ix)
        .map(|bi| plan.components[bi.server].name.as_str())
        .collect();
    assert_eq!(served_by, ["svc-b"]);

    // A stopped component refuses transactions until restarted.
    dep.reconfigure(|txn| txn.stop(caller)).unwrap();
    assert!(dep.run_transaction(caller).is_err());
    dep.reconfigure(|txn| txn.start(caller)).unwrap();
    dep.run_transaction(caller).unwrap();
    assert_eq!(
        (a.load(Ordering::Relaxed), b.load(Ordering::Relaxed)),
        (1, 2)
    );
}

#[test]
fn merge_all_functional_level_only() {
    let Fixture { mut dep, a, b } = fixture(Mode::MergeAll);
    let caller = dep.resolve("caller").unwrap();
    let svc_b = dep.resolve("svc-b").unwrap();

    assert!(matches!(
        dep.membrane_info(caller),
        Err(FrameworkError::Unsupported(_))
    ));
    assert!(dep.reified_spec().is_none());

    // Functional-level transactional reconfiguration still works.
    dep.run_transaction(caller).unwrap();
    dep.reconfigure(|txn| txn.rebind(caller, "svc", svc_b))
        .unwrap();
    dep.run_transaction(caller).unwrap();
    assert_eq!(
        (a.load(Ordering::Relaxed), b.load(Ordering::Relaxed)),
        (1, 1)
    );

    dep.reconfigure(|txn| txn.stop(caller)).unwrap();
    assert!(matches!(
        dep.run_transaction(caller),
        Err(FrameworkError::Lifecycle(_))
    ));
    dep.reconfigure(|txn| txn.start(caller)).unwrap();
}

#[test]
fn ultra_merge_is_static() {
    let Fixture { mut dep, a, b } = fixture(Mode::UltraMerge);
    let caller = dep.resolve("caller").unwrap();
    let svc_b = dep.resolve("svc-b").unwrap();
    dep.run_transaction(caller).unwrap();
    assert_eq!(
        (a.load(Ordering::Relaxed), b.load(Ordering::Relaxed)),
        (1, 0)
    );

    for err in [
        dep.reconfigure(|txn| txn.rebind(caller, "svc", svc_b))
            .unwrap_err(),
        dep.reconfigure(|txn| txn.stop(caller)).unwrap_err(),
        dep.membrane_info(caller).unwrap_err(),
    ] {
        assert!(matches!(err, FrameworkError::Unsupported(_)), "got {err}");
    }
    // Still runs, unchanged.
    dep.run_transaction(caller).unwrap();
    assert_eq!(
        (a.load(Ordering::Relaxed), b.load(Ordering::Relaxed)),
        (2, 0)
    );
}

/// The transactional acceptance property: a failing transaction — whether
/// the closure errors or the commit-time validator refuses — leaves the
/// deployment byte-identical to its pre-transaction state.
#[test]
fn failing_transaction_rolls_back_completely() {
    let Fixture { mut dep, a, b } = fixture(Mode::Soleil);
    let caller = dep.resolve("caller").unwrap();
    let svc_a = dep.resolve("svc-a").unwrap();
    let svc_b = dep.resolve("svc-b").unwrap();
    dep.attach_contract(
        caller,
        TimingContract::new().with_max_jitter(RelativeTime::from_millis(500)),
    )
    .unwrap();
    for _ in 0..3 {
        dep.run_transaction(caller).unwrap();
    }

    let snapshot = |dep: &Deployment<Ping>| {
        let membranes: Vec<String> = ["caller", "svc-a", "svc-b"]
            .iter()
            .map(|n| format!("{:?}", dep.membrane_info(dep.resolve(n).unwrap()).unwrap()))
            .collect();
        (
            format!("{:?}", dep.domain_info()),
            format!("{:?}", dep.architecture().bindings()),
            membranes,
            dep.contract_of(caller).unwrap(),
            dep.latency_snapshot(caller).unwrap().map(|s| s.activations),
            format!("{:?}", dep.reified_spec()),
        )
    };
    let before = snapshot(&dep);

    // Closure failure: the rebind targets a port svc-b does not provide,
    // after a contract detach, a stop and a successful rebind already
    // applied.
    let err = dep
        .reconfigure(|txn| {
            assert!(txn.detach_contract(caller)?);
            txn.stop(caller)?;
            txn.rebind(caller, "svc", svc_b)?;
            txn.rebind(caller, "no-such-port", svc_a)
        })
        .unwrap_err();
    assert!(matches!(err, FrameworkError::Binding(_)), "got {err}");
    assert_eq!(snapshot(&dep), before, "closure failure must roll back");

    // Transactions still run against the pre-transaction topology.
    let a_before = a.load(Ordering::Relaxed);
    dep.run_transaction(caller).unwrap();
    assert_eq!(
        a.load(Ordering::Relaxed),
        a_before + 1,
        "traffic still reaches svc-a"
    );
    assert_eq!(b.load(Ordering::Relaxed), 0);
}

/// A transaction the commit-time validator refuses restores the compiled
/// membrane plan byte-identically — lifecycle, bindings, interceptor order
/// and fusion — together with the contract monitor it detached, and the
/// restored plan still executes.
#[test]
fn rejected_transaction_restores_the_compiled_plan_byte_identically() {
    let Fixture { mut dep, a, b } = heap_rebind_fixture(Mode::Soleil);
    let caller = dep.resolve("caller").unwrap();
    let heap_svc = dep.resolve("svc-heap").unwrap();
    let contract = TimingContract::new().with_deadline(RelativeTime::from_millis(500));
    dep.reconfigure(|txn| txn.attach_contract(caller, contract.clone()))
        .unwrap();
    for _ in 0..4 {
        dep.run_transaction(caller).unwrap();
    }
    let info_before = dep.membrane_info(caller).unwrap();
    let snap_before = dep.latency_snapshot(caller).unwrap().unwrap();
    assert_eq!(snap_before.activations, 4, "monitor state accumulated");

    // The transaction stops the caller, detaches its contract and then
    // trips SOL-006: everything must roll back, the plan included.
    let err = dep
        .reconfigure(|txn| {
            txn.stop(caller)?;
            assert!(txn.detach_contract(caller)?);
            txn.rebind(caller, "svc", heap_svc)
        })
        .unwrap_err();
    assert!(matches!(err, FrameworkError::Rejected(_)), "got {err}");

    assert_eq!(
        dep.membrane_info(caller).unwrap(),
        info_before,
        "compiled plan restored byte-identically (lifecycle, ports, order, fusion)"
    );
    assert_eq!(dep.contract_of(caller).unwrap(), Some(contract));
    // `observed_hz` is the recorded count over wall time since attach, so
    // it is compared apart: same count, same attach instant, later clock.
    let snap_after = dep.latency_snapshot(caller).unwrap().unwrap();
    assert_eq!(
        LatencySnapshot {
            observed_hz: snap_before.observed_hz,
            ..snap_after
        },
        snap_before,
        "the reattached monitor kept its recorded state"
    );
    assert!(snap_after.observed_hz <= snap_before.observed_hz);

    // And the restored plan still executes: one more transaction reaches
    // svc-imm and extends the very same monitor's record.
    dep.run_transaction(caller).unwrap();
    assert_eq!(
        dep.latency_snapshot(caller).unwrap().unwrap().activations,
        5
    );
    assert_eq!(
        (a.load(Ordering::Relaxed), b.load(Ordering::Relaxed)),
        (5, 0)
    );
}

/// Commit-time validation: a rebind that makes an NHRT client call
/// synchronously into heap data is refused by the same SOL-006 rule the
/// design-time validator enforces, and the whole transaction rolls back.
#[test]
fn validator_refuses_illegal_rebind_and_rolls_back() {
    for mode in [Mode::Soleil, Mode::MergeAll] {
        let Fixture { mut dep, a, b } = heap_rebind_fixture(mode);
        let caller = dep.resolve("caller").unwrap();
        let heap_svc = dep.resolve("svc-heap").unwrap();
        let bindings_before = format!("{:?}", dep.architecture().bindings());

        let err = dep
            .reconfigure(|txn| txn.rebind(caller, "svc", heap_svc))
            .unwrap_err();
        let FrameworkError::Rejected(report) = err else {
            panic!("{mode}: expected Rejected, got {err}");
        };
        assert!(
            report.by_code("SOL-006").next().is_some(),
            "{mode}: refusal must cite SOL-006, got:\n{report}"
        );

        // Rolled back: the architecture still binds svc-imm and traffic
        // still flows there.
        assert_eq!(
            format!("{:?}", dep.architecture().bindings()),
            bindings_before,
            "{mode}"
        );
        dep.run_transaction(caller).unwrap();
        assert_eq!(
            (a.load(Ordering::Relaxed), b.load(Ordering::Relaxed)),
            (1, 0),
            "{mode}"
        );
    }
}

/// Domain reassignment: a transactional move onto another ThreadDomain
/// adopts its priority, updates the architectural model, and is refused
/// (with rollback) when the target breaks SOL-005-style rules.
#[test]
fn reassign_domain_transactionally() {
    let mut bv = BusinessView::new("domains");
    bv.active_periodic("caller", "5ms").unwrap();
    bv.passive("svc-a").unwrap();
    bv.content("caller", "Caller").unwrap();
    bv.content("svc-a", "A").unwrap();
    bv.require("caller", "svc", "ISvc").unwrap();
    bv.provide("svc-a", "svc", "ISvc").unwrap();
    bv.bind_sync("caller", "svc", "svc-a", "svc").unwrap();
    let mut flow = DesignFlow::new(bv);
    flow.thread_domain("rt-high", ThreadKind::Realtime, 30, &["caller"])
        .unwrap();
    flow.thread_domain("rt-low", ThreadKind::Realtime, 12, &[])
        .unwrap();
    flow.memory_area(
        "imm",
        MemoryKind::Immortal,
        Some(64 * 1024),
        &["rt-high", "rt-low", "svc-a"],
    )
    .unwrap();
    let arch = flow.merge().unwrap().into_validated().unwrap();

    let a = Arc::new(AtomicU32::new(0));
    let mut registry: ContentRegistry<Ping> = ContentRegistry::new();
    registry.register("Caller", || Box::new(Caller));
    let ac = a.clone();
    registry.register("A", move || Box::new(Counter(ac.clone())));

    let mut dep = deploy(&arch, Mode::MergeAll, &registry).unwrap();
    let caller = dep.resolve("caller").unwrap();

    dep.reconfigure(|txn| txn.reassign_domain(caller, "rt-low"))
        .unwrap();
    // The architectural model moved the containment edge.
    let arch_now = dep.architecture();
    let caller_id = arch_now.id_of("caller").unwrap();
    let (domain_id, desc) = arch_now.thread_domain_of(caller_id).unwrap();
    assert_eq!(arch_now.component(domain_id).unwrap().name, "rt-low");
    assert_eq!(desc.priority, 12);
    dep.run_transaction(caller).unwrap();
    assert_eq!(a.load(Ordering::Relaxed), 1);

    // Unknown domains are refused; nothing changes.
    let err = dep
        .reconfigure(|txn| txn.reassign_domain(caller, "ghost"))
        .unwrap_err();
    assert!(matches!(err, FrameworkError::Content(_)), "got {err}");
    let arch_now = dep.architecture();
    let (domain_id, _) = arch_now.thread_domain_of(caller_id).unwrap();
    assert_eq!(arch_now.component(domain_id).unwrap().name, "rt-low");
}

/// A domain move that re-homes the component's memory area migrates the
/// allocation region with it (checkpoint/handoff): the architectural model
/// and the live placement move together, and a rolled-back transaction
/// restores both.
#[test]
fn reassign_domain_across_memory_areas_rehomes_the_region() {
    let mut bv = BusinessView::new("cross-area-domains");
    bv.active_periodic("caller", "5ms").unwrap();
    bv.passive("svc-a").unwrap();
    bv.content("caller", "Caller").unwrap();
    bv.content("svc-a", "A").unwrap();
    bv.require("caller", "svc", "ISvc").unwrap();
    bv.provide("svc-a", "svc", "ISvc").unwrap();
    bv.bind_sync("caller", "svc", "svc-a", "svc").unwrap();
    let mut flow = DesignFlow::new(bv);
    flow.thread_domain("rt-imm", ThreadKind::Realtime, 30, &["caller"])
        .unwrap();
    flow.thread_domain("rt-heap", ThreadKind::Regular, 5, &[])
        .unwrap();
    flow.memory_area(
        "imm",
        MemoryKind::Immortal,
        Some(64 * 1024),
        &["rt-imm", "svc-a"],
    )
    .unwrap();
    flow.memory_area("heap", MemoryKind::Heap, None, &["rt-heap"])
        .unwrap();
    let arch = flow.merge().unwrap().into_validated().unwrap();

    for mode in [Mode::Soleil, Mode::MergeAll] {
        let a = Arc::new(AtomicU32::new(0));
        let mut registry: ContentRegistry<Ping> = ContentRegistry::new();
        registry.register("Caller", || Box::new(Caller));
        let ac = a.clone();
        registry.register("A", move || Box::new(Counter(ac.clone())));

        let mut dep = deploy(&arch, mode, &registry).unwrap();
        let caller = dep.resolve("caller").unwrap();
        let arch_before = format!(
            "{:?}",
            dep.architecture()
                .parents_of(dep.architecture().id_of("caller").unwrap())
        );
        let digests = dep.structural_digests();

        // A transaction that moves caller into rt-heap and then fails rolls
        // the migration back: edges, region and engine all pre-transaction.
        let err = dep
            .reconfigure(|txn| {
                txn.reassign_domain(caller, "rt-heap")?;
                Err::<(), _>(FrameworkError::Content(
                    "operator changed their mind".into(),
                ))
            })
            .unwrap_err();
        assert!(
            matches!(err, FrameworkError::Content(_)),
            "{mode}: got {err}"
        );
        assert_eq!(
            dep.structural_digests(),
            digests,
            "{mode}: the refused move restored the engine"
        );
        let arch_now = dep.architecture();
        let caller_id = arch_now.id_of("caller").unwrap();
        assert_eq!(
            format!("{:?}", arch_now.parents_of(caller_id)),
            arch_before,
            "{mode}"
        );
        let (area_id, _) = arch_now.memory_area_of(caller_id).unwrap();
        assert_eq!(arch_now.component(area_id).unwrap().name, "imm", "{mode}");
        dep.run_transaction(caller).unwrap();
        assert_eq!(a.load(Ordering::Relaxed), 1, "{mode}");

        // rt-heap lives inside the heap area: committing the same move
        // re-homes caller's allocation region along with the domain edge.
        dep.reconfigure(|txn| txn.reassign_domain(caller, "rt-heap"))
            .unwrap();
        let arch_now = dep.architecture();
        let (domain_id, _) = arch_now.thread_domain_of(caller_id).unwrap();
        assert_eq!(
            arch_now.component(domain_id).unwrap().name,
            "rt-heap",
            "{mode}"
        );
        let (area_id, _) = arch_now.memory_area_of(caller_id).unwrap();
        assert_eq!(arch_now.component(area_id).unwrap().name, "heap", "{mode}");

        // The engine still dispatches through the recompiled plans.
        dep.run_transaction(caller).unwrap();
        assert_eq!(a.load(Ordering::Relaxed), 2, "{mode}");
    }
}

#[test]
fn rebinding_async_ports_is_refused() {
    let mut bv = BusinessView::new("async-rebind");
    bv.active_periodic("p", "5ms").unwrap();
    bv.active_sporadic("c1").unwrap();
    bv.active_sporadic("c2").unwrap();
    bv.content("p", "Caller").unwrap();
    bv.content("c1", "A").unwrap();
    bv.content("c2", "B").unwrap();
    bv.require("p", "svc", "I").unwrap();
    bv.provide("c1", "svc", "I").unwrap();
    bv.provide("c2", "svc", "I").unwrap();
    bv.bind_async("p", "svc", "c1", "svc", 4).unwrap();
    let mut flow = DesignFlow::new(bv);
    flow.thread_domain("rt", ThreadKind::Realtime, 22, &["p", "c1", "c2"])
        .unwrap();
    flow.memory_area("imm", MemoryKind::Immortal, Some(64 * 1024), &["rt"])
        .unwrap();
    let arch = flow.merge().unwrap().into_validated().unwrap();

    let a = Arc::new(AtomicU32::new(0));
    let b = Arc::new(AtomicU32::new(0));
    let mut registry: ContentRegistry<Ping> = ContentRegistry::new();
    registry.register("Caller", || Box::new(Caller));
    let ac = a.clone();
    registry.register("A", move || Box::new(Counter(ac.clone())));
    let bc = b.clone();
    registry.register("B", move || Box::new(Counter(bc.clone())));

    for mode in [Mode::Soleil, Mode::MergeAll] {
        let mut dep = deploy(&arch, mode, &registry).unwrap();
        let p = dep.resolve("p").unwrap();
        let c2 = dep.resolve("c2").unwrap();
        let err = dep.reconfigure(|txn| txn.rebind(p, "svc", c2)).unwrap_err();
        assert!(matches!(err, FrameworkError::Binding(_)), "{mode}: {err}");
    }
}

/// The cross-scope rebind fixture: `caller` (its domain in immortal
/// memory) calls `svc-a`, also immortal; `svc-b` sits in the scoped area
/// `scope-b`, so rebinding `caller` onto it turns a direct call into an
/// enter-inner one.
fn scoped_rebind_arch() -> ValidatedArchitecture {
    let mut bv = BusinessView::new("pattern-rebind");
    bv.active_periodic("caller", "5ms").unwrap();
    bv.passive("svc-a").unwrap();
    bv.passive("svc-b").unwrap();
    bv.content("caller", "Caller").unwrap();
    bv.content("svc-a", "A").unwrap();
    bv.content("svc-b", "B").unwrap();
    bv.require("caller", "svc", "ISvc").unwrap();
    bv.provide("svc-a", "svc", "ISvc").unwrap();
    bv.provide("svc-b", "svc", "ISvc").unwrap();
    bv.bind_sync("caller", "svc", "svc-a", "svc").unwrap();
    let mut flow = DesignFlow::new(bv);
    flow.thread_domain("rt", ThreadKind::Realtime, 22, &["caller"])
        .unwrap();
    flow.memory_area(
        "imm",
        MemoryKind::Immortal,
        Some(64 * 1024),
        &["rt", "svc-a"],
    )
    .unwrap();
    flow.memory_area("scope-b", MemoryKind::Scoped, Some(16 * 1024), &["svc-b"])
        .unwrap();
    flow.merge().unwrap().into_validated().unwrap()
}

#[test]
fn rebind_recomputes_cross_scope_pattern() {
    let arch = scoped_rebind_arch();
    let a = Arc::new(AtomicU32::new(0));
    let b = Arc::new(AtomicU32::new(0));
    let mut registry: ContentRegistry<Ping> = ContentRegistry::new();
    registry.register("Caller", || Box::new(Caller));
    let ac = a.clone();
    registry.register("A", move || Box::new(Counter(ac.clone())));
    let bc = b.clone();
    registry.register("B", move || Box::new(Counter(bc.clone())));

    for mode in [Mode::Soleil, Mode::MergeAll] {
        let mut dep = deploy(&arch, mode, &registry).unwrap();
        let caller = dep.resolve("caller").unwrap();
        let svc_b = dep.resolve("svc-b").unwrap();
        dep.run_transaction(caller).unwrap();
        // Rebind into the scoped service: the engine must now enter the
        // scope on each call (enter-inner recomputed at rebind time).
        dep.reconfigure(|txn| txn.rebind(caller, "svc", svc_b))
            .unwrap();
        dep.run_transaction(caller).unwrap();
        dep.run_transaction(caller).unwrap();
        assert_eq!(
            b.load(Ordering::Relaxed) % 2,
            0,
            "{mode}: scoped service reached twice"
        );
        let scope = dep.memory().area_by_name("scope-b").unwrap();
        // The wedge pin keeps it alive; entry counting stayed balanced.
        assert_eq!(dep.memory().enter_count(scope).unwrap(), 1, "{mode}");
        a.store(0, Ordering::Relaxed);
        b.store(0, Ordering::Relaxed);
    }
}

/// Scheduled releases through the deployment surface: a timer armed at an
/// absolute engine time fires as a full transaction once the virtual clock
/// reaches it, and generation-checked handles cancel safely.
#[test]
fn deployment_schedules_and_cancels_releases() {
    let Fixture { mut dep, a, .. } = fixture(Mode::MergeAll);
    let caller = dep.resolve("caller").unwrap();

    let h = dep
        .schedule_release(caller, AbsoluteTime::from_millis(1))
        .unwrap();
    assert_eq!(dep.armed_timers(), 1);
    let fired = dep.fire_timers_until(AbsoluteTime::from_millis(2)).unwrap();
    assert_eq!(fired, 1);
    assert_eq!(dep.stats().timer_fires, 1);
    assert_eq!(a.load(Ordering::Relaxed), 1, "the fired release really ran");
    assert!(!dep.cancel_release(h), "handle is stale after firing");

    let h2 = dep
        .schedule_release(caller, AbsoluteTime::from_millis(10))
        .unwrap();
    assert!(dep.cancel_release(h2));
    assert_eq!(
        dep.fire_timers_until(AbsoluteTime::from_millis(20))
            .unwrap(),
        0,
        "cancelled timers never fire"
    );
    assert_eq!(dep.timer_clock(), AbsoluteTime::from_millis(20));
    assert_eq!(dep.armed_timers(), 0);
}

/// Timer handles are deployment-scoped like component tokens: every timer
/// queue starts at slot 0, generation 0, so two deployments issue equal
/// slot/generation pairs, and a handle from one must not cancel the
/// other's release (nor a supervised restart riding the same queue).
#[test]
fn timer_handles_are_scoped_to_their_deployment() {
    for mode in [Mode::Soleil, Mode::MergeAll] {
        let Fixture { dep: mut dep_a, .. } = fixture(mode);
        let Fixture {
            dep: mut dep_b,
            a: b_calls,
            ..
        } = fixture(mode);
        let at = AbsoluteTime::from_millis(1);
        let from_a = dep_a
            .schedule_release(dep_a.resolve("caller").unwrap(), at)
            .unwrap();
        dep_b
            .schedule_release(dep_b.resolve("caller").unwrap(), at)
            .unwrap();

        assert!(!dep_b.cancel_release(from_a), "{mode}: foreign handle");
        assert_eq!(
            dep_b.armed_timers(),
            1,
            "{mode}: dep_b's release stays armed"
        );
        assert_eq!(
            dep_b
                .fire_timers_until(AbsoluteTime::from_millis(2))
                .unwrap(),
            1,
            "{mode}"
        );
        assert_eq!(b_calls.load(Ordering::Relaxed), 1, "{mode}: it really ran");
        assert!(dep_a.cancel_release(from_a), "{mode}: the issuer still can");
    }
}

/// Sends its release on to `out`.
#[derive(Debug)]
struct Sender;
impl Content<Ping> for Sender {
    fn on_invoke(&mut self, _p: &str, msg: &mut Ping, out: &mut dyn Ports<Ping>) -> InvokeResult {
        out.send("out", *msg)
    }
}

/// One rule picks a binding's pattern at design time and again whenever a
/// re-homing recompiles its row: an asynchronous binding between sibling
/// scopes is an immortal exchange both times. So moving its client to a
/// third sibling scope and back restores the engine byte-identically, not
/// only the architecture.
#[test]
fn domain_round_trip_between_sibling_scopes_restores_the_engine() {
    let mut bv = BusinessView::new("sibling-scopes");
    bv.active_periodic("a", "5ms").unwrap();
    bv.active_sporadic("b").unwrap();
    bv.content("a", "Sender").unwrap();
    bv.content("b", "B").unwrap();
    bv.require("a", "out", "I").unwrap();
    bv.provide("b", "in", "I").unwrap();
    bv.bind_async("a", "out", "b", "in", 4).unwrap();
    let mut flow = DesignFlow::new(bv);
    for (domain, priority, members) in [("d1", 22, &["a"][..]), ("d2", 21, &["b"]), ("d3", 22, &[])]
    {
        flow.thread_domain(domain, ThreadKind::Realtime, priority, members)
            .unwrap();
    }
    for (scope, domain) in [("s1", "d1"), ("s2", "d2"), ("s3", "d3")] {
        flow.memory_area(scope, MemoryKind::Scoped, Some(16 * 1024), &[domain])
            .unwrap();
    }
    flow.memory_area(
        "imm",
        MemoryKind::Immortal,
        Some(64 * 1024),
        &["s1", "s2", "s3"],
    )
    .unwrap();
    let arch = flow.merge().unwrap().into_validated().unwrap();

    for mode in [Mode::Soleil, Mode::MergeAll] {
        let delivered = Arc::new(AtomicU32::new(0));
        let mut registry: ContentRegistry<Ping> = ContentRegistry::new();
        registry.register("Sender", || Box::new(Sender));
        let counter = delivered.clone();
        registry.register("B", move || Box::new(Counter(counter.clone())));
        let mut dep = deploy(&arch, mode, &registry).unwrap();
        let a = dep.resolve("a").unwrap();
        let state = |dep: &Deployment<Ping>| {
            (
                dep.structural_digests(),
                soleil::core::adl::to_json(dep.architecture()),
            )
        };
        let before = state(&dep);

        dep.reconfigure(|txn| txn.reassign_domain(a, "d3")).unwrap();
        assert_ne!(state(&dep).0, before.0, "{mode}: the move re-homed a");
        dep.reconfigure(|txn| txn.reassign_domain(a, "d1")).unwrap();
        assert_eq!(
            state(&dep),
            before,
            "{mode}: the inverse move restores both"
        );

        dep.run_transaction(a).unwrap();
        assert_eq!(delivered.load(Ordering::Relaxed), 1, "{mode}");
    }
}

/// Sends on `to_b`, then on `to_a`.
#[derive(Debug)]
struct ForkBA;
impl Content<Ping> for ForkBA {
    fn on_invoke(&mut self, _p: &str, msg: &mut Ping, out: &mut dyn Ports<Ping>) -> InvokeResult {
        out.send("to_b", *msg)?;
        out.send("to_a", *msg)
    }
}

/// Appends its component's name to a shared activation log.
#[derive(Debug)]
struct Logged(&'static str, Arc<std::sync::Mutex<Vec<&'static str>>>);
impl Content<Ping> for Logged {
    fn on_invoke(&mut self, _p: &str, _m: &mut Ping, _o: &mut dyn Ports<Ping>) -> InvokeResult {
        self.1.lock().unwrap().push(self.0);
        Ok(())
    }
}

/// The ready queue orders drained messages by the consumer priority
/// cached on each exchange buffer's row, so a domain move must rewrite
/// that cache. One release feeds `b` (domain `lo`, priority 20) and then
/// `a` (domain `hi`, priority 30): `a` runs first. Moving `a` to `lo`
/// makes the order FIFO, so `b` runs first after the commit. A refused
/// move leaves the order and the structural digests as they were, and
/// moving back restores the digests.
#[test]
fn domain_move_reorders_drained_consumers_and_a_refusal_does_not() {
    let mut bv = BusinessView::new("consumer-facts");
    bv.active_periodic("head", "5ms").unwrap();
    bv.active_sporadic("a").unwrap();
    bv.active_sporadic("b").unwrap();
    bv.content("head", "Fork").unwrap();
    bv.content("a", "A").unwrap();
    bv.content("b", "B").unwrap();
    for (port, server) in [("to_a", "a"), ("to_b", "b")] {
        bv.require("head", port, "I").unwrap();
        bv.provide(server, "in", "I").unwrap();
        bv.bind_async("head", port, server, "in", 4).unwrap();
    }
    let mut flow = DesignFlow::new(bv);
    flow.thread_domain("hi", ThreadKind::Realtime, 30, &["head", "a"])
        .unwrap();
    flow.thread_domain("lo", ThreadKind::Realtime, 20, &["b"])
        .unwrap();
    flow.memory_area("imm", MemoryKind::Immortal, Some(64 * 1024), &["hi", "lo"])
        .unwrap();
    let arch = flow.merge().unwrap().into_validated().unwrap();

    for mode in [Mode::Soleil, Mode::MergeAll] {
        let log = Arc::new(std::sync::Mutex::new(Vec::new()));
        let mut registry: ContentRegistry<Ping> = ContentRegistry::new();
        registry.register("Fork", || Box::new(ForkBA));
        let l = log.clone();
        registry.register("A", move || Box::new(Logged("a", l.clone())));
        let l = log.clone();
        registry.register("B", move || Box::new(Logged("b", l.clone())));
        let mut dep = deploy(&arch, mode, &registry).unwrap();
        let head = dep.resolve("head").unwrap();
        let order = |dep: &mut Deployment<Ping>| {
            log.lock().unwrap().clear();
            dep.run_transaction(head).unwrap();
            log.lock().unwrap().clone()
        };
        assert_eq!(order(&mut dep), ["a", "b"], "{mode}: by priority");
        let before = dep.structural_digests();

        let refused = dep.reconfigure(|txn| {
            txn.reassign_domain("a", "lo")?;
            Err::<(), _>(FrameworkError::Content("refused".into()))
        });
        assert!(refused.is_err(), "{mode}");
        assert_eq!(dep.structural_digests(), before, "{mode}: refused");
        assert_eq!(order(&mut dep), ["a", "b"], "{mode}: refused");

        dep.reconfigure(|txn| txn.reassign_domain("a", "lo"))
            .unwrap();
        assert_ne!(dep.structural_digests(), before, "{mode}: moved");
        assert_eq!(order(&mut dep), ["b", "a"], "{mode}: one priority, FIFO");

        dep.reconfigure(|txn| txn.reassign_domain("a", "hi"))
            .unwrap();
        assert_eq!(dep.structural_digests(), before, "{mode}: moved back");
        assert_eq!(order(&mut dep), ["a", "b"], "{mode}: moved back");
    }
}

/// Runtime contracts are engine-level observability: they attach in any
/// reconfigurable mode through the same journaled transaction machinery as
/// structural operations, and a failed or refused transaction restores the
/// previous monitor — recorded histogram included.
#[test]
fn contracts_attach_and_detach_transactionally() {
    for mode in [Mode::Soleil, Mode::MergeAll] {
        let Fixture { mut dep, .. } = heap_rebind_fixture(mode);
        let caller = dep.resolve("caller").unwrap();
        let heap_svc = dep.resolve("svc-heap").unwrap();

        // Attach through a committed transaction; observe activations.
        let generous = TimingContract::new().with_deadline(RelativeTime::from_millis(500));
        dep.reconfigure(|txn| txn.attach_contract(caller, generous.clone()))
            .unwrap();
        for _ in 0..5 {
            dep.run_transaction(caller).unwrap();
        }
        let snap = dep.latency_snapshot(caller).unwrap().unwrap();
        assert_eq!(snap.activations, 5, "{mode}");
        assert_eq!(dep.deadline_misses(), 0, "{mode}");
        assert!(dep.contract_report().is_compliant(), "{mode}");

        // A failing transaction that replaced the contract rolls the old
        // monitor — history included — back.
        let err = dep
            .reconfigure(|txn| {
                txn.attach_contract(
                    caller,
                    TimingContract::new().with_deadline(RelativeTime::from_nanos(0)),
                )?;
                Err::<(), _>(FrameworkError::Content("abort".into()))
            })
            .unwrap_err();
        assert!(matches!(err, FrameworkError::Content(_)), "{mode}");
        assert_eq!(
            dep.contract_of(caller).unwrap(),
            Some(generous.clone()),
            "{mode}: pre-transaction contract restored"
        );
        assert_eq!(
            dep.latency_snapshot(caller).unwrap().unwrap().activations,
            5,
            "{mode}: restored monitor kept its history"
        );

        // Same for a rolled-back detach.
        let err = dep
            .reconfigure(|txn| {
                assert!(txn.detach_contract(caller)?);
                Err::<(), _>(FrameworkError::Content("abort".into()))
            })
            .unwrap_err();
        assert!(matches!(err, FrameworkError::Content(_)), "{mode}");
        assert_eq!(
            dep.latency_snapshot(caller).unwrap().unwrap().activations,
            5,
            "{mode}: rolled-back detach restored the monitor"
        );

        // And for a detach the commit-time validator refuses: the SOL-006
        // rebind onto heap-held state rejects the whole transaction.
        let err = dep
            .reconfigure(|txn| {
                assert!(txn.detach_contract(caller)?);
                txn.rebind(caller, "svc", heap_svc)
            })
            .unwrap_err();
        assert!(matches!(err, FrameworkError::Rejected(_)), "{mode}: {err}");
        assert_eq!(
            dep.contract_of(caller).unwrap(),
            Some(generous.clone()),
            "{mode}: refused detach restored the contract"
        );
        assert_eq!(
            dep.latency_snapshot(caller).unwrap().unwrap().activations,
            5,
            "{mode}: refused detach restored the histogram"
        );

        // A committed detach really removes it (histogram discarded).
        assert!(
            dep.reconfigure(|txn| txn.detach_contract(caller)).unwrap(),
            "{mode}"
        );
        assert!(dep.latency_snapshot(caller).unwrap().is_none(), "{mode}");
        assert_eq!(dep.deadline_misses(), 0, "{mode}");
    }

    // ULTRA-MERGE refuses structural operations, but a contract is
    // engine-level observability: the shorthand's one-op transaction
    // commits there too.
    let Fixture { mut dep, .. } = fixture(Mode::UltraMerge);
    let caller = dep.resolve("caller").unwrap();
    dep.attach_contract(
        caller,
        TimingContract::new().with_deadline(RelativeTime::from_millis(500)),
    )
    .unwrap();
    for _ in 0..3 {
        dep.run_transaction(caller).unwrap();
    }
    assert_eq!(
        dep.latency_snapshot(caller).unwrap().unwrap().activations,
        3
    );
    assert!(dep.contract_report().is_compliant());
}

/// Fault policies reconfigure transactionally: a committed change governs
/// the next fault, and a failing transaction restores the previous policy
/// — including one already changed earlier in the same journal.
#[test]
fn fault_policy_reconfigures_transactionally_with_rollback() {
    for mode in [Mode::Soleil, Mode::MergeAll] {
        let Fixture { mut dep, .. } = fixture(mode);
        let caller = dep.resolve("caller").unwrap();
        assert_eq!(dep.fault_policy(caller).unwrap(), FaultPolicy::Escalate);

        // Committed: the policy is live.
        dep.reconfigure(|txn| txn.set_fault_policy(caller, FaultPolicy::Isolate))
            .unwrap();
        assert_eq!(
            dep.fault_policy(caller).unwrap(),
            FaultPolicy::Isolate,
            "{mode}"
        );

        // Failing transaction: the policy set inside it rolls back to the
        // pre-transaction value, not to the deploy-time default.
        let restart = FaultPolicy::Restart {
            max_restarts: 2,
            window: RelativeTime::from_millis(1000),
            backoff: RelativeTime::from_millis(5),
        };
        let err = dep
            .reconfigure(|txn| {
                txn.set_fault_policy(caller, restart)?;
                Err::<(), _>(FrameworkError::Content("abort".into()))
            })
            .unwrap_err();
        assert!(matches!(err, FrameworkError::Content(_)), "{mode}");
        assert_eq!(
            dep.fault_policy(caller).unwrap(),
            FaultPolicy::Isolate,
            "{mode}: rolled back to the pre-transaction policy"
        );

        // The committed policy actually governs fault handling: a panic
        // injected at the activation boundary is contained, not escalated.
        dep.install_fault_injector(
            caller,
            FaultInjector::new("caller", 3, 1).with_menu(FaultInjector::MENU_PANIC),
        )
        .unwrap();
        dep.run_transaction(caller).unwrap();
        assert!(dep.quarantined(caller).unwrap(), "{mode}");
        assert_eq!(dep.stats().faults_contained, 1, "{mode}");
        let report = dep.health_report();
        assert!(
            report.by_code("SOL-020").any(|d| d.subject == "caller"),
            "{mode}: {report}"
        );

        // Supervised recovery through the deployment surface.
        assert!(dep.remove_fault_injector(caller).unwrap());
        dep.restart_component(caller).unwrap();
        assert!(!dep.quarantined(caller).unwrap(), "{mode}");
        dep.run_transaction(caller).unwrap();
    }
}

/// Steady state is provisioned at deploy time: once the first transaction
/// has warmed the engine, further transactions perform zero substrate
/// allocations and zero name lookups — before *and after* a
/// reconfiguration transaction (which is allowed to allocate; it is the
/// init-time path).
#[test]
fn steady_state_performs_no_substrate_allocations() {
    for mode in [Mode::Soleil, Mode::MergeAll] {
        let Fixture { mut dep, a, b } = fixture(mode);
        let caller = dep.resolve("caller").unwrap();
        let svc_b = dep.resolve("svc-b").unwrap();

        dep.run_transaction(caller).unwrap();
        let allocs = dep.memory().alloc_count();
        let lookups = dep.name_lookups();
        for _ in 0..100 {
            dep.run_transaction(caller).unwrap();
        }
        assert_eq!(dep.memory().alloc_count(), allocs, "{mode}");
        assert_eq!(dep.name_lookups(), lookups, "{mode}");

        dep.reconfigure(|txn| txn.rebind(caller, "svc", svc_b))
            .unwrap();
        dep.run_transaction(caller).unwrap();
        let allocs = dep.memory().alloc_count();
        for _ in 0..100 {
            dep.run_transaction(caller).unwrap();
        }
        assert_eq!(
            dep.memory().alloc_count(),
            allocs,
            "{mode}: steady state after reconfigure"
        );
        assert_eq!(
            (a.load(Ordering::Relaxed), b.load(Ordering::Relaxed)),
            (101, 101),
            "{mode}"
        );
    }
}

/// Satellite regression: a refused transaction that swapped the fault
/// policy mid-backoff must not leave a stale restart handle armed. The
/// policy change disarms the pending supervised restart, and rollback —
/// which restores the policy through the same path — must not resurrect
/// it: a restart may only fire under the policy that scheduled it.
#[test]
fn refused_policy_swap_mid_backoff_leaves_no_stale_restart_handle() {
    let Fixture { mut dep, .. } = fixture(Mode::MergeAll);
    let caller = dep.resolve("caller").unwrap();
    dep.set_fault_policy(
        caller,
        FaultPolicy::Restart {
            max_restarts: 3,
            window: RelativeTime::from_millis(3_600_000),
            backoff: RelativeTime::from_millis(50),
        },
    )
    .unwrap();
    dep.install_fault_injector(
        caller,
        FaultInjector::new("caller", 5, 1).with_menu(FaultInjector::MENU_ERROR),
    )
    .unwrap();
    dep.run_tick().unwrap();
    assert!(dep.quarantined(caller).unwrap());
    assert_eq!(dep.armed_timers(), 1, "backoff restart pending");

    // The transaction swaps the policy mid-backoff, then fails.
    let err = dep
        .reconfigure(|txn| {
            txn.set_fault_policy(caller, FaultPolicy::Isolate)?;
            Err::<(), _>(FrameworkError::Content("refused".into()))
        })
        .unwrap_err();
    assert!(matches!(err, FrameworkError::Content(_)), "got {err}");

    // Rollback restored the Restart policy, but the handle armed before
    // the transaction is gone for good: cancelled timers cannot be
    // resurrected, and a ghost restart must never fire across a policy
    // transition the transaction abandoned.
    assert!(matches!(
        dep.fault_policy(caller).unwrap(),
        FaultPolicy::Restart { .. }
    ));
    assert_eq!(dep.armed_timers(), 0, "no stale handle survives rollback");

    // Well past the 50ms backoff (quantum 5ms): still quarantined, zero
    // supervised restarts.
    for _ in 0..20 {
        dep.run_tick().unwrap();
    }
    assert!(dep.quarantined(caller).unwrap(), "no ghost restart");
    let (_, restarts, _) = dep.supervision_counts(caller).unwrap();
    assert_eq!(restarts, 0);
}

/// Supervisor edges are journaled reconfiguration ops in every mode,
/// ULTRA-MERGE included — supervision is engine-level recovery machinery,
/// not structural reconfiguration. The shorthand and a transaction install
/// the same edge; a committed transaction installs the declared tree, an
/// edge that would close a cycle is refused eagerly, and a failing
/// transaction rolls the pre-transaction edges back exactly.
#[test]
fn supervisor_edges_reconfigure_transactionally() {
    for mode in [Mode::Soleil, Mode::MergeAll, Mode::UltraMerge] {
        let mut txn = fixture(mode).dep;
        let mut shorthand = fixture(mode).dep;
        txn.reconfigure(|t| t.set_supervisor("caller", Some("svc-a")))
            .unwrap();
        shorthand.set_supervisor("caller", Some("svc-a")).unwrap();
        for dep in [&txn, &shorthand] {
            let sup = dep.supervisor_of("caller").unwrap();
            assert_eq!(sup, Some(dep.resolve("svc-a").unwrap()), "{mode}");
        }
        assert_eq!(
            txn.structural_digests(),
            shorthand.structural_digests(),
            "{mode}"
        );
    }
    for mode in [Mode::Soleil, Mode::MergeAll, Mode::UltraMerge] {
        let Fixture { mut dep, .. } = fixture(mode);
        let caller = dep.resolve("caller").unwrap();
        let svc_a = dep.resolve("svc-a").unwrap();
        let svc_b = dep.resolve("svc-b").unwrap();

        // Commit a two-edge tree: caller → svc-a → svc-b.
        dep.reconfigure(|txn| {
            txn.set_supervisor(caller, Some(svc_a))?;
            txn.set_supervisor(svc_a, Some(svc_b))
        })
        .unwrap();
        assert_eq!(dep.supervisor_of(caller).unwrap(), Some(svc_a), "{mode}");
        assert_eq!(dep.supervisor_of(svc_a).unwrap(), Some(svc_b), "{mode}");

        // Closing the cycle svc-b → caller is refused inside the
        // transaction, and the rollback must restore BOTH edges touched
        // after the partial rewiring — not just drop the journal.
        let err = dep
            .reconfigure(|txn| {
                txn.set_supervisor(caller, None)?;
                txn.set_supervisor(caller, Some(svc_b))?;
                txn.set_supervisor(svc_b, Some(caller))
            })
            .unwrap_err();
        assert!(
            err.to_string().contains("cycle"),
            "{mode}: refusal must name the cycle: {err}"
        );
        assert_eq!(
            dep.supervisor_of(caller).unwrap(),
            Some(svc_a),
            "{mode}: rollback restored the pre-transaction edge"
        );
        assert_eq!(dep.supervisor_of(svc_a).unwrap(), Some(svc_b), "{mode}");
        assert_eq!(dep.supervisor_of(svc_b).unwrap(), None, "{mode}");

        // Clearing an edge is journaled too: a failing transaction that
        // cleared it leaves the committed tree untouched.
        let err = dep
            .reconfigure(|txn| {
                txn.set_supervisor(caller, None)?;
                Err::<(), _>(FrameworkError::Content("refused".into()))
            })
            .unwrap_err();
        assert!(matches!(err, FrameworkError::Content(_)), "got {err}");
        assert_eq!(dep.supervisor_of(caller).unwrap(), Some(svc_a), "{mode}");
    }
}

/// One journal, any shard count: the same architecture deployed on one
/// shard (`deploy`) and partitioned (`deploy_parallel`) takes the same
/// committed batch to the same architecture, policies and contracts, and
/// refuses the same failing batch without moving any structural digest.
#[test]
fn one_journal_commits_and_refuses_alike_on_one_and_many_shards() {
    let mut bv = BusinessView::new("parity");
    bv.active_periodic("caller", "5ms").unwrap();
    bv.passive("svc-a").unwrap();
    bv.passive("svc-b").unwrap();
    bv.active_periodic("other", "5ms").unwrap();
    bv.content("caller", "Caller").unwrap();
    bv.content("svc-a", "A").unwrap();
    bv.content("svc-b", "B").unwrap();
    bv.content("other", "O").unwrap();
    bv.require("caller", "svc", "ISvc").unwrap();
    bv.provide("svc-a", "svc", "ISvc").unwrap();
    bv.provide("svc-b", "svc", "ISvc").unwrap();
    bv.bind_sync("caller", "svc", "svc-a", "svc").unwrap();
    let mut flow = DesignFlow::new(bv);
    flow.thread_domain("rt-high", ThreadKind::Realtime, 30, &["caller"])
        .unwrap();
    flow.thread_domain("rt-low", ThreadKind::Realtime, 12, &[])
        .unwrap();
    flow.thread_domain("rt-other", ThreadKind::Realtime, 20, &["other"])
        .unwrap();
    flow.memory_area(
        "imm",
        MemoryKind::Immortal,
        Some(64 * 1024),
        &["rt-high", "rt-low", "rt-other", "svc-a", "svc-b"],
    )
    .unwrap();
    let arch = flow.merge().unwrap().into_validated().unwrap();

    let b = Arc::new(AtomicU32::new(0));
    let mut registry: ContentRegistry<Ping> = ContentRegistry::new();
    registry.register("Caller", || Box::new(Caller));
    registry.register("A", || Box::new(Counter(Arc::default())));
    let bc = b.clone();
    registry.register("B", move || Box::new(Counter(bc.clone())));
    registry.register("O", || Box::new(Counter(Arc::default())));

    let names = ["caller", "svc-a", "svc-b", "other"];
    let contract = TimingContract::new().with_deadline(RelativeTime::from_millis(500));
    // Architecture, fault policies and contracts: what a commit changes.
    let state = |dep: &Deployment<Ping>| {
        let arch = dep.architecture();
        let caller = arch.id_of("caller").unwrap();
        let (domain, _) = arch.thread_domain_of(caller).unwrap();
        let mut bindings: Vec<String> = arch
            .bindings()
            .iter()
            .map(|bi| {
                format!(
                    "{}.{} -> {}",
                    arch.component(bi.client.component).unwrap().name,
                    bi.client.interface,
                    arch.component(bi.server.component).unwrap().name
                )
            })
            .collect();
        bindings.sort();
        let per_component: Vec<String> = names
            .iter()
            .map(|&n| {
                format!(
                    "{n}: {:?} {:?}",
                    dep.fault_policy(n).unwrap(),
                    dep.contract_of(n).unwrap()
                )
            })
            .collect();
        (
            arch.component(domain).unwrap().name.clone(),
            bindings,
            per_component,
        )
    };

    let mut serial = deploy(&arch, Mode::MergeAll, &registry).unwrap();
    let mut sharded = deploy_parallel(&arch, Mode::MergeAll, &registry).unwrap();
    assert_eq!(serial.shard_count(), 1);
    assert!(sharded.shard_count() >= 2, "{}", sharded.shard_count());
    assert_ne!(
        sharded.shard_of_component("caller"),
        sharded.shard_of_component("other")
    );

    for dep in [&mut serial, &mut sharded] {
        dep.attach_contract("caller", contract.clone()).unwrap();
        dep.reconfigure(|txn| {
            txn.stop("caller")?;
            txn.rebind("caller", "svc", "svc-b")?;
            txn.start("caller")?;
            txn.set_fault_policy("other", FaultPolicy::Isolate)?;
            txn.attach_contract("other", contract.clone())?;
            txn.detach_contract("caller")?;
            txn.reassign_domain("caller", "rt-low")
        })
        .unwrap();
    }
    let committed = state(&serial);
    assert_eq!(committed.0, "rt-low");
    assert!(committed.1.contains(&"caller.svc -> svc-b".to_string()));
    assert_eq!(state(&sharded), committed, "both shapes commit alike");

    // The rebound caller now reaches svc-b on either shape.
    serial
        .run_transaction(serial.resolve("caller").unwrap())
        .unwrap();
    assert_eq!(b.load(Ordering::Relaxed), 1);
    sharded
        .run_transaction(sharded.resolve("caller").unwrap())
        .unwrap();
    assert_eq!(b.load(Ordering::Relaxed), 2);

    for dep in [&mut serial, &mut sharded] {
        let digests = dep.structural_digests();
        let err = dep
            .reconfigure(|txn| {
                txn.stop("other")?;
                txn.rebind("caller", "svc", "svc-a")?;
                txn.set_fault_policy("caller", FaultPolicy::Isolate)?;
                txn.attach_contract("caller", contract.clone())?;
                txn.detach_contract("other")?;
                txn.reassign_domain("caller", "rt-high")?;
                Err::<(), _>(FrameworkError::Content("refused".into()))
            })
            .unwrap_err();
        assert!(matches!(err, FrameworkError::Content(_)), "got {err}");
        assert_eq!(dep.structural_digests(), digests, "refusal is a no-op");
        assert_eq!(state(dep), committed, "refusal restores the commit");
    }
}

/// Hook counters shared by every instance of the `Hooked` content class:
/// `on_start` and `on_stop` calls, and the numbers of the `on_start` and
/// the `on_stop` call that panic (0: none does).
#[derive(Debug, Default)]
struct Hooks {
    starts: AtomicU32,
    stops: AtomicU32,
    panic_on_start: AtomicU32,
    panic_on_stop: AtomicU32,
}

impl Hooks {
    /// `(on_start calls, on_stop calls)`.
    fn counts(&self) -> (u32, u32) {
        (
            self.starts.load(Ordering::Relaxed),
            self.stops.load(Ordering::Relaxed),
        )
    }
}

#[derive(Debug)]
struct Hooked(Arc<Hooks>);
impl Content<Ping> for Hooked {
    fn on_invoke(&mut self, _p: &str, _m: &mut Ping, _o: &mut dyn Ports<Ping>) -> InvokeResult {
        Ok(())
    }

    fn on_start(&mut self) {
        let n = self.0.starts.fetch_add(1, Ordering::Relaxed) + 1;
        if n == self.0.panic_on_start.load(Ordering::Relaxed) {
            panic!("on_start call {n} panicked");
        }
    }

    fn on_stop(&mut self) {
        let n = self.0.stops.fetch_add(1, Ordering::Relaxed) + 1;
        if n == self.0.panic_on_stop.load(Ordering::Relaxed) {
            panic!("on_stop call {n} panicked");
        }
    }
}

/// Whether `err` is the typed fault a panicking hook of `component`
/// becomes.
fn is_hook_panic(err: &FrameworkError, component: &str) -> bool {
    matches!(
        err,
        FrameworkError::Faulted { component: c, kind: FaultKind::Panic, detail }
            if c == component && detail.contains("panicked")
    )
}

/// The deployments every rollback probe runs on: one shard and the
/// thread-domain partition, in SOLEIL and MERGE-ALL.
const PROBE_SHAPES: [(Mode, bool); 4] = [
    (Mode::Soleil, false),
    (Mode::MergeAll, false),
    (Mode::Soleil, true),
    (Mode::MergeAll, true),
];

/// The rollback-probe fixture. `caller` (first child of `rt-high`, ahead
/// of `ticker`) calls `svc-a` through `svc` and binds `svc-c` through
/// `aux`, after `svc`; `svc-b` offers the same `svc` interface; `rt-low` is
/// an empty domain to move into; `other` runs alone in `rt-other`, so the
/// partition has at least two shards. `svc-a` runs the `Hooked` class.
fn probe_fixture(mode: Mode, sharded: bool, hooks: &Arc<Hooks>) -> Deployment<Ping> {
    let dep = probe_deploy(mode, sharded, hooks).unwrap();
    assert_eq!(dep.shard_count() > 1, sharded, "{mode}");
    dep
}

/// Deploys the [`probe_fixture`], returning the deploy's error.
fn probe_deploy(
    mode: Mode,
    sharded: bool,
    hooks: &Arc<Hooks>,
) -> Result<Deployment<Ping>, GeneratorError> {
    let mut bv = BusinessView::new("rollback-probes");
    for periodic in ["caller", "ticker", "other"] {
        bv.active_periodic(periodic, "5ms").unwrap();
    }
    for passive in ["svc-a", "svc-b", "svc-c"] {
        bv.passive(passive).unwrap();
        bv.provide(passive, "svc", "ISvc").unwrap();
    }
    bv.content("caller", "Caller").unwrap();
    bv.content("ticker", "Counter").unwrap();
    bv.content("other", "Counter").unwrap();
    bv.content("svc-a", "Hooked").unwrap();
    bv.content("svc-b", "Counter").unwrap();
    bv.content("svc-c", "Counter").unwrap();
    bv.require("caller", "svc", "ISvc").unwrap();
    bv.require("caller", "aux", "ISvc").unwrap();
    bv.bind_sync("caller", "svc", "svc-a", "svc").unwrap();
    bv.bind_sync("caller", "aux", "svc-c", "svc").unwrap();
    let mut flow = DesignFlow::new(bv);
    flow.thread_domain("rt-high", ThreadKind::Realtime, 30, &["caller", "ticker"])
        .unwrap();
    flow.thread_domain("rt-low", ThreadKind::Realtime, 12, &[])
        .unwrap();
    flow.thread_domain("rt-other", ThreadKind::Realtime, 20, &["other"])
        .unwrap();
    flow.memory_area(
        "imm",
        MemoryKind::Immortal,
        Some(64 * 1024),
        &["rt-high", "rt-low", "rt-other", "svc-a", "svc-b", "svc-c"],
    )
    .unwrap();
    let arch = flow.merge().unwrap().into_validated().unwrap();

    let mut registry: ContentRegistry<Ping> = ContentRegistry::new();
    registry.register("Caller", || Box::new(Caller));
    registry.register("Counter", || Box::new(Counter(Arc::default())));
    let h = hooks.clone();
    registry.register("Hooked", move || Box::new(Hooked(h.clone())));
    if sharded {
        deploy_parallel(&arch, mode, &registry)
    } else {
        deploy(&arch, mode, &registry)
    }
}

/// What a refused transaction must leave byte-identical: every shard's
/// structural digest and the architecture's JSON form.
fn probe_state(dep: &Deployment<Ping>) -> (Vec<u64>, String) {
    (
        dep.structural_digests(),
        soleil::core::adl::to_json(dep.architecture()),
    )
}

fn refused() -> FrameworkError {
    FrameworkError::Content("refused".into())
}

/// Rollback writes the stopped component's lifecycle record back instead
/// of starting it again: the closure's error returns even though a second
/// `on_start` would panic, `on_stop` ran once and `on_start` never reran.
#[test]
fn refused_stop_rolls_back_without_rerunning_on_start() {
    for (mode, sharded) in PROBE_SHAPES {
        let hooks = Arc::new(Hooks::default());
        hooks.panic_on_start.store(2, Ordering::Relaxed);
        let mut dep = probe_fixture(mode, sharded, &hooks);
        let before = probe_state(&dep);
        let err = dep
            .reconfigure(|txn| {
                txn.stop("svc-a")?;
                Err::<(), _>(refused())
            })
            .unwrap_err();
        assert!(matches!(err, FrameworkError::Content(_)), "{mode}: {err}");
        assert_eq!(probe_state(&dep), before, "{mode} sharded={sharded}");
        assert_eq!(hooks.counts(), (1, 1), "{mode}: on_start at build only");
        // The restored record admits calls again.
        dep.run_tick().unwrap();
    }
}

/// A panic of the closure inside the transaction rolls back the
/// operations already applied before the unwind leaves `reconfigure`. A
/// hook an operation ran runs under a catch: its panic is a typed fault
/// the operation returns, and the transaction rolls back before
/// `reconfigure` returns it.
#[test]
fn a_panicking_transaction_rolls_back_before_its_unwind_continues() {
    for (mode, sharded) in PROBE_SHAPES {
        let hooks = Arc::new(Hooks::default());
        hooks.panic_on_start.store(2, Ordering::Relaxed);
        let mut dep = probe_fixture(mode, sharded, &hooks);
        let before = probe_state(&dep);
        let unwind = catch_unwind(AssertUnwindSafe(|| {
            dep.reconfigure(|txn| -> Result<(), FrameworkError> {
                txn.stop("svc-a")?;
                panic!("closure panicked mid-transaction");
            })
        }));
        assert!(unwind.is_err(), "{mode}: the unwind propagates");
        assert_eq!(probe_state(&dep), before, "{mode} sharded={sharded}");

        dep.reconfigure(|txn| txn.stop("svc-a")).unwrap();
        let before = probe_state(&dep);
        let err = dep
            .reconfigure(|txn| {
                txn.stop("other")?;
                txn.start("svc-a")
            })
            .unwrap_err();
        assert!(is_hook_panic(&err, "svc-a"), "{mode}: {err}");
        assert_eq!(probe_state(&dep), before, "{mode} sharded={sharded}");
        assert_eq!(hooks.counts(), (2, 2), "{mode}");
    }
}

/// A refused rebind and a refused domain move restore the architectural
/// model in place: the rebound binding keeps its position in `bindings()`
/// and the domain its child order, so the JSON form is byte-identical.
#[test]
fn refused_rebind_and_domain_move_restore_the_architecture_byte_identically() {
    for (mode, sharded) in PROBE_SHAPES {
        let mut dep = probe_fixture(mode, sharded, &Arc::default());
        let before = probe_state(&dep);
        dep.reconfigure(|txn| {
            txn.rebind("caller", "svc", "svc-b")?;
            Err::<(), _>(refused())
        })
        .unwrap_err();
        assert_eq!(
            probe_state(&dep),
            before,
            "{mode} sharded={sharded}: rebind"
        );
        dep.reconfigure(|txn| {
            txn.reassign_domain("caller", "rt-low")?;
            Err::<(), _>(refused())
        })
        .unwrap_err();
        assert_eq!(
            probe_state(&dep),
            before,
            "{mode} sharded={sharded}: domain"
        );
    }
}

/// Content whose state a re-homing move charges to its new region: 64
/// bytes, 80 with the substrate's object header.
#[derive(Debug)]
struct Stateful;
impl Content<Ping> for Stateful {
    fn on_invoke(&mut self, _p: &str, _m: &mut Ping, _o: &mut dyn Ports<Ping>) -> InvokeResult {
        Ok(())
    }

    fn state_bytes(&self) -> usize {
        64
    }
}

/// A commit admits its deferred charges before it makes any: moving `x`
/// and `y` into `rt-scope`, whose scoped area has room for one re-homing
/// charge but not two, is refused with nothing charged, and moving `x`
/// alone commits and charges its 80 bytes.
#[test]
fn a_commit_refused_at_its_charges_makes_none_of_them() {
    let mut bv = BusinessView::new("charge-admission");
    for c in ["x", "y"] {
        bv.active_periodic(c, "5ms").unwrap();
        bv.content(c, "Stateful").unwrap();
    }
    let mut flow = DesignFlow::new(bv);
    flow.thread_domain("rt", ThreadKind::Realtime, 20, &["x", "y"])
        .unwrap();
    flow.thread_domain("rt-scope", ThreadKind::Realtime, 22, &[])
        .unwrap();
    flow.memory_area("imm", MemoryKind::Immortal, Some(64 * 1024), &["rt"])
        .unwrap();
    flow.memory_area("scope", MemoryKind::Scoped, Some(120), &["rt-scope"])
        .unwrap();
    let arch = flow.merge().unwrap().into_validated().unwrap();
    let mut registry: ContentRegistry<Ping> = ContentRegistry::new();
    registry.register("Stateful", || Box::new(Stateful));

    for mode in [Mode::Soleil, Mode::MergeAll] {
        let mut dep = deploy(&arch, mode, &registry).unwrap();
        let state =
            |dep: &Deployment<Ping>| (dep.memory().total_consumed(), dep.structural_digests());
        let before = state(&dep);
        let err = dep
            .reconfigure(|txn| {
                txn.reassign_domain("x", "rt-scope")?;
                txn.reassign_domain("y", "rt-scope")
            })
            .unwrap_err();
        assert_eq!(state(&dep), before, "{mode}: the refusal charged nothing");
        assert!(
            matches!(
                err,
                FrameworkError::Rtsj(RtsjError::OutOfMemory { requested: 160, .. })
            ),
            "{mode}: {err}"
        );

        dep.reconfigure(|txn| txn.reassign_domain("x", "rt-scope"))
            .unwrap();
        assert_eq!(
            dep.memory().total_consumed(),
            before.0 + 80,
            "{mode}: one move fits"
        );
    }
}

/// The re-homing fixture: `caller` (domain `rt`, in immortal memory)
/// calls `svc` in the scoped area `scope`, entering it. Moving `caller` to
/// `rt-scope`, a domain inside `scope`, re-homes it next to `svc`, and the
/// call becomes direct. Sharded, `y` keeps `rt-scope` on `caller`'s shard
/// and `z` runs on a second one.
fn rehome_arch() -> ValidatedArchitecture {
    let mut bv = BusinessView::new("pattern-rehome");
    for c in ["caller", "y", "z"] {
        bv.active_periodic(c, "5ms").unwrap();
    }
    bv.passive("svc").unwrap();
    bv.content("caller", "Caller").unwrap();
    bv.content("y", "A").unwrap();
    bv.content("z", "A").unwrap();
    bv.content("svc", "B").unwrap();
    bv.require("caller", "svc", "ISvc").unwrap();
    bv.provide("svc", "svc", "ISvc").unwrap();
    bv.bind_sync("caller", "svc", "svc", "svc").unwrap();
    let mut flow = DesignFlow::new(bv);
    flow.thread_domain("rt", ThreadKind::Realtime, 22, &["caller"])
        .unwrap();
    flow.thread_domain("rt-scope", ThreadKind::Realtime, 22, &["y"])
        .unwrap();
    flow.thread_domain("other", ThreadKind::Realtime, 20, &["z"])
        .unwrap();
    flow.memory_area("imm", MemoryKind::Immortal, Some(4 << 20), &["rt", "other"])
        .unwrap();
    flow.memory_area(
        "scope",
        MemoryKind::Scoped,
        Some(16 * 1024),
        &["rt-scope", "svc"],
    )
    .unwrap();
    flow.merge().unwrap().into_validated().unwrap()
}

/// A caller whose state no 16 KiB scope can hold: re-homing it into one
/// is refused at the commit's charges.
#[derive(Debug)]
struct HeavyCaller;
impl Content<Ping> for HeavyCaller {
    fn on_invoke(&mut self, _p: &str, msg: &mut Ping, out: &mut dyn Ports<Ping>) -> InvokeResult {
        out.call("svc", msg)
    }

    fn state_bytes(&self) -> usize {
        1 << 20
    }
}

/// The contents of both plan fixtures; `heavy` swaps in [`HeavyCaller`].
fn plan_registry(heavy: bool) -> ContentRegistry<Ping> {
    let mut registry: ContentRegistry<Ping> = ContentRegistry::new();
    if heavy {
        registry.register("Caller", || Box::new(HeavyCaller));
    } else {
        registry.register("Caller", || Box::new(Caller));
    }
    registry.register("A", || Box::new(Counter(Arc::default())));
    registry.register("B", || Box::new(Counter(Arc::default())));
    registry
}

/// The plan a SOLEIL deployment reifies says what a fresh deploy of its
/// committed architecture says, cross-scope patterns and enter paths
/// included: after a committed rebind into a scope and after a committed
/// re-homing next to a scoped service, on one shard and sharded. A
/// transaction refused in its closure or at its commit leaves the plan as
/// it was.
#[test]
fn committed_plan_matches_a_fresh_deploy() {
    for sharded in [false, true] {
        let build = |arch: &ValidatedArchitecture, registry: &ContentRegistry<Ping>| {
            if sharded {
                deploy_parallel(arch, Mode::Soleil, registry)
            } else {
                deploy(arch, Mode::Soleil, registry)
            }
            .unwrap()
        };
        let plan = |dep: &Deployment<Ping>| dep.reified_spec().cloned().unwrap();
        let fresh = |dep: &Deployment<Ping>| {
            let arch = dep.architecture().clone().into_validated().unwrap();
            plan(&build(&arch, &plan_registry(false)))
        };
        let crossing = |dep: &Deployment<Ping>| plan(dep).crossing(0);

        // A rebind into a scope.
        let mut dep = build(&scoped_rebind_arch(), &plan_registry(false));
        let before = plan(&dep);
        dep.reconfigure(|txn| {
            txn.rebind("caller", "svc", "svc-b")?;
            Err::<(), _>(refused())
        })
        .unwrap_err();
        assert_eq!(plan(&dep), before, "sharded={sharded}: refused rebind");
        dep.reconfigure(|txn| txn.rebind("caller", "svc", "svc-b"))
            .unwrap();
        assert_eq!(
            crossing(&dep),
            (PatternKind::EnterInner, vec![1]),
            "sharded={sharded}"
        );
        assert_eq!(plan(&dep), fresh(&dep), "sharded={sharded}: rebind");

        // A re-homing next to a scoped service.
        let mut dep = build(&rehome_arch(), &plan_registry(false));
        assert_eq!(dep.shard_count(), if sharded { 2 } else { 1 });
        let before = plan(&dep);
        assert_eq!(crossing(&dep).0, PatternKind::EnterInner);
        dep.reconfigure(|txn| {
            txn.reassign_domain("caller", "rt-scope")?;
            Err::<(), _>(refused())
        })
        .unwrap_err();
        assert_eq!(plan(&dep), before, "sharded={sharded}: refused re-homing");
        dep.reconfigure(|txn| txn.reassign_domain("caller", "rt-scope"))
            .unwrap();
        assert_eq!(
            crossing(&dep),
            (PatternKind::Direct, vec![]),
            "sharded={sharded}"
        );
        assert_eq!(plan(&dep), fresh(&dep), "sharded={sharded}: re-homing");

        // The same re-homing, refused at the commit's charges.
        let mut dep = build(&rehome_arch(), &plan_registry(true));
        let before = plan(&dep);
        let err = dep
            .reconfigure(|txn| txn.reassign_domain("caller", "rt-scope"))
            .unwrap_err();
        assert!(
            matches!(err, FrameworkError::Rtsj(RtsjError::OutOfMemory { .. })),
            "sharded={sharded}: {err}"
        );
        assert_eq!(plan(&dep), before, "sharded={sharded}: refused commit");
    }
}

/// The ceiling fixture: `c1` and `c3` (domain `hi`, priority 30) call
/// `svc-a`; `c2` (domain `lo`, priority 20) calls `svc-b`, which `c1` also
/// calls through `aux`, so `svc-b` starts shared and both domains share a
/// shard; `other` runs alone in `solo`, so the partition has two shards.
fn ceiling_arch() -> ValidatedArchitecture {
    let mut bv = BusinessView::new("ceilings");
    for c in ["c1", "c2", "c3", "other"] {
        bv.active_periodic(c, "5ms").unwrap();
        bv.content(c, "A").unwrap();
    }
    for s in ["svc-a", "svc-b"] {
        bv.passive(s).unwrap();
        bv.content(s, "B").unwrap();
        bv.provide(s, "svc", "ISvc").unwrap();
    }
    for (client, port, server) in [
        ("c1", "svc", "svc-a"),
        ("c1", "aux", "svc-b"),
        ("c2", "svc", "svc-b"),
        ("c3", "svc", "svc-a"),
    ] {
        bv.require(client, port, "ISvc").unwrap();
        bv.bind_sync(client, port, server, "svc").unwrap();
    }
    let mut flow = DesignFlow::new(bv);
    flow.thread_domain("hi", ThreadKind::Realtime, 30, &["c1", "c3"])
        .unwrap();
    flow.thread_domain("lo", ThreadKind::Realtime, 20, &["c2"])
        .unwrap();
    flow.thread_domain("solo", ThreadKind::Realtime, 22, &["other"])
        .unwrap();
    flow.memory_area(
        "imm",
        MemoryKind::Immortal,
        Some(64 * 1024),
        &["hi", "lo", "solo", "svc-a", "svc-b"],
    )
    .unwrap();
    flow.merge().unwrap().into_validated().unwrap()
}

/// A priority ceiling follows the callers a commit seats: after a
/// committed rebind adds a second domain's caller to `svc-a`, and after a
/// committed domain move does, every component's ceiling is what a fresh
/// deploy of the committed architecture assigns, in SOLEIL and MERGE-ALL,
/// on one shard and sharded.
#[test]
fn committed_ceilings_match_a_fresh_deploy() {
    let names = ["c1", "c2", "c3", "other", "svc-a", "svc-b"];
    for (mode, sharded) in PROBE_SHAPES {
        let build = |arch: &ValidatedArchitecture| {
            let registry = plan_registry(false);
            if sharded {
                deploy_parallel(arch, mode, &registry)
            } else {
                deploy(arch, mode, &registry)
            }
            .unwrap()
        };
        let ceilings = |dep: &Deployment<Ping>| names.map(|c| dep.ceiling_of(c).unwrap());
        let fresh = |dep: &Deployment<Ping>| {
            ceilings(&build(
                &dep.architecture().clone().into_validated().unwrap(),
            ))
        };
        let shape = format!("{mode} sharded={sharded}");
        let hi = Some(Priority::new(30));

        let mut dep = build(&ceiling_arch());
        assert_eq!(dep.ceiling_of("svc-a").unwrap(), None, "{shape}");
        assert_eq!(dep.ceiling_of("svc-b").unwrap(), hi, "{shape}");
        dep.reconfigure(|txn| txn.rebind("c2", "svc", "svc-a"))
            .unwrap();
        assert_eq!(dep.ceiling_of("svc-a").unwrap(), hi, "{shape}: rebind");
        assert_eq!(dep.ceiling_of("svc-b").unwrap(), None, "{shape}: rebind");
        assert_eq!(ceilings(&dep), fresh(&dep), "{shape}: rebind");

        let mut dep = build(&ceiling_arch());
        dep.reconfigure(|txn| txn.reassign_domain("c3", "lo"))
            .unwrap();
        assert_eq!(dep.ceiling_of("svc-a").unwrap(), hi, "{shape}: move");
        assert_eq!(ceilings(&dep), fresh(&dep), "{shape}: move");
    }
}

/// `p` feeds `q` through a buffer that build places on the heap: both sit
/// in the regular domain `reg` in a heap area. Moving `p` onto the NHRT
/// domain `nhrt` in immortal memory would leave an NHRT producer pushing
/// onto a heap buffer, where a fresh deploy would place the buffer in
/// immortal memory, and a live buffer does not move: the move is refused
/// with a typed error and changes nothing, and the pipeline keeps running.
#[test]
fn a_domain_move_that_would_strand_a_heap_buffer_is_refused() {
    let mut bv = BusinessView::new("heap-buffer");
    bv.active_periodic("p", "5ms").unwrap();
    bv.active_sporadic("q").unwrap();
    bv.content("p", "Sender").unwrap();
    bv.content("q", "B").unwrap();
    bv.require("p", "out", "I").unwrap();
    bv.provide("q", "in", "I").unwrap();
    bv.bind_async("p", "out", "q", "in", 4).unwrap();
    let mut flow = DesignFlow::new(bv);
    flow.thread_domain("reg", ThreadKind::Regular, 5, &["p", "q"])
        .unwrap();
    flow.thread_domain("nhrt", ThreadKind::NoHeapRealtime, 30, &[])
        .unwrap();
    flow.memory_area("heap", MemoryKind::Heap, None, &["reg"])
        .unwrap();
    flow.memory_area("imm", MemoryKind::Immortal, Some(64 * 1024), &["nhrt"])
        .unwrap();
    let arch = flow.merge().unwrap().into_validated().unwrap();

    for mode in [Mode::Soleil, Mode::MergeAll] {
        let delivered = Arc::new(AtomicU32::new(0));
        let mut registry: ContentRegistry<Ping> = ContentRegistry::new();
        registry.register("Sender", || Box::new(Sender));
        let counter = delivered.clone();
        registry.register("B", move || Box::new(Counter(counter.clone())));
        let mut dep = deploy(&arch, mode, &registry).unwrap();
        let state = |dep: &Deployment<Ping>| {
            (
                dep.structural_digests(),
                dep.reified_spec().cloned(),
                soleil::core::adl::to_json(dep.architecture()),
            )
        };
        let before = state(&dep);
        let err = dep
            .reconfigure(|txn| txn.reassign_domain("p", "nhrt"))
            .unwrap_err();
        assert!(
            matches!(err, FrameworkError::Unsupported(_)),
            "{mode}: {err}"
        );
        assert!(state(&dep) == before, "{mode}: the refusal changed nothing");
        let p = dep.resolve("p").unwrap();
        dep.run_transaction(p).unwrap();
        assert_eq!(delivered.load(Ordering::Relaxed), 1, "{mode}");
    }
}

/// `on_start` and `on_stop` run under a catch wherever they run. Inside a
/// transaction, a panicking `on_stop` is a typed fault the operation
/// returns, and the transaction rolls back, leaving the digests and the
/// architecture byte-identical (SOLEIL and MERGE-ALL). At build, `deploy`
/// returns a panicking `on_start`, and at teardown `shutdown` returns a
/// panicking `on_stop` (every mode). On one shard and sharded.
#[test]
fn panicking_lifecycle_hooks_are_typed_faults_at_every_site() {
    for (mode, sharded) in PROBE_SHAPES {
        let hooks = Arc::new(Hooks::default());
        hooks.panic_on_stop.store(1, Ordering::Relaxed);
        let mut dep = probe_fixture(mode, sharded, &hooks);
        let before = probe_state(&dep);
        let err = dep
            .reconfigure(|txn| {
                txn.rebind("caller", "svc", "svc-b")?;
                txn.reassign_domain("caller", "rt-low")?;
                txn.stop("svc-a")
            })
            .unwrap_err();
        assert!(is_hook_panic(&err, "svc-a"), "{mode}: {err}");
        assert_eq!(probe_state(&dep), before, "{mode} sharded={sharded}");
        assert_eq!(hooks.counts(), (1, 1), "{mode}");
        // The stop did not happen: the caller still reaches `svc-a`.
        dep.run_tick().unwrap();
    }
    for mode in [Mode::Soleil, Mode::MergeAll, Mode::UltraMerge] {
        for sharded in [false, true] {
            let hooks = Arc::new(Hooks::default());
            hooks.panic_on_start.store(1, Ordering::Relaxed);
            match probe_deploy(mode, sharded, &hooks) {
                Err(GeneratorError::Build(err)) => {
                    assert!(is_hook_panic(&err, "svc-a"), "{mode}: {err}");
                }
                Err(err) => panic!("{mode} sharded={sharded}: {err}"),
                Ok(_) => panic!("{mode} sharded={sharded}: the build ignored the panic"),
            }

            let hooks = Arc::new(Hooks::default());
            hooks.panic_on_stop.store(1, Ordering::Relaxed);
            let mut dep = probe_fixture(mode, sharded, &hooks);
            let err = dep.shutdown().unwrap_err();
            assert!(is_hook_panic(&err, "svc-a"), "{mode}: {err}");
            assert_eq!(hooks.counts(), (1, 1), "{mode} sharded={sharded}");
        }
    }
}

/// What [`CheckpointProbe`]'s `state_bytes` and `checkpoint` do: 0 work,
/// 1 panics in `state_bytes`, 2 panics in `checkpoint`. Deploy reads
/// `state_bytes` while it is 0.
#[derive(Debug)]
struct CheckpointProbe(Arc<AtomicU32>);
impl Content<Ping> for CheckpointProbe {
    fn on_invoke(&mut self, _p: &str, _m: &mut Ping, _o: &mut dyn Ports<Ping>) -> InvokeResult {
        Ok(())
    }

    fn state_bytes(&self) -> usize {
        assert_ne!(self.0.load(Ordering::Relaxed), 1, "state_bytes panicked");
        16
    }

    fn checkpoint(&self, _image: &mut StateImage) -> bool {
        assert_ne!(self.0.load(Ordering::Relaxed), 2, "checkpoint panicked");
        true
    }
}

/// `probe` (class `Probe`) and `other` (class `Counter`), each periodic in
/// its own domain, so the partition has two shards.
fn checkpoint_probe_arch() -> ValidatedArchitecture {
    let mut bv = BusinessView::new("checkpoint-probe");
    for c in ["probe", "other"] {
        bv.active_periodic(c, "5ms").unwrap();
    }
    bv.content("probe", "Probe").unwrap();
    bv.content("other", "Counter").unwrap();
    let mut flow = DesignFlow::new(bv);
    flow.thread_domain("rt", ThreadKind::Realtime, 20, &["probe"])
        .unwrap();
    flow.thread_domain("rt-other", ThreadKind::Realtime, 22, &["other"])
        .unwrap();
    flow.memory_area(
        "imm",
        MemoryKind::Immortal,
        Some(64 * 1024),
        &["rt", "rt-other"],
    )
    .unwrap();
    flow.merge().unwrap().into_validated().unwrap()
}

/// `enable_checkpoint`'s probe runs under a catch: a panicking
/// `state_bytes` or `checkpoint` is a typed fault, with nothing enabled,
/// charged or changed, in every mode, on one shard and sharded. Once the
/// probe stops panicking, the capability enables.
#[test]
fn a_panicking_checkpoint_probe_is_a_typed_fault() {
    let arch = checkpoint_probe_arch();
    for mode in [Mode::Soleil, Mode::MergeAll, Mode::UltraMerge] {
        for sharded in [false, true] {
            let arm = Arc::new(AtomicU32::new(0));
            let mut registry: ContentRegistry<Ping> = ContentRegistry::new();
            let a = arm.clone();
            registry.register("Probe", move || Box::new(CheckpointProbe(a.clone())));
            registry.register("Counter", || Box::new(Counter(Arc::default())));
            let mut dep = if sharded {
                deploy_parallel(&arch, mode, &registry).unwrap()
            } else {
                deploy(&arch, mode, &registry).unwrap()
            };
            assert_eq!(dep.shard_count() > 1, sharded, "{mode}");
            let state = |dep: &Deployment<Ping>| {
                (
                    dep.structural_digests(),
                    dep.memory().total_consumed(),
                    dep.checkpoint_counts("probe").unwrap(),
                )
            };
            let before = state(&dep);
            for hook in [1, 2] {
                arm.store(hook, Ordering::Relaxed);
                let err = dep.enable_checkpoint("probe", 4).unwrap_err();
                assert!(
                    is_hook_panic(&err, "probe"),
                    "{mode} sharded={sharded}: {err}"
                );
                assert_eq!(state(&dep), before, "{mode} sharded={sharded}");
            }
            arm.store(0, Ordering::Relaxed);
            dep.enable_checkpoint("probe", 4).unwrap();
            assert_eq!(
                dep.checkpoint_counts("probe").unwrap(),
                Some((1, 0)),
                "{mode}"
            );
        }
    }
}

/// One architectural edit of a scoped-refusal case: a synchronous rebind
/// `(client, port, server)` or a domain move `(component, domain)`.
#[derive(Debug, Clone, Copy)]
enum ArchEdit {
    Rebind(&'static str, &'static str, &'static str),
    Move(&'static str, &'static str),
}

impl ArchEdit {
    /// Applies the edit inside a transaction.
    fn apply(self, txn: &mut Reconfiguration<'_, Ping>) -> Result<(), FrameworkError> {
        match self {
            ArchEdit::Rebind(client, port, server) => txn.rebind(client, port, server),
            ArchEdit::Move(component, domain) => txn.reassign_domain(component, domain),
        }
    }

    /// The architecture `arch` would be after the edit.
    fn applied_to(self, arch: &Architecture) -> Architecture {
        let mut arch = arch.clone();
        let id = |name| arch.id_of(name).unwrap();
        match self {
            ArchEdit::Rebind(client, port, server) => {
                let (client, server) = (id(client), id(server));
                let _ = arch.rebind_server(client, port, server).unwrap();
            }
            ArchEdit::Move(component, domain) => {
                let (component, domain) = (id(component), id(domain));
                let (old, _) = arch.thread_domain_of(component).unwrap();
                let _ = arch.remove_child(old, component).unwrap();
                arch.add_child(domain, component).unwrap();
            }
        }
        arch
    }
}

/// A scoped-refusal case on `dep`: one transaction of `warm` commits, then
/// one of `edit` is refused with `Rejected`. Its *Error* findings are
/// those `validate` finds on the architecture the edit would have left,
/// `code` among them, and the rollback leaves the digests and the
/// architecture's JSON form byte-identical.
fn assert_scoped_refusal(
    dep: &mut Deployment<Ping>,
    warm: ArchEdit,
    edit: ArchEdit,
    code: &str,
    label: &str,
) {
    dep.reconfigure(|txn| warm.apply(txn))
        .unwrap_or_else(|e| panic!("{label}: the warm-up {warm:?} commits: {e}"));
    let before = probe_state(dep);
    let expected: Vec<Diagnostic> = validate(&edit.applied_to(dep.architecture()))
        .with_severity(Severity::Error)
        .cloned()
        .collect();
    assert!(
        expected.iter().any(|d| d.code == code),
        "{label}: {edit:?} breaks {code}: {expected:?}"
    );
    match dep.reconfigure(|txn| edit.apply(txn)) {
        Err(FrameworkError::Rejected(report)) => {
            let errors: Vec<Diagnostic> = report.with_severity(Severity::Error).cloned().collect();
            assert_eq!(errors, expected, "{label}: {edit:?}");
        }
        other => panic!("{label}: {edit:?} must be rejected, got {other:?}"),
    }
    assert_eq!(probe_state(dep), before, "{label}: the rollback");
}

/// The scoped-refusal fixture. `caller` (domain `rt`) calls the heap-held
/// `svc-heap` through `svc` and the immortal `svc-imm` through `aux`; `n`
/// (NHRT domain `nhrt`, in immortal memory) calls `svc-imm`; `x` runs in
/// `rt`, and so does `y`, which also sits directly in `imm`. The empty
/// domains `nhrt-heap` (NHRT, in the heap) and `rt-scope` (in the scoped
/// root area `scope`) are there to move into. The synchronous calls keep
/// all of these on the first shard; `other` runs alone in `rt-other`, so
/// the partition has a second one.
fn scoped_refusal_fixture(mode: Mode, sharded: bool) -> Deployment<Ping> {
    let mut bv = BusinessView::new("scoped-refusals");
    bv.active_periodic("caller", "5ms").unwrap();
    for passive in ["svc-heap", "svc-imm"] {
        bv.passive(passive).unwrap();
        bv.provide(passive, "svc", "ISvc").unwrap();
        bv.content(passive, "Counter").unwrap();
    }
    for periodic in ["n", "x", "y", "other"] {
        bv.active_periodic(periodic, "5ms").unwrap();
    }
    bv.content("caller", "Caller").unwrap();
    bv.content("n", "Caller").unwrap();
    for c in ["x", "y", "other"] {
        bv.content(c, "Counter").unwrap();
    }
    bv.require("caller", "svc", "ISvc").unwrap();
    bv.require("caller", "aux", "ISvc").unwrap();
    bv.require("n", "svc", "ISvc").unwrap();
    bv.bind_sync("caller", "svc", "svc-heap", "svc").unwrap();
    bv.bind_sync("caller", "aux", "svc-imm", "svc").unwrap();
    bv.bind_sync("n", "svc", "svc-imm", "svc").unwrap();
    let mut flow = DesignFlow::new(bv);
    flow.thread_domain("rt", ThreadKind::Realtime, 20, &["caller", "x", "y"])
        .unwrap();
    flow.thread_domain("nhrt", ThreadKind::NoHeapRealtime, 30, &["n"])
        .unwrap();
    flow.thread_domain("nhrt-heap", ThreadKind::NoHeapRealtime, 32, &[])
        .unwrap();
    flow.thread_domain("rt-scope", ThreadKind::Realtime, 24, &[])
        .unwrap();
    flow.thread_domain("rt-other", ThreadKind::Realtime, 22, &["other"])
        .unwrap();
    flow.memory_area(
        "imm",
        MemoryKind::Immortal,
        Some(64 * 1024),
        &["rt", "nhrt", "rt-other", "svc-imm", "y"],
    )
    .unwrap();
    flow.memory_area("heap", MemoryKind::Heap, None, &["svc-heap", "nhrt-heap"])
        .unwrap();
    flow.memory_area("scope", MemoryKind::Scoped, Some(16 * 1024), &["rt-scope"])
        .unwrap();
    let arch = flow.merge().unwrap().into_validated().unwrap();

    let mut registry: ContentRegistry<Ping> = ContentRegistry::new();
    registry.register("Caller", || Box::new(Caller));
    registry.register("Counter", || Box::new(Counter(Arc::default())));
    let dep = if sharded {
        deploy_parallel(&arch, mode, &registry).unwrap()
    } else {
        deploy(&arch, mode, &registry).unwrap()
    };
    assert_eq!(dep.shard_count() > 1, sharded, "{mode}");
    dep
}

/// A commit after a committed transaction re-checks only what its journal
/// touched, and still refuses each rule's violation as `validate` does,
/// with a byte-identical rollback: SOL-006 through a rebind of an NHRT
/// client onto a heap-held service, on the [`heap_rebind_fixture`] (one
/// shard only: its heap-held service joins the caller's shard); then on
/// the [`scoped_refusal_fixture`], after a transaction that moves `x` to
/// the domain it is in, one case per rule, on one shard and sharded.
#[test]
fn a_scoped_commit_refuses_what_validate_refuses() {
    for mode in [Mode::Soleil, Mode::MergeAll] {
        let mut dep = heap_rebind_fixture(mode).dep;
        assert_scoped_refusal(
            &mut dep,
            ArchEdit::Rebind("caller", "svc", "svc-imm"),
            ArchEdit::Rebind("caller", "svc", "svc-heap"),
            "SOL-006",
            &format!("{mode}, heap_rebind_fixture"),
        );
    }
    let cases = [
        // SOL-006 through a rebind: the NHRT `n` onto the heap.
        (ArchEdit::Rebind("n", "svc", "svc-heap"), "SOL-006"),
        // SOL-006 through a move: the binding is not rebound, only its
        // client, a synchronous caller of `svc-heap`, moves into NHRT.
        (ArchEdit::Move("caller", "nhrt"), "SOL-006"),
        // SOL-003: into an NHRT domain whose area is the heap, re-homing
        // `x` onto the heap.
        (ArchEdit::Move("x", "nhrt-heap"), "SOL-003"),
        // SOL-004: `y` also sits directly in `imm`, which is unrelated to
        // `rt-scope`'s area `scope`.
        (ArchEdit::Move("y", "rt-scope"), "SOL-004"),
    ];
    for (mode, sharded) in PROBE_SHAPES {
        for (edit, code) in cases {
            let mut dep = scoped_refusal_fixture(mode, sharded);
            assert_scoped_refusal(
                &mut dep,
                ArchEdit::Move("x", "rt"),
                edit,
                code,
                &format!("{mode} sharded={sharded}"),
            );
        }
    }
}

/// A re-homing move reads the moved state's size from user code before
/// the engine changes: a panicking `state_bytes` is a typed fault, and
/// the transaction rolls back with the digests and the architecture
/// byte-identical and the deployment still reconfigurable, on one shard
/// and sharded. Without the catch the unwind left the move half applied.
#[test]
fn a_panicking_state_bytes_on_a_rehoming_move_is_a_typed_fault() {
    let mut bv = BusinessView::new("rehome-probe");
    for c in ["x", "other"] {
        bv.active_periodic(c, "5ms").unwrap();
    }
    bv.content("x", "Sized").unwrap();
    bv.content("other", "Counter").unwrap();
    let mut flow = DesignFlow::new(bv);
    flow.thread_domain("rt", ThreadKind::Realtime, 20, &["x"])
        .unwrap();
    flow.thread_domain("rt-scope", ThreadKind::Realtime, 22, &[])
        .unwrap();
    flow.thread_domain("rt-other", ThreadKind::Realtime, 24, &["other"])
        .unwrap();
    flow.memory_area(
        "imm",
        MemoryKind::Immortal,
        Some(64 * 1024),
        &["rt", "rt-other"],
    )
    .unwrap();
    flow.memory_area("scope", MemoryKind::Scoped, Some(16 * 1024), &["rt-scope"])
        .unwrap();
    let arch = flow.merge().unwrap().into_validated().unwrap();

    for (mode, sharded) in PROBE_SHAPES {
        let arm = Arc::new(AtomicU32::new(0));
        let mut registry: ContentRegistry<Ping> = ContentRegistry::new();
        let a = arm.clone();
        registry.register("Sized", move || Box::new(CheckpointProbe(a.clone())));
        registry.register("Counter", || Box::new(Counter(Arc::default())));
        let mut dep = if sharded {
            deploy_parallel(&arch, mode, &registry).unwrap()
        } else {
            deploy(&arch, mode, &registry).unwrap()
        };
        assert_eq!(dep.shard_count() > 1, sharded, "{mode}");
        let before = (probe_state(&dep), dep.memory().total_consumed());
        arm.store(1, Ordering::Relaxed);
        let err = dep
            .reconfigure(|txn| txn.reassign_domain("x", "rt-scope"))
            .unwrap_err();
        assert!(is_hook_panic(&err, "x"), "{mode} sharded={sharded}: {err}");
        assert_eq!(
            (probe_state(&dep), dep.memory().total_consumed()),
            before,
            "{mode} sharded={sharded}"
        );
        arm.store(0, Ordering::Relaxed);
        dep.reconfigure(|txn| txn.reassign_domain("x", "rt-scope"))
            .unwrap();
        dep.run_tick().unwrap();
    }
}

/// The registry factory and the content's `state_bytes` run under one
/// catch at build: a panic in either reaches `deploy` and
/// `deploy_parallel` as the component's typed fault, in every mode.
#[test]
fn a_panicking_factory_or_state_bytes_at_build_is_a_typed_fault() {
    let arch = checkpoint_probe_arch();
    for mode in [Mode::Soleil, Mode::MergeAll, Mode::UltraMerge] {
        for sharded in [false, true] {
            for in_factory in [true, false] {
                let mut registry: ContentRegistry<Ping> = ContentRegistry::new();
                if in_factory {
                    registry.register("Probe", || panic!("the factory panicked"));
                } else {
                    let arm = Arc::new(AtomicU32::new(1));
                    registry.register("Probe", move || Box::new(CheckpointProbe(arm.clone())));
                }
                registry.register("Counter", || Box::new(Counter(Arc::default())));
                let shape = format!("{mode} sharded={sharded} in_factory={in_factory}");
                let built = if sharded {
                    deploy_parallel(&arch, mode, &registry)
                } else {
                    deploy(&arch, mode, &registry)
                };
                match built {
                    Err(GeneratorError::Build(err)) => {
                        assert!(is_hook_panic(&err, "probe"), "{shape}: {err}");
                    }
                    Err(err) => panic!("{shape}: {err}"),
                    Ok(_) => panic!("{shape}: the build ignored the panic"),
                }
            }
        }
    }
}

/// One of the four engine-level writes, on components of the
/// [`probe_fixture`].
#[derive(Debug, Clone, Copy)]
enum Write {
    Attach(&'static str),
    Detach(&'static str),
    Policy(&'static str, FaultPolicy),
    Supervise(&'static str, Option<&'static str>),
}

/// What a [`Write`] must do on a shape: commit, or be refused with an
/// error whose text contains the given words (everywhere, or only when
/// sharded, committing on one shard).
#[derive(Debug, Clone, Copy)]
enum Expect {
    Commits,
    Refused(&'static str),
    RefusedWhenSharded(&'static str),
}

/// The probe fixture's components.
const PROBE_COMPONENTS: [&str; 6] = ["caller", "ticker", "other", "svc-a", "svc-b", "svc-c"];

fn probe_contract() -> TimingContract {
    TimingContract::new().with_deadline(RelativeTime::from_millis(500))
}

impl Write {
    /// Applies the write through its `Deployment` shorthand or as a
    /// one-op transaction: `Ok` with detach's flag, or the error's text.
    fn apply(self, dep: &mut Deployment<Ping>, as_txn: bool) -> Result<Option<bool>, String> {
        let result = match (self, as_txn) {
            (Write::Attach(c), false) => dep.attach_contract(c, probe_contract()).map(|_| None),
            (Write::Attach(c), true) => dep
                .reconfigure(|t| t.attach_contract(c, probe_contract()))
                .map(|_| None),
            (Write::Detach(c), false) => dep.detach_contract(c).map(Some),
            (Write::Detach(c), true) => dep.reconfigure(|t| t.detach_contract(c)).map(Some),
            (Write::Policy(c, p), false) => dep.set_fault_policy(c, p).map(|_| None),
            (Write::Policy(c, p), true) => {
                dep.reconfigure(|t| t.set_fault_policy(c, p)).map(|_| None)
            }
            (Write::Supervise(c, s), false) => dep.set_supervisor(c, s).map(|_| None),
            (Write::Supervise(c, s), true) => {
                dep.reconfigure(|t| t.set_supervisor(c, s)).map(|_| None)
            }
        };
        result.map_err(|e| e.to_string())
    }

    /// Whether `dep` shows the write's effect.
    fn took(self, dep: &Deployment<Ping>) -> bool {
        match self {
            Write::Attach(c) => dep.contract_of(c).unwrap() == Some(probe_contract()),
            Write::Detach(c) => dep.contract_of(c).unwrap().is_none(),
            Write::Policy(c, p) => dep.fault_policy(c).unwrap() == p,
            Write::Supervise(c, s) => supervisor_name(dep, c) == s.map(str::to_owned),
        }
    }
}

fn supervisor_name(dep: &Deployment<Ping>, component: &str) -> Option<String> {
    let sup = dep.supervisor_of(component).unwrap()?;
    Some(dep.name_of(sup).unwrap().to_owned())
}

/// What the four writes change, per probe component, and every shard's
/// structural digest.
type WriteState = (
    Vec<(Option<TimingContract>, FaultPolicy, Option<String>)>,
    Vec<u64>,
);

fn write_state(dep: &Deployment<Ping>) -> WriteState {
    let per_component = PROBE_COMPONENTS.map(|c| {
        (
            dep.contract_of(c).unwrap(),
            dep.fault_policy(c).unwrap(),
            supervisor_name(dep, c),
        )
    });
    (per_component.to_vec(), dep.structural_digests())
}

/// Each of the four engine-level writes has one implementation, the
/// journaled operation: its `Deployment` shorthand and a one-op
/// `reconfigure` give the same `Ok` or the same error text, and leave the
/// same contracts, policies, supervisor edges and structural digests, in
/// every mode (ULTRA-MERGE included), on one shard and sharded. A refused
/// write leaves all of these as they were. Under ULTRA-MERGE every
/// structural operation is refused with the digests and the architecture
/// unchanged.
#[test]
fn shorthands_and_one_op_transactions_agree_in_every_mode() {
    let restart = FaultPolicy::Restart {
        max_restarts: 2,
        window: RelativeTime::from_millis(1000),
        backoff: RelativeTime::from_millis(5),
    };
    let writes = [
        (Write::Attach("caller"), Expect::Commits),
        (
            Write::Attach("ghost"),
            Expect::Refused("unknown component 'ghost'"),
        ),
        (
            Write::Policy("svc-a", FaultPolicy::Isolate),
            Expect::Commits,
        ),
        (
            Write::Policy("ghost", FaultPolicy::Isolate),
            Expect::Refused("unknown component 'ghost'"),
        ),
        (Write::Supervise("caller", Some("ticker")), Expect::Commits),
        (Write::Supervise("ticker", Some("svc-a")), Expect::Commits),
        (
            Write::Supervise("ticker", Some("ticker")),
            Expect::Refused("cannot supervise itself"),
        ),
        (
            Write::Supervise("svc-a", Some("caller")),
            Expect::Refused("supervision cycle"),
        ),
        (
            Write::Supervise("ghost", None),
            Expect::Refused("unknown component 'ghost'"),
        ),
        (
            Write::Supervise("caller", Some("other")),
            Expect::RefusedWhenSharded("crosses shards"),
        ),
        (Write::Supervise("caller", None), Expect::Commits),
        (Write::Detach("caller"), Expect::Commits),
        (Write::Detach("caller"), Expect::Commits),
        (
            Write::Detach("ghost"),
            Expect::Refused("unknown component 'ghost'"),
        ),
        (Write::Policy("caller", restart), Expect::Commits),
    ];
    for mode in [Mode::Soleil, Mode::MergeAll, Mode::UltraMerge] {
        for sharded in [false, true] {
            let hooks = Arc::new(Hooks::default());
            let mut shorthand = probe_fixture(mode, sharded, &hooks);
            let mut txn = probe_fixture(mode, sharded, &hooks);
            for (write, expect) in writes {
                let at = format!("{mode} sharded={sharded}: {write:?}");
                let before = write_state(&shorthand);
                let got = write.apply(&mut shorthand, false);
                assert_eq!(got, write.apply(&mut txn, true), "{at}");
                assert_eq!(write_state(&shorthand), write_state(&txn), "{at}");
                let refused_with = match expect {
                    Expect::Refused(words) => Some(words),
                    Expect::RefusedWhenSharded(words) if sharded => Some(words),
                    _ => None,
                };
                match (refused_with, &got) {
                    (None, Ok(_)) => assert!(write.took(&shorthand), "{at}"),
                    (Some(words), Err(e)) => {
                        assert!(e.contains(words), "{at}: {e}");
                        assert_eq!(write_state(&shorthand), before, "{at}");
                    }
                    _ => panic!("{at}: expected {expect:?}, got {got:?}"),
                }
            }
            if mode == Mode::UltraMerge {
                assert_structural_refusals(&mut txn, &format!("sharded={sharded}"));
            }
        }
    }
}

/// Every structural operation of an ULTRA-MERGE deployment is refused,
/// before it changes anything.
fn assert_structural_refusals(dep: &mut Deployment<Ping>, shape: &str) {
    type Op = fn(&mut Reconfiguration<'_, Ping>) -> Result<(), FrameworkError>;
    let ops: [(&str, Op); 5] = [
        ("stop", |t| t.stop("svc-b")),
        ("start", |t| t.start("svc-b")),
        ("rebind", |t| t.rebind("caller", "svc", "svc-b")),
        ("rebind_async", |t| t.rebind_async("caller", "svc", "svc-b")),
        ("reassign_domain", |t| t.reassign_domain("caller", "rt-low")),
    ];
    let before = probe_state(dep);
    for (name, op) in ops {
        let err = dep.reconfigure(op).unwrap_err();
        assert_eq!(
            err.to_string(),
            "unsupported in this mode: ULTRA-MERGE systems are purely static",
            "{shape}: {name}"
        );
        assert_eq!(probe_state(dep), before, "{shape}: {name}");
    }
}
