//! The dynamic-adaptation capability matrix (§4.2 / §4.3) through the
//! typed deployment API: what each generation mode allows at runtime, and
//! the transactional guarantees of `Deployment::reconfigure` — commit-time
//! RTSJ re-validation, all-or-nothing application, rollback on error.
//!
//! | capability | SOLEIL | MERGE-ALL | ULTRA-MERGE |
//! |---|---|---|---|
//! | membrane introspection | yes | no | no |
//! | reconfigure (stop/start/rebind/domain) | yes | yes | no |
//! | reified deployment spec | yes | no | no |

use soleil::generator::{deploy, deploy_parallel};
use soleil::prelude::*;
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
    assert!(dep.system().reified_spec().is_some());

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
    assert!(dep.system().reified_spec().is_none());

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
            format!("{:?}", dep.system().reified_spec()),
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

    let a = Arc::new(AtomicU32::new(0));
    let mut registry: ContentRegistry<Ping> = ContentRegistry::new();
    registry.register("Caller", || Box::new(Caller));
    let ac = a.clone();
    registry.register("A", move || Box::new(Counter(ac.clone())));

    let mut dep = deploy(&arch, Mode::MergeAll, &registry).unwrap();
    let caller = dep.resolve("caller").unwrap();
    let arch_before = format!(
        "{:?}",
        dep.architecture()
            .parents_of(dep.architecture().id_of("caller").unwrap())
    );

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
    assert!(matches!(err, FrameworkError::Content(_)), "got {err}");
    let arch_now = dep.architecture();
    let caller_id = arch_now.id_of("caller").unwrap();
    assert_eq!(format!("{:?}", arch_now.parents_of(caller_id)), arch_before);
    let (area_id, _) = arch_now.memory_area_of(caller_id).unwrap();
    assert_eq!(arch_now.component(area_id).unwrap().name, "imm");
    dep.run_transaction(caller).unwrap();
    assert_eq!(a.load(Ordering::Relaxed), 1);

    // rt-heap lives inside the heap area: committing the same move
    // re-homes caller's allocation region along with the domain edge.
    dep.reconfigure(|txn| txn.reassign_domain(caller, "rt-heap"))
        .unwrap();
    let arch_now = dep.architecture();
    let (domain_id, _) = arch_now.thread_domain_of(caller_id).unwrap();
    assert_eq!(arch_now.component(domain_id).unwrap().name, "rt-heap");
    let (area_id, _) = arch_now.memory_area_of(caller_id).unwrap();
    assert_eq!(arch_now.component(area_id).unwrap().name, "heap");

    // The engine still dispatches through the recompiled plans.
    dep.run_transaction(caller).unwrap();
    assert_eq!(a.load(Ordering::Relaxed), 2);
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

#[test]
fn rebind_recomputes_cross_scope_pattern() {
    // caller in immortal; svc-a in immortal; svc-b in a scoped area.
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

    // ULTRA-MERGE refuses reconfiguration, but deploy-time attachment is
    // engine-level observability and still works.
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

/// Supervisor edges are journaled reconfiguration ops: a committed
/// transaction installs the declared tree, an edge that would close a
/// cycle is refused eagerly, and a failing transaction rolls the
/// pre-transaction edges back exactly. ULTRA-MERGE refuses `reconfigure`
/// wholesale (purely static), but the *direct* `set_supervisor` still
/// works there — supervision is engine-level recovery machinery, not
/// structural reconfiguration.
#[test]
fn supervisor_edges_reconfigure_transactionally() {
    // ULTRA-MERGE: no transactions, but the direct edge API is open.
    {
        let Fixture { mut dep, .. } = fixture(Mode::UltraMerge);
        let caller = dep.resolve("caller").unwrap();
        let svc_a = dep.resolve("svc-a").unwrap();
        let err = dep
            .reconfigure(|txn| txn.set_supervisor(caller, Some(svc_a)))
            .unwrap_err();
        assert!(matches!(err, FrameworkError::Unsupported(_)), "got {err}");
        dep.set_supervisor(caller, Some(svc_a)).unwrap();
        assert_eq!(dep.supervisor_of(caller).unwrap(), Some(svc_a));
    }
    for mode in [Mode::Soleil, Mode::MergeAll] {
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
    sharded.run_ticks(1).unwrap();
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
