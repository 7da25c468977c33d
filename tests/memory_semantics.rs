//! Framework-level RTSJ memory semantics: the generated infrastructure
//! must inherit every substrate guarantee — no layer may launder an
//! illegal memory operation.

use soleil::core::validate::cross_scope_pattern;
use soleil::generator::deploy;
use soleil::patterns::PatternKind;
use soleil::prelude::*;
use soleil::rtsj::RtsjError;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

#[derive(Debug, Clone, Copy, Default)]
struct Msg {
    hops: u32,
}

#[derive(Debug, Default)]
struct Head;
impl Content<Msg> for Head {
    fn on_invoke(&mut self, _p: &str, msg: &mut Msg, out: &mut dyn Ports<Msg>) -> InvokeResult {
        msg.hops += 1;
        out.send("out", *msg)
    }
}

#[derive(Debug)]
struct Tail {
    seen: Arc<AtomicU32>,
}
impl Content<Msg> for Tail {
    fn on_invoke(&mut self, _p: &str, msg: &mut Msg, _out: &mut dyn Ports<Msg>) -> InvokeResult {
        msg.hops += 1;
        self.seen.fetch_add(msg.hops, Ordering::Relaxed);
        Ok(())
    }
}

#[derive(Debug, Default)]
struct SyncCaller;
impl Content<Msg> for SyncCaller {
    fn on_invoke(&mut self, _p: &str, msg: &mut Msg, out: &mut dyn Ports<Msg>) -> InvokeResult {
        msg.hops += 1;
        out.call("svc", msg)
    }
}

#[derive(Debug, Default)]
struct Svc;
impl Content<Msg> for Svc {
    fn on_invoke(&mut self, _p: &str, msg: &mut Msg, _out: &mut dyn Ports<Msg>) -> InvokeResult {
        msg.hops += 1;
        Ok(())
    }
}

fn registry(seen: &Arc<AtomicU32>) -> ContentRegistry<Msg> {
    let mut r = ContentRegistry::new();
    r.register("Head", || Box::new(Head));
    let s = seen.clone();
    r.register("Tail", move || Box::new(Tail { seen: s.clone() }));
    r.register("SyncCaller", || Box::new(SyncCaller));
    r.register("Svc", || Box::new(Svc));
    r
}

/// Sibling scoped areas with a synchronous binding: the generated memory
/// interceptor must use the handoff (deep copy) pattern — and the copy must
/// actually isolate the two scopes.
#[test]
fn sibling_scopes_use_handoff() {
    let mut b = BusinessView::new("siblings");
    b.active_sporadic("caller").unwrap();
    b.passive("svc").unwrap();
    b.content("caller", "SyncCaller").unwrap();
    b.content("svc", "Svc").unwrap();
    b.provide("caller", "trigger", "ITrigger").unwrap();
    b.require("caller", "svc", "ISvc").unwrap();
    b.provide("svc", "svc", "ISvc").unwrap();
    b.bind_sync("caller", "svc", "svc", "svc").unwrap();
    let mut flow = DesignFlow::new(b);
    flow.thread_domain("rt", ThreadKind::Realtime, 25, &["caller"])
        .unwrap();
    flow.memory_area("s1", MemoryKind::Scoped, Some(16 * 1024), &["caller", "rt"])
        .unwrap();
    flow.memory_area("s2", MemoryKind::Scoped, Some(16 * 1024), &["svc"])
        .unwrap();
    let arch = flow.merge().unwrap().into_validated().expect("compliant");
    assert!(
        arch.report()
            .by_code("SOL-007")
            .any(|d| d.message.contains("handoff-through-parent")),
        "{}",
        arch.report()
    );

    let seen = Arc::new(AtomicU32::new(0));
    let mut sys = deploy(&arch, Mode::MergeAll, &registry(&seen)).expect("deploys");
    // Inject a message at the caller: hops = 1 (caller) + 1 (svc, on the
    // copy) and the copy is written back.
    let caller = sys.resolve("caller").expect("caller");
    let trigger = sys.port(caller, "trigger").expect("port");
    sys.inject(trigger, Msg::default()).expect("runs");
    assert_eq!(sys.stats().transactions, 1);
}

/// An async binding whose producer is NHRT must get its buffer placed in
/// immortal memory automatically — and the pipeline must run.
#[test]
fn nhrt_async_buffers_are_placed_in_immortal() {
    let mut b = BusinessView::new("nhrt-to-heap");
    b.active_periodic("head", "10ms").unwrap();
    b.active_sporadic("tail").unwrap();
    b.content("head", "Head").unwrap();
    b.content("tail", "Tail").unwrap();
    b.require("head", "out", "I").unwrap();
    b.provide("tail", "in", "I").unwrap();
    b.bind_async("head", "out", "tail", "in", 4).unwrap();
    let mut flow = DesignFlow::new(b);
    flow.thread_domain("nhrt", ThreadKind::NoHeapRealtime, 30, &["head"])
        .unwrap();
    flow.thread_domain("reg", ThreadKind::Regular, 5, &["tail"])
        .unwrap();
    flow.memory_area("imm", MemoryKind::Immortal, Some(64 * 1024), &["nhrt"])
        .unwrap();
    flow.memory_area("h", MemoryKind::Heap, None, &["reg"])
        .unwrap();
    let arch = flow.merge().unwrap().into_validated().expect("compliant");

    let spec = soleil::generator::compile(&arch).expect("compiles");
    use soleil::runtime::spec::{BufferPlacement, ProtocolSpec};
    let ProtocolSpec::Async { placement, .. } = spec.bindings[0].protocol else {
        panic!("async binding expected");
    };
    assert_eq!(placement, BufferPlacement::Immortal);

    let seen = Arc::new(AtomicU32::new(0));
    let mut sys = deploy(&arch, Mode::MergeAll, &registry(&seen)).expect("deploys");
    let head = sys.resolve("head").expect("head");
    for _ in 0..10 {
        sys.run_transaction(head).expect("txn");
    }
    assert_eq!(
        seen.load(Ordering::Relaxed),
        20,
        "hops: head(1) + tail(2) summed per txn"
    );
}

/// Heap-to-heap regular pipelines keep their buffer on the heap, and heap
/// consumption reflects the buffer.
#[test]
fn heap_buffers_counted_in_heap_area() {
    let mut b = BusinessView::new("heapish");
    b.active_periodic("head", "10ms").unwrap();
    b.active_sporadic("tail").unwrap();
    b.content("head", "Head").unwrap();
    b.content("tail", "Tail").unwrap();
    b.require("head", "out", "I").unwrap();
    b.provide("tail", "in", "I").unwrap();
    b.bind_async("head", "out", "tail", "in", 16).unwrap();
    let mut flow = DesignFlow::new(b);
    flow.thread_domain("reg", ThreadKind::Regular, 5, &["head", "tail"])
        .unwrap();
    flow.memory_area("h", MemoryKind::Heap, None, &["reg"])
        .unwrap();
    let arch = flow.merge().unwrap().into_validated().expect("compliant");

    let seen = Arc::new(AtomicU32::new(0));
    let sys = deploy(&arch, Mode::MergeAll, &registry(&seen)).expect("deploys");
    let heap_stats = sys
        .memory()
        .stats(rtsj::memory::AreaId::HEAP)
        .expect("heap stats");
    assert!(
        heap_stats.consumed > 16 * std::mem::size_of::<Msg>(),
        "buffer backing store charged to the heap: {} B",
        heap_stats.consumed
    );
}

/// The substrate's single-parent rule survives the framework: two scoped
/// areas nested in the architecture produce a scope tree whose parent
/// chain matches, and shutdown unwinds it cleanly.
#[test]
fn nested_scopes_bootstrap_and_teardown() {
    let mut b = BusinessView::new("nested");
    b.active_sporadic("worker").unwrap();
    b.passive("inner-svc").unwrap();
    b.content("worker", "SyncCaller").unwrap();
    b.content("inner-svc", "Svc").unwrap();
    b.provide("worker", "trigger", "ITrigger").unwrap();
    b.require("worker", "svc", "I").unwrap();
    b.provide("inner-svc", "svc", "I").unwrap();
    b.bind_sync("worker", "svc", "inner-svc", "svc").unwrap();
    let mut flow = DesignFlow::new(b);
    flow.thread_domain("rt", ThreadKind::Realtime, 25, &["worker"])
        .unwrap();
    flow.memory_area(
        "outer",
        MemoryKind::Scoped,
        Some(32 * 1024),
        &["worker", "rt"],
    )
    .unwrap();
    flow.memory_area("inner", MemoryKind::Scoped, Some(8 * 1024), &["inner-svc"])
        .unwrap();
    let mut arch = flow.merge().unwrap();
    let outer = arch.id_of("outer").unwrap();
    let inner = arch.id_of("inner").unwrap();
    arch.add_child(outer, inner).unwrap();
    let arch = arch.into_validated().expect("compliant");

    let seen = Arc::new(AtomicU32::new(0));
    let mut sys = deploy(&arch, Mode::MergeAll, &registry(&seen)).expect("deploys");
    let mm = sys.memory();
    let outer_id = mm.area_by_name("outer").expect("outer exists");
    let inner_id = mm.area_by_name("inner").expect("inner exists");
    assert_eq!(
        mm.parent_of(inner_id).expect("query"),
        Some(outer_id),
        "architecture nesting became substrate nesting"
    );
    let worker = sys.resolve("worker").expect("worker");
    let trigger = sys.port(worker, "trigger").expect("port");
    sys.inject(trigger, Msg::default()).expect("runs");
    sys.shutdown().expect("teardown");
    assert_eq!(sys.memory().stats(inner_id).expect("stats").consumed, 0);
    assert_eq!(sys.memory().stats(outer_id).expect("stats").consumed, 0);
}

/// A server reached through `HandoffThroughParent` runs on its caller's
/// scope stack. Here `head` (immortal) enters `a`'s chain `P`, `S1`;
/// `a` hands off to `b` in `S2` under `Q` under `P`; and `b`'s call into
/// `q` in `Q` is an `ExecuteInOuter` whose scope is not on that stack. The
/// substrate refuses it before `q` runs, and the transaction ends in that
/// refusal, in every mode, in debug and release builds alike.
#[test]
fn execute_in_outer_behind_a_handoff_is_refused() {
    let mut b = BusinessView::new("handoff-then-outer");
    b.active_periodic("head", "10ms").unwrap();
    for c in ["a", "b", "q"] {
        b.passive(c).unwrap();
        b.provide(c, "in", "ISvc").unwrap();
    }
    for c in ["head", "a", "b"] {
        b.content(c, "SyncCaller").unwrap();
        b.require(c, "svc", "ISvc").unwrap();
    }
    b.content("q", "Svc").unwrap();
    for (client, server) in [("head", "a"), ("a", "b"), ("b", "q")] {
        b.bind_sync(client, "svc", server, "in").unwrap();
    }
    let mut flow = DesignFlow::new(b);
    flow.thread_domain("rt", ThreadKind::Realtime, 25, &["head"])
        .unwrap();
    for (area, members) in [
        ("S2", &["b"][..]),
        ("Q", &["S2", "q"]),
        ("S1", &["a"]),
        ("P", &["S1", "Q"]),
    ] {
        flow.memory_area(area, MemoryKind::Scoped, Some(16 * 1024), members)
            .unwrap();
    }
    flow.memory_area("imm", MemoryKind::Immortal, Some(64 * 1024), &["rt", "P"])
        .unwrap();
    let arch = flow.merge().unwrap().into_validated().expect("compliant");
    let patterns: Vec<_> = arch
        .architecture()
        .bindings()
        .iter()
        .map(|b| cross_scope_pattern(arch.architecture(), b))
        .collect();
    assert_eq!(
        patterns,
        [
            Some(PatternKind::EnterInner),
            Some(PatternKind::HandoffThroughParent),
            Some(PatternKind::ExecuteInOuter),
        ]
    );

    let seen = Arc::new(AtomicU32::new(0));
    for mode in [Mode::Soleil, Mode::MergeAll, Mode::UltraMerge] {
        let mut dep = deploy(&arch, mode, &registry(&seen)).expect("deploys");
        let head = dep.resolve("head").expect("head");
        let err = dep.run_transaction(head).unwrap_err();
        assert!(
            matches!(
                err,
                FrameworkError::Rtsj(RtsjError::InaccessibleArea { .. })
            ),
            "{mode}: {err}"
        );
    }
}
