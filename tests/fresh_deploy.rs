//! The fresh-deploy oracle: a deployment after any sequence of committed
//! reconfigurations is what a fresh deploy of its committed architecture
//! would be, and a refused transaction changes nothing.
//!
//! Random transactions of `rebind`, `reassign_domain` (with and without
//! re-homing the allocation region) and `stop`/`start` — some ending in
//! the closure's own error, others refused by the validator, the domain
//! partition or the buffer-placement rule — run against one architecture
//! with nested scopes, a heap area and domains of several priorities, in
//! SOLEIL and MERGE-ALL, on one shard and sharded. After every commit the
//! deployment is compared with a fresh deploy of `architecture()` that
//! has the same components stopped: the reified plan (SOLEIL), every
//! component's priority ceiling, every binding's cross-scope pattern
//! against the validator's rule on the committed architecture, and the
//! outcome of one tick. After every refusal the structural digests, the
//! reified plan and the architecture's JSON form are byte-identical to
//! before.

use proptest::prelude::*;
use soleil::core::validate::cross_scope_pattern;
use soleil::generator::{deploy, deploy_parallel};
use soleil::prelude::*;

#[derive(Debug, Clone, Copy, Default)]
struct Ping;

/// Calls each of its client ports synchronously, in order.
#[derive(Debug)]
struct Calls(&'static [&'static str]);
impl Content<Ping> for Calls {
    fn on_invoke(&mut self, _p: &str, msg: &mut Ping, out: &mut dyn Ports<Ping>) -> InvokeResult {
        for port in self.0 {
            out.call(port, msg)?;
        }
        Ok(())
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

#[derive(Debug)]
struct Sink;
impl Content<Ping> for Sink {
    fn on_invoke(&mut self, _p: &str, _m: &mut Ping, _o: &mut dyn Ports<Ping>) -> InvokeResult {
        Ok(())
    }
}

/// The callers whose `svc` port a transaction may rebind.
const CALLERS: [&str; 3] = ["c1", "c2", "c3"];
/// The passive services, each providing `svc`.
const SERVICES: [&str; 5] = ["svc-imm", "svc-s1", "svc-q", "svc-s2", "svc-heap"];
/// The components a transaction may move.
const MOVABLE: [&str; 6] = ["c1", "c2", "c3", "p", "q", "other"];
/// The domains a transaction may move a component into.
const DOMAINS: [&str; 5] = ["hi", "lo", "lo-s1", "reg", "solo"];
/// Every functional component.
const COMPONENTS: [&str; 11] = [
    "c1", "c2", "c3", "p", "q", "other", "svc-imm", "svc-s1", "svc-q", "svc-s2", "svc-heap",
];

/// The oracle's architecture. Areas: `imm` (immortal) holds the scope
/// `P`, which holds `S1` and `Q`, and `Q` holds `S2`; `heap` is a heap
/// area. Domains: `hi` (NHRT, 30) with `c1`, `lo` (20) with `c2` and
/// `solo` (22) with `other` sit in `imm`, `lo-s1` (20) with `c3` in `S1`,
/// and the regular `reg` (5), where `p` feeds `q` through a heap buffer,
/// in `heap`. `c1` calls `svc-imm` and `svc-s1`, `c2` calls `svc-q`, `c3`
/// calls `svc-s1`, and `svc-s2` calls `svc-q` outward. Sharded, the
/// partition has three shards: `reg`, `solo`, and the rest.
fn oracle_arch() -> ValidatedArchitecture {
    let mut bv = BusinessView::new("fresh-deploy-oracle");
    for c in ["c1", "c2", "c3", "p", "other"] {
        bv.active_periodic(c, "5ms").unwrap();
    }
    bv.active_sporadic("q").unwrap();
    for s in SERVICES {
        bv.passive(s).unwrap();
        bv.provide(s, "svc", "ISvc").unwrap();
        bv.content(s, if s == "svc-s2" { "Relay" } else { "Sink" })
            .unwrap();
    }
    for (c, class) in [
        ("c1", "C1"),
        ("c2", "Caller"),
        ("c3", "Caller"),
        ("p", "Sender"),
        ("q", "Sink"),
        ("other", "Sink"),
    ] {
        bv.content(c, class).unwrap();
    }
    for (client, port, server) in [
        ("c1", "svc", "svc-imm"),
        ("c1", "aux", "svc-s1"),
        ("c2", "svc", "svc-q"),
        ("c3", "svc", "svc-s1"),
        ("svc-s2", "up", "svc-q"),
    ] {
        bv.require(client, port, "ISvc").unwrap();
        bv.bind_sync(client, port, server, "svc").unwrap();
    }
    bv.require("p", "out", "IOut").unwrap();
    bv.provide("q", "in", "IOut").unwrap();
    bv.bind_async("p", "out", "q", "in", 4).unwrap();
    let mut flow = DesignFlow::new(bv);
    for (domain, kind, priority, members) in [
        ("hi", ThreadKind::NoHeapRealtime, 30, &["c1"][..]),
        ("lo", ThreadKind::Realtime, 20, &["c2"]),
        ("lo-s1", ThreadKind::Realtime, 20, &["c3"]),
        ("reg", ThreadKind::Regular, 5, &["p", "q"]),
        ("solo", ThreadKind::Realtime, 22, &["other"]),
    ] {
        flow.thread_domain(domain, kind, priority, members).unwrap();
    }
    for (area, kind, size, members) in [
        ("S2", MemoryKind::Scoped, Some(16 << 10), &["svc-s2"][..]),
        ("Q", MemoryKind::Scoped, Some(16 << 10), &["S2", "svc-q"]),
        (
            "S1",
            MemoryKind::Scoped,
            Some(16 << 10),
            &["lo-s1", "svc-s1"],
        ),
        ("P", MemoryKind::Scoped, Some(32 << 10), &["S1", "Q"]),
        (
            "imm",
            MemoryKind::Immortal,
            Some(4 << 20),
            &["P", "hi", "lo", "solo", "svc-imm"],
        ),
        ("heap", MemoryKind::Heap, None, &["reg", "svc-heap"]),
    ] {
        flow.memory_area(area, kind, size, members).unwrap();
    }
    flow.merge().unwrap().into_validated().unwrap()
}

fn registry() -> ContentRegistry<Ping> {
    let mut r: ContentRegistry<Ping> = ContentRegistry::new();
    r.register("C1", || Box::new(Calls(&["svc", "aux"])));
    r.register("Caller", || Box::new(Calls(&["svc"])));
    r.register("Relay", || Box::new(Calls(&["up"])));
    r.register("Sender", || Box::new(Sender));
    r.register("Sink", || Box::new(Sink));
    r
}

/// One operation of a transaction, by index into the name tables.
#[derive(Debug, Clone, Copy)]
enum Op {
    Rebind { caller: usize, service: usize },
    Move { component: usize, domain: usize },
    Stop(usize),
    Start(usize),
}

/// A transaction: its operations, and whether its closure then fails.
#[derive(Debug, Clone)]
struct Txn {
    ops: Vec<Op>,
    fails: bool,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    (0u8..4, 0usize..COMPONENTS.len(), 0usize..SERVICES.len()).prop_map(|(kind, a, b)| match kind {
        0 => Op::Rebind {
            caller: a % CALLERS.len(),
            service: b,
        },
        1 => Op::Move {
            component: a % MOVABLE.len(),
            domain: b % DOMAINS.len(),
        },
        2 => Op::Stop(a),
        _ => Op::Start(a),
    })
}

fn txn_strategy() -> impl Strategy<Value = Txn> {
    (proptest::collection::vec(op_strategy(), 1..4), 0u8..4).prop_map(|(ops, fail)| Txn {
        ops,
        fails: fail == 0,
    })
}

fn build(arch: &ValidatedArchitecture, mode: Mode, sharded: bool) -> Deployment<Ping> {
    if sharded {
        deploy_parallel(arch, mode, &registry())
    } else {
        deploy(arch, mode, &registry())
    }
    .unwrap()
}

/// What a refused transaction must leave byte-identical.
fn snapshot(dep: &Deployment<Ping>) -> (Vec<u64>, Option<SystemSpec>, String) {
    (
        dep.structural_digests(),
        dep.reified_spec().cloned(),
        soleil::core::adl::to_json(dep.architecture()),
    )
}

/// Runs `txns` against one deployment shape, checking the oracle after
/// every transaction.
fn check_against_fresh_deploys(mode: Mode, sharded: bool, txns: &[Txn]) {
    let shape = format!("{mode} sharded={sharded}");
    let mut dep = build(&oracle_arch(), mode, sharded);
    assert_eq!(dep.shard_count(), if sharded { 3 } else { 1 }, "{shape}");
    let mut stopped = [false; COMPONENTS.len()];
    for (t, txn) in txns.iter().enumerate() {
        let before = snapshot(&dep);
        let result = dep.reconfigure(|r| {
            for &op in &txn.ops {
                match op {
                    Op::Rebind { caller, service } => {
                        r.rebind(CALLERS[caller], "svc", SERVICES[service])?
                    }
                    Op::Move { component, domain } => {
                        r.reassign_domain(MOVABLE[component], DOMAINS[domain])?
                    }
                    Op::Stop(c) => r.stop(COMPONENTS[c])?,
                    Op::Start(c) => r.start(COMPONENTS[c])?,
                }
            }
            if txn.fails {
                return Err(FrameworkError::Content("the closure refuses".into()));
            }
            Ok(())
        });
        let at = format!("{shape}, transaction {t} {txn:?}");
        if let Err(e) = result {
            assert!(snapshot(&dep) == before, "{at}: refused ({e}) but changed");
            continue;
        }
        for &op in &txn.ops {
            match op {
                Op::Stop(c) => stopped[c] = true,
                Op::Start(c) => stopped[c] = false,
                _ => {}
            }
        }

        let arch = dep.architecture().clone().into_validated().unwrap();
        let mut fresh = build(&arch, mode, sharded);
        fresh
            .reconfigure(|r| {
                let mut names = COMPONENTS.iter().zip(stopped).filter(|(_, s)| *s);
                names.try_for_each(|(c, _)| r.stop(*c))
            })
            .unwrap();
        assert!(
            dep.reified_spec() == fresh.reified_spec(),
            "{at}: the plan drifted from a fresh deploy's"
        );
        for c in COMPONENTS {
            assert_eq!(
                dep.ceiling_of(c).unwrap(),
                fresh.ceiling_of(c).unwrap(),
                "{at}: ceiling of {c}"
            );
        }
        if let Some(plan) = dep.reified_spec() {
            for (bix, b) in arch.architecture().bindings().iter().enumerate() {
                assert_eq!(
                    Some(plan.crossing(bix).0),
                    cross_scope_pattern(arch.architecture(), b),
                    "{at}: pattern of binding {bix}"
                );
            }
        }
        assert_eq!(
            dep.run_tick().is_ok(),
            fresh.run_tick().is_ok(),
            "{at}: one tick"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn every_commit_matches_a_fresh_deploy(txns in proptest::collection::vec(txn_strategy(), 1..6)) {
        for (mode, sharded) in [
            (Mode::Soleil, false),
            (Mode::MergeAll, false),
            (Mode::Soleil, true),
            (Mode::MergeAll, true),
        ] {
            check_against_fresh_deploys(mode, sharded, &txns);
        }
    }
}
