//! The fresh-deploy oracle: a deployment after any sequence of committed
//! reconfigurations is what a fresh deploy of its committed architecture
//! would be, and a refused transaction changes nothing.
//!
//! Random transactions of `rebind`, `reassign_domain` (with and without
//! re-homing the allocation region), `stop`/`start`, `attach_contract`/
//! `detach_contract`, `set_fault_policy` and `set_supervisor` — some
//! ending in the closure's own error, others refused by the validator, the
//! domain partition, the buffer-placement rule or the supervision tree —
//! run against one architecture with nested scopes, a heap area and
//! domains of several priorities, in every mode, on one shard and sharded.
//! After every commit the deployment is compared with a fresh deploy of
//! `architecture()` that has the same components stopped and the committed
//! contracts, policies and supervisor edges applied through the
//! `Deployment` shorthands: the reified plan (SOLEIL), every component's
//! priority ceiling, contract, fault policy and supervisor, every
//! binding's cross-scope pattern against the validator's rule on the
//! committed architecture, and the outcome of one tick. After every
//! refusal the structural digests, the reified plan, the architecture's
//! JSON form and every component's contract, policy and supervisor are
//! as before. Under ULTRA-MERGE every transaction with a structural
//! operation is refused, and one of valid engine-level operations
//! commits.

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

/// The fault policies a transaction may declare.
const POLICIES: [FaultPolicy; 3] = [
    FaultPolicy::Escalate,
    FaultPolicy::Isolate,
    FaultPolicy::Restart {
        max_restarts: 2,
        window: RelativeTime::from_millis(1000),
        backoff: RelativeTime::from_millis(5),
    },
];

/// The contract a transaction may attach.
fn contract() -> TimingContract {
    TimingContract::new().with_deadline(RelativeTime::from_millis(500))
}

/// One operation of a transaction, by index into the name tables.
#[derive(Debug, Clone, Copy)]
enum Op {
    Rebind {
        caller: usize,
        service: usize,
    },
    Move {
        component: usize,
        domain: usize,
    },
    Stop(usize),
    Start(usize),
    Attach(usize),
    Detach(usize),
    Policy {
        component: usize,
        policy: usize,
    },
    Supervise {
        component: usize,
        supervisor: Option<usize>,
    },
}

impl Op {
    /// Whether the operation changes structure, which ULTRA-MERGE refuses.
    fn structural(self) -> bool {
        matches!(
            self,
            Op::Rebind { .. } | Op::Move { .. } | Op::Stop(_) | Op::Start(_)
        )
    }
}

/// The engine-level state the committed transactions declared: per
/// component, an attached contract, the fault policy and the supervisor.
#[derive(Debug, Clone, Copy, Default)]
struct Declared {
    contract: [bool; COMPONENTS.len()],
    policy: [usize; COMPONENTS.len()],
    supervisor: [Option<usize>; COMPONENTS.len()],
}

impl Declared {
    /// Applies an engine-level operation; structural ones change nothing
    /// here.
    fn apply(&mut self, op: Op) {
        match op {
            Op::Attach(c) => self.contract[c] = true,
            Op::Detach(c) => self.contract[c] = false,
            Op::Policy { component, policy } => self.policy[component] = policy,
            Op::Supervise {
                component,
                supervisor,
            } => self.supervisor[component] = supervisor,
            _ => {}
        }
    }

    /// Whether `component → supervisor` is an edge the engine accepts
    /// now: not onto itself, within one shard, closing no cycle.
    fn accepts(&self, dep: &Deployment<Ping>, component: usize, supervisor: usize) -> bool {
        let mut up = Some(supervisor);
        while let Some(s) = up {
            if s == component {
                return false;
            }
            up = self.supervisor[s];
        }
        same_shard(dep, component, supervisor)
    }

    /// `component`'s declared supervisor, unless `dep`'s partition splits
    /// the edge: a rebind can uncouple two domains, and a fresh deploy
    /// then partitions them apart, while the live partition is static.
    fn supervisor_on(&self, dep: &Deployment<Ping>, component: usize) -> Option<usize> {
        self.supervisor[component].filter(|&s| same_shard(dep, component, s))
    }

    /// Declares this state on `dep` through the `Deployment` shorthands,
    /// in component order: every prefix of an acyclic set of edges is
    /// acyclic, so each edge commits.
    fn declare_on(&self, dep: &mut Deployment<Ping>) {
        for (c, name) in COMPONENTS.iter().enumerate() {
            if self.contract[c] {
                dep.attach_contract(*name, contract()).unwrap();
            }
            dep.set_fault_policy(*name, POLICIES[self.policy[c]])
                .unwrap();
            let supervisor = self.supervisor_on(dep, c).map(|s| COMPONENTS[s]);
            dep.set_supervisor(*name, supervisor).unwrap();
        }
    }

    /// What [`engine_level`] must read on `dep`.
    fn expected_on(&self, dep: &Deployment<Ping>) -> Vec<EngineLevel> {
        (0..COMPONENTS.len())
            .map(|c| {
                (
                    self.contract[c].then(contract),
                    POLICIES[self.policy[c]],
                    self.supervisor_on(dep, c).map(|s| COMPONENTS[s].to_owned()),
                )
            })
            .collect()
    }
}

fn same_shard(dep: &Deployment<Ping>, a: usize, b: usize) -> bool {
    dep.shard_of_component(COMPONENTS[a]) == dep.shard_of_component(COMPONENTS[b])
}

/// A transaction: its operations, and whether its closure then fails.
#[derive(Debug, Clone)]
struct Txn {
    ops: Vec<Op>,
    fails: bool,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    (0u8..9, 0usize..COMPONENTS.len(), 0usize..COMPONENTS.len()).prop_map(|(kind, a, b)| match kind
    {
        0 => Op::Rebind {
            caller: a % CALLERS.len(),
            service: b % SERVICES.len(),
        },
        1 => Op::Move {
            component: a % MOVABLE.len(),
            domain: b % DOMAINS.len(),
        },
        2 => Op::Stop(a),
        3 => Op::Start(a),
        4 => Op::Attach(a),
        5 => Op::Detach(a),
        6 => Op::Policy {
            component: a,
            policy: b % POLICIES.len(),
        },
        7 => Op::Supervise {
            component: a,
            supervisor: Some(b),
        },
        _ => Op::Supervise {
            component: a,
            supervisor: None,
        },
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

/// A component's contract, fault policy and supervisor's name.
type EngineLevel = (Option<TimingContract>, FaultPolicy, Option<String>);

/// Every component's [`EngineLevel`] state.
fn engine_level(dep: &Deployment<Ping>) -> Vec<EngineLevel> {
    COMPONENTS
        .iter()
        .map(|c| {
            let supervisor = dep.supervisor_of(*c).unwrap();
            (
                dep.contract_of(*c).unwrap(),
                dep.fault_policy(*c).unwrap(),
                supervisor.map(|s| dep.name_of(s).unwrap().to_owned()),
            )
        })
        .collect()
}

/// What a refused transaction must leave unchanged.
type Snapshot = (Vec<u64>, Option<SystemSpec>, String, Vec<EngineLevel>);

fn snapshot(dep: &Deployment<Ping>) -> Snapshot {
    (
        dep.structural_digests(),
        dep.reified_spec().cloned(),
        soleil::core::adl::to_json(dep.architecture()),
        engine_level(dep),
    )
}

/// Runs `txns` against one deployment shape, checking the oracle after
/// every transaction.
fn check_against_fresh_deploys(mode: Mode, sharded: bool, txns: &[Txn]) {
    let shape = format!("{mode} sharded={sharded}");
    let mut dep = build(&oracle_arch(), mode, sharded);
    assert_eq!(dep.shard_count(), if sharded { 3 } else { 1 }, "{shape}");
    let mut stopped = [false; COMPONENTS.len()];
    let mut declared = Declared::default();
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
                    Op::Attach(c) => r.attach_contract(COMPONENTS[c], contract())?,
                    Op::Detach(c) => {
                        r.detach_contract(COMPONENTS[c])?;
                    }
                    Op::Policy { component, policy } => {
                        r.set_fault_policy(COMPONENTS[component], POLICIES[policy])?
                    }
                    Op::Supervise {
                        component,
                        supervisor,
                    } => {
                        r.set_supervisor(COMPONENTS[component], supervisor.map(|s| COMPONENTS[s]))?
                    }
                }
            }
            if txn.fails {
                return Err(FrameworkError::Content("the closure refuses".into()));
            }
            Ok(())
        });
        let at = format!("{shape}, transaction {t} {txn:?}");
        if mode == Mode::UltraMerge {
            // The first operation that must fail, if any: a structural
            // one, or a supervisor edge the engine does not accept.
            let mut model = declared;
            let first_refusal = txn.ops.iter().find(|op| {
                let refused = match **op {
                    Op::Supervise {
                        component,
                        supervisor: Some(s),
                    } => !model.accepts(&dep, component, s),
                    op => op.structural(),
                };
                model.apply(**op);
                refused
            });
            match (first_refusal, &result) {
                (Some(op), Err(e)) if op.structural() => assert_eq!(
                    e.to_string(),
                    "unsupported in this mode: ULTRA-MERGE systems are purely static",
                    "{at}"
                ),
                (Some(_), Err(_)) => {}
                (None, _) => assert_eq!(result.is_ok(), !txn.fails, "{at}: {result:?}"),
                (Some(op), Ok(())) => panic!("{at}: committed, but {op:?} must refuse"),
            }
        }
        if let Err(e) = result {
            assert!(snapshot(&dep) == before, "{at}: refused ({e}) but changed");
            continue;
        }
        for &op in &txn.ops {
            match op {
                Op::Stop(c) => stopped[c] = true,
                Op::Start(c) => stopped[c] = false,
                op => declared.apply(op),
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
        declared.declare_on(&mut fresh);
        assert!(
            dep.reified_spec() == fresh.reified_spec(),
            "{at}: the plan drifted from a fresh deploy's"
        );
        assert_eq!(
            engine_level(&dep),
            declared.expected_on(&dep),
            "{at}: committed contracts, policies and supervisors"
        );
        assert_eq!(
            engine_level(&fresh),
            declared.expected_on(&fresh),
            "{at}: the fresh deploy's contracts, policies and supervisors"
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
            (Mode::UltraMerge, false),
            (Mode::Soleil, true),
            (Mode::MergeAll, true),
            (Mode::UltraMerge, true),
        ] {
            check_against_fresh_deploys(mode, sharded, &txns);
        }
    }
}
