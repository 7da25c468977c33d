//! Property-based checks for live reconfiguration of parallel deployments.
//!
//! Two properties, the parallel analogues of the serial transaction
//! guarantees:
//!
//! * **Equivalence** — a live partition taken through a random sequence of
//!   committed reconfiguration transactions (cross-ring rebinds, domain
//!   re-assignments, policy swaps), each interleaved with traffic, routes
//!   subsequent traffic exactly like a fresh deployment of the *final*
//!   topology, torn down and rebuilt from scratch: same per-consumer
//!   delivery counts, same conservation, same policies.
//! * **Atomicity** — a transaction carrying a random batch of operations
//!   that ends in an error leaves every shard engine byte-identical to its
//!   pre-transaction state (witnessed by the structural digests) and the
//!   traffic flowing exactly as before.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use proptest::prelude::*;
use rtsj::memory::MemoryKind;
use rtsj::thread::ThreadKind;
use rtsj::time::RelativeTime;
use soleil_membrane::content::{Content, ContentRegistry, InvokeResult, Ports};
use soleil_patterns::PatternKind;
use soleil_runtime::spec::{
    Activation, AreaSpec, BindingSpec, BufferPlacement, ComponentSpec, DomainSpec, ProtocolSpec,
    SystemSpec,
};
use soleil_runtime::{Deployment, FaultPolicy, Mode};

type Counts = Arc<Mutex<HashMap<String, u64>>>;

/// Fans every message out on both client ports.
#[derive(Debug)]
struct Fan;
impl Content<u64> for Fan {
    fn on_invoke(&mut self, _p: &str, msg: &mut u64, out: &mut dyn Ports<u64>) -> InvokeResult {
        *msg += 1;
        out.send("out1", *msg)?;
        out.send("out2", *msg)
    }
}

/// Counts deliveries under its own name.
#[derive(Debug)]
struct Recorder {
    name: &'static str,
    counts: Counts,
}
impl Content<u64> for Recorder {
    fn on_invoke(&mut self, _p: &str, _msg: &mut u64, _out: &mut dyn Ports<u64>) -> InvokeResult {
        *self
            .counts
            .lock()
            .unwrap()
            .entry(self.name.into())
            .or_insert(0) += 1;
        Ok(())
    }
}

fn registry(counts: &Counts) -> ContentRegistry<u64> {
    let mut r = ContentRegistry::new();
    r.register("Fan", || Box::new(Fan));
    for name in ["consumerB", "consumerC"] {
        let c = counts.clone();
        r.register(name, move || {
            Box::new(Recorder {
                name,
                counts: c.clone(),
            })
        });
    }
    r
}

/// Producer in its own domain; two consumers whose domains are coupled
/// into one shard by a (never exercised) synchronous peer binding, so
/// same-shard domain re-assignment is legal. All areas immortal — they
/// replicate on every shard.
fn base_spec() -> SystemSpec {
    let area = |name: &str| AreaSpec {
        name: name.into(),
        kind: MemoryKind::Immortal,
        size: Some(256 * 1024),
        parent: None,
    };
    let consumer = |name: &str, class: &str, domain: usize, area: usize| ComponentSpec {
        name: name.into(),
        content_class: class.into(),
        activation: Activation::Sporadic,
        domain: Some(domain),
        area,
        server_ports: vec!["in".into()],
        ceiling: None,
    };
    let ring = |port: &str, server: usize| BindingSpec {
        client: 0,
        client_port: port.into(),
        server,
        server_port: "in".into(),
        protocol: ProtocolSpec::Async {
            capacity: 64,
            placement: BufferPlacement::Immortal,
        },
        pattern: PatternKind::ImmortalExchange,
        enter_path: vec![],
    };
    SystemSpec {
        name: "fan".into(),
        areas: vec![area("Imm1"), area("ImmB"), area("ImmC")],
        domains: vec![
            DomainSpec {
                name: "A".into(),
                kind: ThreadKind::NoHeapRealtime,
                priority: 30,
            },
            DomainSpec {
                name: "B".into(),
                kind: ThreadKind::NoHeapRealtime,
                priority: 25,
            },
            DomainSpec {
                name: "C".into(),
                kind: ThreadKind::Realtime,
                priority: 20,
            },
        ],
        components: vec![
            ComponentSpec {
                name: "producer".into(),
                content_class: "Fan".into(),
                activation: Activation::Periodic {
                    period: RelativeTime::from_millis(10),
                },
                domain: Some(0),
                area: 0,
                server_ports: vec![],
                ceiling: None,
            },
            consumer("consumerB", "consumerB", 1, 1),
            consumer("consumerC", "consumerC", 2, 2),
        ],
        bindings: vec![
            ring("out1", 1),
            ring("out2", 2),
            BindingSpec {
                client: 1,
                client_port: "peer".into(),
                server: 2,
                server_port: "in".into(),
                protocol: ProtocolSpec::Sync,
                pattern: PatternKind::Direct,
                enter_path: vec![],
            },
        ],
    }
}

/// One live reconfiguration operation, applied both to the running
/// partition and to the external model of the final topology.
#[derive(Debug, Clone, Copy)]
enum ReOp {
    /// Retarget `producer.out1` / `producer.out2` (ring rewiring).
    Rebind { port_ix: usize, server: usize },
    /// Re-seat consumerB onto domain "B" or "C" (same shard).
    MoveB { to_c: bool },
    /// Swap consumerC's supervision policy.
    Policy { isolate: bool },
}

fn op_strategy() -> impl Strategy<Value = ReOp> {
    prop_oneof![
        (0..2usize, 1..3usize).prop_map(|(port_ix, server)| ReOp::Rebind { port_ix, server }),
        (0..2usize).prop_map(|b| ReOp::MoveB { to_c: b == 1 }),
        (0..2usize).prop_map(|b| ReOp::Policy { isolate: b == 1 }),
    ]
}

const CONSUMERS: [&str; 2] = ["consumerB", "consumerC"];

/// Applies `op` to the external spec/policy model — the bookkeeping a
/// teardown-redeploy of the final topology is built from.
fn apply_to_model(op: ReOp, spec: &mut SystemSpec, policy_c: &mut FaultPolicy) {
    match op {
        ReOp::Rebind { port_ix, server } => spec.bindings[port_ix].server = server,
        ReOp::MoveB { to_c } => spec.components[1].domain = Some(if to_c { 2 } else { 1 }),
        ReOp::Policy { isolate } => {
            *policy_c = if isolate {
                FaultPolicy::Isolate
            } else {
                FaultPolicy::Escalate
            }
        }
    }
}

/// Applies `op` to the live partition through one reconfiguration
/// transaction.
fn apply_live(sys: &mut Deployment<u64>, op: ReOp) {
    sys.reconfigure(|txn| match op {
        ReOp::Rebind { port_ix, server } => txn.rebind_async(
            "producer",
            if port_ix == 0 { "out1" } else { "out2" },
            CONSUMERS[server - 1],
        ),
        ReOp::MoveB { to_c } => txn.reassign_domain("consumerB", if to_c { "C" } else { "B" }),
        ReOp::Policy { isolate } => txn.set_fault_policy(
            "consumerC",
            if isolate {
                FaultPolicy::Isolate
            } else {
                FaultPolicy::Escalate
            },
        ),
    })
    .expect("every generated operation commits");
}

/// Runs `ticks` and returns the per-consumer delivery deltas.
fn measure(sys: &mut Deployment<u64>, counts: &Counts, ticks: u64) -> HashMap<String, u64> {
    let before: HashMap<String, u64> = counts.lock().unwrap().clone();
    sys.run_ticks(ticks).unwrap();
    let after = counts.lock().unwrap().clone();
    CONSUMERS
        .iter()
        .map(|&name| {
            let b = before.get(name).copied().unwrap_or(0);
            (name.to_string(), after.get(name).copied().unwrap_or(0) - b)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// A random sequence of committed live transactions, each under
    /// traffic, is observationally equivalent to tearing the system down
    /// and redeploying the final topology.
    #[test]
    fn live_reconfiguration_equals_teardown_redeploy(
        ops in proptest::collection::vec(op_strategy(), 0..6),
        mode_merge in 0..2usize,
    ) {
        let mode = if mode_merge == 1 { Mode::MergeAll } else { Mode::Soleil };

        // Live path: traffic between every transaction.
        let live_counts: Counts = Counts::default();
        let mut live =
            Deployment::build_parallel(&base_spec(), mode, &registry(&live_counts), None).unwrap();
        let mut final_spec = base_spec();
        let mut final_policy_c = FaultPolicy::Escalate;
        live.run_ticks(2).unwrap();
        for &op in &ops {
            apply_live(&mut live, op);
            apply_to_model(op, &mut final_spec, &mut final_policy_c);
            live.run_ticks(2).unwrap();
        }
        let live_delta = measure(&mut live, &live_counts, 10);

        // Redeploy path: a fresh build of the final topology.
        let fresh_counts: Counts = Counts::default();
        let mut fresh =
            Deployment::build_parallel(&final_spec, mode, &registry(&fresh_counts), None).unwrap();
        let fresh_delta = measure(&mut fresh, &fresh_counts, 10);

        prop_assert_eq!(&live_delta, &fresh_delta,
            "live partition and redeployed final topology route traffic identically");
        prop_assert_eq!(live.stats().dropped_messages, 0);
        prop_assert_eq!(fresh.stats().dropped_messages, 0);
        prop_assert_eq!(
            live.fault_policy("consumerC").unwrap(),
            final_policy_c,
            "policy swaps survive the sequence"
        );
        // Conservation: ten fan-outs of two messages, all delivered.
        prop_assert_eq!(live_delta.values().sum::<u64>(), 20);
    }

    /// A transaction carrying a random batch of operations that fails at
    /// the end rolls every shard back byte-identically.
    #[test]
    fn failed_transaction_rolls_back_byte_identically(
        ops in proptest::collection::vec(op_strategy(), 1..5),
        mode_merge in 0..2usize,
    ) {
        let mode = if mode_merge == 1 { Mode::MergeAll } else { Mode::Soleil };
        let counts: Counts = Counts::default();
        let mut sys = Deployment::build_parallel(&base_spec(), mode, &registry(&counts), None).unwrap();
        sys.run_ticks(3).unwrap();
        let digests = sys.structural_digests();
        let policy = sys.fault_policy("consumerC").unwrap();

        let err = sys
            .reconfigure(|txn| -> Result<(), soleil_membrane::FrameworkError> {
                for &op in &ops {
                    match op {
                        ReOp::Rebind { port_ix, server } => txn.rebind_async(
                            "producer",
                            if port_ix == 0 { "out1" } else { "out2" },
                            CONSUMERS[server - 1],
                        )?,
                        ReOp::MoveB { to_c } => {
                            txn.reassign_domain("consumerB", if to_c { "C" } else { "B" })?
                        }
                        ReOp::Policy { isolate } => txn.set_fault_policy(
                            "consumerC",
                            if isolate {
                                FaultPolicy::Isolate
                            } else {
                                FaultPolicy::Escalate
                            },
                        )?,
                    }
                }
                Err(soleil_membrane::FrameworkError::Content("refused".into()))
            })
            .unwrap_err();
        prop_assert_eq!(err.to_string(), "content error: refused");

        prop_assert_eq!(sys.structural_digests(), digests,
            "rollback restores every shard engine byte-identically");
        prop_assert_eq!(sys.fault_policy("consumerC").unwrap(), policy);

        // The restored topology routes exactly as the original.
        let delta = measure(&mut sys, &counts, 10);
        prop_assert_eq!(delta.get("consumerB").copied(), Some(10));
        prop_assert_eq!(delta.get("consumerC").copied(), Some(10));
        prop_assert_eq!(sys.stats().dropped_messages, 0);
    }
}
