//! Property-based parity check for the compiled dispatch plan.
//!
//! The interned jump-table path (`PortId` → `[slot][id]` index) and the
//! legacy string-scan path must be observationally identical: same
//! functional results, same error texts, same engine counters — on random
//! architectures, random call scripts, in all three serial modes. The
//! script deliberately mixes bound ports, ports bound on a *different*
//! component (unbound here), names outside the deployment's intern
//! universe (string fallback), and protocol mismatches (call on an async
//! port, send on a sync port), so every cold path is compared too.

use std::sync::{Arc, Mutex};

use proptest::prelude::*;
use rtsj::memory::MemoryKind;
use rtsj::thread::ThreadKind;
use rtsj::time::RelativeTime;
use soleil_membrane::content::{Content, ContentRegistry, InternedPort, InvokeResult, Ports};
use soleil_runtime::spec::{
    Activation, AreaSpec, BindingSpec, BufferPlacement, ComponentSpec, DomainSpec, ProtocolSpec,
    SystemSpec,
};
use soleil_runtime::{Mode, System};

/// Static pool of client-port names: `InternedPort::new` wants
/// `&'static str`, so the generated architectures draw from a fixed pool.
const SYNC_PORTS: [&str; 6] = ["p0", "p1", "p2", "p3", "p4", "p5"];
/// Async port from the hub to the sink.
const ASYNC_PORT: &str = "q0";
/// Bound by the spare component, never by the hub: exercises the
/// unbound-interned cold path.
const FOREIGN_PORT: &str = "px";
/// Outside the intern universe entirely: exercises the string fallback.
const GHOST_PORT: &str = "ghost0";

// `Payload` is blanket-implemented for any `Clone + Default + Debug + Send`.
#[derive(Debug, Clone, Default, PartialEq)]
struct Probe {
    value: i64,
}

type Log = Arc<Mutex<Vec<String>>>;

/// One scripted dispatch from the hub.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Op {
    Call(usize),
    Send(usize),
}

fn port_of(ix: usize) -> &'static str {
    match ix {
        0..=5 => SYNC_PORTS[ix],
        6 => ASYNC_PORT,
        7 => FOREIGN_PORT,
        _ => GHOST_PORT,
    }
}

/// The scripted hub, string-dispatch variant: executes every op via the
/// name path and records the outcome.
#[derive(Debug)]
struct StringHub {
    script: Vec<Op>,
    log: Log,
}
impl Content<Probe> for StringHub {
    fn on_invoke(
        &mut self,
        _port: &str,
        msg: &mut Probe,
        out: &mut dyn Ports<Probe>,
    ) -> InvokeResult {
        for op in &self.script {
            let outcome = match *op {
                Op::Call(ix) => out.call(port_of(ix), msg),
                Op::Send(ix) => out.send(port_of(ix), msg.clone()),
            };
            record(&self.log, *op, msg, outcome);
        }
        Ok(())
    }
}

/// The scripted hub, interned variant: same script, but every dispatch
/// goes through a memoized [`InternedPort`].
#[derive(Debug)]
struct InternedHub {
    script: Vec<Op>,
    ports: Vec<InternedPort>,
    log: Log,
}
impl Content<Probe> for InternedHub {
    fn on_invoke(
        &mut self,
        _port: &str,
        msg: &mut Probe,
        out: &mut dyn Ports<Probe>,
    ) -> InvokeResult {
        for op in &self.script {
            let outcome = match *op {
                Op::Call(ix) => self.ports[ix].call(out, msg),
                Op::Send(ix) => self.ports[ix].send(out, msg.clone()),
            };
            record(&self.log, *op, msg, outcome);
        }
        Ok(())
    }
}

fn record(log: &Log, op: Op, msg: &Probe, outcome: InvokeResult) {
    let text = match outcome {
        Ok(()) => format!("{op:?} value={} ok", msg.value),
        Err(e) => format!("{op:?} value={} err={e}", msg.value),
    };
    log.lock().unwrap().push(text);
}

/// Passive service `i`: adds a distinct increment so the log captures
/// which server actually ran.
#[derive(Debug)]
struct Adder {
    step: i64,
}
impl Content<Probe> for Adder {
    fn on_invoke(
        &mut self,
        _port: &str,
        msg: &mut Probe,
        _out: &mut dyn Ports<Probe>,
    ) -> InvokeResult {
        msg.value += self.step;
        Ok(())
    }
}

/// The async sink: records every drained message.
#[derive(Debug)]
struct Sink {
    log: Log,
}
impl Content<Probe> for Sink {
    fn on_invoke(
        &mut self,
        _port: &str,
        msg: &mut Probe,
        _out: &mut dyn Ports<Probe>,
    ) -> InvokeResult {
        self.log.lock().unwrap().push(format!("sink {}", msg.value));
        Ok(())
    }
}

/// A random-but-valid deployment: a periodic hub in immortal memory, a
/// sporadic sink behind an async binding, `n_services` passive adders in
/// immortal or scoped areas (scoped ⇒ EnterInner), and a spare passive
/// client owning [`FOREIGN_PORT`].
fn arch(n_services: usize, scoped: &[bool]) -> SystemSpec {
    let mut areas = vec![AreaSpec {
        name: "Imm".into(),
        kind: MemoryKind::Immortal,
        size: Some(512 * 1024),
        parent: None,
    }];
    let mut components = vec![
        ComponentSpec {
            name: "hub".into(),
            content_class: "Hub".into(),
            activation: Activation::Periodic {
                period: RelativeTime::from_millis(10),
            },
            domain: Some(0),
            area: 0,
            server_ports: vec![],
        },
        ComponentSpec {
            name: "sink".into(),
            content_class: "Sink".into(),
            activation: Activation::Sporadic,
            domain: Some(0),
            area: 0,
            server_ports: vec!["in".into()],
        },
    ];
    let mut bindings = vec![BindingSpec {
        client: 0,
        client_port: ASYNC_PORT.into(),
        server: 1,
        server_port: "in".into(),
        protocol: ProtocolSpec::Async {
            capacity: 64,
            placement: BufferPlacement::Immortal,
        },
    }];
    for i in 0..n_services {
        let area = if scoped[i] {
            areas.push(AreaSpec {
                name: format!("S{i}"),
                kind: MemoryKind::Scoped,
                size: Some(16 * 1024),
                parent: None,
            });
            areas.len() - 1
        } else {
            0
        };
        components.push(ComponentSpec {
            name: format!("svc{i}"),
            content_class: format!("Adder{i}"),
            activation: Activation::Passive,
            domain: None,
            area,
            server_ports: vec![format!("s{i}")],
        });
        bindings.push(BindingSpec {
            client: 0,
            client_port: SYNC_PORTS[i].into(),
            server: components.len() - 1,
            server_port: format!("s{i}"),
            protocol: ProtocolSpec::Sync,
        });
    }
    if n_services > 0 {
        // The spare client binds FOREIGN_PORT so the name is in the intern
        // universe, yet the hub's row has no entry for it.
        components.push(ComponentSpec {
            name: "spare".into(),
            content_class: "Spare".into(),
            activation: Activation::Passive,
            domain: None,
            area: 0,
            server_ports: vec![],
        });
        bindings.push(BindingSpec {
            client: components.len() - 1,
            client_port: FOREIGN_PORT.into(),
            server: 2,
            server_port: "s0".into(),
            protocol: ProtocolSpec::Sync,
        });
    }
    SystemSpec {
        name: "parity".into(),
        areas,
        domains: vec![DomainSpec {
            name: "RT".into(),
            kind: ThreadKind::Realtime,
            priority: 20,
        }],
        components,
        bindings,
    }
}

fn registry(
    n_services: usize,
    script: Vec<Op>,
    interned: bool,
    log: Log,
) -> ContentRegistry<Probe> {
    let mut r = ContentRegistry::new();
    let hub_log = log.clone();
    if interned {
        r.register("Hub", move || {
            Box::new(InternedHub {
                script: script.clone(),
                ports: (0..=8).map(|ix| InternedPort::new(port_of(ix))).collect(),
                log: hub_log.clone(),
            })
        });
    } else {
        r.register("Hub", move || {
            Box::new(StringHub {
                script: script.clone(),
                log: hub_log.clone(),
            })
        });
    }
    let sink_log = log.clone();
    r.register("Sink", move || {
        Box::new(Sink {
            log: sink_log.clone(),
        })
    });
    for i in 0..n_services {
        r.register(format!("Adder{i}"), move || {
            Box::new(Adder {
                step: (i as i64 + 1) * 7,
            })
        });
    }
    r.register("Spare", || Box::new(Adder { step: 0 }));
    r
}

/// Runs the deployment with one dispatch variant and returns the ordered
/// event log plus the engine counters the paper's figures are built from.
fn run_variant(
    spec: &SystemSpec,
    mode: Mode,
    n_services: usize,
    script: &[Op],
    interned: bool,
    transactions: usize,
) -> (Vec<String>, String) {
    let log: Log = Arc::new(Mutex::new(Vec::new()));
    let reg = registry(n_services, script.to_vec(), interned, log.clone());
    let mut sys = System::build(spec, mode, &reg).expect("build");
    let head = sys.slot_of("hub").expect("hub slot");
    for _ in 0..transactions {
        sys.run_transaction(head).expect("scripted hub never fails");
    }
    let st = sys.stats();
    let counters = format!(
        "txn={} act={} sync={} async={} dropped={}",
        st.transactions, st.activations, st.sync_calls, st.async_messages, st.dropped_messages
    );
    let events = log.lock().unwrap().clone();
    (events, counters)
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // Index 0..9: sync services (0..6), async port (6), foreign (7), ghost (8).
    prop_oneof![
        (0usize..9).prop_map(Op::Call),
        (0usize..9).prop_map(Op::Send),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Interned and string dispatch agree — events, errors and engine
    /// counters — on random architectures in every serial mode.
    #[test]
    fn interned_and_string_dispatch_agree(
        n_services in 0usize..7,
        scoped in proptest::collection::vec(prop_oneof![Just(false), Just(true)], 6..7),
        script in proptest::collection::vec(op_strategy(), 0..16),
        transactions in 1usize..4,
    ) {
        // Ops referencing services beyond n_services resolve to unbound
        // names on the hub — remap them into the ghost slot is NOT done:
        // they stay as-is precisely to compare the unbound error paths.
        let spec = arch(n_services, &scoped);
        spec.check().expect("generated spec is structurally valid");
        for mode in [Mode::Soleil, Mode::MergeAll, Mode::UltraMerge] {
            let (string_events, string_counters) =
                run_variant(&spec, mode, n_services, &script, false, transactions);
            let (interned_events, interned_counters) =
                run_variant(&spec, mode, n_services, &script, true, transactions);
            prop_assert_eq!(
                &interned_events, &string_events,
                "event logs diverged in {} (script {:?})", mode, script
            );
            prop_assert_eq!(
                &interned_counters, &string_counters,
                "counters diverged in {}", mode
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Parity across a rebind boundary
// ---------------------------------------------------------------------------

/// Builds the rebind fixture: a periodic hub whose sync port `p0` starts
/// bound to `svcA` (step 7) and is live-rebound to `svcB` (step 70), with
/// the matching architectural model so `Deployment::reconfigure` can
/// re-validate the transaction.
fn rebind_fixture(
    interned: bool,
    log: Log,
) -> (
    SystemSpec,
    soleil_core::Architecture,
    ContentRegistry<Probe>,
) {
    let spec = SystemSpec {
        name: "rebind-parity".into(),
        areas: vec![AreaSpec {
            name: "imm".into(),
            kind: MemoryKind::Immortal,
            size: Some(128 * 1024),
            parent: None,
        }],
        domains: vec![DomainSpec {
            name: "rt".into(),
            kind: ThreadKind::Realtime,
            priority: 20,
        }],
        components: vec![
            ComponentSpec {
                name: "hub".into(),
                content_class: "Hub".into(),
                activation: Activation::Periodic {
                    period: RelativeTime::from_millis(10),
                },
                domain: Some(0),
                area: 0,
                server_ports: vec![],
            },
            ComponentSpec {
                name: "svcA".into(),
                content_class: "AdderA".into(),
                activation: Activation::Passive,
                domain: None,
                area: 0,
                server_ports: vec!["s".into()],
            },
            ComponentSpec {
                name: "svcB".into(),
                content_class: "AdderB".into(),
                activation: Activation::Passive,
                domain: None,
                area: 0,
                server_ports: vec!["s".into()],
            },
        ],
        bindings: vec![BindingSpec {
            client: 0,
            client_port: SYNC_PORTS[0].into(),
            server: 1,
            server_port: "s".into(),
            protocol: ProtocolSpec::Sync,
        }],
    };

    let mut bv = soleil_core::views::BusinessView::new("rebind-parity");
    bv.active_periodic("hub", "10ms").unwrap();
    bv.passive("svcA").unwrap();
    bv.passive("svcB").unwrap();
    bv.content("hub", "Hub").unwrap();
    bv.content("svcA", "AdderA").unwrap();
    bv.content("svcB", "AdderB").unwrap();
    bv.require("hub", SYNC_PORTS[0], "I").unwrap();
    bv.provide("svcA", "s", "I").unwrap();
    bv.provide("svcB", "s", "I").unwrap();
    bv.bind_sync("hub", SYNC_PORTS[0], "svcA", "s").unwrap();
    let mut flow = soleil_core::views::DesignFlow::new(bv);
    flow.thread_domain("rt", rtsj::thread::ThreadKind::Realtime, 20, &["hub"])
        .unwrap();
    flow.memory_area(
        "imm",
        rtsj::memory::MemoryKind::Immortal,
        Some(128 * 1024),
        &["rt", "svcA", "svcB"],
    )
    .unwrap();
    let arch = flow
        .merge()
        .unwrap()
        .into_validated()
        .unwrap()
        .architecture()
        .clone();

    let script = vec![Op::Call(0)];
    let reg = {
        let mut r = ContentRegistry::new();
        let hub_log = log.clone();
        if interned {
            r.register("Hub", move || {
                Box::new(InternedHub {
                    script: script.clone(),
                    ports: (0..=8).map(|ix| InternedPort::new(port_of(ix))).collect(),
                    log: hub_log.clone(),
                })
            });
        } else {
            r.register("Hub", move || {
                Box::new(StringHub {
                    script: script.clone(),
                    log: hub_log.clone(),
                })
            });
        }
        r.register("AdderA", || Box::new(Adder { step: 7 }));
        r.register("AdderB", || Box::new(Adder { step: 70 }));
        r
    };
    (spec, arch, reg)
}

/// Runs transactions across a live rebind boundary with one dispatch
/// variant: pre-rebind activations hit `svcA`, then `p0` is rebound to
/// `svcB` and the same script runs again.
fn run_rebind_variant(mode: soleil_runtime::Mode, interned: bool) -> Vec<String> {
    use soleil_runtime::Deployment;
    let log: Log = Arc::new(Mutex::new(Vec::new()));
    let (spec, arch, reg) = rebind_fixture(interned, log.clone());
    let mut dep = Deployment::build(&spec, mode, &reg, arch).expect("build");
    let hub = dep.resolve("hub").unwrap();
    let svc_b = dep.resolve("svcB").unwrap();
    for _ in 0..3 {
        dep.run_transaction(hub).expect("pre-rebind transaction");
    }
    dep.reconfigure(|txn| txn.rebind(hub, SYNC_PORTS[0], svc_b))
        .expect("rebind commits");
    for _ in 0..3 {
        dep.run_transaction(hub).expect("post-rebind transaction");
    }
    let events = log.lock().unwrap().clone();
    events
}

/// Satellite regression: an [`InternedPort`] memo minted before a rebind
/// must not keep dispatching into the old server. Interned and string
/// dispatch must agree on every event across the rebind boundary, and the
/// post-rebind events must actually reach the new server.
#[test]
fn interned_dispatch_survives_a_rebind_boundary() {
    for mode in [soleil_runtime::Mode::Soleil, soleil_runtime::Mode::MergeAll] {
        let string_events = run_rebind_variant(mode, false);
        let interned_events = run_rebind_variant(mode, true);
        assert_eq!(
            interned_events, string_events,
            "{mode}: dispatch variants diverged across the rebind"
        );
        // 3 activations into svcA (+7 each), then 3 into svcB (+70 each):
        // a stale memo would keep printing value=7.
        let expect: Vec<String> = ["7", "7", "7", "70", "70", "70"]
            .iter()
            .map(|v| format!("Call(0) value={v} ok"))
            .collect();
        assert_eq!(interned_events, expect, "{mode}: rebind took effect");
    }
}
