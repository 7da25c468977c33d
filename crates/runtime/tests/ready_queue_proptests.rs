//! Property-based check of the engine's ready queue.
//!
//! A head component releases a seeded script of messages to consumers of
//! mixed (often equal) priorities, and every consumer forwards the
//! script's children of each message it receives. The order in which the
//! consumers activate must be exactly the order a reference model
//! predicts: a `BinaryHeap<(PendingKey, usize)>` of (consumer priority,
//! reversed enqueue sequence) keys plus buffer indices, popping one
//! message from the named buffer per entry — highest priority first, FIFO
//! within a priority.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::{Arc, Mutex};

use proptest::prelude::*;
use rtsj::memory::MemoryKind;
use rtsj::thread::{Priority, ThreadKind};
use rtsj::time::RelativeTime;
use soleil_membrane::content::{Content, ContentRegistry, InvokeResult, Ports};
use soleil_runtime::spec::{
    Activation, AreaSpec, BindingSpec, BufferPlacement, ComponentSpec, DomainSpec, ProtocolSpec,
    SystemSpec,
};
use soleil_runtime::{Mode, System};

/// Client-port names: `c{j}` sends to consumer `j`.
const PORTS: [&str; 5] = ["c0", "c1", "c2", "c3", "c4"];

#[derive(Debug, Clone, Default)]
struct Msg {
    id: usize,
}

/// The message script: `targets[m]` consumes message `m`; `roots` are sent
/// by the head, in order; `children[m]` are sent, in order, by whoever
/// consumes `m`. A message is never sent by its own target.
#[derive(Debug)]
struct Script {
    consumers: usize,
    priorities: Vec<u8>,
    targets: Vec<usize>,
    roots: Vec<usize>,
    children: Vec<Vec<usize>>,
}

impl Script {
    /// `picks[m] = (target, parent)`: a `parent` of `m` or more, or one
    /// whose target is `m`'s own, makes `m` a root.
    fn new(priorities: Vec<u8>, picks: &[(usize, usize)]) -> Script {
        let consumers = priorities.len();
        let targets: Vec<usize> = picks.iter().map(|&(t, _)| t % consumers).collect();
        let mut roots = Vec::new();
        let mut children = vec![Vec::new(); picks.len()];
        for (m, &(_, parent)) in picks.iter().enumerate() {
            if parent < m && targets[parent] != targets[m] {
                children[parent].push(m);
            } else {
                roots.push(m);
            }
        }
        Script {
            consumers,
            priorities,
            targets,
            roots,
            children,
        }
    }

    /// Slot of the head component; consumers are slots `0..consumers`.
    fn head(&self) -> usize {
        self.consumers
    }

    /// The spec's bindings, in order: client → every other consumer, for
    /// each consumer and then the head. Every binding is asynchronous, so
    /// a binding's position is its engine buffer index.
    fn bindings(&self) -> Vec<(usize, usize)> {
        (0..=self.consumers)
            .flat_map(|client| {
                (0..self.consumers)
                    .filter(move |&server| server != client)
                    .map(move |server| (client, server))
            })
            .collect()
    }

    fn spec(&self) -> SystemSpec {
        let mut domains: Vec<DomainSpec> = self
            .priorities
            .iter()
            .enumerate()
            .map(|(j, &priority)| DomainSpec {
                name: format!("d{j}"),
                kind: ThreadKind::Realtime,
                priority,
            })
            .collect();
        domains.push(DomainSpec {
            name: "head".into(),
            kind: ThreadKind::Realtime,
            priority: 90,
        });
        let mut components: Vec<ComponentSpec> = (0..self.consumers)
            .map(|j| ComponentSpec {
                name: format!("consumer{j}"),
                content_class: "Consumer".into(),
                activation: Activation::Sporadic,
                domain: Some(j),
                area: 0,
                server_ports: vec!["in".into()],
            })
            .collect();
        components.push(ComponentSpec {
            name: "head".into(),
            content_class: "Head".into(),
            activation: Activation::Periodic {
                period: RelativeTime::from_millis(10),
            },
            domain: Some(self.consumers),
            area: 0,
            server_ports: vec![],
        });
        SystemSpec {
            name: "ready-queue".into(),
            areas: vec![AreaSpec {
                name: "Imm1".into(),
                kind: MemoryKind::Immortal,
                size: Some(256 * 1024),
                parent: None,
            }],
            domains,
            components,
            bindings: self
                .bindings()
                .into_iter()
                .map(|(client, server)| BindingSpec {
                    client,
                    client_port: PORTS[server].into(),
                    server,
                    server_port: "in".into(),
                    protocol: ProtocolSpec::Async {
                        capacity: 64,
                        placement: BufferPlacement::Immortal,
                    },
                })
                .collect(),
        }
    }

    /// The reference activation order, `(consumer, message)` per step.
    fn model(&self) -> Vec<(usize, usize)> {
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
        struct PendingKey {
            priority: Priority,
            seq: Reverse<u64>,
        }
        let bindings = self.bindings();
        let mut queues = vec![VecDeque::new(); bindings.len()];
        let mut pending: BinaryHeap<(PendingKey, usize)> = BinaryHeap::new();
        let mut seq = 0;
        let mut sends: Vec<(usize, usize)> = self.roots.iter().map(|&r| (self.head(), r)).collect();
        let mut order = Vec::new();
        loop {
            for (client, m) in sends.drain(..) {
                let server = self.targets[m];
                let buffer_ix = bindings
                    .iter()
                    .position(|&b| b == (client, server))
                    .expect("every cross-consumer pair is bound");
                queues[buffer_ix].push_back(m);
                seq += 1;
                let key = PendingKey {
                    priority: Priority::new(self.priorities[server]),
                    seq: Reverse(seq),
                };
                pending.push((key, buffer_ix));
            }
            let Some((_, buffer_ix)) = pending.pop() else {
                break;
            };
            let m = queues[buffer_ix]
                .pop_front()
                .expect("one message per entry");
            let consumer = self.targets[m];
            order.push((consumer, m));
            sends.extend(self.children[m].iter().map(|&c| (consumer, c)));
        }
        order
    }
}

type Log = Arc<Mutex<Vec<(usize, usize)>>>;

#[derive(Debug)]
struct Head {
    script: Arc<Script>,
}

impl Content<Msg> for Head {
    fn on_invoke(&mut self, _port: &str, _msg: &mut Msg, out: &mut dyn Ports<Msg>) -> InvokeResult {
        for &r in &self.script.roots {
            out.send(PORTS[self.script.targets[r]], Msg { id: r })?;
        }
        Ok(())
    }
}

#[derive(Debug)]
struct Consumer {
    script: Arc<Script>,
    log: Log,
}

impl Content<Msg> for Consumer {
    fn on_invoke(&mut self, _port: &str, msg: &mut Msg, out: &mut dyn Ports<Msg>) -> InvokeResult {
        self.log
            .lock()
            .unwrap()
            .push((self.script.targets[msg.id], msg.id));
        for &c in &self.script.children[msg.id] {
            out.send(PORTS[self.script.targets[c]], Msg { id: c })?;
        }
        Ok(())
    }
}

fn run(script: &Arc<Script>, mode: Mode, transactions: usize) -> Vec<(usize, usize)> {
    let log: Log = Arc::default();
    let mut registry: ContentRegistry<Msg> = ContentRegistry::new();
    let s = Arc::clone(script);
    registry.register("Head", move || {
        Box::new(Head {
            script: Arc::clone(&s),
        })
    });
    let (s, l) = (Arc::clone(script), Arc::clone(&log));
    registry.register("Consumer", move || {
        Box::new(Consumer {
            script: Arc::clone(&s),
            log: Arc::clone(&l),
        })
    });
    let mut sys = System::build(&script.spec(), mode, &registry).expect("builds");
    for _ in 0..transactions {
        sys.run_transaction(script.head()).expect("transaction");
    }
    assert_eq!(
        sys.stats().dropped_messages,
        0,
        "capacity covers the script"
    );
    let order = log.lock().unwrap().clone();
    order
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Every mode activates consumers in exactly the reference order, over
    /// two back-to-back transactions (the engine's sequence counter keeps
    /// running across them).
    #[test]
    fn activation_order_matches_the_reference_heap(
        priorities in proptest::collection::vec(1u8..4, 2..6),
        picks in proptest::collection::vec((0usize..5, 0usize..40), 1..40),
    ) {
        let priorities: Vec<u8> = priorities.into_iter().map(|p| p * 10).collect();
        let script = Arc::new(Script::new(priorities, &picks));
        let once = script.model();
        prop_assert_eq!(once.len(), picks.len());
        let expected: Vec<(usize, usize)> = once.iter().chain(&once).copied().collect();
        for mode in [Mode::Soleil, Mode::MergeAll, Mode::UltraMerge] {
            let actual = run(&script, mode, 2);
            prop_assert_eq!(&actual, &expected, "{}", mode);
        }
    }
}
