//! High-fan-out stress fixture: hundreds of components across ≥ 4 thread
//! domains with deep scope nesting, driven through the parallel runtime.
//!
//! Per domain: one periodic head fans out asynchronously to dozens of
//! sporadic workers spread across a 4-deep chain of nested scoped areas;
//! every worker calls a passive service in the domain's outermost scope
//! synchronously (`ExecuteInOuter` / `Direct`); every head also feeds the
//! *next* domain's entry worker across a wait-free SPSC ring. The fixture
//! stresses exactly what the roadmap asked for — the per-area slab map
//! (hundreds of areas and payload types) and the pending-message heap
//! (dozens of pending activations per tick, drained in priority order) —
//! and asserts per-domain tick counts, exact message conservation and
//! distinct OS threads per shard.
//!
//! A companion battery churns the substrate directly: hundreds of nested
//! scopes entered, filled, reclaimed and re-entered, with stale-handle
//! detection and bounded watermarks under slab-slot reuse.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

// Installs the counting global allocator so the drain-batching stress can
// gate per-thread heap allocations in steady state.
#[path = "../crates/bench/src/alloc_probe.rs"]
mod alloc_probe;

use soleil::membrane::content::{Content, ContentRegistry, InvokeResult, Ports};
use soleil::patterns::PatternKind;
use soleil::prelude::*;
use soleil::rtsj::memory::{MemoryKind, MemoryManager, ScopedMemoryParams};
use soleil::rtsj::thread::ThreadKind;
use soleil::rtsj::RtsjError;
use soleil::runtime::spec::{
    Activation, AreaSpec, BindingSpec, BufferPlacement, ComponentSpec, DomainSpec, ProtocolSpec,
};
use soleil::runtime::Deployment;

const DOMAINS: usize = 6;
const WORKERS: usize = 38; // + head + entry + svc = 41 per domain = 246 total
const SCOPE_DEPTH: usize = 4;
const TICKS: u64 = 25;

#[derive(Debug, Clone, Default)]
struct Counters {
    received: Arc<AtomicU64>,
    cross_received: Arc<AtomicU64>,
    svc_calls: Arc<AtomicU64>,
}

/// Periodic head: fans one message out to every worker port plus the
/// cross-domain port.
#[derive(Debug)]
struct Head {
    fan: usize,
}
impl Content<u64> for Head {
    fn on_invoke(&mut self, _p: &str, msg: &mut u64, out: &mut dyn Ports<u64>) -> InvokeResult {
        *msg = msg.wrapping_add(1);
        for i in 0..self.fan {
            out.send(&format!("out{i}"), *msg)?;
        }
        out.send("xout", *msg)
    }
}

/// Sporadic worker: counts the message and consults the domain service.
#[derive(Debug)]
struct Worker {
    counters: Counters,
    cross: bool,
}
impl Content<u64> for Worker {
    fn on_invoke(&mut self, _p: &str, msg: &mut u64, out: &mut dyn Ports<u64>) -> InvokeResult {
        if self.cross {
            self.counters.cross_received.fetch_add(1, Ordering::Relaxed);
        } else {
            self.counters.received.fetch_add(1, Ordering::Relaxed);
        }
        out.call("svc", msg)
    }
}

/// Passive per-domain service living in the outermost scope.
#[derive(Debug)]
struct Service {
    counters: Counters,
}
impl Content<u64> for Service {
    fn on_invoke(&mut self, _p: &str, msg: &mut u64, _out: &mut dyn Ports<u64>) -> InvokeResult {
        self.counters.svc_calls.fetch_add(1, Ordering::Relaxed);
        *msg = msg.wrapping_mul(3);
        Ok(())
    }
}

fn registry(counters: &Counters) -> ContentRegistry<u64> {
    let mut r = ContentRegistry::new();
    r.register("Head", || Box::new(Head { fan: WORKERS }));
    let c = counters.clone();
    r.register("Worker", move || {
        Box::new(Worker {
            counters: c.clone(),
            cross: false,
        })
    });
    let c = counters.clone();
    r.register("Entry", move || {
        Box::new(Worker {
            counters: c.clone(),
            cross: true,
        })
    });
    let c = counters.clone();
    r.register("Service", move || {
        Box::new(Service {
            counters: c.clone(),
        })
    });
    r
}

/// Builds the fan-out spec: `DOMAINS` domains, each with a 4-deep scoped
/// chain, a periodic head, `WORKERS` workers, one cross-domain entry
/// worker and one passive service; heads feed the next domain's entry.
fn high_fanout_spec() -> SystemSpec {
    let mut areas = vec![AreaSpec {
        name: "Imm".into(),
        kind: MemoryKind::Immortal,
        size: Some(8 * 1024 * 1024),
        parent: None,
    }];
    let mut domains = Vec::new();
    let mut components = Vec::new();
    let mut bindings = Vec::new();

    // Scoped chains: areas[1 + d*SCOPE_DEPTH + level].
    for d in 0..DOMAINS {
        for level in 0..SCOPE_DEPTH {
            areas.push(AreaSpec {
                name: format!("S{d}_{level}"),
                kind: MemoryKind::Scoped,
                size: Some(256 * 1024),
                parent: if level == 0 {
                    None
                } else {
                    Some(areas.len() - 1)
                },
            });
        }
        domains.push(DomainSpec {
            name: format!("D{d}"),
            kind: if d % 2 == 0 {
                ThreadKind::NoHeapRealtime
            } else {
                ThreadKind::Realtime
            },
            priority: (35 - d as u8).max(12),
        });
    }
    let scope_at = |d: usize, level: usize| 1 + d * SCOPE_DEPTH + level;

    for d in 0..DOMAINS {
        let head = components.len();
        components.push(ComponentSpec {
            name: format!("head{d}"),
            content_class: "Head".into(),
            activation: Activation::Periodic {
                period: RelativeTime::from_millis(10),
            },
            domain: Some(d),
            area: 0, // immortal
            server_ports: vec![],
            ceiling: None,
        });
        let svc = components.len();
        components.push(ComponentSpec {
            name: format!("svc{d}"),
            content_class: "Service".into(),
            activation: Activation::Passive,
            domain: None,
            area: scope_at(d, 0),
            server_ports: vec!["svc".into()],
            ceiling: None,
        });
        let entry = components.len();
        components.push(ComponentSpec {
            name: format!("entry{d}"),
            content_class: "Entry".into(),
            activation: Activation::Sporadic,
            domain: Some(d),
            area: scope_at(d, 1),
            server_ports: vec!["xin".into()],
            ceiling: None,
        });
        // Entry worker consults the service like everyone else.
        bindings.push(BindingSpec {
            client: entry,
            client_port: "svc".into(),
            server: svc,
            server_port: "svc".into(),
            protocol: ProtocolSpec::Sync,
            pattern: PatternKind::ExecuteInOuter,
            enter_path: vec![],
        });
        for w in 0..WORKERS {
            let level = w % SCOPE_DEPTH;
            let worker = components.len();
            components.push(ComponentSpec {
                name: format!("worker{d}_{w}"),
                content_class: "Worker".into(),
                activation: Activation::Sporadic,
                domain: Some(d),
                area: scope_at(d, level),
                server_ports: vec!["in".into()],
                ceiling: None,
            });
            bindings.push(BindingSpec {
                client: head,
                client_port: format!("out{w}"),
                server: worker,
                server_port: "in".into(),
                protocol: ProtocolSpec::Async {
                    capacity: 4,
                    placement: BufferPlacement::Immortal,
                },
                pattern: PatternKind::ImmortalExchange,
                enter_path: vec![],
            });
            bindings.push(BindingSpec {
                client: worker,
                client_port: "svc".into(),
                server: svc,
                server_port: "svc".into(),
                protocol: ProtocolSpec::Sync,
                pattern: if level == 0 {
                    PatternKind::Direct
                } else {
                    PatternKind::ExecuteInOuter
                },
                enter_path: vec![],
            });
        }
    }
    // Cross-domain ring: head of d feeds entry of (d+1) % DOMAINS.
    for d in 0..DOMAINS {
        let head = (0..components.len())
            .find(|&i| components[i].name == format!("head{d}"))
            .unwrap();
        let entry_next = (0..components.len())
            .find(|&i| components[i].name == format!("entry{}", (d + 1) % DOMAINS))
            .unwrap();
        bindings.push(BindingSpec {
            client: head,
            client_port: "xout".into(),
            server: entry_next,
            server_port: "xin".into(),
            protocol: ProtocolSpec::Async {
                capacity: 256,
                placement: BufferPlacement::Immortal,
            },
            pattern: PatternKind::ImmortalExchange,
            enter_path: vec![],
        });
    }

    SystemSpec {
        name: "high-fanout".into(),
        areas,
        domains,
        components,
        bindings,
    }
}

#[test]
fn hundreds_of_components_shard_into_independent_domains() {
    let counters = Counters::default();
    let sys = Deployment::build_parallel(
        &high_fanout_spec(),
        Mode::MergeAll,
        &registry(&counters),
        None,
    )
    .expect("builds");
    assert_eq!(sys.shard_count(), DOMAINS, "one shard per domain");
    for d in 0..DOMAINS {
        let shard = sys
            .shard_of_domain(&format!("D{d}"))
            .expect("domain placed");
        assert_eq!(
            sys.shard_of_component(&format!("svc{d}")),
            Some(shard),
            "passive service lives with its callers"
        );
    }
}

#[test]
fn high_fanout_ticks_conserve_messages_across_threads() {
    for mode in [Mode::MergeAll, Mode::UltraMerge] {
        let counters = Counters::default();
        let mut sys =
            Deployment::build_parallel(&high_fanout_spec(), mode, &registry(&counters), None)
                .expect("builds");
        let runs = sys.run_ticks(TICKS).expect("parallel run");

        // Per-domain tick counts: every shard drove exactly TICKS ticks on
        // its own OS thread.
        assert_eq!(runs.len(), DOMAINS, "{mode}");
        let mut threads: Vec<String> = runs.iter().map(|r| format!("{:?}", r.thread)).collect();
        threads.sort();
        threads.dedup();
        assert_eq!(threads.len(), DOMAINS, "{mode}: distinct OS threads");
        for r in &runs {
            assert_eq!(r.ticks, TICKS, "{mode} {}", r.label);
        }

        // Message conservation at quiescence. Per domain and tick: the
        // head fans WORKERS intra-shard messages and 1 cross message; all
        // are delivered (capacities absorb the worst-case skew) and every
        // delivery performed one synchronous service call.
        let n = TICKS;
        let d = DOMAINS as u64;
        let w = WORKERS as u64;
        assert_eq!(
            counters.received.load(Ordering::Relaxed),
            d * w * n,
            "{mode}: every fanned-out message delivered"
        );
        assert_eq!(
            counters.cross_received.load(Ordering::Relaxed),
            d * n,
            "{mode}: every cross-domain message delivered"
        );
        assert_eq!(
            counters.svc_calls.load(Ordering::Relaxed),
            d * (w + 1) * n,
            "{mode}: every delivery consulted its domain service"
        );
        let total = sys.stats();
        assert_eq!(total.dropped_messages, 0, "{mode}: no backpressure drops");
        assert_eq!(
            total.async_messages,
            d * (w + 1) * n,
            "{mode}: producer-side accounting matches"
        );

        // Per-shard accounting: TICKS head releases + TICKS cross
        // injections; activations = head + workers + entry per tick.
        for dd in 0..DOMAINS {
            let shard = sys.shard_of_domain(&format!("D{dd}")).unwrap();
            let st = sys.shard_stats(shard);
            assert_eq!(st.transactions, 2 * n, "{mode} D{dd}: ticks + injections");
            assert_eq!(st.activations, n * (w + 2), "{mode} D{dd}");
        }
    }
}

// ---------------------------------------------------------------------------
// Drain batching: multi-message ring runs under the batched drain passes
// ---------------------------------------------------------------------------

/// Bursting head: pushes `BURST` messages into each cross-domain port per
/// release — back-to-back pushes into the *same* ring, so a consumer's
/// drain pass finds a multi-message run behind one head snapshot.
#[derive(Debug)]
struct BurstHead;

const BURST: u64 = 8;

impl Content<u64> for BurstHead {
    fn on_invoke(&mut self, _p: &str, msg: &mut u64, out: &mut dyn Ports<u64>) -> InvokeResult {
        *msg = msg.wrapping_add(1);
        for port in ["xout0", "xout1"] {
            for _ in 0..BURST {
                out.send(port, *msg)?;
            }
        }
        Ok(())
    }
}

/// Counting sink on its own domain/shard.
#[derive(Debug)]
struct Sink {
    hits: Arc<AtomicU64>,
}
impl Content<u64> for Sink {
    fn on_invoke(&mut self, _p: &str, _msg: &mut u64, _out: &mut dyn Ports<u64>) -> InvokeResult {
        self.hits.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }
}

/// Satellite stress for the batched ring drains: message conservation and
/// the per-thread zero-allocation discipline hold when rings are drained
/// in batches, and the batching is *actually exercised* — the drain-pass
/// accounting must show a multi-message run (batch size > 1) popped
/// against a single head snapshot.
#[test]
fn batched_ring_drains_conserve_messages_and_stay_allocation_free() {
    const WARMUP: u64 = 25;
    const MEASURED: u64 = 200;

    let hits0 = Arc::new(AtomicU64::new(0));
    let hits1 = Arc::new(AtomicU64::new(0));
    let mut registry: ContentRegistry<u64> = ContentRegistry::new();
    registry.register("BurstHead", || Box::new(BurstHead));
    let h = hits0.clone();
    registry.register("Sink0", move || Box::new(Sink { hits: h.clone() }));
    let h = hits1.clone();
    registry.register("Sink1", move || Box::new(Sink { hits: h.clone() }));

    let spec = SystemSpec {
        name: "burst".into(),
        areas: vec![AreaSpec {
            name: "Imm".into(),
            kind: MemoryKind::Immortal,
            size: Some(1024 * 1024),
            parent: None,
        }],
        domains: vec![
            DomainSpec {
                name: "P".into(),
                kind: ThreadKind::NoHeapRealtime,
                priority: 30,
            },
            DomainSpec {
                name: "C0".into(),
                kind: ThreadKind::Realtime,
                priority: 25,
            },
            DomainSpec {
                name: "C1".into(),
                kind: ThreadKind::Realtime,
                priority: 20,
            },
        ],
        components: vec![
            ComponentSpec {
                name: "burster".into(),
                content_class: "BurstHead".into(),
                activation: Activation::Periodic {
                    period: RelativeTime::from_millis(10),
                },
                domain: Some(0),
                area: 0,
                server_ports: vec![],
                ceiling: None,
            },
            ComponentSpec {
                name: "sink0".into(),
                content_class: "Sink0".into(),
                activation: Activation::Sporadic,
                domain: Some(1),
                area: 0,
                server_ports: vec!["in".into()],
                ceiling: None,
            },
            ComponentSpec {
                name: "sink1".into(),
                content_class: "Sink1".into(),
                activation: Activation::Sporadic,
                domain: Some(2),
                area: 0,
                server_ports: vec!["in".into()],
                ceiling: None,
            },
        ],
        bindings: (0..2)
            .map(|i| BindingSpec {
                client: 0,
                client_port: format!("xout{i}"),
                server: 1 + i,
                server_port: "in".into(),
                protocol: ProtocolSpec::Async {
                    // Sized for the whole run: the producer may burst an
                    // entire phase ahead of a consumer on a single-core
                    // host, and this test asserts *exact* conservation.
                    capacity: 2048,
                    placement: BufferPlacement::Immortal,
                },
                pattern: PatternKind::ImmortalExchange,
                enter_path: vec![],
            })
            .collect(),
    };

    let mut sys =
        Deployment::build_parallel(&spec, Mode::MergeAll, &registry, None).expect("builds");
    assert_eq!(sys.shard_count(), 3, "producer and both sinks shard apart");
    let runs = sys
        .run_ticks_instrumented(WARMUP, MEASURED, &alloc_probe::allocations)
        .expect("parallel run");

    // Conservation: every burst of every tick (warmup included) delivered.
    let expected = (WARMUP + MEASURED) * BURST;
    assert_eq!(hits0.load(Ordering::Relaxed), expected);
    assert_eq!(hits1.load(Ordering::Relaxed), expected);
    assert_eq!(sys.stats().dropped_messages, 0, "no backpressure drops");

    let consumer_runs: Vec<_> = runs.iter().filter(|r| r.label != "P").collect();
    assert_eq!(consumer_runs.len(), 2);
    for r in &runs {
        // Per-thread zero-alloc discipline holds under batched drains.
        assert_eq!(
            r.probe_delta, 0,
            "shard '{}' allocated on the Rust heap in steady state",
            r.label
        );
        assert_eq!(
            r.substrate_allocs, 0,
            "shard '{}' allocated in the substrate in steady state",
            r.label
        );
    }
    for r in &consumer_runs {
        assert!(r.drain_passes > 0, "shard '{}' never drained", r.label);
        assert_eq!(
            r.drained_messages, expected,
            "shard '{}' drain accounting matches delivery",
            r.label
        );
    }
    // The batching must actually trigger: 8 back-to-back pushes per tick
    // into each ring mean some drain pass pops a run > 1 against a single
    // head snapshot (on any realistic scheduling, and deterministically on
    // a single-core host).
    let max_batch = consumer_runs.iter().map(|r| r.max_drain_batch).max();
    assert!(
        max_batch.unwrap() > 1,
        "no drain pass ever batched more than one message: {max_batch:?}"
    );
}

// ---------------------------------------------------------------------------
// Substrate churn: slab map + stale handles under hundreds of scopes
// ---------------------------------------------------------------------------

#[test]
fn scope_churn_over_hundreds_of_areas_detects_stale_handles() {
    const CHAINS: usize = 60;
    const DEPTH: usize = 4; // 240 scoped areas
    let mut mm = MemoryManager::new(1 << 20, 1 << 20);
    let mut chains: Vec<Vec<_>> = Vec::new();
    for c in 0..CHAINS {
        let mut chain = Vec::new();
        for l in 0..DEPTH {
            chain.push(
                mm.create_scoped(ScopedMemoryParams::new(format!("c{c}_{l}"), 64 * 1024))
                    .unwrap(),
            );
        }
        chains.push(chain);
    }

    let mut ctx = mm.context(ThreadKind::Realtime);
    let mut watermarks: Vec<usize> = vec![0; CHAINS];
    for round in 0..5u64 {
        let mut stale_probes = Vec::new();
        for (c, chain) in chains.iter().enumerate() {
            // Enter the whole chain, allocate several payload types at
            // every level (stressing the per-area TypeId slab map).
            for &scope in chain {
                mm.enter(&mut ctx, scope).unwrap();
                mm.alloc(&ctx, scope, round).unwrap();
                mm.alloc(&ctx, scope, (c as u32, round as u32)).unwrap();
                mm.alloc(&ctx, scope, [round as u8; 24]).unwrap();
            }
            stale_probes.push(mm.alloc(&ctx, chain[DEPTH - 1], 0xdead_beefu32).unwrap());
            // Exit everything: bulk reclaim, generations advance.
            for _ in chain {
                mm.exit(&mut ctx).unwrap();
            }
            let wm = mm.stats(chain[0]).unwrap().high_watermark;
            if round == 0 {
                watermarks[c] = wm;
            } else {
                assert_eq!(
                    wm, watermarks[c],
                    "slab reuse must keep the watermark flat across churn rounds"
                );
            }
            assert_eq!(mm.stats(chain[0]).unwrap().consumed, 0);
        }
        // Every handle that outlived its scope is detected, not misread.
        for probe in stale_probes {
            assert!(
                matches!(mm.get(&ctx, probe), Err(RtsjError::StaleHandle { .. })),
                "round {round}: reclaimed-scope handle must be stale"
            );
        }
    }
    // 240 scopes × 5 rounds × 4 allocs (incl. probe): the slab map took
    // the traffic without leaking live objects.
    assert_eq!(mm.stats(chains[0][0]).unwrap().reclaim_count, 5);
    let live: usize = (0..mm.area_count())
        .map(|i| {
            mm.stats(soleil::rtsj::memory::AreaId::from_raw(i as u32))
                .unwrap()
                .live_objects
        })
        .sum();
    assert_eq!(live, 0, "all churned objects reclaimed");
}
