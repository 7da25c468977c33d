//! Dynamic adaptation (§4.2): transactional reconfiguration through the
//! typed deployment handle.
//!
//! A monitoring pipeline notifies a primary console; at runtime we switch
//! to a backup console inside one `reconfigure` transaction — stop, rebind,
//! restart — which commits only after the resulting architecture passes the
//! same RTSJ validation the design-time flow enforces, and rolls back
//! as a unit otherwise. The same operations are then attempted under
//! MERGE-ALL (functional-level rebinding still works, membrane
//! introspection does not) and ULTRA-MERGE (purely static: everything is
//! refused), matching the paper's capability matrix. Finally a transaction
//! is driven into a validator refusal to demonstrate the rollback.
//!
//! ```text
//! cargo run --example adaptive_reconfig
//! ```

use soleil::prelude::*;

#[derive(Debug, Clone, Copy, Default)]
struct Alert {
    code: u32,
}

#[derive(Debug, Default)]
struct Producer {
    n: u32,
}
impl Content<Alert> for Producer {
    fn on_invoke(
        &mut self,
        _port: &str,
        msg: &mut Alert,
        out: &mut dyn Ports<Alert>,
    ) -> InvokeResult {
        self.n += 1;
        msg.code = self.n;
        out.call("console", msg)
    }
}

#[derive(Debug)]
struct NamedConsole {
    name: &'static str,
    handled: std::sync::Arc<std::sync::atomic::AtomicU32>,
}
impl Content<Alert> for NamedConsole {
    fn on_invoke(
        &mut self,
        _port: &str,
        _msg: &mut Alert,
        _out: &mut dyn Ports<Alert>,
    ) -> InvokeResult {
        self.handled
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        Ok(())
    }
    fn on_stop(&mut self) {
        println!("    [{}] stopping", self.name);
    }
}

type HandledCounter = std::sync::Arc<std::sync::atomic::AtomicU32>;

fn build(mode: Mode) -> Result<(Deployment<Alert>, HandledCounter, HandledCounter), SoleilError> {
    let mut b = BusinessView::new("adaptive");
    b.active_periodic("producer", "5ms")?;
    b.passive("primary")?;
    b.passive("backup")?;
    b.content("producer", "ProducerImpl")?;
    b.content("primary", "PrimaryImpl")?;
    b.content("backup", "BackupImpl")?;
    b.require("producer", "console", "IConsole")?;
    b.provide("primary", "console", "IConsole")?;
    b.provide("backup", "console", "IConsole")?;
    b.bind_sync("producer", "console", "primary", "console")?;

    let mut flow = DesignFlow::new(b);
    flow.thread_domain("rt", ThreadKind::Realtime, 25, &["producer"])?;
    flow.memory_area(
        "imm",
        MemoryKind::Immortal,
        Some(128 * 1024),
        &["rt", "primary", "backup"],
    )?;
    // The witness: conformance proven once, carried by the type system.
    let arch = flow.merge()?.into_validated()?;

    let primary_count = HandledCounter::default();
    let backup_count = HandledCounter::default();
    let mut registry: ContentRegistry<Alert> = ContentRegistry::new();
    registry.register("ProducerImpl", || Box::new(Producer::default()));
    let p = primary_count.clone();
    registry.register("PrimaryImpl", move || {
        Box::new(NamedConsole {
            name: "primary",
            handled: p.clone(),
        })
    });
    let bk = backup_count.clone();
    registry.register("BackupImpl", move || {
        Box::new(NamedConsole {
            name: "backup",
            handled: bk.clone(),
        })
    });

    let dep = deploy(&arch, mode, &registry)?;
    Ok((dep, primary_count, backup_count))
}

/// Fans every alert out on both client ports (the parallel fixture's head).
#[derive(Debug, Default)]
struct FanProducer {
    n: u32,
}
impl Content<Alert> for FanProducer {
    fn on_invoke(
        &mut self,
        _port: &str,
        msg: &mut Alert,
        out: &mut dyn Ports<Alert>,
    ) -> InvokeResult {
        self.n += 1;
        msg.code = self.n;
        out.send("out1", *msg)?;
        out.send("out2", *msg)
    }
}

/// A sharded fan-out: the producer runs on its own shard and feeds two
/// consumers over cross-shard rings; a synchronous peer binding couples
/// the consumers' domains into one shard, which is what makes the
/// same-shard `reassign_domain` below legal.
fn build_parallel(
    mode: Mode,
) -> Result<(Deployment<Alert>, HandledCounter, HandledCounter), SoleilError> {
    let mut b = BusinessView::new("adaptive-parallel");
    b.active_periodic("producer", "10ms")?;
    b.active_sporadic("consumerB")?;
    b.active_sporadic("consumerC")?;
    b.content("producer", "FanImpl")?;
    b.content("consumerB", "ConsoleB")?;
    b.content("consumerC", "ConsoleC")?;
    b.require("producer", "out1", "IConsole")?;
    b.require("producer", "out2", "IConsole")?;
    b.require("consumerB", "peer", "IConsole")?;
    b.provide("consumerB", "in", "IConsole")?;
    b.provide("consumerC", "in", "IConsole")?;
    b.bind_async("producer", "out1", "consumerB", "in", 64)?;
    b.bind_async("producer", "out2", "consumerC", "in", 64)?;
    b.bind_sync("consumerB", "peer", "consumerC", "in")?;

    let mut flow = DesignFlow::new(b);
    flow.thread_domain("A", ThreadKind::NoHeapRealtime, 30, &["producer"])?;
    flow.thread_domain("B", ThreadKind::NoHeapRealtime, 25, &["consumerB"])?;
    flow.thread_domain("C", ThreadKind::Realtime, 20, &["consumerC"])?;
    flow.memory_area("ImmA", MemoryKind::Immortal, Some(256 * 1024), &["A"])?;
    flow.memory_area("ImmB", MemoryKind::Immortal, Some(256 * 1024), &["B"])?;
    flow.memory_area("ImmC", MemoryKind::Immortal, Some(256 * 1024), &["C"])?;
    let arch = flow.merge()?.into_validated()?;

    let b_count = HandledCounter::default();
    let c_count = HandledCounter::default();
    let mut registry: ContentRegistry<Alert> = ContentRegistry::new();
    registry.register("FanImpl", || Box::new(FanProducer::default()));
    let bc = b_count.clone();
    registry.register("ConsoleB", move || {
        Box::new(NamedConsole {
            name: "consumerB",
            handled: bc.clone(),
        })
    });
    let cc = c_count.clone();
    registry.register("ConsoleC", move || {
        Box::new(NamedConsole {
            name: "consumerC",
            handled: cc.clone(),
        })
    });

    let sys = soleil::generator::deploy_parallel(&arch, mode, &registry)?;
    Ok((sys, b_count, c_count))
}

fn main() -> Result<(), SoleilError> {
    // --- SOLEIL: full membrane-level adaptation ------------------------
    println!("== SOLEIL mode ==");
    let (mut dep, primary, backup) = build(Mode::Soleil)?;
    let producer = dep.resolve("producer")?;
    let backup_ref = dep.resolve("backup")?;
    for _ in 0..10 {
        dep.run_transaction(producer)?;
    }
    println!(
        "  before reconfiguration: primary={}, backup={}",
        primary.load(std::sync::atomic::Ordering::Relaxed),
        backup.load(std::sync::atomic::Ordering::Relaxed)
    );
    let info = dep.membrane_info(producer)?;
    println!(
        "  producer membrane: interceptors {:?}, bound ports {:?}",
        info.interceptors, info.bound_ports
    );

    println!("  ... transaction: stop producer, rebind console -> backup, restart ...");
    dep.reconfigure(|txn| {
        txn.stop(producer)?;
        txn.rebind(producer, "console", backup_ref)?;
        txn.start(producer)
    })?;
    for _ in 0..10 {
        dep.run_transaction(producer)?;
    }
    println!(
        "  after reconfiguration:  primary={}, backup={}",
        primary.load(std::sync::atomic::Ordering::Relaxed),
        backup.load(std::sync::atomic::Ordering::Relaxed)
    );
    assert_eq!(primary.load(std::sync::atomic::Ordering::Relaxed), 10);
    assert_eq!(backup.load(std::sync::atomic::Ordering::Relaxed), 10);

    // Inject monitoring into the live producer: a jitter-bounded timing
    // contract, attached in a committed transaction, observed, then
    // detached again.
    let jitter_bound = TimingContract::new().with_max_jitter(RelativeTime::from_millis(10));
    dep.reconfigure(|txn| txn.attach_contract(producer, jitter_bound))?;
    for _ in 0..20 {
        dep.run_transaction(producer)?;
    }
    let snap = dep.latency_snapshot(producer)?.expect("contract attached");
    println!(
        "  jitter contract attached at runtime: {} activations, {} jitter violations, mean {:.2} us",
        snap.activations,
        snap.jitter_violations,
        snap.mean_ns as f64 / 1000.0
    );
    assert_eq!(snap.activations, 20);
    assert!(dep.reconfigure(|txn| txn.detach_contract(producer))?);
    assert_eq!(backup.load(std::sync::atomic::Ordering::Relaxed), 30);

    // Fault policies are reconfiguration ops too: journaled, applied
    // all-or-nothing, rolled back with everything else. Put the producer
    // under supervised restart as part of adapting the system.
    dep.reconfigure(|txn| {
        txn.set_fault_policy(
            producer,
            FaultPolicy::Restart {
                max_restarts: 3,
                window: RelativeTime::from_millis(60_000),
                backoff: RelativeTime::from_millis(5),
            },
        )
        .map(|_| ())
    })?;
    println!(
        "  fault policy set transactionally: {:?}",
        dep.fault_policy(producer)?
    );

    // A transaction that fails mid-flight rolls back as a unit: the
    // rebind below targets a port the backup does not provide, so the
    // stop before it is undone too and traffic keeps flowing to backup —
    // and the policy op in the same transaction is rolled back with it.
    let failed = dep.reconfigure(|txn| {
        txn.set_fault_policy(producer, FaultPolicy::Isolate)?;
        txn.stop(producer)?;
        txn.rebind(producer, "no-such-port", backup_ref)
    });
    println!(
        "  failing transaction refused and rolled back: {}",
        failed.unwrap_err()
    );
    dep.run_transaction(producer)?;
    assert_eq!(
        backup.load(std::sync::atomic::Ordering::Relaxed),
        31,
        "producer still running, still on backup"
    );
    assert!(
        matches!(dep.fault_policy(producer)?, FaultPolicy::Restart { .. }),
        "the failed transaction's Isolate was rolled back too"
    );

    // --- MERGE-ALL: functional level only -------------------------------
    println!("\n== MERGE-ALL mode ==");
    let (mut dep, primary, backup) = build(Mode::MergeAll)?;
    let producer = dep.resolve("producer")?;
    let backup_ref = dep.resolve("backup")?;
    for _ in 0..5 {
        dep.run_transaction(producer)?;
    }
    match dep.membrane_info(producer) {
        Err(FrameworkError::Unsupported(msg)) => {
            println!("  membrane introspection refused: {msg}")
        }
        other => panic!("expected Unsupported, got {other:?}"),
    }
    dep.reconfigure(|txn| txn.rebind(producer, "console", backup_ref))?;
    for _ in 0..5 {
        dep.run_transaction(producer)?;
    }
    println!(
        "  functional rebinding still works: primary={}, backup={}",
        primary.load(std::sync::atomic::Ordering::Relaxed),
        backup.load(std::sync::atomic::Ordering::Relaxed)
    );
    assert_eq!(
        (
            primary.load(std::sync::atomic::Ordering::Relaxed),
            backup.load(std::sync::atomic::Ordering::Relaxed)
        ),
        (5, 5)
    );

    // --- ULTRA-MERGE: purely static --------------------------------------
    println!("\n== ULTRA-MERGE mode ==");
    let (mut dep, primary, _backup) = build(Mode::UltraMerge)?;
    let producer = dep.resolve("producer")?;
    let backup_ref = dep.resolve("backup")?;
    for _ in 0..5 {
        dep.run_transaction(producer)?;
    }
    match dep.reconfigure(|txn| txn.rebind(producer, "console", backup_ref)) {
        Err(FrameworkError::Unsupported(msg)) => println!("  reconfigure refused: {msg}"),
        other => panic!("expected Unsupported, got {other:?}"),
    }
    println!(
        "  static system kept running: primary={}",
        primary.load(std::sync::atomic::Ordering::Relaxed)
    );

    // --- PARALLEL: live reconfiguration of a running partition -----------
    // The same transaction discipline, across the shard boundary: the
    // engine drives every shard to a quiescence epoch (rings drained),
    // applies the batch through one undo journal, re-validates at
    // commit, and rolls back byte-identically on refusal.
    println!("\n== PARALLEL deployment (SOLEIL mode) ==");
    let (mut sys, b_count, c_count) = build_parallel(Mode::Soleil)?;
    let load = |c: &HandledCounter| c.load(std::sync::atomic::Ordering::Relaxed);
    println!("  shards: {}", sys.shard_count());
    sys.run_ticks(10)?;
    println!(
        "  before reconfiguration: consumerB={}, consumerC={}",
        load(&b_count),
        load(&c_count)
    );

    // One committed transaction under live traffic: rewire the out1 ring
    // across shards, re-seat consumerB onto domain C (re-homing its
    // allocation region from ImmB into ImmC), and swap a fault policy.
    println!("  ... transaction: rebind_async out1 -> consumerC, re-home consumerB, Isolate ...");
    sys.reconfigure(|txn| {
        txn.rebind_async("producer", "out1", "consumerC")?;
        txn.reassign_domain("consumerB", "C")?;
        txn.set_fault_policy("consumerC", FaultPolicy::Isolate)
    })?;
    sys.run_ticks(10)?;
    println!(
        "  after reconfiguration:  consumerB={}, consumerC={}",
        load(&b_count),
        load(&c_count)
    );
    assert_eq!((load(&b_count), load(&c_count)), (10, 30));
    assert_eq!(sys.stats().dropped_messages, 0, "epochs drain, never drop");

    // A refused transaction rolls every shard back byte-identically —
    // witnessed by the per-shard structural digests.
    let digests = sys.structural_digests();
    let refused = sys.reconfigure(|txn| -> Result<(), FrameworkError> {
        txn.rebind_async("producer", "out2", "consumerB")?;
        txn.reassign_domain("consumerB", "B")?;
        Err(FrameworkError::Content(
            "operator changed their mind".into(),
        ))
    });
    println!(
        "  refused transaction rolled back: {}",
        refused.unwrap_err()
    );
    assert_eq!(sys.structural_digests(), digests, "byte-identical rollback");
    sys.run_ticks(5)?;
    assert_eq!((load(&b_count), load(&c_count)), (10, 40));

    // Components never migrate across the static domain partition.
    match sys.reconfigure(|txn| txn.reassign_domain("consumerB", "A")) {
        Err(e) => println!("  cross-shard migration refused: {e}"),
        Ok(()) => panic!("cross-shard reassign_domain must be refused"),
    }
    Ok(())
}
