//! Reconfiguration without end, on the churn shape
//! ([`soleil_bench::churn_fixture`]).
//!
//! Immortal memory is never reclaimed, so a deployment can reconfigure
//! forever only if its commits stop charging it. A rewire reuses the ring
//! its binding's previous flip retired, and a re-homing charges a
//! component's state once per substrate area it has lived in, so after the
//! first round trip a flip-flop commit consumes nothing on any shard.

use soleil::generator::{deploy, deploy_parallel};
use soleil::prelude::*;

/// Flip-flop commits per test: more than twice the 2 193 rewires that the
/// producer shard's immortal budget of the churn shape holds if each one
/// builds and charges a fresh ring.
const FLIPS: usize = 5_000;

/// Substrate bytes consumed on each shard.
fn consumed(dep: &Deployment<u64>) -> Vec<usize> {
    (0..dep.shard_count())
        .map(|s| dep.shard_system(s).memory().total_consumed())
        .collect()
}

/// Activations of `component` its contract has recorded: deliveries on
/// `in`, since contracts stamp no synchronous call.
fn activations(dep: &Deployment<u64>, component: ComponentRef) -> u64 {
    dep.latency_snapshot(component)
        .expect("fixture component")
        .expect("contract attached")
        .activations
}

/// The churn shape deployed sharded, with a contract counting deliveries
/// on each of `worker`, `sink` and `spare`.
fn sharded_churn() -> (Deployment<u64>, [ComponentRef; 4]) {
    let (arch, registry) = soleil_bench::churn_fixture().expect("fixture validates");
    let mut dep = deploy_parallel(&arch, Mode::MergeAll, &registry).expect("deploys");
    assert_eq!(dep.shard_count(), 2, "producer runs alone");
    let rig = ["producer", "worker", "sink", "spare"].map(|n| dep.resolve(n).expect("component"));
    for &c in &rig[1..] {
        dep.attach_contract(c, soleil_bench::baseline_contract())
            .expect("contract attaches");
    }
    (dep, rig)
}

/// Flip-flop `rebind_async` commits of `producer.out2` between `sink` and
/// `spare` all commit, with a refused rewire between commits, and after
/// the first round trip no shard's consumption moves. Every hundredth
/// commit a tick checks that `out2` reaches its current target — through
/// whichever pooled ring the rewire took — and nothing else.
#[test]
fn flip_flop_rewiring_commits_forever() {
    let (mut dep, [producer, worker, sink, spare]) = sharded_churn();
    let mut round_trip = None;
    for i in 0..FLIPS {
        let (target, other) = if i % 2 == 0 {
            (spare, sink)
        } else {
            (sink, spare)
        };
        dep.reconfigure(|txn| txn.rebind_async(producer, "out2", target))
            .unwrap_or_else(|e| panic!("rewiring commit {} refused: {e}", i + 1));
        if i == 1 {
            round_trip = Some(consumed(&dep));
        }
        if i % 10 == 0 {
            let digests = dep.structural_digests();
            dep.reconfigure(|txn| {
                txn.rebind_async(producer, "out2", other)?;
                Err::<(), _>(FrameworkError::Unsupported("refused on purpose".into()))
            })
            .expect_err("the failing closure refuses the rewire");
            assert_eq!(
                dep.structural_digests(),
                digests,
                "commit {}: the refusal restored every shard",
                i + 1
            );
        }
        if i % 100 == 0 {
            let before = [worker, target, other].map(|c| activations(&dep, c));
            dep.run_tick().expect("tick");
            let after = [worker, target, other].map(|c| activations(&dep, c));
            assert_eq!(
                [
                    after[0] - before[0],
                    after[1] - before[1],
                    after[2] - before[2]
                ],
                [1, 1, 0],
                "commit {}: out1 reaches worker and out2 only its target",
                i + 1
            );
        }
    }
    assert_eq!(
        Some(consumed(&dep)),
        round_trip,
        "{FLIPS} rewiring commits charged nothing after the first round trip"
    );
    assert_eq!(dep.stats().dropped_messages, 0);
}

/// Flip-flop re-homings of `spare` between domains `B` (area `ImmB`) and
/// `C` (`ImmC`) all commit, on one shard and sharded, and no shard's
/// consumption moves: both areas are the one immortal budget `spare`'s
/// state was charged to at build.
#[test]
fn flip_flop_rehoming_commits_forever() {
    let (arch, registry) = soleil_bench::churn_fixture().expect("fixture validates");
    for sharded in [false, true] {
        let mut dep = if sharded {
            deploy_parallel(&arch, Mode::MergeAll, &registry)
        } else {
            deploy(&arch, Mode::MergeAll, &registry)
        }
        .expect("deploys");
        let spare = dep.resolve("spare").expect("spare");
        let built = consumed(&dep);
        let mut round_trip = None;
        for i in 0..FLIPS {
            let domain = if i % 2 == 0 { "B" } else { "C" };
            dep.reconfigure(|txn| txn.reassign_domain(spare, domain))
                .unwrap_or_else(|e| panic!("sharded={sharded}: re-homing {} refused: {e}", i + 1));
            if i == 1 {
                round_trip = Some(consumed(&dep));
            }
        }
        assert_eq!(
            Some(consumed(&dep)),
            round_trip,
            "sharded={sharded}: {FLIPS} re-homings charged nothing after the first round trip"
        );
        assert_eq!(consumed(&dep), built, "sharded={sharded}: nor before it");
        dep.run_tick().expect("the re-homed deployment ticks");
    }
}

/// A refused transaction that retires a ring and then takes it back from
/// the pool for another binding returns it to the pool with the seat it
/// retired from: after the rollback, `out1` reaches `worker` again, not
/// the `spare` the refused transaction had seated the ring on.
#[test]
fn a_refused_rewire_returns_a_taken_ring_to_its_seat() {
    let (mut dep, [producer, worker, sink, spare]) = sharded_churn();
    let digests = dep.structural_digests();
    dep.reconfigure(|txn| {
        // A fresh ring for out1; its old ring retires into the pool...
        txn.rebind_async(producer, "out1", spare)?;
        // ...and carries out2 to spare, while out2's ring retires.
        txn.rebind_async(producer, "out2", spare)?;
        Err::<(), _>(FrameworkError::Unsupported("refused on purpose".into()))
    })
    .expect_err("the failing closure refuses the transaction");
    assert_eq!(dep.structural_digests(), digests);

    let before = [worker, sink, spare].map(|c| activations(&dep, c));
    dep.run_tick().expect("tick");
    let after = [worker, sink, spare].map(|c| activations(&dep, c));
    assert_eq!(
        [
            after[0] - before[0],
            after[1] - before[1],
            after[2] - before[2]
        ],
        [1, 1, 0],
        "out1 reaches worker and out2 sink, as before the transaction"
    );

    // The rollback emptied the pool again; a later rewire builds a ring
    // and delivers through it.
    dep.reconfigure(|txn| txn.rebind_async(producer, "out2", spare))
        .expect("the rewire commits");
    let before = activations(&dep, spare);
    dep.run_tick().expect("tick");
    assert_eq!(activations(&dep, spare) - before, 1);
}

/// The churn shape declares three immortal areas, which the substrate
/// folds into one immortal budget: its footprint lists that budget once,
/// under all three names, so the application bytes are the substrate's.
#[test]
fn the_footprint_counts_a_shared_immortal_budget_once() {
    let (arch, registry) = soleil_bench::churn_fixture().expect("fixture validates");
    let dep = deploy(&arch, Mode::MergeAll, &registry).expect("deploys");
    let report = dep.footprint();
    let names: Vec<&str> = report.areas.iter().map(|a| a.name.as_str()).collect();
    assert_eq!(names, ["ImmA+ImmB+ImmC"]);
    assert_eq!(report.application_bytes(), dep.memory().total_consumed());

    let (dep, _) = sharded_churn();
    for s in 0..dep.shard_count() {
        let system = dep.shard_system(s);
        assert_eq!(
            system.footprint().application_bytes(),
            system.memory().total_consumed(),
            "shard {s}"
        );
    }
}
