//! The zero-allocation steady-state gate.
//!
//! The paper's evaluation rests on the claim that generated systems
//! provision all memory at initialization and never allocate in steady
//! state — that is what makes them GC-immune and their latency
//! deterministic. This test makes the claim falsifiable at the Rust-heap
//! level: a counting global allocator observes complete end-to-end
//! transactions of the motivation scenario and requires **zero**
//! allocations per steady-state transaction in every generation mode, and
//! the substrate's own allocation counter must stay pinned at its
//! bootstrap value. Commit-time validation, which every live
//! reconfiguration pays, has an allocation bound of its own when cold, and
//! so does the full validation report; a warm commit, a committed and a
//! refused synchronous rebind, every warm batch of the churn shape — on
//! one shard and sharded — and a warm re-homing between scoped areas make
//! none, but for the monitor a batch that attaches a contract installs.
//!
//! Run in release (CI's `bench-smoke` job does):
//! `cargo test -p soleil-bench --release --test zero_alloc`

#[path = "../src/alloc_probe.rs"]
mod alloc_probe;

use soleil::generator::{deploy, deploy_parallel};
use soleil::prelude::*;
use soleil::scenario::{motivation_validated, registry_with_probe, OoSystem, ScenarioProbe};

const WARMUP: usize = 500;
const OBSERVATIONS: u64 = 2_000;
/// Checkpoint cadence for the gates: captures land every 500 activations.
const CADENCE: u32 = 500;

/// The baseline deadline contract with jitter checking armed: every
/// release gap is compared with the previous one on the measured path.
fn jitter_bounded_contract() -> TimingContract {
    soleil_bench::baseline_contract().with_max_jitter(RelativeTime::from_millis(500))
}

#[test]
fn steady_state_transactions_never_touch_the_rust_heap() {
    let arch = motivation_validated().expect("fixture validates");
    for mode in [Mode::Soleil, Mode::MergeAll, Mode::UltraMerge] {
        let probe = ScenarioProbe::new();
        let mut dep = deploy(&arch, mode, &registry_with_probe(&probe)).expect("deploys");
        let head = dep.resolve("ProductionLine").expect("head exists");

        // The claim must hold for the *monitored* hot path too: a deadline
        // and jitter contract records every transaction into its
        // preallocated histogram and checks every release gap, and an
        // armed-but-never-due release keeps the timer queue live
        // throughout the measured run.
        dep.attach_contract(head, jitter_bounded_contract())
            .expect("contract attaches in every mode");
        dep.schedule_release(head, AbsoluteTime::MAX)
            .expect("release arms");

        // Supervision must be free on the healthy path: the head carries a
        // restart policy and an idle (rate-0) fault injector compiled into
        // its activation plan, and a downstream component is isolated —
        // none of which may cost an allocation per transaction.
        dep.set_fault_policy(
            head,
            FaultPolicy::Restart {
                max_restarts: 3,
                window: RelativeTime::from_millis(1_000),
                backoff: RelativeTime::from_millis(1),
            },
        )
        .expect("policy attaches");
        dep.install_fault_injector(head, FaultInjector::new("ProductionLine", 0xC0FFEE, 0))
            .expect("idle injector installs");
        let monitoring = dep.resolve("MonitoringSystem").expect("monitor exists");
        dep.set_fault_policy(monitoring, FaultPolicy::Isolate)
            .expect("policy attaches");

        // The full robustness apparatus rides along: a supervision tree
        // above the head and the warm-state Checkpoint capability on it,
        // capturing into its preallocated image every CADENCE activations.
        // Neither may cost the healthy path an allocation.
        let audit = dep.resolve("AuditLog").expect("audit exists");
        dep.set_supervisor(head, Some(monitoring))
            .expect("edge attaches in every mode");
        dep.set_supervisor(monitoring, Some(audit))
            .expect("edge attaches in every mode");
        dep.enable_checkpoint(head, CADENCE)
            .expect("capability enables in every mode");

        // Warm every lazily-grown engine structure: the pending-message
        // heap, domain scope stacks, ring slots.
        for _ in 0..WARMUP {
            dep.run_transaction(head).expect("warmup transaction");
        }

        let substrate_before = dep.memory().alloc_count();
        let heap_before = alloc_probe::allocations();
        let compares_before = dep.string_compares();
        for _ in 0..OBSERVATIONS {
            dep.run_transaction(head).expect("steady transaction");
        }
        let heap_allocs = alloc_probe::allocations() - heap_before;

        assert_eq!(
            heap_allocs, 0,
            "{mode}: {OBSERVATIONS} steady-state transactions performed \
             {heap_allocs} Rust-heap allocations; the steady state must not allocate"
        );
        assert_eq!(
            dep.memory().alloc_count(),
            substrate_before,
            "{mode}: substrate allocations must stay pinned at their bootstrap value"
        );
        // The compiled dispatch plan: once warm-up has interned the port
        // ids, steady-state transactions scan no strings.
        assert_eq!(
            dep.string_compares() - compares_before,
            0,
            "{mode}: steady-state dispatch must not compare port names"
        );
        // The release engine stayed live the whole run without disturbing
        // the counters above — and the generous contract never missed.
        assert_eq!(dep.armed_timers(), 1, "{mode}: release must stay armed");
        assert_eq!(
            dep.deadline_misses(),
            0,
            "{mode}: the baseline contract must never miss"
        );
        let snapshot = dep
            .latency_snapshot(head)
            .expect("head resolves")
            .expect("contract attached");
        assert_eq!(
            snapshot.jitter_violations, 0,
            "{mode}: the generous jitter bound must never trip"
        );
        assert_eq!(
            snapshot.activations,
            WARMUP as u64 + OBSERVATIONS,
            "{mode}: every transaction lands in the histogram"
        );
        // The idle injector saw every activation and fired on none; the
        // supervisor never moved.
        let (seen, injected) = dep
            .injector_counts(head)
            .expect("head resolves")
            .expect("injector installed");
        assert_eq!(seen, WARMUP as u64 + OBSERVATIONS, "{mode}: injector armed");
        assert_eq!(injected, 0, "{mode}: idle injector must never fire");
        assert!(!dep.quarantined(head).expect("head resolves"));
        assert_eq!(
            dep.supervision_counts(head).expect("head resolves"),
            (0, 0, 0),
            "{mode}: supervision counters must stay untouched on the healthy path"
        );
        // Captures happened exactly on the cadence (plus the one probing
        // capture at enable time), and nothing was ever restored.
        let total = WARMUP as u64 + OBSERVATIONS;
        assert_eq!(
            dep.checkpoint_counts(head)
                .expect("head resolves")
                .expect("capability enabled"),
            (1 + total / CADENCE as u64, 0),
            "{mode}: the checkpoint must capture only on its cadence"
        );
    }
}

/// The parallel mode obeys the same discipline on *every* shard: the
/// motivation scenario sharded by thread domain performs zero Rust-heap
/// and zero substrate allocations per steady-state tick, charged shard by
/// shard, while every consumer shard drains its one message per tick and
/// nothing is dropped.
#[test]
fn parallel_steady_state_is_allocation_free_on_every_thread() {
    let arch = motivation_validated().expect("fixture validates");
    let probe = ScenarioProbe::new();
    let mut sys =
        deploy_parallel(&arch, Mode::MergeAll, &registry_with_probe(&probe)).expect("deploys");
    assert!(
        sys.shard_count() >= 2,
        "motivation scenario must shard: got {}",
        sys.shard_count()
    );

    // Same monitored-hot-path discipline as the serial gate: contract on
    // the head's shard, release armed but never due.
    sys.attach_contract("ProductionLine", jitter_bounded_contract())
        .expect("contract attaches");
    sys.schedule_release("ProductionLine", AbsoluteTime::MAX)
        .expect("release arms");

    // Parallel shards pay the same nothing for supervision: restart policy
    // plus idle injector on the head's shard, isolation on a sibling shard.
    sys.set_fault_policy(
        "ProductionLine",
        FaultPolicy::Restart {
            max_restarts: 3,
            window: RelativeTime::from_millis(1_000),
            backoff: RelativeTime::from_millis(1),
        },
    )
    .expect("policy attaches");
    sys.install_fault_injector(
        "ProductionLine",
        FaultInjector::new("ProductionLine", 0xC0FFEE, 0),
    )
    .expect("idle injector installs");
    sys.set_fault_policy("MonitoringSystem", FaultPolicy::Isolate)
        .expect("policy attaches");

    // Supervision trees are shard-local by design — escalation never
    // leaves its shard's engine — and every active component of the
    // motivation scenario owns its domain, so the cross-shard edge is
    // refused (the recorded limit) while the warm-state Checkpoint
    // capability, being per-component, arms fine on the head's shard.
    let err = sys
        .set_supervisor("ProductionLine", Some("MonitoringSystem"))
        .expect_err("cross-shard supervisor edges are refused");
    assert!(
        err.to_string().contains("shard"),
        "refusal must name the shard boundary: {err}"
    );
    sys.enable_checkpoint("ProductionLine", CADENCE)
        .expect("capability enables on the shard");

    // Warm up separately so the dispatch-counter deltas below cover only
    // the measured steady phase (interning pays its name scans here).
    sys.run_ticks(WARMUP as u64).expect("parallel warmup");
    let compares_before = sys.string_compares();
    let dropped_before = sys.stats().dropped_messages;
    let runs = sys
        .run_ticks_instrumented(0, OBSERVATIONS, &alloc_probe::allocations)
        .expect("parallel run");

    // The measured run did the whole scenario's work: nothing dropped, and
    // each consumer shard drained its one message of every tick.
    assert_eq!(
        sys.stats().dropped_messages - dropped_before,
        0,
        "the measured run dropped messages"
    );
    let head = sys.shard_of_component("ProductionLine").expect("placed");
    for (s, r) in runs.iter().enumerate().filter(|&(s, _)| s != head) {
        assert_eq!(
            r.drained_messages, OBSERVATIONS,
            "consumer shard {s} ('{}') drains one message per tick",
            r.label
        );
    }

    for r in &runs {
        assert_eq!(
            r.probe_delta, 0,
            "shard '{}': {OBSERVATIONS} steady-state ticks performed {} Rust-heap \
             allocations on its thread; the steady state must not allocate",
            r.label, r.probe_delta
        );
        assert_eq!(
            r.substrate_allocs, 0,
            "shard '{}': substrate allocations must stay pinned at their bootstrap value",
            r.label
        );
    }
    assert_eq!(
        sys.string_compares() - compares_before,
        0,
        "parallel steady-state dispatch must not compare port names on any shard"
    );
    assert_eq!(sys.armed_timers(), 1, "release must stay armed");
    assert_eq!(
        sys.deadline_misses(),
        0,
        "the baseline contract must never miss on any shard"
    );
    assert_eq!(
        sys.latency_snapshot("ProductionLine")
            .expect("head resolves")
            .expect("contract attached")
            .jitter_violations,
        0,
        "the generous jitter bound must never trip on any shard"
    );
    let (seen, injected) = sys
        .injector_counts("ProductionLine")
        .expect("head resolves")
        .expect("injector installed");
    assert_eq!(seen, WARMUP as u64 + OBSERVATIONS, "injector armed");
    assert_eq!(injected, 0, "idle injector must never fire");
    assert_eq!(
        sys.supervision_counts("ProductionLine").expect("resolves"),
        (0, 0, 0),
        "supervision counters must stay untouched on the healthy parallel path"
    );
    assert_eq!(
        sys.checkpoint_counts("ProductionLine")
            .expect("resolves")
            .expect("capability enabled"),
        (1 + (WARMUP as u64 + OBSERVATIONS) / CADENCE as u64, 0),
        "the parallel checkpoint must capture only on its cadence"
    );
}

/// A sharded deployment driven on the caller's thread obeys the same
/// discipline: `run_tick` ticks every shard of the motivation scenario in
/// shard order and drains the cross-shard rings to quiescence with zero
/// Rust-heap and zero substrate allocations per steady-state tick, in
/// every mode.
#[test]
fn sharded_run_tick_steady_state_is_allocation_free() {
    let arch = motivation_validated().expect("fixture validates");
    for mode in [Mode::Soleil, Mode::MergeAll, Mode::UltraMerge] {
        let probe = ScenarioProbe::new();
        let mut dep = deploy_parallel(&arch, mode, &registry_with_probe(&probe)).expect("deploys");
        assert_eq!(
            dep.shard_count(),
            3,
            "{mode}: the motivation scenario shards"
        );
        dep.attach_contract("ProductionLine", jitter_bounded_contract())
            .expect("contract attaches");
        dep.schedule_release("ProductionLine", AbsoluteTime::MAX)
            .expect("release arms");

        for _ in 0..WARMUP {
            dep.run_tick().expect("warmup tick");
        }
        let substrate = |dep: &Deployment<_>| {
            (0..dep.shard_count())
                .map(|s| dep.shard_system(s).memory().alloc_count())
                .sum::<u64>()
        };
        let substrate_before = substrate(&dep);
        let heap_before = alloc_probe::allocations();
        let compares_before = dep.string_compares();
        for _ in 0..OBSERVATIONS {
            dep.run_tick().expect("steady tick");
        }
        let heap_allocs = alloc_probe::allocations() - heap_before;

        assert_eq!(
            heap_allocs, 0,
            "{mode}: {OBSERVATIONS} sharded run_tick calls performed {heap_allocs} \
             Rust-heap allocations on the caller's thread"
        );
        assert_eq!(
            substrate(&dep),
            substrate_before,
            "{mode}: substrate allocations must stay pinned on every shard"
        );
        assert_eq!(
            dep.string_compares() - compares_before,
            0,
            "{mode}: steady-state dispatch must not compare port names"
        );
        assert_eq!(
            probe.audits(),
            WARMUP as u64 + OBSERVATIONS,
            "{mode}: every tick's measurement reached the audit log"
        );
        assert_eq!(dep.stats().dropped_messages, 0, "{mode}");
        assert_eq!(dep.deadline_misses(), 0, "{mode}");
    }
}

/// The zero-work relay pipeline ([`soleil_bench::build_relay_pipeline`])
/// at 1, 4 and 16 stages: no heap allocation and no string compare per
/// steady-state transaction, in every mode.
#[test]
fn relay_pipeline_steady_state_is_allocation_free_at_every_depth() {
    for stages in [1usize, 4, 16] {
        for mode in [Mode::Soleil, Mode::MergeAll, Mode::UltraMerge] {
            let mut dep = soleil_bench::build_relay_pipeline(stages, mode).expect("builds");
            let head = dep.resolve("stage0").expect("head exists");
            for _ in 0..WARMUP {
                dep.run_transaction(head).expect("warmup transaction");
            }
            let heap_before = alloc_probe::allocations();
            let compares_before = dep.string_compares();
            for _ in 0..OBSERVATIONS {
                dep.run_transaction(head).expect("steady transaction");
            }
            let heap_allocs = alloc_probe::allocations() - heap_before;
            assert_eq!(
                heap_allocs, 0,
                "{mode}, {stages} stages: {OBSERVATIONS} steady-state transactions performed \
                 {heap_allocs} Rust-heap allocations"
            );
            assert_eq!(
                dep.string_compares() - compares_before,
                0,
                "{mode}, {stages} stages: steady-state dispatch must not compare port names"
            );
            assert_eq!(dep.stats().dropped_messages, 0, "{mode}, {stages} stages");
        }
    }
}

#[test]
fn oo_baseline_is_equally_allocation_free() {
    // The comparison in Fig. 7 is only fair if the hand-written baseline
    // obeys the same discipline.
    let probe = ScenarioProbe::new();
    let mut oo = OoSystem::new(&probe).expect("baseline builds");
    for _ in 0..WARMUP {
        oo.run_transaction().expect("warmup transaction");
    }
    let substrate_before = oo.alloc_count();
    let before = alloc_probe::allocations();
    for _ in 0..OBSERVATIONS {
        oo.run_transaction().expect("steady transaction");
    }
    assert_eq!(alloc_probe::allocations() - before, 0);
    assert_eq!(
        oo.alloc_count(),
        substrate_before,
        "OO: substrate allocations must stay pinned at their bootstrap value"
    );
}

/// Heap allocations one `validate` of the motivation architecture may
/// make: the facts table its rule pass reads, and the text of the findings
/// it reports.
const VALIDATE_ALLOCS: u64 = 9;

/// Heap allocations the first compliant empty transaction on the
/// motivation architecture may make — nothing journaled, nothing charged:
/// the storage of the commit's RTSJ verdict's facts table, which renders
/// no finding. The deployment keeps that storage, so a warm empty commit
/// makes none.
const EMPTY_COMMIT_ALLOCS: u64 = 3;

/// Commit-time validation is bounded too. Live reconfiguration re-checks
/// RTSJ conformance on every commit through the verdict alone, so a cold
/// empty commit stays within [`EMPTY_COMMIT_ALLOCS`] however many findings
/// the full report of `validate` (bounded by [`VALIDATE_ALLOCS`]) renders,
/// and a warm one allocates nothing.
#[test]
fn commit_time_validation_allocates_within_its_bound() {
    let arch = motivation_validated().expect("fixture validates");
    let before = alloc_probe::allocations();
    let report = validate(&arch);
    let validate_allocs = alloc_probe::allocations() - before;
    assert!(report.is_compliant(), "{report}");
    assert!(
        validate_allocs <= VALIDATE_ALLOCS,
        "validate of the motivation architecture made {validate_allocs} heap allocations \
         (bound {VALIDATE_ALLOCS})"
    );

    let probe = ScenarioProbe::new();
    let mut dep = deploy(&arch, Mode::MergeAll, &registry_with_probe(&probe)).expect("deploys");
    let before = alloc_probe::allocations();
    dep.reconfigure(|_| Ok(()))
        .expect("an empty transaction commits");
    let commit_allocs = alloc_probe::allocations() - before;
    assert!(
        commit_allocs <= EMPTY_COMMIT_ALLOCS,
        "an empty MERGE-ALL commit made {commit_allocs} heap allocations \
         (bound {EMPTY_COMMIT_ALLOCS})"
    );

    let before = alloc_probe::allocations();
    dep.reconfigure(|_| Ok(()))
        .expect("a warm empty transaction commits");
    let warm_allocs = alloc_probe::allocations() - before;
    assert_eq!(
        warm_allocs, 0,
        "a warm empty MERGE-ALL commit made {warm_allocs} heap allocations; it reuses the \
         facts table storage of the first"
    );
}

/// The caller → svc-a | svc-b shape of the crate-level reconfiguration
/// example: one periodic caller with a synchronous port two passive
/// services provide.
fn rebind_fixture() -> (ValidatedArchitecture, ContentRegistry<u64>) {
    #[derive(Debug, Default)]
    struct Noop;
    impl Content<u64> for Noop {
        fn on_invoke(&mut self, _p: &str, _m: &mut u64, _o: &mut dyn Ports<u64>) -> InvokeResult {
            Ok(())
        }
    }
    let build = || -> SoleilResult<ValidatedArchitecture> {
        let mut b = BusinessView::new("rebind");
        b.active_periodic("caller", "5ms")?;
        b.passive("svc-a")?;
        b.passive("svc-b")?;
        b.content("caller", "C")?;
        b.content("svc-a", "S")?;
        b.content("svc-b", "S")?;
        b.require("caller", "svc", "I")?;
        b.provide("svc-a", "svc", "I")?;
        b.provide("svc-b", "svc", "I")?;
        b.bind_sync("caller", "svc", "svc-a", "svc")?;
        let mut flow = DesignFlow::new(b);
        flow.thread_domain("rt", ThreadKind::Realtime, 22, &["caller"])?;
        flow.memory_area(
            "imm",
            MemoryKind::Immortal,
            Some(64 * 1024),
            &["rt", "svc-a", "svc-b"],
        )?;
        Ok(flow.merge()?.into_validated()?)
    };
    let mut registry: ContentRegistry<u64> = ContentRegistry::new();
    registry.register("C", || Box::new(Noop));
    registry.register("S", || Box::new(Noop));
    (build().expect("fixture validates"), registry)
}

/// Heap allocations of one warm committed and one warm refused
/// synchronous `rebind` transaction, `(mode, committed, refused)`. In
/// SOLEIL and MERGE-ALL alike, the engine half of a rebind writes one
/// binding row in place and the architectural model swaps the binding's
/// server in place; both journal `Copy` pre-images into the journal the
/// deployment keeps, and the commit's RTSJ verdict builds its facts table
/// in storage the deployment keeps too, so neither allocates.
const REBIND_ALLOCS: [(Mode, u64, u64); 2] = [(Mode::Soleil, 0, 0), (Mode::MergeAll, 0, 0)];

/// The write path is pinned too: after two warm-up rebinds, one
/// committed rebind and one refused one (the closure fails after the
/// rebind, so rollback writes the pre-image back) each make exactly their
/// pinned number of allocations.
#[test]
fn rebind_transactions_allocate_within_their_bounds() {
    let (arch, registry) = rebind_fixture();
    for (mode, committed_pin, refused_pin) in REBIND_ALLOCS {
        let mut dep = deploy(&arch, mode, &registry).expect("deploys");
        let caller = dep.resolve("caller").expect("caller exists");
        let a = dep.resolve("svc-a").expect("svc-a exists");
        let b = dep.resolve("svc-b").expect("svc-b exists");
        for target in [b, a] {
            dep.reconfigure(|txn| txn.rebind(caller, "svc", target))
                .expect("warm-up rebind commits");
        }

        let before = alloc_probe::allocations();
        dep.reconfigure(|txn| txn.rebind(caller, "svc", b))
            .expect("rebind commits");
        let committed = alloc_probe::allocations() - before;

        let digests = dep.structural_digests();
        let before = alloc_probe::allocations();
        dep.reconfigure(|txn| {
            txn.rebind(caller, "svc", a)?;
            Err::<(), _>(FrameworkError::Unsupported(String::new()))
        })
        .expect_err("the failing closure refuses the transaction");
        let refused = alloc_probe::allocations() - before;
        assert_eq!(
            dep.structural_digests(),
            digests,
            "{mode}: refusal restored the row"
        );

        assert_eq!(
            committed, committed_pin,
            "{mode}: a committed rebind made {committed} heap allocations \
             (pinned at {committed_pin})"
        );
        assert_eq!(
            refused, refused_pin,
            "{mode}: a refused rebind made {refused} heap allocations (pinned at {refused_pin})"
        );
    }
}

/// The components of [`soleil_bench::churn_fixture`] a churn batch moves.
#[derive(Clone, Copy)]
struct ChurnRig {
    producer: ComponentRef,
    worker: ComponentRef,
    sink: ComponentRef,
    spare: ComponentRef,
}

impl ChurnRig {
    fn resolve(dep: &Deployment<u64>) -> ChurnRig {
        let at = |name| dep.resolve(name).expect("fixture component");
        ChurnRig {
            producer: at("producer"),
            worker: at("worker"),
            sink: at("sink"),
            spare: at("spare"),
        }
    }
}

/// One batch of perfbench's churn workload, towards the `flip` state:
/// stop and start `sink`, rebind `worker.peer` (to `spare` when `flip`),
/// swap `sink`'s fault policy, attach `sink`'s contract (when `flip`) or
/// detach it, move `spare` into domain `B` (when `flip`) or `C` — which
/// re-homes it between `ImmB` and `ImmC` — and, sharded, move
/// `producer.out2` onto a ring to `spare` (when `flip`) or `sink`.
fn churn_batch(
    txn: &mut Reconfiguration<'_, u64>,
    rig: ChurnRig,
    flip: bool,
    sharded: bool,
) -> Result<(), FrameworkError> {
    let (target, policy, domain) = if flip {
        (rig.spare, FaultPolicy::Isolate, "B")
    } else {
        (rig.sink, FaultPolicy::Escalate, "C")
    };
    txn.stop(rig.sink)?;
    txn.start(rig.sink)?;
    txn.rebind(rig.worker, "peer", target)?;
    txn.set_fault_policy(rig.sink, policy)?;
    if flip {
        txn.attach_contract(rig.sink, soleil_bench::baseline_contract())?;
    } else {
        txn.detach_contract(rig.sink)?;
    }
    txn.reassign_domain(rig.spare, domain)?;
    if sharded {
        txn.rebind_async(rig.producer, "out2", target)?;
    }
    Ok(())
}

/// Reconfiguration runs without the allocator: once warm, a churn batch
/// — committed, or refused at its end — makes no heap allocation and no
/// substrate charge, in SOLEIL and MERGE-ALL, on one shard and sharded,
/// except that a batch attaching `sink`'s contract allocates the one
/// monitor it installs. The re-homing moves `spare` between two areas of
/// the one immortal budget it has lived in since build, and a sharded
/// rewire reuses the ring its previous flip retired.
#[test]
fn warm_churn_batches_allocate_only_the_monitor_they_attach() {
    let (arch, registry) = soleil_bench::churn_fixture().expect("fixture validates");
    for sharded in [false, true] {
        for mode in [Mode::Soleil, Mode::MergeAll] {
            let mut dep = if sharded {
                deploy_parallel(&arch, mode, &registry)
            } else {
                deploy(&arch, mode, &registry)
            }
            .expect("deploys");
            assert_eq!(dep.shard_count(), if sharded { 2 } else { 1 });
            let rig = ChurnRig::resolve(&dep);
            let refusal = || FrameworkError::Unsupported(String::new());
            let consumed = |dep: &Deployment<u64>| -> Vec<usize> {
                (0..dep.shard_count())
                    .map(|s| dep.shard_system(s).memory().total_consumed())
                    .collect()
            };

            // Warm-up: every batch shape, committed and refused, twice.
            for round in 0..4 {
                let flip = round % 2 == 0;
                dep.reconfigure(|txn| {
                    churn_batch(txn, rig, !flip, sharded)?;
                    Err::<(), _>(refusal())
                })
                .expect_err("the warm-up refusal refuses");
                dep.reconfigure(|txn| churn_batch(txn, rig, flip, sharded))
                    .expect("warm-up batch commits");
                dep.run_tick().expect("warm-up tick");
            }

            let label = format!("{mode}, sharded={sharded}");
            let charged = consumed(&dep);
            for flip in [true, false] {
                let digests = dep.structural_digests();
                let before = alloc_probe::allocations();
                dep.reconfigure(|txn| {
                    churn_batch(txn, rig, flip, sharded)?;
                    Err::<(), _>(refusal())
                })
                .expect_err("the failing closure refuses the batch");
                let refused = alloc_probe::allocations() - before;
                assert_eq!(
                    dep.structural_digests(),
                    digests,
                    "{label}: refusal restored"
                );

                let before = alloc_probe::allocations();
                dep.reconfigure(|txn| churn_batch(txn, rig, flip, sharded))
                    .expect("batch commits");
                let committed = alloc_probe::allocations() - before;

                let monitor = u64::from(flip);
                assert_eq!(
                    (committed, refused),
                    (monitor, monitor),
                    "{label}, flip={flip}: (committed, refused) batch heap allocations"
                );
                dep.run_tick().expect("tick after the batch");
            }
            assert_eq!(
                consumed(&dep),
                charged,
                "{label}: warm batches charged nothing"
            );
            assert_eq!(dep.stats().dropped_messages, 0, "{label}");
        }
    }
}

/// Two sibling scopes, `s1` and `s3`, under one immortal area: the
/// periodic `a` (domain `d1`, in `s1`) sends to `b` (`d2`, in `s2`), and
/// domain `d3` lives in `s3`. Moving `a` between `d1` and `d3` re-homes it
/// between the two scopes and recompiles its row each way.
fn scoped_rehome_fixture() -> (ValidatedArchitecture, ContentRegistry<u64>) {
    #[derive(Debug, Default)]
    struct Noop;
    impl Content<u64> for Noop {
        fn on_invoke(&mut self, _p: &str, _m: &mut u64, _o: &mut dyn Ports<u64>) -> InvokeResult {
            Ok(())
        }
    }
    let build = || -> SoleilResult<ValidatedArchitecture> {
        let mut b = BusinessView::new("scoped-rehome");
        b.active_periodic("a", "5ms")?;
        b.active_sporadic("b")?;
        b.content("a", "N")?;
        b.content("b", "N")?;
        b.require("a", "out", "I")?;
        b.provide("b", "in", "I")?;
        b.bind_async("a", "out", "b", "in", 4)?;
        let mut flow = DesignFlow::new(b);
        for (domain, priority, members) in
            [("d1", 22, &["a"][..]), ("d2", 21, &["b"]), ("d3", 22, &[])]
        {
            flow.thread_domain(domain, ThreadKind::Realtime, priority, members)?;
        }
        for (scope, domain) in [("s1", "d1"), ("s2", "d2"), ("s3", "d3")] {
            flow.memory_area(scope, MemoryKind::Scoped, Some(16 * 1024), &[domain])?;
        }
        flow.memory_area(
            "imm",
            MemoryKind::Immortal,
            Some(64 * 1024),
            &["s1", "s2", "s3"],
        )?;
        Ok(flow.merge()?.into_validated()?)
    };
    let mut registry: ContentRegistry<u64> = ContentRegistry::new();
    registry.register("N", || Box::new(Noop));
    (build().expect("fixture validates"), registry)
}

/// A warm re-homing between scoped areas allocates nothing either: the
/// new scope chain is interned into the engine's arena in place, and the
/// state is charged to each scope once, on the first move into it. After
/// two warm-up round trips, a committed move each way and a refused one
/// make no heap allocation and consume no substrate bytes.
#[test]
fn warm_scoped_rehoming_allocates_nothing() {
    let (arch, registry) = scoped_rehome_fixture();
    for mode in [Mode::Soleil, Mode::MergeAll] {
        let mut dep = deploy(&arch, mode, &registry).expect("deploys");
        let a = dep.resolve("a").expect("a exists");
        for _ in 0..2 {
            for domain in ["d3", "d1"] {
                dep.reconfigure(|txn| txn.reassign_domain(a, domain))
                    .expect("warm-up move commits");
            }
        }
        let consumed = dep.memory().total_consumed();
        let digests = dep.structural_digests();
        let before = alloc_probe::allocations();
        dep.reconfigure(|txn| {
            txn.reassign_domain(a, "d3")?;
            Err::<(), _>(FrameworkError::Unsupported(String::new()))
        })
        .expect_err("the failing closure refuses the move");
        let refused = alloc_probe::allocations() - before;
        assert_eq!(
            dep.structural_digests(),
            digests,
            "{mode}: refusal restored"
        );
        let mut committed = [0; 2];
        for (allocs, domain) in committed.iter_mut().zip(["d3", "d1"]) {
            let before = alloc_probe::allocations();
            dep.reconfigure(|txn| txn.reassign_domain(a, domain))
                .expect("move commits");
            *allocs = alloc_probe::allocations() - before;
        }
        assert_eq!(
            (committed, refused),
            ([0, 0], 0),
            "{mode}: (committed there and back, refused) re-homing heap allocations"
        );
        assert_eq!(
            dep.memory().total_consumed(),
            consumed,
            "{mode}: warm re-homings charged nothing"
        );
        dep.run_transaction(a).expect("the re-homed caller runs");
    }
}
