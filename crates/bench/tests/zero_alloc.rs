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
//! reconfiguration pays, has an allocation bound of its own, and so do the
//! full validation report, a committed and a refused synchronous rebind.
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

/// The parallel mode obeys the same discipline on *every* shard thread:
/// the motivation scenario sharded by thread domain performs zero
/// Rust-heap and zero substrate allocations per steady-state tick, while
/// demonstrably ticking distinct domains on distinct OS threads.
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

    // Supervision trees are shard-local by design — escalation must never
    // block on another shard's thread — and every active component of the
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
    let runs = sys
        .run_ticks_instrumented(0, OBSERVATIONS, &alloc_probe::allocations)
        .expect("parallel run");

    // Distinct OS threads, none of them this one.
    let mut threads: Vec<_> = runs.iter().map(|r| format!("{:?}", r.thread)).collect();
    threads.sort();
    threads.dedup();
    assert_eq!(threads.len(), runs.len(), "every shard on its own thread");
    assert!(runs.iter().all(|r| r.thread != std::thread::current().id()));

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

/// Heap allocations a compliant empty transaction on the motivation
/// architecture may make — nothing journaled, nothing charged: the facts
/// table of the commit's RTSJ verdict, which renders no finding.
const EMPTY_COMMIT_ALLOCS: u64 = 3;

/// Commit-time validation is bounded too. Live reconfiguration re-checks
/// RTSJ conformance on every commit through the verdict alone, so an empty
/// commit stays within [`EMPTY_COMMIT_ALLOCS`] however many findings the
/// full report of `validate` (bounded by [`VALIDATE_ALLOCS`]) renders.
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

/// Heap allocations of one committed and one refused synchronous
/// `rebind` transaction, `(mode, committed, refused)`. The committed one
/// includes the commit-time RTSJ verdict (an empty commit of the fixture
/// makes 3, its facts table); the refused one never reaches commit. In
/// SOLEIL and MERGE-ALL alike, the engine half of a rebind writes one
/// binding row in place and the architectural model swaps the binding's
/// server in place; both journal `Copy` pre-images, so the one allocation
/// left is the journal's own.
const REBIND_ALLOCS: [(Mode, u64, u64); 2] = [(Mode::Soleil, 4, 1), (Mode::MergeAll, 4, 1)];

/// The write path is bounded too: after two warm-up rebinds, one
/// committed rebind and one refused one (the closure fails after the
/// rebind, so rollback writes the pre-image back) each stay within their
/// allocation bound.
#[test]
fn rebind_transactions_allocate_within_their_bounds() {
    let (arch, registry) = rebind_fixture();
    for (mode, committed_bound, refused_bound) in REBIND_ALLOCS {
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

        assert!(
            committed <= committed_bound,
            "{mode}: a committed rebind made {committed} heap allocations \
             (bound {committed_bound})"
        );
        assert!(
            refused <= refused_bound,
            "{mode}: a refused rebind made {refused} heap allocations (bound {refused_bound})"
        );
    }
}
