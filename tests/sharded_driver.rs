//! One handle over 1..N shards: a sharded deployment takes every call a
//! one-shard deployment takes, on the caller's thread, and ends each in
//! the same state; its shards keep one virtual clock; and a panic in a
//! restart's user code is a typed fault on either shape, through every
//! driver.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use soleil::prelude::*;
use soleil::scenario::{motivation_validated, registry_with_probe, Measurement, ScenarioProbe};

/// The same call sequence on a one-shard and a 3-shard deployment of the
/// motivation example, in every mode: `run_tick`, `run_transaction`,
/// `inject` and `fire_timers_until` all return `Ok`, and the message
/// ledger and the probe counts come out equal.
#[test]
fn every_call_runs_sharded_and_matches_one_shard() {
    let arch = motivation_validated().unwrap();
    for mode in [Mode::Soleil, Mode::MergeAll, Mode::UltraMerge] {
        let drive = |sharded: bool| {
            let probe = ScenarioProbe::new();
            let registry = registry_with_probe(&probe);
            let mut dep = if sharded {
                deploy_parallel(&arch, mode, &registry)
            } else {
                deploy(&arch, mode, &registry)
            }
            .unwrap();
            assert_eq!(dep.shard_count(), if sharded { 3 } else { 1 }, "{mode}");
            let head = dep.resolve("ProductionLine").unwrap();
            let monitor = dep.port("MonitoringSystem", "iMonitor").unwrap();
            for _ in 0..4 {
                dep.run_tick().unwrap();
                dep.run_transaction(head).unwrap();
            }
            for seq in [100, 101] {
                let msg = Measurement {
                    seq,
                    ..Measurement::default()
                };
                dep.inject(monitor, msg).unwrap();
            }
            let at = dep
                .timer_clock()
                .saturating_add(RelativeTime::from_millis(5));
            dep.schedule_release(head, at).unwrap();
            assert_eq!(dep.fire_timers_until(at).unwrap(), 1, "{mode}");
            let st = dep.stats();
            (
                (
                    st.async_messages,
                    st.delivered_messages,
                    st.dropped_messages,
                    st.activations,
                ),
                (probe.audits(), probe.consoles(), probe.max_seq()),
            )
        };
        let one = drive(false);
        // 9 releases push to the monitor and on to the audit log; 2
        // injections into the monitor push to the audit log. Injected
        // messages count as delivered without an async push.
        assert_eq!(one.0, (20, 22, 0, 31), "{mode}: one shard");
        assert_eq!(drive(true), one, "{mode}: 3 shards");
    }
}

/// Every shard advances the whole plan's quantum per tick: after `n`
/// ticks, through `run_ticks` or `run_tick`, each shard's clock reads what
/// a one-shard deployment's does, though only one shard holds a periodic
/// component.
#[test]
fn shards_keep_one_virtual_clock() {
    const TICKS: u64 = 10;
    let arch = motivation_validated().unwrap();
    let mut one = deploy(
        &arch,
        Mode::MergeAll,
        &registry_with_probe(&ScenarioProbe::new()),
    )
    .unwrap();
    for _ in 0..TICKS {
        one.run_tick().unwrap();
    }
    let expected = one.timer_clock();
    assert_eq!(
        expected,
        AbsoluteTime::ZERO.saturating_add(RelativeTime::from_millis(10 * TICKS))
    );

    let sharded = || {
        deploy_parallel(
            &arch,
            Mode::MergeAll,
            &registry_with_probe(&ScenarioProbe::new()),
        )
        .unwrap()
    };
    let clocks = |dep: &Deployment<Measurement>| {
        (0..dep.shard_count())
            .map(|s| dep.shard_system(s).clock())
            .collect::<Vec<_>>()
    };
    let mut batched = sharded();
    batched.run_ticks(TICKS).unwrap();
    assert_eq!(clocks(&batched), vec![expected; 3], "run_ticks");
    let mut sequential = sharded();
    for _ in 0..TICKS {
        sequential.run_tick().unwrap();
    }
    assert_eq!(clocks(&sequential), vec![expected; 3], "run_tick");
}

/// A source whose every activation panics, and whose every instance after
/// the first panics in `on_start` — so a supervised restart panics outside
/// the content boundary.
#[derive(Debug)]
struct Relapsing {
    instance: u64,
}

impl Content<u64> for Relapsing {
    fn on_invoke(&mut self, _p: &str, _m: &mut u64, _o: &mut dyn Ports<u64>) -> InvokeResult {
        panic!("source panics in on_invoke");
    }

    fn on_start(&mut self) {
        if self.instance > 0 {
            panic!("on_start panics on restart");
        }
    }
}

/// A counting-free sink on the second domain.
#[derive(Debug)]
struct Sink;

impl Content<u64> for Sink {
    fn on_invoke(&mut self, _p: &str, _m: &mut u64, _o: &mut dyn Ports<u64>) -> InvokeResult {
        Ok(())
    }
}

/// `source` (its own domain) feeding `worker` (another domain)
/// asynchronously: two shards when deployed in parallel.
fn relapse_arch() -> ValidatedArchitecture {
    let mut b = BusinessView::new("relapse");
    b.active_periodic("source", "10ms").unwrap();
    b.content("source", "Source").unwrap();
    b.active_sporadic("worker").unwrap();
    b.content("worker", "Sink").unwrap();
    b.require("source", "out", "I").unwrap();
    b.provide("worker", "in", "I").unwrap();
    b.bind_async("source", "out", "worker", "in", 8).unwrap();
    let mut flow = DesignFlow::new(b);
    flow.thread_domain("dhead", ThreadKind::NoHeapRealtime, 30, &["source"])
        .unwrap();
    flow.memory_area("mhead", MemoryKind::Immortal, Some(64 * 1024), &["dhead"])
        .unwrap();
    flow.thread_domain("dwork", ThreadKind::NoHeapRealtime, 20, &["worker"])
        .unwrap();
    flow.memory_area("mwork", MemoryKind::Immortal, Some(64 * 1024), &["dwork"])
        .unwrap();
    flow.merge().unwrap().into_validated().unwrap()
}

/// [`relapse_arch`] deployed on one shard or two, with `source` built by
/// `factory` and supervised by `policy`.
fn relapse_deployment(
    mode: Mode,
    sharded: bool,
    policy: FaultPolicy,
    factory: impl Fn() -> Box<dyn Content<u64>> + Send + Sync + 'static,
) -> Deployment<u64> {
    let mut registry: ContentRegistry<u64> = ContentRegistry::new();
    registry.register("Source", factory);
    registry.register("Sink", || Box::new(Sink));
    let arch = relapse_arch();
    let mut dep = if sharded {
        deploy_parallel(&arch, mode, &registry)
    } else {
        deploy(&arch, mode, &registry)
    }
    .unwrap();
    assert_eq!(dep.shard_count(), if sharded { 2 } else { 1 });
    dep.set_fault_policy("source", policy).unwrap();
    dep
}

/// Restart after a 1 ms backoff, well inside one 10 ms tick.
fn restart_policy() -> FaultPolicy {
    FaultPolicy::Restart {
        max_restarts: 10,
        window: RelativeTime::from_millis(3_600_000),
        backoff: RelativeTime::from_millis(1),
    }
}

/// Asserts `result` is the typed panic fault of `source` whose detail
/// contains `detail`.
fn assert_restart_panic<T: std::fmt::Debug>(
    result: Result<T, FrameworkError>,
    detail: &str,
    tag: &str,
) {
    let err = result.expect_err(tag);
    assert!(
        matches!(
            &err,
            FrameworkError::Faulted { component, kind: FaultKind::Panic, detail: d }
                if component == "source" && d.contains(detail)
        ),
        "{tag}: {err}"
    );
}

/// A supervised restart whose `on_start` panics is the typed panic fault
/// of the restarted component, through `run_tick` and `run_ticks`, on one
/// shard and sharded; the component stays quarantined, and the next call
/// runs.
#[test]
fn a_shard_thread_panic_aborts_the_run() {
    for sharded in [false, true] {
        let relapsing = || {
            let instances = Arc::new(AtomicU64::new(0));
            move || -> Box<dyn Content<u64>> {
                Box::new(Relapsing {
                    instance: instances.fetch_add(1, Ordering::Relaxed),
                })
            }
        };
        let tag = format!("sharded={sharded}");

        let mut dep = relapse_deployment(Mode::MergeAll, sharded, restart_policy(), relapsing());
        dep.run_tick().expect("the first panic is contained");
        assert_restart_panic(dep.run_tick(), "on_start panics on restart", &tag);
        assert!(dep.quarantined("source").unwrap(), "{tag}");
        dep.run_tick().expect("the next tick runs");

        let mut dep = relapse_deployment(Mode::MergeAll, sharded, restart_policy(), relapsing());
        assert_restart_panic(dep.run_ticks(10), "on_start panics on restart", &tag);
        assert!(dep.quarantined("source").unwrap(), "{tag}");
        dep.run_ticks(10).expect("the next run runs");
    }
}

/// Where a restart's user code panics.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Site {
    Factory,
    OnStart,
    Checkpoint,
    Restore,
}

/// A checkpointing source whose every activation fails with a typed error
/// (an unpoisoned quarantine, so a restart captures the outgoing
/// instance's state), and whose restart panics at `site`: the factory or
/// `on_start` of every instance after the first, the boundary
/// `checkpoint` of a faulted instance, or the `restore` into a fresh one.
#[derive(Debug)]
struct Fragile {
    site: Site,
    instance: u64,
    faulted: bool,
}

impl Content<u64> for Fragile {
    fn on_invoke(&mut self, _p: &str, _m: &mut u64, _o: &mut dyn Ports<u64>) -> InvokeResult {
        self.faulted = true;
        Err(FrameworkError::Faulted {
            component: "source".into(),
            kind: FaultKind::Error,
            detail: "source refused".into(),
        })
    }

    fn on_start(&mut self) {
        if self.site == Site::OnStart && self.instance > 0 {
            panic!("OnStart panics");
        }
    }

    fn checkpoint(&self, image: &mut StateImage) -> bool {
        if self.site == Site::Checkpoint && self.faulted {
            panic!("Checkpoint panics");
        }
        image.write_u64(self.instance)
    }

    fn restore(&mut self, _image: &StateImage) {
        if self.site == Site::Restore {
            panic!("Restore panics");
        }
    }
}

/// A panic in the factory, `on_start`, the boundary `checkpoint` or
/// `restore` of a supervised or manual restart is the typed panic fault
/// of the restarted component — from `run_tick`, `run_ticks` and
/// `restart_component`, in every mode, on one shard and sharded. The slot
/// stays quarantined and poisoned, and the next call runs: a later manual
/// restart skips the boundary capture of the poisoned instance, so only
/// the checkpoint site then restarts.
#[test]
fn a_panicking_restart_is_a_typed_fault_at_every_site() {
    for site in [
        Site::Factory,
        Site::OnStart,
        Site::Checkpoint,
        Site::Restore,
    ] {
        for mode in [Mode::Soleil, Mode::MergeAll, Mode::UltraMerge] {
            for sharded in [false, true] {
                let tag = format!("{site:?} {mode} sharded={sharded}");
                let detail = format!("{site:?} panics");
                let deployment = |policy| {
                    let instances = Arc::new(AtomicU64::new(0));
                    let mut dep = relapse_deployment(mode, sharded, policy, move || {
                        let instance = instances.fetch_add(1, Ordering::Relaxed);
                        if site == Site::Factory && instance > 0 {
                            panic!("Factory panics");
                        }
                        Box::new(Fragile {
                            site,
                            instance,
                            faulted: false,
                        })
                    });
                    dep.enable_checkpoint("source", 1).unwrap();
                    dep
                };

                // Supervised, through `run_tick`; then by hand.
                let mut dep = deployment(restart_policy());
                dep.run_tick().expect("the first fault is contained");
                assert_restart_panic(dep.run_tick(), &detail, &tag);
                assert!(dep.quarantined("source").unwrap(), "{tag}");
                dep.run_tick().expect("the next tick runs");
                let manual = dep.restart_component("source");
                if site == Site::Checkpoint {
                    manual.expect("a poisoned slot skips the boundary capture");
                    assert!(!dep.quarantined("source").unwrap(), "{tag}");
                } else {
                    assert_restart_panic(manual, &detail, &tag);
                    assert!(dep.quarantined("source").unwrap(), "{tag}");
                }

                // Supervised, through `run_ticks`.
                let mut dep = deployment(restart_policy());
                assert_restart_panic(dep.run_ticks(3), &detail, &tag);
                dep.run_ticks(3).expect("the next run runs");

                // Manual.
                let mut dep = deployment(FaultPolicy::Isolate);
                dep.run_tick().expect("the fault is isolated");
                assert_restart_panic(dep.restart_component("source"), &detail, &tag);
                assert!(dep.quarantined("source").unwrap(), "{tag}");
                dep.run_tick().expect("the next tick runs");
            }
        }
    }
}

/// A healthy source: one message on `out` per release.
#[derive(Debug)]
struct Emit;

impl Content<u64> for Emit {
    fn on_invoke(&mut self, _p: &str, m: &mut u64, out: &mut dyn Ports<u64>) -> InvokeResult {
        out.send("out", *m)
    }
}

/// Every SOLEIL membrane keeps the plan build gave it (compiled steps
/// only, with build's fusion) through a committed `reconfigure`, a
/// refused one and a supervised restart, on one shard and sharded. The
/// engine runs a membrane's pre- and post-gate outside any
/// `catch_unwind` on the strength of this invariant: a compiled gate
/// cannot panic.
#[test]
fn membrane_plans_stay_compiled_through_reconfiguration_and_restarts() {
    use soleil::membrane::ChainFusion;
    for sharded in [false, true] {
        let mut dep =
            relapse_deployment(Mode::Soleil, sharded, restart_policy(), || Box::new(Emit));
        let plans = |dep: &Deployment<u64>| {
            ["source", "worker"].map(|c| {
                let info = dep.membrane_info(c).unwrap();
                (info.plan_fully_compiled, info.plan_fusion)
            })
        };
        let built = plans(&dep);
        assert_eq!(built, [(true, ChainFusion::FusedActive); 2], "{sharded}");

        dep.reconfigure(|txn| {
            txn.stop("worker")?;
            txn.set_fault_policy("worker", FaultPolicy::Isolate)?;
            txn.start("worker")
        })
        .unwrap();
        assert_eq!(plans(&dep), built, "{sharded}: after a commit");

        let refused = dep.reconfigure(|txn| {
            txn.stop("worker")?;
            Err::<(), _>(FrameworkError::Content("refused".into()))
        });
        assert!(refused.is_err(), "{sharded}");
        assert_eq!(plans(&dep), built, "{sharded}: after a refusal");

        dep.install_fault_injector(
            "source",
            FaultInjector::new("source", 7, 1).with_menu(FaultInjector::MENU_PANIC),
        )
        .unwrap();
        dep.run_tick().expect("the panic is contained");
        assert!(dep.quarantined("source").unwrap(), "{sharded}");
        dep.remove_fault_injector("source").unwrap();
        dep.run_tick().expect("the restart runs");
        assert!(!dep.quarantined("source").unwrap(), "{sharded}");
        assert_eq!(dep.supervision_counts("source").unwrap().1, 1, "{sharded}");
        assert_eq!(plans(&dep), built, "{sharded}: after a restart");
    }
}
