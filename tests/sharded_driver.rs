//! One handle over 1..N shards: a sharded deployment takes every call a
//! one-shard deployment takes, on the caller's thread, and ends each in
//! the same state; its shards keep one virtual clock; and a panic on a
//! shard thread of the threaded driver aborts the run instead of hanging
//! it.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

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
/// ticks, sequential or threaded, each shard's clock reads what a
/// one-shard deployment's does, though only one shard holds a periodic
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
    let mut threaded = sharded();
    threaded.run_ticks(TICKS).unwrap();
    assert_eq!(clocks(&threaded), vec![expected; 3], "threaded ticks");
    let mut sequential = sharded();
    for _ in 0..TICKS {
        sequential.run_tick().unwrap();
    }
    assert_eq!(clocks(&sequential), vec![expected; 3], "sequential ticks");
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

/// Regression: a panic on a shard thread outside the content boundary
/// used to panic the caller at the join while the sibling shard drained
/// forever, so `run_ticks` never returned. It now aborts every shard and
/// returns a typed error naming the shard and the panic. The run happens
/// on a helper thread, so a hang fails this test instead of hanging it.
#[test]
fn a_shard_thread_panic_aborts_the_run() {
    let (tx, rx) = mpsc::channel();
    let helper = std::thread::spawn(move || {
        let mut b = BusinessView::new("relapse");
        b.active_periodic("source", "10ms").unwrap();
        b.content("source", "Relapsing").unwrap();
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
        let arch = flow.merge().unwrap().into_validated().unwrap();

        let instances = Arc::new(AtomicU64::new(0));
        let mut registry: ContentRegistry<u64> = ContentRegistry::new();
        registry.register("Relapsing", move || {
            Box::new(Relapsing {
                instance: instances.fetch_add(1, Ordering::Relaxed),
            })
        });
        registry.register("Sink", || {
            #[derive(Debug)]
            struct Sink;
            impl Content<u64> for Sink {
                fn on_invoke(
                    &mut self,
                    _p: &str,
                    _m: &mut u64,
                    _o: &mut dyn Ports<u64>,
                ) -> InvokeResult {
                    Ok(())
                }
            }
            Box::new(Sink)
        });
        let mut dep = deploy_parallel(&arch, Mode::MergeAll, &registry).unwrap();
        assert_eq!(dep.shard_count(), 2);
        dep.set_fault_policy(
            "source",
            FaultPolicy::Restart {
                max_restarts: 10,
                window: RelativeTime::from_millis(3_600_000),
                backoff: RelativeTime::from_millis(1),
            },
        )
        .unwrap();
        let result = dep.run_ticks(10).map(|runs| runs.len());
        let _ = tx.send(result.map_err(|e| e.to_string()));
    });
    let result = rx
        .recv_timeout(Duration::from_secs(60))
        .expect("run_ticks hung after a shard thread panicked");
    helper.join().expect("the helper thread returned");
    let err = result.expect_err("the panic aborts the run");
    assert!(
        err.contains("parallel run aborted by shard 0 ('dhead')")
            && err.contains("on_start panics on restart"),
        "{err}"
    );
}
