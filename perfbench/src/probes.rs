//! Per-layer probes of the traced run. Each layer's public functions are
//! timed in isolation, in repeated batches summarised by their median;
//! engine sentinels and per-hop costs are paired deltas of interleaved
//! rounds (the median of per-round differences), so a drift that moves
//! both sides of a pair cancels.
//!
//! Which end-to-end metric each per-layer metric should move, and on
//! which workload:
//!
//! | per-layer metric | end-to-end metric (workload) |
//! |---|---|
//! | `core.adl_parse_us`, `core.validate_us`, `generator.compile_us`, `generator.deploy_us.*` | `setup_s` (all); `core.validate_us` also `reconfig_p50_us.*` (churn) |
//! | `rtsj.scope_enter_exit_ns`, `rtsj.handle_deref_ns` | `txn_p50_ns.*` (fig7) |
//! | `rtsj.substrate_allocs_per_txn`, `rtsj.immortal_bytes_per_commit.*` | `footprint_kb`, failures (churn) |
//! | `patterns.exchange_push_pop_ns` | `txn_p50_ns.*` (relay) |
//! | `patterns.spsc_push_pop_ns`, `patterns.drain_batch_mean`, `patterns.ring_rejections` | `msgs_per_s` (fan-out slices) |
//! | `membrane.chain_pre_post_ns` | `txn_p50_ns.soleil` (relay) |
//! | `membrane.monitor_observe_ns` | `txn_p50_ns.*` (relay) |
//! | `runtime.system.fixed_ns.*`, `runtime.system.per_hop_ns.*` | `txn_p50_ns.*` (relay) |
//! | `runtime.system.sentinel_ns.*` | `txn_p50_ns.merge_all` (relay) |
//! | `runtime.system.*_per_txn` | exact counts of the workload's own loop |
//! | `runtime.system.txn_p99_ns.*` | tails of `txn_p50_ns.*` (median over rounds of per-round p99s) |
//! | `runtime.parallel.msg_p50_ns`, `runtime.parallel.msg_p99_ns` | stamp-to-arrival latency of the fan-out slices and its tail; no bound, as the host's vCPU placement moves it |
//! | `runtime.timer.*` | `txn_p50_ns.merge_all` and the tail `runtime.system.txn_p99_ns.merge_all` (churn) |
//! | `runtime.parallel.*` | `msgs_per_s` (fan-out slices), `reconfig_p50_us.sharded` (churn) |
//! | `runtime.deploy.op_us.*` | `reconfig_p50_us.*` (churn) |
//! | `runtime.system.restart_us` and the supervision counts | the tail `runtime.system.txn_p99_ns.merge_all` (churn) |
//! | `scenario.oo_txn_p50_ns`, `scenario.framework_share.*` | explain `txn_p50_ns.*` (fig7) |
//! | `ledger.residual_ns.*` | the part of `txn_p50_ns.*` (relay) no layer row explains |
//! | `sensitivity.*` | whether a ~50 ns change on `relay` MERGE-ALL is visible |
//! | `trace.*` | the traced run itself: overhead and self time per layer |

use std::hint::black_box;
use std::time::Instant;

use soleil::core::adl::{from_xml, MOTIVATION_EXAMPLE_XML};
use soleil::core::validate::validate;
use soleil::membrane::interceptors::ActiveInterceptor;
use soleil::membrane::Membrane;
use soleil::patterns::spsc::spsc_ring;
use soleil::patterns::{ExchangeBuffer, ScopePin};
use soleil::prelude::*;
use soleil::rtsj::memory::{AreaId, MemoryManager, ScopedMemoryParams};
use soleil::rtsj::thread::Priority;
use soleil::runtime::timer::TimerQueue;
use soleil::scenario::{motivation_validated, registry_with_probe, ScenarioProbe};

use crate::affinity;
use crate::alloc::thread_allocs;
use crate::families::{self as fam, mode_key, Ledger, Op, Rng, MODES};
use crate::fixtures::{self as fx, LatencyLog, RelayRig};
use crate::stats::{self, ledger, paired_delta, LedgerTerm};
use crate::Metrics;

/// Median over `reps` batches of the per-call nanoseconds of `f`.
fn per_op_ns(reps: usize, batch: u64, mut f: impl FnMut()) -> f64 {
    let per: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..batch {
                f();
            }
            t0.elapsed().as_nanos() as f64 / batch as f64
        })
        .collect();
    stats::median(&per)
}

/// Median nanoseconds of `batch` individually timed relay transactions.
fn relay_p50(rig: &mut RelayRig, batch: u64, led: &mut Ledger) -> f64 {
    let mut ns = Vec::with_capacity(batch as usize);
    for _ in 0..batch {
        let t0 = Instant::now();
        let r = rig.dep.run_transaction(rig.head);
        ns.push(t0.elapsed().as_nanos() as u64);
        if r.is_err() {
            led.call("probe relay transaction", r);
        }
    }
    led.attempted += batch;
    rig.oracle.advance(batch);
    stats::percentile(&mut ns, 50.0) as f64
}

/// Runs `rounds` rounds of the `n` variants measured by `f`, in a seeded
/// order within each round after one discarded warm-up round, and returns
/// each variant's per-round values.
fn interleaved(
    n: usize,
    rounds: usize,
    rng: &mut Rng,
    mut f: impl FnMut(usize) -> f64,
) -> Vec<Vec<f64>> {
    let mut out = vec![Vec::with_capacity(rounds); n];
    for round in 0..=rounds {
        for i in rng.order(n) {
            let v = f(i);
            if round > 0 {
                out[i].push(v);
            }
        }
    }
    out
}

fn check_oracle(rig: &RelayRig, led: &mut Ledger) {
    led.check(rig.probe.sum() == rig.oracle.sum, || {
        "probe relay oracle mismatch".into()
    });
}

/// An engine sentinel (or the synthetic delay) switched on for one batch
/// of a paired round and off again after it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Switch {
    Nothing,
    Contract,
    Policy,
    IdleInjector,
    Spin,
}

fn flip(rig: &mut RelayRig, switch: Switch, on: bool) -> Result<(), FrameworkError> {
    let stages = rig.stages.clone();
    for (i, s) in stages.into_iter().enumerate() {
        match switch {
            Switch::Nothing | Switch::Spin => {}
            Switch::Contract if on => rig.dep.attach_contract(s, fx::baseline_contract())?,
            Switch::Contract => drop(rig.dep.detach_contract(s)?),
            Switch::Policy => {
                let policy = if on {
                    fx::restart_policy()
                } else {
                    FaultPolicy::Escalate
                };
                rig.dep.set_fault_policy(s, policy)?;
            }
            Switch::IdleInjector if on => rig
                .dep
                .install_fault_injector(s, FaultInjector::new(format!("stage{i}"), 0, 0))?,
            Switch::IdleInjector => drop(rig.dep.remove_fault_injector(s)?),
        }
    }
    fx::SPIN_ON.store(
        on && switch == Switch::Spin,
        std::sync::atomic::Ordering::Relaxed,
    );
    Ok(())
}

const ROUNDS: usize = 121;
/// Attempts of the sensitivity self-check, each pinned to the next CPU.
const SENSITIVITY_ATTEMPTS: u64 = 5;
/// The smallest share of the isolated delay a detected delta may show.
const SENSITIVITY_LOW: f64 = 0.4;
const BATCH: u64 = 1000;

/// Runs every probe and records its metrics.
pub fn run(seed: u64, m: &mut Metrics, led: &mut Ledger) -> SoleilResult<()> {
    let mut rng = Rng::new(seed ^ 0x9b0e);
    core_and_generator(m)?;
    substrate(m)?;
    let exchange_ns = m.get("patterns.exchange_push_pop_ns");
    let chain_ns = m.get("membrane.chain_pre_post_ns");
    let monitor_ns = m.get("membrane.monitor_observe_ns");
    timers(m)?;

    // Dispatch: depth 1 against depth 16 per mode, interleaved.
    let a1 = fx::relay_arch(1)?;
    let a16 = fx::relay_arch(fx::RELAY_STAGES)?;
    let mut rigs = Vec::new();
    for mode in MODES {
        rigs.push(fx::relay_rig(&a1, 1, mode, true, seed)?);
        rigs.push(fx::relay_rig(&a16, fx::RELAY_STAGES, mode, true, seed)?);
    }
    let p = interleaved(rigs.len(), ROUNDS, &mut rng, |i| {
        relay_p50(&mut rigs[i], BATCH, led)
    });
    for rig in &rigs {
        check_oracle(rig, led);
    }
    let clock_ns = per_op_ns(9, 10_000, || {
        black_box(Instant::now().elapsed());
    });
    m.put("bench.clock_ns", clock_ns, "ns");
    for (i, mode) in MODES.iter().enumerate() {
        let (d1, d16) = (&p[2 * i], &p[2 * i + 1]);
        let k = mode_key(*mode);
        let hop: Vec<f64> = d1.iter().zip(d16).map(|(a, b)| (b - a) / 15.0).collect();
        m.put(
            &format!("runtime.system.fixed_ns.{k}"),
            stats::median(d1),
            "ns",
        );
        m.put(
            &format!("runtime.system.per_hop_ns.{k}"),
            stats::median(&hop),
            "ns",
        );
        // The layer ledger of one relay transaction.
        let measured = stats::median(d16);
        let hops = fx::RELAY_STAGES as f64;
        let mut terms = vec![
            LedgerTerm {
                cost_ns: exchange_ns,
                per_txn: hops,
            },
            LedgerTerm {
                cost_ns: monitor_ns,
                per_txn: 1.0,
            },
            LedgerTerm {
                cost_ns: clock_ns,
                per_txn: 1.0,
            },
        ];
        if *mode == Mode::Soleil {
            terms.push(LedgerTerm {
                cost_ns: chain_ns,
                per_txn: hops + 1.0,
            });
        }
        let (explained, residual) = ledger(measured, &terms);
        eprintln!(
            "ledger {k:<11} measured {measured:>8.1} ns = exchange {exchange_ns:.1}x{hops} + monitor {monitor_ns:.1} + clock {clock_ns:.1}{} -> explained {explained:>7.1} ns, residual {residual:>7.1} ns",
            if *mode == Mode::Soleil { format!(" + chain {chain_ns:.1}x{}", hops + 1.0) } else { String::new() }
        );
        m.put(&format!("ledger.residual_ns.{k}"), residual, "ns");
    }
    drop(rigs);

    // Engine sentinels and the sensitivity self-check on one bare MERGE-ALL
    // relay: each variant switches its sentinel on for its batch of the
    // round, so every delta compares the deployment with itself. A slow
    // vCPU can bury the synthetic delay in noise, so an attempt that does
    // not detect it is repeated on the next CPU, up to a fixed count. An
    // attempt whose A/A noise is too large to resolve the delay is
    // inconclusive; the check fails only when no attempt detects the delay
    // and at least one could have.
    let switches = [
        Switch::Nothing,
        Switch::Nothing,
        Switch::Contract,
        Switch::Policy,
        Switch::IdleInjector,
        Switch::Spin,
    ];
    let mut twin = fx::relay_rig(&a16, fx::RELAY_STAGES, Mode::MergeAll, false, seed)?;
    let mut other = fx::relay_rig(&a16, fx::RELAY_STAGES, Mode::MergeAll, false, seed)?;
    let n = switches.len();
    let mut attempt = 0;
    let mut resolved = false;
    let (p, delta, aa_noise, spin_ns, detected) = loop {
        affinity::pin(attempt);
        fx::calibrate_spin();
        let p = interleaved(n + 1, ROUNDS, &mut rng, |i| {
            let Some(&sw) = switches.get(i) else {
                return relay_p50(&mut other, BATCH, led);
            };
            led.call("probe sentinel on", flip(&mut twin, sw, true));
            let v = relay_p50(&mut twin, BATCH, led);
            led.call("probe sentinel off", flip(&mut twin, sw, false));
            v
        });
        // The A/A pair bounds what the estimator reports for no change:
        // its median difference plus the spread of a median of `ROUNDS`
        // paired differences (the IQR over the square root of the count).
        let (aa_delta, aa_iqr) = paired_delta(&p[0], &p[1]);
        let aa_noise = aa_delta.abs() + aa_iqr / (ROUNDS as f64).sqrt();
        let (delta, _) = paired_delta(&p[0], &p[5]);
        // The delay alone: the fastest of nine batches, as host noise only
        // ever adds to a fixed sequence of increments.
        let spin_ns = (0..9)
            .map(|_| per_op_ns(1, 20_000, fx::spin))
            .fold(f64::INFINITY, f64::min);
        // Detected: above twice the A/A noise, and between 0.4 and 2 times
        // the delay timed on its own (inside the relay, part of it overlaps
        // the surrounding stages' work: 0.43-0.95 of it on a 2-vCPU VM,
        // lowest when the other vCPU is busy).
        let detected =
            delta > 2.0 * aa_noise && delta > SENSITIVITY_LOW * spin_ns && delta < 2.0 * spin_ns;
        // Resolvable: twice the noise is below the smallest delta that
        // counts as detected.
        let resolvable = 2.0 * aa_noise < SENSITIVITY_LOW * spin_ns;
        resolved |= resolvable;
        eprintln!(
            "sensitivity: synthetic spin {spin_ns:.1} ns on one MERGE-ALL stage -> paired delta {delta:.1} ns (A/A noise {aa_noise:.1} ns): {}",
            match (detected, resolvable) {
                (true, _) => "detected",
                (false, true) => "NOT detected",
                (false, false) => "inconclusive (noise)",
            }
        );
        attempt += 1;
        if detected || attempt == SENSITIVITY_ATTEMPTS {
            break (p, delta, aa_noise, spin_ns, detected);
        }
    };
    affinity::unpin();
    for (i, key) in ["contract", "policy", "idle_injector"].iter().enumerate() {
        m.put(
            &format!("runtime.system.sentinel_ns.{key}"),
            paired_delta(&p[0], &p[2 + i]).0,
            "ns",
        );
    }
    // The checkpoint capability cannot be switched off again, so it is a
    // difference of differences: a second deployment against the twin
    // before and after the capability is enabled on it.
    for s in other.stages.clone() {
        other.dep.enable_checkpoint(s, u32::MAX)?;
    }
    let after = interleaved(2, ROUNDS, &mut rng, |i| {
        relay_p50(if i == 0 { &mut twin } else { &mut other }, BATCH, led)
    });
    let (before_gap, _) = paired_delta(&p[0], &p[n]);
    let (after_gap, _) = paired_delta(&after[0], &after[1]);
    m.put(
        "runtime.system.sentinel_ns.checkpoint",
        after_gap - before_gap,
        "ns",
    );
    check_oracle(&twin, led);
    check_oracle(&other, led);
    m.put("sensitivity.delta_ns", delta, "ns");
    m.put("sensitivity.aa_noise_ns", aa_noise, "ns");
    m.put("sensitivity.spin_ns", spin_ns, "ns");
    m.put(
        "sensitivity.detected",
        f64::from(u8::from(detected)),
        "count",
    );
    led.attempted += 1;
    led.check(detected || !resolved, || {
        format!("sensitivity: a {spin_ns:.1} ns stage delay read as {delta:.1} ns (A/A noise {aa_noise:.1} ns)")
    });

    scenario(seed, m, led)?;
    parallel(seed, m, led)?;
    deploy_ops(seed, m, led)?;
    supervision(seed, m, led)?;
    Ok(())
}

fn core_and_generator(m: &mut Metrics) -> SoleilResult<()> {
    let us = |ns: f64| ns / 1000.0;
    m.put(
        "core.adl_parse_us",
        us(per_op_ns(9, 20, || {
            black_box(from_xml(MOTIVATION_EXAMPLE_XML).is_ok());
        })),
        "us",
    );
    let arch = from_xml(MOTIVATION_EXAMPLE_XML)?;
    m.put(
        "core.validate_us",
        us(per_op_ns(9, 20, || {
            black_box(validate(&arch).is_compliant());
        })),
        "us",
    );
    let validated = motivation_validated()?;
    m.put(
        "generator.compile_us",
        us(per_op_ns(9, 20, || {
            black_box(compile(&validated).is_ok());
        })),
        "us",
    );
    let probe = ScenarioProbe::new();
    let registry = registry_with_probe(&probe);
    for mode in MODES {
        m.put(
            &format!("generator.deploy_us.{}", mode_key(mode)),
            us(per_op_ns(9, 5, || {
                black_box(deploy(&validated, mode, &registry).is_ok());
            })),
            "us",
        );
    }
    m.put(
        "generator.deploy_us.parallel",
        us(per_op_ns(9, 5, || {
            black_box(deploy_parallel(&validated, Mode::MergeAll, &registry).is_ok());
        })),
        "us",
    );
    Ok(())
}

fn substrate(m: &mut Metrics) -> SoleilResult<()> {
    let mut mm = MemoryManager::new(0, 1 << 20);
    let scope = mm.create_scoped(ScopedMemoryParams::new("S", 4096))?;
    let _pin = ScopePin::new(&mut mm, scope, &[])?;
    let mut ctx = mm.context(ThreadKind::NoHeapRealtime);
    m.put(
        "rtsj.scope_enter_exit_ns",
        per_op_ns(9, 20_000, || {
            let ok = mm.enter(&mut ctx, scope).is_ok() && mm.exit(&mut ctx).is_ok();
            black_box(ok);
        }),
        "ns",
    );
    let h = mm.alloc(&ctx, AreaId::IMMORTAL, 7u64)?;
    m.put(
        "rtsj.handle_deref_ns",
        per_op_ns(9, 50_000, || {
            black_box(mm.get(&ctx, h).copied().unwrap_or(0));
        }),
        "ns",
    );
    let buf: ExchangeBuffer<u64> = ExchangeBuffer::create(&mut mm, &ctx, AreaId::IMMORTAL, 4)?;
    m.put(
        "patterns.exchange_push_pop_ns",
        per_op_ns(9, 20_000, || {
            let _ = buf.push(&mut mm, &ctx, 1);
            black_box(buf.pop(&mut mm, &ctx).ok().flatten());
        }),
        "ns",
    );
    let (mut tx, mut rx) = spsc_ring::<u64>(64)?;
    m.put(
        "patterns.spsc_push_pop_ns",
        per_op_ns(9, 50_000, || {
            black_box(tx.push(1));
            black_box(rx.pop());
        }),
        "ns",
    );
    let mut membrane = Membrane::new("probe");
    membrane.lifecycle.start();
    membrane.push_interceptor(Box::new(ActiveInterceptor::new()));
    m.put(
        "membrane.chain_pre_post_ns",
        per_op_ns(9, 50_000, || {
            let ok = membrane.pre_invoke(&mut mm, &mut ctx).is_ok()
                && membrane.post_invoke(&mut mm, &mut ctx).is_ok();
            black_box(ok);
        }),
        "ns",
    );
    let mut monitor = LatencyMonitor::new(Some(500_000_000), None);
    let t = Instant::now();
    let mut lat = 0u64;
    m.put(
        "membrane.monitor_observe_ns",
        per_op_ns(9, 50_000, || {
            lat = (lat + 97) % 5000;
            black_box(monitor.observe(t, lat));
        }),
        "ns",
    );
    Ok(())
}

fn timers(m: &mut Metrics) -> SoleilResult<()> {
    let mut q: TimerQueue<u64> = TimerQueue::with_capacity(64);
    let prio = Priority::new(20);
    let far = AbsoluteTime::MAX;
    m.put(
        "runtime.timer.schedule_cancel_ns",
        per_op_ns(9, 20_000, || {
            if let Ok(h) = q.schedule(far, prio, 1) {
                black_box(q.cancel(h));
            }
        }),
        "ns",
    );
    let mut at = AbsoluteTime::ZERO;
    m.put(
        "runtime.timer.schedule_fire_ns",
        per_op_ns(9, 20_000, || {
            at = at.saturating_add(RelativeTime::from_nanos(1));
            let _ = q.schedule(at, prio, 1);
            black_box(q.pop_due(at).is_some());
        }),
        "ns",
    );
    let arch = fx::churn_arch()?;
    let log = LatencyLog::new(16);
    let mut dep = deploy(&arch, Mode::MergeAll, &fx::churn_registry(1, &log))?;
    let producer = dep.resolve("producer")?;
    dep.schedule_release(producer, AbsoluteTime::MAX)?;
    m.put(
        "runtime.timer.fire_until_ns",
        per_op_ns(9, 20_000, || {
            let until = dep
                .timer_clock()
                .saturating_add(RelativeTime::from_millis(1));
            black_box(dep.fire_timers_until(until).is_ok());
        }),
        "ns",
    );
    Ok(())
}

/// The Fig. 7 loop's own rounds: the OO baseline's median transaction and
/// each mode's share of its median transaction that the framework adds.
fn scenario(seed: u64, m: &mut Metrics, led: &mut Ledger) -> SoleilResult<()> {
    let mut fig7 = fam::Fig7Loop::setup(seed)?;
    fig7.round(10, led);
    fig7.clear();
    for _ in 0..6 {
        fig7.round(fam::TXN_ROUND as u64, led);
    }
    fig7.finish(led);
    let oo = fig7.oo_lat.over_rounds(50.0, 50.0);
    m.put("scenario.oo_txn_p50_ns", oo, "ns");
    for (i, mode) in MODES.iter().enumerate() {
        let framework = fig7.lat[i].over_rounds(50.0, 50.0);
        m.put(
            &format!("scenario.framework_share.{}", mode_key(*mode)),
            (framework - oo) / framework,
            "ratio",
        );
    }
    Ok(())
}

fn parallel(seed: u64, m: &mut Metrics, led: &mut Ledger) -> SoleilResult<()> {
    let mut fan = fam::FanLoop::setup(seed)?;
    fan.round(1, led);
    let mut shard_p50 = vec![Vec::new(); fan.shard_count()];
    let mut conc = Vec::new();
    let (mut passes, mut drained) = (0u64, 0u64);
    for _ in 0..12 {
        let t0 = Instant::now();
        let r = fan
            .sys_mut()
            .run_ticks_instrumented(0, fam::FAN_TICKS, &thread_allocs);
        let wall = t0.elapsed().as_nanos() as f64;
        fan.clear_log();
        let Some(runs) = led.call("probe run_ticks", r) else {
            continue;
        };
        for (s, r) in runs.iter().enumerate() {
            if let Some(v) = shard_p50.get_mut(s) {
                v.push(r.median_tick_ns as f64);
            }
            // Only shards with incoming rings drain anything.
            if r.drained_messages > 0 {
                passes += r.drain_passes;
                drained += r.drained_messages;
            }
        }
        conc.push(runs.iter().map(|r| r.total_ns as f64).sum::<f64>() / wall);
    }
    fan.clear_log();
    for (s, v) in shard_p50.iter().enumerate().take(2) {
        m.put(
            &format!("runtime.parallel.tick_p50_ns.shard{s}"),
            stats::median(v),
            "ns",
        );
    }
    m.put(
        "runtime.parallel.concurrency",
        stats::median(&conc),
        "ratio",
    );
    m.put(
        "patterns.drain_batch_mean",
        drained as f64 / passes.max(1) as f64,
        "count",
    );
    let mut over = Vec::new();
    for _ in 0..40 {
        let t0 = Instant::now();
        let ok = fan.sys_mut().run_ticks(1).is_ok();
        over.push(t0.elapsed().as_nanos() as f64 / 1000.0);
        led.attempted += 1;
        led.check(ok, || "probe run_ticks(1) failed".into());
    }
    fan.clear_log();
    m.put(
        "runtime.parallel.run_ticks_overhead_us",
        stats::median(&over),
        "us",
    );
    fan.finish(led);
    Ok(())
}

/// Bytes consumed across a serial deployment's memory areas.
fn serial_bytes(dep: &Deployment<u64>) -> u64 {
    dep.memory().total_consumed() as u64
}

fn deploy_ops(seed: u64, m: &mut Metrics, led: &mut Ledger) -> SoleilResult<()> {
    const REPS: usize = 24;
    let arch = fx::churn_arch()?;
    let log = LatencyLog::new(16);
    for mode in [Mode::Soleil, Mode::MergeAll] {
        let mut dep = deploy(&arch, mode, &fx::churn_registry(seed, &log))?;
        let refs = (
            dep.resolve("worker")?,
            dep.resolve("sink")?,
            dep.resolve("spare")?,
        );
        for op in Op::SERIAL {
            let bytes0 = serial_bytes(&dep);
            let mut us = Vec::with_capacity(REPS);
            for i in 0..REPS {
                let flip = fam::Flip(i % 2 == 0);
                let t0 = Instant::now();
                let r = dep.reconfigure(|txn| fam::apply_serial(txn, refs, &[op], flip, 0));
                us.push(t0.elapsed().as_nanos() as f64 / 1000.0);
                led.call("probe serial single-op reconfigure", r);
            }
            if mode == Mode::MergeAll && op == Op::Reassign {
                let per = (serial_bytes(&dep) - bytes0) as f64 / REPS as f64;
                m.put("rtsj.immortal_bytes_per_commit.serial", per, "B");
            }
            m.put(
                &format!("runtime.deploy.op_us.{}.{}", op.key(), mode_key(mode)),
                stats::median(&us),
                "us",
            );
        }
    }
    let mut sys = deploy_parallel(&arch, Mode::MergeAll, &fx::churn_registry(seed, &log))?;
    let shard_bytes = |sys: &ParallelSystem<u64>| -> u64 {
        (0..sys.shard_count())
            .map(|s| sys.shard_system(s).memory().total_consumed() as u64)
            .sum()
    };
    for op in Op::SERIAL.into_iter().chain([Op::RebindAsync]) {
        let bytes0 = shard_bytes(&sys);
        let mut us = Vec::with_capacity(REPS);
        for i in 0..REPS {
            let flip = fam::Flip(i % 2 == 0);
            let t0 = Instant::now();
            let r = sys.reconfigure(|txn| fam::apply_parallel(txn, &[op], flip, 0));
            us.push(t0.elapsed().as_nanos() as f64 / 1000.0);
            led.call("probe sharded single-op reconfigure", r);
        }
        if op == Op::RebindAsync {
            let per = (shard_bytes(&sys) - bytes0) as f64 / REPS as f64;
            m.put("rtsj.immortal_bytes_per_commit.sharded", per, "B");
        }
        m.put(
            &format!("runtime.deploy.op_us.{}.sharded", op.key()),
            stats::median(&us),
            "us",
        );
    }
    Ok(())
}

fn supervision(seed: u64, m: &mut Metrics, led: &mut Ledger) -> SoleilResult<()> {
    let arch = fx::churn_arch()?;
    let log = LatencyLog::new(16);

    // Restart cost: a worker that faults on every activation is isolated,
    // then restarted by hand.
    let mut dep = deploy(&arch, Mode::MergeAll, &fx::churn_registry(seed, &log))?;
    let producer = dep.resolve("producer")?;
    let worker = dep.resolve("worker")?;
    dep.set_fault_policy(worker, FaultPolicy::Isolate)?;
    dep.install_fault_injector(
        worker,
        FaultInjector::new("worker", seed, 1).with_menu(FaultInjector::MENU_ERROR),
    )?;
    let mut us = Vec::new();
    for _ in 0..40 {
        led.call("probe faulting transaction", dep.run_transaction(producer));
        led.check(dep.quarantined(worker).unwrap_or(false), || {
            "probe worker not quarantined".into()
        });
        let t0 = Instant::now();
        let r = dep.restart_component(worker);
        us.push(t0.elapsed().as_nanos() as f64 / 1000.0);
        led.call("probe restart_component", r);
    }
    m.put("runtime.system.restart_us", stats::median(&us), "us");

    // Seed-fixed supervision counts of a churn-shaped run without batches.
    let mut churn = fam::ChurnLoop::setup(seed)?;
    let dep = churn.serial_merge_all_mut();
    let (producer, worker) = (dep.resolve("producer")?, dep.resolve("worker")?);
    for _ in 0..64 {
        for _ in 0..fam::CHURN_K {
            led.call("probe churn transaction", dep.run_transaction(producer));
        }
        let until = dep
            .timer_clock()
            .saturating_add(RelativeTime::from_millis(100));
        led.call("probe fire_timers_until", dep.fire_timers_until(until));
    }
    let st = dep.stats();
    let (faults, restarts, _) = dep.supervision_counts(worker)?;
    let (captures, restores) = dep.checkpoint_counts(worker)?.unwrap_or((0, 0));
    led.check(faults == st.faults_contained, || {
        "probe supervision counts disagree".into()
    });
    m.put(
        "runtime.system.faults_contained",
        st.faults_contained as f64,
        "count",
    );
    m.put("runtime.system.restarts", restarts as f64, "count");
    m.put(
        "runtime.system.quarantine_drops",
        st.quarantine_drops as f64,
        "count",
    );
    m.put(
        "runtime.system.checkpoint_captures",
        captures as f64,
        "count",
    );
    m.put(
        "runtime.system.checkpoint_restores",
        restores as f64,
        "count",
    );
    churn.check_oracles(led);
    Ok(())
}
