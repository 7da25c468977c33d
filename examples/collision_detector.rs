//! A CDx-style collision detector — the classic hard-real-time Java
//! workload, expressed as a Soleil architecture.
//!
//! A radar sensor emits a frame of aircraft positions every 20 ms (NHRT,
//! immortal memory); the detector computes pairwise separations and, when
//! two aircraft violate the separation minimum, synchronously consults the
//! transponder cache (a passive service in scoped memory) and forwards an
//! alert to a regular-thread logger on the heap.
//!
//! The example runs the system both in wall-clock time and deployed onto
//! the virtual-time scheduler under an aggressive GC, demonstrating that
//! the NHRT stages keep their 20 ms frame deadline regardless of the
//! collector. The wall-clock run also carries a declarative **deadline
//! contract** on the radar head: its zero-allocation histogram shows the
//! frame latency profile, stays compliant while the collector is idle,
//! and flags SOL-016 the moment simulated stop-the-world pauses hit the
//! heap-side logger — end-to-end online miss detection.
//!
//! A third act demonstrates **fault containment**: a deterministic
//! injector panics the detector mid-run; the panic is caught at the
//! activation boundary, the detector is quarantined under a
//! supervised-restart policy (frames counted-dropped, radar cadence and
//! deadline contract unaffected), and the 40 ms backoff timer restarts
//! it with a fresh content instance — SOL-020 tracks the incident.
//!
//! ```text
//! cargo run --release --example collision_detector
//! ```

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use rtsj::gc::GcConfig;
use rtsj::time::{AbsoluteTime, RelativeTime};
use soleil::generator::compile;
use soleil::prelude::*;
use soleil::runtime::sim::{deploy as sim_deploy, SimCosts, SimOptions};

const AIRCRAFT: usize = 12;
const SEPARATION_MIN: f64 = 5.0;

/// One radar frame: aircraft positions (plus alert bookkeeping).
#[derive(Debug, Clone, Default)]
struct Frame {
    positions: Vec<(f64, f64, f64)>,
    frame_no: u64,
    conflicts: u32,
    cache_hits: u32,
}

#[derive(Debug, Default)]
struct RadarSensor {
    frame_no: u64,
}

impl Content<Frame> for RadarSensor {
    fn on_invoke(
        &mut self,
        _port: &str,
        msg: &mut Frame,
        out: &mut dyn Ports<Frame>,
    ) -> InvokeResult {
        self.frame_no += 1;
        msg.frame_no = self.frame_no;
        msg.positions = (0..AIRCRAFT)
            .map(|i| {
                let t = self.frame_no as f64 * 0.05 + i as f64;
                // Two aircraft (0 and 1) on slowly converging tracks.
                let squeeze = if i < 2 {
                    (t * 0.11).sin().abs() * 8.0
                } else {
                    40.0 + i as f64 * 25.0
                };
                (
                    squeeze + t.cos(),
                    i as f64 * 3.0 + t.sin(),
                    10.0 + (i % 3) as f64,
                )
            })
            .collect();
        out.send("frames", msg.clone())
    }
}

#[derive(Debug, Default)]
struct Detector;

impl Content<Frame> for Detector {
    fn on_invoke(
        &mut self,
        _port: &str,
        msg: &mut Frame,
        out: &mut dyn Ports<Frame>,
    ) -> InvokeResult {
        let mut conflicts = 0u32;
        for i in 0..msg.positions.len() {
            for j in (i + 1)..msg.positions.len() {
                let (ax, ay, az) = msg.positions[i];
                let (bx, by, bz) = msg.positions[j];
                let d2 = (ax - bx).powi(2) + (ay - by).powi(2) + (az - bz).powi(2);
                if d2 < SEPARATION_MIN * SEPARATION_MIN {
                    conflicts += 1;
                }
            }
        }
        msg.conflicts = conflicts;
        if conflicts > 0 {
            // Synchronous lookup in the scoped transponder cache.
            out.call("cache", msg)?;
            out.send("alerts", msg.clone())?;
        }
        Ok(())
    }
}

#[derive(Debug, Default)]
struct TransponderCache {
    lookups: u64,
}

impl Content<Frame> for TransponderCache {
    fn on_invoke(
        &mut self,
        _port: &str,
        msg: &mut Frame,
        _out: &mut dyn Ports<Frame>,
    ) -> InvokeResult {
        self.lookups += 1;
        msg.cache_hits = msg.conflicts; // every conflicting pair resolved
        Ok(())
    }
}

#[derive(Debug, Default)]
struct AlertLogger {
    alerts: u64,
    /// Simulated stop-the-world pause charged to the heap-side logger,
    /// in nanoseconds (0 = collector idle).
    gc_pause_ns: Arc<AtomicU64>,
}

impl Content<Frame> for AlertLogger {
    fn on_invoke(
        &mut self,
        _port: &str,
        msg: &mut Frame,
        _out: &mut dyn Ports<Frame>,
    ) -> InvokeResult {
        let pause = self.gc_pause_ns.load(Ordering::Relaxed);
        if pause > 0 {
            std::thread::sleep(std::time::Duration::from_nanos(pause));
        }
        self.alerts += u64::from(msg.conflicts > 0);
        Ok(())
    }
}

fn architecture() -> Result<ValidatedArchitecture, SoleilError> {
    let mut b = BusinessView::new("collision-detector");
    b.active_periodic("RadarSensor", "20ms")?;
    b.active_sporadic("Detector")?;
    b.passive("TransponderCache")?;
    b.active_sporadic("AlertLogger")?;
    b.content("RadarSensor", "RadarSensorImpl")?;
    b.content("Detector", "DetectorImpl")?;
    b.content("TransponderCache", "TransponderCacheImpl")?;
    b.content("AlertLogger", "AlertLoggerImpl")?;

    b.require("RadarSensor", "frames", "IFrame")?;
    b.provide("Detector", "frames", "IFrame")?;
    b.require("Detector", "cache", "ICache")?;
    b.provide("TransponderCache", "cache", "ICache")?;
    b.require("Detector", "alerts", "IAlert")?;
    b.provide("AlertLogger", "alerts", "IAlert")?;

    b.bind_async("RadarSensor", "frames", "Detector", "frames", 4)?;
    b.bind_sync("Detector", "cache", "TransponderCache", "cache")?;
    b.bind_async("Detector", "alerts", "AlertLogger", "alerts", 8)?;

    let mut flow = DesignFlow::new(b);
    flow.thread_domain(
        "radar-nhrt",
        ThreadKind::NoHeapRealtime,
        35,
        &["RadarSensor"],
    )?;
    flow.thread_domain("detect-nhrt", ThreadKind::NoHeapRealtime, 32, &["Detector"])?;
    flow.thread_domain("log-reg", ThreadKind::Regular, 5, &["AlertLogger"])?;
    flow.memory_area(
        "imm",
        MemoryKind::Immortal,
        Some(512 * 1024),
        &["radar-nhrt", "detect-nhrt"],
    )?;
    flow.memory_area(
        "cache-scope",
        MemoryKind::Scoped,
        Some(64 * 1024),
        &["TransponderCache"],
    )?;
    flow.memory_area("heap", MemoryKind::Heap, None, &["log-reg"])?;
    Ok(flow.merge()?.into_validated()?)
}

fn main() -> Result<(), SoleilError> {
    let arch = architecture()?;
    println!("architecture validates; cross-scope patterns:");
    for d in arch.report().by_code("SOL-007") {
        println!("  {d}");
    }

    // --- Wall-clock run ---------------------------------------------------
    let mut registry: ContentRegistry<Frame> = ContentRegistry::new();
    registry.register("RadarSensorImpl", || Box::new(RadarSensor::default()));
    registry.register("DetectorImpl", || Box::new(Detector));
    registry.register("TransponderCacheImpl", || {
        Box::new(TransponderCache::default())
    });
    let gc_pause = Arc::new(AtomicU64::new(0));
    let logger_pause = gc_pause.clone();
    registry.register("AlertLoggerImpl", move || {
        Box::new(AlertLogger {
            alerts: 0,
            gc_pause_ns: logger_pause.clone(),
        })
    });

    let mut sys = deploy(&arch, Mode::MergeAll, &registry)?;
    let head = sys.resolve("RadarSensor")?;
    // Declarative runtime contract: every radar frame must complete its
    // end-to-end transaction within 10 ms, recorded into a preallocated
    // histogram (zero allocations on the monitored hot path).
    sys.attach_contract(
        head,
        TimingContract::new().with_deadline(RelativeTime::from_millis(10)),
    )?;
    let frames = 5_000;
    let samples = measure_steady(200, frames, || sys.run_transaction(head))?;
    let s = samples.summary().expect("non-empty");
    println!(
        "\nprocessed {frames} frames of {AIRCRAFT} aircraft: median {:.2} us, worst {:.2} us",
        s.median.as_micros_f64(),
        s.max.as_micros_f64()
    );
    let stats = sys.stats();
    println!(
        "  activations {} | async msgs {} | sync cache lookups {}",
        stats.activations, stats.async_messages, stats.sync_calls
    );

    // --- Deadline contract: met while the collector is idle ----------------
    let snap = sys.latency_snapshot(head)?.expect("contract attached");
    println!(
        "\n10 ms frame contract while the collector is idle: \
         {} frames, p50 {} ns, p99 {} ns, misses {}",
        snap.activations, snap.p50_ns, snap.p99_ns, snap.deadline_misses
    );
    assert_eq!(sys.deadline_misses(), 0, "idle-collector frames all meet");
    assert!(sys.contract_report().is_empty());

    // One on-demand extra radar frame through the release engine: armed on
    // the preallocated timer queue, fired when the engine clock passes it.
    let before = sys.stats().transactions;
    sys.schedule_release(
        head,
        sys.timer_clock()
            .saturating_add(RelativeTime::from_millis(1)),
    )?;
    let fired = sys.fire_timers_until(
        sys.timer_clock()
            .saturating_add(RelativeTime::from_millis(5)),
    )?;
    assert_eq!(fired, 1);
    assert_eq!(sys.stats().transactions, before + 1);
    println!("release engine fired {fired} scheduled radar frame on time");

    // --- Deadline contract: violated once GC pauses hit the logger ---------
    // Simulate 12 ms stop-the-world pauses on the heap-side AlertLogger:
    // the first frame whose alert path eats a pause blows the 10 ms
    // contract, and the monitor flags it online.
    gc_pause.store(12_000_000, Ordering::Relaxed);
    let mut paused_frames = 0u32;
    while sys.deadline_misses() == 0 && paused_frames < 600 {
        sys.run_transaction(head)?;
        paused_frames += 1;
    }
    gc_pause.store(0, Ordering::Relaxed);
    assert!(
        sys.deadline_misses() > 0,
        "a GC-paused alert path must blow the frame contract"
    );
    println!(
        "\nwith 12 ms GC pauses on the heap-side logger: {} miss(es) after \
         {paused_frames} frames; online verdict:",
        sys.deadline_misses()
    );
    for d in sys.contract_report().by_code("SOL-016") {
        println!("  {d}");
    }

    // --- Fault containment: a panicking detector mid-run --------------------
    // The detector is put under a supervised-restart policy, then a
    // deterministic injector panics its next activation. The panic is
    // caught at the activation boundary: the detector is quarantined, its
    // frames are counted-dropped (never silently lost), the radar keeps
    // its 20 ms cadence — and the deadline contract keeps reporting the
    // whole time. After the 40 ms backoff the supervisor restarts the
    // detector through the timer queue with a fresh content instance.
    let detector = sys.resolve("Detector")?;
    sys.set_fault_policy(
        detector,
        FaultPolicy::Restart {
            max_restarts: 3,
            window: RelativeTime::from_millis(60_000),
            backoff: RelativeTime::from_millis(40),
        },
    )?;
    let monitored_before = sys.latency_snapshot(head)?.expect("attached").activations;
    sys.install_fault_injector(
        detector,
        FaultInjector::new("Detector", 0xCD, 1).with_menu(FaultInjector::MENU_PANIC),
    )?;
    // The engine catches the panic; keep the default hook from splattering
    // a backtrace over the demo output while it unwinds.
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let contained = sys.run_transaction(head); // the panic frame: caught
    std::panic::set_hook(hook);
    contained?;
    sys.remove_fault_injector(detector)?;
    assert!(sys.quarantined(detector)?, "panic quarantines the detector");
    println!("\ninjected panic in the detector: contained at the activation boundary");
    for d in sys.health_report().by_code("SOL-020") {
        println!("  {d}");
    }

    // Quarantined frames: the radar keeps flying, the drops are counted.
    let drops_before = sys.stats().quarantine_drops;
    for _ in 0..10 {
        sys.run_transaction(head)?;
    }
    let stats = sys.stats();
    println!(
        "  10 frames while quarantined: {} frames counted-dropped at the gate, \
         ledger intact ({} pushed == {} delivered + {} dropped)",
        stats.quarantine_drops - drops_before,
        stats.async_messages,
        stats.delivered_messages,
        stats.dropped_messages
    );
    assert_eq!(
        stats.async_messages,
        stats.delivered_messages + stats.dropped_messages,
        "no frame is ever silently lost"
    );

    // The supervisor's backoff timer restarts the detector.
    sys.fire_timers_until(
        sys.timer_clock()
            .saturating_add(RelativeTime::from_millis(50)),
    )?;
    assert!(
        !sys.quarantined(detector)?,
        "backoff restart rearms the detector"
    );
    let (faults, restarts, _suppressed) = sys.supervision_counts(detector)?;
    println!(
        "  supervised restart after 40 ms backoff: {faults} fault contained, \
         {restarts} restart with a fresh detector instance"
    );
    sys.run_transaction(head)?; // frames flow end-to-end again
    assert!(sys.health_report().by_code("SOL-020").next().is_none());

    // The contract never stopped watching: every frame of the incident
    // landed in the histogram — the panic frame too, since its cascade
    // still drains to quiescence once the detector's fault is contained,
    // then the quarantined frames and the recovery frame.
    let snap = sys.latency_snapshot(head)?.expect("contract attached");
    println!(
        "  deadline contract reported throughout: {} frames monitored during the incident",
        snap.activations - monitored_before
    );
    assert_eq!(snap.activations - monitored_before, 12);

    // --- Virtual-time schedulability under GC ------------------------------
    println!("\nvirtual-time deployment under an aggressive collector:");
    let spec = compile(&arch)?;
    let costs = SimCosts::uniform(RelativeTime::from_micros(100))
        .with("RadarSensor", RelativeTime::from_micros(120))
        .with("Detector", RelativeTime::from_micros(900))
        .with("AlertLogger", RelativeTime::from_micros(80));
    let gc = GcConfig::periodic(RelativeTime::from_millis(60), RelativeTime::from_millis(15));
    let mut d = sim_deploy(
        &spec,
        &costs,
        &SimOptions {
            force_thread_kind: None,
            gc: Some(gc),
        },
    );
    d.simulator.run_until(AbsoluteTime::from_millis(2_000));
    for stage in ["RadarSensor", "Detector", "AlertLogger"] {
        let t = d.tasks[stage];
        let st = d.simulator.stats(t)?;
        let sum = st.response_summary().expect("ran");
        println!(
            "  {:<14} completions {:>4}  worst response {:>9}  deadline misses {}",
            stage, st.completions, sum.max, st.deadline_misses
        );
    }
    let radar = d.simulator.stats(d.tasks["RadarSensor"])?;
    assert_eq!(
        radar.deadline_misses, 0,
        "NHRT radar never misses its frame"
    );
    println!("\nNHRT stages met every 20 ms frame despite 15 ms GC pauses.");
    Ok(())
}
