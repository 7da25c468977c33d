//! The architectures and content classes the workloads deploy: the
//! zero-work relay, the stamped producer/consumer fan-out for sharded
//! runs, and the churn fixture that reconfiguration batches rewrite.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use soleil::core::ValidatedArchitecture;
use soleil::membrane::content::InternedPort;
use soleil::prelude::*;

/// Stages after the relay's head: a transaction is 17 activations.
pub const RELAY_STAGES: usize = 16;

/// The 500 ms deadline every measured head carries: no healthy
/// transaction can miss it, so any recorded miss is a failure.
pub fn baseline_contract() -> TimingContract {
    TimingContract::new().with_deadline(RelativeTime::from_millis(500))
}

/// Nanoseconds on one process-wide monotonic clock, shared by producers
/// that stamp messages and sinks that time their arrival.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// The relay stages' step: one 64-bit LCG iteration.
pub fn lcg(x: u64) -> u64 {
    x.wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407)
}

/// The head's payload sequence: a splitmix64 walk from the seed.
pub fn next_payload(state: u64) -> u64 {
    let mut z = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// What the relay's tail must have seen: the payload sequence from
/// `seed`, each payload iterated through the LCG once per relay stage.
#[derive(Debug, Clone)]
pub struct RelayOracle {
    state: u64,
    stages: usize,
    /// Expected wrapping sum of tail values.
    pub sum: u64,
    /// Expected number of tail activations.
    pub count: u64,
}

impl RelayOracle {
    /// The oracle for a relay of `stages` relays whose head starts at `seed`.
    pub fn new(seed: u64, stages: usize) -> Self {
        RelayOracle {
            state: seed,
            stages,
            sum: 0,
            count: 0,
        }
    }

    /// Advances by `txns` transactions.
    pub fn advance(&mut self, txns: u64) {
        for _ in 0..txns {
            self.state = next_payload(self.state);
            let mut v = self.state;
            for _ in 0..self.stages {
                v = lcg(v);
            }
            self.sum = self.sum.wrapping_add(v);
            self.count += 1;
        }
    }
}

/// What the relay's tail observed.
#[derive(Debug, Clone, Default)]
pub struct TailProbe {
    sum: Arc<AtomicU64>,
    count: Arc<AtomicU64>,
}

impl TailProbe {
    /// Wrapping sum of tail values seen.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Tail activations seen.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }
}

/// The synthetic delay the sensitivity self-check injects, nanoseconds.
pub const SPIN_NS: f64 = 50.0;

/// Atomic read-modify-writes per synthetic delay, set by [`calibrate_spin`].
static SPIN_OPS: AtomicU64 = AtomicU64::new(4);

/// The word the synthetic delay increments.
static SPIN_WORD: AtomicU64 = AtomicU64::new(0);

/// While set, relay stage 8 runs the synthetic delay on every activation.
/// A switch rather than a second deployment, so the self-check compares
/// one deployment with itself and no layout difference enters the delta.
pub static SPIN_ON: AtomicBool = AtomicBool::new(false);

/// The synthetic delay: a fixed number of sequentially consistent atomic
/// increments. Each is a full fence, so later loads of the surrounding
/// stages wait for it and most of the delay shows inside the relay (an
/// arithmetic loop of the same length mostly overlaps their memory waits).
pub fn spin() {
    for _ in 0..SPIN_OPS.load(Ordering::Relaxed) {
        SPIN_WORD.fetch_add(1, Ordering::SeqCst);
    }
}

/// Sets the number of increments so that one [`spin`] takes about
/// [`SPIN_NS`].
pub fn calibrate_spin() {
    let probe = 1u64 << 16;
    SPIN_OPS.store(probe, Ordering::Relaxed);
    let best = (0..5)
        .map(|_| {
            let t = Instant::now();
            spin();
            t.elapsed().as_nanos() as f64
        })
        .fold(f64::INFINITY, f64::min);
    let ops = ((SPIN_NS * probe as f64 / best).round() as u64).max(1);
    SPIN_OPS.store(ops, Ordering::Relaxed);
}

#[derive(Debug)]
struct RelayHead {
    state: u64,
    out: InternedPort,
}

impl Content<u64> for RelayHead {
    fn on_invoke(&mut self, _p: &str, msg: &mut u64, out: &mut dyn Ports<u64>) -> InvokeResult {
        self.state = next_payload(self.state);
        *msg = self.state;
        self.out.send(out, *msg)
    }

    fn state_bytes(&self) -> usize {
        8
    }

    fn checkpoint(&self, image: &mut StateImage) -> bool {
        image.write_u64(self.state)
    }

    fn restore(&mut self, image: &StateImage) {
        if let Some(s) = image.read_u64(0) {
            self.state = s;
        }
    }
}

#[derive(Debug)]
struct Relay {
    out: InternedPort,
    /// Stage 8: runs the synthetic delay while [`SPIN_ON`] is set.
    delayed: bool,
}

impl Content<u64> for Relay {
    fn on_invoke(&mut self, _p: &str, msg: &mut u64, out: &mut dyn Ports<u64>) -> InvokeResult {
        if self.delayed && SPIN_ON.load(Ordering::Relaxed) {
            spin();
        }
        *msg = lcg(*msg);
        self.out.send(out, *msg)
    }

    fn state_bytes(&self) -> usize {
        8
    }

    fn checkpoint(&self, image: &mut StateImage) -> bool {
        image.write_u64(0)
    }

    fn restore(&mut self, _image: &StateImage) {}
}

#[derive(Debug)]
struct RelayTail {
    probe: TailProbe,
}

impl Content<u64> for RelayTail {
    fn on_invoke(&mut self, _p: &str, msg: &mut u64, _out: &mut dyn Ports<u64>) -> InvokeResult {
        *msg = lcg(*msg);
        self.probe.sum.fetch_add(*msg, Ordering::Relaxed);
        self.probe.count.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    fn state_bytes(&self) -> usize {
        8
    }

    fn checkpoint(&self, image: &mut StateImage) -> bool {
        image.write_u64(0)
    }

    fn restore(&mut self, _image: &StateImage) {}
}

/// The relay architecture: a periodic head then `stages` sporadic relays,
/// all NHRT in one immortal area, chained by 4-slot asynchronous buffers.
pub fn relay_arch(stages: usize) -> SoleilResult<ValidatedArchitecture> {
    let mut b = BusinessView::new(format!("relay-{stages}"));
    b.active_periodic("stage0", "10ms")?;
    b.content("stage0", "Head")?;
    for i in 1..=stages {
        let name = format!("stage{i}");
        b.active_sporadic(&name)?;
        let class = match (i == stages, i == 8) {
            (true, _) => "Tail",
            (false, true) => "Relay8",
            (false, false) => "Relay",
        };
        b.content(&name, class)?;
    }
    for i in 0..stages {
        let (from, to) = (format!("stage{i}"), format!("stage{}", i + 1));
        b.require(&from, "out", "I")?;
        b.provide(&to, "in", "I")?;
        b.bind_async(&from, "out", &to, "in", 4)?;
    }
    let mut flow = DesignFlow::new(b);
    let members: Vec<String> = (0..=stages).map(|i| format!("stage{i}")).collect();
    let refs: Vec<&str> = members.iter().map(String::as_str).collect();
    flow.thread_domain("nhrt", ThreadKind::NoHeapRealtime, 30, &refs)?;
    flow.memory_area("imm", MemoryKind::Immortal, Some(1 << 20), &["nhrt"])?;
    Ok(flow.merge()?.into_validated()?)
}

/// Content registry of the relay; the head's payload walk starts at `seed`.
pub fn relay_registry(seed: u64, probe: &TailProbe) -> ContentRegistry<u64> {
    let mut r: ContentRegistry<u64> = ContentRegistry::new();
    r.register("Head", move || {
        Box::new(RelayHead {
            state: seed,
            out: InternedPort::new("out"),
        })
    });
    r.register("Relay", || {
        Box::new(Relay {
            out: InternedPort::new("out"),
            delayed: false,
        })
    });
    r.register("Relay8", || {
        Box::new(Relay {
            out: InternedPort::new("out"),
            delayed: true,
        })
    });
    let p = probe.clone();
    r.register("Tail", move || Box::new(RelayTail { probe: p.clone() }));
    r
}

/// A deployed relay with its head token, tail probe and oracle.
pub struct RelayRig {
    /// The deployment.
    pub dep: Deployment<u64>,
    /// The periodic head.
    pub head: ComponentRef,
    /// Every stage, head first.
    pub stages: Vec<ComponentRef>,
    /// What the tail saw.
    pub probe: TailProbe,
    /// What the tail should have seen.
    pub oracle: RelayOracle,
}

/// Deploys a relay of `stages` relays in `mode`. With `baseline` the head
/// carries the baseline contract and an armed, never-due release: the
/// end-to-end shape; without it nothing is armed.
pub fn relay_rig(
    arch: &ValidatedArchitecture,
    stages: usize,
    mode: Mode,
    baseline: bool,
    seed: u64,
) -> SoleilResult<RelayRig> {
    let probe = TailProbe::default();
    let mut dep = deploy(arch, mode, &relay_registry(seed, &probe))?;
    let head = dep.resolve("stage0")?;
    let stages_refs = (0..=stages)
        .map(|i| dep.resolve(&format!("stage{i}")))
        .collect::<Result<_, _>>()?;
    if baseline {
        dep.attach_contract(head, baseline_contract())?;
        dep.schedule_release(head, AbsoluteTime::MAX)?;
    }
    Ok(RelayRig {
        dep,
        head,
        stages: stages_refs,
        probe,
        oracle: RelayOracle::new(seed, stages),
    })
}

/// The supervised-restart policy of faulted consumers: a budget far above
/// the injected fault rate, so faults are always contained.
pub fn restart_policy() -> FaultPolicy {
    FaultPolicy::Restart {
        max_restarts: 1_000,
        window: RelativeTime::from_millis(10),
        backoff: RelativeTime::from_millis(1),
    }
}

// ---------------------------------------------------------------------------
// Stamped messages: producer → SPSC rings → sinks
// ---------------------------------------------------------------------------

/// Arrival-minus-stamp latencies recorded by sinks on shard threads into
/// preallocated slots (no allocation, no lock), plus a FIFO counter.
#[derive(Debug)]
pub struct LatencyLog {
    slots: Box<[AtomicU64]>,
    len: AtomicUsize,
    /// Messages whose stamp was older than an earlier message's at the
    /// same sink.
    pub fifo_violations: AtomicU64,
}

impl LatencyLog {
    /// A log with room for `capacity` samples between resets.
    pub fn new(capacity: usize) -> Arc<Self> {
        Arc::new(LatencyLog {
            slots: (0..capacity).map(|_| AtomicU64::new(0)).collect(),
            len: AtomicUsize::new(0),
            fifo_violations: AtomicU64::new(0),
        })
    }

    fn record(&self, ns: u64) {
        let i = self.len.fetch_add(1, Ordering::Relaxed);
        if let Some(slot) = self.slots.get(i) {
            slot.store(ns, Ordering::Relaxed);
        }
    }

    /// Forgets the samples recorded since the last drain. Call only while
    /// no shard is running.
    pub fn clear(&self) {
        self.len.store(0, Ordering::SeqCst);
    }

    /// Moves the samples recorded since the last drain into `out`. Call
    /// only while no shard is running.
    pub fn drain_into(&self, out: &mut Vec<u64>) {
        let n = self.len.swap(0, Ordering::SeqCst).min(self.slots.len());
        out.extend(self.slots[..n].iter().map(|s| s.load(Ordering::Relaxed)));
    }
}

/// Busy-work iterations of the stamped producer: a few microseconds, so
/// the producer, not the sinks, bounds a sharded tick.
pub const PRODUCER_WORK: u32 = 600;

#[derive(Debug)]
struct Stamper {
    work: u32,
    seed: u64,
    ports: Vec<InternedPort>,
    /// Yield the thread after every release (the sharded fan-out only).
    yield_each: bool,
}

impl Content<u64> for Stamper {
    fn on_invoke(&mut self, _p: &str, msg: &mut u64, out: &mut dyn Ports<u64>) -> InvokeResult {
        self.seed = next_payload(self.seed);
        if self.work > 0 {
            std::hint::black_box(soleil::scenario::busy_work(
                self.work,
                (self.seed >> 40) as f64,
            ));
        }
        *msg = now_ns();
        for p in &self.ports {
            p.send(out, *msg)?;
        }
        // A periodic producer would now sleep until its next release. Ticks
        // are run back to back, so it yields instead: when both shard
        // threads share one core, the sinks then drain every tick rather
        // than only when the scheduler preempts a whole tick batch.
        if self.yield_each {
            std::thread::yield_now();
        }
        Ok(())
    }
}

#[derive(Debug)]
struct StampSink {
    log: Arc<LatencyLog>,
    last: u64,
    seen: u64,
    peer: Option<InternedPort>,
}

impl Content<u64> for StampSink {
    fn on_invoke(&mut self, _p: &str, msg: &mut u64, out: &mut dyn Ports<u64>) -> InvokeResult {
        let stamp = *msg;
        self.log.record(now_ns().saturating_sub(stamp));
        if stamp < self.last {
            self.log.fifo_violations.fetch_add(1, Ordering::Relaxed);
        }
        self.last = stamp;
        self.seen += 1;
        match &self.peer {
            Some(peer) => peer.call(out, msg),
            None => Ok(()),
        }
    }

    fn state_bytes(&self) -> usize {
        16
    }

    fn checkpoint(&self, image: &mut StateImage) -> bool {
        image.write_u64(self.seen)
    }

    fn restore(&mut self, image: &StateImage) {
        if let Some(s) = image.read_u64(0) {
            self.seen = s;
        }
    }
}

#[derive(Debug)]
struct Service;

impl Content<u64> for Service {
    fn on_invoke(&mut self, _p: &str, msg: &mut u64, _out: &mut dyn Ports<u64>) -> InvokeResult {
        *msg = lcg(*msg);
        Ok(())
    }
}

/// Ring depth of the stamped fan-out: deeper than one tick batch's
/// messages per ring, so a scheduler gap can never fill a ring.
pub const FAN_RING: usize = 1024;

/// The sharded fixture: a periodic producer alone on its shard fanning
/// out over two SPSC rings to two sinks that share the other shard.
pub fn fan_arch() -> SoleilResult<ValidatedArchitecture> {
    let mut b = BusinessView::new("fan");
    b.active_periodic("producer", "10ms")?;
    b.active_sporadic("sinkA")?;
    b.active_sporadic("sinkB")?;
    b.content("producer", "Stamper")?;
    b.content("sinkA", "Sink")?;
    b.content("sinkB", "Sink")?;
    b.require("producer", "out1", "I")?;
    b.require("producer", "out2", "I")?;
    b.provide("sinkA", "in", "I")?;
    b.provide("sinkB", "in", "I")?;
    b.bind_async("producer", "out1", "sinkA", "in", FAN_RING)?;
    b.bind_async("producer", "out2", "sinkB", "in", FAN_RING)?;
    let mut flow = DesignFlow::new(b);
    flow.thread_domain("P", ThreadKind::NoHeapRealtime, 30, &["producer"])?;
    flow.thread_domain("Q", ThreadKind::NoHeapRealtime, 25, &["sinkA", "sinkB"])?;
    flow.memory_area("ImmP", MemoryKind::Immortal, Some(1 << 20), &["P"])?;
    flow.memory_area("ImmQ", MemoryKind::Immortal, Some(1 << 20), &["Q"])?;
    Ok(flow.merge()?.into_validated()?)
}

/// Registry of the fan fixture.
pub fn fan_registry(seed: u64, work: u32, log: &Arc<LatencyLog>) -> ContentRegistry<u64> {
    let mut r: ContentRegistry<u64> = ContentRegistry::new();
    r.register("Stamper", move || {
        Box::new(Stamper {
            work,
            seed,
            ports: vec![InternedPort::new("out1"), InternedPort::new("out2")],
            yield_each: true,
        })
    });
    let l = Arc::clone(log);
    r.register("Sink", move || {
        Box::new(StampSink {
            log: Arc::clone(&l),
            last: 0,
            seen: 0,
            peer: None,
        })
    });
    r
}

/// Ring depth of the churn fixture. Every sharded `rebind_async` commit
/// provisions a replacement ring in the shard's immortal area, so the
/// depth sets how many commits fit before the fixture must be rebuilt.
pub const CHURN_RING: usize = 64;

/// The churn fixture (the reconfiguration gate's shape, extended with an
/// alternative sync target): a periodic producer on its own shard fans out
/// to `worker` and `sink`; `worker` calls `sink` synchronously, which
/// couples their domains into the second shard; `spare` is the
/// alternative sync and ring target.
pub fn churn_arch() -> SoleilResult<ValidatedArchitecture> {
    let mut b = BusinessView::new("churn");
    b.active_periodic("producer", "10ms")?;
    b.active_sporadic("worker")?;
    b.active_sporadic("sink")?;
    b.active_sporadic("spare")?;
    b.content("producer", "Stamper")?;
    b.content("worker", "Worker")?;
    b.content("sink", "Service")?;
    b.content("spare", "Service")?;
    b.require("producer", "out1", "I")?;
    b.require("producer", "out2", "I")?;
    b.require("worker", "peer", "I")?;
    b.provide("worker", "in", "I")?;
    b.provide("sink", "in", "I")?;
    b.provide("spare", "in", "I")?;
    b.bind_async("producer", "out1", "worker", "in", CHURN_RING)?;
    b.bind_async("producer", "out2", "sink", "in", CHURN_RING)?;
    b.bind_sync("worker", "peer", "sink", "in")?;
    let mut flow = DesignFlow::new(b);
    flow.thread_domain("A", ThreadKind::NoHeapRealtime, 30, &["producer"])?;
    flow.thread_domain("B", ThreadKind::NoHeapRealtime, 25, &["worker"])?;
    flow.thread_domain("C", ThreadKind::Realtime, 20, &["sink", "spare"])?;
    flow.memory_area("ImmA", MemoryKind::Immortal, Some(1 << 20), &["A"])?;
    flow.memory_area("ImmB", MemoryKind::Immortal, Some(1 << 20), &["B"])?;
    flow.memory_area("ImmC", MemoryKind::Immortal, Some(1 << 20), &["C"])?;
    Ok(flow.merge()?.into_validated()?)
}

/// Registry of the churn fixture; `worker` logs arrival latencies.
pub fn churn_registry(seed: u64, log: &Arc<LatencyLog>) -> ContentRegistry<u64> {
    let mut r: ContentRegistry<u64> = ContentRegistry::new();
    r.register("Stamper", move || {
        Box::new(Stamper {
            work: 0,
            seed,
            ports: vec![InternedPort::new("out1"), InternedPort::new("out2")],
            yield_each: false,
        })
    });
    let l = Arc::clone(log);
    r.register("Worker", move || {
        Box::new(StampSink {
            log: Arc::clone(&l),
            last: 0,
            seen: 0,
            peer: Some(InternedPort::new("peer")),
        })
    });
    r.register("Service", || Box::new(Service));
    r
}

/// The churn fixture's fault injector: errors and panics only (no latency
/// menu), about one worker activation in 256, replayable from the seed. At
/// that rate a transaction round of 1000 holds about four faults, so its
/// p99 is the tail of the transactions that run beside faults and
/// restarts, not the cost of unwinding a panic, which varies with the
/// seed's mix of panics and errors.
pub fn churn_injector(seed: u64) -> FaultInjector {
    FaultInjector::new("worker", seed, 256)
        .with_menu(FaultInjector::MENU_ERROR | FaultInjector::MENU_PANIC)
}

/// Faults `injector` would inject over its first `activations` draws.
pub fn predicted_faults(injector: &FaultInjector, activations: u64) -> u64 {
    (1..=activations)
        .filter(|&n| injector.fault_at(n).is_some())
        .count() as u64
}
