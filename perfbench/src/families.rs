//! The four measured loops. Each is a closed loop: one caller issues
//! back-to-back calls and times each one. A loop runs in rounds; modes are
//! interleaved in a seeded order within every round, so a drift that
//! moves all modes together between rounds cannot favour one of them.
//! Every loop checks its outputs against an oracle after each round.

use std::sync::Arc;
use std::time::Instant;

use soleil::core::ValidatedArchitecture;
use soleil::prelude::*;
use soleil::scenario::{motivation_validated, registry_with_probe, OoSystem, ScenarioProbe};

use crate::affinity;
use crate::alloc::thread_allocs;
use crate::fixtures::{self as fx, LatencyLog, RelayRig};
use crate::stats::Rounds;
use crate::trace::span;

/// The three generation modes, in metric-name order.
pub const MODES: [Mode; 3] = [Mode::Soleil, Mode::MergeAll, Mode::UltraMerge];

/// Metric-name suffix of a mode.
pub fn mode_key(mode: Mode) -> &'static str {
    match mode {
        Mode::Soleil => "soleil",
        Mode::MergeAll => "merge_all",
        _ => "ultra_merge",
    }
}

/// Seeded xorshift64* generator for op orders and interleavings.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator whose sequence is fixed by `seed`.
    pub fn new(seed: u64) -> Self {
        Rng(fx::next_payload(seed) | 1)
    }

    /// The next 64 random bits.
    pub fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// A seeded permutation of `0..n`.
    pub fn order(&mut self, n: usize) -> Vec<usize> {
        let mut v: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = (self.next() % (i as u64 + 1)) as usize;
            v.swap(i, j);
        }
        v
    }
}

/// Operations attempted and failed, plus the first few failure reasons.
#[derive(Debug, Default)]
pub struct Ledger {
    /// Operations attempted (calls, checks).
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    notes: Vec<String>,
}

impl Ledger {
    /// Counts one attempted call; a failure when it returned `Err`.
    pub fn call<T, E: std::fmt::Display>(&mut self, what: &str, r: Result<T, E>) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.fail(format!("{what}: {e}"));
                None
            }
        }
    }

    /// Counts `n` failures of one kind when `bad > 0`.
    pub fn expect_zero(&mut self, what: &str, bad: u64) {
        if bad > 0 {
            self.failed += bad - 1;
            self.fail(format!("{what}: {bad}"));
        }
    }

    /// Counts one failed check when `ok` is false.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.fail(what());
        }
    }

    fn fail(&mut self, note: String) {
        self.failed += 1;
        if self.notes.len() < 8 {
            self.notes.push(note);
        }
    }

    /// The first recorded failure reasons.
    pub fn notes(&self) -> &[String] {
        &self.notes
    }
}

fn elapsed_ns(t0: Instant) -> u64 {
    t0.elapsed().as_nanos() as u64
}

/// Engine counters per operation, for the per-layer count metrics.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counts {
    /// Operations the counters cover.
    pub ops: u64,
    /// Activations.
    pub activations: u64,
    /// Asynchronous messages.
    pub async_msgs: u64,
    /// Synchronous calls.
    pub sync_calls: u64,
    /// Heap allocations on the measuring thread(s).
    pub heap_allocs: u64,
    /// Substrate allocations.
    pub substrate_allocs: u64,
    /// Port-name string comparisons.
    pub string_compares: u64,
    /// Name lookups.
    pub name_lookups: u64,
}

impl Counts {
    fn add_serial(&mut self, ops: u64, before: &Snapshot, after: &Snapshot, heap: u64) {
        self.ops += ops;
        self.activations += after.stats.activations - before.stats.activations;
        self.async_msgs += after.stats.async_messages - before.stats.async_messages;
        self.sync_calls += after.stats.sync_calls - before.stats.sync_calls;
        self.heap_allocs += heap;
        self.substrate_allocs += after.substrate - before.substrate;
        self.string_compares += after.compares - before.compares;
        self.name_lookups += after.lookups - before.lookups;
    }

    /// `field` per operation.
    pub fn per_op(&self, field: u64) -> f64 {
        field as f64 / self.ops.max(1) as f64
    }
}

/// Heap and substrate allocations of a measured loop, every mode: the
/// steady-state transaction path allocates neither, so any is a failure.
#[derive(Debug, Default, Clone, Copy)]
pub struct Allocs {
    /// Heap allocations on the measuring thread(s).
    pub heap: u64,
    /// Substrate allocations.
    pub substrate: u64,
}

impl Allocs {
    fn add(&mut self, heap: u64, before: &Snapshot, after: &Snapshot) {
        self.heap += heap;
        self.substrate += after.substrate - before.substrate;
    }

    /// Counts every allocation as a failed operation.
    pub fn check(&self, what: &str, led: &mut Ledger) {
        led.expect_zero(&format!("{what} heap allocations"), self.heap);
        led.expect_zero(&format!("{what} substrate allocations"), self.substrate);
    }
}

struct Snapshot {
    stats: EngineStats,
    substrate: u64,
    compares: u64,
    lookups: u64,
}

fn snapshot<P: soleil::membrane::content::Payload>(dep: &Deployment<P>) -> Snapshot {
    Snapshot {
        stats: dep.stats(),
        substrate: dep.memory().alloc_count(),
        compares: dep.string_compares(),
        lookups: dep.name_lookups(),
    }
}

// ---------------------------------------------------------------------------
// relay: zero-work 16-stage relay, serial, three modes
// ---------------------------------------------------------------------------

/// Transactions per latency round: enough for a p99 with ten samples
/// beyond it.
pub const TXN_ROUND: usize = 1000;

/// Deployments per mode. Transaction tails differ between two deployments
/// of one architecture by up to a tenth (memory layout), so each mode's
/// samples come from several deployments in turn.
pub const RIGS_PER_MODE: usize = 6;

/// The framework-only relay in the three modes.
pub struct RelayLoop {
    /// `RIGS_PER_MODE` rigs per mode; rig `k` runs mode `k % 3`.
    rigs: Vec<RelayRig>,
    /// Per-mode transaction latencies.
    pub lat: [Rounds; 3],
    /// Engine counters of the MERGE-ALL rigs.
    pub counts: Counts,
    /// Allocations of every rig.
    pub allocs: Allocs,
    rng: Rng,
    req: u32,
}

impl RelayLoop {
    /// Deploys the relay in every mode, the head under the baseline
    /// contract with an armed, never-due release.
    pub fn setup(seed: u64) -> SoleilResult<Self> {
        let arch = fx::relay_arch(fx::RELAY_STAGES)?;
        let rigs = (0..3 * RIGS_PER_MODE)
            .map(|k| {
                let seed = seed.wrapping_add(k as u64);
                fx::relay_rig(&arch, fx::RELAY_STAGES, MODES[k % 3], true, seed)
            })
            .collect::<SoleilResult<Vec<_>>>()?;
        Ok(RelayLoop {
            rigs,
            lat: Default::default(),
            counts: Counts::default(),
            allocs: Allocs::default(),
            rng: Rng::new(seed ^ 0x5e1a),
            req: 0,
        })
    }

    /// Forgets the samples and counters taken so far (after a warm-up).
    pub fn clear(&mut self) {
        self.lat = Default::default();
        self.counts = Counts::default();
        self.allocs = Allocs::default();
    }

    /// Bytes of one deployment per mode.
    pub fn footprint(&self) -> usize {
        self.rigs[..3]
            .iter()
            .map(|r| r.dep.footprint().total_bytes())
            .sum()
    }

    /// One round: `batch` transactions on every rig, rigs interleaved.
    pub fn round(&mut self, batch: u64, led: &mut Ledger) {
        for k in self.rng.order(self.rigs.len()) {
            let m = k % 3;
            let rig = &mut self.rigs[k];
            let lat = &mut self.lat[m];
            lat.roll(TXN_ROUND);
            let before = snapshot(&rig.dep);
            let heap0 = thread_allocs();
            let mut errors = 0u64;
            for _ in 0..batch {
                self.req = self.req.wrapping_add(1);
                let t0 = Instant::now();
                let r = span("runtime.system.run_transaction", self.req, || {
                    rig.dep.run_transaction(rig.head)
                });
                lat.push(elapsed_ns(t0));
                errors += u64::from(r.is_err());
            }
            let heap = thread_allocs() - heap0;
            let after = snapshot(&rig.dep);
            led.attempted += batch;
            led.expect_zero("relay run_transaction errors", errors);
            self.allocs.add(heap, &before, &after);
            if MODES[m] == Mode::MergeAll {
                self.counts.add_serial(batch, &before, &after, heap);
            }
            rig.oracle.advance(batch);
            let (sum, count) = (rig.probe.sum(), rig.probe.count());
            let want = (rig.oracle.sum, rig.oracle.count);
            led.check((sum, count) == want, || {
                format!(
                    "relay {}: tail saw ({sum}, {count}), oracle {want:?}",
                    MODES[m]
                )
            });
            let acts = after.stats.activations - before.stats.activations;
            led.check(acts == batch * (fx::RELAY_STAGES as u64 + 1), || {
                format!(
                    "relay {}: {acts} activations for {batch} transactions",
                    MODES[m]
                )
            });
        }
    }

    /// Deadline misses under the baseline contract and allocations, every
    /// rig.
    pub fn finish(&self, led: &mut Ledger) {
        let misses: u64 = self.rigs.iter().map(|r| r.dep.deadline_misses()).sum();
        led.expect_zero("relay deadline misses", misses);
        self.allocs.check("relay", led);
    }
}

// ---------------------------------------------------------------------------
// fig7: the motivation scenario, three modes plus the OO baseline
// ---------------------------------------------------------------------------

/// Fig. 7 deployments per mode (see [`RIGS_PER_MODE`]).
pub const FIG7_RIGS_PER_MODE: usize = 2;

/// The paper's Fig. 7 transaction in the three modes, with the OO baseline
/// alongside as the functional oracle.
pub struct Fig7Loop {
    deps: Vec<(
        Deployment<soleil::scenario::Measurement>,
        ComponentRef,
        ScenarioProbe,
    )>,
    oo: OoSystem,
    oo_probe: ScenarioProbe,
    /// Per-mode transaction latencies.
    pub lat: [Rounds; 3],
    /// OO baseline latencies.
    pub oo_lat: Rounds,
    /// Engine counters of the MERGE-ALL deployment.
    pub counts: Counts,
    /// Allocations of every deployment.
    pub allocs: Allocs,
    rng: Rng,
    txns: u64,
    req: u32,
}

impl Fig7Loop {
    /// Parses, validates and deploys the scenario in every mode.
    pub fn setup(seed: u64) -> SoleilResult<Self> {
        let arch = motivation_validated()?;
        let mut deps = Vec::new();
        for k in 0..3 * FIG7_RIGS_PER_MODE {
            let mode = MODES[k % 3];
            let probe = ScenarioProbe::new();
            let mut dep = deploy(&arch, mode, &registry_with_probe(&probe))?;
            let head = dep.resolve("ProductionLine")?;
            dep.attach_contract(head, fx::baseline_contract())?;
            dep.schedule_release(head, AbsoluteTime::MAX)?;
            deps.push((dep, head, probe));
        }
        let oo_probe = ScenarioProbe::new();
        let oo = OoSystem::new(&oo_probe)?;
        Ok(Fig7Loop {
            deps,
            oo,
            oo_probe,
            lat: Default::default(),
            oo_lat: Rounds::default(),
            counts: Counts::default(),
            allocs: Allocs::default(),
            rng: Rng::new(seed ^ 0xf167),
            txns: 0,
            req: 0,
        })
    }

    /// Forgets the samples and counters taken so far (after a warm-up).
    pub fn clear(&mut self) {
        self.lat = Default::default();
        self.oo_lat = Rounds::default();
        self.counts = Counts::default();
        self.allocs = Allocs::default();
    }

    /// Bytes of one deployment per mode.
    pub fn footprint(&self) -> usize {
        self.deps[..3]
            .iter()
            .map(|d| d.0.footprint().total_bytes())
            .sum()
    }

    /// One round of `batch` transactions (a multiple of ten) on every
    /// deployment and on the OO baseline, interleaved.
    pub fn round(&mut self, batch: u64, led: &mut Ledger) {
        let oo_ix = self.deps.len();
        for k in self.rng.order(oo_ix + 1) {
            if k == oo_ix {
                self.oo_lat.roll(TXN_ROUND);
                let mut errors = 0u64;
                for _ in 0..batch {
                    self.req = self.req.wrapping_add(1);
                    let t0 = Instant::now();
                    let r = span("scenario.oo_transaction", self.req, || {
                        self.oo.run_transaction()
                    });
                    self.oo_lat.push(elapsed_ns(t0));
                    errors += u64::from(r.is_err());
                }
                led.attempted += batch;
                led.expect_zero("OO transaction errors", errors);
                continue;
            }
            let (dep, head, _) = &mut self.deps[k];
            let lat = &mut self.lat[k % 3];
            lat.roll(TXN_ROUND);
            let before = snapshot(dep);
            let heap0 = thread_allocs();
            let mut errors = 0u64;
            for _ in 0..batch {
                self.req = self.req.wrapping_add(1);
                let t0 = Instant::now();
                let r = span("runtime.system.run_transaction", self.req, || {
                    dep.run_transaction(*head)
                });
                lat.push(elapsed_ns(t0));
                errors += u64::from(r.is_err());
            }
            let heap = thread_allocs() - heap0;
            let after = snapshot(dep);
            led.attempted += batch;
            led.expect_zero("fig7 run_transaction errors", errors);
            self.allocs.add(heap, &before, &after);
            if MODES[k % 3] == Mode::MergeAll {
                self.counts.add_serial(batch, &before, &after, heap);
            }
        }
        self.txns += batch;
        let oo_sum = self.oo_probe.value_sum();
        for (i, (_, _, probe)) in self.deps.iter().enumerate() {
            let mode = MODES[i % 3];
            led.check(probe.audits() == self.txns, || {
                format!(
                    "fig7 {mode}: {} audits for {} txns",
                    probe.audits(),
                    self.txns
                )
            });
            led.check(probe.consoles() * 10 == self.txns, || {
                format!(
                    "fig7 {mode}: {} consoles for {} txns",
                    probe.consoles(),
                    self.txns
                )
            });
            let delta = (probe.value_sum() - oo_sum).abs();
            led.check(delta <= 1e-9 * oo_sum.abs().max(1.0), || {
                format!("fig7 {mode}: fingerprint drifted from OO by {delta}")
            });
        }
    }

    /// Deadline misses under the baseline contract and allocations, every
    /// mode.
    pub fn finish(&self, led: &mut Ledger) {
        let misses: u64 = self.deps.iter().map(|d| d.0.deadline_misses()).sum();
        led.expect_zero("fig7 deadline misses", misses);
        self.allocs.check("fig7", led);
    }
}

// ---------------------------------------------------------------------------
// sharded: stamped fan-out over SPSC rings, two shards
// ---------------------------------------------------------------------------

/// Ticks per `run_ticks` call: below the rings' depth, so a tick batch
/// can never fill a ring even if the sink shard is descheduled throughout.
pub const FAN_TICKS: u64 = 256;

/// The two-shard stamped fan-out.
pub struct FanLoop {
    sys: ParallelSystem<u64>,
    log: Arc<LatencyLog>,
    /// Stamp-to-arrival latencies.
    pub lat: Rounds,
    /// Per round: messages delivered per second of `run_ticks` wall time.
    pub rate: Vec<f64>,
    /// Per-tick engine counters.
    pub counts: Counts,
    req: u32,
}

impl FanLoop {
    /// Deploys the fan fixture as a MERGE-ALL parallel deployment.
    pub fn setup(seed: u64) -> SoleilResult<Self> {
        let arch = fx::fan_arch()?;
        let log = LatencyLog::new(4 * FAN_TICKS as usize);
        let mut sys = deploy_parallel(
            &arch,
            Mode::MergeAll,
            &fx::fan_registry(seed, fx::PRODUCER_WORK, &log),
        )?;
        sys.attach_contract("producer", fx::baseline_contract())?;
        sys.schedule_release("producer", AbsoluteTime::MAX)?;
        Ok(FanLoop {
            sys,
            log,
            lat: Rounds::default(),
            rate: Vec::new(),
            counts: Counts::default(),
            req: 0,
        })
    }

    /// Forgets the samples and counters taken so far (after a warm-up).
    pub fn clear(&mut self) {
        self.lat = Rounds::default();
        self.rate.clear();
        self.counts = Counts::default();
    }

    /// The deployment, for probes that drive it directly.
    pub fn sys_mut(&mut self) -> &mut ParallelSystem<u64> {
        &mut self.sys
    }

    /// Discards stamps logged by ticks the loop did not drive itself.
    pub fn clear_log(&self) {
        self.log.clear();
    }

    /// Shards of the deployment.
    pub fn shard_count(&self) -> usize {
        self.sys.shard_count()
    }

    /// Bytes of every shard.
    pub fn footprint(&self) -> usize {
        (0..self.sys.shard_count())
            .map(|s| self.sys.shard_system(s).footprint().total_bytes())
            .sum()
    }

    /// One round of `calls` tick batches.
    pub fn round(&mut self, calls: u64, led: &mut Ledger) {
        self.lat.roll(2000);
        let mut samples = Vec::with_capacity((2 * FAN_TICKS) as usize);
        let (mut wall_ns, mut round_delivered) = (0u64, 0u64);
        for _ in 0..calls {
            self.req = self.req.wrapping_add(1);
            let before = self.sys.stats();
            let compares0 = self.sys.string_compares();
            let t0 = Instant::now();
            let r = span("runtime.parallel.run_ticks", self.req, || {
                affinity::unpinned(|| {
                    self.sys
                        .run_ticks_instrumented(0, FAN_TICKS, &thread_allocs)
                })
            });
            wall_ns += elapsed_ns(t0);
            let Some(runs) = led.call("fan run_ticks", r) else {
                continue;
            };
            let after = self.sys.stats();
            samples.clear();
            self.log.drain_into(&mut samples);
            for &s in &samples {
                self.lat.push(s);
            }
            let delivered = after.delivered_messages - before.delivered_messages;
            round_delivered += delivered;
            led.check(samples.len() as u64 == delivered, || {
                format!(
                    "fan: {} stamps logged, {delivered} delivered",
                    samples.len()
                )
            });
            self.counts.ops += FAN_TICKS;
            self.counts.activations += after.activations - before.activations;
            self.counts.async_msgs += after.async_messages - before.async_messages;
            self.counts.sync_calls += after.sync_calls - before.sync_calls;
            self.counts.heap_allocs += runs.iter().map(|r| r.probe_delta).sum::<u64>();
            self.counts.substrate_allocs += runs.iter().map(|r| r.substrate_allocs).sum::<u64>();
            self.counts.string_compares += self.sys.string_compares() - compares0;
        }
        self.rate
            .push(round_delivered as f64 / (wall_ns.max(1) as f64 / 1e9));
        led.attempted += round_delivered;
    }

    /// Full-ring rejections so far.
    pub fn rejections(&self) -> u64 {
        let st = self.sys.stats();
        st.dropped_messages - st.quarantine_drops
    }

    /// Ledger identity, FIFO order, rejections, deadline misses and
    /// allocations.
    pub fn finish(&self, led: &mut Ledger) {
        let st = self.sys.stats();
        led.check(
            st.async_messages == st.delivered_messages + st.quarantine_drops,
            || {
                format!(
                    "fan ledger: async {} != delivered {} + quarantine {}",
                    st.async_messages, st.delivered_messages, st.quarantine_drops
                )
            },
        );
        led.expect_zero("fan full-ring rejections", self.rejections());
        led.expect_zero(
            "fan FIFO violations",
            self.log
                .fifo_violations
                .load(std::sync::atomic::Ordering::Relaxed),
        );
        led.expect_zero("fan deadline misses", self.sys.deadline_misses());
        Allocs {
            heap: self.counts.heap_allocs,
            substrate: self.counts.substrate_allocs,
        }
        .check("fan", led);
    }
}

// ---------------------------------------------------------------------------
// churn: transactions and ticks interleaved with reconfiguration batches
// ---------------------------------------------------------------------------

/// Cycles between redeployments of the churn fixture: every sharded commit
/// leaves about 1.5 KB in a shard's immortal area, so the fixture is
/// rebuilt long before the area fills.
pub const CHURN_EPOCH: u64 = 128;
/// Timed transactions per serial mode per churn cycle. The first
/// transactions after a commit run on freshly recompiled plans; with 64 a
/// cycle they stay under 1% of the samples, below the p99.
pub const CHURN_K: u64 = 64;
/// Sharded ticks per churn cycle: fewer than the rings' 64 slots.
pub const CHURN_TICKS: u64 = 16;
/// Every this many cycles the batch is also tried and refused.
pub const CHURN_REFUSE_EVERY: u64 = 2;
/// Cycles per churn round. The first cycles after other loops have run
/// see cold caches, so a round is long enough for its median to be a
/// warm one.
pub const CHURN_ROUND: u64 = 64;

struct ChurnSerial {
    dep: Deployment<u64>,
    producer: ComponentRef,
    worker: ComponentRef,
    sink: ComponentRef,
    spare: ComponentRef,
}

fn churn_serial(arch: &ValidatedArchitecture, mode: Mode, seed: u64) -> SoleilResult<ChurnSerial> {
    // Serial arrivals are not timed: the log keeps no samples.
    let log = LatencyLog::new(0);
    let mut dep = deploy(arch, mode, &fx::churn_registry(seed, &log))?;
    let producer = dep.resolve("producer")?;
    let worker = dep.resolve("worker")?;
    let sink = dep.resolve("sink")?;
    let spare = dep.resolve("spare")?;
    dep.attach_contract(producer, fx::baseline_contract())?;
    dep.schedule_release(producer, AbsoluteTime::MAX)?;
    dep.set_fault_policy(worker, fx::restart_policy())?;
    dep.enable_checkpoint(worker, 8)?;
    dep.install_fault_injector(worker, fx::churn_injector(seed))?;
    Ok(ChurnSerial {
        dep,
        producer,
        worker,
        sink,
        spare,
    })
}

fn churn_parallel(
    arch: &ValidatedArchitecture,
    seed: u64,
    log: &Arc<LatencyLog>,
) -> SoleilResult<ParallelSystem<u64>> {
    let mut sys = deploy_parallel(arch, Mode::MergeAll, &fx::churn_registry(seed, log))?;
    sys.attach_contract("producer", fx::baseline_contract())?;
    sys.schedule_release("producer", AbsoluteTime::MAX)?;
    sys.set_fault_policy("worker", fx::restart_policy())?;
    sys.enable_checkpoint("worker", 8)?;
    sys.install_fault_injector("worker", fx::churn_injector(seed))?;
    Ok(sys)
}

/// The state a committed batch leaves behind, alternating each cycle.
#[derive(Debug, Clone, Copy)]
pub struct Flip(pub bool);

impl Flip {
    fn peer_target(self) -> &'static str {
        if self.0 {
            "spare"
        } else {
            "sink"
        }
    }
    fn spare_domain(self) -> &'static str {
        if self.0 {
            "B"
        } else {
            "C"
        }
    }
    fn policy(self) -> FaultPolicy {
        if self.0 {
            FaultPolicy::Isolate
        } else {
            FaultPolicy::Escalate
        }
    }
}

/// One reconfiguration op of the churn batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Stop then start `sink`.
    StopStart,
    /// Rebind `worker.peer` between `sink` and `spare`.
    Rebind,
    /// Swap `sink`'s fault policy.
    Policy,
    /// Attach or detach `sink`'s contract.
    Contract,
    /// Move `spare` between domains C and B.
    Reassign,
    /// Move `producer.out2` between `sink` and `spare` (sharded only).
    RebindAsync,
}

impl Op {
    /// Metric-name key of the op.
    pub fn key(self) -> &'static str {
        match self {
            Op::StopStart => "stop_start",
            Op::Rebind => "rebind",
            Op::Policy => "policy",
            Op::Contract => "contract",
            Op::Reassign => "reassign",
            Op::RebindAsync => "rebind_async",
        }
    }

    /// Every op a serial batch applies.
    pub const SERIAL: [Op; 5] = [
        Op::StopStart,
        Op::Rebind,
        Op::Policy,
        Op::Contract,
        Op::Reassign,
    ];
}

fn span_op<T>(op: Op, req: u32, f: impl FnOnce() -> T) -> T {
    let name = match op {
        Op::StopStart => "runtime.deploy.stop_start",
        Op::Rebind => "runtime.deploy.rebind",
        Op::Policy => "runtime.deploy.set_fault_policy",
        Op::Contract => "runtime.deploy.contract",
        Op::Reassign => "runtime.deploy.reassign_domain",
        Op::RebindAsync => "runtime.deploy.rebind_async",
    };
    span(name, req, f)
}

/// Applies `ops` in order to a serial deployment's transaction.
pub fn apply_serial(
    txn: &mut Reconfiguration<'_, u64>,
    rig: (ComponentRef, ComponentRef, ComponentRef),
    ops: &[Op],
    flip: Flip,
    req: u32,
) -> Result<(), FrameworkError> {
    let (worker, sink, spare) = rig;
    for &op in ops {
        span_op(op, req, || match op {
            Op::StopStart => {
                txn.stop(sink)?;
                txn.start(sink)
            }
            Op::Rebind => txn.rebind(worker, "peer", if flip.0 { spare } else { sink }),
            Op::Policy => txn.set_fault_policy(sink, flip.policy()),
            Op::Contract => {
                if flip.0 {
                    txn.attach_contract(sink, fx::baseline_contract())
                } else {
                    txn.detach_contract(sink).map(|_| ())
                }
            }
            Op::Reassign => txn.reassign_domain(spare, flip.spare_domain()),
            Op::RebindAsync => Ok(()),
        })?;
    }
    Ok(())
}

/// Applies `ops` in order to a parallel deployment's transaction.
pub fn apply_parallel(
    txn: &mut ParallelReconfiguration<'_, u64>,
    ops: &[Op],
    flip: Flip,
    req: u32,
) -> Result<(), FrameworkError> {
    for &op in ops {
        span_op(op, req, || match op {
            Op::StopStart => {
                txn.stop("sink")?;
                txn.start("sink")
            }
            Op::Rebind => txn.rebind("worker", "peer", flip.peer_target()),
            Op::Policy => txn.set_fault_policy("sink", flip.policy()),
            Op::Contract => {
                if flip.0 {
                    txn.attach_contract("sink", fx::baseline_contract())
                } else {
                    txn.detach_contract("sink").map(|_| ())
                }
            }
            Op::Reassign => txn.reassign_domain("spare", flip.spare_domain()),
            Op::RebindAsync => txn.rebind_async("producer", "out2", flip.peer_target()),
        })?;
    }
    Ok(())
}

/// The refusal every refused batch ends with.
const REFUSAL: &str = "churn batch refused on purpose";

/// Serial and sharded deployments of the churn fixture, driven through
/// transactions, ticks and reconfiguration batches.
pub struct ChurnLoop {
    arch: ValidatedArchitecture,
    seed: u64,
    serial: Vec<ChurnSerial>,
    sharded: ParallelSystem<u64>,
    log: Arc<LatencyLog>,
    /// Per-mode transaction latencies (serial deployments).
    pub lat: [Rounds; 3],
    /// Committed batch latencies, serial MERGE-ALL then sharded.
    pub reconfig: [Rounds; 2],
    /// Refused batch latencies, serial MERGE-ALL then sharded.
    pub rollback: [Rounds; 2],
    /// Engine counters of the serial MERGE-ALL deployment.
    pub counts: Counts,
    /// Full-ring rejections of retired sharded deployments.
    pub retired_rejections: u64,
    rng: Rng,
    cycle: u64,
}

impl ChurnLoop {
    /// Deploys the churn fixture serially in every mode and sharded.
    pub fn setup(seed: u64) -> SoleilResult<Self> {
        let arch = fx::churn_arch()?;
        // The sharded worker's log serves only the FIFO check: no samples.
        let log = LatencyLog::new(0);
        let serial = MODES
            .iter()
            .map(|&m| churn_serial(&arch, m, seed))
            .collect::<SoleilResult<Vec<_>>>()?;
        let sharded = churn_parallel(&arch, seed, &log)?;
        Ok(ChurnLoop {
            arch,
            seed,
            serial,
            sharded,
            log,
            lat: Default::default(),
            reconfig: Default::default(),
            rollback: Default::default(),
            counts: Counts::default(),
            retired_rejections: 0,
            rng: Rng::new(seed ^ 0xc4a2),
            cycle: 0,
        })
    }

    /// Forgets the samples and counters taken so far (after a warm-up).
    pub fn clear(&mut self) {
        self.lat = Default::default();
        self.reconfig = Default::default();
        self.rollback = Default::default();
        self.counts = Counts::default();
    }

    /// The serial MERGE-ALL deployment, for probes that drive it directly.
    pub fn serial_merge_all_mut(&mut self) -> &mut Deployment<u64> {
        &mut self.serial[1].dep
    }

    /// Bytes of every deployment.
    pub fn footprint(&self) -> usize {
        let serial: usize = self
            .serial
            .iter()
            .map(|s| s.dep.footprint().total_bytes())
            .sum();
        let sharded: usize = (0..self.sharded.shard_count())
            .map(|s| self.sharded.shard_system(s).footprint().total_bytes())
            .sum();
        serial + sharded
    }

    /// One round of `cycles` churn cycles.
    pub fn round(&mut self, cycles: u64, led: &mut Ledger) {
        for l in &mut self.lat {
            l.roll(TXN_ROUND);
        }
        for r in &mut self.reconfig {
            r.roll(CHURN_ROUND as usize);
        }
        for r in &mut self.rollback {
            r.roll((CHURN_ROUND / CHURN_REFUSE_EVERY) as usize);
        }
        for _ in 0..cycles {
            if self.cycle > 0 && self.cycle.is_multiple_of(CHURN_EPOCH) {
                self.redeploy(led);
            }
            self.cycle += 1;
            self.one_cycle(led);
        }
    }

    fn one_cycle(&mut self, led: &mut Ledger) {
        let req = self.cycle as u32;
        let flip = Flip(self.cycle % 2 == 1);

        // K timed transactions per serial mode, modes interleaved.
        for m in self.rng.order(3) {
            let rig = &mut self.serial[m];
            let before = snapshot(&rig.dep);
            let mut errors = 0u64;
            for _ in 0..CHURN_K {
                let t0 = Instant::now();
                let r = span("runtime.system.run_transaction", req, || {
                    rig.dep.run_transaction(rig.producer)
                });
                self.lat[m].push(elapsed_ns(t0));
                errors += u64::from(r.is_err());
            }
            led.attempted += CHURN_K;
            led.expect_zero("churn run_transaction errors", errors);
            // Fire due supervised restarts on the virtual clock.
            let until = rig
                .dep
                .timer_clock()
                .saturating_add(RelativeTime::from_millis(100));
            let fired = span("runtime.timer.fire_timers_until", req, || {
                rig.dep.fire_timers_until(until)
            });
            led.call("churn fire_timers_until", fired);
            if MODES[m] == Mode::MergeAll {
                let after = snapshot(&rig.dep);
                self.counts.add_serial(CHURN_K, &before, &after, 0);
            }
        }

        // K ticks on the sharded deployment.
        let r = span("runtime.parallel.run_ticks", req, || {
            affinity::unpinned(|| self.sharded.run_ticks(CHURN_TICKS))
        });
        led.call("churn run_ticks", r);

        // The batch, in a seeded op order: committed on the serial
        // MERGE-ALL deployment and on the sharded one, and every few
        // cycles also tried and refused first.
        let order = self.rng.order(Op::SERIAL.len() + 1);
        let sharded_ops: Vec<Op> = order
            .iter()
            .map(|&i| Op::SERIAL.get(i).copied().unwrap_or(Op::RebindAsync))
            .collect();
        let serial_ops: Vec<Op> = sharded_ops
            .iter()
            .copied()
            .filter(|&o| o != Op::RebindAsync)
            .collect();
        let refuse = self.cycle.is_multiple_of(CHURN_REFUSE_EVERY);
        let rig = &mut self.serial[1];
        let refs = (rig.worker, rig.sink, rig.spare);
        if refuse {
            let digest = rig.dep.system().structural_digest();
            let t0 = Instant::now();
            let r = span("runtime.deploy.reconfigure", req, || {
                rig.dep.reconfigure(|txn| {
                    apply_serial(txn, refs, &serial_ops, flip, req)?;
                    Err::<(), _>(FrameworkError::Content(REFUSAL.into()))
                })
            });
            self.rollback[0].push(elapsed_ns(t0));
            check_refusal(led, "serial", &r.err());
            led.check(rig.dep.system().structural_digest() == digest, || {
                "serial refused batch changed the structural digest".into()
            });
        }
        let t0 = Instant::now();
        let r = span("runtime.deploy.reconfigure", req, || {
            rig.dep
                .reconfigure(|txn| apply_serial(txn, refs, &serial_ops, flip, req))
        });
        self.reconfig[0].push(elapsed_ns(t0));
        if led.call("serial reconfigure", r).is_some() {
            check_serial_visible(led, rig, flip);
        }

        if refuse {
            let digests = self.sharded.structural_digests();
            let t0 = Instant::now();
            let r = span("runtime.deploy.reconfigure", req, || {
                self.sharded.reconfigure(|txn| {
                    apply_parallel(txn, &sharded_ops, flip, req)?;
                    Err::<(), _>(FrameworkError::Content(REFUSAL.into()))
                })
            });
            self.rollback[1].push(elapsed_ns(t0));
            check_refusal(led, "sharded", &r.err());
            led.check(self.sharded.structural_digests() == digests, || {
                "sharded refused batch changed the structural digests".into()
            });
        }
        let t0 = Instant::now();
        let r = span("runtime.deploy.reconfigure", req, || {
            self.sharded
                .reconfigure(|txn| apply_parallel(txn, &sharded_ops, flip, req))
        });
        self.reconfig[1].push(elapsed_ns(t0));
        if led.call("sharded reconfigure", r).is_some() {
            let policy = self.sharded.fault_policy("sink");
            led.check(policy.as_ref().ok() == Some(&flip.policy()), || {
                format!("sharded policy not visible after commit: {policy:?}")
            });
            let contract = self.sharded.latency_snapshot("sink").map(|s| s.is_some());
            led.check(contract.as_ref().ok() == Some(&flip.0), || {
                format!("sharded contract not visible after commit: {contract:?}")
            });
        }
    }

    /// Checks the retiring deployments' oracles and builds fresh ones.
    fn redeploy(&mut self, led: &mut Ledger) {
        self.check_oracles(led);
        let st = self.sharded.stats();
        self.retired_rejections += st.dropped_messages - st.quarantine_drops;
        let fresh = span("generator.deploy", self.cycle as u32, || {
            let serial = MODES
                .iter()
                .map(|&m| churn_serial(&self.arch, m, self.seed))
                .collect::<SoleilResult<Vec<_>>>()?;
            let sharded = churn_parallel(&self.arch, self.seed, &self.log)?;
            Ok::<_, SoleilError>((serial, sharded))
        });
        if let Some((serial, sharded)) = led.call("churn redeploy", fresh) {
            self.serial = serial;
            self.sharded = sharded;
        }
    }

    /// The message ledger, injected-fault prediction, FIFO order and
    /// deadline misses of the live deployments.
    pub fn check_oracles(&self, led: &mut Ledger) {
        let predictor = fx::churn_injector(self.seed);
        for rig in &self.serial {
            let st = rig.dep.stats();
            led.check(ledger_balanced(&st), || {
                format!("churn {} ledger unbalanced: {st:?}", rig.dep.mode())
            });
            let counts = rig.dep.injector_counts(rig.worker);
            match counts {
                Ok(Some((seen, injected))) => {
                    let want = fx::predicted_faults(&predictor, seen);
                    led.check(injected == want, || {
                        format!(
                            "churn {}: injected {injected}, predicted {want}",
                            rig.dep.mode()
                        )
                    });
                }
                other => led.check(false, || format!("churn injector counts: {other:?}")),
            }
            led.expect_zero("churn deadline misses", rig.dep.deadline_misses());
        }
        let st = self.sharded.stats();
        led.check(ledger_balanced(&st), || {
            format!("churn sharded ledger unbalanced: {st:?}")
        });
        if let Ok(Some((seen, injected))) = self.sharded.injector_counts("worker") {
            let want = fx::predicted_faults(&predictor, seen);
            led.check(injected == want, || {
                format!("churn sharded: injected {injected}, predicted {want}")
            });
        }
        led.expect_zero(
            "churn sharded deadline misses",
            self.sharded.deadline_misses(),
        );
        led.expect_zero(
            "churn FIFO violations",
            self.log
                .fifo_violations
                .swap(0, std::sync::atomic::Ordering::Relaxed),
        );
    }

    /// Full-ring rejections across every sharded deployment so far.
    pub fn rejections(&self) -> u64 {
        let st = self.sharded.stats();
        self.retired_rejections + st.dropped_messages - st.quarantine_drops
    }

    /// Final oracle check.
    pub fn finish(&self, led: &mut Ledger) {
        self.check_oracles(led);
        led.expect_zero("churn full-ring rejections", self.rejections());
    }
}

/// The message ledger under injected faults: every pushed message was
/// delivered, counted-dropped at a quarantine gate, or consumed by a
/// contained fault. The engine counts a message whose activation faulted
/// as neither delivered nor dropped, so between restarts the exact identity
/// `async == delivered + quarantine_drops` can be short by up to one
/// message per contained fault.
fn ledger_balanced(st: &EngineStats) -> bool {
    let accounted = st.delivered_messages + st.quarantine_drops;
    accounted <= st.async_messages && st.async_messages <= accounted + st.faults_contained
}

fn check_refusal(led: &mut Ledger, what: &str, err: &Option<FrameworkError>) {
    led.attempted += 1;
    led.check(
        matches!(err, Some(FrameworkError::Content(m)) if m == REFUSAL),
        || format!("{what} refused batch: unexpected outcome {err:?}"),
    );
}

fn check_serial_visible(led: &mut Ledger, rig: &ChurnSerial, flip: Flip) {
    let dep = &rig.dep;
    let policy = dep.fault_policy(rig.sink);
    led.check(policy.as_ref().ok() == Some(&flip.policy()), || {
        format!("serial policy not visible after commit: {policy:?}")
    });
    let contract = dep.contract_of(rig.sink).map(|c| c.is_some());
    led.check(contract.as_ref().ok() == Some(&flip.0), || {
        format!("serial contract not visible after commit: {contract:?}")
    });
    let arch = dep.architecture();
    let id = |n: &str| arch.id_of(n).ok();
    let peer = arch
        .bindings()
        .iter()
        .find(|b| Some(b.client.component) == id("worker") && b.client.interface == "peer")
        .map(|b| b.server.component);
    led.check(peer.is_some() && peer == id(flip.peer_target()), || {
        "serial sync rebind not visible after commit".into()
    });
    let domain = id("spare")
        .and_then(|s| arch.thread_domain_of(s))
        .map(|d| d.0);
    led.check(
        domain.is_some() && domain == id(flip.spare_domain()),
        || "serial domain move not visible after commit".into(),
    );
}
