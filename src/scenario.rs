//! The paper's motivation scenario, ready to run: content classes, a
//! content registry, the Fig. 4 architecture, and the hand-written **OO
//! baseline** the evaluation compares against.
//!
//! The scenario (§2.2): a `ProductionLine` periodically (10 ms) emits a
//! measurement to a sporadic `MonitoringSystem` through an asynchronous
//! 10-slot buffer; anomalous measurements trigger a synchronous
//! notification of the passive `Console` (allocated in a 28 KB scoped
//! memory); every measurement is forwarded asynchronously to the `AuditLog`
//! (a regular thread on the heap).
//!
//! All four implementations — OO, SOLEIL, MERGE-ALL, ULTRA-MERGE — execute
//! the *same* functional code ([`busy_work`] keeps per-station cost
//! realistic and identical), so the measured differences are pure framework
//! overhead, exactly as in Fig. 7.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use rtsj::memory::{AreaId, MemoryContext, MemoryManager, ScopedMemoryParams};
use rtsj::thread::ThreadKind;

use crate::core::adl::{from_xml, MOTIVATION_EXAMPLE_XML};
use crate::core::Architecture;
use crate::membrane::content::{
    Content, ContentRegistry, InternedPort, InvokeResult, Ports, StateImage,
};
use crate::patterns::ScopePin;
use crate::runtime::footprint::FootprintReport;

/// The message flowing through the pipeline.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Measurement {
    /// Monotone sequence number stamped by the production line.
    pub seq: u64,
    /// Measured value.
    pub value: f64,
    /// True when the monitoring system must notify the console.
    pub anomalous: bool,
}

/// Deterministic floating-point busy work standing in for the functional
/// computation of each station; returns a value that must be consumed to
/// keep the optimizer honest.
#[inline]
pub fn busy_work(iters: u32, seed: f64) -> f64 {
    let mut acc = seed + 1.0;
    for i in 0..iters {
        acc = acc * 1.000000119 + (i & 0xF) as f64 * 0.25;
        if acc > 1.0e6 {
            acc *= 0.5e-6;
        }
    }
    std::hint::black_box(acc)
}

/// Work units per station, calibrated so one complete iteration costs a few
/// microseconds — large enough for stable measurement, small enough that
/// framework overhead stays visible.
pub mod work {
    /// Production-line cost (measurement synthesis).
    pub const PRODUCTION: u32 = 600;
    /// Monitoring cost (evaluation).
    pub const MONITORING: u32 = 1200;
    /// Console cost (notification rendering).
    pub const CONSOLE: u32 = 300;
    /// Audit cost (log append).
    pub const AUDIT: u32 = 600;
    /// A measurement is anomalous every `ANOMALY_EVERY` iterations.
    pub const ANOMALY_EVERY: u64 = 10;
}

/// Shared observation counters, cloneable into content factories so tests
/// can assert functional equivalence across implementations.
///
/// Counters are atomics behind `Arc` (not `Rc<Cell<_>>`): content classes
/// must be `Send` so a deployment can move to another thread, and the
/// probe travels with them. The `f64` fingerprint is stored as IEEE-754 bits in an
/// [`AtomicU64`] and accumulated with a CAS loop.
#[derive(Debug, Clone, Default)]
pub struct ScenarioProbe {
    consoles: Arc<AtomicU64>,
    audits: Arc<AtomicU64>,
    value_bits: Arc<AtomicU64>,
    max_seq: Arc<AtomicU64>,
    seq_regressions: Arc<AtomicU64>,
}

impl ScenarioProbe {
    /// Fresh zeroed probe.
    pub fn new() -> Self {
        Self::default()
    }

    /// Console notifications observed.
    pub fn consoles(&self) -> u64 {
        self.consoles.load(Ordering::Relaxed)
    }

    /// Audit records observed.
    pub fn audits(&self) -> u64 {
        self.audits.load(Ordering::Relaxed)
    }

    /// Sum of audited values (functional-result fingerprint).
    pub fn value_sum(&self) -> f64 {
        f64::from_bits(self.value_bits.load(Ordering::Relaxed))
    }

    /// Records one console notification.
    pub fn record_console(&self) {
        self.consoles.fetch_add(1, Ordering::Relaxed);
    }

    /// Highest measurement sequence number audited so far.
    pub fn max_seq(&self) -> u64 {
        self.max_seq.load(Ordering::Relaxed)
    }

    /// Times an audited sequence number regressed below the running
    /// maximum — the cold-restart witness: `ProductionLineImpl` numbers
    /// its measurements monotonically, so a restart that loses its warm
    /// `seq` state re-emits low sequence numbers and trips this counter,
    /// while a checkpointed restart continues the series and never does.
    pub fn seq_regressions(&self) -> u64 {
        self.seq_regressions.load(Ordering::Relaxed)
    }

    /// Records the sequence number of an audited measurement.
    pub fn record_seq(&self, seq: u64) {
        let prev = self.max_seq.fetch_max(seq, Ordering::Relaxed);
        if seq <= prev {
            self.seq_regressions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records one audit of value `v`.
    pub fn record_audit(&self, v: f64) {
        self.audits.fetch_add(1, Ordering::Relaxed);
        let mut cur = self.value_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            match self.value_bits.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(actual) => cur = actual,
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Content classes (the hand-written functional code)
// ---------------------------------------------------------------------------

/// `ProductionLineImpl`: stamps and emits one measurement per release.
///
/// Its client port is an [`InternedPort`]: the first send pays one name
/// scan to obtain the deployment's dense port id, every later send
/// dispatches through the compiled jump table with zero string compares.
#[derive(Debug)]
pub struct ProductionLineImpl {
    seq: u64,
    monitor: InternedPort,
}

impl Default for ProductionLineImpl {
    fn default() -> Self {
        ProductionLineImpl {
            seq: 0,
            monitor: InternedPort::new("iMonitor"),
        }
    }
}

impl Content<Measurement> for ProductionLineImpl {
    fn on_invoke(
        &mut self,
        _port: &str,
        msg: &mut Measurement,
        out: &mut dyn Ports<Measurement>,
    ) -> InvokeResult {
        self.seq += 1;
        msg.seq = self.seq;
        msg.value = busy_work(work::PRODUCTION, self.seq as f64);
        msg.anomalous = self.seq.is_multiple_of(work::ANOMALY_EVERY);
        self.monitor.send(out, *msg)
    }

    // The sequence counter is the line's warm state: with the Checkpoint
    // capability enabled, a supervised restart resumes the measurement
    // series instead of re-numbering from 1 (the interned port re-interns
    // lazily and carries no state worth preserving).
    fn state_bytes(&self) -> usize {
        64
    }

    fn checkpoint(&self, image: &mut StateImage) -> bool {
        image.write_u64(self.seq)
    }

    fn restore(&mut self, image: &StateImage) {
        if let Some(seq) = image.read_u64(0) {
            self.seq = seq;
        }
    }
}

/// `MonitoringSystemImpl`: evaluates measurements, notifies the console on
/// anomalies, forwards everything to the audit log — both through
/// interned ports (see [`ProductionLineImpl`]).
#[derive(Debug)]
pub struct MonitoringSystemImpl {
    console: InternedPort,
    audit: InternedPort,
}

impl Default for MonitoringSystemImpl {
    fn default() -> Self {
        MonitoringSystemImpl {
            console: InternedPort::new("iConsole"),
            audit: InternedPort::new("iAudit"),
        }
    }
}

impl Content<Measurement> for MonitoringSystemImpl {
    fn on_invoke(
        &mut self,
        _port: &str,
        msg: &mut Measurement,
        out: &mut dyn Ports<Measurement>,
    ) -> InvokeResult {
        msg.value = busy_work(work::MONITORING, msg.value);
        if msg.anomalous {
            self.console.call(out, msg)?;
        }
        self.audit.send(out, *msg)
    }
}

/// `ConsoleImpl`: renders an anomaly notification (scoped-memory service).
#[derive(Debug, Default)]
pub struct ConsoleImpl {
    probe: ScenarioProbe,
}

impl Content<Measurement> for ConsoleImpl {
    fn on_invoke(
        &mut self,
        _port: &str,
        msg: &mut Measurement,
        _out: &mut dyn Ports<Measurement>,
    ) -> InvokeResult {
        msg.value = busy_work(work::CONSOLE, msg.value);
        self.probe.record_console();
        Ok(())
    }
}

/// `AuditLogImpl`: appends every measurement to the audit trail.
#[derive(Debug, Default)]
pub struct AuditLogImpl {
    probe: ScenarioProbe,
}

impl Content<Measurement> for AuditLogImpl {
    fn on_invoke(
        &mut self,
        _port: &str,
        msg: &mut Measurement,
        _out: &mut dyn Ports<Measurement>,
    ) -> InvokeResult {
        let v = busy_work(work::AUDIT, msg.value);
        self.probe.record_audit(v);
        self.probe.record_seq(msg.seq);
        Ok(())
    }
}

/// Registry wiring the content classes under the names the Fig. 4 ADL uses.
pub fn registry() -> ContentRegistry<Measurement> {
    registry_with_probe(&ScenarioProbe::new())
}

/// Registry whose Console/AuditLog report into `probe`.
pub fn registry_with_probe(probe: &ScenarioProbe) -> ContentRegistry<Measurement> {
    let mut r = ContentRegistry::new();
    r.register("ProductionLineImpl", || {
        Box::new(ProductionLineImpl::default())
    });
    r.register("MonitoringSystemImpl", || {
        Box::new(MonitoringSystemImpl::default())
    });
    let p = probe.clone();
    r.register("ConsoleImpl", move || {
        Box::new(ConsoleImpl { probe: p.clone() })
    });
    let p = probe.clone();
    r.register("AuditLogImpl", move || {
        Box::new(AuditLogImpl { probe: p.clone() })
    });
    r
}

/// The Fig. 4 RT System Architecture, parsed from its canonical ADL text.
///
/// # Errors
///
/// Propagates ADL parse errors (none for the embedded fixture).
pub fn motivation_architecture() -> crate::core::Result<Architecture> {
    from_xml(MOTIVATION_EXAMPLE_XML)
}

/// The Fig. 4 architecture, already validated: the witness the deployment
/// entry points (`deploy`/`compile`) take.
///
/// # Errors
///
/// Propagates parse errors; the embedded fixture always validates.
pub fn motivation_validated() -> crate::SoleilResult<crate::core::ValidatedArchitecture> {
    Ok(motivation_architecture()?.into_validated()?)
}

// ---------------------------------------------------------------------------
// The hand-written OO baseline
// ---------------------------------------------------------------------------

/// The manually written object-oriented implementation of the scenario —
/// the paper's `OO` baseline. It runs against the same RTSJ substrate
/// (scoped console memory entered and exited by hand, NHRT contexts, the
/// same busy work) but with direct field access, hand-rolled queues and no
/// framework machinery at all.
#[derive(Debug)]
pub struct OoSystem {
    mm: MemoryManager,
    s1: AreaId,
    _s1_pin: ScopePin,
    ctx_monitor: MemoryContext,
    buf_monitor: VecDeque<Measurement>,
    buf_audit: VecDeque<Measurement>,
    seq: u64,
    probe: ScenarioProbe,
    transactions: u64,
}

impl OoSystem {
    /// Builds the baseline with the Fig. 4 memory layout (600 KB immortal,
    /// 28 KB console scope, heap audit path).
    ///
    /// # Errors
    ///
    /// Substrate errors creating or pinning the console scope.
    pub fn new(probe: &ScenarioProbe) -> rtsj::Result<OoSystem> {
        let mut mm = MemoryManager::new(0, 600 * 1024 + 256 * 1024);
        let s1 = mm.create_scoped(ScopedMemoryParams::new("S1", 28 * 1024))?;
        let pin = ScopePin::new(&mut mm, s1, &[])?;
        // Charge comparable state + buffer storage so the Fig. 7(c)
        // comparison against the framework modes is apples-to-apples.
        let boot = mm.context(ThreadKind::Realtime);
        mm.alloc_raw(&boot, AreaId::IMMORTAL, 64)?; // production state
        mm.alloc_raw(&boot, AreaId::IMMORTAL, 64)?; // monitoring state
        mm.alloc_raw(&boot, s1, 64)?; // console state
        let heap = mm.context(ThreadKind::Regular);
        mm.alloc_raw(&heap, AreaId::HEAP, 64)?; // audit state
        mm.alloc_raw(
            &boot,
            AreaId::IMMORTAL,
            10 * std::mem::size_of::<Measurement>(),
        )?;
        mm.alloc_raw(
            &boot,
            AreaId::IMMORTAL,
            10 * std::mem::size_of::<Measurement>(),
        )?;
        let ctx_monitor = mm.context(ThreadKind::NoHeapRealtime);
        Ok(OoSystem {
            mm,
            s1,
            _s1_pin: pin,
            ctx_monitor,
            buf_monitor: VecDeque::with_capacity(10),
            buf_audit: VecDeque::with_capacity(10),
            seq: 0,
            probe: probe.clone(),
            transactions: 0,
        })
    }

    /// One complete iteration: production → monitoring → (console) → audit.
    ///
    /// # Errors
    ///
    /// Substrate errors on the console scope boundary.
    pub fn run_transaction(&mut self) -> rtsj::Result<()> {
        // ProductionLine (NHRT, immortal): produce and enqueue.
        self.seq += 1;
        let m = Measurement {
            seq: self.seq,
            value: busy_work(work::PRODUCTION, self.seq as f64),
            anomalous: self.seq.is_multiple_of(work::ANOMALY_EVERY),
        };
        if self.buf_monitor.len() < 10 {
            self.buf_monitor.push_back(m);
        }

        // MonitoringSystem (NHRT): evaluate; console on anomaly.
        if let Some(mut m) = self.buf_monitor.pop_front() {
            m.value = busy_work(work::MONITORING, m.value);
            if m.anomalous {
                // Hand-written cross-scope call: enter S1, notify, exit.
                self.mm.enter(&mut self.ctx_monitor, self.s1)?;
                m.value = busy_work(work::CONSOLE, m.value);
                self.probe.record_console();
                self.mm.exit(&mut self.ctx_monitor)?;
            }
            if self.buf_audit.len() < 10 {
                self.buf_audit.push_back(m);
            }
        }

        // AuditLog (regular thread, heap).
        if let Some(m) = self.buf_audit.pop_front() {
            let v = busy_work(work::AUDIT, m.value);
            self.probe.record_audit(v);
        }
        self.transactions += 1;
        Ok(())
    }

    /// Transactions completed.
    pub fn transactions(&self) -> u64 {
        self.transactions
    }

    /// Substrate allocations performed so far (see
    /// [`MemoryManager::alloc_count`]); constant across steady-state
    /// transactions — the baseline obeys the same init-time-allocation
    /// discipline the framework modes are gated on.
    pub fn alloc_count(&self) -> u64 {
        self.mm.alloc_count()
    }

    /// The probe observing console/audit activity.
    pub fn probe(&self) -> &ScenarioProbe {
        &self.probe
    }

    /// Footprint of the baseline (framework bytes are zero by definition).
    pub fn footprint(&self) -> FootprintReport {
        FootprintReport::collect(
            "OO".to_string(),
            &self.mm,
            vec![
                ("Imm1".to_string(), AreaId::IMMORTAL),
                ("S1".to_string(), self.s1),
                ("H1".to_string(), AreaId::HEAP),
            ],
            0,
            0,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::deploy;
    use crate::runtime::Mode;

    #[test]
    fn oo_baseline_runs_the_scenario() {
        let probe = ScenarioProbe::new();
        let mut oo = OoSystem::new(&probe).unwrap();
        for _ in 0..50 {
            oo.run_transaction().unwrap();
        }
        assert_eq!(oo.transactions(), 50);
        assert_eq!(probe.audits(), 50);
        assert_eq!(probe.consoles(), 5, "every 10th is anomalous");
    }

    #[test]
    fn framework_modes_match_oo_functionally() {
        let n = 40;
        let oo_probe = ScenarioProbe::new();
        let mut oo = OoSystem::new(&oo_probe).unwrap();
        for _ in 0..n {
            oo.run_transaction().unwrap();
        }

        let arch = motivation_validated().unwrap();
        for mode in [Mode::Soleil, Mode::MergeAll, Mode::UltraMerge] {
            let probe = ScenarioProbe::new();
            let mut sys = deploy(&arch, mode, &registry_with_probe(&probe)).unwrap();
            let head = sys.resolve("ProductionLine").unwrap();
            for _ in 0..n {
                sys.run_transaction(head).unwrap();
            }
            assert_eq!(probe.audits(), oo_probe.audits(), "{mode}");
            assert_eq!(probe.consoles(), oo_probe.consoles(), "{mode}");
            let diff = (probe.value_sum() - oo_probe.value_sum()).abs();
            assert!(
                diff < 1e-9,
                "value fingerprint diverged under {mode}: {diff}"
            );
        }
    }

    #[test]
    fn busy_work_is_deterministic_and_nonzero() {
        let a = busy_work(1000, 1.0);
        let b = busy_work(1000, 1.0);
        assert_eq!(a, b);
        assert!(a != 0.0);
    }

    #[test]
    fn oo_scope_traffic_balances() {
        let probe = ScenarioProbe::new();
        let mut oo = OoSystem::new(&probe).unwrap();
        for _ in 0..20 {
            oo.run_transaction().unwrap();
        }
        // The console scope stays pinned: state persists, no reclaims.
        let stats = oo.footprint();
        let s1 = stats.areas.iter().find(|a| a.name == "S1").unwrap();
        assert!(s1.consumed > 0);
    }
}
