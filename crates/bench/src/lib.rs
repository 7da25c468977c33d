//! # soleil-bench — the evaluation harness (§5 / Fig. 7)
//!
//! One runner per table/figure of the paper's evaluation, shared by the
//! `reproduce` binary and the integration tests:
//!
//! | Experiment | Paper artifact | Runner |
//! |---|---|---|
//! | E1 | Fig. 7(a) execution-time distribution | [`run_overhead`] + [`fig7a_report`] |
//! | E2 | Fig. 7(b) median + jitter table | [`run_overhead`] + [`fig7b_table`] |
//! | E3 | Fig. 7(c) memory footprint | [`run_footprint`] + [`fig7c_table`] |
//! | E4 | §5.2 code-generation metrics | [`run_codegen`] + [`codegen_table`] |
//! | E5 | §5.1 determinism claim (GC immunity) | [`run_determinism`] + [`determinism_table`] |
//!
//! The harness reproduces the paper's *shape* — who wins and by roughly
//! what factor — not its absolute 2007-era numbers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Write as _;

use rtsj::gc::GcConfig;
use rtsj::thread::ThreadKind;
use rtsj::time::{AbsoluteTime, RelativeTime};
use soleil::generator::{compile, deploy, deploy_parallel, emit_source};
use soleil::prelude::*;
use soleil::runtime::instrument::{measure_steady, LatencySamples};
use soleil::runtime::sim::{deploy as sim_deploy, SimCosts, SimOptions};
use soleil::scenario::{motivation_validated, registry_with_probe, OoSystem, ScenarioProbe};

/// Convenience alias for harness results: every layer's failure converts
/// into the unified [`SoleilError`].
pub type HarnessResult<T> = SoleilResult<T>;

/// Latency samples for one implementation of the scenario.
#[derive(Debug, Clone)]
pub struct OverheadRow {
    /// Implementation label (`OO`, `SOLEIL`, `MERGE-ALL`, `ULTRA-MERGE`).
    pub label: String,
    /// Steady-state observations.
    pub samples: LatencySamples,
}

/// Runs the Fig. 7(a)/(b) benchmark: `observations` steady-state end-to-end
/// iterations of the motivation scenario for the OO baseline and the three
/// generation modes.
///
/// # Errors
///
/// Propagates substrate/framework errors (none expected for the fixture).
pub fn run_overhead(warmup: usize, observations: usize) -> HarnessResult<Vec<OverheadRow>> {
    let mut rows = Vec::with_capacity(4);

    // OO baseline.
    let probe = ScenarioProbe::new();
    let mut oo = OoSystem::new(&probe)?;
    let samples = measure_steady(warmup, observations, || oo.run_transaction())?;
    rows.push(OverheadRow {
        label: "OO".into(),
        samples,
    });

    // Framework modes: deploy once, resolve the head once, then drive the
    // steady-state loop through the token (no name resolution per call).
    let arch = motivation_validated()?;
    for mode in [Mode::Soleil, Mode::MergeAll, Mode::UltraMerge] {
        let probe = ScenarioProbe::new();
        let mut sys = deploy(&arch, mode, &registry_with_probe(&probe))?;
        let head = sys.resolve("ProductionLine")?;
        let samples = measure_steady(warmup, observations, || sys.run_transaction(head))?;
        rows.push(OverheadRow {
            label: mode.to_string(),
            samples,
        });
    }
    Ok(rows)
}

/// Renders the Fig. 7(a) execution-time distributions as ASCII histograms.
pub fn fig7a_report(rows: &[OverheadRow], buckets: usize) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Fig. 7(a) — execution time distribution ({} observations each)\n",
        rows.first().map(|r| r.samples.len()).unwrap_or(0)
    );
    for r in rows {
        let _ = writeln!(out, "--- {} ---", r.label);
        out.push_str(&r.samples.histogram(buckets, 50));
        out.push('\n');
    }
    out
}

/// Renders the Fig. 7(b) median/jitter table.
pub fn fig7b_table(rows: &[OverheadRow]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Fig. 7(b) — execution time median and jitter");
    let _ = writeln!(
        out,
        "{:<12} {:>12} {:>12} {:>12}",
        "impl", "median(us)", "jitter(us)", "max(us)"
    );
    let baseline = rows
        .first()
        .and_then(|r| r.samples.summary())
        .map(|s| s.median.as_micros_f64());
    for r in rows {
        if let Some(s) = r.samples.summary() {
            let _ = write!(
                out,
                "{:<12} {:>12.2} {:>12.3} {:>12.2}",
                r.label,
                s.median.as_micros_f64(),
                s.jitter.as_micros_f64(),
                s.max.as_micros_f64()
            );
            if let Some(b) = baseline {
                let _ = writeln!(
                    out,
                    "   ({:+.1}% vs OO)",
                    (s.median.as_micros_f64() / b - 1.0) * 100.0
                );
            } else {
                let _ = writeln!(out);
            }
        }
    }
    out
}

/// Footprint reports for the OO baseline and the three generation modes
/// (Fig. 7(c)).
///
/// # Errors
///
/// Propagates build errors.
pub fn run_footprint() -> HarnessResult<Vec<FootprintReport>> {
    let mut reports = Vec::with_capacity(4);
    let probe = ScenarioProbe::new();
    let mut oo = OoSystem::new(&probe)?;
    // Steady state: footprint after the pipeline has run.
    for _ in 0..100 {
        oo.run_transaction()?;
    }
    reports.push(oo.footprint());

    let arch = motivation_validated()?;
    for mode in [Mode::Soleil, Mode::MergeAll, Mode::UltraMerge] {
        let probe = ScenarioProbe::new();
        let mut sys = deploy(&arch, mode, &registry_with_probe(&probe))?;
        let head = sys.resolve("ProductionLine")?;
        for _ in 0..100 {
            sys.run_transaction(head)?;
        }
        reports.push(sys.footprint());
    }
    Ok(reports)
}

/// Renders the Fig. 7(c) footprint table (application + framework bytes,
/// overhead vs. the OO baseline).
pub fn fig7c_table(reports: &[FootprintReport]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Fig. 7(c) — memory footprint");
    let _ = writeln!(
        out,
        "{:<12} {:>14} {:>14} {:>14} {:>14} {:>16}",
        "impl", "app bytes", "framework B", "release eng B", "total B", "overhead vs OO"
    );
    let baseline = reports.first();
    for r in reports {
        let overhead = baseline.map(|b| r.overhead_vs(b)).unwrap_or(0);
        let _ = writeln!(
            out,
            "{:<12} {:>14} {:>14} {:>14} {:>14} {:>16}",
            r.label,
            r.application_bytes(),
            r.framework_bytes,
            r.release_engine_bytes,
            r.total_bytes(),
            overhead
        );
    }
    out
}

/// One row of the §5.2 code-generation study.
#[derive(Debug, Clone)]
pub struct CodegenRow {
    /// Mode label.
    pub label: String,
    /// Generated compilation units.
    pub units: usize,
    /// Generated source lines.
    pub lines: usize,
    /// Dispatch indirections per invocation.
    pub indirections: usize,
    /// Reconfigurability at membrane level.
    pub membrane_reconfig: bool,
    /// Reconfigurability at functional level.
    pub functional_reconfig: bool,
}

/// Runs the E4 code-generation metrics over the motivation architecture.
///
/// # Errors
///
/// Propagates compilation errors.
pub fn run_codegen() -> HarnessResult<Vec<CodegenRow>> {
    let arch = motivation_validated()?;
    let spec = compile(&arch)?;
    Ok([Mode::Soleil, Mode::MergeAll, Mode::UltraMerge]
        .into_iter()
        .map(|mode| {
            let m = emit_source(&spec, mode).metrics();
            CodegenRow {
                label: mode.to_string(),
                units: m.units,
                lines: m.lines,
                indirections: m.indirections_per_call,
                membrane_reconfig: m.membrane_reconfigurable,
                functional_reconfig: m.functional_reconfigurable,
            }
        })
        .collect())
}

/// Renders the E4 table.
pub fn codegen_table(rows: &[CodegenRow]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "§5.2 — code generation metrics (E4)");
    let _ = writeln!(
        out,
        "{:<12} {:>8} {:>8} {:>14} {:>18} {:>20}",
        "mode", "units", "lines", "indirections", "membrane-reconf", "functional-reconf"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:<12} {:>8} {:>8} {:>14} {:>18} {:>20}",
            r.label, r.units, r.lines, r.indirections, r.membrane_reconfig, r.functional_reconfig
        );
    }
    out
}

/// One row of the determinism experiment: a real-time pipeline stage under
/// one deployment.
#[derive(Debug, Clone)]
pub struct DeterminismRow {
    /// Deployment label.
    pub label: String,
    /// Pipeline stage (component name).
    pub stage: String,
    /// Median response time of the stage (virtual time).
    pub median: RelativeTime,
    /// Response jitter (mean absolute deviation).
    pub jitter: RelativeTime,
    /// Worst-case response observed.
    pub max: RelativeTime,
    /// Deadline misses of the stage.
    pub deadline_misses: u64,
}

/// Runs the E5 determinism experiment: the motivation pipeline deployed in
/// virtual time under an aggressive collector, once as designed (the
/// real-time stages on NHRT domains, immune to GC) and once with every
/// domain forced onto regular threads. The paper's claim: the NHRT stages
/// show flat response times and zero misses; the regular deployment is at
/// the collector's mercy.
///
/// # Errors
///
/// Propagates compilation errors.
pub fn run_determinism(horizon_ms: u64) -> HarnessResult<Vec<DeterminismRow>> {
    let arch = motivation_validated()?;
    let spec = compile(&arch)?;
    let costs = SimCosts::uniform(RelativeTime::from_micros(50))
        .with("ProductionLine", RelativeTime::from_micros(40))
        .with("MonitoringSystem", RelativeTime::from_micros(80))
        .with("AuditLog", RelativeTime::from_micros(40));
    // A collector aggressive enough that a stage stalled by a full pause
    // blows its 10 ms deadline.
    let gc = GcConfig::periodic(RelativeTime::from_millis(40), RelativeTime::from_millis(12));

    let mut rows = Vec::new();
    for (label, force) in [
        ("NHRT (as designed)", None),
        ("Regular threads", Some(ThreadKind::Regular)),
    ] {
        let mut d = sim_deploy(
            &spec,
            &costs,
            &SimOptions {
                force_thread_kind: force,
                gc: Some(gc),
            },
        );
        d.simulator.run_until(AbsoluteTime::from_millis(horizon_ms));
        for stage in ["ProductionLine", "MonitoringSystem"] {
            let task = *d
                .tasks
                .get(stage)
                .ok_or_else(|| SoleilError::Framework(format!("stage '{stage}' not deployed")))?;
            let stats = d.simulator.stats(task)?;
            let summary = stats
                .response_summary()
                .ok_or_else(|| SoleilError::Framework("stage completed no jobs".into()))?;
            rows.push(DeterminismRow {
                label: label.to_string(),
                stage: stage.to_string(),
                median: summary.median,
                jitter: summary.jitter,
                max: summary.max,
                deadline_misses: stats.deadline_misses,
            });
        }
    }
    Ok(rows)
}

/// Renders the E5 table.
pub fn determinism_table(rows: &[DeterminismRow]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "§5.1 determinism (E5) — real-time stages under GC (virtual time)"
    );
    let _ = writeln!(
        out,
        "{:<22} {:<18} {:>12} {:>12} {:>12} {:>8}",
        "deployment", "stage", "median(us)", "jitter(us)", "max(us)", "misses"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:<22} {:<18} {:>12.1} {:>12.1} {:>12.1} {:>8}",
            r.label,
            r.stage,
            r.median.as_micros_f64(),
            r.jitter.as_micros_f64(),
            r.max.as_micros_f64(),
            r.deadline_misses
        );
    }
    out
}

// ---------------------------------------------------------------------------
// Steady-state perf gate (BENCH_steady_state.json)
// ---------------------------------------------------------------------------

/// One row of the steady-state perf artifact: the motivation scenario's
/// per-transaction cost and allocation behavior under one implementation.
#[derive(Debug, Clone)]
pub struct SteadyStateRow {
    /// Implementation label (`OO`, `SOLEIL`, `MERGE-ALL`, `ULTRA-MERGE`,
    /// `PARALLEL`).
    pub label: String,
    /// Median wall-clock nanoseconds per steady-state transaction.
    pub median_ns: u64,
    /// Rust-heap allocations per transaction (0 is the gate).
    pub allocs_per_transaction: f64,
    /// Substrate allocations per transaction (0 is the gate).
    pub substrate_allocs_per_transaction: f64,
    /// Port-name string comparisons per transaction (0 is the gate: the
    /// compiled dispatch plan interns every hot port at warm-up).
    pub string_compares_per_transaction: f64,
    /// Deadline misses recorded across the measured observations by the
    /// baseline scenario's timing contract (0 is the gate: every steady
    /// run arms a generous deadline contract plus an unfired release
    /// timer, so the zero-alloc claim covers the monitored hot path).
    pub deadline_misses: u64,
    /// Messages dropped across the measured observations (0 is the gate:
    /// a run that dropped work timed less than the whole scenario).
    pub dropped_messages: u64,
}

/// Runs the steady-state perf gate: warms each implementation, then times
/// `observations` transactions while counting heap allocations through
/// `heap_allocs` (a reading of the caller's counting global allocator —
/// binaries include `alloc_probe.rs` to get one; passing a constant
/// function degrades gracefully to timing only).
///
/// The measured loop itself is allocation-free: the sample buffer is
/// provisioned before counting starts.
///
/// # Errors
///
/// Propagates substrate/framework errors (none expected for the fixture).
pub fn run_steady_state(
    warmup: usize,
    observations: usize,
    heap_allocs: impl Fn() -> u64,
) -> HarnessResult<Vec<SteadyStateRow>> {
    use std::time::Instant;

    let mut rows = Vec::with_capacity(4);
    // `dispatch` reads the engine's string-compare counter; warm-up
    // precedes the baseline reading, so one-time interning scans are
    // excluded from the steady-state deltas.
    let measure = |label: &str,
                   substrate: &mut dyn FnMut() -> u64,
                   dispatch: &mut dyn FnMut() -> u64,
                   misses: &mut dyn FnMut() -> u64,
                   dropped: &mut dyn FnMut() -> u64,
                   op: &mut dyn FnMut() -> HarnessResult<()>|
     -> HarnessResult<SteadyStateRow> {
        for _ in 0..warmup {
            op()?;
        }
        let mut nanos: Vec<u64> = Vec::with_capacity(observations);
        let substrate_before = substrate();
        let compares_before = dispatch();
        let misses_before = misses();
        let dropped_before = dropped();
        let heap_before = heap_allocs();
        for _ in 0..observations {
            let start = Instant::now();
            op()?;
            nanos.push(start.elapsed().as_nanos() as u64);
        }
        let heap_delta = heap_allocs() - heap_before;
        let substrate_delta = substrate() - substrate_before;
        let compares_after = dispatch();
        let samples = soleil::runtime::instrument::LatencySamples::from_nanos(nanos);
        Ok(SteadyStateRow {
            label: label.to_string(),
            median_ns: samples.percentile(50.0).unwrap_or(0),
            allocs_per_transaction: heap_delta as f64 / observations as f64,
            substrate_allocs_per_transaction: substrate_delta as f64 / observations as f64,
            string_compares_per_transaction: (compares_after - compares_before) as f64
                / observations as f64,
            deadline_misses: misses() - misses_before,
            dropped_messages: dropped() - dropped_before,
        })
    };

    let probe = ScenarioProbe::new();
    let oo = std::cell::RefCell::new(OoSystem::new(&probe)?);
    rows.push(measure(
        "OO",
        &mut || oo.borrow().alloc_count(),
        &mut || 0,
        &mut || 0,
        &mut || 0,
        &mut || Ok(oo.borrow_mut().run_transaction()?),
    )?);

    let arch = motivation_validated()?;
    for mode in [Mode::Soleil, Mode::MergeAll, Mode::UltraMerge] {
        let probe = ScenarioProbe::new();
        let dep = std::cell::RefCell::new(deploy(&arch, mode, &registry_with_probe(&probe))?);
        let head = dep.borrow().resolve("ProductionLine")?;
        // The gate covers the *monitored* hot path: a deadline contract on
        // the head (generous enough that a healthy run never misses) plus
        // an armed-but-unfired release keep the release engine live
        // through every measured transaction.
        dep.borrow_mut()
            .attach_contract(head, baseline_contract())?;
        dep.borrow_mut().schedule_release(head, AbsoluteTime::MAX)?;
        rows.push(measure(
            &mode.to_string(),
            &mut || dep.borrow().memory().alloc_count(),
            &mut || dep.borrow().string_compares(),
            &mut || dep.borrow().deadline_misses(),
            &mut || dep.borrow().stats().dropped_messages,
            &mut || Ok(dep.borrow_mut().run_transaction(head)?),
        )?);
    }

    rows.push(run_parallel_steady(warmup, observations, &heap_allocs)?);
    Ok(rows)
}

/// The timing contract armed on the baseline scenario's head during every
/// steady-state measurement: a 500 ms deadline no healthy transaction
/// (microseconds end-to-end) can miss — any recorded miss is a genuine
/// engine regression, not measurement noise.
pub fn baseline_contract() -> TimingContract {
    TimingContract::new().with_deadline(RelativeTime::from_millis(500))
}

/// The `PARALLEL` row of the steady-state artifact: the motivation
/// scenario sharded by thread domain ([`deploy_parallel`]), cross-domain
/// messages on wait-free SPSC rings, every shard ticking on the caller's
/// thread through `run_ticks_instrumented`. Each shard's tick median
/// covers its own tick and drain passes, so the producer shard's tick is
/// the head's release and each consumer shard's is the activation its
/// message triggers; the reported median is the *slowest* shard's (the
/// consumer `NHRT2`'s monitoring). Allocation counters are charged per
/// shard and summed, and the row counts the messages the run dropped.
///
/// # Errors
///
/// Propagates substrate/framework errors (none expected for the fixture).
pub fn run_parallel_steady(
    warmup: usize,
    observations: usize,
    heap_allocs: impl Fn() -> u64,
) -> HarnessResult<SteadyStateRow> {
    let arch = motivation_validated()?;
    let probe = ScenarioProbe::new();
    let mut sys = deploy_parallel(&arch, Mode::MergeAll, &registry_with_probe(&probe))?;
    // The same monitored-hot-path discipline as the serial rows: a
    // generous contract on the head's shard and an armed release that
    // never comes due within the run.
    sys.attach_contract("ProductionLine", baseline_contract())?;
    sys.schedule_release("ProductionLine", AbsoluteTime::MAX)?;
    // Warm up outside the instrumented run so the one-time interning scans
    // stay out of the measured dispatch-counter deltas.
    sys.run_ticks(warmup as u64)?;
    let compares_before = sys.string_compares();
    let misses_before = sys.deadline_misses();
    let dropped_before = sys.stats().dropped_messages;
    let runs = sys.run_ticks_instrumented(0, observations as u64, &heap_allocs)?;
    Ok(SteadyStateRow {
        label: "PARALLEL".into(),
        median_ns: runs.iter().map(|r| r.median_tick_ns).max().unwrap_or(0),
        allocs_per_transaction: runs.iter().map(|r| r.probe_delta).sum::<u64>() as f64
            / observations as f64,
        substrate_allocs_per_transaction: runs.iter().map(|r| r.substrate_allocs).sum::<u64>()
            as f64
            / observations as f64,
        string_compares_per_transaction: (sys.string_compares() - compares_before) as f64
            / observations as f64,
        deadline_misses: sys.deadline_misses() - misses_before,
        dropped_messages: sys.stats().dropped_messages - dropped_before,
    })
}

/// Compares a fresh steady-state run against the committed
/// `BENCH_steady_state.json` artifact — the CI regression gate.
///
/// A failure line is produced for every mode whose fresh median exceeds
/// the committed median by more than `threshold_pct` percent, for any
/// fresh row whose allocs/transaction (Rust heap or substrate) leave 0,
/// for any fresh row reporting a deadline miss under the baseline
/// scenario's generous contract or a dropped message, and for modes
/// present in the committed
/// artifact but missing from the fresh run (artifact drift). An empty
/// result means the gate passes.
///
/// The committed artifact is integer-valued by construction (medians in
/// nanoseconds, allocation counts pinned at 0 — a fractional count would
/// already be a gate violation and fails the parse loudly).
///
/// # Errors
///
/// Parse errors on a malformed committed artifact.
pub fn steady_state_regressions(
    committed_json: &str,
    fresh: &[SteadyStateRow],
    threshold_pct: f64,
) -> HarnessResult<Vec<String>> {
    let doc = soleil::core::json::parse(committed_json)?;
    let modes = doc
        .get("modes")
        .and_then(|m| m.as_array())
        .ok_or_else(|| SoleilError::Framework("committed artifact has no 'modes' array".into()))?;
    let mut failures = Vec::new();
    // Median gate: every committed mode must be present and within the
    // threshold of its committed baseline.
    for entry in modes {
        let mode = entry
            .get("mode")
            .and_then(|v| v.as_str())
            .ok_or_else(|| SoleilError::Framework("artifact mode entry lacks 'mode'".into()))?;
        let committed = entry
            .get("median_ns_per_transaction")
            .and_then(|v| v.as_u64())
            .ok_or_else(|| {
                SoleilError::Framework(format!("artifact mode '{mode}' lacks an integer median"))
            })?;
        let Some(row) = fresh.iter().find(|r| r.label == mode) else {
            failures.push(format!(
                "mode '{mode}' is in the committed artifact but missing from the fresh run"
            ));
            continue;
        };
        let limit = committed as f64 * (1.0 + threshold_pct / 100.0);
        if row.median_ns as f64 > limit {
            failures.push(format!(
                "{mode}: fresh median {} ns regressed more than {threshold_pct}% over the \
                 committed {committed} ns (limit {:.0} ns)",
                row.median_ns, limit
            ));
        }
    }
    // Allocation gate: every fresh row must be allocation-free, including
    // modes newer than the committed artifact (no baseline needed for 0).
    for row in fresh {
        if row.allocs_per_transaction != 0.0 {
            failures.push(format!(
                "{}: {} Rust-heap allocations/transaction; the steady state must stay at 0",
                row.label, row.allocs_per_transaction
            ));
        }
        if row.substrate_allocs_per_transaction != 0.0 {
            failures.push(format!(
                "{}: {} substrate allocations/transaction; the steady state must stay at 0",
                row.label, row.substrate_allocs_per_transaction
            ));
        }
        if row.string_compares_per_transaction != 0.0 {
            failures.push(format!(
                "{}: {} string compares/transaction; compiled dispatch must stay at 0",
                row.label, row.string_compares_per_transaction
            ));
        }
        if row.deadline_misses != 0 {
            failures.push(format!(
                "{}: {} deadline miss(es); the baseline scenario's contract must never miss",
                row.label, row.deadline_misses
            ));
        }
        if row.dropped_messages != 0 {
            failures.push(format!(
                "{}: {} message(s) dropped; a row must time the whole scenario",
                row.label, row.dropped_messages
            ));
        }
    }
    // Lead gate: the merged modes exist to shed SOLEIL's reified-membrane
    // overhead. If MERGE-ALL's fresh median falls behind SOLEIL's by more
    // than measurement noise, the compiled plan has regressed — regardless
    // of how both compare to the committed artifact.
    const LEAD_NOISE_PCT: f64 = 5.0;
    if let (Some(soleil), Some(merge)) = (
        fresh.iter().find(|r| r.label == "SOLEIL"),
        fresh.iter().find(|r| r.label == "MERGE-ALL"),
    ) {
        let limit = soleil.median_ns as f64 * (1.0 + LEAD_NOISE_PCT / 100.0);
        if merge.median_ns as f64 > limit {
            failures.push(format!(
                "MERGE-ALL: fresh median {} ns fell behind SOLEIL's {} ns by more than \
                 {LEAD_NOISE_PCT}% noise (limit {:.0} ns); the merged mode must not lose \
                 its compiled-dispatch lead",
                merge.median_ns, soleil.median_ns, limit
            ));
        }
    }
    Ok(failures)
}

/// Renders the steady-state rows as the machine-readable
/// `BENCH_steady_state.json` artifact that seeds the perf trajectory.
pub fn steady_state_json(rows: &[SteadyStateRow], observations: usize) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"benchmark\": \"steady_state_transaction\",\n");
    let _ = writeln!(out, "  \"observations\": {observations},");
    out.push_str("  \"modes\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"mode\": \"{}\", \"median_ns_per_transaction\": {}, \
             \"allocs_per_transaction\": {}, \"substrate_allocs_per_transaction\": {}, \
             \"string_compares_per_transaction\": {}, \"deadline_misses\": {}}}",
            r.label,
            r.median_ns,
            r.allocs_per_transaction,
            r.substrate_allocs_per_transaction,
            r.string_compares_per_transaction,
            r.deadline_misses
        );
        out.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

// ---------------------------------------------------------------------------
// Chaos gate (fault containment under a seeded storm)
// ---------------------------------------------------------------------------

/// One seeded fault storm against one generation mode and deployment
/// shape: the conservation ledger and the health verdicts it must explain.
#[derive(Debug, Clone)]
pub struct ChaosGateRow {
    /// Generation mode the storm ran against, suffixed ` sharded` for a
    /// `deploy_parallel` deployment.
    pub mode: String,
    /// The storm's seed (drives both injectors).
    pub seed: u64,
    /// Async messages pushed over the run.
    pub pushed: u64,
    /// Messages delivered to an activation boundary.
    pub delivered: u64,
    /// Messages counted-dropped (quarantine gates; none silently lost).
    pub dropped: u64,
    /// Faults contained by supervision (escalations would fail the run).
    pub faults_contained: u64,
    /// Supervised restarts performed through the timer queue.
    pub restarts: u64,
    /// Components still quarantined when the storm ended.
    pub quarantined: Vec<String>,
    /// SOL-020/021/022 findings rendered as `CODE subject`.
    pub verdicts: Vec<String>,
}

/// Runs the chaos gate: for every seed, every generation mode and both
/// deployment shapes — one shard (`deploy`) and the thread-domain
/// partition (`deploy_parallel`, three shards) — the motivation scenario
/// weathers a deterministic fault storm — an error+panic injector on
/// `MonitoringSystem` under a supervised-restart policy and one on
/// `AuditLog` under isolation — then the injectors are disarmed and the
/// system settles. Both shapes are driven by the same `run_tick` calls.
/// Containment means no tick may error; the returned rows carry the
/// ledger for [`chaos_gate_failures`].
///
/// # Errors
///
/// Deployment errors, or a fault escaping containment mid-storm.
pub fn run_chaos_gate(seeds: &[u64], ticks: u64) -> HarnessResult<Vec<ChaosGateRow>> {
    let arch = motivation_validated()?;
    let mut rows = Vec::with_capacity(seeds.len() * 6);
    for &seed in seeds {
        for (mode, sharded) in [Mode::Soleil, Mode::MergeAll, Mode::UltraMerge]
            .into_iter()
            .flat_map(|mode| [(mode, false), (mode, true)])
        {
            let probe = ScenarioProbe::new();
            let registry = registry_with_probe(&probe);
            let mut dep = if sharded {
                deploy_parallel(&arch, mode, &registry)?
            } else {
                deploy(&arch, mode, &registry)?
            };
            let mode = if sharded {
                format!("{mode} sharded")
            } else {
                mode.to_string()
            };
            let monitor = dep.resolve("MonitoringSystem")?;
            let audit = dep.resolve("AuditLog")?;
            dep.set_fault_policy(
                monitor,
                FaultPolicy::Restart {
                    max_restarts: ticks as u32 + 1,
                    window: RelativeTime::from_millis(3_600_000),
                    backoff: RelativeTime::from_millis(1),
                },
            )?;
            dep.set_fault_policy(audit, FaultPolicy::Isolate)?;
            let menu = FaultInjector::MENU_ERROR | FaultInjector::MENU_PANIC;
            dep.install_fault_injector(
                monitor,
                FaultInjector::new("MonitoringSystem", seed, 3).with_menu(menu),
            )?;
            dep.install_fault_injector(
                audit,
                FaultInjector::new("AuditLog", seed ^ 0x9E37_79B9, 5).with_menu(menu),
            )?;

            for tick in 0..ticks {
                dep.run_tick().map_err(|e| {
                    SoleilError::Framework(format!(
                        "{mode}/seed {seed}: fault escaped containment at tick {tick}: {e}"
                    ))
                })?;
            }

            // Disarm and settle: contained faults defer the rest of the
            // pending heap to the next drain, so two fault-free ticks
            // flush every deferred message (delivered or counted-dropped).
            dep.remove_fault_injector(monitor)?;
            dep.remove_fault_injector(audit)?;
            let quarantined: Vec<String> = [monitor, audit]
                .into_iter()
                .filter(|c| dep.quarantined(*c).unwrap_or(false))
                .map(|c| dep.name_of(c).unwrap_or("?").to_string())
                .collect();
            let report = dep.health_report();
            let verdicts: Vec<String> = ["SOL-020", "SOL-021", "SOL-022"]
                .iter()
                .flat_map(|code| {
                    report
                        .by_code(code)
                        .map(move |d| format!("{code} {}", d.subject))
                })
                .collect();
            for _ in 0..2 {
                dep.run_tick().map_err(|e| {
                    SoleilError::Framework(format!("{mode}/seed {seed}: settling tick failed: {e}"))
                })?;
            }

            let stats = dep.stats();
            let (m_faults, m_restarts, _) = dep.supervision_counts(monitor)?;
            let (a_faults, _, _) = dep.supervision_counts(audit)?;
            rows.push(ChaosGateRow {
                mode,
                seed,
                pushed: stats.async_messages,
                delivered: stats.delivered_messages,
                dropped: stats.dropped_messages,
                faults_contained: m_faults + a_faults,
                restarts: m_restarts,
                quarantined,
                verdicts,
            });
        }
    }
    Ok(rows)
}

/// Judges the chaos-gate rows: a failure line per storm that lost a
/// message (`pushed != delivered + dropped`), injected no fault at all
/// (an inert storm proves nothing), or left a verdict unexplained — a
/// quarantined component without its SOL-020 finding, or counted drops
/// without SOL-022. An empty result means the gate passes.
pub fn chaos_gate_failures(rows: &[ChaosGateRow]) -> Vec<String> {
    let mut failures = Vec::new();
    for r in rows {
        let tag = format!("{} seed {}", r.mode, r.seed);
        if r.pushed != r.delivered + r.dropped {
            failures.push(format!(
                "{tag}: ledger leak — pushed {} but delivered {} + dropped {}",
                r.pushed, r.delivered, r.dropped
            ));
        }
        if r.faults_contained == 0 {
            failures.push(format!("{tag}: inert storm — no fault was contained"));
        }
        for q in &r.quarantined {
            if !r.verdicts.iter().any(|v| v == &format!("SOL-020 {q}")) {
                failures.push(format!(
                    "{tag}: '{q}' is quarantined but SOL-020 does not say so"
                ));
            }
        }
        if r.dropped > 0 && !r.verdicts.iter().any(|v| v.starts_with("SOL-022")) {
            failures.push(format!(
                "{tag}: {} messages counted-dropped but no SOL-022 finding",
                r.dropped
            ));
        }
    }
    failures
}

/// Renders the chaos-gate rows as an aligned table.
pub fn chaos_gate_table(rows: &[ChaosGateRow]) -> String {
    let mut out = String::new();
    out.push_str("chaos gate: seeded fault storms (pushed == delivered + counted-dropped)\n");
    let _ = writeln!(
        out,
        "{:<19} {:>10} {:>8} {:>10} {:>8} {:>7} {:>8}  verdicts",
        "mode", "seed", "pushed", "delivered", "dropped", "faults", "restarts"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:<19} {:>10} {:>8} {:>10} {:>8} {:>7} {:>8}  {}",
            r.mode,
            r.seed,
            r.pushed,
            r.delivered,
            r.dropped,
            r.faults_contained,
            r.restarts,
            if r.verdicts.is_empty() {
                "-".to_string()
            } else {
                r.verdicts.join(", ")
            }
        );
    }
    out
}

// ---------------------------------------------------------------------------
// Recovery gate (supervision trees + warm-state handoff in virtual time)
// ---------------------------------------------------------------------------

/// The declared supervision tree of the recovery gate's scenario, rendered
/// the way a SOL-023 verdict renders the walked escalation path: every
/// fault originates at `ProductionLine`, escalates through
/// `MonitoringSystem` and is contained by `AuditLog`'s restart policy.
pub const RECOVERY_TREE: &str = "ProductionLine -> MonitoringSystem -> AuditLog";

/// The recovery budget the gate declares: quarantine-to-health in virtual
/// time. The restart backoff is 1 ms doubling inside a 50 ms window (so at
/// most ~4 ms before the window rolls), but a restarted head can be
/// re-faulted by the storm on its first release back, chaining episodes —
/// the budget grants a dozen 10 ms release quanta to cover such streaks.
pub fn recovery_budget() -> RelativeTime {
    RelativeTime::from_millis(120)
}

/// One seeded recovery campaign against one generation mode: the
/// virtual-time recovery metrics plus the warm-state and verdict evidence
/// [`recovery_gate_failures`] judges.
#[derive(Debug, Clone)]
pub struct RecoveryGateRow {
    /// Generation mode the campaign ran against.
    pub mode: String,
    /// The storm's seed.
    pub seed: u64,
    /// Storm ticks driven (the disarmed settling window comes after).
    pub ticks: u64,
    /// Virtual time elapsed across the storm — release quanta plus every
    /// injected latency spike charged to the engine clock.
    pub elapsed_virtual: RelativeTime,
    /// Faults contained by the supervision tree.
    pub faults_contained: u64,
    /// Supervised restarts performed through the timer queue.
    pub restarts: u64,
    /// Releases suppressed while watched components sat quarantined.
    pub suppressed_releases: u64,
    /// Deadline misses recorded while an episode was open.
    pub deadline_misses_during_recovery: u64,
    /// Fault episodes observed (quarantine → health transitions).
    pub episodes: usize,
    /// The longest quarantine-to-health interval among recovered episodes.
    pub max_time_to_restart: Option<RelativeTime>,
    /// Episodes still open when the storm ended (they get the settling
    /// window to recover; components still down after it fail the gate).
    pub open_at_storm_end: usize,
    /// Components still quarantined after the disarmed settling window.
    pub quarantined_after_settle: Vec<String>,
    /// Conservation ledger at quiescence (`pushed == delivered + dropped`).
    pub ledger_balanced: bool,
    /// The SOL-023 escalation path recorded on the containing supervisor.
    pub sol023_path: Option<String>,
    /// Warm-state restores performed into fresh `ProductionLine` instances.
    pub checkpoint_restores: u64,
    /// Highest measurement sequence number audited downstream.
    pub max_seq: u64,
    /// Times an audited sequence number regressed below the running
    /// maximum — any cold restart of the line trips this.
    pub seq_regressions: u64,
}

/// Runs the recovery gate: for every seed and generation mode, the
/// motivation scenario is deployed with its declared supervision tree
/// ([`RECOVERY_TREE`]: the head escalates through monitoring into an
/// `AuditLog` restart policy), the head's `seq` counter is carried across
/// restarts by the Checkpoint capability, and a seeded
/// error+panic+latency storm — virtual-clock latency spikes included —
/// drives [`run_recovery_campaign`] for `ticks`. The injector is then
/// disarmed and the deployment settles. Warm state is witnessed end to
/// end: the audit trail records a sequence regression iff a restart ever
/// lost the head's counter.
///
/// # Errors
///
/// Deployment errors, or a fault escaping the declared tree mid-storm.
pub fn run_recovery_gate(seeds: &[u64], ticks: u64) -> HarnessResult<Vec<RecoveryGateRow>> {
    const SETTLE_TICKS: u64 = 5;
    let arch = motivation_validated()?;
    let mut rows = Vec::with_capacity(seeds.len() * 3);
    for &seed in seeds {
        for mode in [Mode::Soleil, Mode::MergeAll, Mode::UltraMerge] {
            let probe = ScenarioProbe::new();
            let mut dep = deploy(&arch, mode, &registry_with_probe(&probe))?;
            let line = dep.resolve("ProductionLine")?;
            let monitor = dep.resolve("MonitoringSystem")?;
            let audit = dep.resolve("AuditLog")?;

            // The declared tree: faults walk line → monitor → audit, and
            // the audit-side policy restarts the failed subtree as a unit.
            dep.set_supervisor(line, Some(monitor))?;
            dep.set_supervisor(monitor, Some(audit))?;
            dep.set_fault_policy(
                audit,
                FaultPolicy::Restart {
                    max_restarts: ticks as u32 + 1,
                    window: RelativeTime::from_millis(50),
                    backoff: RelativeTime::from_millis(1),
                },
            )?;
            dep.enable_checkpoint(line, 1)?;
            dep.install_fault_injector(
                line,
                FaultInjector::new("ProductionLine", seed, 4)
                    .with_menu(
                        FaultInjector::MENU_ERROR
                            | FaultInjector::MENU_PANIC
                            | FaultInjector::MENU_LATENCY,
                    )
                    .with_latency_spike_ns(2_000_000)
                    .with_virtual_clock(),
            )?;

            let metrics =
                run_recovery_campaign(&mut dep, &[line, monitor], seed, ticks).map_err(|e| {
                    SoleilError::Framework(format!(
                        "{mode}/seed {seed}: fault escaped the supervision tree: {e}"
                    ))
                })?;

            // Disarm and settle: episodes still open at storm end get this
            // window — itself far inside the budget — to restart.
            dep.remove_fault_injector(line)?;
            let settle = run_recovery_campaign(&mut dep, &[line, monitor], seed, SETTLE_TICKS)
                .map_err(|e| {
                    SoleilError::Framework(format!("{mode}/seed {seed}: settling failed: {e}"))
                })?;
            let quarantined_after_settle: Vec<String> = [line, monitor, audit]
                .into_iter()
                .filter(|c| dep.quarantined(*c).unwrap_or(false))
                .map(|c| dep.name_of(c).unwrap_or("?").to_string())
                .collect();

            let (_, restores) = dep.checkpoint_counts(line)?.unwrap_or((0, 0));
            rows.push(RecoveryGateRow {
                mode: mode.to_string(),
                seed,
                ticks,
                elapsed_virtual: metrics.elapsed_virtual,
                faults_contained: metrics.faults_contained,
                restarts: metrics.restarts + settle.restarts,
                suppressed_releases: metrics.suppressed_releases + settle.suppressed_releases,
                deadline_misses_during_recovery: metrics.deadline_misses_during_recovery,
                episodes: metrics.episodes.len(),
                max_time_to_restart: metrics.max_time_to_restart(),
                open_at_storm_end: metrics.unrecovered(),
                quarantined_after_settle,
                ledger_balanced: metrics.ledger_balanced && settle.ledger_balanced,
                sol023_path: dep.escalation_path(audit)?,
                checkpoint_restores: restores,
                max_seq: probe.max_seq(),
                seq_regressions: probe.seq_regressions(),
            });
        }
    }
    Ok(rows)
}

/// Judges the recovery-gate rows: a failure line per campaign that was
/// inert (no fault contained, no restart performed), recovered slower than
/// the declared budget, left a component quarantined after the settling
/// window, lost a message off the conservation ledger, recorded an
/// escalation path other than the declared tree, or failed the warm-state
/// witness (no checkpoint restore, or an audited sequence regression
/// betraying a cold restart). An empty result means the gate passes.
pub fn recovery_gate_failures(rows: &[RecoveryGateRow]) -> Vec<String> {
    let budget = recovery_budget();
    let mut failures = Vec::new();
    for r in rows {
        let tag = format!("{} seed {}", r.mode, r.seed);
        if r.faults_contained == 0 {
            failures.push(format!("{tag}: inert storm — no fault was contained"));
        }
        if r.restarts == 0 {
            failures.push(format!("{tag}: no supervised restart was performed"));
        }
        if let Some(worst) = r.max_time_to_restart {
            if worst > budget {
                failures.push(format!(
                    "{tag}: slowest recovery took {worst} of virtual time; the declared \
                     budget is {budget}"
                ));
            }
        }
        for q in &r.quarantined_after_settle {
            failures.push(format!(
                "{tag}: '{q}' still quarantined after the disarmed settling window"
            ));
        }
        if !r.ledger_balanced {
            failures.push(format!(
                "{tag}: conservation ledger leaked (pushed != delivered + dropped)"
            ));
        }
        match r.sol023_path.as_deref() {
            Some(RECOVERY_TREE) => {}
            other => failures.push(format!(
                "{tag}: SOL-023 path {other:?} does not match the declared tree \
                 '{RECOVERY_TREE}'"
            )),
        }
        if r.checkpoint_restores == 0 {
            failures.push(format!(
                "{tag}: warm state never witnessed — no checkpoint restore happened"
            ));
        }
        if r.seq_regressions != 0 {
            failures.push(format!(
                "{tag}: {} audited sequence regression(s) — a restart lost the head's \
                 warm state",
                r.seq_regressions
            ));
        }
        if r.max_seq == 0 {
            failures.push(format!(
                "{tag}: nothing was audited — the pipeline never ran"
            ));
        }
    }
    failures
}

/// Renders the recovery-gate rows as an aligned table.
pub fn recovery_gate_table(rows: &[RecoveryGateRow]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "recovery gate: tree '{RECOVERY_TREE}', budget {} of virtual time",
        recovery_budget()
    );
    let _ = writeln!(
        out,
        "{:<12} {:>10} {:>9} {:>7} {:>8} {:>10} {:>9} {:>13} {:>8} {:>7}",
        "mode",
        "seed",
        "virtual",
        "faults",
        "restarts",
        "suppressed",
        "episodes",
        "worst-restart",
        "restores",
        "max-seq"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:<12} {:>10} {:>9} {:>7} {:>8} {:>10} {:>9} {:>13} {:>8} {:>7}",
            r.mode,
            r.seed,
            r.elapsed_virtual.to_string(),
            r.faults_contained,
            r.restarts,
            r.suppressed_releases,
            r.episodes,
            r.max_time_to_restart
                .map_or_else(|| "-".to_string(), |t| t.to_string()),
            r.checkpoint_restores,
            r.max_seq
        );
    }
    out
}

// ---------------------------------------------------------------------------
// Reconfiguration gate (live parallel transactions under traffic)
// ---------------------------------------------------------------------------

/// One generation mode's run of the reconfiguration gate: a live sharded
/// deployment taken through committed transactions under traffic, plus the
/// ledger and verdicts the gate judges.
#[derive(Debug, Clone)]
pub struct ReconfigGateRow {
    /// Generation mode the gate ran against.
    pub mode: String,
    /// Committed reconfiguration transactions.
    pub transactions: usize,
    /// Async messages pushed over the whole run, reconfigurations included.
    pub pushed: u64,
    /// Messages delivered to an activation boundary.
    pub delivered: u64,
    /// Messages counted-dropped (must be 0: every epoch drains its rings).
    pub dropped: u64,
    /// Rust-heap allocations during the post-commit steady-state ticks.
    pub heap_allocs: u64,
    /// Substrate allocations during the post-commit steady-state ticks.
    pub substrate_allocs: u64,
    /// Deadline misses under the baseline contract across the run.
    pub deadline_misses: u64,
    /// True when the refused probe transaction left every shard's
    /// structural digest and the architecture's JSON form byte-identical.
    pub rollback_identical: bool,
}

/// The gate's fixture: a periodic producer (its own shard) fanning out to
/// two consumers whose ThreadDomains a synchronous peer binding couples
/// into one shard — so the gate can rewire cross-shard rings *and*
/// re-seat a component across same-shard domains (re-homing its
/// allocation region between the per-domain immortal areas).
fn reconfig_fixture() -> HarnessResult<soleil::core::ValidatedArchitecture> {
    let mut b = BusinessView::new("reconfig-gate");
    b.active_periodic("producer", "10ms")?;
    b.active_sporadic("consumerB")?;
    b.active_sporadic("consumerC")?;
    b.content("producer", "GateFan")?;
    b.content("consumerB", "GateSink")?;
    b.content("consumerC", "GateSink")?;
    b.require("producer", "out1", "I")?;
    b.require("producer", "out2", "I")?;
    b.require("consumerB", "peer", "I")?;
    b.provide("consumerB", "in", "I")?;
    b.provide("consumerC", "in", "I")?;
    b.bind_async("producer", "out1", "consumerB", "in", 64)?;
    b.bind_async("producer", "out2", "consumerC", "in", 64)?;
    b.bind_sync("consumerB", "peer", "consumerC", "in")?;
    let mut flow = DesignFlow::new(b);
    flow.thread_domain("A", ThreadKind::NoHeapRealtime, 30, &["producer"])?;
    flow.thread_domain("B", ThreadKind::NoHeapRealtime, 25, &["consumerB"])?;
    flow.thread_domain("C", ThreadKind::Realtime, 20, &["consumerC"])?;
    flow.memory_area("Imm1", MemoryKind::Immortal, Some(256 * 1024), &["A"])?;
    flow.memory_area("ImmB", MemoryKind::Immortal, Some(256 * 1024), &["B"])?;
    flow.memory_area("ImmC", MemoryKind::Immortal, Some(256 * 1024), &["C"])?;
    Ok(flow.merge()?.into_validated()?)
}

fn reconfig_registry() -> ContentRegistry<u64> {
    #[derive(Debug)]
    struct GateFan;
    impl Content<u64> for GateFan {
        fn on_invoke(&mut self, _p: &str, msg: &mut u64, out: &mut dyn Ports<u64>) -> InvokeResult {
            *msg += 1;
            out.send("out1", *msg)?;
            out.send("out2", *msg)
        }
    }
    #[derive(Debug)]
    struct GateSink;
    impl Content<u64> for GateSink {
        fn on_invoke(
            &mut self,
            _p: &str,
            _msg: &mut u64,
            _out: &mut dyn Ports<u64>,
        ) -> InvokeResult {
            Ok(())
        }
    }
    let mut r = ContentRegistry::new();
    r.register("GateFan", || Box::new(GateFan));
    r.register("GateSink", || Box::new(GateSink));
    r
}

/// Runs the reconfiguration gate: for SOLEIL and MERGE-ALL (ULTRA-MERGE is
/// checked to refuse every structural operation and to commit a policy
/// swap), a live parallel deployment under a baseline
/// deadline contract first weathers a refused probe transaction (its
/// structural digests must round-trip byte-identically), then commits
/// `transactions` live transactions — each combining a cross-ring rebind,
/// a same-shard domain re-assignment with region re-homing and a policy
/// swap — with `ticks_per_txn` ticks of traffic between commits, and
/// finally proves the reconfigured partition still ticks allocation-free.
///
/// # Errors
///
/// Deployment/validation errors, a transaction failing to commit, or
/// ULTRA-MERGE accepting a structural operation, changing anything by
/// refusing one, or failing to commit a policy swap and tick after it.
pub fn run_reconfig_gate(
    transactions: usize,
    ticks_per_txn: u64,
    heap_allocs: impl Fn() -> u64,
) -> HarnessResult<Vec<ReconfigGateRow>> {
    let arch = reconfig_fixture()?;
    let mut rows = Vec::with_capacity(2);
    for mode in [Mode::Soleil, Mode::MergeAll] {
        let mut sys = deploy_parallel(&arch, mode, &reconfig_registry())?;
        sys.attach_contract("producer", baseline_contract())?;
        sys.run_ticks(ticks_per_txn)?;

        // Refusal probe: the combined transaction aborts at the last step;
        // every shard engine and the architectural mirror must come back
        // byte-identical.
        let digests = sys.structural_digests();
        let arch_json = soleil::core::adl::to_json(sys.architecture());
        let refusal = sys.reconfigure(|txn| -> Result<(), FrameworkError> {
            txn.rebind_async("producer", "out1", "consumerC")?;
            txn.reassign_domain("consumerB", "C")?;
            Err(FrameworkError::Content(
                "reconfig-gate refusal probe".into(),
            ))
        });
        let rollback_identical = refusal.is_err()
            && sys.structural_digests() == digests
            && soleil::core::adl::to_json(sys.architecture()) == arch_json;

        // Committed transactions under traffic: ping-pong the ring target,
        // the consumer's domain (re-homing its region each way) and the
        // sibling's supervision policy.
        for i in 0..transactions {
            let flip = i % 2 == 0;
            sys.reconfigure(|txn| {
                txn.rebind_async(
                    "producer",
                    "out1",
                    if flip { "consumerC" } else { "consumerB" },
                )?;
                txn.reassign_domain("consumerB", if flip { "C" } else { "B" })?;
                txn.set_fault_policy(
                    "consumerC",
                    if flip {
                        FaultPolicy::Isolate
                    } else {
                        FaultPolicy::Escalate
                    },
                )
            })?;
            sys.run_ticks(ticks_per_txn)?;
        }

        // The reconfigured partition must still tick allocation-free.
        let runs = sys.run_ticks_instrumented(2, ticks_per_txn, &heap_allocs)?;
        let stats = sys.stats();
        rows.push(ReconfigGateRow {
            mode: mode.to_string(),
            transactions,
            pushed: stats.async_messages,
            delivered: stats.delivered_messages,
            dropped: stats.dropped_messages,
            heap_allocs: runs.iter().map(|r| r.probe_delta).sum(),
            substrate_allocs: runs.iter().map(|r| r.substrate_allocs).sum(),
            deadline_misses: sys.deadline_misses(),
            rollback_identical,
        });
    }

    ultra_merge_probe(&arch, ticks_per_txn)?;
    Ok(rows)
}

/// A structural operation of the reconfiguration gate's ULTRA-MERGE probe.
type StructuralOp = fn(&mut Reconfiguration<'_, u64>) -> Result<(), FrameworkError>;

/// ULTRA-MERGE fuses the membranes away: each structural operation must
/// be refused with `Unsupported`, leaving the digests and the
/// architecture byte-identical (accepting one would be a containment
/// hole, not a feature). The engine-level operations run in every mode: a
/// one-op policy transaction must commit, and the deployment must still
/// tick, delivering every message.
fn ultra_merge_probe(arch: &ValidatedArchitecture, ticks: u64) -> HarnessResult<()> {
    let structural: [(&str, StructuralOp); 5] = [
        ("stop", |t| t.stop("consumerC")),
        ("start", |t| t.start("consumerC")),
        ("rebind", |t| t.rebind("consumerB", "peer", "consumerC")),
        ("rebind_async", |t| {
            t.rebind_async("producer", "out1", "consumerC")
        }),
        ("reassign_domain", |t| t.reassign_domain("consumerB", "C")),
    ];
    let fail = |what: String| Err(SoleilError::Framework(format!("ULTRA-MERGE {what}")));
    let mut ultra = deploy_parallel(arch, Mode::UltraMerge, &reconfig_registry())?;
    let digests = ultra.structural_digests();
    let arch_json = soleil::core::adl::to_json(ultra.architecture());
    for (name, op) in structural {
        match ultra.reconfigure(op) {
            Err(FrameworkError::Unsupported(_)) => {}
            other => return fail(format!("{name}: expected Unsupported, got {other:?}")),
        }
        if ultra.structural_digests() != digests
            || soleil::core::adl::to_json(ultra.architecture()) != arch_json
        {
            return fail(format!("{name}: the refusal changed the deployment"));
        }
    }
    ultra.reconfigure(|t| t.set_fault_policy("consumerC", FaultPolicy::Isolate))?;
    if ultra.fault_policy("consumerC")? != FaultPolicy::Isolate {
        return fail("committed a policy transaction that did not take".into());
    }
    ultra.run_ticks(ticks)?;
    let stats = ultra.stats();
    if stats.async_messages != 2 * ticks || stats.delivered_messages != stats.async_messages {
        return fail(format!(
            "ticked {ticks} times after the policy commit: pushed {}, delivered {}",
            stats.async_messages, stats.delivered_messages
        ));
    }
    Ok(())
}

/// Judges the reconfiguration-gate rows: a failure line per mode that lost
/// or dropped a message across its reconfiguration epochs, allocated on
/// the Rust heap or in the substrate during the post-commit steady state,
/// missed a deadline under the baseline contract, failed to restore the
/// refused probe byte-identically, or committed no transaction at all. An
/// empty result means the gate passes.
pub fn reconfig_gate_failures(rows: &[ReconfigGateRow]) -> Vec<String> {
    let mut failures = Vec::new();
    for r in rows {
        let tag = &r.mode;
        if r.transactions == 0 {
            failures.push(format!("{tag}: inert gate — no transaction committed"));
        }
        if r.pushed != r.delivered + r.dropped {
            failures.push(format!(
                "{tag}: ledger leak — pushed {} but delivered {} + dropped {}",
                r.pushed, r.delivered, r.dropped
            ));
        }
        if r.dropped != 0 {
            failures.push(format!(
                "{tag}: {} message(s) dropped; every reconfiguration epoch must drain its rings",
                r.dropped
            ));
        }
        if r.heap_allocs != 0 {
            failures.push(format!(
                "{tag}: {} Rust-heap allocation(s) in the post-commit steady state",
                r.heap_allocs
            ));
        }
        if r.substrate_allocs != 0 {
            failures.push(format!(
                "{tag}: {} substrate allocation(s) in the post-commit steady state",
                r.substrate_allocs
            ));
        }
        if r.deadline_misses != 0 {
            failures.push(format!(
                "{tag}: {} deadline miss(es) under the baseline contract",
                r.deadline_misses
            ));
        }
        if !r.rollback_identical {
            failures.push(format!(
                "{tag}: the refused probe transaction did not restore the shards and the \
                 architecture byte-identically"
            ));
        }
    }
    failures
}

/// Renders the reconfiguration-gate rows as an aligned table.
pub fn reconfig_gate_table(rows: &[ReconfigGateRow]) -> String {
    let mut out = String::new();
    out.push_str(
        "reconfig gate: live parallel transactions under traffic \
         (pushed == delivered, zero-alloc steady state, byte-identical rollback)\n",
    );
    let _ = writeln!(
        out,
        "{:<12} {:>5} {:>8} {:>10} {:>8} {:>6} {:>10} {:>7}  rollback",
        "mode", "txns", "pushed", "delivered", "dropped", "heap", "substrate", "misses"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:<12} {:>5} {:>8} {:>10} {:>8} {:>6} {:>10} {:>7}  {}",
            r.mode,
            r.transactions,
            r.pushed,
            r.delivered,
            r.dropped,
            r.heap_allocs,
            r.substrate_allocs,
            r.deadline_misses,
            if r.rollback_identical {
                "byte-identical"
            } else {
                "DIVERGED"
            }
        );
    }
    out
}

// ---------------------------------------------------------------------------
// The churn shape (reconfiguration without end)
// ---------------------------------------------------------------------------

/// Ring depth of [`churn_fixture`]'s asynchronous bindings.
pub const CHURN_RING: usize = 64;

/// The shape perfbench's `churn` workload reconfigures: a periodic
/// `producer` (NHRT domain `A`, immortal area `ImmA`) sends each release
/// on `out1` to a sporadic `worker` (NHRT `B`, `ImmB`) and on `out2` to
/// `sink`; `worker` calls `peer` (`sink`) synchronously; `sink` and
/// `spare` (real-time `C`, `ImmC`) serve `in`. The three immortal areas
/// fold into one immortal budget per engine. Sharded, `producer` runs
/// alone and the synchronous `peer` couples `B` and `C` into one shard,
/// so `out2` rides a ring that `rebind_async` moves between `sink` and
/// `spare`, and moving `spare` between `B` and `C` re-homes it between
/// `ImmB` and `ImmC`.
///
/// # Errors
///
/// Propagates design errors (none expected).
pub fn churn_fixture() -> HarnessResult<(ValidatedArchitecture, ContentRegistry<u64>)> {
    use soleil::membrane::content::InternedPort;

    let mut b = BusinessView::new("churn");
    b.active_periodic("producer", "10ms")?;
    b.active_sporadic("worker")?;
    b.active_sporadic("sink")?;
    b.active_sporadic("spare")?;
    b.content("producer", "Fan")?;
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

    #[derive(Debug)]
    struct Fan([InternedPort; 2]);
    impl Content<u64> for Fan {
        fn on_invoke(&mut self, _p: &str, msg: &mut u64, out: &mut dyn Ports<u64>) -> InvokeResult {
            *msg += 1;
            self.0[0].send(out, *msg)?;
            self.0[1].send(out, *msg)
        }
    }
    #[derive(Debug)]
    struct Worker(InternedPort);
    impl Content<u64> for Worker {
        fn on_invoke(&mut self, _p: &str, msg: &mut u64, out: &mut dyn Ports<u64>) -> InvokeResult {
            self.0.call(out, msg)
        }
    }
    #[derive(Debug)]
    struct Service;
    impl Content<u64> for Service {
        fn on_invoke(&mut self, _p: &str, _m: &mut u64, _o: &mut dyn Ports<u64>) -> InvokeResult {
            Ok(())
        }
    }
    let mut registry: ContentRegistry<u64> = ContentRegistry::new();
    registry.register("Fan", || {
        Box::new(Fan([InternedPort::new("out1"), InternedPort::new("out2")]))
    });
    registry.register("Worker", || Box::new(Worker(InternedPort::new("peer"))));
    registry.register("Service", || Box::new(Service));
    Ok((flow.merge()?.into_validated()?, registry))
}

// ---------------------------------------------------------------------------
// Synthetic pipelines (ablation: overhead vs. pipeline depth)
// ---------------------------------------------------------------------------

/// Builds an `stages`-deep asynchronous relay pipeline (periodic head, then
/// `stages` sporadic relays, all NHRT in immortal memory) and returns the
/// running system. Every stage but the tail relays its message on; the
/// tail only consumes it. Used by the zero-alloc gate and this crate's
/// tests.
///
/// # Errors
///
/// Propagates design or build errors (none expected for valid inputs).
pub fn build_relay_pipeline(
    stages: usize,
    mode: Mode,
) -> HarnessResult<soleil::runtime::Deployment<u64>> {
    use soleil::prelude::*;

    let mut b = BusinessView::new(format!("relay-{stages}"));
    b.active_periodic("stage0", "10ms")?;
    b.content("stage0", "Relay")?;
    for i in 1..=stages {
        let name = format!("stage{i}");
        b.active_sporadic(&name)?;
        b.content(&name, if i == stages { "RelayTail" } else { "Relay" })?;
    }
    for i in 0..stages {
        let (from, to) = (format!("stage{i}"), format!("stage{}", i + 1));
        b.require(&from, "out", "I")?;
        b.provide(&to, "in", "I")?;
        b.bind_async(&from, "out", &to, "in", 4)?;
    }
    let mut flow = DesignFlow::new(b);
    let members: Vec<String> = (0..=stages).map(|i| format!("stage{i}")).collect();
    let member_refs: Vec<&str> = members.iter().map(String::as_str).collect();
    flow.thread_domain("nhrt", ThreadKind::NoHeapRealtime, 30, &member_refs)?;
    flow.memory_area("imm", MemoryKind::Immortal, Some(1 << 20), &["nhrt"])?;
    let arch = flow.merge()?;

    #[derive(Debug)]
    struct Relay {
        out: soleil::membrane::content::InternedPort,
    }
    impl Default for Relay {
        fn default() -> Self {
            Relay {
                out: soleil::membrane::content::InternedPort::new("out"),
            }
        }
    }
    impl Content<u64> for Relay {
        fn on_invoke(&mut self, _p: &str, msg: &mut u64, out: &mut dyn Ports<u64>) -> InvokeResult {
            *msg = lcg(*msg);
            self.out.send(out, *msg)
        }
    }
    #[derive(Debug, Default)]
    struct RelayTail;
    impl Content<u64> for RelayTail {
        fn on_invoke(&mut self, _p: &str, msg: &mut u64, _o: &mut dyn Ports<u64>) -> InvokeResult {
            *msg = lcg(*msg);
            Ok(())
        }
    }
    fn lcg(x: u64) -> u64 {
        x.wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407)
    }
    let mut registry: ContentRegistry<u64> = ContentRegistry::new();
    registry.register("Relay", || Box::new(Relay::default()));
    registry.register("RelayTail", || Box::new(RelayTail));
    Ok(deploy(&arch.into_validated()?, mode, &registry)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_runner_produces_all_rows() {
        let rows = run_overhead(50, 200).unwrap();
        assert_eq!(rows.len(), 4);
        assert_eq!(rows[0].label, "OO");
        for r in &rows {
            assert_eq!(r.samples.len(), 200);
            assert!(r.samples.summary().is_some());
        }
        let table = fig7b_table(&rows);
        assert!(table.contains("SOLEIL"));
        assert!(table.contains("median"));
        let hist = fig7a_report(&rows, 10);
        assert!(hist.contains("ULTRA-MERGE"));
    }

    #[test]
    fn footprint_runner_matches_paper_shape() {
        let reports = run_footprint().unwrap();
        assert_eq!(reports.len(), 4);
        let by_label = |l: &str| {
            reports
                .iter()
                .find(|r| r.label == l)
                .unwrap_or_else(|| panic!("missing {l}"))
        };
        let oo = by_label("OO");
        let soleil = by_label("SOLEIL");
        let merge = by_label("MERGE-ALL");
        let ultra = by_label("ULTRA-MERGE");
        // Shape: SOLEIL >> MERGE-ALL > ULTRA-MERGE; SOLEIL biggest overhead.
        assert!(soleil.framework_bytes > merge.framework_bytes);
        assert!(merge.framework_bytes > ultra.framework_bytes);
        assert!(soleil.overhead_vs(oo) > merge.overhead_vs(oo));
        let table = fig7c_table(&reports);
        assert!(table.contains("overhead vs OO"));
    }

    #[test]
    fn codegen_runner_matches_paper_claims() {
        let rows = run_codegen().unwrap();
        assert_eq!(rows.len(), 3);
        assert!(rows[0].units > rows[1].units && rows[1].units > rows[2].units);
        assert_eq!(rows[2].units, 1, "ULTRA-MERGE is one unit");
        assert!(rows[0].membrane_reconfig && !rows[1].membrane_reconfig);
        assert!(rows[1].functional_reconfig && !rows[2].functional_reconfig);
        let table = codegen_table(&rows);
        assert!(table.contains("indirections"));
    }

    #[test]
    fn relay_pipeline_runs_at_every_depth_and_mode() {
        for stages in [1usize, 3, 8] {
            for mode in [Mode::Soleil, Mode::MergeAll, Mode::UltraMerge] {
                let mut sys = build_relay_pipeline(stages, mode).unwrap();
                let head = sys.resolve("stage0").unwrap();
                for _ in 0..10 {
                    sys.run_transaction(head).unwrap();
                }
                let st = sys.stats();
                assert_eq!(st.transactions, 10);
                // One activation per stage (head + N relays) per transaction.
                assert_eq!(st.activations, 10 * (stages as u64 + 1));
                assert_eq!(st.dropped_messages, 0);
            }
        }
    }

    #[test]
    fn steady_state_json_threads_the_real_observation_count() {
        // Regression: the artifact used to be emitted with a count baked
        // into the caller; the JSON must reflect whatever was measured.
        let rows = vec![
            SteadyStateRow {
                label: "OO".into(),
                median_ns: 1200,
                allocs_per_transaction: 0.0,
                substrate_allocs_per_transaction: 0.0,
                string_compares_per_transaction: 0.0,
                deadline_misses: 0,
                dropped_messages: 0,
            },
            SteadyStateRow {
                label: "PARALLEL".into(),
                median_ns: 900,
                allocs_per_transaction: 0.0,
                substrate_allocs_per_transaction: 0.0,
                string_compares_per_transaction: 0.0,
                deadline_misses: 0,
                dropped_messages: 0,
            },
        ];
        let json = steady_state_json(&rows, 1234);
        assert!(json.contains("\"observations\": 1234"), "{json}");
        assert!(json.contains("\"mode\": \"PARALLEL\""), "{json}");
        assert!(
            json.contains("\"median_ns_per_transaction\": 900"),
            "{json}"
        );
        assert!(
            json.contains("\"string_compares_per_transaction\": 0"),
            "{json}"
        );
        assert!(json.contains("\"deadline_misses\": 0"), "{json}");
        let other = steady_state_json(&rows, 77);
        assert!(other.contains("\"observations\": 77"), "{other}");
    }

    #[test]
    fn regression_gate_separates_pass_from_fail() {
        let committed = r#"{
  "benchmark": "steady_state_transaction",
  "observations": 100,
  "modes": [
    {"mode": "SOLEIL", "median_ns_per_transaction": 1000, "allocs_per_transaction": 0, "substrate_allocs_per_transaction": 0},
    {"mode": "MERGE-ALL", "median_ns_per_transaction": 1000, "allocs_per_transaction": 0, "substrate_allocs_per_transaction": 0},
    {"mode": "PARALLEL", "median_ns_per_transaction": 500, "allocs_per_transaction": 0, "substrate_allocs_per_transaction": 0}
  ]
}"#;
        let row = |label: &str, median_ns: u64, allocs: f64| SteadyStateRow {
            label: label.into(),
            median_ns,
            allocs_per_transaction: allocs,
            substrate_allocs_per_transaction: 0.0,
            string_compares_per_transaction: 0.0,
            deadline_misses: 0,
            dropped_messages: 0,
        };

        // Within threshold, allocation-free, all modes present: clean.
        let fresh = vec![
            row("SOLEIL", 1249, 0.0),
            row("MERGE-ALL", 900, 0.0),
            row("PARALLEL", 500, 0.0),
        ];
        assert!(steady_state_regressions(committed, &fresh, 25.0)
            .unwrap()
            .is_empty());

        // A >25% median regression, a non-zero alloc count and a missing
        // mode each produce a failure line.
        let fresh = vec![row("SOLEIL", 1300, 0.0), row("MERGE-ALL", 900, 0.5)];
        let failures = steady_state_regressions(committed, &fresh, 25.0).unwrap();
        assert_eq!(failures.len(), 3, "{failures:?}");
        assert!(failures[0].contains("SOLEIL") && failures[0].contains("regressed"));
        assert!(failures[1].contains("PARALLEL") && failures[1].contains("missing"));
        assert!(failures[2].contains("MERGE-ALL") && failures[2].contains("Rust-heap"));

        // A mode newer than the committed artifact has no median baseline,
        // but its allocation discipline is still gated.
        let fresh = vec![
            row("SOLEIL", 1000, 0.0),
            row("MERGE-ALL", 1000, 0.0),
            row("PARALLEL", 500, 0.0),
            row("NEW-MODE", 10, 2.0),
        ];
        let failures = steady_state_regressions(committed, &fresh, 25.0).unwrap();
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("NEW-MODE") && failures[0].contains("Rust-heap"));

        // A malformed artifact fails loudly, never silently passes.
        assert!(steady_state_regressions("{}", &fresh, 25.0).is_err());
        assert!(steady_state_regressions("not json", &fresh, 25.0).is_err());
    }

    #[test]
    fn regression_gate_catches_dispatch_counter_and_lead_regressions() {
        let committed = r#"{
  "benchmark": "steady_state_transaction",
  "observations": 100,
  "modes": [
    {"mode": "SOLEIL", "median_ns_per_transaction": 1000, "allocs_per_transaction": 0, "substrate_allocs_per_transaction": 0},
    {"mode": "MERGE-ALL", "median_ns_per_transaction": 1000, "allocs_per_transaction": 0, "substrate_allocs_per_transaction": 0}
  ]
}"#;
        let row = |label: &str, median_ns: u64, compares: f64| SteadyStateRow {
            label: label.into(),
            median_ns,
            allocs_per_transaction: 0.0,
            substrate_allocs_per_transaction: 0.0,
            string_compares_per_transaction: compares,
            deadline_misses: 0,
            dropped_messages: 0,
        };

        // A deadline miss is its own failure line, even with every other
        // counter clean.
        let mut missed = row("SOLEIL", 1000, 0.0);
        missed.deadline_misses = 2;
        let fresh = vec![missed, row("MERGE-ALL", 1000, 0.0)];
        let failures = steady_state_regressions(committed, &fresh, 25.0).unwrap();
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(
            failures[0].contains("SOLEIL") && failures[0].contains("deadline miss"),
            "{failures:?}"
        );

        // So is a dropped message: a row that lost work timed less than
        // the whole scenario.
        let mut lossy = row("MERGE-ALL", 1000, 0.0);
        lossy.dropped_messages = 4940;
        let fresh = vec![row("SOLEIL", 1000, 0.0), lossy];
        let failures = steady_state_regressions(committed, &fresh, 25.0).unwrap();
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(
            failures[0].contains("MERGE-ALL") && failures[0].contains("4940 message(s) dropped"),
            "{failures:?}"
        );

        // MERGE-ALL within its committed threshold (1000 → 990) yet
        // behind SOLEIL by more than the 5% lead noise: the lead gate must
        // still fire — that's exactly the regression the committed-median
        // comparison alone cannot see.
        let fresh = vec![row("SOLEIL", 900, 0.0), row("MERGE-ALL", 990, 0.0)];
        let failures = steady_state_regressions(committed, &fresh, 25.0).unwrap();
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(
            failures[0].contains("MERGE-ALL") && failures[0].contains("lead"),
            "{failures:?}"
        );

        // A non-zero dispatch counter produces a failure line per row,
        // even when every median is fine.
        let fresh = vec![row("SOLEIL", 1000, 3.0), row("MERGE-ALL", 900, 1.0)];
        let failures = steady_state_regressions(committed, &fresh, 25.0).unwrap();
        assert_eq!(failures.len(), 2, "{failures:?}");
        assert!(failures[0].contains("SOLEIL") && failures[0].contains("string compares"));
        assert!(failures[1].contains("MERGE-ALL") && failures[1].contains("string compares"));

        // At exactly the noise boundary the lead gate stays quiet.
        let fresh = vec![row("SOLEIL", 1000, 0.0), row("MERGE-ALL", 1050, 0.0)];
        assert!(steady_state_regressions(committed, &fresh, 25.0)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn regression_gate_accepts_the_committed_artifact() {
        // The committed artifact must always gate against itself: a
        // re-run reproducing identical numbers passes by construction.
        let committed = include_str!("../../../BENCH_steady_state.json");
        let doc = soleil::core::json::parse(committed).expect("committed artifact parses");
        let fresh: Vec<SteadyStateRow> = doc
            .get("modes")
            .and_then(|m| m.as_array())
            .expect("modes array")
            .iter()
            .map(|e| SteadyStateRow {
                label: e.get("mode").and_then(|v| v.as_str()).unwrap().to_string(),
                median_ns: e
                    .get("median_ns_per_transaction")
                    .and_then(|v| v.as_u64())
                    .unwrap(),
                allocs_per_transaction: 0.0,
                substrate_allocs_per_transaction: 0.0,
                string_compares_per_transaction: 0.0,
                deadline_misses: 0,
                dropped_messages: 0,
            })
            .collect();
        assert!(steady_state_regressions(committed, &fresh, 25.0)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn parallel_steady_row_reports_motivation_shards() {
        let row = run_parallel_steady(50, 200, || 0).unwrap();
        assert_eq!(row.label, "PARALLEL");
        assert_eq!(row.substrate_allocs_per_transaction, 0.0);
        assert_eq!(row.deadline_misses, 0, "generous contract must hold");
        assert_eq!(row.dropped_messages, 0, "every shard does its share");
    }

    #[test]
    fn determinism_runner_shows_gc_contrast() {
        let rows = run_determinism(1_000).unwrap();
        assert_eq!(rows.len(), 4);
        let nhrt: Vec<_> = rows.iter().filter(|r| r.label.contains("NHRT")).collect();
        let reg: Vec<_> = rows
            .iter()
            .filter(|r| r.label.contains("Regular"))
            .collect();
        for r in &nhrt {
            assert_eq!(r.deadline_misses, 0, "NHRT stage {} immune to GC", r.stage);
            assert_eq!(
                r.jitter,
                RelativeTime::ZERO,
                "NHRT stage {} is flat",
                r.stage
            );
        }
        let reg_misses: u64 = reg.iter().map(|r| r.deadline_misses).sum();
        assert!(
            reg_misses > 0,
            "regular deployment must miss deadlines under GC"
        );
        let reg_worst = reg.iter().map(|r| r.max).max().unwrap();
        let nhrt_worst = nhrt.iter().map(|r| r.max).max().unwrap();
        assert!(
            reg_worst > nhrt_worst * 10,
            "GC dominates the regular worst case"
        );
    }

    #[test]
    fn chaos_gate_conserves_and_explains() {
        let rows = run_chaos_gate(&[7, 0xDEAD_BEEF], 60).unwrap();
        assert_eq!(rows.len(), 12, "two seeds x three modes x two shapes");
        assert_eq!(
            rows.iter().filter(|r| r.mode.ends_with(" sharded")).count(),
            6,
            "every seed and mode runs sharded too"
        );
        let failures = chaos_gate_failures(&rows);
        assert!(failures.is_empty(), "chaos gate failed: {failures:?}");
        assert!(
            rows.iter().all(|r| r.faults_contained > 0),
            "every storm must actually inject"
        );
        assert!(
            rows.iter().any(|r| r.restarts > 0),
            "the supervised-restart path must exercise"
        );
        let table = chaos_gate_table(&rows);
        assert!(table.contains("SOL-020") || table.contains('-'));
    }

    #[test]
    fn recovery_gate_recovers_warm_within_budget() {
        let rows = run_recovery_gate(&[11, 0xC0FF_EE00, 42], 120).unwrap();
        assert_eq!(rows.len(), 9, "three seeds x three modes");
        let failures = recovery_gate_failures(&rows);
        assert!(failures.is_empty(), "recovery gate failed: {failures:?}");
        assert!(
            rows.iter().all(|r| r.restarts > 0),
            "every campaign must exercise the restart path"
        );
        assert!(
            rows.iter()
                .all(|r| r.elapsed_virtual >= RelativeTime::from_millis(10 * 120)),
            "virtual time must cover the release quanta plus injected spikes"
        );
        let table = recovery_gate_table(&rows);
        assert!(table.contains(RECOVERY_TREE));
    }

    #[test]
    fn recovery_gate_failures_catch_cooked_rows() {
        let mut rows = run_recovery_gate(&[11], 60).unwrap();
        rows[0].seq_regressions = 3; // simulate a cold restart
        rows[1].sol023_path = Some("ProductionLine -> AuditLog".into());
        rows[2].ledger_balanced = false;
        let failures = recovery_gate_failures(&rows);
        assert!(failures.iter().any(|f| f.contains("warm state")));
        assert!(failures.iter().any(|f| f.contains("declared tree")));
        assert!(failures.iter().any(|f| f.contains("ledger")));
    }

    #[test]
    fn reconfig_gate_conserves_and_rolls_back() {
        let rows = run_reconfig_gate(4, 10, || 0).unwrap();
        assert_eq!(rows.len(), 2, "SOLEIL and MERGE-ALL");
        let failures = reconfig_gate_failures(&rows);
        assert!(failures.is_empty(), "reconfig gate failed: {failures:?}");
        assert!(
            rows.iter().all(|r| r.pushed > 0),
            "the gate must actually push traffic"
        );
        let table = reconfig_gate_table(&rows);
        assert!(table.contains("byte-identical"));
    }

    #[test]
    fn reconfig_gate_failures_catch_a_cooked_row() {
        let mut rows = run_reconfig_gate(2, 10, || 0).unwrap();
        rows[0].pushed += 1; // simulate a silently lost message
        rows[1].rollback_identical = false;
        let failures = reconfig_gate_failures(&rows);
        assert!(failures.iter().any(|f| f.contains("ledger leak")));
        assert!(failures.iter().any(|f| f.contains("byte-identically")));
    }

    #[test]
    fn chaos_gate_failures_catch_a_cooked_ledger() {
        let mut rows = run_chaos_gate(&[7], 30).unwrap();
        rows[0].pushed += 1; // simulate a silently lost message
        rows[1].quarantined.push("ghost".into());
        let failures = chaos_gate_failures(&rows);
        assert!(failures.iter().any(|f| f.contains("ledger leak")));
        assert!(failures.iter().any(|f| f.contains("ghost")));
    }
}
