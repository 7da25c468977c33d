//! Regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! cargo run -p soleil-bench --release --bin reproduce            # everything
//! cargo run -p soleil-bench --release --bin reproduce -- fig7a   # one artifact
//! ```
//!
//! Artifacts: `fig7a`, `fig7b`, `fig7c`, `codegen` (E4), `determinism`
//! (E5), `steady` (the zero-allocation perf gate, emitting
//! `BENCH_steady_state.json`), `steady-gate` (CI regression gate: re-runs
//! the steady measurement and exits non-zero when any mode's median
//! regresses >25% vs the committed artifact, when allocs or string
//! compares per transaction leave 0, when the baseline scenario's deadline
//! contract records a miss, or when MERGE-ALL's median falls behind
//! SOLEIL's by more than noise; never part of `all`), `chaos-gate`
//! (fault-containment gate: deterministic seeded fault storms against all
//! three modes must end with `pushed == delivered + counted-dropped` and
//! every quarantine/drop verdict explained by SOL-020…022; exits non-zero
//! otherwise, never part of `all`), `reconfig-gate` (live-reconfiguration
//! gate: N committed transactions — cross-ring rebinds, domain
//! re-assignments with region re-homing, policy swaps — against a running
//! parallel deployment under traffic must conserve every message, keep the
//! post-commit steady state allocation-free, miss no deadline and restore
//! a refused probe transaction byte-identically, while ULTRA-MERGE refuses
//! to reconfigure at all; exits non-zero otherwise, never part of `all`),
//! `recovery-gate` (supervision-tree gate: seeded virtual-time fault
//! campaigns against all three modes must recover every quarantine within
//! the declared backoff budget, witness warm state across at least one
//! checkpointed restart, record the declared escalation path as SOL-023
//! and balance the conservation ledger at quiescence; exits non-zero
//! otherwise, never part of `all`), `all` (default). Raw observation CSVs
//! are written to `target/experiments/`.
//!
//! `--observations N` overrides the number of measured iterations (the
//! same count is threaded into the emitted JSON, never hardcoded):
//!
//! ```text
//! cargo run -p soleil-bench --release --bin reproduce -- steady --observations 5000
//! ```

use std::fs;
use std::path::Path;

use soleil::SoleilError;

use soleil_bench::{
    chaos_gate_failures, chaos_gate_table, codegen_table, determinism_table, fig7a_report,
    fig7b_table, fig7c_table, reconfig_gate_failures, reconfig_gate_table, recovery_gate_failures,
    recovery_gate_table, run_chaos_gate, run_codegen, run_determinism, run_footprint, run_overhead,
    run_reconfig_gate, run_recovery_gate, run_steady_state, steady_state_json,
    steady_state_regressions, SteadyStateRow,
};

// Installs the counting global allocator so the steady artifact can report
// allocs/transaction.
#[path = "../alloc_probe.rs"]
mod alloc_probe;

const DEFAULT_OBSERVATIONS: usize = 10_000;
const WARMUP: usize = 2_000;

/// Prints the steady-state rows as the `steady`/`steady-gate` table.
fn print_steady_rows(rows: &[SteadyStateRow]) {
    println!(
        "steady-state transaction (median ns, allocs/txn, substrate allocs/txn, \
         string compares/txn, deadline misses):"
    );
    for r in rows {
        println!(
            "  {:<12} {:>10} ns   {:>6} heap   {:>6} substrate   {:>6} compares   {:>6} misses",
            r.label,
            r.median_ns,
            r.allocs_per_transaction,
            r.substrate_allocs_per_transaction,
            r.string_compares_per_transaction,
            r.deadline_misses
        );
    }
}

fn main() -> Result<(), SoleilError> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut what: Option<String> = None;
    let mut observations = DEFAULT_OBSERVATIONS;
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        if arg == "--observations" {
            let value = it.next().and_then(|v| v.parse::<usize>().ok());
            match value {
                Some(n) if n > 0 => observations = n,
                _ => {
                    eprintln!("--observations expects a positive integer");
                    std::process::exit(2);
                }
            }
        } else if what.is_none() {
            what = Some(arg);
        } else {
            eprintln!("unexpected argument '{arg}'");
            std::process::exit(2);
        }
    }
    let what = what.as_deref().unwrap_or("all");
    let out_dir = Path::new("target/experiments");
    fs::create_dir_all(out_dir)?;

    let wants = |k: &str| what == "all" || what == k;
    let mut ran = false;

    if wants("fig7a") || wants("fig7b") {
        eprintln!(
            "running overhead benchmark ({observations} observations x 4 implementations)..."
        );
        let rows = run_overhead(WARMUP, observations)?;
        if wants("fig7a") {
            let report = fig7a_report(&rows, 24);
            println!("{report}");
            fs::write(out_dir.join("fig7a.txt"), &report)?;
            for r in &rows {
                let name = format!("fig7a_{}.csv", r.label.to_lowercase().replace('-', "_"));
                fs::write(out_dir.join(name), r.samples.to_csv())?;
            }
            ran = true;
        }
        if wants("fig7b") {
            let table = fig7b_table(&rows);
            println!("{table}");
            fs::write(out_dir.join("fig7b.txt"), &table)?;
            ran = true;
        }
    }

    if wants("fig7c") {
        let reports = run_footprint()?;
        let table = fig7c_table(&reports);
        println!("{table}");
        fs::write(out_dir.join("fig7c.txt"), &table)?;
        ran = true;
    }

    if wants("codegen") {
        let rows = run_codegen()?;
        let table = codegen_table(&rows);
        println!("{table}");
        fs::write(out_dir.join("codegen.txt"), &table)?;
        // Full generated-source listings per mode (the E4 artifact).
        let arch = soleil::scenario::motivation_validated()?;
        let spec = soleil::generator::compile(&arch)?;
        for mode in [
            soleil::runtime::Mode::Soleil,
            soleil::runtime::Mode::MergeAll,
            soleil::runtime::Mode::UltraMerge,
        ] {
            let listing = soleil::generator::emit_source(&spec, mode).render();
            let name = format!(
                "generated_{}.rs.txt",
                mode.to_string().to_lowercase().replace('-', "_")
            );
            fs::write(out_dir.join(name), listing)?;
        }
        ran = true;
    }

    if wants("steady") {
        eprintln!(
            "running steady-state perf gate ({observations} observations x 5 implementations)..."
        );
        let rows = run_steady_state(WARMUP, observations, alloc_probe::allocations)?;
        print_steady_rows(&rows);
        let json = steady_state_json(&rows, observations);
        fs::write("BENCH_steady_state.json", &json)?;
        fs::write(out_dir.join("BENCH_steady_state.json"), &json)?;
        eprintln!("wrote BENCH_steady_state.json");
        ran = true;
    }

    // The CI regression gate: never part of `all` (it needs the committed
    // artifact as its baseline and fails the process on regression).
    if what == "steady-gate" {
        let committed = fs::read_to_string("BENCH_steady_state.json").map_err(|e| {
            SoleilError::Framework(format!(
                "cannot read committed BENCH_steady_state.json: {e}"
            ))
        })?;
        eprintln!(
            "running steady-state regression gate ({observations} observations x 5 implementations)..."
        );
        let rows = run_steady_state(WARMUP, observations, alloc_probe::allocations)?;
        print_steady_rows(&rows);
        // Re-emit the fresh artifact next to the raw data (the committed
        // file stays the baseline; refresh it with `steady`).
        fs::write(
            out_dir.join("BENCH_steady_state.fresh.json"),
            steady_state_json(&rows, observations),
        )?;
        const THRESHOLD_PCT: f64 = 25.0;
        let failures = steady_state_regressions(&committed, &rows, THRESHOLD_PCT)?;
        if failures.is_empty() {
            eprintln!(
                "steady-state gate passed: no mode regressed >{THRESHOLD_PCT}% vs the \
                 committed artifact; allocs and string compares per transaction \
                 are 0 everywhere; no deadline miss under the baseline contract; \
                 MERGE-ALL kept its lead on SOLEIL"
            );
        } else {
            eprintln!("steady-state gate FAILED:");
            for f in &failures {
                eprintln!("  - {f}");
            }
            std::process::exit(1);
        }
        ran = true;
    }

    // The fault-containment gate: deterministic seeded storms against
    // every generation mode must end with a balanced ledger (pushed ==
    // delivered + counted-dropped) and every verdict explained. Like
    // `steady-gate`, it fails the process and is never part of `all`.
    if what == "chaos-gate" {
        const SEEDS: [u64; 3] = [7, 0xDEAD_BEEF, 0x5EED_CAFE];
        const STORM_TICKS: u64 = 200;
        eprintln!(
            "running chaos gate ({} seeds x 3 modes x {STORM_TICKS} ticks)...",
            SEEDS.len()
        );
        // Injected panics are caught at the activation boundary; keep the
        // default hook from spraying backtraces over the artifact.
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let rows = run_chaos_gate(&SEEDS, STORM_TICKS);
        std::panic::set_hook(hook);
        let rows = rows?;
        let table = chaos_gate_table(&rows);
        println!("{table}");
        fs::write(out_dir.join("chaos_gate.txt"), &table)?;
        let failures = chaos_gate_failures(&rows);
        if failures.is_empty() {
            eprintln!(
                "chaos gate passed: every storm conserved its messages and every \
                 quarantine/drop verdict is explained by SOL-020…022"
            );
        } else {
            eprintln!("chaos gate FAILED:");
            for f in &failures {
                eprintln!("  - {f}");
            }
            std::process::exit(1);
        }
        ran = true;
    }

    // The live-reconfiguration gate: committed transactions against a
    // running parallel deployment must conserve traffic, stay
    // allocation-free afterwards and roll a refused probe back
    // byte-identically. Like the other gates, it fails the process and is
    // never part of `all`.
    if what == "reconfig-gate" {
        const TRANSACTIONS: usize = 8;
        const TICKS_PER_TXN: u64 = 20;
        eprintln!(
            "running reconfiguration gate ({TRANSACTIONS} transactions x \
             {TICKS_PER_TXN} ticks, 2 modes + ULTRA-MERGE refusal)..."
        );
        let rows = run_reconfig_gate(TRANSACTIONS, TICKS_PER_TXN, alloc_probe::allocations)?;
        let table = reconfig_gate_table(&rows);
        println!("{table}");
        fs::write(out_dir.join("reconfig_gate.txt"), &table)?;
        let failures = reconfig_gate_failures(&rows);
        if failures.is_empty() {
            eprintln!(
                "reconfiguration gate passed: every transaction committed with exact \
                 message conservation, the post-commit steady state is \
                 allocation-free, the refused probe rolled back byte-identically \
                 and ULTRA-MERGE refused to reconfigure"
            );
        } else {
            eprintln!("reconfiguration gate FAILED:");
            for f in &failures {
                eprintln!("  - {f}");
            }
            std::process::exit(1);
        }
        ran = true;
    }

    // The supervision-tree recovery gate: seeded virtual-time fault
    // campaigns must recover bounded and warm. Like the other gates, it
    // fails the process and is never part of `all`.
    if what == "recovery-gate" {
        const SEEDS: [u64; 3] = [11, 0xC0FF_EE00, 0x5EED_0042];
        const STORM_TICKS: u64 = 200;
        eprintln!(
            "running recovery gate ({} seeds x 3 modes x {STORM_TICKS} ticks, virtual time)...",
            SEEDS.len()
        );
        // Injected panics are caught at the activation boundary; keep the
        // default hook from spraying backtraces over the artifact.
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let rows = run_recovery_gate(&SEEDS, STORM_TICKS);
        std::panic::set_hook(hook);
        let rows = rows?;
        let table = recovery_gate_table(&rows);
        println!("{table}");
        fs::write(out_dir.join("recovery_gate.txt"), &table)?;
        let failures = recovery_gate_failures(&rows);
        if failures.is_empty() {
            eprintln!(
                "recovery gate passed: every quarantine recovered within the declared \
                 budget of virtual time, warm state survived every checkpointed \
                 restart, SOL-023 matches the declared supervision tree and the \
                 conservation ledger balances at quiescence"
            );
        } else {
            eprintln!("recovery gate FAILED:");
            for f in &failures {
                eprintln!("  - {f}");
            }
            std::process::exit(1);
        }
        ran = true;
    }

    if wants("determinism") {
        let rows = run_determinism(2_000)?;
        let table = determinism_table(&rows);
        println!("{table}");
        fs::write(out_dir.join("determinism.txt"), &table)?;
        ran = true;
    }

    if !ran {
        eprintln!(
            "unknown artifact '{what}'; expected fig7a | fig7b | fig7c | codegen | determinism | steady | steady-gate | chaos-gate | reconfig-gate | recovery-gate | all"
        );
        std::process::exit(2);
    }
    eprintln!("raw data written to {}", out_dir.display());
    Ok(())
}
