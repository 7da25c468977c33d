//! # soleil-generator — the execution-infrastructure generator (§4.3)
//!
//! "Soleil … generates Java source code corresponding to the real-time
//! architecture specified by the designer — including membrane source code,
//! framework glue code and bootstrapping code", at three optimization
//! levels. This crate is that toolchain backend for the Rust reproduction:
//!
//! * [`fn@compile`] translates a **validated** [`soleil_core::Architecture`]
//!   into a [`soleil_runtime::SystemSpec`] — resolving every component's
//!   ThreadDomain and MemoryArea and placing asynchronous buffers. The
//!   plan keeps those placements only: each binding's cross-scope pattern
//!   and each shared service's priority ceiling are derived from them by
//!   the validator's rules where they are read;
//! * [`deploy`] is the one-shot path: compile, then build the running
//!   [`Deployment`] in a chosen [`Mode`] ([`deploy_parallel`] shards it by
//!   thread domain);
//! * [`codegen`] renders the infrastructure as human-readable source
//!   listings per mode and computes the §5.2 code-generation metrics
//!   (generated units, lines, dispatch indirections).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codegen;
pub mod compile;

pub use codegen::{emit_source, CodegenMetrics, GeneratedSource};
pub use compile::{compile, GeneratorError};

use soleil_core::validate::ValidatedArchitecture;
use soleil_membrane::content::{ContentRegistry, Payload};
use soleil_runtime::{Deployment, Mode};

/// The canonical entry path — the paper's "final composition process"
/// (functional implementations from `registry` wrapped by generated
/// infrastructure): compiles the validated architecture, builds the system
/// and wraps it in a [`Deployment`] — component names resolved once into
/// `ComponentRef` tokens, reconfiguration transactional and re-validated.
///
/// The input is the design-time conformance witness; an unchecked
/// [`Architecture`](soleil_core::Architecture) does not type-check:
///
/// ```compile_fail
/// use soleil_core::Architecture;
/// use soleil_membrane::content::ContentRegistry;
/// use soleil_runtime::Mode;
///
/// fn try_deploy(arch: &Architecture, registry: &ContentRegistry<u64>) {
///     // ERROR: `deploy` takes `&ValidatedArchitecture`, not a raw
///     // `&Architecture` — validate first.
///     let _ = soleil_generator::deploy(arch, Mode::Soleil, registry);
/// }
/// ```
///
/// # Errors
///
/// * [`GeneratorError::MissingContent`] when a functional component lacks a
///   content class.
/// * Build errors from the runtime (unknown classes, budget overflow).
pub fn deploy<P: Payload>(
    arch: &ValidatedArchitecture,
    mode: Mode,
    registry: &ContentRegistry<P>,
) -> Result<Deployment<P>, GeneratorError> {
    let spec = compile(arch)?;
    Deployment::build(&spec, mode, registry, arch.architecture().clone())
        .map_err(GeneratorError::Build)
}

/// Deploys the architecture **sharded by thread domain**: the same
/// [`Deployment`] handle as [`deploy`], taking the same calls, over one
/// engine per independent domain group, with cross-shard bindings riding
/// wait-free SPSC rings ([`soleil_runtime::parallel`]). Every call runs on
/// the caller's thread, each shard in turn, and drains the rings before it
/// returns.
///
/// The partition is derived from the same structure the validator checks:
/// synchronous bindings and shared scoped areas serialize the domains they
/// connect (`soleil_core::validate::parallel_coupling` reports these at
/// design time); everything else parallelizes. The deployment carries the
/// architectural model, so [`Deployment::reconfigure`] transactions are
/// re-validated against the full RTSJ rule set at commit time.
///
/// # Errors
///
/// Same failure classes as [`deploy`].
pub fn deploy_parallel<P: Payload>(
    arch: &ValidatedArchitecture,
    mode: Mode,
    registry: &ContentRegistry<P>,
) -> Result<Deployment<P>, GeneratorError> {
    let spec = compile(arch)?;
    Deployment::build_parallel(&spec, mode, registry, Some(arch.architecture().clone()))
        .map_err(GeneratorError::Build)
}

#[cfg(test)]
mod tests {
    use super::*;
    use soleil_core::adl::{from_xml, MOTIVATION_EXAMPLE_XML};
    use soleil_membrane::content::{Content, InvokeResult, Ports};

    #[derive(Debug, Clone, Default)]
    struct Measurement {
        value: f64,
        anomalous: bool,
    }

    #[derive(Debug, Default)]
    struct ProductionLine {
        seq: u64,
    }
    impl Content<Measurement> for ProductionLine {
        fn on_invoke(
            &mut self,
            _port: &str,
            msg: &mut Measurement,
            out: &mut dyn Ports<Measurement>,
        ) -> InvokeResult {
            self.seq += 1;
            msg.value = (self.seq % 100) as f64;
            msg.anomalous = self.seq.is_multiple_of(10);
            out.send("iMonitor", msg.clone())
        }
    }

    #[derive(Debug, Default)]
    struct MonitoringSystem;
    impl Content<Measurement> for MonitoringSystem {
        fn on_invoke(
            &mut self,
            _port: &str,
            msg: &mut Measurement,
            out: &mut dyn Ports<Measurement>,
        ) -> InvokeResult {
            if msg.anomalous {
                out.call("iConsole", msg)?;
            }
            out.send("iAudit", msg.clone())
        }
    }

    #[derive(Debug, Default)]
    struct Console;
    impl Content<Measurement> for Console {
        fn on_invoke(
            &mut self,
            _port: &str,
            _msg: &mut Measurement,
            _out: &mut dyn Ports<Measurement>,
        ) -> InvokeResult {
            Ok(())
        }
    }

    #[derive(Debug, Default)]
    struct AuditLog {
        entries: u64,
    }
    impl Content<Measurement> for AuditLog {
        fn on_invoke(
            &mut self,
            _port: &str,
            _msg: &mut Measurement,
            _out: &mut dyn Ports<Measurement>,
        ) -> InvokeResult {
            self.entries += 1;
            Ok(())
        }
    }

    fn registry() -> ContentRegistry<Measurement> {
        let mut r = ContentRegistry::new();
        r.register("ProductionLineImpl", || Box::new(ProductionLine::default()));
        r.register("MonitoringSystemImpl", || Box::new(MonitoringSystem));
        r.register("ConsoleImpl", || Box::new(Console));
        r.register("AuditLogImpl", || Box::new(AuditLog::default()));
        r
    }

    #[test]
    fn motivation_example_generates_and_runs_in_all_modes() {
        let arch = from_xml(MOTIVATION_EXAMPLE_XML)
            .unwrap()
            .into_validated()
            .unwrap();
        for mode in [Mode::Soleil, Mode::MergeAll, Mode::UltraMerge] {
            let mut dep = deploy(&arch, mode, &registry()).unwrap();
            let head = dep.resolve("ProductionLine").unwrap();
            for _ in 0..20 {
                dep.run_transaction(head).unwrap();
            }
            let st = dep.stats();
            assert_eq!(st.transactions, 20, "{mode}");
            assert_eq!(st.dropped_messages, 0, "{mode}");
            // Every 10th measurement is anomalous: 2 console calls in
            // modes that count (SOLEIL / MERGE-ALL).
            if mode != Mode::UltraMerge {
                assert_eq!(st.sync_calls, 2, "{mode}");
            }
        }
    }

    #[test]
    fn deploy_resolves_refs_once_and_runs_without_name_lookups() {
        let arch = from_xml(MOTIVATION_EXAMPLE_XML)
            .unwrap()
            .into_validated()
            .unwrap();
        for mode in [Mode::Soleil, Mode::MergeAll, Mode::UltraMerge] {
            let mut dep = deploy(&arch, mode, &registry()).unwrap();
            let head = dep.resolve("ProductionLine").unwrap();
            let before = dep.name_lookups();
            for _ in 0..50 {
                dep.run_transaction(head).unwrap();
            }
            assert_eq!(
                dep.name_lookups(),
                before,
                "{mode}: steady-state loop must not resolve names"
            );
            assert_eq!(dep.stats().transactions, 50, "{mode}");
        }
    }

    #[test]
    fn refs_are_scoped_to_their_deployment() {
        let arch = from_xml(MOTIVATION_EXAMPLE_XML)
            .unwrap()
            .into_validated()
            .unwrap();
        let a = deploy::<Measurement>(&arch, Mode::MergeAll, &registry()).unwrap();
        let mut b = deploy::<Measurement>(&arch, Mode::MergeAll, &registry()).unwrap();
        let foreign = a.resolve("ProductionLine").unwrap();
        assert!(matches!(
            b.run_transaction(foreign),
            Err(soleil_membrane::FrameworkError::Content(_))
        ));
    }
}
