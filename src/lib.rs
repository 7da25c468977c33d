//! # soleil — a component framework for RTSJ-style real-time embedded systems
//!
//! A Rust reproduction of *"A Component Framework for Java-based Real-Time
//! Embedded Systems"* (Plšek, Loiret, Merle, Seinturier — ACM/IFIP/USENIX
//! Middleware 2008). The framework lets you:
//!
//! 1. **Design** — describe the functional architecture in a *business
//!    view*, then superimpose real-time concerns through *thread* and
//!    *memory management views* ([`core::views`]), or load the paper's XML
//!    ADL ([`core::adl`]);
//! 2. **Validate** — establish RTSJ conformance at design time
//!    ([`mod@core::validate`]) and carry the proof in the type system: the
//!    consuming validator returns a
//!    [`ValidatedArchitecture`](core::ValidatedArchitecture) witness, the
//!    only input the toolchain downstream accepts;
//! 3. **Deploy** — compile the witness into an execution infrastructure at
//!    one of three optimization levels ([`generator`]): `SOLEIL` (reified
//!    membranes, fully reconfigurable), `MERGE-ALL` (membranes merged into
//!    components) or `ULTRA-MERGE` (one static unit). [`deploy`] returns a
//!    typed [`Deployment`](runtime::Deployment) handle whose component
//!    names are resolved **once** into copyable `ComponentRef` tokens — the
//!    steady-state loop performs zero name lookups;
//! 4. **Run & reconfigure** — drive end-to-end transactions against a
//!    faithful RTSJ substrate simulation ([`rtsj`]), and adapt live systems
//!    through **transactional reconfiguration**: operations batched in a
//!    closure, re-validated against the same RTSJ rules, applied
//!    all-or-nothing with rollback on error. Faults (panics included) are
//!    caught at the activation boundary and handled by per-component
//!    supervision policies ([`runtime::FaultPolicy`]: escalate, isolate,
//!    or restart with backoff), with a deterministic seeded
//!    [`FaultInjector`](membrane::interceptors::FaultInjector) for chaos
//!    testing.
//!
//! ## Quickstart
//!
//! ```
//! use soleil::prelude::*;
//! use soleil::scenario;
//!
//! # fn main() -> Result<(), soleil::SoleilError> {
//! // Validate: the witness proves design-time RTSJ conformance.
//! let arch = scenario::motivation_architecture()?.into_validated()?;
//!
//! // Deploy: names resolve once into copyable tokens.
//! let mut deployment = deploy(&arch, Mode::MergeAll, &scenario::registry())?;
//! let head = deployment.resolve("ProductionLine")?;
//!
//! // Run: the hot loop is free of name resolution.
//! for _ in 0..100 {
//!     deployment.run_transaction(head)?;
//! }
//! assert_eq!(deployment.stats().transactions, 100);
//! # Ok(())
//! # }
//! ```
//!
//! Reconfiguration is a transaction — all-or-nothing, re-validated:
//!
//! ```
//! # use soleil::prelude::*;
//! # fn main() -> Result<(), soleil::SoleilError> {
//! # let mut b = BusinessView::new("demo");
//! # b.active_periodic("caller", "5ms")?;
//! # b.passive("svc-a")?;
//! # b.passive("svc-b")?;
//! # b.content("caller", "C")?; b.content("svc-a", "S")?; b.content("svc-b", "S")?;
//! # b.require("caller", "svc", "I")?;
//! # b.provide("svc-a", "svc", "I")?;
//! # b.provide("svc-b", "svc", "I")?;
//! # b.bind_sync("caller", "svc", "svc-a", "svc")?;
//! # let mut flow = DesignFlow::new(b);
//! # flow.thread_domain("rt", ThreadKind::Realtime, 22, &["caller"])?;
//! # flow.memory_area("imm", MemoryKind::Immortal, Some(64 * 1024), &["rt", "svc-a", "svc-b"])?;
//! # let arch = flow.merge()?.into_validated()?;
//! # #[derive(Debug, Default)]
//! # struct Noop;
//! # impl Content<u64> for Noop {
//! #     fn on_invoke(&mut self, _p: &str, _m: &mut u64, _o: &mut dyn Ports<u64>) -> InvokeResult { Ok(()) }
//! # }
//! # let mut registry: ContentRegistry<u64> = ContentRegistry::new();
//! # registry.register("C", || Box::new(Noop));
//! # registry.register("S", || Box::new(Noop));
//! let mut deployment = deploy(&arch, Mode::Soleil, &registry)?;
//! let caller = deployment.resolve("caller")?;
//! let backup = deployment.resolve("svc-b")?;
//! deployment.reconfigure(|txn| {
//!     txn.stop(caller)?;
//!     txn.rebind(caller, "svc", backup)?;
//!     txn.start(caller)
//! })?;
//! # Ok(())
//! # }
//! ```
//!
//! ## Migrating from earlier APIs
//!
//! | Earlier API | Replacement |
//! |---|---|
//! | `generate_unvalidated(&arch, …)` | `arch.into_validated()?` then [`deploy`]/[`generator::generate`] |
//! | `compile_unvalidated(&arch)` | `arch.into_validated()?` then `compile(&validated)` |
//! | `system.slot_of("name")` per call | [`Deployment::resolve`](runtime::Deployment::resolve) once → `ComponentRef` |
//! | `system.inject("name", "port", msg)` | [`Deployment::inject`](runtime::Deployment::inject) with a pre-resolved `PortRef` |
//! | `system.stop(…)` / `rebind(…)` / `start(…)` | [`Deployment::reconfigure`](runtime::Deployment::reconfigure) transaction |
//! | `ParallelSystem` / `ParallelReconfiguration` (now type aliases) | [`Deployment`](runtime::Deployment) / [`Reconfiguration`](runtime::Reconfiguration): one handle over 1..N shards, built by [`deploy`] (one shard) or [`deploy_parallel`] (the thread-domain partition) |
//! | `enable_jitter_monitoring` / `disable_jitter_monitoring` / `jitter_observations`, `txn.install_jitter_monitor` / `remove_jitter_monitor` (SOLEIL only) | [`attach_contract`](runtime::Deployment::attach_contract)`(c, TimingContract::new().with_max_jitter(bound))` / `detach_contract(c)`, directly or in a transaction, in every mode; read [`latency_snapshot`](runtime::Deployment::latency_snapshot)`(c)?.jitter_violations` or `contract_report()` |
//!
//! The crates underneath (also usable standalone): [`rtsj`] (substrate),
//! [`core`] (metamodel/ADL/validator), [`patterns`] (cross-scope patterns),
//! [`membrane`] (controllers/interceptors), [`generator`] and [`runtime`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use rtsj;
pub use soleil_core as core;
pub use soleil_generator as generator;
pub use soleil_membrane as membrane;
pub use soleil_patterns as patterns;
pub use soleil_runtime as runtime;

pub use soleil_core::{SoleilError, SoleilResult};
pub use soleil_generator::{deploy, deploy_parallel};

pub mod scenario;

/// The most commonly used items across all layers.
pub mod prelude {
    pub use crate::core::prelude::*;
    pub use crate::generator::{compile, deploy, deploy_parallel, emit_source, generate};
    pub use crate::membrane::content::{Content, ContentRegistry, InvokeResult, Ports, StateImage};
    pub use crate::membrane::interceptors::FaultInjector;
    pub use crate::membrane::monitor::{LatencyMonitor, LatencySnapshot};
    pub use crate::membrane::{FaultKind, FrameworkError};
    pub use crate::runtime::instrument::measure_steady;
    pub use crate::runtime::system::RELEASE_PORT;
    pub use crate::runtime::{
        run_recovery_campaign, ComponentRef, Deployment, EngineStats, FaultPolicy, FootprintReport,
        Mode, ParallelReconfiguration, ParallelSystem, PortRef, Reconfiguration, RecoveryEpisode,
        RecoveryMetrics, ShardRun, System, SystemSpec, TimerHandle, TimerQueue,
    };
    pub use crate::{SoleilError, SoleilResult};
    pub use rtsj::time::{AbsoluteTime, RelativeTime};
}
