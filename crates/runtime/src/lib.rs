//! # soleil-runtime — the execution engine behind generated infrastructures
//!
//! The generator (see `soleil-generator`) compiles a validated architecture
//! into a [`spec::SystemSpec`]; this crate turns that spec into a running
//! [`system::System`] at one of the three optimization levels the paper
//! evaluates:
//!
//! * **SOLEIL** — membranes reified as objects: every invocation runs
//!   through lifecycle gates, a name-keyed binding controller and a dynamic
//!   interceptor chain; full membrane-level introspection/reconfiguration.
//!   The controller resolves a port to a row of the same per-component
//!   binding table MERGE-ALL dispatches through.
//! * **MERGE-ALL** — membrane logic merged into each component: compiled
//!   binding rows and an inlined lifecycle check; functional-level
//!   reconfiguration only.
//!
//! In both reconfigurable modes a binding change replaces one row's
//! header in place (rows never move, so the jump tables compiled at build
//! stay valid) and journals the replaced header; rollback writes that
//! pre-image back.
//! * **ULTRA-MERGE** — the whole system fused into one flat dispatch table;
//!   structurally static: only contracts, fault policies and supervisor
//!   edges reconfigure.
//!
//! All three execute the same RTSJ semantics against
//! [`rtsj::memory::MemoryManager`] (scope entry/exit, assignment checks,
//! buffer placement); what differs is the framework machinery around the
//! functional code — exactly the overhead Fig. 7 measures.
//!
//! The modes differ only in the gate around one content boundary and in
//! how a port resolves to its row. Every release, timer fire, injection
//! and drained message runs one activation routine (activation count,
//! injector draw, scope chain and invoke, checkpoint cadence,
//! supervision) into one content boundary (one checkout of the slot's
//! instance record, `catch_unwind`, restore). Around it sit SOLEIL's membrane
//! pre/post, MERGE-ALL's lifecycle check, or nothing under ULTRA-MERGE.
//! Both gates read one lifecycle record per component (started,
//! quarantined, poisoned), which one engine routine writes and a SOLEIL
//! membrane mirrors. One `Ports` façade resolves a client port to its row
//! through SOLEIL's binding controller or the merged modes' jump table.
//!
//! A synchronous call crosses MemoryAreas the same way in every mode: one
//! engine routine runs the RTSJ pattern settled into the binding's row
//! (the paper's memory interceptor). The pattern comes from one rule,
//! `soleil_core::validate::pattern_between`, applied where it is read:
//! the validator applies it to the architecture, the engine's one row
//! compiler to its own areas whenever build, a rebind or a re-homing
//! compiles a row, and the plan to its areas when asked
//! (`SystemSpec::crossing`), so all three pick the same pattern for the
//! same placement. The plan stores placements only; a shared service's
//! priority ceiling is derived from them the same way
//! (`SystemSpec::ceiling`, by the rule behind SOL-014). An
//! `ExecuteInOuter` call always runs the substrate's own scope-stack
//! check.
//!
//! An asynchronous hop is the same in every mode: the message goes into
//! the binding's `ExchangeBuffer`, and one packed `u128` key (consumer
//! priority, inverted enqueue sequence, buffer index) goes into the
//! engine's ready queue. The drain pops keys highest priority first, FIFO
//! within a priority. A release checks its domain's memory context out
//! once and holds it into the drain, which keeps it across consecutive
//! activations of that domain.
//!
//! Running systems are driven through one handle, [`Deployment`], over
//! one or more *shards* — one `System` (and one slab-backed memory
//! manager) each. [`Deployment::build`] (the generator's `deploy`) puts
//! every component on one shard; [`Deployment::build_parallel`]
//! (`deploy_parallel`) shards them by thread domain ([`parallel`]), with
//! cross-shard bindings on wait-free SPSC rings. Every call runs on the
//! caller's thread: a tick runs every shard to completion in shard order,
//! then drains the rings, and [`Deployment::run_ticks`] is that tick
//! repeated, so a sharded run replays exactly. Either way, components are
//! addressed by resolve-once [`ComponentRef`] tokens or by name, and
//! reconfigured through one transactional journal of pre-images
//! ([`Deployment::reconfigure`]) that rollback writes back without
//! re-running an operation or a hook.
//!
//! The engine is also a **release engine**: [`timer`] provides a
//! preallocated binary-heap timer queue over [`rtsj::time::AbsoluteTime`]
//! (schedule/fire/cancel with generation-checked handles; earliest deadline
//! first, ties by priority then FIFO), driven by `System::run_tick` — on
//! one shard or each shard in turn — so components can schedule releases at
//! absolute times. Deployed components can carry declarative timing
//! contracts (`soleil_core::contract`): an allocation-free latency/jitter
//! histogram with deadline-miss detection is compiled into each component's
//! activation plan — a `u16` sentinel, so unmonitored components pay a
//! single integer compare — and verdicts surface through the design-time
//! `ValidationReport` machinery.
//!
//! Faults are first-class: every component carries a
//! [`system::FaultPolicy`] (escalate / isolate / supervised restart with
//! exponential backoff on the timer queue), panics are caught at the
//! activation boundary and in a restart's hooks and converted into typed
//! `Faulted` errors, and a deterministic seeded fault injector can be
//! compiled into any component's plan. Quarantined components count-drop
//! their messages (never silently lost) and surface through
//! `health_report()` as SOL-020…022 findings. Components additionally form
//! **supervision trees** (`Deployment::set_supervisor`): a fault escalating
//! out of an `Escalate` component walks up the tree, and the first
//! supervisor with a containing policy applies it to the failed *subtree* —
//! isolating it with counted drops or restarting it as a unit through the
//! timer queue — while sibling branches keep running; the walked path
//! surfaces as a SOL-023 verdict. Components opting into the warm-state
//! **Checkpoint capability** (`Deployment::enable_checkpoint`) carry their
//! counters across supervised restarts through bounded, preallocated state
//! images charged to their allocation area.
//!
//! Supporting modules: [`instrument`] (steady-state latency measurement for
//! Fig. 7(a)/(b)), [`footprint`] (Fig. 7(c) accounting) and [`sim`]
//! (virtual-time deployment onto [`rtsj::sched::Simulator`] for the
//! determinism experiment, plus engine-backed virtual-time recovery
//! campaigns — [`sim::run_recovery_campaign`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod deploy;
pub mod footprint;
pub mod instrument;
mod interceptors;
pub mod parallel;
pub mod sim;
pub mod spec;
pub mod system;
pub mod timer;

pub use deploy::{
    Address, ComponentRef, Deployment, ParallelReconfiguration, ParallelSystem, PortRef,
    Reconfiguration,
};
pub use footprint::FootprintReport;
pub use instrument::LatencySamples;
pub use parallel::ShardRun;
pub use sim::{run_recovery_campaign, RecoveryEpisode, RecoveryMetrics};
pub use spec::{Mode, SystemSpec};
pub use system::{EngineStats, FaultPolicy, System};
pub use timer::{TimerHandle, TimerQueue};
