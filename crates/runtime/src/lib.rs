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
//! * **MERGE-ALL** — membrane logic merged into each component: compiled
//!   binding slots, inlined memory choreography; functional-level
//!   reconfiguration only.
//! * **ULTRA-MERGE** — the whole system fused into one flat dispatch table;
//!   purely static, no reconfiguration.
//!
//! All three execute the same RTSJ semantics against
//! [`rtsj::memory::MemoryManager`] (scope entry/exit, assignment checks,
//! buffer placement); what differs is the framework machinery around the
//! functional code — exactly the overhead Fig. 7 measures.
//!
//! Running systems are driven through one handle, [`Deployment`], over
//! one or more *shards* — one `System` (and one slab-backed memory
//! manager) each. [`Deployment::build`] (the generator's `deploy`) puts
//! every component on one shard, driven on the caller's thread;
//! [`Deployment::build_parallel`] (`deploy_parallel`) shards the
//! components by thread domain ([`parallel`]), each shard ticking on its
//! own OS thread, with cross-shard bindings on wait-free SPSC rings.
//! Payloads and content are `Send` to make that legal; the partition rules
//! live in the [`parallel`] module docs. Either way, components are
//! addressed by resolve-once [`ComponentRef`] tokens or by name, and
//! reconfigured through one transactional journal
//! ([`Deployment::reconfigure`]).
//!
//! The engine is also a **release engine**: [`timer`] provides a
//! preallocated binary-heap timer queue over [`rtsj::time::AbsoluteTime`]
//! (schedule/fire/cancel with generation-checked handles; earliest
//! deadline first, ties by priority then FIFO), driven by
//! `System::run_tick` — serially or per parallel shard — so components
//! can schedule releases at absolute times. Deployed components can carry
//! declarative timing contracts (`soleil_core::contract`): an
//! allocation-free latency/jitter histogram with deadline-miss detection
//! is compiled into each component's activation plan — a `u16` sentinel,
//! so unmonitored components pay a single integer compare — and verdicts
//! surface through the design-time `ValidationReport` machinery.
//!
//! Faults are first-class: every component carries a
//! [`system::FaultPolicy`] (escalate / isolate / supervised restart with
//! exponential backoff on the timer queue), panics are caught at the
//! activation boundary and converted into typed `Faulted` errors, and a
//! deterministic seeded fault injector can be compiled into any
//! component's plan. Quarantined components count-drop their messages
//! (never silently lost) and surface through `health_report()` as
//! SOL-020…022 findings. Components additionally form **supervision
//! trees** (`Deployment::set_supervisor`): a fault escalating out of an
//! `Escalate` component walks up the tree, and the first supervisor with
//! a containing policy applies it to the failed *subtree* — isolating it
//! with counted drops or restarting it as a unit through the timer queue
//! — while sibling branches keep running; the walked path surfaces as a
//! SOL-023 verdict. Components opting into the warm-state **Checkpoint
//! capability** (`Deployment::enable_checkpoint`) carry their counters
//! across supervised restarts through bounded, preallocated state images
//! charged to their allocation area.
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
