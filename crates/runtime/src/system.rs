//! The executable system: bootstrap, invocation engine, reconfiguration.
//!
//! [`System::build`] materializes a [`SystemSpec`] against the RTSJ
//! substrate following the paper's bootstrapping order — immortal first,
//! scoped areas created and wedge-pinned parent-before-child, component
//! state charged to its area, buffers placed per pattern, lifecycle started
//! last — then [`System::run_transaction`] drives complete end-to-end
//! iterations exactly like the paper's benchmark scenario: a periodic head
//! component releases, asynchronous messages activate sporadic consumers in
//! priority order, synchronous calls nest run-to-completion.
//!
//! The three generation modes share this engine but walk different code
//! paths with genuinely different machinery (reified membranes vs. compiled
//! slots vs. a flat static table) — see the crate docs.

use std::cell::Cell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use rtsj::memory::{AreaId, MemoryContext, MemoryKind, MemoryManager};
use rtsj::thread::{Priority, ThreadKind};
use rtsj::time::{AbsoluteTime, RelativeTime};
use soleil_core::contract::{ContractObservation, TimingContract};
use soleil_core::validate::{Diagnostic, Severity};
use soleil_core::ValidationReport;
use soleil_membrane::content::{
    Content, ContentFactory, ContentRegistry, Payload, PortId, StateImage,
};
use soleil_membrane::controllers::{BindingTarget, LifecycleState, MemoryAreaController};
use soleil_membrane::interceptors::{
    ActiveInterceptor, FastGate, FaultInjector, InterceptStep, Interceptor, MemoryInterceptor,
    MemoryPlan,
};
use soleil_membrane::monitor::{LatencyMonitor, LatencySnapshot};
use soleil_membrane::{ChainFusion, FaultKind, FrameworkError, Membrane, Ports};
use soleil_patterns::spsc::SpscProducer;
use soleil_patterns::{ExchangeBuffer, PatternKind, PushOutcome, ScopePin};

use crate::footprint::FootprintReport;
use crate::spec::{Activation, BufferPlacement, Mode, ProtocolSpec, SystemSpec};
use crate::timer::{TimerHandle, TimerQueue};

/// The implicit server port through which periodic components receive their
/// time-triggered releases.
pub const RELEASE_PORT: &str = "@release";

/// Minimum preallocated timer-queue slots per engine: the queue holds at
/// least one armed timer per component and never fewer than this floor
/// (capacity is fixed at build so arming never allocates).
const TIMER_SLOTS_MIN: usize = 64;

/// High bit of a timer payload marking a **supervised restart** timer
/// rather than a scheduled release: the low 31 bits carry the engine slot.
/// Restart timers ride the same preallocated queue as releases, so
/// supervision adds no second scheduling mechanism.
const RESTART_TAG: u32 = 1 << 31;

/// Exponential-backoff exponents are clamped here so `backoff * 2^attempt`
/// cannot overflow into a meaninglessly distant restart.
const MAX_BACKOFF_SHIFT: u32 = 20;

/// Mints globally unique dispatch-plan generations (see
/// [`Ports::intern_generation`]): one per compiled plan, re-minted on every
/// rebind or jump-table recompilation. Process-global so two deployments —
/// or two shard engines of one parallel deployment, each with its own port
/// universe — can never share a generation: a `static InternedPort` reached
/// from both re-interns instead of replaying one plan's id against the
/// other's table. Starts at 1; 0 is the name-only façade default.
static DISPATCH_GENERATION: AtomicU32 = AtomicU32::new(1);

fn mint_dispatch_generation() -> u32 {
    DISPATCH_GENERATION.fetch_add(1, Ordering::Relaxed)
}

/// What the engine does with a fault contained at a component's activation
/// boundary (a caught panic, or a typed [`FrameworkError::Faulted`] error).
///
/// The policy is **engine-level supervision**, like timing contracts: it
/// can be declared and changed in every generation mode, including
/// ULTRA-MERGE (which rejects *structural* reconfiguration only). The
/// healthy activation path pays one integer compare for it, exactly like
/// the `u16::MAX` contract sentinel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FaultPolicy {
    /// Propagate the fault to the caller — exactly the pre-supervision
    /// behavior, and the default for every component.
    #[default]
    Escalate,
    /// Quarantine the component and keep the tick/shard running: its
    /// releases are suppressed (and counted), messages addressed to it are
    /// counted-dropped, and sync calls into it are refused until an
    /// explicit restart.
    Isolate,
    /// Quarantine, then re-arm the component through the timer queue with
    /// exponential backoff; when more than `max_restarts` faults land
    /// inside one sliding `window`, the budget is exhausted and the fault
    /// escalates instead.
    Restart {
        /// Restarts allowed within one `window` before escalating.
        max_restarts: u32,
        /// Sliding budget window, measured on the engine's virtual clock.
        window: RelativeTime,
        /// Base restart delay; attempt `k` in a window waits
        /// `backoff * 2^k` (shift clamped, saturating add).
        backoff: RelativeTime,
    },
}

/// Per-slot supervision state: the declared policy plus the bookkeeping the
/// restart budget and the health report read. Cold data — only touched when
/// a fault is actually being handled or a report is built.
#[derive(Debug, Clone, Default)]
struct SupervisorSlot {
    policy: FaultPolicy,
    /// Engine slot of this component's declared supervisor, if any — the
    /// upward edge of the supervision tree an `Escalate` walks.
    supervisor: Option<u32>,
    /// True while the component is quarantined (mirrors the hot-path flag
    /// in the activation plan; this copy carries the cold detail).
    quarantined: bool,
    /// True when the quarantining fault was a panic. Mode-independent copy
    /// of the SOLEIL membrane's poison flag: warm-state handoff must know,
    /// in every mode, that the final instance state may be half-mutated by
    /// the unwind and only the last *healthy* checkpoint is trustworthy.
    poisoned: bool,
    /// `"{kind}: {detail}"` of the fault that caused the quarantine.
    fault_detail: Option<String>,
    /// Rendered escalation path (`"origin -> … -> supervisor"`) of the
    /// last fault this slot contained *as a supervisor* for a descendant —
    /// the subject of the SOL-023 health verdict. `None` until an
    /// escalation actually walked through here.
    escalation_path: Option<String>,
    /// Restarts consumed in the current budget window.
    restarts_in_window: u32,
    /// Start of the current budget window on the engine clock.
    window_start: AbsoluteTime,
    /// Backoff exponent for the next restart in this window.
    attempt: u32,
    /// True once the restart budget was exhausted and the fault escalated.
    budget_exhausted: bool,
    /// Faults contained at this slot's boundary (panics + errors).
    faults: u64,
    /// Supervised restarts completed.
    restarts: u64,
    /// Periodic releases suppressed while quarantined.
    suppressed_releases: u64,
    /// The pending supervised-restart timer, if one is armed. Tracked so a
    /// stop, policy change, journal rollback, or manual restart landing
    /// mid-backoff can cancel it — an untracked timer would later fire and
    /// restart a component the user had stopped (or restart under a
    /// rolled-back policy).
    restart_timer: Option<TimerHandle>,
}

/// Engine-wide counters (introspection / experiment reporting).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Complete transactions driven.
    pub transactions: u64,
    /// Component activations (releases + message-triggered).
    pub activations: u64,
    /// Synchronous nested calls.
    pub sync_calls: u64,
    /// Asynchronous messages enqueued.
    pub async_messages: u64,
    /// Messages dropped: full buffers plus quarantine drops.
    pub dropped_messages: u64,
    /// Asynchronous messages delivered to their consumer's activation
    /// boundary. After quiescence, conservation holds:
    /// `async_messages == delivered_messages + dropped_messages` minus the
    /// full-buffer drops (which never entered a queue) — the chaos suite
    /// asserts the exact ledger.
    pub delivered_messages: u64,
    /// The subset of `dropped_messages` that were counted-dropped because
    /// their consumer was quarantined (never silently lost).
    pub quarantine_drops: u64,
    /// Faults (panics + errors) contained by a component's fault policy
    /// instead of escalating.
    pub faults_contained: u64,
    /// Scheduled releases fired by the timer queue.
    pub timer_fires: u64,
}

/// Field-wise totals across engines (a sharded deployment's counters).
impl std::iter::Sum for EngineStats {
    fn sum<I: Iterator<Item = EngineStats>>(iter: I) -> EngineStats {
        iter.fold(EngineStats::default(), |a, b| EngineStats {
            transactions: a.transactions + b.transactions,
            activations: a.activations + b.activations,
            sync_calls: a.sync_calls + b.sync_calls,
            async_messages: a.async_messages + b.async_messages,
            dropped_messages: a.dropped_messages + b.dropped_messages,
            delivered_messages: a.delivered_messages + b.delivered_messages,
            quarantine_drops: a.quarantine_drops + b.quarantine_drops,
            faults_contained: a.faults_contained + b.faults_contained,
            timer_fires: a.timer_fires + b.timer_fires,
        })
    }
}

#[derive(Debug)]
struct RuntimeArea {
    name: String,
    id: AreaId,
    kind: MemoryKind,
    parent: Option<usize>,
    controller: MemoryAreaController,
}

#[derive(Debug)]
struct DomainRt {
    name: String,
    kind: ThreadKind,
    priority: Priority,
    ctx: Option<MemoryContext>,
}

struct Node<P: Payload> {
    name: String,
    content: Option<Box<dyn Content<P>>>,
    activation: Activation,
    domain_ix: Option<usize>,
    area_ix: usize,
    /// Server-port names, interned at build time as plain owned strings.
    /// An invocation *checks the name out* of its slot (a pointer swap, no
    /// clone, no refcount) and restores it afterwards — legal because the
    /// re-entrancy guards fire before the checkout, so a slot is never
    /// checked out twice. This drops the former per-invocation `Rc<str>`
    /// clone and, with it, the last `!Send` member of the engine.
    server_ports: Vec<Box<str>>,
    /// Index of the implicit [`RELEASE_PORT`] in `server_ports`, resolved
    /// once at build time so releases never scan port names.
    release_ix: Option<u16>,
    priority: Priority,
    /// Priority ceiling for shared passive services (introspection;
    /// priority-ceiling emulation metadata from the validator).
    ceiling: Option<Priority>,
    /// Scoped areas enclosing this component, outermost first: the
    /// component's thread executes inside this scope stack.
    scope_chain: Vec<AreaId>,
    // MERGE-ALL lifecycle state (SOLEIL keeps it in the membrane).
    started: bool,
    busy: bool,
    /// Supervision gate for compiled sync dispatch: MERGE-ALL refuses sync
    /// calls into a quarantined component here (SOLEIL refuses through the
    /// membrane's lifecycle; ULTRA-MERGE checks activation boundaries
    /// only — its sync path is contractually check-free).
    quarantined: bool,
}

impl<P: Payload> std::fmt::Debug for Node<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Node")
            .field("name", &self.name)
            .field("activation", &self.activation)
            .field("started", &self.started)
            .finish()
    }
}

#[derive(Debug)]
struct BufferRt<P> {
    buffer: ExchangeBuffer<P>,
    consumer_slot: usize,
    consumer_port_ix: u16,
}

/// A compiled binding slot (MERGE-ALL / ULTRA-MERGE dispatch): the port
/// name, kept for the cold string-fallback scan and introspection, plus
/// the `Copy` header the hot path dispatches through.
#[derive(Debug, Clone)]
struct CompiledBinding {
    port: Box<str>,
    header: DispatchHeader,
}

/// One binding's dispatch decision, fully settled at deploy/rebind time
/// and `Copy`: resolving a call copies a few machine words — no string, no
/// `Arc` refcount, no heap traffic. `EnterInner` scope paths live in the
/// deployment-wide [`System::enter_arena`] as `(offset, len)` ranges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct DispatchHeader {
    /// Server slot; `usize::MAX` for cross-domain rings.
    target_slot: usize,
    server_port_ix: u16,
    is_async: bool,
    buffer_ix: usize, // usize::MAX when sync
    pattern: PatternKind,
    server_area: AreaId,
    /// Range of this binding's `EnterInner` scope path in the arena.
    enter_off: u32,
    enter_len: u32,
    /// Build-time access decision: for `ExecuteInOuter`, the server area is
    /// statically on the client's scope chain, so the per-call scope-stack
    /// containment walk is skipped (prechecked substrate entry).
    outer_on_stack: bool,
    /// Build-time carrier decision: true when this binding leaves the
    /// engine's thread domain — `buffer_ix` then indexes `cross_out` (a
    /// wait-free SPSC ring to another shard) instead of `buffers`.
    is_cross: bool,
}

impl DispatchHeader {
    /// The single construction site for compiled dispatch state: build,
    /// cross-ring wiring and runtime rebinding all funnel through here, so
    /// plan fields cannot drift between them. `enter_path` is interned
    /// into the deployment-wide arena with window reuse, so a rebind that
    /// restores an earlier target reproduces the original header
    /// byte-identically (the transactional-rollback guarantee).
    #[allow(clippy::too_many_arguments)]
    fn compile(
        arena: &mut Vec<AreaId>,
        target_slot: usize,
        server_port_ix: u16,
        is_async: bool,
        buffer_ix: usize,
        pattern: PatternKind,
        server_area: AreaId,
        enter_path: &[AreaId],
        outer_on_stack: bool,
        is_cross: bool,
    ) -> DispatchHeader {
        let (enter_off, enter_len) = intern_enter_path(arena, enter_path);
        DispatchHeader {
            target_slot,
            server_port_ix,
            is_async,
            buffer_ix,
            pattern,
            server_area,
            enter_off,
            enter_len,
            outer_on_stack,
            is_cross,
        }
    }
}

/// Interns `path` into the deployment's flattened enter-path arena,
/// reusing an existing window when an identical sequence is already
/// present — so recompiling a binding back to a previous target yields
/// the exact `(offset, len)` it had before.
fn intern_enter_path(arena: &mut Vec<AreaId>, path: &[AreaId]) -> (u32, u32) {
    if path.is_empty() {
        return (0, 0);
    }
    if let Some(off) = arena.windows(path.len()).position(|w| w == path) {
        return (off as u32, path.len() as u32);
    }
    let off = arena.len() as u32;
    arena.extend_from_slice(path);
    (off, path.len() as u32)
}

/// The per-slot transaction plan, settled at build time: where the slot's
/// scope chain lives in the shared arena and which port its periodic
/// release dispatches through — `run_transaction` and the activation path
/// read straight out of this instead of walking `Node` state.
#[derive(Debug, Clone, Copy)]
struct ActivationPlan {
    /// Range of the slot's scope chain (outermost first) in the arena.
    chain_off: u32,
    chain_len: u16,
    /// Index of the implicit [`RELEASE_PORT`]; `u16::MAX` when the slot is
    /// not periodic.
    release_ix: u16,
    /// Slot of the component's latency monitor in `System::monitors`;
    /// `u16::MAX` when no timing contract is attached. A component without
    /// a contract pays exactly one integer compare per activation — the
    /// same pay-nothing-when-unused compilation as `release_ix` and the
    /// membrane `FastGate`s.
    monitor_ix: u16,
    /// Slot of the component's engine-level fault injector in
    /// `System::injectors`; `u16::MAX` when none is installed (the same
    /// one-compare sentinel as `monitor_ix`).
    fault_ix: u16,
    /// Slot of the component's warm-state checkpoint storage in
    /// `System::checkpoints`; `u16::MAX` when checkpointing is not enabled
    /// (one integer compare per healthy activation, like `monitor_ix`).
    checkpoint_ix: u16,
    /// True while the component is quarantined by its fault policy — the
    /// single compare the healthy release/delivery path pays for
    /// supervision.
    quarantined: bool,
}

/// Warm-state checkpoint storage of one checkpoint-enabled slot: the last
/// healthy cadence image plus a scratch image for the restart-boundary
/// capture, both preallocated at the component's `state_bytes` bound when
/// checkpointing is enabled (and charged to its allocation area), so no
/// capture ever allocates. Boxed like [`MonitorSlot`] — cold storage, one
/// pointer per slot until enabled.
struct CheckpointSlot {
    /// The last healthy image, captured every `cadence` successful
    /// activations — what a *poisoned* restart restores from.
    image: StateImage,
    /// Scratch for the activation-boundary capture a healthy supervised
    /// restart takes from the outgoing instance just before the fresh one
    /// installs.
    boundary: StateImage,
    /// Successful activations between cadence captures (≥ 1).
    cadence: u32,
    /// Successful activations since the last cadence capture.
    since_capture: u32,
    /// True once `image` holds a usable capture.
    valid: bool,
    /// Captures performed (cadence + restart-boundary).
    captures: u64,
    /// Restores performed into fresh instances after supervised restarts.
    restores: u64,
    /// True once any capture overflowed the `state_bytes` bound (the
    /// truncated image is not used; the health of the capture pipeline is
    /// inspectable instead of silently wrong).
    overflowed: bool,
}

/// An attached runtime timing contract with its live monitor, boxed so the
/// per-slot table stays one pointer wide (attach/detach are cold paths;
/// the monitor's histogram would otherwise fatten every slot).
pub(crate) struct MonitorSlot {
    pub(crate) contract: TimingContract,
    pub(crate) monitor: LatencyMonitor,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct PendingKey {
    priority: Priority,
    seq: Reverse<u64>,
}

/// Undo record of a [`System::repoint_async_to_cross`]: the
/// pre-transaction binding state of the repointed client port, restorable
/// byte-identically by [`System::restore_async_binding`]. Carried by the
/// deployment's reconfiguration journal.
#[derive(Debug)]
pub(crate) struct AsyncRepointUndo {
    pub(crate) client_slot: usize,
    pub(crate) port: String,
    /// Index the repoint appended to `cross_out` (LIFO rollback truncates
    /// back to it).
    pub(crate) cross_ix: usize,
    old: OldAsyncBinding,
}

/// The mode-specific half of [`AsyncRepointUndo`].
#[derive(Debug)]
enum OldAsyncBinding {
    /// SOLEIL: the membrane's previous `BindingTarget`.
    Reified(BindingTarget),
    /// MERGE-ALL: the previous compiled dispatch header.
    Compiled(DispatchHeader),
}

/// A cross-domain output requested at build time: the named client port of
/// `client` routes into a wait-free SPSC ring whose consumer lives in
/// another thread-domain shard. The carrier decision is made once, here —
/// same-domain bindings keep the non-atomic `ExchangeBuffer` fast path.
pub(crate) struct CrossOutput<P> {
    /// Engine slot of the producing component.
    pub client: usize,
    /// Client-port name the ring is bound to.
    pub client_port: String,
    /// The producer endpoint of the ring.
    pub tx: SpscProducer<P>,
    /// Backing-store bytes charged to this shard's immortal area, so the
    /// ring shows up in footprint reports like any exchange buffer.
    pub charge_bytes: usize,
}

/// Introspection snapshot of a SOLEIL-mode membrane.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MembraneInfo {
    /// Component name.
    pub component: String,
    /// Lifecycle state.
    pub started: bool,
    /// Interceptor names in chain order.
    pub interceptors: Vec<String>,
    /// Bound client-port names.
    pub bound_ports: Vec<String>,
    /// True when every step of the compiled interceptor plan dispatches
    /// without a virtual call (no `Dyn` fallback step) — the steady-state
    /// no-`Box<dyn Interceptor>` property, made checkable.
    pub plan_fully_compiled: bool,
    /// How the compiled plan executes the pre/post protocol.
    pub plan_fusion: ChainFusion,
}

/// A deployed, runnable system. See the [module docs](self).
pub struct System<P: Payload> {
    name: String,
    mode: Mode,
    mm: MemoryManager,
    areas: Vec<RuntimeArea>,
    domains: Vec<DomainRt>,
    nodes: Vec<Node<P>>,
    buffers: Vec<BufferRt<P>>,
    /// Producer endpoints of cross-domain rings, indexed by the
    /// `buffer_ix` of compiled bindings whose `is_cross` flag is set.
    cross_out: Vec<SpscProducer<P>>,
    /// Messages currently travelling between shards (shared with every
    /// sibling engine of a parallel deployment; the quiescence condition
    /// of the parallel tick protocol). Incremented *before* the ring push
    /// so the counter never under-reports in-flight work.
    cross_in_flight: Arc<AtomicU64>,
    pending: BinaryHeap<(PendingKey, usize)>,
    seq: u64,
    /// Periodic slots in release order (highest priority first), computed
    /// at build and invalidated by reconfiguration — `run_tick` walks this
    /// instead of sorting a fresh list per tick.
    periodic_order: Vec<usize>,
    /// Pooled memory context for components outside any thread domain:
    /// reused across activations so their scope-stack storage is allocated
    /// once, not per activation.
    anon_ctx: Option<MemoryContext>,
    stats: EngineStats,
    /// Name-resolution counter (see [`System::name_lookups`]).
    lookups: Cell<u64>,
    /// String-scan dispatch resolutions (see [`System::string_compares`]).
    string_compares: Cell<u64>,
    /// The deployment's client-port intern universe: `PortId(i)` names
    /// `port_names[i]`. Spec binding ports first (first-appearance order),
    /// then cross-domain ring ports the shard compiler appended.
    port_names: Vec<Box<str>>,
    /// Generation of the current dispatch plan, re-minted on every rebind
    /// or jump recompilation; content-side `InternedPort` memos carry the
    /// generation they were interned under and re-intern on mismatch.
    dispatch_generation: u32,
    /// Jump tables for interned dispatch, `[slot][port_id]` → binding
    /// index (`compiled[slot]` position under MERGE-ALL, absolute
    /// `ultra_table` index under ULTRA-MERGE; `u32::MAX` = unbound here).
    /// SOLEIL slots are empty — their jump tables live in each membrane's
    /// `BindingController`.
    port_jump: Vec<Box<[u32]>>,
    /// Deployment-wide flattened arena of scope paths: binding
    /// `EnterInner` paths and per-slot activation chains, addressed by
    /// `(offset, len)` ranges out of the dispatch/activation plans.
    enter_arena: Vec<AreaId>,
    /// Per-slot transaction plans (release dispatch + scope-chain range).
    activation_plans: Vec<ActivationPlan>,
    /// The release-engine clock: advances one `tick_quantum` per
    /// `run_tick` (or explicitly via `advance_clock_to`), driving `timers`.
    clock: AbsoluteTime,
    /// Clock advance per tick: the smallest periodic period in the spec
    /// (1 ms when nothing is periodic), so one `run_tick` models one
    /// release cycle of the fastest component.
    tick_quantum: RelativeTime,
    /// The scheduled-release timer queue; payloads are engine slots. All
    /// storage preallocated at build — the armed steady state allocates
    /// nothing.
    timers: TimerQueue<u32>,
    /// Per-slot latency monitors for attached timing contracts; `None`
    /// everywhere until a contract is attached. The hot path never reads
    /// this directly — it tests `ActivationPlan::monitor_ix` first.
    monitors: Vec<Option<Box<MonitorSlot>>>,
    /// Per-slot fault policies + supervision bookkeeping (cold: read only
    /// when handling a fault or building a health report).
    supervisors: Vec<SupervisorSlot>,
    /// Per-slot warm-state checkpoint storage, gated by
    /// `ActivationPlan::checkpoint_ix`; `None` until checkpointing is
    /// enabled for the slot.
    checkpoints: Vec<Option<Box<CheckpointSlot>>>,
    /// Per-slot content constructors, captured at build so a supervised
    /// restart can re-instantiate a faulted component fresh — one `Arc`
    /// clone at build time, none per transaction.
    factories: Vec<ContentFactory<P>>,
    /// Engine-level deterministic fault injectors, gated by
    /// `ActivationPlan::fault_ix`; boxed so uninjected deployments pay one
    /// pointer per slot. Works in every mode — ULTRA-MERGE included —
    /// because the injector fires at the activation boundary, before any
    /// mode-specific dispatch.
    injectors: Vec<Option<Box<FaultInjector>>>,
    // SOLEIL mode: reified membranes + per-binding memory interceptors +
    // the spec kept alive for introspection.
    membranes: Vec<Option<Membrane>>,
    mem_interceptors: Vec<Option<MemoryInterceptor>>,
    /// Per-binding fused gates compiled from each binding's `MemoryPlan`
    /// at build/rebind time: when a gate proves the memory interceptor's
    /// `pre`/`post` are no-ops, the SOLEIL sync-call path skips them
    /// entirely (indexed like `mem_interceptors`).
    mem_gates: Vec<FastGate>,
    reified_spec: Option<SystemSpec>,
    // MERGE-ALL mode: per-component compiled binding slots.
    compiled: Vec<Vec<CompiledBinding>>,
    // ULTRA-MERGE mode: one flat table with per-slot ranges.
    ultra_table: Vec<CompiledBinding>,
    ultra_ranges: Vec<(u32, u32)>,
}

impl<P: Payload> std::fmt::Debug for System<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("System")
            .field("name", &self.name)
            .field("mode", &self.mode)
            .field("components", &self.nodes.len())
            .field("buffers", &self.buffers.len())
            .finish()
    }
}

impl<P: Payload> System<P> {
    /// Materializes `spec` in the given `mode`, instantiating content
    /// classes from `registry` (the paper's final composition step).
    ///
    /// # Errors
    ///
    /// * [`FrameworkError::Content`] for unknown content classes or an
    ///   inconsistent spec.
    /// * Substrate errors when areas cannot be created or budgets overflow.
    pub fn build(
        spec: &SystemSpec,
        mode: Mode,
        registry: &ContentRegistry<P>,
    ) -> Result<System<P>, FrameworkError> {
        Self::build_with_cross(spec, mode, registry, Vec::new(), Arc::default())
    }

    /// [`System::build`] plus a set of cross-domain outputs: client ports
    /// that route into wait-free SPSC rings whose consumers live in other
    /// thread-domain shards (the parallel runtime's carrier for bindings
    /// that leave this engine). The shared `in_flight` counter tracks
    /// messages travelling between shards.
    pub(crate) fn build_with_cross(
        spec: &SystemSpec,
        mode: Mode,
        registry: &ContentRegistry<P>,
        cross_outputs: Vec<CrossOutput<P>>,
        in_flight: Arc<AtomicU64>,
    ) -> Result<System<P>, FrameworkError> {
        spec.check().map_err(FrameworkError::Content)?;
        for co in &cross_outputs {
            if co.client >= spec.components.len() {
                return Err(FrameworkError::Content(format!(
                    "cross output client slot {} out of range",
                    co.client
                )));
            }
        }

        // --- Areas: immortal budget first, then scoped creation + pinning.
        let immortal_budget: usize = spec
            .areas
            .iter()
            .filter(|a| a.kind == MemoryKind::Immortal)
            .map(|a| a.size.unwrap_or(0))
            .sum::<usize>()
            + 256 * 1024; // framework reserve (buffers, markers)
        let mut mm = MemoryManager::new(0, immortal_budget);

        let mut areas: Vec<RuntimeArea> = Vec::with_capacity(spec.areas.len());
        for a in &spec.areas {
            let id = match a.kind {
                MemoryKind::Heap => AreaId::HEAP,
                MemoryKind::Immortal => AreaId::IMMORTAL,
                MemoryKind::Scoped => mm.create_scoped(rtsj::memory::ScopedMemoryParams::new(
                    a.name.clone(),
                    a.size.unwrap_or(4096),
                ))?,
            };
            let mut controller = MemoryAreaController::new(a.name.clone(), id);
            if a.kind == MemoryKind::Scoped {
                // Wedge-pin through the scoped ancestor chain.
                let mut path = Vec::new();
                let mut cursor = a.parent;
                while let Some(p) = cursor {
                    if areas[p].kind == MemoryKind::Scoped {
                        path.push(areas[p].id);
                    }
                    cursor = areas[p].parent;
                }
                path.reverse();
                controller.set_pin(ScopePin::new(&mut mm, id, &path)?);
            }
            areas.push(RuntimeArea {
                name: a.name.clone(),
                id,
                kind: a.kind,
                parent: a.parent,
                controller,
            });
        }

        // --- Domains: one memory context per domain ("its thread").
        let domains: Vec<DomainRt> = spec
            .domains
            .iter()
            .map(|d| DomainRt {
                name: d.name.clone(),
                kind: d.kind,
                priority: Priority::new(d.priority),
                ctx: Some(mm.context(d.kind)),
            })
            .collect();

        // --- Components: instantiate content, charge state to the area.
        let boot_ctx = mm.context(ThreadKind::Realtime);
        let mut nodes: Vec<Node<P>> = Vec::with_capacity(spec.components.len());
        let mut factories: Vec<ContentFactory<P>> = Vec::with_capacity(spec.components.len());
        for c in &spec.components {
            // Keep the constructor: a supervised restart re-instantiates
            // from the same factory the deploy used (one Arc clone, here,
            // at build — the transaction path never touches it).
            let factory = registry.factory(&c.content_class)?;
            let content = factory();
            factories.push(factory);
            let state = content.state_bytes().max(1);
            mm.alloc_raw(&boot_ctx, areas[c.area].id, state)?;
            let mut server_ports: Vec<Box<str>> =
                c.server_ports.iter().map(|p| p.as_str().into()).collect();
            let release_ix = matches!(c.activation, Activation::Periodic { .. }).then(|| {
                server_ports.push(RELEASE_PORT.into());
                (server_ports.len() - 1) as u16
            });
            let priority = c
                .domain
                .map(|d| domains[d].priority)
                .unwrap_or(Priority::NORM);
            // The scoped chain this component's thread stands in.
            let mut scope_chain = Vec::new();
            let mut cursor = Some(c.area);
            while let Some(ix) = cursor {
                if areas[ix].kind == MemoryKind::Scoped {
                    scope_chain.push(areas[ix].id);
                }
                cursor = areas[ix].parent;
            }
            scope_chain.reverse();
            nodes.push(Node {
                name: c.name.clone(),
                content: Some(content),
                activation: c.activation,
                domain_ix: c.domain,
                area_ix: c.area,
                server_ports,
                release_ix,
                priority,
                ceiling: c.ceiling.map(Priority::new),
                scope_chain,
                started: false,
                busy: false,
                quarantined: false,
            });
        }

        // --- Buffers for async bindings.
        let mut buffers: Vec<BufferRt<P>> = Vec::new();
        let mut buffer_of_binding: Vec<Option<usize>> = vec![None; spec.bindings.len()];
        for (bix, b) in spec.bindings.iter().enumerate() {
            if let ProtocolSpec::Async {
                capacity,
                placement,
            } = b.protocol
            {
                let area = match placement {
                    BufferPlacement::Heap => AreaId::HEAP,
                    BufferPlacement::Immortal => AreaId::IMMORTAL,
                };
                let heap_ctx = mm.context(ThreadKind::Regular);
                let ctx = if area == AreaId::HEAP {
                    &heap_ctx
                } else {
                    &boot_ctx
                };
                let buffer = ExchangeBuffer::create(&mut mm, ctx, area, capacity)?;
                let consumer_port_ix = port_index(&nodes[b.server], &b.server_port)?;
                buffer_of_binding[bix] = Some(buffers.len());
                buffers.push(BufferRt {
                    buffer,
                    consumer_slot: b.server,
                    consumer_port_ix,
                });
            }
        }

        // --- Cross-domain outputs: charge ring backing to this shard's
        // immortal area (footprint honesty), then strip to the producer
        // endpoints; `cross_requests` drives the per-mode binding tables.
        let mut cross_requests: Vec<(usize, String)> = Vec::with_capacity(cross_outputs.len());
        let mut cross_out: Vec<SpscProducer<P>> = Vec::with_capacity(cross_outputs.len());
        for co in cross_outputs {
            mm.alloc_raw(&boot_ctx, AreaId::IMMORTAL, co.charge_bytes)?;
            cross_requests.push((co.client, co.client_port));
            cross_out.push(co.tx);
        }

        // --- The deployment-wide dispatch plan, shared by every mode:
        // the client-port intern universe (dense u16 ids by position), the
        // flattened scope-path arena, and per-slot activation plans.
        let mut port_names: Vec<Box<str>> = spec.client_port_names();
        for (_, port) in &cross_requests {
            if !port_names.iter().any(|n| n.as_ref() == port.as_str()) {
                port_names.push(port.as_str().into());
            }
        }
        let mut enter_arena: Vec<AreaId> = Vec::new();
        let activation_plans: Vec<ActivationPlan> = nodes
            .iter()
            .map(|n| {
                let (chain_off, chain_len) = intern_enter_path(&mut enter_arena, &n.scope_chain);
                ActivationPlan {
                    chain_off,
                    chain_len: chain_len as u16,
                    release_ix: n.release_ix.unwrap_or(u16::MAX),
                    monitor_ix: u16::MAX,
                    fault_ix: u16::MAX,
                    checkpoint_ix: u16::MAX,
                    quarantined: false,
                }
            })
            .collect();

        // --- Release engine: the tick quantum is the fastest periodic
        // period (one run_tick = one cycle of the fastest component); the
        // timer queue is preallocated here, once, so arming/cancelling/
        // firing in the steady state never touches the allocator.
        let tick_quantum = spec
            .components
            .iter()
            .filter_map(|c| match c.activation {
                Activation::Periodic { period } => Some(period),
                _ => None,
            })
            .min()
            .unwrap_or(RelativeTime::from_millis(1));
        let timer_capacity = nodes.len().max(TIMER_SLOTS_MIN);
        let node_count = nodes.len();

        // --- Mode-specific dispatch machinery.
        let mut membranes: Vec<Option<Membrane>> = Vec::new();
        let mut mem_interceptors: Vec<Option<MemoryInterceptor>> = Vec::new();
        let mut mem_gates: Vec<FastGate> = Vec::new();
        let mut compiled: Vec<Vec<CompiledBinding>> = Vec::new();
        let mut ultra_table: Vec<CompiledBinding> = Vec::new();
        let mut ultra_ranges: Vec<(u32, u32)> = Vec::new();

        // Per-(client, server-area) access decision, settled at build: an
        // ExecuteInOuter server area that sits on the client's static scope
        // chain is provably on the stack whenever the binding fires (the
        // client entered its whole chain at activation), so the per-call
        // containment walk can be skipped.
        let outer_on_stack = |b: &crate::spec::BindingSpec| {
            b.pattern == PatternKind::ExecuteInOuter
                && nodes[b.client]
                    .scope_chain
                    .contains(&areas[spec.components[b.server].area].id)
        };
        // Both compile helpers funnel through `DispatchHeader::compile` —
        // the one constructor shared with runtime rebinding — and take the
        // arena as a parameter so only the calling loop holds it mutably.
        let compile_one =
            |arena: &mut Vec<AreaId>, b: &crate::spec::BindingSpec, bix: usize| CompiledBinding {
                port: b.client_port.as_str().into(),
                header: DispatchHeader::compile(
                    arena,
                    b.server,
                    port_index(&nodes[b.server], &b.server_port).expect("checked by spec.check"),
                    matches!(b.protocol, ProtocolSpec::Async { .. }),
                    buffer_of_binding[bix].unwrap_or(usize::MAX),
                    b.pattern,
                    areas[spec.components[b.server].area].id,
                    &b.enter_path
                        .iter()
                        .map(|&ix| areas[ix].id)
                        .collect::<Vec<_>>(),
                    outer_on_stack(b),
                    false,
                ),
            };
        // A compiled slot routing into a cross-domain ring: asynchronous by
        // construction, no scope choreography (the consumer re-enters its
        // own chain in its own shard), `buffer_ix` indexes `cross_out`.
        let cross_compiled =
            |arena: &mut Vec<AreaId>, port: &str, cross_ix: usize| CompiledBinding {
                port: port.into(),
                header: DispatchHeader::compile(
                    arena,
                    usize::MAX,
                    0,
                    true,
                    cross_ix,
                    PatternKind::ImmortalExchange,
                    AreaId::IMMORTAL,
                    &[],
                    false,
                    true,
                ),
            };

        match mode {
            Mode::Soleil => {
                for (slot, c) in spec.components.iter().enumerate() {
                    let mut m = Membrane::new(c.name.clone());
                    if !matches!(c.activation, Activation::Passive) {
                        // Deploy-time plan construction: the known guard
                        // goes straight in as its compiled step (the boxed
                        // `push_interceptor` route compiles to the same
                        // plan; this just skips the cold downcast).
                        m.push_step(InterceptStep::Active(ActiveInterceptor::new()));
                    }
                    for (bix, b) in spec.bindings.iter().enumerate() {
                        if b.client == slot {
                            m.binding.bind(
                                b.client_port.clone(),
                                BindingTarget {
                                    target_slot: b.server,
                                    server_port: b.server_port.clone(),
                                    server_port_ix: port_index(&nodes[b.server], &b.server_port)?,
                                    is_async: matches!(b.protocol, ProtocolSpec::Async { .. }),
                                    buffer_index: buffer_of_binding[bix],
                                    binding_ix: bix,
                                    cross: false,
                                },
                            );
                        }
                    }
                    for (cross_ix, (client, port)) in cross_requests.iter().enumerate() {
                        if *client == slot {
                            m.binding.bind(
                                port.clone(),
                                BindingTarget {
                                    target_slot: usize::MAX,
                                    server_port: String::new(),
                                    server_port_ix: 0,
                                    is_async: true,
                                    buffer_index: Some(cross_ix),
                                    binding_ix: usize::MAX,
                                    cross: true,
                                },
                            );
                        }
                    }
                    membranes.push(Some(m));
                }
                for b in &spec.bindings {
                    let plan = MemoryPlan {
                        pattern: b.pattern,
                        server_area: areas[spec.components[b.server].area].id,
                        enter_path: b.enter_path.iter().map(|&ix| areas[ix].id).collect(),
                        transient_scope: None,
                        outer_on_stack: outer_on_stack(b),
                    };
                    mem_gates.push(plan.fast_gate());
                    mem_interceptors.push(Some(MemoryInterceptor::new(plan)));
                }
            }
            Mode::MergeAll => {
                for slot in 0..nodes.len() {
                    let mut row = Vec::new();
                    for (bix, b) in spec.bindings.iter().enumerate() {
                        if b.client == slot {
                            row.push(compile_one(&mut enter_arena, b, bix));
                        }
                    }
                    for (cross_ix, (client, port)) in cross_requests.iter().enumerate() {
                        if *client == slot {
                            row.push(cross_compiled(&mut enter_arena, port, cross_ix));
                        }
                    }
                    compiled.push(row);
                }
            }
            Mode::UltraMerge => {
                for slot in 0..nodes.len() {
                    let start = ultra_table.len() as u32;
                    for (bix, b) in spec.bindings.iter().enumerate() {
                        if b.client == slot {
                            ultra_table.push(compile_one(&mut enter_arena, b, bix));
                        }
                    }
                    for (cross_ix, (client, port)) in cross_requests.iter().enumerate() {
                        if *client == slot {
                            ultra_table.push(cross_compiled(&mut enter_arena, port, cross_ix));
                        }
                    }
                    ultra_ranges.push((start, ultra_table.len() as u32));
                }
            }
        }

        let mut system = System {
            name: spec.name.clone(),
            mode,
            mm,
            areas,
            domains,
            nodes,
            buffers,
            cross_out,
            cross_in_flight: in_flight,
            pending: BinaryHeap::new(),
            seq: 0,
            periodic_order: Vec::new(),
            anon_ctx: None,
            stats: EngineStats::default(),
            lookups: Cell::new(0),
            string_compares: Cell::new(0),
            port_names,
            dispatch_generation: 0, // minted by recompile_port_jump below
            port_jump: Vec::new(),
            enter_arena,
            activation_plans,
            clock: AbsoluteTime::ZERO,
            tick_quantum,
            timers: TimerQueue::with_capacity(timer_capacity),
            monitors: (0..node_count).map(|_| None).collect(),
            supervisors: vec![SupervisorSlot::default(); node_count],
            checkpoints: (0..node_count).map(|_| None).collect(),
            factories,
            injectors: (0..node_count).map(|_| None).collect(),
            membranes,
            mem_interceptors,
            mem_gates,
            reified_spec: if mode == Mode::Soleil {
                Some(spec.clone())
            } else {
                None
            },
            compiled,
            ultra_table,
            ultra_ranges,
        };

        system.recompute_periodic_order();
        system.recompile_port_jump();

        // --- Start everything (paper: activation is framework-managed).
        for slot in 0..system.nodes.len() {
            system.start_slot(slot)?;
        }
        Ok(system)
    }

    /// The generation mode this system runs in.
    pub fn mode(&self) -> Mode {
        self.mode
    }

    /// The system name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Engine counters.
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// Direct access to the substrate (experiments, footprint).
    pub fn memory(&self) -> &MemoryManager {
        &self.mm
    }

    /// Thread-domain roster: name, thread kind and priority of each domain
    /// (introspection; mirrors the ThreadDomain controllers).
    pub fn domain_info(&self) -> Vec<(String, ThreadKind, Priority)> {
        self.domains
            .iter()
            .map(|d| (d.name.clone(), d.kind, d.priority))
            .collect()
    }

    /// The priority ceiling of `slot`, when the validator assigned one to
    /// a shared passive service (RTSJ priority-ceiling emulation
    /// metadata).
    pub(crate) fn ceiling_at(&self, slot: usize) -> Option<Priority> {
        self.nodes[slot].ceiling
    }

    /// Resolves a component name to its engine slot.
    ///
    /// Prefer resolving once and holding the slot (or use a
    /// `Deployment`'s `ComponentRef` tokens): every call scans component
    /// names and counts against [`name_lookups`](Self::name_lookups).
    ///
    /// # Errors
    ///
    /// [`FrameworkError::Content`] for unknown names.
    pub fn slot_of(&self, name: &str) -> Result<usize, FrameworkError> {
        self.slot_ix(name)
    }

    /// Name resolutions performed so far (`slot_of` and the name-based
    /// driver entry points). Steady-state transaction loops driven through
    /// resolved slots / `ComponentRef`s keep this constant — the property
    /// the hot-path tests assert.
    pub fn name_lookups(&self) -> u64 {
        self.lookups.get()
    }

    /// Dispatch resolutions that fell back to a string scan: name-based
    /// `Ports::call`/`send`, the one-time `InternedPort` interning scan,
    /// and cold name resolutions in the binding tables. A steady-state
    /// transaction through interned ports keeps this constant — the
    /// property the zero-cost dispatch tests assert in every mode.
    pub fn string_compares(&self) -> u64 {
        self.string_compares.get()
    }

    /// Resolves a client-port name to its deployment-interned dense id —
    /// the one-time cold scan [`InternedPort`](soleil_membrane::InternedPort)
    /// memoizes away.
    fn intern_port(&self, client_port: &str) -> Option<PortId> {
        self.string_compares.set(self.string_compares.get() + 1);
        self.port_names
            .iter()
            .position(|n| n.as_ref() == client_port)
            .map(|i| PortId(i as u16))
    }

    /// The name behind an interned port id (cold error reporting: unbound
    /// failures surface the port *name*, never a bare id).
    fn port_name(&self, id: PortId) -> &str {
        self.port_names
            .get(id.0 as usize)
            .map(|n| n.as_ref())
            .unwrap_or("<unknown port id>")
    }

    /// Recompiles the interned-dispatch jump tables from the current
    /// binding tables — called at build and defensively after rebinding
    /// (rebinds replace entries in place, so compiled indices stay valid;
    /// recompiling keeps the invariant local instead of distributed).
    fn recompile_port_jump(&mut self) {
        // Every recompilation is a new plan: stale content-side memos must
        // re-intern rather than index the rebuilt tables.
        self.dispatch_generation = mint_dispatch_generation();
        match self.mode {
            Mode::Soleil => {
                // The reified membranes own their jump tables.
                let names = std::mem::take(&mut self.port_names);
                for m in self.membranes.iter_mut().flatten() {
                    m.binding.compile_jump(&names);
                }
                self.port_names = names;
                self.port_jump = (0..self.nodes.len()).map(|_| Box::default()).collect();
            }
            Mode::MergeAll => {
                self.port_jump = self
                    .compiled
                    .iter()
                    .map(|row| {
                        self.port_names
                            .iter()
                            .map(|n| {
                                row.iter()
                                    .position(|b| b.port == *n)
                                    .map_or(u32::MAX, |i| i as u32)
                            })
                            .collect()
                    })
                    .collect();
            }
            Mode::UltraMerge => {
                self.port_jump = self
                    .ultra_ranges
                    .iter()
                    .map(|&(s, e)| {
                        self.port_names
                            .iter()
                            .map(|n| {
                                self.ultra_table[s as usize..e as usize]
                                    .iter()
                                    .position(|b| b.port == *n)
                                    .map_or(u32::MAX, |i| s + i as u32)
                            })
                            .collect()
                    })
                    .collect();
            }
        }
    }

    pub(crate) fn slot_ix(&self, name: &str) -> Result<usize, FrameworkError> {
        self.lookups.set(self.lookups.get() + 1);
        self.nodes
            .iter()
            .position(|n| n.name == name)
            .ok_or_else(|| FrameworkError::Content(format!("unknown component '{name}'")))
    }

    pub(crate) fn node_name(&self, slot: usize) -> &str {
        &self.nodes[slot].name
    }

    pub(crate) fn node_started(&self, slot: usize) -> bool {
        self.nodes[slot].started
    }

    pub(crate) fn port_ix_of(&self, slot: usize, port: &str) -> Result<u16, FrameworkError> {
        self.lookups.set(self.lookups.get() + 1);
        port_index(&self.nodes[slot], port)
    }

    // -----------------------------------------------------------------
    // Transactions
    // -----------------------------------------------------------------

    /// Drives one complete iteration starting from the periodic component
    /// `head`: its release, every synchronous nested call, and the
    /// asynchronous cascade until quiescence — the unit the paper's
    /// benchmark times.
    ///
    /// # Errors
    ///
    /// Any framework or substrate error raised along the way.
    pub fn run_transaction(&mut self, head: usize) -> Result<(), FrameworkError> {
        // The whole release decision was settled at build time into the
        // per-slot activation plan: a steady-state loop performs no name
        // resolution and no `Option` walk at all.
        let plan = *self
            .activation_plans
            .get(head)
            .ok_or_else(|| FrameworkError::Content(format!("bad slot {head}")))?;
        if plan.release_ix == u16::MAX {
            return Err(FrameworkError::Content(format!(
                "component '{}' is not periodic (no {RELEASE_PORT} port)",
                self.nodes[head].name
            )));
        }
        // Supervision on the healthy path is this one compare: a
        // quarantined head's release is suppressed (and counted), not run.
        if plan.quarantined {
            self.supervisors[head].suppressed_releases += 1;
            return Ok(());
        }
        self.run_release(head, plan)
    }

    /// One release transaction of `head` under its already-fetched plan:
    /// the shared body of [`run_transaction`](Self::run_transaction) and
    /// the timer-fire path.
    fn run_release(&mut self, head: usize, plan: ActivationPlan) -> Result<(), FrameworkError> {
        let mut msg = P::default();
        self.cascade(head, plan.release_ix, &mut msg, plan)
    }

    /// Activates `slot` on `port_ix`, then drains the asynchronous cascade
    /// to quiescence — the body shared by releases, timer fires and
    /// injections. A fault goes to supervision where it happens, in this
    /// activation or in any drained one: a contained fault lets the cascade
    /// drain on, and only an escalated one returns `Err`. A faulted
    /// activation counts no transaction and records no latency.
    fn cascade(
        &mut self,
        slot: usize,
        port_ix: u16,
        msg: &mut P,
        plan: ActivationPlan,
    ) -> Result<(), FrameworkError> {
        // Monitored slots stamp the transaction; the sentinel keeps the
        // unmonitored path at one integer compare (no clock read).
        let t0 = (plan.monitor_ix != u16::MAX).then(Instant::now);
        let activated = match self.activate(slot, port_ix, msg) {
            Ok(()) => {
                // Healthy activation of a checkpoint-enabled slot: one
                // compare, and a capture only on the configured cadence.
                if plan.checkpoint_ix != u16::MAX {
                    self.cadence_checkpoint(slot);
                }
                true
            }
            Err(e) => {
                self.handle_fault(e)?;
                false
            }
        };
        self.drain()?;
        if activated {
            self.stats.transactions += 1;
            if let Some(t0) = t0 {
                self.observe_latency(plan.monitor_ix, t0);
            }
        }
        Ok(())
    }

    /// Feeds one completed monitored activation to its latency monitor
    /// (deadline check, jitter check, histogram record — allocation-free).
    #[inline]
    fn observe_latency(&mut self, monitor_ix: u16, start: Instant) {
        let latency_ns = start.elapsed().as_nanos() as u64;
        if let Some(m) = self.monitors[monitor_ix as usize].as_deref_mut() {
            m.monitor.observe(start, latency_ns);
        }
    }

    /// Slots of every periodic component, highest priority first — the
    /// release order within one tick of the system (a copy of the cached
    /// order; the tick loop itself walks the cache without allocating).
    pub fn periodic_heads(&self) -> Vec<usize> {
        self.periodic_order.clone()
    }

    /// Rebuilds the cached periodic release order. Called at build and
    /// whenever reconfiguration changes a component's priority (domain
    /// reassignment); periodic-ness itself is fixed at design time.
    fn recompute_periodic_order(&mut self) {
        self.periodic_order = self
            .nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| matches!(n.activation, Activation::Periodic { .. }))
            .map(|(i, _)| i)
            .collect();
        self.periodic_order
            .sort_by_key(|&i| std::cmp::Reverse(self.nodes[i].priority));
    }

    /// Releases every periodic component once, in priority order, each with
    /// its full run-to-completion cascade — one "tick" of a system with
    /// several time-triggered components. Walks the cached release order:
    /// no per-tick list building.
    ///
    /// # Errors
    ///
    /// The first transaction error aborts the tick. When later periodic
    /// heads were still waiting for their release, the error names both
    /// the aborting component and every skipped head — an aborted tick
    /// never silently un-releases the rest of the system.
    pub fn run_tick(&mut self) -> Result<(), FrameworkError> {
        // The release engine rides the tick: advance the virtual clock one
        // quantum and fire whatever came due. With nothing armed this is
        // one add and one length check — periodic-only deployments pay
        // essentially nothing for the timer machinery.
        self.clock = self.clock.saturating_add(self.tick_quantum);
        if !self.timers.is_empty() {
            self.fire_due_timers()?;
        }
        for i in 0..self.periodic_order.len() {
            let head = self.periodic_order[i];
            if let Err(e) = self.run_transaction(head) {
                let skipped: Vec<&str> = self.periodic_order[i + 1..]
                    .iter()
                    .map(|&s| self.nodes[s].name.as_str())
                    .collect();
                if skipped.is_empty() {
                    return Err(e);
                }
                return Err(FrameworkError::RunToCompletion(format!(
                    "tick aborted by component '{}': {e}; skipped periodic heads: {}",
                    self.nodes[head].name,
                    skipped.join(", ")
                )));
            }
        }
        Ok(())
    }

    /// Slot/port-indexed injection (the string-free hot path behind
    /// `Deployment::inject`).
    pub(crate) fn inject_at(
        &mut self,
        slot: usize,
        port_ix: u16,
        mut msg: P,
    ) -> Result<(), FrameworkError> {
        let plan = self.activation_plans[slot];
        // A quarantined target counts the drop instead of activating — the
        // same never-silently-lost accounting as the drain path. No
        // transaction is recorded (none ran), which keeps the parallel
        // drain-pass arithmetic honest.
        if plan.quarantined {
            self.stats.dropped_messages += 1;
            self.stats.quarantine_drops += 1;
            return Ok(());
        }
        // Delivered the moment it reaches the activation boundary —
        // mirroring the drain path's pop-before-invoke accounting, so the
        // conservation ledger holds even when the activation then faults.
        self.stats.delivered_messages += 1;
        self.cascade(slot, port_ix, &mut msg, plan)
    }

    /// Checks out the executing context for a slot: its domain's context,
    /// or the pooled anonymous context for undomained components (reused so
    /// steady-state activations never rebuild scope-stack storage).
    fn take_ctx(&mut self, domain_ix: Option<usize>) -> Result<MemoryContext, FrameworkError> {
        match domain_ix {
            Some(d) => self.domains[d].ctx.take().ok_or_else(|| {
                FrameworkError::RunToCompletion(format!(
                    "domain '{}' already executing",
                    self.domains[d].name
                ))
            }),
            None => Ok(self
                .anon_ctx
                .take()
                .unwrap_or_else(|| self.mm.context(ThreadKind::Regular))),
        }
    }

    /// Returns a context checked out by [`System::take_ctx`].
    fn restore_ctx(&mut self, domain_ix: Option<usize>, ctx: MemoryContext) {
        match domain_ix {
            Some(d) => self.domains[d].ctx = Some(ctx),
            None => self.anon_ctx = Some(ctx),
        }
    }

    fn activate(&mut self, slot: usize, port_ix: u16, msg: &mut P) -> Result<(), FrameworkError> {
        self.stats.activations += 1;
        // Engine-level fault injection fires at the activation boundary,
        // before any mode-specific dispatch — the sentinel keeps the
        // uninjected path at one integer compare.
        if self.activation_plans[slot].fault_ix != u16::MAX {
            self.run_injector(slot)?;
        }
        let domain_ix = self.nodes[slot].domain_ix;
        let mut ctx = self.take_ctx(domain_ix)?;
        let result = self.invoke_in_chain(slot, port_ix, msg, &mut ctx);
        self.restore_ctx(domain_ix, ctx);
        result
    }

    /// Draws the slot's engine-level fault injector, converting an
    /// injected panic into the same typed [`FrameworkError::Faulted`] a
    /// content panic produces. The injector is checked out around the draw
    /// (a pointer swap) so the catch boundary never holds a borrow of the
    /// engine.
    fn run_injector(&mut self, slot: usize) -> Result<(), FrameworkError> {
        let Some(mut fi) = self.injectors[slot].take() else {
            return Ok(());
        };
        let drawn = catch_unwind(AssertUnwindSafe(|| fi.draw()));
        // A virtual-clock injector records latency spikes instead of
        // busy-waiting; the engine clock absorbs them here, so simulated
        // timelines are wall-clock-independent.
        let spike_ns = fi.take_pending_spike_ns();
        self.injectors[slot] = Some(fi);
        if spike_ns > 0 {
            self.clock = self
                .clock
                .saturating_add(RelativeTime::from_nanos(spike_ns));
        }
        match drawn {
            Ok(r) => r,
            Err(payload) => Err(FrameworkError::Faulted {
                component: self.nodes[slot].name.clone(),
                kind: FaultKind::Panic,
                detail: panic_detail(payload),
            }),
        }
    }

    /// Enters `slot`'s scope chain, invokes, and exits — the execution
    /// discipline every activation shares: a component allocated in scoped
    /// memory executes inside its (wedge-pinned, so entry cannot reclaim)
    /// scope stack. Both the release path and the asynchronous drain path
    /// go through here; having the chain on the stack is also the premise
    /// of the build-time `ExecuteInOuter` access proofs
    /// ([`System::outer_proof`]).
    fn invoke_in_chain(
        &mut self,
        slot: usize,
        port_ix: u16,
        msg: &mut P,
        ctx: &mut MemoryContext,
    ) -> Result<(), FrameworkError> {
        // The chain range comes out of the activation plan: one contiguous
        // arena window, no per-slot `Vec` indirection on the hot path.
        let plan = self.activation_plans[slot];
        let (chain_off, chain_len) = (plan.chain_off as usize, plan.chain_len as usize);
        let mut entered = 0;
        let mut result = Ok(());
        for i in 0..chain_len {
            let scope = self.enter_arena[chain_off + i];
            if let Err(e) = self.mm.enter(ctx, scope) {
                result = Err(e.into());
                break;
            }
            entered += 1;
        }
        if result.is_ok() {
            result = self.invoke(slot, port_ix, msg, ctx);
        }
        for _ in 0..entered {
            self.mm.exit(ctx).expect("balanced activation scope stack");
        }
        result
    }

    fn drain(&mut self) -> Result<(), FrameworkError> {
        while let Some((_, buffer_ix)) = self.pending.pop() {
            let (consumer_slot, consumer_port_ix) = {
                let b = &self.buffers[buffer_ix];
                (b.consumer_slot, b.consumer_port_ix)
            };
            // Messages addressed to a quarantined consumer are popped and
            // *counted*-dropped — conservation over quarantine: nothing
            // waits forever in a queue nobody will drain, nothing is lost
            // off the books. One compare on the healthy path.
            if self.activation_plans[consumer_slot].quarantined {
                let ctx = self.mm.context(ThreadKind::Regular);
                if let Some(_msg) = self.buffers[buffer_ix].buffer.pop(&mut self.mm, &ctx)? {
                    self.stats.dropped_messages += 1;
                    self.stats.quarantine_drops += 1;
                }
                continue;
            }
            let domain_ix = self.nodes[consumer_slot].domain_ix;
            let mut ctx = self.take_ctx(domain_ix)?;
            // Index-based buffer access: `buffers` and `mm` are disjoint
            // fields, so the ring is reached in place — no handle clone per
            // drained message.
            let popped = self.buffers[buffer_ix].buffer.pop(&mut self.mm, &ctx);
            let result = match popped {
                Ok(Some(mut msg)) => {
                    self.stats.activations += 1;
                    self.stats.delivered_messages += 1;
                    // Message-triggered activations are monitored and
                    // fault-injected too: the same one-compare sentinels
                    // as the release path.
                    let plan = self.activation_plans[consumer_slot];
                    let t0 = (plan.monitor_ix != u16::MAX).then(Instant::now);
                    let r = if plan.fault_ix != u16::MAX {
                        self.run_injector(consumer_slot)
                    } else {
                        Ok(())
                    }
                    .and_then(|()| {
                        self.invoke_in_chain(consumer_slot, consumer_port_ix, &mut msg, &mut ctx)
                    });
                    if let (Some(t0), Ok(())) = (t0, &r) {
                        self.observe_latency(plan.monitor_ix, t0);
                    }
                    if r.is_ok() && plan.checkpoint_ix != u16::MAX {
                        self.cadence_checkpoint(consumer_slot);
                    }
                    r
                }
                Ok(None) => Ok(()),
                Err(e) => Err(e.into()),
            };
            self.restore_ctx(domain_ix, ctx);
            // A contained fault ends only the faulting activation: the
            // rest of the cascade drains on. An escalated one aborts it.
            if let Err(e) = result {
                self.handle_fault(e)?;
            }
        }
        Ok(())
    }

    fn enqueue(
        &mut self,
        buffer_ix: usize,
        msg: P,
        ctx: &MemoryContext,
    ) -> Result<(), FrameworkError> {
        match self.buffers[buffer_ix]
            .buffer
            .push(&mut self.mm, ctx, msg)?
        {
            PushOutcome::Accepted => {
                self.stats.async_messages += 1;
                let consumer = self.buffers[buffer_ix].consumer_slot;
                self.seq += 1;
                self.pending.push((
                    PendingKey {
                        priority: self.nodes[consumer].priority,
                        seq: Reverse(self.seq),
                    },
                    buffer_ix,
                ));
                Ok(())
            }
            PushOutcome::Rejected => {
                self.stats.dropped_messages += 1;
                Ok(())
            }
        }
    }

    /// Enqueues `msg` on a cross-domain ring: wait-free, no pending-heap
    /// entry (the consumer shard schedules it), bounded backpressure on a
    /// full ring. The shared in-flight counter is incremented *before* the
    /// push so the parallel quiescence check never observes a published
    /// message it is not counting.
    fn enqueue_cross(&mut self, cross_ix: usize, msg: P) -> Result<(), FrameworkError> {
        self.cross_in_flight.fetch_add(1, Ordering::SeqCst);
        match self.cross_out[cross_ix].push(msg) {
            PushOutcome::Accepted => {
                self.stats.async_messages += 1;
                Ok(())
            }
            PushOutcome::Rejected => {
                self.cross_in_flight.fetch_sub(1, Ordering::SeqCst);
                self.stats.dropped_messages += 1;
                Ok(())
            }
        }
    }

    fn invoke(
        &mut self,
        slot: usize,
        port_ix: u16,
        msg: &mut P,
        ctx: &mut MemoryContext,
    ) -> Result<(), FrameworkError> {
        match self.mode {
            Mode::Soleil => self.invoke_soleil(slot, port_ix, msg, ctx),
            Mode::MergeAll => self.invoke_merged(slot, port_ix, msg, ctx),
            Mode::UltraMerge => self.invoke_ultra(slot, port_ix, msg, ctx),
        }
    }

    // --- SOLEIL path: reified membrane around every invocation. ---------

    fn invoke_soleil(
        &mut self,
        slot: usize,
        port_ix: u16,
        msg: &mut P,
        ctx: &mut MemoryContext,
    ) -> Result<(), FrameworkError> {
        let mut membrane = self.membranes[slot].take().ok_or_else(|| {
            FrameworkError::RunToCompletion(format!(
                "re-entrant invocation of '{}'",
                self.nodes[slot].name
            ))
        })?;
        // The pre-gate can panic (a `Dyn` interceptor is user code): catch
        // it here, poison the membrane — the chain may be half-wound, so
        // the component must not re-activate without a restart — and
        // surface the typed fault.
        let pre = catch_unwind(AssertUnwindSafe(|| membrane.pre_invoke(&mut self.mm, ctx)));
        match pre {
            Ok(Ok(())) => {}
            Ok(Err(e)) => {
                self.membranes[slot] = Some(membrane);
                return Err(e);
            }
            Err(payload) => {
                membrane.quarantine(true);
                self.membranes[slot] = Some(membrane);
                return Err(FrameworkError::Faulted {
                    component: self.nodes[slot].name.clone(),
                    kind: FaultKind::Panic,
                    detail: panic_detail(payload),
                });
            }
        }
        let mut content = match self.nodes[slot].content.take() {
            Some(c) => c,
            None => {
                let _ = membrane.post_invoke(&mut self.mm, ctx);
                self.membranes[slot] = Some(membrane);
                return Err(FrameworkError::RunToCompletion(format!(
                    "content of '{}' is already executing",
                    self.nodes[slot].name
                )));
            }
        };
        // Check the port name out of its slot (a swap, not a clone); the
        // membrane/content takes above already refused re-entry, so the
        // slot cannot be checked out twice.
        let port = std::mem::take(&mut self.nodes[slot].server_ports[port_ix as usize]);
        let result = {
            let mut ports = SoleilPorts {
                sys: self,
                membrane: &mut membrane,
                ctx,
            };
            // The activation boundary: a panicking content becomes a typed
            // fault and the unwind stops here — port/content/membrane
            // restoration below runs on every exit path, so the engine's
            // own invariants survive the panic (the component's may not;
            // that is the supervisor's call).
            catch_unwind(AssertUnwindSafe(|| {
                content.on_invoke(&port, msg, &mut ports)
            }))
        };
        self.nodes[slot].server_ports[port_ix as usize] = port;
        let result = match result {
            Ok(r) => {
                self.nodes[slot].content = Some(content);
                r
            }
            Err(payload) => {
                // A caught panic may have half-mutated the content state:
                // poison the membrane so re-activation is refused until a
                // supervised restart installs a fresh instance.
                self.nodes[slot].content = Some(content);
                membrane.quarantine(true);
                Err(FrameworkError::Faulted {
                    component: self.nodes[slot].name.clone(),
                    kind: FaultKind::Panic,
                    detail: panic_detail(payload),
                })
            }
        };
        let post = membrane.post_invoke(&mut self.mm, ctx);
        self.membranes[slot] = Some(membrane);
        result.and(post)
    }

    // --- MERGE-ALL path: inlined membrane logic. ------------------------

    fn invoke_merged(
        &mut self,
        slot: usize,
        port_ix: u16,
        msg: &mut P,
        ctx: &mut MemoryContext,
    ) -> Result<(), FrameworkError> {
        {
            let node = &mut self.nodes[slot];
            if node.quarantined {
                return Err(FrameworkError::Lifecycle(format!(
                    "component '{}' is quarantined pending restart",
                    node.name
                )));
            }
            if !node.started {
                return Err(FrameworkError::Lifecycle(format!(
                    "component '{}' is stopped",
                    node.name
                )));
            }
            if node.busy {
                return Err(FrameworkError::RunToCompletion(format!(
                    "re-entrant invocation of '{}'",
                    node.name
                )));
            }
            node.busy = true;
        }
        let mut content = self.nodes[slot].content.take().expect("busy flag held");
        // Checkout, not clone: the busy flag above guards re-entry.
        let port = std::mem::take(&mut self.nodes[slot].server_ports[port_ix as usize]);
        let result = {
            let mut ports = CompiledPorts {
                sys: self,
                slot,
                ctx,
                checked: true,
            };
            catch_unwind(AssertUnwindSafe(|| {
                content.on_invoke(&port, msg, &mut ports)
            }))
        };
        self.nodes[slot].server_ports[port_ix as usize] = port;
        self.nodes[slot].content = Some(content);
        self.nodes[slot].busy = false;
        self.settle_caught(slot, result)
    }

    // --- ULTRA-MERGE path: flat static dispatch, no checks. -------------

    fn invoke_ultra(
        &mut self,
        slot: usize,
        port_ix: u16,
        msg: &mut P,
        ctx: &mut MemoryContext,
    ) -> Result<(), FrameworkError> {
        let mut content = self.nodes[slot].content.take().ok_or_else(|| {
            FrameworkError::RunToCompletion(format!(
                "re-entrant invocation of '{}'",
                self.nodes[slot].name
            ))
        })?;
        // Checkout, not clone: the content take above guards re-entry.
        let port = std::mem::take(&mut self.nodes[slot].server_ports[port_ix as usize]);
        let result = {
            let mut ports = CompiledPorts {
                sys: self,
                slot,
                ctx,
                checked: false,
            };
            catch_unwind(AssertUnwindSafe(|| {
                content.on_invoke(&port, msg, &mut ports)
            }))
        };
        self.nodes[slot].server_ports[port_ix as usize] = port;
        self.nodes[slot].content = Some(content);
        self.settle_caught(slot, result)
    }

    /// Settles a caught activation result from the compiled invoke paths:
    /// passes plain results through and converts a caught panic into the
    /// typed fault (cold path — the name clone happens only on a panic).
    fn settle_caught(
        &mut self,
        slot: usize,
        result: std::thread::Result<Result<(), FrameworkError>>,
    ) -> Result<(), FrameworkError> {
        match result {
            Ok(r) => r,
            Err(payload) => Err(FrameworkError::Faulted {
                component: self.nodes[slot].name.clone(),
                kind: FaultKind::Panic,
                detail: panic_detail(payload),
            }),
        }
    }

    /// The cold string-fallback resolution for name-based callers: a
    /// short-circuit scan over the slot's compiled bindings, counted so
    /// steady-state tests can assert interned transactions never take it.
    fn lookup_compiled(&self, slot: usize, port: &str) -> Result<DispatchHeader, FrameworkError> {
        self.string_compares.set(self.string_compares.get() + 1);
        let found = match self.mode {
            Mode::MergeAll => self.compiled[slot].iter().find(|b| b.port.as_ref() == port),
            Mode::UltraMerge => {
                let (s, e) = self.ultra_ranges[slot];
                self.ultra_table[s as usize..e as usize]
                    .iter()
                    .find(|b| b.port.as_ref() == port)
            }
            Mode::Soleil => unreachable!("compiled lookup in SOLEIL mode"),
        };
        let b = found.ok_or_else(|| {
            FrameworkError::Binding(format!(
                "client port '{port}' of '{}' is unbound",
                self.nodes[slot].name
            ))
        })?;
        Ok(b.header)
    }

    /// Interned jump-table dispatch: `[slot][port_id]` indexes straight to
    /// the compiled header — no string compare, no scan, no refcount.
    /// `None` when the id is unbound for this slot (the cold error path).
    #[inline]
    fn lookup_interned(&self, slot: usize, id: PortId) -> Option<DispatchHeader> {
        let ix = *self.port_jump[slot].get(id.0 as usize)? as usize;
        match self.mode {
            Mode::MergeAll => self.compiled[slot].get(ix).map(|b| b.header),
            Mode::UltraMerge => self.ultra_table.get(ix).map(|b| b.header),
            Mode::Soleil => None,
        }
    }

    /// The unbound-port error of the interned path: reconstructs the port
    /// *name* from the intern universe so cold failures read identically
    /// to the string-fallback path.
    fn unbound_interned(&self, slot: usize, id: PortId) -> FrameworkError {
        FrameworkError::Binding(format!(
            "client port '{}' of '{}' is unbound",
            self.port_name(id),
            self.nodes[slot].name
        ))
    }

    fn cross_scope_call(
        &mut self,
        r: DispatchHeader,
        msg: &mut P,
        ctx: &mut MemoryContext,
    ) -> Result<(), FrameworkError> {
        match r.pattern {
            PatternKind::Direct | PatternKind::ImmortalExchange => {
                self.invoke(r.target_slot, r.server_port_ix, msg, ctx)
            }
            PatternKind::ExecuteInOuter => {
                // The build-time access decision replaces the scope-stack
                // walk when the server area is provably on the stack.
                if r.outer_on_stack {
                    self.mm
                        .begin_execute_in_area_prechecked(ctx, r.server_area)?;
                } else {
                    self.mm.begin_execute_in_area(ctx, r.server_area)?;
                }
                let out = self.invoke(r.target_slot, r.server_port_ix, msg, ctx);
                self.mm.end_execute_in_area(ctx)?;
                out
            }
            PatternKind::EnterInner => {
                // The enter path is an arena window addressed by the
                // header's `(offset, len)` range — reading it copies plain
                // `AreaId`s, no `Arc` traffic anywhere on this path.
                let (off, len) = (r.enter_off as usize, r.enter_len as usize);
                let mut entered = 0;
                let mut out = Ok(());
                for i in 0..len {
                    let scope = self.enter_arena[off + i];
                    if let Err(e) = self.mm.enter(ctx, scope) {
                        out = Err(e.into());
                        break;
                    }
                    entered += 1;
                }
                if out.is_ok() {
                    out = self.invoke(r.target_slot, r.server_port_ix, msg, ctx);
                }
                for _ in 0..entered {
                    self.mm.exit(ctx)?;
                }
                out
            }
            PatternKind::HandoffThroughParent => {
                // Deep-copy in, deep-copy out: no reference crosses.
                let mut copy = msg.clone();
                let out = self.invoke(r.target_slot, r.server_port_ix, &mut copy, ctx);
                *msg = copy;
                out
            }
        }
    }

    // -----------------------------------------------------------------
    // Lifecycle & reconfiguration
    // -----------------------------------------------------------------

    fn start_slot(&mut self, slot: usize) -> Result<(), FrameworkError> {
        if let Some(c) = self.nodes[slot].content.as_mut() {
            c.on_start();
        }
        self.nodes[slot].started = true;
        if let Some(m) = self.membranes.get_mut(slot).and_then(|m| m.as_mut()) {
            m.lifecycle.start();
        }
        Ok(())
    }

    fn reject_static(&self) -> Result<(), FrameworkError> {
        if self.mode == Mode::UltraMerge {
            return Err(FrameworkError::Unsupported(
                "ULTRA-MERGE systems are purely static".into(),
            ));
        }
        Ok(())
    }

    /// Stops `slot`: invocations refused until restarted.
    pub(crate) fn stop_at(&mut self, slot: usize) -> Result<(), FrameworkError> {
        self.reject_static()?;
        if let Some(c) = self.nodes[slot].content.as_mut() {
            c.on_stop();
        }
        self.nodes[slot].started = false;
        if let Some(m) = self.membranes.get_mut(slot).and_then(|m| m.as_mut()) {
            m.lifecycle.stop();
        }
        // An explicit stop overrides supervision: a pending supervised
        // restart must not revive the component behind the user's back.
        self.cancel_restart_timer(slot);
        Ok(())
    }

    /// Disarms `slot`'s pending supervised-restart timer, if any. Safe on
    /// stale handles — the generation check makes a lost race (timer
    /// already fired) a no-op.
    fn cancel_restart_timer(&mut self, slot: usize) {
        if let Some(handle) = self
            .supervisors
            .get_mut(slot)
            .and_then(|s| s.restart_timer.take())
        {
            self.timers.cancel(handle);
        }
    }

    /// (Re)starts `slot`.
    pub(crate) fn start_at(&mut self, slot: usize) -> Result<(), FrameworkError> {
        self.reject_static()?;
        self.start_slot(slot)
    }

    /// The slot currently targeted by `client_slot`'s synchronous `port`
    /// (used by the transactional reconfiguration journal).
    ///
    /// # Errors
    ///
    /// [`FrameworkError::Binding`] for unbound or asynchronous ports;
    /// [`FrameworkError::Unsupported`] under ULTRA-MERGE.
    pub(crate) fn sync_target_of(
        &self,
        client_slot: usize,
        port: &str,
    ) -> Result<usize, FrameworkError> {
        self.reject_static()?;
        let (target_slot, is_async) = match self.mode {
            Mode::Soleil => {
                let m = self.membranes[client_slot]
                    .as_ref()
                    .expect("membrane present outside invocation");
                let t = m.binding.resolve(port)?;
                (t.target_slot, t.is_async)
            }
            Mode::MergeAll => {
                let b = self.compiled[client_slot]
                    .iter()
                    .find(|b| b.port.as_ref() == port)
                    .ok_or_else(|| {
                        FrameworkError::Binding(format!("client port '{port}' is unbound"))
                    })?;
                (b.header.target_slot, b.header.is_async)
            }
            Mode::UltraMerge => unreachable!("rejected above"),
        };
        if is_async {
            return Err(FrameworkError::Binding(
                "cannot rebind asynchronous bindings at runtime".into(),
            ));
        }
        Ok(target_slot)
    }

    /// Slot-indexed rebinding (the engine half of the transactional path:
    /// SOLEIL goes through the membrane's BindingController, MERGE-ALL
    /// patches the compiled slot).
    pub(crate) fn rebind_at(
        &mut self,
        client_slot: usize,
        port: &str,
        server_slot: usize,
    ) -> Result<(), FrameworkError> {
        self.reject_static()?;
        match self.mode {
            Mode::Soleil => {
                let (old, server_port_name) = {
                    let m = self.membranes[client_slot]
                        .as_ref()
                        .expect("membrane present outside invocation");
                    let t = m.binding.resolve(port)?.clone();
                    let name = t.server_port.clone();
                    (t, name)
                };
                if old.is_async {
                    return Err(FrameworkError::Binding(
                        "cannot rebind asynchronous bindings at runtime".into(),
                    ));
                }
                let new_port_ix = port_index(&self.nodes[server_slot], &server_port_name)?;
                let new_area = self.areas[self.nodes[server_slot].area_ix].id;
                let client_area = self.areas[self.nodes[client_slot].area_ix].id;
                let (pattern, enter_path) = self.pattern_between(client_area, new_area);
                let outer_on_stack = self.outer_proof(client_slot, pattern, new_area);
                let plan = MemoryPlan {
                    pattern,
                    server_area: new_area,
                    enter_path,
                    transient_scope: None,
                    outer_on_stack,
                };
                // Rebinding recompiles the binding's fused gate along with
                // its interceptor: the plan stays a deploy/rebind-time
                // artifact, never consulted-and-derived per call.
                self.mem_gates[old.binding_ix] = plan.fast_gate();
                self.mem_interceptors[old.binding_ix] = Some(MemoryInterceptor::new(plan));
                let m = self.membranes[client_slot]
                    .as_mut()
                    .expect("membrane present outside invocation");
                m.binding.bind(
                    port.to_string(),
                    BindingTarget {
                        target_slot: server_slot,
                        server_port: server_port_name,
                        server_port_ix: new_port_ix,
                        is_async: false,
                        buffer_index: None,
                        binding_ix: old.binding_ix,
                        cross: false,
                    },
                );
                // `bind` replaces in place, so compiled jump indices stay
                // valid; recompiling anyway keeps the plan an invariant of
                // this one (cold) site rather than of `bind`'s internals.
                m.binding.compile_jump(&self.port_names);
                self.dispatch_generation = mint_dispatch_generation();
                Ok(())
            }
            Mode::MergeAll => {
                let client_area = self.areas[self.nodes[client_slot].area_ix].id;
                let new_area = self.areas[self.nodes[server_slot].area_ix].id;
                let (pattern, enter_path) = self.pattern_between(client_area, new_area);
                let server_port_name = {
                    let b = self.compiled[client_slot]
                        .iter()
                        .find(|b| b.port.as_ref() == port)
                        .ok_or_else(|| {
                            FrameworkError::Binding(format!("client port '{port}' is unbound"))
                        })?;
                    if b.header.is_async {
                        return Err(FrameworkError::Binding(
                            "cannot rebind asynchronous bindings at runtime".into(),
                        ));
                    }
                    self.nodes[b.header.target_slot].server_ports[b.header.server_port_ix as usize]
                        .to_string()
                };
                let new_port_ix = port_index(&self.nodes[server_slot], &server_port_name)?;
                let outer_on_stack = self.outer_proof(client_slot, pattern, new_area);
                // The replacement header comes from the same constructor
                // build uses; the arena's window reuse means rebinding back
                // to an earlier target restores the old header
                // byte-identically (transactional rollback relies on it).
                let header = DispatchHeader::compile(
                    &mut self.enter_arena,
                    server_slot,
                    new_port_ix,
                    false,
                    usize::MAX,
                    pattern,
                    new_area,
                    &enter_path,
                    outer_on_stack,
                    false,
                );
                let b = self.compiled[client_slot]
                    .iter_mut()
                    .find(|b| b.port.as_ref() == port)
                    .expect("found above");
                b.header = header;
                self.recompile_port_jump();
                Ok(())
            }
            Mode::UltraMerge => unreachable!("handled above"),
        }
    }

    /// The build-time access proof for `ExecuteInOuter` bindings: the
    /// server area sits on the client's static scope chain, so it is on
    /// the stack whenever the binding fires and the per-call containment
    /// walk may be skipped. Single source of truth for rebinding; the
    /// `outer_on_stack` closure in [`System::build`] mirrors it (it runs
    /// before `self` exists).
    fn outer_proof(&self, client_slot: usize, pattern: PatternKind, server_area: AreaId) -> bool {
        pattern == PatternKind::ExecuteInOuter
            && self.nodes[client_slot].scope_chain.contains(&server_area)
    }

    /// Recomputes the cross-scope pattern (and, for `EnterInner`, the
    /// relative scope chain to enter) between two runtime areas — used by
    /// runtime rebinding.
    fn pattern_between(&self, client: AreaId, server: AreaId) -> (PatternKind, Vec<AreaId>) {
        if client == server {
            return (PatternKind::Direct, Vec::new());
        }
        let kind = |id: AreaId| {
            self.areas
                .iter()
                .find(|a| a.id == id)
                .map(|a| a.kind)
                .unwrap_or(MemoryKind::Heap)
        };
        if matches!(kind(server), MemoryKind::Heap | MemoryKind::Immortal) {
            return (PatternKind::Direct, Vec::new());
        }
        // Scoped chains (outermost first) from the nesting recorded at
        // bootstrap.
        let scoped_chain = |start: AreaId| {
            let mut out = Vec::new();
            let mut ix = self.areas.iter().position(|a| a.id == start);
            while let Some(i) = ix {
                if self.areas[i].kind == MemoryKind::Scoped {
                    out.push(self.areas[i].id);
                }
                ix = self.areas[i].parent;
            }
            out.reverse();
            out
        };
        let client_chain = scoped_chain(client);
        let server_chain = scoped_chain(server);
        if client_chain.contains(&server) {
            // Server scope encloses the client: switch outward.
            return (PatternKind::ExecuteInOuter, Vec::new());
        }
        let common = client_chain
            .iter()
            .zip(server_chain.iter())
            .take_while(|(a, b)| a == b)
            .count();
        if common == client_chain.len() {
            // The client's whole chain is a prefix of the server's (this
            // includes unscoped clients): enter the remaining suffix.
            return (PatternKind::EnterInner, server_chain[common..].to_vec());
        }
        (PatternKind::HandoffThroughParent, Vec::new())
    }

    /// Domain roster index by name (cold-path resolution for
    /// reconfiguration).
    pub(crate) fn domain_ix_by_name(&self, name: &str) -> Option<usize> {
        self.domains.iter().position(|d| d.name == name)
    }

    /// The domain a slot currently executes under.
    pub(crate) fn node_domain_ix(&self, slot: usize) -> Option<usize> {
        self.nodes[slot].domain_ix
    }

    /// The dispatch priority a slot currently runs at (used by the
    /// parallel runtime to drain incoming cross-domain rings in consumer
    /// priority order).
    pub(crate) fn node_priority(&self, slot: usize) -> Priority {
        self.nodes[slot].priority
    }

    /// Re-homes a slot onto another thread domain, adopting its priority
    /// (`None` detaches — the component then runs on an anonymous regular
    /// context, like an undeployed passive). Invalidates the cached
    /// periodic release order, which is priority-sorted.
    pub(crate) fn set_domain_at(&mut self, slot: usize, domain_ix: Option<usize>) {
        self.nodes[slot].domain_ix = domain_ix;
        self.nodes[slot].priority = domain_ix
            .map(|d| self.domains[d].priority)
            .unwrap_or(Priority::NORM);
        self.recompute_periodic_order();
    }

    /// Runtime-area index by name (cold-path resolution for re-homing
    /// reconfigurations; areas are named after their architectural
    /// memory-area components).
    pub(crate) fn area_ix_by_name(&self, name: &str) -> Option<usize> {
        self.areas.iter().position(|a| a.name == name)
    }

    /// Bytes the slot's checkpointed state occupies — the handoff charge
    /// of a re-homing migration (same floor as the build-time charge).
    pub(crate) fn state_bytes_at(&self, slot: usize) -> usize {
        self.nodes[slot]
            .content
            .as_ref()
            .map_or(1, |c| c.state_bytes())
            .max(1)
    }

    /// Charges `bytes` against runtime area `area_ix` — the commit-time
    /// half of a deferred reconfiguration charge. Refused transactions
    /// never reach this, so they stay charge-neutral; a committed charge
    /// is permanent, because immortal/scoped accounting is monotonic
    /// (authentic RTSJ: immortal memory is never reclaimed).
    ///
    /// # Errors
    ///
    /// Substrate budget exhaustion (the commit is then refused).
    pub(crate) fn charge_area(
        &mut self,
        area_ix: usize,
        bytes: usize,
    ) -> Result<(), FrameworkError> {
        let kind = if self.areas[area_ix].kind == MemoryKind::Heap {
            ThreadKind::Regular
        } else {
            ThreadKind::Realtime
        };
        let ctx = self.mm.context(kind);
        self.mm.alloc_raw(&ctx, self.areas[area_ix].id, bytes)?;
        Ok(())
    }

    /// Charges `bytes` against immortal memory — the commit-time half of a
    /// deferred cross-shard ring installation (rings live in immortal
    /// memory, like the build-time carriers). Same monotonic semantics as
    /// [`System::charge_area`].
    ///
    /// # Errors
    ///
    /// Substrate budget exhaustion (the commit is then refused).
    pub(crate) fn charge_immortal(&mut self, bytes: usize) -> Result<(), FrameworkError> {
        let ctx = self.mm.context(ThreadKind::Realtime);
        self.mm.alloc_raw(&ctx, AreaId::IMMORTAL, bytes)?;
        Ok(())
    }

    /// Re-homes a slot's allocation region onto another runtime area: the
    /// checkpoint/handoff half of a `reassign_domain` whose domain edge
    /// moves the component under a different memory area. Recomputes the
    /// slot's scope chain and activation plan, then recompiles the
    /// dispatch state of every local binding touching the slot at either
    /// end — all through the same constructors build uses, with arena
    /// window reuse, so re-homing back restores every header
    /// byte-identically (the transactional-rollback guarantee). Returns
    /// the previous area index; rollback is the symmetric call.
    ///
    /// The substrate charge for the migrated state is **not** made here:
    /// callers defer it to commit time (see [`System::charge_area`]) so a
    /// refused transaction is charge-neutral. The old region's charge
    /// stands either way — monotonic accounting, like build.
    ///
    /// # Errors
    ///
    /// [`FrameworkError::Unsupported`] under ULTRA-MERGE;
    /// [`FrameworkError::Content`] for an unknown area index.
    pub(crate) fn rehome_area_at(
        &mut self,
        slot: usize,
        new_area_ix: usize,
    ) -> Result<usize, FrameworkError> {
        self.reject_static()?;
        if new_area_ix >= self.areas.len() {
            return Err(FrameworkError::Content(format!(
                "re-home target area index {new_area_ix} out of range"
            )));
        }
        let old_area_ix = self.nodes[slot].area_ix;
        if new_area_ix == old_area_ix {
            return Ok(old_area_ix);
        }
        // The scoped chain the component's thread now stands in (the same
        // walk as build).
        let mut scope_chain = Vec::new();
        let mut cursor = Some(new_area_ix);
        while let Some(ix) = cursor {
            if self.areas[ix].kind == MemoryKind::Scoped {
                scope_chain.push(self.areas[ix].id);
            }
            cursor = self.areas[ix].parent;
        }
        scope_chain.reverse();
        self.nodes[slot].area_ix = new_area_ix;
        self.nodes[slot].scope_chain = scope_chain;
        let (chain_off, chain_len) =
            intern_enter_path(&mut self.enter_arena, &self.nodes[slot].scope_chain);
        self.activation_plans[slot].chain_off = chain_off;
        self.activation_plans[slot].chain_len = chain_len as u16;
        self.recompile_bindings_touching(slot);
        self.recompile_port_jump();
        Ok(old_area_ix)
    }

    /// Recompiles the memory plan of every **local** binding with `slot`
    /// at either end — a re-homing changed the areas those plans were
    /// computed from. Cross-ring slots are untouched: their dispatch is
    /// settled on the consumer's shard, not here.
    fn recompile_bindings_touching(&mut self, slot: usize) {
        match self.mode {
            Mode::Soleil => {
                let mut touched: Vec<(usize, usize, usize)> = Vec::new();
                for (c, m) in self.membranes.iter().enumerate() {
                    let Some(m) = m else { continue };
                    for (_, t) in m.binding.entries() {
                        if !t.cross
                            && t.binding_ix != usize::MAX
                            && (c == slot || t.target_slot == slot)
                        {
                            touched.push((c, t.binding_ix, t.target_slot));
                        }
                    }
                }
                for (c, bix, server) in touched {
                    let client_area = self.areas[self.nodes[c].area_ix].id;
                    let server_area = self.areas[self.nodes[server].area_ix].id;
                    let (pattern, enter_path) = self.pattern_between(client_area, server_area);
                    let outer_on_stack = self.outer_proof(c, pattern, server_area);
                    let plan = MemoryPlan {
                        pattern,
                        server_area,
                        enter_path,
                        transient_scope: None,
                        outer_on_stack,
                    };
                    self.mem_gates[bix] = plan.fast_gate();
                    self.mem_interceptors[bix] = Some(MemoryInterceptor::new(plan));
                }
            }
            Mode::MergeAll => {
                let mut touched: Vec<(usize, usize, usize)> = Vec::new();
                for (c, row) in self.compiled.iter().enumerate() {
                    for (i, b) in row.iter().enumerate() {
                        if !b.header.is_cross && (c == slot || b.header.target_slot == slot) {
                            touched.push((c, i, b.header.target_slot));
                        }
                    }
                }
                for (c, i, server) in touched {
                    let client_area = self.areas[self.nodes[c].area_ix].id;
                    let server_area = self.areas[self.nodes[server].area_ix].id;
                    let (pattern, enter_path) = self.pattern_between(client_area, server_area);
                    let outer_on_stack = self.outer_proof(c, pattern, server_area);
                    let old = self.compiled[c][i].header;
                    let header = DispatchHeader::compile(
                        &mut self.enter_arena,
                        old.target_slot,
                        old.server_port_ix,
                        old.is_async,
                        old.buffer_ix,
                        pattern,
                        server_area,
                        &enter_path,
                        outer_on_stack,
                        false,
                    );
                    self.compiled[c][i].header = header;
                }
            }
            Mode::UltraMerge => unreachable!("re-homing is gated by reject_static"),
        }
    }

    /// Repoints a client's **asynchronous** port onto a freshly installed
    /// cross-domain ring whose producer endpoint is `tx` — the engine half
    /// of cross-ring rewiring when a parallel rebind moves a binding
    /// across the domain partition. The ring index is appended to
    /// `cross_out` and the binding's compiled slot is recompiled with
    /// `is_cross` set, exactly the shape build gives deploy-time rings.
    /// Returns the undo record for the reconfiguration journal.
    ///
    /// # Errors
    ///
    /// [`FrameworkError::Binding`] for unbound or synchronous ports;
    /// [`FrameworkError::Unsupported`] under ULTRA-MERGE.
    pub(crate) fn repoint_async_to_cross(
        &mut self,
        client_slot: usize,
        port: &str,
        tx: SpscProducer<P>,
    ) -> Result<AsyncRepointUndo, FrameworkError> {
        self.reject_static()?;
        let cross_ix = self.cross_out.len();
        let old = match self.mode {
            Mode::Soleil => {
                let old = {
                    let m = self.membranes[client_slot]
                        .as_ref()
                        .expect("membrane present outside invocation");
                    m.binding.resolve(port)?.clone()
                };
                if !old.is_async {
                    return Err(FrameworkError::Binding(format!(
                        "client port '{port}' is synchronous; cross-domain rings carry \
                         asynchronous bindings only"
                    )));
                }
                let m = self.membranes[client_slot]
                    .as_mut()
                    .expect("membrane present outside invocation");
                m.binding.bind(
                    port.to_string(),
                    BindingTarget {
                        target_slot: usize::MAX,
                        server_port: String::new(),
                        server_port_ix: 0,
                        is_async: true,
                        buffer_index: Some(cross_ix),
                        binding_ix: usize::MAX,
                        cross: true,
                    },
                );
                m.binding.compile_jump(&self.port_names);
                OldAsyncBinding::Reified(old)
            }
            Mode::MergeAll => {
                let old = {
                    let b = self.compiled[client_slot]
                        .iter()
                        .find(|b| b.port.as_ref() == port)
                        .ok_or_else(|| {
                            FrameworkError::Binding(format!("client port '{port}' is unbound"))
                        })?;
                    if !b.header.is_async {
                        return Err(FrameworkError::Binding(format!(
                            "client port '{port}' is synchronous; cross-domain rings carry \
                             asynchronous bindings only"
                        )));
                    }
                    b.header
                };
                // Same header shape build compiles for deploy-time rings.
                let header = DispatchHeader::compile(
                    &mut self.enter_arena,
                    usize::MAX,
                    0,
                    true,
                    cross_ix,
                    PatternKind::ImmortalExchange,
                    AreaId::IMMORTAL,
                    &[],
                    false,
                    true,
                );
                let b = self.compiled[client_slot]
                    .iter_mut()
                    .find(|b| b.port.as_ref() == port)
                    .expect("found above");
                b.header = header;
                OldAsyncBinding::Compiled(old)
            }
            Mode::UltraMerge => unreachable!("rejected above"),
        };
        self.cross_out.push(tx);
        self.recompile_port_jump();
        Ok(AsyncRepointUndo {
            client_slot,
            port: port.to_string(),
            cross_ix,
            old,
        })
    }

    /// Rolls back a [`System::repoint_async_to_cross`]: the appended ring
    /// producer is retired (journals replay LIFO, so it is necessarily the
    /// newest `cross_out` entry — truncation cannot disturb ring indices
    /// baked into other compiled slots) and the previous binding state is
    /// restored byte-identically.
    pub(crate) fn restore_async_binding(&mut self, undo: AsyncRepointUndo) {
        debug_assert_eq!(
            undo.cross_ix + 1,
            self.cross_out.len(),
            "async repoint rollback out of journal order"
        );
        self.cross_out.truncate(undo.cross_ix);
        match undo.old {
            OldAsyncBinding::Reified(t) => {
                let m = self.membranes[undo.client_slot]
                    .as_mut()
                    .expect("membrane present outside invocation");
                m.binding.bind(undo.port, t);
                m.binding.compile_jump(&self.port_names);
            }
            OldAsyncBinding::Compiled(h) => {
                let b = self.compiled[undo.client_slot]
                    .iter_mut()
                    .find(|b| b.port.as_ref() == undo.port.as_str())
                    .expect("repointed binding still present");
                b.header = h;
            }
        }
        self.recompile_port_jump();
    }

    /// A structural fingerprint of the reconfigurable state — lifecycle,
    /// domains, areas, scope chains, activation plans, binding tables,
    /// compiled dispatch headers, jump tables, contracts and fault
    /// policies. Deliberately **excludes** traffic state (ledgers,
    /// histograms, ring/buffer contents, supervision counters): a refused
    /// transaction must restore this digest bit-for-bit even though the
    /// quiescence epoch that preceded it legitimately delivered messages.
    /// The reconfiguration suites and the `reconfig-gate` artifact assert
    /// on it.
    #[must_use]
    pub fn structural_digest(&self) -> u64 {
        use std::fmt::Write as _;
        use std::hash::{Hash, Hasher};
        let mut s = String::new();
        for (i, n) in self.nodes.iter().enumerate() {
            let _ = write!(
                s,
                "n{i}:{};{};{};{:?};{};{:?};{:?};{:?}|",
                n.name,
                n.started,
                n.quarantined,
                n.domain_ix,
                n.area_ix,
                n.priority,
                n.ceiling,
                n.scope_chain
            );
        }
        for (i, p) in self.activation_plans.iter().enumerate() {
            let _ = write!(s, "a{i}:{p:?}|");
        }
        for (i, name) in self.port_names.iter().enumerate() {
            let _ = write!(s, "p{i}:{name}|");
        }
        for (i, row) in self.port_jump.iter().enumerate() {
            let _ = write!(s, "j{i}:{row:?}|");
        }
        match self.mode {
            Mode::Soleil => {
                for (i, m) in self.membranes.iter().enumerate() {
                    let Some(m) = m else { continue };
                    for (port, t) in m.binding.entries() {
                        let _ = write!(s, "b{i}:{port}->{t:?}|");
                    }
                }
            }
            Mode::MergeAll => {
                for (i, row) in self.compiled.iter().enumerate() {
                    for b in row {
                        let _ = write!(s, "c{i}:{}:{:?}|", b.port, b.header);
                    }
                }
            }
            Mode::UltraMerge => {
                for (i, r) in self.ultra_ranges.iter().enumerate() {
                    let _ = write!(s, "u{i}:{r:?}|");
                }
            }
        }
        for (i, m) in self.monitors.iter().enumerate() {
            if let Some(m) = m {
                let _ = write!(s, "m{i}:{:?}|", m.contract);
            }
        }
        for (i, sup) in self.supervisors.iter().enumerate() {
            let _ = write!(s, "s{i}:{:?}^{:?}|", sup.policy, sup.supervisor);
        }
        let _ = write!(s, "x:{}|o:{:?}", self.cross_out.len(), self.periodic_order);
        let mut h = std::collections::hash_map::DefaultHasher::new();
        s.hash(&mut h);
        h.finish()
    }

    /// Tears the system down: stops every component (running `on_stop`
    /// hooks) and releases the wedge pins of scoped areas, which reclaims
    /// their storage. The system cannot be used afterwards.
    ///
    /// # Errors
    ///
    /// Substrate errors releasing pins (double shutdown).
    pub fn shutdown(&mut self) -> Result<(), FrameworkError> {
        for slot in 0..self.nodes.len() {
            if let Some(c) = self.nodes[slot].content.as_mut() {
                c.on_stop();
            }
            self.nodes[slot].started = false;
            if let Some(m) = self.membranes.get_mut(slot).and_then(|m| m.as_mut()) {
                m.lifecycle.stop();
            }
        }
        for area in &mut self.areas {
            if let Some(mut pin) = area.controller.take_pin() {
                pin.release(&mut self.mm)?;
            }
        }
        Ok(())
    }

    /// The single SOLEIL-only gate: merged modes have no reified
    /// membranes, so every membrane-level operation refuses with one
    /// consistent message.
    fn require_soleil(&self, what: &str) -> Result<(), FrameworkError> {
        if self.mode != Mode::Soleil {
            return Err(FrameworkError::Unsupported(format!(
                "{what} requires SOLEIL mode (running {})",
                self.mode
            )));
        }
        Ok(())
    }

    /// Membrane-level introspection — SOLEIL mode only, per the paper.
    ///
    /// # Errors
    ///
    /// [`FrameworkError::Unsupported`] in the merged modes.
    pub fn membrane_info(&self, component: &str) -> Result<MembraneInfo, FrameworkError> {
        self.require_soleil("membrane introspection")?;
        let slot = self.slot_ix(component)?;
        self.membrane_info_at(slot)
    }

    /// Slot-indexed membrane introspection (SOLEIL mode only).
    pub(crate) fn membrane_info_at(&self, slot: usize) -> Result<MembraneInfo, FrameworkError> {
        self.require_soleil("membrane introspection")?;
        let m = self.membranes[slot]
            .as_ref()
            .expect("membrane present outside invocation");
        Ok(MembraneInfo {
            component: m.component.clone(),
            started: m.lifecycle.state() == LifecycleState::Started,
            interceptors: m
                .interceptor_names()
                .iter()
                .map(|s| s.to_string())
                .collect(),
            bound_ports: m.binding.ports().iter().map(|s| s.to_string()).collect(),
            plan_fully_compiled: m.plan().is_fully_compiled(),
            plan_fusion: m.plan().fusion(),
        })
    }

    /// The reified deployment spec — SOLEIL keeps it alive for
    /// introspection; merged modes drop it.
    pub fn reified_spec(&self) -> Option<&SystemSpec> {
        self.reified_spec.as_ref()
    }

    // -----------------------------------------------------------------
    // Release engine: timer queue + runtime contracts
    // -----------------------------------------------------------------

    /// The engine's virtual release clock (advanced by `run_tick` /
    /// [`advance_clock_to`](Self::advance_clock_to)).
    pub fn clock(&self) -> AbsoluteTime {
        self.clock
    }

    /// The clock advance per `run_tick` (fastest periodic period).
    pub fn tick_quantum(&self) -> RelativeTime {
        self.tick_quantum
    }

    /// Currently armed (scheduled, unfired, uncancelled) timers.
    pub fn armed_timers(&self) -> usize {
        self.timers.armed()
    }

    /// Preallocated timer-queue capacity.
    pub fn timer_capacity(&self) -> usize {
        self.timers.capacity()
    }

    /// Schedules an extra release of the periodic component in `slot` at
    /// absolute engine time `at` (fires during the first tick whose clock
    /// reaches `at`, before the regular periodic releases; ties across
    /// timers break by component priority, then schedule order).
    ///
    /// # Errors
    ///
    /// [`FrameworkError::Timer`] when the slot is not periodic or the
    /// preallocated queue is full; [`FrameworkError::Content`] for a bad
    /// slot.
    pub fn schedule_release(
        &mut self,
        slot: usize,
        at: AbsoluteTime,
    ) -> Result<TimerHandle, FrameworkError> {
        let plan = self
            .activation_plans
            .get(slot)
            .ok_or_else(|| FrameworkError::Content(format!("bad slot {slot}")))?;
        if plan.release_ix == u16::MAX {
            return Err(FrameworkError::Timer(format!(
                "component '{}' is not periodic: scheduled releases need a {RELEASE_PORT} port",
                self.nodes[slot].name
            )));
        }
        let priority = self.nodes[slot].priority;
        self.timers.schedule(at, priority, slot as u32)
    }

    /// Cancels a scheduled release; `false` when the handle is stale
    /// (already fired or cancelled).
    pub fn cancel_release(&mut self, handle: TimerHandle) -> bool {
        self.timers.cancel(handle)
    }

    /// Advances the clock to `now` (monotonic; earlier instants only fire
    /// what is already due) and fires every due timer. Returns the number
    /// of releases fired.
    ///
    /// # Errors
    ///
    /// The first failing fired transaction aborts the advance.
    pub fn advance_clock_to(&mut self, now: AbsoluteTime) -> Result<u64, FrameworkError> {
        self.clock = self.clock.max(now);
        let before = self.stats.timer_fires;
        self.fire_due_timers()?;
        Ok(self.stats.timer_fires - before)
    }

    /// Fires every timer due at the current clock, most urgent first, each
    /// as a full run-to-completion transaction (release + sync nest +
    /// async cascade), exactly like a periodic release.
    fn fire_due_timers(&mut self) -> Result<(), FrameworkError> {
        while let Some(fired) = self.timers.pop_due(self.clock) {
            // Supervised-restart timers share the queue with releases,
            // distinguished by the payload's tag bit.
            if fired.payload & RESTART_TAG != 0 {
                self.stats.timer_fires += 1;
                let slot = (fired.payload & !RESTART_TAG) as usize;
                self.supervisors[slot].restart_timer = None;
                self.restart_subtree(slot)?;
                continue;
            }
            let slot = fired.payload as usize;
            let plan = self.activation_plans[slot];
            debug_assert_ne!(plan.release_ix, u16::MAX, "schedule checked periodicity");
            self.stats.timer_fires += 1;
            // A release scheduled before the quarantine is suppressed and
            // counted, like the periodic path.
            if plan.quarantined {
                self.supervisors[slot].suppressed_releases += 1;
                continue;
            }
            self.run_release(slot, plan)?;
        }
        Ok(())
    }

    /// Attaches a timing contract to `slot` (any mode — contracts are
    /// engine-level observability, not membrane reconfiguration), building
    /// its allocation-free latency monitor and compiling the monitor index
    /// into the slot's activation plan. Returns the previously attached
    /// contract state, if any (the reconfiguration journal's undo token).
    ///
    /// # Errors
    ///
    /// [`FrameworkError::Content`] for a bad slot.
    pub(crate) fn attach_contract_at(
        &mut self,
        slot: usize,
        contract: TimingContract,
    ) -> Result<Option<Box<MonitorSlot>>, FrameworkError> {
        if slot >= self.nodes.len() || slot >= usize::from(u16::MAX) {
            return Err(FrameworkError::Content(format!("bad slot {slot}")));
        }
        let monitor = LatencyMonitor::new(
            contract.deadline().map(RelativeTime::as_nanos),
            contract.max_jitter().map(RelativeTime::as_nanos),
        );
        let prev = self.monitors[slot].replace(Box::new(MonitorSlot { contract, monitor }));
        self.activation_plans[slot].monitor_ix = slot as u16;
        Ok(prev)
    }

    /// Detaches `slot`'s timing contract, restoring the pay-nothing
    /// sentinel in its activation plan. Returns the detached state (with
    /// its full histogram) so a journal can restore it byte-identically.
    pub(crate) fn detach_contract_at(&mut self, slot: usize) -> Option<Box<MonitorSlot>> {
        let prev = self.monitors[slot].take();
        if prev.is_some() {
            self.activation_plans[slot].monitor_ix = u16::MAX;
        }
        prev
    }

    /// Puts back contract state captured by
    /// [`attach_contract_at`](Self::attach_contract_at) /
    /// [`detach_contract_at`](Self::detach_contract_at) — the rollback
    /// half of journaled contract operations.
    pub(crate) fn restore_contract_at(&mut self, slot: usize, previous: Option<Box<MonitorSlot>>) {
        self.activation_plans[slot].monitor_ix = if previous.is_some() {
            slot as u16
        } else {
            u16::MAX
        };
        self.monitors[slot] = previous;
    }

    /// The timing contract attached to `slot`, if any.
    pub(crate) fn contract_at(&self, slot: usize) -> Option<&TimingContract> {
        self.monitors
            .get(slot)
            .and_then(|m| m.as_deref())
            .map(|m| &m.contract)
    }

    /// A snapshot of `slot`'s latency monitor, if a contract is attached.
    pub(crate) fn latency_snapshot_at(&self, slot: usize) -> Option<LatencySnapshot> {
        self.monitors
            .get(slot)
            .and_then(|m| m.as_deref())
            .map(|m| m.monitor.snapshot())
    }

    /// Deadline misses observed across every monitored component.
    pub fn deadline_misses(&self) -> u64 {
        self.monitors
            .iter()
            .flatten()
            .map(|m| m.monitor.deadline_misses())
            .sum()
    }

    /// Checks every attached contract against its monitor's observations
    /// and folds the verdicts into one report — the runtime counterpart of
    /// design-time validation (violations carry codes SOL-016…SOL-019; a
    /// compliant report means every contract holds).
    pub fn contract_report(&self) -> ValidationReport {
        let mut report = ValidationReport::default();
        for (slot, entry) in self.monitors.iter().enumerate() {
            let Some(m) = entry.as_deref() else { continue };
            let snap = m.monitor.snapshot();
            let obs = ContractObservation {
                component: self.nodes[slot].name.clone(),
                activations: snap.activations,
                deadline_misses: snap.deadline_misses,
                jitter_violations: snap.jitter_violations,
                observed_hz: snap.observed_hz,
                quantiles_ns: m
                    .contract
                    .quantile_bounds()
                    .iter()
                    .map(|&(pct, _)| (pct, m.monitor.quantile_ns(pct)))
                    .collect(),
            };
            report.merge(m.contract.verdict(&obs));
        }
        report
    }

    // -----------------------------------------------------------------
    // Fault containment & supervision
    // -----------------------------------------------------------------

    /// Routes a transaction error through the faulting component's fault
    /// policy: typed [`FrameworkError::Faulted`] errors are attributed by
    /// the component name they carry (no string parsing) and contained,
    /// restarted, or escalated per policy; every other error keeps the
    /// pre-supervision escalate behavior. Cold by construction — the
    /// healthy path never reaches here.
    fn handle_fault(&mut self, e: FrameworkError) -> Result<(), FrameworkError> {
        let FrameworkError::Faulted {
            component, kind, ..
        } = &e
        else {
            return Err(e);
        };
        // A drop fault is pure accounting: the message (or release) was
        // refused and counted; nothing is broken.
        if *kind == FaultKind::Drop {
            self.stats.dropped_messages += 1;
            return Ok(());
        }
        let Some(slot) = self.nodes.iter().position(|n| n.name == *component) else {
            return Err(e);
        };
        self.contain_fault(slot, e)
    }

    /// Applies supervision to a fault attributed to `origin`.
    ///
    /// The escalation walks **up the declared supervision tree**: starting
    /// at the faulting slot, every `Escalate` policy hands the fault to
    /// the slot's declared supervisor until a slot with a containing
    /// policy (`Isolate` / `Restart`) is found — the **handler**. The
    /// handler applies its policy to the **failed subtree**: the subtree
    /// rooted at its child branch the fault escalated through (`scope`),
    /// so the handler itself and its other child branches keep running.
    /// With no tree declared the handler is the origin and the subtree is
    /// just the origin — exactly the flat pre-tree semantics. When every
    /// slot on the path escalates past the root, the fault aborts to the
    /// caller, preserving the original root-escalation semantics.
    fn contain_fault(&mut self, origin: usize, e: FrameworkError) -> Result<(), FrameworkError> {
        let (scope, handler) = {
            let mut scope = origin;
            let mut hops = 0usize;
            loop {
                if self.supervisors[scope].policy != FaultPolicy::Escalate {
                    // The failed slot (or branch root) contains itself.
                    break (scope, scope);
                }
                let Some(up) = self.supervisors[scope].supervisor else {
                    return Err(e); // root escalation: today's abort semantics
                };
                let up = up as usize;
                hops += 1;
                if hops > self.supervisors.len() {
                    // Cycles are refused at declaration; never spin anyway.
                    return Err(e);
                }
                if self.supervisors[up].policy != FaultPolicy::Escalate {
                    // `up` supervises the failed branch rooted at `scope`.
                    break (scope, up);
                }
                scope = up;
            }
        };
        // Quarantine the failed subtree: the origin records the fault
        // itself; every other member is taken down *with* it (counted
        // drops at their gates), un-poisoned — their state is intact, the
        // handler merely recovers them as one unit.
        self.quarantine_slot(origin, &e);
        self.stats.faults_contained += 1;
        let subtree = self.subtree_slots(scope);
        if handler != origin {
            let handler_name = self.nodes[handler].name.clone();
            let origin_name = self.nodes[origin].name.clone();
            for &s in &subtree {
                if s != origin && !self.supervisors[s].quarantined {
                    self.quarantine_flags(
                        s,
                        false,
                        format!(
                            "subtree quarantined by supervisor '{handler_name}' \
                             containing a fault in '{origin_name}'"
                        ),
                    );
                }
            }
            self.supervisors[handler].escalation_path =
                Some(self.supervision_path_string(origin, handler));
        }
        match self.supervisors[handler].policy {
            FaultPolicy::Escalate => unreachable!("walk exits on a containing policy"),
            FaultPolicy::Isolate => Ok(()),
            FaultPolicy::Restart {
                max_restarts,
                window,
                backoff,
            } => {
                // Budget, backoff and the sliding window belong to the
                // *handler* — its policy is what is being applied — while
                // the armed timer is tracked on the subtree root it will
                // restart, so a stop / manual restart / policy rollback of
                // that root disarms it exactly like a flat restart.
                if self.clock.since(self.supervisors[handler].window_start) >= window {
                    let sup = &mut self.supervisors[handler];
                    sup.window_start = self.clock;
                    sup.restarts_in_window = 0;
                    sup.attempt = 0;
                }
                if self.supervisors[handler].restarts_in_window >= max_restarts {
                    self.supervisors[handler].budget_exhausted = true;
                    return Err(e);
                }
                let attempt = self.supervisors[handler].attempt;
                let delay = backoff * (1u64 << attempt.min(MAX_BACKOFF_SHIFT));
                let at = self.clock.saturating_add(delay);
                let priority = self.nodes[handler].priority;
                {
                    let sup = &mut self.supervisors[handler];
                    sup.restarts_in_window += 1;
                    sup.attempt += 1;
                }
                if self.supervisors[scope].restart_timer.is_none() {
                    let handle = self
                        .timers
                        .schedule(at, priority, scope as u32 | RESTART_TAG)?;
                    self.supervisors[scope].restart_timer = Some(handle);
                }
                Ok(())
            }
        }
    }

    /// Quarantines `slot`: the hot-path flags flip, the membrane (SOLEIL)
    /// is quarantined — poisoned for panic faults, whose unwind may have
    /// left half-mutated state — and the cold supervisor record keeps the
    /// fault detail for [`health_report`](Self::health_report).
    fn quarantine_slot(&mut self, slot: usize, fault: &FrameworkError) {
        let poison = matches!(
            fault,
            FrameworkError::Faulted {
                kind: FaultKind::Panic,
                ..
            }
        );
        self.quarantine_flags(slot, poison, fault.to_string());
        self.supervisors[slot].faults += 1;
    }

    /// The flag half of a quarantine, shared by the faulting slot and the
    /// rest of its failed subtree: hot-path plan + node flags flip, the
    /// membrane (SOLEIL) is quarantined — poisoned when `poison` — and the
    /// cold supervisor record keeps the detail. Fault *counting* is the
    /// caller's business: subtree members taken down alongside a faulting
    /// sibling did not themselves fault.
    fn quarantine_flags(&mut self, slot: usize, poison: bool, detail: String) {
        self.activation_plans[slot].quarantined = true;
        self.nodes[slot].quarantined = true;
        if let Some(m) = self.membranes.get_mut(slot).and_then(|m| m.as_mut()) {
            m.quarantine(poison);
        }
        let sup = &mut self.supervisors[slot];
        sup.quarantined = true;
        sup.poisoned = poison;
        sup.fault_detail = Some(detail);
    }

    /// The slots of the subtree rooted at `root` in the declared
    /// supervision tree: `root` plus every slot whose supervisor chain
    /// reaches it. Cold path (fault handling / subtree restart) — the
    /// healthy steady state never walks the tree.
    fn subtree_slots(&self, root: usize) -> Vec<usize> {
        let mut out = vec![root];
        for s in 0..self.supervisors.len() {
            if s == root {
                continue;
            }
            let mut cur = self.supervisors[s].supervisor;
            let mut hops = 0usize;
            while let Some(up) = cur {
                if up as usize == root {
                    out.push(s);
                    break;
                }
                hops += 1;
                if hops > self.supervisors.len() {
                    break;
                }
                cur = self.supervisors[up as usize].supervisor;
            }
        }
        out
    }

    /// Renders the escalation path `origin -> … -> handler` through the
    /// declared supervisor edges (the SOL-023 verdict subject).
    fn supervision_path_string(&self, origin: usize, handler: usize) -> String {
        let mut path = self.nodes[origin].name.clone();
        let mut cur = origin;
        let mut hops = 0usize;
        while cur != handler && hops <= self.supervisors.len() {
            let Some(up) = self.supervisors[cur].supervisor else {
                break;
            };
            cur = up as usize;
            hops += 1;
            path.push_str(" -> ");
            path.push_str(&self.nodes[cur].name);
        }
        path
    }

    /// Restarts a quarantined `slot` with a **fresh content instance** from
    /// the factory captured at build: flags clear, the membrane's poison
    /// and transient interceptor state reset, `on_start` runs. Idempotent —
    /// a restart timer firing after a manual restart is a no-op.
    ///
    /// # Errors
    ///
    /// [`FrameworkError::Content`] for a bad slot.
    pub(crate) fn restart_slot(&mut self, slot: usize) -> Result<(), FrameworkError> {
        if slot >= self.nodes.len() {
            return Err(FrameworkError::Content(format!("bad slot {slot}")));
        }
        if !self.supervisors[slot].quarantined {
            return Ok(());
        }
        // Warm-state handoff, capture half: a checkpoint-enabled slot
        // checkpoints the *outgoing* instance at the activation boundary —
        // unless the membrane is poisoned (a panic may have left
        // half-mutated state), in which case the last healthy cadence
        // image is the only trustworthy source.
        let poisoned = self.supervisors[slot].poisoned;
        if self.activation_plans[slot].checkpoint_ix != u16::MAX && !poisoned {
            if let (Some(cp), Some(c)) = (
                self.checkpoints[slot].as_deref_mut(),
                self.nodes[slot].content.as_deref(),
            ) {
                // The boundary capture of a *healthy* fault is by
                // definition the freshest healthy state: it becomes the
                // new healthy image (swap, so overflow cannot clobber it).
                cp.boundary.clear();
                let ok = c.checkpoint(&mut cp.boundary);
                cp.overflowed |= cp.boundary.overflowed();
                if ok && !cp.boundary.overflowed() {
                    std::mem::swap(&mut cp.image, &mut cp.boundary);
                    cp.valid = true;
                    cp.captures += 1;
                }
            }
        }
        // Fresh instance, same class: the original deploy-time state
        // charge stands (same content class, same `state_bytes`), so no
        // re-charge against the area budget.
        let node = &mut self.nodes[slot];
        node.content = Some((self.factories[slot])());
        node.busy = false;
        node.quarantined = false;
        node.started = true;
        self.activation_plans[slot].quarantined = false;
        if let Some(m) = self.membranes.get_mut(slot).and_then(|m| m.as_mut()) {
            m.restart();
        }
        if let Some(c) = self.nodes[slot].content.as_mut() {
            c.on_start();
        }
        // Warm-state handoff, restore half: the fresh instance starts,
        // then the last healthy image is installed (just captured at the
        // boundary for healthy faults; the last cadence capture when the
        // membrane was poisoned).
        if self.activation_plans[slot].checkpoint_ix != u16::MAX {
            let System {
                nodes, checkpoints, ..
            } = self;
            if let (Some(cp), Some(c)) = (
                checkpoints[slot].as_deref_mut(),
                nodes[slot].content.as_deref_mut(),
            ) {
                if cp.valid {
                    c.restore(&cp.image);
                    cp.restores += 1;
                }
                cp.since_capture = 0;
            }
        }
        let sup = &mut self.supervisors[slot];
        sup.quarantined = false;
        sup.poisoned = false;
        sup.fault_detail = None;
        sup.restarts += 1;
        // A manual restart landing before the backoff expires supersedes
        // the armed timer; the restart path is idempotent, but the stale
        // fire would double-count `timer_fires` and could revive a slot
        // re-quarantined in between.
        self.cancel_restart_timer(slot);
        Ok(())
    }

    /// Restarts the quarantined members of the subtree rooted at `root` as
    /// **one unit** — the supervised-restart timer's fire path. Healthy
    /// members (restarted manually in the meantime) are skipped; the
    /// degenerate flat case (no tree) restarts exactly the one slot.
    ///
    /// # Errors
    ///
    /// The first failing member restart aborts the sweep.
    pub(crate) fn restart_subtree(&mut self, root: usize) -> Result<(), FrameworkError> {
        if root >= self.nodes.len() {
            return Err(FrameworkError::Content(format!("bad slot {root}")));
        }
        for slot in self.subtree_slots(root) {
            if self.supervisors[slot].quarantined {
                self.restart_slot(slot)?;
            }
        }
        Ok(())
    }

    /// Declares `slot`'s fault policy, returning the previous one (the
    /// reconfiguration journal's undo token). Allowed in **every** mode —
    /// supervision is engine-level observability-and-recovery machinery
    /// like timing contracts, not structural reconfiguration, so even
    /// ULTRA-MERGE systems can be supervised.
    ///
    /// # Errors
    ///
    /// [`FrameworkError::Content`] for a bad slot.
    pub(crate) fn set_fault_policy_at(
        &mut self,
        slot: usize,
        policy: FaultPolicy,
    ) -> Result<FaultPolicy, FrameworkError> {
        if slot >= self.nodes.len() {
            return Err(FrameworkError::Content(format!("bad slot {slot}")));
        }
        let prev = self.supervisors[slot].policy;
        if prev != policy {
            // The old policy's pending restart must not fire under the new
            // one: rollback restores policies through this same path, so a
            // rolled-back `Restart` policy disarms its timer automatically.
            self.cancel_restart_timer(slot);
        }
        self.supervisors[slot].policy = policy;
        Ok(prev)
    }

    /// Declares (or clears, with `None`) `slot`'s supervisor in the
    /// supervision tree, returning the previous edge. Validity and cycle
    /// checks run eagerly: the supervisor must be a real slot, must not be
    /// the component itself, and walking up from the proposed supervisor
    /// must not reach the component — a cycle would turn escalation into
    /// a spin. Allowed in every mode (engine-level supervision, like fault
    /// policies).
    ///
    /// # Errors
    ///
    /// [`FrameworkError::Content`] for bad slots, self-supervision, or a
    /// supervisor edge that would close a cycle.
    pub(crate) fn set_supervisor_at(
        &mut self,
        slot: usize,
        supervisor: Option<usize>,
    ) -> Result<Option<usize>, FrameworkError> {
        if slot >= self.nodes.len() {
            return Err(FrameworkError::Content(format!("bad slot {slot}")));
        }
        if let Some(sup) = supervisor {
            if sup >= self.nodes.len() {
                return Err(FrameworkError::Content(format!(
                    "bad supervisor slot {sup}"
                )));
            }
            if sup == slot {
                return Err(FrameworkError::Content(format!(
                    "component '{}' cannot supervise itself",
                    self.nodes[slot].name
                )));
            }
            // Walk up from the proposed supervisor: reaching `slot` means
            // the new edge would close a cycle.
            let mut cur = Some(sup as u32);
            let mut hops = 0usize;
            while let Some(up) = cur {
                if up as usize == slot {
                    return Err(FrameworkError::Content(format!(
                        "supervision cycle: '{}' is (transitively) supervised by '{}'",
                        self.nodes[sup].name, self.nodes[slot].name
                    )));
                }
                hops += 1;
                if hops > self.supervisors.len() {
                    break;
                }
                cur = self.supervisors[up as usize].supervisor;
            }
        }
        let prev = self.supervisors[slot].supervisor.map(|s| s as usize);
        self.supervisors[slot].supervisor = supervisor.map(|s| s as u32);
        Ok(prev)
    }

    /// `slot`'s declared supervisor, if any.
    pub(crate) fn supervisor_of_at(&self, slot: usize) -> Option<usize> {
        self.supervisors
            .get(slot)
            .and_then(|s| s.supervisor)
            .map(|s| s as usize)
    }

    /// Commit-time re-validation of the whole supervision tree: every edge
    /// names a real slot and no cycle exists. Eager checks in
    /// [`set_supervisor_at`](Self::set_supervisor_at) make this
    /// unreachable in practice; transactional commits re-assert it anyway,
    /// like the RTSJ rules.
    ///
    /// # Errors
    ///
    /// [`FrameworkError::Content`] naming the first broken edge.
    pub(crate) fn check_supervision(&self) -> Result<(), FrameworkError> {
        for slot in 0..self.supervisors.len() {
            let mut cur = self.supervisors[slot].supervisor;
            let mut hops = 0usize;
            while let Some(up) = cur {
                let up = up as usize;
                if up >= self.supervisors.len() {
                    return Err(FrameworkError::Content(format!(
                        "supervision edge of '{}' names bad slot {up}",
                        self.nodes[slot].name
                    )));
                }
                if up == slot {
                    return Err(FrameworkError::Content(format!(
                        "supervision cycle through '{}'",
                        self.nodes[slot].name
                    )));
                }
                hops += 1;
                if hops > self.supervisors.len() {
                    return Err(FrameworkError::Content(format!(
                        "supervision cycle reachable from '{}'",
                        self.nodes[slot].name
                    )));
                }
                cur = self.supervisors[up].supervisor;
            }
        }
        Ok(())
    }

    /// The rendered escalation path of the last fault `slot` contained as
    /// a supervisor (`None` until an escalation walked through it).
    pub(crate) fn escalation_path_at(&self, slot: usize) -> Option<String> {
        self.supervisors
            .get(slot)
            .and_then(|s| s.escalation_path.clone())
    }

    /// Enables the warm-state **Checkpoint capability** for `slot`: probes
    /// the live content instance (it must implement
    /// [`Content::checkpoint`]), preallocates the two state images at the
    /// instance's `state_bytes` bound, and compiles the checkpoint index
    /// into the slot's activation plan. The initial probe doubles as the
    /// first healthy capture. Captures then run every `cadence` successful
    /// activations and at supervised-restart boundaries, never allocating.
    ///
    /// Returns the bytes to charge against the component's allocation
    /// area (both images) — callers make that charge, deferred or
    /// immediate, through the usual monotonic accounting.
    ///
    /// # Errors
    ///
    /// [`FrameworkError::Content`] for a bad slot, a zero cadence, or
    /// content that does not implement the capability.
    pub(crate) fn enable_checkpoint_at(
        &mut self,
        slot: usize,
        cadence: u32,
    ) -> Result<usize, FrameworkError> {
        if slot >= self.nodes.len() || slot >= usize::from(u16::MAX) {
            return Err(FrameworkError::Content(format!("bad slot {slot}")));
        }
        if cadence == 0 {
            return Err(FrameworkError::Content(
                "checkpoint cadence must be at least 1 activation".into(),
            ));
        }
        let Some(content) = self.nodes[slot].content.as_deref() else {
            return Err(FrameworkError::Content(format!(
                "component '{}' has no content instance",
                self.nodes[slot].name
            )));
        };
        let limit = content.state_bytes().max(1);
        let mut image = StateImage::with_limit(limit);
        if !content.checkpoint(&mut image) {
            return Err(FrameworkError::Content(format!(
                "content of '{}' does not implement the Checkpoint capability \
                 (Content::checkpoint returned false)",
                self.nodes[slot].name
            )));
        }
        let valid = !image.overflowed();
        let boundary = StateImage::with_limit(limit);
        self.checkpoints[slot] = Some(Box::new(CheckpointSlot {
            overflowed: image.overflowed(),
            image,
            boundary,
            cadence,
            since_capture: 0,
            valid,
            captures: u64::from(valid),
            restores: 0,
        }));
        self.activation_plans[slot].checkpoint_ix = slot as u16;
        Ok(2 * limit)
    }

    /// True when the Checkpoint capability is enabled for `slot`.
    pub(crate) fn checkpoint_enabled_at(&self, slot: usize) -> bool {
        self.checkpoints.get(slot).is_some_and(|c| c.is_some())
    }

    /// `(captures, restores)` of `slot`'s checkpoint storage, if enabled.
    pub(crate) fn checkpoint_counts_at(&self, slot: usize) -> Option<(u64, u64)> {
        self.checkpoints
            .get(slot)
            .and_then(|c| c.as_deref())
            .map(|c| (c.captures, c.restores))
    }

    /// Tears the Checkpoint capability back out of `slot` — the error path
    /// of an enable whose substrate charge was refused. The activation
    /// plan's checkpoint index reverts to the disabled sentinel, so the
    /// healthy path pays its single compare again.
    pub(crate) fn disable_checkpoint_at(&mut self, slot: usize) {
        if slot < self.checkpoints.len() {
            self.checkpoints[slot] = None;
            self.activation_plans[slot].checkpoint_ix = u16::MAX;
        }
    }

    /// The runtime-area index a slot's allocation region currently lives
    /// in (checkpoint images are charged against it).
    pub(crate) fn area_ix_at(&self, slot: usize) -> usize {
        self.nodes[slot].area_ix
    }

    /// The cadence gate behind `ActivationPlan::checkpoint_ix`: counts one
    /// successful activation and, every `cadence` of them, captures the
    /// live state into the preallocated healthy image. Off-cadence
    /// activations cost one increment and one compare; on-cadence captures
    /// reuse the image storage — no allocation either way.
    fn cadence_checkpoint(&mut self, slot: usize) {
        let Some(cp) = self.checkpoints[slot].as_deref_mut() else {
            return;
        };
        cp.since_capture += 1;
        if cp.since_capture < cp.cadence {
            return;
        }
        cp.since_capture = 0;
        if let Some(c) = self.nodes[slot].content.as_deref() {
            // Capture into the scratch image and swap on success, so an
            // overflowing capture never clobbers the last healthy image.
            cp.boundary.clear();
            let ok = c.checkpoint(&mut cp.boundary);
            cp.overflowed |= cp.boundary.overflowed();
            if ok && !cp.boundary.overflowed() {
                std::mem::swap(&mut cp.image, &mut cp.boundary);
                cp.valid = true;
                cp.captures += 1;
            }
        }
    }

    /// The fault policy declared for `slot`.
    pub(crate) fn fault_policy_at(&self, slot: usize) -> FaultPolicy {
        self.supervisors
            .get(slot)
            .map(|s| s.policy)
            .unwrap_or_default()
    }

    /// True while `slot` is quarantined by its fault policy.
    pub(crate) fn quarantined_at(&self, slot: usize) -> bool {
        self.supervisors.get(slot).is_some_and(|s| s.quarantined)
    }

    /// Installs an engine-level deterministic fault injector at `slot`'s
    /// activation boundary (any mode — it fires before mode-specific
    /// dispatch), returning the previous injector. An idle injector
    /// (`rate == 0`) costs the boundary one integer compare and one
    /// pointer swap, nothing more — it can stay compiled into a
    /// production deployment.
    ///
    /// # Errors
    ///
    /// [`FrameworkError::Content`] for a bad slot.
    pub(crate) fn install_fault_injector_at(
        &mut self,
        slot: usize,
        injector: FaultInjector,
    ) -> Result<Option<Box<FaultInjector>>, FrameworkError> {
        if slot >= self.nodes.len() || slot >= usize::from(u16::MAX) {
            return Err(FrameworkError::Content(format!("bad slot {slot}")));
        }
        let prev = self.injectors[slot].replace(Box::new(injector));
        self.activation_plans[slot].fault_ix = slot as u16;
        Ok(prev)
    }

    /// Removes `slot`'s engine-level fault injector, restoring the
    /// pay-nothing sentinel.
    pub(crate) fn remove_fault_injector_at(&mut self, slot: usize) -> Option<Box<FaultInjector>> {
        let prev = self.injectors.get_mut(slot).and_then(|i| i.take());
        if prev.is_some() {
            self.activation_plans[slot].fault_ix = u16::MAX;
        }
        prev
    }

    /// `(activations, injected)` counters of `slot`'s engine-level
    /// injector, if one is installed.
    pub(crate) fn injector_counts_at(&self, slot: usize) -> Option<(u64, u64)> {
        self.injectors
            .get(slot)
            .and_then(|i| i.as_deref())
            .map(|fi| (fi.activations(), fi.injected()))
    }

    /// Supervision counters of `slot`:
    /// `(faults contained, restarts, suppressed releases)`.
    pub(crate) fn supervision_counts_at(&self, slot: usize) -> (u64, u64, u64) {
        self.supervisors
            .get(slot)
            .map(|s| (s.faults, s.restarts, s.suppressed_releases))
            .unwrap_or_default()
    }

    /// The full runtime health report: every contract verdict
    /// ([`contract_report`](Self::contract_report), codes SOL-016…019)
    /// plus the supervision findings — SOL-020 for each quarantined
    /// component (with the contained fault and suppressed-release count),
    /// SOL-021 for each exhausted restart budget, SOL-022 when messages
    /// were counted-dropped at quarantine gates, SOL-023 naming the
    /// supervision path of each fault that escalated through the declared
    /// tree. A compliant report means every contract holds and no
    /// component is sick (SOL-022/023 are warnings: history, not
    /// sickness).
    pub fn health_report(&self) -> ValidationReport {
        let mut report = self.contract_report();
        for (slot, sup) in self.supervisors.iter().enumerate() {
            if sup.quarantined {
                report.append(Diagnostic {
                    code: "SOL-020",
                    severity: Severity::Error,
                    subject: self.nodes[slot].name.clone(),
                    message: format!(
                        "component quarantined after a contained fault ({}); {} release(s) suppressed",
                        sup.fault_detail.as_deref().unwrap_or("unknown fault"),
                        sup.suppressed_releases
                    ),
                    suggestion: Some(
                        "restart the component (a supervised restart installs a fresh \
                         content instance and clears membrane poison) or fix the fault"
                            .into(),
                    ),
                });
            }
            if let Some(path) = &sup.escalation_path {
                let policy = match sup.policy {
                    FaultPolicy::Escalate => "escalate",
                    FaultPolicy::Isolate => "isolate",
                    FaultPolicy::Restart { .. } => "restart",
                };
                report.append(Diagnostic {
                    code: "SOL-023",
                    severity: Severity::Warning,
                    subject: self.nodes[slot].name.clone(),
                    message: format!(
                        "fault escalated along supervision path {path}; \
                         the failed subtree was handled by this supervisor's {policy} policy"
                    ),
                    suggestion: Some(
                        "escalation through the declared tree is working as configured; \
                         inspect the origin component's fault if escalations recur"
                            .into(),
                    ),
                });
            }
            if sup.budget_exhausted {
                report.append(Diagnostic {
                    code: "SOL-021",
                    severity: Severity::Error,
                    subject: self.nodes[slot].name.clone(),
                    message: format!(
                        "restart budget exhausted after {} fault(s); the last fault escalated",
                        sup.faults
                    ),
                    suggestion: Some(
                        "widen the Restart policy's window/budget or fix the recurring fault"
                            .into(),
                    ),
                });
            }
        }
        if self.stats.quarantine_drops > 0 {
            report.append(Diagnostic {
                code: "SOL-022",
                severity: Severity::Warning,
                subject: self.name.clone(),
                message: format!(
                    "{} message(s) to quarantined components were counted-dropped",
                    self.stats.quarantine_drops
                ),
                suggestion: Some(
                    "the drops are accounted in EngineStats::quarantine_drops; restart the \
                     quarantined consumers to resume delivery"
                        .into(),
                ),
            });
        }
        report
    }

    // -----------------------------------------------------------------
    // Footprint (Fig. 7(c))
    // -----------------------------------------------------------------

    /// Builds the footprint report: per-area substrate consumption, the
    /// framework machinery bytes of the active mode, and the
    /// mode-independent release-engine bytes (timer slots + monitors)
    /// reported in their own bucket so the Fig. 7(c) mode comparison
    /// stays a comparison of *generated* machinery.
    pub fn footprint(&self) -> FootprintReport {
        let framework_bytes = match self.mode {
            Mode::Soleil => {
                let membranes: usize = self
                    .membranes
                    .iter()
                    .flatten()
                    .map(|m| m.footprint_bytes())
                    .sum();
                let interceptors: usize = self
                    .mem_interceptors
                    .iter()
                    .flatten()
                    .map(|i| std::mem::size_of_val(i) + 32)
                    .sum();
                let spec = self
                    .reified_spec
                    .as_ref()
                    .map(|s| s.metadata_bytes())
                    .unwrap_or(0);
                membranes + interceptors + spec + self.dispatch_plan_bytes()
            }
            Mode::MergeAll => {
                self.compiled
                    .iter()
                    .map(|v| {
                        std::mem::size_of::<Vec<CompiledBinding>>()
                            + v.iter()
                                .map(|b| std::mem::size_of::<CompiledBinding>() + b.port.len())
                                .sum::<usize>()
                    })
                    .sum::<usize>()
                    + self.dispatch_plan_bytes()
            }
            Mode::UltraMerge => {
                self.ultra_table
                    .iter()
                    .map(|b| std::mem::size_of::<CompiledBinding>() + b.port.len())
                    .sum::<usize>()
                    + self.ultra_ranges.len() * std::mem::size_of::<(u32, u32)>()
                    + self.dispatch_plan_bytes()
            }
        };
        // Release engine + supervision: preallocated timer slots, attached
        // contract monitors, per-slot supervisor records and any installed
        // fault injectors — identical in every mode, so charged to the
        // dedicated bucket rather than the per-mode framework figure.
        let release_engine_bytes = self.timers.footprint_bytes()
            + self
                .monitors
                .iter()
                .flatten()
                .map(|m| m.monitor.footprint_bytes() + std::mem::size_of::<TimingContract>())
                .sum::<usize>()
            + self.supervisors.len() * std::mem::size_of::<SupervisorSlot>()
            + self
                .injectors
                .iter()
                .flatten()
                .map(|fi| fi.footprint_bytes())
                .sum::<usize>()
            + self
                .checkpoints
                .iter()
                .flatten()
                .map(|c| {
                    std::mem::size_of::<CheckpointSlot>()
                        + c.image.footprint_bytes()
                        + c.boundary.footprint_bytes()
                })
                .sum::<usize>();
        FootprintReport::collect(
            self.mode.to_string(),
            &self.mm,
            self.areas.iter().map(|a| (a.name.clone(), a.id)).collect(),
            framework_bytes,
            release_engine_bytes,
        )
    }

    /// Bytes of the mode-independent dispatch plan: the intern universe,
    /// the per-slot jump tables, the flattened scope-path arena and the
    /// per-slot activation plans (charged to every mode's framework
    /// footprint; SOLEIL's membrane jump tables are counted inside each
    /// membrane instead of in `port_jump`).
    fn dispatch_plan_bytes(&self) -> usize {
        self.port_names
            .iter()
            .map(|n| n.len() + std::mem::size_of::<Box<str>>())
            .sum::<usize>()
            + self
                .port_jump
                .iter()
                .map(|j| std::mem::size_of::<Box<[u32]>>() + std::mem::size_of_val::<[u32]>(j))
                .sum::<usize>()
            + self.enter_arena.len() * std::mem::size_of::<AreaId>()
            + self.activation_plans.len() * std::mem::size_of::<ActivationPlan>()
    }
}

/// Renders a caught panic payload for the typed fault's detail text:
/// `panic!` string payloads pass through, anything else gets a stable
/// placeholder (payload types are open-ended).
fn panic_detail(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

fn port_index<P: Payload>(node: &Node<P>, port: &str) -> Result<u16, FrameworkError> {
    node.server_ports
        .iter()
        .position(|p| p.as_ref() == port)
        .map(|i| i as u16)
        .ok_or_else(|| {
            FrameworkError::Binding(format!(
                "component '{}' has no server port '{port}'",
                node.name
            ))
        })
}

// ---------------------------------------------------------------------------
// Ports façades
// ---------------------------------------------------------------------------

struct SoleilPorts<'a, P: Payload> {
    sys: &'a mut System<P>,
    membrane: &'a mut Membrane,
    ctx: &'a mut MemoryContext,
}

impl<P: Payload> SoleilPorts<'_, P> {
    /// The shared synchronous body behind both resolution paths: routing
    /// scalars in, gate/interceptor choreography around the invoke.
    fn call_sync(
        &mut self,
        target_slot: usize,
        server_port_ix: u16,
        binding_ix: usize,
        msg: &mut P,
    ) -> Result<(), FrameworkError> {
        self.sys.stats.sync_calls += 1;
        // The binding's fused gate, compiled at build/rebind time: when it
        // proves the memory interceptor's pre/post are no-ops, both calls
        // are skipped entirely — only the crossing counter is kept honest.
        let gate = self.sys.mem_gates[binding_ix];
        if gate.skip_choreography {
            if let Some(mi) = self.sys.mem_interceptors[binding_ix].as_mut() {
                mi.record_crossing();
            }
            return if gate.copy {
                let mut copy = msg.clone();
                let r = self
                    .sys
                    .invoke(target_slot, server_port_ix, &mut copy, self.ctx);
                *msg = copy;
                r
            } else {
                self.sys.invoke(target_slot, server_port_ix, msg, self.ctx)
            };
        }
        let mut mi = self.sys.mem_interceptors[binding_ix]
            .take()
            .ok_or_else(|| FrameworkError::Binding("memory interceptor already in use".into()))?;
        if let Err(e) = mi.pre(&mut self.sys.mm, self.ctx) {
            self.sys.mem_interceptors[binding_ix] = Some(mi);
            return Err(e);
        }
        let result = if mi.needs_copy() {
            let mut copy = msg.clone();
            let r = self
                .sys
                .invoke(target_slot, server_port_ix, &mut copy, self.ctx);
            *msg = copy;
            r
        } else {
            self.sys.invoke(target_slot, server_port_ix, msg, self.ctx)
        };
        let post = mi.post(&mut self.sys.mm, self.ctx);
        self.sys.mem_interceptors[binding_ix] = Some(mi);
        result.and(post)
    }

    /// The shared asynchronous body: same-engine exchange buffer or
    /// cross-domain ring, decided at deploy time.
    fn send_buffered(
        &mut self,
        buffer_ix: usize,
        cross: bool,
        msg: P,
    ) -> Result<(), FrameworkError> {
        if cross {
            return self.sys.enqueue_cross(buffer_ix, msg);
        }
        self.sys.enqueue(buffer_ix, msg, self.ctx)
    }
}

impl<P: Payload> Ports<P> for SoleilPorts<'_, P> {
    fn call(&mut self, client_port: &str, msg: &mut P) -> Result<(), FrameworkError> {
        // Copy only the scalar routing fields out of the binding target:
        // cloning the whole target would allocate (its server-port name is
        // a `String`) on every synchronous call.
        self.sys
            .string_compares
            .set(self.sys.string_compares.get() + 1);
        let t = self.membrane.binding.resolve(client_port)?;
        let (target_slot, server_port_ix, is_async, binding_ix) =
            (t.target_slot, t.server_port_ix, t.is_async, t.binding_ix);
        if is_async {
            return Err(FrameworkError::Binding(format!(
                "port '{client_port}' is asynchronous; use send()"
            )));
        }
        self.call_sync(target_slot, server_port_ix, binding_ix, msg)
    }

    fn send(&mut self, client_port: &str, msg: P) -> Result<(), FrameworkError> {
        self.sys
            .string_compares
            .set(self.sys.string_compares.get() + 1);
        let t = self.membrane.binding.resolve(client_port)?;
        let (buffer_ix, cross) = (t.buffer_index, t.cross);
        let buffer_ix = buffer_ix.ok_or_else(|| {
            FrameworkError::Binding(format!("port '{client_port}' is synchronous; use call()"))
        })?;
        self.send_buffered(buffer_ix, cross, msg)
    }

    fn intern(&self, client_port: &str) -> Option<PortId> {
        self.sys.intern_port(client_port)
    }

    fn intern_generation(&self) -> u32 {
        self.sys.dispatch_generation
    }

    fn call_interned(&mut self, id: PortId, msg: &mut P) -> Result<(), FrameworkError> {
        // Jump-table resolve through the membrane's compiled table: one
        // index, no string compare — the name only resurfaces on the cold
        // error paths below.
        let Some(t) = self.membrane.binding.resolve_id(id) else {
            return Err(FrameworkError::Binding(format!(
                "client port '{}' is unbound",
                self.sys.port_name(id)
            )));
        };
        let (target_slot, server_port_ix, is_async, binding_ix) =
            (t.target_slot, t.server_port_ix, t.is_async, t.binding_ix);
        if is_async {
            return Err(FrameworkError::Binding(format!(
                "port '{}' is asynchronous; use send()",
                self.sys.port_name(id)
            )));
        }
        self.call_sync(target_slot, server_port_ix, binding_ix, msg)
    }

    fn send_interned(&mut self, id: PortId, msg: P) -> Result<(), FrameworkError> {
        let Some(t) = self.membrane.binding.resolve_id(id) else {
            return Err(FrameworkError::Binding(format!(
                "client port '{}' is unbound",
                self.sys.port_name(id)
            )));
        };
        let (buffer_ix, cross) = (t.buffer_index, t.cross);
        let Some(buffer_ix) = buffer_ix else {
            return Err(FrameworkError::Binding(format!(
                "port '{}' is synchronous; use call()",
                self.sys.port_name(id)
            )));
        };
        self.send_buffered(buffer_ix, cross, msg)
    }
}

struct CompiledPorts<'a, P: Payload> {
    sys: &'a mut System<P>,
    slot: usize,
    ctx: &'a mut MemoryContext,
    /// MERGE-ALL counts stats; ULTRA-MERGE skips them.
    checked: bool,
}

impl<P: Payload> Ports<P> for CompiledPorts<'_, P> {
    fn call(&mut self, client_port: &str, msg: &mut P) -> Result<(), FrameworkError> {
        let resolved = self.sys.lookup_compiled(self.slot, client_port)?;
        if resolved.is_async {
            return Err(FrameworkError::Binding(format!(
                "port '{client_port}' is asynchronous; use send()"
            )));
        }
        if self.checked {
            self.sys.stats.sync_calls += 1;
        }
        self.sys.cross_scope_call(resolved, msg, self.ctx)
    }

    fn send(&mut self, client_port: &str, msg: P) -> Result<(), FrameworkError> {
        let resolved = self.sys.lookup_compiled(self.slot, client_port)?;
        if !resolved.is_async {
            return Err(FrameworkError::Binding(format!(
                "port '{client_port}' is synchronous; use call()"
            )));
        }
        if resolved.is_cross {
            return self.sys.enqueue_cross(resolved.buffer_ix, msg);
        }
        self.sys.enqueue(resolved.buffer_ix, msg, self.ctx)
    }

    fn intern(&self, client_port: &str) -> Option<PortId> {
        self.sys.intern_port(client_port)
    }

    fn intern_generation(&self) -> u32 {
        self.sys.dispatch_generation
    }

    fn call_interned(&mut self, id: PortId, msg: &mut P) -> Result<(), FrameworkError> {
        // The hot path of the compiled plan: two array indexes yield a
        // `Copy` dispatch header — no string scan, no Arc, no clone.
        let Some(resolved) = self.sys.lookup_interned(self.slot, id) else {
            return Err(self.sys.unbound_interned(self.slot, id));
        };
        if resolved.is_async {
            return Err(FrameworkError::Binding(format!(
                "port '{}' is asynchronous; use send()",
                self.sys.port_name(id)
            )));
        }
        if self.checked {
            self.sys.stats.sync_calls += 1;
        }
        self.sys.cross_scope_call(resolved, msg, self.ctx)
    }

    fn send_interned(&mut self, id: PortId, msg: P) -> Result<(), FrameworkError> {
        let Some(resolved) = self.sys.lookup_interned(self.slot, id) else {
            return Err(self.sys.unbound_interned(self.slot, id));
        };
        if !resolved.is_async {
            return Err(FrameworkError::Binding(format!(
                "port '{}' is synchronous; use call()",
                self.sys.port_name(id)
            )));
        }
        if resolved.is_cross {
            return self.sys.enqueue_cross(resolved.buffer_ix, msg);
        }
        self.sys.enqueue(resolved.buffer_ix, msg, self.ctx)
    }
}

#[cfg(test)]
// The engine unit tests exercise the slot-based internals directly; the
// typed `Deployment` surface is covered by `deploy.rs` consumers and the
// integration suite.
mod tests {
    use super::*;
    use crate::spec::{AreaSpec, BindingSpec, ComponentSpec, DomainSpec};
    use rtsj::time::RelativeTime;
    use soleil_membrane::content::{InternedPort, InvokeResult};

    /// A pipeline payload: counts the stations it passed through.
    #[derive(Debug, Clone, Default, PartialEq)]
    struct Token {
        hops: Vec<String>,
        value: i64,
    }

    #[derive(Debug, Default)]
    struct Producer;
    impl Content<Token> for Producer {
        fn on_invoke(
            &mut self,
            port: &str,
            msg: &mut Token,
            out: &mut dyn Ports<Token>,
        ) -> InvokeResult {
            assert_eq!(port, RELEASE_PORT);
            msg.hops.push("producer".into());
            msg.value = 10;
            out.send("out", msg.clone())
        }
    }

    #[derive(Debug, Default)]
    struct Middle;
    impl Content<Token> for Middle {
        fn on_invoke(
            &mut self,
            _port: &str,
            msg: &mut Token,
            out: &mut dyn Ports<Token>,
        ) -> InvokeResult {
            msg.hops.push("middle".into());
            msg.value *= 2;
            out.call("svc", msg)?;
            out.send("log", msg.clone())
        }
    }

    #[derive(Debug, Default)]
    struct Service {
        calls: u64,
    }
    impl Content<Token> for Service {
        fn on_invoke(
            &mut self,
            _port: &str,
            msg: &mut Token,
            _out: &mut dyn Ports<Token>,
        ) -> InvokeResult {
            self.calls += 1;
            msg.hops.push("service".into());
            msg.value += 1;
            Ok(())
        }
    }

    #[derive(Debug, Default)]
    struct Sink {
        received: Vec<i64>,
    }
    impl Content<Token> for Sink {
        fn on_invoke(
            &mut self,
            _port: &str,
            msg: &mut Token,
            _out: &mut dyn Ports<Token>,
        ) -> InvokeResult {
            msg.hops.push("sink".into());
            self.received.push(msg.value);
            Ok(())
        }
    }

    fn registry() -> ContentRegistry<Token> {
        let mut r = ContentRegistry::new();
        r.register("Producer", || Box::new(Producer));
        r.register("Middle", || Box::new(Middle));
        r.register("Service", || Box::new(Service::default()));
        r.register("Sink", || Box::new(Sink::default()));
        r
    }

    /// The motivation-example shape: periodic NHRT producer → async →
    /// sporadic NHRT middle → sync into a scoped service → async → regular
    /// heap sink.
    fn pipeline_spec() -> SystemSpec {
        SystemSpec {
            name: "pipeline".into(),
            areas: vec![
                AreaSpec {
                    name: "Imm1".into(),
                    kind: MemoryKind::Immortal,
                    size: Some(256 * 1024),
                    parent: None,
                },
                AreaSpec {
                    name: "S1".into(),
                    kind: MemoryKind::Scoped,
                    size: Some(28 * 1024),
                    parent: None,
                },
                AreaSpec {
                    name: "H1".into(),
                    kind: MemoryKind::Heap,
                    size: None,
                    parent: None,
                },
            ],
            domains: vec![
                DomainSpec {
                    name: "NHRT1".into(),
                    kind: ThreadKind::NoHeapRealtime,
                    priority: 30,
                },
                DomainSpec {
                    name: "NHRT2".into(),
                    kind: ThreadKind::NoHeapRealtime,
                    priority: 25,
                },
                DomainSpec {
                    name: "reg1".into(),
                    kind: ThreadKind::Regular,
                    priority: 5,
                },
            ],
            components: vec![
                ComponentSpec {
                    name: "producer".into(),
                    content_class: "Producer".into(),
                    activation: Activation::Periodic {
                        period: RelativeTime::from_millis(10),
                    },
                    domain: Some(0),
                    area: 0,
                    server_ports: vec![],
                    ceiling: None,
                },
                ComponentSpec {
                    name: "middle".into(),
                    content_class: "Middle".into(),
                    activation: Activation::Sporadic,
                    domain: Some(1),
                    area: 0,
                    server_ports: vec!["in".into()],
                    ceiling: None,
                },
                ComponentSpec {
                    name: "service".into(),
                    content_class: "Service".into(),
                    activation: Activation::Passive,
                    domain: None,
                    area: 1,
                    server_ports: vec!["svc".into()],
                    ceiling: None,
                },
                ComponentSpec {
                    name: "sink".into(),
                    content_class: "Sink".into(),
                    activation: Activation::Sporadic,
                    domain: Some(2),
                    area: 2,
                    server_ports: vec!["log".into()],
                    ceiling: None,
                },
            ],
            bindings: vec![
                BindingSpec {
                    client: 0,
                    client_port: "out".into(),
                    server: 1,
                    server_port: "in".into(),
                    protocol: ProtocolSpec::Async {
                        capacity: 10,
                        placement: BufferPlacement::Immortal,
                    },
                    pattern: PatternKind::ImmortalExchange,
                    enter_path: vec![],
                },
                BindingSpec {
                    client: 1,
                    client_port: "svc".into(),
                    server: 2,
                    server_port: "svc".into(),
                    protocol: ProtocolSpec::Sync,
                    pattern: PatternKind::EnterInner,
                    enter_path: vec![1],
                },
                BindingSpec {
                    client: 1,
                    client_port: "log".into(),
                    server: 3,
                    server_port: "log".into(),
                    protocol: ProtocolSpec::Async {
                        capacity: 10,
                        placement: BufferPlacement::Immortal,
                    },
                    pattern: PatternKind::ImmortalExchange,
                    enter_path: vec![],
                },
            ],
        }
    }

    fn run_modes(f: impl Fn(Mode, &mut System<Token>)) {
        for mode in [Mode::Soleil, Mode::MergeAll, Mode::UltraMerge] {
            let spec = pipeline_spec();
            let mut sys = System::build(&spec, mode, &registry()).unwrap();
            f(mode, &mut sys);
        }
    }

    /// The parallel runtime moves one engine per thread-domain shard onto
    /// its own OS thread: the whole `System` must be `Send` (no `Rc`, no
    /// thread-bound interior mutability anywhere in the object graph).
    #[test]
    fn system_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<System<Token>>();
    }

    #[test]
    fn transaction_flows_end_to_end_in_all_modes() {
        run_modes(|mode, sys| {
            let head = sys.slot_of("producer").unwrap();
            for _ in 0..5 {
                sys.run_transaction(head).unwrap();
            }
            let st = sys.stats();
            assert_eq!(st.transactions, 5, "{mode}");
            // Each transaction: producer + middle + sink activations.
            assert_eq!(st.activations, 15, "{mode}");
            assert_eq!(st.dropped_messages, 0, "{mode}");
        });
    }

    #[test]
    fn all_modes_produce_identical_functional_results() {
        // The OO oracle: value = (10 * 2) + 1 = 21 per transaction.
        run_modes(|mode, sys| {
            let head = sys.slot_of("producer").unwrap();
            sys.run_transaction(head).unwrap();
            // The scoped service really ran inside S1 and the sink on the heap:
            // check the substrate saw scope traffic.
            let s1 = sys.memory().area_by_name("S1").unwrap();
            let stats = sys.memory().stats(s1).unwrap();
            assert!(
                stats.consumed > 0 || stats.high_watermark > 0 || stats.reclaim_count == 0,
                "scoped area exists ({mode})"
            );
        });
    }

    #[test]
    fn nhrt_production_line_cannot_use_heap_buffer() {
        // Misplace the first buffer on the heap: the NHRT producer must be
        // refused by the substrate at send time.
        let mut spec = pipeline_spec();
        spec.bindings[0].protocol = ProtocolSpec::Async {
            capacity: 10,
            placement: BufferPlacement::Heap,
        };
        let mut sys = System::build(&spec, Mode::MergeAll, &registry()).unwrap();
        let head = sys.slot_of("producer").unwrap();
        let err = sys.run_transaction(head).unwrap_err();
        assert!(
            matches!(
                err,
                FrameworkError::Rtsj(rtsj::RtsjError::MemoryAccess { .. })
            ),
            "got {err}"
        );
    }

    #[test]
    fn buffer_backpressure_drops_when_not_drained() {
        run_modes(|mode, sys| {
            // Inject more than capacity directly at the middle component
            // without draining (simulate a stalled consumer by stopping it).
            if mode == Mode::UltraMerge {
                return; // cannot stop components in static mode
            }
            let middle = sys.slot_of("middle").unwrap();
            sys.stop_at(middle).unwrap();
            let head = sys.slot_of("producer").unwrap();
            // Producer sends to a 10-slot buffer; consumer is stopped so
            // drain fails -> expect lifecycle error surfaced.
            let r = sys.run_transaction(head);
            assert!(r.is_err(), "stopped consumer must surface ({mode})");
        });
    }

    #[test]
    fn lifecycle_stop_start_roundtrip() {
        run_modes(|mode, sys| {
            let middle = sys.slot_of("middle").unwrap();
            if mode == Mode::UltraMerge {
                assert!(matches!(
                    sys.stop_at(middle),
                    Err(FrameworkError::Unsupported(_))
                ));
                return;
            }
            sys.stop_at(middle).unwrap();
            sys.start_at(middle).unwrap();
            let head = sys.slot_of("producer").unwrap();
            sys.run_transaction(head).unwrap();
        });
    }

    /// The tentpole acceptance property: a freshly deployed SOLEIL system
    /// has *every* membrane's interceptor plan fully compiled — no
    /// `Box<dyn Interceptor>` virtual call anywhere on the steady-state
    /// invoke path — with the common shapes fused (active components get
    /// the single-pass gate, passives skip the walk entirely), and every
    /// steady-state binding's memory choreography settled by its compiled
    /// `FastGate`.
    #[test]
    fn soleil_steady_state_plan_is_fully_compiled_and_fused() {
        use soleil_membrane::ChainFusion;
        let spec = pipeline_spec();
        let sys = System::build(&spec, Mode::Soleil, &registry()).unwrap();
        for slot in 0..sys.nodes.len() {
            let m = sys.membranes[slot].as_ref().unwrap();
            assert!(
                m.plan().is_fully_compiled(),
                "'{}': a dyn step survived deployment",
                m.component
            );
            let expected = if matches!(sys.nodes[slot].activation, Activation::Passive) {
                ChainFusion::Empty
            } else {
                ChainFusion::FusedActive
            };
            assert_eq!(m.plan().fusion(), expected, "'{}'", m.component);
            let info = sys.membrane_info_at(slot).unwrap();
            assert!(info.plan_fully_compiled);
            assert_eq!(info.plan_fusion, expected);
        }
        // One gate per binding, agreeing with each binding's plan: the
        // no-choreography patterns skip pre/post, EnterInner keeps them.
        assert_eq!(sys.mem_gates.len(), spec.bindings.len());
        for (gate, mi) in sys.mem_gates.iter().zip(&sys.mem_interceptors) {
            assert_eq!(*gate, mi.as_ref().unwrap().plan().fast_gate());
        }
        assert!(
            sys.mem_gates.iter().any(|g| g.skip_choreography)
                || spec
                    .bindings
                    .iter()
                    .all(|b| b.pattern == PatternKind::EnterInner),
            "the fixture exercises the fused no-op gate"
        );
    }

    /// The fused gate must not change observable semantics: the memory
    /// interceptor's crossing counter still advances when the gate skips
    /// pre/post, and the full path keeps counting as before.
    #[test]
    fn fast_gate_keeps_crossing_counters_honest() {
        let mut spec = pipeline_spec();
        // A same-area service: after rebinding, middle -> service2 is a
        // Direct pattern whose gate skips choreography entirely.
        spec.components.push(ComponentSpec {
            name: "service2".into(),
            content_class: "Service".into(),
            activation: Activation::Passive,
            domain: None,
            area: 0,
            server_ports: vec!["svc".into()],
            ceiling: None,
        });
        let mut sys = System::build(&spec, Mode::Soleil, &registry()).unwrap();
        let head = sys.slot_of("producer").unwrap();
        for _ in 0..2 {
            sys.run_transaction(head).unwrap();
        }
        // EnterInner gate: full pre/post path counted both crossings.
        assert!(!sys.mem_gates[1].skip_choreography);
        assert_eq!(sys.mem_interceptors[1].as_ref().unwrap().crossings(), 2);

        let middle = sys.slot_of("middle").unwrap();
        let service2 = sys.slot_of("service2").unwrap();
        sys.rebind_at(middle, "svc", service2).unwrap();
        assert!(
            sys.mem_gates[1].skip_choreography,
            "rebind recompiled the gate to the fused no-op form"
        );
        for _ in 0..3 {
            sys.run_transaction(head).unwrap();
        }
        // Rebinding installed a fresh interceptor; its counter advanced
        // purely through the fused fast path.
        assert_eq!(
            sys.mem_interceptors[1].as_ref().unwrap().crossings(),
            3,
            "the fused fast path still records crossings"
        );
    }

    #[test]
    fn membrane_introspection_soleil_only() {
        run_modes(|mode, sys| {
            let info = sys.membrane_info("middle");
            match mode {
                Mode::Soleil => {
                    let info = info.unwrap();
                    assert!(info.started);
                    assert!(info
                        .interceptors
                        .contains(&"active-interceptor".to_string()));
                    assert_eq!(info.bound_ports.len(), 2);
                    assert!(sys.reified_spec().is_some());
                }
                _ => {
                    assert!(matches!(info, Err(FrameworkError::Unsupported(_))));
                    assert!(sys.reified_spec().is_none());
                }
            }
        });
    }

    #[test]
    fn footprint_ordering_soleil_heaviest_ultra_lightest() {
        let spec = pipeline_spec();
        let reg = registry();
        let soleil = System::build(&spec, Mode::Soleil, &reg)
            .unwrap()
            .footprint();
        let merged = System::build(&spec, Mode::MergeAll, &reg)
            .unwrap()
            .footprint();
        let ultra = System::build(&spec, Mode::UltraMerge, &reg)
            .unwrap()
            .footprint();
        assert!(
            soleil.framework_bytes > merged.framework_bytes,
            "SOLEIL {} <= MERGE-ALL {}",
            soleil.framework_bytes,
            merged.framework_bytes
        );
        assert!(
            merged.framework_bytes > ultra.framework_bytes,
            "MERGE-ALL {} <= ULTRA {}",
            merged.framework_bytes,
            ultra.framework_bytes
        );
    }

    #[test]
    fn scoped_service_state_survives_transactions() {
        // S1 is wedge-pinned: its consumption persists across transactions
        // instead of being reclaimed after each sync call.
        let spec = pipeline_spec();
        let mut sys = System::build(&spec, Mode::MergeAll, &registry()).unwrap();
        let s1 = sys.memory().area_by_name("S1").unwrap();
        let before = sys.memory().stats(s1).unwrap().consumed;
        assert!(before > 0, "component state charged to its scope");
        let head = sys.slot_of("producer").unwrap();
        sys.run_transaction(head).unwrap();
        sys.run_transaction(head).unwrap();
        assert_eq!(sys.memory().stats(s1).unwrap().consumed, before);
        assert_eq!(sys.memory().stats(s1).unwrap().reclaim_count, 0);
    }

    #[test]
    fn rebind_redirects_sync_calls() {
        for mode in [Mode::Soleil, Mode::MergeAll] {
            let mut spec = pipeline_spec();
            // A second service with the same port name, in immortal memory.
            spec.components.push(ComponentSpec {
                name: "service2".into(),
                content_class: "Service".into(),
                activation: Activation::Passive,
                domain: None,
                area: 0,
                server_ports: vec!["svc".into()],
                ceiling: None,
            });
            let mut sys = System::build(&spec, mode, &registry()).unwrap();
            let middle = sys.slot_of("middle").unwrap();
            let service2 = sys.slot_of("service2").unwrap();
            sys.rebind_at(middle, "svc", service2).unwrap();
            let head = sys.slot_of("producer").unwrap();
            sys.run_transaction(head).unwrap();
            // S1 (old service's scope) should see no new traffic; the
            // transaction still completes.
            assert_eq!(sys.stats().transactions, 1, "{mode}");
        }
    }

    #[test]
    fn ultra_merge_rejects_reconfiguration() {
        let spec = pipeline_spec();
        let mut sys = System::build(&spec, Mode::UltraMerge, &registry()).unwrap();
        let middle = sys.slot_of("middle").unwrap();
        let service = sys.slot_of("service").unwrap();
        assert!(matches!(
            sys.rebind_at(middle, "svc", service),
            Err(FrameworkError::Unsupported(_))
        ));
    }

    #[test]
    fn unknown_names_reported() {
        let spec = pipeline_spec();
        let mut sys = System::build(&spec, Mode::MergeAll, &registry()).unwrap();
        assert!(sys.slot_of("ghost").is_err());
        assert!(sys.run_transaction(99).is_err());
        // Running a transaction from a non-periodic component fails, and
        // unknown ports are refused at resolution time.
        let middle = sys.slot_of("middle").unwrap();
        assert!(sys.run_transaction(middle).is_err());
        assert!(sys.port_ix_of(middle, "no-such-port").is_err());
    }

    #[test]
    fn inject_activates_sporadic_directly() {
        let spec = pipeline_spec();
        let mut sys = System::build(&spec, Mode::MergeAll, &registry()).unwrap();
        let token = Token {
            hops: vec![],
            value: 5,
        };
        let middle = sys.slot_of("middle").unwrap();
        let port_ix = sys.port_ix_of(middle, "in").unwrap();
        sys.inject_at(middle, port_ix, token).unwrap();
        let st = sys.stats();
        assert_eq!(st.transactions, 1);
        // middle + sink activations.
        assert_eq!(st.activations, 2);
    }

    #[test]
    fn run_tick_releases_all_periodic_heads_by_priority() {
        let mut spec = pipeline_spec();
        // A second, higher-priority periodic producer feeding the sink.
        spec.domains.push(DomainSpec {
            name: "NHRT0".into(),
            kind: ThreadKind::NoHeapRealtime,
            priority: 40,
        });
        spec.components.push(ComponentSpec {
            name: "producer2".into(),
            content_class: "Producer".into(),
            activation: Activation::Periodic {
                period: RelativeTime::from_millis(5),
            },
            domain: Some(3),
            area: 0,
            server_ports: vec![],
            ceiling: None,
        });
        spec.bindings.push(BindingSpec {
            client: 4,
            client_port: "out".into(),
            server: 3,
            server_port: "log".into(),
            protocol: ProtocolSpec::Async {
                capacity: 10,
                placement: BufferPlacement::Immortal,
            },
            pattern: PatternKind::ImmortalExchange,
            enter_path: vec![],
        });
        let mut sys = System::build(&spec, Mode::MergeAll, &registry()).unwrap();
        let heads = sys.periodic_heads();
        assert_eq!(heads.len(), 2);
        // producer2 (p40) releases before producer (p30).
        assert_eq!(sys.nodes[heads[0]].name, "producer2");
        sys.run_tick().unwrap();
        let st = sys.stats();
        assert_eq!(st.transactions, 2, "one transaction per periodic head");
        // producer2 -> sink (2 activations) + producer pipeline (3).
        assert_eq!(st.activations, 5);
    }

    /// An async consumer living in a *nested* scoped area must execute
    /// inside its scope chain on the drain path — both for correct
    /// allocation placement and because it is the premise of the
    /// build-time `ExecuteInOuter` access proof (regression: `drain` used
    /// to invoke consumers without entering their chain, which tripped the
    /// prechecked substrate entry).
    #[test]
    fn drained_consumer_executes_inside_its_scope_chain() {
        let spec = SystemSpec {
            name: "nested-consumer".into(),
            areas: vec![
                AreaSpec {
                    name: "Imm1".into(),
                    kind: MemoryKind::Immortal,
                    size: Some(256 * 1024),
                    parent: None,
                },
                AreaSpec {
                    name: "S1".into(),
                    kind: MemoryKind::Scoped,
                    size: Some(28 * 1024),
                    parent: None,
                },
                AreaSpec {
                    name: "S2".into(),
                    kind: MemoryKind::Scoped,
                    size: Some(16 * 1024),
                    parent: Some(1),
                },
            ],
            domains: vec![
                DomainSpec {
                    name: "NHRT1".into(),
                    kind: ThreadKind::NoHeapRealtime,
                    priority: 30,
                },
                DomainSpec {
                    name: "RT2".into(),
                    kind: ThreadKind::Realtime,
                    priority: 25,
                },
                DomainSpec {
                    name: "reg1".into(),
                    kind: ThreadKind::Regular,
                    priority: 5,
                },
            ],
            components: vec![
                ComponentSpec {
                    name: "producer".into(),
                    content_class: "Producer".into(),
                    activation: Activation::Periodic {
                        period: RelativeTime::from_millis(10),
                    },
                    domain: Some(0),
                    area: 0,
                    server_ports: vec![],
                    ceiling: None,
                },
                ComponentSpec {
                    name: "middle".into(),
                    content_class: "Middle".into(),
                    activation: Activation::Sporadic,
                    domain: Some(1),
                    area: 2, // nested scope S2: chain is [S1, S2]
                    server_ports: vec!["in".into()],
                    ceiling: None,
                },
                ComponentSpec {
                    name: "service".into(),
                    content_class: "Service".into(),
                    activation: Activation::Passive,
                    domain: None,
                    area: 1, // enclosing scope S1
                    server_ports: vec!["svc".into()],
                    ceiling: None,
                },
                ComponentSpec {
                    name: "sink".into(),
                    content_class: "Sink".into(),
                    activation: Activation::Sporadic,
                    domain: Some(2),
                    area: 0,
                    server_ports: vec!["log".into()],
                    ceiling: None,
                },
            ],
            bindings: vec![
                BindingSpec {
                    client: 0,
                    client_port: "out".into(),
                    server: 1,
                    server_port: "in".into(),
                    protocol: ProtocolSpec::Async {
                        capacity: 10,
                        placement: BufferPlacement::Immortal,
                    },
                    pattern: PatternKind::ImmortalExchange,
                    enter_path: vec![],
                },
                // The drained consumer's sync call switches outward into
                // its enclosing scope: ExecuteInOuter, whose build-time
                // proof requires the chain on the stack.
                BindingSpec {
                    client: 1,
                    client_port: "svc".into(),
                    server: 2,
                    server_port: "svc".into(),
                    protocol: ProtocolSpec::Sync,
                    pattern: PatternKind::ExecuteInOuter,
                    enter_path: vec![],
                },
                BindingSpec {
                    client: 1,
                    client_port: "log".into(),
                    server: 3,
                    server_port: "log".into(),
                    protocol: ProtocolSpec::Async {
                        capacity: 10,
                        placement: BufferPlacement::Immortal,
                    },
                    pattern: PatternKind::ImmortalExchange,
                    enter_path: vec![],
                },
            ],
        };
        for mode in [Mode::Soleil, Mode::MergeAll, Mode::UltraMerge] {
            let mut sys = System::build(&spec, mode, &registry()).unwrap();
            let head = sys.slot_of("producer").unwrap();
            for _ in 0..3 {
                sys.run_transaction(head).unwrap();
            }
            let st = sys.stats();
            assert_eq!(st.transactions, 3, "{mode}");
            // producer + middle + sink activate per transaction; the sync
            // call into the enclosing scope completed every time.
            assert_eq!(st.activations, 9, "{mode}");
            assert_eq!(st.dropped_messages, 0, "{mode}");
        }
    }

    #[test]
    fn shutdown_releases_scoped_state() {
        let spec = pipeline_spec();
        let mut sys = System::build(&spec, Mode::MergeAll, &registry()).unwrap();
        let s1 = sys.memory().area_by_name("S1").unwrap();
        assert!(sys.memory().stats(s1).unwrap().consumed > 0);
        sys.shutdown().unwrap();
        let stats = sys.memory().stats(s1).unwrap();
        assert_eq!(stats.consumed, 0, "pin release reclaims the scope");
        assert_eq!(stats.reclaim_count, 1);
        // Components are stopped.
        let head = sys.slot_of("producer").unwrap();
        assert!(sys.run_transaction(head).is_err());
        // Double shutdown surfaces the substrate error.
        assert!(sys.shutdown().is_ok(), "no pins left; idempotent");
    }

    #[test]
    fn missing_content_class_fails_build() {
        let mut spec = pipeline_spec();
        spec.components[0].content_class = "Ghost".into();
        assert!(matches!(
            System::build(&spec, Mode::MergeAll, &registry()),
            Err(FrameworkError::Content(_))
        ));
    }

    /// The cold error path must survive interning: an unbound port id maps
    /// back to its *name* in the error, and the string-scan fallback keeps
    /// reporting the same text it always did — in both façades.
    #[test]
    fn unbound_port_errors_report_the_name_after_interning() {
        // "out" is in the deployment's intern universe (the producer's
        // port) but is not bound on the middle slot.
        let spec = pipeline_spec();
        let mut sys = System::build(&spec, Mode::MergeAll, &registry()).unwrap();
        let middle = sys.slot_of("middle").unwrap();
        let id = sys.intern_port("out").unwrap();
        let mut ctx = sys.mm.context(ThreadKind::Realtime);
        let mut ports = CompiledPorts {
            sys: &mut sys,
            slot: middle,
            ctx: &mut ctx,
            checked: true,
        };
        let mut tok = Token::default();
        let interned = ports.call_interned(id, &mut tok).unwrap_err();
        assert_eq!(
            interned.to_string(),
            "binding error: client port 'out' of 'middle' is unbound"
        );
        let by_name = ports.call("out", &mut tok).unwrap_err();
        assert_eq!(
            by_name.to_string(),
            "binding error: client port 'out' of 'middle' is unbound"
        );
        assert_eq!(
            ports
                .send_interned(id, Token::default())
                .unwrap_err()
                .to_string(),
            "binding error: client port 'out' of 'middle' is unbound"
        );

        // SOLEIL's reified membrane: same contract through the jump table.
        let spec = pipeline_spec();
        let mut sys = System::build(&spec, Mode::Soleil, &registry()).unwrap();
        let middle = sys.slot_of("middle").unwrap();
        let id = sys.intern_port("out").unwrap();
        let mut membrane = sys.membranes[middle].take().unwrap();
        let mut ctx = sys.mm.context(ThreadKind::Realtime);
        let mut ports = SoleilPorts {
            sys: &mut sys,
            membrane: &mut membrane,
            ctx: &mut ctx,
        };
        let interned = ports.call_interned(id, &mut tok).unwrap_err();
        assert_eq!(
            interned.to_string(),
            "binding error: client port 'out' is unbound"
        );
        let by_name = ports.call("out", &mut tok).unwrap_err();
        assert_eq!(
            by_name.to_string(),
            "binding error: client port 'out' is unbound"
        );
        assert_eq!(
            ports
                .send_interned(id, Token::default())
                .unwrap_err()
                .to_string(),
            "binding error: client port 'out' is unbound"
        );
        sys.membranes[middle] = Some(membrane);
    }

    /// A rebind-and-revert cycle must restore the dispatch plan
    /// byte-identically: the header compares equal and the shared
    /// enter-path arena does not grow (the intern step reuses the
    /// original range instead of appending a duplicate).
    #[test]
    fn rebind_cycle_restores_dispatch_header_byte_identically() {
        let mut spec = pipeline_spec();
        spec.components.push(ComponentSpec {
            name: "service2".into(),
            content_class: "Service".into(),
            activation: Activation::Passive,
            domain: None,
            area: 0,
            server_ports: vec!["svc".into()],
            ceiling: None,
        });
        let mut sys = System::build(&spec, Mode::MergeAll, &registry()).unwrap();
        let middle = sys.slot_of("middle").unwrap();
        let service = sys.slot_of("service").unwrap();
        let service2 = sys.slot_of("service2").unwrap();
        let svc_header = |sys: &System<Token>| {
            sys.compiled[middle]
                .iter()
                .find(|b| b.port.as_ref() == "svc")
                .map(|b| b.header)
                .unwrap()
        };
        let original = svc_header(&sys);
        let arena_len = sys.enter_arena.len();
        let jump = sys.port_jump.clone();

        sys.rebind_at(middle, "svc", service2).unwrap();
        assert_ne!(svc_header(&sys), original, "rebind recompiled the plan");
        sys.rebind_at(middle, "svc", service).unwrap();

        assert_eq!(svc_header(&sys), original, "revert restored the header");
        assert_eq!(
            sys.enter_arena.len(),
            arena_len,
            "enter-path interning deduplicated the restored range"
        );
        assert_eq!(sys.port_jump, jump, "jump table is back to the original");
    }

    /// Interned pipeline stations: the same topology as [`pipeline_spec`]
    /// but every client port dispatches through a memoized [`PortId`].
    #[derive(Debug)]
    struct InternedProducer {
        out: InternedPort,
    }
    impl Default for InternedProducer {
        fn default() -> Self {
            Self {
                out: InternedPort::new("out"),
            }
        }
    }
    impl Content<Token> for InternedProducer {
        fn on_invoke(
            &mut self,
            port: &str,
            msg: &mut Token,
            out: &mut dyn Ports<Token>,
        ) -> InvokeResult {
            assert_eq!(port, RELEASE_PORT);
            msg.hops.push("producer".into());
            msg.value = 10;
            self.out.send(out, msg.clone())
        }
    }

    #[derive(Debug)]
    struct InternedMiddle {
        svc: InternedPort,
        log: InternedPort,
    }
    impl Default for InternedMiddle {
        fn default() -> Self {
            Self {
                svc: InternedPort::new("svc"),
                log: InternedPort::new("log"),
            }
        }
    }
    impl Content<Token> for InternedMiddle {
        fn on_invoke(
            &mut self,
            _port: &str,
            msg: &mut Token,
            out: &mut dyn Ports<Token>,
        ) -> InvokeResult {
            msg.hops.push("middle".into());
            msg.value *= 2;
            self.svc.call(out, msg)?;
            self.log.send(out, msg.clone())
        }
    }

    fn interned_registry() -> ContentRegistry<Token> {
        let mut r = ContentRegistry::new();
        r.register("Producer", || Box::new(InternedProducer::default()));
        r.register("Middle", || Box::new(InternedMiddle::default()));
        r.register("Service", || Box::new(Service::default()));
        r.register("Sink", || Box::new(Sink::default()));
        r
    }

    /// The whole point of the compiled plan: after the first (warm-up)
    /// transaction has memoized the port ids, a steady-state transaction
    /// performs zero string comparisons — in every mode, with identical
    /// functional results to the string-path oracle.
    #[test]
    fn interned_steady_state_is_free_of_string_compares() {
        for mode in [Mode::Soleil, Mode::MergeAll, Mode::UltraMerge] {
            let spec = pipeline_spec();
            let mut sys = System::build(&spec, mode, &interned_registry()).unwrap();
            let head = sys.slot_of("producer").unwrap();
            // Warm-up: each InternedPort pays its one-time name scan here.
            sys.run_transaction(head).unwrap();
            let sc = sys.string_compares();
            for _ in 0..4 {
                sys.run_transaction(head).unwrap();
            }
            assert_eq!(
                sys.string_compares() - sc,
                0,
                "steady-state string compares ({mode})"
            );
            let st = sys.stats();
            assert_eq!(st.transactions, 5, "{mode}");
            assert_eq!(st.activations, 15, "{mode}");
            assert_eq!(st.dropped_messages, 0, "{mode}");
        }
    }

    // -----------------------------------------------------------------
    // Release engine: timers + runtime contracts
    // -----------------------------------------------------------------

    #[test]
    fn scheduled_releases_fire_during_run_tick_in_every_mode() {
        run_modes(|mode, sys| {
            // The pipeline's fastest period is 10 ms, so each tick advances
            // the virtual clock by 10 ms.
            assert_eq!(sys.tick_quantum(), RelativeTime::from_millis(10), "{mode}");
            let head = sys.slot_of("producer").unwrap();
            sys.schedule_release(head, AbsoluteTime::from_millis(15))
                .unwrap();
            assert_eq!(sys.armed_timers(), 1, "{mode}");

            sys.run_tick().unwrap(); // clock 10 ms: not yet due
            assert_eq!(sys.stats().timer_fires, 0, "{mode}");
            assert_eq!(sys.armed_timers(), 1, "{mode}");

            sys.run_tick().unwrap(); // clock 20 ms: fires before the tick
            assert_eq!(sys.stats().timer_fires, 1, "{mode}");
            assert_eq!(sys.armed_timers(), 0, "{mode}");
            assert_eq!(sys.clock(), AbsoluteTime::from_millis(20), "{mode}");
            // The fire ran as a full extra transaction.
            let per_tick = {
                let spec = pipeline_spec();
                let mut oracle = System::build(&spec, mode, &registry()).unwrap();
                oracle.run_tick().unwrap();
                oracle.stats().transactions
            };
            assert_eq!(sys.stats().transactions, 2 * per_tick + 1, "{mode}");
        });
    }

    #[test]
    fn cancelled_releases_never_fire() {
        run_modes(|mode, sys| {
            let head = sys.slot_of("producer").unwrap();
            let h = sys
                .schedule_release(head, AbsoluteTime::from_millis(5))
                .unwrap();
            assert!(sys.cancel_release(h), "{mode}");
            assert!(!sys.cancel_release(h), "stale handle ({mode})");
            sys.run_tick().unwrap();
            assert_eq!(sys.stats().timer_fires, 0, "{mode}");
        });
    }

    #[test]
    fn schedule_release_refuses_non_periodic_heads() {
        run_modes(|mode, sys| {
            let middle = sys.slot_of("middle").unwrap();
            let err = sys
                .schedule_release(middle, AbsoluteTime::from_millis(1))
                .unwrap_err();
            assert!(matches!(err, FrameworkError::Timer(_)), "{mode}: {err}");
        });
    }

    #[test]
    fn advance_clock_fires_everything_due() {
        let spec = pipeline_spec();
        let mut sys = System::build(&spec, Mode::MergeAll, &registry()).unwrap();
        let head = sys.slot_of("producer").unwrap();
        sys.schedule_release(head, AbsoluteTime::from_micros(100))
            .unwrap();
        sys.schedule_release(head, AbsoluteTime::from_micros(200))
            .unwrap();
        sys.schedule_release(head, AbsoluteTime::from_millis(50))
            .unwrap();
        let fired = sys.advance_clock_to(AbsoluteTime::from_millis(1)).unwrap();
        assert_eq!(fired, 2, "both sub-millisecond releases fired");
        assert_eq!(sys.clock(), AbsoluteTime::from_millis(1));
        assert_eq!(sys.armed_timers(), 1);
        // The clock never moves backwards.
        sys.advance_clock_to(AbsoluteTime::ZERO).unwrap();
        assert_eq!(sys.clock(), AbsoluteTime::from_millis(1));
    }

    #[test]
    fn contracts_observe_and_stay_compliant_in_every_mode() {
        run_modes(|mode, sys| {
            let head = sys.slot_of("producer").unwrap();
            // A generous contract no in-process pipeline can violate.
            let contract = TimingContract::new()
                .with_deadline(RelativeTime::from_millis(500))
                .with_quantile_bound(99, RelativeTime::from_millis(500));
            assert!(sys.attach_contract_at(head, contract).unwrap().is_none());
            for _ in 0..8 {
                sys.run_transaction(head).unwrap();
            }
            let snap = sys.latency_snapshot_at(head).unwrap();
            assert_eq!(snap.activations, 8, "{mode}");
            assert_eq!(snap.deadline_misses, 0, "{mode}");
            assert!(snap.p99_ns >= snap.p50_ns, "{mode}");
            assert_eq!(sys.deadline_misses(), 0, "{mode}");
            let report = sys.contract_report();
            assert!(report.is_compliant(), "{mode}: {report}");
        });
    }

    #[test]
    fn impossible_deadline_is_missed_and_reported() {
        run_modes(|mode, sys| {
            let head = sys.slot_of("producer").unwrap();
            // A zero-nanosecond deadline: every activation misses.
            let contract = TimingContract::new().with_deadline(RelativeTime::from_nanos(0));
            sys.attach_contract_at(head, contract).unwrap();
            for _ in 0..4 {
                sys.run_transaction(head).unwrap();
            }
            assert_eq!(sys.deadline_misses(), 4, "{mode}");
            let report = sys.contract_report();
            assert!(!report.is_compliant(), "{mode}");
            assert_eq!(report.by_code("SOL-016").count(), 1, "{mode}: {report}");
        });
    }

    #[test]
    fn detach_discards_and_reattach_replaces() {
        let spec = pipeline_spec();
        let mut sys = System::build(&spec, Mode::MergeAll, &registry()).unwrap();
        let head = sys.slot_of("producer").unwrap();
        sys.attach_contract_at(
            head,
            TimingContract::new().with_deadline(RelativeTime::from_nanos(0)),
        )
        .unwrap();
        sys.run_transaction(head).unwrap();
        assert_eq!(sys.deadline_misses(), 1);

        let taken = sys.detach_contract_at(head).expect("was attached");
        assert_eq!(taken.monitor.snapshot().deadline_misses, 1);
        assert!(sys.latency_snapshot_at(head).is_none());
        assert_eq!(sys.deadline_misses(), 0, "detached histogram is gone");
        // Unmonitored again: the hot path records nothing.
        sys.run_transaction(head).unwrap();
        assert!(sys.contract_report().is_compliant());

        // Restore puts the exact monitor — history included — back.
        sys.restore_contract_at(head, Some(taken));
        assert_eq!(sys.deadline_misses(), 1);
        assert_eq!(sys.latency_snapshot_at(head).unwrap().activations, 1);
    }

    // -----------------------------------------------------------------
    // Fault containment & supervision
    // -----------------------------------------------------------------

    /// Installs an always-firing error injector on `middle` under the
    /// given policy and returns the built system.
    fn faulty_middle(mode: Mode, policy: FaultPolicy) -> System<Token> {
        let spec = pipeline_spec();
        let mut sys = System::build(&spec, mode, &registry()).unwrap();
        let middle = sys.slot_of("middle").unwrap();
        sys.set_fault_policy_at(middle, policy).unwrap();
        sys.install_fault_injector_at(
            middle,
            FaultInjector::new("middle", 5, 1).with_menu(FaultInjector::MENU_ERROR),
        )
        .unwrap();
        sys
    }

    #[test]
    fn escalate_is_the_default_and_propagates_typed_faults() {
        run_modes(|mode, sys| {
            let middle = sys.slot_of("middle").unwrap();
            assert_eq!(sys.fault_policy_at(middle), FaultPolicy::Escalate, "{mode}");
        });
        for mode in [Mode::Soleil, Mode::MergeAll, Mode::UltraMerge] {
            let mut sys = faulty_middle(mode, FaultPolicy::Escalate);
            let head = sys.slot_of("producer").unwrap();
            let err = sys.run_transaction(head).unwrap_err();
            assert_eq!(
                err.to_string(),
                "component 'middle' faulted (error): injected error (seed 5, activation 1)",
                "{mode}"
            );
            // Escalate never quarantines: the component stays schedulable.
            assert!(
                !sys.quarantined_at(sys.slot_of("middle").unwrap()),
                "{mode}"
            );
        }
    }

    #[test]
    fn isolate_quarantines_and_count_drops_in_every_mode() {
        for mode in [Mode::Soleil, Mode::MergeAll, Mode::UltraMerge] {
            let mut sys = faulty_middle(mode, FaultPolicy::Isolate);
            let head = sys.slot_of("producer").unwrap();
            let middle = sys.slot_of("middle").unwrap();
            // Every transaction keeps succeeding at the system level.
            for _ in 0..6 {
                sys.run_transaction(head).unwrap();
            }
            assert!(sys.quarantined_at(middle), "{mode}");
            let st = sys.stats();
            assert_eq!(st.faults_contained, 1, "{mode}");
            // First message reached the boundary (delivered, then faulted);
            // the other five were counted-dropped against the quarantine.
            assert_eq!(st.quarantine_drops, 5, "{mode}");
            assert_eq!(st.async_messages, 6, "{mode}");
            assert_eq!(st.delivered_messages + st.dropped_messages, 6, "{mode}");
            let (faults, restarts, _) = sys.supervision_counts_at(middle);
            assert_eq!((faults, restarts), (1, 0), "{mode}");

            // SOL-020 names the component; SOL-022 surfaces the drops.
            let report = sys.health_report();
            assert!(
                report.by_code("SOL-020").any(|d| d.subject == "middle"),
                "{mode}: {report}"
            );
            assert!(report.by_code("SOL-022").next().is_some(), "{mode}");

            // Manual restart: fresh instance, quarantine cleared, messages
            // flow again once the injector is disarmed.
            sys.install_fault_injector_at(middle, FaultInjector::new("middle", 5, 0))
                .unwrap();
            sys.restart_slot(middle).unwrap();
            assert!(!sys.quarantined_at(middle), "{mode}");
            sys.run_transaction(head).unwrap();
            assert!(sys.health_report().by_code("SOL-020").next().is_none());
            let (_, restarts, _) = sys.supervision_counts_at(middle);
            assert_eq!(restarts, 1, "{mode}");
        }
    }

    /// A contained fault ends only the faulting activation: the rest of the
    /// transaction's cascade still drains to quiescence. The producer sends
    /// to `sinkA` (priority 25, isolated, always faulting) and then to
    /// `sinkB` (priority 20, healthy); the drain serves `sinkA` first, and
    /// `sinkB` must still get its message within the same transaction.
    #[test]
    fn contained_fault_lets_the_cascade_drain_to_quiescence() {
        #[derive(Debug)]
        struct Fan;
        impl Content<Token> for Fan {
            fn on_invoke(
                &mut self,
                _port: &str,
                msg: &mut Token,
                out: &mut dyn Ports<Token>,
            ) -> InvokeResult {
                out.send("a", msg.clone())?;
                out.send("b", msg.clone())
            }
        }
        #[derive(Debug)]
        struct Counter(Arc<AtomicU64>);
        impl Content<Token> for Counter {
            fn on_invoke(
                &mut self,
                _port: &str,
                _msg: &mut Token,
                _out: &mut dyn Ports<Token>,
            ) -> InvokeResult {
                self.0.fetch_add(1, Ordering::SeqCst);
                Ok(())
            }
        }

        let domain = |name: &str, priority| DomainSpec {
            name: name.into(),
            kind: ThreadKind::NoHeapRealtime,
            priority,
        };
        let component = |name: &str, class: &str, activation, domain| ComponentSpec {
            name: name.into(),
            content_class: class.into(),
            activation,
            domain: Some(domain),
            area: 0,
            server_ports: if domain == 0 {
                vec![]
            } else {
                vec!["in".into()]
            },
            ceiling: None,
        };
        let binding = |port: &str, server| BindingSpec {
            client: 0,
            client_port: port.into(),
            server,
            server_port: "in".into(),
            protocol: ProtocolSpec::Async {
                capacity: 4,
                placement: BufferPlacement::Immortal,
            },
            pattern: PatternKind::ImmortalExchange,
            enter_path: vec![],
        };
        let spec = SystemSpec {
            name: "contained-drain".into(),
            areas: vec![AreaSpec {
                name: "Imm1".into(),
                kind: MemoryKind::Immortal,
                size: Some(64 * 1024),
                parent: None,
            }],
            domains: vec![domain("P", 30), domain("A", 25), domain("B", 20)],
            components: vec![
                component(
                    "producer",
                    "Fan",
                    Activation::Periodic {
                        period: RelativeTime::from_millis(10),
                    },
                    0,
                ),
                component("sinkA", "Sink", Activation::Sporadic, 1),
                component("sinkB", "Counter", Activation::Sporadic, 2),
            ],
            bindings: vec![binding("a", 1), binding("b", 2)],
        };
        for mode in [Mode::Soleil, Mode::MergeAll, Mode::UltraMerge] {
            let served_b = Arc::new(AtomicU64::new(0));
            let mut registry = registry();
            registry.register("Fan", || Box::new(Fan));
            let counter = Arc::clone(&served_b);
            registry.register("Counter", move || Box::new(Counter(Arc::clone(&counter))));
            let mut sys = System::build(&spec, mode, &registry).unwrap();
            let sink_a = sys.slot_of("sinkA").unwrap();
            sys.set_fault_policy_at(sink_a, FaultPolicy::Isolate)
                .unwrap();
            sys.install_fault_injector_at(
                sink_a,
                FaultInjector::new("sinkA", 5, 1).with_menu(FaultInjector::MENU_ERROR),
            )
            .unwrap();
            let head = sys.slot_of("producer").unwrap();
            sys.run_transaction(head).unwrap();

            let st = sys.stats();
            assert_eq!(st.async_messages, 2, "{mode}");
            assert_eq!(
                st.async_messages,
                st.delivered_messages + st.quarantine_drops,
                "{mode}: the ledger balances at the end of the transaction: {st:?}"
            );
            assert_eq!(
                served_b.load(Ordering::SeqCst),
                1,
                "{mode}: sinkB is served in the transaction that sent to it"
            );
            assert!(sys.quarantined_at(sink_a), "{mode}");
            assert_eq!(st.faults_contained, 1, "{mode}");
        }
    }

    #[test]
    fn injected_fault_schedule_is_deterministic_by_seed() {
        let run = |seed: u64| {
            let spec = pipeline_spec();
            let mut sys = System::build(&spec, Mode::MergeAll, &registry()).unwrap();
            let middle = sys.slot_of("middle").unwrap();
            sys.set_fault_policy_at(middle, FaultPolicy::Isolate)
                .unwrap();
            sys.install_fault_injector_at(
                middle,
                FaultInjector::new("middle", seed, 4).with_menu(FaultInjector::MENU_ERROR),
            )
            .unwrap();
            let head = sys.slot_of("producer").unwrap();
            for _ in 0..20 {
                sys.run_transaction(head).unwrap();
            }
            (sys.stats(), sys.injector_counts_at(middle))
        };
        // Same seed → bit-identical ledger and injector counts; replays
        // are exact, which is what makes fault storms diagnosable.
        assert_eq!(run(42), run(42));
        // The injector really saw activations before the quarantine froze
        // the slot.
        let (_, counts) = run(42);
        let (activations, injected) = counts.unwrap();
        assert!(activations >= 1 && injected >= 1);
    }

    #[test]
    fn panic_is_caught_at_the_activation_boundary_in_every_mode() {
        for mode in [Mode::Soleil, Mode::MergeAll, Mode::UltraMerge] {
            let spec = pipeline_spec();
            let mut sys = System::build(&spec, mode, &registry()).unwrap();
            let middle = sys.slot_of("middle").unwrap();
            sys.install_fault_injector_at(
                middle,
                FaultInjector::new("middle", 9, 1).with_menu(FaultInjector::MENU_PANIC),
            )
            .unwrap();
            let head = sys.slot_of("producer").unwrap();
            // Escalate: the panic arrives as a *typed* error, not an unwind.
            let err = sys.run_transaction(head).unwrap_err();
            let FrameworkError::Faulted {
                component, kind, ..
            } = &err
            else {
                panic!("{mode}: expected Faulted, got {err}");
            };
            assert_eq!(component, "middle", "{mode}");
            assert_eq!(*kind, FaultKind::Panic, "{mode}");
        }
    }

    /// A caught panic must poison a SOLEIL membrane: until restarted, the
    /// component cannot be re-activated even by direct injection (the
    /// unwind may have left half-mutated content state behind).
    #[test]
    fn caught_panic_poisons_the_membrane_until_restart() {
        let spec = pipeline_spec();
        let mut sys = System::build(&spec, Mode::Soleil, &registry()).unwrap();
        let middle = sys.slot_of("middle").unwrap();
        sys.set_fault_policy_at(middle, FaultPolicy::Isolate)
            .unwrap();
        sys.install_fault_injector_at(
            middle,
            FaultInjector::new("middle", 9, 1).with_menu(FaultInjector::MENU_PANIC),
        )
        .unwrap();
        let head = sys.slot_of("producer").unwrap();
        sys.run_transaction(head).unwrap();
        assert!(sys.quarantined_at(middle));
        let m = sys.membranes[middle].as_ref().unwrap();
        assert!(m.poisoned(), "panic fault poisons, plain errors would not");
        // Restart clears the poison and the component serves again.
        sys.install_fault_injector_at(middle, FaultInjector::new("middle", 9, 0))
            .unwrap();
        sys.restart_slot(middle).unwrap();
        assert!(!sys.membranes[middle].as_ref().unwrap().poisoned());
        sys.run_transaction(head).unwrap();
    }

    #[test]
    fn restart_policy_rearms_through_the_timer_queue_until_budget_exhausts() {
        let spec = pipeline_spec();
        let mut sys = System::build(&spec, Mode::MergeAll, &registry()).unwrap();
        let producer = sys.slot_of("producer").unwrap();
        sys.set_fault_policy_at(
            producer,
            FaultPolicy::Restart {
                max_restarts: 3,
                window: RelativeTime::from_millis(3_600_000),
                backoff: RelativeTime::from_millis(10),
            },
        )
        .unwrap();
        sys.install_fault_injector_at(
            producer,
            FaultInjector::new("producer", 5, 1).with_menu(FaultInjector::MENU_ERROR),
        )
        .unwrap();

        // Every activation faults: contain → backoff restart → fault again,
        // with the backoff doubling, until the budget (3 restarts inside
        // the window) exhausts and the fault escalates.
        let mut escalated = None;
        for tick in 1..=50u64 {
            match sys.run_tick() {
                Ok(()) => {}
                Err(e) => {
                    escalated = Some((tick, e));
                    break;
                }
            }
        }
        let (_, err) = escalated.expect("the restart budget must exhaust");
        assert!(
            matches!(&err, FrameworkError::Faulted { component, .. } if component == "producer"),
            "the escalated error is the original typed fault: {err}"
        );
        let (faults, restarts, suppressed) = sys.supervision_counts_at(producer);
        assert_eq!(restarts, 3, "exactly the budget");
        assert_eq!(faults, 4, "one fault per restart, plus the last straw");
        assert!(
            suppressed > 0,
            "backoff windows suppressed periodic releases while quarantined"
        );
        assert!(
            sys.quarantined_at(producer),
            "still quarantined after escalation"
        );
        assert!(
            sys.stats().timer_fires >= 3,
            "restarts rode the timer queue"
        );

        // SOL-021 reports the exhausted budget alongside SOL-020.
        let report = sys.health_report();
        assert!(report.by_code("SOL-020").any(|d| d.subject == "producer"));
        assert!(
            report.by_code("SOL-021").any(|d| d.subject == "producer"),
            "{report}"
        );
    }

    /// Satellite regression: an explicit stop must disarm the pending
    /// supervised-restart timer — a stale handle firing later would revive
    /// the component behind the operator's back.
    #[test]
    fn stop_disarms_a_pending_supervised_restart() {
        let spec = pipeline_spec();
        let mut sys = System::build(&spec, Mode::MergeAll, &registry()).unwrap();
        let producer = sys.slot_of("producer").unwrap();
        sys.set_fault_policy_at(
            producer,
            FaultPolicy::Restart {
                max_restarts: 3,
                window: RelativeTime::from_millis(3_600_000),
                backoff: RelativeTime::from_millis(50),
            },
        )
        .unwrap();
        sys.install_fault_injector_at(
            producer,
            FaultInjector::new("producer", 5, 1).with_menu(FaultInjector::MENU_ERROR),
        )
        .unwrap();
        sys.run_tick().unwrap();
        assert!(sys.quarantined_at(producer));
        assert_eq!(sys.armed_timers(), 1, "backoff restart pending");

        sys.stop_at(producer).unwrap();
        assert_eq!(sys.armed_timers(), 0, "stop cancelled the stale handle");

        // Well past the 50ms backoff (quantum 10ms): no ghost restart.
        for _ in 0..20 {
            sys.run_tick().unwrap();
        }
        assert!(!sys.node_started(producer), "stopped stays stopped");
        let (_, restarts, _) = sys.supervision_counts_at(producer);
        assert_eq!(restarts, 0, "the cancelled timer never fired");
    }

    /// Satellite regression: changing the fault policy disarms the old
    /// policy's pending restart (while re-declaring the *same* policy
    /// leaves it armed).
    #[test]
    fn policy_change_disarms_the_previous_policys_restart() {
        let spec = pipeline_spec();
        let mut sys = System::build(&spec, Mode::MergeAll, &registry()).unwrap();
        let producer = sys.slot_of("producer").unwrap();
        let restart = FaultPolicy::Restart {
            max_restarts: 3,
            window: RelativeTime::from_millis(3_600_000),
            backoff: RelativeTime::from_millis(50),
        };
        sys.set_fault_policy_at(producer, restart).unwrap();
        sys.install_fault_injector_at(
            producer,
            FaultInjector::new("producer", 5, 1).with_menu(FaultInjector::MENU_ERROR),
        )
        .unwrap();
        sys.run_tick().unwrap();
        assert_eq!(sys.armed_timers(), 1, "backoff restart pending");

        // Re-declaring the identical policy is a no-op for the timer…
        sys.set_fault_policy_at(producer, restart).unwrap();
        assert_eq!(sys.armed_timers(), 1, "same policy keeps the restart");

        // …but an actual change disarms it: Isolate must never observe a
        // restart it would not itself have scheduled.
        sys.set_fault_policy_at(producer, FaultPolicy::Isolate)
            .unwrap();
        assert_eq!(sys.armed_timers(), 0, "stale handle cancelled");
        for _ in 0..20 {
            sys.run_tick().unwrap();
        }
        assert!(
            sys.quarantined_at(producer),
            "no restart fired under Isolate"
        );
        let (_, restarts, _) = sys.supervision_counts_at(producer);
        assert_eq!(restarts, 0);
    }

    /// Satellite regression: an aborted tick names both the faulting
    /// component and every periodic head whose release it skipped.
    #[test]
    fn aborted_tick_reports_skipped_periodic_heads_exactly() {
        let mut spec = pipeline_spec();
        // A second, lower-priority periodic head that would have been
        // released after the producer.
        spec.components.push(ComponentSpec {
            name: "producer2".into(),
            content_class: "Service".into(),
            activation: Activation::Periodic {
                period: RelativeTime::from_millis(20),
            },
            domain: Some(2),
            area: 2,
            server_ports: vec![],
            ceiling: None,
        });
        let mut sys = System::build(&spec, Mode::MergeAll, &registry()).unwrap();
        let producer = sys.slot_of("producer").unwrap();
        sys.install_fault_injector_at(
            producer,
            FaultInjector::new("producer", 5, 1).with_menu(FaultInjector::MENU_ERROR),
        )
        .unwrap();
        let err = sys.run_tick().unwrap_err();
        assert_eq!(
            err.to_string(),
            "run-to-completion violated: tick aborted by component 'producer': component \
             'producer' faulted (error): injected error (seed 5, activation 1); skipped \
             periodic heads: producer2"
        );

        // Under Isolate the same tick completes: the quarantined head's
        // release is suppressed-and-counted and later heads still run.
        sys.set_fault_policy_at(producer, FaultPolicy::Isolate)
            .unwrap();
        sys.run_tick().unwrap();
        sys.run_tick().unwrap();
        let (_, _, suppressed) = sys.supervision_counts_at(producer);
        assert_eq!(suppressed, 1, "second tick suppressed the quarantined head");
    }

    // -----------------------------------------------------------------
    // Supervision trees, warm-state handoff, virtual-time spikes
    // -----------------------------------------------------------------

    #[test]
    fn supervisor_edges_refuse_self_supervision_and_cycles() {
        let spec = pipeline_spec();
        let mut sys = System::build(&spec, Mode::MergeAll, &registry()).unwrap();
        let producer = sys.slot_of("producer").unwrap();
        let middle = sys.slot_of("middle").unwrap();
        let sink = sys.slot_of("sink").unwrap();

        let err = sys.set_supervisor_at(producer, Some(producer)).unwrap_err();
        assert!(err.to_string().contains("cannot supervise itself"), "{err}");

        sys.set_supervisor_at(producer, Some(middle)).unwrap();
        sys.set_supervisor_at(middle, Some(sink)).unwrap();
        // sink → producer would close producer → middle → sink → producer.
        let err = sys.set_supervisor_at(sink, Some(producer)).unwrap_err();
        assert!(err.to_string().contains("cycle"), "{err}");
        sys.check_supervision().unwrap();

        // Clearing an edge returns the previous one.
        assert_eq!(sys.set_supervisor_at(middle, None).unwrap(), Some(sink));
        assert_eq!(sys.supervisor_of_at(middle), None);
    }

    #[test]
    fn escalation_walks_the_tree_and_restarts_the_failed_subtree_as_a_unit() {
        let spec = pipeline_spec();
        let mut sys = System::build(&spec, Mode::MergeAll, &registry()).unwrap();
        let producer = sys.slot_of("producer").unwrap();
        let middle = sys.slot_of("middle").unwrap();
        let sink = sys.slot_of("sink").unwrap();
        // Tree: producer → middle → sink; only the root supervisor has a
        // containing policy.
        sys.set_supervisor_at(producer, Some(middle)).unwrap();
        sys.set_supervisor_at(middle, Some(sink)).unwrap();
        sys.set_fault_policy_at(
            sink,
            FaultPolicy::Restart {
                max_restarts: 5,
                window: RelativeTime::from_millis(3_600_000),
                backoff: RelativeTime::from_millis(10),
            },
        )
        .unwrap();
        sys.install_fault_injector_at(
            producer,
            FaultInjector::new("producer", 5, 1).with_menu(FaultInjector::MENU_ERROR),
        )
        .unwrap();

        // The fault escalates producer → middle (both Escalate) and sink
        // contains it: the failed branch rooted at `middle` goes down as a
        // unit, the handler itself stays healthy.
        sys.run_tick().unwrap();
        assert!(sys.quarantined_at(producer));
        assert!(sys.quarantined_at(middle), "subtree member taken down too");
        assert!(!sys.quarantined_at(sink), "the handler keeps running");
        let (pf, _, _) = sys.supervision_counts_at(producer);
        let (mf, _, _) = sys.supervision_counts_at(middle);
        assert_eq!(pf, 1, "the origin records the fault");
        assert_eq!(mf, 0, "co-quarantined members did not themselves fault");
        assert_eq!(
            sys.escalation_path_at(sink).as_deref(),
            Some("producer -> middle -> sink")
        );

        // SOL-023 names the supervision path on the handler; SOL-020
        // covers both downed members.
        let report = sys.health_report();
        assert!(
            report
                .by_code("SOL-023")
                .any(|d| d.subject == "sink" && d.message.contains("producer -> middle -> sink")),
            "{report}"
        );
        assert!(report.by_code("SOL-020").any(|d| d.subject == "producer"));
        assert!(report.by_code("SOL-020").any(|d| d.subject == "middle"));

        // Disarm the storm and let the backoff timer fire: the subtree
        // restarts as one unit through the timer queue.
        sys.install_fault_injector_at(producer, FaultInjector::new("producer", 5, 0))
            .unwrap();
        for _ in 0..5 {
            sys.run_tick().unwrap();
        }
        assert!(!sys.quarantined_at(producer));
        assert!(!sys.quarantined_at(middle));
        let (_, pr, _) = sys.supervision_counts_at(producer);
        let (_, mr, _) = sys.supervision_counts_at(middle);
        assert_eq!((pr, mr), (1, 1), "one supervised restart each, as a unit");
        // The pipeline serves again end to end.
        sys.run_tick().unwrap();
    }

    #[test]
    fn isolate_handler_contains_only_the_failed_branch() {
        let spec = pipeline_spec();
        let mut sys = System::build(&spec, Mode::MergeAll, &registry()).unwrap();
        let producer = sys.slot_of("producer").unwrap();
        let middle = sys.slot_of("middle").unwrap();
        let sink = sys.slot_of("sink").unwrap();
        // Two branches under one Isolate supervisor.
        sys.set_supervisor_at(producer, Some(sink)).unwrap();
        sys.set_supervisor_at(middle, Some(sink)).unwrap();
        sys.set_fault_policy_at(sink, FaultPolicy::Isolate).unwrap();
        sys.install_fault_injector_at(
            producer,
            FaultInjector::new("producer", 5, 1).with_menu(FaultInjector::MENU_ERROR),
        )
        .unwrap();

        sys.run_tick().unwrap();
        assert!(sys.quarantined_at(producer), "the failed branch is down");
        assert!(
            !sys.quarantined_at(middle),
            "the sibling branch keeps running"
        );
        assert!(!sys.quarantined_at(sink), "the handler keeps running");
        assert_eq!(
            sys.escalation_path_at(sink).as_deref(),
            Some("producer -> sink")
        );
        // The sibling really serves: a direct injection still flows.
        let middle_in = sys.port_ix_of(middle, "in").unwrap();
        sys.inject_at(middle, middle_in, Token::default()).unwrap();
    }

    #[test]
    fn root_escalation_aborts_exactly_like_the_flat_semantics() {
        let spec = pipeline_spec();
        let mut sys = System::build(&spec, Mode::MergeAll, &registry()).unwrap();
        let producer = sys.slot_of("producer").unwrap();
        let middle = sys.slot_of("middle").unwrap();
        // producer → middle, but middle also escalates and has no
        // supervisor: the walk runs off the root and the fault aborts.
        sys.set_supervisor_at(producer, Some(middle)).unwrap();
        sys.install_fault_injector_at(
            producer,
            FaultInjector::new("producer", 5, 1).with_menu(FaultInjector::MENU_ERROR),
        )
        .unwrap();
        let err = sys.run_tick().unwrap_err();
        assert!(
            err.to_string().contains("producer"),
            "the original typed fault surfaces: {err}"
        );
        assert!(
            !sys.quarantined_at(producer) && !sys.quarantined_at(middle),
            "an uncontained escalation quarantines nothing"
        );
    }

    /// A probed counter content: every successful activation increments
    /// and publishes its state, and the Checkpoint capability carries that
    /// state across supervised restarts.
    #[derive(Debug)]
    struct WarmCounter {
        count: u64,
        probe: std::sync::Arc<std::sync::Mutex<Vec<u64>>>,
    }
    impl Content<Token> for WarmCounter {
        fn on_invoke(
            &mut self,
            _port: &str,
            _msg: &mut Token,
            _out: &mut dyn Ports<Token>,
        ) -> InvokeResult {
            self.count += 1;
            self.probe.lock().unwrap().push(self.count);
            Ok(())
        }
        fn state_bytes(&self) -> usize {
            64
        }
        fn checkpoint(&self, image: &mut StateImage) -> bool {
            image.write_u64(self.count)
        }
        fn restore(&mut self, image: &StateImage) {
            if let Some(v) = image.read_u64(0) {
                self.count = v;
            }
        }
    }

    /// One periodic NHRT counter, no bindings — the smallest deployment
    /// that can fault, restart and hand state over.
    fn counter_spec() -> SystemSpec {
        SystemSpec {
            name: "warm".into(),
            areas: vec![AreaSpec {
                name: "imm".into(),
                kind: MemoryKind::Immortal,
                size: Some(64 * 1024),
                parent: None,
            }],
            domains: vec![DomainSpec {
                name: "nhrt".into(),
                kind: ThreadKind::NoHeapRealtime,
                priority: 30,
            }],
            components: vec![ComponentSpec {
                name: "counter".into(),
                content_class: "WarmCounter".into(),
                activation: Activation::Periodic {
                    period: RelativeTime::from_millis(10),
                },
                domain: Some(0),
                area: 0,
                server_ports: vec![],
                ceiling: None,
            }],
            bindings: vec![],
        }
    }

    fn counter_system(
        cadence: Option<u32>,
    ) -> (
        System<Token>,
        usize,
        std::sync::Arc<std::sync::Mutex<Vec<u64>>>,
    ) {
        let probe = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        let mut r: ContentRegistry<Token> = ContentRegistry::new();
        let p = std::sync::Arc::clone(&probe);
        r.register("WarmCounter", move || {
            Box::new(WarmCounter {
                count: 0,
                probe: std::sync::Arc::clone(&p),
            })
        });
        let mut sys = System::build(&counter_spec(), Mode::MergeAll, &r).unwrap();
        let counter = sys.slot_of("counter").unwrap();
        sys.set_fault_policy_at(
            counter,
            FaultPolicy::Restart {
                max_restarts: 3,
                window: RelativeTime::from_millis(3_600_000),
                backoff: RelativeTime::from_millis(10),
            },
        )
        .unwrap();
        if let Some(cadence) = cadence {
            let bytes = sys.enable_checkpoint_at(counter, cadence).unwrap();
            assert_eq!(bytes, 2 * 64, "both images, at the state_bytes bound");
        }
        (sys, counter, probe)
    }

    #[test]
    fn checkpoint_carries_warm_state_across_a_supervised_restart() {
        let (mut sys, counter, probe) = counter_system(Some(1));
        for _ in 0..5 {
            sys.run_tick().unwrap();
        }
        // Fault once (the injector draws before the content runs), then
        // disarm and let the backoff restart fire.
        sys.install_fault_injector_at(
            counter,
            FaultInjector::new("counter", 5, 1).with_menu(FaultInjector::MENU_ERROR),
        )
        .unwrap();
        sys.run_tick().unwrap();
        assert!(sys.quarantined_at(counter));
        sys.install_fault_injector_at(counter, FaultInjector::new("counter", 5, 0))
            .unwrap();
        for _ in 0..4 {
            sys.run_tick().unwrap();
        }
        assert!(!sys.quarantined_at(counter), "backoff restart fired");

        // Warm handoff: the fresh instance resumed at the checkpointed
        // count — the observed sequence is strictly increasing with no
        // reset to 1.
        let seen = probe.lock().unwrap().clone();
        assert!(seen.len() >= 7, "{seen:?}");
        assert!(
            seen.windows(2).all(|w| w[1] == w[0] + 1) && seen[0] == 1,
            "monotonic continuation across the restart: {seen:?}"
        );
        let (captures, restores) = sys.checkpoint_counts_at(counter).unwrap();
        assert_eq!(restores, 1, "one restore into the fresh instance");
        assert!(captures >= 6, "probe capture + cadence + boundary");

        // Control: the same storm without the capability restarts cold.
        let (mut sys, counter, probe) = counter_system(None);
        for _ in 0..5 {
            sys.run_tick().unwrap();
        }
        sys.install_fault_injector_at(
            counter,
            FaultInjector::new("counter", 5, 1).with_menu(FaultInjector::MENU_ERROR),
        )
        .unwrap();
        sys.run_tick().unwrap();
        sys.install_fault_injector_at(counter, FaultInjector::new("counter", 5, 0))
            .unwrap();
        for _ in 0..4 {
            sys.run_tick().unwrap();
        }
        let seen = probe.lock().unwrap().clone();
        assert!(
            seen.iter().filter(|&&v| v == 1).count() == 2,
            "a cold restart resets the counter: {seen:?}"
        );
        assert_eq!(sys.checkpoint_counts_at(counter), None);
    }

    #[test]
    fn poisoned_restart_restores_the_cadence_image_not_the_boundary_capture() {
        let (mut sys, counter, probe) = counter_system(Some(3));
        for _ in 0..7 {
            sys.run_tick().unwrap();
        }
        // Counts 1..=7 ran; cadence-3 captures landed at 3 and 6, so the
        // healthy image holds 6 while the live instance holds 7.
        sys.install_fault_injector_at(
            counter,
            FaultInjector::new("counter", 9, 1).with_menu(FaultInjector::MENU_PANIC),
        )
        .unwrap();
        sys.run_tick().unwrap();
        assert!(sys.quarantined_at(counter));
        sys.install_fault_injector_at(counter, FaultInjector::new("counter", 9, 0))
            .unwrap();
        for _ in 0..4 {
            sys.run_tick().unwrap();
        }
        assert!(!sys.quarantined_at(counter));
        // A panic may have left the outgoing instance half-mutated: the
        // boundary capture is skipped and the last *healthy* cadence image
        // (count 6) is restored, so the first post-restart activation
        // publishes 7 again — not 8, which a boundary capture of the
        // poisoned instance would have produced.
        let seen = probe.lock().unwrap().clone();
        let after_restart = seen[7..].to_vec();
        assert_eq!(after_restart.first(), Some(&7), "{seen:?}");
    }

    #[test]
    fn checkpoint_requires_the_capability_and_a_positive_cadence() {
        // The pipeline's stock contents do not implement `checkpoint`.
        let spec = pipeline_spec();
        let mut sys = System::build(&spec, Mode::MergeAll, &registry()).unwrap();
        let middle = sys.slot_of("middle").unwrap();
        let err = sys.enable_checkpoint_at(middle, 1).unwrap_err();
        assert!(err.to_string().contains("Checkpoint capability"), "{err}");
        assert!(!sys.checkpoint_enabled_at(middle));

        let (mut sys, counter, _) = counter_system(None);
        let err = sys.enable_checkpoint_at(counter, 0).unwrap_err();
        assert!(err.to_string().contains("cadence"), "{err}");
    }

    #[test]
    fn virtual_clock_spikes_advance_virtual_time_without_wall_waiting() {
        let spec = pipeline_spec();
        let mut sys = System::build(&spec, Mode::MergeAll, &registry()).unwrap();
        let producer = sys.slot_of("producer").unwrap();
        // A full second of injected latency per activation: busy-waiting
        // this 10 times would stall the test for ~10 s of wall time.
        sys.install_fault_injector_at(
            producer,
            FaultInjector::new("producer", 7, 1)
                .with_menu(FaultInjector::MENU_LATENCY)
                .with_latency_spike_ns(1_000_000_000)
                .with_virtual_clock(),
        )
        .unwrap();
        let clock0 = sys.clock();
        let wall = Instant::now();
        for _ in 0..10 {
            sys.run_tick().unwrap();
        }
        let advanced = sys.clock().since(clock0);
        assert!(
            advanced >= RelativeTime::from_millis(10_000),
            "ten 1 s spikes must land on the virtual clock (got {advanced})"
        );
        assert!(
            wall.elapsed() < std::time::Duration::from_secs(5),
            "virtual spikes must not busy-wait the OS clock"
        );
    }

    #[test]
    fn supervisor_edges_change_the_structural_fingerprint() {
        let spec = pipeline_spec();
        let mut sys = System::build(&spec, Mode::MergeAll, &registry()).unwrap();
        let before = sys.structural_digest();
        let producer = sys.slot_of("producer").unwrap();
        let middle = sys.slot_of("middle").unwrap();
        sys.set_supervisor_at(producer, Some(middle)).unwrap();
        assert_ne!(
            before,
            sys.structural_digest(),
            "a supervision edge is structure: rollback identity checks must see it"
        );
        sys.set_supervisor_at(producer, None).unwrap();
        assert_eq!(
            before,
            sys.structural_digest(),
            "clearing the edge restores it"
        );
    }
}
