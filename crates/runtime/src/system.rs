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
//! The three generation modes share this engine, one activation routine
//! and one content boundary; they differ in the gate around the boundary
//! (a reified membrane, an inlined lifecycle check, nothing) and in how a
//! port resolves to its row (a binding controller, the per-component
//! rows' jump table, a flat static table) — see the crate docs.

use std::cell::Cell;
use std::collections::BinaryHeap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Instant;

use rtsj::memory::{AreaId, MemoryContext, MemoryKind, MemoryManager};
use rtsj::thread::{Priority, ThreadKind};
use rtsj::time::{AbsoluteTime, RelativeTime};
use rtsj::RtsjError;
use soleil_core::contract::{ContractObservation, TimingContract};
use soleil_core::validate::{pattern_between, Diagnostic, Severity};
use soleil_core::ValidationReport;
use soleil_membrane::content::{
    Content, ContentFactory, ContentRegistry, InternedPort, InvokeResult, Payload, PortId,
    StateImage,
};
use soleil_membrane::controllers::{LifecycleState, MemoryAreaController};
use soleil_membrane::interceptors::{ActiveInterceptor, FaultInjector, InterceptStep};
use soleil_membrane::monitor::{LatencyMonitor, LatencySnapshot};
use soleil_membrane::{ChainFusion, FaultKind, FrameworkError, Membrane, Ports};
use soleil_patterns::spsc::SpscProducer;
use soleil_patterns::{ExchangeBuffer, PatternKind, PushOutcome, ScopePin};

use crate::footprint::FootprintReport;
use crate::spec::{
    enter_path, scoped_ancestry, scoped_chain, Activation, AreaSpec, BufferPlacement, Mode,
    ProtocolSpec, SystemSpec,
};
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
/// [`InternedPort::id_in`]): one per compiled plan, re-minted on every
/// binding-row write. Process-global so two deployments —
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

/// A slot's component instance: its content and its server-port names,
/// boxed together so that an activation checks out one pointer. The
/// checkout is the re-entry guard in every mode (a slot whose instance is
/// out is executing), and the activation borrows the invoked port's name
/// from the checked-out record instead of cloning it. Outside an
/// activation the record is always in place, and it holds the only copy
/// of the names: port resolution at build, rebinds, restarts (which swap
/// a fresh content in place), the lifecycle hooks and checkpoints all
/// read it here.
struct Instance<P: Payload> {
    content: Box<dyn Content<P>>,
    /// Server-port names in port-index order, the implicit
    /// [`RELEASE_PORT`] last on a periodic slot.
    server_ports: Box<[Box<str>]>,
}

struct Node<P: Payload> {
    name: String,
    /// `None` only while an activation of the slot runs.
    instance: Option<Box<Instance<P>>>,
    activation: Activation,
    domain_ix: Option<usize>,
    area_ix: usize,
    /// Index of the implicit [`RELEASE_PORT`] among the server ports,
    /// resolved once at build time so releases never scan port names.
    release_ix: Option<u16>,
    priority: Priority,
}

impl<P: Payload> std::fmt::Debug for Node<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Node")
            .field("name", &self.name)
            .field("activation", &self.activation)
            .finish()
    }
}

/// One same-engine exchange buffer and the facts of its consumer that the
/// hop reads: `enqueue` keys the ready queue by `consumer_priority` and
/// `drain` switches to `consumer_domain`'s context, so neither touches the
/// consumer's [`Node`]. The consumer slot and port never change after
/// build; the priority and domain are copies of the consumer node's,
/// written at build and by [`System::set_domain_at`], the one writer of a
/// node's domain and priority (rollback included).
#[derive(Debug)]
struct BufferRt<P> {
    buffer: ExchangeBuffer<P>,
    consumer_slot: usize,
    consumer_port_ix: u16,
    consumer_priority: Priority,
    consumer_domain: Option<usize>,
}

/// A compiled binding row: the port name, kept for the cold
/// string-fallback scan and introspection, plus the `Copy` header the hot
/// path dispatches through. SOLEIL and MERGE-ALL route through the same
/// per-slot rows (`System::compiled`); ULTRA-MERGE flattens them into one
/// static table.
#[derive(Debug, Clone)]
struct CompiledBinding {
    port: Box<str>,
    header: DispatchHeader,
}

/// One binding's dispatch decision, fully settled at deploy/rebind time
/// and `Copy`: resolving a call copies a few machine words — no string, no
/// `Arc` refcount, no heap traffic. An `EnterInner` scope path is a
/// window of the server's scope chain in the deployment-wide
/// [`System::enter_arena`], named by `(offset, len)`.
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
    /// Build-time carrier decision: true when this binding leaves the
    /// engine's thread domain — `buffer_ix` then indexes `cross_out` (a
    /// wait-free SPSC ring to another shard) instead of `buffers`.
    is_cross: bool,
}

impl DispatchHeader {
    /// The header of a row routing into cross-domain ring `cross_ix`:
    /// asynchronous by construction, no scope choreography (the consumer
    /// re-enters its own chain in its own shard), `buffer_ix` indexes
    /// `cross_out`. Build and runtime repointing share it; every local row
    /// comes from [`System::compile_local`].
    fn cross(cross_ix: usize) -> DispatchHeader {
        DispatchHeader {
            target_slot: usize::MAX,
            server_port_ix: 0,
            is_async: true,
            buffer_ix: cross_ix,
            pattern: PatternKind::ImmortalExchange,
            server_area: AreaId::IMMORTAL,
            enter_off: 0,
            enter_len: 0,
            is_cross: true,
        }
    }
}

/// Interns the scope chain a thread standing in runtime area `area`
/// enters (outermost first, as substrate ids) into the deployment's
/// flattened scope-chain arena, reusing an existing window when an
/// identical sequence is already present — so re-homing a slot back to a
/// previous region yields the exact `(offset, len)` its chain had before.
/// The chain is written at the arena's end and taken off again when it is
/// found earlier, so interning a chain the arena holds allocates nothing
/// once the arena has room for it.
fn intern_chain(arena: &mut Vec<AreaId>, areas: &[RuntimeArea], area: usize) -> (u32, u32) {
    let start = arena.len();
    arena.extend(
        scoped_ancestry(area, |ix| (areas[ix].kind, areas[ix].parent)).map(|ix| areas[ix].id),
    );
    arena[start..].reverse();
    let len = arena.len() - start;
    if len == 0 {
        return (0, 0);
    }
    let (known, chain) = arena.split_at(start);
    if let Some(off) = known.windows(len).position(|w| w == chain) {
        arena.truncate(start);
        return (off as u32, len as u32);
    }
    (start as u32, len as u32)
}

/// The per-slot transaction plan, settled at build time: where the slot's
/// scope chain lives in the shared arena — the only record of the chain —
/// and which port its periodic release dispatches through;
/// `run_transaction` and the activation path read straight out of this
/// instead of walking `Node` state.
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
    /// same pay-nothing-when-unused compilation as `release_ix`.
    monitor_ix: u16,
    /// Slot of the component's engine-level fault injector in
    /// `System::injectors`; `u16::MAX` when none is installed (the same
    /// one-compare sentinel as `monitor_ix`).
    fault_ix: u16,
    /// Slot of the component's warm-state checkpoint storage in
    /// `System::checkpoints`; `u16::MAX` when checkpointing is not enabled
    /// (one integer compare per healthy activation, like `monitor_ix`).
    checkpoint_ix: u16,
    /// The slot's lifecycle record — the single compare the healthy
    /// release/delivery path pays for supervision, and the only copy of
    /// the slot's lifecycle facts.
    life: Lifecycle,
}

const _: () = assert!(std::mem::size_of::<ActivationPlan>() == 16);

/// The engine's internal fault: the [`FrameworkError`] a failing hop
/// carries, boxed, so that every routine between the ready queue and the
/// content returns a result one pointer wide — a healthy hop hands back a
/// null pointer in a register instead of a 56-byte error through memory.
/// Only the cold [`From`] conversions below build one; the wide error is
/// unboxed where a public call returns (`cascade`'s exit and the
/// [`EnginePorts`] façade).
struct Fault(Box<FrameworkError>);

const _: () = assert!(std::mem::size_of::<Result<(), Fault>>() == std::mem::size_of::<usize>());

impl From<FrameworkError> for Fault {
    #[cold]
    #[inline(never)]
    fn from(e: FrameworkError) -> Fault {
        Fault(Box::new(e))
    }
}

impl From<RtsjError> for Fault {
    #[cold]
    fn from(e: RtsjError) -> Fault {
        Fault::from(FrameworkError::Rtsj(e))
    }
}

impl From<Fault> for FrameworkError {
    #[cold]
    fn from(f: Fault) -> FrameworkError {
        *f.0
    }
}

/// A slot's lifecycle record, packed into one byte of its
/// [`ActivationPlan`]: started; quarantined by its fault policy; poisoned,
/// when the quarantining fault was a panic — the instance state may then
/// be half-mutated by the unwind, so warm-state handoff trusts only the
/// last *healthy* checkpoint. Every mode's gates read it (SOLEIL's
/// membrane through its mirror), and [`System::set_lifecycle`] is its one
/// writer.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Lifecycle(u8);

impl Lifecycle {
    const STARTED: u8 = 1;
    const QUARANTINED: u8 = 1 << 1;
    const POISONED: u8 = 1 << 2;

    fn started(self) -> bool {
        self.0 & Self::STARTED != 0
    }

    fn quarantined(self) -> bool {
        self.0 & Self::QUARANTINED != 0
    }

    fn poisoned(self) -> bool {
        self.0 & Self::POISONED != 0
    }

    /// True when invocations are admitted: started and not quarantined.
    fn admits(self) -> bool {
        self.0 & (Self::STARTED | Self::QUARANTINED) == Self::STARTED
    }

    /// This record with `bits` set, or cleared when `on` is false.
    fn with(self, bits: u8, on: bool) -> Lifecycle {
        Lifecycle(if on { self.0 | bits } else { self.0 & !bits })
    }

    /// The state a SOLEIL membrane mirrors.
    fn state(self) -> LifecycleState {
        if self.quarantined() {
            LifecycleState::Quarantined
        } else if self.started() {
            LifecycleState::Started
        } else {
            LifecycleState::Stopped
        }
    }
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

impl CheckpointSlot {
    /// Captures `content` into the scratch image and swaps it in on
    /// success, so an overflowing capture never clobbers the last healthy
    /// image — the one capture the cadence and the restart boundary share.
    fn capture<P: Payload>(&mut self, content: &dyn Content<P>) {
        self.boundary.clear();
        let ok = content.checkpoint(&mut self.boundary);
        self.overflowed |= self.boundary.overflowed();
        if ok && !self.boundary.overflowed() {
            std::mem::swap(&mut self.image, &mut self.boundary);
            self.valid = true;
            self.captures += 1;
        }
    }
}

/// An attached runtime timing contract with its live monitor, boxed so the
/// per-slot table stays one pointer wide (attach/detach are cold paths;
/// the monitor's histogram would otherwise fatten every slot).
pub(crate) struct MonitorSlot {
    pub(crate) contract: TimingContract,
    pub(crate) monitor: LatencyMonitor,
}

/// The text of a caught panic's payload: the message of a `&str` or
/// `String` payload, a stable placeholder for any other type.
pub(crate) fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The immortal budget of an engine over `areas`: every declared immortal
/// area plus a 256 KiB framework reserve (buffers, markers). Saturating,
/// because area sizes come from an untrusted ADL.
pub(crate) fn immortal_budget(areas: &[AreaSpec]) -> usize {
    areas
        .iter()
        .filter(|a| a.kind == MemoryKind::Immortal)
        .map(|a| a.size.unwrap_or(0))
        .fold(256 * 1024, usize::saturating_add)
}

/// A ready-queue entry packed into one `u128` that the max-heap orders
/// directly: consumer priority in bits 96..104 (highest pops first), the
/// inverted enqueue sequence in bits 32..96 (FIFO within a priority) and
/// the buffer index in bits 0..32. Sequences are unique, so the index never
/// decides the order; it rides along to be unpacked by [`ready_buffer`].
fn ready_key(priority: Priority, seq: u64, buffer_ix: usize) -> u128 {
    debug_assert!(
        u32::try_from(buffer_ix).is_ok(),
        "one buffer per asynchronous binding: far below 2^32"
    );
    (u128::from(priority.get()) << 96) | (u128::from(!seq) << 32) | buffer_ix as u128
}

/// The buffer index of a [`ready_key`].
fn ready_buffer(key: u128) -> usize {
    key as u32 as usize
}

/// The pre-image of one compiled row, captured by the in-place write that
/// replaced it: [`System::restore_row`] writes it back byte-identically.
/// Carried by the deployment's reconfiguration journal.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RowPreImage {
    slot: usize,
    row: usize,
    header: DispatchHeader,
}

/// The pre-image of one slot's supervision declaration, captured by
/// [`System::supervision_at`] and written back by
/// [`System::restore_supervision`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct SupervisionPreImage {
    policy: FaultPolicy,
    supervisor: Option<u32>,
}

/// Undo record of a [`System::rehome_area_at`], rolled back by
/// [`System::restore_area`]: the slot's previous region and chain range,
/// and how many row pre-images the re-homing pushed onto its caller's
/// list.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RehomeUndo {
    slot: usize,
    area_ix: usize,
    /// `(chain_off, chain_len)` of the slot's activation plan.
    chain: (u32, u16),
    rows: usize,
}

/// The producer of the ring a [`System::repoint_async_to_cross`] routes a
/// port into.
pub(crate) enum CrossTx<P> {
    /// A retired ring's producer, still at this `cross_out` index, where
    /// no row routed to it since it retired.
    Pooled(usize),
    /// A fresh ring's producer, appended to `cross_out`.
    Fresh(SpscProducer<P>),
}

/// Undo record of a [`System::repoint_async_to_cross`], rolled back by
/// [`System::restore_async_binding`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct AsyncRepointUndo {
    /// The `cross_out` index the row routes into now.
    cross_ix: usize,
    /// Whether the repoint appended that index (LIFO rollback truncates
    /// back to it) or reused a pooled one.
    appended: bool,
    old: RowPreImage,
}

impl AsyncRepointUndo {
    /// The `cross_out` index of the ring the row routed into before, if
    /// it rode one: that ring retires.
    pub(crate) fn replaced_cross_ix(&self) -> Option<usize> {
        self.old
            .header
            .is_cross
            .then_some(self.old.header.buffer_ix)
    }

    /// The `cross_out` index the row routes into now.
    pub(crate) fn cross_ix(&self) -> usize {
        self.cross_ix
    }
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
    /// The ready queue: one [`ready_key`] per message waiting in
    /// `buffers`.
    pending: BinaryHeap<u128>,
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
    /// Generation of the current dispatch plan, re-minted at build and on
    /// every row write; content-side `InternedPort` memos carry the
    /// generation they were interned under and re-intern on mismatch.
    dispatch_generation: u32,
    /// Jump tables for interned dispatch, `[slot][port_id]` → binding
    /// index (`compiled[slot]` position under MERGE-ALL, absolute
    /// `ultra_table` index under ULTRA-MERGE; `u32::MAX` = unbound here).
    /// SOLEIL slots are empty — their jump tables live in each membrane's
    /// `BindingController`, which maps to the same `compiled` rows.
    /// Compiled once at build: rows never move.
    port_jump: Vec<Box<[u32]>>,
    /// Deployment-wide flattened arena of the per-slot scope chains,
    /// addressed by `(offset, len)` ranges out of the activation plans; a
    /// row's `EnterInner` path is a window of its server's chain.
    enter_arena: Vec<AreaId>,
    /// Per-slot transaction plans (release dispatch + scope-chain range).
    activation_plans: Vec<ActivationPlan>,
    /// The release-engine clock: advances one `tick_quantum` per
    /// `run_tick` (or explicitly via `advance_clock_to`), driving `timers`.
    clock: AbsoluteTime,
    /// Clock advance per tick ([`SystemSpec::tick_quantum`] of the whole
    /// deployment), so one `run_tick` models one release cycle of its
    /// fastest component.
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
    /// SOLEIL mode: the reified membranes (empty in the merged modes),
    /// boxed so an activation's checkout swaps a pointer.
    membranes: Vec<Option<Box<Membrane>>>,
    /// SOLEIL and MERGE-ALL: the per-slot binding rows, the only routing
    /// record. Rows never move after build; a binding change replaces a
    /// header in place ([`System::write_row`]).
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
        let quantum = spec.tick_quantum();
        Self::build_with_cross(spec, mode, registry, Vec::new(), quantum)
    }

    /// [`System::build`] plus a set of cross-domain outputs: client ports
    /// that route into wait-free SPSC rings whose consumers live in other
    /// thread-domain shards (the parallel runtime's carrier for bindings
    /// that leave this engine). `tick_quantum` is the whole deployment's
    /// ([`SystemSpec::tick_quantum`]), not `spec`'s.
    pub(crate) fn build_with_cross(
        spec: &SystemSpec,
        mode: Mode,
        registry: &ContentRegistry<P>,
        cross_outputs: Vec<CrossOutput<P>>,
        tick_quantum: RelativeTime,
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
        let mut mm = MemoryManager::new(0, immortal_budget(&spec.areas));

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
                let path = a.parent.map_or_else(Vec::new, |p| scope_ids(&areas, p));
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
            // The factory and `state_bytes` are user code: a panic in
            // either is the component's typed fault.
            let (state, content) = catch_unwind(AssertUnwindSafe(|| {
                let content = factory();
                (content.state_bytes(), content)
            }))
            .map_err(|payload| FrameworkError::Faulted {
                component: c.name.clone(),
                kind: FaultKind::Panic,
                detail: panic_text(payload.as_ref()),
            })?;
            factories.push(factory);
            mm.alloc_raw(&boot_ctx, areas[c.area].id, state.max(1))?;
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
            nodes.push(Node {
                name: c.name.clone(),
                instance: Some(Box::new(Instance {
                    content,
                    server_ports: server_ports.into(),
                })),
                activation: c.activation,
                domain_ix: c.domain,
                area_ix: c.area,
                release_ix,
                priority,
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
                let consumer = &nodes[b.server];
                let consumer_port_ix = port_index(consumer, &b.server_port)?;
                buffer_of_binding[bix] = Some(buffers.len());
                buffers.push(BufferRt {
                    buffer,
                    consumer_slot: b.server,
                    consumer_port_ix,
                    consumer_priority: consumer.priority,
                    consumer_domain: consumer.domain_ix,
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
        // flattened scope-path arena, and per-slot activation plans naming
        // the scope chain each slot's thread stands in.
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
                let (chain_off, chain_len) = intern_chain(&mut enter_arena, &areas, n.area_ix);
                ActivationPlan {
                    chain_off,
                    chain_len: chain_len as u16,
                    release_ix: n.release_ix.unwrap_or(u16::MAX),
                    monitor_ix: u16::MAX,
                    fault_ix: u16::MAX,
                    checkpoint_ix: u16::MAX,
                    life: Lifecycle::default(),
                }
            })
            .collect();

        // --- Release engine: the timer queue is preallocated here, once,
        // so arming/cancelling/firing in the steady state never touches
        // the allocator.
        let timer_capacity = nodes.len().max(TIMER_SLOTS_MIN);
        let node_count = nodes.len();

        let mut system = System {
            name: spec.name.clone(),
            mode,
            mm,
            areas,
            domains,
            nodes,
            buffers,
            cross_out,
            pending: BinaryHeap::new(),
            seq: 0,
            periodic_order: Vec::new(),
            anon_ctx: None,
            stats: EngineStats::default(),
            lookups: Cell::new(0),
            string_compares: Cell::new(0),
            port_names,
            dispatch_generation: 0, // minted by compile_port_jump below
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
            membranes: Vec::new(),
            compiled: Vec::new(),
            ultra_table: Vec::new(),
            ultra_ranges: Vec::new(),
        };

        // --- Mode-specific dispatch machinery: every slot's rows, its
        // spec bindings in spec order (each compiled from the placements
        // by the one rule) and then its cross-domain rings.
        for slot in 0..node_count {
            let mut rows = Vec::new();
            for (bix, b) in spec.bindings.iter().enumerate() {
                if b.client == slot {
                    let port_ix = port_index(&system.nodes[b.server], &b.server_port)
                        .expect("checked by spec.check");
                    rows.push(CompiledBinding {
                        port: b.client_port.as_str().into(),
                        header: system.compile_local(
                            slot,
                            b.server,
                            port_ix,
                            matches!(b.protocol, ProtocolSpec::Async { .. }),
                            buffer_of_binding[bix].unwrap_or(usize::MAX),
                        ),
                    });
                }
            }
            for (cross_ix, (client, port)) in cross_requests.iter().enumerate() {
                if *client == slot {
                    rows.push(CompiledBinding {
                        port: port.as_str().into(),
                        header: DispatchHeader::cross(cross_ix),
                    });
                }
            }
            if mode == Mode::UltraMerge {
                let start = system.ultra_table.len() as u32;
                system.ultra_table.append(&mut rows);
                system
                    .ultra_ranges
                    .push((start, system.ultra_table.len() as u32));
            } else {
                system.compiled.push(rows);
            }
        }
        if mode == Mode::Soleil {
            // The reified membranes resolve through their controllers to
            // the same rows MERGE-ALL dispatches through.
            for (c, rows) in spec.components.iter().zip(&system.compiled) {
                let mut m = Membrane::new(c.name.clone());
                if !matches!(c.activation, Activation::Passive) {
                    // Deploy-time plan construction: the known guard
                    // goes straight in as its compiled step (the boxed
                    // `push_interceptor` route compiles to the same
                    // plan; this just skips the cold downcast).
                    m.push_step(InterceptStep::Active(ActiveInterceptor::new()));
                }
                for (row, b) in rows.iter().enumerate() {
                    m.binding.bind(b.port.as_ref(), row);
                }
                system.membranes.push(Some(Box::new(m)));
            }
        }

        system.recompute_periodic_order();
        system.compile_port_jump();

        // --- Start everything (paper: activation is framework-managed).
        for slot in 0..system.nodes.len() {
            system.set_started(slot, true)?;
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

    /// Thread-domain roster: name, thread kind and priority of each domain,
    /// read from the engine's domain table (introspection).
    pub fn domain_info(&self) -> Vec<(String, ThreadKind, Priority)> {
        self.domains
            .iter()
            .map(|d| (d.name.clone(), d.kind, d.priority))
            .collect()
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
    /// the one-time cold scan an [`InternedPort`] memoizes away.
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

    /// Compiles the interned-dispatch jump tables from the binding rows —
    /// at build only: a binding change replaces a row's header in place
    /// and rows never move, so the compiled indices stay valid for the
    /// deployment's lifetime.
    fn compile_port_jump(&mut self) {
        self.dispatch_generation = mint_dispatch_generation();
        match self.mode {
            Mode::Soleil => {
                // The reified membranes own their jump tables.
                for m in self.membranes.iter_mut().flatten() {
                    m.binding.compile_jump(&self.port_names);
                }
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
        self.activation_plans[slot].life.started()
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
        if plan.life.quarantined() {
            self.supervisors[head].suppressed_releases += 1;
            return Ok(());
        }
        self.cascade(head, plan.release_ix, &mut P::default())
    }

    /// Activates `slot` on `port_ix`, then drains the asynchronous cascade
    /// to quiescence — the body shared by releases, timer fires and
    /// injections. The slot's context is checked out once and held into
    /// the drain. A fault goes to supervision where it happens, in this
    /// activation or in any drained one: a contained fault lets the cascade
    /// drain on, and only an escalated one returns `Err`. A faulted
    /// activation counts no transaction and records no latency; a healthy
    /// one records the latency of the whole cascade, while a drained
    /// message's latency covers only its own activation.
    fn cascade(&mut self, slot: usize, port_ix: u16, msg: &mut P) -> Result<(), FrameworkError> {
        // Monitored slots stamp the transaction; the sentinel keeps the
        // unmonitored path at one integer compare (no clock read).
        let plan = self.activation_plans[slot];
        let t0 = (plan.monitor_ix != u16::MAX).then(Instant::now);
        let domain_ix = self.nodes[slot].domain_ix;
        let mut held = (domain_ix, self.take_ctx(domain_ix)?);
        let activated = self
            .activate(slot, plan, port_ix, msg, &mut held.1)
            .and_then(|activated| self.drain(&mut held).map(|()| activated));
        self.restore_ctx(held.0, held.1);
        // The public edge: an escalated fault is unboxed here.
        if activated? {
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
    /// The order is rebuilt in place, in the storage build gave it.
    fn recompute_periodic_order(&mut self) {
        let System {
            nodes,
            periodic_order,
            ..
        } = self;
        periodic_order.clear();
        periodic_order.extend(
            nodes
                .iter()
                .enumerate()
                .filter(|(_, n)| matches!(n.activation, Activation::Periodic { .. }))
                .map(|(i, _)| i),
        );
        periodic_order.sort_by_key(|&i| std::cmp::Reverse(nodes[i].priority));
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
        // A quarantined target counts the drop instead of activating — the
        // same never-silently-lost accounting as the drain path. No
        // transaction is recorded (none ran), which keeps the parallel
        // drain-pass arithmetic honest.
        if self.activation_plans[slot].life.quarantined() {
            self.stats.dropped_messages += 1;
            self.stats.quarantine_drops += 1;
            return Ok(());
        }
        // Delivered the moment it reaches the activation boundary —
        // mirroring the drain path's pop-before-invoke accounting, so the
        // conservation ledger holds even when the activation then faults.
        self.stats.delivered_messages += 1;
        self.cascade(slot, port_ix, &mut msg)
    }

    /// Checks out the executing context for a slot: its domain's context,
    /// or the pooled anonymous context for undomained components (reused so
    /// steady-state activations never rebuild scope-stack storage).
    fn take_ctx(&mut self, domain_ix: Option<usize>) -> Result<MemoryContext, Fault> {
        match domain_ix {
            Some(d) => self.domains[d].ctx.take().ok_or_else(|| {
                FrameworkError::RunToCompletion(format!(
                    "domain '{}' already executing",
                    self.domains[d].name
                ))
                .into()
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

    /// One activation of `slot` on `port_ix` under the checked-out `ctx` —
    /// the routine every release, timer fire, injection and drained message
    /// runs, with the slot's `plan` its caller already read: it counts the
    /// activation, draws the fault injector, enters the slot's scope chain
    /// and invokes (the checkpoint cadence runs inside the content
    /// boundary, after a successful `on_invoke`), and hands a fault to
    /// supervision. Returns whether the activation was healthy; a contained
    /// fault is `Ok(false)`, an escalated one `Err`.
    #[inline(always)]
    fn activate(
        &mut self,
        slot: usize,
        plan: ActivationPlan,
        port_ix: u16,
        msg: &mut P,
        ctx: &mut MemoryContext,
    ) -> Result<bool, Fault> {
        self.stats.activations += 1;
        // Engine-level fault injection fires at the activation boundary,
        // before any mode-specific dispatch — the sentinel keeps the
        // uninjected path at one integer compare.
        let mut result = if plan.fault_ix != u16::MAX {
            self.run_injector(slot)
        } else {
            Ok(())
        };
        if result.is_ok() {
            // A component allocated in scoped memory executes inside its
            // (wedge-pinned, so entry cannot reclaim) scope chain. A
            // checkpoint-enabled slot pays one compare here.
            let chain = (plan.chain_off, u32::from(plan.chain_len));
            let cadence = plan.checkpoint_ix != u16::MAX;
            result = self.invoke_in(chain, slot, port_ix, msg, ctx, cadence);
        }
        match result {
            Ok(()) => Ok(true),
            Err(e) => self.handle_fault(e).map(|()| false),
        }
    }

    /// Draws the slot's engine-level fault injector, converting an
    /// injected panic into the same typed [`FrameworkError::Faulted`] a
    /// content panic produces. The injector is checked out around the draw
    /// (a pointer swap) so the catch boundary never holds a borrow of the
    /// engine.
    fn run_injector(&mut self, slot: usize) -> Result<(), Fault> {
        let Some(mut fi) = self.injectors[slot].take() else {
            return Ok(());
        };
        let drawn = catch_unwind(AssertUnwindSafe(|| fi.draw().map_err(Fault::from)));
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
        drawn.unwrap_or_else(|payload| Err(self.caught_panic(slot, payload)))
    }

    /// Enters the arena window `(offset, len)` on `ctx`, invokes `slot` on
    /// `port_ix` inside it, and exits every scope it entered, on every
    /// path; the first error wins. An activation's scope chain and an
    /// `EnterInner` binding's path both run through here; `cadence` is
    /// [`System::boundary`]'s.
    #[inline(always)]
    fn invoke_in(
        &mut self,
        (off, len): (u32, u32),
        slot: usize,
        port_ix: u16,
        msg: &mut P,
        ctx: &mut MemoryContext,
        cadence: bool,
    ) -> Result<(), Fault> {
        // The window is read out of the arena: plain `AreaId` copies, no
        // per-slot `Vec` indirection and no `Arc` traffic.
        let mut entered = 0;
        let mut result = Ok(());
        while entered < len {
            let scope = self.enter_arena[(off + entered) as usize];
            if let Err(e) = self.mm.enter(ctx, scope) {
                result = Err(e.into());
                break;
            }
            entered += 1;
        }
        if result.is_ok() {
            result = self.invoke(slot, port_ix, msg, ctx, cadence);
        }
        for _ in 0..entered {
            if let Err(e) = self.mm.exit(ctx) {
                if result.is_ok() {
                    result = Err(e.into());
                }
            }
        }
        result
    }

    /// Drains the ready queue to quiescence. `held` is the executing
    /// context the caller checked out, with its domain: it stays checked
    /// out across consecutive activations of that domain — one checkout per
    /// run, not per message — and is swapped when the domain changes. The
    /// caller returns it on every exit, an escalated fault included.
    fn drain(&mut self, held: &mut (Option<usize>, MemoryContext)) -> Result<(), Fault> {
        while let Some(key) = self.pending.pop() {
            let buffer_ix = ready_buffer(key);
            let (slot, port_ix, domain_ix) = {
                let b = &self.buffers[buffer_ix];
                (b.consumer_slot, b.consumer_port_ix, b.consumer_domain)
            };
            let plan = self.activation_plans[slot];
            // Messages addressed to a quarantined consumer are popped and
            // *counted*-dropped — conservation over quarantine: nothing
            // waits forever in a queue nobody will drain, nothing is lost
            // off the books. One compare on the healthy path.
            if plan.life.quarantined() {
                let ctx = self.mm.context(ThreadKind::Regular);
                if let Some(_msg) = self.buffers[buffer_ix].buffer.pop(&mut self.mm, &ctx)? {
                    self.stats.dropped_messages += 1;
                    self.stats.quarantine_drops += 1;
                }
                continue;
            }
            if held.0 != domain_ix {
                let ctx = self.take_ctx(domain_ix)?;
                let (d, ctx) = std::mem::replace(held, (domain_ix, ctx));
                self.restore_ctx(d, ctx);
            }
            // Index-based buffer access: `buffers` and `mm` are disjoint
            // fields, so the ring is reached in place.
            let Some(mut msg) = self.buffers[buffer_ix].buffer.pop(&mut self.mm, &held.1)? else {
                continue;
            };
            self.stats.delivered_messages += 1;
            let t0 = (plan.monitor_ix != u16::MAX).then(Instant::now);
            if self.activate(slot, plan, port_ix, &mut msg, &mut held.1)? {
                if let Some(t0) = t0 {
                    self.observe_latency(plan.monitor_ix, t0);
                }
            }
        }
        Ok(())
    }

    /// Enqueues `msg` on same-engine exchange buffer `buffer_ix` and
    /// schedules its consumer; a full buffer counts the drop.
    #[inline(always)]
    fn enqueue(&mut self, buffer_ix: usize, msg: P, ctx: &MemoryContext) -> Result<(), Fault> {
        let b = &self.buffers[buffer_ix];
        match b.buffer.push(&mut self.mm, ctx, msg)? {
            PushOutcome::Accepted => {
                self.stats.async_messages += 1;
                self.seq += 1;
                self.pending
                    .push(ready_key(b.consumer_priority, self.seq, buffer_ix));
            }
            PushOutcome::Rejected => self.stats.dropped_messages += 1,
        }
        Ok(())
    }

    /// Enqueues `msg` on a cross-domain ring: wait-free, no pending-heap
    /// entry (the consumer shard's drain pass schedules it), bounded
    /// backpressure on a full ring. Kept out of line: inlined into the send
    /// path, it made SOLEIL's one-shard relay transaction about 5% slower
    /// (perfbench relay, 2-vCPU host).
    #[inline(never)]
    fn enqueue_cross(&mut self, cross_ix: usize, msg: P) {
        match self.cross_out[cross_ix].push(msg) {
            PushOutcome::Accepted => self.stats.async_messages += 1,
            PushOutcome::Rejected => self.stats.dropped_messages += 1,
        }
    }

    /// Invokes `slot` on `port_ix` through the one content boundary, under
    /// the gate of the generation mode: SOLEIL's reified membrane runs its
    /// pre/post protocol around it, MERGE-ALL checks the inlined lifecycle
    /// state, and ULTRA-MERGE adds nothing.
    #[inline(always)]
    fn invoke(
        &mut self,
        slot: usize,
        port_ix: u16,
        msg: &mut P,
        ctx: &mut MemoryContext,
        cadence: bool,
    ) -> Result<(), Fault> {
        match self.mode {
            Mode::Soleil => {
                // The checked-out membrane is SOLEIL's re-entry guard; it
                // is boxed, so checking it out and back swaps a pointer.
                let Some(mut membrane) = self.membranes[slot].take() else {
                    return Err(self.reentrant(slot));
                };
                // The gates run outside any catch: build gives every
                // engine membrane compiled steps only (`Active` or none),
                // no API installs an interceptor into a deployed one, and
                // reconfiguration and restarts keep that plan — so a gate
                // is a lifecycle test, a poison test and
                // `ActiveInterceptor::pre`/`post`, none of which panics.
                if let Err(e) = membrane.pre_invoke(&mut self.mm, ctx) {
                    self.membranes[slot] = Some(membrane);
                    return Err(e.into());
                }
                let result = self.boundary(slot, port_ix, msg, ctx, Some(&mut *membrane), cadence);
                let post = membrane.post_invoke(&mut self.mm, ctx);
                self.membranes[slot] = Some(membrane);
                result.and(post.map_err(Fault::from))
            }
            Mode::MergeAll => {
                // The inlined lifecycle gate: one test of the slot's record
                // refuses stopped and quarantined components (ULTRA-MERGE
                // checks activation boundaries only — its sync path is
                // contractually check-free).
                if !self.activation_plans[slot].life.admits() {
                    return Err(self.lifecycle_refusal(slot));
                }
                self.boundary(slot, port_ix, msg, ctx, None, cadence)
            }
            Mode::UltraMerge => self.boundary(slot, port_ix, msg, ctx, None, cadence),
        }
    }

    /// The content boundary of every mode: checks the slot's [`Instance`]
    /// out (one pointer; the checkout is the re-entry guard), runs
    /// `on_invoke` with the port name borrowed from it and the engine's
    /// [`EnginePorts`] façade, and puts it back on every exit. When
    /// `cadence` is set (an activation of a checkpoint-enabled slot), a
    /// successful `on_invoke` is followed by the checkpoint cadence, under
    /// the same catch. A panicking content or `checkpoint` hook becomes a
    /// typed fault and the unwind stops here, so the engine's own
    /// invariants survive it (the component's may not; that is the
    /// supervisor's call: a contained panic poisons the slot's lifecycle
    /// record until a restart installs a fresh instance, an escalated one
    /// changes no lifecycle state).
    #[inline(always)]
    fn boundary(
        &mut self,
        slot: usize,
        port_ix: u16,
        msg: &mut P,
        ctx: &mut MemoryContext,
        membrane: Option<&mut Membrane>,
        cadence: bool,
    ) -> Result<(), Fault> {
        let Some(mut instance) = self.nodes[slot].instance.take() else {
            return Err(self.reentrant(slot));
        };
        let mut ports = EnginePorts {
            sys: self,
            slot,
            membrane,
            ctx,
        };
        let caught = catch_unwind(AssertUnwindSafe(|| {
            let Instance {
                content,
                server_ports,
            } = &mut *instance;
            content.on_invoke(&server_ports[port_ix as usize], msg, &mut ports)?;
            if cadence {
                ports.sys.cadence_checkpoint(slot, &**content);
            }
            Ok(())
        }));
        // The slot is empty: nothing refills a checked-out slot (re-entry
        // and restarts refuse it), so the replaced value is `None`, and
        // forgetting it spares the hop the drop glue of an assignment.
        let vacated = self.nodes[slot].instance.replace(instance);
        debug_assert!(vacated.is_none(), "a checked-out slot was refilled");
        std::mem::forget(vacated);
        caught.unwrap_or_else(|payload| Err(self.caught_panic(slot, payload)))
    }

    /// The typed fault a caught panic becomes (cold: the name clone and
    /// the payload rendering happen only on a panic).
    #[cold]
    #[inline(never)]
    fn caught_panic(&self, slot: usize, payload: Box<dyn std::any::Any + Send>) -> Fault {
        FrameworkError::Faulted {
            component: self.nodes[slot].name.clone(),
            kind: FaultKind::Panic,
            detail: panic_text(payload.as_ref()),
        }
        .into()
    }

    /// The refusal of a component whose instance is already checked out.
    #[cold]
    #[inline(never)]
    fn reentrant(&self, slot: usize) -> Fault {
        FrameworkError::RunToCompletion(format!(
            "re-entrant invocation of '{}'",
            self.nodes[slot].name
        ))
        .into()
    }

    /// MERGE-ALL's lifecycle refusal: quarantined or stopped.
    #[cold]
    #[inline(never)]
    fn lifecycle_refusal(&self, slot: usize) -> Fault {
        let state = if self.activation_plans[slot].life.quarantined() {
            "quarantined pending restart"
        } else {
            "stopped"
        };
        FrameworkError::Lifecycle(format!("component '{}' is {state}", self.nodes[slot].name))
            .into()
    }

    /// The one crossing routine: runs a compiled synchronous call through
    /// the pattern settled into its row at build or rebind time, in every
    /// generation mode — the paper's memory interceptor. `ExecuteInOuter`
    /// switches the allocation context outward after the substrate checks
    /// that the server's scope is on the caller's stack (it is not when a
    /// `HandoffThroughParent` call is on the path: the handoff runs its
    /// server on the caller's stack), `EnterInner` enters the row's scope
    /// path around the call, and `HandoffThroughParent` invokes on a deep
    /// copy of `msg` that is copied back, so no reference crosses between
    /// sibling scopes. Only an `EnterInner` row has a non-empty scope
    /// path, so every pattern invokes through the one `invoke_in`.
    fn cross_scope_call(
        &mut self,
        r: DispatchHeader,
        msg: &mut P,
        ctx: &mut MemoryContext,
    ) -> Result<(), Fault> {
        let mut handoff = None;
        match r.pattern {
            PatternKind::ExecuteInOuter => self.mm.begin_execute_in_area(ctx, r.server_area)?,
            PatternKind::HandoffThroughParent => handoff = Some(msg.clone()),
            PatternKind::Direct | PatternKind::ImmortalExchange | PatternKind::EnterInner => {}
        }
        let target = handoff.as_mut().unwrap_or(&mut *msg);
        let path = (r.enter_off, r.enter_len);
        let out = self.invoke_in(path, r.target_slot, r.server_port_ix, target, ctx, false);
        if let Some(copy) = handoff {
            *msg = copy;
        }
        if r.pattern == PatternKind::ExecuteInOuter {
            self.mm.end_execute_in_area(ctx)?;
        }
        out
    }

    // -----------------------------------------------------------------
    // Lifecycle & reconfiguration
    // -----------------------------------------------------------------

    /// The one writer of a slot's lifecycle record, and of the SOLEIL
    /// membrane's mirror of it (lifecycle state and poison flag), in one
    /// step. Returns the replaced record: the pre-image a reconfiguration
    /// journal writes back through this same routine, so rolling back a
    /// stop or a start runs no hook.
    pub(crate) fn set_lifecycle(&mut self, slot: usize, life: Lifecycle) -> Lifecycle {
        if let Some(m) = self.membranes.get_mut(slot).and_then(Option::as_mut) {
            m.set_lifecycle(life.state(), life.poisoned());
        }
        std::mem::replace(&mut self.activation_plans[slot].life, life)
    }

    /// Runs `slot`'s `on_start` (`started`) or `on_stop` hook, then records
    /// the started bit — the one start and the one stop that build,
    /// `start_at`/`stop_at` and `shutdown` share. A quarantine survives
    /// both: only a restart lifts it. Returns the replaced record.
    ///
    /// The hook is user code outside any activation, so it runs under a
    /// `catch_unwind`: a panic becomes the typed fault a content panic
    /// does, and the record stays as it was.
    ///
    /// # Errors
    ///
    /// [`FrameworkError::Faulted`] with [`FaultKind::Panic`] when the hook
    /// panicked.
    fn set_started(&mut self, slot: usize, started: bool) -> Result<Lifecycle, FrameworkError> {
        if let Some(instance) = self.nodes[slot].instance.as_mut() {
            let content = &mut instance.content;
            catch_unwind(AssertUnwindSafe(|| {
                if started {
                    content.on_start();
                } else {
                    content.on_stop();
                }
            }))
            .map_err(|payload| self.caught_panic(slot, payload))?;
        }
        let life = self.activation_plans[slot].life;
        Ok(self.set_lifecycle(slot, life.with(Lifecycle::STARTED, started)))
    }

    /// Refuses structural reconfiguration under ULTRA-MERGE: its fused
    /// dispatch table is never rewritten after build.
    pub(crate) fn reject_static(&self) -> Result<(), FrameworkError> {
        if self.mode == Mode::UltraMerge {
            return Err(FrameworkError::Unsupported(
                "ULTRA-MERGE systems are purely static".into(),
            ));
        }
        Ok(())
    }

    /// Stops `slot`: invocations refused until restarted. Returns the
    /// replaced lifecycle record.
    pub(crate) fn stop_at(&mut self, slot: usize) -> Result<Lifecycle, FrameworkError> {
        self.reject_static()?;
        let previous = self.set_started(slot, false)?;
        // An explicit stop overrides supervision: a pending supervised
        // restart must not revive the component behind the user's back.
        self.cancel_restart_timer(slot);
        Ok(previous)
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

    /// (Re)starts `slot`. Returns the replaced lifecycle record.
    pub(crate) fn start_at(&mut self, slot: usize) -> Result<Lifecycle, FrameworkError> {
        self.reject_static()?;
        self.set_started(slot, true)
    }

    /// Rebinds `client_slot`'s **synchronous** `port` to `server_slot`'s
    /// same-named server port: one in-place write of the port's row (the
    /// engine half of the transactional path, in SOLEIL and MERGE-ALL
    /// alike). Returns the row's pre-image for the reconfiguration
    /// journal.
    ///
    /// # Errors
    ///
    /// [`FrameworkError::Binding`] for unbound or asynchronous ports or a
    /// server without the port; [`FrameworkError::Unsupported`] under
    /// ULTRA-MERGE.
    pub(crate) fn rebind_at(
        &mut self,
        client_slot: usize,
        port: &str,
        server_slot: usize,
    ) -> Result<RowPreImage, FrameworkError> {
        self.reject_static()?;
        let row = self.row_of(client_slot, port)?;
        let old = self.compiled[client_slot][row].header;
        if old.is_async {
            return Err(FrameworkError::Binding(
                "cannot rebind asynchronous bindings at runtime".into(),
            ));
        }
        let server_port = &server_ports(&self.nodes[old.target_slot])[old.server_port_ix as usize];
        let server_port_ix = port_index(&self.nodes[server_slot], server_port)?;
        let header =
            self.compile_local(client_slot, server_slot, server_port_ix, false, usize::MAX);
        Ok(self.write_row(client_slot, row, header))
    }

    /// The index of `slot`'s row for client port `port` (cold path).
    fn row_of(&self, slot: usize, port: &str) -> Result<usize, FrameworkError> {
        self.compiled[slot]
            .iter()
            .position(|b| b.port.as_ref() == port)
            .ok_or_else(|| FrameworkError::Binding(format!("client port '{port}' is unbound")))
    }

    /// The scope chain `slot`'s thread stands in, outermost first: the
    /// arena window its activation plan names, and the window's offset.
    fn chain(&self, slot: usize) -> (u32, &[AreaId]) {
        let plan = self.activation_plans[slot];
        let off = plan.chain_off as usize;
        (
            plan.chain_off,
            &self.enter_arena[off..off + usize::from(plan.chain_len)],
        )
    }

    /// Compiles the header of a local binding from `client` to `server`
    /// against the areas both live in now — the one row compiler, which
    /// build, rebinds and re-homings all run. The pattern comes from the
    /// validator's one rule, decided over this engine's areas, so it is
    /// the pattern the design procedure picks for the same placement. An
    /// `EnterInner` path is the tail of the server's chain window, so
    /// compiling back to an earlier shape reproduces the old header
    /// byte-identically.
    fn compile_local(
        &self,
        client: usize,
        server: usize,
        server_port_ix: u16,
        is_async: bool,
        buffer_ix: usize,
    ) -> DispatchHeader {
        let c_area = &self.areas[self.nodes[client].area_ix];
        let s_area = &self.areas[self.nodes[server].area_ix];
        let ((_, c_chain), (s_off, s_chain)) = (self.chain(client), self.chain(server));
        // Asked only of two scoped areas, each the client's or the
        // server's: one encloses the other when it is on the other's chain.
        let pattern = pattern_between(
            (c_area.id, c_area.kind),
            (s_area.id, s_area.kind),
            is_async,
            |outer, inner| if inner == c_area.id { c_chain } else { s_chain }.contains(&outer),
        );
        let (enter_off, enter_len) = match pattern {
            PatternKind::EnterInner => {
                let path = enter_path(c_chain, s_chain);
                (
                    s_off + (s_chain.len() - path.len()) as u32,
                    path.len() as u32,
                )
            }
            _ => (0, 0),
        };
        DispatchHeader {
            target_slot: server,
            server_port_ix,
            is_async,
            buffer_ix,
            pattern,
            server_area: s_area.id,
            enter_off,
            enter_len,
            is_cross: false,
        }
    }

    /// Replaces row `row` of `slot` with `header` in place — the one write
    /// every binding change and its undo funnel through. Rows never move,
    /// so the jump tables stay valid. Mints a fresh dispatch generation
    /// and returns the replaced header's pre-image.
    fn write_row(&mut self, slot: usize, row: usize, header: DispatchHeader) -> RowPreImage {
        let old = std::mem::replace(&mut self.compiled[slot][row].header, header);
        self.dispatch_generation = mint_dispatch_generation();
        RowPreImage {
            slot,
            row,
            header: old,
        }
    }

    /// Writes a captured pre-image back — the rollback of every row write.
    /// Infallible: the row exists, since rows never move.
    pub(crate) fn restore_row(&mut self, pre: RowPreImage) {
        self.write_row(pre.slot, pre.row, pre.header);
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
    /// context, like an undeployed passive). The one writer of a node's
    /// domain and priority: it rewrites the copies on the rows of the
    /// buffers the slot consumes, and invalidates the cached periodic
    /// release order, which is priority-sorted.
    pub(crate) fn set_domain_at(&mut self, slot: usize, domain_ix: Option<usize>) {
        let priority = domain_ix
            .map(|d| self.domains[d].priority)
            .unwrap_or(Priority::NORM);
        self.nodes[slot].domain_ix = domain_ix;
        self.nodes[slot].priority = priority;
        for b in self.buffers.iter_mut().filter(|b| b.consumer_slot == slot) {
            b.consumer_priority = priority;
            b.consumer_domain = domain_ix;
        }
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
    /// `state_bytes` is user code, so it runs under a `catch_unwind`.
    ///
    /// # Errors
    ///
    /// [`FrameworkError::Faulted`] with [`FaultKind::Panic`] when
    /// `state_bytes` panicked.
    pub(crate) fn state_bytes_at(&self, slot: usize) -> Result<usize, FrameworkError> {
        let Some(instance) = self.nodes[slot].instance.as_ref() else {
            return Ok(1);
        };
        let bytes = catch_unwind(AssertUnwindSafe(|| instance.content.state_bytes()))
            .map_err(|payload| self.caught_panic(slot, payload))?;
        Ok(bytes.max(1))
    }

    /// The substrate area behind runtime area `area_ix`.
    pub(crate) fn area_id(&self, area_ix: usize) -> AreaId {
        self.areas[area_ix].id
    }

    /// The context a charge into `area` is made in: a regular thread's for
    /// the heap, a real-time thread's for every other area.
    fn charge_context(&self, area: AreaId) -> MemoryContext {
        self.mm.context(if area == AreaId::HEAP {
            ThreadKind::Regular
        } else {
            ThreadKind::Realtime
        })
    }

    /// Checks that `blocks` charges of `bytes` bytes in total would all
    /// fit into `area` now, charging nothing and allocating nothing. A
    /// commit admits each area's deferred charges this way before it makes
    /// the first of them; [`charge`](Self::charge) runs the same
    /// [`MemoryManager::admit_raw`] per charge, so the two cannot disagree.
    ///
    /// # Errors
    ///
    /// Substrate budget exhaustion, or a scoped `area` no one has entered.
    pub(crate) fn admit_charges(
        &self,
        area: AreaId,
        blocks: usize,
        bytes: usize,
    ) -> Result<(), FrameworkError> {
        self.mm
            .admit_raw(&self.charge_context(area), area, blocks, bytes)?;
        Ok(())
    }

    /// Charges `bytes` against `area` — the commit-time half of a deferred
    /// reconfiguration charge: the state of a component re-homed into the
    /// area, or the slot array of a fresh cross-shard ring in immortal
    /// memory (build charges deploy-time rings the same way). Refused
    /// transactions never reach this, so they stay charge-neutral; a
    /// committed charge is permanent, because immortal/scoped accounting
    /// is monotonic (authentic RTSJ: immortal memory is never reclaimed).
    ///
    /// # Errors
    ///
    /// Substrate budget exhaustion.
    pub(crate) fn charge(&mut self, area: AreaId, bytes: usize) -> Result<(), FrameworkError> {
        let ctx = self.charge_context(area);
        self.mm.alloc_raw(&ctx, area, bytes)?;
        Ok(())
    }

    /// Re-homes a slot's allocation region onto another runtime area: the
    /// checkpoint/handoff half of a `reassign_domain` whose domain edge
    /// moves the component under a different memory area. Recomputes the
    /// slot's scope chain and activation plan, then rewrites in place the
    /// row of every local binding touching the slot at either end, through
    /// the same constructors build uses, pushing each replaced row's
    /// pre-image onto `rows`. Returns the undo record:
    /// [`restore_area`](Self::restore_area) takes those pre-images back
    /// off `rows` and puts them, the previous region and the chain back
    /// byte-identically.
    ///
    /// The substrate charge for the migrated state is **not** made here:
    /// callers defer it to commit time (see [`System::charge`]) so a
    /// refused transaction is charge-neutral, and make it only into an
    /// area the state has not lived in. The old region's charge stands
    /// either way — monotonic accounting, like build.
    ///
    /// # Errors
    ///
    /// [`FrameworkError::Unsupported`] under ULTRA-MERGE;
    /// [`FrameworkError::Content`] for an unknown area index.
    pub(crate) fn rehome_area_at(
        &mut self,
        slot: usize,
        new_area_ix: usize,
        rows: &mut Vec<RowPreImage>,
    ) -> Result<RehomeUndo, FrameworkError> {
        self.reject_static()?;
        if new_area_ix >= self.areas.len() {
            return Err(FrameworkError::Content(format!(
                "re-home target area index {new_area_ix} out of range"
            )));
        }
        let plan = self.activation_plans[slot];
        let mut undo = RehomeUndo {
            slot,
            area_ix: self.nodes[slot].area_ix,
            chain: (plan.chain_off, plan.chain_len),
            rows: 0,
        };
        if new_area_ix == undo.area_ix {
            return Ok(undo);
        }
        // The scoped chain the component's thread now stands in.
        self.nodes[slot].area_ix = new_area_ix;
        let (chain_off, chain_len) = intern_chain(&mut self.enter_arena, &self.areas, new_area_ix);
        self.activation_plans[slot].chain_off = chain_off;
        self.activation_plans[slot].chain_len = chain_len as u16;
        let before = rows.len();
        self.recompile_bindings_touching(slot, rows);
        undo.rows = rows.len() - before;
        Ok(undo)
    }

    /// Rolls back a [`rehome_area_at`](Self::rehome_area_at): the rows it
    /// rewrote get their pre-images back, newest first — popped off `rows`,
    /// where they are the newest entries — and the slot its region and
    /// chain range. Infallible: nothing is recompiled.
    pub(crate) fn restore_area(&mut self, undo: RehomeUndo, rows: &mut Vec<RowPreImage>) {
        for _ in 0..undo.rows {
            let pre = rows
                .pop()
                .expect("re-homing pre-images popped out of order");
            self.restore_row(pre);
        }
        self.nodes[undo.slot].area_ix = undo.area_ix;
        let plan = &mut self.activation_plans[undo.slot];
        (plan.chain_off, plan.chain_len) = undo.chain;
    }

    /// Recompiles the row of every **local** binding with `slot` at either
    /// end — a re-homing changed the areas those rows were compiled from —
    /// pushing each replaced row's pre-image onto `replaced`. Cross-ring
    /// rows are untouched: their dispatch is settled on the consumer's
    /// shard, not here.
    fn recompile_bindings_touching(&mut self, slot: usize, replaced: &mut Vec<RowPreImage>) {
        for c in 0..self.compiled.len() {
            for row in 0..self.compiled[c].len() {
                let old = self.compiled[c][row].header;
                if !old.is_cross && (c == slot || old.target_slot == slot) {
                    let header = self.compile_local(
                        c,
                        old.target_slot,
                        old.server_port_ix,
                        old.is_async,
                        old.buffer_ix,
                    );
                    replaced.push(self.write_row(c, row, header));
                }
            }
        }
    }

    /// Repoints a client's **asynchronous** port onto a cross-domain ring
    /// whose producer is `tx` — the engine half of cross-ring rewiring
    /// when a parallel rebind moves a binding across the domain
    /// partition. A fresh producer is appended to `cross_out`; a pooled
    /// one is already there. The port's row is rewritten with the header
    /// build gives deploy-time rings. Returns the undo record for the
    /// reconfiguration journal.
    ///
    /// # Errors
    ///
    /// [`FrameworkError::Binding`] for unbound or synchronous ports;
    /// [`FrameworkError::Unsupported`] under ULTRA-MERGE.
    pub(crate) fn repoint_async_to_cross(
        &mut self,
        client_slot: usize,
        port: &str,
        tx: CrossTx<P>,
    ) -> Result<AsyncRepointUndo, FrameworkError> {
        self.reject_static()?;
        let row = self.row_of(client_slot, port)?;
        if !self.compiled[client_slot][row].header.is_async {
            return Err(FrameworkError::Binding(format!(
                "client port '{port}' is synchronous; cross-domain rings carry \
                 asynchronous bindings only"
            )));
        }
        let (cross_ix, appended) = match tx {
            CrossTx::Pooled(cross_ix) => (cross_ix, false),
            CrossTx::Fresh(tx) => {
                self.cross_out.push(tx);
                (self.cross_out.len() - 1, true)
            }
        };
        let header = DispatchHeader::cross(cross_ix);
        Ok(AsyncRepointUndo {
            cross_ix,
            appended,
            old: self.write_row(client_slot, row, header),
        })
    }

    /// Rolls back a [`System::repoint_async_to_cross`]: an appended ring
    /// producer is dropped (journals replay LIFO, so it is necessarily the
    /// newest `cross_out` entry — truncation cannot disturb ring indices
    /// baked into other rows; a pooled one stays where it was) and the
    /// row's pre-image is written back.
    pub(crate) fn restore_async_binding(&mut self, undo: AsyncRepointUndo) {
        if undo.appended {
            debug_assert_eq!(
                undo.cross_ix + 1,
                self.cross_out.len(),
                "async repoint rollback out of journal order"
            );
            self.cross_out.truncate(undo.cross_ix);
        }
        self.restore_row(undo.old);
    }

    /// A structural fingerprint of the reconfigurable state — lifecycle,
    /// domains, areas, activation plans (scope chains included), binding tables,
    /// compiled dispatch headers, jump tables, each exchange buffer's
    /// consumer row (slot, port and the cached priority and domain),
    /// contracts and fault policies. Deliberately **excludes** traffic
    /// state (ledgers, histograms, ring/buffer contents, supervision
    /// counters): a refused
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
                "n{i}:{};{:?};{};{:?}|",
                n.name, n.domain_ix, n.area_ix, n.priority
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
        for (i, row) in self.compiled.iter().enumerate() {
            for b in row {
                let _ = write!(s, "c{i}:{}:{:?}|", b.port, b.header);
            }
        }
        for (i, b) in self.buffers.iter().enumerate() {
            let _ = write!(
                s,
                "b{i}:{}:{}:{:?}:{:?}|",
                b.consumer_slot, b.consumer_port_ix, b.consumer_priority, b.consumer_domain
            );
        }
        for (i, r) in self.ultra_ranges.iter().enumerate() {
            let _ = write!(s, "u{i}:{r:?}|");
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
    /// their storage. The system cannot be used afterwards. A panicking
    /// `on_stop` does not stop the teardown: every other component still
    /// stops and every pin is still released.
    ///
    /// # Errors
    ///
    /// Substrate errors releasing pins (double shutdown); otherwise the
    /// first panicking `on_stop`, as [`FrameworkError::Faulted`] with
    /// [`FaultKind::Panic`].
    pub fn shutdown(&mut self) -> Result<(), FrameworkError> {
        let mut stopped = Ok(());
        for slot in 0..self.nodes.len() {
            stopped = stopped.and(self.set_started(slot, false).map(drop));
        }
        for area in &mut self.areas {
            if let Some(mut pin) = area.controller.take_pin() {
                pin.release(&mut self.mm)?;
            }
        }
        stopped
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
            if plan.life.quarantined() {
                self.supervisors[slot].suppressed_releases += 1;
                continue;
            }
            self.cascade(slot, plan.release_ix, &mut P::default())?;
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
    fn handle_fault(&mut self, e: Fault) -> Result<(), Fault> {
        let FrameworkError::Faulted {
            component, kind, ..
        } = &*e.0
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
    fn contain_fault(&mut self, origin: usize, e: Fault) -> Result<(), Fault> {
        // The handler is the first slot on the path origin -> root whose
        // policy contains; `scope` is the branch root just below it (the
        // origin itself when the origin contains its own fault).
        let mut scope = origin;
        let handler = std::iter::once(origin)
            .chain(self.supervisor_chain(origin))
            .find(|&s| {
                let contains = self.fault_policy_at(s) != FaultPolicy::Escalate;
                if !contains {
                    scope = s;
                }
                contains
            });
        let Some(handler) = handler else {
            return Err(e); // root escalation: today's abort semantics
        };
        // Quarantine the failed subtree: the origin records the fault
        // itself; every other member is taken down *with* it (counted
        // drops at their gates), un-poisoned — their state is intact, the
        // handler merely recovers them as one unit.
        self.quarantine_slot(origin, &e.0);
        self.stats.faults_contained += 1;
        let subtree = self.subtree_slots(scope);
        if handler != origin {
            let handler_name = self.nodes[handler].name.clone();
            let origin_name = self.nodes[origin].name.clone();
            for &s in &subtree {
                if s != origin && !self.activation_plans[s].life.quarantined() {
                    self.quarantine(
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

    /// Quarantines `slot` after its own fault — poisoned for a panic,
    /// whose unwind may have left half-mutated state — and counts the
    /// fault.
    fn quarantine_slot(&mut self, slot: usize, fault: &FrameworkError) {
        let poison = matches!(
            fault,
            FrameworkError::Faulted {
                kind: FaultKind::Panic,
                ..
            }
        );
        self.quarantine(slot, poison, fault.to_string());
        self.supervisors[slot].faults += 1;
    }

    /// The lifecycle half of a quarantine, shared by the faulting slot and
    /// the rest of its failed subtree: the record gains the quarantine
    /// (and the poison, when `poison`; a poison stays until a restart),
    /// and the cold supervisor record keeps the detail for
    /// [`health_report`](Self::health_report). Fault *counting* is the
    /// caller's business: subtree members taken down alongside a faulting
    /// sibling did not themselves fault.
    fn quarantine(&mut self, slot: usize, poison: bool, detail: String) {
        let bits = if poison {
            Lifecycle::QUARANTINED | Lifecycle::POISONED
        } else {
            Lifecycle::QUARANTINED
        };
        let life = self.activation_plans[slot].life;
        self.set_lifecycle(slot, life.with(bits, true));
        self.supervisors[slot].fault_detail = Some(detail);
    }

    /// The declared supervisor chain above `slot`, nearest first — the one
    /// walk escalation, subtree membership, path rendering and both cycle
    /// checks share. It ends at a root or after a slot outside the engine
    /// (which it yields, for [`check_supervision`](Self::check_supervision)
    /// to report), and after `len + 1` hops, so a cycle can never spin it.
    fn supervisor_chain(&self, slot: usize) -> impl Iterator<Item = usize> + '_ {
        let up = |s: usize| Some(self.supervisors.get(s)?.supervisor? as usize);
        std::iter::successors(up(slot), move |&s| up(s)).take(self.supervisors.len() + 1)
    }

    /// The slots of the subtree rooted at `root` in the declared
    /// supervision tree: `root` plus every slot whose supervisor chain
    /// reaches it. Cold path (fault handling / subtree restart) — the
    /// healthy steady state never walks the tree.
    fn subtree_slots(&self, root: usize) -> Vec<usize> {
        let below = (0..self.supervisors.len())
            .filter(|&s| s != root && self.supervisor_chain(s).any(|up| up == root));
        std::iter::once(root).chain(below).collect()
    }

    /// Renders the escalation path `origin -> … -> handler` through the
    /// declared supervisor edges (the SOL-023 verdict subject).
    fn supervision_path_string(&self, origin: usize, handler: usize) -> String {
        let mut path = self.nodes[origin].name.clone();
        for up in self.supervisor_chain(origin) {
            path.push_str(" -> ");
            path.push_str(&self.nodes[up].name);
            if up == handler {
                break;
            }
        }
        path
    }

    /// Restarts a quarantined `slot` with a **fresh content instance** from
    /// the factory captured at build: the lifecycle record becomes plain
    /// started (the membrane's mirror clears its poison and transient
    /// interceptor state with it), `on_start` runs. Idempotent — a restart
    /// timer firing after a manual restart is a no-op.
    ///
    /// The boundary `checkpoint` capture, the factory, `on_start` and
    /// `restore` are user code outside any activation, so they run under
    /// one `catch_unwind`, and the fresh content is swapped into the slot's
    /// [`Instance`] in place only once all of them returned. A panic in any
    /// of them becomes the same typed fault a content panic does; the slot
    /// stays quarantined, now poisoned, with the outgoing content in
    /// place, and nothing is restarted.
    ///
    /// # Errors
    ///
    /// [`FrameworkError::Content`] for a bad slot;
    /// [`FrameworkError::RunToCompletion`] while an activation of the slot
    /// runs; [`FrameworkError::Faulted`] with [`FaultKind::Panic`] when a
    /// hook or the factory panicked.
    pub(crate) fn restart_slot(&mut self, slot: usize) -> Result<(), FrameworkError> {
        if slot >= self.nodes.len() {
            return Err(FrameworkError::Content(format!("bad slot {slot}")));
        }
        let plan = self.activation_plans[slot];
        if !plan.life.quarantined() {
            return Ok(());
        }
        let checkpointed = plan.checkpoint_ix != u16::MAX;
        let System {
            nodes,
            checkpoints,
            factories,
            ..
        } = self;
        let Some(instance) = nodes[slot].instance.as_deref_mut() else {
            return Err(self.reentrant(slot).into());
        };
        let fresh = catch_unwind(AssertUnwindSafe(|| {
            let mut cp = checkpoints[slot].as_deref_mut().filter(|_| checkpointed);
            // Warm-state handoff, capture half: a checkpoint-enabled slot
            // checkpoints the *outgoing* instance at the activation
            // boundary — unless the slot is poisoned (a panic may have
            // left half-mutated state), in which case the last healthy
            // cadence image is the only trustworthy source. The boundary
            // capture of a *healthy* fault is by definition the freshest
            // healthy state: it becomes the new healthy image.
            if !plan.life.poisoned() {
                if let Some(cp) = cp.as_deref_mut() {
                    cp.capture(&*instance.content);
                }
            }
            // Fresh instance, same class: the original deploy-time state
            // charge stands (same content class, same `state_bytes`), so
            // no re-charge against the area budget.
            let mut content = (factories[slot])();
            content.on_start();
            // Warm-state handoff, restore half: the fresh instance starts,
            // then the last healthy image is installed (just captured at
            // the boundary for healthy faults; the last cadence capture
            // when the slot was poisoned).
            if let Some(cp) = cp {
                if cp.valid {
                    content.restore(&cp.image);
                    cp.restores += 1;
                }
                cp.since_capture = 0;
            }
            content
        }));
        match fresh {
            Ok(content) => instance.content = content,
            Err(payload) => {
                let fault = FrameworkError::from(self.caught_panic(slot, payload));
                self.quarantine(slot, true, fault.to_string());
                return Err(fault);
            }
        }
        self.set_lifecycle(slot, Lifecycle(Lifecycle::STARTED));
        let sup = &mut self.supervisors[slot];
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
        for slot in self.subtree_slots(root) {
            self.restart_slot(slot)?;
        }
        Ok(())
    }

    /// Declares `slot`'s fault policy. Allowed in **every** mode —
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
    ) -> Result<(), FrameworkError> {
        if slot >= self.nodes.len() {
            return Err(FrameworkError::Content(format!("bad slot {slot}")));
        }
        if self.supervisors[slot].policy != policy {
            // The old policy's pending restart must not fire under the new
            // one.
            self.cancel_restart_timer(slot);
        }
        self.supervisors[slot].policy = policy;
        Ok(())
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
            if self.supervisor_chain(sup).any(|up| up == slot) {
                return Err(FrameworkError::Content(format!(
                    "supervision cycle: '{}' is (transitively) supervised by '{}'",
                    self.nodes[sup].name, self.nodes[slot].name
                )));
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
        let len = self.supervisors.len();
        for slot in 0..len {
            for (hop, up) in self.supervisor_chain(slot).enumerate() {
                let broken = if up >= len {
                    format!("edge of '{}' names bad slot {up}", self.nodes[slot].name)
                } else if up == slot {
                    format!("cycle through '{}'", self.nodes[slot].name)
                } else if hop == len {
                    format!("cycle reachable from '{}'", self.nodes[slot].name)
                } else {
                    continue;
                };
                return Err(FrameworkError::Content(format!("supervision {broken}")));
            }
        }
        Ok(())
    }

    /// The pre-image of `slot`'s supervision declaration — its fault
    /// policy and supervisor edge — taken before a journaled write.
    pub(crate) fn supervision_at(&self, slot: usize) -> SupervisionPreImage {
        let sup = &self.supervisors[slot];
        SupervisionPreImage {
            policy: sup.policy,
            supervisor: sup.supervisor,
        }
    }

    /// Writes a [`supervision_at`](Self::supervision_at) pre-image back —
    /// the rollback of a policy or supervisor write. It re-checks nothing
    /// and arms no timer: the pre-image was valid before the transaction.
    pub(crate) fn restore_supervision(&mut self, slot: usize, pre: SupervisionPreImage) {
        let sup = &mut self.supervisors[slot];
        sup.policy = pre.policy;
        sup.supervisor = pre.supervisor;
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
    /// The probe's `state_bytes` and `checkpoint` are user code outside
    /// any activation, so they run under one `catch_unwind`, and a panic
    /// in either becomes the typed fault a content panic does, with
    /// nothing enabled.
    ///
    /// # Errors
    ///
    /// [`FrameworkError::Content`] for a bad slot, a zero cadence, or
    /// content that does not implement the capability;
    /// [`FrameworkError::Faulted`] with [`FaultKind::Panic`] when the probe
    /// panicked.
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
        let Some(content) = self.nodes[slot].instance.as_ref().map(|i| &*i.content) else {
            return Err(FrameworkError::Content(format!(
                "component '{}' has no content instance",
                self.nodes[slot].name
            )));
        };
        let (limit, image, implemented) = catch_unwind(AssertUnwindSafe(|| {
            let limit = content.state_bytes().max(1);
            let mut image = StateImage::with_limit(limit);
            let implemented = content.checkpoint(&mut image);
            (limit, image, implemented)
        }))
        .map_err(|payload| self.caught_panic(slot, payload))?;
        if !implemented {
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
    /// activation whose `on_invoke` succeeded and, every `cadence` of
    /// them, captures `content` (checked out by the running
    /// [`boundary`](Self::boundary), whose catch contains a panicking
    /// hook) into the preallocated healthy image. Off-cadence activations
    /// cost one increment and one compare; on-cadence captures reuse the
    /// image storage — no allocation either way.
    fn cadence_checkpoint(&mut self, slot: usize, content: &dyn Content<P>) {
        let Some(cp) = self.checkpoints[slot].as_deref_mut() else {
            return;
        };
        cp.since_capture += 1;
        if cp.since_capture < cp.cadence {
            return;
        }
        cp.since_capture = 0;
        cp.capture(content);
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
        self.activation_plans
            .get(slot)
            .is_some_and(|p| p.life.quarantined())
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
            if self.activation_plans[slot].life.quarantined() {
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
        // The binding rows SOLEIL and MERGE-ALL both route through.
        let rows: usize = self
            .compiled
            .iter()
            .map(|v| {
                std::mem::size_of::<Vec<CompiledBinding>>()
                    + v.iter()
                        .map(|b| std::mem::size_of::<CompiledBinding>() + b.port.len())
                        .sum::<usize>()
            })
            .sum();
        let framework_bytes = match self.mode {
            Mode::Soleil => {
                let membranes: usize = self
                    .membranes
                    .iter()
                    .flatten()
                    .map(|m| m.footprint_bytes())
                    .sum();
                membranes + rows + self.dispatch_plan_bytes()
            }
            Mode::MergeAll => rows + self.dispatch_plan_bytes(),
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

/// The scoped chain a thread standing in runtime area `area` enters,
/// outermost first, as substrate ids.
fn scope_ids(areas: &[RuntimeArea], area: usize) -> Vec<AreaId> {
    scoped_chain(area, |ix| (areas[ix].kind, areas[ix].parent))
        .into_iter()
        .map(|ix| areas[ix].id)
        .collect()
}

/// `node`'s server-port names, read from its [`Instance`] (none while an
/// activation of it runs; every caller is a cold path outside one).
fn server_ports<P: Payload>(node: &Node<P>) -> &[Box<str>] {
    node.instance.as_ref().map_or(&[], |i| &i.server_ports)
}

fn port_index<P: Payload>(node: &Node<P>, port: &str) -> Result<u16, FrameworkError> {
    server_ports(node)
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
// The Ports façade
// ---------------------------------------------------------------------------

/// The [`Ports`] façade handed to content during an invocation, one for
/// every mode. A client port resolves to a compiled row of the invoking
/// slot — through SOLEIL's binding controller or the merged modes' jump
/// table — and the row's header routes the call or send. The only other
/// mode branch is ULTRA-MERGE's uncounted synchronous call.
struct EnginePorts<'a, P: Payload> {
    sys: &'a mut System<P>,
    /// The invoking component.
    slot: usize,
    /// SOLEIL: the invoking component's membrane, checked out for the
    /// invocation; its controller resolves ports to rows of
    /// `sys.compiled[slot]`. `None` in the merged modes.
    membrane: Option<&'a mut Membrane>,
    ctx: &'a mut MemoryContext,
}

impl<P: Payload> EnginePorts<'_, P> {
    /// Interned resolution: one index into the controller's or the slot's
    /// jump table yields the row — no string compare, no scan, no
    /// refcount. `None` when unbound here.
    #[inline(always)]
    fn by_id(&self, id: PortId) -> Option<DispatchHeader> {
        let row = match &self.membrane {
            Some(m) => m.binding.resolve_id(id)?,
            None => *self.sys.port_jump[self.slot].get(id.0 as usize)? as usize,
        };
        self.row(row)
    }

    /// The cold string-fallback resolution for name-based callers: a
    /// short-circuit scan over the controller or the slot's rows, counted
    /// so steady-state tests can assert interned transactions never take
    /// it.
    fn by_name(&self, port: &str) -> Option<DispatchHeader> {
        let sys = &*self.sys;
        sys.string_compares.set(sys.string_compares.get() + 1);
        let row = match (&self.membrane, sys.mode) {
            (Some(m), _) => m.binding.resolve(port)?,
            (None, Mode::UltraMerge) => {
                let (s, e) = sys.ultra_ranges[self.slot];
                let mut scan = sys.ultra_table[s as usize..e as usize].iter();
                s as usize + scan.position(|b| b.port.as_ref() == port)?
            }
            (None, _) => sys.compiled[self.slot]
                .iter()
                .position(|b| b.port.as_ref() == port)?,
        };
        self.row(row)
    }

    /// The `Copy` header of row `row`: a `compiled[slot]` position, or an
    /// absolute `ultra_table` index under ULTRA-MERGE.
    #[inline(always)]
    fn row(&self, row: usize) -> Option<DispatchHeader> {
        let rows = match self.sys.mode {
            Mode::UltraMerge => &self.sys.ultra_table,
            Mode::Soleil | Mode::MergeAll => &self.sys.compiled[self.slot],
        };
        rows.get(row).map(|b| b.header)
    }

    /// The id `port` memoized under this engine's dispatch plan; a memo
    /// stamped under another plan is re-interned (the cold, counted name
    /// scan). `None` when the name is outside the intern universe.
    #[inline(always)]
    fn interned(&self, port: &InternedPort) -> Option<PortId> {
        let sys = &*self.sys;
        port.id_in(sys.dispatch_generation, |name| sys.intern_port(name))
    }

    /// The synchronous body behind both resolution paths: the one
    /// crossing routine, in every mode. A fault is unboxed here, at the
    /// façade's edge.
    #[inline(always)]
    fn call_row(&mut self, h: DispatchHeader, msg: &mut P) -> InvokeResult {
        if self.sys.mode != Mode::UltraMerge {
            self.sys.stats.sync_calls += 1;
        }
        Ok(self.sys.cross_scope_call(h, msg, self.ctx)?)
    }

    /// The asynchronous body: same-engine exchange buffer or cross-domain
    /// ring, decided at deploy time.
    #[inline(always)]
    fn send_row(&mut self, h: DispatchHeader, msg: P) -> InvokeResult {
        if h.is_cross {
            self.sys.enqueue_cross(h.buffer_ix, msg);
            return Ok(());
        }
        Ok(self.sys.enqueue(h.buffer_ix, msg, self.ctx)?)
    }

    /// The error of a port that is unbound (`bound` false), or bound with
    /// the other protocol; `send` is true for a send. An interned id's
    /// name is rebuilt from the intern universe, so cold failures read
    /// identically on both resolution paths.
    #[cold]
    #[inline(never)]
    fn refuse(&self, port: &str, bound: bool, send: bool) -> FrameworkError {
        FrameworkError::Binding(if !bound {
            format!(
                "client port '{port}' of '{}' is unbound",
                self.sys.nodes[self.slot].name
            )
        } else if send {
            format!("port '{port}' is synchronous; use call()")
        } else {
            format!("port '{port}' is asynchronous; use send()")
        })
    }
}

impl<P: Payload> Ports<P> for EnginePorts<'_, P> {
    fn call(&mut self, client_port: &str, msg: &mut P) -> InvokeResult {
        match self.by_name(client_port) {
            Some(h) if !h.is_async => self.call_row(h, msg),
            found => Err(self.refuse(client_port, found.is_some(), false)),
        }
    }

    fn send(&mut self, client_port: &str, msg: P) -> InvokeResult {
        match self.by_name(client_port) {
            Some(h) if h.is_async => self.send_row(h, msg),
            found => Err(self.refuse(client_port, found.is_some(), true)),
        }
    }

    fn call_port(&mut self, port: &InternedPort, msg: &mut P) -> InvokeResult {
        let Some(id) = self.interned(port) else {
            return self.call(port.name(), msg);
        };
        match self.by_id(id) {
            Some(h) if !h.is_async => self.call_row(h, msg),
            found => Err(self.refuse(self.sys.port_name(id), found.is_some(), false)),
        }
    }

    fn send_port(&mut self, port: &InternedPort, msg: P) -> InvokeResult {
        let Some(id) = self.interned(port) else {
            return self.send(port.name(), msg);
        };
        match self.by_id(id) {
            Some(h) if h.is_async => self.send_row(h, msg),
            found => Err(self.refuse(self.sys.port_name(id), found.is_some(), true)),
        }
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
    use std::sync::atomic::AtomicU64;
    use std::sync::Arc;

    impl<P: Payload> System<P> {
        /// True when the Checkpoint capability is enabled for `slot`.
        fn checkpoint_enabled_at(&self, slot: usize) -> bool {
            self.checkpoints.get(slot).is_some_and(|c| c.is_some())
        }
    }

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
                },
                ComponentSpec {
                    name: "middle".into(),
                    content_class: "Middle".into(),
                    activation: Activation::Sporadic,
                    domain: Some(1),
                    area: 0,
                    server_ports: vec!["in".into()],
                },
                ComponentSpec {
                    name: "service".into(),
                    content_class: "Service".into(),
                    activation: Activation::Passive,
                    domain: None,
                    area: 1,
                    server_ports: vec!["svc".into()],
                },
                ComponentSpec {
                    name: "sink".into(),
                    content_class: "Sink".into(),
                    activation: Activation::Sporadic,
                    domain: Some(2),
                    area: 2,
                    server_ports: vec!["log".into()],
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
                },
                BindingSpec {
                    client: 1,
                    client_port: "svc".into(),
                    server: 2,
                    server_port: "svc".into(),
                    protocol: ProtocolSpec::Sync,
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

    /// A deployment, with its engine per thread-domain shard, may move to
    /// another thread: the whole `System` must be `Send` (no `Rc`, no
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
    /// the single-pass gate, passives skip the walk entirely).
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
                }
                _ => {
                    assert!(matches!(info, Err(FrameworkError::Unsupported(_))));
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
    /// allocation placement and because its `ExecuteInOuter` call into
    /// the enclosing scope is admitted only while that scope is on the
    /// stack (regression: `drain` used to invoke consumers without
    /// entering their chain).
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
                },
                ComponentSpec {
                    name: "middle".into(),
                    content_class: "Middle".into(),
                    activation: Activation::Sporadic,
                    domain: Some(1),
                    area: 2, // nested scope S2: chain is [S1, S2]
                    server_ports: vec!["in".into()],
                },
                ComponentSpec {
                    name: "service".into(),
                    content_class: "Service".into(),
                    activation: Activation::Passive,
                    domain: None,
                    area: 1, // enclosing scope S1
                    server_ports: vec!["svc".into()],
                },
                ComponentSpec {
                    name: "sink".into(),
                    content_class: "Sink".into(),
                    activation: Activation::Sporadic,
                    domain: Some(2),
                    area: 0,
                    server_ports: vec!["log".into()],
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
                },
                // The drained consumer's sync call switches outward into
                // its enclosing scope: ExecuteInOuter, admitted only with
                // the chain on the stack.
                BindingSpec {
                    client: 1,
                    client_port: "svc".into(),
                    server: 2,
                    server_port: "svc".into(),
                    protocol: ProtocolSpec::Sync,
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
    /// back to its *name* in the error, and the string-scan fallback
    /// reports the same text — with SOLEIL's controller resolution and
    /// the merged modes' jump table alike.
    #[test]
    fn unbound_port_errors_report_the_name_after_interning() {
        const UNBOUND: &str = "binding error: client port 'out' of 'middle' is unbound";
        for mode in [Mode::MergeAll, Mode::Soleil] {
            // "out" is in the deployment's intern universe (the producer's
            // port) but is not bound on the middle slot.
            let spec = pipeline_spec();
            let mut sys = System::build(&spec, mode, &registry()).unwrap();
            let middle = sys.slot_of("middle").unwrap();
            let mut membrane = sys.membranes.get_mut(middle).and_then(Option::take);
            let mut ctx = sys.mm.context(ThreadKind::Realtime);
            let mut ports = EnginePorts {
                sys: &mut sys,
                slot: middle,
                membrane: membrane.as_deref_mut(),
                ctx: &mut ctx,
            };
            let port = InternedPort::new("out");
            let mut tok = Token::default();
            let interned = ports.call_port(&port, &mut tok).unwrap_err();
            assert_eq!(interned.to_string(), UNBOUND, "{mode}");
            assert!(
                ports.interned(&port).is_some(),
                "{mode}: interned, not by name"
            );
            let by_name = ports.call("out", &mut tok).unwrap_err();
            assert_eq!(by_name.to_string(), UNBOUND, "{mode}");
            let sent = ports.send_port(&port, Token::default()).unwrap_err();
            assert_eq!(sent.to_string(), UNBOUND, "{mode}");
            if let Some(m) = membrane {
                sys.membranes[middle] = Some(m);
            }
        }
    }

    /// A rebind-and-revert cycle must restore the dispatch plan
    /// byte-identically: the header compares equal and the shared
    /// enter-path arena does not grow (the intern step reuses the
    /// original range instead of appending a duplicate). SOLEIL routes
    /// through the same rows.
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
        });
        for mode in [Mode::Soleil, Mode::MergeAll] {
            let mut sys = System::build(&spec, mode, &registry()).unwrap();
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
            assert_ne!(
                svc_header(&sys),
                original,
                "{mode}: rebind recompiled the plan"
            );
            sys.rebind_at(middle, "svc", service).unwrap();

            assert_eq!(
                svc_header(&sys),
                original,
                "{mode}: revert restored the header"
            );
            assert_eq!(
                sys.enter_arena.len(),
                arena_len,
                "{mode}: enter-path interning deduplicated the restored range"
            );
            assert_eq!(
                sys.port_jump, jump,
                "{mode}: jump table is back to the original"
            );
        }
    }

    /// SOLEIL and MERGE-ALL route through one binding table: both builds of
    /// the pipeline compile equal rows, and the same rebind and re-homing
    /// keep them equal.
    #[test]
    fn soleil_and_merge_all_compile_and_rewrite_equal_rows() {
        let mut spec = pipeline_spec();
        spec.components.push(ComponentSpec {
            name: "service2".into(),
            content_class: "Service".into(),
            activation: Activation::Passive,
            domain: None,
            area: 0,
            server_ports: vec!["svc".into()],
        });
        let rows = |sys: &System<Token>| -> Vec<Vec<(String, DispatchHeader)>> {
            let row = |b: &CompiledBinding| (b.port.to_string(), b.header);
            sys.compiled
                .iter()
                .map(|rows| rows.iter().map(row).collect())
                .collect()
        };
        let mut soleil = System::build(&spec, Mode::Soleil, &registry()).unwrap();
        let mut merged = System::build(&spec, Mode::MergeAll, &registry()).unwrap();
        assert_eq!(rows(&soleil), rows(&merged), "built rows");
        assert!(rows(&soleil).iter().any(|r| !r.is_empty()));

        let middle = soleil.slot_of("middle").unwrap();
        let service2 = soleil.slot_of("service2").unwrap();
        let heap = soleil.area_ix_by_name("H1").unwrap();
        for sys in [&mut soleil, &mut merged] {
            sys.rebind_at(middle, "svc", service2).unwrap();
        }
        assert_eq!(rows(&soleil), rows(&merged), "after rebind_at");
        for sys in [&mut soleil, &mut merged] {
            sys.rehome_area_at(service2, heap, &mut Vec::new()).unwrap();
        }
        assert_eq!(rows(&soleil), rows(&merged), "after rehome_area_at");
        assert_eq!(
            soleil.compiled[middle][soleil.row_of(middle, "svc").unwrap()]
                .header
                .server_area,
            AreaId::HEAP,
            "the re-homed server's area reached the client's row"
        );
    }

    /// Rolling back a re-homing writes every rewritten row's pre-image
    /// back: rows and the structural digest return byte-identically,
    /// including the fixture's hand-written asynchronous rows, whose
    /// pattern the one rule would not pick for their placement.
    #[test]
    fn rehome_rollback_restores_every_row_byte_identically() {
        for mode in [Mode::Soleil, Mode::MergeAll] {
            let spec = pipeline_spec();
            let mut sys = System::build(&spec, mode, &registry()).unwrap();
            let middle = sys.slot_of("middle").unwrap();
            let heap = sys.area_ix_by_name("H1").unwrap();
            let rows = |sys: &System<Token>| -> Vec<Vec<DispatchHeader>> {
                let headers = |r: &Vec<CompiledBinding>| r.iter().map(|b| b.header).collect();
                sys.compiled.iter().map(headers).collect()
            };
            let (rows0, digest0) = (rows(&sys), sys.structural_digest());

            let mut pre_images = Vec::new();
            let undo = sys.rehome_area_at(middle, heap, &mut pre_images).unwrap();
            assert_ne!(rows(&sys), rows0, "{mode}: re-homing rewrote rows");
            sys.restore_area(undo, &mut pre_images);
            assert!(
                pre_images.is_empty(),
                "{mode}: every pre-image was taken back"
            );

            assert_eq!(rows(&sys), rows0, "{mode}: every row is back");
            assert_eq!(sys.structural_digest(), digest0, "{mode}");
            let head = sys.slot_of("producer").unwrap();
            sys.run_transaction(head).unwrap();
        }
    }

    /// A station of the crossing table: records its visit, then calls its
    /// client ports in order and records how each call ended. The head
    /// also publishes the finished trace.
    #[derive(Debug)]
    struct Station {
        name: &'static str,
        calls: Vec<&'static str>,
        trace: Option<Arc<std::sync::Mutex<Vec<String>>>>,
    }
    impl Content<Token> for Station {
        fn on_invoke(
            &mut self,
            _port: &str,
            msg: &mut Token,
            out: &mut dyn Ports<Token>,
        ) -> InvokeResult {
            msg.hops.push(self.name.into());
            msg.value += 1;
            for port in &self.calls {
                let ended = match out.call(port, msg) {
                    Ok(()) => "ok".to_string(),
                    Err(e) => e.to_string(),
                };
                msg.hops.push(format!("{port}: {ended}"));
            }
            if let Some(trace) = &self.trace {
                *trace.lock().unwrap() = msg.hops.clone();
            }
            Ok(())
        }
    }

    /// One table drives every arm of the one crossing routine, in every
    /// mode, through a hand-written spec (areas `Imm` ⊃ `Outer` ⊃ `Inner`,
    /// and `Sib` beside `Outer`) whose rows the one rule compiles from the
    /// placements: `Direct`; a nested `EnterInner`; `ExecuteInOuter` into
    /// a scope the caller's chain holds; `HandoffThroughParent` between
    /// sibling scopes, whose copy-back makes the server's changes visible
    /// to the caller; and the immortal `imm2`'s `EnterInner` into `Outer`,
    /// which the substrate refuses while `Inner`'s call has `Outer` and
    /// `Inner` on the stack and admits from the head's empty stack. The
    /// refusal leaves the scope stack as it was, and every scope ends the
    /// transaction held by its wedge pins alone. The modes must agree on
    /// every call.
    #[test]
    fn one_crossing_routine_runs_every_pattern_alike_in_every_mode() {
        use PatternKind::*;
        /// (client, port, server, the pattern the rule picks)
        type Crossing = (&'static str, &'static str, &'static str, PatternKind);
        let table: [Crossing; 8] = [
            ("head", "direct", "imm", Direct),
            ("head", "enter", "inner", EnterInner),
            ("inner", "up", "outer", ExecuteInOuter),
            ("inner", "down", "imm2", Direct),
            ("imm2", "walk", "outer", EnterInner),
            ("head", "again", "imm2", Direct),
            ("head", "sib", "sib", EnterInner),
            ("sib", "handoff", "outer", HandoffThroughParent),
        ];
        // (component, area)
        let placed = [
            ("head", 0),
            ("imm", 0),
            ("imm2", 0),
            ("outer", 1),
            ("inner", 2),
            ("sib", 3),
        ];
        let area = |name: &str, kind, parent| AreaSpec {
            name: name.into(),
            kind,
            size: Some(16 * 1024),
            parent,
        };
        let index = |name: &str| placed.iter().position(|&(n, _)| n == name).unwrap();
        let spec = SystemSpec {
            name: "crossings".into(),
            areas: vec![
                area("Imm", MemoryKind::Immortal, None),
                area("Outer", MemoryKind::Scoped, Some(0)),
                area("Inner", MemoryKind::Scoped, Some(1)),
                area("Sib", MemoryKind::Scoped, Some(0)),
            ],
            domains: vec![DomainSpec {
                name: "rt".into(),
                kind: ThreadKind::Realtime,
                priority: 20,
            }],
            components: placed
                .iter()
                .map(|&(name, area)| ComponentSpec {
                    name: name.into(),
                    content_class: name.into(),
                    activation: if name == "head" {
                        Activation::Periodic {
                            period: RelativeTime::from_millis(10),
                        }
                    } else {
                        Activation::Passive
                    },
                    domain: (name == "head").then_some(0),
                    area,
                    server_ports: if name == "head" {
                        vec![]
                    } else {
                        vec!["svc".into()]
                    },
                })
                .collect(),
            bindings: table
                .iter()
                .map(|&(client, port, server, _)| BindingSpec {
                    client: index(client),
                    client_port: port.into(),
                    server: index(server),
                    server_port: "svc".into(),
                    protocol: ProtocolSpec::Sync,
                })
                .collect(),
        };

        let mut runs = Vec::new();
        for mode in [Mode::Soleil, Mode::MergeAll, Mode::UltraMerge] {
            let trace = Arc::new(std::sync::Mutex::new(Vec::new()));
            let mut reg = ContentRegistry::new();
            for &(name, _) in &placed {
                let calls: Vec<&'static str> =
                    table.iter().filter(|t| t.0 == name).map(|t| t.1).collect();
                let trace = (name == "head").then(|| trace.clone());
                reg.register(name, move || {
                    Box::new(Station {
                        name,
                        calls: calls.clone(),
                        trace: trace.clone(),
                    })
                });
            }
            let mut sys = System::build(&spec, mode, &reg).unwrap();
            for (bix, &(client, port, _, pattern)) in table.iter().enumerate() {
                let slot = sys.slot_of(client).unwrap();
                let rows = match mode {
                    Mode::UltraMerge => {
                        let (s, e) = sys.ultra_ranges[slot];
                        &sys.ultra_table[s as usize..e as usize]
                    }
                    _ => &sys.compiled[slot][..],
                };
                let h = rows
                    .iter()
                    .find(|b| b.port.as_ref() == port)
                    .unwrap()
                    .header;
                assert_eq!(h.pattern, pattern, "{mode}: {port}");
                assert_eq!(spec.crossing(bix).0, pattern, "{mode}: plan {port}");
            }
            let scopes = |sys: &System<Token>| {
                ["Outer", "Inner", "Sib"].map(|name| {
                    let id = sys.memory().area_by_name(name).unwrap();
                    let stats = sys.memory().stats(id).unwrap();
                    (sys.memory().enter_count(id).unwrap(), stats.reclaim_count)
                })
            };
            let pinned = scopes(&sys);
            let head = sys.slot_of("head").unwrap();
            sys.run_transaction(head).unwrap();
            assert_eq!(
                scopes(&sys),
                pinned,
                "{mode}: only the wedge pins hold scopes"
            );
            let trace = trace.lock().unwrap().clone();
            runs.push((mode, trace));
        }

        let (_, trace) = &runs[0];
        assert!(
            trace[7].starts_with("walk: ") && trace[7].contains("single parent rule"),
            "{trace:?}"
        );
        let mut expected = vec![
            "head",
            "imm",
            "direct: ok",
            "inner",
            "outer",
            "up: ok",
            "imm2",
            "",
            "down: ok",
            "enter: ok",
            "imm2",
            "outer",
            "walk: ok",
            "again: ok",
            "sib",
            "outer",
            "handoff: ok",
            "sib: ok",
        ];
        expected[7] = trace[7].as_str();
        assert_eq!(*trace, expected, "{trace:?}");
        // The handoff server ran on a copy: its visit reached the caller
        // only through the copy-back (the `outer` after `sib`).
        for (mode, other) in &runs[1..] {
            assert_eq!(other, trace, "{mode}");
        }
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

    /// The latency scope of a contract: a release's latency covers its
    /// whole drained cascade, a delivered message's only its own
    /// activation. A sink that sleeps 30 ms downstream of the middle
    /// therefore breaks the producer's 20 ms deadline on every
    /// transaction and leaves the middle's untouched.
    #[test]
    fn release_latency_spans_the_cascade_and_delivery_latency_one_activation() {
        #[derive(Debug, Default)]
        struct SlowSink;
        impl Content<Token> for SlowSink {
            fn on_invoke(
                &mut self,
                _port: &str,
                _msg: &mut Token,
                _out: &mut dyn Ports<Token>,
            ) -> InvokeResult {
                std::thread::sleep(std::time::Duration::from_millis(30));
                Ok(())
            }
        }
        let mut registry = registry();
        registry.register("SlowSink", || Box::new(SlowSink));
        let mut spec = pipeline_spec();
        spec.components[3].content_class = "SlowSink".into();
        let deadline = TimingContract::new().with_deadline(RelativeTime::from_millis(20));
        for mode in [Mode::Soleil, Mode::MergeAll, Mode::UltraMerge] {
            let mut sys = System::build(&spec, mode, &registry).unwrap();
            let producer = sys.slot_of("producer").unwrap();
            let middle = sys.slot_of("middle").unwrap();
            sys.attach_contract_at(producer, deadline.clone()).unwrap();
            sys.attach_contract_at(middle, deadline.clone()).unwrap();
            for _ in 0..3 {
                sys.run_transaction(producer).unwrap();
            }
            let released = sys.latency_snapshot_at(producer).unwrap();
            assert_eq!(released.deadline_misses, 3, "{mode}: {released:?}");
            assert!(released.min_ns >= 30_000_000, "{mode}: {released:?}");
            let delivered = sys.latency_snapshot_at(middle).unwrap();
            assert_eq!(delivered.activations, 3, "{mode}");
            assert_eq!(delivered.deadline_misses, 0, "{mode}: {delivered:?}");
        }
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

    /// The drain keeps one domain's context checked out across a run of
    /// its activations, so it must switch contexts whenever the domain
    /// changes and return the held one on every exit. The cascade
    /// alternates NHRT and heap-capable domains; every stage also sends on
    /// a heap-placed probe buffer, which the substrate refuses exactly when
    /// the sender runs under an NHRT context. An escalated fault mid-drain
    /// must hand every context back, so the next transaction does not find
    /// a domain "already executing".
    #[test]
    fn drain_runs_each_activation_under_its_own_domain_context() {
        type Log = Arc<std::sync::Mutex<Vec<(&'static str, bool)>>>;
        #[derive(Debug)]
        struct Stage {
            name: &'static str,
            next: bool,
            log: Log,
        }
        impl Content<Token> for Stage {
            fn on_invoke(
                &mut self,
                _port: &str,
                msg: &mut Token,
                out: &mut dyn Ports<Token>,
            ) -> InvokeResult {
                let refused = matches!(
                    out.send("probe", msg.clone()),
                    Err(FrameworkError::Rtsj(rtsj::RtsjError::MemoryAccess { .. }))
                );
                self.log.lock().unwrap().push((self.name, refused));
                if self.next {
                    out.send("next", msg.clone())?;
                }
                Ok(())
            }
        }

        let domain = |name: &str, kind, priority| DomainSpec {
            name: name.into(),
            kind,
            priority,
        };
        let stage = |name: &str, activation, domain, area| ComponentSpec {
            name: name.into(),
            content_class: name.into(),
            activation,
            domain: Some(domain),
            area,
            server_ports: if domain == 0 {
                vec![]
            } else {
                vec!["in".into()]
            },
        };
        let binding = |client, port: &str, server, server_port: &str, placement| BindingSpec {
            client,
            client_port: port.into(),
            server,
            server_port: server_port.into(),
            protocol: ProtocolSpec::Async {
                capacity: 8,
                placement,
            },
        };
        let (nhrt, regular) = (ThreadKind::NoHeapRealtime, ThreadKind::Regular);
        let spec = SystemSpec {
            name: "alternating-domains".into(),
            areas: vec![
                AreaSpec {
                    name: "Imm1".into(),
                    kind: MemoryKind::Immortal,
                    size: Some(64 * 1024),
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
                domain("n0", nhrt, 40),
                domain("r1", regular, 35),
                domain("n2", nhrt, 30),
                domain("r3", regular, 25),
                domain("sink", regular, 10),
            ],
            components: vec![
                stage(
                    "n0",
                    Activation::Periodic {
                        period: RelativeTime::from_millis(10),
                    },
                    0,
                    0,
                ),
                stage("r1", Activation::Sporadic, 1, 1),
                stage("n2", Activation::Sporadic, 2, 0),
                stage("r3", Activation::Sporadic, 3, 1),
                ComponentSpec {
                    name: "sink".into(),
                    content_class: "Sink".into(),
                    activation: Activation::Sporadic,
                    domain: Some(4),
                    area: 1,
                    server_ports: vec!["probe".into()],
                },
            ],
            bindings: vec![
                binding(0, "next", 1, "in", BufferPlacement::Immortal),
                binding(1, "next", 2, "in", BufferPlacement::Immortal),
                binding(2, "next", 3, "in", BufferPlacement::Immortal),
                binding(0, "probe", 4, "probe", BufferPlacement::Heap),
                binding(1, "probe", 4, "probe", BufferPlacement::Heap),
                binding(2, "probe", 4, "probe", BufferPlacement::Heap),
                binding(3, "probe", 4, "probe", BufferPlacement::Heap),
            ],
        };
        // NHRT stages are refused the heap probe, heap-capable ones are not.
        let expected = [("n0", true), ("r1", false), ("n2", true), ("r3", false)];
        for mode in [Mode::Soleil, Mode::MergeAll, Mode::UltraMerge] {
            let log: Log = Arc::default();
            let mut registry = registry();
            for (name, next) in [("n0", true), ("r1", true), ("n2", true), ("r3", false)] {
                let log = Arc::clone(&log);
                registry.register(name, move || {
                    Box::new(Stage {
                        name,
                        next,
                        log: Arc::clone(&log),
                    })
                });
            }
            let mut sys = System::build(&spec, mode, &registry).unwrap();
            let head = sys.slot_of("n0").unwrap();
            let all_returned = |sys: &System<Token>| sys.domains.iter().all(|d| d.ctx.is_some());

            sys.run_transaction(head).unwrap();
            assert_eq!(*log.lock().unwrap(), expected, "{mode}");
            // n0 at the head, then r1, n2, r3 and the sink twice in a row.
            assert_eq!(sys.stats().activations, 6, "{mode}");
            assert!(all_returned(&sys), "{mode}");

            // r3 faults on its drained activation under the default
            // Escalate policy: the drain aborts while holding r3's context.
            let r3 = sys.slot_of("r3").unwrap();
            sys.install_fault_injector_at(
                r3,
                FaultInjector::new("r3", 5, 1).with_menu(FaultInjector::MENU_ERROR),
            )
            .unwrap();
            log.lock().unwrap().clear();
            let err = sys.run_transaction(head).unwrap_err();
            assert!(
                matches!(&err, FrameworkError::Faulted { component, .. } if component == "r3"),
                "{mode}: {err}"
            );
            assert!(
                all_returned(&sys),
                "{mode}: escalation returned every context"
            );

            sys.install_fault_injector_at(r3, FaultInjector::new("r3", 5, 0))
                .unwrap();
            log.lock().unwrap().clear();
            sys.run_transaction(head)
                .unwrap_or_else(|e| panic!("{mode}: the next transaction runs: {e}"));
            assert_eq!(*log.lock().unwrap(), expected, "{mode}");
            assert!(all_returned(&sys), "{mode}");
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

    /// Every fault source keeps its exact error through the engine's
    /// one-pointer internal path, in every mode: a content `Err` crossing
    /// a synchronous call, a drained consumer's panic, a re-entrant
    /// synchronous cycle, a call into a stopped component and an unbound
    /// interned port. Under `Escalate` the value `run_transaction` returns,
    /// and under `Isolate` the returned value and every recorded fault,
    /// equal the values pinned here.
    #[test]
    fn every_fault_source_carries_its_exact_error() {
        #[derive(Debug, Clone, Copy, PartialEq)]
        enum Source {
            ContentErr,
            Panic,
            Cycle,
            Stopped,
            Unbound,
        }
        /// `middle`: calls the service through `port`, then logs.
        #[derive(Debug)]
        struct Caller(InternedPort);
        impl Content<Token> for Caller {
            fn on_invoke(
                &mut self,
                _port: &str,
                msg: &mut Token,
                out: &mut dyn Ports<Token>,
            ) -> InvokeResult {
                self.0.call(out, msg)?;
                out.send("log", msg.clone())
            }
        }
        #[derive(Debug)]
        struct Svc(Source);
        impl Content<Token> for Svc {
            fn on_invoke(
                &mut self,
                _port: &str,
                msg: &mut Token,
                out: &mut dyn Ports<Token>,
            ) -> InvokeResult {
                match self.0 {
                    Source::ContentErr => Err(FrameworkError::Faulted {
                        component: "service".into(),
                        kind: FaultKind::Error,
                        detail: "service refused".into(),
                    }),
                    Source::Cycle => out.call("back", msg),
                    _ => Ok(()),
                }
            }
        }
        #[derive(Debug)]
        struct PanickingSink;
        impl Content<Token> for PanickingSink {
            fn on_invoke(
                &mut self,
                _port: &str,
                _msg: &mut Token,
                _out: &mut dyn Ports<Token>,
            ) -> InvokeResult {
                panic!("sink panicked")
            }
        }
        let mut spec = pipeline_spec();
        // The service can call back into `middle`: the cycle's way back.
        spec.bindings.push(BindingSpec {
            client: 2,
            client_port: "back".into(),
            server: 1,
            server_port: "in".into(),
            protocol: ProtocolSpec::Sync,
        });
        let faulted = |component: &str, kind, detail: &str| FrameworkError::Faulted {
            component: component.into(),
            kind,
            detail: detail.into(),
        };
        let sources = [
            Source::ContentErr,
            Source::Panic,
            Source::Cycle,
            Source::Stopped,
            Source::Unbound,
        ];
        for mode in [Mode::Soleil, Mode::MergeAll, Mode::UltraMerge] {
            for source in sources {
                for policy in [FaultPolicy::Escalate, FaultPolicy::Isolate] {
                    let mut registry = ContentRegistry::new();
                    registry.register("Producer", || Box::new(Producer));
                    registry.register("Middle", move || {
                        // "out" is in the intern universe (the producer's
                        // port) but unbound on `middle`.
                        let port = if source == Source::Unbound {
                            "out"
                        } else {
                            "svc"
                        };
                        Box::new(Caller(InternedPort::new(port)))
                    });
                    registry.register("Service", move || Box::new(Svc(source)));
                    registry.register("Sink", move || -> Box<dyn Content<Token>> {
                        if source == Source::Panic {
                            Box::new(PanickingSink)
                        } else {
                            Box::new(Sink::default())
                        }
                    });
                    let mut sys = System::build(&spec, mode, &registry).unwrap();
                    for slot in 0..sys.nodes.len() {
                        sys.set_fault_policy_at(slot, policy).unwrap();
                    }
                    let service = sys.slot_of("service").unwrap();
                    let stop = (source == Source::Stopped).then(|| sys.stop_at(service).err());
                    let producer = sys.slot_of("producer").unwrap();
                    let returned = sys.run_transaction(producer).err();
                    let recorded: Vec<(&str, &str)> = sys
                        .supervisors
                        .iter()
                        .enumerate()
                        .filter_map(|(s, sup)| {
                            Some((sys.nodes[s].name.as_str(), sup.fault_detail.as_deref()?))
                        })
                        .collect();

                    let isolate = policy == FaultPolicy::Isolate;
                    let (want_returned, want_recorded) = match source {
                        Source::ContentErr if isolate => (
                            None,
                            vec![(
                                "service",
                                "component 'service' faulted (error): service refused",
                            )],
                        ),
                        Source::ContentErr => (
                            Some(faulted("service", FaultKind::Error, "service refused")),
                            vec![],
                        ),
                        Source::Panic if isolate => (
                            None,
                            vec![("sink", "component 'sink' faulted (panic): sink panicked")],
                        ),
                        Source::Panic => (
                            Some(faulted("sink", FaultKind::Panic, "sink panicked")),
                            vec![],
                        ),
                        Source::Cycle => (
                            Some(FrameworkError::RunToCompletion(
                                "re-entrant invocation of 'middle'".into(),
                            )),
                            vec![],
                        ),
                        // ULTRA-MERGE refuses the stop; the call then runs.
                        Source::Stopped if mode == Mode::UltraMerge => (None, vec![]),
                        Source::Stopped => (
                            Some(FrameworkError::Lifecycle(
                                "component 'service' is stopped".into(),
                            )),
                            vec![],
                        ),
                        Source::Unbound => (
                            Some(FrameworkError::Binding(
                                "client port 'out' of 'middle' is unbound".into(),
                            )),
                            vec![],
                        ),
                    };
                    let case = format!("{mode}, {source:?}, {policy:?}");
                    assert_eq!(returned, want_returned, "{case}");
                    assert_eq!(recorded, want_recorded, "{case}");
                    if let Some(refused) = stop {
                        let want = (mode == Mode::UltraMerge).then(|| {
                            FrameworkError::Unsupported(
                                "ULTRA-MERGE systems are purely static".into(),
                            )
                        });
                        assert_eq!(refused, want, "{case}");
                    }
                }
            }
        }
    }

    /// The engine refuses to re-enter a component whose invocation is
    /// still on the stack: a synchronous cycle `a.peer → b.svc`,
    /// `b.back → a.ping` fails with the same typed error on every attempt
    /// in every mode, and leaves the structure as it found it.
    #[test]
    fn synchronous_cycles_are_refused_as_re_entry_in_every_mode() {
        #[derive(Debug, Default)]
        struct Caller(&'static str);
        impl Content<Token> for Caller {
            fn on_invoke(
                &mut self,
                _port: &str,
                msg: &mut Token,
                out: &mut dyn Ports<Token>,
            ) -> InvokeResult {
                out.call(self.0, msg)
            }
        }
        let mut registry = ContentRegistry::new();
        registry.register("A", || Box::new(Caller("peer")));
        registry.register("B", || Box::new(Caller("back")));
        let component = |name: &str, class: &str, activation, domain, port: &str| ComponentSpec {
            name: name.into(),
            content_class: class.into(),
            activation,
            domain,
            area: 0,
            server_ports: vec![port.into()],
        };
        let sync = |client, client_port: &str, server, server_port: &str| BindingSpec {
            client,
            client_port: client_port.into(),
            server,
            server_port: server_port.into(),
            protocol: ProtocolSpec::Sync,
        };
        let spec = SystemSpec {
            name: "cycle".into(),
            areas: vec![AreaSpec {
                name: "Imm".into(),
                kind: MemoryKind::Immortal,
                size: Some(64 * 1024),
                parent: None,
            }],
            domains: vec![DomainSpec {
                name: "rt".into(),
                kind: ThreadKind::Realtime,
                priority: 20,
            }],
            components: vec![
                component(
                    "a",
                    "A",
                    Activation::Periodic {
                        period: RelativeTime::from_millis(10),
                    },
                    Some(0),
                    "ping",
                ),
                component("b", "B", Activation::Passive, None, "svc"),
            ],
            bindings: vec![sync(0, "peer", 1, "svc"), sync(1, "back", 0, "ping")],
        };
        for mode in [Mode::Soleil, Mode::MergeAll, Mode::UltraMerge] {
            let mut sys = System::build(&spec, mode, &registry).unwrap();
            let a = sys.slot_of("a").unwrap();
            let digest = sys.structural_digest();
            for attempt in 0..2 {
                let err = sys.run_transaction(a).unwrap_err();
                assert!(
                    matches!(&err, FrameworkError::RunToCompletion(m)
                        if m == "re-entrant invocation of 'a'"),
                    "{mode}, attempt {attempt}: {err}"
                );
                assert_eq!(sys.structural_digest(), digest, "{mode}, attempt {attempt}");
            }
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
