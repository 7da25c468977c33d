//! RTSJ-oriented interceptors (§4.1).
//!
//! Interceptors are "special control components deployed on component
//! interfaces to arbitrate communication". Two are RTSJ-specific:
//!
//! * [`ActiveInterceptor`] — enforces the run-to-completion execution model
//!   of active components (no re-entrant activation) and counts
//!   activations;
//! * [`MemoryInterceptor`] — deployed on every binding that crosses
//!   MemoryAreas; executes the [`PatternKind`] selected at design time
//!   (scope entry, allocation-context switching, transient scopes for
//!   per-invocation temporaries).
//!
//! Interceptors expose a split `pre`/`post` protocol so the membrane can
//! run them around the content invocation.
//!
//! The module also hosts the [`FaultInjector`]: not an interceptor but a
//! seeded fault schedule the engine draws from at each activation
//! boundary, in every generation mode.

use std::fmt::Debug;

use rtsj::memory::{AreaId, MemoryContext, MemoryManager};
use soleil_patterns::PatternKind;

use crate::error::FrameworkError;

/// A control component deployed on a component interface.
///
/// `Send` is a supertrait: interceptors live inside a membrane, membranes
/// live inside a thread-domain engine, and the parallel runtime moves each
/// engine onto its own OS thread.
pub trait Interceptor: Debug + Send {
    /// Stable name for introspection.
    fn name(&self) -> &str;

    /// Downcast support, so the plan compiler can recognize the
    /// framework's own interceptor types.
    fn as_any(&self) -> &dyn std::any::Any;

    /// Owned downcast support: surrenders the interceptor to the plan
    /// compiler, which flattens known types into [`InterceptStep`] enum
    /// variants (unknown types stay behind the `Dyn` fallback). Every
    /// implementation is `fn into_any(self: Box<Self>) -> … { self }`.
    fn into_any(self: Box<Self>) -> Box<dyn std::any::Any + Send>;

    /// Runs before the content invocation.
    ///
    /// # Errors
    ///
    /// Implementation-specific; a failing `pre` aborts the invocation.
    fn pre(
        &mut self,
        mm: &mut MemoryManager,
        ctx: &mut MemoryContext,
    ) -> Result<(), FrameworkError>;

    /// Runs after the content invocation (also on unwind).
    ///
    /// # Errors
    ///
    /// Implementation-specific.
    fn post(
        &mut self,
        mm: &mut MemoryManager,
        ctx: &mut MemoryContext,
    ) -> Result<(), FrameworkError>;

    /// Estimated bytes of interceptor state (Fig. 7(c) accounting).
    fn footprint_bytes(&self) -> usize {
        std::mem::size_of_val(self)
    }
}

// ---------------------------------------------------------------------------
// ActiveInterceptor
// ---------------------------------------------------------------------------

/// Run-to-completion guard for active components.
///
/// The paper: active interceptors "implement a run-to-completion execution
/// model for each incoming invocation from their server interfaces" —
/// i.e. an activation must finish before the next may begin.
#[derive(Debug, Default)]
pub struct ActiveInterceptor {
    busy: bool,
    activations: u64,
}

impl ActiveInterceptor {
    /// Creates an idle guard.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total completed or in-flight activations.
    pub fn activations(&self) -> u64 {
        self.activations
    }

    /// Clears the busy flag without running `post` — the supervised-restart
    /// path for a guard left busy by a panic that skipped the unwind.
    pub fn reset(&mut self) {
        self.busy = false;
    }
}

impl Interceptor for ActiveInterceptor {
    fn name(&self) -> &str {
        "active-interceptor"
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn into_any(self: Box<Self>) -> Box<dyn std::any::Any + Send> {
        self
    }

    fn pre(
        &mut self,
        _mm: &mut MemoryManager,
        _ctx: &mut MemoryContext,
    ) -> Result<(), FrameworkError> {
        if self.busy {
            return Err(FrameworkError::RunToCompletion(
                "re-entrant activation of an active component".into(),
            ));
        }
        self.busy = true;
        self.activations += 1;
        Ok(())
    }

    fn post(
        &mut self,
        _mm: &mut MemoryManager,
        _ctx: &mut MemoryContext,
    ) -> Result<(), FrameworkError> {
        self.busy = false;
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// MemoryInterceptor
// ---------------------------------------------------------------------------

/// What the memory interceptor must do around an invocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemoryPlan {
    /// The design-time pattern for this binding.
    pub pattern: PatternKind,
    /// The server component's area (switched to by `ExecuteInOuter`).
    pub server_area: AreaId,
    /// For `EnterInner`: the scoped areas to enter, outermost first,
    /// *relative* to the caller's scope stack (common ancestors excluded —
    /// re-entering a scope already on the stack would violate the single
    /// parent rule).
    pub enter_path: Vec<AreaId>,
    /// Optional transient scope entered per invocation for temporaries;
    /// reclaimed on exit (the classic scoped-memory usage).
    pub transient_scope: Option<AreaId>,
    /// Build-time proof that `server_area` is always on the invoking
    /// component's scope stack when this plan runs (`ExecuteInOuter` only).
    /// When set, the per-crossing scope-stack containment walk is replaced
    /// by the substrate's prechecked entry — the design-time validation
    /// licensing the removal of a runtime check, exactly as the paper's
    /// generator does for its merged modes.
    pub outer_on_stack: bool,
}

impl MemoryPlan {
    /// A plan that performs no memory choreography (same-area binding).
    pub fn direct(server_area: AreaId) -> Self {
        MemoryPlan {
            pattern: PatternKind::Direct,
            server_area,
            enter_path: Vec::new(),
            transient_scope: None,
            outer_on_stack: false,
        }
    }

    /// An `EnterInner` plan entering `path` (outermost first).
    pub fn enter_inner(server_area: AreaId, path: Vec<AreaId>) -> Self {
        MemoryPlan {
            pattern: PatternKind::EnterInner,
            server_area,
            enter_path: path,
            transient_scope: None,
            outer_on_stack: false,
        }
    }

    /// Compiles this plan's per-invocation **fused gate**: the cross-scope
    /// pattern selector collapsed into two bits settled at deploy/rebind
    /// time. When `skip_choreography` holds, the plan *proves* that
    /// [`MemoryInterceptor::pre`]/[`post`](MemoryInterceptor::post) are
    /// no-ops (no scope entry, no allocation-context switch, no transient
    /// scope), so the engine may skip both calls entirely — the same
    /// design-time-proof-removes-runtime-work idiom as
    /// `begin_execute_in_area_prechecked`.
    pub fn fast_gate(&self) -> FastGate {
        FastGate {
            skip_choreography: self.transient_scope.is_none()
                && (self.pattern == PatternKind::Direct || self.needs_copy()),
            copy: self.needs_copy(),
        }
    }

    /// True when the pattern requires the engine to deep-copy the payload
    /// across the boundary (handoff / immortal-exchange) — the single
    /// source of the copy decision for both the compiled [`FastGate`] and
    /// the full interceptor path.
    pub fn needs_copy(&self) -> bool {
        matches!(
            self.pattern,
            PatternKind::HandoffThroughParent | PatternKind::ImmortalExchange
        )
    }
}

/// A per-binding gate precomputed from the binding's [`MemoryPlan`] when
/// the membrane plan is compiled (deploy/rebind time, never per call).
///
/// The engine checks it in a single pass before a synchronous call: when
/// `skip_choreography` is set the memory interceptor's `pre`/`post` are
/// provably no-ops and both calls are elided from the hot path; `copy`
/// carries the (equally static) payload-copy decision so the fast path
/// never consults the interceptor at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FastGate {
    /// Plan-time proof that `pre`/`post` perform no scope choreography.
    pub skip_choreography: bool,
    /// The engine must deep-copy the payload across the boundary
    /// (handoff / immortal-exchange patterns).
    pub copy: bool,
}

/// Executes the cross-scope pattern around each invocation (§4.1's
/// "Memory Interceptors … deployed on each binding between different
/// MemoryAreas").
#[derive(Debug)]
pub struct MemoryInterceptor {
    plan: MemoryPlan,
    crossings: u64,
}

impl MemoryInterceptor {
    /// Creates an interceptor for `plan`.
    pub fn new(plan: MemoryPlan) -> Self {
        MemoryInterceptor { plan, crossings: 0 }
    }

    /// The configured plan.
    pub fn plan(&self) -> &MemoryPlan {
        &self.plan
    }

    /// Number of boundary crossings executed.
    pub fn crossings(&self) -> u64 {
        self.crossings
    }

    /// Counts a boundary crossing executed by the engine's fused fast
    /// path, which skips `pre`/`post` entirely when the compiled
    /// [`FastGate`] proves them no-ops — the introspection counter stays
    /// truthful without the calls.
    pub fn record_crossing(&mut self) {
        self.crossings += 1;
    }

    /// True when the engine must deep-copy the payload (handoff pattern).
    pub fn needs_copy(&self) -> bool {
        self.plan.needs_copy()
    }
}

impl Interceptor for MemoryInterceptor {
    fn name(&self) -> &str {
        "memory-interceptor"
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn into_any(self: Box<Self>) -> Box<dyn std::any::Any + Send> {
        self
    }

    fn pre(
        &mut self,
        mm: &mut MemoryManager,
        ctx: &mut MemoryContext,
    ) -> Result<(), FrameworkError> {
        self.crossings += 1;
        match self.plan.pattern {
            PatternKind::Direct => {}
            PatternKind::ExecuteInOuter => {
                if self.plan.outer_on_stack {
                    mm.begin_execute_in_area_prechecked(ctx, self.plan.server_area)?;
                } else {
                    mm.begin_execute_in_area(ctx, self.plan.server_area)?;
                }
            }
            PatternKind::EnterInner => {
                for (i, &scope) in self.plan.enter_path.iter().enumerate() {
                    if let Err(e) = mm.enter(ctx, scope) {
                        for _ in 0..i {
                            let _ = mm.exit(ctx);
                        }
                        return Err(e.into());
                    }
                }
            }
            // Copy-based patterns need no scope choreography here: the
            // engine copies the payload; buffers live in their own area.
            PatternKind::HandoffThroughParent | PatternKind::ImmortalExchange => {}
        }
        if let Some(scope) = self.plan.transient_scope {
            mm.enter(ctx, scope)?;
        }
        Ok(())
    }

    fn post(
        &mut self,
        mm: &mut MemoryManager,
        ctx: &mut MemoryContext,
    ) -> Result<(), FrameworkError> {
        if self.plan.transient_scope.is_some() {
            mm.exit(ctx)?;
        }
        match self.plan.pattern {
            PatternKind::Direct
            | PatternKind::HandoffThroughParent
            | PatternKind::ImmortalExchange => {}
            PatternKind::ExecuteInOuter => {
                mm.end_execute_in_area(ctx)?;
            }
            PatternKind::EnterInner => {
                for _ in &self.plan.enter_path {
                    mm.exit(ctx)?;
                }
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// FaultInjector
// ---------------------------------------------------------------------------

/// The fault a [`FaultInjector`] manufactured on a given activation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectedFault {
    /// A content-style error returned from the draw.
    Error,
    /// A real `panic!` raised from the draw — exercises the activation
    /// boundary's `catch_unwind` and the membrane poison protocol.
    Panic,
    /// A busy-wait long enough to trip latency contracts, then success.
    LatencySpike,
    /// The invocation is refused with a countable drop fault.
    Drop,
}

/// Deterministic fault injector: a seeded schedule keyed by
/// the component's activation count decides, with no wall-clock or OS
/// randomness, whether an activation faults and how. Replaying the same
/// seed against the same activation sequence reproduces the exact same
/// fault storm — the property chaos tests and the `chaos-gate` CI artifact
/// are built on.
///
/// With `rate == 0` the injector is **idle**: a draw costs one branch and
/// allocates nothing, so it can stay installed on a production engine
/// (the zero-alloc gate deploys exactly that shape).
#[derive(Debug)]
pub struct FaultInjector {
    component: String,
    seed: u64,
    /// Fires on roughly one in `rate` activations; `0` disables.
    rate: u32,
    /// Bitmask of enabled fault kinds (see the `MENU_*` consts).
    menu: u8,
    latency_spike_ns: u64,
    /// When set, latency spikes are *recorded* instead of busy-waited:
    /// the host engine drains them via
    /// [`take_pending_spike_ns`](FaultInjector::take_pending_spike_ns)
    /// and advances its virtual clock, so simulated timelines never
    /// depend on the OS clock.
    virtual_clock: bool,
    pending_spike_ns: u64,
    activations: u64,
    injected: u64,
}

impl FaultInjector {
    /// Menu bit: injected [`InjectedFault::Error`] faults.
    pub const MENU_ERROR: u8 = 1;
    /// Menu bit: injected [`InjectedFault::Panic`] faults.
    pub const MENU_PANIC: u8 = 2;
    /// Menu bit: injected [`InjectedFault::LatencySpike`] faults.
    pub const MENU_LATENCY: u8 = 4;
    /// Menu bit: injected [`InjectedFault::Drop`] faults.
    pub const MENU_DROP: u8 = 8;
    /// Menu with every fault kind enabled.
    pub const MENU_ALL: u8 = 15;

    /// Creates an injector for `component` firing about one in `rate`
    /// activations (`0` = idle) on a seeded deterministic schedule, with
    /// every fault kind enabled.
    pub fn new(component: impl Into<String>, seed: u64, rate: u32) -> Self {
        FaultInjector {
            component: component.into(),
            seed,
            rate,
            menu: Self::MENU_ALL,
            latency_spike_ns: 50_000,
            virtual_clock: false,
            pending_spike_ns: 0,
            activations: 0,
            injected: 0,
        }
    }

    /// Restricts the fault menu to the given `MENU_*` bits.
    #[must_use]
    pub fn with_menu(mut self, menu: u8) -> Self {
        self.menu = menu & Self::MENU_ALL;
        self
    }

    /// Sets the busy-wait length of latency-spike faults.
    #[must_use]
    pub fn with_latency_spike_ns(mut self, ns: u64) -> Self {
        self.latency_spike_ns = ns;
        self
    }

    /// Routes latency spikes through the host engine's **virtual clock**
    /// instead of busy-waiting the OS clock: a spike is accumulated in the
    /// injector and drained by the engine via
    /// [`take_pending_spike_ns`](FaultInjector::take_pending_spike_ns),
    /// which advances virtual time by the spike. Use under simulated
    /// deployments — a busy-wait there would pollute the simulated
    /// timeline with wall-clock noise.
    #[must_use]
    pub fn with_virtual_clock(mut self) -> Self {
        self.virtual_clock = true;
        self
    }

    /// True when latency spikes advance virtual time instead of
    /// busy-waiting.
    pub fn virtual_clock(&self) -> bool {
        self.virtual_clock
    }

    /// Drains the virtual-time spike accumulated since the last drain
    /// (zero on wall-clock injectors). The host engine calls this after
    /// every draw and advances its clock by the returned nanoseconds.
    pub fn take_pending_spike_ns(&mut self) -> u64 {
        std::mem::take(&mut self.pending_spike_ns)
    }

    /// The injector's seed (replay key).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Activations observed so far.
    pub fn activations(&self) -> u64 {
        self.activations
    }

    /// Faults injected so far.
    pub fn injected(&self) -> u64 {
        self.injected
    }

    /// Estimated bytes of injector state (Fig. 7(c) accounting).
    pub fn footprint_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.component.capacity()
    }

    /// The deterministic schedule: what (if anything) this injector does
    /// on activation `n` (1-based). Pure — tests and replay tooling can
    /// predict a storm without running it.
    pub fn fault_at(&self, n: u64) -> Option<InjectedFault> {
        if self.rate == 0 || self.menu == 0 {
            return None;
        }
        let roll = splitmix(self.seed, n);
        if !roll.is_multiple_of(u64::from(self.rate)) {
            return None;
        }
        // Pick among the enabled kinds with the high bits of the roll.
        let mut enabled = [InjectedFault::Error; 4];
        let mut count = 0usize;
        for (bit, kind) in [
            (Self::MENU_ERROR, InjectedFault::Error),
            (Self::MENU_PANIC, InjectedFault::Panic),
            (Self::MENU_LATENCY, InjectedFault::LatencySpike),
            (Self::MENU_DROP, InjectedFault::Drop),
        ] {
            if self.menu & bit != 0 {
                enabled[count] = kind;
                count += 1;
            }
        }
        Some(enabled[((roll >> 32) % count as u64) as usize])
    }

    /// Draws the next activation from the schedule and manufactures its
    /// fault: `Ok(())` on a clean draw (or an idle injector), a typed
    /// [`FrameworkError::Faulted`] for error/drop faults, a real `panic!`
    /// for panic faults, a busy-wait then `Ok(())` for latency spikes.
    /// The engine calls this at the activation boundary, before the
    /// content runs.
    ///
    /// # Errors
    ///
    /// [`FrameworkError::Faulted`] when the schedule fires an error or
    /// drop fault on this activation.
    pub fn draw(&mut self) -> Result<(), FrameworkError> {
        self.activations += 1;
        let Some(fault) = self.fault_at(self.activations) else {
            return Ok(());
        };
        self.injected += 1;
        let n = self.activations;
        match fault {
            InjectedFault::Error => Err(FrameworkError::Faulted {
                component: self.component.clone(),
                kind: crate::error::FaultKind::Error,
                detail: format!("injected error (seed {}, activation {n})", self.seed),
            }),
            InjectedFault::Panic => {
                panic!(
                    "injected panic in '{}' (seed {}, activation {n})",
                    self.component, self.seed
                );
            }
            InjectedFault::Drop => Err(FrameworkError::Faulted {
                component: self.component.clone(),
                kind: crate::error::FaultKind::Drop,
                detail: format!("injected drop (seed {}, activation {n})", self.seed),
            }),
            InjectedFault::LatencySpike => {
                if self.virtual_clock {
                    // Recorded, not waited: the engine drains the spike
                    // and advances its virtual clock by it.
                    self.pending_spike_ns =
                        self.pending_spike_ns.saturating_add(self.latency_spike_ns);
                    return Ok(());
                }
                let start = std::time::Instant::now();
                while (start.elapsed().as_nanos() as u64) < self.latency_spike_ns {
                    std::hint::spin_loop();
                }
                Ok(())
            }
        }
    }
}

/// SplitMix64 finalizer over `(seed, n)` — a stateless, allocation-free
/// mix whose low bits are well distributed for the 1-in-`rate` draw.
fn splitmix(seed: u64, n: u64) -> u64 {
    let mut z = seed ^ n.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

// ---------------------------------------------------------------------------
// InterceptStep — the compiled interceptor plan
// ---------------------------------------------------------------------------

/// One step of a membrane's **compiled interceptor plan**.
///
/// At build/rebind time the membrane flattens its interceptor chain into a
/// dense array of these steps: the framework's own interceptors become
/// plain enum variants dispatched by a branch-predictable `match`, so no
/// `Box<dyn Interceptor>` virtual call remains on the steady-state invoke
/// path. Interceptors the compiler does not recognize keep exactly the old
/// dynamic behavior behind the [`Dyn`](InterceptStep::Dyn) fallback — the
/// open-ended extension point the paper's membranes promise.
#[derive(Debug)]
pub enum InterceptStep {
    /// A compiled run-to-completion guard.
    Active(ActiveInterceptor),
    /// A compiled cross-scope pattern executor.
    Memory(MemoryInterceptor),
    /// An interceptor unknown to the plan compiler: dynamic dispatch, the
    /// pre-flattening price.
    Dyn(Box<dyn Interceptor>),
}

impl InterceptStep {
    /// Compiles a boxed interceptor into its flattened step: known types
    /// are unboxed into enum variants, anything else falls back to
    /// [`InterceptStep::Dyn`].
    pub fn compile(interceptor: Box<dyn Interceptor>) -> InterceptStep {
        if interceptor.as_any().is::<ActiveInterceptor>() {
            let a = interceptor
                .into_any()
                .downcast::<ActiveInterceptor>()
                .expect("type checked above");
            return InterceptStep::Active(*a);
        }
        if interceptor.as_any().is::<MemoryInterceptor>() {
            let m = interceptor
                .into_any()
                .downcast::<MemoryInterceptor>()
                .expect("type checked above");
            return InterceptStep::Memory(*m);
        }
        InterceptStep::Dyn(interceptor)
    }

    /// The step's interceptor name (same names as the dynamic chain).
    pub fn name(&self) -> &str {
        match self {
            InterceptStep::Active(a) => a.name(),
            InterceptStep::Memory(m) => m.name(),
            InterceptStep::Dyn(d) => d.name(),
        }
    }

    /// True when the step dispatches without a virtual call (every variant
    /// except the `Dyn` fallback).
    pub fn is_compiled(&self) -> bool {
        !matches!(self, InterceptStep::Dyn(_))
    }

    /// Runs the step's pre-invocation action (match dispatch; direct,
    /// inlinable calls for compiled variants).
    ///
    /// # Errors
    ///
    /// The underlying interceptor's error.
    pub fn pre(
        &mut self,
        mm: &mut MemoryManager,
        ctx: &mut MemoryContext,
    ) -> Result<(), FrameworkError> {
        match self {
            InterceptStep::Active(a) => a.pre(mm, ctx),
            InterceptStep::Memory(m) => m.pre(mm, ctx),
            InterceptStep::Dyn(d) => d.pre(mm, ctx),
        }
    }

    /// Runs the step's post-invocation action (match dispatch).
    ///
    /// # Errors
    ///
    /// The underlying interceptor's error.
    pub fn post(
        &mut self,
        mm: &mut MemoryManager,
        ctx: &mut MemoryContext,
    ) -> Result<(), FrameworkError> {
        match self {
            InterceptStep::Active(a) => a.post(mm, ctx),
            InterceptStep::Memory(m) => m.post(mm, ctx),
            InterceptStep::Dyn(d) => d.post(mm, ctx),
        }
    }

    /// Estimated bytes of step machinery (Fig. 7(c) accounting): the enum
    /// slot plus any heap the variant owns.
    pub fn footprint_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + match self {
                InterceptStep::Active(_) => 0,
                InterceptStep::Memory(m) => {
                    m.plan().enter_path.capacity() * std::mem::size_of::<AreaId>()
                }
                InterceptStep::Dyn(d) => d.footprint_bytes(),
            }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtsj::memory::ScopedMemoryParams;
    use rtsj::thread::ThreadKind;

    #[test]
    fn active_interceptor_guards_reentrancy() {
        let mut mm = MemoryManager::default();
        let mut ctx = mm.context(ThreadKind::Realtime);
        let mut ai = ActiveInterceptor::new();
        ai.pre(&mut mm, &mut ctx).unwrap();
        let err = ai.pre(&mut mm, &mut ctx).unwrap_err();
        assert!(matches!(err, FrameworkError::RunToCompletion(_)));
        ai.post(&mut mm, &mut ctx).unwrap();
        ai.pre(&mut mm, &mut ctx).unwrap();
        assert_eq!(ai.activations(), 2);
    }

    #[test]
    fn memory_interceptor_enter_inner_roundtrip() {
        let mut mm = MemoryManager::default();
        let scope = mm
            .create_scoped(ScopedMemoryParams::new("s", 4096))
            .unwrap();
        let mut ctx = mm.context(ThreadKind::Realtime);
        let mut mi = MemoryInterceptor::new(MemoryPlan::enter_inner(scope, vec![scope]));
        mi.pre(&mut mm, &mut ctx).unwrap();
        assert_eq!(ctx.allocation_area(), scope);
        mi.post(&mut mm, &mut ctx).unwrap();
        assert_eq!(ctx.depth(), 0);
        assert_eq!(mi.crossings(), 1);
    }

    #[test]
    fn memory_interceptor_enters_nested_chains() {
        let mut mm = MemoryManager::default();
        let outer = mm
            .create_scoped(ScopedMemoryParams::new("o", 4096))
            .unwrap();
        let inner = mm
            .create_scoped(ScopedMemoryParams::new("i", 4096))
            .unwrap();
        // Pin the chain so `inner`'s parent is fixed to `outer`.
        let mut pin_ctx = mm.context(ThreadKind::Realtime);
        mm.enter(&mut pin_ctx, outer).unwrap();
        mm.enter(&mut pin_ctx, inner).unwrap();

        let mut ctx = mm.context(ThreadKind::Realtime);
        let mut mi = MemoryInterceptor::new(MemoryPlan::enter_inner(inner, vec![outer, inner]));
        mi.pre(&mut mm, &mut ctx).unwrap();
        assert_eq!(ctx.depth(), 2);
        assert_eq!(ctx.allocation_area(), inner);
        mi.post(&mut mm, &mut ctx).unwrap();
        assert_eq!(ctx.depth(), 0);

        // A wrong chain (skipping `outer`) is rejected and unwound.
        let mut bad = MemoryInterceptor::new(MemoryPlan::enter_inner(inner, vec![inner]));
        let err = bad.pre(&mut mm, &mut ctx).unwrap_err();
        assert!(matches!(
            err,
            FrameworkError::Rtsj(rtsj::RtsjError::ScopedCycle { .. })
        ));
        assert_eq!(ctx.depth(), 0, "failed pre leaves the stack balanced");
    }

    #[test]
    fn memory_interceptor_execute_in_outer_roundtrip() {
        let mut mm = MemoryManager::default();
        let outer = mm
            .create_scoped(ScopedMemoryParams::new("o", 4096))
            .unwrap();
        let inner = mm
            .create_scoped(ScopedMemoryParams::new("i", 4096))
            .unwrap();
        let mut ctx = mm.context(ThreadKind::Realtime);
        mm.enter(&mut ctx, outer).unwrap();
        mm.enter(&mut ctx, inner).unwrap();
        let mut mi = MemoryInterceptor::new(MemoryPlan {
            pattern: PatternKind::ExecuteInOuter,
            server_area: outer,
            enter_path: Vec::new(),
            transient_scope: None,
            outer_on_stack: false,
        });
        mi.pre(&mut mm, &mut ctx).unwrap();
        assert_eq!(ctx.allocation_area(), outer);
        mi.post(&mut mm, &mut ctx).unwrap();
        assert_eq!(ctx.allocation_area(), inner);

        // The prechecked variant (build-time proof) behaves identically on
        // the legal path.
        let mut fast = MemoryInterceptor::new(MemoryPlan {
            pattern: PatternKind::ExecuteInOuter,
            server_area: outer,
            enter_path: Vec::new(),
            transient_scope: None,
            outer_on_stack: true,
        });
        fast.pre(&mut mm, &mut ctx).unwrap();
        assert_eq!(ctx.allocation_area(), outer);
        fast.post(&mut mm, &mut ctx).unwrap();
        assert_eq!(ctx.allocation_area(), inner);
    }

    #[test]
    fn transient_scope_reclaims_temporaries() {
        let mut mm = MemoryManager::default();
        let temp = mm
            .create_scoped(ScopedMemoryParams::new("tmp", 4096))
            .unwrap();
        let mut ctx = mm.context(ThreadKind::Realtime);
        let mut mi = MemoryInterceptor::new(MemoryPlan {
            pattern: PatternKind::Direct,
            server_area: AreaId::IMMORTAL,
            enter_path: Vec::new(),
            transient_scope: Some(temp),
            outer_on_stack: false,
        });
        mi.pre(&mut mm, &mut ctx).unwrap();
        mm.alloc_current(&ctx, [0u8; 128]).unwrap();
        assert!(mm.stats(temp).unwrap().consumed > 0);
        mi.post(&mut mm, &mut ctx).unwrap();
        assert_eq!(mm.stats(temp).unwrap().consumed, 0, "temporaries reclaimed");
        assert_eq!(mm.stats(temp).unwrap().reclaim_count, 1);
    }

    #[test]
    fn known_interceptors_compile_to_flat_steps() {
        let steps = [
            InterceptStep::compile(Box::new(ActiveInterceptor::new())),
            InterceptStep::compile(Box::new(MemoryInterceptor::new(MemoryPlan::direct(
                AreaId::HEAP,
            )))),
        ];
        assert!(steps.iter().all(InterceptStep::is_compiled));
        assert_eq!(
            steps.iter().map(|s| s.name()).collect::<Vec<_>>(),
            vec!["active-interceptor", "memory-interceptor"]
        );
        assert!(matches!(steps[0], InterceptStep::Active(_)));

        // An unknown type stays dynamic — and keeps working.
        #[derive(Debug)]
        struct Opaque;
        impl Interceptor for Opaque {
            fn name(&self) -> &str {
                "opaque"
            }
            fn as_any(&self) -> &dyn std::any::Any {
                self
            }
            fn into_any(self: Box<Self>) -> Box<dyn std::any::Any + Send> {
                self
            }
            fn pre(
                &mut self,
                _mm: &mut MemoryManager,
                _ctx: &mut MemoryContext,
            ) -> Result<(), FrameworkError> {
                Ok(())
            }
            fn post(
                &mut self,
                _mm: &mut MemoryManager,
                _ctx: &mut MemoryContext,
            ) -> Result<(), FrameworkError> {
                Ok(())
            }
        }
        let mut dynamic = InterceptStep::compile(Box::new(Opaque));
        assert!(!dynamic.is_compiled());
        assert_eq!(dynamic.name(), "opaque");
        let mut mm = MemoryManager::default();
        let mut ctx = mm.context(ThreadKind::Realtime);
        dynamic.pre(&mut mm, &mut ctx).unwrap();
        dynamic.post(&mut mm, &mut ctx).unwrap();
        assert!(dynamic.footprint_bytes() > 0);
    }

    #[test]
    fn compiled_step_behaves_like_the_interceptor_it_flattens() {
        let mut mm = MemoryManager::default();
        let mut ctx = mm.context(ThreadKind::Realtime);
        let mut step = InterceptStep::compile(Box::new(ActiveInterceptor::new()));
        step.pre(&mut mm, &mut ctx).unwrap();
        let err = step.pre(&mut mm, &mut ctx).unwrap_err();
        assert!(matches!(err, FrameworkError::RunToCompletion(_)));
        step.post(&mut mm, &mut ctx).unwrap();
        step.pre(&mut mm, &mut ctx).unwrap();
        let InterceptStep::Active(a) = &step else {
            panic!("ActiveInterceptor must compile to the Active variant");
        };
        assert_eq!(a.activations(), 2);
    }

    #[test]
    fn fault_injector_schedule_is_deterministic_and_replayable() {
        let a = FaultInjector::new("c", 42, 7);
        let b = FaultInjector::new("c", 42, 7);
        let schedule_a: Vec<_> = (1..=500).map(|n| a.fault_at(n)).collect();
        let schedule_b: Vec<_> = (1..=500).map(|n| b.fault_at(n)).collect();
        assert_eq!(schedule_a, schedule_b, "same seed, same storm");
        let fired = schedule_a.iter().filter(|f| f.is_some()).count();
        assert!(fired > 20, "rate 7 over 500 draws fires often: {fired}");
        assert!(fired < 200, "but far from always: {fired}");
        // A different seed yields a different storm.
        let c = FaultInjector::new("c", 43, 7);
        let schedule_c: Vec<_> = (1..=500).map(|n| c.fault_at(n)).collect();
        assert_ne!(schedule_a, schedule_c);
        // Idle injectors never fire.
        let idle = FaultInjector::new("c", 42, 0);
        assert!((1..=500).all(|n| idle.fault_at(n).is_none()));
    }

    #[test]
    fn fault_injector_menu_restricts_kinds() {
        let drops = FaultInjector::new("c", 9, 2).with_menu(FaultInjector::MENU_DROP);
        for n in 1..=200 {
            if let Some(f) = drops.fault_at(n) {
                assert_eq!(f, InjectedFault::Drop);
            }
        }
        let no_menu = FaultInjector::new("c", 9, 2).with_menu(0);
        assert!((1..=200).all(|n| no_menu.fault_at(n).is_none()));
    }

    #[test]
    fn fault_injector_pre_raises_typed_faults() {
        // Error-only menu at rate 1: every activation faults.
        let mut fi = FaultInjector::new("Det", 5, 1).with_menu(FaultInjector::MENU_ERROR);
        let err = fi.draw().unwrap_err();
        let FrameworkError::Faulted {
            component, kind, ..
        } = &err
        else {
            panic!("expected Faulted, got {err}");
        };
        assert_eq!(component, "Det");
        assert_eq!(*kind, crate::error::FaultKind::Error);
        assert_eq!(fi.injected(), 1);
        assert_eq!(fi.activations(), 1);

        // Panic faults really panic (the engine catches at the boundary).
        let mut pi = FaultInjector::new("Det", 5, 1).with_menu(FaultInjector::MENU_PANIC);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = pi.draw();
        }));
        assert!(caught.is_err(), "panic fault must unwind");

        // Latency-spike faults succeed after the spin.
        let mut li = FaultInjector::new("Det", 5, 1)
            .with_menu(FaultInjector::MENU_LATENCY)
            .with_latency_spike_ns(1_000);
        li.draw().unwrap();
        assert_eq!(li.injected(), 1);
    }

    #[test]
    fn fast_gate_mirrors_the_plan() {
        // Direct, no transient scope: pre/post provably no-ops.
        let direct = MemoryPlan::direct(AreaId::HEAP).fast_gate();
        assert!(direct.skip_choreography && !direct.copy);
        // Copy patterns skip choreography but demand the payload copy.
        let handoff = MemoryPlan {
            pattern: PatternKind::HandoffThroughParent,
            server_area: AreaId::IMMORTAL,
            enter_path: Vec::new(),
            transient_scope: None,
            outer_on_stack: false,
        }
        .fast_gate();
        assert!(handoff.skip_choreography && handoff.copy);
        // Scope choreography keeps the full interceptor on the path.
        let enter = MemoryPlan::enter_inner(AreaId::HEAP, vec![AreaId::HEAP]).fast_gate();
        assert!(!enter.skip_choreography);
        // A transient scope always needs pre/post, whatever the pattern.
        let transient = MemoryPlan {
            transient_scope: Some(AreaId::IMMORTAL),
            ..MemoryPlan::direct(AreaId::HEAP)
        }
        .fast_gate();
        assert!(!transient.skip_choreography);
    }

    #[test]
    fn copy_requirements_by_pattern() {
        let direct = MemoryInterceptor::new(MemoryPlan::direct(AreaId::HEAP));
        assert!(!direct.needs_copy());
        let handoff = MemoryInterceptor::new(MemoryPlan {
            pattern: PatternKind::HandoffThroughParent,
            server_area: AreaId::IMMORTAL,
            enter_path: Vec::new(),
            transient_scope: None,
            outer_on_stack: false,
        });
        assert!(handoff.needs_copy());
    }
}
