//! RTSJ-oriented interceptors (§4.1).
//!
//! Interceptors are "special control components deployed on component
//! interfaces to arbitrate communication". The [`ActiveInterceptor`]
//! enforces the run-to-completion execution model of active components (no
//! re-entrant activation) and counts activations. The paper's other
//! RTSJ-specific interceptor, the memory interceptor on every binding that
//! crosses MemoryAreas, has no per-binding object here: each binding row
//! carries the pattern picked for it, and the engine's one crossing routine
//! runs it in every generation mode.
//!
//! Interceptors expose a split `pre`/`post` protocol so the membrane can
//! run them around the content invocation.
//!
//! The module also hosts the [`FaultInjector`]: not an interceptor but a
//! seeded fault schedule the engine draws from at each activation
//! boundary, in every generation mode.

use std::fmt::Debug;

use rtsj::memory::{MemoryContext, MemoryManager};

use crate::error::FrameworkError;

/// A control component deployed on a component interface.
///
/// `Send` is a supertrait: interceptors live inside a membrane, membranes
/// live inside a thread-domain engine, and a deployment may move its
/// engines to another thread.
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
// FaultInjector
// ---------------------------------------------------------------------------

/// The fault a [`FaultInjector`] manufactured on a given activation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectedFault {
    /// A content-style error returned from the draw.
    Error,
    /// A real `panic!` raised from the draw — exercises the activation
    /// boundary's `catch_unwind` and the poison a contained panic leaves.
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
        InterceptStep::Dyn(interceptor)
    }

    /// The step's interceptor name (same names as the dynamic chain).
    pub fn name(&self) -> &str {
        match self {
            InterceptStep::Active(a) => a.name(),
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
            InterceptStep::Dyn(d) => d.post(mm, ctx),
        }
    }

    /// Estimated bytes of step machinery (Fig. 7(c) accounting): the enum
    /// slot plus any heap the variant owns.
    pub fn footprint_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + match self {
                InterceptStep::Active(_) => 0,
                InterceptStep::Dyn(d) => d.footprint_bytes(),
            }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn known_interceptors_compile_to_flat_steps() {
        let step = InterceptStep::compile(Box::new(ActiveInterceptor::new()));
        assert!(step.is_compiled());
        assert_eq!(step.name(), "active-interceptor");
        assert!(matches!(step, InterceptStep::Active(_)));

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
}
