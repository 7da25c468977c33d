//! # soleil-membrane — component membranes: controllers and interceptors
//!
//! §4 of the paper wraps every functional component in a **membrane**: "an
//! assembly of control components" supporting its non-functional properties,
//! with **interceptors** arbitrating communication on its interfaces. This
//! crate provides that control layer:
//!
//! * [`content`] — the [`content::Content`] trait functional implementations
//!   ("content classes") write against, and the [`content::Ports`] façade
//!   they emit calls through;
//! * [`controllers`] — Lifecycle, Binding, Content, ThreadDomain and
//!   MemoryArea controllers (the introspection / reconfiguration surface);
//! * [`interceptors`] — the **ActiveInterceptor** enforcing
//!   run-to-completion activation, the compiled interceptor steps and the
//!   engine's seeded fault injector (the cross-scope pattern a binding
//!   needs is carried by its binding row and run by the engine's one
//!   crossing routine, in every mode);
//! * [`monitor`] — the allocation-free [`LatencyMonitor`] backing runtime
//!   timing contracts: a fixed log₂ latency histogram with deadline-miss
//!   and jitter-violation counters, attached per component and skipped by
//!   a compiled sentinel when unused;
//! * [`Membrane`] — the per-component assembly of the above, as reified in
//!   the SOLEIL generation mode (MERGE-ALL inlines this logic; ULTRA-MERGE
//!   compiles it away — see `soleil-generator`).
//!
//! ## Compiled membranes
//!
//! The membrane's *structure* stays dynamic — interceptors can be pushed
//! and removed on a live component — but its *execution* is compiled. At
//! every structural change the chain is flattened into a [`CompiledChain`]:
//! a dense array of [`interceptors::InterceptStep`] enum variants executed
//! by a branch-predictable `match` loop, so no `Box<dyn Interceptor>`
//! virtual call remains on the steady-state invoke path (unknown
//! interceptor types fall back to a `Dyn` step and keep the old dynamic
//! behavior). The overwhelmingly common deployed shape — a lifecycle gate
//! plus one run-to-completion guard — is fused further
//! ([`ChainFusion::FusedActive`]): `pre_invoke`/`post_invoke` collapse to a
//! single pass with no chain walk at all — decide at deploy time, run
//! straight-line code at tick time, exactly the erasable-framework claim
//! the MERGE modes exist to demonstrate. [`Membrane::pre_invoke`] and
//! [`Membrane::post_invoke`] are `#[inline(always)]`, so that pass compiles
//! into the engine's invoke routine rather than costing a cross-crate call
//! on each side of every activation (a plain `#[inline]` hint was not
//! always taken once the engine inlined its invoke routine into the drain).
//! `push_interceptor`/`remove_interceptor` remain the cold reconfiguration
//! API; each call simply recompiles the plan.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod content;
pub mod controllers;
pub mod error;
pub mod interceptors;
pub mod monitor;

pub use content::{Content, InternedPort, InvokeResult, Payload, PortId, Ports};
pub use error::{FaultKind, FrameworkError};
pub use monitor::{LatencyMonitor, LatencySnapshot};

use rtsj::memory::{MemoryContext, MemoryManager};

use controllers::{BindingController, LifecycleController, LifecycleState};
use interceptors::{InterceptStep, Interceptor};

/// How a [`CompiledChain`] executes the pre/post protocol — settled when
/// the plan is compiled, never per invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ChainFusion {
    /// No interceptors: pre/post are the lifecycle gate alone.
    #[default]
    Empty,
    /// Exactly one [`interceptors::ActiveInterceptor`]: the lifecycle bit
    /// and the re-entrancy guard fuse into a single pass with no chain
    /// walk — the common deployed case.
    FusedActive,
    /// The general compiled walk: a `match` loop over the step array.
    Walk,
}

/// The deploy-time compiled form of a membrane's interceptor chain: a flat
/// [`InterceptStep`] array plus the fusion decision. Built by
/// [`Membrane::push_interceptor`]/[`push_step`](Membrane::push_step) and
/// recompiled on every structural change (the cold reconfiguration path).
#[derive(Debug, Default)]
pub struct CompiledChain {
    steps: Vec<InterceptStep>,
    fusion: ChainFusion,
}

impl CompiledChain {
    /// Recomputes the fusion decision from the current step array.
    fn recompile(&mut self) {
        self.fusion = match self.steps.as_slice() {
            [] => ChainFusion::Empty,
            [InterceptStep::Active(_)] => ChainFusion::FusedActive,
            _ => ChainFusion::Walk,
        };
    }

    /// The compiled fusion decision.
    pub fn fusion(&self) -> ChainFusion {
        self.fusion
    }

    /// Number of steps in the plan.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// True when the plan has no steps.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// The compiled steps, in chain order.
    pub fn steps(&self) -> &[InterceptStep] {
        &self.steps
    }

    /// True when every step dispatches without a virtual call — the
    /// property the steady-state invoke path is gated on (only the `Dyn`
    /// fallback for unknown interceptor types breaks it).
    pub fn is_fully_compiled(&self) -> bool {
        self.steps.iter().all(InterceptStep::is_compiled)
    }
}

/// The reified control membrane of one component (SOLEIL mode).
///
/// Holds the mandatory controllers plus the interceptor chain that runs
/// around every server-interface invocation. The structure is reified — a
/// name-keyed binding table resolving each client port to the engine's
/// routing row, interceptors installable at runtime — but the chain
/// executes through a deploy-time [`CompiledChain`]; see the
/// [crate docs](self) on compiled membranes.
#[derive(Debug)]
pub struct Membrane {
    /// The wrapped component's name.
    pub component: String,
    /// Start/stop state machine.
    pub lifecycle: LifecycleController,
    /// Name-keyed client-interface binding table (port → routing row).
    pub binding: BindingController,
    chain: CompiledChain,
    /// True after a panic was caught mid-activation: the content may be
    /// half-mutated and the chain half-wound, so invocations are refused
    /// until [`set_lifecycle`](Membrane::set_lifecycle) clears the flag.
    poisoned: bool,
}

impl Membrane {
    /// Creates a membrane with empty controller state.
    pub fn new(component: impl Into<String>) -> Self {
        Membrane {
            component: component.into(),
            lifecycle: LifecycleController::new(),
            binding: BindingController::new(),
            chain: CompiledChain::default(),
            poisoned: false,
        }
    }

    /// Sets the lifecycle state and the poison flag together — in a SOLEIL
    /// deployment, the engine's one lifecycle writer mirrors its record of
    /// the component here. Clearing the poison also resets the
    /// run-to-completion guards a mid-chain panic left busy (it skipped
    /// their `post`); the caller replaces the content instance itself.
    pub fn set_lifecycle(&mut self, state: LifecycleState, poisoned: bool) {
        if self.poisoned && !poisoned {
            for step in &mut self.chain.steps {
                if let InterceptStep::Active(a) = step {
                    a.reset();
                }
            }
        }
        self.lifecycle.set(state);
        self.poisoned = poisoned;
    }

    /// True after a panic was contained and before a restart.
    pub fn poisoned(&self) -> bool {
        self.poisoned
    }

    /// Appends an interceptor to the chain (pre runs in insertion order,
    /// post in reverse), compiling it into its flattened step and
    /// recompiling the plan — the cold reconfiguration API.
    pub fn push_interceptor(&mut self, interceptor: Box<dyn Interceptor>) {
        self.push_step(InterceptStep::compile(interceptor));
    }

    /// Appends an already-compiled step (deploy-time construction).
    pub fn push_step(&mut self, step: InterceptStep) {
        self.chain.steps.push(step);
        self.chain.recompile();
    }

    /// The compiled interceptor plan (introspection; the unit the
    /// steady-state no-virtual-calls property is asserted on).
    pub fn plan(&self) -> &CompiledChain {
        &self.chain
    }

    /// Names of the installed interceptors, in chain order (introspection).
    pub fn interceptor_names(&self) -> Vec<&str> {
        self.chain.steps.iter().map(|s| s.name()).collect()
    }

    /// Removes the first interceptor with the given name; true when one was
    /// removed (membrane-level reconfiguration; recompiles the plan).
    pub fn remove_interceptor(&mut self, name: &str) -> bool {
        let Some(ix) = self.chain.steps.iter().position(|s| s.name() == name) else {
            return false;
        };
        self.chain.steps.remove(ix);
        self.chain.recompile();
        true
    }

    /// Number of control units (controllers + interceptors) in this
    /// membrane — the §5.2 "generated units" metric counts these.
    pub fn control_unit_count(&self) -> usize {
        2 + self.chain.len()
    }

    /// Runs the pre-invocation protocol: lifecycle gate, then the compiled
    /// plan. The fused shapes skip the chain walk entirely; the general
    /// walk dispatches each step through a `match`. On failure,
    /// already-executed steps are unwound via their `post`; if any unwind
    /// `post` fails too, the count of suppressed errors is attached to the
    /// returned error ([`FrameworkError::Unwind`]).
    ///
    /// # Errors
    ///
    /// [`FrameworkError::Lifecycle`] when stopped; interceptor errors
    /// otherwise.
    #[inline(always)]
    pub fn pre_invoke(
        &mut self,
        mm: &mut MemoryManager,
        ctx: &mut MemoryContext,
    ) -> Result<(), FrameworkError> {
        self.lifecycle.assert_started(&self.component)?;
        // Belt-and-braces behind the lifecycle gate: quarantine already
        // refuses invocations, but a plain `start` on a poisoned membrane
        // must not re-admit a half-mutated component either.
        if self.poisoned {
            return Err(FrameworkError::Lifecycle(format!(
                "component '{}' is poisoned by a caught panic; restart required",
                self.component
            )));
        }
        match self.chain.fusion() {
            ChainFusion::Empty => Ok(()),
            ChainFusion::FusedActive => match self.chain.steps.first_mut() {
                Some(InterceptStep::Active(a)) => a.pre(mm, ctx),
                _ => unreachable!("FusedActive proves a single Active step"),
            },
            ChainFusion::Walk => self.pre_walk(mm, ctx),
        }
    }

    fn pre_walk(
        &mut self,
        mm: &mut MemoryManager,
        ctx: &mut MemoryContext,
    ) -> Result<(), FrameworkError> {
        for i in 0..self.chain.steps.len() {
            if let Err(e) = self.chain.steps[i].pre(mm, ctx) {
                let mut suppressed = 0u32;
                for j in (0..i).rev() {
                    if self.chain.steps[j].post(mm, ctx).is_err() {
                        suppressed += 1;
                    }
                }
                return Err(FrameworkError::with_suppressed(e, suppressed));
            }
        }
        Ok(())
    }

    /// Runs the post-invocation protocol (reverse order). The chain always
    /// unwinds completely; the first error is reported, with the count of
    /// any further suppressed errors attached
    /// ([`FrameworkError::Unwind`]).
    ///
    /// # Errors
    ///
    /// The first interceptor error encountered (wrapping the suppressed
    /// count when later steps failed too).
    #[inline(always)]
    pub fn post_invoke(
        &mut self,
        mm: &mut MemoryManager,
        ctx: &mut MemoryContext,
    ) -> Result<(), FrameworkError> {
        match self.chain.fusion() {
            ChainFusion::Empty => Ok(()),
            ChainFusion::FusedActive => match self.chain.steps.first_mut() {
                Some(InterceptStep::Active(a)) => a.post(mm, ctx),
                _ => unreachable!("FusedActive proves a single Active step"),
            },
            ChainFusion::Walk => {
                let mut first_err = None;
                let mut suppressed = 0u32;
                for i in (0..self.chain.steps.len()).rev() {
                    if let Err(e) = self.chain.steps[i].post(mm, ctx) {
                        if first_err.is_none() {
                            first_err = Some(e);
                        } else {
                            suppressed += 1;
                        }
                    }
                }
                match first_err {
                    Some(e) => Err(FrameworkError::with_suppressed(e, suppressed)),
                    None => Ok(()),
                }
            }
        }
    }

    /// Estimated bytes of membrane machinery, charged as framework overhead
    /// in the Fig. 7(c) experiment: controller structs, the binding table
    /// and every compiled step.
    pub fn footprint_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.component.capacity()
            + self.binding.footprint_bytes()
            + self
                .chain
                .steps
                .iter()
                .map(InterceptStep::footprint_bytes)
                .sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use interceptors::ActiveInterceptor;
    use rtsj::thread::ThreadKind;

    #[test]
    fn membrane_gates_on_lifecycle() {
        let mut mm = MemoryManager::default();
        let mut ctx = mm.context(ThreadKind::Realtime);
        let mut m = Membrane::new("c");
        m.push_interceptor(Box::new(ActiveInterceptor::new()));

        // Stopped: pre fails.
        assert!(matches!(
            m.pre_invoke(&mut mm, &mut ctx),
            Err(FrameworkError::Lifecycle(_))
        ));
        m.lifecycle.start();
        m.pre_invoke(&mut mm, &mut ctx).unwrap();
        m.post_invoke(&mut mm, &mut ctx).unwrap();
    }

    #[test]
    fn interceptor_chain_unwinds_on_pre_failure() {
        let mut mm = MemoryManager::default();
        let mut ctx = mm.context(ThreadKind::Realtime);
        let mut m = Membrane::new("c");
        m.lifecycle.start();
        // Two run-to-completion guards: second pre fails if first left it busy.
        m.push_interceptor(Box::new(ActiveInterceptor::new()));
        m.push_interceptor(Box::new(ActiveInterceptor::new()));
        m.pre_invoke(&mut mm, &mut ctx).unwrap();
        // Re-entrant pre: the first guard trips, nothing leaks.
        let err = m.pre_invoke(&mut mm, &mut ctx).unwrap_err();
        assert!(matches!(err, FrameworkError::RunToCompletion(_)));
        m.post_invoke(&mut mm, &mut ctx).unwrap();
        // After unwinding, a fresh invocation succeeds.
        m.pre_invoke(&mut mm, &mut ctx).unwrap();
        m.post_invoke(&mut mm, &mut ctx).unwrap();
    }

    #[test]
    fn poisoned_membrane_refuses_start_until_restart() {
        let mut mm = MemoryManager::default();
        let mut ctx = mm.context(ThreadKind::Realtime);
        let mut m = Membrane::new("c");
        m.push_interceptor(Box::new(ActiveInterceptor::new()));
        m.lifecycle.start();
        // Simulate a panic caught mid-activation: pre ran (guard busy),
        // post never did, and supervision poisons the membrane.
        m.pre_invoke(&mut mm, &mut ctx).unwrap();
        m.set_lifecycle(LifecycleState::Quarantined, true);
        assert!(m.poisoned());
        assert!(matches!(
            m.pre_invoke(&mut mm, &mut ctx),
            Err(FrameworkError::Lifecycle(_))
        ));
        // A plain start is not enough: the poison check still refuses.
        m.lifecycle.start();
        let err = m.pre_invoke(&mut mm, &mut ctx).unwrap_err();
        assert!(err.to_string().contains("poisoned by a caught panic"));
        // A supervised restart clears poison AND the stuck busy guard.
        m.set_lifecycle(LifecycleState::Started, false);
        assert!(!m.poisoned());
        m.pre_invoke(&mut mm, &mut ctx).unwrap();
        m.post_invoke(&mut mm, &mut ctx).unwrap();
    }

    #[test]
    fn introspection_lists_units() {
        let mut m = Membrane::new("c");
        assert_eq!(m.control_unit_count(), 2);
        m.push_interceptor(Box::new(ActiveInterceptor::new()));
        assert_eq!(m.control_unit_count(), 3);
        assert_eq!(m.interceptor_names(), vec!["active-interceptor"]);
        assert!(m.footprint_bytes() > 0);
    }

    #[test]
    fn plan_compiles_and_fuses_by_shape() {
        let mut m = Membrane::new("c");
        assert_eq!(m.plan().fusion(), ChainFusion::Empty);
        assert!(m.plan().is_fully_compiled());

        m.push_interceptor(Box::new(ActiveInterceptor::new()));
        assert_eq!(m.plan().fusion(), ChainFusion::FusedActive);
        assert!(m.plan().is_fully_compiled(), "Active flattens to a step");

        m.push_interceptor(Box::new(ActiveInterceptor::new()));
        assert_eq!(m.plan().fusion(), ChainFusion::Walk);
        assert!(m.plan().is_fully_compiled(), "a second guard flattens too");
        assert_eq!(m.plan().len(), 2);

        // Removing recompiles back down to the fused shape.
        assert!(m.remove_interceptor("active-interceptor"));
        assert_eq!(m.plan().fusion(), ChainFusion::FusedActive);
    }

    /// The acceptance property of the compiled plan: known interceptors
    /// leave no virtual dispatch on the invoke path, and an unknown one is
    /// visible as the `Dyn` fallback.
    #[test]
    fn unknown_interceptors_fall_back_to_dyn_steps() {
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
        let mut m = Membrane::new("c");
        m.lifecycle.start();
        m.push_interceptor(Box::new(ActiveInterceptor::new()));
        m.push_interceptor(Box::new(Opaque));
        assert!(!m.plan().is_fully_compiled());
        assert_eq!(m.plan().fusion(), ChainFusion::Walk);
        let mut mm = MemoryManager::default();
        let mut ctx = mm.context(ThreadKind::Realtime);
        m.pre_invoke(&mut mm, &mut ctx).unwrap();
        m.post_invoke(&mut mm, &mut ctx).unwrap();
        assert_eq!(m.interceptor_names(), vec!["active-interceptor", "opaque"]);
    }

    /// Satellite: when several interceptors fail in one unwind, the first
    /// error survives and the suppressed count is attached — both on the
    /// reverse post walk and on the partial unwind of a failed pre.
    #[test]
    fn suppressed_unwind_errors_are_counted() {
        #[derive(Debug)]
        struct Failing {
            fail_pre: bool,
            label: &'static str,
        }
        impl Interceptor for Failing {
            fn name(&self) -> &str {
                self.label
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
                if self.fail_pre {
                    Err(FrameworkError::Content(format!(
                        "{} pre failed",
                        self.label
                    )))
                } else {
                    Ok(())
                }
            }
            fn post(
                &mut self,
                _mm: &mut MemoryManager,
                _ctx: &mut MemoryContext,
            ) -> Result<(), FrameworkError> {
                Err(FrameworkError::Content(format!(
                    "{} post failed",
                    self.label
                )))
            }
        }

        // Two failing posts: the reverse walk reports the *last* step's
        // error first (it unwinds in reverse) and counts the other.
        let mut mm = MemoryManager::default();
        let mut ctx = mm.context(ThreadKind::Realtime);
        let mut m = Membrane::new("c");
        m.lifecycle.start();
        m.push_interceptor(Box::new(Failing {
            fail_pre: false,
            label: "f1",
        }));
        m.push_interceptor(Box::new(Failing {
            fail_pre: false,
            label: "f2",
        }));
        m.pre_invoke(&mut mm, &mut ctx).unwrap();
        let err = m.post_invoke(&mut mm, &mut ctx).unwrap_err();
        let FrameworkError::Unwind { first, suppressed } = &err else {
            panic!("expected Unwind, got {err}");
        };
        assert_eq!(*suppressed, 1, "one further post error suppressed");
        assert!(first.to_string().contains("f2 post failed"));

        // Partial unwind of a failed pre: steps before the failing one are
        // unwound via post; their failures are counted, the pre error wins.
        let mut m = Membrane::new("c");
        m.lifecycle.start();
        m.push_interceptor(Box::new(Failing {
            fail_pre: false,
            label: "g1",
        }));
        m.push_interceptor(Box::new(Failing {
            fail_pre: false,
            label: "g2",
        }));
        m.push_interceptor(Box::new(Failing {
            fail_pre: true,
            label: "g3",
        }));
        let err = m.pre_invoke(&mut mm, &mut ctx).unwrap_err();
        let FrameworkError::Unwind { first, suppressed } = &err else {
            panic!("expected Unwind, got {err}");
        };
        assert_eq!(*suppressed, 2, "both unwind posts failed and were counted");
        assert!(first.to_string().contains("g3 pre failed"));
    }
}
