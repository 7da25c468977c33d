//! The deployment handle: the running engines generated from one
//! architecture, resolved component tokens and transactional
//! reconfiguration.
//!
//! A [`Deployment`] runs an architecture on one engine ([`System`]) per
//! *shard*, and keeps the plan ([`SystemSpec`]) and — when deployed through
//! the generator — the validated architecture they implement. The shard
//! count is chosen once, at build: [`Deployment::build`] (the generator's
//! `deploy`) places every component on one shard;
//! [`Deployment::build_parallel`] (`deploy_parallel`) partitions them by
//! thread domain ([`crate::parallel`]), with cross-shard bindings on
//! wait-free SPSC rings. Every call runs on the caller's thread and drains
//! the rings afterwards; [`run_ticks`](Deployment::run_ticks) is
//! [`run_tick`](Deployment::run_tick) repeated. Everything else is one
//! handle:
//!
//! * **Resolve-once tokens** — [`resolve`](Deployment::resolve) turns a
//!   name into a [`ComponentRef`] carrying the component's shard and engine
//!   slot, and [`port`](Deployment::port) into a [`PortRef`]. The
//!   steady-state loop ([`run_transaction`](Deployment::run_transaction),
//!   [`inject`](Deployment::inject)) takes tokens and performs zero name
//!   lookups — a property [`System::name_lookups`] makes checkable. Every
//!   other per-component call takes any [`Address`]: a token, or a `&str`
//!   name resolved per call.
//! * **One journal** — [`Deployment::reconfigure`] replaces piecewise
//!   mutation with an all-or-nothing transaction: operations apply eagerly
//!   against the live engines while an undo journal accumulates; when the
//!   closure finishes, what the journal touched is re-validated against
//!   the *same* rules the design-time validator enforces (plus, with more
//!   than one shard, the partition invariants; a refusal then lists the
//!   SOL-015 couplings),
//!   and any failure — an operation error, a validator refusal or deferred
//!   substrate charges that do not fit — rolls everything back: engines,
//!   rings, plan and architectural model. The journal, the deferred
//!   charges, the verdict's facts table and the walks of the architecture
//!   live in the deployment between transactions, cleared but not
//!   dropped, and a rewire reuses a retired ring of the binding's capacity
//!   before it builds one, so a warm transaction of the supported
//!   operations allocates nothing and charges no new immortal memory.
//!
//! Tokens are deployment-scoped: every `ComponentRef`/`PortRef`, and every
//! `TimerHandle` a deployment issues, carries the identity of the
//! deployment that minted it, so a token from one deployment is refused by
//! another instead of silently addressing the wrong slot or timer.

use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU32, Ordering};

use rtsj::memory::{AreaId, MemoryManager};
use rtsj::thread::{Priority, ThreadKind};
use rtsj::time::AbsoluteTime;
use soleil_core::arch::{ChildEdge, ServerSwap};
use soleil_core::contract::TimingContract;
use soleil_core::model::{ComponentId, ComponentKind};
use soleil_core::validate::{
    is_compliant_after, is_compliant_in, parallel_coupling, validate, FactsStorage,
};
use soleil_core::{Architecture, ValidationReport};
use soleil_membrane::content::{ContentRegistry, Payload};
use soleil_membrane::interceptors::FaultInjector;
use soleil_membrane::monitor::LatencySnapshot;
use soleil_membrane::FrameworkError;

use crate::footprint::FootprintReport;
use crate::parallel::{self, Rewire, Rings, Shard, ShardRun};
use crate::spec::{Mode, ProtocolSpec, SystemSpec};
use crate::system::{
    EngineStats, FaultPolicy, Lifecycle, MembraneInfo, MonitorSlot, RehomeUndo, RowPreImage,
    SupervisionPreImage, System,
};
use crate::timer::TimerHandle;

/// Mints a fresh deployment identity (token-scoping nonce).
static NEXT_DEPLOYMENT: AtomicU32 = AtomicU32::new(1);

/// A component resolved within one [`Deployment`]: a copyable token that
/// addresses the component's shard and engine slot without any name
/// resolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ComponentRef {
    deployment: u32,
    shard: u32,
    slot: u32,
}

impl ComponentRef {
    fn shard(self) -> usize {
        self.shard as usize
    }

    fn slot(self) -> usize {
        self.slot as usize
    }
}

/// A server port resolved within one [`Deployment`]: the component token
/// plus port index, the complete address an injection needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PortRef {
    component: ComponentRef,
    port_ix: u16,
}

/// Names a component of a [`Deployment`]: a [`ComponentRef`] (checked,
/// never looked up) or a `&str` name (resolved on every call, counted by
/// [`Deployment::name_lookups`]).
pub trait Address: Copy {
    /// Resolves to a token of `dep`.
    ///
    /// # Errors
    ///
    /// [`FrameworkError::Content`] for unknown names and foreign refs.
    fn locate<P: Payload>(self, dep: &Deployment<P>) -> Result<ComponentRef, FrameworkError>;
}

impl Address for ComponentRef {
    fn locate<P: Payload>(self, dep: &Deployment<P>) -> Result<ComponentRef, FrameworkError> {
        if self.deployment != dep.nonce {
            return Err(FrameworkError::Content(
                "component ref was minted by a different deployment".into(),
            ));
        }
        Ok(self)
    }
}

impl Address for &str {
    fn locate<P: Payload>(self, dep: &Deployment<P>) -> Result<ComponentRef, FrameworkError> {
        dep.resolve(self)
    }
}

/// A deployed, runnable architecture over one or more shards, with its
/// plan and architecture kept alive for transactional reconfiguration.
/// See the [module docs](self).
pub struct Deployment<P: Payload> {
    nonce: u32,
    mode: Mode,
    shards: Vec<Shard<P>>,
    rings: Rings,
    /// The plan, kept in lock-step with every committed transaction.
    spec: SystemSpec,
    /// Global spec component index → its token.
    refs: Vec<ComponentRef>,
    /// The architectural mirror (absent for bare-spec builds) and, per
    /// global component index, the component's id in it.
    arch: Option<Architecture>,
    ids: Vec<ComponentId>,
    /// Whether the architecture is known to pass the RTSJ verdict: set at
    /// build by one full verdict and by every commit, and kept by a
    /// rollback, which restores the state it describes. While it is false,
    /// a commit checks the whole architecture instead of what its
    /// transaction touched.
    compliant: bool,
    /// Names resolved by [`resolve`](Self::resolve).
    lookups: Cell<u64>,
    /// What [`reconfigure`](Self::reconfigure) lends each transaction.
    scratch: Scratch,
}

/// The sharded deployment's former name. Kept so existing callers (the
/// `perfbench` harness among them) compile unchanged.
pub type ParallelSystem<P> = Deployment<P>;

/// The sharded transaction handle's former name (see [`ParallelSystem`]).
pub type ParallelReconfiguration<'d, P> = Reconfiguration<'d, P>;

impl<P: Payload> std::fmt::Debug for Deployment<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Deployment")
            .field("name", &self.spec.name)
            .field("mode", &self.mode)
            .field("shards", &self.shards.len())
            .field("components", &self.refs.len())
            .finish()
    }
}

impl<P: Payload> Deployment<P> {
    /// Materializes `spec` in `mode` on one shard — exactly the engine
    /// [`System::build`] makes — and pairs it with the architecture it was
    /// compiled from (normally called through `soleil_generator::deploy`,
    /// which supplies a validated architecture).
    ///
    /// # Errors
    ///
    /// Build errors from [`System::build`], or
    /// [`FrameworkError::Content`] when `arch` does not describe the same
    /// components as `spec` (possible only through `assume_valid`-style
    /// escape hatches).
    pub fn build(
        spec: &SystemSpec,
        mode: Mode,
        registry: &ContentRegistry<P>,
        arch: Architecture,
    ) -> Result<Deployment<P>, FrameworkError> {
        Self::assemble(spec, mode, registry, Some(arch), false)
    }

    /// Plans the thread-domain partition of `spec`, materializes one engine
    /// per shard and wires every cross-shard binding through a wait-free
    /// SPSC ring (see [`crate::parallel`] for the partition rules). With an
    /// architecture (the generator's `deploy_parallel` passes the validated
    /// one), reconfiguration keeps it in lock-step and re-validates it at
    /// commit; without one, transactions reconfigure the engines and the
    /// plan alone.
    ///
    /// # Errors
    ///
    /// Same as [`Deployment::build`].
    pub fn build_parallel(
        spec: &SystemSpec,
        mode: Mode,
        registry: &ContentRegistry<P>,
        arch: Option<Architecture>,
    ) -> Result<Deployment<P>, FrameworkError> {
        Self::assemble(spec, mode, registry, arch, true)
    }

    fn assemble(
        spec: &SystemSpec,
        mode: Mode,
        registry: &ContentRegistry<P>,
        arch: Option<Architecture>,
        sharded: bool,
    ) -> Result<Deployment<P>, FrameworkError> {
        let (shards, rings) = parallel::build_shards(spec, mode, registry, sharded)?;
        let ids = match &arch {
            Some(arch) => spec
                .components
                .iter()
                .map(|c| {
                    arch.id_of(&c.name).map_err(|_| {
                        FrameworkError::Content(format!(
                            "architecture does not describe deployed component '{}'",
                            c.name
                        ))
                    })
                })
                .collect::<Result<_, _>>()?,
            None => Vec::new(),
        };
        // `build` takes a raw architecture, and a witness may come from
        // `assume_valid`: what a commit may assume is checked here, once.
        let mut scratch = Scratch::default();
        let compliant = arch
            .as_ref()
            .is_some_and(|arch| is_compliant_in(arch, &mut scratch.facts));
        let nonce = NEXT_DEPLOYMENT.fetch_add(1, Ordering::Relaxed);
        let mut refs = vec![
            ComponentRef {
                deployment: nonce,
                shard: 0,
                slot: 0,
            };
            spec.components.len()
        ];
        for (shard, s) in shards.iter().enumerate() {
            for (slot, &g) in s.globals.iter().enumerate() {
                refs[g] = ComponentRef {
                    deployment: nonce,
                    shard: shard as u32,
                    slot: slot as u32,
                };
            }
        }
        Ok(Deployment {
            nonce,
            mode,
            shards,
            rings,
            spec: spec.clone(),
            refs,
            arch,
            ids,
            compliant,
            lookups: Cell::new(0),
            scratch,
        })
    }

    // -----------------------------------------------------------------
    // Addressing
    // -----------------------------------------------------------------

    /// Resolves a component name to its token — once, at the cold edge;
    /// hold the `ComponentRef` for the hot loop.
    ///
    /// # Errors
    ///
    /// [`FrameworkError::Content`] for unknown names.
    pub fn resolve(&self, name: &str) -> Result<ComponentRef, FrameworkError> {
        self.lookups.set(self.lookups.get() + 1);
        self.spec
            .component_index(name)
            .map(|g| self.refs[g])
            .ok_or_else(|| FrameworkError::Content(format!("unknown component '{name}'")))
    }

    /// Resolves a server port of a component to its token.
    ///
    /// # Errors
    ///
    /// [`FrameworkError::Binding`] for unknown ports,
    /// [`FrameworkError::Content`] for unknown components.
    pub fn port(&self, component: impl Address, port: &str) -> Result<PortRef, FrameworkError> {
        let component = component.locate(self)?;
        let port_ix = self.shards[component.shard()]
            .system
            .port_ix_of(component.slot(), port)?;
        Ok(PortRef { component, port_ix })
    }

    /// Tokens of every periodic component, shard by shard, highest
    /// priority first within a shard (the release order of one tick).
    pub fn periodic_heads(&self) -> Vec<ComponentRef> {
        self.shards
            .iter()
            .flat_map(|s| {
                s.system
                    .periodic_heads()
                    .into_iter()
                    .map(|slot| self.refs[s.globals[slot]])
            })
            .collect()
    }

    /// The name a component resolves back to (diagnostics).
    ///
    /// # Errors
    ///
    /// [`FrameworkError::Content`] for unknown components.
    pub fn name_of(&self, component: impl Address) -> Result<&str, FrameworkError> {
        let c = component.locate(self)?;
        Ok(self.shards[c.shard()].system.node_name(c.slot()))
    }

    /// Runs `f` against the engine and slot of `component`.
    fn on<T>(
        &self,
        component: impl Address,
        f: impl FnOnce(&System<P>, usize) -> Result<T, FrameworkError>,
    ) -> Result<T, FrameworkError> {
        let c = component.locate(self)?;
        f(&self.shards[c.shard()].system, c.slot())
    }

    /// Runs `f` against the engine and slot of `component`, mutably.
    fn on_mut<T>(
        &mut self,
        component: impl Address,
        f: impl FnOnce(&mut System<P>, usize) -> Result<T, FrameworkError>,
    ) -> Result<T, FrameworkError> {
        let c = component.locate(self)?;
        f(&mut self.shards[c.shard()].system, c.slot())
    }

    /// Drains a sharded deployment's rings to quiescence on the caller's
    /// thread; a one-shard deployment has none and pays one compare.
    fn quiesce(&mut self) -> Result<(), FrameworkError> {
        parallel::quiesce(&mut self.shards, |_, _| {})
    }

    // -----------------------------------------------------------------
    // Hot path: zero name resolution per call
    // -----------------------------------------------------------------

    /// Drives one complete transaction from the periodic component `head`
    /// (release + synchronous nesting + asynchronous cascade to
    /// quiescence, on every shard it reaches) on the caller's thread. No
    /// name resolution, no allocation in steady state.
    ///
    /// # Errors
    ///
    /// Any framework or substrate error raised along the way, as the
    /// engine raised it.
    pub fn run_transaction(&mut self, head: ComponentRef) -> Result<(), FrameworkError> {
        let head = head.locate(self)?;
        self.shards[head.shard()]
            .system
            .run_transaction(head.slot())?;
        self.quiesce()
    }

    /// Releases every periodic component once, in priority order, on the
    /// caller's thread: each shard ticks in shard order, then cross-shard
    /// traffic drains until a pass over every shard pops nothing.
    ///
    /// # Errors
    ///
    /// The first transaction error aborts the tick, as the engine raised
    /// it; later shards do not tick.
    pub fn run_tick(&mut self) -> Result<(), FrameworkError> {
        parallel::tick(&mut self.shards, |_, _| {})
    }

    /// Injects an external stimulus on a pre-resolved server port, then
    /// drains the cascade on every shard it reaches, on the caller's thread.
    ///
    /// # Errors
    ///
    /// Any framework or substrate error raised along the way, as the
    /// engine raised it.
    pub fn inject(&mut self, port: PortRef, msg: P) -> Result<(), FrameworkError> {
        let c = port.component.locate(self)?;
        self.shards[c.shard()]
            .system
            .inject_at(c.slot(), port.port_ix, msg)?;
        self.quiesce()
    }

    /// `ticks` × [`run_tick`](Self::run_tick), with a report per shard.
    /// Equivalent to
    /// [`run_ticks_instrumented`](Self::run_ticks_instrumented) with no
    /// warmup and a constant probe.
    ///
    /// # Errors
    ///
    /// As [`run_tick`](Self::run_tick): the first error ends the run.
    pub fn run_ticks(&mut self, ticks: u64) -> Result<Vec<ShardRun>, FrameworkError> {
        self.run_ticks_instrumented(0, ticks, &|| 0)
    }

    /// The instrumented tick loop: `warmup` unmeasured
    /// [`run_tick`](Self::run_tick)s (provisioning lazily-grown
    /// structures), then `ticks` measured ones, on the same tick path and
    /// the caller's thread. Each shard's own tick and drain passes are
    /// timed, and `probe` is sampled around them, so every [`ShardRun`]
    /// figure is that shard's share: pass an allocation counter to gate the
    /// steady state at 0 allocations, as `soleil-bench` does.
    ///
    /// # Errors
    ///
    /// As [`run_tick`](Self::run_tick): the first error ends the run.
    pub fn run_ticks_instrumented<F>(
        &mut self,
        warmup: u64,
        ticks: u64,
        probe: &F,
    ) -> Result<Vec<ShardRun>, FrameworkError>
    where
        F: Fn() -> u64,
    {
        for _ in 0..warmup {
            self.run_tick()?;
        }
        parallel::run_shards(&mut self.shards, ticks, probe)
    }

    // -----------------------------------------------------------------
    // Introspection
    // -----------------------------------------------------------------

    /// The generation mode every shard runs in.
    pub fn mode(&self) -> Mode {
        self.mode
    }

    /// The system name.
    pub fn name(&self) -> &str {
        &self.spec.name
    }

    /// Engine counters summed across shards. Cross-ring traffic lands in
    /// the ledger split across engines: the producer shard counts the push
    /// (`async_messages`), the consumer shard counts the delivery or the
    /// quarantine drop — the sum is what conservation is asserted on.
    pub fn stats(&self) -> EngineStats {
        self.shards.iter().map(|s| s.system.stats()).sum()
    }

    /// Name resolutions performed so far: [`resolve`](Self::resolve)
    /// (every `&str` [`Address`] goes through it) plus the engines' own
    /// (see [`System::name_lookups`]).
    pub fn name_lookups(&self) -> u64 {
        self.lookups.get()
            + self
                .shards
                .iter()
                .map(|s| s.system.name_lookups())
                .sum::<u64>()
    }

    /// String comparisons performed by port dispatch so far, summed across
    /// shards (see [`System::string_compares`]).
    pub fn string_compares(&self) -> u64 {
        self.shards.iter().map(|s| s.system.string_compares()).sum()
    }

    /// Shard 0's substrate (experiments, footprint; every shard of a
    /// sharded deployment has its own, see
    /// [`shard_system`](Self::shard_system)).
    pub fn memory(&self) -> &MemoryManager {
        self.shards[0].system.memory()
    }

    /// Thread-domain roster: name, thread kind and priority per domain,
    /// shard by shard.
    pub fn domain_info(&self) -> Vec<(String, ThreadKind, Priority)> {
        self.shards
            .iter()
            .flat_map(|s| s.system.domain_info())
            .collect()
    }

    /// The footprint report of the running deployment: a sharded
    /// deployment lists every shard's areas and sums its byte figures.
    /// SOLEIL's framework bytes include the reified plan
    /// ([`reified_spec`](Self::reified_spec)).
    pub fn footprint(&self) -> FootprintReport {
        let mut reports = self.shards.iter().map(|s| s.system.footprint());
        let mut total = reports.next().expect("a deployment has a shard");
        for r in reports {
            total.areas.extend(r.areas);
            total.framework_bytes += r.framework_bytes;
            total.release_engine_bytes += r.release_engine_bytes;
        }
        total.framework_bytes += self.reified_spec().map_or(0, SystemSpec::metadata_bytes);
        total
    }

    /// The reified deployment plan — SOLEIL's introspection surface, and
    /// part of its framework bytes. Every mode keeps the plan (commits
    /// read it), but only SOLEIL serves it; the merged modes return
    /// `None`. It holds placements only — a binding's server, a
    /// component's area and domain — which every committed transaction
    /// updates and every rollback restores, so it always describes the
    /// live bindings and placements, as a fresh deploy of
    /// [`architecture`](Self::architecture) would. What the RTSJ rules
    /// decide from them is derived when asked
    /// ([`SystemSpec::crossing`], [`SystemSpec::ceiling`]).
    pub fn reified_spec(&self) -> Option<&SystemSpec> {
        (self.mode == Mode::Soleil).then_some(&self.spec)
    }

    /// The architecture this deployment currently implements — kept in
    /// lock-step by [`reconfigure`](Self::reconfigure), so it always
    /// describes the live bindings.
    ///
    /// # Panics
    ///
    /// On a deployment built from a bare spec
    /// (`build_parallel(.., None)`), which has no architecture.
    pub fn architecture(&self) -> &Architecture {
        self.arch
            .as_ref()
            .expect("deployment was built from a bare spec, without an architecture")
    }

    /// Shard 0's engine (read-only; escape hatch for experiments — the
    /// only engine of a one-shard deployment, see
    /// [`shard_system`](Self::shard_system) for the others).
    pub fn system(&self) -> &System<P> {
        &self.shards[0].system
    }

    /// Number of shards (engines).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard a thread domain was planned into.
    pub fn shard_of_domain(&self, domain: &str) -> Option<usize> {
        self.shards
            .iter()
            .position(|s| s.domains.iter().any(|d| d == domain))
    }

    /// The shard a component was planned into.
    pub fn shard_of_component(&self, component: &str) -> Option<usize> {
        self.spec
            .component_index(component)
            .map(|g| self.refs[g].shard())
    }

    /// Engine counters of one shard.
    pub fn shard_stats(&self, shard: usize) -> EngineStats {
        self.shards[shard].system.stats()
    }

    /// Read-only access to one shard's engine (introspection, footprint).
    pub fn shard_system(&self, shard: usize) -> &System<P> {
        &self.shards[shard].system
    }

    /// Per-shard structural digests: each engine's
    /// [`System::structural_digest`] folded with the rings the shard drains
    /// and pools, each with the consumer seat it serves — the
    /// byte-identical-rollback witness. A refused
    /// [`reconfigure`](Self::reconfigure) leaves every entry unchanged.
    pub fn structural_digests(&self) -> Vec<u64> {
        self.shards.iter().map(Shard::structural_digest).collect()
    }

    /// Membrane-level introspection — SOLEIL mode only, per the paper.
    ///
    /// # Errors
    ///
    /// [`FrameworkError::Unsupported`] in the merged modes.
    pub fn membrane_info(&self, component: impl Address) -> Result<MembraneInfo, FrameworkError> {
        self.on(component, |system, slot| system.membrane_info_at(slot))
    }

    /// The priority ceiling of a shared passive service, if any: the
    /// validator's rule ([`SystemSpec::ceiling`]) over the synchronous
    /// callers the live plan seats now, so a committed rebind or domain
    /// move that changes them changes it, as a fresh deploy would.
    ///
    /// # Errors
    ///
    /// [`FrameworkError::Content`] for unknown components.
    pub fn ceiling_of(&self, component: impl Address) -> Result<Option<Priority>, FrameworkError> {
        let g = self.global(component.locate(self)?);
        Ok(self.spec.ceiling(g).map(Priority::new))
    }

    // -----------------------------------------------------------------
    // Release engine: scheduled releases + runtime contracts
    // -----------------------------------------------------------------

    /// Schedules an extra release of the periodic component `head` at
    /// absolute engine time `at`, on the timer queue of its shard. The
    /// timer fires during the first tick whose clock reaches `at` (or an
    /// explicit [`fire_timers_until`](Self::fire_timers_until)), before
    /// the regular periodic releases of that tick. The handle cancels it.
    ///
    /// # Errors
    ///
    /// [`FrameworkError::Timer`] when the component is not periodic or
    /// the preallocated queue is full; [`FrameworkError::Content`] for
    /// unknown components.
    pub fn schedule_release(
        &mut self,
        head: impl Address,
        at: AbsoluteTime,
    ) -> Result<TimerHandle, FrameworkError> {
        let head = head.locate(self)?;
        self.shards[head.shard()]
            .system
            .schedule_release(head.slot(), at)
            .map(|handle| handle.issued_by(self.nonce, head.shard()))
    }

    /// Cancels a scheduled release; `false` when the handle is stale
    /// (already fired or cancelled) or was issued by another deployment —
    /// generation-checked and deployment-scoped, always safe.
    pub fn cancel_release(&mut self, handle: TimerHandle) -> bool {
        handle.deployment() == self.nonce
            && self
                .shards
                .get_mut(handle.shard())
                .is_some_and(|s| s.system.cancel_release(handle))
    }

    /// Advances every shard's clock to `now`, in shard order, and fires
    /// every due scheduled release as a full transaction, on the caller's
    /// thread. Returns the number fired.
    ///
    /// # Errors
    ///
    /// The first failing fired transaction aborts the advance, as the
    /// engine raised it; later shards do not advance.
    pub fn fire_timers_until(&mut self, now: AbsoluteTime) -> Result<u64, FrameworkError> {
        let mut fired = 0;
        for s in &mut self.shards {
            fired += s.system.advance_clock_to(now)?;
        }
        self.quiesce().map(|()| fired)
    }

    /// The virtual release clock, read on shard 0: every shard advances
    /// the whole plan's quantum per tick, so all agree, unless a
    /// virtual-clock fault injector's latency spike moved one of them.
    pub fn timer_clock(&self) -> AbsoluteTime {
        self.shards[0].system.clock()
    }

    /// Currently armed (scheduled, unfired, uncancelled) timers, summed
    /// across shards.
    pub fn armed_timers(&self) -> usize {
        self.shards.iter().map(|s| s.system.armed_timers()).sum()
    }

    /// [`Reconfiguration::attach_contract`] as a one-operation transaction,
    /// committed in every mode. Like every commit, it is refused on a
    /// deployment whose architecture never passed the RTSJ verdict.
    ///
    /// # Errors
    ///
    /// Those of [`reconfigure`](Self::reconfigure) running that operation.
    pub fn attach_contract(
        &mut self,
        component: impl Address,
        contract: TimingContract,
    ) -> Result<(), FrameworkError> {
        self.reconfigure(|txn| txn.attach_contract(component, contract))
    }

    /// [`Reconfiguration::detach_contract`] as a one-operation transaction,
    /// committed in every mode. Like every commit, it is refused on a
    /// deployment whose architecture never passed the RTSJ verdict.
    ///
    /// # Errors
    ///
    /// Those of [`reconfigure`](Self::reconfigure) running that operation.
    pub fn detach_contract(&mut self, component: impl Address) -> Result<bool, FrameworkError> {
        self.reconfigure(|txn| txn.detach_contract(component))
    }

    /// The timing contract attached to a component, if any.
    ///
    /// # Errors
    ///
    /// [`FrameworkError::Content`] for unknown components.
    pub fn contract_of(
        &self,
        component: impl Address,
    ) -> Result<Option<TimingContract>, FrameworkError> {
        self.on(component, |system, slot| {
            Ok(system.contract_at(slot).cloned())
        })
    }

    /// A snapshot of a component's latency monitor (histogram quantiles,
    /// miss/violation counters); `None` when no contract is attached.
    ///
    /// # Errors
    ///
    /// [`FrameworkError::Content`] for unknown components.
    pub fn latency_snapshot(
        &self,
        component: impl Address,
    ) -> Result<Option<LatencySnapshot>, FrameworkError> {
        self.on(component, |system, slot| {
            Ok(system.latency_snapshot_at(slot))
        })
    }

    /// Deadline misses observed across every monitored component of every
    /// shard (see [`System::deadline_misses`]).
    pub fn deadline_misses(&self) -> u64 {
        self.shards.iter().map(|s| s.system.deadline_misses()).sum()
    }

    /// Checks every attached contract against its observations and folds
    /// the verdicts of every shard into one report (SOL-016…SOL-019
    /// violations; a compliant report means every contract holds).
    pub fn contract_report(&self) -> ValidationReport {
        let mut report = ValidationReport::default();
        for s in &self.shards {
            report.merge(s.system.contract_report());
        }
        report
    }

    // -----------------------------------------------------------------
    // Fault containment & supervision
    // -----------------------------------------------------------------

    /// [`Reconfiguration::set_fault_policy`] as a one-operation transaction,
    /// committed in every mode. Like every commit, it is refused on a
    /// deployment whose architecture never passed the RTSJ verdict.
    ///
    /// # Errors
    ///
    /// Those of [`reconfigure`](Self::reconfigure) running that operation.
    pub fn set_fault_policy(
        &mut self,
        component: impl Address,
        policy: FaultPolicy,
    ) -> Result<(), FrameworkError> {
        self.reconfigure(|txn| txn.set_fault_policy(component, policy))
    }

    /// The fault policy declared for a component
    /// ([`FaultPolicy::Escalate`] by default).
    ///
    /// # Errors
    ///
    /// [`FrameworkError::Content`] for unknown components.
    pub fn fault_policy(&self, component: impl Address) -> Result<FaultPolicy, FrameworkError> {
        self.on(component, |system, slot| Ok(system.fault_policy_at(slot)))
    }

    /// True while a component is quarantined by its fault policy.
    ///
    /// # Errors
    ///
    /// [`FrameworkError::Content`] for unknown components.
    pub fn quarantined(&self, component: impl Address) -> Result<bool, FrameworkError> {
        self.on(component, |system, slot| Ok(system.quarantined_at(slot)))
    }

    /// Restarts a quarantined component **now** with a fresh content
    /// instance (the supervised-restart path without waiting for a backoff
    /// timer). Idempotent on healthy components.
    ///
    /// # Errors
    ///
    /// [`FrameworkError::Content`] for unknown components;
    /// [`FrameworkError::Faulted`] with `FaultKind::Panic` when the
    /// factory or a restart hook (`checkpoint`, `on_start`, `restore`)
    /// panics — the component then stays quarantined, poisoned.
    pub fn restart_component(&mut self, component: impl Address) -> Result<(), FrameworkError> {
        self.on_mut(component, |system, slot| system.restart_slot(slot))
    }

    /// Installs an engine-level deterministic [`FaultInjector`] at a
    /// component's activation boundary (any mode; replaces any previous
    /// injector). With `rate == 0` the injector is idle and the boundary
    /// pays one integer compare — the shape the zero-alloc gate deploys.
    ///
    /// # Errors
    ///
    /// [`FrameworkError::Content`] for unknown components.
    pub fn install_fault_injector(
        &mut self,
        component: impl Address,
        injector: FaultInjector,
    ) -> Result<(), FrameworkError> {
        self.on_mut(component, |system, slot| {
            system.install_fault_injector_at(slot, injector).map(|_| ())
        })
    }

    /// Removes a component's engine-level fault injector; `true` when one
    /// was installed.
    ///
    /// # Errors
    ///
    /// [`FrameworkError::Content`] for unknown components.
    pub fn remove_fault_injector(
        &mut self,
        component: impl Address,
    ) -> Result<bool, FrameworkError> {
        self.on_mut(component, |system, slot| {
            Ok(system.remove_fault_injector_at(slot).is_some())
        })
    }

    /// `(activations seen, faults injected)` of a component's engine-level
    /// injector; `None` when none is installed.
    ///
    /// # Errors
    ///
    /// [`FrameworkError::Content`] for unknown components.
    pub fn injector_counts(
        &self,
        component: impl Address,
    ) -> Result<Option<(u64, u64)>, FrameworkError> {
        self.on(
            component,
            |system, slot| Ok(system.injector_counts_at(slot)),
        )
    }

    /// Supervision counters of a component:
    /// `(faults contained, supervised restarts, suppressed releases)`.
    ///
    /// # Errors
    ///
    /// [`FrameworkError::Content`] for unknown components.
    pub fn supervision_counts(
        &self,
        component: impl Address,
    ) -> Result<(u64, u64, u64), FrameworkError> {
        self.on(component, |system, slot| {
            Ok(system.supervision_counts_at(slot))
        })
    }

    /// [`Reconfiguration::set_supervisor`] as a one-operation transaction,
    /// committed in every mode. Like every commit, it is refused on a
    /// deployment whose architecture never passed the RTSJ verdict.
    ///
    /// # Errors
    ///
    /// Those of [`reconfigure`](Self::reconfigure) running that operation.
    pub fn set_supervisor<A: Address>(
        &mut self,
        component: A,
        supervisor: Option<A>,
    ) -> Result<(), FrameworkError> {
        self.reconfigure(|txn| txn.set_supervisor(component, supervisor))
    }

    /// The global spec component index a token addresses.
    fn global(&self, at: ComponentRef) -> usize {
        self.shards[at.shard()].globals[at.slot()]
    }

    /// A component's declared supervisor, if any.
    ///
    /// # Errors
    ///
    /// [`FrameworkError::Content`] for unknown components.
    pub fn supervisor_of(
        &self,
        component: impl Address,
    ) -> Result<Option<ComponentRef>, FrameworkError> {
        let c = component.locate(self)?;
        let shard = &self.shards[c.shard()];
        let supervisor = shard.system.supervisor_of_at(c.slot());
        Ok(supervisor.map(|slot| self.refs[shard.globals[slot]]))
    }

    /// The rendered escalation path (`origin -> … -> supervisor`) of the
    /// last fault this component contained as a supervisor; `None` until
    /// an escalation walked through it. The same path is published as a
    /// SOL-023 verdict in [`health_report`](Self::health_report).
    ///
    /// # Errors
    ///
    /// [`FrameworkError::Content`] for unknown components.
    pub fn escalation_path(
        &self,
        component: impl Address,
    ) -> Result<Option<String>, FrameworkError> {
        self.on(
            component,
            |system, slot| Ok(system.escalation_path_at(slot)),
        )
    }

    /// Opts a component into the warm-state **Checkpoint capability**: its
    /// content must implement
    /// [`Content::checkpoint`](soleil_membrane::content::Content::checkpoint),
    /// and the engine
    /// preallocates two bounded state images (healthy + boundary scratch)
    /// sized by the content's `state_bytes()` bound. Both images are
    /// charged against the component's allocation area **immediately** —
    /// monotonic substrate accounting, like build — and a refused charge
    /// tears the capability back out, leaving the deployment unchanged.
    ///
    /// After enabling, the engine captures the live state every `cadence`
    /// activations whose `on_invoke` succeeded — inside the activation's
    /// panic boundary, so a panicking `checkpoint` is a fault of the
    /// component, handled by its policy — and at every supervised-restart
    /// boundary;
    /// the fresh instance installed by a supervised restart then restores
    /// the boundary image (or, after a poisoning panic, the last healthy
    /// cadence image) before its first release.
    ///
    /// # Errors
    ///
    /// [`FrameworkError::Content`] for unknown components, a zero cadence,
    /// or content without the capability; substrate budget exhaustion when
    /// the area cannot hold the images.
    pub fn enable_checkpoint(
        &mut self,
        component: impl Address,
        cadence: u32,
    ) -> Result<(), FrameworkError> {
        self.on_mut(component, |system, slot| {
            let bytes = system.enable_checkpoint_at(slot, cadence)?;
            let area = system.area_id(system.area_ix_at(slot));
            system.charge(area, bytes).inspect_err(|_| {
                system.disable_checkpoint_at(slot);
            })
        })
    }

    /// `(captures, restores)` of a component's checkpoint storage; `None`
    /// when the capability is not enabled.
    ///
    /// # Errors
    ///
    /// [`FrameworkError::Content`] for unknown components.
    pub fn checkpoint_counts(
        &self,
        component: impl Address,
    ) -> Result<Option<(u64, u64)>, FrameworkError> {
        self.on(component, |system, slot| {
            Ok(system.checkpoint_counts_at(slot))
        })
    }

    /// The full runtime health report folded across every shard: contract
    /// verdicts (SOL-016…019) plus supervision findings — SOL-020 per
    /// quarantined component, SOL-021 per exhausted restart budget, SOL-022
    /// when messages were counted-dropped at quarantine gates, SOL-023
    /// naming the supervision path of each contained escalation.
    pub fn health_report(&self) -> ValidationReport {
        let mut report = ValidationReport::default();
        for s in &self.shards {
            report.merge(s.system.health_report());
        }
        report
    }

    /// Tears every shard down (see [`System::shutdown`]), each one even
    /// when an earlier one failed.
    ///
    /// # Errors
    ///
    /// The first shard's error: a substrate error releasing pins, or a
    /// panicking `on_stop` as [`FrameworkError::Faulted`].
    pub fn shutdown(&mut self) -> Result<(), FrameworkError> {
        let mut first = Ok(());
        for s in &mut self.shards {
            first = first.and(s.system.shutdown());
        }
        first
    }

    // -----------------------------------------------------------------
    // Transactional reconfiguration
    // -----------------------------------------------------------------

    /// Runs a reconfiguration transaction: the closure applies lifecycle,
    /// binding, domain, contract and supervision operations through the
    /// [`Reconfiguration`] handle; when it returns `Ok`, the result is
    /// re-validated — the plan's partition invariants when there is more
    /// than one shard, and, for architecture-carrying deployments, the
    /// RTSJ rule set — and commits only if compliant. The rules re-check
    /// only what the journal touched ([`is_compliant_after`]): the
    /// components whose domain edge moved, everything below them, and the
    /// bindings rebound or with an endpoint among them. That is exact
    /// because the deployment knows its architecture passed the verdict
    /// before the transaction: one full verdict at build, and every commit
    /// since. Until one passed (a raw architecture given to
    /// [`build`](Self::build) that does not comply), a commit checks the
    /// whole architecture. A transaction that moved and rebound nothing
    /// runs no rule. The verdict renders no diagnostic; the full report is
    /// built only when it refuses. Substrate charges
    /// for rings and re-homed state are deferred to the commit and
    /// admitted together before the first is made, so a transaction
    /// refused at any step, the charges included, is charge-neutral. On a
    /// closure error *or* a refusal every applied operation is rolled
    /// back, leaving engines, rings, plan and architecture exactly as
    /// before the call (witness:
    /// [`structural_digests`](Self::structural_digests)). A closure that
    /// panics is rolled back the same way before its unwind continues out
    /// of this call. An `on_start`/`on_stop` hook an operation runs is
    /// caught: its panic is the typed fault the operation returns, and
    /// the transaction rolls back before this call returns it.
    ///
    /// Every journal entry is a pre-image that rollback only writes back:
    /// it re-runs no operation, re-checks nothing and calls no hook, so it
    /// cannot fail halfway. A refused transaction that stopped a component
    /// has run its `on_stop` once, and does not run `on_start` again.
    ///
    /// The journal, the deferred charges, the verdict's facts table and
    /// the architecture walks are the deployment's, lent to the
    /// transaction and cleared, not dropped, when it ends. So once a
    /// transaction of the same shape has run, a committed or refused one
    /// makes no heap allocation — only attaching a contract allocates its
    /// monitor.
    ///
    /// A sharded deployment is first driven to a quiescence epoch — every
    /// ring drained, zero messages in flight — on the caller's thread: the
    /// parallel analogue of the run-to-completion guarantee a one-shard
    /// deployment gets for free.
    ///
    /// Every mode commits transactions. ULTRA-MERGE fuses the membranes
    /// away, so there its structural operations (`stop`, `start`,
    /// `rebind`, `rebind_async`, `reassign_domain`) refuse, while
    /// contracts, fault policies and supervisor edges, which the engine
    /// runs in every mode, commit.
    ///
    /// # Errors
    ///
    /// * The engine's own error if a drained message's activation
    ///   escalates, before anything is applied.
    /// * The closure's error, after rollback: among them
    ///   [`FrameworkError::Unsupported`] for a structural operation under
    ///   ULTRA-MERGE, and [`FrameworkError::Faulted`] for a panicking
    ///   `on_start`/`on_stop`.
    /// * [`FrameworkError::Rejected`] with the full validation report when
    ///   the resulting architecture violates RTSJ, after rollback.
    /// * The substrate's error when the deferred charges do not fit their
    ///   areas, after rollback and with none of them made.
    pub fn reconfigure<T>(
        &mut self,
        f: impl FnOnce(&mut Reconfiguration<'_, P>) -> Result<T, FrameworkError>,
    ) -> Result<T, FrameworkError> {
        self.quiesce()?;
        let mut txn = Reconfiguration { dep: self };
        let result = match catch_unwind(AssertUnwindSafe(|| f(&mut txn))) {
            Ok(result) => result.and_then(|value| txn.commit().map(|()| value)),
            Err(payload) => {
                txn.rollback();
                txn.dep.scratch.clear();
                resume_unwind(payload)
            }
        };
        if result.is_err() {
            txn.rollback();
        }
        self.scratch.clear();
        result
    }

    /// The partition invariants a sharded commit re-checks: the plan's own
    /// consistency, synchronous bindings co-sharded, and every allocation
    /// region materialized on its component's shard.
    fn check_partition(&self) -> Result<(), FrameworkError> {
        self.spec.check().map_err(FrameworkError::Content)?;
        let name = |g: usize| &self.spec.components[g].name;
        for (bix, b) in self.spec.bindings.iter().enumerate() {
            if matches!(b.protocol, ProtocolSpec::Sync)
                && self.refs[b.client].shard != self.refs[b.server].shard
            {
                return Err(FrameworkError::Content(format!(
                    "partition invariant broken: synchronous binding {bix} ({}→{}) crosses \
                     shards",
                    name(b.client),
                    name(b.server)
                )));
            }
        }
        for (g, c) in self.spec.components.iter().enumerate() {
            let shard = self.refs[g].shard();
            let area = &self.spec.areas[c.area].name;
            if self.shards[shard].system.area_ix_by_name(area).is_none() {
                return Err(FrameworkError::Content(format!(
                    "partition invariant broken: '{}' charges area '{area}' which is not \
                     materialized on its shard {shard}",
                    c.name
                )));
            }
        }
        Ok(())
    }

    /// Writes a [`PlanRebind`] back: the plan binding's old server and
    /// the architecture's server swap.
    fn restore_plan(&mut self, plan: PlanRebind) {
        self.spec.bindings[plan.gbix].server = plan.old_server_g;
        if let (Some(swap), Some(arch)) = (plan.arch, self.arch.as_mut()) {
            arch.restore_server(swap);
        }
    }
}

#[cfg(test)]
impl<P: Payload> Deployment<P> {
    /// One shard, mutably: lets a test mis-seat a ring the way a faulty
    /// rollback would.
    pub(crate) fn shard_mut(&mut self, shard: usize) -> &mut Shard<P> {
        &mut self.shards[shard]
    }

    /// `spec` on one shard with no architecture — the engine
    /// [`System::build`] makes, behind the transactional path: the engine
    /// unit tests reconfigure through it.
    pub(crate) fn one_shard(
        spec: &SystemSpec,
        mode: Mode,
        registry: &ContentRegistry<P>,
    ) -> Result<Deployment<P>, FrameworkError> {
        Self::assemble(spec, mode, registry, None, false)
    }
}

/// The plan and architecture half of a rebind's undo: plan binding
/// `gbix`'s old server, and the architecture's in-place server swap.
#[derive(Clone, Copy)]
struct PlanRebind {
    gbix: usize,
    old_server_g: usize,
    arch: Option<ServerSwap>,
}

/// A ThreadDomain containment edge moved by `reassign_domain`: the old
/// edge as [`Architecture::remove_child`] took it out, and the new domain.
#[derive(Clone, Copy)]
struct DomainEdge {
    comp: ComponentId,
    removed: Option<ChildEdge>,
    new: ComponentId,
}

impl DomainEdge {
    /// Moves the edge back to its pre-transaction domain, at its old
    /// positions.
    fn restore(self, arch: &mut Architecture) {
        let added = arch.remove_child(self.new, self.comp);
        debug_assert!(added.is_some(), "transaction domain edge vanished");
        if let Some(edge) = self.removed {
            arch.restore_child(edge);
        }
    }
}

/// A substrate charge deferred to commit time: refused transactions never
/// reach the allocator, so they are charge-neutral (the paper's memory
/// model makes immortal/scoped charges permanent — a speculative charge
/// could never be given back). Either the state bytes of a re-homed
/// component, charged to a region it has not lived in before, or the slot
/// array of a freshly built cross-domain ring, charged to immortal memory
/// on the producer shard.
struct PendingCharge {
    shard: usize,
    area: AreaId,
    bytes: usize,
    /// The re-homed slot whose state the charge is; `None` for a ring.
    home_of: Option<usize>,
}

/// What a transaction accumulates as it runs, kept by its deployment
/// between transactions: empty whenever none runs, with the capacity the
/// largest one grew, so a warm transaction allocates nothing.
#[derive(Default)]
struct Scratch {
    /// The undo journal, oldest entry first.
    journal: Vec<Undo>,
    /// Substrate charges deferred to the commit.
    charges: Vec<PendingCharge>,
    /// Row pre-images of the transaction's re-homings, newest last: each
    /// re-homing [`Undo::Domain`] takes its own back off the end.
    rows: Vec<RowPreImage>,
    /// The commit verdict's facts table.
    facts: FactsStorage,
    /// The scratch of the transaction's architecture walks.
    walk: Vec<ComponentId>,
    /// The components whose containment edge the journal moved.
    moved: Vec<ComponentId>,
    /// The architecture's bindings the journal re-pointed.
    rebound: Vec<usize>,
}

impl Scratch {
    /// Ends a transaction: what it accumulated goes, the capacity stays.
    /// The facts table, the walk and the journal's edit are rebuilt
    /// wherever they are read.
    fn clear(&mut self) {
        self.journal.clear();
        self.charges.clear();
        self.rows.clear();
    }

    /// Reads the journal's edit of the architecture into `moved` and
    /// `rebound`: nothing else a transaction does changes it.
    fn collect_edit(&mut self) {
        self.moved.clear();
        self.rebound.clear();
        for undo in &self.journal {
            match undo {
                Undo::Domain {
                    edge: Some(edge), ..
                } => self.moved.push(edge.comp),
                Undo::Rebind { plan, .. } | Undo::Rewire { plan, .. } => {
                    if let Some(swap) = plan.arch {
                        self.rebound.push(swap.binding());
                    }
                }
                _ => {}
            }
        }
    }
}

/// One applied operation's undo record: a pre-image. Rollback writes
/// these back in reverse, restoring engines, rings, plan and architectural
/// model, and re-runs no operation.
enum Undo {
    /// Undo of `stop`/`start`: the component's lifecycle record before
    /// the hook ran.
    Lifecycle {
        at: ComponentRef,
        previous: Lifecycle,
    },
    /// Undo of a synchronous `rebind`: the port's pre-transaction row,
    /// plus the plan and architecture pre-images.
    Rebind {
        client: ComponentRef,
        old: RowPreImage,
        plan: PlanRebind,
    },
    /// Undo of `rebind_async`: take the installed ring off its consumer,
    /// restore the client's compiled binding, re-seat the retired ring and
    /// return a pooled one to the pool, plus the plan and architecture
    /// pre-images.
    Rewire { ring: Rewire, plan: PlanRebind },
    /// Undo of `reassign_domain`: re-seat the domain (and, for a re-homed
    /// component, migrate the allocation region back).
    Domain {
        at: ComponentRef,
        old_domain_ix: Option<usize>,
        old_domain_g: Option<usize>,
        /// `(engine undo record, old plan area index)` when the move
        /// re-homed the allocation region.
        rehome: Option<(RehomeUndo, usize)>,
        edge: Option<DomainEdge>,
    },
    /// Undo of a contract attach *or* detach: both reduce to putting the
    /// pre-transaction monitor slot — recorded histogram included — back.
    Contract {
        at: ComponentRef,
        previous: Option<Box<MonitorSlot>>,
    },
    /// Undo of `set_fault_policy`/`set_supervisor`: the component's
    /// pre-transaction policy and supervisor edge.
    Supervision {
        at: ComponentRef,
        previous: SupervisionPreImage,
    },
}

/// The in-flight transaction handle passed to
/// [`Deployment::reconfigure`]'s closure. Operations apply eagerly (later
/// operations observe earlier ones); the journal guarantees they all
/// revert together on failure.
pub struct Reconfiguration<'d, P: Payload> {
    dep: &'d mut Deployment<P>,
}

impl<P: Payload> Reconfiguration<'_, P> {
    /// The engine a token addresses.
    fn engine(&mut self, at: ComponentRef) -> &mut System<P> {
        &mut self.dep.shards[at.shard()].system
    }

    /// The guard every structural operation passes before it changes
    /// anything: the engines' refusal under ULTRA-MERGE
    /// ([`System::reject_static`]), asked first because an operation
    /// writes the plan and the architecture before it reaches an engine.
    fn structural(&self) -> Result<(), FrameworkError> {
        self.dep.shards[0].system.reject_static()
    }

    /// Stops a component (no-op if already stopped): its `on_stop` runs
    /// once. Journaled as the component's lifecycle record, so a rollback
    /// writes the record back and runs no hook.
    ///
    /// # Errors
    ///
    /// [`FrameworkError::Unsupported`] under ULTRA-MERGE;
    /// [`FrameworkError::Content`] for unknown components.
    pub fn stop(&mut self, component: impl Address) -> Result<(), FrameworkError> {
        self.set_started(component, false)
    }

    /// (Re)starts a component (no-op if already started): its `on_start`
    /// runs once. A quarantine survives a start — only a restart lifts it.
    /// Journaled as the component's lifecycle record, so a rollback writes
    /// the record back and runs no hook.
    ///
    /// # Errors
    ///
    /// [`FrameworkError::Unsupported`] under ULTRA-MERGE;
    /// [`FrameworkError::Content`] for unknown components.
    pub fn start(&mut self, component: impl Address) -> Result<(), FrameworkError> {
        self.set_started(component, true)
    }

    /// The body of [`stop`](Self::stop) and [`start`](Self::start).
    fn set_started(
        &mut self,
        component: impl Address,
        started: bool,
    ) -> Result<(), FrameworkError> {
        self.structural()?;
        let at = component.locate(self.dep)?;
        let system = self.engine(at);
        if system.node_started(at.slot()) == started {
            return Ok(());
        }
        let previous = if started {
            system.start_at(at.slot())
        } else {
            system.stop_at(at.slot())
        }?;
        self.dep
            .scratch
            .journal
            .push(Undo::Lifecycle { at, previous });
        Ok(())
    }

    /// Mirrors a rebind into the plan and, when the deployment carries
    /// one, the architectural model: plan binding `gbix` and its client
    /// port `port` are re-pointed at `new_server`, in place. The
    /// architecture runs the stricter checks (interface existence, role,
    /// signature equality) first, so a refusal changes nothing. Returns
    /// the pre-images.
    fn rebind_plan(
        &mut self,
        gbix: usize,
        port: &str,
        new_server: usize,
    ) -> Result<PlanRebind, FrameworkError> {
        let dep = &mut *self.dep;
        let client = dep.spec.bindings[gbix].client;
        let arch = dep
            .arch
            .as_mut()
            .map(|arch| arch.rebind_server(dep.ids[client], port, dep.ids[new_server]))
            .transpose()
            .map_err(|e| FrameworkError::Binding(e.to_string()))?;
        let old_server_g = std::mem::replace(&mut dep.spec.bindings[gbix].server, new_server);
        Ok(PlanRebind {
            gbix,
            old_server_g,
            arch,
        })
    }

    /// The plan binding of `client`'s `port`, with the given protocol
    /// shape.
    fn plan_binding(&self, client: usize, port: &str, sync: bool) -> Result<usize, FrameworkError> {
        self.dep
            .spec
            .bindings
            .iter()
            .position(|b| {
                b.client == client
                    && b.client_port == port
                    && matches!(b.protocol, ProtocolSpec::Sync) == sync
            })
            .ok_or_else(|| {
                FrameworkError::Binding(format!(
                    "no {} binding on client port '{port}' of '{}'",
                    if sync { "synchronous" } else { "asynchronous" },
                    self.dep.spec.components[client].name
                ))
            })
    }

    /// Rebinds `client`'s **synchronous** `port` to `new_server`, which
    /// must provide a server interface of the same name as the old target.
    /// The architectural model is updated in the same step, so commit-time
    /// validation sees the rebound topology (an NHRT client rebound onto
    /// heap-held state, for example, is refused by SOL-006 and rolled
    /// back). Synchronous invocations are nested calls on the caller's
    /// thread, so both ends must share a shard; buffered bindings move
    /// with [`rebind_async`](Self::rebind_async).
    ///
    /// # Errors
    ///
    /// [`FrameworkError::Unsupported`] under ULTRA-MERGE or for a target
    /// on another shard, [`FrameworkError::Binding`] for
    /// unbound/asynchronous ports, missing interfaces or signature
    /// mismatches.
    pub fn rebind(
        &mut self,
        client: impl Address,
        port: &str,
        new_server: impl Address,
    ) -> Result<(), FrameworkError> {
        self.structural()?;
        let c = client.locate(self.dep)?;
        let s = new_server.locate(self.dep)?;
        if c.shard != s.shard {
            let label = |at: ComponentRef| &self.dep.shards[at.shard()].label;
            return Err(FrameworkError::Unsupported(format!(
                "synchronous rebind cannot cross the domain partition: '{}' runs on shard {} \
                 ('{}') and '{}' on shard {} ('{}'); nested invocations stay on the caller's \
                 thread — use rebind_async for buffered bindings",
                self.dep.name_of(c)?,
                c.shard,
                label(c),
                self.dep.name_of(s)?,
                s.shard,
                label(s)
            )));
        }
        // The engine refuses unbound and asynchronous ports first; a plan
        // or architecture refusal after its write puts the pre-image back.
        let old = self.engine(c).rebind_at(c.slot(), port, s.slot())?;
        let (gclient, gserver) = (self.dep.global(c), self.dep.global(s));
        let plan = self
            .plan_binding(gclient, port, true)
            .and_then(|gbix| self.rebind_plan(gbix, port, gserver))
            .inspect_err(|_| self.engine(c).restore_row(old))?;
        self.dep.scratch.journal.push(Undo::Rebind {
            client: c,
            old,
            plan,
        });
        Ok(())
    }

    /// Rebinds `client`'s **asynchronous** `port` to `new_server`,
    /// anywhere in the partition — the cross-ring rewiring operation of a
    /// sharded deployment. The new server must provide a server interface
    /// of the same name as the old target. An SPSC ring of the binding's
    /// capacity replaces the old carrier, which retires into a pool on the
    /// client's shard: the newest pooled ring of that capacity when there
    /// is one — charged when it was built, so it charges nothing — or a
    /// fresh one, whose immortal charge is deferred to commit. A deployment
    /// that flips a binding back and forth therefore builds one ring, once.
    ///
    /// # Errors
    ///
    /// [`FrameworkError::Unsupported`] under ULTRA-MERGE or on a one-shard
    /// deployment (its transactions never drain rings);
    /// [`FrameworkError::Binding`] for unbound or synchronous ports or a
    /// missing server interface.
    pub fn rebind_async(
        &mut self,
        client: impl Address,
        port: &str,
        new_server: impl Address,
    ) -> Result<(), FrameworkError> {
        self.structural()?;
        if self.dep.shards.len() == 1 {
            return Err(FrameworkError::Unsupported(
                "rebind_async rewires cross-shard rings; a one-shard deployment has none \
                 and never drains one"
                    .into(),
            ));
        }
        let c = client.locate(self.dep)?;
        let s = new_server.locate(self.dep)?;
        let (gclient, gserver) = (self.dep.global(c), self.dep.global(s));
        let gbix = self.plan_binding(gclient, port, false)?;
        let binding = &self.dep.spec.bindings[gbix];
        let ProtocolSpec::Async { capacity, .. } = binding.protocol else {
            unreachable!("plan_binding matched an asynchronous binding")
        };
        // The new consumer must provide the same-named server port;
        // resolve it before touching anything.
        let port_ix = self.dep.shards[s.shard()]
            .system
            .port_ix_of(s.slot(), &binding.server_port)?;

        let plan = self.rebind_plan(gbix, port, gserver)?;
        let dep = &mut *self.dep;
        let (ring, fresh_bytes) = dep
            .rings
            .rewire(
                &mut dep.shards,
                gbix,
                capacity,
                (c.shard(), c.slot()),
                port,
                (s.shard(), s.slot(), port_ix),
            )
            .inspect_err(|_| dep.restore_plan(plan))?;
        if let Some(bytes) = fresh_bytes {
            dep.scratch.charges.push(PendingCharge {
                shard: c.shard(),
                area: AreaId::IMMORTAL,
                bytes,
                home_of: None,
            });
        }
        dep.scratch.journal.push(Undo::Rewire { ring, plan });
        Ok(())
    }

    /// Re-homes a component onto another ThreadDomain **of its own
    /// shard** (the component must be a *direct* member of its current
    /// domain, if any). The engine adopts the new domain's context and
    /// priority; commit-time validation re-checks SOL-001/002/005/006
    /// against the move.
    ///
    /// When the move changes the component's *effective memory area* (the
    /// new domain lives under a different area), the allocation region
    /// migrates with it — a checkpoint/handoff re-homing: the slot's
    /// scope chain and every dispatch plan touching it are recompiled
    /// against the new region through the same constructors build uses,
    /// and the migrated state's substrate charge is deferred to commit,
    /// so a refused transaction stays charge-neutral. The state is charged
    /// once per substrate area it has lived in: a move back, or into
    /// another declared area of the same substrate area (every immortal
    /// area is the one immortal budget), charges nothing. The live
    /// placement, the plan and the architectural model stay in lock-step
    /// either way.
    ///
    /// The domain partition itself is static: a reassignment onto a
    /// domain materialized on another shard would migrate the component
    /// across engines and is refused, as is a re-homing onto a memory
    /// area the component's shard does not hold. A live exchange buffer
    /// does not move either: a move after which the generator would place
    /// the buffer of one of the component's asynchronous bindings
    /// elsewhere ([`SystemSpec::placement`]) — an NHRT producer left
    /// pushing onto a heap buffer, say — is refused with nothing changed.
    ///
    /// # Errors
    ///
    /// [`FrameworkError::Content`] for unknown domains,
    /// [`FrameworkError::Binding`] for indirect domain membership or
    /// hierarchy violations, [`FrameworkError::Unsupported`] under
    /// ULTRA-MERGE, for cross-shard moves, a move that would leave the
    /// component outside every materialized memory area, or one that would
    /// move a live buffer; [`FrameworkError::Faulted`] when the content's
    /// `state_bytes`, read for a re-homing's charge, panicked.
    pub fn reassign_domain(
        &mut self,
        component: impl Address,
        domain: &str,
    ) -> Result<(), FrameworkError> {
        self.structural()?;
        let at = component.locate(self.dep)?;
        let g = self.dep.global(at);
        let dep = &mut *self.dep;
        let (shard, slot) = (at.shard(), at.slot());
        let name = &dep.spec.components[g].name;
        let Some(new_domain_ix) = dep.shards[shard].system.domain_ix_by_name(domain) else {
            return Err(match dep.shard_of_domain(domain) {
                Some(owner) => FrameworkError::Unsupported(format!(
                    "domain '{domain}' is materialized on shard {owner} ('{}'); '{name}' runs on \
                     shard {shard} ('{}') and components never migrate across the static domain \
                     partition",
                    dep.shards[owner].label, dep.shards[shard].label
                )),
                None => FrameworkError::Content(format!("unknown thread domain '{domain}'")),
            });
        };
        let g_domain = dep
            .spec
            .domains
            .iter()
            .position(|d| d.name == domain)
            .expect("shard domains are a subset of the plan's");

        // Move the containment edge in the architectural model, walking
        // in the transaction's scratch. The `remove_child` result guards
        // against indirect membership (the component sits inside a
        // composite inside the domain): moving the direct edge would not
        // actually re-home it, so refuse. An edge that changes the
        // effective memory area names the region to re-home onto, in the
        // engine and the plan, whose areas are named after the
        // architecture's.
        let mut edge = None;
        let mut onto = None;
        if let Some(arch) = dep.arch.as_mut() {
            let walk = &mut dep.scratch.walk;
            let comp = dep.ids[g];
            let new = arch
                .id_of(domain)
                .map_err(|e| FrameworkError::Content(e.to_string()))?;
            if !matches!(
                arch.component(new).map(|c| &c.kind),
                Ok(ComponentKind::ThreadDomain(_))
            ) {
                return Err(FrameworkError::Content(format!(
                    "'{domain}' is not a ThreadDomain"
                )));
            }
            let old_area = arch.memory_area_of_in(comp, walk).map(|(id, _)| id);
            let removed = match arch.thread_domain_of_in(comp, walk) {
                Some((old, _)) => Some(arch.remove_child(old, comp).ok_or_else(|| {
                    FrameworkError::Binding(format!(
                        "'{name}' is only an indirect member of its ThreadDomain; reassignment \
                         needs a direct edge"
                    ))
                })?),
                None => None,
            };
            if let Err(e) = arch.add_child_in(new, comp, walk) {
                if let Some(edge) = removed {
                    arch.restore_child(edge);
                }
                return Err(FrameworkError::Binding(e.to_string()));
            }
            let moved = DomainEdge { comp, removed, new };
            let new_area = arch.memory_area_of_in(comp, walk).map(|(id, _)| id);
            if new_area != old_area {
                let Some(area) = new_area.and_then(|id| arch.component(id).ok()) else {
                    moved.restore(arch);
                    return Err(FrameworkError::Unsupported(format!(
                        "reassigning '{name}' to domain '{domain}' would move it outside every \
                         memory area; components keep an allocation region"
                    )));
                };
                let found = dep.shards[shard]
                    .system
                    .area_ix_by_name(&area.name)
                    .zip(dep.spec.areas.iter().position(|a| a.name == area.name));
                let Some(pair) = found else {
                    let err = FrameworkError::Unsupported(format!(
                        "reassigning '{name}' to domain '{domain}' re-homes it onto memory area \
                         '{}', which is not materialized on its shard",
                        area.name
                    ));
                    moved.restore(arch);
                    return Err(err);
                };
                onto = Some(pair);
            }
            edge = Some(moved);
        }

        // Every refusal below puts the moved edge back first.
        let restore_edge = move |dep: &mut Deployment<P>| {
            if let (Some(edge), Some(arch)) = (edge, dep.arch.as_mut()) {
                edge.restore(arch);
            }
        };

        // A live exchange buffer stays where build placed it: refuse a
        // move after which the generator would place a buffer of the
        // component elsewhere (moving a live buffer is not supported).
        let moved_seat = (
            onto.map_or(dep.spec.components[g].area, |(_, area)| area),
            Some(g_domain),
        );
        let seat = |c: usize| if c == g { moved_seat } else { dep.spec.seat(c) };
        let stranded = dep.spec.bindings.iter().find_map(|b| match b.protocol {
            ProtocolSpec::Async { placement, .. } if b.client == g || b.server == g => {
                let now = dep.spec.placement(seat(b.client), seat(b.server));
                (now != placement).then_some((b, placement, now))
            }
            _ => None,
        });
        if let Some((b, placement, now)) = stranded {
            let err = FrameworkError::Unsupported(format!(
                "reassigning '{name}' to domain '{domain}' would move the {placement:?} buffer of \
                 asynchronous binding '{}.{}' -> '{}.{}' into {now:?} memory; a live exchange \
                 buffer stays where build placed it",
                dep.spec.components[b.client].name,
                b.client_port,
                dep.spec.components[b.server].name,
                b.server_port
            ));
            restore_edge(dep);
            return Err(err);
        }

        // Engine half: re-home the allocation region first (it can
        // refuse), then the domain seat (infallible). The state is charged
        // to its new region at commit, unless it has lived there before
        // or an earlier move of this transaction already charges it there.
        // Its size comes from user code, so it is read before the engine
        // changes: a panic there refuses the move like any other error.
        let mut rehome = None;
        if let Some((new_ix, new_g)) = onto {
            let owner = &dep.shards[shard];
            let area = owner.system.area_id(new_ix);
            let charged = owner.has_lived_in(slot, area)
                || dep
                    .scratch
                    .charges
                    .iter()
                    .any(|c| (c.shard, c.area, c.home_of) == (shard, area, Some(slot)));
            let bytes = if charged {
                None
            } else {
                match owner.system.state_bytes_at(slot) {
                    Ok(bytes) => Some(bytes),
                    Err(e) => {
                        restore_edge(dep);
                        return Err(e);
                    }
                }
            };
            let system = &mut dep.shards[shard].system;
            let undo = match system.rehome_area_at(slot, new_ix, &mut dep.scratch.rows) {
                Ok(undo) => undo,
                Err(e) => {
                    restore_edge(dep);
                    return Err(e);
                }
            };
            if let Some(bytes) = bytes {
                dep.scratch.charges.push(PendingCharge {
                    shard,
                    area,
                    bytes,
                    home_of: Some(slot),
                });
            }
            rehome = Some((
                undo,
                std::mem::replace(&mut dep.spec.components[g].area, new_g),
            ));
        }

        let system = &mut dep.shards[shard].system;
        let old_domain_ix = system.node_domain_ix(slot);
        system.set_domain_at(slot, Some(new_domain_ix));
        let old_domain_g = dep.spec.components[g].domain.replace(g_domain);
        // The slot's priority changed with its domain: re-sort the drain
        // order its shard serves rings in.
        dep.shards[shard].resort_incoming();
        dep.scratch.journal.push(Undo::Domain {
            at,
            old_domain_ix,
            old_domain_g,
            rehome,
            edge,
        });
        Ok(())
    }

    /// Attaches (or replaces) a declarative timing contract on a live
    /// component, journaled: rollback restores the previous monitor slot —
    /// recorded histogram included — or removes the new one. From then on
    /// every activation of the component is stamped into an
    /// allocation-free latency histogram with online deadline/jitter
    /// checking; components without a contract keep paying a single
    /// integer compare. Works in every mode, since contracts are
    /// engine-level observability rather than membrane machinery.
    ///
    /// # Errors
    ///
    /// [`FrameworkError::Content`] for unknown components.
    pub fn attach_contract(
        &mut self,
        component: impl Address,
        contract: TimingContract,
    ) -> Result<(), FrameworkError> {
        let at = component.locate(self.dep)?;
        let previous = self.engine(at).attach_contract_at(at.slot(), contract)?;
        self.dep
            .scratch
            .journal
            .push(Undo::Contract { at, previous });
        Ok(())
    }

    /// Detaches a component's timing contract, discarding its recorded
    /// histogram once committed; `true` when one was attached. Journaled:
    /// rollback restores the exact monitor slot, recorded histogram
    /// included. Works in every mode.
    ///
    /// # Errors
    ///
    /// [`FrameworkError::Content`] for unknown components.
    pub fn detach_contract(&mut self, component: impl Address) -> Result<bool, FrameworkError> {
        let at = component.locate(self.dep)?;
        let previous = self.engine(at).detach_contract_at(at.slot());
        let detached = previous.is_some();
        if detached {
            self.dep
                .scratch
                .journal
                .push(Undo::Contract { at, previous });
        }
        Ok(detached)
    }

    /// Declares (or changes) a component's [`FaultPolicy`], journaled:
    /// rollback writes the pre-transaction policy and supervisor edge back
    /// (a restart timer the change cancelled stays cancelled). Under
    /// `Isolate` or `Restart`, a fault in the component quarantines it on
    /// its own shard while every sibling shard keeps ticking. Like
    /// contracts, this works in every mode — the policy is engine-level
    /// supervision, not membrane structure.
    ///
    /// # Errors
    ///
    /// [`FrameworkError::Content`] for unknown components.
    pub fn set_fault_policy(
        &mut self,
        component: impl Address,
        policy: FaultPolicy,
    ) -> Result<(), FrameworkError> {
        let at = component.locate(self.dep)?;
        self.supervise(at, |system, slot| system.set_fault_policy_at(slot, policy))
    }

    /// Declares (or clears, with `None`) a component's supervisor edge,
    /// journaled: rollback restores the pre-transaction edge. Supervisors
    /// form a tree: when a fault escalates out of a component whose policy
    /// is [`FaultPolicy::Escalate`], the engine walks up this tree and the
    /// first supervisor with a containing policy applies it to the
    /// **failed subtree** — isolating it with counted drops or restarting
    /// it as a unit through the timer queue — while the supervisor itself
    /// and its other branches keep running. Trees are **shard-local**:
    /// each engine walks its own tree with no cross-shard coordination.
    /// Cycle, validity and shard-locality checks run eagerly here, and
    /// every shard's tree is re-validated at commit time, so a committed
    /// transaction can never leave a broken supervision tree behind. Works
    /// in every mode — supervision is engine-level recovery machinery.
    ///
    /// # Errors
    ///
    /// [`FrameworkError::Content`] for unknown components,
    /// self-supervision, or an edge that would close a cycle;
    /// [`FrameworkError::Unsupported`] for an edge between shards.
    pub fn set_supervisor<A: Address>(
        &mut self,
        component: A,
        supervisor: Option<A>,
    ) -> Result<(), FrameworkError> {
        let at = component.locate(self.dep)?;
        let sup = supervisor.map(|s| s.locate(self.dep)).transpose()?;
        if let Some(s) = sup.filter(|s| s.shard != at.shard) {
            return Err(FrameworkError::Unsupported(format!(
                "supervisor edge '{}' -> '{}' crosses shards ({} -> {}); supervision trees \
                 are shard-local — escalation never leaves its shard's engine",
                self.dep.name_of(at)?,
                self.dep.name_of(s)?,
                at.shard,
                s.shard
            )));
        }
        let sup_slot = sup.map(ComponentRef::slot);
        self.supervise(at, |system, slot| {
            system.set_supervisor_at(slot, sup_slot).map(drop)
        })
    }

    /// Applies one supervision write to `at`, journaling the component's
    /// policy and supervisor edge as they were before it.
    fn supervise(
        &mut self,
        at: ComponentRef,
        write: impl FnOnce(&mut System<P>, usize) -> Result<(), FrameworkError>,
    ) -> Result<(), FrameworkError> {
        let system = self.engine(at);
        let previous = system.supervision_at(at.slot());
        write(system, at.slot())?;
        self.dep
            .scratch
            .journal
            .push(Undo::Supervision { at, previous });
        Ok(())
    }

    /// The commit routine: partition invariants (more than one shard
    /// only), the RTSJ verdict on the architectural mirror, every shard's
    /// supervision tree, then the deferred substrate charges. The verdict
    /// covers what the journal's domain moves and rebinds touched when the
    /// architecture is known to have passed it before, and everything
    /// otherwise; debug builds also run the full verdict and assert that
    /// both agree. The full validation report is rendered only for a
    /// refusal (a sharded one adds the SOL-015 couplings); the verdict
    /// builds its facts table in the deployment's storage. Every charge is
    /// admitted before any is made, so a charge that does not fit refuses
    /// the transaction with nothing charged — immortal/scoped accounting
    /// is monotonic, so a charge once made could never be given back. A
    /// commit that passes leaves the architecture known to pass.
    fn commit(&mut self) -> Result<(), FrameworkError> {
        let dep = &mut *self.dep;
        let sharded = dep.shards.len() > 1;
        if sharded {
            dep.check_partition()?;
        }
        if let Some(arch) = &dep.arch {
            let scratch = &mut dep.scratch;
            let compliant = if dep.compliant {
                scratch.collect_edit();
                let verdict =
                    is_compliant_after(arch, &scratch.moved, &scratch.rebound, &mut scratch.facts);
                debug_assert_eq!(
                    verdict,
                    is_compliant_in(arch, &mut scratch.facts),
                    "the verdict over what the journal touched disagrees with the full one"
                );
                verdict
            } else {
                is_compliant_in(arch, &mut scratch.facts)
            };
            if !compliant {
                let mut report = validate(arch);
                if sharded {
                    report.merge(parallel_coupling(arch));
                }
                return Err(FrameworkError::Rejected(report));
            }
        }
        // Eager checks in `set_supervisor` make a failure here a framework
        // bug, but commits re-assert the invariant like the RTSJ rules.
        for s in &dep.shards {
            s.system.check_supervision()?;
        }
        // Admit each area's charges together, at the first charge into it.
        let charges = &dep.scratch.charges;
        for (i, first) in charges.iter().enumerate() {
            let site = (first.shard, first.area);
            if charges[..i].iter().any(|c| (c.shard, c.area) == site) {
                continue;
            }
            let (blocks, bytes) = charges[i..]
                .iter()
                .filter(|c| (c.shard, c.area) == site)
                .fold((0, 0usize), |(n, sum), c| {
                    (n + 1, sum.saturating_add(c.bytes))
                });
            dep.shards[first.shard]
                .system
                .admit_charges(first.area, blocks, bytes)?;
        }
        for c in charges {
            let shard = &mut dep.shards[c.shard];
            shard.system.charge(c.area, c.bytes)?;
            if let Some(slot) = c.home_of {
                shard.record_home(slot, c.area);
            }
        }
        dep.compliant = true;
        Ok(())
    }

    /// Writes the journal's pre-images back in reverse, restoring engines,
    /// rings, plan and architecture. It re-runs no operation, so nothing
    /// here can fail.
    fn rollback(&mut self) {
        let dep = &mut *self.dep;
        while let Some(undo) = dep.scratch.journal.pop() {
            match undo {
                Undo::Lifecycle { at, previous } => {
                    dep.shards[at.shard()]
                        .system
                        .set_lifecycle(at.slot(), previous);
                }
                Undo::Rebind { client, old, plan } => {
                    dep.shards[client.shard()].system.restore_row(old);
                    dep.restore_plan(plan);
                }
                Undo::Rewire { ring, plan } => {
                    dep.rings.unwire(&mut dep.shards, ring);
                    dep.restore_plan(plan);
                }
                Undo::Domain {
                    at,
                    old_domain_ix,
                    old_domain_g,
                    rehome,
                    edge,
                } => {
                    let g = dep.global(at);
                    let system = &mut dep.shards[at.shard()].system;
                    system.set_domain_at(at.slot(), old_domain_ix);
                    if let Some((undo, old_g)) = rehome {
                        system.restore_area(undo, &mut dep.scratch.rows);
                        dep.spec.components[g].area = old_g;
                    }
                    dep.spec.components[g].domain = old_domain_g;
                    dep.shards[at.shard()].resort_incoming();
                    if let (Some(edge), Some(arch)) = (edge, dep.arch.as_mut()) {
                        edge.restore(arch);
                    }
                }
                Undo::Contract { at, previous } => dep.shards[at.shard()]
                    .system
                    .restore_contract_at(at.slot(), previous),
                Undo::Supervision { at, previous } => dep.shards[at.shard()]
                    .system
                    .restore_supervision(at.slot(), previous),
            }
        }
    }
}
