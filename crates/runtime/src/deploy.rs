//! The deployment handle: the running engines generated from one
//! architecture, resolved component tokens and transactional
//! reconfiguration.
//!
//! A [`Deployment`] runs an architecture on one engine ([`System`]) per
//! *shard*, and keeps the plan ([`SystemSpec`]) and — when deployed through
//! the generator — the validated architecture they implement. The shard
//! count is chosen once, at build: [`Deployment::build`] (the generator's
//! `deploy`) places every component on one shard, driven inline on the
//! caller's thread; [`Deployment::build_parallel`] (`deploy_parallel`)
//! partitions the components by thread domain ([`crate::parallel`]) into
//! shards that tick on their own OS threads, with cross-shard bindings on
//! wait-free SPSC rings. Everything else is one handle:
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
//!   closure finishes, the result is re-validated against the *same* rules
//!   the design-time validator enforces (plus, with more than one shard,
//!   the partition invariants and the SOL-015 coupling analysis), and any
//!   failure — an operation error or a validator refusal — rolls
//!   everything back: engines, rings, plan and architectural model.
//!
//! Tokens are deployment-scoped: every `ComponentRef`/`PortRef` carries the
//! identity of the deployment that minted it, so a token from one
//! deployment is refused by another instead of silently addressing the
//! wrong slot.

use std::cell::Cell;
use std::sync::atomic::{AtomicU32, Ordering};

use rtsj::memory::MemoryManager;
use rtsj::thread::{Priority, ThreadKind};
use rtsj::time::AbsoluteTime;
use soleil_core::contract::TimingContract;
use soleil_core::model::{ComponentId, ComponentKind, Protocol};
use soleil_core::validate::{parallel_reconfiguration_report, validate};
use soleil_core::{Architecture, ValidationReport};
use soleil_membrane::content::{ContentRegistry, Payload};
use soleil_membrane::interceptors::FaultInjector;
use soleil_membrane::monitor::LatencySnapshot;
use soleil_membrane::FrameworkError;

use crate::footprint::FootprintReport;
use crate::parallel::{self, Rewire, Rings, Shard, ShardRun};
use crate::spec::{Mode, ProtocolSpec, SystemSpec};
use crate::system::{EngineStats, FaultPolicy, MembraneInfo, MonitorSlot, System};
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
    /// Names resolved by [`resolve`](Self::resolve).
    lookups: Cell<u64>,
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
            lookups: Cell::new(0),
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

    /// The one engine of a one-shard deployment; a sharded deployment's
    /// engines tick on their own threads ([`run_ticks`](Self::run_ticks)).
    fn serial(&mut self, what: &str) -> Result<&mut System<P>, FrameworkError> {
        match self.shards.as_mut_slice() {
            [only] => Ok(&mut only.system),
            _ => Err(FrameworkError::Unsupported(format!(
                "{what} drives one engine on the caller's thread; a sharded deployment \
                 runs through run_ticks"
            ))),
        }
    }

    // -----------------------------------------------------------------
    // Hot path: zero name resolution per call
    // -----------------------------------------------------------------

    /// Drives one complete transaction from the periodic component `head`
    /// (release + synchronous nesting + asynchronous cascade to
    /// quiescence). No name resolution, no allocation in steady state.
    ///
    /// # Errors
    ///
    /// Any framework or substrate error raised along the way;
    /// [`FrameworkError::Unsupported`] on a sharded deployment.
    pub fn run_transaction(&mut self, head: ComponentRef) -> Result<(), FrameworkError> {
        let head = head.locate(self)?;
        self.serial("run_transaction")?.run_transaction(head.slot())
    }

    /// Releases every periodic component once, in priority order.
    ///
    /// # Errors
    ///
    /// The first transaction error aborts the tick;
    /// [`FrameworkError::Unsupported`] on a sharded deployment.
    pub fn run_tick(&mut self) -> Result<(), FrameworkError> {
        self.serial("run_tick")?.run_tick()
    }

    /// Injects an external stimulus on a pre-resolved server port, then
    /// drains the cascade.
    ///
    /// # Errors
    ///
    /// Any framework or substrate error raised along the way;
    /// [`FrameworkError::Unsupported`] on a sharded deployment.
    pub fn inject(&mut self, port: PortRef, msg: P) -> Result<(), FrameworkError> {
        let c = port.component.locate(self)?;
        self.serial("inject")?
            .inject_at(c.slot(), port.port_ix, msg)
    }

    /// Releases every periodic head of every shard `ticks` times, each
    /// shard on its own OS thread, then runs cross-shard traffic to
    /// quiescence. Equivalent to
    /// [`run_ticks_instrumented`](Self::run_ticks_instrumented) with no
    /// warmup and a constant probe.
    ///
    /// # Errors
    ///
    /// The first engine error from any shard aborts the run everywhere.
    pub fn run_ticks(&mut self, ticks: u64) -> Result<Vec<ShardRun>, FrameworkError> {
        self.run_ticks_instrumented(0, ticks, &|| 0)
    }

    /// The instrumented tick loop: `warmup` unmeasured ticks per shard
    /// (provisioning lazily-grown structures), a quiescence point, then
    /// `ticks` measured ticks with per-tick timing. `probe` is sampled on
    /// each shard's own thread around the measured phase — pass a
    /// per-thread allocation counter to gate the steady state at 0
    /// allocations, as `soleil-bench` does.
    ///
    /// # Errors
    ///
    /// The first engine error from any shard aborts the run everywhere.
    pub fn run_ticks_instrumented<F>(
        &mut self,
        warmup: u64,
        ticks: u64,
        probe: &F,
    ) -> Result<Vec<ShardRun>, FrameworkError>
    where
        F: Fn() -> u64 + Sync,
    {
        parallel::run_shards(&mut self.shards, &self.rings, warmup, ticks, probe)
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
    pub fn footprint(&self) -> FootprintReport {
        let mut reports = self.shards.iter().map(|s| s.system.footprint());
        let mut total = reports.next().expect("a deployment has a shard");
        for r in reports {
            total.areas.extend(r.areas);
            total.framework_bytes += r.framework_bytes;
            total.release_engine_bytes += r.release_engine_bytes;
        }
        total
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

    /// Number of shards (engines; OS threads per tick run).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Shard labels (thread-domain names joined with `+`), in shard order.
    pub fn shard_labels(&self) -> Vec<&str> {
        self.shards.iter().map(|s| s.label.as_str()).collect()
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

    /// Per-shard structural digests (see [`System::structural_digest`]):
    /// the byte-identical-rollback witness. A refused
    /// [`reconfigure`](Self::reconfigure) leaves every entry unchanged.
    pub fn structural_digests(&self) -> Vec<u64> {
        self.shards
            .iter()
            .map(|s| s.system.structural_digest())
            .collect()
    }

    /// Membrane-level introspection — SOLEIL mode only, per the paper.
    ///
    /// # Errors
    ///
    /// [`FrameworkError::Unsupported`] in the merged modes.
    pub fn membrane_info(&self, component: impl Address) -> Result<MembraneInfo, FrameworkError> {
        self.on(component, |system, slot| system.membrane_info_at(slot))
    }

    /// The priority ceiling the validator assigned to a shared passive
    /// service, if any.
    ///
    /// # Errors
    ///
    /// [`FrameworkError::Content`] for unknown components.
    pub fn ceiling_of(&self, component: impl Address) -> Result<Option<Priority>, FrameworkError> {
        self.on(component, |system, slot| Ok(system.ceiling_at(slot)))
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
            .map(|handle| handle.on_shard(head.shard()))
    }

    /// Cancels a scheduled release; `false` when the handle is stale
    /// (already fired or cancelled) — generation-checked, always safe.
    pub fn cancel_release(&mut self, handle: TimerHandle) -> bool {
        self.shards
            .get_mut(handle.shard())
            .is_some_and(|s| s.system.cancel_release(handle))
    }

    /// Advances the engine clock to `now` and fires every due scheduled
    /// release as a full transaction. Returns the number fired.
    ///
    /// # Errors
    ///
    /// The first failing fired transaction aborts the advance;
    /// [`FrameworkError::Unsupported`] on a sharded deployment, whose
    /// shards fire their own timers inside their tick loops.
    pub fn fire_timers_until(&mut self, now: AbsoluteTime) -> Result<u64, FrameworkError> {
        self.serial("fire_timers_until")?.advance_clock_to(now)
    }

    /// Shard 0's virtual release clock (the clock of a one-shard
    /// deployment).
    pub fn timer_clock(&self) -> AbsoluteTime {
        self.shards[0].system.clock()
    }

    /// Currently armed (scheduled, unfired, uncancelled) timers, summed
    /// across shards.
    pub fn armed_timers(&self) -> usize {
        self.shards.iter().map(|s| s.system.armed_timers()).sum()
    }

    /// Attaches a declarative timing contract to a component (any mode —
    /// engine-level observability, unlike the SOLEIL-only membrane
    /// interceptors), replacing any previous contract. From then on every
    /// activation of the component is stamped into an allocation-free
    /// latency histogram with online deadline/jitter checking; components
    /// without a contract keep paying a single integer compare.
    ///
    /// # Errors
    ///
    /// [`FrameworkError::Content`] for unknown components.
    pub fn attach_contract(
        &mut self,
        component: impl Address,
        contract: TimingContract,
    ) -> Result<(), FrameworkError> {
        self.on_mut(component, |system, slot| {
            system.attach_contract_at(slot, contract).map(|_| ())
        })
    }

    /// Detaches a component's timing contract (discarding its recorded
    /// histogram); `true` when one was attached.
    ///
    /// # Errors
    ///
    /// [`FrameworkError::Content`] for unknown components.
    pub fn detach_contract(&mut self, component: impl Address) -> Result<bool, FrameworkError> {
        self.on_mut(component, |system, slot| {
            Ok(system.detach_contract_at(slot).is_some())
        })
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

    /// Declares a component's [`FaultPolicy`], returning the previous one.
    /// Allowed in **every** mode, ULTRA-MERGE included — supervision is
    /// engine-level recovery machinery like timing contracts, not
    /// structural reconfiguration. Under `Isolate` or `Restart`, a fault in
    /// the component quarantines it on its own shard while every sibling
    /// shard keeps ticking.
    ///
    /// # Errors
    ///
    /// [`FrameworkError::Content`] for unknown components.
    pub fn set_fault_policy(
        &mut self,
        component: impl Address,
        policy: FaultPolicy,
    ) -> Result<FaultPolicy, FrameworkError> {
        self.on_mut(component, |system, slot| {
            system.set_fault_policy_at(slot, policy)
        })
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
    /// [`FrameworkError::Content`] for unknown components, content
    /// `on_start` failures.
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

    /// Declares (or clears, with `None`) a component's supervisor,
    /// returning the previous edge. Supervisors form a tree: when a fault
    /// escalates out of a component whose policy is
    /// [`FaultPolicy::Escalate`], the engine walks up this tree and the
    /// first supervisor with a containing policy applies it to the
    /// **failed subtree** — isolating it with counted drops or restarting
    /// it as a unit through the timer queue — while the supervisor itself
    /// and its other branches keep running. Cycle and validity checks run
    /// eagerly here and again at every transactional commit. Allowed in
    /// every mode, ULTRA-MERGE included — supervision is engine-level
    /// recovery machinery, not structural reconfiguration. Trees are
    /// **shard-local**: each engine walks its own tree with no cross-thread
    /// coordination.
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
    ) -> Result<Option<ComponentRef>, FrameworkError> {
        let (c, sup_slot) = self.supervisor_edge(component, supervisor)?;
        let previous = self.shards[c.shard()]
            .system
            .set_supervisor_at(c.slot(), sup_slot)?;
        Ok(previous.map(|slot| self.local_ref(c.shard(), slot)))
    }

    /// Resolves a supervisor edge to its component and the supervisor's
    /// slot on the same shard.
    fn supervisor_edge<A: Address>(
        &self,
        component: A,
        supervisor: Option<A>,
    ) -> Result<(ComponentRef, Option<usize>), FrameworkError> {
        let c = component.locate(self)?;
        let Some(sup) = supervisor else {
            return Ok((c, None));
        };
        let s = sup.locate(self)?;
        if s.shard != c.shard {
            return Err(FrameworkError::Unsupported(format!(
                "supervisor edge '{}' -> '{}' crosses shards ({} -> {}); supervision trees \
                 are shard-local — escalation must never block on another shard's thread",
                self.name_of(c)?,
                self.name_of(s)?,
                c.shard,
                s.shard
            )));
        }
        Ok((c, Some(s.slot())))
    }

    /// The token of engine slot `slot` on `shard`.
    fn local_ref(&self, shard: usize, slot: usize) -> ComponentRef {
        self.refs[self.shards[shard].globals[slot]]
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
        Ok(self.shards[c.shard()]
            .system
            .supervisor_of_at(c.slot())
            .map(|slot| self.local_ref(c.shard(), slot)))
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
    /// successful activations and at every supervised-restart boundary;
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
            let area_ix = system.area_ix_at(slot);
            system.charge_area(area_ix, bytes).inspect_err(|_| {
                system.disable_checkpoint_at(slot);
            })
        })
    }

    /// True when the Checkpoint capability is enabled for a component.
    ///
    /// # Errors
    ///
    /// [`FrameworkError::Content`] for unknown components.
    pub fn checkpoint_enabled(&self, component: impl Address) -> Result<bool, FrameworkError> {
        self.on(component, |system, slot| {
            Ok(system.checkpoint_enabled_at(slot))
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

    /// Tears every shard down (see [`System::shutdown`]).
    ///
    /// # Errors
    ///
    /// Substrate errors releasing pins.
    pub fn shutdown(&mut self) -> Result<(), FrameworkError> {
        for s in &mut self.shards {
            s.system.shutdown()?;
        }
        Ok(())
    }

    // -----------------------------------------------------------------
    // Transactional reconfiguration
    // -----------------------------------------------------------------

    /// Runs a reconfiguration transaction: the closure applies lifecycle,
    /// binding, domain and supervision operations through the
    /// [`Reconfiguration`] handle; when it returns `Ok`, the result is
    /// re-validated — the plan's partition invariants when there is more
    /// than one shard, and, for architecture-carrying deployments, the
    /// full RTSJ rule set — and commits only if compliant; substrate
    /// charges for rings and re-homed state are deferred to this point so
    /// a refused transaction is charge-neutral. On a closure error *or* a
    /// refusal every applied operation is rolled back, leaving engines,
    /// rings, plan and architecture exactly as before the call (witness:
    /// [`structural_digests`](Self::structural_digests)).
    ///
    /// A sharded deployment is first driven to a quiescence epoch — every
    /// ring drained, zero messages in flight — the parallel analogue of the
    /// run-to-completion guarantee a one-shard deployment gets for free.
    ///
    /// # Errors
    ///
    /// * [`FrameworkError::Unsupported`] under ULTRA-MERGE (purely
    ///   static).
    /// * The quiescence drain's error if a shard faults on a buffered
    ///   message.
    /// * The closure's error, after rollback.
    /// * [`FrameworkError::Rejected`] with the full validation report when
    ///   the resulting architecture violates RTSJ, after rollback.
    pub fn reconfigure<T>(
        &mut self,
        f: impl FnOnce(&mut Reconfiguration<'_, P>) -> Result<T, FrameworkError>,
    ) -> Result<T, FrameworkError> {
        if self.mode == Mode::UltraMerge {
            return Err(FrameworkError::Unsupported(
                "ULTRA-MERGE systems are purely static".into(),
            ));
        }
        if self.shards.len() > 1 {
            parallel::quiesce(&mut self.shards, &self.rings)?;
        }
        let mut txn = Reconfiguration {
            dep: self,
            journal: Vec::new(),
            pending_charges: Vec::new(),
        };
        let result = f(&mut txn).and_then(|value| txn.commit().map(|()| value));
        if result.is_err() {
            txn.rollback();
        }
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
}

/// A pre-transaction architectural binding, restorable after a rebind.
struct OldBinding {
    client: ComponentId,
    server: ComponentId,
    interface: String,
    protocol: Protocol,
}

impl OldBinding {
    /// Puts the pre-transaction edge back (the transaction's edge must
    /// already be gone).
    fn rebind(&self, arch: &mut Architecture, port: &str) {
        arch.bind(
            self.client,
            port,
            self.server,
            &self.interface,
            self.protocol,
        )
        .expect("restoring a binding that existed before the transaction");
    }

    /// Replaces the transaction's edge with the pre-transaction one.
    fn restore(&self, arch: &mut Architecture, port: &str) {
        assert!(
            arch.unbind(self.client, port),
            "transaction binding vanished from the architecture"
        );
        self.rebind(arch, port);
    }
}

/// A ThreadDomain containment edge moved by `reassign_domain`.
struct DomainEdge {
    comp: ComponentId,
    old: Option<ComponentId>,
    new: ComponentId,
}

impl DomainEdge {
    /// Moves the edge back to its pre-transaction domain.
    fn restore(&self, arch: &mut Architecture) {
        assert!(
            arch.remove_child(self.new, self.comp),
            "transaction domain edge vanished from the architecture"
        );
        if let Some(old) = self.old {
            arch.add_child(old, self.comp)
                .expect("restoring an edge that existed before the transaction");
        }
    }
}

/// A substrate charge deferred to commit time: refused transactions never
/// reach the allocator, so they are charge-neutral (the paper's memory
/// model makes immortal/scoped charges permanent — a speculative charge
/// could never be given back).
enum PendingCharge {
    /// State bytes of a re-homed component, charged to its new region.
    Area {
        shard: usize,
        area_ix: usize,
        bytes: usize,
    },
    /// The slot array of a freshly installed cross-domain ring, charged
    /// to immortal memory on the producer shard (build charges deploy-time
    /// rings the same way).
    Immortal { shard: usize, bytes: usize },
}

/// One applied operation's undo record. Rollback replays these in reverse,
/// restoring engines, rings, plan and architectural model.
enum Undo<P> {
    /// Undo of `start`: stop the component again.
    Stop(ComponentRef),
    /// Undo of `stop`: restart the component.
    Start(ComponentRef),
    /// Undo of a synchronous `rebind`: point the port back at the old
    /// server in the engine, the plan and the architecture.
    Rebind {
        client: ComponentRef,
        port: String,
        old_server_slot: usize,
        gbix: usize,
        old_server_g: usize,
        arch: Option<OldBinding>,
    },
    /// Undo of `rebind_async`: retire the installed ring, restore the
    /// client's compiled binding and re-seat the retired ring. Boxed: the
    /// ring record is several times the size of every other arm.
    Rewire {
        ring: Box<Rewire<P>>,
        port: String,
        gbix: usize,
        old_server_g: usize,
        arch: Option<OldBinding>,
    },
    /// Undo of `reassign_domain`: re-seat the domain (and, for a re-homed
    /// component, migrate the allocation region back).
    Domain {
        at: ComponentRef,
        old_domain_ix: Option<usize>,
        old_domain_g: Option<usize>,
        /// `(old engine area index, old plan area index)` when the move
        /// re-homed the allocation region.
        rehome: Option<(usize, usize)>,
        edge: Option<DomainEdge>,
    },
    /// Undo of a contract attach *or* detach: both reduce to putting the
    /// pre-transaction monitor slot — recorded histogram included — back.
    Contract {
        at: ComponentRef,
        previous: Option<Box<MonitorSlot>>,
    },
    /// Undo of `set_fault_policy`: restore the pre-transaction policy.
    Policy {
        at: ComponentRef,
        previous: FaultPolicy,
    },
    /// Undo of `set_supervisor`: restore the pre-transaction edge.
    Supervisor {
        at: ComponentRef,
        previous: Option<usize>,
    },
}

/// The in-flight transaction handle passed to
/// [`Deployment::reconfigure`]'s closure. Operations apply eagerly (later
/// operations observe earlier ones); the journal guarantees they all
/// revert together on failure.
pub struct Reconfiguration<'d, P: Payload> {
    dep: &'d mut Deployment<P>,
    journal: Vec<Undo<P>>,
    pending_charges: Vec<PendingCharge>,
}

impl<P: Payload> Reconfiguration<'_, P> {
    /// The engine a token addresses.
    fn engine(&mut self, at: ComponentRef) -> &mut System<P> {
        &mut self.dep.shards[at.shard()].system
    }

    /// Stops a component (no-op if already stopped).
    ///
    /// # Errors
    ///
    /// [`FrameworkError::Content`] for unknown components.
    pub fn stop(&mut self, component: impl Address) -> Result<(), FrameworkError> {
        let at = component.locate(self.dep)?;
        let system = self.engine(at);
        if !system.node_started(at.slot()) {
            return Ok(());
        }
        system.stop_at(at.slot())?;
        self.journal.push(Undo::Start(at));
        Ok(())
    }

    /// (Re)starts a component (no-op if already started).
    ///
    /// # Errors
    ///
    /// [`FrameworkError::Content`] for unknown components.
    pub fn start(&mut self, component: impl Address) -> Result<(), FrameworkError> {
        let at = component.locate(self.dep)?;
        let system = self.engine(at);
        if system.node_started(at.slot()) {
            return Ok(());
        }
        system.start_at(at.slot())?;
        self.journal.push(Undo::Stop(at));
        Ok(())
    }

    /// Mirrors a rebind into the architectural model (when the deployment
    /// carries one): `client.port` is re-pointed at `new_server`'s
    /// interface of the old target's name. The architecture runs the
    /// stricter checks (interface existence, role, signature equality), so
    /// it goes first. Returns the restore record.
    fn arch_rebind(
        &mut self,
        client: usize,
        port: &str,
        new_server: usize,
    ) -> Result<Option<OldBinding>, FrameworkError> {
        let dep = &mut *self.dep;
        let Some(arch) = dep.arch.as_mut() else {
            return Ok(None);
        };
        let (client, new_server) = (dep.ids[client], dep.ids[new_server]);
        let lost = || {
            FrameworkError::Binding(format!(
                "architecture lost binding for client port '{port}'"
            ))
        };
        let old = arch
            .bindings()
            .iter()
            .find(|b| b.client.component == client && b.client.interface == port)
            .map(|b| OldBinding {
                client,
                server: b.server.component,
                interface: b.server.interface.clone(),
                protocol: b.protocol,
            })
            .ok_or_else(lost)?;
        if !arch.unbind(client, port) {
            return Err(lost());
        }
        if let Err(e) = arch.bind(client, port, new_server, &old.interface, old.protocol) {
            old.rebind(arch, port);
            return Err(FrameworkError::Binding(e.to_string()));
        }
        Ok(Some(old))
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

    /// The global spec component index a token addresses.
    fn global(&self, at: ComponentRef) -> usize {
        self.dep.shards[at.shard()].globals[at.slot()]
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
    /// [`FrameworkError::Unsupported`] for a target on another shard,
    /// [`FrameworkError::Binding`] for unbound/asynchronous ports, missing
    /// interfaces or signature mismatches.
    pub fn rebind(
        &mut self,
        client: impl Address,
        port: &str,
        new_server: impl Address,
    ) -> Result<(), FrameworkError> {
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
        let old_server_slot = self.engine(c).sync_target_of(c.slot(), port)?;
        let (gclient, gserver) = (self.global(c), self.global(s));
        let gbix = self.plan_binding(gclient, port, true)?;
        let arch = self.arch_rebind(gclient, port, gserver)?;
        if let Err(e) = self.engine(c).rebind_at(c.slot(), port, s.slot()) {
            if let (Some(old), Some(a)) = (&arch, self.dep.arch.as_mut()) {
                old.restore(a, port);
            }
            return Err(e);
        }
        let old_server_g = std::mem::replace(&mut self.dep.spec.bindings[gbix].server, gserver);
        self.journal.push(Undo::Rebind {
            client: c,
            port: port.to_string(),
            old_server_slot,
            gbix,
            old_server_g,
            arch,
        });
        Ok(())
    }

    /// Rebinds `client`'s **asynchronous** `port` to `new_server`,
    /// anywhere in the partition — the cross-ring rewiring operation of a
    /// sharded deployment. The new server must provide a server interface
    /// of the same name as the old target. A fresh SPSC ring (the old
    /// binding's capacity) replaces the old carrier; its immortal charge is
    /// deferred to commit.
    ///
    /// # Errors
    ///
    /// [`FrameworkError::Unsupported`] on a one-shard deployment (its
    /// transactions never drain rings); [`FrameworkError::Binding`] for
    /// unbound or synchronous ports or a missing server interface.
    pub fn rebind_async(
        &mut self,
        client: impl Address,
        port: &str,
        new_server: impl Address,
    ) -> Result<(), FrameworkError> {
        if self.dep.shards.len() == 1 {
            return Err(FrameworkError::Unsupported(
                "rebind_async rewires cross-shard rings; a one-shard deployment has none \
                 and never drains one"
                    .into(),
            ));
        }
        let c = client.locate(self.dep)?;
        let s = new_server.locate(self.dep)?;
        let (gclient, gserver) = (self.global(c), self.global(s));
        let gbix = self.plan_binding(gclient, port, false)?;
        let binding = &self.dep.spec.bindings[gbix];
        let ProtocolSpec::Async { capacity, .. } = binding.protocol else {
            unreachable!("plan_binding matched an asynchronous binding")
        };
        // The new consumer must provide the same-named server port;
        // resolve it before touching anything.
        let server_port = binding.server_port.clone();
        let port_ix = self.engine(s).port_ix_of(s.slot(), &server_port)?;

        let arch = self.arch_rebind(gclient, port, gserver)?;
        let dep = &mut *self.dep;
        let rewired = dep.rings.rewire(
            &mut dep.shards,
            gbix,
            capacity,
            (c.shard(), c.slot()),
            port,
            (s.shard(), s.slot(), port_ix),
        );
        let (ring, bytes) = match rewired {
            Ok(pair) => pair,
            Err(e) => {
                if let (Some(old), Some(a)) = (&arch, dep.arch.as_mut()) {
                    old.restore(a, port);
                }
                return Err(e);
            }
        };
        let old_server_g = std::mem::replace(&mut dep.spec.bindings[gbix].server, gserver);
        self.pending_charges.push(PendingCharge::Immortal {
            shard: c.shard(),
            bytes,
        });
        self.journal.push(Undo::Rewire {
            ring: Box::new(ring),
            port: port.to_string(),
            gbix,
            old_server_g,
            arch,
        });
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
    /// so a refused transaction stays charge-neutral. The live placement,
    /// the plan and the architectural model stay in lock-step either way.
    ///
    /// The domain partition itself is static: a reassignment onto a
    /// domain materialized on another shard would migrate the component
    /// across OS threads and is refused, as is a re-homing onto a memory
    /// area the component's shard does not hold.
    ///
    /// # Errors
    ///
    /// [`FrameworkError::Content`] for unknown domains,
    /// [`FrameworkError::Binding`] for indirect domain membership or
    /// hierarchy violations, [`FrameworkError::Unsupported`] for
    /// cross-shard moves or a move that would leave the component outside
    /// every materialized memory area.
    pub fn reassign_domain(
        &mut self,
        component: impl Address,
        domain: &str,
    ) -> Result<(), FrameworkError> {
        let at = component.locate(self.dep)?;
        let g = self.global(at);
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

        // Move the containment edge in the architectural model. The
        // `remove_child` result guards against indirect membership (the
        // component sits inside a composite inside the domain): moving the
        // direct edge would not actually re-home it, so refuse. An edge
        // that changes the effective memory area names the region to
        // re-home onto.
        let mut edge = None;
        let mut rehome_onto = None;
        if let Some(arch) = dep.arch.as_mut() {
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
            let old = arch.thread_domain_of(comp).map(|(id, _)| id);
            let old_area = arch.memory_area_of(comp).map(|(id, _)| id);
            if let Some(old) = old {
                if !arch.remove_child(old, comp) {
                    return Err(FrameworkError::Binding(format!(
                        "'{name}' is only an indirect member of its ThreadDomain; reassignment \
                         needs a direct edge"
                    )));
                }
            }
            if let Err(e) = arch.add_child(new, comp) {
                if let Some(old) = old {
                    arch.add_child(old, comp)
                        .expect("restoring an edge that existed before the transaction");
                }
                return Err(FrameworkError::Binding(e.to_string()));
            }
            let moved = DomainEdge { comp, old, new };
            let new_area = arch.memory_area_of(comp).map(|(id, _)| id);
            if new_area != old_area {
                let Some(area) = new_area.and_then(|id| arch.component(id).ok()) else {
                    moved.restore(arch);
                    return Err(FrameworkError::Unsupported(format!(
                        "reassigning '{name}' to domain '{domain}' would move it outside every \
                         memory area; components keep an allocation region"
                    )));
                };
                rehome_onto = Some(area.name.clone());
            }
            edge = Some(moved);
        }

        // Engine half: re-home the allocation region first (it can
        // refuse), then the domain seat (infallible).
        let mut rehome = None;
        if let Some(area_name) = rehome_onto {
            let system = &mut dep.shards[shard].system;
            let moved = system
                .area_ix_by_name(&area_name)
                .ok_or_else(|| {
                    FrameworkError::Unsupported(format!(
                        "reassigning '{name}' to domain '{domain}' re-homes it onto memory area \
                         '{area_name}', which is not materialized on its shard"
                    ))
                })
                .and_then(|new_ix| Ok((new_ix, system.rehome_area_at(slot, new_ix)?)));
            let (new_area_ix, old_local) = match moved {
                Ok(pair) => pair,
                Err(e) => {
                    if let (Some(edge), Some(arch)) = (&edge, dep.arch.as_mut()) {
                        edge.restore(arch);
                    }
                    return Err(e);
                }
            };
            self.pending_charges.push(PendingCharge::Area {
                shard,
                area_ix: new_area_ix,
                bytes: system.state_bytes_at(slot),
            });
            let new_g = dep
                .spec
                .areas
                .iter()
                .position(|a| a.name == area_name)
                .expect("shard areas are a subset of the plan's");
            rehome = Some((
                old_local,
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
        self.journal.push(Undo::Domain {
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
    /// recorded histogram included — or removes the new one. Works in any
    /// reconfigurable mode, since contracts are engine-level observability
    /// rather than membrane machinery.
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
        self.journal.push(Undo::Contract { at, previous });
        Ok(())
    }

    /// Detaches a component's timing contract; `true` when one was
    /// attached. Journaled: rollback restores the exact monitor slot,
    /// recorded histogram included.
    ///
    /// # Errors
    ///
    /// [`FrameworkError::Content`] for unknown components.
    pub fn detach_contract(&mut self, component: impl Address) -> Result<bool, FrameworkError> {
        let at = component.locate(self.dep)?;
        let previous = self.engine(at).detach_contract_at(at.slot());
        let detached = previous.is_some();
        if detached {
            self.journal.push(Undo::Contract { at, previous });
        }
        Ok(detached)
    }

    /// Declares (or changes) a component's [`FaultPolicy`], journaled:
    /// rollback restores the pre-transaction policy (and cancels any
    /// restart timer the new policy armed). Like contracts, this works in
    /// any reconfigurable mode — the policy is engine-level supervision,
    /// not membrane structure.
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
        let previous = self.engine(at).set_fault_policy_at(at.slot(), policy)?;
        self.journal.push(Undo::Policy { at, previous });
        Ok(())
    }

    /// Declares (or clears) a component's supervisor edge, journaled:
    /// rollback restores the pre-transaction edge. Cycle, validity and
    /// shard-locality checks run eagerly here (see
    /// [`Deployment::set_supervisor`]), and every shard's tree is
    /// re-validated at commit time, so a committed transaction can never
    /// leave a broken supervision tree behind.
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
        let (at, sup_slot) = self.dep.supervisor_edge(component, supervisor)?;
        let previous = self.engine(at).set_supervisor_at(at.slot(), sup_slot)?;
        self.journal.push(Undo::Supervisor { at, previous });
        Ok(())
    }

    /// The commit routine: partition invariants (more than one shard
    /// only), the full RTSJ rule set against the architectural mirror
    /// (plus, sharded, the SOL-015 coupling analysis), every shard's
    /// supervision tree, then the deferred substrate charges. A failing
    /// charge refuses the transaction; charges already made stand —
    /// immortal/scoped accounting is monotonic, exactly like build.
    fn commit(&mut self) -> Result<(), FrameworkError> {
        let dep = &mut *self.dep;
        let sharded = dep.shards.len() > 1;
        if sharded {
            dep.check_partition()?;
        }
        if let Some(arch) = &dep.arch {
            let report = if sharded {
                parallel_reconfiguration_report(arch)
            } else {
                validate(arch)
            };
            if !report.is_compliant() {
                return Err(FrameworkError::Rejected(report));
            }
        }
        // Eager checks in `set_supervisor` make a failure here a framework
        // bug, but commits re-assert the invariant like the RTSJ rules.
        for s in &dep.shards {
            s.system.check_supervision()?;
        }
        for charge in std::mem::take(&mut self.pending_charges) {
            match charge {
                PendingCharge::Area {
                    shard,
                    area_ix,
                    bytes,
                } => dep.shards[shard].system.charge_area(area_ix, bytes)?,
                PendingCharge::Immortal { shard, bytes } => {
                    dep.shards[shard].system.charge_immortal(bytes)?
                }
            }
        }
        Ok(())
    }

    /// Replays the journal in reverse, restoring engines, rings, plan and
    /// architecture. Each undo reverses an operation that succeeded
    /// against a state that was valid, so failures here are framework bugs
    /// — surfaced loudly.
    fn rollback(&mut self) {
        let dep = &mut *self.dep;
        while let Some(undo) = self.journal.pop() {
            match undo {
                Undo::Stop(at) => dep.shards[at.shard()]
                    .system
                    .stop_at(at.slot())
                    .expect("rollback stop of a slot started by this transaction"),
                Undo::Start(at) => dep.shards[at.shard()]
                    .system
                    .start_at(at.slot())
                    .expect("rollback restart of a slot stopped by this transaction"),
                Undo::Rebind {
                    client,
                    port,
                    old_server_slot,
                    gbix,
                    old_server_g,
                    arch,
                } => {
                    dep.shards[client.shard()]
                        .system
                        .rebind_at(client.slot(), &port, old_server_slot)
                        .expect("rollback rebind to the pre-transaction server");
                    dep.spec.bindings[gbix].server = old_server_g;
                    if let (Some(old), Some(a)) = (arch, dep.arch.as_mut()) {
                        old.restore(a, &port);
                    }
                }
                Undo::Rewire {
                    ring,
                    port,
                    gbix,
                    old_server_g,
                    arch,
                } => {
                    dep.rings.unwire(&mut dep.shards, *ring);
                    dep.spec.bindings[gbix].server = old_server_g;
                    if let (Some(old), Some(a)) = (arch, dep.arch.as_mut()) {
                        old.restore(a, &port);
                    }
                }
                Undo::Domain {
                    at,
                    old_domain_ix,
                    old_domain_g,
                    rehome,
                    edge,
                } => {
                    let g = dep.shards[at.shard()].globals[at.slot()];
                    let system = &mut dep.shards[at.shard()].system;
                    system.set_domain_at(at.slot(), old_domain_ix);
                    if let Some((old_local, old_g)) = rehome {
                        system
                            .rehome_area_at(at.slot(), old_local)
                            .expect("rollback re-homing onto the pre-transaction region");
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
                Undo::Policy { at, previous } => {
                    dep.shards[at.shard()]
                        .system
                        .set_fault_policy_at(at.slot(), previous)
                        .expect("rollback restore of a policy set by this transaction");
                }
                Undo::Supervisor { at, previous } => {
                    dep.shards[at.shard()]
                        .system
                        .set_supervisor_at(at.slot(), previous)
                        .expect(
                            "rollback restore of a supervisor edge valid before the transaction",
                        );
                }
            }
        }
    }
}
