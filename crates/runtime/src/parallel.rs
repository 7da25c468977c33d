//! Domain sharding: the partition a sharded [`Deployment`] runs on, its
//! cross-domain rings, the drain pass and the one tick path.
//!
//! The paper deploys one `RealtimeThread` per merged active composite —
//! thread domains are its natural units of concurrency. This module turns
//! that design-time structure into the shards of
//! [`Deployment::build_parallel`] (the generator's `deploy_parallel`):
//!
//! 1. **Planning.** The spec's components are partitioned into *shards*
//!    with a union-find: components in the same domain stay together;
//!    synchronous bindings (nested run-to-completion calls stay within one
//!    engine) and shared scoped memory areas (a scope is owned by exactly
//!    one engine — the slab substrate's per-area ownership is the sharding
//!    boundary) merge the groups they connect; domainless components
//!    attach to the shard of a binding peer. What remains independent runs
//!    independently.
//! 2. **Materialization.** Each shard gets its *own* [`System`] — its own
//!    slab-backed [`MemoryManager`](rtsj::memory::MemoryManager), its own
//!    pending-message heap, its own compiled binding tables. Heap and
//!    immortal areas are replicated per shard (each engine charges its own
//!    replica); scoped areas are materialized only in the shard that owns
//!    them. Bindings *between* shards are asynchronous by construction
//!    (anything synchronous was merged at planning time) and ride
//!    wait-free SPSC rings ([`soleil_patterns::spsc`]) instead of
//!    engine-local exchange buffers — the carrier is chosen here, at build
//!    time, exactly like RTSJ's `WaitFreeWriteQueue` sits between a
//!    no-heap producer and a heap consumer.
//! 3. **Execution.** Every call runs on the caller's thread.
//!    [`Deployment::run_transaction`] and `inject` run on the target's
//!    shard, `run_tick` (and so `run_ticks`) and `fire_timers_until` on
//!    every shard in shard order; each then quiesces, as `reconfigure`
//!    does first: drain passes over every shard, in shard order, until a
//!    full pass pops nothing. A pass pops each incoming ring's visible run
//!    as one **batch** (one `Acquire` snapshot of its head), highest
//!    consumer priority first, and injects every message as a
//!    run-to-completion activation. The order is fixed, so a run replays
//!    exactly, and a ring drops only what one tick overflows it with.
//!    Steady-state ticks allocate nothing: rings, slabs and scope stacks
//!    are provisioned at build/warm-up time.
//!
//! A one-shard deployment ([`Deployment::build`], the generator's `deploy`)
//! skips the planner and the rings: its one shard is exactly the engine
//! [`System::build`] makes.
//!
//! [`Deployment`]: crate::Deployment
//! [`Deployment::build`]: crate::Deployment::build
//! [`Deployment::build_parallel`]: crate::Deployment::build_parallel
//! [`Deployment::run_transaction`]: crate::Deployment::run_transaction

use std::collections::HashMap;
use std::sync::Mutex;
use std::time::Instant;

use rtsj::memory::AreaId;
use rtsj::RtsjError;
// Deterministic smaller-root-wins unions (shard order follows component
// declaration order); shared with the design-time SOL-015 advisory so the
// two partitions cannot drift.
use soleil_core::disjoint::UnionFind;
use soleil_membrane::content::{ContentRegistry, Payload};
use soleil_membrane::FrameworkError;
use soleil_patterns::spsc::{spsc_ring, SpscConsumer};

use crate::spec::{
    AreaSpec, BindingSpec, ComponentSpec, DomainSpec, Mode, ProtocolSpec, SystemSpec,
};
use crate::system::{immortal_budget, AsyncRepointUndo, CrossOutput, CrossTx, EngineStats, System};

// ---------------------------------------------------------------------------
// Planning
// ---------------------------------------------------------------------------

/// Groups components into shards. Returns, per component, its shard index,
/// plus the number of shards. Pure function of the spec — the same
/// coupling rules the design-time advisory
/// (`soleil_core::validate::parallel_coupling`) reports on.
fn plan_shards(spec: &SystemSpec) -> (Vec<usize>, usize) {
    let n = spec.components.len();
    let mut uf = UnionFind::new(n);

    // Same thread domain → same shard.
    let mut first_in_domain: HashMap<usize, usize> = HashMap::new();
    for (i, c) in spec.components.iter().enumerate() {
        if let Some(d) = c.domain {
            match first_in_domain.get(&d) {
                Some(&j) => uf.union(i, j),
                None => {
                    first_in_domain.insert(d, i);
                }
            }
        }
    }

    // Synchronous bindings are nested run-to-completion calls: they cannot
    // cross threads, so they serialize their endpoints into one shard.
    for b in &spec.bindings {
        if matches!(b.protocol, ProtocolSpec::Sync) {
            uf.union(b.client, b.server);
        }
    }

    // A scoped area is owned by exactly one engine: components standing in
    // the same scope (anywhere on their chains) must share a shard.
    let mut first_with_area: HashMap<usize, usize> = HashMap::new();
    for i in 0..n {
        for a in spec.scope_chain(spec.components[i].area) {
            match first_with_area.get(&a) {
                Some(&j) => uf.union(i, j),
                None => {
                    first_with_area.insert(a, i);
                }
            }
        }
    }

    // Domainless groups (passives and undomained sporadics reachable only
    // through asynchronous bindings) attach to the shard of a binding
    // peer; iterate to a fixpoint so passive chains collapse.
    let group_has_domain = |uf: &mut UnionFind, spec: &SystemSpec, x: usize| {
        let root = uf.find(x);
        (0..n).any(|i| uf.find(i) == root && spec.components[i].domain.is_some())
    };
    loop {
        let mut changed = false;
        for bix in 0..spec.bindings.len() {
            let (c, s) = (spec.bindings[bix].client, spec.bindings[bix].server);
            if uf.find(c) != uf.find(s) {
                let cd = group_has_domain(&mut uf, spec, c);
                let sd = group_has_domain(&mut uf, spec, s);
                if cd != sd {
                    uf.union(c, s);
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }
    // Anything still domainless and unconnected joins the first domained
    // group (or group 0): every component must be owned by some engine.
    let anchor = (0..n).find(|&i| spec.components[i].domain.is_some());
    if let Some(anchor) = anchor {
        for i in 0..n {
            if !group_has_domain(&mut uf, spec, i) {
                uf.union(i, anchor);
            }
        }
    }

    // Number shards in order of their smallest component index.
    let mut shard_of_root: HashMap<usize, usize> = HashMap::new();
    let mut shard_of_comp = vec![0usize; n];
    for (i, slot) in shard_of_comp.iter_mut().enumerate() {
        let root = uf.find(i);
        let next = shard_of_root.len();
        *slot = *shard_of_root.entry(root).or_insert(next);
    }
    let count = shard_of_root.len().max(1);
    (shard_of_comp, count)
}

// ---------------------------------------------------------------------------
// Shards and rings
// ---------------------------------------------------------------------------

/// Build-time staging for a [`CrossIn`]: (consumer local slot, server
/// port name, consumer ring endpoint, ring tag), collected per shard
/// before port names are interned.
type PendingCrossIn<P> = (usize, String, SpscConsumer<P>, u64);

/// An incoming cross-domain ring: messages pop here and inject into the
/// consumer's server port as ordinary run-to-completion activations.
struct CrossIn<P> {
    rx: SpscConsumer<P>,
    slot: usize,
    port_ix: u16,
    /// Deployment-unique ring identity, minted at build or by a live
    /// rewiring transaction. `incoming` is kept priority-sorted, so the
    /// tag — not the position — is how reconfiguration retires a ring.
    tag: u64,
}

/// A ring a rewire retired, pooled on its producer's shard: its producer
/// stays at `cross_ix` in that shard's engine, where no row routes to it,
/// and its consumer endpoint waits here. The quiescence epoch before the
/// rewire emptied it, and nothing pushes into it while it waits.
struct PooledRing<P> {
    cross_ix: usize,
    ring: CrossIn<P>,
}

/// One engine of a deployment, with the rings it drains and what its
/// reconfigurations reuse instead of charging again.
pub(crate) struct Shard<P: Payload> {
    /// Thread-domain names joined with `+` (`shard{N}` without any).
    pub(crate) label: String,
    /// The thread domains materialized on this shard.
    pub(crate) domains: Vec<String>,
    /// Engine slot → global spec component index.
    pub(crate) globals: Vec<usize>,
    pub(crate) system: System<P>,
    incoming: Vec<CrossIn<P>>,
    /// Retired rings this shard produces into, newest last: a rewire of
    /// one of its ports takes one of the binding's capacity before it
    /// builds a fresh ring.
    pool: Vec<PooledRing<P>>,
    /// `(slot, area)` for every substrate area a slot's state has been
    /// charged to: its build area, then each one a committed re-homing
    /// moved it into. A move back into one of them charges nothing, since
    /// the state charged there still stands (charges are permanent).
    homes: Vec<(usize, AreaId)>,
}

impl<P: Payload> Shard<P> {
    /// Shard `ix` over `system`, labelled by its thread domains and
    /// draining `incoming` highest consumer priority first, mirroring the
    /// single-engine pending heap.
    fn new(
        ix: usize,
        domains: &[DomainSpec],
        globals: Vec<usize>,
        system: System<P>,
        incoming: Vec<CrossIn<P>>,
    ) -> Shard<P> {
        let domains: Vec<String> = domains.iter().map(|d| d.name.clone()).collect();
        let label = if domains.is_empty() {
            format!("shard{ix}")
        } else {
            domains.join("+")
        };
        let homes = (0..globals.len())
            .map(|slot| (slot, system.area_id(system.area_ix_at(slot))))
            .collect();
        let mut shard = Shard {
            label,
            domains,
            globals,
            system,
            incoming,
            pool: Vec::new(),
            homes,
        };
        shard.resort_incoming();
        shard
    }

    /// Whether the state of `slot` has been charged to substrate area
    /// `area`: at build, or by a committed re-homing into it.
    pub(crate) fn has_lived_in(&self, slot: usize, area: AreaId) -> bool {
        self.homes.contains(&(slot, area))
    }

    /// Records that the state of `slot` is now charged to `area` too — the
    /// commit-time half of a re-homing charge, made with it.
    pub(crate) fn record_home(&mut self, slot: usize, area: AreaId) {
        if !self.has_lived_in(slot, area) {
            self.homes.push((slot, area));
        }
    }

    /// Re-sorts the incoming rings to the drain order: highest consumer
    /// priority first, then by ring tag, so the order depends on the set of
    /// rings alone and a rollback that re-seats a ring restores it (build
    /// sorts once; reconfiguration re-sorts after a priority or ring
    /// change).
    pub(crate) fn resort_incoming(&mut self) {
        let system = &self.system;
        self.incoming
            .sort_unstable_by_key(|c| (std::cmp::Reverse(system.node_priority(c.slot)), c.tag));
    }

    /// The shard's rollback witness: its engine's
    /// [`System::structural_digest`] folded with the seat of every ring it
    /// drains — tag, consumer slot and port index, in drain order — and of
    /// every ring in its pool, with the producer index each keeps. A
    /// rollback that re-seats a ring on the wrong consumer changes it.
    pub(crate) fn structural_digest(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        let seat = |c: &CrossIn<P>| (c.tag, c.slot, c.port_ix);
        let mut h = std::collections::hash_map::DefaultHasher::new();
        self.system.structural_digest().hash(&mut h);
        let drained = self.incoming.iter().map(seat);
        let pooled = self.pool.iter().map(|p| (p.cross_ix, seat(&p.ring)));
        drained.collect::<Vec<_>>().hash(&mut h);
        pooled.collect::<Vec<_>>().hash(&mut h);
        h.finish()
    }
}

/// How one spec binding is carried at runtime — settled at build, and
/// rewritten by live rewiring transactions.
#[derive(Debug, Clone, Copy)]
enum Carrier {
    /// Both endpoints on one shard: engine-local dispatch (sync call or
    /// `ExchangeBuffer`).
    Local,
    /// An SPSC ring whose consumer endpoint is the `incoming` entry tagged
    /// `tag` on `consumer_shard`.
    Ring { consumer_shard: usize, tag: u64 },
}

/// The ring topology of a deployment: per global spec binding, its
/// carrier; and the ring-tag mint.
pub(crate) struct Rings {
    carriers: Vec<Carrier>,
    next_tag: u64,
}

/// Backing-store bytes of a ring of `capacity` messages: the ring
/// physically holds a power-of-two array of locked `Option<P>` cells.
/// Saturating, so a capacity no ring can have is a charge no budget
/// grants.
fn ring_charge_bytes<P>(capacity: usize) -> usize {
    let slot = std::mem::size_of::<Mutex<Option<P>>>().max(1);
    capacity
        .checked_next_power_of_two()
        .map_or(usize::MAX, |slots| slots.saturating_mul(slot))
}

/// Materializes the engines of a deployment: every component on one shard
/// (exactly [`System::build`], no rings), or — when `sharded` — the
/// planner's partition, with one engine per shard and every cross-shard
/// binding on a wait-free SPSC ring. See the [module docs](self).
///
/// # Errors
///
/// Spec inconsistencies ([`FrameworkError::Content`]) and build errors
/// from the per-shard [`System`] builds.
pub(crate) fn build_shards<P: Payload>(
    spec: &SystemSpec,
    mode: Mode,
    registry: &ContentRegistry<P>,
    sharded: bool,
) -> Result<(Vec<Shard<P>>, Rings), FrameworkError> {
    let mut rings = Rings {
        carriers: vec![Carrier::Local; spec.bindings.len()],
        next_tag: 1,
    };
    if !sharded {
        let system = System::build(spec, mode, registry)?;
        let globals = (0..spec.components.len()).collect();
        let shard = Shard::new(0, &spec.domains, globals, system, Vec::new());
        return Ok((vec![shard], rings));
    }
    spec.check().map_err(FrameworkError::Content)?;
    let (shard_of_comp, shard_count) = plan_shards(spec);

    // --- Per-shard index remappings. -------------------------------
    // Areas: heap/immortal replicate everywhere; a scoped area lives
    // only in the shard owning it — via any resident component, or,
    // for a resident-free scope, its nearest scoped ancestor's owner
    // (its sub-spec must contain its parent chain; areas are ordered
    // parents-first, so the ancestor's owner is already settled).
    // Resident-free roots default to shard 0.
    let mut scoped_owner: Vec<usize> = vec![usize::MAX; spec.areas.len()];
    for (aix, a) in spec.areas.iter().enumerate() {
        if a.kind != rtsj::memory::MemoryKind::Scoped {
            continue; // replicated
        }
        scoped_owner[aix] = spec
            .components
            .iter()
            .enumerate()
            .find(|(_, c)| spec.scope_chain(c.area).contains(&aix))
            .map(|(cix, _)| shard_of_comp[cix])
            .or_else(|| {
                let ancestors = spec.scope_chain(a.parent?);
                ancestors.last().map(|&p| scoped_owner[p])
            })
            .unwrap_or(0);
    }

    let mut area_map: Vec<HashMap<usize, usize>> = vec![HashMap::new(); shard_count];
    let mut shard_areas: Vec<Vec<AreaSpec>> = vec![Vec::new(); shard_count];
    for (aix, a) in spec.areas.iter().enumerate() {
        for shard in 0..shard_count {
            let replicated = scoped_owner[aix] == usize::MAX;
            if replicated || scoped_owner[aix] == shard {
                let mut local = a.clone();
                local.parent = a.parent.map(|p| {
                    *area_map[shard]
                        .get(&p)
                        .expect("parents precede children in a checked spec")
                });
                area_map[shard].insert(aix, shard_areas[shard].len());
                shard_areas[shard].push(local);
            }
        }
    }

    // Domains: those referenced by a shard's components (unused
    // domains default to shard 0 so every roster entry materializes).
    let mut domain_shard = vec![0usize; spec.domains.len()];
    for (cix, c) in spec.components.iter().enumerate() {
        if let Some(d) = c.domain {
            domain_shard[d] = shard_of_comp[cix];
        }
    }
    let mut domain_map: Vec<HashMap<usize, usize>> = vec![HashMap::new(); shard_count];
    let mut shard_domains: Vec<Vec<DomainSpec>> = vec![Vec::new(); shard_count];
    for (dix, d) in spec.domains.iter().enumerate() {
        let shard = domain_shard[dix];
        domain_map[shard].insert(dix, shard_domains[shard].len());
        shard_domains[shard].push(d.clone());
    }

    // Components.
    let mut comp_map: Vec<HashMap<usize, usize>> = vec![HashMap::new(); shard_count];
    let mut shard_comps: Vec<Vec<ComponentSpec>> = vec![Vec::new(); shard_count];
    let mut globals: Vec<Vec<usize>> = vec![Vec::new(); shard_count];
    for (cix, c) in spec.components.iter().enumerate() {
        let shard = shard_of_comp[cix];
        let mut local = c.clone();
        local.area = area_map[shard][&c.area];
        local.domain = c.domain.map(|d| domain_map[shard][&d]);
        comp_map[shard].insert(cix, shard_comps[shard].len());
        shard_comps[shard].push(local);
        globals[shard].push(cix);
    }

    // Bindings: intra-shard remap in place; cross-shard must be
    // asynchronous (planning merged everything synchronous) and
    // becomes a ring.
    let mut shard_bindings: Vec<Vec<BindingSpec>> = vec![Vec::new(); shard_count];
    let mut cross_outputs: Vec<Vec<CrossOutput<P>>> =
        (0..shard_count).map(|_| Vec::new()).collect();
    let mut cross_inputs: Vec<Vec<PendingCrossIn<P>>> =
        (0..shard_count).map(|_| Vec::new()).collect();
    // A ring's storage is checked against its producer shard's immortal
    // budget before it is allocated; the shard's engine build then
    // charges it for real.
    let mut ring_room: Vec<usize> = shard_areas.iter().map(|a| immortal_budget(a)).collect();
    for (bix, b) in spec.bindings.iter().enumerate() {
        let (cs, ss) = (shard_of_comp[b.client], shard_of_comp[b.server]);
        if cs == ss {
            let mut local = b.clone();
            local.client = comp_map[cs][&b.client];
            local.server = comp_map[cs][&b.server];
            shard_bindings[cs].push(local);
            continue;
        }
        let ProtocolSpec::Async { capacity, .. } = b.protocol else {
            return Err(FrameworkError::Content(format!(
                "planner bug: synchronous binding {}→{} crosses shards",
                spec.components[b.client].name, spec.components[b.server].name
            )));
        };
        let charge_bytes = ring_charge_bytes::<P>(capacity);
        if charge_bytes > ring_room[cs] {
            return Err(RtsjError::OutOfMemory {
                area: AreaId::IMMORTAL,
                requested: charge_bytes,
                remaining: ring_room[cs],
            }
            .into());
        }
        ring_room[cs] -= charge_bytes;
        let (tx, rx) = spsc_ring::<P>(capacity)?;
        let tag = rings.next_tag;
        rings.next_tag += 1;
        rings.carriers[bix] = Carrier::Ring {
            consumer_shard: ss,
            tag,
        };
        cross_outputs[cs].push(CrossOutput {
            client: comp_map[cs][&b.client],
            client_port: b.client_port.clone(),
            tx,
            charge_bytes,
        });
        cross_inputs[ss].push((comp_map[ss][&b.server], b.server_port.clone(), rx, tag));
    }

    // --- Materialize each shard. -----------------------------------
    // Every shard ticks the whole plan's quantum, so the shards of one
    // deployment keep one virtual clock.
    let tick_quantum = spec.tick_quantum();
    let mut shards: Vec<Shard<P>> = Vec::with_capacity(shard_count);
    for shard in 0..shard_count {
        let sub = SystemSpec {
            name: format!("{}/shard{}", spec.name, shard),
            areas: std::mem::take(&mut shard_areas[shard]),
            domains: std::mem::take(&mut shard_domains[shard]),
            components: std::mem::take(&mut shard_comps[shard]),
            bindings: std::mem::take(&mut shard_bindings[shard]),
        };
        let system = System::build_with_cross(
            &sub,
            mode,
            registry,
            std::mem::take(&mut cross_outputs[shard]),
            tick_quantum,
        )?;
        let mut incoming = Vec::with_capacity(cross_inputs[shard].len());
        for (slot, port, rx, tag) in std::mem::take(&mut cross_inputs[shard]) {
            let port_ix = system.port_ix_of(slot, &port)?;
            incoming.push(CrossIn {
                rx,
                slot,
                port_ix,
                tag,
            });
        }
        let globals = std::mem::take(&mut globals[shard]);
        shards.push(Shard::new(shard, &sub.domains, globals, system, incoming));
    }
    Ok((shards, rings))
}

/// Undo record of [`Rings::rewire`].
pub(crate) struct Rewire {
    gbix: usize,
    old_carrier: Carrier,
    producer_shard: usize,
    consumer_shard: usize,
    installed_tag: u64,
    engine: AsyncRepointUndo,
    /// Where in the producer shard's pool the installed ring was taken
    /// from, and the consumer seat (slot, port index) it had there;
    /// `None` when it was built fresh.
    taken_at: Option<(usize, (usize, u16))>,
    /// The shard the retired ring was drained on, when the binding
    /// already rode a ring; the ring itself waits last in the producer
    /// shard's pool.
    retired_from: Option<usize>,
}

impl Rings {
    /// The ring half of `rebind_async`: installs a ring of `capacity` for
    /// spec binding `gbix` — the newest ring of that capacity pooled on the
    /// producer shard, or a fresh one when none is. The row of the client's
    /// `port` at `client = (shard, slot)` is rewritten in place to the
    /// producer endpoint with `is_cross` set — exactly the shape
    /// deploy-time rings get, in SOLEIL and MERGE-ALL alike — and the
    /// consumer endpoint is seated on `server = (shard, slot, port index)`,
    /// priority-sorted. If the binding already rode a ring, that ring
    /// retires into the producer shard's pool (the quiescence epoch
    /// guarantees it is empty; its producer keeps its `cross_out` index,
    /// where nothing routes to it until a rewire takes it again). Returns
    /// the undo record, and for a fresh ring the bytes to charge to the
    /// producer shard's immortal area at commit; a pooled ring was charged
    /// when it was built.
    ///
    /// # Errors
    ///
    /// Ring allocation errors; [`FrameworkError::Binding`] for unbound or
    /// synchronous ports.
    pub(crate) fn rewire<P: Payload>(
        &mut self,
        shards: &mut [Shard<P>],
        gbix: usize,
        capacity: usize,
        client: (usize, usize),
        port: &str,
        server: (usize, usize, u16),
    ) -> Result<(Rewire, Option<usize>), FrameworkError> {
        let (producer_shard, client_slot) = client;
        let (consumer_shard, server_slot, port_ix) = server;
        let producer = &mut shards[producer_shard];
        let taken_at = producer
            .pool
            .iter()
            .rposition(|p| p.ring.rx.capacity() == capacity)
            .map(|at| {
                (
                    at,
                    (producer.pool[at].ring.slot, producer.pool[at].ring.port_ix),
                )
            });
        let (engine, mut ring, charge) = match taken_at {
            Some((at, _)) => {
                let tx = CrossTx::Pooled(producer.pool[at].cross_ix);
                let engine = producer
                    .system
                    .repoint_async_to_cross(client_slot, port, tx)?;
                (engine, producer.pool.remove(at).ring, None)
            }
            None => {
                let (tx, rx) = spsc_ring::<P>(capacity)?;
                let engine = producer.system.repoint_async_to_cross(
                    client_slot,
                    port,
                    CrossTx::Fresh(tx),
                )?;
                let tag = self.next_tag;
                self.next_tag += 1;
                let ring = CrossIn {
                    rx,
                    slot: server_slot,
                    port_ix,
                    tag,
                };
                (engine, ring, Some(ring_charge_bytes::<P>(capacity)))
            }
        };

        let old_carrier = self.carriers[gbix];
        let retired_from = if let Carrier::Ring {
            consumer_shard: old_cs,
            tag,
        } = old_carrier
        {
            let incoming = &mut shards[old_cs].incoming;
            let pos = incoming
                .iter()
                .position(|c| c.tag == tag)
                .expect("carrier table desynced from shard drain set");
            debug_assert!(
                incoming[pos].rx.is_empty(),
                "retiring a non-empty ring inside a quiescence epoch"
            );
            let cross_ix = engine
                .replaced_cross_ix()
                .expect("a ring carrier's row routes into a ring");
            let retired = incoming.remove(pos);
            shards[producer_shard].pool.push(PooledRing {
                cross_ix,
                ring: retired,
            });
            Some(old_cs)
        } else {
            None
        };

        // Self-rings — producer and consumer on one shard — are allowed:
        // the drain pass serves them like any other ring.
        let installed_tag = ring.tag;
        (ring.slot, ring.port_ix) = (server_slot, port_ix);
        shards[consumer_shard].incoming.push(ring);
        shards[consumer_shard].resort_incoming();
        if let Some(old_cs) = retired_from {
            if old_cs != consumer_shard {
                shards[old_cs].resort_incoming();
            }
        }
        self.carriers[gbix] = Carrier::Ring {
            consumer_shard,
            tag: installed_tag,
        };
        let undo = Rewire {
            gbix,
            old_carrier,
            producer_shard,
            consumer_shard,
            installed_tag,
            engine,
            taken_at,
            retired_from,
        };
        Ok((undo, charge))
    }

    /// Rolls back a [`Rings::rewire`]: takes the installed ring off its
    /// consumer's drain set, writes the client row's pre-image back,
    /// re-seats the retired ring from the pool and returns a pooled ring,
    /// with the seat it had there, to where it was taken — in that order,
    /// the reverse of the rewire, so the pool ends as it began, ring by
    /// ring and seat by seat. Infallible: it only writes pre-images back.
    pub(crate) fn unwire<P: Payload>(&mut self, shards: &mut [Shard<P>], undo: Rewire) {
        let incoming = &mut shards[undo.consumer_shard].incoming;
        let pos = incoming
            .iter()
            .position(|c| c.tag == undo.installed_tag)
            .expect("rollback of a ring that vanished inside the epoch");
        let installed = incoming.remove(pos);
        debug_assert!(
            installed.rx.is_empty(),
            "rollback of a ring that carried traffic inside the epoch"
        );
        let producer = &mut shards[undo.producer_shard];
        producer.system.restore_async_binding(undo.engine);
        let retired = undo.retired_from.map(|old_cs| {
            let pooled = producer
                .pool
                .pop()
                .expect("the retired ring is pooled last");
            (old_cs, pooled.ring)
        });
        if let Some((at, (slot, port_ix))) = undo.taken_at {
            let ring = CrossIn {
                slot,
                port_ix,
                ..installed
            };
            producer.pool.insert(
                at,
                PooledRing {
                    cross_ix: undo.engine.cross_ix(),
                    ring,
                },
            );
        }
        if let Some((old_cs, ring)) = retired {
            shards[old_cs].incoming.push(ring);
            shards[old_cs].resort_incoming();
        }
        shards[undo.consumer_shard].resort_incoming();
        self.carriers[undo.gbix] = undo.old_carrier;
    }
}

// ---------------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------------

/// Per-shard report of one `Deployment::run_ticks_instrumented` run: every
/// figure is the shard's own share of the run, its engine's ticks and its
/// drain passes.
#[derive(Debug, Clone)]
pub struct ShardRun {
    /// Shard label (its thread-domain names joined with `+`).
    pub label: String,
    /// Measured ticks driven.
    pub ticks: u64,
    /// Median wall-clock nanoseconds per measured tick: the shard's own
    /// tick plus its drain passes of that tick.
    pub median_tick_ns: u64,
    /// Total wall-clock nanoseconds across the measured ticks.
    pub total_ns: u64,
    /// Delta of the caller's probe across the shard's work in the measured
    /// phase (the zero-alloc gate passes a heap-allocation counter).
    pub probe_delta: u64,
    /// Substrate allocations performed during the measured phase (0 in
    /// steady state).
    pub substrate_allocs: u64,
    /// Drain passes executed over the shard's incoming rings across the
    /// measured ticks (each pass snapshots every ring's published head
    /// once).
    pub drain_passes: u64,
    /// Largest run of messages popped from one ring within a single drain
    /// pass — `> 1` proves the batched drain actually amortized an
    /// `Acquire` load over several messages.
    pub max_drain_batch: u64,
    /// Messages drained from incoming rings across the measured ticks.
    pub drained_messages: u64,
    /// Engine counters after the run (shard totals since build).
    pub stats: EngineStats,
}

/// What one drain pass over a shard's incoming rings popped.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Pass {
    messages: u64,
    max_batch: u64,
}

/// The one tick path, on the caller's thread: every shard ticks its
/// engine, in shard order, then drain passes run to quiescence
/// ([`quiesce`]). `after(shard, pass)` runs after each piece of a shard's
/// work: its tick (`None`) and each of its drain passes.
///
/// # Errors
///
/// The first engine error, as the engine raised it; later shards do not
/// tick, and the messages not yet drained stay in their rings for the next
/// call.
pub(crate) fn tick<P: Payload>(
    shards: &mut [Shard<P>],
    mut after: impl FnMut(usize, Option<Pass>),
) -> Result<(), FrameworkError> {
    for (ix, shard) in shards.iter_mut().enumerate() {
        shard.system.run_tick()?;
        after(ix, None);
    }
    quiesce(shards, after)
}

/// Drives every shard to a quiescence epoch — every cross-domain ring
/// empty — on the caller's thread: drain passes over every shard, in shard
/// order, until a full pass pops nothing. Nothing else pushes meanwhile, so
/// that empty pass proves every ring empty. One shard has no rings and
/// pays one compare.
///
/// # Errors
///
/// The engine's own error when an activation escalates; the messages not
/// yet drained stay in their rings for the next call.
pub(crate) fn quiesce<P: Payload>(
    shards: &mut [Shard<P>],
    mut after: impl FnMut(usize, Option<Pass>),
) -> Result<(), FrameworkError> {
    if shards.len() < 2 {
        return Ok(());
    }
    loop {
        let mut moved = false;
        for (ix, shard) in shards.iter_mut().enumerate() {
            let pass = drain_pass(shard)?;
            moved |= pass.messages > 0;
            after(ix, Some(pass));
        }
        if !moved {
            return Ok(());
        }
    }
}

/// One pass over the shard's incoming rings (consumer priority order):
/// snapshots each ring's published head **once**, pops the visible run of
/// messages against the cached value (amortizing the `Acquire` load over
/// the whole batch) and runs every activation to completion.
fn drain_pass<P: Payload>(shard: &mut Shard<P>) -> Result<Pass, FrameworkError> {
    let mut pass = Pass::default();
    for cin in &mut shard.incoming {
        let mut popped = 0;
        for msg in cin.rx.drain_batch() {
            popped += 1;
            shard.system.inject_at(cin.slot, cin.port_ix, msg)?;
        }
        pass.messages += popped;
        pass.max_batch = pass.max_batch.max(popped);
    }
    Ok(pass)
}

/// `ticks` iterations of [`tick`], charging each shard the wall-clock time
/// and the `probe` delta of its own tick and drain passes (see
/// `Deployment::run_ticks_instrumented`).
///
/// # Errors
///
/// As [`tick`]: the first engine error ends the run.
pub(crate) fn run_shards<P: Payload>(
    shards: &mut [Shard<P>],
    ticks: u64,
    probe: &impl Fn() -> u64,
) -> Result<Vec<ShardRun>, FrameworkError> {
    let n = shards.len();
    // Every record exists before the probe baseline is read, so the
    // measured region allocates nothing: `nanos[t * n + s]` is shard `s`'s
    // share of tick `t`, and `substrate_allocs` holds the baseline until
    // the run ends.
    let mut nanos = vec![0; ticks as usize * n];
    let mut runs: Vec<ShardRun> = shards
        .iter()
        .map(|s| ShardRun {
            label: s.label.clone(),
            ticks,
            median_tick_ns: 0,
            total_ns: 0,
            probe_delta: 0,
            substrate_allocs: s.system.memory().alloc_count(),
            drain_passes: 0,
            max_drain_batch: 0,
            drained_messages: 0,
            stats: EngineStats::default(),
        })
        .collect();
    // One clock read and one probe sample per piece of work: its end is
    // the next piece's start.
    let mut mark = (Instant::now(), probe());
    for t in 0..ticks as usize {
        tick(shards, |s, pass| {
            let now = (Instant::now(), probe());
            nanos[t * n + s] += now.0.duration_since(mark.0).as_nanos() as u64;
            let run = &mut runs[s];
            run.probe_delta += now.1 - mark.1;
            mark = now;
            if let Some(pass) = pass {
                run.drain_passes += 1;
                run.drained_messages += pass.messages;
                run.max_drain_batch = run.max_drain_batch.max(pass.max_batch);
            }
        })?;
    }
    for (s, (run, shard)) in runs.iter_mut().zip(shards.iter()).enumerate() {
        let mut mine: Vec<u64> = nanos.iter().skip(s).step_by(n).copied().collect();
        mine.sort_unstable();
        run.median_tick_ns = mine.get(mine.len() / 2).copied().unwrap_or(0);
        run.total_ns = mine.iter().sum();
        run.substrate_allocs = shard.system.memory().alloc_count() - run.substrate_allocs;
        run.stats = shard.system.stats();
    }
    Ok(runs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{Activation, BufferPlacement};
    use crate::system::FaultPolicy;
    use crate::Deployment;
    use rtsj::memory::MemoryKind;
    use rtsj::thread::ThreadKind;
    use rtsj::time::RelativeTime;
    use soleil_core::contract::TimingContract;
    use soleil_core::Architecture;
    use soleil_membrane::content::{Content, InvokeResult, Ports};
    use soleil_membrane::interceptors::FaultInjector;
    use soleil_membrane::FaultKind;
    use std::sync::Arc;

    /// Records, per consumer, how many messages arrived.
    #[derive(Debug, Clone, Default)]
    struct CountProbe {
        seen: Arc<Mutex<HashMap<String, u64>>>,
    }

    impl CountProbe {
        fn count(&self, name: &str) -> u64 {
            self.seen.lock().unwrap().get(name).copied().unwrap_or(0)
        }
    }

    #[derive(Debug)]
    struct Fan {
        ports: Vec<&'static str>,
    }
    impl Content<u64> for Fan {
        fn on_invoke(&mut self, _p: &str, msg: &mut u64, out: &mut dyn Ports<u64>) -> InvokeResult {
            *msg += 1;
            for port in &self.ports {
                out.send(port, *msg)?;
            }
            Ok(())
        }
    }

    #[derive(Debug)]
    struct Recorder {
        name: String,
        probe: CountProbe,
    }
    impl Content<u64> for Recorder {
        fn on_invoke(
            &mut self,
            _p: &str,
            _msg: &mut u64,
            _out: &mut dyn Ports<u64>,
        ) -> InvokeResult {
            *self
                .probe
                .seen
                .lock()
                .unwrap()
                .entry(self.name.clone())
                .or_default() += 1;
            Ok(())
        }
    }

    fn registry(probe: &CountProbe) -> ContentRegistry<u64> {
        let mut r = ContentRegistry::new();
        r.register("Fan2", || {
            Box::new(Fan {
                ports: vec!["out1", "out2"],
            })
        });
        let p = probe.clone();
        r.register("RecB", move || {
            Box::new(Recorder {
                name: "consumerB".into(),
                probe: p.clone(),
            })
        });
        let p = probe.clone();
        r.register("RecC", move || {
            Box::new(Recorder {
                name: "consumerC".into(),
                probe: p.clone(),
            })
        });
        r
    }

    /// Three domains: a periodic producer fanning out asynchronously to
    /// two sporadic consumers, each in its own domain — three shards.
    fn fan_spec() -> SystemSpec {
        SystemSpec {
            name: "fan".into(),
            areas: vec![AreaSpec {
                name: "Imm1".into(),
                kind: MemoryKind::Immortal,
                size: Some(256 * 1024),
                parent: None,
            }],
            domains: vec![
                DomainSpec {
                    name: "A".into(),
                    kind: ThreadKind::NoHeapRealtime,
                    priority: 30,
                },
                DomainSpec {
                    name: "B".into(),
                    kind: ThreadKind::NoHeapRealtime,
                    priority: 25,
                },
                DomainSpec {
                    name: "C".into(),
                    kind: ThreadKind::Realtime,
                    priority: 20,
                },
            ],
            components: vec![
                ComponentSpec {
                    name: "producer".into(),
                    content_class: "Fan2".into(),
                    activation: Activation::Periodic {
                        period: RelativeTime::from_millis(10),
                    },
                    domain: Some(0),
                    area: 0,
                    server_ports: vec![],
                },
                ComponentSpec {
                    name: "consumerB".into(),
                    content_class: "RecB".into(),
                    activation: Activation::Sporadic,
                    domain: Some(1),
                    area: 0,
                    server_ports: vec!["in".into()],
                },
                ComponentSpec {
                    name: "consumerC".into(),
                    content_class: "RecC".into(),
                    activation: Activation::Sporadic,
                    domain: Some(2),
                    area: 0,
                    server_ports: vec!["in".into()],
                },
            ],
            bindings: vec![
                BindingSpec {
                    client: 0,
                    client_port: "out1".into(),
                    server: 1,
                    server_port: "in".into(),
                    protocol: ProtocolSpec::Async {
                        capacity: 64,
                        placement: BufferPlacement::Immortal,
                    },
                },
                BindingSpec {
                    client: 0,
                    client_port: "out2".into(),
                    server: 2,
                    server_port: "in".into(),
                    protocol: ProtocolSpec::Async {
                        capacity: 64,
                        placement: BufferPlacement::Immortal,
                    },
                },
            ],
        }
    }

    #[test]
    fn independent_domains_get_independent_shards() {
        let probe = CountProbe::default();
        let sys = Deployment::build_parallel(&fan_spec(), Mode::MergeAll, &registry(&probe), None)
            .unwrap();
        assert_eq!(sys.shard_count(), 3);
        let a = sys.shard_of_domain("A").unwrap();
        let b = sys.shard_of_domain("B").unwrap();
        let c = sys.shard_of_domain("C").unwrap();
        assert!(a != b && b != c && a != c);
        assert_eq!(sys.shard_of_component("producer"), Some(a));
        assert_eq!(sys.shard_of_component("consumerB"), Some(b));
        assert_eq!(sys.shard_of_component("consumerC"), Some(c));
    }

    #[test]
    fn shards_tick_on_distinct_os_threads_in_every_mode() {
        for mode in [Mode::Soleil, Mode::MergeAll, Mode::UltraMerge] {
            let probe = CountProbe::default();
            let mut sys =
                Deployment::build_parallel(&fan_spec(), mode, &registry(&probe), None).unwrap();
            let runs = sys.run_ticks(25).unwrap();
            assert_eq!(runs.len(), 3, "{mode}");

            // Message conservation: each consumer saw all 25 fan-outs.
            assert_eq!(probe.count("consumerB"), 25, "{mode}");
            assert_eq!(probe.count("consumerC"), 25, "{mode}");
            assert_eq!(sys.stats().dropped_messages, 0, "{mode}");

            // The producer shard counted its cross sends; consumer shards
            // counted the injected activations as transactions.
            let a = sys.shard_of_domain("A").unwrap();
            assert_eq!(sys.shard_stats(a).async_messages, 50, "{mode}");
        }
    }

    #[test]
    fn sync_cross_domain_binding_merges_shards() {
        let mut spec = fan_spec();
        // Make producer→consumerB synchronous: B can no longer shard apart.
        spec.bindings[0].protocol = ProtocolSpec::Sync;
        spec.bindings[0].server_port = "in".into();
        let probe = CountProbe::default();
        let sys =
            Deployment::build_parallel(&spec, Mode::MergeAll, &registry(&probe), None).unwrap();
        assert_eq!(sys.shard_count(), 2);
        assert_eq!(
            sys.shard_of_domain("A"),
            sys.shard_of_domain("B"),
            "sync binding serializes A and B"
        );
        assert_ne!(sys.shard_of_domain("A"), sys.shard_of_domain("C"));
    }

    #[test]
    fn shared_scoped_area_merges_shards() {
        let mut spec = fan_spec();
        spec.areas.push(AreaSpec {
            name: "S1".into(),
            kind: MemoryKind::Scoped,
            size: Some(16 * 1024),
            parent: None,
        });
        // producer (A) and consumerC (C) live in the same scoped area:
        // one engine must own the scope, so A and C merge.
        spec.components[0].area = 1;
        spec.components[2].area = 1;
        let probe = CountProbe::default();
        let sys =
            Deployment::build_parallel(&spec, Mode::MergeAll, &registry(&probe), None).unwrap();
        assert_eq!(sys.shard_count(), 2);
        assert_eq!(sys.shard_of_domain("A"), sys.shard_of_domain("C"));
    }

    /// Regression: a scoped area with no resident components, nested in a
    /// scope owned by a non-zero shard, must materialize in that shard
    /// (not panic trying to remap a parent shard 0 never saw).
    #[test]
    fn resident_free_nested_scope_follows_its_parents_shard() {
        let mut spec = fan_spec();
        // S_owned hosts consumerC (domain C → a non-zero shard);
        // S_orphan nests inside it and hosts nobody.
        spec.areas.push(AreaSpec {
            name: "S_owned".into(),
            kind: MemoryKind::Scoped,
            size: Some(16 * 1024),
            parent: None,
        });
        spec.areas.push(AreaSpec {
            name: "S_orphan".into(),
            kind: MemoryKind::Scoped,
            size: Some(8 * 1024),
            parent: Some(1),
        });
        spec.components[2].area = 1; // consumerC into S_owned
        let probe = CountProbe::default();
        let mut sys =
            Deployment::build_parallel(&spec, Mode::MergeAll, &registry(&probe), None).unwrap();
        assert_eq!(sys.shard_count(), 3);
        let c = sys.shard_of_domain("C").unwrap();
        let owned = sys.shard_system(c).memory().area_by_name("S_owned");
        let orphan = sys.shard_system(c).memory().area_by_name("S_orphan");
        assert!(
            owned.is_some() && orphan.is_some(),
            "both scopes live in C's shard"
        );
        for other in (0..3).filter(|&s| s != c) {
            assert!(sys
                .shard_system(other)
                .memory()
                .area_by_name("S_orphan")
                .is_none());
        }
        sys.run_ticks(5).unwrap();
    }

    #[test]
    fn degenerate_single_shard_still_runs() {
        let mut spec = fan_spec();
        // Everything in one domain: one shard, no rings, same results.
        for c in &mut spec.components {
            c.domain = Some(0);
        }
        let probe = CountProbe::default();
        let mut sys =
            Deployment::build_parallel(&spec, Mode::MergeAll, &registry(&probe), None).unwrap();
        assert_eq!(sys.shard_count(), 1);
        let runs = sys.run_ticks(10).unwrap();
        assert_eq!(runs.len(), 1);
        assert_eq!(probe.count("consumerB"), 10);
        assert_eq!(probe.count("consumerC"), 10);
    }

    /// A producer sending three messages per release into a capacity-1
    /// cross-shard ring: the driver drains only after every shard has
    /// ticked, so each tick delivers one message and the ring rejects two,
    /// each counted as a drop.
    #[test]
    fn ring_backpressure_counts_drops() {
        let mut spec = fan_spec();
        spec.components[0].content_class = "Fan3".into();
        spec.bindings[0].protocol = ProtocolSpec::Async {
            capacity: 1,
            placement: BufferPlacement::Immortal,
        };
        for mode in [Mode::Soleil, Mode::MergeAll, Mode::UltraMerge] {
            let probe = CountProbe::default();
            let mut reg = registry(&probe);
            reg.register("Fan3", || {
                Box::new(Fan {
                    ports: vec!["out1"; 3],
                })
            });
            let mut sys = Deployment::build_parallel(&spec, mode, &reg, None).unwrap();
            assert_eq!(sys.shard_count(), 3, "{mode}");
            sys.run_ticks(10).unwrap();
            let delivered = probe.count("consumerB");
            let dropped = sys.stats().dropped_messages;
            assert_eq!((delivered, dropped), (10, 20), "{mode}");
        }
    }

    /// A consumer that fails every invocation with a recognizable error.
    #[derive(Debug)]
    struct Exploder;
    impl Content<u64> for Exploder {
        fn on_invoke(
            &mut self,
            _p: &str,
            _msg: &mut u64,
            _out: &mut dyn Ports<u64>,
        ) -> InvokeResult {
            Err(FrameworkError::Content("boom".into()))
        }
    }

    /// An engine error ends a `run_ticks` run as the engine raised it —
    /// the root cause, exactly the error the same tick returns through
    /// `run_tick`.
    #[test]
    fn abort_reports_originating_shard_and_root_cause() {
        let probe = CountProbe::default();
        let mut reg = registry(&probe);
        reg.register("Boom", || Box::new(Exploder));
        let mut spec = fan_spec();
        spec.components[1].content_class = "Boom".into();
        let mut sys = Deployment::build_parallel(&spec, Mode::MergeAll, &reg, None).unwrap();
        let err = sys.run_ticks(10).unwrap_err();
        assert_eq!(err.to_string(), "content error: boom");
        let mut fresh = Deployment::build_parallel(&spec, Mode::MergeAll, &reg, None).unwrap();
        assert_eq!(fresh.run_tick().unwrap_err().to_string(), err.to_string());
    }

    /// Tentpole: a panic injected into one shard under `Isolate` leaves
    /// every sibling shard completing its ticks, the faulted component
    /// quarantined with its messages counted-dropped, and the health
    /// report naming it.
    #[test]
    fn isolate_contains_a_panic_to_its_own_shard() {
        let probe = CountProbe::default();
        let mut sys =
            Deployment::build_parallel(&fan_spec(), Mode::MergeAll, &registry(&probe), None)
                .unwrap();
        sys.set_fault_policy("consumerB", FaultPolicy::Isolate)
            .unwrap();
        sys.install_fault_injector(
            "consumerB",
            FaultInjector::new("consumerB", 7, 1).with_menu(FaultInjector::MENU_PANIC),
        )
        .unwrap();

        let runs = sys.run_ticks(25).unwrap();
        assert_eq!(runs.len(), 3, "all shards completed despite the panic");
        assert!(sys.quarantined("consumerB").unwrap());
        assert!(!sys.quarantined("consumerC").unwrap());
        // The sibling consumer saw every message; B panicked on its first
        // activation (before dispatch reached the content) and the rest
        // were counted-dropped against the quarantine.
        assert_eq!(probe.count("consumerC"), 25);
        assert_eq!(probe.count("consumerB"), 0);
        let stats = sys.stats();
        assert_eq!(stats.async_messages, 50);
        assert_eq!(stats.faults_contained, 1);
        assert_eq!(stats.quarantine_drops, 24);
        assert_eq!(stats.delivered_messages + stats.dropped_messages, 50);
        let (faults, restarts, _) = sys.supervision_counts("consumerB").unwrap();
        assert_eq!((faults, restarts), (1, 0));

        let report = sys.health_report();
        assert!(
            report.by_code("SOL-020").any(|d| d.subject == "consumerB"),
            "health report names the quarantined component: {report:?}"
        );
        assert!(report.by_code("SOL-022").next().is_some(), "drops surfaced");

        // Supervised recovery: an explicit restart clears the quarantine
        // and the component consumes again.
        sys.install_fault_injector("consumerB", FaultInjector::new("consumerB", 7, 0))
            .unwrap();
        sys.restart_component("consumerB").unwrap();
        assert!(!sys.quarantined("consumerB").unwrap());
        sys.run_ticks(5).unwrap();
        assert_eq!(probe.count("consumerB"), 5);
        assert!(sys.health_report().by_code("SOL-020").next().is_none());
    }

    #[test]
    fn instrumented_run_reports_quiescent_counters() {
        let probe = CountProbe::default();
        let mut sys =
            Deployment::build_parallel(&fan_spec(), Mode::MergeAll, &registry(&probe), None)
                .unwrap();
        let runs = sys.run_ticks_instrumented(20, 50, &|| 0).unwrap();
        for r in &runs {
            assert_eq!(r.ticks, 50);
            assert_eq!(r.probe_delta, 0);
            assert_eq!(
                r.substrate_allocs, 0,
                "{}: steady-state ticks must not allocate in the substrate",
                r.label
            );
        }
        // 20 warmup + 50 measured ticks delivered everywhere.
        assert_eq!(probe.count("consumerB"), 70);
        assert_eq!(probe.count("consumerC"), 70);
    }

    // -- Live reconfiguration of the partition --------------------------

    /// A structural operation is refused under ULTRA-MERGE, before it
    /// changes anything.
    #[test]
    fn reconfigure_is_refused_under_ultra_merge() {
        let probe = CountProbe::default();
        let mut sys =
            Deployment::build_parallel(&fan_spec(), Mode::UltraMerge, &registry(&probe), None)
                .unwrap();
        let digests = sys.structural_digests();
        let err = sys.reconfigure(|txn| txn.stop("consumerB")).unwrap_err();
        assert_eq!(
            err.to_string(),
            "unsupported in this mode: ULTRA-MERGE systems are purely static"
        );
        assert_eq!(sys.structural_digests(), digests);
    }

    #[test]
    fn rebind_async_rewires_the_ring_across_shards() {
        for mode in [Mode::Soleil, Mode::MergeAll] {
            let probe = CountProbe::default();
            let mut sys =
                Deployment::build_parallel(&fan_spec(), mode, &registry(&probe), None).unwrap();
            sys.run_ticks(10).unwrap();
            assert_eq!(probe.count("consumerB"), 10, "{mode}");
            assert_eq!(probe.count("consumerC"), 10, "{mode}");

            // Retarget producer.out1 from consumerB (shard B) onto
            // consumerC (shard C): the A→B ring retires, a fresh A→C ring
            // seats, and the compiled client slot repoints — live.
            sys.reconfigure(|txn| txn.rebind_async("producer", "out1", "consumerC"))
                .unwrap();

            sys.run_ticks(10).unwrap();
            assert_eq!(
                probe.count("consumerB"),
                10,
                "{mode}: the retired ring delivers nothing more"
            );
            assert_eq!(
                probe.count("consumerC"),
                30,
                "{mode}: both fan-out messages reach the new server"
            );
            let stats = sys.stats();
            assert_eq!(stats.dropped_messages, 0, "{mode}");
            // Exact conservation across the reconfiguration epoch: every
            // cross-shard send before and after the rewiring was delivered.
            assert_eq!(stats.async_messages, 40, "{mode}");
        }
    }

    #[test]
    fn refused_transaction_restores_the_partition_byte_identically() {
        let probe = CountProbe::default();
        let mut sys =
            Deployment::build_parallel(&fan_spec(), Mode::Soleil, &registry(&probe), None).unwrap();
        sys.run_ticks(10).unwrap();
        let digests = sys.structural_digests();
        let policy = sys.fault_policy("consumerC").unwrap();

        let err = sys
            .reconfigure(|txn| -> Result<(), FrameworkError> {
                txn.rebind_async("producer", "out1", "consumerC")?;
                txn.set_fault_policy("consumerC", FaultPolicy::Isolate)?;
                txn.attach_contract(
                    "consumerB",
                    TimingContract::new().with_max_jitter(RelativeTime::from_millis(500)),
                )?;
                Err(FrameworkError::Content(
                    "operator changed their mind".into(),
                ))
            })
            .unwrap_err();
        assert_eq!(
            err.to_string(),
            "content error: operator changed their mind"
        );

        assert_eq!(
            sys.structural_digests(),
            digests,
            "rollback restores every shard engine byte-identically"
        );
        assert_eq!(sys.fault_policy("consumerC").unwrap(), policy);
        assert_eq!(sys.contract_of("consumerB").unwrap(), None);

        // The restored topology still routes out1 to consumerB.
        sys.run_ticks(10).unwrap();
        assert_eq!(probe.count("consumerB"), 20);
        assert_eq!(probe.count("consumerC"), 20);
        assert_eq!(sys.stats().dropped_messages, 0);
    }

    #[test]
    fn sync_rebind_across_the_partition_is_refused() {
        let mut spec = fan_spec();
        spec.bindings[0].protocol = ProtocolSpec::Sync;
        spec.bindings[0].server_port = "in".into();
        let probe = CountProbe::default();
        let mut sys =
            Deployment::build_parallel(&spec, Mode::MergeAll, &registry(&probe), None).unwrap();
        let digests = sys.structural_digests();
        let err = sys
            .reconfigure(|txn| txn.rebind("producer", "out1", "consumerC"))
            .unwrap_err();
        assert!(
            err.to_string()
                .contains("synchronous rebind cannot cross the domain partition"),
            "{err}"
        );
        assert!(err.to_string().contains("use rebind_async"), "{err}");
        assert_eq!(sys.structural_digests(), digests);
    }

    #[test]
    fn reassign_domain_across_the_partition_is_refused() {
        let probe = CountProbe::default();
        let mut sys =
            Deployment::build_parallel(&fan_spec(), Mode::MergeAll, &registry(&probe), None)
                .unwrap();
        let err = sys
            .reconfigure(|txn| txn.reassign_domain("consumerB", "C"))
            .unwrap_err();
        assert!(
            err.to_string()
                .contains("components never migrate across the static domain partition"),
            "{err}"
        );
    }

    /// Satellite: exact SOL-016…SOL-022 verdicts on a sharded deployment
    /// whose contracts and supervision policies were swapped through a
    /// live parallel reconfiguration transaction.
    #[test]
    fn health_verdicts_are_exact_after_a_live_policy_swap() {
        let probe = CountProbe::default();
        let mut sys =
            Deployment::build_parallel(&fan_spec(), Mode::MergeAll, &registry(&probe), None)
                .unwrap();
        sys.run_ticks(5).unwrap();
        assert!(sys.health_report().is_compliant());

        // The live swap: an impossible deadline and an unreachable
        // throughput floor on the producer (next to generous jitter and
        // quantile bounds that stay satisfied), isolation for consumerB,
        // a zero-budget restart policy for consumerC.
        sys.reconfigure(|txn| {
            txn.attach_contract(
                "producer",
                TimingContract::new()
                    .with_deadline(RelativeTime::from_nanos(0))
                    .with_min_throughput_hz(u32::MAX)
                    .with_max_jitter(RelativeTime::from_millis(500))
                    .with_quantile_bound(99, RelativeTime::from_millis(500)),
            )?;
            txn.set_fault_policy("consumerB", FaultPolicy::Isolate)?;
            txn.set_fault_policy(
                "consumerC",
                FaultPolicy::Restart {
                    max_restarts: 0,
                    window: RelativeTime::from_millis(3_600_000),
                    backoff: RelativeTime::from_millis(50),
                },
            )
        })
        .unwrap();

        sys.install_fault_injector(
            "consumerB",
            FaultInjector::new("consumerB", 7, 1).with_menu(FaultInjector::MENU_PANIC),
        )
        .unwrap();
        let runs = sys.run_ticks(10).unwrap();
        assert_eq!(runs.len(), 3, "isolation keeps every shard ticking");

        // contract_report: exactly the two contracted bounds that cannot
        // hold, nothing else.
        let contracts = sys.contract_report();
        assert!(!contracts.is_compliant());
        assert_eq!(contracts.by_code("SOL-016").count(), 1, "{contracts}");
        assert!(contracts
            .by_code("SOL-016")
            .all(|d| d.subject == "producer"));
        assert_eq!(contracts.by_code("SOL-017").count(), 0, "{contracts}");
        assert_eq!(contracts.by_code("SOL-018").count(), 1, "{contracts}");
        assert!(contracts
            .by_code("SOL-018")
            .all(|d| d.subject == "producer"));
        assert_eq!(contracts.by_code("SOL-019").count(), 0, "{contracts}");

        // health_report: the contract verdicts plus the quarantine
        // findings — and no exhausted budget yet.
        let report = sys.health_report();
        assert_eq!(report.by_code("SOL-020").count(), 1, "{report}");
        assert!(report.by_code("SOL-020").all(|d| d.subject == "consumerB"));
        assert_eq!(report.by_code("SOL-021").count(), 0, "{report}");
        assert_eq!(report.by_code("SOL-022").count(), 1, "{report}");

        // Exhaust consumerC's zero-restart budget: the fault escalates
        // out of its shard and SOL-021 joins the report.
        sys.install_fault_injector(
            "consumerC",
            FaultInjector::new("consumerC", 11, 1).with_menu(FaultInjector::MENU_ERROR),
        )
        .unwrap();
        let err = sys.run_ticks(10).unwrap_err();
        assert!(
            matches!(
                &err,
                FrameworkError::Faulted { component, kind: FaultKind::Error, .. }
                    if component == "consumerC"
            ),
            "{err}"
        );
        let report = sys.health_report();
        assert_eq!(report.by_code("SOL-021").count(), 1, "{report}");
        assert!(report.by_code("SOL-021").all(|d| d.subject == "consumerC"));
        assert!(report.by_code("SOL-020").any(|d| d.subject == "consumerC"));
    }

    /// `fan_spec` with per-domain immortal areas and a (never exercised)
    /// synchronous binding consumerB.peer → consumerC.in, which couples
    /// domains B and C into one shard — the playground for same-shard
    /// domain re-assignment with region re-homing.
    fn coupled_spec() -> SystemSpec {
        let mut spec = fan_spec();
        spec.areas.push(AreaSpec {
            name: "ImmB".into(),
            kind: MemoryKind::Immortal,
            size: Some(256 * 1024),
            parent: None,
        });
        spec.areas.push(AreaSpec {
            name: "ImmC".into(),
            kind: MemoryKind::Immortal,
            size: Some(256 * 1024),
            parent: None,
        });
        spec.components[1].area = 1;
        spec.components[2].area = 2;
        spec.bindings.push(BindingSpec {
            client: 1,
            client_port: "peer".into(),
            server: 2,
            server_port: "in".into(),
            protocol: ProtocolSpec::Sync,
        });
        spec
    }

    /// The architectural model matching [`coupled_spec`], name for name —
    /// each consumer's memory area contains its thread *domain*, so moving
    /// the domain edge re-homes the component's allocation region.
    fn coupled_arch() -> Architecture {
        let mut bv = soleil_core::views::BusinessView::new("fan");
        bv.active_periodic("producer", "10ms").unwrap();
        bv.active_sporadic("consumerB").unwrap();
        bv.active_sporadic("consumerC").unwrap();
        bv.content("producer", "Fan2").unwrap();
        bv.content("consumerB", "RecB").unwrap();
        bv.content("consumerC", "RecC").unwrap();
        bv.require("producer", "out1", "I").unwrap();
        bv.require("producer", "out2", "I").unwrap();
        bv.require("consumerB", "peer", "I").unwrap();
        bv.provide("consumerB", "in", "I").unwrap();
        bv.provide("consumerC", "in", "I").unwrap();
        bv.bind_async("producer", "out1", "consumerB", "in", 64)
            .unwrap();
        bv.bind_async("producer", "out2", "consumerC", "in", 64)
            .unwrap();
        bv.bind_sync("consumerB", "peer", "consumerC", "in")
            .unwrap();
        let mut flow = soleil_core::views::DesignFlow::new(bv);
        flow.thread_domain("A", ThreadKind::NoHeapRealtime, 30, &["producer"])
            .unwrap();
        flow.thread_domain("B", ThreadKind::NoHeapRealtime, 25, &["consumerB"])
            .unwrap();
        flow.thread_domain("C", ThreadKind::Realtime, 20, &["consumerC"])
            .unwrap();
        flow.memory_area("Imm1", MemoryKind::Immortal, Some(256 * 1024), &["A"])
            .unwrap();
        flow.memory_area("ImmB", MemoryKind::Immortal, Some(256 * 1024), &["B"])
            .unwrap();
        flow.memory_area("ImmC", MemoryKind::Immortal, Some(256 * 1024), &["C"])
            .unwrap();
        flow.merge()
            .unwrap()
            .into_validated()
            .unwrap()
            .architecture()
            .clone()
    }

    /// Acceptance: a live arch-carrying partition, under traffic, commits
    /// one transaction combining a cross-ring rebind, a domain
    /// re-assignment that re-homes the allocation region, a policy swap
    /// and a jitter-bounded contract — with exact message conservation
    /// through the quiescence epoch and allocation-free steady-state ticks
    /// afterwards.
    #[test]
    fn committed_transaction_combines_rewiring_rehoming_and_policy() {
        for mode in [Mode::Soleil, Mode::MergeAll] {
            let probe = CountProbe::default();
            let mut sys = Deployment::build_parallel(
                &coupled_spec(),
                mode,
                &registry(&probe),
                Some(coupled_arch()),
            )
            .unwrap();
            assert_eq!(
                sys.shard_count(),
                2,
                "{mode}: the sync peer couples B and C"
            );
            sys.run_ticks(10).unwrap();

            sys.reconfigure(|txn| {
                txn.rebind_async("producer", "out1", "consumerC")?;
                txn.reassign_domain("consumerB", "C")?;
                txn.set_fault_policy("consumerC", FaultPolicy::Isolate)?;
                txn.attach_contract(
                    "consumerB",
                    TimingContract::new().with_max_jitter(RelativeTime::from_millis(500)),
                )
            })
            .unwrap();

            sys.run_ticks(10).unwrap();
            assert_eq!(probe.count("consumerB"), 10, "{mode}");
            assert_eq!(probe.count("consumerC"), 30, "{mode}");
            assert_eq!(
                sys.fault_policy("consumerC").unwrap(),
                FaultPolicy::Isolate,
                "{mode}"
            );
            assert!(sys.contract_of("consumerB").unwrap().is_some(), "{mode}");
            let stats = sys.stats();
            assert_eq!(stats.dropped_messages, 0, "{mode}");
            assert_eq!(stats.async_messages, 40, "{mode}: exact conservation");

            // The committed partition still ticks allocation-free.
            let runs = sys.run_ticks_instrumented(5, 20, &|| 0).unwrap();
            for r in &runs {
                assert_eq!(
                    r.substrate_allocs, 0,
                    "{mode}/{}: reconfigured steady state must not allocate",
                    r.label
                );
            }
        }
    }

    /// The same combined transaction, refused at the last step: every
    /// shard — including the re-homed region and the rewired rings — is
    /// restored byte-identically, witnessed by the structural digests and
    /// by traffic flowing exactly as before.
    #[test]
    fn refused_combined_transaction_rolls_back_rehoming_and_rewiring() {
        let probe = CountProbe::default();
        let mut sys = Deployment::build_parallel(
            &coupled_spec(),
            Mode::MergeAll,
            &registry(&probe),
            Some(coupled_arch()),
        )
        .unwrap();
        sys.run_ticks(10).unwrap();
        let digests = sys.structural_digests();

        let err = sys
            .reconfigure(|txn| -> Result<(), FrameworkError> {
                txn.rebind_async("producer", "out1", "consumerC")?;
                txn.reassign_domain("consumerB", "C")?;
                txn.set_fault_policy("consumerC", FaultPolicy::Isolate)?;
                Err(FrameworkError::Content(
                    "operator changed their mind".into(),
                ))
            })
            .unwrap_err();
        assert_eq!(
            err.to_string(),
            "content error: operator changed their mind"
        );
        assert_eq!(
            sys.structural_digests(),
            digests,
            "rollback restores the re-homed region and the ring topology"
        );

        sys.run_ticks(10).unwrap();
        assert_eq!(probe.count("consumerB"), 20);
        assert_eq!(probe.count("consumerC"), 20);
        assert_eq!(sys.stats().dropped_messages, 0);
    }

    /// The digests witness ring seats: a ring re-seated on the wrong
    /// consumer — what a rollback that restored the rows but not the seat
    /// would leave — changes its shard's digest, in the drain set and in
    /// the pool, though every engine row is untouched.
    #[test]
    fn a_mis_seated_ring_changes_its_shards_digest() {
        let probe = CountProbe::default();
        let mut sys = Deployment::build_parallel(
            &coupled_spec(),
            Mode::MergeAll,
            &registry(&probe),
            Some(coupled_arch()),
        )
        .unwrap();
        let (a, bc) = (
            sys.shard_of_component("producer").unwrap(),
            sys.shard_of_component("consumerB").unwrap(),
        );
        assert_eq!(sys.shard_of_component("consumerC"), Some(bc));
        let slot_in = |shard: &Shard<u64>, global: usize| {
            shard.globals.iter().position(|&g| g == global).unwrap()
        };

        // Seat the producer→consumerB ring on consumerC instead.
        let digests = sys.structural_digests();
        let shard = sys.shard_mut(bc);
        let (b_slot, c_slot) = (slot_in(shard, 1), slot_in(shard, 2));
        let ring = shard
            .incoming
            .iter_mut()
            .find(|r| r.slot == b_slot)
            .unwrap();
        ring.slot = c_slot;
        assert_ne!(sys.structural_digests(), digests, "a drain seat moved");
        sys.run_ticks(10).unwrap();
        assert_eq!(
            (probe.count("consumerB"), probe.count("consumerC")),
            (0, 20),
            "the mis-seated ring feeds the wrong consumer"
        );

        // A rewire retires the ring into the producer shard's pool, seat
        // and all: moving the pooled ring's seat shows too.
        sys.reconfigure(|txn| txn.rebind_async("producer", "out1", "consumerC"))
            .unwrap();
        let digests = sys.structural_digests();
        let pooled = &mut sys.shard_mut(a).pool[0].ring;
        pooled.slot = if pooled.slot == b_slot {
            c_slot
        } else {
            b_slot
        };
        assert_ne!(sys.structural_digests(), digests, "a pooled seat moved");
    }
}
