//! Region-based memory: heap, immortal and scoped areas with RTSJ semantics.
//!
//! RTSJ memory management revolves around three region kinds:
//!
//! * **HeapMemory** — garbage collected, unbounded here, forbidden to
//!   `NoHeapRealtimeThread`s.
//! * **ImmortalMemory** — never reclaimed; allocation is permanent.
//! * **ScopedMemory** — reference-counted regions reclaimed *in bulk* when
//!   the last thread exits; governed by the *single parent rule* and the
//!   *assignment rules*.
//!
//! The simulator stores every allocated object in a **typed slab** owned by
//! its area — one slab per payload type, its slots provisioned when the
//! area is first charged and reused through a free list — and hands out
//! generation-tagged [`Handle`]s. Storing an object is a slot write, not a
//! per-object heap allocation, so a steady-state loop that allocates and
//! frees through the substrate touches the Rust heap only while a slab
//! grows; [`MemoryManager::reserve_slots`] moves even that growth to
//! initialization time and [`MemoryManager::alloc_count`] makes the
//! "allocation happens at init only" property checkable. All RTSJ dynamic
//! checks are enforced:
//!
//! * the **assignment rule** — an object in area `X` may reference an object
//!   in area `Y` only if `Y`'s lifetime encloses `X`'s
//!   ([`MemoryManager::check_assignment`]);
//! * the **single parent rule** — a scope's parent is fixed while it is in
//!   use ([`MemoryManager::enter`]);
//! * **heap isolation** — any access by a `NoHeapRealtimeThread` to heap
//!   data raises [`RtsjError::MemoryAccess`].
//!
//! Reclamation bumps the area's generation, so any handle that illegally
//! outlives its scope is detected as [`RtsjError::StaleHandle`].
//! [`MemoryManager::check_live`] runs the access and staleness checks
//! without dereferencing, for owners that keep their payload outside the
//! slab and hold an allocation in the area as its lifetime token.

use std::any::{Any, TypeId};
use std::collections::HashMap;
use std::fmt;
use std::marker::PhantomData;

use crate::error::RtsjError;
use crate::thread::ThreadKind;
use crate::Result;

/// Per-object bookkeeping overhead charged to the owning area, mimicking a
/// JVM object header.
pub const OBJECT_HEADER_BYTES: usize = 16;

/// Identifies a memory area within a [`MemoryManager`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AreaId(u32);

impl AreaId {
    /// The singleton heap area.
    pub const HEAP: AreaId = AreaId(0);
    /// The singleton immortal area.
    pub const IMMORTAL: AreaId = AreaId(1);
    /// The *primordial scope*: the conceptual parent of every top-level
    /// scoped area (RTSJ's parent for scopes with no scoped ancestor).
    /// Not a real area — it cannot be entered or allocated into.
    pub const PRIMORDIAL: AreaId = AreaId(u32::MAX);

    /// Builds an id from its raw index (test/diagnostic use).
    pub const fn from_raw(raw: u32) -> AreaId {
        AreaId(raw)
    }

    /// The raw index.
    pub const fn as_raw(self) -> u32 {
        self.0
    }
}

impl fmt::Display for AreaId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            AreaId::HEAP => f.write_str("heap"),
            AreaId::IMMORTAL => f.write_str("immortal"),
            AreaId::PRIMORDIAL => f.write_str("primordial"),
            AreaId(n) => write!(f, "scope#{n}"),
        }
    }
}

/// The three RTSJ memory-region kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemoryKind {
    /// Garbage-collected heap.
    Heap,
    /// Immortal memory: allocations live until system shutdown.
    Immortal,
    /// Scoped memory: reclaimed in bulk on last exit.
    Scoped,
}

impl MemoryKind {
    /// Short identifier used by the ADL (`heap`, `immortal`, `scope`).
    pub const fn code(self) -> &'static str {
        match self {
            MemoryKind::Heap => "heap",
            MemoryKind::Immortal => "immortal",
            MemoryKind::Scoped => "scope",
        }
    }

    /// Parses the ADL identifier produced by [`MemoryKind::code`].
    pub fn parse(s: &str) -> Option<MemoryKind> {
        match s.to_ascii_lowercase().as_str() {
            "heap" => Some(MemoryKind::Heap),
            "immortal" => Some(MemoryKind::Immortal),
            "scope" | "scoped" | "scopedmemory" => Some(MemoryKind::Scoped),
            _ => None,
        }
    }
}

impl fmt::Display for MemoryKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.code())
    }
}

/// An untyped, generation-tagged reference to an object in some area.
///
/// Besides area/slot/generation, a handle records the index of the typed
/// slab it points into: slots are per-type, so the slab is part of the
/// address. Dereferencing is pure indexing — the `TypeId` map is only
/// consulted when a slab is first created — and re-typing a handle
/// (`Handle::from_raw`) is caught at dereference time by the slab's
/// type-checked downcast.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RawHandle {
    area: AreaId,
    slot: u32,
    generation: u32,
    slab: u16,
}

impl RawHandle {
    /// The area the handle points into.
    pub fn area(self) -> AreaId {
        self.area
    }
}

/// A typed, generation-tagged reference to a `T` stored in some area.
///
/// Handles are plain data (`Copy`); dereferencing goes through
/// [`MemoryManager::get`] / [`MemoryManager::get_mut`], which is where the
/// RTSJ access checks happen.
pub struct Handle<T> {
    raw: RawHandle,
    _marker: PhantomData<fn() -> T>,
}

impl<T> Handle<T> {
    fn new(raw: RawHandle) -> Self {
        Handle {
            raw,
            _marker: PhantomData,
        }
    }

    /// The untyped form of this handle.
    pub fn raw(self) -> RawHandle {
        self.raw
    }

    /// The area the handle points into.
    pub fn area(self) -> AreaId {
        self.raw.area
    }

    /// Re-types an untyped handle. Dereferencing fails with
    /// [`RtsjError::IllegalState`] if the stored value is not a `T`.
    pub fn from_raw(raw: RawHandle) -> Self {
        Handle::new(raw)
    }
}

impl<T> Clone for Handle<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for Handle<T> {}

impl<T> fmt::Debug for Handle<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Handle<{}>({}, slot {}, gen {})",
            std::any::type_name::<T>(),
            self.raw.area,
            self.raw.slot,
            self.raw.generation
        )
    }
}

impl<T> PartialEq for Handle<T> {
    fn eq(&self, other: &Self) -> bool {
        self.raw == other.raw
    }
}
impl<T> Eq for Handle<T> {}

/// Construction parameters for a scoped memory area.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScopedMemoryParams {
    /// Diagnostic name (the ADL's `name` attribute).
    pub name: String,
    /// Size budget in bytes (the ADL's `size` attribute).
    pub size: usize,
}

impl ScopedMemoryParams {
    /// Creates parameters for a scope called `name` with a `size`-byte budget.
    pub fn new(name: impl Into<String>, size: usize) -> Self {
        ScopedMemoryParams {
            name: name.into(),
            size,
        }
    }
}

/// Marker object for opaque byte-block allocations made with
/// [`MemoryManager::alloc_raw`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RawAllocation {
    /// Payload bytes charged (excluding the object header).
    pub bytes: usize,
}

/// One typed slab: slot storage for every object of type `T` in an area.
///
/// Slots are reused through a free list, so an alloc/free cycle in steady
/// state performs no Rust-heap allocation; the backing vectors only grow
/// when the live population exceeds everything seen before (and
/// [`MemoryManager::reserve_slots`] moves that growth to init time).
struct TypedSlab<T> {
    slots: Vec<Option<T>>,
    /// Bytes charged per slot (uniform for `alloc`, per-call for
    /// `alloc_raw` backing stores).
    charged: Vec<usize>,
    free: Vec<u32>,
}

impl<T> TypedSlab<T> {
    fn new() -> Self {
        TypedSlab {
            slots: Vec::new(),
            charged: Vec::new(),
            free: Vec::new(),
        }
    }

    fn insert(&mut self, value: T, bytes: usize) -> u32 {
        match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = Some(value);
                self.charged[slot as usize] = bytes;
                slot
            }
            None => {
                self.slots.push(Some(value));
                self.charged.push(bytes);
                (self.slots.len() - 1) as u32
            }
        }
    }
}

/// Type-erased slab surface: the per-area bookkeeping that does not need
/// the payload type (bulk reclaim, live counts, individual frees).
///
/// `Send` is a supertrait so the whole [`MemoryManager`] is `Send`: the
/// parallel runtime moves one manager per thread-domain shard onto its own
/// OS thread, and the per-area slab ownership is exactly the sharding
/// boundary. The payload bound this induces (`T: Send` on allocation) is
/// the substrate half of the framework-wide `Send` payload requirement.
trait AnySlab: Any + Send {
    fn as_any(&self) -> &dyn Any;
    fn as_any_mut(&mut self) -> &mut dyn Any;
    /// Drops every live value and resets the free list, keeping the slot
    /// capacity so a reclaimed scope can refill without reallocating.
    fn clear(&mut self);
    fn live(&self) -> usize;
    /// Frees one slot, returning the bytes it charged (None when the slot
    /// is already vacant or out of range).
    fn free_slot(&mut self, slot: u32) -> Option<usize>;
}

impl<T: Any + Send> AnySlab for TypedSlab<T> {
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
    fn clear(&mut self) {
        self.slots.clear();
        self.charged.clear();
        self.free.clear();
    }
    fn live(&self) -> usize {
        self.slots.iter().filter(|s| s.is_some()).count()
    }
    fn free_slot(&mut self, slot: u32) -> Option<usize> {
        let taken = self.slots.get_mut(slot as usize)?.take()?;
        drop(taken);
        self.free.push(slot);
        Some(self.charged[slot as usize])
    }
}

/// `TypeId` is already a high-quality hash; feed it through unchanged
/// instead of re-hashing with SipHash — the type map sits on the
/// allocation path.
#[derive(Default)]
struct TypeIdHasher(u64);

impl std::hash::Hasher for TypeIdHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        // TypeId hashes via the integer methods on current rustc; fold
        // bytes defensively in case that ever changes.
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(b);
        }
    }
    fn write_u64(&mut self, n: u64) {
        self.0 ^= n;
    }
    fn write_u128(&mut self, n: u128) {
        self.0 ^= (n as u64) ^ ((n >> 64) as u64);
    }
}

type TypeIdMap<V> = HashMap<TypeId, V, std::hash::BuildHasherDefault<TypeIdHasher>>;

/// The per-area slab collection: dense storage indexed by the handle's
/// slab id (the hot, per-deref path) plus a `TypeId` map consulted per
/// allocation (trivially hashed) and extended only when allocation meets a
/// type for the first time.
#[derive(Default)]
struct SlabSet {
    slabs: Vec<Box<dyn AnySlab>>,
    by_type: TypeIdMap<u16>,
}

impl SlabSet {
    /// Hot path: the typed slab behind a handle's slab index. `None` for a
    /// foreign index; a type-mismatched (re-typed) handle fails the
    /// downcast and is reported by the caller.
    fn typed<T: Any>(&self, slab: u16) -> Option<&TypedSlab<T>> {
        self.slabs
            .get(slab as usize)
            .and_then(|s| s.as_any().downcast_ref::<TypedSlab<T>>())
    }

    fn typed_mut<T: Any>(&mut self, slab: u16) -> Option<&mut TypedSlab<T>> {
        self.slabs
            .get_mut(slab as usize)
            .and_then(|s| s.as_any_mut().downcast_mut::<TypedSlab<T>>())
    }

    /// Cold path: the slab index for `T`, creating the slab on first use.
    fn index_for<T: Any + Send>(&mut self) -> u16 {
        match self.by_type.get(&TypeId::of::<T>()) {
            Some(&ix) => ix,
            None => {
                let ix = u16::try_from(self.slabs.len())
                    .expect("an area holds at most 65536 distinct payload types");
                self.slabs.push(Box::new(TypedSlab::<T>::new()));
                self.by_type.insert(TypeId::of::<T>(), ix);
                ix
            }
        }
    }

    fn get_or_create<T: Any + Send>(&mut self) -> (u16, &mut TypedSlab<T>) {
        let ix = self.index_for::<T>();
        let slab = self
            .typed_mut::<T>(ix)
            .expect("slab registered under its own type");
        (ix, slab)
    }

    fn clear(&mut self) {
        for slab in &mut self.slabs {
            slab.clear();
        }
    }

    fn live(&self) -> usize {
        self.slabs.iter().map(|s| s.live()).sum()
    }
}

impl fmt::Debug for SlabSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SlabSet")
            .field("types", &self.slabs.len())
            .field("live", &self.live())
            .finish()
    }
}

#[derive(Debug)]
struct Area {
    name: String,
    kind: MemoryKind,
    size_limit: Option<usize>,
    consumed: usize,
    high_watermark: usize,
    slabs: SlabSet,
    generation: u32,
    // Scoped-area state:
    parent: Option<AreaId>,
    enter_count: u32,
    portal: Option<RawHandle>,
    reclaim_count: u64,
    total_allocs: u64,
}

impl Area {
    /// Bytes still chargeable. An unbounded area can still never charge
    /// past `usize::MAX` in total, so `consumed + remaining` cannot wrap.
    fn remaining(&self) -> usize {
        match self.size_limit {
            Some(limit) => limit.saturating_sub(self.consumed),
            None => usize::MAX - self.consumed,
        }
    }
}

/// A thread's memory view: its kind, scope stack and allocation context.
///
/// Mirrors the per-thread state RTSJ maintains: the stack of entered scopes
/// plus the *current allocation context* (the top of the stack, or the
/// thread's default area when the stack is empty, or a temporary override
/// installed by `executeInArea`).
#[derive(Debug, Clone)]
pub struct MemoryContext {
    kind: ThreadKind,
    default_area: AreaId,
    scope_stack: Vec<AreaId>,
    alloc_override: Vec<AreaId>,
}

impl MemoryContext {
    /// The thread kind this context simulates.
    pub fn thread_kind(&self) -> ThreadKind {
        self.kind
    }

    /// The current allocation context: override > innermost scope > default.
    pub fn allocation_area(&self) -> AreaId {
        if let Some(&a) = self.alloc_override.last() {
            return a;
        }
        self.scope_stack
            .last()
            .copied()
            .unwrap_or(self.default_area)
    }

    /// The stack of entered scopes, outermost first.
    pub fn scope_stack(&self) -> &[AreaId] {
        &self.scope_stack
    }

    /// Depth of the scope stack.
    pub fn depth(&self) -> usize {
        self.scope_stack.len()
    }
}

/// Footprint snapshot for a single area (used by the Fig. 7(c) experiment).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AreaStats {
    /// Area identity.
    pub id: AreaId,
    /// Diagnostic name.
    pub name: String,
    /// Region kind.
    pub kind: MemoryKind,
    /// Bytes currently consumed.
    pub consumed: usize,
    /// Highest consumption ever observed.
    pub high_watermark: usize,
    /// Configured budget, if bounded.
    pub size_limit: Option<usize>,
    /// Live object count.
    pub live_objects: usize,
    /// Number of bulk reclamations (scoped areas only).
    pub reclaim_count: u64,
    /// Total allocations ever performed in the area.
    pub total_allocs: u64,
}

/// The region-memory substrate: owns every area and enforces RTSJ rules.
///
/// All operations take an explicit [`MemoryContext`] standing for "the
/// current thread", which keeps the simulator deterministic and lets the
/// scheduler interleave threads however the experiment requires.
#[derive(Debug)]
pub struct MemoryManager {
    areas: Vec<Area>,
    names: HashMap<String, AreaId>,
}

impl MemoryManager {
    /// Creates a manager with the two primordial areas: a heap with a soft
    /// budget of `heap_size` bytes (`0` = unbounded) and an immortal area of
    /// `immortal_size` bytes.
    pub fn new(heap_size: usize, immortal_size: usize) -> Self {
        let heap = Area {
            name: "heap".to_string(),
            kind: MemoryKind::Heap,
            size_limit: if heap_size == 0 {
                None
            } else {
                Some(heap_size)
            },
            ..Self::blank_area(MemoryKind::Heap)
        };
        let immortal = Area {
            name: "immortal".to_string(),
            kind: MemoryKind::Immortal,
            size_limit: Some(immortal_size),
            ..Self::blank_area(MemoryKind::Immortal)
        };
        let mut names = HashMap::new();
        names.insert("heap".to_string(), AreaId::HEAP);
        names.insert("immortal".to_string(), AreaId::IMMORTAL);
        MemoryManager {
            areas: vec![heap, immortal],
            names,
        }
    }

    fn blank_area(kind: MemoryKind) -> Area {
        Area {
            name: String::new(),
            kind,
            size_limit: None,
            consumed: 0,
            high_watermark: 0,
            slabs: SlabSet::default(),
            generation: 0,
            parent: None,
            enter_count: 0,
            portal: None,
            reclaim_count: 0,
            total_allocs: 0,
        }
    }

    /// Creates a scoped memory area.
    ///
    /// # Errors
    ///
    /// Returns [`RtsjError::IllegalState`] if an area with the same name
    /// already exists.
    pub fn create_scoped(&mut self, params: ScopedMemoryParams) -> Result<AreaId> {
        if self.names.contains_key(&params.name) {
            return Err(RtsjError::IllegalState(format!(
                "memory area '{}' already exists",
                params.name
            )));
        }
        let id = AreaId(self.areas.len() as u32);
        let mut area = Self::blank_area(MemoryKind::Scoped);
        area.name = params.name.clone();
        area.size_limit = Some(params.size);
        self.areas.push(area);
        self.names.insert(params.name, id);
        Ok(id)
    }

    /// Creates a fresh memory context for a simulated thread of `kind`.
    ///
    /// NHRT contexts default to allocating in immortal memory (they must
    /// never touch the heap); all other kinds default to the heap.
    pub fn context(&self, kind: ThreadKind) -> MemoryContext {
        let default_area = if kind.may_access_heap() {
            AreaId::HEAP
        } else {
            AreaId::IMMORTAL
        };
        MemoryContext {
            kind,
            default_area,
            scope_stack: Vec::new(),
            alloc_override: Vec::new(),
        }
    }

    /// Looks up an area by name.
    pub fn area_by_name(&self, name: &str) -> Option<AreaId> {
        self.names.get(name).copied()
    }

    /// The kind of `area`.
    ///
    /// # Errors
    ///
    /// Returns [`RtsjError::IllegalState`] for an unknown id.
    pub fn kind_of(&self, area: AreaId) -> Result<MemoryKind> {
        Ok(self.area(area)?.kind)
    }

    /// The current *scoped* parent of a scoped area, if it is in use.
    /// Returns `None` both for unoccupied scopes and for occupied top-level
    /// scopes (whose parent is the primordial scope).
    pub fn parent_of(&self, area: AreaId) -> Result<Option<AreaId>> {
        Ok(self.area(area)?.parent.filter(|&p| p != AreaId::PRIMORDIAL))
    }

    /// Number of threads currently inside `area`.
    pub fn enter_count(&self, area: AreaId) -> Result<u32> {
        Ok(self.area(area)?.enter_count)
    }

    fn area(&self, id: AreaId) -> Result<&Area> {
        self.areas
            .get(id.0 as usize)
            .ok_or_else(|| RtsjError::IllegalState(format!("unknown area {id}")))
    }

    fn area_mut(&mut self, id: AreaId) -> Result<&mut Area> {
        self.areas
            .get_mut(id.0 as usize)
            .ok_or_else(|| RtsjError::IllegalState(format!("unknown area {id}")))
    }

    // ---------------------------------------------------------------------
    // Scope stack management
    // ---------------------------------------------------------------------

    /// Enters a scoped area, pushing it on the context's scope stack.
    ///
    /// The first entry fixes the scope's parent to the innermost *scoped*
    /// area on the entering thread's stack (or the primordial parent when the
    /// stack holds none) — the **single parent rule**. Subsequent entries
    /// from stacks implying a different parent fail.
    ///
    /// # Errors
    ///
    /// * [`RtsjError::IllegalState`] if `area` is not scoped.
    /// * [`RtsjError::ScopedCycle`] on a single-parent-rule violation.
    pub fn enter(&mut self, ctx: &mut MemoryContext, area: AreaId) -> Result<()> {
        // The implied parent is the innermost scope on the entering stack;
        // a scope entered from an empty stack is parented by the primordial
        // scope (regardless of the thread's default allocation area).
        let implied_parent = ctx
            .scope_stack
            .last()
            .copied()
            .unwrap_or(AreaId::PRIMORDIAL);
        {
            let a = self.area(area)?;
            if a.kind != MemoryKind::Scoped {
                return Err(RtsjError::IllegalState(format!(
                    "cannot enter non-scoped area {area}"
                )));
            }
            if a.enter_count > 0 {
                let existing = a.parent.unwrap_or(AreaId::PRIMORDIAL);
                if existing != implied_parent {
                    return Err(RtsjError::ScopedCycle {
                        scope: area,
                        existing_parent: existing,
                        attempted_parent: implied_parent,
                    });
                }
            }
            if ctx.scope_stack.contains(&area) {
                return Err(RtsjError::ScopedCycle {
                    scope: area,
                    existing_parent: a.parent.unwrap_or(AreaId::PRIMORDIAL),
                    attempted_parent: implied_parent,
                });
            }
        }
        let a = self.area_mut(area)?;
        if a.enter_count == 0 {
            a.parent = Some(implied_parent);
        }
        a.enter_count += 1;
        ctx.scope_stack.push(area);
        Ok(())
    }

    /// Exits the innermost scope on the context's stack.
    ///
    /// When the last thread leaves, the scope is reclaimed: every object is
    /// dropped, consumption resets, the portal clears, the parent detaches
    /// and the generation advances (invalidating outstanding handles).
    ///
    /// # Errors
    ///
    /// Returns [`RtsjError::IllegalState`] when the stack is empty.
    pub fn exit(&mut self, ctx: &mut MemoryContext) -> Result<()> {
        let area = ctx
            .scope_stack
            .pop()
            .ok_or_else(|| RtsjError::IllegalState("exit with empty scope stack".into()))?;
        let a = self.area_mut(area)?;
        debug_assert!(a.enter_count > 0, "exit of never-entered scope");
        a.enter_count = a.enter_count.saturating_sub(1);
        if a.enter_count == 0 {
            // Bulk reclaim: values drop, slot capacity stays, so the next
            // occupancy refills the slabs without touching the Rust heap.
            a.slabs.clear();
            a.consumed = 0;
            a.portal = None;
            a.parent = None;
            a.generation = a.generation.wrapping_add(1);
            a.reclaim_count += 1;
        }
        Ok(())
    }

    /// Runs `f` inside `area`, entering before and exiting after — RTSJ's
    /// `MemoryArea.enter(Runnable)`.
    ///
    /// # Errors
    ///
    /// Propagates entry errors; exit errors cannot occur once entry
    /// succeeded.
    pub fn enter_with<R>(
        &mut self,
        ctx: &mut MemoryContext,
        area: AreaId,
        f: impl FnOnce(&mut Self, &mut MemoryContext) -> Result<R>,
    ) -> Result<R> {
        self.enter(ctx, area)?;
        let out = f(self, ctx);
        self.exit(ctx)
            .expect("scope stack invariant violated during enter_with");
        out
    }

    /// Runs `f` with the allocation context temporarily switched to `area`
    /// without entering it — RTSJ's `executeInArea`.
    ///
    /// The target must be the heap, immortal, or a scope already on the
    /// context's stack.
    ///
    /// # Errors
    ///
    /// * [`RtsjError::InaccessibleArea`] if a scoped target is not on the
    ///   stack.
    /// * [`RtsjError::MemoryAccess`] if an NHRT context targets the heap.
    pub fn execute_in_area<R>(
        &mut self,
        ctx: &mut MemoryContext,
        area: AreaId,
        f: impl FnOnce(&mut Self, &mut MemoryContext) -> Result<R>,
    ) -> Result<R> {
        self.begin_execute_in_area(ctx, area)?;
        let out = f(self, ctx);
        self.end_execute_in_area(ctx)
            .expect("override stack invariant violated during execute_in_area");
        out
    }

    /// Split-phase form of [`MemoryManager::execute_in_area`] for callers
    /// that cannot use a closure (e.g. interceptor pre/post chains):
    /// installs the allocation-context override after performing the same
    /// checks. Must be balanced by
    /// [`MemoryManager::end_execute_in_area`].
    ///
    /// # Errors
    ///
    /// Same as [`MemoryManager::execute_in_area`].
    pub fn begin_execute_in_area(&self, ctx: &mut MemoryContext, area: AreaId) -> Result<()> {
        let kind = self.kind_of(area)?;
        if kind == MemoryKind::Scoped && !ctx.scope_stack.contains(&area) {
            return Err(RtsjError::InaccessibleArea { area });
        }
        if kind == MemoryKind::Heap && !ctx.kind.may_access_heap() {
            return Err(RtsjError::MemoryAccess {
                thread: ctx.kind,
                area,
            });
        }
        ctx.alloc_override.push(area);
        Ok(())
    }

    /// Removes the innermost allocation-context override installed by
    /// [`MemoryManager::begin_execute_in_area`].
    ///
    /// # Errors
    ///
    /// [`RtsjError::IllegalState`] when no override is active.
    pub fn end_execute_in_area(&self, ctx: &mut MemoryContext) -> Result<()> {
        ctx.alloc_override
            .pop()
            .map(|_| ())
            .ok_or_else(|| RtsjError::IllegalState("no execute_in_area override active".into()))
    }

    // ---------------------------------------------------------------------
    // Allocation and access
    // ---------------------------------------------------------------------

    /// Bytes charged for storing a `T` (payload + header).
    pub fn bytes_for<T>() -> usize {
        std::mem::size_of::<T>().max(1) + OBJECT_HEADER_BYTES
    }

    /// Allocates `value` in `area` on behalf of `ctx`.
    ///
    /// # Errors
    ///
    /// * [`RtsjError::MemoryAccess`] — NHRT context allocating on the heap.
    /// * [`RtsjError::InaccessibleArea`] — scoped target not currently
    ///   entered by anyone.
    /// * [`RtsjError::OutOfMemory`] — area budget exhausted.
    pub fn alloc<T: Any + Send>(
        &mut self,
        ctx: &MemoryContext,
        area: AreaId,
        value: T,
    ) -> Result<Handle<T>> {
        self.check_access(ctx, area)?;
        let bytes = Self::bytes_for::<T>();
        let a = self.area_mut(area)?;
        if a.kind == MemoryKind::Scoped && a.enter_count == 0 {
            return Err(RtsjError::InaccessibleArea { area });
        }
        if bytes > a.remaining() {
            return Err(RtsjError::OutOfMemory {
                area,
                requested: bytes,
                remaining: a.remaining(),
            });
        }
        a.consumed += bytes;
        a.high_watermark = a.high_watermark.max(a.consumed);
        a.total_allocs += 1;
        let (slab, typed) = a.slabs.get_or_create::<T>();
        let slot = typed.insert(value, bytes);
        Ok(Handle::new(RawHandle {
            area,
            slot,
            generation: a.generation,
            slab,
        }))
    }

    /// Allocates `value` in the context's current allocation area.
    ///
    /// # Errors
    ///
    /// Same as [`MemoryManager::alloc`].
    pub fn alloc_current<T: Any + Send>(
        &mut self,
        ctx: &MemoryContext,
        value: T,
    ) -> Result<Handle<T>> {
        self.alloc(ctx, ctx.allocation_area(), value)
    }

    /// Pre-sizes the typed slab for `T` in `area` so that at least
    /// `additional` further allocations of `T` proceed without growing the
    /// slab's backing storage — the init-time provisioning hook buffers and
    /// component bootstrap use to keep the steady state off the Rust heap.
    ///
    /// Reservation is bookkeeping only: no area bytes are charged (backing
    /// stores are charged separately, e.g. via [`MemoryManager::alloc_raw`]).
    ///
    /// # Errors
    ///
    /// [`RtsjError::IllegalState`] for an unknown area.
    pub fn reserve_slots<T: Any + Send>(&mut self, area: AreaId, additional: usize) -> Result<()> {
        let a = self.area_mut(area)?;
        let (_, slab) = a.slabs.get_or_create::<T>();
        let spare = slab.free.len() + (slab.slots.capacity() - slab.slots.len());
        let grow = additional.saturating_sub(spare);
        slab.slots.reserve(grow);
        slab.charged.reserve(grow);
        // The free list must be able to index every slot that can ever
        // exist after this reservation: freeing the entire population in
        // steady state must not grow it either.
        let total = slab.slots.capacity();
        if slab.free.capacity() < total {
            slab.free.reserve(total - slab.free.len());
        }
        Ok(())
    }

    /// Total allocations ever performed across every area — the
    /// steady-state allocation counter. After bootstrap, a well-provisioned
    /// transaction loop keeps this constant: all memory was reserved at
    /// initialization and messages move by index, exactly the discipline
    /// the paper's evaluation claims.
    pub fn alloc_count(&self) -> u64 {
        self.areas.iter().map(|a| a.total_allocs).sum()
    }

    /// Allocates an opaque block of `bytes` bytes in `area` — used by the
    /// framework layers to charge backing stores (component state images,
    /// buffer storage) to the owning area so footprint reports are honest.
    ///
    /// The charge is checked arithmetic: a size computed from untrusted
    /// input may saturate at `usize::MAX`, and such a request is refused
    /// like any other over-budget one, even by an unbounded heap.
    ///
    /// # Errors
    ///
    /// Same as [`MemoryManager::alloc`].
    pub fn alloc_raw(
        &mut self,
        ctx: &MemoryContext,
        area: AreaId,
        bytes: usize,
    ) -> Result<Handle<RawAllocation>> {
        let charged = self.admit_raw(ctx, area, 1, bytes)?;
        let a = self.area_mut(area)?;
        a.consumed += charged;
        a.high_watermark = a.high_watermark.max(a.consumed);
        a.total_allocs += 1;
        let (slab, typed) = a.slabs.get_or_create::<RawAllocation>();
        let slot = typed.insert(RawAllocation { bytes }, charged);
        Ok(Handle::new(RawHandle {
            area,
            slot,
            generation: a.generation,
            slab,
        }))
    }

    /// The admission check of [`MemoryManager::alloc_raw`], for `blocks`
    /// opaque blocks holding `bytes` bytes in total: `ctx` may charge
    /// `area`, a scoped `area` is entered, and the blocks fit its budget
    /// with one [`OBJECT_HEADER_BYTES`] header each. Returns the bytes
    /// they would charge. It charges nothing and never allocates, so a
    /// caller can admit a batch of charges before making any of them, and
    /// the batch is then refused or charged as a whole.
    ///
    /// # Errors
    ///
    /// Same as [`MemoryManager::alloc`]; a total that overflows `usize`
    /// is refused as over budget.
    pub fn admit_raw(
        &self,
        ctx: &MemoryContext,
        area: AreaId,
        blocks: usize,
        bytes: usize,
    ) -> Result<usize> {
        self.check_access(ctx, area)?;
        let a = self.area(area)?;
        if a.kind == MemoryKind::Scoped && a.enter_count == 0 {
            return Err(RtsjError::InaccessibleArea { area });
        }
        let requested = blocks
            .checked_mul(OBJECT_HEADER_BYTES)
            .and_then(|headers| bytes.checked_add(headers));
        match requested {
            Some(charged) if charged <= a.remaining() => Ok(charged),
            _ => Err(RtsjError::OutOfMemory {
                area,
                requested: requested.unwrap_or(usize::MAX),
                remaining: a.remaining(),
            }),
        }
    }

    /// Immutable access to the object behind `handle`.
    ///
    /// # Errors
    ///
    /// * [`RtsjError::MemoryAccess`] — NHRT touching heap data.
    /// * [`RtsjError::StaleHandle`] — the scope was reclaimed.
    /// * [`RtsjError::IllegalState`] — type mismatch on a re-typed handle.
    pub fn get<T: Any>(&self, ctx: &MemoryContext, handle: Handle<T>) -> Result<&T> {
        self.check_access(ctx, handle.raw.area)?;
        let a = self.area(handle.raw.area)?;
        if a.generation != handle.raw.generation {
            return Err(RtsjError::StaleHandle {
                area: handle.raw.area,
            });
        }
        let slab = a.slabs.typed::<T>(handle.raw.slab).ok_or_else(|| {
            RtsjError::IllegalState(format!(
                "handle type mismatch: expected {}",
                std::any::type_name::<T>()
            ))
        })?;
        slab.slots
            .get(handle.raw.slot as usize)
            .and_then(|o| o.as_ref())
            .ok_or(RtsjError::StaleHandle {
                area: handle.raw.area,
            })
    }

    /// Mutable access to the object behind `handle`.
    ///
    /// # Errors
    ///
    /// Same as [`MemoryManager::get`].
    pub fn get_mut<T: Any>(&mut self, ctx: &MemoryContext, handle: Handle<T>) -> Result<&mut T> {
        self.check_access(ctx, handle.raw.area)?;
        let a = self.area_mut(handle.raw.area)?;
        if a.generation != handle.raw.generation {
            return Err(RtsjError::StaleHandle {
                area: handle.raw.area,
            });
        }
        let slab = a.slabs.typed_mut::<T>(handle.raw.slab).ok_or_else(|| {
            RtsjError::IllegalState(format!(
                "handle type mismatch: expected {}",
                std::any::type_name::<T>()
            ))
        })?;
        slab.slots
            .get_mut(handle.raw.slot as usize)
            .and_then(|o| o.as_mut())
            .ok_or(RtsjError::StaleHandle {
                area: handle.raw.area,
            })
    }

    /// Explicitly frees a heap object (stands in for the collector; scoped
    /// and immortal objects cannot be freed individually).
    ///
    /// # Errors
    ///
    /// [`RtsjError::IllegalState`] for non-heap handles,
    /// [`RtsjError::StaleHandle`] for already-freed slots.
    pub fn heap_free(&mut self, handle: RawHandle) -> Result<()> {
        if handle.area != AreaId::HEAP {
            return Err(RtsjError::IllegalState(format!(
                "heap_free on non-heap area {}",
                handle.area
            )));
        }
        let a = self.area_mut(AreaId::HEAP)?;
        let freed = a
            .slabs
            .slabs
            .get_mut(handle.slab as usize)
            .and_then(|slab| slab.free_slot(handle.slot));
        match freed {
            Some(bytes) => {
                a.consumed = a.consumed.saturating_sub(bytes);
                Ok(())
            }
            None => Err(RtsjError::StaleHandle { area: handle.area }),
        }
    }

    /// The access and staleness checks of [`MemoryManager::get`] without
    /// the dereference: `ctx` may touch `handle`'s area, and the area has
    /// not been reclaimed since `handle` was issued. For owners that keep
    /// their payload outside the slab and use an allocation in the area as
    /// its lifetime token — an exchange ring's slot table, for one — so
    /// each operation pays no slab lookup and no type check.
    ///
    /// The slot itself is not inspected: only [`MemoryManager::heap_free`]
    /// vacates a single slot, so a token its owner never frees stays live
    /// exactly as long as its area's generation.
    ///
    /// # Errors
    ///
    /// * [`RtsjError::MemoryAccess`] — NHRT touching heap data.
    /// * [`RtsjError::StaleHandle`] — the scope was reclaimed.
    /// * [`RtsjError::IllegalState`] — unknown area.
    pub fn check_live(&self, ctx: &MemoryContext, handle: RawHandle) -> Result<()> {
        self.check_access(ctx, handle.area)?;
        if self.area(handle.area)?.generation != handle.generation {
            return Err(RtsjError::StaleHandle { area: handle.area });
        }
        Ok(())
    }

    fn check_access(&self, ctx: &MemoryContext, area: AreaId) -> Result<()> {
        if area == AreaId::HEAP && !ctx.kind.may_access_heap() {
            return Err(RtsjError::MemoryAccess {
                thread: ctx.kind,
                area,
            });
        }
        Ok(())
    }

    // ---------------------------------------------------------------------
    // Assignment rules
    // ---------------------------------------------------------------------

    /// Checks the RTSJ assignment rule: may an object living in `holder`
    /// store a reference to an object living in `target`?
    ///
    /// Allowed exactly when `target`'s lifetime encloses `holder`'s:
    ///
    /// * `target` is heap or immortal → always allowed;
    /// * `target` is scoped → allowed only if `holder` is scoped and
    ///   `target` is `holder` itself or one of its ancestors on the current
    ///   parent chain.
    ///
    /// # Errors
    ///
    /// [`RtsjError::IllegalAssignment`] when the rule forbids the store.
    pub fn check_assignment(&self, holder: AreaId, target: AreaId) -> Result<()> {
        let target_kind = self.kind_of(target)?;
        if matches!(target_kind, MemoryKind::Heap | MemoryKind::Immortal) {
            return Ok(());
        }
        // Target is scoped: holder must be scoped and target an
        // ancestor-or-self of holder.
        if self.kind_of(holder)? != MemoryKind::Scoped {
            return Err(RtsjError::IllegalAssignment { holder, target });
        }
        let mut cursor = Some(holder);
        while let Some(c) = cursor {
            if c == target {
                return Ok(());
            }
            cursor = match self.area(c)?.parent {
                Some(p) if p != AreaId::PRIMORDIAL && self.kind_of(p)? == MemoryKind::Scoped => {
                    Some(p)
                }
                _ => None,
            };
        }
        Err(RtsjError::IllegalAssignment { holder, target })
    }

    // ---------------------------------------------------------------------
    // Portals
    // ---------------------------------------------------------------------

    /// Installs `handle` as the portal of scope `area`.
    ///
    /// RTSJ requires the portal object to be allocated in that same scope.
    ///
    /// # Errors
    ///
    /// * [`RtsjError::IllegalState`] — `area` is not scoped.
    /// * [`RtsjError::IllegalAssignment`] — the object lives elsewhere.
    /// * [`RtsjError::InaccessibleArea`] — the scope is not in use.
    pub fn set_portal(&mut self, area: AreaId, handle: RawHandle) -> Result<()> {
        if self.kind_of(area)? != MemoryKind::Scoped {
            return Err(RtsjError::IllegalState(format!(
                "portal on non-scoped area {area}"
            )));
        }
        if handle.area != area {
            return Err(RtsjError::IllegalAssignment {
                holder: area,
                target: handle.area,
            });
        }
        let a = self.area_mut(area)?;
        if a.enter_count == 0 {
            return Err(RtsjError::InaccessibleArea { area });
        }
        a.portal = Some(handle);
        Ok(())
    }

    /// Reads the portal of scope `area`, if set.
    ///
    /// # Errors
    ///
    /// [`RtsjError::IllegalState`] if `area` is not scoped.
    pub fn portal(&self, area: AreaId) -> Result<Option<RawHandle>> {
        if self.kind_of(area)? != MemoryKind::Scoped {
            return Err(RtsjError::IllegalState(format!(
                "portal on non-scoped area {area}"
            )));
        }
        Ok(self.area(area)?.portal)
    }

    // ---------------------------------------------------------------------
    // Introspection
    // ---------------------------------------------------------------------

    /// Footprint statistics for one area.
    ///
    /// # Errors
    ///
    /// [`RtsjError::IllegalState`] for an unknown id.
    pub fn stats(&self, area: AreaId) -> Result<AreaStats> {
        let a = self.area(area)?;
        Ok(AreaStats {
            id: area,
            name: a.name.clone(),
            kind: a.kind,
            consumed: a.consumed,
            high_watermark: a.high_watermark,
            size_limit: a.size_limit,
            live_objects: a.slabs.live(),
            reclaim_count: a.reclaim_count,
            total_allocs: a.total_allocs,
        })
    }

    /// Total bytes currently consumed across all areas.
    pub fn total_consumed(&self) -> usize {
        self.areas.iter().map(|a| a.consumed).sum()
    }

    /// Number of areas (including heap and immortal).
    pub fn area_count(&self) -> usize {
        self.areas.len()
    }
}

impl Default for MemoryManager {
    /// A manager with an unbounded heap and 1 MiB of immortal memory.
    fn default() -> Self {
        MemoryManager::new(0, 1024 * 1024)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mm() -> MemoryManager {
        MemoryManager::new(1024 * 1024, 1024 * 1024)
    }

    #[test]
    fn manager_contexts_and_handles_are_send() {
        fn assert_send<T: Send>() {}
        assert_send::<MemoryManager>();
        assert_send::<MemoryContext>();
        assert_send::<Handle<String>>();
        assert_send::<RawHandle>();
    }

    #[test]
    fn primordial_areas_exist() {
        let m = mm();
        assert_eq!(m.kind_of(AreaId::HEAP).unwrap(), MemoryKind::Heap);
        assert_eq!(m.kind_of(AreaId::IMMORTAL).unwrap(), MemoryKind::Immortal);
        assert_eq!(m.area_by_name("heap"), Some(AreaId::HEAP));
        assert_eq!(m.area_by_name("immortal"), Some(AreaId::IMMORTAL));
    }

    #[test]
    fn duplicate_scope_names_rejected() {
        let mut m = mm();
        m.create_scoped(ScopedMemoryParams::new("s", 1024)).unwrap();
        let err = m
            .create_scoped(ScopedMemoryParams::new("s", 1024))
            .unwrap_err();
        assert!(matches!(err, RtsjError::IllegalState(_)));
    }

    #[test]
    fn alloc_get_roundtrip_in_all_kinds() {
        let mut m = mm();
        let s = m.create_scoped(ScopedMemoryParams::new("s", 4096)).unwrap();
        let mut ctx = m.context(ThreadKind::Realtime);
        let h_heap = m
            .alloc(&ctx, AreaId::HEAP, String::from("on heap"))
            .unwrap();
        let h_imm = m.alloc(&ctx, AreaId::IMMORTAL, 7u32).unwrap();
        m.enter(&mut ctx, s).unwrap();
        let h_scope = m.alloc(&ctx, s, [1u8; 8]).unwrap();
        assert_eq!(m.get(&ctx, h_heap).unwrap(), "on heap");
        assert_eq!(*m.get(&ctx, h_imm).unwrap(), 7);
        assert_eq!(*m.get(&ctx, h_scope).unwrap(), [1u8; 8]);
        *m.get_mut(&ctx, h_imm).unwrap() = 8;
        assert_eq!(*m.get(&ctx, h_imm).unwrap(), 8);
        m.exit(&mut ctx).unwrap();
    }

    #[test]
    fn nhrt_cannot_touch_heap() {
        let mut m = mm();
        let ctx = m.context(ThreadKind::NoHeapRealtime);
        let err = m.alloc(&ctx, AreaId::HEAP, 1u8).unwrap_err();
        assert!(matches!(err, RtsjError::MemoryAccess { .. }));

        // A handle made by another thread is equally inaccessible.
        let rt = m.context(ThreadKind::Realtime);
        let h = m.alloc(&rt, AreaId::HEAP, 1u8).unwrap();
        let err = m.get(&ctx, h).unwrap_err();
        assert!(matches!(err, RtsjError::MemoryAccess { .. }));
    }

    #[test]
    fn nhrt_default_allocation_is_immortal() {
        let mut m = mm();
        let ctx = m.context(ThreadKind::NoHeapRealtime);
        assert_eq!(ctx.allocation_area(), AreaId::IMMORTAL);
        let h = m.alloc_current(&ctx, 5u64).unwrap();
        assert_eq!(h.area(), AreaId::IMMORTAL);
    }

    #[test]
    fn scope_reclaimed_on_last_exit() {
        let mut m = mm();
        let s = m.create_scoped(ScopedMemoryParams::new("s", 4096)).unwrap();
        let mut ctx = m.context(ThreadKind::Realtime);
        m.enter(&mut ctx, s).unwrap();
        let h = m.alloc(&ctx, s, 42u32).unwrap();
        assert!(m.stats(s).unwrap().consumed > 0);
        m.exit(&mut ctx).unwrap();
        assert_eq!(m.stats(s).unwrap().consumed, 0);
        assert_eq!(m.stats(s).unwrap().reclaim_count, 1);

        // Re-entering gives a new generation; the old handle is stale.
        m.enter(&mut ctx, s).unwrap();
        let err = m.get(&ctx, h).unwrap_err();
        assert!(matches!(err, RtsjError::StaleHandle { .. }));
        m.exit(&mut ctx).unwrap();
    }

    #[test]
    fn nested_entry_keeps_scope_alive() {
        let mut m = mm();
        let s = m.create_scoped(ScopedMemoryParams::new("s", 4096)).unwrap();
        let mut c1 = m.context(ThreadKind::Realtime);
        let mut c2 = m.context(ThreadKind::Realtime);
        m.enter(&mut c1, s).unwrap();
        m.enter(&mut c2, s).unwrap();
        let h = m.alloc(&c1, s, 3u8).unwrap();
        m.exit(&mut c1).unwrap();
        // c2 still inside: object survives.
        assert_eq!(*m.get(&c2, h).unwrap(), 3);
        m.exit(&mut c2).unwrap();
        assert_eq!(m.stats(s).unwrap().live_objects, 0);
    }

    #[test]
    fn single_parent_rule_enforced() {
        let mut m = mm();
        let a = m.create_scoped(ScopedMemoryParams::new("a", 4096)).unwrap();
        let b = m.create_scoped(ScopedMemoryParams::new("b", 4096)).unwrap();
        let inner = m
            .create_scoped(ScopedMemoryParams::new("inner", 4096))
            .unwrap();

        let mut t1 = m.context(ThreadKind::Realtime);
        m.enter(&mut t1, a).unwrap();
        m.enter(&mut t1, inner).unwrap(); // inner's parent is now `a`

        let mut t2 = m.context(ThreadKind::Realtime);
        m.enter(&mut t2, b).unwrap();
        let err = m.enter(&mut t2, inner).unwrap_err();
        assert!(matches!(err, RtsjError::ScopedCycle { .. }));

        // Same-parent re-entry is fine.
        let mut t3 = m.context(ThreadKind::Realtime);
        m.enter(&mut t3, a).unwrap();
        m.enter(&mut t3, inner).unwrap();
    }

    #[test]
    fn parent_detaches_after_reclaim() {
        let mut m = mm();
        let a = m.create_scoped(ScopedMemoryParams::new("a", 4096)).unwrap();
        let inner = m.create_scoped(ScopedMemoryParams::new("i", 4096)).unwrap();
        let mut t = m.context(ThreadKind::Realtime);
        m.enter(&mut t, a).unwrap();
        m.enter(&mut t, inner).unwrap();
        assert_eq!(m.parent_of(inner).unwrap(), Some(a));
        m.exit(&mut t).unwrap();
        m.exit(&mut t).unwrap();
        assert_eq!(m.parent_of(inner).unwrap(), None);

        // inner can now acquire a different parent.
        let b = m.create_scoped(ScopedMemoryParams::new("b", 4096)).unwrap();
        m.enter(&mut t, b).unwrap();
        m.enter(&mut t, inner).unwrap();
        assert_eq!(m.parent_of(inner).unwrap(), Some(b));
    }

    #[test]
    fn reentering_same_scope_on_one_stack_is_a_cycle() {
        let mut m = mm();
        let a = m.create_scoped(ScopedMemoryParams::new("a", 4096)).unwrap();
        let mut t = m.context(ThreadKind::Realtime);
        m.enter(&mut t, a).unwrap();
        let err = m.enter(&mut t, a).unwrap_err();
        assert!(matches!(err, RtsjError::ScopedCycle { .. }));
    }

    #[test]
    fn assignment_rules() {
        let mut m = mm();
        let outer = m
            .create_scoped(ScopedMemoryParams::new("outer", 4096))
            .unwrap();
        let inner = m
            .create_scoped(ScopedMemoryParams::new("inner", 4096))
            .unwrap();
        let mut t = m.context(ThreadKind::Realtime);
        m.enter(&mut t, outer).unwrap();
        m.enter(&mut t, inner).unwrap();

        // Anything may reference heap/immortal.
        m.check_assignment(inner, AreaId::HEAP).unwrap();
        m.check_assignment(AreaId::HEAP, AreaId::IMMORTAL).unwrap();
        m.check_assignment(AreaId::IMMORTAL, AreaId::HEAP).unwrap();

        // Inner may reference outer (outward refs OK).
        m.check_assignment(inner, outer).unwrap();
        m.check_assignment(inner, inner).unwrap();

        // Outer may NOT reference inner; heap/immortal may not reference scoped.
        assert!(m.check_assignment(outer, inner).is_err());
        assert!(m.check_assignment(AreaId::HEAP, inner).is_err());
        assert!(m.check_assignment(AreaId::IMMORTAL, outer).is_err());
    }

    #[test]
    fn sibling_scopes_cannot_reference_each_other() {
        let mut m = mm();
        let s1 = m
            .create_scoped(ScopedMemoryParams::new("s1", 4096))
            .unwrap();
        let s2 = m
            .create_scoped(ScopedMemoryParams::new("s2", 4096))
            .unwrap();
        let mut t = m.context(ThreadKind::Realtime);
        m.enter(&mut t, s1).unwrap();
        let mut t2 = m.context(ThreadKind::Realtime);
        m.enter(&mut t2, s2).unwrap();
        assert!(m.check_assignment(s1, s2).is_err());
        assert!(m.check_assignment(s2, s1).is_err());
    }

    #[test]
    fn out_of_memory_is_reported() {
        let mut m = mm();
        let s = m
            .create_scoped(ScopedMemoryParams::new("tiny", 24))
            .unwrap();
        let mut t = m.context(ThreadKind::Realtime);
        m.enter(&mut t, s).unwrap();
        let err = m.alloc(&t, s, [0u8; 64]).unwrap_err();
        assert!(matches!(err, RtsjError::OutOfMemory { .. }));
    }

    #[test]
    fn immortal_is_never_reclaimed() {
        let mut m = mm();
        let t = m.context(ThreadKind::Regular);
        let h = m.alloc(&t, AreaId::IMMORTAL, 9i64).unwrap();
        // No scope exit can ever touch it; stats reflect permanence.
        assert_eq!(*m.get(&t, h).unwrap(), 9);
        assert_eq!(m.stats(AreaId::IMMORTAL).unwrap().reclaim_count, 0);
    }

    #[test]
    fn heap_free_releases_budget() {
        let mut m = mm();
        let t = m.context(ThreadKind::Regular);
        let before = m.stats(AreaId::HEAP).unwrap().consumed;
        let h = m.alloc(&t, AreaId::HEAP, [0u8; 32]).unwrap();
        assert!(m.stats(AreaId::HEAP).unwrap().consumed > before);
        m.heap_free(h.raw()).unwrap();
        assert_eq!(m.stats(AreaId::HEAP).unwrap().consumed, before);
        // Double free detected.
        assert!(matches!(
            m.heap_free(h.raw()),
            Err(RtsjError::StaleHandle { .. })
        ));
    }

    #[test]
    fn portal_must_live_in_its_scope() {
        let mut m = mm();
        let s = m.create_scoped(ScopedMemoryParams::new("s", 4096)).unwrap();
        let mut t = m.context(ThreadKind::Realtime);
        m.enter(&mut t, s).unwrap();
        let inside = m.alloc(&t, s, 1u8).unwrap();
        let outside = m.alloc(&t, AreaId::IMMORTAL, 1u8).unwrap();
        m.set_portal(s, inside.raw()).unwrap();
        assert_eq!(m.portal(s).unwrap(), Some(inside.raw()));
        assert!(matches!(
            m.set_portal(s, outside.raw()),
            Err(RtsjError::IllegalAssignment { .. })
        ));
        m.exit(&mut t).unwrap();
        // Reclamation clears the portal.
        assert_eq!(m.portal(s).unwrap(), None);
    }

    #[test]
    fn execute_in_area_switches_allocation_context() {
        let mut m = mm();
        let s = m.create_scoped(ScopedMemoryParams::new("s", 4096)).unwrap();
        let mut t = m.context(ThreadKind::Realtime);
        m.enter(&mut t, s).unwrap();
        assert_eq!(t.allocation_area(), s);
        let h = m
            .execute_in_area(&mut t, AreaId::IMMORTAL, |m, t| {
                assert_eq!(t.allocation_area(), AreaId::IMMORTAL);
                m.alloc_current(t, 11u16)
            })
            .unwrap();
        assert_eq!(h.area(), AreaId::IMMORTAL);
        assert_eq!(t.allocation_area(), s);
        // A scope not on the stack is inaccessible.
        let other = m.create_scoped(ScopedMemoryParams::new("o", 64)).unwrap();
        let err = m
            .execute_in_area(&mut t, other, |_m, _t| Ok(()))
            .unwrap_err();
        assert!(matches!(err, RtsjError::InaccessibleArea { .. }));
    }

    #[test]
    fn split_phase_execute_in_area_balances() {
        let m = mm();
        let mut t = m.context(ThreadKind::Realtime);
        assert!(matches!(
            m.end_execute_in_area(&mut t),
            Err(RtsjError::IllegalState(_))
        ));
        m.begin_execute_in_area(&mut t, AreaId::IMMORTAL).unwrap();
        assert_eq!(t.allocation_area(), AreaId::IMMORTAL);
        m.end_execute_in_area(&mut t).unwrap();
        assert_eq!(t.allocation_area(), AreaId::HEAP);
    }

    #[test]
    fn execute_in_area_blocks_nhrt_heap() {
        let mut m = mm();
        let mut t = m.context(ThreadKind::NoHeapRealtime);
        let err = m
            .execute_in_area(&mut t, AreaId::HEAP, |_m, _t| Ok(()))
            .unwrap_err();
        assert!(matches!(err, RtsjError::MemoryAccess { .. }));
    }

    #[test]
    fn enter_with_balances_stack_on_error() {
        let mut m = mm();
        let s = m.create_scoped(ScopedMemoryParams::new("s", 4096)).unwrap();
        let mut t = m.context(ThreadKind::Realtime);
        let r: Result<()> = m.enter_with(&mut t, s, |_m, _t| {
            Err(RtsjError::IllegalState("inner failure".into()))
        });
        assert!(r.is_err());
        assert_eq!(t.depth(), 0);
        assert_eq!(m.enter_count(s).unwrap(), 0);
    }

    #[test]
    fn typed_handle_mismatch_detected() {
        let mut m = mm();
        let t = m.context(ThreadKind::Regular);
        let h = m.alloc(&t, AreaId::HEAP, 1u32).unwrap();
        let wrong: Handle<String> = Handle::from_raw(h.raw());
        let err = m.get(&t, wrong).unwrap_err();
        assert!(matches!(err, RtsjError::IllegalState(_)));
    }

    #[test]
    fn alloc_raw_charges_exact_bytes() {
        let mut m = mm();
        let t = m.context(ThreadKind::Regular);
        let before = m.stats(AreaId::IMMORTAL).unwrap().consumed;
        m.alloc_raw(&t, AreaId::IMMORTAL, 1000).unwrap();
        let after = m.stats(AreaId::IMMORTAL).unwrap().consumed;
        assert_eq!(after - before, 1000 + OBJECT_HEADER_BYTES);
        // Budget enforcement applies.
        let s = m.create_scoped(ScopedMemoryParams::new("t", 64)).unwrap();
        let mut ctx = m.context(ThreadKind::Realtime);
        m.enter(&mut ctx, s).unwrap();
        assert!(matches!(
            m.alloc_raw(&ctx, s, 4096),
            Err(RtsjError::OutOfMemory { .. })
        ));
    }

    #[test]
    fn check_live_runs_the_access_and_staleness_checks_of_get() {
        let mut m = mm();
        let s = m.create_scoped(ScopedMemoryParams::new("s", 4096)).unwrap();
        let mut rt = m.context(ThreadKind::Realtime);
        let nhrt = m.context(ThreadKind::NoHeapRealtime);
        let on_heap = m.alloc(&rt, AreaId::HEAP, 1u8).unwrap().raw();
        m.check_live(&rt, on_heap).unwrap();
        assert!(matches!(
            m.check_live(&nhrt, on_heap),
            Err(RtsjError::MemoryAccess { .. })
        ));
        m.enter(&mut rt, s).unwrap();
        let scoped = m.alloc(&rt, s, 2u8).unwrap().raw();
        m.check_live(&rt, scoped).unwrap();
        // Reclaim, then re-enter: a new generation, the old token is stale.
        m.exit(&mut rt).unwrap();
        m.enter(&mut rt, s).unwrap();
        assert!(matches!(
            m.check_live(&rt, scoped),
            Err(RtsjError::StaleHandle { .. })
        ));
    }

    #[test]
    fn saturated_raw_charges_are_refused_even_by_an_unbounded_heap() {
        let mut m = MemoryManager::new(0, 1024);
        let t = m.context(ThreadKind::Regular);
        for bytes in [usize::MAX, usize::MAX - OBJECT_HEADER_BYTES + 1] {
            for area in [AreaId::HEAP, AreaId::IMMORTAL] {
                assert!(matches!(
                    m.alloc_raw(&t, area, bytes),
                    Err(RtsjError::OutOfMemory {
                        requested: usize::MAX,
                        ..
                    })
                ));
            }
        }
        // A huge but representable heap charge is bookkeeping only; what
        // is left can never push the total past `usize::MAX`.
        m.alloc_raw(&t, AreaId::HEAP, usize::MAX / 2).unwrap();
        assert!(matches!(
            m.alloc_raw(&t, AreaId::HEAP, usize::MAX / 2),
            Err(RtsjError::OutOfMemory { .. })
        ));
        assert_eq!(m.stats(AreaId::IMMORTAL).unwrap().consumed, 0);
    }

    #[test]
    fn admit_raw_checks_a_batch_without_charging_it() {
        let mut m = MemoryManager::new(0, 256);
        let rt = m.context(ThreadKind::Realtime);
        let block = 100 + OBJECT_HEADER_BYTES;
        assert_eq!(m.admit_raw(&rt, AreaId::IMMORTAL, 2, 200), Ok(2 * block));
        assert_eq!(
            m.admit_raw(&rt, AreaId::IMMORTAL, 3, 300),
            Err(RtsjError::OutOfMemory {
                area: AreaId::IMMORTAL,
                requested: 3 * block,
                remaining: 256,
            })
        );
        // Header arithmetic that overflows is refused, never wrapped.
        assert!(matches!(
            m.admit_raw(&rt, AreaId::HEAP, usize::MAX, 0),
            Err(RtsjError::OutOfMemory {
                requested: usize::MAX,
                ..
            })
        ));
        assert_eq!(m.total_consumed(), 0, "admission charges nothing");
        // The access and entry rules of a charge apply to its admission.
        let nhrt = m.context(ThreadKind::NoHeapRealtime);
        assert!(matches!(
            m.admit_raw(&nhrt, AreaId::HEAP, 1, 8),
            Err(RtsjError::MemoryAccess { .. })
        ));
        let s = m.create_scoped(ScopedMemoryParams::new("s", 64)).unwrap();
        assert_eq!(
            m.admit_raw(&rt, s, 1, 8),
            Err(RtsjError::InaccessibleArea { area: s })
        );
        // What the admission passes, the charges make: two blocks fit.
        m.alloc_raw(&rt, AreaId::IMMORTAL, 100).unwrap();
        m.alloc_raw(&rt, AreaId::IMMORTAL, 100).unwrap();
        assert_eq!(m.total_consumed(), 2 * block);
    }

    #[test]
    fn alloc_count_sums_across_areas() {
        let mut m = mm();
        let t = m.context(ThreadKind::Regular);
        assert_eq!(m.alloc_count(), 0);
        m.alloc(&t, AreaId::HEAP, 1u8).unwrap();
        m.alloc(&t, AreaId::IMMORTAL, 2u16).unwrap();
        m.alloc_raw(&t, AreaId::IMMORTAL, 100).unwrap();
        assert_eq!(m.alloc_count(), 3);
    }

    #[test]
    fn heap_alloc_free_cycles_reuse_slots() {
        let mut m = mm();
        let t = m.context(ThreadKind::Regular);
        // Warm one slot, then cycle: the same slot id must be reissued and
        // consumption must return to baseline each round.
        let h0 = m.alloc(&t, AreaId::HEAP, 0u64).unwrap();
        m.heap_free(h0.raw()).unwrap();
        let baseline = m.stats(AreaId::HEAP).unwrap().consumed;
        for round in 0..32u64 {
            let h = m.alloc(&t, AreaId::HEAP, round).unwrap();
            assert_eq!(h.raw(), h0.raw(), "free slot reused");
            assert_eq!(*m.get(&t, h).unwrap(), round);
            m.heap_free(h.raw()).unwrap();
            assert_eq!(m.stats(AreaId::HEAP).unwrap().consumed, baseline);
        }
        let st = m.stats(AreaId::HEAP).unwrap();
        assert_eq!(st.live_objects, 0);
        assert_eq!(st.high_watermark, MemoryManager::bytes_for::<u64>());
    }

    #[test]
    fn reserve_slots_is_bookkeeping_only() {
        let mut m = mm();
        m.reserve_slots::<[u8; 64]>(AreaId::IMMORTAL, 16).unwrap();
        let st = m.stats(AreaId::IMMORTAL).unwrap();
        assert_eq!(st.consumed, 0, "reservation charges no bytes");
        assert_eq!(st.total_allocs, 0);
        // The reserved slots are immediately usable.
        let t = m.context(ThreadKind::Regular);
        for _ in 0..16 {
            m.alloc(&t, AreaId::IMMORTAL, [0u8; 64]).unwrap();
        }
        assert!(m.reserve_slots::<u8>(AreaId::from_raw(99), 1).is_err());
    }

    #[test]
    fn distinct_types_get_distinct_slots() {
        let mut m = mm();
        let t = m.context(ThreadKind::Regular);
        // Same slot index in different typed slabs must not collide.
        let ha = m.alloc(&t, AreaId::IMMORTAL, 7u32).unwrap();
        let hb = m.alloc(&t, AreaId::IMMORTAL, 9i64).unwrap();
        assert_eq!(*m.get(&t, ha).unwrap(), 7);
        assert_eq!(*m.get(&t, hb).unwrap(), 9);
        assert_eq!(m.stats(AreaId::IMMORTAL).unwrap().live_objects, 2);
    }

    #[test]
    fn stats_track_watermark_and_allocs() {
        let mut m = mm();
        let s = m.create_scoped(ScopedMemoryParams::new("s", 4096)).unwrap();
        let mut t = m.context(ThreadKind::Realtime);
        m.enter(&mut t, s).unwrap();
        m.alloc(&t, s, [0u8; 100]).unwrap();
        m.alloc(&t, s, [0u8; 50]).unwrap();
        let st = m.stats(s).unwrap();
        assert_eq!(st.total_allocs, 2);
        assert_eq!(st.live_objects, 2);
        assert_eq!(st.high_watermark, st.consumed);
        m.exit(&mut t).unwrap();
        let st = m.stats(s).unwrap();
        assert_eq!(st.consumed, 0);
        assert!(st.high_watermark > 0, "watermark survives reclaim");
    }
}
