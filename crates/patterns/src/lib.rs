//! # soleil-patterns — RTSJ communication carriers
//!
//! The paper's memory interceptors "implement cross-scope communication …
//! depending on the design procedure choosing one of many RTSJ memory
//! patterns". The design procedure is one rule,
//! [`soleil_core::validate::pattern_between`], and the engine runs the
//! synchronous patterns it picks in one crossing routine. This crate holds
//! the pattern vocabulary and the carriers those patterns need, drawn from
//! the catalogs the paper cites (Corsaro & Santoro; Benowitz & Niessner;
//! Pizlo et al.):
//!
//! * [`PatternKind`] — the five patterns, the validator's
//!   [`CrossScopePattern`](soleil_core::validate::CrossScopePattern) under
//!   the name deployment plans use;
//! * [`ExchangeBuffer`] — a bounded FIFO that owns its fixed ring and is
//!   charged to a chosen area: the substrate for asynchronous bindings
//!   (*Immortal Exchange Buffer*). A heap ring checks the thread kind and
//!   a scoped ring its scope's liveness on every operation; an immortal
//!   ring, whose area is never reclaimed and admits every thread kind,
//!   needs neither check and runs none;
//! * [`ScopePin`] — keep a scoped area alive across transactions (*Wedge
//!   Thread* / *Memory Pinning* pattern);
//! * [`spsc`] — wait-free single-producer/single-consumer rings for
//!   bindings that cross *thread domains*, mirroring RTSJ's
//!   `WaitFreeWriteQueue` (same-domain bindings keep the non-atomic
//!   [`ExchangeBuffer`] fast path).
//!
//! Every carrier works against [`rtsj::memory::MemoryManager`] and
//! therefore inherits every RTSJ dynamic check: patterns make cross-scope
//! communication *legal*, they never bypass the assignment rules.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod spsc;

use std::cell::Cell;

use rtsj::memory::{AreaId, MemoryContext, MemoryKind, MemoryManager, RawHandle};
use rtsj::thread::ThreadKind;
use rtsj::{Result, RtsjError};

/// The cross-scope pattern vocabulary: the one enum the validator picks
/// from and the engine executes.
pub use soleil_core::validate::CrossScopePattern as PatternKind;

// ---------------------------------------------------------------------------
// Exchange buffer
// ---------------------------------------------------------------------------

/// Outcome of [`ExchangeBuffer::push`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushOutcome {
    /// The message was enqueued.
    Accepted,
    /// The buffer was full; the message was dropped (bounded-buffer
    /// backpressure, as RTSJ `WaitFreeWriteQueue` does).
    Rejected,
}

/// Bytes a ring header charges to its area besides the message backing
/// store: the slot table's pointer, capacity and length words, the head
/// and length indices, the two counters and the backing-store reference —
/// the bookkeeping a region-resident ring keeps next to its slots.
const RING_HEADER_BYTES: usize = 5 * std::mem::size_of::<usize>()
    + 2 * std::mem::size_of::<u64>()
    + std::mem::size_of::<RawHandle>();

/// A bounded FIFO charged to a memory area — the carrier for asynchronous
/// bindings and the *Immortal Exchange Buffer* pattern when placed in
/// immortal memory.
///
/// The queue is a **fixed ring owned by the buffer**: every message slot is
/// provisioned in [`ExchangeBuffer::create`], so `push`/`pop` are index
/// moves that never allocate — neither in the substrate nor on the Rust
/// heap. The area is charged what a region-resident ring costs (message
/// backing store plus ring header), so buffer footprint shows up in the
/// area statistics exactly like the paper's Fig. 7(c) accounting.
///
/// The header allocation is the ring's lifetime token, and the area's
/// kind decides what each operation checks on it:
///
/// * **heap** — the access check ([`MemoryManager::check_live`]) on every
///   operation, so an NHRT context is refused;
/// * **scoped** — the staleness check on every operation, so a buffer
///   whose scope was reclaimed reports [`RtsjError::StaleHandle`], even
///   after the scope is re-entered;
/// * **immortal** — nothing per operation: immortal memory is never
///   reclaimed and every thread kind may touch it, so no check could
///   fail there. `create` records the area's kind once.
///
/// No operation pays a slab lookup or a downcast per message. The slots
/// are `Cell`s, so every operation takes `&self`; the buffer owns its
/// messages and is neither `Copy` nor `Sync`.
///
/// ```
/// use rtsj::memory::{AreaId, MemoryManager};
/// use rtsj::thread::ThreadKind;
/// use soleil_patterns::ExchangeBuffer;
///
/// # fn main() -> rtsj::Result<()> {
/// let mut mm = MemoryManager::new(0, 1 << 20);
/// let ctx = mm.context(ThreadKind::Realtime);
/// let buf: ExchangeBuffer<u32> = ExchangeBuffer::create(&mut mm, &ctx, AreaId::IMMORTAL, 2)?;
/// buf.push(&mut mm, &ctx, 7)?;
/// assert_eq!(buf.pop(&mut mm, &ctx)?, Some(7));
/// # Ok(())
/// # }
/// ```
pub struct ExchangeBuffer<T> {
    slots: Box<[Cell<Option<T>>]>,
    head: Cell<usize>,
    len: Cell<usize>,
    rejected: Cell<u64>,
    total_pushed: Cell<u64>,
    /// The ring header's allocation: the lifetime token. Private, so
    /// nothing can free it individually.
    header: RawHandle,
    /// True when the ring lives in immortal memory, where the token can
    /// never go stale or refuse a thread kind: operations skip its check.
    immortal: bool,
}

impl<T> ExchangeBuffer<T> {
    /// Allocates a buffer of `capacity` messages inside `area`.
    ///
    /// The charges are admitted before any slot exists, with checked
    /// arithmetic: a capacity whose backing store overflows `usize` or
    /// exceeds the area's budget is refused without allocating. They are
    /// admitted together and made only once the slot table is reserved,
    /// so a refused buffer charges its area nothing — immortal memory
    /// could never give a stray charge back.
    ///
    /// # Errors
    ///
    /// * [`RtsjError::IllegalState`] for zero capacity, or when the host
    ///   cannot provide the slot table of an unbounded heap buffer.
    /// * Substrate allocation errors (out of memory, access checks).
    pub fn create(
        mm: &mut MemoryManager,
        ctx: &MemoryContext,
        area: AreaId,
        capacity: usize,
    ) -> Result<Self> {
        if capacity == 0 {
            return Err(RtsjError::IllegalState(
                "exchange buffer capacity must be >= 1".into(),
            ));
        }
        // The message backing store, so a buffer of N messages of type T
        // costs what it would in a real region, and the ring header: both
        // admitted as one batch (a saturated size is refused), then the
        // slot table reserved, and only then both charged.
        let backing = capacity.saturating_mul(std::mem::size_of::<T>().max(1));
        mm.admit_raw(ctx, area, 2, backing.saturating_add(RING_HEADER_BYTES))?;
        let immortal = mm.kind_of(area)? == MemoryKind::Immortal;
        let mut slots = Vec::new();
        slots.try_reserve_exact(capacity).map_err(|_| {
            RtsjError::IllegalState(format!(
                "exchange buffer slot table of {capacity} messages cannot be allocated"
            ))
        })?;
        slots.resize_with(capacity, || Cell::new(None));
        mm.alloc_raw(ctx, area, backing)?;
        let header = mm.alloc_raw(ctx, area, RING_HEADER_BYTES)?.raw();
        Ok(ExchangeBuffer {
            slots: slots.into_boxed_slice(),
            head: Cell::new(0),
            len: Cell::new(0),
            rejected: Cell::new(0),
            total_pushed: Cell::new(0),
            header,
            immortal,
        })
    }

    /// The per-operation check of the ring's lifetime token: the access
    /// and staleness checks of [`MemoryManager::check_live`] for a heap or
    /// scoped ring, none for an immortal one (see the type docs).
    #[inline]
    fn check_live(&self, mm: &MemoryManager, ctx: &MemoryContext) -> Result<()> {
        if self.immortal {
            Ok(())
        } else {
            mm.check_live(ctx, self.header)
        }
    }

    /// The area holding the buffer.
    pub fn area(&self) -> AreaId {
        self.header.area()
    }

    /// Configured capacity.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Enqueues `value`, rejecting it when full.
    ///
    /// # Errors
    ///
    /// Substrate access errors (e.g. an NHRT context with a heap buffer).
    pub fn push(
        &self,
        mm: &mut MemoryManager,
        ctx: &MemoryContext,
        value: T,
    ) -> Result<PushOutcome> {
        self.check_live(mm, ctx)?;
        let capacity = self.slots.len();
        let len = self.len.get();
        if len == capacity {
            self.rejected.set(self.rejected.get() + 1);
            return Ok(PushOutcome::Rejected);
        }
        // Wrap by compare-and-subtract: both operands are < capacity, and
        // it keeps integer division off the hot path.
        let mut tail = self.head.get() + len;
        if tail >= capacity {
            tail -= capacity;
        }
        self.slots[tail].set(Some(value));
        self.len.set(len + 1);
        self.total_pushed.set(self.total_pushed.get() + 1);
        Ok(PushOutcome::Accepted)
    }

    /// Dequeues the oldest message, if any.
    ///
    /// # Errors
    ///
    /// Substrate access errors.
    pub fn pop(&self, mm: &mut MemoryManager, ctx: &MemoryContext) -> Result<Option<T>> {
        self.check_live(mm, ctx)?;
        let len = self.len.get();
        if len == 0 {
            return Ok(None);
        }
        let head = self.head.get();
        let value = self.slots[head].take();
        debug_assert!(value.is_some(), "occupied ring slot was empty");
        self.head.set(if head + 1 == self.slots.len() {
            0
        } else {
            head + 1
        });
        self.len.set(len - 1);
        Ok(value)
    }

    /// Current queue length.
    ///
    /// # Errors
    ///
    /// Substrate access errors.
    pub fn len(&self, mm: &MemoryManager, ctx: &MemoryContext) -> Result<usize> {
        self.check_live(mm, ctx)?;
        Ok(self.len.get())
    }

    /// True when no message is queued.
    ///
    /// # Errors
    ///
    /// Substrate access errors.
    pub fn is_empty(&self, mm: &MemoryManager, ctx: &MemoryContext) -> Result<bool> {
        Ok(self.len(mm, ctx)? == 0)
    }

    /// Number of messages rejected because the buffer was full.
    ///
    /// # Errors
    ///
    /// Substrate access errors.
    pub fn rejected(&self, mm: &MemoryManager, ctx: &MemoryContext) -> Result<u64> {
        self.check_live(mm, ctx)?;
        Ok(self.rejected.get())
    }

    /// Total messages ever accepted.
    ///
    /// # Errors
    ///
    /// Substrate access errors.
    pub fn total_pushed(&self, mm: &MemoryManager, ctx: &MemoryContext) -> Result<u64> {
        self.check_live(mm, ctx)?;
        Ok(self.total_pushed.get())
    }
}

impl<T> std::fmt::Debug for ExchangeBuffer<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExchangeBuffer")
            .field("area", &self.area())
            .field("capacity", &self.capacity())
            .field("len", &self.len.get())
            .finish()
    }
}

// ---------------------------------------------------------------------------
// Scope pinning (wedge thread)
// ---------------------------------------------------------------------------

/// Keeps a scoped memory area alive across transactions — the *Wedge
/// Thread* / *Memory Pinning* pattern.
///
/// RTSJ reclaims a scope when its last thread leaves. Components whose state
/// lives in a scoped area therefore need a dedicated "wedge" occupancy that
/// enters the scope at bootstrap and only leaves at teardown. `ScopePin`
/// owns that occupancy: create it to pin, [`ScopePin::release`] to unpin
/// (which may trigger reclamation).
#[derive(Debug)]
pub struct ScopePin {
    ctx: MemoryContext,
    scope: AreaId,
    released: bool,
}

impl ScopePin {
    /// Enters `scope` with a dedicated wedge context (a real-time thread by
    /// convention), pinning it.
    ///
    /// The wedge context enters through `path` first: outer pins must
    /// already exist for nested scopes, mirroring how a wedge thread must
    /// itself sit on the correct scope stack.
    ///
    /// # Errors
    ///
    /// Propagates entry errors (single parent rule, unknown area).
    pub fn new(mm: &mut MemoryManager, scope: AreaId, path: &[AreaId]) -> Result<ScopePin> {
        let mut ctx = mm.context(ThreadKind::Realtime);
        for &ancestor in path {
            mm.enter(&mut ctx, ancestor)?;
        }
        mm.enter(&mut ctx, scope)?;
        Ok(ScopePin {
            ctx,
            scope,
            released: false,
        })
    }

    /// The pinned scope.
    pub fn scope(&self) -> AreaId {
        self.scope
    }

    /// A context standing inside the pinned scope, usable for allocation.
    pub fn context(&self) -> &MemoryContext {
        &self.ctx
    }

    /// Releases the pin, unwinding the wedge's scope stack. When this was
    /// the last occupancy the scope reclaims.
    ///
    /// # Errors
    ///
    /// [`RtsjError::IllegalState`] when already released.
    pub fn release(&mut self, mm: &mut MemoryManager) -> Result<()> {
        if self.released {
            return Err(RtsjError::IllegalState("scope pin already released".into()));
        }
        while self.ctx.depth() > 0 {
            mm.exit(&mut self.ctx)?;
        }
        self.released = true;
        Ok(())
    }

    /// True when the pin has been released.
    pub fn is_released(&self) -> bool {
        self.released
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtsj::memory::{Handle, ScopedMemoryParams};

    fn setup() -> (MemoryManager, AreaId, AreaId) {
        let mut mm = MemoryManager::new(1 << 20, 1 << 20);
        let outer = mm
            .create_scoped(ScopedMemoryParams::new("outer", 64 * 1024))
            .unwrap();
        let inner = mm
            .create_scoped(ScopedMemoryParams::new("inner", 16 * 1024))
            .unwrap();
        (mm, outer, inner)
    }

    /// The premise of the *Execute-In-Outer* pattern: from inside a nested
    /// scope, allocating with the context switched to the enclosing
    /// (pinned) scope outlives the nested scope.
    #[test]
    fn execute_in_outer_allocates_outward() {
        let (mut mm, outer, inner) = setup();
        let _pin = ScopePin::new(&mut mm, outer, &[]).unwrap();
        let mut ctx = mm.context(ThreadKind::Realtime);
        mm.enter(&mut ctx, outer).unwrap();
        mm.enter(&mut ctx, inner).unwrap();
        let h = mm
            .execute_in_area(&mut ctx, outer, |mm, ctx| mm.alloc_current(ctx, 99u64))
            .unwrap();
        assert_eq!(h.area(), outer);
        // Exiting the inner scope must not invalidate the outer allocation.
        mm.exit(&mut ctx).unwrap();
        assert_eq!(*mm.get(&ctx, h).unwrap(), 99);
    }

    /// The *Portal* pattern needs a pin: a scope reclaimed by its last
    /// exit loses its portal, and a pinned scope keeps it across entries.
    #[test]
    fn portal_pattern_roundtrip() {
        let (mut mm, outer, _inner) = setup();
        let mut ctx = mm.context(ThreadKind::Realtime);

        // Service thread sets up the portal, then leaves (scope reclaims).
        mm.enter(&mut ctx, outer).unwrap();
        let h = mm
            .alloc(&ctx, outer, String::from("service-state"))
            .unwrap();
        mm.set_portal(outer, h.raw()).unwrap();
        mm.exit(&mut ctx).unwrap();

        // Scope reclaimed (no pin): the portal is gone on re-entry.
        let mut client = mm.context(ThreadKind::Realtime);
        mm.enter(&mut client, outer).unwrap();
        assert!(
            mm.portal(outer).unwrap().is_none(),
            "reclaimed scope lost its portal"
        );
        mm.exit(&mut client).unwrap();

        // With a pin the portal survives across entries.
        let mut pin = ScopePin::new(&mut mm, outer, &[]).unwrap();
        let h = mm.alloc(pin.context(), outer, 42u32).unwrap();
        mm.set_portal(outer, h.raw()).unwrap();
        for _ in 0..2 {
            mm.enter(&mut client, outer).unwrap();
            let raw = mm.portal(outer).unwrap().expect("portal installed");
            let portal: Handle<u32> = Handle::from_raw(raw);
            assert_eq!(*mm.get(&client, portal).unwrap(), 42);
            mm.exit(&mut client).unwrap();
        }
        pin.release(&mut mm).unwrap();
        assert!(mm.portal(outer).unwrap().is_none(), "unpinning reclaims it");
    }

    /// The premise of the *Handoff* pattern: sibling scopes may not
    /// reference each other, but a deep copy into the sibling is legal.
    #[test]
    fn handoff_copies_between_siblings() {
        let (mut mm, s1, s2) = setup();
        let mut t1 = mm.context(ThreadKind::Realtime);
        mm.enter(&mut t1, s1).unwrap();
        let mut t2 = mm.context(ThreadKind::Realtime);
        mm.enter(&mut t2, s2).unwrap();

        // Direct reference is illegal...
        assert!(mm.check_assignment(s2, s1).is_err());
        // ...but a deep copy is the sanctioned pattern.
        let src = mm.alloc(&t1, s1, vec![1u8, 2, 3]).unwrap();
        let copy = mm.get(&t1, src).unwrap().clone();
        let dst = mm.alloc(&t1, s2, copy).unwrap();
        assert_eq!(dst.area(), s2);
        assert_eq!(mm.get(&t2, dst).unwrap(), &vec![1u8, 2, 3]);
    }

    #[test]
    fn exchange_buffer_fifo_and_backpressure() {
        let mut mm = MemoryManager::new(1 << 20, 1 << 20);
        let ctx = mm.context(ThreadKind::Realtime);
        let buf: ExchangeBuffer<u32> =
            ExchangeBuffer::create(&mut mm, &ctx, AreaId::IMMORTAL, 2).unwrap();
        assert_eq!(buf.push(&mut mm, &ctx, 1).unwrap(), PushOutcome::Accepted);
        assert_eq!(buf.push(&mut mm, &ctx, 2).unwrap(), PushOutcome::Accepted);
        assert_eq!(buf.push(&mut mm, &ctx, 3).unwrap(), PushOutcome::Rejected);
        assert_eq!(buf.rejected(&mm, &ctx).unwrap(), 1);
        assert_eq!(buf.total_pushed(&mm, &ctx).unwrap(), 2);
        assert_eq!(buf.pop(&mut mm, &ctx).unwrap(), Some(1));
        assert_eq!(buf.pop(&mut mm, &ctx).unwrap(), Some(2));
        assert_eq!(buf.pop(&mut mm, &ctx).unwrap(), None);
        assert!(buf.is_empty(&mm, &ctx).unwrap());
    }

    #[test]
    fn exchange_buffer_ring_wraps_without_allocating() {
        let mut mm = MemoryManager::new(1 << 20, 1 << 20);
        let ctx = mm.context(ThreadKind::Realtime);
        let buf: ExchangeBuffer<u64> =
            ExchangeBuffer::create(&mut mm, &ctx, AreaId::IMMORTAL, 3).unwrap();
        let allocs_after_create = mm.alloc_count();
        // Drive far past capacity so head/tail wrap repeatedly; FIFO order
        // must hold and the substrate must see zero further allocations.
        for round in 0..50u64 {
            assert_eq!(
                buf.push(&mut mm, &ctx, round).unwrap(),
                PushOutcome::Accepted
            );
            if round >= 2 {
                assert_eq!(buf.pop(&mut mm, &ctx).unwrap(), Some(round - 2));
            }
        }
        assert_eq!(buf.len(&mm, &ctx).unwrap(), 2);
        assert_eq!(
            mm.alloc_count(),
            allocs_after_create,
            "steady-state ring traffic must not allocate"
        );
    }

    #[test]
    fn exchange_buffer_counts_toward_area_footprint() {
        let mut mm = MemoryManager::new(1 << 20, 1 << 20);
        let ctx = mm.context(ThreadKind::Realtime);
        let before = mm.stats(AreaId::IMMORTAL).unwrap().consumed;
        let _buf: ExchangeBuffer<[u8; 64]> =
            ExchangeBuffer::create(&mut mm, &ctx, AreaId::IMMORTAL, 8).unwrap();
        assert!(mm.stats(AreaId::IMMORTAL).unwrap().consumed > before);
    }

    #[test]
    fn zero_capacity_rejected() {
        let mut mm = MemoryManager::new(1 << 20, 1 << 20);
        let ctx = mm.context(ThreadKind::Realtime);
        let r: Result<ExchangeBuffer<u8>> =
            ExchangeBuffer::create(&mut mm, &ctx, AreaId::IMMORTAL, 0);
        assert!(r.is_err());
    }

    #[test]
    fn nhrt_cannot_use_heap_buffer() {
        let mut mm = MemoryManager::new(1 << 20, 1 << 20);
        let rt = mm.context(ThreadKind::Regular);
        let buf: ExchangeBuffer<u8> =
            ExchangeBuffer::create(&mut mm, &rt, AreaId::HEAP, 4).unwrap();
        let nhrt = mm.context(ThreadKind::NoHeapRealtime);
        let err = buf.push(&mut mm, &nhrt, 1).unwrap_err();
        assert!(matches!(err, RtsjError::MemoryAccess { .. }));
    }

    #[test]
    fn nhrt_is_refused_on_every_heap_buffer_operation() {
        let mut mm = MemoryManager::new(1 << 20, 1 << 20);
        let rt = mm.context(ThreadKind::Regular);
        let buf: ExchangeBuffer<u8> =
            ExchangeBuffer::create(&mut mm, &rt, AreaId::HEAP, 4).unwrap();
        buf.push(&mut mm, &rt, 1).unwrap();
        let nhrt = mm.context(ThreadKind::NoHeapRealtime);
        let refused = |e: RtsjError| matches!(e, RtsjError::MemoryAccess { area, .. } if area == AreaId::HEAP);
        assert!(refused(buf.push(&mut mm, &nhrt, 2).unwrap_err()));
        assert!(refused(buf.pop(&mut mm, &nhrt).unwrap_err()));
        assert!(refused(buf.len(&mm, &nhrt).unwrap_err()));
        assert!(refused(buf.is_empty(&mm, &nhrt).unwrap_err()));
        assert!(refused(buf.rejected(&mm, &nhrt).unwrap_err()));
        assert!(refused(buf.total_pushed(&mm, &nhrt).unwrap_err()));
        // The refusals touched nothing: the regular thread still sees the
        // one message it pushed.
        assert_eq!(buf.total_pushed(&mm, &rt).unwrap(), 1);
        assert_eq!(buf.pop(&mut mm, &rt).unwrap(), Some(1));
    }

    #[test]
    fn exchange_buffer_in_a_reclaimed_scope_is_stale() {
        let (mut mm, outer, _) = setup();
        let mut ctx = mm.context(ThreadKind::Realtime);
        mm.enter(&mut ctx, outer).unwrap();
        let buf: ExchangeBuffer<u32> = ExchangeBuffer::create(&mut mm, &ctx, outer, 2).unwrap();
        buf.push(&mut mm, &ctx, 1).unwrap();
        // The last occupant leaves: the scope reclaims, and re-entering it
        // opens a new generation — neither revives the old buffer.
        mm.exit(&mut ctx).unwrap();
        for reentered in [false, true] {
            if reentered {
                mm.enter(&mut ctx, outer).unwrap();
            }
            let stale =
                |e: RtsjError| matches!(e, RtsjError::StaleHandle { area } if area == outer);
            assert!(
                stale(buf.push(&mut mm, &ctx, 2).unwrap_err()),
                "{reentered}"
            );
            assert!(stale(buf.pop(&mut mm, &ctx).unwrap_err()), "{reentered}");
            assert!(stale(buf.len(&mm, &ctx).unwrap_err()), "{reentered}");
        }
    }

    #[test]
    fn create_charges_the_ring_and_its_header_to_the_area() {
        // Backing store `capacity × size_of::<T>()` plus a 72-byte ring
        // header, each with its 16-byte object header: two allocations.
        fn charge<T: Send + 'static>(capacity: usize) -> (usize, u64, usize) {
            let mut mm = MemoryManager::new(1 << 20, 1 << 20);
            let ctx = mm.context(ThreadKind::Realtime);
            let _buf: ExchangeBuffer<T> =
                ExchangeBuffer::create(&mut mm, &ctx, AreaId::IMMORTAL, capacity).unwrap();
            let st = mm.stats(AreaId::IMMORTAL).unwrap();
            (st.consumed, mm.alloc_count(), st.live_objects)
        }
        assert_eq!(charge::<u64>(8), (8 * 8 + 16 + 72 + 16, 2, 2));
        assert_eq!(charge::<[u8; 64]>(3), (3 * 64 + 16 + 72 + 16, 2, 2));
        assert_eq!(charge::<()>(5), (5 + 16 + 72 + 16, 2, 2));
    }

    /// A refused `create` charges nothing: the backing store and the
    /// header are admitted together, so a budget that holds the first but
    /// not both keeps no stray backing-store charge.
    #[test]
    fn refused_create_charges_nothing() {
        // 4 × u64 needs 32 + 16 bytes of backing store and 72 + 16 of
        // header: a 60-byte budget fits the backing store alone.
        let mut mm = MemoryManager::new(1 << 20, 60);
        let ctx = mm.context(ThreadKind::Realtime);
        let err = ExchangeBuffer::<u64>::create(&mut mm, &ctx, AreaId::IMMORTAL, 4).unwrap_err();
        assert!(
            matches!(
                err,
                RtsjError::OutOfMemory {
                    area: AreaId::IMMORTAL,
                    requested: 136,
                    remaining: 60
                }
            ),
            "{err}"
        );
        assert_eq!(mm.total_consumed(), 0);
        assert_eq!(mm.alloc_count(), 0);
        // The same budget in a scope is refused whole too.
        let scope = mm
            .create_scoped(ScopedMemoryParams::new("small", 60))
            .unwrap();
        let mut inside = mm.context(ThreadKind::Realtime);
        mm.enter(&mut inside, scope).unwrap();
        assert!(ExchangeBuffer::<u64>::create(&mut mm, &inside, scope, 4).is_err());
        assert_eq!(mm.total_consumed(), 0);
        assert_eq!(mm.alloc_count(), 0);
    }

    #[test]
    fn pin_keeps_scope_alive() {
        let (mut mm, outer, _) = setup();
        let mut pin = ScopePin::new(&mut mm, outer, &[]).unwrap();
        let pin_ctx = pin.context().clone();
        let h = mm.alloc(&pin_ctx, outer, 5u8).unwrap();

        // A transient visitor coming and going does not reclaim.
        let mut visitor = mm.context(ThreadKind::Realtime);
        mm.enter(&mut visitor, outer).unwrap();
        mm.exit(&mut visitor).unwrap();
        assert_eq!(*mm.get(&pin_ctx, h).unwrap(), 5);

        // Releasing the pin reclaims.
        pin.release(&mut mm).unwrap();
        assert_eq!(mm.stats(outer).unwrap().consumed, 0);
        assert!(pin.is_released());
        assert!(pin.release(&mut mm).is_err());
    }

    #[test]
    fn nested_pin_requires_path() {
        let (mut mm, outer, inner) = setup();
        let _outer_pin = ScopePin::new(&mut mm, outer, &[]).unwrap();
        let mut inner_pin = ScopePin::new(&mut mm, inner, &[outer]).unwrap();
        assert_eq!(mm.parent_of(inner).unwrap(), Some(outer));
        inner_pin.release(&mut mm).unwrap();
    }
}
