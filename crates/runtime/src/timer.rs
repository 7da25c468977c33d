//! The release-engine timer queue: scheduled releases at absolute times.
//!
//! An RTFM-style binary-heap timer queue over [`AbsoluteTime`]: the queue
//! only decides *which* release is next and *when* — firing is a single
//! heap pop, so scheduling overhead stays minimal and the engine's tick
//! loop does the bulk of the work. Ordering is earliest deadline first,
//! ties broken by higher [`Priority`], then FIFO (schedule order).
//!
//! Every slot is preallocated when the queue is built (deploy time):
//! `schedule`, `cancel` and `pop_due` never touch the heap allocator, so
//! an armed-but-unfired queue keeps the engine inside its
//! 0-allocations-per-transaction steady-state gate. A full queue refuses
//! further schedules with [`FrameworkError::Timer`] instead of growing.
//!
//! Handles are generation-checked: [`cancel`](TimerQueue::cancel) on a
//! handle whose timer already fired (or was already cancelled) is a safe
//! no-op returning `false`. Cancellation is O(1) and lazy — the heap
//! entry goes stale and is skipped (or compacted in place, never
//! reallocated) later.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use rtsj::thread::Priority;
use rtsj::time::AbsoluteTime;
use soleil_membrane::FrameworkError;

/// A generation-checked reference to one scheduled timer.
///
/// Copyable and cheap; survives the timer it names — once the timer fires
/// or is cancelled, the handle goes *stale* and every further operation
/// on it is a no-op.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimerHandle {
    slot: u32,
    generation: u32,
    /// The deployment whose queue issued the handle (its token nonce; 0 for
    /// a bare queue) and the shard of that queue — every queue starts at
    /// slot 0, generation 0, so slot and generation alone cannot tell two
    /// deployments' timers apart. The queue itself never reads either.
    deployment: u32,
    shard: u32,
}

impl TimerHandle {
    /// The handle stamped with the deployment and shard whose queue issued
    /// it.
    pub(crate) fn issued_by(self, deployment: u32, shard: usize) -> Self {
        TimerHandle {
            deployment,
            shard: shard as u32,
            ..self
        }
    }

    /// The deployment whose queue issued the handle.
    pub(crate) fn deployment(self) -> u32 {
        self.deployment
    }

    /// The shard whose queue issued the handle.
    pub(crate) fn shard(self) -> usize {
        self.shard as usize
    }
}

/// Heap entry. Field order *is* the ordering (derived lexicographic
/// `Ord` on a max-heap): earliest time first, then highest priority,
/// then FIFO by schedule sequence. `slot`/`generation` never influence
/// ordering — `seq` is unique — they just ride along for the stale check.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Entry {
    at: Reverse<AbsoluteTime>,
    priority: Priority,
    seq: Reverse<u64>,
    slot: u32,
    generation: u32,
}

/// Preallocated per-timer state; `generation` is bumped on every disarm
/// so stale heap entries and stale handles are recognized.
#[derive(Debug, Clone)]
struct Slot<T> {
    generation: u32,
    armed: bool,
    at: AbsoluteTime,
    priority: Priority,
    payload: Option<T>,
}

/// One fired timer, as returned by [`TimerQueue::pop_due`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fired<T> {
    /// The (now stale) handle the schedule call returned.
    pub handle: TimerHandle,
    /// The absolute time the timer was scheduled for.
    pub at: AbsoluteTime,
    /// The priority it was scheduled with.
    pub priority: Priority,
    /// The scheduled payload.
    pub payload: T,
}

/// A bounded, preallocated timer queue (see the module docs for the
/// ordering and zero-allocation guarantees).
#[derive(Debug)]
pub struct TimerQueue<T> {
    slots: Vec<Slot<T>>,
    /// Free slot indices (stack); top of the stack is handed out first.
    free: Vec<u32>,
    heap: BinaryHeap<Entry>,
    seq: u64,
    armed: usize,
}

impl<T> TimerQueue<T> {
    /// Builds a queue with room for `capacity` (at least 1) concurrently
    /// armed timers. All storage is allocated here, once.
    pub fn with_capacity(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        let mut slots = Vec::with_capacity(capacity);
        for _ in 0..capacity {
            slots.push(Slot {
                generation: 0,
                armed: false,
                at: AbsoluteTime::ZERO,
                priority: Priority::new(0),
                payload: None,
            });
        }
        TimerQueue {
            slots,
            free: (0..capacity as u32).rev().collect(),
            heap: BinaryHeap::with_capacity(capacity),
            seq: 0,
            armed: 0,
        }
    }

    /// Maximum number of concurrently armed timers.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Currently armed (scheduled, not yet fired or cancelled) timers.
    pub fn armed(&self) -> usize {
        self.armed
    }

    /// True when nothing is armed.
    pub fn is_empty(&self) -> bool {
        self.armed == 0
    }

    /// Bytes preallocated for the queue's storage (footprint reporting).
    pub fn footprint_bytes(&self) -> usize {
        self.slots.capacity() * std::mem::size_of::<Slot<T>>()
            + self.free.capacity() * std::mem::size_of::<u32>()
            + self.heap.capacity() * std::mem::size_of::<Entry>()
            + std::mem::size_of::<Self>()
    }

    /// Arms a timer firing at `at` with tie-breaking `priority`. Fails
    /// with [`FrameworkError::Timer`] when all slots are armed.
    pub fn schedule(
        &mut self,
        at: AbsoluteTime,
        priority: Priority,
        payload: T,
    ) -> Result<TimerHandle, FrameworkError> {
        if self.armed == self.capacity() {
            return Err(FrameworkError::Timer(format!(
                "timer queue full: all {} preallocated slots are armed",
                self.capacity()
            )));
        }
        // The heap may still hold stale entries for cancelled timers; if
        // it is physically full, compact it in place (`retain` rebuilds
        // without reallocating) so the push below cannot grow it.
        if self.heap.len() == self.capacity() {
            let slots = &self.slots;
            self.heap
                .retain(|e| slots[e.slot as usize].generation == e.generation);
        }
        let slot_ix = self
            .free
            .pop()
            .expect("armed < capacity implies a free slot");
        let slot = &mut self.slots[slot_ix as usize];
        slot.armed = true;
        slot.at = at;
        slot.priority = priority;
        slot.payload = Some(payload);
        let generation = slot.generation;
        self.seq += 1;
        self.heap.push(Entry {
            at: Reverse(at),
            priority,
            seq: Reverse(self.seq),
            slot: slot_ix,
            generation,
        });
        self.armed += 1;
        Ok(TimerHandle {
            slot: slot_ix,
            generation,
            deployment: 0,
            shard: 0,
        })
    }

    /// Disarms the timer behind `handle`. Returns `false` — with no other
    /// effect — when the handle is stale (already fired or cancelled).
    /// O(1): the heap entry is invalidated by generation, not removed.
    pub fn cancel(&mut self, handle: TimerHandle) -> bool {
        let Some(slot) = self.slots.get_mut(handle.slot as usize) else {
            return false;
        };
        if !slot.armed || slot.generation != handle.generation {
            return false;
        }
        slot.armed = false;
        slot.payload = None;
        slot.generation = slot.generation.wrapping_add(1);
        self.free.push(handle.slot);
        self.armed -= 1;
        true
    }

    /// Fires the most urgent timer due at or before `now`, if any.
    /// Callers drain with `while let Some(fired) = q.pop_due(now)`.
    pub fn pop_due(&mut self, now: AbsoluteTime) -> Option<Fired<T>> {
        loop {
            let e = self.heap.peek()?;
            let slot = &self.slots[e.slot as usize];
            if !slot.armed || slot.generation != e.generation {
                self.heap.pop();
                continue;
            }
            if e.at.0 > now {
                return None;
            }
            let e = self.heap.pop().expect("peeked entry exists");
            let slot = &mut self.slots[e.slot as usize];
            let payload = slot.payload.take().expect("armed slot carries a payload");
            let fired = Fired {
                handle: TimerHandle {
                    slot: e.slot,
                    generation: slot.generation,
                    deployment: 0,
                    shard: 0,
                },
                at: slot.at,
                priority: slot.priority,
                payload,
            };
            slot.armed = false;
            slot.generation = slot.generation.wrapping_add(1);
            self.free.push(e.slot);
            self.armed -= 1;
            return Some(fired);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: u64) -> AbsoluteTime {
        AbsoluteTime::from_nanos(ns)
    }

    fn p(level: u8) -> Priority {
        Priority::new(level)
    }

    #[test]
    fn fires_earliest_first_then_priority_then_fifo() {
        let mut q = TimerQueue::with_capacity(8);
        q.schedule(t(300), p(10), "late").unwrap();
        q.schedule(t(100), p(5), "early-low").unwrap();
        q.schedule(t(100), p(20), "early-high").unwrap();
        q.schedule(t(100), p(20), "early-high-2nd").unwrap();
        let mut order = Vec::new();
        while let Some(f) = q.pop_due(t(1_000)) {
            order.push(f.payload);
        }
        assert_eq!(order, ["early-high", "early-high-2nd", "early-low", "late"]);
        assert!(q.is_empty());
    }

    #[test]
    fn pop_due_respects_now() {
        let mut q = TimerQueue::with_capacity(4);
        let h = q.schedule(t(500), p(1), ()).unwrap();
        assert!(q.pop_due(t(499)).is_none());
        let fired = q.pop_due(t(500)).expect("due exactly at deadline");
        assert_eq!(fired.at, t(500));
        assert_eq!(fired.handle, h, "fired handle names the schedule");
        assert!(!q.cancel(h), "handle is stale after firing");
    }

    #[test]
    fn cancel_is_generation_checked() {
        let mut q = TimerQueue::with_capacity(2);
        let h1 = q.schedule(t(100), p(1), 1u32).unwrap();
        assert!(q.cancel(h1));
        assert!(!q.cancel(h1), "double cancel is a stale no-op");
        // The freed slot is reused with a new generation; the old handle
        // must not be able to cancel the new timer.
        let h2 = q.schedule(t(200), p(1), 2u32).unwrap();
        assert!(!q.cancel(h1));
        assert_eq!(q.pop_due(t(200)).map(|f| f.payload), Some(2));
        assert!(!q.cancel(h2));
    }

    #[test]
    fn full_queue_refuses_and_recovers() {
        let mut q = TimerQueue::with_capacity(2);
        let h = q.schedule(t(1), p(1), ()).unwrap();
        q.schedule(t(2), p(1), ()).unwrap();
        let err = q.schedule(t(3), p(1), ()).unwrap_err();
        assert!(matches!(err, FrameworkError::Timer(_)), "{err}");
        assert!(q.cancel(h));
        // Cancelling made room even though the stale heap entry remains;
        // scheduling compacts in place rather than growing.
        q.schedule(t(3), p(1), ()).unwrap();
        assert_eq!(q.armed(), 2);
        let mut fired = Vec::new();
        while let Some(f) = q.pop_due(t(10)) {
            fired.push(f.at);
        }
        assert_eq!(fired, [t(2), t(3)]);
    }

    #[test]
    fn churn_never_exceeds_preallocated_capacity() {
        let mut q = TimerQueue::with_capacity(3);
        // Repeatedly fill, cancel and refire; heap never needs to grow
        // past capacity because stale entries are compacted in place.
        for round in 0..50u64 {
            let a = q.schedule(t(round * 10 + 1), p(1), round).unwrap();
            let b = q.schedule(t(round * 10 + 2), p(2), round).unwrap();
            let c = q.schedule(t(round * 10 + 3), p(3), round).unwrap();
            assert!(q.cancel(b));
            assert_eq!(q.pop_due(t(round * 10 + 5)).map(|f| f.handle), Some(a));
            assert_eq!(q.pop_due(t(round * 10 + 5)).map(|f| f.handle), Some(c));
            assert!(q.is_empty());
        }
        assert_eq!(q.capacity(), 3);
    }
}
