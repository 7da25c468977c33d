//! Wait-free single-producer/single-consumer rings — the cross-domain
//! message carrier of the parallel runtime.
//!
//! RTSJ's `WaitFreeWriteQueue` exists so that a real-time producer can hand
//! messages to a consumer on another thread without ever blocking on it:
//! both ends complete in a bounded number of steps regardless of what the
//! peer is doing. This module mirrors that contract for bindings whose
//! endpoints live in *different thread domains* (and therefore, under the
//! parallel runtime, in different engine shards). Same-domain bindings keep
//! the non-atomic [`ExchangeBuffer`](crate::ExchangeBuffer) fast path; the
//! carrier is chosen at build time from the deployment plan.
//!
//! ## Design
//!
//! * **Atomic head/tail, preallocated slots.** The producer owns `tail`,
//!   the consumer owns `head`; each publishes its own counter with
//!   `Release` and reads the peer's with `Acquire`. Slot storage is fully
//!   provisioned in [`spsc_ring`] — push/pop never allocate.
//! * **Bounded backpressure.** A full ring rejects the message
//!   ([`PushOutcome::Rejected`]), exactly like the bounded
//!   `ExchangeBuffer`: a high-priority consumer is never stalled by a
//!   bursty producer, and a producer is never stalled by a slow consumer.
//! * **Monotone counters, power-of-two masking.** Head/tail increase
//!   monotonically and are reduced to slot indices with a mask, keeping
//!   integer division off the hot path (the logical capacity is still
//!   exactly what the caller asked for).
//! * **Safety without `unsafe`.** This crate forbids `unsafe` code, so the
//!   slots are `Mutex<Option<T>>`. The head/tail protocol guarantees the
//!   producer and consumer never address the same slot concurrently, so
//!   every lock acquisition is uncontended — a single atomic operation,
//!   never a wait — and both operations remain bounded. `try_lock` is used
//!   and a contended slot is treated as a protocol violation (unreachable
//!   through this API, which hands out exactly one producer and one
//!   consumer endpoint, both `!Clone`).
//!
//! ```
//! use soleil_patterns::spsc::spsc_ring;
//! use soleil_patterns::PushOutcome;
//!
//! let (mut tx, mut rx) = spsc_ring::<u64>(2).unwrap();
//! assert_eq!(tx.push(7), PushOutcome::Accepted);
//! assert_eq!(tx.push(8), PushOutcome::Accepted);
//! assert_eq!(tx.push(9), PushOutcome::Rejected); // full: bounded backpressure
//! assert_eq!(rx.pop(), Some(7));
//! assert_eq!(rx.pop(), Some(8));
//! assert_eq!(rx.pop(), None);
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use rtsj::{Result, RtsjError};

use crate::PushOutcome;

/// Shared ring state. `slots.len()` is the capacity rounded up to a power
/// of two; `capacity` is the logical bound the caller asked for.
#[derive(Debug)]
struct Shared<T> {
    slots: Box<[Mutex<Option<T>>]>,
    mask: usize,
    capacity: usize,
    /// Next slot the consumer will read (monotone; owned by the consumer).
    head: AtomicUsize,
    /// Next slot the producer will write (monotone; owned by the producer).
    tail: AtomicUsize,
}

/// The producer endpoint of a [`spsc_ring`]. `Send` but deliberately
/// neither `Clone` nor `Sync`: *single*-producer is what makes the ring
/// wait-free.
#[derive(Debug)]
pub struct SpscProducer<T> {
    shared: Arc<Shared<T>>,
    /// Producer-local cache of the consumer's head, refreshed only when
    /// the ring looks full — most pushes perform one `Acquire` load
    /// (of nothing) and one `Release` store.
    head_cache: usize,
    pushed: u64,
    rejected: u64,
}

/// The consumer endpoint of a [`spsc_ring`].
#[derive(Debug)]
pub struct SpscConsumer<T> {
    shared: Arc<Shared<T>>,
    popped: u64,
}

/// Creates a wait-free SPSC ring of `capacity` messages, fully provisioned
/// up front: neither [`SpscProducer::push`] nor [`SpscConsumer::pop`]
/// allocates afterwards.
///
/// # Errors
///
/// [`RtsjError::IllegalState`] for zero capacity, for a capacity with no
/// power of two at or above it in `usize`, and when the host cannot
/// provide the slot table (refused, never aborted).
pub fn spsc_ring<T: Send>(capacity: usize) -> Result<(SpscProducer<T>, SpscConsumer<T>)> {
    if capacity == 0 {
        return Err(RtsjError::IllegalState(
            "spsc ring capacity must be >= 1".into(),
        ));
    }
    let physical = capacity.checked_next_power_of_two().ok_or_else(|| {
        RtsjError::IllegalState(format!(
            "spsc ring capacity {capacity} has no power-of-two slot count"
        ))
    })?;
    let mut slots = Vec::new();
    slots.try_reserve_exact(physical).map_err(|_| {
        RtsjError::IllegalState(format!(
            "spsc ring slot table of {physical} slots cannot be allocated"
        ))
    })?;
    slots.resize_with(physical, || Mutex::new(None));
    let shared = Arc::new(Shared {
        slots: slots.into_boxed_slice(),
        mask: physical - 1,
        capacity,
        head: AtomicUsize::new(0),
        tail: AtomicUsize::new(0),
    });
    Ok((
        SpscProducer {
            shared: Arc::clone(&shared),
            head_cache: 0,
            pushed: 0,
            rejected: 0,
        },
        SpscConsumer { shared, popped: 0 },
    ))
}

impl<T: Send> SpscProducer<T> {
    /// Enqueues `value`, rejecting it when the ring holds `capacity`
    /// messages — bounded, wait-free backpressure: the call never blocks
    /// on the consumer.
    pub fn push(&mut self, value: T) -> PushOutcome {
        let tail = self.shared.tail.load(Ordering::Relaxed);
        if tail - self.head_cache >= self.shared.capacity {
            // Looks full through the cache: refresh from the consumer.
            self.head_cache = self.shared.head.load(Ordering::Acquire);
            if tail - self.head_cache >= self.shared.capacity {
                self.rejected += 1;
                return PushOutcome::Rejected;
            }
        }
        let slot = &self.shared.slots[tail & self.shared.mask];
        // Uncontended by protocol: the consumer only touches slots strictly
        // before `tail`, and this slot was vacated before `head` passed it.
        *slot.try_lock().expect("spsc protocol: producer slot busy") = Some(value);
        self.shared.tail.store(tail + 1, Ordering::Release);
        self.pushed += 1;
        PushOutcome::Accepted
    }

    /// Messages accepted so far.
    pub fn pushed(&self) -> u64 {
        self.pushed
    }

    /// Messages rejected by a full ring so far.
    pub fn rejected(&self) -> u64 {
        self.rejected
    }

    /// True while the consumer endpoint is still alive. A retired ring —
    /// reconfiguration rewired the binding and dropped the consumer — is
    /// recognizable here: pushes into it would only fill the ring and then
    /// reject, so callers that outlive a rewiring can assert (or skip)
    /// instead of publishing into the void.
    pub fn peer_attached(&self) -> bool {
        Arc::strong_count(&self.shared) > 1
    }

    /// The logical capacity.
    pub fn capacity(&self) -> usize {
        self.shared.capacity
    }
}

/// A batched drain of the ring: the producer's published `tail` is
/// snapshotted **once** when the batch is created, and the iterator pops
/// exactly the run of messages visible at that point — amortizing the
/// `Acquire` load over the whole run instead of paying it per message.
/// Messages published during the batch are left for the next pass (the
/// caller's drain loop re-snapshots). Each pop still publishes `head` with
/// `Release` immediately, so producer backpressure sees freed slots
/// without waiting for the batch to finish.
#[derive(Debug)]
pub struct SpscDrain<'a, T> {
    consumer: &'a mut SpscConsumer<T>,
    tail: usize,
}

impl<T: Send> Iterator for SpscDrain<'_, T> {
    type Item = T;

    fn next(&mut self) -> Option<T> {
        let head = self.consumer.shared.head.load(Ordering::Relaxed);
        if head == self.tail {
            return None;
        }
        let slot = &self.consumer.shared.slots[head & self.consumer.shared.mask];
        let value = slot
            .try_lock()
            .expect("spsc protocol: consumer slot busy")
            .take();
        debug_assert!(value.is_some(), "published spsc slot was empty");
        self.consumer.shared.head.store(head + 1, Ordering::Release);
        self.consumer.popped += 1;
        value
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let head = self.consumer.shared.head.load(Ordering::Relaxed);
        let remaining = self.tail - head;
        (remaining, Some(remaining))
    }
}

impl<T: Send> SpscConsumer<T> {
    /// Dequeues the oldest message, if any. Never blocks on the producer.
    /// A batch of one: same snapshot/pop protocol as [`drain_batch`],
    /// single implementation.
    ///
    /// [`drain_batch`]: Self::drain_batch
    pub fn pop(&mut self) -> Option<T> {
        self.drain_batch().next()
    }

    /// Begins a batched drain: one `Acquire` snapshot of the producer's
    /// published tail, then wait-free pops of the whole visible run — the
    /// carrier-side half of the parallel runtime's batched ring drains.
    pub fn drain_batch(&mut self) -> SpscDrain<'_, T> {
        let tail = self.shared.tail.load(Ordering::Acquire);
        SpscDrain {
            consumer: self,
            tail,
        }
    }

    /// True when no message is visible to the consumer.
    pub fn is_empty(&self) -> bool {
        self.shared.head.load(Ordering::Relaxed) == self.shared.tail.load(Ordering::Acquire)
    }

    /// Messages observed by the consumer (an instantaneous lower bound;
    /// the producer may be mid-publish).
    pub fn len(&self) -> usize {
        let head = self.shared.head.load(Ordering::Relaxed);
        let tail = self.shared.tail.load(Ordering::Acquire);
        tail - head
    }

    /// Messages dequeued so far.
    pub fn popped(&self) -> u64 {
        self.popped
    }

    /// True while the producer endpoint is still alive. Once it is gone,
    /// the messages visible now are all there will ever be — the drain
    /// loop that empties a retired ring during a reconfiguration epoch
    /// can stop after one final pass.
    pub fn peer_attached(&self) -> bool {
        Arc::strong_count(&self.shared) > 1
    }

    /// The logical capacity.
    pub fn capacity(&self) -> usize {
        self.shared.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endpoints_are_send() {
        fn assert_send<T: Send>() {}
        assert_send::<SpscProducer<String>>();
        assert_send::<SpscConsumer<String>>();
    }

    #[test]
    fn zero_capacity_rejected() {
        assert!(spsc_ring::<u8>(0).is_err());
    }

    #[test]
    fn unprovisionable_capacities_are_refused_not_wrapped() {
        // Above 2^63 the power of two does not exist in `usize`; 2^62
        // slots exceed the largest allocation Rust can request.
        for capacity in [usize::MAX, (1 << 63) + 1, 1 << 62] {
            assert!(
                matches!(spsc_ring::<u64>(capacity), Err(RtsjError::IllegalState(_))),
                "{capacity}"
            );
        }
    }

    #[test]
    fn retirement_is_observable_from_both_endpoints() {
        let (mut tx, mut rx) = spsc_ring::<u32>(2).unwrap();
        assert!(tx.peer_attached());
        assert!(rx.peer_attached());
        tx.push(1);
        drop(tx);
        // Producer retired: what is visible now is final.
        assert!(!rx.peer_attached());
        assert_eq!(rx.pop(), Some(1));
        assert_eq!(rx.pop(), None);

        let (tx2, rx2) = spsc_ring::<u32>(2).unwrap();
        drop(rx2);
        assert!(!tx2.peer_attached(), "consumer retired by a rewiring");
    }

    #[test]
    fn fifo_order_and_backpressure() {
        let (mut tx, mut rx) = spsc_ring::<u32>(3).unwrap();
        assert_eq!(tx.push(1), PushOutcome::Accepted);
        assert_eq!(tx.push(2), PushOutcome::Accepted);
        assert_eq!(tx.push(3), PushOutcome::Accepted);
        assert_eq!(tx.push(4), PushOutcome::Rejected);
        assert_eq!(tx.rejected(), 1);
        assert_eq!(rx.pop(), Some(1));
        assert_eq!(tx.push(4), PushOutcome::Accepted, "slot freed by pop");
        assert_eq!(rx.pop(), Some(2));
        assert_eq!(rx.pop(), Some(3));
        assert_eq!(rx.pop(), Some(4));
        assert_eq!(rx.pop(), None);
        assert!(rx.is_empty());
        assert_eq!(tx.pushed(), 4);
        assert_eq!(rx.popped(), 4);
    }

    #[test]
    fn non_power_of_two_capacity_bounds_logically() {
        // Physical storage rounds up to 8, but the logical bound stays 5.
        let (mut tx, mut rx) = spsc_ring::<u8>(5).unwrap();
        assert_eq!(tx.capacity(), 5);
        assert_eq!(rx.capacity(), 5);
        for i in 0..5 {
            assert_eq!(tx.push(i), PushOutcome::Accepted);
        }
        assert_eq!(tx.push(9), PushOutcome::Rejected);
        assert_eq!(rx.len(), 5);
        for i in 0..5 {
            assert_eq!(rx.pop(), Some(i));
        }
    }

    #[test]
    fn wraparound_preserves_fifo_far_past_capacity() {
        let (mut tx, mut rx) = spsc_ring::<u64>(3).unwrap();
        // Keep two in flight for hundreds of laps around the ring.
        for round in 0..500u64 {
            assert_eq!(tx.push(round), PushOutcome::Accepted);
            if round >= 2 {
                assert_eq!(rx.pop(), Some(round - 2));
            }
        }
        assert_eq!(rx.pop(), Some(498));
        assert_eq!(rx.pop(), Some(499));
        assert_eq!(rx.pop(), None);
    }

    #[test]
    fn two_threads_conserve_and_order_messages() {
        let (mut tx, mut rx) = spsc_ring::<u64>(16).unwrap();
        const N: u64 = 10_000;
        std::thread::scope(|s| {
            s.spawn(move || {
                let mut next = 0;
                while next < N {
                    if tx.push(next) == PushOutcome::Accepted {
                        next += 1;
                    } else {
                        std::thread::yield_now();
                    }
                }
            });
            let mut expected = 0;
            while expected < N {
                match rx.pop() {
                    Some(v) => {
                        assert_eq!(v, expected, "messages must arrive in order");
                        expected += 1;
                    }
                    None => std::hint::spin_loop(),
                }
            }
            assert_eq!(rx.pop(), None);
        });
    }

    #[test]
    fn drain_batch_pops_only_the_snapshot_run() {
        let (mut tx, mut rx) = spsc_ring::<u32>(8).unwrap();
        for i in 0..3 {
            assert_eq!(tx.push(i), PushOutcome::Accepted);
        }
        {
            let mut batch = rx.drain_batch();
            assert_eq!(batch.size_hint(), (3, Some(3)));
            assert_eq!(batch.next(), Some(0));
            // Published *during* the batch: invisible until the next snapshot.
            assert_eq!(tx.push(99), PushOutcome::Accepted);
            assert_eq!(batch.next(), Some(1));
            assert_eq!(batch.next(), Some(2));
            assert_eq!(batch.next(), None, "batch is bounded by its snapshot");
        }
        assert_eq!(rx.drain_batch().collect::<Vec<_>>(), vec![99]);
        assert_eq!(rx.popped(), 4);
        assert!(rx.is_empty());
    }

    #[test]
    fn drain_batch_frees_slots_for_the_producer_mid_batch() {
        // Capacity 2: the producer is blocked until the batch pops one —
        // head publication is per message, not per batch.
        let (mut tx, mut rx) = spsc_ring::<u8>(2).unwrap();
        assert_eq!(tx.push(1), PushOutcome::Accepted);
        assert_eq!(tx.push(2), PushOutcome::Accepted);
        assert_eq!(tx.push(3), PushOutcome::Rejected);
        {
            let mut batch = rx.drain_batch();
            assert_eq!(batch.next(), Some(1));
            assert_eq!(
                tx.push(3),
                PushOutcome::Accepted,
                "slot freed by the in-flight batch"
            );
            assert_eq!(batch.next(), Some(2));
            assert_eq!(batch.next(), None);
        }
        assert_eq!(rx.pop(), Some(3));
    }

    #[test]
    fn drain_batch_interleaves_with_wraparound() {
        let (mut tx, mut rx) = spsc_ring::<u64>(3).unwrap();
        let mut expected = 0u64;
        for round in 0..400u64 {
            assert_eq!(tx.push(2 * round), PushOutcome::Accepted);
            assert_eq!(tx.push(2 * round + 1), PushOutcome::Accepted);
            for v in rx.drain_batch() {
                assert_eq!(v, expected, "batched pops preserve FIFO");
                expected += 1;
            }
        }
        assert_eq!(expected, 800);
        assert!(rx.is_empty());
    }

    #[test]
    fn drop_with_messages_in_flight_is_clean() {
        let (mut tx, rx) = spsc_ring::<String>(4).unwrap();
        tx.push("alpha".into());
        tx.push("beta".into());
        drop(rx);
        drop(tx); // remaining messages drop with the shared state
    }
}
