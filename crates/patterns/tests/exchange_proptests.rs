//! Differential property for the exchange ring's per-operation checks.
//!
//! An immortal ring skips the liveness check that heap and scoped rings run
//! on every operation. This property drives random operation sequences over
//! rings in all three kinds of area, under every thread kind, while the
//! scope their scoped rings live in is exited (reclaimed) and re-entered,
//! and compares every outcome with an oracle that knows nothing of the
//! skip:
//!
//! * an operation fails exactly when the ring is on the heap and the
//!   context is NHRT ([`RtsjError::MemoryAccess`]), or the ring is scoped
//!   and its scope was reclaimed since the ring was created
//!   ([`RtsjError::StaleHandle`]);
//! * accepted messages leave in order, up to the capacity, as a
//!   `VecDeque` model of the ring gives them.

use std::collections::VecDeque;

use proptest::prelude::*;
use rtsj::memory::{AreaId, MemoryContext, MemoryKind, MemoryManager, ScopedMemoryParams};
use rtsj::thread::ThreadKind;
use rtsj::{Result, RtsjError};
use soleil_patterns::{ExchangeBuffer, PushOutcome};

const KINDS: [ThreadKind; 3] = [
    ThreadKind::Regular,
    ThreadKind::Realtime,
    ThreadKind::NoHeapRealtime,
];

#[derive(Debug, Clone)]
enum Op {
    /// Push the next message on ring `ring` under thread kind `kind`.
    Push { ring: usize, kind: usize },
    /// Pop ring `ring` under thread kind `kind`.
    Pop { ring: usize, kind: usize },
    /// The scope's only occupant leaves (reclaiming it) and enters again.
    Reenter,
    /// A fresh scoped ring replaces the scoped ring: live until the next
    /// reclamation.
    FreshScoped { capacity: usize },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0usize..3, 0usize..3).prop_map(|(ring, kind)| Op::Push { ring, kind }),
        (0usize..3, 0usize..3).prop_map(|(ring, kind)| Op::Pop { ring, kind }),
        Just(Op::Reenter),
        (1usize..6).prop_map(|capacity| Op::FreshScoped { capacity }),
    ]
}

/// One ring under test and its model.
struct Ring {
    buf: ExchangeBuffer<u64>,
    kind: MemoryKind,
    model: VecDeque<u64>,
    /// The scope reclaimed since this ring was created (scoped rings).
    reclaimed: bool,
}

impl Ring {
    fn new(
        mm: &mut MemoryManager,
        ctx: &MemoryContext,
        area: AreaId,
        kind: MemoryKind,
        capacity: usize,
    ) -> Ring {
        Ring {
            buf: ExchangeBuffer::create(mm, ctx, area, capacity).expect("ring fits its area"),
            kind,
            model: VecDeque::with_capacity(capacity),
            reclaimed: false,
        }
    }

    /// The oracle: the error every operation on this ring under `thread`
    /// must give, or `None` when it must succeed.
    fn refusal(&self, thread: ThreadKind) -> Option<RtsjError> {
        let area = self.buf.area();
        match self.kind {
            MemoryKind::Heap if !thread.may_access_heap() => {
                Some(RtsjError::MemoryAccess { thread, area })
            }
            MemoryKind::Scoped if self.reclaimed => Some(RtsjError::StaleHandle { area }),
            _ => None,
        }
    }

    /// Checks `outcome` against the oracle; true when it must have
    /// succeeded.
    fn matches<T: std::fmt::Debug>(&self, thread: ThreadKind, outcome: &Result<T>) -> bool {
        match (self.refusal(thread), outcome) {
            (None, Ok(_)) => true,
            (Some(expected), Err(got)) => {
                assert_eq!(got, &expected, "{:?} ring under {thread:?}", self.kind);
                false
            }
            (expected, got) => panic!(
                "{:?} ring under {thread:?}: oracle {expected:?}, ring {got:?}",
                self.kind
            ),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every push and pop on heap, immortal and scoped rings, under every
    /// thread kind and across scope reclamations, fails exactly when the
    /// oracle says so, with the oracle's error; and what is accepted
    /// leaves in FIFO order, bounded by the capacity.
    #[test]
    fn ring_checks_match_the_oracle(
        capacities in (1usize..6, 1usize..6, 1usize..6),
        ops in proptest::collection::vec(op_strategy(), 1..120),
    ) {
        let mut mm = MemoryManager::new(1 << 20, 1 << 20);
        let scope = mm
            .create_scoped(ScopedMemoryParams::new("scope", 64 * 1024))
            .unwrap();
        // The scope's only occupant: its exit reclaims the scope.
        let mut keeper = mm.context(ThreadKind::Realtime);
        mm.enter(&mut keeper, scope).unwrap();
        let contexts = KINDS.map(|kind| mm.context(kind));
        let (heap, immortal) = (MemoryKind::Heap, MemoryKind::Immortal);
        let mut rings = [
            Ring::new(&mut mm, &contexts[0], AreaId::HEAP, heap, capacities.0),
            Ring::new(&mut mm, &contexts[1], AreaId::IMMORTAL, immortal, capacities.1),
            Ring::new(&mut mm, &keeper, scope, MemoryKind::Scoped, capacities.2),
        ];
        let mut next = 0u64;
        for op in ops {
            match op {
                Op::Push { ring, kind } => {
                    let (r, ctx) = (&mut rings[ring], &contexts[kind]);
                    let outcome = r.buf.push(&mut mm, ctx, next);
                    if r.matches(KINDS[kind], &outcome) {
                        if r.model.len() < r.buf.capacity() {
                            prop_assert_eq!(outcome.unwrap(), PushOutcome::Accepted);
                            r.model.push_back(next);
                        } else {
                            prop_assert_eq!(outcome.unwrap(), PushOutcome::Rejected);
                        }
                    }
                    next += 1;
                }
                Op::Pop { ring, kind } => {
                    let (r, ctx) = (&mut rings[ring], &contexts[kind]);
                    let outcome = r.buf.pop(&mut mm, ctx);
                    if r.matches(KINDS[kind], &outcome) {
                        prop_assert_eq!(outcome.unwrap(), r.model.pop_front());
                    }
                }
                Op::Reenter => {
                    mm.exit(&mut keeper).unwrap();
                    rings[2].reclaimed = true;
                    mm.enter(&mut keeper, scope).unwrap();
                }
                Op::FreshScoped { capacity } => {
                    rings[2] = Ring::new(&mut mm, &keeper, scope, MemoryKind::Scoped, capacity);
                }
            }
            // The queue length obeys the same rule under every context.
            for (r, ctx) in rings.iter().flat_map(|r| contexts.iter().map(move |c| (r, c))) {
                let len = r.buf.len(&mm, ctx);
                if r.matches(ctx.thread_kind(), &len) {
                    prop_assert_eq!(len.unwrap(), r.model.len());
                }
            }
        }
    }
}
