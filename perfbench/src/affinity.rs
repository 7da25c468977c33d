//! Per-round CPU placement of the measuring thread.
//!
//! On a shared host one vCPU can run memory-bound code up to 60% slower
//! than the other, for seconds to minutes, while its physical core is busy
//! with another tenant. A single-threaded loop stays wherever the scheduler
//! put it, so a whole run could land on the slow one. Rounds therefore pin
//! the measuring thread to the process's CPUs in turn, and the per-round
//! summaries (the lowest tenth of rounds) take their values from whichever
//! CPU was fast. Calls that spawn shard threads run unpinned, since spawned
//! threads inherit the caller's CPUs. Elsewhere than Linux nothing is
//! pinned.

use std::cell::Cell;
use std::sync::OnceLock;

/// 64-bit words of a kernel CPU set (1024 CPUs).
const WORDS: usize = 16;

type CpuSet = [u64; WORDS];

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// The CPUs the process may run on, read once; empty when unknown.
fn allowed() -> &'static CpuSet {
    static MASK: OnceLock<CpuSet> = OnceLock::new();
    MASK.get_or_init(|| {
        let mut mask = [0u64; WORDS];
        #[cfg(target_os = "linux")]
        {
            // SAFETY: the kernel writes at most `size` bytes into `mask`,
            // which is exactly `size` bytes long.
            let size = std::mem::size_of_val(&mask);
            if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
                mask = [0; WORDS];
            }
        }
        mask
    })
}

/// Restricts the calling thread to `mask`. A refusal leaves it where it is.
fn set(mask: &CpuSet) {
    #[cfg(target_os = "linux")]
    {
        // SAFETY: the kernel reads `size` bytes from `mask`, which is
        // exactly `size` bytes long.
        let size = std::mem::size_of_val(mask);
        unsafe { sched_setaffinity(0, size, mask.as_ptr()) };
    }
    #[cfg(not(target_os = "linux"))]
    let _ = mask;
}

thread_local! {
    /// The slot the calling thread is pinned to, if any.
    static PINNED: Cell<Option<u64>> = const { Cell::new(None) };
}

/// Pins the calling thread to the `slot`-th allowed CPU, counting round
/// the allowed set. Does nothing with fewer than two allowed CPUs.
pub fn pin(slot: u64) {
    let all = allowed();
    let n: u32 = all.iter().map(|w| w.count_ones()).sum();
    if n < 2 {
        return;
    }
    let mut k = (slot % u64::from(n)) as u32;
    let mut one = [0u64; WORDS];
    'find: for (i, w) in all.iter().enumerate() {
        for bit in 0..64 {
            if w >> bit & 1 == 1 {
                if k == 0 {
                    one[i] = 1 << bit;
                    break 'find;
                }
                k -= 1;
            }
        }
    }
    set(&one);
    PINNED.with(|p| p.set(Some(slot)));
}

/// Lets the calling thread run on every allowed CPU again.
pub fn unpin() {
    if PINNED.with(|p| p.take()).is_some() {
        set(allowed());
    }
}

/// Runs `f` unpinned, then pins the calling thread back to its slot.
pub fn unpinned<R>(f: impl FnOnce() -> R) -> R {
    let slot = PINNED.with(Cell::get);
    unpin();
    let out = f();
    if let Some(slot) = slot {
        pin(slot);
    }
    out
}
