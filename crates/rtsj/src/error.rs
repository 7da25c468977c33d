//! The RTSJ error taxonomy.
//!
//! RTSJ surfaces memory-model violations as unchecked Java exceptions
//! (`IllegalAssignmentError`, `ScopedCycleException`, `MemoryAccessError`,
//! `ThrowBoundaryError`, `OutOfMemoryError`, `InaccessibleAreaException`).
//! This module mirrors that taxonomy as a single [`RtsjError`] enum so the
//! framework layers can validate against and report the same failure classes
//! the specification defines.

use std::error::Error;
use std::fmt;

use crate::memory::AreaId;
use crate::thread::ThreadKind;

/// Every failure class the RTSJ substrate can raise.
///
/// The variants correspond one-to-one to the RTSJ exception types listed in
/// the module documentation, plus a small number of simulator-specific
/// conditions (`IllegalState`, `UnknownTask`) that in a real JVM would be
/// programming errors.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum RtsjError {
    /// `IllegalAssignmentError`: an attempt to store a reference to an object
    /// with a shorter (or sibling) lifetime into a longer-lived area.
    IllegalAssignment {
        /// The area the reference would have been stored into.
        holder: AreaId,
        /// The area owning the referenced object.
        target: AreaId,
    },
    /// `ScopedCycleException` / single-parent-rule violation: entering a
    /// scope from a scope stack that would give it a second parent.
    ScopedCycle {
        /// The scope being entered.
        scope: AreaId,
        /// The parent the scope already has.
        existing_parent: AreaId,
        /// The parent the offending `enter` implied.
        attempted_parent: AreaId,
    },
    /// `MemoryAccessError`: a `NoHeapRealtimeThread` attempted to read or
    /// write heap memory.
    MemoryAccess {
        /// The kind of thread that performed the access.
        thread: ThreadKind,
        /// The area that was illegally accessed.
        area: AreaId,
    },
    /// `OutOfMemoryError`: allocation exceeded the area's size budget.
    OutOfMemory {
        /// The exhausted area.
        area: AreaId,
        /// Bytes requested by the failing allocation (saturated at
        /// `usize::MAX` when the size itself overflows).
        requested: usize,
        /// Bytes remaining in the area at the time of the request.
        remaining: usize,
    },
    /// `InaccessibleAreaException`: an operation referred to a scope that is
    /// not on the current thread's scope stack.
    InaccessibleArea {
        /// The area that is not currently accessible.
        area: AreaId,
    },
    /// A handle outlived its scope: the scope was reclaimed (generation
    /// advanced) between allocation and access. RTSJ prevents this statically
    /// via the assignment rules; the simulator detects it dynamically so that
    /// deliberately-broken tests can observe the failure.
    StaleHandle {
        /// The area the handle pointed into.
        area: AreaId,
    },
    /// `ThrowBoundaryError`: an error propagated across a scope boundary into
    /// an area where its payload is unreachable.
    ThrowBoundary {
        /// The scope whose boundary was crossed.
        area: AreaId,
    },
    /// An operation was attempted in a state it is not valid in (e.g. exiting
    /// with an empty scope stack, re-creating the primordial areas).
    IllegalState(String),
    /// A scheduling operation named a task the simulator does not know.
    UnknownTask(u32),
}

impl fmt::Display for RtsjError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RtsjError::IllegalAssignment { holder, target } => write!(
                f,
                "illegal assignment: area {holder} may not hold a reference into area {target}"
            ),
            RtsjError::ScopedCycle {
                scope,
                existing_parent,
                attempted_parent,
            } => write!(
                f,
                "single parent rule violated for scope {scope}: parent is {existing_parent}, \
                 enter implied {attempted_parent}"
            ),
            RtsjError::MemoryAccess { thread, area } => write!(
                f,
                "memory access error: {thread} thread may not access area {area}"
            ),
            RtsjError::OutOfMemory {
                area,
                requested,
                remaining,
            } => write!(
                f,
                "out of memory in area {area}: requested {requested} bytes, {remaining} remain"
            ),
            RtsjError::InaccessibleArea { area } => {
                write!(f, "area {area} is not on the current scope stack")
            }
            RtsjError::StaleHandle { area } => {
                write!(
                    f,
                    "stale handle: area {area} was reclaimed since allocation"
                )
            }
            RtsjError::ThrowBoundary { area } => {
                write!(f, "throw boundary error crossing scope {area}")
            }
            RtsjError::IllegalState(msg) => write!(f, "illegal state: {msg}"),
            RtsjError::UnknownTask(id) => write!(f, "unknown task id {id}"),
        }
    }
}

impl Error for RtsjError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::AreaId;

    #[test]
    fn display_is_informative() {
        let e = RtsjError::IllegalAssignment {
            holder: AreaId::HEAP,
            target: AreaId::from_raw(7),
        };
        let s = e.to_string();
        assert!(s.contains("illegal assignment"), "got: {s}");
        assert!(s.contains("heap"), "got: {s}");
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync + 'static>() {}
        assert_send_sync::<RtsjError>();
    }

    #[test]
    fn errors_compare_equal_structurally() {
        let a = RtsjError::IllegalState("x".into());
        let b = RtsjError::IllegalState("x".into());
        assert_eq!(a, b);
    }
}
