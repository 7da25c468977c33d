//! Framework-level errors raised by the control layer.

use std::error::Error;
use std::fmt;

use rtsj::RtsjError;
use soleil_core::{SoleilError, ValidationReport};

/// The class of a contained component fault (see
/// [`FrameworkError::Faulted`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The content panicked during activation; the panic was caught at the
    /// activation boundary. When the fault policy contains it, the
    /// component is quarantined poisoned until a restart.
    Panic,
    /// The content (or an injected fault) returned an error the
    /// component's fault policy is asked to handle.
    Error,
    /// A message addressed to the component was deliberately dropped (by a
    /// fault injector or a quarantine gate) and counted.
    Drop,
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultKind::Panic => write!(f, "panic"),
            FaultKind::Error => write!(f, "error"),
            FaultKind::Drop => write!(f, "drop"),
        }
    }
}

/// Failures raised by membranes, controllers and the execution engine.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum FrameworkError {
    /// An RTSJ substrate violation (assignment rule, scope cycle, …).
    Rtsj(RtsjError),
    /// An operation on a component in the wrong lifecycle state.
    Lifecycle(String),
    /// A binding lookup or reconfiguration failure.
    Binding(String),
    /// A violation of the run-to-completion execution model (re-entrant
    /// activation of an active component).
    RunToCompletion(String),
    /// An error reported by a content implementation.
    Content(String),
    /// An operation the current generation mode does not support (e.g.
    /// reconfiguration under ULTRA-MERGE).
    Unsupported(String),
    /// A release-engine timer operation that could not be honored (queue
    /// exhausted, release target not periodic, …). The timer queue is
    /// preallocated at deploy time, so exhaustion is a capacity decision,
    /// not an allocation failure.
    Timer(String),
    /// A transactional reconfiguration whose resulting architecture the
    /// validator refused; the transaction was rolled back and the full
    /// report is preserved.
    Rejected(ValidationReport),
    /// A fault contained at a component's activation boundary: a caught
    /// panic, a content error routed to the component's fault policy, or a
    /// counted message drop. Carries the faulting component's name so
    /// supervision can attribute the fault without string parsing.
    Faulted {
        /// Name of the component where the fault originated.
        component: String,
        /// The class of fault.
        kind: FaultKind,
        /// Human-readable detail (panic payload, content error text, …).
        detail: String,
    },
    /// An interceptor-chain unwind during which *several* interceptors
    /// failed: the first error is preserved, and `suppressed` further
    /// errors were swallowed so the chain could still unwind completely
    /// (the run-to-completion discipline never leaves a chain half-wound).
    Unwind {
        /// The first error raised during the unwind.
        first: Box<FrameworkError>,
        /// How many further interceptor errors were suppressed after
        /// `first` while the unwind continued.
        suppressed: u32,
    },
}

impl FrameworkError {
    /// Attaches the count of interceptor errors suppressed during a chain
    /// unwind to the first error observed. With `suppressed == 0` the
    /// error passes through unchanged; otherwise it is wrapped in
    /// [`FrameworkError::Unwind`] so callers can see that more than one
    /// interceptor failed.
    #[must_use]
    pub fn with_suppressed(first: FrameworkError, suppressed: u32) -> FrameworkError {
        if suppressed == 0 {
            first
        } else {
            FrameworkError::Unwind {
                first: Box::new(first),
                suppressed,
            }
        }
    }
}

impl fmt::Display for FrameworkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameworkError::Rtsj(e) => write!(f, "rtsj violation: {e}"),
            FrameworkError::Lifecycle(m) => write!(f, "lifecycle error: {m}"),
            FrameworkError::Binding(m) => write!(f, "binding error: {m}"),
            FrameworkError::RunToCompletion(m) => write!(f, "run-to-completion violated: {m}"),
            FrameworkError::Content(m) => write!(f, "content error: {m}"),
            FrameworkError::Unsupported(m) => write!(f, "unsupported in this mode: {m}"),
            FrameworkError::Timer(m) => write!(f, "timer error: {m}"),
            FrameworkError::Rejected(report) => {
                write!(f, "reconfiguration rejected, rolled back:\n{report}")
            }
            FrameworkError::Faulted {
                component,
                kind,
                detail,
            } => {
                write!(f, "component '{component}' faulted ({kind}): {detail}")
            }
            FrameworkError::Unwind { first, suppressed } => {
                write!(
                    f,
                    "{first} ({suppressed} further interceptor error(s) suppressed during unwind)"
                )
            }
        }
    }
}

impl Error for FrameworkError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            FrameworkError::Rtsj(e) => Some(e),
            FrameworkError::Unwind { first, .. } => Some(first.as_ref()),
            _ => None,
        }
    }
}

impl From<RtsjError> for FrameworkError {
    fn from(e: RtsjError) -> Self {
        FrameworkError::Rtsj(e)
    }
}

impl From<FrameworkError> for SoleilError {
    fn from(e: FrameworkError) -> Self {
        match e {
            // Substrate violations keep their structured form.
            FrameworkError::Rtsj(inner) => SoleilError::Rtsj(inner),
            // A refused reconfiguration keeps its structured report.
            FrameworkError::Rejected(report) => SoleilError::Validation(report),
            other => SoleilError::Framework(other.to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_and_sources() {
        let e = FrameworkError::from(RtsjError::IllegalState("x".into()));
        assert!(e.to_string().contains("rtsj violation"));
        assert!(e.source().is_some());
        let l = FrameworkError::Lifecycle("stopped".into());
        assert!(l.source().is_none());
        assert!(l.to_string().contains("stopped"));
    }

    #[test]
    fn suppressed_counts_wrap_the_first_error() {
        let first = FrameworkError::RunToCompletion("re-entered".into());
        // Zero suppressed errors: the first error passes through untouched.
        assert_eq!(
            FrameworkError::with_suppressed(first.clone(), 0),
            FrameworkError::RunToCompletion("re-entered".into())
        );
        let wrapped = FrameworkError::with_suppressed(first, 2);
        let FrameworkError::Unwind { suppressed, .. } = &wrapped else {
            panic!("expected Unwind, got {wrapped}");
        };
        assert_eq!(*suppressed, 2);
        assert!(wrapped.to_string().contains("re-entered"));
        assert!(wrapped.to_string().contains("2 further interceptor"));
        assert!(wrapped.source().is_some(), "first error is the source");
    }

    #[test]
    fn faulted_displays_component_and_kind() {
        let e = FrameworkError::Faulted {
            component: "Detector".into(),
            kind: FaultKind::Panic,
            detail: "index out of bounds".into(),
        };
        assert_eq!(
            e.to_string(),
            "component 'Detector' faulted (panic): index out of bounds"
        );
        assert_eq!(FaultKind::Error.to_string(), "error");
        assert_eq!(FaultKind::Drop.to_string(), "drop");
        assert!(e.source().is_none());
    }

    #[test]
    fn is_send_sync() {
        fn check<T: Send + Sync + 'static>() {}
        check::<FrameworkError>();
    }

    #[test]
    fn converts_into_unified_error() {
        let lifecycle = FrameworkError::Lifecycle("component is stopped".into());
        let text = lifecycle.to_string();
        let unified: SoleilError = lifecycle.into();
        assert!(matches!(unified, SoleilError::Framework(_)));
        assert_eq!(unified.to_string(), text);

        // Substrate violations re-surface as the structured Rtsj variant.
        let rtsj = FrameworkError::Rtsj(RtsjError::IllegalState("x".into()));
        assert!(matches!(SoleilError::from(rtsj), SoleilError::Rtsj(_)));
    }

    #[test]
    fn question_mark_crosses_layers() {
        fn framework_op() -> Result<(), FrameworkError> {
            Err(FrameworkError::Binding("no such client interface".into()))
        }
        fn application_op() -> Result<(), SoleilError> {
            framework_op()?;
            Ok(())
        }
        let err = application_op().unwrap_err();
        assert!(err.to_string().contains("no such client interface"));
    }
}
