//! Declarative runtime timing contracts, checked online.
//!
//! Design-time validation ([`mod@crate::validate`]) proves an architecture
//! *can* satisfy RTSJ; a [`TimingContract`] states what a deployed
//! component *must* deliver while running — a deadline per activation, a
//! release-jitter bound, a throughput floor, latency-quantile bounds — in
//! the spirit of Nandi et al.'s stochastic contracts for runtime checking
//! of component-based real-time systems.
//!
//! The contract itself is pure data: the runtime attaches it to a
//! component (at deploy time or through a journaled `reconfigure`
//! transaction), drives an allocation-free latency monitor on the hot
//! path, and periodically asks [`TimingContract::verdict`] to compare the
//! observed [`ContractObservation`] against the contracted bounds. The
//! verdict is an ordinary [`ValidationReport`] — the same machinery that
//! carries design-time findings carries runtime violations, under
//! reserved rule codes:
//!
//! | Code | Violation |
//! |------|-----------|
//! | SOL-016 | one or more activations missed the contracted deadline |
//! | SOL-017 | release-gap jitter exceeded the contracted bound |
//! | SOL-018 | observed throughput fell below the contracted floor |
//! | SOL-019 | an observed latency quantile exceeded its bound |

use rtsj::time::RelativeTime;

use crate::validate::{Diagnostic, Severity, ValidationReport};

/// A declarative timing contract for one deployed component.
///
/// Every bound is optional; an empty contract still records latency
/// histograms but can never be violated. Build with the `with_*`
/// combinators:
///
/// ```
/// use rtsj::time::RelativeTime;
/// use soleil_core::contract::TimingContract;
///
/// let contract = TimingContract::new()
///     .with_deadline(RelativeTime::from_millis(10))
///     .with_max_jitter(RelativeTime::from_millis(2))
///     .with_min_throughput_hz(50)
///     .with_quantile_bound(99, RelativeTime::from_millis(8));
/// assert_eq!(contract.deadline(), Some(RelativeTime::from_millis(10)));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TimingContract {
    deadline: Option<RelativeTime>,
    max_jitter: Option<RelativeTime>,
    min_throughput_hz: Option<u32>,
    quantile_bounds: Vec<(u8, RelativeTime)>,
}

impl TimingContract {
    /// An empty contract (no bounds).
    pub fn new() -> Self {
        TimingContract::default()
    }

    /// Requires every activation to finish within `deadline`.
    #[must_use]
    pub fn with_deadline(mut self, deadline: RelativeTime) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Bounds the deviation between consecutive release gaps.
    #[must_use]
    pub fn with_max_jitter(mut self, max_jitter: RelativeTime) -> Self {
        self.max_jitter = Some(max_jitter);
        self
    }

    /// Requires at least `hz` activations per second, on average, over
    /// the observation window.
    #[must_use]
    pub fn with_min_throughput_hz(mut self, hz: u32) -> Self {
        self.min_throughput_hz = Some(hz);
        self
    }

    /// Bounds the observed latency at `percentile` (clamped to 1..=100);
    /// may be called repeatedly for several quantiles.
    #[must_use]
    pub fn with_quantile_bound(mut self, percentile: u8, bound: RelativeTime) -> Self {
        self.quantile_bounds.push((percentile.clamp(1, 100), bound));
        self
    }

    /// The contracted per-activation deadline, if any.
    pub fn deadline(&self) -> Option<RelativeTime> {
        self.deadline
    }

    /// The contracted release-jitter bound, if any.
    pub fn max_jitter(&self) -> Option<RelativeTime> {
        self.max_jitter
    }

    /// The contracted throughput floor in Hz, if any.
    pub fn min_throughput_hz(&self) -> Option<u32> {
        self.min_throughput_hz
    }

    /// The contracted latency-quantile bounds, in attach order.
    pub fn quantile_bounds(&self) -> &[(u8, RelativeTime)] {
        &self.quantile_bounds
    }

    /// True when the contract carries no bounds at all.
    pub fn is_empty(&self) -> bool {
        self.deadline.is_none()
            && self.max_jitter.is_none()
            && self.min_throughput_hz.is_none()
            && self.quantile_bounds.is_empty()
    }

    /// Compares an online observation against the contracted bounds and
    /// reports every violation as an *Error* diagnostic (SOL-016…SOL-019).
    /// A satisfied contract yields an empty — hence compliant — report.
    pub fn verdict(&self, obs: &ContractObservation) -> ValidationReport {
        let mut report = ValidationReport::default();
        if self.deadline.is_some() && obs.deadline_misses > 0 {
            report.append(Diagnostic {
                code: "SOL-016",
                severity: Severity::Error,
                subject: obs.component.clone(),
                message: format!(
                    "{} of {} activations missed the {} deadline",
                    obs.deadline_misses,
                    obs.activations,
                    self.deadline.unwrap_or(RelativeTime::ZERO),
                ),
                suggestion: Some(
                    "raise the contracted deadline, shorten the activation chain, or move the \
                     component into a no-heap-interference (NHRT) domain"
                        .into(),
                ),
            });
        }
        if self.max_jitter.is_some() && obs.jitter_violations > 0 {
            report.append(Diagnostic {
                code: "SOL-017",
                severity: Severity::Error,
                subject: obs.component.clone(),
                message: format!(
                    "{} release gap(s) deviated more than {} from the preceding gap",
                    obs.jitter_violations,
                    self.max_jitter.unwrap_or(RelativeTime::ZERO),
                ),
                suggestion: Some(
                    "isolate the component from GC-exposed domains or widen the jitter bound"
                        .into(),
                ),
            });
        }
        if let Some(floor) = self.min_throughput_hz {
            if obs.activations > 0 && obs.observed_hz < f64::from(floor) {
                report.append(Diagnostic {
                    code: "SOL-018",
                    severity: Severity::Error,
                    subject: obs.component.clone(),
                    message: format!(
                        "observed throughput {:.1} Hz is below the contracted floor of {floor} Hz",
                        obs.observed_hz,
                    ),
                    suggestion: Some(
                        "schedule releases more often or lower the throughput floor".into(),
                    ),
                });
            }
        }
        for &(percentile, bound) in &self.quantile_bounds {
            let observed = obs
                .quantiles_ns
                .iter()
                .find(|(p, _)| *p == percentile)
                .map(|&(_, ns)| ns);
            if let Some(observed_ns) = observed {
                if observed_ns > bound.as_nanos() {
                    report.append(Diagnostic {
                        code: "SOL-019",
                        severity: Severity::Error,
                        subject: obs.component.clone(),
                        message: format!(
                            "p{percentile} latency {} exceeds the contracted bound {bound}",
                            RelativeTime::from_nanos(observed_ns),
                        ),
                        suggestion: Some(
                            "the histogram bound is conservative (log2 bucket upper edge); \
                             widen the bound or reduce tail latency"
                                .into(),
                        ),
                    });
                }
            }
        }
        report
    }
}

/// What the runtime actually observed for one monitored component — the
/// input to [`TimingContract::verdict`]. Produced from the engine's
/// latency monitor; constructible by hand for tests and offline analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct ContractObservation {
    /// Component name (the verdict's diagnostic subject).
    pub component: String,
    /// Total monitored activations.
    pub activations: u64,
    /// Activations that exceeded the contracted deadline.
    pub deadline_misses: u64,
    /// Release gaps whose deviation exceeded the contracted jitter bound.
    pub jitter_violations: u64,
    /// Observed average activation rate, Hz.
    pub observed_hz: f64,
    /// Observed latency (ns) at each contract-requested percentile.
    pub quantiles_ns: Vec<(u8, u64)>,
}

impl ContractObservation {
    /// An empty observation for `component` (nothing seen yet).
    pub fn empty(component: impl Into<String>) -> Self {
        ContractObservation {
            component: component.into(),
            activations: 0,
            deadline_misses: 0,
            jitter_violations: 0,
            observed_hz: 0.0,
            quantiles_ns: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clean_obs() -> ContractObservation {
        ContractObservation {
            component: "Radar".into(),
            activations: 1_000,
            deadline_misses: 0,
            jitter_violations: 0,
            observed_hz: 100.0,
            quantiles_ns: vec![(99, 4_000_000)],
        }
    }

    #[test]
    fn satisfied_contract_is_compliant() {
        let contract = TimingContract::new()
            .with_deadline(RelativeTime::from_millis(10))
            .with_max_jitter(RelativeTime::from_millis(2))
            .with_min_throughput_hz(50)
            .with_quantile_bound(99, RelativeTime::from_millis(8));
        let report = contract.verdict(&clean_obs());
        assert!(report.is_compliant());
        assert!(report.is_empty());
        assert!(!contract.is_empty());
    }

    #[test]
    fn each_bound_reports_its_own_code() {
        let contract = TimingContract::new()
            .with_deadline(RelativeTime::from_millis(10))
            .with_max_jitter(RelativeTime::from_millis(2))
            .with_min_throughput_hz(500)
            .with_quantile_bound(99, RelativeTime::from_millis(1));
        let obs = ContractObservation {
            deadline_misses: 3,
            jitter_violations: 2,
            // observed_hz 100 < contracted 500; p99 4 ms > bound 1 ms.
            ..clean_obs()
        };
        let report = contract.verdict(&obs);
        assert!(!report.is_compliant());
        assert_eq!(report.len(), 4);
        for code in ["SOL-016", "SOL-017", "SOL-018", "SOL-019"] {
            assert_eq!(report.by_code(code).count(), 1, "missing {code}");
        }
        let text = report.to_string();
        assert!(text.contains("missed the 10ms deadline"), "{text}");
        assert!(text.contains("below the contracted floor"), "{text}");
    }

    #[test]
    fn unbounded_dimensions_never_violate() {
        // Only a deadline is contracted: jitter/throughput/quantile
        // observations are ignored even when terrible.
        let contract = TimingContract::new().with_deadline(RelativeTime::from_millis(10));
        let obs = ContractObservation {
            deadline_misses: 0,
            jitter_violations: 999,
            observed_hz: 0.0001,
            ..clean_obs()
        };
        assert!(contract.verdict(&obs).is_compliant());
        // And an empty contract is vacuously satisfied.
        assert!(TimingContract::new().is_empty());
        assert!(TimingContract::new().verdict(&obs).is_compliant());
    }

    #[test]
    fn throughput_floor_needs_observations() {
        // A throughput floor on a component that never ran is not a
        // violation (the window may simply not have started).
        let contract = TimingContract::new().with_min_throughput_hz(100);
        assert!(contract
            .verdict(&ContractObservation::empty("Idle"))
            .is_compliant());
    }

    #[test]
    fn quantile_percentiles_clamp() {
        let c = TimingContract::new().with_quantile_bound(0, RelativeTime::from_millis(1));
        assert_eq!(c.quantile_bounds(), &[(1, RelativeTime::from_millis(1))]);
        let c = TimingContract::new().with_quantile_bound(255, RelativeTime::from_millis(1));
        assert_eq!(c.quantile_bounds(), &[(100, RelativeTime::from_millis(1))]);
    }
}
