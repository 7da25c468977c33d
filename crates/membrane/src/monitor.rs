//! Zero-allocation latency, jitter and deadline monitoring.
//!
//! [`LatencyMonitor`] is the observation half of a runtime timing
//! contract: the engine stamps an [`Instant`] around each monitored
//! activation and feeds the elapsed time to [`LatencyMonitor::observe`].
//! Everything the monitor keeps — a fixed log₂-bucket histogram, running
//! min/max/sum, deadline-miss and jitter-violation counters — lives
//! inline in the struct, so recording an observation never allocates and
//! the armed steady state stays inside the framework's 0-allocs/txn gate.
//!
//! Jitter is defined as the deviation between *consecutive release gaps*
//! (|gapₙ − gapₙ₋₁|), not as gap-versus-period: a tight benchmark loop
//! that releases back-to-back has tiny, stable gaps and therefore zero
//! jitter, while a GC pause stretching one gap out of a steady train is
//! flagged immediately.
//!
//! Like the [`crate::interceptors::FastGate`], the monitor follows the
//! pay-nothing-when-unused rule: components without a monitor attached
//! never reach this module — the engine's activation plan carries a
//! `u16::MAX` sentinel and the hot path pays a single integer compare.

use std::time::Instant;

/// Number of log₂ histogram buckets. Bucket `i` counts latencies in
/// `[2^(i-1), 2^i)` nanoseconds (bucket 0 is `[0, 1)`); 40 buckets reach
/// ~18 minutes, far beyond any sane activation latency.
const BUCKETS: usize = 40;

/// Sentinel for "no previous gap observed yet".
const NO_GAP: u64 = u64::MAX;

/// A fixed-footprint latency/jitter/deadline monitor for one component.
///
/// Constructed when a timing contract is attached (cold path); updated on
/// every monitored activation (hot path, allocation-free); read when a
/// contract verdict or snapshot is requested (cold path).
#[derive(Debug, Clone)]
pub struct LatencyMonitor {
    /// Deadline in nanoseconds; `u64::MAX` = no deadline attached.
    deadline_ns: u64,
    /// Max tolerated gap deviation in nanoseconds; `u64::MAX` = no bound.
    max_jitter_ns: u64,
    /// Log₂ latency histogram (bucket upper bounds are powers of two).
    buckets: [u64; BUCKETS],
    count: u64,
    sum_ns: u64,
    min_ns: u64,
    max_ns: u64,
    deadline_misses: u64,
    jitter_violations: u64,
    /// Previous release gap in nanoseconds ([`NO_GAP`] until two starts).
    prev_gap_ns: u64,
    /// Start stamp of the previous monitored activation.
    last_start: Option<Instant>,
    /// When the monitor was attached (observed-throughput denominator).
    opened: Instant,
}

impl LatencyMonitor {
    /// Creates a monitor with optional deadline and jitter bounds (in
    /// nanoseconds). `None` bounds still record the histogram; they just
    /// never count violations.
    pub fn new(deadline_ns: Option<u64>, max_jitter_ns: Option<u64>) -> Self {
        LatencyMonitor {
            deadline_ns: deadline_ns.unwrap_or(u64::MAX),
            max_jitter_ns: max_jitter_ns.unwrap_or(u64::MAX),
            buckets: [0; BUCKETS],
            count: 0,
            sum_ns: 0,
            min_ns: u64::MAX,
            max_ns: 0,
            deadline_misses: 0,
            jitter_violations: 0,
            prev_gap_ns: NO_GAP,
            last_start: None,
            opened: Instant::now(),
        }
    }

    /// Records one completed activation that *started* at `start` and ran
    /// for `latency_ns`. Returns `true` when the activation missed its
    /// deadline. Never allocates.
    #[inline]
    pub fn observe(&mut self, start: Instant, latency_ns: u64) -> bool {
        // Jitter: deviation between consecutive release gaps.
        if let Some(prev) = self.last_start {
            let gap = start.saturating_duration_since(prev).as_nanos() as u64;
            if self.prev_gap_ns != NO_GAP {
                let deviation = gap.abs_diff(self.prev_gap_ns);
                if deviation > self.max_jitter_ns {
                    self.jitter_violations += 1;
                }
            }
            self.prev_gap_ns = gap;
        }
        self.last_start = Some(start);

        // Histogram + running aggregates.
        let bucket = (64 - latency_ns.leading_zeros() as usize).min(BUCKETS - 1);
        self.buckets[bucket] += 1;
        self.count += 1;
        self.sum_ns = self.sum_ns.saturating_add(latency_ns);
        self.min_ns = self.min_ns.min(latency_ns);
        self.max_ns = self.max_ns.max(latency_ns);

        let missed = latency_ns > self.deadline_ns;
        if missed {
            self.deadline_misses += 1;
        }
        missed
    }

    /// Total monitored activations.
    pub fn activations(&self) -> u64 {
        self.count
    }

    /// Activations that exceeded the attached deadline.
    pub fn deadline_misses(&self) -> u64 {
        self.deadline_misses
    }

    /// Release gaps whose deviation from the previous gap exceeded the
    /// attached jitter bound.
    pub fn jitter_violations(&self) -> u64 {
        self.jitter_violations
    }

    /// Conservative (upper-bound) latency at `percentile` (1..=100),
    /// read from the log₂ histogram: the bucket upper bound where the
    /// cumulative count reaches the percentile, clamped to the exact
    /// observed maximum. Returns 0 before any observation.
    pub fn quantile_ns(&self, percentile: u8) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let pct = u64::from(percentile.clamp(1, 100));
        // Smallest rank whose cumulative share is >= percentile.
        let rank = self.count.saturating_mul(pct).div_ceil(100).max(1);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                // Bucket i spans [2^(i-1), 2^i); report its upper bound,
                // never beyond the true observed max.
                let upper = if i >= 63 { u64::MAX } else { 1u64 << i };
                return upper.min(self.max_ns);
            }
        }
        self.max_ns
    }

    /// Observed activation rate in Hz since the monitor was attached.
    pub fn observed_hz(&self) -> f64 {
        let secs = self.opened.elapsed().as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        self.count as f64 / secs
    }

    /// An owned summary of everything the monitor has seen.
    pub fn snapshot(&self) -> LatencySnapshot {
        LatencySnapshot {
            activations: self.count,
            deadline_misses: self.deadline_misses,
            jitter_violations: self.jitter_violations,
            min_ns: if self.count == 0 { 0 } else { self.min_ns },
            max_ns: self.max_ns,
            mean_ns: self.sum_ns.checked_div(self.count).unwrap_or(0),
            p50_ns: self.quantile_ns(50),
            p95_ns: self.quantile_ns(95),
            p99_ns: self.quantile_ns(99),
            observed_hz: self.observed_hz(),
        }
    }

    /// Bytes of state the monitor pins per component (footprint report).
    pub fn footprint_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
    }
}

/// An owned, point-in-time summary of a [`LatencyMonitor`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencySnapshot {
    /// Total monitored activations.
    pub activations: u64,
    /// Activations that exceeded the attached deadline.
    pub deadline_misses: u64,
    /// Gap deviations that exceeded the attached jitter bound.
    pub jitter_violations: u64,
    /// Fastest observed activation, nanoseconds.
    pub min_ns: u64,
    /// Slowest observed activation, nanoseconds.
    pub max_ns: u64,
    /// Mean activation latency, nanoseconds.
    pub mean_ns: u64,
    /// Median latency (histogram upper bound), nanoseconds.
    pub p50_ns: u64,
    /// 95th-percentile latency (histogram upper bound), nanoseconds.
    pub p95_ns: u64,
    /// 99th-percentile latency (histogram upper bound), nanoseconds.
    pub p99_ns: u64,
    /// Observed activation rate since attach, Hz.
    pub observed_hz: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn histogram_counts_and_deadline_misses() {
        let mut m = LatencyMonitor::new(Some(1_000), None);
        let t0 = Instant::now();
        assert!(!m.observe(t0, 500));
        assert!(!m.observe(t0, 1_000), "deadline is inclusive");
        assert!(m.observe(t0, 1_001));
        assert_eq!(m.activations(), 3);
        assert_eq!(m.deadline_misses(), 1);
        let s = m.snapshot();
        assert_eq!(s.min_ns, 500);
        assert_eq!(s.max_ns, 1_001);
        assert_eq!(s.mean_ns, (500 + 1_000 + 1_001) / 3);
    }

    #[test]
    fn quantiles_are_conservative_upper_bounds() {
        let mut m = LatencyMonitor::new(None, None);
        let t0 = Instant::now();
        for latency in [100u64, 200, 300, 400, 10_000] {
            m.observe(t0, latency);
        }
        let p50 = m.quantile_ns(50);
        // Median observation is 300; its bucket upper bound is 512.
        assert!((300..=512).contains(&p50), "p50 = {p50}");
        // The tail quantile is clamped to the true max.
        assert_eq!(m.quantile_ns(100), 10_000);
        assert!(m.quantile_ns(99) <= 10_000);
        assert!(m.quantile_ns(95) >= p50);
    }

    #[test]
    fn jitter_flags_gap_deviation_not_small_gaps() {
        let mut m = LatencyMonitor::new(None, Some(1_000_000)); // 1 ms bound
        let t0 = Instant::now();
        // Steady 10 µs gaps: zero deviation, no violations.
        for i in 0..5u64 {
            m.observe(t0 + Duration::from_micros(10 * i), 100);
        }
        assert_eq!(m.jitter_violations(), 0);
        // One 5 ms stall: the stretched gap deviates ~5 ms from the
        // steady 10 µs train — one violation on the way in, one on the
        // way back to the steady gap.
        m.observe(
            t0 + Duration::from_micros(40) + Duration::from_millis(5),
            100,
        );
        assert_eq!(m.jitter_violations(), 1);
        m.observe(
            t0 + Duration::from_micros(50) + Duration::from_millis(5),
            100,
        );
        assert_eq!(m.jitter_violations(), 2);
    }

    #[test]
    fn empty_monitor_snapshots_cleanly() {
        let m = LatencyMonitor::new(None, None);
        let s = m.snapshot();
        assert_eq!(s.activations, 0);
        assert_eq!(s.min_ns, 0);
        assert_eq!(s.mean_ns, 0);
        assert_eq!(m.quantile_ns(99), 0);
        assert!(m.footprint_bytes() >= BUCKETS * 8);
    }
}
