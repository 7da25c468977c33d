//! Order statistics shared by every workload: percentiles, the
//! median-over-rounds tail estimator, paired-round deltas and the layer
//! ledger arithmetic.

/// Nearest-rank percentile of an unsorted sample (sorts in place).
/// Returns 0 for an empty sample.
pub fn percentile(samples: &mut [u64], p: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    samples.sort_unstable();
    let n = samples.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    samples[rank.clamp(1, n) - 1]
}

/// The highest of the reported percentiles (99.9, 99, 90, 50) that leaves
/// at least ten samples beyond it in a sample of `n`; `None` when even the
/// median has fewer than ten samples above it.
pub fn tail_percentile(n: usize) -> Option<f64> {
    [99.9, 99.0, 90.0, 50.0]
        .into_iter()
        .find(|p| n as f64 * (1.0 - p / 100.0) >= 10.0 - 1e-9)
}

/// Nearest-rank `q`-th percentile of a float sample. Returns 0 for an
/// empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Median of a float sample (mean of the two middle values for an even
/// count). Returns 0 for an empty sample.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Inter-quartile range of a float sample, with the quartiles taken as
/// Python's `statistics.quantiles(values, n=4)` (exclusive method) gives
/// them. Returns 0 for fewer than two values.
pub fn iqr(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let q = |k: f64| {
        let m = v.len() as f64 + 1.0;
        let pos = (k * m / 4.0).clamp(1.0, v.len() as f64);
        let j = pos.floor() as usize;
        let frac = pos - j as f64;
        let lo = v[j - 1];
        let hi = v[j.min(v.len() - 1)];
        lo + (hi - lo) * frac
    };
    q(3.0) - q(1.0)
}

/// The quantile over rounds at which the end-to-end medians (per-round
/// p50s) and throughputs are summarised.
///
/// A shared host can run memory-bound code up to 60% slower for one to ten
/// seconds at a time while a neighbour is busy, so the share of a run spent
/// slow varies from run to run, and any median or pooled percentile moves
/// with it. The lowest tenth of the per-round medians moves only when nine
/// rounds in ten are slow; a framework change that costs every transaction
/// moves it by that cost. Throughputs take the upper tenth.
///
/// Tails are not summarised this way: a p99 of the quietest rounds cannot
/// see a cost that lands on a few rounds only. The per-layer tail metrics
/// take the median over rounds of each round's p99.
pub const ROUND_QUANTILE: f64 = 10.0;

/// Per-round latency samples of one measured operation. Each round is
/// kept apart so that percentiles are taken per round and then summarised
/// across rounds: a single noisy round moves a pooled p99 but barely moves
/// a quantile of per-round p99s.
#[derive(Debug, Default, Clone)]
pub struct Rounds {
    rounds: Vec<Vec<u64>>,
}

impl Rounds {
    /// Starts a new round able to hold `capacity` samples without
    /// reallocating.
    pub fn begin(&mut self, capacity: usize) {
        self.rounds.push(Vec::with_capacity(capacity));
    }

    /// Starts a new round once the current one holds `min` samples, so
    /// that loops issuing few operations per round still summarise rounds
    /// large enough for their percentile.
    pub fn roll(&mut self, min: usize) {
        if self.rounds.last().is_none_or(|r| r.len() >= min) {
            self.begin(min);
        }
    }

    /// Records one sample into the current round.
    pub fn push(&mut self, ns: u64) {
        if let Some(r) = self.rounds.last_mut() {
            r.push(ns);
        }
    }

    /// Pooled percentile across every round.
    pub fn pooled(&self, p: f64) -> f64 {
        let mut all: Vec<u64> = self.rounds.iter().flatten().copied().collect();
        percentile(&mut all, p) as f64
    }

    /// The `q`-th quantile over rounds of each round's `p` percentile.
    /// Rounds too small to leave ten samples beyond `p` are skipped; when
    /// no round is large enough the pooled percentile is returned instead.
    pub fn over_rounds(&self, p: f64, q: f64) -> f64 {
        let per_round: Vec<f64> = self
            .rounds
            .iter()
            .filter(|r| tail_percentile(r.len()).is_some_and(|t| t >= p))
            .map(|r| percentile(&mut r.clone(), p) as f64)
            .collect();
        if per_round.is_empty() {
            self.pooled(p)
        } else {
            quantile(&per_round, q)
        }
    }

    /// [`over_rounds`](Self::over_rounds) at [`ROUND_QUANTILE`].
    pub fn summary(&self, p: f64) -> f64 {
        self.over_rounds(p, ROUND_QUANTILE)
    }
}

/// Paired-round estimator: the median of per-round differences
/// `variant - baseline` of two operations measured in the same rounds, and
/// the inter-quartile range of those differences.
pub fn paired_delta(baseline: &[f64], variant: &[f64]) -> (f64, f64) {
    let d: Vec<f64> = baseline.iter().zip(variant).map(|(b, v)| v - b).collect();
    (median(&d), iqr(&d))
}

/// One line of the layer ledger: a per-operation layer cost and how many
/// times one transaction pays it.
#[derive(Debug, Clone, Copy)]
pub struct LedgerTerm {
    /// Per-operation cost in nanoseconds.
    pub cost_ns: f64,
    /// Operations per transaction.
    pub per_txn: f64,
}

/// The explained part of a transaction (the sum of cost × count over the
/// layer terms) and the unexplained remainder `measured - explained`.
pub fn ledger(measured_ns: f64, terms: &[LedgerTerm]) -> (f64, f64) {
    let explained: f64 = terms.iter().map(|t| t.cost_ns * t.per_txn).sum();
    (explained, measured_ns - explained)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let mut v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&mut v, 50.0), 50);
        assert_eq!(percentile(&mut v, 99.0), 99);
        assert_eq!(percentile(&mut v, 100.0), 100);
        assert_eq!(percentile(&mut v, 0.0), 1);
        assert_eq!(percentile(&mut [], 50.0), 0);
        let mut unsorted = vec![5, 1, 4, 2, 3];
        assert_eq!(percentile(&mut unsorted, 50.0), 3);
    }

    #[test]
    fn tail_percentile_leaves_ten_samples_beyond() {
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(9_999), Some(99.0));
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(19), None);
    }

    #[test]
    fn median_of_rounds_ignores_one_bad_round() {
        let mut r = Rounds::default();
        for round in 0..5u64 {
            r.begin(1000);
            for i in 0..1000u64 {
                // Round 2 has a fat tail; the others share one shape.
                let tail = if round == 2 && i >= 800 { 1_000_000 } else { 0 };
                r.push(100 + i % 100 + tail);
            }
        }
        assert_eq!(r.over_rounds(99.0, 50.0), 198.0);
        assert!(r.pooled(99.0) > 1_000_000.0);
        // Rounds too small for the percentile fall back to pooling.
        let mut small = Rounds::default();
        small.begin(10);
        for i in 1..=10 {
            small.push(i);
        }
        assert_eq!(small.over_rounds(99.0, 50.0), 10.0);
    }

    #[test]
    fn round_summary_ignores_slow_rounds() {
        // Four rounds in five run at 100 ns, one at 180 ns, in any order.
        let mut r = Rounds::default();
        for round in 0..20u64 {
            r.begin(100);
            let base = if round % 5 == 3 { 180 } else { 100 };
            for i in 0..100 {
                r.push(base + i % 3);
            }
        }
        assert_eq!(r.summary(50.0), 101.0);
        // Even with 70% of the rounds slow, the summary holds.
        let mut slow = Rounds::default();
        for round in 0..10u64 {
            slow.begin(100);
            let base = if round < 7 { 180 } else { 100 };
            for _ in 0..100 {
                slow.push(base);
            }
        }
        assert_eq!(slow.summary(50.0), 100.0);
        assert_eq!(slow.over_rounds(50.0, 50.0), 180.0);
        assert_eq!(quantile(&[4.0, 1.0, 3.0, 2.0], 25.0), 1.0);
        assert_eq!(quantile(&[4.0, 1.0, 3.0, 2.0], 75.0), 3.0);
        assert_eq!(quantile(&[], 25.0), 0.0);
    }

    #[test]
    fn median_and_iqr_match_python_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr(&v) - 5.5).abs() < 1e-12);
        assert_eq!(iqr(&[7.0]), 0.0);
    }

    #[test]
    fn paired_delta_takes_the_median_difference() {
        let base = [100.0, 110.0, 90.0, 105.0, 95.0];
        let variant = [150.0, 160.0, 139.0, 156.0, 145.0];
        let (d, spread) = paired_delta(&base, &variant);
        assert_eq!(d, 50.0);
        assert!(spread <= 2.0, "{spread}");
    }

    #[test]
    fn ledger_residual_is_measured_minus_explained() {
        let terms = [
            LedgerTerm {
                cost_ns: 10.0,
                per_txn: 16.0,
            },
            LedgerTerm {
                cost_ns: 2.5,
                per_txn: 4.0,
            },
        ];
        let (explained, residual) = ledger(300.0, &terms);
        assert_eq!(explained, 170.0);
        assert_eq!(residual, 130.0);
        // An over-explained transaction reports a negative residual.
        assert_eq!(ledger(100.0, &terms).1, -70.0);
    }
}
