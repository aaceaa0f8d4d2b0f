//! Sample summaries: medians, the tail-percentile rule, and the
//! attempted/failed tally every workload reports.

/// Percentiles the tail is chosen from, lowest first.
const TAIL_CANDIDATES: [f64; 5] = [0.75, 0.9, 0.99, 0.999, 0.9999];

/// Fewest samples for which a tail is reported at all: below this the
/// highest percentile with ten samples beyond it would be no tail.
pub const MIN_TAIL_SAMPLES: usize = 40;

/// Value at quantile `q` of an ascending slice, by nearest rank.
///
/// # Panics
/// Panics on an empty slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest candidate percentile, up to `max_q`, that leaves at
/// least ten of `n` samples beyond it, or `None` under
/// [`MIN_TAIL_SAMPLES`].
///
/// A workload caps the tail at the percentile its sample count supports
/// by design, so a change that only completes more operations in the
/// same run length reads the same percentile, not a deeper one.
pub fn tail_quantile(n: usize, max_q: f64) -> Option<f64> {
    if n < MIN_TAIL_SAMPLES {
        return None;
    }
    TAIL_CANDIDATES
        .iter()
        .copied()
        .rev()
        .find(|&q| q <= max_q && n as f64 * (1.0 - q) + 1e-6 >= 10.0)
}

/// A timing distribution as reported: median, tail and sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Samples summarized.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// Quantile the tail was read at (0.5 when there are too few
    /// samples for a tail, in which case `tail == p50`).
    pub tail_q: f64,
    /// Value at `tail_q`.
    pub tail: f64,
}

impl Summary {
    /// Summarizes `samples` (reordered in place) with the tail read at
    /// most at `max_q`.
    ///
    /// # Panics
    /// Panics on an empty sample.
    pub fn of(samples: &mut [f64], max_q: f64) -> Self {
        samples.sort_by(f64::total_cmp);
        let p50 = quantile(samples, 0.5);
        let (tail_q, tail) = match tail_quantile(samples.len(), max_q) {
            Some(q) => (q, quantile(samples, q)),
            None => (0.5, p50),
        };
        Self {
            n: samples.len(),
            p50,
            tail_q,
            tail,
        }
    }

    /// "p99" style label of the tail quantile.
    pub fn tail_label(&self) -> String {
        let pct = format!("{:.2}", self.tail_q * 100.0);
        format!("p{}", pct.trim_end_matches('0').trim_end_matches('.'))
    }
}

/// A closed loop's figures taken per time window, each reported as the
/// median over windows, so a burst of interference that stalls part of
/// a run moves the figure only if it covers most of the windows.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Windowed {
    /// Median over windows of completions per second.
    pub throughput: f64,
    /// Median over windows of completions per second of summed latency
    /// (the rate while busy, for a single caller whose gaps between
    /// operations are not part of the work).
    pub busy_rate: f64,
    /// Median over windows of the window's median latency.
    pub p50: f64,
    /// Median over windows of the window's tail latency.
    pub tail: f64,
    /// Tail quantile of the window with the fewest samples.
    pub tail_q: f64,
    /// Fewest samples in one window.
    pub min_window_n: usize,
}

/// Splits `(done_s, latency_ms)` samples into `windows` equal windows of a
/// `seconds`-long run by completion time (late completions count in the
/// last window) and takes the median of each per-window figure.
///
/// # Panics
/// Panics when `windows` is 0 or a window has no samples.
pub fn windowed(samples: &[(f64, f64)], seconds: f64, windows: usize, max_q: f64) -> Windowed {
    assert!(windows > 0, "need at least one window");
    let width = seconds / windows as f64;
    let mut buckets: Vec<Vec<f64>> = vec![Vec::new(); windows];
    for &(done, latency) in samples {
        let w = ((done / width) as usize).min(windows - 1);
        buckets[w].push(latency);
    }
    let min_window_n = buckets.iter().map(Vec::len).min().unwrap_or(0);
    let tail_q = tail_quantile(min_window_n, max_q).unwrap_or(0.5);
    let mut throughput = Vec::with_capacity(windows);
    let mut busy_rate = Vec::with_capacity(windows);
    let mut p50 = Vec::with_capacity(windows);
    let mut tail = Vec::with_capacity(windows);
    for b in &mut buckets {
        assert!(!b.is_empty(), "a window completed no operation");
        throughput.push(b.len() as f64 / width);
        busy_rate.push(b.len() as f64 / (b.iter().sum::<f64>() / 1e3));
        b.sort_by(f64::total_cmp);
        p50.push(quantile(b, 0.5));
        tail.push(quantile(b, tail_q));
    }
    Windowed {
        throughput: median(&mut throughput),
        busy_rate: median(&mut busy_rate),
        p50: median(&mut p50),
        tail: median(&mut tail),
        tail_q,
        min_window_n,
    }
}

/// Median of a sample (reordered in place).
pub fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(f64::total_cmp);
    quantile(samples, 0.5)
}

/// Mean of a sample; 0 for an empty one.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Operations attempted in a run, split by outcome.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    /// Operations that completed and returned a usable result.
    pub ok: u64,
    /// Operations that returned an error or an unusable result.
    pub failed: u64,
}

impl Tally {
    /// Counts one operation.
    pub fn record(&mut self, ok: bool) {
        if ok {
            self.ok += 1;
        } else {
            self.failed += 1;
        }
    }

    /// Folds another tally into this one.
    pub fn absorb(&mut self, other: Tally) {
        self.ok += other.ok;
        self.failed += other.failed;
    }

    /// Every operation counted, whatever its outcome.
    pub fn attempted(&self) -> u64 {
        self.ok + self.failed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.9), 90.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        let tq = |n| tail_quantile(n, 1.0);
        assert_eq!(tq(39), None);
        assert_eq!(tq(40), Some(0.75));
        assert_eq!(tq(99), Some(0.75));
        assert_eq!(tq(100), Some(0.9));
        assert_eq!(tq(999), Some(0.9));
        assert_eq!(tq(1_000), Some(0.99));
        assert_eq!(tq(9_999), Some(0.99));
        assert_eq!(tq(10_000), Some(0.999));
        assert_eq!(tq(100_000), Some(0.9999));
        assert_eq!(tq(5_000_000), Some(0.9999));
        for n in [40usize, 100, 1_000, 10_000, 100_000, 123_456] {
            let q = tq(n).unwrap();
            assert!(n as f64 * (1.0 - q) >= 9.999, "n {n} q {q}");
        }
        // A cap holds the percentile however many samples there are,
        // but never reads a percentile the samples do not support.
        assert_eq!(tail_quantile(5_000_000, 0.99), Some(0.99));
        assert_eq!(tail_quantile(500, 0.99), Some(0.9));
    }

    #[test]
    fn summary_reports_median_tail_and_count() {
        let mut v: Vec<f64> = (1..=1_000).rev().map(f64::from).collect();
        let s = Summary::of(&mut v, 1.0);
        assert_eq!(s.n, 1_000);
        assert_eq!(s.p50, 500.0);
        assert_eq!(s.tail_q, 0.99);
        assert_eq!(s.tail, 990.0);
        assert_eq!(s.tail_label(), "p99");
        let deep = Summary {
            tail_q: 0.9999,
            ..s
        };
        assert_eq!(deep.tail_label(), "p99.99");
        let mut few = vec![3.0, 1.0, 2.0];
        let s = Summary::of(&mut few, 0.99);
        assert_eq!((s.n, s.p50, s.tail_q, s.tail), (3, 2.0, 0.5, 2.0));
    }

    #[test]
    fn windowed_figures_are_medians_over_windows() {
        // Four 1 s windows: 100, 100, 100 and 10 completions; the last
        // window is stalled (10 ms latencies) and must not move the
        // medians.
        let mut samples = Vec::new();
        for w in 0..4 {
            let (n, lat) = if w == 3 {
                (10, 10.0)
            } else {
                (100, 1.0 + w as f64)
            };
            for i in 0..n {
                samples.push((w as f64 + (i as f64 + 0.5) / n as f64, lat));
            }
        }
        // A completion after the run's end counts in the last window.
        samples.push((4.2, 10.0));
        let w = windowed(&samples, 4.0, 4, 0.99);
        assert_eq!(w.min_window_n, 11);
        assert_eq!(w.tail_q, 0.5, "11 samples support no tail");
        assert_eq!(w.throughput, 100.0);
        // Busy rates 1000, 500, 333.3 and 100/s: the median by nearest
        // rank is the second lowest.
        assert!((w.busy_rate - 1000.0 / 3.0).abs() < 1e-9);
        assert_eq!(w.p50, 2.0);
        assert_eq!(w.tail, 2.0);
        let big: Vec<(f64, f64)> = (0..2_000)
            .map(|i| (i as f64 / 1_000.0, (i % 100) as f64))
            .collect();
        let w = windowed(&big, 2.0, 2, 0.99);
        assert_eq!(
            (w.min_window_n, w.tail_q, w.p50, w.tail),
            (1_000, 0.99, 49.0, 98.0)
        );
    }

    #[test]
    fn tally_attempted_is_ok_plus_failed() {
        let mut t = Tally::default();
        for i in 0..10 {
            t.record(i % 3 != 0);
        }
        assert_eq!((t.ok, t.failed, t.attempted()), (6, 4, 10));
        let mut u = Tally { ok: 5, failed: 1 };
        u.absorb(t);
        assert_eq!((u.ok, u.failed), (11, 5));
        assert_eq!(u.attempted(), u.ok + u.failed);
    }
}
