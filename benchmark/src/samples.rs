//! Sample summaries and the process memory reader.

/// Percentiles the tail search tries, highest last.
const LADDER: [f64; 4] = [50.0, 90.0, 99.0, 99.9];

/// A percentile is reported only when at least this many samples lie
/// strictly beyond it.
const MIN_BEYOND: usize = 10;

/// A sorted set of measurements with nearest-rank percentiles.
#[derive(Clone, Debug, Default)]
pub struct Samples {
    sorted: Vec<f64>,
}

impl Samples {
    pub fn new(mut values: Vec<f64>) -> Self {
        values.sort_by(f64::total_cmp);
        Self { sorted: values }
    }

    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// 1-based nearest rank of percentile `p`: the smallest rank whose
    /// share of the samples is at least `p` percent.
    fn rank(&self, p: f64) -> usize {
        let n = self.sorted.len();
        // The epsilon keeps float error from pushing an exact rank (99.9 %
        // of 1,000 is 999) up by one.
        ((p * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n.max(1))
    }

    /// The nearest-rank percentile `p` (0 < p ≤ 100), or `None` when empty.
    pub fn at_percentile(&self, p: f64) -> Option<f64> {
        self.sorted.get(self.rank(p) - 1).copied()
    }

    /// How many samples lie beyond percentile `p`.
    pub fn beyond(&self, p: f64) -> usize {
        if self.sorted.is_empty() {
            return 0;
        }
        self.sorted.len() - self.rank(p)
    }

    /// The highest percentile of [`LADDER`] with at least [`MIN_BEYOND`]
    /// samples beyond it, as `(p, value)`.
    pub fn tail(&self) -> Option<(f64, f64)> {
        LADDER
            .iter()
            .rev()
            .find(|&&p| self.beyond(p) >= MIN_BEYOND)
            .and_then(|&p| Some((p, self.at_percentile(p)?)))
    }

    /// The median, or 0 when empty (for layers a workload never enters).
    pub fn median_or_zero(&self) -> f64 {
        self.at_percentile(50.0).unwrap_or(0.0)
    }
}

/// Peak resident set size (`VmHWM`) of this process in KiB, from
/// `/proc/self/status`; `None` where that file does not exist.
pub fn vm_hwm_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_samples_give_no_percentiles() {
        let s = Samples::new(Vec::new());
        assert_eq!(s.len(), 0);
        assert_eq!(s.at_percentile(50.0), None);
        assert_eq!(s.beyond(50.0), 0);
        assert_eq!(s.tail(), None);
        assert_eq!(s.median_or_zero(), 0.0);
    }

    #[test]
    fn one_sample_is_every_percentile_but_supports_no_tail() {
        let s = Samples::new(vec![7.0]);
        assert_eq!(s.at_percentile(50.0), Some(7.0));
        assert_eq!(s.at_percentile(99.9), Some(7.0));
        assert_eq!(s.beyond(50.0), 0);
        assert_eq!(s.tail(), None);
    }

    #[test]
    fn a_thousand_samples_support_p99_with_ten_beyond() {
        // Shuffled 1..=1000: nearest rank puts p50 at 500 and p99 at 990.
        let values: Vec<f64> = (0..1000).map(|i| ((i * 7919) % 1000 + 1) as f64).collect();
        let s = Samples::new(values);
        assert_eq!(s.len(), 1000);
        assert_eq!(s.at_percentile(50.0), Some(500.0));
        assert_eq!(s.at_percentile(99.0), Some(990.0));
        assert_eq!(s.beyond(99.0), 10);
        assert_eq!(s.beyond(99.9), 1);
        assert_eq!(s.tail(), Some((99.0, 990.0)));
    }

    #[test]
    fn a_hundred_samples_support_p90_only() {
        let s = Samples::new((1..=100).map(f64::from).collect());
        assert_eq!(s.beyond(90.0), 10);
        assert_eq!(s.tail(), Some((90.0, 90.0)));
    }

    #[test]
    fn peak_rss_is_readable_on_linux() {
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(vm_hwm_kb().is_some_and(|kb| kb > 0));
        }
    }
}
