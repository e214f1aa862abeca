//! Order statistics: medians, the reportable tail percentile, and a
//! constant-memory latency histogram.

/// Percentiles a latency may be reported at, lowest first.
pub const LADDER: [f64; 6] = [50.0, 90.0, 99.0, 99.9, 99.99, 99.999];

/// Median of `v` (linear interpolation between the middle pair); NaN when
/// `v` is empty.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = 0.5 * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Median of the smallest quarter of `v` (at least one value); NaN when
/// `v` is empty. Over repeated timings of the same work, it keeps those
/// taken while the shared machine was quiet.
pub fn quiet_median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s.truncate((s.len() / 4).max(1));
    median(&s)
}

/// Nearest-rank position (1-based) of percentile `p` among `n` samples.
/// The small slack keeps `99.9% of 10000` at 9990 despite rounding.
fn rank(n: u64, p: f64) -> u64 {
    ((p / 100.0 * n as f64 - 1e-6).ceil() as u64).clamp(1, n.max(1))
}

/// How many of `n` samples lie beyond the nearest-rank percentile `p`.
pub fn beyond(n: u64, p: f64) -> u64 {
    n.saturating_sub(rank(n, p))
}

/// The highest percentile of [`LADDER`] that has at least ten samples beyond
/// it, or `None` when even the median has fewer.
pub fn tail_percentile(n: u64) -> Option<f64> {
    LADDER.iter().rev().copied().find(|&p| beyond(n, p) >= 10)
}

/// Sub-buckets per power of two: values are kept to within 1/64 (1.6%).
const SUB_BITS: u32 = 6;
const SUB: u64 = 1 << SUB_BITS;
/// Values below this are kept exactly.
const EXACT: u64 = 2 * SUB;
const BUCKETS: usize = (EXACT + (64 - SUB_BITS as u64 - 1) * SUB) as usize;

/// Log-linear histogram of nanosecond latencies. Memory is fixed however
/// many operations a run completes, so it does not inflate peak RSS.
#[derive(Clone, Debug)]
pub struct LatHist {
    counts: Vec<u64>,
    n: u64,
}

impl Default for LatHist {
    fn default() -> Self {
        LatHist {
            counts: vec![0; BUCKETS],
            n: 0,
        }
    }
}

impl LatHist {
    fn index(v: u64) -> usize {
        if v < EXACT {
            return v as usize;
        }
        let shift = 63 - v.leading_zeros() - SUB_BITS;
        (EXACT + (shift as u64 - 1) * SUB + ((v >> shift) - SUB)) as usize
    }

    /// Lower bound and width of bucket `i`.
    fn bounds(i: usize) -> (u64, u64) {
        let i = i as u64;
        if i < EXACT {
            return (i, 1);
        }
        let j = i - EXACT;
        let shift = j / SUB + 1;
        ((j % SUB + SUB) << shift, 1 << shift)
    }

    /// Records one latency.
    pub fn record(&mut self, ns: u64) {
        self.counts[Self::index(ns)] += 1;
        self.n += 1;
    }

    /// Adds every sample of `other`.
    pub fn merge(&mut self, other: &LatHist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.n += other.n;
    }

    /// Samples recorded.
    pub fn len(&self) -> u64 {
        self.n
    }

    /// Nearest-rank percentile `p` in nanoseconds, interpolated linearly
    /// inside its bucket; NaN when empty.
    pub fn percentile(&self, p: f64) -> f64 {
        if self.n == 0 {
            return f64::NAN;
        }
        let r = rank(self.n, p);
        let mut before = 0u64;
        for (i, &k) in self.counts.iter().enumerate() {
            if k > 0 && before + k >= r {
                let (lo, width) = Self::bounds(i);
                return lo as f64 + width as f64 * ((r - before) as f64 - 0.5) / k as f64;
            }
            before += k;
        }
        unreachable!("rank {r} lies within the {} recorded samples", self.n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(99), Some(50.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(1_000_000), Some(99.999));
        for n in [20, 150, 1000, 4321, 123_456] {
            let p = tail_percentile(n).unwrap();
            assert!(beyond(n, p) >= 10, "n={n} p={p}");
            if let Some(&next) = LADDER.iter().find(|&&q| q > p) {
                assert!(beyond(n, next) < 10, "n={n}: {next} also qualifies");
            }
        }
    }

    #[test]
    fn histogram_buckets_round_trip() {
        for v in [
            0u64,
            1,
            127,
            128,
            129,
            255,
            256,
            1000,
            123_456,
            1 << 40,
            u64::MAX,
        ] {
            let (lo, width) = LatHist::bounds(LatHist::index(v));
            assert!(lo <= v && v - lo < width, "v={v} lo={lo} width={width}");
            assert!(
                width == 1 || width * SUB <= lo,
                "v={v}: bucket wider than 1/64"
            );
        }
    }

    #[test]
    fn histogram_percentiles_track_exact_ones() {
        let mut h = LatHist::default();
        for v in 1..=10_000u64 {
            h.record(v * 100);
        }
        assert_eq!(h.len(), 10_000);
        for (p, exact) in [(50.0, 500_000.0), (99.0, 990_000.0), (99.9, 999_000.0)] {
            let got = h.percentile(p);
            assert!((got - exact).abs() / exact < 0.02, "p{p}: {got} vs {exact}");
        }
    }

    #[test]
    fn median_interpolates() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quiet_median_keeps_the_smallest_quarter() {
        assert_eq!(quiet_median(&[9.0, 1.0, 5.0, 3.0, 7.0, 2.0, 8.0, 4.0]), 1.5);
        assert_eq!(quiet_median(&[3.0, 1.0, 2.0]), 1.0);
        assert!(quiet_median(&[]).is_nan());
    }
}
