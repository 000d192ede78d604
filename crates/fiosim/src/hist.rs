//! [`LatencyHistogram`]: a mergeable, log-scale latency histogram.
//!
//! The HPC-NVM I/O modelling literature (and any saturation study) needs
//! *distributional* latency — p50/p99/p999 — not means, measured over runs
//! far too long to keep every sample. This is an HdrHistogram-style
//! log-linear bucket array: values are grouped by their power-of-two octave
//! with [`SUB_BUCKETS`] linear sub-buckets per octave, so the relative
//! quantization error is bounded by `1 / SUB_BUCKETS` (≈6%) at every
//! magnitude from nanoseconds to hours, storage is a fixed few KiB, and two
//! histograms merge by adding counts — the property that lets per-tenant,
//! per-op-class and per-run distributions combine without re-sampling.
//!
//! Quantiles interpolate linearly *within* the resolved bucket, which fixes
//! the nearest-rank degeneracy where tiny sample counts collapse p50, p99
//! and p999 onto the same raw sample. The recorded minimum and maximum are
//! kept exactly and clamp the interpolation, so `quantile(0.0)` and
//! `quantile(1.0)` return true observed extremes.
//!
//! # Example
//!
//! ```
//! use fiosim::LatencyHistogram;
//! use simclock::SimTime;
//!
//! let mut h = LatencyHistogram::new();
//! for us in [10u64, 12, 15, 20, 400] {
//!     h.record(SimTime::from_micros(us));
//! }
//! assert_eq!(h.count(), 5);
//! assert!(h.p50() < h.p99());
//! assert_eq!(h.max(), SimTime::from_micros(400));
//! ```

use simclock::SimTime;

/// Linear sub-buckets per power-of-two octave (relative error ≤ 1/16).
pub const SUB_BUCKETS: usize = 16;

const SUB_BITS: u32 = 4; // log2(SUB_BUCKETS)

/// Buckets indexable by a `u64` nanosecond value: the first octave holds
/// values `0..SUB_BUCKETS` exactly; each further octave adds `SUB_BUCKETS`
/// buckets up to 2^64.
const NUM_BUCKETS: usize = SUB_BUCKETS + (64 - SUB_BITS as usize) * SUB_BUCKETS;

/// A mergeable log-scale histogram of [`SimTime`] latencies.
///
/// See the [module docs](self) for the bucket scheme and error bounds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyHistogram {
    counts: Vec<u64>,
    count: u64,
    sum_ns: u128,
    min_ns: u64,
    max_ns: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Bucket index for a nanosecond value.
fn bucket_for(ns: u64) -> usize {
    if ns < SUB_BUCKETS as u64 {
        return ns as usize;
    }
    // `ns` lies in octave `o` (value in [2^o, 2^(o+1)), o >= SUB_BITS);
    // the top SUB_BITS bits below the leading one pick the sub-bucket.
    let o = 63 - ns.leading_zeros();
    let sub = ((ns >> (o - SUB_BITS)) - SUB_BUCKETS as u64) as usize;
    SUB_BUCKETS + (o - SUB_BITS) as usize * SUB_BUCKETS + sub
}

/// Inclusive lower bound of a bucket, in nanoseconds.
fn bucket_low(idx: usize) -> u64 {
    if idx < SUB_BUCKETS {
        return idx as u64;
    }
    let rest = idx - SUB_BUCKETS;
    let o = (rest / SUB_BUCKETS) as u32 + SUB_BITS;
    let sub = (rest % SUB_BUCKETS) as u64;
    (SUB_BUCKETS as u64 + sub) << (o - SUB_BITS)
}

/// Exclusive upper bound of a bucket, in nanoseconds (saturating).
fn bucket_high(idx: usize) -> u64 {
    if idx < SUB_BUCKETS {
        return idx as u64 + 1;
    }
    let rest = idx - SUB_BUCKETS;
    let o = (rest / SUB_BUCKETS) as u32 + SUB_BITS;
    let sub = (rest % SUB_BUCKETS) as u128 + 1;
    // The very top bucket's bound is exactly 2^64: saturate.
    let high = (SUB_BUCKETS as u128 + sub) << (o - SUB_BITS);
    u64::try_from(high).unwrap_or(u64::MAX)
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            counts: vec![0; NUM_BUCKETS],
            count: 0,
            sum_ns: 0,
            min_ns: u64::MAX,
            max_ns: 0,
        }
    }

    /// Records one latency sample.
    pub fn record(&mut self, lat: SimTime) {
        self.record_n(lat, 1);
    }

    /// Records `n` identical samples.
    pub fn record_n(&mut self, lat: SimTime, n: u64) {
        if n == 0 {
            return;
        }
        let ns = lat.as_nanos();
        self.counts[bucket_for(ns)] += n;
        self.count += n;
        self.sum_ns += ns as u128 * n as u128;
        self.min_ns = self.min_ns.min(ns);
        self.max_ns = self.max_ns.max(ns);
    }

    /// Adds every sample of `other` into `self` (the merge that makes
    /// per-tenant / per-class distributions combinable).
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (dst, src) in self.counts.iter_mut().zip(&other.counts) {
            *dst += src;
        }
        self.count += other.count;
        self.sum_ns += other.sum_ns;
        self.min_ns = self.min_ns.min(other.min_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact minimum recorded sample ([`SimTime::ZERO`] when empty).
    pub fn min(&self) -> SimTime {
        if self.count == 0 {
            SimTime::ZERO
        } else {
            SimTime::from_nanos(self.min_ns)
        }
    }

    /// Exact maximum recorded sample ([`SimTime::ZERO`] when empty).
    pub fn max(&self) -> SimTime {
        SimTime::from_nanos(self.max_ns)
    }

    /// Mean of all recorded samples ([`SimTime::ZERO`] when empty).
    pub fn mean(&self) -> SimTime {
        if self.count == 0 {
            SimTime::ZERO
        } else {
            SimTime::from_nanos((self.sum_ns / self.count as u128) as u64)
        }
    }

    /// The latency at quantile `q ∈ [0, 1]`, linearly interpolated within
    /// the resolved bucket and clamped to the exact recorded min/max.
    /// Returns [`SimTime::ZERO`] on an empty histogram.
    ///
    /// # Panics
    ///
    /// Panics if `q` is not in `[0, 1]`.
    pub fn quantile(&self, q: f64) -> SimTime {
        assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
        if self.count == 0 {
            return SimTime::ZERO;
        }
        // Fractional target rank in [0, count]: rank r means "q of the mass
        // lies at or below this point".
        let target = q * self.count as f64;
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let below = seen as f64;
            seen += c;
            if (seen as f64) < target {
                continue;
            }
            // Interpolate within this bucket's span by the fraction of the
            // bucket's mass the target rank sits at.
            let frac = ((target - below) / c as f64).clamp(0.0, 1.0);
            let low = bucket_low(idx) as f64;
            let high = bucket_high(idx) as f64;
            let v = low + (high - low) * frac;
            let ns = (v.round() as u64).clamp(self.min_ns, self.max_ns);
            return SimTime::from_nanos(ns);
        }
        SimTime::from_nanos(self.max_ns)
    }

    /// Median (50th percentile).
    pub fn p50(&self) -> SimTime {
        self.quantile(0.50)
    }

    /// 99th percentile.
    pub fn p99(&self) -> SimTime {
        self.quantile(0.99)
    }

    /// 99.9th percentile.
    pub fn p999(&self) -> SimTime {
        self.quantile(0.999)
    }
}

/// The three tail points every latency report carries, read off one
/// [`LatencyHistogram`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tail {
    /// Median latency.
    pub p50: SimTime,
    /// 99th-percentile latency.
    pub p99: SimTime,
    /// 99.9th-percentile latency.
    pub p999: SimTime,
}

impl Tail {
    /// Reads the three percentiles out of a histogram.
    pub fn of(hist: &LatencyHistogram) -> Tail {
        Tail { p50: hist.p50(), p99: hist.p99(), p999: hist.p999() }
    }

    /// `[p50, p99, p999]` in microseconds, as reports print them.
    pub fn micros(&self) -> [f64; 3] {
        [self.p50, self.p99, self.p999].map(SimTime::as_micros_f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_mapping_is_monotonic_and_self_consistent() {
        let probes = [
            0u64,
            1,
            15,
            16,
            17,
            31,
            32,
            100,
            1_000,
            4_095,
            4_096,
            1 << 20,
            (1 << 40) + 12345,
            u64::MAX,
        ];
        let mut last = None;
        for &v in &probes {
            let b = bucket_for(v);
            assert!(bucket_low(b) <= v, "low({b}) <= {v}");
            assert!(v < bucket_high(b) || bucket_high(b) == u64::MAX, "{v} < high({b})");
            if let Some(prev) = last {
                assert!(b >= prev, "bucket index must not decrease");
            }
            last = Some(b);
        }
        assert!(bucket_for(u64::MAX) < NUM_BUCKETS);
    }

    #[test]
    fn quantiles_bounded_by_true_extremes() {
        let mut h = LatencyHistogram::new();
        for us in [3u64, 7, 19, 100, 250] {
            h.record(SimTime::from_micros(us));
        }
        assert_eq!(h.quantile(0.0), SimTime::from_micros(3));
        assert_eq!(h.quantile(1.0), SimTime::from_micros(250));
        assert_eq!(h.min(), SimTime::from_micros(3));
        assert_eq!(h.max(), SimTime::from_micros(250));
        let p50 = h.p50();
        assert!(p50 >= SimTime::from_micros(3) && p50 <= SimTime::from_micros(250));
    }

    #[test]
    fn interpolation_separates_tail_percentiles_on_tiny_samples() {
        // Nearest-rank over 10 raw samples resolves p99 and p999 to the
        // same (10th) sample; the interpolated histogram keeps them apart
        // whenever the top bucket has width.
        let mut h = LatencyHistogram::new();
        for us in [10u64, 11, 12, 13, 14, 15, 16, 17, 18, 900] {
            h.record(SimTime::from_micros(us));
        }
        assert!(h.p50() < h.p99(), "p50 {} !< p99 {}", h.p50(), h.p99());
        assert!(h.p99() <= h.p999());
        assert!(h.p999() <= h.max());
    }

    #[test]
    fn merge_equals_recording_everything_into_one() {
        let samples_a = [5u64, 90, 1_000, 42];
        let samples_b = [7u64, 7, 2_000_000];
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        let mut all = LatencyHistogram::new();
        for &ns in &samples_a {
            a.record(SimTime::from_nanos(ns));
            all.record(SimTime::from_nanos(ns));
        }
        for &ns in &samples_b {
            b.record(SimTime::from_nanos(ns));
            all.record(SimTime::from_nanos(ns));
        }
        a.merge(&b);
        assert_eq!(a, all);
        assert_eq!(a.count(), 7);
    }

    #[test]
    fn relative_error_is_bounded() {
        // Every recorded value must be reproducible to within one
        // sub-bucket (1/16 relative error) by the quantile of its rank.
        let mut h = LatencyHistogram::new();
        let v = 123_457u64;
        h.record(SimTime::from_nanos(v));
        let q = h.p50().as_nanos() as f64;
        assert!((q - v as f64).abs() / v as f64 <= 1.0 / SUB_BUCKETS as f64 + 1e-9);
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.p50(), SimTime::ZERO);
        assert_eq!(h.p999(), SimTime::ZERO);
        assert_eq!(h.mean(), SimTime::ZERO);
        assert_eq!(h.min(), SimTime::ZERO);
        let zero = SimTime::ZERO;
        assert_eq!(Tail::of(&h), Tail { p50: zero, p99: zero, p999: zero });
    }

    #[test]
    fn a_tail_reads_its_three_points_off_the_histogram() {
        let mut h = LatencyHistogram::new();
        for us in 1..=200 {
            h.record(SimTime::from_micros(us));
        }
        let t = Tail::of(&h);
        assert_eq!((t.p50, t.p99, t.p999), (h.p50(), h.p99(), h.p999()));
        let [p50, p99, p999] = t.micros();
        assert!(p50 < p99 && p99 <= p999, "{t:?}");
        assert!((p50 - 100.0).abs() / 100.0 < 0.1, "median ≈ 100 µs, got {p50}");
    }

    #[test]
    fn mean_is_exact() {
        let mut h = LatencyHistogram::new();
        h.record_n(SimTime::from_nanos(100), 3);
        h.record(SimTime::from_nanos(700));
        assert_eq!(h.mean(), SimTime::from_nanos(250));
    }

    #[test]
    #[should_panic(expected = "quantile out of range")]
    fn out_of_range_quantile_panics() {
        LatencyHistogram::new().quantile(1.5);
    }
}
