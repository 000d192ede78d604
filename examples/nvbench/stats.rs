//! Harness statistics over raw per-op samples: exact nearest-rank
//! quantiles with the "ten samples beyond" rule, and the continuous
//! location/tail statistics the end-to-end metrics use.

/// Samples that must lie strictly beyond a percentile before it is
/// reported (a p99 needs 1000 samples, a p99.9 needs 10 000).
pub const MIN_BEYOND: usize = 10;

/// Raw per-op latencies in virtual nanoseconds.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    ns: Vec<u64>,
    sorted: bool,
}

impl Samples {
    pub fn push(&mut self, ns: u64) {
        self.ns.push(ns);
        self.sorted = false;
    }

    pub fn len(&self) -> usize {
        self.ns.len()
    }

    pub fn sum_ns(&self) -> u64 {
        self.ns.iter().sum()
    }

    fn sorted(&mut self) -> &[u64] {
        if !self.sorted {
            self.ns.sort_unstable();
            self.sorted = true;
        }
        &self.ns
    }

    /// Mean in microseconds; `None` on an empty sample.
    pub fn mean_us(&self) -> Option<f64> {
        (!self.ns.is_empty()).then(|| self.sum_ns() as f64 / self.ns.len() as f64 / 1e3)
    }

    /// Exact nearest-rank quantile in microseconds. `None` — never the
    /// maximum — when fewer than [`MIN_BEYOND`] samples lie beyond it.
    pub fn quantile_us(&mut self, q: f64) -> Option<f64> {
        quantile(self.sorted(), q).map(|ns| ns as f64 / 1e3)
    }

    /// Mean of the slowest 1 % of samples in microseconds (at least
    /// [`MIN_BEYOND`] of them). Unlike a p99 it moves continuously when the
    /// share of stalled ops crosses 1 %, so it does not sit on that cliff.
    pub fn top1pct_mean_us(&mut self) -> Option<f64> {
        let s = self.sorted();
        let k = s.len() / 100;
        (k >= MIN_BEYOND).then(|| {
            let tail = &s[s.len() - k..];
            tail.iter().sum::<u64>() as f64 / k as f64 / 1e3
        })
    }

    /// `Σ max(0, latency − p50)` in nanoseconds: the time ops spent beyond
    /// the typical service time, i.e. stalled.
    pub fn excess_over_median_ns(&mut self) -> u64 {
        let s = self.sorted();
        let Some(&p50) = s.get(s.len().saturating_sub(1) / 2) else { return 0 };
        s.iter().map(|&v| v.saturating_sub(p50)).sum()
    }
}

/// Nearest-rank quantile of an ascending slice: the smallest value with at
/// least `q·n` samples at or below it, provided [`MIN_BEYOND`] samples lie
/// strictly after that rank.
pub fn quantile(sorted: &[u64], q: f64) -> Option<u64> {
    assert!((0.0..1.0).contains(&q), "quantile out of range: {q}");
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    (n - rank >= MIN_BEYOND).then(|| sorted[rank - 1])
}

/// Median of a float sample (mean of the middle pair when even).
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 { v[mid] } else { (v[mid - 1] + v[mid]) / 2.0 })
}

/// Self-checks for `--selftest`; returns the first failure.
pub fn selftest() -> Result<(), String> {
    let s: Vec<u64> = (1..=1000).collect();
    let check = |q: f64, want: Option<u64>| {
        let got = quantile(&s, q);
        if got == want {
            Ok(())
        } else {
            Err(format!("quantile({q}) over 1..=1000: got {got:?}, want {want:?}"))
        }
    };
    check(0.5, Some(500))?;
    check(0.99, Some(990))?; // exactly ten samples beyond
    check(0.999, None)?; // one beyond: absent, not the max
    if quantile(&s[..999], 0.99).is_some() {
        return Err("p99 over 999 samples must be absent (nine beyond)".into());
    }
    if quantile(&[], 0.5).is_some() || quantile(&s[..10], 0.5).is_some() {
        return Err("quantile over an unsupported sample must be absent".into());
    }
    let mut smp = Samples::default();
    for v in [5_000u64; 990].into_iter().chain([105_000u64; 10]) {
        smp.push(v);
    }
    if smp.top1pct_mean_us() != Some(105.0) || smp.mean_us() != Some(6.0) {
        return Err("tail mean / mean over a 1 % stall sample".into());
    }
    if smp.excess_over_median_ns() != 10 * 100_000 {
        return Err("excess over median".into());
    }
    if median(&[3.0, 1.0, 2.0]) != Some(2.0) || median(&[4.0, 1.0, 2.0, 3.0]) != Some(2.5) {
        return Err("median".into());
    }
    Ok(())
}
