//! Per-tenant latency/throughput accounting over mergeable log-scale
//! histograms ([`fiosim::LatencyHistogram`]).

use fiosim::{JobResult, LatencyHistogram, Tail};
use simclock::SimTime;

use crate::gen::OpKind;

/// Mutable per-tenant accounting while a run is in flight.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantMetrics {
    /// Tenant display name.
    pub name: String,
    /// All operations, merged.
    pub all: LatencyHistogram,
    /// Read latencies.
    pub reads: LatencyHistogram,
    /// Write latencies.
    pub writes: LatencyHistogram,
    /// Explicit fsync latencies (raw-FS tenants).
    pub fsyncs: LatencyHistogram,
    /// Virtual time the tenant's first worker started.
    pub started: SimTime,
    /// Virtual time the tenant's last operation completed.
    pub finished: SimTime,
    /// Offered rate of the materialised trace, ops/s (open-loop tenants).
    pub offered_ops_per_sec: Option<f64>,
}

impl TenantMetrics {
    /// Fresh, empty accounting for a tenant starting at `started`.
    pub fn new(name: &str, started: SimTime, offered_ops_per_sec: Option<f64>) -> TenantMetrics {
        TenantMetrics {
            name: name.to_string(),
            all: LatencyHistogram::new(),
            reads: LatencyHistogram::new(),
            writes: LatencyHistogram::new(),
            fsyncs: LatencyHistogram::new(),
            started,
            finished: started,
            offered_ops_per_sec,
        }
    }

    /// Records one completed operation.
    pub fn record(&mut self, kind: OpKind, latency: SimTime, completed_at: SimTime) {
        self.all.record(latency);
        match kind {
            OpKind::Read => self.reads.record(latency),
            OpKind::Write => self.writes.record(latency),
            OpKind::Fsync => self.fsyncs.record(latency),
        }
        self.finished = self.finished.max(completed_at);
    }

    /// Folds a whole [`fiosim::JobResult`] into this tenant's distribution —
    /// the bridge for tenants (or warmup phases) driven through `run_job`
    /// instead of op-by-op through the engine. The job's merged histogram
    /// lands in `all`; reads/writes stay per-op-class only for engine-driven
    /// ops (fio jobs interleave classes in one stream).
    pub fn absorb_job_result(&mut self, result: &JobResult) {
        self.all.merge(&result.latency_hist);
        self.finished = self.finished.max(self.started + result.elapsed);
    }

    /// Operations recorded so far.
    pub fn ops(&self) -> u64 {
        self.all.count()
    }

    /// Wall (virtual) time from start to last completion.
    pub fn elapsed(&self) -> SimTime {
        self.finished.saturating_sub(self.started)
    }

    /// Achieved throughput, ops per virtual second.
    pub fn achieved_ops_per_sec(&self) -> f64 {
        let secs = self.elapsed().as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.ops() as f64 / secs
        }
    }

    /// Freezes the accounting into a report.
    pub fn report(&self) -> TenantReport {
        TenantReport {
            name: self.name.clone(),
            ops: self.ops(),
            elapsed: self.elapsed(),
            offered_ops_per_sec: self.offered_ops_per_sec,
            achieved_ops_per_sec: self.achieved_ops_per_sec(),
            all: self.all.clone(),
            reads: self.reads.clone(),
            writes: self.writes.clone(),
            fsyncs: self.fsyncs.clone(),
        }
    }
}

/// Frozen per-tenant results.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantReport {
    /// Tenant display name.
    pub name: String,
    /// Operations completed.
    pub ops: u64,
    /// Virtual time from tenant start to last completion.
    pub elapsed: SimTime,
    /// Offered rate of the materialised trace (open loop), ops/s.
    pub offered_ops_per_sec: Option<f64>,
    /// Achieved rate, ops/s.
    pub achieved_ops_per_sec: f64,
    /// All-op latency distribution.
    pub all: LatencyHistogram,
    /// Read latency distribution.
    pub reads: LatencyHistogram,
    /// Write latency distribution.
    pub writes: LatencyHistogram,
    /// Fsync latency distribution.
    pub fsyncs: LatencyHistogram,
}

impl TenantReport {
    /// p50/p99/p999 over all operations.
    pub fn tail(&self) -> Tail {
        Tail::of(&self.all)
    }

    /// Fraction of the offered rate actually achieved (1.0 when the tenant
    /// is closed-loop or keeping up; < 1 when saturated).
    pub fn saturation_ratio(&self) -> f64 {
        match self.offered_ops_per_sec {
            Some(offered) if offered > 0.0 => self.achieved_ops_per_sec / offered,
            _ => 1.0,
        }
    }
}

/// Whole-run results: per-tenant reports plus the merged clock horizon.
#[derive(Debug, Clone, PartialEq)]
pub struct TrafficReport {
    /// One report per tenant, in spec order.
    pub tenants: Vec<TenantReport>,
    /// Virtual time the run started (post-setup).
    pub started: SimTime,
    /// Highest virtual time any worker reached.
    pub final_clock: SimTime,
}

impl TrafficReport {
    /// Run duration in virtual time.
    pub fn elapsed(&self) -> SimTime {
        self.final_clock.saturating_sub(self.started)
    }

    /// Merged all-tenant latency distribution.
    pub fn merged(&self) -> LatencyHistogram {
        let mut h = LatencyHistogram::new();
        for t in &self.tenants {
            h.merge(&t.all);
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_routes_by_kind_and_tracks_horizon() {
        let mut m = TenantMetrics::new("t", SimTime::from_secs(1), Some(100.0));
        m.record(OpKind::Read, SimTime::from_micros(10), SimTime::from_secs(2));
        m.record(OpKind::Write, SimTime::from_micros(20), SimTime::from_secs(3));
        m.record(OpKind::Fsync, SimTime::from_micros(30), SimTime::from_secs(4));
        assert_eq!(m.ops(), 3);
        assert_eq!((m.reads.count(), m.writes.count(), m.fsyncs.count()), (1, 1, 1));
        assert_eq!(m.elapsed(), SimTime::from_secs(3));
        let r = m.report();
        assert!((r.achieved_ops_per_sec - 1.0).abs() < 1e-9);
        assert!(r.tail().p50 <= r.tail().p999);
    }

    #[test]
    fn absorb_job_result_merges_histogram() {
        let mut h = LatencyHistogram::new();
        h.record(SimTime::from_micros(5));
        h.record(SimTime::from_micros(50));
        let job =
            JobResult { latency_hist: h, elapsed: SimTime::from_secs(2), ..JobResult::default() };
        let mut m = TenantMetrics::new("t", SimTime::ZERO, None);
        m.absorb_job_result(&job);
        assert_eq!(m.ops(), 2);
        assert_eq!(m.elapsed(), SimTime::from_secs(2));
    }

    #[test]
    fn saturation_ratio_reflects_shortfall() {
        let mut m = TenantMetrics::new("t", SimTime::ZERO, Some(200.0));
        for i in 0..100u64 {
            m.record(OpKind::Read, SimTime::from_micros(10), SimTime::from_millis(10 * (i + 1)));
        }
        // 100 ops over 1 virtual second = 100 ops/s achieved vs 200 offered.
        let r = m.report();
        assert!((r.saturation_ratio() - 0.5).abs() < 0.01, "{}", r.saturation_ratio());
    }
}
