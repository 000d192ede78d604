//! When a write load saturates the NVMM log — the one detector behind
//! Fig. 5's "saturation @s" and Fig. 6's post-saturation rate.
//!
//! A run saturates at the first write that waits for log space (a
//! *log-full stall*), or at the first throughput sample that falls below
//! [`DROP`] of the plateau, whichever comes first. The plateau is the
//! highest of the first [`EARLY_SAMPLES`] samples, not the first one alone:
//! a small log can fill inside the first sample, which then already
//! averages in the collapse. The last sample is not judged: the end of the
//! run cuts it short, so its rate is low whatever the log did.

use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};

use fiosim::{run_job, JobResult, JobSpec};
use nvcache::NvCache;
use simclock::{ActorClock, SimTime};
use vfs::{FileSystem, Hook, Hooked, IoResult, Op};

use crate::System;

/// Samples whose maximum is the plateau.
pub const EARLY_SAMPLES: usize = 3;
/// A sample below this share of the plateau is saturated.
pub const DROP: f64 = 0.6;

/// The saturation instant of a `(sample start, MiB/s)` series, given the
/// instant of the run's first log-full stall: the earlier of that stall and
/// the first sample but the last below [`DROP`] of the plateau. `None`: the
/// run never saturated.
pub fn saturation(series: &[(SimTime, f64)], first_stall: Option<SimTime>) -> Option<SimTime> {
    let series = &series[..series.len().saturating_sub(1)];
    let early = &series[..series.len().min(EARLY_SAMPLES)];
    let plateau = early.iter().map(|&(_, v)| v).fold(0.0, f64::max);
    let peak = early.iter().position(|&(_, v)| v == plateau).unwrap_or(0);
    let dropped = series[peak..].iter().find(|&&(_, v)| v < plateau * DROP).map(|&(t, _)| t);
    first_stall.into_iter().chain(dropped).min()
}

/// Runs `job` on `sys`, an NVCache system, and returns its result with its
/// [`saturation`] instant.
///
/// # Panics
///
/// Panics if `sys` has no NVCache or the job fails.
pub fn run_to_saturation(
    sys: &System,
    job: &JobSpec,
    clock: &ActorClock,
) -> (JobResult, Option<SimTime>) {
    let nc = sys.nvcache.as_ref().expect("an NVCache system");
    let probe = StallProbe { nc: Arc::clone(nc), first: Mutex::new(None) };
    let probe = Arc::new(Hooked::new(probe, Arc::clone(&sys.fs)));
    let fs: Arc<dyn FileSystem> = Arc::clone(&probe) as _;
    let result = run_job(&fs, job, clock).expect("fio job");
    let first_stall = *probe.hook().first.lock().expect("probe");
    let sat = saturation(&result.throughput, first_stall);
    (result, sat)
}

/// Notes when the first write that waited for log space began. It never
/// touches a clock.
struct StallProbe {
    nc: Arc<NvCache>,
    first: Mutex<Option<SimTime>>,
}

impl Hook for StallProbe {
    fn around<R>(
        &self,
        op: Op,
        _bytes: usize,
        clock: &ActorClock,
        forward: impl FnOnce() -> IoResult<R>,
    ) -> IoResult<R> {
        if op != Op::Write {
            return forward();
        }
        let start = clock.now();
        let written = forward();
        let mut first = self.first.lock().expect("probe");
        let stripes = &self.nc.stats().per_shard;
        let waits: u64 = stripes.iter().map(|s| s.log_full_waits.load(Ordering::Relaxed)).sum();
        if first.is_none() && waits > 0 {
            *first = Some(start);
        }
        written
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(mib_s: &[f64]) -> Vec<(SimTime, f64)> {
        mib_s
            .iter()
            .enumerate()
            .map(|(i, &v)| (SimTime::from_millis(i as u64 * 15), v))
            .collect()
    }

    #[test]
    fn the_plateau_is_the_early_maximum_not_the_first_sample() {
        // The first sample already averages in a collapse: against it, the
        // 200 MiB/s samples would not look saturated.
        let s = series(&[300.0, 556.0, 550.0, 200.0, 80.0, 80.0]);
        assert_eq!(saturation(&s, None), Some(SimTime::from_millis(45)));
    }

    #[test]
    fn a_log_full_stall_inside_a_sample_is_the_saturation() {
        let s = series(&[104.0, 104.0, 104.0, 60.0, 104.0]);
        let stall = SimTime::from_micros(2_700);
        assert_eq!(saturation(&s, Some(stall)), Some(stall));
        // A stall after the throughput dropped does not move it later.
        assert_eq!(saturation(&s, Some(SimTime::from_secs(9))), Some(SimTime::from_millis(45)));
    }

    #[test]
    fn a_flat_run_never_saturates_whatever_its_cut_short_last_sample() {
        assert_eq!(saturation(&series(&[556.0, 540.0, 556.0, 530.0, 128.0]), None), None);
        assert_eq!(saturation(&[], None), None);
    }
}
