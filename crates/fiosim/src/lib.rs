//! fiosim — a FIO-like flexible I/O tester for the NVCache reproduction.
//!
//! The paper's §IV-C analysis drives everything with FIO 3.20 configured as
//! `fsync=1 direct=1 bs=4k ioengine=psync`; this crate reproduces that
//! workload generator against any [`vfs::FileSystem`], measuring per-second
//! virtual-time series of throughput, average latency and cumulative bytes —
//! the three panels of paper Figures 4–7.
//!
//! The crate also hosts [`IoRing`], an io_uring-style submission/completion
//! ring (see [`uring`]) that models batched, overlapping I/O under virtual
//! time; the NVCache cleanup workers drain the NVMM log through it.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use fiosim::{JobSpec, RwMode, run_job};
//! use simclock::ActorClock;
//! use vfs::{FileSystem, MemFs};
//!
//! # fn main() -> Result<(), vfs::IoError> {
//! let fs: Arc<dyn FileSystem> = Arc::new(MemFs::new());
//! let spec = JobSpec {
//!     name: "smoke".into(),
//!     rw: RwMode::RandWrite,
//!     file_size: 1 << 20,
//!     io_total: 1 << 20,
//!     ..JobSpec::default()
//! };
//! let result = run_job(&fs, &spec, &ActorClock::new())?;
//! assert_eq!(result.total_bytes, 1 << 20);
//! # Ok(())
//! # }
//! ```

pub mod hist;
pub mod uring;

pub use hist::{LatencyHistogram, Tail};
pub use uring::{Cqe, IoRing};

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simclock::{ActorClock, SimTime, TimeSeries};
use vfs::{FileSystem, IoResult, OpenFlags};

/// Access pattern, as in fio's `rw=` option.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RwMode {
    /// Sequential reads.
    Read,
    /// Sequential writes.
    Write,
    /// Random reads.
    RandRead,
    /// Random writes.
    RandWrite,
    /// Mixed random I/O with the given read percentage.
    RandRw {
        /// Percentage of operations that are reads (0–100).
        read_pct: u8,
    },
}

impl RwMode {
    fn has_reads(self) -> bool {
        !matches!(self, RwMode::Write | RwMode::RandWrite)
    }
    fn is_random(self) -> bool {
        matches!(self, RwMode::RandRead | RwMode::RandWrite | RwMode::RandRw { .. })
    }
}

/// One FIO job description.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Job name (reporting only).
    pub name: String,
    /// Target file path.
    pub path: String,
    /// Access pattern.
    pub rw: RwMode,
    /// Block size (`bs=`).
    pub bs: usize,
    /// Size of the target file (`filesize=`); offsets stay below it.
    pub file_size: u64,
    /// Total bytes to transfer (`io_size=`).
    pub io_total: u64,
    /// Issue `fsync` after every N writes (`fsync=`; 0 disables).
    pub fsync_every: u32,
    /// Open with `O_DIRECT` (`direct=1`).
    pub direct: bool,
    /// Pre-fill the file before timed reads (fio lays out files too).
    pub prefill: bool,
    /// RNG seed for offset/mix decisions.
    pub seed: u64,
    /// Sampling interval for the time series.
    pub sample_interval: SimTime,
}

impl Default for JobSpec {
    fn default() -> Self {
        JobSpec {
            name: "job".into(),
            path: "/fio/data".into(),
            rw: RwMode::RandWrite,
            bs: 4096,
            file_size: 64 << 20,
            io_total: 64 << 20,
            fsync_every: 1,
            direct: true,
            prefill: false,
            seed: 42,
            sample_interval: SimTime::from_millis(250),
        }
    }
}

/// Result of one job run.
#[derive(Debug, Default)]
pub struct JobResult {
    /// Job name.
    pub name: String,
    /// Bytes actually transferred.
    pub total_bytes: u64,
    /// Bytes written (subset of total).
    pub written_bytes: u64,
    /// Bytes read (subset of total).
    pub read_bytes: u64,
    /// Virtual time from first to last operation.
    pub elapsed: SimTime,
    /// Mean per-operation latency.
    pub mean_latency: SimTime,
    /// Maximum per-operation latency.
    pub max_latency: SimTime,
    /// Median per-operation latency (50th percentile, interpolated on
    /// [`latency_hist`](JobResult::latency_hist)).
    pub p50_latency: SimTime,
    /// Tail per-operation latency (99th percentile, interpolated).
    pub p99_latency: SimTime,
    /// Extreme-tail per-operation latency (99.9th percentile,
    /// interpolated).
    pub p999_latency: SimTime,
    /// The full per-operation latency distribution — mergeable, so callers
    /// aggregating several jobs (the traffic engine's tenants, multi-file
    /// sweeps) can combine distributions instead of re-deriving them from
    /// raw samples.
    pub latency_hist: LatencyHistogram,
    /// Operations issued.
    pub ops: u64,
    /// (interval start, MiB/s) series — paper Fig. 4 left panel.
    pub throughput: Vec<(SimTime, f64)>,
    /// (interval start, µs) *cumulative average* latency series — the paper
    /// reports "average latency as measured from the beginning of the run
    /// to the end of each period" (Fig. 4 middle panel).
    pub avg_latency: Vec<(SimTime, f64)>,
    /// (interval start, GiB) cumulative transferred data — Fig. 4 right.
    pub cumulative_gib: Vec<(SimTime, f64)>,
    /// Same series restricted to writes (for mixed workloads, Fig. 7).
    pub write_throughput: Vec<(SimTime, f64)>,
    /// Read-only throughput series (Fig. 7 right panel).
    pub read_throughput: Vec<(SimTime, f64)>,
}

impl JobResult {
    /// Mean throughput over the whole run, in MiB/s.
    pub fn mean_throughput_mib_s(&self) -> f64 {
        if self.elapsed == SimTime::ZERO {
            return 0.0;
        }
        self.total_bytes as f64 / (1u64 << 20) as f64 / self.elapsed.as_secs_f64()
    }
}

fn make_pattern(bs: usize, salt: u64) -> Vec<u8> {
    (0..bs)
        .map(|i| ((i as u64).wrapping_mul(31).wrapping_add(salt) % 251) as u8)
        .collect()
}

/// Runs one job against `fs`, charging all I/O to `clock`.
///
/// # Errors
///
/// Propagates any error from the underlying file system.
pub fn run_job(
    fs: &Arc<dyn FileSystem>,
    spec: &JobSpec,
    clock: &ActorClock,
) -> IoResult<JobResult> {
    let mut flags = OpenFlags::RDWR | OpenFlags::CREATE;
    if spec.direct {
        flags |= OpenFlags::DIRECT;
    }
    let fd = fs.open(&spec.path, flags, clock)?;

    if spec.prefill || spec.rw.has_reads() {
        // Lay out the file on a throwaway clock so the timed phase starts
        // from a populated file without inheriting the layout cost.
        let layout_clock = ActorClock::starting_at(clock.now());
        let pattern = make_pattern(spec.bs.max(4096), 7);
        let mut off = 0;
        while off < spec.file_size {
            let n = pattern.len().min((spec.file_size - off) as usize);
            fs.pwrite(fd, &pattern[..n], off, &layout_clock)?;
            off += n as u64;
        }
        fs.fsync(fd, &layout_clock)?;
    }

    let mut rng = StdRng::seed_from_u64(spec.seed);
    let blocks = (spec.file_size / spec.bs as u64).max(1);
    let pattern = make_pattern(spec.bs, 3);
    let mut read_buf = vec![0u8; spec.bs];

    let start = clock.now();
    let bytes_series = TimeSeries::new();
    let written_series = TimeSeries::new();
    let read_series = TimeSeries::new();
    let mut lat_samples: Vec<(SimTime, SimTime)> = Vec::new(); // (when, latency)

    let mut done = 0u64;
    let mut written = 0u64;
    let mut read = 0u64;
    let mut ops = 0u64;
    let mut seq_block = 0u64;
    let mut writes_since_fsync = 0u32;
    let mut lat_sum = SimTime::ZERO;
    let mut lat_max = SimTime::ZERO;
    let mut lat_hist = LatencyHistogram::new();

    while done < spec.io_total {
        let is_read = match spec.rw {
            RwMode::Read | RwMode::RandRead => true,
            RwMode::Write | RwMode::RandWrite => false,
            RwMode::RandRw { read_pct } => rng.gen_range(0..100u32) < read_pct as u32,
        };
        let block = if spec.rw.is_random() {
            rng.gen_range(0..blocks)
        } else {
            let b = seq_block % blocks;
            seq_block += 1;
            b
        };
        let off = block * spec.bs as u64;
        let before = clock.now();
        let n = if is_read {
            let n = fs.pread(fd, &mut read_buf, off, clock)?;
            read += n as u64;
            n
        } else {
            let n = fs.pwrite(fd, &pattern, off, clock)?;
            written += n as u64;
            writes_since_fsync += 1;
            if spec.fsync_every > 0 && writes_since_fsync >= spec.fsync_every {
                fs.fsync(fd, clock)?;
                writes_since_fsync = 0;
            }
            n
        };
        let now = clock.now();
        let lat = now - before;
        lat_sum += lat;
        lat_max = lat_max.max(lat);
        lat_hist.record(lat);
        ops += 1;
        done += n.max(1) as u64;
        lat_samples.push((now, lat));
        bytes_series.record(now, done as f64);
        written_series.record(now, written as f64);
        read_series.record(now, read as f64);
    }
    // fio reports steady-state transfer time; teardown (close) is excluded —
    // under NVCache, close additionally pushes still-pending log entries to
    // the kernel, which is not part of the measured I/O phase.
    let elapsed = clock.now() - start;
    fs.close(fd, clock)?;

    // Cumulative-average latency per sample interval.
    let mut avg_latency = Vec::new();
    {
        let mut sum = SimTime::ZERO;
        let mut count = 0u64;
        let width = spec.sample_interval.as_nanos().max(1);
        let mut current_bin: Option<u64> = None;
        for (when, lat) in &lat_samples {
            let bin = when.saturating_sub(start).as_nanos() / width;
            if current_bin.is_some_and(|b| b != bin) {
                let b = current_bin.expect("bin set");
                avg_latency
                    .push((SimTime::from_nanos(b * width), (sum / count.max(1)).as_micros_f64()));
            }
            current_bin = Some(bin);
            sum += *lat;
            count += 1;
        }
        if let Some(b) = current_bin {
            avg_latency
                .push((SimTime::from_nanos(b * width), (sum / count.max(1)).as_micros_f64()));
        }
    }

    let cumulative_gib = bytes_series
        .binned(spec.sample_interval)
        .into_iter()
        .map(|b| (b.t, b.last / (1u64 << 30) as f64))
        .collect();

    // Interpolated percentiles over the merged log-scale histogram (fio's
    // clat percentiles) — unlike nearest-rank over raw samples, tiny
    // sample counts don't collapse p50/p99/p999 onto one sample.
    let (p50_latency, p99_latency, p999_latency) =
        (lat_hist.p50(), lat_hist.p99(), lat_hist.p999());

    Ok(JobResult {
        name: spec.name.clone(),
        total_bytes: done,
        written_bytes: written,
        read_bytes: read,
        elapsed,
        mean_latency: if ops == 0 { SimTime::ZERO } else { lat_sum / ops },
        max_latency: lat_max,
        p50_latency,
        p99_latency,
        p999_latency,
        latency_hist: lat_hist,
        ops,
        throughput: bytes_series.throughput_mib_s(spec.sample_interval),
        avg_latency,
        cumulative_gib,
        write_throughput: written_series.throughput_mib_s(spec.sample_interval),
        read_throughput: read_series.throughput_mib_s(spec.sample_interval),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use vfs::MemFs;

    fn memfs() -> Arc<dyn FileSystem> {
        Arc::new(MemFs::new())
    }

    #[test]
    fn randwrite_transfers_exactly_io_total() {
        let fs = memfs();
        let spec = JobSpec {
            rw: RwMode::RandWrite,
            file_size: 1 << 20,
            io_total: 1 << 20,
            ..JobSpec::default()
        };
        let r = run_job(&fs, &spec, &ActorClock::new()).unwrap();
        assert_eq!(r.total_bytes, 1 << 20);
        assert_eq!(r.written_bytes, 1 << 20);
        assert_eq!(r.read_bytes, 0);
        assert_eq!(r.ops, 256);
        assert!(r.elapsed > SimTime::ZERO);
        assert!(r.mean_throughput_mib_s() > 0.0);
    }

    #[test]
    fn sequential_write_covers_the_file_in_order() {
        let fs = memfs();
        let spec = JobSpec {
            rw: RwMode::Write,
            file_size: 256 << 10,
            io_total: 256 << 10,
            fsync_every: 0,
            ..JobSpec::default()
        };
        let clock = ActorClock::new();
        run_job(&fs, &spec, &clock).unwrap();
        assert_eq!(fs.stat("/fio/data", &clock).unwrap().size, 256 << 10);
    }

    #[test]
    fn read_jobs_prefill_and_only_read() {
        let fs = memfs();
        let spec = JobSpec {
            rw: RwMode::RandRead,
            file_size: 512 << 10,
            io_total: 256 << 10,
            ..JobSpec::default()
        };
        let r = run_job(&fs, &spec, &ActorClock::new()).unwrap();
        assert_eq!(r.read_bytes, 256 << 10);
        assert_eq!(r.written_bytes, 0);
    }

    #[test]
    fn mixed_workload_has_both_kinds() {
        let fs = memfs();
        let spec = JobSpec {
            rw: RwMode::RandRw { read_pct: 50 },
            file_size: 1 << 20,
            io_total: 1 << 20,
            seed: 7,
            ..JobSpec::default()
        };
        let r = run_job(&fs, &spec, &ActorClock::new()).unwrap();
        assert!(r.read_bytes > 0, "expected some reads");
        assert!(r.written_bytes > 0, "expected some writes");
        assert_eq!(r.read_bytes + r.written_bytes, r.total_bytes);
    }

    #[test]
    fn series_are_consistent_with_totals() {
        let fs = memfs();
        let spec = JobSpec {
            rw: RwMode::RandWrite,
            file_size: 1 << 20,
            io_total: 1 << 20,
            ..JobSpec::default()
        };
        let r = run_job(&fs, &spec, &ActorClock::new()).unwrap();
        assert!(!r.throughput.is_empty());
        assert!(!r.avg_latency.is_empty());
        let last = r.cumulative_gib.last().unwrap().1;
        assert!((last - 1.0 / 1024.0).abs() < 1e-9, "cumulative GiB mismatch: {last}");
    }

    #[test]
    fn percentiles_are_ordered_and_histogram_matches_ops() {
        let fs = memfs();
        let spec = JobSpec {
            rw: RwMode::RandWrite,
            file_size: 1 << 20,
            io_total: 1 << 20,
            ..JobSpec::default()
        };
        let r = run_job(&fs, &spec, &ActorClock::new()).unwrap();
        assert_eq!(r.latency_hist.count(), r.ops);
        assert!(r.p50_latency <= r.p99_latency);
        assert!(r.p99_latency <= r.p999_latency);
        assert!(r.p999_latency <= r.max_latency);
        assert!(r.p50_latency > SimTime::ZERO);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let spec = JobSpec {
            rw: RwMode::RandWrite,
            file_size: 1 << 20,
            io_total: 256 << 10,
            ..JobSpec::default()
        };
        let a = run_job(&memfs(), &spec, &ActorClock::new()).unwrap();
        let b = run_job(&memfs(), &spec, &ActorClock::new()).unwrap();
        assert_eq!(a.elapsed, b.elapsed);
        assert_eq!(a.mean_latency, b.mean_latency);
    }
}
