use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use simclock::{ActorClock, Bandwidth, ChannelResource, SimTime};

use crate::{BlockDevice, DeviceStats, SparseStore};

/// Latency model of a SATA data-center SSD (Intel DC S4600 class).
///
/// Calibrated against the quantities the paper's figures depend on:
///
/// * random 4 KiB writes sustain ≈80 MiB/s (Fig. 5: the saturated NVCache log
///   drains at "around 80 MiB/s, which corresponds to the throughput of our
///   SSD performing random writes");
/// * sequential writes sustain ≈450 MiB/s;
/// * a flush (fsync reaching the device) costs ≈140µs, making a 4 KiB
///   write+flush ≈13× slower than the write alone (paper §III cites ref \[35\]).
#[derive(Debug, Clone)]
pub struct SsdProfile {
    /// Capacity in bytes.
    pub capacity: u64,
    /// Sequential write bandwidth.
    pub seq_write: Bandwidth,
    /// Sequential read bandwidth.
    pub seq_read: Bandwidth,
    /// Service time of one random 4 KiB write.
    pub rand_write_4k: SimTime,
    /// Service time of one random 4 KiB read.
    pub rand_read_4k: SimTime,
    /// Fixed cost of a device flush.
    pub flush: SimTime,
    /// Keep written content (disable for timing-only benches).
    pub keep_content: bool,
    /// Parallel command-queue channels (NCQ depth). `1` — the seed model —
    /// serves strictly serially; `k > 1` lets up to `k` requests whose
    /// submission windows overlap proceed concurrently: `O_DIRECT` writes
    /// of an io_uring-style batch, or the pages of a file system's
    /// writeback, which `Ext4` keeps `k` in flight
    /// ([`BlockDevice::queue_depth`]). Flushes are barriers across all
    /// channels either way.
    pub queue_depth: usize,
}

impl SsdProfile {
    /// The default S4600-class profile (480 GB).
    pub fn s4600() -> Self {
        SsdProfile {
            capacity: 480 * (1 << 30),
            seq_write: Bandwidth::mib_per_sec(450.0),
            seq_read: Bandwidth::mib_per_sec(500.0),
            rand_write_4k: SimTime::from_micros(48),
            rand_read_4k: SimTime::from_micros(90),
            flush: SimTime::from_micros(140),
            keep_content: true,
            queue_depth: 1,
        }
    }

    /// Same timings, but discard content (timing-only benchmarks).
    pub fn timing_only(mut self) -> Self {
        self.keep_content = false;
        self
    }

    /// Overrides the capacity.
    pub fn with_capacity(mut self, bytes: u64) -> Self {
        self.capacity = bytes;
        self
    }

    /// Overrides the command-queue depth (parallel service channels).
    ///
    /// # Panics
    ///
    /// Panics if `depth` is zero.
    pub fn with_queue_depth(mut self, depth: usize) -> Self {
        assert!(depth >= 1, "queue depth must be at least 1");
        self.queue_depth = depth;
        self
    }
}

impl Default for SsdProfile {
    fn default() -> Self {
        Self::s4600()
    }
}

/// A simulated SSD.
///
/// Writes within 128 KiB of the previous write's end are billed at sequential
/// bandwidth; anything else pays the random 4 KiB service time per 4 KiB.
/// The device timeline is a [`ChannelResource`] with
/// [`queue_depth`](SsdProfile::queue_depth) channels: at the default depth
/// of 1 it is strictly serial (concurrent submitters queue, the seed
/// model); deeper queues serve overlapping submissions concurrently.
#[derive(Debug)]
pub struct SsdDevice {
    profile: SsdProfile,
    store: SparseStore,
    timeline: ChannelResource,
    last_write_end: AtomicU64,
    last_read_end: AtomicU64,
    stats: DeviceStats,
}

/// How far from the previous request's end an access still counts as
/// sequential (matches typical drive readahead/write-coalescing windows).
const SEQ_WINDOW: u64 = 128 * 1024;

impl SsdDevice {
    /// Creates an SSD with the given profile.
    pub fn new(profile: SsdProfile) -> Self {
        let keep = profile.keep_content;
        let depth = profile.queue_depth;
        SsdDevice {
            profile,
            store: SparseStore::new(keep),
            timeline: ChannelResource::new(depth),
            last_write_end: AtomicU64::new(u64::MAX),
            last_read_end: AtomicU64::new(u64::MAX),
            stats: DeviceStats::with_queue_depth(depth),
        }
    }

    /// The device profile.
    pub fn profile(&self) -> &SsdProfile {
        &self.profile
    }

    fn is_seq(last_end: &AtomicU64, off: u64) -> bool {
        let prev = last_end.load(Ordering::Relaxed);
        prev != u64::MAX && off >= prev && off - prev <= SEQ_WINDOW
    }

    fn chunks_4k(len: usize) -> u64 {
        (len as u64).div_ceil(4096)
    }

    /// Charges and counts a write of `len` bytes at `off`; the caller
    /// stores the content.
    fn serve_write(&self, off: u64, len: usize, clock: &ActorClock) {
        assert!(off + len as u64 <= self.capacity(), "SSD write beyond capacity: {off}+{len}");
        let seq = Self::is_seq(&self.last_write_end, off);
        self.last_write_end.store(off + len as u64, Ordering::Relaxed);
        let service = if seq {
            self.stats.seq_writes.fetch_add(1, Ordering::Relaxed);
            self.profile.seq_write.time_for(len as u64)
        } else {
            self.stats.rand_writes.fetch_add(1, Ordering::Relaxed);
            self.profile.rand_write_4k * Self::chunks_4k(len)
        };
        let done = self.timeline.serve(clock.now(), service);
        clock.advance_to(done);
        self.stats.bytes_written.fetch_add(len as u64, Ordering::Relaxed);
    }
}

impl BlockDevice for SsdDevice {
    fn capacity(&self) -> u64 {
        self.profile.capacity
    }

    fn read(&self, off: u64, buf: &mut [u8], clock: &ActorClock) {
        assert!(
            off + buf.len() as u64 <= self.capacity(),
            "SSD read beyond capacity: {off}+{}",
            buf.len()
        );
        let seq = Self::is_seq(&self.last_read_end, off);
        self.last_read_end.store(off + buf.len() as u64, Ordering::Relaxed);
        let service = if seq {
            self.profile.seq_read.time_for(buf.len() as u64)
        } else {
            self.profile.rand_read_4k * Self::chunks_4k(buf.len())
        };
        let done = self.timeline.serve(clock.now(), service);
        clock.advance_to(done);
        self.store.read(off, buf);
        self.stats.bytes_read.fetch_add(buf.len() as u64, Ordering::Relaxed);
        self.stats.reads.fetch_add(1, Ordering::Relaxed);
    }

    fn write(&self, off: u64, data: &[u8], clock: &ActorClock) {
        self.serve_write(off, data.len(), clock);
        self.store.write(off, data);
    }

    fn write_shared(&self, off: u64, data: &Arc<[u8]>, clock: &ActorClock) {
        self.serve_write(off, data.len(), clock);
        self.store.write_shared(off, data);
    }

    fn flush(&self, clock: &ActorClock) {
        // A flush is a barrier: it completes only after every queued command.
        let done = self.timeline.serve_barrier(clock.now(), self.profile.flush);
        clock.advance_to(done);
        self.stats.flushes.fetch_add(1, Ordering::Relaxed);
    }

    fn stats(&self) -> &DeviceStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_write_throughput_is_about_80_mib_s() {
        let ssd = SsdDevice::new(SsdProfile::s4600());
        let clock = ActorClock::new();
        let buf = [0u8; 4096];
        let n = 1000u64;
        for i in 0..n {
            // Stride far apart => random.
            ssd.write(i * (1 << 20), &buf, &clock);
        }
        let secs = clock.now().as_secs_f64();
        let mib = (n * 4096) as f64 / (1 << 20) as f64;
        let tput = mib / secs;
        assert!((70.0..95.0).contains(&tput), "random write tput {tput} MiB/s");
    }

    #[test]
    fn sequential_writes_are_much_faster() {
        let ssd = SsdDevice::new(SsdProfile::s4600());
        let clock = ActorClock::new();
        let buf = [0u8; 4096];
        let mut off = 0;
        for _ in 0..1000 {
            ssd.write(off, &buf, &clock);
            off += 4096;
        }
        let secs = clock.now().as_secs_f64();
        let tput = (1000u64 * 4096) as f64 / (1 << 20) as f64 / secs;
        assert!(tput > 300.0, "sequential write tput {tput} MiB/s");
        assert!(ssd.stats().snapshot().seq_writes >= 999);
    }

    #[test]
    fn flush_is_an_order_of_magnitude_costlier_than_a_write() {
        let ssd = SsdDevice::new(SsdProfile::s4600());
        let c1 = ActorClock::new();
        ssd.write(0, &[0u8; 4096], &c1);
        let write_only = c1.now();
        let ssd2 = SsdDevice::new(SsdProfile::s4600());
        let c2 = ActorClock::new();
        ssd2.write(0, &[0u8; 4096], &c2);
        ssd2.flush(&c2);
        let with_flush = c2.now();
        let ratio = with_flush.as_nanos() as f64 / write_only.as_nanos() as f64;
        assert!(ratio > 3.0, "flush ratio {ratio}");
    }

    #[test]
    fn content_round_trips() {
        let ssd = SsdDevice::new(SsdProfile::s4600());
        let clock = ActorClock::new();
        ssd.write(12_345, b"block content", &clock);
        let mut buf = [0u8; 13];
        ssd.read(12_345, &mut buf, &clock);
        assert_eq!(&buf, b"block content");
    }

    #[test]
    fn concurrent_writers_share_the_device() {
        use std::sync::Arc;
        let ssd = Arc::new(SsdDevice::new(SsdProfile::s4600()));
        let mut handles = Vec::new();
        for t in 0..4 {
            let ssd = Arc::clone(&ssd);
            handles.push(std::thread::spawn(move || {
                let clock = ActorClock::new();
                for i in 0..50u64 {
                    ssd.write((t * 1000 + i) * (1 << 22), &[1u8; 4096], &clock);
                }
                clock.now()
            }));
        }
        let finish: Vec<SimTime> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        // 200 random 4KiB writes on one serial device: the last finisher must
        // observe at least the total service time.
        let max = finish.iter().copied().max().unwrap();
        assert!(max >= SsdProfile::s4600().rand_write_4k * 200);
    }

    #[test]
    fn queue_depth_overlaps_batched_random_writes() {
        // 32 random 4 KiB writes submitted at the same instant: a QD-8 drive
        // serves them in 4 waves instead of 32 serial slots.
        let service = SsdProfile::s4600().rand_write_4k;
        let elapsed = |depth: usize| {
            let ssd = SsdDevice::new(SsdProfile::s4600().with_queue_depth(depth));
            let mut last = SimTime::ZERO;
            for i in 0..32u64 {
                let op = ActorClock::new(); // all submitted at t=0
                ssd.write(i * (1 << 20), &[0u8; 4096], &op);
                last = last.max(op.now());
            }
            last
        };
        assert_eq!(elapsed(1), service * 32);
        assert_eq!(elapsed(8), service * 4);
    }

    #[test]
    fn flush_is_a_barrier_across_channels() {
        let ssd = SsdDevice::new(SsdProfile::s4600().with_queue_depth(4));
        for i in 0..4u64 {
            let op = ActorClock::new();
            ssd.write(i * (1 << 20), &[0u8; 4096], &op);
        }
        let c = ActorClock::new();
        ssd.flush(&c);
        let profile = SsdProfile::s4600();
        assert_eq!(c.now(), profile.rand_write_4k + profile.flush);
    }

    #[test]
    #[should_panic(expected = "beyond capacity")]
    fn capacity_is_enforced() {
        let ssd = SsdDevice::new(SsdProfile::s4600().with_capacity(4096));
        let clock = ActorClock::new();
        ssd.write(4000, &[0u8; 200], &clock);
    }
}
