use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use simclock::{ActorClock, Bandwidth, ChannelResource, SimTime};

use crate::{BlockDevice, DeviceStats, SparseStore};

/// Latency model of a 7200 RPM hard drive.
///
/// The paper does not benchmark spinning disks, but motivates NVCache partly
/// by the kernel's seek-optimizing I/O schedulers (§I cites arm-movement
/// optimizations). This profile exists for ablation experiments that show the
/// write-combining/batching benefits are even larger when the backing store
/// seeks.
#[derive(Debug, Clone)]
pub struct HddProfile {
    /// Capacity in bytes.
    pub capacity: u64,
    /// Sequential transfer bandwidth.
    pub seq: Bandwidth,
    /// Average seek + rotational latency charged to non-adjacent accesses.
    pub seek: SimTime,
    /// Fixed cost of a cache flush.
    pub flush: SimTime,
    /// Keep written content.
    pub keep_content: bool,
}

impl HddProfile {
    /// A generic 7200 RPM SATA drive.
    pub fn seven_k2() -> Self {
        HddProfile {
            capacity: 2 * (1u64 << 40),
            seq: Bandwidth::mib_per_sec(180.0),
            seek: SimTime::from_millis(8),
            flush: SimTime::from_millis(4),
            keep_content: true,
        }
    }
}

impl Default for HddProfile {
    fn default() -> Self {
        Self::seven_k2()
    }
}

/// A simulated spinning disk: every non-adjacent access pays a seek.
#[derive(Debug)]
pub struct HddDevice {
    profile: HddProfile,
    store: SparseStore,
    timeline: ChannelResource,
    head: AtomicU64,
    stats: DeviceStats,
}

impl HddDevice {
    /// Creates a drive with the given profile.
    pub fn new(profile: HddProfile) -> Self {
        let keep = profile.keep_content;
        HddDevice {
            profile,
            store: SparseStore::new(keep),
            timeline: ChannelResource::new(1),
            head: AtomicU64::new(0),
            stats: DeviceStats::default(),
        }
    }

    fn service(&self, off: u64, len: usize, is_write: bool) -> SimTime {
        let head = self.head.swap(off + len as u64, Ordering::Relaxed);
        let transfer = self.profile.seq.time_for(len as u64);
        if off == head {
            if is_write {
                self.stats.seq_writes.fetch_add(1, Ordering::Relaxed);
            }
            transfer
        } else {
            if is_write {
                self.stats.rand_writes.fetch_add(1, Ordering::Relaxed);
            }
            self.profile.seek + transfer
        }
    }

    /// Charges and counts a write of `len` bytes at `off`; the caller
    /// stores the content.
    fn serve_write(&self, off: u64, len: usize, clock: &ActorClock) {
        assert!(off + len as u64 <= self.capacity(), "HDD write beyond capacity");
        let service = self.service(off, len, true);
        let done = self.timeline.serve(clock.now(), service);
        clock.advance_to(done);
        self.stats.bytes_written.fetch_add(len as u64, Ordering::Relaxed);
    }
}

impl BlockDevice for HddDevice {
    fn capacity(&self) -> u64 {
        self.profile.capacity
    }

    fn read(&self, off: u64, buf: &mut [u8], clock: &ActorClock) {
        assert!(off + buf.len() as u64 <= self.capacity(), "HDD read beyond capacity");
        let service = self.service(off, buf.len(), false);
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
        let done = self.timeline.serve(clock.now(), self.profile.flush);
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
    fn random_access_pays_seeks() {
        let hdd = HddDevice::new(HddProfile::seven_k2());
        let clock = ActorClock::new();
        for i in 0..10u64 {
            hdd.write(i * (1 << 30), &[0u8; 4096], &clock);
        }
        // 9 seeks at 8ms dominate (the first write starts at the park
        // position, offset 0, so it is adjacent).
        assert!(clock.now() >= SimTime::from_millis(72));
        assert_eq!(hdd.stats().snapshot().rand_writes, 9);
    }

    #[test]
    fn sequential_access_avoids_seeks() {
        let hdd = HddDevice::new(HddProfile::seven_k2());
        let clock = ActorClock::new();
        let mut off = 0;
        // First write seeks (head at 0 matches off 0, so actually none).
        for _ in 0..10 {
            hdd.write(off, &[0u8; 4096], &clock);
            off += 4096;
        }
        assert!(clock.now() < SimTime::from_millis(2));
        assert_eq!(hdd.stats().snapshot().rand_writes, 0);
    }

    #[test]
    fn content_round_trips() {
        let hdd = HddDevice::new(HddProfile::seven_k2());
        let clock = ActorClock::new();
        hdd.write(999, b"spinning rust", &clock);
        let mut buf = [0u8; 13];
        hdd.read(999, &mut buf, &clock);
        assert_eq!(&buf, b"spinning rust");
    }
}
