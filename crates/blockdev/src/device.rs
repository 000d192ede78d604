use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use simclock::ActorClock;

/// A byte-addressed block device under virtual time.
///
/// Offsets are raw device offsets ("LBAs" in byte units); file systems map
/// file extents onto them. Implementations charge latency to the caller's
/// clock and serialize concurrent requests on an internal device timeline.
pub trait BlockDevice: Send + Sync {
    /// Device capacity in bytes.
    fn capacity(&self) -> u64;

    /// Reads `buf.len()` bytes at `off`.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the device capacity.
    fn read(&self, off: u64, buf: &mut [u8], clock: &ActorClock);

    /// Writes `data` at `off`. The write may be acknowledged from a volatile
    /// device cache; durability requires [`flush`](BlockDevice::flush).
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the device capacity.
    fn write(&self, off: u64, data: &[u8], clock: &ActorClock);

    /// [`write`](BlockDevice::write) of a page the caller shares, such as a
    /// page cache's page under writeback: charged and counted as `write`,
    /// but a device that stores content may keep `data` itself instead of a
    /// copy. The caller must not change the shared bytes afterwards (a page
    /// cache copies a page before updating it while it is shared). The
    /// default forwards to `write`.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the device capacity.
    fn write_shared(&self, off: u64, data: &Arc<[u8]>, clock: &ActorClock) {
        self.write(off, data, clock);
    }

    /// Durably flushes the device write cache (FUA/flush command).
    fn flush(&self, clock: &ActorClock);

    /// Operation statistics.
    fn stats(&self) -> &DeviceStats;

    /// Requests the device serves at once (its command-queue channels): how
    /// many writes a file system's writeback keeps in flight. Read from the
    /// [`queue_depth`](DeviceStats::queue_depth) gauge, so a wrapper that
    /// forwards [`stats`](BlockDevice::stats) reports its inner device's
    /// depth without knowing this method.
    fn queue_depth(&self) -> usize {
        (self.stats().queue_depth.load(Ordering::Relaxed) as usize).max(1)
    }
}

/// Shared operation counters for block devices.
#[derive(Debug, Default)]
pub struct DeviceStats {
    /// Total bytes written.
    pub bytes_written: AtomicU64,
    /// Total bytes read.
    pub bytes_read: AtomicU64,
    /// Write operations classified as sequential.
    pub seq_writes: AtomicU64,
    /// Write operations classified as random.
    pub rand_writes: AtomicU64,
    /// Read operations.
    pub reads: AtomicU64,
    /// Flush commands.
    pub flushes: AtomicU64,
    /// A gauge, not a counter: the device's parallel service channels, set
    /// once by its constructor. Unset (0) reads as 1, a serial device.
    pub queue_depth: AtomicU64,
}

impl DeviceStats {
    /// Fresh counters for a device with `depth` parallel service channels.
    pub fn with_queue_depth(depth: usize) -> Self {
        DeviceStats { queue_depth: AtomicU64::new(depth as u64), ..DeviceStats::default() }
    }

    /// A point-in-time copy of the counters.
    pub fn snapshot(&self) -> DeviceStatsSnapshot {
        DeviceStatsSnapshot {
            bytes_written: self.bytes_written.load(Ordering::Relaxed),
            bytes_read: self.bytes_read.load(Ordering::Relaxed),
            seq_writes: self.seq_writes.load(Ordering::Relaxed),
            rand_writes: self.rand_writes.load(Ordering::Relaxed),
            reads: self.reads.load(Ordering::Relaxed),
            flushes: self.flushes.load(Ordering::Relaxed),
        }
    }
}

/// Plain-value snapshot of [`DeviceStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DeviceStatsSnapshot {
    /// Total bytes written.
    pub bytes_written: u64,
    /// Total bytes read.
    pub bytes_read: u64,
    /// Write operations classified as sequential.
    pub seq_writes: u64,
    /// Write operations classified as random.
    pub rand_writes: u64,
    /// Read operations.
    pub reads: u64,
    /// Flush commands.
    pub flushes: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reflects_counters() {
        let s = DeviceStats::default();
        s.bytes_written.store(4096, Ordering::Relaxed);
        s.flushes.store(2, Ordering::Relaxed);
        let snap = s.snapshot();
        assert_eq!(snap.bytes_written, 4096);
        assert_eq!(snap.flushes, 2);
        assert_eq!(snap.reads, 0);
    }

    #[test]
    fn queue_depth_is_visible_through_a_wrapper_that_only_forwards_stats() {
        struct Forward(Box<dyn BlockDevice>);
        impl BlockDevice for Forward {
            fn capacity(&self) -> u64 {
                self.0.capacity()
            }
            fn read(&self, off: u64, buf: &mut [u8], clock: &ActorClock) {
                self.0.read(off, buf, clock)
            }
            fn write(&self, off: u64, data: &[u8], clock: &ActorClock) {
                self.0.write(off, data, clock)
            }
            fn flush(&self, clock: &ActorClock) {
                self.0.flush(clock)
            }
            fn stats(&self) -> &DeviceStats {
                self.0.stats()
            }
        }
        use crate::{DmWriteCacheDev, DmWriteCacheProfile, HddDevice, HddProfile};
        use crate::{SsdDevice, SsdProfile};
        let ssd = |depth| SsdDevice::new(SsdProfile::s4600().with_queue_depth(depth));
        assert_eq!(ssd(1).queue_depth(), 1);
        assert_eq!(ssd(8).queue_depth(), 8);
        assert_eq!(Forward(Box::new(Forward(Box::new(ssd(8))))).queue_depth(), 8);
        assert_eq!(HddDevice::new(HddProfile::seven_k2()).queue_depth(), 1);
        let dimm = Arc::new(nvmm::NvDimm::new(1 << 16, nvmm::NvmmProfile::instant()));
        let cache = nvmm::NvRegion::whole(dimm);
        let dmwc = DmWriteCacheDev::new(Arc::new(ssd(8)), cache, DmWriteCacheProfile::default());
        assert_eq!(dmwc.queue_depth(), 1, "writes land in its NVMM, one at a time");
    }
}
