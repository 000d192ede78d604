use std::collections::{HashMap, VecDeque};
use std::sync::atomic::Ordering;
use std::sync::Arc;

use nvmm::NvRegion;
use parking_lot::Mutex;
use simclock::{ActorClock, SimTime};

use crate::{BlockDevice, DeviceStats};

/// Tuning parameters of the [`DmWriteCacheDev`] target.
#[derive(Debug, Clone)]
pub struct DmWriteCacheProfile {
    /// Cache block size (dm-writecache default is the page size).
    pub block_size: u64,
    /// Cost of updating + committing the per-block cache metadata in NVMM.
    pub metadata_update: SimTime,
    /// Dirty fraction above which writers are throttled into writeback.
    pub high_watermark: f64,
    /// Dirty fraction writeback drains down to once triggered.
    pub low_watermark: f64,
}

impl Default for DmWriteCacheProfile {
    fn default() -> Self {
        DmWriteCacheProfile {
            block_size: 4096,
            metadata_update: SimTime::from_micros(2),
            high_watermark: 0.50,
            low_watermark: 0.45,
        }
    }
}

#[derive(Debug, Default)]
struct DmState {
    /// device block -> cache slot index
    map: HashMap<u64, u64>,
    /// dirty device blocks in arrival order
    dirty: VecDeque<u64>,
    free_slots: Vec<u64>,
}

/// The `dm-writecache` device-mapper target: an SSD fronted by an NVMM block
/// cache (paper Table I column "DM-WriteCache", ref \[53\]).
///
/// Writes land in persistent memory (fast, durable once metadata commits)
/// and are written back to the SSD in the background; reads prefer the cache.
/// Crucially this cache sits *behind* the kernel page cache — the performance
/// consequence the paper highlights (synchronous durability requires pushing
/// each write through the page-cache writeback machinery) is modelled in the
/// `vfs` layer, which drives this device.
///
/// Writeback is modelled as writer-throttling: when the dirty fraction
/// exceeds the high watermark, the writing thread itself drains blocks to the
/// SSD until the low watermark is reached (the real target defers to a
/// kworker; under sustained load the effect is the same — producers run at
/// SSD speed).
pub struct DmWriteCacheDev {
    ssd: Arc<dyn BlockDevice>,
    cache: NvRegion,
    profile: DmWriteCacheProfile,
    state: Mutex<DmState>,
    stats: DeviceStats,
}

impl std::fmt::Debug for DmWriteCacheDev {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DmWriteCacheDev")
            .field("slots", &self.slot_count())
            .field("block_size", &self.profile.block_size)
            .finish()
    }
}

impl DmWriteCacheDev {
    /// Creates the target over `ssd` with `cache` as the NVMM cache area.
    ///
    /// # Panics
    ///
    /// Panics if the cache region is smaller than one block.
    pub fn new(ssd: Arc<dyn BlockDevice>, cache: NvRegion, profile: DmWriteCacheProfile) -> Self {
        let slots = cache.len() / profile.block_size;
        assert!(slots > 0, "dm-writecache region smaller than one block");
        let state = DmState { free_slots: (0..slots).rev().collect(), ..DmState::default() };
        DmWriteCacheDev {
            ssd,
            cache,
            profile,
            state: Mutex::new(state),
            stats: DeviceStats::default(),
        }
    }

    /// Number of cache slots.
    pub fn slot_count(&self) -> u64 {
        self.cache.len() / self.profile.block_size
    }

    /// Currently dirty (not yet written back) blocks.
    pub fn dirty_blocks(&self) -> usize {
        self.state.lock().dirty.len()
    }

    fn slot_off(&self, slot: u64) -> u64 {
        slot * self.profile.block_size
    }

    /// Drains dirty blocks to the SSD until at most `target` remain.
    fn writeback_to(&self, target: usize, clock: &ActorClock) {
        let bs = self.profile.block_size as usize;
        loop {
            let (block, slot) = {
                let mut st = self.state.lock();
                if st.dirty.len() <= target {
                    return;
                }
                let block = st.dirty.pop_front().expect("dirty nonempty");
                let slot = st.map[&block];
                (block, slot)
            };
            let mut buf = vec![0u8; bs];
            self.cache.read(self.slot_off(slot), &mut buf, clock);
            self.ssd.write(block * self.profile.block_size, &buf, clock);
            // The block leaves the cache: a later read goes to the SSD, and
            // its slot is free for the next miss.
            let mut st = self.state.lock();
            st.map.remove(&block);
            st.free_slots.push(slot);
        }
    }

    fn write_block(&self, block: u64, in_block: usize, data: &[u8], clock: &ActorClock) {
        let bs = self.profile.block_size as usize;
        let (slot, was_cached) = {
            let mut st = self.state.lock();
            match st.map.get(&block) {
                Some(&s) => (s, true),
                None => {
                    let slot = loop {
                        if let Some(s) = st.free_slots.pop() {
                            break s;
                        }
                        // Cache completely full of dirty blocks: release the
                        // lock and force writeback, then retry.
                        drop(st);
                        self.writeback_to((self.slot_count() as usize).saturating_sub(1), clock);
                        st = self.state.lock();
                    };
                    st.map.insert(block, slot);
                    (slot, false)
                }
            }
        };
        let full_block = in_block == 0 && data.len() == bs;
        if full_block {
            self.cache.write_and_pwb(self.slot_off(slot), data, clock);
        } else if was_cached {
            // Partial update of a cached block: modify the slot in place.
            self.cache.write_and_pwb(self.slot_off(slot) + in_block as u64, data, clock);
        } else {
            // Partial write of an uncached block: read-modify-write from SSD.
            let mut old = vec![0u8; bs];
            self.ssd.read(block * self.profile.block_size, &mut old, clock);
            old[in_block..in_block + data.len()].copy_from_slice(data);
            self.cache.write_and_pwb(self.slot_off(slot), &old, clock);
        }
        // Commit per-block metadata in NVMM.
        self.cache.psync(clock);
        clock.advance(self.profile.metadata_update);
        let mut st = self.state.lock();
        if !st.dirty.contains(&block) {
            st.dirty.push_back(block);
        }
        drop(st);
        let high = (self.slot_count() as f64 * self.profile.high_watermark) as usize;
        let low = (self.slot_count() as f64 * self.profile.low_watermark) as usize;
        if self.dirty_blocks() > high {
            self.writeback_to(low, clock);
        }
    }
}

impl BlockDevice for DmWriteCacheDev {
    fn capacity(&self) -> u64 {
        self.ssd.capacity()
    }

    fn read(&self, off: u64, buf: &mut [u8], clock: &ActorClock) {
        let bs = self.profile.block_size;
        let mut pos = 0usize;
        while pos < buf.len() {
            let abs = off + pos as u64;
            let block = abs / bs;
            let in_block = (abs % bs) as usize;
            let n = (bs as usize - in_block).min(buf.len() - pos);
            let slot = self.state.lock().map.get(&block).copied();
            match slot {
                Some(slot) => {
                    let mut tmp = vec![0u8; n];
                    self.cache.read(self.slot_off(slot) + in_block as u64, &mut tmp, clock);
                    buf[pos..pos + n].copy_from_slice(&tmp);
                }
                None => {
                    self.ssd.read(abs, &mut buf[pos..pos + n], clock);
                }
            }
            pos += n;
        }
        self.stats.bytes_read.fetch_add(buf.len() as u64, Ordering::Relaxed);
        self.stats.reads.fetch_add(1, Ordering::Relaxed);
    }

    fn write(&self, off: u64, data: &[u8], clock: &ActorClock) {
        let bs = self.profile.block_size;
        let mut pos = 0usize;
        while pos < data.len() {
            let abs = off + pos as u64;
            let block = abs / bs;
            let in_block = (abs % bs) as usize;
            let n = (bs as usize - in_block).min(data.len() - pos);
            self.write_block(block, in_block, &data[pos..pos + n], clock);
            pos += n;
        }
        self.stats.bytes_written.fetch_add(data.len() as u64, Ordering::Relaxed);
        self.stats.rand_writes.fetch_add(1, Ordering::Relaxed);
    }

    fn flush(&self, clock: &ActorClock) {
        // Data already sits in persistent memory; a flush only needs to
        // commit the cache metadata, not drain to the SSD.
        self.cache.psync(clock);
        clock.advance(self.profile.metadata_update);
        self.stats.flushes.fetch_add(1, Ordering::Relaxed);
    }

    fn stats(&self) -> &DeviceStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SsdDevice, SsdProfile};
    use nvmm::{NvDimm, NvmmProfile};

    fn setup(cache_blocks: u64) -> (ActorClock, Arc<SsdDevice>, DmWriteCacheDev) {
        let clock = ActorClock::new();
        let ssd = Arc::new(SsdDevice::new(SsdProfile::s4600()));
        let dimm = Arc::new(NvDimm::new(cache_blocks * 4096, NvmmProfile::instant()));
        let dev = DmWriteCacheDev::new(
            Arc::clone(&ssd) as Arc<dyn BlockDevice>,
            NvRegion::whole(dimm),
            DmWriteCacheProfile::default(),
        );
        (clock, ssd, dev)
    }

    #[test]
    fn cached_write_is_faster_than_ssd_write() {
        let (clock, _ssd, dev) = setup(1024);
        dev.write(0, &[1u8; 4096], &clock);
        // NVMM block write + metadata; far below the 48µs SSD random write.
        assert!(clock.now() < SimTime::from_micros(20), "took {}", clock.now());
    }

    #[test]
    fn read_hits_cache_and_misses_go_to_ssd() {
        let (clock, ssd, dev) = setup(1024);
        let mut block = [0u8; 4096];
        block[..12].copy_from_slice(b"cached data!");
        dev.write(8192, &block, &clock);
        let mut buf = [0u8; 12];
        dev.read(8192, &mut buf, &clock);
        assert_eq!(&buf, b"cached data!");
        assert_eq!(ssd.stats().snapshot().bytes_read, 0);
        // A miss falls through.
        let mut other = [0u8; 16];
        dev.read(1 << 20, &mut other, &clock);
        assert!(ssd.stats().snapshot().bytes_read > 0);
    }

    #[test]
    fn watermark_triggers_writeback_to_ssd() {
        let (clock, ssd, dev) = setup(64);
        for i in 0..64u64 {
            dev.write(i * 4096, &[i as u8; 4096], &clock);
        }
        assert!(ssd.stats().snapshot().bytes_written > 0, "writeback should have drained blocks");
        let high = (64.0 * 0.50) as usize;
        assert!(dev.dirty_blocks() <= high);
    }

    #[test]
    fn written_back_data_is_readable() {
        let (clock, _ssd, dev) = setup(8);
        // Overflow the cache several times over.
        for i in 0..64u64 {
            dev.write(i * 4096, &[(i + 1) as u8; 4096], &clock);
        }
        let mut buf = [0u8; 4096];
        dev.read(0, &mut buf, &clock);
        assert_eq!(buf[0], 1);
        dev.read(63 * 4096, &mut buf, &clock);
        assert_eq!(buf[0], 64);
    }

    #[test]
    fn flush_commits_without_draining() {
        let (clock, ssd, dev) = setup(1024);
        dev.write(0, &[7u8; 4096], &clock);
        let before = ssd.stats().snapshot().bytes_written;
        dev.flush(&clock);
        assert_eq!(ssd.stats().snapshot().bytes_written, before);
    }

    #[test]
    fn partial_block_write_preserves_rest() {
        let (clock, _ssd, dev) = setup(16);
        dev.write(0, &[0xAA; 4096], &clock);
        dev.write(100, &[0xBB; 8], &clock);
        let mut buf = [0u8; 4096];
        dev.read(0, &mut buf, &clock);
        assert_eq!(buf[99], 0xAA);
        assert_eq!(buf[100], 0xBB);
        assert_eq!(buf[108], 0xAA);
    }
}
