//! The read path's misses: each run of consecutive missing pages costs one
//! inner `pread`, a run's dirty pages are rebuilt from the log, a run may
//! cross the inner file's end, a lone missing page costs what it always
//! did, and random reads beside writes and draining workers read the model.

use std::sync::Arc;

use blockdev::{BlockDevice, SsdDevice, SsdProfile};
use nvmm::{NvDimm, NvRegion, NvmmProfile};
use proptest::prelude::*;
use simclock::{ActorClock, SimTime};
use vfs::{DelayLayer, DelayProfile, Ext4, Ext4Profile, FileSystem, Layer, MemFs, OpenFlags};

use crate::config::{copy_bandwidth, LIBC_OVERHEAD};
use crate::tests::mount;
use crate::{Mount, NvCache, NvCacheConfig, NvCacheStatsSnapshot};

const PAGE: usize = 4096;

/// The cleanup workers run only when a flush asks them to.
fn parked() -> NvCacheConfig {
    NvCacheConfig {
        batch_min: usize::MAX >> 1,
        batch_max: usize::MAX >> 1,
        ..NvCacheConfig::tiny()
    }
}

/// A mount over `MemFs` behind a layer charging 1 ns per inner `pread`, so
/// that the layer's delayed-operation count is the inner `pread` count.
struct Rig {
    clock: ActorClock,
    delay: Arc<DelayLayer>,
    cache: NvCache,
    fd: vfs::Fd,
    model: Vec<u8>,
}

impl Rig {
    fn new(cfg: NvCacheConfig) -> Rig {
        let clock = ActorClock::new();
        let profile = DelayProfile { pread: SimTime::from_nanos(1), ..DelayProfile::default() };
        let delay = Arc::new(DelayLayer::new(profile));
        let dimm = Arc::new(NvDimm::new(cfg.required_nvmm_bytes(), NvmmProfile::instant()));
        let cache = NvCache::builder(NvRegion::whole(dimm))
            .backend_stack(vec![Arc::clone(&delay) as Arc<dyn Layer>], Arc::new(MemFs::new()))
            .config(cfg)
            .mount(&clock)
            .expect("format");
        let fd = cache.open("/f", OpenFlags::RDWR | OpenFlags::CREATE, &clock).expect("open");
        Rig { clock, delay, cache, fd, model: Vec::new() }
    }

    fn write(&mut self, off: usize, data: &[u8]) {
        self.cache.pwrite(self.fd, data, off as u64, &self.clock).expect("pwrite");
        if self.model.len() < off + data.len() {
            self.model.resize(off + data.len(), 0);
        }
        self.model[off..off + data.len()].copy_from_slice(data);
    }

    /// Reads `[off, off + len)` and checks it against the model; returns
    /// the inner `pread`s it issued and the counters it moved.
    fn read(&self, off: usize, len: usize) -> (u64, NvCacheStatsSnapshot) {
        let (preads, stats) = (self.delay.stats().ops_delayed, self.cache.stats().snapshot());
        let mut buf = vec![0u8; len];
        let n = self.cache.pread(self.fd, &mut buf, off as u64, &self.clock).expect("pread");
        let expect = &self.model[off.min(self.model.len())..(off + len).min(self.model.len())];
        assert!(buf[..n] == *expect, "[{off}, {}) differs from the model", off + len);
        let after = self.cache.stats().snapshot();
        let moved = NvCacheStatsSnapshot {
            read_hits: after.read_hits - stats.read_hits,
            read_misses: after.read_misses - stats.read_misses,
            read_miss_preads: after.read_miss_preads - stats.read_miss_preads,
            dirty_misses: after.dirty_misses - stats.dirty_misses,
            ..NvCacheStatsSnapshot::default()
        };
        (self.delay.stats().ops_delayed - preads, moved)
    }
}

/// Page `p` of a test file: every byte says which page it is.
fn pages(from: usize, to: usize) -> Vec<u8> {
    (from..to).flat_map(|p| [p as u8 + 1; PAGE]).collect()
}

#[test]
fn a_read_costs_one_inner_pread_per_run_of_missing_pages() {
    let mut rig = Rig::new(NvCacheConfig::tiny());
    rig.write(0, &pages(0, 6));
    rig.cache.flush_log(&rig.clock);
    assert_eq!(rig.read(2 * PAGE, PAGE).0, 1);
    // Pages [miss, miss, hit, miss, miss, miss].
    let (preads, moved) = rig.read(0, 6 * PAGE);
    assert_eq!(preads, 2);
    assert_eq!((moved.read_misses, moved.read_hits, moved.read_miss_preads), (5, 1, 2));
    // All six are loaded now.
    assert_eq!(rig.read(100, 6 * PAGE - 200).0, 0);
    rig.cache.shutdown(&rig.clock);
}

#[test]
fn a_run_rebuilds_its_dirty_pages_from_the_log() {
    let mut rig = Rig::new(parked());
    rig.write(0, &pages(0, 5));
    rig.cache.flush_log(&rig.clock);
    // Pending: one write across the border of pages 2 and 3, and a newer
    // one inside page 2.
    rig.write(2 * PAGE + 1000, &[0xA2; PAGE]);
    rig.write(2 * PAGE + 500, &[0xA3; 1000]);
    let (preads, moved) = rig.read(0, 5 * PAGE);
    assert_eq!(preads, 1);
    assert_eq!((moved.read_misses, moved.dirty_misses), (5, 2));
    rig.cache.shutdown(&rig.clock);
}

#[test]
fn a_run_past_the_inner_end_reads_log_bytes_and_zeroes() {
    let mut rig = Rig::new(parked());
    rig.write(0, &[0x11; 6000]);
    rig.cache.flush_log(&rig.clock);
    // An append the inner file does not have yet, beyond a hole.
    rig.write(9000, &[0x22; 50]);
    let (preads, moved) = rig.read(0, 3 * PAGE);
    assert_eq!((preads, moved.read_misses, moved.dirty_misses), (1, 3, 1));
    rig.cache.shutdown(&rig.clock);
}

/// The virtual time of a lone missing page is the libc crossing, one
/// one-page `Ext4::pread` and the copy out — to the nanosecond.
#[test]
fn a_lone_missing_page_charges_libc_one_inner_pread_and_the_copy() {
    let clock = ActorClock::new();
    let ssd = Arc::new(SsdDevice::new(SsdProfile::s4600()));
    let ext4 = Arc::new(Ext4::new("ext4+ssd", ssd as Arc<dyn BlockDevice>, Ext4Profile::default()));
    let cfg = NvCacheConfig::tiny();
    let dimm = Arc::new(NvDimm::new(cfg.required_nvmm_bytes(), NvmmProfile::instant()));
    let inner = Arc::clone(&ext4) as Arc<dyn FileSystem>;
    let cache = mount(NvRegion::whole(dimm), inner, cfg, Mount::Format, &clock).expect("format");
    let fd = cache.open("/f", OpenFlags::RDWR | OpenFlags::CREATE, &clock).expect("open");
    cache.pwrite(fd, &pages(0, 3), 0, &clock).expect("pwrite");
    cache.flush_log(&clock);
    // The same one-page call on the inner file system (the page is in its
    // page cache since the drain wrote it), on its own clock.
    let inner_clock = ActorClock::new();
    let ifd = ext4.open("/f", OpenFlags::RDONLY, &inner_clock).expect("open");
    let opened = inner_clock.now();
    ext4.pread(ifd, &mut [0u8; PAGE], PAGE as u64, &inner_clock).expect("pread");
    let one_page = inner_clock.now() - opened;
    let before = clock.now();
    let mut buf = [0u8; 100];
    cache.pread(fd, &mut buf, PAGE as u64 + 1000, &clock).expect("pread");
    assert_eq!(buf, [2; 100]);
    let expect = LIBC_OVERHEAD + one_page + copy_bandwidth().time_for(100);
    assert_eq!(clock.now() - before, expect);
    cache.shutdown(&clock);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Random multi-page reads and writes over a file larger than the
    /// 16-page read cache, on two stripes whose workers drain freely: every
    /// read returns the model's bytes.
    #[test]
    fn random_extents_read_the_model_beside_writes_and_evictions(
        ops in proptest::collection::vec((any::<bool>(), 0..24 * PAGE, 1..5 * PAGE, any::<u8>()), 1..60),
    ) {
        let mut rig = Rig::new(NvCacheConfig::tiny().with_log_shards(2));
        for (write, off, len, byte) in ops {
            if write {
                rig.write(off, &vec![byte; len]);
            } else {
                rig.read(off, len);
            }
        }
        rig.cache.shutdown(&rig.clock);
    }
}
