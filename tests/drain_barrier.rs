//! The cleanup drain's durability barrier: one per backend per batch —
//! `fsync` of the file when the batch touched one on that backend, one
//! `syncfs` when it touched several — and the log's persistent tail moves
//! only once every barrier of the batch has succeeded.
//!
//! The tests fix what each batch holds — the cleanup workers are parked
//! (`batch_min` out of reach) until `flush_log`, or take exactly
//! `batch_min = batch_max` entries — so that no count depends on the host's
//! scheduler.

use std::sync::atomic::Ordering;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};

use nvcache_repro::blockdev::{BlockDevice, DeviceStats, SsdDevice, SsdProfile};
use nvcache_repro::nvcache::{Mount, NvCache, NvCacheConfig, PathPrefixRouter, Tiering};
use nvcache_repro::nvmm::{NvDimm, NvRegion, NvmmProfile};
use nvcache_repro::simclock::{ActorClock, SimTime};
use nvcache_repro::vfs::{
    Ext4, Ext4Profile, FaultLayer, FaultOp, FaultRule, FaultTrigger, Fd, FileSystem, IoError,
    IoResult, Layer, Metadata, OpenFlags, PageCacheConfig,
};

const PARKED: usize = usize::MAX >> 1;

fn rdwr_create() -> OpenFlags {
    OpenFlags::RDWR | OpenFlags::CREATE
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    Pwrite,
    Fsync,
    Sync,
}

/// Forwards to `inner`, recording every data-path call with the interval of
/// the clock it ran on (the ring gives each operation its own).
struct Probe {
    inner: Arc<dyn FileSystem>,
    ops: Mutex<Vec<(Op, SimTime, SimTime)>>,
    /// When set, the next barrier announces itself, waits for the test's
    /// go-ahead and fails without reaching `inner`: the machine went down
    /// between the batch's last `pwrite` and its barrier.
    power_cut: Mutex<Option<(Sender<()>, Receiver<()>)>>,
}

impl Probe {
    fn over(inner: Arc<dyn FileSystem>) -> Arc<Probe> {
        Arc::new(Probe { inner, ops: Mutex::default(), power_cut: Mutex::default() })
    }

    fn record<T>(
        &self,
        op: Op,
        clock: &ActorClock,
        call: impl FnOnce() -> IoResult<T>,
    ) -> IoResult<T> {
        let start = clock.now();
        let result = call();
        self.ops.lock().unwrap().push((op, start, clock.now()));
        result
    }

    fn barrier(
        &self,
        op: Op,
        clock: &ActorClock,
        call: impl FnOnce() -> IoResult<()>,
    ) -> IoResult<()> {
        if let Some((reached, go)) = self.power_cut.lock().unwrap().take() {
            reached.send(()).unwrap();
            go.recv().unwrap();
            return Err(IoError::Other("power is off".into()));
        }
        self.record(op, clock, call)
    }

    fn ops(&self) -> Vec<(Op, SimTime, SimTime)> {
        self.ops.lock().unwrap().clone()
    }

    fn count(&self, op: Op) -> usize {
        self.ops().iter().filter(|(o, ..)| *o == op).count()
    }
}

impl FileSystem for Probe {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn open(&self, path: &str, flags: OpenFlags, clock: &ActorClock) -> IoResult<Fd> {
        self.inner.open(path, flags, clock)
    }
    fn close(&self, fd: Fd, clock: &ActorClock) -> IoResult<()> {
        self.inner.close(fd, clock)
    }
    fn pread(&self, fd: Fd, buf: &mut [u8], off: u64, clock: &ActorClock) -> IoResult<usize> {
        self.inner.pread(fd, buf, off, clock)
    }
    fn pwrite(&self, fd: Fd, data: &[u8], off: u64, clock: &ActorClock) -> IoResult<usize> {
        self.record(Op::Pwrite, clock, || self.inner.pwrite(fd, data, off, clock))
    }
    fn fsync(&self, fd: Fd, clock: &ActorClock) -> IoResult<()> {
        self.barrier(Op::Fsync, clock, || self.inner.fsync(fd, clock))
    }
    fn ftruncate(&self, fd: Fd, len: u64, clock: &ActorClock) -> IoResult<()> {
        self.inner.ftruncate(fd, len, clock)
    }
    fn fstat(&self, fd: Fd, clock: &ActorClock) -> IoResult<Metadata> {
        self.inner.fstat(fd, clock)
    }
    fn stat(&self, path: &str, clock: &ActorClock) -> IoResult<Metadata> {
        self.inner.stat(path, clock)
    }
    fn unlink(&self, path: &str, clock: &ActorClock) -> IoResult<()> {
        self.inner.unlink(path, clock)
    }
    fn rename(&self, from: &str, to: &str, clock: &ActorClock) -> IoResult<()> {
        self.inner.rename(from, to, clock)
    }
    fn list_dir(&self, dir: &str, clock: &ActorClock) -> IoResult<Vec<String>> {
        self.inner.list_dir(dir, clock)
    }
    fn sync(&self, clock: &ActorClock) -> IoResult<()> {
        self.barrier(Op::Sync, clock, || self.inner.sync(clock))
    }
    fn simulate_power_failure(&self) {
        self.inner.simulate_power_failure();
    }
}

fn ext4_ssd(name: &str) -> (Arc<SsdDevice>, Arc<Ext4>) {
    let ssd = Arc::new(SsdDevice::new(SsdProfile::s4600()));
    let ext4 =
        Arc::new(Ext4::new(name, Arc::clone(&ssd) as Arc<dyn BlockDevice>, Ext4Profile::default()));
    (ssd, ext4)
}

/// Batches of exactly `batch` entries (plus the remainder a flush forces).
fn batch_cfg(batch: usize) -> NvCacheConfig {
    NvCacheConfig {
        nb_entries: 256,
        fd_slots: 64,
        batch_min: batch,
        batch_max: batch,
        ..NvCacheConfig::tiny()
    }
}

fn mount(
    dimm: &Arc<NvDimm>,
    inner: Arc<dyn FileSystem>,
    cfg: &NvCacheConfig,
    mode: Mount,
) -> NvCache {
    NvCache::builder(NvRegion::whole(Arc::clone(dimm)))
        .backend(inner)
        .config(cfg.clone())
        .mode(mode)
        .mount(&ActorClock::new())
        .expect("mount")
}

fn log_dimm(cfg: &NvCacheConfig) -> Arc<NvDimm> {
    Arc::new(NvDimm::new(cfg.required_nvmm_bytes(), NvmmProfile::instant()))
}

fn read_at(fs: &dyn FileSystem, path: &str, off: u64, len: usize) -> Vec<u8> {
    let c = ActorClock::new();
    let fd = fs.open(path, OpenFlags::RDONLY, &c).expect("open for read-back");
    let mut buf = vec![0u8; len];
    let n = fs.pread(fd, &mut buf, off, &c).expect("pread");
    fs.close(fd, &c).expect("close");
    buf.truncate(n);
    buf
}

/// (a) An engine that creates, fills, closes and unlinks a journal per
/// transaction beside one long-lived database file: every batch holds the
/// entries of many descriptors and still pays one journal commit and one
/// device flush. A journal that is dead by the time its entries come up is
/// dropped, not written; which ones are is the host scheduler's business,
/// so the barrier's *form* is not pinned here (a batch that wrote to the
/// database alone ends in its `fsync`).
#[test]
fn journal_churn_pays_one_commit_and_one_flush_per_batch() {
    const TXNS: u64 = 24;
    let c = ActorClock::new();
    let (ssd, ext4) = ext4_ssd("ext4+ssd");
    let cfg = batch_cfg(16);
    let cache =
        mount(&log_dimm(&cfg), Arc::clone(&ext4) as Arc<dyn FileSystem>, &cfg, Mount::Format);
    let db = cache.open("/db", rdwr_create(), &c).unwrap();
    for t in 0..TXNS {
        let journal = format!("/db-journal-{t}");
        let j = cache.open(&journal, rdwr_create(), &c).unwrap();
        cache.pwrite(j, &[0xE0; 512], 0, &c).unwrap();
        cache.pwrite(j, &[0xE1; 512], 512, &c).unwrap();
        cache.pwrite(db, &[t as u8 + 1; 4096], t * 4096, &c).unwrap();
        cache.close(j, &c).unwrap();
        cache.unlink(&journal, &c).unwrap();
    }
    cache.flush_log(&c);
    let stats = cache.stats().snapshot();
    let batches = stats.cleanup_batches;
    assert_eq!(batches, (3 * TXNS).div_ceil(16), "72 entries in batches of 16");
    assert_eq!(stats.entries_propagated, 3 * TXNS);
    assert_eq!(stats.cleanup_fsyncs, batches, "one barrier per batch on the one backend");
    assert!(stats.cleanup_syncfs <= batches && stats.entries_elided <= 2 * TXNS, "{stats:?}");
    assert_eq!(ext4.journal_commit_count(), batches);
    assert_eq!(ssd.stats().snapshot().flushes, batches);
    assert_eq!(stats.inner_io_errors, 0);

    for t in 0..TXNS {
        assert_eq!(read_at(&cache, "/db", t * 4096, 4096), [t as u8 + 1; 4096], "via the cache");
        assert!(matches!(ext4.stat(&format!("/db-journal-{t}"), &c), Err(IoError::NotFound(_))));
    }
    cache.shutdown(&c);
    // The barrier was real: the database survives losing the page cache.
    ext4.simulate_power_failure();
    for t in 0..TXNS {
        assert_eq!(read_at(&*ext4, "/db", t * 4096, 4096), [t as u8 + 1; 4096], "from Ext4");
    }
}

/// (a) An anonymous temporary file — open, unlink, keep writing through the
/// descriptor — sharing a batch with another file: the `syncfs` writes its
/// pages like everyone else's, so they come back after the kernel has
/// evicted them.
#[test]
fn unlinked_open_file_in_a_multi_file_batch_keeps_its_data() {
    let c = ActorClock::new();
    let ssd = Arc::new(SsdDevice::new(SsdProfile::s4600()));
    let profile = Ext4Profile {
        cache: PageCacheConfig { capacity_pages: 8, ..PageCacheConfig::default() },
        ..Ext4Profile::default()
    };
    let ext4: Arc<dyn FileSystem> = Arc::new(Ext4::new("ext4+ssd", ssd, profile));
    let cfg = batch_cfg(PARKED);
    let cache = mount(&log_dimm(&cfg), ext4, &cfg, Mount::Format);
    let anon = cache.open("/anon", rdwr_create(), &c).unwrap();
    let other = cache.open("/other", rdwr_create(), &c).unwrap();
    cache.pwrite(anon, &[5; 4096], 0, &c).unwrap();
    cache.unlink("/anon", &c).unwrap();
    cache.pwrite(anon, &[7; 4096], 4096, &c).unwrap();
    cache.pwrite(other, &[1; 4096], 0, &c).unwrap();
    cache.flush_log(&c);
    let stats = cache.stats().snapshot();
    assert_eq!((stats.cleanup_batches, stats.cleanup_syncfs), (1, 1), "one two-file batch");
    // Cache pressure: the kernel evicts the anonymous file's (clean) pages.
    for page in 1..64u64 {
        cache.pwrite(other, &[2; 4096], page * 4096, &c).unwrap();
    }
    cache.flush_log(&c);
    let mut buf = [0u8; 8192];
    assert_eq!(cache.pread(anon, &mut buf, 0, &c).unwrap(), 8192);
    let intact = buf[..4096] == [5; 4096] && buf[4096..] == [7; 4096];
    assert!(intact, "acknowledged data lost: {:?}", [buf[0], buf[4095], buf[4096], buf[8191]]);
    cache.shutdown(&c);
}

/// (a) The feature at the device: a file created, written, closed and
/// unlinked before any batch ran is dead when the drain reaches its entries.
/// They are consumed without an inner write, its inner descriptor is closed
/// first — so the pages `close` had pushed into the kernel go with the
/// inode — and neither the page cache nor the device sees a byte of it. A
/// sibling written in between arrives whole.
#[test]
fn a_file_that_died_before_its_drain_costs_the_device_nothing() {
    const PAGES: u64 = 16; // 64 KiB
    let c = ActorClock::new();
    let (ssd, ext4) = ext4_ssd("ext4+ssd");
    let cfg = batch_cfg(PARKED);
    let cache =
        mount(&log_dimm(&cfg), Arc::clone(&ext4) as Arc<dyn FileSystem>, &cfg, Mount::Format);
    let cost = || {
        let writebacks = ext4.page_cache().stats().writebacks.load(Ordering::Relaxed);
        (ssd.stats().snapshot().bytes_written, writebacks)
    };
    let lifecycle = |sibling: Option<Fd>| {
        let journal = cache.open("/journal", rdwr_create(), &c).unwrap();
        for page in 0..PAGES {
            cache.pwrite(journal, &[0xD0 + page as u8; 4096], page * 4096, &c).unwrap();
            if let Some(sibling) = sibling.filter(|_| page % 4 == 0) {
                cache.pwrite(sibling, &[page as u8 + 1; 4096], page * 1024, &c).unwrap();
            }
        }
        cache.close(journal, &c).unwrap();
        cache.unlink("/journal", &c).unwrap();
    };

    // Alone: the whole flush is free below the cache.
    let before = cost();
    lifecycle(None);
    cache.flush_log(&c);
    assert_eq!(cost(), before, "(device bytes, page-cache writebacks) of a dead file");
    let stats = cache.stats().snapshot();
    assert_eq!((stats.entries_propagated, stats.entries_elided), (PAGES, PAGES));
    assert_eq!((stats.cleanup_batches, stats.cleanup_fsyncs), (1, 0), "nothing to make durable");
    assert_eq!((stats.files_buried, stats.inner_io_errors), (1, 0));

    // Beside a sibling: the flush costs what the sibling's 4 pages cost.
    let sibling = cache.open("/sibling", rdwr_create(), &c).unwrap();
    let before = cost();
    lifecycle(Some(sibling));
    cache.flush_log(&c);
    assert_eq!(cost(), (before.0 + 4 * 4096, before.1 + 4), "the sibling's pages and no other");
    let stats = cache.stats().snapshot();
    assert_eq!((stats.entries_propagated, stats.entries_elided), (2 * PAGES + 4, 2 * PAGES));
    assert_eq!((stats.cleanup_fsyncs, stats.cleanup_syncfs), (1, 0), "one file written: fsync");
    cache.shutdown(&c);
    assert_eq!(cache.fd_slot_usage().1 + cache.fd_slot_usage().2, 1, "only the sibling is left");
    ext4.simulate_power_failure();
    let mut model = vec![0u8; 12 * 1024 + 4096];
    for page in (0..PAGES).step_by(4) {
        model[page as usize * 1024..][..4096].fill(page as u8 + 1);
    }
    assert_eq!(read_at(&*ext4, "/sibling", 0, model.len()), model, "from Ext4, after a power cut");
    assert!(matches!(ext4.stat("/journal", &c), Err(IoError::NotFound(_))));
}

/// (a) The temporary-file idiom end to end: open, write, `unlink`, keep
/// writing and reading through the descriptor. The file has lost its name,
/// not its readers: every read — hit, miss after eviction, dirty miss over
/// pending entries, before and after a drain — returns the model. Only the
/// last `close` kills it, and what is still in the log then is dropped.
#[test]
fn a_temporary_file_works_through_its_descriptor_until_the_last_close() {
    const PAGE: usize = 4096;
    let c = ActorClock::new();
    let (_, ext4) = ext4_ssd("ext4+ssd");
    let cfg = NvCacheConfig { read_cache_pages: 2, ..batch_cfg(PARKED) };
    let cache =
        mount(&log_dimm(&cfg), Arc::clone(&ext4) as Arc<dyn FileSystem>, &cfg, Mount::Format);
    let tmp = cache.open("/tmp-scratch", rdwr_create(), &c).unwrap();
    let mut model = vec![0u8; 6 * PAGE];
    let write = |model: &mut Vec<u8>, byte: u8, off: usize, len: usize| {
        cache.pwrite(tmp, &vec![byte; len], off as u64, &c).unwrap();
        model[off..off + len].fill(byte);
    };
    let check = |model: &[u8], off: usize, len: usize, what: &str| {
        let mut buf = vec![0xEE; len];
        assert_eq!(cache.pread(tmp, &mut buf, off as u64, &c).unwrap(), len, "{what}");
        assert!(buf == model[off..off + len], "{what}: read differs from the model at {off}");
    };
    write(&mut model, 1, 0, 4 * PAGE);
    cache.unlink("/tmp-scratch", &c).unwrap();
    assert!(matches!(cache.stat("/tmp-scratch", &c), Err(IoError::NotFound(_))));
    assert_eq!(cache.fstat(tmp, &c).unwrap().size, 4 * PAGE as u64);

    write(&mut model, 2, PAGE + 100, 3000); // after the unlink, page 1
    check(&model, PAGE, PAGE, "dirty miss, everything pending");
    check(&model, PAGE, PAGE, "hit");
    for page in [2, 3, 0] {
        check(&model, page * PAGE, PAGE, "misses that evict page 1");
    }
    check(&model, PAGE, PAGE, "dirty miss after eviction");
    let before = cache.stats().snapshot();
    assert!(before.read_hits >= 1 && before.dirty_misses >= 5 && before.evictions >= 3);

    cache.flush_log(&c); // a drain in the middle: still open, so written
    let drained = cache.stats().snapshot();
    assert_eq!((drained.entries_propagated, drained.entries_elided), (5, 0));
    check(&model, 0, 4 * PAGE, "after the drain, from the nameless inode");
    write(&mut model, 3, PAGE - 50, 100); // straddles pages 0 and 1
    write(&mut model, 4, 4 * PAGE, 2 * PAGE); // grows the file
    check(&model, 0, 6 * PAGE, "dirty misses over the new entries");
    // Pages 4 and 5 were never loaded; 0 and 1 may have been updated in place.
    assert!(cache.stats().snapshot().dirty_misses - drained.dirty_misses >= 2);

    let pending = cache.pending_entries();
    assert_eq!(pending, 3);
    cache.close(tmp, &c).unwrap();
    cache.flush_log(&c);
    let stats = cache.stats().snapshot();
    assert_eq!((stats.entries_propagated, stats.entries_elided), (5 + pending, pending));
    assert_eq!((stats.files_buried, stats.inner_io_errors), (1, 0));
    cache.shutdown(&c); // joins the worker: every zombie has finished
    assert_eq!(cache.fd_slot_usage(), (cfg.fd_slots as usize, 0, 0));
}

/// (b) A batch that touched one file keeps the synchronous drain's
/// timeline: the inner file system sees exactly `pwrite`×N + `fsync`, back
/// to back, each call as long as in a serial run on a twin stack.
#[test]
fn single_file_batch_drains_on_the_serial_timeline() {
    const WRITES: u64 = 32;
    let (_, ext4) = ext4_ssd("ext4+ssd");
    let probe = Probe::over(ext4);
    let cfg = batch_cfg(PARKED);
    let cache =
        mount(&log_dimm(&cfg), Arc::clone(&probe) as Arc<dyn FileSystem>, &cfg, Mount::Format);
    let fd = cache.open("/one", rdwr_create(), &ActorClock::new()).unwrap();
    // Pages 1 MiB apart keep the SSD in its random-write regime; a fresh
    // clock per write keeps every commit stamp behind the worker's clock.
    for i in 0..WRITES {
        cache.pwrite(fd, &[i as u8; 4096], i << 20, &ActorClock::new()).unwrap();
    }
    cache.flush_log(&ActorClock::new());
    let stats = cache.stats().snapshot();
    assert_eq!(
        (stats.cleanup_batches, stats.cleanup_fsyncs, stats.cleanup_syncfs),
        (1, 1, 0),
        "one batch, one fsync, no syncfs"
    );
    cache.shutdown(&ActorClock::new());

    let drained = probe.ops();
    let (_, twin) = ext4_ssd("ext4+ssd");
    let twin_fd = twin.open("/one", rdwr_create(), &ActorClock::new()).unwrap();
    let serial = ActorClock::starting_at(drained[0].1);
    let mut expected = Vec::new();
    for i in 0..WRITES {
        let start = serial.now();
        twin.pwrite(twin_fd, &[i as u8; 4096], i << 20, &serial).unwrap();
        expected.push((Op::Pwrite, start, serial.now()));
    }
    let start = serial.now();
    twin.fsync(twin_fd, &serial).unwrap();
    expected.push((Op::Fsync, start, serial.now()));
    assert_eq!(drained, expected);
    assert!(serial.now() - drained[0].1 > SimTime::from_millis(1), "the device time is real");
}

/// Three files with `writes_each` queued writes apiece, the stripe poisoned
/// or not: what the acknowledged content is.
fn queue_three_files(cache: &NvCache, writes_each: u64) -> Vec<(String, Vec<u8>)> {
    let c = ActorClock::new();
    let mut model = Vec::new();
    for f in 0..3u8 {
        let path = format!("/file-{f}");
        let fd = cache.open(&path, rdwr_create(), &c).unwrap();
        let mut content = Vec::new();
        for i in 0..writes_each {
            let chunk = vec![f * 50 + i as u8 + 1; 1000];
            cache.pwrite(fd, &chunk, i * 1000, &c).unwrap();
            content.extend_from_slice(&chunk);
        }
        model.push((path, content));
    }
    model
}

/// Crashes `dimm` as it is now, loses the inner page cache, and checks that
/// `Mount::Recover` replays all `entries` and returns `model`.
fn recover_and_check(
    crashed: NvDimm,
    inner: Arc<dyn FileSystem>,
    cfg: &NvCacheConfig,
    entries: u64,
    model: &[(String, Vec<u8>)],
) {
    inner.simulate_power_failure();
    let recovered = mount(&Arc::new(crashed), inner, cfg, Mount::Recover);
    let report = recovered.recovery_report().expect("recover mount");
    assert_eq!(report.entries_replayed, entries, "the persistent tail must not have moved");
    for (path, content) in model {
        assert_eq!(&read_at(&recovered, path, 0, content.len()), content, "{path}");
    }
    recovered.shutdown(&ActorClock::new());
}

/// (c) A failed `syncfs` poisons the stripe exactly as a failed `fsync`
/// does: nothing is freed, and recovery replays every acknowledged write.
#[test]
fn failed_syncfs_poisons_the_stripe_and_leaves_the_tail_alone() {
    let (_, ext4) = ext4_ssd("ext4+ssd");
    let fault = FaultLayer::new(vec![FaultRule::new(FaultOp::Sync, FaultTrigger::AfterBudget(0))]);
    let inner = fault.wrap(ext4);
    let cfg = batch_cfg(PARKED);
    let dimm = log_dimm(&cfg);
    let cache = mount(&dimm, Arc::clone(&inner), &cfg, Mount::Format);
    let model = queue_three_files(&cache, 4);
    cache.flush_log(&ActorClock::new()); // returns once the stripe is poisoned
    assert_eq!(cache.poisoned_stripes(), vec![0]);
    let stats = cache.stats().snapshot();
    assert_eq!((stats.entries_propagated, stats.inner_io_errors), (12, 1));
    assert_eq!((stats.cleanup_batches, stats.cleanup_fsyncs, stats.cleanup_syncfs), (0, 0, 0));
    assert_eq!(cache.pending_entries(), 12, "nothing was freed");
    assert!(
        cache
            .open("/file-3", rdwr_create(), &ActorClock::new())
            .is_ok_and(|fd| cache.pwrite(fd, b"late", 0, &ActorClock::new()).is_err()),
        "a poisoned stripe refuses new writes"
    );
    cache.abort();
    fault.disarm();
    recover_and_check(dimm.crash_and_restart(), inner, &cfg, 12, &model);
}

/// (c) The power goes between the batch's last `pwrite` and its barrier:
/// the NVMM image of that instant still holds the whole batch.
#[test]
fn power_cut_before_the_barrier_loses_nothing() {
    let (_, ext4) = ext4_ssd("ext4+ssd");
    let probe = Probe::over(ext4);
    let (reached, at_barrier) = channel();
    let (go, resume) = channel();
    *probe.power_cut.lock().unwrap() = Some((reached, resume));
    let cfg = batch_cfg(PARKED);
    let dimm = log_dimm(&cfg);
    let cache = mount(&dimm, Arc::clone(&probe) as Arc<dyn FileSystem>, &cfg, Mount::Format);
    let model = queue_three_files(&cache, 4);

    let crashed = std::thread::scope(|s| {
        s.spawn(|| cache.flush_log(&ActorClock::new()));
        at_barrier.recv().unwrap();
        assert_eq!(probe.count(Op::Pwrite), 12, "the whole batch reached the page cache");
        let crashed = dimm.crash_and_restart();
        go.send(()).unwrap();
        crashed
    });
    assert_eq!(cache.stats().snapshot().cleanup_batches, 0);
    cache.abort();
    recover_and_check(crashed, probe, &cfg, 12, &model);
}

/// (d) Two backends, three files each: two barriers, overlapped — the
/// worker rejoins at the later completion, not after their sum.
#[test]
fn tiered_batch_issues_one_overlapped_syncfs_per_backend() {
    let probes = [Probe::over(ext4_ssd("cold").1), Probe::over(ext4_ssd("hot").1)];
    let cfg = batch_cfg(PARKED);
    let router = Arc::new(PathPrefixRouter::new(vec![("/hot".into(), 1)], 0));
    let tiers = probes.iter().map(|p| Arc::clone(p) as Arc<dyn FileSystem>).collect();
    let cache = NvCache::builder(NvRegion::whole(log_dimm(&cfg)))
        .tiers(Tiering::new(router, tiers))
        .config(cfg)
        .mount(&ActorClock::new())
        .expect("tiered mount");
    for f in 0..3u64 {
        for (dir, pages) in [("/cold", 2), ("/hot", 6)] {
            let fd = cache.open(&format!("{dir}/{f}"), rdwr_create(), &ActorClock::new()).unwrap();
            for p in 0..pages {
                cache.pwrite(fd, &[f as u8 + 1; 4096], p << 20, &ActorClock::new()).unwrap();
            }
        }
    }
    let flushed = ActorClock::new();
    cache.flush_log(&flushed);
    let stats = cache.stats().snapshot();
    assert_eq!((stats.cleanup_batches, stats.cleanup_fsyncs, stats.cleanup_syncfs), (1, 2, 2));
    assert_eq!(stats.per_backend_propagated, vec![6, 18]);

    let barrier = |p: &Probe| {
        assert_eq!((p.count(Op::Fsync), p.count(Op::Sync)), (0, 1));
        *p.ops().last().unwrap()
    };
    let (_, cold_start, cold_end) = barrier(&probes[0]);
    let (_, hot_start, hot_end) = barrier(&probes[1]);
    assert_eq!(cold_start, hot_start, "both submitted when the last write completed");
    let (short, long) = (cold_end - cold_start, hot_end - hot_start);
    assert!(short > SimTime::from_micros(100) && long > short, "{short} vs {long}");
    let joined = flushed.now() - hot_start;
    assert!(joined >= long && joined < long + short / 2, "max, not sum: {joined} vs {long}");
    cache.shutdown(&ActorClock::new());
}

/// Forwards `capacity/read/write/flush/stats` and nothing else, as a tracing
/// wrapper does, recording when each write completed and the interval of
/// each flush.
struct DevProbe {
    inner: SsdDevice,
    write_ends: Mutex<Vec<SimTime>>,
    flushes: Mutex<Vec<(SimTime, SimTime)>>,
}

impl BlockDevice for DevProbe {
    fn capacity(&self) -> u64 {
        self.inner.capacity()
    }
    fn read(&self, off: u64, buf: &mut [u8], clock: &ActorClock) {
        self.inner.read(off, buf, clock)
    }
    fn write(&self, off: u64, data: &[u8], clock: &ActorClock) {
        self.inner.write(off, data, clock);
        self.write_ends.lock().unwrap().push(clock.now());
    }
    fn flush(&self, clock: &ActorClock) {
        let start = clock.now();
        self.inner.flush(clock);
        self.flushes.lock().unwrap().push((start, clock.now()));
    }
    fn stats(&self) -> &DeviceStats {
        self.inner.stats()
    }
}

/// (e) Over an 8-channel SSD the barrier's writeback queues its pages eight
/// at a time. A multi-file batch is still one `syncfs`, one journal commit
/// and one device flush, and the tail moves only after the last queued page
/// completed.
#[test]
fn multi_file_batch_over_a_multi_channel_ssd_is_one_barrier_after_the_last_page() {
    const FILES: u64 = 3;
    const PAGES_EACH: u64 = 11;
    let ssd = SsdProfile::s4600().with_queue_depth(8);
    let fs_profile = Ext4Profile::default();
    let dev = Arc::new(DevProbe {
        inner: SsdDevice::new(ssd.clone()),
        write_ends: Mutex::default(),
        flushes: Mutex::default(),
    });
    let ext4 = Arc::new(Ext4::new(
        "ext4+ssd8",
        Arc::clone(&dev) as Arc<dyn BlockDevice>,
        fs_profile.clone(),
    ));
    let probe = Probe::over(Arc::clone(&ext4) as Arc<dyn FileSystem>);
    let cfg = batch_cfg(PARKED);
    let cache =
        mount(&log_dimm(&cfg), Arc::clone(&probe) as Arc<dyn FileSystem>, &cfg, Mount::Format);
    // Pages 1 MiB apart: one per slab, every device write a random one.
    for f in 0..FILES {
        let fd = cache.open(&format!("/file-{f}"), rdwr_create(), &ActorClock::new()).unwrap();
        for p in 0..PAGES_EACH {
            cache
                .pwrite(fd, &[(f * PAGES_EACH + p) as u8 + 1; 4096], p << 20, &ActorClock::new())
                .unwrap();
        }
    }
    let flushed = ActorClock::new();
    cache.flush_log(&flushed);
    let stats = cache.stats().snapshot();
    assert_eq!((stats.cleanup_batches, stats.cleanup_fsyncs, stats.cleanup_syncfs), (1, 1, 1));
    assert_eq!((probe.count(Op::Sync), probe.count(Op::Fsync)), (1, 0));
    assert_eq!(ext4.journal_commit_count(), 1);
    assert_eq!(dev.stats().snapshot().flushes, 1);

    let (_, sync_start, sync_end) = *probe.ops().last().unwrap();
    let write_ends = dev.write_ends.lock().unwrap().clone();
    let (flush_start, flush_end) = dev.flushes.lock().unwrap()[0];
    assert_eq!(write_ends.len() as u64, FILES * PAGES_EACH);
    let last_page = *write_ends.iter().max().unwrap();
    let waves = (FILES * PAGES_EACH).div_ceil(8);
    let queued = sync_start + fs_profile.costs.syscall;
    assert_eq!(last_page, queued + ssd.rand_write_4k * waves, "8 at a time");
    assert_eq!(flush_start, last_page + fs_profile.journal_commit);
    assert_eq!((flush_end, sync_end), (flush_start + ssd.flush, flush_end));
    assert!(flushed.now() >= sync_end, "the tail moved at {}, before {sync_end}", flushed.now());
    cache.shutdown(&ActorClock::new());

    ext4.simulate_power_failure();
    for f in 0..FILES {
        for p in 0..PAGES_EACH {
            let page = read_at(&*ext4, &format!("/file-{f}"), p << 20, 4096);
            assert_eq!(page, [(f * PAGES_EACH + p) as u8 + 1; 4096], "file {f} page {p}");
        }
    }
}
