//! End-to-end tests of the NVCache core over simulated substrates.

use std::sync::Arc;

use nvmm::{NvDimm, NvRegion, NvmmProfile};
use simclock::{ActorClock, SimTime};
use vfs::{CursorFile, FileSystem, IoError, Layer, MemFs, OpenFlags, SeekFrom};

use crate::{Mount, NvCache, NvCacheConfig};

/// The one mount path, as the tests use it: `region` over a single `inner`
/// backend.
pub(crate) fn mount(
    region: NvRegion,
    inner: Arc<dyn FileSystem>,
    cfg: NvCacheConfig,
    mode: Mount,
    clock: &ActorClock,
) -> vfs::IoResult<NvCache> {
    NvCache::builder(region).backend(inner).config(cfg).mode(mode).mount(clock)
}

fn setup(cfg: NvCacheConfig) -> (ActorClock, Arc<NvDimm>, Arc<dyn FileSystem>, NvCache) {
    let clock = ActorClock::new();
    let dimm = Arc::new(NvDimm::new(cfg.required_nvmm_bytes(), NvmmProfile::instant()));
    let inner: Arc<dyn FileSystem> = Arc::new(MemFs::new());
    let cache =
        mount(NvRegion::whole(Arc::clone(&dimm)), Arc::clone(&inner), cfg, Mount::Format, &clock)
            .expect("format");
    (clock, dimm, inner, cache)
}

#[test]
fn write_then_read_your_writes() {
    let (c, _d, _i, cache) = setup(NvCacheConfig::tiny());
    let fd = cache.open("/f", OpenFlags::RDWR | OpenFlags::CREATE, &c).unwrap();
    cache.pwrite(fd, b"read your writes", 0, &c).unwrap();
    let mut buf = [0u8; 16];
    assert_eq!(cache.pread(fd, &mut buf, 0, &c).unwrap(), 16);
    assert_eq!(&buf, b"read your writes");
    cache.shutdown(&c);
}

#[test]
fn writes_propagate_to_inner_fs() {
    let (c, _d, inner, cache) = setup(NvCacheConfig::tiny());
    let fd = cache.open("/p", OpenFlags::RDWR | OpenFlags::CREATE, &c).unwrap();
    cache.pwrite(fd, b"propagated", 0, &c).unwrap();
    cache.flush_log(&c);
    let ifd = inner.open("/p", OpenFlags::RDONLY, &c).unwrap();
    let mut buf = [0u8; 10];
    assert_eq!(inner.pread(ifd, &mut buf, 0, &c).unwrap(), 10);
    assert_eq!(&buf, b"propagated");
    cache.shutdown(&c);
}

#[test]
fn large_write_spans_multiple_entries_atomically() {
    let (c, _d, inner, cache) = setup(NvCacheConfig::tiny());
    let fd = cache.open("/big", OpenFlags::RDWR | OpenFlags::CREATE, &c).unwrap();
    let data: Vec<u8> = (0..20_000u32).map(|i| (i % 251) as u8).collect();
    assert_eq!(cache.pwrite(fd, &data, 500, &c).unwrap(), data.len());
    assert!(cache.stats().snapshot().groups_logged >= 1);
    let mut buf = vec![0u8; data.len()];
    cache.pread(fd, &mut buf, 500, &c).unwrap();
    assert_eq!(buf, data);
    cache.flush_log(&c);
    let ifd = inner.open("/big", OpenFlags::RDONLY, &c).unwrap();
    let mut buf2 = vec![0u8; data.len()];
    inner.pread(ifd, &mut buf2, 500, &c).unwrap();
    assert_eq!(buf2, data);
    cache.shutdown(&c);
}

#[test]
fn fsync_is_a_noop_and_cheap() {
    let (c, _d, _i, cache) = setup(NvCacheConfig::tiny());
    let fd = cache.open("/s", OpenFlags::RDWR | OpenFlags::CREATE, &c).unwrap();
    cache.pwrite(fd, &[1u8; 4096], 0, &c).unwrap();
    let before = c.now();
    cache.fsync(fd, &c).unwrap();
    assert!(c.now() - before <= SimTime::from_micros(2), "fsync must be a no-op");
    cache.shutdown(&c);
}

#[test]
fn nvcache_size_is_authoritative_before_propagation() {
    let (c, _d, inner, cache) =
        setup(NvCacheConfig::default().with_log_entries(64).with_batching(64, 64));
    // With batch_min = 64 nothing propagates for small counts.
    let fd = cache.open("/grow", OpenFlags::RDWR | OpenFlags::CREATE, &c).unwrap();
    cache.pwrite(fd, &[9u8; 100], 4000, &c).unwrap();
    assert_eq!(cache.fstat(fd, &c).unwrap().size, 4100);
    assert_eq!(cache.stat("/grow", &c).unwrap().size, 4100);
    // The kernel still thinks the file is empty.
    assert_eq!(inner.stat("/grow", &c).unwrap().size, 0);
    cache.shutdown(&c);
}

/// The cursor calls are a [`CursorFile`] over the mount: with nothing
/// propagated yet, `O_APPEND` and `SEEK_END` still see NVCache's own size
/// through its `fstat` (paper Table III), not the kernel's.
#[test]
fn cursor_api_and_append_mode() {
    let cfg = NvCacheConfig { batch_min: 1_000_000, batch_max: 1_000_000, ..NvCacheConfig::tiny() };
    let (c, _d, inner, cache) = setup(cfg);
    let cache = Arc::new(cache);
    let flags = OpenFlags::RDWR | OpenFlags::CREATE | OpenFlags::APPEND;
    let f = CursorFile::open(Arc::clone(&cache) as Arc<dyn FileSystem>, "/cur", flags, &c).unwrap();
    f.write(b"aaa", &c).unwrap();
    f.seek(SeekFrom::Start(0), &c).unwrap();
    f.write(b"bbb", &c).unwrap(); // O_APPEND: goes to the end
    assert_eq!(f.stat(&c).unwrap().size, 6);
    assert_eq!(inner.stat("/cur", &c).unwrap().size, 0, "nothing reached the kernel");
    assert_eq!(f.seek(SeekFrom::End(-2), &c).unwrap(), 4);
    f.seek(SeekFrom::Start(0), &c).unwrap();
    let mut buf = [0u8; 6];
    f.read(&mut buf, &c).unwrap();
    assert_eq!(&buf, b"aaabbb");
    assert_eq!(f.tell().unwrap(), 6);
    f.close(&c).unwrap();
    cache.shutdown(&c);
}

/// A closed descriptor's fd slot goes to the next `open`: a closed cursor
/// must not write through it into that file.
#[test]
fn a_closed_cursor_cannot_reach_the_next_file_on_its_slot() {
    let (c, _d, _i, cache) = setup(NvCacheConfig::tiny());
    let cache = Arc::new(cache);
    let flags = OpenFlags::RDWR | OpenFlags::CREATE;
    let old =
        CursorFile::open(Arc::clone(&cache) as Arc<dyn FileSystem>, "/old", flags, &c).unwrap();
    old.close(&c).unwrap();
    let fd = cache.open("/new", flags, &c).unwrap();
    assert_eq!(fd, old.fd(), "the slot was handed on");
    assert!(matches!(old.write(b"stale", &c), Err(IoError::BadFd(_))));
    assert!(matches!(old.seek(SeekFrom::End(0), &c), Err(IoError::BadFd(_))));
    assert_eq!(cache.fstat(fd, &c).unwrap().size, 0, "/new is untouched");
    cache.close(fd, &c).unwrap();
    cache.shutdown(&c);
}

#[test]
fn read_only_files_bypass_the_read_cache() {
    let (c, _d, inner, cache) = setup(NvCacheConfig::tiny());
    // Create content directly on the inner FS.
    let ifd = inner.open("/ro", OpenFlags::RDWR | OpenFlags::CREATE, &c).unwrap();
    inner.pwrite(ifd, b"kernel content", 0, &c).unwrap();
    inner.close(ifd, &c).unwrap();
    let fd = cache.open("/ro", OpenFlags::RDONLY, &c).unwrap();
    let mut buf = [0u8; 14];
    cache.pread(fd, &mut buf, 0, &c).unwrap();
    assert_eq!(&buf, b"kernel content");
    let stats = cache.stats().snapshot();
    assert!(stats.bypass_reads >= 1);
    assert_eq!(stats.read_misses, 0, "no page should enter the read cache");
    cache.shutdown(&c);
}

#[test]
fn dirty_miss_reconstructs_fresh_state() {
    // Small read cache forces eviction of a dirty page, then a read must
    // merge kernel data with pending log entries (paper Fig. 2 dirty miss).
    let cfg = NvCacheConfig {
        read_cache_pages: 2,
        batch_min: 1_000_000, // cleanup effectively disabled
        batch_max: 1_000_000,
        nb_entries: 256,
        ..NvCacheConfig::tiny()
    };
    let (c, _d, _i, cache) = setup(cfg);
    let fd = cache.open("/dm", OpenFlags::RDWR | OpenFlags::CREATE, &c).unwrap();
    // Write to page 0 (lands in log; page not loaded).
    cache.pwrite(fd, &[0xAA; 100], 0, &c).unwrap();
    // Touch other pages to keep the pool busy.
    for p in 1..=4u64 {
        cache.pwrite(fd, &[p as u8; 64], p * 4096, &c).unwrap();
        let mut tmp = [0u8; 64];
        cache.pread(fd, &mut tmp, p * 4096, &c).unwrap();
    }
    // Now read page 0: unloaded + pending entries => dirty miss.
    let mut buf = [0u8; 100];
    cache.pread(fd, &mut buf, 0, &c).unwrap();
    assert_eq!(buf, [0xAA; 100]);
    assert!(cache.stats().snapshot().dirty_misses >= 1, "expected a dirty miss");
    cache.shutdown(&c);
}

/// Mounts with the cleanup workers parked, writes A then B over the same
/// bytes of page `page` and C beside them, plays the workers by hand —
/// A and B propagated (inner `pwrite`, propagation queues popped),
/// C still pending — lets `free_b` recycle B and not A, and reads the
/// never-loaded page: a dirty miss whose scan meets A's commit word and not
/// B's. Replaying A over the kernel copy that holds B is the stale read.
fn dirty_miss_after_partial_free(shards: usize, free_b: impl Fn(&crate::log::Stripe, u64)) {
    let cfg = NvCacheConfig { batch_min: 1_000_000, batch_max: 1_000_000, ..sharded_cfg(shards) };
    let (c, _d, inner, cache) = setup(cfg);
    let fd = cache.open("/race", OpenFlags::RDWR | OpenFlags::CREATE, &c).unwrap();
    let shared = &cache.shared;
    let file = Arc::clone(&shared.opened_fd(fd).unwrap().file);
    let stripe_of = |off: u64| shared.log.route(file.dev_ino, off).index;
    // A and C straddle into the page from the entry-sized chunk before it,
    // B starts in the page's own chunk: on a striped log, pick a page whose
    // two chunks route to different stripes, so B sits alone in its stripe.
    let page = (1..64u64)
        .find(|p| shards == 1 || stripe_of(p * 4096 - 100) != stripe_of(p * 4096))
        .expect("some neighbouring chunks route apart");
    let start = page * 4096;
    let writes = [(0xAA, start - 100, 200), (0xBB, start, 64), (0xCC, start - 50, 100)];
    let mut seqs = Vec::new();
    for (byte, off, len) in writes {
        let stripe = &shared.log.stripes[stripe_of(off)];
        seqs.push((stripe, stripe.head.load(std::sync::atomic::Ordering::Acquire)));
        cache.pwrite(fd, &vec![byte; len], off, &c).unwrap();
    }
    let ifd = inner.open("/race", OpenFlags::RDWR, &c).unwrap();
    for &(stripe, seq) in &seqs[..2] {
        let e = stripe.read_header(seq);
        let data = stripe.read_data_cached(seq, e.len as usize);
        inner.pwrite(ifd, &data, e.file_off, &c).unwrap();
        for (_, d) in shared.page_descs(&file, e.file_off, e.len as usize) {
            d.pop_propagation(e.seq);
        }
    }
    free_b(seqs[1].0, seqs[1].1);

    let mut buf = [0u8; 100];
    cache.pread(fd, &mut buf, start, &c).unwrap();
    assert_eq!(cache.stats().snapshot().dirty_misses, 1);
    assert_eq!(buf[..50], [0xCC; 50], "C is pending: replayed");
    assert_eq!(buf[50..64], [0xBB; 14], "B is in the kernel copy: A must not cover it");
    assert_eq!(buf[64..], [0xAA; 36]);
    cache.abort();
}

#[test]
fn dirty_miss_ignores_a_propagated_entry_whose_newer_sibling_was_freed() {
    // Two stripes: B's worker finished its batch and freed it while A's
    // worker still waits for its barrier.
    dirty_miss_after_partial_free(2, |stripe, seq| stripe.free_range(seq, 1, &ActorClock::new()));
    // One stripe: `free_range` clears the batch's commit words oldest
    // first, outside the page locks, while the read scans in the same
    // direction — it read A's word before the sweep cleared it and B's
    // after. This is the log as that scan saw it.
    dirty_miss_after_partial_free(1, |stripe, seq| {
        let commit = stripe.layout.entry(stripe.slot(seq)) + crate::layout::ENT_COMMIT;
        nvmm::PmemInts::write_u64(&stripe.region, commit, 0, &ActorClock::new());
    });
}

#[test]
fn crash_before_propagation_recovers_all_acked_writes() {
    let cfg = NvCacheConfig {
        batch_min: 1_000_000, // never propagate: everything stays in the log
        batch_max: 1_000_000,
        nb_entries: 128,
        ..NvCacheConfig::tiny()
    };
    let clock = ActorClock::new();
    let dimm = Arc::new(NvDimm::new(cfg.required_nvmm_bytes(), NvmmProfile::instant()));
    let inner: Arc<dyn FileSystem> = Arc::new(MemFs::new());
    let cache = mount(
        NvRegion::whole(Arc::clone(&dimm)),
        Arc::clone(&inner),
        cfg.clone(),
        Mount::Format,
        &clock,
    )
    .unwrap();
    let fd = cache.open("/crash", OpenFlags::RDWR | OpenFlags::CREATE, &clock).unwrap();
    cache.pwrite(fd, b"first", 0, &clock).unwrap();
    cache.pwrite(fd, b"second", 100, &clock).unwrap();
    // Kill the process without draining.
    cache.abort();
    drop(cache);
    // Power failure: NVMM keeps flushed lines; page cache content of the
    // inner FS is volatile (MemFs loses everything it wasn't told to keep —
    // here the file itself survives as an empty shell because metadata is
    // in the simulated kernel namespace).
    let crashed = Arc::new(dimm.crash_and_restart());
    let recovered =
        mount(NvRegion::whole(crashed), Arc::clone(&inner), cfg, Mount::Recover, &clock).unwrap();
    let report = recovered.recovery_report().unwrap();
    assert_eq!(report.entries_replayed, 2);
    assert_eq!(report.files_reopened, 1);
    let fd2 = recovered.open("/crash", OpenFlags::RDONLY, &clock).unwrap();
    let mut a = [0u8; 5];
    let mut b = [0u8; 6];
    recovered.pread(fd2, &mut a, 0, &clock).unwrap();
    recovered.pread(fd2, &mut b, 100, &clock).unwrap();
    assert_eq!(&a, b"first");
    assert_eq!(&b, b"second");
    recovered.shutdown(&clock);
}

#[test]
fn torn_write_is_discarded_by_recovery() {
    // Simulate a crash where an entry was filled but its commit flag never
    // reached NVMM: hand-craft the torn entry in the region after the kill.
    use crate::layout::{Layout, ENTRY_HEADER_BYTES, ENT_FD, ENT_FILE_OFF, ENT_LEN};
    use nvmm::PmemInts;

    let cfg = NvCacheConfig {
        nb_entries: 64,
        batch_min: 1_000_000,
        batch_max: 1_000_000,
        ..NvCacheConfig::tiny()
    };
    let clock = ActorClock::new();
    let dimm = Arc::new(NvDimm::new(cfg.required_nvmm_bytes(), NvmmProfile::instant()));
    let inner: Arc<dyn FileSystem> = Arc::new(MemFs::new());
    let region = NvRegion::whole(Arc::clone(&dimm));
    let cache =
        mount(region.clone(), Arc::clone(&inner), cfg.clone(), Mount::Format, &clock).unwrap();
    let fd = cache.open("/torn", OpenFlags::RDWR | OpenFlags::CREATE, &clock).unwrap();
    cache.pwrite(fd, b"committed", 0, &clock).unwrap();
    cache.abort();
    drop(cache);

    // Torn entry at slot 1: header + data flushed, commit word still 0.
    let lay = Layout::for_config(&cfg);
    let base = lay.entry(1);
    region.write_u32(base + ENT_FD, 0, &clock);
    region.write_u32(base + ENT_LEN, 4, &clock);
    region.write_u64(base + ENT_FILE_OFF, 512, &clock);
    region.write(base + ENTRY_HEADER_BYTES, b"torn", &clock);
    region.pwb(base, 128);
    region.pfence(&clock);

    let crashed = Arc::new(dimm.crash_and_restart());
    let recovered =
        mount(NvRegion::whole(crashed), Arc::clone(&inner), cfg, Mount::Recover, &clock).unwrap();
    let report = recovered.recovery_report().unwrap();
    assert_eq!(report.entries_replayed, 1, "only the committed entry replays");
    let fd2 = recovered.open("/torn", OpenFlags::RDONLY, &clock).unwrap();
    let mut buf = [0u8; 9];
    recovered.pread(fd2, &mut buf, 0, &clock).unwrap();
    assert_eq!(&buf, b"committed");
    // The torn data must not have been applied.
    assert_eq!(recovered.fstat(fd2, &clock).unwrap().size, 9);
    recovered.shutdown(&clock);
}

#[test]
fn concurrent_writers_to_disjoint_pages_are_all_durable() {
    let cfg = NvCacheConfig { nb_entries: 4096, read_cache_pages: 512, ..NvCacheConfig::tiny() };
    let (c, _d, _i, cache) = setup(cfg);
    let cache = Arc::new(cache);
    let fd = cache.open("/mt", OpenFlags::RDWR | OpenFlags::CREATE, &c).unwrap();
    let mut handles = Vec::new();
    for t in 0..4u64 {
        let cache = Arc::clone(&cache);
        handles.push(std::thread::spawn(move || {
            let clock = ActorClock::new();
            for i in 0..64u64 {
                let page = t * 64 + i;
                cache.pwrite(fd, &[(t + 1) as u8; 4096], page * 4096, &clock).unwrap();
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    for t in 0..4u64 {
        for i in 0..64u64 {
            let page = t * 64 + i;
            let mut buf = [0u8; 4096];
            cache.pread(fd, &mut buf, page * 4096, &c).unwrap();
            assert_eq!(buf[0], (t + 1) as u8, "page {page}");
        }
    }
    cache.shutdown(&c);
}

#[test]
fn concurrent_same_page_writes_are_atomic() {
    // POSIX atomicity (paper §II-D): a read may see either value, never a mix.
    let cfg = NvCacheConfig { nb_entries: 4096, ..NvCacheConfig::tiny() };
    let (c, _d, _i, cache) = setup(cfg);
    let cache = Arc::new(cache);
    let fd = cache.open("/atomic", OpenFlags::RDWR | OpenFlags::CREATE, &c).unwrap();
    cache.pwrite(fd, &[0u8; 4096], 0, &c).unwrap();
    let mut handles = Vec::new();
    for t in 1..=4u8 {
        let cache = Arc::clone(&cache);
        handles.push(std::thread::spawn(move || {
            let clock = ActorClock::new();
            for _ in 0..32 {
                cache.pwrite(fd, &[t; 4096], 0, &clock).unwrap();
            }
        }));
    }
    let reader = {
        let cache = Arc::clone(&cache);
        std::thread::spawn(move || {
            let clock = ActorClock::new();
            for _ in 0..64 {
                let mut buf = [0u8; 4096];
                cache.pread(fd, &mut buf, 0, &clock).unwrap();
                assert!(
                    buf.iter().all(|&b| b == buf[0]),
                    "read observed a torn page: {} vs {}",
                    buf[0],
                    buf[4095]
                );
            }
        })
    };
    for h in handles {
        h.join().unwrap();
    }
    reader.join().unwrap();
    cache.shutdown(&c);
}

#[test]
fn log_saturation_throttles_writers_to_inner_speed() {
    // A tiny log: the writer must wait for the cleanup thread (Fig. 5).
    let cfg = NvCacheConfig { nb_entries: 8, batch_min: 1, batch_max: 4, ..NvCacheConfig::tiny() };
    let (c, _d, _i, cache) = setup(cfg);
    let fd = cache.open("/sat", OpenFlags::RDWR | OpenFlags::CREATE, &c).unwrap();
    for i in 0..256u64 {
        cache.pwrite(fd, &[i as u8; 4096], i * 4096, &c).unwrap();
    }
    assert!(
        cache.stats().snapshot().log_full_waits > 0,
        "a 8-entry log must saturate under 256 writes"
    );
    cache.shutdown(&c);
}

#[test]
fn close_flushes_content_to_the_kernel_without_draining() {
    let cfg = NvCacheConfig {
        batch_min: 1_000_000,
        batch_max: 1_000_000,
        nb_entries: 128,
        ..NvCacheConfig::tiny()
    };
    let (c, _d, inner, cache) = setup(cfg);
    let fd = cache.open("/cl", OpenFlags::RDWR | OpenFlags::CREATE, &c).unwrap();
    cache.pwrite(fd, b"flushed by close", 0, &c).unwrap();
    assert_eq!(inner.stat("/cl", &c).unwrap().size, 0);
    cache.close(fd, &c).unwrap();
    // The kernel sees the content (paper: close flushes to the kernel)...
    assert_eq!(inner.stat("/cl", &c).unwrap().size, 16);
    // ...but the entries stay in NVMM until the cleanup thread's batch —
    // close is NOT a durability barrier (durability happened at pwrite).
    assert!(cache.pending_entries() > 0);
    cache.shutdown(&c);
    assert_eq!(cache.pending_entries(), 0);
}

/// ROADMAP 3a: radix leaves carry their file's id, so `purge_file` finds
/// them. Truncating — by `ftruncate(0)` or by an `O_TRUNC` open beside a
/// descriptor that keeps the file structure alive — must empty the file's
/// loaded pages, or a later read serves the cut content.
#[test]
fn truncation_drops_the_files_cached_pages() {
    for by_reopen in [false, true] {
        let (c, _d, _i, cache) = setup(NvCacheConfig::tiny());
        let ps = crate::config::PAGE_SIZE;
        let fd = cache.open("/t", OpenFlags::RDWR | OpenFlags::CREATE, &c).unwrap();
        cache.pwrite(fd, &vec![7u8; ps], 0, &c).unwrap();
        let mut page = vec![0u8; ps];
        cache.pread(fd, &mut page, 0, &c).unwrap();
        assert_eq!(cache.shared.pool.loaded(), 1, "the read loaded page 0");
        let fd = if by_reopen {
            cache.open("/t", OpenFlags::RDWR | OpenFlags::TRUNC, &c).unwrap()
        } else {
            cache.ftruncate(fd, 0, &c).unwrap();
            fd
        };
        assert_eq!(cache.shared.pool.loaded(), 0, "by_reopen={by_reopen}");
        // 100 new bytes at the front, one at the page's end so that the
        // whole page is inside the file again: the gap must read as zeros.
        cache.pwrite(fd, &[9u8; 100], 0, &c).unwrap();
        cache.pwrite(fd, &[9u8], ps as u64 - 1, &c).unwrap();
        assert_eq!(cache.pread(fd, &mut page, 0, &c).unwrap(), ps);
        assert!(page[..100].iter().all(|&b| b == 9));
        assert!(
            page[100..ps - 1].iter().all(|&b| b == 0),
            "stale content survived the truncation (by_reopen={by_reopen})"
        );
        cache.shutdown(&c);
    }
}

/// ROADMAP 3a, the other caller: the last close gives the file's loaded
/// pages back to the pool.
#[test]
fn last_close_returns_the_files_pages_to_the_pool() {
    let (c, _d, _i, cache) = setup(NvCacheConfig::tiny());
    let ps = crate::config::PAGE_SIZE;
    let fd = cache.open("/lc", OpenFlags::RDWR | OpenFlags::CREATE, &c).unwrap();
    let other = cache.open("/other", OpenFlags::RDWR | OpenFlags::CREATE, &c).unwrap();
    let mut page = vec![0u8; ps];
    for fd in [fd, other] {
        cache.pwrite(fd, &vec![5u8; 2 * ps], 0, &c).unwrap();
        cache.pread(fd, &mut page, 0, &c).unwrap();
        cache.pread(fd, &mut page, ps as u64, &c).unwrap();
    }
    assert_eq!(cache.shared.pool.loaded(), 4);
    cache.flush_log(&c); // drained: the close below finishes on the spot
    cache.close(fd, &c).unwrap();
    assert_eq!(cache.shared.pool.loaded(), 2, "only the closed file's pages go");
    cache.close(other, &c).unwrap();
    assert_eq!(cache.shared.pool.loaded(), 0);
    cache.shutdown(&c);
}

#[test]
fn unlinked_file_is_not_resurrected_by_recovery() {
    let cfg = NvCacheConfig {
        batch_min: 1_000_000,
        batch_max: 1_000_000,
        nb_entries: 128,
        ..NvCacheConfig::tiny()
    };
    let clock = ActorClock::new();
    let dimm = Arc::new(NvDimm::new(cfg.required_nvmm_bytes(), NvmmProfile::instant()));
    let inner: Arc<dyn FileSystem> = Arc::new(MemFs::new());
    let cache = mount(
        NvRegion::whole(Arc::clone(&dimm)),
        Arc::clone(&inner),
        cfg.clone(),
        Mount::Format,
        &clock,
    )
    .unwrap();
    let keep = cache.open("/keep", OpenFlags::RDWR | OpenFlags::CREATE, &clock).unwrap();
    cache.pwrite(keep, b"kept", 0, &clock).unwrap();
    let gone = cache.open("/gone", OpenFlags::RDWR | OpenFlags::CREATE, &clock).unwrap();
    cache.pwrite(gone, b"doomed", 0, &clock).unwrap();
    cache.unlink("/gone", &clock).unwrap();
    cache.abort();
    drop(cache);
    let crashed = Arc::new(dimm.crash_and_restart());
    let recovered =
        mount(NvRegion::whole(crashed), Arc::clone(&inner), cfg, Mount::Recover, &clock).unwrap();
    let report = recovered.recovery_report().unwrap();
    assert_eq!(
        report.files_missing, 0,
        "unlinked through the mount: its slot was invalidated at the unlink, so recovery has \
         no path to miss (missing = removed behind the mount's back)"
    );
    assert_eq!((report.entries_replayed, report.entries_skipped), (1, 1), "kept, doomed");
    assert!(
        matches!(recovered.stat("/gone", &clock), Err(IoError::NotFound(_))),
        "recovery must not resurrect an unlinked file"
    );
    let fd = recovered.open("/keep", OpenFlags::RDONLY, &clock).unwrap();
    let mut buf = [0u8; 4];
    recovered.pread(fd, &mut buf, 0, &clock).unwrap();
    assert_eq!(&buf, b"kept");
    recovered.shutdown(&clock);
}

/// sqlight's hot-journal pattern: a journal is written, deleted and created
/// again under the same name while the old one's entries are still in the
/// log. Recovery must not replay the dead file's entries into its successor,
/// whichever way the old file died.
#[test]
fn a_recreated_name_does_not_inherit_a_dead_files_entries() {
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Death {
        CloseThenUnlink,
        UnlinkThenClose,
        /// Unlinked, still open, and written to until the crash.
        UnlinkStillOpen,
    }
    for death in [Death::CloseThenUnlink, Death::UnlinkThenClose, Death::UnlinkStillOpen] {
        let cfg = NvCacheConfig {
            batch_min: 1_000_000,
            batch_max: 1_000_000,
            nb_entries: 128,
            ..NvCacheConfig::tiny()
        };
        let (clock, dimm, inner, cache) = setup(cfg.clone());
        let create = OpenFlags::RDWR | OpenFlags::CREATE;
        let old = cache.open("/db-journal", create, &clock).unwrap();
        cache.pwrite(old, b"OLDHEADEROLDHEAD", 0, &clock).unwrap();
        cache.pwrite(old, b"old-record", 100, &clock).unwrap();
        if death == Death::CloseThenUnlink {
            cache.close(old, &clock).unwrap();
        }
        cache.unlink("/db-journal", &clock).unwrap();
        if death == Death::UnlinkThenClose {
            cache.close(old, &clock).unwrap();
        }
        let new = cache.open("/db-journal", create, &clock).unwrap();
        cache.pwrite(new, b"new", 16, &clock).unwrap();
        if death == Death::UnlinkStillOpen {
            cache.pwrite(old, b"late", 200, &clock).unwrap();
        }
        assert_eq!(cache.stats().snapshot().entries_propagated, 0, "{death:?}: drain is parked");
        cache.abort();
        drop(cache);
        let crashed = Arc::new(dimm.crash_and_restart());
        let recovered =
            mount(NvRegion::whole(crashed), inner, cfg, Mount::Recover, &clock).unwrap();
        let report = recovered.recovery_report().unwrap();
        assert_eq!((report.files_reopened, report.files_missing), (1, 0), "{death:?}");
        assert_eq!(report.entries_replayed, 1, "{death:?}: only the new file's write");
        let fd = recovered.open("/db-journal", OpenFlags::RDONLY, &clock).unwrap();
        let mut content = vec![0xFF; 256];
        let n = recovered.pread(fd, &mut content, 0, &clock).unwrap();
        let mut expect = vec![0u8; 16];
        expect.extend_from_slice(b"new");
        assert_eq!(&content[..n], &expect[..], "{death:?}: the successor holds its own bytes");
        recovered.shutdown(&clock);
    }
}

#[test]
fn double_close_and_bad_fd() {
    let (c, _d, _i, cache) = setup(NvCacheConfig::tiny());
    let fd = cache.open("/dc", OpenFlags::RDWR | OpenFlags::CREATE, &c).unwrap();
    cache.close(fd, &c).unwrap();
    assert!(matches!(cache.close(fd, &c), Err(IoError::BadFd(_))));
    let mut buf = [0u8; 1];
    assert!(matches!(cache.pread(fd, &mut buf, 0, &c), Err(IoError::BadFd(_))));
    cache.shutdown(&c);
}

#[test]
fn posix_conformance_through_nvcache() {
    let (c, _d, _i, cache) = setup(NvCacheConfig::tiny());
    vfs::check_posix_semantics(&cache);
    cache.shutdown(&c);
}

#[test]
fn guarantees_are_reported() {
    let (c, _d, _i, cache) = setup(NvCacheConfig::tiny());
    assert!(cache.synchronous_durability());
    assert!(cache.durable_linearizability());
    assert!(cache.name().starts_with("nvcache+"));
    cache.shutdown(&c);
}

#[test]
fn write_latency_is_single_digit_microseconds() {
    // With the Optane profile, a 4 KiB synchronous write should cost ≈6-8µs
    // (the paper's ~550 MiB/s single-thread log bandwidth).
    let cfg = NvCacheConfig::tiny();
    let clock = ActorClock::new();
    let dimm = Arc::new(NvDimm::new(cfg.required_nvmm_bytes(), NvmmProfile::optane()));
    let inner: Arc<dyn FileSystem> = Arc::new(MemFs::new());
    let cache = mount(NvRegion::whole(dimm), inner, cfg, Mount::Format, &clock).unwrap();
    let fd = cache.open("/lat", OpenFlags::RDWR | OpenFlags::CREATE, &clock).unwrap();
    cache.pwrite(fd, &[0u8; 4096], 0, &clock).unwrap(); // warm-up (radix alloc)
    let before = clock.now();
    cache.pwrite(fd, &[1u8; 4096], 4096, &clock).unwrap();
    let lat = clock.now() - before;
    assert!(lat >= SimTime::from_micros(4), "suspiciously fast: {lat}");
    assert!(lat <= SimTime::from_micros(12), "too slow: {lat}");
    cache.shutdown(&clock);
}

#[test]
fn fd_table_exhaustion_is_reported() {
    let cfg = NvCacheConfig { fd_slots: 2, ..NvCacheConfig::tiny() };
    let (c, _d, _i, cache) = setup(cfg);
    let _a = cache.open("/1", OpenFlags::RDWR | OpenFlags::CREATE, &c).unwrap();
    let _b = cache.open("/2", OpenFlags::RDWR | OpenFlags::CREATE, &c).unwrap();
    assert!(cache.open("/3", OpenFlags::RDWR | OpenFlags::CREATE, &c).is_err());
    cache.shutdown(&c);
}

/// Forwards to `inner`; `close` first runs the armed hook — on the thread
/// that is inside `Shared::finish_close` at that moment, its descriptor
/// gone from every table and its slot not yet released.
struct CloseHook {
    inner: Arc<dyn FileSystem>,
    hook: parking_lot::Mutex<Option<Box<dyn FnOnce() + Send>>>,
}

impl FileSystem for CloseHook {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn open(&self, path: &str, flags: OpenFlags, clock: &ActorClock) -> vfs::IoResult<vfs::Fd> {
        self.inner.open(path, flags, clock)
    }
    fn close(&self, fd: vfs::Fd, clock: &ActorClock) -> vfs::IoResult<()> {
        if let Some(hook) = self.hook.lock().take() {
            hook();
        }
        self.inner.close(fd, clock)
    }
    fn pread(&self, fd: vfs::Fd, buf: &mut [u8], off: u64, c: &ActorClock) -> vfs::IoResult<usize> {
        self.inner.pread(fd, buf, off, c)
    }
    fn pwrite(&self, fd: vfs::Fd, data: &[u8], off: u64, c: &ActorClock) -> vfs::IoResult<usize> {
        self.inner.pwrite(fd, data, off, c)
    }
    fn fsync(&self, fd: vfs::Fd, clock: &ActorClock) -> vfs::IoResult<()> {
        self.inner.fsync(fd, clock)
    }
    fn ftruncate(&self, fd: vfs::Fd, len: u64, clock: &ActorClock) -> vfs::IoResult<()> {
        self.inner.ftruncate(fd, len, clock)
    }
    fn fstat(&self, fd: vfs::Fd, clock: &ActorClock) -> vfs::IoResult<vfs::Metadata> {
        self.inner.fstat(fd, clock)
    }
    fn stat(&self, path: &str, clock: &ActorClock) -> vfs::IoResult<vfs::Metadata> {
        self.inner.stat(path, clock)
    }
    fn unlink(&self, path: &str, clock: &ActorClock) -> vfs::IoResult<()> {
        self.inner.unlink(path, clock)
    }
    fn rename(&self, from: &str, to: &str, clock: &ActorClock) -> vfs::IoResult<()> {
        self.inner.rename(from, to, clock)
    }
    fn list_dir(&self, dir: &str, clock: &ActorClock) -> vfs::IoResult<Vec<String>> {
        self.inner.list_dir(dir, clock)
    }
    fn sync(&self, clock: &ActorClock) -> vfs::IoResult<()> {
        self.inner.sync(clock)
    }
}

/// ROADMAP 3b: between `finish_close` unlisting a descriptor and releasing
/// its slot, no table shows it — `open`'s out-of-slots check took that for
/// a full table (`catalog_churn`, ~1 run in 30). The hook evaluates the
/// check from inside that very window, for both ways in: a `close` that
/// finishes on the spot, and a zombie finished by `drain_zombies`.
#[test]
fn a_descriptor_being_finished_does_not_read_as_a_full_table() {
    for zombie in [false, true] {
        let cfg = NvCacheConfig {
            fd_slots: 1,
            batch_min: 1_000_000,
            batch_max: 1_000_000,
            ..NvCacheConfig::tiny()
        };
        let c = ActorClock::new();
        let dimm = Arc::new(NvDimm::new(cfg.required_nvmm_bytes(), NvmmProfile::instant()));
        let hooked = Arc::new(CloseHook {
            inner: Arc::new(MemFs::new()),
            hook: parking_lot::Mutex::new(None),
        });
        let inner = Arc::clone(&hooked) as Arc<dyn FileSystem>;
        let cache =
            Arc::new(mount(NvRegion::whole(dimm), inner, cfg, Mount::Format, &c).expect("format"));
        let fd = cache.open("/a", OpenFlags::RDWR | OpenFlags::CREATE, &c).unwrap();
        if zombie {
            cache.pwrite(fd, b"pending", 0, &c).unwrap(); // parked: close defers
        }
        let seen = Arc::new(parking_lot::Mutex::new(None));
        *hooked.hook.lock() = Some(Box::new({
            let (cache, seen) = (Arc::clone(&cache), Arc::clone(&seen));
            move || {
                let shared = &cache.shared;
                let in_no_table =
                    shared.opened.read().is_empty() && shared.zombies.lock().is_empty();
                *seen.lock() =
                    Some((in_no_table, shared.fd_slots.free_count(), shared.out_of_descriptors()));
            }
        }));
        cache.close(fd, &c).unwrap();
        if zombie {
            assert_eq!(cache.fd_slot_usage(), (0, 1, 1), "the close was deferred");
            cache.flush_log(&c);
            cache.shared.drain_zombies(&c);
        }
        assert_eq!(
            *seen.lock(),
            Some((true, 0, false)),
            "zombie={zombie}: in no table, slot still taken, yet not out of descriptors"
        );
        assert!(cache.shared.out_of_descriptors(), "nothing is on its way any more");
        let fd = cache
            .open("/b", OpenFlags::RDWR | OpenFlags::CREATE, &c)
            .expect("the slot is back");
        cache.close(fd, &c).unwrap();
        cache.shutdown(&c);
    }
}

#[test]
fn recovery_is_idempotent() {
    let cfg = NvCacheConfig {
        batch_min: 1_000_000,
        batch_max: 1_000_000,
        nb_entries: 64,
        ..NvCacheConfig::tiny()
    };
    let clock = ActorClock::new();
    let dimm = Arc::new(NvDimm::new(cfg.required_nvmm_bytes(), NvmmProfile::instant()));
    let inner: Arc<dyn FileSystem> = Arc::new(MemFs::new());
    let cache = mount(
        NvRegion::whole(Arc::clone(&dimm)),
        Arc::clone(&inner),
        cfg.clone(),
        Mount::Format,
        &clock,
    )
    .unwrap();
    let fd = cache.open("/idem", OpenFlags::RDWR | OpenFlags::CREATE, &clock).unwrap();
    cache.pwrite(fd, b"once", 0, &clock).unwrap();
    cache.abort();
    drop(cache);
    let crashed = Arc::new(dimm.crash_and_restart());
    let region = NvRegion::whole(Arc::clone(&crashed));
    let first =
        mount(region.clone(), Arc::clone(&inner), cfg.clone(), Mount::Recover, &clock).unwrap();
    let r1 = first.recovery_report().unwrap();
    assert_eq!(r1.entries_replayed, 1);
    first.abort();
    drop(first);
    // Second recovery over the emptied log: nothing to do, content intact.
    let second = mount(region, Arc::clone(&inner), cfg, Mount::Recover, &clock).unwrap();
    let r2 = second.recovery_report().unwrap();
    assert_eq!(r2.entries_replayed, 0);
    let fd2 = second.open("/idem", OpenFlags::RDONLY, &clock).unwrap();
    let mut buf = [0u8; 4];
    second.pread(fd2, &mut buf, 0, &clock).unwrap();
    assert_eq!(&buf, b"once");
    second.shutdown(&clock);
}

#[test]
fn single_shard_format_keeps_the_seed_header() {
    // With log_shards = 1 the striped code path must not touch the stripe
    // header words: the persistent image stays byte-for-byte seed-compatible.
    use crate::layout::{OFF_LOG_SHARDS, OFF_STRIPE_TAILS};
    use nvmm::PmemInts;
    let (c, _d, _i, cache) = setup(NvCacheConfig::tiny());
    let fd = cache.open("/seed", OpenFlags::RDWR | OpenFlags::CREATE, &c).unwrap();
    cache.pwrite(fd, b"seed-compatible", 0, &c).unwrap();
    cache.flush_log(&c);
    let region = &cache.shared.log.region;
    assert_eq!(region.read_u64(OFF_LOG_SHARDS), 0, "seed headers never write the shard word");
    assert_eq!(region.read_u64(OFF_STRIPE_TAILS), 0);
    cache.shutdown(&c);
}

fn sharded_cfg(shards: usize) -> NvCacheConfig {
    NvCacheConfig { nb_entries: 256, fd_slots: 8, ..NvCacheConfig::tiny() }.with_log_shards(shards)
}

#[test]
fn sharded_log_round_trips_and_propagates() {
    let (c, _d, inner, cache) = setup(sharded_cfg(4));
    let fd = cache.open("/sharded", OpenFlags::RDWR | OpenFlags::CREATE, &c).unwrap();
    // Touch many distinct chunks so several stripes see traffic.
    for p in 0..32u64 {
        cache.pwrite(fd, &[p as u8 + 1; 4096], p * 4096, &c).unwrap();
    }
    for p in 0..32u64 {
        let mut buf = [0u8; 4096];
        cache.pread(fd, &mut buf, p * 4096, &c).unwrap();
        assert_eq!(buf[0], p as u8 + 1, "read-your-writes on page {p}");
    }
    cache.flush_log(&c);
    assert_eq!(cache.pending_entries(), 0);
    let snap = cache.stats().snapshot();
    assert_eq!(snap.per_shard.len(), 4);
    let used: usize = snap.per_shard.iter().filter(|s| s.entries_logged > 0).count();
    assert!(used > 1, "hash routing must spread writes over stripes: {:?}", snap.per_shard);
    assert_eq!(
        snap.per_shard.iter().map(|s| s.entries_propagated).sum::<u64>(),
        snap.entries_propagated,
        "per-shard propagation counters must add up"
    );
    // Everything reached the inner file system.
    let ifd = inner.open("/sharded", OpenFlags::RDONLY, &c).unwrap();
    for p in 0..32u64 {
        let mut buf = [0u8; 4096];
        inner.pread(ifd, &mut buf, p * 4096, &c).unwrap();
        assert_eq!(buf[0], p as u8 + 1, "inner content of page {p}");
    }
    cache.shutdown(&c);
}

#[test]
fn sharded_crash_recovery_merges_stripes_in_commit_order() {
    // Overlapping writes land in different stripes (different starting
    // chunks); recovery must replay them by global sequence, not stripe
    // order, to reproduce exactly the acknowledged final state.
    let cfg = NvCacheConfig {
        batch_min: 1_000_000, // keep everything in the log
        batch_max: 1_000_000,
        ..sharded_cfg(4)
    };
    let clock = ActorClock::new();
    let dimm = Arc::new(NvDimm::new(cfg.required_nvmm_bytes(), NvmmProfile::instant()));
    let inner: Arc<dyn FileSystem> = Arc::new(MemFs::new());
    let cache = mount(
        NvRegion::whole(Arc::clone(&dimm)),
        Arc::clone(&inner),
        cfg.clone(),
        Mount::Format,
        &clock,
    )
    .unwrap();
    let fd = cache.open("/merge", OpenFlags::RDWR | OpenFlags::CREATE, &clock).unwrap();
    // A 2-page write starting at chunk 0, then single-page overwrites of
    // both halves starting at chunks 0 and 1 — three different routes, one
    // byte range.
    cache.pwrite(fd, &[0xAA; 8192], 0, &clock).unwrap();
    cache.pwrite(fd, &[0xBB; 4096], 0, &clock).unwrap();
    cache.pwrite(fd, &[0xCC; 4096], 4096, &clock).unwrap();
    cache.pwrite(fd, &[0xDD; 100], 2000, &clock).unwrap();
    cache.abort();
    drop(cache);
    let crashed = Arc::new(dimm.crash_and_restart());
    let recovered =
        mount(NvRegion::whole(crashed), Arc::clone(&inner), cfg, Mount::Recover, &clock).unwrap();
    let report = recovered.recovery_report().unwrap();
    assert_eq!(report.entries_replayed, 5, "2 + 1 + 1 + 1 entries");
    let fd2 = recovered.open("/merge", OpenFlags::RDONLY, &clock).unwrap();
    let mut buf = vec![0u8; 8192];
    recovered.pread(fd2, &mut buf, 0, &clock).unwrap();
    let mut expect = vec![0xAA; 8192];
    expect[..4096].fill(0xBB);
    expect[4096..].fill(0xCC);
    expect[2000..2100].fill(0xDD);
    assert_eq!(buf, expect, "merge-replay must honour global commit order");
    recovered.shutdown(&clock);
}

#[test]
fn sharded_recovery_requires_matching_shard_count() {
    let cfg = sharded_cfg(4);
    let clock = ActorClock::new();
    let dimm = Arc::new(NvDimm::new(cfg.required_nvmm_bytes(), NvmmProfile::instant()));
    let inner: Arc<dyn FileSystem> = Arc::new(MemFs::new());
    let cache = mount(
        NvRegion::whole(Arc::clone(&dimm)),
        Arc::clone(&inner),
        cfg.clone(),
        Mount::Format,
        &clock,
    )
    .unwrap();
    cache.abort();
    drop(cache);
    let crashed = Arc::new(dimm.crash_and_restart());
    let wrong = NvCacheConfig { log_shards: 2, ..cfg };
    let res = mount(NvRegion::whole(crashed), inner, wrong, Mount::Recover, &clock);
    assert!(matches!(res, Err(IoError::InvalidArgument(_))));
}

#[test]
fn concurrent_writers_spread_over_stripes_stay_durable() {
    let cfg = NvCacheConfig { nb_entries: 4096, read_cache_pages: 512, ..NvCacheConfig::tiny() }
        .with_log_shards(8);
    let (c, _d, inner, cache) = setup(cfg);
    let cache = Arc::new(cache);
    let fd = cache.open("/mt-shard", OpenFlags::RDWR | OpenFlags::CREATE, &c).unwrap();
    let mut handles = Vec::new();
    for t in 0..4u64 {
        let cache = Arc::clone(&cache);
        handles.push(std::thread::spawn(move || {
            let clock = ActorClock::new();
            for i in 0..64u64 {
                let page = t * 64 + i;
                cache.pwrite(fd, &[(t + 1) as u8; 4096], page * 4096, &clock).unwrap();
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    cache.flush_log(&c);
    let ifd = inner.open("/mt-shard", OpenFlags::RDONLY, &c).unwrap();
    for t in 0..4u64 {
        for i in 0..64u64 {
            let page = t * 64 + i;
            let mut buf = [0u8; 4096];
            inner.pread(ifd, &mut buf, page * 4096, &c).unwrap();
            assert_eq!(buf[0], (t + 1) as u8, "inner page {page}");
        }
    }
    cache.shutdown(&c);
}

#[test]
fn cross_stripe_same_page_propagation_keeps_commit_order() {
    // Writers hammer a handful of byte ranges that straddle page borders,
    // so entries for one page land in *different* stripes. After a full
    // drain the inner file system must agree byte-for-byte with NVCache's
    // own (page-lock-ordered) view — the cleanup workers' per-page handoff
    // is what makes this hold.
    let cfg = NvCacheConfig { nb_entries: 512, read_cache_pages: 64, ..NvCacheConfig::tiny() }
        .with_log_shards(4);
    let (c, _d, inner, cache) = setup(cfg);
    let cache = Arc::new(cache);
    let fd = cache.open("/order", OpenFlags::RDWR | OpenFlags::CREATE, &c).unwrap();
    let mut handles = Vec::new();
    for t in 0..4u8 {
        let cache = Arc::clone(&cache);
        handles.push(std::thread::spawn(move || {
            let clock = ActorClock::new();
            for round in 0..24u64 {
                // Offsets chosen so multi-page writes overlap single-page
                // writes routed to other stripes.
                let off = (round % 3) * 2048;
                let len = if t % 2 == 0 { 8192 } else { 4096 };
                let byte = 1 + t + (round as u8 % 7) * 8;
                cache.pwrite(fd, &vec![byte; len as usize], off, &clock).unwrap();
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    cache.flush_log(&c);
    assert_eq!(cache.pending_entries(), 0);
    let size = cache.fstat(fd, &c).unwrap().size;
    let mut ours = vec![0u8; size as usize];
    cache.pread(fd, &mut ours, 0, &c).unwrap();
    let ifd = inner.open("/order", OpenFlags::RDONLY, &c).unwrap();
    let mut theirs = vec![0u8; size as usize];
    inner.pread(ifd, &mut theirs, 0, &c).unwrap();
    assert_eq!(ours, theirs, "drained kernel content diverged from the page-lock-ordered view");
    cache.shutdown(&c);
}

#[test]
fn reformatting_a_sharded_region_as_single_stripe_recovers() {
    // Regression: format() must clear a stale shard word, or recovery
    // of the reformatted region rejects the (valid) single-stripe config.
    // batch_min above the written entry count keeps the entry parked in the
    // log until abort(), so the replay count below is deterministic.
    let sharded = sharded_cfg(4).with_batching(1_000, 10_000);
    let single = NvCacheConfig { log_shards: 1, ..sharded.clone() };
    let clock = ActorClock::new();
    let dimm = Arc::new(NvDimm::new(sharded.required_nvmm_bytes(), NvmmProfile::instant()));
    let inner: Arc<dyn FileSystem> = Arc::new(MemFs::new());
    let first = mount(
        NvRegion::whole(Arc::clone(&dimm)),
        Arc::clone(&inner),
        sharded,
        Mount::Format,
        &clock,
    )
    .unwrap();
    first.shutdown(&clock);
    drop(first);
    // Reuse the region as a plain single-stripe log.
    let second = mount(
        NvRegion::whole(Arc::clone(&dimm)),
        Arc::clone(&inner),
        single.clone(),
        Mount::Format,
        &clock,
    )
    .unwrap();
    let fd = second.open("/reuse", OpenFlags::RDWR | OpenFlags::CREATE, &clock).unwrap();
    second.pwrite(fd, b"still recoverable", 0, &clock).unwrap();
    second.abort();
    drop(second);
    let crashed = Arc::new(dimm.crash_and_restart());
    let recovered = mount(NvRegion::whole(crashed), inner, single, Mount::Recover, &clock)
        .expect("stale shard word must not block recovery");
    let report = recovered.recovery_report().unwrap();
    assert_eq!(report.entries_replayed, 1);
    recovered.shutdown(&clock);
}

#[test]
fn handoff_pressure_defeats_batch_min_deadlock() {
    // Regression: with a large batch_min, stripe B's worker has no reason
    // to run while stripe A's worker waits (per-page handoff) on a smaller
    // sequence number parked in B — unless handoff pressure overrides the
    // batching policy and the flush barrier publishes every stripe's
    // target up front. Without both fixes this test hangs.
    let cfg = NvCacheConfig {
        nb_entries: 512,
        batch_min: 1_000, // far above the entry count written below
        batch_max: 10_000,
        read_cache_pages: 32,
        fd_slots: 8,
        ..NvCacheConfig::tiny()
    }
    .with_log_shards(4);
    let (c, _d, inner, cache) = setup(cfg);
    let fd = cache.open("/pressure", OpenFlags::RDWR | OpenFlags::CREATE, &c).unwrap();
    // Page-straddling writes at different starting chunks: entries for one
    // page end up in different stripes, forcing cross-stripe handoff.
    for round in 0..8u64 {
        cache.pwrite(fd, &[round as u8 + 1; 8192], (round % 3) * 2048, &c).unwrap();
        cache.pwrite(fd, &[round as u8 + 100; 4096], 4096, &c).unwrap();
    }
    // The barrier must complete even though every stripe is below
    // batch_min.
    cache.flush_log(&c);
    assert_eq!(cache.pending_entries(), 0);
    let size = cache.fstat(fd, &c).unwrap().size;
    let mut ours = vec![0u8; size as usize];
    cache.pread(fd, &mut ours, 0, &c).unwrap();
    let ifd = inner.open("/pressure", OpenFlags::RDONLY, &c).unwrap();
    let mut theirs = vec![0u8; size as usize];
    inner.pread(ifd, &mut theirs, 0, &c).unwrap();
    assert_eq!(ours, theirs, "drained content must match the acknowledged view");
    cache.shutdown(&c);
}

#[test]
fn recover_rejects_unformatted_region() {
    let cfg = NvCacheConfig::tiny();
    let clock = ActorClock::new();
    let dimm = Arc::new(NvDimm::new(cfg.required_nvmm_bytes(), NvmmProfile::instant()));
    let inner: Arc<dyn FileSystem> = Arc::new(MemFs::new());
    let res = mount(NvRegion::whole(dimm), inner, cfg, Mount::Recover, &clock);
    assert!(matches!(res, Err(IoError::InvalidArgument(_))));
}

/// The magic is checked before any geometry word: a never-formatted region
/// is named as such, not as a configuration mismatch.
#[test]
fn recovering_a_never_formatted_region_names_the_cause() {
    let cfg = NvCacheConfig::tiny();
    let clock = ActorClock::new();
    let dimm = Arc::new(NvDimm::new(cfg.required_nvmm_bytes(), NvmmProfile::instant()));
    let inner: Arc<dyn FileSystem> = Arc::new(MemFs::new());
    let err = mount(NvRegion::whole(dimm), inner, cfg, Mount::Recover, &clock).err();
    let expected = "NVMM region is not a formatted NVCache log";
    assert!(matches!(&err, Some(IoError::InvalidArgument(why)) if why == expected), "{err:?}");
}

// ---------------------------------------------------------------------------
// Async drain (queue_depth) and inner-error poisoning
// ---------------------------------------------------------------------------

// Fault injection for the cleanup drain path lives in `vfs::FaultLayer`
// now (this file's old private `FailingFs` generalized into a first-class
// layer); `FaultLayer::failing_pwrites(n)` reproduces its exact semantics.

/// Polls until `cache` reports at least one poisoned stripe (bounded wait:
/// poisoning happens on the cleanup worker's thread).
fn wait_for_poison(cache: &NvCache) {
    for _ in 0..10_000 {
        if !cache.poisoned_stripes().is_empty() {
            return;
        }
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    panic!("stripe never became poisoned");
}

#[test]
fn inner_write_errors_poison_the_stripe_instead_of_panicking() {
    let cfg = NvCacheConfig::tiny();
    let clock = ActorClock::new();
    let dimm = Arc::new(NvDimm::new(cfg.required_nvmm_bytes(), NvmmProfile::instant()));
    let mem: Arc<dyn FileSystem> = Arc::new(MemFs::new());
    // Every cleanup pwrite fails.
    let inner = vfs::FaultLayer::failing_pwrites(0).wrap(Arc::clone(&mem));
    let cache = mount(NvRegion::whole(Arc::clone(&dimm)), inner, cfg, Mount::Format, &clock)
        .expect("format");
    let fd = cache.open("/poison", OpenFlags::RDWR | OpenFlags::CREATE, &clock).unwrap();
    cache.pwrite(fd, &[7u8; 4096], 0, &clock).unwrap();
    wait_for_poison(&cache);

    // The failure is observable through stats and the poisoned-stripe state…
    let snap = cache.stats().snapshot();
    assert!(snap.inner_io_errors >= 1, "global error counter must record the failure");
    assert!(snap.per_shard[0].inner_io_errors >= 1, "per-shard counter too");
    assert_eq!(cache.poisoned_stripes(), vec![0]);
    // …the un-propagated entry stays in NVMM for recovery…
    assert!(cache.pending_entries() >= 1);
    // …new writes fail with an I/O error instead of blocking on the dead
    // worker…
    let err = cache.pwrite(fd, &[8u8; 4096], 4096, &clock);
    assert!(matches!(err, Err(IoError::Other(_))), "write to a poisoned stripe must fail: {err:?}");
    // …drain-dependent operations fail too (their pending entries cannot
    // drain, and recovery would replay them over the operation's effect)…
    assert!(cache.ftruncate(fd, 0, &clock).is_err(), "ftruncate must not silently succeed");
    assert!(cache.rename("/poison", "/elsewhere", &clock).is_err(), "rename must fail");
    let trunc_open = cache.open("/poison", OpenFlags::RDWR | OpenFlags::TRUNC, &clock);
    assert!(trunc_open.is_err(), "O_TRUNC open must fail while entries are stuck");
    // …and shutdown (flush barrier included) terminates instead of hanging.
    cache.shutdown(&clock);
}

#[test]
fn crash_mid_batch_never_advances_tail_past_an_uncompleted_entry() {
    use nvmm::PmemInts;
    // One 8-entry batch whose 4th propagation write fails: the stripe tail
    // must stay at 0 (nothing in the batch is durable below until the whole
    // batch's completions and fsyncs land), and recovery must replay all 8.
    let cfg =
        NvCacheConfig { nb_entries: 64, batch_min: 8, batch_max: 16, ..NvCacheConfig::tiny() }
            .with_queue_depth(4);
    let clock = ActorClock::new();
    let dimm = Arc::new(NvDimm::new(cfg.required_nvmm_bytes(), NvmmProfile::instant()));
    let mem: Arc<dyn FileSystem> = Arc::new(MemFs::new());
    let inner = vfs::FaultLayer::failing_pwrites(3).wrap(Arc::clone(&mem));
    let cache =
        mount(NvRegion::whole(Arc::clone(&dimm)), inner, cfg.clone(), Mount::Format, &clock)
            .expect("format");
    let fd = cache.open("/midbatch", OpenFlags::RDWR | OpenFlags::CREATE, &clock).unwrap();
    for i in 0..8u64 {
        cache.pwrite(fd, &[i as u8 + 1; 4096], i * 4096, &clock).unwrap();
    }
    wait_for_poison(&cache);
    // The persistent tail never moved: a crash now loses nothing.
    let region = NvRegion::whole(Arc::clone(&dimm));
    assert_eq!(region.read_u64(crate::layout::OFF_PTAIL), 0, "tail advanced past a failed batch");
    cache.abort();
    drop(cache);

    // Crash, then recover against the (healthy) underlying file system.
    let crashed = Arc::new(dimm.crash_and_restart());
    let recovered = mount(NvRegion::whole(crashed), Arc::clone(&mem), cfg, Mount::Recover, &clock)
        .expect("recover");
    let report = recovered.recovery_report().unwrap();
    assert_eq!(report.entries_replayed, 8, "every entry of the failed batch must replay");
    let mut buf = [0u8; 4096];
    let rfd = recovered.open("/midbatch", OpenFlags::RDONLY, &clock).unwrap();
    for i in 0..8u64 {
        recovered.pread(rfd, &mut buf, i * 4096, &clock).unwrap();
        assert_eq!(buf[0], i as u8 + 1, "entry {i} content after replay");
    }
    recovered.shutdown(&clock);
}

/// Runs a fig5-style random-write drain (4 log stripes over Ext4+SSD) with
/// rings of `queue_depth` over an SSD of `ssd_channels` and returns (virtual
/// elapsed time, propagated entries, a content sample read back through the
/// inner file system).
fn sharded_drain_elapsed(
    queue_depth: usize,
    ssd_channels: usize,
    direct: bool,
) -> (SimTime, u64, Vec<u8>) {
    use blockdev::{BlockDevice, SsdDevice, SsdProfile};
    use vfs::{Ext4, Ext4Profile};
    // batch_min above the workload size parks the backlog until the flush
    // barrier, so each stripe drains in one large batch (one fsync) and the
    // measurement isolates the device overlap instead of per-batch flushes.
    let cfg = NvCacheConfig { nb_entries: 512, fd_slots: 16, ..NvCacheConfig::tiny() }
        .with_log_shards(4)
        .with_batching(1_000, 1_000)
        .with_queue_depth(queue_depth);
    let clock = ActorClock::new();
    let ssd = Arc::new(SsdDevice::new(SsdProfile::s4600().with_queue_depth(ssd_channels)));
    let inner: Arc<dyn FileSystem> =
        Arc::new(Ext4::new("ext4+ssd", ssd as Arc<dyn BlockDevice>, Ext4Profile::default()));
    let dimm = Arc::new(NvDimm::new(cfg.required_nvmm_bytes(), NvmmProfile::instant()));
    let cache = mount(NvRegion::whole(dimm), Arc::clone(&inner), cfg, Mount::Format, &clock)
        .expect("format");
    // Writes 1 MiB apart (beyond the drive's sequential window), as in
    // Fig. 5's post-saturation regime. An O_DIRECT inner file sends each
    // propagation write to the SSD from the ring; a buffered one sends them
    // from the barrier's writeback.
    let mut flags = OpenFlags::RDWR | OpenFlags::CREATE;
    if direct {
        flags |= OpenFlags::DIRECT;
    }
    let fd = cache.open("/qd", flags, &clock).unwrap();
    for i in 0..256u64 {
        cache.pwrite(fd, &[(i % 251) as u8; 4096], i << 20, &clock).unwrap();
    }
    cache.flush_log(&clock);
    let elapsed = clock.now();
    let propagated = cache.stats().snapshot().entries_propagated;
    let ifd = inner.open("/qd", OpenFlags::RDONLY, &clock).unwrap();
    let mut sample = vec![0u8; 4096];
    inner.pread(ifd, &mut sample, 77u64 << 20, &clock).unwrap();
    cache.shutdown(&clock);
    (elapsed, propagated, sample)
}

#[test]
fn queue_depth_overlap_beats_the_synchronous_drain() {
    // The acceptance bar: with log_shards=4, a fig5-style workload drains
    // measurably faster at queue_depth=8 than at queue_depth=1, without
    // changing what reaches the inner file system.
    let serial_floor = blockdev::SsdProfile::s4600().rand_write_4k * 256;
    let (qd1, prop1, sample1) = sharded_drain_elapsed(1, 1, true);
    let (qd8, prop8, sample8) = sharded_drain_elapsed(8, 8, true);
    assert_eq!(prop1, 256);
    assert_eq!(prop8, 256);
    assert_eq!(sample1, sample8, "queue depth must not change drained content");
    // queue_depth=1 pays the full serial device time (the PR 1 synchronous
    // behavior)…
    assert!(qd1 >= serial_floor, "qd1 drained in {qd1}, below the serial floor {serial_floor}");
    // …while queue_depth=8 overlaps it away — at least 2x end to end (the
    // device-time portion alone shrinks ~8x).
    assert!(qd8 * 2 < qd1, "expected ≥2x speedup from overlap: qd8 {qd8} vs qd1 {qd1}");
}

#[test]
fn buffered_drain_overlaps_in_the_barrier_writeback() {
    // The buffered twin: the ring's writes end in Ext4's page cache, so the
    // SSD sees the batch at the barrier — whose writeback keeps as many
    // requests in flight as the device has channels, whatever the ring.
    let serial_floor = blockdev::SsdProfile::s4600().rand_write_4k * 256;
    let (one, prop1, sample1) = sharded_drain_elapsed(8, 1, false);
    let (eight, prop8, sample8) = sharded_drain_elapsed(8, 8, false);
    assert_eq!((prop1, prop8), (256, 256));
    assert_eq!(sample1, sample8, "the device's channels must not change drained content");
    assert!(one >= serial_floor, "one channel drained in {one}, below {serial_floor}");
    assert!(eight * 2 < one, "expected ≥2x from 8 channels: {eight} vs {one}");
    let (unringed, ..) = sharded_drain_elapsed(1, 8, false);
    assert!(unringed * 2 < one, "the overlap is the device's, not the ring's: {unringed}");
}

#[test]
fn queue_depth_one_oracle_matches_serial_propagation_order_and_content() {
    // Behavioral oracle for the qd=1 degenerate mode: the drained inner
    // content and propagation counters match the synchronous single-shard
    // reference exactly (the *temporal* equivalence is pinned down by
    // fiosim's qd1 ring oracles).
    let run = |qd: usize| {
        let cfg = NvCacheConfig::tiny().with_queue_depth(qd);
        let (c, _d, inner, cache) = setup(cfg);
        let fd = cache.open("/oracle", OpenFlags::RDWR | OpenFlags::CREATE, &c).unwrap();
        for i in 0..24u64 {
            cache.pwrite(fd, &[i as u8 + 1; 2048], (i % 6) * 2048, &c).unwrap();
        }
        cache.flush_log(&c);
        let snap = cache.stats().snapshot();
        let ifd = inner.open("/oracle", OpenFlags::RDONLY, &c).unwrap();
        let mut content = vec![0u8; 6 * 2048];
        inner.pread(ifd, &mut content, 0, &c).unwrap();
        cache.shutdown(&c);
        (content, snap.entries_propagated, snap.cleanup_fsyncs)
    };
    let (content_qd1, prop_qd1, _) = run(1);
    let (content_qd8, prop_qd8, _) = run(8);
    assert_eq!(content_qd1, content_qd8);
    assert_eq!(prop_qd1, prop_qd8);
    assert_eq!(prop_qd1, 24);
}

#[test]
fn uring_counters_expose_the_overlap() {
    let cfg = NvCacheConfig { nb_entries: 128, ..NvCacheConfig::tiny() }
        .with_batching(16, 64)
        .with_queue_depth(8);
    let (c, _d, _i, cache) = setup(cfg);
    let fd = cache.open("/counters", OpenFlags::RDWR | OpenFlags::CREATE, &c).unwrap();
    for i in 0..32u64 {
        cache.pwrite(fd, &[1u8; 4096], i * 4096, &c).unwrap();
    }
    cache.flush_log(&c);
    let snap = cache.stats().snapshot();
    let shard = &snap.per_shard[0];
    // 32 writes + at least one fsync went through the ring, all were reaped…
    assert!(shard.uring_submitted >= 33, "submitted {}", shard.uring_submitted);
    assert_eq!(shard.uring_submitted, shard.uring_completed);
    // …and with batch_min=16 at depth 8 the ring actually overlapped.
    assert!(
        shard.uring_inflight_peak > 1,
        "expected overlap at depth 8, peak {}",
        shard.uring_inflight_peak
    );
    assert_eq!(snap.inner_io_errors, 0);
    cache.shutdown(&c);
}
