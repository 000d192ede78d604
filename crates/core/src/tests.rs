//! End-to-end tests of the NVCache core over simulated substrates.

use std::sync::Arc;

use nvmm::{NvRegion, NvmmProfile};
use simclock::{ActorClock, SimTime};
use vfs::{CursorFile, FaultLayer, FileSystem, IoError, MemFs, OpenFlags, SeekFrom};

use crate as nvcache;
use crate::{Mount, NvCache, NvCacheConfig};

#[path = "../../bench/src/rig.rs"]
pub(crate) mod rig;

use rig::{parked, Below, Rig};

/// A mount over one `MemFs`, its clock and its inner file system.
fn setup(cfg: NvCacheConfig) -> (ActorClock, Arc<dyn FileSystem>, NvCache) {
    let (Rig { clock, below, .. }, cache) = Rig::new(cfg, Below::memfs(1));
    (clock, Arc::clone(&below.bases[0]), cache)
}

/// A 128-entry log with its cleanup workers parked: the tests flush
/// explicitly, so every comparison point is deterministic.
pub(crate) fn parked_128() -> NvCacheConfig {
    parked(NvCacheConfig { nb_entries: 128, ..NvCacheConfig::tiny() })
}

/// A single-backend (legacy) mount over `MemFs`, and the two-tier stack a
/// recovery brings that backend into: `/hot/*` on a new tier 1.
pub(crate) fn legacy_then_two_tiers(cfg: NvCacheConfig) -> (Rig, NvCache, Below) {
    let (rig, cache) = Rig::new(cfg, Below::memfs(1));
    let bases = vec![Arc::clone(&rig.below.bases[0]), Arc::new(MemFs::new()) as _];
    (rig, cache, Below { bases, ..Below::memfs(2) })
}

/// [`Below::memfs`] with `layer` on top.
fn memfs_under(layer: impl vfs::Layer + 'static) -> Below {
    Below { layers: vec![Arc::new(layer)], ..Below::memfs(1) }
}

#[test]
fn write_then_read_your_writes() {
    let (c, _, cache) = setup(NvCacheConfig::tiny());
    let fd = cache.open("/f", OpenFlags::RDWR | OpenFlags::CREATE, &c).unwrap();
    cache.pwrite(fd, b"read your writes", 0, &c).unwrap();
    let mut buf = [0u8; 16];
    assert_eq!(cache.pread(fd, &mut buf, 0, &c).unwrap(), 16);
    assert_eq!(&buf, b"read your writes");
    cache.shutdown(&c);
}

#[test]
fn writes_propagate_to_inner_fs() {
    let (c, inner, cache) = setup(NvCacheConfig::tiny());
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
    let (c, inner, cache) = setup(NvCacheConfig::tiny());
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
    let (c, _, cache) = setup(NvCacheConfig::tiny());
    let fd = cache.open("/s", OpenFlags::RDWR | OpenFlags::CREATE, &c).unwrap();
    cache.pwrite(fd, &[1u8; 4096], 0, &c).unwrap();
    let before = c.now();
    cache.fsync(fd, &c).unwrap();
    assert!(c.now() - before <= SimTime::from_micros(2), "fsync must be a no-op");
    cache.shutdown(&c);
}

#[test]
fn nvcache_size_is_authoritative_before_propagation() {
    let (c, inner, cache) =
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
    let cfg = parked(NvCacheConfig::tiny());
    let (c, inner, cache) = setup(cfg);
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
    let (c, _, cache) = setup(NvCacheConfig::tiny());
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
    let (c, inner, cache) = setup(NvCacheConfig::tiny());
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
    let cfg =
        parked(NvCacheConfig { read_cache_pages: 2, nb_entries: 256, ..NvCacheConfig::tiny() });
    let (c, _, cache) = setup(cfg);
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
/// never-loaded page: a dirty miss while A's entry is still committed in
/// the log and B's is not. The page's propagation queue holds C alone;
/// replaying A over the kernel copy that holds B is the stale read.
fn dirty_miss_after_partial_free(shards: usize, free_b: impl Fn(&crate::log::Stripe, u64)) {
    let cfg = parked(sharded_cfg(shards));
    let (c, inner, cache) = setup(cfg);
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
        let pages = shared.page_descs(&file, e.file_off, e.len as usize);
        let popped = crate::pagedesc::Queued { gseq: e.seq, stripe: stripe.index, seq };
        crate::cleanup::pop_entry(&shared.log, &file, &pages, popped);
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
    // first, outside the page locks, so a read can meet B's word cleared
    // and A's not yet. This is the log at that instant.
    dirty_miss_after_partial_free(1, |stripe, seq| {
        let commit = stripe.layout.entry(stripe.slot(seq)) + crate::layout::ENT_COMMIT;
        nvmm::PmemInts::write_u64(&stripe.region, commit, 0, &ActorClock::new());
    });
}

/// The cross-stripe handoff gives up at once when a blocking queue front
/// sits in a poisoned stripe — its worker is gone, so nothing pops it — and
/// keeps waiting on a front in a healthy stripe while another stripe is
/// poisoned. The fronts are queued by hand over an empty log, so no worker
/// runs a batch even under handoff pressure.
#[test]
fn a_poisoned_blocker_ends_the_handoff_and_a_healthy_one_does_not() {
    use crate::cleanup::{pop_entry, wait_for_handoff};
    use crate::pagedesc::Queued;
    use std::sync::atomic::Ordering;
    use std::time::{Duration, Instant};

    let cfg = parked(sharded_cfg(2));
    let (c, _, cache) = setup(cfg);
    let fd = cache.open("/handoff", OpenFlags::RDWR | OpenFlags::CREATE, &c).unwrap();
    let shared = &cache.shared;
    let log = &shared.log;
    let file = Arc::clone(&shared.opened_fd(fd).unwrap().file);
    let (healthy, poisoned) = (shared.page_descs(&file, 0, 1), shared.page_descs(&file, 4096, 1));
    // Each page: a blocking front, then the waiter's own entry 2.
    for (pages, stripe) in [(&healthy, 1), (&poisoned, 0)] {
        let page = &pages[0].1;
        page.enqueue_propagation(Queued { gseq: 1, stripe, seq: 0 }, &file.unpushed);
        page.enqueue_propagation(Queued { gseq: 2, stripe: 1 - stripe, seq: 0 }, &file.unpushed);
    }
    log.stripes[0].poison();

    // The front's stripe is poisoned: `false` at once, without parking. The
    // fastest of three calls is timed, so a preempted test thread does not
    // fail it.
    let fastest = (0..3)
        .map(|_| {
            let started = Instant::now();
            assert!(!wait_for_handoff(shared, &log.stripes[1], &poisoned, 2));
            started.elapsed()
        })
        .min()
        .unwrap();
    assert!(fastest < Duration::from_millis(32), "the handoff waited {fastest:?}");

    // The front's stripe is healthy: the wait parks on that stripe's signal
    // and ends when its worker's pop path pops the front.
    std::thread::scope(|s| {
        let waiter = s.spawn(|| wait_for_handoff(shared, &log.stripes[1], &healthy, 2));
        while log.handoff_waiters.load(Ordering::Acquire) == 0 {
            std::thread::yield_now();
        }
        std::thread::sleep(Duration::from_millis(10));
        assert!(!waiter.is_finished(), "a healthy front ended the handoff");
        pop_entry(log, &file, &healthy, Queued { gseq: 1, stripe: 1, seq: 0 });
        assert!(waiter.join().unwrap(), "the popped front must let the handoff through");
    });
    cache.abort();
}

/// Stripe 1's worker waits in the handoff for stripe 0's entry Y, parked on
/// stripe 0's signal, while stripe 0's worker is kept from popping Y (the
/// test holds Y's cleanup lock). Entry X of stripe 1 straddles pages P and
/// Q, and Y sits on Q before it. Once stripe 0's worker pops Y, it goes on
/// in one of two ways. With `next_on_p`, it goes to its entry Z on pages O
/// and P, written after X, and waits in a handoff on X: entering that
/// handoff signals every stripe. Without, it goes to its barrier, where
/// the test holds it: there, only the pop's own signal wakes stripe 1.
/// Either way X must get through. A watchdog turns a hang into a failure.
fn handoff_after_a_mid_batch_pop(next_on_p: bool) {
    use std::sync::atomic::Ordering;
    use std::time::{Duration, Instant};

    let cfg = parked(sharded_cfg(2));
    let (c, inner, cache) = setup(cfg);
    let fd = cache.open("/cross", OpenFlags::RDWR | OpenFlags::CREATE, &c).unwrap();
    let shared = &cache.shared;
    let file = Arc::clone(&shared.opened_fd(fd).unwrap().file);
    let stripe_of = |page: u64| shared.log.route(file.dev_ino, page * 4096).index;
    let p = (1..64u64)
        .find(|&p| (stripe_of(p - 1), stripe_of(p), stripe_of(p + 1)) == (0, 1, 0))
        .expect("some pages route 0, 1, 0");
    let (o_at, p_at, q_at) = ((p - 1) * 4096, p * 4096, (p + 1) * 4096);
    cache.pwrite(fd, &[0x11; 100], q_at + 1000, &c).unwrap(); // Y
    cache.pwrite(fd, &[0x22; 4096], p_at + 2048, &c).unwrap(); // X
    if next_on_p {
        cache.pwrite(fd, &[0x33; 4096], o_at + 3000, &c).unwrap(); // Z
    }
    let q_page = shared.page_descs(&file, q_at, 1);
    let held_y = q_page[0].1.lock_cleanup();
    shared.held_stripes.store(1, Ordering::Release);

    let (log, stats) = (&shared.log, &shared.stats.per_shard);
    let stripe_1 = &log.stripes[1];
    stripe_1
        .flush_target
        .store(stripe_1.head.load(Ordering::Acquire), Ordering::Release);
    stripe_1.signal.notify();
    let deadline = Instant::now() + Duration::from_secs(10);
    let until = |what: &str, done: &dyn Fn() -> bool| {
        while !done() {
            if Instant::now() > deadline {
                shared.held_stripes.store(0, Ordering::Release);
                cache.abort();
                panic!("next on P: {next_on_p}: hung waiting until {what}");
            }
            std::thread::yield_now();
        }
    };
    until("stripe 1 waits for Y", &|| log.handoff_waiters.load(Ordering::Acquire) > 0);
    // Time for stripe 1's worker to park and for stripe 0's to meet the
    // lock held on Q. The checks hold however the two threads run; the
    // sleep only makes it likely that stripe 1 parks before Y is popped,
    // which is the wakeup under test.
    std::thread::sleep(Duration::from_millis(20));
    assert_eq!(stats[1].entries_propagated.load(Ordering::Acquire), 0, "X went before Y");
    drop(held_y);
    until("X is consumed", &|| stats[1].entries_propagated.load(Ordering::Acquire) == 1);
    shared.held_stripes.store(0, Ordering::Release);
    cache.flush_log(&c);
    let ifd = inner.open("/cross", OpenFlags::RDONLY, &c).unwrap();
    let mut q = [0u8; 4096];
    inner.pread(ifd, &mut q, q_at, &c).unwrap();
    assert_eq!((q[1000], q[2047], q[2048]), (0x22, 0x22, 0), "X's bytes cover Y's on Q");
    let mut at_p = [0u8; 1];
    inner.pread(ifd, &mut at_p, p_at + 2100, &c).unwrap();
    assert_eq!(at_p[0], if next_on_p { 0x33 } else { 0x22 }, "on P, Z's bytes cover X's");
    cache.shutdown(&c);
}

#[test]
fn a_handoff_wakes_when_its_blocker_is_popped_mid_batch() {
    handoff_after_a_mid_batch_pop(true);
    handoff_after_a_mid_batch_pop(false);
}

#[test]
fn crash_before_propagation_recovers_all_acked_writes() {
    let cfg = parked_128();
    let (rig, cache) = Rig::new(cfg, Below::memfs(1));
    let clock = &rig.clock;
    let fd = cache.open("/crash", OpenFlags::RDWR | OpenFlags::CREATE, clock).unwrap();
    cache.pwrite(fd, b"first", 0, clock).unwrap();
    cache.pwrite(fd, b"second", 100, clock).unwrap();
    // Kill the process without draining; the power goes. NVMM keeps
    // flushed lines, the MemFs below keeps the (empty) file.
    rig.crash(&cache, 0);
    let recovered = rig.recover();
    let report = recovered.recovery_report().unwrap();
    assert_eq!(report.entries_replayed, 2);
    assert_eq!(report.files_reopened, 1);
    let fd2 = recovered.open("/crash", OpenFlags::RDONLY, clock).unwrap();
    let mut a = [0u8; 5];
    let mut b = [0u8; 6];
    recovered.pread(fd2, &mut a, 0, clock).unwrap();
    recovered.pread(fd2, &mut b, 100, clock).unwrap();
    assert_eq!(&a, b"first");
    assert_eq!(&b, b"second");
    recovered.shutdown(clock);
}

#[test]
fn torn_write_is_discarded_by_recovery() {
    // Simulate a crash where an entry was filled but its commit flag never
    // reached NVMM: hand-craft the torn entry in the region after the kill.
    use crate::layout::{Layout, ENTRY_HEADER_BYTES, ENT_FD, ENT_FILE_OFF, ENT_LEN};
    use nvmm::PmemInts;

    let cfg = parked(NvCacheConfig { nb_entries: 64, ..NvCacheConfig::tiny() });
    let (rig, cache) = Rig::new(cfg.clone(), Below::memfs(1));
    let clock = &rig.clock;
    let region = NvRegion::whole(rig.dimm());
    let fd = cache.open("/torn", OpenFlags::RDWR | OpenFlags::CREATE, clock).unwrap();
    cache.pwrite(fd, b"committed", 0, clock).unwrap();
    cache.abort();

    // Torn entry at slot 1: header + data flushed, commit word still 0.
    let lay = Layout::for_config(&cfg);
    let base = lay.entry(1);
    region.write_u32(base + ENT_FD, 0, clock);
    region.write_u32(base + ENT_LEN, 4, clock);
    region.write_u64(base + ENT_FILE_OFF, 512, clock);
    region.write(base + ENTRY_HEADER_BYTES, b"torn", clock);
    region.pwb(base, 128);
    region.pfence(clock);

    rig.power_cut(0);
    let recovered = rig.recover();
    let report = recovered.recovery_report().unwrap();
    assert_eq!(report.entries_replayed, 1, "only the committed entry replays");
    let fd2 = recovered.open("/torn", OpenFlags::RDONLY, clock).unwrap();
    let mut buf = [0u8; 9];
    recovered.pread(fd2, &mut buf, 0, clock).unwrap();
    assert_eq!(&buf, b"committed");
    // The torn data must not have been applied.
    assert_eq!(recovered.fstat(fd2, clock).unwrap().size, 9);
    recovered.shutdown(clock);
}

#[test]
fn concurrent_writers_to_disjoint_pages_are_all_durable() {
    let cfg = NvCacheConfig { nb_entries: 4096, read_cache_pages: 512, ..NvCacheConfig::tiny() };
    let (c, _, cache) = setup(cfg);
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
    let (c, _, cache) = setup(cfg);
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
    let (c, _, cache) = setup(cfg);
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
    let cfg = parked_128();
    let (c, inner, cache) = setup(cfg);
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
        let (c, _, cache) = setup(NvCacheConfig::tiny());
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
    let (c, _, cache) = setup(NvCacheConfig::tiny());
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
    let cfg = parked_128();
    let (rig, cache) = Rig::new(cfg, Below::memfs(1));
    let clock = &rig.clock;
    let keep = cache.open("/keep", OpenFlags::RDWR | OpenFlags::CREATE, clock).unwrap();
    cache.pwrite(keep, b"kept", 0, clock).unwrap();
    let gone = cache.open("/gone", OpenFlags::RDWR | OpenFlags::CREATE, clock).unwrap();
    cache.pwrite(gone, b"doomed", 0, clock).unwrap();
    cache.unlink("/gone", clock).unwrap();
    rig.crash(&cache, 0);
    let recovered = rig.recover();
    let report = recovered.recovery_report().unwrap();
    assert_eq!(
        report.files_missing, 0,
        "unlinked through the mount: its slot was invalidated at the unlink, so recovery has \
         no path to miss (missing = removed behind the mount's back)"
    );
    assert_eq!((report.entries_replayed, report.entries_skipped), (1, 1), "kept, doomed");
    assert!(
        matches!(recovered.stat("/gone", clock), Err(IoError::NotFound(_))),
        "recovery must not resurrect an unlinked file"
    );
    let fd = recovered.open("/keep", OpenFlags::RDONLY, clock).unwrap();
    let mut buf = [0u8; 4];
    recovered.pread(fd, &mut buf, 0, clock).unwrap();
    assert_eq!(&buf, b"kept");
    recovered.shutdown(clock);
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
        let cfg = parked_128();
        let (rig, cache) = Rig::new(cfg, Below::memfs(1));
        let clock = &rig.clock;
        let create = OpenFlags::RDWR | OpenFlags::CREATE;
        let old = cache.open("/db-journal", create, clock).unwrap();
        cache.pwrite(old, b"OLDHEADEROLDHEAD", 0, clock).unwrap();
        cache.pwrite(old, b"old-record", 100, clock).unwrap();
        if death == Death::CloseThenUnlink {
            cache.close(old, clock).unwrap();
        }
        cache.unlink("/db-journal", clock).unwrap();
        if death == Death::UnlinkThenClose {
            cache.close(old, clock).unwrap();
        }
        let new = cache.open("/db-journal", create, clock).unwrap();
        cache.pwrite(new, b"new", 16, clock).unwrap();
        if death == Death::UnlinkStillOpen {
            cache.pwrite(old, b"late", 200, clock).unwrap();
        }
        assert_eq!(cache.stats().snapshot().entries_propagated, 0, "{death:?}: drain is parked");
        rig.crash(&cache, 0);
        let recovered = rig.recover();
        let report = recovered.recovery_report().unwrap();
        assert_eq!((report.files_reopened, report.files_missing), (1, 0), "{death:?}");
        assert_eq!(report.entries_replayed, 1, "{death:?}: only the new file's write");
        let fd = recovered.open("/db-journal", OpenFlags::RDONLY, clock).unwrap();
        let mut content = vec![0xFF; 256];
        let n = recovered.pread(fd, &mut content, 0, clock).unwrap();
        let mut expect = vec![0u8; 16];
        expect.extend_from_slice(b"new");
        assert_eq!(&content[..n], &expect[..], "{death:?}: the successor holds its own bytes");
        recovered.shutdown(clock);
    }
}

#[test]
fn double_close_and_bad_fd() {
    let (c, _, cache) = setup(NvCacheConfig::tiny());
    let fd = cache.open("/dc", OpenFlags::RDWR | OpenFlags::CREATE, &c).unwrap();
    cache.close(fd, &c).unwrap();
    assert!(matches!(cache.close(fd, &c), Err(IoError::BadFd(_))));
    let mut buf = [0u8; 1];
    assert!(matches!(cache.pread(fd, &mut buf, 0, &c), Err(IoError::BadFd(_))));
    cache.shutdown(&c);
}

#[test]
fn posix_conformance_through_nvcache() {
    let (c, _, cache) = setup(NvCacheConfig::tiny());
    vfs::check_posix_semantics(&cache);
    cache.shutdown(&c);
}

#[test]
fn guarantees_are_reported() {
    let (c, _, cache) = setup(NvCacheConfig::tiny());
    assert!(cache.synchronous_durability());
    assert!(cache.durable_linearizability());
    assert!(cache.name().starts_with("nvcache+"));
    cache.shutdown(&c);
}

#[test]
fn write_latency_is_single_digit_microseconds() {
    // With the Optane profile, a 4 KiB synchronous write should cost ≈6-8µs
    // (the paper's ~550 MiB/s single-thread log bandwidth).
    let optane = Below { nvmm: NvmmProfile::optane(), ..Below::memfs(1) };
    let (Rig { clock, .. }, cache) = Rig::new(NvCacheConfig::tiny(), optane);
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
    let (c, _, cache) = setup(cfg);
    let _a = cache.open("/1", OpenFlags::RDWR | OpenFlags::CREATE, &c).unwrap();
    let _b = cache.open("/2", OpenFlags::RDWR | OpenFlags::CREATE, &c).unwrap();
    assert!(cache.open("/3", OpenFlags::RDWR | OpenFlags::CREATE, &c).is_err());
    cache.shutdown(&c);
}

/// `close` first runs the armed hook — on the thread that is inside
/// `Shared::finish_close` at that moment, its descriptor gone from every
/// table and its slot not yet released.
#[derive(Default)]
struct CloseHook(parking_lot::Mutex<Option<Box<dyn FnOnce() + Send>>>);

impl vfs::Hook for CloseHook {
    fn around<R>(
        &self,
        op: vfs::Op,
        _bytes: usize,
        _clock: &ActorClock,
        forward: impl FnOnce() -> vfs::IoResult<R>,
    ) -> vfs::IoResult<R> {
        if op == vfs::Op::Close {
            if let Some(hook) = self.0.lock().take() {
                hook();
            }
        }
        forward()
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
        let cfg = parked(NvCacheConfig { fd_slots: 1, ..NvCacheConfig::tiny() });
        let hooked = Arc::new(vfs::Hooked::new(CloseHook::default(), Arc::new(MemFs::new())));
        let (Rig { clock: c, .. }, cache) = Rig::new(cfg, Below::over(vec![hooked.clone()]));
        let cache = Arc::new(cache);
        let fd = cache.open("/a", OpenFlags::RDWR | OpenFlags::CREATE, &c).unwrap();
        if zombie {
            cache.pwrite(fd, b"pending", 0, &c).unwrap(); // parked: close defers
        }
        let seen = Arc::new(parking_lot::Mutex::new(None));
        *hooked.hook().0.lock() = Some(Box::new({
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

/// Polls `done` until it holds, for at most ten seconds of host time.
fn eventually(what: &str, done: impl Fn() -> bool) {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while !done() {
        assert!(std::time::Instant::now() < deadline, "never: {what}");
        std::thread::yield_now();
    }
}

/// A parked worker sleeps through commits that leave fewer than
/// `batch_min` entries pending: 99 of them cost no wakeup. The 100th wakes
/// it for a batch, with no flush asked for, and it parks again.
#[test]
fn a_parked_worker_wakes_once_per_batch_not_once_per_commit() {
    let cfg =
        NvCacheConfig { nb_entries: 256, batch_min: 100, batch_max: 100, ..NvCacheConfig::tiny() };
    let (c, _, cache) = setup(cfg);
    let shard = || cache.stats().snapshot().per_shard[0];
    eventually("the worker parks", || shard().idle_wakeups == 1);
    let fd = cache.open("/parked", OpenFlags::RDWR | OpenFlags::CREATE, &c).unwrap();
    for i in 0..99u64 {
        cache.pwrite(fd, &[i as u8; 8], i * 8, &c).unwrap();
        // Time for a woken worker to take its turn.
        for _ in 0..20 {
            std::thread::yield_now();
        }
    }
    assert_eq!(shard().cleanup_batches, 0);
    assert_eq!(shard().idle_wakeups, 1, "a commit below batch_min woke the parked worker");
    cache.pwrite(fd, &[99; 8], 99 * 8, &c).unwrap();
    eventually("the crossing commit runs a batch", || shard().cleanup_batches == 1);
    eventually("the worker parks again", || shard().idle_wakeups == 2);
    assert_eq!(shard().entries_propagated, 100);
    cache.shutdown(&c);
}

/// Zombies queue in close order, and the drain finishes them in that
/// order: the slots go back to the allocator's stack first to last, so the
/// next opens take them last to first.
#[test]
fn zombies_are_finished_in_close_order() {
    let cfg = parked(NvCacheConfig::tiny());
    let (c, _, cache) = setup(cfg);
    let create = OpenFlags::RDWR | OpenFlags::CREATE;
    let fds: Vec<_> = (0..3).map(|i| cache.open(&format!("/z{i}"), create, &c).unwrap()).collect();
    for &fd in &fds {
        cache.pwrite(fd, b"pending", 0, &c).unwrap();
        cache.close(fd, &c).unwrap();
    }
    let listed: Vec<u64> =
        cache.shared.zombies.lock().iter().map(|z| u64::from(z.opened.slot)).collect();
    assert_eq!(listed, fds.iter().map(|fd| fd.0).collect::<Vec<_>>(), "in close order");
    cache.flush_log(&c);
    eventually("the drain finishes every zombie", || cache.shared.out_of_descriptors());
    let reopened: Vec<_> =
        (0..3).map(|i| cache.open(&format!("/r{i}"), create, &c).unwrap().0).collect();
    let released_first_to_last: Vec<_> = fds.iter().rev().map(|fd| fd.0).collect();
    assert_eq!(reopened, released_first_to_last);
    cache.shutdown(&c);
}

/// A `close` that races the batch draining its own write, on a log with
/// nothing else to drain, strands no zombie: either it sees the drain and
/// finishes on the spot, or the drain after the batch's `free_range` sees
/// it. Its slot comes back with no further write or flush.
#[test]
fn a_close_racing_its_batch_strands_no_zombie() {
    let cfg = NvCacheConfig { fd_slots: 2, ..NvCacheConfig::tiny() };
    let (c, _, cache) = setup(cfg);
    for round in 0..300u64 {
        let fd = cache.open("/race", OpenFlags::RDWR | OpenFlags::CREATE, &c).unwrap();
        cache.pwrite(fd, &round.to_le_bytes(), 0, &c).unwrap();
        cache.close(fd, &c).unwrap();
        eventually(&format!("round {round}: the slot comes back"), || {
            cache.fd_slot_usage() == (2, 0, 0)
        });
    }
    cache.shutdown(&c);
}

/// A poisoned stripe never drains, so its zombies stay listed, and so does
/// every zombie closed after the poisoning: their snapshots are above the
/// stuck tail.
#[test]
fn a_poisoned_stripe_pins_every_later_zombie() {
    let below = memfs_under(FaultLayer::failing_pwrites(0));
    let (Rig { clock, .. }, cache) = Rig::new(parked(NvCacheConfig::tiny()), below);
    let create = OpenFlags::RDWR | OpenFlags::CREATE;
    let mut closed = Vec::new();
    for path in ["/a", "/b"] {
        let fd = cache.open(path, create, &clock).unwrap();
        cache.pwrite(fd, b"stuck", 0, &clock).unwrap();
        cache.close(fd, &clock).unwrap();
        closed.push(fd.0);
    }
    cache.flush_log(&clock);
    wait_for_poison(&cache);
    let later = cache.open("/c", create, &clock).unwrap();
    cache.close(later, &clock).unwrap();
    closed.push(later.0);
    cache.shared.drain_zombies(&clock);
    let listed: Vec<u64> =
        cache.shared.zombies.lock().iter().map(|z| u64::from(z.opened.slot)).collect();
    assert_eq!(listed, closed, "every zombie stays listed, in close order");
    assert!(!cache.shared.out_of_descriptors());
    cache.shutdown(&clock);
}

/// An `open` that finds the table empty drains the log once and takes a
/// slot a zombie gave back; with every slot held by an open descriptor it
/// fails cleanly, and the table reads as out of descriptors.
#[test]
fn the_open_slow_path_reaps_zombies_and_a_full_table_fails() {
    let cfg = parked(NvCacheConfig { fd_slots: 2, ..NvCacheConfig::tiny() });
    let (c, _, cache) = setup(cfg);
    let create = OpenFlags::RDWR | OpenFlags::CREATE;
    for path in ["/a", "/b"] {
        let fd = cache.open(path, create, &c).unwrap();
        cache.pwrite(fd, b"pending", 0, &c).unwrap();
        cache.close(fd, &c).unwrap();
    }
    assert_eq!(cache.fd_slot_usage(), (0, 2, 2), "both closes were deferred");
    assert!(!cache.shared.out_of_descriptors(), "zombies can give slots back");
    let held = [cache.open("/c", create, &c).unwrap(), cache.open("/d", create, &c).unwrap()];
    assert_eq!(cache.stats().snapshot().fd_slot_waits, 1, "one drain reaped both");
    assert_eq!(cache.fd_slot_usage(), (0, 2, 0));
    let full = cache.open("/e", create, &c);
    assert!(matches!(&full, Err(IoError::Other(m)) if m.contains("fd table is full")), "{full:?}");
    assert_eq!(cache.stats().snapshot().fd_slot_waits, 2);
    assert!(cache.shared.out_of_descriptors());
    for fd in held {
        cache.close(fd, &c).unwrap();
    }
    cache.shutdown(&c);
}

#[test]
fn recovery_is_idempotent() {
    let cfg = parked(NvCacheConfig { nb_entries: 64, ..NvCacheConfig::tiny() });
    let (rig, cache) = Rig::new(cfg, Below::memfs(1));
    let clock = &rig.clock;
    let fd = cache.open("/idem", OpenFlags::RDWR | OpenFlags::CREATE, clock).unwrap();
    cache.pwrite(fd, b"once", 0, clock).unwrap();
    rig.crash(&cache, 0);
    let first = rig.recover();
    let r1 = first.recovery_report().unwrap();
    assert_eq!(r1.entries_replayed, 1);
    first.abort();
    // Second recovery over the emptied log: nothing to do, content intact.
    let second = rig.recover();
    let r2 = second.recovery_report().unwrap();
    assert_eq!(r2.entries_replayed, 0);
    let fd2 = second.open("/idem", OpenFlags::RDONLY, clock).unwrap();
    let mut buf = [0u8; 4];
    second.pread(fd2, &mut buf, 0, clock).unwrap();
    assert_eq!(&buf, b"once");
    second.shutdown(clock);
}

fn sharded_cfg(shards: usize) -> NvCacheConfig {
    NvCacheConfig { nb_entries: 256, fd_slots: 8, ..NvCacheConfig::tiny() }.with_log_shards(shards)
}

#[test]
fn sharded_log_round_trips_and_propagates() {
    let (c, inner, cache) = setup(sharded_cfg(4));
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
    let cfg = parked(sharded_cfg(4));
    let (rig, cache) = Rig::new(cfg, Below::memfs(1));
    let clock = &rig.clock;
    let fd = cache.open("/merge", OpenFlags::RDWR | OpenFlags::CREATE, clock).unwrap();
    // A 2-page write starting at chunk 0, then single-page overwrites of
    // both halves starting at chunks 0 and 1 — three different routes, one
    // byte range.
    cache.pwrite(fd, &[0xAA; 8192], 0, clock).unwrap();
    cache.pwrite(fd, &[0xBB; 4096], 0, clock).unwrap();
    cache.pwrite(fd, &[0xCC; 4096], 4096, clock).unwrap();
    cache.pwrite(fd, &[0xDD; 100], 2000, clock).unwrap();
    rig.crash(&cache, 0);
    let recovered = rig.recover();
    let report = recovered.recovery_report().unwrap();
    assert_eq!(report.entries_replayed, 5, "2 + 1 + 1 + 1 entries");
    let fd2 = recovered.open("/merge", OpenFlags::RDONLY, clock).unwrap();
    let mut buf = vec![0u8; 8192];
    recovered.pread(fd2, &mut buf, 0, clock).unwrap();
    let mut expect = vec![0xAA; 8192];
    expect[..4096].fill(0xBB);
    expect[4096..].fill(0xCC);
    expect[2000..2100].fill(0xDD);
    assert_eq!(buf, expect, "merge-replay must honour global commit order");
    recovered.shutdown(clock);
}

#[test]
fn sharded_recovery_requires_matching_shard_count() {
    let (mut rig, cache) = Rig::new(sharded_cfg(4), Below::memfs(1));
    rig.crash(&cache, 0);
    rig.cfg.log_shards = 2;
    let res = rig.mount(Mount::Recover);
    assert!(matches!(res, Err(IoError::InvalidArgument(_))));
}

#[test]
fn concurrent_writers_spread_over_stripes_stay_durable() {
    let cfg = NvCacheConfig { nb_entries: 4096, read_cache_pages: 512, ..NvCacheConfig::tiny() }
        .with_log_shards(8);
    let (c, inner, cache) = setup(cfg);
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
    let (c, inner, cache) = setup(cfg);
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
    let (mut rig, first) = Rig::new(sharded, Below::memfs(1));
    first.shutdown(&rig.clock);
    // Reuse the region as a plain single-stripe log.
    rig.cfg.log_shards = 1;
    let second = rig.mount(Mount::Format).unwrap();
    let clock = &rig.clock;
    let fd = second.open("/reuse", OpenFlags::RDWR | OpenFlags::CREATE, clock).unwrap();
    second.pwrite(fd, b"still recoverable", 0, clock).unwrap();
    rig.crash(&second, 0);
    let recovered = rig.mount(Mount::Recover).expect("stale shard word must not block recovery");
    let report = recovered.recovery_report().unwrap();
    assert_eq!(report.entries_replayed, 1);
    recovered.shutdown(clock);
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
    let (c, inner, cache) = setup(cfg);
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

/// `Mount::Recover` over a DIMM no mount ever formatted.
fn recover_unformatted() -> vfs::IoResult<NvCache> {
    let cfg = NvCacheConfig::tiny();
    let dimm = Arc::new(nvmm::NvDimm::new(cfg.required_nvmm_bytes(), NvmmProfile::instant()));
    NvCache::builder(NvRegion::whole(dimm))
        .backend(Arc::new(MemFs::new()))
        .config(cfg)
        .mode(Mount::Recover)
        .mount(&ActorClock::new())
}

#[test]
fn recover_rejects_unformatted_region() {
    assert!(matches!(recover_unformatted(), Err(IoError::InvalidArgument(_))));
}

/// The magic is checked before any geometry word: a never-formatted region
/// is named as such, not as a configuration mismatch.
#[test]
fn recovering_a_never_formatted_region_names_the_cause() {
    let err = recover_unformatted().err();
    let expected = "NVMM region is not a formatted NVCache log";
    assert!(matches!(&err, Some(IoError::InvalidArgument(why)) if why == expected), "{err:?}");
}

/// An image under another format's magic is refused by the magic's name,
/// not by a geometry word it may lay out differently.
#[test]
fn recovering_an_image_of_another_format_names_the_format() {
    let (rig, cache) = Rig::new(NvCacheConfig::tiny(), Below::memfs(1));
    let fd = cache.open("/old", OpenFlags::RDWR | OpenFlags::CREATE, &rig.clock).unwrap();
    cache.pwrite(fd, b"pending", 0, &rig.clock).unwrap();
    rig.crash(&cache, 0);
    let region = NvRegion::whole(rig.dimm());
    region.write_and_pwb(crate::layout::OFF_MAGIC, b"NVCACHE1", &rig.clock);
    region.psync(&rig.clock);
    let err = rig.mount(Mount::Recover).err();
    let expected = "NVMM region holds an NVCACHE1 image; this build reads NVCACHE2 only";
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
    // Every cleanup pwrite fails.
    let below = memfs_under(FaultLayer::failing_pwrites(0));
    let (Rig { clock, .. }, cache) = Rig::new(NvCacheConfig::tiny(), below);
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
    let (mut rig, cache) = Rig::new(cfg, memfs_under(FaultLayer::failing_pwrites(3)));
    let clock = &rig.clock;
    let fd = cache.open("/midbatch", OpenFlags::RDWR | OpenFlags::CREATE, clock).unwrap();
    for i in 0..8u64 {
        cache.pwrite(fd, &[i as u8 + 1; 4096], i * 4096, clock).unwrap();
    }
    wait_for_poison(&cache);
    // The persistent tail never moved: a crash now loses nothing.
    let region = NvRegion::whole(rig.dimm());
    let tail = crate::layout::OFF_STRIPE_TAILS;
    assert_eq!(region.read_u64(tail), 0, "tail advanced past a failed batch");

    // Crash, then recover against the (healthy) underlying file system.
    rig.crash(&cache, 0);
    rig.below.layers.clear();
    let recovered = rig.recover();
    let report = recovered.recovery_report().unwrap();
    assert_eq!(report.entries_replayed, 8, "every entry of the failed batch must replay");
    let mut buf = [0u8; 4096];
    let rfd = recovered.open("/midbatch", OpenFlags::RDONLY, clock).unwrap();
    for i in 0..8u64 {
        recovered.pread(rfd, &mut buf, i * 4096, clock).unwrap();
        assert_eq!(buf[0], i as u8 + 1, "entry {i} content after replay");
    }
    recovered.shutdown(clock);
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
    use blockdev::{SsdDevice, SsdProfile};
    // batch_min above the workload size parks the backlog until the flush
    // barrier, so each stripe drains in one large batch (one fsync) and the
    // measurement isolates the device overlap instead of per-batch flushes.
    let cfg = NvCacheConfig { nb_entries: 512, fd_slots: 16, ..NvCacheConfig::tiny() }
        .with_log_shards(4)
        .with_batching(1_000, 1_000)
        .with_queue_depth(queue_depth);
    let ssd = SsdDevice::new(SsdProfile::s4600().with_queue_depth(ssd_channels));
    let below = Below::over(vec![rig::ext4_on(Arc::new(ssd))]);
    let (Rig { clock, below, .. }, cache) = Rig::new(cfg, below);
    let inner = &below.bases[0];
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
        let (c, inner, cache) = setup(cfg);
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
    let (c, _, cache) = setup(cfg);
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
