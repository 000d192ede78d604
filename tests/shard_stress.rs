//! Multi-threaded stress tests of the striped NVMM log: concurrent writers
//! whose byte ranges straddle page borders land in *different* stripes, and
//! the per-page propagation handoff between cleanup workers must still
//! deliver every page to the inner file system in commit order.

use std::sync::Arc;

use nvcache_repro::nvcache::{Mount, NvCache, NvCacheConfig};
use nvcache_repro::nvmm::{NvDimm, NvRegion, NvmmProfile};
use nvcache_repro::simclock::ActorClock;
use nvcache_repro::vfs::{FileSystem, IoError, MemFs, OpenFlags};

/// Under `pmcheck`, audit the mount's post-mortem registries: violations
/// panic at the offending site already, but an end-of-run sweep also
/// catches reports raised (and caught) on worker threads.
#[cfg(feature = "pmcheck")]
fn assert_checkers_clean(cache: &NvCache) {
    assert!(cache.pm_violations().is_empty(), "{:?}", cache.pm_violations());
    assert!(cache.lock_order_violations().is_empty(), "{:?}", cache.lock_order_violations());
    assert!(cache.lock_order_edges() > 0, "lock-order recorder saw no acquisitions");
}
#[cfg(not(feature = "pmcheck"))]
fn assert_checkers_clean(_cache: &NvCache) {}

fn setup(shards: usize) -> (ActorClock, Arc<dyn FileSystem>, Arc<NvCache>) {
    setup_with_fd_slots(shards, 16)
}

fn setup_with_fd_slots(
    shards: usize,
    fd_slots: u32,
) -> (ActorClock, Arc<dyn FileSystem>, Arc<NvCache>) {
    let clock = ActorClock::new();
    let cfg = NvCacheConfig {
        nb_entries: 1024,
        read_cache_pages: 128,
        batch_min: 1,
        batch_max: 64,
        fd_slots,
        ..NvCacheConfig::default()
    }
    .with_log_shards(shards);
    let dimm = Arc::new(NvDimm::new(cfg.required_nvmm_bytes(), NvmmProfile::instant()));
    let inner: Arc<dyn FileSystem> = Arc::new(MemFs::new());
    let cache = Arc::new(
        NvCache::builder(NvRegion::whole(dimm))
            .backend(Arc::clone(&inner))
            .config(cfg)
            .mount(&clock)
            .expect("mount"),
    );
    (clock, inner, cache)
}

/// Writers collide on a small set of overlapping, page-straddling ranges.
/// After a full drain, the inner file system must agree byte-for-byte with
/// NVCache's own page-lock-ordered view — per-page write ordering held
/// across stripes.
fn hammer_overlapping_ranges(shards: usize, threads: u8, rounds: u64) {
    let (clock, inner, cache) = setup(shards);
    let fd = cache.open("/stress", OpenFlags::RDWR | OpenFlags::CREATE, &clock).unwrap();
    let mut handles = Vec::new();
    for t in 0..threads {
        let cache = Arc::clone(&cache);
        handles.push(std::thread::spawn(move || {
            let clock = ActorClock::new();
            for round in 0..rounds {
                // Unaligned offsets: every multi-page write straddles a page
                // border, so one page's entries come from several stripes.
                let off = (round % 4) * 2048;
                let len: usize = if t % 2 == 0 { 8192 } else { 3000 };
                let byte = 1u8.wrapping_add(t).wrapping_add((round as u8) << 4);
                cache.pwrite(fd, &vec![byte; len], off, &clock).unwrap();
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    cache.flush_log(&clock);
    assert_eq!(cache.pending_entries(), 0, "flush barrier must drain all stripes");

    let size = cache.fstat(fd, &clock).unwrap().size;
    let mut cache_view = vec![0u8; size as usize];
    cache.pread(fd, &mut cache_view, 0, &clock).unwrap();

    let ifd = inner.open("/stress", OpenFlags::RDONLY, &clock).unwrap();
    let mut inner_view = vec![0u8; size as usize];
    inner.pread(ifd, &mut inner_view, 0, &clock).unwrap();
    if let Some(pos) = cache_view.iter().zip(&inner_view).position(|(a, b)| a != b) {
        panic!(
            "per-page ordering broke with {shards} stripes: byte {pos} is {} in the \
             cache view but {} on the inner fs",
            cache_view[pos], inner_view[pos]
        );
    }
    assert_checkers_clean(&cache);
    cache.shutdown(&clock);
}

#[test]
fn per_page_ordering_survives_two_stripes() {
    hammer_overlapping_ranges(2, 4, 48);
}

#[test]
fn per_page_ordering_survives_eight_stripes() {
    hammer_overlapping_ranges(8, 6, 48);
}

#[test]
fn single_stripe_baseline_still_holds() {
    // The same stress on the seed-identical configuration: guards against
    // the oracle itself drifting.
    hammer_overlapping_ranges(1, 4, 48);
}

/// Disjoint per-thread pages across many stripes: all writes must be acked,
/// durable, and spread over more than one stripe.
#[test]
fn disjoint_writers_use_multiple_stripes() {
    let (clock, inner, cache) = setup(8);
    let fd = cache.open("/spread", OpenFlags::RDWR | OpenFlags::CREATE, &clock).unwrap();
    let mut handles = Vec::new();
    for t in 0..8u64 {
        let cache = Arc::clone(&cache);
        handles.push(std::thread::spawn(move || {
            let clock = ActorClock::new();
            for i in 0..32u64 {
                let page = t * 32 + i;
                cache.pwrite(fd, &[(t + 1) as u8; 4096], page * 4096, &clock).unwrap();
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    cache.flush_log(&clock);
    let snap = cache.stats().snapshot();
    assert_eq!(snap.per_shard.len(), 8);
    let used = snap.per_shard.iter().filter(|s| s.entries_logged > 0).count();
    assert!(used > 1, "expected traffic on several stripes: {:?}", snap.per_shard);
    assert_eq!(
        snap.per_shard.iter().map(|s| s.entries_propagated).sum::<u64>(),
        256,
        "every entry must be propagated exactly once"
    );
    let ifd = inner.open("/spread", OpenFlags::RDONLY, &clock).unwrap();
    for t in 0..8u64 {
        for i in 0..32u64 {
            let page = t * 32 + i;
            let mut buf = [0u8; 4096];
            inner.pread(ifd, &mut buf, page * 4096, &clock).unwrap();
            assert_eq!(buf[0], (t + 1) as u8, "inner page {page}");
        }
    }
    assert_checkers_clean(&cache);
    cache.shutdown(&clock);
}

/// ROADMAP 3b: as many slots as threads, each thread holding at most one
/// descriptor — the table is never full, so no `open` may say it is, even
/// when it arrives while another thread's `close` is between unlisting its
/// descriptor and releasing the slot (`sched-stress` yields there).
#[test]
fn open_never_finds_the_table_full_while_a_close_is_finishing() {
    const THREADS: u32 = 4;
    let (clock, _inner, cache) = setup_with_fd_slots(2, THREADS);
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let cache = Arc::clone(&cache);
            std::thread::spawn(move || {
                let clock = ActorClock::new();
                for round in 0..400u64 {
                    let path = format!("/churn/t{t}-{}", round % 7);
                    let fd = cache
                        .open(&path, OpenFlags::RDWR | OpenFlags::CREATE, &clock)
                        .unwrap_or_else(|e| panic!("thread {t} round {round}: {e}"));
                    // Every other descriptor closes with entries pending
                    // (a zombie), the rest finish on the spot.
                    if round % 2 == 0 {
                        cache.pwrite(fd, &[t as u8 + 1; 64], 64 * round, &clock).unwrap();
                    }
                    cache.close(fd, &clock).unwrap();
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    cache.flush_log(&clock);
    assert_checkers_clean(&cache);
    cache.shutdown(&clock);
}

/// Files dying under the workers' hands: four threads loop create →
/// page-straddling writes → close → unlink (every other one unlink → close)
/// while four stripes drain constantly (`batch_min` 1) and a fifth thread
/// keeps one long-lived file in step with a model. A worker of any stripe
/// may be inside the submit, or about to submit the batch's `fsync`, on the
/// very inner descriptor a burial releases (`sched-stress` yields inside that
/// window): a `BadFd` there would poison the stripe.
///
/// With `crash` everybody stops after `rounds` rounds and the mount is
/// aborted undrained: recovery must bring back the model of
/// the long-lived file and none of the dead ones.
fn journals_die_beside_a_long_lived_file(rounds: u64, crash: bool) {
    const CHURNERS: u64 = 4;
    const PAGE: u64 = 4096;
    let clock = ActorClock::new();
    let cfg = NvCacheConfig {
        nb_entries: 64,
        read_cache_pages: 16,
        batch_min: 1,
        batch_max: 32,
        fd_slots: 64,
        ..NvCacheConfig::default()
    }
    .with_log_shards(4);
    let dimm = Arc::new(NvDimm::new(cfg.required_nvmm_bytes(), NvmmProfile::instant()));
    let inner: Arc<dyn FileSystem> = Arc::new(MemFs::new());
    let cache = Arc::new(
        NvCache::builder(NvRegion::whole(Arc::clone(&dimm)))
            .backend(Arc::clone(&inner))
            .config(cfg.clone())
            .mount(&clock)
            .expect("mount"),
    );
    let create = OpenFlags::RDWR | OpenFlags::CREATE;
    let long_lived = cache.open("/db", create, &clock).unwrap();

    let churners: Vec<_> = (0..CHURNERS)
        .map(|t| {
            let cache = Arc::clone(&cache);
            std::thread::spawn(move || {
                let clock = ActorClock::new();
                for round in 0..rounds {
                    let path = format!("/journal-{t}-{}", round % 3);
                    let fd = cache
                        .open(&path, create, &clock)
                        .unwrap_or_else(|e| panic!("thread {t} round {round}: {e}"));
                    // Each write straddles a page border: its entries (and
                    // the pages' handoff queues) span stripes.
                    for w in 0..3 {
                        let off = (w + 1) * PAGE - 700 - 64 * t;
                        cache.pwrite(fd, &[t as u8 + 1; 1400], off, &clock).unwrap();
                    }
                    if (round + t) % 2 == 0 {
                        cache.close(fd, &clock).unwrap();
                        cache.unlink(&path, &clock).unwrap();
                    } else {
                        cache.unlink(&path, &clock).unwrap();
                        cache.pwrite(fd, &[0xEE; 100], 0, &clock).unwrap(); // nameless, alive
                        cache.close(fd, &clock).unwrap();
                    }
                }
            })
        })
        .collect();
    // The long-lived file, on this thread: one writer, so the model is exact.
    let mut model = vec![0u8; 8 * PAGE as usize];
    for round in 0..rounds {
        let off = (round % 7) * PAGE + PAGE - 300;
        let byte = round as u8 | 1;
        cache.pwrite(long_lived, &[byte; 600], off, &clock).unwrap();
        model[off as usize..off as usize + 600].fill(byte);
        if round % 16 == 5 {
            let mut page = vec![0u8; PAGE as usize];
            let p = (round % 8) * PAGE;
            cache.pread(long_lived, &mut page, p, &clock).unwrap();
            assert!(page == model[p as usize..][..PAGE as usize], "round {round}: page at {p}");
        }
    }
    for h in churners {
        h.join().unwrap();
    }

    if crash {
        cache.abort();
        assert_checkers_clean(&cache);
        drop(cache);
        let crashed = Arc::new(dimm.crash_and_restart());
        let recovered = NvCache::builder(NvRegion::whole(crashed))
            .backend(inner)
            .config(cfg)
            .mode(Mount::Recover)
            .mount(&clock)
            .expect("recovery");
        let report = recovered.recovery_report().expect("a recovering mount");
        assert_eq!((report.files_reopened, report.files_missing), (1, 0), "{report:?}");
        assert_eq!(recovered.list_dir("/", &clock).unwrap(), ["/db"], "no dead file came back");
        let fd = recovered.open("/db", OpenFlags::RDONLY, &clock).unwrap();
        let mut content = vec![0u8; model.len()];
        let n = recovered.pread(fd, &mut content, 0, &clock).unwrap();
        assert!(content[..n] == model[..n] && model[n..].iter().all(|&b| b == 0), "model differs");
        recovered.shutdown(&clock);
        return;
    }

    cache.flush_log(&clock);
    assert_eq!(cache.pending_entries(), 0);
    assert_eq!(cache.poisoned_stripes(), Vec::<usize>::new());
    let snap = cache.stats().snapshot();
    assert_eq!(snap.inner_io_errors, 0);
    assert_eq!(snap.entries_propagated, snap.entries_logged, "every entry consumed exactly once");
    let by_shard = |f: fn(&nvcache_repro::nvcache::ShardStatsSnapshot) -> u64| {
        snap.per_shard.iter().map(f).sum::<u64>()
    };
    assert_eq!(by_shard(|s| s.entries_elided), snap.entries_elided);
    // The log is small, so the workers stay close behind the writers: some
    // journal entries are written while their file lives, most are dropped.
    assert!(snap.entries_elided > 0 && snap.files_buried > 0, "{snap:?}");
    assert!(snap.entries_elided <= snap.entries_propagated - rounds, "{snap:?}");
    // No page of the long-lived file is left with a dirty count or a queued
    // handoff: with the log empty every miss is a clean one, and a write to
    // each page still drains.
    let mut content = vec![0u8; model.len()];
    for pass in 0..2 {
        let before = cache.stats().snapshot().dirty_misses;
        let n = cache.pread(long_lived, &mut content, 0, &clock).unwrap();
        assert!(content[..n] == model[..n], "pass {pass}: the long-lived file differs");
        assert!(model[n..].iter().all(|&b| b == 0), "pass {pass}: short by {}", model.len() - n);
        assert_eq!(cache.stats().snapshot().dirty_misses, before, "pass {pass}: stale dirty count");
        for page in 0..8 {
            cache.pwrite(long_lived, &[0xAB; 8], page * PAGE + 8, &clock).unwrap();
            model[(page * PAGE + 8) as usize..][..8].fill(0xAB);
        }
        cache.flush_log(&clock);
    }
    for t in 0..CHURNERS {
        for k in 0..3 {
            let gone = inner.stat(&format!("/journal-{t}-{k}"), &clock);
            assert!(matches!(gone, Err(IoError::NotFound(_))), "journal {t}-{k}: {gone:?}");
        }
    }
    assert_checkers_clean(&cache);
    cache.shutdown(&clock); // joins the workers: every zombie has finished
    assert_eq!(cache.fd_slot_usage(), (63, 1, 0), "only the long-lived descriptor is left");
    assert!(cache.poisoned_stripes().is_empty());
}

#[test]
fn dying_files_never_hand_a_worker_a_released_descriptor() {
    journals_die_beside_a_long_lived_file(600, false);
}

#[test]
fn a_crash_among_dying_files_recovers_the_survivor_and_no_dead_file() {
    // The crash falls after a different number of rounds each time.
    for rounds in [7, 33, 120] {
        journals_die_beside_a_long_lived_file(rounds, true);
    }
}
