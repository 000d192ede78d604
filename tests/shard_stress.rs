//! Multi-threaded stress tests of the striped NVMM log: concurrent writers
//! whose byte ranges straddle page borders land in *different* stripes, and
//! the per-page propagation handoff between cleanup workers must still
//! deliver every page to the inner file system in commit order.

use std::sync::Arc;

use nvcache_repro::nvcache::{NvCache, NvCacheConfig};
use nvcache_repro::nvmm::{NvDimm, NvRegion, NvmmProfile};
use nvcache_repro::simclock::ActorClock;
use nvcache_repro::vfs::{FileSystem, MemFs, OpenFlags};

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
