//! Multi-page reads racing writers and two cleanup workers on the same
//! pages: every read misses in runs (the read cache is smaller than the
//! file), rebuilds dirty pages from a log the workers are draining, and
//! must return, byte for byte, a version no older than what was
//! acknowledged before it began and no newer than what had been started
//! when it returned.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;

use nvcache_repro::nvcache::{NvCache, NvCacheConfig};
use nvcache_repro::nvmm::{NvDimm, NvRegion, NvmmProfile};
use nvcache_repro::simclock::ActorClock;
use nvcache_repro::vfs::{FileSystem, MemFs, OpenFlags};

const PAGE: usize = 4096;
const PAGES: usize = 8;
const ROUNDS: u8 = 120;

/// A byte range one writer owns: borders of two pages (writer 0) or the
/// middle of one (writer 1), so every page is written by both writers and
/// a border write's entry sits in another stripe than a middle write's.
/// Each write stamps its round into every byte, so a byte only grows.
struct Range {
    start: usize,
    end: usize,
    /// Round of the last write begun / acknowledged.
    started: AtomicU8,
    acked: AtomicU8,
}

fn ranges() -> Vec<(usize, Vec<Range>)> {
    let range = |start, end| Range { start, end, started: 0.into(), acked: 0.into() };
    let borders = (1..PAGES).map(|p| range(p * PAGE - 1000, p * PAGE + 1000)).collect();
    let middles = (0..PAGES).map(|p| range(p * PAGE + 1000, (p + 1) * PAGE - 1000)).collect();
    vec![(0, borders), (1, middles)]
}

/// Under `pmcheck`: no persistency or lock-order violation was recorded —
/// the read path holds every atomic lock of its pages, then each run's
/// cleanup locks ascending across the run's one inner `pread`.
#[cfg(feature = "pmcheck")]
fn assert_checkers_clean(cache: &NvCache) {
    assert!(cache.pm_violations().is_empty(), "{:?}", cache.pm_violations());
    assert!(cache.lock_order_violations().is_empty(), "{:?}", cache.lock_order_violations());
    assert!(cache.lock_order_edges() > 0, "lock-order recorder saw no acquisitions");
}
#[cfg(not(feature = "pmcheck"))]
fn assert_checkers_clean(_cache: &NvCache) {}

#[test]
fn multi_page_reads_beside_writers_and_two_workers_read_acknowledged_versions() {
    let clock = ActorClock::new();
    let cfg = NvCacheConfig {
        nb_entries: 64,
        read_cache_pages: 4,
        batch_min: 1,
        batch_max: 8,
        ..NvCacheConfig::default()
    }
    .with_log_shards(2);
    let dimm = Arc::new(NvDimm::new(cfg.required_nvmm_bytes(), NvmmProfile::instant()));
    let inner: Arc<dyn FileSystem> = Arc::new(MemFs::new());
    let cache = Arc::new(
        NvCache::builder(NvRegion::whole(dimm))
            .backend(Arc::clone(&inner))
            .config(cfg)
            .mount(&clock)
            .expect("mount"),
    );
    let fd = cache.open("/shared", OpenFlags::RDWR | OpenFlags::CREATE, &clock).unwrap();
    cache.pwrite(fd, &[0; PAGES * PAGE], 0, &clock).unwrap();
    let owners = Arc::new(ranges());

    let writers: Vec<_> = (0..owners.len())
        .map(|w| {
            let (cache, owners) = (Arc::clone(&cache), Arc::clone(&owners));
            std::thread::spawn(move || {
                let clock = ActorClock::new();
                for round in 1..=ROUNDS {
                    for r in &owners[w].1 {
                        r.started.store(round, Ordering::SeqCst);
                        let data = vec![round; r.end - r.start];
                        cache.pwrite(fd, &data, r.start as u64, &clock).unwrap();
                        r.acked.store(round, Ordering::SeqCst);
                    }
                }
            })
        })
        .collect();
    let readers: Vec<_> = (0..2u64)
        .map(|t| {
            let (cache, owners) = (Arc::clone(&cache), Arc::clone(&owners));
            std::thread::spawn(move || {
                let clock = ActorClock::new();
                let mut seed = 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(t + 1);
                let all = || owners.iter().flat_map(|(_, rs)| rs);
                for read in 0..400 {
                    seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    let len = (2 + (seed >> 60) as usize % 3) * PAGE - (seed >> 20) as usize % 500;
                    let off = (seed >> 33) as usize % (PAGES * PAGE - len);
                    let acked: Vec<u8> = all().map(|r| r.acked.load(Ordering::SeqCst)).collect();
                    let mut buf = vec![0u8; len];
                    assert_eq!(cache.pread(fd, &mut buf, off as u64, &clock).unwrap(), len);
                    let started: Vec<u8> =
                        all().map(|r| r.started.load(Ordering::SeqCst)).collect();
                    for (pos, &byte) in (off..).zip(&buf) {
                        let (lo, hi) = all()
                            .position(|r| (r.start..r.end).contains(&pos))
                            .map_or((0, 0), |i| (acked[i], started[i]));
                        assert!(
                            (lo..=hi).contains(&byte),
                            "reader {t}, read {read}: byte {pos} is {byte}, acknowledged \
                             {lo}, started {hi}"
                        );
                    }
                }
            })
        })
        .collect();
    for h in writers.into_iter().chain(readers) {
        h.join().unwrap();
    }

    cache.flush_log(&clock);
    let mut cached = vec![0u8; PAGES * PAGE];
    cache.pread(fd, &mut cached, 0, &clock).unwrap();
    let ifd = inner.open("/shared", OpenFlags::RDONLY, &clock).unwrap();
    let mut drained = vec![0u8; PAGES * PAGE];
    inner.pread(ifd, &mut drained, 0, &clock).unwrap();
    for (_, rs) in owners.iter() {
        for r in rs {
            assert!(cached[r.start..r.end].iter().all(|&b| b == ROUNDS), "{}", r.start);
        }
    }
    assert!(cached == drained, "the inner file system differs from the cache");
    let snap = cache.stats().snapshot();
    assert!(snap.read_misses > snap.read_miss_preads, "no read fetched a run: {snap:?}");
    // Pages moved between the read cache's FIFOs and left it while other
    // threads held them.
    assert!(snap.read_cache_promotions > 0 && snap.evictions > 0, "{snap:?}");
    assert_checkers_clean(&cache);
    cache.shutdown(&clock);
}
