//! Catalog churn stress: multi-threaded close/reopen churn over ~10^5
//! distinct paths against a *small* bounded migrator catalog while a
//! sweeper thread re-homes misplaced files underneath with back-to-back
//! `rebalance` calls. The run must finish (no deadlock between closes, the
//! catalog lock and the sweeps), keep the resident set within
//! `capacity + pinned`, and lose **zero** misplaced files to eviction —
//! every file parked on the wrong tier is back on its routed tier after the
//! final sweep.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use nvcache_repro::nvcache::{MigrationPolicy, NvCache, NvCacheConfig, PathPrefixRouter, Tiering};
use nvcache_repro::nvmm::{NvDimm, NvRegion, NvmmProfile};
use nvcache_repro::simclock::ActorClock;
use nvcache_repro::vfs::{FileSystem, MemFs, OpenFlags};

/// Distinct churned paths: enough to roll the 512-entry catalog hundreds
/// of times over. Scaled down under `cfg(debug_assertions)` so the
/// unoptimized build stays in CI budget.
const PATHS: usize = if cfg!(debug_assertions) { 20_000 } else { 100_000 };
const CHURN_THREADS: usize = 6;
const CAPACITY: usize = 512;
/// Files deliberately moved to the wrong tier while the churn runs.
const MISPLACED: usize = 128;

/// Under `pmcheck`, audit the mount's post-mortem registries: lock-order
/// violations raised (and caught) on worker threads must surface here.
#[cfg(feature = "pmcheck")]
fn assert_checkers_clean(cache: &NvCache) {
    assert!(cache.pm_violations().is_empty(), "{:?}", cache.pm_violations());
    assert!(cache.lock_order_violations().is_empty(), "{:?}", cache.lock_order_violations());
    assert!(cache.lock_order_edges() > 0, "lock-order recorder saw no acquisitions");
}
#[cfg(not(feature = "pmcheck"))]
fn assert_checkers_clean(_cache: &NvCache) {}

fn churn_path(i: usize) -> String {
    // Half the namespace routes to the fast tier, half to the baseline,
    // so the catalog holds a mix of both placements.
    if i.is_multiple_of(2) {
        format!("/hot/churn/f{i}")
    } else {
        format!("/bulk/churn/f{i}")
    }
}

#[test]
fn bounded_catalog_survives_multithreaded_churn_without_losing_misplaced_files() {
    let clock = ActorClock::new();
    let cfg = NvCacheConfig {
        nb_entries: 1024,
        read_cache_pages: 128,
        batch_min: 1,
        batch_max: 64,
        fd_slots: 64,
        ..NvCacheConfig::default()
    };
    let dimm = Arc::new(NvDimm::new(cfg.required_nvmm_bytes(), NvmmProfile::instant()));
    let tier0: Arc<dyn FileSystem> = Arc::new(MemFs::new());
    let tier1: Arc<dyn FileSystem> = Arc::new(MemFs::new());
    let router = Arc::new(PathPrefixRouter::new(vec![("/hot".into(), 1)], 0));
    let cache = Arc::new(
        NvCache::builder(NvRegion::whole(dimm))
            .tiers(
                Tiering::new(router, vec![Arc::clone(&tier0), Arc::clone(&tier1)])
                    .migration(MigrationPolicy::OnDemand)
                    .catalog_capacity(CAPACITY),
            )
            .config(cfg)
            .mount(&clock)
            .expect("tiered mount"),
    );

    // Seed the victim set on its routed tier (0) before the storm starts.
    for i in 0..MISPLACED {
        let path = format!("/mis/f{i}");
        let fd = cache.open(&path, OpenFlags::RDWR | OpenFlags::CREATE, &clock).unwrap();
        cache.pwrite(fd, &[i as u8; 64], 0, &clock).unwrap();
        cache.close(fd, &clock).unwrap();
    }
    cache.flush_log(&clock);

    let mut handles = Vec::new();
    for t in 0..CHURN_THREADS {
        let cache = Arc::clone(&cache);
        handles.push(std::thread::spawn(move || {
            let clock = ActorClock::new();
            let mut buf = [0u8; 64];
            for i in (t..PATHS).step_by(CHURN_THREADS) {
                let path = churn_path(i);
                let fd = cache.open(&path, OpenFlags::RDWR | OpenFlags::CREATE, &clock).unwrap();
                cache.pwrite(fd, &[i as u8; 64], 0, &clock).unwrap();
                cache.close(fd, &clock).unwrap();
                // Reopen a recent neighbour: readmission traffic on paths
                // the clock hand may just have evicted.
                if i >= CHURN_THREADS {
                    let back = churn_path(i - CHURN_THREADS);
                    let fd = cache.open(&back, OpenFlags::RDONLY, &clock).unwrap();
                    cache.pread(fd, &mut buf, 0, &clock).unwrap();
                    cache.close(fd, &clock).unwrap();
                }
                // The memory bound, sampled under full contention: the
                // resident set may exceed capacity only by the pinned
                // (misplaced) population.
                if i % 1024 == 0 {
                    let resident = cache.catalog_resident();
                    assert!(
                        resident <= CAPACITY + MISPLACED,
                        "{resident} resident > capacity {CAPACITY} + pinned {MISPLACED}"
                    );
                }
            }
        }));
    }
    // One thread keeps shoving the victim set onto the wrong tier while
    // the sweeper pulls in the other direction. Races with an in-flight
    // re-home are expected — the move may bounce with EBUSY — but a *lost*
    // file is not.
    {
        let cache = Arc::clone(&cache);
        handles.push(std::thread::spawn(move || {
            let clock = ActorClock::new();
            for round in 0..4 {
                for i in 0..MISPLACED {
                    let path = format!("/mis/f{i}");
                    let _ = cache.migrate(&path, 1, &clock);
                    if (i + round) % 16 == 0 {
                        std::thread::yield_now();
                    }
                }
            }
        }));
    }
    // Live sweeps race the closes, the admissions and the wrong-way moves
    // on the bounded catalog until the churn is over.
    let done = Arc::new(AtomicBool::new(false));
    let sweeper = {
        let (cache, done) = (Arc::clone(&cache), Arc::clone(&done));
        std::thread::spawn(move || {
            let clock = ActorClock::new();
            loop {
                cache.rebalance(&clock).expect("live sweep");
                if done.load(Ordering::Acquire) {
                    break;
                }
            }
        })
    };
    for h in handles {
        h.join().unwrap();
    }
    done.store(true, Ordering::Release);
    sweeper.join().unwrap();

    cache.flush_log(&clock);
    assert_eq!(cache.pending_entries(), 0, "drain barrier left entries behind");
    // Final sweep: whatever the live sweeps had not re-homed yet
    // goes home now. Run twice — the first sweep may race the last
    // wrong-way migration's catalog stamp.
    cache.rebalance(&clock).expect("final sweep");
    cache.rebalance(&clock).expect("settling sweep");

    // Zero lost misplaced files: every victim is back on its routed tier,
    // with its bytes, and the wrong-tier copy is gone.
    for i in 0..MISPLACED {
        let path = format!("/mis/f{i}");
        assert!(tier0.stat(&path, &clock).is_ok(), "{path} lost from its routed tier");
        assert!(tier1.stat(&path, &clock).is_err(), "{path} stranded on the wrong tier");
        let fd = cache.open(&path, OpenFlags::RDONLY, &clock).unwrap();
        let mut buf = [0u8; 64];
        cache.pread(fd, &mut buf, 0, &clock).unwrap();
        assert_eq!(buf, [i as u8; 64], "{path} lost its payload in transit");
        cache.close(fd, &clock).unwrap();
    }
    // Churned files all exist on their routed tiers (spot-check the full
    // namespace through the merged view, cheap stats on the tiers).
    for i in (0..PATHS).step_by(PATHS / 100) {
        let path = churn_path(i);
        let tier: &Arc<dyn FileSystem> = if i.is_multiple_of(2) { &tier1 } else { &tier0 };
        assert!(tier.stat(&path, &clock).is_ok(), "churned file {path} missing");
    }

    let resident = cache.catalog_resident();
    assert!(resident <= CAPACITY + MISPLACED, "final resident {resident} exceeds the bound");
    let snap = cache.stats().snapshot();
    assert!(
        snap.catalog_evictions as usize >= PATHS - CAPACITY - MISPLACED,
        "the bound never engaged: only {} evictions over {PATHS} paths",
        snap.catalog_evictions
    );
    assert_checkers_clean(&cache);
    cache.shutdown(&clock);
}
