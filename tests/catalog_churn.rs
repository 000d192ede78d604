//! Catalog churn stress: multi-threaded close/reopen churn over ~10^5
//! distinct paths through the migrator catalog while a sweeper thread
//! re-homes misplaced files underneath with back-to-back `rebalance` calls.
//! The run must finish (no deadlock between closes, the catalog lock and
//! the sweeps) and lose **zero** misplaced files — every file parked on the
//! wrong tier is back on its routed tier after the final sweep.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use nvcache_repro::nvcache::{NvCache, NvCacheConfig};
use nvcache_repro::simclock::ActorClock;
use nvcache_repro::vfs::{FileSystem, OpenFlags};

use nvcache_bench::rig::{Below, Rig};

/// Distinct churned paths. Scaled down under `cfg(debug_assertions)` so
/// the unoptimized build stays in CI budget.
const PATHS: usize = if cfg!(debug_assertions) { 20_000 } else { 100_000 };
const CHURN_THREADS: usize = 6;
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
fn multithreaded_churn_beside_live_sweeps_loses_no_misplaced_file() {
    let cfg = NvCacheConfig {
        nb_entries: 1024,
        read_cache_pages: 128,
        batch_min: 1,
        batch_max: 64,
        fd_slots: 64,
        ..NvCacheConfig::default()
    };
    let (Rig { clock, below, .. }, cache) = Rig::new(cfg, Below::memfs(2));
    let (tier0, tier1, cache) = (&below.bases[0], &below.bases[1], Arc::new(cache));

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
                // Reopen a recent neighbour: its catalog entry leaves
                // while the sweeper may be judging it.
                if i >= CHURN_THREADS {
                    let back = churn_path(i - CHURN_THREADS);
                    let fd = cache.open(&back, OpenFlags::RDONLY, &clock).unwrap();
                    cache.pread(fd, &mut buf, 0, &clock).unwrap();
                    cache.close(fd, &clock).unwrap();
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
    // Live sweeps race the closes, the reopens and the wrong-way moves on
    // the catalog until the churn is over.
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
        let tier: &Arc<dyn FileSystem> = if i.is_multiple_of(2) { tier1 } else { tier0 };
        assert!(tier.stat(&path, &clock).is_ok(), "churned file {path} missing");
    }

    assert_checkers_clean(&cache);
    cache.shutdown(&clock);
}
