//! Tier rebalancing: a routing-policy change leaves files misplaced after a
//! crash; recovery replays them where they were acknowledged, and one
//! rebalance sweep re-homes them all through the crash-safe copy → stamp →
//! unlink migration protocol. A rename across tiers is a
//! migrate-then-rename.
//!
//! Run with: `cargo run --example tier_rebalance`

use std::error::Error;
use std::sync::Arc;

use nvcache_repro::nvcache::{Mount, NvCache, NvCacheConfig, PathPrefixRouter, Router, Tiering};
use nvcache_repro::nvmm::{NvDimm, NvRegion, NvmmProfile};
use nvcache_repro::simclock::ActorClock;
use nvcache_repro::vfs::{FileSystem, IoError, MemFs, OpenFlags};

fn main() -> Result<(), Box<dyn Error>> {
    let clock = ActorClock::new();
    let bulk: Arc<dyn FileSystem> = Arc::new(MemFs::new());
    let fast: Arc<dyn FileSystem> = Arc::new(MemFs::new());

    let cfg = NvCacheConfig {
        nb_entries: 4096,
        batch_min: usize::MAX >> 1, // park the drain: the crash finds everything in the log
        batch_max: usize::MAX >> 1,
        ..NvCacheConfig::tiny()
    };
    // Two tiers move files when asked: explicit sweeps and moves, and a
    // rename across tiers is a migrate-then-rename.
    let on_demand =
        |router: Arc<dyn Router>| Tiering::new(router, vec![Arc::clone(&bulk), Arc::clone(&fast)]);
    let log_dimm = Arc::new(NvDimm::new(cfg.required_nvmm_bytes(), NvmmProfile::optane()));

    // ---- yesterday's deployment: everything on the bulk tier --------------
    let cold_everything: Arc<dyn Router> = Arc::new(PathPrefixRouter::new(vec![], 0));
    let cache = NvCache::builder(NvRegion::whole(Arc::clone(&log_dimm)))
        .tiers(on_demand(cold_everything))
        .config(cfg.clone())
        .mount(&clock)?;
    for i in 0..8u32 {
        let fd =
            cache.open(&format!("/hot/seg{i}"), OpenFlags::RDWR | OpenFlags::CREATE, &clock)?;
        cache.pwrite(fd, format!("segment {i} payload").as_bytes(), 0, &clock)?;
    }
    println!("wrote 8 files under /hot, all placed on the bulk tier — power failure");
    cache.abort();
    drop(cache);
    let restarted = Arc::new(log_dimm.crash_and_restart());

    // ---- today's policy: /hot/** belongs on the fast tier -----------------
    // Mount::Recover replays every acknowledged byte to the tier that
    // acknowledged it and catalogues the misplaced files; the first sweep
    // re-homes them to the router's current placement — crash-safe at every
    // step.
    let hot_policy: Arc<dyn Router> = Arc::new(PathPrefixRouter::new(vec![("/hot".into(), 1)], 0));
    let cache = NvCache::builder(NvRegion::whole(restarted))
        .tiers(on_demand(hot_policy))
        .config(cfg)
        .mode(Mount::Recover)
        .mount(&clock)?;
    let report = cache.recovery_report().expect("recover mode");
    let sweep = cache.rebalance(&clock)?;
    println!(
        "recovery: {} entries replayed, {} files misplaced; sweep: {} files re-homed",
        report.entries_replayed, report.files_misplaced, sweep.files_migrated
    );
    assert_eq!((report.files_misplaced, sweep.files_migrated), (8, 8));

    // The bytes moved tier without changing value, and the mount sees them
    // where the router expects them.
    let fd = cache.open("/hot/seg3", OpenFlags::RDONLY, &clock)?;
    let mut buf = [0u8; 17];
    cache.pread(fd, &mut buf, 0, &clock)?;
    assert_eq!(&buf, b"segment 3 payload");
    cache.close(fd, &clock)?;
    assert!(fast.stat("/hot/seg3", &clock).is_ok(), "re-homed to the fast tier");
    assert!(matches!(bulk.stat("/hot/seg3", &clock), Err(IoError::NotFound(_))));
    println!("byte oracle: /hot/seg3 intact on the fast tier, gone from bulk ✓");

    // ---- cross-tier rename ------------------------------------------------
    // Demoting a segment to the bulk tier is a rename across backends: it
    // runs as a journaled migrate-then-rename.
    cache.rename("/hot/seg7", "/archive/seg7", &clock)?;
    assert!(bulk.stat("/archive/seg7", &clock).is_ok());
    assert!(matches!(fast.stat("/hot/seg7", &clock), Err(IoError::NotFound(_))));
    let snap = cache.stats().snapshot();
    println!(
        "cross-tier rename demoted /hot/seg7 → /archive/seg7 \
         (files_migrated = {}, migration_bytes = {})",
        snap.files_migrated, snap.migration_bytes
    );
    cache.shutdown(&clock);
    println!("tier rebalancing round-trip complete ✓");
    Ok(())
}
