//! Heat-driven auto-placement: a two-tier mount whose router never places
//! anything on the fast tier, with a `HeatPolicy` that promotes the hot
//! working set there anyway — then demotes it again once it cools, and
//! holds a fast-tier byte budget by evicting the coldest resident.
//!
//! Run with: `cargo run --example heat_placement`

use std::error::Error;
use std::sync::Arc;

use nvcache_repro::nvcache::{
    HeatPolicy, MigrationPolicy, NvCache, NvCacheConfig, PathPrefixRouter, Router, Tiering,
};
use nvcache_repro::nvmm::{NvDimm, NvRegion, NvmmProfile};
use nvcache_repro::simclock::{ActorClock, SimTime};
use nvcache_repro::vfs::{FileSystem, MemFs, OpenFlags};

fn main() -> Result<(), Box<dyn Error>> {
    let clock = ActorClock::new();
    let bulk: Arc<dyn FileSystem> = Arc::new(MemFs::new());
    let fast: Arc<dyn FileSystem> = Arc::new(MemFs::new());

    // Promote above 4 units of decayed heat, demote below 1, heat halving
    // every 10 virtual seconds, and at most 2 KiB of promoted payload on
    // the fast tier.
    let policy = HeatPolicy::new(1, 4.0, 1.0, SimTime::from_secs(10)).with_budget(2048);
    let cfg =
        NvCacheConfig { nb_entries: 4096, batch_min: 1, batch_max: 64, ..NvCacheConfig::tiny() };
    let log_dimm = Arc::new(NvDimm::new(cfg.required_nvmm_bytes(), NvmmProfile::optane()));

    // The router sends every path to the bulk tier: only temperature can
    // ever reach the fast one.
    let all_cold: Arc<dyn Router> = Arc::new(PathPrefixRouter::new(vec![], 0));
    let cache = NvCache::builder(NvRegion::whole(log_dimm))
        .tiers(
            Tiering::new(all_cold, vec![Arc::clone(&bulk), Arc::clone(&fast)])
                .migration(MigrationPolicy::OnDemand)
                .heat(policy),
        )
        .config(cfg)
        .mount(&clock)?;

    // Four 1 KiB segments; drain and close so they become migratable.
    let mut fds = Vec::new();
    for i in 0..4u32 {
        let fd = cache.open(&format!("/seg/{i}"), OpenFlags::RDWR | OpenFlags::CREATE, &clock)?;
        cache.pwrite(fd, &[i as u8 + 1; 1024], 0, &clock)?;
        fds.push(fd);
    }
    cache.flush_log(&clock);
    for fd in fds {
        cache.close(fd, &clock)?;
    }
    println!("wrote /seg/0..3 — the router put all four on the bulk tier");

    // Heat three of the four up, with /seg/0 clearly the hottest.
    let mut buf = [0u8; 1024];
    for (i, reads) in [(0u32, 12usize), (1, 8), (2, 6)] {
        let fd = cache.open(&format!("/seg/{i}"), OpenFlags::RDONLY, &clock)?;
        for _ in 0..reads {
            cache.pread(fd, &mut buf, 0, &clock)?;
        }
        cache.close(fd, &clock)?;
    }

    // Sweep: three files cross the promote threshold, but the 2 KiB budget
    // seats only the two hottest — the coldest candidate is never moved.
    let report = cache.rebalance(&clock)?;
    let snap = cache.stats().snapshot();
    println!(
        "sweep 1: {} promoted, {} demoted ({} bytes now on the fast tier)",
        report.files_promoted, report.files_demoted, snap.fast_tier_bytes
    );
    assert_eq!(report.files_promoted, 2, "the 2 KiB budget seats exactly two 1 KiB files");
    assert!(fast.stat("/seg/0", &clock).is_ok(), "hottest segment promoted");
    assert!(fast.stat("/seg/1", &clock).is_ok(), "second-hottest promoted");
    assert!(bulk.stat("/seg/2", &clock).is_ok(), "budget evicted the coldest candidate");

    // The merged namespace is unchanged — promoted files stay reachable.
    assert_eq!(cache.stat("/seg/0", &clock)?.size, 1024);

    // Let the temperature halve a few times: everything cools below the
    // demote threshold and drains back to the router baseline.
    clock.advance(SimTime::from_secs(60));
    let report = cache.rebalance(&clock)?;
    let snap = cache.stats().snapshot();
    println!(
        "sweep 2 (60 s later): {} promoted, {} demoted ({} bytes on the fast tier)",
        report.files_promoted, report.files_demoted, snap.fast_tier_bytes
    );
    assert_eq!(report.files_demoted, 2, "cooled segments fall back to the bulk tier");
    assert_eq!(snap.fast_tier_bytes, 0);
    assert!(bulk.stat("/seg/0", &clock).is_ok(), "back on the baseline tier");

    println!(
        "totals: files_promoted = {}, files_demoted = {}, files_migrated = {}",
        snap.files_promoted, snap.files_demoted, snap.files_migrated
    );
    cache.shutdown(&clock);
    println!("heat-driven placement converged both ways — OK");
    Ok(())
}
