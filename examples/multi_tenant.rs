//! Three tenants on one tiered mount: a WAL-heavy LSM store, a
//! transactional SQL store and a read-hot file scanner share an NVCache
//! whose router parks everything on a slow bulk tier. A `HeatPolicy`
//! watches per-file temperature; after the first traffic phase a rebalance
//! sweep promotes the scanner's hot files to the fast tier, and replaying
//! the *same* seeded trace shows its read p99 collapse.
//!
//! Run with: `cargo run --example multi_tenant`

use std::error::Error;
use std::sync::Arc;

use nvcache_repro::nvcache::{
    HeatPolicy, LayeredTier, MigrationPolicy, NvCache, NvCacheConfig, PathPrefixRouter, Router,
    Tiering,
};
use nvcache_repro::nvmm::{NvDimm, NvRegion, NvmmProfile};
use nvcache_repro::simclock::{ActorClock, SimTime};
use nvcache_repro::traffic::{
    Arrival, EngineConfig, OpMix, SizeDist, Tail, TenantKind, TenantSpec, TrafficTarget,
};
use nvcache_repro::vfs::{DelayLayer, DelayProfile, FileSystem, Layer, MemFs};

fn tenants() -> Vec<TenantSpec> {
    vec![
        TenantSpec {
            name: "rock-wal".into(),
            prefix: "/rock".into(),
            kind: TenantKind::Rocklet { keys: 48 },
            mix: OpMix { read_pct: 20, fsync_every: 1 },
            arrival: Arrival::ClosedLoop { concurrency: 1 },
            theta: 0.9,
            ops: 120,
            size: SizeDist::Fixed(256),
        },
        TenantSpec {
            name: "sql-txn".into(),
            prefix: "/sql".into(),
            kind: TenantKind::Sqlight { rows: 32 },
            mix: OpMix { read_pct: 50, fsync_every: 1 },
            arrival: Arrival::ClosedLoop { concurrency: 1 },
            theta: 0.7,
            ops: 100,
            size: SizeDist::Uniform { min: 64, max: 256 },
        },
        // The hot tenant: a small, heavily re-read working set behind the
        // slow tier — exactly what heat placement should rescue.
        TenantSpec {
            name: "scan".into(),
            prefix: "/scan".into(),
            kind: TenantKind::RawFs { files: 4, file_size: 64 << 10 },
            mix: OpMix { read_pct: 100, fsync_every: 0 },
            arrival: Arrival::ClosedLoop { concurrency: 2 },
            theta: 0.9,
            ops: 300,
            size: SizeDist::Fixed(4096),
        },
    ]
}

fn main() -> Result<(), Box<dyn Error>> {
    let clock = ActorClock::new();

    // Bulk tier: RAM-backed but charged like a slow device (300 µs reads).
    // Fast tier: plain RAM. The router places everything on the bulk tier;
    // only the heat policy can promote files to the fast one.
    let slow_reads = DelayProfile {
        pread: SimTime::from_micros(300),
        pwrite: SimTime::from_micros(50),
        ..DelayProfile::default()
    };
    let bulk: LayeredTier = (
        vec![Arc::new(DelayLayer::new(slow_reads)) as Arc<dyn Layer>],
        Arc::new(MemFs::new()) as Arc<dyn FileSystem>,
    );
    let fast: LayeredTier = (Vec::new(), Arc::new(MemFs::new()) as Arc<dyn FileSystem>);
    let all_cold: Arc<dyn Router> = Arc::new(PathPrefixRouter::new(vec![], 0));

    // Promote above 4 units of decayed heat, demote below 1, half-life
    // 10 s, with room for the whole hot working set. The tiny read cache
    // (16 pages) forces most scanner reads through to the tier, so the
    // placement decision is what moves the tail.
    let policy = HeatPolicy::new(1, 4.0, 1.0, SimTime::from_secs(10)).with_budget(1 << 20);
    let cfg = NvCacheConfig {
        nb_entries: 8 * 1024,
        batch_min: usize::MAX >> 1,
        batch_max: usize::MAX >> 1,
        fd_slots: 512,
        ..NvCacheConfig::default()
    }
    .with_read_cache_pages(16);
    let log_dimm = Arc::new(NvDimm::new(cfg.required_nvmm_bytes(), NvmmProfile::optane()));
    let cache = Arc::new(
        NvCache::builder(NvRegion::whole(log_dimm))
            .tiers(
                Tiering::layered(all_cold, vec![bulk, fast])
                    .migration(MigrationPolicy::OnDemand)
                    .heat(policy),
            )
            .config(cfg)
            .mount(&clock)?,
    );
    let target = TrafficTarget::nvcache(Arc::clone(&cache));

    // ---- Phase 1: everything lands on the slow bulk tier. ----
    let specs = tenants();
    let cfg1 = EngineConfig { seed: 11, flush_every: 128, start: clock.now() };
    let phase1 = nvcache_repro::traffic::run(&target, &specs, &cfg1)?;
    let scan1 = &phase1.tenants[2];
    let before = Tail::of(&scan1.reads);
    println!("phase 1 (cold tiers):");
    for t in &phase1.tenants {
        let tail = t.tail();
        println!(
            "  {:8} {:4} ops, p50 {:8.1} µs, p99 {:8.1} µs",
            t.name,
            t.ops,
            tail.p50.as_micros_f64(),
            tail.p99.as_micros_f64()
        );
    }

    // ---- Rebalance: the scanner's files crossed the promote threshold. ----
    let sweep_clock = ActorClock::starting_at(phase1.final_clock);
    let report = cache.rebalance(&sweep_clock)?;
    println!(
        "rebalance: {} promoted, {} demoted ({} bytes on the fast tier)",
        report.files_promoted,
        report.files_demoted,
        cache.stats().snapshot().fast_tier_bytes
    );
    assert!(report.files_promoted > 0, "the hot scanner files must cross the promote threshold");

    // ---- Phase 2: identical seed ⇒ identical trace, warmer placement. ----
    let cfg2 = EngineConfig { seed: 11, flush_every: 128, start: sweep_clock.now() };
    let phase2 = nvcache_repro::traffic::run(&target, &specs, &cfg2)?;
    let scan2 = &phase2.tenants[2];
    let after = Tail::of(&scan2.reads);
    println!("phase 2 (hot files promoted):");
    println!(
        "  scan read p99: {:.1} µs -> {:.1} µs (p50 {:.1} -> {:.1})",
        before.p99.as_micros_f64(),
        after.p99.as_micros_f64(),
        before.p50.as_micros_f64(),
        after.p50.as_micros_f64()
    );
    assert_eq!(scan1.ops, scan2.ops, "same seed must replay the same trace");
    assert!(
        after.p99 < before.p99,
        "promoting the hot tenant's files must improve its read p99 \
         ({:?} -> {:?})",
        before.p99,
        after.p99
    );

    cache.shutdown(&clock);
    println!("hot tenant rescued by heat placement — OK");
    Ok(())
}
