//! Tier-rebalancing sweep: shows hot/cold convergence after a routing-policy
//! change leaves files misplaced, and — with `--heat-policy` — that a
//! temperature-driven [`HeatPolicy`] converges a hot working set onto the
//! fast tier even when **no routing rule ever would**.
//!
//! Phase 1 mounts a two-tier stack (Ext4+HDD bulk tier 0, NOVA hot tier 1)
//! under a *cold-everything* policy, writes a hot set under `/hot/**` and a
//! cold set under `/cold/**`, and crashes. Phase 2 recovers under the real
//! policy (`/hot/** → NOVA`): recovery replays every file to the tier that
//! acknowledged it — tier 0 — and reports the whole hot set as misplaced.
//! With `--rebalance`, `NvCache::rebalance` sweeps run until the catalog is
//! converged, and the scan time of the hot set is compared before (bulk
//! tier) and after (NOVA tier).
//!
//! `--heat-policy` runs a different experiment: the hot set lives under a
//! **cold-routed** prefix (`/data/hot/**`, router sends everything to the
//! bulk tier), so the router — the static default — never moves it.
//! The same workload under a `HeatPolicy` promotes the hot files onto NOVA
//! purely from their access temperature; the demo compares the hot-set
//! scan latency under both policies against an all-fast baseline (the
//! acceptance bar: heat-policy scan within 2× of all-fast).
//!
//! Usage: `rebalance [--files N] [--kib K] [--rebalance] [--heat-policy]`

use std::sync::Arc;

use blockdev::{HddDevice, HddProfile};
use nvcache::{HeatPolicy, Mount, NvCacheConfig, PathPrefixRouter};
use nvcache_bench::rig::{parked, Below, Rig};
use nvcache_bench::{arg_flag, arg_u64};
use nvmm::{NvDimm, NvRegion, NvmmProfile};
use simclock::{ActorClock, SimTime};
use vfs::{Ext4, Ext4Profile, FileSystem, NovaFs, NovaProfile, OpenFlags};

/// A fresh NOVA on a 1 GiB DIMM.
fn nova() -> Arc<dyn FileSystem> {
    let dimm = Arc::new(NvDimm::new(1 << 30, NvmmProfile::optane()));
    Arc::new(NovaFs::new(NvRegion::whole(dimm), NovaProfile::default()))
}

/// A fresh two-tier machine: Ext4 on a 7200 rpm HDD as tier 0, NOVA as
/// tier 1, `/hot/**` routed to NOVA, the log on an Optane DIMM. A crash
/// cuts no base's power.
fn two_tiers() -> Below {
    let hdd = Arc::new(HddDevice::new(HddProfile::seven_k2()));
    let bulk: Arc<dyn FileSystem> = Arc::new(Ext4::new("ext4+hdd", hdd, Ext4Profile::default()));
    Below { nvmm: NvmmProfile::optane(), power_cut: false, ..Below::over(vec![bulk, nova()]) }
}

/// The configuration of a log that takes every file of the working set.
fn cfg(files: u64, kib: u64) -> NvCacheConfig {
    NvCacheConfig {
        nb_entries: (2 * files * kib.div_ceil(4)).max(64).next_multiple_of(2),
        fd_slots: (2 * files + 8) as u32,
        ..NvCacheConfig::default()
    }
}

/// Virtual time to read every file under `dir` once, sequentially, off `fs`.
fn scan_dir(fs: &Arc<dyn FileSystem>, dir: &str, files: u64, kib: u64) -> simclock::SimTime {
    let clock = ActorClock::new();
    let mut buf = vec![0u8; (kib << 10) as usize];
    for i in 0..files {
        let path = format!("{dir}/f{i:03}");
        let fd = fs.open(&path, OpenFlags::RDONLY, &clock).expect("scan file");
        fs.pread(fd, &mut buf, 0, &clock).expect("read");
        fs.close(fd, &clock).expect("close");
    }
    clock.now()
}

/// Virtual time to read every `/hot` file once, sequentially, off `fs`.
fn scan_hot(fs: &Arc<dyn FileSystem>, files: u64, kib: u64) -> simclock::SimTime {
    scan_dir(fs, "/hot", files, kib)
}

fn placement(hot: &Arc<dyn FileSystem>, bulk: &Arc<dyn FileSystem>, clock: &ActorClock) {
    let count = |fs: &Arc<dyn FileSystem>| fs.list_dir("/hot", clock).map_or(0, |l| l.len());
    println!(
        "  placement of /hot/**: {} file(s) on NOVA, {} file(s) on ext4+hdd",
        count(hot),
        count(bulk)
    );
}

/// Scans the hot set wherever each file currently lives (fast tier first).
fn scan_converged(
    fast: &Arc<dyn FileSystem>,
    bulk: &Arc<dyn FileSystem>,
    files: u64,
    kib: u64,
) -> SimTime {
    let clock = ActorClock::new();
    let mut buf = vec![0u8; (kib << 10) as usize];
    for i in 0..files {
        let path = format!("/data/hot/f{i:03}");
        let fs = if fast.stat(&path, &clock).is_ok() { fast } else { bulk };
        let fd = fs.open(&path, OpenFlags::RDONLY, &clock).expect("hot file");
        fs.pread(fd, &mut buf, 0, &clock).expect("read");
        fs.close(fd, &clock).expect("close");
    }
    clock.now()
}

/// The `--heat-policy` experiment: the hot set lives under a cold-routed
/// prefix, so only temperature — never the router — can move it: `policy`
/// is `None` for the router alone. Returns `(hot-set scan time after
/// convergence, files promoted)`.
fn heat_policy_run(
    policy: Option<HeatPolicy>,
    label: &str,
    files: u64,
    kib: u64,
) -> (SimTime, u64) {
    // Every path — including /data/hot/** — routes to the bulk tier: no
    // static rule ever reaches NOVA.
    let router = Arc::new(PathPrefixRouter::new(vec![], 0));
    let (rig, cache) = Rig::new(cfg(files, kib), Below { router, heat: policy, ..two_tiers() });
    let (clock, bulk, fast) = (&rig.clock, &rig.below.bases[0], &rig.below.bases[1]);

    // Write the working set, drain, close: everything lands on ext4+hdd.
    let payload = vec![0x5Au8; (kib << 10) as usize];
    let mut fds = Vec::new();
    for i in 0..files {
        for prefix in ["/data/hot", "/data/cold"] {
            let fd = cache
                .open(&format!("{prefix}/f{i:03}"), OpenFlags::RDWR | OpenFlags::CREATE, clock)
                .expect("create");
            cache.pwrite(fd, &payload, 0, clock).expect("write");
            fds.push(fd);
        }
    }
    cache.flush_log(clock);
    for fd in fds {
        cache.close(fd, clock).expect("close");
    }
    // Heat the hot set up: ten read passes per file, through the cache.
    let mut buf = vec![0u8; (kib << 10) as usize];
    for i in 0..files {
        let path = format!("/data/hot/f{i:03}");
        let fd = cache.open(&path, OpenFlags::RDONLY, clock).expect("reopen");
        for _ in 0..10 {
            cache.pread(fd, &mut buf, 0, clock).expect("read");
        }
        cache.close(fd, clock).expect("close");
    }
    // Sweep until converged.
    let mut rounds = 0;
    loop {
        rounds += 1;
        let sweep = cache.rebalance(clock).expect("rebalance sweep");
        println!(
            "  [{label}] sweep {rounds}: {} promoted, {} demoted, {} busy, {} in place",
            sweep.files_promoted, sweep.files_demoted, sweep.files_busy, sweep.files_in_place
        );
        if sweep.files_migrated == 0 && sweep.files_busy == 0 {
            break;
        }
    }
    let snap = cache.stats().snapshot();
    println!(
        "  [{label}] stats: files_promoted = {}, files_demoted = {}, fast_tier_bytes = {}",
        snap.files_promoted, snap.files_demoted, snap.fast_tier_bytes
    );
    cache.shutdown(clock);
    // Cold device caches: the scan must measure the medium, not DRAM.
    bulk.simulate_power_failure();
    (scan_converged(fast, bulk, files, kib), snap.files_promoted)
}

/// `--heat-policy`: heat policy vs. path router convergence on a hot set
/// the router never places on the fast tier, against an all-fast baseline.
fn heat_policy_demo(files: u64, kib: u64) {
    println!(
        "Heat-driven placement — {files} hot + {files} cold files of {kib} KiB \
         under a cold-routed prefix (router: everything -> ext4+hdd)"
    );
    // All-fast baseline: the same hot set written natively to NOVA.
    let clock = ActorClock::new();
    let all_fast = nova();
    let payload = vec![0x5Au8; (kib << 10) as usize];
    for i in 0..files {
        let path = format!("/data/hot/f{i:03}");
        let fd = all_fast.open(&path, OpenFlags::RDWR | OpenFlags::CREATE, &clock).expect("open");
        all_fast.pwrite(fd, &payload, 0, &clock).expect("write");
        all_fast.close(fd, &clock).expect("close");
    }
    let baseline = scan_dir(&all_fast, "/data/hot", files, kib);
    println!("  all-fast baseline (hot set native on NOVA): {baseline}");

    // Promote above 5 units of decayed heat, demote below 1, heat halves
    // every virtual hour (no meaningful decay inside this short demo).
    let heat = HeatPolicy::new(1, 5.0, 1.0, SimTime::from_secs(3600));
    let (t_router, promoted_router) = heat_policy_run(None, "router", files, kib);
    let (t_heat, promoted_heat) = heat_policy_run(Some(heat), "heat", files, kib);

    println!("  hot-set scan, router placement (stranded on ext4+hdd): {t_router}");
    println!("  hot-set scan, heat policy (converged onto NOVA):       {t_heat}");
    let vs_base = t_heat.as_nanos() as f64 / baseline.as_nanos().max(1) as f64;
    let speedup = t_router.as_nanos() as f64 / t_heat.as_nanos().max(1) as f64;
    println!("  heat policy vs all-fast baseline: {vs_base:.2}x; vs router placement: {speedup:.0}x faster");

    assert_eq!(promoted_router, 0, "the static router must never promote by heat");
    assert_eq!(promoted_heat, files, "the heat policy must promote the whole hot set");
    assert!(
        t_heat.as_nanos() <= 2 * baseline.as_nanos(),
        "converged hot-set scan must be within 2x of the all-fast baseline \
         ({t_heat} vs {baseline})"
    );
    assert!(t_router > t_heat, "the stranded hot set must scan slower than the converged one");
}

fn main() {
    let files = arg_u64("--files", 16);
    let kib = arg_u64("--kib", 256);
    if arg_flag("--heat-policy") {
        heat_policy_demo(files, kib);
        return;
    }
    let do_rebalance = arg_flag("--rebalance");
    println!(
        "Tier rebalancer — {files} hot + {files} cold files of {kib} KiB, \
         policy change while crashed{}",
        if do_rebalance { ", then --rebalance sweep" } else { "" }
    );

    // Phase 1 — the old policy: everything lands on the bulk tier. The
    // drain is parked: the crash finds everything in the log.
    let below = two_tiers();
    let cold_everything = Arc::new(PathPrefixRouter::new(vec![], 0));
    let phase1 = Below { router: cold_everything, ..below.clone() };
    let (rig, cache) = Rig::new(parked(cfg(files, kib)), phase1);
    let (clock, bulk, hot) = (&rig.clock, &below.bases[0], &below.bases[1]);
    let payload = vec![0xA5u8; (kib << 10) as usize];
    for i in 0..files {
        for prefix in ["/hot", "/cold"] {
            let fd = cache
                .open(&format!("{prefix}/f{i:03}"), OpenFlags::RDWR | OpenFlags::CREATE, clock)
                .expect("create");
            cache.pwrite(fd, &payload, 0, clock).expect("write");
        }
    }
    println!(
        "phase 1: {} entries pending under the cold-everything policy — power failure",
        cache.pending_entries()
    );
    rig.crash(&cache, 0);

    // Phase 2 — recover under the real policy: /hot/** belongs on NOVA.
    let cache = rig.mount_over(&below, Mount::Recover).expect("phase-2 recovery");
    let report = cache.recovery_report().expect("recover mode");
    println!(
        "phase 2: recovery replayed {} entries; files_misplaced = {}",
        report.entries_replayed, report.files_misplaced
    );
    placement(hot, bulk, clock);
    // Drop the bulk tier's volatile page cache (warm from the recovery
    // replay) so both scans measure the device, not DRAM.
    bulk.simulate_power_failure();
    let before = scan_hot(bulk, files, kib);
    println!("  hot-set scan on its current (bulk) tier, cold caches: {before}");

    if !do_rebalance {
        println!("pass --rebalance to re-home the misplaced files and re-measure");
        cache.shutdown(clock);
        return;
    }

    // The sweep: loop until converged (one round unless files are busy).
    let mut rounds = 0;
    loop {
        rounds += 1;
        let sweep = cache.rebalance(clock).expect("rebalance sweep");
        println!(
            "sweep {rounds}: {} migrated ({} bytes), {} busy, {} in place",
            sweep.files_migrated, sweep.bytes_moved, sweep.files_busy, sweep.files_in_place
        );
        if sweep.files_migrated == 0 && sweep.files_busy == 0 {
            break;
        }
    }
    let snap = cache.stats().snapshot();
    println!(
        "stats: files_migrated = {}, migration_bytes = {}",
        snap.files_migrated, snap.migration_bytes
    );
    placement(hot, bulk, clock);
    hot.simulate_power_failure(); // NOVA is NVMM-native: nothing volatile to lose
    let after = scan_hot(hot, files, kib);
    println!("  hot-set scan on its rebalanced (NOVA) tier: {after}");
    let speedup = before.as_nanos() as f64 / after.as_nanos().max(1) as f64;
    println!("  convergence: hot reads {speedup:.1}x faster after the sweep");
    assert!(
        cache.stats().snapshot().files_migrated >= files,
        "the sweep must have re-homed the whole hot set"
    );
    cache.shutdown(clock);
}
