//! Mount-level tests of heat-driven placement: temperature-driven
//! promotion/demotion end to end (decay, hysteresis, close → reopen
//! survival, no heat from reads at the end of a file, the fast-tier
//! budget), and recovery's misplacement judgement on persisted heat.

use std::sync::Arc;

use nvmm::{NvDimm, NvmmProfile};
use simclock::{ActorClock, SimTime};
use vfs::{FileSystem, OpenFlags};

use crate::layout::{Layout, FD_HEAT_OFF};
use crate::tests::parked_128;
use crate::tests::rig::{Below, Rig};
use crate::{HeatPolicy, NvCache, PathPrefixRouter};

/// Two `MemFs` tiers behind a router that sends everything to the bulk
/// tier 0 — the "cold-routed prefix" of the acceptance scenario: no static
/// rule ever places a file on the fast tier, so only `policy` can.
fn heated(policy: HeatPolicy) -> (Rig, NvCache) {
    let cold_everything = Arc::new(PathPrefixRouter::new(vec![], 0));
    Rig::new(parked_128(), Below { router: cold_everything, heat: Some(policy), ..Below::memfs(2) })
}

fn region_bytes(dimm: &NvDimm) -> Vec<u8> {
    let mut buf = vec![0u8; dimm.len() as usize];
    dimm.read_cached(0, &mut buf);
    buf
}

fn on_tier(fs: &Arc<dyn FileSystem>, path: &str, clock: &ActorClock) -> bool {
    fs.stat(path, clock).is_ok()
}

/// Open → read `times` → close, heating the file up.
fn heat_up(cache: &NvCache, path: &str, times: usize, clock: &ActorClock) {
    let fd = cache.open(path, OpenFlags::RDONLY, clock).unwrap();
    let mut buf = [0u8; 64];
    for _ in 0..times {
        cache.pread(fd, &mut buf, 0, clock).unwrap();
    }
    cache.close(fd, clock).unwrap();
}

/// The acceptance scenario, end to end: a hot file under a cold-routed
/// prefix is promoted onto the fast tier by heat alone, stays there inside
/// the hysteresis band, and is demoted back once its temperature decays.
#[test]
fn heat_policy_promotes_hot_files_and_demotes_after_decay() {
    let policy = HeatPolicy::new(1, 4.0, 1.0, SimTime::from_secs(10));
    let (rig, cache) = heated(policy);
    let (clock, tiers) = (&rig.clock, &rig.below.bases);

    for (path, reads) in [("/data/hot", 8usize), ("/data/cold", 0)] {
        let fd = cache.open(path, OpenFlags::RDWR | OpenFlags::CREATE, clock).unwrap();
        cache.pwrite(fd, &[0xAB; 512], 0, clock).unwrap();
        cache.flush_log(clock);
        cache.close(fd, clock).unwrap();
        if reads > 0 {
            heat_up(&cache, path, reads, clock);
        }
    }
    assert!(on_tier(&tiers[0], "/data/hot", clock), "router placed everything on tier 0");

    // Sweep 1: the hot file crosses the promote threshold (1 write + 8
    // reads ≈ 9 units of barely decayed heat ≥ 4), the cold one (1 unit ≤
    // demote) stays at its baseline.
    let report = cache.rebalance(clock).expect("sweep");
    assert_eq!((report.files_migrated, report.files_promoted, report.files_demoted), (1, 1, 0));
    assert!(on_tier(&tiers[1], "/data/hot", clock), "hot file promoted by heat");
    assert!(!on_tier(&tiers[0], "/data/hot", clock), "source copy unlinked");
    assert!(on_tier(&tiers[0], "/data/cold", clock), "cold file never moved");
    let snap = cache.stats().snapshot();
    assert_eq!((snap.files_promoted, snap.files_demoted), (1, 0));
    assert_eq!(snap.fast_tier_bytes, 512, "the promoted payload occupies the fast tier");
    // The merged namespace still resolves the promoted file.
    assert_eq!(cache.stat("/data/hot", clock).unwrap().size, 512);

    // Sweep 2, one half-life later: heat ≈ 4.5 — inside the hysteresis
    // band (1, 4)? No: still ≥ demote, < promote → the file must stay.
    clock.advance(SimTime::from_secs(10));
    let report = cache.rebalance(clock).expect("hysteresis sweep");
    assert_eq!(report.files_migrated, 0, "inside the band nothing moves");
    assert!(on_tier(&tiers[1], "/data/hot", clock));

    // Sweep 3, several half-lives later: heat ≈ 0.07 ≤ demote → demoted
    // back to the router baseline.
    clock.advance(SimTime::from_secs(60));
    let report = cache.rebalance(clock).expect("decay sweep");
    assert_eq!((report.files_migrated, report.files_promoted, report.files_demoted), (1, 0, 1));
    assert!(on_tier(&tiers[0], "/data/hot", clock), "cooled file demoted to baseline");
    assert!(!on_tier(&tiers[1], "/data/hot", clock));
    let snap = cache.stats().snapshot();
    assert_eq!((snap.files_promoted, snap.files_demoted), (1, 1));
    assert_eq!(snap.fast_tier_bytes, 0, "the fast tier emptied out");
    cache.shutdown(clock);
}

/// Temperature must survive close → reopen through the migrator catalog:
/// heat earned across several open generations adds up to a promotion no
/// single generation would have reached.
#[test]
fn temperature_survives_close_and_reopen() {
    let policy = HeatPolicy::new(1, 6.0, 1.0, SimTime::from_secs(3600));
    let (rig, cache) = heated(policy);
    let (clock, tiers) = (&rig.clock, &rig.below.bases);

    let fd = cache.open("/wal", OpenFlags::RDWR | OpenFlags::CREATE, clock).unwrap();
    cache.pwrite(fd, &[7; 256], 0, clock).unwrap();
    cache.flush_log(clock);
    cache.close(fd, clock).unwrap();
    // Three generations of 2 reads each: no single generation crosses the
    // 6.0 promote threshold, the accumulated temperature does.
    for gen in 0..3 {
        heat_up(&cache, "/wal", 2, clock);
        if gen < 2 {
            let report = cache.rebalance(clock).expect("sweep");
            assert_eq!(
                report.files_migrated, 0,
                "generation {gen} alone must not reach the threshold"
            );
        }
    }
    let report = cache.rebalance(clock).expect("final sweep");
    assert_eq!(report.files_promoted, 1, "accumulated heat promotes: 1 write + 6 reads ≥ 6");
    assert!(on_tier(&tiers[1], "/wal", clock));
    cache.shutdown(clock);
}

/// A read at or past the end of a file moves no data and is no access heat:
/// a tail poller's reads never reach the temperature the catalog carries
/// across close and reopen.
#[test]
fn reads_at_the_end_of_a_file_leave_no_heat() {
    let policy = HeatPolicy::new(1, 6.0, 1.0, SimTime::from_secs(3600));
    let (rig, cache) = heated(policy);
    let clock = &rig.clock;
    let fd = cache.open("/tail", OpenFlags::RDWR | OpenFlags::CREATE, clock).unwrap();
    cache.pwrite(fd, &[5; 100], 0, clock).unwrap();
    cache.flush_log(clock);
    cache.close(fd, clock).unwrap();
    let fd = cache.open("/tail", OpenFlags::RDONLY, clock).unwrap();
    let mut buf = [0u8; 64];
    for _ in 0..8 {
        assert_eq!(cache.pread(fd, &mut buf, 100, clock).unwrap(), 0, "at the end");
    }
    cache.close(fd, clock).unwrap();
    // A reopen takes the catalogued temperature back: one write's touch,
    // not nine.
    let fd = cache.open("/tail", OpenFlags::RDONLY, clock).unwrap();
    let file = Arc::clone(&cache.shared.opened_fd(fd).unwrap().file);
    assert_eq!(file.temperature.lock().heat, 1.0);
    cache.close(fd, clock).unwrap();
    cache.shutdown(clock);
}

/// The fast-tier capacity budget: when the hot set outgrows the budget,
/// only the hottest files keep their seats and the coldest candidate is
/// never promoted at all.
#[test]
fn fast_tier_budget_evicts_the_coldest_resident() {
    let policy = HeatPolicy::new(1, 3.0, 1.0, SimTime::from_secs(3600)).with_budget(1024);
    let (rig, cache) = heated(policy);
    let (clock, tiers) = (&rig.clock, &rig.below.bases);

    // Three 512-byte files, all above the promote threshold, 1536 bytes of
    // candidates against a 1024-byte budget — the coldest must lose.
    for (path, reads) in [("/a", 9usize), ("/b", 7), ("/c", 5)] {
        let fd = cache.open(path, OpenFlags::RDWR | OpenFlags::CREATE, clock).unwrap();
        cache.pwrite(fd, &[1; 512], 0, clock).unwrap();
        cache.flush_log(clock);
        cache.close(fd, clock).unwrap();
        heat_up(&cache, path, reads, clock);
    }
    let report = cache.rebalance(clock).expect("sweep");
    assert_eq!(report.files_promoted, 2, "only two 512-byte files fit the 1024-byte budget");
    assert!(on_tier(&tiers[1], "/a", clock), "hottest file promoted");
    assert!(on_tier(&tiers[1], "/b", clock), "second-hottest promoted");
    assert!(on_tier(&tiers[0], "/c", clock), "coldest candidate stays on the bulk tier");
    assert_eq!(cache.stats().snapshot().fast_tier_bytes, 1024, "budget exactly filled");
    cache.shutdown(clock);
}

/// `rebalance` accepts any caller's clock, including one that starts at
/// zero and is unrelated to the app clocks that stamped the heat: decay
/// must be measured against the mount's observed-time high-water mark, or
/// a sweep on a lagging clock would compute `Δt = 0` forever and cooling
/// would never demote.
#[test]
fn sweep_on_a_lagging_clock_still_sees_decay() {
    let policy = HeatPolicy::new(1, 4.0, 1.0, SimTime::from_secs(10));
    let (rig, cache) = heated(policy);
    let (clock, tiers) = (&rig.clock, &rig.below.bases);

    for path in ["/idle", "/later"] {
        let fd = cache.open(path, OpenFlags::RDWR | OpenFlags::CREATE, clock).unwrap();
        cache.pwrite(fd, &[6; 128], 0, clock).unwrap();
        cache.flush_log(clock);
        cache.close(fd, clock).unwrap();
    }
    heat_up(&cache, "/idle", 8, clock);
    cache.rebalance(clock).expect("promote");
    assert!(on_tier(&tiers[1], "/idle", clock), "hot file promoted");

    // Virtual time passes on the app clock — witnessed only through a
    // touch of a *different* file (the mount's time high-water mark).
    clock.advance(SimTime::from_secs(100));
    heat_up(&cache, "/later", 1, clock);

    // A sweep on a brand-new clock (now = 0) must still see the 100 s of
    // decay and demote the cooled file.
    let lagging = ActorClock::new();
    let report = cache.rebalance(&lagging).expect("lagging sweep");
    assert_eq!(report.files_demoted, 1, "decay must follow observed time, not the sweep clock");
    assert!(on_tier(&tiers[0], "/idle", &lagging), "cooled file demoted to baseline");
    cache.shutdown(clock);
}

/// A file the heat policy promoted, and that cooled off before the crash,
/// is judged cold at recovery — its persisted heat word no longer clears the
/// promote threshold — and the first sweep after recovery demotes it back to
/// the router baseline with intact bytes.
#[test]
fn a_sweep_after_recovery_demotes_a_previously_promoted_file() {
    let policy = || HeatPolicy::new(1, 4.0, 1.0, SimTime::from_secs(3600));
    let (rig, cache) = heated(policy());
    let (clock, tiers) = (&rig.clock, &rig.below.bases);

    let fd = cache.open("/burst", OpenFlags::RDWR | OpenFlags::CREATE, clock).unwrap();
    cache.pwrite(fd, &[3; 256], 0, clock).unwrap();
    cache.flush_log(clock);
    cache.close(fd, clock).unwrap();
    heat_up(&cache, "/burst", 8, clock);
    cache.rebalance(clock).expect("promote");
    assert!(on_tier(&tiers[1], "/burst", clock), "promoted before the crash");

    // Ten half-lives later, reopen on its promoted tier (the fd slot records
    // backend 1 and the cooled heat), then crash: recovery finds the file on
    // a tier the router does not assign.
    clock.advance(SimTime::from_secs(10 * 3600));
    let fd = cache.open("/burst", OpenFlags::RDWR, clock).unwrap();
    cache.pwrite(fd, &[4; 64], 0, clock).unwrap();
    rig.crash(&cache, 0);

    let cache = rig.recover();
    assert_eq!(cache.recovery_report().unwrap().files_misplaced, 1, "the stale promotion");
    assert!(on_tier(&tiers[1], "/burst", clock), "recovery moves nothing");
    let sweep = cache.rebalance(clock).expect("post-recovery sweep");
    assert_eq!((sweep.files_migrated, sweep.files_demoted), (1, 1));
    assert!(on_tier(&tiers[0], "/burst", clock), "back on the router baseline");
    assert!(!on_tier(&tiers[1], "/burst", clock), "fast-tier copy gone");
    // The acknowledged crash write replayed before the demotion.
    let fd = cache.open("/burst", OpenFlags::RDONLY, clock).unwrap();
    let mut buf = [0u8; 64];
    cache.pread(fd, &mut buf, 0, clock).unwrap();
    assert_eq!(buf, [4; 64], "replayed bytes survive the demotion");
    cache.close(fd, clock).unwrap();
    cache.shutdown(clock);
}

/// A file open through two descriptors at the crash has one heat summary per
/// fd slot. Recovery judges the path once, by the hottest summary — the one
/// it seeds into the catalog — so a promoted file whose older descriptor
/// stamped it hot at `fsync` is not demoted because the newer descriptor's
/// `open` stamped it cooler, and the next sweep has nothing to undo.
#[test]
fn recovery_judges_a_file_open_twice_by_its_hottest_slot() {
    let policy = || HeatPolicy::new(1, 4.0, 1.0, SimTime::from_secs(3600));
    let (rig, cache) = heated(policy());
    let (clock, tiers) = (&rig.clock, &rig.below.bases);

    let fd = cache.open("/burst", OpenFlags::RDWR | OpenFlags::CREATE, clock).unwrap();
    cache.pwrite(fd, &[3; 256], 0, clock).unwrap();
    cache.flush_log(clock);
    cache.close(fd, clock).unwrap();
    heat_up(&cache, "/burst", 8, clock);
    cache.rebalance(clock).expect("promote");
    assert!(on_tier(&tiers[1], "/burst", clock), "promoted before the crash");

    // Descriptor A reads and fsyncs: its slot's summary clears the promote
    // threshold. Three half-lives later descriptor B's open stamps the
    // decayed heat into its own slot, below the threshold.
    let a = cache.open("/burst", OpenFlags::RDONLY, clock).unwrap();
    let mut buf = [0u8; 64];
    for _ in 0..4 {
        cache.pread(a, &mut buf, 0, clock).unwrap();
    }
    cache.fsync(a, clock).unwrap();
    clock.advance(SimTime::from_secs(3 * 3600));
    cache.open("/burst", OpenFlags::RDONLY, clock).unwrap();
    rig.crash(&cache, 0);

    let cache = rig.recover();
    let report = cache.recovery_report().unwrap();
    assert_eq!(report.files_misplaced, 0, "judged by slot A");
    assert!(on_tier(&tiers[1], "/burst", clock), "still on the fast tier");
    let sweep = cache.rebalance(clock).expect("post-recovery sweep");
    assert_eq!(sweep.files_migrated, 0, "the seeded heat keeps the file where it is");
    cache.shutdown(clock);
}

/// The persisted-heat remount oracle: the compact per-slot summaries
/// stamped at `fsync` survive a crash, recovery seeds them back into the
/// catalog, and the next sweep re-promotes the hot set **without a single
/// post-recovery read or write** — placement quality survives the remount on
/// persisted temperature alone.
#[test]
fn recovery_reseeds_persisted_heat_and_repromotes_without_retouching() {
    let policy = || HeatPolicy::new(1, 4.0, 1.0, SimTime::from_secs(3600));
    let (rig, cache) = heated(policy());
    let (clock, tiers) = (&rig.clock, &rig.below.bases);

    // Two files open at crash time: one read-hot, one written once and
    // left alone. fsync is the app's durability point, so it is also the
    // moment the temperature summary is stamped into the fd slot.
    let hot = cache.open("/wal/hot", OpenFlags::RDWR | OpenFlags::CREATE, clock).unwrap();
    cache.pwrite(hot, &[1; 300], 0, clock).unwrap();
    let cold = cache.open("/wal/cold", OpenFlags::RDWR | OpenFlags::CREATE, clock).unwrap();
    cache.pwrite(cold, &[2; 300], 0, clock).unwrap();
    cache.flush_log(clock);
    let mut buf = [0u8; 64];
    for _ in 0..8 {
        cache.pread(hot, &mut buf, 0, clock).unwrap();
    }
    cache.fsync(hot, clock).unwrap();
    cache.fsync(cold, clock).unwrap();
    rig.crash(&cache, 0);

    let cache = rig.recover();
    // No opens, reads or writes since the crash: the sweep decides purely
    // on the summaries recovery harvested from the fd slots.
    let report = cache.rebalance(clock).expect("post-recovery sweep");
    assert_eq!(
        (report.files_promoted, report.files_demoted),
        (1, 0),
        "the persisted hot set is re-promoted from quantized heat alone"
    );
    assert!(on_tier(&tiers[1], "/wal/hot", clock), "hot file back on the fast tier");
    assert!(on_tier(&tiers[0], "/wal/cold", clock), "cold file stays on the baseline");
    cache.shutdown(clock);
}

/// Heat is stamped only where it is tracked: a tiered mount without a heat
/// policy leaves every fd slot's heat word at zero through open, pwrite,
/// fsync, close and a crash, and its recovery seeds nothing.
#[test]
fn a_mount_that_tracks_no_heat_never_stamps_a_heat_word() {
    let lay = Layout::for_config(&parked_128());
    let heat_stamps = |dimm: &NvDimm| -> Vec<u64> {
        let mut word = [0u8; 8];
        (0..lay.fd_slots as u32)
            .map(|slot| {
                dimm.read_cached(lay.fd_slot(slot) + FD_HEAT_OFF, &mut word);
                u64::from_le_bytes(word)
            })
            .collect()
    };
    let (rig, cache) = Rig::new(parked_128(), Below::memfs(2));
    let clock = &rig.clock;
    let create = OpenFlags::RDWR | OpenFlags::CREATE;
    let kept = cache.open("/hot/kept", create, clock).unwrap();
    let closed = cache.open("/cold/closed", create, clock).unwrap();
    let mut buf = [0u8; 64];
    for fd in [kept, closed] {
        cache.pwrite(fd, &[7; 64], 0, clock).unwrap();
        for _ in 0..8 {
            cache.pread(fd, &mut buf, 0, clock).unwrap();
        }
        cache.fsync(fd, clock).unwrap();
    }
    cache.flush_log(clock);
    cache.close(closed, clock).unwrap();
    cache.pwrite(kept, &[8; 64], 0, clock).unwrap();
    assert!(heat_stamps(&rig.dimm()).iter().all(|&w| w == 0), "stamped while mounted");
    rig.crash(&cache, 0);
    assert!(heat_stamps(&rig.dimm()).iter().all(|&w| w == 0), "stamped in the image");
    let cache = rig.recover();
    assert_eq!(cache.recovery_report().unwrap().files_reopened, 1);
    assert_eq!(cache.catalog_resident(), 0, "recovery seeded the catalog");
    cache.shutdown(clock);
}

/// The repeat oracle: one tiered heat-policy run — parked writes, a manual
/// `migrate`, a sweep, `fsync`s that stamp heat, a crash, recovery and a
/// second sweep — on two fresh rigs leaves byte-identical region images,
/// identical clocks, sweep reports and stats.
#[test]
fn a_tiered_heat_run_repeats_to_the_byte_and_the_nanosecond() {
    let run = || {
        let policy = HeatPolicy::new(1, 4.0, 1.0, SimTime::from_secs(3600));
        let below = Below { heat: Some(policy), nvmm: NvmmProfile::optane(), ..Below::memfs(2) };
        let (rig, cache) = Rig::new(parked_128(), below);
        let clock = &rig.clock;
        let create = OpenFlags::RDWR | OpenFlags::CREATE;
        let mut fds = Vec::new();
        for (path, byte) in [("/hot/a", 1u8), ("/cold/b", 2), ("/cold/c", 3)] {
            let fd = cache.open(path, create, clock).unwrap();
            cache.pwrite(fd, &[byte; 700], 0, clock).unwrap();
            fds.push(fd);
        }
        cache.flush_log(clock);
        for fd in fds {
            cache.close(fd, clock).unwrap();
        }
        heat_up(&cache, "/cold/c", 5, clock);
        assert_eq!(cache.migrate("/cold/c", 1, clock).unwrap(), 700);
        let first = cache.rebalance(clock).expect("sweep");
        // Open at the crash: `/cold/e` and `/cold/f` read equally hot (the
        // sweep orders them by path alone), `/cold/d` written once.
        let mut buf = [0u8; 64];
        let mut open = Vec::new();
        for path in ["/cold/e", "/cold/f"] {
            let fd = cache.open(path, create, clock).unwrap();
            cache.pwrite(fd, &[5; 700], 0, clock).unwrap();
            for _ in 0..8 {
                cache.pread(fd, &mut buf, 0, clock).unwrap();
            }
            open.push(fd);
        }
        let cold = cache.open("/cold/d", create, clock).unwrap();
        cache.pwrite(cold, &[4; 300], 0, clock).unwrap();
        open.push(cold);
        for fd in open {
            cache.fsync(fd, clock).unwrap();
        }
        rig.crash(&cache, 0);
        let cache = rig.recover();
        let second = cache.rebalance(clock).expect("post-recovery sweep");
        assert_eq!(second.files_promoted, 2, "the persisted hot files are promoted");
        cache.flush_log(clock);
        let snap = cache.stats().snapshot();
        cache.shutdown(clock);
        let stats = (
            snap.writes,
            snap.reads,
            snap.bytes_logged,
            snap.entries_logged,
            snap.entries_propagated,
            snap.files_migrated,
            snap.migration_bytes,
            snap.recovered_entries,
        );
        // Which tier holds each file, and in which order each tier created
        // its files (inode numbers): the order of the sweeps' moves.
        let probe = ActorClock::new();
        let paths = ["/hot/a", "/cold/b", "/cold/c", "/cold/d", "/cold/e", "/cold/f"];
        let placed = |tier: &Arc<dyn FileSystem>| {
            paths.map(|p| tier.stat(p, &probe).ok().map(|m| (m.ino, m.size)))
        };
        let tiers: Vec<_> = rig.below.bases.iter().map(placed).collect();
        (region_bytes(&rig.dimm()), clock.now(), (first, second), stats, tiers)
    };

    let (bytes_a, time_a, reports_a, stats_a, tiers_a) = run();
    let (bytes_b, time_b, reports_b, stats_b, tiers_b) = run();
    assert_eq!(bytes_a, bytes_b, "persistent images must be byte-identical");
    assert_eq!(time_a, time_b, "virtual timelines must be identical");
    assert_eq!(reports_a, reports_b, "sweep reports must agree");
    assert_eq!(stats_a, stats_b, "stats must agree");
    assert_eq!(tiers_a, tiers_b, "every file must land on the same tier in the same order");
}
