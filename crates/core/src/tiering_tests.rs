//! Tests of the mount-stack builder and multi-backend tiering: the
//! single-backend seed header and fd slot encodings, POSIX conformance of a
//! two-tier mount, per-tier drains, cross-backend crash recovery, and the
//! recovery of a single-backend image into two tiers.

use std::sync::Arc;

use blockdev::{SsdDevice, SsdProfile};
use nvmm::{NvDimm, NvRegion, NvmmProfile, PmemInts};
use simclock::{ActorClock, SimTime};
use vfs::{DelayLayer, Ext4, Ext4Profile, FileSystem, IoError, Layer, MemFs, OpenFlags};

use crate::layout::{self, FD_BACKEND_OFF, FD_PATH_OFF, FD_SLOT_BYTES};
use crate::{
    Mount, NvCache, NvCacheBuilder, NvCacheConfig, PathPrefixRouter, Router, SingleBackend, Tiering,
};

/// `(clock, log dimm, cold tier, hot tier, mount)` of a tiered rig.
type TieredRig = (ActorClock, Arc<NvDimm>, Arc<dyn FileSystem>, Arc<dyn FileSystem>, NvCache);

/// A two-tier mount: MemFs on backend 0 (default tier), a second backend on
/// tier 1 for everything under `/hot`.
fn tiered_setup(cfg: NvCacheConfig, tier1: Arc<dyn FileSystem>) -> TieredRig {
    tiered_setup_with(cfg, tier1, |tiering| tiering)
}

/// [`tiered_setup`] with the tiering choices `tune` makes.
fn tiered_setup_with(
    cfg: NvCacheConfig,
    tier1: Arc<dyn FileSystem>,
    tune: impl FnOnce(Tiering) -> Tiering,
) -> TieredRig {
    let clock = ActorClock::new();
    let dimm = Arc::new(NvDimm::new(cfg.required_nvmm_bytes(), NvmmProfile::instant()));
    let cold: Arc<dyn FileSystem> = Arc::new(MemFs::new());
    let cache = NvCache::builder(NvRegion::whole(Arc::clone(&dimm)))
        .tiers(tune(Tiering::new(
            Arc::new(PathPrefixRouter::new(vec![("/hot".into(), 1)], 0)),
            vec![Arc::clone(&cold), Arc::clone(&tier1)],
        )))
        .config(cfg)
        .mount(&clock)
        .expect("tiered mount");
    (clock, dimm, cold, tier1, cache)
}

#[test]
fn single_backend_builder_mount_keeps_the_seed_header_encoding() {
    // One script — open, write, rename, list_dir, close, unlink, abort,
    // recover — through `.backend(x)` and through the one-tier `Tiering` it
    // stands for. Every inner call costs 5 µs on its caller's clock, so an
    // inner call one arm makes and the other does not shows in the clocks.
    type Below = fn(NvCacheBuilder, Arc<dyn FileSystem>) -> NvCacheBuilder;
    let run = |below: Below| {
        let clock = ActorClock::new();
        // Parked drain: the log drains at the `rename`, whole, or not at all.
        let cfg = NvCacheConfig {
            batch_min: usize::MAX >> 1,
            batch_max: usize::MAX >> 1,
            ..NvCacheConfig::tiny()
        };
        let dimm = Arc::new(NvDimm::new(cfg.required_nvmm_bytes(), NvmmProfile::optane()));
        let slow = DelayLayer::fixed(SimTime::from_micros(5));
        let inner: Arc<dyn FileSystem> = slow.wrap(Arc::new(MemFs::new()));
        let cache = below(NvCache::builder(NvRegion::whole(Arc::clone(&dimm))), Arc::clone(&inner))
            .config(cfg.clone())
            .mount(&clock)
            .unwrap();
        let region = NvRegion::whole(Arc::clone(&dimm));
        assert_eq!(region.read_u64(layout::OFF_BACKENDS), 0, "single backend keeps the seed word");
        assert_eq!(cache.backends().len(), 1);
        assert_eq!(cache.router().fan_out(), 1);

        let create = OpenFlags::RDWR | OpenFlags::CREATE;
        let a = cache.open("/d/a", create, &clock).unwrap();
        let b = cache.open("/d/b", create, &clock).unwrap();
        cache.pwrite(a, b"kept", 0, &clock).unwrap();
        cache.pwrite(b, b"renamed, then unlinked", 0, &clock).unwrap();
        cache.rename("/d/b", "/d/c", &clock).unwrap();
        let listing = cache.list_dir("/d", &clock).unwrap();
        assert_eq!(listing, ["/d/a", "/d/c"]);
        cache.close(b, &clock).unwrap();
        cache.unlink("/d/c", &clock).unwrap();
        assert!(matches!(cache.stat("/d/c", &clock), Err(IoError::NotFound(_))));
        cache.pwrite(a, b"pending at the crash", 4, &clock).unwrap();
        let stats = cache.stats().snapshot();
        cache.abort();
        drop(cache);

        let restarted = Arc::new(dimm.crash_and_restart());
        let recovered = below(NvCache::builder(NvRegion::whole(Arc::clone(&restarted))), inner)
            .config(cfg)
            .mode(Mount::Recover)
            .mount(&clock)
            .unwrap();
        let report = recovered.recovery_report().unwrap();
        assert_eq!((report.entries_replayed, report.files_reopened), (1, 1));
        assert_eq!(recovered.stat("/d/a", &clock).unwrap().size, 24);
        recovered.shutdown(&clock);
        let mut image = vec![0u8; restarted.len() as usize];
        restarted.read_cached(0, &mut image);
        (image, clock.now(), stats, report, recovered.stats().snapshot())
    };
    let backend = run(|builder, x| builder.backend(x));
    let one_tier = run(|builder, x| builder.tiers(Tiering::new(Arc::new(SingleBackend), vec![x])));
    assert!(backend.0 == one_tier.0, "region bytes differ");
    assert_eq!(backend.1, one_tier.1, "application clocks differ");
    assert_eq!((backend.2, backend.3, backend.4), (one_tier.2, one_tier.3, one_tier.4));
}

#[test]
fn tiered_mount_passes_posix_conformance() {
    // The acceptance bar: a two-backend mount (MemFs cold tier, Ext4+SSD
    // hot tier) must be indistinguishable from POSIX. The suite's paths
    // live under /conf — route them to the Ext4+SSD tier so the conformance
    // traffic crosses the tiering machinery, not just the default backend.
    let clock = ActorClock::new();
    let cfg = NvCacheConfig::tiny();
    let dimm = Arc::new(NvDimm::new(cfg.required_nvmm_bytes(), NvmmProfile::instant()));
    let ssd = Arc::new(SsdDevice::new(SsdProfile::s4600()));
    let hot: Arc<dyn FileSystem> = Arc::new(Ext4::new("ext4+ssd", ssd, Ext4Profile::default()));
    let cache = NvCache::builder(NvRegion::whole(dimm))
        .tiers(Tiering::new(
            Arc::new(PathPrefixRouter::new(vec![("/conf".into(), 1)], 0)),
            vec![Arc::new(MemFs::new()), hot],
        ))
        .config(cfg)
        .mount(&clock)
        .expect("tiered mount");
    vfs::check_posix_semantics(&cache);
    cache.shutdown(&clock);
}

#[test]
fn writes_route_to_their_tier_and_drain_through_per_tier_queues() {
    let (c, _dimm, cold, hot, cache) = tiered_setup(NvCacheConfig::tiny(), Arc::new(MemFs::new()));
    let hfd = cache.open("/hot/wal", OpenFlags::RDWR | OpenFlags::CREATE, &c).unwrap();
    let cfd = cache.open("/cold/blob", OpenFlags::RDWR | OpenFlags::CREATE, &c).unwrap();
    cache.pwrite(hfd, b"hot bytes", 0, &c).unwrap();
    cache.pwrite(cfd, b"cold bytes", 0, &c).unwrap();
    cache.flush_log(&c);

    // Each file drained to its own tier…
    let h = hot.open("/hot/wal", OpenFlags::RDONLY, &c).unwrap();
    let mut buf = [0u8; 9];
    hot.pread(h, &mut buf, 0, &c).unwrap();
    assert_eq!(&buf, b"hot bytes");
    let l = cold.open("/cold/blob", OpenFlags::RDONLY, &c).unwrap();
    let mut buf = [0u8; 10];
    cold.pread(l, &mut buf, 0, &c).unwrap();
    assert_eq!(&buf, b"cold bytes");
    // …and only its own tier.
    assert!(matches!(cold.open("/hot/wal", OpenFlags::RDONLY, &c), Err(IoError::NotFound(_))));
    assert!(matches!(hot.open("/cold/blob", OpenFlags::RDONLY, &c), Err(IoError::NotFound(_))));

    // The per-backend drain counters saw both tiers.
    let snap = cache.stats().snapshot();
    assert_eq!(snap.per_backend_propagated.len(), 2);
    assert!(snap.per_backend_propagated[0] >= 1, "cold tier must have drained entries");
    assert!(snap.per_backend_propagated[1] >= 1, "hot tier must have drained entries");

    // Reads come back through the cache from both tiers.
    let mut buf = [0u8; 9];
    cache.pread(hfd, &mut buf, 0, &c).unwrap();
    assert_eq!(&buf, b"hot bytes");
    assert!(cache.name().contains("prefix"), "tiered mounts advertise their router");
    cache.shutdown(&c);
}

#[test]
fn cross_tier_rename_fails_with_exdev_same_tier_succeeds() {
    let (c, _dimm, _cold, _hot, cache) =
        tiered_setup(NvCacheConfig::tiny(), Arc::new(MemFs::new()));
    let fd = cache.open("/hot/a", OpenFlags::RDWR | OpenFlags::CREATE, &c).unwrap();
    cache.pwrite(fd, b"payload", 0, &c).unwrap();
    cache.close(fd, &c).unwrap();
    assert!(
        matches!(cache.rename("/hot/a", "/cold/a", &c), Err(IoError::CrossDevice(_))),
        "moving a file across tiers must surface EXDEV, like a mount-point crossing"
    );
    cache.rename("/hot/a", "/hot/b", &c).expect("same-tier rename");
    assert_eq!(cache.stat("/hot/b", &c).unwrap().size, 7);
    cache.shutdown(&c);
}

#[test]
fn list_dir_merges_every_tier() {
    let (c, _dimm, _cold, _hot, cache) =
        tiered_setup(NvCacheConfig::tiny(), Arc::new(MemFs::new()));
    // `/hot/*` lives on tier 1, everything else on tier 0: a directory
    // listing of `/` must see both.
    for path in ["/hot/x", "/cold"] {
        let fd = cache.open(path, OpenFlags::RDWR | OpenFlags::CREATE, &c).unwrap();
        cache.close(fd, &c).unwrap();
    }
    let listing = cache.list_dir("/hot", &c).unwrap();
    assert_eq!(listing, vec!["/hot/x".to_string()]);
    cache.shutdown(&c);
}

#[test]
fn tiered_mount_requires_enough_backends_for_the_router() {
    let clock = ActorClock::new();
    let cfg = NvCacheConfig::tiny();
    let dimm = Arc::new(NvDimm::new(cfg.required_nvmm_bytes(), NvmmProfile::instant()));
    let res = NvCache::builder(NvRegion::whole(dimm))
        .tiers(Tiering::new(
            Arc::new(PathPrefixRouter::new(vec![("/hot".into(), 3)], 0)),
            vec![Arc::new(MemFs::new()), Arc::new(MemFs::new())],
        ))
        .config(cfg)
        .mount(&clock);
    assert!(matches!(res, Err(IoError::InvalidArgument(_))));
}

#[test]
fn builder_without_backends_is_rejected() {
    let clock = ActorClock::new();
    let cfg = NvCacheConfig::tiny();
    let dimm = Arc::new(NvDimm::new(cfg.required_nvmm_bytes(), NvmmProfile::instant()));
    let res = NvCache::builder(NvRegion::whole(dimm)).config(cfg).mount(&clock);
    assert!(matches!(res, Err(IoError::InvalidArgument(_))));
}

#[test]
fn crash_mid_drain_replays_each_entry_to_its_recorded_backend() {
    // The cross-backend crash test of the acceptance criteria: files routed
    // to two different tiers, the process killed before anything drains,
    // and recovery must put every acknowledged byte back on the tier that
    // acknowledged it — resolved through the persisted backend ids, not by
    // re-routing.
    let cfg = NvCacheConfig {
        nb_entries: 256,
        // Park everything in the log: nothing reaches the tiers pre-crash.
        batch_min: usize::MAX >> 1,
        batch_max: usize::MAX >> 1,
        ..NvCacheConfig::tiny()
    };
    let (c, dimm, cold, hot, cache) = tiered_setup(cfg.clone(), Arc::new(MemFs::new()));
    let hfd = cache.open("/hot/wal", OpenFlags::RDWR | OpenFlags::CREATE, &c).unwrap();
    let cfd = cache.open("/cold/blob", OpenFlags::RDWR | OpenFlags::CREATE, &c).unwrap();
    for i in 0..20u64 {
        cache.pwrite(hfd, format!("hot-{i:03}").as_bytes(), i * 8, &c).unwrap();
        cache.pwrite(cfd, format!("cold{i:03}").as_bytes(), i * 8, &c).unwrap();
    }
    assert_eq!(cache.pending_entries(), 40, "nothing may drain before the crash");
    // Nothing on the tiers yet.
    assert_eq!(hot.stat("/hot/wal", &c).unwrap().size, 0);
    assert_eq!(cold.stat("/cold/blob", &c).unwrap().size, 0);
    cache.abort();
    drop(cache);
    let restarted = Arc::new(dimm.crash_and_restart());

    // The fd slots persisted their backend indices.
    let region = NvRegion::whole(Arc::clone(&restarted));
    assert_eq!(region.read_u64(layout::OFF_BACKENDS), 2, "the image records two backends");
    let lay = layout::Layout::for_config(&cfg);
    let mut slot_backends: Vec<u64> =
        (0..2u32).map(|s| region.read_u64(lay.fd_slot(s) + FD_BACKEND_OFF)).collect();
    slot_backends.sort();
    assert_eq!(slot_backends, vec![0, 1], "one slot per tier");

    let recovered = NvCache::builder(NvRegion::whole(restarted))
        .tiers(Tiering::new(
            Arc::new(PathPrefixRouter::new(vec![("/hot".into(), 1)], 0)),
            vec![Arc::clone(&cold), Arc::clone(&hot)],
        ))
        .config(cfg)
        .mode(Mount::Recover)
        .mount(&c)
        .expect("tiered recovery");
    let report = recovered.recovery_report().expect("recover mode");
    assert_eq!(report.entries_replayed, 40);
    assert_eq!(report.files_reopened, 2);
    assert_eq!(report.backends_touched, 2);
    assert_eq!(report.files_misplaced, 0, "the unchanged router agrees with every placement");

    // Every entry landed on its own tier.
    let h = hot.open("/hot/wal", OpenFlags::RDONLY, &c).unwrap();
    let l = cold.open("/cold/blob", OpenFlags::RDONLY, &c).unwrap();
    let mut buf = [0u8; 7];
    for i in 0..20u64 {
        hot.pread(h, &mut buf, i * 8, &c).unwrap();
        assert_eq!(&buf, format!("hot-{i:03}").as_bytes(), "hot entry {i}");
        cold.pread(l, &mut buf, i * 8, &c).unwrap();
        assert_eq!(&buf, format!("cold{i:03}").as_bytes(), "cold entry {i}");
    }
    assert!(matches!(cold.open("/hot/wal", OpenFlags::RDONLY, &c), Err(IoError::NotFound(_))));
    assert!(matches!(hot.open("/cold/blob", OpenFlags::RDONLY, &c), Err(IoError::NotFound(_))));
    assert_eq!(recovered.pending_entries(), 0);
    recovered.shutdown(&c);
}

#[test]
fn a_single_backend_image_recovers_into_two_tiers() {
    // A single-backend image recovered into a two-backend stack. Its slots
    // record backend 0, so their pending entries replay there — never lost
    // to a router that points at a tier the file was never written to —
    // and the header comes out stamped with the grown backend count.
    let cfg = NvCacheConfig {
        nb_entries: 128,
        batch_min: usize::MAX >> 1,
        batch_max: usize::MAX >> 1,
        ..NvCacheConfig::tiny()
    };
    let clock = ActorClock::new();
    let dimm = Arc::new(NvDimm::new(cfg.required_nvmm_bytes(), NvmmProfile::instant()));
    let legacy: Arc<dyn FileSystem> = Arc::new(MemFs::new());
    let cache = NvCache::builder(NvRegion::whole(Arc::clone(&dimm)))
        .backend(Arc::clone(&legacy))
        .config(cfg.clone())
        .mount(&clock)
        .unwrap();
    // Both files live on the only backend, including one whose path the
    // *future* router will claim for tier 1.
    let hfd = cache.open("/hot/wal", OpenFlags::RDWR | OpenFlags::CREATE, &clock).unwrap();
    let cfd = cache.open("/cold/blob", OpenFlags::RDWR | OpenFlags::CREATE, &clock).unwrap();
    cache.pwrite(hfd, b"claimed by tier 1", 0, &clock).unwrap();
    cache.pwrite(cfd, b"stays on tier 0", 0, &clock).unwrap();
    cache.abort();
    drop(cache);
    let restarted = Arc::new(dimm.crash_and_restart());
    assert_eq!(NvRegion::whole(Arc::clone(&restarted)).read_u64(layout::OFF_BACKENDS), 0);

    let hot: Arc<dyn FileSystem> = Arc::new(MemFs::new());
    let recovered = NvCache::builder(NvRegion::whole(Arc::clone(&restarted)))
        .tiers(Tiering::new(
            Arc::new(PathPrefixRouter::new(vec![("/hot".into(), 1)], 0)),
            vec![Arc::clone(&legacy), Arc::clone(&hot)],
        ))
        .config(cfg)
        .mode(Mount::Recover)
        .mount(&clock)
        .expect("recovery into two tiers");
    let report = recovered.recovery_report().expect("recover mode");
    assert_eq!(report.entries_replayed, 2);
    assert_eq!(report.files_reopened, 2);
    assert_eq!(report.files_missing, 0, "both files are on the backend their slots record");
    assert_eq!(report.backends_touched, 1, "everything replays to backend 0");
    assert_eq!(
        report.files_misplaced, 1,
        "/hot/wal sits on tier 0 while the router now claims it for tier 1 — \
         the mismatch must be reported, not silent"
    );

    // The acknowledged bytes are intact on tier 0…
    let f = legacy.open("/hot/wal", OpenFlags::RDONLY, &clock).unwrap();
    let mut buf = [0u8; 17];
    legacy.pread(f, &mut buf, 0, &clock).unwrap();
    assert_eq!(&buf, b"claimed by tier 1");
    // …nothing was invented on the new tier…
    assert!(matches!(hot.open("/hot/wal", OpenFlags::RDONLY, &clock), Err(IoError::NotFound(_))));
    // …and the image now records two backends.
    assert_eq!(NvRegion::whole(restarted).read_u64(layout::OFF_BACKENDS), 2);

    // New files opened after the recovery follow the router.
    let nfd = recovered.open("/hot/new", OpenFlags::RDWR | OpenFlags::CREATE, &clock).unwrap();
    recovered.pwrite(nfd, b"routed", 0, &clock).unwrap();
    recovered.flush_log(&clock);
    assert!(hot.open("/hot/new", OpenFlags::RDONLY, &clock).is_ok());
    recovered.shutdown(&clock);
}

#[test]
fn tiered_image_cannot_be_mounted_with_fewer_backends() {
    let cfg = NvCacheConfig::tiny();
    let clock = ActorClock::new();
    let dimm = Arc::new(NvDimm::new(cfg.required_nvmm_bytes(), NvmmProfile::instant()));
    let (_c2, _dimm2, _cold, _hot, cache) = {
        let clock = ActorClock::new();
        let cold: Arc<dyn FileSystem> = Arc::new(MemFs::new());
        let hot: Arc<dyn FileSystem> = Arc::new(MemFs::new());
        let cache = NvCache::builder(NvRegion::whole(Arc::clone(&dimm)))
            .tiers(Tiering::new(
                Arc::new(PathPrefixRouter::new(vec![("/hot".into(), 1)], 0)),
                vec![Arc::clone(&cold), Arc::clone(&hot)],
            ))
            .config(cfg.clone())
            .mount(&clock)
            .unwrap();
        (clock, Arc::clone(&dimm), cold, hot, cache)
    };
    cache.abort();
    drop(cache);
    let restarted = Arc::new(dimm.crash_and_restart());
    let res = NvCache::builder(NvRegion::whole(restarted))
        .backend(Arc::new(MemFs::new()))
        .config(cfg)
        .mode(Mount::Recover)
        .mount(&clock);
    assert!(
        matches!(res, Err(IoError::InvalidArgument(_))),
        "a tiered image must refuse to shrink below its recorded backend count"
    );
}

#[test]
fn persisted_backend_beats_a_changed_router_policy() {
    // The acceptance criterion's sharp edge: after a crash, the router's
    // policy may have changed — recovery must still replay to the backend
    // that acknowledged the write (the persisted id), not re-route.
    let cfg = NvCacheConfig {
        nb_entries: 128,
        batch_min: usize::MAX >> 1,
        batch_max: usize::MAX >> 1,
        ..NvCacheConfig::tiny()
    };
    let (c, dimm, cold, hot, cache) = tiered_setup(cfg.clone(), Arc::new(MemFs::new()));
    let fd = cache.open("/hot/wal", OpenFlags::RDWR | OpenFlags::CREATE, &c).unwrap();
    cache.pwrite(fd, b"tier-1 bytes", 0, &c).unwrap();
    cache.abort();
    drop(cache);
    let restarted = Arc::new(dimm.crash_and_restart());

    // Remount with an *inverted* policy: /hot now maps to tier 0.
    #[derive(Debug)]
    struct Inverted;
    impl Router for Inverted {
        fn route(&self, path: &str) -> usize {
            usize::from(!path.starts_with("/hot"))
        }
        fn fan_out(&self) -> usize {
            2
        }
    }
    let recovered = NvCache::builder(NvRegion::whole(restarted))
        .tiers(Tiering::new(Arc::new(Inverted), vec![Arc::clone(&cold), Arc::clone(&hot)]))
        .config(cfg)
        .mode(Mount::Recover)
        .mount(&c)
        .expect("recovery");
    assert_eq!(recovered.recovery_report().unwrap().entries_replayed, 1);
    // The bytes are on the tier that acknowledged them (1), not where the
    // new policy would place the path (0).
    let f = hot.open("/hot/wal", OpenFlags::RDONLY, &c).unwrap();
    let mut buf = [0u8; 12];
    hot.pread(f, &mut buf, 0, &c).unwrap();
    assert_eq!(&buf, b"tier-1 bytes");
    assert!(matches!(cold.open("/hot/wal", OpenFlags::RDONLY, &c), Err(IoError::NotFound(_))));
    recovered.shutdown(&c);
}

#[test]
fn fd_slots_store_the_backend_word_after_the_path() {
    // Layout regression guard: the path sits NUL-padded right after the
    // valid word, the backend word after the path.
    let lay = layout::Layout::for_config(&NvCacheConfig::tiny());
    let (c, dimm, _cold, _hot, cache) = tiered_setup(NvCacheConfig::tiny(), Arc::new(MemFs::new()));
    let fd = cache.open("/hot/p", OpenFlags::RDWR | OpenFlags::CREATE, &c).unwrap();
    let region = NvRegion::whole(Arc::clone(&dimm));
    // Slot 0 was handed to the first open.
    let base = lay.fd_slot(0);
    assert_eq!(region.read_u64(base), 1, "slot valid");
    let mut path = [0u8; 7];
    region.read_cached(base + FD_PATH_OFF, &mut path);
    assert_eq!(&path, b"/hot/p\0");
    assert_eq!(region.read_u64(base + FD_BACKEND_OFF), 1, "backend word");
    cache.close(fd, &c).unwrap();
    cache.shutdown(&c);
}

#[test]
fn a_single_backend_slot_is_the_seed_slot() {
    // The backend and heat words of a single-backend mount are 0 and land
    // where the seed slot had path padding: the slot is the seed's.
    let clock = ActorClock::new();
    let cfg = NvCacheConfig::tiny();
    let dimm = Arc::new(NvDimm::new(cfg.required_nvmm_bytes(), NvmmProfile::optane()));
    let cache = NvCache::builder(NvRegion::whole(Arc::clone(&dimm)))
        .backend(Arc::new(MemFs::new()))
        .config(cfg.clone())
        .mount(&clock)
        .unwrap();
    let fd = cache.open("/seed", OpenFlags::RDWR | OpenFlags::CREATE, &clock).unwrap();
    let mut slot = [0u8; FD_SLOT_BYTES as usize];
    dimm.read_cached(layout::Layout::for_config(&cfg).fd_slot(0), &mut slot);
    let mut seed = [0u8; FD_SLOT_BYTES as usize];
    seed[..8].copy_from_slice(&1u64.to_le_bytes());
    seed[8..13].copy_from_slice(b"/seed");
    assert_eq!(slot, seed);
    cache.close(fd, &clock).unwrap();
    cache.shutdown(&clock);
}

#[test]
fn single_backend_router_is_the_implicit_default() {
    let r = SingleBackend;
    assert_eq!(r.route("/whatever"), 0);
}

/// A backend whose `list_dir` always fails with a *real* I/O error (not
/// `NotFound`) — a [`vfs::FaultLayer`] rule, fault injection for the
/// merged-listing path.
fn broken_list_fs(inner: Arc<dyn FileSystem>) -> Arc<dyn FileSystem> {
    use vfs::{FaultLayer, FaultOp, FaultRule, FaultTrigger, Layer};
    FaultLayer::new(vec![FaultRule::new(FaultOp::ListDir, FaultTrigger::AfterBudget(0))
        .with_error(IoError::Other("injected list_dir failure".into()))])
    .wrap(inner)
}

#[test]
fn list_dir_propagates_real_backend_errors_instead_of_partial_listings() {
    // Regression: a non-NotFound error from one tier used to be swallowed
    // whenever another tier answered — the merged listing was silently
    // partial. Only absence may be tolerated.
    let clock = ActorClock::new();
    let cfg = NvCacheConfig::tiny();
    let dimm = Arc::new(NvDimm::new(cfg.required_nvmm_bytes(), NvmmProfile::instant()));
    let broken = broken_list_fs(Arc::new(MemFs::new()));
    let cache = NvCache::builder(NvRegion::whole(dimm))
        .tiers(Tiering::new(
            Arc::new(PathPrefixRouter::new(vec![("/hot".into(), 1)], 0)),
            vec![Arc::new(MemFs::new()), broken],
        ))
        .config(cfg)
        .mount(&clock)
        .unwrap();
    // The healthy tier knows the directory; the broken one errors — the
    // listing must fail loudly, not come back partial.
    let fd = cache
        .open("/dir/on-tier0", OpenFlags::RDWR | OpenFlags::CREATE, &clock)
        .unwrap();
    cache.close(fd, &clock).unwrap();
    let res = cache.list_dir("/dir", &clock);
    assert!(
        matches!(res, Err(IoError::Other(_))),
        "a real backend error must propagate, got {res:?}"
    );
    cache.shutdown(&clock);
}

#[test]
fn stat_and_unlink_reach_misplaced_files_on_their_recorded_tier() {
    // Regression: `unlink`/`stat` routed by the *current* policy only, so a
    // policy-orphaned file reported ENOENT while its bytes sat intact on
    // another tier. The probe must honour recorded placement and fall back
    // across tiers.
    let cfg = NvCacheConfig {
        nb_entries: 128,
        batch_min: usize::MAX >> 1,
        batch_max: usize::MAX >> 1,
        ..NvCacheConfig::tiny()
    };
    let clock = ActorClock::new();
    let dimm = Arc::new(NvDimm::new(cfg.required_nvmm_bytes(), NvmmProfile::instant()));
    let legacy: Arc<dyn FileSystem> = Arc::new(MemFs::new());
    let cache = NvCache::builder(NvRegion::whole(Arc::clone(&dimm)))
        .backend(Arc::clone(&legacy))
        .config(cfg.clone())
        .mount(&clock)
        .unwrap();
    let fd = cache.open("/hot/orphan", OpenFlags::RDWR | OpenFlags::CREATE, &clock).unwrap();
    cache.pwrite(fd, b"orphaned bytes", 0, &clock).unwrap();
    cache.abort();
    drop(cache);
    let restarted = Arc::new(dimm.crash_and_restart());

    // Recover into a stack whose router claims /hot/** for tier 1: the
    // file replays to tier 0 and is misplaced from now on.
    let hot: Arc<dyn FileSystem> = Arc::new(MemFs::new());
    let recovered = NvCache::builder(NvRegion::whole(restarted))
        .tiers(Tiering::new(
            Arc::new(PathPrefixRouter::new(vec![("/hot".into(), 1)], 0)),
            vec![Arc::clone(&legacy), Arc::clone(&hot)],
        ))
        .config(cfg)
        .mode(Mount::Recover)
        .mount(&clock)
        .expect("recovery");
    assert_eq!(recovered.recovery_report().unwrap().files_misplaced, 1);

    // stat finds the misplaced file (pre-fix: ENOENT from the routed tier).
    assert_eq!(recovered.stat("/hot/orphan", &clock).unwrap().size, 14);
    // unlink removes the actual bytes (pre-fix: ENOENT, bytes left behind).
    recovered
        .unlink("/hot/orphan", &clock)
        .expect("unlink must reach the recorded tier");
    assert!(matches!(legacy.stat("/hot/orphan", &clock), Err(IoError::NotFound(_))));
    assert!(matches!(recovered.stat("/hot/orphan", &clock), Err(IoError::NotFound(_))));
    recovered.shutdown(&clock);
}

#[test]
fn rename_of_a_missing_source_is_enoent_not_exdev() {
    // Regression: `rename("/hot/nope", "/cold/x")` compared routes before
    // checking existence, reporting EXDEV for a file that does not exist.
    // POSIX orders ENOENT first.
    let (c, _dimm, _cold, _hot, cache) =
        tiered_setup(NvCacheConfig::tiny(), Arc::new(MemFs::new()));
    let res = cache.rename("/hot/nope", "/cold/nope", &c);
    assert!(
        matches!(res, Err(IoError::NotFound(_))),
        "nonexistent source must be ENOENT even across tiers, got {res:?}"
    );
    // A real cross-tier source still reports EXDEV (default flag).
    let fd = cache.open("/hot/real", OpenFlags::RDWR | OpenFlags::CREATE, &c).unwrap();
    cache.close(fd, &c).unwrap();
    assert!(matches!(cache.rename("/hot/real", "/cold/real", &c), Err(IoError::CrossDevice(_))));
    cache.shutdown(&c);
}

#[test]
fn unlinked_file_slot_is_cleared_by_migration_so_the_region_stays_mountable() {
    // A valid slot whose file was unlinked behind the mount's back cannot
    // be reopened by recovery. Its entries are discarded and the slot is
    // cleared, so the next recovery — here of a single-backend image
    // recovered into two tiers — does not look for the file again.
    let cfg = NvCacheConfig {
        nb_entries: 128,
        batch_min: usize::MAX >> 1,
        batch_max: usize::MAX >> 1,
        ..NvCacheConfig::tiny()
    };
    let clock = ActorClock::new();
    let dimm = Arc::new(NvDimm::new(cfg.required_nvmm_bytes(), NvmmProfile::instant()));
    let legacy: Arc<dyn FileSystem> = Arc::new(MemFs::new());
    let cache = NvCache::builder(NvRegion::whole(Arc::clone(&dimm)))
        .backend(Arc::clone(&legacy))
        .config(cfg.clone())
        .mount(&clock)
        .unwrap();
    let fd = cache.open("/hot/gone", OpenFlags::RDWR | OpenFlags::CREATE, &clock).unwrap();
    cache.pwrite(fd, b"will be unlinked", 0, &clock).unwrap();
    // The file is removed behind the mount's back while the descriptor
    // stays open (its persistent slot therefore stays valid — an `unlink`
    // through the mount would have invalidated it), then crash.
    legacy.unlink("/hot/gone", &clock).unwrap();
    cache.abort();
    drop(cache);
    let restarted = Arc::new(dimm.crash_and_restart());

    // First recovery, into a two-tier stack: the dead file is found nowhere,
    // its entries are discarded, and its slot must be cleared.
    let hot: Arc<dyn FileSystem> = Arc::new(MemFs::new());
    let router = || Arc::new(PathPrefixRouter::new(vec![("/hot".into(), 1)], 0));
    let recovered = NvCache::builder(NvRegion::whole(Arc::clone(&restarted)))
        .tiers(Tiering::new(router(), vec![Arc::clone(&legacy), Arc::clone(&hot)]))
        .config(cfg.clone())
        .mode(Mount::Recover)
        .mount(&clock)
        .expect("recovery into two tiers");
    let report = recovered.recovery_report().unwrap();
    assert_eq!(report.files_missing, 1, "a valid slot whose file is gone: removed on the inner fs");
    assert_eq!(report.entries_replayed, 0);
    recovered.abort();
    drop(recovered);

    // Second crash + recovery: the cleared slot is not counted again.
    let restarted = Arc::new(restarted.crash_and_restart());
    let recovered = NvCache::builder(NvRegion::whole(restarted))
        .tiers(Tiering::new(router(), vec![legacy, hot]))
        .config(cfg)
        .mode(Mount::Recover)
        .mount(&clock)
        .expect("the image stays recoverable");
    assert_eq!(recovered.recovery_report().unwrap().files_missing, 0);
    recovered.shutdown(&clock);
}

#[test]
fn an_unlinked_file_is_never_catalogued() {
    // Regression: `unlink` forgot the path, then the victim's zombie
    // finished its drain and `finish_close` catalogued the deleted path
    // again — one `catalog_capacity` seat per journal until a sweep tripped
    // over `NotFound`.
    let cfg = NvCacheConfig { fd_slots: 64, ..NvCacheConfig::tiny() };
    let (c, _dimm, _cold, _hot, cache) = tiered_setup_with(cfg, Arc::new(MemFs::new()), |t| {
        t.migration(crate::MigrationPolicy::OnDemand).catalog_capacity(8)
    });
    let create = OpenFlags::RDWR | OpenFlags::CREATE;
    let db = cache.open("/hot/db", create, &c).unwrap();
    cache.pwrite(db, b"page", 0, &c).unwrap();
    cache.flush_log(&c);
    let resident = cache.catalog_resident();
    for txn in 0..1000u64 {
        let journal = format!("/hot/db-journal-{}", txn % 5);
        let j = cache.open(&journal, create, &c).unwrap();
        cache.pwrite(j, &txn.to_le_bytes(), 0, &c).unwrap();
        cache.pwrite(db, &txn.to_le_bytes(), 8 * txn, &c).unwrap();
        // Mostly a zombie (its entry is pending): the drain finishes it
        // after the unlink below.
        cache.close(j, &c).unwrap();
        cache.unlink(&journal, &c).unwrap();
    }
    cache.shutdown(&c); // joins the workers: every journal's zombie has finished
    assert_eq!(cache.fd_slot_usage().2, 0);
    assert_eq!(cache.catalog_resident(), resident, "no deleted journal sits in the catalog");
    let snap = cache.stats().snapshot();
    // A journal whose close found the log drained finished on the spot and
    // left nothing to bury; one entry each, dropped only once buried.
    assert!(snap.entries_elided <= snap.files_buried && snap.files_buried <= 1000, "{snap:?}");
    assert_eq!(snap.entries_propagated, 2001, "every entry is consumed, written or not");
}

#[test]
fn a_path_past_the_fd_slot_is_an_error_and_one_at_the_limit_survives_a_crash() {
    // One slot shape, 232 path bytes, on a single-backend mount and on a
    // tiered one. The tiered mount may migrate, so `open` holds a gate lease
    // there.
    fn on_demand(tiers: Vec<Arc<dyn FileSystem>>) -> Tiering {
        let router = Arc::new(PathPrefixRouter::new(vec![("/hot".into(), 1)], 0));
        Tiering::new(router, tiers).migration(crate::MigrationPolicy::OnDemand)
    }
    type Below = fn(Vec<Arc<dyn FileSystem>>) -> Tiering;
    let layouts: [(usize, usize, Below); 2] = [
        (layout::PATH_MAX, 1, |tiers| Tiering::new(Arc::new(SingleBackend), tiers)),
        (layout::PATH_MAX, 2, on_demand),
    ];
    for (limit, tiers, below) in layouts {
        let clock = ActorClock::new();
        let cfg = NvCacheConfig::tiny();
        let dimm = Arc::new(NvDimm::new(cfg.required_nvmm_bytes(), NvmmProfile::instant()));
        let inners: Vec<Arc<dyn FileSystem>> =
            (0..tiers).map(|_| Arc::new(MemFs::new()) as Arc<dyn FileSystem>).collect();
        let cache = NvCache::builder(NvRegion::whole(Arc::clone(&dimm)))
            .tiers(below(inners.clone()))
            .config(cfg.clone())
            .mount(&clock)
            .unwrap();
        let create = OpenFlags::RDWR | OpenFlags::CREATE;
        let usage = cache.fd_slot_usage();

        let too_long = format!("/{}", "x".repeat(limit));
        let refused = cache.open(&too_long, create, &clock);
        assert!(
            matches!(&refused, Err(IoError::InvalidArgument(why)) if why.contains(&limit.to_string())),
            "{limit}: {refused:?}"
        );
        for inner in &inners {
            assert!(matches!(inner.stat(&too_long, &clock), Err(IoError::NotFound(_))));
        }
        assert_eq!(cache.fd_slot_usage(), usage, "{limit}: no slot consumed");
        if tiers > 1 {
            // No lease outlives the refused open: a leaked one would make
            // the path Busy forever.
            let moved = cache.migrate(&too_long, 1, &clock);
            assert!(matches!(moved, Err(IoError::NotFound(_))), "{limit}: {moved:?}");
            let fd = cache.open("/hot/src", create, &clock).unwrap();
            cache.close(fd, &clock).unwrap();
            let renamed = cache.rename("/hot/src", &too_long, &clock);
            assert!(matches!(renamed, Err(IoError::InvalidArgument(_))), "{limit}: {renamed:?}");
            assert!(cache.stat("/hot/src", &clock).is_ok(), "{limit}: the source stays");
        }

        let longest = format!("/{}", "x".repeat(limit - 1));
        let fd = cache.open(&longest, create, &clock).unwrap();
        cache.pwrite(fd, b"at the limit", 0, &clock).unwrap();
        cache.abort();
        drop(cache);
        let restarted = Arc::new(dimm.crash_and_restart());
        let recovered = NvCache::builder(NvRegion::whole(restarted))
            .tiers(below(inners))
            .config(cfg)
            .mode(Mount::Recover)
            .mount(&clock)
            .unwrap();
        assert_eq!(recovered.recovery_report().unwrap().files_reopened, 1, "{limit}");
        assert_eq!(recovered.stat(&longest, &clock).unwrap().size, 12, "{limit}");
        recovered.shutdown(&clock);
    }
}
