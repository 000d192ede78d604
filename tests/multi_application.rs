//! Paper §III "Multi-application": two NVCache instances share one NVMM
//! module, split into two regions (the equivalent of two DAX files), each
//! in front of its own file system — and crash-recover independently.

use std::sync::Arc;

use nvcache_repro::nvcache::{Mount, NvCache, NvCacheConfig};
use nvcache_repro::nvmm::{NvDimm, NvRegion, NvmmProfile};
use nvcache_repro::simclock::ActorClock;
use nvcache_repro::vfs::{FileSystem, MemFs, OpenFlags};

use nvcache_bench::rig::parked;

// Two mounts share one DIMM here, so they assemble their own stacks.
fn mount(
    region: NvRegion,
    inner: &Arc<dyn FileSystem>,
    cfg: &NvCacheConfig,
    clock: &ActorClock,
) -> NvCache {
    NvCache::builder(region)
        .backend(Arc::clone(inner))
        .config(cfg.clone())
        .mount(clock)
        .expect("mount")
}

fn remount(
    region: NvRegion,
    inner: &Arc<dyn FileSystem>,
    cfg: &NvCacheConfig,
    clock: &ActorClock,
) -> NvCache {
    NvCache::builder(region)
        .backend(Arc::clone(inner))
        .config(cfg.clone())
        .mode(Mount::Recover)
        .mount(clock)
        .expect("recover")
}

/// Everything stays in the logs.
fn cfg() -> NvCacheConfig {
    parked(NvCacheConfig { nb_entries: 128, fd_slots: 8, ..NvCacheConfig::tiny() })
}

#[test]
fn two_instances_share_one_dimm() {
    let clock = ActorClock::new();
    let cfg = cfg();
    let per_instance = cfg.required_nvmm_bytes();
    let dimm = Arc::new(NvDimm::new(per_instance * 2, NvmmProfile::instant()));
    let region_a = NvRegion::new(Arc::clone(&dimm), 0, per_instance);
    let region_b = NvRegion::new(Arc::clone(&dimm), per_instance, per_instance);

    let inner_a: Arc<dyn FileSystem> = Arc::new(MemFs::new());
    let inner_b: Arc<dyn FileSystem> = Arc::new(MemFs::new());
    let app_a = mount(region_a.clone(), &inner_a, &cfg, &clock);
    let app_b = mount(region_b.clone(), &inner_b, &cfg, &clock);

    let fa = app_a.open("/a", OpenFlags::RDWR | OpenFlags::CREATE, &clock).unwrap();
    let fb = app_b.open("/b", OpenFlags::RDWR | OpenFlags::CREATE, &clock).unwrap();
    for i in 0..50u64 {
        app_a.pwrite(fa, &[0xAA; 100], i * 100, &clock).unwrap();
        app_b.pwrite(fb, &[0xBB; 100], i * 100, &clock).unwrap();
    }

    // Instances are isolated: A's content never appears in B.
    let mut buf = [0u8; 100];
    app_a.pread(fa, &mut buf, 0, &clock).unwrap();
    assert_eq!(buf, [0xAA; 100]);
    app_b.pread(fb, &mut buf, 0, &clock).unwrap();
    assert_eq!(buf, [0xBB; 100]);

    // Whole-machine power failure: both recover from their own region.
    app_a.abort();
    app_b.abort();
    drop((app_a, app_b));
    let restarted = Arc::new(dimm.crash_and_restart());
    let region_a = NvRegion::new(Arc::clone(&restarted), 0, per_instance);
    let region_b = NvRegion::new(Arc::clone(&restarted), per_instance, per_instance);
    let rec_a = remount(region_a, &inner_a, &cfg, &clock);
    let rec_b = remount(region_b, &inner_b, &cfg, &clock);
    assert_eq!(rec_a.recovery_report().unwrap().entries_replayed, 50);
    assert_eq!(rec_b.recovery_report().unwrap().entries_replayed, 50);

    let fa = rec_a.open("/a", OpenFlags::RDONLY, &clock).unwrap();
    let fb = rec_b.open("/b", OpenFlags::RDONLY, &clock).unwrap();
    rec_a.pread(fa, &mut buf, 49 * 100, &clock).unwrap();
    assert_eq!(buf, [0xAA; 100]);
    rec_b.pread(fb, &mut buf, 49 * 100, &clock).unwrap();
    assert_eq!(buf, [0xBB; 100]);
    rec_a.shutdown(&clock);
    rec_b.shutdown(&clock);
}

#[test]
fn crash_of_one_instance_does_not_disturb_the_other() {
    let clock = ActorClock::new();
    let cfg = cfg();
    let per_instance = cfg.required_nvmm_bytes();
    let dimm = Arc::new(NvDimm::new(per_instance * 2, NvmmProfile::instant()));
    let inner_a: Arc<dyn FileSystem> = Arc::new(MemFs::new());
    let inner_b: Arc<dyn FileSystem> = Arc::new(MemFs::new());

    let app_a = mount(NvRegion::new(Arc::clone(&dimm), 0, per_instance), &inner_a, &cfg, &clock);
    let app_b =
        mount(NvRegion::new(Arc::clone(&dimm), per_instance, per_instance), &inner_b, &cfg, &clock);

    let fa = app_a.open("/a", OpenFlags::RDWR | OpenFlags::CREATE, &clock).unwrap();
    app_a.pwrite(fa, b"application A state", 0, &clock).unwrap();

    // Application B dies (process crash, machine stays up) and restarts via
    // recovery over its own region; A keeps running untouched.
    let fb = app_b.open("/b", OpenFlags::RDWR | OpenFlags::CREATE, &clock).unwrap();
    app_b.pwrite(fb, b"application B state", 0, &clock).unwrap();
    app_b.abort();
    drop(app_b);
    let rec_b = remount(
        NvRegion::new(Arc::clone(&dimm), per_instance, per_instance),
        &inner_b,
        &cfg,
        &clock,
    );

    let mut buf = [0u8; 19];
    app_a.pread(fa, &mut buf, 0, &clock).unwrap();
    assert_eq!(&buf, b"application A state");
    let fb = rec_b.open("/b", OpenFlags::RDONLY, &clock).unwrap();
    rec_b.pread(fb, &mut buf, 0, &clock).unwrap();
    assert_eq!(&buf, b"application B state");
    app_a.shutdown(&clock);
    rec_b.shutdown(&clock);
}
