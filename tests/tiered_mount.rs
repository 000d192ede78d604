//! A real legacy engine over a tiered mount: the unmodified rocklet LSM
//! store runs on an NVCache stack whose [`Router`] pins WAL files to a NOVA
//! tier while SSTables and the manifest go to Ext4+SSD — the "hot files
//! over NOVA, cold bulk over ext4" deployment of the ROADMAP's multi-backend
//! item, crash-recovered end to end through the fd table's backend words.

use std::sync::Arc;

use nvcache_repro::nvcache::{NvCacheConfig, Router};
use nvcache_repro::nvmm::{NvDimm, NvRegion, NvmmProfile};
use nvcache_repro::rocklet::{RockletDb, RockletOptions, WriteOptions};
use nvcache_repro::vfs::{FileSystem, NovaFs, NovaProfile, OpenFlags};

use nvcache_bench::rig::{Below, Rig};

/// Tier 1 for write-ahead logs (`…/wal-*`), tier 0 for everything else —
/// a policy a path prefix cannot express, showing the trait is the
/// extension point.
#[derive(Debug)]
struct WalRouter;

impl Router for WalRouter {
    fn route(&self, path: &str) -> usize {
        usize::from(path.rsplit('/').next().is_some_and(|f| f.starts_with("wal-")))
    }

    fn fan_out(&self) -> usize {
        2
    }

    fn name(&self) -> &str {
        "wal-affinity"
    }
}

/// Ext4 on an SSD for the bulk tier, NOVA on its own DIMM for the WALs.
fn tiers() -> Below {
    let dimm = Arc::new(NvDimm::new(64 << 20, NvmmProfile::optane()));
    let hot = Arc::new(NovaFs::new(NvRegion::whole(dimm), NovaProfile::default()));
    let bulk = Below::ext4(1).bases.remove(0);
    Below { router: Arc::new(WalRouter), ..Below::over(vec![bulk, hot]) }
}

#[test]
fn lsm_engine_runs_and_recovers_on_a_wal_tiered_mount() {
    let cfg = NvCacheConfig { nb_entries: 4096, fd_slots: 32, ..NvCacheConfig::tiny() };
    let (rig, cache) = Rig::new(cfg, tiers());
    let (clock, bulk, hot) = (&rig.clock, &rig.below.bases[0], &rig.below.bases[1]);
    let cache = Arc::new(cache);

    // Small memtable so the run produces SSTables (bulk tier) and WAL
    // rotations (hot tier).
    let opts = RockletOptions {
        memtable_bytes: 4 << 10,
        target_table_bytes: 8 << 10,
        ..RockletOptions::default()
    };
    let db = RockletDb::open(Arc::clone(&cache) as Arc<dyn FileSystem>, "/db", opts.clone(), clock)
        .expect("open db");
    let wo = WriteOptions { sync: true };
    for i in 0..200u64 {
        db.put(format!("key-{i:05}").as_bytes(), format!("value-{i}").as_bytes(), &wo, clock)
            .expect("put");
    }
    cache.flush_log(clock);

    // Placement assertions: every WAL file sits on the NOVA tier, every
    // SSTable / manifest on the Ext4 tier, and neither tier holds the
    // other's files.
    let hot_files = hot.list_dir("/db", clock).expect("hot listing");
    let bulk_files = bulk.list_dir("/db", clock).expect("bulk listing");
    assert!(!hot_files.is_empty(), "WAL tier must hold the write-ahead logs");
    assert!(
        hot_files.iter().all(|f| f.starts_with("/db/wal-")),
        "only WALs on the hot tier: {hot_files:?}"
    );
    assert!(
        bulk_files.iter().any(|f| f.ends_with(".sst")),
        "flushes must have produced SSTables on the bulk tier: {bulk_files:?}"
    );
    assert!(
        bulk_files.iter().all(|f| !f.starts_with("/db/wal-")),
        "no WALs on the bulk tier: {bulk_files:?}"
    );
    // The merged view the application sees covers both tiers.
    let merged = cache.list_dir("/db", clock).expect("merged listing");
    assert_eq!(merged.len(), hot_files.len() + bulk_files.len());

    // Crash: nothing volatile survives, the NVMM log replays every
    // acknowledged write back to its recorded tier, and the engine's own
    // WAL replay finds its files where it left them.
    drop(db);
    rig.crash(&cache, 0);
    let recovered = Arc::new(rig.recover());
    let db = RockletDb::open(Arc::clone(&recovered) as Arc<dyn FileSystem>, "/db", opts, clock)
        .expect("reopen db");
    for i in 0..200u64 {
        let got = db.get(format!("key-{i:05}").as_bytes(), clock).expect("get");
        assert_eq!(
            got.as_deref(),
            Some(format!("value-{i}").as_bytes()),
            "key-{i:05} lost across the tiered crash"
        );
    }
    drop(db);
    recovered.shutdown(clock);
}

#[test]
fn tiered_mount_is_posix_for_the_engine_paths() {
    // The conformance suite again, this time over the WAL-affinity router
    // (its `/conf/*` paths are non-WAL and land on the bulk tier, while the
    // mount still carries two backends).
    let (Rig { clock, .. }, cache) = Rig::new(NvCacheConfig::tiny(), tiers());
    nvcache_repro::vfs::check_posix_semantics(&cache);
    cache.shutdown(&clock);
}

#[test]
fn open_fds_keep_serving_reads_from_both_tiers() {
    let (rig, cache) = Rig::new(NvCacheConfig::tiny(), tiers());
    let (clock, bulk, hot) = (&rig.clock, &rig.below.bases[0], &rig.below.bases[1]);
    let wal = cache.open("/wal-1", OpenFlags::RDWR | OpenFlags::CREATE, clock).unwrap();
    let sst = cache.open("/data.sst", OpenFlags::RDWR | OpenFlags::CREATE, clock).unwrap();
    cache.pwrite(wal, b"hot", 0, clock).unwrap();
    cache.pwrite(sst, b"bulk", 0, clock).unwrap();
    cache.flush_log(clock);
    let mut buf = [0u8; 4];
    cache.pread(wal, &mut buf[..3], 0, clock).unwrap();
    assert_eq!(&buf[..3], b"hot");
    cache.pread(sst, &mut buf, 0, clock).unwrap();
    assert_eq!(&buf, b"bulk");
    // And the bytes physically live on their tiers.
    assert!(hot.stat("/wal-1", clock).is_ok());
    assert!(bulk.stat("/data.sst", clock).is_ok());
    assert!(hot.stat("/data.sst", clock).is_err());
    cache.shutdown(clock);
}
