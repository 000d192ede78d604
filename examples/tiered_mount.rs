//! Multi-backend tiering: one NVCache mount spreading files over two legacy
//! file systems — hot paths on NOVA (NVMM), cold bulk on Ext4+SSD — with a
//! crash in between to show recovery replaying every acknowledged write to
//! the tier that acknowledged it.
//!
//! Run with: `cargo run --example tiered_mount`

use std::error::Error;
use std::sync::Arc;

use nvcache_repro::blockdev::{SsdDevice, SsdProfile};
use nvcache_repro::nvcache::{Mount, NvCache, NvCacheConfig, PathPrefixRouter, Router, Tiering};
use nvcache_repro::nvmm::{NvDimm, NvRegion, NvmmProfile};
use nvcache_repro::simclock::ActorClock;
use nvcache_repro::vfs::{Ext4, Ext4Profile, FileSystem, NovaFs, NovaProfile, OpenFlags};

fn main() -> Result<(), Box<dyn Error>> {
    let clock = ActorClock::new();

    // Two tiers: NOVA in NVMM for hot files, Ext4 over an SSD for bulk.
    let nova_dimm = Arc::new(NvDimm::new(128 << 20, NvmmProfile::optane()));
    let hot: Arc<dyn FileSystem> =
        Arc::new(NovaFs::new(NvRegion::whole(nova_dimm), NovaProfile::default()));
    let ssd = Arc::new(SsdDevice::new(SsdProfile::s4600()));
    let bulk: Arc<dyn FileSystem> = Arc::new(Ext4::new("ext4+ssd", ssd, Ext4Profile::default()));

    // One NVCache mount over both, routed by path prefix: /hot/** lands on
    // NOVA (tier 1), everything else on the SSD (tier 0). The log itself
    // lives in its own NVMM region, as usual.
    let cfg = NvCacheConfig {
        nb_entries: 8192,
        batch_min: usize::MAX >> 1, // park the drain: the crash finds everything in the log
        batch_max: usize::MAX >> 1,
        ..NvCacheConfig::tiny()
    };
    let log_dimm = Arc::new(NvDimm::new(cfg.required_nvmm_bytes(), NvmmProfile::optane()));
    let router: Arc<dyn Router> = Arc::new(PathPrefixRouter::new(vec![("/hot".into(), 1)], 0));
    let cache = NvCache::builder(NvRegion::whole(Arc::clone(&log_dimm)))
        .tiers(Tiering::new(Arc::clone(&router), vec![Arc::clone(&bulk), Arc::clone(&hot)]))
        .config(cfg.clone())
        .mount(&clock)?;
    println!("mounted: {}", cache.name());

    let wal = cache.open("/hot/wal.log", OpenFlags::RDWR | OpenFlags::CREATE, &clock)?;
    let blob = cache.open("/archive/blob", OpenFlags::RDWR | OpenFlags::CREATE, &clock)?;
    for i in 0..64u64 {
        cache.pwrite(wal, format!("txn-{i:04}").as_bytes(), i * 8, &clock)?;
        cache.pwrite(blob, &[i as u8 + 1; 512], i * 512, &clock)?;
    }
    println!(
        "acknowledged 128 writes across two tiers; {} entries pending in NVMM",
        cache.pending_entries()
    );

    // ---- power failure ---------------------------------------------------
    cache.abort();
    drop(cache);
    let restarted = Arc::new(log_dimm.crash_and_restart());

    // ---- reboot + tiered recovery ----------------------------------------
    let recovered = NvCache::builder(NvRegion::whole(restarted))
        .tiers(Tiering::new(router, vec![Arc::clone(&bulk), Arc::clone(&hot)]))
        .config(cfg)
        .mode(Mount::Recover)
        .mount(&clock)?;
    let report = recovered.recovery_report().expect("recover mode");
    println!(
        "recovery: {} entries replayed onto {} tiers ({} files)",
        report.entries_replayed, report.backends_touched, report.files_reopened
    );

    // Each tier holds exactly its own files — resolved from the fd table's
    // persisted backend ids, not by re-routing.
    let wal_on_hot = hot.stat("/hot/wal.log", &clock)?.size;
    let blob_on_bulk = bulk.stat("/archive/blob", &clock)?.size;
    assert!(hot.stat("/archive/blob", &clock).is_err(), "bulk data must not be on NOVA");
    assert!(bulk.stat("/hot/wal.log", &clock).is_err(), "the WAL must not be on the SSD");
    println!("NOVA tier   : /hot/wal.log   ({wal_on_hot} bytes)");
    println!("SSD tier    : /archive/blob  ({blob_on_bulk} bytes)");

    let fd = recovered.open("/hot/wal.log", OpenFlags::RDONLY, &clock)?;
    let mut buf = [0u8; 8];
    recovered.pread(fd, &mut buf, 63 * 8, &clock)?;
    assert_eq!(&buf, b"txn-0063");
    println!("last acknowledged transaction survived on its tier ✓");
    recovered.shutdown(&clock);
    Ok(())
}
