//! Crash injection end to end: acknowledge writes, pull the power, lose the
//! kernel's volatile state, then let NVCache's recovery replay the NVMM log
//! — every acknowledged write survives, every torn write is discarded.
//!
//! Run with: `cargo run --example crash_recovery`

use std::error::Error;
use std::sync::Arc;

use nvcache_repro::blockdev::{SsdDevice, SsdProfile};
use nvcache_repro::nvcache::{Mount, NvCache, NvCacheConfig};
use nvcache_repro::nvmm::{NvDimm, NvRegion, NvmmProfile};
use nvcache_repro::simclock::ActorClock;
use nvcache_repro::vfs::{Ext4, Ext4Profile, FileSystem, OpenFlags};

fn main() -> Result<(), Box<dyn Error>> {
    let clock = ActorClock::new();
    // Cleanup batching set sky-high: nothing reaches the disk before the
    // crash, so every byte must come back from the NVMM log alone.
    let cfg = NvCacheConfig {
        nb_entries: 4096,
        batch_min: usize::MAX >> 1,
        batch_max: usize::MAX >> 1,
        ..NvCacheConfig::tiny()
    };
    let dimm = Arc::new(NvDimm::new(cfg.required_nvmm_bytes(), NvmmProfile::optane()));
    let ssd = Arc::new(SsdDevice::new(SsdProfile::s4600()));
    let inner: Arc<dyn FileSystem> = Arc::new(Ext4::new("ext4+ssd", ssd, Ext4Profile::default()));
    let cache = NvCache::builder(NvRegion::whole(Arc::clone(&dimm)))
        .backend(Arc::clone(&inner))
        .config(cfg.clone())
        .mount(&clock)?;

    let fd = cache.open("/ledger", OpenFlags::RDWR | OpenFlags::CREATE, &clock)?;
    let mut acknowledged = Vec::new();
    for i in 0..200u64 {
        // Every record is written twice, back to back with its neighbours:
        // a draft, then the final text over it.
        let record = format!("entry-{i:04}");
        cache.pwrite(fd, format!("draft-{i:04}").as_bytes(), i * 10, &clock)?;
        cache.pwrite(fd, record.as_bytes(), i * 10, &clock)?;
        acknowledged.push((i * 10, record));
    }
    println!(
        "acknowledged {} records in {} writes, all pending in NVMM",
        acknowledged.len(),
        cache.pending_entries()
    );

    // ---- power failure ---------------------------------------------------
    cache.abort(); // the process dies; nothing is drained
    drop(cache);
    let restarted = Arc::new(dimm.crash_and_restart()); // un-flushed lines are gone
    inner.simulate_power_failure(); // the kernel page cache is gone too

    // ---- reboot + recovery ------------------------------------------------
    let booted = clock.now();
    let recovered = NvCache::builder(NvRegion::whole(restarted))
        .backend(Arc::clone(&inner))
        .config(cfg)
        .mode(Mount::Recover)
        .mount(&clock)?;
    let report = recovered.recovery_report().expect("recover mode");
    // The mount returns once the log is in the inner page cache; the inner
    // `sync` and the log clear end later, on the recovery syncer's clock.
    println!(
        "recovery: the mount took {}, durable {} after the reboot",
        clock.now() - booted,
        report.durable_at - booted
    );
    println!(
        "          {} entries replayed ({} bytes), {} files reopened",
        report.entries_replayed, report.bytes_replayed, report.files_reopened
    );
    // The replay is planned, not per entry: the drafts are absorbed by the
    // records written over them, and what survives is contiguous — one
    // inner write.
    println!(
        "          {} inner writes, {} bytes absorbed by newer entries",
        report.inner_writes, report.bytes_absorbed
    );

    let fd = recovered.open("/ledger", OpenFlags::RDONLY, &clock)?;
    let mut buf = [0u8; 10];
    for (off, expected) in &acknowledged {
        recovered.pread(fd, &mut buf, *off, &clock)?;
        assert_eq!(&buf, expected.as_bytes(), "lost acknowledged write at {off}");
    }
    println!("all {} acknowledged records survived the crash ✓", acknowledged.len());
    recovered.shutdown(&clock);
    Ok(())
}
