//! Mutation tests for the `pmcheck` persistency checker (feature
//! `pmcheck`): each test arms one test-only bug in the durability protocol
//! (`nvcache::pm_mutation`) and asserts the shadow checker turns it into a
//! deterministic panic naming the offending op, line address and call site.
//! The final test runs the canonical mixed workload with no mutation and
//! asserts zero violations — the checker must not cry wolf.

#![cfg(feature = "pmcheck")]

use std::sync::Arc;

use nvcache_repro::blockdev::{SsdDevice, SsdProfile};
use nvcache_repro::nvcache::{pm_mutation, Mount, NvCache, NvCacheConfig};
use nvcache_repro::nvmm::{NvDimm, NvRegion, NvmmProfile};
use nvcache_repro::simclock::ActorClock;
use nvcache_repro::vfs::{Ext4, Ext4Profile, FileSystem, OpenFlags};

fn mount(clock: &ActorClock) -> (Arc<NvDimm>, Arc<dyn FileSystem>, NvCacheConfig, NvCache) {
    let cfg = NvCacheConfig {
        nb_entries: 256,
        batch_min: 4,
        batch_max: 16,
        fd_slots: 8,
        read_cache_pages: 8,
        ..NvCacheConfig::default()
    }
    .with_sq_pairs(1);
    let dimm = Arc::new(NvDimm::new(cfg.required_nvmm_bytes(), NvmmProfile::instant()));
    let ssd = Arc::new(SsdDevice::new(SsdProfile::s4600()));
    let inner: Arc<dyn FileSystem> = Arc::new(Ext4::new("ext4+ssd", ssd, Ext4Profile::default()));
    let cache = NvCache::builder(NvRegion::whole(Arc::clone(&dimm)))
        .backend(Arc::clone(&inner))
        .config(cfg.clone())
        .mount(clock)
        .expect("mount");
    (dimm, inner, cfg, cache)
}

/// Arms `arm` on a fresh thread, drives one synchronous write through the
/// log (fills and the group commit both run on the calling thread), and
/// returns the checker's panic message. The fresh thread keeps the armed
/// thread-local mutation — and the unwound thread's shadow attributions —
/// away from every other test in this process.
fn violation_message(arm: fn()) -> String {
    std::thread::spawn(move || {
        let clock = ActorClock::new();
        let (dimm, _inner, _cfg, cache) = mount(&clock);
        let fd = cache.open("/mut", OpenFlags::RDWR | OpenFlags::CREATE, &clock).expect("open");
        // An unmutated write first: the armed bug must flag the *next* one.
        cache.pwrite(fd, &[1u8; 100], 0, &clock).expect("pwrite");
        arm();
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cache.pwrite(fd, &[2u8; 100], 4096, &clock)
        }))
        .expect_err("the armed mutation must make pmcheck panic");
        pm_mutation::disarm_all();
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| "non-string panic payload".to_string());
        // The violation must also be recorded for post-mortem auditing.
        assert!(dimm.pm_violations().contains(&msg), "panic message not in pm_violations(): {msg}");
        cache.abort();
        msg
    })
    .join()
    .expect("mutation thread")
}

#[test]
fn dropped_fence_is_flagged_at_the_commit_store() {
    let msg = violation_message(pm_mutation::arm_drop_fence);
    assert!(msg.contains("pmcheck violation"), "{msg}");
    assert!(msg.contains("commit_store"), "{msg}");
    assert!(msg.contains("stored before the fence"), "{msg}");
    // Op site: the commit publish in the log; payload site: the fill's pwb.
    assert!(msg.contains("crates/core/src/log.rs"), "{msg}");
    assert!(msg.contains("line 0x"), "{msg}");
}

#[test]
fn reordered_commit_store_is_flagged() {
    let msg = violation_message(pm_mutation::arm_reorder_commit);
    assert!(msg.contains("pmcheck violation"), "{msg}");
    assert!(msg.contains("commit_store"), "{msg}");
    assert!(msg.contains("stored before the fence"), "{msg}");
    assert!(msg.contains("crates/core/src/log.rs"), "{msg}");
    assert!(msg.contains("line 0x"), "{msg}");
}

#[test]
fn skipped_pwb_is_flagged_at_the_covering_fence() {
    let msg = violation_message(pm_mutation::arm_skip_pwb);
    assert!(msg.contains("pmcheck violation"), "{msg}");
    assert!(msg.contains("persist_fence"), "{msg}");
    assert!(msg.contains("skipped pwb"), "{msg}");
    // The Dirty store is the fill's entry write in the log.
    assert!(msg.contains("crates/core/src/log.rs"), "{msg}");
    assert!(msg.contains("line 0x"), "{msg}");
}

/// A checker panic inside `ring_doorbell` unwinds past queued entries that
/// each hold an in-flight count on their descriptor. The counts must come
/// back with the unwind, or `close` waits for them forever.
#[test]
fn panicking_doorbell_gives_back_its_in_flight_counts() {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let clock = ActorClock::new();
        let (_dimm, _inner, _cfg, cache) = mount(&clock);
        let fd = cache.open("/bell", OpenFlags::RDWR | OpenFlags::CREATE, &clock).expect("open");
        let mut qp = cache.queue_pair(0, &clock).expect("queue pair");
        for i in 0..3u64 {
            qp.submit_pwrite(fd, &[3u8; 100], i * 4096, &clock).expect("submit");
        }
        qp.submit_flush(fd).expect("submit flush");
        pm_mutation::arm_drop_fence();
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| qp.ring_doorbell(&clock)))
            .expect_err("the armed mutation must make pmcheck panic mid-doorbell");
        pm_mutation::disarm_all();
        drop(qp);
        let closed = cache.close(fd, &clock);
        cache.abort();
        let _ = tx.send(closed);
    });
    rx.recv_timeout(std::time::Duration::from_secs(30))
        .expect("close() hung: the unwound doorbell leaked an in-flight count")
        .expect("close");
}

#[test]
fn unmutated_workload_reports_zero_violations() {
    // Canonical mixed workload — writes, overwrites, reads, flush, crash,
    // recovery — with no mutation armed: the checker must stay silent while
    // the lock-order recorder actually observes acquisitions.
    let clock = ActorClock::new();
    let (dimm, inner, cfg, cache) = mount(&clock);
    let fd = cache.open("/a", OpenFlags::RDWR | OpenFlags::CREATE, &clock).expect("open a");
    let fd2 = cache.open("/b", OpenFlags::RDWR | OpenFlags::CREATE, &clock).expect("open b");
    for i in 0..64u64 {
        cache.pwrite(fd, &[i as u8 + 1; 700], i * 512, &clock).expect("pwrite a");
        cache.pwrite(fd2, &[i as u8 + 7; 300], i * 4096, &clock).expect("pwrite b");
    }
    let mut buf = [0u8; 700];
    cache.pread(fd, &mut buf, 512, &clock).expect("pread");
    cache.rename("/b", "/c", &clock).expect("rename");
    cache.flush_log(&clock);
    assert!(cache.pm_violations().is_empty(), "{:?}", cache.pm_violations());
    assert!(cache.lock_order_violations().is_empty(), "{:?}", cache.lock_order_violations());
    assert!(cache.lock_order_edges() > 0, "the recorder saw no acquisitions at all");
    cache.abort();

    let crashed = Arc::new(dimm.crash_and_restart_seeded(11));
    inner.simulate_power_failure();
    let recovered = NvCache::builder(NvRegion::whole(Arc::clone(&crashed)))
        .backend(inner)
        .config(cfg)
        .mode(Mount::Recover)
        .mount(&clock)
        .expect("recover");
    let fd = recovered.open("/a", OpenFlags::RDONLY, &clock).expect("reopen");
    recovered.pread(fd, &mut buf, 512, &clock).expect("pread recovered");
    assert!(recovered.pm_violations().is_empty(), "{:?}", recovered.pm_violations());
    assert!(recovered.lock_order_violations().is_empty());
    recovered.shutdown(&clock);
}
