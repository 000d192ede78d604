//! Property-based chaos testing of the layer subsystem: crash-mid-drain
//! recovery under randomized `FaultLayer` schedules (budget × fault kind ×
//! tier position) must converge to the acknowledged prefix, and byte
//! tampering below a `CryptLayer` must be detected wherever it lands.

use std::collections::BTreeMap;
use std::sync::Arc;

use nvcache_repro::nvcache::{self, NvCacheConfig};
use nvcache_repro::simclock::ActorClock;
use nvcache_repro::vfs::{
    CryptLayer, FaultLayer, FaultRule, FaultTrigger, FileSystem, Layer, MemFs, Op, OpenFlags,
};
use proptest::prelude::*;

use nvcache_bench::rig::{Below, Model, Rig};

/// One randomized fault schedule: which drain-path op misbehaves, how it
/// triggers, and which tier of a two-tier mount carries the layer.
#[derive(Debug, Clone)]
struct Schedule {
    op: Op,
    trigger: FaultTrigger,
    tier: usize,
}

fn schedule_strategy() -> impl Strategy<Value = Schedule> {
    (
        // A drain's barrier is an `fsync` when the batch touched one file of
        // the tier and a `syncfs` when it touched both.
        prop_oneof![Just(Op::Write), Just(Op::Fsync), Just(Op::Sync)],
        prop_oneof![
            (0..10u64).prop_map(FaultTrigger::AfterBudget),
            (1..10u64).prop_map(FaultTrigger::OnNth),
        ],
        0..2usize,
    )
        .prop_map(|(op, trigger, tier)| Schedule { op, trigger, tier })
}

/// Mounts two Ext4 tiers with a `FaultLayer` on `schedule.tier`, streams
/// writes across both tiers with an eagerly draining cleanup (faults land
/// mid-drain), stops at the first error the app observes, crashes, disarms
/// the fault, recovers — and demands every *acknowledged* write back.
fn crash_under_fault_schedule(schedule: &Schedule, crash_seed: u64, writes: &[(u8, u16, u16)]) {
    let cfg = NvCacheConfig {
        nb_entries: 256,
        batch_min: 1, // drain eagerly: faults fire while entries propagate
        batch_max: 8,
        fd_slots: 8,
        read_cache_pages: 4,
        ..NvCacheConfig::default()
    };
    let fault = FaultLayer::new(vec![FaultRule::new(schedule.op, schedule.trigger.clone())]);
    // Durable tiers (Ext4+SSD): the acknowledged-prefix contract spans the
    // crash, so drained entries must survive below (MemFs would not). The
    // fault layer sits on one tier only, so it wraps that tier's base.
    let mut below = Below::ext4(2);
    let faulty = &mut below.bases[schedule.tier];
    *faulty = fault.wrap(Arc::clone(faulty));
    let (rig, cache) = Rig::new(cfg, below);
    let clock = &rig.clock;

    let paths = ["/cold-file", "/hot/file", "/cold-file-2", "/hot/file-2"];
    let mut fds = BTreeMap::new();
    let mut model = Model::new();
    let mut opened = true;
    for path in paths {
        match cache.open(path, OpenFlags::RDWR | OpenFlags::CREATE, clock) {
            Ok(fd) => {
                fds.insert(path, fd);
            }
            Err(_) => {
                // An Open fault (not generated today) or a poisoned stripe:
                // nothing acknowledged for this file.
                opened = false;
            }
        }
    }
    if opened {
        for &(sel, off, len) in writes {
            let path = paths[sel as usize % 4];
            let byte = (off % 250 + 1) as u8;
            let buf = vec![byte; len as usize];
            match cache.pwrite(fds[path], &buf, off as u64, clock) {
                Ok(_) => model.write(path, off as u64, &buf),
                // First app-visible error (poisoned stripe): the
                // acknowledged prefix ends here.
                Err(_) => break,
            }
        }
    }
    // Give the eager drain a bounded window to hit the fault (or finish).
    for _ in 0..200 {
        if !cache.poisoned_stripes().is_empty() || cache.pending_entries() == 0 {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(1));
    }

    // Power failure mid-drain, then recovery with the fault disarmed (the
    // device came back healthy) through the same layer handles.
    rig.crash(&cache, crash_seed);
    fault.disarm();
    let recovered = rig.mount(nvcache::Mount::Recover);
    let recovered = recovered.expect("recovery must converge once the fault is gone");

    for path in &model.files() {
        let expect = &model.content(path).expect("a model file");
        let fd = recovered.open(path, OpenFlags::RDONLY, clock).expect("reopen");
        let size = recovered.fstat(fd, clock).expect("fstat").size;
        assert!(
            size >= expect.len() as u64,
            "{path}: acknowledged size lost under {schedule:?} (got {size}, want ≥ {})",
            expect.len()
        );
        let mut buf = vec![0u8; expect.len()];
        recovered.pread(fd, &mut buf, 0, clock).expect("pread");
        assert_eq!(&buf, expect, "{path}: acknowledged prefix lost under {schedule:?}");
        recovered.close(fd, clock).expect("close");
    }
    recovered.shutdown(clock);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn acknowledged_prefix_survives_randomized_fault_schedules(
        schedule in schedule_strategy(),
        crash_seed in 0..1000u64,
        writes in proptest::collection::vec((0..4u8, 0..16_000u16, 1..1500u16), 1..40),
    ) {
        crash_under_fault_schedule(&schedule, crash_seed, &writes);
    }

    #[test]
    fn tampering_anywhere_in_written_content_is_detected(
        key in any::<u64>(),
        len in 1..20_000usize,
        flip in 0..20_000usize,
        mask in 1..=255u8,
    ) {
        let flip = flip % len; // somewhere inside the written (tagged) extent
        let clock = ActorClock::new();
        let layer = CryptLayer::new(key);
        let inner: Arc<dyn FileSystem> = Arc::new(MemFs::new());
        let fs = layer.wrap(Arc::clone(&inner));
        let fd = fs.open("/t", OpenFlags::RDWR | OpenFlags::CREATE, &clock).unwrap();
        let content: Vec<u8> = (0..len).map(|i| (i % 253) as u8).collect();
        fs.pwrite(fd, &content, 0, &clock).unwrap();
        // Sanity: reads back clean before the flip.
        let mut buf = vec![0u8; len];
        fs.pread(fd, &mut buf, 0, &clock).unwrap();
        prop_assert_eq!(&buf, &content);

        // Flip one stored byte behind the layer's back.
        let raw = inner.open("/t", OpenFlags::RDWR, &clock).unwrap();
        let mut b = [0u8; 1];
        inner.pread(raw, &mut b, flip as u64, &clock).unwrap();
        inner.pwrite(raw, &[b[0] ^ mask], flip as u64, &clock).unwrap();
        inner.close(raw, &clock).unwrap();

        // A full-file read must now fail (the tampered page refuses)…
        prop_assert!(
            fs.pread(fd, &mut buf, 0, &clock).is_err(),
            "tampered byte at {} of {} went undetected", flip, len
        );
        prop_assert!(layer.stats().tamper_detected >= 1);
        // …while pages outside the tampered one still read clean.
        let page = flip / 4096;
        for other in 0..len.div_ceil(4096) {
            if other == page { continue; }
            let base = other * 4096;
            let avail = (len - base).min(4096);
            let mut pb = vec![0u8; avail];
            prop_assert!(fs.pread(fd, &mut pb, base as u64, &clock).is_ok());
            prop_assert_eq!(&pb, &content[base..base + avail]);
        }
    }
}
