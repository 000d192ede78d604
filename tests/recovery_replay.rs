//! Recovery's planned replay, through the public API: seeded random logs
//! (see `support/replay_log.rs` for what each holds) are crashed, recovered
//! with `Mount::Recover` and read back against a plain model of the
//! acknowledged writes; then recovery itself is crashed — after each inner
//! write, at each `fsync` of a replayed file, between the last write and
//! the `sync`, and after each fd-slot clear — and run again.
//!
//! The comparison with the per-entry replayer this replaced lives in the
//! core crate (`crates/core/src/replay_tests.rs`): that reference exists
//! only under `#[cfg(test)]` there.

use std::sync::Arc;

use nvcache_repro::nvcache;
use nvcache_repro::nvcache::{NvCacheConfig, RecoveryReport};
use nvcache_repro::simclock::ActorClock;
use nvcache_repro::vfs::{FaultLayer, FaultRule, FaultTrigger, FileSystem, Layer, Op, OpenFlags};

#[path = "support/replay_log.rs"]
mod replay_log;
use nvcache_bench::rig::{self, parked, Below, Model, Rig};

use replay_log::{build, shapes, Crashed, Shape};

/// Recovers `crashed`, checks the report against what the log held and the
/// files against the model; returns the report.
fn recover_and_check(crashed: &Crashed, what: &str) -> RecoveryReport {
    let cache = crashed.recover(&[]).unwrap_or_else(|e| panic!("{what}: recovery failed: {e}"));
    let report = cache.recovery_report().expect("a recovering mount reports");
    let expect = &crashed.expect;
    assert_eq!(report.entries_replayed, expect.entries - expect.entries_of_gone, "{what}");
    assert_eq!(report.entries_skipped, expect.entries_of_gone, "{what}");
    assert_eq!(report.bytes_replayed, expect.bytes, "{what}");
    assert!(report.inner_writes < report.entries_replayed, "{what}: {report:?}");
    assert!(report.bytes_absorbed > 0 && report.bytes_absorbed < report.bytes_replayed, "{what}");
    assert_eq!(cache.pending_entries(), 0, "{what}: the log is empty");
    crashed.assert_model(&cache, what);
    cache.shutdown(&ActorClock::new());
    report
}

#[test]
fn planned_recovery_leaves_exactly_the_acknowledged_writes() {
    for (what, shape) in shapes() {
        for seed in 10..13 {
            let what = format!("{what}, seed {seed}");
            let report = recover_and_check(&build(seed, shape).crash(), &what);
            // The counts are a function of the log and of the inner files'
            // sizes alone: a twin repeats them bit for bit.
            let twin = recover_and_check(&build(seed, shape).crash(), &what);
            assert_eq!(report, twin, "{what}");
        }
    }
}

/// More entries than one planning window takes (16 384): the boundary is
/// crossed, and what the second window writes lands over the first's.
#[test]
fn recovery_crosses_a_planning_window_boundary() {
    let crashed = build(3, Shape::many()).crash();
    assert!(crashed.expect.entries - crashed.expect.entries_of_gone > 16_384);
    recover_and_check(&crashed, "entries beyond a window");
}

/// Recovery glues a file's pieces across a gap shorter than a page that lies
/// past the file's inner end, writing the gap as zeros, and splits them at a
/// whole page or below that end. `/new` is empty in the inner file system:
/// its four pieces, two sub-page gaps and then a whole page apart, are two
/// inner writes. `/pushed` was closed before the crash, so its first
/// pieces reached the inner file (`close`'s push glues only touching
/// pieces); the pieces written into its gaps after that lie below its inner
/// size, and all five of its pieces stay apart.
#[test]
fn recovery_glues_sub_page_gaps_past_the_inner_end_only() {
    let cfg = parked(NvCacheConfig { nb_entries: 64, fd_slots: 8, ..NvCacheConfig::default() });
    let (rig, cache) = Rig::new(cfg, Below::ext4(1));
    let (clock, mut model) = (&rig.clock, Model::new());
    let mut write = |path: &str, pieces: &[(u64, usize)]| {
        let fd = cache.open(path, OpenFlags::RDWR | OpenFlags::CREATE, clock).expect("open");
        for (i, &(off, len)) in pieces.iter().enumerate() {
            let data = vec![i as u8 + 1; len];
            cache.pwrite(fd, &data, off, clock).expect("pwrite");
            model.write(path, off, &data);
        }
        fd
    };
    let pushed = write("/pushed", &[(0, 100), (300, 100), (600, 100)]);
    cache.close(pushed, clock).expect("close");
    write("/pushed", &[(150, 50), (450, 50)]);
    write("/new", &[(0, 100), (200, 300), (4000, 96), (8202, 10)]);
    rig.crash(&cache, 0);

    let cache = rig.recover();
    let report = cache.recovery_report().expect("a recovering mount reports");
    assert_eq!((report.entries_replayed, report.bytes_absorbed), (9, 0), "{report:?}");
    assert_eq!(report.inner_writes, 2 + 5, "{report:?}");
    model.check(&cache).unwrap_or_else(|e| panic!("{e}"));
    cache.shutdown(&ActorClock::new());
}

/// What a replay did, whatever the fd table looked like (a recovery that
/// failed has already cleared the unlinked file's slot for the next one).
/// Not `inner_writes`: see [`assert_replayed_again`].
fn replayed(report: &RecoveryReport) -> [u64; 4] {
    [report.entries_replayed, report.entries_skipped, report.bytes_replayed, report.bytes_absorbed]
}

/// A recovery run again after a crash inside the first replays what the
/// clean one did. It may issue more inner writes, never more than one per
/// entry: the inner files keep the size the failed replay grew them to, so
/// fewer gaps lie past their end, where the replay glues across them.
fn assert_replayed_again(again: &RecoveryReport, clean: &RecoveryReport, what: &str) {
    assert_eq!(replayed(again), replayed(clean), "{what}");
    let writes = clean.inner_writes..=again.entries_replayed;
    assert!(writes.contains(&again.inner_writes), "{what}: {again:?}");
}

/// One power failure inside recovery, then a clean one: `fault` makes the
/// first recovery fail at a chosen inner call, the power goes (the bases
/// lose every un-synced page of the partial replay, the DIMM whatever was
/// not flushed), and the second recovery must replay the same entries and
/// leave the model.
fn crash_recovery_at(seed: u64, shape: Shape, fault: FaultRule, what: &str) -> RecoveryReport {
    let crashed = build(seed, shape).crash();
    let layer: Arc<dyn Layer> = Arc::new(FaultLayer::new(vec![fault]));
    assert!(crashed.recover(&[layer]).is_err(), "{what}: the fault must stop recovery");
    crashed.rig.power_cut(0);
    recover_and_check(&crashed, what)
}

/// Recovery is idempotent under a crash after each of its inner writes. The
/// 60-write log of seed 21 holds 66 replayable entries: the per-entry
/// replay issued 66 inner writes for it, the planned one issues 15 — so 15
/// crash points. Nothing was drained before the crash, so every inner file
/// is empty at the reopen and every gap lies past its end: only a gap of a
/// page or more splits an extent (29 writes when every gap did). The
/// replay moves through three surviving files; the
/// syncer writes back the first while the others are copied, and is still
/// busy when the second ends (that one is left to the `sync`), so one more
/// crash point is at its `fsync`. One more is between the last write and
/// the `sync`, and the rest follow the log clear: one before each close of
/// a reopened descriptor, so after each fd-slot clear but the last.
#[test]
fn recovery_is_idempotent_under_a_crash_after_each_inner_write() {
    for (what, shape, writes, fsyncs) in [
        ("2 stripes", Shape { writes: 60, span: 96 << 10, ..Shape::small(2) }, (66, 15), 1),
        (
            "2 tiers, crypt",
            Shape { writes: 60, span: 96 << 10, ..Shape::small(4).tiered().crypt() },
            (66, 15),
            1,
        ),
    ] {
        let clean = recover_and_check(&build(21, shape).crash(), what);
        assert_eq!((clean.entries_replayed, clean.inner_writes), writes, "{what}: old, new");
        for k in 1..=clean.inner_writes {
            let what = format!("{what}, power cut at inner write {k}");
            let fault = FaultRule::new(Op::Write, FaultTrigger::OnNth(k));
            assert_replayed_again(&crash_recovery_at(21, shape, fault, &what), &clean, &what);
        }
        // A power cut at each `fsync` the syncer issues, up to the first
        // `k` the clean recovery does not reach.
        let mut k = 1;
        loop {
            let crashed = build(21, shape).crash();
            let rule = FaultRule::new(Op::Fsync, FaultTrigger::OnNth(k));
            let fault = Arc::new(FaultLayer::new(vec![rule]));
            match crashed.recover(&[Arc::clone(&fault) as Arc<dyn Layer>]) {
                Ok(cache) => {
                    assert_eq!(fault.faults_injected(), 0, "{what}: recovered through a fault");
                    fault.disarm();
                    cache.shutdown(&ActorClock::new());
                    break;
                }
                Err(_) => {
                    let what = format!("{what}, power cut at the syncer's fsync {k}");
                    crashed.rig.power_cut(0);
                    let again = recover_and_check(&crashed, &what);
                    assert_replayed_again(&again, &clean, &what);
                    k += 1;
                }
            }
        }
        assert_eq!(k - 1, fsyncs, "{what}: fsyncs");
        let fault = FaultRule::new(Op::Sync, FaultTrigger::OnNth(1));
        let what = format!("{what}, power cut before the sync");
        assert_replayed_again(&crash_recovery_at(21, shape, fault, &what), &clean, &what);
        // A power cut at each close of a reopened descriptor: after the
        // log clear and after each fd-slot clear, all on the syncer's
        // clock. The log is empty then, so the next recovery replays
        // nothing, reopens the slots left and reads back the model.
        for k in 1..=clean.files_reopened {
            let what = format!("{what}, power cut after fd-slot clear {}", k - 1);
            let fault = FaultRule::new(Op::Close, FaultTrigger::OnNth(k as u64));
            let layer: Arc<dyn Layer> = Arc::new(FaultLayer::new(vec![fault]));
            let crashed = build(21, shape).crash();
            assert!(crashed.recover(&[layer]).is_err(), "{what}: the fault must stop recovery");
            crashed.rig.power_cut(0);
            let cache = crashed.recover(&[]).unwrap_or_else(|e| panic!("{what}: {e}"));
            let report = cache.recovery_report().expect("a recovering mount reports");
            assert_eq!((replayed(&report), report.inner_writes), ([0; 4], 0), "{what}");
            assert_eq!(report.files_reopened, clean.files_reopened - (k - 1), "{what}");
            crashed.assert_model(&cache, &what);
            cache.shutdown(&ActorClock::new());
        }
    }
}
