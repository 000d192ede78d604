//! Recovery's planned replay, through the public API: seeded random logs
//! (see `support/replay_log.rs` for what each holds) are crashed, recovered
//! with `Mount::Recover` and read back against a plain model of the
//! acknowledged writes; then recovery itself is crashed — after each inner
//! write, and between the last one and the `sync` — and run again.
//!
//! The comparison with the per-entry replayer this replaced lives in the
//! core crate (`crates/core/src/replay_tests.rs`): that reference exists
//! only under `#[cfg(test)]` there.

use std::sync::Arc;

use nvcache_repro::nvcache;
use nvcache_repro::nvcache::RecoveryReport;
use nvcache_repro::simclock::ActorClock;
use nvcache_repro::vfs::{FaultLayer, FaultOp, FaultRule, FaultTrigger, Layer};

#[path = "support/replay_log.rs"]
mod replay_log;

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
            // The counts are a function of the log alone: a twin repeats
            // them bit for bit.
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

/// What a replay did, whatever the fd table looked like (a recovery that
/// failed has already cleared the unlinked file's slot for the next one).
fn replayed(report: &RecoveryReport) -> [u64; 5] {
    [
        report.entries_replayed,
        report.entries_skipped,
        report.bytes_replayed,
        report.inner_writes,
        report.bytes_absorbed,
    ]
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
    recover_and_check(&crashed.crash_again(), what)
}

/// Recovery is idempotent under a crash after each of its inner writes. The
/// 60-write log of seed 21 holds 66 replayable entries: the per-entry
/// replay issued 66 inner writes for it, the planned one issues 29 — so 29
/// crash points, plus one between the last write and the `sync`.
#[test]
fn recovery_is_idempotent_under_a_crash_after_each_inner_write() {
    for (what, shape, writes) in [
        ("2 stripes", Shape { writes: 60, span: 96 << 10, ..Shape::small(2) }, (66, 29)),
        (
            "2 tiers, crypt",
            Shape { writes: 60, span: 96 << 10, ..Shape::small(4).tiered().crypt() },
            (66, 29),
        ),
    ] {
        let clean = recover_and_check(&build(21, shape).crash(), what);
        assert_eq!((clean.entries_replayed, clean.inner_writes), writes, "{what}: old, new");
        for k in 1..=clean.inner_writes {
            let what = format!("{what}, power cut at inner write {k}");
            let fault = FaultRule::new(FaultOp::Write, FaultTrigger::OnNth(k));
            assert_eq!(replayed(&crash_recovery_at(21, shape, fault, &what)), replayed(&clean));
        }
        let fault = FaultRule::new(FaultOp::Sync, FaultTrigger::OnNth(1));
        let what = format!("{what}, power cut before the sync");
        assert_eq!(replayed(&crash_recovery_at(21, shape, fault, &what)), replayed(&clean));
    }
}
