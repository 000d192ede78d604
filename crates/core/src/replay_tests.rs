//! The planned replay against the two per-entry forms it replaced, which
//! survive under `#[cfg(test)]` as its references:
//! [`recovery::replay_per_entry`] and `Shared::kernel_flush_file_per_entry`.
//! Twin logs (same seed, same shape) are replayed one way each; the bases
//! below the cache must then agree byte for byte, sidecar files included.
//! The root suite `tests/recovery_replay.rs` checks the same logs against
//! the model through the public API and crashes recovery itself.

use std::sync::Arc;

use nvmm::NvRegion;
use simclock::ActorClock;

use crate as nvcache;
use crate::layout::Header;
use crate::recovery::{self, RecoveryReport, Replayer};
use crate::tiers::Tiers;

#[path = "../../../tests/support/replay_log.rs"]
mod replay_log;

use replay_log::{build, shapes, Crashed, Shape};

/// Seeds per shape.
const SEEDS: u64 = 3;

/// Runs recovery over `crashed` with `replay` as its replay phase — the
/// mount's own call, minus the mount.
fn recover_with(crashed: &Crashed, replay: Replayer) -> RecoveryReport {
    let tiers = Tiers::mount(crashed.below.tiering(&[])).expect("tiers");
    let region = NvRegion::whole(Arc::clone(&crashed.dimm));
    let clock = ActorClock::new();
    let image = Header::read(&region, &clock).expect("a formatted image");
    let (report, misplaced, _) =
        recovery::recover(&region, &image, &tiers, &clock, replay).expect("recovery");
    assert!(misplaced.is_empty());
    report
}

/// Twin logs, one replayed as planned and one per entry: same bases, same
/// model, same entry and byte counts — fewer inner writes.
fn assert_replays_agree(what: &str, seed: u64, shape: Shape) {
    let planned = build(seed, shape).crash();
    let reference = build(seed, shape).crash();
    let p = recover_with(&planned, recovery::replay_planned);
    let r = recover_with(&reference, recovery::replay_per_entry);
    let what = format!("{what}, seed {seed}");
    assert!(planned.below.raw_image() == reference.below.raw_image(), "{what}: bases differ");

    let expect = &planned.expect;
    let replayed = expect.entries - expect.entries_of_gone;
    assert_eq!((p.entries_replayed, r.entries_replayed), (replayed, replayed), "{what}");
    assert_eq!(
        (p.entries_skipped, r.entries_skipped),
        (expect.entries_of_gone, expect.entries_of_gone)
    );
    assert_eq!((p.bytes_replayed, r.bytes_replayed), (expect.bytes, expect.bytes), "{what}");
    assert_eq!(
        (p.files_reopened, p.files_missing),
        (4, 0),
        "{what}: five slots, one invalidated when its file was unlinked through the mount"
    );
    assert_eq!((r.inner_writes, r.bytes_absorbed), (replayed, 0), "{what}: one write per entry");
    assert!(p.inner_writes < r.inner_writes, "{what}: {} inner writes", p.inner_writes);
    assert!(p.bytes_absorbed > 0 && p.bytes_absorbed < p.bytes_replayed, "{what}");

    // Both logs are empty now: a mount over each replays nothing and reads
    // the model back.
    for (crashed, which) in [(&planned, "planned"), (&reference, "reference")] {
        let cache = crashed.recover(&[]).expect("mount over the emptied log");
        assert_eq!(cache.recovery_report().expect("recovering mount").entries_replayed, 0);
        crashed.assert_model(&cache, &format!("{what}, {which}"));
        cache.shutdown(&ActorClock::new());
    }
}

#[test]
fn planned_replay_matches_the_per_entry_reference_and_the_model() {
    for (what, shape) in shapes() {
        for seed in 0..SEEDS {
            assert_replays_agree(what, seed, shape);
        }
    }
}

/// More payload than one planning window takes (`replay::WINDOW_PAYLOAD`):
/// the boundary is crossed and the later window overwrites the earlier one.
#[test]
fn planned_replay_matches_the_reference_across_a_payload_window_boundary() {
    assert_replays_agree("payload beyond a window", 1, Shape::bulk());
}

/// More entries than one planning window takes (`replay::WINDOW_ENTRIES`).
#[test]
fn planned_replay_matches_the_reference_across_an_entry_window_boundary() {
    assert_replays_agree("entries beyond a window", 2, Shape::many());
}

/// `close`'s kernel flush, planned, against its per-entry form: every
/// descriptor of twin mounts is flushed one way each (nothing drains, so
/// the bases hold exactly what the flushes wrote).
#[test]
fn planned_kernel_flush_matches_its_per_entry_form() {
    for (what, shape) in shapes() {
        for seed in 0..SEEDS {
            let planned = build(seed, shape);
            let reference = build(seed, shape);
            let clock = ActorClock::new();
            for (p, r) in planned.fds.iter().zip(&reference.fds) {
                let shared = &planned.cache.shared;
                assert!(shared.push(&shared.opened_fd(*p).expect("open"), None, &clock));
                let shared = &reference.cache.shared;
                shared.kernel_flush_file_per_entry(&shared.opened_fd(*r).expect("open"), &clock);
            }
            assert!(
                planned.below.raw_image() == reference.below.raw_image(),
                "{what}, seed {seed}: bases differ"
            );
            for built in [planned, reference] {
                assert_eq!(built.cache.pending_entries(), built.expect.entries, "nothing drained");
                built.cache.abort();
            }
        }
    }
}
