//! The planned replay against the two per-entry forms it replaced, which
//! survive under `#[cfg(test)]` as its references:
//! [`recovery::replay_per_entry`] and `Shared::kernel_flush_file_per_entry`.
//! Twin logs (same seed, same shape) are replayed one way each; the bases
//! below the cache must then agree byte for byte, sidecar files included.
//! The root suite `tests/recovery_replay.rs` checks the same logs against
//! the model through the public API and crashes recovery itself.
//!
//! Then recovery's syncer, on a recorded trace of the inner calls over
//! `Ext4` on a one-channel SSD: how its write-backs overlap the copy, when
//! they end, and the exact virtual time of logs it has nothing or little
//! to overlap.

use std::sync::{Arc, Mutex};

use blockdev::{BlockDevice, SsdDevice, SsdProfile};
use nvmm::{NvDimm, NvRegion, NvmmProfile};
use simclock::{ActorClock, SimTime};
use vfs::{Ext4, Ext4Profile, Fd, FileSystem, IoResult, Layer, Metadata, OpenFlags};

use crate as nvcache;
use crate::layout::Header;
use crate::recovery::{self, RecoveryReport, Replayer};
use crate::tiers::Tiers;
use crate::{Mount, NvCache, NvCacheConfig};

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

/// One inner call a recovering mount issued: its name and its span on the
/// clock it ran on.
type Call = (&'static str, SimTime, SimTime);

/// A layer that records every call into the stack it wraps.
#[derive(Debug, Default)]
struct Recorder(Arc<Mutex<Vec<Call>>>);

struct Recording {
    inner: Arc<dyn FileSystem>,
    calls: Arc<Mutex<Vec<Call>>>,
}

impl Recording {
    fn timed<R>(&self, op: &'static str, clock: &ActorClock, call: impl FnOnce() -> R) -> R {
        let start = clock.now();
        let result = call();
        self.calls.lock().expect("calls").push((op, start, clock.now()));
        result
    }
}

impl Layer for Recorder {
    fn name(&self) -> &str {
        "recorder"
    }
    fn wrap(&self, inner: Arc<dyn FileSystem>) -> Arc<dyn FileSystem> {
        Arc::new(Recording { inner, calls: Arc::clone(&self.0) })
    }
}

impl FileSystem for Recording {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn open(&self, path: &str, flags: OpenFlags, c: &ActorClock) -> IoResult<Fd> {
        self.timed("open", c, || self.inner.open(path, flags, c))
    }
    fn close(&self, fd: Fd, c: &ActorClock) -> IoResult<()> {
        self.timed("close", c, || self.inner.close(fd, c))
    }
    fn pread(&self, fd: Fd, buf: &mut [u8], off: u64, c: &ActorClock) -> IoResult<usize> {
        self.timed("pread", c, || self.inner.pread(fd, buf, off, c))
    }
    fn pwrite(&self, fd: Fd, data: &[u8], off: u64, c: &ActorClock) -> IoResult<usize> {
        self.timed("pwrite", c, || self.inner.pwrite(fd, data, off, c))
    }
    fn fsync(&self, fd: Fd, c: &ActorClock) -> IoResult<()> {
        self.timed("fsync", c, || self.inner.fsync(fd, c))
    }
    fn ftruncate(&self, fd: Fd, len: u64, c: &ActorClock) -> IoResult<()> {
        self.timed("ftruncate", c, || self.inner.ftruncate(fd, len, c))
    }
    fn fstat(&self, fd: Fd, c: &ActorClock) -> IoResult<Metadata> {
        self.timed("fstat", c, || self.inner.fstat(fd, c))
    }
    fn stat(&self, path: &str, c: &ActorClock) -> IoResult<Metadata> {
        self.timed("stat", c, || self.inner.stat(path, c))
    }
    fn unlink(&self, path: &str, c: &ActorClock) -> IoResult<()> {
        self.timed("unlink", c, || self.inner.unlink(path, c))
    }
    fn rename(&self, from: &str, to: &str, c: &ActorClock) -> IoResult<()> {
        self.timed("rename", c, || self.inner.rename(from, to, c))
    }
    fn list_dir(&self, dir: &str, c: &ActorClock) -> IoResult<Vec<String>> {
        self.timed("list_dir", c, || self.inner.list_dir(dir, c))
    }
    fn sync(&self, c: &ActorClock) -> IoResult<()> {
        self.timed("sync", c, || self.inner.sync(c))
    }
}

/// A log holding `pages[f]` pages of file `f`, every other page (so each
/// page is an extent of its own), all of it pending when the power went;
/// below it `Ext4` on a one-channel S4600.
fn crashed_log(pages: &[u64]) -> (NvCacheConfig, Arc<NvDimm>, Arc<dyn FileSystem>) {
    let parked = usize::MAX >> 1;
    let cfg = NvCacheConfig {
        nb_entries: (pages.iter().sum::<u64>() + 1).next_multiple_of(64),
        read_cache_pages: 16,
        batch_min: parked,
        batch_max: parked,
        fd_slots: pages.len().max(8) as u32,
        ..NvCacheConfig::default()
    };
    let ssd = Arc::new(SsdDevice::new(SsdProfile::s4600()));
    assert_eq!(ssd.queue_depth(), 1);
    let ext4: Arc<dyn FileSystem> = Arc::new(Ext4::new("ext4", ssd, Ext4Profile::default()));
    let dimm = Arc::new(NvDimm::new(cfg.required_nvmm_bytes(), NvmmProfile::optane()));
    let clock = ActorClock::new();
    let cache = NvCache::builder(NvRegion::whole(Arc::clone(&dimm)))
        .backend(Arc::clone(&ext4))
        .config(cfg.clone())
        .mount(&clock)
        .expect("format mount");
    for (f, &n) in pages.iter().enumerate() {
        let flags = OpenFlags::RDWR | OpenFlags::CREATE;
        let fd = cache.open(&format!("/f{f}"), flags, &clock).expect("open");
        for page in 0..n {
            let data = [(f as u64 + page) as u8 + 1; 4096];
            cache.pwrite(fd, &data, page * 8192, &clock).expect("pwrite");
        }
    }
    cache.abort();
    drop(cache);
    ext4.simulate_power_failure();
    (cfg, Arc::new(dimm.crash_and_restart()), ext4)
}

/// Recovers a [`crashed_log`] on a fresh clock: how long the mount took
/// and every inner call it issued.
fn recover_recorded(pages: &[u64]) -> (SimTime, Vec<Call>) {
    let (cfg, dimm, ext4) = crashed_log(pages);
    let recorder = Recorder::default();
    let calls = Arc::clone(&recorder.0);
    let clock = ActorClock::new();
    let cache = NvCache::builder(NvRegion::whole(dimm))
        .backend_stack(vec![Arc::new(recorder)], ext4)
        .config(cfg)
        .mode(Mount::Recover)
        .mount(&clock)
        .expect("recovery");
    let took = clock.now();
    let calls = calls.lock().expect("calls").clone();
    let report = cache.recovery_report().expect("a recovering mount reports");
    assert_eq!(report.files_reopened, pages.len());
    assert_eq!(report.entries_replayed, pages.iter().sum::<u64>());
    cache.shutdown(&ActorClock::new());
    (took, calls)
}

fn count(calls: &[Call], op: &str) -> usize {
    calls.iter().filter(|c| c.0 == op).count()
}

/// The syncer writes a file back while the next one is copied: the mount
/// takes less time than its inner calls add up to and than the serial
/// replay took (measured before the syncer existed), twins end on the same
/// instant, and every write-back is done before the first reopened
/// descriptor is closed. The first file is handed over at once, the
/// second once the syncer is idle again; the last is the `sync`'s.
#[test]
fn recovery_writes_back_each_file_while_it_copies_the_next() {
    let pages = [1, 64, 64];
    let (took, calls) = recover_recorded(&pages);
    let busy: SimTime = calls.iter().map(|&(_, start, end)| end - start).sum();
    assert!(took < busy, "no overlap: the mount took {took}, its inner calls {busy}");
    assert!(took < SimTime::from_nanos(2_042_447), "{took}: no faster than the serial replay");
    assert_eq!((count(&calls, "fsync"), count(&calls, "sync")), (2, 1), "{calls:?}");
    assert_eq!(recover_recorded(&pages).0, took, "a twin ends at another instant");

    let synced = calls.iter().filter(|c| c.0 == "fsync").map(|c| c.2).max();
    let first_close = calls.iter().filter(|c| c.0 == "close").map(|c| c.1).min();
    assert!(synced.expect("fsyncs") <= first_close.expect("closes"), "{calls:?}");
}

/// A one-file log has no file to hand over: no `fsync`, only the `sync`,
/// and the virtual time of the serial replay (measured before the syncer
/// existed).
#[test]
fn a_one_file_recovery_syncs_once_and_takes_the_serial_time() {
    let (took, calls) = recover_recorded(&[16]);
    assert_eq!((count(&calls, "fsync"), count(&calls, "sync")), (0, 1), "{calls:?}");
    assert_eq!(took, SimTime::from_nanos(437_915), "{calls:?}");
}

/// Files that finish while the syncer is busy are left to the `sync`: 32
/// one-page files cost one `fsync`, not 31 journal commits, and the
/// recovery stays within one commit and flush of the serial replay's time
/// (measured before the syncer existed).
#[test]
fn small_files_cost_at_most_one_write_back_more() {
    let (took, calls) = recover_recorded(&[1; 32]);
    assert_eq!((count(&calls, "fsync"), count(&calls, "sync")), (1, 1), "{calls:?}");
    let serial = SimTime::from_nanos(2_082_521);
    let commit = Ext4Profile::default().journal_commit + SsdProfile::s4600().flush;
    assert!(took <= serial + commit, "{took} against {serial} serially");
}
