//! The planned replay against the two per-entry forms it replaced, which
//! survive under `#[cfg(test)]` as its references:
//! [`recovery::replay_per_entry`] and `Shared::kernel_flush_file_per_entry`.
//! Twin logs (same seed, same shape) are replayed one way each; the bases
//! below the cache must then agree byte for byte, sidecar files included.
//! The root suite `tests/recovery_replay.rs` checks the same logs against
//! the model through the public API and crashes recovery itself.
//!
//! Then recovery's scanners, reader and syncer, on a recorded trace of the
//! inner calls over `Ext4` on a one-channel SSD: how the scan overlaps the
//! reopen, how the reads and the write-backs overlap the copy, when they
//! end, and the exact virtual time of logs the syncer has nothing or little
//! to overlap.

use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};

use blockdev::{BlockDevice, SsdDevice, SsdProfile};
use nvmm::{NvRegion, NvmmProfile};
use simclock::{ActorClock, SimTime};
use vfs::{Ext4Profile, FileSystem, Hook, Hooked, IoResult, Layer, MemFs, Op, OpenFlags};

use crate as nvcache;
use crate::cache::Shared;
use crate::files::OpenedFile;
use crate::layout::{Header, FD_SLOT_BYTES};
use crate::log::EntryHeader;
use crate::recovery::{self, RecoveryReport, Replayer};
use crate::tests::rig::{self, parked, Below, Rig};
use crate::tiers::Tiers;
use crate::{NvCache, NvCacheConfig, SingleBackend};

#[path = "../../../tests/support/replay_log.rs"]
mod replay_log;

use replay_log::{build, raw_image, shapes, Crashed, Shape};

/// Seeds per shape.
const SEEDS: u64 = 3;

/// Runs recovery over `crashed` with `replay` as its replay phase — the
/// mount's own call, minus the mount.
fn recover_with(crashed: &Crashed, replay: Replayer) -> RecoveryReport {
    let tiers = Tiers::mount(crashed.rig.below.tiering()).expect("tiers");
    let region = NvRegion::whole(crashed.rig.dimm());
    let clock = ActorClock::new();
    let image = Header::read(&region, &clock).expect("a formatted image");
    let recovered = recovery::recover(&region, &image, &tiers, &clock, replay).expect("recovery");
    assert!(recovered.misplaced.is_empty());
    recovered.report
}

/// Twin logs, one replayed as planned and one per entry: same bases, same
/// model, same entry and byte counts — fewer inner writes.
fn assert_replays_agree(what: &str, seed: u64, shape: Shape) {
    let planned = build(seed, shape).crash();
    let reference = build(seed, shape).crash();
    let p = recover_with(&planned, recovery::replay_planned);
    let r = recover_with(&reference, recovery::replay_per_entry);
    let what = format!("{what}, seed {seed}");
    assert!(raw_image(&planned.rig) == raw_image(&reference.rig), "{what}: bases differ");

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

/// The entries of `opened` the pages of its file's unpushed set queue, in
/// commit order, as `(stripe, seq)`: what [`Shared::push`] lists without a
/// mark.
fn queued_for(shared: &Shared, opened: &OpenedFile) -> Vec<(usize, u64)> {
    let pages = opened.file.unpushed.pages();
    let mut queued: Vec<_> = pages.iter().flat_map(|(_, page)| page.queued()).collect();
    queued.sort_unstable_by_key(|entry| entry.gseq);
    queued.dedup_by_key(|entry| entry.gseq);
    let ours = |stripe: usize, seq| shared.log.stripes[stripe].read_header(seq).fd_slot;
    queued.retain(|entry| ours(entry.stripe, entry.seq) == opened.slot);
    queued.into_iter().map(|entry| (entry.stripe, entry.seq)).collect()
}

/// `close`'s kernel flush, planned, against its per-entry form: every
/// descriptor of twin mounts is flushed one way each (nothing drains, so
/// the bases hold exactly what the flushes wrote). The planned push lists
/// its entries from the pages' propagation queues, the reference by
/// scanning every stripe of the log: the two listings must agree first.
#[test]
fn planned_kernel_flush_matches_its_per_entry_form() {
    for (what, shape) in shapes() {
        for seed in 0..SEEDS {
            let planned = build(seed, shape);
            let reference = build(seed, shape);
            let clock = ActorClock::new();
            for (p, r) in planned.fds.iter().zip(&reference.fds) {
                let shared = &planned.cache.shared;
                let opened = shared.opened_fd(*p).expect("open");
                let scanned = shared.pending_entries_for(|h| h.fd_slot == opened.slot);
                let scanned: Vec<_> = scanned.into_iter().map(|(si, seq, _)| (si, seq)).collect();
                assert!(!scanned.is_empty(), "{what}, seed {seed}: a descriptor with entries");
                assert_eq!(queued_for(shared, &opened), scanned, "{what}, seed {seed}");
                assert!(shared.push(&opened, None, &clock));
                let shared = &reference.cache.shared;
                shared.kernel_flush_file_per_entry(&shared.opened_fd(*r).expect("open"), &clock);
            }
            assert!(
                raw_image(&planned.rig) == raw_image(&reference.rig),
                "{what}, seed {seed}: bases differ"
            );
            for built in [planned, reference] {
                assert_eq!(built.cache.pending_entries(), built.expect.entries, "nothing drained");
                built.cache.abort();
            }
        }
    }
}

/// One inner call a recovering mount issued: its kind and its span on the
/// clock it ran on.
type Call = (Op, SimTime, SimTime);

/// A layer that records every call into the stack it wraps.
#[derive(Debug, Default, Clone)]
struct Recorder(Arc<Mutex<Vec<Call>>>);

impl Hook for Recorder {
    fn around<R>(
        &self,
        op: Op,
        _bytes: usize,
        clock: &ActorClock,
        forward: impl FnOnce() -> IoResult<R>,
    ) -> IoResult<R> {
        let start = clock.now();
        let result = forward();
        self.0.lock().expect("calls").push((op, start, clock.now()));
        result
    }
}

impl Layer for Recorder {
    fn name(&self) -> &str {
        "recorder"
    }
    fn wrap(&self, inner: Arc<dyn FileSystem>) -> Arc<dyn FileSystem> {
        Arc::new(Hooked::new(self.clone(), inner))
    }
}

/// The entry slots of a [`crashed_log`] of `pages`.
fn nb_entries(pages: &[u64]) -> u64 {
    (pages.iter().sum::<u64>() + 1).next_multiple_of(64)
}

/// A log of `shards` stripes holding `pages[f]` pages of file `f`, every
/// other page (so each page is an extent of its own), all of it pending
/// when the power went; below it `Ext4` on a one-channel S4600, and `more`
/// as tiers 1, 2, … behind a router that places every file on the `Ext4`
/// (tier 0). The rig's clock is a fresh one, for the recovery.
fn crashed_log(
    pages: &[u64],
    shards: usize,
    more: Vec<Arc<dyn FileSystem>>,
) -> (Rig, Arc<SsdDevice>) {
    let cfg = parked(NvCacheConfig {
        nb_entries: nb_entries(pages),
        read_cache_pages: 16,
        fd_slots: pages.len().max(8) as u32,
        log_shards: shards,
        ..NvCacheConfig::default()
    });
    let ssd = Arc::new(SsdDevice::new(SsdProfile::s4600()));
    assert_eq!(ssd.queue_depth(), 1);
    let bases = [vec![rig::ext4_on(ssd.clone())], more].concat();
    let nvmm = NvmmProfile::optane();
    let below = Below { router: Arc::new(SingleBackend), nvmm, ..Below::over(bases) };
    let (mut rig, cache) = Rig::new(cfg, below);
    for (f, &n) in pages.iter().enumerate() {
        let flags = OpenFlags::RDWR | OpenFlags::CREATE;
        let fd = cache.open(&format!("/f{f}"), flags, &rig.clock).expect("open");
        for page in 0..n {
            cache.pwrite(fd, &page_of(f, page), page * 8192, &rig.clock).expect("pwrite");
        }
    }
    rig.crash(&cache, 0);
    rig.clock = ActorClock::new();
    (rig, ssd)
}

/// What [`crashed_log`] wrote to page `page` of file `f`.
fn page_of(f: usize, page: u64) -> [u8; 4096] {
    [(f as u64 + page) as u8 + 1; 4096]
}

/// A [`crashed_log`] recovered on a fresh clock.
struct Remounted {
    cache: NvCache,
    /// When the mount returned.
    took: SimTime,
    /// Every inner call the mount issued.
    calls: Vec<Call>,
    ssd: Arc<SsdDevice>,
}

fn remount(pages: &[u64]) -> Remounted {
    remount_striped(pages, 1)
}

/// [`remount`] over a log of `shards` stripes.
fn remount_striped(pages: &[u64], shards: usize) -> Remounted {
    let (mut rig, ssd) = crashed_log(pages, shards, Vec::new());
    let recorder = Recorder::default();
    let calls = Arc::clone(&recorder.0);
    rig.below.layers = vec![Arc::new(recorder)];
    let cache = rig.recover();
    let clock = rig.clock;
    let calls = calls.lock().expect("calls").clone();
    let report = cache.recovery_report().expect("a recovering mount reports");
    assert_eq!(report.files_reopened, pages.len());
    assert_eq!(report.entries_replayed, pages.iter().sum::<u64>());
    assert!(clock.now() < report.durable_at, "the mount waited for the durability tail");
    Remounted { cache, took: clock.now(), calls, ssd }
}

/// How long a recovery of a [`crashed_log`] took to return and to be
/// durable, and every inner call it issued.
fn recover_recorded(pages: &[u64]) -> (SimTime, SimTime, Vec<Call>) {
    let Remounted { cache, took, calls, .. } = remount(pages);
    let durable = cache.recovery_report().expect("recovering mount").durable_at;
    cache.shutdown(&ActorClock::new());
    (took, durable, calls)
}

fn count(calls: &[Call], op: Op) -> usize {
    calls.iter().filter(|c| c.0 == op).count()
}

/// The syncer writes a file back while the next one is copied: recovery
/// is durable sooner than its inner calls add up to and than the serial
/// replay took (measured before the syncer existed), twins end on the same
/// instants, and every write-back is done before the first reopened
/// descriptor is closed. The first file is handed over at once, the
/// second once the syncer is idle again; the last is the `sync`'s.
#[test]
fn recovery_writes_back_each_file_while_it_copies_the_next() {
    let pages = [1, 64, 64];
    let (took, durable, calls) = recover_recorded(&pages);
    let busy: SimTime = calls.iter().map(|&(_, start, end)| end - start).sum();
    assert!(durable < busy, "no overlap: durable at {durable}, inner calls {busy}");
    assert!(
        durable < SimTime::from_nanos(2_042_447),
        "{durable}: no faster than the serial replay"
    );
    assert_eq!((count(&calls, Op::Fsync), count(&calls, Op::Sync)), (2, 1), "{calls:?}");
    let (twin_took, twin_durable, _) = recover_recorded(&pages);
    assert_eq!((twin_took, twin_durable), (took, durable), "a twin ends at other instants");

    let synced = calls.iter().filter(|c| c.0 == Op::Fsync).map(|c| c.2).max();
    let first_close = calls.iter().filter(|c| c.0 == Op::Close).map(|c| c.1).min();
    assert!(synced.expect("fsyncs") <= first_close.expect("closes"), "{calls:?}");
}

/// The time the NVMM needs to read `bytes` in one go.
fn nvmm_read(bytes: u64) -> SimTime {
    let nvmm = NvmmProfile::optane();
    nvmm.read_latency + nvmm.read_bandwidth.time_for(bytes)
}

/// A one-file log has no file to hand over: no `fsync`, only the `sync`.
/// It is durable at the serial replay's instant (measured before the
/// syncer existed), less what reading the fd table in one go saves, less
/// the payload reads the reader does while the previous extent is written
/// and less the reopen, which runs while the scan reads the log's headers,
/// plus the scan's read of the stripe's tail, which the serial replay took
/// from the header read; the mount returns before the `sync`.
#[test]
fn a_one_file_recovery_syncs_once_and_reads_behind_its_writes() {
    let pages = 16;
    let (took, durable, calls) = recover_recorded(&[pages]);
    assert_eq!((count(&calls, Op::Fsync), count(&calls, Op::Sync)), (0, 1), "{calls:?}");
    // The serial replay read each slot's valid word, then the one valid
    // slot's payload; the table now comes in one read.
    let slot_by_slot = nvmm_read(8) * 8 + nvmm_read(FD_SLOT_BYTES - 8);
    let saved = slot_by_slot - nvmm_read(8 * FD_SLOT_BYTES);
    // Every other page is written, so each page is an extent: all but the
    // first are read while the write before them runs.
    let overlap = nvmm_read(4096) * (pages - 1);
    // The file's `open` and `fstat`, hidden behind the longer scan.
    let reopen = |c: &&Call| matches!(c.0, Op::Open | Op::Fstat);
    let hidden: SimTime = calls.iter().filter(reopen).map(|&(_, start, end)| end - start).sum();
    // The one stripe's tail, read from the tail array before the headers.
    let tail = nvmm_read(8);
    let serial = SimTime::from_nanos(437_915);
    assert_eq!(durable + saved + overlap + hidden, serial + tail, "{calls:?}");
    let sync = calls.iter().find(|c| c.0 == Op::Sync).expect("the sync");
    assert_eq!(took, sync.1, "the mount returns as the sync starts");
}

/// The copy is write-bound (a 4 KiB extent reads in under a microsecond
/// and takes `Ext4` over three to write), so the reader keeps ahead of the
/// replay's clock: that clock waits only for the first extent's read, then
/// writes back to back, and the mount returns at the first extent's read
/// end plus the inner writes. The first file's write-back, on the syncer,
/// delays no write.
#[test]
fn the_replay_writes_back_to_back_once_the_first_extent_is_read() {
    let pages = [8, 8];
    let Remounted { cache, took, calls, .. } = remount(&pages);
    let writes: Vec<Call> = calls.iter().copied().filter(|c| c.0 == Op::Write).collect();
    assert_eq!(writes.len(), 16, "{calls:?}");
    assert!(writes.iter().all(|&(_, start, end)| end - start > nvmm_read(4096)), "{calls:?}");
    for pair in writes.windows(2) {
        assert_eq!(pair[1].1, pair[0].2, "a write waited for its read: {calls:?}");
    }
    // The scan reads the stripe's tail, then the header of every slot of
    // the log, from the end of the fd-table read, where the reopen's first
    // `open` starts, beside the reopen; the reader starts once both are
    // done and reads the first extent.
    let table_read = calls.iter().find(|c| c.0 == Op::Open).map(|c| c.1).expect("opens");
    let reopened = calls.iter().filter(|c| c.0 == Op::Fstat).map(|c| c.2).max().expect("fstats");
    let scan = nvmm_read(8) + nvmm_read(EntryHeader::BYTES as u64) * nb_entries(&pages);
    let first_read = reopened.max(table_read + scan) + nvmm_read(4096);
    let written: SimTime = writes.iter().map(|&(_, start, end)| end - start).sum();
    assert_eq!(took, first_read + written, "{calls:?}");
    assert_eq!(count(&calls, Op::Fsync), 1, "the first file is handed over: {calls:?}");
    cache.shutdown(&ActorClock::new());
}

/// Each stripe is scanned on a clock of its own, beside the reopen: over a
/// two-stripe log the mount returns at the end of the longer stripe scan —
/// its persistent tail and every header of its ring, from the end of the
/// header and fd-table reads —, plus the first extent's read, plus the
/// writes. Scanned on the replay's clock, the reopen and both stripes
/// would add up.
#[test]
fn a_striped_scan_costs_its_longest_stripe() {
    let pages = [8, 8];
    let Remounted { cache, took, calls, .. } = remount_striped(&pages, 2);
    // `crashed_log` sizes the fd table at eight slots for two files.
    let table_read = nvmm_read(64) + nvmm_read(8 * FD_SLOT_BYTES);
    let per_stripe = nb_entries(&pages) / 2;
    let longest = nvmm_read(8) + nvmm_read(EntryHeader::BYTES as u64) * per_stripe;
    let reopened = calls.iter().filter(|c| c.0 == Op::Fstat).map(|c| c.2).max().expect("fstats");
    assert!(reopened < table_read + longest, "the reopen outlasts the scan: {calls:?}");
    let writes: Vec<Call> = calls.iter().copied().filter(|c| c.0 == Op::Write).collect();
    assert_eq!(writes.len(), 16, "{calls:?}");
    let written: SimTime = writes.iter().map(|&(_, start, end)| end - start).sum();
    assert_eq!(took, table_read + longest + nvmm_read(4096) + written, "{calls:?}");
    cache.shutdown(&ActorClock::new());
}

/// Files that finish while the syncer is busy are left to the `sync`: 32
/// one-page files cost one `fsync`, not 31 journal commits, and recovery is
/// durable within one commit and flush of the serial replay's time
/// (measured before the syncer existed).
#[test]
fn small_files_cost_at_most_one_write_back_more() {
    let (took, durable, calls) = recover_recorded(&[1; 32]);
    assert_eq!((count(&calls, Op::Fsync), count(&calls, Op::Sync)), (1, 1), "{calls:?}");
    let serial = SimTime::from_nanos(2_082_521);
    let commit = Ext4Profile::default().journal_commit + SsdProfile::s4600().flush;
    assert!(durable <= serial + commit, "{durable} against {serial} serially");
    assert!(took < durable);
}

/// The mount returns before recovery is durable, so causality is checked
/// call by call, each on a clock starting where the mount returned: reads
/// of replayed bytes and opens on untouched slots go ahead, everything the
/// durability tail orders waits for `durable_at` — on a two-tier mount, a
/// migration too.
#[test]
fn a_recovered_mount_serves_reads_at_once_and_orders_the_rest_after_durable_at() {
    let Remounted { cache, took, ssd, .. } = remount(&[16, 16, 16]);
    let durable = cache.recovery_report().expect("recovering mount").durable_at;
    let at_mount = || ActorClock::starting_at(took);
    let after = |clock: ActorClock, what: &str| {
        assert!(clock.now() >= durable, "{what} at {}, before {durable}", clock.now());
    };

    let (clock, reads) = (at_mount(), ssd.stats().reads.load(Ordering::Relaxed));
    let fd = cache.open("/f1", OpenFlags::RDONLY, &clock).expect("open");
    assert!(fd.0 >= 3, "{fd:?} is a slot recovery cleared");
    let mut buf = [0u8; 4096];
    assert_eq!(cache.pread(fd, &mut buf, 5 * 8192, &clock).expect("pread"), buf.len());
    assert!(buf == page_of(1, 5), "the replayed bytes");
    assert!(clock.now() < durable, "the read waited: {} >= {durable}", clock.now());
    assert_eq!(ssd.stats().reads.load(Ordering::Relaxed), reads, "a device read");
    cache.close(fd, &clock).expect("close");

    // The log is empty, yet drained only once it was cleared.
    let clock = at_mount();
    cache.flush_log(&clock);
    after(clock, "flushed");
    let clock = at_mount();
    let fd = cache.open("/f0", OpenFlags::RDWR, &clock).expect("open");
    cache.pwrite(fd, &[7; 64], 0, &clock).expect("pwrite");
    after(clock, "committed");
    // Nothing of these files is in the log: the mount holds no state for
    // them, so only the fd table still naming them orders these calls.
    let clock = at_mount();
    cache.unlink("/f1", &clock).expect("unlink");
    after(clock, "unlinked");
    let clock = at_mount();
    cache.rename("/f2", "/g2", &clock).expect("rename");
    after(clock, "renamed");
    let clock = at_mount();
    cache.open("/g2", OpenFlags::RDWR | OpenFlags::TRUNC, &clock).expect("open");
    after(clock, "truncated");
    cache.shutdown(&ActorClock::new());

    // Every slot is one recovery cleared: the open waits for the clear.
    let Remounted { cache, took, .. } = remount(&[1; 8]);
    let durable = cache.recovery_report().expect("recovering mount").durable_at;
    let clock = ActorClock::starting_at(took);
    cache.open("/new", OpenFlags::RDWR | OpenFlags::CREATE, &clock).expect("open");
    assert!(clock.now() >= durable, "opened at {}, before {durable}", clock.now());
    cache.shutdown(&ActorClock::new());

    // A migration moves a file off the backend the log and the fd table
    // may still name: moving the small recovered file to an empty `MemFs`
    // tier waits, though its copy queues behind no device and is far
    // shorter than the write-back of the two large files.
    let fast: Arc<dyn FileSystem> = Arc::new(MemFs::new());
    let (rig, _) = crashed_log(&[1, 64, 64], 1, vec![Arc::clone(&fast)]);
    let cache = rig.recover();
    let clock = &rig.clock;
    let durable = cache.recovery_report().expect("recovering mount").durable_at;
    assert!(clock.now() < durable, "the mount waited for the durability tail");
    let moved = ActorClock::starting_at(clock.now());
    assert_eq!(cache.migrate("/f0", 1, &moved).expect("migrate"), 4096);
    assert!(moved.now() >= durable, "migrated at {}, before {durable}", moved.now());
    let fd = fast.open("/f0", OpenFlags::RDONLY, &moved).expect("on the fast tier");
    let mut buf = [0u8; 4096];
    assert_eq!(fast.pread(fd, &mut buf, 0, &moved).expect("pread"), buf.len());
    assert!(buf == page_of(0, 0), "the replayed bytes");
    cache.shutdown(&ActorClock::new());
}
