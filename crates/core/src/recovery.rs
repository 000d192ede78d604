//! The recovery procedure (paper §III): reopen files from the persistent
//! fd table — each on the backend its slot records — collect every
//! committed entry in global commit order (per-stripe sorted runs, k-way
//! merged), and replay them as a **plan**, not entry by entry:
//!
//! 1. **scan** — beside the reopen, each stripe is scanned on a *scanner*
//!    clock of its own, started where the journal repair ended: it reads
//!    the stripe's persistent tail and every header of its ring, members of
//!    committed groups included, and lists each committed entry (its global
//!    slot, fd slot, file offset and length, stamped with its leader's
//!    sequence number) — a list of O(entries), not O(groups). The replay
//!    starts once the reopen and the slowest scanner have both ended;
//! 2. **plan** — the committed entries are admitted, in commit order, into
//!    a [`replay::Window`](crate::replay); it walks them newest-first and
//!    keeps of each entry only the bytes no newer entry of the *same file*
//!    overwrites. "Same file" is the file's identity on its inner file
//!    system — `(backend, dev, ino)` from an `fstat` of the reopened
//!    descriptor — never the fd slot: one file open through two descriptors
//!    is last-writer-wins across both;
//! 3. **extents** — the surviving pieces of a window are glued into
//!    extents, each read from NVMM once and written with one inner
//!    `pwrite`, ascending by offset. Pieces glue when they touch, and
//!    across a gap shorter than a page that lies past the file's
//!    *known-zero offset* — the larger of its inner size at the reopen (the
//!    `fstat` of step 2) and the end of what an earlier window wrote to
//!    it —: the gap is written as zeros. A window holds at most
//!    [`WINDOW_PAYLOAD`](crate::replay::WINDOW_PAYLOAD) payload bytes or
//!    [`WINDOW_ENTRIES`](crate::replay::WINDOW_ENTRIES) entries and is
//!    written out completely before the next one is planned, so memory is
//!    bounded whatever the log holds. The reads overlap the writes: every
//!    NVMM read of the replay (the extents' pieces) runs on the *reader*'s
//!    own clock, which starts a window's pieces once the previous window is
//!    written; the replay's clock writes each extent once the reader has
//!    read it. One actor per resource: a scanner per stripe and then the
//!    reader read the NVMM, the replay's clock uses the inner file systems
//!    (the reopen, then the writes into the page cache), the syncer the
//!    device;
//! 4. **sync** — durability overlaps the copy: the extents come sorted by
//!    file, and when the replay moves on from a file while the *syncer* is
//!    idle, that file's inner `fsync` runs on the syncer's own clock as the
//!    next file is copied (on a one-channel SSD the device writes one file
//!    back while the next is read from NVMM). A file finished while the
//!    syncer is busy is left to the end, so a log of many small files pays
//!    about one journal commit more than a single `sync`, not one per file.
//!    After the last extent the syncer, from its last `fsync`, syncs every
//!    backend, which covers the last file and every file left over; a
//!    one-file log issues that `sync` alone;
//! 5. **empty** — only after every `fsync` and the `sync` have returned are
//!    the commit words and the tails cleared, the reopened descriptors
//!    closed and their fd slots cleared, still on the syncer's clock.
//!
//! The mount returns at the end of the copy, not of step 5: the paper makes
//! a write durable once it is in the NVMM log, which is emptied only after
//! the inner file systems hold the replay durably, so only what orders
//! itself after step 5 waits for the syncer
//! ([`RecoveryReport::durable_at`]). The fd table is read once, whole, for
//! the reopen and the migration-journal repair.
//!
//! The inner files end byte-identical to a sequential replay of every
//! entry, and — because nothing in NVMM changes before step 5 — a crash
//! anywhere inside recovery is healed by running it again.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

use nvmm::NvRegion;
use simclock::{ActorClock, SimTime};
use vfs::{FileSystem, IoError, IoResult, OpenFlags};

use crate::files::{FdSlot, PersistentFdTable};
use crate::layout::{CommitWord, Header, Layout, FD_VALID_OPEN};
use crate::log::EntryHeader;
use crate::placement::dequantize_heat;
use crate::replay::{Pending, Window};
use crate::tiers::Tiers;

/// Outcome of a recovery run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RecoveryReport {
    /// Committed entries whose effect reached the inner file system(s):
    /// every committed entry of a file that still exists, whether its bytes
    /// were written or absorbed by a newer entry of the same file.
    pub entries_replayed: u64,
    /// Entries skipped: torn or uncommitted, or logged through an fd slot
    /// that is no longer valid (the file was unlinked, or is missing).
    pub entries_skipped: u64,
    /// Files reopened from the persistent fd table.
    pub files_reopened: usize,
    /// Valid fd-table slots whose file no longer exists: removed behind the
    /// mount's back (directly on the inner file system), or by a crash
    /// between an inner `unlink` and the slot update. Their entries are
    /// discarded, not replayed. A file unlinked *through the mount* is not
    /// counted: `unlink` invalidated its slots, so recovery never looks for
    /// it (its entries are in
    /// [`entries_skipped`](RecoveryReport::entries_skipped)).
    pub files_missing: usize,
    /// Payload bytes of the replayed entries.
    pub bytes_replayed: u64,
    /// Inner `pwrite` calls the replay issued: one per extent of surviving
    /// bytes (per planning window), not one per entry; pieces a gap shorter
    /// than a page separates past the file's inner end are one extent.
    /// Exact — a function of the log's content and of each reopened file's
    /// inner size.
    pub inner_writes: u64,
    /// Of [`bytes_replayed`](RecoveryReport::bytes_replayed), the bytes
    /// never read from NVMM nor written, because a newer entry of the same
    /// file in the same planning window overwrites them. Exact — a function
    /// of the log's content alone.
    pub bytes_absorbed: u64,
    /// Distinct inner backends that received replayed files (`1` on a
    /// single-backend mount; up to the tier count on a tiered one).
    pub backends_touched: usize,
    /// Recovered files whose backend disagrees with where the mount's
    /// router puts their path (possible after tiers were added or the
    /// routing policy changed); under a [`HeatPolicy`](crate::HeatPolicy)
    /// that also counts files the policy had promoted before the crash
    /// whose hottest persisted heat word no longer clears the promote
    /// threshold. Their bytes stay fully reachable — `stat`,
    /// `unlink` and `open` (creating or not) probe the recorded backend
    /// before policy routing, so an existing file is always opened in
    /// place — but they sit on the wrong tier until a
    /// [`rebalance`](crate::NvCache::rebalance) sweep (which finds them in
    /// the catalog recovery seeds) or the operator moves them. `0` means
    /// every recovered file is where the router expects it.
    pub files_misplaced: usize,
    /// Interrupted migrations rolled forward/back from their journal slots
    /// (the crashed mount died inside a copy → stamp → unlink protocol run;
    /// see `migrate.rs`). Each repair leaves exactly one authoritative copy.
    pub migrations_repaired: usize,
    /// When recovery's durability tail ended, on the syncer's clock: the
    /// inner `sync`s, the log clear, the closes and fd-slot clears run there
    /// after the copy, while the mount returns at the end of the copy. Every
    /// operation that depends on the tail waits for this instant — a log
    /// reservation or drain, an `unlink` or `rename`, a truncating `open`,
    /// a migration, an `open` handed a slot recovery cleared —; reads and
    /// other opens do not, since the inner page cache already holds every
    /// replayed byte.
    pub durable_at: SimTime,
}

/// A member of a committed group as its stripe's scanner read it (nothing
/// of it is read again but its payload): ordered globally by `seq`, its
/// group leader's stamped sequence number, and within a group by ring
/// order.
#[derive(Debug, Clone, Copy)]
struct CommittedEntry {
    seq: u64,
    /// Global entry slot.
    slot: u64,
    fd_slot: u32,
    file_off: u64,
    len: u32,
}

/// What the replay phase works on: the image, the reopened files and the
/// committed entries in global commit order.
pub(crate) struct Replay<'a> {
    region: &'a NvRegion,
    lay: &'a Layout,
    backends: &'a [Arc<dyn FileSystem>],
    /// One `(backend, descriptor, inner size at the reopen)` per distinct
    /// reopened *file*.
    files: &'a [(usize, vfs::Fd, u64)],
    /// fd slot → index into `files`; a slot whose file is gone is absent.
    file_of_slot: &'a HashMap<u32, usize>,
    entries: &'a [CommittedEntry],
    clock: &'a ActorClock,
}

/// The replay phase's one production form: plan → extents (module docs).
/// Returns the syncer's clock, at the end of its last `fsync`.
pub(crate) fn replay_planned(replay: &Replay, report: &mut RecoveryReport) -> IoResult<ActorClock> {
    let Replay { region, lay, backends, files, clock, .. } = *replay;
    let mut window = Window::default();
    // Each file reads as zeros from its reopened size on; `write_out`
    // raises that past what each window writes (module docs, step 3).
    let mut zero_from: Vec<u64> = files.iter().map(|&(.., size)| size).collect();
    let (mut inner_writes, mut payload) = (0, 0);
    // Beside the replay's clock, which writes the inner page cache, the
    // reader reads every payload, at most a window ahead, and the syncer
    // writes back each file the replay leaves while it is idle; a file
    // left while it is busy waits for the final `sync` (module docs).
    let [syncer, reader] = [(); 2].map(|()| ActorClock::starting_at(clock.now()));
    let mut copying = None;
    let mut write_out = |window: &mut Window| -> IoResult<()> {
        reader.advance_to(clock.now());
        payload += window.plan().write_out(
            &mut zero_from,
            |at, buf| region.read(at, buf, &reader),
            |file, off, data| {
                inner_writes += 1;
                clock.advance_to(reader.now());
                let idle = syncer.now() <= clock.now();
                if let Some(done) = copying.replace(file).filter(|&done| done != file && idle) {
                    let (backend, fd, _) = files[done];
                    syncer.advance_to(clock.now());
                    backends[backend].fsync(fd, &syncer)?;
                }
                let (backend, fd, _) = files[file];
                backends[backend].pwrite(fd, data, off, clock).map(drop)
            },
        )?;
        Ok(())
    };
    for logged in replay.entries {
        let Some(&file) = replay.file_of_slot.get(&logged.fd_slot) else {
            // Entry for a slot missing from the fd table. By design:
            // `unlink` cleared the slots of its victim so that nothing of it
            // is replayed, into whatever carries the name now; a `close`
            // clears a slot only after a full drain, so the entry is on
            // disk; or the file is missing (cleared above).
            report.entries_skipped += 1;
            continue;
        };
        report.entries_replayed += 1;
        report.bytes_replayed += logged.len as u64;
        let CommittedEntry { file_off, len, slot, .. } = *logged;
        if window.push(Pending { file, file_off, len, data_at: lay.entry_data(slot) }) {
            write_out(&mut window)?;
        }
    }
    write_out(&mut window)?;
    clock.advance_to(reader.now());
    report.inner_writes = inner_writes;
    report.bytes_absorbed = report.bytes_replayed - payload;
    Ok(syncer)
}

#[cfg(test)]
pub(crate) use reference::replay_per_entry;

/// The replay phase as [`recover`] takes it: it returns its syncer's clock,
/// which the durability tail goes on from.
pub(crate) type Replayer = fn(&Replay<'_>, &mut RecoveryReport) -> IoResult<ActorClock>;

/// `(path, backend, dequantized heat)` summaries harvested from the fd
/// slots' heat words, ready to seed the migrator's catalog.
pub(crate) type HeatSeeds = Vec<(String, u32, f64)>;

/// What [`recover`] hands the mount.
#[derive(Default)]
pub(crate) struct Recovered {
    pub report: RecoveryReport,
    /// The misplaced `(path, backend)` pairs, for the migrator's catalog.
    pub misplaced: Vec<(String, u32)>,
    /// The `(path, backend, heat)` summaries of the heat words.
    pub heat: HeatSeeds,
    /// The fd slots cleared on the syncer's clock (at
    /// [`durable_at`](RecoveryReport::durable_at)), ascending.
    pub cleared: Vec<u32>,
}

/// The recovery procedure (paper §III "Recovery procedure"): reopen the
/// files recorded in the NVMM fd table while one scanner per stripe
/// collects every committed entry from the persistent tail(s) (skipping
/// torn entries, honouring group commit flags), merge them into *global
/// commit order*, replay them as planned extents — a reader reads them
/// from NVMM ahead of the inner writes — while an idle syncer writes back
/// each file the replay has finished; then, on the syncer's clock, sync
/// every backend, empty the log and close the files (module docs: scan →
/// plan → extents → sync → empty). `clock` waits for the reopen and the
/// slowest scanner, and ends at the end of the copy, after the reader's
/// last read; the report's
/// [`durable_at`](RecoveryReport::durable_at) is where the syncer's clock
/// ends, and the mount seeds the log's free stamps and the fd-slot
/// allocator with it.
///
/// Each stripe, a one-stripe log's included, is scanned in ring order from
/// its own persistent tail, on its own clock; within a stripe, ring order
/// equals global-sequence order (an allocation invariant), so the
/// per-stripe scans yield sorted runs that a k-way merge by stamped
/// sequence number turns into the exact global commit order.
/// The scanners read only NVMM and the reopen only the inner file systems,
/// so the two overlap: the replay starts at the later of their ends.
///
/// **Backend resolution.** Each fd slot stores its backend index; the
/// slot's pending entries replay to exactly that backend — the router is
/// *not* consulted, because its policy may have changed across the reboot
/// while the acknowledged bytes live where they were written. An image
/// written over one backend and recovered over several replays every file
/// to backend 0, the tier its slots record.
///
/// **Misplacement** is judged once per path, after the slot scan: the heat
/// catalog is volatile (only the slots' heat words survive, see below), so
/// each recovered file is checked against the router's current placement of
/// its path. Recovery moves no file: the misplaced ones are handed to the
/// migrator, and moving them is a [`rebalance`](crate::NvCache::rebalance)'s
/// job. Leftover migration journals from a crash inside the copy → stamp →
/// unlink protocol are repaired first, on every recovery.
///
/// **Persisted heat**: every slot ends in a quantized temperature summary,
/// stamped by a mount that tracks heat. A
/// mount that tracks heat too (`Tiers::heat`) dequantizes the summaries,
/// keeps the hottest of each path's slots and returns them so the mount can
/// re-seed the migrator's heat catalog — a crashed
/// [`HeatPolicy`](crate::HeatPolicy) mount re-promotes its hot set on the
/// next sweep without the files being re-touched; every other mount ignores
/// the word. A path whose seeded heat clears the promote threshold is *not*
/// judged misplaced: the persisted temperature says it is exactly where
/// promotion put it, and the next sweep would promote it again.
///
/// Returns the report, the misplaced `(path, backend)` pairs — the mount
/// seeds the migrator's catalog with them so a later
/// [`rebalance`](crate::NvCache::rebalance) can find the files — and the
/// `(path, backend, heat)` summaries recovered from the heat words (empty
/// unless the mount tracks heat).
///
/// Idempotent: crashing *during* recovery and running it again converges to
/// the same state, because replay only overwrites with logged data and the
/// log is emptied only after the syncer's last `fsync` and the final `sync`.
/// A failing `fsync` or `sync` aborts recovery before anything in NVMM
/// changes; a crash after the log clear leaves fd slots whose files the next
/// recovery reopens and closes again, with nothing to replay.
///
/// `image` is the region's header, already read and checked against the
/// mount. `replay` is the replay phase: [`replay_planned`] for every mount;
/// tests also pass the per-entry reference, which then runs between the
/// very same reopen, scan, sync and empty steps.
pub(crate) fn recover(
    region: &NvRegion,
    image: &Header,
    tiers: &Tiers,
    clock: &ActorClock,
    replay: Replayer,
) -> IoResult<Recovered> {
    let (backends, router) = (&*tiers.backends, &*tiers.router);
    let lay = image.layout;

    // One charged read of the whole fd table serves the journal repair and
    // the reopen alike. Repair interrupted migrations first (journal slots
    // are invisible to the open-file scan below, but their
    // non-authoritative copies must be gone before anything else looks at
    // the backends).
    let table = PersistentFdTable::snapshot(region, &lay, clock);
    let mut report = RecoveryReport {
        migrations_repaired: crate::migrate::repair_journals(region, &lay, &table, tiers, clock)?,
        ..RecoveryReport::default()
    };
    // The scanners start here, beside the reopen (see the scan below).
    let repaired = clock.now();

    // Reopen the files referenced by the fd table, each on its backend.
    // `reopened` lists every descriptor (to close it and clear its slot);
    // `files` lists every distinct file once, found by its identity on the
    // inner file system, with its inner size, and `file_of_slot` maps each
    // slot to its file.
    let mut reopened: Vec<(u32, usize, vfs::Fd)> = Vec::new();
    let mut files: Vec<(usize, vfs::Fd, u64)> = Vec::new();
    let mut file_of_identity: HashMap<(usize, u64, u64), usize> = HashMap::new();
    let mut file_of_slot: HashMap<u32, usize> = HashMap::new();
    // path → (backend, heat) of every recovered file: one entry per path (a
    // file open through several descriptors stamps one summary per slot;
    // keep the hottest, 0 when the mount tracks no heat).
    // Ordered by path: catalog admission order must be deterministic (the
    // virtual-time oracle replays mounts byte for byte).
    let mut recovered: BTreeMap<String, (u32, f64)> = BTreeMap::new();
    for (slot, FdSlot { path, backend, heat }) in table.slots(FD_VALID_OPEN) {
        let Some(inner) = backends.get(backend as usize) else {
            return Err(IoError::InvalidArgument(format!(
                "fd slot {slot} ({path}) references backend {backend}, \
                 but recovery got only {} backends",
                backends.len()
            )));
        };
        // No O_CREAT: a file that disappeared was deleted (NVCache opens
        // files on the inner FS synchronously), and its pending writes must
        // not resurrect it.
        match inner.open(&path, OpenFlags::RDWR, clock) {
            Ok(fd) => {
                let backend = backend as usize;
                let meta = inner.fstat(fd, clock)?;
                let file =
                    *file_of_identity.entry((backend, meta.dev, meta.ino)).or_insert_with(|| {
                        files.push((backend, fd, meta.size));
                        files.len() - 1
                    });
                file_of_slot.insert(slot, file);
                reopened.push((slot, backend, fd));
                report.files_reopened += 1;
                let heat = if tiers.heat.is_some() { dequantize_heat(heat) } else { 0.0 };
                let (at, hottest) = recovered.entry(path).or_insert((0, 0.0));
                *at = backend as u32;
                *hottest = hottest.max(heat);
            }
            Err(IoError::NotFound(_)) => {
                // The file was removed behind the mount's back, or the crash
                // fell between an inner `unlink` and the slot update: its
                // pending entries are skipped below, and the slot is cleared
                // here so no later mount looks for the file again.
                PersistentFdTable::clear(region, &lay, slot, clock);
                report.files_missing += 1;
            }
            Err(e) => return Err(e),
        }
    }
    // Replay lands where each file was found; path operations keep reaching
    // it there (recorded-backend probing), but it sits on the wrong tier —
    // as judged by the router, unless the hottest persisted summary of its
    // path clears the promote threshold (promotion put it there on purpose)
    // — until a rebalance sweep or the operator moves it. Count it so the
    // mismatch is visible instead of silent. Each path is judged once, with
    // the heat it seeds, so the misplaced list carries each path once.
    let promote = tiers.heat.as_ref().map(|p| p.promote_threshold);
    let misplaced: Vec<(String, u32)> = recovered
        .iter()
        .filter(|(path, &(backend, heat))| {
            let hot = promote.is_some_and(|t| heat >= t);
            backend as usize != router.route(path) && !hot
        })
        .map(|(path, &(backend, _))| (path.clone(), backend))
        .collect();
    report.files_misplaced = misplaced.len();
    report.backends_touched =
        reopened.iter().map(|&(_, backend, _)| backend).collect::<BTreeSet<_>>().len();

    // Scan phase, one scanner clock per stripe from where the repair ended:
    // the scanners read only NVMM, so they ran beside the reopen above. Each
    // reads its stripe's persistent tail and then every header of its ring
    // in ring order, the members of a committed group with it, so nothing
    // but payloads is read again.
    let mut entries: Vec<CommittedEntry> = Vec::new();
    let (per_stripe, mut scanned) = (lay.stripe_entries(), clock.now());
    for stripe in 0..lay.log_shards {
        let scanner = ActorClock::starting_at(repaired);
        let mut tail = [0u8; 8];
        region.read(lay.stripe_tail_off(stripe), &mut tail, &scanner);
        let stripe_tail = u64::from_le_bytes(tail);
        // The leader's sequence number and the members of its group left.
        let (mut seq, mut members) = (0, 0);
        for i in 0..per_stripe {
            let slot = lay.stripe_slot(stripe, stripe_tail + i);
            let mut bytes = [0u8; EntryHeader::BYTES];
            region.read(lay.entry(slot), &mut bytes, &scanner);
            let header = EntryHeader::decode(&bytes);
            if members == 0 {
                match header.commit {
                    CommitWord::Free => continue,
                    CommitWord::Member(_) => {
                        // An orphan member: its leader never committed (or
                        // was freed with the group); skip.
                        report.entries_skipped += 1;
                        continue;
                    }
                    CommitWord::Leader => {
                        seq = header.seq;
                        members = (header.group_len.max(1) as u64).min(per_stripe - i);
                    }
                }
            }
            members -= 1;
            let EntryHeader { fd_slot, file_off, len, .. } = header;
            entries.push(CommittedEntry { seq, slot, fd_slot, file_off, len });
        }
        scanned = scanned.max(scanner.now());
    }
    // Merge phase: total order by global sequence number, once the reopen
    // and the slowest scanner are done. Each stripe's scan produced an
    // already-sorted run, so this is the k-way merge collapsed into one
    // stable sort, which keeps each group's members in ring order.
    clock.advance_to(scanned);
    entries.sort_by_key(|e| e.seq);

    // Replay phase: every committed entry, in global commit order, to the
    // file its fd slot resolved to.
    let syncer = replay(
        &Replay {
            region,
            lay: &lay,
            backends,
            files: &files,
            file_of_slot: &file_of_slot,
            entries: &entries,
            clock,
        },
        &mut report,
    )?;

    // The durability tail, on the syncer's clock from its last `fsync` (the
    // mount returns now): make the rest of the replay durable on every
    // backend — the last file and those the syncer was too busy to take —,
    // then (and only then) empty the log.
    syncer.advance_to(clock.now());
    for backend in backends {
        backend.sync(&syncer)?;
    }
    lay.clear_entries(region, 0, lay.nb_entries, &syncer);
    for stripe in 0..lay.log_shards {
        region.write_and_pwb(lay.stripe_tail_off(stripe), &[0; 8], &syncer);
    }
    region.persist_fence(&syncer);
    // Close and clear the fd table.
    for &(slot, backend, fd) in &reopened {
        backends[backend].close(fd, &syncer)?;
        PersistentFdTable::clear(region, &lay, slot, &syncer);
    }

    // Stamp the mount's backend count: an image recovered over more tiers
    // records the grown count, so it is never mounted over fewer again.
    Header::upgrade(region, backends.len() as u64, &syncer);
    report.durable_at = syncer.now();

    // No final psync: every store above was already pwb'd and fenced (the
    // log clear at the persist_fence, the fd-table clears each end fenced),
    // so the barrier the seed inherited from the paper's recovery sketch
    // covered nothing — the pmcheck redundant-fence counter confirmed an
    // always-empty flush queue here.
    let heat = recovered
        .into_iter()
        .filter(|&(_, (_, heat))| heat > 0.0)
        .map(|(path, (backend, heat))| (path, backend, heat))
        .collect();
    let cleared = reopened.iter().map(|&(slot, ..)| slot).collect();
    Ok(Recovered { report, misplaced, heat, cleared })
}

/// The per-entry replay this module used before the planner: one data read
/// and one inner `pwrite` per committed entry, in commit order. Kept as the
/// reference the planned replay is tested against (`replay_tests.rs`).
#[cfg(test)]
mod reference {
    use super::*;

    pub(crate) fn replay_per_entry(
        replay: &Replay<'_>,
        report: &mut RecoveryReport,
    ) -> IoResult<ActorClock> {
        let Replay { region, lay, backends, files, clock, .. } = *replay;
        for logged in replay.entries {
            let Some(&file) = replay.file_of_slot.get(&logged.fd_slot) else {
                report.entries_skipped += 1;
                continue;
            };
            let (backend, fd, _) = files[file];
            let mut data = vec![0u8; logged.len as usize];
            region.read(lay.entry_data(logged.slot), &mut data, clock);
            backends[backend].pwrite(fd, &data, logged.file_off, clock)?;
            report.entries_replayed += 1;
            report.bytes_replayed += logged.len as u64;
            report.inner_writes += 1;
        }
        Ok(ActorClock::starting_at(clock.now()))
    }
}
