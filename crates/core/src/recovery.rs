//! The recovery procedure (paper §III): reopen files from the persistent
//! fd table — each on the backend its slot records — collect every
//! committed group in global commit order (per-stripe sorted runs, k-way
//! merged), and replay them as a **plan**, not entry by entry:
//!
//! 1. **plan** — the committed entries are admitted, in commit order, into
//!    a [`replay::Window`](crate::replay); it walks them newest-first and
//!    keeps of each entry only the bytes no newer entry of the *same file*
//!    overwrites. "Same file" is the file's identity on its inner file
//!    system — `(backend, dev, ino)` from an `fstat` of the reopened
//!    descriptor — never the fd slot: one file open through two descriptors
//!    is last-writer-wins across both;
//! 2. **extents** — the surviving pieces of a window are glued into
//!    contiguous extents, each read from NVMM once and written with one
//!    inner `pwrite`, ascending by offset. A window holds at most
//!    [`WINDOW_PAYLOAD`](crate::replay::WINDOW_PAYLOAD) payload bytes or
//!    [`WINDOW_ENTRIES`](crate::replay::WINDOW_ENTRIES) entries and is
//!    written out completely before the next one is planned, so memory is
//!    bounded whatever the log holds;
//! 3. **sync** — every backend is synced;
//! 4. **empty** — only then are the commit words, the tails and the fd
//!    table cleared.
//!
//! The inner files end byte-identical to a sequential replay of every
//! entry, and — because nothing in NVMM changes before step 4 — a crash
//! anywhere inside recovery is healed by running it again.

use std::collections::HashMap;
use std::sync::Arc;

use nvmm::{NvRegion, PmemInts};
use simclock::ActorClock;
use vfs::{FileSystem, IoError, IoResult, OpenFlags};

use crate::files::{FdSlot, PersistentFdTable};
use crate::layout::{self, CommitWord, Header, Layout, FD_VALID_OPEN};
use crate::log::EntryHeader;
use crate::placement::dequantize_heat;
use crate::replay::{Pending, Window, Written};
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
    /// Inner `pwrite` calls the replay issued: one per contiguous extent of
    /// surviving bytes (per planning window), not one per entry. Exact —
    /// a function of the log's content alone.
    pub inner_writes: u64,
    /// Of [`bytes_replayed`](RecoveryReport::bytes_replayed), the bytes
    /// never read from NVMM nor written, because a newer entry of the same
    /// file in the same planning window overwrites them. Exact, as above.
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
}

/// A committed group found by the scan phase: `stripe`'s ring position
/// `first_slot..first_slot+len` (global entry slots, contiguous), ordered
/// globally by the leader's stamped sequence number (`leader.seq`).
#[derive(Debug, Clone, Copy)]
struct CommittedGroup {
    first_slot: u64,
    len: u64,
    /// The leader's header as the scan read it (not read again).
    leader: EntryHeader,
}

/// What the replay phase works on: the image, the reopened files and the
/// committed groups in global commit order.
pub(crate) struct Replay<'a> {
    region: &'a NvRegion,
    lay: &'a Layout,
    backends: &'a [Arc<dyn FileSystem>],
    /// One `(backend, descriptor)` per distinct reopened *file*.
    files: &'a [(usize, vfs::Fd)],
    /// fd slot → index into `files`; a slot whose file is gone is absent.
    file_of_slot: &'a HashMap<u32, usize>,
    groups: &'a [CommittedGroup],
    clock: &'a ActorClock,
}

impl Replay<'_> {
    /// Global entry slot of member `g` of `group`. Group slots are
    /// contiguous in the owning stripe's window and never wrap past it
    /// mid-group (allocation keeps groups whole), but the modulo keeps the
    /// scan honest at the window edge.
    fn slot_of(&self, group: &CommittedGroup, g: u64) -> u64 {
        let per_stripe = self.lay.stripe_entries();
        let stripe = group.first_slot / per_stripe;
        stripe * per_stripe + (group.first_slot % per_stripe + g) % per_stripe
    }
}

/// The header of the entry in global slot `slot`, by one charged read.
fn read_header(region: &NvRegion, lay: &Layout, slot: u64, clock: &ActorClock) -> EntryHeader {
    let mut bytes = [0u8; EntryHeader::BYTES];
    region.read(lay.entry(slot), &mut bytes, clock);
    EntryHeader::decode(&bytes)
}

/// The replay phase's one production form: plan → extents (module docs).
pub(crate) fn replay_planned(replay: &Replay<'_>, report: &mut RecoveryReport) -> IoResult<()> {
    let Replay { region, lay, backends, files, clock, .. } = *replay;
    let mut window = Window::default();
    let mut total = Written::default();
    let mut write_out = |window: &mut Window| -> IoResult<()> {
        let written = window.plan().write_out(
            |at, buf| region.read(at, buf, clock),
            |file, off, data| {
                let (backend, fd) = files[file];
                backends[backend].pwrite(fd, data, off, clock).map(drop)
            },
        )?;
        total.inner_writes += written.inner_writes;
        total.bytes += written.bytes;
        Ok(())
    };
    for group in replay.groups {
        for g in 0..group.len {
            let gslot = replay.slot_of(group, g);
            let logged = if g == 0 { group.leader } else { read_header(region, lay, gslot, clock) };
            let Some(&file) = replay.file_of_slot.get(&logged.fd_slot) else {
                // Entry for a slot missing from the fd table. By design:
                // `unlink` cleared the slots of its victim so that nothing
                // of it is replayed, into whatever carries the name now; a
                // `close` clears a slot only after a full drain, so the
                // entry is on disk; or the file is missing (cleared above).
                report.entries_skipped += 1;
                continue;
            };
            report.entries_replayed += 1;
            report.bytes_replayed += logged.len as u64;
            let entry = Pending {
                file,
                file_off: logged.file_off,
                len: logged.len,
                data_at: lay.entry_data(gslot),
            };
            if window.push(entry) {
                write_out(&mut window)?;
            }
        }
    }
    write_out(&mut window)?;
    report.inner_writes = total.inner_writes;
    report.bytes_absorbed = report.bytes_replayed - total.bytes;
    Ok(())
}

#[cfg(test)]
pub(crate) use reference::replay_per_entry;

/// The replay phase as [`recover`] takes it.
pub(crate) type Replayer = fn(&Replay<'_>, &mut RecoveryReport) -> IoResult<()>;

/// `(path, backend, dequantized heat)` summaries harvested from the fd
/// slots' heat words, ready to seed the migrator's catalog.
pub(crate) type HeatSeeds = Vec<(String, u32, f64)>;

/// What [`recover`] hands the mount: the report, the misplaced
/// `(path, backend)` pairs, and the recovered heat seeds.
pub(crate) type Recovered = (RecoveryReport, Vec<(String, u32)>, HeatSeeds);

/// The recovery procedure (paper §III "Recovery procedure"): reopen the
/// files recorded in the NVMM fd table, collect every committed entry from
/// the persistent tail(s) in *global commit order* (skipping torn entries,
/// honouring group commit flags), replay them as planned extents (module
/// docs: plan → extents → sync → empty), close the files, and empty the
/// log.
///
/// On a single-stripe log (the seed format) the scan is the seed's
/// in-ring-order scan from [`layout::OFF_PTAIL`]. On a striped log each
/// stripe is scanned from its own persistent tail; within a stripe, ring
/// order equals global-sequence order (an allocation invariant), so the
/// per-stripe scans yield sorted runs that a k-way merge by stamped sequence
/// number turns into the exact global commit order.
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
/// log is emptied only after the final `sync`.
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
    let Header { layout: lay, ptail, .. } = *image;
    let (nb_entries, fd_slots, log_shards) = (lay.nb_entries, lay.fd_slots, lay.log_shards);

    // Repair interrupted migrations first (journal slots are invisible to
    // the open-file scan below, but their non-authoritative copies must be
    // gone before anything else looks at the backends).
    let mut report = RecoveryReport {
        migrations_repaired: crate::migrate::repair_journals(region, &lay, tiers, clock)?,
        ..RecoveryReport::default()
    };

    // Reopen the files referenced by the fd table, each on its backend.
    // `reopened` lists every descriptor (to close it and clear its slot);
    // `files` lists every distinct file once, found by its identity on the
    // inner file system, and `file_of_slot` maps each slot to its file.
    let mut reopened: Vec<(u32, usize, vfs::Fd)> = Vec::new();
    let mut files: Vec<(usize, vfs::Fd)> = Vec::new();
    let mut file_of_identity: HashMap<(usize, u64, u64), usize> = HashMap::new();
    let mut file_of_slot: HashMap<u32, usize> = HashMap::new();
    // path → (backend, heat) of every recovered file: one entry per path (a
    // file open through several descriptors stamps one summary per slot;
    // keep the hottest, 0 when the mount tracks no heat).
    let mut recovered: HashMap<String, (u32, f64)> = HashMap::new();
    for slot in 0..fd_slots as u32 {
        let Some(FdSlot { path, backend, heat }) =
            PersistentFdTable::get(region, &lay, slot, FD_VALID_OPEN, clock)
        else {
            continue;
        };
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
                        files.push((backend, fd));
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
    let mut misplaced: Vec<(String, u32)> = recovered
        .iter()
        .filter(|(path, &(backend, heat))| {
            let hot = promote.is_some_and(|t| heat >= t);
            backend as usize != router.route(path) && !hot
        })
        .map(|(path, &(backend, _))| (path.clone(), backend))
        .collect();
    misplaced.sort();
    report.files_misplaced = misplaced.len();
    let mut touched = vec![false; backends.len()];
    for &(_, backend, _) in &reopened {
        touched[backend] = true;
    }
    report.backends_touched = touched.iter().filter(|&&t| t).count();

    // Scan phase: collect committed groups per stripe, in ring order from
    // each stripe's persistent tail. On the seed format this is one scan
    // starting at OFF_PTAIL.
    let mut groups: Vec<CommittedGroup> = Vec::new();
    let per_stripe = lay.stripe_entries();
    for stripe in 0..log_shards {
        let stripe_tail = if log_shards == 1 {
            ptail
        } else {
            let mut t = [0u8; 8];
            region.read(lay.stripe_tail_off(stripe), &mut t, clock);
            u64::from_le_bytes(t)
        };
        let mut i = 0u64;
        while i < per_stripe {
            let slot = lay.stripe_slot(stripe, stripe_tail + i);
            let header = read_header(region, &lay, slot, clock);
            match header.commit {
                CommitWord::Free => {
                    i += 1;
                }
                CommitWord::Member(_) => {
                    // An orphan member: its leader never committed (or was
                    // freed with the group); skip.
                    report.entries_skipped += 1;
                    i += 1;
                }
                CommitWord::Leader => {
                    let group_len = (header.group_len.max(1) as u64).min(per_stripe - i);
                    groups.push(CommittedGroup {
                        first_slot: slot,
                        len: group_len,
                        leader: header,
                    });
                    i += group_len;
                }
            }
        }
    }
    // Merge phase: total order by global sequence number. Each stripe's scan
    // produced an already-sorted run, so this is the k-way merge collapsed
    // into one sort of the (few) committed groups.
    groups.sort_by_key(|g| g.leader.seq);

    // Replay phase: every committed entry, in global commit order, to the
    // file its fd slot resolved to.
    replay(
        &Replay {
            region,
            lay: &lay,
            backends,
            files: &files,
            file_of_slot: &file_of_slot,
            groups: &groups,
            clock,
        },
        &mut report,
    )?;

    // Make the replay durable on every backend, then (and only then) empty
    // the log.
    for backend in backends {
        backend.sync(clock)?;
    }
    for slot in 0..nb_entries {
        let base = lay.entry(slot);
        region.write_u64(base + layout::ENT_COMMIT, 0, clock);
        region.pwb(base + layout::ENT_COMMIT, 8);
    }
    region.write_u64(layout::OFF_PTAIL, 0, clock);
    region.pwb(layout::OFF_PTAIL, 8);
    if log_shards > 1 {
        for stripe in 0..log_shards {
            region.write_u64(lay.stripe_tail_off(stripe), 0, clock);
            region.pwb(lay.stripe_tail_off(stripe), 8);
        }
    }
    region.persist_fence(clock);
    // Close and clear the fd table.
    for (slot, backend, fd) in reopened {
        backends[backend].close(fd, clock)?;
        PersistentFdTable::clear(region, &lay, slot, clock);
    }

    // Stamp the mount's backend count: an image recovered over more tiers
    // records the grown count, so it is never mounted over fewer again; a
    // single-backend mount keeps the 0 encoding.
    Header::upgrade(region, backends.len() as u64, clock);

    // No final psync: every store above was already pwb'd and fenced (the
    // log clear at the persist_fence, the fd-table clears each end fenced),
    // so the barrier the seed inherited from the paper's recovery sketch
    // covered nothing — the pmcheck redundant-fence counter confirmed an
    // always-empty flush queue here.
    let mut heat_seeds: HeatSeeds = recovered
        .into_iter()
        .filter(|&(_, (_, heat))| heat > 0.0)
        .map(|(path, (backend, heat))| (path, backend, heat))
        .collect();
    // HashMap iteration order is not deterministic; catalog admission order
    // must be (the virtual-time oracle replays mounts byte for byte).
    heat_seeds.sort_by(|a, b| a.0.cmp(&b.0));
    Ok((report, misplaced, heat_seeds))
}

/// The per-entry replay this module used before the planner: one header
/// read, one data read and one inner `pwrite` per committed entry, in
/// commit order. Kept as the reference the planned replay is tested
/// against (`replay_tests.rs`).
#[cfg(test)]
mod reference {
    use super::*;

    pub(crate) fn replay_per_entry(
        replay: &Replay<'_>,
        report: &mut RecoveryReport,
    ) -> IoResult<()> {
        let Replay { region, lay, backends, files, clock, .. } = *replay;
        for group in replay.groups {
            for g in 0..group.len {
                let gslot = replay.slot_of(group, g);
                let logged = read_header(region, lay, gslot, clock);
                let Some(&file) = replay.file_of_slot.get(&logged.fd_slot) else {
                    report.entries_skipped += 1;
                    continue;
                };
                let (backend, fd) = files[file];
                let mut data = vec![0u8; logged.len as usize];
                region.read(lay.entry_data(gslot), &mut data, clock);
                backends[backend].pwrite(fd, &data, logged.file_off, clock)?;
                report.entries_replayed += 1;
                report.bytes_replayed += logged.len as u64;
                report.inner_writes += 1;
            }
        }
        Ok(())
    }
}
