//! The tier migrator: moves whole files between the backends of
//! a tiered mount with a crash-safe **copy → stamp → unlink** protocol, so
//! that placement is no longer fixed at open time (the ROADMAP's "tier
//! rebalancing" item — NVLog-style transparent migration between tiers).
//!
//! # The protocol
//!
//! A migration of `path` from tier `A` to tier `B` walks five persistent
//! steps; the *journal* is an ordinary fd slot whose valid word is
//! [`layout::FD_VALID_MIGRATION`] and whose `(path, backend)` pair always
//! names the **authoritative** copy:
//!
//! ```text
//!   step                      crash here recovers to
//!   1. journal (path, A)      one copy on A  (partial copy on B deleted)
//!   2. copy A→B, fsync B      one copy on A  (full-but-unstamped B deleted)
//!   3. stamp backend word = B one copy on B  (stale source on A deleted)
//!   4. unlink source on A     one copy on B
//!   5. clear journal          done
//! ```
//!
//! Step 3 is the commit point: a single aligned 8-byte store (`pwb` +
//! `pfence`). Recovery repairs any leftover journal by deleting `path` from
//! every backend *except* the recorded one and clearing the slot — so a
//! crash at any step converges to exactly one authoritative copy, and the
//! content equals either the pre- or the post-migration state (the bytes
//! themselves never change).
//!
//! # What may migrate
//!
//! Only **closed, fully drained** files: a file with an open descriptor has
//! pending log entries tied to its recorded backend, and a
//! closed-but-undrained descriptor (a zombie) still owns entries too.
//! [`migrate_path`] re-checks both under the [`MigrationGate`] claim, and
//! `open`/`unlink`/`rename` take a gate lease so a path operation can never
//! interleave with a mid-flight copy. Busy files fail with
//! `IoError::Busy` (EBUSY) and are retried on the next sweep.
//!
//! # What drives it
//!
//! The [`Migrator`] keeps a volatile catalog of closed files — path,
//! current backend, size, and the decaying [`Temperature`] folded in from
//! the [`FileState`](crate::files) at last close; recovery seeds it with the
//! files it found misplaced. A sweep ([`sweep`], surfaced as
//! [`NvCache::rebalance`](crate::NvCache::rebalance)) judges every
//! catalogued file's target — the router's placement of its path, or the
//! temperature-driven promotion/demotion of the mount's
//! [`HeatPolicy`](crate::HeatPolicy) when it has one — and re-homes every
//! file whose backend disagrees, draining the tier with the
//! highest propagated-entry load first
//! ([`NvCacheStats::per_backend_propagated`](crate::NvCacheStats)) and,
//! within a tier, the hottest files first. Every sweep and every move runs
//! on the clock of the caller that asked for it; nothing migrates by
//! itself. A `rename` across tiers is the same protocol under the new name
//! (`mv` semantics, not `rename(2)` atomicity); a one-tier mount never
//! migrates.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::Ordering;
use std::sync::Arc;

use nvmm::NvRegion;
use parking_lot::{Condvar, Mutex};
use simclock::ActorClock;
use vfs::{FileSystem, IoError, IoResult, OpenFlags};

use crate::cache::Shared;
use crate::files::{FdTableSnapshot, PersistentFdTable};
use crate::layout::{Layout, FD_VALID_MIGRATION};
use crate::lockcheck::{Class, Held, Recorder};
use crate::placement::Temperature;
use crate::tiers::Tiers;

/// Outcome of one rebalancing sweep
/// ([`NvCache::rebalance`](crate::NvCache::rebalance)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RebalanceReport {
    /// Files moved to their target: the router's placement, or the heat
    /// policy's.
    pub files_migrated: usize,
    /// Payload bytes copied across tiers.
    pub bytes_moved: u64,
    /// Misplaced files skipped because they were open or still draining
    /// (they stay catalogued and are retried on the next sweep).
    pub files_busy: usize,
    /// Catalogued files already on their target backend.
    pub files_in_place: usize,
    /// Of the migrated files, how many moved **onto** the heat policy's
    /// fast tier (always `0` on a mount without a
    /// [`HeatPolicy`](crate::HeatPolicy)).
    pub files_promoted: usize,
    /// Of the migrated files, how many moved **off** the fast tier.
    pub files_demoted: usize,
}

/// Which way a finished move went, relative to the heat policy's fast tier
/// (classified once, by `Tiers::moved`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Move {
    /// Onto the fast tier.
    Promotion,
    /// Off the fast tier.
    Demotion,
    /// Neither: between two other tiers, or on a mount without a heat
    /// policy.
    Lateral,
}

/// Where a test-injected crash cuts the migration protocol short (the step
/// *after* which the simulated power failure hits). Exercised by the
/// crash-mid-migration tests; production callers pass `None`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(clippy::enum_variant_names)] // "after <step>" is the clearest naming
pub(crate) enum CrashPoint {
    /// After the journal slot is persisted, before any byte is copied.
    AfterJournal,
    /// After the target copy is complete and fsynced, before the stamp.
    AfterCopy,
    /// After the backend word flipped to the target tier.
    AfterStamp,
    /// After the source copy is unlinked, before the journal clears.
    AfterUnlink,
}

/// Serializes migrations against path operations: `open`, `unlink` and
/// `rename` take a *lease* on their (normalized) path, and a migration
/// *claim* on a path excludes — and is excluded by — both leases and other
/// claims. Leases block while the path is claimed (a path op never observes
/// a half-copied file); claims fail fast (`try_claim`) so sweeps skip
/// contended files instead of stalling the application.
#[derive(Default)]
pub(crate) struct MigrationGate {
    state: Mutex<GateState>,
    released: Condvar,
}

#[derive(Default)]
struct GateState {
    /// Paths with a migration claim (at most one claimant each).
    migrating: HashSet<String>,
    /// Path-operation leases currently held, with hold counts (two
    /// concurrent opens of one path are legal).
    leases: HashMap<String, u32>,
}

impl MigrationGate {
    /// Takes a path-operation lease, blocking while `path` is claimed by a
    /// migration.
    pub fn enter_op(&self, path: &str) {
        let mut g = self.state.lock();
        // Every claim release changes `migrating` under the mutex before it
        // notifies, so no wakeup is lost between the check and the wait.
        while g.migrating.contains(path) {
            self.released.wait(&mut g);
        }
        *g.leases.entry(path.to_string()).or_insert(0) += 1;
    }

    /// Releases a path-operation lease.
    pub fn exit_op(&self, path: &str) {
        let mut g = self.state.lock();
        if let Some(n) = g.leases.get_mut(path) {
            *n -= 1;
            if *n == 0 {
                g.leases.remove(path);
            }
        }
        drop(g);
        self.released.notify_all();
    }

    /// Claims `path` for a migration. Fails (without blocking) if any path
    /// operation holds a lease on it or another migration already claimed
    /// it.
    pub fn try_claim<'a>(&'a self, path: &'a str) -> Option<Claim<'a>> {
        let mut g = self.state.lock();
        if g.leases.contains_key(path) || g.migrating.contains(path) {
            return None;
        }
        g.migrating.insert(path.to_string());
        Some(Claim { gate: self, path })
    }
}

/// A migration claim on one path; dropping it releases the claim and wakes
/// the path operations blocked on it.
pub(crate) struct Claim<'a> {
    gate: &'a MigrationGate,
    path: &'a str,
}

impl Drop for Claim<'_> {
    fn drop(&mut self) {
        self.gate.state.lock().migrating.remove(self.path);
        self.gate.released.notify_all();
    }
}

/// Placement and heat of a catalogued (closed) file, folded in from the
/// volatile [`FileState`](crate::files) at last close.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct FileHeat {
    /// Backend currently holding the file.
    pub backend: u32,
    /// Payload bytes at last close (`0` for recovery-seeded entries whose
    /// size is unknown until reopen or migration).
    pub bytes: u64,
    /// Decaying temperature snapshot at last close; seeds the fresh
    /// [`FileState`](crate::files) on reopen so heat survives
    /// close → reopen cycles.
    pub temp: Temperature,
}

/// The migrator's shared state: the catalog of migratable (closed) files
/// and the [`MigrationGate`].
pub(crate) struct Migrator {
    pub gate: MigrationGate,
    /// path → placement + heat for files the mount has seen close (or
    /// recovery reported misplaced). Volatile by design: after a remount
    /// the catalog refills from recovery's misplaced list and new closes.
    /// Unbounded: one entry per distinct closed path, until the path is
    /// reopened, unlinked or found stale by a sweep.
    catalog: Mutex<HashMap<String, FileHeat>>,
    /// High-water mark (nanoseconds) of the virtual time observed on any
    /// heat touch. Per-actor clocks advance independently, and `rebalance`
    /// accepts any caller's clock — one that lags the actors that heated
    /// the files included — so temperature decay is always measured
    /// against `max(caller clock, this mark)`: without it a sweep on a
    /// lagging clock would compute `Δt = 0` against every app-side stamp
    /// and [`HeatPolicy`](crate::HeatPolicy) cooling would never demote.
    time_high_water: std::sync::atomic::AtomicU64,
    /// The mount's shared lock-order recorder (inert unless `pmcheck`).
    pub lockcheck: Recorder,
}

impl Migrator {
    pub fn new(lockcheck: Recorder) -> Migrator {
        Migrator {
            gate: MigrationGate::default(),
            catalog: Mutex::new(HashMap::new()),
            time_high_water: std::sync::atomic::AtomicU64::new(0),
            lockcheck,
        }
    }

    /// Claims `path` for a migration ([`MigrationGate::try_claim`]), with
    /// the lock-order record of the claim.
    pub fn claim<'a>(&'a self, path: &'a str) -> Option<(Claim<'a>, Held)> {
        let claim = self.gate.try_claim(path)?;
        Some((claim, self.lockcheck.acquire_try(Class::MigrationGate, 0)))
    }

    /// Folds an observed virtual instant into the decay high-water mark.
    pub fn observe_time(&self, now: simclock::SimTime) {
        self.time_high_water.fetch_max(now.as_nanos(), Ordering::Relaxed);
    }

    /// The latest virtual instant any actor reported — the earliest "now"
    /// a sweep may decay against.
    pub fn observed_time(&self) -> simclock::SimTime {
        simclock::SimTime::from_nanos(self.time_high_water.load(Ordering::Relaxed))
    }

    /// Records a file that just fully closed (it is now migratable) with
    /// the `heat` of this open generation: the backend, size and
    /// temperature of the latest close win (the [`FileState`](crate::files)
    /// temperature already folded the catalogued heat back in at open).
    pub fn record_closed(&self, path: &str, heat: FileHeat) {
        let _lk = self.lockcheck.acquire(Class::MigratorCatalog, 0);
        self.catalog.lock().insert(path.to_string(), heat);
    }

    /// Removes and returns the catalog entry for a path being reopened (its
    /// temperature seeds the fresh [`FileState`](crate::files)) — but
    /// only when the catalog agrees the file lives on `backend`. An entry
    /// pointing elsewhere tracks a misplaced copy the reopen did not touch
    /// and must survive for later sweeps.
    pub fn take_if_on(&self, path: &str, backend: u32) -> Option<FileHeat> {
        let _lk = self.lockcheck.acquire(Class::MigratorCatalog, 0);
        let mut catalog = self.catalog.lock();
        match catalog.get(path) {
            Some(h) if h.backend == backend => catalog.remove(path),
            _ => None,
        }
    }

    /// Drops a path from the catalog (unlinked, or found stale).
    pub fn forget(&self, path: &str) {
        let _lk = self.lockcheck.acquire(Class::MigratorCatalog, 0);
        self.catalog.lock().remove(path);
    }

    /// Renames a catalog entry, stamping the backend the file now lives
    /// on. The source's heat travels with it (an uncatalogued source
    /// arrives cold), and a catalogued destination is replaced: its old
    /// file is gone.
    pub fn rename_entry(&self, from: &str, to: &str, backend: u32) {
        let _lk = self.lockcheck.acquire(Class::MigratorCatalog, 0);
        let mut catalog = self.catalog.lock();
        let heat = catalog.remove(from).unwrap_or_default();
        catalog.insert(to.to_string(), FileHeat { backend, ..heat });
    }

    /// The catalogued backend of a closed file, if known.
    pub fn backend_of(&self, path: &str) -> Option<u32> {
        let _lk = self.lockcheck.acquire(Class::MigratorCatalog, 0);
        self.catalog.lock().get(path).map(|h| h.backend)
    }

    /// Stamps the backend — and the temperature, when one is known — of
    /// each `(path, backend, temperature)` on its catalog entry, adding the
    /// entry when the catalog lacks it. Three callers: a finished migration
    /// publishing where the file now lives (dropping that stamp would
    /// strand a file just moved *off* its routed tier with no record of the
    /// misplacement), recovery's misplaced-file list, and the temperatures
    /// recovered from the fd slots' heat words, so the first sweep judges
    /// each file exactly as hot as the crashed mount last persisted it.
    pub fn seed(&self, entries: impl IntoIterator<Item = (String, u32, Option<Temperature>)>) {
        let _lk = self.lockcheck.acquire(Class::MigratorCatalog, 0);
        let mut catalog = self.catalog.lock();
        for (path, backend, temp) in entries {
            let h = catalog.entry(path).or_default();
            h.backend = backend;
            h.temp = temp.unwrap_or(h.temp);
        }
    }

    /// Number of catalog entries — the population sweeps clone and sort.
    pub fn resident(&self) -> usize {
        let _lk = self.lockcheck.acquire(Class::MigratorCatalog, 0);
        self.catalog.lock().len()
    }

    /// Snapshot of the catalog (sweep input).
    fn entries(&self) -> Vec<(String, FileHeat)> {
        let _lk = self.lockcheck.acquire(Class::MigratorCatalog, 0);
        self.catalog.lock().iter().map(|(p, h)| (p.clone(), *h)).collect()
    }

    /// Catalogued payload bytes currently on backend `fast` — the
    /// occupancy behind the
    /// [`fast_tier_bytes`](crate::NvCacheStats::fast_tier_bytes) gauge.
    pub fn fast_tier_occupancy(&self, fast: u32) -> u64 {
        let _lk = self.lockcheck.acquire(Class::MigratorCatalog, 0);
        self.catalog
            .lock()
            .values()
            .filter(|h| h.backend == fast)
            .map(|h| h.bytes)
            .sum()
    }
}

/// Executes the journaled copy → stamp → unlink protocol, moving the file
/// at `from_path` on backend `from` to `to_path` on backend `to` (the two
/// paths differ only for cross-tier renames). Returns the bytes copied.
///
/// `journal_slot` must be a free fd slot; on return the journal is cleared
/// — and the slot reusable — **except** when the unlink of the source copy
/// failed after the stamp (the journal then survives for recovery repair;
/// callers read the slot back as a journal before recycling the
/// slot). `crash_after` cuts the protocol short after the given step,
/// simulating a power failure for the crash tests.
///
/// # Errors
///
/// Any inner-file-system error; `NotFound` if the source vanished. Errors
/// before the stamp roll the target copy back, so the source stays
/// authoritative.
#[allow(clippy::too_many_arguments)] // mirrors the journal slot contents
pub(crate) fn migrate_bytes(
    region: &NvRegion,
    layout: &Layout,
    backends: &[Arc<dyn FileSystem>],
    journal_slot: u32,
    from_path: &str,
    to_path: &str,
    from: usize,
    to: usize,
    clock: &ActorClock,
    crash_after: Option<CrashPoint>,
) -> IoResult<u64> {
    assert!(from != to, "migration endpoints must differ");
    assert!(from < backends.len() && to < backends.len(), "backend index out of range");
    // A rename target is caller input: one too long for the journal slot
    // is an error, not a panic in `PersistentFdTable::set`.
    crate::layout::check_path(to_path)?;
    // Open the source before anything else: a vanished source (a stale
    // catalog entry) must fail the migration
    // with NotFound *before* the journal is written or the target tier —
    // possibly holding the only good copy — is touched.
    let src = backends[from].open(from_path, OpenFlags::RDONLY, clock)?;

    // Step 1 — journal: the authoritative copy of `to_path` is on `from`
    // (for a plain migration `to_path == from_path`; for a cross-tier
    // rename this reads "nothing at the destination name is valid yet").
    PersistentFdTable::set(
        region,
        layout,
        journal_slot,
        FD_VALID_MIGRATION,
        to_path,
        from as u32,
        clock,
    );
    if crash_after == Some(CrashPoint::AfterJournal) {
        let _ = backends[from].close(src, clock);
        return Ok(0);
    }

    // Step 2 — copy the source content to the target tier and make it
    // durable there before anything commits.
    let copied = copy_from(backends, src, from, to_path, to, clock);
    let _ = backends[from].close(src, clock);
    let copied = match copied {
        Ok(n) => n,
        Err(e) => {
            // Roll back: delete the partial target copy, then clear the
            // journal. If even the unlink fails, the journal must survive
            // — it is the only record that the partial copy on the target
            // tier is garbage, and recovery repair will finish the job.
            // The source was never touched either way.
            match backends[to].unlink(to_path, clock) {
                Ok(()) | Err(IoError::NotFound(_)) => {
                    PersistentFdTable::clear(region, layout, journal_slot, clock);
                }
                Err(_) => {}
            }
            return Err(e);
        }
    };
    if crash_after == Some(CrashPoint::AfterCopy) {
        return Ok(copied);
    }

    // Step 3 — commit: one atomic 8-byte stamp flips the authoritative
    // copy to the target tier.
    PersistentFdTable::stamp_backend(region, layout, journal_slot, to as u32, clock);
    if crash_after == Some(CrashPoint::AfterStamp) {
        return Ok(copied);
    }

    // Step 4 — drop the stale source copy.
    match backends[from].unlink(from_path, clock) {
        Ok(()) | Err(IoError::NotFound(_)) => {}
        // The journal stays valid: recovery will finish the unlink. The
        // caller must not recycle the slot (it reads the journal back).
        Err(e) => return Err(e),
    }
    if crash_after == Some(CrashPoint::AfterUnlink) {
        return Ok(copied);
    }

    // Step 5 — done: retire the journal.
    PersistentFdTable::clear(region, layout, journal_slot, clock);
    Ok(copied)
}

/// Bytes moved per inner copy call.
const COPY_CHUNK: usize = 1 << 20;

/// Copies the already-open source descriptor to `to_path` on backend `to`
/// and fsyncs it there. The caller owns (and closes) `src`.
fn copy_from(
    backends: &[Arc<dyn FileSystem>],
    src: vfs::Fd,
    from: usize,
    to_path: &str,
    to: usize,
    clock: &ActorClock,
) -> IoResult<u64> {
    let size = backends[from].fstat(src, clock)?.size;
    let dst = backends[to].open(
        to_path,
        OpenFlags::RDWR | OpenFlags::CREATE | OpenFlags::TRUNC,
        clock,
    )?;
    let inner = (|| {
        let mut buf = vec![0u8; COPY_CHUNK.min(size.max(1) as usize)];
        let mut off = 0u64;
        while off < size {
            let n = backends[from].pread(src, &mut buf, off, clock)?;
            if n == 0 {
                break; // source shrank underneath us; copy what exists
            }
            backends[to].pwrite(dst, &buf[..n], off, clock)?;
            off += n as u64;
        }
        backends[to].fsync(dst, clock)?;
        Ok(off)
    })();
    let _ = backends[to].close(dst, clock);
    inner
}

/// Deletes every non-authoritative copy named by the leftover migration
/// journals in recovery's `table` snapshot and clears them — the recovery
/// half of the protocol. Returns the number of journals repaired. Only a
/// multi-backend mount writes journals, and
/// [`Header::check`](crate::layout::Header::check) refuses to recover any
/// image that could hold one over a single backend, so a single-backend
/// mount skips the scan.
///
/// # Errors
///
/// [`IoError::InvalidArgument`] if a journal names a backend the mount
/// lacks — unlinking "every copy but that one" would delete them all — or
/// any inner-file-system error from the unlinks.
pub(crate) fn repair_journals(
    region: &NvRegion,
    layout: &Layout,
    table: &FdTableSnapshot,
    tiers: &Tiers,
    clock: &ActorClock,
) -> IoResult<usize> {
    if tiers.backends.len() == 1 {
        return Ok(0);
    }
    let mut repaired = 0;
    for (slot, journal) in table.slots(FD_VALID_MIGRATION) {
        let keep = journal.backend as usize;
        if keep >= tiers.backends.len() {
            return Err(IoError::InvalidArgument(format!(
                "journal slot {slot} ({}) names backend {keep}, \
                 but recovery got only {} backends",
                journal.path,
                tiers.backends.len()
            )));
        }
        tiers.unlink_others(&journal.path, keep, clock)?;
        PersistentFdTable::clear(region, layout, slot, clock);
        repaired += 1;
    }
    Ok(repaired)
}

/// Migrates the closed file at `path` (normalized) to backend `to`,
/// coordinating with path operations and the cleanup workers. Returns the
/// `(direction, bytes moved)` pair of the move — the direction is judged
/// from the source resolved *under the claim*, not from any pre-claim
/// snapshot — or `None` when the file already lives on `to`
/// (a concurrent migration may have beaten this call, and callers must
/// not count such a no-op as a move). The `fast_tier_bytes` gauge is the
/// caller's to refresh ([`Tiers::refresh_gauge`]): a sweep does it once at
/// its end, not once per moved file.
///
/// # Errors
///
/// `Busy` (EBUSY) if the file is open, still draining (a zombie
/// descriptor owns pending log entries), or contended by another migration;
/// `NotFound` if no backend holds the file; `InvalidArgument` for an
/// out-of-range target; any inner-file-system error from the copy.
pub(crate) fn migrate_path(
    shared: &Shared,
    path: &str,
    to: usize,
    clock: &ActorClock,
) -> IoResult<Option<(Move, u64)>> {
    // A recovered file may still be named by the log and the fd table.
    shared.wait_for_recovery(clock);
    let tiers = &shared.tiers;
    if to >= tiers.backends.len() {
        return Err(IoError::InvalidArgument(format!(
            "migration target backend {to} out of range (mount has {})",
            tiers.backends.len()
        )));
    }
    let Some(_claim) = tiers.migrator.claim(path) else {
        return Err(IoError::Busy(format!("{path}: migration or path operation in flight")));
    };
    // Resolve the source *under the claim*: between a pre-claim read and
    // the claim, a concurrent migration could move the file, and journaling
    // the stale location would let the error rollback delete the real copy
    // on the target tier.
    let from = match tiers.migrator.backend_of(path) {
        Some(b) => b as usize,
        None => match tiers.locate(shared, path, clock)? {
            Some((b, _)) => b,
            None => return Err(IoError::NotFound(path.to_string())),
        },
    };
    if from == to {
        return Ok(None); // already in place — not a move
    }
    // Zombies whose entries already drained just haven't been reaped yet;
    // finish them so a freshly drained file is immediately migratable. A
    // worker may have unlisted one first (counted in `finishing` under the
    // zombies lock this drain took after it) and still be finishing it:
    // its entries drained too, so wait for it to leave the tables.
    shared.drain_zombies(clock);
    while shared.path_is_open_or_draining(path) && shared.finishing.load(Ordering::SeqCst) > 0 {
        std::thread::yield_now();
    }
    // Re-check under the claim: any open that raced us either finished
    // before the claim (visible in the opened/zombie tables) or is still
    // blocked on its gate lease.
    if shared.path_is_open_or_draining(path) {
        return Err(IoError::Busy(format!("{path}: open or draining descriptors exist")));
    }
    let bytes = journaled_move(shared, path, path, from, to, clock)?;
    // Publish the new placement *before* the claim is released: a
    // concurrent sweep reading a stale catalog backend would probe the old
    // tier, get NotFound and drop the entry entirely.
    tiers.migrator.seed([(path.to_string(), to as u32, None)]);
    Ok(Some((tiers.moved(&shared.stats, from, to, bytes), bytes)))
}

/// Allocates a journal slot, runs the copy → stamp → unlink protocol, and
/// recycles the slot — but only once the journal is actually clear: a
/// failed unlink (of the source after the stamp, or of a partial target
/// during rollback) leaves it valid for recovery repair, and handing the
/// slot to `open` would overwrite the journal. Shared by live migrations
/// and cross-tier renames.
pub(crate) fn journaled_move(
    shared: &Shared,
    from_path: &str,
    to_path: &str,
    from: usize,
    to: usize,
    clock: &ActorClock,
) -> IoResult<u64> {
    let slot = match shared.take_free_slot(clock) {
        Some(s) => s,
        None => {
            return Err(IoError::Busy(
                "no free fd slot for the migration journal (fd table full)".into(),
            ))
        }
    };
    let result = migrate_bytes(
        &shared.log.region,
        &shared.log.layout,
        &shared.tiers.backends,
        slot,
        from_path,
        to_path,
        from,
        to,
        clock,
        None,
    );
    let mut valid = [0u8; 8];
    shared.log.region.read(shared.log.layout.fd_slot(slot), &mut valid, clock);
    if u64::from_le_bytes(valid) != FD_VALID_MIGRATION {
        shared.fd_slots.release(slot);
    }
    result
}

/// One rebalancing sweep: judges every catalogued file's target backend —
/// where the router puts its path, or, on a mount with a heat policy, the
/// policy's judgement of its temperature decayed to the sweep instant — and
/// re-homes every file whose backend disagrees. Candidates drain the
/// backend with the highest propagated-entry load first
/// (`per_backend_propagated`), hottest (decayed) files first within a
/// backend, then by path. Busy files are skipped (and stay catalogued);
/// hard inner errors abort the sweep.
pub(crate) fn sweep(shared: &Shared, clock: &ActorClock) -> IoResult<RebalanceReport> {
    let mut report = RebalanceReport::default();
    let Tiers { backends, router, heat, migrator, .. } = &shared.tiers;
    // Decay against the most advanced virtual instant any actor reported:
    // a caller's clock that lags the actors who heated the files would
    // otherwise see Δt = 0 against every heat stamp (no cooling, ever).
    let now = clock.now().max(migrator.observed_time());
    let files = migrator.entries();
    let targets: Vec<usize> = match heat {
        Some(policy) => policy.assign(&files, now, router.as_ref(), backends.len()),
        None => files.iter().map(|(path, _)| router.route(path)).collect(),
    };
    // Without a policy no heat is ever touched: every file is at 0.
    let heats: Vec<f64> = files
        .iter()
        .map(|(_, h)| heat.as_ref().map_or(0.0, |p| h.temp.decayed(now, p.half_life)))
        .collect();
    let mut candidates: Vec<(usize, usize)> = Vec::new(); // (file index, target)
    for (i, (&target, (_, h))) in targets.iter().zip(&files).enumerate() {
        if target == h.backend as usize {
            report.files_in_place += 1;
        } else {
            candidates.push((i, target));
        }
    }
    // Snapshot the per-backend loads once: the comparator must not re-read
    // atomics the cleanup workers are bumping concurrently — values
    // changing mid-sort break the total-order contract and std's sort may
    // panic.
    let loads: Vec<u64> = shared
        .stats
        .per_backend_propagated
        .iter()
        .map(|c| c.load(Ordering::Relaxed))
        .collect();
    candidates.sort_by(|&(a, _), &(b, _)| {
        let ((pa, ha), (pb, hb)) = (&files[a], &files[b]);
        loads[hb.backend as usize]
            .cmp(&loads[ha.backend as usize])
            .then(heats[b].total_cmp(&heats[a]))
            .then(pa.cmp(pb))
    });
    for (i, target) in candidates {
        let path = &files[i].0;
        match migrate_path(shared, path, target, clock) {
            Ok(Some((direction, bytes))) => {
                report.files_migrated += 1;
                report.bytes_moved += bytes;
                match direction {
                    Move::Promotion => report.files_promoted += 1,
                    Move::Demotion => report.files_demoted += 1,
                    Move::Lateral => {}
                }
            }
            // A concurrent migration (manual move, another sweep) beat us
            // there: the candidate snapshot was stale, nothing moved now.
            Ok(None) => report.files_in_place += 1,
            Err(IoError::Busy(_)) => report.files_busy += 1,
            // The catalog entry went stale (unlinked below the mount, or a
            // concurrent op removed it): drop it rather than error every
            // sweep.
            Err(IoError::NotFound(_)) => migrator.forget(path),
            Err(e) => return Err(e),
        }
    }
    shared.tiers.refresh_gauge(&shared.stats);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use simclock::SimTime;

    use super::*;

    #[test]
    fn gate_leases_and_claims_exclude_each_other() {
        let gate = MigrationGate::default();
        gate.enter_op("/a");
        gate.enter_op("/a"); // concurrent ops on one path are legal
        assert!(gate.try_claim("/a").is_none(), "a leased path cannot be claimed");
        let b = gate.try_claim("/b");
        assert!(b.is_some());
        assert!(gate.try_claim("/b").is_none(), "double claim");
        gate.exit_op("/a");
        assert!(gate.try_claim("/a").is_none(), "still one lease left");
        gate.exit_op("/a");
        assert!(gate.try_claim("/a").is_some(), "free path claims fine; dropped at once");
        drop(b);
        assert!(gate.try_claim("/b").is_some(), "dropped claims free the path");
    }

    #[test]
    fn a_lease_blocked_by_a_claim_proceeds_once_the_claim_drops() {
        let gate = MigrationGate::default();
        let claim = gate.try_claim("/a").expect("free path");
        let (leased, on_lease) = std::sync::mpsc::channel();
        std::thread::scope(|s| {
            s.spawn(|| {
                gate.enter_op("/a");
                leased.send(()).expect("receiver alive");
                gate.exit_op("/a");
            });
            let blocked = on_lease.recv_timeout(Duration::from_millis(50));
            assert!(blocked.is_err(), "a claimed path must not be leased");
            drop(claim);
            on_lease
                .recv_timeout(Duration::from_secs(30))
                .expect("the drop wakes the lease");
        });
        assert!(gate.try_claim("/a").is_some(), "the lease was returned");
    }

    #[test]
    fn catalog_accumulates_heat_across_generations() {
        let m = Migrator::new(Recorder::default());
        let mut temp = Temperature::default();
        temp.touch(SimTime::from_secs(1), SimTime::from_secs(60));
        m.record_closed("/f", FileHeat { backend: 1, bytes: 100, temp });
        temp.touch(SimTime::from_secs(2), SimTime::from_secs(60));
        m.record_closed("/f", FileHeat { backend: 0, bytes: 300, temp });
        assert!(m.take_if_on("/f", 1).is_none(), "a mismatched tier must not steal the entry");
        let heat = m.take_if_on("/f", 0).expect("catalogued");
        assert_eq!(heat.backend, 0, "latest close wins the placement");
        assert_eq!(heat.bytes, 300, "latest close wins the size");
        assert_eq!(heat.temp, temp, "latest close wins the temperature snapshot");
        assert!(m.take_if_on("/f", 0).is_none(), "take removes the entry");
        m.seed([("/g".to_string(), 2u32, None)]);
        assert_eq!(m.backend_of("/g"), Some(2));
        m.rename_entry("/g", "/h", 1);
        assert_eq!(m.backend_of("/g"), None);
        assert_eq!(m.backend_of("/h"), Some(1));
        m.forget("/h");
        assert_eq!(m.backend_of("/h"), None);
        // A rename of an uncatalogued source stamps the destination's
        // backend on a cold entry.
        m.rename_entry("/unknown", "/u", 1);
        assert_eq!(m.resident(), 1);
        let u = m.take_if_on("/u", 1).expect("the destination is catalogued");
        assert_eq!((u.bytes, u.temp), (0, Temperature::default()), "it arrives cold");
        // A rename onto a catalogued destination replaces it.
        m.record_closed("/src", FileHeat { backend: 0, bytes: 7, temp });
        m.record_closed("/dst", FileHeat { backend: 0, bytes: 999, ..FileHeat::default() });
        m.rename_entry("/src", "/dst", 1);
        assert_eq!(m.resident(), 1, "one file under one name");
        let dst = m.take_if_on("/dst", 1).expect("the destination is catalogued");
        assert_eq!((dst.bytes, dst.temp), (7, temp), "the source's heat replaced the old file's");
    }

    #[test]
    fn fast_tier_occupancy_sums_catalogued_bytes() {
        let m = Migrator::new(Recorder::default());
        for (path, backend, bytes) in [("/a", 1, 100), ("/b", 1, 50), ("/c", 0, 999)] {
            m.record_closed(path, FileHeat { backend, bytes, ..FileHeat::default() });
        }
        assert_eq!(m.fast_tier_occupancy(1), 150);
        assert_eq!(m.fast_tier_occupancy(0), 999);
        assert_eq!(m.fast_tier_occupancy(7), 0);
    }
}
