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
//! current backend, size, and per-file access heat (raw counters plus the
//! decaying [`Temperature`]) folded in from the
//! [`FileState`](crate::files) at last close; recovery seeds it with the
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
//! itself.

use std::collections::{HashMap, HashSet, VecDeque};
use std::hash::{DefaultHasher, Hash, Hasher};
use std::sync::atomic::Ordering;
use std::sync::Arc;

use nvmm::NvRegion;
use parking_lot::{Condvar, Mutex};
use simclock::ActorClock;
use vfs::{FileSystem, IoError, IoResult, OpenFlags};

use crate::cache::Shared;
use crate::files::PersistentFdTable;
use crate::layout::{Layout, FD_VALID_MIGRATION};
use crate::lockcheck::{Class, Held, Recorder};
use crate::placement::{HeatPolicy, Temperature};
use crate::router::Router;
use crate::stats::NvCacheStats;
use crate::tiers::Tiers;

/// How (and whether) the tier migrator may move files between backends.
///
/// Set with [`Tiering::migration`](crate::Tiering::migration). It also
/// decides what a `rename` across tiers does: `EXDEV` under `Disabled` —
/// the mount may never move a file — and a journaled migrate-then-rename
/// (`mv` semantics, not `rename(2)` atomicity) under `OnDemand`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MigrationPolicy {
    /// No migration, ever — the PR-3 behavior. `rebalance`/`migrate` fail
    /// with `EINVAL`. The default.
    #[default]
    Disabled,
    /// Migration happens only when explicitly requested:
    /// [`NvCache::rebalance`](crate::NvCache::rebalance) sweeps and
    /// [`NvCache::migrate`](crate::NvCache::migrate) single-file moves run
    /// inline on the caller's clock.
    OnDemand,
}

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

/// Access heat of a catalogued (closed) file, folded in from the volatile
/// [`FileState`](crate::files) counters at last close.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct FileHeat {
    /// Backend currently holding the file.
    pub backend: u32,
    /// Accumulated intercepted reads across this mount's open generations.
    pub reads: u64,
    /// Accumulated intercepted writes, likewise.
    pub writes: u64,
    /// Payload bytes at last close (`0` for recovery-seeded entries whose
    /// size is unknown until reopen or migration).
    pub bytes: u64,
    /// Decaying temperature snapshot at last close; seeds the fresh
    /// [`FileState`](crate::files) on reopen so heat survives
    /// close → reopen cycles.
    pub temp: Temperature,
}

/// One resident catalog entry: the heat record plus the clock-eviction
/// bookkeeping of a capacity-bounded catalog (see [`Catalog`]).
#[derive(Debug, Clone)]
struct CatalogEntry {
    heat: FileHeat,
    /// Second-chance bit: set on every touch (close, rename, seed), cleared
    /// by one pass of the eviction hand. An entry is only evicted after a
    /// full hand revolution without a touch.
    referenced: bool,
    /// Admission sequence number; a ring occurrence is live only while its
    /// recorded sequence matches (removal + readmission makes the old ring
    /// occurrence a tombstone instead of a duplicate).
    seq: u64,
}

/// The closed-file catalog: `path → CatalogEntry`, plus the clock-eviction
/// ring and the recently-evicted filter behind the readmission counter. An
/// unbounded catalog (the default) keeps the ring and never evicts.
#[derive(Default)]
struct Catalog {
    map: HashMap<String, CatalogEntry>,
    /// Clock ring in admission order: `(seq, path)`. Occurrences whose
    /// `seq` no longer matches the map entry are tombstones, dropped when
    /// the hand reaches them (or by [`Catalog::maybe_compact`]).
    ring: VecDeque<(u64, String)>,
    next_seq: u64,
    /// Hashes of recently evicted paths (bounded; cleared wholesale when
    /// it outgrows its budget). A newly admitted path found here counts a
    /// readmission — the thrash signal behind `catalog_readmissions`.
    evicted: HashSet<u64>,
}

impl Catalog {
    fn path_hash(path: &str) -> u64 {
        // DefaultHasher::new() uses fixed keys: deterministic per run.
        let mut h = DefaultHasher::new();
        path.hash(&mut h);
        h.finish()
    }

    /// Remembers an evicted path for readmission detection, keeping the
    /// filter's memory bounded by the catalog capacity.
    fn note_evicted(&mut self, path: &str, capacity: usize) {
        if self.evicted.len() >= capacity.saturating_mul(8).max(1024) {
            // The filter is allowed to forget (a missed readmission only
            // under-counts a diagnostic); unbounded growth is not.
            self.evicted.clear();
        }
        self.evicted.insert(Self::path_hash(path));
    }

    /// Drops tombstoned ring occurrences once they dominate the ring, so
    /// under-capacity churn (open/close of one path leaves a tombstone per
    /// cycle) cannot grow the ring without bound.
    fn maybe_compact(&mut self) {
        if self.ring.len() > 2 * self.map.len() + 64 {
            let map = &self.map;
            self.ring.retain(|(seq, path)| map.get(path).is_some_and(|e| e.seq == *seq));
        }
    }
}

/// The migrator's shared state: the catalog of migratable (closed) files
/// and the [`MigrationGate`].
pub(crate) struct Migrator {
    pub gate: MigrationGate,
    /// path → placement + heat for files the mount has seen close (or
    /// recovery reported misplaced). Volatile by design: after a remount
    /// the catalog refills from recovery's misplaced list and new closes.
    catalog: Mutex<Catalog>,
    /// Resident-set bound ([`catalog_capacity`]); `usize::MAX` when
    /// unbounded.
    ///
    /// [`catalog_capacity`]: crate::Tiering::catalog_capacity
    capacity: usize,
    /// The mount's heat policy, if it tracks heat — the eviction pin
    /// judgement (misplaced? promote-worthy?) must agree with the sweeps it
    /// guards.
    heat: Option<HeatPolicy>,
    /// The mount's router: where a file belongs when heat does not say.
    router: Arc<dyn Router>,
    /// High-water mark (nanoseconds) of the virtual time observed on any
    /// heat touch. Per-actor clocks advance independently, and `rebalance`
    /// accepts any caller's clock — one that lags the actors that heated
    /// the files included — so temperature decay is always measured
    /// against `max(caller clock, this mark)`: without it a sweep on a
    /// lagging clock would compute `Δt = 0` against every app-side stamp
    /// and [`HeatPolicy`] cooling would never demote.
    time_high_water: std::sync::atomic::AtomicU64,
    /// The mount's shared lock-order recorder (inert unless `pmcheck`).
    pub lockcheck: Recorder,
}

impl Migrator {
    pub fn new(
        lockcheck: Recorder,
        capacity: Option<usize>,
        heat: Option<HeatPolicy>,
        router: Arc<dyn Router>,
    ) -> Migrator {
        Migrator {
            gate: MigrationGate::default(),
            catalog: Mutex::new(Catalog::default()),
            capacity: capacity.unwrap_or(usize::MAX),
            heat,
            router,
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

    /// Whether a catalogued entry is **pinned** — never evictable from a
    /// bounded catalog. Pinned means the migrator still owes work on it:
    /// the file is misplaced (its recorded tier is not where the router
    /// puts its path), or its decayed heat sits at or above the heat
    /// policy's promote threshold (a promotion the next sweep will
    /// execute).
    fn pinned(&self, path: &str, heat: &FileHeat) -> bool {
        self.router.route(path) != heat.backend as usize
            || self.heat.as_ref().is_some_and(|p| {
                heat.temp.decayed(self.observed_time(), p.half_life) >= p.promote_threshold
            })
    }

    /// Advances the clock hand until one unpinned, unreferenced resident is
    /// evicted. Returns `false` when a bounded number of steps found no
    /// victim (every resident pinned or just touched — the catalog may
    /// then exceed its capacity rather than drop owed work). Each step
    /// either retires a tombstone (paid for by the removal that left it),
    /// spends a second-chance bit (paid for by the touch that set it), or
    /// skips a pinned entry, so the amortized cost per admission is O(1)
    /// plus the pinned population.
    fn make_room(&self, catalog: &mut Catalog, stats: &NvCacheStats) -> bool {
        let mut steps = 2 * catalog.ring.len();
        while steps > 0 {
            steps -= 1;
            let Some((seq, path)) = catalog.ring.pop_front() else {
                return false;
            };
            match catalog.map.get_mut(&path) {
                Some(e) if e.seq == seq => {
                    if e.referenced {
                        e.referenced = false;
                        catalog.ring.push_back((seq, path));
                    } else if self.pinned(&path, &e.heat) {
                        catalog.ring.push_back((seq, path));
                    } else {
                        catalog.map.remove(&path);
                        catalog.note_evicted(&path, self.capacity);
                        stats.catalog_evictions.fetch_add(1, Ordering::Relaxed);
                        return true;
                    }
                }
                _ => {} // tombstone: the live occurrence is elsewhere
            }
        }
        false
    }

    /// Admits a path the catalog does not currently hold, enforcing the
    /// capacity bound: at capacity a correctly-placed cold resident is
    /// evicted first; when every resident is pinned, a pinned newcomer is
    /// admitted past the bound (owed work is never dropped) while a cold
    /// newcomer is rejected — which counts as an eviction of itself.
    fn admit_new(&self, catalog: &mut Catalog, path: String, heat: FileHeat, stats: &NvCacheStats) {
        // Evict until back under the bound — more than once when pinned
        // overflow from earlier admissions has since cooled below the
        // retain threshold and become evictable again.
        while catalog.map.len() >= self.capacity && self.make_room(catalog, stats) {}
        if catalog.map.len() >= self.capacity && !self.pinned(&path, &heat) {
            stats.catalog_evictions.fetch_add(1, Ordering::Relaxed);
            catalog.note_evicted(&path, self.capacity);
            return;
        }
        if catalog.evicted.remove(&Catalog::path_hash(&path)) {
            stats.catalog_readmissions.fetch_add(1, Ordering::Relaxed);
        }
        let seq = catalog.next_seq;
        catalog.next_seq += 1;
        catalog.ring.push_back((seq, path.clone()));
        catalog.map.insert(path, CatalogEntry { heat, referenced: false, seq });
        catalog.maybe_compact();
    }

    /// Records a file that just fully closed (it is now migratable) with
    /// the `heat` of this open generation: the raw counters accumulate
    /// across generations; the backend, size and temperature of the latest
    /// close win (the [`FileState`](crate::files) temperature already
    /// folded the catalogued heat back in at open). New paths go through
    /// the capacity-bounded admission path.
    pub fn record_closed(&self, path: &str, heat: FileHeat, stats: &NvCacheStats) {
        let _lk = self.lockcheck.acquire(Class::MigratorCatalog, 0);
        let mut catalog = self.catalog.lock();
        if let Some(e) = catalog.map.get_mut(path) {
            let (reads, writes) = (e.heat.reads + heat.reads, e.heat.writes + heat.writes);
            e.heat = FileHeat { reads, writes, ..heat };
            e.referenced = true;
        } else {
            self.admit_new(&mut catalog, path.to_string(), heat, stats);
        }
    }

    /// Removes and returns the catalog entry for a path being reopened (its
    /// heat seeds the fresh [`FileState`](crate::files) counters) — but
    /// only when the catalog agrees the file lives on `backend`. An entry
    /// pointing elsewhere tracks a misplaced copy the reopen did not touch
    /// and must survive for later sweeps.
    pub fn take_if_on(&self, path: &str, backend: u32) -> Option<FileHeat> {
        let _lk = self.lockcheck.acquire(Class::MigratorCatalog, 0);
        let mut catalog = self.catalog.lock();
        match catalog.map.get(path) {
            Some(e) if e.heat.backend == backend => catalog.map.remove(path).map(|e| e.heat),
            _ => None,
        }
    }

    /// Drops a path from the catalog (unlinked, or found stale).
    pub fn forget(&self, path: &str) {
        let _lk = self.lockcheck.acquire(Class::MigratorCatalog, 0);
        self.catalog.lock().map.remove(path);
    }

    /// Renames a catalog entry, stamping the backend the file now lives
    /// on. The destination goes through the same admission path as a
    /// close: a resident source just changes key (a rename never grows
    /// the catalog), but stamping a brand-new destination at capacity
    /// must evict or be rejected like any other admission — the
    /// unconditional insert this used to do could grow the catalog past
    /// its bound one rename at a time.
    pub fn rename_entry(&self, from: &str, to: &str, backend: u32, stats: &NvCacheStats) {
        let _lk = self.lockcheck.acquire(Class::MigratorCatalog, 0);
        let mut catalog = self.catalog.lock();
        let moved = catalog.map.remove(from);
        let resident_source = moved.is_some();
        let heat = FileHeat { backend, ..moved.map(|e| e.heat).unwrap_or_default() };
        if let Some(e) = catalog.map.get_mut(to) {
            // The destination name was already catalogued: rename replaces
            // it (the old destination file is gone), keeping its ring seat.
            e.heat = heat;
            e.referenced = true;
        } else if resident_source {
            // Net resident count is unchanged (one key out, one key in):
            // no eviction needed, just a fresh ring seat for the new key.
            let seq = catalog.next_seq;
            catalog.next_seq += 1;
            catalog.ring.push_back((seq, to.to_string()));
            catalog
                .map
                .insert(to.to_string(), CatalogEntry { heat, referenced: false, seq });
            catalog.maybe_compact();
        } else {
            self.admit_new(&mut catalog, to.to_string(), heat, stats);
        }
    }

    /// The catalogued backend of a closed file, if known.
    pub fn backend_of(&self, path: &str) -> Option<u32> {
        let _lk = self.lockcheck.acquire(Class::MigratorCatalog, 0);
        self.catalog.lock().map.get(path).map(|e| e.heat.backend)
    }

    /// Stamps the backend — and the temperature, when one is known — of
    /// each `(path, backend, temperature)` on its catalog entry. Three
    /// callers: a finished migration publishing where the file now lives,
    /// recovery's misplaced-file list (pinned, so even a bounded catalog
    /// admits every one), and the temperatures recovered from the fd slots'
    /// heat words, so the first sweep judges each file exactly as hot as the
    /// crashed mount last persisted it.
    ///
    /// A path the catalog does not hold — never closed on this mount, or
    /// already evicted as correctly placed and cold — enters through the
    /// admission path: dropping the stamp instead would strand a file just
    /// moved *off* its routed tier with no record of the misplacement, and
    /// no sweep would ever bring it home.
    pub fn seed(
        &self,
        entries: impl IntoIterator<Item = (String, u32, Option<Temperature>)>,
        stats: &NvCacheStats,
    ) {
        let _lk = self.lockcheck.acquire(Class::MigratorCatalog, 0);
        let mut catalog = self.catalog.lock();
        for (path, backend, temp) in entries {
            if let Some(e) = catalog.map.get_mut(&path) {
                e.heat.backend = backend;
                e.heat.temp = temp.unwrap_or(e.heat.temp);
            } else {
                let heat =
                    FileHeat { backend, temp: temp.unwrap_or_default(), ..FileHeat::default() };
                self.admit_new(&mut catalog, path, heat, stats);
            }
        }
    }

    /// Number of resident catalog entries — the population sweeps clone
    /// and sort, the quantity [`catalog_capacity`] bounds.
    ///
    /// [`catalog_capacity`]: crate::Tiering::catalog_capacity
    pub fn resident(&self) -> usize {
        let _lk = self.lockcheck.acquire(Class::MigratorCatalog, 0);
        self.catalog.lock().map.len()
    }

    /// Snapshot of the catalog (sweep input).
    fn entries(&self) -> Vec<(String, FileHeat)> {
        let _lk = self.lockcheck.acquire(Class::MigratorCatalog, 0);
        self.catalog.lock().map.iter().map(|(p, e)| (p.clone(), e.heat)).collect()
    }

    /// Catalogued payload bytes currently on backend `fast` — the
    /// occupancy behind the
    /// [`fast_tier_bytes`](crate::NvCacheStats::fast_tier_bytes) gauge.
    pub fn fast_tier_occupancy(&self, fast: u32) -> u64 {
        let _lk = self.lockcheck.acquire(Class::MigratorCatalog, 0);
        self.catalog
            .lock()
            .map
            .values()
            .filter(|e| e.heat.backend == fast)
            .map(|e| e.heat.bytes)
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

/// Deletes every non-authoritative copy named by leftover migration
/// journals and clears them — the recovery half of the protocol. Returns
/// the number of journals repaired. Only a multi-backend mount writes
/// journals, and [`Header::check`](crate::layout::Header::check) refuses to
/// recover any image that could hold one over a single backend, so a
/// single-backend mount skips the scan.
///
/// # Errors
///
/// [`IoError::InvalidArgument`] if a journal names a backend the mount
/// lacks — unlinking "every copy but that one" would delete them all — or
/// any inner-file-system error from the unlinks.
pub(crate) fn repair_journals(
    region: &NvRegion,
    layout: &Layout,
    tiers: &Tiers,
    clock: &ActorClock,
) -> IoResult<usize> {
    if tiers.backends.len() == 1 {
        return Ok(0);
    }
    let mut repaired = 0;
    for slot in 0..layout.fd_slots as u32 {
        let Some(journal) = PersistentFdTable::get(region, layout, slot, FD_VALID_MIGRATION, clock)
        else {
            continue;
        };
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
    // finish them so a freshly drained file is immediately migratable.
    shared.drain_zombies(clock);
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
    tiers.migrator.seed([(path.to_string(), to as u32, None)], &shared.stats);
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
    let (region, layout) = (&shared.log.region, &shared.log.layout);
    if PersistentFdTable::get(region, layout, slot, FD_VALID_MIGRATION, clock).is_none() {
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
/// backend. Busy files are skipped (and stay catalogued); hard inner errors
/// abort the sweep.
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
            .then((hb.reads + hb.writes).cmp(&(ha.reads + ha.writes)))
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

    use proptest::prelude::*;
    use simclock::SimTime;

    use super::*;
    use crate::router::{PathPrefixRouter, SingleBackend};

    /// An unbounded migrator over a single-backend router (every entry
    /// correctly placed, nothing pinned) — the seed-faithful default.
    fn unbounded() -> (Migrator, NvCacheStats) {
        let m = Migrator::new(Recorder::default(), None, None, Arc::new(SingleBackend));
        (m, NvCacheStats::default())
    }

    /// A capacity-bounded migrator on a two-tier mount: `/hot/**` routes
    /// to tier 1, everything else to tier 0, promote-threshold 4 heat.
    fn bounded(capacity: usize) -> (Migrator, NvCacheStats) {
        let m = Migrator::new(
            Recorder::default(),
            Some(capacity),
            Some(HeatPolicy::new(1, 4.0, 1.0, SimTime::from_secs(60))),
            Arc::new(PathPrefixRouter::new(vec![("/hot".into(), 1)], 0)),
        );
        (m, NvCacheStats::default())
    }

    fn close_cold(m: &Migrator, stats: &NvCacheStats, path: &str, backend: u32) {
        m.record_closed(path, FileHeat { backend, bytes: 10, ..FileHeat::default() }, stats);
    }

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
        let (m, stats) = unbounded();
        let mut temp = Temperature::default();
        temp.touch(SimTime::from_secs(1), SimTime::from_secs(60));
        let closed =
            |backend, reads, writes, bytes, temp| FileHeat { backend, reads, writes, bytes, temp };
        m.record_closed("/f", closed(1, 10, 4, 100, temp), &stats);
        temp.touch(SimTime::from_secs(2), SimTime::from_secs(60));
        m.record_closed("/f", closed(0, 5, 1, 300, temp), &stats);
        assert!(m.take_if_on("/f", 1).is_none(), "a mismatched tier must not steal the entry");
        let heat = m.take_if_on("/f", 0).expect("catalogued");
        assert_eq!(heat.backend, 0, "latest close wins the placement");
        assert_eq!((heat.reads, heat.writes), (15, 5), "heat accumulates");
        assert_eq!(heat.bytes, 300, "latest close wins the size");
        assert_eq!(heat.temp, temp, "latest close wins the temperature snapshot");
        assert!(m.take_if_on("/f", 0).is_none(), "take removes the entry");
        m.seed([("/g".to_string(), 2u32, None)], &stats);
        assert_eq!(m.backend_of("/g"), Some(2));
        m.rename_entry("/g", "/h", 1, &stats);
        assert_eq!(m.backend_of("/g"), None);
        assert_eq!(m.backend_of("/h"), Some(1));
        m.forget("/h");
        assert_eq!(m.backend_of("/h"), None);
        assert_eq!(stats.catalog_evictions.load(Ordering::Relaxed), 0);
        assert_eq!(stats.catalog_readmissions.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn fast_tier_occupancy_sums_catalogued_bytes() {
        let (m, stats) = unbounded();
        for (path, backend, bytes) in [("/a", 1, 100), ("/b", 1, 50), ("/c", 0, 999)] {
            m.record_closed(path, FileHeat { backend, bytes, ..FileHeat::default() }, &stats);
        }
        assert_eq!(m.fast_tier_occupancy(1), 150);
        assert_eq!(m.fast_tier_occupancy(0), 999);
        assert_eq!(m.fast_tier_occupancy(7), 0);
    }

    #[test]
    fn bounded_catalog_evicts_only_correctly_placed_cold_entries() {
        let (m, stats) = bounded(3);
        // A misplaced file (routes to /hot yet sits on tier 0) and a hot
        // file (heat 8 ≥ promote threshold 4) are pinned; two cold,
        // correctly-placed files fill the rest.
        close_cold(&m, &stats, "/hot/misplaced", 0);
        let mut hot = Temperature::default();
        for _ in 0..8 {
            hot.touch(SimTime::from_secs(1), SimTime::from_secs(60));
        }
        let heat = FileHeat { backend: 0, reads: 8, writes: 0, bytes: 10, temp: hot };
        m.record_closed("/bulk/hot", heat, &stats);
        close_cold(&m, &stats, "/bulk/cold-a", 0);
        assert_eq!(m.resident(), 3);
        // Admitting a fourth entry must evict one of the colds — never the
        // misplaced or the hot entry.
        close_cold(&m, &stats, "/bulk/cold-b", 0);
        assert_eq!(m.resident(), 3, "capacity holds");
        assert_eq!(stats.catalog_evictions.load(Ordering::Relaxed), 1);
        assert_eq!(m.backend_of("/hot/misplaced"), Some(0), "misplaced entry pinned");
        assert_eq!(m.backend_of("/bulk/hot"), Some(0), "hot entry pinned");
        // Re-closing the evicted cold file counts a readmission (it may in
        // turn evict the other cold — the clock hand decides).
        close_cold(&m, &stats, "/bulk/cold-a", 0);
        close_cold(&m, &stats, "/bulk/cold-b", 0);
        assert!(stats.catalog_readmissions.load(Ordering::Relaxed) >= 1);
        assert!(m.resident() <= 3);
    }

    #[test]
    fn pinned_overflow_grows_past_capacity_rather_than_dropping_work() {
        let (m, stats) = bounded(2);
        // Three misplaced files: all pinned, capacity 2.
        close_cold(&m, &stats, "/hot/a", 0);
        close_cold(&m, &stats, "/hot/b", 0);
        close_cold(&m, &stats, "/hot/c", 0);
        assert_eq!(m.resident(), 3, "pinned entries are never dropped");
        assert_eq!(stats.catalog_evictions.load(Ordering::Relaxed), 0);
        // A cold newcomer is rejected while the pinned population holds
        // every seat (its rejection counts as an eviction of itself)...
        close_cold(&m, &stats, "/bulk/cold", 0);
        assert_eq!(m.backend_of("/bulk/cold"), None);
        assert_eq!(stats.catalog_evictions.load(Ordering::Relaxed), 1);
        // ...and once the pinned files are re-homed (set_backend after a
        // migration), they become evictable colds again.
        m.seed(["/hot/a", "/hot/b", "/hot/c"].map(|p| (p.to_string(), 1, None)), &stats);
        close_cold(&m, &stats, "/bulk/cold", 0);
        assert_eq!(m.backend_of("/bulk/cold"), Some(0));
        assert!(m.resident() <= 3);
        assert_eq!(stats.catalog_readmissions.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn rename_at_capacity_goes_through_admission() {
        let (m, stats) = bounded(2);
        close_cold(&m, &stats, "/hot/a", 0); // pinned (misplaced)
        close_cold(&m, &stats, "/hot/b", 0); // pinned (misplaced)
        assert_eq!(m.resident(), 2);
        // Stamping a brand-new cold destination at capacity must not grow
        // the catalog (the pre-fix code inserted unconditionally).
        m.rename_entry("/bulk/unknown", "/bulk/fresh", 0, &stats);
        assert_eq!(m.resident(), 2, "rename must not grow a full catalog");
        assert_eq!(m.backend_of("/bulk/fresh"), None);
        // A resident source just changes key — never blocked, never grows.
        m.rename_entry("/hot/a", "/hot/a2", 0, &stats);
        assert_eq!(m.resident(), 2);
        assert_eq!(m.backend_of("/hot/a"), None);
        assert_eq!(m.backend_of("/hot/a2"), Some(0));
        // A pinned destination is admitted even at capacity.
        m.rename_entry("/bulk/unknown", "/hot/pinned-dst", 0, &stats);
        assert_eq!(m.backend_of("/hot/pinned-dst"), Some(0));
    }

    #[test]
    fn under_capacity_churn_keeps_the_ring_bounded() {
        let (m, stats) = bounded(64);
        // Open/close churn of few paths leaves one ring tombstone per
        // take_if_on; compaction must keep the ring near the resident set.
        for round in 0..1_000 {
            let path = format!("/bulk/{}", round % 4);
            close_cold(&m, &stats, &path, 0);
            assert!(m.take_if_on(&path, 0).is_some());
        }
        assert_eq!(m.resident(), 0);
        let catalog = m.catalog.lock();
        // Compaction fires once tombstones pass 2·residents + 64; with ≤ 4
        // residents the ring can never coast past ~73 occurrences.
        assert!(
            catalog.ring.len() <= 128,
            "ring grew to {} with {} residents",
            catalog.ring.len(),
            catalog.map.len()
        );
    }

    /// One step of the model interleaving: the same mutation is applied to
    /// a bounded migrator and to an unbounded model map.
    #[derive(Debug, Clone)]
    enum Op {
        /// Full close of path `p` on tier `backend`, with `touches` heat
        /// touches folded in at virtual second `at`.
        Close { p: u8, backend: u32, touches: u8, at: u16 },
        /// Reopen (take_if_on) of path `p` against the tier the model says.
        Open { p: u8 },
        /// Unlink of path `p`.
        Unlink { p: u8 },
        /// Rename `p` → `q` stamping tier `backend`.
        Rename { p: u8, q: u8, backend: u32 },
        /// A migration landed: stamp `p`'s entry onto `backend`.
        SetBackend { p: u8, backend: u32 },
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        prop_oneof![
            (0u8..24, 0u32..2, 0u8..10, 0u16..600)
                .prop_map(|(p, backend, touches, at)| Op::Close { p, backend, touches, at }),
            (0u8..24).prop_map(|p| Op::Open { p }),
            (0u8..24).prop_map(|p| Op::Unlink { p }),
            (0u8..24, 0u8..24, 0u32..2).prop_map(|(p, q, backend)| Op::Rename { p, q, backend }),
            (0u8..24, 0u32..2).prop_map(|(p, backend)| Op::SetBackend { p, backend }),
        ]
    }

    fn model_path(p: u8) -> String {
        // Half the namespace routes to the fast tier (/hot), half to the
        // slow baseline — so misplacement and pinning both occur.
        if p.is_multiple_of(2) {
            format!("/hot/f{p}")
        } else {
            format!("/bulk/f{p}")
        }
    }

    proptest! {
        /// Model test: under arbitrary close/open/unlink/rename/migrate
        /// interleavings a bounded catalog (a) never exceeds
        /// `max(capacity, pinned entries)`, (b) never evicts a misplaced
        /// or promote-worthy entry — every such model entry survives with
        /// identical heat — and (c) agrees with the unbounded model on
        /// the sweep targets of every retained entry.
        #[test]
        fn bounded_catalog_matches_the_unbounded_model(
            ops in proptest::collection::vec(op_strategy(), 1..120),
            capacity in 1usize..12,
        ) {
            let (m, stats) = bounded(capacity);
            let policy = HeatPolicy::new(1, 4.0, 1.0, SimTime::from_secs(60));
            let router = PathPrefixRouter::new(vec![("/hot".into(), 1)], 0);
            let mut model: HashMap<String, FileHeat> = HashMap::new();
            let mut now = SimTime::ZERO;
            let mut pinned_high = 0usize;
            for op in ops {
                match op {
                    Op::Close { p, backend, touches, at } => {
                        let path = model_path(p);
                        now = now.max(SimTime::from_secs(at as u64));
                        m.observe_time(now);
                        let mut temp = model
                            .get(&path)
                            .filter(|h| h.backend == backend)
                            .map(|h| h.temp)
                            .unwrap_or_default();
                        for _ in 0..touches {
                            temp.touch(now, policy.half_life);
                        }
                        let heat = FileHeat { backend, reads: 1, writes: 0, bytes: 10, temp };
                        m.record_closed(&path, heat, &stats);
                        let e = model.entry(path).or_default();
                        e.backend = backend;
                        e.reads += 1;
                        e.bytes = 10;
                        e.temp = temp;
                    }
                    Op::Open { p } => {
                        let path = model_path(p);
                        if let Some(h) = model.get(&path).copied() {
                            let taken = m.take_if_on(&path, h.backend);
                            if taken.is_some() {
                                model.remove(&path);
                            }
                        }
                    }
                    Op::Unlink { p } => {
                        let path = model_path(p);
                        m.forget(&path);
                        model.remove(&path);
                    }
                    Op::Rename { p, q, backend } => {
                        let (from, to) = (model_path(p), model_path(q));
                        // Heat travels with a rename only while the source is
                        // still catalogued: an entry evicted as
                        // correctly-placed-cold has already forgotten its
                        // temperature, so the destination starts cold.
                        let resident = m.backend_of(&from).is_some();
                        m.rename_entry(&from, &to, backend, &stats);
                        let heat = model
                            .remove(&from)
                            .filter(|_| resident)
                            .unwrap_or_default();
                        model.insert(to, FileHeat { backend, ..heat });
                    }
                    Op::SetBackend { p, backend } => {
                        // A sweep-driven migration only lands on catalogued
                        // entries, so the model mirrors the stamp only when
                        // the bounded catalog still holds the path (an entry
                        // evicted as correctly-placed-cold cannot later be
                        // flipped misplaced by a migration it can't start).
                        let path = model_path(p);
                        if m.backend_of(&path).is_some() {
                            m.seed([(path.clone(), backend, None)], &stats);
                            if let Some(h) = model.get_mut(&path) {
                                h.backend = backend;
                            }
                        }
                    }
                }
                let decay_now = m.observed_time();
                let pinned = model
                    .iter()
                    .filter(|(path, h)| {
                        router.route(path) != h.backend as usize
                            || h.temp.decayed(decay_now, policy.half_life) >= 4.0
                    })
                    .count();
                // Resident only grows at admission, where the bound
                // max(capacity, pinned-at-that-moment) holds; entries that
                // were pinned when admitted past cap may cool afterwards
                // and linger until the next admission drains them, so the
                // running bound is the pinned high-water mark.
                pinned_high = pinned_high.max(pinned);
                prop_assert!(
                    m.resident() <= capacity.max(pinned_high),
                    "{} resident > max(capacity {capacity}, pinned high-water {pinned_high})",
                    m.resident()
                );
            }
            // Every pinned model entry must have survived, bit for bit.
            let decay_now = m.observed_time();
            let retained: HashMap<String, FileHeat> = m.entries().into_iter().collect();
            for (path, h) in &model {
                let is_pinned = router.route(path) != h.backend as usize
                    || h.temp.decayed(decay_now, policy.half_life) >= 4.0;
                if is_pinned {
                    let kept = retained.get(path);
                    prop_assert!(kept.is_some(), "pinned entry {path} was evicted");
                    if let Some(kept) = kept {
                        prop_assert_eq!(kept.backend, h.backend);
                        prop_assert_eq!(kept.temp, h.temp, "heat of {} diverged", path);
                    }
                }
            }
            // On the retained set, sweep targets equal the unbounded
            // model's assignment for the same files.
            let mut kept: Vec<(String, FileHeat)> = retained.into_iter().collect();
            kept.sort_by(|a, b| a.0.cmp(&b.0));
            let bounded_targets = policy.assign(&kept, decay_now, &router, 2);
            let modelled: Vec<(String, FileHeat)> =
                kept.into_iter().map(|(path, _)| (path.clone(), model[&path])).collect();
            prop_assert_eq!(bounded_targets, policy.assign(&modelled, decay_now, &router, 2));
        }
    }
}
