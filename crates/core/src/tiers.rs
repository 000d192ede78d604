//! Where a file lives: the one module that knows the mount may sit on more
//! than one inner file system.
//!
//! The paper's NVCache interposes on *one* unmodified kernel file system and
//! passes `open`/`unlink`/`rename` straight through (Table III). Everything
//! this crate adds about *which* inner file system holds a file is decided
//! here, in two halves:
//!
//! * [`Tiering`] — the public value handed to
//!   [`NvCacheBuilder::tiers`](crate::NvCacheBuilder::tiers): the router,
//!   the (layered) tiers, and the three choices about moving files between
//!   them ([`HeatPolicy`], [`MigrationPolicy`], catalog capacity).
//!   [`NvCacheBuilder::backend`](crate::NvCacheBuilder::backend) builds the
//!   one-tier value of the paper's deployment, which has none of the three
//!   to set.
//! * `Tiers` — the mounted half, built once by the builder *before*
//!   recovery. It owns the merged namespace `cache.rs` shows as one: an
//!   existing file is opened in place (recorded backend, then routed
//!   backend, then index order), `stat` probes in that order, `unlink`
//!   leaves the name on no tier, a same-tier `rename` scrubs stale copies of
//!   the destination everywhere else, a cross-tier `rename` is `EXDEV`
//!   exactly when the mount may never move a file and a journaled
//!   migrate-then-rename otherwise, `list_dir` is the sorted union. It also
//!   owns the [`Migrator`], the path-operation [`Lease`]s that keep a
//!   half-copied file invisible, heat bookkeeping, and the accounting of a
//!   finished move.
//!
//! On one tier every operation issues the inner calls of the paper's
//! pass-through — no probe before `open` (one `stat` before a truncating
//! one), `rename` is settle then rename, `list_dir` is one call — decided
//! by `Tiers::sole` alone. Settling a rename (`Tiers::settle_rename`) makes
//! the renamed file alone durable when it can, and drains the whole log
//! when it cannot.
//!
//! ```
//! use std::sync::Arc;
//! use nvcache::{MigrationPolicy, Mount, NvCache, NvCacheConfig, PathPrefixRouter, Tiering};
//! use nvmm::{NvDimm, NvRegion, NvmmProfile};
//! use simclock::ActorClock;
//! use vfs::{FileSystem, MemFs};
//!
//! # fn main() -> Result<(), vfs::IoError> {
//! let clock = ActorClock::new();
//! let cfg = NvCacheConfig::tiny();
//! let dimm = Arc::new(NvDimm::new(cfg.required_nvmm_bytes(), NvmmProfile::optane()));
//! let hot: Arc<dyn FileSystem> = Arc::new(MemFs::new());
//! let cold: Arc<dyn FileSystem> = Arc::new(MemFs::new());
//! let router = Arc::new(PathPrefixRouter::new(vec![("/hot".into(), 1)], 0));
//! let cache = NvCache::builder(NvRegion::whole(dimm))
//!     .tiers(Tiering::new(router, vec![cold, hot]).migration(MigrationPolicy::OnDemand))
//!     .config(cfg)
//!     .mode(Mount::Format)
//!     .mount(&clock)?;
//! assert_eq!(cache.rebalance(&clock)?.files_migrated, 0);
//! cache.shutdown(&clock);
//! # Ok(())
//! # }
//! ```

use std::sync::atomic::Ordering;
use std::sync::Arc;

use simclock::{ActorClock, SimTime};
use vfs::{Fd, FileSystem, IoError, IoResult, Layer, Metadata, OpenFlags};

use crate::cache::{NvCache, Shared};
use crate::files::{FileState, OpenedFile, PersistentFdTable};
use crate::layout::MAX_BACKENDS;
use crate::lockcheck::{Class, Held, Recorder};
use crate::log::Log;
use crate::migrate::{FileHeat, MigrationGate, MigrationPolicy, Migrator, Move, RebalanceReport};
use crate::placement::{quantize_heat, HeatPolicy, Temperature};
use crate::recovery::HeatSeeds;
use crate::router::Router;
use crate::NvCacheStats;

/// One tier of a [`Tiering::layered`] mount: the layer stack (outermost
/// first, empty = bare) and the inner file system it wraps.
pub type LayeredTier = (Vec<Arc<dyn Layer>>, Arc<dyn FileSystem>);

/// Where the files of a mount live: the inner file systems (*tiers*), the
/// [`Router`] that places a new file on one of them, and how — if at all —
/// files move between them afterwards.
///
/// Defaults: no [`HeatPolicy`] (files belong where the router puts them),
/// [`MigrationPolicy::Disabled`], an unbounded catalog. Nothing of this
/// value is encoded in the NVMM image except the tier count; everything
/// else may change across a remount. A mount with a heat policy that may
/// migrate stamps each open file's temperature into its fd slot at `open`,
/// `fsync` and `close`, so a crash + recovery re-seeds the policy instead
/// of starting every file cold.
#[derive(Clone)]
pub struct Tiering {
    pub(crate) router: Arc<dyn Router>,
    pub(crate) tiers: Vec<LayeredTier>,
    pub(crate) heat: Option<HeatPolicy>,
    pub(crate) migration: MigrationPolicy,
    pub(crate) catalog_capacity: Option<usize>,
}

impl std::fmt::Debug for Tiering {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tiering")
            .field("router", &self.router)
            .field("stack_depths", &self.tiers.iter().map(|t| t.0.len()).collect::<Vec<_>>())
            .field("heat", &self.heat)
            .field("migration", &self.migration)
            .field("catalog_capacity", &self.catalog_capacity)
            .finish()
    }
}

impl Tiering {
    /// Bare tiers: `tiers[i]` is backend `i` of `router`.
    ///
    /// # Panics
    ///
    /// As [`layered`](Tiering::layered).
    pub fn new(router: Arc<dyn Router>, tiers: Vec<Arc<dyn FileSystem>>) -> Tiering {
        Tiering::layered(router, tiers.into_iter().map(|inner| (Vec::new(), inner)).collect())
    }

    /// Tiers each wrapped in its own vertical layer stack (first element
    /// outermost — see [`vfs::stack`]), so a tier can be e.g.
    /// `crypt(delay(ssd))`. Stacks are volatile, per-mount state: a region
    /// written through one stack may be recovered through another —
    /// remounting an encrypted tier without its `CryptLayer` yields
    /// ciphertext, exactly like a real encrypted disk.
    ///
    /// # Panics
    ///
    /// Panics unless there are `1..=`[`MAX_BACKENDS`] tiers.
    pub fn layered(router: Arc<dyn Router>, tiers: Vec<LayeredTier>) -> Tiering {
        assert!(
            (1..=MAX_BACKENDS).contains(&tiers.len()),
            "backends must be in 1..={MAX_BACKENDS}"
        );
        Tiering {
            router,
            tiers,
            heat: None,
            migration: MigrationPolicy::Disabled,
            catalog_capacity: None,
        }
    }

    /// Installs the [`HeatPolicy`] that overrides the router's answer to
    /// *where* the migrator moves files (the migration protocol decides
    /// *how*): hot files are promoted onto a designated fast tier
    /// regardless of path, cold ones demoted back to the router baseline.
    ///
    /// Heat tracking and rebalance sweeps only run on a mount that may move
    /// files: pair the policy with [`MigrationPolicy::OnDemand`].
    /// Recovery judges `files_misplaced` by the router either way; only on
    /// a mount that tracks heat does a persisted heat summary clearing the
    /// promote threshold keep a file off that list.
    ///
    /// ```
    /// use std::sync::Arc;
    /// use nvcache::{HashRouter, HeatPolicy, MigrationPolicy, Tiering};
    /// use simclock::SimTime;
    /// use vfs::MemFs;
    ///
    /// let tiering = Tiering::new(
    ///     Arc::new(HashRouter::new(2)),
    ///     vec![Arc::new(MemFs::new()), Arc::new(MemFs::new())],
    /// )
    /// .migration(MigrationPolicy::OnDemand)
    /// .heat(HeatPolicy::new(
    ///     1,                        // promote onto backend 1
    ///     8.0,                      // promote at 8 units of heat
    ///     2.0,                      // demote below 2
    ///     SimTime::from_secs(30),   // heat halves every 30 s
    /// ));
    /// assert!(format!("{tiering:?}").contains("HeatPolicy"));
    /// ```
    pub fn heat(mut self, policy: HeatPolicy) -> Self {
        self.heat = Some(policy);
        self
    }

    /// Sets how the tier migrator may move files (see [`MigrationPolicy`],
    /// which also decides whether a cross-tier `rename` is `EXDEV`).
    pub fn migration(mut self, policy: MigrationPolicy) -> Self {
        self.migration = policy;
        self
    }

    /// Caps the migrator's closed-file catalog at `n` resident entries with
    /// a clock (second-chance) eviction that only evicts *correctly placed
    /// cold* files: an entry that is misplaced or whose decayed heat sits at
    /// or above the policy's promote threshold is pinned until a sweep acts
    /// on it, and when the pinned population alone exceeds `n` the catalog
    /// grows past the cap rather than drop owed work. Keeps sweep time and
    /// catalog memory O(hot files) on million-file namespaces. Without this
    /// call the catalog is unbounded.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero — a catalog that can hold nothing would
    /// silently disable heat accumulation and misplacement tracking.
    pub fn catalog_capacity(mut self, n: usize) -> Self {
        assert!(n >= 1, "catalog_capacity must be at least 1");
        self.catalog_capacity = Some(n);
        self
    }

    /// # Panics
    ///
    /// Panics when the heat policy promotes onto a tier the mount does not
    /// have.
    pub(crate) fn validate(&self) {
        let tiers = self.tiers.len();
        if let Some(policy) = &self.heat {
            let fast = policy.fast_tier;
            assert!(
                fast < tiers,
                "heat policy promotes onto backend {fast}, \
                 but the mount has only {tiers} backend(s)"
            );
        }
    }
}

/// A path-operation lease on the migration gate: `open`, `unlink` and
/// `rename` hold one on each path they name, so none of them ever sees a
/// half-copied file. Returned on drop — by `?`, early return or unwind
/// alike. A mount that can never migrate hands out the empty lease.
pub(crate) struct Lease<'a>(Option<(&'a MigrationGate, &'a str, Held)>);

impl Drop for Lease<'_> {
    fn drop(&mut self) {
        if let Some((gate, path, _)) = &self.0 {
            gate.exit_op(path);
        }
    }
}

/// The mounted [`Tiering`]: see the module docs.
pub(crate) struct Tiers {
    /// The inner (propagation target) file systems, layers applied; indexed
    /// by the backend ids the router assigns.
    pub backends: Box<[Arc<dyn FileSystem>]>,
    pub router: Arc<dyn Router>,
    /// The heat policy, on a mount that may migrate: per-I/O temperature
    /// bookkeeping — and with it the fd slots' heat stamps and recovery's
    /// reading of them — runs exactly when this is `Some`.
    pub heat: Option<HeatPolicy>,
    /// Closed-file catalog and migration gate; idle unless
    /// [`migrates`](Tiers::migrates).
    pub migrator: Migrator,
    /// Whether any file can ever move between tiers: never on one tier,
    /// whatever was asked for.
    migrates: bool,
}

impl Tiers {
    /// Stacks each tier's layers and builds the migrator — with the
    /// mount's lock-order recorder, which starts here.
    ///
    /// # Errors
    ///
    /// [`IoError::InvalidArgument`] if the router fans out to more tiers
    /// than there are, or a layer stack exceeds [`vfs::MAX_STACK_DEPTH`].
    ///
    /// # Panics
    ///
    /// Panics if `tiering` is inconsistent ([`Tiering::validate`]).
    pub fn mount(tiering: Tiering) -> IoResult<Tiers> {
        tiering.validate();
        let Tiering { router, tiers, heat, migration, catalog_capacity } = tiering;
        if router.fan_out() > tiers.len() {
            return Err(IoError::InvalidArgument(format!(
                "router {router:?} fans out to {} backends but only {} were supplied",
                router.fan_out(),
                tiers.len()
            )));
        }
        // Everything below — cleanup, migration, recovery — sees only the
        // wrapped Arc<dyn FileSystem> and works unchanged.
        let backends: Box<[Arc<dyn FileSystem>]> = tiers
            .into_iter()
            .map(|(layers, inner)| vfs::stack(&layers, inner))
            .collect::<IoResult<_>>()?;
        let migrates = backends.len() > 1 && migration == MigrationPolicy::OnDemand;
        let heat = heat.filter(|_| migrates);
        let migrator =
            Migrator::new(Recorder::new(), catalog_capacity, heat.clone(), Arc::clone(&router));
        Ok(Tiers { backends, router, heat, migrator, migrates })
    }

    /// The one inner file system of the paper's deployment; `None` on a
    /// mount that has a namespace to merge.
    fn sole(&self) -> Option<&Arc<dyn FileSystem>> {
        match &*self.backends {
            [only] => Some(only),
            _ => None,
        }
    }

    /// How the mount names itself after what is below it.
    pub fn name(&self) -> String {
        match self.sole() {
            Some(only) => format!("nvcache+{}", only.name()),
            None => {
                let tiers: Vec<&str> = self.backends.iter().map(|b| b.name()).collect();
                format!("nvcache+{}[{}]", self.router.name(), tiers.join("|"))
            }
        }
    }

    /// Whether any file can ever move between tiers. When `false` the
    /// migrator is bypassed entirely — no gate leases, no catalog growth.
    pub fn migrates(&self) -> bool {
        self.migrates
    }

    fn refuse_if_disabled(&self) -> IoResult<()> {
        if self.migrates() {
            return Ok(());
        }
        Err(IoError::InvalidArgument(
            "tier migration is disabled (MigrationPolicy::Disabled)".into(),
        ))
    }

    /// Takes the path-operation lease on `path` (blocking while a migration
    /// has it claimed).
    pub fn lease<'a>(&'a self, path: &'a str) -> Lease<'a> {
        Lease(self.migrates().then(|| {
            let order = self.migrator.lockcheck.acquire(Class::MigrationGate, 0);
            self.migrator.gate.enter_op(path);
            (&self.migrator.gate, path, order)
        }))
    }

    /// Backend probe order for path operations: the backend this mount
    /// *recorded* for `path` — on an open descriptor, a draining zombie, or
    /// in the closed-file catalog — then the router's placement, then every
    /// remaining tier in index order. A misplaced file's bytes live where
    /// they were written, not where the router would place the path today.
    fn resolution_order(&self, shared: &Shared, path: &str) -> Vec<usize> {
        if self.sole().is_some() {
            return vec![0];
        }
        let recorded = shared
            .descriptor_at(path)
            .map(|o| o.backend)
            .or_else(|| self.migrator.backend_of(path));
        let mut order = Vec::with_capacity(self.backends.len());
        order.extend(recorded.map(|b| b as usize));
        for b in std::iter::once(self.router.route(path)).chain(0..self.backends.len()) {
            if !order.contains(&b) {
                order.push(b);
            }
        }
        order
    }

    /// The backend actually holding `path` and the inner `stat` of it there,
    /// probing in resolution order — where [`open`](Tiers::open) opens an
    /// existing file; one `stat` on one tier. "Found nowhere" is
    /// `Ok(None)`; a real backend error aborts the probe.
    pub fn locate(
        &self,
        shared: &Shared,
        path: &str,
        clock: &ActorClock,
    ) -> IoResult<Option<(usize, Metadata)>> {
        for b in self.resolution_order(shared, path) {
            if let Some(meta) = probe(&self.backends[b], path, clock)? {
                return Ok(Some((b, meta)));
            }
        }
        Ok(None)
    }

    /// The inner `open`: an existing file is opened *in place* — POSIX
    /// `O_CREAT` opens, it does not shadow — even when a policy change left
    /// it misplaced; only a genuinely new file is created on the router's
    /// tier (that is the placement decision). Returns the backend with the
    /// descriptor: it travels with the volatile descriptor and the
    /// persistent fd slot, so every later resolution agrees with this one.
    pub fn open(
        &self,
        shared: &Shared,
        path: &str,
        flags: OpenFlags,
        clock: &ActorClock,
    ) -> IoResult<(usize, Fd)> {
        let backend = match self.sole() {
            Some(_) => 0,
            None => match self.locate(shared, path, clock)? {
                Some((b, _)) => b,
                None if flags.contains(OpenFlags::CREATE) => self.router.route(path),
                None => return Err(IoError::NotFound(path.to_string())),
            },
        };
        Ok((backend, self.backends[backend].open(path, flags, clock)?))
    }

    /// The inner `unlink`, on *every* tier holding the name: a misplaced
    /// file plus a shadow created on the routed tier are duplicate copies,
    /// and unlinking only one would let the other resurrect it. Each victim
    /// the mount may know (some descriptor carries the path: an inner `stat`
    /// is paid for its identity) is reported to
    /// [`Shared::file_unlinked`] right after its own inner `unlink`.
    pub fn unlink(&self, shared: &Shared, path: &str, clock: &ActorClock) -> IoResult<()> {
        let known = shared.path_is_open_or_draining(path);
        // The victim must not be mid-migration (the copy would resurrect it).
        let _lease = self.lease(path);
        let mut removed = false;
        for backend in self.resolution_order(shared, path) {
            let inner = &self.backends[backend];
            let identity = known.then(|| inner.stat(path, clock).ok()).flatten();
            match inner.unlink(path, clock) {
                Ok(()) => {
                    removed = true;
                    if let Some(meta) = identity {
                        shared.file_unlinked((backend as u32, meta.dev, meta.ino), clock);
                    }
                    #[cfg(test)]
                    if tests::armed(tests::Mutation::UnlinkStopsAtFirstHit) {
                        break;
                    }
                }
                Err(IoError::NotFound(_)) => {}
                Err(e) => return Err(e),
            }
        }
        if !removed {
            return Err(IoError::NotFound(path.to_string()));
        }
        self.migrator.forget(path);
        Ok(())
    }

    /// The inner `rename`. POSIX errno order — a nonexistent source is
    /// ENOENT *before* any cross-device consideration — then in place or,
    /// across tiers, `EXDEV` exactly when the mount may never move a file:
    /// legacy applications already handle it (`mv` falls back to copy +
    /// unlink across mount points). Otherwise the call is a journaled
    /// migrate-then-rename.
    pub fn rename(
        &self,
        shared: &Shared,
        from: &str,
        to: &str,
        clock: &ActorClock,
    ) -> IoResult<()> {
        if let Some(only) = self.sole() {
            // The inner file system owns the whole errno surface (ENOENT
            // included) — the paper's deployment.
            self.settle_rename(shared, 0, from, to, clock)?;
            return only.rename(from, to, clock);
        }
        let leases = (self.lease(from), self.lease(to));
        let Some((src, _)) = self.locate(shared, from, clock)? else {
            return Err(IoError::NotFound(from.to_string()));
        };
        if from == to {
            // POSIX: renaming an existing file onto itself succeeds and
            // does nothing — even when the router would place the name on
            // a different tier than the one holding it.
            return Ok(());
        }
        let dst = self.router.route(to);
        if src != dst {
            if !self.migrates() {
                return Err(IoError::CrossDevice(format!("{from} -> {to}")));
            }
            crate::layout::check_path(to)?;
            // A lease blocks a claim, even our own: give them back first.
            // The unprotected gap is covered by the open/zombie re-check
            // under the claims.
            drop(leases);
            return self.migrate_rename(shared, from, to, src, dst, clock);
        }
        self.settle_rename(shared, src, from, to, clock)?;
        self.backends[src].rename(from, to, clock)?;
        // rename replaces the destination on the mount's *merged* view:
        // stale copies of the new name on other tiers must go.
        #[cfg(test)]
        if tests::armed(tests::Mutation::RenameSkipsTheScrub) {
            return Ok(());
        }
        self.unlink_others(to, src, clock)?;
        if !self.migrates() {
            return Ok(());
        }
        if shared.path_is_open_or_draining(from) {
            // The file is still open under its old name — `FileState.path`
            // keeps `from`, so the open-file guard could not protect a
            // catalog entry under `to` and a sweep would migrate a file
            // with live descriptors. Leave both names uncatalogued (path
            // ops still reach the file by probing); stale entries
            // self-heal via the sweep's NotFound handling.
            self.migrator.forget(from);
            self.migrator.forget(to);
        } else {
            self.migrator.rename_entry(from, to, src as u32, &shared.stats);
        }
        Ok(())
    }

    /// Readies a same-tier `rename` of `from` onto `to` on `backend` for a
    /// crash. Log entries logically precede the rename: replayed after it
    /// they would land under a name that no longer holds their file, or
    /// bring `to`'s old bytes back over its new content. Draining the whole
    /// log settles both. When the mount holds no state for `to` and no
    /// descriptor on `from` is left open, settling `from` alone does:
    ///
    /// 1. its not-yet-pushed entries are pushed into the kernel (usually
    ///    none: its last `close` pushed them);
    /// 2. an inner `fsync` of the inode, through a zombie's descriptor,
    ///    makes them durable;
    /// 3. [`Shared::file_unlinked`] clears its fd slots under one fence and
    ///    buries it: recovery skips its entries, the workers drop them;
    /// 4. the caller renames.
    ///
    /// A crash after any step leaves every acknowledged byte replayable
    /// under `from` or durable in the inode.
    fn settle_rename(
        &self,
        shared: &Shared,
        backend: usize,
        from: &str,
        to: &str,
        clock: &ActorClock,
    ) -> IoResult<()> {
        let inner = &self.backends[backend];
        let known = |path| -> IoResult<_> {
            Ok(probe(inner, path, clock)?.and_then(|m| Some((shared.file_at(backend, &m)?, m))))
        };
        let source = known(from)?;
        if known(to)?.is_some() || (self.sole().is_none() && shared.path_is_open_or_draining(to)) {
            return shared.drained_flush(clock);
        }
        if let Some((file, meta)) = source {
            let via = {
                let _serial = shared.serialize_push(&file);
                // Read before the count, as in `Shared::close_push`.
                let next = shared.log.next_seq();
                let descriptors = shared.descriptors_of(&file);
                let open = descriptors.iter().any(|o| !o.closing.load(Ordering::SeqCst));
                // A writable one, if any: the push writes through it.
                let via = descriptors.iter().max_by_key(|o| o.flags.writable()).cloned();
                match via {
                    Some(via)
                        if !open
                            && file.writers.load(Ordering::SeqCst) == 0
                            && shared.push(&via, Some(next), clock) =>
                    {
                        via
                    }
                    _ => return shared.drained_flush(clock),
                }
            };
            #[cfg(test)]
            crate::scoped_tests::crash_point(crate::scoped_tests::Step::Pushed)?;
            {
                let (fd, _lk) = shared.hold_inner(&via);
                let Some(fd) = *fd else { return shared.drained_flush(clock) };
                #[cfg(test)]
                let fd = Some(fd).filter(|_| !crate::scoped_tests::skips_fsync());
                #[cfg(not(test))]
                let fd = Some(fd);
                fd.map_or(Ok(()), |fd| inner.fsync(fd, clock))?;
            }
            #[cfg(test)]
            crate::scoped_tests::crash_point(crate::scoped_tests::Step::Synced)?;
            shared.file_unlinked((backend as u32, meta.dev, meta.ino), clock);
            #[cfg(test)]
            crate::scoped_tests::crash_point(crate::scoped_tests::Step::Retired)?;
        }
        shared.stats.drains_skipped.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Cross-tier rename as a journaled migration: copy `from`@`src` to
    /// `to`@`dst`, fsync, stamp, unlink the source — `mv` semantics across
    /// mount points, not crash-atomic (a crash can briefly leave both
    /// names; recovery converges every name to one authoritative copy), and
    /// a pre-existing destination is truncated before the copy commits.
    fn migrate_rename(
        &self,
        shared: &Shared,
        from: &str,
        to: &str,
        src: usize,
        dst: usize,
        clock: &ActorClock,
    ) -> IoResult<()> {
        let busy = |why: &str| IoError::Busy(format!("{from} -> {to}: {why}"));
        let in_flight = "another migration is in flight";
        let _from = self.migrator.claim(from).ok_or_else(|| busy(in_flight))?;
        let _to = self.migrator.claim(to).ok_or_else(|| busy(in_flight))?;
        if shared.path_is_open_or_draining(from) || shared.path_is_open_or_draining(to) {
            return Err(busy("open or draining descriptors exist"));
        }
        shared.drained_flush(clock)?;
        let bytes = crate::migrate::journaled_move(shared, from, to, src, dst, clock)?;
        // The destination name is replaced mount-wide.
        self.unlink_others(to, dst, clock)?;
        self.migrator.rename_entry(from, to, dst as u32, &shared.stats);
        self.moved(&shared.stats, src, dst, bytes);
        self.refresh_gauge(&shared.stats);
        Ok(())
    }

    /// Unlinks `path` on every tier but `keep`: what is left of a name that
    /// a rename replaced, or that a migration journal says lives on `keep`.
    pub fn unlink_others(&self, path: &str, keep: usize, clock: &ActorClock) -> IoResult<()> {
        for (b, backend) in self.backends.iter().enumerate() {
            if b == keep {
                continue;
            }
            match backend.unlink(path, clock) {
                Ok(()) | Err(IoError::NotFound(_)) => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// The inner `list_dir`: a directory's children may be spread over
    /// several tiers (the router partitions by path, not by subtree), so
    /// the listing is the sorted, de-duplicated union. Tiers where the
    /// directory does not exist contribute nothing; the listing fails when
    /// *no* tier knows it — or when one fails for real, which would leave
    /// the union silently partial.
    pub fn list_dir(&self, dir: &str, clock: &ActorClock) -> IoResult<Vec<String>> {
        if let Some(only) = self.sole() {
            return only.list_dir(dir, clock);
        }
        let mut merged: Vec<String> = Vec::new();
        let mut found = false;
        for backend in self.backends.iter() {
            match backend.list_dir(dir, clock) {
                Ok(entries) => {
                    found = true;
                    merged.extend(entries);
                }
                Err(IoError::NotFound(_)) => {}
                Err(e) => return Err(e),
            }
        }
        if !found {
            return Err(IoError::NotFound(dir.to_string()));
        }
        merged.sort();
        merged.dedup();
        Ok(merged)
    }

    /// One intercepted access to `file` that moved data, at virtual instant
    /// `now`: decays its temperature to `now` and adds one unit of heat.
    pub fn touch(&self, file: &FileState, now: SimTime) {
        if let Some(policy) = &self.heat {
            file.temperature.lock().touch(now, policy.half_life);
            self.migrator.observe_time(now);
        }
    }

    /// Persists `file`'s decayed temperature into the heat word of its fd
    /// slot when it quantizes to `at_least` or more (mounts that track heat
    /// only): one `commit_store` + fence, so a crash hands the next mount
    /// this file's heat instead of a cold start. `fsync` and `close` stamp
    /// whatever the value (`0`); `open` skips a cold one (`1`) — the slot's
    /// zeroed heat word already reads as cold. A no-op on every other mount:
    /// the default pays nothing, not even a branch on NVMM.
    pub fn stamp_heat(
        &self,
        log: &Log,
        file: &FileState,
        slot: u32,
        at_least: u16,
        clock: &ActorClock,
    ) {
        let Some(policy) = &self.heat else { return };
        let heat = file.temperature.lock().decayed(clock.now(), policy.half_life);
        let quantized = quantize_heat(heat);
        if quantized >= at_least {
            PersistentFdTable::set_heat(&log.region, &log.layout, slot, quantized, clock);
        }
    }

    /// The last descriptor on a named file is closed and drained: catalogue
    /// it — with its accumulated access heat, size and decaying temperature
    /// — so sweeps can re-home it.
    pub fn closed(&self, opened: &OpenedFile, stats: &NvCacheStats) {
        if !self.migrates() {
            return;
        }
        let file = &opened.file;
        let heat = FileHeat {
            backend: opened.backend,
            reads: file.reads.load(Ordering::Relaxed),
            writes: file.writes.load(Ordering::Relaxed),
            bytes: file.size.load(Ordering::Relaxed),
            temp: *file.temperature.lock(),
        };
        self.migrator.record_closed(&file.path, heat, stats);
    }

    /// Accounts one finished move of `bytes` from tier `from` to tier `to`,
    /// and returns which way it went.
    pub fn moved(&self, stats: &NvCacheStats, from: usize, to: usize, bytes: u64) -> Move {
        stats.files_migrated.fetch_add(1, Ordering::Relaxed);
        stats.migration_bytes.fetch_add(bytes, Ordering::Relaxed);
        let fast = self.heat.as_ref().map(|p| p.fast_tier);
        if fast == Some(to) {
            stats.files_promoted.fetch_add(1, Ordering::Relaxed);
            Move::Promotion
        } else if fast == Some(from) {
            stats.files_demoted.fetch_add(1, Ordering::Relaxed);
            Move::Demotion
        } else {
            Move::Lateral
        }
    }

    /// Recomputes the `fast_tier_bytes` occupancy gauge from the catalog
    /// (one scan: after a single move, or once at the end of a sweep).
    pub fn refresh_gauge(&self, stats: &NvCacheStats) {
        if let Some(policy) = &self.heat {
            let occupancy = self.migrator.fast_tier_occupancy(policy.fast_tier as u32);
            stats.fast_tier_bytes.store(occupancy, Ordering::Relaxed);
        }
    }

    /// Hands recovery's findings to the migrator, before the mount comes up:
    /// the files found misplaced become migration candidates, and the
    /// persisted temperature summaries re-seed the catalog so the next sweep
    /// re-promotes the recovered hot set without a file being re-touched —
    /// only on a mount that tracks heat.
    pub fn seed(
        &self,
        misplaced: Vec<(String, u32)>,
        heat: HeatSeeds,
        now: SimTime,
        stats: &NvCacheStats,
    ) {
        if self.migrates() {
            self.migrator
                .seed(misplaced.into_iter().map(|(path, b)| (path, b, None)), stats);
        }
        if self.heat.is_some() && !heat.is_empty() {
            self.migrator.observe_time(now);
            let warm = |(path, b, heat)| (path, b, Some(Temperature { heat, stamp: now }));
            self.migrator.seed(heat.into_iter().map(warm), stats);
        }
    }
}

/// `fs`'s inner `stat` of `path`; `None` when it has no such file.
fn probe(fs: &Arc<dyn FileSystem>, path: &str, clock: &ActorClock) -> IoResult<Option<Metadata>> {
    match fs.stat(path, clock) {
        Ok(meta) => Ok(Some(meta)),
        Err(IoError::NotFound(_)) => Ok(None),
        Err(e) => Err(e),
    }
}

/// The tiers as the application sees them.
impl NvCache {
    /// All inner backends, indexed by the ids the router assigns.
    pub fn backends(&self) -> &[Arc<dyn FileSystem>] {
        &self.shared.tiers.backends
    }

    /// The router mapping files to backends
    /// ([`SingleBackend`](crate::SingleBackend) on a
    /// [`backend`](crate::NvCacheBuilder::backend) mount).
    pub fn router(&self) -> &Arc<dyn Router> {
        &self.shared.tiers.router
    }

    /// Files currently resident in the migrator's closed-file catalog —
    /// bounded by [`Tiering::catalog_capacity`] (plus any pinned overflow
    /// the bound is not allowed to drop: misplaced or above-threshold
    /// entries survive until acted on). Unbounded mounts report the full
    /// catalog size.
    pub fn catalog_resident(&self) -> usize {
        self.shared.tiers.migrator.resident()
    }

    /// Runs one tier-rebalancing sweep on the caller's clock: every closed
    /// file the mount knows about (catalogued at close time, or reported
    /// misplaced by recovery) whose backend disagrees with its target — the
    /// router's placement, or the temperature-driven target of the mount's
    /// [`HeatPolicy`] — is moved there through the crash-safe copy → stamp → unlink
    /// protocol. Open or still-draining files are skipped and retried on a
    /// later sweep. See [`RebalanceReport`] and the `migrate` module docs.
    ///
    /// # Errors
    ///
    /// [`IoError::InvalidArgument`] when the mount's [`MigrationPolicy`] is
    /// `Disabled` (as it is on one tier); any inner I/O error a migration
    /// hits (the sweep stops there — already-moved files stay moved, the
    /// rest stay catalogued).
    pub fn rebalance(&self, clock: &ActorClock) -> IoResult<RebalanceReport> {
        self.shared.tiers.refuse_if_disabled()?;
        crate::migrate::sweep(&self.shared, clock)
    }

    /// Moves the closed file at `path` to backend `to` with the crash-safe
    /// migration protocol, regardless of the router's placement. Returns
    /// the bytes copied (`0` if the file already lives there).
    ///
    /// # Errors
    ///
    /// [`IoError::InvalidArgument`] when migration is disabled or `to` is
    /// out of range; [`IoError::Busy`] (EBUSY) while the file is open or
    /// draining; [`IoError::NotFound`] if no backend holds the file; any
    /// inner I/O error from the copy.
    pub fn migrate(&self, path: &str, to: usize, clock: &ActorClock) -> IoResult<u64> {
        let tiers = &self.shared.tiers;
        tiers.refuse_if_disabled()?;
        let path = vfs::normalize_path(path);
        let moved = crate::migrate::migrate_path(&self.shared, &path, to, clock)?;
        tiers.refresh_gauge(&self.shared.stats);
        Ok(moved.map_or(0, |(_, bytes)| bytes))
    }
}

#[cfg(test)]
mod tests {
    use std::cell::Cell;
    use std::collections::{BTreeMap, BTreeSet};
    use std::panic::{catch_unwind, AssertUnwindSafe};

    use nvmm::{NvDimm, NvRegion, NvmmProfile};
    use proptest::prelude::*;
    use vfs::MemFs;

    use super::*;
    use crate::{NvCacheConfig, PathPrefixRouter};

    /// A seeded bug in the merged namespace, armed per thread: the model
    /// test must fail under each.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub(super) enum Mutation {
        None,
        /// `unlink` stops at the first tier that held the name.
        UnlinkStopsAtFirstHit,
        /// A same-tier `rename` leaves stale destination copies elsewhere.
        RenameSkipsTheScrub,
    }

    thread_local! {
        static ARMED: Cell<Mutation> = const { Cell::new(Mutation::None) };
    }

    pub(super) fn armed(mutation: Mutation) -> bool {
        ARMED.with(|a| a.get() == mutation)
    }

    /// Five files in nested directories, spread over three tiers by
    /// directory: `/a/b/**` routes to tier 1, `/a/b/c/**` to tier 2, `/d/**`
    /// to tier 1, the rest to tier 0.
    const PATHS: [&str; 5] = ["/a/f", "/a/b/g", "/a/b/c/h", "/d/i", "/j"];
    const DIRS: [&str; 5] = ["/", "/a", "/a/b", "/a/b/c", "/d"];
    const TIERS: usize = 3;

    fn router() -> PathPrefixRouter {
        PathPrefixRouter::new(vec![("/a/b".into(), 1), ("/a/b/c".into(), 2), ("/d".into(), 1)], 0)
    }

    /// How a path exists below the mount before it comes up.
    #[derive(Debug, Clone, Copy)]
    enum Seed {
        Absent,
        /// On its routed tier.
        Placed,
        /// On the tier after its routed one.
        Misplaced,
        /// On both.
        Duplicated,
    }

    #[derive(Debug, Clone, Copy)]
    enum Op {
        Open {
            p: usize,
            create: bool,
        },
        /// Closes the `k`-th open descriptor (modulo how many there are).
        Close {
            k: usize,
        },
        Stat {
            p: usize,
        },
        Unlink {
            p: usize,
        },
        /// After closing every descriptor on either name.
        Rename {
            p: usize,
            q: usize,
        },
        ListDir {
            d: usize,
        },
    }

    fn seeds() -> impl Strategy<Value = Vec<Seed>> {
        let seed = prop_oneof![
            Just(Seed::Absent),
            Just(Seed::Placed),
            Just(Seed::Misplaced),
            Just(Seed::Duplicated)
        ];
        proptest::collection::vec(seed, PATHS.len()..PATHS.len() + 1)
    }

    fn ops() -> impl Strategy<Value = Vec<Op>> {
        let n = PATHS.len();
        let op = prop_oneof![
            (0..n, any::<bool>()).prop_map(|(p, create)| Op::Open { p, create }),
            (0..8usize).prop_map(|k| Op::Close { k }),
            (0..n).prop_map(|p| Op::Stat { p }),
            (0..n).prop_map(|p| Op::Unlink { p }),
            (0..n, 0..n).prop_map(|(p, q)| Op::Rename { p, q }),
            (0..n, 0..n).prop_map(|(p, q)| Op::Rename { p, q }),
            (0..DIRS.len()).prop_map(|d| Op::ListDir { d }),
        ];
        proptest::collection::vec(op, 1..40)
    }

    /// The plain model: which tiers hold each name, and the backend the
    /// mount has *recorded* for it — on a live descriptor, or (when the
    /// mount may migrate) in the closed-file catalog.
    struct Model {
        migrates: bool,
        holders: BTreeMap<&'static str, BTreeSet<usize>>,
        recorded: BTreeMap<&'static str, usize>,
        /// `(descriptor, the name it was opened under, unlinked since)`.
        open: Vec<(Fd, &'static str, bool)>,
    }

    impl Model {
        /// Recorded backend, then routed, then index order.
        fn locate(&self, path: &str) -> Option<usize> {
            let order = self.recorded.get(path).copied().into_iter();
            let order = order.chain([router().route(path)]).chain(0..TIERS);
            let mut order = order.filter(|b| self.holders[path].contains(b));
            order.next()
        }

        fn closed(&mut self, path: &'static str, unlinked: bool) {
            let still_open = self.open.iter().any(|&(_, p, gone)| p == path && !gone);
            if !unlinked && !still_open && !self.migrates {
                self.recorded.remove(path);
            }
        }
    }

    /// Runs `ops` through a mount over three `MemFs` tiers seeded per
    /// `seeds`, checking every answer — and, after every operation, which
    /// tiers hold which name — against the model. Panics on a difference.
    fn check(seeds: &[Seed], ops: &[Op], migrates: bool) {
        let clock = ActorClock::new();
        let inners: Vec<Arc<dyn FileSystem>> =
            (0..TIERS).map(|_| Arc::new(MemFs::new()) as Arc<dyn FileSystem>).collect();
        let mut model = Model {
            migrates,
            holders: BTreeMap::new(),
            recorded: BTreeMap::new(),
            open: Vec::new(),
        };
        let create = OpenFlags::RDWR | OpenFlags::CREATE;
        for (path, seed) in PATHS.into_iter().zip(seeds) {
            let routed = router().route(path);
            let on: &[usize] = match seed {
                Seed::Absent => &[],
                Seed::Placed => &[routed],
                Seed::Misplaced => &[(routed + 1) % TIERS],
                Seed::Duplicated => &[routed, (routed + 1) % TIERS],
            };
            for &tier in on {
                let fd = inners[tier].open(path, create, &clock).unwrap();
                inners[tier].close(fd, &clock).unwrap();
            }
            model.holders.insert(path, on.iter().copied().collect());
        }
        let policy = if migrates { MigrationPolicy::OnDemand } else { MigrationPolicy::Disabled };
        let cfg = NvCacheConfig::tiny();
        let dimm = Arc::new(NvDimm::new(cfg.required_nvmm_bytes(), NvmmProfile::instant()));
        let cache = NvCache::builder(NvRegion::whole(dimm))
            .tiers(Tiering::new(Arc::new(router()), inners.clone()).migration(policy))
            .config(cfg)
            .mount(&clock)
            .unwrap();

        for (step, &op) in ops.iter().enumerate() {
            let what = format!("step {step}, {op:?}");
            match op {
                Op::Open { p, create: creating } => {
                    let path = PATHS[p];
                    if model.open.len() == 6 {
                        continue; // keep fd slots for migration journals
                    }
                    let flags = if creating { create } else { OpenFlags::RDWR };
                    let got = cache.open(path, flags, &clock);
                    let backend = match model.locate(path) {
                        // An existing file is opened in place.
                        Some(b) => b,
                        // A new one is created on the routed tier.
                        None if creating => {
                            let routed = router().route(path);
                            model.holders.insert(path, BTreeSet::from([routed]));
                            routed
                        }
                        None => {
                            assert!(matches!(got, Err(IoError::NotFound(_))), "{what}: {got:?}");
                            continue;
                        }
                    };
                    model.recorded.insert(path, backend);
                    model.open.push((got.unwrap_or_else(|e| panic!("{what}: {e}")), path, false));
                }
                Op::Close { k } if !model.open.is_empty() => {
                    let (fd, path, unlinked) = model.open.remove(k % model.open.len());
                    cache.close(fd, &clock).unwrap_or_else(|e| panic!("{what}: {e}"));
                    model.closed(path, unlinked);
                }
                Op::Close { .. } => {}
                Op::Stat { p } => {
                    let got = cache.stat(PATHS[p], &clock);
                    match model.locate(PATHS[p]) {
                        Some(_) => assert!(got.is_ok(), "{what}: {got:?}"),
                        None => {
                            assert!(matches!(got, Err(IoError::NotFound(_))), "{what}: {got:?}")
                        }
                    }
                }
                Op::Unlink { p } => {
                    let path = PATHS[p];
                    let got = cache.unlink(path, &clock);
                    if model.holders[path].is_empty() {
                        assert!(matches!(got, Err(IoError::NotFound(_))), "{what}: {got:?}");
                        continue;
                    }
                    got.unwrap_or_else(|e| panic!("{what}: {e}"));
                    // The name is left on no tier, and recorded nowhere.
                    model.holders.insert(path, BTreeSet::new());
                    model.recorded.remove(path);
                    for open in model.open.iter_mut().filter(|open| open.1 == path) {
                        open.2 = true;
                    }
                }
                Op::Rename { p, q } => {
                    let (from, to) = (PATHS[p], PATHS[q]);
                    let (on_them, others) =
                        model.open.drain(..).partition(|open| open.1 == from || open.1 == to);
                    model.open = others;
                    for (fd, path, unlinked) in on_them {
                        cache.close(fd, &clock).unwrap_or_else(|e| panic!("{what}: {e}"));
                        model.closed(path, unlinked);
                    }
                    let got = cache.rename(from, to, &clock);
                    let Some(src) = model.locate(from) else {
                        // ENOENT precedes EXDEV.
                        assert!(matches!(got, Err(IoError::NotFound(_))), "{what}: {got:?}");
                        continue;
                    };
                    if from == to {
                        got.unwrap_or_else(|e| panic!("{what}: {e}"));
                        continue;
                    }
                    let dst = router().route(to);
                    if src != dst && !migrates {
                        // EXDEV exactly when the mount may never move a file.
                        assert!(matches!(got, Err(IoError::CrossDevice(_))), "{what}: {got:?}");
                        continue;
                    }
                    got.unwrap_or_else(|e| panic!("{what}: {e}"));
                    // In place or migrated, the destination is on exactly
                    // one tier: the routed one.
                    model.holders.get_mut(from).unwrap().remove(&src);
                    model.holders.insert(to, BTreeSet::from([dst]));
                    model.recorded.remove(from);
                    model.recorded.remove(to);
                    if migrates {
                        model.recorded.insert(to, dst);
                    }
                }
                Op::ListDir { d } => {
                    // The sorted, de-duplicated union.
                    let mut union = BTreeSet::new();
                    for inner in &inners {
                        union.extend(inner.list_dir(DIRS[d], &clock).unwrap());
                    }
                    let got = cache.list_dir(DIRS[d], &clock).unwrap();
                    assert_eq!(got, union.into_iter().collect::<Vec<_>>(), "{what}");
                }
            }
            for path in PATHS {
                let holders: BTreeSet<usize> =
                    (0..TIERS).filter(|&b| inners[b].stat(path, &clock).is_ok()).collect();
                assert_eq!(holders, model.holders[path], "{what}: tiers holding {path}");
            }
        }
        cache.shutdown(&clock);
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

        #[test]
        fn merged_namespace_matches_the_model(
            seeds in seeds(),
            ops in ops(),
            migrates in any::<bool>(),
        ) {
            check(&seeds, &ops, migrates);
        }
    }

    /// How many of 96 generated cases fail [`check`] with `mutation` armed.
    fn failing_cases(mutation: Mutation) -> usize {
        ARMED.with(|a| a.set(mutation));
        let failing = (0..96).filter(|&case| {
            let mut rng = proptest::TestRng::for_case("tiers::mutation", case);
            let (seeds, ops) = (seeds().generate(&mut rng), ops().generate(&mut rng));
            catch_unwind(AssertUnwindSafe(|| check(&seeds, &ops, case % 2 == 0))).is_err()
        });
        let failing = failing.count();
        ARMED.with(|a| a.set(Mutation::None));
        failing
    }

    #[test]
    fn an_unlink_that_stops_at_the_first_copy_fails_the_model() {
        assert_eq!(failing_cases(Mutation::None), 0, "the cases themselves are sound");
        assert!(failing_cases(Mutation::UnlinkStopsAtFirstHit) > 0);
    }

    #[test]
    fn a_rename_that_skips_the_scrub_fails_the_model() {
        assert!(failing_cases(Mutation::RenameSkipsTheScrub) > 0);
    }
}
