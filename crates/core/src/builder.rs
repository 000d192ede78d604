//! The mount-stack builder: [`NvCacheBuilder`] assembles an
//! [`NvCache`](crate::NvCache) over one or many inner backends and mounts it
//! by formatting a fresh region or recovering an existing one.
//!
//! The paper's constructor pair (`format`/`recover`) hard-wired exactly one
//! inner file system and one construction mode each. The builder composes
//! the same pieces — NVMM region, what is below the cache, configuration,
//! mount mode — explicitly, and is the one way to mount any stack, including
//! a **tiered** one where a [`Router`](crate::Router) spreads files over
//! several backends ([`Tiering`]):
//!
//! ```
//! use std::sync::Arc;
//! use nvcache::{Mount, NvCache, NvCacheConfig, PathPrefixRouter, Tiering};
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
//! let cache = NvCache::builder(NvRegion::whole(dimm))
//!     .tiers(Tiering::new(
//!         Arc::new(PathPrefixRouter::new(vec![("/hot".into(), 1)], 0)),
//!         vec![cold, hot],
//!     ))
//!     .config(cfg)
//!     .mode(Mount::Format)
//!     .mount(&clock)?;
//! cache.shutdown(&clock);
//! # Ok(())
//! # }
//! ```
//!
//! Every `Mount::Format` writes one image format (`"NVCACHE2"`), whatever
//! its stripe and backend counts; `Mount::Recover` refuses an image of any
//! other format by its magic.

use std::sync::Arc;

use nvmm::NvRegion;
use simclock::ActorClock;
use vfs::{FileSystem, IoError, IoResult, Layer};

use crate::cache::NvCache;
use crate::layout::{Header, Layout, FD_SLOT_BYTES};
use crate::router::SingleBackend;
use crate::tiers::{Tiering, Tiers};
use crate::NvCacheConfig;

/// How [`NvCacheBuilder::mount`] treats the NVMM region.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Mount {
    /// Format the region as a fresh, empty log (destroys previous content).
    #[default]
    Format,
    /// Run the recovery procedure on a previously formatted region — replay
    /// committed entries to their recorded backends, sync, empty the log —
    /// then mount. An image may be recovered over more backends than it
    /// was written under, never fewer; every file replays to the backend
    /// its fd slot records. Interrupted tier migrations are always repaired
    /// from their journal slots; files found *misplaced* (recovered backend
    /// ≠ current router placement) are counted, not moved: on a mount that
    /// may migrate they are catalogued, and the first
    /// [`rebalance`](crate::NvCache::rebalance) re-homes them.
    Recover,
}

/// Builder for mounting an [`NvCache`] stack; obtained from
/// [`NvCache::builder`].
///
/// Defaults: [`NvCacheConfig::default`] configuration, [`Mount::Format`]
/// mode, nothing below (one of [`backend`](NvCacheBuilder::backend),
/// [`backend_stack`](NvCacheBuilder::backend_stack) or
/// [`tiers`](NvCacheBuilder::tiers) is mandatory; the last call wins).
#[must_use = "a builder does nothing until .mount() is called"]
#[derive(Debug)]
pub struct NvCacheBuilder {
    region: NvRegion,
    cfg: NvCacheConfig,
    tiering: Option<Tiering>,
    mode: Mount,
}

impl NvCacheBuilder {
    pub(crate) fn new(region: NvRegion) -> NvCacheBuilder {
        NvCacheBuilder { region, cfg: NvCacheConfig::default(), tiering: None, mode: Mount::Format }
    }

    /// Mounts over a single inner backend — the paper's deployment: one
    /// tier behind the implicit [`SingleBackend`] router, no file ever moves.
    pub fn backend(self, inner: Arc<dyn FileSystem>) -> Self {
        self.backend_stack(Vec::new(), inner)
    }

    /// Mounts over what `tiering` describes: several inner backends, the
    /// router that places files on them, and how files move between them
    /// afterwards (see [`Tiering`]).
    pub fn tiers(mut self, tiering: Tiering) -> Self {
        self.tiering = Some(tiering);
        self
    }

    /// Mounts over a single inner backend wrapped in a vertical layer stack
    /// (first element outermost — see [`vfs::stack`]), so the tier the
    /// cache drains into can be e.g. `crypt(delay(ssd))`:
    ///
    /// ```
    /// use std::sync::Arc;
    /// use nvcache::{NvCache, NvCacheConfig};
    /// use nvmm::{NvDimm, NvRegion, NvmmProfile};
    /// use simclock::{ActorClock, SimTime};
    /// use vfs::{CryptLayer, DelayLayer, MemFs};
    ///
    /// # fn main() -> Result<(), vfs::IoError> {
    /// let clock = ActorClock::new();
    /// let cfg = NvCacheConfig::tiny();
    /// let dimm = Arc::new(NvDimm::new(cfg.required_nvmm_bytes(), NvmmProfile::optane()));
    /// let cache = NvCache::builder(NvRegion::whole(dimm))
    ///     .backend_stack(
    ///         vec![
    ///             Arc::new(CryptLayer::new(0xFEED)),
    ///             Arc::new(DelayLayer::fixed(SimTime::from_micros(5))),
    ///         ],
    ///         Arc::new(MemFs::new()),
    ///     )
    ///     .config(cfg)
    ///     .mount(&clock)?;
    /// cache.shutdown(&clock);
    /// # Ok(())
    /// # }
    /// ```
    ///
    /// The cleanup, migration and recovery paths work unchanged through any
    /// stack, because a layered backend *is* a plain
    /// [`FileSystem`]. The stack is validated (depth bound) at
    /// [`mount`](NvCacheBuilder::mount).
    pub fn backend_stack(self, layers: Vec<Arc<dyn Layer>>, inner: Arc<dyn FileSystem>) -> Self {
        self.tiers(Tiering::layered(Arc::new(SingleBackend), vec![(layers, inner)]))
    }

    /// Sets the cache configuration (defaults to [`NvCacheConfig::default`]).
    ///
    /// Geometry knobs (`entry_size`, `nb_entries`, `fd_slots`,
    /// `log_shards`) are burned into the NVMM header and must match on a
    /// [`Mount::Recover`]; purely volatile knobs —
    /// [`sq_pairs`](NvCacheConfig::sq_pairs) among them — leave no trace
    /// in the region and may change freely across remounts (the front-end
    /// queues are rebuilt empty; unacknowledged submissions were never
    /// durable by contract).
    pub fn config(mut self, cfg: NvCacheConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Sets the mount mode (defaults to [`Mount::Format`]).
    pub fn mode(mut self, mode: Mount) -> Self {
        self.mode = mode;
        self
    }

    /// Mounts the stack: formats or recovers the region per the configured
    /// [`Mount`] mode and starts the cleanup workers.
    ///
    /// # Errors
    ///
    /// [`IoError::InvalidArgument`] if no backend was supplied, the router's
    /// fan-out exceeds the backend count, the region is too small
    /// ([`Mount::Format`]), or the region's on-NVMM geometry disagrees with
    /// the configuration ([`Mount::Recover`] — including an attempt to mount
    /// a tiered image with fewer backends than it references). Recovery
    /// itself can surface any inner-file-system error.
    ///
    /// # Panics
    ///
    /// Panics if the configuration or the [`Tiering`] is internally
    /// inconsistent ([`NvCacheConfig::validate`]).
    pub fn mount(self, clock: &ActorClock) -> IoResult<NvCache> {
        let NvCacheBuilder { region, cfg, tiering, mode } = self;
        let Some(tiering) = tiering else {
            return Err(IoError::InvalidArgument(
                "NvCacheBuilder needs at least one backend (.backend() or .tiers())".into(),
            ));
        };
        let tiers = Tiers::mount(tiering)?;
        cfg.validate();
        let lay = Layout::for_config(&cfg);
        let backends = tiers.backends.len() as u64;
        let recovered = match mode {
            Mount::Format => {
                format_region(&region, &lay, backends, clock)?;
                None
            }
            // Recovery stamps the grown backend count itself.
            Mount::Recover => {
                let image = Header::read(&region, clock)?;
                image.check(&lay, backends)?;
                let replay = crate::recovery::replay_planned;
                Some(crate::recovery::recover(&region, &image, &tiers, clock, replay)?)
            }
        };
        Ok(NvCache::start(region, tiers, cfg, recovered, clock))
    }
}

/// Writes a fresh log image (header, invalid fd slots, free entries) —
/// the paper's `format` step.
fn format_region(
    region: &NvRegion,
    lay: &Layout,
    backends: u64,
    clock: &ActorClock,
) -> IoResult<()> {
    if region.len() < lay.total_bytes() {
        return Err(IoError::InvalidArgument(format!(
            "region of {} bytes cannot hold the configured log ({} bytes)",
            region.len(),
            lay.total_bytes()
        )));
    }
    Header::format(region, lay, backends, clock);
    region.clear_words_and_pwb(lay.fd_table_base(), FD_SLOT_BYTES, lay.fd_slots, clock);
    lay.clear_entries(region, 0, lay.nb_entries, clock);
    region.psync(clock);
    Ok(())
}
