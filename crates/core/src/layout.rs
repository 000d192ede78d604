//! The persistent layout of the NVCache NVMM region.
//!
//! Everything is addressed by explicit byte offsets in little-endian encoding
//! — no struct casts, keeping the crate 100% safe Rust while staying faithful
//! to the paper's layout (Algorithm 1): a header, the fd→path table used only
//! by recovery, and the circular array of fixed-size entries.
//!
//! ```text
//! +-----------+----------------------+--------------------------------+
//! |  header   |  fd table            |  entries                       |
//! |  (4 KiB)  |  fd_slots x 256 B    |  nb_entries x (64 B + entry)   |
//! +-----------+----------------------+--------------------------------+
//! ```
//!
//! # Header count words
//!
//! The header carries two count words, each never written by the seed
//! format — so `0` reads as one, and a single-stripe, single-backend header
//! is the seed's byte for byte:
//!
//! * [`OFF_LOG_SHARDS`] — log stripes. With `N > 1` the entry array is
//!   split into `N` equal contiguous stripes; stripe `s` owns entries
//!   `[s·(nb_entries/N), (s+1)·(nb_entries/N))` and persists its own tail at
//!   [`OFF_STRIPE_TAILS`]` + 8·s` (one stripe keeps the seed's tail at
//!   [`OFF_PTAIL`]). Every entry carries a globally monotonic sequence
//!   number ([`ENT_SEQ`]) so recovery can merge-replay committed entries
//!   from all stripes in total order.
//! * [`OFF_BACKENDS`] — inner backends of the mount, selected by a
//!   [`Router`](crate::Router). A mount may recover an image over more
//!   backends than it was written under, never fewer.
//!
//! # The fd slot
//!
//! Every fd slot has one shape:
//!
//! ```text
//! +---------+--------------------------+------------+---------+
//! | valid   | path, NUL-padded         | backend    | heat    |
//! | u64 @0  | PATH_MAX = 232 B @8      | u64 @240   | u64 @248|
//! +---------+--------------------------+------------+---------+
//! ```
//!
//! The backend word lets recovery replay every pending entry to the
//! backend that acknowledged it — the router is *not* re-consulted. The
//! heat word is the file's quantized temperature on a mount whose placement
//! reads heat, and `0` (cold) on every other. On a single-backend mount both
//! words are `0` and land where the seed slot had path padding, so a slot
//! holding a path of at most [`PATH_MAX`] bytes is the seed's byte for byte.
//! A slot whose valid word is [`FD_VALID_MIGRATION`] is a *migration
//! journal* instead of an open file: it records the authoritative location
//! of a file mid-move between tiers (see `core/src/migrate.rs`).
//!
//! `Header` is the only code that reads or writes the header's geometry
//! and count words: one charged read at recovery, the fresh image at
//! format, and the backends stamp that upgrades a recovered image.
//!
//! Entry commit words (offset 0 of each entry header) encode the paper's
//! packed commit-flag/group-index integer:
//!
//! * `0` — free or not yet committed;
//! * `COMMIT_LEADER` (1) — committed; first (or only) entry of a write;
//! * `MEMBER_BIT | leader_slot` — continuation entry of a multi-entry write;
//!   valid iff its leader is committed.

use nvmm::{NvRegion, PmemInts};
use simclock::ActorClock;
use vfs::{IoError, IoResult};

use crate::NvCacheConfig;

/// Size of the region header.
pub const HEADER_BYTES: u64 = 4096;
/// Bytes per persistent fd slot.
pub const FD_SLOT_BYTES: u64 = 256;
/// Valid word of an fd slot holding an open file.
pub const FD_VALID_OPEN: u64 = 1;
/// Valid word of an fd slot used as a **migration journal**: the slot's
/// path/backend pair names the *authoritative* copy of a
/// file being moved between tiers. Recovery deletes the path from every
/// other backend and clears the slot — the crash-repair half of the
/// copy → stamp → unlink protocol (`core/src/migrate.rs`). No log entry
/// ever references a journal slot (only closed, fully drained files
/// migrate).
pub const FD_VALID_MIGRATION: u64 = 2;
/// Maximum stored path length: the slot between the valid word and the
/// backend word.
pub const PATH_MAX: usize = (FD_BACKEND_OFF - FD_PATH_OFF) as usize;
/// Offset (within an fd slot) of the NUL-padded path bytes.
pub const FD_PATH_OFF: u64 = 8;
/// Offset (within an fd slot) of the backend-index word.
pub const FD_BACKEND_OFF: u64 = 240;
/// Offset (within an fd slot) of the quantized heat word — the last eight
/// bytes of the slot.
pub const FD_HEAT_OFF: u64 = 248;
/// Bytes of each entry header.
pub const ENTRY_HEADER_BYTES: u64 = 64;

/// Magic value identifying a formatted region ("NVCACHE1").
pub const MAGIC: u64 = u64::from_le_bytes(*b"NVCACHE1");

/// Commit word of a committed leader entry.
pub const COMMIT_LEADER: u64 = 1;
/// Tag bit marking a group-member commit word.
pub const MEMBER_BIT: u64 = 1 << 63;

// Header field offsets.
pub const OFF_MAGIC: u64 = 0;
pub const OFF_ENTRY_SIZE: u64 = 8;
pub const OFF_NB_ENTRIES: u64 = 16;
pub const OFF_PTAIL: u64 = 24;
pub const OFF_FD_SLOTS: u64 = 32;
pub const OFF_PAGE_SIZE: u64 = 40;
/// Number of log stripes; `0` (the seed format, which never writes this
/// word) means one.
pub const OFF_LOG_SHARDS: u64 = 48;
/// Number of inner backends of the mount; `0` (the seed format, which never
/// writes this word) means one.
pub const OFF_BACKENDS: u64 = 56;
/// Base of the per-stripe persistent tail array (striped logs only; stripe
/// `s` persists its tail at `OFF_STRIPE_TAILS + 8 * s`).
pub const OFF_STRIPE_TAILS: u64 = 64;

/// Upper bound on `log_shards` (the per-stripe tail array must fit in the
/// 4 KiB header with room to spare).
pub const MAX_LOG_SHARDS: usize = 64;

/// Upper bound on the backend count of a tiered mount (the index must fit
/// comfortably in the fd slot's backend word; 64 matches the stripe bound).
pub const MAX_BACKENDS: usize = 64;

// Entry header field offsets (relative to the entry base).
pub const ENT_COMMIT: u64 = 0;
pub const ENT_FD: u64 = 8;
pub const ENT_LEN: u64 = 12;
pub const ENT_FILE_OFF: u64 = 16;
pub const ENT_GROUP_LEN: u64 = 24;
pub const ENT_SEQ: u64 = 32;

/// Resolved byte offsets for one configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Layout {
    /// Entries in the circular log (all stripes together).
    pub nb_entries: u64,
    /// Data bytes per entry.
    pub entry_size: u64,
    /// Persistent fd slots.
    pub fd_slots: u64,
    /// Log stripes the entry array is split into (1 = seed format).
    pub log_shards: u64,
}

impl Layout {
    /// The layout of a configuration: the region's size and every offset.
    pub fn for_config(cfg: &NvCacheConfig) -> Layout {
        Layout {
            nb_entries: cfg.nb_entries,
            entry_size: cfg.entry_size as u64,
            fd_slots: cfg.fd_slots as u64,
            log_shards: cfg.log_shards as u64,
        }
    }

    /// Start of the fd table.
    pub fn fd_table_base(&self) -> u64 {
        HEADER_BYTES
    }

    /// Offset of fd slot `slot`.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range.
    pub fn fd_slot(&self, slot: u32) -> u64 {
        assert!((slot as u64) < self.fd_slots, "fd slot {slot} out of range");
        self.fd_table_base() + slot as u64 * FD_SLOT_BYTES
    }

    /// Start of the entry array.
    pub fn entries_base(&self) -> u64 {
        self.fd_table_base() + self.fd_slots * FD_SLOT_BYTES
    }

    /// Stride between consecutive entries.
    pub fn entry_stride(&self) -> u64 {
        ENTRY_HEADER_BYTES + self.entry_size
    }

    /// Base offset of the entry in `slot` (a *slot*, i.e. a sequence number
    /// already reduced modulo `nb_entries`).
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range.
    pub fn entry(&self, slot: u64) -> u64 {
        assert!(slot < self.nb_entries, "entry slot {slot} out of range");
        self.entries_base() + slot * self.entry_stride()
    }

    /// Slot index for a monotonically increasing sequence number.
    pub fn slot_of(&self, seq: u64) -> u64 {
        seq % self.nb_entries
    }

    /// Entries owned by each stripe.
    pub fn stripe_entries(&self) -> u64 {
        self.nb_entries / self.log_shards.max(1)
    }

    /// Global entry slot of stripe-local sequence number `local_seq` in
    /// stripe `stripe`.
    ///
    /// # Panics
    ///
    /// Panics if `stripe` is out of range.
    pub fn stripe_slot(&self, stripe: u64, local_seq: u64) -> u64 {
        assert!(stripe < self.log_shards.max(1), "stripe {stripe} out of range");
        stripe * self.stripe_entries() + local_seq % self.stripe_entries()
    }

    /// Header offset of the persistent tail of `stripe` ([`OFF_PTAIL`] for a
    /// single-stripe log, so the seed format is unchanged).
    pub fn stripe_tail_off(&self, stripe: u64) -> u64 {
        if self.log_shards <= 1 {
            OFF_PTAIL
        } else {
            OFF_STRIPE_TAILS + 8 * stripe
        }
    }

    /// Offset of the data area of the entry in `slot`.
    pub fn entry_data(&self, slot: u64) -> u64 {
        self.entry(slot) + ENTRY_HEADER_BYTES
    }

    /// Total NVMM bytes required.
    pub fn total_bytes(&self) -> u64 {
        self.entries_base() + self.nb_entries * self.entry_stride()
    }
}

/// Whether an fd slot can hold `path` (normalized).
///
/// # Errors
///
/// [`IoError::InvalidArgument`], naming the limit.
pub fn check_path(path: &str) -> IoResult<()> {
    if path.len() <= PATH_MAX {
        return Ok(());
    }
    Err(IoError::InvalidArgument(format!(
        "{path}: path exceeds the {PATH_MAX} bytes an fd slot holds"
    )))
}

/// The region header as [`Header::read`] decodes it: the geometry and
/// backend count the image was written under, and the single-stripe tail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Header {
    /// The image's geometry.
    pub layout: Layout,
    /// Backends the image's fd slots may reference.
    pub backends: u64,
    /// Persistent tail of a single-stripe log ([`OFF_PTAIL`]).
    pub ptail: u64,
}

impl Header {
    /// Reads the header back by one charged 64-byte read (recovery runs with
    /// cold caches). The magic is checked first; the count words read `0` as
    /// one.
    ///
    /// # Errors
    ///
    /// [`IoError::InvalidArgument`] if the region is not a formatted log.
    pub fn read(region: &NvRegion, clock: &ActorClock) -> IoResult<Header> {
        let mut bytes = [0u8; 64];
        region.read(0, &mut bytes, clock);
        let word = |off: u64| word_at(&bytes, off as usize);
        if word(OFF_MAGIC) != MAGIC {
            return Err(IoError::InvalidArgument(
                "NVMM region is not a formatted NVCache log".into(),
            ));
        }
        Ok(Header {
            layout: Layout {
                nb_entries: word(OFF_NB_ENTRIES),
                entry_size: word(OFF_ENTRY_SIZE),
                fd_slots: word(OFF_FD_SLOTS),
                log_shards: word(OFF_LOG_SHARDS).max(1),
            },
            backends: word(OFF_BACKENDS).max(1),
            ptail: word(OFF_PTAIL),
        })
    }

    /// Whether a mount laid out as `mount` over `backends` backends may
    /// recover this image: the same geometry, and at least the backends the
    /// image's fd slots may reference. The count may grow across a recovery
    /// (tiers added); it may never shrink.
    ///
    /// # Errors
    ///
    /// [`IoError::InvalidArgument`] naming the disagreement.
    pub fn check(&self, mount: &Layout, backends: u64) -> IoResult<()> {
        if self.layout != *mount {
            return Err(IoError::InvalidArgument(
                "configuration disagrees with the on-NVMM log geometry".into(),
            ));
        }
        if self.backends > backends {
            return Err(IoError::InvalidArgument(format!(
                "region references {} backends but the mount provides only {backends}",
                self.backends
            )));
        }
        Ok(())
    }

    /// Writes the header of a fresh image of `lay` over `backends` backends
    /// and flushes it; the caller fences. A single-stripe, single-backend
    /// header is the seed's byte for byte: the count words it never wrote
    /// are written `0`, which also clears a stale count when a region is
    /// reformatted.
    pub fn format(region: &NvRegion, lay: &Layout, backends: u64, clock: &ActorClock) {
        region.write_u64(OFF_MAGIC, MAGIC, clock);
        region.write_u64(OFF_ENTRY_SIZE, lay.entry_size, clock);
        region.write_u64(OFF_NB_ENTRIES, lay.nb_entries, clock);
        region.write_u64(OFF_PTAIL, 0, clock);
        region.write_u64(OFF_FD_SLOTS, lay.fd_slots, clock);
        region.write_u64(OFF_PAGE_SIZE, crate::config::PAGE_SIZE as u64, clock);
        region.write_u64(OFF_LOG_SHARDS, count_word(lay.log_shards), clock);
        // One persistent tail per stripe.
        let tails = if lay.log_shards > 1 { lay.log_shards } else { 0 };
        for s in 0..tails {
            region.write_u64(OFF_STRIPE_TAILS + 8 * s, 0, clock);
        }
        region.write_u64(OFF_BACKENDS, count_word(backends), clock);
        // Flush only the written prefix: the rest of the header is
        // never-stored padding, and flushing clean lines is pure overhead
        // (the pmcheck redundant-pwb lint flags it).
        region.pwb(0, (OFF_STRIPE_TAILS + 8 * tails) as usize);
    }

    /// Stamps the mount's backend count into a recovered image, fenced: an
    /// image recovered over more backends than it was written under records
    /// the grown count, so it can never again be mounted over fewer.
    pub fn upgrade(region: &NvRegion, backends: u64, clock: &ActorClock) {
        region.commit_store(OFF_BACKENDS, count_word(backends), clock);
        region.persist_fence(clock);
    }
}

/// A count word of the header: `0` encodes one, the value the seed format
/// (which never writes the word) reads back.
fn count_word(n: u64) -> u64 {
    if n > 1 {
        n
    } else {
        0
    }
}

/// The little-endian word at byte `at` of `bytes`.
pub(crate) fn word_at(bytes: &[u8], at: usize) -> u64 {
    let mut word = [0u8; 8];
    word.copy_from_slice(&bytes[at..at + 8]);
    u64::from_le_bytes(word)
}

/// Encodes a member commit word pointing at `leader_slot`.
pub fn member_commit_word(leader_slot: u64) -> u64 {
    MEMBER_BIT | leader_slot
}

/// Decodes a commit word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommitWord {
    /// Free slot or not-yet-committed entry.
    Free,
    /// Committed leader (single entry or head of a group).
    Leader,
    /// Member of the group led by the given slot.
    Member(u64),
}

/// Parses an entry commit word.
pub fn parse_commit_word(w: u64) -> CommitWord {
    if w == 0 {
        CommitWord::Free
    } else if w & MEMBER_BIT != 0 {
        CommitWord::Member(w & !MEMBER_BIT)
    } else {
        CommitWord::Leader
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use nvmm::{NvDimm, NvmmProfile};

    use super::*;

    fn layout() -> Layout {
        Layout { nb_entries: 8, entry_size: 128, fd_slots: 4, log_shards: 1 }
    }

    #[test]
    fn regions_do_not_overlap() {
        let l = layout();
        assert_eq!(l.fd_table_base(), 4096);
        assert_eq!(l.entries_base(), 4096 + 4 * 256);
        assert_eq!(l.entry(0), l.entries_base());
        assert_eq!(l.entry(1) - l.entry(0), 64 + 128);
        assert_eq!(l.total_bytes(), l.entry(7) + l.entry_stride());
    }

    #[test]
    fn slots_wrap() {
        let l = layout();
        assert_eq!(l.slot_of(0), 0);
        assert_eq!(l.slot_of(8), 0);
        assert_eq!(l.slot_of(13), 5);
    }

    #[test]
    fn commit_word_round_trip() {
        assert_eq!(parse_commit_word(0), CommitWord::Free);
        assert_eq!(parse_commit_word(COMMIT_LEADER), CommitWord::Leader);
        assert_eq!(parse_commit_word(member_commit_word(5)), CommitWord::Member(5));
    }

    #[test]
    fn magic_is_ascii() {
        assert_eq!(&MAGIC.to_le_bytes(), b"NVCACHE1");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn entry_bounds_checked() {
        layout().entry(8);
    }

    #[test]
    fn stripes_partition_the_entry_array() {
        let l = Layout { log_shards: 4, ..layout() };
        assert_eq!(l.stripe_entries(), 2);
        // Stripe s owns the contiguous slots [2s, 2s+2), local seqs wrap
        // within the stripe's own window.
        assert_eq!(l.stripe_slot(0, 0), 0);
        assert_eq!(l.stripe_slot(0, 3), 1);
        assert_eq!(l.stripe_slot(3, 0), 6);
        assert_eq!(l.stripe_slot(3, 5), 7);
        // Per-stripe tails live in the header's tail array...
        assert_eq!(l.stripe_tail_off(0), OFF_STRIPE_TAILS);
        assert_eq!(l.stripe_tail_off(3), OFF_STRIPE_TAILS + 24);
        // ...while a single-stripe log keeps the seed's tail word.
        assert_eq!(layout().stripe_tail_off(0), OFF_PTAIL);
    }

    #[test]
    fn stripe_tail_array_fits_the_header() {
        assert!(OFF_STRIPE_TAILS + 8 * MAX_LOG_SHARDS as u64 <= HEADER_BYTES);
    }

    #[test]
    fn backend_word_does_not_collide_with_other_header_fields() {
        const { assert!(OFF_BACKENDS > OFF_LOG_SHARDS) }
        const { assert!(OFF_BACKENDS < OFF_STRIPE_TAILS) }
    }

    #[test]
    fn the_fd_slot_tiles_256_bytes() {
        // Valid word + 232 path bytes + backend word + heat word.
        assert_eq!(PATH_MAX, 232);
        assert_eq!(FD_PATH_OFF, 8);
        assert_eq!(FD_PATH_OFF + PATH_MAX as u64, FD_BACKEND_OFF);
        assert_eq!(FD_BACKEND_OFF, 240);
        assert_eq!(FD_HEAT_OFF, FD_BACKEND_OFF + 8);
        assert_eq!(FD_HEAT_OFF + 8, FD_SLOT_BYTES);
    }

    fn region(lay: &Layout) -> (ActorClock, NvRegion) {
        let dimm = NvDimm::new(lay.total_bytes(), NvmmProfile::instant());
        (ActorClock::new(), NvRegion::whole(Arc::new(dimm)))
    }

    #[test]
    fn tiered_slots_repartition_but_do_not_grow() {
        // Growing an image from one backend to three rewrites only the
        // header's backends word: the geometry, the footprint and the slot
        // stride stay as formatted.
        let lay = layout();
        let (clock, region) = region(&lay);
        Header::format(&region, &lay, 1, &clock);
        // The fence a mount's format ends with: the stamp is a commit store,
        // ordered after a durable header.
        region.psync(&clock);
        let flat = Header::read(&region, &clock).unwrap();
        Header::upgrade(&region, 3, &clock);
        let tiered = Header::read(&region, &clock).unwrap();
        assert_eq!((flat.backends, tiered.backends), (1, 3));
        assert_eq!(flat.layout, tiered.layout);
        assert_eq!(flat.layout.total_bytes(), tiered.layout.total_bytes());
        assert_eq!(tiered.layout.fd_slot(1) - tiered.layout.fd_slot(0), FD_SLOT_BYTES);
        assert_eq!(tiered.layout.entries_base(), HEADER_BYTES + 4 * FD_SLOT_BYTES);
        assert!(tiered.check(&lay, 3).is_ok());
        assert!(tiered.check(&lay, 2).is_err());
    }

    #[test]
    fn the_header_round_trips_every_shape() {
        for (log_shards, backends) in [(1, 1), (4, 1), (1, 3), (4, 3)] {
            let lay = Layout { log_shards, ..layout() };
            let (clock, region) = region(&lay);
            Header::format(&region, &lay, backends, &clock);
            let header = Header::read(&region, &clock).unwrap();
            assert_eq!(header, Header { layout: lay, backends, ptail: 0 });
            assert_eq!(region.read_u64(OFF_PAGE_SIZE), 4096);
            // One stripe, one backend: the count words stay at the seed's 0.
            assert_eq!(region.read_u64(OFF_LOG_SHARDS) == 0, log_shards == 1);
            assert_eq!(region.read_u64(OFF_BACKENDS) == 0, backends == 1);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn stripe_bounds_checked() {
        Layout { log_shards: 2, ..layout() }.stripe_slot(2, 0);
    }
}
