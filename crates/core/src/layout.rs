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
//! # Header versioning
//!
//! The header is versioned implicitly through two count words, each never
//! written by the formats that predate it — so `0` reads as one:
//!
//! * **v1 (seed format)** — the word at [`OFF_LOG_SHARDS`] is `0`. One
//!   circular log over the whole entry array, with its single persistent
//!   tail at [`OFF_PTAIL`]. A region formatted with `log_shards = 1` is
//!   byte-for-byte identical to the seed format.
//! * **v2 (striped)** — the word at [`OFF_LOG_SHARDS`] holds `N > 1`. The
//!   entry array is split into `N` equal contiguous stripes; stripe `s` owns
//!   entries `[s·(nb_entries/N), (s+1)·(nb_entries/N))` and persists its own
//!   tail at [`OFF_STRIPE_TAILS`]` + 8·s`. Every entry additionally carries a
//!   globally monotonic sequence number ([`ENT_SEQ`]) so recovery can
//!   merge-replay committed entries from all stripes in total order.
//! * **v3 (tiered)** — the word at [`OFF_BACKENDS`] holds `B > 1`: the mount
//!   propagates to `B` inner backends selected by a
//!   [`Router`](crate::Router). The fd slot shape follows from this word
//!   alone. A single-backend slot is the seed's: valid word, then
//!   [`PATH_MAX`] path bytes. A tiered slot is valid word, backend word
//!   ([`FD_BACKEND_OFF`]), [`PATH_MAX_V3`] path bytes ([`FD_PATH_OFF_V3`])
//!   and the heat word ([`FD_HEAT_OFF`]). The backend word lets recovery
//!   replay every pending entry to the backend that acknowledged it — the
//!   router is *not* re-consulted. The heat word is the file's quantized
//!   temperature ([`heat_word`]) on a mount whose placement reads heat, and
//!   zero on every other. A v1/v2 image recovered over several backends
//!   migrates forward: its slots are re-routed by path and the backends
//!   word is stamped afterwards. Orthogonal to v2, and the region does not
//!   grow: the slot is re-partitioned. A tiered slot whose valid word is
//!   [`FD_VALID_MIGRATION`] is a *migration journal* instead of an open
//!   file: it records the authoritative location of a file mid-move between
//!   tiers (see `core/src/migrate.rs`).
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
/// Valid word of an fd slot holding an open file (v1/v2/v3 layouts).
pub const FD_VALID_OPEN: u64 = 1;
/// Valid word of an fd slot used as a **migration journal** (v3 layouts
/// only): the slot's path/backend pair names the *authoritative* copy of a
/// file being moved between tiers. Recovery deletes the path from every
/// other backend and clears the slot — the crash-repair half of the
/// copy → stamp → unlink protocol (`core/src/migrate.rs`). No log entry
/// ever references a journal slot (only closed, fully drained files
/// migrate).
pub const FD_VALID_MIGRATION: u64 = 2;
/// Maximum stored path length (rest of the slot after the valid word,
/// single-backend slot layout).
pub const PATH_MAX: usize = (FD_SLOT_BYTES - 8) as usize;
/// Maximum stored path length in a v3 (tiered) slot: the backend word takes
/// eight bytes off the front of the path area, the heat word eight off its
/// tail.
pub const PATH_MAX_V3: usize = (FD_SLOT_BYTES - 24) as usize;
/// Offset (within a v3 fd slot) of the backend-index word.
pub const FD_BACKEND_OFF: u64 = 8;
/// Offset (within a v3 fd slot) of the packed heat-summary word — the last
/// eight bytes of the slot, after the path.
pub const FD_HEAT_OFF: u64 = FD_SLOT_BYTES - 8;
/// Offset (within an fd slot) of the path bytes, v1/v2 layout.
pub const FD_PATH_OFF: u64 = 8;
/// Offset (within an fd slot) of the path bytes, v3 layout.
pub const FD_PATH_OFF_V3: u64 = 16;
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
/// Number of inner backends of a tiered mount; `0` (v1/v2 formats, which
/// never write this word) means one.
pub const OFF_BACKENDS: u64 = 56;
/// Base of the per-stripe persistent tail array (v2 format only; stripe `s`
/// persists its tail at `OFF_STRIPE_TAILS + 8 * s`).
pub const OFF_STRIPE_TAILS: u64 = 64;
/// Format epoch packed into every slot heat word ([`heat_word`]), so a word
/// the current format did not write — path bytes of an image formatted
/// before slots carried heat — is never misread as temperature.
pub const HEAT_EPOCH: u64 = 1;

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
    /// Inner backends of the mount (1 = v1/v2 single-backend fd slots,
    /// `B > 1` = v3 slots carrying a backend and a heat word).
    pub backends: u64,
}

impl Layout {
    /// Layout for a configuration over one backend — the region's size and
    /// every offset but the fd slots' partitioning, which follows from the
    /// mount's backend count.
    pub fn for_config(cfg: &NvCacheConfig) -> Layout {
        Layout {
            nb_entries: cfg.nb_entries,
            entry_size: cfg.entry_size as u64,
            fd_slots: cfg.fd_slots as u64,
            log_shards: cfg.log_shards as u64,
            backends: 1,
        }
    }

    /// Whether fd slots use the v3 (tiered) partitioning.
    pub fn tiered(&self) -> bool {
        self.backends > 1
    }

    /// Offset of the path bytes within an fd slot.
    pub fn fd_path_off(&self) -> u64 {
        if self.tiered() {
            FD_PATH_OFF_V3
        } else {
            FD_PATH_OFF
        }
    }

    /// Maximum storable path length for this layout's fd slots.
    pub fn path_max(&self) -> usize {
        if self.tiered() {
            PATH_MAX_V3
        } else {
            PATH_MAX
        }
    }

    /// Whether an fd slot of this layout can hold `path` (normalized).
    ///
    /// # Errors
    ///
    /// [`IoError::InvalidArgument`], naming the limit.
    pub fn check_path(&self, path: &str) -> IoResult<()> {
        if path.len() <= self.path_max() {
            return Ok(());
        }
        Err(IoError::InvalidArgument(format!(
            "{path}: path exceeds the {} bytes an fd slot of this mount holds",
            self.path_max()
        )))
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

/// The region header as [`Header::read`] decodes it: the geometry and fd-slot
/// shape the image was written under, and the single-stripe tail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Header {
    /// The image's geometry; `backends` is the count its fd slots were
    /// written under.
    pub layout: Layout,
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
                backends: word(OFF_BACKENDS).max(1),
            },
            ptail: word(OFF_PTAIL),
        })
    }

    /// Whether a mount laid out as `mount` may recover this image: the same
    /// geometry, and at least the backends the image's fd slots may
    /// reference. The count may grow across a recovery (a v2 → v3
    /// migration, or tiers added); it may never shrink.
    ///
    /// # Errors
    ///
    /// [`IoError::InvalidArgument`] naming the disagreement.
    pub fn check(&self, mount: &Layout) -> IoResult<()> {
        if (Layout { backends: mount.backends, ..self.layout }) != *mount {
            return Err(IoError::InvalidArgument(
                "configuration disagrees with the on-NVMM log geometry".into(),
            ));
        }
        if self.layout.backends > mount.backends {
            return Err(IoError::InvalidArgument(format!(
                "region references {} backends but the mount provides only {}",
                self.layout.backends, mount.backends
            )));
        }
        Ok(())
    }

    /// Writes the header of a fresh image of `lay` and flushes it; the caller
    /// fences. A single-stripe, single-backend header is the seed's byte for
    /// byte: the count words it never wrote are written `0`, which also
    /// clears a stale count when a region is reformatted.
    pub fn format(region: &NvRegion, lay: &Layout, clock: &ActorClock) {
        region.write_u64(OFF_MAGIC, MAGIC, clock);
        region.write_u64(OFF_ENTRY_SIZE, lay.entry_size, clock);
        region.write_u64(OFF_NB_ENTRIES, lay.nb_entries, clock);
        region.write_u64(OFF_PTAIL, 0, clock);
        region.write_u64(OFF_FD_SLOTS, lay.fd_slots, clock);
        region.write_u64(OFF_PAGE_SIZE, crate::config::PAGE_SIZE as u64, clock);
        region.write_u64(OFF_LOG_SHARDS, count_word(lay.log_shards), clock);
        // v2: one persistent tail per stripe.
        let tails = if lay.log_shards > 1 { lay.log_shards } else { 0 };
        for s in 0..tails {
            region.write_u64(OFF_STRIPE_TAILS + 8 * s, 0, clock);
        }
        region.write_u64(OFF_BACKENDS, count_word(lay.backends), clock);
        // Flush only the written prefix: the rest of the header is
        // never-stored padding, and flushing clean lines is pure overhead
        // (the pmcheck redundant-pwb lint flags it).
        region.pwb(0, (OFF_STRIPE_TAILS + 8 * tails) as usize);
    }

    /// Stamps the mount's backend count into a recovered image, fenced — the
    /// one upgrade step: a v1/v2 image recovered over several backends is v3
    /// from here on. Only once every fd slot written under the old shape is
    /// cleared, so no slot is ever parsed under the wrong one.
    pub fn upgrade(region: &NvRegion, backends: u64, clock: &ActorClock) {
        region.commit_store(OFF_BACKENDS, count_word(backends), clock);
        region.persist_fence(clock);
    }
}

/// A count word of the header: `0` encodes one, the value the formats that
/// predate the word read back.
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

/// Packs a quantized heat summary into a slot heat word: the current
/// [`HEAT_EPOCH`] in bits 16..32 and the quantized heat in bits 0..16. A
/// packed word is therefore never `0` even for stone-cold files, which is
/// how a written summary is told apart from a never-written (zeroed) one.
pub fn heat_word(qheat: u16) -> u64 {
    (HEAT_EPOCH & 0xFFFF) << 16 | qheat as u64
}

/// Unpacks a slot heat word written by [`heat_word`]. Returns `None` when
/// the word was never written (`0`) or carries an unknown epoch — both mean
/// "no usable summary, treat as cold".
pub fn parse_heat_word(w: u64) -> Option<u16> {
    if (w >> 16) & 0xFFFF == HEAT_EPOCH {
        Some((w & 0xFFFF) as u16)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use nvmm::{NvDimm, NvmmProfile};

    use super::*;

    fn layout() -> Layout {
        Layout { nb_entries: 8, entry_size: 128, fd_slots: 4, log_shards: 1, backends: 1 }
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
        // Per-stripe tails live in the v2 header array...
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
    fn tiered_slots_repartition_but_do_not_grow() {
        let legacy = layout();
        let tiered = Layout { backends: 3, ..layout() };
        assert!(!legacy.tiered());
        assert!(tiered.tiered());
        // Same slot size and total footprint: only the interior moves.
        assert_eq!(legacy.total_bytes(), tiered.total_bytes());
        assert_eq!(legacy.fd_path_off(), FD_PATH_OFF);
        assert_eq!(tiered.fd_path_off(), FD_PATH_OFF_V3);
        assert_eq!(legacy.path_max(), PATH_MAX);
        assert_eq!(tiered.path_max(), PATH_MAX_V3);
    }

    #[test]
    fn both_slot_shapes_tile_256_bytes() {
        // Single backend: valid word + 248 path bytes.
        let flat = layout();
        assert_eq!(flat.path_max(), 248);
        assert_eq!(8 + flat.path_max() as u64, FD_SLOT_BYTES);
        assert_eq!(flat.fd_path_off(), 8);
        // Tiered: valid word + backend word + 232 path bytes + heat word.
        let tiered = Layout { backends: 2, ..layout() };
        assert_eq!(tiered.path_max(), 232);
        assert_eq!(tiered.fd_path_off(), FD_BACKEND_OFF + 8);
        assert_eq!(tiered.fd_path_off() + tiered.path_max() as u64, FD_HEAT_OFF);
        assert_eq!(FD_HEAT_OFF + 8, FD_SLOT_BYTES);
    }

    fn region(lay: &Layout) -> (ActorClock, NvRegion) {
        let dimm = NvDimm::new(lay.total_bytes(), NvmmProfile::instant());
        (ActorClock::new(), NvRegion::whole(Arc::new(dimm)))
    }

    #[test]
    fn the_header_round_trips_every_shape() {
        for (log_shards, backends) in [(1, 1), (4, 1), (1, 3), (4, 3)] {
            let lay = Layout { log_shards, backends, ..layout() };
            let (clock, region) = region(&lay);
            Header::format(&region, &lay, &clock);
            assert_eq!(Header::read(&region, &clock).unwrap(), Header { layout: lay, ptail: 0 });
            assert_eq!(region.read_u64(OFF_PAGE_SIZE), 4096);
            // One stripe, one backend: the count words stay at the seed's 0.
            assert_eq!(region.read_u64(OFF_LOG_SHARDS) == 0, log_shards == 1);
            assert_eq!(region.read_u64(OFF_BACKENDS) == 0, backends == 1);
        }
    }

    #[test]
    fn heat_word_round_trips_and_rejects_foreign_epochs() {
        assert_eq!(parse_heat_word(heat_word(0)), Some(0));
        assert_eq!(parse_heat_word(heat_word(12345)), Some(12345));
        assert_eq!(parse_heat_word(heat_word(u16::MAX)), Some(u16::MAX));
        // A written summary is never the all-zero word, even when cold.
        assert_ne!(heat_word(0), 0);
        // Never-written slots and unknown epochs both read as "no summary".
        assert_eq!(parse_heat_word(0), None);
        assert_eq!(parse_heat_word((HEAT_EPOCH + 1) << 16 | 7), None);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn stripe_bounds_checked() {
        Layout { log_shards: 2, ..layout() }.stripe_slot(2, 0);
    }
}
