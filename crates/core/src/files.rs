//! File bookkeeping: the volatile per-file and per-descriptor structures
//! (paper §III "Open") plus [`PersistentFdTable`], the NVMM table mapping
//! fd slots to paths and to the backend that owns each file, so recovery
//! can reopen the files referenced by pending log entries on the right
//! inner file system.

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use nvmm::NvRegion;
use parking_lot::{Mutex, RwLock};
use simclock::ActorClock;

use crate::layout::{
    word_at, Layout, FD_BACKEND_OFF, FD_HEAT_OFF, FD_PATH_OFF, FD_SLOT_BYTES, PATH_MAX,
};
use crate::placement::Temperature;
use crate::Radix;

/// Volatile per-file state: the *file table* entry of paper §III "Open",
/// keyed by `(device, inode)` so that two opens of the same file share the
/// size, the radix tree and the page descriptors.
#[derive(Debug)]
pub(crate) struct FileState {
    /// Process-unique id (tags page descriptors for pool purging).
    pub file_id: u64,
    /// Identity on the inner file system.
    pub dev_ino: (u64, u64),
    /// The path the file was first opened under. Path-based calls (`stat`,
    /// `unlink`, `rename`) consult it to find the *recorded* backend of an
    /// open file before falling back to policy routing; recovery still reads
    /// paths from the persistent fd table, not from here. A rename while the
    /// file is open leaves it stale, so it may *suggest* a file and never
    /// identify one: `unlink` confirms its victim by `dev_ino`.
    pub path: String,
    /// Set once the inner `unlink` of this file succeeded: it has no name
    /// any more, answers no path-keyed query, is gone from the file table
    /// and from the persistent fd table, and is never catalogued.
    pub unlinked: AtomicBool,
    /// Unlinked *and* no descriptor left un-closed: nothing can read the
    /// file again, so the drain drops its entries and its inner descriptors
    /// are released (see `Shared::bury_if_dead`). Set exactly once.
    pub dead: AtomicBool,
    /// NVCache's own view of the file size — the kernel's may be stale while
    /// appends sit in the log (paper §II-C).
    pub size: AtomicU64,
    /// Intercepted reads against this file (access heat for the tier
    /// migrator; carried across close/reopen through the migrator catalog).
    pub reads: AtomicU64,
    /// Intercepted writes against this file (access heat, as above).
    pub writes: AtomicU64,
    /// Exponentially decaying access temperature (drives the
    /// [`HeatPolicy`](crate::HeatPolicy) placement): every intercepted
    /// read/write decays the stored heat to the touching call's virtual
    /// clock and adds one. A mutex, not atomics — decay folds two fields
    /// (value + stamp) and the surrounding I/O path already serializes on
    /// page locks.
    pub temperature: Mutex<Temperature>,
    /// Read-cache index; created on the first writable open. Files never
    /// opened for writing have no tree and bypass the read cache entirely.
    pub radix: OnceLock<Radix>,
    /// Opens currently referencing this file.
    pub open_count: AtomicU32,
    /// Fd slots of the descriptors — open, closing or draining — on this
    /// file, in no order (a leaf lock: nothing is taken while it is held).
    pub slots: Mutex<Vec<u32>>,
    /// Writable descriptors whose `close` has not finished pushing into the
    /// kernel, counted from `open`. At zero the kernel's copy is current.
    pub writers: AtomicU32,
    /// Entries of this file with a global sequence below the mark are in
    /// the kernel already (a `close` pushed them): the cleanup workers
    /// consume them without a write. Set under [`push_lock`] before the
    /// push writes, with the cleanup lock of every page it writes held.
    ///
    /// [`push_lock`]: FileState::push_lock
    pub pushed_below: AtomicU64,
    /// Serializes the pushes of `close` and `rename` on this file.
    pub push_lock: Mutex<()>,
}

/// Volatile per-descriptor state: the *opened table* entry of paper §III,
/// holding a pointer to the file structure. The cursor of the paper's entry
/// is [`vfs::CursorFile`]'s: every call here is positional, and `fstat`
/// answers NVCache's own size, which is all `O_APPEND` and `SEEK_END` need.
#[derive(Debug)]
pub(crate) struct OpenedFile {
    /// Persistent fd-table slot; doubles as the public descriptor number.
    pub slot: u32,
    /// Flags the file was opened with.
    pub flags: vfs::OpenFlags,
    /// The shared file structure.
    pub file: Arc<FileState>,
    /// Index of the inner backend the router placed this file on (`0` on a
    /// single-backend mount). The cleanup workers, read misses and recovery
    /// all resolve the inner file system through this — never by re-routing.
    pub backend: u32,
    /// Descriptor on the inner (kernel) file system, used by the cleanup
    /// workers, the kernel flush and read misses — each holds the lock
    /// shared across its inner call (`Shared::hold_inner`). `None` once
    /// released (`Shared::release_inner`): at `finish_close`, or as soon as
    /// the file is dead — a worker that finds `None` drops the entry instead
    /// of writing it.
    pub inner: RwLock<Option<vfs::Fd>>,
    /// Set once `close` begins; new calls on the descriptor then fail while
    /// close waits for in-flight calls to drain.
    pub closing: AtomicBool,
    /// Intercepted calls and queued submissions currently using this
    /// descriptor — live [`InFlight`] guards; `close` waits for zero.
    pub in_flight: AtomicU32,
}

/// An open descriptor with one in-flight use counted on it, released on
/// drop. The synchronous calls hold one for their duration; a queued
/// submission carries one until it completes, is discarded, or unwinds — so
/// `close` can never be left waiting on a count nobody will give back.
#[derive(Debug)]
pub(crate) struct InFlight(Arc<OpenedFile>);

impl InFlight {
    /// Counts one use of `opened`, or `None` if its `close` has begun.
    pub fn enter(opened: Arc<OpenedFile>) -> Option<InFlight> {
        opened.in_flight.fetch_add(1, Ordering::AcqRel);
        let guard = InFlight(opened);
        // Re-check after publication so close() can wait for quiescence.
        (!guard.closing.load(Ordering::Acquire)).then_some(guard)
    }
}

impl std::ops::Deref for InFlight {
    type Target = Arc<OpenedFile>;
    fn deref(&self) -> &Arc<OpenedFile> {
        &self.0
    }
}

impl Drop for InFlight {
    fn drop(&mut self) {
        self.0.in_flight.fetch_sub(1, Ordering::AcqRel);
    }
}

/// The free persistent fd-table slots, as a stack: the most recently
/// released slot is handed out next, and a fresh allocator yields `0, 1, 2,
/// …` — descriptor numbers, and so every byte oracle, follow from that
/// order. A leaf lock: nothing is taken while it is held.
#[derive(Debug)]
pub(crate) struct FdSlotAllocator(Mutex<Vec<u32>>);

impl FdSlotAllocator {
    /// An allocator over slots `0..n`, all free.
    pub fn new(n: u32) -> Self {
        FdSlotAllocator(Mutex::new((0..n).rev().collect()))
    }

    /// Pops a free slot, or `None` when the table is exhausted.
    pub fn acquire(&self) -> Option<u32> {
        self.0.lock().pop()
    }

    /// Pushes `slot` back onto the free stack.
    pub fn release(&self, slot: u32) {
        self.0.lock().push(slot);
    }

    /// Currently free slots.
    pub fn free_count(&self) -> u32 {
        self.0.lock().len() as u32
    }
}

/// Accessors for the persistent fd table (paper §II-B: "NVCache stores in
/// NVMM a table that associates the file path to each file descriptor, in
/// order to retrieve the state after a crash"). Each slot also records the
/// backend index, so a crash cannot silently re-route a file's pending
/// writes to a different tier, and ends in the file's heat word.
pub(crate) struct PersistentFdTable;

/// A valid fd slot as [`PersistentFdTable::get`] reads it back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct FdSlot {
    pub path: String,
    /// Backend holding the file (`0` on a single-backend mount).
    pub backend: u32,
    /// The quantized temperature last stamped into the slot; `0` when cold
    /// or never stamped.
    pub heat: u16,
}

/// Bytes of the slot after its valid word: path, backend word, heat word.
const PAYLOAD: usize = (FD_SLOT_BYTES - FD_PATH_OFF) as usize;

/// Offset of the slot word at `off` within the payload.
const fn in_payload(off: u64) -> usize {
    (off - FD_PATH_OFF) as usize
}

impl PersistentFdTable {
    /// Persists `path`, `backend` and a zeroed heat word into `slot` under
    /// the valid word `valid` — [`FD_VALID_OPEN`](crate::layout::FD_VALID_OPEN)
    /// for an open file,
    /// [`FD_VALID_MIGRATION`](crate::layout::FD_VALID_MIGRATION) for a
    /// migration journal (`core/src/migrate.rs`). Two ordered phases: the
    /// payload written as one write, flushed and **fenced first**, then the
    /// valid word published with a [`commit_store`](NvRegion::commit_store)
    /// and fenced. The slot must be durable before any entry referencing it
    /// commits — and the valid word must never be able to reach the media
    /// *before* the path it validates. (A single fence over the whole slot
    /// was not enough: cache eviction may persist the valid word's line on
    /// a crash while the path lines are still dirty, and recovery would
    /// then open a garbage path.) A reused slot never leaks the previous
    /// occupant's temperature.
    ///
    /// # Panics
    ///
    /// Panics if the path exceeds [`PATH_MAX`].
    pub fn set(
        region: &NvRegion,
        layout: &Layout,
        slot: u32,
        valid: u64,
        path: &str,
        backend: u32,
        clock: &ActorClock,
    ) {
        let bytes = path.as_bytes();
        assert!(bytes.len() <= PATH_MAX, "path longer than PATH_MAX: {path}");
        let base = layout.fd_slot(slot);
        let mut payload = [0u8; PAYLOAD];
        payload[..bytes.len()].copy_from_slice(bytes);
        let at = in_payload(FD_BACKEND_OFF);
        payload[at..at + 8].copy_from_slice(&u64::from(backend).to_le_bytes());
        region.write(base + FD_PATH_OFF, &payload, clock);
        region.pwb(base + FD_PATH_OFF, payload.len());
        region.persist_fence(clock);
        region.commit_store(base, valid, clock);
        region.persist_fence(clock);
    }

    /// Reads `slot` back if its valid word is `valid`. Charged reads
    /// (recovery runs with a cold CPU cache): the valid word, then the rest
    /// of the slot in one read.
    pub fn get(
        region: &NvRegion,
        layout: &Layout,
        slot: u32,
        valid: u64,
        clock: &ActorClock,
    ) -> Option<FdSlot> {
        let base = layout.fd_slot(slot);
        let mut word = [0u8; 8];
        region.read(base, &mut word, clock);
        if u64::from_le_bytes(word) != valid {
            return None;
        }
        let mut payload = [0u8; PAYLOAD];
        region.read(base + FD_PATH_OFF, &mut payload, clock);
        let path = &payload[..PATH_MAX];
        let end = path.iter().position(|&b| b == 0).unwrap_or(PATH_MAX);
        Some(FdSlot {
            path: String::from_utf8_lossy(&path[..end]).into_owned(),
            backend: word_at(&payload, in_payload(FD_BACKEND_OFF)) as u32,
            heat: word_at(&payload, in_payload(FD_HEAT_OFF)) as u16,
        })
    }

    /// Atomically flips the backend word of a journal (or open) slot — the
    /// commit point of a migration: one aligned 8-byte store, flushed and
    /// fenced, moving the authoritative copy from the source tier to the
    /// target tier.
    pub fn stamp_backend(
        region: &NvRegion,
        layout: &Layout,
        slot: u32,
        backend: u32,
        clock: &ActorClock,
    ) {
        let base = layout.fd_slot(slot);
        region.commit_store(base + FD_BACKEND_OFF, backend as u64, clock);
        region.persist_fence(clock);
    }

    /// Stamps the quantized temperature of an open slot: one aligned 8-byte
    /// [`commit_store`](NvRegion::commit_store) plus fence into the slot's
    /// heat word, which holds the quantized heat itself. Crash-atomic on its
    /// own — an 8-byte store cannot tear, and the summary is advisory (an
    /// unstamped `0` reads as cold) — so it needs no two-phase protocol.
    pub fn set_heat(region: &NvRegion, layout: &Layout, slot: u32, qheat: u16, clock: &ActorClock) {
        let base = layout.fd_slot(slot);
        region.commit_store(base + FD_HEAT_OFF, qheat as u64, clock);
        region.persist_fence(clock);
    }

    /// Invalidates `slot`: recovery skips every entry that references it.
    /// On the close path that is only after the log has drained past them;
    /// on the `unlink` path it is what discards the file's pending entries.
    pub fn clear(region: &NvRegion, layout: &Layout, slot: u32, clock: &ActorClock) {
        Self::clear_all(region, layout, [slot], clock);
    }

    /// [`clear`](PersistentFdTable::clear) for several slots under one fence.
    pub fn clear_all(
        region: &NvRegion,
        layout: &Layout,
        slots: impl IntoIterator<Item = u32>,
        clock: &ActorClock,
    ) {
        for slot in slots {
            region.commit_store(layout.fd_slot(slot), 0, clock);
        }
        region.persist_fence(clock);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::{FD_VALID_MIGRATION, FD_VALID_OPEN};
    use crate::NvCacheConfig;
    use nvmm::{NvDimm, NvmmProfile};

    fn setup() -> (ActorClock, NvRegion, Layout) {
        let layout = Layout::for_config(&NvCacheConfig::tiny());
        let dimm = Arc::new(NvDimm::new(layout.total_bytes(), NvmmProfile::instant()));
        (ActorClock::new(), NvRegion::whole(dimm), layout)
    }

    /// Records an open file in `slot`.
    fn set(region: &NvRegion, layout: &Layout, slot: u32, path: &str, backend: u32) {
        PersistentFdTable::set(
            region,
            layout,
            slot,
            FD_VALID_OPEN,
            path,
            backend,
            &ActorClock::new(),
        );
    }

    /// The open file recorded in `slot`.
    fn get(region: &NvRegion, layout: &Layout, slot: u32) -> Option<FdSlot> {
        PersistentFdTable::get(region, layout, slot, FD_VALID_OPEN, &ActorClock::new())
    }

    /// `(path, backend)` of the open file recorded in `slot`.
    fn get_path(region: &NvRegion, layout: &Layout, slot: u32) -> Option<(String, u32)> {
        get(region, layout, slot).map(|s| (s.path, s.backend))
    }

    #[test]
    fn set_get_clear_round_trip() {
        let (c, region, layout) = setup();
        assert_eq!(get(&region, &layout, 3), None);
        set(&region, &layout, 3, "/data/wal.log", 0);
        assert_eq!(get_path(&region, &layout, 3), Some(("/data/wal.log".into(), 0)));
        PersistentFdTable::clear(&region, &layout, 3, &c);
        assert_eq!(get(&region, &layout, 3), None);
    }

    #[test]
    fn tiered_slots_round_trip_the_backend_index() {
        let (_, region, layout) = setup();
        set(&region, &layout, 2, "/hot/wal", 3);
        set(&region, &layout, 5, "/cold/blob", 0);
        assert_eq!(get_path(&region, &layout, 2), Some(("/hot/wal".into(), 3)));
        assert_eq!(get_path(&region, &layout, 5), Some(("/cold/blob".into(), 0)));
    }

    #[test]
    fn a_journal_slot_reads_back_only_as_a_journal() {
        let (c, region, layout) = setup();
        PersistentFdTable::set(&region, &layout, 1, FD_VALID_MIGRATION, "/moving", 1, &c);
        assert_eq!(get(&region, &layout, 1), None, "not an open file");
        let journal = PersistentFdTable::get(&region, &layout, 1, FD_VALID_MIGRATION, &c);
        let journal = journal.expect("journal");
        assert_eq!((journal.path.as_str(), journal.backend, journal.heat), ("/moving", 1, 0));
    }

    #[test]
    fn slots_survive_crash() {
        let (_, region, layout) = setup();
        set(&region, &layout, 0, "/survivor", 0);
        let crashed = region.dimm().crash_and_restart();
        let region2 = NvRegion::whole(Arc::new(crashed));
        assert_eq!(get_path(&region2, &layout, 0), Some(("/survivor".into(), 0)));
    }

    #[test]
    fn heat_word_round_trips_and_resets_on_slot_reuse() {
        let (c, region, layout) = setup();
        set(&region, &layout, 1, "/hot/a", 1);
        // An unstamped slot reads as cold.
        assert_eq!(get(&region, &layout, 1).unwrap().heat, 0);
        PersistentFdTable::set_heat(&region, &layout, 1, 777, &c);
        assert_eq!(get(&region, &layout, 1).unwrap().heat, 777);
        // The path bytes are untouched by the stamp.
        assert_eq!(get_path(&region, &layout, 1), Some(("/hot/a".into(), 1)));
        // Reusing the slot for another file must not inherit the summary.
        PersistentFdTable::clear(&region, &layout, 1, &c);
        set(&region, &layout, 1, "/bulk/b", 0);
        assert_eq!(get(&region, &layout, 1).unwrap().heat, 0);
    }

    #[test]
    fn heat_word_survives_crash() {
        let (c, region, layout) = setup();
        set(&region, &layout, 0, "/hot/wal", 1);
        PersistentFdTable::set_heat(&region, &layout, 0, 4321, &c);
        let crashed = region.dimm().crash_and_restart();
        let region2 = NvRegion::whole(Arc::new(crashed));
        let slot = get(&region2, &layout, 0).unwrap();
        assert_eq!((slot.path.as_str(), slot.backend, slot.heat), ("/hot/wal", 1, 4321));
    }

    #[test]
    fn heat_layout_shrinks_the_path_budget() {
        let (c, region, layout) = setup();
        let fits = format!("/{}", "x".repeat(PATH_MAX - 1));
        set(&region, &layout, 0, &fits, 0);
        PersistentFdTable::set_heat(&region, &layout, 0, u16::MAX, &c);
        assert_eq!(get(&region, &layout, 0).map(|s| s.path), Some(fits));
    }

    #[test]
    fn tiered_backend_word_survives_crash() {
        let (_, region, layout) = setup();
        set(&region, &layout, 1, "/tiered", 1);
        let crashed = region.dimm().crash_and_restart();
        let region2 = NvRegion::whole(Arc::new(crashed));
        assert_eq!(get_path(&region2, &layout, 1), Some(("/tiered".into(), 1)));
    }

    #[test]
    #[should_panic(expected = "PATH_MAX")]
    fn oversized_path_panics() {
        let (_, region, layout) = setup();
        let long = "x".repeat(PATH_MAX + 1);
        set(&region, &layout, 0, &long, 0);
    }

    #[test]
    fn fd_slot_allocator_is_lifo_and_exhausts_cleanly() {
        let a = FdSlotAllocator::new(3);
        assert_eq!(a.free_count(), 3);
        // Fresh allocator hands out ascending slots, like the old Vec.
        assert_eq!(a.acquire(), Some(0));
        assert_eq!(a.acquire(), Some(1));
        assert_eq!(a.acquire(), Some(2));
        assert_eq!(a.acquire(), None);
        assert_eq!(a.free_count(), 0);
        // LIFO reuse: the most recently released slot comes back first.
        a.release(1);
        a.release(2);
        assert_eq!(a.acquire(), Some(2));
        assert_eq!(a.acquire(), Some(1));
        assert_eq!(a.acquire(), None);
    }

    #[test]
    fn fd_slot_allocator_empty_table() {
        let a = FdSlotAllocator::new(0);
        assert_eq!(a.acquire(), None);
        assert_eq!(a.free_count(), 0);
    }

    #[test]
    fn fd_slot_allocator_concurrent_churn_never_duplicates() {
        use std::collections::HashSet;
        let a = Arc::new(FdSlotAllocator::new(8));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let a = Arc::clone(&a);
                std::thread::spawn(move || {
                    let mut held = Vec::new();
                    for round in 0..2000u32 {
                        if let Some(s) = a.acquire() {
                            held.push(s);
                        }
                        if round % 3 == 0 {
                            if let Some(s) = held.pop() {
                                a.release(s);
                            }
                        }
                        while held.len() > 2 {
                            a.release(held.pop().unwrap());
                        }
                    }
                    held
                })
            })
            .collect();
        let mut outstanding = Vec::new();
        for h in handles {
            outstanding.extend(h.join().unwrap());
        }
        // No slot may be held twice, and held + free must cover the table.
        let distinct: HashSet<u32> = outstanding.iter().copied().collect();
        assert_eq!(distinct.len(), outstanding.len(), "duplicate slot handed out");
        assert_eq!(a.free_count() as usize + outstanding.len(), 8);
        for s in outstanding {
            a.release(s);
        }
        assert_eq!(a.free_count(), 8);
    }
}
