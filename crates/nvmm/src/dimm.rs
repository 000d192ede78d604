use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simclock::ActorClock;

#[cfg(test)]
use simclock::SimTime;

use crate::{NvmmProfile, NvmmStats};

/// Size of a CPU cache line; flushes happen at this granularity.
pub const CACHE_LINE: u64 = 64;

/// Bytes per word of the packed images.
const WORD: usize = 8;

/// Global id source so per-thread flush queues can be keyed per DIMM.
static NEXT_DIMM_ID: AtomicU64 = AtomicU64::new(1);

/// Bytes per chunk of an image's touched bitmap: one host page.
pub(crate) const CHUNK: usize = 4096;

/// Wiped images of dropped DIMMs, handed to the next `NvDimm::new` of their
/// size instead of fresh storage.
static POOL: Mutex<Pool> = Mutex::new(Pool { free: Vec::new(), live: 0, peak: 0 });

/// The pooled images and the byte counts that bound them: pooled plus live
/// image bytes never exceed `peak`, the high-water mark of live image bytes,
/// so recycling never raises peak memory.
struct Pool {
    /// Oldest first.
    free: Vec<Words>,
    /// Bytes of the images live DIMMs hold.
    live: usize,
    /// The most `live` has been.
    peak: usize,
}

thread_local! {
    /// Per-thread `pwb` queues (the hardware analogue is the per-CPU flush
    /// queue drained by `sfence`). Keyed by DIMM id; one inclusive line
    /// range `(first, last)` per `pwb`.
    static PENDING_FLUSHES: RefCell<HashMap<u64, Vec<(u64, u64)>>> = RefCell::new(HashMap::new());
}

/// `n` zeroed atomics, allocated zeroed so that the OS maps a page only when
/// it is first touched. Zero stores skip untouched chunks, so a 273 MB DIMM
/// costs nothing until it is written, formatted or not.
fn zeroed(n: usize) -> Box<[AtomicU64]> {
    // SAFETY: the all-zero bit pattern is a valid `AtomicU64` (the value 0).
    unsafe { Box::new_zeroed_slice(n).assume_init() }
}

/// Calls `f(word, mask)` once per bitmap word holding some of the bits
/// `first..=last`, with the mask of those bits.
fn for_each_bit_word(first: u64, last: u64, mut f: impl FnMut(usize, u64)) {
    let mut bit = first;
    while bit <= last {
        let top = last.min(bit | 63);
        f((bit / 64) as usize, (u64::MAX >> (63 - top % 64)) & (u64::MAX << (bit % 64)));
        bit = top + 1;
    }
}

/// The indices of the bits set in `bitmap`, ascending.
fn set_bits(bitmap: &[AtomicU64]) -> impl Iterator<Item = usize> + '_ {
    bitmap.iter().enumerate().flat_map(|(i, word)| {
        let mut bits = word.load(Ordering::Relaxed);
        std::iter::from_fn(move || {
            let bit = (bits != 0).then(|| i * 64 + bits.trailing_zeros() as usize);
            bits &= bits.wrapping_sub(1);
            bit
        })
    })
}

/// A byte image packed little-endian into words: byte `i` is byte `i % 8`
/// of word `i / 8`. A whole word moves with one relaxed load or store; a
/// partial word is stored with one compare-and-swap, so a load of the word
/// never returns a byte value no store wrote.
///
/// One bit per `CHUNK` bytes is set before the first non-zero byte is
/// stored in that chunk. A chunk whose bit is clear holds only zeros, and
/// no store or copy of zeros writes its host memory. A thread ordered after
/// a store sees that store's bit.
#[derive(Default)]
struct Words {
    cells: Box<[AtomicU64]>,
    touched: Box<[AtomicU64]>,
}

impl Words {
    /// A zeroed image of `len` bytes: a pooled one of its size, else fresh
    /// storage, for which the oldest pooled images are freed until pooled
    /// plus live bytes are back within the peak.
    fn take(len: u64) -> Self {
        let words = len.div_ceil(WORD as u64) as usize;
        let mut pool = POOL.lock();
        pool.live += words * WORD;
        pool.peak = pool.peak.max(pool.live);
        if let Some(i) = pool.free.iter().position(|w| w.cells.len() == words) {
            return pool.free.remove(i);
        }
        while pool.free.iter().map(Words::bytes).sum::<usize>() + pool.live > pool.peak {
            pool.free.remove(0);
        }
        drop(pool);
        let chunks = words.div_ceil(CHUNK / WORD);
        Words { cells: zeroed(words), touched: zeroed(chunks.div_ceil(64)) }
    }

    /// Zeroes the touched chunks, clears their bits and parks the image in
    /// the pool. Live bytes fall by what the pool gains, so the bound holds.
    fn recycle(mut self) {
        let per_chunk = CHUNK / WORD;
        for chunk in set_bits(&self.touched) {
            let end = ((chunk + 1) * per_chunk).min(self.cells.len());
            for cell in &mut self.cells[chunk * per_chunk..end] {
                *cell.get_mut() = 0;
            }
        }
        self.touched.iter_mut().for_each(|bits| *bits.get_mut() = 0);
        let mut pool = POOL.lock();
        pool.live -= self.bytes();
        pool.free.push(self);
    }

    fn bytes(&self) -> usize {
        self.cells.len() * WORD
    }

    fn is_touched(&self, chunk: usize) -> bool {
        self.touched[chunk / 64].load(Ordering::Relaxed) & (1 << (chunk % 64)) != 0
    }

    fn mark(&self, chunk: usize) {
        if !self.is_touched(chunk) {
            self.touched[chunk / 64].fetch_or(1 << (chunk % 64), Ordering::Relaxed);
        }
    }

    /// Bytes from `off` to the next word boundary, at most `len`.
    fn head(off: usize, len: usize) -> usize {
        (off.wrapping_neg() % WORD).min(len)
    }

    /// Stores `data` chunk by chunk: a part bound for an untouched chunk is
    /// skipped when it is all zero, and marks the chunk first otherwise.
    fn store(&self, off: u64, data: &[u8]) {
        let (mut off, mut data) = (off as usize, data);
        while !data.is_empty() {
            let (part, rest) = data.split_at((CHUNK - off % CHUNK).min(data.len()));
            let chunk = off / CHUNK;
            if self.is_touched(chunk) || part.iter().any(|&b| b != 0) {
                self.mark(chunk);
                self.store_words(off, part);
            }
            (off, data) = (off + part.len(), rest);
        }
    }

    fn store_words(&self, off: usize, data: &[u8]) {
        let (head, rest) = data.split_at(Self::head(off, data.len()));
        self.store_partial(off, head);
        let (words, tail) = rest.as_chunks::<WORD>();
        let first = (off + head.len()) / WORD;
        for (cell, bytes) in self.cells[first..].iter().zip(words) {
            cell.store(u64::from_le_bytes(*bytes), Ordering::Relaxed);
        }
        self.store_partial(off + head.len() + words.len() * WORD, tail);
    }

    /// Stores fewer than 8 bytes that lie within one word.
    fn store_partial(&self, off: usize, bytes: &[u8]) {
        if bytes.is_empty() {
            return;
        }
        let mut padded = [0u8; WORD];
        padded[..bytes.len()].copy_from_slice(bytes);
        let shift = 8 * (off % WORD);
        let mask = (u64::MAX >> (64 - 8 * bytes.len())) << shift;
        let value = u64::from_le_bytes(padded) << shift;
        let cell = &self.cells[off / WORD];
        let _ =
            cell.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |w| Some(w & !mask | value));
    }

    fn load(&self, off: u64, buf: &mut [u8]) {
        let off = off as usize;
        let (head, rest) = buf.split_at_mut(Self::head(off, buf.len()));
        self.load_partial(off, head);
        let first = (off + head.len()) / WORD;
        let (words, tail) = rest.as_chunks_mut::<WORD>();
        let tail_off = off + head.len() + words.len() * WORD;
        for (cell, bytes) in self.cells[first..].iter().zip(words) {
            *bytes = cell.load(Ordering::Relaxed).to_le_bytes();
        }
        self.load_partial(tail_off, tail);
    }

    fn load_partial(&self, off: usize, buf: &mut [u8]) {
        if buf.is_empty() {
            return;
        }
        let at = off % WORD;
        let word = self.cells[off / WORD].load(Ordering::Relaxed).to_le_bytes();
        buf.copy_from_slice(&word[at..at + buf.len()]);
    }

    /// Copies the words of cache lines `first..=last` from `src`, chunk by
    /// chunk: a touched source chunk marks this one, and a chunk untouched
    /// in both images is zero in both and skipped.
    fn copy_lines(&self, src: &Words, first: u64, last: u64) {
        let per_line = CACHE_LINE as usize / WORD;
        let mut start = first as usize * per_line;
        let end = ((last as usize + 1) * per_line).min(self.cells.len());
        while start < end {
            let chunk = start * WORD / CHUNK;
            let stop = ((chunk + 1) * CHUNK / WORD).min(end);
            if src.is_touched(chunk) {
                self.mark(chunk);
            }
            if self.is_touched(chunk) {
                for (dst, src) in self.cells[start..stop].iter().zip(&src.cells[start..stop]) {
                    dst.store(src.load(Ordering::Relaxed), Ordering::Relaxed);
                }
            }
            start = stop;
        }
    }
}

/// A simulated NVMM module.
///
/// Maintains a *live* image (CPU caches + media, what loads observe) and a
/// *durable* image (what survives [`crash`](NvDimm::crash)). See the crate
/// docs for the persistency contract.
///
/// Both images are packed little-endian into 64-bit words and allocated
/// zeroed (untouched pages cost no memory). Whole words are copied with one
/// relaxed atomic load or store; the partial head or tail word of an access
/// is stored with one compare-and-swap, so every byte is single-copy atomic:
/// concurrent stores to disjoint bytes of a word lose no update, and a load
/// only returns byte values some store wrote. An access spanning several
/// words is not atomic as a whole, as on hardware.
///
/// Each image keeps one bit per 4 KiB chunk, set before the chunk's first
/// non-zero byte is stored: a store of zeros into an untouched chunk, and a
/// fence's copy between two untouched chunks, skip host memory but charge
/// and count as any other, so a formatted DIMM costs memory only where it
/// was written. A dropped DIMM's images zero their touched chunks and wait
/// in a process-wide pool for the next [`new`](NvDimm::new) of their size;
/// pooled plus live image bytes never exceed the high-water mark of live
/// image bytes. A recycled image comes with a fresh DIMM id, so no thread's
/// queued `pwb`s carry over.
///
/// All methods take `&self` and are safe to call from multiple threads; the
/// flush queue filled by [`pwb`](NvDimm::pwb) and drained by
/// [`pfence`](NvDimm::pfence) is per-thread, mirroring per-CPU hardware
/// queues. It holds one line range per `pwb`; the fence sorts and merges
/// them and charges each distinct line once.
///
/// Latency is charged directly to the calling actor's clock rather than
/// through a shared device timeline: actors at very different virtual times
/// (the application vs. the far-ahead cleanup thread) would otherwise
/// serialize against each other's futures. Cross-thread DIMM *bandwidth*
/// contention is therefore not modelled — the evaluation's single heavy
/// flusher is always the application thread.
pub struct NvDimm {
    id: u64,
    len: u64,
    live: Words,
    /// Durable shadow; `None` when the profile disables durability tracking.
    durable: Option<Mutex<Words>>,
    /// One bit per cache line: set when live may differ from durable.
    dirty: Box<[AtomicU64]>,
    profile: NvmmProfile,
    stats: NvmmStats,
    /// Persistency-ordering shadow state (per DIMM, never global).
    #[cfg(feature = "pmcheck")]
    pm: crate::pmcheck::PmShadow,
}

impl fmt::Debug for NvDimm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NvDimm")
            .field("id", &self.id)
            .field("len", &self.len())
            .field("tracks_durability", &self.durable.is_some())
            .finish()
    }
}

impl NvDimm {
    /// Creates a zero-filled DIMM of `size` bytes, on a dropped DIMM's
    /// wiped images when the pool holds some of that size.
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero.
    pub fn new(size: u64, profile: NvmmProfile) -> Self {
        assert!(size > 0, "NvDimm size must be positive");
        let lines = size.div_ceil(CACHE_LINE);
        NvDimm {
            id: NEXT_DIMM_ID.fetch_add(1, Ordering::Relaxed),
            len: size,
            live: Words::take(size),
            durable: profile.track_durability.then(|| Mutex::new(Words::take(size))),
            dirty: zeroed(lines.div_ceil(64) as usize),
            profile,
            stats: NvmmStats::default(),
            #[cfg(feature = "pmcheck")]
            pm: crate::pmcheck::PmShadow::default(),
        }
    }

    /// Creates a DIMM whose live *and* durable images start as `image`.
    pub fn from_image(image: &[u8], profile: NvmmProfile) -> Self {
        let dimm = Self::new(image.len() as u64, profile);
        dimm.restore(0, image);
        dimm
    }

    /// Stores `bytes` at `off` in the live and the durable image alike,
    /// uncharged.
    fn restore(&self, off: u64, bytes: &[u8]) {
        self.live.store(off, bytes);
        if let Some(d) = &self.durable {
            d.lock().store(off, bytes);
        }
    }

    /// Capacity in bytes.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the DIMM has zero capacity (never true; kept for API symmetry).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The latency profile in use.
    pub fn profile(&self) -> &NvmmProfile {
        &self.profile
    }

    /// Aggregate operation statistics.
    pub fn stats(&self) -> &NvmmStats {
        &self.stats
    }

    fn check_range(&self, off: u64, len: usize) {
        let end = off
            .checked_add(len as u64)
            .unwrap_or_else(|| panic!("NVMM range overflow at {off}+{len}"));
        assert!(end <= self.len(), "NVMM access out of range: {off}..{end} beyond {}", self.len());
    }

    #[cfg(feature = "pmcheck")]
    fn is_dirty(&self, line: u64) -> bool {
        self.dirty[(line / 64) as usize].load(Ordering::Relaxed) & (1 << (line % 64)) != 0
    }

    /// The cache lines `first..=last` that `len > 0` bytes at `off` cover.
    fn lines(off: u64, len: usize) -> (u64, u64) {
        (off / CACHE_LINE, (off + len as u64 - 1) / CACHE_LINE)
    }

    /// Stores non-empty `data` at `off` and marks its lines dirty, with no
    /// charge; returns the lines.
    #[cfg_attr(feature = "pmcheck", track_caller)]
    fn store_dirty(&self, off: u64, data: &[u8]) -> (u64, u64) {
        let (first, last) = Self::lines(off, data.len());
        #[cfg(feature = "pmcheck")]
        self.pm
            .on_write(first, last, crate::pmcheck::Site::here(std::panic::Location::caller()));
        self.live.store(off, data);
        for_each_bit_word(first, last, |word, mask| {
            self.dirty[word].fetch_or(mask, Ordering::Relaxed);
        });
        (first, last)
    }

    /// Stores `data` at `off` (CPU-cache speed; **not durable** until flushed).
    #[cfg_attr(feature = "pmcheck", track_caller)]
    pub fn write(&self, off: u64, data: &[u8], clock: &ActorClock) {
        self.check_range(off, data.len());
        if !data.is_empty() {
            self.store_dirty(off, data);
        }
        self.stats.bytes_stored.fetch_add(data.len() as u64, Ordering::Relaxed);
        clock.advance(self.profile.store_bandwidth.time_for(data.len() as u64));
    }

    /// Reads `buf.len()` bytes at `off`, charging media read latency (models a
    /// load that misses the CPU cache — bulk scans, recovery, dirty-miss).
    pub fn read(&self, off: u64, buf: &mut [u8], clock: &ActorClock) {
        self.read_cached(off, buf);
        self.stats.bytes_read.fetch_add(buf.len() as u64, Ordering::Relaxed);
        let service =
            self.profile.read_latency + self.profile.read_bandwidth.time_for(buf.len() as u64);
        clock.advance(service);
    }

    /// Reads without charging time (models a load served by the CPU cache,
    /// e.g. metadata the thread itself wrote moments ago).
    pub fn read_cached(&self, off: u64, buf: &mut [u8]) {
        self.check_range(off, buf.len());
        self.live.load(off, buf);
    }

    /// Enqueues the cache lines covering `off..off+len` for write-back
    /// (`clwb`). Durability only takes effect at the next
    /// [`pfence`](NvDimm::pfence)/[`psync`](NvDimm::psync) on *this thread*.
    #[cfg_attr(feature = "pmcheck", track_caller)]
    pub fn pwb(&self, off: u64, len: usize) {
        if len == 0 {
            return;
        }
        self.check_range(off, len);
        let lines = Self::lines(off, len);
        #[cfg(feature = "pmcheck")]
        self.pm_pwb(lines);
        PENDING_FLUSHES.with(|p| p.borrow_mut().entry(self.id).or_default().push(lines));
    }

    /// The shadow checker's side of a `pwb` of lines `first..=last`.
    #[cfg(feature = "pmcheck")]
    #[track_caller]
    fn pm_pwb(&self, (first, last): (u64, u64)) {
        let site = crate::pmcheck::Site::here(std::panic::Location::caller());
        let redundant = self.pm.on_pwb(first, last, site, |line| self.is_dirty(line));
        self.stats.redundant_pwb_lines.fetch_add(redundant, Ordering::Relaxed);
    }

    fn drain_pending(&self, clock: &ActorClock) {
        let mut ranges =
            PENDING_FLUSHES.with(|p| p.borrow_mut().remove(&self.id)).unwrap_or_default();
        if ranges.is_empty() {
            return;
        }
        ranges.sort_unstable();
        // Merge overlapping and adjacent ranges, so each line counts once.
        ranges.dedup_by(|next, kept| {
            let joins = next.0 <= kept.1 + 1;
            if joins {
                kept.1 = kept.1.max(next.1);
            }
            joins
        });
        let durable = self.durable.as_ref().map(|d| d.lock());
        let mut n = 0;
        for &(first, last) in &ranges {
            if let Some(image) = &durable {
                image.copy_lines(&self.live, first, last);
            }
            for_each_bit_word(first, last, |word, mask| {
                self.dirty[word].fetch_and(!mask, Ordering::Relaxed);
            });
            n += last - first + 1;
        }
        self.stats.lines_flushed.fetch_add(n, Ordering::Relaxed);
        clock.advance(self.profile.write_bandwidth.time_for(n * CACHE_LINE));
    }

    /// Store fence: drains this thread's pending `pwb`s to durable media and
    /// orders them before subsequent stores (`sfence`).
    pub fn pfence(&self, clock: &ActorClock) {
        #[cfg(feature = "pmcheck")]
        self.pm_fence_hook();
        self.stats.fences.fetch_add(1, Ordering::Relaxed);
        self.drain_pending(clock);
        clock.advance(self.profile.fence_latency);
    }

    /// Like [`pfence`](NvDimm::pfence) but additionally waits for the media
    /// drain; required for durable linearizability (paper Algorithm 1, l.27).
    pub fn psync(&self, clock: &ActorClock) {
        #[cfg(feature = "pmcheck")]
        self.pm_fence_hook();
        self.stats.drains.fetch_add(1, Ordering::Relaxed);
        self.drain_pending(clock);
        clock.advance(self.profile.fence_latency + self.profile.drain_latency);
    }

    /// Shadow-state transition for any fence flavour: flags fences that had
    /// nothing queued (pure latency) and advances this thread's epoch.
    #[cfg(feature = "pmcheck")]
    fn pm_fence_hook(&self) {
        let empty = PENDING_FLUSHES.with(|p| p.borrow().get(&self.id).is_none_or(|q| q.is_empty()));
        if empty {
            self.stats.redundant_fences.fetch_add(1, Ordering::Relaxed);
        }
        self.pm.on_fence();
    }

    /// Checked [`pfence`](NvDimm::pfence): asserts (under `pmcheck`) that
    /// every store this thread made has already been `pwb`'d, i.e. the fence
    /// really covers the payload it is ordering. Use at protocol points
    /// whose contract is "all prior stores are write-back-queued"; plain
    /// `pfence` remains available for fences without that contract.
    #[cfg_attr(feature = "pmcheck", track_caller)]
    pub fn persist_fence(&self, clock: &ActorClock) {
        #[cfg(feature = "pmcheck")]
        {
            let site = crate::pmcheck::Site::here(std::panic::Location::caller());
            if let Some(msg) = self.pm.check_barrier(self.id, "persist_fence", site) {
                panic!("{msg}");
            }
        }
        self.pfence(clock);
    }

    /// Checked [`psync`](NvDimm::psync); same contract as
    /// [`persist_fence`](NvDimm::persist_fence).
    #[cfg_attr(feature = "pmcheck", track_caller)]
    pub fn persist_barrier(&self, clock: &ActorClock) {
        #[cfg(feature = "pmcheck")]
        {
            let site = crate::pmcheck::Site::here(std::panic::Location::caller());
            if let Some(msg) = self.pm.check_barrier(self.id, "persist_barrier", site) {
                panic!("{msg}");
            }
        }
        self.psync(clock);
    }

    /// Publishes an 8-byte little-endian commit word: store + `pwb` of its
    /// line. Under `pmcheck` this is the annotated *publish* point of the
    /// durability protocol (paper Algorithm 1: pwb payload, fence, then
    /// commit) and asserts that on this thread nothing is still Dirty and no
    /// `pwb` is un-fenced — otherwise the commit word is being published
    /// before the fence covering its payload.
    #[cfg_attr(feature = "pmcheck", track_caller)]
    pub fn commit_store(&self, off: u64, value: u64, clock: &ActorClock) {
        #[cfg(feature = "pmcheck")]
        let site = crate::pmcheck::Site::here(std::panic::Location::caller());
        #[cfg(feature = "pmcheck")]
        if let Some(msg) = self.pm.check_commit(self.id, off, off / CACHE_LINE, site) {
            panic!("{msg}");
        }
        self.write(off, &value.to_le_bytes(), clock);
        self.pwb(off, 8);
        self.stats.commit_stores.fetch_add(1, Ordering::Relaxed);
        #[cfg(feature = "pmcheck")]
        self.pm.register_commit(off / CACHE_LINE, site);
    }

    /// Violations recorded by the `pmcheck` shadow checker on this DIMM.
    ///
    /// Violations also panic at the offending call site; this registry is
    /// for end-of-test auditing (and for tests that catch the panic).
    #[cfg(feature = "pmcheck")]
    pub fn pm_violations(&self) -> Vec<String> {
        self.pm.violations()
    }

    /// Convenience: `write` + `pwb` over the same range.
    #[cfg_attr(feature = "pmcheck", track_caller)]
    pub fn write_and_pwb(&self, off: u64, data: &[u8], clock: &ActorClock) {
        self.write(off, data, clock);
        self.pwb(off, data.len());
    }

    /// Stores `count` zero words `stride` bytes apart from `off` and queues
    /// each for write-back: charged, counted and checked (under `pmcheck`)
    /// as `count` calls of `write(at, &[0; 8])` + `pwb(at, 8)`, in order,
    /// with one flush-queue append instead of `count`. Clears the commit
    /// words of a run of log entries.
    ///
    /// # Panics
    ///
    /// Panics if the last word lies beyond the DIMM.
    #[cfg_attr(feature = "pmcheck", track_caller)]
    pub fn clear_words_and_pwb(&self, off: u64, stride: u64, count: u64, clock: &ActorClock) {
        let Some(last) = count.checked_sub(1) else { return };
        let end = last.checked_mul(stride).and_then(|span| span.checked_add(off));
        self.check_range(end.unwrap_or(u64::MAX), WORD);
        let mut queued = Vec::with_capacity(count as usize);
        for at in (0..count).map(|i| off + i * stride) {
            let lines = self.store_dirty(at, &[0; WORD]);
            #[cfg(feature = "pmcheck")]
            self.pm_pwb(lines);
            queued.push(lines);
        }
        PENDING_FLUSHES.with(|p| p.borrow_mut().entry(self.id).or_default().extend(queued));
        self.stats.bytes_stored.fetch_add(count * WORD as u64, Ordering::Relaxed);
        clock.advance(self.profile.store_bandwidth.time_for(WORD as u64) * count);
    }

    /// Produces the post-crash memory image: the durable image, with each
    /// still-dirty line independently "evicted" (persisted anyway) with the
    /// profile's eviction probability, using `seed` for reproducibility.
    ///
    /// # Panics
    ///
    /// Panics if the profile disabled durability tracking.
    pub fn crash_image(&self, seed: u64) -> Vec<u8> {
        let mut image = vec![0u8; self.len as usize];
        self.crash_parts(seed, |off, bytes| {
            image[off as usize..][..bytes.len()].copy_from_slice(bytes);
        });
        image
    }

    /// Hands `put(off, bytes)` the parts of [`crash_image`](Self::crash_image)
    /// that may be non-zero, in the order they overwrite each other: the
    /// durable image's touched chunks, then each dirty line the seeded draw
    /// evicts, read from the live image.
    fn crash_parts(&self, seed: u64, mut put: impl FnMut(u64, &[u8])) {
        #[cfg(feature = "pmcheck")]
        {
            let found = self.pm.check_crash(self.id);
            if !found.is_empty() {
                panic!("{}", found.join("\n"));
            }
        }
        let durable = self
            .durable
            .as_ref()
            .expect("crash semantics unavailable: durability tracking disabled");
        let mut buf = [0u8; CHUNK];
        {
            let durable = durable.lock();
            for chunk in set_bits(&durable.touched) {
                let off = (chunk * CHUNK) as u64;
                let part = &mut buf[..CHUNK.min((self.len - off) as usize)];
                durable.load(off, part);
                put(off, part);
            }
        }
        let p = self.profile.eviction_probability;
        if p > 0.0 {
            let mut rng = StdRng::seed_from_u64(seed);
            for line in set_bits(&self.dirty) {
                if rng.gen_bool(p) {
                    let off = line as u64 * CACHE_LINE;
                    let part = &mut buf[..CACHE_LINE.min(self.len - off) as usize];
                    self.live.load(off, part);
                    put(off, part);
                }
            }
        }
    }

    /// Simulates a power failure followed by reboot: returns a fresh DIMM
    /// whose content is exactly what was durable (deterministic, seed 0).
    ///
    /// # Panics
    ///
    /// Panics if the profile disabled durability tracking.
    pub fn crash_and_restart(&self) -> NvDimm {
        self.crash_and_restart_seeded(0)
    }

    /// Simulates a crash with a seeded eviction draw (see
    /// [`crash_image`](NvDimm::crash_image)): the new DIMM's live and
    /// durable images are built from the parts of that image, chunk by
    /// chunk, with no full-length copy.
    pub fn crash_and_restart_seeded(&self, seed: u64) -> NvDimm {
        let dimm = Self::new(self.len, self.profile.clone());
        self.crash_parts(seed, |off, bytes| dimm.restore(off, bytes));
        dimm
    }

    /// Alias for [`crash_and_restart`](NvDimm::crash_and_restart); reads as
    /// "crash" at call sites.
    pub fn crash(&self) -> NvDimm {
        self.crash_and_restart()
    }
}

impl Drop for NvDimm {
    fn drop(&mut self) {
        std::mem::take(&mut self.live).recycle();
        if let Some(durable) = self.durable.take() {
            durable.into_inner().recycle();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clock() -> ActorClock {
        ActorClock::new()
    }

    #[test]
    fn write_then_read_round_trips() {
        let c = clock();
        let d = NvDimm::new(1024, NvmmProfile::instant());
        d.write(100, b"abcdef", &c);
        let mut buf = [0u8; 6];
        d.read(100, &mut buf, &c);
        assert_eq!(&buf, b"abcdef");
    }

    #[test]
    fn unflushed_write_is_lost_on_crash() {
        let c = clock();
        let d = NvDimm::new(1024, NvmmProfile::instant());
        d.write(0, b"volatile!", &c);
        let r = d.crash_and_restart();
        let mut buf = [0u8; 9];
        r.read_cached(0, &mut buf);
        assert_eq!(&buf, &[0u8; 9], "unflushed data must not survive");
    }

    #[test]
    fn pwb_without_fence_is_still_volatile() {
        let c = clock();
        let d = NvDimm::new(1024, NvmmProfile::instant());
        d.write(0, b"queued", &c);
        d.pwb(0, 6);
        let r = d.crash_and_restart();
        let mut buf = [0u8; 6];
        r.read_cached(0, &mut buf);
        assert_eq!(&buf, &[0u8; 6]);
    }

    #[test]
    fn pwb_plus_fence_is_durable() {
        let c = clock();
        let d = NvDimm::new(1024, NvmmProfile::instant());
        d.write(0, b"durable", &c);
        d.pwb(0, 7);
        d.pfence(&c);
        let r = d.crash_and_restart();
        let mut buf = [0u8; 7];
        r.read_cached(0, &mut buf);
        assert_eq!(&buf, b"durable");
    }

    #[test]
    fn fence_only_persists_flushed_lines() {
        let c = clock();
        let d = NvDimm::new(4096, NvmmProfile::instant());
        // Two writes on different cache lines; only the first is pwb'd.
        d.write(0, b"first", &c);
        d.write(2048, b"second", &c);
        d.pwb(0, 5);
        d.pfence(&c);
        let r = d.crash_and_restart();
        let mut a = [0u8; 5];
        let mut b = [0u8; 6];
        r.read_cached(0, &mut a);
        r.read_cached(2048, &mut b);
        assert_eq!(&a, b"first");
        assert_eq!(&b, &[0u8; 6]);
    }

    #[test]
    fn fences_are_per_thread() {
        let c = clock();
        let d = std::sync::Arc::new(NvDimm::new(1024, NvmmProfile::instant()));
        d.write(0, b"mine", &c);
        d.pwb(0, 4);
        // A fence on a different thread must not drain this thread's queue.
        let d2 = std::sync::Arc::clone(&d);
        std::thread::spawn(move || {
            let c2 = ActorClock::new();
            d2.pfence(&c2);
        })
        .join()
        .unwrap();
        let r = d.crash_and_restart();
        let mut buf = [0u8; 4];
        r.read_cached(0, &mut buf);
        assert_eq!(&buf, &[0u8; 4], "other thread's fence must not persist our lines");
    }

    #[test]
    fn rewrite_after_flush_restores_old_value_on_crash() {
        let c = clock();
        let d = NvDimm::new(1024, NvmmProfile::instant());
        d.write(0, b"v1", &c);
        d.pwb(0, 2);
        d.psync(&c);
        d.write(0, b"v2", &c); // not flushed
        let r = d.crash_and_restart();
        let mut buf = [0u8; 2];
        r.read_cached(0, &mut buf);
        assert_eq!(&buf, b"v1");
    }

    #[test]
    fn eviction_probability_one_persists_everything() {
        let c = clock();
        let prof = NvmmProfile::instant().with_eviction_probability(1.0);
        let d = NvDimm::new(1024, prof);
        d.write(0, b"evicted", &c);
        let r = d.crash_and_restart();
        let mut buf = [0u8; 7];
        r.read_cached(0, &mut buf);
        assert_eq!(&buf, b"evicted");
    }

    #[test]
    fn crash_image_is_seed_deterministic() {
        let c = clock();
        let prof = NvmmProfile::instant().with_eviction_probability(0.5);
        let d = NvDimm::new(8192, prof);
        for i in 0..32 {
            d.write(i * 256, &[i as u8 + 1; 64], &c);
        }
        assert_eq!(d.crash_image(7), d.crash_image(7));
        // Different seeds should (overwhelmingly) differ for 32 dirty lines.
        assert_ne!(d.crash_image(7), d.crash_image(8));
    }

    #[test]
    fn write_charges_store_time_and_flush_charges_media_time() {
        let c = clock();
        let d = NvDimm::new(1 << 20, NvmmProfile::optane());
        d.write(0, &[7u8; 4096], &c);
        let after_store = c.now();
        assert!(after_store > SimTime::ZERO);
        d.pwb(0, 4096);
        d.psync(&c);
        let after_sync = c.now();
        // Media flush of 64 lines dominates the store cost.
        assert!(after_sync - after_store > (after_store) * 2);
    }

    #[test]
    fn stats_accumulate() {
        let c = clock();
        let d = NvDimm::new(4096, NvmmProfile::instant());
        d.write(0, &[1; 128], &c);
        d.pwb(0, 128);
        d.pfence(&c);
        let mut buf = [0u8; 64];
        d.read(0, &mut buf, &c);
        assert_eq!(d.stats().bytes_stored.load(Ordering::Relaxed), 128);
        assert_eq!(d.stats().lines_flushed.load(Ordering::Relaxed), 2);
        assert_eq!(d.stats().fences.load(Ordering::Relaxed), 1);
        assert_eq!(d.stats().bytes_read.load(Ordering::Relaxed), 64);
    }

    /// Two threads store disjoint bytes of one word and, after each store, load
    /// the whole word: neither may find its own byte overwritten by the other's
    /// store (a lost update), nor the other's byte holding a value that thread
    /// never stored (a partial word written as a clear and then a set would
    /// show 0 in between).
    #[test]
    fn partial_word_stores_are_byte_atomic() {
        const VALUES: [u8; 2] = [0xA5, 0x5A];
        const ROUNDS: usize = 200_000;
        let dimm = std::sync::Arc::new(NvDimm::new(64, NvmmProfile::instant()));
        dimm.write(8, &[VALUES[0], VALUES[0]], &ActorClock::new());
        let start = std::sync::Arc::new(std::sync::Barrier::new(2));
        let hammer = |mine: usize| {
            let (dimm, start) = (std::sync::Arc::clone(&dimm), std::sync::Arc::clone(&start));
            std::thread::spawn(move || {
                let clock = ActorClock::new();
                let mut word = [0u8; 8];
                start.wait();
                for round in 0..ROUNDS {
                    let value = VALUES[round % 2];
                    dimm.write(8 + mine as u64, &[value], &clock);
                    dimm.read_cached(8, &mut word);
                    assert_eq!(word[mine], value, "round {round}: byte {mine}'s store was lost");
                    let theirs = word[1 - mine];
                    assert!(
                        VALUES.contains(&theirs),
                        "round {round}: byte {} read {theirs:#x}",
                        1 - mine
                    );
                    assert_eq!(word[2..], [0; 6], "round {round}: untouched bytes changed");
                }
            })
        };
        let threads = [hammer(0), hammer(1)];
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(dimm.stats().bytes_stored.load(Ordering::Relaxed), 2 + 2 * ROUNDS as u64);
    }

    /// Two threads store, in turn, zero and non-zero bytes into disjoint
    /// bytes of one word of a chunk nothing touched before, chunk after
    /// chunk, and read each store back: a zero store must reach a chunk a
    /// non-zero store touched, whichever thread touched it.
    #[test]
    fn zero_and_non_zero_stores_into_an_untouched_chunk_lose_no_update() {
        const CHUNKS: usize = 256;
        let dimm =
            std::sync::Arc::new(NvDimm::new((CHUNKS * CHUNK) as u64, NvmmProfile::instant()));
        let start = std::sync::Arc::new(std::sync::Barrier::new(2));
        let hammer = |mine: usize| {
            let (dimm, start) = (std::sync::Arc::clone(&dimm), std::sync::Arc::clone(&start));
            std::thread::spawn(move || {
                let clock = ActorClock::new();
                let mut byte = [0u8];
                for chunk in 0..CHUNKS {
                    let at = (chunk * CHUNK + 8 + mine) as u64;
                    start.wait();
                    for round in 0..6 {
                        let value =
                            if (round + mine).is_multiple_of(2) { 0 } else { 0xA5 ^ mine as u8 };
                        dimm.write(at, &[value], &clock);
                        dimm.read_cached(at, &mut byte);
                        assert_eq!(byte[0], value, "chunk {chunk} round {round}: byte {mine}");
                    }
                }
            })
        };
        let threads = [hammer(0), hammer(1)];
        for t in threads {
            t.join().unwrap();
        }
    }

    /// A DIMM built on a dropped one's storage reads all zero, crashes to
    /// all zero, and charges and counts as one on fresh storage: the old
    /// DIMM's touched chunks were wiped and its queued `pwb` stays with its
    /// id.
    #[test]
    fn a_recycled_dimm_is_a_fresh_one() {
        // A size no other test of this crate uses, so no test takes its images.
        const SIZE: usize = 3 * CHUNK + 13;
        let profile = NvmmProfile::optane().with_eviction_probability(1.0);
        let script = |d: &NvDimm| {
            let c = clock();
            d.pfence(&c);
            d.write(CHUNK as u64 - 3, &[9; 70], &c);
            d.pwb(CHUNK as u64 - 3, 70);
            d.psync(&c);
            d.write(2 * CHUNK as u64, &[0; 64], &c);
            let mut live = vec![0; SIZE];
            d.read(0, &mut live, &c);
            (c.now(), d.stats().snapshot(), live, d.crash_image(3))
        };
        let recycled = (0..100).find_map(|_| {
            let old = NvDimm::new(SIZE as u64, profile.clone());
            let c = clock();
            old.write(0, &[0xAB; SIZE], &c);
            old.pwb(0, SIZE);
            old.pfence(&c);
            old.write(5, &[1; 200], &c);
            old.pwb(0, 200);
            let storage = old.live.cells.as_ptr();
            drop(old);
            let dimm = NvDimm::new(SIZE as u64, profile.clone());
            (dimm.live.cells.as_ptr() == storage).then_some(dimm)
        });
        let recycled = recycled.expect("a dropped DIMM's storage is reused");
        let mut live = vec![1; SIZE];
        recycled.read_cached(0, &mut live);
        assert_eq!(live, vec![0; SIZE]);
        assert_eq!(recycled.crash_image(1), vec![0; SIZE]);
        let fresh = NvDimm::new(SIZE as u64, profile.clone());
        assert_eq!(script(&recycled), script(&fresh));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_write_panics() {
        let c = clock();
        let d = NvDimm::new(64, NvmmProfile::instant());
        d.write(60, &[0; 8], &c);
    }

    #[test]
    #[should_panic(expected = "durability tracking disabled")]
    fn crash_without_tracking_panics() {
        let d = NvDimm::new(64, NvmmProfile::instant().without_durability_tracking());
        let _ = d.crash_and_restart();
    }
}

#[cfg(all(test, feature = "pmcheck"))]
mod pmcheck_tests {
    use super::*;

    fn setup() -> (ActorClock, NvDimm) {
        (ActorClock::new(), NvDimm::new(4096, NvmmProfile::instant()))
    }

    /// Runs `f` on a fresh thread so this thread's pending pwb queue and
    /// shadow attributions can't leak between tests.
    fn isolated(f: impl FnOnce() + Send + 'static) {
        std::thread::spawn(f).join().unwrap();
    }

    #[test]
    fn protocol_in_order_is_clean() {
        isolated(|| {
            let (c, d) = setup();
            d.write(0, &[7u8; 128], &c);
            d.pwb(0, 128);
            d.persist_fence(&c);
            d.commit_store(256, 1, &c);
            d.persist_barrier(&c);
            assert!(d.pm_violations().is_empty());
            let _ = d.crash_image(0);
        });
    }

    #[test]
    fn group_commit_publishing_several_words_is_clean() {
        // The multi-leader doorbell path (`commit_batch`) publishes one
        // commit word per group between a single fence and the trailing
        // barrier. The sibling commit words' own queued `pwb`s are not
        // unfenced payload and must not be flagged.
        isolated(|| {
            let (c, d) = setup();
            d.write(0, &[7u8; 128], &c);
            d.pwb(0, 128);
            d.persist_fence(&c);
            d.commit_store(256, 1, &c);
            d.commit_store(512, 2, &c);
            d.commit_store(768, 3, &c);
            d.persist_barrier(&c);
            assert!(d.pm_violations().is_empty());
        });
    }

    #[test]
    fn payload_pwb_on_former_commit_line_still_flags() {
        // The commit-origin exemption is per queued entry, not per line: a
        // later *payload* flush over a line that once held a commit word is
        // ordinary unfenced payload again.
        isolated(|| {
            let (c, d) = setup();
            d.commit_store(256, 1, &c);
            d.persist_barrier(&c);
            d.write(256, &[4u8; 8], &c);
            d.pwb(256, 8); // plain payload pwb overwrites the commit flag
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                d.commit_store(512, 2, &c);
            }))
            .unwrap_err();
            let msg = err.downcast_ref::<String>().unwrap();
            assert!(msg.contains("stored before the fence"), "{msg}");
        });
    }

    #[test]
    fn commit_before_fence_is_flagged() {
        isolated(|| {
            let (c, d) = setup();
            d.write(0, &[7u8; 64], &c);
            d.pwb(0, 64);
            // No fence: the payload write-back is still queued.
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                d.commit_store(256, 1, &c);
            }))
            .unwrap_err();
            let msg = err.downcast_ref::<String>().unwrap();
            assert!(msg.contains("commit_store"), "{msg}");
            assert!(msg.contains("stored before the fence"), "{msg}");
            assert!(msg.contains("line 0x0"), "{msg}");
            assert_eq!(d.pm_violations().len(), 1);
        });
    }

    #[test]
    fn commit_with_unflushed_payload_is_flagged() {
        isolated(|| {
            let (c, d) = setup();
            d.write(128, &[9u8; 64], &c); // no pwb at all
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                d.commit_store(256, 1, &c);
            }))
            .unwrap_err();
            let msg = err.downcast_ref::<String>().unwrap();
            assert!(msg.contains("still Dirty"), "{msg}");
            assert!(msg.contains("line 0x2"), "{msg}");
        });
    }

    #[test]
    fn barrier_with_dirty_store_is_flagged() {
        isolated(|| {
            let (c, d) = setup();
            d.write(0, &[1u8; 8], &c);
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                d.persist_fence(&c);
            }))
            .unwrap_err();
            let msg = err.downcast_ref::<String>().unwrap();
            assert!(msg.contains("persist_fence"), "{msg}");
            assert!(msg.contains("skipped pwb"), "{msg}");
        });
    }

    #[test]
    fn dirty_tracking_is_per_thread() {
        // Another thread's un-flushed store must not trip this thread's
        // barrier: the fence contract is per-thread, like the hardware.
        let (_c, d) = setup();
        let d = std::sync::Arc::new(d);
        let d2 = std::sync::Arc::clone(&d);
        std::thread::spawn(move || {
            let c2 = ActorClock::new();
            d2.write(512, &[3u8; 16], &c2);
        })
        .join()
        .unwrap();
        std::thread::spawn(move || {
            let c2 = ActorClock::new();
            d.write(0, &[1u8; 8], &c2);
            d.pwb(0, 8);
            d.persist_fence(&c2); // must not flag line 512/64
            d.commit_store(64, 1, &c2);
        })
        .join()
        .unwrap();
    }

    #[test]
    fn redundant_pwb_and_fence_are_counted() {
        isolated(|| {
            let (c, d) = setup();
            d.write(0, &[5u8; 8], &c);
            d.pwb(0, 8);
            d.pwb(0, 8); // same line, no new store: redundant
            assert_eq!(d.stats().redundant_pwb_lines.load(Ordering::Relaxed), 1);
            d.pfence(&c);
            d.pfence(&c); // nothing queued: redundant
            assert_eq!(d.stats().redundant_fences.load(Ordering::Relaxed), 1);
            d.pwb(64, 8); // clean line never stored: redundant
            assert_eq!(d.stats().redundant_pwb_lines.load(Ordering::Relaxed), 2);
            assert!(d.pm_violations().is_empty());
        });
    }

    #[test]
    fn rewrite_after_pwb_is_not_redundant() {
        isolated(|| {
            let (c, d) = setup();
            d.write(0, &[5u8; 8], &c);
            d.pwb(0, 8);
            d.write(0, &[6u8; 8], &c); // line re-dirtied
            d.pwb(0, 8); // needed on real hardware: not redundant
            assert_eq!(d.stats().redundant_pwb_lines.load(Ordering::Relaxed), 0);
        });
    }

    /// A strided clear moves the shadow state, the counters and the clock
    /// exactly as the per-word `write` + `pwb` loop it stands for, over
    /// lines already Dirty, already queued and clean, with words that
    /// straddle two lines.
    #[test]
    fn a_strided_clear_is_its_per_word_loop_to_the_checker() {
        isolated(|| {
            let run = |strided: bool| {
                let (c, d) = setup();
                d.commit_store(2048, 1, &c);
                d.write(0, &[1; 300], &c);
                d.pwb(256, 8);
                d.pwb(1024, 8);
                let (off, stride, count) = (8, 70, 40);
                if strided {
                    d.clear_words_and_pwb(off, stride, count, &c);
                } else {
                    for at in (0..count).map(|i| off + i * stride) {
                        d.write(at, &[0; 8], &c);
                        d.pwb(at, 8);
                    }
                }
                let shadow = d.pm.lines();
                d.pfence(&c);
                (shadow, d.pm.lines(), d.stats().snapshot(), c.now())
            };
            let (strided, looped) = (run(true), run(false));
            assert_eq!(strided, looped);
            assert_eq!(strided.2.redundant_pwb_lines, 1, "the pwb of the clean line 16");
        });
    }

    #[test]
    fn crash_with_redirtied_commit_word_is_flagged() {
        isolated(|| {
            let (c, d) = setup();
            d.commit_store(0, 1, &c);
            d.persist_barrier(&c);
            d.commit_store(0, 2, &c);
            // Rewrite the published word with a plain store, no pwb, then
            // crash: eviction could persist the publish without its payload.
            d.write(0, &[9u8; 8], &c);
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let _ = d.crash_image(0);
            }))
            .unwrap_err();
            let msg = err.downcast_ref::<String>().unwrap();
            assert!(msg.contains("crash with commit word"), "{msg}");
        });
    }
}
