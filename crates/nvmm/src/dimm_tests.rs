//! The word-packed [`NvDimm`] against a per-byte reference model.
//!
//! Random sequences break the durability protocol `pmcheck` enforces, so
//! this module is built without that feature.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simclock::ActorClock;

use crate::dimm::CHUNK;
use crate::stats::NvmmStatsSnapshot;
use crate::{NvDimm, NvmmProfile, CACHE_LINE};

/// One byte per byte, one flag per line and one queued line per `pwb`
/// line: the DIMM's semantics with none of its packing.
struct ByteModel {
    profile: NvmmProfile,
    clock: ActorClock,
    live: Vec<u8>,
    durable: Vec<u8>,
    dirty: Vec<bool>,
    pending: Vec<u64>,
    stats: NvmmStatsSnapshot,
}

impl ByteModel {
    fn new(size: usize, profile: NvmmProfile) -> Self {
        ByteModel {
            profile,
            clock: ActorClock::new(),
            live: vec![0; size],
            durable: vec![0; size],
            dirty: vec![false; size.div_ceil(CACHE_LINE as usize)],
            pending: Vec::new(),
            stats: NvmmStatsSnapshot::default(),
        }
    }

    fn lines(off: usize, len: usize) -> std::ops::RangeInclusive<usize> {
        let line = CACHE_LINE as usize;
        off / line..=(off + len - 1) / line
    }

    fn line_bytes(&self, line: usize) -> std::ops::Range<usize> {
        let start = line * CACHE_LINE as usize;
        start..(start + CACHE_LINE as usize).min(self.live.len())
    }

    fn write(&mut self, off: usize, data: &[u8]) {
        self.live[off..off + data.len()].copy_from_slice(data);
        if !data.is_empty() {
            for line in Self::lines(off, data.len()) {
                self.dirty[line] = true;
            }
        }
        self.stats.bytes_stored += data.len() as u64;
        self.clock.advance(self.profile.store_bandwidth.time_for(data.len() as u64));
    }

    fn read(&mut self, off: usize, len: usize) -> Vec<u8> {
        self.stats.bytes_read += len as u64;
        let p = &self.profile;
        self.clock.advance(p.read_latency + p.read_bandwidth.time_for(len as u64));
        self.live[off..off + len].to_vec()
    }

    fn pwb(&mut self, off: usize, len: usize) {
        if len > 0 {
            self.pending.extend(Self::lines(off, len).map(|l| l as u64));
        }
    }

    fn drain(&mut self) {
        let mut lines = std::mem::take(&mut self.pending);
        lines.sort_unstable();
        lines.dedup();
        for &line in &lines {
            let bytes = self.line_bytes(line as usize);
            self.durable[bytes.clone()].copy_from_slice(&self.live[bytes]);
            self.dirty[line as usize] = false;
        }
        self.stats.lines_flushed += lines.len() as u64;
        let bytes = lines.len() as u64 * CACHE_LINE;
        self.clock.advance(self.profile.write_bandwidth.time_for(bytes));
    }

    fn pfence(&mut self) {
        self.stats.fences += 1;
        self.drain();
        self.clock.advance(self.profile.fence_latency);
    }

    fn psync(&mut self) {
        self.stats.drains += 1;
        self.drain();
        self.clock.advance(self.profile.fence_latency + self.profile.drain_latency);
    }

    fn commit_store(&mut self, off: usize, value: u64) {
        self.write(off, &value.to_le_bytes());
        self.pwb(off, 8);
        self.stats.commit_stores += 1;
    }

    fn clear_words_and_pwb(&mut self, off: usize, stride: usize, count: usize) {
        for i in 0..count {
            self.write(off + i * stride, &[0; 8]);
            self.pwb(off + i * stride, 8);
        }
    }

    fn crash_image(&self, seed: u64) -> Vec<u8> {
        let mut image = self.durable.clone();
        let p = self.profile.eviction_probability;
        if p > 0.0 {
            let mut rng = StdRng::seed_from_u64(seed);
            for line in 0..self.dirty.len() {
                if self.dirty[line] && rng.gen_bool(p) {
                    let bytes = self.line_bytes(line);
                    image[bytes.clone()].copy_from_slice(&self.live[bytes]);
                }
            }
        }
        image
    }
}

/// Data for a store of `len` bytes: a run of ascending bytes from `byte`
/// (wrapping through zero), or zeros when `zero`.
fn pattern(len: usize, byte: u8, zero: bool) -> Vec<u8> {
    (0..len).map(|i| if zero { 0 } else { byte.wrapping_add(i as u8) }).collect()
}

/// DIMM sizes within one chunk, or odd ones spanning three or four chunks.
fn sizes() -> impl Strategy<Value = usize> {
    prop_oneof![1usize..700, (2 * CHUNK + 1..4 * CHUNK).prop_map(|n| n | 1)]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    /// Random stores (some all zero, some straddling a chunk boundary),
    /// loads, write-backs, fences, strided word clears and commit words at
    /// unaligned offsets and
    /// lengths (crossing words and lines) on DIMMs of sizes that are no
    /// multiple of 8 or 64, some dropped and re-created at the same size on
    /// pooled storage: after every step the live bytes, the crash image at
    /// the drawn eviction probability, every counter and the virtual clock
    /// equal the per-byte model's.
    #[test]
    fn the_word_packed_dimm_matches_a_per_byte_model(
        size in sizes(),
        evict in 0usize..3,
        ops in proptest::collection::vec((0u8..11, any::<u64>(), any::<u64>(), any::<u8>()), 1..60),
    ) {
        let profile = NvmmProfile::optane().with_eviction_probability([0.0, 0.5, 1.0][evict]);
        let mut ops = ops.iter().enumerate().peekable();
        while ops.peek().is_some() {
            let dimm = NvDimm::new(size as u64, profile.clone());
            let clock = ActorClock::new();
            let mut model = ByteModel::new(size, profile.clone());
            for (step, &(kind, a, b, byte)) in ops.by_ref() {
                let off = (a % size as u64) as usize;
                let len = (b % (size - off + 1) as u64).min(200) as usize;
                match kind {
                    0 | 1 | 7 => {
                        let data = pattern(len, byte, kind == 7);
                        dimm.write(off as u64, &data, &clock);
                        model.write(off, &data);
                    }
                    8 => {
                        // Across the boundary at the end of chunk `a`.
                        let end = (1 + a as usize % size.div_ceil(CHUNK)) * CHUNK;
                        let off = end.min(size).saturating_sub(1 + b as usize % 80);
                        let len = (size - off).min(1 + (b >> 8) as usize % 160);
                        let data = pattern(len, byte, byte % 2 == 0);
                        dimm.write(off as u64, &data, &clock);
                        model.write(off, &data);
                    }
                    // Drop the DIMM; the next one takes its storage.
                    9 => break,
                    10 if size >= 8 => {
                        // Strides from overlapping words to several chunks.
                        let off = off.min(size - 8);
                        let stride = 1 + b as usize % (2 * CHUNK);
                        let count = (1 + byte as usize % 40).min((size - 8 - off) / stride + 1);
                        dimm.clear_words_and_pwb(off as u64, stride as u64, count as u64, &clock);
                        model.clear_words_and_pwb(off, stride, count);
                    }
                    2 => {
                        let mut buf = vec![0; len];
                        dimm.read(off as u64, &mut buf, &clock);
                        prop_assert_eq!(buf, model.read(off, len), "read at step {}", step);
                    }
                    3 => {
                        dimm.pwb(off as u64, len);
                        model.pwb(off, len);
                    }
                    4 => {
                        dimm.pfence(&clock);
                        model.pfence();
                    }
                    5 => {
                        dimm.psync(&clock);
                        model.psync();
                    }
                    _ => {
                        let off = off.min(size.saturating_sub(8));
                        if size >= 8 {
                            let value = a.rotate_left(u32::from(byte));
                            dimm.commit_store(off as u64, value, &clock);
                            model.commit_store(off, value);
                        }
                    }
                }
                let mut live = vec![0; size];
                dimm.read_cached(0, &mut live);
                prop_assert_eq!(&live, &model.live, "live image after step {}", step);
                prop_assert_eq!(dimm.crash_image(a), model.crash_image(a), "crash image after step {}", step);
                prop_assert_eq!(dimm.stats().snapshot(), model.stats, "counters after step {}", step);
                prop_assert_eq!(clock.now(), model.clock.now(), "clock after step {}", step);
            }
        }
    }

    /// `crash_and_restart_seeded` builds from the crash image's parts the
    /// DIMM that `from_image` builds from the whole image: the same live
    /// and durable bytes, and nothing charged or counted on either.
    #[test]
    fn a_seeded_restart_is_the_dimm_of_its_crash_image(
        size in sizes(),
        seed in any::<u64>(),
        ops in proptest::collection::vec((0u8..4, any::<u64>(), any::<u64>(), any::<u8>()), 1..40),
    ) {
        let profile = NvmmProfile::optane().with_eviction_probability(0.5);
        let dimm = NvDimm::new(size as u64, profile.clone());
        let clock = ActorClock::new();
        for &(kind, a, b, byte) in &ops {
            let off = (a % size as u64) as usize;
            let len = (b % (size - off + 1) as u64).min(600) as usize;
            match kind {
                0 | 1 => dimm.write(off as u64, &pattern(len, byte, byte % 4 == 0), &clock),
                2 => dimm.pwb(off as u64, len),
                _ => dimm.pfence(&clock),
            }
        }
        let restarted = dimm.crash_and_restart_seeded(seed);
        let rebuilt = NvDimm::from_image(&dimm.crash_image(seed), profile);
        let (mut a, mut b) = (vec![0; size], vec![0; size]);
        restarted.read_cached(0, &mut a);
        rebuilt.read_cached(0, &mut b);
        prop_assert_eq!(a, b, "live images");
        prop_assert_eq!(restarted.crash_image(0), rebuilt.crash_image(0), "durable images");
        prop_assert_eq!(restarted.stats().snapshot(), rebuilt.stats().snapshot());
        prop_assert_eq!(restarted.stats().snapshot(), NvmmStatsSnapshot::default());
    }
}
