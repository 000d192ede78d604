//! Seeded random logs for the replay tests, shared by the root suite
//! (`tests/recovery_replay.rs`, through the public API) and the core
//! crate's own (`crates/core/src/replay_tests.rs`, which can also run the
//! `#[cfg(test)]` per-entry reference replayer). The including module
//! brings the core crate into scope as `nvcache` and the test rig
//! (`rig.rs`) as `rig`.
//!
//! Every log is built with the cleanup workers parked, so what it holds is a
//! function of the seed and the [`Shape`] alone, and building it twice
//! yields twins. Every log has: sub-page, page-crossing and multi-entry
//! writes at unaligned offsets over a short span (heavy overlap); one file
//! open through two descriptors whose overlapping writes interleave; one
//! file unlinked before the crash; and, per shape, 1/2/4 stripes, two tiers
//! or a `CryptLayer` below the cache.

// Two suites include this file and each uses its own part of it.
#![allow(dead_code)]

use std::collections::BTreeMap;
use std::sync::Arc;

use simclock::ActorClock;
use vfs::{CryptLayer, Fd, FileSystem, IoResult, Layer, OpenFlags};

use super::nvcache::{Mount, NvCache, NvCacheConfig};
use super::rig::{parked, read_all, Below, Model, Rig};

/// What varies between logs.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub stripes: usize,
    pub entry_size: usize,
    /// Writes acknowledged before the crash.
    pub writes: usize,
    /// Added to every write's drawn length.
    pub min_len: u64,
    /// Longest write; beyond `entry_size` a write is a multi-entry group.
    pub max_len: u64,
    /// Writes start inside the first `span` bytes of their file.
    pub span: u64,
    /// Two `Ext4` tiers, `/hot/*` on the second.
    pub tiered: bool,
    /// A `CryptLayer` on every tier.
    pub crypt: bool,
}

impl Shape {
    /// ~200 writes of up to five 4 KiB entries over 24 KiB per file.
    pub fn small(stripes: usize) -> Shape {
        Shape {
            stripes,
            entry_size: 4096,
            writes: 200,
            min_len: 0,
            max_len: 5 * 4096,
            span: 24 << 10,
            tiered: false,
            crypt: false,
        }
    }

    /// ~46 MiB of payload in 56–64 KiB writes over 1 MiB per file, a fifth
    /// of it the unlinked file's: more than one planning window holds
    /// (`replay::WINDOW_PAYLOAD`, 32 MiB).
    pub fn bulk() -> Shape {
        Shape {
            writes: 800,
            min_len: 56 << 10,
            max_len: 64 << 10,
            span: 1 << 20,
            ..Shape::small(1)
        }
    }

    /// 20 000 writes of at most two 256-byte entries: more entries than one
    /// planning window holds (`replay::WINDOW_ENTRIES`, 16 384).
    pub fn many() -> Shape {
        Shape { entry_size: 256, writes: 20_000, max_len: 512, span: 64 << 10, ..Shape::small(2) }
    }

    pub fn tiered(self) -> Shape {
        Shape { tiered: true, ..self }
    }

    pub fn crypt(self) -> Shape {
        Shape { crypt: true, ..self }
    }
}

/// The shapes both suites sweep: every stripe count, then tiers and layers.
pub fn shapes() -> Vec<(&'static str, Shape)> {
    vec![
        ("1 stripe", Shape::small(1)),
        ("2 stripes", Shape::small(2)),
        ("4 stripes", Shape::small(4)),
        ("2 tiers", Shape::small(2).tiered()),
        ("crypt", Shape::small(1).crypt()),
        ("2 tiers, crypt, 4 stripes", Shape::small(4).tiered().crypt()),
    ]
}

/// xorshift64*: the suites need a seeded stream, not a good one.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D) % n
    }
}

/// `/cold/shared` is written through two descriptors, `/hot/gone` is
/// unlinked before the crash.
pub const PATHS: [&str; 4] = ["/cold/shared", "/hot/a", "/cold/b", "/hot/gone"];
const SHARED: usize = 0;
const GONE: usize = 3;
const CRYPT_KEY: u64 = 0x5EED_CAFE;

/// The rig below a log that takes `entries` without any stripe filling:
/// the workers are parked, and a full stripe would wake one.
fn rig(shape: Shape, entries: u64) -> (Rig, NvCache) {
    // One stripe takes exactly its entries; several get four times the
    // total, however unevenly the hash spreads them.
    let room = if shape.stripes == 1 { entries + 1 } else { 4 * entries };
    let cfg = parked(NvCacheConfig {
        entry_size: shape.entry_size,
        nb_entries: room.next_multiple_of(64),
        fd_slots: 8,
        read_cache_pages: 16,
        ..NvCacheConfig::default()
    })
    .with_log_shards(shape.stripes);
    let mut below = Below::ext4(if shape.tiered { 2 } else { 1 });
    if shape.crypt {
        below.layers.push(Arc::new(CryptLayer::new(CRYPT_KEY)));
    }
    Rig::new(cfg, below)
}

/// Every file of every base — sidecars included — as stored: what two
/// replays of twin logs must agree on byte for byte.
pub fn raw_image(rig: &Rig) -> BTreeMap<(usize, String), Vec<u8>> {
    let clock = ActorClock::new();
    let mut image = BTreeMap::new();
    for (tier, base) in rig.below.bases.iter().enumerate() {
        for dir in ["/cold", "/hot"] {
            for path in base.list_dir(dir, &clock).unwrap_or_default() {
                let content = read_all(base.as_ref(), &path).expect("a listed file");
                image.insert((tier, path), content);
            }
        }
    }
    image
}

/// What a log must leave behind once replayed.
pub struct Expect {
    pub model: Model,
    /// Log entries acknowledged, and those of them logged for `/hot/gone`.
    pub entries: u64,
    pub entries_of_gone: u64,
    /// Payload bytes of the entries that are not `/hot/gone`'s.
    pub bytes: u64,
}

/// A mounted cache holding the seeded log, nothing drained.
pub struct Built {
    pub rig: Rig,
    pub cache: NvCache,
    /// Every open descriptor, `/cold/shared` twice.
    pub fds: Vec<Fd>,
    pub expect: Expect,
}

pub fn build(seed: u64, shape: Shape) -> Built {
    // Descriptor i writes PATHS[i]; descriptor 4 is the second one on the
    // shared file. The writes are drawn first: the log is sized by them.
    let mut rng = Rng::new(seed);
    let es = shape.entry_size as u64;
    let writes: Vec<(usize, u64, u64)> = (0..shape.writes)
        .map(|_| {
            let d = rng.below(PATHS.len() as u64 + 1) as usize;
            let drawn = match rng.below(20) {
                0..=7 => 1 + rng.below(es / 6),    // well inside a page
                8..=13 => es / 6 + rng.below(es),  // crosses pages at these offsets
                14..=18 => es + 1 + rng.below(es), // two or three entries
                _ => 1 + rng.below(shape.max_len), // up to the longest group
            };
            (d, rng.below(shape.span), (shape.min_len + drawn).min(shape.max_len))
        })
        .collect();
    let entries_of = |len: u64| len.div_ceil(es);
    let entries = writes.iter().map(|&(_, _, len)| entries_of(len)).sum();

    let (rig, cache) = rig(shape, entries);
    let clock = &rig.clock;
    let flags = OpenFlags::RDWR | OpenFlags::CREATE;
    let mut fds: Vec<Fd> =
        PATHS.iter().map(|p| cache.open(p, flags, clock).expect("open")).collect();
    fds.push(cache.open(PATHS[SHARED], OpenFlags::RDWR, clock).expect("second descriptor"));

    let mut model = Model::new();
    let (mut entries_of_gone, mut bytes) = (0, 0);
    for (version, &(d, off, len)) in writes.iter().enumerate() {
        let data: Vec<u8> = (0..len).map(|i| (version as u64 * 31 + i * 7 + 1) as u8).collect();
        cache.pwrite(fds[d], &data, off, clock).expect("pwrite");
        model.write(PATHS[d % PATHS.len()], off, &data);
        match d == GONE {
            true => entries_of_gone += entries_of(len),
            false => bytes += len,
        }
    }
    Built { rig, cache, fds, expect: Expect { model, entries, entries_of_gone, bytes } }
}

/// What the power failure leaves: the durable NVMM image and the bases
/// without their un-synced pages, and what a recovery must make of them.
pub struct Crashed {
    pub rig: Rig,
    pub expect: Expect,
}

impl Built {
    /// Unlinks `/hot/gone`, kills the cache without draining, cuts the power.
    pub fn crash(self) -> Crashed {
        let Built { rig, cache, mut expect, .. } = self;
        cache.unlink(PATHS[GONE], &ActorClock::new()).expect("unlink");
        expect.model.unlink(PATHS[GONE]);
        rig.crash(&cache, 0);
        Crashed { rig, expect }
    }
}

impl Crashed {
    /// `Mount::Recover`, `extra` layers on top of every tier.
    pub fn recover(&self, extra: &[Arc<dyn Layer>]) -> IoResult<NvCache> {
        let mut below = self.rig.below.clone();
        below.layers.splice(0..0, extra.iter().cloned());
        self.rig.mount_over(&below, Mount::Recover)
    }

    /// Every file read back through `cache` equals the model, in content
    /// and in size, and the unlinked one stays gone.
    pub fn assert_model(&self, cache: &NvCache, what: &str) {
        self.expect.model.check(cache).unwrap_or_else(|e| panic!("{what}: {e}"));
    }
}
