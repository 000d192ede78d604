//! Seeded random logs for the replay tests, shared by the root suite
//! (`tests/recovery_replay.rs`, through the public API) and the core
//! crate's own (`crates/core/src/replay_tests.rs`, which can also run the
//! `#[cfg(test)]` per-entry reference replayer). The including module
//! brings the core crate into scope as `nvcache` (`use crate as nvcache;`
//! inside the crate).
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

use blockdev::{SsdDevice, SsdProfile};
use nvmm::{NvDimm, NvRegion, NvmmProfile};
use simclock::ActorClock;
use vfs::{CryptLayer, Ext4, Ext4Profile, Fd, FileSystem, Layer, OpenFlags};

use super::nvcache::{
    LayeredTier, Mount, NvCache, NvCacheBuilder, NvCacheConfig, PathPrefixRouter, Tiering,
};

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

/// The acknowledged content of every surviving file.
pub type Model = BTreeMap<String, Vec<u8>>;

fn model_write(model: &mut Model, path: &str, off: u64, data: &[u8]) {
    let file = model.entry(path.to_string()).or_default();
    let end = off as usize + data.len();
    if file.len() < end {
        file.resize(end, 0);
    }
    file[off as usize..end].copy_from_slice(data);
}

/// The stack below the cache: base file systems that survive a crash, and
/// how to stack and mount over them.
pub struct Below {
    pub cfg: NvCacheConfig,
    /// One `Ext4` over an SSD per tier: un-synced pages die with the power.
    pub bases: Vec<Arc<dyn FileSystem>>,
    shape: Shape,
}

impl Below {
    /// A stack whose log takes `entries` without any stripe filling: the
    /// workers are parked, and a full stripe would wake one.
    fn new(shape: Shape, entries: u64) -> Below {
        // One stripe takes exactly its entries; several get four times the
        // total, however unevenly the hash spreads them.
        let room = if shape.stripes == 1 { entries + 1 } else { 4 * entries };
        let cfg = NvCacheConfig {
            entry_size: shape.entry_size,
            nb_entries: room.next_multiple_of(64),
            batch_min: usize::MAX >> 1,
            batch_max: usize::MAX >> 1,
            fd_slots: 8,
            read_cache_pages: 16,
            ..NvCacheConfig::default()
        }
        .with_log_shards(shape.stripes);
        let tiers = if shape.tiered { 2 } else { 1 };
        let bases = (0..tiers)
            .map(|t| {
                let ssd = Arc::new(SsdDevice::new(SsdProfile::s4600()));
                Arc::new(Ext4::new(format!("ext4-{t}"), ssd, Ext4Profile::default())) as _
            })
            .collect();
        Below { cfg, bases, shape }
    }

    /// A builder over `region` with this stack, `extra` layers on top of
    /// every tier (a `FaultLayer`, say).
    pub fn builder(&self, region: NvRegion, extra: &[Arc<dyn Layer>]) -> NvCacheBuilder {
        NvCache::builder(region).tiers(self.tiering(extra)).config(self.cfg.clone())
    }

    /// The tiers as the cache mounts them, `extra` layers on top of each.
    pub fn tiering(&self, extra: &[Arc<dyn Layer>]) -> Tiering {
        let tiers: Vec<LayeredTier> = self
            .bases
            .iter()
            .map(|base| {
                let mut layers = extra.to_vec();
                if self.shape.crypt {
                    layers.push(Arc::new(CryptLayer::new(CRYPT_KEY)));
                }
                (layers, Arc::clone(base))
            })
            .collect();
        let hot = self.bases.len() - 1; // 0 on a single tier: everything is "cold"
        Tiering::layered(Arc::new(PathPrefixRouter::new(vec![("/hot".into(), hot)], 0)), tiers)
    }

    /// Every file of every base — sidecars included — as stored: what two
    /// replays of twin logs must agree on byte for byte.
    pub fn raw_image(&self) -> BTreeMap<(usize, String), Vec<u8>> {
        let clock = ActorClock::new();
        let mut image = BTreeMap::new();
        for (tier, base) in self.bases.iter().enumerate() {
            for dir in ["/cold", "/hot"] {
                for path in base.list_dir(dir, &clock).unwrap_or_default() {
                    let content = read_all(base.as_ref(), &path);
                    image.insert((tier, path), content);
                }
            }
        }
        image
    }
}

/// The whole of `path` as `fs` returns it.
pub fn read_all(fs: &dyn FileSystem, path: &str) -> Vec<u8> {
    let clock = ActorClock::new();
    let fd = fs.open(path, OpenFlags::RDONLY, &clock).expect("open for reading");
    let mut content = vec![0u8; fs.fstat(fd, &clock).expect("fstat").size as usize];
    let mut got = 0;
    while got < content.len() {
        let n = fs.pread(fd, &mut content[got..], got as u64, &clock).expect("pread");
        assert!(n > 0, "{path}: short read at {got}");
        got += n;
    }
    fs.close(fd, &clock).expect("close");
    content
}

/// What a log must leave behind once replayed.
#[derive(Debug, Clone)]
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
    pub below: Below,
    pub dimm: Arc<NvDimm>,
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

    let below = Below::new(shape, entries);
    let clock = ActorClock::new();
    let dimm = Arc::new(NvDimm::new(below.cfg.required_nvmm_bytes(), NvmmProfile::instant()));
    let cache = below
        .builder(NvRegion::whole(Arc::clone(&dimm)), &[])
        .mount(&clock)
        .expect("format mount");
    let flags = OpenFlags::RDWR | OpenFlags::CREATE;
    let mut fds: Vec<Fd> =
        PATHS.iter().map(|p| cache.open(p, flags, &clock).expect("open")).collect();
    fds.push(cache.open(PATHS[SHARED], OpenFlags::RDWR, &clock).expect("second descriptor"));

    let mut model = Model::new();
    let (mut entries_of_gone, mut bytes) = (0, 0);
    for (version, &(d, off, len)) in writes.iter().enumerate() {
        let data: Vec<u8> = (0..len).map(|i| (version as u64 * 31 + i * 7 + 1) as u8).collect();
        cache.pwrite(fds[d], &data, off, &clock).expect("pwrite");
        if d == GONE {
            entries_of_gone += entries_of(len);
        } else {
            bytes += len;
            model_write(&mut model, PATHS[d % PATHS.len()], off, &data);
        }
    }
    Built { below, dimm, cache, fds, expect: Expect { model, entries, entries_of_gone, bytes } }
}

/// What the power failure leaves: the durable NVMM image and the bases
/// without their un-synced pages.
pub struct Crashed {
    pub below: Below,
    pub dimm: Arc<NvDimm>,
    pub expect: Expect,
}

impl Built {
    /// Unlinks `/hot/gone`, kills the cache without draining, cuts the power.
    pub fn crash(self) -> Crashed {
        let Built { below, dimm, cache, expect, .. } = self;
        cache.unlink(PATHS[GONE], &ActorClock::new()).expect("unlink");
        cache.abort();
        drop(cache);
        Crashed { below, dimm, expect }.crash_again()
    }
}

impl Crashed {
    /// The power goes (again): the bases lose their un-synced pages, the
    /// DIMM everything that was not flushed.
    pub fn crash_again(self) -> Crashed {
        for base in &self.below.bases {
            base.simulate_power_failure();
        }
        Crashed { dimm: Arc::new(self.dimm.crash_and_restart()), ..self }
    }

    /// `Mount::Recover` through the builder, `extra` layers on every tier.
    pub fn recover(&self, extra: &[Arc<dyn Layer>]) -> vfs::IoResult<NvCache> {
        self.below
            .builder(NvRegion::whole(Arc::clone(&self.dimm)), extra)
            .mode(Mount::Recover)
            .mount(&ActorClock::new())
    }

    /// Every surviving file read back through `cache` equals the model, in
    /// content and in size, and the unlinked one stays gone.
    pub fn assert_model(&self, cache: &NvCache, what: &str) {
        for (path, expect) in &self.expect.model {
            assert!(read_all(cache, path) == *expect, "{what}: {path} differs from the model");
        }
        assert!(cache.stat(PATHS[GONE], &ActorClock::new()).is_err(), "{what}: resurrected");
    }
}
