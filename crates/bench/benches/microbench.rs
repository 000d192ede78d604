//! Criterion micro-benchmarks of the NVCache reproduction's hot paths.
//!
//! These measure the *implementation's* wall-clock speed (how fast the
//! simulator executes), complementing the virtual-time figure binaries that
//! measure the *modelled system*. One group per core mechanism:
//!
//! * `log_append`      — Algorithm 1 (fill + group commit) per write size;
//! * `read_path`       — read-cache hit vs miss vs dirty-miss;
//! * `radix`           — descriptor lookup/creation;
//! * `recovery`        — replay cost per log entry;
//! * `engines`         — rocklet put / sqlight insert over tmpfs;
//! * `page_cache`      — write-combining in the kernel page cache model.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use nvcache::{NvCache, NvCacheConfig, Radix};
use nvcache_bench::rig::{parked, Below, Rig};
use nvmm::NvmmProfile;
use simclock::ActorClock;
use vfs::{FileSystem, MemFs, OpenFlags, PageCache, PageCacheConfig};

fn mk_cache(cfg: NvCacheConfig) -> (Rig, NvCache) {
    let nvmm = NvmmProfile::optane().without_durability_tracking();
    Rig::new(cfg, Below { nvmm, ..Below::memfs(1) })
}

fn bench_log_append(c: &mut Criterion) {
    let mut g = c.benchmark_group("log_append");
    for size in [128usize, 4096, 65536] {
        let (rig, cache) =
            mk_cache(parked(NvCacheConfig { nb_entries: 1 << 16, ..NvCacheConfig::tiny() }));
        let clock = &rig.clock;
        let fd = cache.open("/bench", OpenFlags::RDWR | OpenFlags::CREATE, clock).unwrap();
        let data = vec![7u8; size];
        let mut off = 0u64;
        g.throughput(Throughput::Bytes(size as u64));
        g.bench_function(format!("pwrite_{size}B"), |b| {
            b.iter(|| {
                // Wrap within the log capacity comfortably.
                off = (off + size as u64) % (1 << 26);
                cache.pwrite(fd, &data, off, clock).unwrap();
                if cache.pending_entries() > (1 << 15) {
                    cache.flush_log(clock);
                }
            })
        });
        cache.shutdown(clock);
    }
    g.finish();
}

fn bench_read_path(c: &mut Criterion) {
    let mut g = c.benchmark_group("read_path");
    // Hit: loaded page.
    {
        let (rig, cache) = mk_cache(NvCacheConfig::tiny());
        let clock = &rig.clock;
        let fd = cache.open("/hit", OpenFlags::RDWR | OpenFlags::CREATE, clock).unwrap();
        cache.pwrite(fd, &[1u8; 4096], 0, clock).unwrap();
        let mut buf = [0u8; 4096];
        cache.pread(fd, &mut buf, 0, clock).unwrap(); // load it
        g.bench_function("hit_4k", |b| b.iter(|| cache.pread(fd, &mut buf, 0, clock).unwrap()));
        cache.shutdown(clock);
    }
    // Dirty miss: unloaded page with pending entries (tiny pool forces
    // eviction before each read).
    {
        let cfg =
            NvCacheConfig { read_cache_pages: 1, nb_entries: 1 << 14, ..NvCacheConfig::tiny() };
        let (rig, cache) = mk_cache(parked(cfg));
        let clock = &rig.clock;
        let fd = cache.open("/dm", OpenFlags::RDWR | OpenFlags::CREATE, clock).unwrap();
        for p in 0..64u64 {
            cache.pwrite(fd, &[p as u8; 4096], p * 4096, clock).unwrap();
        }
        let mut buf = [0u8; 4096];
        let mut p = 0u64;
        g.bench_function("dirty_miss_4k", |b| {
            b.iter(|| {
                p = (p + 1) % 64;
                cache.pread(fd, &mut buf, p * 4096, clock).unwrap()
            })
        });
        cache.shutdown(clock);
    }
    g.finish();
}

fn bench_radix(c: &mut Criterion) {
    let mut g = c.benchmark_group("radix");
    g.bench_function("get_or_create_cold", |b| {
        b.iter_batched(
            || Radix::new(1),
            |r| {
                for p in 0..256u64 {
                    r.get_or_create(p * 977);
                }
                r
            },
            BatchSize::SmallInput,
        )
    });
    let warm = Radix::new(1);
    for p in 0..4096u64 {
        warm.get_or_create(p);
    }
    let mut p = 0u64;
    g.bench_function("get_warm", |b| {
        b.iter(|| {
            p = (p + 1) % 4096;
            warm.get(p).expect("present")
        })
    });
    g.finish();
}

fn bench_recovery(c: &mut Criterion) {
    let mut g = c.benchmark_group("recovery");
    g.bench_function("replay_1k_entries", |b| {
        b.iter_batched(
            || {
                let cfg = parked(NvCacheConfig { nb_entries: 2048, ..NvCacheConfig::tiny() });
                let (rig, cache) = Rig::new(cfg, Below::memfs(1));
                let clock = &rig.clock;
                let fd = cache.open("/r", OpenFlags::RDWR | OpenFlags::CREATE, clock).unwrap();
                for i in 0..1024u64 {
                    cache.pwrite(fd, &[i as u8; 512], i * 512, clock).unwrap();
                }
                cache.abort();
                rig
            },
            |rig| {
                rig.power_cut(0);
                let cache = rig.recover();
                let report = cache.recovery_report().expect("recover mode");
                assert_eq!(report.entries_replayed, 1024);
                cache.abort();
            },
            BatchSize::LargeInput,
        )
    });
    g.finish();
}

fn bench_engines(c: &mut Criterion) {
    let mut g = c.benchmark_group("engines");
    {
        let clock = ActorClock::new();
        let fs: Arc<dyn FileSystem> = Arc::new(MemFs::new());
        let db = rocklet::RockletDb::open(fs, "/rock", rocklet::RockletOptions::default(), &clock)
            .unwrap();
        let wo = rocklet::WriteOptions { sync: true };
        let mut i = 0u64;
        g.bench_function("rocklet_put_sync", |b| {
            b.iter(|| {
                i += 1;
                db.put(&rocklet::bench_key(i), &[3u8; 100], &wo, &clock).unwrap()
            })
        });
    }
    {
        let clock = ActorClock::new();
        let fs: Arc<dyn FileSystem> = Arc::new(MemFs::new());
        let db =
            sqlight::SqlightDb::open(fs, "/sql.db", sqlight::SqlightOptions::default(), &clock)
                .unwrap();
        db.create_table("kv", &clock).unwrap();
        let mut i = 0i64;
        g.bench_function("sqlight_insert_txn", |b| {
            b.iter(|| {
                i += 1;
                db.insert("kv", i, &[5u8; 100], &clock).unwrap()
            })
        });
    }
    g.finish();
}

fn bench_page_cache(c: &mut Criterion) {
    let mut g = c.benchmark_group("page_cache");
    let pc = PageCache::new(PageCacheConfig::default());
    pc.insert(1, 0, &[0u8; 4096], true);
    let mut i = 0usize;
    g.bench_function("combine_update", |b| {
        b.iter(|| {
            i = (i + 64) % 4096;
            pc.update(1, 0, i, &[9u8; 64])
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_log_append,
    bench_read_path,
    bench_radix,
    bench_recovery,
    bench_engines,
    bench_page_cache
);
criterion_main!(benches);
