//! Property-based crash testing: random operation sequences, random crash
//! points, random cache-line eviction draws, random log-stripe counts —
//! every acknowledged write must be recovered, byte for byte, and a striped
//! log must recover exactly the same state as the single-shard oracle.

use std::collections::BTreeMap;

use nvcache_repro::nvcache::NvCacheConfig;
use nvcache_repro::nvmm::NvmmProfile;
use nvcache_repro::vfs::{FileSystem, OpenFlags};
use proptest::prelude::*;

use nvcache_bench::rig::{parked, read_all, Below, Model, Rig};

#[derive(Debug, Clone)]
enum Op {
    /// (file index 0..3, offset, payload byte, length)
    Write(u8, u16, u8, u16),
    /// (file index, offset, length)
    Read(u8, u16, u16),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..3u8, 0..8192u16, 1..255u8, 1..2048u16).prop_map(|(f, o, b, l)| Op::Write(f, o, b, l)),
        (0..3u8, 0..8192u16, 1..2048u16).prop_map(|(f, o, l)| Op::Read(f, o, l)),
    ]
}

/// File `f`'s path.
fn path(f: u8) -> String {
    format!("/f{f}")
}

/// Runs `ops` against a fresh NVCache with `log_shards` stripes, crashes,
/// recovers, and returns the recovered content of every file the model
/// knows. Read-your-writes is asserted against `model` along the way.
fn run_crash_scenario(
    ops: &[Op],
    crash_seed: u64,
    eviction: f64,
    log_shards: usize,
    model: &mut Model,
) -> BTreeMap<String, Option<Vec<u8>>> {
    // Everything stays in the log.
    let cfg = parked(NvCacheConfig {
        nb_entries: 512,
        fd_slots: 8,
        read_cache_pages: 4,
        log_shards,
        ..NvCacheConfig::default()
    });
    let nvmm = NvmmProfile::instant().with_eviction_probability(eviction);
    let (rig, cache) = Rig::new(cfg, Below { nvmm, ..Below::ext4(1) });
    let clock = &rig.clock;

    let mut fds = BTreeMap::new();
    for f in 0..3u8 {
        let fd = cache.open(&path(f), OpenFlags::RDWR | OpenFlags::CREATE, clock).expect("open");
        fds.insert(f, fd);
    }
    for op in ops {
        match *op {
            Op::Write(f, off, byte, len) => {
                let buf = vec![byte; len as usize];
                cache.pwrite(fds[&f], &buf, off as u64, clock).expect("pwrite");
                model.write(&path(f), off as u64, &buf);
            }
            Op::Read(f, off, len) => {
                let mut buf = vec![0u8; len as usize];
                let n = cache.pread(fds[&f], &mut buf, off as u64, clock).expect("pread");
                // Read-your-writes against the model.
                let expect = model.read(&path(f), off as u64, len as usize);
                assert_eq!(n, expect.len(), "short read mismatch ({log_shards} shards)");
                assert_eq!(buf[..n], expect, "read-your-writes violated ({log_shards} shards)");
            }
        }
    }

    // Crash + recover. Under `pmcheck`, first audit the run's post-mortem
    // registries: every random op sequence must leave both checkers silent.
    #[cfg(feature = "pmcheck")]
    {
        assert!(cache.pm_violations().is_empty(), "{:?}", cache.pm_violations());
        assert!(cache.lock_order_violations().is_empty(), "{:?}", cache.lock_order_violations());
    }
    rig.crash(&cache, crash_seed);
    let recovered = rig.recover();
    let contents = model.files().into_iter().map(|f| (read_all(&recovered, &f), f));
    let contents = contents.map(|(content, f)| (f, content)).collect();
    #[cfg(feature = "pmcheck")]
    assert!(recovered.pm_violations().is_empty(), "{:?}", recovered.pm_violations());
    recovered.shutdown(clock);
    contents
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn recovery_restores_every_acknowledged_write(
        ops in proptest::collection::vec(op_strategy(), 1..60),
        crash_seed in 0..1000u64,
        eviction in prop_oneof![Just(0.0f64), Just(0.3), Just(0.9)],
        log_shards in prop_oneof![Just(1usize), Just(2), Just(4), Just(8)],
    ) {
        let mut model = Model::new();
        let recovered =
            run_crash_scenario(&ops, crash_seed, eviction, log_shards, &mut model);
        for (f, content) in &recovered {
            prop_assert_eq!(
                content, &model.content(f),
                "file {} content lost ({} shards)", f, log_shards
            );
        }
    }

    #[test]
    fn sharded_recovery_equals_the_single_shard_oracle(
        ops in proptest::collection::vec(op_strategy(), 1..60),
        crash_seed in 0..1000u64,
        log_shards in prop_oneof![Just(2usize), Just(4), Just(8)],
    ) {
        // The same operation sequence, crashed and recovered on a striped
        // log and on the paper's single log, must converge to identical
        // file contents: the k-way merge by global sequence number is
        // observationally equivalent to the seed's in-order replay.
        let mut model = Model::new();
        let sharded = run_crash_scenario(&ops, crash_seed, 0.3, log_shards, &mut model);
        let mut oracle_model = Model::new();
        let oracle = run_crash_scenario(&ops, crash_seed, 0.3, 1, &mut oracle_model);
        prop_assert_eq!(&sharded, &oracle, "{} shards diverged from oracle", log_shards);
    }
}
