//! Seeded-determinism and end-to-end smoke tests for the traffic engine:
//! two runs with the same seed over identical fresh mounts must produce a
//! byte-identical trace, the same final virtual clock and equal latency
//! distributions.

use std::sync::Arc;

use blockdev::{SsdDevice, SsdProfile};
use nvcache::{NvCache, NvCacheConfig};
use nvcache_bench::rig::{ext4_on, parked, Below, Rig};
use nvmm::NvmmProfile;
use simclock::SimTime;
use traffic::{
    Arrival, Burst, EngineConfig, OpMix, SizeDist, TenantKind, TenantSpec, TenantTrace,
    TrafficTarget,
};
use vfs::MemFs;

/// A fresh parked-cleanup NVCache over ext4+SSD: background cleanup never
/// fires, so the engine's explicit `flush_log` points fully determine
/// virtual time.
fn fresh_mount() -> (Rig, Arc<NvCache>) {
    let cfg = NvCacheConfig { nb_entries: 8 * 1024, fd_slots: 512, ..NvCacheConfig::default() };
    let ssd = Arc::new(SsdDevice::new(SsdProfile::s4600().timing_only()));
    let below = Below { nvmm: NvmmProfile::optane(), ..Below::over(vec![ext4_on(ssd)]) };
    let (rig, cache) = Rig::new(parked(cfg), below);
    (rig, Arc::new(cache))
}

fn mixed_specs() -> Vec<TenantSpec> {
    vec![
        TenantSpec {
            name: "rock-wal".into(),
            prefix: "/rock".into(),
            kind: TenantKind::Rocklet { keys: 64 },
            mix: OpMix { read_pct: 20, fsync_every: 1 },
            arrival: Arrival::ClosedLoop { concurrency: 2 },
            theta: 0.9,
            ops: 150,
            size: SizeDist::Fixed(256),
        },
        TenantSpec {
            name: "sql-txn".into(),
            prefix: "/sql".into(),
            kind: TenantKind::Sqlight { rows: 48 },
            mix: OpMix { read_pct: 60, fsync_every: 1 },
            arrival: Arrival::OpenLoop {
                rate_ops_per_sec: 3_000.0,
                workers: 2,
                burst: Some(Burst { on: SimTime::from_millis(20), off: SimTime::from_millis(20) }),
            },
            theta: 0.7,
            ops: 120,
            size: SizeDist::Uniform { min: 64, max: 512 },
        },
        TenantSpec {
            name: "fs-scan".into(),
            prefix: "/scan".into(),
            kind: TenantKind::RawFs { files: 4, file_size: 256 << 10 },
            mix: OpMix { read_pct: 90, fsync_every: 8 },
            arrival: Arrival::ClosedLoop { concurrency: 2 },
            theta: 0.5,
            ops: 150,
            size: SizeDist::Choice(vec![(4 << 10, 3), (64 << 10, 1)]),
        },
    ]
}

#[test]
fn same_seed_same_trace_same_virtual_time() {
    let specs = mixed_specs();
    let cfg = EngineConfig { seed: 42, flush_every: 64, ..EngineConfig::default() };

    let run_once = || {
        let (rig, cache) = fresh_mount();
        let clock = &rig.clock;
        let target = TrafficTarget::nvcache(Arc::clone(&cache));
        let cfg = EngineConfig { start: clock.now(), ..cfg };
        let report = traffic::run(&target, &specs, &cfg).expect("traffic run");
        cache.shutdown(clock);
        report
    };

    // The generated traces must be byte-identical per seed.
    for spec in &specs {
        let a = TenantTrace::generate(spec, spec.derive_seed(cfg.seed)).encode();
        let b = TenantTrace::generate(spec, spec.derive_seed(cfg.seed)).encode();
        assert_eq!(a, b, "trace generation must be deterministic for {}", spec.name);
        assert!(!a.is_empty());
    }

    let r1 = run_once();
    let r2 = run_once();
    assert_eq!(
        r1.final_clock, r2.final_clock,
        "two runs with the same seed must reach the same final virtual clock"
    );
    assert_eq!(r1.started, r2.started);
    assert_eq!(r1.tenants.len(), r2.tenants.len());
    for (a, b) in r1.tenants.iter().zip(&r2.tenants) {
        assert_eq!(a, b, "tenant {} report must be identical across runs", a.name);
    }

    // And a different seed must actually change the outcome.
    let (rig, cache) = fresh_mount();
    let clock = &rig.clock;
    let target = TrafficTarget::nvcache(Arc::clone(&cache));
    let other = EngineConfig { seed: 43, start: clock.now(), ..cfg };
    let r3 = traffic::run(&target, &specs, &other).expect("traffic run");
    cache.shutdown(clock);
    assert_ne!(r1.final_clock, r3.final_clock, "a different seed should perturb virtual time");
}

#[test]
fn reports_cover_all_tenants_and_ops() {
    let specs = mixed_specs();
    let (rig, cache) = fresh_mount();
    let clock = &rig.clock;
    let target = TrafficTarget::nvcache(Arc::clone(&cache));
    let cfg = EngineConfig { seed: 7, flush_every: 32, start: clock.now() };
    let report = traffic::run(&target, &specs, &cfg).expect("traffic run");
    cache.shutdown(clock);

    assert_eq!(report.tenants.len(), specs.len());
    for (spec, t) in specs.iter().zip(&report.tenants) {
        assert_eq!(t.name, spec.name);
        assert_eq!(t.ops, spec.ops, "tenant {} must complete its whole trace", spec.name);
        let tail = t.tail();
        assert!(tail.p50 <= tail.p99 && tail.p99 <= tail.p999);
        assert!(tail.p999 > simclock::SimTime::ZERO);
        assert!(t.achieved_ops_per_sec > 0.0);
    }
    assert!(report.elapsed() > simclock::SimTime::ZERO);
    assert_eq!(report.merged().count(), specs.iter().map(|s| s.ops).sum::<u64>());
    // Open-loop tenant carries its offered rate; closed-loop ones don't.
    assert!(report.tenants[1].offered_ops_per_sec.is_some());
    assert!(report.tenants[0].offered_ops_per_sec.is_none());
    assert!(report.tenants[1].saturation_ratio() > 0.0);
}

#[test]
fn engine_runs_on_a_plain_memfs_too() {
    let specs = vec![TenantSpec {
        name: "mem".into(),
        prefix: "/m".into(),
        kind: TenantKind::RawFs { files: 2, file_size: 64 << 10 },
        mix: OpMix { read_pct: 50, fsync_every: 0 },
        arrival: Arrival::ClosedLoop { concurrency: 1 },
        theta: 0.0,
        ops: 50,
        size: SizeDist::Fixed(4096),
    }];
    let target = TrafficTarget::plain(Arc::new(MemFs::new()));
    let report = traffic::run(&target, &specs, &EngineConfig::default()).expect("memfs run");
    assert_eq!(report.tenants[0].ops, 50);
}
