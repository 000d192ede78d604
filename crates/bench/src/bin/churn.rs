//! Million-file churn: drives a stream of distinct paths through a tiered
//! mount whose migrator catalog is **capacity-bounded**, proving that at
//! 10^6-file scale the sweep stays fast, catalog memory stays flat, and
//! the hot working set keeps its fast-tier placement — including across a
//! crash, where the persisted per-slot heat summaries must carry the hot
//! set's temperature into the recovered mount without a single
//! post-recovery touch.
//!
//! Phases:
//!
//! 1. **Churn** — `--paths` distinct files created, written and closed
//!    through the cache (batched, parked drain, explicit flushes: the run
//!    is virtual-time deterministic). A 64-file working set is re-read
//!    throughout, so its temperature towers over the churn noise. The
//!    resident catalog population is sampled against
//!    `capacity + |hot set|` the whole way.
//! 2. **Sweep** — one `rebalance` over the bounded catalog: wall-clock
//!    time is budgeted (`--sweep-budget-ms`), and the whole hot set must
//!    be promoted onto the fast tier by heat alone (the router sends
//!    everything to the bulk tier).
//! 3. **Crash + recover** — the hot set is reopened and fsynced (stamping
//!    quantized heat into the fd slots), the mount aborts, and a
//!    `Mount::Recover` follows: the persisted summaries must keep the hot
//!    set off the misplaced list, and the first sweep must leave it in
//!    place — placement quality survives the remount with zero
//!    application reads.
//!
//! Usage: `churn [--smoke] [--paths N] [--capacity N] [--seed N]
//!         [--sweep-budget-ms N] [--json PATH]`
//!
//! `--smoke` shrinks the stream to 10^4 paths and runs the experiment
//! twice, asserting both runs reach the identical final virtual clock and
//! counters (the determinism contract CI leans on).

use std::sync::Arc;
use std::time::Instant;

use nvcache::{HeatPolicy, NvCacheConfig, PathPrefixRouter};
use nvcache_bench::rig::{parked, Below, Rig};
use nvcache_bench::{arg_flag, arg_str, arg_u64, print_table, Json, Row};
use simclock::SimTime;
use vfs::{FileSystem, OpenFlags};

/// Files in the hot working set, re-read throughout the churn.
const HOT: usize = 64;
/// Paths created per flush batch (parked drain: zombie-free closes need
/// the flush *before* the batch's closes).
const BATCH: usize = 64;

/// Counters one full run produces — compared verbatim between the two
/// `--smoke` runs.
#[derive(Debug, PartialEq)]
struct RunResult {
    final_clock: SimTime,
    churn_virtual_s: f64,
    evictions: u64,
    readmissions: u64,
    promoted: u64,
    resident_after_churn: usize,
    resident_after_recover: usize,
    misplaced: u64,
}

struct WallTimes {
    churn_ms: u128,
    sweep_ms: u128,
    recover_ms: u128,
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn hot_path(i: usize) -> String {
    format!("/ws/f{i:02}")
}

fn run(paths: usize, capacity: u64, seed: u64, sweep_budget_ms: u128) -> (RunResult, WallTimes) {
    // Parked drain: flushes are explicit, so virtual time is
    // seed-deterministic.
    let cfg = NvCacheConfig {
        nb_entries: 4096,
        read_cache_pages: 256,
        fd_slots: 256,
        ..NvCacheConfig::default()
    };
    let below = Below {
        // No routing rule ever reaches the fast tier: only heat can promote.
        router: Arc::new(PathPrefixRouter::new(vec![], 0)),
        heat: Some(HeatPolicy::new(1, 4.0, 1.0, SimTime::from_secs(3600))),
        catalog_capacity: Some(capacity as usize),
        ..Below::memfs(2)
    };
    let (rig, cache) = Rig::new(parked(cfg), below);
    let (clock, bulk, fast) = (&rig.clock, &rig.below.bases[0], &rig.below.bases[1]);

    // The hot working set, created first, then re-read all run long.
    for i in 0..HOT {
        let fd = cache.open(&hot_path(i), OpenFlags::RDWR | OpenFlags::CREATE, clock).unwrap();
        cache.pwrite(fd, &[0x5A; 64], 0, clock).unwrap();
        cache.flush_log(clock);
        cache.close(fd, clock).unwrap();
    }

    let bound = capacity as usize + HOT;
    let mut rng = seed;
    let mut buf = [0u8; 64];
    let churn_start = Instant::now();
    let mut batch_fds = Vec::with_capacity(BATCH);
    let mut done = 0usize;
    let mut round = 0usize;
    while done < paths {
        let n = BATCH.min(paths - done);
        for i in done..done + n {
            let path = format!("/bulk/f{i}");
            let fd = cache.open(&path, OpenFlags::RDWR | OpenFlags::CREATE, clock).unwrap();
            cache.pwrite(fd, &[i as u8; 64], 0, clock).unwrap();
            batch_fds.push(fd);
        }
        // Drain, then close: a parked cleanup never reaps zombie slots, so
        // closes must find their entries already propagated.
        cache.flush_log(clock);
        for fd in batch_fds.drain(..) {
            cache.close(fd, clock).unwrap();
        }
        // Readmission traffic: re-read one path the clock hand plausibly
        // evicted a few thousand files ago.
        if done > 0 {
            let back = (splitmix(&mut rng) as usize) % done;
            let fd = cache.open(&format!("/bulk/f{back}"), OpenFlags::RDONLY, clock).unwrap();
            cache.pread(fd, &mut buf, 0, clock).unwrap();
            cache.close(fd, clock).unwrap();
        }
        done += n;
        round += 1;
        // Keep the working set glowing: one read pass every 32 batches.
        if round.is_multiple_of(32) {
            for i in 0..HOT {
                let fd = cache.open(&hot_path(i), OpenFlags::RDONLY, clock).unwrap();
                cache.pread(fd, &mut buf, 0, clock).unwrap();
                cache.close(fd, clock).unwrap();
            }
        }
        // The memory bound, sampled under churn.
        if round.is_multiple_of(64) {
            let resident = cache.catalog_resident();
            assert!(
                resident <= bound,
                "{resident} resident > capacity {capacity} + hot {HOT} after {done} paths"
            );
        }
    }
    let churn_ms = churn_start.elapsed().as_millis();
    let churn_virtual = clock.now();
    let resident_after_churn = cache.catalog_resident();
    assert!(resident_after_churn <= bound, "final churn resident {resident_after_churn} > {bound}");

    // Phase 2 — the sweep: sorts only the bounded resident set, promotes
    // the whole hot set, and fits the wall-clock budget.
    let sweep_start = Instant::now();
    let report = cache.rebalance(clock).expect("churn sweep");
    let sweep_ms = sweep_start.elapsed().as_millis();
    assert_eq!(report.files_promoted, HOT, "the whole hot set must be promoted");
    assert!(
        sweep_ms <= sweep_budget_ms,
        "sweep took {sweep_ms} ms over a {resident_after_churn}-entry catalog \
         (budget {sweep_budget_ms} ms)"
    );
    for i in 0..HOT {
        assert!(fast.stat(&hot_path(i), clock).is_ok(), "{} not on the fast tier", hot_path(i));
    }

    // Phase 3 — crash with the hot set open and fsynced (the fsync stamps
    // each slot's quantized heat), then recover: the persisted summaries
    // must hold the hot set on the fast tier.
    let mut hot_fds = Vec::with_capacity(HOT);
    for i in 0..HOT {
        let fd = cache.open(&hot_path(i), OpenFlags::RDWR, clock).unwrap();
        cache.fsync(fd, clock).unwrap();
        hot_fds.push(fd);
    }
    let snap = cache.stats().snapshot();

    let recover_start = Instant::now();
    rig.crash(&cache, 0);
    let cache = rig.recover();
    let recover_ms = recover_start.elapsed().as_millis();
    let report = cache.recovery_report().expect("recover mode");
    assert_eq!(
        report.files_misplaced, 0,
        "persisted heat must keep the hot set off the misplaced list"
    );
    // First post-recovery sweep, zero application touches since the crash:
    // the seeded temperatures alone must keep every hot file in place.
    let sweep = cache.rebalance(clock).expect("post-recovery sweep");
    assert_eq!(sweep.files_migrated, 0, "the recovered hot set must already be converged");
    for i in 0..HOT {
        assert!(
            fast.stat(&hot_path(i), clock).is_ok(),
            "{} lost its fast-tier seat across the crash",
            hot_path(i)
        );
        assert!(bulk.stat(&hot_path(i), clock).is_err(), "{} duplicated on bulk", hot_path(i));
    }
    let resident_after_recover = cache.catalog_resident();
    assert!(resident_after_recover <= bound, "recovered resident {resident_after_recover}");
    cache.shutdown(clock);

    (
        RunResult {
            final_clock: clock.now(),
            churn_virtual_s: churn_virtual.as_secs_f64(),
            evictions: snap.catalog_evictions,
            readmissions: snap.catalog_readmissions,
            promoted: snap.files_promoted,
            resident_after_churn,
            resident_after_recover,
            misplaced: report.files_misplaced as u64,
        },
        WallTimes { churn_ms, sweep_ms, recover_ms },
    )
}

fn main() {
    let smoke = arg_flag("--smoke");
    let paths = arg_u64("--paths", if smoke { 10_000 } else { 1_000_000 }) as usize;
    let capacity = arg_u64("--capacity", 4096);
    let seed = arg_u64("--seed", 42);
    let sweep_budget_ms = arg_u64("--sweep-budget-ms", 2_000) as u128;
    let json_path = arg_str("--json");
    println!(
        "Catalog churn — {} mode: {paths} paths through a {capacity}-entry catalog, \
         {HOT} hot files, seed {seed}",
        if smoke { "smoke" } else { "full" }
    );

    let (result, wall) = run(paths, capacity, seed, sweep_budget_ms);
    let rows = vec![
        Row::new(
            "churn",
            vec![
                format!("{paths}"),
                format!("{}", result.resident_after_churn),
                format!("{}", result.evictions),
                format!("{}", result.readmissions),
                format!("{:.3}", result.churn_virtual_s),
                format!("{}", wall.churn_ms),
            ],
        ),
        Row::new(
            "sweep",
            vec![
                "-".into(),
                format!("{}", result.resident_after_churn),
                "-".into(),
                "-".into(),
                "-".into(),
                format!("{}", wall.sweep_ms),
            ],
        ),
        Row::new(
            "recover",
            vec![
                format!("{HOT}"),
                format!("{}", result.resident_after_recover),
                "-".into(),
                "-".into(),
                "-".into(),
                format!("{}", wall.recover_ms),
            ],
        ),
    ];
    print_table(
        &format!("catalog churn (promoted {}, misplaced {})", result.promoted, result.misplaced),
        &["paths", "resident", "evictions", "readmissions", "virtual s", "wall ms"],
        &rows,
    );

    if smoke {
        let (again, _) = run(paths, capacity, seed, sweep_budget_ms);
        assert_eq!(result, again, "smoke determinism check: two same-seed runs diverged");
        println!("\nsmoke determinism check: OK ({:?})", again.final_clock);
    }

    if let Some(path) = json_path {
        let doc = Json::obj([
            ("benchmark", Json::str("churn")),
            (
                "config",
                Json::obj([
                    ("paths", Json::Int(paths as i64)),
                    ("capacity", Json::Int(capacity as i64)),
                    ("hot_files", Json::Int(HOT as i64)),
                    ("seed", Json::Int(seed as i64)),
                    ("sweep_budget_ms", Json::Int(sweep_budget_ms as i64)),
                    ("smoke", Json::Bool(smoke)),
                ]),
            ),
            (
                "rows",
                Json::Arr(vec![
                    Json::obj([
                        ("phase", Json::str("churn")),
                        ("paths", Json::Int(paths as i64)),
                        ("resident", Json::Int(result.resident_after_churn as i64)),
                        ("catalog_evictions", Json::Int(result.evictions as i64)),
                        ("catalog_readmissions", Json::Int(result.readmissions as i64)),
                        ("elapsed_virtual_s", Json::Num(result.churn_virtual_s)),
                        ("wall_ms", Json::Int(wall.churn_ms as i64)),
                    ]),
                    Json::obj([
                        ("phase", Json::str("sweep")),
                        ("resident", Json::Int(result.resident_after_churn as i64)),
                        ("files_promoted", Json::Int(result.promoted as i64)),
                        ("wall_ms", Json::Int(wall.sweep_ms as i64)),
                    ]),
                    Json::obj([
                        ("phase", Json::str("recover")),
                        ("resident", Json::Int(result.resident_after_recover as i64)),
                        ("files_misplaced", Json::Int(result.misplaced as i64)),
                        ("hot_retained", Json::Int(HOT as i64)),
                        ("wall_ms", Json::Int(wall.recover_ms as i64)),
                    ]),
                ]),
            ),
        ]);
        std::fs::write(&path, doc.render()).expect("write json snapshot");
        println!("\nwrote {path}");
    }
}
