//! Multi-tenant traffic engine snapshots: replays two deterministic tenant
//! mixes against fresh NVCache+SSD mounts and sweeps an open-loop tenant's
//! offered rate to find the saturation knee.
//!
//! Usage: `traffic [--smoke] [--seed N] [--ops N] [--scale N] [--json PATH]`
//!
//! * `--smoke` — seconds-scale run for CI: shrinks op counts and the rate
//!   ladder, and replays the first mix twice asserting the two runs land on
//!   the same final virtual clock (the engine's determinism contract).
//! * `--json PATH` — writes the machine-readable snapshot, e.g. the
//!   committed `BENCH_traffic.json`.
//!
//! Every mount parks NVCache's background cleanup (`rig::parked`) and lets
//! the engine drain the log at fixed op counts, so virtual-time results are
//! exactly reproducible per seed.

use nvcache::NvCacheConfig;
use nvcache_bench::rig::parked;
use nvcache_bench::{
    arg_flag, arg_str, arg_u64, build_system, print_table, CommonArgs, Json, Row, SystemKind,
    SystemSpec,
};
use simclock::{ActorClock, SimTime};
use traffic::{
    Arrival, Burst, EngineConfig, OpMix, SizeDist, TenantKind, TenantSpec, TrafficReport,
    TrafficTarget,
};

/// A named tenant mix.
struct Mix {
    name: &'static str,
    tenants: Vec<TenantSpec>,
}

/// OLTP-flavoured mix: WAL-heavy LSM writes, synchronous SQL transactions
/// and a read-mostly file scanner sharing one mount.
fn mix_oltp(ops: u64) -> Mix {
    Mix {
        name: "oltp",
        tenants: vec![
            TenantSpec {
                name: "rock-wal".into(),
                prefix: "/rock".into(),
                kind: TenantKind::Rocklet { keys: 256 },
                mix: OpMix { read_pct: 20, fsync_every: 1 },
                arrival: Arrival::ClosedLoop { concurrency: 2 },
                theta: 0.9,
                ops,
                size: SizeDist::Fixed(256),
            },
            TenantSpec {
                name: "sql-txn".into(),
                prefix: "/sql".into(),
                kind: TenantKind::Sqlight { rows: 128 },
                mix: OpMix { read_pct: 50, fsync_every: 1 },
                arrival: Arrival::OpenLoop { rate_ops_per_sec: 2_000.0, workers: 2, burst: None },
                theta: 0.7,
                ops,
                size: SizeDist::Uniform { min: 64, max: 512 },
            },
            TenantSpec {
                name: "fs-scan".into(),
                prefix: "/scan".into(),
                kind: TenantKind::RawFs { files: 8, file_size: 512 << 10 },
                mix: OpMix { read_pct: 90, fsync_every: 8 },
                arrival: Arrival::ClosedLoop { concurrency: 2 },
                theta: 0.6,
                ops,
                size: SizeDist::Choice(vec![(4 << 10, 3), (64 << 10, 1)]),
            },
        ],
    }
}

/// Bursty read-dominated mix: a zipf-hot open-loop reader with on/off
/// phases next to a closed-loop LSM point-lookup tenant.
fn mix_bursty_read(ops: u64) -> Mix {
    Mix {
        name: "bursty-read",
        tenants: vec![
            TenantSpec {
                name: "hot-read".into(),
                prefix: "/hot".into(),
                kind: TenantKind::RawFs { files: 16, file_size: 256 << 10 },
                mix: OpMix { read_pct: 100, fsync_every: 0 },
                arrival: Arrival::OpenLoop {
                    rate_ops_per_sec: 8_000.0,
                    workers: 4,
                    burst: Some(Burst {
                        on: SimTime::from_millis(10),
                        off: SimTime::from_millis(30),
                    }),
                },
                theta: 0.95,
                ops,
                size: SizeDist::Fixed(4096),
            },
            TenantSpec {
                name: "rock-read".into(),
                prefix: "/rockr".into(),
                kind: TenantKind::Rocklet { keys: 512 },
                mix: OpMix { read_pct: 90, fsync_every: 0 },
                arrival: Arrival::ClosedLoop { concurrency: 2 },
                theta: 0.8,
                ops,
                size: SizeDist::Fixed(128),
            },
        ],
    }
}

/// The open-loop tenant whose offered rate the saturation sweep ladders.
fn saturation_tenant(ops: u64, rate: f64) -> TenantSpec {
    TenantSpec {
        name: "fs-mixed".into(),
        prefix: "/sat".into(),
        kind: TenantKind::RawFs { files: 8, file_size: 256 << 10 },
        mix: OpMix { read_pct: 50, fsync_every: 4 },
        arrival: Arrival::OpenLoop { rate_ops_per_sec: rate, workers: 2, burst: None },
        theta: 0.8,
        ops,
        size: SizeDist::Fixed(8 << 10),
    }
}

/// Builds a fresh parked-cleanup NVCache+SSD mount and runs the tenants.
fn run_on_fresh_mount(tenants: &[TenantSpec], seed: u64, scale: u64) -> TrafficReport {
    let clock = ActorClock::new();
    let cfg = NvCacheConfig { nb_entries: 64 * 1024, fd_slots: 1024, ..NvCacheConfig::default() };
    // Content must be kept (no `timing_only()`): the DB tenants read back
    // their own SSTables/pages through the cache.
    let spec = SystemSpec::new(SystemKind::NvcacheSsd, scale).with_nvcache_cfg(parked(cfg));
    let sys = build_system(&spec, &clock);
    let nc = sys.nvcache.clone().expect("nvcache system");
    let target = TrafficTarget::nvcache(nc);
    let engine_cfg = EngineConfig { seed, flush_every: 256, start: clock.now() };
    let report = traffic::run(&target, tenants, &engine_cfg).expect("traffic run");
    sys.shutdown(&clock);
    report
}

fn kind_label(spec: &TenantSpec) -> &'static str {
    match spec.kind {
        TenantKind::RawFs { .. } => "rawfs",
        TenantKind::Rocklet { .. } => "rocklet",
        TenantKind::Sqlight { .. } => "sqlight",
    }
}

fn main() {
    let smoke = arg_flag("--smoke");
    let seed = arg_u64("--seed", 42);
    let scale = CommonArgs::parse().scale;
    let default_ops = if smoke { 120 } else { 600 };
    let ops = arg_u64("--ops", default_ops);
    let json_path = arg_str("--json");
    println!(
        "Traffic engine — {} mode, seed {seed}, {ops} ops/tenant, scale 1/{scale}",
        if smoke { "smoke" } else { "full" }
    );

    let mixes = vec![mix_oltp(ops), mix_bursty_read(ops)];
    let mut json_mixes = Vec::new();
    let mut first_final_clock = None;
    for mix in &mixes {
        let report = run_on_fresh_mount(&mix.tenants, seed, scale);
        if first_final_clock.is_none() {
            first_final_clock = Some(report.final_clock);
        }
        let mut rows = Vec::new();
        let mut json_tenants = Vec::new();
        for (spec, t) in mix.tenants.iter().zip(&report.tenants) {
            let [p50, p99, p999] = t.tail().micros();
            rows.push(Row::new(
                t.name.clone(),
                vec![
                    kind_label(spec).into(),
                    format!("{}", t.ops),
                    format!("{p50:.1}"),
                    format!("{p99:.1}"),
                    format!("{p999:.1}"),
                    format!("{:.0}", t.achieved_ops_per_sec),
                    t.offered_ops_per_sec.map_or("closed".into(), |r| format!("{r:.0}")),
                ],
            ));
            json_tenants.push(Json::obj([
                ("name", Json::str(t.name.clone())),
                ("kind", Json::str(kind_label(spec))),
                ("ops", Json::Int(t.ops as i64)),
                ("p50_us", Json::Num(p50)),
                ("p99_us", Json::Num(p99)),
                ("p999_us", Json::Num(p999)),
                ("achieved_ops_s", Json::Num(t.achieved_ops_per_sec)),
                ("offered_ops_s", t.offered_ops_per_sec.map_or(Json::Null, Json::Num)),
                ("saturation_ratio", Json::Num(t.saturation_ratio())),
            ]));
        }
        print_table(
            &format!("mix {} ({:.3} virtual s)", mix.name, report.elapsed().as_secs_f64()),
            &["kind", "ops", "p50 µs", "p99 µs", "p999 µs", "achieved op/s", "offered op/s"],
            &rows,
        );
        json_mixes.push(Json::obj([
            ("name", Json::str(mix.name)),
            ("elapsed_virtual_s", Json::Num(report.elapsed().as_secs_f64())),
            ("tenants", Json::Arr(json_tenants)),
        ]));
    }

    if smoke {
        // Determinism proof: replay the first mix and require the exact
        // same final virtual clock.
        let again = run_on_fresh_mount(&mixes[0].tenants, seed, scale);
        assert_eq!(
            Some(again.final_clock),
            first_final_clock,
            "smoke determinism check: two same-seed runs diverged"
        );
        println!("\nsmoke determinism check: OK ({:?})", again.final_clock);
    }

    // ---- Saturation sweep: offered-rate ladder on a fresh mount each. ----
    let ladder: &[f64] = if smoke {
        &[1_000.0, 8_000.0]
    } else {
        &[1_000.0, 4_000.0, 16_000.0, 64_000.0, 256_000.0, 1_000_000.0]
    };
    let sat_ops = ops.min(400);
    let mut sat_rows = Vec::new();
    let mut json_ladder = Vec::new();
    let mut knee = None;
    for &rate in ladder {
        let spec = saturation_tenant(sat_ops, rate);
        let report = run_on_fresh_mount(std::slice::from_ref(&spec), seed, scale);
        let t = &report.tenants[0];
        let ratio = t.saturation_ratio();
        let p99 = t.tail().p99.as_micros_f64();
        if knee.is_none() && ratio < 0.95 {
            knee = Some(rate);
        }
        sat_rows.push(Row::new(
            format!("{rate:.0} op/s"),
            vec![
                format!("{:.0}", t.achieved_ops_per_sec),
                format!("{ratio:.3}"),
                format!("{p99:.1}"),
            ],
        ));
        json_ladder.push(Json::obj([
            ("offered_ops_s", Json::Num(rate)),
            ("achieved_ops_s", Json::Num(t.achieved_ops_per_sec)),
            ("ratio", Json::Num(ratio)),
            ("p99_us", Json::Num(p99)),
        ]));
    }
    print_table(
        &format!(
            "saturation sweep (fs-mixed, knee {} op/s)",
            knee.map_or("none".into(), |k| format!("{k:.0}"))
        ),
        &["achieved op/s", "achieved/offered", "p99 µs"],
        &sat_rows,
    );

    if let Some(path) = json_path {
        let doc = Json::obj([
            ("benchmark", Json::str("traffic")),
            (
                "config",
                Json::obj([
                    ("seed", Json::Int(seed as i64)),
                    ("scale", Json::Int(scale as i64)),
                    ("ops_per_tenant", Json::Int(ops as i64)),
                    ("flush_every", Json::Int(256)),
                    ("smoke", Json::Bool(smoke)),
                ]),
            ),
            ("mixes", Json::Arr(json_mixes)),
            (
                "saturation",
                Json::obj([
                    ("tenant", Json::str("fs-mixed")),
                    ("ops", Json::Int(sat_ops as i64)),
                    ("knee_ops_s", knee.map_or(Json::Null, Json::Num)),
                    ("ladder", Json::Arr(json_ladder)),
                ]),
            ),
        ]);
        std::fs::write(&path, doc.render()).expect("write json snapshot");
        println!("\nwrote {path}");
    }
}
