//! Figure 5: NVCache under a 20 GiB random-write load with varying NVMM log
//! sizes (100 MB / 1 GiB / 8 GiB / 32 GiB).
//!
//! Paper reference points: with an 8 GiB log the throughput holds ≈556 MiB/s
//! until saturation at ≈18 s, then collapses to ≈78 MiB/s — the SSD's random
//! write speed; smaller logs saturate earlier and land on the same floor.
//!
//! Usage: `fig5 [--scale N] [--gib G] [--shards S] [--queue-depth Q]
//! [--sq-pairs P] [--json PATH] [--series]`
//!
//! `--shards S` splits the NVMM log into `S` striped sub-logs (each with its
//! own cleanup worker and its own Fig. 5 back-pressure coupling); the
//! summary then also prints the per-stripe saturation events.
//!
//! `--queue-depth Q` gives the SSD `Q` parallel command channels and lets
//! each cleanup worker keep `Q` propagation writes in flight on its
//! io_uring-style submission ring (1 = the paper's synchronous drain). The
//! post-saturation floor then rises from the SSD's serial random-write
//! speed towards `Q`-way-overlapped drain throughput.
//!
//! `--sq-pairs P` additionally measures the multi-queue submission
//! front-end on each fresh mount *before* the fio load: a burst of small
//! writes submitted through `P` SQ/CQ pairs and committed by doorbell-
//! batched stripe reservation, against the same burst issued synchronously.
//! The extra columns report the batched front-end throughput and its
//! speedup over per-write submission (the log-size axis does not move
//! these — the front-end is capacity-independent).
//!
//! "saturation @s" (`saturation_paper_s`, `null` when the log never
//! saturates) is the instant `nvcache_bench::saturation` finds: the first
//! write that waited for log space, or the first throughput sample below
//! 60 % of the early plateau.
//!
//! `--json PATH` writes the whole summary (per-row p50/p99 write latency,
//! saturation, configuration) as a machine-readable snapshot, e.g. the
//! committed `BENCH_fig5.json`.

use std::sync::Arc;

use fiosim::{JobSpec, RwMode};
use nvcache::{NvCache, NvCacheConfig};
use nvcache_bench::{
    arg_flag, arg_str, arg_u64, print_series, print_table, run_to_saturation, CommonArgs, Json,
    Row, SystemKind,
};
use simclock::{ActorClock, SimTime};

/// Front-end burst measurement: batched (queued) MiB/s and the speedup
/// over the same burst submitted synchronously.
struct FrontEnd {
    queued_mib_s: f64,
    speedup: f64,
}

/// Issues up to `pairs × 64` 1 KiB writes twice on the fresh mount — once
/// synchronously, once through the SQ/CQ pairs with one doorbell per pair
/// — and compares virtual cost. Runs before the fio load so the log is
/// empty, and the burst is capped to half the log's entry capacity so
/// both arms measure submission cost, not drain back-pressure.
fn front_end_burst(
    nc: &Arc<NvCache>,
    pairs: usize,
    nb_entries: u64,
    clock: &ActorClock,
) -> FrontEnd {
    use vfs::{FileSystem, OpenFlags};
    let writes_per_pair: u64 = (nb_entries / 2 / pairs.max(1) as u64).clamp(1, 64);
    const WRITE_LEN: usize = 1024;
    let fd = nc.open("/fig5-frontend", OpenFlags::RDWR | OpenFlags::CREATE, clock).unwrap();

    let sync_t0 = clock.now();
    for i in 0..pairs as u64 * writes_per_pair {
        nc.pwrite(fd, &[0x5a; WRITE_LEN], i * 4096, clock).unwrap();
    }
    let sync_cost = clock.now() - sync_t0;

    // Drain the sync arm's entries so the queued arm also starts from an
    // empty, back-pressure-free log.
    nc.flush_log(clock);

    let base = pairs as u64 * writes_per_pair * 4096;
    let queued_t0 = clock.now();
    for p in 0..pairs {
        let mut qp = nc.queue_pair(p, clock).unwrap();
        for i in 0..writes_per_pair {
            let off = base + (p as u64 * writes_per_pair + i) * 4096;
            qp.submit_pwrite(fd, &[0xa5; WRITE_LEN], off, clock).unwrap();
        }
        qp.ring_doorbell(clock);
        assert_eq!(qp.reap(clock).len() as u64, writes_per_pair);
    }
    let queued_cost = clock.now() - queued_t0;

    let bytes = (pairs as u64 * writes_per_pair) as f64 * WRITE_LEN as f64;
    FrontEnd {
        queued_mib_s: bytes / (1 << 20) as f64 / queued_cost.as_secs_f64().max(1e-12),
        speedup: sync_cost.as_secs_f64() / queued_cost.as_secs_f64().max(1e-12),
    }
}

fn main() {
    let common = CommonArgs::parse();
    let scale = common.scale;
    let gib = arg_u64("--gib", 20);
    let io_total = (gib << 30) / scale;
    let want_series = arg_flag("--series");
    let sq_pairs = arg_u64("--sq-pairs", 0) as usize;
    let json_path = arg_str("--json");
    println!(
        "Fig. 5 — NVCache+SSD randwrite {gib} GiB with variable log size ({}{})",
        common.describe(),
        if sq_pairs > 0 { format!(", {sq_pairs} SQ pairs") } else { String::new() }
    );

    let log_sizes: [(&str, u64); 4] =
        [("100MB", 100 << 20), ("1G", 1 << 30), ("8G", 8 << 30), ("32G", 32 << 30)];
    let mut rows = Vec::new();
    let mut json_rows = Vec::new();
    for (label, bytes) in log_sizes {
        let clock = ActorClock::new();
        let cfg = NvCacheConfig::default()
            .scaled(scale)
            .with_log_entries((bytes / 4096 / scale).max(64))
            .with_sq_pairs(sq_pairs);
        let spec = common.spec_with(SystemKind::NvcacheSsd, cfg).timing_only();
        let sys = nvcache_bench::build_system(&spec, &clock);
        let nc = sys.nvcache.as_ref().expect("nvcache system");
        let nb_entries = spec.nvcache_cfg.nb_entries;
        let front = (sq_pairs > 0).then(|| front_end_burst(nc, sq_pairs, nb_entries, &clock));
        let job = JobSpec {
            name: format!("log-{label}"),
            rw: RwMode::RandWrite,
            file_size: io_total,
            io_total,
            fsync_every: 1,
            direct: true,
            sample_interval: SimTime::from_millis(1000 / scale.min(1000)),
            ..JobSpec::default()
        };
        let (result, sat) = run_to_saturation(&sys, &job, &clock);
        let sat = sat.map(SimTime::as_secs_f64);
        let stats = nc.stats().snapshot();
        let raw_s = result.elapsed.as_secs_f64();
        let per_stripe_waits = stats
            .per_shard
            .iter()
            .map(|s| s.log_full_waits.to_string())
            .collect::<Vec<_>>()
            .join("/");
        let mut cells = vec![
            format!("{:.0}", result.mean_throughput_mib_s()),
            sat.map_or("never".into(), |s| format!("{:.1}", s * scale as f64)),
            format!("{:.0}", raw_s * scale as f64),
            format!("{}", stats.log_full_waits),
            per_stripe_waits,
        ];
        if let Some(fe) = &front {
            cells.push(format!("{:.0}", fe.queued_mib_s));
            cells.push(format!("{:.2}x", fe.speedup));
        }
        rows.push(Row::new(format!("log {label}"), cells));
        let mut jrow = vec![
            ("log", Json::str(label)),
            ("mean_mib_s", Json::Num(result.mean_throughput_mib_s())),
            ("p50_write_us", Json::Num(result.p50_latency.as_micros_f64())),
            ("p99_write_us", Json::Num(result.p99_latency.as_micros_f64())),
            ("p999_write_us", Json::Num(result.p999_latency.as_micros_f64())),
            ("saturation_paper_s", sat.map_or(Json::Null, |s| Json::Num(s * scale as f64))),
            ("total_paper_s", Json::Num(raw_s * scale as f64)),
            ("log_full_waits", Json::Int(stats.log_full_waits as i64)),
        ];
        if let Some(fe) = &front {
            jrow.push((
                "front_end",
                Json::obj([
                    ("queued_mib_s", Json::Num(fe.queued_mib_s)),
                    ("speedup_vs_sync", Json::Num(fe.speedup)),
                ]),
            ));
        }
        json_rows.push(Json::obj(jrow));
        if want_series {
            print_series(&format!("log-{label} throughput"), "MiB/s", scale, &result.throughput);
        }
        sys.shutdown(&clock);
    }
    let mut columns = vec![
        "mean MiB/s",
        "saturation @s (paper-equiv)",
        "total s (paper-equiv)",
        "full-log waits",
        "waits/stripe",
    ];
    if sq_pairs > 0 {
        columns.push("front-end MiB/s");
        columns.push("fe speedup");
    }
    print_table("Fig. 5 summary", &columns, &rows);

    if let Some(path) = json_path {
        let doc = Json::obj([
            ("figure", Json::str("fig5")),
            (
                "config",
                Json::obj([
                    ("scale", Json::Int(scale as i64)),
                    ("gib", Json::Int(gib as i64)),
                    ("log_shards", Json::Int(common.shards as i64)),
                    ("queue_depth", Json::Int(common.queue_depth as i64)),
                    ("sq_pairs", Json::Int(sq_pairs as i64)),
                ]),
            ),
            ("rows", Json::Arr(json_rows)),
        ]);
        std::fs::write(&path, doc.render()).expect("write json snapshot");
        println!("\nwrote {path}");
    }
}
