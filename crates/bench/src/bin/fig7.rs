//! Figure 7: NVCache read/write throughput under a mixed 50/50 random
//! workload on a 10 GiB file, sweeping the read-cache size (100 / 10 K /
//! 100 K / 250 K / 1 M entries).
//!
//! Paper reference point: the curves are flat — the read cache exists for
//! correctness (dirty reads), not performance, because the kernel page cache
//! already serves reads. The sweep must show no meaningful trend.
//!
//! Usage: `fig7 [--scale N] [--gib G] [--shards S] [--queue-depth Q]
//! [--series]`

use fiosim::{run_job, JobSpec, RwMode};
use nvcache::NvCacheConfig;
use nvcache_bench::{arg_flag, arg_u64, print_series, print_table, CommonArgs, Row, SystemKind};
use simclock::{ActorClock, SimTime};

fn main() {
    let args = CommonArgs::parse();
    let scale = args.scale;
    let gib = arg_u64("--gib", 10);
    let file_size = (gib << 30) / scale;
    let io_total = file_size / 2;
    let want_series = arg_flag("--series");
    println!(
        "Fig. 7 — NVCache+SSD randrw 50/50 on {gib} GiB, read-cache sweep ({})",
        args.describe()
    );

    let cache_sizes: [(&str, usize); 5] =
        [("100", 100), ("10K", 10_000), ("100K", 100_000), ("250K", 250_000), ("1M", 1_000_000)];
    let mut rows = Vec::new();
    for (label, pages) in cache_sizes {
        let clock = ActorClock::new();
        let cfg = NvCacheConfig::default()
            .scaled(scale)
            .with_log_entries(((8u64 << 30) / 4096 / scale).max(64))
            .with_read_cache_pages((pages / scale as usize).max(8));
        let spec = args.spec_with(SystemKind::NvcacheSsd, cfg);
        let sys = nvcache_bench::build_system(&spec, &clock);
        let job = JobSpec {
            name: format!("cache-{label}"),
            rw: RwMode::RandRw { read_pct: 50 },
            file_size,
            io_total,
            fsync_every: 1,
            direct: true,
            prefill: true,
            sample_interval: SimTime::from_millis(1000 / scale.min(1000)),
            ..JobSpec::default()
        };
        let result = run_job(&sys.fs, &job, &clock).expect("fio job");
        let nc = sys.nvcache.as_ref().expect("nvcache system");
        let stats = nc.stats().snapshot();
        let hits = stats.read_hits as f64;
        let total = (stats.read_hits + stats.read_misses) as f64;
        let secs = result.elapsed.as_secs_f64();
        rows.push(Row::new(
            format!("cache {label}"),
            vec![
                format!("{:.1}", result.written_bytes as f64 / (1 << 20) as f64 / secs),
                format!("{:.1}", result.read_bytes as f64 / (1 << 20) as f64 / secs),
                format!("{:.0}%", if total > 0.0 { hits / total * 100.0 } else { 0.0 }),
                format!("{}", stats.dirty_misses),
            ],
        ));
        if want_series {
            print_series(
                &format!("cache-{label} write-tput"),
                "MiB/s",
                scale,
                &result.write_throughput,
            );
            print_series(
                &format!("cache-{label} read-tput"),
                "MiB/s",
                scale,
                &result.read_throughput,
            );
        }
        sys.shutdown(&clock);
    }
    print_table(
        "Fig. 7 summary",
        &["write MiB/s", "read MiB/s", "hit rate", "dirty misses"],
        &rows,
    );
}
