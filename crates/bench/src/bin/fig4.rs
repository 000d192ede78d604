//! Figure 4: FIO random-write-intensive workload, 20 GiB, five systems —
//! instantaneous throughput, average latency and cumulative written data
//! over (virtual) time.
//!
//! Paper reference points (ideal case, 32 GiB log — never saturates):
//! NVCache ≈493 MiB/s finishing in 42 s; NOVA ≈403 MiB/s in 51 s;
//! DM-WriteCache in 71 s; Ext4-DAX in 2 min 29 s; SSD in >22 min.
//!
//! Usage: `fig4 [--scale N] [--gib G] [--shards S] [--queue-depth Q]
//! [--series]`

use fiosim::{run_job, JobSpec, RwMode};
use nvcache::NvCacheConfig;
use nvcache_bench::{arg_flag, arg_u64, print_series, print_table, CommonArgs, Row, SystemKind};
use simclock::{ActorClock, SimTime};

fn main() {
    let args = CommonArgs::parse();
    let scale = args.scale;
    let gib = arg_u64("--gib", 20);
    let io_total = (gib << 30) / scale;
    let want_series = arg_flag("--series");
    println!("Fig. 4 — FIO randwrite {gib} GiB, bs=4k fsync=1 direct=1 ({})", args.describe());

    let mut rows = Vec::new();
    for kind in SystemKind::fig4() {
        let clock = ActorClock::new();
        // 32 GiB log (paper: the log never saturates in this experiment).
        let cfg = NvCacheConfig::default()
            .scaled(scale)
            .with_log_entries(((32u64 << 30) / 4096 / scale).max(64));
        let spec = args.spec_with(kind, cfg).timing_only();
        let sys = nvcache_bench::build_system(&spec, &clock);
        let job = JobSpec {
            name: sys.name.into(),
            rw: RwMode::RandWrite,
            file_size: io_total,
            io_total,
            fsync_every: 1,
            direct: true,
            sample_interval: SimTime::from_millis(1000 / scale.min(1000)),
            ..JobSpec::default()
        };
        let result = run_job(&sys.fs, &job, &clock).expect("fio job");
        let raw_s = result.elapsed.as_secs_f64();
        rows.push(Row::new(
            sys.name,
            vec![
                format!("{:.0}", result.mean_throughput_mib_s()),
                format!("{:.1}", result.mean_latency.as_micros_f64()),
                format!("{raw_s:.2}"),
                format!("{:.0}", raw_s * scale as f64),
            ],
        ));
        if want_series {
            print_series(&format!("{} throughput", sys.name), "MiB/s", scale, &result.throughput);
            print_series(&format!("{} avg-latency", sys.name), "us", scale, &result.avg_latency);
            let gib_series: Vec<(SimTime, f64)> = result.cumulative_gib;
            print_series(&format!("{} written", sys.name), "GiB", scale, &gib_series);
        }
        sys.shutdown(&clock);
    }
    print_table("Fig. 4 summary", &["MiB/s", "lat µs", "raw s", "paper-equiv s"], &rows);
}
