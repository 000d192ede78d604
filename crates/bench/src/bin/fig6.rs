//! Figure 6: influence of the cleanup-thread batch size (1 / 10 / 100 / 500
//! / 1000 / 5000 entries) under a 20 GiB random-write load with an 8 GiB
//! log — extended with two more axes, the submission-ring queue depth and
//! the log-stripe count.
//!
//! Paper reference points (queue depth 1, one stripe): before saturation
//! the batch size is irrelevant; after it, batch=1 collapses to ≈21 MiB/s
//! (one fsync per entry) while batches ≥100 all land near the SSD's
//! ≈80 MiB/s random-write speed. Deeper rings overlap the batch's
//! propagation `pwrite`s on a multi-channel SSD, which raises the
//! post-saturation floor until the per-batch flush barrier — not fsync
//! amortization — becomes the ceiling: once the pwrites overlap, growing
//! the batch past the ring depth stops paying.
//!
//! The post-saturation rate is taken from the instant
//! `nvcache_bench::saturation` finds (the detector fig5 uses); a cell that
//! never saturates prints `never`.
//!
//! Usage: `fig6 [--scale N] [--gib G] [--queue-depth Q] [--shards S]
//! [--series]`
//!
//! Without `--queue-depth`, the sweep covers Q ∈ {1, 8, 32} × every batch
//! size and prints a post-saturation matrix over both axes; passing
//! `--queue-depth Q` pins the single depth Q (Q = 1 reproduces the paper's
//! synchronous-drain numbers). Likewise `--shards S` pins the stripe
//! count; without it the sweep runs S ∈ {1, 4} and closes with an
//! *analysis pass* that attributes the post-saturation ceiling: if
//! striping the log (more cleanup workers) lifts the floor, the cleanup
//! pool was the bottleneck; if it does not, the drain device or the
//! single-threaded submission front-end is.

use std::collections::BTreeMap;

use fiosim::{JobSpec, RwMode};
use nvcache::NvCacheConfig;
use nvcache_bench::{
    arg_flag, arg_u64, print_series, print_table, run_to_saturation, CommonArgs, Row, SystemKind,
};
use simclock::{ActorClock, SimTime};

/// Result of one (batch, queue-depth, shards) cell.
struct Cell {
    mean_mib_s: f64,
    /// `None`: the cell never saturated.
    post_sat_mib_s: Option<f64>,
    paper_secs: f64,
    fsyncs: u64,
    uring_peak: u64,
}

/// One cell at `args`' scale, queue depth and stripe count.
fn run_cell(args: CommonArgs, io_total: u64, batch: usize, want_series: bool) -> Cell {
    let CommonArgs { scale, queue_depth, shards } = args;
    let clock = ActorClock::new();
    // Batch sizes are a *policy*, not a capacity: don't scale them.
    let cfg = NvCacheConfig::default()
        .scaled(scale)
        .with_log_entries(((8u64 << 30) / 4096 / scale).max(64))
        .with_batching(batch.max(1), batch.max(1));
    let spec = args.spec_with(SystemKind::NvcacheSsd, cfg).timing_only();
    let sys = nvcache_bench::build_system(&spec, &clock);
    let job = JobSpec {
        name: format!("batch-{batch}-qd-{queue_depth}-sh-{shards}"),
        rw: RwMode::RandWrite,
        file_size: io_total,
        io_total,
        fsync_every: 1,
        direct: true,
        sample_interval: SimTime::from_millis(1000 / scale.min(1000)),
        ..JobSpec::default()
    };
    let (result, sat_t) = run_to_saturation(&sys, &job, &clock);
    let nc = sys.nvcache.as_ref().expect("nvcache system");
    let stats = nc.stats().snapshot();
    // Post-saturation throughput from the cumulative curve: rate over
    // everything after the saturation instant (robust to the burst/stall
    // cycles of big batches).
    let post_sat_mib_s = sat_t.map(|t0| {
        let at = |t: SimTime| {
            result
                .cumulative_gib
                .iter()
                .rev()
                .find(|&&(ts, _)| ts <= t)
                .map_or(0.0, |&(_, v)| v * 1024.0)
        };
        let end = result.elapsed;
        let mib = (at(end) - at(t0)).max(0.0);
        mib / (end - t0).as_secs_f64().max(1e-9)
    });
    if want_series {
        print_series(
            &format!("batch-{batch} qd-{queue_depth} sh-{shards} throughput"),
            "MiB/s",
            scale,
            &result.throughput,
        );
    }
    let uring_peak = stats.per_shard.iter().map(|s| s.uring_inflight_peak).max().unwrap_or(0);
    let cell = Cell {
        mean_mib_s: result.mean_throughput_mib_s(),
        post_sat_mib_s,
        paper_secs: result.elapsed.as_secs_f64() * scale as f64,
        fsyncs: stats.cleanup_fsyncs,
        uring_peak,
    };
    sys.shutdown(&clock);
    cell
}

/// A post-saturation rate, or `never` for a cell that never saturated.
fn mib_s_or_never(mib_s: Option<f64>) -> String {
    mib_s.map_or("never".into(), |v| format!("{v:.0}"))
}

fn main() {
    let common = CommonArgs::parse();
    let scale = common.scale;
    let gib = arg_u64("--gib", 20);
    let io_total = (gib << 30) / scale;
    let want_series = arg_flag("--series");
    // Pin a single depth with --queue-depth; sweep the default set
    // otherwise (1 = paper, 8/32 = overlapped drains).
    let depths: Vec<usize> = match arg_u64("--queue-depth", 0) {
        0 => vec![1, 8, 32],
        q => vec![q.max(1) as usize],
    };
    // Pin a stripe count with --shards; sweep {1, 4} otherwise so the
    // closing analysis can compare cleanup-pool sizes.
    let shard_counts: Vec<usize> = match arg_u64("--shards", 0) {
        0 => vec![1, 4],
        s => vec![s.max(1) as usize],
    };
    println!(
        "Fig. 6 — NVCache+SSD batching × queue-depth × shards sweep, 8 GiB log \
         (scale 1/{scale}, queue depths {depths:?}, shards {shard_counts:?})"
    );

    let batch_sizes = [1usize, 10, 100, 500, 1000, 5000];
    let mut detail_rows = Vec::new();
    let mut cells: BTreeMap<(usize, usize, usize), Cell> = BTreeMap::new();
    for &shards in &shard_counts {
        for batch in batch_sizes {
            for &qd in &depths {
                let args = CommonArgs { queue_depth: qd, shards, ..common };
                let cell = run_cell(args, io_total, batch, want_series);
                detail_rows.push(Row::new(
                    format!("batch {batch} / qd {qd} / {shards} shard(s)"),
                    vec![
                        format!("{:.0}", cell.mean_mib_s),
                        mib_s_or_never(cell.post_sat_mib_s),
                        format!("{:.0}", cell.paper_secs),
                        format!("{}", cell.fsyncs),
                        format!("{}", cell.uring_peak),
                    ],
                ));
                cells.insert((shards, batch, qd), cell);
            }
        }
    }
    print_table(
        "Fig. 6 detail (per batch × queue depth × shards)",
        &["mean MiB/s", "post-sat MiB/s", "total s (paper-equiv)", "fsyncs", "ring peak"],
        &detail_rows,
    );
    if depths.len() > 1 {
        for &shards in &shard_counts {
            // batch-major rows, one post-saturation column per queue depth.
            let matrix: Vec<Row> = batch_sizes
                .iter()
                .map(|&batch| {
                    Row::new(
                        format!("batch {batch}"),
                        depths
                            .iter()
                            .map(|&qd| mib_s_or_never(cells[&(shards, batch, qd)].post_sat_mib_s))
                            .collect(),
                    )
                })
                .collect();
            let headers: Vec<String> = depths.iter().map(|q| format!("qd {q}")).collect();
            let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
            print_table(
                &format!("Fig. 6 post-saturation MiB/s, {shards} shard(s) (batch × queue depth)"),
                &header_refs,
                &matrix,
            );
        }
    }

    // Analysis pass: does growing the cleanup pool (one worker per stripe)
    // lift the post-saturation floor, or is the ceiling elsewhere?
    if shard_counts.len() > 1 {
        let (base, grown) = (shard_counts[0], *shard_counts.last().unwrap());
        println!("\n== Fig. 6 analysis: cleanup pool vs front-end/device ==");
        for &qd in &depths {
            let ratios: Vec<f64> = batch_sizes
                .iter()
                .filter_map(|&b| {
                    let one = cells[&(base, b, qd)].post_sat_mib_s?;
                    let many = cells[&(grown, b, qd)].post_sat_mib_s?;
                    (one > 1e-9).then(|| many / one)
                })
                .collect();
            if ratios.is_empty() {
                println!("qd {qd:>2}: no batch size saturated at both stripe counts");
                continue;
            }
            let mean_ratio = ratios.iter().sum::<f64>() / ratios.len() as f64;
            let verdict = if mean_ratio >= 1.15 {
                "cleanup-pool bound: striping the log (more drain workers) lifts the floor"
            } else if mean_ratio <= 0.87 {
                "striping hurts here: the workers contend for the same drain device"
            } else {
                "not cleanup-pool bound: the drain device / submission front-end sets the \
                 ceiling, extra workers change nothing"
            };
            println!(
                "qd {qd:>2}: post-saturation floor x{mean_ratio:.2} going {base} -> {grown} \
                 shard(s) — {verdict}"
            );
        }
        println!(
            "(pre-saturation throughput is submission-bound — fio's single writer — so the \
             shard axis moves it only via log-capacity partitioning; see sqsweep for the \
             multi-queue submission front-end that parallelizes that side)"
        );
    }
}
