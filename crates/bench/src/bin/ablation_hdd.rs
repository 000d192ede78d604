//! Ablation (README's program list): the paper motivates reusing the kernel I/O stack
//! partly by its seek-optimizing schedulers (§I). This ablation swaps the
//! SSD for a spinning disk and re-runs the batching sweep: with 8 ms seeks,
//! the elevator ordering + write combining behind NVCache matter far more
//! than on flash, so the batch-size spread should widen dramatically.
//!
//! Usage: `ablation_hdd [--scale N] [--gib G]`

use std::sync::Arc;

use blockdev::{HddDevice, HddProfile};
use fiosim::{run_job, JobSpec, RwMode};
use nvcache::NvCacheConfig;
use nvcache_bench::rig::{Below, Rig};
use nvcache_bench::{arg_u64, print_table, CommonArgs, Row};
use nvmm::NvmmProfile;
use simclock::SimTime;
use vfs::{Ext4, Ext4Profile, FileSystem, PageCacheConfig};

fn main() {
    let scale = CommonArgs::parse().scale;
    let gib = arg_u64("--gib", 2);
    let io_total = (gib << 30) / scale;
    println!("Ablation — NVCache over a 7200rpm HDD, batching sweep (scale 1/{scale})");

    let mut rows = Vec::new();
    for batch in [1usize, 100, 5000] {
        let hdd = Arc::new(HddDevice::new(HddProfile::seven_k2()));
        let page_cache = PageCacheConfig { keep_content: false, ..PageCacheConfig::default() };
        let profile = Ext4Profile { cache: page_cache, ..Ext4Profile::default() };
        let base: Arc<dyn FileSystem> = Arc::new(Ext4::new("ext4+hdd", hdd, profile));
        let cfg = NvCacheConfig::default()
            .scaled(scale)
            .with_log_entries(((1u64 << 30) / 4096 / scale).max(64))
            .with_batching(batch, batch);
        let nvmm = NvmmProfile::optane().without_durability_tracking();
        let (rig, cache) = Rig::new(cfg, Below { nvmm, ..Below::over(vec![base]) });
        let clock = &rig.clock;
        let cache = Arc::new(cache);
        let fs: Arc<dyn FileSystem> = Arc::clone(&cache) as Arc<dyn FileSystem>;
        let job = JobSpec {
            name: format!("hdd-batch-{batch}"),
            rw: RwMode::RandWrite,
            file_size: io_total,
            io_total,
            fsync_every: 1,
            direct: true,
            sample_interval: SimTime::from_millis(1000 / scale.min(1000)),
            ..JobSpec::default()
        };
        let result = run_job(&fs, &job, clock).expect("fio job");
        rows.push(Row::new(
            format!("batch {batch}"),
            vec![
                format!("{:.1}", result.mean_throughput_mib_s()),
                format!("{:.1}", result.mean_latency.as_micros_f64()),
            ],
        ));
        cache.shutdown(clock);
    }
    print_table("HDD ablation", &["mean MiB/s", "lat µs"], &rows);
    println!(
        "\nExpectation: the batch-1 / batch-5000 gap is far wider than Fig. 6's\n\
         SSD gap — every un-batched fsync pays an 8 ms seek + 4 ms flush."
    );
}
