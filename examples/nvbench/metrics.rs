//! The metric registry — every name `BENCHMARK.json` lists, with its unit,
//! direction and clock — and the arithmetic that turns a measured
//! [`Pass`] into those values.

use std::collections::BTreeMap;

use nvmm::{NvDimm, NvmmProfile};
use simclock::ActorClock;

use crate::stack::Counters;
use crate::stats::median;
use crate::trace::{Agg, Key};
use crate::workloads::Pass;

/// Which clock a value is read off.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// The modelled NVCache stack.
    Virtual,
    /// The simulator itself.
    Host,
    /// A count or a ratio of counts: no clock.
    None,
}

impl Clock {
    pub fn label(self) -> &'static str {
        match self {
            Clock::Virtual => "virtual",
            Clock::Host => "host",
            Clock::None => "-",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// `true`: higher is better.
    pub higher: bool,
    pub clock: Clock,
    /// End-to-end only: the share of the parent's median by which the
    /// metric may worsen.
    pub bound: f64,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    higher: bool,
    clock: Clock,
    bound: f64,
) -> Metric {
    Metric { name, unit, higher, clock, bound }
}

const fn layer(name: &'static str, unit: &'static str, higher: bool, clock: Clock) -> Metric {
    Metric { name, unit, higher, clock, bound: 0.0 }
}

/// What a user of the stack sees. Every workload reports every one: see the
/// README for what each means on each workload.
pub const END_TO_END: [Metric; 6] = [
    e2e("setup_s", "s", false, Clock::Host, 0.25),
    e2e("write_mean_us", "us", false, Clock::Virtual, 0.05),
    e2e("write_top1pct_us", "us", false, Clock::Virtual, 0.10),
    e2e("write_mib_s", "MiB/s", true, Clock::Virtual, 0.05),
    e2e("read_mean_us", "us", false, Clock::Virtual, 0.05),
    e2e("read_top1pct_us", "us", false, Clock::Virtual, 0.10),
];

use Clock::{Host, None as Cnt, Virtual};

/// Single layers, from outside them: counter deltas, wrapper spans, and
/// arithmetic on the public `NvmmProfile` costs.
pub const PER_LAYER: [Metric; 83] = [
    layer("driver.write_p50_us", "us", false, Virtual),
    layer("driver.write_p99_us", "us", false, Virtual),
    layer("driver.write_p999_us", "us", false, Virtual),
    layer("driver.read_p50_us", "us", false, Virtual),
    layer("driver.read_p99_us", "us", false, Virtual),
    layer("driver.span_sum_ratio", "ratio", true, Virtual),
    layer("nvmm.fences_per_write", "1/op", false, Cnt),
    layer("nvmm.drains_per_write", "1/op", false, Cnt),
    layer("nvmm.lines_flushed_per_write", "1/op", false, Cnt),
    layer("nvmm.stored_bytes_per_user_byte", "B/B", false, Cnt),
    layer("nvmm.commit_stores_per_write", "1/op", false, Cnt),
    layer("nvmm.virt_us_per_write", "us", false, Virtual),
    layer("nvmm.host_ns_per_entry4k", "ns", false, Host),
    layer("nvmm.bytes_read", "B", false, Cnt),
    layer("nvmm.bw_ratio", "ratio", false, Virtual),
    layer("core.cache.pwrite_virt_us", "us", false, Virtual),
    layer("core.cache.self_virt_us_per_write", "us", false, Virtual),
    layer("core.cache.pwrite_host_ns", "ns", false, Host),
    layer("core.cache.pread_host_ns", "ns", false, Host),
    layer("core.cache.openclose_virt_us", "us", false, Virtual),
    layer("core.cache.meta_calls", "count", false, Cnt),
    layer("core.cache.sync_write_mib_s", "MiB/s", true, Virtual),
    layer("core.log.entries_per_write", "1/op", false, Cnt),
    layer("core.log.groups_logged", "count", false, Cnt),
    layer("core.log.full_waits", "count", false, Cnt),
    layer("core.log.stall_virt_share", "ratio", false, Virtual),
    layer("core.squeue.ops_per_doorbell", "1/op", true, Cnt),
    layer("core.squeue.fences_per_op", "1/op", false, Cnt),
    layer("core.squeue.reap_lag_us", "us", false, Virtual),
    layer("core.squeue.write_mib_s", "MiB/s", true, Virtual),
    layer("core.readcache.hit_ratio", "ratio", true, Cnt),
    layer("core.readcache.dirty_miss_ratio", "ratio", false, Cnt),
    layer("core.readcache.evictions", "count", false, Cnt),
    layer("core.readcache.bypass_reads", "count", true, Cnt),
    layer("core.cleanup.entries_per_batch", "1/op", true, Cnt),
    layer("core.cleanup.fsyncs_per_batch", "1/op", false, Cnt),
    layer("core.cleanup.inner_calls_per_entry", "1/op", false, Cnt),
    layer("core.cleanup.drain_mib_s", "MiB/s", true, Virtual),
    layer("core.cleanup.inner_io_errors", "count", false, Cnt),
    layer("core.recovery.entries_replayed", "count", true, Cnt),
    layer("core.recovery.recover_s", "s", false, Virtual),
    layer("core.recovery.virt_us_per_entry", "us", false, Virtual),
    layer("core.recovery.host_us_per_entry", "us", false, Host),
    layer("fiosim.uring.submitted", "count", false, Cnt),
    layer("fiosim.uring.inflight_peak", "count", true, Cnt),
    layer("vfs.ext4.pwrite_calls", "count", false, Cnt),
    layer("vfs.ext4.fsync_calls", "count", false, Cnt),
    layer("vfs.ext4.pread_calls", "count", false, Cnt),
    layer("vfs.ext4.pwrite_virt_us", "us", false, Virtual),
    layer("vfs.ext4.fsync_virt_us", "us", false, Virtual),
    layer("vfs.ext4.pread_virt_us", "us", false, Virtual),
    layer("vfs.ext4.self_virt_us", "us", false, Virtual),
    layer("vfs.ext4.busy_virt_share", "ratio", false, Virtual),
    layer("vfs.ext4.journal_commits", "count", false, Cnt),
    layer("vfs.ext4.host_ns_per_call", "ns", false, Host),
    layer("vfs.pagecache.hit_ratio", "ratio", true, Cnt),
    layer("vfs.pagecache.writebacks", "count", false, Cnt),
    layer("vfs.pagecache.evictions", "count", false, Cnt),
    layer("blockdev.ssd.rand_writes", "count", false, Cnt),
    layer("blockdev.ssd.seq_writes", "count", false, Cnt),
    layer("blockdev.ssd.reads", "count", false, Cnt),
    layer("blockdev.ssd.flushes", "count", false, Cnt),
    layer("blockdev.ssd.bytes_per_user_byte", "B/B", false, Cnt),
    layer("blockdev.ssd.write_virt_us", "us", false, Virtual),
    layer("blockdev.ssd.flush_virt_us", "us", false, Virtual),
    layer("blockdev.ssd.busy_virt_share", "ratio", false, Virtual),
    layer("rocklet.fs_calls_per_put", "1/op", false, Cnt),
    layer("rocklet.fs_calls_per_get", "1/op", false, Cnt),
    layer("rocklet.put_p50_us", "us", false, Virtual),
    layer("rocklet.put_p99_us", "us", false, Virtual),
    layer("rocklet.get_p50_us", "us", false, Virtual),
    layer("sqlight.fs_calls_per_txn", "1/op", false, Cnt),
    layer("sqlight.txn_p50_us", "us", false, Virtual),
    layer("sqlight.txn_p99_us", "us", false, Virtual),
    layer("sqlight.get_p50_us", "us", false, Virtual),
    layer("bench.stream_hash", "count", true, Cnt),
    layer("bench.host_kops_s", "kop/s", true, Host),
    layer("bench.trace_overhead_pct", "%", false, Host),
    layer("bench.spans_dropped", "count", false, Cnt),
    layer("bench.cpu_s", "s", false, Host),
    layer("bench.peak_rss_mib", "MiB", false, Host),
    layer("bench.ops_attempted", "count", true, Cnt),
    layer("bench.ops_failed", "count", false, Cnt),
];

/// One reported value: `None` when the sample cannot support it (an absent
/// percentile) or the workload does not exercise it.
#[derive(Debug, Clone, Copy)]
pub struct Value {
    pub metric: &'static Metric,
    pub value: Option<f64>,
    pub samples: u64,
}

fn ratio(num: u64, den: u64) -> Option<f64> {
    (den > 0).then(|| num as f64 / den as f64)
}

pub fn mib_per_s(bytes: u64, ns: u64) -> Option<f64> {
    (ns > 0).then(|| bytes as f64 / (1u64 << 20) as f64 / (ns as f64 / 1e9))
}

/// The host rate of a pass: all timed driver ops over all the host time
/// they took, in kop/s. Op counts are fixed, so a slow stretch anywhere in
/// the run counts. Not an end-to-end metric: identical runs on a shared
/// two-core host differ by 10–30 %, more than any bound could hold.
fn host_kops(pass: &Pass) -> Option<f64> {
    (pass.timed_host_ns > 0).then(|| pass.timed_ops as f64 / pass.timed_host_ns as f64 * 1e6)
}

/// The end-to-end values of an untraced pass, in [`END_TO_END`] order.
pub fn end_to_end(pass: &mut Pass) -> Vec<Value> {
    let values = [
        (median(&pass.setup_s), pass.setup_s.len()),
        (pass.writes.mean_us(), pass.writes.len()),
        (pass.writes.top1pct_mean_us(), pass.writes.len()),
        (mib_per_s(pass.write_bytes, pass.write_window_ns), pass.writes.len()),
        (pass.reads.mean_us(), pass.reads.len()),
        (pass.reads.top1pct_mean_us(), pass.reads.len()),
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(metric, (value, samples))| Value { metric, value, samples: samples as u64 })
        .collect()
}

/// Virtual time the DIMM charged for `c`'s stores, write-backs and fences,
/// by the public profile costs.
fn nvmm_virt_ns(c: &Counters, p: &NvmmProfile) -> f64 {
    p.store_bandwidth.time_for(c.nvmm_bytes_stored).as_nanos() as f64
        + p.write_bandwidth.time_for(c.nvmm_lines_flushed * nvmm::CACHE_LINE).as_nanos() as f64
        + c.nvmm_fences as f64 * p.fence_latency.as_nanos() as f64
        + c.nvmm_drains as f64 * (p.fence_latency + p.drain_latency).as_nanos() as f64
}

/// Host nanoseconds of one 4 KiB log entry's worth of DIMM work (store,
/// `pwb`, `pfence`, `psync`) on a scratch DIMM.
fn nvmm_host_ns_per_entry4k() -> f64 {
    const ENTRIES: u64 = 256;
    const REPS: u32 = 8;
    let dimm = NvDimm::new(ENTRIES * 4096, NvmmProfile::optane().without_durability_tracking());
    let clock = ActorClock::new();
    let data = [0xA5u8; 4096];
    let t0 = std::time::Instant::now();
    for _ in 0..REPS {
        for e in 0..ENTRIES {
            dimm.write(e * 4096, &data, &clock);
            dimm.pwb(e * 4096, data.len());
            dimm.pfence(&clock);
            dimm.psync(&clock);
        }
    }
    t0.elapsed().as_nanos() as f64 / (ENTRIES * REPS as u64) as f64
}

fn mean_virt_us(a: &Agg) -> Option<f64> {
    ratio(a.virt_ns, a.count).map(|ns| ns / 1e3)
}

/// The per-layer values, in [`PER_LAYER`] order: counters and spans from
/// the traced pass, overhead against the untraced one.
pub fn per_layer(untraced: &Pass, traced: &mut Pass) -> Vec<Value> {
    let profile = NvmmProfile::optane();
    let c = traced.counters;
    let t = traced.spans.clone().unwrap_or_default();
    // What the DIMM did per synchronous write.
    let w = traced.sync_write_counters.unwrap_or(c);
    let writes = w.writes;
    // Counters and spans cover the whole measured window, so its length is
    // what their rates and shares are over.
    let window_ns = traced.window_virt_ns;
    let write_n = traced.writes.len() as u64;
    let read_n = traced.reads.len() as u64;

    let cache_pwrite = *t.get(Key::CachePwrite);
    let cache_pread = *t.get(Key::CachePread);
    let openclose = t.sum(&[Key::CacheOpen, Key::CacheClose]);
    let meta = t.sum(&[Key::CacheOpen, Key::CacheClose, Key::CacheMeta]);
    let ext4_all = t.sum(&[Key::Ext4Pwrite, Key::Ext4Pread, Key::Ext4Fsync, Key::Ext4Other]);
    let ssd_all = t.sum(&[Key::SsdRead, Key::SsdWrite, Key::SsdFlush]);
    let inner_calls = t.sum(&[Key::Ext4Pwrite, Key::Ext4Fsync]).count;

    let nvmm_per_write = (writes > 0).then(|| nvmm_virt_ns(&w, &profile) / writes as f64 / 1e3);
    let pwrite_virt = mean_virt_us(&cache_pwrite);
    let self_virt = pwrite_virt.zip(nvmm_per_write).map(|(p, n)| p - n);
    let stall = traced.writes.excess_over_median_ns();
    let overhead = host_kops(untraced).zip(host_kops(traced)).map(|(u, t)| (1.0 - t / u) * 100.0);
    let (cpu_s, rss_mib) = process_usage();

    let generic = [
        ("driver.write_p50_us", traced.writes.quantile_us(0.50), write_n),
        ("driver.write_p99_us", traced.writes.quantile_us(0.99), write_n),
        ("driver.write_p999_us", traced.writes.quantile_us(0.999), write_n),
        ("driver.read_p50_us", traced.reads.quantile_us(0.50), read_n),
        ("driver.read_p99_us", traced.reads.quantile_us(0.99), read_n),
        (
            "driver.span_sum_ratio",
            ratio(t.driver_boundary_virt_ns(), traced.timed_virt_ns),
            t.spans_kept,
        ),
        ("nvmm.fences_per_write", ratio(w.nvmm_fences, writes), writes),
        ("nvmm.drains_per_write", ratio(w.nvmm_drains, writes), writes),
        ("nvmm.lines_flushed_per_write", ratio(w.nvmm_lines_flushed, writes), writes),
        ("nvmm.stored_bytes_per_user_byte", ratio(w.nvmm_bytes_stored, w.bytes_logged), writes),
        ("nvmm.commit_stores_per_write", ratio(w.nvmm_commit_stores, writes), writes),
        ("nvmm.virt_us_per_write", nvmm_per_write, writes),
        ("nvmm.host_ns_per_entry4k", Some(nvmm_host_ns_per_entry4k()), 2048),
        ("nvmm.bytes_read", Some(c.nvmm_bytes_read as f64), 1),
        (
            "nvmm.bw_ratio",
            mib_per_s(c.nvmm_lines_flushed * nvmm::CACHE_LINE, window_ns)
                .map(|m| m * (1u64 << 20) as f64 / profile.write_bandwidth.bytes_per_sec()),
            c.writes,
        ),
        ("core.cache.pwrite_virt_us", pwrite_virt, cache_pwrite.count),
        ("core.cache.self_virt_us_per_write", self_virt, cache_pwrite.count),
        (
            "core.cache.pwrite_host_ns",
            ratio(cache_pwrite.self_host_ns(), cache_pwrite.count),
            cache_pwrite.count,
        ),
        (
            "core.cache.pread_host_ns",
            ratio(cache_pread.self_host_ns(), cache_pread.count),
            cache_pread.count,
        ),
        ("core.cache.openclose_virt_us", mean_virt_us(&openclose), openclose.count),
        ("core.cache.meta_calls", Some(meta.count as f64), meta.count),
        ("core.log.entries_per_write", ratio(c.entries_logged, c.writes), c.writes),
        ("core.log.groups_logged", Some(c.groups_logged as f64), c.writes),
        ("core.log.full_waits", Some(c.log_full_waits as f64), c.writes),
        ("core.log.stall_virt_share", ratio(stall, traced.write_window_ns), write_n),
        ("core.squeue.ops_per_doorbell", ratio(c.sq_submitted, c.sq_doorbells), c.sq_doorbells),
        (
            "core.squeue.reap_lag_us",
            ratio(c.cq_reap_lag_ns, c.sq_submitted).map(|ns| ns / 1e3),
            c.sq_submitted,
        ),
        ("core.readcache.hit_ratio", ratio(c.read_hits, c.read_hits + c.read_misses), c.reads),
        (
            "core.readcache.dirty_miss_ratio",
            ratio(c.dirty_misses, c.read_hits + c.read_misses),
            c.reads,
        ),
        ("core.readcache.evictions", Some(c.evictions as f64), c.reads),
        ("core.readcache.bypass_reads", Some(c.bypass_reads as f64), c.reads),
        (
            "core.cleanup.entries_per_batch",
            ratio(c.entries_propagated, c.cleanup_batches),
            c.cleanup_batches,
        ),
        (
            "core.cleanup.fsyncs_per_batch",
            ratio(c.cleanup_fsyncs, c.cleanup_batches),
            c.cleanup_batches,
        ),
        (
            "core.cleanup.inner_calls_per_entry",
            ratio(inner_calls, c.entries_propagated),
            c.entries_propagated,
        ),
        (
            "core.cleanup.drain_mib_s",
            mib_per_s(c.entries_propagated * 4096, window_ns),
            c.entries_propagated,
        ),
        ("core.cleanup.inner_io_errors", Some(c.inner_io_errors as f64), c.cleanup_batches),
        ("fiosim.uring.submitted", Some(c.uring_submitted as f64), c.uring_submitted),
        ("fiosim.uring.inflight_peak", Some(c.uring_inflight_peak as f64), c.uring_submitted),
        ("vfs.ext4.pwrite_calls", Some(t.get(Key::Ext4Pwrite).count as f64), ext4_all.count),
        ("vfs.ext4.fsync_calls", Some(t.get(Key::Ext4Fsync).count as f64), ext4_all.count),
        ("vfs.ext4.pread_calls", Some(t.get(Key::Ext4Pread).count as f64), ext4_all.count),
        (
            "vfs.ext4.pwrite_virt_us",
            mean_virt_us(t.get(Key::Ext4Pwrite)),
            t.get(Key::Ext4Pwrite).count,
        ),
        (
            "vfs.ext4.fsync_virt_us",
            mean_virt_us(t.get(Key::Ext4Fsync)),
            t.get(Key::Ext4Fsync).count,
        ),
        (
            "vfs.ext4.pread_virt_us",
            mean_virt_us(t.get(Key::Ext4Pread)),
            t.get(Key::Ext4Pread).count,
        ),
        (
            "vfs.ext4.self_virt_us",
            ratio(ext4_all.self_virt_ns(), ext4_all.count).map(|ns| ns / 1e3),
            ext4_all.count,
        ),
        ("vfs.ext4.busy_virt_share", ratio(ext4_all.virt_ns, window_ns), ext4_all.count),
        ("vfs.ext4.journal_commits", Some(c.journal_commits as f64), ext4_all.count),
        (
            "vfs.ext4.host_ns_per_call",
            ratio(ext4_all.self_host_ns(), ext4_all.count),
            ext4_all.count,
        ),
        (
            "vfs.pagecache.hit_ratio",
            ratio(c.pc_hits, c.pc_hits + c.pc_misses),
            c.pc_hits + c.pc_misses,
        ),
        ("vfs.pagecache.writebacks", Some(c.pc_writebacks as f64), c.pc_hits + c.pc_misses),
        ("vfs.pagecache.evictions", Some(c.pc_evictions as f64), c.pc_hits + c.pc_misses),
        ("blockdev.ssd.rand_writes", Some(c.dev_rand_writes as f64), ssd_all.count),
        ("blockdev.ssd.seq_writes", Some(c.dev_seq_writes as f64), ssd_all.count),
        ("blockdev.ssd.reads", Some(c.dev_reads as f64), ssd_all.count),
        ("blockdev.ssd.flushes", Some(c.dev_flushes as f64), ssd_all.count),
        (
            "blockdev.ssd.bytes_per_user_byte",
            ratio(c.dev_bytes_written, c.bytes_logged),
            ssd_all.count,
        ),
        (
            "blockdev.ssd.write_virt_us",
            mean_virt_us(t.get(Key::SsdWrite)),
            t.get(Key::SsdWrite).count,
        ),
        (
            "blockdev.ssd.flush_virt_us",
            mean_virt_us(t.get(Key::SsdFlush)),
            t.get(Key::SsdFlush).count,
        ),
        ("blockdev.ssd.busy_virt_share", ratio(ssd_all.virt_ns, window_ns), ssd_all.count),
        ("bench.stream_hash", Some(traced.stream_hash as f64), 1),
        ("bench.host_kops_s", host_kops(untraced), untraced.timed_ops),
        ("bench.trace_overhead_pct", overhead, traced.timed_ops),
        ("bench.spans_dropped", Some(t.spans_dropped as f64), t.spans_kept + t.spans_dropped),
        ("bench.cpu_s", cpu_s, 1),
        ("bench.peak_rss_mib", rss_mib, 1),
        ("bench.ops_attempted", Some(traced.ops_attempted as f64), 1),
        ("bench.ops_failed", Some(traced.ops_failed as f64), 1),
    ];
    // The values only a workload can produce come on top.
    let mut by_name: BTreeMap<&str, (Option<f64>, u64)> = generic
        .into_iter()
        .map(|(name, value, samples)| (name, (value, samples)))
        .collect();
    by_name.extend(traced.extra.iter().map(|(&name, &value)| (name, value)));
    PER_LAYER
        .iter()
        .map(|metric| {
            let (value, samples) = by_name.get(metric.name).copied().unwrap_or((None, 0));
            Value { metric, value, samples }
        })
        .collect()
}

/// `(cpu seconds, peak RSS in MiB)` of this process, from `/proc/self`;
/// `None` where the platform does not say.
fn process_usage() -> (Option<f64>, Option<f64>) {
    let stat = std::fs::read_to_string("/proc/self/stat").ok();
    let cpu = stat.as_deref().and_then(|s| {
        // Fields after the parenthesised command name; utime and stime are
        // the 14th and 15th of the line, in clock ticks (100 Hz on Linux).
        let rest = s.rsplit_once(')')?.1;
        let f: Vec<&str> = rest.split_whitespace().collect();
        Some((f.get(11)?.parse::<f64>().ok()? + f.get(12)?.parse::<f64>().ok()?) / 100.0)
    });
    let status = std::fs::read_to_string("/proc/self/status").ok();
    let rss = status.as_deref().and_then(|s| {
        let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
        Some(line.split_whitespace().nth(1)?.parse::<f64>().ok()? / 1024.0)
    });
    (cpu, rss)
}
