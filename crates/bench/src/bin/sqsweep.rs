//! Multi-queue submission front-end sweep: per-core SQ/CQ pairs with
//! doorbell-batched stripe reservation versus per-write synchronous
//! submission, across write sizes and queue counts.
//!
//! Each cell runs N submitter threads against a striped-log NVCache on
//! simulated Optane NVMM (cleanup parked, burst sized well below log
//! capacity, so both arms measure pure submission cost). The synchronous
//! arm issues `pwrite` per op — one libc crossing plus one pwb/pfence/
//! psync sequence per write (the paper's Algorithm 1). The queued arm
//! copies each op into its SQ and commits whole bursts per doorbell: one
//! libc crossing and one fence pair per stripe chunk, so the fixed costs
//! amortize over the batch. Small writes (512 B – 1 KiB) are where this
//! pays — at 4 KiB the NVMM copy itself dominates and batching saves
//! little, which the sweep shows honestly.
//!
//! The run ends with a crash-mid-burst check: a torn burst (some doorbells
//! rung, a tail left unrung) is crashed with seeded cache-line eviction
//! and recovered; every acknowledged write must come back byte-identical,
//! every unrung submission must be gone.
//!
//! Usage: `sqsweep [--shards S] [--submitters N] [--writes W] [--batch B]
//! [--json PATH]`
//!
//! The acceptance gate (shards=4, 8 submitters): batched submission at
//! 512 B must reach ≥ 2× the synchronous write throughput.

use std::collections::BTreeMap;
use std::sync::Arc;

use fiosim::{LatencyHistogram, Tail};
use nvcache::{NvCache, NvCacheConfig};
use nvcache_bench::rig::{parked, Below, Model, Rig};
use nvcache_bench::{arg_str, arg_u64, print_table, Json, Row};
use nvmm::NvmmProfile;
use simclock::{ActorClock, SimTime};
use vfs::{FileSystem, OpenFlags};

/// One measured arm: aggregate throughput plus the completion-latency
/// distribution (submit → acknowledged, virtual time).
struct Arm {
    mib_s: f64,
    lat: Tail,
}

/// A rig of `shards` stripes and `sq_pairs` queue pairs over Ext4 on an
/// SSD, cleanup parked so only submission is measured, on a DIMM of `nvmm`.
fn mount(
    shards: usize,
    sq_pairs: usize,
    nb_entries: u64,
    fd_slots: u32,
    nvmm: NvmmProfile,
) -> (Rig, NvCache) {
    let cfg = NvCacheConfig { nb_entries, fd_slots, ..NvCacheConfig::default() };
    let cfg = parked(cfg).with_log_shards(shards).with_sq_pairs(sq_pairs);
    Rig::new(cfg, Below { nvmm, ..Below::ext4(1) })
}

/// Runs `threads` submitters, each writing `writes` ops of `size` bytes to
/// its own file. Queued arms drive one SQ/CQ pair per thread with one
/// doorbell per `batch` submissions; the sync arm is plain `pwrite`.
/// Throughput uses the makespan (slowest submitter's virtual elapsed).
fn run_arm(
    shards: usize,
    threads: usize,
    queued: bool,
    size: usize,
    writes: u64,
    batch: u64,
) -> Arm {
    let nb_entries = (threads as u64 * writes * 2).max(4096).next_multiple_of(shards as u64);
    let sq_pairs = if queued { threads } else { 0 };
    let nc = Arc::new(mount(shards, sq_pairs, nb_entries, 32, NvmmProfile::optane()).1);
    let mut handles = Vec::new();
    for t in 0..threads {
        let nc = Arc::clone(&nc);
        handles.push(std::thread::spawn(move || {
            let clock = ActorClock::new();
            let fd = nc
                .open(&format!("/sq/f{t}"), OpenFlags::RDWR | OpenFlags::CREATE, &clock)
                .expect("open");
            let data = vec![t as u8 + 1; size];
            let mut lats = LatencyHistogram::new();
            let t0 = clock.now();
            if queued {
                let mut qp = nc.queue_pair(t, &clock).expect("claim pair");
                let mut submitted: BTreeMap<u64, SimTime> = BTreeMap::new();
                let reap_into = |qp: &mut nvcache::QueuePair,
                                 submitted: &mut BTreeMap<u64, SimTime>,
                                 lats: &mut LatencyHistogram| {
                    for c in qp.reap(&clock) {
                        c.result.as_ref().expect("completion");
                        let at = submitted.remove(&c.user_data).expect("known token");
                        lats.record(c.completed_at.saturating_sub(at));
                    }
                };
                for i in 0..writes {
                    let ud = qp.submit_pwrite(fd, &data, i * 4096, &clock).expect("submit");
                    submitted.insert(ud, clock.now());
                    if (i + 1) % batch == 0 {
                        qp.ring_doorbell(&clock);
                        reap_into(&mut qp, &mut submitted, &mut lats);
                    }
                }
                qp.ring_doorbell(&clock);
                reap_into(&mut qp, &mut submitted, &mut lats);
                assert!(submitted.is_empty(), "all submissions acknowledged");
            } else {
                for i in 0..writes {
                    let s = clock.now();
                    nc.pwrite(fd, &data, i * 4096, &clock).expect("pwrite");
                    lats.record(clock.now() - s);
                }
            }
            (clock.now() - t0, lats)
        }));
    }
    let mut makespan = SimTime::ZERO;
    let mut lats = LatencyHistogram::new();
    for h in handles {
        let (elapsed, thread_lats) = h.join().expect("submitter");
        makespan = makespan.max(elapsed);
        lats.merge(&thread_lats);
    }
    nc.abort();
    let bytes = (threads as u64 * writes * size as u64) as f64;
    Arm {
        mib_s: bytes / (1 << 20) as f64 / makespan.as_secs_f64().max(1e-12),
        lat: Tail::of(&lats),
    }
}

/// Crash mid-burst: round-robin writes over 8 pairs, ring every third
/// batch, leave a tail unrung, crash with seeded eviction, recover, and
/// verify exactly the acknowledged writes.
fn crash_check(shards: usize) {
    let nvmm = NvmmProfile::optane().with_eviction_probability(0.3);
    let (rig, cache) = mount(shards, 8, 4096, 8, nvmm);
    let clock = &rig.clock;
    let fd = cache.open("/burst", OpenFlags::RDWR | OpenFlags::CREATE, clock).expect("open");

    let mut model = Model::new();
    let mut qps: Vec<_> = (0..8).map(|p| cache.queue_pair(p, clock).expect("claim")).collect();
    let mut pending: Vec<Vec<(u64, u8, usize)>> = vec![Vec::new(); 8];
    for i in 0..256u64 {
        let p = (i % 8) as usize;
        let off = (i * 2711) % 60000;
        let len = 512 + (i as usize * 97) % 512;
        let byte = (i % 251) as u8 + 1;
        qps[p].submit_pwrite(fd, &vec![byte; len], off, clock).expect("submit");
        pending[p].push((off, byte, len));
        // Ring two pairs out of three; the rest accumulate a torn tail.
        if pending[p].len() >= 3 && p % 3 != 2 {
            qps[p].ring_doorbell(clock);
            for c in qps[p].reap(clock) {
                c.result.as_ref().expect("acked");
            }
            for (off, byte, len) in pending[p].drain(..) {
                model.write("/burst", off, &vec![byte; len]);
            }
        }
    }
    let torn: usize = pending.iter().map(Vec::len).sum();
    assert!(torn > 0, "the scenario must leave a torn tail");
    drop(qps); // unrung submissions are discarded, never acknowledged

    rig.crash(&cache, 42);
    let recovered = rig.recover();
    model
        .check(&recovered)
        .unwrap_or_else(|e| panic!("recovered bytes != acked model: {e}"));
    recovered.shutdown(clock);
    println!(
        "crash check: OK — {} acked writes recovered byte-identical, {torn} torn \
         (unacknowledged) submissions discarded",
        256 - torn
    );
}

fn main() {
    let shards = arg_u64("--shards", 4).max(1) as usize;
    let submitters = arg_u64("--submitters", 8).max(1) as usize;
    let writes = arg_u64("--writes", 2048).max(1);
    let batch = arg_u64("--batch", 32).max(1);
    let json_path = arg_str("--json");
    println!(
        "SQ sweep — doorbell-batched multi-queue front-end vs synchronous submission \
         ({shards} log shards, up to {submitters} submitters, {writes} writes each, \
         doorbell every {batch})"
    );

    let sizes = [512usize, 1024, 4096];
    let pair_counts: Vec<usize> =
        [1usize, 2, 4, 8].iter().copied().filter(|&p| p <= submitters).collect();
    let mut rows = Vec::new();
    let mut json_rows = Vec::new();
    let mut accept_speedup: Option<f64> = None;
    for size in sizes {
        for &pairs in &pair_counts {
            let sync = run_arm(shards, pairs, false, size, writes, batch);
            let queued = run_arm(shards, pairs, true, size, writes, batch);
            let speedup = queued.mib_s / sync.mib_s.max(1e-12);
            if size == 512 && pairs == submitters {
                accept_speedup = Some(speedup);
            }
            let [sync_p50, sync_p99, sync_p999] = sync.lat.micros();
            let [queued_p50, queued_p99, queued_p999] = queued.lat.micros();
            rows.push(Row::new(
                format!("{size}B x{pairs}"),
                vec![
                    format!("{:.0}", sync.mib_s),
                    format!("{:.0}", queued.mib_s),
                    format!("{speedup:.2}x"),
                    format!("{sync_p50:.2}/{sync_p99:.2}"),
                    format!("{queued_p50:.2}/{queued_p99:.2}"),
                ],
            ));
            json_rows.push(Json::obj([
                ("write_size", Json::Int(size as i64)),
                ("sq_pairs", Json::Int(pairs as i64)),
                ("sync_mib_s", Json::Num(sync.mib_s)),
                ("queued_mib_s", Json::Num(queued.mib_s)),
                ("speedup", Json::Num(speedup)),
                ("sync_p50_us", Json::Num(sync_p50)),
                ("sync_p99_us", Json::Num(sync_p99)),
                ("sync_p999_us", Json::Num(sync_p999)),
                ("queued_p50_us", Json::Num(queued_p50)),
                ("queued_p99_us", Json::Num(queued_p99)),
                ("queued_p999_us", Json::Num(queued_p999)),
            ]));
        }
    }
    print_table(
        "SQ sweep (write size × queue pairs; throughput is the submitters' makespan)",
        &["sync MiB/s", "queued MiB/s", "speedup", "sync p50/p99 µs", "queued p50/p99 µs"],
        &rows,
    );

    crash_check(shards);

    let accept = accept_speedup.unwrap_or(0.0);
    let pass = accept >= 2.0;
    println!(
        "acceptance (512B, {submitters} pairs vs sync): {accept:.2}x — {}",
        if pass { "PASS (>= 2.0x)" } else { "FAIL (< 2.0x)" }
    );

    if let Some(path) = json_path {
        let doc = Json::obj([
            ("benchmark", Json::str("sqsweep")),
            (
                "config",
                Json::obj([
                    ("log_shards", Json::Int(shards as i64)),
                    ("submitters", Json::Int(submitters as i64)),
                    ("writes_per_submitter", Json::Int(writes as i64)),
                    ("doorbell_batch", Json::Int(batch as i64)),
                    ("nvmm_profile", Json::str("optane")),
                ]),
            ),
            ("rows", Json::Arr(json_rows)),
            (
                "acceptance",
                Json::obj([
                    ("required_speedup", Json::Num(2.0)),
                    ("achieved_speedup", Json::Num(accept)),
                    ("pass", Json::Bool(pass)),
                ]),
            ),
            ("crash_check", Json::str("ok")),
        ]);
        std::fs::write(&path, doc.render()).expect("write json snapshot");
        println!("wrote {path}");
    }
    assert!(pass, "acceptance gate failed");
}
