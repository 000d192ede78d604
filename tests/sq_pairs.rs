//! The multi-queue submission front-end: SQ/CQ equivalence oracles,
//! multi-threaded submitter stress, doorbell-batch amortization, fd-table
//! exhaustion, and crash-mid-burst recovery over `sq_pairs ∈ {0,1,4,8}`.

use std::collections::BTreeMap;
use std::sync::Arc;

use nvcache_repro::nvcache::{
    FaultLayer, NvCache, NvCacheConfig, NvCacheStatsSnapshot, QueuePair, COPY_GIB_PER_SEC,
};
use nvcache_repro::nvmm::NvmmProfile;
use nvcache_repro::simclock::{ActorClock, Bandwidth, SimTime};
use nvcache_repro::vfs::{FileSystem, IoError, OpenFlags};
use proptest::prelude::*;

use nvcache_bench::rig::{parked, Below, Model, Rig};

fn mount(cfg: NvCacheConfig) -> (ActorClock, Arc<dyn FileSystem>, Arc<NvCache>) {
    let (Rig { clock, below, .. }, cache) = Rig::new(cfg, Below::memfs(1));
    (clock, Arc::clone(&below.bases[0]), Arc::new(cache))
}

/// A mount over `MemFs` on an Optane DIMM.
fn optane(cfg: NvCacheConfig) -> (Rig, NvCache) {
    Rig::new(cfg, Below { nvmm: NvmmProfile::optane(), ..Below::memfs(1) })
}

/// Under `pmcheck`, audit the mount's post-mortem registries: violations
/// panic at the offending site already, but an end-of-run sweep also
/// catches reports raised (and caught) on worker threads, and checks the
/// lock-order recorder actually observed acquisitions.
#[cfg(feature = "pmcheck")]
fn assert_checkers_clean(cache: &NvCache) {
    assert!(cache.pm_violations().is_empty(), "{:?}", cache.pm_violations());
    assert!(cache.lock_order_violations().is_empty(), "{:?}", cache.lock_order_violations());
}
#[cfg(not(feature = "pmcheck"))]
fn assert_checkers_clean(_cache: &NvCache) {}

fn small_cfg(shards: usize, sq_pairs: usize) -> NvCacheConfig {
    NvCacheConfig {
        nb_entries: 1024,
        read_cache_pages: 128,
        batch_min: 1,
        batch_max: 64,
        fd_slots: 16,
        ..NvCacheConfig::default()
    }
    .with_log_shards(shards)
    .with_sq_pairs(sq_pairs)
}

/// A synchronous workload must not notice the `sq_pairs` knob at all:
/// byte-identical content, *virtual-time*-identical clock, same log
/// counters whether the mount has 0 or 8 (unused) queue pairs. Cleanup is
/// parked (huge `batch_min`) so the write-path clock is fully
/// deterministic — cross-thread drain timing is not part of this oracle.
#[test]
fn unused_queue_pairs_leave_the_sync_path_identical() {
    let run = |sq_pairs: usize| {
        // Parked cleanup: a deterministic clock.
        let (clock, _inner, cache) = mount(parked(small_cfg(2, sq_pairs)));
        let fd = cache.open("/id", OpenFlags::RDWR | OpenFlags::CREATE, &clock).unwrap();
        for i in 0..40u64 {
            let len = 1 + (i as usize * 97) % 6000;
            cache.pwrite(fd, &vec![(i + 1) as u8; len], (i * 1337) % 16384, &clock).unwrap();
        }
        let elapsed = clock.now();
        let size = cache.fstat(fd, &clock).unwrap().size;
        let mut view = vec![0u8; size as usize];
        cache.pread(fd, &mut view, 0, &clock).unwrap();
        let snap = cache.stats().snapshot();
        cache.abort();
        (view, elapsed, snap.writes, snap.bytes_logged, snap.entries_logged)
    };
    let zero = run(0);
    let eight = run(8);
    assert_eq!(zero.0, eight.0, "bytes diverged");
    assert_eq!(zero.1, eight.1, "virtual time diverged");
    assert_eq!((zero.2, zero.3, zero.4), (eight.2, eight.3, eight.4), "counters diverged");
}

/// One step of the synchronous-vs-queued oracle.
#[derive(Clone, Copy)]
enum Op {
    Write {
        off: u64,
        len: usize,
        byte: u8,
    },
    /// Reads the whole file through the cache (a synchronous call in both
    /// arms), so later writes update loaded pages in place.
    ReadAll,
}

/// What one arm of the oracle leaves behind.
struct Run {
    /// Virtual time of the op sequence (after open and queue-pair claim).
    elapsed: SimTime,
    /// NVMM region image and DIMM counters right after the last op.
    region: Vec<u8>,
    nvmm: [u64; 5],
    stats: NvCacheStatsSnapshot,
    /// The queued arm's counters between its last doorbell that rang a
    /// write and that doorbell's reap.
    rung: Option<NvCacheStatsSnapshot>,
    /// The backend's bytes after a full drain.
    inner: Vec<u8>,
}

/// Runs `ops` on a fresh mount — synchronously, or through queue pair 0
/// with a doorbell + reap every `doorbell_every` submissions (and before
/// every read, and at the end).
fn run_ops(cfg: NvCacheConfig, ops: &[Op], doorbell_every: Option<usize>) -> Run {
    let (rig, cache) = optane(cfg);
    let (clock, dimm, inner) = (&rig.clock, rig.dimm(), &rig.below.bases[0]);
    let fd = cache.open("/w", OpenFlags::RDWR | OpenFlags::CREATE, clock).unwrap();
    let mut qp = doorbell_every.map(|_| cache.queue_pair(0, clock).unwrap());
    let mut rung = None;
    let mut ring = |qp: &mut QueuePair| {
        let n = qp.ring_doorbell(clock);
        if n > 0 {
            rung = Some(cache.stats().snapshot());
        }
        let done = qp.reap(clock);
        assert_eq!(done.len(), n, "every rung write must complete");
        assert!(done.iter().all(|c| c.result.is_ok()));
        assert!(done.windows(2).all(|w| w[0].user_data < w[1].user_data));
    };
    let t0 = clock.now();
    for &op in ops {
        match (op, qp.as_mut()) {
            (Op::Write { off, len, byte }, None) => {
                cache.pwrite(fd, &vec![byte; len], off, clock).unwrap();
            }
            (Op::Write { off, len, byte }, Some(qp)) => {
                qp.submit_pwrite(fd, &vec![byte; len], off, clock).unwrap();
                if Some(qp.sq_len()) == doorbell_every {
                    ring(qp);
                }
            }
            (Op::ReadAll, qp) => {
                qp.map(&mut ring);
                let mut view = vec![0u8; cache.fstat(fd, clock).unwrap().size as usize];
                cache.pread(fd, &mut view, 0, clock).unwrap();
            }
        }
    }
    qp.as_mut().map(ring);
    let elapsed = clock.now() - t0;
    drop(qp);

    let mut region = vec![0u8; dimm.len() as usize];
    dimm.read_cached(0, &mut region);
    let n = dimm.stats().snapshot();
    let nvmm = [n.fences, n.drains, n.lines_flushed, n.commit_stores, n.bytes_stored];
    let stats = cache.stats().snapshot();
    assert_checkers_clean(&cache);

    cache.flush_log(clock);
    let mut inner_view = vec![0u8; cache.fstat(fd, clock).unwrap().size as usize];
    let ifd = inner.open("/w", OpenFlags::RDONLY, clock).unwrap();
    inner.pread(ifd, &mut inner_view, 0, clock).unwrap();
    cache.shutdown(clock);
    Run { elapsed, region, nvmm, stats, rung, inner: inner_view }
}

/// The same op sequence, submitted through a queue pair, must converge to
/// the same backend bytes as the synchronous oracle — overlapping,
/// page-straddling and multi-entry writes included, with the same log
/// counters — counted at the doorbell, before the reap. And the synchronous
/// write *is* a one-op doorbell: rung after every submission, with nothing
/// draining, the queued arm leaves a byte-identical NVMM image, identical
/// DIMM and log counters, and a clock that differs by exactly the ring
/// copies.
#[test]
fn queued_writes_match_the_synchronous_oracle() {
    let scattered: Vec<Op> = (0..48u64)
        .map(|i| Op::Write {
            off: (i * 2711) % 20000,
            len: 1 + ((i as usize * 131) % 9000),
            byte: (i + 1) as u8,
        })
        .collect();
    // Sub-entry, page-straddling and multi-entry-group writes; then the same
    // shapes again over pages the read loaded.
    let shapes =
        [(0u64, 100usize), (4000, 200), (8192, 3 * 4096), (10, 5000), (7 * 4096 + 1, 4095)];
    let mut shaped: Vec<Op> = Vec::new();
    for round in 0..2u8 {
        for (i, &(off, len)) in shapes.iter().enumerate() {
            shaped.push(Op::Write { off, len, byte: 16 * (round + 1) + i as u8 });
        }
        shaped.push(Op::ReadAll);
    }
    // Parked cleanup: nothing but the ops runs.
    let parked = |shards| parked(small_cfg(shards, 1));

    for (name, cfg, ops, every) in [
        ("batched", small_cfg(4, 1), &scattered, 6),
        ("one-op", parked(1), &shaped, 1),
        ("one-op, striped", parked(4), &shaped, 1),
    ] {
        let sync = run_ops(cfg.clone(), ops, None);
        let queued = run_ops(cfg.clone(), ops, Some(every));
        assert_eq!(queued.inner, sync.inner, "{name}: queued path diverged from the oracle");

        let writes: Vec<usize> = ops
            .iter()
            .filter_map(|op| match op {
                Op::Write { len, .. } => Some(*len),
                Op::ReadAll => None,
            })
            .collect();
        let log_side = |s: &NvCacheStatsSnapshot| {
            let per_shard: Vec<u64> = s.per_shard.iter().map(|p| p.entries_logged).collect();
            (
                s.writes,
                s.bytes_logged,
                s.entries_logged,
                s.groups_logged,
                s.log_full_waits,
                per_shard,
            )
        };
        assert_eq!(log_side(&queued.stats), log_side(&sync.stats), "{name}: log counters");
        let rung = queued.rung.as_ref().expect("the queued arm rings");
        assert_eq!(log_side(rung), log_side(&sync.stats), "{name}: counted before the reap");
        assert_eq!(queued.stats.writes, writes.len() as u64);
        // The per-queue counters observed the run; an empty ring is free and
        // uncounted.
        let q = queued.stats.per_queue[0];
        assert_eq!(q.sq_submitted, writes.len() as u64, "{name}");
        assert_eq!(q.sq_doorbells, writes.len().div_ceil(every) as u64, "{name}");

        if every == 1 {
            assert!(queued.region == sync.region, "{name}: NVMM images differ");
            assert_eq!(queued.nvmm, sync.nvmm, "{name}: DIMM counters");
            let copy = Bandwidth::gib_per_sec(COPY_GIB_PER_SEC);
            let ring_copies: SimTime = writes.iter().map(|&len| copy.time_for(len as u64)).sum();
            assert_eq!(queued.elapsed - sync.elapsed, ring_copies, "{name}: virtual time");
        }
    }
}

/// A doorbell larger than its (poisoned) stripe fails window by window — and
/// still completes its writes in submission order.
#[test]
fn poisoned_stripe_fails_a_multi_window_doorbell_in_submission_order() {
    let cfg = NvCacheConfig { nb_entries: 4, ..small_cfg(1, 1) };
    let below = Below { layers: vec![Arc::new(FaultLayer::failing_pwrites(0))], ..Below::memfs(1) };
    let (Rig { clock, .. }, cache) = Rig::new(cfg, below);
    let fd = cache.open("/p", OpenFlags::RDWR | OpenFlags::CREATE, &clock).unwrap();
    // The first propagation fails and poisons the only stripe.
    cache.pwrite(fd, &[1u8; 64], 0, &clock).unwrap();
    while cache.poisoned_stripes().is_empty() {
        std::thread::yield_now();
    }

    let mut qp = cache.queue_pair(0, &clock).unwrap();
    let submitted: Vec<u64> = (0..10u64)
        .map(|i| qp.submit_pwrite(fd, &[2u8; 64], i * 4096, &clock).unwrap())
        .collect();
    assert_eq!(qp.ring_doorbell(&clock), 10); // three windows of a 4-entry stripe
    let done = qp.reap(&clock);
    assert!(done.iter().all(|c| c.result.is_err()), "a poisoned stripe accepts nothing");
    let order: Vec<u64> = done.iter().map(|c| c.user_data).collect();
    assert_eq!(order, submitted, "completions must keep submission order");
    assert_eq!(cache.stats().snapshot().writes, 1, "failed writes are not counted");
    drop(qp);
    cache.close(fd, &clock).unwrap(); // no in-flight count left behind
    cache.abort();
}

/// Doorbell batching must amortize the per-write fixed costs (libc
/// crossing + fence pair): a 64-write burst of small writes through one
/// doorbell takes materially less virtual time than the same burst
/// synchronously.
#[test]
fn doorbell_batching_amortizes_fixed_costs() {
    let run = |queued: bool| {
        let (Rig { clock, .. }, cache) = optane(small_cfg(1, 1));
        let fd = cache.open("/amortize", OpenFlags::RDWR | OpenFlags::CREATE, &clock).unwrap();
        let data = vec![7u8; 512];
        let t0 = clock.now();
        if queued {
            let mut qp = cache.queue_pair(0, &clock).unwrap();
            for i in 0..64u64 {
                qp.submit_pwrite(fd, &data, i * 4096, &clock).unwrap();
            }
            qp.ring_doorbell(&clock);
            assert_eq!(qp.reap(&clock).len(), 64);
        } else {
            for i in 0..64u64 {
                cache.pwrite(fd, &data, i * 4096, &clock).unwrap();
            }
        }
        let elapsed = clock.now() - t0;
        cache.shutdown(&clock);
        elapsed
    };
    let sync = run(false);
    let batched = run(true);
    assert!(
        batched.as_nanos() * 2 < sync.as_nanos(),
        "one doorbell for 64 small writes should cost < half of 64 sync writes \
         (sync {sync}, batched {batched})"
    );
}

/// N queue pairs driven by N threads, hammering one shared file with
/// overlapping page-straddling writes plus a private region each. After a
/// full drain the inner file system must agree byte-for-byte with
/// NVCache's own view — per-page propagation order held across queues and
/// stripes.
#[test]
fn concurrent_submitters_keep_per_page_order() {
    let (clock, inner, cache) = mount(small_cfg(4, 4));
    let fd = cache.open("/stress", OpenFlags::RDWR | OpenFlags::CREATE, &clock).unwrap();
    let mut handles = Vec::new();
    for t in 0..4u8 {
        let cache = Arc::clone(&cache);
        handles.push(std::thread::spawn(move || {
            let clock = ActorClock::new();
            let mut qp = cache.queue_pair(t as usize, &clock).unwrap();
            let mut completions = 0usize;
            for round in 0..48u64 {
                // Contended: unaligned overlapping ranges shared by all
                // threads (multi-page, multi-stripe).
                let off = (round % 4) * 2048;
                let len = if t % 2 == 0 { 8192 } else { 3000 };
                let byte = 1u8.wrapping_add(t).wrapping_add((round as u8) << 4);
                qp.submit_pwrite(fd, &vec![byte; len], off, &clock).unwrap();
                // Private: each thread owns a distinct far region.
                let private = 1 << 20 | u64::from(t) << 16;
                qp.submit_pwrite(fd, &[byte; 512], private + round * 512, &clock).unwrap();
                if round % 3 == 2 {
                    qp.ring_doorbell(&clock);
                    completions += qp.reap(&clock).iter().filter(|c| c.result.is_ok()).count();
                }
            }
            qp.ring_doorbell(&clock);
            completions += qp.reap(&clock).iter().filter(|c| c.result.is_ok()).count();
            assert_eq!(completions, 96, "every submitted write must be acked");
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    cache.flush_log(&clock);
    assert_eq!(cache.pending_entries(), 0);

    let size = cache.fstat(fd, &clock).unwrap().size;
    let mut cache_view = vec![0u8; size as usize];
    cache.pread(fd, &mut cache_view, 0, &clock).unwrap();
    let ifd = inner.open("/stress", OpenFlags::RDONLY, &clock).unwrap();
    let mut inner_view = vec![0u8; size as usize];
    inner.pread(ifd, &mut inner_view, 0, &clock).unwrap();
    if let Some(pos) = cache_view.iter().zip(&inner_view).position(|(a, b)| a != b) {
        panic!(
            "per-page ordering broke across queues: byte {pos} is {} in the cache \
             view but {} on the inner fs",
            cache_view[pos], inner_view[pos]
        );
    }
    let snap = cache.stats().snapshot();
    assert_eq!(snap.per_queue.iter().map(|q| q.sq_submitted).sum::<u64>(), 4 * 96);
    assert!(snap.per_queue.iter().all(|q| q.sq_doorbells >= 16));
    assert_checkers_clean(&cache);
    // Multi-page writes over four queues guarantee nested acquisitions: the
    // lock-order recorder must have seen real edges, not an empty graph.
    #[cfg(feature = "pmcheck")]
    assert!(cache.lock_order_edges() > 0, "lock-order recorder saw no acquisitions");
    cache.shutdown(&clock);
}

/// Queue-pair claiming: out-of-range and double claims fail cleanly,
/// dropping the handle releases the pair.
#[test]
fn queue_pair_claims_are_exclusive() {
    let (clock, _inner, cache) = mount(small_cfg(1, 2));
    assert!(matches!(cache.queue_pair(2, &clock), Err(IoError::InvalidArgument(_))));
    let qp = cache.queue_pair(0, &clock).unwrap();
    assert!(matches!(cache.queue_pair(0, &clock), Err(IoError::Busy(_))));
    drop(qp);
    let _qp = cache.queue_pair(0, &clock).unwrap();
    cache.shutdown(&clock);

    let (clock, _inner, cache) = mount(small_cfg(1, 0));
    assert!(matches!(cache.queue_pair(0, &clock), Err(IoError::InvalidArgument(_))));
    cache.shutdown(&clock);
}

/// Submission-time errors surface at submit (nothing queued); flush
/// barriers complete at the doorbell; unrung entries are discarded without
/// wedging close().
#[test]
fn submission_errors_flushes_and_discard() {
    let (clock, _inner, cache) = mount(small_cfg(1, 1));
    let fd = cache.open("/q", OpenFlags::RDWR | OpenFlags::CREATE, &clock).unwrap();
    let rofd = cache.open("/q", OpenFlags::RDONLY, &clock).unwrap();
    let mut qp = cache.queue_pair(0, &clock).unwrap();
    assert!(matches!(qp.submit_pwrite(rofd, b"x", 0, &clock), Err(IoError::PermissionDenied(_))));
    let w = qp.submit_pwrite(fd, b"hello", 0, &clock).unwrap();
    let f = qp.submit_flush(fd).unwrap();
    qp.ring_doorbell(&clock);
    let done = qp.reap(&clock);
    assert_eq!(done.len(), 2);
    assert_eq!(done[0].user_data, w);
    assert_eq!(*done[0].result.as_ref().unwrap(), 5);
    assert_eq!(done[1].user_data, f);
    assert_eq!(*done[1].result.as_ref().unwrap(), 0);
    assert!(done[0].completed_at <= done[1].completed_at);

    // An unrung submission is silently discarded on drop (never acked) and
    // must not leave the descriptor's in-flight count behind.
    qp.submit_pwrite(fd, b"torn", 4096, &clock).unwrap();
    drop(qp);
    cache.close(rofd, &clock).unwrap();
    cache.close(fd, &clock).unwrap();
    cache.flush_log(&clock);
    let snap = cache.stats().snapshot();
    assert_eq!(snap.writes, 1, "the discarded submission must not count as a write");
    cache.shutdown(&clock);
}

/// fd-table exhaustion is a clean error (no busy-spin on an empty zombie
/// list) and is counted by `fd_slot_waits`; freeing a descriptor makes the
/// next open succeed again.
#[test]
fn fd_table_exhaustion_fails_cleanly_and_is_counted() {
    let cfg = NvCacheConfig { fd_slots: 4, ..small_cfg(1, 0) };
    let (clock, _inner, cache) = mount(cfg);
    let fds: Vec<_> = (0..4)
        .map(|i| {
            cache
                .open(&format!("/f{i}"), OpenFlags::RDWR | OpenFlags::CREATE, &clock)
                .expect("open within the table")
        })
        .collect();
    match cache.open("/f4", OpenFlags::RDWR | OpenFlags::CREATE, &clock) {
        Err(IoError::Other(msg)) => assert!(msg.contains("fd table"), "unexpected: {msg}"),
        other => panic!("expected a clean fd-table error, got {other:?}"),
    }
    assert_eq!(cache.stats().snapshot().fd_slot_waits, 1);
    cache.close(fds[0], &clock).unwrap();
    let fd = cache.open("/f4", OpenFlags::RDWR | OpenFlags::CREATE, &clock).unwrap();
    cache.close(fd, &clock).unwrap();
    cache.shutdown(&clock);
}

/// One crash-mid-burst scenario: writes are spread round-robin over the
/// pairs, doorbells ring at deterministic points, some submissions stay
/// unrung (a torn burst). Recovery must restore exactly the acknowledged
/// writes — in doorbell (commit) order — and nothing of the unrung tail.
fn run_sq_crash_scenario(
    ops: &[(u8, u16, u8, u16)],
    sq_pairs: usize,
    doorbell_every: usize,
    crash_seed: u64,
) {
    // Every entry stays in the log.
    let cfg = parked(NvCacheConfig {
        nb_entries: 512,
        fd_slots: 8,
        read_cache_pages: 4,
        ..NvCacheConfig::default()
    })
    .with_log_shards(4)
    .with_sq_pairs(sq_pairs);
    let nvmm = NvmmProfile::instant().with_eviction_probability(0.3);
    // A journaled backend: the namespace survives the crash, un-synced page
    // cache does not (MemFs would lose the files themselves).
    let (rig, cache) = Rig::new(cfg, Below { nvmm, ..Below::ext4(1) });
    let clock = &rig.clock;

    let mut fds = BTreeMap::new();
    for f in 0..2u8 {
        let fd = cache
            .open(&format!("/f{f}"), OpenFlags::RDWR | OpenFlags::CREATE, clock)
            .expect("open");
        fds.insert(f, fd);
    }

    // The model applies a pair's pending writes when its doorbell rings
    // (= commit order); unrung writes never reach it.
    let mut model = Model::new();
    let apply = |model: &mut Model, (f, off, byte, len): (u8, u16, u8, u16)| {
        model.write(&format!("/f{f}"), off as u64, &vec![byte; len as usize]);
    };

    if sq_pairs == 0 {
        for &op in ops {
            let (f, off, byte, len) = op;
            cache.pwrite(fds[&f], &vec![byte; len as usize], off as u64, clock).unwrap();
            apply(&mut model, op);
        }
    } else {
        let mut qps: Vec<_> = (0..sq_pairs).map(|i| cache.queue_pair(i, clock).unwrap()).collect();
        let mut pending: Vec<Vec<(u8, u16, u8, u16)>> = vec![Vec::new(); sq_pairs];
        for (i, &op) in ops.iter().enumerate() {
            let p = i % sq_pairs;
            let (f, off, byte, len) = op;
            qps[p]
                .submit_pwrite(fds[&f], &vec![byte; len as usize], off as u64, clock)
                .unwrap();
            pending[p].push(op);
            if pending[p].len() >= doorbell_every {
                qps[p].ring_doorbell(clock);
                for c in qps[p].reap(clock) {
                    assert!(c.result.is_ok());
                }
                for op in pending[p].drain(..) {
                    apply(&mut model, op);
                }
            }
        }
        // The remaining submissions stay unrung: a torn burst the crash
        // discards (they were never acknowledged).
        drop(qps);
    }

    // Crash with everything still in the log, then recover.
    assert_checkers_clean(&cache);
    rig.crash(&cache, crash_seed);
    let recovered = rig.recover();
    let held = model.check(&recovered);
    assert_eq!(held, Ok(()), "content wrong after crash (sq_pairs={sq_pairs})");
    assert_checkers_clean(&recovered);
    recovered.shutdown(clock);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    #[test]
    fn crash_mid_burst_recovers_exactly_the_acked_writes(
        ops in proptest::collection::vec(
            (0..2u8, 0..8192u16, 1..255u8, 1..2048u16), 1..48),
        sq_pairs in prop_oneof![Just(0usize), Just(1), Just(4), Just(8)],
        doorbell_every in 1..6usize,
        crash_seed in 0..1000u64,
    ) {
        run_sq_crash_scenario(&ops, sq_pairs, doorbell_every, crash_seed);
    }
}
