//! `crash-recover`: the durability claim itself.

use std::time::Instant;

use nvcache::NvCacheConfig;
use vfs::{Fd, OpenFlags};

use super::{checked_read, durable_write, timed, Params, Pass};
use crate::gen::{Rng, SizeMix, StreamHash};
use crate::model::{fill, ShadowFile};
use crate::stack::{Stack, StackSpec};
use crate::stats::Samples;
use crate::trace::{Key, Totals, Tracer};

pub const WHY: &str = "every acknowledged write is readable after abort + crash_and_restart + power failure + Mount::Recover; the only workload where recovery's merge replay works";

/// Entries of the log, over two stripes.
const LOG_ENTRIES: u64 = 16_384;
/// Entries a round acknowledges before the crash: three quarters of the
/// log, so neither stripe fills and nothing drains (the cleanup workers are
/// parked by an unreachable batch threshold).
const ROUND_ENTRIES: u64 = 12_288;
const FILES: usize = 8;
/// Writes land anywhere in a file's first 2 MiB, so they overlap.
const FILE_SPAN: u64 = 2 << 20;

fn sizes() -> SizeMix {
    SizeMix::new(&[(40, 256, 768), (30, 768, 4096), (25, 4096, 8192), (5, 12_288, 20_480)])
}

fn path(i: usize) -> String {
    format!("/vault/{i}.dat")
}

fn open_all(stack: &Stack, flags: OpenFlags) -> [Fd; FILES] {
    std::array::from_fn(|i| stack.fs.open(&path(i), flags, &stack.clock).expect("open vault file"))
}

pub fn run(params: &Params) -> Pass {
    let mut pass = Pass::default();
    let tracer = params.traced.then(Tracer::new);
    let spec = StackSpec {
        cfg: NvCacheConfig::default()
            .with_log_entries(params.scaled(LOG_ENTRIES, 1024))
            .with_log_shards(2)
            .with_batching(usize::MAX >> 1, usize::MAX >> 1)
            .with_read_cache_pages(4096),
        ssd_queue_depth: 1,
        track_durability: true,
    };
    let round_entries = params.scaled(ROUND_ENTRIES, 768);
    let span = params.scaled(FILE_SPAN, 64 << 10);
    let mix = sizes();
    let mut rng = Rng::new(params.seed, 1);
    let mut hash = StreamHash::default();
    let mut payload = vec![0u8; 20_480];
    let mut buf = vec![0u8; 64 << 10];
    let mut version = 0u64;
    let (mut replayed, mut recover_host_ns) = (0u64, 0u64);
    let mut recover_s = Samples::default();
    let mut spans = tracer.as_ref().map(|_| Totals::default());

    for _ in 0..params.rounds {
        // A fresh stack each round; building it is this workload's set-up.
        let t0 = Instant::now();
        let stack = Stack::format(&spec, tracer.clone());
        let fds = open_all(&stack, OpenFlags::RDWR | OpenFlags::CREATE);
        pass.setup_s.push(t0.elapsed().as_secs_f64());
        let mut shadows: [ShadowFile; FILES] = Default::default();
        let spans_before = stack.spans();
        let window_start = stack.clock.now();

        // Acknowledge mixed-size, overlapping writes until the log holds
        // the round's share of entries.
        let mut entries = 0u64;
        let mut bytes = 0u64;
        timed(&mut pass, &stack.clock, 0, |pass| {
            while entries < round_entries {
                let file = rng.below(FILES as u64) as usize;
                let len = mix.sample(&mut rng);
                let off = 8 * rng.below((span - len as u64) / 8);
                version += 1;
                fill(&mut payload[..len], off, version);
                shadows[file].write(off, &payload[..len]);
                hash.op(b'w', file as u64, off << 20 | len as u64);
                durable_write(&stack, fds[file], &payload[..len], off, pass, true);
                entries += len.div_ceil(4096) as u64;
                bytes += len as u64;
            }
        });
        let until_crash = stack.counters();

        // Power failure, then the recovering mount — the timed part.
        let crashed = stack.crash();
        let (v0, h0) = (crashed.clock.now(), Instant::now());
        let stack = crashed.recover();
        let host = h0.elapsed();
        let virt = (stack.clock.now() - v0).as_nanos();
        pass.timed_virt_ns += virt;
        recover_host_ns += host.as_nanos() as u64;
        recover_s.push(virt);
        // The write window is the replay, which writes every acknowledged
        // byte to Ext4; the pre-crash writes are priced by their latency.
        pass.write_bytes += bytes;
        pass.write_window_ns += virt;
        let report = stack.cache.recovery_report().expect("a recovering mount reports");
        replayed += report.entries_replayed;
        pass.op(report.entries_replayed == entries && report.entries_skipped == 0);

        // Read everything back, from only what survived.
        let failed_before = pass.ops_failed;
        let (fds, _) = timed(&mut pass, &stack.clock, 0, |pass| {
            let fds = open_all(&stack, OpenFlags::RDONLY);
            for (file, shadow) in shadows.iter().enumerate() {
                let mut off = 0;
                while off < shadow.len() {
                    let len = (8 * rng.range(512, 8192)).min(shadow.len() - off) as usize;
                    checked_read(&stack, fds[file], &mut buf[..len], off, pass, |got| {
                        shadow.check(off, got)
                    });
                    off += len as u64;
                }
            }
            fds
        });
        pass.lost_write |= pass.ops_failed > failed_before;
        pass.window_virt_ns += (stack.clock.now() - window_start).as_nanos();
        if let (Some(acc), Some(now), Some(then)) = (&mut spans, stack.spans(), spans_before) {
            acc.add(&now.since(&then));
        }
        pass.counters = pass.counters.plus(&until_crash.across_remount(&stack.counters()));
        for fd in fds {
            let _ = stack.fs.close(fd, &stack.clock);
        }
        stack.shutdown();
    }
    // The host rate is recovery's: entries replayed per host second of the
    // recovering mounts, not of the writes and read-backs around them.
    pass.timed_ops = replayed;
    pass.timed_host_ns = recover_host_ns;
    pass.spans = spans;
    pass.stream_hash = hash.value();
    let rounds = recover_s.len() as u64;
    let mount = pass.spans.as_ref().map(|t| *t.get(Key::Recover));
    pass.set("core.recovery.entries_replayed", Some(replayed as f64), rounds);
    pass.set("core.recovery.recover_s", recover_s.mean_us().map(|us| us / 1e6), rounds);
    // With spans, recovery's own share: the mount minus the Ext4 calls under it.
    let own_virt = mount.map_or(recover_s.sum_ns(), |m| m.self_virt_ns());
    let own_host = mount.map_or(recover_host_ns, |m| m.self_host_ns());
    pass.set(
        "core.recovery.virt_us_per_entry",
        Some(own_virt as f64 / 1e3 / replayed.max(1) as f64),
        replayed,
    );
    pass.set(
        "core.recovery.host_us_per_entry",
        Some(own_host as f64 / 1e3 / replayed.max(1) as f64),
        replayed,
    );
    pass.tracer = tracer;
    pass
}
