//! `wal-sync`: synchronous WAL appends when nothing waits on the drain.

use nvcache::NvCacheConfig;
use vfs::{Fd, OpenFlags};

use super::{checked_read, durable_write, set_up, timed, verify_inner, Params, Pass, Window};
use crate::gen::{Rng, SizeMix, StreamHash};
use crate::metrics::mib_per_s;
use crate::model::{fill, ShadowFile};
use crate::stack::{Counters, Stack, StackSpec};
use crate::trace::{Key, Tracer};

pub const WHY: &str = "sync-write latency when nothing waits on the drain: pwrite+fsync WAL appends, then the same stream through one queue pair";

const WAL_FILES: usize = 4;
/// A WAL file is recycled (appended from offset 0 again) at this size.
const SEGMENT_BYTES: u64 = 4 << 20;
/// Entries of the log: a whole round fits, and rounds are separated by an
/// untimed `flush_log`, so the writer never waits for space.
const LOG_ENTRIES: u64 = 65_536;
const SYNC_WRITES: u64 = 20_000;
const QUEUED_WRITES: u64 = 10_000;
/// Submits per doorbell in the queued arm.
const DOORBELL_EVERY: usize = 32;
const READ_BACKS: u64 = 4_096;

/// Record sizes: small records, medium records, page-sized blocks, and a
/// group commit; byte-granular within each class, as WAL records are.
fn sizes() -> SizeMix {
    SizeMix::new(&[(50, 256, 768), (25, 768, 1536), (20, 3072, 5120), (5, 12_288, 20_480)])
}

fn wal_path(file: usize) -> String {
    format!("/wal/{file:06}.log")
}

struct Wal {
    fds: [Fd; WAL_FILES],
    shadows: [ShadowFile; WAL_FILES],
    active: usize,
    off: u64,
    version: u64,
    /// `(file, off, len)` of this round's records, for the read-backs.
    records: Vec<(usize, u64, usize)>,
    payload: Vec<u8>,
}

impl Wal {
    /// Draws the next record and stamps its payload; returns its place.
    fn next(&mut self, rng: &mut Rng, mix: &SizeMix, hash: &mut StreamHash) -> (usize, u64, usize) {
        let len = mix.sample(rng);
        if self.off + len as u64 > SEGMENT_BYTES {
            self.active = (self.active + 1) % WAL_FILES;
            self.off = 0;
        }
        self.version += 1;
        let at = (self.active, self.off, len);
        fill(&mut self.payload[..len], (at.0 as u64) << 32 | at.1, self.version);
        self.shadows[at.0].write(at.1, &self.payload[..len]);
        hash.op(b'w', at.0 as u64, at.1 << 20 | len as u64);
        self.records.push(at);
        self.off += len as u64;
        at
    }
}

pub fn run(params: &Params) -> Pass {
    let mut pass = Pass::default();
    let tracer = params.traced.then(Tracer::new);
    let spec = StackSpec {
        cfg: NvCacheConfig::default()
            .with_log_entries(params.scaled(LOG_ENTRIES, 4096))
            .with_log_shards(1)
            .with_queue_depth(1)
            .with_sq_pairs(1),
        ssd_queue_depth: 1,
        track_durability: false,
    };
    let (stack, fds) = set_up(
        params,
        &mut pass,
        || {
            let stack = Stack::format(&spec, tracer.clone());
            let fds = std::array::from_fn(|i| {
                stack
                    .fs
                    .open(&wal_path(i), OpenFlags::RDWR | OpenFlags::CREATE, &stack.clock)
                    .expect("open WAL file")
            });
            (stack, fds)
        },
        |(stack, _)| stack.shutdown(),
    );
    let clock = &stack.clock;
    let mix = sizes();
    let mut rng = Rng::new(params.seed, 1);
    let mut pick = Rng::new(params.seed, 2);
    let mut hash = StreamHash::default();
    let mut wal = Wal {
        fds,
        shadows: Default::default(),
        active: 0,
        off: 0,
        version: 0,
        records: Vec::new(),
        payload: vec![0; 20_480],
    };
    let sync_writes = params.scaled(SYNC_WRITES, 200);
    let queued_writes = params.scaled(QUEUED_WRITES, 100);
    let read_backs = params.scaled(READ_BACKS, 64);
    let mut qp = stack.cache.queue_pair(0, clock).expect("claim queue pair 0");
    let (mut sync_bytes, mut sync_ns, mut queued_bytes, mut queued_ns) = (0u64, 0u64, 0u64, 0u64);
    // Each arm's own counter windows: the DIMM's counters are shared, and
    // a per-write price must not mix the two arms.
    let (mut sync_arm, mut queued_arm) = (Counters::default(), Counters::default());
    let mut buf = vec![0u8; 20_480];

    let window = Window::open(&stack);
    for _ in 0..params.rounds {
        wal.records.clear();

        // Sync arm: each op is pwrite + fsync, acknowledged durable.
        let arm_start = stack.counters();
        let (bytes, virt) = timed(&mut pass, clock, sync_writes, |pass| {
            let mut bytes = 0u64;
            for _ in 0..sync_writes {
                let (file, off, len) = wal.next(&mut rng, &mix, &mut hash);
                durable_write(&stack, wal.fds[file], &wal.payload[..len], off, pass, true);
                bytes += len as u64;
            }
            bytes
        });
        sync_bytes += bytes;
        sync_ns += virt;
        sync_arm = sync_arm.plus(&stack.counters().since(&arm_start));

        // Queued arm: the same stream through one queue pair.
        let arm_start = stack.counters();
        let (bytes, virt) = timed(&mut pass, clock, queued_writes, |pass| {
            let mut bytes = 0u64;
            let mut left = queued_writes as usize;
            while left > 0 {
                let burst = left.min(DOORBELL_EVERY);
                pass.next_op += 1;
                Tracer::set_op(pass.next_op);
                for _ in 0..burst {
                    let (file, off, len) = wal.next(&mut rng, &mix, &mut hash);
                    let queued = stack.span(Key::SqSubmit, || {
                        qp.submit_pwrite(wal.fds[file], &wal.payload[..len], off, clock)
                    });
                    if queued.is_err() {
                        pass.op(false);
                    }
                    bytes += len as u64;
                }
                stack.span(Key::SqDoorbell, || qp.ring_doorbell(clock));
                let done = stack.span(Key::SqReap, || qp.reap(clock));
                for c in &done {
                    pass.op(c.result.is_ok());
                }
                left -= burst;
            }
            bytes
        });
        queued_bytes += bytes;
        queued_ns += virt;
        queued_arm = queued_arm.plus(&stack.counters().since(&arm_start));

        // Untimed: drain.
        stack.cache.flush_log(clock);
        // Read a sample back through the cache. After the drain, so that no
        // read races a cleanup worker and virtual time stays exact (reads of
        // still-logged data are mixed-rw's subject).
        timed(&mut pass, clock, read_backs, |pass| {
            for _ in 0..read_backs {
                let (file, off, len) = wal.records[pick.below(wal.records.len() as u64) as usize];
                checked_read(&stack, wal.fds[file], &mut buf[..len], off, pass, |got| {
                    wal.shadows[file].check(off, got)
                });
            }
        });
    }
    drop(qp);
    window.close(&stack, &mut pass);

    // Outside the measured window: read a sample of the last round's records
    // straight from Ext4 (the log is drained; a recycled record's place
    // holds what the shadow holds).
    let mut by_file: [Vec<(u64, usize)>; WAL_FILES] = Default::default();
    for _ in 0..read_backs {
        let (file, off, len) = wal.records[pick.below(wal.records.len() as u64) as usize];
        by_file[file].push((off, len));
    }
    for (file, sample) in by_file.into_iter().enumerate().filter(|(_, s)| !s.is_empty()) {
        verify_inner(&stack, &wal_path(file), sample.into_iter(), &mut pass, |off, got| {
            wal.shadows[file].check(off, got)
        });
    }
    pass.write_bytes = sync_bytes + queued_bytes;
    pass.write_window_ns = sync_ns + queued_ns;
    pass.stream_hash = hash.value();
    pass.set(
        "core.cache.sync_write_mib_s",
        mib_per_s(sync_bytes, sync_ns),
        pass.writes.len() as u64,
    );
    pass.set(
        "core.squeue.write_mib_s",
        mib_per_s(queued_bytes, queued_ns),
        queued_arm.sq_submitted,
    );
    let fences = queued_arm.nvmm_fences + queued_arm.nvmm_drains;
    let per_op =
        (queued_arm.sq_submitted > 0).then(|| fences as f64 / queued_arm.sq_submitted as f64);
    pass.set("core.squeue.fences_per_op", per_op, queued_arm.sq_submitted);
    pass.sync_write_counters = Some(sync_arm);
    if pass.counters.log_full_waits != 0 {
        // The workload's premise is that the writer never waits for space.
        pass.ops_failed += pass.counters.log_full_waits;
    }
    for fd in wal.fds {
        let _ = stack.fs.close(fd, clock);
    }
    stack.shutdown();
    pass
}
