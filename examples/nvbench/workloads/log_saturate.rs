//! `log-saturate`: data ≫ log, so the writer mostly waits on the drain.

use nvcache::NvCacheConfig;
use vfs::OpenFlags;

use super::{
    checked_read, durable_write, extent, set_up, timed, verify_inner, Params, Pass, Window, BLOCK,
};
use crate::gen::{Rng, StreamHash};
use crate::model::BlockModel;
use crate::stack::{Stack, StackSpec};
use crate::trace::Tracer;

pub const WHY: &str = "Fig. 5's floor: uniform random 4 KiB pwrite+fsync over a file 32x the log, so cleanup, uring, ext4 and the SSD do the work";

/// Entries of the log (32 MiB), split over two stripes.
const LOG_ENTRIES: u64 = 8192;
/// Blocks of the file (256 MiB): uniform offsets, the worst case for
/// coalescing.
const FILE_BLOCKS: u64 = 65_536;
/// Entries per cleanup batch, fixed (min = max). With the default window a
/// batch takes whatever is pending when the worker wakes, which is up to
/// the host's scheduler: the drain rate then moved 5 % between runs.
const CLEANUP_BATCH: u64 = 1024;
const ROUND_WRITES: u64 = 16_384;
const ROUND_READS: u64 = 2_048;
const INNER_CHECKS: u64 = 4_096;
const PATH: &str = "/data/saturate.dat";

pub fn run(params: &Params) -> Pass {
    let mut pass = Pass::default();
    let tracer = params.traced.then(Tracer::new);
    let log_entries = params.scaled(LOG_ENTRIES, 256);
    let file_blocks = params.scaled(FILE_BLOCKS, 2048);
    let batch = params.scaled(CLEANUP_BATCH, 32) as usize;
    let spec = StackSpec {
        cfg: NvCacheConfig::default()
            .with_log_entries(log_entries)
            .with_log_shards(2)
            .with_queue_depth(8)
            .with_batching(batch, batch)
            .with_read_cache_pages(4096),
        ssd_queue_depth: 8,
        track_durability: false,
    };
    let mut hash = StreamHash::default();
    let mut buf = vec![0u8; BLOCK];
    let (stack, fd, mut model, mut rng, warm, untimed) = set_up(
        params,
        &mut pass,
        || {
            let stack = Stack::format(&spec, tracer.clone());
            let flags = OpenFlags::RDWR | OpenFlags::CREATE;
            let fd = stack.fs.open(PATH, flags, &stack.clock).expect("create the data file");
            let mut model = BlockModel::new(file_blocks as usize, BLOCK);
            let mut rng = Rng::new(params.seed, 1);
            // Untimed warm-up of twice the log: the timed phase starts
            // saturated.
            let mut untimed = Pass::default();
            let mut warm = Vec::new();
            for _ in 0..2 * log_entries {
                let block = rng.below(file_blocks);
                model.next_payload(block, &mut buf);
                durable_write(&stack, fd, &buf, block * BLOCK as u64, &mut untimed, false);
                warm.push((block as u32, model.version(block)));
            }
            (stack, fd, model, rng, warm, untimed)
        },
        |(stack, ..)| stack.shutdown(),
    );
    pass.absorb_warmup(untimed);
    let clock = &stack.clock;
    let mut pick = Rng::new(params.seed, 2);
    let round_writes = params.scaled(ROUND_WRITES, 512);
    let round_reads = params.scaled(ROUND_READS, 64);
    // The blocks of the round before (first: of the warm-up) that this round
    // has not rewritten. By now they have drained into Ext4's page cache,
    // which keeps the reads off the SSD's saturated write queue, and none
    // has an entry left in the log, which keeps them out of `dirty_miss`
    // (racing `free_range` it can return stale bytes; see mixed-rw).
    let mut previous: Vec<(u32, u32)> = warm;
    let mut written: Vec<(u32, u32)> = Vec::new();

    let window = Window::open(&stack);
    for _ in 0..params.rounds {
        written.clear();
        let (_, virt) = timed(&mut pass, clock, round_writes, |pass| {
            for _ in 0..round_writes {
                let block = rng.below(file_blocks);
                hash.op(b'w', block, 0);
                model.next_payload(block, &mut buf);
                durable_write(&stack, fd, &buf, block * BLOCK as u64, pass, true);
                written.push((block as u32, model.version(block)));
            }
        });
        pass.write_bytes += round_writes * BLOCK as u64;
        pass.write_window_ns += virt;
        timed(&mut pass, clock, round_reads, |pass| {
            previous.retain(|&(block, version)| model.version(block as u64) == version);
            for _ in 0..round_reads {
                let block = previous[pick.below(previous.len() as u64) as usize].0 as u64;
                let (off, len) = extent(&mut pick, block);
                checked_read(&stack, fd, &mut buf[..len], off, pass, |got| {
                    model.check(block, (off % BLOCK as u64) as usize, got)
                });
            }
        });
        std::mem::swap(&mut previous, &mut written);
    }
    window.close(&stack, &mut pass);
    pass.stream_hash = hash.value();

    stack.cache.flush_log(clock);
    let sample: Vec<u64> =
        (0..params.scaled(INNER_CHECKS, 256)).map(|_| pick.below(file_blocks)).collect();
    let touched = sample.into_iter().filter(|&b| model.version(b) > 0).collect::<Vec<_>>();
    verify_inner(
        &stack,
        PATH,
        touched.into_iter().map(|b| (b * BLOCK as u64, BLOCK)),
        &mut pass,
        |off, got| model.check(off / BLOCK as u64, 0, got),
    );
    let _ = stack.fs.close(fd, clock);
    stack.shutdown();
    pass
}
