//! `mixed-rw`: zipfian reads beside writes on the same pages.

use nvcache::NvCacheConfig;
use simclock::ActorClock;
use vfs::OpenFlags;

use super::{
    checked_read, durable_write, extent, set_up, timed, verify_inner, Params, Pass, Window, BLOCK,
};
use crate::gen::{scatter, Rng, StreamHash, Zipf};
use crate::model::{fill, ShadowFile};
use crate::stack::{Stack, StackSpec};
use crate::trace::Tracer;

pub const WHY: &str = "reads beside writes on the same zipfian pages, working set 16x the read cache: hit, miss, dirty-miss replay, in-place update, eviction";

/// Pages of the prefilled file (128 MiB): 16× the read cache.
const FILE_BLOCKS: u64 = 32_768;
const READ_CACHE_PAGES: u64 = 2_048;
/// The cleanup worker is parked (an unreachable batch threshold) and the
/// log is drained by an untimed `flush_log` after every segment of
/// [`SEGMENT_OPS`] ops. So no write waits for space — that is
/// log-saturate's subject — and no read replays the log while a batch is
/// being freed: `dirty_miss` racing `free_range` can skip the newer of two
/// overlapping entries and return the older bytes (seen once in ~150 runs
/// with the worker free). Segments are short because a dirty miss scans
/// every pending entry: host time per read grows with the backlog.
const LOG_ENTRIES: u64 = 8_192;
const SEGMENT_OPS: u64 = 2_000;
const ZIPF_THETA: f64 = 0.99;
const WARMUP_OPS: u64 = 50_000;
/// Segments per round.
const ROUND_SEGMENTS: u64 = 10;
const INNER_CHECKS: u64 = 4_096;
const PATH: &str = "/data/mixed.dat";

/// The shadow of a file holding version 0 of every block, also written
/// straight into the inner file system.
fn prefill(stack: &Stack, blocks: u64) -> ShadowFile {
    let mut content = vec![0u8; blocks as usize * BLOCK];
    for (b, block) in content.chunks_exact_mut(BLOCK).enumerate() {
        fill(block, b as u64, 0);
    }
    let clock = ActorClock::new();
    let inner = stack.inner();
    let fd = inner
        .open(PATH, OpenFlags::RDWR | OpenFlags::CREATE, &clock)
        .expect("prefill open");
    for (i, chunk) in content.chunks(1 << 20).enumerate() {
        inner.pwrite(fd, chunk, (i as u64) << 20, &clock).expect("prefill");
    }
    inner.fsync(fd, &clock).expect("prefill fsync");
    inner.close(fd, &clock).expect("prefill close");
    ShadowFile::from(content)
}

pub fn run(params: &Params) -> Pass {
    let mut pass = Pass::default();
    let tracer = params.traced.then(Tracer::new);
    let blocks = params.scaled(FILE_BLOCKS, 2048).next_power_of_two();
    let spec = StackSpec {
        cfg: NvCacheConfig::default()
            .with_log_entries(params.scaled(LOG_ENTRIES, 2048))
            .with_log_shards(1)
            .with_queue_depth(1)
            .with_batching(usize::MAX >> 1, usize::MAX >> 1)
            .with_read_cache_pages((blocks / (FILE_BLOCKS / READ_CACHE_PAGES)) as usize),
        ssd_queue_depth: 1,
        track_durability: false,
    };
    let zipf = Zipf::new(blocks, ZIPF_THETA);
    let mut hash = StreamHash::default();
    let mut buf = vec![0u8; BLOCK];
    let mut version = 0u64;
    // One op of the mix: a read or a write of an extent of a zipf-popular
    // page. Returns the bytes written.
    let mut step =
        |rng: &mut Rng, stack: &Stack, fd, shadow: &mut ShadowFile, pass: &mut Pass, timed| {
            let block = scatter(zipf.sample(rng), blocks, params.seed);
            let (off, len) = extent(rng, block);
            let read = rng.next_u64() & 1 == 0;
            if timed {
                hash.op(if read { b'r' } else { b'w' }, off, len as u64);
            }
            if read {
                checked_read(stack, fd, &mut buf[..len], off, pass, |got| shadow.check(off, got));
                return 0;
            }
            version += 1;
            fill(&mut buf[..len], off, version);
            shadow.write(off, &buf[..len]);
            durable_write(stack, fd, &buf[..len], off, pass, timed);
            len as u64
        };
    let warmup_ops = params.scaled(WARMUP_OPS, 1000);
    let segment_ops = params.scaled(SEGMENT_OPS, 250);
    let (stack, fd, mut shadow, mut rng, untimed) = set_up(
        params,
        &mut pass,
        || {
            let stack = Stack::format(&spec, tracer.clone());
            let mut shadow = prefill(&stack, blocks);
            let fd =
                stack.fs.open(PATH, OpenFlags::RDWR, &stack.clock).expect("open the data file");
            let mut rng = Rng::new(params.seed, 1);
            let mut untimed = Pass::default();
            for _ in 0..warmup_ops / segment_ops {
                for _ in 0..segment_ops {
                    step(&mut rng, &stack, fd, &mut shadow, &mut untimed, false);
                }
                stack.cache.flush_log(&stack.clock);
            }
            (stack, fd, shadow, rng, untimed)
        },
        |(stack, ..)| stack.shutdown(),
    );
    pass.absorb_warmup(untimed);
    let clock = &stack.clock;

    let window = Window::open(&stack);
    for _ in 0..params.rounds as u64 * ROUND_SEGMENTS {
        let (bytes, virt) = timed(&mut pass, clock, segment_ops, |pass| {
            (0..segment_ops)
                .map(|_| step(&mut rng, &stack, fd, &mut shadow, pass, true))
                .sum::<u64>()
        });
        pass.write_bytes += bytes;
        pass.write_window_ns += virt;
        stack.cache.flush_log(clock);
    }
    window.close(&stack, &mut pass);
    pass.stream_hash = hash.value();

    let mut pick = Rng::new(params.seed, 2);
    let checks = params.scaled(INNER_CHECKS, 256);
    let extents: Vec<(u64, usize)> =
        (0..checks).map(|_| (pick.below(blocks) * BLOCK as u64, BLOCK)).collect();
    verify_inner(&stack, PATH, extents.into_iter(), &mut pass, |off, got| shadow.check(off, got));
    let _ = stack.fs.close(fd, clock);
    stack.shutdown();
    pass
}
