//! The five workloads and what one measured pass of any of them yields.
//!
//! All load is closed-loop from one client thread; NVCache's own cleanup
//! workers are part of the system under test. A pass runs a fixed number of
//! whole *rounds* — the same op recipe each time, drawn from one seeded
//! stream — so its op counts are the same on every commit and every host.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use simclock::ActorClock;
use vfs::{Fd, OpenFlags};

use crate::gen::Rng;
use crate::stack::{Counters, Stack};
use crate::stats::Samples;
use crate::trace::{Totals, Tracer};

pub mod crash_recover;
pub mod db_apps;
pub mod log_saturate;
pub mod mixed_rw;
pub mod wal_sync;

/// A workload: its name, why it exists, and how to run one pass of it.
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    /// Whether virtual time is a function of the op stream alone: inside a
    /// timed segment the driver waits on no other thread, and none changes
    /// what it will see.
    pub exact: bool,
    /// Rounds per second of `--seconds`, calibrated on two cores so that a
    /// whole run takes about that long. Run length is op counts, not a
    /// stopwatch: a slower commit takes longer, it does not do less.
    pub rounds_per_second: f64,
    /// Calls that can be inside the layers below the cache at once (cleanup
    /// workers × ring depth, plus the driver where it reads beside them):
    /// the cap of a `busy_virt_share`.
    pub lanes: f64,
    pub run: fn(&Params) -> Pass,
}

impl Workload {
    pub fn rounds(&self, seconds: f64) -> u32 {
        ((seconds * self.rounds_per_second).ceil() as u32).max(1)
    }
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "wal-sync",
        why: wal_sync::WHY,
        exact: true,
        rounds_per_second: 4.0,
        lanes: 1.0,
        run: wal_sync::run,
    },
    Workload {
        name: "log-saturate",
        why: log_saturate::WHY,
        exact: false,
        rounds_per_second: 5.0,
        lanes: 17.0,
        run: log_saturate::run,
    },
    Workload {
        name: "mixed-rw",
        why: mixed_rw::WHY,
        exact: true,
        rounds_per_second: 5.0,
        lanes: 1.0,
        run: mixed_rw::run,
    },
    Workload {
        name: "db-apps",
        why: db_apps::WHY,
        exact: false,
        rounds_per_second: 2.0,
        lanes: 2.0,
        run: db_apps::run,
    },
    Workload {
        name: "crash-recover",
        why: crash_recover::WHY,
        exact: true,
        rounds_per_second: 2.0,
        lanes: 1.0,
        run: crash_recover::run,
    },
];

/// Inputs of one pass.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    pub seed: u64,
    /// How many rounds to run.
    pub rounds: u32,
    /// Divides every size and op count (`--smoke` runs at 1/50).
    pub shrink: u64,
    /// Splice the trace wrappers into the stack.
    pub traced: bool,
    /// How many times to set the stack up; the last one is measured.
    pub setups: usize,
}

impl Params {
    /// `n / shrink`, at least `floor`.
    pub fn scaled(&self, n: u64, floor: u64) -> u64 {
        (n / self.shrink).max(floor)
    }
}

/// Everything one pass measured.
#[derive(Debug, Default)]
pub struct Pass {
    /// Host seconds of each set-up (stack build, mount, prefill, warm-up).
    pub setup_s: Vec<f64>,
    /// Virtual latency of each durable-write op.
    pub writes: Samples,
    /// Virtual latency of each read op.
    pub reads: Samples,
    /// Payload acknowledged durable in the write windows, and their
    /// virtual length (stalls included).
    pub write_bytes: u64,
    pub write_window_ns: u64,
    /// Driver ops of the timed segments and the host time they took
    /// (crash-recover: entries replayed, and the recovering mounts).
    pub timed_ops: u64,
    pub timed_host_ns: u64,
    /// Σ of the timed segments' virtual lengths, for the span-sum check.
    pub timed_virt_ns: u64,
    /// Virtual length of the whole measured phase, untimed drains included:
    /// what the counters and spans of [`Window`] were taken over.
    pub window_virt_ns: u64,
    pub ops_attempted: u64,
    pub ops_failed: u64,
    /// The driver's op id, carried by the spans under each op.
    pub next_op: u64,
    /// A description of the first op that failed.
    pub first_failure: Option<String>,
    /// An acknowledged write was lost: the run must exit non-zero.
    pub lost_write: bool,
    pub stream_hash: u64,
    /// Layer counters over the measured phase.
    pub counters: Counters,
    /// Counters over the synchronous write segments alone, where a workload
    /// also writes another way (wal-sync's queued arm): the DIMM's counters
    /// are shared, and a per-write price must not mix the two.
    pub sync_write_counters: Option<Counters>,
    /// Span totals over the measured phase (traced passes only).
    pub spans: Option<Totals>,
    /// The traced stack's span sink, outliving the stack.
    pub tracer: Option<Arc<Tracer>>,
    /// Per-layer values only this workload can produce, by metric name.
    pub extra: BTreeMap<&'static str, (Option<f64>, u64)>,
}

impl Pass {
    pub fn set(&mut self, name: &'static str, value: Option<f64>, samples: u64) {
        self.extra.insert(name, (value, samples));
    }

    /// Records what the first failed op was, for the report.
    pub fn note(&mut self, what: impl FnOnce() -> String) {
        if self.first_failure.is_none() {
            self.first_failure = Some(what());
        }
    }

    /// Takes over the op counts of an untimed warm-up: its latencies are
    /// not measurements, its failures still are failures.
    pub fn absorb_warmup(&mut self, warmup: Pass) {
        self.ops_attempted += warmup.ops_attempted;
        self.ops_failed += warmup.ops_failed;
        self.first_failure = self.first_failure.take().or(warmup.first_failure);
    }

    /// Counts one attempted op; `ok = false` also counts it failed.
    pub fn op(&mut self, ok: bool) {
        self.ops_attempted += 1;
        self.ops_failed += !ok as u64;
    }
}

/// The measured phase of a pass on one stack: what the layers counted and
/// the wrappers recorded between [`Window::open`] and [`Window::close`].
pub struct Window {
    opened_ns: u64,
    counters: Counters,
    spans: Option<Totals>,
}

impl Window {
    pub fn open(stack: &Stack) -> Window {
        Window {
            opened_ns: stack.clock.now().as_nanos(),
            counters: stack.counters(),
            spans: stack.spans(),
        }
    }

    pub fn close(self, stack: &Stack, pass: &mut Pass) {
        pass.window_virt_ns = stack.clock.now().as_nanos() - self.opened_ns;
        pass.counters = stack.counters().since(&self.counters);
        pass.spans = stack.spans().zip(self.spans).map(|(now, then)| now.since(&then));
        pass.tracer = stack.tracer.clone();
    }
}

/// Runs `f` as a timed segment of `ops` driver ops, clocked on both clocks;
/// returns its result and virtual length in nanoseconds.
pub fn timed<R>(
    pass: &mut Pass,
    clock: &ActorClock,
    ops: u64,
    f: impl FnOnce(&mut Pass) -> R,
) -> (R, u64) {
    let v0 = clock.now();
    let h0 = Instant::now();
    let r = f(pass);
    pass.timed_host_ns += h0.elapsed().as_nanos() as u64;
    pass.timed_ops += ops;
    let virt = (clock.now() - v0).as_nanos();
    pass.timed_virt_ns += virt;
    (r, virt)
}

/// Runs `setup` `params.setups` times, shutting down all but the last
/// result, and records each run's host seconds.
pub fn set_up<S>(
    params: &Params,
    pass: &mut Pass,
    mut setup: impl FnMut() -> S,
    teardown: impl Fn(S),
) -> S {
    let mut last = None;
    for _ in 0..params.setups.max(1) {
        if let Some(prev) = last.take() {
            teardown(prev);
        }
        let t0 = Instant::now();
        last = Some(setup());
        pass.setup_s.push(t0.elapsed().as_secs_f64());
    }
    last.expect("at least one set-up")
}

/// 4 KiB blocks, as the log entries and the read-cache pages are.
pub const BLOCK: usize = 4096;

/// A random extent inside `block`: 0.5–4 KiB long, in whole words. Sizes are
/// byte-granular, as a database's sub-page updates are, so that latencies
/// form a continuum and no statistic of them is degenerate.
pub fn extent(rng: &mut Rng, block: u64) -> (u64, usize) {
    let len = 8 * rng.range(64, 512);
    let within = 8 * rng.below((BLOCK as u64 - len) / 8 + 1);
    (block * BLOCK as u64 + within, len as usize)
}

/// Runs `f` as one driver op: the spans under it carry its id. Returns
/// `f`'s result and the op's virtual latency in nanoseconds.
pub fn driver_op<R>(stack: &Stack, pass: &mut Pass, f: impl FnOnce() -> R) -> (R, u64) {
    pass.next_op += 1;
    Tracer::set_op(pass.next_op);
    let t0 = stack.clock.now();
    let r = f();
    (r, (stack.clock.now() - t0).as_nanos())
}

/// One durable write through the cache — `pwrite` + `fsync`, one driver op
/// — with its virtual latency recorded when `timed`.
pub fn durable_write(stack: &Stack, fd: Fd, data: &[u8], off: u64, pass: &mut Pass, timed: bool) {
    let ((wrote, synced), ns) = driver_op(stack, pass, || {
        (stack.fs.pwrite(fd, data, off, &stack.clock), stack.fs.fsync(fd, &stack.clock))
    });
    if timed {
        pass.writes.push(ns);
    }
    let ok = matches!(wrote, Ok(n) if n == data.len()) && synced.is_ok();
    if !ok {
        pass.note(|| {
            format!("write of {} bytes at {off}: {wrote:?}, fsync {synced:?}", data.len())
        });
    }
    pass.op(ok);
}

/// One read through the cache into `buf`, its virtual latency recorded,
/// checked by `expected` (the model's verdict on the bytes read).
pub fn checked_read(
    stack: &Stack,
    fd: Fd,
    buf: &mut [u8],
    off: u64,
    pass: &mut Pass,
    expected: impl FnOnce(&[u8]) -> bool,
) {
    let (got, ns) = driver_op(stack, pass, || stack.fs.pread(fd, buf, off, &stack.clock));
    pass.reads.push(ns);
    let ok = matches!(got, Ok(n) if n == buf.len()) && expected(buf);
    if !ok {
        pass.note(|| format!("read of {} bytes at {off} through the cache: {got:?}", buf.len()));
    }
    pass.op(ok);
}

/// After a `flush_log`: reads `extents` of `path` straight from the inner
/// file system, on a clock of the model's own, each checked by `expected`.
pub fn verify_inner(
    stack: &Stack,
    path: &str,
    extents: impl Iterator<Item = (u64, usize)>,
    pass: &mut Pass,
    mut expected: impl FnMut(u64, &[u8]) -> bool,
) {
    let clock = ActorClock::new();
    let inner = stack.inner();
    let fd = inner.open(path, OpenFlags::RDONLY, &clock).expect("inner open");
    let mut buf = Vec::new();
    for (off, len) in extents {
        buf.resize(len, 0);
        let got = inner.pread(fd, &mut buf, off, &clock);
        let ok = matches!(got, Ok(n) if n == len) && expected(off, &buf);
        if !ok {
            pass.note(|| {
                format!("read of {len} bytes at {off} of {path} from the inner fs: {got:?}")
            });
        }
        pass.op(ok);
    }
    let _ = inner.close(fd, &clock);
}
