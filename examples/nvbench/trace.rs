//! Benchmark-owned tracing: virtual-time-inert forwarding wrappers at three
//! layer boundaries, recording spans on both clocks.
//!
//! * [`TraceFs`] at driver → `core.cache` (wraps the mounted `NvCache`);
//! * [`TraceLayer`] at `core` → `vfs.ext4` (a `vfs::Layer`, so it also sees
//!   the cleanup workers' and read misses' calls);
//! * [`TraceDev`] at `vfs.ext4` → `blockdev.ssd`.
//!
//! A wrapper only reads the caller's clock; it never advances it, alters an
//! argument or reorders a call. Spans aggregate online per (boundary, op) —
//! a layer's self time is its spans' duration minus the child spans they
//! cover — and the first [`SPAN_CAP`] spans of each thread are kept in
//! preallocated memory for the chrome-trace export at exit.

use std::cell::{Cell, RefCell};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::Instant;

use blockdev::{BlockDevice, DeviceStats};
use simclock::ActorClock;
use vfs::{Fd, FileSystem, IoResult, Layer, Metadata, OpenFlags};

/// Spans kept per thread for the chrome trace (aggregates count them all).
pub const SPAN_CAP: usize = 20_000;

/// What a span measures: the boundary crossed and the call made.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Key {
    CachePwrite,
    CachePread,
    CacheFsync,
    CacheOpen,
    CacheClose,
    CacheMeta,
    /// Driver-side spans around the `QueuePair` calls, which bypass the
    /// `FileSystem` trait.
    SqSubmit,
    SqDoorbell,
    SqReap,
    /// Driver-side span around a `Mount::Recover` mount.
    Recover,
    Ext4Pwrite,
    Ext4Pread,
    Ext4Fsync,
    Ext4Other,
    SsdRead,
    SsdWrite,
    SsdFlush,
}

pub const KEYS: usize = Key::SsdFlush as usize + 1;

impl Key {
    const ALL: [Key; KEYS] = [
        Key::CachePwrite,
        Key::CachePread,
        Key::CacheFsync,
        Key::CacheOpen,
        Key::CacheClose,
        Key::CacheMeta,
        Key::SqSubmit,
        Key::SqDoorbell,
        Key::SqReap,
        Key::Recover,
        Key::Ext4Pwrite,
        Key::Ext4Pread,
        Key::Ext4Fsync,
        Key::Ext4Other,
        Key::SsdRead,
        Key::SsdWrite,
        Key::SsdFlush,
    ];

    pub fn layer(self) -> &'static str {
        match self {
            Key::SqSubmit | Key::SqDoorbell | Key::SqReap => "core.squeue",
            Key::Recover => "core.recovery",
            k if (k as u8) < Key::SqSubmit as u8 => "core.cache",
            k if (k as u8) < Key::SsdRead as u8 => "vfs.ext4",
            _ => "blockdev.ssd",
        }
    }

    fn op(self) -> &'static str {
        match self {
            Key::CachePwrite | Key::Ext4Pwrite => "pwrite",
            Key::CachePread | Key::Ext4Pread => "pread",
            Key::CacheFsync | Key::Ext4Fsync => "fsync",
            Key::CacheOpen => "open",
            Key::CacheClose => "close",
            Key::CacheMeta | Key::Ext4Other => "meta",
            Key::SqSubmit => "submit",
            Key::SqDoorbell => "doorbell",
            Key::SqReap => "reap",
            Key::Recover => "mount",
            Key::SsdRead => "read",
            Key::SsdWrite => "write",
            Key::SsdFlush => "flush",
        }
    }

    /// Whether the driver itself makes this call (the driver boundary).
    pub fn driver_boundary(self) -> bool {
        (self as u8) < Key::Ext4Pwrite as u8
    }
}

/// Totals of one [`Key`]: inclusive time and the part child spans cover.
#[derive(Debug, Default, Clone, Copy)]
pub struct Agg {
    pub count: u64,
    pub virt_ns: u64,
    pub host_ns: u64,
    pub child_virt_ns: u64,
    pub child_host_ns: u64,
}

impl Agg {
    pub fn self_virt_ns(&self) -> u64 {
        self.virt_ns.saturating_sub(self.child_virt_ns)
    }

    pub fn self_host_ns(&self) -> u64 {
        self.host_ns.saturating_sub(self.child_host_ns)
    }

    fn since(&self, earlier: &Agg) -> Agg {
        Agg {
            count: self.count - earlier.count,
            virt_ns: self.virt_ns - earlier.virt_ns,
            host_ns: self.host_ns - earlier.host_ns,
            child_virt_ns: self.child_virt_ns - earlier.child_virt_ns,
            child_host_ns: self.child_host_ns - earlier.child_host_ns,
        }
    }

    fn add(&mut self, o: &Agg) {
        self.count += o.count;
        self.virt_ns += o.virt_ns;
        self.host_ns += o.host_ns;
        self.child_virt_ns += o.child_virt_ns;
        self.child_host_ns += o.child_host_ns;
    }
}

const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct Span {
    key: Key,
    /// Index of the parent span in this thread's buffer, [`NO_PARENT`] for
    /// a root (or a parent that fell past [`SPAN_CAP`]).
    parent: u32,
    /// The driver's op id; 0 on cleanup threads.
    op: u64,
    virt_start: u64,
    virt_end: u64,
    host_start: u64,
    host_end: u64,
}

#[derive(Debug, Clone, Copy)]
struct Open {
    key: Key,
    index: u32,
    virt_start: u64,
    host_start: u64,
    child_virt: u64,
    child_host: u64,
}

#[derive(Debug)]
struct ThreadTrace {
    driver: bool,
    stack: Vec<Open>,
    spans: Vec<Span>,
    dropped: u64,
    agg: [Agg; KEYS],
}

/// The span sink shared by the three wrappers of one traced stack.
#[derive(Debug)]
pub struct Tracer {
    id: u64,
    epoch: Instant,
    driver: ThreadId,
    threads: Mutex<Vec<Arc<Mutex<ThreadTrace>>>>,
}

static NEXT_TRACER: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// This thread's buffer, and which tracer it belongs to.
    static SLOT: RefCell<Option<(u64, Arc<Mutex<ThreadTrace>>)>> = const { RefCell::new(None) };
    /// The driver's current op id, carried by every span under it.
    static CURRENT_OP: Cell<u64> = const { Cell::new(0) };
}

/// An open span; finish it with [`Tracer::end`].
#[derive(Debug)]
#[must_use]
pub struct Token(());

impl Tracer {
    /// Creates a tracer; the calling thread is the driver.
    pub fn new() -> Arc<Tracer> {
        Tracer::set_op(0);
        Arc::new(Tracer {
            id: NEXT_TRACER.fetch_add(1, Ordering::Relaxed),
            epoch: Instant::now(),
            driver: std::thread::current().id(),
            threads: Mutex::new(Vec::new()),
        })
    }

    /// Tags every span the calling thread records from now on.
    pub fn set_op(id: u64) {
        CURRENT_OP.with(|c| c.set(id));
    }

    fn with_thread<R>(&self, f: impl FnOnce(&mut ThreadTrace) -> R) -> R {
        SLOT.with(|slot| {
            let mut slot = slot.borrow_mut();
            if slot.as_ref().is_none_or(|(id, _)| *id != self.id) {
                let tt = Arc::new(Mutex::new(ThreadTrace {
                    driver: std::thread::current().id() == self.driver,
                    stack: Vec::with_capacity(8),
                    spans: Vec::with_capacity(SPAN_CAP),
                    dropped: 0,
                    agg: [Agg::default(); KEYS],
                }));
                self.threads.lock().expect("tracer registry").push(Arc::clone(&tt));
                *slot = Some((self.id, tt));
            }
            let (_, tt) = slot.as_ref().expect("just registered");
            let mut guard = tt.lock().expect("thread trace");
            f(&mut guard)
        })
    }

    pub fn begin(&self, key: Key, clock: &ActorClock) -> Token {
        let virt_start = clock.now().as_nanos();
        let host_start = self.epoch.elapsed().as_nanos() as u64;
        self.with_thread(|t| {
            let index = if t.spans.len() < SPAN_CAP {
                let parent = t.stack.last().map_or(NO_PARENT, |o| o.index);
                t.spans.push(Span {
                    key,
                    parent,
                    op: if t.driver { CURRENT_OP.with(Cell::get) } else { 0 },
                    virt_start,
                    virt_end: virt_start,
                    host_start,
                    host_end: host_start,
                });
                (t.spans.len() - 1) as u32
            } else {
                t.dropped += 1;
                NO_PARENT
            };
            t.stack
                .push(Open { key, index, virt_start, host_start, child_virt: 0, child_host: 0 });
        });
        Token(())
    }

    pub fn end(&self, _token: Token, clock: &ActorClock) {
        let host_end = self.epoch.elapsed().as_nanos() as u64;
        let virt_end = clock.now().as_nanos();
        self.with_thread(|t| {
            let open = t.stack.pop().expect("end without begin");
            let virt = virt_end.saturating_sub(open.virt_start);
            let host = host_end.saturating_sub(open.host_start);
            let a = &mut t.agg[open.key as usize];
            a.count += 1;
            a.virt_ns += virt;
            a.host_ns += host;
            a.child_virt_ns += open.child_virt;
            a.child_host_ns += open.child_host;
            if let Some(parent) = t.stack.last_mut() {
                parent.child_virt += virt;
                parent.child_host += host;
            }
            if let Some(span) = t.spans.get_mut(open.index as usize) {
                span.virt_end = virt_end;
                span.host_end = host_end;
            }
        });
    }

    /// Totals per key over every thread, and over the driver thread alone.
    pub fn totals(&self) -> Totals {
        let mut out = Totals::default();
        for tt in self.threads.lock().expect("tracer registry").iter() {
            let t = tt.lock().expect("thread trace");
            for (i, a) in t.agg.iter().enumerate() {
                out.all[i].add(a);
                if t.driver {
                    out.driver[i].add(a);
                }
            }
            out.spans_kept += t.spans.len() as u64;
            out.spans_dropped += t.dropped;
        }
        out
    }

    /// Calls the driver thread has made across the driver boundary so far.
    pub fn driver_calls(&self) -> u64 {
        let t = self.totals();
        Key::ALL
            .iter()
            .filter(|k| k.driver_boundary())
            .map(|&k| t.driver[k as usize].count)
            .sum()
    }

    /// Renders the kept spans as a chrome-trace (`chrome://tracing`,
    /// Perfetto) document: process 1 lays them out on the virtual clock,
    /// process 2 on the host clock; cleanup threads root at `core.cleanup`.
    pub fn chrome_trace(&self) -> String {
        let mut out = String::from("[\n");
        for pid in [1, 2] {
            let name = if pid == 1 { "virtual clock" } else { "host clock" };
            let _ = writeln!(
                out,
                r#"{{"ph":"M","pid":{pid},"name":"process_name","args":{{"name":"{name}"}}}},"#
            );
        }
        for (tid, tt) in self.threads.lock().expect("tracer registry").iter().enumerate() {
            let t = tt.lock().expect("thread trace");
            let root = if t.driver { "driver" } else { "core.cleanup" };
            for pid in [1, 2] {
                let _ = writeln!(
                    out,
                    r#"{{"ph":"M","pid":{pid},"tid":{tid},"name":"thread_name","args":{{"name":"{root}"}}}},"#
                );
            }
            for (i, s) in t.spans.iter().enumerate() {
                let parent = match t.spans.get(s.parent as usize) {
                    Some(p) => format!("{}.{}#{}", p.key.layer(), p.key.op(), s.parent),
                    None => root.to_string(),
                };
                for (pid, start, end) in
                    [(1, s.virt_start, s.virt_end), (2, s.host_start, s.host_end)]
                {
                    let _ = writeln!(
                        out,
                        r#"{{"ph":"X","pid":{pid},"tid":{tid},"cat":"{}","name":"{}","ts":{:.3},"dur":{:.3},"args":{{"span":{i},"parent":"{parent}","op":{}}}}},"#,
                        s.key.layer(),
                        s.key.op(),
                        start as f64 / 1e3,
                        end.saturating_sub(start) as f64 / 1e3,
                        s.op,
                    );
                }
            }
        }
        out.push_str("{\"ph\":\"M\",\"pid\":1,\"name\":\"process_sort_index\",\"args\":{\"sort_index\":0}}\n]\n");
        out
    }
}

/// [`Tracer::totals`]: per-key aggregates.
#[derive(Debug, Default, Clone)]
pub struct Totals {
    pub all: [Agg; KEYS],
    pub driver: [Agg; KEYS],
    pub spans_kept: u64,
    pub spans_dropped: u64,
}

impl Totals {
    /// What was recorded after `earlier` was taken (set-up spans excluded).
    pub fn since(&self, earlier: &Totals) -> Totals {
        Totals {
            all: std::array::from_fn(|i| self.all[i].since(&earlier.all[i])),
            driver: std::array::from_fn(|i| self.driver[i].since(&earlier.driver[i])),
            spans_kept: self.spans_kept,
            spans_dropped: self.spans_dropped,
        }
    }

    /// Adds `other`'s aggregates (rounds on fresh stacks add up).
    pub fn add(&mut self, other: &Totals) {
        for i in 0..KEYS {
            self.all[i].add(&other.all[i]);
            self.driver[i].add(&other.driver[i]);
        }
        self.spans_kept = other.spans_kept;
        self.spans_dropped = other.spans_dropped;
    }

    pub fn get(&self, key: Key) -> &Agg {
        &self.all[key as usize]
    }

    pub fn sum(&self, keys: &[Key]) -> Agg {
        let mut a = Agg::default();
        for &k in keys {
            a.add(self.get(k));
        }
        a
    }

    /// Virtual time the driver spent inside calls across its boundary.
    pub fn driver_boundary_virt_ns(&self) -> u64 {
        Key::ALL
            .iter()
            .filter(|k| k.driver_boundary())
            .map(|&k| self.driver[k as usize].virt_ns)
            .sum()
    }
}

/// Forwarding `FileSystem`: [`TraceFs`] at the cache boundary, or what
/// [`TraceLayer`] wraps the inner file system in.
pub struct TraceFs {
    inner: Arc<dyn FileSystem>,
    tracer: Arc<Tracer>,
    /// `true` at driver → `core.cache`, `false` at `core` → `vfs.ext4`.
    cache_boundary: bool,
}

impl TraceFs {
    pub fn new(inner: Arc<dyn FileSystem>, tracer: Arc<Tracer>) -> TraceFs {
        TraceFs { inner, tracer, cache_boundary: true }
    }

    fn span<R>(&self, cache: Key, ext4: Key, clock: &ActorClock, f: impl FnOnce() -> R) -> R {
        let token = self.tracer.begin(if self.cache_boundary { cache } else { ext4 }, clock);
        let r = f();
        self.tracer.end(token, clock);
        r
    }

    fn meta<R>(&self, clock: &ActorClock, f: impl FnOnce() -> R) -> R {
        self.span(Key::CacheMeta, Key::Ext4Other, clock, f)
    }
}

impl FileSystem for TraceFs {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn open(&self, path: &str, flags: OpenFlags, clock: &ActorClock) -> IoResult<Fd> {
        self.span(Key::CacheOpen, Key::Ext4Other, clock, || self.inner.open(path, flags, clock))
    }

    fn close(&self, fd: Fd, clock: &ActorClock) -> IoResult<()> {
        self.span(Key::CacheClose, Key::Ext4Other, clock, || self.inner.close(fd, clock))
    }

    fn pread(&self, fd: Fd, buf: &mut [u8], off: u64, clock: &ActorClock) -> IoResult<usize> {
        self.span(Key::CachePread, Key::Ext4Pread, clock, || self.inner.pread(fd, buf, off, clock))
    }

    fn pwrite(&self, fd: Fd, data: &[u8], off: u64, clock: &ActorClock) -> IoResult<usize> {
        self.span(Key::CachePwrite, Key::Ext4Pwrite, clock, || {
            self.inner.pwrite(fd, data, off, clock)
        })
    }

    fn fsync(&self, fd: Fd, clock: &ActorClock) -> IoResult<()> {
        self.span(Key::CacheFsync, Key::Ext4Fsync, clock, || self.inner.fsync(fd, clock))
    }

    fn ftruncate(&self, fd: Fd, len: u64, clock: &ActorClock) -> IoResult<()> {
        self.meta(clock, || self.inner.ftruncate(fd, len, clock))
    }

    fn fstat(&self, fd: Fd, clock: &ActorClock) -> IoResult<Metadata> {
        self.meta(clock, || self.inner.fstat(fd, clock))
    }

    fn stat(&self, path: &str, clock: &ActorClock) -> IoResult<Metadata> {
        self.meta(clock, || self.inner.stat(path, clock))
    }

    fn unlink(&self, path: &str, clock: &ActorClock) -> IoResult<()> {
        self.meta(clock, || self.inner.unlink(path, clock))
    }

    fn rename(&self, from: &str, to: &str, clock: &ActorClock) -> IoResult<()> {
        self.meta(clock, || self.inner.rename(from, to, clock))
    }

    fn list_dir(&self, dir: &str, clock: &ActorClock) -> IoResult<Vec<String>> {
        self.meta(clock, || self.inner.list_dir(dir, clock))
    }

    fn sync(&self, clock: &ActorClock) -> IoResult<()> {
        self.span(Key::CacheMeta, Key::Ext4Fsync, clock, || self.inner.sync(clock))
    }

    fn simulate_power_failure(&self) {
        self.inner.simulate_power_failure();
    }

    fn synchronous_durability(&self) -> bool {
        self.inner.synchronous_durability()
    }

    fn durable_linearizability(&self) -> bool {
        self.inner.durable_linearizability()
    }
}

/// The `core` → `vfs.ext4` boundary as a mountable layer
/// (`NvCacheBuilder::backend_stack`).
#[derive(Debug)]
pub struct TraceLayer(pub Arc<Tracer>);

impl Layer for TraceLayer {
    fn name(&self) -> &str {
        "trace"
    }

    fn wrap(&self, inner: Arc<dyn FileSystem>) -> Arc<dyn FileSystem> {
        Arc::new(TraceFs { inner, tracer: Arc::clone(&self.0), cache_boundary: false })
    }
}

/// Forwarding `BlockDevice` between `Ext4` and the `SsdDevice`.
pub struct TraceDev {
    pub inner: Arc<dyn BlockDevice>,
    pub tracer: Arc<Tracer>,
}

impl BlockDevice for TraceDev {
    fn capacity(&self) -> u64 {
        self.inner.capacity()
    }

    fn read(&self, off: u64, buf: &mut [u8], clock: &ActorClock) {
        let token = self.tracer.begin(Key::SsdRead, clock);
        self.inner.read(off, buf, clock);
        self.tracer.end(token, clock);
    }

    fn write(&self, off: u64, data: &[u8], clock: &ActorClock) {
        let token = self.tracer.begin(Key::SsdWrite, clock);
        self.inner.write(off, data, clock);
        self.tracer.end(token, clock);
    }

    fn flush(&self, clock: &ActorClock) {
        let token = self.tracer.begin(Key::SsdFlush, clock);
        self.inner.flush(clock);
        self.tracer.end(token, clock);
    }

    fn stats(&self) -> &DeviceStats {
        self.inner.stats()
    }
}
