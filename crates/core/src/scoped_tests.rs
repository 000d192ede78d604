//! The metadata calls that pay for one file, not for the whole log: a
//! truncating `open` of a file the log holds nothing of, a same-tier
//! `rename` that settles its source alone, and the `close` whose push the
//! cleanup workers do not repeat. Each is crashed at its steps and checked
//! against a model, its fallbacks must still drain, and two seeded bugs —
//! a rename that retires the slots of an unsynced file, a worker that
//! rewrites pushed entries — must fail the checks. A push racing the
//! workers, on one stripe or two, must not write an entry one of them
//! consumed. Also the hooks the engine calls at those steps.

use std::cell::{Cell, RefCell};
use std::sync::atomic::Ordering;
use std::sync::Arc;

use blockdev::{BlockDevice, SsdDevice, SsdProfile};
use nvmm::{NvDimm, NvRegion, NvmmProfile};
use simclock::{ActorClock, SimTime};
use vfs::{
    DelayLayer, DelayProfile, Ext4, Ext4Profile, FileSystem, IoError, IoResult, Layer, OpenFlags,
};

use crate::cache::Shared;
use crate::tests::mount;
use crate::{Mount, NvCache, NvCacheConfig};

/// The steps of a scoped rename (`Tiers::settle_rename`) a test can stop
/// it after; the fourth, the inner rename, is the call returning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Step {
    Pushed,
    Synced,
    Retired,
}

type Hook = Box<dyn FnOnce()>;

thread_local! {
    static CRASH_AFTER: Cell<Option<Step>> = const { Cell::new(None) };
    static SKIP_FSYNC: Cell<bool> = const { Cell::new(false) };
    static AFTER_SNAPSHOT: RefCell<Option<Hook>> = const { RefCell::new(None) };
}

/// Fails the rename after `step` when a test on this thread asked for it.
pub(crate) fn crash_point(step: Step) -> IoResult<()> {
    match CRASH_AFTER.get() == Some(step) {
        true => Err(IoError::Other(format!("crash point after {step:?}"))),
        false => Ok(()),
    }
}

/// Seeded bug: the rename retires the source's fd slots without `fsync`.
pub(crate) fn skips_fsync() -> bool {
    SKIP_FSYNC.get()
}

/// Runs the hook armed on this thread, once: between a push's snapshot of
/// its entries and its first payload read.
pub(crate) fn after_snapshot() {
    if let Some(hook) = AFTER_SNAPSHOT.with(|h| h.borrow_mut().take()) {
        hook();
    }
}

/// Holds the cleanup worker of `stripe` between consuming its batch and the
/// batch's barrier for as long as a test sets the stripe's bit in
/// [`Shared::held_stripes`], or until the mount is killed.
pub(crate) fn before_barrier(shared: &Shared, stripe: usize) {
    while shared.held_stripes.load(Ordering::Acquire) & 1 << stripe != 0
        && !shared.kill.load(Ordering::Acquire)
    {
        std::thread::yield_now();
    }
}

const PARKED: usize = usize::MAX >> 1;

fn create() -> OpenFlags {
    OpenFlags::RDWR | OpenFlags::CREATE
}

/// The cleanup workers run only when a flush asks them to.
fn parked() -> NvCacheConfig {
    NvCacheConfig { batch_min: PARKED, batch_max: PARKED, ..NvCacheConfig::tiny() }
}

/// A mount over `Ext4` on an SSD: a power failure drops what no barrier
/// wrote back. The mount reaches it through a layer charging 1 ns per
/// inner `pwrite`, so that the layer's delayed-operation count is the inner
/// `pwrite` count.
struct Rig {
    clock: ActorClock,
    cfg: NvCacheConfig,
    dimm: Arc<NvDimm>,
    ext4: Arc<Ext4>,
    delay: DelayLayer,
    cache: NvCache,
}

impl Rig {
    fn new(cfg: NvCacheConfig) -> Rig {
        let clock = ActorClock::new();
        let ssd = Arc::new(SsdDevice::new(SsdProfile::s4600()));
        let ext4 =
            Arc::new(Ext4::new("ext4+ssd", ssd as Arc<dyn BlockDevice>, Ext4Profile::default()));
        let dimm = Arc::new(NvDimm::new(cfg.required_nvmm_bytes(), NvmmProfile::instant()));
        let delay = DelayLayer::new(DelayProfile {
            pwrite: SimTime::from_nanos(1),
            ..DelayProfile::default()
        });
        let inner = delay.wrap(Arc::clone(&ext4) as Arc<dyn FileSystem>);
        let region = NvRegion::whole(Arc::clone(&dimm));
        let cache = mount(region, inner, cfg.clone(), Mount::Format, &clock).expect("format");
        Rig { clock, cfg, dimm, ext4, delay, cache }
    }

    /// Inner `pwrite`s so far.
    fn pwrites(&self) -> u64 {
        self.delay.stats().ops_delayed
    }

    fn write(&self, path: &str, flags: OpenFlags, writes: &[(u64, &[u8])]) -> vfs::Fd {
        let fd = self.cache.open(path, flags, &self.clock).expect("open");
        for &(off, data) in writes {
            self.cache.pwrite(fd, data, off, &self.clock).expect("pwrite");
        }
        fd
    }

    fn close(&self, fd: vfs::Fd) {
        self.cache.close(fd, &self.clock).expect("close");
    }

    /// Drains the log, then waits until the mount holds no state for
    /// `path`: a worker finishes the close of a drained zombie in its own
    /// time.
    fn forget(&self, path: &str) {
        self.cache.flush_log(&self.clock);
        let meta = self.ext4.stat(path, &self.clock).expect("stat");
        while self.cache.shared.file_at(0, &meta).is_some() {
            self.cache.shared.drain_zombies(&self.clock);
            std::thread::yield_now();
        }
    }

    fn drains_skipped(&self) -> u64 {
        self.cache.stats().snapshot().drains_skipped
    }

    /// `abort` → `crash_and_restart` → power failure → `Mount::Recover`.
    fn crash(self) -> NvCache {
        self.cache.abort();
        drop(self.cache);
        let crashed = Arc::new(self.dimm.crash_and_restart());
        self.ext4.simulate_power_failure();
        let inner = self.ext4 as Arc<dyn FileSystem>;
        mount(NvRegion::whole(crashed), inner, self.cfg, Mount::Recover, &self.clock)
            .expect("recover")
    }
}

/// The whole of `path` as `fs` reads it; `None` when there is no such file.
fn content(fs: &dyn FileSystem, path: &str) -> Option<Vec<u8>> {
    let c = ActorClock::new();
    let size = match fs.stat(path, &c) {
        Ok(meta) => meta.size,
        Err(IoError::NotFound(_)) => return None,
        Err(e) => panic!("stat {path}: {e}"),
    };
    let fd = fs.open(path, OpenFlags::RDONLY, &c).expect("open for read-back");
    let mut buf = vec![0u8; size as usize];
    let n = fs.pread(fd, &mut buf, 0, &c).expect("pread");
    fs.close(fd, &c).expect("close");
    buf.truncate(n);
    Some(buf)
}

/// What the application acknowledged under `/from`: two writes, the second
/// overlapping the first.
const NEW: [(u64, &[u8]); 2] = [(0, &[0xA1; 6000]), (4096, &[0xA2; 3000])];

fn new_content() -> Vec<u8> {
    let mut model = vec![0u8; 7096];
    for (off, data) in NEW {
        model[off as usize..off as usize + data.len()].copy_from_slice(data);
    }
    model
}

/// `/to`'s content before the rename: longer than the new one, so that any
/// of it mixed in shows.
const OLD: [u8; 12288] = [0x0D; 12288];

/// The model after a crash: the acknowledged bytes under exactly one name
/// — `to` once the rename returned, `from` before — and `to` otherwise
/// holding exactly its old content.
fn check(recovered: &NvCache, renamed: bool) -> Result<(), String> {
    let (from, to) = (content(recovered, "/from"), content(recovered, "/to"));
    let expect = match renamed {
        true => (None, Some(new_content())),
        false => (Some(new_content()), Some(OLD.to_vec())),
    };
    match (from, to) == expect {
        true => Ok(()),
        false => Err(format!("renamed: {renamed}: the names do not hold the model's bytes")),
    }
}

/// `/from` written and closed through the cache, its entries parked in the
/// log; `/to` holding [`OLD`] on `Ext4` alone. The rename runs to the end
/// (`crash_after` `None`) or stops after a step; then the machine crashes.
fn rename_then_crash(crash_after: Option<Step>, skip_fsync: bool) -> Result<(), String> {
    let rig = Rig::new(parked());
    let fd = rig.ext4.open("/to", create(), &rig.clock).expect("ext4 open");
    rig.ext4.pwrite(fd, &OLD, 0, &rig.clock).expect("ext4 pwrite");
    rig.ext4.fsync(fd, &rig.clock).expect("ext4 fsync");
    rig.ext4.close(fd, &rig.clock).expect("ext4 close");
    rig.close(rig.write("/from", create(), &NEW));

    CRASH_AFTER.set(crash_after);
    SKIP_FSYNC.set(skip_fsync);
    let renamed = rig.cache.rename("/from", "/to", &rig.clock);
    CRASH_AFTER.set(None);
    SKIP_FSYNC.set(false);
    match crash_after {
        None => renamed.expect("rename"),
        Some(step) => assert!(renamed.is_err(), "the rename stops after {step:?}"),
    }
    assert!(rig.cache.pending_entries() > 0, "the log did not drain");
    if crash_after.is_none() {
        assert_eq!(rig.drains_skipped(), 1);
        assert_eq!(content(&rig.cache, "/to"), Some(new_content()), "before the crash");
    }
    let recovered = rig.crash();
    let checked = check(&recovered, crash_after.is_none());
    recovered.shutdown(&ActorClock::new());
    checked
}

#[test]
fn a_scoped_rename_recovers_to_the_model_after_each_step() {
    for crash_after in [Some(Step::Pushed), Some(Step::Synced), Some(Step::Retired), None] {
        rename_then_crash(crash_after, false).unwrap_or_else(|e| panic!("{crash_after:?}: {e}"));
    }
}

#[test]
fn a_rename_that_retires_the_slots_of_an_unsynced_file_fails_the_model() {
    assert!(rename_then_crash(Some(Step::Retired), true).is_err());
    assert!(rename_then_crash(None, true).is_err());
}

/// What a recovered mount must read.
type Model = dyn Fn(&NvCache) -> Result<(), String>;

/// The cases a rename or truncating open cannot scope: each drains the
/// whole log first, and recovers to the model.
#[test]
fn renames_and_truncations_that_cannot_scope_drain_and_recover_to_the_model() {
    // Runs the case's calls on a fresh rig, crashes, and checks the model
    // before what was left in the log: `pending` entries, logged after the
    // drain.
    let case = |what: &str, pending, call: &dyn Fn(&Rig), model: &Model| {
        let rig = Rig::new(parked());
        call(&rig);
        let counted = (rig.drains_skipped(), rig.cache.pending_entries());
        let recovered = rig.crash();
        model(&recovered).unwrap_or_else(|e| panic!("{what}: {e}"));
        recovered.shutdown(&ActorClock::new());
        assert_eq!(counted, (0, pending), "{what}: the log drained");
    };
    let renamed = |recovered: &NvCache| check(recovered, true);
    case(
        "the source still open",
        0,
        &|rig| {
            let _still_open = rig.write("/from", create(), &NEW);
            rig.close(rig.write("/to", create(), &[(0, &OLD)]));
            rig.forget("/to");
            rig.cache.rename("/from", "/to", &rig.clock).expect("rename");
        },
        &renamed,
    );
    case(
        "the destination with entries in the log",
        0,
        &|rig| {
            rig.close(rig.write("/to", create(), &[(0, &OLD)]));
            rig.close(rig.write("/from", create(), &NEW));
            rig.cache.rename("/from", "/to", &rig.clock).expect("rename");
        },
        &renamed,
    );
    case(
        "a truncating open of a file with entries in the log",
        3,
        &|rig| {
            rig.close(rig.write("/to", create(), &[(0, &OLD)]));
            rig.close(rig.write("/to", OpenFlags::RDWR | OpenFlags::TRUNC, &NEW));
        },
        &|recovered| match content(recovered, "/to") == Some(new_content()) {
            true => Ok(()),
            false => Err("the old content came back".into()),
        },
    );
}

/// A truncating open of a file the log holds nothing of — there is none
/// yet, or every entry of it has drained — leaves the log alone.
#[test]
fn a_truncating_open_of_a_file_with_nothing_in_the_log_does_not_drain() {
    let rig = Rig::new(parked());
    let trunc = create() | OpenFlags::TRUNC;
    rig.close(rig.write("/a", trunc, &NEW));
    rig.forget("/a");
    rig.close(rig.write("/b", trunc, &NEW));
    rig.close(rig.write("/a", trunc, &[(0, b"short")]));
    assert_eq!(rig.drains_skipped(), 3);
    assert_eq!(rig.cache.pending_entries(), 3 + 1, "/b's three entries and /a's new one");
    let recovered = rig.crash();
    assert_eq!(content(&recovered, "/a"), Some(b"short".to_vec()));
    assert_eq!(content(&recovered, "/b"), Some(new_content()));
    recovered.shutdown(&ActorClock::new());
}

/// What a read-only descriptor sharing the file of a writer that has just
/// closed reads of a page written twice, once a worker has consumed only
/// the older entry: on a two-stripe log, the older write spans two chunks
/// routed to different stripes and the newer one covers the second, so
/// draining the older write's stripe leaves the newer entry pending.
fn read_after_the_last_close(rewrite_pushed: bool) -> Vec<u8> {
    let rig = Rig::new(parked().with_log_shards(2));
    let shared = &rig.cache.shared;
    shared.rewrite_pushed.store(rewrite_pushed, Ordering::Relaxed);
    let writer = rig.write("/page", create(), &[]);
    let reader = rig.cache.open("/page", OpenFlags::RDONLY, &rig.clock).expect("open");
    let file = Arc::clone(&shared.opened_fd(writer).expect("open").file);
    let stripe_of = |page: u64| shared.log.route(file.dev_ino, page * 4096).index;
    let older = (0..).find(|&p| stripe_of(p) != stripe_of(p + 1)).expect("two stripes");
    let (older_at, newer_at) = (older * 4096, (older + 1) * 4096);
    rig.cache.pwrite(writer, &[1; 8192], older_at, &rig.clock).expect("pwrite");
    rig.cache.pwrite(writer, &[2; 4096], newer_at, &rig.clock).expect("pwrite");
    rig.close(writer);
    let first = &shared.log.stripes[stripe_of(older)];
    first.flush_to(first.head.load(Ordering::Acquire), &rig.clock);
    let stats = rig.cache.stats().snapshot();
    assert_eq!((stats.entries_propagated, rig.cache.pending_entries()), (2, 1));
    let mut page = vec![0u8; 4096];
    rig.cache.pread(reader, &mut page, newer_at, &rig.clock).expect("pread");
    rig.cache.shutdown(&rig.clock);
    page
}

#[test]
fn a_reader_after_the_last_close_sees_the_newest_bytes() {
    assert_eq!(read_after_the_last_close(false), [2; 4096]);
    assert_ne!(read_after_the_last_close(true), [2; 4096], "a rewriting worker fails it");
}

/// A cleanup worker frees the entry a closing push has just listed — as
/// it does once it has consumed one — and a writer takes its slot at
/// once: the push must still write the entry's own bytes.
#[test]
fn close_never_pushes_a_recycled_slot() {
    let rig = Rig::new(NvCacheConfig { nb_entries: 4, ..parked() });
    let a = rig.write("/a", create(), &[(0, b"AAAA")]);
    let c = rig.write("/c", create(), &[(0, b"CCCC"), (4096, b"CCCC"), (8192, b"CCCC")]);
    let b = rig.write("/b", create(), &[]);
    let shared = Arc::clone(&rig.cache.shared);
    let b_opened = shared.opened_fd(b).expect("open");
    AFTER_SNAPSHOT.with(|h| {
        *h.borrow_mut() = Some(Box::new(move || {
            let clock = ActorClock::new();
            // The lock `Log::free` takes, without waiting for it.
            let pin = shared.log.tail_pin.try_write();
            if pin.is_some() {
                shared.log.stripes[0].free_range(0, 1, &clock);
                drop(pin);
                shared.do_pwrite(&b_opened, b"BBBB", 0, &clock).expect("refill");
            }
        }))
    });
    rig.close(a);
    assert!(AFTER_SNAPSHOT.with(|h| h.borrow().is_none()), "the push ran the hook");
    rig.cache.flush_log(&rig.clock);
    assert_eq!(content(&*rig.ext4, "/a"), Some(b"AAAA".to_vec()));
    rig.close(b);
    rig.close(c);
    rig.cache.shutdown(&rig.clock);
}

/// The older write spans two pages and the newer one covers the second. On
/// a two-stripe log the older write's entries sit in stripe A and the
/// newer one's in stripe B: A's worker consumes the older write and waits
/// before its barrier, B's consumes the newer one and frees it. On one
/// stripe, A's worker consumes all three entries and waits before its
/// barrier. The last `close` then lists only consumed entries. Returns the
/// inner `pwrite`s of that close, what a reader reads of the second page,
/// and what the file holds there after A's barrier, a power cut and
/// recovery.
fn push_beside_a_consumed_entry(shards: usize) -> (u64, Vec<u8>, Option<Vec<u8>>) {
    let rig = Rig::new(parked().with_log_shards(shards));
    let shared = Arc::clone(&rig.cache.shared);
    let writer = rig.write("/page", create(), &[]);
    let reader = rig.cache.open("/page", OpenFlags::RDONLY, &rig.clock).expect("open");
    let file = Arc::clone(&shared.opened_fd(writer).expect("open").file);
    let stripe_of = |page: u64| shared.log.route(file.dev_ino, page * 4096).index;
    let split = |p: u64| shards == 1 || stripe_of(p) != stripe_of(p + 1);
    let older = (0..).find(|&p| split(p)).expect("two stripes");
    let newer_at = (older + 1) * 4096;
    rig.cache.pwrite(writer, &[1; 8192], older * 4096, &rig.clock).expect("pwrite");
    rig.cache.pwrite(writer, &[2; 4096], newer_at, &rig.clock).expect("pwrite");
    let (a, b) = (stripe_of(older), stripe_of(older + 1));
    let in_a = if a == b { 3 } else { 2 };
    shared.held_stripes.store(1 << a, Ordering::Release);
    let stripe_a = &shared.log.stripes[a];
    stripe_a
        .flush_target
        .store(stripe_a.head.load(Ordering::Acquire), Ordering::Release);
    stripe_a.notify_work();
    while shared.stats.per_shard[a].entries_propagated.load(Ordering::Acquire) < in_a {
        std::thread::yield_now();
    }
    if b != a {
        let stripe_b = &shared.log.stripes[b];
        stripe_b.flush_to(stripe_b.head.load(Ordering::Acquire), &rig.clock);
    }
    assert_eq!(rig.cache.pending_entries(), in_a, "A's entries are consumed, not freed");
    let before = rig.pwrites();
    rig.close(writer);
    let pushed = rig.pwrites() - before;
    let mut page = vec![0u8; 4096];
    rig.cache.pread(reader, &mut page, newer_at, &rig.clock).expect("pread");
    shared.held_stripes.store(0, Ordering::Release);
    rig.close(reader);
    rig.cache.flush_log(&rig.clock);
    drop(shared);
    let recovered = rig.crash();
    let durable = content(&recovered, "/page").map(|c| c[newer_at as usize..].to_vec());
    recovered.shutdown(&ActorClock::new());
    (pushed, page, durable)
}

#[test]
fn close_never_pushes_an_entry_a_worker_has_consumed() {
    for shards in [1, 2] {
        let (pushed, read, durable) = push_beside_a_consumed_entry(shards);
        assert_eq!(pushed, 0, "{shards} stripe(s): the close wrote consumed entries again");
        let newer = |bytes: &[u8]| bytes == [2; 4096];
        assert!(newer(&read), "{shards} stripe(s): the older write came back: {:?}", &read[..4]);
        let durable = durable.expect("the file survives");
        assert!(newer(&durable), "{shards} stripe(s): after recovery: {:?}", &durable[..4]);
    }
}
