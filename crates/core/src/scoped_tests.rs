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

use simclock::{ActorClock, SimTime};
use vfs::{
    DelayLayer, DelayProfile, FaultLayer, FaultRule, FaultTrigger, FileSystem, IoError, IoResult,
    OpenFlags,
};

use crate::cache::Shared;
use crate::pagedesc::Queued;
use crate::tests::rig::{self, read_all, Below, Model};
use crate::{NvCache, NvCacheConfig};

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
    static AFTER_LISTING: RefCell<Option<Hook>> = const { RefCell::new(None) };
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

/// Runs the hook armed on this thread, once: between a push's listing of
/// its entries and its first payload read.
pub(crate) fn after_listing() {
    if let Some(hook) = AFTER_LISTING.with(|h| h.borrow_mut().take()) {
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

fn create() -> OpenFlags {
    OpenFlags::RDWR | OpenFlags::CREATE
}

/// The cleanup workers run only when a flush asks them to.
fn parked() -> NvCacheConfig {
    rig::parked(NvCacheConfig::tiny())
}

/// A mount over `Ext4` on an SSD: a power failure drops what no barrier
/// wrote back. The mount reaches it through a layer charging 1 ns per
/// inner `pwrite`, so that the layer's delayed-operation count is the inner
/// `pwrite` count.
struct Rig {
    rig: rig::Rig,
    delay: Arc<DelayLayer>,
    cache: NvCache,
}

impl std::ops::Deref for Rig {
    type Target = rig::Rig;

    fn deref(&self) -> &rig::Rig {
        &self.rig
    }
}

impl Rig {
    fn new(cfg: NvCacheConfig) -> Rig {
        let delay = Arc::new(DelayLayer::new(DelayProfile {
            pwrite: SimTime::from_nanos(1),
            ..DelayProfile::default()
        }));
        let (rig, cache) =
            rig::Rig::new(cfg, Below { layers: vec![delay.clone()], ..Below::ext4(1) });
        Rig { rig, delay, cache }
    }

    fn ext4(&self) -> &dyn FileSystem {
        &*self.below.bases[0]
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
        let meta = self.ext4().stat(path, &self.clock).expect("stat");
        while self.cache.shared.file_at(0, &meta).is_some() {
            self.cache.shared.drain_zombies(&self.clock);
            std::thread::yield_now();
        }
    }

    fn drains_skipped(&self) -> u64 {
        self.cache.stats().snapshot().drains_skipped
    }

    /// The process and the power go; `Mount::Recover` without the delay.
    fn crash(mut self) -> NvCache {
        self.rig.crash(&self.cache, 0);
        self.rig.below.layers.clear();
        self.rig.recover()
    }
}

/// What the application acknowledged under `/from`: two writes, the second
/// overlapping the first.
const NEW: [(u64, &[u8]); 2] = [(0, &[0xA1; 6000]), (4096, &[0xA2; 3000])];

/// [`NEW`] written to `path`, on top of `model`.
fn with_new(mut model: Model, path: &str) -> Model {
    for (off, data) in NEW {
        model.write(path, off, data);
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
    let mut model = Model::new();
    model.write("/to", 0, &OLD);
    let mut model = with_new(model, "/from");
    if renamed {
        model.rename("/from", "/to");
    }
    model.check(recovered).map_err(|e| format!("renamed: {renamed}: {e}"))
}

/// `/from` written and closed through the cache, its entries parked in the
/// log; `/to` holding [`OLD`] on `Ext4` alone. The rename runs to the end
/// (`crash_after` `None`) or stops after a step; then the machine crashes.
fn rename_then_crash(crash_after: Option<Step>, skip_fsync: bool) -> Result<(), String> {
    let rig = Rig::new(parked());
    let ext4 = rig.ext4();
    let fd = ext4.open("/to", create(), &rig.clock).expect("ext4 open");
    ext4.pwrite(fd, &OLD, 0, &rig.clock).expect("ext4 pwrite");
    ext4.fsync(fd, &rig.clock).expect("ext4 fsync");
    ext4.close(fd, &rig.clock).expect("ext4 close");
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
        let model = with_new(Model::new(), "/to");
        assert_eq!(model.check(&rig.cache), Ok(()), "before the crash");
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
type Holds = dyn Fn(&NvCache) -> Result<(), String>;

/// The cases a rename or truncating open cannot scope: each drains the
/// whole log first, and recovers to the model.
#[test]
fn renames_and_truncations_that_cannot_scope_drain_and_recover_to_the_model() {
    // Runs the case's calls on a fresh rig, crashes, and checks the model
    // before what was left in the log: `pending` entries, logged after the
    // drain.
    let case = |what: &str, pending, call: &dyn Fn(&Rig), model: &Holds| {
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
        &|recovered| with_new(Model::new(), "/to").check(recovered),
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
    let mut model = with_new(Model::new(), "/b");
    model.write("/a", 0, b"short");
    assert_eq!(model.check(&recovered), Ok(()));
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

/// A cleanup worker consumes the entry a closing push has just listed —
/// pops it under its page's cleanup lock, writes its bytes to the inner
/// file — and frees it, and a writer takes its slot at once: the push must
/// hold that lock from before it reads the page's queue until it has read
/// the entry's payload, so that the worker cannot.
#[test]
fn close_never_pushes_a_recycled_slot() {
    let rig = Rig::new(NvCacheConfig { nb_entries: 4, ..parked() });
    let a = rig.write("/a", create(), &[(0, b"AAAA")]);
    let c = rig.write("/c", create(), &[(0, b"CCCC"), (4096, b"CCCC"), (8192, b"CCCC")]);
    let b = rig.write("/b", create(), &[]);
    let shared = Arc::clone(&rig.cache.shared);
    let a_opened = shared.opened_fd(a).expect("open");
    let b_opened = shared.opened_fd(b).expect("open");
    AFTER_LISTING.with(|h| {
        *h.borrow_mut() = Some(Box::new(move || {
            let clock = ActorClock::new();
            let pages = shared.page_descs(&a_opened.file, 0, 4);
            let page = &pages[0].1;
            // The lock a worker pops an entry under, without waiting for it.
            let Some(cleanup) = page.try_lock_cleanup() else {
                return;
            };
            let stripe = &shared.log.stripes[0];
            let hdr = stripe.read_header(0);
            let popped = Queued { gseq: hdr.seq, stripe: 0, seq: 0 };
            crate::cleanup::pop_entry(&shared.log, &a_opened.file, &pages[..1], popped);
            let data = stripe.read_data_cached(0, hdr.len as usize);
            let (inner, order) = shared.hold_inner(&a_opened);
            let fd = inner.expect("an open descriptor");
            shared
                .inner_of(&a_opened)
                .pwrite(fd, &data, hdr.file_off, &clock)
                .expect("write");
            drop((inner, order, cleanup));
            stripe.free_range(0, 1, &clock);
            shared.do_pwrite(&b_opened, b"BBBB", 0, &clock).expect("refill");
        }))
    });
    rig.close(a);
    assert!(AFTER_LISTING.with(|h| h.borrow().is_none()), "the push ran the hook");
    rig.cache.flush_log(&rig.clock);
    assert_eq!(read_all(rig.ext4(), "/a"), Some(b"AAAA".to_vec()));
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
    stripe_a.signal.notify();
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
    let durable = read_all(&recovered, "/page").map(|c| c[newer_at as usize..].to_vec());
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

/// The pages of `file` whose queue holds an entry at or above its mark,
/// found through `Radix::get` over pages `0..pages`, and the pages in its
/// unpushed set.
fn unpushed_against_its_definition(
    shared: &Shared,
    fd: vfs::Fd,
    pages: u64,
) -> (Vec<u64>, Vec<u64>) {
    let file = Arc::clone(&shared.opened_fd(fd).expect("open").file);
    let below = file.pushed_below.load(Ordering::Acquire);
    let radix = file.radix.get().expect("a writable file has a tree");
    let expected = (0..pages)
        .filter(|&p| radix.get(p).is_some_and(|d| d.queued().iter().any(|e| e.gseq >= below)))
        .collect();
    (expected, file.unpushed.pages().iter().map(|((_, page), _)| *page).collect())
}

/// One seeded run over two stripes with parked workers: page-straddling
/// writes, reads of pages nothing writes (their descriptors exist, their
/// queues stay empty), worker drains of one stripe or of both, and marked
/// and unmarked pushes — the first push fails at the inner file system.
/// After every step the file's unpushed set is exactly the pages whose
/// queue holds an entry at or above the file's mark.
fn the_unpushed_set_follows_its_definition(seed: u64) -> Result<(), String> {
    const WRITTEN: u64 = 8; // pages 0..8 are written; 8..12 only read
    const PAGES: u64 = 13;
    let cfg = NvCacheConfig { nb_entries: 1024, ..parked() }.with_log_shards(2);
    let rule = FaultRule::new(vfs::Op::Write, FaultTrigger::OnNth(1));
    let faults = Arc::new(FaultLayer::new(vec![rule]));
    let below = Below { layers: vec![faults.clone()], ..Below::memfs(1) };
    let (rig::Rig { clock, .. }, cache) = rig::Rig::new(cfg, below);
    let shared = &cache.shared;
    let fd = cache.open("/set", create(), &clock).expect("open");
    let opened = shared.opened_fd(fd).expect("open");
    let file = Arc::clone(&opened.file);
    let mut rng = proptest::TestRng::for_case("unpushed_set", seed);
    let step = |what: &str| -> Result<(), String> {
        let (expected, listed) = unpushed_against_its_definition(shared, fd, PAGES);
        match expected == listed {
            true => Ok(()),
            false => {
                Err(format!("seed {seed}, after {what}: set {listed:?}, definition {expected:?}"))
            }
        }
    };
    // The last page sets the size: the pages before it that no write
    // reaches are holes a read still makes descriptors for.
    cache.pwrite(fd, b"end", (PAGES - 1) * 4096, &clock).expect("pwrite");
    step("the first write")?;
    let mut pushes = 0;
    for _ in 0..60 {
        let what = match rng.below(10) {
            0..=3 => {
                let len = 1 + rng.below(6000);
                let off = rng.below(WRITTEN * 4096 - len);
                let byte = rng.below(256) as u8;
                cache.pwrite(fd, &vec![byte; len as usize], off, &clock).expect("pwrite");
                "a write"
            }
            4 | 5 => {
                let mut buf = vec![0u8; 1 + rng.below(8192) as usize];
                let off = rng.below(PAGES * 4096 - buf.len() as u64);
                cache.pread(fd, &mut buf, off, &clock).expect("pread");
                "a read"
            }
            6 | 7 if pushes > 0 => {
                // A stripe drains alone unless one of its entries queues
                // behind the other stripe's: then both drain.
                let s = rng.below(2) as usize;
                let radix = file.radix.get().expect("a tree");
                let behind = (0..PAGES).filter_map(|p| radix.get(p)).any(|d| {
                    let q = d.queued();
                    q.iter().skip_while(|e| e.stripe == s).any(|e| e.stripe == s)
                });
                match behind {
                    true => cache.flush_log(&clock),
                    false => {
                        let stripe = &shared.log.stripes[s];
                        stripe.flush_to(stripe.head.load(Ordering::Acquire), &clock);
                    }
                }
                "a drain"
            }
            _ => {
                let below = file.pushed_below.load(Ordering::Acquire);
                let marked = pushes == 0 || rng.below(2) == 0;
                let _serial = shared.serialize_push(&file);
                let mark = marked.then(|| shared.log.next_seq());
                let pushed = shared.push(&opened, mark, &clock);
                pushes += 1;
                if pushes == 1 {
                    // The run's first inner write: the fault layer fails it.
                    assert!(!pushed && faults.faults_injected() == 1, "the first push fails");
                    assert_eq!(file.pushed_below.load(Ordering::Acquire), below, "mark restored");
                } else {
                    assert!(pushed, "seed {seed}: a push failed");
                }
                "a push"
            }
        };
        step(what)?;
    }
    cache.flush_log(&clock);
    step("the last drain")?;
    cache.shutdown(&clock);
    Ok(())
}

#[test]
fn the_unpushed_set_is_the_pages_queuing_an_entry_at_or_above_the_mark() {
    for seed in 0..24 {
        the_unpushed_set_follows_its_definition(seed).unwrap_or_else(|e| panic!("{e}"));
    }
}
