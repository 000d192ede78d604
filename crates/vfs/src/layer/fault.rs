//! [`FaultLayer`]: deterministic fault injection for chaos and crash tests.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use simclock::ActorClock;

use super::Layer;
use crate::{Fd, FileSystem, IoError, IoResult, Metadata, OpenFlags};

/// The operation kind a [`FaultRule`] matches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultOp {
    /// `open`.
    Open,
    /// `close`.
    Close,
    /// `pread`.
    Read,
    /// `pwrite`.
    Write,
    /// `fsync`.
    Fsync,
    /// `ftruncate`.
    Truncate,
    /// `fstat`.
    Fstat,
    /// `stat`.
    Stat,
    /// `unlink`.
    Unlink,
    /// `rename` (the path predicate tests the *source* name).
    Rename,
    /// `list_dir`.
    ListDir,
    /// `sync`.
    Sync,
}

/// When a [`FaultRule`] fires. All triggers are deterministic: the same
/// operation sequence produces the same faults, every run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultTrigger {
    /// The first `n` matching operations succeed; every later one fails
    /// (`AfterBudget(0)` fails them all — the old `FailingFs` semantics).
    AfterBudget(u64),
    /// Exactly the `n`-th matching operation fails (1-based); all others
    /// pass.
    OnNth(u64),
    /// Every matching operation on a path starting with this prefix fails.
    /// Descriptor-based operations use the path recorded at `open`.
    PathPrefix(String),
}

/// One fault schedule entry: which op kind, when, and what error.
#[derive(Debug, Clone)]
pub struct FaultRule {
    /// Operation kind the rule matches.
    pub op: FaultOp,
    /// Firing condition over the sequence of matching operations.
    pub trigger: FaultTrigger,
    /// The error returned when the rule fires.
    pub error: IoError,
}

impl FaultRule {
    /// A rule with the default injected error message.
    pub fn new(op: FaultOp, trigger: FaultTrigger) -> Self {
        FaultRule { error: IoError::Other(format!("injected {op:?} fault")), op, trigger }
    }

    /// Replaces the injected error.
    #[must_use]
    pub fn with_error(mut self, error: IoError) -> Self {
        self.error = error;
        self
    }
}

#[derive(Debug)]
struct FaultState {
    rules: Vec<FaultRule>,
    /// Per-rule count of *matching* operations observed while armed.
    seen: Vec<AtomicU64>,
    /// Per-rule count of injected faults.
    fired: Vec<AtomicU64>,
    injected: AtomicU64,
    armed: AtomicBool,
    /// `fd → path`, maintained only when a [`FaultTrigger::PathPrefix`]
    /// rule exists (the map is host-side bookkeeping: no clock effect).
    fd_paths: Mutex<HashMap<u64, String>>,
    track_paths: bool,
}

/// A [`Layer`] injecting deterministic faults per a schedule of
/// [`FaultRule`]s — the first matching rule that fires wins.
///
/// This is the first-class generalization of the test-private `FailingFs`:
/// op-count budgets, exact nth-op triggers, and path predicates, with
/// per-layer injected-fault counters and a runtime [`arm`](FaultLayer::arm)
/// / [`disarm`](FaultLayer::disarm) switch. While disarmed (or with an
/// empty schedule — [`inert`](FaultLayer::inert)) the layer is a pure
/// call-forwarder: no clock effect, no counter movement, byte- and
/// virtual-time-identical to the bare backend.
///
/// Faults fail the call **before** it reaches the inner file system — the
/// inner state is untouched, exactly like an I/O error surfacing from a
/// device queue.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use simclock::ActorClock;
/// use vfs::{FaultLayer, Layer, MemFs, OpenFlags};
///
/// let layer = FaultLayer::failing_pwrites(1); // one write allowed, then EIO
/// let fs = layer.wrap(Arc::new(MemFs::new()));
/// let clock = ActorClock::new();
/// let fd = fs.open("/f", OpenFlags::RDWR | OpenFlags::CREATE, &clock).unwrap();
/// assert!(fs.pwrite(fd, b"ok", 0, &clock).is_ok());
/// assert!(fs.pwrite(fd, b"boom", 2, &clock).is_err());
/// assert_eq!(layer.faults_injected(), 1);
/// ```
#[derive(Debug)]
pub struct FaultLayer {
    state: Arc<FaultState>,
}

impl FaultLayer {
    /// A layer with the given fault schedule, armed.
    pub fn new(rules: Vec<FaultRule>) -> Self {
        let track_paths = rules.iter().any(|r| matches!(r.trigger, FaultTrigger::PathPrefix(_)));
        let n = rules.len();
        FaultLayer {
            state: Arc::new(FaultState {
                rules,
                seen: (0..n).map(|_| AtomicU64::new(0)).collect(),
                fired: (0..n).map(|_| AtomicU64::new(0)).collect(),
                injected: AtomicU64::new(0),
                armed: AtomicBool::new(true),
                fd_paths: Mutex::new(HashMap::new()),
                track_paths,
            }),
        }
    }

    /// The inert configuration: an empty schedule, a pure call-forwarder.
    pub fn inert() -> Self {
        Self::new(Vec::new())
    }

    /// The old `FailingFs` schedule: the first `allowed` `pwrite`s succeed,
    /// every later one fails with an injected I/O error.
    pub fn failing_pwrites(allowed: u64) -> Self {
        Self::new(vec![FaultRule::new(FaultOp::Write, FaultTrigger::AfterBudget(allowed))
            .with_error(IoError::Other("injected inner pwrite failure".into()))])
    }

    /// Starts (or resumes) injecting faults. New layers start armed.
    pub fn arm(&self) {
        self.state.armed.store(true, Ordering::Release);
    }

    /// Stops injecting faults and freezes the schedule counters; the layer
    /// forwards everything until re-armed.
    pub fn disarm(&self) {
        self.state.armed.store(false, Ordering::Release);
    }

    /// Total faults injected by this layer.
    pub fn faults_injected(&self) -> u64 {
        self.state.injected.load(Ordering::Acquire)
    }

    /// Faults injected by the rule at `idx` (schedule order).
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn faults_injected_by(&self, idx: usize) -> u64 {
        self.state.fired[idx].load(Ordering::Acquire)
    }
}

impl Layer for FaultLayer {
    fn name(&self) -> &str {
        "fault"
    }

    fn wrap(&self, inner: Arc<dyn FileSystem>) -> Arc<dyn FileSystem> {
        Arc::new(FaultFs {
            name: format!("fault({})", inner.name()),
            state: Arc::clone(&self.state),
            inner,
        })
    }
}

struct FaultFs {
    name: String,
    state: Arc<FaultState>,
    inner: Arc<dyn FileSystem>,
}

impl FaultFs {
    /// Checks the schedule for `op`; `path` is the affected path when one
    /// is known (path ops directly, fd ops via the recorded open path).
    fn check(&self, op: FaultOp, path: Option<&str>) -> IoResult<()> {
        let st = &self.state;
        if st.rules.is_empty() || !st.armed.load(Ordering::Acquire) {
            return Ok(());
        }
        for (i, rule) in st.rules.iter().enumerate() {
            if rule.op != op {
                continue;
            }
            let n = st.seen[i].fetch_add(1, Ordering::AcqRel) + 1;
            let fires = match &rule.trigger {
                FaultTrigger::AfterBudget(b) => n > *b,
                FaultTrigger::OnNth(k) => n == *k,
                FaultTrigger::PathPrefix(p) => path.is_some_and(|s| s.starts_with(p.as_str())),
            };
            if fires {
                st.fired[i].fetch_add(1, Ordering::AcqRel);
                st.injected.fetch_add(1, Ordering::AcqRel);
                return Err(rule.error.clone());
            }
        }
        Ok(())
    }

    fn path_of(&self, fd: Fd) -> Option<String> {
        if !self.state.track_paths {
            return None;
        }
        self.state.fd_paths.lock().get(&fd.0).cloned()
    }
}

impl FileSystem for FaultFs {
    fn name(&self) -> &str {
        &self.name
    }

    fn open(&self, path: &str, flags: OpenFlags, clock: &ActorClock) -> IoResult<Fd> {
        self.check(FaultOp::Open, Some(path))?;
        let fd = self.inner.open(path, flags, clock)?;
        if self.state.track_paths {
            self.state.fd_paths.lock().insert(fd.0, path.to_string());
        }
        Ok(fd)
    }

    fn close(&self, fd: Fd, clock: &ActorClock) -> IoResult<()> {
        self.check(FaultOp::Close, self.path_of(fd).as_deref())?;
        self.inner.close(fd, clock)?;
        if self.state.track_paths {
            self.state.fd_paths.lock().remove(&fd.0);
        }
        Ok(())
    }

    fn pread(&self, fd: Fd, buf: &mut [u8], off: u64, clock: &ActorClock) -> IoResult<usize> {
        self.check(FaultOp::Read, self.path_of(fd).as_deref())?;
        self.inner.pread(fd, buf, off, clock)
    }

    fn pwrite(&self, fd: Fd, data: &[u8], off: u64, clock: &ActorClock) -> IoResult<usize> {
        self.check(FaultOp::Write, self.path_of(fd).as_deref())?;
        self.inner.pwrite(fd, data, off, clock)
    }

    fn fsync(&self, fd: Fd, clock: &ActorClock) -> IoResult<()> {
        self.check(FaultOp::Fsync, self.path_of(fd).as_deref())?;
        self.inner.fsync(fd, clock)
    }

    fn ftruncate(&self, fd: Fd, len: u64, clock: &ActorClock) -> IoResult<()> {
        self.check(FaultOp::Truncate, self.path_of(fd).as_deref())?;
        self.inner.ftruncate(fd, len, clock)
    }

    fn fstat(&self, fd: Fd, clock: &ActorClock) -> IoResult<Metadata> {
        self.check(FaultOp::Fstat, self.path_of(fd).as_deref())?;
        self.inner.fstat(fd, clock)
    }

    fn stat(&self, path: &str, clock: &ActorClock) -> IoResult<Metadata> {
        self.check(FaultOp::Stat, Some(path))?;
        self.inner.stat(path, clock)
    }

    fn unlink(&self, path: &str, clock: &ActorClock) -> IoResult<()> {
        self.check(FaultOp::Unlink, Some(path))?;
        self.inner.unlink(path, clock)
    }

    fn rename(&self, from: &str, to: &str, clock: &ActorClock) -> IoResult<()> {
        self.check(FaultOp::Rename, Some(from))?;
        self.inner.rename(from, to, clock)
    }

    fn list_dir(&self, dir: &str, clock: &ActorClock) -> IoResult<Vec<String>> {
        self.check(FaultOp::ListDir, Some(dir))?;
        self.inner.list_dir(dir, clock)
    }

    fn sync(&self, clock: &ActorClock) -> IoResult<()> {
        self.check(FaultOp::Sync, None)?;
        self.inner.sync(clock)
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MemFs;

    fn rig(layer: &FaultLayer) -> (ActorClock, Arc<dyn FileSystem>) {
        (ActorClock::new(), layer.wrap(Arc::new(MemFs::new())))
    }

    #[test]
    fn budget_allows_then_fails_forever() {
        let layer = FaultLayer::failing_pwrites(2);
        let (c, fs) = rig(&layer);
        let fd = fs.open("/b", OpenFlags::RDWR | OpenFlags::CREATE, &c).unwrap();
        assert!(fs.pwrite(fd, b"1", 0, &c).is_ok());
        assert!(fs.pwrite(fd, b"2", 1, &c).is_ok());
        for _ in 0..3 {
            assert!(matches!(fs.pwrite(fd, b"x", 2, &c), Err(IoError::Other(_))));
        }
        assert_eq!(layer.faults_injected(), 3);
        assert_eq!(layer.faults_injected_by(0), 3);
    }

    #[test]
    fn nth_op_trigger_fails_exactly_once() {
        let layer = FaultLayer::new(vec![FaultRule::new(FaultOp::Fsync, FaultTrigger::OnNth(2))]);
        let (c, fs) = rig(&layer);
        let fd = fs.open("/n", OpenFlags::RDWR | OpenFlags::CREATE, &c).unwrap();
        assert!(fs.fsync(fd, &c).is_ok());
        assert!(fs.fsync(fd, &c).is_err());
        assert!(fs.fsync(fd, &c).is_ok());
        assert_eq!(layer.faults_injected(), 1);
    }

    #[test]
    fn path_predicate_hits_fd_ops_through_the_recorded_open_path() {
        let layer = FaultLayer::new(vec![FaultRule::new(
            FaultOp::Write,
            FaultTrigger::PathPrefix("/victim".into()),
        )]);
        let (c, fs) = rig(&layer);
        let ok = fs.open("/bystander", OpenFlags::RDWR | OpenFlags::CREATE, &c).unwrap();
        let bad = fs.open("/victim/f", OpenFlags::RDWR | OpenFlags::CREATE, &c).unwrap();
        assert!(fs.pwrite(ok, b"fine", 0, &c).is_ok());
        assert!(fs.pwrite(bad, b"nope", 0, &c).is_err());
        // Unlink and stat on the same prefix are unaffected (different op).
        assert!(fs.stat("/victim/f", &c).is_ok());
        assert_eq!(layer.faults_injected(), 1);
    }

    #[test]
    fn disarm_freezes_the_schedule_and_forwards() {
        let layer = FaultLayer::failing_pwrites(0);
        let (c, fs) = rig(&layer);
        let fd = fs.open("/d", OpenFlags::RDWR | OpenFlags::CREATE, &c).unwrap();
        assert!(fs.pwrite(fd, b"no", 0, &c).is_err());
        layer.disarm();
        assert!(fs.pwrite(fd, b"yes", 0, &c).is_ok());
        layer.arm();
        assert!(fs.pwrite(fd, b"no", 0, &c).is_err());
        assert_eq!(layer.faults_injected(), 2);
    }

    #[test]
    fn inert_layer_is_time_identical_to_bare() {
        let layer = FaultLayer::inert();
        let fs = layer.wrap(Arc::new(MemFs::new()));
        let bare: Arc<dyn FileSystem> = Arc::new(MemFs::new());
        let (c1, c2) = (ActorClock::new(), ActorClock::new());
        for (fs, c) in [(&fs, &c1), (&bare, &c2)] {
            let fd = fs.open("/a", OpenFlags::RDWR | OpenFlags::CREATE, c).unwrap();
            fs.pwrite(fd, &[3; 512], 0, c).unwrap();
            fs.fsync(fd, c).unwrap();
            fs.close(fd, c).unwrap();
        }
        assert_eq!(c1.now(), c2.now());
        assert_eq!(layer.faults_injected(), 0);
    }
}
