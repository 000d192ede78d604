//! [`FaultLayer`]: deterministic fault injection for chaos and crash tests.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use simclock::ActorClock;

use super::{Hook, Hooked, Layer, Op};
use crate::{FileSystem, IoError, IoResult};

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
}

/// One fault schedule entry: which op kind, when, and what error.
#[derive(Debug, Clone)]
pub struct FaultRule {
    /// Operation kind the rule matches.
    pub op: Op,
    /// Firing condition over the sequence of matching operations.
    pub trigger: FaultTrigger,
    /// The error returned when the rule fires.
    pub error: IoError,
}

impl FaultRule {
    /// A rule with the default injected error message.
    pub fn new(op: Op, trigger: FaultTrigger) -> Self {
        FaultRule { error: IoError::Other(format!("injected {op:?} fault")), op, trigger }
    }

    /// Replaces the injected error.
    #[must_use]
    pub fn with_error(mut self, error: IoError) -> Self {
        self.error = error;
        self
    }
}

/// The hook every wrapper of one [`FaultLayer`] shares.
#[derive(Debug)]
struct FaultHook {
    rules: Vec<FaultRule>,
    /// Per-rule count of *matching* operations observed while armed.
    seen: Vec<AtomicU64>,
    injected: AtomicU64,
    armed: AtomicBool,
}

/// A [`Layer`] injecting deterministic faults per a schedule of
/// [`FaultRule`]s — the first matching rule that fires wins.
///
/// This is the first-class generalization of the test-private `FailingFs`:
/// op-count budgets and exact nth-op triggers, with a per-layer
/// injected-fault counter and a runtime [`disarm`](FaultLayer::disarm)
/// switch. While disarmed (or with an empty schedule —
/// [`inert`](FaultLayer::inert)) the layer is a pure call-forwarder: no
/// clock effect, no counter movement, byte- and virtual-time-identical to
/// the bare backend.
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
    hook: Arc<FaultHook>,
}

impl FaultLayer {
    /// A layer with the given fault schedule, armed.
    pub fn new(rules: Vec<FaultRule>) -> Self {
        let seen = rules.iter().map(|_| AtomicU64::new(0)).collect();
        FaultLayer {
            hook: Arc::new(FaultHook {
                rules,
                seen,
                injected: AtomicU64::new(0),
                armed: AtomicBool::new(true),
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
        Self::new(vec![FaultRule::new(Op::Write, FaultTrigger::AfterBudget(allowed))
            .with_error(IoError::Other("injected inner pwrite failure".into()))])
    }

    /// Stops injecting faults and freezes the schedule counters; the layer
    /// forwards everything from then on.
    pub fn disarm(&self) {
        self.hook.armed.store(false, Ordering::Release);
    }

    /// Total faults injected by this layer.
    pub fn faults_injected(&self) -> u64 {
        self.hook.injected.load(Ordering::Acquire)
    }
}

impl Layer for FaultLayer {
    fn name(&self) -> &str {
        "fault"
    }

    fn wrap(&self, inner: Arc<dyn FileSystem>) -> Arc<dyn FileSystem> {
        Arc::new(Hooked::new(Arc::clone(&self.hook), inner))
    }
}

impl Hook for FaultHook {
    fn label(&self) -> Option<&str> {
        Some("fault")
    }

    fn around<R>(
        &self,
        op: Op,
        _bytes: usize,
        _clock: &ActorClock,
        forward: impl FnOnce() -> IoResult<R>,
    ) -> IoResult<R> {
        if !self.armed.load(Ordering::Acquire) {
            return forward();
        }
        for (rule, seen) in self.rules.iter().zip(&self.seen) {
            if rule.op != op {
                continue;
            }
            let n = seen.fetch_add(1, Ordering::AcqRel) + 1;
            let fires = match rule.trigger {
                FaultTrigger::AfterBudget(b) => n > b,
                FaultTrigger::OnNth(k) => n == k,
            };
            if fires {
                self.injected.fetch_add(1, Ordering::AcqRel);
                return Err(rule.error.clone());
            }
        }
        forward()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MemFs, OpenFlags};

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
    }

    #[test]
    fn nth_op_trigger_fails_exactly_once() {
        let layer = FaultLayer::new(vec![FaultRule::new(Op::Fsync, FaultTrigger::OnNth(2))]);
        let (c, fs) = rig(&layer);
        let fd = fs.open("/n", OpenFlags::RDWR | OpenFlags::CREATE, &c).unwrap();
        assert!(fs.fsync(fd, &c).is_ok());
        assert!(fs.fsync(fd, &c).is_err());
        assert!(fs.fsync(fd, &c).is_ok());
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
        assert!(fs.pwrite(fd, b"yes", 3, &c).is_ok());
        assert_eq!(layer.faults_injected(), 1);
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
