//! [`DelayLayer`]: deterministic per-op virtual-time latency injection.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use simclock::{ActorClock, Bandwidth, SimTime};

use super::{Hook, Hooked, Layer, Op};
use crate::{FileSystem, IoResult};

/// Per-op-kind latency model of a [`DelayLayer`].
///
/// Each field is a fixed virtual-time charge added **before** the inner
/// call; `read_bandwidth`/`write_bandwidth` additionally charge a
/// size-proportional transfer time for `pread`/`pwrite` payloads (the HPC
/// I/O-modelling knob: device latency = fixed cost + bytes / bandwidth).
/// The default profile is all-zero — fully inert.
#[derive(Debug, Clone, Copy, Default)]
pub struct DelayProfile {
    /// Added to `open`.
    pub open: SimTime,
    /// Added to `close`.
    pub close: SimTime,
    /// Added to `pread`.
    pub pread: SimTime,
    /// Added to `pwrite`.
    pub pwrite: SimTime,
    /// Added to `fsync` and `sync`.
    pub fsync: SimTime,
    /// Added to `ftruncate`.
    pub ftruncate: SimTime,
    /// Added to `stat` and `fstat`.
    pub stat: SimTime,
    /// Added to `unlink`, `rename` and `list_dir`.
    pub path_op: SimTime,
    /// Size-proportional extra charge on `pread` payloads.
    pub read_bandwidth: Option<Bandwidth>,
    /// Size-proportional extra charge on `pwrite` payloads.
    pub write_bandwidth: Option<Bandwidth>,
}

/// Deterministic snapshot of a [`DelayLayer`]'s counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DelayStats {
    /// Operations that received a non-zero injected delay.
    pub ops_delayed: u64,
    /// Total virtual time injected.
    pub injected: SimTime,
}

/// The hook every wrapper of one [`DelayLayer`] shares.
#[derive(Debug, Default)]
struct DelayHook {
    profile: DelayProfile,
    ops_delayed: AtomicU64,
    injected_ns: AtomicU64,
}

/// A [`Layer`] charging a deterministic virtual-time latency per operation.
///
/// The delay is a plain [`ActorClock::advance`] before forwarding: it
/// composes with the inner backend's own cost model and is exactly
/// reproducible run-to-run (no randomness, no wall clock). With the
/// all-zero [`DelayProfile`] the layer is inert — it never touches the
/// clock and keeps its counters at zero.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use simclock::{ActorClock, SimTime};
/// use vfs::{DelayLayer, Layer, MemFs, OpenFlags};
///
/// let layer = DelayLayer::fixed(SimTime::from_micros(10));
/// let fs = layer.wrap(Arc::new(MemFs::new()));
/// let clock = ActorClock::new();
/// let before = clock.now();
/// fs.open("/x", OpenFlags::RDWR | OpenFlags::CREATE, &clock).unwrap();
/// assert!(clock.now() - before >= SimTime::from_micros(10));
/// assert_eq!(layer.stats().ops_delayed, 1);
/// ```
#[derive(Debug)]
pub struct DelayLayer {
    hook: Arc<DelayHook>,
}

impl DelayLayer {
    /// A layer with the given latency profile.
    pub fn new(profile: DelayProfile) -> Self {
        DelayLayer { hook: Arc::new(DelayHook { profile, ..DelayHook::default() }) }
    }

    /// The inert configuration: all delays zero, a pure call-forwarder.
    pub fn inert() -> Self {
        Self::new(DelayProfile::default())
    }

    /// A uniform fixed latency on every operation (no bandwidth term).
    pub fn fixed(per_op: SimTime) -> Self {
        Self::new(DelayProfile {
            open: per_op,
            close: per_op,
            pread: per_op,
            pwrite: per_op,
            fsync: per_op,
            ftruncate: per_op,
            stat: per_op,
            path_op: per_op,
            read_bandwidth: None,
            write_bandwidth: None,
        })
    }

    /// Deterministic counters: ops delayed and total injected time.
    pub fn stats(&self) -> DelayStats {
        DelayStats {
            ops_delayed: self.hook.ops_delayed.load(Ordering::Acquire),
            injected: SimTime::from_nanos(self.hook.injected_ns.load(Ordering::Acquire)),
        }
    }
}

impl Layer for DelayLayer {
    fn name(&self) -> &str {
        "delay"
    }

    fn wrap(&self, inner: Arc<dyn FileSystem>) -> Arc<dyn FileSystem> {
        Arc::new(Hooked::new(Arc::clone(&self.hook), inner))
    }
}

impl Hook for DelayHook {
    fn label(&self) -> Option<&str> {
        Some("delay")
    }

    fn around<R>(
        &self,
        op: Op,
        bytes: usize,
        clock: &ActorClock,
        forward: impl FnOnce() -> IoResult<R>,
    ) -> IoResult<R> {
        let p = &self.profile;
        let (fixed, bandwidth) = match op {
            Op::Open => (p.open, None),
            Op::Close => (p.close, None),
            Op::Read => (p.pread, p.read_bandwidth),
            Op::Write => (p.pwrite, p.write_bandwidth),
            Op::Fsync | Op::Sync => (p.fsync, None),
            Op::Truncate => (p.ftruncate, None),
            Op::Fstat | Op::Stat => (p.stat, None),
            Op::Unlink | Op::Rename | Op::ListDir => (p.path_op, None),
        };
        let total = fixed + bandwidth.map_or(SimTime::ZERO, |b| b.time_for(bytes as u64));
        if total > SimTime::ZERO {
            clock.advance(total);
            self.ops_delayed.fetch_add(1, Ordering::AcqRel);
            self.injected_ns.fetch_add(total.as_nanos(), Ordering::AcqRel);
        }
        forward()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MemFs, OpenFlags};

    #[test]
    fn inert_layer_never_touches_the_clock() {
        let layer = DelayLayer::inert();
        let fs = layer.wrap(Arc::new(MemFs::new()));
        let bare: Arc<dyn FileSystem> = Arc::new(MemFs::new());
        let (c1, c2) = (ActorClock::new(), ActorClock::new());
        for (fs, c) in [(&fs, &c1), (&bare, &c2)] {
            let fd = fs.open("/a", OpenFlags::RDWR | OpenFlags::CREATE, c).unwrap();
            fs.pwrite(fd, &[1; 1000], 0, c).unwrap();
            let mut buf = [0u8; 1000];
            fs.pread(fd, &mut buf, 0, c).unwrap();
            fs.fsync(fd, c).unwrap();
            fs.close(fd, c).unwrap();
        }
        assert_eq!(c1.now(), c2.now(), "inert delay layer must be virtual-time-identical");
        assert_eq!(layer.stats(), DelayStats::default());
    }

    #[test]
    fn delays_are_deterministic_and_counted() {
        let run = |layer: &DelayLayer| {
            let fs = layer.wrap(Arc::new(MemFs::new()));
            let c = ActorClock::new();
            let fd = fs.open("/a", OpenFlags::RDWR | OpenFlags::CREATE, &c).unwrap();
            fs.pwrite(fd, &[9; 4096], 0, &c).unwrap();
            let mut buf = [0u8; 4096];
            fs.pread(fd, &mut buf, 0, &c).unwrap();
            fs.close(fd, &c).unwrap();
            c.now()
        };
        let a = DelayLayer::new(DelayProfile {
            pwrite: SimTime::from_micros(50),
            write_bandwidth: Some(Bandwidth::mib_per_sec(100.0)),
            ..DelayProfile::default()
        });
        let b = DelayLayer::new(DelayProfile {
            pwrite: SimTime::from_micros(50),
            write_bandwidth: Some(Bandwidth::mib_per_sec(100.0)),
            ..DelayProfile::default()
        });
        let (ta, tb) = (run(&a), run(&b));
        assert_eq!(ta, tb, "identical profiles must produce identical timelines");
        assert_eq!(a.stats(), b.stats());
        assert_eq!(a.stats().ops_delayed, 1, "only the pwrite was charged");
        // 50µs fixed + 4096 B at 100 MiB/s.
        let expected = SimTime::from_micros(50) + Bandwidth::mib_per_sec(100.0).time_for(4096);
        assert_eq!(a.stats().injected, expected);
    }
}
