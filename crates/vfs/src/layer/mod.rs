//! Composable backend **layers**: behavior stacked *vertically* over a
//! [`FileSystem`].
//!
//! The mount stack composes backends *side-by-side* — a router picks one
//! tier per file. Layers compose **vertically**: each wraps an inner
//! `Arc<dyn FileSystem>` and returns another `Arc<dyn FileSystem>`, so a
//! tier can be `crypt(delay(ssd))` and everything above it (cache drains,
//! the tier migrator, recovery) works unchanged, because a layered backend
//! *is* a plain `FileSystem`.
//!
//! ```text
//!           NvCache mount
//!                │ Router picks a tier per file
//!       ┌────────┴────────┐
//!    tier 0            tier 1
//!   CryptLayer        FaultLayer         ← outermost layer
//!       │                 │
//!   DelayLayer         Ext4+SSD          ← … down to the base backend
//!       │
//!    Ext4+SSD
//! ```
//!
//! Three first-class layers ship with the crate:
//!
//! * [`DelayLayer`] — deterministic per-op virtual-time latency (device
//!   parameterization, what-if modelling);
//! * [`FaultLayer`] — deterministic fault schedules (op budgets, nth-op
//!   triggers) for chaos/crash testing;
//! * [`CryptLayer`] — simulated-fidelity encryption-at-rest: per-page
//!   XOR keystream plus a stored per-page auth tag, verified on read.
//!
//! # One forwarder
//!
//! A layer that passes every call through — charging time, failing a call,
//! recording it — is a [`Hook`] under the one forwarder, [`Hooked`]: each
//! of the twelve calls reaches the inner file system through
//! [`Hook::around`], which sees the call's [`Op`], its payload bytes and the
//! caller's clock, while `simulate_power_failure` and the two durability
//! flags always reach the inner file system. `DelayLayer`, `FaultLayer` and
//! the probes and recorders of the tests and benches are hooks; only
//! `CryptLayer`, which transforms the bytes, implements [`FileSystem`]
//! itself.
//!
//! A hook that only calls `forward` makes `Hooked` a pure call-forwarder:
//! it never touches the caller's virtual clock, never alters arguments,
//! results, errors, or stored bytes, and never reorders operations. The
//! inert `DelayLayer` and `FaultLayer` (their `inert()` constructors) act as
//! such hooks, so a mount whose tiers are wrapped in them is **byte- and
//! virtual-time-identical** to the unlayered mount — the conformance matrix
//! in `tests/layer_matrix.rs` pins this down on region bytes, the
//! application clock, and the deterministic statistics. Active layers must
//! still preserve application-visible *content* (the byte oracle); only
//! their timing and their storage representation may differ.
//!
//! Layer handles stay usable after wrapping: the same [`FaultLayer`] value
//! that built a stack can `disarm()` faults mid-run and report
//! [`faults_injected`](FaultLayer::faults_injected) — the wrapper shares
//! its state. One layer value should wrap one stack; wrapping several
//! stacks with the same handle shares its counters across them.

mod crypt;
mod delay;
mod fault;

use std::sync::Arc;

use simclock::ActorClock;

use crate::{Fd, FileSystem, IoResult, Metadata, OpenFlags};

pub use crypt::{CryptLayer, CryptStats};
pub use delay::{DelayLayer, DelayProfile, DelayStats};
pub use fault::{FaultLayer, FaultRule, FaultTrigger};

/// A vertically composable file-system layer.
///
/// Object-safe: a stack is a `Vec<Arc<dyn Layer>>`. [`wrap`](Layer::wrap)
/// consumes nothing — the layer value keeps its shared state (counters,
/// fault schedules, cache contents) and stays usable as a live handle to
/// the wrapper it produced.
pub trait Layer: Send + Sync + std::fmt::Debug {
    /// Short human-readable name (e.g. `"delay"`, `"crypt"`).
    fn name(&self) -> &str;

    /// Wraps `inner`, returning the layered file system.
    fn wrap(&self, inner: Arc<dyn FileSystem>) -> Arc<dyn FileSystem>;
}

/// Applies a stack of layers over `inner`: the **first** element becomes
/// the outermost wrapper, so `stack(&[crypt, delay], ssd)` builds
/// `crypt(delay(ssd))`. An empty stack returns `inner` unchanged.
pub fn stack(layers: &[Arc<dyn Layer>], inner: Arc<dyn FileSystem>) -> Arc<dyn FileSystem> {
    layers.iter().rev().fold(inner, |fs, layer| layer.wrap(fs))
}

/// The kind of a call [`Hooked`] forwards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
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
    /// `rename`.
    Rename,
    /// `list_dir`.
    ListDir,
    /// `sync`.
    Sync,
}

/// What a pass-through layer does around each call [`Hooked`] forwards.
pub trait Hook: Send + Sync {
    /// The name the wrapper shows around the inner one (`delay` →
    /// `delay(ext4+ssd)`); `None`, the default, shows the inner name alone.
    fn label(&self) -> Option<&str> {
        None
    }

    /// Runs one call of kind `op` with `bytes` of payload (`pread`'s buffer,
    /// `pwrite`'s data; 0 for the other calls) on the caller's `clock`.
    /// `forward` makes the call on the inner file system; a hook that
    /// returns without calling it fails the call before it reaches the
    /// inner file system.
    fn around<R>(
        &self,
        op: Op,
        bytes: usize,
        clock: &ActorClock,
        forward: impl FnOnce() -> IoResult<R>,
    ) -> IoResult<R>;
}

/// One hook shared by every wrapper a layer value builds.
impl<H: Hook> Hook for Arc<H> {
    fn label(&self) -> Option<&str> {
        (**self).label()
    }

    fn around<R>(
        &self,
        op: Op,
        bytes: usize,
        clock: &ActorClock,
        forward: impl FnOnce() -> IoResult<R>,
    ) -> IoResult<R> {
        (**self).around(op, bytes, clock, forward)
    }
}

/// The one forwarder: a [`FileSystem`] that passes each call to `inner`
/// through its [`Hook`].
pub struct Hooked<H> {
    /// `Some` when the hook has a [`label`](Hook::label).
    name: Option<String>,
    hook: H,
    inner: Arc<dyn FileSystem>,
}

impl<H: Hook> Hooked<H> {
    /// Forwards to `inner` through `hook`.
    pub fn new(hook: H, inner: Arc<dyn FileSystem>) -> Self {
        let name = hook.label().map(|label| format!("{label}({})", inner.name()));
        Hooked { name, hook, inner }
    }

    /// The hook, for what it observed.
    pub fn hook(&self) -> &H {
        &self.hook
    }
}

impl<H: Hook> FileSystem for Hooked<H> {
    fn name(&self) -> &str {
        self.name.as_deref().unwrap_or_else(|| self.inner.name())
    }

    fn open(&self, path: &str, flags: OpenFlags, clock: &ActorClock) -> IoResult<Fd> {
        self.hook.around(Op::Open, 0, clock, || self.inner.open(path, flags, clock))
    }

    fn close(&self, fd: Fd, clock: &ActorClock) -> IoResult<()> {
        self.hook.around(Op::Close, 0, clock, || self.inner.close(fd, clock))
    }

    fn pread(&self, fd: Fd, buf: &mut [u8], off: u64, clock: &ActorClock) -> IoResult<usize> {
        self.hook
            .around(Op::Read, buf.len(), clock, || self.inner.pread(fd, buf, off, clock))
    }

    fn pwrite(&self, fd: Fd, data: &[u8], off: u64, clock: &ActorClock) -> IoResult<usize> {
        self.hook
            .around(Op::Write, data.len(), clock, || self.inner.pwrite(fd, data, off, clock))
    }

    fn fsync(&self, fd: Fd, clock: &ActorClock) -> IoResult<()> {
        self.hook.around(Op::Fsync, 0, clock, || self.inner.fsync(fd, clock))
    }

    fn ftruncate(&self, fd: Fd, len: u64, clock: &ActorClock) -> IoResult<()> {
        self.hook
            .around(Op::Truncate, 0, clock, || self.inner.ftruncate(fd, len, clock))
    }

    fn fstat(&self, fd: Fd, clock: &ActorClock) -> IoResult<Metadata> {
        self.hook.around(Op::Fstat, 0, clock, || self.inner.fstat(fd, clock))
    }

    fn stat(&self, path: &str, clock: &ActorClock) -> IoResult<Metadata> {
        self.hook.around(Op::Stat, 0, clock, || self.inner.stat(path, clock))
    }

    fn unlink(&self, path: &str, clock: &ActorClock) -> IoResult<()> {
        self.hook.around(Op::Unlink, 0, clock, || self.inner.unlink(path, clock))
    }

    fn rename(&self, from: &str, to: &str, clock: &ActorClock) -> IoResult<()> {
        self.hook.around(Op::Rename, 0, clock, || self.inner.rename(from, to, clock))
    }

    fn list_dir(&self, dir: &str, clock: &ActorClock) -> IoResult<Vec<String>> {
        self.hook.around(Op::ListDir, 0, clock, || self.inner.list_dir(dir, clock))
    }

    fn sync(&self, clock: &ActorClock) -> IoResult<()> {
        self.hook.around(Op::Sync, 0, clock, || self.inner.sync(clock))
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
    use crate::{check_posix_semantics, Ext4, Ext4Profile, MemFs, NovaFs, NovaProfile};
    use blockdev::{BlockDevice, SsdDevice, SsdProfile};
    use nvmm::{NvDimm, NvRegion, NvmmProfile};

    /// Calls `forward` and nothing else.
    struct Forward;

    impl Hook for Forward {
        fn around<R>(
            &self,
            _op: Op,
            _bytes: usize,
            _clock: &ActorClock,
            forward: impl FnOnce() -> IoResult<R>,
        ) -> IoResult<R> {
            forward()
        }
    }

    fn forwarded(inner: Arc<dyn FileSystem>) -> Arc<dyn FileSystem> {
        Arc::new(Hooked::new(Forward, inner))
    }

    fn ext4_ssd() -> Arc<dyn FileSystem> {
        let ssd = Arc::new(SsdDevice::new(SsdProfile::s4600())) as Arc<dyn BlockDevice>;
        Arc::new(Ext4::new("ext4+ssd", ssd, Ext4Profile::default()))
    }

    /// Every one of the twelve calls, once or more; the clock it ends on.
    fn all_calls(fs: &dyn FileSystem) -> simclock::SimTime {
        let c = ActorClock::new();
        let fd = fs.open("/d/a", OpenFlags::RDWR | OpenFlags::CREATE, &c).unwrap();
        fs.pwrite(fd, &[5; 6000], 100, &c).unwrap();
        fs.fsync(fd, &c).unwrap();
        let mut buf = [0u8; 6100];
        assert_eq!(fs.pread(fd, &mut buf, 0, &c).unwrap(), 6100);
        fs.ftruncate(fd, 4096, &c).unwrap();
        assert_eq!(fs.fstat(fd, &c).unwrap().size, 4096);
        fs.close(fd, &c).unwrap();
        fs.rename("/d/a", "/d/b", &c).unwrap();
        assert_eq!(fs.stat("/d/b", &c).unwrap().size, 4096);
        assert_eq!(fs.list_dir("/d", &c).unwrap(), vec!["/d/b".to_string()]);
        fs.sync(&c).unwrap();
        fs.unlink("/d/b", &c).unwrap();
        c.now()
    }

    #[test]
    fn trait_is_object_safe() {
        fn _takes(_l: &dyn Layer) {}
    }

    #[test]
    fn empty_stack_is_identity() {
        let mem: Arc<dyn FileSystem> = Arc::new(MemFs::new());
        let stacked = stack(&[], Arc::clone(&mem));
        assert!(Arc::ptr_eq(&mem, &stacked));
    }

    #[test]
    fn stack_applies_first_layer_outermost() {
        let crypt = Arc::new(CryptLayer::new(7));
        let delay = Arc::new(DelayLayer::inert());
        let layers: Vec<Arc<dyn Layer>> = vec![crypt, delay];
        let fs = stack(&layers, Arc::new(MemFs::new()));
        assert_eq!(fs.name(), "crypt(delay(tmpfs))");
    }

    /// A hook that only forwards is invisible: POSIX semantics and the
    /// caller's clock are the bare backend's, call for call.
    #[test]
    fn a_forwarding_hook_is_the_bare_backend_to_the_caller() {
        let backends: [fn() -> Arc<dyn FileSystem>; 2] = [|| Arc::new(MemFs::new()), ext4_ssd];
        for backend in backends {
            check_posix_semantics(forwarded(backend()).as_ref());
            let hooked = forwarded(backend());
            assert_eq!(hooked.name(), backend().name());
            assert_eq!(
                all_calls(hooked.as_ref()),
                all_calls(backend().as_ref()),
                "{}",
                hooked.name()
            );
        }
    }

    /// The durability flags and a power cut are the inner file system's.
    #[test]
    fn the_forwarder_answers_for_the_inner_file_system() {
        let dimm = Arc::new(NvDimm::new(16 << 20, NvmmProfile::optane()));
        let nova = forwarded(Arc::new(NovaFs::new(NvRegion::whole(dimm), NovaProfile::default())));
        assert!(nova.synchronous_durability() && nova.durable_linearizability());

        let mem = forwarded(Arc::new(MemFs::new()));
        assert!(!mem.synchronous_durability() && !mem.durable_linearizability());
        let c = ActorClock::new();
        let fd = mem.open("/volatile", OpenFlags::RDWR | OpenFlags::CREATE, &c).unwrap();
        mem.close(fd, &c).unwrap();
        mem.simulate_power_failure();
        assert!(mem.stat("/volatile", &c).is_err(), "the power cut reached tmpfs");
    }

    #[test]
    fn every_inert_layer_passes_posix_conformance() {
        let layers: Vec<Arc<dyn Layer>> =
            vec![Arc::new(DelayLayer::inert()), Arc::new(FaultLayer::inert())];
        check_posix_semantics(stack(&layers, Arc::new(MemFs::new())).as_ref());
    }

    #[test]
    fn every_active_layer_passes_posix_conformance() {
        let layers: Vec<Arc<dyn Layer>> = vec![
            Arc::new(DelayLayer::fixed(simclock::SimTime::from_micros(3))),
            Arc::new(CryptLayer::new(0xC0FFEE)),
        ];
        for layer in &layers {
            check_posix_semantics(layer.wrap(Arc::new(MemFs::new())).as_ref());
        }
        check_posix_semantics(stack(&layers, Arc::new(MemFs::new())).as_ref());
    }
}
