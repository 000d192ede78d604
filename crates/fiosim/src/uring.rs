//! An io_uring-style asynchronous submission/completion ring over any
//! [`vfs::FileSystem`], deterministic under `simclock` virtual time.
//!
//! The kernel's `io_uring` lets an application queue many I/O operations,
//! submit them in one batch, and reap completions later — overlapping the
//! device latency of every in-flight operation instead of paying it once per
//! call. This module reproduces that *timing* model in the simulator:
//!
//! * [`IoRing::submit_pwrite`] / [`IoRing::submit_fsync`] /
//!   [`IoRing::submit_sync`] perform the operation **eagerly** (side effects
//!   land in real execution order, so content semantics are identical to the
//!   synchronous path) but charge its latency to a private per-operation
//!   clock that starts at the operation's *dispatch* time;
//! * at most [`IoRing::depth`] operations are in flight: an operation
//!   dispatches at its submission time, or — when the ring is full — at the
//!   earliest completion among the in-flight set (a k-server window, exactly
//!   how a fixed-depth submission queue behaves: [`simclock::DispatchWindow`],
//!   which a file system's writeback queues its pages through as well);
//! * [`IoRing::wait_all`] reaps every completion and advances the caller's
//!   clock to the latest completion time — the `io_uring_enter(…, wait_nr)`
//!   moment where the submitter rejoins its I/O.
//!
//! What overlaps is the *calls*. Device time overlaps only as far as a call
//! reaches the device: an `O_DIRECT` write does, a buffered one ends in the
//! page cache and leaves the device to the next `fsync`/`syncfs`.
//!
//! With `depth == 1` the dispatch gate degenerates to "previous completion",
//! which makes the ring *exactly* equivalent to issuing the operations back
//! to back on one clock — the oracle property the NVCache cleanup path's
//! `queue_depth = 1` mode relies on (see `qd1_ring_is_identical_to_serial_io`
//! below).
//!
//! Determinism: everything happens on the submitting thread; the only shared
//! state touched is the file system itself, in submission order. Given the
//! same operation sequence and start times, completions are bit-identical.

use std::sync::Arc;

use simclock::{ActorClock, DispatchWindow, SimTime};
use vfs::{Fd, FileSystem, IoError, IoResult};

/// One reaped completion.
#[derive(Debug)]
pub struct Cqe {
    /// Caller-chosen tag identifying the submission.
    pub user_data: u64,
    /// The operation's outcome (bytes transferred for writes, `0` for
    /// `fsync` and `syncfs`).
    pub result: IoResult<usize>,
    /// Virtual time at which the operation was dispatched to the file
    /// system.
    pub dispatched_at: SimTime,
    /// Virtual time at which the operation completed.
    pub completed_at: SimTime,
}

/// A fixed-depth submission/completion ring over a [`FileSystem`].
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use fiosim::IoRing;
/// use simclock::ActorClock;
/// use vfs::{FileSystem, MemFs, OpenFlags};
///
/// # fn main() -> Result<(), vfs::IoError> {
/// let fs: Arc<dyn FileSystem> = Arc::new(MemFs::new());
/// let clock = ActorClock::new();
/// let fd = fs.open("/f", OpenFlags::RDWR | OpenFlags::CREATE, &clock)?;
/// let mut ring = IoRing::new(Arc::clone(&fs), 8);
/// for i in 0..4u64 {
///     ring.submit_pwrite(fd, &[i as u8; 4096], i * 4096, i, clock.now());
/// }
/// let cqes = ring.wait_all(&clock); // clock now at the last completion
/// assert_eq!(cqes.len(), 4);
/// assert!(cqes.iter().all(|c| c.result.is_ok()));
/// # Ok(())
/// # }
/// ```
pub struct IoRing {
    fs: Arc<dyn FileSystem>,
    /// The k-server window of submitted, unreaped operations.
    window: DispatchWindow,
    /// Completions accumulated since the last [`IoRing::wait_all`].
    completed: Vec<Cqe>,
    submitted: u64,
}

impl std::fmt::Debug for IoRing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IoRing")
            .field("depth", &self.window.depth())
            .field("in_flight", &self.window.in_flight())
            .field("unreaped", &self.completed.len())
            .finish()
    }
}

impl IoRing {
    /// Creates a ring of the given queue depth over `fs`.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is zero.
    pub fn new(fs: Arc<dyn FileSystem>, depth: usize) -> Self {
        IoRing { fs, window: DispatchWindow::new(depth), completed: Vec::new(), submitted: 0 }
    }

    /// The configured queue depth.
    pub fn depth(&self) -> usize {
        self.window.depth()
    }

    /// Submitted-but-unreaped operations.
    pub fn in_flight(&self) -> usize {
        self.window.in_flight()
    }

    /// Total operations submitted over the ring's lifetime.
    pub fn submitted(&self) -> u64 {
        self.submitted
    }

    /// Largest in-flight population seen so far (the observable measure of
    /// how much overlap the ring actually achieved).
    pub fn peak_in_flight(&self) -> usize {
        self.window.peak()
    }

    /// Runs `op` eagerly on a private clock starting at its dispatch time
    /// (the [`DispatchWindow`]'s gate) and records the completion.
    fn submit(
        &mut self,
        user_data: u64,
        now: SimTime,
        op: impl FnOnce(&dyn FileSystem, &ActorClock) -> IoResult<usize>,
    ) -> &Cqe {
        let fs = &*self.fs;
        let (dispatched_at, completed_at, result) = self.window.run(now, |clock| op(fs, clock));
        self.submitted += 1;
        self.completed.push(Cqe { user_data, result, dispatched_at, completed_at });
        self.completed.last().expect("just recorded")
    }

    /// Queues a positional write of `data` at `off`, submitted at `now`.
    /// The write's side effects are applied immediately (submission order is
    /// execution order); only its *latency* overlaps with other in-flight
    /// operations. Returns the recorded completion.
    pub fn submit_pwrite(
        &mut self,
        fd: Fd,
        data: &[u8],
        off: u64,
        user_data: u64,
        now: SimTime,
    ) -> &Cqe {
        self.submit(user_data, now, |fs, clock| fs.pwrite(fd, data, off, clock))
    }

    /// Queues an `fsync` of `fd`, submitted at `now`. Same eager-execution,
    /// overlapped-latency contract as [`IoRing::submit_pwrite`].
    pub fn submit_fsync(&mut self, fd: Fd, user_data: u64, now: SimTime) -> &Cqe {
        self.submit(user_data, now, |fs, clock| fs.fsync(fd, clock).map(|()| 0))
    }

    /// Queues a `syncfs` of the whole file system ([`FileSystem::sync`]),
    /// submitted at `now`: one durability barrier for everything written
    /// through this ring, whatever the number of files. Same contract as
    /// [`IoRing::submit_fsync`].
    pub fn submit_sync(&mut self, user_data: u64, now: SimTime) -> &Cqe {
        self.submit(user_data, now, |fs, clock| fs.sync(clock).map(|()| 0))
    }

    /// Reaps every completion: advances `clock` to the latest completion
    /// time and drains the completion queue. After this call the ring is
    /// empty and reusable.
    pub fn wait_all(&mut self, clock: &ActorClock) -> Vec<Cqe> {
        self.window.join(clock);
        std::mem::take(&mut self.completed)
    }

    /// The first error among unreaped completions, if any (checked without
    /// reaping).
    pub fn first_error(&self) -> Option<&IoError> {
        self.completed.iter().find_map(|c| c.result.as_ref().err())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vfs::{MemFs, OpenFlags};

    fn memfs() -> Arc<dyn FileSystem> {
        Arc::new(MemFs::new())
    }

    #[test]
    fn side_effects_are_applied_at_submission() {
        let fs = memfs();
        let clock = ActorClock::new();
        let fd = fs.open("/f", OpenFlags::RDWR | OpenFlags::CREATE, &clock).unwrap();
        let mut ring = IoRing::new(Arc::clone(&fs), 4);
        ring.submit_pwrite(fd, b"visible before reap", 0, 1, clock.now());
        // The write is already in the file even though nothing was reaped.
        let mut buf = [0u8; 19];
        fs.pread(fd, &mut buf, 0, &clock).unwrap();
        assert_eq!(&buf, b"visible before reap");
        let cqes = ring.wait_all(&clock);
        assert_eq!(cqes.len(), 1);
        assert_eq!(*cqes[0].result.as_ref().unwrap(), 19);
    }

    #[test]
    fn wait_all_advances_to_the_last_completion() {
        let fs = memfs();
        let clock = ActorClock::new();
        let fd = fs.open("/f", OpenFlags::RDWR | OpenFlags::CREATE, &clock).unwrap();
        let mut ring = IoRing::new(Arc::clone(&fs), 8);
        for i in 0..8u64 {
            ring.submit_pwrite(fd, &[1u8; 4096], i * 4096, i, clock.now());
        }
        assert_eq!(ring.in_flight(), 8);
        assert_eq!(ring.peak_in_flight(), 8);
        let cqes = ring.wait_all(&clock);
        assert_eq!(ring.in_flight(), 0);
        let last = cqes.iter().map(|c| c.completed_at).max().unwrap();
        assert_eq!(clock.now(), last);
    }

    #[test]
    fn depth_bounds_the_overlap_window() {
        let fs = memfs();
        let clock = ActorClock::new();
        let fd = fs.open("/f", OpenFlags::RDWR | OpenFlags::CREATE, &clock).unwrap();
        let mut ring = IoRing::new(Arc::clone(&fs), 2);
        for i in 0..6u64 {
            ring.submit_pwrite(fd, &[2u8; 4096], i * 4096, i, clock.now());
        }
        assert_eq!(ring.peak_in_flight(), 2);
        assert_eq!(ring.submitted(), 6);
        let cqes = ring.wait_all(&clock);
        // With depth 2, op i (i >= 2) dispatches no earlier than the
        // completion of some earlier op.
        let earliest_done = cqes.iter().map(|c| c.completed_at).min().unwrap();
        assert!(cqes[2].dispatched_at >= earliest_done);
    }

    #[test]
    fn qd1_ring_is_identical_to_serial_io() {
        // The oracle: a depth-1 ring must produce exactly the virtual
        // timeline of back-to-back calls threading one clock.
        let serial_fs = memfs();
        let serial_clock = ActorClock::new();
        let sfd = serial_fs
            .open("/f", OpenFlags::RDWR | OpenFlags::CREATE, &serial_clock)
            .unwrap();
        for i in 0..16u64 {
            serial_fs.pwrite(sfd, &[i as u8; 4096], i * 4096, &serial_clock).unwrap();
        }
        serial_fs.fsync(sfd, &serial_clock).unwrap();

        let ring_fs = memfs();
        let ring_clock = ActorClock::new();
        let rfd = ring_fs.open("/f", OpenFlags::RDWR | OpenFlags::CREATE, &ring_clock).unwrap();
        let mut ring = IoRing::new(Arc::clone(&ring_fs), 1);
        for i in 0..16u64 {
            ring.submit_pwrite(rfd, &[i as u8; 4096], i * 4096, i, ring_clock.now());
        }
        ring.wait_all(&ring_clock);
        ring.submit_fsync(rfd, 99, ring_clock.now());
        ring.wait_all(&ring_clock);

        assert_eq!(serial_clock.now(), ring_clock.now(), "QD=1 must be serial-equivalent");
    }

    #[test]
    fn qd1_ring_is_identical_to_serial_io_on_a_real_device_stack() {
        // Same oracle as above, but over Ext4+SSD so every charged latency
        // (syscall, page cache, device service, journal commit, flush) is in
        // play: the depth-1 ring must reproduce the synchronous drain's
        // virtual timeline to the nanosecond. O_DIRECT writes 1 MiB apart
        // keep the device in its random-write regime.
        use blockdev::{BlockDevice, SsdDevice, SsdProfile};
        use vfs::{Ext4, Ext4Profile};
        let stack = || -> Arc<dyn FileSystem> {
            let ssd = Arc::new(SsdDevice::new(SsdProfile::s4600()));
            Arc::new(Ext4::new("ext4+ssd", ssd as Arc<dyn BlockDevice>, Ext4Profile::default()))
        };
        let flags = OpenFlags::RDWR | OpenFlags::CREATE | OpenFlags::DIRECT;

        let serial_fs = stack();
        let serial_clock = ActorClock::new();
        let sfd = serial_fs.open("/f", flags, &serial_clock).unwrap();
        for i in 0..32u64 {
            serial_fs.pwrite(sfd, &[i as u8; 4096], i << 20, &serial_clock).unwrap();
        }
        serial_fs.fsync(sfd, &serial_clock).unwrap();

        let ring_fs = stack();
        let ring_clock = ActorClock::new();
        let rfd = ring_fs.open("/f", flags, &ring_clock).unwrap();
        let mut ring = IoRing::new(Arc::clone(&ring_fs), 1);
        for i in 0..32u64 {
            ring.submit_pwrite(rfd, &[i as u8; 4096], i << 20, i, ring_clock.now());
        }
        ring.wait_all(&ring_clock);
        ring.submit_fsync(rfd, 99, ring_clock.now());
        ring.wait_all(&ring_clock);

        assert_eq!(serial_clock.now(), ring_clock.now());
        assert!(serial_clock.now() > SimTime::from_millis(1), "the device time must be real");
    }

    #[test]
    fn qd1_sync_is_identical_to_a_serial_syncfs_and_covers_every_file() {
        // The multi-file barrier's oracle: buffered writes to three files,
        // then one `syncfs`. The depth-1 ring reproduces the serial
        // timeline to the nanosecond, pays one journal commit and one device
        // flush for the three files, and all of them survive a power cut.
        use blockdev::{BlockDevice, SsdDevice, SsdProfile};
        use vfs::{Ext4, Ext4Profile};
        let stack = || {
            let ssd = Arc::new(SsdDevice::new(SsdProfile::s4600()));
            let ext4 = Arc::new(Ext4::new(
                "ext4+ssd",
                Arc::clone(&ssd) as Arc<dyn BlockDevice>,
                Ext4Profile::default(),
            ));
            (ssd, ext4)
        };
        let flags = OpenFlags::RDWR | OpenFlags::CREATE;
        let paths = ["/a", "/b", "/c"];

        let (_, serial_fs) = stack();
        let serial_clock = ActorClock::new();
        for (f, path) in paths.iter().enumerate() {
            let fd = serial_fs.open(path, flags, &serial_clock).unwrap();
            for i in 0..8u64 {
                serial_fs.pwrite(fd, &[f as u8 + 1; 4096], i * 4096, &serial_clock).unwrap();
            }
        }
        serial_fs.sync(&serial_clock).unwrap();

        let (ssd, ring_fs) = stack();
        let ring_clock = ActorClock::new();
        let mut ring = IoRing::new(Arc::clone(&ring_fs) as Arc<dyn FileSystem>, 1);
        let mut fds = Vec::new();
        for (f, path) in paths.iter().enumerate() {
            let fd = ring_fs.open(path, flags, &ring_clock).unwrap();
            for i in 0..8u64 {
                ring.submit_pwrite(fd, &[f as u8 + 1; 4096], i * 4096, i, ring_clock.now());
                ring.wait_all(&ring_clock);
            }
            fds.push(fd);
        }
        let cqe = ring.submit_sync(7, ring_clock.now());
        assert_eq!((cqe.user_data, cqe.result.as_ref().ok()), (7, Some(&0)));
        ring.wait_all(&ring_clock);

        assert_eq!(serial_clock.now(), ring_clock.now(), "QD=1 must be serial-equivalent");
        assert_eq!(ring_fs.journal_commit_count(), 1);
        let dev = ssd.stats().snapshot();
        assert_eq!((dev.flushes, dev.bytes_written), (1, 3 * 8 * 4096));
        ring_fs.simulate_power_failure();
        for (f, fd) in fds.into_iter().enumerate() {
            let mut buf = [0u8; 4096];
            ring_fs.pread(fd, &mut buf, 7 * 4096, &ring_clock).unwrap();
            assert_eq!(buf, [f as u8 + 1; 4096]);
        }
    }

    #[test]
    fn sync_overlaps_like_any_other_op_and_surfaces_its_error() {
        use vfs::{FaultLayer, FaultOp, FaultRule, FaultTrigger, Layer};
        let fault = FaultLayer::new(vec![FaultRule::new(FaultOp::Sync, FaultTrigger::OnNth(2))]);
        let fs = fault.wrap(memfs());
        let clock = ActorClock::new();
        let mut ring = IoRing::new(Arc::clone(&fs), 2);
        ring.submit_sync(1, clock.now());
        ring.submit_sync(2, clock.now());
        assert_eq!(ring.peak_in_flight(), 2, "a sync occupies a ring slot like a write");
        assert!(ring.first_error().is_some());
        let cqes = ring.wait_all(&clock);
        assert!(cqes[0].result.is_ok());
        assert!(cqes[1].result.is_err(), "the second syncfs was armed to fail");
        assert_eq!(clock.now(), cqes[0].completed_at);
    }

    #[test]
    fn deeper_rings_overlap_device_time_on_a_parallel_device() {
        use blockdev::{BlockDevice, SsdDevice, SsdProfile};
        use vfs::{Ext4, Ext4Profile};
        let elapsed = |depth: usize| {
            let ssd = Arc::new(SsdDevice::new(SsdProfile::s4600().with_queue_depth(depth)));
            let fs: Arc<dyn FileSystem> = Arc::new(Ext4::new(
                "ext4+ssd",
                ssd as Arc<dyn BlockDevice>,
                Ext4Profile::default(),
            ));
            let clock = ActorClock::new();
            let fd = fs
                .open("/f", OpenFlags::RDWR | OpenFlags::CREATE | OpenFlags::DIRECT, &clock)
                .unwrap();
            let mut ring = IoRing::new(Arc::clone(&fs), depth);
            for i in 0..32u64 {
                ring.submit_pwrite(fd, &[1u8; 4096], i << 20, i, clock.now());
            }
            ring.wait_all(&clock);
            clock.now()
        };
        let qd1 = elapsed(1);
        let qd8 = elapsed(8);
        assert!(qd8 * 4 < qd1, "expected ~8x overlap: qd8 {qd8} vs qd1 {qd1}");
    }

    #[test]
    fn errors_surface_in_the_cqe_not_as_panics() {
        let fs = memfs();
        let clock = ActorClock::new();
        // Write through a descriptor that was never opened.
        let mut ring = IoRing::new(Arc::clone(&fs), 2);
        ring.submit_pwrite(Fd(777), b"nope", 0, 5, clock.now());
        assert!(ring.first_error().is_some());
        let cqes = ring.wait_all(&clock);
        assert_eq!(cqes[0].user_data, 5);
        assert!(cqes[0].result.is_err());
    }

    #[test]
    fn ring_is_reusable_after_reap() {
        let fs = memfs();
        let clock = ActorClock::new();
        let fd = fs.open("/f", OpenFlags::RDWR | OpenFlags::CREATE, &clock).unwrap();
        let mut ring = IoRing::new(Arc::clone(&fs), 4);
        ring.submit_pwrite(fd, &[1u8; 64], 0, 0, clock.now());
        assert_eq!(ring.wait_all(&clock).len(), 1);
        ring.submit_fsync(fd, 1, clock.now());
        ring.submit_pwrite(fd, &[2u8; 64], 64, 2, clock.now());
        let cqes = ring.wait_all(&clock);
        assert_eq!(cqes.len(), 2);
        assert_eq!(ring.submitted(), 3);
    }
}
