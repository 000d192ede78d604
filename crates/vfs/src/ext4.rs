use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use blockdev::BlockDevice;
use simclock::{ActorClock, DispatchWindow, SimTime};

use crate::extent::{page_spans, PageSpan, SlabFile, SlabMap};
use crate::namespace::{Inode, Namespace};
use crate::{
    Fd, FileSystem, IoResult, KernelCosts, Metadata, OpenFlags, PageCache, PageCacheConfig,
};

/// Tuning of the simulated Ext4.
#[derive(Debug, Clone)]
pub struct Ext4Profile {
    /// Kernel path costs.
    pub costs: KernelCosts,
    /// Page-cache configuration.
    pub cache: PageCacheConfig,
    /// CPU + sequential-journal-write cost of one jbd2 transaction commit
    /// (the device flush is charged separately through the device).
    pub journal_commit: SimTime,
    /// Pages per extent slab; file pages map onto contiguous device slabs so
    /// sequential file I/O stays sequential on the device.
    pub slab_pages: u64,
}

impl Default for Ext4Profile {
    fn default() -> Self {
        Ext4Profile {
            costs: KernelCosts::default_model(),
            cache: PageCacheConfig::default(),
            journal_commit: SimTime::from_micros(15),
            slab_pages: 256,
        }
    }
}

type Ext4Inode = Inode<SlabFile>;

/// Simulated Ext4 over any block device.
///
/// Reproduces the cost structure of the kernel's default file system as used
/// throughout the paper's evaluation (Table IV rows "SSD" and
/// "DM-WriteCache"): a volatile write-back page cache in front of the device,
/// lazy extent allocation in contiguous slabs, and a jbd2-style journal whose
/// commit (plus a device flush) is what makes `fsync` expensive.
///
/// A page no write ever reached on the device — a hole, a page of an
/// allocated slab nothing wrote, a page of a recycled slab, a page a
/// truncation cut off — reads as zeros with no device I/O, as ext4's
/// unwritten extents do; a shrinking truncation zeroes the tail of the page
/// the cut falls in, so a file that grows again reads zeros there.
///
/// Instantiate it over an [`SsdDevice`](blockdev::SsdDevice) for the plain
/// SSD baseline or over a [`DmWriteCacheDev`](blockdev::DmWriteCacheDev) for
/// the DM-WriteCache baseline — the file-system code is identical, exactly as
/// in the paper.
pub struct Ext4 {
    name: String,
    dev: Arc<dyn BlockDevice>,
    profile: Ext4Profile,
    cache: PageCache,
    ns: Namespace<SlabFile>,
    slabs: SlabMap,
    journal_commits: AtomicU64,
}

impl std::fmt::Debug for Ext4 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ext4")
            .field("name", &self.name)
            .field("files", &self.ns.len())
            .finish()
    }
}

impl Ext4 {
    /// Creates an Ext4 instance named `name` over `dev`.
    pub fn new(name: impl Into<String>, dev: Arc<dyn BlockDevice>, profile: Ext4Profile) -> Self {
        let page_size = profile.cache.page_size as u64;
        Ext4 {
            name: name.into(),
            cache: PageCache::new(profile.cache.clone()),
            ns: Namespace::new(0xE4),
            slabs: SlabMap::new(profile.slab_pages, page_size, dev.capacity()),
            dev,
            profile,
            journal_commits: AtomicU64::new(0),
        }
    }

    /// The end of an inode nothing refers to any more: drops its cached
    /// pages and returns its slabs to the allocator.
    fn retire(&self, inode: &Ext4Inode) {
        self.cache.drop_from(inode.ino, 0);
        self.slabs.reclaim(&inode.data);
    }

    /// Number of jbd2 commits performed so far.
    pub fn journal_commit_count(&self) -> u64 {
        self.journal_commits.load(Ordering::Relaxed)
    }

    /// The page cache (for stats inspection).
    pub fn page_cache(&self) -> &PageCache {
        &self.cache
    }

    /// The backing device.
    pub fn device(&self) -> &Arc<dyn BlockDevice> {
        &self.dev
    }

    fn page_size(&self) -> u64 {
        self.profile.cache.page_size as u64
    }

    /// Maps a file page to its device offset, allocating a slab on demand.
    fn map_alloc(&self, inode: &Ext4Inode, page: u64) -> IoResult<u64> {
        self.slabs.map_alloc(&inode.data, page)
    }

    fn writeback_evicted(&self, evicted: Vec<crate::pagecache::EvictedPage>, clock: &ActorClock) {
        for e in evicted {
            // The inode may have been retired concurrently; its pages are
            // dropped from the cache then, so a lookup miss means skip.
            let target = self.ns.read().by_ino(e.ino).cloned();
            if let Some(inode) = target {
                if let Ok(dev_off) = self.map_alloc(&inode, e.page) {
                    self.dev.write(dev_off, &e.data, clock);
                }
            }
        }
    }

    fn journal_commit(&self, clock: &ActorClock) {
        clock.advance(self.profile.journal_commit);
        self.dev.flush(clock);
        self.journal_commits.fetch_add(1, Ordering::Relaxed);
    }

    /// Writeback of `fsync`, `O_SYNC` and `sync`: issues the dirty pages in
    /// device-offset order (elevator), one request per page, as a queued
    /// batch — the device's [`queue_depth`](BlockDevice::queue_depth)
    /// requests in flight, each on its own clock, the caller's joining the
    /// last completion. On a one-channel device that is one write after the
    /// other on the caller's clock.
    fn write_back(&self, mut targets: Vec<(u64, Vec<u8>)>, clock: &ActorClock) {
        targets.sort_by_key(|(off, _)| *off);
        let mut queue = DispatchWindow::new(self.dev.queue_depth());
        for (off, data) in targets {
            queue.run(clock.now(), |op| self.dev.write(off, &data, op));
        }
        queue.join(clock);
    }

    /// The durability barrier over the dirty pages of `only`, or of every
    /// live inode: maps each to its device offset (allocating slabs) and
    /// marks it clean, writes them back, commits the journal.
    ///
    /// # Errors
    ///
    /// [`IoError::NoSpace`] when a page has no room on the device: nothing
    /// was written and every page is still dirty.
    fn barrier(&self, only: Option<&Ext4Inode>, clock: &ActorClock) -> IoResult<()> {
        let targets = match only {
            Some(inode) => self
                .cache
                .take_dirty(Some(inode.ino), |_, page| self.map_alloc(inode, page).map(Some)),
            None => {
                let files = self.ns.read();
                // An inode retired since had its last descriptor closed:
                // nobody can ask for its pages again.
                self.cache.take_dirty(None, |ino, page| {
                    files.by_ino(ino).map(|inode| self.map_alloc(inode, page)).transpose()
                })
            }
        }?;
        self.write_back(targets, clock);
        self.journal_commit(clock);
        Ok(())
    }

    fn fsync_inode(&self, inode: &Ext4Inode, clock: &ActorClock) -> IoResult<()> {
        self.barrier(Some(inode), clock)?;
        inode.data.meta_dirty.store(false, Ordering::Release);
        Ok(())
    }

    /// The page as the device holds it: zeros, with no I/O, if no write
    /// ever reached it.
    fn read_page_from_device(&self, inode: &Ext4Inode, page: u64, clock: &ActorClock) -> Vec<u8> {
        let mut buf = vec![0u8; self.page_size() as usize];
        if let Some(off) = self.slabs.map_existing(&inode.data, page) {
            self.dev.read(off, &mut buf, clock);
        }
        buf
    }

    fn write_direct(
        &self,
        inode: &Ext4Inode,
        data: &[u8],
        off: u64,
        clock: &ActorClock,
    ) -> IoResult<usize> {
        let ps = self.page_size();
        for PageSpan { page, in_page, pos, n } in page_spans(off, data.len(), ps) {
            if n == ps as usize {
                let dev_off = self.map_alloc(inode, page)?;
                self.dev.write(dev_off, &data[pos..pos + n], clock);
            } else {
                // Unaligned O_DIRECT tail: device-level read-modify-write,
                // read before `map_alloc` marks the page written.
                let mut old = self.read_page_from_device(inode, page, clock);
                let dev_off = self.map_alloc(inode, page)?;
                old[in_page..in_page + n].copy_from_slice(&data[pos..pos + n]);
                self.dev.write(dev_off, &old, clock);
            }
            // Keep the page cache coherent, as the kernel invalidates/updates
            // overlapping cached pages on direct I/O.
            self.cache.update(inode.ino, page, in_page, &data[pos..pos + n]);
        }
        Ok(data.len())
    }

    fn write_buffered(
        &self,
        inode: &Ext4Inode,
        data: &[u8],
        off: u64,
        clock: &ActorClock,
    ) -> IoResult<usize> {
        let ps = self.page_size();
        for PageSpan { page, in_page, pos, n } in page_spans(off, data.len(), ps) {
            clock.advance(self.profile.costs.page_lookup);
            if !self.cache.update(inode.ino, page, in_page, &data[pos..pos + n]) {
                // Page miss. A full overwrite needs no device read, nor does
                // a page no write reached (one beyond EOF among them).
                let mut fresh = if n == ps as usize {
                    vec![0u8; ps as usize]
                } else {
                    self.read_page_from_device(inode, page, clock)
                };
                fresh[in_page..in_page + n].copy_from_slice(&data[pos..pos + n]);
                let evicted = self.cache.insert(inode.ino, page, &fresh, true);
                self.writeback_evicted(evicted, clock);
            }
        }
        clock.advance(self.profile.costs.copy(data.len() as u64));
        Ok(data.len())
    }

    /// Sets the inode's length (`ftruncate`, an `O_TRUNC` open). A shrink
    /// drops the cached pages wholly past the cut, keeping the others and
    /// their dirt, and zeroes the tail of the page the cut falls in.
    fn truncate(&self, inode: &Ext4Inode, len: u64, clock: &ActorClock) {
        let ps = self.page_size();
        self.cache.drop_from(inode.ino, len.div_ceil(ps));
        let Some((page, tail)) = self.slabs.truncate(&inode.data, len) else { return };
        if !self.cache.update(inode.ino, page, tail, &vec![0u8; ps as usize - tail])
            && self.slabs.map_existing(&inode.data, page).is_some()
        {
            let mut fresh = self.read_page_from_device(inode, page, clock);
            fresh[tail..].fill(0);
            let evicted = self.cache.insert(inode.ino, page, &fresh, true);
            self.writeback_evicted(evicted, clock);
        }
    }
}

impl FileSystem for Ext4 {
    fn name(&self) -> &str {
        &self.name
    }

    fn open(&self, path: &str, flags: OpenFlags, clock: &ActorClock) -> IoResult<Fd> {
        clock.advance(self.profile.costs.syscall + self.profile.costs.fs_overhead);
        let opened = self.ns.open(path, flags, SlabFile::new)?;
        if opened.truncate {
            self.truncate(&opened.inode, 0, clock);
        }
        Ok(opened.fd)
    }

    fn close(&self, fd: Fd, clock: &ActorClock) -> IoResult<()> {
        clock.advance(self.profile.costs.syscall);
        self.ns.close(fd, |inode| self.retire(inode))
    }

    fn pread(&self, fd: Fd, buf: &mut [u8], off: u64, clock: &ActorClock) -> IoResult<usize> {
        let inode = &self.ns.readable(fd)?;
        clock.advance(self.profile.costs.syscall + self.profile.costs.fs_overhead);
        let size = inode.data.len();
        if off >= size {
            return Ok(0);
        }
        let total = buf.len().min((size - off) as usize);
        for PageSpan { page, in_page, pos, n } in page_spans(off, total, self.page_size()) {
            clock.advance(self.profile.costs.page_lookup);
            if !self.cache.read(inode.ino, page, in_page, &mut buf[pos..pos + n]) {
                let fresh = self.read_page_from_device(inode, page, clock);
                buf[pos..pos + n].copy_from_slice(&fresh[in_page..in_page + n]);
                let evicted = self.cache.insert(inode.ino, page, &fresh, false);
                self.writeback_evicted(evicted, clock);
            }
        }
        clock.advance(self.profile.costs.copy(total as u64));
        Ok(total)
    }

    fn pwrite(&self, fd: Fd, data: &[u8], off: u64, clock: &ActorClock) -> IoResult<usize> {
        let (inode, flags) = &self.ns.writable(fd)?;
        clock.advance(self.profile.costs.syscall + self.profile.costs.fs_overhead);
        let n = if flags.contains(OpenFlags::DIRECT) {
            self.write_direct(inode, data, off, clock)?
        } else {
            self.write_buffered(inode, data, off, clock)?
        };
        let end = off + n as u64;
        if inode.data.size.fetch_max(end, Ordering::AcqRel) < end {
            inode.data.meta_dirty.store(true, Ordering::Release);
        }
        if flags.contains(OpenFlags::SYNC) {
            self.fsync_inode(inode, clock)?;
        }
        Ok(n)
    }

    fn fsync(&self, fd: Fd, clock: &ActorClock) -> IoResult<()> {
        let inode = self.ns.inode(fd)?;
        clock.advance(self.profile.costs.syscall);
        self.fsync_inode(&inode, clock)
    }

    fn ftruncate(&self, fd: Fd, len: u64, clock: &ActorClock) -> IoResult<()> {
        let (inode, _) = self.ns.writable(fd)?;
        clock.advance(self.profile.costs.syscall + self.profile.costs.fs_overhead);
        self.truncate(&inode, len, clock);
        Ok(())
    }

    fn fstat(&self, fd: Fd, clock: &ActorClock) -> IoResult<Metadata> {
        clock.advance(self.profile.costs.syscall);
        self.ns.fstat(fd, SlabFile::len)
    }

    fn stat(&self, path: &str, clock: &ActorClock) -> IoResult<Metadata> {
        clock.advance(self.profile.costs.syscall);
        self.ns.stat(path, SlabFile::len)
    }

    fn unlink(&self, path: &str, clock: &ActorClock) -> IoResult<()> {
        clock.advance(self.profile.costs.syscall + self.profile.costs.fs_overhead);
        self.ns.unlink(path, |inode| self.retire(inode))
    }

    fn rename(&self, from: &str, to: &str, clock: &ActorClock) -> IoResult<()> {
        clock.advance(self.profile.costs.syscall + self.profile.costs.fs_overhead);
        self.ns.rename(from, to, |inode| self.retire(inode))
    }

    fn list_dir(&self, dir: &str, clock: &ActorClock) -> IoResult<Vec<String>> {
        clock.advance(self.profile.costs.syscall + self.profile.costs.fs_overhead);
        Ok(self.ns.list_dir(dir))
    }

    fn sync(&self, clock: &ActorClock) -> IoResult<()> {
        clock.advance(self.profile.costs.syscall);
        self.barrier(None, clock)
    }

    fn simulate_power_failure(&self) {
        // The page cache is volatile: every un-synced page is gone. Metadata
        // is assumed journaled (the namespace survives); the device keeps
        // whatever reached it.
        self.cache.drop_all();
    }

    fn synchronous_durability(&self) -> bool {
        false // requires O_DIRECT|O_SYNC per fd, not a design default
    }

    fn durable_linearizability(&self) -> bool {
        false // reads can observe page-cache data that is not yet durable
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::IoError;
    use blockdev::{SsdDevice, SsdProfile};
    use parking_lot::Mutex;

    fn fs() -> (ActorClock, Arc<SsdDevice>, Ext4) {
        let ssd = Arc::new(SsdDevice::new(SsdProfile::s4600()));
        let ext4 =
            Ext4::new("ext4+ssd", Arc::clone(&ssd) as Arc<dyn BlockDevice>, Ext4Profile::default());
        (ActorClock::new(), ssd, ext4)
    }

    fn small_cache_fs(capacity_pages: usize) -> (ActorClock, Arc<SsdDevice>, Ext4) {
        let ssd = Arc::new(SsdDevice::new(SsdProfile::s4600()));
        let profile = Ext4Profile {
            cache: PageCacheConfig { capacity_pages, ..PageCacheConfig::default() },
            ..Ext4Profile::default()
        };
        let ext4 = Ext4::new("ext4+ssd", Arc::clone(&ssd) as Arc<dyn BlockDevice>, profile);
        (ActorClock::new(), ssd, ext4)
    }

    #[test]
    fn write_read_round_trip_buffered() {
        let (c, _ssd, fs) = fs();
        let fd = fs.open("/f", OpenFlags::RDWR | OpenFlags::CREATE, &c).unwrap();
        let data: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();
        assert_eq!(fs.pwrite(fd, &data, 100, &c).unwrap(), data.len());
        let mut buf = vec![0u8; data.len()];
        assert_eq!(fs.pread(fd, &mut buf, 100, &c).unwrap(), data.len());
        assert_eq!(buf, data);
    }

    #[test]
    fn buffered_write_touches_no_device_until_fsync() {
        let (c, ssd, fs) = fs();
        let fd = fs.open("/f", OpenFlags::RDWR | OpenFlags::CREATE, &c).unwrap();
        fs.pwrite(fd, &[1u8; 8192], 0, &c).unwrap();
        assert_eq!(ssd.stats().snapshot().bytes_written, 0);
        fs.fsync(fd, &c).unwrap();
        let snap = ssd.stats().snapshot();
        assert_eq!(snap.bytes_written, 8192);
        assert!(snap.flushes >= 1);
    }

    #[test]
    fn fsync_write_combining() {
        let (c, ssd, fs) = fs();
        let fd = fs.open("/f", OpenFlags::RDWR | OpenFlags::CREATE, &c).unwrap();
        // 100 small writes into the same page combine into one device write.
        for i in 0..100u64 {
            fs.pwrite(fd, &[i as u8; 8], (i % 32) * 8, &c).unwrap();
        }
        fs.fsync(fd, &c).unwrap();
        assert_eq!(ssd.stats().snapshot().bytes_written, 4096);
    }

    #[test]
    fn o_sync_writes_reach_the_device_immediately() {
        let (c, ssd, fs) = fs();
        let fd = fs
            .open("/f", OpenFlags::RDWR | OpenFlags::CREATE | OpenFlags::SYNC, &c)
            .unwrap();
        fs.pwrite(fd, &[7u8; 4096], 0, &c).unwrap();
        let snap = ssd.stats().snapshot();
        assert_eq!(snap.bytes_written, 4096);
        assert!(snap.flushes >= 1);
    }

    #[test]
    fn o_direct_bypasses_page_cache() {
        let (c, ssd, fs) = fs();
        let fd = fs
            .open("/f", OpenFlags::RDWR | OpenFlags::CREATE | OpenFlags::DIRECT, &c)
            .unwrap();
        fs.pwrite(fd, &[3u8; 4096], 0, &c).unwrap();
        assert_eq!(ssd.stats().snapshot().bytes_written, 4096);
        // Content is still readable (read goes to the device).
        let mut buf = [0u8; 4096];
        fs.pread(fd, &mut buf, 0, &c).unwrap();
        assert_eq!(buf[0], 3);
    }

    #[test]
    fn crash_loses_unsynced_data_but_keeps_synced() {
        let (c, _ssd, fs) = fs();
        let fd = fs.open("/f", OpenFlags::RDWR | OpenFlags::CREATE, &c).unwrap();
        fs.pwrite(fd, &[1u8; 4096], 0, &c).unwrap();
        fs.fsync(fd, &c).unwrap();
        fs.pwrite(fd, &[2u8; 4096], 0, &c).unwrap(); // not synced
        fs.simulate_power_failure();
        let mut buf = [0u8; 4096];
        fs.pread(fd, &mut buf, 0, &c).unwrap();
        assert_eq!(buf[0], 1, "synced version must survive, unsynced must not");
    }

    #[test]
    fn sequential_file_writes_are_sequential_on_device() {
        let (c, ssd, fs) = fs();
        let fd = fs.open("/f", OpenFlags::RDWR | OpenFlags::CREATE, &c).unwrap();
        for i in 0..64u64 {
            fs.pwrite(fd, &[i as u8; 4096], i * 4096, &c).unwrap();
        }
        fs.fsync(fd, &c).unwrap();
        let snap = ssd.stats().snapshot();
        assert!(snap.seq_writes >= 60, "expected mostly sequential writeback, got {snap:?}");
    }

    #[test]
    fn eviction_throttles_buffered_writes_to_device() {
        let (c, ssd, fs) = small_cache_fs(16);
        let fd = fs.open("/big", OpenFlags::RDWR | OpenFlags::CREATE, &c).unwrap();
        for i in 0..256u64 {
            fs.pwrite(fd, &[i as u8; 4096], i * 4096, &c).unwrap();
        }
        assert!(
            ssd.stats().snapshot().bytes_written > 0,
            "page-cache pressure must force writeback"
        );
    }

    #[test]
    fn sparse_read_returns_zeroes_without_device_io() {
        let (c, ssd, fs) = fs();
        let fd = fs.open("/sparse", OpenFlags::RDWR | OpenFlags::CREATE, &c).unwrap();
        fs.pwrite(fd, b"end", 1 << 20, &c).unwrap();
        let mut buf = [9u8; 64];
        fs.pread(fd, &mut buf, 4096, &c).unwrap();
        assert_eq!(buf, [0u8; 64]);
        assert_eq!(ssd.stats().snapshot().bytes_read, 0);
    }

    #[test]
    fn journal_commits_happen_per_fsync() {
        let (c, _ssd, fs) = fs();
        let fd = fs.open("/j", OpenFlags::RDWR | OpenFlags::CREATE, &c).unwrap();
        for _ in 0..5 {
            fs.pwrite(fd, &[0u8; 512], 0, &c).unwrap();
            fs.fsync(fd, &c).unwrap();
        }
        assert_eq!(fs.journal_commit_count(), 5);
    }

    #[test]
    fn sync_is_one_commit_for_every_file_open_or_named() {
        let (c, ssd, fs) = fs();
        let flags = OpenFlags::RDWR | OpenFlags::CREATE;
        let fds: Vec<Fd> = ["/a", "/b", "/anon", "/gone"]
            .iter()
            .map(|p| fs.open(p, flags, &c).unwrap())
            .collect();
        for (i, &fd) in fds.iter().enumerate() {
            fs.pwrite(fd, &[i as u8 + 1; 8192], 0, &c).unwrap();
        }
        // An anonymous temporary file: the name goes, the descriptor stays
        // and keeps writing. A file closed and then unlinked is gone for good.
        fs.unlink("/anon", &c).unwrap();
        fs.pwrite(fds[2], &[9u8; 4096], 4096, &c).unwrap();
        fs.close(fds[3], &c).unwrap();
        fs.unlink("/gone", &c).unwrap();
        fs.sync(&c).unwrap();
        let snap = ssd.stats().snapshot();
        assert_eq!((fs.journal_commit_count(), snap.flushes), (1, 1));
        assert_eq!(snap.bytes_written, 3 * 8192, "three live files, two pages each");
        assert_eq!(fs.page_cache().dirty_count(), 0);
        fs.simulate_power_failure(); // every page now comes from the device
        for (i, &fd) in fds[..3].iter().enumerate() {
            let mut buf = [0u8; 8192];
            fs.pread(fd, &mut buf, 0, &c).unwrap();
            let tail = if i == 2 { 9 } else { i as u8 + 1 };
            assert!(buf[..4096] == [i as u8 + 1; 4096] && buf[4096..] == [tail; 4096], "file {i}");
        }
        // The last close retires the anonymous file and frees its slab.
        assert_eq!((fs.ns.read().live(), fs.slabs.free_count()), (3, 0));
        fs.close(fds[2], &c).unwrap();
        assert_eq!((fs.ns.read().live(), fs.slabs.free_count()), (2, 1));
    }

    #[test]
    fn unlinked_open_file_survives_eviction_of_its_dirty_pages() {
        let (c, _ssd, fs) = small_cache_fs(8);
        let flags = OpenFlags::RDWR | OpenFlags::CREATE;
        let anon = fs.open("/anon", flags, &c).unwrap();
        fs.pwrite(anon, &[5u8; 4096], 0, &c).unwrap();
        fs.unlink("/anon", &c).unwrap();
        fs.pwrite(anon, &[6u8; 4096], 4096, &c).unwrap();
        let other = fs.open("/other", flags, &c).unwrap();
        for page in 0..32u64 {
            fs.pwrite(other, &[1u8; 4096], page * 4096, &c).unwrap();
        }
        let mut buf = [0u8; 8192];
        assert_eq!(fs.pread(anon, &mut buf, 0, &c).unwrap(), 8192);
        assert!(buf[..4096] == [5; 4096] && buf[4096..] == [6; 4096], "{:?}", [buf[0], buf[4096]]);
    }

    #[test]
    fn eviction_writeback_finds_its_inode_among_many() {
        let (c, ssd, fs) = small_cache_fs(8);
        let flags = OpenFlags::RDWR | OpenFlags::CREATE;
        for i in 0..64u64 {
            let fd = fs.open(&format!("/f{i}"), flags, &c).unwrap();
            fs.pwrite(fd, &[i as u8; 4096], 0, &c).unwrap();
        }
        // 64 dirty pages through an 8-page cache: all but the residents were
        // evicted, each written back through the inode index.
        let written = ssd.stats().snapshot().bytes_written;
        assert!(written >= (64 - 9) * 4096, "evicted pages must reach the device: {written}");
        let fd = fs.open("/f0", OpenFlags::RDONLY, &c).unwrap();
        let mut buf = [1u8; 4096];
        fs.pread(fd, &mut buf, 0, &c).unwrap();
        assert_eq!(buf, [0u8; 4096], "f0's page of zeroes came back from the device");
    }

    #[test]
    fn no_space_when_device_full() {
        let ssd = Arc::new(SsdDevice::new(SsdProfile::s4600().with_capacity(1 << 20)));
        let fs = Ext4::new("tiny", ssd as Arc<dyn BlockDevice>, Ext4Profile::default());
        let c = ActorClock::new();
        let fd = fs
            .open("/f", OpenFlags::RDWR | OpenFlags::CREATE | OpenFlags::DIRECT, &c)
            .unwrap();
        let res = (0..16u64)
            .map(|i| fs.pwrite(fd, &[0u8; 4096], i * (2 << 20), &c))
            .collect::<Result<Vec<_>, _>>();
        assert!(matches!(res, Err(IoError::NoSpace)));
    }

    /// Forwards `capacity/read/write/flush/stats` and nothing else, as a
    /// tracing wrapper would, recording each write's offset and the interval
    /// of the clock it ran on.
    struct Recorder {
        inner: SsdDevice,
        writes: Mutex<Vec<(u64, SimTime, SimTime)>>,
    }

    impl BlockDevice for Recorder {
        fn capacity(&self) -> u64 {
            self.inner.capacity()
        }
        fn read(&self, off: u64, buf: &mut [u8], clock: &ActorClock) {
            self.inner.read(off, buf, clock)
        }
        fn write(&self, off: u64, data: &[u8], clock: &ActorClock) {
            let start = clock.now();
            self.inner.write(off, data, clock);
            self.writes.lock().push((off, start, clock.now()));
        }
        fn flush(&self, clock: &ActorClock) {
            self.inner.flush(clock)
        }
        fn stats(&self) -> &blockdev::DeviceStats {
            self.inner.stats()
        }
    }

    /// How the scattered pages reach the device.
    #[derive(Debug, Clone, Copy)]
    enum Via {
        Fsync,
        /// Half of the pages in a second file, then `sync`.
        Sync,
        /// The last page through an `O_SYNC` descriptor of the same file.
        OSync,
    }

    /// What one barrier did: its (start, end), the device's writes, the
    /// device's counters and the file content after a power failure.
    struct Barrier {
        span: (SimTime, SimTime),
        writes: Vec<(u64, SimTime, SimTime)>,
        stats: blockdev::DeviceStatsSnapshot,
        content: Vec<u8>,
    }

    const SCATTERED: u64 = 21;

    /// Dirties `SCATTERED` pages 1 MiB apart (one per slab, so every device
    /// write is random) in scrambled order and makes them durable `via` a
    /// barrier on an SSD of `depth` channels.
    fn scattered_barrier(depth: usize, via: Via) -> Barrier {
        let ssd = SsdDevice::new(SsdProfile::s4600().with_queue_depth(depth));
        let dev = Arc::new(Recorder { inner: ssd, writes: Mutex::new(Vec::new()) });
        let fs =
            Ext4::new("ext4+ssd", Arc::clone(&dev) as Arc<dyn BlockDevice>, Ext4Profile::default());
        let c = ActorClock::new();
        let flags = OpenFlags::RDWR | OpenFlags::CREATE;
        let f = fs.open("/f", flags, &c).unwrap();
        let g = fs.open("/g", flags, &c).unwrap();
        let o_sync = fs.open("/f", flags | OpenFlags::SYNC, &c).unwrap();
        let page = |i: u64| vec![i as u8 + 1; 4096];
        let spot = |i: u64| (i * 8 % SCATTERED) << 20;
        let last = SCATTERED - 1;
        let buffered = if matches!(via, Via::OSync) { last } else { SCATTERED };
        let file_of = |i: u64| if matches!(via, Via::Sync) && i % 2 == 1 { g } else { f };
        for i in 0..buffered {
            fs.pwrite(file_of(i), &page(i), spot(i), &c).unwrap();
        }
        let start = c.now();
        match via {
            Via::Fsync => fs.fsync(f, &c),
            Via::Sync => fs.sync(&c),
            Via::OSync => fs.pwrite(o_sync, &page(last), spot(last), &c).map(|_| ()),
        }
        .unwrap();
        let span = (start, c.now());
        assert_eq!(fs.page_cache().dirty_count(), 0);
        fs.simulate_power_failure();
        let mut content = Vec::new();
        for i in 0..SCATTERED {
            let mut buf = vec![0u8; 4096];
            fs.pread(file_of(i), &mut buf, spot(i), &c).unwrap();
            assert_eq!(buf, page(i), "page {i} {via:?} depth {depth}");
            content.extend(buf);
        }
        let writes = dev.writes.lock().clone();
        Barrier { span, writes, stats: dev.stats().snapshot(), content }
    }

    #[test]
    fn one_channel_writeback_is_the_serial_loop() {
        // The oracle: sorted by device offset, one write after the other on
        // the caller's clock, then the commit and the flush.
        let profile = Ext4Profile::default();
        for via in [Via::Fsync, Via::Sync, Via::OSync] {
            let run = scattered_barrier(1, via);
            assert_eq!(run.writes.len() as u64, SCATTERED, "{via:?}");
            let twin = SsdDevice::new(SsdProfile::s4600());
            let serial = ActorClock::starting_at(run.writes[0].1);
            let mut offsets: Vec<u64> = run.writes.iter().map(|w| w.0).collect();
            offsets.sort_unstable();
            let expected: Vec<_> = offsets
                .into_iter()
                .map(|off| {
                    let start = serial.now();
                    twin.write(off, &[0u8; 4096], &serial);
                    (off, start, serial.now())
                })
                .collect();
            assert_eq!(run.writes, expected, "{via:?}: call order and each call's interval");
            serial.advance(profile.journal_commit);
            twin.flush(&serial);
            assert_eq!(run.span.1, serial.now(), "{via:?}");
            if !matches!(via, Via::OSync) {
                assert_eq!(run.writes[0].1, run.span.0 + profile.costs.syscall, "{via:?}");
            }
            let twin = twin.stats().snapshot();
            assert_eq!(
                (run.stats.seq_writes, run.stats.rand_writes, run.stats.flushes),
                (twin.seq_writes, twin.rand_writes, 1),
                "{via:?}"
            );
        }
    }

    #[test]
    fn writeback_keeps_every_channel_of_the_device_busy() {
        let profile = Ext4Profile::default();
        let ssd = SsdProfile::s4600();
        for via in [Via::Fsync, Via::Sync, Via::OSync] {
            let serial = scattered_barrier(1, via);
            let run = scattered_barrier(8, via);
            let barrier_at = run.writes[0].1;
            assert!(run.writes[..8].iter().all(|w| w.1 == barrier_at), "{via:?}: 8 at once");
            assert!(run.writes.windows(2).all(|w| w[0].0 < w[1].0), "{via:?}: elevator order");
            let waves = SCATTERED.div_ceil(8);
            let written = run.writes.iter().map(|w| w.2).max().unwrap();
            assert_eq!(written, barrier_at + ssd.rand_write_4k * waves, "{via:?}");
            assert_eq!(run.span.1, written + profile.journal_commit + ssd.flush, "{via:?}");
            assert_eq!(barrier_at, serial.writes[0].1, "{via:?}: the same work before it");
            // The same work, overlapped.
            assert_eq!(run.stats, serial.stats, "{via:?}");
            assert_eq!(run.content, serial.content, "{via:?}");
            let offsets = |b: &Barrier| b.writes.iter().map(|w| w.0).collect::<Vec<_>>();
            assert_eq!(offsets(&run), offsets(&serial), "{via:?}");
        }
    }

    #[test]
    fn failed_writeback_keeps_its_pages_dirty() {
        // Two 1 MiB slabs of room, dirty pages in three: delayed allocation
        // runs out at the barrier.
        for whole_fs in [false, true] {
            let ssd = Arc::new(SsdDevice::new(SsdProfile::s4600().with_capacity(2 << 20)));
            let dev = Arc::clone(&ssd) as Arc<dyn BlockDevice>;
            let fs = Ext4::new("tiny", dev, Ext4Profile::default());
            let c = ActorClock::new();
            let fd = fs.open("/f", OpenFlags::RDWR | OpenFlags::CREATE, &c).unwrap();
            for slab in 0..3u64 {
                fs.pwrite(fd, &[slab as u8 + 1; 4096], slab << 20, &c).unwrap();
            }
            let barrier = || if whole_fs { fs.sync(&c) } else { fs.fsync(fd, &c) };
            for attempt in 0..2 {
                assert!(matches!(barrier(), Err(IoError::NoSpace)), "attempt {attempt}");
                assert_eq!(fs.page_cache().dirty_count(), 3, "attempt {attempt}");
            }
            assert_eq!((fs.journal_commit_count(), ssd.stats().snapshot().bytes_written), (0, 0));
            // Nothing was acknowledged, and nothing pretends to have been.
            fs.simulate_power_failure();
            for slab in 0..3u64 {
                let mut buf = [9u8; 4096];
                assert_eq!(fs.pread(fd, &mut buf, slab << 20, &c).unwrap(), 4096);
                assert_eq!(buf, [0u8; 4096], "slab {slab}");
            }
        }
    }

    #[test]
    fn truncate_then_read_is_bounded() {
        let (c, _ssd, fs) = fs();
        let fd = fs.open("/t", OpenFlags::RDWR | OpenFlags::CREATE, &c).unwrap();
        fs.pwrite(fd, &[5u8; 8192], 0, &c).unwrap();
        fs.ftruncate(fd, 100, &c).unwrap();
        let mut buf = [0u8; 8192];
        assert_eq!(fs.pread(fd, &mut buf, 0, &c).unwrap(), 100);
        assert_eq!(fs.fstat(fd, &c).unwrap().size, 100);
    }

    #[test]
    fn a_shrinking_truncate_keeps_the_dirty_pages_below_the_cut() {
        let (c, _ssd, fs) = fs();
        let fd = fs.open("/t", OpenFlags::RDWR | OpenFlags::CREATE, &c).unwrap();
        let data: Vec<u8> = (0..8192u32).map(|i| (i % 251) as u8 + 1).collect();
        fs.pwrite(fd, &data, 0, &c).unwrap();
        fs.ftruncate(fd, 6000, &c).unwrap();
        for synced in [false, true] {
            let mut buf = vec![0u8; 8192];
            assert_eq!(fs.pread(fd, &mut buf, 0, &c).unwrap(), 6000, "synced {synced}");
            assert_eq!(buf[..6000], data[..6000], "synced {synced}");
            fs.fsync(fd, &c).unwrap();
            fs.simulate_power_failure();
        }
    }

    #[test]
    fn a_shrunk_file_that_grows_again_reads_zeros_where_it_was_cut() {
        // Cut by `ftruncate` (the cut page cached, or on the device only) or
        // by an `O_TRUNC` open.
        for (o_trunc, uncached) in [(false, false), (false, true), (true, false)] {
            let what = format!("O_TRUNC {o_trunc}, uncached {uncached}");
            let (c, _ssd, fs) = fs();
            let flags = OpenFlags::RDWR | OpenFlags::CREATE;
            let fd = fs.open("/t", flags, &c).unwrap();
            fs.pwrite(fd, &[0xCD; 8192], 0, &c).unwrap();
            fs.fsync(fd, &c).unwrap();
            if uncached {
                fs.simulate_power_failure();
            }
            if o_trunc {
                fs.open("/t", flags | OpenFlags::TRUNC, &c).unwrap();
            } else {
                fs.ftruncate(fd, 100, &c).unwrap();
            }
            fs.pwrite(fd, &[1], 8192, &c).unwrap();
            let head = if o_trunc { 0 } else { 0xCD };
            for crashed in [false, true] {
                let mut buf = [9u8; 8193];
                assert_eq!(fs.pread(fd, &mut buf, 0, &c).unwrap(), 8193, "{what}");
                assert!(buf[..100].iter().all(|&b| b == head), "{what}, crashed {crashed}");
                assert_eq!(
                    (buf[200], buf[5000], buf[8192]),
                    (0, 0, 1),
                    "{what}, crashed {crashed}"
                );
                fs.fsync(fd, &c).unwrap();
                fs.simulate_power_failure();
            }
        }
    }

    #[test]
    fn a_recycled_slab_hands_its_old_bytes_to_no_one() {
        let (c, ssd, fs) = fs();
        let flags = OpenFlags::RDWR | OpenFlags::CREATE;
        let old = fs.open("/old", flags, &c).unwrap();
        fs.pwrite(old, &[0xAB; 8192], 0, &c).unwrap();
        fs.fsync(old, &c).unwrap();
        fs.close(old, &c).unwrap();
        fs.unlink("/old", &c).unwrap();
        let new = fs.open("/new", flags, &c).unwrap();
        fs.pwrite(new, &[1u8; 4096], 4096, &c).unwrap();
        fs.fsync(new, &c).unwrap();
        assert_eq!(fs.slabs.free_count(), 0, "/new took /old's slab");
        fs.simulate_power_failure();
        let mut buf = [9u8; 4096];
        assert_eq!(fs.pread(new, &mut buf, 0, &c).unwrap(), 4096);
        assert_eq!((buf, ssd.stats().snapshot().reads), ([0u8; 4096], 0));
    }

    #[test]
    fn a_hole_in_a_written_slab_costs_no_device_read() {
        let (c, ssd, fs) = fs();
        let fd = fs.open("/h", OpenFlags::RDWR | OpenFlags::CREATE, &c).unwrap();
        fs.pwrite(fd, &[7u8; 4096], 0, &c).unwrap();
        fs.pwrite(fd, &[8u8; 4096], 2 * 4096, &c).unwrap();
        fs.fsync(fd, &c).unwrap();
        fs.simulate_power_failure();
        let before = c.now();
        let mut buf = [9u8; 4096];
        assert_eq!(fs.pread(fd, &mut buf, 4096, &c).unwrap(), 4096);
        let costs = &fs.profile.costs;
        let cost = costs.syscall + costs.fs_overhead + costs.page_lookup + costs.copy(4096);
        assert_eq!(c.now() - before, cost);
        assert_eq!((buf, ssd.stats().snapshot().reads), ([0u8; 4096], 0));
    }
}
