use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use nvmm::NvRegion;
use parking_lot::Mutex;
use simclock::{ActorClock, SimTime};

use crate::extent::{page_spans, PageSpan};
use crate::namespace::Namespace;
use crate::{Fd, FileSystem, IoError, IoResult, KernelCosts, Metadata, OpenFlags};

/// Tuning of the simulated NOVA file system.
#[derive(Debug, Clone)]
pub struct NovaProfile {
    /// Kernel path costs (NOVA still pays the syscall on the critical path —
    /// the reason the paper's ideal-case FIO run has NVCache slightly ahead
    /// of NOVA, §IV-C "Comparative behavior").
    pub costs: KernelCosts,
    /// CPU cost of allocating a fresh data page + log entry.
    pub alloc_overhead: SimTime,
    /// Cost of persisting a metadata log entry (create/unlink/rename write
    /// and fence a dentry + inode record in NVMM).
    pub meta_persist: SimTime,
    /// Size of an inode-log entry.
    pub log_entry_bytes: usize,
    /// Page size.
    pub page_size: u64,
}

impl Default for NovaProfile {
    fn default() -> Self {
        NovaProfile {
            costs: KernelCosts::default_model(),
            alloc_overhead: SimTime::from_nanos(200),
            meta_persist: SimTime::from_micros(3),
            log_entry_bytes: 64,
            page_size: 4096,
        }
    }
}

#[derive(Debug, Default)]
struct NovaFile {
    size: AtomicU64,
    /// file page -> NVMM offset of the current (CoW) page version
    pages: Mutex<HashMap<u64, u64>>,
    /// entries appended to this inode's log (for stats/debug)
    log_entries: AtomicU64,
}

impl NovaFile {
    fn len(&self) -> u64 {
        self.size.load(Ordering::Acquire)
    }
}

/// Simulated NOVA: a log-structured file system for hybrid volatile /
/// non-volatile main memories (paper Table IV row "NOVA", ref \[57\]).
///
/// Every write allocates fresh NVMM pages (copy-on-write), persists them,
/// then appends and persists a small entry in the per-inode log — after which
/// the write is both synchronously durable and durably linearizable (the
/// `cow_data` mount the paper uses). `fsync` is effectively free. The price:
/// a syscall on every operation and a working set capped by NVMM capacity.
pub struct NovaFs {
    region: NvRegion,
    profile: NovaProfile,
    ns: Namespace<NovaFile>,
    alloc_next: AtomicU64,
    free_pages: Mutex<Vec<u64>>,
}

impl std::fmt::Debug for NovaFs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NovaFs").field("files", &self.ns.len()).finish()
    }
}

impl NovaFs {
    /// Creates a NOVA instance over an NVMM region.
    pub fn new(region: NvRegion, profile: NovaProfile) -> Self {
        NovaFs {
            region,
            profile,
            ns: Namespace::new(0x0A),
            alloc_next: AtomicU64::new(0),
            free_pages: Mutex::new(Vec::new()),
        }
    }

    fn alloc_page(&self) -> IoResult<u64> {
        if let Some(p) = self.free_pages.lock().pop() {
            return Ok(p);
        }
        let off = self.alloc_next.fetch_add(self.profile.page_size, Ordering::Relaxed);
        if off + self.profile.page_size > self.region.len() {
            return Err(IoError::NoSpace);
        }
        Ok(off)
    }

    fn alloc_log_entry(&self) -> IoResult<u64> {
        let n = self.profile.log_entry_bytes as u64;
        let off = self.alloc_next.fetch_add(n, Ordering::Relaxed);
        if off + n > self.region.len() {
            return Err(IoError::NoSpace);
        }
        Ok(off)
    }

    /// Returns a file's data pages to the allocator (truncation, or the end
    /// of an inode nothing refers to any more).
    fn free_pages_of(&self, file: &NovaFile) {
        let mut pages = file.pages.lock();
        self.free_pages.lock().extend(pages.values().copied());
        pages.clear();
    }
}

impl FileSystem for NovaFs {
    fn name(&self) -> &str {
        "nova"
    }

    fn open(&self, path: &str, flags: OpenFlags, clock: &ActorClock) -> IoResult<Fd> {
        clock.advance(self.profile.costs.syscall + self.profile.costs.fs_overhead);
        let opened = self.ns.open(path, flags, NovaFile::default)?;
        if opened.created {
            clock.advance(self.profile.meta_persist);
        }
        if opened.truncate {
            opened.inode.data.size.store(0, Ordering::Release);
            self.free_pages_of(&opened.inode.data);
        }
        Ok(opened.fd)
    }

    fn close(&self, fd: Fd, clock: &ActorClock) -> IoResult<()> {
        clock.advance(self.profile.costs.syscall);
        self.ns.close(fd, |inode| self.free_pages_of(&inode.data))
    }

    fn pread(&self, fd: Fd, buf: &mut [u8], off: u64, clock: &ActorClock) -> IoResult<usize> {
        let inode = self.ns.readable(fd)?;
        clock.advance(self.profile.costs.syscall + self.profile.costs.fs_overhead);
        let size = inode.data.len();
        if off >= size {
            return Ok(0);
        }
        let total = buf.len().min((size - off) as usize);
        for PageSpan { page, in_page, pos, n } in page_spans(off, total, self.profile.page_size) {
            let mapped = inode.data.pages.lock().get(&page).copied();
            match mapped {
                Some(base) => {
                    let mut tmp = vec![0u8; n];
                    self.region.read(base + in_page as u64, &mut tmp, clock);
                    buf[pos..pos + n].copy_from_slice(&tmp);
                }
                None => buf[pos..pos + n].fill(0),
            }
        }
        clock.advance(self.profile.costs.copy(total as u64));
        Ok(total)
    }

    fn pwrite(&self, fd: Fd, data: &[u8], off: u64, clock: &ActorClock) -> IoResult<usize> {
        let (inode, _) = self.ns.writable(fd)?;
        clock.advance(
            self.profile.costs.syscall
                + self.profile.costs.fs_overhead
                + self.profile.alloc_overhead,
        );
        let file = &inode.data;
        let ps = self.profile.page_size;
        for PageSpan { page, in_page, pos, n } in page_spans(off, data.len(), ps) {
            let new_page = self.alloc_page()?;
            let old = file.pages.lock().get(&page).copied();
            // A whole or fresh page starts from zeroes and needs no read; a
            // partial overwrite is a CoW read-modify-write of the previous
            // version.
            let mut content = vec![0u8; ps as usize];
            if let Some(old_page) = old.filter(|_| n < ps as usize) {
                self.region.read(old_page, &mut content, clock);
            }
            content[in_page..in_page + n].copy_from_slice(&data[pos..pos + n]);
            self.region.write_and_pwb(new_page, &content, clock);
            // Append + persist the inode log entry, then flip the mapping.
            let log_off = self.alloc_log_entry()?;
            let log_entry = vec![0xABu8; self.profile.log_entry_bytes];
            self.region.write_and_pwb(log_off, &log_entry, clock);
            self.region.psync(clock);
            file.log_entries.fetch_add(1, Ordering::Relaxed);
            let prev = file.pages.lock().insert(page, new_page);
            if let Some(p) = prev {
                self.free_pages.lock().push(p);
            }
        }
        let end = off + data.len() as u64;
        file.size.fetch_max(end, Ordering::AcqRel);
        Ok(data.len())
    }

    fn fsync(&self, fd: Fd, clock: &ActorClock) -> IoResult<()> {
        // Everything is already durable; only the syscall is charged.
        clock.advance(self.profile.costs.syscall);
        self.ns.inode(fd).map(|_| ())
    }

    fn ftruncate(&self, fd: Fd, len: u64, clock: &ActorClock) -> IoResult<()> {
        let (inode, _) = self.ns.writable(fd)?;
        clock.advance(self.profile.costs.syscall + self.profile.costs.fs_overhead);
        inode.data.size.store(len, Ordering::Release);
        Ok(())
    }

    fn fstat(&self, fd: Fd, clock: &ActorClock) -> IoResult<Metadata> {
        clock.advance(self.profile.costs.syscall);
        self.ns.fstat(fd, NovaFile::len)
    }

    fn stat(&self, path: &str, clock: &ActorClock) -> IoResult<Metadata> {
        clock.advance(self.profile.costs.syscall);
        self.ns.stat(path, NovaFile::len)
    }

    fn unlink(&self, path: &str, clock: &ActorClock) -> IoResult<()> {
        clock.advance(
            self.profile.costs.syscall + self.profile.costs.fs_overhead + self.profile.meta_persist,
        );
        self.ns.unlink(path, |inode| self.free_pages_of(&inode.data))
    }

    fn rename(&self, from: &str, to: &str, clock: &ActorClock) -> IoResult<()> {
        clock.advance(
            self.profile.costs.syscall + self.profile.costs.fs_overhead + self.profile.meta_persist,
        );
        self.ns.rename(from, to, |inode| self.free_pages_of(&inode.data))
    }

    fn list_dir(&self, dir: &str, clock: &ActorClock) -> IoResult<Vec<String>> {
        clock.advance(self.profile.costs.syscall + self.profile.costs.fs_overhead);
        Ok(self.ns.list_dir(dir))
    }

    fn sync(&self, clock: &ActorClock) -> IoResult<()> {
        clock.advance(self.profile.costs.syscall);
        Ok(())
    }

    fn simulate_power_failure(&self) {
        // CoW data and log entries are persisted before each write returns;
        // nothing volatile to lose.
    }

    fn synchronous_durability(&self) -> bool {
        true
    }

    fn durable_linearizability(&self) -> bool {
        true // cow_data mount, paper Table IV footnote 5
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvmm::{NvDimm, NvmmProfile};
    use std::sync::Arc;

    fn fs(mib: u64) -> (ActorClock, NovaFs) {
        let dimm = Arc::new(NvDimm::new(mib << 20, NvmmProfile::optane()));
        (ActorClock::new(), NovaFs::new(NvRegion::whole(dimm), NovaProfile::default()))
    }

    #[test]
    fn write_read_round_trip() {
        let (c, fs) = fs(8);
        let fd = fs.open("/n", OpenFlags::RDWR | OpenFlags::CREATE, &c).unwrap();
        let data: Vec<u8> = (0..10_000u32).map(|i| (i % 241) as u8).collect();
        fs.pwrite(fd, &data, 77, &c).unwrap();
        let mut buf = vec![0u8; data.len()];
        fs.pread(fd, &mut buf, 77, &c).unwrap();
        assert_eq!(buf, data);
    }

    #[test]
    fn write_latency_is_about_ten_microseconds() {
        let (c, fs) = fs(8);
        let fd = fs.open("/w", OpenFlags::WRONLY | OpenFlags::CREATE, &c).unwrap();
        let before = c.now();
        fs.pwrite(fd, &[1u8; 4096], 0, &c).unwrap();
        let latency = c.now() - before;
        // Paper Fig. 4: NOVA sustains ~400 MiB/s => ~10µs per 4 KiB write.
        assert!(latency >= SimTime::from_micros(7), "too fast: {latency}");
        assert!(latency <= SimTime::from_micros(14), "too slow: {latency}");
    }

    #[test]
    fn fsync_is_nearly_free() {
        let (c, fs) = fs(8);
        let fd = fs.open("/s", OpenFlags::RDWR | OpenFlags::CREATE, &c).unwrap();
        fs.pwrite(fd, &[1u8; 4096], 0, &c).unwrap();
        let before = c.now();
        fs.fsync(fd, &c).unwrap();
        assert!(c.now() - before < SimTime::from_micros(3));
    }

    #[test]
    fn cow_recycles_old_pages() {
        let (c, fs) = fs(4);
        let fd = fs.open("/cow", OpenFlags::RDWR | OpenFlags::CREATE, &c).unwrap();
        // Overwrite the same page far more times than raw capacity would
        // allow without recycling: 4 MiB region, 2000 x 4 KiB writes = 8 MiB.
        for i in 0..2000u64 {
            fs.pwrite(fd, &[(i % 255) as u8; 4096], 0, &c).unwrap();
        }
        let mut buf = [0u8; 1];
        fs.pread(fd, &mut buf, 0, &c).unwrap();
        assert_eq!(buf[0], (1999 % 255) as u8);
    }

    #[test]
    fn capacity_limited_to_nvmm() {
        let (c, fs) = fs(2);
        let fd = fs.open("/big", OpenFlags::RDWR | OpenFlags::CREATE, &c).unwrap();
        let mut res = Ok(0);
        for i in 0..1024u64 {
            res = fs.pwrite(fd, &[0u8; 4096], i * 4096, &c);
            if res.is_err() {
                break;
            }
        }
        assert!(matches!(res, Err(IoError::NoSpace)));
    }

    #[test]
    fn survives_power_failure_without_fsync() {
        let (c, fs) = fs(8);
        let fd = fs.open("/d", OpenFlags::RDWR | OpenFlags::CREATE, &c).unwrap();
        fs.pwrite(fd, b"durable without fsync", 0, &c).unwrap();
        fs.simulate_power_failure();
        let mut buf = [0u8; 21];
        fs.pread(fd, &mut buf, 0, &c).unwrap();
        assert_eq!(&buf, b"durable without fsync");
    }

    #[test]
    fn reports_strong_guarantees() {
        let (_c, fs) = fs(1);
        assert!(fs.synchronous_durability());
        assert!(fs.durable_linearizability());
    }
}
