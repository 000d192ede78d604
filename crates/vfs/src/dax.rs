use std::sync::atomic::Ordering;

use nvmm::NvRegion;
use simclock::{ActorClock, SimTime};

use crate::extent::{page_spans, PageSpan, SlabFile, SlabMap};
use crate::namespace::Namespace;
use crate::{Fd, FileSystem, IoResult, KernelCosts, Metadata, OpenFlags};

/// Tuning of the simulated Ext4-DAX.
#[derive(Debug, Clone)]
pub struct DaxProfile {
    /// Kernel path costs.
    pub costs: KernelCosts,
    /// Per-write extra cost of the ext4 DAX path (block mapping through the
    /// extent tree, `copy_from_iter_flushcache` setup). This is the "Ext4
    /// bottleneck" the paper blames for NOVA outperforming Ext4-DAX (§IV-B).
    pub write_path_overhead: SimTime,
    /// jbd2 commit cost (journal lives in NVMM too).
    pub journal_commit: SimTime,
    /// Page size.
    pub page_size: u64,
    /// Pages per allocation slab.
    pub slab_pages: u64,
}

impl Default for DaxProfile {
    fn default() -> Self {
        DaxProfile {
            costs: KernelCosts::default_model(),
            write_path_overhead: SimTime::from_micros(17),
            journal_commit: SimTime::from_micros(10),
            page_size: 4096,
            slab_pages: 256,
        }
    }
}

/// Simulated Ext4-DAX: the Ext4 code paths with file data mapped directly in
/// NVMM (paper Table IV row "Ext4-DAX", refs \[20\], \[56\]).
///
/// Data writes go straight into persistent memory through the CPU caches
/// (no page cache); in-place, not copy-on-write. Storage capacity is limited
/// to the NVMM region — the limitation NVCache exists to remove.
///
/// A page no write ever reached reads as zeros without touching the region,
/// and a shrinking truncation zeroes the tail of the page the cut falls in.
/// A partial first write into an unwritten page — of a recycled slab, or
/// one a shrink cut off — still leaves the page's other bytes as they were.
pub struct DaxFs {
    region: NvRegion,
    profile: DaxProfile,
    ns: Namespace<SlabFile>,
    slabs: SlabMap,
}

impl std::fmt::Debug for DaxFs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DaxFs").field("files", &self.ns.len()).finish()
    }
}

impl DaxFs {
    /// Creates an Ext4-DAX instance over an NVMM region.
    pub fn new(region: NvRegion, profile: DaxProfile) -> Self {
        DaxFs {
            ns: Namespace::new(0xDA),
            slabs: SlabMap::new(profile.slab_pages, profile.page_size, region.len()),
            region,
            profile,
        }
    }

    fn journal_commit(&self, clock: &ActorClock) {
        clock.advance(self.profile.journal_commit);
        self.region.psync(clock);
    }

    /// Sets the file's length (`ftruncate`, an `O_TRUNC` open); a shrink
    /// zeroes the tail of the page the cut falls in, in place.
    fn truncate(&self, file: &SlabFile, len: u64, clock: &ActorClock) {
        let Some((page, tail)) = self.slabs.truncate(file, len) else { return };
        if let Some(base) = self.slabs.map_existing(file, page) {
            let zeros = vec![0u8; self.profile.page_size as usize - tail];
            self.region.write_and_pwb(base + tail as u64, &zeros, clock);
        }
    }
}

impl FileSystem for DaxFs {
    fn name(&self) -> &str {
        "ext4-dax"
    }

    fn open(&self, path: &str, flags: OpenFlags, clock: &ActorClock) -> IoResult<Fd> {
        clock.advance(self.profile.costs.syscall + self.profile.costs.fs_overhead);
        let opened = self.ns.open(path, flags, SlabFile::new)?;
        if opened.truncate {
            self.truncate(&opened.inode.data, 0, clock);
        }
        Ok(opened.fd)
    }

    fn close(&self, fd: Fd, clock: &ActorClock) -> IoResult<()> {
        clock.advance(self.profile.costs.syscall);
        self.ns.close(fd, |inode| self.slabs.reclaim(&inode.data))
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
            match self.slabs.map_existing(&inode.data, page) {
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
        let (inode, flags) = self.ns.writable(fd)?;
        clock.advance(
            self.profile.costs.syscall
                + self.profile.costs.fs_overhead
                + self.profile.write_path_overhead,
        );
        let file = &inode.data;
        for PageSpan { page, in_page, pos, n } in
            page_spans(off, data.len(), self.profile.page_size)
        {
            let base = self.slabs.map_alloc(file, page)?;
            // DAX is in-place and byte-addressable: partial pages need no
            // read-modify cycle.
            self.region.write_and_pwb(base + in_page as u64, &data[pos..pos + n], clock);
        }
        // The kernel's DAX write path flushes data before returning.
        self.region.pfence(clock);
        let end = off + data.len() as u64;
        if file.size.fetch_max(end, Ordering::AcqRel) < end {
            file.meta_dirty.store(true, Ordering::Release);
        }
        if flags.contains(OpenFlags::SYNC) {
            self.journal_commit(clock);
            file.meta_dirty.store(false, Ordering::Release);
        }
        Ok(data.len())
    }

    fn fsync(&self, fd: Fd, clock: &ActorClock) -> IoResult<()> {
        let inode = self.ns.inode(fd)?;
        clock.advance(self.profile.costs.syscall);
        if inode.data.meta_dirty.swap(false, Ordering::AcqRel) {
            self.journal_commit(clock);
        } else {
            self.region.psync(clock);
        }
        Ok(())
    }

    fn ftruncate(&self, fd: Fd, len: u64, clock: &ActorClock) -> IoResult<()> {
        let (inode, _) = self.ns.writable(fd)?;
        clock.advance(self.profile.costs.syscall + self.profile.costs.fs_overhead);
        self.truncate(&inode.data, len, clock);
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
        self.ns.unlink(path, |inode| self.slabs.reclaim(&inode.data))
    }

    fn rename(&self, from: &str, to: &str, clock: &ActorClock) -> IoResult<()> {
        clock.advance(self.profile.costs.syscall + self.profile.costs.fs_overhead);
        self.ns.rename(from, to, |inode| self.slabs.reclaim(&inode.data))
    }

    fn list_dir(&self, dir: &str, clock: &ActorClock) -> IoResult<Vec<String>> {
        clock.advance(self.profile.costs.syscall + self.profile.costs.fs_overhead);
        Ok(self.ns.list_dir(dir))
    }

    fn sync(&self, clock: &ActorClock) -> IoResult<()> {
        clock.advance(self.profile.costs.syscall);
        self.journal_commit(clock);
        Ok(())
    }

    fn simulate_power_failure(&self) {
        // Data writes are flushed on the write path and metadata is assumed
        // journaled; nothing volatile to lose in this model.
    }

    fn synchronous_durability(&self) -> bool {
        false // needs O_DIRECT|O_SYNC per Table IV
    }

    fn durable_linearizability(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::IoError;
    use nvmm::{NvDimm, NvmmProfile};
    use std::sync::Arc;

    fn fs(mib: u64) -> (ActorClock, DaxFs) {
        let dimm = Arc::new(NvDimm::new(mib << 20, NvmmProfile::optane()));
        (ActorClock::new(), DaxFs::new(NvRegion::whole(dimm), DaxProfile::default()))
    }

    #[test]
    fn write_read_round_trip() {
        let (c, fs) = fs(8);
        let fd = fs.open("/d", OpenFlags::RDWR | OpenFlags::CREATE, &c).unwrap();
        let data: Vec<u8> = (0..9000u32).map(|i| (i % 253) as u8).collect();
        fs.pwrite(fd, &data, 123, &c).unwrap();
        let mut buf = vec![0u8; data.len()];
        fs.pread(fd, &mut buf, 123, &c).unwrap();
        assert_eq!(buf, data);
    }

    #[test]
    fn capacity_is_limited_to_nvmm() {
        let (c, fs) = fs(2);
        let fd = fs.open("/big", OpenFlags::RDWR | OpenFlags::CREATE, &c).unwrap();
        let mut res = Ok(0);
        for i in 0..512u64 {
            res = fs.pwrite(fd, &[0u8; 4096], i * (1 << 20), &c);
            if res.is_err() {
                break;
            }
        }
        assert!(matches!(res, Err(IoError::NoSpace)), "expected ENOSPC, got {res:?}");
    }

    #[test]
    fn sync_write_is_tens_of_microseconds() {
        let (c, fs) = fs(8);
        let fd = fs
            .open("/s", OpenFlags::RDWR | OpenFlags::CREATE | OpenFlags::SYNC, &c)
            .unwrap();
        let before = c.now();
        fs.pwrite(fd, &[1u8; 4096], 0, &c).unwrap();
        let latency = c.now() - before;
        // Paper Fig. 4: Ext4-DAX sustains ~130-140 MiB/s => ~28µs per 4 KiB.
        assert!(latency > SimTime::from_micros(15), "too fast: {latency}");
        assert!(latency < SimTime::from_micros(45), "too slow: {latency}");
    }

    #[test]
    fn data_survives_power_failure() {
        let (c, fs) = fs(8);
        let fd = fs.open("/p", OpenFlags::RDWR | OpenFlags::CREATE, &c).unwrap();
        fs.pwrite(fd, b"persisted", 0, &c).unwrap();
        fs.simulate_power_failure();
        let mut buf = [0u8; 9];
        fs.pread(fd, &mut buf, 0, &c).unwrap();
        assert_eq!(&buf, b"persisted");
    }

    #[test]
    fn partial_page_write_is_in_place() {
        let (c, fs) = fs(8);
        let fd = fs.open("/ip", OpenFlags::RDWR | OpenFlags::CREATE, &c).unwrap();
        fs.pwrite(fd, &[0xAA; 4096], 0, &c).unwrap();
        fs.pwrite(fd, &[0xBB; 10], 1000, &c).unwrap();
        let mut buf = [0u8; 4096];
        fs.pread(fd, &mut buf, 0, &c).unwrap();
        assert_eq!(buf[999], 0xAA);
        assert_eq!(buf[1000], 0xBB);
        assert_eq!(buf[1010], 0xAA);
    }

    #[test]
    fn a_shrunk_file_that_grows_again_reads_zeros_where_it_was_cut() {
        for o_trunc in [false, true] {
            let (c, fs) = fs(8);
            let flags = OpenFlags::RDWR | OpenFlags::CREATE;
            let fd = fs.open("/t", flags, &c).unwrap();
            fs.pwrite(fd, &[0xCD; 8192], 0, &c).unwrap();
            fs.fsync(fd, &c).unwrap();
            if o_trunc {
                fs.open("/t", flags | OpenFlags::TRUNC, &c).unwrap();
            } else {
                fs.ftruncate(fd, 100, &c).unwrap();
            }
            fs.pwrite(fd, &[1], 8192, &c).unwrap();
            let mut buf = [9u8; 8193];
            assert_eq!(fs.pread(fd, &mut buf, 0, &c).unwrap(), 8193, "O_TRUNC {o_trunc}");
            let head = if o_trunc { 0 } else { 0xCD };
            assert!(buf[..100].iter().all(|&b| b == head), "O_TRUNC {o_trunc}");
            assert_eq!((buf[200], buf[5000], buf[8192]), (0, 0, 1), "O_TRUNC {o_trunc}");
        }
    }

    #[test]
    fn a_recycled_slab_hands_its_old_bytes_to_no_one() {
        let (c, fs) = fs(8);
        let flags = OpenFlags::RDWR | OpenFlags::CREATE;
        let old = fs.open("/old", flags, &c).unwrap();
        fs.pwrite(old, &[0xAB; 8192], 0, &c).unwrap();
        fs.fsync(old, &c).unwrap();
        fs.close(old, &c).unwrap();
        fs.unlink("/old", &c).unwrap();
        let new = fs.open("/new", flags, &c).unwrap();
        fs.pwrite(new, &[1u8; 4096], 4096, &c).unwrap();
        assert_eq!(fs.slabs.free_count(), 0, "/new took /old's slab");
        let read = || fs.region.dimm().stats().snapshot().bytes_read;
        let before = read();
        let mut buf = [9u8; 4096];
        assert_eq!(fs.pread(new, &mut buf, 0, &c).unwrap(), 4096);
        assert_eq!((buf, read()), ([0u8; 4096], before));
    }
}
