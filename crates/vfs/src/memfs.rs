use parking_lot::RwLock;
use simclock::ActorClock;

use crate::namespace::Namespace;
use crate::{Fd, FileSystem, IoResult, KernelCosts, Metadata, OpenFlags};

type Content = RwLock<Vec<u8>>;

fn size(data: &Content) -> u64 {
    data.read().len() as u64
}

/// tmpfs: files live entirely in DRAM inside the kernel page cache.
///
/// The fastest baseline of the paper's evaluation (Table IV, last row) and
/// the only one with **no durability whatsoever** — a crash loses everything,
/// which [`simulate_power_failure`](FileSystem::simulate_power_failure)
/// reproduces by discarding all content.
///
/// # Example
///
/// ```
/// use simclock::ActorClock;
/// use vfs::{FileSystem, MemFs, OpenFlags};
///
/// # fn main() -> Result<(), vfs::IoError> {
/// let clock = ActorClock::new();
/// let fs = MemFs::new();
/// let fd = fs.open("/tmp/x", OpenFlags::RDWR | OpenFlags::CREATE, &clock)?;
/// fs.pwrite(fd, b"data", 0, &clock)?;
/// let mut buf = [0u8; 4];
/// fs.pread(fd, &mut buf, 0, &clock)?;
/// assert_eq!(&buf, b"data");
/// # Ok(())
/// # }
/// ```
pub struct MemFs {
    costs: KernelCosts,
    ns: Namespace<Content>,
}

impl std::fmt::Debug for MemFs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemFs").field("files", &self.ns.len()).finish()
    }
}

impl Default for MemFs {
    fn default() -> Self {
        Self::new()
    }
}

impl MemFs {
    /// Creates an empty tmpfs with default kernel costs.
    pub fn new() -> Self {
        Self::with_costs(KernelCosts::default_model())
    }

    /// Creates an empty tmpfs with explicit kernel costs.
    pub fn with_costs(costs: KernelCosts) -> Self {
        MemFs { costs, ns: Namespace::new(0xEE) }
    }
}

impl FileSystem for MemFs {
    fn name(&self) -> &str {
        "tmpfs"
    }

    fn open(&self, path: &str, flags: OpenFlags, clock: &ActorClock) -> IoResult<Fd> {
        clock.advance(self.costs.syscall + self.costs.fs_overhead);
        let opened = self.ns.open(path, flags, Content::default)?;
        if opened.truncate {
            opened.inode.data.write().clear();
        }
        Ok(opened.fd)
    }

    fn close(&self, fd: Fd, clock: &ActorClock) -> IoResult<()> {
        clock.advance(self.costs.syscall);
        self.ns.close(fd, |_| ()) // the content goes with the inode
    }

    fn pread(&self, fd: Fd, buf: &mut [u8], off: u64, clock: &ActorClock) -> IoResult<usize> {
        let inode = self.ns.readable(fd)?;
        clock.advance(self.costs.syscall + self.costs.fs_overhead);
        let data = inode.data.read();
        let size = data.len() as u64;
        if off >= size {
            return Ok(0);
        }
        let n = buf.len().min((size - off) as usize);
        buf[..n].copy_from_slice(&data[off as usize..off as usize + n]);
        clock.advance(self.costs.copy(n as u64));
        Ok(n)
    }

    fn pwrite(&self, fd: Fd, data: &[u8], off: u64, clock: &ActorClock) -> IoResult<usize> {
        let (inode, _) = self.ns.writable(fd)?;
        clock.advance(self.costs.syscall + self.costs.fs_overhead);
        let mut content = inode.data.write();
        let end = off as usize + data.len();
        if content.len() < end {
            content.resize(end, 0);
        }
        content[off as usize..end].copy_from_slice(data);
        clock.advance(self.costs.copy(data.len() as u64));
        Ok(data.len())
    }

    fn fsync(&self, fd: Fd, clock: &ActorClock) -> IoResult<()> {
        clock.advance(self.costs.syscall);
        self.ns.inode(fd).map(|_| ()) // nothing durable to do
    }

    fn ftruncate(&self, fd: Fd, len: u64, clock: &ActorClock) -> IoResult<()> {
        let (inode, _) = self.ns.writable(fd)?;
        clock.advance(self.costs.syscall + self.costs.fs_overhead);
        inode.data.write().resize(len as usize, 0);
        Ok(())
    }

    fn fstat(&self, fd: Fd, clock: &ActorClock) -> IoResult<Metadata> {
        clock.advance(self.costs.syscall);
        self.ns.fstat(fd, size)
    }

    fn stat(&self, path: &str, clock: &ActorClock) -> IoResult<Metadata> {
        clock.advance(self.costs.syscall);
        self.ns.stat(path, size)
    }

    fn unlink(&self, path: &str, clock: &ActorClock) -> IoResult<()> {
        clock.advance(self.costs.syscall + self.costs.fs_overhead);
        self.ns.unlink(path, |_| ())
    }

    fn rename(&self, from: &str, to: &str, clock: &ActorClock) -> IoResult<()> {
        clock.advance(self.costs.syscall + self.costs.fs_overhead);
        self.ns.rename(from, to, |_| ())
    }

    fn list_dir(&self, dir: &str, clock: &ActorClock) -> IoResult<Vec<String>> {
        clock.advance(self.costs.syscall + self.costs.fs_overhead);
        Ok(self.ns.list_dir(dir))
    }

    fn sync(&self, clock: &ActorClock) -> IoResult<()> {
        clock.advance(self.costs.syscall);
        Ok(())
    }

    fn simulate_power_failure(&self) {
        self.ns.clear(|_| ());
    }

    fn synchronous_durability(&self) -> bool {
        false
    }

    fn durable_linearizability(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::IoError;

    fn fs() -> (ActorClock, MemFs) {
        (ActorClock::new(), MemFs::new())
    }

    #[test]
    fn create_write_read() {
        let (c, fs) = fs();
        let fd = fs.open("/a", OpenFlags::RDWR | OpenFlags::CREATE, &c).unwrap();
        assert_eq!(fs.pwrite(fd, b"hello", 0, &c).unwrap(), 5);
        let mut buf = [0u8; 5];
        assert_eq!(fs.pread(fd, &mut buf, 0, &c).unwrap(), 5);
        assert_eq!(&buf, b"hello");
    }

    #[test]
    fn sparse_write_zero_fills() {
        let (c, fs) = fs();
        let fd = fs.open("/s", OpenFlags::RDWR | OpenFlags::CREATE, &c).unwrap();
        fs.pwrite(fd, b"x", 100, &c).unwrap();
        assert_eq!(fs.fstat(fd, &c).unwrap().size, 101);
        let mut buf = [9u8; 3];
        fs.pread(fd, &mut buf, 0, &c).unwrap();
        assert_eq!(buf, [0, 0, 0]);
    }

    #[test]
    fn crash_loses_everything() {
        let (c, fs) = fs();
        let fd = fs.open("/gone", OpenFlags::RDWR | OpenFlags::CREATE, &c).unwrap();
        fs.pwrite(fd, b"data", 0, &c).unwrap();
        fs.fsync(fd, &c).unwrap(); // tmpfs fsync is a no-op
        fs.simulate_power_failure();
        assert!(matches!(fs.stat("/gone", &c), Err(IoError::NotFound(_))));
    }

    #[test]
    fn open_missing_without_create_fails() {
        let (c, fs) = fs();
        assert!(matches!(fs.open("/missing", OpenFlags::RDONLY, &c), Err(IoError::NotFound(_))));
    }

    #[test]
    fn excl_create_conflicts() {
        let (c, fs) = fs();
        fs.open("/e", OpenFlags::WRONLY | OpenFlags::CREATE, &c).unwrap();
        assert!(matches!(
            fs.open("/e", OpenFlags::WRONLY | OpenFlags::CREATE | OpenFlags::EXCL, &c),
            Err(IoError::AlreadyExists(_))
        ));
    }

    #[test]
    fn trunc_clears_content() {
        let (c, fs) = fs();
        let fd = fs.open("/t", OpenFlags::RDWR | OpenFlags::CREATE, &c).unwrap();
        fs.pwrite(fd, b"old content", 0, &c).unwrap();
        fs.close(fd, &c).unwrap();
        let fd2 = fs.open("/t", OpenFlags::RDWR | OpenFlags::TRUNC, &c).unwrap();
        assert_eq!(fs.fstat(fd2, &c).unwrap().size, 0);
    }

    #[test]
    fn rename_and_list_dir() {
        let (c, fs) = fs();
        fs.open("/d/a", OpenFlags::WRONLY | OpenFlags::CREATE, &c).unwrap();
        fs.open("/d/b", OpenFlags::WRONLY | OpenFlags::CREATE, &c).unwrap();
        fs.open("/other", OpenFlags::WRONLY | OpenFlags::CREATE, &c).unwrap();
        assert_eq!(fs.list_dir("/d", &c).unwrap(), vec!["/d/a", "/d/b"]);
        fs.rename("/d/a", "/d2/a", &c).unwrap();
        assert_eq!(fs.list_dir("/d", &c).unwrap(), vec!["/d/b"]);
        assert!(fs.stat("/d2/a", &c).is_ok());
    }

    #[test]
    fn permission_checks() {
        let (c, fs) = fs();
        let ro = fs.open("/p", OpenFlags::RDONLY | OpenFlags::CREATE, &c).unwrap();
        assert!(matches!(fs.pwrite(ro, b"x", 0, &c), Err(IoError::PermissionDenied(_))));
        let wo = fs.open("/p", OpenFlags::WRONLY, &c).unwrap();
        let mut b = [0u8; 1];
        assert!(matches!(fs.pread(wo, &mut b, 0, &c), Err(IoError::PermissionDenied(_))));
    }
}
