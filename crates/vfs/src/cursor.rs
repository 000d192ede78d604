use std::sync::Arc;

use parking_lot::Mutex;
use simclock::ActorClock;

use crate::{Fd, FileSystem, IoError, IoResult, Metadata, OpenFlags};

/// Seek origin, as in `lseek(2)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeekFrom {
    /// Absolute offset.
    Start(u64),
    /// Relative to the end of file.
    End(i64),
    /// Relative to the current position.
    Current(i64),
}

/// A cursor-based file handle over any [`FileSystem`].
///
/// Provides the sequential `read`/`write`/`lseek` POSIX surface on top of the
/// positional trait, including `O_APPEND` semantics. This is the layer the
/// "legacy application" stand-ins use when they don't track offsets
/// themselves.
///
/// It is also NVCache's cursor (paper Table III: `lseek` answered from
/// NVCache state, never the kernel's): the handle keeps the position itself
/// and asks `fstat` for the size, which each file system answers from its
/// own fresh metadata — NVCache from its own size, ahead of the kernel's.
pub struct CursorFile {
    fs: Arc<dyn FileSystem>,
    fd: Fd,
    flags: OpenFlags,
    /// The position; `None` once closed. Every call holds it across its
    /// use of `fd`, so none reaches `fd` after `close` — whose number the
    /// file system may already have handed to another `open`.
    pos: Mutex<Option<u64>>,
}

impl std::fmt::Debug for CursorFile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CursorFile")
            .field("fd", &self.fd)
            .field("flags", &self.flags.to_string())
            .field("pos", &*self.pos.lock())
            .finish()
    }
}

impl CursorFile {
    /// Opens `path` on `fs`.
    ///
    /// # Errors
    ///
    /// Propagates the underlying [`FileSystem::open`] error.
    pub fn open(
        fs: Arc<dyn FileSystem>,
        path: &str,
        flags: OpenFlags,
        clock: &ActorClock,
    ) -> IoResult<CursorFile> {
        let fd = fs.open(path, flags, clock)?;
        Ok(CursorFile { fs, fd, flags, pos: Mutex::new(Some(0)) })
    }

    /// The raw descriptor.
    pub fn fd(&self) -> Fd {
        self.fd
    }

    /// Runs `f` on the position of the open handle, holding it.
    fn at<R>(&self, f: impl FnOnce(&mut u64) -> IoResult<R>) -> IoResult<R> {
        f(self.pos.lock().as_mut().ok_or(IoError::BadFd(self.fd.0))?)
    }

    /// Reads from the cursor, advancing it.
    ///
    /// # Errors
    ///
    /// Propagates [`FileSystem::pread`] errors; [`IoError::BadFd`] once
    /// closed.
    pub fn read(&self, buf: &mut [u8], clock: &ActorClock) -> IoResult<usize> {
        self.at(|pos| {
            let n = self.fs.pread(self.fd, buf, *pos, clock)?;
            *pos += n as u64;
            Ok(n)
        })
    }

    /// Writes at the cursor, advancing it; honours `O_APPEND`.
    ///
    /// # Errors
    ///
    /// Propagates [`FileSystem::pwrite`] errors; [`IoError::BadFd`] once
    /// closed.
    pub fn write(&self, data: &[u8], clock: &ActorClock) -> IoResult<usize> {
        self.at(|pos| {
            if self.flags.contains(OpenFlags::APPEND) {
                *pos = self.fs.fstat(self.fd, clock)?.size;
            }
            let n = self.fs.pwrite(self.fd, data, *pos, clock)?;
            *pos += n as u64;
            Ok(n)
        })
    }

    /// Moves the cursor.
    ///
    /// # Errors
    ///
    /// [`IoError::InvalidArgument`] when seeking before byte 0;
    /// [`IoError::BadFd`] once closed.
    pub fn seek(&self, from: SeekFrom, clock: &ActorClock) -> IoResult<u64> {
        self.at(|pos| {
            let base: i128 = match from {
                SeekFrom::Start(o) => o as i128,
                SeekFrom::End(d) => self.fs.fstat(self.fd, clock)?.size as i128 + d as i128,
                SeekFrom::Current(d) => *pos as i128 + d as i128,
            };
            if base < 0 {
                return Err(IoError::InvalidArgument("seek before start of file".into()));
            }
            *pos = base as u64;
            Ok(*pos)
        })
    }

    /// Current cursor position (`ftell`).
    ///
    /// # Errors
    ///
    /// [`IoError::BadFd`] once closed.
    pub fn tell(&self) -> IoResult<u64> {
        self.at(|pos| Ok(*pos))
    }

    /// Metadata of the open file.
    ///
    /// # Errors
    ///
    /// Propagates [`FileSystem::fstat`] errors; [`IoError::BadFd`] once
    /// closed.
    pub fn stat(&self, clock: &ActorClock) -> IoResult<Metadata> {
        self.at(|_| self.fs.fstat(self.fd, clock))
    }

    /// Forces durability of the file.
    ///
    /// # Errors
    ///
    /// Propagates [`FileSystem::fsync`] errors; [`IoError::BadFd`] once
    /// closed.
    pub fn fsync(&self, clock: &ActorClock) -> IoResult<()> {
        self.at(|_| self.fs.fsync(self.fd, clock))
    }

    /// Closes the handle. Further operations return `BadFd`.
    ///
    /// # Errors
    ///
    /// Propagates [`FileSystem::close`] errors; double close returns
    /// [`IoError::BadFd`].
    pub fn close(&self, clock: &ActorClock) -> IoResult<()> {
        let mut pos = self.pos.lock();
        pos.take().ok_or(IoError::BadFd(self.fd.0))?;
        self.fs.close(self.fd, clock)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MemFs;

    fn open_tmp(flags: OpenFlags) -> (ActorClock, CursorFile) {
        let clock = ActorClock::new();
        let fs: Arc<dyn FileSystem> = Arc::new(MemFs::new());
        let f = CursorFile::open(fs, "/f", flags | OpenFlags::CREATE, &clock).unwrap();
        (clock, f)
    }

    #[test]
    fn sequential_write_then_read() {
        let (clock, f) = open_tmp(OpenFlags::RDWR);
        f.write(b"hello ", &clock).unwrap();
        f.write(b"world", &clock).unwrap();
        assert_eq!(f.tell().unwrap(), 11);
        f.seek(SeekFrom::Start(0), &clock).unwrap();
        let mut buf = [0u8; 11];
        assert_eq!(f.read(&mut buf, &clock).unwrap(), 11);
        assert_eq!(&buf, b"hello world");
    }

    #[test]
    fn append_mode_writes_at_end() {
        let (clock, f) = open_tmp(OpenFlags::RDWR | OpenFlags::APPEND);
        f.write(b"aaa", &clock).unwrap();
        f.seek(SeekFrom::Start(0), &clock).unwrap();
        f.write(b"bbb", &clock).unwrap();
        assert_eq!(f.stat(&clock).unwrap().size, 6);
    }

    #[test]
    fn seek_variants() {
        let (clock, f) = open_tmp(OpenFlags::RDWR);
        f.write(b"0123456789", &clock).unwrap();
        assert_eq!(f.seek(SeekFrom::End(-4), &clock).unwrap(), 6);
        assert_eq!(f.seek(SeekFrom::Current(2), &clock).unwrap(), 8);
        assert!(f.seek(SeekFrom::Current(-100), &clock).is_err());
    }

    #[test]
    fn double_close_is_bad_fd() {
        let (clock, f) = open_tmp(OpenFlags::RDWR);
        f.close(&clock).unwrap();
        assert!(matches!(f.close(&clock), Err(IoError::BadFd(_))));
    }

    #[test]
    fn read_at_eof_is_short() {
        let (clock, f) = open_tmp(OpenFlags::RDWR);
        f.write(b"xy", &clock).unwrap();
        f.seek(SeekFrom::Start(1), &clock).unwrap();
        let mut buf = [0u8; 8];
        assert_eq!(f.read(&mut buf, &clock).unwrap(), 1);
        assert_eq!(buf[0], b'y');
        assert_eq!(f.read(&mut buf, &clock).unwrap(), 0);
    }
}
