use simclock::ActorClock;

use crate::{FileSystem, IoError, OpenFlags};

/// Exercises the POSIX semantics every [`FileSystem`] implementation must
/// share, panicking on any deviation.
///
/// Run by each implementation's test suite and — crucially — by NVCache's
/// tests, since the paper's whole premise is that NVCache is a drop-in layer
/// legacy applications cannot distinguish from the kernel (Table III).
///
/// # Panics
///
/// Panics with a description of the first violated expectation.
pub fn check_posix_semantics(fs: &dyn FileSystem) {
    let c = ActorClock::new();

    // -- open/create semantics ------------------------------------------
    assert!(
        matches!(fs.open("/conf/missing", OpenFlags::RDONLY, &c), Err(IoError::NotFound(_))),
        "open of a missing file without O_CREAT must fail with NotFound"
    );
    let fd = fs
        .open("/conf/a", OpenFlags::RDWR | OpenFlags::CREATE, &c)
        .expect("create must succeed");
    assert!(
        matches!(
            fs.open("/conf/a", OpenFlags::RDWR | OpenFlags::CREATE | OpenFlags::EXCL, &c),
            Err(IoError::AlreadyExists(_))
        ),
        "O_CREAT|O_EXCL on an existing file must fail"
    );

    // -- positional read/write ------------------------------------------
    assert_eq!(fs.pwrite(fd, b"hello world", 0, &c).expect("pwrite"), 11);
    let mut buf = [0u8; 5];
    assert_eq!(fs.pread(fd, &mut buf, 6, &c).expect("pread"), 5);
    assert_eq!(&buf, b"world", "read must observe the write (read-your-writes)");

    // Overwrite in the middle.
    fs.pwrite(fd, b"WORLD", 6, &c).expect("overwrite");
    let mut all = [0u8; 11];
    fs.pread(fd, &mut all, 0, &c).expect("read all");
    assert_eq!(&all, b"hello WORLD");

    // Short read at EOF; read past EOF returns 0.
    let mut big = [0u8; 64];
    assert_eq!(fs.pread(fd, &mut big, 6, &c).unwrap(), 5);
    assert_eq!(fs.pread(fd, &mut big, 100, &c).unwrap(), 0);

    // Sparse extension zero-fills the hole.
    fs.pwrite(fd, b"!", 63, &c).expect("sparse write");
    assert_eq!(fs.fstat(fd, &c).unwrap().size, 64);
    let mut hole = [7u8; 8];
    fs.pread(fd, &mut hole, 20, &c).unwrap();
    assert_eq!(hole, [0u8; 8], "holes must read as zeroes");

    // -- metadata ---------------------------------------------------------
    let st = fs.stat("/conf/a", &c).expect("stat by path");
    let fst = fs.fstat(fd, &c).expect("fstat");
    assert_eq!(st.ino, fst.ino, "stat and fstat must agree on the inode");
    assert_eq!(st.size, 64);
    assert!(!st.is_dir, "a file is not a directory");
    assert!(fs.stat("/conf", &c).expect("dir stat").is_dir);

    // -- fsync + durability contract --------------------------------------
    fs.fsync(fd, &c).expect("fsync");

    // -- truncate ----------------------------------------------------------
    fs.ftruncate(fd, 5, &c).expect("ftruncate");
    assert_eq!(fs.fstat(fd, &c).unwrap().size, 5);
    let mut t = [0u8; 16];
    assert_eq!(fs.pread(fd, &mut t, 0, &c).unwrap(), 5);
    assert_eq!(&t[..5], b"hello");

    // -- permission enforcement -------------------------------------------
    let ro = fs.open("/conf/a", OpenFlags::RDONLY, &c).unwrap();
    assert!(fs.pwrite(ro, b"x", 0, &c).is_err(), "writing a read-only descriptor must fail");
    let wo = fs.open("/conf/a", OpenFlags::WRONLY, &c).unwrap();
    let mut one = [0u8; 1];
    assert!(fs.pread(wo, &mut one, 0, &c).is_err(), "reading a write-only descriptor must fail");
    fs.close(ro, &c).unwrap();
    fs.close(wo, &c).unwrap();

    // -- rename / unlink / list_dir ----------------------------------------
    fs.rename("/conf/a", "/conf/b", &c).expect("rename");
    assert!(matches!(fs.stat("/conf/a", &c), Err(IoError::NotFound(_))));
    assert_eq!(fs.stat("/conf/b", &c).unwrap().size, 5);
    let listing = fs.list_dir("/conf", &c).expect("list_dir");
    assert_eq!(listing, vec!["/conf/b".to_string()]);

    // -- close semantics -----------------------------------------------------
    fs.close(fd, &c).expect("close");
    assert!(
        matches!(fs.close(fd, &c), Err(IoError::BadFd(_))),
        "double close must fail with BadFd"
    );
    let mut z = [0u8; 1];
    assert!(matches!(fs.pread(fd, &mut z, 0, &c), Err(IoError::BadFd(_))));

    fs.unlink("/conf/b", &c).expect("unlink");
    assert!(matches!(fs.stat("/conf/b", &c), Err(IoError::NotFound(_))));
    assert!(matches!(fs.unlink("/conf/b", &c), Err(IoError::NotFound(_))));

    // -- a file lives until its name and its last descriptor are gone --------
    let flags = OpenFlags::RDWR | OpenFlags::CREATE;
    let read_all = |fd, len: usize| {
        let mut buf = vec![0u8; len + 1];
        let n = fs.pread(fd, &mut buf, 0, &c).expect("pread");
        buf.truncate(n);
        buf
    };
    let tmp = fs.open("/conf/tmp", flags, &c).expect("create tmp");
    let mine: Vec<u8> = (0..8192u32).map(|i| (i % 251) as u8).collect();
    assert_eq!(fs.pwrite(tmp, &mine, 0, &c).expect("pwrite tmp"), 8192);
    fs.fsync(tmp, &c).expect("fsync tmp");
    fs.unlink("/conf/tmp", &c).expect("unlink an open file");
    assert!(matches!(fs.stat("/conf/tmp", &c), Err(IoError::NotFound(_))));
    let other = fs.open("/conf/other", flags, &c).expect("create other");
    let theirs = vec![0xB7u8; 8192];
    fs.pwrite(other, &theirs, 0, &c).expect("pwrite other");
    assert_eq!(read_all(tmp, 8192), mine, "an unlinked file keeps its bytes while it is open");
    assert_eq!(fs.pwrite(tmp, b"late", 8192, &c).expect("write to an unlinked file"), 4);
    assert_eq!(fs.fstat(tmp, &c).expect("fstat of an unlinked file").size, 8196);
    assert_eq!(read_all(other, 8192), theirs, "two files must not share storage");

    let third = fs.open("/conf/third", flags, &c).expect("create third");
    fs.pwrite(third, b"replacement", 0, &c).expect("pwrite third");
    fs.rename("/conf/third", "/conf/other", &c).expect("rename over an open file");
    assert_eq!(read_all(other, 8192), theirs, "the replaced file lives on behind its descriptor");
    assert_eq!(fs.stat("/conf/other", &c).expect("stat the new name").size, 11);
    for fd in [tmp, other, third] {
        fs.close(fd, &c).expect("close");
    }
    fs.unlink("/conf/other", &c).expect("unlink");
    assert!(
        matches!(fs.stat("/conf", &c), Err(IoError::NotFound(_))),
        "an implicit directory is gone with its last file"
    );

    // -- whole-fs sync must not error ---------------------------------------
    fs.sync(&c).expect("sync");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DaxFs, DaxProfile, Ext4, Ext4Profile, MemFs, NovaFs, NovaProfile};
    use blockdev::{BlockDevice, DmWriteCacheDev, DmWriteCacheProfile, SsdDevice, SsdProfile};
    use nvmm::{NvDimm, NvRegion, NvmmProfile};
    use std::sync::Arc;

    #[test]
    fn memfs_conforms() {
        check_posix_semantics(&MemFs::new());
    }

    #[test]
    fn ext4_ssd_conforms() {
        let ssd = Arc::new(SsdDevice::new(SsdProfile::s4600()));
        check_posix_semantics(&Ext4::new("ext4+ssd", ssd, Ext4Profile::default()));
    }

    #[test]
    fn ext4_dmwritecache_conforms() {
        let ssd: Arc<dyn BlockDevice> = Arc::new(SsdDevice::new(SsdProfile::s4600()));
        let dimm = Arc::new(NvDimm::new(32 << 20, NvmmProfile::optane()));
        let dm = Arc::new(DmWriteCacheDev::new(
            ssd,
            NvRegion::whole(dimm),
            DmWriteCacheProfile::default(),
        ));
        check_posix_semantics(&Ext4::new("ext4+dmwc", dm, Ext4Profile::default()));
    }

    #[test]
    fn dax_conforms() {
        let dimm = Arc::new(NvDimm::new(32 << 20, NvmmProfile::optane()));
        check_posix_semantics(&DaxFs::new(NvRegion::whole(dimm), DaxProfile::default()));
    }

    #[test]
    fn nova_conforms() {
        let dimm = Arc::new(NvDimm::new(32 << 20, NvmmProfile::optane()));
        check_posix_semantics(&NovaFs::new(NvRegion::whole(dimm), NovaProfile::default()));
    }
}
