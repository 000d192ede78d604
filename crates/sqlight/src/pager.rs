use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use simclock::ActorClock;
use vfs::{Fd, FileSystem, OpenFlags};

use crate::{SqlError, SqlResult};

/// Database page size (SQLite's modern default).
pub(crate) const PAGE_SIZE: usize = 4096;

const JOURNAL_MAGIC: u64 = u64::from_le_bytes(*b"SQLJRNL1");

/// The pager: page-granular access to the database file with rollback-
/// journal transactions (SQLite `journal_mode=DELETE`).
///
/// Commit protocol, exactly the sequence whose fsyncs dominate the paper's
/// SQLite numbers:
///
/// 1. append original images of all written pages to `<db>-journal`;
/// 2. write the journal header (count), `fsync` the journal;
/// 3. write the dirty pages into the database file;
/// 4. `fsync` the database;
/// 5. unlink the journal — the commit point.
///
/// On open, a leftover journal with a valid header is *hot*: the pager rolls
/// the original images back before serving any read.
pub(crate) struct Pager {
    fs: Arc<dyn FileSystem>,
    path: String,
    journal_path: String,
    fd: Fd,
    /// Page cache, indexed by page number; sqlight keeps every touched page
    /// resident (the paper's databases fit the benchmark working set).
    cache: Vec<Option<Vec<u8>>>,
    page_count: u32,
    /// Transaction state. `txn_pages` is the page count at `begin`: the
    /// pages from there on are the transaction's own, and a rollback gives
    /// them back.
    in_txn: bool,
    txn_pages: u32,
    journaled: BTreeMap<u32, Vec<u8>>,
    dirty: BTreeSet<u32>,
    journal_off: u64,
    /// Whether commits fsync (`PRAGMA synchronous=FULL` vs `OFF`).
    pub synchronous: bool,
}

impl std::fmt::Debug for Pager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pager")
            .field("path", &self.path)
            .field("pages", &self.page_count)
            .field("in_txn", &self.in_txn)
            .finish()
    }
}

impl Pager {
    /// Opens (or creates) the database file, rolling back a hot journal if
    /// one is present.
    pub fn open(
        fs: Arc<dyn FileSystem>,
        path: &str,
        synchronous: bool,
        clock: &ActorClock,
    ) -> SqlResult<Pager> {
        let path = vfs::normalize_path(path);
        let journal_path = format!("{path}-journal");
        let fd = fs.open(&path, OpenFlags::RDWR | OpenFlags::CREATE, clock)?;
        let size = fs.fstat(fd, clock)?.size;
        let mut pager = Pager {
            fs,
            path,
            journal_path,
            fd,
            cache: Vec::new(),
            page_count: (size / PAGE_SIZE as u64) as u32,
            in_txn: false,
            txn_pages: 0,
            journaled: BTreeMap::new(),
            dirty: BTreeSet::new(),
            journal_off: 0,
            synchronous,
        };
        pager.recover_hot_journal(clock)?;
        Ok(pager)
    }

    fn recover_hot_journal(&mut self, clock: &ActorClock) -> SqlResult<()> {
        let jfd = match self.fs.open(&self.journal_path, OpenFlags::RDONLY, clock) {
            Ok(fd) => fd,
            Err(vfs::IoError::NotFound(_)) => return Ok(()),
            Err(e) => return Err(e.into()),
        };
        let jsize = self.fs.fstat(jfd, clock)?.size;
        if jsize >= 16 {
            let mut header = [0u8; 16];
            self.fs.pread(jfd, &mut header, 0, clock)?;
            let magic = u64::from_le_bytes(header[0..8].try_into().expect("8 bytes"));
            let count = u32::from_le_bytes(header[8..12].try_into().expect("4 bytes"));
            if magic == JOURNAL_MAGIC {
                let mut off = 16u64;
                for _ in 0..count {
                    let mut rec_hdr = [0u8; 4];
                    if self.fs.pread(jfd, &mut rec_hdr, off, clock)? < 4 {
                        break; // torn record: stop rollback here
                    }
                    let page_no = u32::from_le_bytes(rec_hdr);
                    let mut original = vec![0u8; PAGE_SIZE];
                    if self.fs.pread(jfd, &mut original, off + 4, clock)? < PAGE_SIZE {
                        break;
                    }
                    self.fs.pwrite(self.fd, &original, page_no as u64 * PAGE_SIZE as u64, clock)?;
                    off += 4 + PAGE_SIZE as u64;
                }
                if self.synchronous {
                    self.fs.fsync(self.fd, clock)?;
                }
            }
        }
        self.fs.close(jfd, clock)?;
        self.fs.unlink(&self.journal_path, clock)?;
        Ok(())
    }

    /// Current number of pages.
    pub fn page_count(&self) -> u32 {
        self.page_count
    }

    /// Whether a transaction is active.
    pub fn in_txn(&self) -> bool {
        self.in_txn
    }

    /// Starts a transaction.
    ///
    /// # Errors
    ///
    /// [`SqlError::TxnState`] on nested begin.
    pub fn begin(&mut self) -> SqlResult<()> {
        if self.in_txn {
            return Err(SqlError::TxnState("transaction already active".into()));
        }
        self.in_txn = true;
        self.txn_pages = self.page_count;
        self.journaled.clear();
        self.dirty.clear();
        self.journal_off = 16; // space for the header
        Ok(())
    }

    /// Reads page `page_no` (from cache, else the file).
    pub fn read_page(&mut self, page_no: u32, clock: &ActorClock) -> SqlResult<&Vec<u8>> {
        // CPU cost of the pager lookup + cell decoding (SQLite does this on
        // every page touch; hits don't reach the kernel).
        clock.advance(simclock::SimTime::from_nanos(350));
        if self.cached(page_no).is_none() {
            let mut buf = vec![0u8; PAGE_SIZE];
            if page_no < self.page_count {
                self.fs.pread(self.fd, &mut buf, page_no as u64 * PAGE_SIZE as u64, clock)?;
            }
            self.cache_page(page_no, buf);
        }
        Ok(self.cached(page_no).expect("just inserted"))
    }

    fn cached(&self, page_no: u32) -> Option<&Vec<u8>> {
        self.cache.get(page_no as usize)?.as_ref()
    }

    fn cache_page(&mut self, page_no: u32, page: Vec<u8>) {
        let i = page_no as usize;
        if i >= self.cache.len() {
            self.cache.resize_with(i + 1, || None);
        }
        self.cache[i] = Some(page);
    }

    /// Modifies page `page_no` inside the active transaction, journaling the
    /// original image on first touch.
    ///
    /// # Errors
    ///
    /// [`SqlError::TxnState`] outside a transaction.
    pub fn write_page(
        &mut self,
        page_no: u32,
        clock: &ActorClock,
        f: impl FnOnce(&mut [u8]),
    ) -> SqlResult<()> {
        if !self.in_txn {
            return Err(SqlError::TxnState("write outside a transaction".into()));
        }
        self.read_page(page_no, clock)?; // populate the cache
        let preexisting = page_no < self.page_count;
        if preexisting && !self.journaled.contains_key(&page_no) {
            let original = self.cached(page_no).expect("cached").clone();
            // Append the original image to the journal file now (SQLite
            // journals eagerly, syncs at commit).
            let jfd =
                self.fs.open(&self.journal_path, OpenFlags::RDWR | OpenFlags::CREATE, clock)?;
            let mut rec = Vec::with_capacity(4 + PAGE_SIZE);
            rec.extend_from_slice(&page_no.to_le_bytes());
            rec.extend_from_slice(&original);
            self.fs.pwrite(jfd, &rec, self.journal_off, clock)?;
            self.fs.close(jfd, clock)?;
            self.journal_off += rec.len() as u64;
            self.journaled.insert(page_no, original);
        }
        let page = self.cache[page_no as usize].as_mut().expect("cached");
        f(page);
        self.dirty.insert(page_no);
        if page_no >= self.page_count {
            self.page_count = page_no + 1;
        }
        Ok(())
    }

    /// Allocates a fresh page at the end of the file.
    pub fn alloc_page(&mut self) -> u32 {
        let p = self.page_count;
        self.page_count = p + 1;
        self.cache_page(p, vec![0u8; PAGE_SIZE]);
        p
    }

    /// Commits the active transaction (see type docs for the protocol).
    ///
    /// # Errors
    ///
    /// [`SqlError::TxnState`] without an active transaction; I/O errors.
    pub fn commit(&mut self, clock: &ActorClock) -> SqlResult<()> {
        if !self.in_txn {
            return Err(SqlError::TxnState("commit without begin".into()));
        }
        if self.dirty.is_empty() {
            self.in_txn = false;
            return Ok(());
        }
        // 1-2: finalize + sync the journal (only if it has content).
        if !self.journaled.is_empty() {
            let jfd =
                self.fs.open(&self.journal_path, OpenFlags::RDWR | OpenFlags::CREATE, clock)?;
            let mut header = Vec::with_capacity(16);
            header.extend_from_slice(&JOURNAL_MAGIC.to_le_bytes());
            header.extend_from_slice(&(self.journaled.len() as u32).to_le_bytes());
            header.extend_from_slice(&[0u8; 4]);
            self.fs.pwrite(jfd, &header, 0, clock)?;
            if self.synchronous {
                self.fs.fsync(jfd, clock)?;
            }
            self.fs.close(jfd, clock)?;
        }
        // 3-4: write dirty pages, sync the database.
        for &page_no in &self.dirty {
            let page = self.cached(page_no).expect("dirty pages are cached");
            self.fs.pwrite(self.fd, page, page_no as u64 * PAGE_SIZE as u64, clock)?;
        }
        if self.synchronous {
            self.fs.fsync(self.fd, clock)?;
        }
        // 5: delete the journal — the commit point.
        if !self.journaled.is_empty() {
            self.fs.unlink(&self.journal_path, clock)?;
        }
        self.in_txn = false;
        self.journaled.clear();
        self.dirty.clear();
        Ok(())
    }

    /// Rolls the active transaction back from the in-memory originals and
    /// gives back the pages it allocated.
    ///
    /// # Errors
    ///
    /// [`SqlError::TxnState`] without an active transaction.
    pub fn rollback(&mut self, clock: &ActorClock) -> SqlResult<()> {
        if !self.in_txn {
            return Err(SqlError::TxnState("rollback without begin".into()));
        }
        for (page_no, original) in std::mem::take(&mut self.journaled) {
            self.cache_page(page_no, original);
        }
        self.dirty.clear();
        self.page_count = self.txn_pages;
        self.cache.truncate(self.txn_pages as usize);
        match self.fs.unlink(&self.journal_path, clock) {
            Ok(()) | Err(vfs::IoError::NotFound(_)) => {}
            Err(e) => return Err(e.into()),
        }
        self.in_txn = false;
        Ok(())
    }

    /// Closes the database file.
    ///
    /// # Errors
    ///
    /// Propagates the close error.
    pub fn close(self, clock: &ActorClock) -> SqlResult<()> {
        self.fs.close(self.fd, clock)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vfs::MemFs;

    fn pager() -> (ActorClock, Arc<dyn FileSystem>, Pager) {
        let c = ActorClock::new();
        let fs: Arc<dyn FileSystem> = Arc::new(MemFs::new());
        let p = Pager::open(Arc::clone(&fs), "/t.db", true, &c).unwrap();
        (c, fs, p)
    }

    #[test]
    fn write_commit_read_back() {
        let (c, fs, mut p) = pager();
        p.begin().unwrap();
        let pg = p.alloc_page();
        p.write_page(pg, &c, |b| b[0..4].copy_from_slice(b"data")).unwrap();
        p.commit(&c).unwrap();
        p.close(&c).unwrap();
        let mut p2 = Pager::open(fs, "/t.db", true, &c).unwrap();
        assert_eq!(&p2.read_page(pg, &c).unwrap()[0..4], b"data");
    }

    #[test]
    fn rollback_restores_originals() {
        let (c, _fs, mut p) = pager();
        p.begin().unwrap();
        let pg = p.alloc_page();
        p.write_page(pg, &c, |b| b[0] = 1).unwrap();
        p.commit(&c).unwrap();
        p.begin().unwrap();
        p.write_page(pg, &c, |b| b[0] = 2).unwrap();
        p.rollback(&c).unwrap();
        assert_eq!(p.read_page(pg, &c).unwrap()[0], 1);
    }

    /// The pages a rolled-back transaction allocated are free again: the
    /// next allocation reuses them instead of leaving a hole in the file.
    #[test]
    fn rollback_gives_back_the_pages_its_transaction_allocated() {
        let (c, _fs, mut p) = pager();
        p.begin().unwrap();
        let first = p.alloc_page();
        p.write_page(first, &c, |b| b[0] = 1).unwrap();
        p.commit(&c).unwrap();
        p.begin().unwrap();
        let fresh = p.alloc_page();
        p.write_page(fresh, &c, |b| b[0] = 2).unwrap();
        p.rollback(&c).unwrap();
        assert_eq!(p.page_count(), 1);
        p.begin().unwrap();
        assert_eq!(p.alloc_page(), fresh, "the rolled-back page is handed out again");
        assert_eq!(p.read_page(fresh, &c).unwrap()[0], 0, "none of its rolled-back bytes");
        assert_eq!(p.read_page(first, &c).unwrap()[0], 1);
    }

    #[test]
    fn hot_journal_rolls_back_on_open() {
        let c = ActorClock::new();
        let fs: Arc<dyn FileSystem> = Arc::new(MemFs::new());
        {
            let mut p = Pager::open(Arc::clone(&fs), "/hot.db", true, &c).unwrap();
            p.begin().unwrap();
            let pg = p.alloc_page();
            p.write_page(pg, &c, |b| b[0] = 0xAA).unwrap();
            p.commit(&c).unwrap();
            // Start a second transaction and simulate a crash after the
            // journal was finalized and the db partially overwritten.
            p.begin().unwrap();
            p.write_page(pg, &c, |b| b[0] = 0xBB).unwrap();
            // Hand-finalize the journal header as commit() would.
            let jfd = fs.open("/hot.db-journal", OpenFlags::RDWR, &c).unwrap();
            let mut header = Vec::new();
            header.extend_from_slice(&JOURNAL_MAGIC.to_le_bytes());
            header.extend_from_slice(&1u32.to_le_bytes());
            header.extend_from_slice(&[0u8; 4]);
            fs.pwrite(jfd, &header, 0, &c).unwrap();
            fs.close(jfd, &c).unwrap();
            // Partially apply the transaction to the db file directly.
            let dfd = fs.open("/hot.db", OpenFlags::RDWR, &c).unwrap();
            fs.pwrite(dfd, &[0xBB], pg as u64 * PAGE_SIZE as u64, &c).unwrap();
            fs.close(dfd, &c).unwrap();
            // "Crash": drop the pager without commit.
        }
        let c2 = ActorClock::new();
        let mut p = Pager::open(Arc::clone(&fs), "/hot.db", true, &c2).unwrap();
        assert_eq!(p.read_page(0, &c2).unwrap()[0], 0xAA, "hot journal must roll back");
        assert!(fs.stat("/hot.db-journal", &c2).is_err(), "journal must be gone");
    }

    #[test]
    fn txn_misuse_is_rejected() {
        let (c, _fs, mut p) = pager();
        assert!(matches!(p.commit(&c), Err(SqlError::TxnState(_))));
        p.begin().unwrap();
        assert!(matches!(p.begin(), Err(SqlError::TxnState(_))));
        assert!(matches!(
            {
                let r = p.rollback(&c);
                r.and_then(|_| p.rollback(&c))
            },
            Err(SqlError::TxnState(_))
        ));
    }

    #[test]
    fn write_outside_txn_fails() {
        let (c, _fs, mut p) = pager();
        let pg = p.alloc_page();
        assert!(matches!(p.write_page(pg, &c, |_| {}), Err(SqlError::TxnState(_))));
    }

    #[test]
    fn empty_commit_is_cheap() {
        let (c, fs, mut p) = pager();
        p.begin().unwrap();
        p.commit(&c).unwrap();
        assert!(fs.stat("/t.db-journal", &c).is_err());
    }
}
