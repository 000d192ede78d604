//! [`CryptLayer`]: simulated-fidelity encryption-at-rest with per-page
//! authentication tags.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use simclock::ActorClock;

use super::Layer;
use crate::{normalize_path, Fd, FileSystem, IoError, IoResult, Metadata, OpenFlags};

/// Suffix of the hidden per-file tag sidecar (one 8-byte tag per page).
const TAG_SUFFIX: &str = ".#crypt-tags";

/// The seal/verify granularity: one keystream, one tag per 4 KiB page.
const PAGE: u64 = 4096;

/// Deterministic snapshot of a [`CryptLayer`]'s counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CryptStats {
    /// Pages encrypted and (re-)tagged on the write path.
    pub pages_sealed: u64,
    /// Pages whose tag verified and which were decrypted on the read path.
    pub pages_opened: u64,
    /// Pages whose stored tag failed verification (tampering detected).
    pub tamper_detected: u64,
}

#[derive(Debug, Default)]
struct Counters {
    pages_sealed: AtomicU64,
    pages_opened: AtomicU64,
    tamper_detected: AtomicU64,
}

/// A [`Layer`] modelling encryption-at-rest: stored bytes are XORed with a
/// keyed per-page keystream, and every page carries an authentication tag
/// in a hidden sidecar file, verified on read.
///
/// The cipher is **simulated-fidelity** — a keyed XOR keystream plus a
/// keyed 64-bit tag, not real cryptography — but it reproduces the
/// *system-level* properties of AEAD disk encryption that matter to the
/// stack above:
///
/// * the inner file system only ever sees ciphertext (content at rest is
///   unintelligible without the key);
/// * any modification of stored bytes behind the layer's back is detected
///   on the next read of the affected page
///   ([`CryptStats::tamper_detected`]);
/// * partial-page writes pay a read-modify-write, and sizes/offsets are
///   otherwise preserved (XOR is length-preserving), so `fstat`, sparse
///   holes and truncation keep exact POSIX semantics.
///
/// The **write path is verify-free**: read-modify-write trusts the
/// positional keystream instead of the stored tag, so crash-torn states
/// (data page durable, tag write lost, or vice versa) are self-healing —
/// replaying the acknowledged writes over the torn pages recomputes
/// consistent tags. Tampering on a never-rewritten page is therefore
/// reported at read time, which is when the damaged bytes could first leak
/// into the application.
///
/// A page whose stored tag is zero (sidecar hole) is a **plaintext hole**
/// and reads as zeroes — sparse files keep POSIX semantics without
/// encrypting untouched pages.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use simclock::ActorClock;
/// use vfs::{CryptLayer, FileSystem, Layer, MemFs, OpenFlags};
///
/// let layer = CryptLayer::new(0xDEADBEEF);
/// let inner = Arc::new(MemFs::new());
/// let fs = layer.wrap(inner.clone());
/// let clock = ActorClock::new();
/// let fd = fs.open("/secret", OpenFlags::RDWR | OpenFlags::CREATE, &clock).unwrap();
/// fs.pwrite(fd, b"plaintext", 0, &clock).unwrap();
/// let mut through = [0u8; 9];
/// fs.pread(fd, &mut through, 0, &clock).unwrap();
/// assert_eq!(&through, b"plaintext"); // transparent through the layer…
/// let raw = inner.open("/secret", OpenFlags::RDONLY, &clock).unwrap();
/// let mut at_rest = [0u8; 9];
/// inner.pread(raw, &mut at_rest, 0, &clock).unwrap();
/// assert_ne!(&at_rest, b"plaintext"); // …ciphertext at rest below it.
/// ```
#[derive(Debug)]
pub struct CryptLayer {
    key: u64,
    counters: Arc<Counters>,
}

impl CryptLayer {
    /// An active layer encrypting with `key` over 4 KiB pages.
    pub fn new(key: u64) -> Self {
        CryptLayer { key, counters: Arc::new(Counters::default()) }
    }

    /// Deterministic counters: pages sealed/opened and tampering events.
    pub fn stats(&self) -> CryptStats {
        CryptStats {
            pages_sealed: self.counters.pages_sealed.load(Ordering::Acquire),
            pages_opened: self.counters.pages_opened.load(Ordering::Acquire),
            tamper_detected: self.counters.tamper_detected.load(Ordering::Acquire),
        }
    }
}

impl Layer for CryptLayer {
    fn name(&self) -> &str {
        "crypt"
    }

    fn wrap(&self, inner: Arc<dyn FileSystem>) -> Arc<dyn FileSystem> {
        Arc::new(CryptFs {
            name: format!("crypt({})", inner.name()),
            key: self.key,
            counters: Arc::clone(&self.counters),
            fds: Mutex::new(HashMap::new()),
            locks: Mutex::new(HashMap::new()),
            inner,
        })
    }
}

/// splitmix64 — the keyed PRF behind the keystream and the tag mask.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a over a byte slice (the integrity checksum under the tag mask).
fn fnv1a64(data: &[u8]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for &b in data {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

struct CryptFdEntry {
    path: String,
    flags: OpenFlags,
    tag_fd: Fd,
    lock: Arc<Mutex<()>>,
}

struct CryptFs {
    name: String,
    key: u64,
    counters: Arc<Counters>,
    fds: Mutex<HashMap<u64, Arc<CryptFdEntry>>>,
    /// One lock per open path: read-modify-write must be atomic per file
    /// (POSIX read/write atomicity).
    locks: Mutex<HashMap<String, Arc<Mutex<()>>>>,
    inner: Arc<dyn FileSystem>,
}

fn tag_path(path: &str) -> String {
    format!("{path}{TAG_SUFFIX}")
}

fn is_tag_path(path: &str) -> bool {
    path.ends_with(TAG_SUFFIX)
}

impl CryptFs {
    /// XORs `buf` (page-local offset 0) with the keystream of `page_no`.
    fn xor_keystream(&self, page_no: u64, buf: &mut [u8]) {
        for (i, chunk) in buf.chunks_mut(8).enumerate() {
            let ks =
                splitmix64(self.key ^ page_no.wrapping_mul(0xA24B_AED4_963E_E407) ^ (i as u64))
                    .to_le_bytes();
            for (b, k) in chunk.iter_mut().zip(ks.iter()) {
                *b ^= k;
            }
        }
    }

    /// The authentication tag over a page's ciphertext. Keyed and
    /// page-bound (a valid page copied to another page number fails), and
    /// never zero — zero is the hole sentinel.
    fn tag_of(&self, page_no: u64, cipher: &[u8]) -> u64 {
        (fnv1a64(cipher)
            ^ splitmix64(self.key ^ page_no.wrapping_mul(0x9FB2_1C65_1E98_DF25) ^ 0x7461_6773))
            | 1
    }

    fn entry(&self, fd: Fd) -> IoResult<Arc<CryptFdEntry>> {
        self.fds.lock().get(&fd.0).cloned().ok_or(IoError::BadFd(fd.0))
    }

    fn read_tag(&self, tag_fd: Fd, page_no: u64, clock: &ActorClock) -> IoResult<u64> {
        let mut buf = [0u8; 8];
        let n = self.inner.pread(tag_fd, &mut buf, page_no * 8, clock)?;
        if n < 8 {
            return Ok(0); // sidecar hole / short file = untagged hole page
        }
        Ok(u64::from_le_bytes(buf))
    }

    fn write_tag(&self, tag_fd: Fd, page_no: u64, tag: u64, clock: &ActorClock) -> IoResult<()> {
        self.inner.pwrite(tag_fd, &tag.to_le_bytes(), page_no * 8, clock)?;
        Ok(())
    }

    /// Reads and decrypts the `avail` stored bytes of `page_no`, verifying
    /// the tag. A zero tag is a hole: `avail` zeroes without touching the
    /// stored bytes.
    fn open_page(
        &self,
        e: &CryptFdEntry,
        data_fd: Fd,
        page_no: u64,
        avail: usize,
        clock: &ActorClock,
    ) -> IoResult<Vec<u8>> {
        let tag = self.read_tag(e.tag_fd, page_no, clock)?;
        if tag == 0 {
            return Ok(vec![0u8; avail]);
        }
        let mut buf = vec![0u8; avail];
        self.inner.pread(data_fd, &mut buf, page_no * PAGE, clock)?;
        if self.tag_of(page_no, &buf) != tag {
            self.counters.tamper_detected.fetch_add(1, Ordering::AcqRel);
            return Err(IoError::Other(format!(
                "crypt: page {page_no} of {} failed authentication (tampered or corrupt)",
                e.path
            )));
        }
        self.xor_keystream(page_no, &mut buf);
        self.counters.pages_opened.fetch_add(1, Ordering::AcqRel);
        Ok(buf)
    }

    /// Decrypts the stored prefix of a page for read-modify-write
    /// **without verification** (see the type-level docs: the write path
    /// must self-heal crash-torn tag/data pairs).
    fn open_page_unverified(
        &self,
        e: &CryptFdEntry,
        data_fd: Fd,
        page_no: u64,
        avail: usize,
        clock: &ActorClock,
    ) -> IoResult<Vec<u8>> {
        let tag = self.read_tag(e.tag_fd, page_no, clock)?;
        if tag == 0 {
            return Ok(vec![0u8; avail]);
        }
        let mut buf = vec![0u8; avail];
        self.inner.pread(data_fd, &mut buf, page_no * PAGE, clock)?;
        self.xor_keystream(page_no, &mut buf);
        Ok(buf)
    }

    /// Encrypts `plain` as the full new content of `page_no`, writes it
    /// and its tag.
    fn seal_page(
        &self,
        e: &CryptFdEntry,
        data_fd: Fd,
        page_no: u64,
        plain: &mut [u8],
        clock: &ActorClock,
    ) -> IoResult<()> {
        self.xor_keystream(page_no, plain);
        self.inner.pwrite(data_fd, plain, page_no * PAGE, clock)?;
        let tag = self.tag_of(page_no, plain);
        self.write_tag(e.tag_fd, page_no, tag, clock)?;
        self.counters.pages_sealed.fetch_add(1, Ordering::AcqRel);
        Ok(())
    }

    /// The file grows from `old`, inside a tagged page, to `len`: what the
    /// inner file system zero-fills behind `old` is wrong ciphertext for
    /// plaintext zeroes, and the page's tag covers only the old prefix —
    /// re-encrypt the page with its zero extension.
    fn reseal_grown_tail(
        &self,
        e: &CryptFdEntry,
        data_fd: Fd,
        old: u64,
        len: u64,
        clock: &ActorClock,
    ) -> IoResult<()> {
        let page_no = old / PAGE;
        if self.read_tag(e.tag_fd, page_no, clock)? != 0 {
            let old_avail = (old - page_no * PAGE) as usize;
            let new_avail = (len - page_no * PAGE).min(PAGE) as usize;
            let mut plain = self.open_page_unverified(e, data_fd, page_no, old_avail, clock)?;
            plain.resize(new_avail, 0);
            self.seal_page(e, data_fd, page_no, &mut plain, clock)?;
        }
        Ok(())
    }

    fn file_size(&self, data_fd: Fd, clock: &ActorClock) -> IoResult<u64> {
        Ok(self.inner.fstat(data_fd, clock)?.size)
    }
}

impl FileSystem for CryptFs {
    fn name(&self) -> &str {
        &self.name
    }

    fn open(&self, path: &str, flags: OpenFlags, clock: &ActorClock) -> IoResult<Fd> {
        let path = normalize_path(path);
        if is_tag_path(&path) {
            return Err(IoError::InvalidArgument(format!(
                "crypt: {path} is a reserved tag-sidecar name"
            )));
        }
        // Writable opens need inner read access for read-modify-write; the
        // layer itself enforces the caller's access mode.
        let mut inner_flags = if flags.writable() { OpenFlags::RDWR } else { OpenFlags::RDONLY };
        for bit in [OpenFlags::CREATE, OpenFlags::EXCL, OpenFlags::TRUNC, OpenFlags::APPEND] {
            if flags.contains(bit) {
                inner_flags |= bit;
            }
        }
        let data_fd = self.inner.open(&path, inner_flags, clock)?;
        let tag_fd =
            match self.inner.open(&tag_path(&path), OpenFlags::RDWR | OpenFlags::CREATE, clock) {
                Ok(fd) => fd,
                Err(e) => {
                    let _ = self.inner.close(data_fd, clock);
                    return Err(e);
                }
            };
        if flags.contains(OpenFlags::TRUNC) && flags.writable() {
            // The inner open already truncated the data; drop the tags too.
            self.inner.ftruncate(tag_fd, 0, clock)?;
        }
        let lock = Arc::clone(
            self.locks
                .lock()
                .entry(path.clone())
                .or_insert_with(|| Arc::new(Mutex::new(()))),
        );
        self.fds
            .lock()
            .insert(data_fd.0, Arc::new(CryptFdEntry { path, flags, tag_fd, lock }));
        Ok(data_fd)
    }

    fn close(&self, fd: Fd, clock: &ActorClock) -> IoResult<()> {
        let e = self.fds.lock().remove(&fd.0).ok_or(IoError::BadFd(fd.0))?;
        let res = self.inner.close(fd, clock);
        let _ = self.inner.close(e.tag_fd, clock);
        // Drop the per-path lock when the last descriptor on it closes.
        let mut locks = self.locks.lock();
        if !self.fds.lock().values().any(|o| o.path == e.path) {
            locks.remove(&e.path);
        }
        res
    }

    fn pread(&self, fd: Fd, buf: &mut [u8], off: u64, clock: &ActorClock) -> IoResult<usize> {
        let e = self.entry(fd)?;
        if !e.flags.readable() {
            return Err(IoError::PermissionDenied("fd opened write-only".into()));
        }
        let _guard = e.lock.lock();
        let size = self.file_size(fd, clock)?;
        if off >= size || buf.is_empty() {
            return Ok(0);
        }
        let n = buf.len().min((size - off) as usize);
        let (first, last) = (off / PAGE, (off + n as u64 - 1) / PAGE);
        for page_no in first..=last {
            let base = page_no * PAGE;
            let avail = (size - base).min(PAGE) as usize;
            let plain = self.open_page(&e, fd, page_no, avail, clock)?;
            // Intersection of [off, off+n) with this page.
            let lo = off.max(base);
            let hi = (off + n as u64).min(base + avail as u64);
            buf[(lo - off) as usize..(hi - off) as usize]
                .copy_from_slice(&plain[(lo - base) as usize..(hi - base) as usize]);
        }
        Ok(n)
    }

    fn pwrite(&self, fd: Fd, data: &[u8], off: u64, clock: &ActorClock) -> IoResult<usize> {
        let e = self.entry(fd)?;
        if !e.flags.writable() {
            return Err(IoError::PermissionDenied("fd opened read-only".into()));
        }
        if data.is_empty() {
            return Ok(0);
        }
        let _guard = e.lock.lock();
        let size = self.file_size(fd, clock)?;
        let end = off + data.len() as u64;
        let (first, last) = (off / PAGE, (end - 1) / PAGE);
        if !size.is_multiple_of(PAGE) && first > size / PAGE {
            // The write starts beyond the partly filled last page, which so
            // becomes an inner page without being written.
            self.reseal_grown_tail(&e, fd, size, end, clock)?;
        }
        for page_no in first..=last {
            let base = page_no * PAGE;
            let old_in_page = size.saturating_sub(base).min(PAGE) as usize;
            // This write's extent within the page.
            let w_lo = (off.max(base) - base) as usize;
            let w_hi = (end.min(base + PAGE) - base) as usize;
            let new_len = old_in_page.max(w_hi);
            let mut plain = if old_in_page > 0 {
                let mut p = self.open_page_unverified(&e, fd, page_no, old_in_page, clock)?;
                p.resize(new_len, 0);
                p
            } else {
                vec![0u8; new_len]
            };
            let d_lo = (off.max(base) - off) as usize;
            plain[w_lo..w_hi].copy_from_slice(&data[d_lo..d_lo + (w_hi - w_lo)]);
            self.seal_page(&e, fd, page_no, &mut plain, clock)?;
        }
        Ok(data.len())
    }

    fn fsync(&self, fd: Fd, clock: &ActorClock) -> IoResult<()> {
        let e = self.entry(fd)?;
        self.inner.fsync(fd, clock)?;
        self.inner.fsync(e.tag_fd, clock)
    }

    fn ftruncate(&self, fd: Fd, len: u64, clock: &ActorClock) -> IoResult<()> {
        let e = self.entry(fd)?;
        if !e.flags.writable() {
            return Err(IoError::PermissionDenied("fd opened read-only".into()));
        }
        let _guard = e.lock.lock();
        let old = self.file_size(fd, clock)?;
        self.inner.ftruncate(fd, len, clock)?;
        self.inner.ftruncate(e.tag_fd, 8 * len.div_ceil(PAGE), clock)?;
        // The page containing the old or new boundary changes content
        // length: re-seal it so its tag matches the bytes now stored.
        if len < old && !len.is_multiple_of(PAGE) {
            // Shrink into a page: the stored prefix stays valid ciphertext
            // (the keystream is positional); only the tag must shrink.
            let page_no = len / PAGE;
            if self.read_tag(e.tag_fd, page_no, clock)? != 0 {
                let avail = (len - page_no * PAGE) as usize;
                let mut buf = vec![0u8; avail];
                self.inner.pread(fd, &mut buf, page_no * PAGE, clock)?;
                let tag = self.tag_of(page_no, &buf);
                self.write_tag(e.tag_fd, page_no, tag, clock)?;
            }
        } else if len > old && !old.is_multiple_of(PAGE) {
            self.reseal_grown_tail(&e, fd, old, len, clock)?;
        }
        Ok(())
    }

    fn fstat(&self, fd: Fd, clock: &ActorClock) -> IoResult<Metadata> {
        self.entry(fd)?;
        self.inner.fstat(fd, clock)
    }

    fn stat(&self, path: &str, clock: &ActorClock) -> IoResult<Metadata> {
        let path = normalize_path(path);
        if is_tag_path(&path) {
            return Err(IoError::NotFound(path));
        }
        self.inner.stat(&path, clock)
    }

    fn unlink(&self, path: &str, clock: &ActorClock) -> IoResult<()> {
        let path = normalize_path(path);
        if is_tag_path(&path) {
            return Err(IoError::NotFound(path));
        }
        self.inner.unlink(&path, clock)?;
        match self.inner.unlink(&tag_path(&path), clock) {
            Ok(()) | Err(IoError::NotFound(_)) => Ok(()),
            Err(e) => Err(e),
        }
    }

    fn rename(&self, from: &str, to: &str, clock: &ActorClock) -> IoResult<()> {
        let from = normalize_path(from);
        let to = normalize_path(to);
        if is_tag_path(&from) || is_tag_path(&to) {
            return Err(IoError::InvalidArgument("crypt: reserved tag-sidecar name".into()));
        }
        self.inner.rename(&from, &to, clock)?;
        match self.inner.rename(&tag_path(&from), &tag_path(&to), clock) {
            Ok(()) => Ok(()),
            Err(IoError::NotFound(_)) => {
                // The source had no tags (never written): stale destination
                // tags would authenticate the wrong bytes — drop them.
                match self.inner.unlink(&tag_path(&to), clock) {
                    Ok(()) | Err(IoError::NotFound(_)) => Ok(()),
                    Err(e) => Err(e),
                }
            }
            Err(e) => Err(e),
        }
    }

    fn list_dir(&self, dir: &str, clock: &ActorClock) -> IoResult<Vec<String>> {
        let mut entries = self.inner.list_dir(dir, clock)?;
        entries.retain(|p| !is_tag_path(p));
        Ok(entries)
    }

    fn sync(&self, clock: &ActorClock) -> IoResult<()> {
        self.inner.sync(clock)
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
    use crate::MemFs;

    fn rig(key: u64) -> (ActorClock, Arc<dyn FileSystem>, Arc<dyn FileSystem>, CryptLayer) {
        let layer = CryptLayer::new(key);
        let inner: Arc<dyn FileSystem> = Arc::new(MemFs::new());
        let fs = layer.wrap(Arc::clone(&inner));
        (ActorClock::new(), inner, fs, layer)
    }

    #[test]
    fn content_is_transparent_but_ciphertext_at_rest() {
        let (c, inner, fs, layer) = rig(42);
        let fd = fs.open("/s", OpenFlags::RDWR | OpenFlags::CREATE, &c).unwrap();
        let msg = b"attack at dawn, page one";
        fs.pwrite(fd, msg, 0, &c).unwrap();
        let mut back = vec![0u8; msg.len()];
        assert_eq!(fs.pread(fd, &mut back, 0, &c).unwrap(), msg.len());
        assert_eq!(&back, msg);
        // At rest: same length, different bytes, sidecar present.
        let raw = inner.open("/s", OpenFlags::RDONLY, &c).unwrap();
        let mut rest = vec![0u8; msg.len()];
        assert_eq!(inner.pread(raw, &mut rest, 0, &c).unwrap(), msg.len());
        assert_ne!(&rest, msg);
        assert!(inner.stat(&tag_path("/s"), &c).is_ok());
        assert!(layer.stats().pages_sealed >= 1);
        assert_eq!(layer.stats().tamper_detected, 0);
    }

    #[test]
    fn tampering_is_detected_on_read() {
        let (c, inner, fs, layer) = rig(7);
        let fd = fs.open("/t", OpenFlags::RDWR | OpenFlags::CREATE, &c).unwrap();
        fs.pwrite(fd, &[0x11; 5000], 0, &c).unwrap(); // spans two pages
                                                      // Flip one stored byte in page 0 behind the layer's back.
        let raw = inner.open("/t", OpenFlags::RDWR, &c).unwrap();
        let mut b = [0u8; 1];
        inner.pread(raw, &mut b, 100, &c).unwrap();
        inner.pwrite(raw, &[b[0] ^ 0xA5], 100, &c).unwrap();
        inner.close(raw, &c).unwrap();

        let mut buf = [0u8; 64];
        let err = fs.pread(fd, &mut buf, 64, &c);
        assert!(matches!(err, Err(IoError::Other(_))), "tampered page must not read: {err:?}");
        assert_eq!(layer.stats().tamper_detected, 1);
        // The untampered second page still reads fine.
        assert_eq!(fs.pread(fd, &mut buf, 4096, &c).unwrap(), 64);
        // Rewriting the tampered page heals it.
        fs.pwrite(fd, &[0x22; 4096], 0, &c).unwrap();
        assert_eq!(fs.pread(fd, &mut buf, 64, &c).unwrap(), 64);
        assert_eq!(buf, [0x22; 64]);
    }

    #[test]
    fn cross_page_rmw_and_sparse_holes() {
        let (c, _inner, fs, _layer) = rig(99);
        let fd = fs.open("/x", OpenFlags::RDWR | OpenFlags::CREATE, &c).unwrap();
        // Sparse write far into page 2; pages 0-1 are holes.
        fs.pwrite(fd, b"tail", 4096 * 2 + 100, &c).unwrap();
        let mut hole = [9u8; 32];
        fs.pread(fd, &mut hole, 4096 + 50, &c).unwrap();
        assert_eq!(hole, [0u8; 32], "hole pages must read as zeroes");
        // Cross-page write over the hole boundary.
        fs.pwrite(fd, &[0xAB; 5000], 2000, &c).unwrap();
        let mut back = vec![0u8; 5000];
        fs.pread(fd, &mut back, 2000, &c).unwrap();
        assert!(back.iter().all(|&b| b == 0xAB));
        // The tail write is still intact.
        let mut tail = [0u8; 4];
        fs.pread(fd, &mut tail, 4096 * 2 + 100, &c).unwrap();
        assert_eq!(&tail, b"tail");
    }

    /// A write that starts beyond the partly filled last page turns it into
    /// an inner page: its tag must then cover the whole page, whichever
    /// order the two writes come in — and the bytes at rest are the same.
    #[test]
    fn growing_past_a_short_last_page_keeps_it_readable() {
        let raw_of = |ascending: bool| {
            let (c, inner, fs, layer) = rig(11);
            let fd = fs.open("/g", OpenFlags::RDWR | OpenFlags::CREATE, &c).unwrap();
            let writes: [(&[u8], u64); 2] = [(&[1u8; 100], 0), (&[2u8; 100], 8192)];
            let order: [usize; 2] = if ascending { [0, 1] } else { [1, 0] };
            for i in order {
                fs.pwrite(fd, writes[i].0, writes[i].1, &c).unwrap();
            }
            let mut buf = vec![9u8; 8292];
            assert_eq!(fs.pread(fd, &mut buf, 0, &c).unwrap(), 8292, "ascending={ascending}");
            assert!(buf[..100].iter().all(|&b| b == 1));
            assert!(buf[100..8192].iter().all(|&b| b == 0), "the gap reads as zeroes");
            assert!(buf[8192..].iter().all(|&b| b == 2));
            assert_eq!(layer.stats().tamper_detected, 0);
            let raw = inner.open("/g", OpenFlags::RDONLY, &c).unwrap();
            let mut at_rest = vec![0u8; 8292];
            inner.pread(raw, &mut at_rest, 0, &c).unwrap();
            at_rest
        };
        assert_eq!(raw_of(true), raw_of(false));
    }

    #[test]
    fn truncate_shrink_and_extend_keep_tags_consistent() {
        let (c, _inner, fs, layer) = rig(3);
        let fd = fs.open("/tr", OpenFlags::RDWR | OpenFlags::CREATE, &c).unwrap();
        fs.pwrite(fd, &[0x5A; 6000], 0, &c).unwrap();
        fs.ftruncate(fd, 4500, &c).unwrap();
        let mut buf = vec![0u8; 6000];
        assert_eq!(fs.pread(fd, &mut buf, 0, &c).unwrap(), 4500);
        assert!(buf[..4500].iter().all(|&b| b == 0x5A));
        // Extend back: the grown range must read as zeroes.
        fs.ftruncate(fd, 6000, &c).unwrap();
        assert_eq!(fs.pread(fd, &mut buf, 0, &c).unwrap(), 6000);
        assert!(buf[..4500].iter().all(|&b| b == 0x5A));
        assert!(buf[4500..].iter().all(|&b| b == 0), "extension must read as zeroes");
        assert_eq!(layer.stats().tamper_detected, 0);
    }

    #[test]
    fn rename_and_unlink_carry_the_sidecar() {
        let (c, inner, fs, _layer) = rig(1);
        let fd = fs.open("/dir/a", OpenFlags::RDWR | OpenFlags::CREATE, &c).unwrap();
        fs.pwrite(fd, b"payload", 0, &c).unwrap();
        fs.close(fd, &c).unwrap();
        fs.rename("/dir/a", "/dir/b", &c).unwrap();
        assert!(inner.stat(&tag_path("/dir/b"), &c).is_ok());
        assert!(inner.stat(&tag_path("/dir/a"), &c).is_err());
        // The listing through the layer hides sidecars.
        assert_eq!(fs.list_dir("/dir", &c).unwrap(), vec!["/dir/b".to_string()]);
        // Content still authenticates after the rename.
        let fd = fs.open("/dir/b", OpenFlags::RDONLY, &c).unwrap();
        let mut buf = [0u8; 7];
        fs.pread(fd, &mut buf, 0, &c).unwrap();
        assert_eq!(&buf, b"payload");
        fs.close(fd, &c).unwrap();
        fs.unlink("/dir/b", &c).unwrap();
        assert!(inner.stat(&tag_path("/dir/b"), &c).is_err(), "unlink must drop the sidecar");
    }

    #[test]
    fn different_keys_produce_different_ciphertext() {
        let read_rest = |key: u64| {
            let (c, inner, fs, _l) = rig(key);
            let fd = fs.open("/k", OpenFlags::RDWR | OpenFlags::CREATE, &c).unwrap();
            fs.pwrite(fd, &[0u8; 64], 0, &c).unwrap();
            let raw = inner.open("/k", OpenFlags::RDONLY, &c).unwrap();
            let mut rest = [0u8; 64];
            inner.pread(raw, &mut rest, 0, &c).unwrap();
            rest
        };
        assert_ne!(read_rest(1), read_rest(2));
    }
}
