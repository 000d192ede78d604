use std::sync::Arc;

use simclock::ActorClock;

use crate::NvDimm;

/// A contiguous window of an [`NvDimm`].
///
/// Regions let several independent consumers share one module — the paper's
/// multi-application deployment splits a DIMM into per-instance DAX files
/// (§III "Multi-application"); `NvRegion` is the equivalent here. All offsets
/// are relative to the region base.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use nvmm::{NvDimm, NvmmProfile, NvRegion};
/// use simclock::ActorClock;
///
/// let clock = ActorClock::new();
/// let dimm = Arc::new(NvDimm::new(1 << 16, NvmmProfile::instant()));
/// let a = NvRegion::new(Arc::clone(&dimm), 0, 1 << 15);
/// let b = NvRegion::new(dimm, 1 << 15, 1 << 15);
/// a.write(0, b"left", &clock);
/// b.write(0, b"right", &clock);
/// let mut buf = [0u8; 5];
/// b.read_cached(0, &mut buf);
/// assert_eq!(&buf, b"right");
/// ```
#[derive(Debug, Clone)]
pub struct NvRegion {
    dimm: Arc<NvDimm>,
    base: u64,
    len: u64,
}

impl NvRegion {
    /// Creates a region over `dimm[base..base+len]`.
    ///
    /// # Panics
    ///
    /// Panics if the window exceeds the DIMM capacity.
    pub fn new(dimm: Arc<NvDimm>, base: u64, len: u64) -> Self {
        assert!(
            base.checked_add(len).is_some_and(|end| end <= dimm.len()),
            "region {base}+{len} exceeds DIMM of {} bytes",
            dimm.len()
        );
        NvRegion { dimm, base, len }
    }

    /// A region covering an entire DIMM.
    pub fn whole(dimm: Arc<NvDimm>) -> Self {
        let len = dimm.len();
        NvRegion { dimm, base: 0, len }
    }

    /// Region length in bytes.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the region is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The backing DIMM.
    pub fn dimm(&self) -> &Arc<NvDimm> {
        &self.dimm
    }

    /// Absolute base offset inside the DIMM.
    pub fn base(&self) -> u64 {
        self.base
    }

    /// A sub-window of this region.
    ///
    /// # Panics
    ///
    /// Panics if the sub-window exceeds this region.
    pub fn sub_region(&self, off: u64, len: u64) -> NvRegion {
        assert!(
            off.checked_add(len).is_some_and(|end| end <= self.len),
            "sub-region {off}+{len} exceeds region of {} bytes",
            self.len
        );
        NvRegion { dimm: Arc::clone(&self.dimm), base: self.base + off, len }
    }

    fn abs(&self, off: u64, len: usize) -> u64 {
        assert!(
            off.checked_add(len as u64).is_some_and(|end| end <= self.len),
            "region access {off}+{len} exceeds region of {} bytes",
            self.len
        );
        self.base + off
    }

    /// See [`NvDimm::write`].
    #[cfg_attr(feature = "pmcheck", track_caller)]
    pub fn write(&self, off: u64, data: &[u8], clock: &ActorClock) {
        self.dimm.write(self.abs(off, data.len()), data, clock);
    }

    /// See [`NvDimm::read`].
    pub fn read(&self, off: u64, buf: &mut [u8], clock: &ActorClock) {
        self.dimm.read(self.abs(off, buf.len()), buf, clock);
    }

    /// See [`NvDimm::read_cached`].
    pub fn read_cached(&self, off: u64, buf: &mut [u8]) {
        self.dimm.read_cached(self.abs(off, buf.len()), buf);
    }

    /// See [`NvDimm::pwb`].
    #[cfg_attr(feature = "pmcheck", track_caller)]
    pub fn pwb(&self, off: u64, len: usize) {
        self.dimm.pwb(self.abs(off, len), len);
    }

    /// See [`NvDimm::pfence`].
    pub fn pfence(&self, clock: &ActorClock) {
        self.dimm.pfence(clock);
    }

    /// See [`NvDimm::psync`].
    pub fn psync(&self, clock: &ActorClock) {
        self.dimm.psync(clock);
    }

    /// See [`NvDimm::write_and_pwb`].
    #[cfg_attr(feature = "pmcheck", track_caller)]
    pub fn write_and_pwb(&self, off: u64, data: &[u8], clock: &ActorClock) {
        self.dimm.write_and_pwb(self.abs(off, data.len()), data, clock);
    }

    /// See [`NvDimm::clear_words_and_pwb`].
    #[cfg_attr(feature = "pmcheck", track_caller)]
    pub fn clear_words_and_pwb(&self, off: u64, stride: u64, count: u64, clock: &ActorClock) {
        if count > 0 {
            self.abs((count - 1).saturating_mul(stride).saturating_add(off), 8);
        }
        self.dimm.clear_words_and_pwb(self.base + off, stride, count, clock);
    }

    /// See [`NvDimm::persist_fence`] — a checked [`pfence`](NvRegion::pfence)
    /// asserting (under `pmcheck`) that every store this thread made has
    /// already been `pwb`'d.
    #[cfg_attr(feature = "pmcheck", track_caller)]
    pub fn persist_fence(&self, clock: &ActorClock) {
        self.dimm.persist_fence(clock);
    }

    /// See [`NvDimm::persist_barrier`] — a checked [`psync`](NvRegion::psync)
    /// with the same contract as [`persist_fence`](NvRegion::persist_fence).
    #[cfg_attr(feature = "pmcheck", track_caller)]
    pub fn persist_barrier(&self, clock: &ActorClock) {
        self.dimm.persist_barrier(clock);
    }

    /// See [`NvDimm::commit_store`] — the annotated publish point of the
    /// durability protocol (8-byte little-endian store + `pwb`).
    #[cfg_attr(feature = "pmcheck", track_caller)]
    pub fn commit_store(&self, off: u64, value: u64, clock: &ActorClock) {
        self.dimm.commit_store(self.abs(off, 8), value, clock);
    }

    /// Every persistency violation recorded against this region's DIMM.
    #[cfg(feature = "pmcheck")]
    pub fn pm_violations(&self) -> Vec<String> {
        self.dimm.pm_violations()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NvmmProfile;

    fn setup() -> (ActorClock, Arc<NvDimm>) {
        (ActorClock::new(), Arc::new(NvDimm::new(4096, NvmmProfile::instant())))
    }

    #[test]
    fn offsets_are_relative() {
        let (c, dimm) = setup();
        let r = NvRegion::new(Arc::clone(&dimm), 1024, 1024);
        r.write(0, b"xyz", &c);
        let mut buf = [0u8; 3];
        dimm.read_cached(1024, &mut buf);
        assert_eq!(&buf, b"xyz");
    }

    #[test]
    fn sub_region_nests() {
        let (c, dimm) = setup();
        let r = NvRegion::new(dimm, 1024, 2048).sub_region(512, 512);
        assert_eq!(r.base(), 1536);
        r.write(0, b"nested", &c);
        let mut buf = [0u8; 6];
        r.read_cached(0, &mut buf);
        assert_eq!(&buf, b"nested");
    }

    #[test]
    fn durability_through_region() {
        let (c, dimm) = setup();
        let r = NvRegion::new(Arc::clone(&dimm), 2048, 1024);
        r.write_and_pwb(0, b"keep", &c);
        r.psync(&c);
        let restarted = dimm.crash_and_restart();
        let mut buf = [0u8; 4];
        restarted.read_cached(2048, &mut buf);
        assert_eq!(&buf, b"keep");
    }

    #[test]
    #[should_panic(expected = "exceeds region")]
    fn out_of_region_access_panics() {
        let (c, dimm) = setup();
        let r = NvRegion::new(dimm, 0, 128);
        r.write(120, &[0u8; 16], &c);
    }

    #[test]
    #[should_panic(expected = "exceeds DIMM")]
    fn oversized_region_panics() {
        let (_c, dimm) = setup();
        let _ = NvRegion::new(dimm, 4000, 1024);
    }

    #[test]
    fn whole_covers_dimm() {
        let (_c, dimm) = setup();
        let r = NvRegion::whole(Arc::clone(&dimm));
        assert_eq!(r.len(), dimm.len());
        assert_eq!(r.base(), 0);
    }
}
