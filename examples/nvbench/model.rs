//! The in-driver reference model every result is checked against.
//!
//! Payloads are stamped: the first two words are `(block, version)`, the
//! rest a cheap stream derived from them, so any two writes differ in every
//! word and a stale or torn read cannot pass for a current one.

use crate::gen::mix;

/// Fills `buf` (whole 8-byte words) with the payload of `(block, version)`.
pub fn fill(buf: &mut [u8], block: u64, version: u64) {
    debug_assert!(buf.len().is_multiple_of(8));
    let base = mix(block ^ mix(version));
    for (i, word) in buf.chunks_exact_mut(8).enumerate() {
        let w = match i {
            0 => block,
            1 => version,
            _ => (base.wrapping_add(i as u64)).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        };
        word.copy_from_slice(&w.to_le_bytes());
    }
}

/// Model of a file of fixed-size blocks, each rewritten whole: one version
/// per block is the entire state.
#[derive(Debug)]
pub struct BlockModel {
    versions: Vec<u32>,
    scratch: Vec<u8>,
}

impl BlockModel {
    pub fn new(blocks: usize, block_size: usize) -> BlockModel {
        BlockModel { versions: vec![0; blocks], scratch: vec![0; block_size] }
    }

    /// Bumps `block`'s version and writes its new payload into `buf`.
    pub fn next_payload(&mut self, block: u64, buf: &mut [u8]) {
        self.versions[block as usize] += 1;
        fill(buf, block, self.versions[block as usize] as u64);
    }

    /// Whether `got` is `block`'s current payload from byte `within` on.
    pub fn check(&mut self, block: u64, within: usize, got: &[u8]) -> bool {
        fill(&mut self.scratch, block, self.versions[block as usize] as u64);
        self.scratch.get(within..within + got.len()) == Some(got)
    }

    pub fn version(&self, block: u64) -> u32 {
        self.versions[block as usize]
    }
}

/// Model of a small file under arbitrary overlapping writes: a shadow copy.
#[derive(Debug, Default)]
pub struct ShadowFile {
    data: Vec<u8>,
}

impl From<Vec<u8>> for ShadowFile {
    fn from(data: Vec<u8>) -> ShadowFile {
        ShadowFile { data }
    }
}

impl ShadowFile {
    pub fn write(&mut self, off: u64, payload: &[u8]) {
        let end = off as usize + payload.len();
        if self.data.len() < end {
            self.data.resize(end, 0);
        }
        self.data[off as usize..end].copy_from_slice(payload);
    }

    pub fn len(&self) -> u64 {
        self.data.len() as u64
    }

    /// Whether `got` is the file's current content at `off`.
    pub fn check(&self, off: u64, got: &[u8]) -> bool {
        self.data.get(off as usize..off as usize + got.len()) == Some(got)
    }
}
