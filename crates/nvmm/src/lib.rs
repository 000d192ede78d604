//! A simulator of byte-addressable non-volatile main memory (NVMM).
//!
//! The NVCache paper (DSN'21) runs on Intel Optane NVDIMMs and relies on three
//! hardware primitives (paper §III, Algorithm 1):
//!
//! * `pwb(addr)` — enqueue the cache line containing `addr` for write-back
//!   (`clwb` on x86);
//! * `pfence`   — order: all preceding `pwb`s are executed before anything
//!   after the fence (`sfence`);
//! * `psync`    — like `pfence`, and additionally guarantees the lines are
//!   drained to the NVMM media.
//!
//! This crate reproduces those semantics in software. Every [`NvDimm`] keeps
//! a *live* image (what the program reads and writes — i.e. the CPU caches
//! plus media) and a *durable* image (what would survive a power failure).
//! Stores only touch the live image; a line becomes durable when it has been
//! `pwb`'d **and** a subsequent `pfence`/`psync` from the same thread has
//! executed — exactly the contract crash-consistent code must follow. Calling
//! [`NvDimm::crash`] discards everything that was not durable, which makes
//! ordering bugs observable in tests instead of latent.
//!
//! Both images are packed little-endian into 64-bit words: whole words move
//! with one relaxed atomic load or store, and the partial head or tail word
//! of a store with one compare-and-swap. Every byte is therefore
//! single-copy atomic (disjoint bytes of one word never lose an update, and
//! a load only sees byte values some store wrote), while an access spanning
//! several words may tear between words, as on hardware. `pwb` queues one
//! line range per call; the fence sorts and merges the ranges and flushes
//! (and charges) each distinct line once.
//!
//! Each image keeps one bit per 4 KiB chunk, set before the chunk's first
//! non-zero byte: zero stores into an untouched chunk, and fence copies
//! between two untouched chunks, skip host memory (a formatted DIMM costs
//! memory only where it was written). A dropped DIMM's images are wiped
//! chunk by touched chunk and pooled for the next DIMM of their size; the
//! pool never holds more than the high-water mark of live image bytes less
//! the live ones. Neither shows in virtual time or in any counter.
//!
//! Latency is charged against virtual time ([`simclock`]) using an
//! Optane-like profile, directly to the calling actor's clock: the DIMM is
//! *not* a shared device timeline, so concurrent flushers do not contend
//! for media bandwidth (see [`NvDimm`] for why; ROADMAP's "make the model
//! contend" item is the fix).
//!
//! # Example
//!
//! ```
//! use nvmm::{NvDimm, NvmmProfile};
//! use simclock::ActorClock;
//!
//! let clock = ActorClock::new();
//! let dimm = NvDimm::new(4096, NvmmProfile::optane());
//! dimm.write(0, b"hello", &clock);
//! dimm.pwb(0, 5);
//! dimm.pfence(&clock);
//! let recovered = dimm.crash_and_restart();
//! let mut buf = [0u8; 5];
//! recovered.read(0, &mut buf, &clock);
//! assert_eq!(&buf, b"hello");
//! ```

mod dimm;
#[cfg(all(test, not(feature = "pmcheck")))]
mod dimm_tests;
mod ints;
#[cfg(feature = "pmcheck")]
mod pmcheck;
mod profile;
mod region;
mod stats;

pub use dimm::{NvDimm, CACHE_LINE};
pub use ints::PmemInts;
pub use profile::NvmmProfile;
pub use region::NvRegion;
pub use stats::NvmmStats;
