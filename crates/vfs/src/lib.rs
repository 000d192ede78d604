//! POSIX-like file-system layer and kernel I/O-stack simulator.
//!
//! NVCache (DSN'21) interposes on the libc I/O functions and forwards them —
//! eventually — to the regular kernel I/O stack. Applications in this
//! reproduction are written against the [`FileSystem`] trait, which plays the
//! role of that libc/syscall boundary. The crate then provides all the
//! storage configurations of the paper's evaluation (Table IV):
//!
//! * [`Ext4`] over an SSD (optionally over a
//!   [`DmWriteCacheDev`](blockdev::DmWriteCacheDev)) — a journaling,
//!   page-cached, in-place file system;
//! * [`MemFs`] — tmpfs, DRAM only, no durability;
//! * [`DaxFs`] — Ext4-DAX: the Ext4 code paths with data access directly to
//!   NVMM, bypassing the page cache;
//! * [`NovaFs`] — NOVA: a log-structured NVMM file system with per-inode
//!   logs and copy-on-write data pages (`cow_data` semantics, hence durable
//!   linearizability).
//!
//! `NVCache` itself (crate `nvcache`) implements the same trait by wrapping
//! any of these as its propagation target.
//!
//! The four share what POSIX fixes and differ in what the paper compares.
//! Shared, one copy each: the namespace (`namespace.rs` — path map, implicit
//! directories, descriptor table with open flags, inode numbers, the
//! `O_CREAT`/`O_EXCL` decision, and the rule that an inode lives until its
//! name *and* its last descriptor are gone), the slab allocator of `Ext4`
//! and `DaxFs` and the page walk of a byte range (`extent.rs`). Its own, per
//! file system: the data path, `simulate_power_failure`, the two durability
//! flags, and every charge — each operation charges modelled kernel costs
//! ([`KernelCosts`]) against the caller's virtual clock in its own
//! `impl FileSystem`, the shared code charges nothing; syscall-free
//! user-space paths (the whole point of NVCache's write path) simply skip
//! those charges.

mod conformance;
mod cost;
mod cursor;
mod dax;
mod error;
mod ext4;
mod extent;
mod fdmap;
mod flags;
mod fs;
mod layer;
mod memfs;
mod namespace;
mod nova;
mod pagecache;
mod path;

pub use conformance::check_posix_semantics;
pub use cost::KernelCosts;
pub use cursor::{CursorFile, SeekFrom};
pub use dax::{DaxFs, DaxProfile};
pub use error::{IoError, IoResult};
pub use ext4::{Ext4, Ext4Profile};
pub use flags::{Metadata, OpenFlags};
pub use fs::{Fd, FileSystem};
pub use layer::{
    stack, validate_stack, CryptLayer, CryptStats, DelayLayer, DelayProfile, DelayStats,
    FaultLayer, FaultOp, FaultRule, FaultTrigger, Layer, MAX_STACK_DEPTH,
};
pub use memfs::MemFs;
pub use nova::{NovaFs, NovaProfile};
pub use pagecache::{PageCache, PageCacheConfig, PageCacheStats};
pub use path::normalize_path;
