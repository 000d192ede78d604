//! sqlight — a journaled, paged, B+tree embedded database.
//!
//! Stand-in for the SQLite 3.25 deployment the paper benchmarks (§IV-A):
//! a pager with a rollback journal (SQLite's classic `journal_mode=DELETE`),
//! a B+tree keyed by rowid, and explicit transactions. Its I/O pattern is
//! the one that matters for Fig. 3's SQLite columns: every synchronous
//! transaction journals original pages, fsyncs the journal, rewrites B-tree
//! pages in place, fsyncs the database, and deletes the journal — a
//! double-write, double-fsync dance that NVCache absorbs into NVMM log
//! appends plus no-op fsyncs.
//!
//! The query surface is a deliberate simplification (`create_table` /
//! `insert` / `get` / `scan` in transactions) — the paper's benchmarks only
//! exercise key-value-shaped statements, and the storage engine below the
//! SQL layer is what produces the I/O (`fig3` in README's program list runs
//! it).
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use sqlight::{SqlightDb, SqlightOptions};
//! use simclock::ActorClock;
//! use vfs::{FileSystem, MemFs};
//!
//! # fn main() -> Result<(), sqlight::SqlError> {
//! let clock = ActorClock::new();
//! let fs: Arc<dyn FileSystem> = Arc::new(MemFs::new());
//! let db = SqlightDb::open(fs, "/app.db", SqlightOptions::default(), &clock)?;
//! db.create_table("users", &clock)?;
//! db.insert("users", 1, b"alice", &clock)?;
//! assert_eq!(db.get("users", 1, &clock)?.as_deref(), Some(&b"alice"[..]));
//! # Ok(())
//! # }
//! ```

mod bench;
mod btree;
mod db;
mod error;
mod pager;

pub use bench::{prefill, run_sql_bench, SqlBench, SqlBenchOptions, SqlBenchResult};
pub use db::{SqlightDb, SqlightOptions};
pub use error::{SqlError, SqlResult};
