//! Persistency-ordering shadow checker (feature `pmcheck`).
//!
//! Tracks, per DIMM, a shadow state machine over cache lines mirroring the
//! simulator's own durability model (Dirty → WrittenBack → Persisted, with
//! write-back queues and fences both per-thread, as in `dimm.rs`):
//!
//! * a store moves its lines to **Dirty** and records the storing thread and
//!   call site;
//! * `pwb` moves the covered lines to **WrittenBack** (they leave the Dirty
//!   set and sit in the flushing thread's pending queue);
//! * `pfence`/`psync` move this thread's WrittenBack lines to **Persisted**
//!   and advance the thread's fence epoch.
//!
//! On top of that state the checked APIs ([`NvDimm::commit_store`],
//! [`NvDimm::persist_fence`], [`NvDimm::persist_barrier`]) assert the
//! NVCache durability protocol — *pwb the payload, fence, then publish the
//! commit word* — and violations panic with the offending op, line address
//! and owning call site, as well as being recorded per DIMM for
//! post-mortem inspection via [`NvDimm::pm_violations`].
//!
//! Everything in this module is compiled only with `--features pmcheck`;
//! without it the checked APIs degrade to their plain equivalents.
//!
//! [`NvDimm::commit_store`]: crate::NvDimm::commit_store
//! [`NvDimm::persist_fence`]: crate::NvDimm::persist_fence
//! [`NvDimm::persist_barrier`]: crate::NvDimm::persist_barrier
//! [`NvDimm::pm_violations`]: crate::NvDimm::pm_violations

use std::collections::HashMap;
use std::panic::Location;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;

/// Stable small integer identifying the calling thread (thread ids are
/// per-process and monotone; `std::thread::ThreadId` has no stable integer
/// form on stable Rust).
static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

/// The calling thread's checker id.
pub(crate) fn tid() -> u64 {
    TID.with(|t| *t)
}

/// Where a tracked operation happened (a `#[track_caller]` location).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Site {
    pub file: &'static str,
    pub line: u32,
}

impl Site {
    pub fn here(loc: &'static Location<'static>) -> Self {
        Site { file: loc.file(), line: loc.line() }
    }
}

impl std::fmt::Display for Site {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}", self.file, self.line)
    }
}

/// A store whose lines are still Dirty (no `pwb` has covered them yet).
#[derive(Debug, Clone, Copy)]
struct DirtyStore {
    tid: u64,
    site: Site,
}

/// A `pwb` whose lines are WrittenBack but not yet fenced by its thread.
#[derive(Debug, Clone, Copy)]
struct QueuedPwb {
    site: Site,
    /// The queued flush is a commit word's own `pwb` (issued inside
    /// [`commit_store`]): a group commit may publish several commit words
    /// between one fence and the trailing barrier, so these entries are not
    /// unfenced *payload* and must not trip [`PmShadow::check_commit`]. A
    /// later plain `pwb` over the same line overwrites the flag.
    ///
    /// [`commit_store`]: crate::NvDimm::commit_store
    commit: bool,
}

/// A commit-word store performed through [`commit_store`], awaiting the
/// fence that makes it durable.
///
/// [`commit_store`]: crate::NvDimm::commit_store
#[derive(Debug, Clone, Copy)]
struct PendingCommit {
    line: u64,
    tid: u64,
    site: Site,
}

/// Per-DIMM shadow state. One instance per [`NvDimm`](crate::NvDimm) —
/// never global, so independent mounts in one test process cannot
/// cross-contaminate each other's reports.
#[derive(Debug, Default)]
pub(crate) struct PmShadow {
    state: Mutex<PmState>,
}

#[derive(Debug, Default)]
struct PmState {
    /// line → most recent store not yet covered by any `pwb`.
    dirty: HashMap<u64, DirtyStore>,
    /// (tid, line) → `pwb` queued by `tid`, not yet fenced by `tid`.
    written_back: HashMap<(u64, u64), QueuedPwb>,
    /// Commit-word stores awaiting their covering fence.
    commits: Vec<PendingCommit>,
    /// Violation reports, in detection order.
    violations: Vec<String>,
}

impl PmShadow {
    /// A store: lines become Dirty, attributed to the calling thread.
    pub fn on_write(&self, first: u64, last: u64, site: Site) {
        let me = tid();
        let mut st = self.state.lock();
        for line in first..=last {
            st.dirty.insert(line, DirtyStore { tid: me, site });
        }
    }

    /// A `pwb`: covered lines leave Dirty and join the calling thread's
    /// WrittenBack set. Returns the number of *redundant* lines — lines
    /// that were neither Dirty nor newly queued (already queued by this
    /// thread, or clean), i.e. pure overhead on the flush path.
    pub fn on_pwb(
        &self,
        first: u64,
        last: u64,
        site: Site,
        line_dirty: impl Fn(u64) -> bool,
    ) -> u64 {
        let me = tid();
        let mut st = self.state.lock();
        let mut redundant = 0;
        for line in first..=last {
            let had_new_store = st.dirty.remove(&line).is_some();
            let already_queued = st.written_back.contains_key(&(me, line));
            // A pwb earns its keep only if the line carries a store this
            // thread has not already queued for write-back: re-queueing an
            // unchanged line, or flushing a clean one, is pure overhead.
            if !had_new_store && (already_queued || !line_dirty(line)) {
                redundant += 1;
            }
            st.written_back.insert((me, line), QueuedPwb { site, commit: false });
        }
        redundant
    }

    /// A fence on the calling thread: its WrittenBack lines become
    /// Persisted and its pending commit words are now covered.
    pub fn on_fence(&self) {
        let me = tid();
        let mut st = self.state.lock();
        st.written_back.retain(|(t, _), _| *t != me);
        st.commits.retain(|c| c.tid != me);
    }

    /// Checks the `commit_store` precondition: on this thread, no line may
    /// still be Dirty (store without `pwb`) and no *payload* `pwb` may be
    /// un-fenced — otherwise the commit word is being published before the
    /// fence that covers its payload. Queued flushes issued by earlier
    /// `commit_store`s are exempt: a group commit legitimately publishes
    /// several commit words between one fence and the trailing barrier.
    /// Returns a violation message, or `None`.
    pub fn check_commit(&self, dimm_id: u64, off: u64, line: u64, site: Site) -> Option<String> {
        let me = tid();
        let mut st = self.state.lock();
        let queued: Vec<(u64, Site)> = st
            .written_back
            .iter()
            .filter(|((t, _), q)| *t == me && !q.commit)
            .map(|((_, l), q)| (*l, q.site))
            .collect();
        if let Some((first_line, first_site)) = queued.iter().min_by_key(|(l, _)| *l) {
            let msg = format!(
                "pmcheck violation [dimm {dimm_id}]: commit_store at {site} — commit word at \
                 offset {off:#x} (line {line:#x}) stored before the fence covering its payload: \
                 {} written-back line(s) queued by this thread are still unfenced \
                 (first: line {first_line:#x}, pwb at {first_site})",
                queued.len(),
            );
            st.violations.push(msg.clone());
            return Some(msg);
        }
        let mut dirty: Vec<(u64, Site)> = st
            .dirty
            .iter()
            .filter(|(_, d)| d.tid == me)
            .map(|(l, d)| (*l, d.site))
            .collect();
        dirty.sort_unstable_by_key(|(l, _)| *l);
        if let Some((first_line, first_site)) = dirty.first() {
            let msg = format!(
                "pmcheck violation [dimm {dimm_id}]: commit_store at {site} — commit word at \
                 offset {off:#x} (line {line:#x}) published while {} line(s) stored by this \
                 thread are still Dirty (no pwb issued; first: line {first_line:#x}, stored at \
                 {first_site})",
                dirty.len(),
            );
            st.violations.push(msg.clone());
            return Some(msg);
        }
        None
    }

    /// Registers a performed commit store (awaiting its covering fence) and
    /// marks its just-queued `pwb` as commit-origin so sibling commit words
    /// in the same group commit don't flag it as unfenced payload.
    pub fn register_commit(&self, line: u64, site: Site) {
        let me = tid();
        let mut st = self.state.lock();
        if let Some(q) = st.written_back.get_mut(&(me, line)) {
            q.commit = true;
        }
        st.commits.push(PendingCommit { line, tid: me, site });
    }

    /// Checks a `persist_fence`/`persist_barrier` precondition: every store
    /// this thread made must already be WrittenBack (a Dirty line at an
    /// annotated fence means a `pwb` was skipped). Returns a violation
    /// message, or `None`.
    pub fn check_barrier(&self, dimm_id: u64, op: &str, site: Site) -> Option<String> {
        let me = tid();
        let mut st = self.state.lock();
        let mut dirty: Vec<(u64, Site)> = st
            .dirty
            .iter()
            .filter(|(_, d)| d.tid == me)
            .map(|(l, d)| (*l, d.site))
            .collect();
        dirty.sort_unstable_by_key(|(l, _)| *l);
        if let Some((first_line, first_site)) = dirty.first() {
            let msg = format!(
                "pmcheck violation [dimm {dimm_id}]: {op} at {site} — fence reached with {} \
                 line(s) stored by this thread still Dirty (skipped pwb; first: line \
                 {first_line:#x}, stored at {first_site})",
                dirty.len(),
            );
            st.violations.push(msg.clone());
            return Some(msg);
        }
        None
    }

    /// Crash-time audit: a registered commit word that has gone Dirty again
    /// (rewritten by a plain store with no `pwb`) may be resurrected by
    /// cache eviction while the rewrite's payload is lost — the
    /// "published as durable while still Dirty" hazard. Returns new
    /// violation messages.
    pub fn check_crash(&self, dimm_id: u64) -> Vec<String> {
        let mut st = self.state.lock();
        let mut found = Vec::new();
        for c in &st.commits {
            if let Some(d) = st.dirty.get(&c.line) {
                found.push(format!(
                    "pmcheck violation [dimm {dimm_id}]: crash with commit word at line \
                     {:#x} (commit_store at {}) still Dirty — re-stored at {} with no pwb, \
                     so eviction may persist the publish without its payload",
                    c.line, c.site, d.site,
                ));
            }
        }
        st.violations.extend(found.iter().cloned());
        found
    }

    /// All violations recorded on this DIMM so far.
    pub fn violations(&self) -> Vec<String> {
        self.state.lock().violations.clone()
    }
}

#[cfg(test)]
mod tests {
    /// Dirty `(line, thread)`s, queued `(thread, line, commit)` write-backs
    /// and pending commit lines.
    type Lines = (Vec<(u64, u64)>, Vec<(u64, u64, bool)>, Vec<u64>);

    impl super::PmShadow {
        /// The shadow state without call sites: Dirty lines with their
        /// thread, queued `(thread, line, commit)` write-backs and pending
        /// commit lines, each sorted.
        pub(crate) fn lines(&self) -> Lines {
            let st = self.state.lock();
            let mut dirty: Vec<_> = st.dirty.iter().map(|(&line, d)| (line, d.tid)).collect();
            let wb = st.written_back.iter();
            let mut queued: Vec<_> = wb.map(|(&(t, l), q)| (t, l, q.commit)).collect();
            let mut commits: Vec<_> = st.commits.iter().map(|c| c.line).collect();
            dirty.sort_unstable();
            queued.sort_unstable();
            commits.sort_unstable();
            (dirty, queued, commits)
        }
    }
}
