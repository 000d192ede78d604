//! The replay planner: turns a commit-ordered run of pending log entries
//! into the fewest inner writes that leave the same bytes behind.
//!
//! Replaying a log entry by entry writes every byte as often as it was
//! overwritten and pays one inner call per entry. A [`Window`] instead
//! walks its entries *newest first*, keeps per file the set of byte ranges
//! a newer entry already claimed, and keeps of each older entry only the
//! sub-ranges still unclaimed (the rest is *absorbed*). The surviving
//! pieces are disjoint, so sorting them by `(file, offset)` and gluing
//! neighbours yields the extents: each is read from NVMM piece by piece
//! into one buffer and written with one inner call, in ascending offset
//! order. The final image is the one sequential replay leaves: every byte
//! holds its last writer's value and every file ends where its furthest
//! entry ends.
//!
//! Memory is bounded by windowing: entries are admitted in commit order
//! until [`WINDOW_PAYLOAD`] bytes or [`WINDOW_ENTRIES`] entries are
//! planned, the window is written out completely, and only then is the
//! next one planned — so a later window overwrites an earlier one exactly
//! as later entries overwrite earlier ones.
//!
//! Two callers: recovery (every committed entry, files keyed by identity
//! on the inner file system) and `close`'s push into the kernel (one
//! descriptor's pending entries, or at the last writable `close` the whole
//! file's). The push plans every window first ([`Window::plan`]), under the
//! cleanup lock of each page its entries cover, which keeps the workers from
//! consuming — and so freeing — them until [`Plan::write_out`] has read
//! their payloads.

use std::collections::BTreeMap;

use vfs::IoResult;

/// Payload bytes one window plans before it must be written out (soft by
/// one entry). Bounds the largest extent buffer.
pub(crate) const WINDOW_PAYLOAD: u64 = 32 << 20;
/// Entries one window plans before it must be written out. A plan holds at
/// most twice as many pieces: every claim adds one interval and each gap
/// beyond the first consumes one.
pub(crate) const WINDOW_ENTRIES: usize = 16 << 10;

/// A run of payload bytes in the log and where it belongs: one pending
/// entry as the caller admits it, or the still-unclaimed part of one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Pending {
    /// The caller's index of the *file* (not the descriptor): entries of
    /// one file absorb each other whichever descriptor logged them.
    pub file: usize,
    pub file_off: u64,
    pub len: u32,
    /// Region offset of the first payload byte.
    pub data_at: u64,
}

/// What writing out one window did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Written {
    /// Inner write calls issued (one per extent).
    pub inner_writes: u64,
    /// Payload bytes those calls carried.
    pub bytes: u64,
}

/// The entries admitted since the last [`Window::plan`], in commit order.
#[derive(Debug, Default)]
pub(crate) struct Window {
    entries: Vec<Pending>,
    payload: u64,
}

impl Window {
    /// Admits the next entry in commit order. Returns `true` once the
    /// window is full: the caller must [`plan`](Window::plan) it before
    /// admitting another.
    pub fn push(&mut self, entry: Pending) -> bool {
        self.payload += entry.len as u64;
        self.entries.push(entry);
        self.payload >= WINDOW_PAYLOAD || self.entries.len() >= WINDOW_ENTRIES
    }

    /// Plans the admitted entries and leaves the window empty.
    pub fn plan(&mut self) -> Plan {
        let plan = Plan(surviving(&self.entries));
        self.entries.clear();
        self.payload = 0;
        plan
    }
}

/// The surviving pieces of one window, sorted by `(file, offset)`: its
/// extents are the runs of contiguous pieces.
#[derive(Debug)]
pub(crate) struct Plan(Vec<Pending>);

impl Plan {
    /// Fills each extent through `read(region offset, buffer)` and hands it
    /// to `write(file, file offset, bytes)`, ascending by `(file, offset)`.
    ///
    /// # Errors
    ///
    /// The first error `write` returns; extents before it were written,
    /// the rest were not.
    pub fn write_out(
        self,
        mut read: impl FnMut(u64, &mut [u8]),
        mut write: impl FnMut(usize, u64, &[u8]) -> IoResult<()>,
    ) -> IoResult<Written> {
        let mut written = Written::default();
        let mut extent = Vec::new();
        for run in self.0.chunk_by(contiguous) {
            extent.clear();
            for piece in run {
                let at = extent.len();
                extent.resize(at + piece.len as usize, 0);
                read(piece.data_at, &mut extent[at..]);
            }
            write(run[0].file, run[0].file_off, &extent)?;
            written.inner_writes += 1;
            written.bytes += extent.len() as u64;
        }
        Ok(written)
    }
}

fn contiguous(a: &Pending, b: &Pending) -> bool {
    a.file == b.file && a.file_off + a.len as u64 == b.file_off
}

/// The parts of `entries` (commit order) no newer entry of the same file
/// overwrites, sorted by `(file, offset)`. Disjoint by construction.
fn surviving(entries: &[Pending]) -> Vec<Pending> {
    // Claimed byte ranges, `(file, start) -> end`: disjoint, and merged
    // when they touch, so the map stays as small as the coverage is simple.
    let mut claimed: BTreeMap<(usize, u64), u64> = BTreeMap::new();
    let mut pieces = Vec::with_capacity(entries.len());
    for entry in entries.iter().rev().filter(|e| e.len > 0) {
        let file = entry.file;
        let (start, end) = (entry.file_off, entry.file_off + entry.len as u64);
        let mut keep = |from: u64, to: u64| {
            pieces.push(Pending {
                file,
                file_off: from,
                len: (to - from) as u32,
                data_at: entry.data_at + (from - start),
            });
        };
        // The first claimed range that can overlap or touch `[start, end)`:
        // the one beginning at or before `start`, if it reaches `start`.
        let first = claimed
            .range(..=(file, start))
            .next_back()
            .filter(|(&(f, _), &claimed_end)| f == file && claimed_end >= start)
            .map_or((file, start), |(&key, _)| key);
        let (mut merged_start, mut merged_end, mut cursor) = (start, end, start);
        while let Some((&key, &claimed_end)) = claimed.range(first..=(file, end)).next() {
            claimed.remove(&key);
            if key.1 > cursor {
                keep(cursor, key.1);
            }
            cursor = cursor.max(claimed_end);
            merged_start = merged_start.min(key.1);
            merged_end = merged_end.max(claimed_end);
        }
        if cursor < end {
            keep(cursor, end);
        }
        claimed.insert((file, merged_start), merged_end);
    }
    pieces.sort_unstable_by_key(|p| (p.file, p.file_off));
    pieces
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The log as a flat byte array: entry `i`'s payload is `len` copies of
    /// `i + 1`, laid out back to back.
    fn log_of(writes: &[(usize, u64, u32)]) -> (Vec<Pending>, Vec<u8>) {
        let mut log = Vec::new();
        let entries = writes
            .iter()
            .enumerate()
            .map(|(i, &(file, file_off, len))| {
                let data_at = log.len() as u64;
                log.resize(log.len() + len as usize, i as u8 + 1);
                Pending { file, file_off, len, data_at }
            })
            .collect();
        (entries, log)
    }

    type Images = BTreeMap<usize, Vec<u8>>;
    type Replayed = (Images, Vec<(usize, u64, usize)>, Written);

    /// Writes the window out into per-file images; returns them with the
    /// `(file, offset, len)` of every inner write and the tally.
    fn replay(entries: &[Pending], log: &[u8]) -> Replayed {
        let mut window = Window::default();
        for &e in entries {
            window.push(e);
        }
        let mut files = Images::new();
        let mut calls = Vec::new();
        let written = window
            .plan()
            .write_out(
                |at, buf| buf.copy_from_slice(&log[at as usize..at as usize + buf.len()]),
                |file, off, data| {
                    apply(&mut files, file, off, data);
                    calls.push((file, off, data.len()));
                    Ok(())
                },
            )
            .expect("infallible write");
        (files, calls, written)
    }

    fn apply(files: &mut Images, file: usize, off: u64, data: &[u8]) {
        if data.is_empty() {
            return; // a zero-length write neither creates nor extends
        }
        let image = files.entry(file).or_default();
        let end = off as usize + data.len();
        if image.len() < end {
            image.resize(end, 0);
        }
        image[off as usize..end].copy_from_slice(data);
    }

    fn sequential(entries: &[Pending], log: &[u8]) -> Images {
        let mut files = Images::new();
        for e in entries {
            let data = &log[e.data_at as usize..e.data_at as usize + e.len as usize];
            apply(&mut files, e.file, e.file_off, data);
        }
        files
    }

    #[test]
    fn contiguous_appends_become_one_extent() {
        let (entries, log) = log_of(&[(0, 0, 100), (0, 100, 50), (0, 150, 4096)]);
        let (files, calls, written) = replay(&entries, &log);
        assert_eq!(calls, vec![(0, 0, 4246)]);
        assert_eq!(written, Written { inner_writes: 1, bytes: 4246 });
        assert_eq!(files, sequential(&entries, &log));
    }

    #[test]
    fn a_newer_entry_absorbs_what_it_covers() {
        // The middle of the old entry is overwritten; its head and tail
        // survive and glue to the newer bytes: one extent, no byte twice.
        let (entries, log) = log_of(&[(0, 0, 300), (0, 100, 100)]);
        let (files, calls, written) = replay(&entries, &log);
        assert_eq!(calls, vec![(0, 0, 300)]);
        assert_eq!(written.bytes, 300);
        let image = &files[&0];
        assert!(image[..100].iter().all(|&b| b == 1));
        assert!(image[100..200].iter().all(|&b| b == 2));
        assert!(image[200..].iter().all(|&b| b == 1));
    }

    #[test]
    fn an_entry_fully_covered_by_newer_ones_is_never_read() {
        let (entries, _) = log_of(&[(0, 50, 100), (0, 0, 100), (0, 100, 100)]);
        let mut window = Window::default();
        for &e in &entries {
            window.push(e);
        }
        let mut reads = Vec::new();
        window
            .plan()
            .write_out(|at, buf| reads.push((at, buf.len())), |_, _, _| Ok(()))
            .expect("infallible write");
        assert_eq!(reads, vec![(100, 100), (200, 100)], "entry 0 (log bytes 0..100) is absorbed");
    }

    #[test]
    fn files_do_not_absorb_each_other_and_gaps_split_extents() {
        let (entries, log) = log_of(&[(1, 0, 10), (0, 0, 10), (0, 20, 10), (1, 0, 10)]);
        let (files, calls, _) = replay(&entries, &log);
        assert_eq!(calls, vec![(0, 0, 10), (0, 20, 10), (1, 0, 10)]);
        assert_eq!(files, sequential(&entries, &log));
    }

    #[test]
    fn touching_and_nested_claims_match_sequential_replay() {
        // A deterministic sweep over every pair and triple of ranges on a
        // small grid, including empty, touching, nested and equal ones.
        let ranges: Vec<(u64, u32)> =
            (0..6u64).flat_map(|off| (0..5u32).map(move |len| (off * 3, len * 3))).collect();
        for &a in &ranges {
            for &b in &ranges {
                for &c in &[(0u64, 0u32), (4, 7), (9, 9)] {
                    let writes = [(0, a.0, a.1), (0, b.0, b.1), (0, c.0, c.1)];
                    let (entries, log) = log_of(&writes);
                    let (files, calls, written) = replay(&entries, &log);
                    assert_eq!(files, sequential(&entries, &log), "{writes:?}");
                    let covered =
                        files.get(&0).map_or(0, |f| f.iter().filter(|&&b| b != 0).count());
                    assert_eq!(written.bytes, covered as u64, "each byte once: {writes:?}");
                    assert!(calls.windows(2).all(|w| w[0].1 + w[0].2 as u64 <= w[1].1));
                }
            }
        }
    }

    #[test]
    fn the_window_fills_by_payload_and_by_entries() {
        let mut window = Window::default();
        let big = Pending { file: 0, file_off: 0, len: (WINDOW_PAYLOAD / 2) as u32, data_at: 0 };
        assert!(!window.push(big));
        assert!(window.push(big), "the payload budget is reached");
        window.plan().write_out(|_, _| (), |_, _, _| Ok(())).expect("infallible write");
        let small = Pending { file: 0, file_off: 0, len: 1, data_at: 0 };
        assert!((1..WINDOW_ENTRIES).all(|_| !window.push(small)));
        assert!(window.push(small), "the entry cap is reached");
    }

    #[test]
    fn a_failed_write_stops_the_window() {
        let (entries, log) = log_of(&[(0, 0, 10), (0, 20, 10), (0, 40, 10)]);
        let mut window = Window::default();
        for &e in &entries {
            window.push(e);
        }
        let mut calls = 0;
        let result = window.plan().write_out(
            |at, buf| buf.copy_from_slice(&log[at as usize..at as usize + buf.len()]),
            |_, _, _| {
                calls += 1;
                if calls == 2 {
                    Err(vfs::IoError::Other("injected".into()))
                } else {
                    Ok(())
                }
            },
        );
        assert!(result.is_err());
        assert_eq!(calls, 2, "nothing is written after the failure");
    }
}
