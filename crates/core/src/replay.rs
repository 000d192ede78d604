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
//! order. Neighbours glue when they touch, and also across a gap shorter
//! than a page that lies where the inner file is known to read as zeros
//! (past its end when the replay began, and past what an earlier window
//! wrote): the gap is written as zeros, and since it holds no whole page,
//! every page it touches is one a neighbour writes anyway. The final image
//! is the one sequential replay leaves: every byte holds its last writer's
//! value and every file ends where its furthest entry ends.
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
//! file's; it does not know the inner size, so it glues touching pieces
//! only). The push plans every window first ([`Window::plan`]), under the
//! cleanup lock of each page its entries cover, which keeps the workers from
//! consuming — and so freeing — them until [`Plan::write_out`] has read
//! their payloads.

use std::collections::BTreeMap;

use vfs::IoResult;

use crate::config::PAGE_SIZE;

/// Payload bytes one window plans before it must be written out (soft by
/// one entry). It also bounds every extent buffer, zero-filled gaps
/// included (a window may hold twice [`WINDOW_ENTRIES`] pieces, each
/// followed by up to a page of zeros): a piece that would take its extent
/// past it starts a new extent. And it bounds how far recovery's reader may
/// read ahead of its inner writes: it starts a window's payload only once
/// the previous window is written.
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

/// The surviving pieces of one window, sorted by `(file, offset)`.
#[derive(Debug)]
pub(crate) struct Plan(Vec<Pending>);

impl Plan {
    /// Fills each extent through `read(region offset, buffer)` and hands it
    /// to `write(file, file offset, bytes)`, ascending by `(file, offset)`;
    /// returns the payload bytes written, zero fill not counted.
    ///
    /// `zero_from[file]` is the offset from which the inner file reads as
    /// zeros: a neighbour joins an extent when it touches it, or when the
    /// gap between them starts at or past that offset and is shorter than a
    /// page. Each write raises it to the extent's end, so a later window
    /// never zeroes what this one wrote. `u64::MAX` joins touching pieces
    /// only.
    ///
    /// # Errors
    ///
    /// The first error `write` returns; extents before it were written,
    /// the rest were not.
    pub fn write_out(
        self,
        zero_from: &mut [u64],
        mut read: impl FnMut(u64, &mut [u8]),
        mut write: impl FnMut(usize, u64, &[u8]) -> IoResult<()>,
    ) -> IoResult<u64> {
        let (mut payload, mut extent) = (0, Vec::new());
        let mut pieces = self.0.into_iter().peekable();
        while let Some(first) = pieces.next() {
            let (file, start) = (first.file, first.file_off);
            let mut next = Some(first);
            extent.clear();
            while let Some(piece) = next {
                // Growing the buffer zero-fills the gap before the piece.
                let at = (piece.file_off - start) as usize;
                extent.resize(at + piece.len as usize, 0);
                read(piece.data_at, &mut extent[at..]);
                payload += piece.len as u64;
                let end = start + extent.len() as u64;
                next = pieces.next_if(|p| {
                    p.file == file
                        && (p.file_off == end
                            || end >= zero_from[file] && p.file_off - end < PAGE_SIZE as u64)
                        && p.file_off + p.len as u64 - start <= WINDOW_PAYLOAD
                });
            }
            write(file, start, &extent)?;
            zero_from[file] = zero_from[file].max(start + extent.len() as u64);
        }
        Ok(payload)
    }
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
    type Replayed = (Images, Vec<(usize, u64, usize)>, u64);

    /// Writes `windows` out one after the other into per-file images, every
    /// file known to read as zeros from `zero_from` on; returns the images
    /// with the `(file, offset, len)` of every inner write and the payload.
    fn replay_in(windows: &[&[Pending]], zero_from: u64, log: &[u8]) -> Replayed {
        let (mut files, mut calls, mut payload) = (Images::new(), Vec::new(), 0);
        let mut zero_from = [zero_from; 2];
        for entries in windows {
            let mut window = Window::default();
            for &e in *entries {
                window.push(e);
            }
            payload += window
                .plan()
                .write_out(
                    &mut zero_from,
                    |at, buf| buf.copy_from_slice(&log[at as usize..at as usize + buf.len()]),
                    |file, off, data| {
                        apply(&mut files, file, off, data);
                        calls.push((file, off, data.len()));
                        Ok(())
                    },
                )
                .expect("infallible write");
        }
        (files, calls, payload)
    }

    /// One window, touching pieces glued only.
    fn replay(entries: &[Pending], log: &[u8]) -> Replayed {
        replay_in(&[entries], u64::MAX, log)
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
        assert_eq!((calls, written), (vec![(0, 0, 4246)], 4246));
        assert_eq!(files, sequential(&entries, &log));
    }

    #[test]
    fn a_newer_entry_absorbs_what_it_covers() {
        // The middle of the old entry is overwritten; its head and tail
        // survive and glue to the newer bytes: one extent, no byte twice.
        let (entries, log) = log_of(&[(0, 0, 300), (0, 100, 100)]);
        let (files, calls, written) = replay(&entries, &log);
        assert_eq!((calls, written), (vec![(0, 0, 300)], 300));
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
            .write_out(&mut [u64::MAX], |at, buf| reads.push((at, buf.len())), |_, _, _| Ok(()))
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
        // small grid, including empty, touching, nested and equal ones;
        // with every gap past the file's end too, where it is zero-filled.
        let ranges: Vec<(u64, u32)> =
            (0..6u64).flat_map(|off| (0..5u32).map(move |len| (off * 3, len * 3))).collect();
        for zero_from in [u64::MAX, 0] {
            for &a in &ranges {
                for &b in &ranges {
                    for &c in &[(0u64, 0u32), (4, 7), (9, 9)] {
                        let writes = [(0, a.0, a.1), (0, b.0, b.1), (0, c.0, c.1)];
                        let (entries, log) = log_of(&writes);
                        let (files, calls, written) = replay_in(&[&entries], zero_from, &log);
                        assert_eq!(files, sequential(&entries, &log), "{writes:?}");
                        let covered =
                            files.get(&0).map_or(0, |f| f.iter().filter(|&&b| b != 0).count());
                        assert_eq!(written, covered as u64, "each byte once: {writes:?}");
                        assert!(calls.windows(2).all(|w| w[0].1 + w[0].2 as u64 <= w[1].1));
                        if zero_from == 0 {
                            assert!(calls.len() <= 1, "sub-page gaps glue: {writes:?}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn sub_page_gaps_past_zero_from_glue_and_read_as_zeros() {
        // File 0's second extent leaves its bytes in the buffer, which
        // file 1's extent then reuses: its gap must be zeroed, not stale.
        let gap = PAGE_SIZE as u64 - 1;
        let (entries, log) =
            log_of(&[(0, 0, 100), (0, 4196, 100), (1, 0, 10), (1, 20, 10), (1, 30 + gap, 10)]);
        let (files, calls, written) = replay_in(&[&entries], 0, &log);
        assert_eq!(calls, vec![(0, 0, 100), (0, 4196, 100), (1, 0, 40 + gap as usize)]);
        assert_eq!(written, 230, "zero fill is not payload");
        assert_eq!(files, sequential(&entries, &log));
        let gaps = [&files[&1][10..20], &files[&1][30..30 + gap as usize]];
        assert!(gaps.concat().iter().all(|&b| b == 0));
    }

    #[test]
    fn a_gap_of_a_whole_page_splits() {
        let page = PAGE_SIZE as u64;
        let (entries, log) = log_of(&[(0, 0, 100), (0, 100 + page, 100)]);
        let (files, calls, _) = replay_in(&[&entries], 0, &log);
        assert_eq!(calls, vec![(0, 0, 100), (0, 100 + page, 100)]);
        assert_eq!(files, sequential(&entries, &log));
    }

    #[test]
    fn a_gap_below_zero_from_splits() {
        // The inner file reads as zeros from 400 on: the gap at 100 may
        // hold bytes it already has, the one starting at 400 may not.
        let (entries, log) = log_of(&[(0, 0, 100), (0, 300, 100), (0, 450, 50)]);
        let (files, calls, written) = replay_in(&[&entries], 400, &log);
        assert_eq!((calls, written), (vec![(0, 0, 100), (0, 300, 200)], 250));
        assert_eq!(files, sequential(&entries, &log));
    }

    #[test]
    fn a_sparse_window_keeps_every_buffer_within_the_payload_bound() {
        // A full window of one-byte pieces a page apart: glued, they would
        // span 64 MiB of mostly zeros.
        let page = PAGE_SIZE as u64;
        let mut window = Window::default();
        let pieces = (0..WINDOW_ENTRIES as u64).map(|i| Pending {
            file: 0,
            file_off: i * page,
            len: 1,
            data_at: 0,
        });
        assert!(pieces.map(|p| window.push(p)).last().expect("a full window"));
        let mut calls = Vec::new();
        let written = window
            .plan()
            .write_out(
                &mut [0],
                |_, buf| buf.fill(1),
                |_, off, data| {
                    calls.push((off, data.len()));
                    Ok(())
                },
            )
            .expect("infallible write");
        assert_eq!(written, WINDOW_ENTRIES as u64);
        let half = WINDOW_PAYLOAD - page + 1;
        assert_eq!(calls, vec![(0, half as usize), (WINDOW_PAYLOAD, half as usize)]);
    }

    #[test]
    fn a_later_window_never_zeroes_what_an_earlier_one_wrote() {
        // The first window grows the file to 1000 bytes: the second one's
        // gap at 110 lies below that, though past the file's first end.
        let (entries, log) = log_of(&[(0, 0, 1000), (0, 100, 10), (0, 200, 10)]);
        let (files, calls, _) = replay_in(&[&entries[..1], &entries[1..]], 0, &log);
        assert_eq!(calls, vec![(0, 0, 1000), (0, 100, 10), (0, 200, 10)]);
        assert_eq!(files, sequential(&entries, &log));
    }

    #[test]
    fn the_window_fills_by_payload_and_by_entries() {
        let mut window = Window::default();
        let big = Pending { file: 0, file_off: 0, len: (WINDOW_PAYLOAD / 2) as u32, data_at: 0 };
        assert!(!window.push(big));
        assert!(window.push(big), "the payload budget is reached");
        window
            .plan()
            .write_out(&mut [0], |_, _| (), |_, _, _| Ok(()))
            .expect("infallible write");
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
            &mut [u64::MAX],
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
