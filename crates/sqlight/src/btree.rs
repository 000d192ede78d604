//! The table B+tree, edited in place on its pages.
//!
//! # Page format
//!
//! A node is one [`PAGE_SIZE`] page: a 3-byte header (the kind, then the
//! cell count as a little-endian `u16`), the cells packed in key order, and
//! zeros to the end of the page. Every cell starts with its key, an
//! little-endian `i64`:
//!
//! * leaf (kind 1): `rowid: i64 | len: u16 | value: [u8; len]`. A page
//!   nothing wrote (kind 0) reads as an empty leaf.
//! * branch (kind 2): fixed 12-byte cells `max: i64 | child: u32`, where
//!   `max` is the largest rowid under `child`. A rowid above every `max`
//!   belongs to the last child.
//!
//! # In-place edits
//!
//! Nothing is decoded into owned cells. An insert walks the leaf's cells to
//! its insertion point, shifts the cells behind it with `copy_within` and
//! writes the one new cell. Each branch on the way back up patches its
//! child's `max` and, if the child split, inserts the sibling's cell the same
//! way. A node that would overflow splits at its middle cell: it keeps the
//! lower half, and the upper half's bytes go to a fresh page. Lookups and
//! scans read the cells where they lie.
//!
//! Each page ends up byte for byte the page that decoding, editing and
//! re-encoding the node would give, and the pager sees the same reads,
//! writes and allocations in the same order. The tests hold the tree to
//! that decode → insert → encode reference on every page and on the clock.

use simclock::ActorClock;

use crate::pager::{Pager, PAGE_SIZE};
use crate::{SqlError, SqlResult};

/// Maximum in-cell value size; larger payloads would need overflow pages,
/// which the benchmark workloads (100-byte values) never hit.
pub(crate) const MAX_VALUE: usize = 1024;

const LEAF: u8 = 1;
const BRANCH: u8 = 2;
/// Bytes before the first cell: kind and cell count.
const HEADER: usize = 3;
/// A leaf cell's bytes before its value: rowid and length.
const LEAF_HEAD: usize = 10;
const BRANCH_CELL: usize = 12;

fn key_at(cells: &[u8], pos: usize) -> i64 {
    i64::from_le_bytes(cells[pos..pos + 8].try_into().expect("8 bytes"))
}

fn child_at(page: &[u8], pos: usize) -> u32 {
    u32::from_le_bytes(page[pos + 8..pos + 12].try_into().expect("4 bytes"))
}

/// Byte length of the cell at `pos` of a node of `kind`.
fn cell_len(kind: u8, cells: &[u8], pos: usize) -> usize {
    match kind {
        BRANCH => BRANCH_CELL,
        _ => {
            LEAF_HEAD
                + u16::from_le_bytes(cells[pos + 8..pos + 10].try_into().expect("2 bytes")) as usize
        }
    }
}

fn branch_cell(max: i64, child: u32) -> [u8; BRANCH_CELL] {
    let mut cell = [0u8; BRANCH_CELL];
    cell[..8].copy_from_slice(&max.to_le_bytes());
    cell[8..].copy_from_slice(&child.to_le_bytes());
    cell
}

fn set_header(page: &mut [u8], kind: u8, n: usize) {
    page[0] = kind;
    page[1..HEADER].copy_from_slice(&(n as u16).to_le_bytes());
}

/// A node's kind ([`LEAF`] or [`BRANCH`]) and cell count.
fn header(page: &[u8]) -> SqlResult<(u8, usize)> {
    let n = u16::from_le_bytes(page[1..HEADER].try_into().expect("2 bytes")) as usize;
    match page[0] {
        0 | LEAF => Ok((LEAF, n)),
        BRANCH if HEADER + n * BRANCH_CELL <= PAGE_SIZE => Ok((BRANCH, n)),
        BRANCH => Err(SqlError::Corruption("branch cell out of bounds".into())),
        other => Err(SqlError::Corruption(format!("unknown node kind {other}"))),
    }
}

/// Calls `f(pos, rowid, value)` for each of a leaf's `n` cells in order and
/// returns where the last one ends.
fn walk_leaf<'a>(
    page: &'a [u8],
    n: usize,
    mut f: impl FnMut(usize, i64, &'a [u8]),
) -> SqlResult<usize> {
    let mut pos = HEADER;
    for _ in 0..n {
        if pos + LEAF_HEAD > PAGE_SIZE {
            return Err(SqlError::Corruption("leaf cell out of bounds".into()));
        }
        let len = cell_len(LEAF, page, pos);
        if pos + len > PAGE_SIZE {
            return Err(SqlError::Corruption("leaf value out of bounds".into()));
        }
        f(pos, key_at(page, pos), &page[pos + LEAF_HEAD..pos + len]);
        pos += len;
    }
    Ok(pos)
}

/// The position of the first branch cell whose `max` covers `rowid`.
fn branch_slot(page: &[u8], n: usize, rowid: i64) -> Option<usize> {
    (0..n).map(|i| HEADER + i * BRANCH_CELL).find(|&pos| rowid <= key_at(page, pos))
}

/// Result of inserting into a subtree: the subtree's new max rowid, plus a
/// sibling (max, page) if the node split.
struct InsertOutcome {
    max: i64,
    split: Option<(i64, u32)>,
}

/// Where a new cell goes in a node of `n` cells: at byte `at`, with the
/// cells ending at `end` and the last one starting at `last`.
struct Gap {
    n: usize,
    at: usize,
    end: usize,
    last: usize,
}

/// Writes the cell `head ++ body` into `page_no` at `gap`, after `patch` has
/// edited the page, splitting the node in half if the cell does not fit.
fn put_cell(
    pager: &mut Pager,
    page_no: u32,
    kind: u8,
    gap: Gap,
    (head, body): (&[u8], &[u8]),
    patch: impl FnOnce(&mut [u8]),
    clock: &ActorClock,
) -> SqlResult<InsertOutcome> {
    let Gap { n, at, end, last } = gap;
    let len = head.len() + body.len();
    if end + len <= PAGE_SIZE {
        let mut max = 0;
        pager.write_page(page_no, clock, |page| {
            patch(page);
            page.copy_within(at..end, at + len);
            page[at..at + head.len()].copy_from_slice(head);
            page[at + head.len()..at + len].copy_from_slice(body);
            set_header(page, kind, n + 1);
            max = key_at(page, if at == end { at } else { last + len });
        })?;
        return Ok(InsertOutcome { max, split: None });
    }
    // The node keeps the first half of its n + 1 cells; a fresh page takes
    // the rest.
    let right_page = pager.alloc_page();
    let total = n + 1;
    let keep = total / 2;
    let mut cells = Vec::with_capacity(end - HEADER + len);
    let (mut split, mut left_max, mut right_max) = (0, 0, 0);
    pager.write_page(page_no, clock, |page| {
        patch(page);
        cells.extend_from_slice(&page[HEADER..at]);
        cells.extend_from_slice(head);
        cells.extend_from_slice(body);
        cells.extend_from_slice(&page[at..end]);
        let mut pos = 0;
        for i in 0..total {
            if i == keep {
                split = pos;
                left_max = right_max;
            }
            right_max = key_at(&cells, pos);
            pos += cell_len(kind, &cells, pos);
        }
        page[HEADER..HEADER + split].copy_from_slice(&cells[..split]);
        page[HEADER + split..].fill(0);
        set_header(page, kind, keep);
    })?;
    pager.write_page(right_page, clock, |page| {
        let upper = &cells[split..];
        page[HEADER..HEADER + upper.len()].copy_from_slice(upper);
        page[HEADER + upper.len()..].fill(0);
        set_header(page, kind, total - keep);
    })?;
    Ok(InsertOutcome { max: left_max, split: Some((right_max, right_page)) })
}

/// Inserts `(rowid, value)` under `page_no`.
fn insert_rec(
    pager: &mut Pager,
    page_no: u32,
    rowid: i64,
    value: &[u8],
    clock: &ActorClock,
) -> SqlResult<InsertOutcome> {
    let page = pager.read_page(page_no, clock)?;
    let (kind, n) = header(page)?;
    if kind == LEAF {
        let (mut at, mut last, mut duplicate) = (None, HEADER, false);
        let end = walk_leaf(page, n, |pos, r, _| {
            duplicate |= r == rowid;
            if r > rowid && at.is_none() {
                at = Some(pos);
            }
            last = pos;
        })?;
        if duplicate {
            return Err(SqlError::DuplicateRow(rowid));
        }
        let mut head = [0u8; LEAF_HEAD];
        head[..8].copy_from_slice(&rowid.to_le_bytes());
        head[8..].copy_from_slice(&(value.len() as u16).to_le_bytes());
        let gap = Gap { n, at: at.unwrap_or(end), end, last };
        return put_cell(pager, page_no, LEAF, gap, (&head, value), |_| {}, clock);
    }
    if n == 0 {
        return Err(SqlError::Corruption("empty branch node".into()));
    }
    let last = HEADER + (n - 1) * BRANCH_CELL;
    let pos = branch_slot(page, n, rowid).unwrap_or(last);
    let child_no = child_at(page, pos);
    let child = insert_rec(pager, child_no, rowid, value, clock)?;
    let patch = |page: &mut [u8]| page[pos..pos + 8].copy_from_slice(&child.max.to_le_bytes());
    let Some((smax, spage)) = child.split else {
        let mut max = 0;
        pager.write_page(page_no, clock, |page| {
            patch(page);
            max = key_at(page, last);
        })?;
        return Ok(InsertOutcome { max, split: None });
    };
    let gap = Gap { n, at: pos + BRANCH_CELL, end: last + BRANCH_CELL, last };
    put_cell(pager, page_no, BRANCH, gap, (&branch_cell(smax, spage), &[]), patch, clock)
}

/// A B+tree rooted at a fixed page (the root page number never changes, so
/// the table catalog stays valid; splits of the root move its content down).
#[derive(Debug, Clone, Copy)]
pub(crate) struct BTree {
    pub root: u32,
}

impl BTree {
    /// Initializes an empty tree at `root`.
    pub fn create(pager: &mut Pager, root: u32, clock: &ActorClock) -> SqlResult<BTree> {
        pager.write_page(root, clock, |page| {
            page.fill(0);
            set_header(page, LEAF, 0);
        })?;
        Ok(BTree { root })
    }

    /// Inserts a row.
    ///
    /// # Errors
    ///
    /// [`SqlError::DuplicateRow`] / [`SqlError::ValueTooLarge`] / I/O.
    pub fn insert(
        &self,
        pager: &mut Pager,
        rowid: i64,
        value: &[u8],
        clock: &ActorClock,
    ) -> SqlResult<()> {
        if value.len() > MAX_VALUE {
            return Err(SqlError::ValueTooLarge(value.len()));
        }
        let outcome = insert_rec(pager, self.root, rowid, value, clock)?;
        if let Some((smax, spage)) = outcome.split {
            // Root split: move the current root content to a fresh page and
            // make the root a two-entry branch.
            let old_root = pager.read_page(self.root, clock)?.clone();
            let moved = pager.alloc_page();
            pager.write_page(moved, clock, |page| page.copy_from_slice(&old_root))?;
            pager.write_page(self.root, clock, |page| {
                page.fill(0);
                set_header(page, BRANCH, 2);
                page[HEADER..HEADER + BRANCH_CELL]
                    .copy_from_slice(&branch_cell(outcome.max, moved));
                page[HEADER + BRANCH_CELL..HEADER + 2 * BRANCH_CELL]
                    .copy_from_slice(&branch_cell(smax, spage));
            })?;
        }
        Ok(())
    }

    /// Point lookup by rowid.
    ///
    /// # Errors
    ///
    /// I/O or corruption errors.
    pub fn get(
        &self,
        pager: &mut Pager,
        rowid: i64,
        clock: &ActorClock,
    ) -> SqlResult<Option<Vec<u8>>> {
        let mut page_no = self.root;
        loop {
            let page = pager.read_page(page_no, clock)?;
            match header(page)? {
                (LEAF, n) => {
                    let mut found = None;
                    walk_leaf(page, n, |_, r, v| {
                        if r == rowid {
                            found = Some(v);
                        }
                    })?;
                    return Ok(found.map(<[u8]>::to_vec));
                }
                (_, n) => match branch_slot(page, n, rowid) {
                    Some(pos) => page_no = child_at(page, pos),
                    None => return Ok(None),
                },
            }
        }
    }

    /// In-order scan of all rows.
    ///
    /// # Errors
    ///
    /// I/O or corruption errors.
    pub fn scan(&self, pager: &mut Pager, clock: &ActorClock) -> SqlResult<Vec<(i64, Vec<u8>)>> {
        let mut out = Vec::new();
        let mut stack = vec![self.root];
        // Depth-first with children pushed in reverse keeps rowid order.
        while let Some(page_no) = stack.pop() {
            let page = pager.read_page(page_no, clock)?;
            match header(page)? {
                (LEAF, n) => {
                    walk_leaf(page, n, |_, r, v| out.push((r, v.to_vec())))?;
                }
                (_, n) => {
                    stack.extend((0..n).rev().map(|i| child_at(page, HEADER + i * BRANCH_CELL)))
                }
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
#[path = "btree_tests.rs"]
mod tests;
