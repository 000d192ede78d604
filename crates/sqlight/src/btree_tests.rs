use super::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use vfs::{FileSystem, MemFs};

/// The reference tree: every insert decodes each page on its path into owned
/// cells, edits them and encodes the page again. The in-place tree must
/// leave every page, the clock and every error exactly as this one does.
mod oracle {
    use super::*;

    /// A decoded B+tree node. Branch entries are `(max_rowid_in_subtree, child)`.
    #[derive(Debug, Clone, PartialEq, Eq)]
    enum Node {
        Leaf(Vec<(i64, Vec<u8>)>),
        Branch(Vec<(i64, u32)>),
    }

    fn decode(page: &[u8]) -> SqlResult<Node> {
        let kind = page[0];
        let n = u16::from_le_bytes(page[1..3].try_into().expect("2 bytes")) as usize;
        let mut pos = 3usize;
        match kind {
            0 | LEAF => {
                // Kind 0: an untouched page decodes as an empty leaf.
                let mut entries = Vec::with_capacity(n);
                for _ in 0..n {
                    if pos + 10 > PAGE_SIZE {
                        return Err(SqlError::Corruption("leaf cell out of bounds".into()));
                    }
                    let rowid = i64::from_le_bytes(page[pos..pos + 8].try_into().expect("8 bytes"));
                    let vlen =
                        u16::from_le_bytes(page[pos + 8..pos + 10].try_into().expect("2 bytes"))
                            as usize;
                    pos += 10;
                    if pos + vlen > PAGE_SIZE {
                        return Err(SqlError::Corruption("leaf value out of bounds".into()));
                    }
                    entries.push((rowid, page[pos..pos + vlen].to_vec()));
                    pos += vlen;
                }
                Ok(Node::Leaf(entries))
            }
            BRANCH => {
                let mut entries = Vec::with_capacity(n);
                for _ in 0..n {
                    if pos + 12 > PAGE_SIZE {
                        return Err(SqlError::Corruption("branch cell out of bounds".into()));
                    }
                    let max = i64::from_le_bytes(page[pos..pos + 8].try_into().expect("8 bytes"));
                    let child =
                        u32::from_le_bytes(page[pos + 8..pos + 12].try_into().expect("4 bytes"));
                    entries.push((max, child));
                    pos += 12;
                }
                Ok(Node::Branch(entries))
            }
            other => Err(SqlError::Corruption(format!("unknown node kind {other}"))),
        }
    }

    fn encoded_len(node: &Node) -> usize {
        match node {
            Node::Leaf(entries) => 3 + entries.iter().map(|(_, v)| 10 + v.len()).sum::<usize>(),
            Node::Branch(entries) => 3 + entries.len() * 12,
        }
    }

    fn encode(node: &Node, page: &mut [u8]) {
        page.fill(0);
        match node {
            Node::Leaf(entries) => {
                page[0] = LEAF;
                page[1..3].copy_from_slice(&(entries.len() as u16).to_le_bytes());
                let mut pos = 3usize;
                for (rowid, v) in entries {
                    page[pos..pos + 8].copy_from_slice(&rowid.to_le_bytes());
                    page[pos + 8..pos + 10].copy_from_slice(&(v.len() as u16).to_le_bytes());
                    pos += 10;
                    page[pos..pos + v.len()].copy_from_slice(v);
                    pos += v.len();
                }
            }
            Node::Branch(entries) => {
                page[0] = BRANCH;
                page[1..3].copy_from_slice(&(entries.len() as u16).to_le_bytes());
                let mut pos = 3usize;
                for (max, child) in entries {
                    page[pos..pos + 8].copy_from_slice(&max.to_le_bytes());
                    page[pos + 8..pos + 12].copy_from_slice(&child.to_le_bytes());
                    pos += 12;
                }
            }
        }
    }

    fn store(pager: &mut Pager, page_no: u32, node: &Node, clock: &ActorClock) -> SqlResult<()> {
        assert!(encoded_len(node) <= PAGE_SIZE, "node overflows its page");
        pager.write_page(page_no, clock, |page| encode(node, page))
    }

    fn load(pager: &mut Pager, page_no: u32, clock: &ActorClock) -> SqlResult<Node> {
        decode(pager.read_page(page_no, clock)?)
    }

    pub(super) fn create(pager: &mut Pager, root: u32, clock: &ActorClock) -> SqlResult<()> {
        store(pager, root, &Node::Leaf(Vec::new()), clock)
    }

    /// Splits an overflowing node's entries in half and stores both halves.
    fn split<T>(
        pager: &mut Pager,
        page_no: u32,
        mut entries: Vec<(i64, T)>,
        node: fn(Vec<(i64, T)>) -> Node,
        clock: &ActorClock,
    ) -> SqlResult<InsertOutcome> {
        let right_entries = entries.split_off(entries.len() / 2);
        let left_max = entries.last().expect("nonempty").0;
        let right_max = right_entries.last().expect("nonempty").0;
        let right_page = pager.alloc_page();
        store(pager, page_no, &node(entries), clock)?;
        store(pager, right_page, &node(right_entries), clock)?;
        Ok(InsertOutcome { max: left_max, split: Some((right_max, right_page)) })
    }

    fn insert_rec(
        pager: &mut Pager,
        page_no: u32,
        rowid: i64,
        value: &[u8],
        clock: &ActorClock,
    ) -> SqlResult<InsertOutcome> {
        match load(pager, page_no, clock)? {
            Node::Leaf(mut entries) => {
                match entries.binary_search_by_key(&rowid, |(r, _)| *r) {
                    Ok(_) => return Err(SqlError::DuplicateRow(rowid)),
                    Err(idx) => entries.insert(idx, (rowid, value.to_vec())),
                }
                let node = Node::Leaf(entries);
                if encoded_len(&node) > PAGE_SIZE {
                    let Node::Leaf(entries) = node else { unreachable!() };
                    return split(pager, page_no, entries, Node::Leaf, clock);
                }
                let Node::Leaf(e) = &node else { unreachable!() };
                let max = e.last().expect("nonempty").0;
                store(pager, page_no, &node, clock)?;
                Ok(InsertOutcome { max, split: None })
            }
            Node::Branch(mut entries) => {
                if entries.is_empty() {
                    return Err(SqlError::Corruption("empty branch node".into()));
                }
                let idx =
                    entries.iter().position(|(max, _)| rowid <= *max).unwrap_or(entries.len() - 1);
                let outcome = insert_rec(pager, entries[idx].1, rowid, value, clock)?;
                entries[idx].0 = outcome.max;
                if let Some((smax, spage)) = outcome.split {
                    entries.insert(idx + 1, (smax, spage));
                }
                let node = Node::Branch(entries);
                if encoded_len(&node) > PAGE_SIZE {
                    let Node::Branch(entries) = node else { unreachable!() };
                    return split(pager, page_no, entries, Node::Branch, clock);
                }
                let Node::Branch(e) = &node else { unreachable!() };
                let max = e.last().expect("nonempty").0;
                store(pager, page_no, &node, clock)?;
                Ok(InsertOutcome { max, split: None })
            }
        }
    }

    pub(super) fn insert(
        pager: &mut Pager,
        root: u32,
        rowid: i64,
        value: &[u8],
        clock: &ActorClock,
    ) -> SqlResult<()> {
        if value.len() > MAX_VALUE {
            return Err(SqlError::ValueTooLarge(value.len()));
        }
        let outcome = insert_rec(pager, root, rowid, value, clock)?;
        if let Some((smax, spage)) = outcome.split {
            let old_root = load(pager, root, clock)?;
            let moved = pager.alloc_page();
            store(pager, moved, &old_root, clock)?;
            store(pager, root, &Node::Branch(vec![(outcome.max, moved), (smax, spage)]), clock)?;
        }
        Ok(())
    }

    /// Depth of the tree under `root` and the number of branch nodes.
    pub(super) fn shape(pager: &mut Pager, root: u32, clock: &ActorClock) -> (usize, usize) {
        match load(pager, root, clock).unwrap() {
            Node::Leaf(_) => (1, 0),
            Node::Branch(entries) => entries.iter().fold((0, 1), |(depth, branches), &(_, c)| {
                let (d, b) = shape(pager, c, clock);
                (depth.max(d + 1), branches + b)
            }),
        }
    }
}

fn tree() -> (ActorClock, Pager, BTree) {
    let c = ActorClock::new();
    let fs: Arc<dyn FileSystem> = Arc::new(MemFs::new());
    let mut pager = Pager::open(fs, "/bt.db", false, &c).unwrap();
    pager.begin().unwrap();
    let root = pager.alloc_page();
    let bt = BTree::create(&mut pager, root, &c).unwrap();
    (c, pager, bt)
}

/// One database driven by the in-place tree and one by the oracle, on their
/// own file systems and clocks.
struct Twin {
    fs: [Arc<dyn FileSystem>; 2],
    pager: [Pager; 2],
    clock: [ActorClock; 2],
    root: u32,
}

impl Twin {
    fn new() -> Twin {
        let fs: [Arc<dyn FileSystem>; 2] = [Arc::new(MemFs::new()), Arc::new(MemFs::new())];
        let clock = [ActorClock::new(), ActorClock::new()];
        let mut pager =
            [0, 1].map(|i| Pager::open(Arc::clone(&fs[i]), "/twin.db", true, &clock[i]).unwrap());
        let mut root = [0; 2];
        for i in 0..2 {
            pager[i].begin().unwrap();
            root[i] = pager[i].alloc_page();
        }
        BTree::create(&mut pager[0], root[0], &clock[0]).unwrap();
        oracle::create(&mut pager[1], root[1], &clock[1]).unwrap();
        assert_eq!(root[0], root[1]);
        Twin { fs, pager, clock, root: root[0] }
    }

    /// Inserts into both trees and checks that they fail alike and charge
    /// the same virtual time.
    fn insert(&mut self, rowid: i64, value: &[u8]) -> SqlResult<()> {
        let [p0, p1] = &mut self.pager;
        let got = BTree { root: self.root }.insert(p0, rowid, value, &self.clock[0]);
        let want = oracle::insert(p1, self.root, rowid, value, &self.clock[1]);
        assert_eq!(got, want, "insert of rowid {rowid} ({} bytes)", value.len());
        assert_eq!(self.clock[0].now(), self.clock[1].now(), "clock after rowid {rowid}");
        got
    }

    /// Checks that both pagers hold the same pages, byte for byte.
    fn same_pages(&mut self, context: &str) {
        let side = ActorClock::new();
        let count = self.pager[0].page_count();
        assert_eq!(count, self.pager[1].page_count(), "page count ({context})");
        for page_no in 0..count {
            let got = self.pager[0].read_page(page_no, &side).unwrap().clone();
            let want = self.pager[1].read_page(page_no, &side).unwrap();
            assert!(got == *want, "page {page_no} differs ({context})");
        }
    }

    /// Commits both transactions, checks the database files and the clocks,
    /// and begins the next transaction.
    fn commit(&mut self) {
        for i in 0..2 {
            self.pager[i].commit(&self.clock[i]).unwrap();
        }
        assert_eq!(self.clock[0].now(), self.clock[1].now(), "clock after commit");
        assert_eq!(file_bytes(&*self.fs[0], "/twin.db"), file_bytes(&*self.fs[1], "/twin.db"));
        for pager in &mut self.pager {
            pager.begin().unwrap();
        }
    }

    /// Runs `rows` through both trees, comparing pages every 61 inserts and
    /// committing every `commit_every`, then reads every row back.
    fn run(rows: impl IntoIterator<Item = (i64, usize)>, commit_every: usize) -> Twin {
        let mut twin = Twin::new();
        let mut inserted = 0;
        for (i, (rowid, len)) in rows.into_iter().enumerate() {
            inserted += usize::from(twin.insert(rowid, &value(rowid, len)).is_ok());
            if i % 61 == 0 {
                twin.same_pages(&format!("after insert #{i}, rowid {rowid}"));
            }
            if (i + 1) % commit_every == 0 {
                twin.commit();
            }
        }
        twin.same_pages("at the end");
        twin.commit();
        let side = ActorClock::new();
        let bt = BTree { root: twin.root };
        let rows = bt.scan(&mut twin.pager[0], &side).unwrap();
        assert_eq!(rows.len(), inserted);
        assert!(rows.windows(2).all(|w| w[0].0 < w[1].0), "scan must be sorted");
        for (rowid, v) in rows.iter().step_by(7) {
            assert_eq!(&value(*rowid, v.len()), v);
            assert_eq!(bt.get(&mut twin.pager[0], *rowid, &side).unwrap().as_ref(), Some(v));
        }
        twin
    }

    /// The (depth, branch count) of the tree.
    fn shape(&mut self) -> (usize, usize) {
        oracle::shape(&mut self.pager[1], self.root, &ActorClock::new())
    }
}

fn value(rowid: i64, len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| (rowid as usize).wrapping_mul(31).wrapping_add(i) as u8)
        .collect()
}

fn file_bytes(fs: &dyn FileSystem, path: &str) -> Vec<u8> {
    let side = ActorClock::new();
    let fd = fs.open(path, vfs::OpenFlags::RDONLY, &side).unwrap();
    let mut buf = vec![0u8; fs.fstat(fd, &side).unwrap().size as usize];
    fs.pread(fd, &mut buf, 0, &side).unwrap();
    fs.close(fd, &side).unwrap();
    buf
}

/// 1 KiB values leave three cells a leaf, so a few thousand rows split
/// leaves, branches and the root (as a leaf and as a branch).
const BIG: usize = MAX_VALUE;

#[test]
fn in_place_matches_the_oracle_on_sequential_inserts() {
    let mut twin = Twin::run((0..3000).map(|r| (r, BIG)), 500);
    assert!(twin.shape().0 >= 3, "a branch under the root must have split: {:?}", twin.shape());
    let mut small = Twin::run((0..2000).map(|r| (r, 100)), 2000);
    assert_eq!(small.shape().0, 2);
}

#[test]
fn in_place_matches_the_oracle_on_reverse_inserts() {
    let mut twin = Twin::run((0..3000).rev().map(|r| (r, BIG)), 700);
    assert!(twin.shape().0 >= 3, "{:?}", twin.shape());
}

#[test]
fn in_place_matches_the_oracle_on_scrambled_inserts_of_any_size() {
    let mut rng = StdRng::seed_from_u64(42);
    let rows: Vec<(i64, usize)> = (0..4000)
        .map(|_| (rng.gen_range(0..1_000_000i64) - 500_000, rng.gen_range(0..=MAX_VALUE)))
        .collect();
    let mut twin = Twin::run(rows, 333);
    assert!(twin.shape().0 >= 3, "{:?}", twin.shape());
}

#[test]
fn in_place_matches_the_oracle_on_duplicate_and_oversized_rows() {
    let mut rng = StdRng::seed_from_u64(7);
    let mut twin = Twin::new();
    let (mut dups, mut oversized) = (0, 0);
    for i in 0..2500 {
        let rowid = rng.gen_range(0..1500i64);
        let len = if i % 97 == 0 { MAX_VALUE + 1 } else { rng.gen_range(0..300) };
        match twin.insert(rowid, &value(rowid, len)) {
            Err(SqlError::DuplicateRow(_)) => dups += 1,
            Err(SqlError::ValueTooLarge(_)) => oversized += 1,
            other => other.unwrap(),
        }
        if i % 250 == 0 {
            twin.same_pages(&format!("after insert #{i}"));
            twin.commit();
        }
    }
    twin.same_pages("at the end");
    twin.commit();
    assert!(dups > 500 && oversized > 20, "dups {dups}, oversized {oversized}");
}

#[test]
fn in_place_matches_the_oracle_on_interleaved_runs() {
    // Ascending runs started at random points: inserts land in the middle of
    // full leaves and branches, so splits put the new cell in either half.
    let mut rng = StdRng::seed_from_u64(3);
    let mut rows = Vec::new();
    while rows.len() < 3000 {
        let start = rng.gen_range(0..100_000i64) * 16;
        let len = rng.gen_range(1..12);
        rows.extend((0..len).map(|k| (start + k, rng.gen_range(500..=BIG))));
    }
    let mut twin = Twin::run(rows, 400);
    assert!(twin.shape().1 > 2, "{:?}", twin.shape());
}

/// FNV-1a over a byte slice.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3))
}

#[test]
fn a_database_file_and_its_clock_match_the_decoding_tree() {
    // Constants recorded from the tree that decoded and re-encoded every
    // page it touched; the in-place tree must write the same file at the
    // same virtual times.
    let clock = ActorClock::new();
    let fs: Arc<dyn FileSystem> = Arc::new(MemFs::new());
    let db =
        crate::SqlightDb::open(Arc::clone(&fs), "/digest.db", Default::default(), &clock).unwrap();
    db.create_table("t", &clock).unwrap();
    db.begin().unwrap();
    for i in 0..20_000i64 {
        let rowid = i * 7919 % 20_000;
        db.insert("t", rowid, &value(rowid, 100), &clock).unwrap();
    }
    db.commit(&clock).unwrap();
    for rowid in 20_000..23_000i64 {
        db.insert("t", rowid, &value(rowid, (rowid % 200) as usize), &clock).unwrap();
    }
    assert_eq!(db.scan("t", &clock).unwrap().len(), 23_000);
    assert_eq!(db.get("t", 12_345, &clock).unwrap(), Some(value(12_345, 100)));
    let bytes = file_bytes(&*fs, "/digest.db");
    assert_eq!(
        (format!("{:016x}", fnv1a(&bytes)), bytes.len(), clock.now()),
        (String::from("162fcc0ba44d7498"), 3_944_448, simclock::SimTime::from_nanos(191_085_166))
    );
}

#[test]
fn insert_get_small() {
    let (c, mut p, bt) = tree();
    bt.insert(&mut p, 5, b"five", &c).unwrap();
    bt.insert(&mut p, 1, b"one", &c).unwrap();
    bt.insert(&mut p, 3, b"three", &c).unwrap();
    assert_eq!(bt.get(&mut p, 3, &c).unwrap(), Some(b"three".to_vec()));
    assert_eq!(bt.get(&mut p, 4, &c).unwrap(), None);
}

#[test]
fn duplicate_rowid_rejected() {
    let (c, mut p, bt) = tree();
    bt.insert(&mut p, 1, b"a", &c).unwrap();
    assert!(matches!(bt.insert(&mut p, 1, b"b", &c), Err(SqlError::DuplicateRow(1))));
}

#[test]
fn oversized_value_rejected() {
    let (c, mut p, bt) = tree();
    assert!(matches!(
        bt.insert(&mut p, 1, &vec![0u8; MAX_VALUE + 1], &c),
        Err(SqlError::ValueTooLarge(_))
    ));
}

#[test]
fn thousands_of_rows_split_correctly() {
    let (c, mut p, bt) = tree();
    let n: i64 = 5000;
    // Insert in a scrambled order to exercise splits everywhere.
    for i in 0..n {
        let rowid = (i * 2654435761 % n + n) % n;
        if bt.get(&mut p, rowid, &c).unwrap().is_none() {
            bt.insert(&mut p, rowid, format!("row-{rowid}").as_bytes(), &c).unwrap();
        }
    }
    for rowid in (0..n).step_by(37) {
        if let Some(v) = bt.get(&mut p, rowid, &c).unwrap() {
            assert_eq!(v, format!("row-{rowid}").into_bytes());
        }
    }
    let all = bt.scan(&mut p, &c).unwrap();
    for w in all.windows(2) {
        assert!(w[0].0 < w[1].0, "scan must be sorted");
    }
}

#[test]
fn sequential_fill_and_scan() {
    let (c, mut p, bt) = tree();
    for i in 0..3000i64 {
        bt.insert(&mut p, i, &[7u8; 100], &c).unwrap();
    }
    let all = bt.scan(&mut p, &c).unwrap();
    assert_eq!(all.len(), 3000);
    assert_eq!(all[0].0, 0);
    assert_eq!(all[2999].0, 2999);
    assert_eq!(bt.get(&mut p, 2999, &c).unwrap(), Some(vec![7u8; 100]));
}

#[test]
fn persists_across_commit_and_reopen() {
    let c = ActorClock::new();
    let fs: Arc<dyn FileSystem> = Arc::new(MemFs::new());
    let root;
    {
        let mut pager = Pager::open(Arc::clone(&fs), "/p.db", true, &c).unwrap();
        pager.begin().unwrap();
        root = pager.alloc_page();
        let bt = BTree::create(&mut pager, root, &c).unwrap();
        for i in 0..500i64 {
            bt.insert(&mut pager, i, format!("v{i}").as_bytes(), &c).unwrap();
        }
        pager.commit(&c).unwrap();
        pager.close(&c).unwrap();
    }
    let mut pager = Pager::open(fs, "/p.db", true, &c).unwrap();
    let bt = BTree { root };
    assert_eq!(bt.get(&mut pager, 123, &c).unwrap(), Some(b"v123".to_vec()));
    assert_eq!(bt.scan(&mut pager, &c).unwrap().len(), 500);
}
