//! The per-file lock-free radix tree (paper §II-C): maps page numbers to
//! [`PageDescriptor`]s with on-demand node allocation, so concurrent
//! readers/writers can find or create a page's descriptor without a global
//! lock.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use crate::pagedesc::PageDescriptor;

/// Fan-out of each radix level (6 bits).
const FANOUT: usize = 64;
/// Levels in the tree: 6 levels x 6 bits = 36 bits of page number, i.e.
/// files up to 2^36 pages (256 TiB at 4 KiB pages).
const LEVELS: u32 = 6;
const BITS: u32 = 6;

enum Child {
    Node(Box<Node>),
    Leaf(Arc<PageDescriptor>),
}

struct Node {
    children: Vec<OnceLock<Child>>,
}

impl Node {
    fn new() -> Box<Node> {
        let mut children = Vec::with_capacity(FANOUT);
        children.resize_with(FANOUT, OnceLock::new);
        Box::new(Node { children })
    }
}

/// The per-file lock-free radix tree of page descriptors (paper §II-C/§II-D
/// "Scalable data structures").
///
/// Descriptors are created on demand with compare-and-swap-once semantics
/// (`OnceLock`): racing threads agree on one winner and everyone uses the
/// resulting descriptor. Nothing is ever removed — the whole tree is freed
/// when the file is closed, exactly as the paper specifies ("NVCache never
/// removes elements from the tree, except when it frees the tree upon
/// close").
///
/// # Example
///
/// ```
/// use nvcache::Radix;
/// let r = Radix::new(7);
/// let a = r.get_or_create(42);
/// let b = r.get_or_create(42);
/// assert!(std::sync::Arc::ptr_eq(&a, &b));
/// assert_eq!(a.file_id(), 7);
/// ```
pub struct Radix {
    /// The owning file's id, stamped on every leaf: the read cache finds a
    /// file's loaded pages by it.
    file_id: u64,
    root: Box<Node>,
    descriptors: AtomicUsize,
}

impl std::fmt::Debug for Radix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Radix").field("descriptors", &self.len()).finish()
    }
}

impl Radix {
    /// Creates the empty tree of file `file_id`.
    pub fn new(file_id: u64) -> Self {
        Radix { file_id, root: Node::new(), descriptors: AtomicUsize::new(0) }
    }

    /// Number of page descriptors ever created in this tree.
    pub fn len(&self) -> usize {
        self.descriptors.load(Ordering::Relaxed)
    }

    /// Whether the tree holds no descriptors.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn index_at(page: u64, level: u32) -> usize {
        // level 0 is the root: most-significant 6-bit group first.
        ((page >> (BITS * (LEVELS - 1 - level))) & (FANOUT as u64 - 1)) as usize
    }

    /// Returns the descriptor for `page` if it exists.
    ///
    /// # Panics
    ///
    /// Panics if `page` exceeds the addressable range (2^36 pages).
    pub fn get(&self, page: u64) -> Option<Arc<PageDescriptor>> {
        assert!(page < 1 << (BITS * LEVELS), "page number out of radix range");
        let mut node = &*self.root;
        for level in 0..LEVELS - 1 {
            node = match node.children[Self::index_at(page, level)].get()? {
                Child::Node(n) => n,
                Child::Leaf(_) => unreachable!("leaf above the last level"),
            };
        }
        match node.children[Self::index_at(page, LEVELS - 1)].get()? {
            Child::Leaf(d) => Some(Arc::clone(d)),
            Child::Node(_) => unreachable!("node at the leaf level"),
        }
    }

    /// Returns the descriptor for `page`, creating it (and any missing
    /// interior nodes) with CAS-once semantics.
    ///
    /// # Panics
    ///
    /// Panics if `page` exceeds the addressable range (2^36 pages).
    pub fn get_or_create(&self, page: u64) -> Arc<PageDescriptor> {
        assert!(page < 1 << (BITS * LEVELS), "page number out of radix range");
        let mut node = &*self.root;
        for level in 0..LEVELS - 1 {
            node = match node.children[Self::index_at(page, level)]
                .get_or_init(|| Child::Node(Node::new()))
            {
                Child::Node(n) => n,
                Child::Leaf(_) => unreachable!("leaf above the last level"),
            };
        }
        let idx = Self::index_at(page, LEVELS - 1);
        let mut created = false;
        let child = node.children[idx].get_or_init(|| {
            created = true;
            Child::Leaf(Arc::new(PageDescriptor::for_file(self.file_id, page)))
        });
        if created {
            self.descriptors.fetch_add(1, Ordering::Relaxed);
        }
        match child {
            Child::Leaf(d) => Arc::clone(d),
            Child::Node(_) => unreachable!("node at the leaf level"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_then_get_same_descriptor() {
        let r = Radix::new(3);
        let d = r.get_or_create(123_456_789);
        assert_eq!((d.file_id(), d.page_no()), (3, 123_456_789));
        let again = r.get(123_456_789).expect("present");
        assert!(Arc::ptr_eq(&d, &again));
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn missing_page_is_none() {
        let r = Radix::new(1);
        assert!(r.get(5).is_none());
        r.get_or_create(5);
        assert!(r.get(4).is_none());
    }

    #[test]
    fn dense_and_sparse_pages_coexist() {
        let r = Radix::new(1);
        for p in 0..100u64 {
            r.get_or_create(p);
        }
        r.get_or_create((1 << 36) - 1);
        assert_eq!(r.len(), 101);
        assert!(r.get(99).is_some());
        assert!(r.get((1 << 36) - 1).is_some());
    }

    #[test]
    fn concurrent_creation_converges() {
        let r = Arc::new(Radix::new(1));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let r = Arc::clone(&r);
            handles.push(std::thread::spawn(move || {
                (0..512u64)
                    .map(|p| Arc::as_ptr(&r.get_or_create(p)) as usize)
                    .collect::<Vec<_>>()
            }));
        }
        let results: Vec<Vec<usize>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for other in &results[1..] {
            assert_eq!(&results[0], other, "all threads must see the same descriptors");
        }
        assert_eq!(r.len(), 512);
    }

    #[test]
    #[should_panic(expected = "out of radix range")]
    fn page_out_of_range_panics() {
        Radix::new(1).get_or_create(1 << 36);
    }
}
