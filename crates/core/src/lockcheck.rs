//! Lock-order recorder (feature `pmcheck`).
//!
//! Records every tracked lock acquisition into a per-mount **acquisition-edge
//! graph** (node = lock class, edge `A → B` = "B was blocking-acquired while
//! A was held") with online cycle detection, plus an intra-class *ascending
//! `(file_id, page_no)`* rule for the per-page locks. This turns two
//! hand-proved invariants into machine-checked ones:
//!
//! * the cleanup worker's lock protocol (atomic page locks are never taken
//!   while cleanup locks are held in a conflicting order — the PR 1
//!   deadlock);
//! * multi-page operations acquire page locks in ascending
//!   `(file_id, page_no)` order (the PR 6 ordering proof for the multi-queue
//!   submission path).
//!
//! A violation panics at the acquiring call site with the full cycle (or
//! ordering breach) and one example call site per edge.
//!
//! The recorder is **per mount** (each [`Recorder`] is its own graph, and
//! held-lock stacks are tagged with the owning recorder), so two caches in
//! one test process can never manufacture a cycle between each other's
//! locks. `try`-acquisitions never block, so they add no incoming edge —
//! they only appear as the *held* side of later edges; a cycle reported by
//! this module is therefore always closed by blocking acquisitions alone.
//!
//! Without the `pmcheck` feature the whole recorder is a zero-sized no-op.

/// Lock classes tracked by the recorder. `detail` distinguishes instances
/// within a class where nesting across instances is meaningful (the stripe
/// index for the per-stripe locks).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum Class {
    /// `Stripe::alloc_lock` — head advancement + global sequence draw.
    StripeAlloc,
    /// `Stripe::space_lock` — full-stripe waiting / space publication.
    StripeSpace,
    /// `Stripe::work_lock` — cleanup-worker wakeups.
    StripeWork,
    /// `PageDescriptor::lock()` — the per-page atomic lock.
    PageAtomic,
    /// `PageDescriptor::lock_cleanup()` — the per-page cleanup lock.
    PageCleanup,
    /// `Shared::files` — the path → `FileState` map.
    FilesMap,
    /// `Shared::opened` — the volatile fd table.
    OpenedMap,
    /// `Shared::zombies` — closed-but-draining files.
    Zombies,
    /// Migration gate leases/claims (`MigrationGate`).
    MigrationGate,
    /// The migrator's closed-file catalog.
    MigratorCatalog,
    /// `OpenedFile::inner` — the guarded inner descriptor, read-held
    /// across inner calls (always after any page lock), write-held to
    /// release it.
    InnerFd,
    /// `FileState::push_lock` — one `close`/`rename` push per file at a
    /// time; taken before the tail pin.
    FilePush,
    /// `Log::tail_pin` — read-held across a push, write-held to free.
    TailPin,
}

#[cfg(feature = "pmcheck")]
impl Class {
    fn name(self) -> &'static str {
        match self {
            Class::StripeAlloc => "StripeAlloc",
            Class::StripeSpace => "StripeSpace",
            Class::StripeWork => "StripeWork",
            Class::PageAtomic => "PageAtomic",
            Class::PageCleanup => "PageCleanup",
            Class::FilesMap => "FilesMap",
            Class::OpenedMap => "OpenedMap",
            Class::Zombies => "Zombies",
            Class::MigrationGate => "MigrationGate",
            Class::MigratorCatalog => "MigratorCatalog",
            Class::InnerFd => "InnerFd",
            Class::FilePush => "FilePush",
            Class::TailPin => "TailPin",
        }
    }

    /// Whether holding several locks of this class on one thread is legal
    /// without an intra-class order (counted leases; page classes are
    /// instead governed by the ascending rule).
    fn self_nesting_ok(self) -> bool {
        matches!(self, Class::MigrationGate)
    }
}

pub(crate) use imp::{Held, Recorder};

#[cfg(not(feature = "pmcheck"))]
mod imp {
    use super::Class;

    /// No-op recorder (feature `pmcheck` disabled): zero-sized, everything
    /// inlines to nothing. Braced (not a unit struct) so `Recorder::default()`
    /// reads the same with the feature on and off.
    #[derive(Debug, Clone, Default)]
    pub(crate) struct Recorder {}

    /// No-op guard.
    #[derive(Debug)]
    pub(crate) struct Held;

    impl Recorder {
        pub fn new() -> Self {
            Recorder {}
        }

        #[inline(always)]
        pub fn acquire(&self, _class: Class, _detail: u64) -> Held {
            Held
        }

        #[inline(always)]
        pub fn acquire_try(&self, _class: Class, _detail: u64) -> Held {
            Held
        }

        #[inline(always)]
        pub fn acquire_page(&self, _class: Class, _file_id: u64, _page_no: u64) -> Held {
            Held
        }
    }
}

#[cfg(feature = "pmcheck")]
mod imp {
    use super::Class;
    use parking_lot::Mutex;
    use std::cell::RefCell;
    use std::collections::HashMap;
    use std::panic::Location;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    type Node = (Class, u64);

    fn node_name(n: Node) -> String {
        if n.1 != 0 || matches!(n.0, Class::StripeAlloc | Class::StripeSpace | Class::StripeWork) {
            format!("{}[{}]", n.0.name(), n.1)
        } else {
            n.0.name().to_string()
        }
    }

    #[derive(Clone, Copy)]
    struct Site(&'static Location<'static>);

    impl std::fmt::Display for Site {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            write!(f, "{}:{}", self.0.file(), self.0.line())
        }
    }

    /// One example of how an edge was created: (held-at, acquired-at).
    struct EdgeExample {
        held_site: Site,
        acq_site: Site,
    }

    #[derive(Default)]
    struct Graph {
        /// Adjacency: `a → b` with one example acquisition per edge.
        edges: HashMap<(Class, u64), HashMap<(Class, u64), EdgeExample>>,
    }

    impl Graph {
        /// Is `to` reachable from `from`?
        fn reaches(&self, from: Node, to: Node) -> bool {
            let mut stack = vec![from];
            let mut seen = std::collections::HashSet::new();
            while let Some(n) = stack.pop() {
                if n == to {
                    return true;
                }
                if !seen.insert(n) {
                    continue;
                }
                if let Some(next) = self.edges.get(&n) {
                    stack.extend(next.keys().copied());
                }
            }
            false
        }

        /// One path `from → … → to` (exists by prior `reaches` check).
        fn path(&self, from: Node, to: Node) -> Vec<(Node, Node)> {
            let mut prev: HashMap<Node, Node> = HashMap::new();
            let mut stack = vec![from];
            let mut seen = std::collections::HashSet::from([from]);
            'outer: while let Some(n) = stack.pop() {
                if let Some(next) = self.edges.get(&n) {
                    for &m in next.keys() {
                        if seen.insert(m) {
                            prev.insert(m, n);
                            if m == to {
                                break 'outer;
                            }
                            stack.push(m);
                        }
                    }
                }
            }
            let mut hops = Vec::new();
            let mut cur = to;
            while cur != from {
                let p = prev[&cur];
                hops.push((p, cur));
                cur = p;
            }
            hops.reverse();
            hops
        }
    }

    struct Inner {
        id: u64,
        graph: Mutex<Graph>,
        violations: Mutex<Vec<String>>,
    }

    /// Per-mount lock-order recorder (real implementation).
    #[derive(Clone)]
    pub(crate) struct Recorder {
        inner: Arc<Inner>,
    }

    impl std::fmt::Debug for Recorder {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.debug_struct("Recorder").field("id", &self.inner.id).finish()
        }
    }

    impl Default for Recorder {
        fn default() -> Self {
            Self::new()
        }
    }

    struct HeldEntry {
        rec: u64,
        token: u64,
        node: Node,
        page: Option<(u64, u64)>,
        site: Site,
    }

    thread_local! {
        static HELD: RefCell<Vec<HeldEntry>> = const { RefCell::new(Vec::new()) };
    }

    static NEXT_REC: AtomicU64 = AtomicU64::new(1);
    static NEXT_TOKEN: AtomicU64 = AtomicU64::new(1);

    /// Removes its held-stack entry on drop (by token, so out-of-order guard
    /// drops are handled).
    pub(crate) struct Held {
        token: u64,
    }

    impl std::fmt::Debug for Held {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.debug_struct("Held").field("token", &self.token).finish()
        }
    }

    impl Drop for Held {
        fn drop(&mut self) {
            HELD.with(|h| {
                let mut held = h.borrow_mut();
                if let Some(pos) = held.iter().rposition(|e| e.token == self.token) {
                    held.remove(pos);
                }
            });
        }
    }

    impl Recorder {
        pub fn new() -> Self {
            Recorder {
                inner: Arc::new(Inner {
                    id: NEXT_REC.fetch_add(1, Ordering::Relaxed),
                    graph: Mutex::new(Graph::default()),
                    violations: Mutex::new(Vec::new()),
                }),
            }
        }

        /// Violations recorded so far (they also panic when detected).
        #[allow(dead_code)] // test/reporting surface
        pub fn violations(&self) -> Vec<String> {
            self.inner.violations.lock().clone()
        }

        /// Distinct acquisition edges observed (reporting surface).
        #[allow(dead_code)]
        pub fn edge_count(&self) -> usize {
            self.inner.graph.lock().edges.values().map(|m| m.len()).sum()
        }

        fn flag(&self, msg: String) -> ! {
            self.inner.violations.lock().push(msg.clone());
            panic!("{msg}");
        }

        /// Records a *blocking* acquisition of `(class, detail)` and checks
        /// it against everything this thread holds from the same recorder.
        #[track_caller]
        pub fn acquire(&self, class: Class, detail: u64) -> Held {
            self.record(class, detail, None, true)
        }

        /// Records a `try_…` acquisition: it cannot block, so it adds no
        /// incoming edge and is exempt from ordering rules; it still joins
        /// the held stack as a potential *source* of later edges.
        #[track_caller]
        pub fn acquire_try(&self, class: Class, detail: u64) -> Held {
            self.record(class, detail, None, false)
        }

        /// Records a blocking per-page acquisition, enforcing strictly
        /// ascending `(file_id, page_no)` within the class.
        #[track_caller]
        pub fn acquire_page(&self, class: Class, file_id: u64, page_no: u64) -> Held {
            self.record(class, 0, Some((file_id, page_no)), true)
        }

        #[track_caller]
        fn record(
            &self,
            class: Class,
            detail: u64,
            page: Option<(u64, u64)>,
            blocking: bool,
        ) -> Held {
            let site = Site(Location::caller());
            let node: Node = (class, detail);
            let me = self.inner.id;
            let token = NEXT_TOKEN.fetch_add(1, Ordering::Relaxed);

            if blocking {
                // Ordering/nesting rules against the current held stack.
                let conflict = HELD.with(|h| {
                    let held = h.borrow();
                    for e in held.iter().filter(|e| e.rec == me) {
                        if e.node != node {
                            continue;
                        }
                        match (e.page, page) {
                            (Some(hp), Some(np)) => {
                                if np <= hp {
                                    return Some(format!(
                                        "lockcheck violation: {} (file {}, page {}) acquired at \
                                         {site} while already holding {} (file {}, page {}) \
                                         (acquired at {}) — per-page locks must be taken in \
                                         strictly ascending (file_id, page_no) order",
                                        node_name(node),
                                        np.0,
                                        np.1,
                                        node_name(e.node),
                                        hp.0,
                                        hp.1,
                                        e.site,
                                    ));
                                }
                            }
                            _ if class.self_nesting_ok() => {}
                            _ => {
                                return Some(format!(
                                    "lockcheck violation: {} acquired at {site} while already \
                                     held by this thread (acquired at {}) — this class is not \
                                     re-entrant, so this self-deadlocks",
                                    node_name(node),
                                    e.site,
                                ));
                            }
                        }
                    }
                    None
                });
                if let Some(msg) = conflict {
                    self.flag(msg);
                }

                // Cross-class edges + cycle detection.
                let new_edges: Vec<(Node, Site)> = HELD.with(|h| {
                    h.borrow()
                        .iter()
                        .filter(|e| e.rec == me && e.node != node)
                        .map(|e| (e.node, e.site))
                        .collect()
                });
                if !new_edges.is_empty() {
                    let mut graph = self.inner.graph.lock();
                    for (held_node, held_site) in new_edges {
                        let known =
                            graph.edges.get(&held_node).is_some_and(|m| m.contains_key(&node));
                        if known {
                            continue;
                        }
                        // Adding held_node → node: a pre-existing path
                        // node → … → held_node closes a cycle.
                        if graph.reaches(node, held_node) {
                            let path = graph.path(node, held_node);
                            let mut msg = format!(
                                "lockcheck violation: acquiring {} at {site} while holding {} \
                                 (acquired at {held_site}) closes a lock-order cycle:\n  {} -> {} \
                                 (this acquisition)",
                                node_name(node),
                                node_name(held_node),
                                node_name(held_node),
                                node_name(node),
                            );
                            for (a, b) in path {
                                let ex = &graph.edges[&a][&b];
                                msg.push_str(&format!(
                                    "\n  {} -> {} (held at {}, acquired at {})",
                                    node_name(a),
                                    node_name(b),
                                    ex.held_site,
                                    ex.acq_site,
                                ));
                            }
                            drop(graph);
                            self.flag(msg);
                        }
                        graph
                            .edges
                            .entry(held_node)
                            .or_default()
                            .insert(node, EdgeExample { held_site, acq_site: site });
                    }
                }
            }

            HELD.with(|h| h.borrow_mut().push(HeldEntry { rec: me, token, node, page, site }));
            Held { token }
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        fn catch(f: impl FnOnce()) -> String {
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).unwrap_err();
            err.downcast_ref::<String>().cloned().unwrap_or_default()
        }

        #[test]
        fn consistent_order_is_clean() {
            let r = Recorder::new();
            for _ in 0..3 {
                let _a = r.acquire(Class::FilesMap, 0);
                let _b = r.acquire(Class::Zombies, 0);
            }
            assert_eq!(r.edge_count(), 1);
            assert!(r.violations().is_empty());
        }

        #[test]
        fn inverted_order_is_a_cycle() {
            let r = Recorder::new();
            {
                let _a = r.acquire(Class::FilesMap, 0);
                let _b = r.acquire(Class::Zombies, 0);
            }
            let r2 = r.clone();
            let msg = catch(move || {
                let _b = r2.acquire(Class::Zombies, 0);
                let _a = r2.acquire(Class::FilesMap, 0);
            });
            assert!(msg.contains("lock-order cycle"), "{msg}");
            assert!(msg.contains("FilesMap"), "{msg}");
            assert!(msg.contains("Zombies"), "{msg}");
            assert_eq!(r.violations().len(), 1);
        }

        #[test]
        fn three_party_cycle_is_found() {
            let r = Recorder::new();
            {
                let _a = r.acquire(Class::FilesMap, 0);
                let _b = r.acquire(Class::Zombies, 0);
            }
            {
                let _b = r.acquire(Class::Zombies, 0);
                let _c = r.acquire(Class::OpenedMap, 0);
            }
            let r2 = r.clone();
            let msg = catch(move || {
                let _c = r2.acquire(Class::OpenedMap, 0);
                let _a = r2.acquire(Class::FilesMap, 0);
            });
            assert!(msg.contains("lock-order cycle"), "{msg}");
            assert!(msg.contains("OpenedMap"), "{msg}");
        }

        #[test]
        fn ascending_pages_are_clean_descending_flagged() {
            let r = Recorder::new();
            {
                let _p1 = r.acquire_page(Class::PageAtomic, 1, 1);
                let _p2 = r.acquire_page(Class::PageAtomic, 1, 2);
                let _p3 = r.acquire_page(Class::PageAtomic, 2, 0);
            }
            let r2 = r.clone();
            let msg = catch(move || {
                let _p2 = r2.acquire_page(Class::PageAtomic, 1, 2);
                let _p1 = r2.acquire_page(Class::PageAtomic, 1, 1);
            });
            assert!(msg.contains("ascending"), "{msg}");
        }

        #[test]
        fn same_page_twice_is_flagged() {
            let r = Recorder::new();
            let msg = catch(move || {
                let _p = r.acquire_page(Class::PageAtomic, 3, 7);
                let _q = r.acquire_page(Class::PageAtomic, 3, 7);
            });
            assert!(msg.contains("ascending"), "{msg}");
        }

        #[test]
        fn non_reentrant_self_acquire_is_flagged() {
            let r = Recorder::new();
            let msg = catch(move || {
                let _a = r.acquire(Class::FilesMap, 0);
                let _b = r.acquire(Class::FilesMap, 0);
            });
            assert!(msg.contains("not re-entrant"), "{msg}");
        }

        #[test]
        fn gate_leases_may_nest() {
            let r = Recorder::new();
            let _from = r.acquire(Class::MigrationGate, 0);
            let _to = r.acquire(Class::MigrationGate, 0);
            assert!(r.violations().is_empty());
        }

        #[test]
        fn try_acquire_closes_no_cycle() {
            let r = Recorder::new();
            {
                let _a = r.acquire(Class::FilesMap, 0);
                let _b = r.acquire(Class::Zombies, 0);
            }
            // Inverted, but via try: cannot block, must not flag.
            let _b = r.acquire(Class::Zombies, 0);
            let _a = r.acquire_try(Class::FilesMap, 0);
            assert!(r.violations().is_empty());
        }

        #[test]
        fn recorders_are_isolated() {
            let r1 = Recorder::new();
            let r2 = Recorder::new();
            {
                let _a = r1.acquire(Class::FilesMap, 0);
                let _b = r1.acquire(Class::Zombies, 0);
            }
            // The inverse order on a different recorder is a different mount:
            // no cross-mount cycle.
            let _b = r2.acquire(Class::Zombies, 0);
            let _a = r2.acquire(Class::FilesMap, 0);
            assert!(r1.violations().is_empty());
            assert!(r2.violations().is_empty());
        }

        #[test]
        fn stripe_instances_are_distinct_nodes() {
            let r = Recorder::new();
            {
                let _a = r.acquire(Class::StripeAlloc, 0);
                let _b = r.acquire(Class::StripeAlloc, 1);
            }
            assert!(r.violations().is_empty());
        }
    }
}
