use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::RwLock;

use crate::{Fd, IoError, IoResult};

/// The concurrent file-descriptor table of a
/// [`Namespace`](crate::namespace::Namespace): allocates monotonically
/// increasing descriptors and maps them to per-open state.
#[derive(Debug)]
pub(crate) struct FdTable<T> {
    next: AtomicU64,
    map: RwLock<HashMap<u64, T>>,
}

impl<T: Clone> FdTable<T> {
    /// Creates an empty table; descriptors start at 3 (0–2 are reserved for
    /// the conventional standard streams).
    pub fn new() -> Self {
        FdTable { next: AtomicU64::new(3), map: RwLock::new(HashMap::new()) }
    }

    /// Allocates a descriptor for `state`.
    pub fn insert(&self, state: T) -> Fd {
        let fd = self.next.fetch_add(1, Ordering::Relaxed);
        self.map.write().insert(fd, state);
        Fd(fd)
    }

    /// Returns a clone of the state for `fd`.
    ///
    /// # Errors
    ///
    /// [`IoError::BadFd`] if not open.
    pub fn get(&self, fd: Fd) -> IoResult<T> {
        self.map.read().get(&fd.0).cloned().ok_or(IoError::BadFd(fd.0))
    }

    /// Removes and returns the state for `fd`.
    ///
    /// # Errors
    ///
    /// [`IoError::BadFd`] if not open.
    pub fn remove(&self, fd: Fd) -> IoResult<T> {
        self.map.write().remove(&fd.0).ok_or(IoError::BadFd(fd.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn descriptors_are_unique_and_start_at_3() {
        let t: FdTable<u32> = FdTable::new();
        let a = t.insert(1);
        let b = t.insert(2);
        assert_eq!(a, Fd(3));
        assert_eq!(b, Fd(4));
        assert_eq!(t.map.read().len(), 2);
    }

    #[test]
    fn insert_get_remove_round_trip() {
        let t: FdTable<String> = FdTable::new();
        let fd = t.insert("state".to_string());
        assert_eq!(t.get(fd).unwrap(), "state");
        t.remove(fd).unwrap();
        assert!(t.get(fd).is_err());
    }

    #[test]
    fn remove_then_get_fails() {
        let t: FdTable<u32> = FdTable::new();
        let fd = t.insert(9);
        assert_eq!(t.remove(fd).unwrap(), 9);
        assert_eq!(t.get(fd), Err(IoError::BadFd(fd.0)));
        assert_eq!(t.remove(fd), Err(IoError::BadFd(fd.0)));
    }

    #[test]
    fn concurrent_inserts_do_not_collide() {
        use std::sync::Arc;
        let t: Arc<FdTable<u64>> = Arc::new(FdTable::new());
        let mut handles = Vec::new();
        for i in 0..8u64 {
            let t = Arc::clone(&t);
            handles.push(std::thread::spawn(move || {
                (0..100).map(|j| t.insert(i * 100 + j).0).collect::<Vec<_>>()
            }));
        }
        let mut all: Vec<u64> = handles.into_iter().flat_map(|h| h.join().unwrap()).collect();
        let n = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n);
    }
}
