//! The POSIX namespace under the four inner file systems.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{RwLock, RwLockReadGuard};

use crate::fdmap::FdTable;
use crate::path::parent_of;
use crate::{normalize_path, Fd, IoError, IoResult, Metadata, OpenFlags};

/// One file: its number, what keeps it alive, and the file system's own
/// per-inode state.
#[derive(Debug)]
pub(crate) struct Inode<D> {
    pub ino: u64,
    /// One reference for the name, one per open descriptor. An unlinked file
    /// lives on until its last descriptor is closed.
    refs: AtomicU64,
    pub data: D,
}

impl<D> Inode<D> {
    /// Drops one reference; `true` tells the caller it was the last one and
    /// the inode is to be forgotten.
    fn release(&self) -> bool {
        self.refs.fetch_sub(1, Ordering::AcqRel) == 1
    }
}

/// What [`Namespace::open`] decided.
pub(crate) struct Opened<D> {
    pub fd: Fd,
    pub inode: Arc<Inode<D>>,
    /// The file did not exist: this call created it.
    pub created: bool,
    /// The file existed and the flags ask a writer's `O_TRUNC`: the caller
    /// empties it.
    pub truncate: bool,
}

/// The names, and every live inode (named or merely open) by number.
pub(crate) struct Names<D> {
    by_path: HashMap<String, Arc<Inode<D>>>,
    by_ino: HashMap<u64, Arc<Inode<D>>>,
    /// Implicit-directory index: each ancestor directory of a named file,
    /// with the number of files beneath it. Keeps `stat` on a missing path
    /// O(depth) instead of scanning the whole namespace — at a million
    /// files the linear scan turned every create-open quadratic.
    dirs: HashMap<String, u64>,
}

impl<D> Names<D> {
    /// The live inode numbered `ino`.
    pub fn by_ino(&self, ino: u64) -> Option<&Arc<Inode<D>>> {
        self.by_ino.get(&ino)
    }

    /// Number of live inodes.
    #[cfg(test)]
    pub fn live(&self) -> usize {
        self.by_ino.len()
    }

    /// Gives `inode` the name `path`; returns the inode that had it.
    fn bind(&mut self, path: String, inode: Arc<Inode<D>>) -> Option<Arc<Inode<D>>> {
        if !self.by_path.contains_key(&path) {
            let mut dir = parent_of(&path);
            while dir != "/" {
                *self.dirs.entry(dir.to_string()).or_insert(0) += 1;
                dir = parent_of(dir);
            }
        }
        self.by_path.insert(path, inode)
    }

    /// Takes the name `path` away from its inode and returns the inode.
    fn unbind(&mut self, path: &str) -> Option<Arc<Inode<D>>> {
        let inode = self.by_path.remove(path)?;
        let mut dir = parent_of(path);
        while dir != "/" {
            if let Some(n) = self.dirs.get_mut(dir) {
                *n -= 1;
                if *n == 0 {
                    self.dirs.remove(dir);
                }
            }
            dir = parent_of(dir);
        }
        Some(inode)
    }

    /// Forgets an inode nothing refers to any more (no name, no descriptor).
    fn forget(&mut self, inode: &Inode<D>, retire: impl FnOnce(&Inode<D>)) {
        self.by_ino.remove(&inode.ino);
        retire(inode);
    }

    /// Drops the reference a name held.
    fn release(&mut self, inode: &Inode<D>, retire: impl FnOnce(&Inode<D>)) {
        if inode.release() {
            self.forget(inode, retire);
        }
    }
}

/// Path map, directory index, descriptor table, inode numbering and the
/// liveness rule of a flat POSIX namespace, for a file system whose
/// per-inode state is `D`.
///
/// An inode holds one reference for its name and one per descriptor. When
/// the last one goes, the `retire` closure of the call that dropped it runs
/// once, under the namespace's write lock — the file system frees the
/// inode's storage there, so the locks it takes come after the namespace's.
/// Nothing here costs virtual time: the file systems charge their own.
pub(crate) struct Namespace<D> {
    dev_id: u64,
    next_ino: AtomicU64,
    names: RwLock<Names<D>>,
    fds: FdTable<(Arc<Inode<D>>, OpenFlags)>,
}

impl<D> Namespace<D> {
    /// An empty namespace on device `dev_id`.
    pub fn new(dev_id: u64) -> Self {
        let names = Names { by_path: HashMap::new(), by_ino: HashMap::new(), dirs: HashMap::new() };
        Namespace {
            dev_id,
            next_ino: AtomicU64::new(1),
            names: RwLock::new(names),
            fds: FdTable::new(),
        }
    }

    /// Opens `path`; `payload` builds the state of a file this call creates.
    ///
    /// # Errors
    ///
    /// [`IoError::AlreadyExists`] for `CREATE|EXCL` on an existing name,
    /// [`IoError::NotFound`] for a missing one without `CREATE`.
    pub fn open(
        &self,
        path: &str,
        flags: OpenFlags,
        payload: impl FnOnce() -> D,
    ) -> IoResult<Opened<D>> {
        let path = normalize_path(path);
        // The descriptor's reference, taken while the name holds its own.
        let share = |inode: &Arc<Inode<D>>| {
            inode.refs.fetch_add(1, Ordering::Relaxed);
            Arc::clone(inode)
        };
        let (inode, created) = if flags.contains(OpenFlags::CREATE) {
            let mut names = self.names.write();
            match names.by_path.get(&path) {
                Some(_) if flags.contains(OpenFlags::EXCL) => {
                    return Err(IoError::AlreadyExists(path));
                }
                Some(inode) => (share(inode), false),
                None => {
                    let inode = Arc::new(Inode {
                        ino: self.next_ino.fetch_add(1, Ordering::Relaxed),
                        refs: AtomicU64::new(2), // the name and this descriptor
                        data: payload(),
                    });
                    names.by_ino.insert(inode.ino, Arc::clone(&inode));
                    names.bind(path, Arc::clone(&inode));
                    (inode, true)
                }
            }
        } else {
            match self.names.read().by_path.get(&path) {
                Some(inode) => (share(inode), false),
                None => return Err(IoError::NotFound(path)),
            }
        };
        let truncate = !created && flags.contains(OpenFlags::TRUNC) && flags.writable();
        let fd = self.fds.insert((Arc::clone(&inode), flags));
        Ok(Opened { fd, inode, created, truncate })
    }

    /// Closes `fd`.
    ///
    /// # Errors
    ///
    /// [`IoError::BadFd`] if `fd` is not open.
    pub fn close(&self, fd: Fd, retire: impl FnOnce(&Inode<D>)) -> IoResult<()> {
        let (inode, _) = self.fds.remove(fd)?;
        if inode.release() {
            self.names.write().forget(&inode, retire);
        }
        Ok(())
    }

    /// The inode behind `fd`.
    ///
    /// # Errors
    ///
    /// [`IoError::BadFd`] if `fd` is not open.
    pub fn inode(&self, fd: Fd) -> IoResult<Arc<Inode<D>>> {
        self.fds.get(fd).map(|(inode, _)| inode)
    }

    /// The inode behind `fd`, for a read.
    ///
    /// # Errors
    ///
    /// [`IoError::BadFd`]; [`IoError::PermissionDenied`] on a write-only
    /// descriptor.
    pub fn readable(&self, fd: Fd) -> IoResult<Arc<Inode<D>>> {
        match self.fds.get(fd)? {
            (inode, flags) if flags.readable() => Ok(inode),
            _ => Err(IoError::PermissionDenied("fd opened write-only".into())),
        }
    }

    /// The inode behind `fd` and the flags it was opened with, for a write.
    ///
    /// # Errors
    ///
    /// [`IoError::BadFd`]; [`IoError::PermissionDenied`] on a read-only
    /// descriptor.
    pub fn writable(&self, fd: Fd) -> IoResult<(Arc<Inode<D>>, OpenFlags)> {
        match self.fds.get(fd)? {
            (_, flags) if !flags.writable() => {
                Err(IoError::PermissionDenied("fd opened read-only".into()))
            }
            open => Ok(open),
        }
    }

    fn metadata(&self, ino: u64, size: u64, is_dir: bool) -> Metadata {
        Metadata { dev: self.dev_id, ino, size, is_dir }
    }

    /// Metadata by descriptor; `size` reads the file's length.
    ///
    /// # Errors
    ///
    /// [`IoError::BadFd`] if `fd` is not open.
    pub fn fstat(&self, fd: Fd, size: impl FnOnce(&D) -> u64) -> IoResult<Metadata> {
        let inode = self.inode(fd)?;
        Ok(self.metadata(inode.ino, size(&inode.data), false))
    }

    /// Metadata by path: a file, or a directory — the root, or a proper
    /// ancestor of some file.
    ///
    /// # Errors
    ///
    /// [`IoError::NotFound`] if `path` is neither.
    pub fn stat(&self, path: &str, size: impl FnOnce(&D) -> u64) -> IoResult<Metadata> {
        let path = normalize_path(path);
        let names = self.names.read();
        match names.by_path.get(&path) {
            Some(inode) => Ok(self.metadata(inode.ino, size(&inode.data), false)),
            None if path == "/" || names.dirs.contains_key(&path) => Ok(self.metadata(0, 0, true)),
            None => Err(IoError::NotFound(path)),
        }
    }

    /// Removes the name `path`.
    ///
    /// # Errors
    ///
    /// [`IoError::NotFound`] if there is no such file.
    pub fn unlink(&self, path: &str, retire: impl FnOnce(&Inode<D>)) -> IoResult<()> {
        let path = normalize_path(path);
        let mut names = self.names.write();
        let inode = names.unbind(&path).ok_or(IoError::NotFound(path))?;
        names.release(&inode, retire);
        Ok(())
    }

    /// Renames `from` to `to`; a file that was named `to` loses its name.
    ///
    /// # Errors
    ///
    /// [`IoError::NotFound`] if there is no file `from`.
    pub fn rename(&self, from: &str, to: &str, retire: impl FnOnce(&Inode<D>)) -> IoResult<()> {
        let from = normalize_path(from);
        let mut names = self.names.write();
        let inode = names.unbind(&from).ok_or(IoError::NotFound(from))?;
        if let Some(replaced) = names.bind(normalize_path(to), inode) {
            names.release(&replaced, retire);
        }
        Ok(())
    }

    /// The files whose parent directory is exactly `dir`, sorted.
    pub fn list_dir(&self, dir: &str) -> Vec<String> {
        let dir = normalize_path(dir);
        let names = self.names.read();
        let mut out: Vec<String> =
            names.by_path.keys().filter(|k| parent_of(k) == dir).cloned().collect();
        out.sort();
        out
    }

    /// Read access to the names, for lookups by inode number.
    pub fn read(&self) -> RwLockReadGuard<'_, Names<D>> {
        self.names.read()
    }

    /// Number of named files.
    pub fn len(&self) -> usize {
        self.names.read().by_path.len()
    }

    /// Forgets every name (a volatile file system's power failure); open
    /// descriptors keep their inodes.
    pub fn clear(&self, mut retire: impl FnMut(&Inode<D>)) {
        let mut names = self.names.write();
        names.dirs.clear();
        let unnamed: Vec<_> = names.by_path.drain().map(|(_, inode)| inode).collect();
        for inode in unnamed {
            names.release(&inode, &mut retire);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::cell::RefCell;
    use std::collections::{BTreeSet, HashMap};

    /// Five names under nested directories; `/a` doubles as a path that is a
    /// file or nothing, never a directory.
    const PATHS: [&str; 5] = ["/a", "/d/b", "/d/c", "/d/e/f", "/g/h/i"];
    const DIRS: [&str; 7] = ["/", "/a", "/d", "/d/e", "/g", "/g/h", "/nowhere"];

    #[derive(Debug, Clone)]
    enum Op {
        Open {
            path: usize,
            create: bool,
            excl: bool,
            trunc: bool,
            write: bool,
        },
        /// Closes the `n`-th open descriptor, or a descriptor nobody holds.
        Close(usize),
        Unlink(usize),
        Rename(usize, usize),
        Clear,
    }

    fn op() -> impl Strategy<Value = Op> {
        let flag = any::<bool>;
        // Half of the opens create, or nothing would ever exist.
        let open = |creating: bool| {
            (0..5usize, flag(), flag(), flag(), flag()).prop_map(
                move |(path, create, excl, trunc, write)| {
                    let create = create || creating;
                    Op::Open { path, create, excl, trunc, write }
                },
            )
        };
        prop_oneof![
            open(false),
            open(true),
            (0..8usize).prop_map(Op::Close),
            (0..5usize).prop_map(Op::Unlink),
            (0..5usize, 0..5usize).prop_map(|(from, to)| Op::Rename(from, to)),
            (0..8usize).prop_map(|n| if n == 0 { Op::Clear } else { Op::Close(n) }),
        ]
    }

    /// What a namespace must look like: who has which name, who holds which
    /// descriptor, and every inode ever created.
    #[derive(Default)]
    struct Model {
        names: HashMap<&'static str, u64>,
        fds: Vec<(Fd, u64)>,
        born: u64,
    }

    impl Model {
        fn refs(&self, ino: u64) -> u64 {
            let named = self.names.values().filter(|&&i| i == ino).count();
            (named + self.fds.iter().filter(|(_, i)| *i == ino).count()) as u64
        }

        fn parent(path: &str) -> &str {
            match path.rsplit_once('/') {
                Some(("", _)) | None => "/",
                Some((dir, _)) => dir,
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 192, ..ProptestConfig::default() })]

        #[test]
        fn namespace_matches_the_model(ops in proptest::collection::vec(op(), 1..80)) {
            let ns: Namespace<()> = Namespace::new(7);
            let mut model = Model::default();
            let retired: RefCell<HashMap<u64, u32>> = RefCell::default();
            let retire = |inode: &Inode<()>| *retired.borrow_mut().entry(inode.ino).or_default() += 1;
            for op in ops {
                match op {
                    Op::Open { path, create, excl, trunc, write } => {
                        let name = PATHS[path];
                        let mut flags = if write { OpenFlags::RDWR } else { OpenFlags::RDONLY };
                        for (on, bit) in
                            [(create, OpenFlags::CREATE), (excl, OpenFlags::EXCL), (trunc, OpenFlags::TRUNC)]
                        {
                            if on {
                                flags |= bit;
                            }
                        }
                        let opened = ns.open(name, flags, || ());
                        match (model.names.get(name).copied(), opened) {
                            (Some(_), Err(e)) => {
                                prop_assert!(create && excl, "{e}");
                                prop_assert_eq!(e, IoError::AlreadyExists(name.into()));
                            }
                            (None, Err(e)) => {
                                prop_assert!(!create, "{e}");
                                prop_assert_eq!(e, IoError::NotFound(name.into()));
                            }
                            (existing, Ok(o)) => {
                                let legal = if existing.is_some() { !(create && excl) } else { create };
                                prop_assert!(legal, "open of {name} with {flags} must fail");
                                let ino = existing.unwrap_or(model.born + 1);
                                prop_assert_eq!((o.inode.ino, o.created), (ino, existing.is_none()));
                                prop_assert_eq!(o.truncate, existing.is_some() && trunc && write);
                                model.born = model.born.max(ino);
                                model.names.insert(name, ino);
                                model.fds.push((o.fd, ino));
                                prop_assert_eq!(ns.readable(o.fd).map(|i| i.ino), Ok(ino));
                                prop_assert_eq!(ns.writable(o.fd).is_ok(), write);
                            }
                        }
                    }
                    Op::Close(n) if n < model.fds.len() => {
                        let (fd, _) = model.fds.swap_remove(n);
                        prop_assert_eq!(ns.close(fd, retire), Ok(()));
                        prop_assert_eq!(ns.inode(fd).map(|i| i.ino), Err(IoError::BadFd(fd.0)));
                    }
                    Op::Close(_) => prop_assert_eq!(ns.close(Fd(1), retire), Err(IoError::BadFd(1))),
                    Op::Unlink(path) => {
                        let expected = model.names.remove(PATHS[path]).map(|_| ());
                        let got = ns.unlink(PATHS[path], retire);
                        prop_assert_eq!(got, expected.ok_or(IoError::NotFound(PATHS[path].into())));
                    }
                    Op::Rename(from, to) => {
                        let moved = model.names.remove(PATHS[from]);
                        if let Some(ino) = moved {
                            model.names.insert(PATHS[to], ino);
                        }
                        let got = ns.rename(PATHS[from], PATHS[to], retire);
                        let expected = moved.map(|_| ()).ok_or(IoError::NotFound(PATHS[from].into()));
                        prop_assert_eq!(got, expected);
                    }
                    Op::Clear => {
                        model.names.clear();
                        ns.clear(retire);
                    }
                }

                // Liveness: an inode is retired once, when its last reference
                // goes, and is indexed by number exactly until then.
                let names = ns.read();
                for ino in 1..=model.born {
                    let refs = model.refs(ino);
                    let retirements = retired.borrow().get(&ino).copied().unwrap_or(0);
                    prop_assert_eq!(retirements, u32::from(refs == 0), "inode {ino}, {refs} refs");
                    let indexed = names.by_ino(ino).map(|i| i.refs.load(Ordering::Acquire));
                    prop_assert_eq!(indexed, Some(refs).filter(|&r| r > 0), "inode {ino}");
                }
                prop_assert_eq!(names.live(), (1..=model.born).filter(|&i| model.refs(i) > 0).count());
                drop(names);
                prop_assert_eq!(ns.len(), model.names.len());

                // Names and implicit directories.
                for dir in DIRS {
                    let has_files = model.names.keys().any(|k| k.starts_with(&format!("{dir}/")));
                    let expected = match model.names.get(dir) {
                        Some(&ino) => Ok((ino, false)),
                        None if dir == "/" || has_files => Ok((0, true)),
                        None => Err(IoError::NotFound(dir.into())),
                    };
                    prop_assert_eq!(ns.stat(dir, |_| 0).map(|m| (m.ino, m.is_dir)), expected, "{dir}");
                    let children: BTreeSet<&str> =
                        model.names.keys().copied().filter(|k| Model::parent(k) == dir).collect();
                    prop_assert_eq!(ns.list_dir(dir), children.into_iter().collect::<Vec<_>>(), "{dir}");
                }
            }
        }
    }
}
