//! Backend routing for tiered mounts: the object-safe [`Router`] trait maps
//! a file to one of the mount's inner file systems, plus the three routers
//! every stack needs — [`SingleBackend`] (the paper's one-backend deployment),
//! [`PathPrefixRouter`] (explicit hot/cold placement by directory) and
//! [`HashRouter`] (uniform spreading).
//!
//! Routing is consulted when a file enters the cache (`open`) and for the
//! path-based operations (`stat`, `unlink`, `rename`, `list_dir`); once a
//! file is open, its backend index travels with the descriptor — volatile in
//! [`OpenedFile`](crate::files) and persistent in the NVMM fd table (each
//! slot's backend word), so recovery replays every log entry to the backend
//! that was actually written (see `docs/ARCHITECTURE.md`, "The mount stack").
//!
//! A file whose recorded backend disagrees with the router's *current*
//! placement (a policy changed across a reboot, or an explicit
//! [`NvCache::migrate`](crate::NvCache::migrate) moved it) is **misplaced**:
//! `stat`/`unlink` still reach it by probing the recorded backend first,
//! and an [`NvCache::rebalance`](crate::NvCache::rebalance) sweep re-homes
//! it to where `route` says it belongs.

/// Maps files to backend indices in a tiered
/// [`NvCache`](crate::NvCache) mount.
///
/// Implementations must be **path-stable**: the same (normalized) path must
/// always resolve to the same backend index while the mount is up, because
/// `open` routes before the file exists on any backend and the path-based
/// operations re-route on every call — so the path is all a router sees.
///
/// The trait is object-safe; tiered mounts hold it as `Arc<dyn Router>`.
///
/// # Example
///
/// ```
/// use nvcache::{PathPrefixRouter, Router};
/// let r = PathPrefixRouter::new(vec![("/hot".into(), 1)], 0);
/// assert_eq!(r.route("/hot/wal.log"), 1);
/// assert_eq!(r.route("/cold/archive"), 0);
/// ```
pub trait Router: Send + Sync + std::fmt::Debug {
    /// The backend index of the file at `path` (normalized, absolute).
    ///
    /// Must return a value in `[0, backends)` for the mount's backend count;
    /// the mount validates this at build time against the router's
    /// [`fan_out`](Router::fan_out) and clamps nothing at run time.
    fn route(&self, path: &str) -> usize;

    /// The number of distinct backend indices this router can return
    /// (`route` must stay in `[0, fan_out)`).
    fn fan_out(&self) -> usize;

    /// Short human-readable name used in the mount's `FileSystem::name`.
    fn name(&self) -> &str {
        "router"
    }
}

/// The degenerate router of a single-backend mount: every file maps to
/// backend `0`. [`NvCacheBuilder::backend`](crate::NvCacheBuilder::backend)
/// installs it implicitly — the paper's plug-and-play deployment.
#[derive(Debug, Clone, Copy, Default)]
pub struct SingleBackend;

impl Router for SingleBackend {
    fn route(&self, _path: &str) -> usize {
        0
    }

    fn fan_out(&self) -> usize {
        1
    }

    fn name(&self) -> &str {
        "single"
    }
}

/// Routes by longest matching path prefix — the "hot files over NOVA, cold
/// bulk over ext4+HDD" tiering of the ROADMAP, with explicit placement.
///
/// Rules are `(prefix, backend)` pairs; the longest prefix that matches a
/// whole path component wins, and paths matching no rule go to `default`.
/// `/hot` matches `/hot` and `/hot/a` but not `/hotel`.
#[derive(Debug, Clone)]
pub struct PathPrefixRouter {
    /// `(prefix, backend)` rules, sorted longest-prefix-first.
    rules: Vec<(String, usize)>,
    /// Backend of paths matching no rule.
    default: usize,
}

impl PathPrefixRouter {
    /// A router sending paths under each `(prefix, backend)` rule to its
    /// backend and everything else to `default`.
    ///
    /// # Panics
    ///
    /// Panics if a prefix is empty or not absolute.
    pub fn new(mut rules: Vec<(String, usize)>, default: usize) -> Self {
        for (prefix, _) in &rules {
            assert!(
                prefix.starts_with('/') && prefix.len() > 1,
                "prefix rule must be an absolute non-root path: {prefix:?}"
            );
        }
        // Longest first, so the most specific rule wins.
        rules.sort_by_key(|(p, _)| std::cmp::Reverse(p.len()));
        PathPrefixRouter { rules, default }
    }

    fn matches(prefix: &str, path: &str) -> bool {
        let prefix = prefix.trim_end_matches('/');
        path == prefix
            || (path.starts_with(prefix) && path.as_bytes().get(prefix.len()) == Some(&b'/'))
    }
}

impl Router for PathPrefixRouter {
    fn route(&self, path: &str) -> usize {
        self.rules
            .iter()
            .find(|(prefix, _)| Self::matches(prefix, path))
            .map_or(self.default, |&(_, backend)| backend)
    }

    fn fan_out(&self) -> usize {
        self.rules
            .iter()
            .map(|&(_, b)| b)
            .chain(std::iter::once(self.default))
            .max()
            .unwrap_or(0)
            + 1
    }

    fn name(&self) -> &str {
        "prefix"
    }
}

/// Spreads files uniformly over `n` backends by hashing the path —
/// capacity balancing when no explicit placement rule applies. Uses the same
/// SplitMix64-style mix as the log's stripe routing.
#[derive(Debug, Clone, Copy)]
pub struct HashRouter {
    n: usize,
}

impl HashRouter {
    /// A router over `n` backends.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn new(n: usize) -> Self {
        assert!(n >= 1, "hash router needs at least one backend");
        HashRouter { n }
    }
}

impl Router for HashRouter {
    fn route(&self, path: &str) -> usize {
        let mut h = 0x9E37_79B9_7F4A_7C15u64;
        for &b in path.as_bytes() {
            h = (h ^ b as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        }
        h = (h ^ (h >> 30)).wrapping_mul(0x94D0_49BB_1331_11EB);
        h ^= h >> 31;
        (h % self.n as u64) as usize
    }

    fn fan_out(&self) -> usize {
        self.n
    }

    fn name(&self) -> &str {
        "hash"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_backend_always_routes_to_zero() {
        let r = SingleBackend;
        assert_eq!(r.route("/any/path"), 0);
        assert_eq!(r.fan_out(), 1);
    }

    #[test]
    fn prefix_router_matches_whole_components() {
        let r = PathPrefixRouter::new(vec![("/hot".into(), 1), ("/hot/wal".into(), 2)], 0);
        assert_eq!(r.route("/hot"), 1);
        assert_eq!(r.route("/hot/data"), 1);
        assert_eq!(r.route("/hot/wal/0001"), 2, "longest prefix wins");
        assert_eq!(r.route("/hotel"), 0, "no partial-component match");
        assert_eq!(r.route("/cold"), 0);
        assert_eq!(r.fan_out(), 3);
    }

    #[test]
    fn prefix_router_is_path_stable() {
        // A remount may list the same rules in another order: the longest
        // match still decides, so every path keeps its tier.
        let rules = vec![("/a".to_string(), 1), ("/a/b".to_string(), 2)];
        let r = PathPrefixRouter::new(rules.clone(), 0);
        let reordered = PathPrefixRouter::new(rules.into_iter().rev().collect(), 0);
        for path in ["/a", "/a/f", "/a/b", "/a/b/c", "/ab", "/z"] {
            assert_eq!(r.route(path), reordered.route(path), "{path}");
        }
    }

    #[test]
    #[should_panic(expected = "absolute non-root path")]
    fn relative_prefix_panics() {
        PathPrefixRouter::new(vec![("hot".into(), 1)], 0);
    }

    #[test]
    fn hash_router_is_deterministic_and_in_range() {
        let r = HashRouter::new(3);
        assert_eq!(r.fan_out(), 3);
        let mut seen = std::collections::HashSet::new();
        for i in 0..64 {
            let path = format!("/f{i}");
            let a = r.route(&path);
            assert_eq!(a, r.route(&path), "must be deterministic");
            assert!(a < 3);
            seen.insert(a);
        }
        assert_eq!(seen.len(), 3, "64 paths must hit every backend");
    }

    #[test]
    #[should_panic(expected = "at least one backend")]
    fn zero_way_hash_router_panics() {
        HashRouter::new(0);
    }

    #[test]
    fn routers_are_object_safe() {
        let routers: Vec<Box<dyn Router>> = vec![
            Box::new(SingleBackend),
            Box::new(PathPrefixRouter::new(vec![("/x".into(), 1)], 0)),
            Box::new(HashRouter::new(2)),
        ];
        for r in &routers {
            assert!(r.route("/x/y") < r.fan_out().max(2));
            assert!(!r.name().is_empty());
        }
    }
}
