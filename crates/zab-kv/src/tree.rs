//! The hierarchical data tree (znodes) and deterministic delta application.

use crate::ops::Delta;
use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;
use zab_wire::codec::{WireRead, WireWrite};

/// Application-level failure executing an operation or applying a delta.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KvError {
    /// The path (or its parent) does not exist.
    NoNode(String),
    /// Create of an existing path.
    NodeExists(String),
    /// Delete of a znode that still has children.
    NotEmpty(String),
    /// A version guard failed.
    BadVersion {
        /// The path.
        path: String,
        /// Version the client expected.
        expected: u64,
        /// Actual version.
        actual: u64,
    },
    /// Malformed path (must start with '/', no empty or trailing segments).
    BadPath(String),
    /// The encoded delta is over [`zab_core::MAX_TXN_DATA_LEN`], the most
    /// one transaction can carry.
    TooLarge {
        /// Encoded length of the delta.
        len: usize,
    },
}

impl fmt::Display for KvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KvError::NoNode(p) => write!(f, "no node at {p}"),
            KvError::NodeExists(p) => write!(f, "node already exists at {p}"),
            KvError::NotEmpty(p) => write!(f, "node at {p} has children"),
            KvError::BadVersion { path, expected, actual } => {
                write!(f, "version mismatch at {path}: expected {expected}, actual {actual}")
            }
            KvError::BadPath(p) => write!(f, "malformed path {p:?}"),
            KvError::TooLarge { len } => write!(
                f,
                "delta of {len} bytes is over the {}-byte transaction limit",
                zab_core::MAX_TXN_DATA_LEN
            ),
        }
    }
}

impl Error for KvError {}

/// One znode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Znode {
    /// Node payload.
    pub data: Vec<u8>,
    /// Data version (bumped by each set).
    pub version: u64,
    /// Per-parent sequential-create counter (ZooKeeper's cversion role).
    pub cversion: u64,
}

/// Validates a path and returns its parent and leaf name.
///
/// # Errors
/// [`KvError::BadPath`] for anything not of the form `/a/b/c`.
pub fn split_path(path: &str) -> Result<(&str, &str), KvError> {
    if !path.starts_with('/') || path.len() < 2 || path.ends_with('/') {
        return Err(KvError::BadPath(path.to_string()));
    }
    if path.split('/').skip(1).any(|seg| seg.is_empty()) {
        return Err(KvError::BadPath(path.to_string()));
    }
    let idx = path.rfind('/').expect("starts with '/'");
    let parent = if idx == 0 { "/" } else { &path[..idx] };
    Ok((parent, &path[idx + 1..]))
}

/// The replicated hierarchical store.
///
/// The root znode `/` always exists. Deltas apply deterministically; a
/// delta that fails indicates divergence between primary and backup and is
/// surfaced as an error (callers treat it as fatal).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DataTree {
    /// Path → node. A `BTreeMap` keeps children enumeration ordered.
    nodes: BTreeMap<String, Znode>,
}

impl Default for DataTree {
    fn default() -> Self {
        Self::new()
    }
}

impl DataTree {
    /// A tree containing only the root.
    pub fn new() -> DataTree {
        let mut nodes = BTreeMap::new();
        nodes.insert("/".to_string(), Znode { data: vec![], version: 0, cversion: 0 });
        DataTree { nodes }
    }

    /// Number of znodes (including the root).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Always false: the root exists.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// True if a znode exists at `path`.
    pub fn exists(&self, path: &str) -> bool {
        self.nodes.contains_key(path)
    }

    /// Reads a znode.
    pub fn get(&self, path: &str) -> Option<&Znode> {
        self.nodes.get(path)
    }

    /// Lists the names of `path`'s direct children, in order.
    ///
    /// # Errors
    /// [`KvError::NoNode`] if `path` does not exist.
    pub fn children(&self, path: &str) -> Result<Vec<String>, KvError> {
        if !self.exists(path) {
            return Err(KvError::NoNode(path.to_string()));
        }
        let prefix = if path == "/" { String::from("/") } else { format!("{path}/") };
        Ok(self
            .nodes
            .range(prefix.clone()..)
            .take_while(|(k, _)| k.starts_with(&prefix))
            .filter(|(k, _)| !k[prefix.len()..].is_empty() && !k[prefix.len()..].contains('/'))
            .map(|(k, _)| k[prefix.len()..].to_string())
            .collect())
    }

    /// Applies a delta computed by the primary.
    ///
    /// # Errors
    ///
    /// Any error means this replica's state diverged from the primary's
    /// at delta-computation time — with primary order intact this cannot
    /// happen; callers treat it as fatal. (The primary-order violation
    /// experiment in the benchmarks triggers exactly these errors when
    /// replaying Multi-Paxos-ordered deltas.)
    pub fn apply(&mut self, delta: &Delta) -> Result<(), KvError> {
        match delta {
            Delta::CreateNode { path, data, parent_cversion } => {
                let (parent, _) = split_path(path)?;
                if self.exists(path) {
                    return Err(KvError::NodeExists(path.clone()));
                }
                let Some(p) = self.nodes.get_mut(parent) else {
                    return Err(KvError::NoNode(parent.to_string()));
                };
                p.cversion = *parent_cversion;
                self.nodes
                    .insert(path.clone(), Znode { data: data.clone(), version: 0, cversion: 0 });
                Ok(())
            }
            Delta::DeleteNode { path } => {
                if !self.exists(path) {
                    return Err(KvError::NoNode(path.clone()));
                }
                if !self.children(path)?.is_empty() {
                    return Err(KvError::NotEmpty(path.clone()));
                }
                self.nodes.remove(path);
                Ok(())
            }
            Delta::SetData { path, data, new_version } => {
                let Some(node) = self.nodes.get_mut(path) else {
                    return Err(KvError::NoNode(path.clone()));
                };
                node.data = data.clone();
                node.version = *new_version;
                Ok(())
            }
        }
    }

    /// Serializes the whole tree (for SNAP synchronization).
    pub fn snapshot(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        buf.put_u32_le_wire(self.nodes.len() as u32);
        for (path, node) in &self.nodes {
            buf.put_str_wire(path);
            buf.put_bytes_wire(&node.data);
            buf.put_u64_le_wire(node.version);
            buf.put_u64_le_wire(node.cversion);
        }
        buf
    }

    /// Deserializes a snapshot produced by [`DataTree::snapshot`].
    ///
    /// # Errors
    /// Returns a string description on malformed input.
    pub fn from_snapshot(mut data: &[u8]) -> Result<DataTree, String> {
        let cur = &mut data;
        let n = cur.get_u32_le_wire().map_err(|e| e.to_string())? as usize;
        let mut nodes = BTreeMap::new();
        for _ in 0..n {
            let path = cur.get_str_wire().map_err(|e| e.to_string())?.to_string();
            let data = cur.get_bytes_wire().map_err(|e| e.to_string())?.to_vec();
            let version = cur.get_u64_le_wire().map_err(|e| e.to_string())?;
            let cversion = cur.get_u64_le_wire().map_err(|e| e.to_string())?;
            nodes.insert(path, Znode { data, version, cversion });
        }
        if !cur.is_empty() {
            return Err("trailing bytes in snapshot".to_string());
        }
        if !nodes.contains_key("/") {
            return Err("snapshot lacks root".to_string());
        }
        Ok(DataTree { nodes })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn create(path: &str, cv: u64) -> Delta {
        Delta::CreateNode { path: path.into(), data: b"d".to_vec(), parent_cversion: cv }
    }

    #[test]
    fn split_path_accepts_well_formed_paths() {
        assert_eq!(split_path("/a").unwrap(), ("/", "a"));
        assert_eq!(split_path("/a/b/c").unwrap(), ("/a/b", "c"));
        // Single-character and multi-byte segment names are ordinary.
        assert_eq!(split_path("/x/y").unwrap(), ("/x", "y"));
        assert_eq!(split_path("/héllo/wörld").unwrap(), ("/héllo", "wörld"));
        // Deep nesting: the parent is everything up to the last slash.
        assert_eq!(split_path("/a/b/c/d/e/f").unwrap(), ("/a/b/c/d/e", "f"));
    }

    #[test]
    fn split_path_rejections_carry_the_offending_path() {
        // The error pins the contract: BadPath always embeds the exact
        // input, so callers can report it verbatim.
        let bad = |p: &str| assert_eq!(split_path(p), Err(KvError::BadPath(p.to_string())), "{p}");
        bad(""); // empty
        bad("/"); // the root has no parent/leaf split
        bad("a"); // missing leading slash
        bad("a/b"); // relative path
        bad("/a/"); // trailing slash
        bad("/a/b/"); // trailing slash, nested
        bad("//"); // empty leading segment with trailing slash
        bad("//a"); // empty leading segment
        bad("/a//b"); // empty middle segment
        bad("/a/b//"); // empty + trailing
    }

    #[test]
    fn split_path_rfind_invariant_holds_for_all_accepted_inputs() {
        // `split_path` unwraps `path.rfind('/')` (tree.rs): every path
        // that survives validation must contain a '/', and rejoining
        // parent + leaf must reproduce the input. Sweep a generated
        // corpus to pin that invariant.
        let segs = ["a", "bb", "ccc"];
        for s1 in segs {
            let p1 = format!("/{s1}");
            let (parent, leaf) = split_path(&p1).expect("depth-1 path accepted");
            assert_eq!(parent, "/");
            assert_eq!(format!("/{leaf}"), p1);
            for s2 in segs {
                let p2 = format!("/{s1}/{s2}");
                let (parent, leaf) = split_path(&p2).expect("depth-2 path accepted");
                assert_eq!(format!("{parent}/{leaf}"), p2);
                assert_eq!(parent, p1, "parent of {p2}");
            }
        }
    }

    #[test]
    fn bad_paths_surface_through_apply() {
        // The validation error propagates untouched through delta
        // application — a malformed create can never mutate the tree.
        let mut t = DataTree::new();
        let before = t.clone();
        assert_eq!(t.apply(&create("relative", 1)), Err(KvError::BadPath("relative".to_string())));
        assert_eq!(t.apply(&create("/a/", 1)), Err(KvError::BadPath("/a/".to_string())));
        assert_eq!(t, before, "failed create mutated the tree");
    }

    #[test]
    fn create_and_read() {
        let mut t = DataTree::new();
        t.apply(&create("/a", 1)).unwrap();
        assert!(t.exists("/a"));
        assert_eq!(t.get("/a").unwrap().data, b"d");
        assert_eq!(t.get("/").unwrap().cversion, 1);
    }

    #[test]
    fn create_requires_parent() {
        let mut t = DataTree::new();
        assert_eq!(t.apply(&create("/a/b", 1)), Err(KvError::NoNode("/a".to_string())));
    }

    #[test]
    fn duplicate_create_fails() {
        let mut t = DataTree::new();
        t.apply(&create("/a", 1)).unwrap();
        assert_eq!(t.apply(&create("/a", 2)), Err(KvError::NodeExists("/a".to_string())));
    }

    #[test]
    fn delete_leaf_only() {
        let mut t = DataTree::new();
        t.apply(&create("/a", 1)).unwrap();
        t.apply(&create("/a/b", 1)).unwrap();
        assert_eq!(
            t.apply(&Delta::DeleteNode { path: "/a".into() }),
            Err(KvError::NotEmpty("/a".to_string()))
        );
        t.apply(&Delta::DeleteNode { path: "/a/b".into() }).unwrap();
        t.apply(&Delta::DeleteNode { path: "/a".into() }).unwrap();
        assert!(!t.exists("/a"));
    }

    #[test]
    fn set_data_updates_version() {
        let mut t = DataTree::new();
        t.apply(&create("/a", 1)).unwrap();
        t.apply(&Delta::SetData { path: "/a".into(), data: b"x".to_vec(), new_version: 1 })
            .unwrap();
        let n = t.get("/a").unwrap();
        assert_eq!(n.data, b"x");
        assert_eq!(n.version, 1);
    }

    #[test]
    fn children_are_ordered_and_direct_only() {
        let mut t = DataTree::new();
        for p in ["/b", "/a", "/a/x", "/a/y", "/c"] {
            t.apply(&create(p, 1)).unwrap();
        }
        assert_eq!(t.children("/").unwrap(), vec!["a", "b", "c"]);
        assert_eq!(t.children("/a").unwrap(), vec!["x", "y"]);
        assert_eq!(t.children("/b").unwrap(), Vec::<String>::new());
        assert!(t.children("/zzz").is_err());
    }

    #[test]
    fn snapshot_round_trips() {
        let mut t = DataTree::new();
        for p in ["/a", "/a/x", "/b"] {
            t.apply(&create(p, 1)).unwrap();
        }
        t.apply(&Delta::SetData { path: "/b".into(), data: vec![9; 100], new_version: 3 }).unwrap();
        let snap = t.snapshot();
        let back = DataTree::from_snapshot(&snap).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn malformed_snapshot_rejected() {
        assert!(DataTree::from_snapshot(&[1, 2, 3]).is_err());
        let mut good = DataTree::new().snapshot();
        good.push(0xFF);
        assert!(DataTree::from_snapshot(&good).is_err());
    }
}
