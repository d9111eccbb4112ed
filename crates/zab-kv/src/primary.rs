//! The primary-side speculative executor.
//!
//! A Zab primary pipelines many operations; each must be executed against
//! the state produced by the (not yet committed) operations before it —
//! otherwise two concurrent sequential creates would both resolve to the
//! same sequence number. [`PrimaryExecutor`] therefore keeps a
//! *speculative* tree: the committed state plus every delta this primary
//! has emitted but not yet seen commit.
//!
//! On leadership change, the speculative tree is discarded and rebuilt
//! from the committed tree ([`PrimaryExecutor::new`]) — uncommitted
//! speculative deltas either survived into the new epoch (and will arrive
//! as ordinary deliveries) or were discarded by synchronization.

use crate::ops::{Delta, Op, OpResult};
use crate::tree::{split_path, DataTree, KvError};

/// Executes client operations speculatively, emitting broadcast deltas.
#[derive(Debug, Clone)]
pub struct PrimaryExecutor {
    speculative: DataTree,
}

impl PrimaryExecutor {
    /// Builds an executor over the current committed state.
    pub fn new(committed: DataTree) -> PrimaryExecutor {
        PrimaryExecutor { speculative: committed }
    }

    /// The speculative view (committed + emitted deltas).
    pub fn view(&self) -> &DataTree {
        &self.speculative
    }

    /// Executes one client operation: validates it against the speculative
    /// state, resolves all non-determinism, applies it speculatively, and
    /// returns the delta to broadcast plus the client-visible result.
    ///
    /// # Errors
    ///
    /// Application-level failures ([`KvError`]) are returned to the client
    /// and produce *no* delta — failed operations are not broadcast. A
    /// delta too large for one transaction is such a failure: it is
    /// refused here, before the speculative tree holds a change that no
    /// replica will apply.
    pub fn execute(&mut self, op: &Op) -> Result<(Delta, OpResult), KvError> {
        let (delta, result) = self.prepare(op)?;
        let len = delta.encoded_len();
        if len > zab_core::MAX_TXN_DATA_LEN {
            return Err(KvError::TooLarge { len });
        }
        self.speculative
            .apply(&delta)
            .expect("speculative apply of a just-validated delta succeeds");
        Ok((delta, result))
    }

    /// Validates and translates without applying.
    fn prepare(&self, op: &Op) -> Result<(Delta, OpResult), KvError> {
        match op {
            Op::Create { path, data, sequential } => {
                let final_path;
                let parent_path;
                if *sequential {
                    // The counter comes from the parent's cversion; the
                    // path argument is a prefix, its parent is the node
                    // that owns the counter.
                    let (parent, _) = split_path(path)?;
                    let p = self
                        .speculative
                        .get(parent)
                        .ok_or_else(|| KvError::NoNode(parent.to_string()))?;
                    final_path = format!("{path}{:010}", p.cversion);
                    parent_path = parent.to_string();
                } else {
                    let (parent, _) = split_path(path)?;
                    if !self.speculative.exists(parent) {
                        return Err(KvError::NoNode(parent.to_string()));
                    }
                    if self.speculative.exists(path) {
                        return Err(KvError::NodeExists(path.clone()));
                    }
                    final_path = path.clone();
                    parent_path = parent.to_string();
                }
                let parent_cversion =
                    self.speculative.get(&parent_path).expect("validated").cversion + 1;
                Ok((
                    Delta::CreateNode {
                        path: final_path.clone(),
                        data: data.clone(),
                        parent_cversion,
                    },
                    OpResult { created_path: Some(final_path), new_version: None },
                ))
            }
            Op::Delete { path, expected_version } => {
                let node =
                    self.speculative.get(path).ok_or_else(|| KvError::NoNode(path.clone()))?;
                if let Some(expected) = expected_version {
                    if node.version != *expected {
                        return Err(KvError::BadVersion {
                            path: path.clone(),
                            expected: *expected,
                            actual: node.version,
                        });
                    }
                }
                if !self.speculative.children(path)?.is_empty() {
                    return Err(KvError::NotEmpty(path.clone()));
                }
                Ok((Delta::DeleteNode { path: path.clone() }, OpResult::default()))
            }
            Op::SetData { path, data, expected_version } => {
                let node =
                    self.speculative.get(path).ok_or_else(|| KvError::NoNode(path.clone()))?;
                if let Some(expected) = expected_version {
                    if node.version != *expected {
                        return Err(KvError::BadVersion {
                            path: path.clone(),
                            expected: *expected,
                            actual: node.version,
                        });
                    }
                }
                let new_version = node.version + 1;
                Ok((
                    Delta::SetData { path: path.clone(), data: data.clone(), new_version },
                    OpResult { created_path: None, new_version: Some(new_version) },
                ))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_creates_resolve_increasing_counters() {
        let mut p = PrimaryExecutor::new(DataTree::new());
        let (d1, r1) = p.execute(&Op::create_sequential("/task-", vec![])).unwrap();
        let (d2, r2) = p.execute(&Op::create_sequential("/task-", vec![])).unwrap();
        assert_eq!(r1.created_path.as_deref(), Some("/task-0000000000"));
        assert_eq!(r2.created_path.as_deref(), Some("/task-0000000001"));
        // Backups replay the deltas and end in the same state.
        let mut backup = DataTree::new();
        backup.apply(&d1).unwrap();
        backup.apply(&d2).unwrap();
        assert_eq!(backup, *p.view());
    }

    #[test]
    fn pipelined_dependent_ops_chain_speculatively() {
        let mut p = PrimaryExecutor::new(DataTree::new());
        // Create a node, then immediately set it, before anything commits.
        let (d1, _) = p.execute(&Op::create("/cfg", b"v0".to_vec())).unwrap();
        let (d2, r2) = p.execute(&Op::set("/cfg", b"v1".to_vec())).unwrap();
        assert_eq!(r2.new_version, Some(1));
        let mut backup = DataTree::new();
        backup.apply(&d1).unwrap();
        backup.apply(&d2).unwrap();
        assert_eq!(backup.get("/cfg").unwrap().data, b"v1");
    }

    #[test]
    fn version_cas_succeeds_then_fails() {
        let mut p = PrimaryExecutor::new(DataTree::new());
        p.execute(&Op::create("/n", vec![])).unwrap();
        p.execute(&Op::set_if_version("/n", b"a".to_vec(), 0)).unwrap();
        let err = p.execute(&Op::set_if_version("/n", b"b".to_vec(), 0)).unwrap_err();
        assert!(matches!(err, KvError::BadVersion { expected: 0, actual: 1, .. }));
    }

    #[test]
    fn failed_ops_emit_no_delta_and_do_not_mutate() {
        let mut p = PrimaryExecutor::new(DataTree::new());
        assert!(p.execute(&Op::delete("/missing")).is_err());
        assert!(p.execute(&Op::create("/no/parent", vec![])).is_err());
        assert_eq!(*p.view(), DataTree::new());
    }

    #[test]
    fn oversized_ops_are_refused_before_speculation() {
        let mut p = PrimaryExecutor::new(DataTree::new());
        p.execute(&Op::create("/n", vec![])).unwrap();
        let before = p.view().clone();
        // The data fits the codec's byte-string cap; path, tag and
        // version push the delta over the transaction limit.
        let big = vec![0u8; zab_core::MAX_TXN_DATA_LEN];
        let err = p.execute(&Op::create("/big", big.clone())).unwrap_err();
        assert!(matches!(err, KvError::TooLarge { .. }));
        let err = p.execute(&Op::set("/n", big)).unwrap_err();
        assert!(matches!(err, KvError::TooLarge { .. }));
        assert_eq!(*p.view(), before);
        let err = p.execute(&Op::create("/big/x", vec![])).unwrap_err();
        assert_eq!(err, KvError::NoNode("/big".into()));
    }

    #[test]
    fn rebuild_from_committed_discards_speculation() {
        let mut p = PrimaryExecutor::new(DataTree::new());
        let committed = DataTree::new();
        p.execute(&Op::create("/spec", vec![])).unwrap();
        // Leadership lost: rebuild from committed.
        let p2 = PrimaryExecutor::new(committed.clone());
        assert_eq!(*p2.view(), committed);
    }

    #[test]
    fn sequential_counter_survives_child_deletion() {
        // ZooKeeper semantics: the parent's counter never reuses numbers,
        // even after children are deleted.
        let mut p = PrimaryExecutor::new(DataTree::new());
        let (_, r1) = p.execute(&Op::create_sequential("/q-", vec![])).unwrap();
        p.execute(&Op::delete(r1.created_path.as_deref().unwrap())).unwrap();
        let (_, r2) = p.execute(&Op::create_sequential("/q-", vec![])).unwrap();
        assert_eq!(r2.created_path.as_deref(), Some("/q-0000000001"));
    }
}
