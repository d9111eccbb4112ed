//! Client operations, primary-computed deltas, and their wire formats.

use zab_wire::codec::{WireError, WireRead, WireWrite};

/// A client operation submitted to the primary.
///
/// Reads (`exists`, `get`, `children`) are served from local state and are
/// not represented here; only state-changing operations are broadcast.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// Create a znode. With `sequential`, a zero-padded per-parent counter
    /// is appended to the path by the primary.
    Create {
        /// Absolute path (parent must exist); for sequential creates, the
        /// prefix the counter is appended to.
        path: String,
        /// Initial data.
        data: Vec<u8>,
        /// ZooKeeper `-s` flag.
        sequential: bool,
    },
    /// Delete a znode (must have no children).
    Delete {
        /// Absolute path.
        path: String,
        /// Expected version, or `None` for unconditional.
        expected_version: Option<u64>,
    },
    /// Replace a znode's data.
    SetData {
        /// Absolute path.
        path: String,
        /// New data.
        data: Vec<u8>,
        /// Expected version, or `None` for unconditional.
        expected_version: Option<u64>,
    },
}

impl Op {
    /// Convenience: plain create.
    pub fn create(path: impl Into<String>, data: Vec<u8>) -> Op {
        Op::Create { path: path.into(), data, sequential: false }
    }

    /// Convenience: sequential create (`create -s`).
    pub fn create_sequential(prefix: impl Into<String>, data: Vec<u8>) -> Op {
        Op::Create { path: prefix.into(), data, sequential: true }
    }

    /// Convenience: unconditional set.
    pub fn set(path: impl Into<String>, data: Vec<u8>) -> Op {
        Op::SetData { path: path.into(), data, expected_version: None }
    }

    /// Convenience: compare-and-set on the version.
    pub fn set_if_version(path: impl Into<String>, data: Vec<u8>, version: u64) -> Op {
        Op::SetData { path: path.into(), data, expected_version: Some(version) }
    }

    /// Convenience: unconditional delete.
    pub fn delete(path: impl Into<String>) -> Op {
        Op::Delete { path: path.into(), expected_version: None }
    }

    /// Encodes the operation.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        match self {
            Op::Create { path, data, sequential } => {
                buf.put_u8_wire(1);
                buf.put_str_wire(path);
                buf.put_bytes_wire(data);
                buf.put_bool_wire(*sequential);
            }
            Op::Delete { path, expected_version } => {
                buf.put_u8_wire(2);
                buf.put_str_wire(path);
                encode_opt_version(&mut buf, expected_version);
            }
            Op::SetData { path, data, expected_version } => {
                buf.put_u8_wire(3);
                buf.put_str_wire(path);
                buf.put_bytes_wire(data);
                encode_opt_version(&mut buf, expected_version);
            }
        }
        buf
    }

    /// Decodes an operation.
    ///
    /// # Errors
    /// [`WireError`] on truncation or unknown tag.
    pub fn decode(mut data: &[u8]) -> Result<Op, WireError> {
        let cur = &mut data;
        match cur.get_u8_wire()? {
            1 => Ok(Op::Create {
                path: cur.get_str_wire()?.to_string(),
                data: cur.get_bytes_wire()?.to_vec(),
                sequential: cur.get_bool_wire()?,
            }),
            2 => Ok(Op::Delete {
                path: cur.get_str_wire()?.to_string(),
                expected_version: decode_opt_version(cur)?,
            }),
            3 => Ok(Op::SetData {
                path: cur.get_str_wire()?.to_string(),
                data: cur.get_bytes_wire()?.to_vec(),
                expected_version: decode_opt_version(cur)?,
            }),
            tag => Err(WireError::InvalidTag { tag, context: "Op" }),
        }
    }
}

fn encode_opt_version(buf: &mut Vec<u8>, v: &Option<u64>) {
    match v {
        Some(v) => {
            buf.put_bool_wire(true);
            buf.put_u64_le_wire(*v);
        }
        None => buf.put_bool_wire(false),
    }
}

fn decode_opt_version(cur: &mut &[u8]) -> Result<Option<u64>, WireError> {
    if cur.get_bool_wire()? {
        Ok(Some(cur.get_u64_le_wire()?))
    } else {
        Ok(None)
    }
}

/// The deterministic incremental state change the primary broadcasts.
///
/// All non-determinism (sequence numbers, version checks) was resolved by
/// the primary; applying a delta either succeeds deterministically or
/// reveals divergence (a bug or a primary-order violation).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Delta {
    /// Create a znode at the *final* (sequence-resolved) path.
    CreateNode {
        /// Final absolute path.
        path: String,
        /// Initial data.
        data: Vec<u8>,
        /// The parent's sequential counter after this create (keeps backup
        /// counters in lockstep for future sequential creates).
        parent_cversion: u64,
    },
    /// Delete a znode.
    DeleteNode {
        /// Absolute path.
        path: String,
    },
    /// Replace a znode's data and bump its version to `new_version`.
    SetData {
        /// Absolute path.
        path: String,
        /// New data.
        data: Vec<u8>,
        /// Version after the write.
        new_version: u64,
    },
}

impl Delta {
    /// Encodes the delta (this is what rides inside a Zab transaction).
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        match self {
            Delta::CreateNode { path, data, parent_cversion } => {
                buf.put_u8_wire(1);
                buf.put_str_wire(path);
                buf.put_bytes_wire(data);
                buf.put_u64_le_wire(*parent_cversion);
            }
            Delta::DeleteNode { path } => {
                buf.put_u8_wire(2);
                buf.put_str_wire(path);
            }
            Delta::SetData { path, data, new_version } => {
                buf.put_u8_wire(3);
                buf.put_str_wire(path);
                buf.put_bytes_wire(data);
                buf.put_u64_le_wire(*new_version);
            }
        }
        buf
    }

    /// `self.encode().len()`, without encoding.
    pub fn encoded_len(&self) -> usize {
        match self {
            // Tag, length-prefixed path and data, then a u64.
            Delta::CreateNode { path, data, .. } | Delta::SetData { path, data, .. } => {
                1 + 4 + path.len() + 4 + data.len() + 8
            }
            Delta::DeleteNode { path } => 1 + 4 + path.len(),
        }
    }

    /// Decodes a delta.
    ///
    /// # Errors
    /// [`WireError`] on truncation or unknown tag.
    pub fn decode(mut data: &[u8]) -> Result<Delta, WireError> {
        let cur = &mut data;
        match cur.get_u8_wire()? {
            1 => Ok(Delta::CreateNode {
                path: cur.get_str_wire()?.to_string(),
                data: cur.get_bytes_wire()?.to_vec(),
                parent_cversion: cur.get_u64_le_wire()?,
            }),
            2 => Ok(Delta::DeleteNode { path: cur.get_str_wire()?.to_string() }),
            3 => Ok(Delta::SetData {
                path: cur.get_str_wire()?.to_string(),
                data: cur.get_bytes_wire()?.to_vec(),
                new_version: cur.get_u64_le_wire()?,
            }),
            tag => Err(WireError::InvalidTag { tag, context: "Delta" }),
        }
    }
}

/// What the primary reports back to the client.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct OpResult {
    /// For creates: the final path (sequence-resolved).
    pub created_path: Option<String>,
    /// For set-data: the new version.
    pub new_version: Option<u64>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_round_trips() {
        let ops = vec![
            Op::create("/a", b"x".to_vec()),
            Op::create_sequential("/q/item-", vec![]),
            Op::delete("/a"),
            Op::Delete { path: "/b".into(), expected_version: Some(4) },
            Op::set("/a", b"y".to_vec()),
            Op::set_if_version("/a", b"z".to_vec(), 9),
        ];
        for op in ops {
            assert_eq!(Op::decode(&op.encode()).unwrap(), op);
        }
    }

    #[test]
    fn delta_round_trips() {
        let deltas = vec![
            Delta::CreateNode {
                path: "/a-0000000003".into(),
                data: b"d".to_vec(),
                parent_cversion: 4,
            },
            Delta::DeleteNode { path: "/a".into() },
            Delta::SetData { path: "/a".into(), data: vec![], new_version: 7 },
        ];
        for d in deltas {
            assert_eq!(d.encoded_len(), d.encode().len());
            assert_eq!(Delta::decode(&d.encode()).unwrap(), d);
        }
    }

    #[test]
    fn unknown_tags_rejected() {
        assert!(Op::decode(&[99]).is_err());
        assert!(Delta::decode(&[99]).is_err());
    }

    #[test]
    fn truncated_encodings_rejected() {
        let wire = Op::create("/abc", b"data".to_vec()).encode();
        for cut in 0..wire.len() {
            assert!(Op::decode(&wire[..cut]).is_err());
        }
    }
}
