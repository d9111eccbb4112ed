//! The application contract and two ready-made applications.

use bytes::Bytes;
use zab_core::{Txn, Zxid};
use zab_kv::{DataTree, Delta, Op, PrimaryExecutor};

/// The primary-backup state machine a replica hosts.
///
/// The split between [`Application::execute`] and [`Application::apply`]
/// is the heart of the paper's system model: a client *operation* may be
/// non-deterministic with respect to replica state (sequence numbers,
/// version guards), so only the **primary** executes it — against its
/// *speculative* state, which includes the effects of still-uncommitted
/// earlier operations — and the deterministic **delta** it produces is
/// what Zab broadcasts. Backups, and the primary itself, then `apply`
/// committed deltas in delivery order.
pub trait Application: Send + 'static {
    /// Primary-side: execute a client request against speculative state,
    /// returning the delta to broadcast.
    ///
    /// # Errors
    ///
    /// An application-level failure (returned to the client, nothing
    /// broadcast). A delta over [`zab_core::MAX_TXN_DATA_LEN`] is bounced
    /// by the leader after `execute` returns, which undoes nothing here:
    /// an application with speculative state must refuse it itself.
    fn execute(&mut self, request: &[u8]) -> Result<Vec<u8>, String>;

    /// Apply a committed delta (in zxid order, exactly once per state).
    fn apply(&mut self, txn: &Txn);

    /// Serialize committed state (for SNAP syncs of lagging followers).
    fn snapshot(&self) -> Vec<u8>;

    /// Replace committed state with a received snapshot covering up to
    /// `zxid`.
    ///
    /// # Errors
    ///
    /// A malformed snapshot (truncated, trailing bytes, failed
    /// validation) is *reported*, never panicked on: snapshot bytes
    /// come off the wire or off disk, and a replica must degrade to
    /// [`crate::Role::Faulted`] rather than crash. On `Err` the
    /// committed state must be unchanged.
    fn install(&mut self, snapshot: &[u8], zxid: Zxid) -> Result<(), String>;

    /// Zxid the committed state reflects.
    fn applied_to(&self) -> Zxid;

    /// Called when this replica gains (`true`) or loses (`false`) primary
    /// status: rebuild speculative state from committed state.
    fn on_role_change(&mut self, is_primary: bool);
}

/// Pass-through application: requests *are* deltas; committed deltas
/// accumulate in a log. Used by benchmarks and the quickstart.
#[derive(Debug, Default)]
pub struct BytesApp {
    log: Vec<(Zxid, Bytes)>,
    applied_to: Zxid,
}

impl BytesApp {
    /// Empty app.
    pub fn new() -> BytesApp {
        BytesApp::default()
    }

    /// The applied log.
    pub fn log(&self) -> &[(Zxid, Bytes)] {
        &self.log
    }
}

impl Application for BytesApp {
    fn execute(&mut self, request: &[u8]) -> Result<Vec<u8>, String> {
        Ok(request.to_vec())
    }

    fn apply(&mut self, txn: &Txn) {
        self.log.push((txn.zxid, txn.data.clone()));
        self.applied_to = txn.zxid;
    }

    fn snapshot(&self) -> Vec<u8> {
        // Entries: count, then (zxid, len, data)*.
        let mut buf = Vec::new();
        buf.extend((self.log.len() as u32).to_le_bytes());
        for (z, d) in &self.log {
            buf.extend(z.0.to_le_bytes());
            buf.extend((d.len() as u32).to_le_bytes());
            buf.extend(d.as_ref());
        }
        buf
    }

    fn install(&mut self, snapshot: &[u8], zxid: Zxid) -> Result<(), String> {
        let mut log = Vec::new();
        let mut cur = snapshot;
        if cur.len() < 4 {
            return Err(format!("snapshot header truncated: {} bytes", cur.len()));
        }
        let n = u32::from_le_bytes(cur[..4].try_into().expect("length checked")) as usize;
        cur = &cur[4..];
        for i in 0..n {
            if cur.len() < 12 {
                return Err(format!("snapshot truncated in entry {i} of {n}"));
            }
            let z = Zxid(u64::from_le_bytes(cur[..8].try_into().expect("length checked")));
            let len = u32::from_le_bytes(cur[8..12].try_into().expect("length checked")) as usize;
            if cur.len() < 12 + len {
                return Err(format!("snapshot entry {i} claims {len} bytes, fewer remain"));
            }
            log.push((z, Bytes::copy_from_slice(&cur[12..12 + len])));
            cur = &cur[12 + len..];
        }
        if !cur.is_empty() {
            return Err(format!("snapshot has {} trailing bytes", cur.len()));
        }
        self.log = log;
        self.applied_to = zxid;
        Ok(())
    }

    fn applied_to(&self) -> Zxid {
        self.applied_to
    }

    fn on_role_change(&mut self, _is_primary: bool) {}
}

/// The ZooKeeper-like data tree from `zab-kv` as a replica application.
///
/// Requests are encoded [`Op`]s; broadcast deltas are encoded
/// [`Delta`]s. Reads go directly to [`KvApp::tree`] on any replica.
#[derive(Debug)]
pub struct KvApp {
    committed: DataTree,
    primary: Option<PrimaryExecutor>,
    applied_to: Zxid,
}

impl Default for KvApp {
    fn default() -> Self {
        Self::new()
    }
}

impl KvApp {
    /// Empty tree.
    pub fn new() -> KvApp {
        KvApp { committed: DataTree::new(), primary: None, applied_to: Zxid::ZERO }
    }

    /// The committed tree (serve reads from here).
    pub fn tree(&self) -> &DataTree {
        &self.committed
    }
}

impl Application for KvApp {
    fn execute(&mut self, request: &[u8]) -> Result<Vec<u8>, String> {
        let op = Op::decode(request).map_err(|e| format!("bad op: {e}"))?;
        let primary = self.primary.as_mut().expect("execute only called while primary");
        let (delta, _result) = primary.execute(&op).map_err(|e| e.to_string())?;
        Ok(delta.encode())
    }

    fn apply(&mut self, txn: &Txn) {
        let delta = Delta::decode(&txn.data).expect("replicated deltas are well-formed");
        self.committed.apply(&delta).expect("primary order guarantees deltas apply cleanly");
        self.applied_to = txn.zxid;
    }

    fn snapshot(&self) -> Vec<u8> {
        self.committed.snapshot()
    }

    fn install(&mut self, snapshot: &[u8], zxid: Zxid) -> Result<(), String> {
        self.committed =
            DataTree::from_snapshot(snapshot).map_err(|e| format!("bad kv snapshot: {e}"))?;
        self.applied_to = zxid;
        // Speculative state (if any) is now meaningless.
        if self.primary.is_some() {
            self.primary = Some(PrimaryExecutor::new(self.committed.clone()));
        }
        Ok(())
    }

    fn applied_to(&self) -> Zxid {
        self.applied_to
    }

    fn on_role_change(&mut self, is_primary: bool) {
        self.primary = is_primary.then(|| PrimaryExecutor::new(self.committed.clone()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zab_core::Epoch;

    fn txn(c: u32, data: Vec<u8>) -> Txn {
        Txn::new(Zxid::new(Epoch(1), c), data)
    }

    #[test]
    fn bytes_app_round_trips_snapshot() {
        let mut a = BytesApp::new();
        a.apply(&txn(1, b"one".to_vec()));
        a.apply(&txn(2, b"two".to_vec()));
        let snap = a.snapshot();
        let mut b = BytesApp::new();
        b.install(&snap, Zxid::new(Epoch(1), 2)).expect("install");
        assert_eq!(b.log(), a.log());
        assert_eq!(b.applied_to(), Zxid::new(Epoch(1), 2));
    }

    #[test]
    fn bytes_app_rejects_malformed_snapshots_without_mutating() {
        let mut a = BytesApp::new();
        a.apply(&txn(1, b"keep".to_vec()));
        let good = a.snapshot();
        let z = Zxid::new(Epoch(1), 1);

        let mut b = BytesApp::new();
        b.apply(&txn(7, b"prior".to_vec()));
        let prior = b.log().to_vec();

        // Truncated header, truncated entry, and trailing garbage must
        // all error and leave the existing state untouched.
        assert!(b.install(&good[..3], z).is_err());
        assert!(b.install(&good[..good.len() - 1], z).is_err());
        let mut trailing = good.clone();
        trailing.push(0xEE);
        assert!(b.install(&trailing, z).is_err());
        // An entry whose length field overruns the buffer.
        let mut overrun = good.clone();
        let len_off = 4 + 8;
        overrun[len_off..len_off + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(b.install(&overrun, z).is_err());
        assert_eq!(b.log(), prior, "failed install mutated state");

        b.install(&good, z).expect("good snapshot still installs");
        assert_eq!(b.log(), a.log());
    }

    #[test]
    fn kv_app_rejects_malformed_snapshots() {
        let mut a = KvApp::new();
        assert!(a.install(b"\xFF\xFF\xFF", Zxid::new(Epoch(1), 1)).is_err());
    }

    #[test]
    fn kv_app_execute_then_apply_matches_backup() {
        let mut primary = KvApp::new();
        primary.on_role_change(true);
        let mut backup = KvApp::new();

        let delta = primary.execute(&Op::create("/cfg", b"v".to_vec()).encode()).expect("create");
        let t = txn(1, delta);
        primary.apply(&t);
        backup.apply(&t);
        assert!(backup.tree().exists("/cfg"));
        assert_eq!(primary.tree(), backup.tree());
    }

    #[test]
    fn kv_app_rejects_bad_requests_without_broadcasting() {
        let mut primary = KvApp::new();
        primary.on_role_change(true);
        assert!(primary.execute(b"garbage").is_err());
        assert!(primary.execute(&Op::delete("/missing").encode()).is_err());
    }

    #[test]
    fn kv_app_snapshot_install() {
        let mut a = KvApp::new();
        a.on_role_change(true);
        let d = a.execute(&Op::create("/x", vec![1]).encode()).expect("create");
        a.apply(&txn(1, d));
        let mut b = KvApp::new();
        b.install(&a.snapshot(), a.applied_to()).expect("install");
        assert!(b.tree().exists("/x"));
    }

    #[test]
    fn kv_speculation_reset_on_role_loss() {
        let mut a = KvApp::new();
        a.on_role_change(true);
        // Executed but never committed.
        a.execute(&Op::create("/spec", vec![]).encode()).expect("create");
        a.on_role_change(false);
        a.on_role_change(true);
        // The speculative node is gone; creating it again succeeds.
        a.execute(&Op::create("/spec", vec![]).encode()).expect("recreate");
    }
}
