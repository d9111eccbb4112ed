//! Graceful degradation under storage faults, end-to-end over real TCP:
//! a replica whose disk starts failing must emit
//! [`NodeEvent::StorageFault`], step out of the protocol
//! ([`Role::Faulted`]), and keep serving stale reads — while the
//! remaining majority keeps electing and committing. The same wrapper
//! counts `recover()` calls: a process reads its log once, at boot, however
//! many role changes follow.

use std::collections::BTreeMap;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use zab_core::PersistRequest;
use zab_core::ServerId;
use zab_log::{MemStorage, Recovered, Storage, StorageError};
use zab_node::{apps::BytesApp, NodeConfig, NodeEvent, Replica, Role};

fn address_book(n: u64) -> BTreeMap<ServerId, SocketAddr> {
    (1..=n)
        .map(|i| {
            let l = TcpListener::bind("127.0.0.1:0").expect("bind");
            let addr = l.local_addr().expect("addr");
            drop(l);
            (ServerId(i), addr)
        })
        .collect()
}

/// A [`MemStorage`] whose flushes fail once the shared switch is thrown —
/// the moral equivalent of a disk going read-only under a live replica —
/// or whose log cannot be read back at all, and which counts how often it
/// is asked to.
#[derive(Default)]
struct SwitchableStorage {
    inner: MemStorage,
    fail_flush: Arc<AtomicBool>,
    fail_recover: bool,
    recovers: Arc<AtomicUsize>,
}

impl Storage for SwitchableStorage {
    fn set_accepted_epoch(&mut self, epoch: zab_core::Epoch) -> Result<(), StorageError> {
        self.inner.set_accepted_epoch(epoch)
    }
    fn set_current_epoch(&mut self, epoch: zab_core::Epoch) -> Result<(), StorageError> {
        self.inner.set_current_epoch(epoch)
    }
    fn append_txns(&mut self, txns: &[zab_core::Txn]) -> Result<(), StorageError> {
        self.inner.append_txns(txns)
    }
    fn truncate(&mut self, to: zab_core::Zxid) -> Result<(), StorageError> {
        self.inner.truncate(to)
    }
    fn reset_to_snapshot(
        &mut self,
        snapshot: bytes::Bytes,
        zxid: zab_core::Zxid,
    ) -> Result<(), StorageError> {
        self.inner.reset_to_snapshot(snapshot, zxid)
    }
    fn compact(
        &mut self,
        snapshot: bytes::Bytes,
        zxid: zab_core::Zxid,
    ) -> Result<(), StorageError> {
        self.inner.compact(snapshot, zxid)
    }
    fn flush(&mut self) -> Result<(), StorageError> {
        if self.fail_flush.load(Ordering::SeqCst) {
            return Err(StorageError::Io(std::io::Error::other("injected flush failure")));
        }
        self.inner.flush()
    }
    fn recover(&self) -> Result<Recovered, StorageError> {
        self.recovers.fetch_add(1, Ordering::SeqCst);
        if self.fail_recover {
            return Err(StorageError::Io(std::io::Error::other("injected recover failure")));
        }
        self.inner.recover()
    }
    fn apply(&mut self, req: &PersistRequest) -> Result<(), StorageError> {
        self.inner.apply(req)
    }
}

fn wait_for<F: FnMut() -> bool>(timeout: Duration, mut f: F) -> bool {
    let deadline = Instant::now() + timeout;
    while Instant::now() < deadline {
        if f() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    false
}

fn leader_of(replicas: &BTreeMap<ServerId, Replica<BytesApp>>) -> Option<ServerId> {
    replicas
        .iter()
        .find(|(_, r)| matches!(r.role(), Role::Leading { established: true, .. }))
        .map(|(&id, _)| id)
}

#[test]
fn malformed_durable_snapshot_faults_the_replica_instead_of_panicking() {
    // Storage whose durable snapshot is garbage with a non-zero base:
    // boot must install it, fail, and degrade to Role::Faulted — the
    // process stays alive and the fault is counted, never a panic.
    let book = address_book(1);
    let mut storage = Box::new(MemStorage::new());
    storage
        .reset_to_snapshot(bytes::Bytes::from_static(b"\x09\x00\x00\x00trunc"), zab_core::Zxid(7))
        .expect("seed bad snapshot");
    let cfg = NodeConfig::new(ServerId(1), book);
    let replica =
        Replica::start_with_storage(cfg, BytesApp::new(), storage).expect("boot must not panic");

    let mut saw_fault = false;
    let deadline = Instant::now() + Duration::from_secs(5);
    while !saw_fault && Instant::now() < deadline {
        if let Ok(NodeEvent::StorageFault { context, .. }) =
            replica.events().recv_timeout(Duration::from_millis(100))
        {
            assert_eq!(context, "install snapshot");
            saw_fault = true;
        }
    }
    assert!(saw_fault, "no StorageFault from the bad snapshot");
    assert!(
        wait_for(Duration::from_secs(5), || replica.role() == Role::Faulted),
        "replica never entered Role::Faulted"
    );
    let snap = replica.metrics_snapshot();
    assert_eq!(snap.counter("node.snapshot_install_failures"), 1);
    assert_eq!(snap.counter("node.storage_faults"), 1);
    // Still alive: the API answers, writes are rejected with a reason.
    replica.submit(b"rejected".to_vec());
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        if let Ok(NodeEvent::Rejected { reason, .. }) =
            replica.events().recv_timeout(Duration::from_millis(100))
        {
            assert_eq!(reason, "StorageFaulted");
            break;
        }
        assert!(Instant::now() < deadline, "faulted replica stopped responding");
    }
}

#[test]
fn unreadable_log_at_boot_faults_the_replica() {
    let book = address_book(1);
    let storage = Box::new(SwitchableStorage { fail_recover: true, ..Default::default() });
    let replica =
        Replica::start_with_storage(NodeConfig::new(ServerId(1), book), BytesApp::new(), storage)
            .expect("a failed recovery is reported, not returned");
    match replica.events().recv_timeout(Duration::from_secs(5)) {
        Ok(NodeEvent::StorageFault { context, error }) => {
            assert_eq!(context, "recover");
            assert!(error.contains("injected recover failure"), "unexpected error: {error}");
        }
        other => panic!("expected StorageFault first, got {other:?}"),
    }
    assert!(
        wait_for(Duration::from_secs(5), || replica.role() == Role::Faulted),
        "replica never entered Role::Faulted"
    );
    assert_eq!(replica.metrics_snapshot().counter("node.storage_faults"), 1);
}

#[test]
fn the_log_is_read_once_per_process() {
    let book = address_book(3);
    let recovers: BTreeMap<ServerId, Arc<AtomicUsize>> =
        book.keys().map(|&id| (id, Arc::new(AtomicUsize::new(0)))).collect();
    let mut replicas: BTreeMap<ServerId, Replica<BytesApp>> = book
        .keys()
        .map(|&id| {
            let storage = Box::new(SwitchableStorage {
                recovers: Arc::clone(&recovers[&id]),
                ..SwitchableStorage::default()
            });
            let cfg = NodeConfig::new(id, book.clone());
            (id, Replica::start_with_storage(cfg, BytesApp::new(), storage).expect("start"))
        })
        .collect();
    assert!(
        wait_for(Duration::from_secs(10), || leader_of(&replicas).is_some()),
        "no initial leader"
    );
    let first = leader_of(&replicas).expect("leader");

    // Shut the leader down with a pipeline of submissions in flight: both
    // survivors lose their leader, look, decide and take up new roles.
    for i in 0..200 {
        replicas[&first].submit(format!("op-{i}").into_bytes());
    }
    replicas.remove(&first).expect("leader").shutdown();
    assert!(
        wait_for(Duration::from_secs(60), || leader_of(&replicas).is_some()),
        "survivors never elected a successor"
    );
    let before = replicas.values().map(|r| r.with_app(|a| a.log().len())).max().expect("two");
    assert!(
        wait_for(Duration::from_secs(30), || {
            if let Some(l) = leader_of(&replicas) {
                replicas[&l].submit(b"after-failover".to_vec());
            }
            replicas.values().all(|r| r.with_app(|a| a.log().len()) > before)
        }),
        "survivors stopped committing after the failover"
    );

    // Role changes hand the protocol state over in memory: the only read
    // of the log is the one at boot.
    for (id, replica) in &replicas {
        assert!(replica.metrics_snapshot().counter("node.role_transitions") >= 3, "{id:?}");
        assert_eq!(recovers[id].load(Ordering::SeqCst), 1, "{id:?} re-read its log");
    }
}

#[test]
fn faulted_replica_degrades_while_majority_commits() {
    let book = address_book(3);
    let switches: BTreeMap<ServerId, Arc<AtomicBool>> =
        book.keys().map(|&id| (id, Arc::new(AtomicBool::new(false)))).collect();
    let replicas: BTreeMap<ServerId, Replica<BytesApp>> = book
        .keys()
        .map(|&id| {
            let cfg = NodeConfig::new(id, book.clone());
            let storage = Box::new(SwitchableStorage {
                fail_flush: Arc::clone(&switches[&id]),
                ..SwitchableStorage::default()
            });
            (id, Replica::start_with_storage(cfg, BytesApp::new(), storage).expect("start"))
        })
        .collect();

    assert!(
        wait_for(Duration::from_secs(10), || leader_of(&replicas).is_some()),
        "no initial leader"
    );
    let first = leader_of(&replicas).expect("leader");

    // Commit a baseline entry everywhere so the victim has applied state
    // to serve stale reads from after it faults.
    replicas[&first].submit(b"baseline".to_vec());
    assert!(
        wait_for(Duration::from_secs(10), || {
            replicas.values().all(|r| r.with_app(|a| !a.log().is_empty()))
        }),
        "baseline entry did not reach every replica"
    );

    // Throw the leader's disk switch: its very next flush fails. The
    // leader is the strongest case — it must step down, not just stall.
    switches[&first].store(true, Ordering::SeqCst);
    replicas[&first].submit(b"doomed".to_vec());

    // The victim reports the fault and fail-stops.
    let mut saw_fault = false;
    let deadline = Instant::now() + Duration::from_secs(10);
    while !saw_fault && Instant::now() < deadline {
        if let Ok(NodeEvent::StorageFault { context, error }) =
            replicas[&first].events().recv_timeout(Duration::from_millis(100))
        {
            assert_eq!(context, "append/flush");
            assert!(error.contains("injected flush failure"), "unexpected error: {error}");
            saw_fault = true;
        }
    }
    assert!(saw_fault, "no StorageFault event from the victim");
    assert!(
        wait_for(Duration::from_secs(5), || replicas[&first].role() == Role::Faulted),
        "victim never entered Role::Faulted"
    );

    // The survivors elect a successor and keep committing. Detection is
    // fail-silent (the faulted node's sockets stay open, it just goes
    // quiet), so convergence can take several timeout rounds — one
    // survivor may still trust the silent leader while the other is
    // already looking. Give it generous wall-clock room.
    assert!(
        wait_for(Duration::from_secs(60), || { leader_of(&replicas).is_some_and(|l| l != first) }),
        "survivors never elected a successor"
    );
    let survivors: Vec<ServerId> = book.keys().copied().filter(|&id| id != first).collect();
    let before =
        survivors.iter().map(|id| replicas[id].with_app(|a| a.log().len())).max().expect("two");
    assert!(
        wait_for(Duration::from_secs(30), || {
            // Leadership may still be churning; submit to whoever leads now.
            if let Some(l) = leader_of(&replicas) {
                if l != first {
                    replicas[&l].submit(b"after-fault".to_vec());
                }
            }
            survivors.iter().all(|id| replicas[id].with_app(|a| a.log().len()) > before)
        }),
        "majority stopped committing after the fault"
    );

    // The faulted node still serves (stale) reads from its applied state,
    // and rejects writes with a reason naming the fault.
    assert!(replicas[&first].with_app(|a| !a.log().is_empty()));
    replicas[&first].submit(b"rejected".to_vec());
    let mut saw_reject = false;
    let deadline = Instant::now() + Duration::from_secs(5);
    while !saw_reject && Instant::now() < deadline {
        if let Ok(NodeEvent::Rejected { reason, .. }) =
            replicas[&first].events().recv_timeout(Duration::from_millis(100))
        {
            assert_eq!(reason, "StorageFaulted");
            saw_reject = true;
        }
    }
    assert!(saw_reject, "faulted replica did not reject the write");
}
