//! A real-TCP loopback ensemble hosted in the benchmark process, and the rule
//! for who reads which replica's event stream.
//!
//! Every replica's `events()` must be drained: an undrained `Delivered` event
//! pins its payload. The generator thread reads the replica it submits to
//! (that is where acknowledgements arrive); the helper thread reads all the
//! others. [`Ensemble::claim_events`] moves a replica from one to the other.

use crate::apps::Bench;
use std::collections::BTreeMap;
use std::net::{SocketAddr, TcpListener};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, RwLock};
use std::time::{Duration, Instant};
use zab_core::ServerId;
use zab_node::{NodeConfig, NodeEvent, Replica, Role};

/// Replicas compact their log into a snapshot this often, so memory and log
/// size stay bounded over a long run.
pub const SNAPSHOT_EVERY: u64 = 20_000;

/// Most events taken from one replica in one [`Ensemble::pump`].
const PUMP_BATCH: usize = 1024;

/// Boots one replica from its configuration (a fresh application each time;
/// file storage is reopened from `data_dir` on a restart). The end-to-end
/// binary passes `Replica::start`; the traced binary wraps storage and
/// application first.
pub type Spawn<'a, A> = &'a (dyn Fn(NodeConfig) -> Result<Replica<A>, String> + Sync);

/// What the event streams of one replica (all its incarnations) have shown.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct StreamCheck {
    /// Highest op id the current incarnation delivered.
    pub last_id: u64,
    /// Set-up ops (id 0) delivered.
    pub setup_delivered: u64,
    /// Ops delivered with an id not above every earlier one: ids are issued
    /// increasing and at most once, so any is a safety violation.
    pub out_of_order: u64,
    /// `Rejected` events.
    pub rejected: u64,
    /// `RoleChanged` events.
    pub role_changes: u64,
    /// `StorageFault` events.
    pub storage_faults: u64,
}

/// An n-replica loopback ensemble.
pub struct Ensemble<'a, A: Bench> {
    spawn: Spawn<'a, A>,
    cfgs: Vec<NodeConfig>,
    slots: Vec<RwLock<Option<Replica<A>>>>,
    checks: Vec<Mutex<StreamCheck>>,
    /// Id of the replica whose events the generator reads; 0 for none.
    generator_reads: AtomicU64,
}

fn free_loopback_addr() -> std::io::Result<SocketAddr> {
    TcpListener::bind("127.0.0.1:0")?.local_addr()
}

impl<'a, A: Bench> Ensemble<'a, A> {
    /// Boots `n` replicas with `NodeConfig::new` defaults plus periodic
    /// snapshots, on file storage under `data_dir` if given, else in memory.
    ///
    /// # Errors
    ///
    /// A replica failed to boot three times over (each time on fresh ports:
    /// a probed-free port can be taken before the replica binds it).
    pub fn start(n: u64, data_dir: Option<&Path>, spawn: Spawn<'a, A>) -> Result<Self, String> {
        let mut last_error = String::new();
        for _ in 0..3 {
            let book: BTreeMap<ServerId, SocketAddr> = (1..=n)
                .map(|i| Ok((ServerId(i), free_loopback_addr()?)))
                .collect::<std::io::Result<_>>()
                .map_err(|e| format!("no free loopback port: {e}"))?;
            let cfgs: Vec<NodeConfig> = (1..=n)
                .map(|i| {
                    let cfg = NodeConfig::new(ServerId(i), book.clone())
                        .with_snapshot_every(SNAPSHOT_EVERY);
                    match data_dir {
                        Some(dir) => cfg.with_data_dir(dir.join(format!("n{i}"))),
                        None => cfg,
                    }
                })
                .collect();
            match cfgs.iter().map(|c| spawn(c.clone())).collect::<Result<Vec<_>, _>>() {
                Ok(replicas) => {
                    return Ok(Ensemble {
                        spawn,
                        cfgs,
                        slots: replicas.into_iter().map(|r| RwLock::new(Some(r))).collect(),
                        checks: (0..n).map(|_| Mutex::default()).collect(),
                        generator_reads: AtomicU64::new(0),
                    })
                }
                Err(e) => last_error = e,
            }
        }
        Err(format!("replica failed to boot: {last_error}"))
    }

    /// Ensemble size.
    pub fn n(&self) -> u64 {
        self.cfgs.len() as u64
    }

    /// All ids, live or not.
    pub fn ids(&self) -> impl Iterator<Item = ServerId> {
        (1..=self.n()).map(ServerId)
    }

    fn slot(&self, id: ServerId) -> &RwLock<Option<Replica<A>>> {
        &self.slots[(id.0 - 1) as usize]
    }

    /// Runs `f` on replica `id` if it is up.
    pub fn with<R>(&self, id: ServerId, f: impl FnOnce(&Replica<A>) -> R) -> Option<R> {
        self.slot(id).read().expect("no thread panics holding a slot").as_ref().map(f)
    }

    /// Role of `id`, `None` while it is down.
    pub fn role(&self, id: ServerId) -> Option<Role> {
        self.with(id, Replica::role)
    }

    /// The established leader, if a live replica says it is one.
    pub fn leader(&self) -> Option<ServerId> {
        self.ids()
            .find(|&id| matches!(self.role(id), Some(Role::Leading { established: true, .. })))
    }

    /// True when `id` is up and an active follower of `leader`.
    pub fn follows(&self, id: ServerId, leader: ServerId) -> bool {
        matches!(self.role(id), Some(Role::Following { leader: l, active: true }) if l == leader)
    }

    /// Waits until one replica leads and every other live one actively
    /// follows it; returns the leader.
    ///
    /// # Errors
    ///
    /// Not there after `timeout`.
    pub fn wait_ready(&self, timeout: Duration) -> Result<ServerId, String> {
        let deadline = Instant::now() + timeout;
        loop {
            if let Some(leader) = self.leader() {
                let ready =
                    |id| id == leader || self.role(id).is_none() || self.follows(id, leader);
                if self.ids().all(ready) {
                    return Ok(leader);
                }
            }
            if Instant::now() >= deadline {
                let roles: Vec<_> = self.ids().map(|id| self.role(id)).collect();
                return Err(format!("ensemble not ready after {timeout:?}: roles {roles:?}"));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Makes the generator the reader of `id`'s events (`None`: of nobody's)
    /// and returns once the helper has stopped reading them.
    pub fn claim_events(&self, id: Option<ServerId>) {
        self.generator_reads.store(id.map_or(0, |i| i.0), Ordering::SeqCst);
        if let Some(id) = id {
            // The helper checks `generator_reads` under the slot's read lock;
            // taking the write lock once waits out a pump already under way.
            drop(self.slot(id).write().expect("no thread panics holding a slot"));
        }
    }

    /// Takes up to [`PUMP_BATCH`] events from `id` (waiting up to `wait` for
    /// the first), checks the stream, and hands each delivered workload op id
    /// to `on_delivered`. Returns the number of events taken. For the
    /// generator, on the replica it has claimed.
    pub fn pump(&self, id: ServerId, wait: Duration, on_delivered: impl FnMut(u64)) -> usize {
        let slot = self.slot(id).read().expect("no thread panics holding a slot");
        slot.as_ref().map_or(0, |replica| self.drain(replica, wait, on_delivered))
    }

    /// The helper's step: pumps every replica the generator does not read.
    /// Returns the number of events taken.
    pub fn pump_others(&self) -> usize {
        let mut taken = 0;
        for id in self.ids() {
            // Checking under the read lock is what `claim_events` waits out.
            let slot = self.slot(id).read().expect("no thread panics holding a slot");
            if self.generator_reads.load(Ordering::SeqCst) != id.0 {
                taken += slot.as_ref().map_or(0, |r| self.drain(r, Duration::ZERO, |_| {}));
            }
        }
        taken
    }

    fn drain(
        &self,
        replica: &Replica<A>,
        wait: Duration,
        mut on_delivered: impl FnMut(u64),
    ) -> usize {
        let events = replica.events();
        let first =
            if wait.is_zero() { events.try_recv().ok() } else { events.recv_timeout(wait).ok() };
        let Some(first) = first else { return 0 };
        let mut check =
            self.checks[(replica.id().0 - 1) as usize].lock().expect("check lock not poisoned");
        let mut taken = 0;
        let mut next = Some(first);
        while let Some(event) = next {
            taken += 1;
            match event {
                NodeEvent::Delivered(txn) => {
                    let op = A::delivered_id(&txn.data);
                    if op == 0 {
                        check.setup_delivered += 1;
                    } else {
                        check.out_of_order += u64::from(op <= check.last_id);
                        check.last_id = check.last_id.max(op);
                        on_delivered(op);
                    }
                }
                NodeEvent::RoleChanged(_) => check.role_changes += 1,
                NodeEvent::Rejected { .. } => check.rejected += 1,
                NodeEvent::StorageFault { .. } => check.storage_faults += 1,
                NodeEvent::PeerUnreachable { .. } => {}
            }
            next = if taken < PUMP_BATCH { events.try_recv().ok() } else { None };
        }
        taken
    }

    /// Stops `id` being a member: the caller drops the returned replica (a
    /// fail-stop; its data directory survives).
    pub fn take(&self, id: ServerId) -> Option<Replica<A>> {
        self.slot(id).write().expect("no thread panics holding a slot").take()
    }

    /// Boots `id` again from its configuration and surviving data directory.
    ///
    /// # Errors
    ///
    /// The replica failed to boot.
    pub fn restart(&self, id: ServerId) -> Result<(), String> {
        let replica = (self.spawn)(self.cfgs[(id.0 - 1) as usize].clone())?;
        // The new incarnation replays its log from its snapshot, so its ids
        // start over; the counts of what went wrong carry on.
        self.checks[(id.0 - 1) as usize].lock().expect("check lock not poisoned").last_id = 0;
        *self.slot(id).write().expect("no thread panics holding a slot") = Some(replica);
        Ok(())
    }

    /// `(RoleChanged, Rejected)` events streamed so far, over all replicas.
    pub fn upsets(&self) -> (u64, u64) {
        let checks = self.ids().map(|id| self.stream_check(id));
        checks.fold((0, 0), |(roles, rejects), c| (roles + c.role_changes, rejects + c.rejected))
    }

    /// What `id` has streamed so far.
    pub fn stream_check(&self, id: ServerId) -> StreamCheck {
        *self.checks[(id.0 - 1) as usize].lock().expect("check lock not poisoned")
    }
}
