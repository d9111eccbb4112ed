//! The applications the workloads run, and what the harness needs to know
//! about them: which op a delivered payload belongs to, and whether the
//! committed state holds every acknowledged op.

use crate::gen::{mix, stamped_id, stream, Payloads};
use zab_core::{Txn, Zxid};
use zab_kv::{Delta, Op};
use zab_node::{Application, KvApp};

/// Znodes the `KvApp` workload writes to.
pub const KV_KEYS: u64 = 1024;

fn kv_path(key: u64) -> String {
    format!("/bench/k{key:04}")
}

/// The requests of one run, each a function of the seed and the op id. Ids start
/// at 1 and are issued once each; 0 marks set-up ops.
#[derive(Debug)]
pub enum Ops {
    /// `Op::set` of a stamped value on a seeded choice of [`KV_KEYS`] znodes.
    Kv {
        /// Values.
        payloads: Payloads,
        /// Decides the key choice.
        seed: u64,
        /// Per key, the id of the last op generated for it.
        last_by_key: Vec<u64>,
    },
    /// Opaque stamped payloads for [`DigestApp`].
    Digest(Payloads),
}

impl Ops {
    /// `KvApp` requests with `value_bytes` values.
    pub fn kv(seed: u64, value_bytes: usize) -> Ops {
        Ops::Kv {
            payloads: Payloads::new(seed, value_bytes),
            seed,
            last_by_key: vec![0; KV_KEYS as usize],
        }
    }

    /// `DigestApp` requests of `payload_bytes`.
    pub fn digest(seed: u64, payload_bytes: usize) -> Ops {
        Ops::Digest(Payloads::new(seed, payload_bytes))
    }

    /// Requests that must commit before the run: the znodes of the kv
    /// workload, each holding a value stamped with id 0.
    pub fn setup_requests(&self) -> Vec<Vec<u8>> {
        match self {
            Ops::Kv { .. } => std::iter::once(Op::create("/bench", Vec::new()).encode())
                .chain((0..KV_KEYS).map(|k| Op::create(kv_path(k), vec![0; 8]).encode()))
                .collect(),
            Ops::Digest(_) => Vec::new(),
        }
    }

    /// The request of op `id`. Ids are requested in increasing order; after a
    /// failover a suffix may be requested again.
    pub fn request(&mut self, id: u64) -> Vec<u8> {
        match self {
            Ops::Kv { payloads, seed, last_by_key } => {
                let key = mix(*seed, stream::KEY, id) % KV_KEYS;
                last_by_key[key as usize] = id;
                Op::set(kv_path(key), payloads.get(id)).encode()
            }
            Ops::Digest(payloads) => payloads.get(id),
        }
    }
}

/// What the harness asks of a workload's application beyond running it.
pub trait Bench: Application {
    /// The op id a delivered payload carries; 0 for set-up ops.
    fn delivered_id(data: &[u8]) -> u64;

    /// The highest op id the committed state reflects.
    fn last_applied_id(&self) -> u64;

    /// Checks that the committed state holds every op of `ops` up to
    /// `last_id`, all of which were acknowledged.
    ///
    /// # Errors
    ///
    /// Names the first op found missing.
    fn holds(&self, ops: &Ops, last_id: u64) -> Result<(), String>;
}

fn kv_value_id(app: &KvApp, key: u64) -> u64 {
    app.tree().get(&kv_path(key)).and_then(|z| stamped_id(&z.data)).unwrap_or(0)
}

impl Bench for KvApp {
    fn delivered_id(data: &[u8]) -> u64 {
        match Delta::decode(data) {
            Ok(Delta::SetData { data, .. }) => stamped_id(&data).unwrap_or(0),
            _ => 0,
        }
    }

    fn last_applied_id(&self) -> u64 {
        (0..KV_KEYS).map(|k| kv_value_id(self, k)).max().unwrap_or(0)
    }

    fn holds(&self, ops: &Ops, _last_id: u64) -> Result<(), String> {
        let Ops::Kv { last_by_key, .. } = ops else {
            return Err("KvApp ran a workload that is not kv".to_string());
        };
        for (key, &want) in last_by_key.iter().enumerate() {
            let got = kv_value_id(self, key as u64);
            if got != want {
                return Err(format!("znode {key} holds op {got}, last acknowledged is {want}"));
            }
        }
        Ok(())
    }
}

/// Constant-memory application for the payload workloads: it folds what it
/// is asked to apply into a few words and keeps no payload, so the run
/// measures the broadcast, not the application, and memory does not grow
/// with run length (`BytesApp` retains every payload).
///
/// Because ids are issued increasing and Zab delivers a primary's changes in
/// the order it generated them, `last_id` and `count` say exactly which ops
/// the state holds: ops `1..=last_id`, provided `count == last_id` and no
/// id ever arrived out of order.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct DigestApp {
    applied_to: Zxid,
    count: u64,
    last_id: u64,
    out_of_order: u64,
    digest: u64,
}

impl DigestApp {
    /// Empty state.
    pub fn new() -> DigestApp {
        DigestApp::default()
    }

    fn words(&self) -> [u64; 5] {
        [self.applied_to.0, self.count, self.last_id, self.out_of_order, self.digest]
    }
}

impl Application for DigestApp {
    fn execute(&mut self, request: &[u8]) -> Result<Vec<u8>, String> {
        Ok(request.to_vec())
    }

    fn apply(&mut self, txn: &Txn) {
        let id = stamped_id(&txn.data).unwrap_or(0);
        self.out_of_order += u64::from(id <= self.last_id);
        self.last_id = self.last_id.max(id);
        self.count += 1;
        self.digest = (self.digest ^ txn.zxid.0 ^ id.rotate_left(32) ^ txn.data.len() as u64)
            .wrapping_mul(0x0000_0100_0000_01B3);
        self.applied_to = txn.zxid;
    }

    fn snapshot(&self) -> Vec<u8> {
        self.words().iter().flat_map(|w| w.to_le_bytes()).collect()
    }

    fn install(&mut self, snapshot: &[u8], zxid: Zxid) -> Result<(), String> {
        if snapshot.len() != 40 {
            return Err(format!("digest snapshot is {} bytes, not 40", snapshot.len()));
        }
        let mut w = snapshot
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        let mut next = || w.next().expect("five words");
        let applied_to = Zxid(next());
        if applied_to != zxid {
            return Err(format!("digest snapshot covers {applied_to}, caller says {zxid}"));
        }
        *self = DigestApp {
            applied_to,
            count: next(),
            last_id: next(),
            out_of_order: next(),
            digest: next(),
        };
        Ok(())
    }

    fn applied_to(&self) -> Zxid {
        self.applied_to
    }

    fn on_role_change(&mut self, _is_primary: bool) {}
}

impl Bench for DigestApp {
    fn delivered_id(data: &[u8]) -> u64 {
        stamped_id(data).unwrap_or(0)
    }

    fn last_applied_id(&self) -> u64 {
        self.last_id
    }

    fn holds(&self, _ops: &Ops, last_id: u64) -> Result<(), String> {
        if self.out_of_order != 0 {
            return Err(format!("{} ops applied out of id order", self.out_of_order));
        }
        if self.last_id != last_id || self.count != last_id {
            return Err(format!(
                "state holds {} ops up to id {}, {last_id} were acknowledged",
                self.count, self.last_id
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zab_core::Epoch;

    fn txn(counter: u32, id: u64) -> Txn {
        Txn::new(Zxid::new(Epoch(1), counter), Payloads::new(1, 64).get(id))
    }

    #[test]
    fn digest_app_knows_which_ops_it_holds() {
        let ops = Ops::digest(1, 64);
        let mut a = DigestApp::new();
        for i in 1..=5u32 {
            a.apply(&txn(i, u64::from(i)));
        }
        assert_eq!(a.last_applied_id(), 5);
        a.holds(&ops, 5).expect("1..=5 applied");
        assert!(a.holds(&ops, 6).is_err(), "op 6 was never applied");
        let mut gap = a.clone();
        gap.apply(&txn(6, 7));
        assert!(gap.holds(&ops, 7).is_err(), "op 6 is missing");
        let mut dup = a.clone();
        dup.apply(&txn(6, 5));
        assert!(dup.holds(&ops, 5).is_err(), "op 5 applied twice");
    }

    #[test]
    fn digest_app_snapshot_round_trips_and_rejects_garbage() {
        let mut a = DigestApp::new();
        a.apply(&txn(1, 1));
        a.apply(&txn(2, 2));
        let mut b = DigestApp::new();
        b.install(&a.snapshot(), a.applied_to()).expect("install");
        assert_eq!(a, b);
        assert!(b.install(&a.snapshot()[..39], a.applied_to()).is_err());
        assert!(b.install(&a.snapshot(), Zxid::ZERO).is_err());
        assert_eq!(a, b, "a failed install must not change the state");
    }

    #[test]
    fn kv_ops_execute_apply_and_are_found_in_the_tree() {
        let mut ops = Ops::kv(5, 128);
        let mut app = KvApp::new();
        app.on_role_change(true);
        let mut counter = 0;
        let mut commit = |app: &mut KvApp, request: Vec<u8>| {
            counter += 1;
            let delta = app.execute(&request).expect("executes");
            app.apply(&Txn::new(Zxid::new(Epoch(1), counter), delta.clone()));
            KvApp::delivered_id(&delta)
        };
        for r in ops.setup_requests() {
            assert_eq!(commit(&mut app, r), 0);
        }
        assert!(app.holds(&ops, 0).is_ok());
        for id in 1..=50 {
            let r = ops.request(id);
            assert_eq!(commit(&mut app, r), id);
        }
        assert_eq!(app.last_applied_id(), 50);
        app.holds(&ops, 50).expect("all 50 in the tree");
        let _ = ops.request(51); // generated, never committed
        assert!(app.holds(&ops, 51).is_err());
    }
}
