//! Property tests: the KV undo buffer inverts arbitrary operation
//! sequences, including interleaved transactions rolled back in LIFO
//! order — the invariant the speculative scheduler's cascade relies on.
//! Every property runs with and without the ordered index, whose view
//! must come back exactly as the table does.

use bytes::Bytes;
use hcc_storage::{KvStore, KvUndo};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    Put(u8, u8),
    Delete(u8),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (any::<u8>(), any::<u8>()).prop_map(|(k, v)| Op::Put(k % 32, v)),
        any::<u8>().prop_map(|k| Op::Delete(k % 32)),
    ]
}

fn key(k: u8) -> Bytes {
    Bytes::copy_from_slice(&[k])
}

fn store(ordered: bool) -> KvStore {
    let mut kv = KvStore::new();
    if ordered {
        kv.enable_ordered_index();
    }
    kv
}

/// Index and table must agree after every single mutation, not only at
/// the end (vacuous on a store without an index).
fn check(kv: &KvStore) {
    kv.check_ordered_invariants().expect("index drifted");
}

fn apply(kv: &mut KvStore, ops: &[Op], undo: Option<&mut KvUndo>) {
    let mut undo = undo;
    for op in ops {
        match *op {
            Op::Put(k, v) => kv.put(key(k), Bytes::copy_from_slice(&[v]), undo.as_deref_mut()),
            Op::Delete(k) => {
                kv.delete(&key(k), undo.as_deref_mut());
            }
        }
        check(kv);
    }
}

/// What a rollback must restore: the table's contents and, on an indexed
/// store, the ordered walk over them.
fn state(kv: &KvStore) -> (u64, Option<u64>) {
    check(kv);
    let ordered = kv.has_ordered_index().then(|| kv.ordered_fingerprint());
    (kv.fingerprint(), ordered)
}

/// Every row in key order (keys are one byte below `0xff`).
fn rows(kv: &KvStore) -> Vec<(Bytes, Bytes)> {
    kv.scan_range(&[], &[0xff])
        .map(|(k, v)| (k.clone(), v.clone()))
        .collect()
}

proptest! {
    /// rollback(execute(ops)) is the identity on store state.
    #[test]
    fn rollback_inverts_any_sequence(
        base in proptest::collection::vec(op_strategy(), 0..40),
        txn in proptest::collection::vec(op_strategy(), 1..40),
        ordered in proptest::bool::ANY,
    ) {
        let mut kv = store(ordered);
        apply(&mut kv, &base, None);
        let before = state(&kv);

        let mut undo = KvUndo::new();
        apply(&mut kv, &txn, Some(&mut undo));
        kv.rollback(undo);
        prop_assert_eq!(state(&kv), before);
    }

    /// Two interleaved transactions rolled back newest-first restore the
    /// pre-state exactly (the speculation squash order).
    #[test]
    fn lifo_rollback_of_interleaved_txns(
        base in proptest::collection::vec(op_strategy(), 0..20),
        t1 in proptest::collection::vec(op_strategy(), 1..20),
        t2 in proptest::collection::vec(op_strategy(), 1..20),
        ordered in proptest::bool::ANY,
    ) {
        let mut kv = store(ordered);
        apply(&mut kv, &base, None);
        let before = state(&kv);

        let mut u1 = KvUndo::new();
        let mut u2 = KvUndo::new();
        apply(&mut kv, &t1, Some(&mut u1));
        apply(&mut kv, &t2, Some(&mut u2));
        kv.rollback(u2);
        check(&kv);
        kv.rollback(u1);
        prop_assert_eq!(state(&kv), before);
    }

    /// Committing the first txn and rolling back the second leaves exactly
    /// the first txn's effects.
    #[test]
    fn partial_rollback_keeps_committed_effects(
        t1 in proptest::collection::vec(op_strategy(), 1..20),
        t2 in proptest::collection::vec(op_strategy(), 1..20),
        ordered in proptest::bool::ANY,
    ) {
        let mut kv = store(ordered);
        let mut reference = store(ordered);
        apply(&mut kv, &t1, None);
        apply(&mut reference, &t1, None);

        let mut u2 = KvUndo::new();
        apply(&mut kv, &t2, Some(&mut u2));
        kv.rollback(u2);
        prop_assert_eq!(state(&kv), state(&reference));
    }

    /// The `snapshot()` path: a clone taken while two transactions are in
    /// flight, with their buffers rolled back on it youngest-first, scans
    /// exactly like the committed store, and the original keeps its
    /// in-flight rows.
    #[test]
    fn clone_rolled_back_scans_like_the_committed_store(
        base in proptest::collection::vec(op_strategy(), 0..20),
        t1 in proptest::collection::vec(op_strategy(), 1..20),
        t2 in proptest::collection::vec(op_strategy(), 1..20),
    ) {
        let mut kv = store(true);
        let mut committed = store(true);
        apply(&mut kv, &base, None);
        apply(&mut committed, &base, None);

        let mut u1 = KvUndo::new();
        let mut u2 = KvUndo::new();
        apply(&mut kv, &t1, Some(&mut u1));
        apply(&mut kv, &t2, Some(&mut u2));
        let in_flight = rows(&kv);

        let mut copy = kv.clone();
        copy.rollback_copy(&u2);
        check(&copy);
        copy.rollback_copy(&u1);
        check(&copy);
        prop_assert_eq!(rows(&copy), rows(&committed));
        prop_assert_eq!(rows(&kv), in_flight);
        check(&kv);
    }
}
