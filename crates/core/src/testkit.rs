//! A miniature execution engine and procedures for exercising the
//! schedulers in unit and integration tests.
//!
//! The engine is an integer key/value map supporting read and
//! read-modify-write operations with full undo support, plus a forced-abort
//! flag to simulate user aborts. It is deliberately tiny but exercises
//! every scheduler code path: undo recording, rollback, lock sets, and
//! multi-round procedures (the paper's §4.2.1 swap example is reproduced in
//! the speculative scheduler's tests with this engine).

use crate::engine::{ExecOutcome, ExecutionEngine};
use crate::procedure::{OneRound, Procedure, RoundOutputs, Step};
use hcc_common::{AbortReason, LockKey, LogEncode, PartitionId, TxnId};
use hcc_locking::{granule, LockMode};
use std::collections::{BTreeMap, HashMap};

/// One operation of a test fragment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TestOp {
    /// Read a key (reported in the output).
    Read(u64),
    /// key := value (inserts when absent).
    Set(u64, i64),
    /// key += delta.
    Add(u64, i64),
    /// Remove a key (no-op when absent).
    Del(u64),
    /// Range scan: every present key in `[start, end)`, ascending,
    /// reported in the output. The range is *static* — the paper's §2.1
    /// stored procedures make access sets statically known, which is what
    /// lets the locking scheme pre-declare range-covering locks.
    Scan(u64, u64),
}

/// A fragment for the test engine.
#[derive(Debug, Clone, Default)]
pub struct TestFragment {
    pub ops: Vec<TestOp>,
    /// If set, the fragment refuses to run (user abort) without effects.
    pub fail: bool,
}

impl LogEncode for TestOp {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            TestOp::Read(k) => {
                out.push(0);
                k.encode(out);
            }
            TestOp::Set(k, v) => {
                out.push(1);
                k.encode(out);
                v.encode(out);
            }
            TestOp::Add(k, d) => {
                out.push(2);
                k.encode(out);
                d.encode(out);
            }
            TestOp::Del(k) => {
                out.push(3);
                k.encode(out);
            }
            TestOp::Scan(s, e) => {
                out.push(4);
                s.encode(out);
                e.encode(out);
            }
        }
    }
    fn decode(input: &mut &[u8]) -> Option<Self> {
        let (tag, rest) = input.split_first()?;
        *input = rest;
        Some(match tag {
            0 => TestOp::Read(u64::decode(input)?),
            1 => TestOp::Set(u64::decode(input)?, i64::decode(input)?),
            2 => TestOp::Add(u64::decode(input)?, i64::decode(input)?),
            3 => TestOp::Del(u64::decode(input)?),
            4 => TestOp::Scan(u64::decode(input)?, u64::decode(input)?),
            _ => return None,
        })
    }
}

impl LogEncode for TestFragment {
    fn encode(&self, out: &mut Vec<u8>) {
        self.ops.encode(out);
        self.fail.encode(out);
    }
    fn decode(input: &mut &[u8]) -> Option<Self> {
        Some(TestFragment {
            ops: Vec::decode(input)?,
            fail: bool::decode(input)?,
        })
    }
}

impl TestFragment {
    pub fn read(keys: &[u64]) -> Self {
        TestFragment {
            ops: keys.iter().map(|&k| TestOp::Read(k)).collect(),
            fail: false,
        }
    }

    pub fn add(key: u64, delta: i64) -> Self {
        TestFragment {
            ops: vec![TestOp::Add(key, delta), TestOp::Read(key)],
            fail: false,
        }
    }

    pub fn set(key: u64, value: i64) -> Self {
        TestFragment {
            ops: vec![TestOp::Set(key, value)],
            fail: false,
        }
    }

    pub fn failing() -> Self {
        TestFragment {
            ops: vec![],
            fail: true,
        }
    }
}

/// Output: the values read, in op order.
pub type TestOutput = Vec<(u64, i64)>;

/// Integer KV engine with per-transaction undo buffers. Backed by an
/// ordered map so [`TestOp::Scan`] has a real range index to walk.
#[derive(Debug, Default)]
pub struct TestEngine {
    pub kv: BTreeMap<u64, i64>,
    undo: HashMap<TxnId, Vec<(u64, Option<i64>)>>,
    /// Lock granularity. `None` (default) pre-declares per-key locks —
    /// the original behaviour, and what every point-only scheduler test
    /// assumes. `Some(shift)` switches the whole engine to *stripe*
    /// granules of `2^shift` adjacent keys: scans take shared locks on
    /// every stripe overlapping their range, and point ops lock their
    /// key's stripe, so membership changes (insert/delete) conflict with
    /// any scan whose range covers them — phantom protection by range
    /// coverage. Scan fragments are rejected in per-key mode: member
    /// enumeration cannot see keys a concurrent transaction deletes, so a
    /// per-key lock set for a scan is unsound (the delete-phantom the
    /// serial oracle caught).
    stripe_shift: Option<u32>,
}

impl TestEngine {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn with_data(pairs: &[(u64, i64)]) -> Self {
        TestEngine {
            kv: pairs.iter().copied().collect(),
            undo: HashMap::new(),
            stripe_shift: None,
        }
    }

    /// Switch to stripe-granule locking (see `stripe_shift`).
    pub fn with_stripe_locks(mut self, shift: u32) -> Self {
        assert!(shift < 63, "stripe shift must leave room for the namespace");
        self.stripe_shift = Some(shift);
        self
    }

    pub fn get(&self, key: u64) -> i64 {
        self.kv.get(&key).copied().unwrap_or(0)
    }

    pub fn contains(&self, key: u64) -> bool {
        self.kv.contains_key(&key)
    }

    /// Number of transactions with live undo buffers (leak detection).
    pub fn live_undo_buffers(&self) -> usize {
        self.undo.len()
    }

    /// Order-independent fingerprint of the committed contents.
    pub fn fingerprint(&self) -> u64 {
        let mut acc = 0u64;
        for (&k, &v) in &self.kv {
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            for b in k.to_be_bytes().into_iter().chain(v.to_be_bytes()) {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
            acc ^= h.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
        acc
    }

    fn write(&mut self, txn: TxnId, key: u64, value: i64, undo: bool) {
        let prior = self.kv.insert(key, value);
        if undo {
            self.undo.entry(txn).or_default().push((key, prior));
        }
    }

    fn delete(&mut self, txn: TxnId, key: u64, undo: bool) {
        let prior = self.kv.remove(&key);
        if undo {
            self.undo.entry(txn).or_default().push((key, prior));
        }
    }
}

impl ExecutionEngine for TestEngine {
    type Fragment = TestFragment;
    type Output = TestOutput;

    fn execute(
        &mut self,
        txn: TxnId,
        fragment: &TestFragment,
        undo: bool,
    ) -> ExecOutcome<TestOutput> {
        if fragment.fail {
            return ExecOutcome {
                result: Err(AbortReason::User),
                ops: 1,
            };
        }
        let mut out = Vec::new();
        let mut ops = 0u32;
        for op in &fragment.ops {
            ops += 1;
            match *op {
                TestOp::Read(k) => out.push((k, self.get(k))),
                TestOp::Set(k, v) => self.write(txn, k, v, undo),
                TestOp::Add(k, d) => {
                    let v = self.get(k) + d;
                    self.write(txn, k, v, undo);
                }
                TestOp::Del(k) => self.delete(txn, k, undo),
                TestOp::Scan(start, end) => {
                    for (&k, &v) in self.kv.range(start..end.max(start)) {
                        out.push((k, v));
                        ops += 1;
                    }
                }
            }
        }
        ExecOutcome {
            result: Ok(out),
            ops,
        }
    }

    fn rollback(&mut self, txn: TxnId) -> u32 {
        let records = self.undo.remove(&txn).unwrap_or_default();
        let n = records.len() as u32;
        for (key, prior) in records.into_iter().rev() {
            match prior {
                Some(v) => {
                    self.kv.insert(key, v);
                }
                None => {
                    self.kv.remove(&key);
                }
            }
        }
        n
    }

    fn forget(&mut self, txn: TxnId) -> u32 {
        self.undo.remove(&txn).map_or(0, |r| r.len() as u32)
    }

    fn snapshot(&self) -> Self {
        TestEngine {
            kv: self.kv.clone(),
            undo: HashMap::new(),
            stripe_shift: self.stripe_shift,
        }
    }

    fn lock_set(&self, fragment: &TestFragment) -> Vec<(LockKey, LockMode)> {
        let mut locks: Vec<(LockKey, LockMode)> = Vec::new();
        match self.stripe_shift {
            None => {
                for op in &fragment.ops {
                    let (key, mode) = match *op {
                        TestOp::Read(k) => (k, LockMode::Shared),
                        TestOp::Set(k, _) | TestOp::Add(k, _) | TestOp::Del(k) => {
                            (k, LockMode::Exclusive)
                        }
                        TestOp::Scan(..) => panic!(
                            "scan fragments require stripe lock granularity \
                             (TestEngine::with_stripe_locks): per-key lock sets \
                             cannot cover deleted members"
                        ),
                    };
                    granule::merge_lock(&mut locks, LockKey(key), mode);
                }
            }
            Some(shift) => {
                for op in &fragment.ops {
                    match *op {
                        TestOp::Read(k) => granule::merge_lock(
                            &mut locks,
                            granule::stripe_key(k, shift),
                            LockMode::Shared,
                        ),
                        TestOp::Set(k, _) | TestOp::Add(k, _) | TestOp::Del(k) => {
                            granule::merge_lock(
                                &mut locks,
                                granule::stripe_key(k, shift),
                                LockMode::Exclusive,
                            )
                        }
                        TestOp::Scan(start, end) => {
                            for lk in granule::stripe_range(start, end, shift) {
                                granule::merge_lock(&mut locks, lk, LockMode::Shared);
                            }
                        }
                    }
                }
            }
        }
        locks
    }
}

/// A one-round ("simple") multi-partition transaction over the test
/// engine: `fragments` run at their participants at once, and the result
/// is every participant's reads, concatenated in dispatch order. This is
/// the shape of every distributed TPC-C transaction (paper §4.2.2).
pub fn one_round(
    fragments: Vec<(PartitionId, TestFragment)>,
) -> Box<dyn Procedure<TestFragment, TestOutput>> {
    fn concat(r: &RoundOutputs<TestOutput>) -> TestOutput {
        r.by_partition.iter().flat_map(|p| p.1.clone()).collect()
    }
    Box::new(OneRound {
        fragments: fragments.into(),
        finish: concat,
    })
}

/// A two-round ("general") procedure: round 0 reads a key at each of two
/// partitions, round 1 writes each value to the *other* partition — the
/// paper's §4.2.1 example transaction A, which swaps `x` on P1 with `y`
/// on P2.
#[derive(Debug, Clone)]
pub struct SwapProcedure {
    pub p1: PartitionId,
    pub key1: u64,
    pub p2: PartitionId,
    pub key2: u64,
}

impl Procedure<TestFragment, TestOutput> for SwapProcedure {
    fn clone_box(&self) -> Box<dyn Procedure<TestFragment, TestOutput>> {
        Box::new(self.clone())
    }

    fn step(&self, prior: &[RoundOutputs<TestOutput>]) -> Step<TestFragment, TestOutput> {
        match prior.len() {
            0 => Step::Round {
                fragments: vec![
                    (self.p1, TestFragment::read(&[self.key1])),
                    (self.p2, TestFragment::read(&[self.key2])),
                ],
                is_final: false,
            },
            1 => {
                let v1 = prior[0].get(self.p1).expect("p1 response")[0].1;
                let v2 = prior[0].get(self.p2).expect("p2 response")[0].1;
                Step::Round {
                    fragments: vec![
                        (self.p1, TestFragment::set(self.key1, v2)),
                        (self.p2, TestFragment::set(self.key2, v1)),
                    ],
                    is_final: true,
                }
            }
            _ => Step::Finish(Vec::new()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcc_common::ClientId;

    fn t(n: u32) -> TxnId {
        TxnId::new(ClientId(0), n)
    }

    #[test]
    fn execute_reads_and_writes() {
        let mut e = TestEngine::with_data(&[(1, 5)]);
        let out = e.execute(t(1), &TestFragment::add(1, 2), false);
        assert_eq!(out.result.unwrap(), vec![(1, 7)]);
        assert_eq!(out.ops, 2);
        assert_eq!(e.get(1), 7);
    }

    #[test]
    fn failing_fragment_has_no_effects() {
        let mut e = TestEngine::with_data(&[(1, 5)]);
        let out = e.execute(t(1), &TestFragment::failing(), true);
        assert_eq!(out.result.unwrap_err(), AbortReason::User);
        assert_eq!(e.get(1), 5);
        assert_eq!(e.rollback(t(1)), 0);
    }

    #[test]
    fn rollback_across_fragments_is_lifo() {
        let mut e = TestEngine::with_data(&[(1, 10)]);
        e.execute(t(1), &TestFragment::add(1, 1), true);
        e.execute(t(1), &TestFragment::add(1, 1), true);
        assert_eq!(e.get(1), 12);
        let n = e.rollback(t(1));
        assert_eq!(n, 2);
        assert_eq!(e.get(1), 10);
        assert_eq!(e.live_undo_buffers(), 0);
    }

    #[test]
    fn forget_discards_undo() {
        let mut e = TestEngine::new();
        e.execute(t(1), &TestFragment::set(1, 1), true);
        assert_eq!(e.live_undo_buffers(), 1);
        assert_eq!(e.forget(t(1)), 1);
        assert_eq!(e.live_undo_buffers(), 0);
        assert_eq!(e.get(1), 1, "forget keeps effects");
    }

    #[test]
    fn undoless_execution_cannot_rollback() {
        let mut e = TestEngine::new();
        e.execute(t(1), &TestFragment::set(1, 9), false);
        assert_eq!(e.rollback(t(1)), 0);
        assert_eq!(e.get(1), 9);
    }

    #[test]
    fn lock_set_merges_modes() {
        let e = TestEngine::new();
        let frag = TestFragment {
            ops: vec![TestOp::Read(1), TestOp::Add(1, 1), TestOp::Read(2)],
            fail: false,
        };
        let locks = e.lock_set(&frag);
        assert_eq!(locks.len(), 2);
        assert!(locks.contains(&(LockKey(1), LockMode::Exclusive)));
        assert!(locks.contains(&(LockKey(2), LockMode::Shared)));
    }

    #[test]
    fn scan_reads_range_in_key_order() {
        let mut e = TestEngine::with_data(&[(5, 50), (1, 10), (3, 30), (9, 90)]);
        let out = e.execute(
            t(1),
            &TestFragment {
                ops: vec![TestOp::Scan(1, 9)],
                fail: false,
            },
            false,
        );
        assert_eq!(out.result.unwrap(), vec![(1, 10), (3, 30), (5, 50)]);
        assert_eq!(out.ops, 4, "one dispatch unit + three rows");
    }

    #[test]
    fn empty_and_inverted_scans_are_cheap() {
        let mut e = TestEngine::with_data(&[(1, 10)]);
        let out = e.execute(
            t(1),
            &TestFragment {
                ops: vec![TestOp::Scan(2, 2), TestOp::Scan(9, 3)],
                fail: false,
            },
            false,
        );
        assert_eq!(out.result.unwrap(), vec![]);
        assert_eq!(out.ops, 2);
    }

    #[test]
    fn delete_rolls_back_to_present() {
        let mut e = TestEngine::with_data(&[(1, 10)]);
        let fp = e.fingerprint();
        e.execute(
            t(1),
            &TestFragment {
                ops: vec![TestOp::Del(1), TestOp::Set(2, 20)],
                fail: false,
            },
            true,
        );
        assert!(!e.contains(1));
        assert!(e.contains(2));
        assert_eq!(e.rollback(t(1)), 2);
        assert_eq!(e.fingerprint(), fp);
        assert_eq!(e.get(1), 10);
        assert!(!e.contains(2));
    }

    #[test]
    fn stripe_mode_scan_locks_cover_the_range() {
        // shift 2 → stripes of 4 keys. Scan [3, 9) covers stripes 0..=2.
        let e = TestEngine::with_data(&[]).with_stripe_locks(2);
        let locks = e.lock_set(&TestFragment {
            ops: vec![TestOp::Scan(3, 9)],
            fail: false,
        });
        let stripes: Vec<u64> = locks
            .iter()
            .map(|(k, _)| k.0 & !granule::STRIPE_NS)
            .collect();
        assert_eq!(stripes, vec![0, 1, 2]);
        assert!(locks.iter().all(|(_, m)| *m == LockMode::Shared));
    }

    #[test]
    fn stripe_mode_membership_changes_conflict_with_covering_scans() {
        let e = TestEngine::with_data(&[]).with_stripe_locks(2);
        let scan = e.lock_set(&TestFragment {
            ops: vec![TestOp::Scan(0, 8)],
            fail: false,
        });
        // A delete inside the range and an insert inside the range both
        // take X on a stripe the scan holds S on.
        for probe in [TestOp::Del(5), TestOp::Set(5, 1)] {
            let w = e.lock_set(&TestFragment {
                ops: vec![probe],
                fail: false,
            });
            assert_eq!(w.len(), 1);
            assert_eq!(w[0].1, LockMode::Exclusive);
            assert!(
                scan.iter().any(|(k, _)| *k == w[0].0),
                "membership change must hit a scanned stripe"
            );
        }
        // Outside the range: no overlap.
        let w = e.lock_set(&TestFragment {
            ops: vec![TestOp::Set(12, 1)],
            fail: false,
        });
        assert!(scan.iter().all(|(k, _)| *k != w[0].0));
    }

    #[test]
    #[should_panic(expected = "stripe lock granularity")]
    fn per_key_mode_rejects_scan_lock_sets() {
        let e = TestEngine::with_data(&[]);
        e.lock_set(&TestFragment {
            ops: vec![TestOp::Scan(0, 4)],
            fail: false,
        });
    }

    #[test]
    fn swap_procedure_rounds() {
        let p1 = PartitionId(0);
        let p2 = PartitionId(1);
        let proc = SwapProcedure {
            p1,
            key1: 1,
            p2,
            key2: 2,
        };
        let Step::Round {
            fragments,
            is_final,
        } = proc.step(&[])
        else {
            panic!("expected round 0");
        };
        assert_eq!(fragments.len(), 2);
        assert!(!is_final);
        let r0 = RoundOutputs {
            by_partition: vec![(p1, vec![(1, 5)]), (p2, vec![(2, 17)])],
        };
        let Step::Round {
            fragments,
            is_final,
        } = proc.step(&[r0])
        else {
            panic!("expected round 1");
        };
        assert!(is_final);
        // x gets y's value and vice versa.
        assert!(fragments
            .iter()
            .any(|(p, f)| *p == p1 && f.ops == vec![TestOp::Set(1, 17)]));
        assert!(fragments
            .iter()
            .any(|(p, f)| *p == p2 && f.ops == vec![TestOp::Set(2, 5)]));
    }
}
