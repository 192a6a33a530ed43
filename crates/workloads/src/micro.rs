//! The microbenchmark of paper §5.1–5.4.
//!
//! "The execution engine is a simple key/value store, where keys and values
//! are arbitrary byte strings. One transaction is supported, which reads a
//! set of values then updates them. We use small 3 byte keys and 4 byte
//! values [...] Each client issues a read/write transaction which reads and
//! writes the value associated with 12 keys. [...] each client writes its
//! own set of keys."
//!
//! Variants:
//! * **conflicts** (§5.2): clients 0 and 1 pin themselves to partitions 0
//!   and 1; with probability `conflict_prob` other clients write one of the
//!   pinned clients' keys instead of their own.
//! * **aborts** (§5.3): with probability `abort_prob` a transaction aborts
//!   at the beginning of execution (at one randomly chosen participant for
//!   multi-partition transactions; the other participant aborts via 2PC).
//! * **two-round "general" transactions** (§5.4): the multi-partition
//!   transaction reads its keys in round 0 and writes them in round 1 —
//!   same work, twice the messages.

use crate::per_client::PerClient;
use hcc_common::{AbortReason, ClientId, FxHashMap, LockKey, LogEncode, PartitionId, TxnId};
use hcc_core::{
    ExecOutcome, ExecutionEngine, OneRound, Procedure, Request, RequestGenerator, RoundOutputs,
    Step,
};
use hcc_locking::{granule, LockMode};
use hcc_storage::{KvStore, KvUndo};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

pub use crate::output::MicroOutput;

/// A microbenchmark key: (client, partition, index), packed.
pub type MicroKey = u64;

pub fn make_key(client: u32, partition: u32, index: u32) -> MicroKey {
    ((client as u64) << 24) | ((partition as u64) << 8) | index as u64
}

fn key_bytes(k: MicroKey) -> bytes::Bytes {
    bytes::Bytes::copy_from_slice(&k.to_be_bytes())
}

/// One operation: read-modify-write or plain read/write of one key. The
/// paper's transaction is 12 RMWs; the two-round variant splits them into
/// reads then writes. Scan-capable engines (see
/// [`MicroEngine::enable_scans`]) additionally support ordered range
/// scans and membership changes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MicroOp {
    /// Read the value, add one, write it back.
    Rmw(MicroKey),
    /// Read only.
    Read(MicroKey),
    /// Write `value`.
    Write(MicroKey, u32),
    /// Read every present key in `[start, end)` in key order. The range
    /// is static (the paper's §2.1 stored procedures pre-declare their
    /// access sets), which is what lets the locking scheme take
    /// range-covering locks and the OCC validator detect phantoms.
    Scan(MicroKey, MicroKey),
    /// Insert a row (membership change — conflicts with covering scans).
    Insert(MicroKey, u32),
    /// Delete a row if present (membership change).
    Delete(MicroKey),
}

/// A unit of work at one partition.
///
/// The op list never changes once the generator built it, so it is shared:
/// the client's retry copy, every dispatch attempt and the partition's
/// task hold one block, cloning costs a reference count, and the block is
/// freed by whoever lets go last — in the closed loop, the client that
/// allocated it.
#[derive(Debug, Clone, Default)]
pub struct MicroFragment {
    pub ops: Arc<[MicroOp]>,
    /// Forced abort at the beginning of execution (§5.3).
    pub fail: bool,
}

impl LogEncode for MicroOp {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            MicroOp::Rmw(k) => {
                out.push(0);
                k.encode(out);
            }
            MicroOp::Read(k) => {
                out.push(1);
                k.encode(out);
            }
            MicroOp::Write(k, v) => {
                out.push(2);
                k.encode(out);
                v.encode(out);
            }
            MicroOp::Scan(s, e) => {
                out.push(3);
                s.encode(out);
                e.encode(out);
            }
            MicroOp::Insert(k, v) => {
                out.push(4);
                k.encode(out);
                v.encode(out);
            }
            MicroOp::Delete(k) => {
                out.push(5);
                k.encode(out);
            }
        }
    }
    fn decode(input: &mut &[u8]) -> Option<Self> {
        let (tag, rest) = input.split_first()?;
        *input = rest;
        Some(match tag {
            0 => MicroOp::Rmw(u64::decode(input)?),
            1 => MicroOp::Read(u64::decode(input)?),
            2 => MicroOp::Write(u64::decode(input)?, u32::decode(input)?),
            3 => MicroOp::Scan(u64::decode(input)?, u64::decode(input)?),
            4 => MicroOp::Insert(u64::decode(input)?, u32::decode(input)?),
            5 => MicroOp::Delete(u64::decode(input)?),
            _ => return None,
        })
    }
}

impl LogEncode for MicroFragment {
    fn encode(&self, out: &mut Vec<u8>) {
        self.ops.encode(out);
        self.fail.encode(out);
    }
    fn decode(input: &mut &[u8]) -> Option<Self> {
        Some(MicroFragment {
            ops: Arc::decode(input)?,
            fail: bool::decode(input)?,
        })
    }
}

/// The microbenchmark execution engine: byte-string KV store plus
/// per-transaction undo buffers.
///
/// Undo buffers are recycled through a per-partition pool: `forget` and
/// `rollback` return the cleared buffer instead of dropping it, so in
/// steady state a transaction costs zero allocations here.
pub struct MicroEngine {
    kv: KvStore,
    undo: FxHashMap<TxnId, KvUndo>,
    undo_pool: Vec<KvUndo>,
    /// Monotone stamp for undo-buffer creation order (see `KvUndo::birth`).
    undo_births: u64,
    /// Scan mode: the store keeps an ordered key index, and lock sets use
    /// stripe granules of [`SCAN_STRIPES_PER`] adjacent keys instead of
    /// per-key locks, so scans can pre-declare range-covering locks and
    /// membership changes (insert/delete) conflict with covering scans.
    /// Off by default — point-only workloads keep the original hot path
    /// and lock granularity (the golden table's micro rows pin them, its
    /// scan rows this mode).
    scan_mode: bool,
}

/// Keys per lock stripe in scan mode (`key >> SCAN_STRIPE_SHIFT`).
pub const SCAN_STRIPE_SHIFT: u32 = 4;
/// Adjacent keys sharing one stripe lock granule in scan mode.
pub const SCAN_STRIPES_PER: u64 = 1 << SCAN_STRIPE_SHIFT;
impl MicroEngine {
    pub fn new() -> Self {
        MicroEngine {
            kv: KvStore::new(),
            undo: FxHashMap::default(),
            undo_pool: Vec::new(),
            undo_births: 0,
            scan_mode: false,
        }
    }

    /// Turn on scan support: builds the ordered key index over the
    /// current contents and switches lock sets to stripe granularity.
    /// Engines that execute [`MicroOp::Scan`] must be loaded with this on.
    pub fn enable_scans(&mut self) {
        self.kv.enable_ordered_index();
        self.scan_mode = true;
    }

    pub fn scans_enabled(&self) -> bool {
        self.scan_mode
    }

    /// Order-sensitive fingerprint over the ordered index (scan mode
    /// only): proves the scannable *view* — not just the row set — of two
    /// stores is identical. See `KvStore::ordered_fingerprint`.
    pub fn ordered_fingerprint(&self) -> u64 {
        self.kv.ordered_fingerprint()
    }

    /// Rows in `[start, end)` in key order, as (key, value) pairs.
    pub fn scan_values(&self, start: MicroKey, end: MicroKey) -> Vec<(MicroKey, u32)> {
        self.kv
            .scan_range(&start.to_be_bytes(), &end.to_be_bytes())
            .map(|(k, v)| {
                let mut kb = [0u8; 8];
                kb.copy_from_slice(k);
                (
                    MicroKey::from_be_bytes(kb),
                    u32::from_le_bytes([v[0], v[1], v[2], v[3]]),
                )
            })
            .collect()
    }

    /// Index/table consistency (tests).
    pub fn check_ordered_invariants(&self) -> Result<(), String> {
        self.kv.check_ordered_invariants()
    }

    /// Preload every (client, partition-local key) with zero, as the
    /// paper's store starts populated.
    pub fn load(partition: PartitionId, clients: u32, keys_per_client: u32) -> Self {
        let mut e = Self::new();
        e.kv = KvStore::with_capacity((clients * keys_per_client) as usize);
        for c in 0..clients {
            for i in 0..keys_per_client {
                let k = make_key(c, partition.0, i);
                e.kv.put(key_bytes(k), value_bytes(0), None);
            }
        }
        e
    }

    /// Preload one key (used by loaders beyond the paper's per-client
    /// scheme, e.g. the YCSB-style shared key space).
    pub fn preload(&mut self, k: MicroKey, v: u32) {
        self.kv.put(key_bytes(k), value_bytes(v), None);
    }

    pub fn read_value(&self, k: MicroKey) -> Option<u32> {
        self.kv
            .get(&k.to_be_bytes())
            .map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    pub fn fingerprint(&self) -> u64 {
        self.kv.fingerprint()
    }

    pub fn live_undo_buffers(&self) -> usize {
        self.undo.len()
    }
}

impl Default for MicroEngine {
    fn default() -> Self {
        Self::new()
    }
}

fn value_bytes(v: u32) -> bytes::Bytes {
    bytes::Bytes::copy_from_slice(&v.to_le_bytes())
}

impl ExecutionEngine for MicroEngine {
    type Fragment = MicroFragment;
    type Output = MicroOutput;

    fn execute(
        &mut self,
        txn: TxnId,
        fragment: &MicroFragment,
        undo: bool,
    ) -> ExecOutcome<MicroOutput> {
        if fragment.fail {
            // "the abort happens at the beginning of execution" — cheap,
            // no effects.
            return ExecOutcome {
                result: Err(AbortReason::User),
                ops: 1,
            };
        }
        let mut out = MicroOutput::new();
        // Split borrow: we need &mut kv and &mut undo entry together.
        let kv = &mut self.kv;
        let pool = &mut self.undo_pool;
        let births = &mut self.undo_births;
        let mut ubuf = undo.then(|| {
            // Pooled buffer, pre-sized: recording never (re)allocates.
            let buf = self.undo.entry(txn).or_insert_with(|| {
                let mut b = pool.pop().unwrap_or_default();
                b.clear();
                *births += 1;
                b.birth = *births;
                b
            });
            buf.reserve(fragment.ops.len());
            buf
        });
        let mut ops = 0u32;
        for op in fragment.ops.iter() {
            match *op {
                MicroOp::Rmw(k) => {
                    // One table probe for the read and the write.
                    let mut cur = 0u32;
                    kv.update(&k.to_be_bytes(), ubuf.as_deref_mut(), |prior| {
                        cur = prior
                            .map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
                            .unwrap_or(0);
                        value_bytes(cur.wrapping_add(1))
                    });
                    out.push(cur);
                    ops += 2;
                }
                MicroOp::Read(k) => {
                    let cur = kv
                        .get(&k.to_be_bytes())
                        .map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
                        .unwrap_or(0);
                    out.push(cur);
                    ops += 1;
                }
                MicroOp::Write(k, v) => {
                    kv.update(&k.to_be_bytes(), ubuf.as_deref_mut(), |_| value_bytes(v));
                    ops += 1;
                }
                MicroOp::Scan(start, end) => {
                    // One unit per row actually read (at least one for the
                    // index probe) — fragment *length* is the whole point
                    // of the scan workloads (§5's blocking-vs-speculation
                    // axis), so the cost model must see it.
                    ops += 1;
                    for (_, v) in kv.scan_range(&start.to_be_bytes(), &end.to_be_bytes()) {
                        out.push(u32::from_le_bytes([v[0], v[1], v[2], v[3]]));
                        ops += 1;
                    }
                }
                MicroOp::Insert(k, v) => {
                    kv.put(key_bytes(k), value_bytes(v), ubuf.as_deref_mut());
                    ops += 1;
                }
                MicroOp::Delete(k) => {
                    kv.delete(&key_bytes(k), ubuf.as_deref_mut());
                    ops += 1;
                }
            }
        }
        ExecOutcome {
            result: Ok(out),
            ops,
        }
    }

    fn rollback(&mut self, txn: TxnId) -> u32 {
        match self.undo.remove(&txn) {
            Some(mut u) => {
                let n = u.len() as u32;
                self.kv.rollback_reuse(&mut u);
                self.undo_pool.push(u);
                n
            }
            None => 0,
        }
    }

    fn forget(&mut self, txn: TxnId) -> u32 {
        match self.undo.remove(&txn) {
            Some(mut u) => {
                let n = u.len() as u32;
                u.clear();
                self.undo_pool.push(u);
                n
            }
            None => 0,
        }
    }

    fn snapshot(&self) -> Self {
        // Committed state only: clone the store, then undo the live
        // (in-flight) transactions on the clone, youngest buffer first —
        // the schedulers' stacking discipline (speculation order, strict
        // 2PL) guarantees whole-buffer undo in reverse birth order
        // restores exactly the committed state.
        let mut kv = self.kv.clone();
        let mut live: Vec<&KvUndo> = self.undo.values().collect();
        live.sort_by_key(|u| std::cmp::Reverse(u.birth));
        for u in live {
            kv.rollback_copy(u);
        }
        MicroEngine {
            kv,
            undo: FxHashMap::default(),
            undo_pool: Vec::new(),
            undo_births: 0,
            scan_mode: self.scan_mode,
        }
    }

    fn lock_set(&self, fragment: &MicroFragment) -> Vec<(LockKey, LockMode)> {
        if self.scan_mode {
            // Stripe granularity: scans pre-declare shared locks covering
            // their whole `[start, end)` range, and every other op locks
            // its key's stripe — so inserts/deletes (membership changes)
            // conflict with any scan covering them. Coarser than per-key
            // (adjacent keys share a granule), which only *adds*
            // conflicts: conservative, as the engine contract permits.
            let stripe = |k: MicroKey| granule::stripe_key(k, SCAN_STRIPE_SHIFT);
            // Sized for the stripes named, not the ops: one scan op covers
            // several stripes, and growing the set op by op is a `realloc`
            // per locked transaction.
            let stripes = fragment.ops.iter().map(|op| match *op {
                MicroOp::Scan(start, end) => {
                    granule::stripe_range(start, end, SCAN_STRIPE_SHIFT).count()
                }
                _ => 1,
            });
            let mut locks = Vec::with_capacity(stripes.sum());
            for op in fragment.ops.iter() {
                match *op {
                    MicroOp::Read(k) => {
                        granule::merge_lock(&mut locks, stripe(k), LockMode::Shared)
                    }
                    MicroOp::Rmw(k)
                    | MicroOp::Write(k, _)
                    | MicroOp::Insert(k, _)
                    | MicroOp::Delete(k) => {
                        granule::merge_lock(&mut locks, stripe(k), LockMode::Exclusive)
                    }
                    MicroOp::Scan(start, end) => {
                        for lk in granule::stripe_range(start, end, SCAN_STRIPE_SHIFT) {
                            granule::merge_lock(&mut locks, lk, LockMode::Shared);
                        }
                    }
                }
            }
            return locks;
        }
        let mut locks = Vec::with_capacity(fragment.ops.len());
        for op in fragment.ops.iter() {
            let (k, mode) = match *op {
                MicroOp::Rmw(k)
                | MicroOp::Write(k, _)
                | MicroOp::Insert(k, _)
                | MicroOp::Delete(k) => (k, LockMode::Exclusive),
                MicroOp::Read(k) => (k, LockMode::Shared),
                MicroOp::Scan(..) => panic!(
                    "scan fragments require a scan-enabled engine \
                     (MicroEngine::enable_scans): per-key lock sets cannot \
                     cover deleted members"
                ),
            };
            granule::merge_lock(&mut locks, LockKey(k), mode);
        }
        locks
    }
}

/// A multi-partition transaction's result: every participant's values, in
/// participant order (the [`OneRound::finish`] rule of a simple
/// microbenchmark transaction).
pub fn concat_outputs(round: &RoundOutputs<MicroOutput>) -> MicroOutput {
    let mut all = MicroOutput::new();
    for (_, r) in &round.by_partition {
        all.extend(r.iter().copied());
    }
    all
}

/// The §5.4 "general" transaction: round 0 reads every key, round 1 writes
/// back value+1 — "the first round of each transaction performs the reads
/// and returns the results to the coordinator, which then issues the
/// writes as a second round."
#[derive(Debug, Clone)]
pub struct TwoRoundMicroProcedure {
    /// Round 0: per participant, a [`MicroOp::Read`] of each of its keys
    /// (with the §5.3 abort, if any, injected at one participant). Round 1
    /// writes the same keys.
    pub reads: Arc<[(PartitionId, MicroFragment)]>,
}

impl Procedure<MicroFragment, MicroOutput> for TwoRoundMicroProcedure {
    fn clone_box(&self) -> Box<dyn Procedure<MicroFragment, MicroOutput>> {
        Box::new(self.clone())
    }

    fn step(&self, prior: &[RoundOutputs<MicroOutput>]) -> Step<MicroFragment, MicroOutput> {
        match prior.len() {
            0 => Step::Round {
                fragments: self.reads.to_vec(),
                is_final: false,
            },
            1 => Step::Round {
                fragments: self
                    .reads
                    .iter()
                    .map(|(p, reads)| {
                        let read = prior[0].get(*p).expect("round-0 output");
                        let ops = reads.ops.iter().zip(read.iter()).map(|(op, &v)| match *op {
                            MicroOp::Read(k) => MicroOp::Write(k, v.wrapping_add(1)),
                            other => panic!("round 0 only reads, found {other:?}"),
                        });
                        (
                            *p,
                            MicroFragment {
                                ops: ops.collect(),
                                fail: false,
                            },
                        )
                    })
                    .collect(),
                is_final: true,
            },
            _ => Step::Finish(concat_outputs(&prior[0])),
        }
    }
}

/// Microbenchmark configuration (defaults reproduce Figure 4's setup).
#[derive(Debug, Clone, Copy)]
pub struct MicroConfig {
    pub partitions: u32,
    pub clients: u32,
    /// Keys accessed per transaction (12 in the paper).
    pub keys_per_txn: u32,
    /// Fraction of multi-partition transactions (the x-axis of Figs. 4–7).
    pub mp_fraction: f64,
    /// §5.2 conflict probability.
    pub conflict_prob: f64,
    /// §5.3 abort probability.
    pub abort_prob: f64,
    /// §5.4: use two-round general transactions for the MP share.
    pub two_round: bool,
    /// Partition-affinity groups for coordinator scale-out experiments:
    /// with G > 1, client `c` only ever touches partitions in contiguous
    /// group `c % G` (each group holds `partitions / G` partitions, which
    /// must be >= 2 when `mp_fraction > 0`). When the coordinator-shard
    /// count divides G, every shard's multi-partition traffic stays on a
    /// disjoint partition subset — the aligned-sharding deployment the
    /// STAR/DGCC line of work advocates, with zero cross-shard conflicts.
    /// G = 1 (default) reproduces the paper's unaligned workload.
    pub affinity_groups: u32,
    pub seed: u64,
}

impl Default for MicroConfig {
    fn default() -> Self {
        MicroConfig {
            partitions: 2,
            clients: 40,
            keys_per_txn: 12,
            mp_fraction: 0.0,
            conflict_prob: 0.0,
            abort_prob: 0.0,
            two_round: false,
            affinity_groups: 1,
            seed: 42,
        }
    }
}

/// Request generator for the microbenchmark.
pub struct MicroWorkload {
    cfg: MicroConfig,
    streams: PerClient<MicroStream>,
}

/// One client's generator state.
#[derive(Clone)]
struct MicroStream {
    rng: StdRng,
    /// Round-robin key rotation so successive transactions use different
    /// keys of the client's set (irrelevant to contention, keeps
    /// generation cheap and deterministic).
    counter: u32,
}

/// Keys provisioned per (client, partition).
pub const KEYS_PER_CLIENT: u32 = 24;

impl MicroWorkload {
    pub fn new(cfg: MicroConfig) -> Self {
        let groups = cfg.affinity_groups.max(1);
        assert!(
            cfg.partitions.is_multiple_of(groups),
            "affinity groups must evenly divide partitions"
        );
        assert!(
            cfg.mp_fraction == 0.0 || cfg.partitions / groups >= 2,
            "multi-partition transactions need >= 2 partitions per group"
        );
        let streams = PerClient::new(cfg.clients, |c| MicroStream {
            rng: StdRng::seed_from_u64(cfg.seed ^ ((c as u64) << 20)),
            counter: 0,
        });
        MicroWorkload { cfg, streams }
    }

    fn rng(&mut self, client: u32) -> &mut StdRng {
        &mut self.streams.get(client).rng
    }

    pub fn config(&self) -> &MicroConfig {
        &self.cfg
    }

    /// Build the preloaded engine for one partition.
    pub fn build_engine(&self, partition: PartitionId) -> MicroEngine {
        MicroEngine::load(partition, self.cfg.clients, KEYS_PER_CLIENT)
    }

    /// The §5.2 conflict key of a partition: key 0 of the client pinned to
    /// it (client id == partition id). Kept public for tests and
    /// diagnostics (conflict injection itself uses the whole pinned set).
    pub fn conflict_key(partition: u32) -> MicroKey {
        make_key(partition, partition, 0)
    }

    /// Whether this client is pinned (§5.2: "the first client only issues
    /// transactions to the first partition, and the second client only
    /// issues transactions to the second partition").
    fn pinned_partition(&self, client: u32) -> Option<u32> {
        (self.cfg.conflict_prob > 0.0 && client < self.cfg.partitions.min(2)).then_some(client)
    }

    /// The op list over `client`'s next `n` keys at `partition`, built in
    /// place in the one block the fragment will share. With `conflicts`,
    /// §5.2 injection replaces each key slot, with probability
    /// `conflict_prob`, by the same slot of the client pinned to
    /// `partition` — slot order is preserved, so all conflicted
    /// transactions acquire pinned keys in ascending index order and
    /// deadlock is impossible; at p = 1 a conflicted transaction writes
    /// exactly the pinned client's key set.
    fn ops_for(
        &mut self,
        client: u32,
        partition: u32,
        n: u32,
        conflicts: bool,
        op: impl Fn(MicroKey) -> MicroOp,
    ) -> Arc<[MicroOp]> {
        // Pinned clients always write their first keys in index order (the
        // paper: their keys are "nearly always being written"; fixed order
        // also makes deadlock impossible in the conflict workload, §5.2).
        if self.pinned_partition(client).is_some() {
            return (0..n).map(|i| op(make_key(client, partition, i))).collect();
        }
        let p = if conflicts {
            self.cfg.conflict_prob
        } else {
            0.0
        };
        let MicroStream { rng, counter } = self.streams.get(client);
        let start = *counter;
        *counter = (*counter + n) % KEYS_PER_CLIENT;
        (0..n)
            .map(|i| {
                op(if p > 0.0 && rng.gen_bool(p) {
                    make_key(partition, partition, i)
                } else {
                    make_key(client, partition, (start + i) % KEYS_PER_CLIENT)
                })
            })
            .collect()
    }

    /// The contiguous partition range client `c` is confined to (the whole
    /// range with `affinity_groups == 1`).
    fn group_range(&self, client: u32) -> (u32, u32) {
        let groups = self.cfg.affinity_groups.max(1);
        let span = self.cfg.partitions / groups;
        let g = client % groups;
        (g * span, span)
    }
}

impl RequestGenerator for MicroWorkload {
    type Engine = MicroEngine;

    fn next_request(&mut self, client: ClientId) -> Request<MicroFragment, MicroOutput> {
        let c = client.0;
        let cfg = self.cfg;
        let is_mp = self.rng(c).gen_bool(cfg.mp_fraction);
        let aborts = cfg.abort_prob > 0.0 && self.rng(c).gen_bool(cfg.abort_prob);

        if !is_mp {
            // Single partition: pinned clients stay home; others pick a
            // partition at random (within their affinity group).
            let partition = match self.pinned_partition(c) {
                Some(p) => p,
                None => {
                    let (base, span) = self.group_range(c);
                    base + self.rng(c).gen_range(0..span)
                }
            };
            return Request::SinglePartition {
                partition: PartitionId(partition),
                fragment: MicroFragment {
                    ops: self.ops_for(c, partition, cfg.keys_per_txn, true, MicroOp::Rmw),
                    fail: aborts,
                },
                can_abort: aborts,
            };
        }

        // Multi-partition: split the keys across two partitions (the
        // paper's microbenchmark always uses both of its two partitions;
        // with more partitions we pick two distinct ones).
        let (base, span) = self.group_range(c);
        let (p0, p1) = if span == 2 {
            (base, base + 1)
        } else {
            let a = self.rng(c).gen_range(0..span);
            let mut b = self.rng(c).gen_range(0..span - 1);
            if b >= a {
                b += 1;
            }
            (base + a, base + b)
        };
        let half = cfg.keys_per_txn / 2;
        // "each transaction only conflicts at one of the partitions" —
        // pick which side at random, keeping load symmetric.
        let conflict_side = (cfg.conflict_prob > 0.0 && self.pinned_partition(c).is_none())
            .then(|| self.rng(c).gen_bool(0.5));
        let op = move |k| {
            if cfg.two_round {
                MicroOp::Read(k)
            } else {
                MicroOp::Rmw(k)
            }
        };
        let ops0 = self.ops_for(c, p0, half, conflict_side == Some(true), op);
        let ops1 = self.ops_for(c, p1, half, conflict_side == Some(false), op);
        // §5.3: "When a multi-partition transaction is selected, only one
        // partition will abort locally."
        let fail_at = aborts.then(|| if self.rng(c).gen_bool(0.5) { p0 } else { p1 });
        let fragments = Arc::from([(p0, ops0), (p1, ops1)].map(|(p, ops)| {
            (
                PartitionId(p),
                MicroFragment {
                    ops,
                    fail: fail_at == Some(p),
                },
            )
        }));
        let procedure: Box<dyn Procedure<MicroFragment, MicroOutput>> = if cfg.two_round {
            Box::new(TwoRoundMicroProcedure { reads: fragments })
        } else {
            Box::new(OneRound {
                fragments,
                finish: concat_outputs,
            })
        };
        Request::MultiPartition {
            procedure,
            can_abort: aborts,
        }
    }

    fn for_client(&mut self, client: ClientId) -> Option<Self> {
        Some(MicroWorkload {
            cfg: self.cfg,
            streams: self.streams.share(client.0),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine() -> MicroEngine {
        MicroEngine::load(PartitionId(0), 2, 4)
    }

    fn txid(n: u32) -> TxnId {
        TxnId::new(ClientId(0), n)
    }

    #[test]
    fn rmw_increments_and_reports_old_value() {
        let mut e = engine();
        let k = make_key(0, 0, 0);
        let frag = MicroFragment {
            ops: vec![MicroOp::Rmw(k), MicroOp::Rmw(k)].into(),
            fail: false,
        };
        let out = e.execute(txid(1), &frag, false);
        assert_eq!(out.result.unwrap(), vec![0, 1]);
        assert_eq!(e.read_value(k), Some(2));
        assert_eq!(out.ops, 4, "two RMWs = four work units");
    }

    #[test]
    fn rollback_restores_store() {
        let mut e = engine();
        let k = make_key(1, 0, 2);
        let before = e.fingerprint();
        e.execute(
            txid(1),
            &MicroFragment {
                ops: vec![MicroOp::Rmw(k), MicroOp::Write(k, 99)].into(),
                fail: false,
            },
            true,
        );
        assert_eq!(e.read_value(k), Some(99));
        assert_eq!(e.rollback(txid(1)), 2);
        assert_eq!(e.fingerprint(), before);
        assert_eq!(e.live_undo_buffers(), 0);
    }

    #[test]
    fn failed_fragment_costs_one_op_and_leaves_no_state() {
        let mut e = engine();
        let before = e.fingerprint();
        let out = e.execute(
            txid(1),
            &MicroFragment {
                ops: vec![].into(),
                fail: true,
            },
            true,
        );
        assert_eq!(out.result.unwrap_err(), AbortReason::User);
        assert_eq!(out.ops, 1);
        assert_eq!(e.fingerprint(), before);
    }

    #[test]
    fn lock_set_modes() {
        let e = engine();
        let frag = MicroFragment {
            ops: vec![
                MicroOp::Read(1),
                MicroOp::Rmw(2),
                MicroOp::Read(2), // subsumed by the RMW's X lock
                MicroOp::Write(3, 0),
            ]
            .into(),
            fail: false,
        };
        let locks = e.lock_set(&frag);
        assert_eq!(locks.len(), 3);
        assert!(locks.contains(&(LockKey(1), LockMode::Shared)));
        assert!(locks.contains(&(LockKey(2), LockMode::Exclusive)));
        assert!(locks.contains(&(LockKey(3), LockMode::Exclusive)));
    }

    #[test]
    fn scan_reads_range_in_key_order_and_charges_rows() {
        let mut e = MicroEngine::new();
        for (i, v) in [(0u32, 10u32), (2, 12), (5, 15), (9, 19)] {
            e.preload(i as MicroKey, v);
        }
        e.enable_scans();
        let out = e.execute(
            txid(1),
            &MicroFragment {
                ops: vec![MicroOp::Scan(1, 9)].into(),
                fail: false,
            },
            false,
        );
        assert_eq!(out.result.unwrap(), vec![12, 15]);
        assert_eq!(out.ops, 3, "one probe unit + two rows");
    }

    #[test]
    fn insert_delete_roll_back_through_the_ordered_view() {
        let mut e = MicroEngine::new();
        e.preload(4, 40);
        e.enable_scans();
        let fp = e.fingerprint();
        let ofp = e.ordered_fingerprint();
        e.execute(
            txid(1),
            &MicroFragment {
                ops: vec![
                    MicroOp::Insert(2, 22),
                    MicroOp::Delete(4),
                    MicroOp::Insert(6, 66),
                ]
                .into(),
                fail: false,
            },
            true,
        );
        assert_eq!(e.scan_values(0, 16), vec![(2, 22), (6, 66)]);
        assert_eq!(e.rollback(txid(1)), 3);
        assert_eq!(e.fingerprint(), fp);
        assert_eq!(e.ordered_fingerprint(), ofp);
        assert_eq!(e.scan_values(0, 16), vec![(4, 40)]);
        e.check_ordered_invariants().unwrap();
    }

    #[test]
    fn snapshot_carries_the_ordered_index_and_drops_live_txns() {
        let mut e = MicroEngine::new();
        e.preload(1, 11);
        e.preload(8, 88);
        e.enable_scans();
        let committed_ofp = e.ordered_fingerprint();
        // Two stacked in-flight transactions (speculation-style).
        e.execute(
            txid(1),
            &MicroFragment {
                ops: vec![MicroOp::Insert(3, 33), MicroOp::Delete(8)].into(),
                fail: false,
            },
            true,
        );
        e.execute(
            txid(2),
            &MicroFragment {
                ops: vec![MicroOp::Rmw(3), MicroOp::Insert(5, 55)].into(),
                fail: false,
            },
            true,
        );
        let snap = e.snapshot();
        assert!(snap.scans_enabled());
        assert_eq!(snap.ordered_fingerprint(), committed_ofp);
        assert_eq!(snap.scan_values(0, 16), vec![(1, 11), (8, 88)]);
        snap.check_ordered_invariants().unwrap();
        // The live engine still has the uncommitted view.
        assert_eq!(e.scan_values(0, 16).len(), 3);
    }

    #[test]
    fn scan_mode_lock_set_covers_ranges_with_stripes() {
        let mut e = MicroEngine::new();
        e.enable_scans();
        // Stripe shift 4: scan [3, 40) covers stripes 0..=2.
        let locks = e.lock_set(&MicroFragment {
            ops: vec![MicroOp::Scan(3, 40)].into(),
            fail: false,
        });
        assert_eq!(locks.len(), 3);
        assert!(locks.iter().all(|(_, m)| *m == LockMode::Shared));
        // An insert at key 17 (stripe 1) conflicts with the scan.
        let ins = e.lock_set(&MicroFragment {
            ops: vec![MicroOp::Insert(17, 0)].into(),
            fail: false,
        });
        assert_eq!(ins.len(), 1);
        assert_eq!(ins[0].1, LockMode::Exclusive);
        assert!(locks.iter().any(|(k, _)| *k == ins[0].0));
        // An insert far outside does not.
        let far = e.lock_set(&MicroFragment {
            ops: vec![MicroOp::Insert(1000, 0)].into(),
            fail: false,
        });
        assert!(locks.iter().all(|(k, _)| *k != far[0].0));
    }

    #[test]
    #[should_panic(expected = "scan-enabled engine")]
    fn point_mode_rejects_scan_lock_sets() {
        let e = MicroEngine::new();
        e.lock_set(&MicroFragment {
            ops: vec![MicroOp::Scan(0, 4)].into(),
            fail: false,
        });
    }

    /// Commit records, replica shipping and recovery all carry fragments
    /// in this encoding; how a fragment *holds* its ops must never show in
    /// it. The bytes below are what the `Vec`-backed fragment produced.
    #[test]
    fn log_encoding_is_pinned_byte_for_byte() {
        use hcc_common::codec::{decode_exact, encode_to_vec};
        let golden: [(MicroOp, &[u8]); 6] = [
            (
                MicroOp::Rmw(0x0102_0304_0506_0708),
                &[0, 8, 7, 6, 5, 4, 3, 2, 1],
            ),
            (MicroOp::Read(1), &[1, 1, 0, 0, 0, 0, 0, 0, 0]),
            (
                MicroOp::Write(2, 0xAABB_CCDD),
                &[2, 2, 0, 0, 0, 0, 0, 0, 0, 0xDD, 0xCC, 0xBB, 0xAA],
            ),
            (
                MicroOp::Scan(3, 1 << 32),
                &[3, 3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0],
            ),
            (
                MicroOp::Insert(4, 5),
                &[4, 4, 0, 0, 0, 0, 0, 0, 0, 5, 0, 0, 0],
            ),
            (MicroOp::Delete(6), &[5, 6, 0, 0, 0, 0, 0, 0, 0]),
        ];
        for (op, bytes) in golden {
            assert_eq!(encode_to_vec(&op), bytes, "{op:?}");
            assert_eq!(decode_exact::<MicroOp>(bytes), Some(op));
        }

        let frag = MicroFragment {
            ops: golden.map(|(op, _)| op).into(),
            fail: true,
        };
        // u32 op count, the ops back to back, the fail flag.
        let mut expected = vec![6, 0, 0, 0];
        for (_, bytes) in golden {
            expected.extend_from_slice(bytes);
        }
        expected.push(1);
        assert_eq!(encode_to_vec(&frag), expected);
        let back: MicroFragment = decode_exact(&expected).expect("decodes");
        assert_eq!(&*back.ops, &*frag.ops);
        assert!(back.fail);

        let empty = MicroFragment::default();
        assert_eq!(encode_to_vec(&empty), [0, 0, 0, 0, 0]);
    }

    #[test]
    fn generator_respects_mp_fraction() {
        for (frac, lo, hi) in [(0.0, 0, 0), (1.0, 1000, 1000), (0.3, 200, 400)] {
            let mut w = MicroWorkload::new(MicroConfig {
                mp_fraction: frac,
                ..Default::default()
            });
            let mut mp = 0;
            for _ in 0..1000 {
                if matches!(w.next_request(ClientId(5)), Request::MultiPartition { .. }) {
                    mp += 1;
                }
            }
            assert!((lo..=hi).contains(&mp), "frac {frac}: got {mp}");
        }
    }

    #[test]
    fn sp_requests_access_distinct_client_keys() {
        let mut w = MicroWorkload::new(MicroConfig::default());
        let req = w.next_request(ClientId(3));
        match req {
            Request::SinglePartition { fragment, .. } => {
                assert_eq!(fragment.ops.len(), 12);
                for op in fragment.ops.iter() {
                    match op {
                        MicroOp::Rmw(k) => assert_eq!(k >> 24, 3, "client 3's own keys"),
                        _ => panic!("SP ops are RMW"),
                    }
                }
            }
            _ => panic!("default config is 0% MP"),
        }
    }

    #[test]
    fn mp_requests_split_keys_evenly() {
        let mut w = MicroWorkload::new(MicroConfig {
            mp_fraction: 1.0,
            ..Default::default()
        });
        match w.next_request(ClientId(3)) {
            Request::MultiPartition { procedure, .. } => {
                let parts = procedure.participants();
                assert_eq!(parts.len(), 2);
                match procedure.step(&[]) {
                    Step::Round {
                        fragments,
                        is_final,
                    } => {
                        assert!(is_final);
                        for (_, f) in fragments {
                            assert_eq!(f.ops.len(), 6);
                        }
                    }
                    _ => panic!(),
                }
            }
            _ => panic!("must be MP"),
        }
    }

    #[test]
    fn conflict_mode_pins_first_clients() {
        let mut w = MicroWorkload::new(MicroConfig {
            conflict_prob: 1.0,
            ..Default::default()
        });
        for _ in 0..20 {
            match w.next_request(ClientId(0)) {
                Request::SinglePartition { partition, .. } => {
                    assert_eq!(partition, PartitionId(0), "client 0 pinned to P0");
                }
                _ => panic!(),
            }
            match w.next_request(ClientId(1)) {
                Request::SinglePartition { partition, .. } => {
                    assert_eq!(partition, PartitionId(1));
                }
                _ => panic!(),
            }
        }
    }

    #[test]
    fn conflict_mode_makes_other_clients_hit_conflict_keys() {
        let mut w = MicroWorkload::new(MicroConfig {
            conflict_prob: 1.0,
            ..Default::default()
        });
        for _ in 0..20 {
            match w.next_request(ClientId(7)) {
                Request::SinglePartition {
                    partition,
                    fragment,
                    ..
                } => {
                    let conflict = MicroWorkload::conflict_key(partition.0);
                    assert!(
                        fragment.ops.contains(&MicroOp::Rmw(conflict)),
                        "conflict key accessed at p=1.0"
                    );
                }
                _ => panic!(),
            }
        }
    }

    #[test]
    fn abort_mode_marks_exactly_one_mp_fragment() {
        let mut w = MicroWorkload::new(MicroConfig {
            mp_fraction: 1.0,
            abort_prob: 1.0,
            ..Default::default()
        });
        match w.next_request(ClientId(2)) {
            Request::MultiPartition {
                procedure,
                can_abort,
            } => {
                assert!(can_abort);
                match procedure.step(&[]) {
                    Step::Round { fragments, .. } => {
                        let failing = fragments.iter().filter(|(_, f)| f.fail).count();
                        assert_eq!(failing, 1, "only one participant aborts locally");
                    }
                    _ => panic!(),
                }
            }
            _ => panic!(),
        }
    }

    #[test]
    fn two_round_procedure_reads_then_writes() {
        let mut w = MicroWorkload::new(MicroConfig {
            mp_fraction: 1.0,
            two_round: true,
            ..Default::default()
        });
        match w.next_request(ClientId(2)) {
            Request::MultiPartition { procedure, .. } => {
                let Step::Round {
                    fragments,
                    is_final,
                } = procedure.step(&[])
                else {
                    panic!()
                };
                assert!(!is_final, "round 0 is not final (two rounds)");
                assert!(fragments
                    .iter()
                    .all(|(_, f)| f.ops.iter().all(|o| matches!(o, MicroOp::Read(_)))));
                // Feed fake outputs; round 1 must write value+1.
                let outs = RoundOutputs {
                    by_partition: fragments
                        .iter()
                        .map(|(p, f)| (*p, MicroOutput::from(vec![7u32; f.ops.len()])))
                        .collect(),
                };
                let Step::Round {
                    fragments,
                    is_final,
                } = procedure.step(&[outs])
                else {
                    panic!()
                };
                assert!(is_final);
                assert!(fragments
                    .iter()
                    .all(|(_, f)| f.ops.iter().all(|o| matches!(o, MicroOp::Write(_, 8)))));
            }
            _ => panic!(),
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let mut a = MicroWorkload::new(MicroConfig {
            mp_fraction: 0.5,
            ..Default::default()
        });
        let mut b = MicroWorkload::new(MicroConfig {
            mp_fraction: 0.5,
            ..Default::default()
        });
        for _ in 0..50 {
            let ra = format!("{:?}", a.next_request(ClientId(4)));
            let rb = format!("{:?}", b.next_request(ClientId(4)));
            assert_eq!(ra, rb);
        }
    }

    #[test]
    fn engine_preload_covers_all_clients() {
        let w = MicroWorkload::new(MicroConfig::default());
        let e = w.build_engine(PartitionId(1));
        for c in 0..40 {
            assert_eq!(e.read_value(make_key(c, 1, 0)), Some(0));
            assert_eq!(e.read_value(make_key(c, 1, KEYS_PER_CLIENT - 1)), Some(0));
        }
    }
}
