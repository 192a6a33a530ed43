//! A YCSB-style read-mostly workload with Zipfian key popularity
//! (ROADMAP "workload diversity").
//!
//! Where the paper's §5 microbenchmark gives every client its own key set
//! (no data contention unless injected), YCSB models a *shared* key space
//! with skewed popularity: every partition holds `keys_per_partition`
//! records, and each access draws a key rank from the deterministic
//! [`Zipfian`] sampler (`theta = 0.99` is YCSB's default skew; 0 is
//! uniform). Transactions are short — `ops_per_txn` operations, each a
//! read with probability `read_fraction` and a read-modify-write
//! otherwise (a read-mostly mix like YCSB-B at 95/5).
//!
//! Two properties are deliberately preserved from the microbenchmark:
//!
//! * **Determinism** — request streams come from per-client
//!   [`SplitMix64`] streams, so a run is a pure function of the seed.
//! * **Commutativity** — updates are blind increments (RMW), so the final
//!   committed store is independent of commit order and the cross-backend
//!   equivalence and replication-determinism fingerprint tests extend to
//!   this workload unchanged.
//!
//! The engine is the same [`MicroEngine`] KV store; only the key layout
//! and request distribution differ.

use crate::micro::{concat_outputs, MicroEngine, MicroFragment, MicroOp, MicroOutput};
use crate::per_client::PerClient;
use hcc_common::rng::{SplitMix64, Zipfian};
use hcc_common::{ClientId, PartitionId};
use hcc_core::{OneRound, Request, RequestGenerator};
use std::sync::Arc;

/// A YCSB key: partition in the high half, record index in the low half —
/// disjoint from the microbenchmark's (client, partition, index) packing.
pub fn ycsb_key(partition: u32, index: u64) -> u64 {
    (1 << 63) | ((partition as u64) << 32) | index
}

/// Configuration (defaults: YCSB-B-like 95/5 read/update at theta 0.99).
#[derive(Debug, Clone, Copy)]
pub struct YcsbConfig {
    pub partitions: u32,
    pub clients: u32,
    /// Records per partition.
    pub keys_per_partition: u64,
    /// Zipfian skew in `[0, 1)`: 0 ≈ uniform, 0.99 = YCSB default.
    pub theta: f64,
    /// Probability that one operation is a pure read (the rest are RMWs).
    pub read_fraction: f64,
    /// Operations per transaction.
    pub ops_per_txn: u32,
    /// Fraction of transactions spanning two partitions.
    pub mp_fraction: f64,
    pub seed: u64,
}

impl Default for YcsbConfig {
    fn default() -> Self {
        YcsbConfig {
            partitions: 2,
            clients: 40,
            keys_per_partition: 16 * 1024,
            theta: 0.99,
            read_fraction: 0.95,
            ops_per_txn: 12,
            mp_fraction: 0.0,
            seed: 0x5EED,
        }
    }
}

/// Request generator for the YCSB-style workload.
pub struct YcsbWorkload {
    cfg: YcsbConfig,
    zipf: Zipfian,
    rngs: PerClient<SplitMix64>,
}

impl YcsbWorkload {
    pub fn new(cfg: YcsbConfig) -> Self {
        assert!(cfg.partitions >= 1 && cfg.clients >= 1);
        assert!(cfg.ops_per_txn >= 1);
        let rngs = PerClient::new(cfg.clients, |c| {
            SplitMix64::new(cfg.seed ^ ((c as u64 + 1) << 24))
        });
        YcsbWorkload {
            zipf: Zipfian::new(cfg.keys_per_partition, cfg.theta),
            rngs,
            cfg,
        }
    }

    pub fn config(&self) -> &YcsbConfig {
        &self.cfg
    }

    /// Build one partition's preloaded engine (every record starts at 0).
    pub fn build_engine(&self, partition: PartitionId) -> MicroEngine {
        let mut e = MicroEngine::new();
        for i in 0..self.cfg.keys_per_partition {
            e.preload(ycsb_key(partition.0, i), 0);
        }
        e
    }

    /// One partition's share of a transaction: `n` Zipf-popular keys,
    /// read-mostly.
    fn fragment(&mut self, client: u32, partition: u32, n: u32) -> MicroFragment {
        let rng = self.rngs.get(client);
        let ops = (0..n).map(|_| {
            let rank = self.zipf.sample(rng);
            let key = ycsb_key(partition, rank);
            if rng.next_f64() < self.cfg.read_fraction {
                MicroOp::Read(key)
            } else {
                MicroOp::Rmw(key)
            }
        });
        MicroFragment {
            ops: ops.collect(),
            fail: false,
        }
    }
}

impl RequestGenerator for YcsbWorkload {
    type Engine = MicroEngine;

    fn next_request(&mut self, client: ClientId) -> Request<MicroFragment, MicroOutput> {
        let c = client.0;
        let cfg = self.cfg;
        let rng = self.rngs.get(c);
        let is_mp = cfg.partitions >= 2 && rng.next_f64() < cfg.mp_fraction;
        if !is_mp {
            let p = rng.range_inclusive(0, cfg.partitions as u64 - 1) as u32;
            return Request::SinglePartition {
                partition: PartitionId(p),
                fragment: self.fragment(c, p, cfg.ops_per_txn),
                can_abort: false,
            };
        }
        // Two distinct partitions, half the ops each.
        let p0 = rng.range_inclusive(0, cfg.partitions as u64 - 1) as u32;
        let mut p1 = rng.range_inclusive(0, cfg.partitions as u64 - 2) as u32;
        if p1 >= p0 {
            p1 += 1;
        }
        let half = (cfg.ops_per_txn / 2).max(1);
        let fragments = Arc::from([
            (PartitionId(p0), self.fragment(c, p0, half)),
            (PartitionId(p1), self.fragment(c, p1, half)),
        ]);
        Request::MultiPartition {
            procedure: Box::new(OneRound {
                fragments,
                finish: concat_outputs,
            }),
            can_abort: false,
        }
    }

    fn for_client(&mut self, client: ClientId) -> Option<Self> {
        Some(YcsbWorkload {
            cfg: self.cfg,
            zipf: self.zipf.clone(),
            rngs: self.rngs.share(client.0),
        })
    }
}

// ---------------------------------------------------------------------
// YCSB-E: the scan-heavy mix
// ---------------------------------------------------------------------

/// Configuration for the YCSB-E style scan-heavy workload.
///
/// YCSB workload E is "short ranges": 95% range scans / 5% inserts over a
/// Zipfian-popular key space. This is the ROADMAP's missing *scan-heavy
/// fragment* axis: fragment length is what separates blocking from
/// speculation in the paper's §5 trade-off (long fragments hold the
/// partition hostage under blocking and make mis-speculation expensive),
/// and `scan_len` dials fragment length directly.
///
/// Layout: each partition's key space is `2 * keys_per_partition` *slots*.
/// Even slots are preloaded (the stable rows scans mostly read); odd
/// slots are insert/delete churn, statically owned by one client each
/// (slot `2j+1` belongs to client `j % clients`), so membership changes
/// are per-client sequential and the final state is independent of
/// interleaving — the property the cross-backend and failover
/// bit-determinism tests rely on, exactly as YCSB-B's blind increments.
#[derive(Debug, Clone, Copy)]
pub struct YcsbEConfig {
    pub partitions: u32,
    pub clients: u32,
    /// Preloaded rows per partition (even slots).
    pub keys_per_partition: u64,
    /// Zipfian skew of scan start positions and point updates.
    pub theta: f64,
    /// Fraction of transactions that are range scans (YCSB-E: 0.95).
    pub scan_fraction: f64,
    /// Fraction that insert a new row (YCSB-E: 0.05).
    pub insert_fraction: f64,
    /// Fraction that delete a previously inserted row (beyond YCSB-E;
    /// exercises the delete-phantom machinery under contention).
    pub delete_fraction: f64,
    /// Maximum scan length in *slots* (uniform 1..=scan_len per scan;
    /// ~half the covered slots hold rows). This is the fragment-length
    /// knob the PR 5 bench sweeps.
    pub scan_len: u32,
    /// Fraction of scans that split across two partitions (stock-level
    /// style multi-partition scans).
    pub mp_fraction: f64,
    pub seed: u64,
}

impl Default for YcsbEConfig {
    fn default() -> Self {
        YcsbEConfig {
            partitions: 2,
            clients: 40,
            keys_per_partition: 8 * 1024,
            theta: 0.99,
            scan_fraction: 0.95,
            insert_fraction: 0.05,
            delete_fraction: 0.0,
            scan_len: 16,
            mp_fraction: 0.0,
            seed: 0x5CAB,
        }
    }
}

/// Request generator for the YCSB-E scan-heavy workload.
pub struct YcsbEWorkload {
    cfg: YcsbEConfig,
    zipf: Zipfian,
    streams: PerClient<YcsbEStream>,
}

/// One client's YCSB-E generator state.
#[derive(Clone)]
struct YcsbEStream {
    rng: SplitMix64,
    /// Insert/delete cursors over the client's owned odd slots (deletes
    /// trail inserts; a delete of a not-yet-inserted slot is a no-op,
    /// which is fine and still deterministic).
    ins_cursor: u64,
    del_cursor: u64,
}

impl YcsbEWorkload {
    pub fn new(cfg: YcsbEConfig) -> Self {
        assert!(cfg.partitions >= 1 && cfg.clients >= 1);
        assert!(cfg.scan_len >= 1);
        assert!(cfg.scan_fraction + cfg.insert_fraction + cfg.delete_fraction <= 1.0 + 1e-9);
        assert!(
            cfg.mp_fraction == 0.0 || cfg.partitions >= 2,
            "multi-partition scans need two partitions"
        );
        assert!(
            cfg.clients as u64 <= cfg.keys_per_partition,
            "churn-slot ownership needs at least one odd slot per client \
             (clients <= keys_per_partition); shared churn keys would break \
             the commutativity the bit-determinism tests rely on"
        );
        let streams = PerClient::new(cfg.clients, |c| YcsbEStream {
            rng: SplitMix64::new(cfg.seed ^ 0xE5CA ^ ((c as u64 + 1) << 22)),
            ins_cursor: 0,
            del_cursor: 0,
        });
        YcsbEWorkload {
            zipf: Zipfian::new(2 * cfg.keys_per_partition, cfg.theta),
            streams,
            cfg,
        }
    }

    fn rng(&mut self, client: u32) -> &mut SplitMix64 {
        &mut self.streams.get(client).rng
    }

    pub fn config(&self) -> &YcsbEConfig {
        &self.cfg
    }

    /// Total slots per partition (even = preloaded, odd = churn).
    fn slots(&self) -> u64 {
        2 * self.cfg.keys_per_partition
    }

    /// Build one partition's engine: even slots preloaded, ordered index
    /// + stripe locks on (scan mode).
    pub fn build_engine(&self, partition: PartitionId) -> MicroEngine {
        let mut e = MicroEngine::new();
        for i in 0..self.cfg.keys_per_partition {
            let slot = 2 * i;
            e.preload(ycsb_key(partition.0, slot), slot as u32);
        }
        e.enable_scans();
        e
    }

    /// The `n`-th odd slot owned by `client` (round-robin ownership).
    fn owned_slot(&self, client: u32, n: u64) -> u64 {
        let pool = (self.cfg.keys_per_partition / self.cfg.clients as u64).max(1);
        let j = client as u64 + (n % pool) * self.cfg.clients as u64;
        (2 * j + 1) % self.slots()
    }

    fn scan_fragment(&mut self, client: u32, partition: u32, len: u64) -> MicroFragment {
        let start = self.zipf.sample(&mut self.streams.get(client).rng);
        let end = (start + len).min(self.slots());
        MicroFragment {
            ops: Arc::from([MicroOp::Scan(
                ycsb_key(partition, start),
                ycsb_key(partition, end.max(start + 1)),
            )]),
            fail: false,
        }
    }

    fn pick_partition(&mut self, client: u32) -> u32 {
        let partitions = self.cfg.partitions as u64;
        self.rng(client).range_inclusive(0, partitions - 1) as u32
    }
}

impl RequestGenerator for YcsbEWorkload {
    type Engine = MicroEngine;

    fn next_request(&mut self, client: ClientId) -> Request<MicroFragment, MicroOutput> {
        let c = client.0;
        let cfg = self.cfg;
        let roll = self.rng(c).next_f64();

        if roll < cfg.scan_fraction {
            let len = self.rng(c).range_inclusive(1, cfg.scan_len as u64);
            let is_mp = cfg.partitions >= 2 && self.rng(c).next_f64() < cfg.mp_fraction;
            if !is_mp {
                let p = self.pick_partition(c);
                return Request::SinglePartition {
                    partition: PartitionId(p),
                    fragment: self.scan_fragment(c, p, len),
                    can_abort: false,
                };
            }
            // Stock-level style: half the scan on each of two partitions.
            let p0 = self.pick_partition(c);
            let mut p1 = self.rng(c).range_inclusive(0, cfg.partitions as u64 - 2) as u32;
            if p1 >= p0 {
                p1 += 1;
            }
            let half = (len / 2).max(1);
            let f0 = self.scan_fragment(c, p0, half);
            let f1 = self.scan_fragment(c, p1, half);
            return Request::MultiPartition {
                procedure: Box::new(OneRound {
                    fragments: Arc::from([(PartitionId(p0), f0), (PartitionId(p1), f1)]),
                    finish: concat_outputs,
                }),
                can_abort: false,
            };
        }

        // Insert/delete partition is a pure function of (client, cursor)
        // so the n-th delete lands on the same partition — hence the same
        // key — as the n-th insert, and churned keys stay client-unique.
        let churn_partition = |c: u32, n: u64| {
            ((c as u64).wrapping_add(n.wrapping_mul(7)) % cfg.partitions as u64) as u32
        };
        let (p, op) = if roll < cfg.scan_fraction + cfg.insert_fraction {
            let s = self.streams.get(c);
            let n = s.ins_cursor;
            s.ins_cursor += 1;
            let slot = self.owned_slot(c, n);
            let p = churn_partition(c, n);
            (p, MicroOp::Insert(ycsb_key(p, slot), slot as u32))
        } else if roll < cfg.scan_fraction + cfg.insert_fraction + cfg.delete_fraction {
            let s = self.streams.get(c);
            let n = s.del_cursor;
            s.del_cursor += 1;
            let p = churn_partition(c, n);
            (p, MicroOp::Delete(ycsb_key(p, self.owned_slot(c, n))))
        } else {
            // Point update on a Zipf-popular preloaded (even) slot.
            let p = self.pick_partition(c);
            let rank = self.zipf.sample(&mut self.streams.get(c).rng);
            (p, MicroOp::Rmw(ycsb_key(p, rank & !1)))
        };
        Request::SinglePartition {
            partition: PartitionId(p),
            fragment: MicroFragment {
                ops: Arc::from([op]),
                fail: false,
            },
            can_abort: false,
        }
    }

    fn for_client(&mut self, client: ClientId) -> Option<Self> {
        Some(YcsbEWorkload {
            cfg: self.cfg,
            zipf: self.zipf.clone(),
            streams: self.streams.share(client.0),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_are_deterministic_per_seed() {
        let mut a = YcsbWorkload::new(YcsbConfig::default());
        let mut b = YcsbWorkload::new(YcsbConfig::default());
        for _ in 0..100 {
            let ra = format!("{:?}", a.next_request(ClientId(3)));
            let rb = format!("{:?}", b.next_request(ClientId(3)));
            assert_eq!(ra, rb);
        }
    }

    #[test]
    fn read_fraction_is_respected() {
        let mut w = YcsbWorkload::new(YcsbConfig {
            read_fraction: 0.95,
            ..Default::default()
        });
        let (mut reads, mut rmws) = (0u32, 0u32);
        for _ in 0..500 {
            match w.next_request(ClientId(0)) {
                Request::SinglePartition { fragment, .. } => {
                    for op in fragment.ops.iter() {
                        match op {
                            MicroOp::Read(_) => reads += 1,
                            MicroOp::Rmw(_) => rmws += 1,
                            _ => panic!("unexpected op"),
                        }
                    }
                }
                _ => panic!("mp_fraction 0"),
            }
        }
        let frac = reads as f64 / (reads + rmws) as f64;
        assert!((frac - 0.95).abs() < 0.02, "read fraction {frac}");
    }

    #[test]
    fn skew_concentrates_on_hot_keys() {
        let mut w = YcsbWorkload::new(YcsbConfig {
            theta: 0.99,
            keys_per_partition: 10_000,
            ..Default::default()
        });
        let mut hot = 0u64;
        let mut total = 0u64;
        for _ in 0..2_000 {
            if let Request::SinglePartition { fragment, .. } = w.next_request(ClientId(1)) {
                for op in fragment.ops.iter() {
                    let k = match op {
                        MicroOp::Read(k) | MicroOp::Rmw(k) => *k,
                        _ => unreachable!(),
                    };
                    if (k & 0xFFFF_FFFF) < 100 {
                        hot += 1;
                    }
                    total += 1;
                }
            }
        }
        let share = hot as f64 / total as f64;
        assert!(share > 0.5, "hottest 1% drew only {share} of accesses");
    }

    #[test]
    fn mp_requests_span_two_distinct_partitions() {
        let mut w = YcsbWorkload::new(YcsbConfig {
            mp_fraction: 1.0,
            partitions: 4,
            ..Default::default()
        });
        for _ in 0..50 {
            match w.next_request(ClientId(2)) {
                Request::MultiPartition { procedure, .. } => {
                    let parts = procedure.participants();
                    assert_eq!(parts.len(), 2);
                    assert_ne!(parts[0], parts[1]);
                }
                _ => panic!("must be MP"),
            }
        }
    }

    #[test]
    fn engine_is_preloaded() {
        let w = YcsbWorkload::new(YcsbConfig {
            keys_per_partition: 64,
            ..Default::default()
        });
        let e = w.build_engine(PartitionId(1));
        assert_eq!(e.read_value(ycsb_key(1, 0)), Some(0));
        assert_eq!(e.read_value(ycsb_key(1, 63)), Some(0));
        assert_eq!(e.read_value(ycsb_key(1, 64)), None);
    }

    fn e_cfg() -> YcsbEConfig {
        YcsbEConfig {
            clients: 8,
            keys_per_partition: 256,
            scan_fraction: 0.6,
            insert_fraction: 0.2,
            delete_fraction: 0.1,
            scan_len: 8,
            mp_fraction: 0.25,
            ..Default::default()
        }
    }

    #[test]
    fn ycsb_e_requests_are_deterministic_per_seed() {
        let mut a = YcsbEWorkload::new(e_cfg());
        let mut b = YcsbEWorkload::new(e_cfg());
        for _ in 0..200 {
            for c in 0..8 {
                let ra = format!("{:?}", a.next_request(ClientId(c)));
                let rb = format!("{:?}", b.next_request(ClientId(c)));
                assert_eq!(ra, rb);
            }
        }
    }

    #[test]
    fn ycsb_e_mix_fractions_are_respected() {
        let mut w = YcsbEWorkload::new(e_cfg());
        let (mut scans, mut inserts, mut deletes, mut rmws, mut mp) = (0u32, 0, 0, 0, 0u32);
        for _ in 0..2000 {
            match w.next_request(ClientId(3)) {
                Request::SinglePartition { fragment, .. } => match fragment.ops[0] {
                    MicroOp::Scan(..) => scans += 1,
                    MicroOp::Insert(..) => inserts += 1,
                    MicroOp::Delete(..) => deletes += 1,
                    MicroOp::Rmw(..) => rmws += 1,
                    _ => panic!("unexpected op"),
                },
                Request::MultiPartition { .. } => {
                    scans += 1;
                    mp += 1;
                }
            }
        }
        let total = 2000.0;
        assert!((scans as f64 / total - 0.6).abs() < 0.05, "scans {scans}");
        assert!((inserts as f64 / total - 0.2).abs() < 0.04);
        assert!((deletes as f64 / total - 0.1).abs() < 0.03);
        assert!(rmws > 0);
        assert!(
            (mp as f64 / scans as f64 - 0.25).abs() < 0.06,
            "mp share of scans: {mp}/{scans}"
        );
    }

    #[test]
    fn ycsb_e_churn_keys_are_client_unique_and_deletes_pair_inserts() {
        let mut w = YcsbEWorkload::new(YcsbEConfig {
            clients: 4,
            keys_per_partition: 64,
            scan_fraction: 0.0,
            insert_fraction: 0.5,
            delete_fraction: 0.5,
            ..Default::default()
        });
        use std::collections::{HashMap, HashSet};
        let mut owner: HashMap<u64, u32> = HashMap::new();
        let mut inserted: HashSet<u64> = HashSet::new();
        let mut deleted_missing = 0u32;
        let mut deletes = 0u32;
        for _ in 0..200 {
            for c in 0..4u32 {
                if let Request::SinglePartition { fragment, .. } = w.next_request(ClientId(c)) {
                    match fragment.ops[0] {
                        MicroOp::Insert(k, _) => {
                            let prev = owner.insert(k, c);
                            assert!(prev.is_none() || prev == Some(c), "churn key shared");
                            inserted.insert(k);
                        }
                        MicroOp::Delete(k) => {
                            deletes += 1;
                            let prev = owner.insert(k, c);
                            assert!(prev.is_none() || prev == Some(c), "churn key shared");
                            if !inserted.contains(&k) {
                                deleted_missing += 1;
                            }
                        }
                        _ => panic!("churn-only mix"),
                    }
                }
            }
        }
        // Deletes trail inserts on the same cursor, so the huge majority
        // target rows that exist (a few lead when the delete roll comes
        // up before the matching insert roll).
        assert!(
            (deleted_missing as f64) < 0.2 * deletes as f64,
            "{deleted_missing}/{deletes} deletes missed"
        );
    }

    #[test]
    fn ycsb_e_scans_stay_in_bounds_and_mp_spans_two_partitions() {
        let mut w = YcsbEWorkload::new(YcsbEConfig {
            partitions: 4,
            clients: 4,
            ..e_cfg()
        });
        for _ in 0..200 {
            match w.next_request(ClientId(1)) {
                Request::SinglePartition { fragment, .. } => {
                    if let MicroOp::Scan(s, e) = fragment.ops[0] {
                        assert!(e > s);
                    }
                }
                Request::MultiPartition { procedure, .. } => {
                    let parts = procedure.participants();
                    assert_eq!(parts.len(), 2);
                    assert_ne!(parts[0], parts[1]);
                }
            }
        }
    }

    #[test]
    fn ycsb_e_engine_preloads_even_slots_with_index() {
        let w = YcsbEWorkload::new(YcsbEConfig {
            keys_per_partition: 16,
            clients: 8,
            ..Default::default()
        });
        let e = w.build_engine(PartitionId(1));
        assert!(e.scans_enabled());
        let rows = e.scan_values(ycsb_key(1, 0), ycsb_key(1, 32));
        assert_eq!(rows.len(), 16, "even slots preloaded");
        assert!(
            rows.windows(2).all(|w| w[0].0 < w[1].0),
            "ordered iteration"
        );
        e.check_ordered_invariants().unwrap();
    }

    #[test]
    fn ycsb_keys_do_not_collide_with_micro_keys() {
        // Microbenchmark keys have bit 63 clear (client ids are u32 shifted
        // by 24); YCSB keys set it.
        let micro_max = crate::micro::make_key(u32::MAX, u32::MAX, u32::MAX);
        assert_eq!(micro_max >> 63, 0);
        assert_eq!(ycsb_key(0, 0) >> 63, 1);
    }
}
