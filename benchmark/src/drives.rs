//! Layer drives: one thread calls each layer's public functions directly,
//! with a span around every call, on the first [`DRIVE_REQUESTS`]
//! requests of the workload's own stream.
//!
//! The first drive is a message pump that plays the network: closed-loop
//! clients, the real coordinator (or, under locking, each client's
//! [`TxnDriver`]) and the real per-partition schedulers over [`TracedEngine`]
//! engines, with a [`ReplicationSession`] per partition collecting the
//! commit records in commit order. Those records then feed the drives of
//! the layers below — codec, durable log, replica replay, recovery — so
//! every layer is measured on what the workload actually commits, and the
//! replayed states can be checked against the pump's. A layer the
//! workload's configuration never runs (no log, no backup, no lock
//! manager, no ordered index) is not driven and its metrics read 0.

use crate::metrics::{ratio, Values};
use crate::trace::{self, span, Trace, TracedEngine, TracedGen, NO_TXN};
use crate::workloads::{Inspect, Workload};
use bytes::Bytes;
use hcc_common::codec::{decode_exact, encode_to_vec};
use hcc_common::{
    ClientId, CommitRecord, CoordinatorRef, Decision, FragmentResponse, FragmentTask, Nanos,
    PartitionId, Scheme, SplitMix64, SystemConfig, TxnId, TxnResult, Zipfian,
};
use hcc_core::coordinator::{CoordOut, Coordinator};
use hcc_core::txn_driver::TxnDriver;
use hcc_core::{
    make_scheduler, recover_partition, ExecutionEngine, Outbox, PartitionOut, ReplicaCore,
    ReplicationSession, Request, RequestGenerator, Scheduler,
};
use hcc_locking::LockManager;
use hcc_storage::{DurableLog, MemLog, OrderedIndex};
use hcc_workloads::ycsb::{ycsb_key, YcsbEConfig};
use std::collections::VecDeque;
use std::hint::black_box;
use std::time::Instant;

/// Requests each drive run issues.
pub const DRIVE_REQUESTS: usize = 50_000;

type Frag<W> = <<W as Workload>::Engine as ExecutionEngine>::Fragment;
type Out<W> = <<W as Workload>::Engine as ExecutionEngine>::Output;

pub struct Drives {
    pub metrics: Values,
    pub trace: Trace,
    pub errors: Vec<String>,
}

pub fn layer_drives<W: Workload>(w: W, seed: u64) -> Drives {
    let mut errors = Vec::new();
    let mut m = Values::default();

    // A layer is driven only where the workload's own configuration runs
    // it; elsewhere its metrics read the 0 of work never done.
    let system = w.system();
    let durable = system.durability.is_some();
    let replicated = system.replication > 1;

    let mut pump = Pump::new(w, seed);
    pump.run(&mut errors);
    let locks = if system.scheme == Scheme::Locking {
        locking_drive(w, seed)
    } else {
        0
    };

    let loader = w.generator(seed);
    let mut encoded: Vec<Vec<Vec<u8>>> = Vec::new();
    let (mut records, mut bytes) = (0u64, 0usize);
    for part in pump.records.iter().filter(|_| durable) {
        let mut images = Vec::with_capacity(part.len());
        for rec in part {
            let image = span("common.codec.encode", rec.txn.0, || encode_to_vec(rec));
            let back = span("common.codec.decode", rec.txn.0, || {
                decode_exact::<CommitRecord<Frag<W>>>(&image)
            });
            if back.map(|b| (b.seq, b.txn, b.frags.len()))
                != Some((rec.seq, rec.txn, rec.frags.len()))
            {
                errors.push(format!("codec: record {} did not round-trip", rec.seq));
            }
            records += 1;
            bytes += image.len();
            images.push(image);
        }
        encoded.push(images);
    }

    let mut logs = Vec::new();
    for images in &encoded {
        let mut log = MemLog::new();
        for (i, image) in images.iter().enumerate() {
            span("storage.durable.append", NO_TXN, || log.append(image)).expect("MemLog append");
            // The default group-commit batch.
            if (i + 1) % 64 == 0 {
                span("storage.durable.sync", NO_TXN, || log.sync()).expect("MemLog sync");
            }
        }
        span("storage.durable.sync", NO_TXN, || log.sync()).expect("MemLog sync");
        logs.push(log);
    }

    for (p, part) in pump.records.iter().enumerate().filter(|_| replicated) {
        let mut backup = TracedEngine::new(W::build_engine(&loader, PartitionId(p as u32)), true);
        let mut core = ReplicaCore::new();
        for rec in part {
            if let Err(why) = span("core.replica.apply", rec.txn.0, || {
                core.apply(&mut backup, rec)
            }) {
                errors.push(format!("replica drive P{p}: {why}"));
                break;
            }
        }
        if backup.fingerprint() != pump.engines[p].fingerprint() {
            errors.push(format!(
                "replica drive P{p}: replayed state differs from the primary's"
            ));
        }
    }

    // Recovery from the log bytes alone, untraced: its own wall time is
    // the metric.
    let mut recover_s = 0.0;
    for (p, log) in logs.iter_mut().enumerate() {
        let image = log.crash_image();
        let birth = W::build_engine(&loader, PartitionId(p as u32));
        let t = Instant::now();
        let outcome = recover_partition(birth, 0, &image);
        recover_s += t.elapsed().as_secs_f64();
        match outcome {
            Ok(out) if out.engine.fingerprint() == pump.engines[p].fingerprint() => {}
            Ok(_) => errors.push(format!("recovery drive P{p}: recovered state differs")),
            Err(why) => errors.push(format!("recovery drive P{p}: {why}")),
        }
    }

    let rows_scanned = if pump.engines[0].keeps_ordered_index() {
        ordered_drive(seed)
    } else {
        0
    };

    let trace = trace::collect();
    pump.metrics(&trace, &mut m);
    let per = |name: &str| {
        let a = trace.agg(name);
        ratio(a.total_ns as f64, a.count as f64)
    };
    m.set(
        "locking.acquire_ns_per_lock",
        ratio(
            trace.agg("locking.acquire_set").total_ns as f64,
            locks as f64,
        ),
    );
    m.set("locking.release_ns_per_txn", per("locking.release_all"));
    m.set(
        "locking.locks_per_txn",
        ratio(locks as f64, DRIVE_REQUESTS as f64),
    );
    m.set(
        "common.codec.encode_ns_per_record",
        per("common.codec.encode"),
    );
    m.set(
        "common.codec.decode_ns_per_record",
        per("common.codec.decode"),
    );
    m.set(
        "common.codec.bytes_per_record",
        ratio(bytes as f64, records as f64),
    );
    m.set(
        "storage.durable.append_ns_per_record",
        per("storage.durable.append"),
    );
    m.set(
        "storage.durable.sync_ns_per_batch",
        per("storage.durable.sync"),
    );
    let apply = trace.agg("core.replica.apply");
    m.set(
        "core.replica.apply_ns_per_record",
        per("core.replica.apply"),
    );
    m.set(
        "core.replica.self_ns_per_record",
        ratio(apply.self_ns as f64, apply.count as f64),
    );
    m.set(
        "core.recovery.records_per_s",
        ratio(records as f64, recover_s),
    );
    m.set("core.recovery.recover_ms", recover_s * 1e3);
    let scan = trace.agg("storage.ordered.range");
    m.set(
        "storage.ordered.scan_ns_per_row",
        ratio(scan.total_ns as f64, rows_scanned as f64),
    );
    m.set("storage.ordered.insert_ns", per("storage.ordered.insert"));

    Drives {
        metrics: m,
        trace,
        errors,
    }
}

enum Ev<F, R> {
    Fragment(PartitionId, FragmentTask<F>),
    Decision(PartitionId, Decision),
    Response(CoordinatorRef, FragmentResponse<R>),
    Result(ClientId, TxnId, TxnResult<R>),
}

/// The single-threaded stand-in for the network between clients,
/// coordinator and partitions: one FIFO of in-flight messages (which
/// keeps every link FIFO, the property the speculation protocol needs).
struct Pump<W: Workload> {
    system: SystemConfig,
    gen: TracedGen<W::Gen>,
    engines: Vec<TracedEngine<W::Engine>>,
    scheds: Vec<Box<dyn Scheduler<TracedEngine<W::Engine>>>>,
    sessions: Vec<ReplicationSession<Frag<W>>>,
    /// Commit records per partition, in commit order.
    records: Vec<Vec<CommitRecord<Frag<W>>>>,
    coordinator: Coordinator<Frag<W>, Out<W>>,
    /// Client-driven 2PC (locking scheme): one driver per client.
    drivers: Vec<TxnDriver<Frag<W>, Out<W>>>,
    queue: VecDeque<Ev<Frag<W>, Out<W>>>,
    outbox: Outbox<Out<W>>,
    coord_out: Vec<CoordOut<Frag<W>, Out<W>>>,
    next_seq: Vec<u32>,
    issued: usize,
    finished: usize,
    mp_txns: u64,
    coord_msgs: u64,
    /// Virtual clock: one microsecond per delivered message.
    now: Nanos,
}

impl<W: Workload> Pump<W> {
    fn new(w: W, seed: u64) -> Self {
        let system = w.system();
        let loader = w.generator(seed);
        let n = system.partitions as usize;
        let clients = system.clients;
        Pump {
            gen: TracedGen::new(w.generator(seed)),
            engines: (0..n)
                .map(|p| TracedEngine::new(W::build_engine(&loader, PartitionId(p as u32)), false))
                .collect(),
            scheds: (0..n)
                .map(|p| make_scheduler(&system, PartitionId(p as u32)))
                .collect(),
            sessions: (0..n).map(|_| ReplicationSession::new()).collect(),
            records: (0..n).map(|_| Vec::new()).collect(),
            coordinator: Coordinator::central(system.costs),
            drivers: (0..clients)
                .map(|c| TxnDriver::new(system.costs, ClientId(c)))
                .collect(),
            queue: VecDeque::new(),
            outbox: Outbox::new(system.costs),
            coord_out: Vec::new(),
            next_seq: vec![0; clients as usize],
            issued: 0,
            finished: 0,
            mp_txns: 0,
            coord_msgs: 0,
            now: Nanos::ZERO,
            system,
        }
    }

    fn run(&mut self, errors: &mut Vec<String>) {
        for c in 0..self.system.clients {
            self.issue(ClientId(c));
        }
        let mut delivered = 0u64;
        while self.finished < self.issued {
            let Some(ev) = self.queue.pop_front() else {
                // Nothing in flight but requests outstanding: only a lock
                // wait can hold them. Let the timeouts fire once.
                self.now = self.now + self.system.lock_timeout + self.system.lock_timeout;
                self.tick();
                if self.queue.is_empty() {
                    errors.push(format!(
                        "scheduler drive wedged with {} requests outstanding",
                        self.issued - self.finished
                    ));
                    return;
                }
                continue;
            };
            self.now += Nanos::from_micros(1);
            delivered += 1;
            if self.system.scheme == Scheme::Locking && delivered.is_multiple_of(1024) {
                self.tick();
            }
            self.deliver(ev);
        }
        for (p, (s, e)) in self.scheds.iter().zip(&self.engines).enumerate() {
            if !s.is_idle() {
                errors.push(format!(
                    "scheduler drive: P{p} scheduler not idle after drain"
                ));
            }
            if e.live_undo_buffers() != 0 {
                errors.push(format!("scheduler drive: P{p} leaked undo buffers"));
            }
        }
    }

    fn tick(&mut self) {
        for p in 0..self.scheds.len() {
            self.scheds[p].on_tick(&mut self.engines[p], self.now, &mut self.outbox);
            self.drain_partition(p);
        }
    }

    /// The next request of `client`, dispatched as the client actor would.
    fn issue(&mut self, client: ClientId) {
        if self.issued == DRIVE_REQUESTS {
            return;
        }
        self.issued += 1;
        let c = client.as_usize();
        let txn = TxnId::new(client, self.next_seq[c]);
        self.next_seq[c] += 1;
        match self.gen.next_request(client) {
            Request::SinglePartition {
                partition,
                fragment,
                can_abort,
            } => self.queue.push_back(Ev::Fragment(
                partition,
                FragmentTask {
                    txn,
                    coordinator: CoordinatorRef::Client(client),
                    client,
                    fragment,
                    multi_partition: false,
                    last_fragment: true,
                    round: 0,
                    can_abort,
                },
            )),
            Request::MultiPartition {
                procedure,
                can_abort,
            } => {
                self.mp_txns += 1;
                let out = &mut self.coord_out;
                if self.system.scheme == Scheme::Locking {
                    let driver = &mut self.drivers[c];
                    span("core.txn_driver.begin", txn.0, || {
                        driver.begin(txn, procedure, can_abort, out)
                    });
                } else {
                    let coordinator = &mut self.coordinator;
                    span("core.coordinator.on_invoke", txn.0, || {
                        coordinator.on_invoke(txn, client, procedure, can_abort, out)
                    });
                }
                self.route_coordinator_out();
            }
        }
    }

    fn deliver(&mut self, ev: Ev<Frag<W>, Out<W>>) {
        match ev {
            Ev::Fragment(p, task) => {
                let i = p.as_usize();
                self.sessions[i].record_fragment(&task);
                let name = if task.multi_partition {
                    "core.sched.on_fragment_mp"
                } else {
                    "core.sched.on_fragment_sp"
                };
                let (sched, engine, out, now) = (
                    &mut self.scheds[i],
                    &mut self.engines[i],
                    &mut self.outbox,
                    self.now,
                );
                span(name, task.txn.0, || {
                    sched.on_fragment(task, engine, now, out)
                });
                self.drain_partition(i);
            }
            Ev::Decision(p, d) => {
                let i = p.as_usize();
                // The commit point precedes whatever the decision
                // releases, as in the replica actor.
                self.settle(i, d.txn, d.commit);
                let (sched, engine, out, now) = (
                    &mut self.scheds[i],
                    &mut self.engines[i],
                    &mut self.outbox,
                    self.now,
                );
                span("core.sched.on_decision", d.txn.0, || {
                    sched.on_decision(d, engine, now, out)
                });
                self.drain_partition(i);
            }
            Ev::Response(dest, resp) => {
                let out = &mut self.coord_out;
                let txn = resp.txn.0;
                match dest {
                    CoordinatorRef::Central(_) => {
                        let coordinator = &mut self.coordinator;
                        span("core.coordinator.on_response", txn, || {
                            coordinator.on_response(resp, out)
                        });
                    }
                    CoordinatorRef::Client(c) => {
                        let driver = &mut self.drivers[c.as_usize()];
                        span("core.txn_driver.on_response", txn, || {
                            driver.on_response(resp, out)
                        });
                    }
                }
                self.route_coordinator_out();
            }
            Ev::Result(client, txn, result) => {
                // A retryable abort (lock timeout, deadlock victim) ends
                // the request here; the drive does not re-submit.
                self.finished += 1;
                self.gen.on_result(client, txn, result.is_committed());
                self.issue(client);
            }
        }
    }

    /// Emit the commit record of `txn` at partition `p`, or drop its
    /// buffered fragments.
    fn settle(&mut self, p: usize, txn: TxnId, committed: bool) {
        if committed {
            if let Some(rec) = self.sessions[p].on_commit(txn) {
                self.records[p].push(rec);
            }
        } else {
            self.sessions[p].on_abort(txn);
        }
    }

    fn drain_partition(&mut self, p: usize) {
        let (msgs, _cpu) = self.outbox.take();
        for msg in msgs {
            match msg {
                PartitionOut::ToClient {
                    client,
                    txn,
                    result,
                } => {
                    self.settle(p, txn, result.is_committed());
                    self.queue.push_back(Ev::Result(client, txn, result));
                }
                PartitionOut::ToCoordinator { dest, response } => {
                    self.queue.push_back(Ev::Response(dest, response));
                }
            }
        }
    }

    fn route_coordinator_out(&mut self) {
        for o in self.coord_out.drain(..) {
            self.coord_msgs += 1;
            match o {
                CoordOut::Fragment(p, task) => self.queue.push_back(Ev::Fragment(p, task)),
                CoordOut::Decision(p, d, _ack) => self.queue.push_back(Ev::Decision(p, d)),
                CoordOut::ClientResult {
                    client,
                    txn,
                    result,
                } => self.queue.push_back(Ev::Result(client, txn, result)),
                CoordOut::PeerNote(..) | CoordOut::EpochLog(..) => {
                    unreachable!("sequencing is off in every benchmark workload")
                }
            }
        }
    }

    fn metrics(&self, trace: &Trace, m: &mut Values) {
        let sp = trace.agg("core.sched.on_fragment_sp");
        let mp = trace.agg("core.sched.on_fragment_mp");
        let decision = trace.agg("core.sched.on_decision");
        m.set(
            "core.sched.self_ns_per_frag",
            ratio(
                (sp.self_ns + mp.self_ns + decision.self_ns) as f64,
                (sp.count + mp.count) as f64,
            ),
        );
        m.set(
            "core.sched.sp_self_ns",
            ratio(sp.self_ns as f64, sp.count as f64),
        );
        m.set(
            "core.sched.mp_self_ns",
            ratio((mp.self_ns + decision.self_ns) as f64, mp.count as f64),
        );
        let coordinator = trace.agg_prefix("core.coordinator.").self_ns
            + trace.agg_prefix("core.txn_driver.").self_ns;
        m.set(
            "core.coordinator.ns_per_mp_txn",
            ratio(coordinator as f64, self.mp_txns as f64),
        );
        m.set(
            "core.coordinator.msgs_per_mp_txn",
            ratio(self.coord_msgs as f64, self.mp_txns as f64),
        );
    }
}

/// `LockManager` on the lock sets the stream's fragments declare: every
/// transaction acquires its whole set uncontended, then releases it.
/// Returns the locks acquired.
fn locking_drive<W: Workload>(w: W, seed: u64) -> u64 {
    let system = w.system();
    let mut gen = w.generator(seed);
    let loader = w.generator(seed);
    let engines: Vec<W::Engine> = (0..system.partitions)
        .map(|p| W::build_engine(&loader, PartitionId(p)))
        .collect();
    let mut lm = LockManager::new();
    let mut locks = 0u64;
    for i in 0..DRIVE_REQUESTS {
        let client = ClientId(i as u32 % system.clients);
        let txn = TxnId::new(client, (i as u32) / system.clients);
        let (fragments, multi) = match gen.next_request(client) {
            Request::SinglePartition {
                partition,
                fragment,
                ..
            } => (vec![(partition, fragment)], false),
            Request::MultiPartition { procedure, .. } => match procedure.step(&[]) {
                hcc_core::Step::Round { fragments, .. } => (fragments, true),
                hcc_core::Step::Finish(_) => (Vec::new(), true),
            },
        };
        // One lock table stands in for every partition's: the sets of
        // different partitions never share a key.
        let set: Vec<_> = fragments
            .iter()
            .flat_map(|(p, f)| engines[p.as_usize()].lock_set(f))
            .collect();
        lm.register_txn(txn, multi);
        span("locking.acquire_set", txn.0, || {
            for &(key, mode) in &set {
                black_box(lm.acquire(txn, key, mode, Nanos::ZERO));
            }
        });
        span("locking.release_all", txn.0, || {
            black_box(lm.release_all(txn))
        });
        locks += set.len() as u64;
    }
    locks
}

/// `OrderedIndex` under the YCSB-E shape (8 Ki preloaded even slots,
/// Zipfian scan starts, scans of up to 16 slots, 5 % inserts into odd
/// slots); only `ycsbe_lock`'s engines keep one. Returns the rows the
/// scans yielded.
fn ordered_drive(seed: u64) -> u64 {
    let cfg = YcsbEConfig::default();
    let slots = 2 * cfg.keys_per_partition;
    let key = |slot: u64| Bytes::copy_from_slice(&ycsb_key(0, slot).to_be_bytes());
    let index = OrderedIndex::new();
    for i in 0..cfg.keys_per_partition {
        index.insert(key(2 * i));
    }
    let zipf = Zipfian::new(slots, cfg.theta);
    let mut rng = SplitMix64::new(seed);
    let mut rows = 0u64;
    for _ in 0..DRIVE_REQUESTS {
        if rng.next_f64() < cfg.scan_fraction {
            let start = zipf.sample(&mut rng);
            let end = (start + rng.range_inclusive(1, u64::from(cfg.scan_len))).min(slots);
            let (lo, hi) = (key(start), key(end));
            rows += span("storage.ordered.range", NO_TXN, || {
                index.range(&lo, &hi).map(black_box).count() as u64
            });
        } else {
            let k = key(2 * rng.range_inclusive(0, cfg.keys_per_partition - 1) + 1);
            span("storage.ordered.insert", NO_TXN, || index.insert(k));
        }
    }
    rows
}
