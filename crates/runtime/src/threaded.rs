//! Thread-per-actor backend: the paper's process model, literally.
//!
//! Every actor gets one OS thread parked on an unbounded crossbeam
//! channel; the thread's whole job is `recv → step → route`. Channels
//! preserve per-link FIFO order, which is the delivery guarantee the
//! speculation protocol needs. The protocol logic itself lives in
//! [`crate::actors`] — this file only moves messages. (One thing rides on
//! the moving: in a durable run, a replica thread whose channel runs empty
//! tells its actor so before blocking, which is what closes the node's
//! group-commit batch.)
//!
//! Replica groups get one thread per node (`replication` threads per
//! partition). Routing to the logical [`ActorId::Partition`] address goes
//! through a membership table of atomics that the coordinator flips (via
//! an [`ActorId::Control`] message) when it promotes a backup, so a
//! failover transparently redirects partition traffic.
//!
//! The failure plan's wall-clock mail — a
//! [`FailAt::Time`](hcc_common::FailAt::Time) crash, and the `Rejoin` held
//! for the plan's `rejoin_delay` — is delivered by the membership thread:
//! it is the one that routes [`ActorId::Control`] mail, and its receive
//! takes a timeout while anything is held.
//!
//! This backend has the lowest per-message overhead (no shared ready
//! queue, no mailbox locks beyond the channel's own) but costs
//! `clients + replication × partitions + 1` threads, so it stops scaling
//! somewhere in the hundreds of clients; beyond that, use
//! [`crate::multiplexed`].

use crate::actors::{ActorId, ClientCtx, Msg, OutMsg, ReplicaActor, ReplicaParts, RunControl};
use crate::{
    build_actors, drain_until, measure, now_ns, window_secs, Harvest, RuntimeConfig, RuntimeReport,
    TickPlan, TimedMail,
};
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use hcc_common::PartitionId;
use hcc_core::{ExecutionEngine, RequestGenerator};
use hcc_storage::MemLog;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Control messages a driver injects alongside actor messages.
enum Wire<E: ExecutionEngine> {
    Actor(Msg<E>),
    Shutdown,
}

/// One sender per actor; routing is an index lookup, plus the membership
/// table resolving the logical partition address to the current primary.
/// The [`ActorId::Control`] mail it meets comes from the membership thread.
struct Router<E: ExecutionEngine> {
    clients: Vec<Sender<Wire<E>>>,
    /// One sender per coordinator shard.
    coords: Vec<Sender<Wire<E>>>,
    /// The control-plane membership actor.
    control_plane: Sender<Wire<E>>,
    /// `[group][slot]`.
    replicas: Vec<Vec<Sender<Wire<E>>>>,
    /// Current primary slot per group.
    membership: Arc<Vec<AtomicU32>>,
    /// Held control mail (see the module docs), and the run's clock.
    timed: Arc<TimedMail<E>>,
    epoch: Instant,
}

impl<E: ExecutionEngine> Clone for Router<E> {
    fn clone(&self) -> Self {
        Router {
            clients: self.clients.clone(),
            coords: self.coords.clone(),
            control_plane: self.control_plane.clone(),
            replicas: self.replicas.clone(),
            membership: self.membership.clone(),
            timed: self.timed.clone(),
            epoch: self.epoch,
        }
    }
}

impl<E: ExecutionEngine> Router<E> {
    fn primary_slot(&self, p: PartitionId) -> usize {
        self.membership[p.as_usize()].load(Ordering::Acquire) as usize
    }

    /// Sends are fire-and-forget: a closed channel means the destination
    /// already shut down (only happens during teardown).
    fn send(&self, m: OutMsg<E>) {
        let _ = match m.dest {
            ActorId::Client(c) => self.clients[c.as_usize()].send(Wire::Actor(m.msg)),
            ActorId::Coordinator(k) => self.coords[k.as_usize()].send(Wire::Actor(m.msg)),
            ActorId::Membership => self.control_plane.send(Wire::Actor(m.msg)),
            ActorId::Partition(p) => {
                let slot = self.primary_slot(p);
                self.replicas[p.as_usize()][slot].send(Wire::Actor(m.msg))
            }
            ActorId::Replica(p, s) => {
                self.replicas[p.as_usize()][s as usize].send(Wire::Actor(m.msg))
            }
            ActorId::Control => {
                match m.msg {
                    Msg::Promoted { partition, slot } => {
                        self.membership[partition.as_usize()].store(slot, Ordering::Release);
                    }
                    rejoin => {
                        if let Some(m) = self.timed.rejoin(now_ns(self.epoch), rejoin) {
                            self.send(m);
                        }
                    }
                }
                Ok(())
            }
        };
    }

    fn route(&self, buf: &mut Vec<OutMsg<E>>) {
        for m in buf.drain(..) {
            self.send(m);
        }
    }

    /// One screen of routing state for the hang watchdog: every channel
    /// holding undelivered mail, and the membership table.
    fn dump(&self) -> String {
        let depth = |name: &str, txs: &[Sender<Wire<E>>]| {
            let busy: Vec<_> = txs
                .iter()
                .map(Sender::len)
                .enumerate()
                .filter(|(_, queued)| *queued > 0)
                .collect();
            format!("{name} (index, queued) {busy:?}\n")
        };
        let mut s = depth("clients", &self.clients) + &depth("coordinators", &self.coords);
        s += &depth(
            "membership actor",
            std::slice::from_ref(&self.control_plane),
        );
        for (g, slots) in self.replicas.iter().enumerate() {
            s += &depth(&format!("group {g} slots"), slots);
        }
        let primaries: Vec<u32> = self
            .membership
            .iter()
            .map(|m| m.load(Ordering::Acquire))
            .collect();
        s + &format!("membership {primaries:?}\n")
    }
}

/// Run `cfg` with one OS thread per actor.
pub(crate) fn run<W, B>(
    cfg: &RuntimeConfig,
    workload: W,
    build_engine: B,
) -> RuntimeReport<W::Engine>
where
    W: RequestGenerator + Send + 'static,
    W::Engine: Send + 'static,
    <W::Engine as ExecutionEngine>::Fragment: Send + 'static,
    <W::Engine as ExecutionEngine>::Output: Send + 'static,
    B: Fn(PartitionId) -> W::Engine,
{
    type E<W> = <W as RequestGenerator>::Engine;
    let system = &cfg.system;
    let n = system.partitions as usize;
    let slots = system.replication.max(1) as usize;
    let actors = build_actors::<W>(system, cfg.mode, cfg.failure, build_engine, || {
        Box::new(MemLog::new())
    });
    // A receive timeout doubles as the tick timer.
    let plan = TickPlan::new(system);
    let tick_every = Duration::from_nanos(plan.every.0);

    // Channels.
    let mut replica_txs: Vec<Vec<Sender<Wire<E<W>>>>> = Vec::new();
    let mut replica_rxs = Vec::new();
    for p in 0..n {
        let mut txs = Vec::new();
        for s in 0..slots {
            let (tx, rx) = unbounded::<Wire<E<W>>>();
            txs.push(tx);
            replica_rxs.push((p, s, rx));
        }
        replica_txs.push(txs);
    }
    let shards = system.coordinators.max(1) as usize;
    let mut coord_txs = Vec::new();
    let mut coord_rxs = Vec::new();
    for _ in 0..shards {
        let (tx, rx) = unbounded();
        coord_txs.push(tx);
        coord_rxs.push(rx);
    }
    let (control_tx, control_rx) = unbounded();
    let mut client_txs = Vec::new();
    let mut client_rxs = Vec::new();
    for _ in 0..system.clients {
        let (tx, rx) = unbounded::<Wire<E<W>>>();
        client_txs.push(tx);
        client_rxs.push(rx);
    }
    let epoch = Instant::now();
    let router: Router<E<W>> = Router {
        clients: client_txs,
        coords: coord_txs,
        control_plane: control_tx,
        replicas: replica_txs,
        membership: Arc::new((0..n).map(|_| AtomicU32::new(0)).collect()),
        timed: Arc::new(TimedMail::new(cfg.failure)),
        epoch,
    };
    let ctl = Arc::new(RunControl::new(system.clients as usize, cfg.mode));
    let workload = Arc::new(Mutex::new(workload));

    // Replica threads (primaries and backups run the same loop; the
    // role lives in the actor).
    let mut replica_handles: Vec<Vec<Option<std::thread::JoinHandle<ReplicaParts<E<W>>>>>> =
        (0..n).map(|_| (0..slots).map(|_| None).collect()).collect();
    for ((p, s, rx), actor) in replica_rxs.into_iter().zip(actors.replicas) {
        let router = router.clone();
        let ctl = ctl.clone();
        let tick = plan.partitions.then_some(tick_every);
        let logging = system.durability.is_some();
        replica_handles[p][s] = Some(std::thread::spawn(move || {
            replica_thread(actor, rx, router, ctl, epoch, tick, logging)
        }));
    }

    // Coordinator shard threads, ticking themselves for stall expiry
    // and epoch age-closes where the plan says so.
    let mut coord_handles = Vec::new();
    for (rx, mut actor) in coord_rxs.into_iter().zip(actors.coordinators) {
        let router = router.clone();
        let ticks = plan.coordinators;
        coord_handles.push(std::thread::spawn(move || {
            let mut buf = Vec::new();
            loop {
                let msg = if ticks {
                    match rx.recv_timeout(tick_every) {
                        Ok(Wire::Actor(m)) => m,
                        Ok(Wire::Shutdown) | Err(RecvTimeoutError::Disconnected) => break,
                        Err(RecvTimeoutError::Timeout) => Msg::Tick,
                    }
                } else {
                    match rx.recv() {
                        Ok(Wire::Actor(m)) => m,
                        _ => break,
                    }
                };
                actor.step(msg, now_ns(epoch), &mut buf);
                router.route(&mut buf);
            }
            actor
        }));
    }

    // Control-plane membership thread, and courier of the timed mail.
    let control_handle = {
        let mut actor = actors.membership;
        let router = router.clone();
        std::thread::spawn(move || {
            let mut buf: Vec<OutMsg<E<W>>> = Vec::new();
            loop {
                let wire = match router.timed.next_due() {
                    Some(at) => {
                        let wait = at.saturating_sub(now_ns(epoch));
                        match control_rx.recv_timeout(wait.into()) {
                            Ok(wire) => Some(wire),
                            Err(RecvTimeoutError::Timeout) => None,
                            Err(RecvTimeoutError::Disconnected) => break,
                        }
                    }
                    None => match control_rx.recv() {
                        Ok(wire) => Some(wire),
                        Err(_) => break,
                    },
                };
                match wire {
                    Some(Wire::Actor(msg)) => actor.step(msg, &mut buf),
                    Some(Wire::Shutdown) => break,
                    None => {}
                }
                router.timed.take_due(now_ns(epoch), &mut buf);
                router.route(&mut buf);
            }
        })
    };

    // Client threads.
    let mut client_handles = Vec::new();
    for (rx, mut actor) in client_rxs.into_iter().zip(actors.clients) {
        let router = router.clone();
        let ctl = ctl.clone();
        let wl = workload.clone();
        client_handles.push(std::thread::spawn(move || {
            let ctx = ClientCtx {
                workload: &wl,
                ctl: &ctl,
            };
            let mut buf = Vec::new();
            loop {
                // A parked backoff retry turns the receive into a timed
                // wait; the timeout wakes the actor with a Tick.
                let msg = match actor.retry_wake() {
                    Some(at) => {
                        let wait = Duration::from_nanos(at.0.saturating_sub(now_ns(epoch).0));
                        match rx.recv_timeout(wait) {
                            Ok(Wire::Actor(m)) => m,
                            Ok(Wire::Shutdown) | Err(RecvTimeoutError::Disconnected) => break,
                            Err(RecvTimeoutError::Timeout) => Msg::Tick,
                        }
                    }
                    None => match rx.recv() {
                        Ok(Wire::Actor(m)) => m,
                        _ => break,
                    },
                };
                actor.step(msg, now_ns(epoch), &ctx, &mut buf);
                router.route(&mut buf);
                if actor.done() {
                    break;
                }
            }
            actor.into_stats()
        }));
    }

    // Kick every client.
    for tx in &router.clients {
        let _ = tx.send(Wire::Actor(Msg::Start));
    }

    let started = Instant::now();
    measure(cfg.mode, &ctl);
    // Clients finish their in-flight transactions and retire (each
    // client thread exits right after its actor does).
    let live = || ctl.live_clients.load(Ordering::SeqCst);
    drain_until(&ctl, || 0, || live() == 0, || router.dump());
    let mut harvest = Harvest::new();
    for h in client_handles {
        harvest.client(&h.join().expect("client thread"));
    }
    let elapsed = started.elapsed();

    // With a failure injected, the kill → promote → recover chain may
    // still be in flight (it is driven by messages, not clients); wait
    // for the recovering node to finish rejoining before tearing the
    // system down.
    if cfg.failure.is_some() {
        let recovered = || ctl.recovery_done.load(Ordering::SeqCst);
        let dump = || format!("injected failure never recovered\n{}", router.dump());
        drain_until(&ctl, || 0, recovered, dump);
    }

    // Quiesced: shut down the control plane and the coordinator
    // shards, then each group's current primary (so it ships its
    // trailing commit records first), then the group's backups.
    // Channel FIFO ensures every message sent before a Shutdown is
    // processed first.
    let _ = router.control_plane.send(Wire::Shutdown);
    control_handle.join().expect("membership thread");
    for tx in &router.coords {
        let _ = tx.send(Wire::Shutdown);
    }
    for h in coord_handles {
        harvest.coordinator(&h.join().expect("coordinator thread"));
    }
    // Indexing two parallel structures (channels + handles); an index
    // loop is the clear spelling.
    #[allow(clippy::needless_range_loop)]
    for p in 0..n {
        let primary = router.primary_slot(PartitionId(p as u32));
        let mut order: Vec<usize> = vec![primary];
        order.extend((0..slots).filter(|s| *s != primary));
        for s in order {
            let _ = router.replicas[p][s].send(Wire::Shutdown);
            let h = replica_handles[p][s].take().expect("replica handle");
            harvest.replica(h.join().expect("replica thread"));
        }
    }
    harvest.finish(&ctl, window_secs(cfg.mode, elapsed), n)
}

fn replica_thread<E>(
    mut actor: ReplicaActor<E>,
    rx: Receiver<Wire<E>>,
    router: Router<E>,
    ctl: Arc<RunControl>,
    epoch: Instant,
    tick: Option<Duration>,
    logging: bool,
) -> ReplicaParts<E>
where
    E: ExecutionEngine + Send + 'static,
    E::Fragment: Send,
    E::Output: Send,
{
    let mut buf = Vec::new();
    loop {
        if logging && rx.is_empty() {
            // About to block with nothing more to hand the actor: close its
            // group-commit batch. (A message that lands between the check
            // and the receive only means this batch closed one early.)
            actor.on_drained(&mut buf);
            router.route(&mut buf);
        }
        let msg = match tick {
            // The locking scheme needs periodic lock-timeout scans; a recv
            // timeout doubles as the tick timer. Non-primary roles ignore
            // ticks.
            Some(every) => match rx.recv_timeout(every) {
                Ok(Wire::Actor(m)) => m,
                Ok(Wire::Shutdown) | Err(RecvTimeoutError::Disconnected) => break,
                Err(RecvTimeoutError::Timeout) => Msg::Tick,
            },
            None => match rx.recv() {
                Ok(Wire::Actor(m)) => m,
                _ => break,
            },
        };
        actor.step(msg, now_ns(epoch), &ctl, &mut buf);
        router.route(&mut buf);
    }
    actor.into_parts()
}
