//! Multiplexed reactor backend: a shared-nothing worker pool, and the one
//! live driver (the simulator is the reference it is checked against).
//!
//! The ROADMAP's "async backend", hand-rolled because the build is
//! offline (no tokio, no channel crate with a `Select`). The
//! paper's point — a partition run by one thread needs no latches —
//! applied to the runtime itself: only the actors whose load cannot be
//! placed statically sit behind a lock.
//!
//! # Placement
//!
//! * **Owned** — client `c` lives on worker `c % workers`, every slot of
//!   replica group `g` (across failovers) on worker `g % workers`, as plain
//!   data inside the worker: moved in at spawn, returned at join. A message
//!   between two actors of one worker is a push on its private `VecDeque`;
//!   one to another worker goes to a per-destination outbound buffer that
//!   is appended to the destination's single inbox when the step ends (one
//!   lock per destination per step). A worker takes its whole inbox with
//!   one swap per loop iteration, then steps what its queue holds at that
//!   point: a batch that grows with load, with no knob. (Holding outbound
//!   mail until the batch ends was measured and dropped: the sibling runs
//!   dry behind a long batch and parks four times as often.) With a
//!   durable log, the end of the batch is also what closes the worker's
//!   group-commit batches: what its primaries committed during the batch is
//!   synced once, and the results that waited for it are published like a
//!   step's outputs. Each client owns its share of the request generator
//!   ([`RequestGenerator::for_client`]) as it owns the rest of its state,
//!   so a worker draws requests under no lock and touches no other
//!   worker's generator state. Only a generator that does not split stays
//!   shared, behind one lock every client takes per transaction.
//! * **Shared** — coordinator shards and the membership actor keep a
//!   mailbox with a `scheduled` bit and one global ready list that every
//!   worker pops at the top of its loop and before parking; `steals`
//!   counts runs popped by a worker other than the publisher. Measured
//!   reason (30 % multi-partition microbenchmark, `multiplexed:2`): homed
//!   on one worker, the coordinator leaves that worker 0.98 busy and its
//!   sibling 0.49, and costs 12 % throughput against the parent commit;
//!   shared, both sit at 0.88 and throughput gains 14 %.
//!
//! # Ordering
//!
//! 1. **Per-link FIFO.** An owned actor never changes worker, and queue,
//!    outbound buffer and inbox are each FIFO (a swapped-out inbox goes
//!    *behind* the local queue), so every owned → owned link is FIFO. A
//!    shared actor may run on any worker, so its outputs are published
//!    after every message, in program order, while it is exclusively held
//!    — always through the destination's inbox, never the stepping
//!    worker's local queue, so they reach an owned actor by one path.
//! 2. **Promote before redirected traffic.** [`ActorId::Partition`] is
//!    resolved to a slot by the group's home worker at *delivery*, and the
//!    [`ActorId::Control`] flip travels there as a message on the same
//!    link as the promotion emitted before it: the home worker sees
//!    promote, flip, then whatever the flip redirects. An outbox publishes
//!    worker-bound mail before mailbox-bound mail, so a coordinator told of
//!    the failover finds the flip already queued.
//! 3. **Quiescence** and 4. **Parking**, below.
//!
//! # Parking
//!
//! An idle worker parks instead of spinning: it raises its `parked` flag,
//! polls inbox and ready list once more (the Dekker-style re-check that
//! closes the sleep/wake race), then sleeps. Publishers load `parked`
//! after publishing and swap it only when it reads true. A ready token is
//! popped under the list's lock and the poll decides from what it got, so
//! every loop iteration steps a message or parks: `loops ≤ steps + parks
//! (+ startup slack)`, which the idle soak asserts. Client backoff ticks
//! are gated on [`RunControl::backoff_waiters`]: a quiescent system sends
//! nothing.
//!
//! # Quiescence
//!
//! `pending` counts undelivered messages in one padded atomic (sharding
//! it would admit transient zero reads). A message is counted *before*
//! another thread can see it, and a consumed message stays counted until
//! what it produced is: its unit passes to an output, the worker adds
//! units only when a step produces more than the batch has consumed so
//! far, and returns the surplus in one RMW when the batch ends — no RMW at
//! all for single-partition traffic, where every step consumes one message
//! and produces one. The count never reads below the true backlog, so
//! `live_clients == 0 && pending == 0` proves a drained run, the
//! kill → promote → rejoin chain included.

use crate::actors::{
    ActorId, ClientActor, ClientCtx, CoordinatorActor, MembershipActor, Msg, OutMsg, ReplicaActor,
    RunControl,
};
use crate::{
    build_actors, drain_until, measure, now_ns, window_secs, Harvest, RuntimeConfig, RuntimeReport,
    TickPlan, TimedMail, WorkerStats,
};
use hcc_common::{CachePadded, ClientId, CoordinatorId, Nanos, PartitionId};
use hcc_core::{ExecutionEngine, RequestGenerator};
use hcc_storage::MemLog;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU32, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::Thread;
use std::time::Instant;

enum SharedActor<E: ExecutionEngine> {
    Coordinator(Box<CoordinatorActor<E>>),
    Membership(MembershipActor),
}

/// A shared actor and its mail. The actor rides in its own mailbox: the
/// worker that pops its ready token takes it out along with the mail and
/// puts it back when it unschedules, so holding it needs no second lock.
struct Mailbox<E: ExecutionEngine> {
    queue: VecDeque<Msg<E>>,
    /// True while the actor is on the ready list or being stepped — the
    /// single-enqueuer invariant that keeps it on one worker at a time.
    scheduled: bool,
    actor: Option<SharedActor<E>>,
}

/// What the rest of the system can touch of one worker. Padded as a unit.
struct Port<E: ExecutionEngine> {
    inbox: Mutex<Vec<OutMsg<E>>>,
    /// Raised before the pre-park re-check; a publisher that swaps it off
    /// owns the wake.
    parked: AtomicBool,
    /// The worker's thread, set before it first raises `parked`. Parking is
    /// `std::thread::park`, whose sticky token keeps a wake that lands
    /// before the sleeper sleeps.
    thread: OnceLock<Thread>,
    /// Local-queue length as of the owner's last poll (hang dump only).
    local_len: AtomicUsize,
}

struct Shared<W: RequestGenerator> {
    ports: Vec<CachePadded<Port<W::Engine>>>,
    /// The coordinator shards, then the membership actor.
    mail: Vec<CachePadded<Mutex<Mailbox<W::Engine>>>>,
    /// Scheduled shared actors, each with the worker that published the
    /// token (`None`: driver or timer).
    ready: Mutex<VecDeque<(usize, Option<usize>)>>,
    /// Undelivered messages — see the module docs on quiescence.
    pending: CachePadded<AtomicI64>,
    /// Set by the driver once `pending` hits zero; parked workers exit.
    shutdown: AtomicBool,
    ctl: RunControl,
    /// The generator, for clients of one that does not split into
    /// per-client shares; the rest hold their own.
    workload: Mutex<W>,
    epoch: Instant,
    slots_per_group: usize,
    /// Current primary slot per group. Read and written by the group's
    /// home worker alone (hence `Relaxed`); atomic only for the hang dump.
    membership: Vec<CachePadded<AtomicU32>>,
    /// The failure plan's wall-clock mail, delivered by the tick thread.
    /// Counted in `pending` while held.
    timed: TimedMail<W::Engine>,
}

impl<W: RequestGenerator> Shared<W> {
    /// Home worker of an owned destination; `None` for a shared actor.
    fn home(&self, m: &OutMsg<W::Engine>) -> Option<usize> {
        let group = match (m.dest, &m.msg) {
            (ActorId::Client(c), _) => c.as_usize(),
            (ActorId::Partition(p) | ActorId::Replica(p, _), _) => p.as_usize(),
            (ActorId::Control, Msg::Promoted { partition, .. } | Msg::Rejoin { partition, .. }) => {
                partition.as_usize()
            }
            (ActorId::Control, _) => unreachable!("control mail is Promoted or Rejoin"),
            (ActorId::Coordinator(_) | ActorId::Membership, _) => return None,
        };
        Some(group % self.ports.len())
    }

    /// Wake worker `w` if it is parked (or about to park). Returns true
    /// if this call owned the wake.
    fn wake(&self, w: usize) -> bool {
        let port = &self.ports[w];
        let won = port.parked.load(Ordering::SeqCst) && port.parked.swap(false, Ordering::SeqCst);
        if won {
            port.thread.get().expect("set before parking").unpark();
        }
        won
    }

    /// Put a newly scheduled shared actor on the ready list. Any parked
    /// worker but the publisher may run it; with none parked, whoever loops
    /// first (the publisher included) pops it.
    fn schedule(&self, idx: usize, publisher: Option<usize>) {
        self.ready.lock().push_back((idx, publisher));
        let _ = (0..self.ports.len()).any(|w| publisher != Some(w) && self.wake(w));
    }

    /// Count and publish messages from outside the pool (driver, timer).
    fn inject(
        &self,
        outbox: &mut Outbox<W::Engine>,
        msgs: impl Iterator<Item = OutMsg<W::Engine>>,
    ) {
        let sent = msgs.map(|m| outbox.push(self, m)).count() as i64;
        self.pending.fetch_add(sent, Ordering::SeqCst);
        outbox.publish(self, None);
    }

    /// One screen of scheduling state for the hang watchdog.
    fn dump(&self) -> String {
        let pending = self.pending.load(Ordering::SeqCst);
        let mut s = format!("pending {pending} ready {:?}\n", self.ready.lock());
        for (w, p) in self.ports.iter().enumerate() {
            let (parked, inbox) = (p.parked.load(Ordering::SeqCst), p.inbox.lock().len());
            let local = p.local_len.load(Ordering::Relaxed);
            let _ = writeln!(s, "worker {w}: parked {parked} inbox {inbox} local {local}");
        }
        for (i, mb) in self.mail.iter().enumerate() {
            let mb = mb.lock();
            let (mail, sched, held) = (mb.queue.len(), mb.scheduled, mb.actor.is_none());
            let _ = writeln!(s, "shared {i}: mail {mail} scheduled {sched} held {held}");
        }
        let primaries = self.membership.iter().map(|m| m.load(Ordering::Relaxed));
        let _ = writeln!(s, "membership {:?}", primaries.collect::<Vec<_>>());
        s
    }
}

/// Routed but unpublished messages of one sender (a worker, the timer or
/// the driver).
struct Outbox<E: ExecutionEngine> {
    to_worker: Vec<Vec<OutMsg<E>>>,
    to_shared: Vec<OutMsg<E>>,
}

impl<E: ExecutionEngine> Outbox<E> {
    fn new(workers: usize) -> Self {
        Outbox {
            to_worker: (0..workers).map(|_| Vec::new()).collect(),
            to_shared: Vec::new(),
        }
    }

    fn push<W: RequestGenerator<Engine = E>>(&mut self, shared: &Shared<W>, m: OutMsg<E>) {
        match shared.home(&m) {
            Some(w) => self.to_worker[w].push(m),
            None => self.to_shared.push(m),
        }
    }

    /// Make everything pushed so far visible, one inbox lock per
    /// destination worker; the caller has already counted it in `pending`.
    /// Worker-bound buffers go first (ordering rule 2).
    fn publish<W: RequestGenerator<Engine = E>>(&mut self, shared: &Shared<W>, me: Option<usize>) {
        for (w, buf) in self.to_worker.iter_mut().enumerate() {
            if !buf.is_empty() {
                shared.ports[w].inbox.lock().append(buf);
                if me != Some(w) {
                    shared.wake(w);
                }
            }
        }
        for m in self.to_shared.drain(..) {
            let idx = match m.dest {
                ActorId::Coordinator(k) => k.as_usize(),
                _ => shared.mail.len() - 1,
            };
            let mut mb = shared.mail[idx].lock();
            mb.queue.push_back(m.msg);
            if !mb.scheduled {
                mb.scheduled = true;
                drop(mb);
                shared.schedule(idx, me);
            }
        }
    }
}

/// The actors one worker owns: its clients and its replicas.
type Owned<W> = (
    Vec<ClientActor<W>>,
    Vec<ReplicaActor<<W as RequestGenerator>::Engine>>,
);

/// One worker thread's private state: the actors it owns and their queue.
struct Worker<'a, W: RequestGenerator> {
    shared: &'a Shared<W>,
    me: usize,
    /// Client `c` of the run sits at `c / workers`.
    clients: Vec<ClientActor<W>>,
    /// Slot `s` of group `g` sits at `(g / workers) * slots_per_group + s`.
    replicas: Vec<ReplicaActor<W::Engine>>,
    local: VecDeque<OutMsg<W::Engine>>,
    /// Ready shared actor taken by the last poll.
    token: Option<usize>,
    outbox: Outbox<W::Engine>,
    /// Scratch: one step's outputs, the swapped-out inbox, a shared
    /// actor's swapped-out mail.
    out: Vec<OutMsg<W::Engine>>,
    mail_in: Vec<OutMsg<W::Engine>>,
    shared_mail: VecDeque<Msg<W::Engine>>,
    /// The one clock reading per step: this step's `now`, and the end of
    /// the previous step's busy interval.
    now: Nanos,
    /// Units of `pending` held for messages this batch has consumed beyond
    /// those it has produced; returned when the batch ends.
    surplus: i64,
    /// The run keeps a durable log: the end of a batch closes the
    /// group-commit batches of this worker's primaries.
    logging: bool,
    stats: WorkerStats,
}

impl<W: RequestGenerator> Worker<'_, W>
where
    W::Engine: Send + 'static,
    <W::Engine as ExecutionEngine>::Fragment: Send,
    <W::Engine as ExecutionEngine>::Output: Send,
{
    fn run(mut self) -> (Owned<W>, WorkerStats) {
        let port = &self.shared.ports[self.me];
        let thread = std::thread::current();
        port.thread.set(thread).expect("one thread per worker");
        loop {
            self.stats.loops += 1;
            if !self.poll() {
                // Nothing runnable: raise the flag *first*, then poll
                // again. A publisher either sees the flag (and wakes us)
                // or published before the re-check (and we find it).
                port.parked.store(true, Ordering::SeqCst);
                if !self.poll() {
                    if self.shared.shutdown.load(Ordering::SeqCst) {
                        break;
                    }
                    self.stats.parks += 1;
                    std::thread::park();
                    // A waker claimed the flag, or the shutdown broadcast
                    // left it raised; clear it and rescan.
                    port.parked.store(false, Ordering::SeqCst);
                    self.now = now_ns(self.shared.epoch);
                    continue;
                }
                port.parked.store(false, Ordering::SeqCst);
            }
            self.work();
        }
        ((self.clients, self.replicas), self.stats)
    }

    /// Take one ready shared actor and the whole inbox. True if there is
    /// anything to step.
    fn poll(&mut self) -> bool {
        let sh = self.shared;
        let popped = sh.ready.lock().pop_front();
        if let Some((idx, publisher)) = popped {
            self.stats.steals += u64::from(publisher.is_some_and(|p| p != self.me));
            self.token = Some(idx);
        }
        let port = &sh.ports[self.me];
        std::mem::swap(&mut *port.inbox.lock(), &mut self.mail_in);
        self.local.extend(self.mail_in.drain(..));
        port.local_len.store(self.local.len(), Ordering::Relaxed);
        self.token.is_some() || !self.local.is_empty()
    }

    fn work(&mut self) {
        if let Some(idx) = self.token.take() {
            self.run_shared(idx);
        }
        // The batch is what the queue holds now; what these steps send to
        // this worker's own actors waits for the next one.
        for _ in 0..self.local.len() {
            let OutMsg { dest, msg } = self.local.pop_front().expect("counted above");
            self.step_owned(dest, msg);
            self.finish_step(true);
        }
        if self.logging {
            self.close_log_batches();
        }
        if self.surplus > 0 {
            let sh = self.shared;
            sh.pending.fetch_sub(self.surplus, Ordering::SeqCst);
            self.surplus = 0;
        }
    }

    /// Close the step that just filled `out`: count the outputs, make them
    /// visible, read the clock.
    fn finish_step(&mut self, owned: bool) {
        let sh = self.shared;
        // Quiescence: the consumed message's unit of `pending`, and any
        // surplus from earlier steps of the batch, pass to the outputs;
        // only a shortfall is an RMW (subtracting a negative surplus).
        self.surplus += 1 - self.out.len() as i64;
        if self.surplus < 0 {
            sh.pending.fetch_sub(self.surplus, Ordering::SeqCst);
            self.surplus = 0;
        }
        // Ordering rule 1: an owned actor's mail for this worker's actors
        // stays local; a shared actor's goes through the inbox.
        for m in self.out.drain(..) {
            if owned && sh.home(&m) == Some(self.me) {
                self.local.push_back(m);
            } else {
                self.outbox.push(sh, m);
            }
        }
        self.outbox.publish(sh, Some(self.me));
        // One clock reading ends this step's busy interval and is the next
        // step's `now`.
        let t = now_ns(sh.epoch);
        self.stats.busy_ns += t.0 - self.now.0;
        self.now = t;
        self.stats.steps += 1;
    }

    /// The batch is over and there is nothing more to hand the partitions:
    /// sync what their primaries committed during it, and publish what
    /// that releases the way a step's outputs are — except that no message
    /// was consumed, so the released results take their units of `pending`
    /// from the steps that parked them (the batch's surplus). Kept apart
    /// from [`finish_step`](Self::finish_step) rather than sharing its body:
    /// the shared form cost the workloads that never log ±3 % depending on
    /// how it was inlined (`micro_mp`, `ycsbe_lock`; ten pairs each way).
    fn close_log_batches(&mut self) {
        let sh = self.shared;
        for at in 0..self.replicas.len() {
            self.replicas[at].on_drained(&mut self.out);
            if self.out.is_empty() {
                continue;
            }
            self.surplus -= self.out.len() as i64;
            if self.surplus < 0 {
                sh.pending.fetch_sub(self.surplus, Ordering::SeqCst);
                self.surplus = 0;
            }
            for m in self.out.drain(..) {
                if sh.home(&m) == Some(self.me) {
                    self.local.push_back(m);
                } else {
                    self.outbox.push(sh, m);
                }
            }
            self.outbox.publish(sh, Some(self.me));
        }
    }

    fn step_owned(&mut self, dest: ActorId, msg: Msg<W::Engine>) {
        let sh = self.shared;
        match dest {
            ActorId::Client(c) => {
                let ctx = ClientCtx {
                    workload: &sh.workload,
                    ctl: &sh.ctl,
                };
                self.clients[c.as_usize() / sh.ports.len()].step(
                    msg,
                    self.now,
                    &ctx,
                    &mut self.out,
                );
            }
            // Ordering rule 2: the logical address resolves here, at the
            // group's home, and the flip arrives as a message.
            ActorId::Partition(p) => {
                let primary = sh.membership[p.as_usize()].load(Ordering::Relaxed);
                self.step_replica(p, primary, msg);
            }
            ActorId::Replica(p, slot) => self.step_replica(p, slot, msg),
            ActorId::Control => self.step_control(msg),
            ActorId::Coordinator(_) | ActorId::Membership => {
                unreachable!("shared actors receive through their mailboxes")
            }
        }
    }

    /// Mail for the driver itself, once per failover: kept out of the
    /// step's hot body.
    #[cold]
    fn step_control(&mut self, msg: Msg<W::Engine>) {
        let sh = self.shared;
        match msg {
            Msg::Promoted { partition, slot } => {
                sh.membership[partition.as_usize()].store(slot, Ordering::Relaxed);
            }
            rejoin => match sh.timed.rejoin(self.now, rejoin) {
                Some(m) => self.out.push(m),
                // Held for the tick thread: the consumed message's unit of
                // `pending` passes to it.
                None => self.surplus -= 1,
            },
        }
    }

    fn step_replica(&mut self, group: PartitionId, slot: u32, msg: Msg<W::Engine>) {
        let sh = self.shared;
        let at = (group.as_usize() / sh.ports.len()) * sh.slots_per_group + slot as usize;
        self.replicas[at].step(msg, self.now, &sh.ctl, &mut self.out);
        self.stats.pinned_steps += 1;
    }

    /// Step a scheduled shared actor through a snapshot of its mail, then
    /// unschedule it or hand it back to the ready list.
    fn run_shared(&mut self, idx: usize) {
        let sh = self.shared;
        let mut actor = {
            let mut mb = sh.mail[idx].lock();
            std::mem::swap(&mut mb.queue, &mut self.shared_mail);
            mb.actor.take().expect("a ready shared actor is at rest")
        };
        while let Some(msg) = self.shared_mail.pop_front() {
            match &mut actor {
                SharedActor::Coordinator(c) => {
                    c.step(msg, self.now, &mut self.out);
                }
                SharedActor::Membership(m) => m.step(msg, &mut self.out),
            }
            self.finish_step(false);
        }
        let mut mb = sh.mail[idx].lock();
        mb.actor = Some(actor);
        if mb.queue.is_empty() {
            mb.scheduled = false;
        } else {
            // Mail arrived meanwhile: back of the ready list, so other
            // shared actors and this worker's own batch get their turn.
            drop(mb);
            sh.schedule(idx, Some(self.me));
        }
    }
}

/// Run `cfg` with every actor multiplexed onto a pool of `workers` threads
/// that own their clients and partitions. `workers == 0` means auto: the
/// host's available parallelism.
pub(crate) fn run<W, B>(
    workers: usize,
    cfg: &RuntimeConfig,
    mut workload: W,
    build_engine: B,
) -> RuntimeReport<W::Engine>
where
    W: RequestGenerator + Send + 'static,
    W::Engine: Send + 'static,
    <W::Engine as ExecutionEngine>::Fragment: Send + 'static,
    <W::Engine as ExecutionEngine>::Output: Send + 'static,
    B: Fn(PartitionId) -> W::Engine,
{
    let system = &cfg.system;
    let workers = if workers > 0 {
        workers
    } else {
        std::thread::available_parallelism().map_or(1, usize::from)
    };
    let n = system.partitions as usize;
    let slots = system.replication.max(1) as usize;
    let clients = system.clients as usize;
    let actors = build_actors(
        system,
        cfg.mode,
        cfg.failure,
        &mut workload,
        build_engine,
        || Box::new(MemLog::new()),
    );
    let timed = TimedMail::new(cfg.failure);

    // Owned actors, dealt to their home workers in index order.
    let mut owned: Vec<Owned<W>> = (0..workers).map(|_| (Vec::new(), Vec::new())).collect();
    for (c, actor) in actors.clients.into_iter().enumerate() {
        owned[c % workers].0.push(actor);
    }
    for (at, actor) in actors.replicas.into_iter().enumerate() {
        owned[(at / slots) % workers].1.push(actor);
    }

    // Shared actors: coordinator shards, then membership.
    let shards = actors.coordinators.len();
    let at_rest = |actor| {
        CachePadded::new(Mutex::new(Mailbox {
            queue: VecDeque::new(),
            scheduled: false,
            actor: Some(actor),
        }))
    };
    let mut mail: Vec<_> = actors
        .coordinators
        .into_iter()
        .map(|coord| at_rest(SharedActor::Coordinator(Box::new(coord))))
        .collect();
    mail.push(at_rest(SharedActor::Membership(actors.membership)));

    let shared = Arc::new(Shared {
        ports: (0..workers)
            .map(|_| {
                CachePadded::new(Port {
                    inbox: Mutex::new(Vec::new()),
                    parked: AtomicBool::new(false),
                    thread: OnceLock::new(),
                    local_len: AtomicUsize::new(0),
                })
            })
            .collect(),
        mail,
        ready: Mutex::new(VecDeque::new()),
        pending: CachePadded::new(AtomicI64::new(timed.len() as i64)),
        shutdown: AtomicBool::new(false),
        ctl: RunControl::new(clients, cfg.mode),
        workload: Mutex::new(workload),
        epoch: Instant::now(),
        slots_per_group: slots,
        membership: (0..n)
            .map(|_| CachePadded::new(AtomicU32::new(0)))
            .collect(),
        timed,
    });

    // Worker pool: each thread takes its actors and gives them back.
    let logging = system.durability.is_some();
    let mut handles = Vec::new();
    for (me, (clients, replicas)) in owned.into_iter().enumerate() {
        let shared = shared.clone();
        handles.push(std::thread::spawn(move || {
            Worker {
                shared: &shared,
                me,
                clients,
                replicas,
                local: VecDeque::new(),
                token: None,
                outbox: Outbox::new(workers),
                out: Vec::new(),
                mail_in: Vec::new(),
                shared_mail: VecDeque::new(),
                now: now_ns(shared.epoch),
                surplus: 0,
                logging,
                stats: WorkerStats::default(),
            }
            .run()
        }));
    }

    // Tick timer, for whoever the plan says needs ticks, and courier of
    // the failure plan's wall-clock mail. Ticks until every client has
    // retired (after which no transaction can be waiting on a lock or a
    // cross-shard chain); delivers timed mail until the run has drained
    // (`pending` counts it while it waits). Clients are ticked only
    // while at least one is actually parked in a backoff
    // (`backoff_waiters`), so an idle system sends nothing and the
    // workers stay parked.
    let timer_stop = Arc::new(AtomicBool::new(false));
    let plan = TickPlan::new(system);
    let to = |dest, msg| OutMsg { dest, msg };
    let ticking = plan.partitions || plan.coordinators || plan.clients;
    let timer = (ticking || cfg.failure.is_some()).then(|| {
        let shared = shared.clone();
        let stop = timer_stop.clone();
        std::thread::spawn(move || {
            let mut outbox = Outbox::new(workers);
            let mut due = Vec::new();
            loop {
                let now = now_ns(shared.epoch);
                let nap = match shared.timed.next_due() {
                    Some(at) => at.saturating_sub(now).min(plan.every),
                    None => plan.every,
                };
                std::thread::sleep(nap.into());
                let stopping = stop.load(Ordering::SeqCst);
                if stopping && shared.pending.load(Ordering::SeqCst) == 0 {
                    break;
                }
                if !stopping {
                    let backoff = plan.clients && shared.ctl.backoff_waiters() > 0;
                    let parts = (0..n).filter(|_| plan.partitions);
                    let coords = (0..shards).filter(|_| plan.coordinators);
                    let waiters = (0..clients).filter(|_| backoff);
                    let ticks = parts
                        .map(|p| ActorId::Partition(PartitionId(p as u32)))
                        .chain(coords.map(|k| ActorId::Coordinator(CoordinatorId(k as u32))))
                        .chain(waiters.map(|c| ActorId::Client(ClientId(c as u32))))
                        .map(|dest| to(dest, Msg::Tick));
                    shared.inject(&mut outbox, ticks);
                }
                // Counted in `pending` since it was handed over.
                shared.timed.take_due(now_ns(shared.epoch), &mut due);
                for m in due.drain(..) {
                    outbox.push(&shared, m);
                }
                outbox.publish(&shared, None);
            }
        })
    });

    // Kick every client.
    let kicks = (0..clients).map(|c| to(ActorId::Client(ClientId(c as u32)), Msg::Start));
    shared.inject(&mut Outbox::new(workers), kicks);

    let started = Instant::now();
    measure(cfg.mode, &shared.ctl);
    // Clients finish their in-flight transactions and retire.
    let pending = || shared.pending.load(Ordering::SeqCst);
    let live = || shared.ctl.live_clients.load(Ordering::SeqCst);
    drain_until(&shared.ctl, pending, || live() == 0, || shared.dump());
    let elapsed = started.elapsed();
    // No transactions in flight: stop the ticks, then drain the
    // trailing decisions, commit records, and (after an injected
    // failure) the promote/recover chain — all of which the pending
    // count covers, timed mail included.
    timer_stop.store(true, Ordering::SeqCst);
    drain_until(&shared.ctl, pending, || pending() == 0, || shared.dump());
    if let Some(t) = timer {
        t.join().expect("timer thread");
    }
    if cfg.failure.is_some() {
        assert!(
            shared.ctl.recovery_done.load(Ordering::SeqCst),
            "injected failure never finished recovering — \
             was the crash threshold reachable for this workload?"
        );
    }
    shared.shutdown.store(true, Ordering::SeqCst);
    for port in &shared.ports {
        // A worker yet to name its thread has yet to park, and reads
        // the flag first.
        port.thread.get().inspect(|t| t.unpark());
    }

    // Harvest: the workers hand their actors back.
    let mut harvest = Harvest::new();
    let mut worker_stats = Vec::new();
    for h in handles {
        let ((clients, replicas), stats) = h.join().expect("worker thread");
        worker_stats.push(stats);
        for c in clients {
            harvest.client(&c.into_stats());
        }
        for r in replicas {
            harvest.replica(r.into_parts());
        }
    }
    for mb in &shared.mail {
        if let Some(SharedActor::Coordinator(c)) = &mb.lock().actor {
            harvest.coordinator(c);
        }
    }
    let mut report = harvest.finish(&shared.ctl, window_secs(cfg.mode, elapsed), n);
    report.workers = worker_stats;
    report
}
