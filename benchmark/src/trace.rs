//! Spans recorded from outside the program: wrappers around the two
//! injectable seams ([`RequestGenerator`], [`ExecutionEngine`]) and a
//! [`span`] function the layer drives put around every public call they
//! make. Nothing in `crates/` is instrumented.
//!
//! Each thread records into its own pre-sized buffer (no cross-thread
//! traffic while measuring). The first [`SPAN_CAP`] spans of a thread are
//! kept for the trace file; every span, kept or not, is folded into a
//! per-name aggregate of count, total time and self time. A span's parent
//! is the span open on the same thread when it started; its self time is
//! its duration minus the durations of its direct children.

use crate::workloads::Inspect;
use hcc_common::{ClientId, LockKey, TxnId};
use hcc_core::{
    ExecOutcome, ExecutionEngine, Procedure, Request, RequestGenerator, RoundOutputs, Step,
};
use hcc_locking::LockMode;
use std::cell::RefCell;
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Spans kept per thread for the trace file (two reactor workers, the
/// drive thread and a recovery thread make ~200k in all); the rest are
/// aggregated only.
pub const SPAN_CAP: usize = 50_000;

/// `txn` of a span that belongs to no transaction (`lock_set` is asked of
/// a fragment, not a transaction).
pub const NO_TXN: u64 = u64::MAX;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    /// `TxnId` bits — the identifier all spans of one request share.
    pub txn: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same thread's buffer.
    pub parent: Option<u32>,
}

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Agg {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl std::ops::AddAssign for Agg {
    fn add_assign(&mut self, o: Agg) {
        self.count += o.count;
        self.total_ns += o.total_ns;
        self.self_ns += o.self_ns;
    }
}

struct Frame {
    name: &'static str,
    children_ns: u64,
    /// Where the span sits in `spans`, when it was kept.
    slot: Option<u32>,
}

/// One thread's spans. Takes explicit timestamps so tests can drive it.
/// `open` does the bookkeeping before the caller reads the start clock, so
/// a span's duration carries one clock read of bias, not the push too.
#[derive(Default)]
pub struct Recorder {
    pub spans: Vec<Span>,
    pub aggs: Vec<(&'static str, Agg)>,
    pub dropped: u64,
    stack: Vec<Frame>,
}

impl Recorder {
    pub fn open(&mut self, name: &'static str, txn: u64) {
        if self.spans.capacity() == 0 {
            self.spans.reserve_exact(SPAN_CAP);
        }
        let slot = if self.spans.len() < SPAN_CAP {
            self.spans.push(Span {
                name,
                txn,
                start_ns: 0,
                end_ns: 0,
                parent: self.stack.last().and_then(|f| f.slot),
            });
            Some((self.spans.len() - 1) as u32)
        } else {
            self.dropped += 1;
            None
        };
        self.stack.push(Frame {
            name,
            children_ns: 0,
            slot,
        });
    }

    pub fn close(&mut self, start_ns: u64, end_ns: u64) {
        let frame = self.stack.pop().expect("close without open");
        let total = end_ns.saturating_sub(start_ns);
        if let Some(slot) = frame.slot {
            let span = &mut self.spans[slot as usize];
            (span.start_ns, span.end_ns) = (start_ns, end_ns);
        }
        if let Some(parent) = self.stack.last_mut() {
            parent.children_ns += total;
        }
        let agg = match self.aggs.iter_mut().find(|(n, _)| *n == frame.name) {
            Some((_, agg)) => agg,
            None => {
                self.aggs.push((frame.name, Agg::default()));
                &mut self.aggs.last_mut().expect("just pushed").1
            }
        };
        *agg += Agg {
            count: 1,
            total_ns: total,
            self_ns: total.saturating_sub(frame.children_ns),
        };
    }
}

/// Hands a thread's recorder to [`SINK`] when the thread ends.
struct Local(Recorder);

impl Drop for Local {
    fn drop(&mut self) {
        // A poisoned sink means another thread panicked mid-push; the
        // run is already failing, and Drop must not panic on top of it.
        if let Ok(mut sink) = SINK.lock() {
            sink.push(std::mem::take(&mut self.0));
        }
    }
}

thread_local! {
    static LOCAL: RefCell<Local> = RefCell::new(Local(Recorder::default()));
}

static SINK: Mutex<Vec<Recorder>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();

fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Run `f` inside a span on this thread's recorder.
#[inline]
pub fn span<T>(name: &'static str, txn: u64, f: impl FnOnce() -> T) -> T {
    LOCAL.with(|l| l.borrow_mut().0.open(name, txn));
    let start = now_ns();
    let out = f();
    let end = now_ns();
    LOCAL.with(|l| l.borrow_mut().0.close(start, end));
    out
}

/// Everything recorded since the last call, across all threads that have
/// ended plus the calling thread. Call after the runtime has joined its
/// workers.
pub struct Trace {
    /// One buffer per recording thread.
    pub threads: Vec<Vec<Span>>,
    pub aggs: Vec<(&'static str, Agg)>,
    pub dropped: u64,
}

pub fn collect() -> Trace {
    let mine = LOCAL.with(|l| std::mem::take(&mut l.borrow_mut().0));
    let mut recorders = std::mem::take(&mut *SINK.lock().expect("a recording thread panicked"));
    recorders.push(mine);
    let mut trace = Trace {
        threads: Vec::new(),
        aggs: Vec::new(),
        dropped: 0,
    };
    for r in recorders {
        for (name, a) in r.aggs {
            match trace.aggs.iter_mut().find(|(n, _)| *n == name) {
                Some((_, t)) => *t += a,
                None => trace.aggs.push((name, a)),
            }
        }
        trace.dropped += r.dropped;
        if !r.spans.is_empty() {
            trace.threads.push(r.spans);
        }
    }
    trace
}

impl Trace {
    /// Aggregate of one span name (zeros when it never ran).
    pub fn agg(&self, name: &str) -> Agg {
        self.aggs
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, a)| *a)
            .unwrap_or_default()
    }

    /// Summed aggregate of every span name starting with `prefix`.
    pub fn agg_prefix(&self, prefix: &str) -> Agg {
        let mut sum = Agg::default();
        for (_, a) in self.aggs.iter().filter(|(n, _)| n.starts_with(prefix)) {
            sum += *a;
        }
        sum
    }
}

// Span names. The in-situ attribution sums by prefix: everything under
// `workloads.` is generator time, everything under `storage.` or
// `replica.` is engine time.
pub const GEN_NEXT: &str = "workloads.next_request";
pub const GEN_STEP: &str = "workloads.procedure_step";
pub const EXEC: &str = "storage.execute";
pub const EXEC_UNDO: &str = "storage.execute_undo";
pub const ROLLBACK: &str = "storage.rollback";
pub const FORGET: &str = "storage.forget";
pub const LOCK_SET: &str = "storage.lock_set";
pub const REPLICA_EXEC: &str = "replica.execute";
pub const REPLICA_FORGET: &str = "replica.forget";

/// A request generator that times `next_request` and every
/// `Procedure::step` of the requests it hands out.
pub struct TracedGen<W> {
    inner: W,
    /// Sequence number each client will give its next request's first
    /// attempt (ids are `client << 32 | attempt`, attempts count up from 0
    /// per client), so generator and procedure spans carry the same
    /// `TxnId` as the engine spans of that attempt.
    next_seq: Vec<u32>,
}

impl<W> TracedGen<W> {
    pub fn new(inner: W) -> Self {
        TracedGen {
            inner,
            next_seq: Vec::new(),
        }
    }
}

/// An engine that times every call the schedulers and the replica replay
/// make into storage.
pub struct TracedEngine<E> {
    pub inner: E,
    /// On a backup: its calls are replica replay, not scheduling.
    backup: bool,
}

impl<E> TracedEngine<E> {
    pub fn new(inner: E, backup: bool) -> Self {
        TracedEngine { inner, backup }
    }
}

struct TracedProcedure<F, R> {
    inner: Box<dyn Procedure<F, R>>,
    txn: u64,
}

impl<F, R> std::fmt::Debug for TracedProcedure<F, R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.inner.fmt(f)
    }
}

impl<F: 'static, R: 'static> Procedure<F, R> for TracedProcedure<F, R> {
    fn step(&self, prior: &[RoundOutputs<R>]) -> Step<F, R> {
        span(GEN_STEP, self.txn, || self.inner.step(prior))
    }

    fn clone_box(&self) -> Box<dyn Procedure<F, R>> {
        Box::new(TracedProcedure {
            inner: self.inner.clone_box(),
            txn: self.txn,
        })
    }
}

impl<W> RequestGenerator for TracedGen<W>
where
    W: RequestGenerator,
    <W::Engine as ExecutionEngine>::Fragment: 'static,
    <W::Engine as ExecutionEngine>::Output: 'static,
{
    type Engine = TracedEngine<W::Engine>;

    fn next_request(
        &mut self,
        client: ClientId,
    ) -> Request<<W::Engine as ExecutionEngine>::Fragment, <W::Engine as ExecutionEngine>::Output>
    {
        let seq = self.next_seq.get(client.as_usize()).copied().unwrap_or(0);
        let txn = TxnId::new(client, seq).0;
        match span(GEN_NEXT, txn, || self.inner.next_request(client)) {
            Request::MultiPartition {
                procedure,
                can_abort,
            } => Request::MultiPartition {
                procedure: Box::new(TracedProcedure {
                    inner: procedure,
                    txn,
                }),
                can_abort,
            },
            single => single,
        }
    }

    fn on_result(&mut self, client: ClientId, txn: TxnId, committed: bool) {
        let c = client.as_usize();
        if self.next_seq.len() <= c {
            self.next_seq.resize(c + 1, 0);
        }
        self.next_seq[c] = txn.seq().wrapping_add(1);
        self.inner.on_result(client, txn, committed);
    }
}

impl<E: ExecutionEngine> ExecutionEngine for TracedEngine<E> {
    type Fragment = E::Fragment;
    type Output = E::Output;

    fn execute(
        &mut self,
        txn: TxnId,
        fragment: &E::Fragment,
        undo: bool,
    ) -> ExecOutcome<E::Output> {
        let name = match (self.backup, undo) {
            (true, _) => REPLICA_EXEC,
            (false, true) => EXEC_UNDO,
            (false, false) => EXEC,
        };
        span(name, txn.0, || self.inner.execute(txn, fragment, undo))
    }

    fn rollback(&mut self, txn: TxnId) -> u32 {
        span(ROLLBACK, txn.0, || self.inner.rollback(txn))
    }

    fn forget(&mut self, txn: TxnId) -> u32 {
        let name = if self.backup { REPLICA_FORGET } else { FORGET };
        span(name, txn.0, || self.inner.forget(txn))
    }

    fn snapshot(&self) -> Self {
        TracedEngine::new(self.inner.snapshot(), self.backup)
    }

    fn lock_set(&self, fragment: &E::Fragment) -> Vec<(LockKey, LockMode)> {
        span(LOCK_SET, NO_TXN, || self.inner.lock_set(fragment))
    }
}

impl<E: Inspect> Inspect for TracedEngine<E> {
    fn fingerprint(&self) -> u64 {
        self.inner.fingerprint()
    }

    fn live_undo_buffers(&self) -> usize {
        self.inner.live_undo_buffers()
    }

    fn check_consistency(&self) -> Result<(), String> {
        self.inner.check_consistency()
    }

    fn keeps_ordered_index(&self) -> bool {
        self.inner.keeps_ordered_index()
    }
}

/// `collect` drains every thread's spans: tests that record through the
/// process-wide sink take this lock so one cannot drain the other's.
#[cfg(test)]
pub static TEST_SINK_LOCK: Mutex<()> = Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;

    fn agg_of(r: &Recorder, name: &str) -> Agg {
        r.aggs.iter().find(|(n, _)| *n == name).expect("span ran").1
    }

    #[test]
    fn self_time_subtracts_adjacent_children() {
        // parent [0, 100) with children [10, 30) and [30, 70).
        let mut r = Recorder::default();
        r.open("parent", 1);
        r.open("child", 1);
        r.close(10, 30);
        r.open("child", 1);
        r.close(30, 70);
        r.close(0, 100);
        assert_eq!(
            agg_of(&r, "parent"),
            Agg {
                count: 1,
                total_ns: 100,
                self_ns: 40
            }
        );
        assert_eq!(
            agg_of(&r, "child"),
            Agg {
                count: 2,
                total_ns: 60,
                self_ns: 60
            }
        );
        assert_eq!(r.spans[0].parent, None);
        assert_eq!(r.spans[1].parent, Some(0));
        assert_eq!(r.spans[2].parent, Some(0));
        assert_eq!((r.spans[2].start_ns, r.spans[2].end_ns), (30, 70));
    }

    #[test]
    fn self_time_subtracts_only_direct_children_when_nested() {
        // a [0, 100) > b [20, 80) > c [30, 50): a's self time loses b's
        // whole interval once, not b and c both.
        let mut r = Recorder::default();
        r.open("a", 7);
        r.open("b", 7);
        r.open("c", 7);
        r.close(30, 50);
        r.close(20, 80);
        r.close(0, 100);
        assert_eq!(agg_of(&r, "a").self_ns, 40);
        assert_eq!(agg_of(&r, "b").self_ns, 40);
        assert_eq!(agg_of(&r, "c").self_ns, 20);
        let self_sum: u64 = r.aggs.iter().map(|(_, a)| a.self_ns).sum();
        assert_eq!(self_sum, 100, "self times partition the root span");
        assert_eq!(r.spans[2].parent, Some(1));
    }

    #[test]
    fn spans_past_the_cap_are_aggregated_not_kept() {
        let mut r = Recorder::default();
        for i in 0..(SPAN_CAP as u64 + 10) {
            r.open("outer", i);
            r.open("inner", i);
            r.close(i * 10 + 2, i * 10 + 5);
            r.close(i * 10, i * 10 + 8);
        }
        assert_eq!(r.spans.len(), SPAN_CAP);
        assert_eq!(r.dropped, (SPAN_CAP as u64 + 10) * 2 - SPAN_CAP as u64);
        let outer = agg_of(&r, "outer");
        assert_eq!(outer.count, SPAN_CAP as u64 + 10);
        assert_eq!(outer.self_ns, outer.count * 5);
    }

    #[test]
    fn collect_merges_threads_and_drains() {
        let _sink = TEST_SINK_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        collect();
        span("test.collect", 1, || ());
        std::thread::spawn(|| {
            span("test.collect", 2, || span("test.collect.child", 2, || ()));
        })
        .join()
        .unwrap();
        let t = collect();
        assert_eq!(t.agg("test.collect").count, 2);
        assert_eq!(t.agg_prefix("test.collect").count, 3);
        assert_eq!(collect().agg("test.collect").count, 0, "collect drains");
    }
}
