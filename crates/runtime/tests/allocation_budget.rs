//! Per-transaction allocation budget of the steady-state transaction path.
//!
//! The paper's thesis is that per-transaction *overhead* decides
//! throughput; on the live runtime the largest overhead the latch-free
//! reactor left behind was `malloc` — and the worst kind, blocks allocated
//! on one worker and freed on the other, which glibc's per-thread caches
//! cannot serve. This test pins what the path costs now, so it cannot
//! creep back: a counting global allocator (allocations, `realloc`s, and
//! frees on a thread other than the one that allocated the block) runs
//! the benchmark's `micro_sp`, `micro_mp`, `ycsbe_lock` and `tpcc_durable`
//! configurations as fixed work on `multiplexed:2`, once at N and once at
//! 2N requests per client, and asserts on the *difference* — thread
//! spawns, engine loads and report assembly are the same in both runs and
//! cancel.
//!
//! It is alone in its test binary on purpose: a sibling test allocating
//! on another harness thread would land in the same counters. The cases
//! run from one `#[test]` so they cannot overlap each other either.

use hcc_common::{ClientId, DurabilityConfig, PartitionId, Scheme, SystemConfig};
use hcc_core::{ExecutionEngine, RequestGenerator};
use hcc_runtime::{run, BackendChoice, RuntimeConfig, RuntimeReport};
use hcc_workloads::micro::{MicroConfig, MicroWorkload};
use hcc_workloads::tpcc::{TpccConfig, TpccWorkload};
use hcc_workloads::ycsb::{YcsbEConfig, YcsbEWorkload};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static REALLOCS: AtomicU64 = AtomicU64::new(0);
static CROSS_THREAD_FREES: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Its address identifies the thread. Const-initialised and without a
    /// destructor, so reading it never allocates and never fails during
    /// thread teardown.
    static THREAD_MARK: u8 = const { 0 };
}

fn thread_token() -> usize {
    THREAD_MARK.with(|m| m as *const u8 as usize)
}

/// The system allocator with a header in front of every block naming the
/// thread that allocated it.
struct Counting;

/// Header size for a block of this layout: room for the owner token,
/// padded so the user pointer keeps the requested alignment.
fn header(layout: Layout) -> usize {
    layout.align().max(std::mem::size_of::<usize>())
}

fn with_header(layout: Layout, size: usize) -> Layout {
    let hdr = header(layout);
    Layout::from_size_align(size + hdr, hdr).expect("block size overflows with its header")
}

// SAFETY: every block handed out is `header(layout)` bytes into a System
// block of `with_header(layout, size)`, whose alignment is `header(layout)`
// (>= the requested alignment and >= that of `usize`), so the user pointer
// is aligned as requested and the owner token in front of it is an aligned,
// in-bounds `usize`. `dealloc` and `realloc` receive the layout the block
// was allocated with (the `GlobalAlloc` contract), recompute the same
// header size, and hand System back the base pointer with the layout it
// was allocated under. `realloc` keeps the alignment, so the header size
// does not change and System's copy carries the header along.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        let base = System.alloc(with_header(layout, layout.size()));
        if base.is_null() {
            return base;
        }
        base.cast::<usize>().write(thread_token());
        base.add(header(layout))
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        let base = ptr.sub(header(layout));
        if base.cast::<usize>().read() != thread_token() {
            CROSS_THREAD_FREES.fetch_add(1, Ordering::Relaxed);
        }
        System.dealloc(base, with_header(layout, layout.size()));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        REALLOCS.fetch_add(1, Ordering::Relaxed);
        let hdr = header(layout);
        let base = System.realloc(
            ptr.sub(hdr),
            with_header(layout, layout.size()),
            new_size + hdr,
        );
        if base.is_null() {
            return base;
        }
        // The block now belongs to whoever grew it.
        base.cast::<usize>().write(thread_token());
        base.add(hdr)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocator events, as totals or per transaction.
#[derive(Debug, Clone, Copy)]
struct Counts<T> {
    allocs: T,
    reallocs: T,
    cross_frees: T,
}

fn now() -> Counts<u64> {
    Counts {
        allocs: ALLOCS.load(Ordering::SeqCst),
        reallocs: REALLOCS.load(Ordering::SeqCst),
        cross_frees: CROSS_THREAD_FREES.load(Ordering::SeqCst),
    }
}

/// Events while `f` runs. Its value is returned rather than dropped, so
/// the caller decides whether tearing it down is part of the measurement.
fn measure<T>(f: impl FnOnce() -> T) -> (Counts<u64>, T) {
    let before = now();
    let value = f();
    let after = now();
    let counts = Counts {
        allocs: after.allocs - before.allocs,
        reallocs: after.reallocs - before.reallocs,
        cross_frees: after.cross_frees - before.cross_frees,
    };
    (counts, value)
}

const CLIENTS: u32 = 32;
/// Requests per client of the short run; the long run doubles it.
const N: u64 = 2_000;

/// One fixed-work run of the benchmark's shape: `system`'s scheme and
/// client count on 2 partitions and two reactor workers.
fn fixed_work<W>(
    system: SystemConfig,
    requests: u64,
    gen: W,
    load: impl Fn(PartitionId) -> W::Engine,
) -> RuntimeReport<W::Engine>
where
    W: RequestGenerator + Send + 'static,
    W::Engine: Send + 'static,
    <W::Engine as ExecutionEngine>::Fragment: Send + 'static,
    <W::Engine as ExecutionEngine>::Output: Send + 'static,
{
    let clients = u64::from(system.clients);
    let cfg = RuntimeConfig::fixed_work(
        system.with_partitions(2),
        BackendChoice::Multiplexed { workers: 2 },
        requests,
    );
    let r = run(cfg, gen, load);
    assert_eq!(
        r.clients.committed + r.clients.user_aborted,
        clients * requests,
        "wrong amount of work performed"
    );
    r
}

/// Steady-state events per transaction: the counts of a run of `2 * n`
/// requests from each of `clients` clients minus those of a run of `n`,
/// over the extra transactions. The report — the engines with every row
/// the run inserted — is dropped outside the measurement: tearing a store
/// down is not the transaction path. What the actors themselves retain (the
/// coordinator's decided-transaction history) is freed inside `run` by
/// whichever thread joins them, and does count.
fn per_txn<T>(clients: u32, n: u64, run_once: impl Fn(u64) -> T) -> Counts<f64> {
    // Once unmeasured: lazily initialised process state (thread-locals,
    // stdout, the first growth of allocator arenas) must not land in
    // either measured run.
    run_once(n / 10);
    let (short, _) = measure(|| run_once(n));
    let (long, _) = measure(|| run_once(2 * n));
    let extra = (u64::from(clients) * n) as f64;
    let per = |l: u64, s: u64| (l as f64 - s as f64) / extra;
    Counts {
        allocs: per(long.allocs, short.allocs),
        reallocs: per(long.reallocs, short.reallocs),
        cross_frees: per(long.cross_frees, short.cross_frees),
    }
}

fn micro(mp_fraction: f64, abort_prob: f64) -> Counts<f64> {
    let mc = MicroConfig {
        partitions: 2,
        clients: CLIENTS,
        keys_per_txn: 12,
        mp_fraction,
        abort_prob,
        seed: 7,
        ..MicroConfig::default()
    };
    let system = SystemConfig::new(Scheme::Speculative).with_clients(CLIENTS);
    per_txn(CLIENTS, N, |requests| {
        let loader = MicroWorkload::new(mc);
        fixed_work(system.clone(), requests, MicroWorkload::new(mc), |p| {
            loader.build_engine(p)
        })
    })
}

fn ycsbe_lock() -> Counts<f64> {
    let yc = YcsbEConfig {
        partitions: 2,
        clients: CLIENTS,
        mp_fraction: 0.1,
        seed: 7,
        ..YcsbEConfig::default()
    };
    let system = SystemConfig::new(Scheme::Locking).with_clients(CLIENTS);
    per_txn(CLIENTS, N, |requests| {
        let loader = YcsbEWorkload::new(yc);
        fixed_work(system.clone(), requests, YcsbEWorkload::new(yc), |p| {
            loader.build_engine(p)
        })
    })
}

/// TPC-C as the benchmark deploys it: 64 clients, a backup per partition
/// and the group-committed command log.
fn tpcc_durable() -> Counts<f64> {
    const TPCC_CLIENTS: u32 = 64;
    let tc = TpccConfig {
        seed: 7,
        ..TpccConfig::new(4, 2)
    };
    let system = SystemConfig::new(Scheme::Speculative)
        .with_clients(TPCC_CLIENTS)
        .with_replication(2)
        .with_durability(DurabilityConfig::default());
    per_txn(TPCC_CLIENTS, 500, |requests| {
        let loader = TpccWorkload::new(tc);
        fixed_work(system.clone(), requests, TpccWorkload::new(tc), |p| {
            loader.build_engine(p)
        })
    })
}

#[test]
fn steady_state_transactions_stay_within_their_allocation_budget() {
    // The allocator really does see which thread frees what.
    let (probe, ()) = measure(|| {
        let block = vec![ClientId(1); 64];
        std::thread::spawn(move || drop(block)).join().unwrap();
    });
    assert!(probe.allocs >= 1 && probe.cross_frees >= 1, "{probe:?}");

    // Budgets are what was reached plus ~10 % (parent commit: 4.0 / 0 /
    // 1.0, 13.0 / 0.28 / 2.7 and 9.3 / 2.2 / 1.3). Allocation counts
    // repeat to three digits. A "zero" realloc budget leaves room for the
    // handful of amortised growths (queues, the history map) that differ
    // between the two run lengths. Part of `micro_mp`'s cross-thread frees
    // depends on ordering — whether a partition or the client lets go of a
    // shared fragment last, and which worker runs the coordinator shard —
    // and was seen between 0.57 and 0.61, hence the wider margin there.
    // `tpcc_durable` (parent commit: 5.46 / 0.242 / 0.16) reaches 3.70 /
    // 0.248 / 0.16 with ORDER, NEW-ORDER and ORDER-LINE as per-district
    // arrays (no B-tree node per insert); its cross-thread frees are the
    // same kind — half its clients live on the other worker than their
    // warehouse, and either the client or the backup's commit record lets
    // go of the order lines last. `ycsbe_lock` (2.68–2.77 before) reads
    // 2.60–2.64 / 0.0006 / 0.0001 now that a client's own 2PC driver
    // keeps no record of what it decided (one `Vec` per commit, kept to
    // the end of the run and freed by whichever thread joins the actors).
    let cases = [
        (
            "micro_sp",
            micro(0.0, 0.0),
            Counts {
                allocs: 1.05,
                reallocs: 0.005,
                cross_frees: 0.01,
            },
        ),
        (
            "micro_mp",
            micro(0.3, 0.05),
            Counts {
                allocs: 3.5,
                reallocs: 0.005,
                cross_frees: 0.8,
            },
        ),
        (
            "ycsbe_lock",
            ycsbe_lock(),
            Counts {
                allocs: 2.9,
                reallocs: 0.005,
                cross_frees: 0.01,
            },
        ),
        (
            "tpcc_durable",
            tpcc_durable(),
            Counts {
                allocs: 4.1,
                reallocs: 0.27,
                cross_frees: 0.3,
            },
        ),
    ];
    let mut over = Vec::new();
    for (name, got, budget) in cases {
        println!(
            "{name}: {:.4} allocations, {:.4} reallocs, {:.4} cross-thread frees per txn",
            got.allocs, got.reallocs, got.cross_frees
        );
        if got.allocs > budget.allocs
            || got.reallocs > budget.reallocs
            || got.cross_frees > budget.cross_frees
        {
            over.push(format!("{name}: measured {got:.3?} exceeds {budget:?}"));
        }
    }
    assert!(over.is_empty(), "{}", over.join("\n"));
}
