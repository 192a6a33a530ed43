//! Each client draws from its own share of a generator that splits
//! (`RequestGenerator::for_client`), and the shared generator behind the
//! lock is the fallback for one that does not. Both drivers, both paths.
//!
//! The fallback also runs wherever a test's generator records state across
//! clients: `Committed` in `durability_crash_sweep.rs`
//! (`failed_append_never_reads_as_committed`, on the simulator) and
//! `SplitWorkload` in `failure_injection.rs`.

use hcc_common::{ClientId, Scheme, SystemConfig, TxnId};
use hcc_core::{Request, RequestGenerator};
use hcc_runtime::{run, BackendChoice, RuntimeConfig, RuntimeReport};
use hcc_workloads::micro::{MicroConfig, MicroEngine, MicroFragment, MicroOutput, MicroWorkload};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const CLIENTS: u32 = 8;
const REQUESTS: u64 = 40;

/// What every instance of one probe counted.
#[derive(Default)]
struct Counts {
    shares: AtomicU64,
    requests: AtomicU64,
    results: AtomicU64,
    /// Requests the whole (unsplit) generator served.
    shared_requests: AtomicU64,
}

/// The microbenchmark, splitting if `splits`. Once the whole generator has
/// handed out a share it panics if asked anything again, and a share
/// panics if asked for another client.
struct Probe {
    inner: MicroWorkload,
    splits: bool,
    /// Set on the whole generator by its first split.
    split_off: bool,
    /// The client a share belongs to (`None`: the whole generator).
    owner: Option<ClientId>,
    counts: Arc<Counts>,
}

impl Probe {
    fn new(splits: bool, counts: Arc<Counts>) -> Self {
        Probe {
            inner: MicroWorkload::new(micro()),
            splits,
            split_off: false,
            owner: None,
            counts,
        }
    }

    fn asked(&self, c: ClientId, what: &str) {
        assert!(
            !self.split_off,
            "{what} for {c} reached the shared generator after it split"
        );
        assert!(
            self.owner.is_none_or(|o| o == c),
            "{what} for {c} reached {:?}'s share",
            self.owner
        );
    }
}

impl RequestGenerator for Probe {
    type Engine = MicroEngine;

    fn next_request(&mut self, c: ClientId) -> Request<MicroFragment, MicroOutput> {
        self.asked(c, "a request");
        self.counts.requests.fetch_add(1, Ordering::Relaxed);
        if self.owner.is_none() {
            self.counts.shared_requests.fetch_add(1, Ordering::Relaxed);
        }
        self.inner.next_request(c)
    }

    fn on_result(&mut self, c: ClientId, txn: TxnId, committed: bool) {
        self.asked(c, "a result");
        self.counts.results.fetch_add(1, Ordering::Relaxed);
        self.inner.on_result(c, txn, committed);
    }

    fn for_client(&mut self, c: ClientId) -> Option<Self> {
        if !self.splits {
            return None;
        }
        self.split_off = true;
        self.counts.shares.fetch_add(1, Ordering::Relaxed);
        Some(Probe {
            inner: self.inner.for_client(c)?,
            splits: true,
            split_off: false,
            owner: Some(c),
            counts: self.counts.clone(),
        })
    }
}

fn micro() -> MicroConfig {
    MicroConfig {
        partitions: 2,
        clients: CLIENTS,
        mp_fraction: 0.3,
        abort_prob: 0.05,
        seed: 0xC11E,
        ..Default::default()
    }
}

/// A fixed-work run of the probe; what it counted.
fn probed(
    scheme: Scheme,
    backend: BackendChoice,
    splits: bool,
) -> (RuntimeReport<MicroEngine>, Arc<Counts>) {
    let system = SystemConfig::new(scheme)
        .with_partitions(2)
        .with_clients(CLIENTS)
        .with_seed(0xC11E);
    let cfg = RuntimeConfig::fixed_work(system, backend, REQUESTS);
    let counts = Arc::new(Counts::default());
    let builder = MicroWorkload::new(micro());
    let report = run(cfg, Probe::new(splits, counts.clone()), move |p| {
        builder.build_engine(p)
    });
    (report, counts)
}

const BACKENDS: [BackendChoice; 2] = [
    BackendChoice::Sim { shadow: false },
    BackendChoice::Multiplexed { workers: 2 },
];

/// Every client is handed a share once, every request and every result
/// goes to that share, and the whole generator is never asked again — on
/// the simulator and on the reactor, with the coordinator's 2PC and with
/// the locking clients' own.
#[test]
fn a_split_generator_is_never_asked_again() {
    let work = u64::from(CLIENTS) * REQUESTS;
    for backend in BACKENDS {
        for scheme in [Scheme::Speculative, Scheme::Locking] {
            let (report, counts) = probed(scheme, backend, true);
            let at = format!("{backend}/{scheme}");
            assert_eq!(report.committed + report.user_aborts, work, "{at}");
            assert_eq!(counts.shares.load(Ordering::Relaxed), u64::from(CLIENTS));
            assert_eq!(counts.requests.load(Ordering::Relaxed), work, "{at}");
            assert_eq!(counts.results.load(Ordering::Relaxed), work, "{at}");
            assert_eq!(counts.shared_requests.load(Ordering::Relaxed), 0, "{at}");
        }
    }
}

/// A generator that does not split serves every request from behind the
/// lock, and the simulator's run is the same run either way: the shares
/// yield each client's stream unchanged.
#[test]
fn a_generator_that_does_not_split_runs_behind_the_lock() {
    let work = u64::from(CLIENTS) * REQUESTS;
    for backend in BACKENDS {
        let (report, counts) = probed(Scheme::Speculative, backend, false);
        assert_eq!(report.committed + report.user_aborts, work, "{backend}");
        assert_eq!(counts.shares.load(Ordering::Relaxed), 0);
        assert_eq!(counts.shared_requests.load(Ordering::Relaxed), work);
        assert_eq!(counts.results.load(Ordering::Relaxed), work);
    }
    let fingerprints = |splits| {
        let (r, _) = probed(Scheme::Speculative, BACKENDS[0], splits);
        let engines: Vec<u64> = r.engines.iter().map(|e| e.fingerprint()).collect();
        (engines, r.committed, r.user_aborts, r.committed_mp)
    };
    assert_eq!(fingerprints(true), fingerprints(false));
}
