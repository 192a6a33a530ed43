//! A phase-shifting microbenchmark for the §5.7 adaptive scheme
//! selection: the workload's character changes mid-run, so no single
//! pinned scheme is right for the whole run.
//!
//! Each phase is a full [`MicroConfig`] mix (mp-fraction, conflicts,
//! aborts, rounds) over the *same* key space and client population, and
//! every client advances through the phase schedule by its own request
//! count — the switching signal is the work itself, never wall-clock, so
//! generation stays deterministic per seed across the simulator and both
//! runtime backends.
//!
//! The stock three-phase schedule ([`PhasedMicroWorkload::standard`])
//! picks its mixes from the advisor calibration sweep so each phase has a
//! *different* empirical winner with a clear margin:
//!
//! 1. **conflicted one-round** (mp 0.3, conflict 0.8) — speculation wins:
//!    conflicts are irrelevant when every pair is assumed conflicting,
//!    and locking pays for its lock manager.
//! 2. **two-round general** (mp 0.3, two rounds) — locking wins: §4.2's
//!    speculation rule cannot speculate multi-round transactions, while
//!    locking overlaps their stalls.
//! 3. **conflicted aborts** (mp 0.02, conflict 0.8, abort 0.2) — blocking
//!    wins: aborts make speculation cascade and conflicts choke the lock
//!    manager, while blocking's stalls are short at very low mp. (The mp
//!    is deliberately tiny: blocking-country is where the other schemes'
//!    overheads don't pay, which is inherently a low-contrast regime —
//!    at higher mp the §6 model and the empirical winner part ways.)

use crate::micro::{MicroConfig, MicroEngine, MicroFragment, MicroOutput, MicroWorkload};
use crate::per_client::PerClient;
use hcc_common::{ClientId, PartitionId};
use hcc_core::{Request, RequestGenerator};

/// One phase: a microbenchmark mix and how many requests each client
/// issues under it before moving on.
#[derive(Debug, Clone, Copy)]
pub struct Phase {
    /// Phase label for reports.
    pub name: &'static str,
    pub mp_fraction: f64,
    pub conflict_prob: f64,
    pub abort_prob: f64,
    pub two_round: bool,
    /// Requests per client in this phase (the last phase also absorbs any
    /// overflow, so a run longer than the schedule stays in it).
    pub requests_per_client: u64,
}

impl Phase {
    /// The phase's mix as a standalone [`MicroConfig`] (for pinned-scheme
    /// baseline runs of a single phase).
    pub fn micro_config(&self, partitions: u32, clients: u32, seed: u64) -> MicroConfig {
        MicroConfig {
            partitions,
            clients,
            mp_fraction: self.mp_fraction,
            conflict_prob: self.conflict_prob,
            abort_prob: self.abort_prob,
            two_round: self.two_round,
            ..MicroConfig {
                seed,
                ..Default::default()
            }
        }
    }
}

/// The microbenchmark with a per-client phase schedule.
pub struct PhasedMicroWorkload {
    /// One generator per phase, over the same key space (identical
    /// partitions/clients/seed, differing only in mix knobs).
    generators: Vec<MicroWorkload>,
    phases: Vec<Phase>,
    /// Cumulative per-client request count at which each phase ends.
    ends: Vec<u64>,
    /// Requests issued so far, per client.
    issued: PerClient<u64>,
}

impl PhasedMicroWorkload {
    pub fn new(partitions: u32, clients: u32, seed: u64, phases: Vec<Phase>) -> Self {
        assert!(!phases.is_empty(), "a phased workload needs phases");
        let generators = phases
            .iter()
            .map(|ph| MicroWorkload::new(ph.micro_config(partitions, clients, seed)))
            .collect();
        let mut ends = Vec::with_capacity(phases.len());
        let mut acc = 0u64;
        for ph in &phases {
            assert!(ph.requests_per_client > 0, "empty phase");
            acc += ph.requests_per_client;
            ends.push(acc);
        }
        PhasedMicroWorkload {
            generators,
            phases,
            ends,
            issued: PerClient::new(clients, |_| 0),
        }
    }

    /// The stock three-phase schedule (see module docs): speculation
    /// country, then locking country, then blocking country.
    pub fn standard(partitions: u32, clients: u32, seed: u64, per_phase: u64) -> Self {
        let phase = |name, mp, conflict, abort, two_round| Phase {
            name,
            mp_fraction: mp,
            conflict_prob: conflict,
            abort_prob: abort,
            two_round,
            requests_per_client: per_phase,
        };
        PhasedMicroWorkload::new(
            partitions,
            clients,
            seed,
            vec![
                phase("conflicted-one-round", 0.3, 0.8, 0.0, false),
                phase("two-round-general", 0.3, 0.0, 0.0, true),
                phase("conflicted-aborts", 0.02, 0.8, 0.2, false),
            ],
        )
    }

    pub fn phases(&self) -> &[Phase] {
        &self.phases
    }

    /// Total requests per client across the whole schedule.
    pub fn total_requests_per_client(&self) -> u64 {
        *self.ends.last().expect("non-empty")
    }

    /// Which phase the `k`-th request (0-based) of a client falls in.
    pub fn phase_of(&self, k: u64) -> usize {
        self.ends
            .iter()
            .position(|&end| k < end)
            .unwrap_or(self.phases.len() - 1)
    }

    /// Build the preloaded engine for one partition. The preload depends
    /// only on the client population and key-space constants, so every
    /// phase sees the same store.
    pub fn build_engine(&self, partition: PartitionId) -> MicroEngine {
        self.generators[0].build_engine(partition)
    }
}

impl RequestGenerator for PhasedMicroWorkload {
    type Engine = MicroEngine;

    fn next_request(&mut self, client: ClientId) -> Request<MicroFragment, MicroOutput> {
        let issued = self.issued.get(client.0);
        let k = *issued;
        *issued += 1;
        let phase = self.phase_of(k);
        self.generators[phase].next_request(client)
    }

    fn for_client(&mut self, client: ClientId) -> Option<Self> {
        Some(PhasedMicroWorkload {
            generators: self
                .generators
                .iter_mut()
                .map(|g| g.for_client(client))
                .collect::<Option<_>>()?,
            phases: self.phases.clone(),
            ends: self.ends.clone(),
            issued: self.issued.share(client.0),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clients_advance_through_phases_by_request_count() {
        let w = PhasedMicroWorkload::standard(2, 4, 7, 10);
        assert_eq!(w.total_requests_per_client(), 30);
        assert_eq!(w.phase_of(0), 0);
        assert_eq!(w.phase_of(9), 0);
        assert_eq!(w.phase_of(10), 1);
        assert_eq!(w.phase_of(29), 2);
        // Overflow stays in the last phase.
        assert_eq!(w.phase_of(1_000), 2);
    }

    #[test]
    fn phase_mixes_differ_and_generation_is_deterministic() {
        let mut a = PhasedMicroWorkload::standard(2, 4, 7, 5);
        let mut b = PhasedMicroWorkload::standard(2, 4, 7, 5);
        let mut mp_by_phase = [0u32; 3];
        for k in 0..15u64 {
            for c in 0..4 {
                let ra = a.next_request(ClientId(c));
                let rb = b.next_request(ClientId(c));
                assert_eq!(
                    format!("{ra:?}"),
                    format!("{rb:?}"),
                    "same seed, same stream"
                );
                if matches!(ra, Request::MultiPartition { .. }) {
                    mp_by_phase[a.phase_of(k)] += 1;
                }
            }
        }
        // Phase knobs actually took: the two-round phase produces
        // multi-round MP procedures, the abort phase can_abort requests.
        let mut c0 = PhasedMicroWorkload::standard(2, 1, 7, 1000);
        let mut saw_two_round = false;
        for k in 0..2000u64 {
            let req = c0.next_request(ClientId(0));
            if let Request::MultiPartition { procedure, .. } = req {
                if k >= 1000 {
                    use hcc_core::Step;
                    if let Step::Round { is_final, .. } = procedure.step(&[]) {
                        assert!(!is_final, "phase 2 MP transactions are two-round");
                        saw_two_round = true;
                    }
                }
            }
        }
        assert!(saw_two_round, "phase 2 produced no MP transactions");
    }

    #[test]
    fn engines_preload_identically_across_phases() {
        let w = PhasedMicroWorkload::standard(2, 4, 7, 5);
        let single = MicroWorkload::new(w.phases()[2].micro_config(2, 4, 7));
        assert_eq!(
            w.build_engine(PartitionId(1)).fingerprint(),
            single.build_engine(PartitionId(1)).fingerprint(),
            "phase mixes must share one key space"
        );
    }
}
