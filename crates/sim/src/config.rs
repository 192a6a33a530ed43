//! What a simulated run is asked to do.

use hcc_common::{Nanos, PartitionId, SystemConfig};
use hcc_runtime::RunMode;
use std::time::Duration;

/// Simulation parameters: the system under test plus the measurement
/// protocol (the paper uses 15 s warm-up and 60 s measurement; scaled-down
/// virtual windows give the same steady-state numbers in a fraction of the
/// host time, and the bench harness verifies window-insensitivity).
#[derive(Debug, Clone)]
pub struct SimConfig {
    pub system: SystemConfig,
    /// The runtime's measurement protocol, in virtual time: a timed window
    /// ([`with_window`](Self::with_window)) or fixed work per client.
    pub mode: RunMode,
    /// Keep a backup per partition that costs no virtual time, exposed for
    /// state comparison (the paper's §3.2 backups replay the commit order
    /// one transaction at a time, so primary ≡ backup doubles as a
    /// serializability check). With `system.replication == 1` the backup
    /// is a real `ReplicaActor` co-located with its primary: mail inside
    /// the group is delivered at once and for free. With
    /// `system.replication >= 2` the backups exist anyway, remote, and
    /// every `Commit` / `CommitAck` pays the network.
    pub shadow_replica: bool,
    /// Fault injection: from the given time on the network drops every
    /// message addressed to the partition (§3.3's failure model: "the
    /// transaction causes one partition to crash or the network splits
    /// during execution").
    pub fail_partition: Option<(Nanos, PartitionId)>,
    /// When set, the central coordinator aborts transactions pending
    /// longer than this (the 2PC recovery path for participant failure).
    pub coordinator_timeout: Option<Nanos>,
    /// Replicated fault injection (requires `shadow_replica`): kill the
    /// primary at the given time and let the production protocol run —
    /// promote, fence, rejoin from a snapshot, catch up from the log.
    pub failover: Option<SimFailover>,
}

/// Parameters of a simulated kill → promote → recover scenario.
#[derive(Debug, Clone, Copy)]
pub struct SimFailover {
    pub at: Nanos,
    pub partition: PartitionId,
    /// Extra virtual delay on the membership actor's `Rejoin` to the
    /// failed node (how long the node stays down).
    pub rejoin_delay: Nanos,
}

impl SimConfig {
    pub fn new(system: SystemConfig) -> Self {
        SimConfig {
            system,
            mode: RunMode::Timed {
                warmup: Duration::from_millis(200),
                measure: Duration::from_millis(1000),
            },
            shadow_replica: false,
            fail_partition: None,
            coordinator_timeout: None,
            failover: None,
        }
    }

    /// Crash `partition` at time `at` and enable coordinator expiry of
    /// stalled transactions.
    pub fn with_partition_failure(mut self, at: Nanos, partition: PartitionId) -> Self {
        self.fail_partition = Some((at, partition));
        self.coordinator_timeout = Some(Nanos::from_millis(2));
        self
    }

    pub fn with_window(mut self, warmup: Nanos, measure: Nanos) -> Self {
        self.mode = RunMode::Timed {
            warmup: Duration::from_nanos(warmup.0),
            measure: Duration::from_nanos(measure.0),
        };
        self
    }

    pub fn with_shadow(mut self) -> Self {
        self.shadow_replica = true;
        self
    }

    /// Kill `partition`'s primary at `at`, promote its replica, and
    /// rejoin the failed node `rejoin_delay` later (enables the replica).
    pub fn with_failover(mut self, at: Nanos, partition: PartitionId, rejoin_delay: Nanos) -> Self {
        self.shadow_replica = true;
        self.failover = Some(SimFailover {
            at,
            partition,
            rejoin_delay,
        });
        self
    }
}
