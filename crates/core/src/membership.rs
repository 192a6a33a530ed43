//! The replication control plane: membership and epoch authority.
//!
//! PR 3 made the (then-singleton) central coordinator the membership
//! authority: it owned the per-group failover epochs and drove the
//! promote → rejoin protocol. With coordinators sharded (N shards, clients
//! statically partitioned), that authority cannot live inside any one
//! shard — every shard must agree on who a partition's primary is, and a
//! failover must abort in-flight transactions at *all* shards, not just
//! the one that happened to hear about it.
//!
//! [`MembershipCore`] is that authority, extracted into its own core: it
//! owns the epochs, decides promotions, and emits epoch-stamped
//! [`MembershipUpdate`]s that the drivers fan out — to the backend routing
//! table (flip the partition address to the promoted slot), to the failed
//! node (rejoin), and to every coordinator shard
//! ([`crate::coordinator::Coordinator::on_partition_failed`] consumes the
//! update: abort in-flight transactions touching the dead node and
//! re-deliver unacknowledged commit decisions).
//!
//! Failure *detection* stays modeled as reliable and immediate (the dying
//! node's last act is notifying this core), which keeps the
//! kill → promote → recover scenario deterministic. Like the rest of the
//! failover machinery, one failover per replica group per run is
//! supported: the promoted slot is always the first backup.

use hcc_common::{FxHashMap, PartitionId};

/// The epoch-stamped outcome of a primary failure, consumed by routing
/// tables, the failed node, and every coordinator shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MembershipUpdate {
    /// The replica group whose primary died.
    pub partition: PartitionId,
    /// The group's new membership epoch (0 = never failed over).
    pub epoch: u32,
    /// Slot promoted to primary (one failover per group per run: the
    /// first backup).
    pub new_primary_slot: u32,
    /// The failed slot, told to rejoin as a backup (§3.3).
    pub failed_slot: u32,
}

/// Membership/epoch state for every replica group, owned by exactly one
/// process per run (`hcc-runtime`'s membership actor).
#[derive(Debug, Default)]
pub struct MembershipCore {
    /// Failovers performed per group. Absent = epoch 0 (initial primary).
    epochs: FxHashMap<PartitionId, u32>,
}

impl MembershipCore {
    pub fn new() -> Self {
        Self::default()
    }

    /// A replica group's primary failed: bump its epoch and name the
    /// promoted slot. The caller fans the update out (routing flip,
    /// rejoin, per-shard coordinator notification).
    pub fn on_primary_failed(&mut self, partition: PartitionId) -> MembershipUpdate {
        let epoch = self.epochs.entry(partition).or_insert(0);
        *epoch += 1;
        MembershipUpdate {
            partition,
            epoch: *epoch,
            new_primary_slot: 1,
            failed_slot: 0,
        }
    }

    /// The current membership epoch of a replica group.
    pub fn epoch(&self, partition: PartitionId) -> u32 {
        self.epochs.get(&partition).copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failure_bumps_epoch_and_promotes_first_backup() {
        let mut m = MembershipCore::new();
        assert_eq!(m.epoch(PartitionId(3)), 0);
        let up = m.on_primary_failed(PartitionId(3));
        assert_eq!(
            up,
            MembershipUpdate {
                partition: PartitionId(3),
                epoch: 1,
                new_primary_slot: 1,
                failed_slot: 0,
            }
        );
        assert_eq!(m.epoch(PartitionId(3)), 1);
        assert_eq!(m.epoch(PartitionId(0)), 0, "other groups untouched");
    }

    #[test]
    fn epochs_are_per_group_and_monotone() {
        let mut m = MembershipCore::new();
        m.on_primary_failed(PartitionId(0));
        let up = m.on_primary_failed(PartitionId(0));
        assert_eq!(up.epoch, 2);
        assert_eq!(m.on_primary_failed(PartitionId(1)).epoch, 1);
    }
}
