//! Identifiers for the processes and objects of the system.

use std::fmt;

/// Identifies a data partition (and the single thread that owns it).
///
/// The paper's prototype runs one primary process per partition; we use the
/// same identifier for the primary and (together with a replica index) for
/// its backups.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, serde::Serialize)]
pub struct PartitionId(pub u32);

impl PartitionId {
    #[inline]
    pub fn as_usize(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for PartitionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

/// Identifies a closed-loop client process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ClientId(pub u32);

impl ClientId {
    #[inline]
    pub fn as_usize(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ClientId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "C{}", self.0)
    }
}

/// Globally unique transaction identifier.
///
/// The low 32 bits are a per-client sequence number and the high 32 bits the
/// issuing client, so ids are unique without coordination. Multi-partition
/// ordering is *not* derived from this id: the central coordinator assigns a
/// separate global order (see `hcc-core::coordinator`), exactly as in the
/// paper, where the coordinator "assigns them a global order".
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TxnId(pub u64);

impl TxnId {
    /// Build a transaction id from the issuing client and its local sequence
    /// number.
    #[inline]
    pub fn new(client: ClientId, seq: u32) -> Self {
        TxnId(((client.0 as u64) << 32) | seq as u64)
    }

    /// The client that issued this transaction.
    #[inline]
    pub fn client(self) -> ClientId {
        ClientId((self.0 >> 32) as u32)
    }

    /// The issuing client's local sequence number.
    #[inline]
    pub fn seq(self) -> u32 {
        self.0 as u32
    }
}

impl fmt::Display for TxnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}.{}", self.client().0, self.seq())
    }
}

/// Identifies one central-coordinator shard.
///
/// The paper evaluates a single central coordinator and names multiple
/// coordinators as future work; here the coordinator is sharded, with
/// clients statically partitioned across shards (`client % coordinators`).
/// Shard identity matters to the speculation protocol: §4.2.2's dependency
/// chains are only valid between transactions that share one coordinator,
/// so partitions compare `CoordinatorRef`s — which carry this id — before
/// releasing speculative results.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CoordinatorId(pub u32);

impl CoordinatorId {
    #[inline]
    pub fn as_usize(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for CoordinatorId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "K{}", self.0)
    }
}

/// Who is coordinating a multi-partition transaction.
///
/// Under the blocking and speculative schemes every multi-partition
/// transaction flows through a central coordinator shard (paper §3.3; the
/// paper models one shard). Under the locking scheme clients send
/// multi-partition transactions *directly* to the partitions and run
/// two-phase commit themselves (paper §4.3), so the coordinator of record
/// is the client.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CoordinatorRef {
    /// A central coordinator shard. The paper's singleton is shard 0 of 1.
    Central(CoordinatorId),
    /// A client acting as its own 2PC coordinator (locking scheme).
    Client(ClientId),
}

impl fmt::Display for CoordinatorRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoordinatorRef::Central(k) => write!(f, "coord{}", k.0),
            CoordinatorRef::Client(c) => write!(f, "coord@{c}"),
        }
    }
}

/// A lockable data item, as seen by the per-partition lock manager.
///
/// Lock keys are 64-bit values packed by the storage engines: TPC-C packs a
/// table tag and numeric primary key; the byte-string KV store hashes keys
/// with FNV-1a. A hash collision merely merges two lock granules (two items
/// sharing one lock), which can only add false conflicts, never remove true
/// ones, so safety is preserved.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LockKey(pub u64);

impl LockKey {
    /// FNV-1a hash of arbitrary bytes, for storage engines with non-numeric
    /// keys.
    #[inline]
    pub fn from_bytes(bytes: &[u8]) -> Self {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = OFFSET;
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(PRIME);
        }
        LockKey(h)
    }

    /// Pack a small table tag and a row key into one lock key.
    #[inline]
    pub fn packed(table: u8, row: u64) -> Self {
        debug_assert!(row < (1 << 56), "row key must fit in 56 bits");
        LockKey(((table as u64) << 56) | (row & ((1 << 56) - 1)))
    }
}

impl fmt::Display for LockKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn txn_id_roundtrip() {
        let t = TxnId::new(ClientId(7), 123);
        assert_eq!(t.client(), ClientId(7));
        assert_eq!(t.seq(), 123);
    }

    #[test]
    fn txn_id_unique_across_clients() {
        let a = TxnId::new(ClientId(1), 5);
        let b = TxnId::new(ClientId(2), 5);
        assert_ne!(a, b);
    }

    #[test]
    fn txn_id_orders_by_client_then_seq() {
        assert!(TxnId::new(ClientId(1), 9) < TxnId::new(ClientId(2), 0));
        assert!(TxnId::new(ClientId(1), 1) < TxnId::new(ClientId(1), 2));
    }

    #[test]
    fn lock_key_packed_separates_tables() {
        let a = LockKey::packed(1, 42);
        let b = LockKey::packed(2, 42);
        assert_ne!(a, b);
    }

    #[test]
    fn lock_key_fnv_differs_for_different_bytes() {
        assert_ne!(LockKey::from_bytes(b"abc"), LockKey::from_bytes(b"abd"));
        // FNV-1a of empty input is the offset basis.
        assert_eq!(LockKey::from_bytes(b"").0, 0xcbf2_9ce4_8422_2325);
    }

    #[test]
    fn display_forms() {
        assert_eq!(PartitionId(3).to_string(), "P3");
        assert_eq!(ClientId(9).to_string(), "C9");
        assert_eq!(TxnId::new(ClientId(2), 4).to_string(), "T2.4");
        assert_eq!(CoordinatorId(2).to_string(), "K2");
        assert_eq!(
            CoordinatorRef::Central(CoordinatorId(0)).to_string(),
            "coord0"
        );
        assert_eq!(CoordinatorRef::Client(ClientId(1)).to_string(), "coord@C1");
    }
}
