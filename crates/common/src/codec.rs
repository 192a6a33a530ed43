//! Compact binary encoding for command-log records.
//!
//! The durable command log (ISSUE 6) persists one [`CommitRecord`] per
//! committed transaction per partition; replaying the log re-executes the
//! records through the same [`ReplicaCore`](../..) machinery backups use.
//! That requires the workload fragment payloads — which are otherwise
//! opaque to the protocol layer — to round-trip through bytes.
//!
//! [`LogEncode`] is a deliberately tiny hand-rolled codec rather than a
//! serde format: the encoding is a pure function of the value (no field
//! names, no self-description), which keeps log images byte-deterministic
//! across runs — the property the crash-point fingerprint oracle leans
//! on. Integers are little-endian fixed-width; variable-length sequences
//! carry a `u32` length prefix.
//!
//! Decoding is *total*: every decoder returns `None` on malformed or
//! truncated input instead of panicking, because recovery feeds these
//! decoders bytes that may end mid-record (a torn tail write).
//!
//! [`CommitRecord`]: crate::msg::CommitRecord

use crate::config::Scheme;
use crate::ids::{ClientId, CoordinatorId, CoordinatorRef, PartitionId, TxnId};
use crate::msg::{CommitRecord, FragmentTask, SchemeSwitch};
use std::sync::Arc;

/// Binary round-tripping for values stored in the durable command log.
///
/// Implementations must be deterministic (equal values encode to equal
/// bytes) and total on decode (malformed input yields `None`, never a
/// panic). `decode` consumes its input slice in place so composite
/// decoders simply chain field decoders.
pub trait LogEncode: Sized {
    /// Append this value's encoding to `out`.
    fn encode(&self, out: &mut Vec<u8>);
    /// Parse one value from the front of `input`, advancing it past the
    /// consumed bytes. `None` if the input is truncated or malformed.
    fn decode(input: &mut &[u8]) -> Option<Self>;
}

/// Encode a value into a fresh buffer (convenience for tests and logs).
pub fn encode_to_vec<T: LogEncode>(value: &T) -> Vec<u8> {
    let mut out = Vec::new();
    value.encode(&mut out);
    out
}

/// Decode a value that must consume the entire buffer.
pub fn decode_exact<T: LogEncode>(mut input: &[u8]) -> Option<T> {
    let v = T::decode(&mut input)?;
    input.is_empty().then_some(v)
}

#[inline]
fn take<'a>(input: &mut &'a [u8], n: usize) -> Option<&'a [u8]> {
    if input.len() < n {
        return None;
    }
    let (head, tail) = input.split_at(n);
    *input = tail;
    Some(head)
}

macro_rules! int_impl {
    ($($t:ty),*) => {$(
        impl LogEncode for $t {
            #[inline]
            fn encode(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            #[inline]
            fn decode(input: &mut &[u8]) -> Option<Self> {
                let bytes = take(input, std::mem::size_of::<$t>())?;
                Some(<$t>::from_le_bytes(bytes.try_into().ok()?))
            }
        }
    )*};
}

int_impl!(u8, u16, u32, u64, i32, i64);

impl LogEncode for bool {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(*self as u8);
    }
    fn decode(input: &mut &[u8]) -> Option<Self> {
        match take(input, 1)?[0] {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }
}

/// The sequence encoding — a `u32` length, then each item — that every
/// sequence type shares, so a payload can change how it holds its items
/// (`Vec`, `Arc<[T]>`, inline) without moving a byte of the log.
pub fn encode_slice<T: LogEncode>(items: &[T], out: &mut Vec<u8>) {
    (items.len() as u32).encode(out);
    for item in items {
        item.encode(out);
    }
}

impl<T: LogEncode> LogEncode for Vec<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        encode_slice(self, out);
    }
    fn decode(input: &mut &[u8]) -> Option<Self> {
        let n = u32::decode(input)? as usize;
        // Guard against absurd lengths from corrupt input: each element
        // consumes at least one byte, so `n` can never exceed what's left.
        if n > input.len() {
            return None;
        }
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            v.push(T::decode(input)?);
        }
        Some(v)
    }
}

impl<T: LogEncode> LogEncode for Arc<[T]> {
    fn encode(&self, out: &mut Vec<u8>) {
        encode_slice(self, out);
    }
    fn decode(input: &mut &[u8]) -> Option<Self> {
        Vec::decode(input).map(Arc::from)
    }
}

/// The text encoding — a `u32` byte length, then the bytes — that every
/// string type shares, for the same reason as [`encode_slice`].
fn encode_str(text: &str, out: &mut Vec<u8>) {
    (text.len() as u32).encode(out);
    out.extend_from_slice(text.as_bytes());
}

impl LogEncode for String {
    fn encode(&self, out: &mut Vec<u8>) {
        encode_str(self, out);
    }
    fn decode(input: &mut &[u8]) -> Option<Self> {
        let n = u32::decode(input)? as usize;
        let bytes = take(input, n)?;
        String::from_utf8(bytes.to_vec()).ok()
    }
}

impl LogEncode for Arc<str> {
    fn encode(&self, out: &mut Vec<u8>) {
        encode_str(self, out);
    }
    fn decode(input: &mut &[u8]) -> Option<Self> {
        let n = u32::decode(input)? as usize;
        std::str::from_utf8(take(input, n)?).ok().map(Arc::from)
    }
}

impl<T: LogEncode> LogEncode for Option<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.encode(out);
            }
        }
    }
    fn decode(input: &mut &[u8]) -> Option<Self> {
        match take(input, 1)?[0] {
            0 => Some(None),
            1 => Some(Some(T::decode(input)?)),
            _ => None,
        }
    }
}

macro_rules! newtype_id_impl {
    ($($t:ty: $inner:ty),*) => {$(
        impl LogEncode for $t {
            #[inline]
            fn encode(&self, out: &mut Vec<u8>) {
                self.0.encode(out);
            }
            #[inline]
            fn decode(input: &mut &[u8]) -> Option<Self> {
                Some(Self(<$inner>::decode(input)?))
            }
        }
    )*};
}

newtype_id_impl!(TxnId: u64, ClientId: u32, PartitionId: u32, CoordinatorId: u32);

impl LogEncode for CoordinatorRef {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            CoordinatorRef::Central(k) => {
                out.push(0);
                k.encode(out);
            }
            CoordinatorRef::Client(c) => {
                out.push(1);
                c.encode(out);
            }
        }
    }
    fn decode(input: &mut &[u8]) -> Option<Self> {
        match take(input, 1)?[0] {
            0 => Some(CoordinatorRef::Central(CoordinatorId::decode(input)?)),
            1 => Some(CoordinatorRef::Client(ClientId::decode(input)?)),
            _ => None,
        }
    }
}

impl<F: LogEncode> LogEncode for FragmentTask<F> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.txn.encode(out);
        self.coordinator.encode(out);
        self.client.encode(out);
        self.fragment.encode(out);
        self.multi_partition.encode(out);
        self.last_fragment.encode(out);
        self.round.encode(out);
        self.can_abort.encode(out);
    }
    fn decode(input: &mut &[u8]) -> Option<Self> {
        Some(FragmentTask {
            txn: TxnId::decode(input)?,
            coordinator: CoordinatorRef::decode(input)?,
            client: ClientId::decode(input)?,
            fragment: F::decode(input)?,
            multi_partition: bool::decode(input)?,
            last_fragment: bool::decode(input)?,
            round: u32::decode(input)?,
            can_abort: bool::decode(input)?,
        })
    }
}

impl LogEncode for Scheme {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(match self {
            Scheme::Blocking => 0,
            Scheme::Speculative => 1,
            Scheme::Locking => 2,
            Scheme::Occ => 3,
        });
    }
    fn decode(input: &mut &[u8]) -> Option<Self> {
        match take(input, 1)?[0] {
            0 => Some(Scheme::Blocking),
            1 => Some(Scheme::Speculative),
            2 => Some(Scheme::Locking),
            3 => Some(Scheme::Occ),
            _ => None,
        }
    }
}

impl LogEncode for SchemeSwitch {
    fn encode(&self, out: &mut Vec<u8>) {
        self.epoch.encode(out);
        self.scheme.encode(out);
    }
    fn decode(input: &mut &[u8]) -> Option<Self> {
        Some(SchemeSwitch {
            epoch: u32::decode(input)?,
            scheme: Scheme::decode(input)?,
        })
    }
}

impl<F: LogEncode> LogEncode for CommitRecord<F> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.seq.encode(out);
        self.txn.encode(out);
        self.frags.encode(out);
        self.scheme_switch.encode(out);
    }
    fn decode(input: &mut &[u8]) -> Option<Self> {
        Some(CommitRecord {
            seq: u64::decode(input)?,
            txn: TxnId::decode(input)?,
            frags: Vec::decode(input)?,
            scheme_switch: Option::decode(input)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: LogEncode + PartialEq + std::fmt::Debug>(v: T) {
        let bytes = encode_to_vec(&v);
        assert_eq!(decode_exact::<T>(&bytes), Some(v));
    }

    #[test]
    fn primitives_roundtrip() {
        roundtrip(0u8);
        roundtrip(u64::MAX);
        roundtrip(-42i64);
        roundtrip(true);
        roundtrip(String::from("warehouse-7"));
        roundtrip(vec![1u32, 2, 3]);
        roundtrip(Arc::<[u32]>::from([1, 2, 3]));
        assert_eq!(
            encode_to_vec(&Arc::<[u32]>::from([1, 2, 3])),
            encode_to_vec(&vec![1u32, 2, 3]),
            "a shared slice encodes as the Vec it replaces"
        );
        roundtrip(Arc::<str>::from("BARBARBAR"));
        assert_eq!(
            encode_to_vec(&Arc::<str>::from("BARBARBAR")),
            encode_to_vec(&String::from("BARBARBAR")),
            "shared text encodes as the String it replaces"
        );
        assert_eq!(decode_exact::<Arc<str>>(&[1, 0, 0, 0, 0xFF]), None);
        roundtrip(Option::<u32>::None);
        roundtrip(Some(9u64));
    }

    #[test]
    fn ids_roundtrip() {
        roundtrip(TxnId::new(ClientId(3), 77));
        roundtrip(CoordinatorRef::Central(CoordinatorId(2)));
        roundtrip(CoordinatorRef::Client(ClientId(9)));
    }

    #[test]
    fn fragment_task_roundtrip() {
        let task = FragmentTask {
            txn: TxnId::new(ClientId(1), 2),
            coordinator: CoordinatorRef::Client(ClientId(1)),
            client: ClientId(1),
            fragment: vec![5u64, 6, 7],
            multi_partition: true,
            last_fragment: false,
            round: 3,
            can_abort: true,
        };
        let bytes = encode_to_vec(&task);
        let back: FragmentTask<Vec<u64>> = decode_exact(&bytes).unwrap();
        assert_eq!(back.txn, task.txn);
        assert_eq!(back.fragment, task.fragment);
        assert_eq!(back.round, 3);
    }

    #[test]
    fn commit_record_roundtrip() {
        let rec = CommitRecord {
            seq: 41,
            txn: TxnId::new(ClientId(2), 5),
            frags: vec![FragmentTask {
                txn: TxnId::new(ClientId(2), 5),
                coordinator: CoordinatorRef::Central(CoordinatorId(0)),
                client: ClientId(2),
                fragment: 123u64,
                multi_partition: false,
                last_fragment: true,
                round: 0,
                can_abort: false,
            }],
            scheme_switch: None,
        };
        let bytes = encode_to_vec(&rec);
        let back: CommitRecord<u64> = decode_exact(&bytes).unwrap();
        assert_eq!(back.seq, 41);
        assert_eq!(back.frags.len(), 1);
        assert_eq!(back.frags[0].fragment, 123);
        assert_eq!(back.scheme_switch, None);
    }

    #[test]
    fn scheme_switch_roundtrip() {
        for scheme in [
            Scheme::Blocking,
            Scheme::Speculative,
            Scheme::Locking,
            Scheme::Occ,
        ] {
            roundtrip(scheme);
            roundtrip(SchemeSwitch { epoch: 7, scheme });
        }
        // An unknown scheme tag is malformed, not a panic.
        assert!(decode_exact::<Scheme>(&[4]).is_none());
        let rec = CommitRecord {
            seq: 9,
            txn: TxnId::new(ClientId(1), 1),
            frags: Vec::<FragmentTask<u64>>::new(),
            scheme_switch: Some(SchemeSwitch {
                epoch: 3,
                scheme: Scheme::Locking,
            }),
        };
        let bytes = encode_to_vec(&rec);
        let back: CommitRecord<u64> = decode_exact(&bytes).unwrap();
        assert_eq!(
            back.scheme_switch,
            Some(SchemeSwitch {
                epoch: 3,
                scheme: Scheme::Locking,
            })
        );
    }

    #[test]
    fn truncated_input_decodes_to_none() {
        let rec = CommitRecord {
            seq: 1,
            txn: TxnId::new(ClientId(0), 0),
            frags: vec![FragmentTask {
                txn: TxnId::new(ClientId(0), 0),
                coordinator: CoordinatorRef::Client(ClientId(0)),
                client: ClientId(0),
                fragment: 7u64,
                multi_partition: false,
                last_fragment: true,
                round: 0,
                can_abort: false,
            }],
            scheme_switch: None,
        };
        let bytes = encode_to_vec(&rec);
        for cut in 0..bytes.len() {
            assert!(
                decode_exact::<CommitRecord<u64>>(&bytes[..cut]).is_none(),
                "truncation at {cut} must not decode"
            );
        }
    }

    #[test]
    fn corrupt_tag_bytes_decode_to_none() {
        // An invalid bool / enum tag is malformed, not a panic.
        assert!(decode_exact::<bool>(&[2]).is_none());
        assert!(decode_exact::<CoordinatorRef>(&[9, 0, 0, 0, 0]).is_none());
        // A length prefix larger than the remaining input is rejected
        // without attempting a huge allocation.
        let mut bytes = Vec::new();
        u32::MAX.encode(&mut bytes);
        assert!(decode_exact::<Vec<u64>>(&bytes).is_none());
    }
}
