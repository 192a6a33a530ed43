//! Injectable durable command log (ISSUE 6).
//!
//! The paper's system is memory-only: replication is the sole failure
//! story, and a correlated crash of a whole replica group loses every
//! committed transaction. This module adds the missing durability layer
//! as an *injectable* abstraction, so the same scheduler/group-commit
//! code runs against a real buffered file ([`FileLog`]) in the live
//! runtime and a deterministic in-memory log ([`MemLog`]) with injectable
//! fault modes — torn tail writes, stalled syncs, write errors — in the
//! simulator and the crash-point test sweep.
//!
//! # On-disk format
//!
//! The log is a flat sequence of framed records:
//!
//! ```text
//! [u32 payload_len (LE)] [u64 FNV-1a checksum of payload (LE)] [payload]
//! ```
//!
//! The payload is an encoded `CommitRecord` (see `hcc_common::codec`),
//! but the framing layer is payload-agnostic. A record is valid only if
//! its full frame is present *and* the checksum matches; recovery
//! ([`decode_frames`]) walks the log from the front and stops at the
//! first invalid frame, discarding it and everything after it — which is
//! exactly the torn-tail-write semantics of a crash mid-append: the
//! durable prefix survives, the partial record does not. Group commit
//! guarantees no *acknowledged* transaction is ever in that discarded
//! suffix.

use std::fs::File;
use std::io::{BufWriter, Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::{Arc, Mutex};

/// Bytes of framing per record: `u32` length + `u64` checksum.
pub const FRAME_HEADER: usize = 4 + 8;

/// FNV-1a over a byte slice — the same hash `LockKey::from_bytes` uses,
/// cheap and dependency-free. Not cryptographic; it detects torn/corrupt
/// tail writes, not an adversary.
#[inline]
pub fn checksum(bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// Why a log operation failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LogError {
    /// The underlying device rejected the write (injected fault, or a
    /// real I/O error in [`FileLog`]).
    WriteFailed,
    /// The sync did not complete (stalled device). The caller's
    /// stalled-log guard turns this into `AbortReason::LogStalled`.
    Stalled,
}

impl std::fmt::Display for LogError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LogError::WriteFailed => f.write_str("log write failed"),
            LogError::Stalled => f.write_str("log sync stalled"),
        }
    }
}

/// A durable append-only command log.
///
/// Records are identified by 1-based append index; `durable()` is the
/// highest index guaranteed to survive a crash (advanced by `sync`).
/// Implementations never reorder: index order is durability order is
/// replay order.
pub trait DurableLog {
    /// Append one framed record; returns its 1-based index. The record is
    /// NOT durable until a subsequent [`sync`](DurableLog::sync) covers it.
    fn append(&mut self, payload: &[u8]) -> Result<u64, LogError>;
    /// Make every appended record durable; returns the new durable
    /// watermark (== `appended()` on success).
    fn sync(&mut self) -> Result<u64, LogError>;
    /// Records appended so far.
    fn appended(&self) -> u64;
    /// Records guaranteed to survive a crash.
    fn durable(&self) -> u64;
    /// Byte image of the *durable* log — what recovery would read after a
    /// crash right now. (Appended-but-unsynced records are excluded; a
    /// torn-tail fault may append a partial frame, see [`MemLog`].)
    fn crash_image(&mut self) -> Vec<u8>;
}

/// A log behind a shared handle: the node that owns the log appends and
/// syncs through one clone while a harness (the simulator, a fault test)
/// keeps another to flip [`MemLog::fault`] mid-run and to read the images
/// back after a crash.
impl<L: DurableLog> DurableLog for Arc<Mutex<L>> {
    fn append(&mut self, payload: &[u8]) -> Result<u64, LogError> {
        self.lock().expect("log mutex poisoned").append(payload)
    }

    fn sync(&mut self) -> Result<u64, LogError> {
        self.lock().expect("log mutex poisoned").sync()
    }

    fn appended(&self) -> u64 {
        self.lock().expect("log mutex poisoned").appended()
    }

    fn durable(&self) -> u64 {
        self.lock().expect("log mutex poisoned").durable()
    }

    fn crash_image(&mut self) -> Vec<u8> {
        self.lock().expect("log mutex poisoned").crash_image()
    }
}

/// Split a log byte image into record payloads.
///
/// Walks frames from the front; stops at the first truncated or
/// checksum-corrupt frame. Returns the valid payloads and whether a torn
/// (partial/corrupt) tail was discarded.
pub fn decode_frames(mut bytes: &[u8]) -> (Vec<Vec<u8>>, bool) {
    let mut records = Vec::new();
    while bytes.len() >= FRAME_HEADER {
        let len = u32::from_le_bytes(bytes[0..4].try_into().unwrap()) as usize;
        let sum = u64::from_le_bytes(bytes[4..12].try_into().unwrap());
        let rest = &bytes[FRAME_HEADER..];
        if rest.len() < len {
            return (records, true); // torn: frame announces more than exists
        }
        let payload = &rest[..len];
        if checksum(payload) != sum {
            return (records, true); // corrupt tail write
        }
        records.push(payload.to_vec());
        bytes = &rest[len..];
    }
    (records, !bytes.is_empty())
}

/// Frame one payload (length + checksum header).
pub fn frame(payload: &[u8], out: &mut Vec<u8>) {
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&checksum(payload).to_le_bytes());
    out.extend_from_slice(payload);
}

// ---------------------------------------------------------------------
// FileLog
// ---------------------------------------------------------------------

/// A real buffered-file log for the live runtime: appends go through a
/// `BufWriter`, `sync` flushes and `sync_data`s — one device round-trip
/// per group-commit batch, which is the entire point of group commit.
pub struct FileLog {
    writer: BufWriter<File>,
    appended: u64,
    durable: u64,
    /// Byte length of the durable prefix (for `crash_image` read-back).
    durable_bytes: u64,
    pending_bytes: u64,
}

impl FileLog {
    /// Create (truncating) a log file.
    pub fn create(path: &Path) -> std::io::Result<Self> {
        let file = File::options()
            .create(true)
            .write(true)
            .read(true)
            .truncate(true)
            .open(path)?;
        Ok(FileLog {
            writer: BufWriter::new(file),
            appended: 0,
            durable: 0,
            durable_bytes: 0,
            pending_bytes: 0,
        })
    }
}

impl DurableLog for FileLog {
    fn append(&mut self, payload: &[u8]) -> Result<u64, LogError> {
        let mut buf = Vec::with_capacity(FRAME_HEADER + payload.len());
        frame(payload, &mut buf);
        self.writer
            .write_all(&buf)
            .map_err(|_| LogError::WriteFailed)?;
        self.appended += 1;
        self.pending_bytes += buf.len() as u64;
        Ok(self.appended)
    }

    fn sync(&mut self) -> Result<u64, LogError> {
        self.writer.flush().map_err(|_| LogError::WriteFailed)?;
        self.writer
            .get_ref()
            .sync_data()
            .map_err(|_| LogError::Stalled)?;
        self.durable = self.appended;
        self.durable_bytes += self.pending_bytes;
        self.pending_bytes = 0;
        Ok(self.durable)
    }

    fn appended(&self) -> u64 {
        self.appended
    }

    fn durable(&self) -> u64 {
        self.durable
    }

    fn crash_image(&mut self) -> Vec<u8> {
        // Read back the synced prefix. Buffered-but-unflushed bytes are by
        // definition not durable, so they are excluded even though the OS
        // may in fact have them.
        let _ = self.writer.flush();
        let file = self.writer.get_mut();
        let mut bytes = Vec::new();
        if file.seek(SeekFrom::Start(0)).is_ok() {
            let _ = file.read_to_end(&mut bytes);
            let _ = file.seek(SeekFrom::End(0));
        }
        bytes.truncate(self.durable_bytes as usize);
        bytes
    }
}

// ---------------------------------------------------------------------
// MemLog
// ---------------------------------------------------------------------

/// Injectable fault modes for [`MemLog`]. All off by default.
#[derive(Debug, Clone, Copy, Default)]
pub struct FaultMode {
    /// Fail every append after this many have succeeded.
    pub fail_appends_after: Option<u64>,
    /// Stall (fail with [`LogError::Stalled`]) every sync after this many
    /// have succeeded. `Some(0)` stalls from the first sync on.
    pub stall_syncs_after: Option<u64>,
    /// On [`crash_image`](DurableLog::crash_image), include a *partial*
    /// prefix of the first unsynced record — the torn tail write of a
    /// crash mid-append. Recovery must detect and discard it.
    pub torn_tail: bool,
}

/// Deterministic in-memory log for the simulator and tests: the byte
/// image is identical to what [`FileLog`] would persist, durability is an
/// explicit watermark, and faults are injectable.
pub struct MemLog {
    /// Framed bytes of all appended records.
    bytes: Vec<u8>,
    /// Byte offset of the end of each record's frame (index i = records
    /// `1..=i+1`), so any record-aligned prefix is addressable.
    ends: Vec<usize>,
    appended: u64,
    durable: u64,
    syncs: u64,
    pub fault: FaultMode,
}

impl MemLog {
    pub fn new() -> Self {
        MemLog {
            bytes: Vec::new(),
            ends: Vec::new(),
            appended: 0,
            durable: 0,
            syncs: 0,
            fault: FaultMode::default(),
        }
    }

    pub fn with_fault(fault: FaultMode) -> Self {
        let mut log = Self::new();
        log.fault = fault;
        log
    }

    /// Byte image of the full appended log (as if every record had been
    /// synced) — the oracle side of the crash tests.
    pub fn full_image(&self) -> Vec<u8> {
        self.bytes.clone()
    }

    /// Byte image of the first `n` records (record-aligned prefix).
    pub fn prefix_image(&self, n: u64) -> Vec<u8> {
        if n == 0 {
            return Vec::new();
        }
        let end = self.ends[(n as usize).min(self.ends.len()) - 1];
        self.bytes[..end].to_vec()
    }
}

impl Default for MemLog {
    fn default() -> Self {
        Self::new()
    }
}

impl DurableLog for MemLog {
    fn append(&mut self, payload: &[u8]) -> Result<u64, LogError> {
        if let Some(limit) = self.fault.fail_appends_after {
            if self.appended >= limit {
                return Err(LogError::WriteFailed);
            }
        }
        frame(payload, &mut self.bytes);
        self.ends.push(self.bytes.len());
        self.appended += 1;
        Ok(self.appended)
    }

    fn sync(&mut self) -> Result<u64, LogError> {
        if let Some(limit) = self.fault.stall_syncs_after {
            if self.syncs >= limit {
                return Err(LogError::Stalled);
            }
        }
        self.syncs += 1;
        self.durable = self.appended;
        Ok(self.durable)
    }

    fn appended(&self) -> u64 {
        self.appended
    }

    fn durable(&self) -> u64 {
        self.durable
    }

    fn crash_image(&mut self) -> Vec<u8> {
        let durable_end = if self.durable == 0 {
            0
        } else {
            self.ends[self.durable as usize - 1]
        };
        let mut image = self.bytes[..durable_end].to_vec();
        if self.fault.torn_tail && self.durable < self.appended {
            // Half of the first unsynced record's frame made it to the
            // device before the crash.
            let next_end = self.ends[self.durable as usize];
            let torn = (next_end - durable_end) / 2;
            image.extend_from_slice(&self.bytes[durable_end..durable_end + torn.max(1)]);
        }
        image
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn payload(i: u8) -> Vec<u8> {
        vec![i; 3 + i as usize]
    }

    #[test]
    fn memlog_appends_and_syncs() {
        let mut log = MemLog::new();
        assert_eq!(log.append(&payload(1)).unwrap(), 1);
        assert_eq!(log.append(&payload(2)).unwrap(), 2);
        assert_eq!(log.durable(), 0);
        assert_eq!(log.sync().unwrap(), 2);
        assert_eq!(log.durable(), 2);
        let (records, torn) = decode_frames(&log.crash_image());
        assert!(!torn);
        assert_eq!(records, vec![payload(1), payload(2)]);
    }

    #[test]
    fn unsynced_records_are_not_in_the_crash_image() {
        let mut log = MemLog::new();
        log.append(&payload(1)).unwrap();
        log.sync().unwrap();
        log.append(&payload(2)).unwrap();
        let (records, torn) = decode_frames(&log.crash_image());
        assert!(!torn);
        assert_eq!(records, vec![payload(1)]);
    }

    #[test]
    fn torn_tail_is_detected_and_discarded() {
        let mut log = MemLog::with_fault(FaultMode {
            torn_tail: true,
            ..Default::default()
        });
        log.append(&payload(1)).unwrap();
        log.sync().unwrap();
        log.append(&payload(2)).unwrap();
        let image = log.crash_image();
        let (records, torn) = decode_frames(&image);
        assert!(torn, "partial tail frame must be flagged");
        assert_eq!(records, vec![payload(1)]);
    }

    #[test]
    fn corrupt_checksum_stops_decoding() {
        let mut log = MemLog::new();
        log.append(&payload(1)).unwrap();
        log.append(&payload(2)).unwrap();
        log.sync().unwrap();
        let mut image = log.crash_image();
        let n = image.len();
        image[n - 1] ^= 0xFF; // flip a payload byte of record 2
        let (records, torn) = decode_frames(&image);
        assert!(torn);
        assert_eq!(records, vec![payload(1)]);
    }

    #[test]
    fn injected_faults_fire() {
        let mut log = MemLog::with_fault(FaultMode {
            fail_appends_after: Some(1),
            stall_syncs_after: Some(0),
            torn_tail: false,
        });
        assert_eq!(log.append(&payload(1)).unwrap(), 1);
        assert_eq!(log.append(&payload(2)), Err(LogError::WriteFailed));
        assert_eq!(log.sync(), Err(LogError::Stalled));
        assert_eq!(log.durable(), 0);
    }

    #[test]
    fn prefix_image_is_record_aligned() {
        let mut log = MemLog::new();
        for i in 1..=4 {
            log.append(&payload(i)).unwrap();
        }
        for k in 0..=4u64 {
            let (records, torn) = decode_frames(&log.prefix_image(k));
            assert!(!torn);
            assert_eq!(records.len(), k as usize);
        }
    }

    #[test]
    fn filelog_roundtrips_through_a_real_file() {
        let dir = std::env::temp_dir().join(format!("hcc-durable-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("p0.log");
        let mut log = FileLog::create(&path).unwrap();
        log.append(&payload(1)).unwrap();
        log.append(&payload(2)).unwrap();
        assert_eq!(log.sync().unwrap(), 2);
        log.append(&payload(3)).unwrap(); // buffered, never synced
        let (records, torn) = decode_frames(&log.crash_image());
        assert!(!torn);
        assert_eq!(records, vec![payload(1), payload(2)]);
        // Appends after a crash-image read-back continue to work.
        assert_eq!(log.sync().unwrap(), 3);
        let (records, _) = decode_frames(&log.crash_image());
        assert_eq!(records.len(), 3);
        drop(log);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn memlog_image_matches_filelog_image() {
        let dir = std::env::temp_dir().join(format!("hcc-durable-eq-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut mem = MemLog::new();
        let mut file = FileLog::create(&dir.join("eq.log")).unwrap();
        for i in 1..=5 {
            mem.append(&payload(i)).unwrap();
            file.append(&payload(i)).unwrap();
        }
        mem.sync().unwrap();
        file.sync().unwrap();
        assert_eq!(
            mem.crash_image(),
            file.crash_image(),
            "the two implementations must persist identical bytes"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
