//! Append-only write-ahead log with per-record checksums and torn-tail
//! recovery.
//!
//! Record layout (all integers little-endian):
//!
//! ```text
//! offset  size  field
//! 0       4     payload length N (u32)
//! 4       8     FNV-1a 64 checksum of seq ‖ kind ‖ payload (u64)
//! 12      8     sequence number (u64, strictly increasing by 1)
//! 20      1     record kind (opaque to this layer)
//! 21      N     payload
//! ```
//!
//! A crash can stop a write anywhere — mid-header, mid-payload, or on a
//! clean boundary — so recovery scans forward and keeps the longest valid
//! prefix: a record is accepted only if its header fits, its declared
//! length is sane, its payload is fully present, its checksum matches,
//! and its sequence number continues the previous record's. The first
//! violation classifies the tail defect and everything from that offset
//! on is truncated away (physically, via `set_len`), so a recovered log
//! re-opens clean. The checksum covers the sequence number and kind, not
//! just the payload, so a bit-flip anywhere in a record — header included
//! — is caught (the length field is implicitly covered: a flipped length
//! reframes the checksummed region, which then mismatches).

use cardest_nn::artifact::fnv1a64;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Fixed record header size: length (4) + checksum (8) + seq (8) + kind (1).
pub const HEADER_LEN: usize = 21;

/// Upper bound on a single record's payload. Anything larger is treated
/// as a corrupt length field during recovery (a flipped high bit would
/// otherwise ask the scanner to skip gigabytes).
pub const MAX_PAYLOAD_LEN: usize = 256 << 20;

/// One decoded log record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalRecord {
    pub seq: u64,
    pub kind: u8,
    pub payload: Vec<u8>,
}

/// Why the recovery scan stopped before the end of the file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TailDefect {
    /// Fewer than [`HEADER_LEN`] bytes remained — a write died mid-header.
    ShortHeader { at: usize, got: usize },
    /// The declared payload length exceeds [`MAX_PAYLOAD_LEN`].
    OversizePayload { at: usize, len: usize },
    /// The file ends before the declared payload does — a write died
    /// mid-payload.
    ShortPayload {
        at: usize,
        needed: usize,
        got: usize,
    },
    /// Header and payload are present but the checksum does not match —
    /// bit rot, or a torn write that happened to leave enough bytes.
    CrcMismatch { at: usize, seq: u64 },
    /// A structurally valid record whose sequence number does not follow
    /// its predecessor — an interleaved or misdirected write.
    SeqBreak {
        at: usize,
        expected: u64,
        found: u64,
    },
}

impl fmt::Display for TailDefect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TailDefect::ShortHeader { at, got } => {
                write!(f, "short header at byte {at} ({got} bytes left)")
            }
            TailDefect::OversizePayload { at, len } => {
                write!(f, "oversize payload length {len} at byte {at}")
            }
            TailDefect::ShortPayload { at, needed, got } => {
                write!(f, "short payload at byte {at}: needed {needed}, got {got}")
            }
            TailDefect::CrcMismatch { at, seq } => {
                write!(f, "checksum mismatch at byte {at} (record seq {seq})")
            }
            TailDefect::SeqBreak {
                at,
                expected,
                found,
            } => write!(
                f,
                "sequence break at byte {at}: expected {expected}, found {found}"
            ),
        }
    }
}

/// WAL I/O failure (scan defects are not errors — they are recovery facts
/// reported in [`WalRecovery`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalError {
    Io(String),
}

impl fmt::Display for WalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WalError::Io(m) => write!(f, "wal io error: {m}"),
        }
    }
}

impl std::error::Error for WalError {}

pub(crate) fn io_err(e: std::io::Error) -> WalError {
    WalError::Io(e.to_string())
}

/// What [`Wal::open`] found and did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalRecovery {
    /// Records in the longest valid prefix.
    pub records: usize,
    /// Bytes kept (the valid prefix length).
    pub bytes_kept: u64,
    /// Bytes truncated away behind the first defect.
    pub bytes_dropped: u64,
    /// The defect that ended the scan, if the file did not end cleanly.
    pub defect: Option<TailDefect>,
}

/// The checksum a record must carry: FNV-1a 64 over seq ‖ kind ‖ payload.
pub fn record_crc(seq: u64, kind: u8, payload: &[u8]) -> u64 {
    let mut buf = Vec::with_capacity(9 + payload.len());
    buf.extend_from_slice(&seq.to_le_bytes());
    buf.push(kind);
    buf.extend_from_slice(payload);
    fnv1a64(&buf)
}

/// Frames one record in the layout described at module level.
pub fn encode_record(seq: u64, kind: u8, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&record_crc(seq, kind, payload).to_le_bytes());
    out.extend_from_slice(&seq.to_le_bytes());
    out.push(kind);
    out.extend_from_slice(payload);
    out
}

/// The result of scanning a byte buffer for valid records.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScanResult {
    /// The longest valid record prefix.
    pub records: Vec<WalRecord>,
    /// Bytes consumed by that prefix (the truncation point on recovery).
    pub consumed: usize,
    /// The defect that stopped the scan, `None` for a clean end.
    pub defect: Option<TailDefect>,
}

/// Scans `bytes` front to back, keeping the longest valid prefix. Pure —
/// the crash-matrix tests drive it directly on manufactured buffers.
pub fn scan(bytes: &[u8]) -> ScanResult {
    let mut records = Vec::new();
    let mut pos = 0usize;
    let mut prev_seq: Option<u64> = None;
    let defect = loop {
        if pos == bytes.len() {
            break None;
        }
        let left = bytes.len() - pos;
        if left < HEADER_LEN {
            break Some(TailDefect::ShortHeader { at: pos, got: left });
        }
        let h = &bytes[pos..pos + HEADER_LEN];
        let plen = u32::from_le_bytes([h[0], h[1], h[2], h[3]]) as usize;
        if plen > MAX_PAYLOAD_LEN {
            break Some(TailDefect::OversizePayload { at: pos, len: plen });
        }
        let crc = u64::from_le_bytes([h[4], h[5], h[6], h[7], h[8], h[9], h[10], h[11]]);
        let seq = u64::from_le_bytes([h[12], h[13], h[14], h[15], h[16], h[17], h[18], h[19]]);
        let kind = h[20];
        let needed = HEADER_LEN + plen;
        if left < needed {
            break Some(TailDefect::ShortPayload {
                at: pos,
                needed,
                got: left,
            });
        }
        let payload = &bytes[pos + HEADER_LEN..pos + needed];
        if record_crc(seq, kind, payload) != crc {
            break Some(TailDefect::CrcMismatch { at: pos, seq });
        }
        if let Some(prev) = prev_seq {
            if seq != prev + 1 {
                break Some(TailDefect::SeqBreak {
                    at: pos,
                    expected: prev + 1,
                    found: seq,
                });
            }
        }
        prev_seq = Some(seq);
        records.push(WalRecord {
            seq,
            kind,
            payload: payload.to_vec(),
        });
        pos += needed;
    };
    ScanResult {
        records,
        consumed: pos,
        defect,
    }
}

/// An open write-ahead log.
pub struct Wal {
    file: File,
    path: PathBuf,
    next_seq: u64,
    len_bytes: u64,
    sync: bool,
}

impl Wal {
    /// Opens (or creates) the log at `path`, scans it, physically
    /// truncates any torn tail, and positions the writer after the last
    /// valid record. The surviving records are returned for replay.
    ///
    /// With `sync` set, every append is followed by `sync_data` so an
    /// acknowledged write survives a process kill (the crash model this
    /// store defends against; media loss needs replication, not a WAL).
    pub fn open(path: &Path, sync: bool) -> Result<(Self, Vec<WalRecord>, WalRecovery), WalError> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)
            .map_err(io_err)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes).map_err(io_err)?;
        let scanned = scan(&bytes);
        let bytes_dropped = (bytes.len() - scanned.consumed) as u64;
        if bytes_dropped > 0 {
            file.set_len(scanned.consumed as u64).map_err(io_err)?;
            file.sync_data().map_err(io_err)?;
        }
        file.seek(SeekFrom::Start(scanned.consumed as u64))
            .map_err(io_err)?;
        let next_seq = scanned.records.last().map_or(1, |r| r.seq + 1);
        let recovery = WalRecovery {
            records: scanned.records.len(),
            bytes_kept: scanned.consumed as u64,
            bytes_dropped,
            defect: scanned.defect,
        };
        Ok((
            Wal {
                file,
                path: path.to_path_buf(),
                next_seq,
                len_bytes: scanned.consumed as u64,
                sync,
            },
            scanned.records,
            recovery,
        ))
    }

    /// Appends one record and (if syncing) makes it durable. Returns the
    /// sequence number assigned to the record.
    pub fn append(&mut self, kind: u8, payload: &[u8]) -> Result<u64, WalError> {
        let seq = self.next_seq;
        let bytes = encode_record(seq, kind, payload);
        self.file.write_all(&bytes).map_err(io_err)?;
        self.file.flush().map_err(io_err)?;
        if self.sync {
            self.file.sync_data().map_err(io_err)?;
        }
        self.next_seq = seq + 1;
        self.len_bytes += bytes.len() as u64;
        Ok(seq)
    }

    /// Drops every record (after a snapshot has made them redundant) but
    /// keeps the sequence counter running, so post-truncation appends
    /// continue the global ordering.
    pub fn truncate_all(&mut self) -> Result<(), WalError> {
        self.file.set_len(0).map_err(io_err)?;
        self.file.sync_data().map_err(io_err)?;
        self.file.seek(SeekFrom::Start(0)).map_err(io_err)?;
        self.len_bytes = 0;
        Ok(())
    }

    /// Overrides the next sequence number — used after recovery when the
    /// log is empty but the snapshot already accounts for `seq - 1`.
    pub fn set_next_seq(&mut self, seq: u64) {
        self.next_seq = seq;
    }

    /// The sequence number the next append will carry.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Bytes currently in the log.
    pub fn len_bytes(&self) -> u64 {
        self.len_bytes
    }

    /// The log's path on disk.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("cardest-wal-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn append_scan_round_trip() {
        let dir = tmp_dir("roundtrip");
        let path = dir.join("wal.log");
        std::fs::remove_file(&path).ok();
        let (mut wal, recs, rec) = Wal::open(&path, false).unwrap();
        assert!(recs.is_empty());
        assert_eq!(rec.records, 0);
        assert_eq!(wal.append(1, b"alpha").unwrap(), 1);
        assert_eq!(wal.append(2, b"").unwrap(), 2); // zero-length payload is valid
        assert_eq!(wal.append(1, b"gamma").unwrap(), 3);
        drop(wal);
        let (_, recs, rec) = Wal::open(&path, false).unwrap();
        assert_eq!(rec.defect, None);
        assert_eq!(rec.bytes_dropped, 0);
        let got: Vec<(u64, u8, &[u8])> = recs
            .iter()
            .map(|r| (r.seq, r.kind, r.payload.as_slice()))
            .collect();
        assert_eq!(
            got,
            vec![
                (1, 1, &b"alpha"[..]),
                (2, 2, &b""[..]),
                (3, 1, &b"gamma"[..])
            ]
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_is_truncated_and_reopen_is_idempotent() {
        let dir = tmp_dir("torn");
        let path = dir.join("wal.log");
        std::fs::remove_file(&path).ok();
        let (mut wal, _, _) = Wal::open(&path, false).unwrap();
        wal.append(1, b"first").unwrap();
        wal.append(1, b"second").unwrap();
        drop(wal);
        let full = std::fs::read(&path).unwrap();
        let r1_end = HEADER_LEN + 5;
        // Kill mid-second-record: only the first survives, and the torn
        // bytes are physically removed.
        std::fs::write(&path, &full[..r1_end + 7]).unwrap();
        let (wal, recs, rec) = Wal::open(&path, false).unwrap();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].payload, b"first");
        assert!(matches!(rec.defect, Some(TailDefect::ShortHeader { .. })));
        assert_eq!(rec.bytes_dropped, 7);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), r1_end as u64);
        assert_eq!(wal.next_seq(), 2);
        drop(wal);
        // Second open sees a clean log — recovery is idempotent.
        let (_, recs2, rec2) = Wal::open(&path, false).unwrap();
        assert_eq!(recs2.len(), 1);
        assert_eq!(rec2.defect, None);
        assert_eq!(rec2.bytes_dropped, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn post_truncation_append_continues_the_sequence() {
        let dir = tmp_dir("continue");
        let path = dir.join("wal.log");
        std::fs::remove_file(&path).ok();
        let (mut wal, _, _) = Wal::open(&path, false).unwrap();
        wal.append(1, b"a").unwrap();
        wal.append(1, b"b").unwrap();
        drop(wal);
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() - 1]).unwrap(); // tear record 2
        let (mut wal, recs, _) = Wal::open(&path, false).unwrap();
        assert_eq!(recs.last().unwrap().seq, 1);
        assert_eq!(
            wal.append(1, b"b2").unwrap(),
            2,
            "seq continues after the last good record"
        );
        drop(wal);
        let (_, recs, rec) = Wal::open(&path, false).unwrap();
        assert_eq!(rec.defect, None);
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[1].payload, b"b2");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn scan_classifies_each_defect() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&encode_record(1, 7, b"hello"));
        bytes.extend_from_slice(&encode_record(2, 7, b"world"));
        // CRC mismatch: flip a payload bit in record 2.
        let mut flipped = bytes.clone();
        let at = flipped.len() - 2;
        flipped[at] ^= 0x10;
        let s = scan(&flipped);
        assert_eq!(s.records.len(), 1);
        assert!(matches!(
            s.defect,
            Some(TailDefect::CrcMismatch { seq: 2, .. })
        ));
        // Flipping a high bit of the length field reads as oversize.
        let mut long = bytes.clone();
        let r2 = HEADER_LEN + 5;
        long[r2 + 3] |= 0x80;
        let s = scan(&long);
        assert!(matches!(s.defect, Some(TailDefect::OversizePayload { .. })));
        // A sequence gap stops the scan at the gapped record.
        let mut gap = encode_record(1, 7, b"x");
        gap.extend_from_slice(&encode_record(3, 7, b"y"));
        let s = scan(&gap);
        assert_eq!(s.records.len(), 1);
        assert_eq!(
            s.defect,
            Some(TailDefect::SeqBreak {
                at: HEADER_LEN + 1,
                expected: 2,
                found: 3
            })
        );
    }

    #[test]
    fn truncate_all_keeps_the_sequence_counter() {
        let dir = tmp_dir("truncall");
        let path = dir.join("wal.log");
        std::fs::remove_file(&path).ok();
        let (mut wal, _, _) = Wal::open(&path, false).unwrap();
        wal.append(1, b"a").unwrap();
        wal.append(1, b"b").unwrap();
        wal.truncate_all().unwrap();
        assert_eq!(wal.len_bytes(), 0);
        assert_eq!(wal.append(1, b"c").unwrap(), 3);
        drop(wal);
        let (_, recs, _) = Wal::open(&path, false).unwrap();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].seq, 3);
        std::fs::remove_dir_all(&dir).ok();
    }
}
