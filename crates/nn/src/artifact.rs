//! Versioned, checksummed model artifacts.
//!
//! A trained estimator deserialized from silently-corrupted bytes is the
//! worst failure mode a serving system has: it answers confidently with
//! garbage. This module wraps any serialized payload in a small binary
//! container that makes truncation, bit-flips, and format skew loud:
//!
//! ```text
//! offset  size  field
//! 0       8     magic  "CARDESTM"
//! 8       4     format version (u32 LE) — currently 2
//! 12      4     kind length K (u32 LE)
//! 16      K     kind (utf-8, e.g. "cardest.gl") — which estimator family
//! 16+K    8     payload length N (u64 LE)
//! 24+K    8     payload checksum (u64 LE): FNV-1a's multiply over the
//!               payload as little-endian u64 words, the last one
//!               zero-padded, then over N (see `Checksum`)
//! 32+K    N     payload (serde_json bytes of the estimator)
//! ```
//!
//! Every load re-verifies magic → version → kind → length → checksum, in
//! that order, so each corruption class maps to its own
//! [`ArtifactError`] variant. Writes go through a temp file + atomic
//! rename: a crash mid-write leaves the old artifact intact, never a torn
//! one. Neither direction copies the payload: a write streams the header
//! and the payload's parts to the temp file, and a read hands back the
//! payload inside the buffer the file was read into ([`Payload`]).
//!
//! The estimator-specific `save_artifact` / `load_artifact` methods live
//! next to their types (`GlEstimator`, `CardNet`, `MlpEstimator`); this
//! module only knows about byte containers.

use std::fmt;
use std::io::Write as _;
use std::ops::Range;
use std::path::Path;

/// Leading magic bytes of every artifact file.
pub const MAGIC: [u8; 8] = *b"CARDESTM";

/// Current container format version. Bump on any layout change; old
/// readers then reject new files as [`ArtifactError::UnsupportedVersion`]
/// instead of misinterpreting them, and this reader rejects old ones.
/// Version 1 checksummed the payload one byte at a time with
/// [`fnv1a64`].
pub const FORMAT_VERSION: u32 = 2;

/// Everything that can go wrong loading (or saving) a model artifact.
#[derive(Debug, Clone, PartialEq)]
pub enum ArtifactError {
    /// Filesystem failure (open/read/write/rename), with the OS message.
    Io(String),
    /// The file does not start with [`MAGIC`] — not an artifact at all.
    BadMagic,
    /// The container format version is newer (or older) than this reader.
    UnsupportedVersion { found: u32, supported: u32 },
    /// The file ends before the declared structure does.
    Truncated { needed: usize, got: usize },
    /// The payload bytes do not hash to the stored checksum: bit rot,
    /// bit-flip, or a partially overwritten file.
    ChecksumMismatch { expected: u64, got: u64 },
    /// The artifact holds a different estimator family than requested.
    KindMismatch { expected: String, found: String },
    /// The checksummed payload still failed to deserialize — a writer bug
    /// or an incompatible estimator schema under the same kind.
    Malformed(String),
}

impl fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArtifactError::Io(m) => write!(f, "artifact io error: {m}"),
            ArtifactError::BadMagic => write!(f, "not a cardest artifact (bad magic)"),
            ArtifactError::UnsupportedVersion { found, supported } => write!(
                f,
                "unsupported artifact format version {found} (this reader supports {supported})"
            ),
            ArtifactError::Truncated { needed, got } => {
                write!(f, "truncated artifact: needed {needed} bytes, got {got}")
            }
            ArtifactError::ChecksumMismatch { expected, got } => write!(
                f,
                "artifact checksum mismatch: stored {expected:#018x}, computed {got:#018x}"
            ),
            ArtifactError::KindMismatch { expected, found } => {
                write!(f, "artifact holds kind {found:?}, expected {expected:?}")
            }
            ArtifactError::Malformed(m) => write!(f, "malformed artifact payload: {m}"),
        }
    }
}

impl std::error::Error for ArtifactError {}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a 64-bit hash — small, dependency-free, and sensitive to every
/// byte position, which is all a corruption detector needs (this is not a
/// cryptographic integrity guarantee). WAL records, replication frames and
/// state fingerprints use it; the container checksums whole words instead
/// ([`Checksum`]).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// The container's payload checksum, fed the payload in any number of
/// parts: FNV-1a's xor-and-multiply over little-endian `u64` words, the
/// last one zero-padded, and then over the payload length. Each step also
/// folds the state's high half into its low half, so the high bits of a
/// word reach the whole state by the next multiply.
///
/// For a fixed state every step is a bijection of the word, and for a
/// fixed word a bijection of the state, so two payloads of one length that
/// differ in a single word always get different checksums. It takes 8
/// bytes a multiply where [`fnv1a64`] takes 1.
struct Checksum {
    state: u64,
    /// Bytes of the word not yet complete.
    pending: [u8; 8],
    pending_len: usize,
    len: u64,
}

impl Checksum {
    fn new() -> Self {
        Checksum {
            state: FNV_OFFSET,
            pending: [0; 8],
            pending_len: 0,
            len: 0,
        }
    }

    fn mix(&mut self, word: u64) {
        let h = (self.state ^ word).wrapping_mul(FNV_PRIME);
        self.state = h ^ (h >> 32);
    }

    fn update(&mut self, mut bytes: &[u8]) {
        self.len += bytes.len() as u64;
        if self.pending_len > 0 {
            let take = bytes.len().min(8 - self.pending_len);
            self.pending[self.pending_len..self.pending_len + take].copy_from_slice(&bytes[..take]);
            self.pending_len += take;
            bytes = &bytes[take..];
            if self.pending_len < 8 {
                return;
            }
            self.mix(u64::from_le_bytes(self.pending));
            self.pending_len = 0;
        }
        let words = bytes.chunks_exact(8);
        let tail = words.remainder();
        for word in words {
            self.mix(u64::from_le_bytes(word.try_into().unwrap_or_default()));
        }
        self.pending[..tail.len()].copy_from_slice(tail);
        self.pending_len = tail.len();
    }

    fn finish(mut self) -> u64 {
        if self.pending_len > 0 {
            self.pending[self.pending_len..].fill(0);
            self.mix(u64::from_le_bytes(self.pending));
        }
        self.mix(self.len);
        self.state
    }
}

/// The checksum of the payload made of `parts`, in order.
fn checksum(parts: &[&[u8]]) -> u64 {
    let mut c = Checksum::new();
    for part in parts {
        c.update(part);
    }
    c.finish()
}

/// The container header (everything before the payload) for the payload
/// made of `parts`.
fn header(kind: &str, parts: &[&[u8]]) -> Vec<u8> {
    let k = kind.as_bytes();
    let len: usize = parts.iter().map(|p| p.len()).sum();
    let mut out = Vec::with_capacity(32 + k.len());
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&(k.len() as u32).to_le_bytes());
    out.extend_from_slice(k);
    out.extend_from_slice(&(len as u64).to_le_bytes());
    out.extend_from_slice(&checksum(parts).to_le_bytes());
    out
}

/// Frames `payload` in the container layout described at module level.
pub fn encode(kind: &str, payload: &[u8]) -> Vec<u8> {
    let mut out = header(kind, &[payload]);
    out.extend_from_slice(payload);
    out
}

/// A fully bounds-checked view of one artifact's header fields.
///
/// Every field read is explicit: a file that ends mid-field reports
/// [`ArtifactError::Truncated`] with the exact byte count the field
/// needed, never a silently-defaulted value (a short-read checksum that
/// decoded as 0 would turn a torn file into a checksum mismatch at best —
/// or, for an empty payload, a clean load of garbage).
struct Header<'a> {
    kind: &'a str,
    /// Declared payload length.
    plen: usize,
    /// Stored checksum of the payload.
    checksum: u64,
    /// Offset of the first payload byte.
    payload_start: usize,
}

/// Reads the `4`-byte LE `u32` at `at`, or reports how many bytes the
/// field needed.
fn read_u32_at(bytes: &[u8], at: usize) -> Result<u32, ArtifactError> {
    match bytes.get(at..at + 4) {
        Some(b) => Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]])),
        None => Err(ArtifactError::Truncated {
            needed: at + 4,
            got: bytes.len(),
        }),
    }
}

/// Reads the `8`-byte LE `u64` at `at`, or reports how many bytes the
/// field needed.
fn read_u64_at(bytes: &[u8], at: usize) -> Result<u64, ArtifactError> {
    match bytes.get(at..at + 8) {
        Some(b) => Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ])),
        None => Err(ArtifactError::Truncated {
            needed: at + 8,
            got: bytes.len(),
        }),
    }
}

/// Parses and validates the container header (magic, version, kind
/// length, kind bytes, payload length, checksum), with an explicit
/// bounds check before every field read.
fn parse_header(bytes: &[u8]) -> Result<Header<'_>, ArtifactError> {
    // Magic: a short prefix of the magic is a truncated artifact; any
    // other prefix is not ours at all.
    match bytes.get(..8) {
        Some(m) if m == MAGIC => {}
        Some(_) => return Err(ArtifactError::BadMagic),
        None if MAGIC.starts_with(bytes) => {
            return Err(ArtifactError::Truncated {
                needed: 8,
                got: bytes.len(),
            })
        }
        None => return Err(ArtifactError::BadMagic),
    }
    let version = read_u32_at(bytes, 8)?;
    if version != FORMAT_VERSION {
        return Err(ArtifactError::UnsupportedVersion {
            found: version,
            supported: FORMAT_VERSION,
        });
    }
    let klen = read_u32_at(bytes, 12)? as usize;
    let kind_bytes = bytes.get(16..16 + klen).ok_or(ArtifactError::Truncated {
        needed: 16 + klen,
        got: bytes.len(),
    })?;
    let kind = std::str::from_utf8(kind_bytes)
        .map_err(|_| ArtifactError::Malformed("artifact kind is not utf-8".into()))?;
    let at = 16 + klen;
    let plen = read_u64_at(bytes, at)? as usize;
    let checksum = read_u64_at(bytes, at + 8)?;
    Ok(Header {
        kind,
        plen,
        checksum,
        payload_start: at + 16,
    })
}

/// Verifies the payload bounds and checksum declared by `h`, returning
/// where the payload lies in `bytes`.
fn verify_payload(bytes: &[u8], h: &Header<'_>) -> Result<Range<usize>, ArtifactError> {
    let total = h
        .payload_start
        .checked_add(h.plen)
        .ok_or(ArtifactError::Malformed("payload length overflow".into()))?;
    if bytes.len() < total {
        return Err(ArtifactError::Truncated {
            needed: total,
            got: bytes.len(),
        });
    }
    let got = checksum(&[&bytes[h.payload_start..total]]);
    if got != h.checksum {
        return Err(ArtifactError::ChecksumMismatch {
            expected: h.checksum,
            got,
        });
    }
    Ok(h.payload_start..total)
}

/// Verifies the container and returns where its payload lies.
///
/// Checks run outside-in — magic, version, kind, declared length,
/// checksum — so the reported error names the *first* broken layer.
fn payload_range(bytes: &[u8], expected_kind: &str) -> Result<Range<usize>, ArtifactError> {
    let h = parse_header(bytes)?;
    if h.kind != expected_kind {
        return Err(ArtifactError::KindMismatch {
            expected: expected_kind.into(),
            found: h.kind.into(),
        });
    }
    verify_payload(bytes, &h)
}

/// Verifies the container and returns the payload slice.
pub fn decode<'a>(bytes: &'a [u8], expected_kind: &str) -> Result<&'a [u8], ArtifactError> {
    payload_range(bytes, expected_kind).map(|r| &bytes[r])
}

/// Writes the artifact whose payload is `parts`, concatenated, via temp
/// file + atomic rename in the target directory: readers see either the
/// old complete file or the new one, never a torn prefix. The header and
/// each part go to the temp file as they are, so the payload is never
/// copied. The temp file is synced before the rename and the directory
/// after it, so once this returns the new file survives a power loss; a
/// store may then drop the WAL records it covers.
pub fn write_atomic(path: &Path, kind: &str, parts: &[&[u8]]) -> Result<(), ArtifactError> {
    let header = header(kind, parts);
    let dir = path
        .parent()
        .filter(|p| !p.as_os_str().is_empty())
        .unwrap_or(Path::new("."));
    let file_name = path
        .file_name()
        .ok_or_else(|| ArtifactError::Io(format!("no file name in {}", path.display())))?;
    let mut tmp_name = std::ffi::OsString::from(".");
    tmp_name.push(file_name);
    tmp_name.push(format!(".tmp.{}", std::process::id()));
    let tmp = dir.join(&tmp_name);
    let io = |e: std::io::Error| ArtifactError::Io(e.to_string());
    let write_synced = || {
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(&header)?;
        for part in parts {
            file.write_all(part)?;
        }
        file.sync_all()
    };
    write_synced()
        .and_then(|()| std::fs::rename(&tmp, path))
        .map_err(|e| {
            let _ = std::fs::remove_file(&tmp);
            io(e)
        })?;
    std::fs::File::open(dir)
        .and_then(|d| d.sync_all())
        .map_err(io)
}

/// A verified payload, left in the buffer its file was read into: it
/// dereferences to the payload bytes.
#[derive(Debug)]
pub struct Payload {
    /// The file, cut after the payload's last byte.
    file: Vec<u8>,
    start: usize,
}

impl Payload {
    /// The payload at `range` of `file`; the bytes after it are dropped.
    fn new(mut file: Vec<u8>, range: Range<usize>) -> Payload {
        file.truncate(range.end);
        Payload {
            file,
            start: range.start,
        }
    }

    /// The payload without its first `n` bytes (empty if it is shorter).
    pub fn skip(mut self, n: usize) -> Payload {
        self.start = self.file.len().min(self.start + n);
        self
    }
}

impl std::ops::Deref for Payload {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.file[self.start..]
    }
}

/// Reads and verifies an artifact, returning its payload in place.
pub fn read(path: &Path, expected_kind: &str) -> Result<Payload, ArtifactError> {
    let file = std::fs::read(path).map_err(|e| ArtifactError::Io(e.to_string()))?;
    let range = payload_range(&file, expected_kind)?;
    Ok(Payload::new(file, range))
}

/// Reads and verifies an artifact of any kind (magic, version, length,
/// checksum), returning its kind tag and its payload in place. The model
/// registry reads a file once this way and hands the payload to the
/// decoder of the family the tag names.
pub fn read_any(path: &Path) -> Result<(String, Payload), ArtifactError> {
    let file = std::fs::read(path).map_err(|e| ArtifactError::Io(e.to_string()))?;
    let h = parse_header(&file)?;
    let kind = h.kind.to_string();
    let range = verify_payload(&file, &h)?;
    Ok((kind, Payload::new(file, range)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_preserves_payload() {
        let payload = b"{\"weights\":[1.0,2.0]}";
        let bytes = encode("cardest.test", payload);
        assert_eq!(decode(&bytes, "cardest.test"), Ok(&payload[..]));
    }

    #[test]
    fn empty_payload_round_trips() {
        let bytes = encode("k", b"");
        assert_eq!(decode(&bytes, "k"), Ok(&b""[..]));
    }

    #[test]
    fn bad_magic_is_detected_before_anything_else() {
        let mut bytes = encode("k", b"payload");
        bytes[0] ^= 0xFF;
        assert_eq!(decode(&bytes, "k"), Err(ArtifactError::BadMagic));
        assert_eq!(decode(b"garbage!more", "k"), Err(ArtifactError::BadMagic));
    }

    #[test]
    fn version_skew_is_rejected() {
        let mut bytes = encode("k", b"payload");
        bytes[8..12].copy_from_slice(&(FORMAT_VERSION + 1).to_le_bytes());
        assert_eq!(
            decode(&bytes, "k"),
            Err(ArtifactError::UnsupportedVersion {
                found: FORMAT_VERSION + 1,
                supported: FORMAT_VERSION,
            })
        );
    }

    #[test]
    fn version_1_containers_are_unsupported() {
        // Version 1 checksummed the payload byte by byte; its files are
        // refused by version, never checked against the wrong checksum.
        let payload = b"{}";
        let mut bytes = encode("k", payload);
        bytes[8..12].copy_from_slice(&1u32.to_le_bytes());
        let v1_checksum = fnv1a64(payload).to_le_bytes();
        let at = bytes.len() - payload.len() - 8;
        bytes[at..at + 8].copy_from_slice(&v1_checksum);
        assert_eq!(
            decode(&bytes, "k"),
            Err(ArtifactError::UnsupportedVersion {
                found: 1,
                supported: 2,
            })
        );
    }

    #[test]
    fn checksum_is_the_same_for_any_split_of_the_payload() {
        let data: Vec<u8> = (0..33u8).map(|i| i.wrapping_mul(37) ^ 0x5a).collect();
        for len in 0..=data.len() {
            let p = &data[..len];
            let whole = checksum(&[p]);
            for a in 0..=len {
                assert_eq!(checksum(&[&p[..a], &p[a..]]), whole, "len {len}, split {a}");
                for b in a..=len {
                    assert_eq!(
                        checksum(&[&p[..a], &p[a..b], &[], &p[b..]]),
                        whole,
                        "len {len}, splits {a} and {b}"
                    );
                }
            }
        }
        // Zero padding does not hide a length change.
        assert_ne!(checksum(&[b"abc"]), checksum(&[b"abc\0"]));
        assert_ne!(checksum(&[b""]), checksum(&[b"\0\0\0\0\0\0\0\0"]));
    }

    #[test]
    fn every_single_bit_flip_fails_the_checksum() {
        // Lengths 1–17 put flips in whole words, in the zero-padded tail
        // and on both sides of the boundary between them.
        for len in 1..=17usize {
            let payload: Vec<u8> = (0..len).map(|i| (i * 29 + 7) as u8).collect();
            let bytes = encode("k", &payload);
            let start = bytes.len() - len;
            for i in start..bytes.len() {
                for bit in 0..8 {
                    let mut flipped = bytes.clone();
                    flipped[i] ^= 1 << bit;
                    assert!(
                        matches!(
                            decode(&flipped, "k"),
                            Err(ArtifactError::ChecksumMismatch { .. })
                        ),
                        "len {len}: flip of bit {bit} in payload byte {} passed",
                        i - start
                    );
                }
            }
        }
    }

    #[test]
    fn payload_prefix_is_skipped_in_place() {
        let dir =
            std::env::temp_dir().join(format!("cardest-artifact-prefix-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.cardest");
        write_atomic(&path, "k", &[&7u64.to_le_bytes(), b"state"]).unwrap();
        let payload = read(&path, "k").unwrap();
        assert_eq!(payload.len(), 13);
        let state = payload.skip(8);
        assert_eq!(&*state, b"state");
        assert_eq!(&*state.skip(3), b"te");
        let empty = read(&path, "k").unwrap().skip(14);
        assert!(empty.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn every_truncation_point_is_loud() {
        let bytes = encode("cardest.test", b"a moderately sized payload");
        for keep in 0..bytes.len() {
            let err = decode(&bytes[..keep], "cardest.test").unwrap_err();
            assert!(
                matches!(
                    err,
                    ArtifactError::Truncated { .. }
                        | ArtifactError::BadMagic
                        | ArtifactError::ChecksumMismatch { .. }
                ),
                "truncation to {keep} bytes gave {err:?}"
            );
        }
    }

    #[test]
    fn truncation_at_every_field_boundary_names_the_field_end() {
        // kind "cardest.test" (12 bytes): the header fields end at
        //   magic 8 | version 12 | klen 16 | kind 28 | plen 36 | cksum 44
        let payload = b"0123456789";
        let bytes = encode("cardest.test", payload);
        let field_ends = [8usize, 12, 16, 28, 36, 44];
        assert_eq!(bytes.len(), 44 + payload.len());
        for w in field_ends.windows(2) {
            let (start, end) = (w[0], w[1]);
            for keep in start..end {
                // A cut anywhere inside a field reports exactly the byte
                // count that field needed — never a defaulted value.
                assert_eq!(
                    decode(&bytes[..keep], "cardest.test"),
                    Err(ArtifactError::Truncated {
                        needed: end,
                        got: keep,
                    }),
                    "cut at {keep} inside field ending at {end}"
                );
            }
        }
        // A cut inside the payload reports the full declared extent.
        for keep in 44..bytes.len() {
            assert_eq!(
                decode(&bytes[..keep], "cardest.test"),
                Err(ArtifactError::Truncated {
                    needed: bytes.len(),
                    got: keep,
                })
            );
        }
        // A short magic prefix is "truncated", a wrong one "not ours".
        assert_eq!(
            decode(&MAGIC[..5], "cardest.test"),
            Err(ArtifactError::Truncated { needed: 8, got: 5 })
        );
        assert_eq!(
            decode(b"XARD", "cardest.test"),
            Err(ArtifactError::BadMagic)
        );
    }

    #[test]
    fn short_checksum_read_is_truncated_not_zero() {
        // Regression: the checksum field used to be read with
        // `try_into().unwrap_or([0; 8])`, so a file cut mid-checksum
        // decoded the stored checksum as 0 instead of erroring. With an
        // empty payload (fnv1a64(b"") != 0 so the mismatch still fired)
        // the failure mode was a misleading ChecksumMismatch; the honest
        // answer is Truncated.
        let bytes = encode("k", b"");
        let cut = &bytes[..bytes.len() - 3]; // mid-checksum
        assert!(matches!(
            decode(cut, "k"),
            Err(ArtifactError::Truncated { .. })
        ));
    }

    #[test]
    fn read_any_returns_the_kind_only_after_full_verification() {
        let dir = std::env::temp_dir().join(format!("cardest-artifact-any-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.cardest");
        let bytes = encode("cardest.gl", b"payload");
        std::fs::write(&path, &bytes).unwrap();
        let (kind, payload) = read_any(&path).unwrap();
        assert_eq!((kind.as_str(), &*payload), ("cardest.gl", &b"payload"[..]));
        // A bit-flipped payload must not yield a kind: the registry would
        // otherwise dispatch a corrupt artifact to a loader.
        let mut flipped = bytes.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x01;
        std::fs::write(&path, &flipped).unwrap();
        assert!(matches!(
            read_any(&path),
            Err(ArtifactError::ChecksumMismatch { .. })
        ));
        std::fs::write(&path, &bytes[..bytes.len() - 2]).unwrap();
        assert!(matches!(
            read_any(&path),
            Err(ArtifactError::Truncated { .. })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn read_any_reads_what_write_atomic_wrote() {
        let dir =
            std::env::temp_dir().join(format!("cardest-artifact-kind-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.cardest");
        write_atomic(&path, "cardest.mlp", &[b"{", b"}"]).unwrap();
        let (kind, payload) = read_any(&path).unwrap();
        assert_eq!((kind.as_str(), &*payload), ("cardest.mlp", &b"{}"[..]));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn payload_bit_flip_fails_the_checksum() {
        let payload = b"0123456789abcdef";
        let bytes = encode("k", payload);
        let payload_start = bytes.len() - payload.len();
        for i in payload_start..bytes.len() {
            let mut flipped = bytes.clone();
            flipped[i] ^= 0x04;
            assert!(matches!(
                decode(&flipped, "k"),
                Err(ArtifactError::ChecksumMismatch { .. })
            ));
        }
    }

    #[test]
    fn kind_mismatch_names_both_sides() {
        let bytes = encode("cardest.gl", b"x");
        assert_eq!(
            decode(&bytes, "cardest.mlp"),
            Err(ArtifactError::KindMismatch {
                expected: "cardest.mlp".into(),
                found: "cardest.gl".into(),
            })
        );
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn atomic_write_then_read_round_trips() {
        let dir = std::env::temp_dir().join(format!("cardest-artifact-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.cardest");
        write_atomic(&path, "k", &[b"hello"]).unwrap();
        assert_eq!(&*read(&path, "k").unwrap(), b"hello");
        // Overwrite is atomic too — and no temp droppings remain.
        write_atomic(&path, "k", &[b"wor", b"", b"ld"]).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), encode("k", b"world"));
        assert_eq!(&*read(&path, "k").unwrap(), b"world");
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .collect();
        assert!(
            leftovers.is_empty(),
            "temp files left behind: {leftovers:?}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn failed_rename_removes_the_temp_file() {
        let dir =
            std::env::temp_dir().join(format!("cardest-artifact-fail-{}", std::process::id()));
        // The target is a non-empty directory, so the rename fails.
        let path = dir.join("model.cardest");
        std::fs::create_dir_all(path.join("occupied")).unwrap();
        assert!(matches!(
            write_atomic(&path, "k", &[b"hello"]),
            Err(ArtifactError::Io(_))
        ));
        let names: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.file_name())
            .collect();
        assert_eq!(names, vec![std::ffi::OsString::from("model.cardest")]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_file_reports_io() {
        let err = read(Path::new("/nonexistent/definitely/not/here"), "k").unwrap_err();
        assert!(matches!(err, ArtifactError::Io(_)));
    }
}
