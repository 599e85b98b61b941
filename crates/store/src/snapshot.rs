//! Checkpoint snapshots in the `cardest_nn::artifact` container.
//!
//! A snapshot is a full serialized [`cardest_core::UpdatableGl`] state
//! prefixed with the last WAL sequence number it covers, wrapped in the
//! same magic/version/kind/checksum container model artifacts use, and
//! written with the same temp-file + atomic-rename discipline: a crash at
//! any point of a snapshot write leaves either the previous complete
//! snapshot or the new complete one on disk — never a torn file. Stray
//! temp files from a crash mid-rename are swept on recovery. Neither
//! direction copies the state: it is written straight after the prefix and
//! read back in the buffer the file was read into.

use cardest_nn::artifact::{self, ArtifactError, Payload};
use std::fmt;
use std::path::Path;
use std::time::Duration;

/// Artifact kind tag for ingest snapshots.
pub const SNAPSHOT_KIND: &str = "cardest.snapshot";

/// Snapshot load failure.
#[derive(Debug, Clone, PartialEq)]
pub enum SnapshotError {
    /// Container-level failure (missing file, truncation, checksum, kind).
    Artifact(ArtifactError),
    /// The verified payload is too short to hold the sequence prefix.
    MissingSeqPrefix { got: usize },
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Artifact(e) => write!(f, "snapshot: {e}"),
            SnapshotError::MissingSeqPrefix { got } => {
                write!(f, "snapshot payload too short for seq prefix: {got} bytes")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<ArtifactError> for SnapshotError {
    fn from(e: ArtifactError) -> Self {
        SnapshotError::Artifact(e)
    }
}

/// Writes a snapshot covering all WAL records with `seq <= last_seq`.
/// Atomic: readers see the old snapshot or the new one, never a mix.
pub fn write_snapshot(path: &Path, last_seq: u64, state: &[u8]) -> Result<(), SnapshotError> {
    artifact::write_atomic(path, SNAPSHOT_KIND, &[&last_seq.to_le_bytes(), state])?;
    Ok(())
}

/// Reads and verifies a snapshot, returning `(last_seq, state)`, the
/// state still in the buffer the file was read into.
pub fn read_snapshot(path: &Path) -> Result<(u64, Payload), SnapshotError> {
    let payload = artifact::read(path, SNAPSHOT_KIND)?;
    let seq_bytes = payload
        .get(..8)
        .ok_or(SnapshotError::MissingSeqPrefix { got: payload.len() })?;
    let last_seq = u64::from_le_bytes([
        seq_bytes[0],
        seq_bytes[1],
        seq_bytes[2],
        seq_bytes[3],
        seq_bytes[4],
        seq_bytes[5],
        seq_bytes[6],
        seq_bytes[7],
    ]);
    Ok((last_seq, payload.skip(8)))
}

/// Grace window [`sweep_stale_tmp`] applies: a tmp file younger than this
/// may belong to a snapshot write in flight on another thread, so it is
/// left alone. Crash droppings are swept on the *next* recovery instead —
/// recovery after a crash is always at least a process restart away, so
/// anything older than a minute is provably not being written.
pub const SWEEP_GRACE: Duration = Duration::from_secs(60);

/// Removes temp files a crash mid-snapshot-rename left behind
/// (`.name.tmp.PID`, the naming `artifact::write_atomic` uses), but only
/// those whose mtime is older than `grace`: a concurrent snapshot writer
/// between temp-write and rename holds a *fresh* tmp file, and deleting
/// it from under the writer would fail the rename and drop the
/// checkpoint. Files with unreadable mtimes are treated as fresh (kept).
/// Returns how many were swept. Missing directories sweep zero files.
pub fn sweep_stale_tmp(dir: &Path, grace: Duration) -> usize {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    let now = crate::clock::wall();
    let mut swept = 0;
    for entry in entries.flatten() {
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if !(name.starts_with('.') && name.contains(".tmp.")) {
            continue;
        }
        let old_enough = entry
            .metadata()
            .and_then(|m| m.modified())
            .ok()
            .and_then(|mtime| now.duration_since(mtime).ok())
            .is_some_and(|age| age >= grace);
        if old_enough && std::fs::remove_file(entry.path()).is_ok() {
            swept += 1;
        }
    }
    swept
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("cardest-snap-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn snapshot_round_trips_seq_and_state() {
        let dir = tmp_dir("rt");
        let path = dir.join("state.snapshot");
        write_snapshot(&path, 42, b"{\"state\":true}").unwrap();
        let (seq, state) = read_snapshot(&path).unwrap();
        assert_eq!(seq, 42);
        assert_eq!(&*state, b"{\"state\":true}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncated_snapshot_is_rejected_loudly() {
        let dir = tmp_dir("trunc");
        let path = dir.join("state.snapshot");
        write_snapshot(&path, 7, b"payload-bytes").unwrap();
        let bytes = std::fs::read(&path).unwrap();
        for keep in [0, 5, bytes.len() / 2, bytes.len() - 1] {
            std::fs::write(&path, cardest_nn::faults::truncate(&bytes, keep)).unwrap();
            assert!(
                read_snapshot(&path).is_err(),
                "truncation to {keep} bytes loaded cleanly"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_state_still_carries_its_seq() {
        let dir = tmp_dir("empty");
        let path = dir.join("state.snapshot");
        write_snapshot(&path, 3, b"").unwrap();
        let (seq, state) = read_snapshot(&path).unwrap();
        assert_eq!((seq, &*state), (3, &b""[..]));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn version_1_snapshot_is_a_typed_recovery_error() {
        // A snapshot written before the container checksummed whole words
        // is durable state: recovery refuses it by version and leaves it
        // on disk, never replaces it.
        let dir = tmp_dir("v1");
        let path = dir.join(crate::ingest::SNAPSHOT_FILE);
        write_snapshot(&path, 9, b"{}").unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        cardest_nn::faults::skew_version(&mut bytes, 1);
        std::fs::write(&path, &bytes).unwrap();
        let v1 = SnapshotError::Artifact(ArtifactError::UnsupportedVersion {
            found: 1,
            supported: 2,
        });
        assert_eq!(read_snapshot(&path).unwrap_err(), v1);
        match crate::DurableIngest::open(&dir, crate::StoreConfig::default()) {
            Err(crate::StoreError::Snapshot(e)) => assert_eq!(e, v1),
            Err(other) => panic!("expected a snapshot error, got {other}"),
            Ok(_) => panic!("a version-1 snapshot recovered"),
        }
        assert_eq!(std::fs::read(&path).unwrap(), bytes);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Backdates a file's mtime so the sweep sees it as a crash dropping.
    fn backdate(path: &Path, by: Duration) {
        let f = std::fs::File::options().write(true).open(path).unwrap();
        f.set_modified(crate::clock::wall() - by).unwrap();
    }

    #[test]
    fn sweep_removes_only_tmp_droppings_older_than_grace() {
        let dir = tmp_dir("sweep");
        let snap = dir.join("state.snapshot");
        write_snapshot(&snap, 1, b"keep-me").unwrap();
        // A crash between temp-write and rename leaves this behind.
        let dropping = dir.join(".state.snapshot.tmp.99999");
        std::fs::write(&dropping, b"torn").unwrap();
        // Fresh tmp files are presumed in-flight writes and kept...
        assert_eq!(sweep_stale_tmp(&dir, SWEEP_GRACE), 0);
        assert!(dropping.exists());
        // ...until they age past the grace window.
        backdate(&dropping, SWEEP_GRACE + Duration::from_secs(1));
        assert_eq!(sweep_stale_tmp(&dir, SWEEP_GRACE), 1);
        assert!(!dropping.exists());
        assert!(snap.exists());
        assert_eq!(&*read_snapshot(&snap).unwrap().1, b"keep-me");
        assert_eq!(sweep_stale_tmp(&dir, SWEEP_GRACE), 0);
        assert_eq!(sweep_stale_tmp(&dir.join("missing-subdir"), SWEEP_GRACE), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sweep_never_races_a_concurrent_snapshot_writer() {
        let dir = tmp_dir("race");
        let snap = dir.join("state.snapshot");
        let writer_dir = dir.clone();
        let writer = std::thread::spawn(move || {
            for seq in 0..200u64 {
                write_snapshot(&writer_dir.join("state.snapshot"), seq, b"concurrent").unwrap();
            }
        });
        // Sweeping while the writer holds fresh tmp files must never
        // delete one out from under it (which would fail its rename).
        let mut swept = 0;
        while !writer.is_finished() {
            swept += sweep_stale_tmp(&dir, SWEEP_GRACE);
            std::thread::yield_now();
        }
        writer.join().unwrap();
        assert_eq!(swept, 0, "sweep deleted an in-flight tmp file");
        let (seq, state) = read_snapshot(&snap).unwrap();
        assert_eq!((seq, &*state), (199, &b"concurrent"[..]));
        std::fs::remove_dir_all(&dir).ok();
    }
}
