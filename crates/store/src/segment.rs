//! The store's write-ahead log: one append-only `wal.log` per store
//! directory.
//!
//! A [`SegmentedWal`] is a [`Wal`](crate::wal::Wal) opened on
//! `<dir>/wal.log`, plus [`SegmentedWal::read_since`] for replication
//! catch-up. `Wal` alone encodes and scans records and truncates torn
//! tails. A snapshot empties the log unless the store retains it, so the
//! file holds the records since the last snapshot; a standby whose
//! position is older than the file's first record bootstraps from a
//! snapshot instead.
//!
//! The log is never split into segment files, and `wal.*.seg` files in a
//! store directory are not read. The type's name and the `rotate_bytes`
//! argument of [`SegmentedWal::open`] remain for callers that name them.

use crate::ingest::WAL_FILE;
use crate::wal::{io_err, scan, Wal, WalError, WalRecord, WalRecovery};
use std::path::Path;

/// A store directory's write-ahead log, `wal.log`.
pub struct SegmentedWal {
    wal: Wal,
}

impl SegmentedWal {
    /// Opens (or creates) `dir/wal.log` through [`Wal::open`], which
    /// truncates a torn tail, and returns the surviving records for
    /// replay. `rotate_bytes` is ignored: the log is one file.
    pub fn open(
        dir: &Path,
        sync: bool,
        _rotate_bytes: u64,
    ) -> Result<(Self, Vec<WalRecord>, WalRecovery), WalError> {
        std::fs::create_dir_all(dir).map_err(io_err)?;
        let (wal, records, recovery) = Wal::open(&dir.join(WAL_FILE), sync)?;
        Ok((SegmentedWal { wal }, records, recovery))
    }

    /// Appends one record. Returns the assigned sequence number.
    pub fn append(&mut self, kind: u8, payload: &[u8]) -> Result<u64, WalError> {
        self.wal.append(kind, payload)
    }

    /// Drops every record but keeps the sequence counter running.
    pub fn truncate_all(&mut self) -> Result<(), WalError> {
        self.wal.truncate_all()
    }

    /// Records with `seq > after_seq`, oldest first, at most `max`, read
    /// back from disk. `None` means a snapshot truncated the position out
    /// of the log and the caller must bootstrap from a snapshot instead.
    pub fn read_since(
        &self,
        after_seq: u64,
        max: usize,
    ) -> Result<Option<Vec<WalRecord>>, WalError> {
        let records = scan(&std::fs::read(self.wal.path()).map_err(io_err)?).records;
        let first = records.first().map_or(self.next_seq(), |r| r.seq);
        if after_seq + 1 < first {
            return Ok(None);
        }
        Ok(Some(
            records
                .into_iter()
                .filter(|r| r.seq > after_seq)
                .take(max)
                .collect(),
        ))
    }

    /// Overrides the next sequence number (recovery with an empty log).
    pub fn set_next_seq(&mut self, seq: u64) {
        self.wal.set_next_seq(seq);
    }

    /// The sequence number the next append will carry.
    pub fn next_seq(&self) -> u64 {
        self.wal.next_seq()
    }

    /// Bytes in the log.
    pub fn len_bytes(&self) -> u64 {
        self.wal.len_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("cardest-seg-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&d).ok();
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn fill(w: &mut SegmentedWal, n: usize) {
        for i in 0..n {
            w.append(1, format!("payload-{i:04}").as_bytes()).unwrap();
        }
    }

    #[test]
    fn read_since_pages_and_spans_the_active_segment() {
        let dir = tmp_dir("since");
        let (mut w, _, _) = SegmentedWal::open(&dir, false, 0).unwrap();
        fill(&mut w, 40);
        let page = w.read_since(10, 7).unwrap().unwrap();
        assert_eq!(
            page.iter().map(|r| r.seq).collect::<Vec<_>>(),
            (11..=17).collect::<Vec<_>>()
        );
        let rest = w.read_since(38, 100).unwrap().unwrap();
        assert_eq!(rest.iter().map(|r| r.seq).collect::<Vec<_>>(), vec![39, 40]);
        assert_eq!(w.read_since(40, 100).unwrap().unwrap(), Vec::new());
        // After a snapshot's truncation, older positions must bootstrap
        // from a snapshot; the head still answers records.
        w.truncate_all().unwrap();
        w.append(1, b"after").unwrap();
        assert_eq!(w.read_since(0, 100).unwrap(), None);
        assert_eq!(w.read_since(39, 100).unwrap(), None);
        let tail = w.read_since(40, 100).unwrap().unwrap();
        assert_eq!(tail.iter().map(|r| r.seq).collect::<Vec<_>>(), vec![41]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncate_all_drops_segments_but_keeps_the_counter() {
        let dir = tmp_dir("truncall");
        let (mut w, _, _) = SegmentedWal::open(&dir, false, 0).unwrap();
        fill(&mut w, 40);
        w.truncate_all().unwrap();
        assert_eq!(w.len_bytes(), 0);
        assert_eq!(w.read_since(40, 100).unwrap().unwrap(), Vec::new());
        assert_eq!(w.append(1, b"after").unwrap(), 41);
        drop(w);
        let (_, records, rec) = SegmentedWal::open(&dir, false, 0).unwrap();
        assert_eq!(rec.defect, None);
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].seq, 41);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn single_file_store_from_before_rotation_opens_unchanged() {
        let dir = tmp_dir("legacy");
        // A log written through plain `Wal` is the store's log.
        let (mut wal, _, _) = Wal::open(&dir.join(WAL_FILE), false).unwrap();
        for i in 0..5 {
            wal.append(2, format!("legacy-{i}").as_bytes()).unwrap();
        }
        drop(wal);
        let (w, records, rec) = SegmentedWal::open(&dir, false, 0).unwrap();
        assert_eq!(rec.defect, None);
        assert_eq!(records.len(), 5);
        assert_eq!(w.next_seq(), 6);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rotation_disabled_never_seals() {
        // `rotate_bytes` is ignored: 40 records over a 128-byte threshold
        // stay in `wal.log`, the only file in the directory.
        let dir = tmp_dir("noseal");
        let (mut w, _, _) = SegmentedWal::open(&dir, false, 128).unwrap();
        fill(&mut w, 40);
        drop(w);
        let names: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(names, [WAL_FILE]);
        let (_, records, _) = SegmentedWal::open(&dir, false, 128).unwrap();
        assert_eq!(records.len(), 40);
        std::fs::remove_dir_all(&dir).ok();
    }
}
