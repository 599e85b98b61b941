//! The crash matrix: kill the WAL at every scheduled byte offset and
//! assert recovery is *bit-identical* to the never-crashed run's state
//! after the last fully-durable record.
//!
//! Methodology: run an op stream through a live [`DurableIngest`],
//! fingerprinting the full serialized state after every op (`fp[i]` =
//! state after `i` ops). The WAL bytes of that run, cut at offset `o`,
//! are exactly what a kill at `o` leaves on disk; recovery from that
//! prefix must reproduce `fp[records_surviving(o)]`. The schedule covers
//! clean boundaries, boundary ± 1, every header field's interior,
//! payload midpoints, and seeded random offsets — plus bit-flip
//! mid-stream, crash-between-snapshot-and-truncate, and stray
//! mid-rename temp files.

use cardest_baselines::traits::{CardinalityEstimator, TrainingSet};
use cardest_core::gl::{GlConfig, GlEstimator, GlVariant};
use cardest_core::tuning::TuningConfig;
use cardest_core::update::{UpdatableGl, UpdateConfig};
use cardest_data::paper::{DatasetSpec, PaperDataset};
use cardest_data::vector::VectorData;
use cardest_data::workload::SearchWorkload;
use cardest_nn::trainer::TrainConfig;
use cardest_store::crash::{install_torn_wal, kill_offsets, records_surviving};
use cardest_store::ingest::{DurableIngest, StoreConfig, StoreError, SNAPSHOT_FILE, WAL_FILE};
use cardest_store::wal::{scan, HEADER_LEN};
use std::path::{Path, PathBuf};

fn setup(dataset: PaperDataset, seed: u64) -> UpdatableGl {
    let spec = DatasetSpec {
        n_data: 400,
        n_train_queries: 30,
        n_test_queries: 10,
        ..dataset.spec()
    };
    let data = spec.generate(seed);
    let w = SearchWorkload::build(&data, &spec, seed);
    let cfg = GlConfig {
        variant: GlVariant::GlCnn,
        n_segments: 4,
        local_train: TrainConfig {
            epochs: 2,
            batch_size: 64,
            ..Default::default()
        },
        global_train: TrainConfig {
            epochs: 3,
            batch_size: 64,
            ..Default::default()
        },
        tuning: TuningConfig::fast(),
        tuning_segments: 1,
        ..Default::default()
    };
    let training = TrainingSet::new(&w.queries, &w.train);
    let gl = GlEstimator::train(&data, spec.metric, &training, &w.table, &cfg);
    UpdatableGl::new(
        data,
        spec.metric,
        gl,
        w.queries,
        w.train,
        w.test,
        &w.table,
        UpdateConfig::default(),
    )
}

fn tmp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("cardest-crashmx-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&d).ok();
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// No auto-snapshots, no fsync (we crash from byte buffers, not kills),
/// and the full WAL retained so every kill offset is reachable.
fn matrix_cfg() -> StoreConfig {
    StoreConfig {
        snapshot_every: 0,
        sync_writes: false,
        retain_wal: true,
        ..StoreConfig::default()
    }
}

#[derive(Clone, Copy)]
enum Op {
    Insert(usize),
    Delete(usize),
}

/// An op stream with inserts, deletes, and a deliberate double-delete
/// (the no-op second delete is still logged, so replay must reproduce
/// the no-op identically).
fn op_stream() -> Vec<Op> {
    vec![
        Op::Insert(0),
        Op::Insert(1),
        Op::Insert(2),
        Op::Delete(3),
        Op::Insert(5),
        Op::Insert(8),
        Op::Delete(3), // no-op: already tombstoned
        Op::Insert(13),
        Op::Insert(21),
        Op::Delete(34),
        Op::Insert(55),
        Op::Insert(89),
        Op::Insert(144),
        Op::Insert(233),
    ]
}

/// Applies the stream to a live store, returning `fp[i]` = fingerprint
/// after the first `i` ops (so `fp[0]` is the pre-stream state).
fn run_stream(store: &mut DurableIngest, src: &VectorData, ops: &[Op]) -> Vec<u64> {
    let mut fps = vec![store.fingerprint().unwrap()];
    for op in ops {
        match *op {
            Op::Insert(row) => {
                store.insert(src.view(row)).unwrap();
            }
            Op::Delete(idx) => {
                store.delete(idx).unwrap();
            }
        }
        fps.push(store.fingerprint().unwrap());
    }
    fps
}

/// Record end offsets of a WAL byte buffer (cumulative framing).
fn record_ends(bytes: &[u8]) -> Vec<usize> {
    let s = scan(bytes);
    assert_eq!(s.defect, None, "live WAL must scan clean");
    let mut ends = Vec::with_capacity(s.records.len());
    let mut at = 0usize;
    for r in &s.records {
        at += HEADER_LEN + r.payload.len();
        ends.push(at);
    }
    ends
}

/// Installs `snapshot` + the first `keep` bytes of `wal` in `dir` and
/// recovers. Returns the recovered store and its report.
fn recover_torn(
    dir: &Path,
    snapshot: &[u8],
    wal: &[u8],
    keep: usize,
) -> (DurableIngest, cardest_store::RecoveryReport) {
    std::fs::write(dir.join(SNAPSHOT_FILE), snapshot).unwrap();
    install_torn_wal(&dir.join(WAL_FILE), wal, keep).unwrap();
    DurableIngest::open(dir, matrix_cfg()).unwrap()
}

#[test]
fn crash_matrix_dense_recovers_bit_identical_state() {
    let upd = setup(PaperDataset::GloVe300, 41);
    let src = upd.data().gather(&(0..300).collect::<Vec<_>>());
    let live_dir = tmp_dir("dense-live");
    let mut store = DurableIngest::create(&live_dir, upd, matrix_cfg()).unwrap();
    let ops = op_stream();
    let fps = run_stream(&mut store, &src, &ops);
    assert_eq!(fps.len(), ops.len() + 1);

    let snapshot = std::fs::read(live_dir.join(SNAPSHOT_FILE)).unwrap();
    let wal = std::fs::read(live_dir.join(WAL_FILE)).unwrap();
    let ends = record_ends(&wal);
    assert_eq!(ends.len(), ops.len());

    let offsets = kill_offsets(&ends, 0xC4A5, 12);
    let rec_dir = tmp_dir("dense-rec");
    for (k, &off) in offsets.iter().enumerate() {
        let survivors = records_surviving(&ends, off);
        let (recovered, report) = recover_torn(&rec_dir, &snapshot, &wal, off);
        assert_eq!(
            recovered.fingerprint().unwrap(),
            fps[survivors],
            "kill at byte {off} ({survivors} records durable) diverged: {report:?}"
        );
        assert_eq!(report.snapshot_seq, 0);
        assert_eq!(report.replayed, survivors);
        assert_eq!(recovered.last_seq(), survivors as u64);
        // A kill that did not land on a record boundary must be reported
        // as a (now truncated) tail defect.
        let clean = off == 0 || ends.contains(&off);
        assert_eq!(report.wal.defect.is_none(), clean, "kill at {off}");
        drop(recovered);
        // Recovery is idempotent: re-opening the repaired store drops
        // nothing further and lands on the same state.
        if k % 5 == 0 {
            let (again, report2) = DurableIngest::open(&rec_dir, matrix_cfg()).unwrap();
            assert_eq!(report2.wal.bytes_dropped, 0, "second open re-truncated");
            assert_eq!(report2.wal.defect, None);
            assert_eq!(again.fingerprint().unwrap(), fps[survivors]);
        }
    }

    // Post-recovery estimates stay well-formed after a full-tail recovery.
    let (recovered, _) = recover_torn(&rec_dir, &snapshot, &wal, wal.len());
    let est = recovered.estimator();
    for s in est.test_samples().iter().take(3) {
        let e = est.gl().estimate(est.queries().view(s.query), s.tau);
        assert!(e.is_finite() && e >= 0.0, "post-recovery estimate {e}");
    }

    std::fs::remove_dir_all(&live_dir).ok();
    std::fs::remove_dir_all(&rec_dir).ok();
}

#[test]
fn crash_matrix_binary_recovers_bit_identical_state() {
    // Same matrix on a bit-packed Hamming dataset: exercises the binary
    // insert op encoding. Boundary-heavy schedule, fewer random offsets.
    let upd = setup(PaperDataset::ImageNet, 43);
    let src = upd.data().gather(&(0..100).collect::<Vec<_>>());
    let live_dir = tmp_dir("bin-live");
    let mut store = DurableIngest::create(&live_dir, upd, matrix_cfg()).unwrap();
    let ops: Vec<Op> = vec![
        Op::Insert(0),
        Op::Insert(7),
        Op::Delete(2),
        Op::Insert(9),
        Op::Insert(11),
        Op::Delete(2),
        Op::Insert(63),
    ];
    let fps = run_stream(&mut store, &src, &ops);
    let snapshot = std::fs::read(live_dir.join(SNAPSHOT_FILE)).unwrap();
    let wal = std::fs::read(live_dir.join(WAL_FILE)).unwrap();
    let ends = record_ends(&wal);
    let rec_dir = tmp_dir("bin-rec");
    for &off in &kill_offsets(&ends, 0xB17, 4) {
        let survivors = records_surviving(&ends, off);
        let (recovered, _) = recover_torn(&rec_dir, &snapshot, &wal, off);
        assert_eq!(
            recovered.fingerprint().unwrap(),
            fps[survivors],
            "binary kill at byte {off}"
        );
    }
    std::fs::remove_dir_all(&live_dir).ok();
    std::fs::remove_dir_all(&rec_dir).ok();
}

#[test]
fn bit_flip_mid_stream_recovers_the_prefix_before_the_flip() {
    let upd = setup(PaperDataset::GloVe300, 47);
    let src = upd.data().gather(&(0..300).collect::<Vec<_>>());
    let live_dir = tmp_dir("flip-live");
    let mut store = DurableIngest::create(&live_dir, upd, matrix_cfg()).unwrap();
    let ops = op_stream();
    let fps = run_stream(&mut store, &src, &ops);
    let snapshot = std::fs::read(live_dir.join(SNAPSHOT_FILE)).unwrap();
    let wal = std::fs::read(live_dir.join(WAL_FILE)).unwrap();
    let ends = record_ends(&wal);
    let rec_dir = tmp_dir("flip-rec");
    // Flip one bit inside records 2, 6, and the last: recovery keeps
    // exactly the records before the flipped one.
    for &r in &[2usize, 6, ops.len() - 1] {
        let start = if r == 0 { 0 } else { ends[r - 1] };
        let mut torn = wal.clone();
        torn[start + 9] ^= 0x20; // inside the checksum field
        std::fs::write(rec_dir.join(SNAPSHOT_FILE), &snapshot).unwrap();
        std::fs::write(rec_dir.join(WAL_FILE), &torn).unwrap();
        let (recovered, report) = DurableIngest::open(&rec_dir, matrix_cfg()).unwrap();
        assert_eq!(report.replayed, r, "flip in record {r}");
        assert!(report.wal.defect.is_some());
        assert_eq!(recovered.fingerprint().unwrap(), fps[r]);
    }
    std::fs::remove_dir_all(&live_dir).ok();
    std::fs::remove_dir_all(&rec_dir).ok();
}

#[test]
fn snapshot_mid_stream_matches_straight_through_replay() {
    let upd = setup(PaperDataset::GloVe300, 53);
    let base_json = upd.snapshot_json().unwrap();
    let src = upd.data().gather(&(0..300).collect::<Vec<_>>());
    let ops = op_stream();

    // Reference: full-WAL run, no snapshots.
    let dir_a = tmp_dir("snapmid-a");
    let mut store_a = DurableIngest::create(&dir_a, upd, matrix_cfg()).unwrap();
    let fps = run_stream(&mut store_a, &src, &ops);

    // Same stream with auto-snapshots every 5 appends (and WAL truncation
    // behind them): the end state must be bit-identical.
    let dir_b = tmp_dir("snapmid-b");
    let upd_b = UpdatableGl::from_snapshot_json(&base_json).unwrap();
    let cfg_b = StoreConfig {
        snapshot_every: 5,
        sync_writes: false,
        retain_wal: false,
        ..StoreConfig::default()
    };
    let mut store_b = DurableIngest::create(&dir_b, upd_b, cfg_b).unwrap();
    let fps_b = run_stream(&mut store_b, &src, &ops);
    assert_eq!(fps_b.last(), fps.last(), "snapshotting changed the state");
    drop(store_b);
    // The on-disk snapshot is the one auto-written at append 10.
    let snap_b = std::fs::read(dir_b.join(SNAPSHOT_FILE)).unwrap();

    // Store B's WAL now holds only the records past its last snapshot
    // (seq 10). Crash it at every offset: recovery = snapshot(10) + tail.
    let wal_b = std::fs::read(dir_b.join(WAL_FILE)).unwrap();
    let ends_b = record_ends(&wal_b);
    assert_eq!(ends_b.len(), ops.len() - 10);
    for &off in &kill_offsets(&ends_b, 0x5EED, 4) {
        install_torn_wal(&dir_b.join(WAL_FILE), &wal_b, off).unwrap();
        let (recovered, report) = DurableIngest::open(&dir_b, cfg_b).unwrap();
        assert_eq!(report.snapshot_seq, 10);
        let survivors = records_surviving(&ends_b, off);
        assert_eq!(recovered.fingerprint().unwrap(), fps[10 + survivors]);
    }

    // Crash *between* snapshot-write and WAL-truncate: the snapshot at
    // seq 10 paired with the full WAL (seqs 1..=14). Covered records are
    // skipped, the tail is replayed.
    let wal_a = std::fs::read(dir_a.join(WAL_FILE)).unwrap();
    let dir_c = tmp_dir("snapmid-c");
    std::fs::write(dir_c.join(SNAPSHOT_FILE), &snap_b).unwrap();
    std::fs::write(dir_c.join(WAL_FILE), &wal_a).unwrap();
    let (recovered, report) = DurableIngest::open(&dir_c, cfg_b).unwrap();
    assert_eq!(report.skipped, 10);
    assert_eq!(report.replayed, 4);
    assert_eq!(recovered.fingerprint().unwrap(), *fps.last().unwrap());

    // Crash mid-snapshot-rename: a stray temp file next to a good
    // snapshot is swept, never loaded. Recovery runs at least a process
    // restart after the crash, so the dropping is older than the sweep's
    // grace window — simulated by backdating its mtime.
    let dropping = dir_c.join(".state.snapshot.tmp.4242");
    std::fs::write(&dropping, b"torn snapshot").unwrap();
    let f = std::fs::File::options()
        .write(true)
        .open(&dropping)
        .unwrap();
    f.set_modified(cardest_store::clock::wall() - 2 * cardest_store::snapshot::SWEEP_GRACE)
        .unwrap();
    drop(f);
    let (_, report) = DurableIngest::open(&dir_c, cfg_b).unwrap();
    assert_eq!(report.stale_tmp_swept, 1);
    assert!(!dropping.exists());

    std::fs::remove_dir_all(&dir_a).ok();
    std::fs::remove_dir_all(&dir_b).ok();
    std::fs::remove_dir_all(&dir_c).ok();
}

#[test]
fn malformed_dense_bits_are_a_typed_error_on_install_and_recovery() {
    // A standby decodes the snapshots a peer sends it, and recovery the
    // file on disk: a bad hex digit in the dataset must surface as an
    // error and leave the store as it was.
    let upd = setup(PaperDataset::GloVe300, 54);
    let json = upd.snapshot_json().unwrap();
    let at = json.find("\"bits\":\"").unwrap() + "\"bits\":\"".len();
    let mut bad = json.into_bytes();
    bad[at] = b'g';
    let dir = tmp_dir("badbits");
    let mut store = DurableIngest::create(&dir, upd, matrix_cfg()).unwrap();
    let fp = store.fingerprint().unwrap();
    match store.install_snapshot(5, &bad) {
        Err(StoreError::Serde(msg)) => assert!(msg.contains("not a lowercase hex digit"), "{msg}"),
        other => panic!("installed a malformed snapshot: {other:?}"),
    }
    assert_eq!(store.last_seq(), 0);
    assert_eq!(store.fingerprint().unwrap(), fp);
    drop(store);
    cardest_store::write_snapshot(&dir.join(SNAPSHOT_FILE), 0, &bad).unwrap();
    assert!(matches!(
        DurableIngest::open(&dir, matrix_cfg()),
        Err(StoreError::Serde(_))
    ));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn malformed_binary_rows_are_a_typed_error_on_install_and_recovery() {
    // The binary twin of the case above: query rows that claim one more
    // dimension than their words hold must be refused, not read past the
    // end of a row.
    let upd = setup(PaperDataset::ImageNet, 56);
    let json = upd.snapshot_json().unwrap();
    let queries = json.find("\"queries\":").unwrap();
    let field = |key: &str| {
        let key = format!("\"{key}\":");
        let at = queries + json[queries..].find(&key).unwrap() + key.len();
        (at, at + json[at..].find(',').unwrap())
    };
    let (at, end) = field("words_per_vec");
    let words_per_vec: usize = json[at..end].parse().unwrap();
    let (at, end) = field("dim");
    let bad = format!("{}{}{}", &json[..at], 64 * words_per_vec + 1, &json[end..]).into_bytes();
    let dir = tmp_dir("badwords");
    let mut store = DurableIngest::create(&dir, upd, matrix_cfg()).unwrap();
    let fp = store.fingerprint().unwrap();
    match store.install_snapshot(5, &bad) {
        Err(StoreError::Serde(msg)) => assert!(msg.contains("words_per_vec"), "{msg}"),
        other => panic!("installed a malformed snapshot: {other:?}"),
    }
    assert_eq!(store.last_seq(), 0);
    assert_eq!(store.fingerprint().unwrap(), fp);
    drop(store);
    cardest_store::write_snapshot(&dir.join(SNAPSHOT_FILE), 0, &bad).unwrap();
    assert!(matches!(
        DurableIngest::open(&dir, matrix_cfg()),
        Err(StoreError::Serde(_))
    ));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn default_store_keeps_one_wal_file_and_the_snapshot() {
    // Under the served config, auto-snapshots truncate the one log; no
    // other file is ever left in the store directory.
    let cfg = StoreConfig::default();
    let n = cfg.snapshot_every + 44;
    let upd = setup(PaperDataset::GloVe300, 61);
    let src = upd.data().gather(&(0..n).collect::<Vec<_>>());
    let dir = tmp_dir("default-files");
    let files = || {
        let mut names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        names
    };
    let mut store = DurableIngest::create(&dir, upd, cfg).unwrap();
    for i in 0..n {
        store.insert(src.view(i)).unwrap();
    }
    let fp = store.fingerprint().unwrap();
    assert_eq!(files(), [SNAPSHOT_FILE, WAL_FILE]);
    drop(store);
    let (store, report) = DurableIngest::open(&dir, cfg).unwrap();
    assert_eq!(report.snapshot_seq, cfg.snapshot_every as u64);
    assert_eq!(report.replayed, n - cfg.snapshot_every);
    assert_eq!(store.fingerprint().unwrap(), fp);
    assert_eq!(files(), [SNAPSHOT_FILE, WAL_FILE]);
    std::fs::remove_dir_all(&dir).ok();
}
