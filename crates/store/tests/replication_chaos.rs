//! Replication chaos harness (ISSUE 8 tentpole): a primary streams its
//! WAL through a deterministic fault-injecting proxy — drops, delays,
//! disconnects, truncated frames, duplicated frames, bit flips — and the
//! standby must reconnect with backoff, replay, and converge to a
//! `state_fingerprint` bit-identical to the primary's once the storm
//! drains. Also pins snapshot bootstrap after compaction and the
//! graceful-degradation contract (a dead standby never blocks inserts).

use cardest_baselines::traits::TrainingSet;
use cardest_core::backoff::BackoffConfig;
use cardest_core::gl::{GlConfig, GlEstimator, GlVariant};
use cardest_core::tuning::TuningConfig;
use cardest_core::update::{UpdatableGl, UpdateConfig};
use cardest_data::metric::Metric;
use cardest_data::paper::{DatasetSpec, PaperDataset};
use cardest_data::vector::VectorView;
use cardest_data::workload::SearchWorkload;
use cardest_nn::trainer::TrainConfig;
use cardest_store::chaos::{ChaosConfig, ChaosMode, ChaosProxy};
use cardest_store::replicate::{
    ListenerConfig, ReplicaClient, ReplicaClientConfig, ReplicaSource, ReplicationListener,
    SharedStore, StandbyTarget,
};
use cardest_store::{DurableIngest, StoreConfig};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

const N_DATA: usize = 400;
const DIM: usize = 16;

fn spec() -> DatasetSpec {
    DatasetSpec {
        dataset: PaperDataset::GloVe300,
        dim: DIM,
        n_data: N_DATA,
        n_train_queries: 30,
        n_test_queries: 10,
        metric: Metric::Angular,
        tau_max: 0.6,
    }
}

/// Trains the tiny GL stack, deterministic in the seed.
fn build_updatable(seed: u64) -> UpdatableGl {
    let spec = spec();
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
            epochs: 2,
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

fn dense_row(upd: &UpdatableGl, data_row: usize) -> Vec<f32> {
    match upd.data().view(data_row) {
        VectorView::Dense(row) => row.to_vec(),
        other => panic!("spec is dense, got {other:?}"),
    }
}

fn tmp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("cardest-repl-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&d).ok();
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// Primary/standby configs: no auto-snapshots, WAL retained (the storm
/// test wants every record streamable), so catch-up reads the one
/// `wal.log` from its first record.
fn repl_cfg() -> StoreConfig {
    StoreConfig {
        snapshot_every: 0,
        sync_writes: false,
        retain_wal: true,
        ..StoreConfig::default()
    }
}

fn fast_client_cfg(seed: u64) -> ReplicaClientConfig {
    ReplicaClientConfig {
        connect_timeout: Duration::from_secs(1),
        read_timeout: Duration::from_millis(30),
        write_timeout: Duration::from_secs(1),
        backoff: BackoffConfig {
            base: Duration::from_millis(10),
            max: Duration::from_millis(150),
            jitter: 0.5,
            max_attempts: 0,
        },
        seed,
        ack_every: 8,
    }
}

fn fast_listener_cfg() -> ListenerConfig {
    ListenerConfig {
        heartbeat_every: Duration::from_millis(100),
        batch_max: 32,
        ack_poll: Duration::from_millis(10),
        hello_deadline: Duration::from_secs(10),
    }
}

/// Waits until the standby's durable position reaches `target_seq`.
fn await_catchup(standby: &Arc<SharedStore>, target_seq: u64, deadline: Duration) {
    let start = Instant::now();
    while StandbyTarget::last_applied(standby.as_ref()) < target_seq {
        assert!(
            start.elapsed() < deadline,
            "standby stuck at seq {} of {} after {:?}",
            StandbyTarget::last_applied(standby.as_ref()),
            target_seq,
            deadline
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn standby_converges_bit_identically_through_the_fault_storm() {
    let upd = build_updatable(11);
    let base_json = upd.snapshot_json().unwrap();
    let insert_vecs: Vec<Vec<f32>> = (0..300)
        .map(|i| dense_row(&upd, (i * 7) % N_DATA))
        .collect();

    let dir_p = tmp_dir("storm-p");
    let primary = SharedStore::new(DurableIngest::create(&dir_p, upd, repl_cfg()).unwrap());
    let mut listener = ReplicationListener::start(
        "127.0.0.1:0",
        Arc::clone(&primary) as Arc<dyn ReplicaSource>,
        fast_listener_cfg(),
    )
    .unwrap();

    let mut proxy = ChaosProxy::start(listener.addr(), ChaosConfig::default()).unwrap();
    proxy.set_mode(ChaosMode::Storm);

    let dir_s = tmp_dir("storm-s");
    let upd_s = UpdatableGl::from_snapshot_json(&base_json).unwrap();
    let standby = SharedStore::new(DurableIngest::create(&dir_s, upd_s, repl_cfg()).unwrap());
    let mut client = ReplicaClient::start(
        proxy.addr().to_string(),
        Arc::clone(&standby) as Arc<dyn StandbyTarget>,
        fast_client_cfg(21),
    );
    let status = client.status();

    // Insert through the storm, paced so sessions break mid-stream.
    for (i, v) in insert_vecs.iter().enumerate() {
        primary.insert_dense(v).unwrap();
        if i % 10 == 0 {
            std::thread::sleep(Duration::from_millis(2));
        }
    }
    let head = ReplicaSource::head_seq(primary.as_ref());
    assert_eq!(head, 300);

    // Let the storm rage a while longer over the catch-up traffic...
    std::thread::sleep(Duration::from_millis(1500));
    // ...then drain it and require convergence.
    proxy.set_mode(ChaosMode::Transparent);
    await_catchup(&standby, head, Duration::from_secs(60));

    let chaos = proxy.stats();
    assert!(
        chaos.corruptions() > 0,
        "the storm injected no faults — the harness tested nothing"
    );
    assert!(
        status.reconnects.load(std::sync::atomic::Ordering::Relaxed) > 0,
        "standby never had to reconnect through the storm"
    );
    assert_eq!(
        primary.fingerprint().unwrap(),
        standby.fingerprint().unwrap(),
        "standby state diverged from primary after the storm drained"
    );

    client.stop();
    proxy.stop();
    listener.stop();
    std::fs::remove_dir_all(&dir_p).ok();
    std::fs::remove_dir_all(&dir_s).ok();
}

#[test]
fn compacted_primary_bootstraps_standby_from_snapshot_then_streams() {
    let upd = build_updatable(13);
    let base_json = upd.snapshot_json().unwrap();
    let rows: Vec<Vec<f32>> = (0..70).map(|i| dense_row(&upd, (i * 3) % N_DATA)).collect();

    // Primary truncates: a snapshot drops the WAL records it covers.
    let dir_p = tmp_dir("boot-p");
    let cfg = StoreConfig {
        snapshot_every: 0,
        sync_writes: false,
        retain_wal: false,
        ..StoreConfig::default()
    };
    let primary = SharedStore::new(DurableIngest::create(&dir_p, upd, cfg).unwrap());
    for v in &rows[..50] {
        primary.insert_dense(v).unwrap();
    }
    // Snapshot + truncation: seqs 1..=50 are no longer on disk as WAL.
    primary.with(|s| s.snapshot_now()).unwrap();

    let mut listener = ReplicationListener::start(
        "127.0.0.1:0",
        Arc::clone(&primary) as Arc<dyn ReplicaSource>,
        fast_listener_cfg(),
    )
    .unwrap();

    // A standby at seq 0 must be bootstrapped by a snapshot frame.
    let dir_s = tmp_dir("boot-s");
    let upd_s = UpdatableGl::from_snapshot_json(&base_json).unwrap();
    let standby = SharedStore::new(DurableIngest::create(&dir_s, upd_s, cfg).unwrap());
    let mut client = ReplicaClient::start(
        listener.addr().to_string(),
        Arc::clone(&standby) as Arc<dyn StandbyTarget>,
        fast_client_cfg(23),
    );
    let status = client.status();
    await_catchup(&standby, 50, Duration::from_secs(30));
    // The store position advances inside `install_snapshot`, a beat
    // before the counter — give the client thread a moment to record it.
    let t = Instant::now();
    while status
        .snapshots_installed
        .load(std::sync::atomic::Ordering::Relaxed)
        == 0
        && t.elapsed() < Duration::from_secs(5)
    {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(
        status
            .snapshots_installed
            .load(std::sync::atomic::Ordering::Relaxed)
            >= 1,
        "catch-up over a compacted WAL must go through a snapshot frame"
    );
    assert_eq!(
        primary.fingerprint().unwrap(),
        standby.fingerprint().unwrap()
    );

    // From here the live stream continues record-by-record.
    for v in &rows[50..] {
        primary.insert_dense(v).unwrap();
    }
    await_catchup(&standby, 70, Duration::from_secs(30));
    assert_eq!(
        primary.fingerprint().unwrap(),
        standby.fingerprint().unwrap()
    );
    // Standby recovery from its own disk reproduces the replicated state.
    client.stop();
    listener.stop();
    let standby_fp = standby.fingerprint().unwrap();
    drop(standby);
    let (reopened, _) = DurableIngest::open(&dir_s, cfg).unwrap();
    assert_eq!(reopened.fingerprint().unwrap(), standby_fp);
    std::fs::remove_dir_all(&dir_p).ok();
    std::fs::remove_dir_all(&dir_s).ok();
}

#[test]
fn dead_standby_never_blocks_primary_inserts() {
    let upd = build_updatable(17);
    let base_json = upd.snapshot_json().unwrap();
    let rows: Vec<Vec<f32>> = (0..200)
        .map(|i| dense_row(&upd, (i * 5) % N_DATA))
        .collect();

    let dir_p = tmp_dir("dead-p");
    let primary = SharedStore::new(DurableIngest::create(&dir_p, upd, repl_cfg()).unwrap());
    let mut listener = ReplicationListener::start(
        "127.0.0.1:0",
        Arc::clone(&primary) as Arc<dyn ReplicaSource>,
        fast_listener_cfg(),
    )
    .unwrap();

    // Baseline: no standby at all.
    let t0 = Instant::now();
    for v in &rows[..100] {
        primary.insert_dense(v).unwrap();
    }
    let solo = t0.elapsed();

    // A standby connects, catches up, then dies abruptly.
    let dir_s = tmp_dir("dead-s");
    let upd_s = UpdatableGl::from_snapshot_json(&base_json).unwrap();
    let standby = SharedStore::new(DurableIngest::create(&dir_s, upd_s, repl_cfg()).unwrap());
    let mut client = ReplicaClient::start(
        listener.addr().to_string(),
        Arc::clone(&standby) as Arc<dyn StandbyTarget>,
        fast_client_cfg(29),
    );
    await_catchup(&standby, 100, Duration::from_secs(30));
    client.stop();
    drop(client);

    // Inserts against the now-dead standby: the primary only accumulates
    // lag; it must not block. Allow a generous multiple of the baseline
    // to keep the assertion robust on loaded CI machines — the failure
    // mode this guards against is a *hang* on a dead peer, not jitter.
    let t1 = Instant::now();
    for v in &rows[100..] {
        primary.insert_dense(v).unwrap();
    }
    let with_dead_standby = t1.elapsed();
    assert!(
        with_dead_standby < solo * 20 + Duration::from_secs(2),
        "inserts slowed from {solo:?} to {with_dead_standby:?} after the standby died"
    );

    // The primary reports the dead standby as lag, not as an error.
    let head = ReplicaSource::head_seq(primary.as_ref());
    let stats = listener.stats();
    assert_eq!(head, 200);
    assert!(
        stats.lag(head) > 0,
        "a dead standby at seq 100 must show as replication lag"
    );

    listener.stop();
    std::fs::remove_dir_all(&dir_p).ok();
    std::fs::remove_dir_all(&dir_s).ok();
}
