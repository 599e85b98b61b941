//! The TCP listener, worker pool, and request router.
//!
//! Threading model — plain `std`, no async runtime:
//!
//! * one **acceptor** thread owns the `TcpListener` and pushes accepted
//!   sockets onto a bounded connection queue; a full queue means the
//!   socket is answered `503` and dropped on the spot (admission control
//!   at the door, before a worker is tied up),
//! * a fixed pool of **worker** threads pops connections and serves them
//!   keep-alive until close, error, or shutdown,
//! * one **batcher** thread (in [`crate::coalesce`]) flushes queued
//!   single-query estimates as batches.
//!
//! Shutdown is cooperative: a flag plus a self-connect to unblock the
//! acceptor; workers notice the flag at their next read timeout, the
//! batcher drains its queue, and `ServerHandle::shutdown` joins them all.

use serde::Value;
use std::collections::VecDeque;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::coalesce::{CoalesceConfig, Coalescer, SubmitError};
use crate::http::{HttpConnection, HttpError, NextRequest, Request};
use crate::ingest::IngestService;
use crate::model::OwnedQuery;
use crate::registry::ModelRegistry;
use crate::replicate::ReplicationState;
use crate::stats::{Route, ServerStats};
use cardest_store::{clock, StoreError};

/// One routed response: status, JSON body, extra headers.
type Reply = (u16, String, Vec<(String, String)>);

fn reply(status: u16, body: String) -> Reply {
    (status, body, Vec::new())
}

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Worker threads serving connections.
    pub workers: usize,
    /// Cap on request bodies.
    pub max_body_bytes: usize,
    /// Bound on the accepted-but-unclaimed connection queue; beyond it
    /// new connections are answered 503 immediately.
    pub pending_connections: usize,
    /// Socket read timeout — how often an idle worker polls shutdown.
    pub read_timeout: Duration,
    /// Coalescing knobs for `POST /estimate`.
    pub coalesce: CoalesceConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            max_body_bytes: 4 * 1024 * 1024,
            pending_connections: 128,
            read_timeout: Duration::from_millis(100),
            coalesce: CoalesceConfig::default(),
        }
    }
}

struct Shared {
    registry: Arc<ModelRegistry>,
    stats: Arc<ServerStats>,
    coalescer: Arc<Coalescer>,
    /// `Some` when the server was started with a durable store; `None`
    /// servers answer `POST /insert` with 404 (read-only serving).
    ingest: Option<Arc<IngestService>>,
    /// Primary/standby role; plain primary unless started replicated.
    repl: Arc<ReplicationState>,
    shutdown: AtomicBool,
    conns: Mutex<VecDeque<TcpStream>>,
    conn_wake: Condvar,
    cfg: ServerConfig,
}

/// Namespace for [`Server::start`].
pub struct Server;

/// A running server: its bound address plus the thread handles needed to
/// stop it.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds, spawns the acceptor / workers / batcher, and returns.
    /// The resulting server is read-only: `POST /insert` answers 404.
    pub fn start(cfg: ServerConfig, registry: Arc<ModelRegistry>) -> std::io::Result<ServerHandle> {
        Self::start_inner(cfg, registry, None, ReplicationState::primary())
    }

    /// Like [`Server::start`], but with a mutable serving dataset: the
    /// ingest service backs `POST /insert`, and its background fine-tune
    /// worker hot-swaps drift-adapted models through the registry.
    pub fn start_with_ingest(
        cfg: ServerConfig,
        registry: Arc<ModelRegistry>,
        ingest: Arc<IngestService>,
    ) -> std::io::Result<ServerHandle> {
        Self::start_inner(cfg, registry, Some(ingest), ReplicationState::primary())
    }

    /// Like [`Server::start_with_ingest`], with an explicit replication
    /// role — a standby serves read-only until promoted.
    pub fn start_replicated(
        cfg: ServerConfig,
        registry: Arc<ModelRegistry>,
        ingest: Arc<IngestService>,
        repl: Arc<ReplicationState>,
    ) -> std::io::Result<ServerHandle> {
        Self::start_inner(cfg, registry, Some(ingest), repl)
    }

    fn start_inner(
        cfg: ServerConfig,
        registry: Arc<ModelRegistry>,
        ingest: Option<Arc<IngestService>>,
        repl: Arc<ReplicationState>,
    ) -> std::io::Result<ServerHandle> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let stats = Arc::new(ServerStats::default());
        let coalescer = Coalescer::new(
            cfg.coalesce.clone(),
            Arc::clone(&registry),
            Arc::clone(&stats),
        );
        let shared = Arc::new(Shared {
            registry,
            stats,
            coalescer: Arc::clone(&coalescer),
            ingest,
            repl,
            shutdown: AtomicBool::new(false),
            conns: Mutex::new(VecDeque::new()),
            conn_wake: Condvar::new(),
            cfg: cfg.clone(),
        });

        let mut threads = Vec::with_capacity(cfg.workers + 3);
        threads.push(coalescer.spawn_batcher()?);
        if let Some(svc) = &shared.ingest {
            threads.push(svc.spawn_worker(Arc::clone(&shared.registry))?);
        }
        {
            let shared = Arc::clone(&shared);
            threads.push(
                std::thread::Builder::new()
                    .name("cardest-acceptor".to_string())
                    .spawn(move || acceptor_loop(&listener, &shared))?,
            );
        }
        for i in 0..cfg.workers.max(1) {
            let shared = Arc::clone(&shared);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("cardest-worker-{i}"))
                    .spawn(move || worker_loop(&shared))?,
            );
        }
        Ok(ServerHandle {
            addr,
            shared,
            threads,
        })
    }
}

impl ServerHandle {
    /// The bound address (useful with an ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The serving counters.
    pub fn stats(&self) -> &ServerStats {
        &self.shared.stats
    }

    /// The registry behind this server.
    pub fn registry(&self) -> &Arc<ModelRegistry> {
        &self.shared.registry
    }

    /// The ingest service, when this server was started with one.
    pub fn ingest(&self) -> Option<&Arc<IngestService>> {
        self.shared.ingest.as_ref()
    }

    /// The replication role (primary unless started replicated).
    pub fn repl(&self) -> &Arc<ReplicationState> {
        &self.shared.repl
    }

    /// Stops accepting, drains the coalescing queue, and joins every
    /// thread. Idempotent in effect; consumes the handle.
    pub fn shutdown(self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.coalescer.shutdown();
        if let Some(svc) = &self.shared.ingest {
            svc.shutdown();
        }
        self.shared.conn_wake.notify_all();
        // Unblock the acceptor's blocking accept() with a throwaway
        // connection; if it fails the acceptor still exits at the next
        // real connection or process end.
        let _ = TcpStream::connect(self.addr);
        for t in self.threads {
            let _ = t.join();
        }
    }
}

fn acceptor_loop(listener: &TcpListener, shared: &Shared) {
    loop {
        let stream = match listener.accept() {
            Ok((s, _)) => s,
            Err(_) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
        };
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let _ = stream.set_read_timeout(Some(shared.cfg.read_timeout));
        let _ = stream.set_nodelay(true);
        let mut q = shared.conns.lock().unwrap_or_else(PoisonError::into_inner);
        if q.len() >= shared.cfg.pending_connections {
            drop(q);
            shared
                .stats
                .connections_rejected
                .fetch_add(1, Ordering::Relaxed);
            let mut s = stream;
            let _ = crate::http::write_response_to(
                &mut s,
                503,
                br#"{"error":"server overloaded"}"#,
                false,
            );
            continue;
        }
        q.push_back(stream);
        drop(q);
        shared.conn_wake.notify_one();
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let stream = {
            let mut q = shared.conns.lock().unwrap_or_else(PoisonError::into_inner);
            loop {
                if let Some(s) = q.pop_front() {
                    break Some(s);
                }
                if shared.shutdown.load(Ordering::SeqCst) {
                    break None;
                }
                let (next, _) = shared
                    .conn_wake
                    .wait_timeout(q, Duration::from_millis(100))
                    .unwrap_or_else(PoisonError::into_inner);
                q = next;
            }
        };
        match stream {
            Some(s) => handle_connection(shared, s),
            None => return,
        }
    }
}

fn handle_connection(shared: &Shared, stream: TcpStream) {
    let mut conn = HttpConnection::new(stream);
    loop {
        match conn.read_request(shared.cfg.max_body_bytes) {
            Ok(NextRequest::Ready(req)) => {
                let keep_alive = req.keep_alive && !shared.shutdown.load(Ordering::SeqCst);
                let (status, body, headers) = route_request(shared, &req);
                shared.stats.record_status(status);
                if conn
                    .write_response_with_headers(status, body.as_bytes(), keep_alive, &headers)
                    .is_err()
                {
                    return;
                }
                if !keep_alive {
                    return;
                }
            }
            Ok(NextRequest::Idle) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
            }
            Ok(NextRequest::Closed) => return,
            Err(HttpError::Malformed(m)) => {
                shared.stats.record_status(400);
                let _ = conn.write_response(400, error_body(&m).as_bytes(), false);
                return;
            }
            Err(HttpError::BodyTooLarge { declared, cap }) => {
                shared.stats.record_status(400);
                let msg = format!("body of {declared} bytes exceeds cap of {cap}");
                let _ = conn.write_response(400, error_body(&msg).as_bytes(), false);
                return;
            }
            Err(HttpError::Io(_)) => return,
        }
    }
}

/// Dispatches one request, returning `(status, json_body, headers)`.
fn route_request(shared: &Shared, req: &Request) -> Reply {
    let start = clock::now();
    let (route, outcome) = match (req.method.as_str(), req.path.as_str()) {
        ("POST", "/estimate") => (
            Some(Route::Estimate),
            reply2(handle_estimate(shared, &req.body)),
        ),
        ("POST", "/estimate_batch") => (
            Some(Route::EstimateBatch),
            reply2(handle_estimate_batch(shared, &req.body)),
        ),
        ("GET", "/health") => (Some(Route::Health), reply2(handle_health(shared))),
        ("GET", "/ready") => (Some(Route::Ready), reply2(handle_ready(shared))),
        ("GET", "/stats") => (Some(Route::Stats), reply2(handle_stats(shared))),
        ("POST", "/admin/reload") => (
            Some(Route::Reload),
            reply2(handle_reload(shared, &req.body)),
        ),
        ("POST", "/admin/promote") => (Some(Route::Promote), reply2(handle_promote(shared))),
        ("GET", "/admin/fingerprint") => {
            (Some(Route::Fingerprint), reply2(handle_fingerprint(shared)))
        }
        ("POST", "/insert") => (Some(Route::Insert), handle_insert(shared, &req.body)),
        (
            "GET",
            "/estimate" | "/estimate_batch" | "/admin/reload" | "/admin/promote" | "/insert",
        )
        | ("POST", "/health" | "/ready" | "/stats" | "/admin/fingerprint") => (
            None,
            reply(405, error_body("method not allowed for this path")),
        ),
        _ => (None, reply(404, error_body("no such route"))),
    };
    if let Some(r) = route {
        let us = start.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
        shared.stats.record_route(r, us);
    }
    outcome
}

/// Lifts a header-less handler result into a [`Reply`].
fn reply2((status, body): (u16, String)) -> Reply {
    reply(status, body)
}

fn error_body(msg: &str) -> String {
    json(&Value::Map(vec![(
        "error".to_string(),
        Value::Str(msg.to_string()),
    )]))
}

/// Renders a Value tree; infallible for trees we build ourselves.
fn json(v: &Value) -> String {
    serde_json::to_string(v).unwrap_or_else(|_| r#"{"error":"serialization failure"}"#.to_string())
}

// cardest-lint: allow(error-taxonomy): the String is a client-facing 400 body; callers never branch on it
fn parse_body(body: &[u8]) -> Result<Value, String> {
    if body.is_empty() {
        return Err("empty body; expected a JSON object".to_string());
    }
    serde_json::from_slice::<Value>(body).map_err(|e| e.to_string())
}

/// Pulls `{"query": [...], "tau": ...}` out of a JSON map.
// cardest-lint: allow(error-taxonomy): the String is a client-facing 400 body; callers never branch on it
fn parse_query_entry(
    entry: &Value,
    what: &str,
    shared: &Shared,
) -> Result<(OwnedQuery, f32), String> {
    let map = entry.expect_map(what).map_err(|e| e.to_string())?;
    let components: Vec<f32> = serde::get_field(map, "query", what).map_err(|e| e.to_string())?;
    let tau: f32 = serde::get_field(map, "tau", what).map_err(|e| e.to_string())?;
    let query = OwnedQuery::from_components(&components, shared.registry.config().repr)?;
    Ok((query, tau))
}

fn handle_estimate(shared: &Shared, body: &[u8]) -> (u16, String) {
    let parsed = parse_body(body).and_then(|v| parse_query_entry(&v, "estimate body", shared));
    let (query, tau) = match parsed {
        Ok(p) => p,
        Err(m) => return (400, error_body(&m)),
    };
    let rx = match shared.coalescer.submit(query, tau) {
        Ok(rx) => rx,
        Err(SubmitError::Overloaded) => {
            return (503, error_body("estimation queue is full; retry later"))
        }
        Err(SubmitError::ShuttingDown) => return (503, error_body("server is shutting down")),
    };
    match rx.recv() {
        Ok(reply) => match reply.result {
            Ok(est) => (
                200,
                json(&Value::Map(vec![
                    ("estimate".to_string(), Value::Float(f64::from(est))),
                    (
                        "model_version".to_string(),
                        Value::UInt(reply.model_version),
                    ),
                ])),
            ),
            Err(e) => (400, error_body(&e.to_string())),
        },
        Err(_) => (500, error_body("estimation pipeline dropped the request")),
    }
}

fn handle_estimate_batch(shared: &Shared, body: &[u8]) -> (u16, String) {
    let parsed = parse_body(body).and_then(|v| {
        let map = v.expect_map("batch body").map_err(|e| e.to_string())?;
        let entries = map
            .iter()
            .find(|(k, _)| k == "queries")
            .ok_or_else(|| "missing field `queries`".to_string())?
            .1
            .expect_seq("queries")
            .map_err(|e| e.to_string())?;
        entries
            .iter()
            .map(|e| parse_query_entry(e, "batch entry", shared))
            .collect::<Result<Vec<_>, _>>()
    });
    let queries = match parsed {
        Ok(q) => q,
        Err(m) => return (400, error_body(&m)),
    };
    // Batches skip the coalescer — they already amortize; serve directly
    // against the generation pinned for the whole batch.
    let model = shared.registry.active();
    let views: Vec<_> = queries.iter().map(|(q, tau)| (q.view(), *tau)).collect();
    let results = model.guarded.serve_batch(&views);
    let rendered: Vec<Value> = results
        .into_iter()
        .map(|r| match r {
            Ok(est) => Value::Map(vec![("estimate".to_string(), Value::Float(f64::from(est)))]),
            Err(e) => Value::Map(vec![("error".to_string(), Value::Str(e.to_string()))]),
        })
        .collect();
    (
        200,
        json(&Value::Map(vec![
            ("model_version".to_string(), Value::UInt(model.version)),
            ("results".to_string(), Value::Seq(rendered)),
        ])),
    )
}

/// `POST /insert`: durably adds one point to the served dataset. The
/// validate step (dimension, representation, finiteness) runs *before*
/// the WAL append, so a rejected point never reaches disk; a 200 means
/// the point is durable and already routed to its segment.
fn handle_insert(shared: &Shared, body: &[u8]) -> Reply {
    let Some(svc) = &shared.ingest else {
        return reply(404, error_body("ingestion is not enabled on this server"));
    };
    if shared.repl.is_standby() {
        // Writes belong on the primary. `Retry-After: 1` tells polite
        // clients to back off; the body names the primary when known.
        let mut fields = vec![
            (
                "error".to_string(),
                Value::Str("this node is a read-only standby".to_string()),
            ),
            ("role".to_string(), Value::Str("standby".to_string())),
        ];
        if let Some(url) = shared.repl.primary_url() {
            fields.push(("primary".to_string(), Value::Str(url.to_string())));
        }
        return (
            503,
            json(&Value::Map(fields)),
            vec![("retry-after".to_string(), "1".to_string())],
        );
    }
    let parsed = parse_body(body).and_then(|v| {
        let map = v.expect_map("insert body").map_err(|e| e.to_string())?;
        let components: Vec<f32> =
            serde::get_field(map, "point", "insert body").map_err(|e| e.to_string())?;
        OwnedQuery::from_components(&components, shared.registry.config().repr)
    });
    let point = match parsed {
        Ok(p) => p,
        Err(m) => return reply(400, error_body(&m)),
    };
    match svc.insert(&point) {
        Ok((receipt, finetune_scheduled)) => {
            // The dataset grew; the next model swap clamps to the new size.
            shared.registry.set_n_data(receipt.index + 1);
            reply(
                200,
                json(&Value::Map(vec![
                    ("seq".to_string(), Value::UInt(receipt.seq)),
                    ("index".to_string(), Value::UInt(receipt.index as u64)),
                    ("segment".to_string(), Value::UInt(receipt.segment as u64)),
                    (
                        "finetune_scheduled".to_string(),
                        Value::Bool(finetune_scheduled),
                    ),
                ])),
            )
        }
        Err(
            e @ (StoreError::DimensionMismatch { .. }
            | StoreError::ReprMismatch { .. }
            | StoreError::NonFinite { .. }
            | StoreError::OutOfRange { .. }),
        ) => reply(400, error_body(&e.to_string())),
        Err(e) => reply(500, error_body(&e.to_string())),
    }
}

/// `GET /health` — pure *liveness*: the process is up and a model is
/// loaded. Never consults replication; a lagging standby is still alive.
/// Readiness (can this node serve what you're about to ask of it?) is
/// `GET /ready`'s job.
fn handle_health(shared: &Shared) -> (u16, String) {
    let model = shared.registry.active();
    (
        200,
        json(&Value::Map(vec![
            ("status".to_string(), Value::Str("ok".to_string())),
            ("model_version".to_string(), Value::UInt(model.version)),
            ("kind".to_string(), Value::Str(model.kind.clone())),
        ])),
    )
}

/// `GET /ready` — *readiness*: role, replication position, and lag. A
/// standby answers 503 until it is connected to its primary and fully
/// caught up; a primary (or a static read-only server) is always ready.
fn handle_ready(shared: &Shared) -> (u16, String) {
    let role = if shared.repl.is_standby() {
        "standby"
    } else if shared.ingest.is_some() {
        "primary"
    } else {
        "static"
    };
    let mut fields = vec![("role".to_string(), Value::Str(role.to_string()))];
    if let Some(svc) = &shared.ingest {
        fields.push(("last_seq".to_string(), Value::UInt(svc.last_seq())));
    }
    let (status, ready) = if shared.repl.is_standby() {
        match shared.repl.client_status() {
            Some(s) => {
                let connected = s.connected.load(Ordering::Relaxed);
                let lag = s.lag();
                fields.push(("connected".to_string(), Value::Bool(connected)));
                fields.push((
                    "last_applied".to_string(),
                    Value::UInt(s.last_applied.load(Ordering::Relaxed)),
                ));
                fields.push((
                    "primary_head".to_string(),
                    Value::UInt(s.primary_head.load(Ordering::Relaxed)),
                ));
                fields.push(("lag".to_string(), Value::UInt(lag)));
                if connected && lag == 0 {
                    (200, true)
                } else {
                    (503, false)
                }
            }
            // Declared standby but no client attached yet: not ready.
            None => (503, false),
        }
    } else {
        if let Some(stats) = shared.repl.listener_stats() {
            let head = shared.ingest.as_ref().map_or(0, |s| s.last_seq());
            fields.push((
                "standby_sessions".to_string(),
                Value::UInt(stats.active.load(Ordering::Relaxed)),
            ));
            fields.push((
                "standby_acked".to_string(),
                Value::UInt(stats.last_acked.load(Ordering::Relaxed)),
            ));
            fields.push(("standby_lag".to_string(), Value::UInt(stats.lag(head))));
        }
        (200, true)
    };
    fields.insert(0, ("ready".to_string(), Value::Bool(ready)));
    (status, json(&Value::Map(fields)))
}

/// `POST /admin/promote` — standby → writable primary: stop replicating,
/// rebaseline the drift monitor, accept inserts.
fn handle_promote(shared: &Shared) -> (u16, String) {
    let Some(svc) = &shared.ingest else {
        return (404, error_body("this server has no durable store"));
    };
    if !shared.repl.promote() {
        return (
            409,
            json(&Value::Map(vec![
                ("promoted".to_string(), Value::Bool(false)),
                (
                    "error".to_string(),
                    Value::Str("already primary".to_string()),
                ),
            ])),
        );
    }
    svc.rebaseline_monitor();
    shared.registry.set_n_data(svc.dataset_len());
    (
        200,
        json(&Value::Map(vec![
            ("promoted".to_string(), Value::Bool(true)),
            ("role".to_string(), Value::Str("primary".to_string())),
            ("last_seq".to_string(), Value::UInt(svc.last_seq())),
        ])),
    )
}

/// `GET /admin/fingerprint` — the state fingerprint the failover runbook
/// compares across nodes (bit-identical state ⇔ equal fingerprints).
fn handle_fingerprint(shared: &Shared) -> (u16, String) {
    let Some(svc) = &shared.ingest else {
        return (404, error_body("this server has no durable store"));
    };
    match svc.fingerprint() {
        Ok(fp) => (
            200,
            json(&Value::Map(vec![
                ("fingerprint".to_string(), Value::UInt(fp)),
                ("last_seq".to_string(), Value::UInt(svc.last_seq())),
            ])),
        ),
        Err(e) => (500, error_body(&e.to_string())),
    }
}

fn handle_stats(shared: &Shared) -> (u16, String) {
    use serde::Serialize;
    let model = shared.registry.active();
    let guard = shared.registry.stats();
    let reloads = shared.registry.reload_stats();
    let s = &shared.stats;
    let routes: Vec<(String, Value)> = Route::ALL
        .iter()
        .map(|r| (r.name().to_string(), s.route(*r).snapshot().serialize()))
        .collect();
    let ingest = match &shared.ingest {
        None => Value::Map(vec![("enabled".to_string(), Value::Bool(false))]),
        Some(svc) => {
            let i = svc.snapshot();
            Value::Map(vec![
                ("enabled".to_string(), Value::Bool(true)),
                ("inserts".to_string(), Value::UInt(i.inserts)),
                ("last_seq".to_string(), Value::UInt(i.last_seq)),
                ("wal_bytes".to_string(), Value::UInt(i.wal_bytes)),
                ("live_rows".to_string(), Value::UInt(i.live_rows)),
                ("drift_checks".to_string(), Value::UInt(i.drift_checks)),
                ("drift_triggers".to_string(), Value::UInt(i.drift_triggers)),
                ("finetunes_ok".to_string(), Value::UInt(i.finetunes_ok)),
                (
                    "finetunes_failed".to_string(),
                    Value::UInt(i.finetunes_failed),
                ),
                (
                    "finetune_retries".to_string(),
                    Value::UInt(i.finetune_retries),
                ),
            ])
        }
    };
    let replication = {
        let mut fields = vec![(
            "role".to_string(),
            Value::Str(
                if shared.repl.is_standby() {
                    "standby"
                } else {
                    "primary"
                }
                .to_string(),
            ),
        )];
        if let Some(s) = shared.repl.client_status() {
            fields.push((
                "connected".to_string(),
                Value::Bool(s.connected.load(Ordering::Relaxed)),
            ));
            fields.push((
                "last_applied".to_string(),
                Value::UInt(s.last_applied.load(Ordering::Relaxed)),
            ));
            fields.push(("lag".to_string(), Value::UInt(s.lag())));
            fields.push((
                "records_applied".to_string(),
                Value::UInt(s.records_applied.load(Ordering::Relaxed)),
            ));
            fields.push((
                "snapshots_installed".to_string(),
                Value::UInt(s.snapshots_installed.load(Ordering::Relaxed)),
            ));
            fields.push((
                "reconnects".to_string(),
                Value::UInt(s.reconnects.load(Ordering::Relaxed)),
            ));
            fields.push((
                "corrupt_frames".to_string(),
                Value::UInt(s.corrupt_frames.load(Ordering::Relaxed)),
            ));
        }
        if let Some(p) = shared.repl.listener_stats() {
            let head = shared.ingest.as_ref().map_or(0, |s| s.last_seq());
            fields.push((
                "standby_sessions".to_string(),
                Value::UInt(p.sessions.load(Ordering::Relaxed)),
            ));
            fields.push((
                "standby_active".to_string(),
                Value::UInt(p.active.load(Ordering::Relaxed)),
            ));
            fields.push((
                "standby_acked".to_string(),
                Value::UInt(p.last_acked.load(Ordering::Relaxed)),
            ));
            fields.push(("standby_lag".to_string(), Value::UInt(p.lag(head))));
            fields.push((
                "records_sent".to_string(),
                Value::UInt(p.records_sent.load(Ordering::Relaxed)),
            ));
            fields.push((
                "snapshots_sent".to_string(),
                Value::UInt(p.snapshots_sent.load(Ordering::Relaxed)),
            ));
        }
        Value::Map(fields)
    };
    let body = Value::Map(vec![
        (
            "model".to_string(),
            Value::Map(vec![
                ("version".to_string(), Value::UInt(model.version)),
                ("kind".to_string(), Value::Str(model.kind.clone())),
                (
                    "source".to_string(),
                    Value::Str(model.source.display().to_string()),
                ),
            ]),
        ),
        ("routes".to_string(), Value::Map(routes)),
        ("ingest".to_string(), ingest),
        ("replication".to_string(), replication),
        (
            "guard".to_string(),
            Value::Map(vec![
                ("served".to_string(), Value::UInt(guard.served as u64)),
                ("rejected".to_string(), Value::UInt(guard.rejected as u64)),
                ("fallbacks".to_string(), Value::UInt(guard.fallbacks as u64)),
                ("fallback_reasons".to_string(), {
                    let r = guard.fallback_reasons;
                    Value::Map(vec![
                        (
                            "tau_out_of_range".to_string(),
                            Value::UInt(r.tau_out_of_range as u64),
                        ),
                        ("non_finite".to_string(), Value::UInt(r.non_finite as u64)),
                        ("negative".to_string(), Value::UInt(r.negative as u64)),
                    ])
                }),
                ("clamped".to_string(), Value::UInt(guard.clamped as u64)),
                (
                    "monotone_fixes".to_string(),
                    Value::UInt(guard.monotone_fixes as u64),
                ),
            ]),
        ),
        (
            "reloads".to_string(),
            Value::Map(vec![
                ("ok".to_string(), Value::UInt(reloads.ok)),
                ("rejected".to_string(), Value::UInt(reloads.rejected)),
                (
                    "retired_generations".to_string(),
                    Value::UInt(shared.registry.retired_generations() as u64),
                ),
            ]),
        ),
        (
            "coalesce".to_string(),
            Value::Map(vec![
                (
                    "batches".to_string(),
                    Value::UInt(s.coalesced_batches.load(Ordering::Relaxed)),
                ),
                (
                    "queries".to_string(),
                    Value::UInt(s.coalesced_queries.load(Ordering::Relaxed)),
                ),
                (
                    "max_batch".to_string(),
                    Value::UInt(s.coalesced_max_batch.load(Ordering::Relaxed)),
                ),
                (
                    "queued".to_string(),
                    Value::UInt(shared.coalescer.queued() as u64),
                ),
            ]),
        ),
        (
            "http".to_string(),
            Value::Map(vec![
                (
                    "400".to_string(),
                    Value::UInt(s.http_400.load(Ordering::Relaxed)),
                ),
                (
                    "404".to_string(),
                    Value::UInt(s.http_404.load(Ordering::Relaxed)),
                ),
                (
                    "409".to_string(),
                    Value::UInt(s.http_409.load(Ordering::Relaxed)),
                ),
                (
                    "500".to_string(),
                    Value::UInt(s.http_500.load(Ordering::Relaxed)),
                ),
                (
                    "503".to_string(),
                    Value::UInt(s.http_503.load(Ordering::Relaxed)),
                ),
                (
                    "connections_rejected".to_string(),
                    Value::UInt(s.connections_rejected.load(Ordering::Relaxed)),
                ),
            ]),
        ),
    ]);
    (200, json(&body))
}

fn handle_reload(shared: &Shared, body: &[u8]) -> (u16, String) {
    // Path is optional: an empty body (or missing field) re-reads the
    // active generation's source file — the "the artifact on disk was
    // retrained in place" workflow.
    let path = if body.is_empty() {
        None
    } else {
        match parse_body(body).and_then(|v| {
            let map = v.expect_map("reload body").map_err(|e| e.to_string())?;
            match map.iter().find(|(k, _)| k == "path") {
                Some((_, Value::Str(p))) => Ok(Some(std::path::PathBuf::from(p))),
                Some((_, other)) => Err(format!(
                    "`path` must be a string, found {}",
                    other.describe()
                )),
                None => Ok(None),
            }
        }) {
            Ok(p) => p,
            Err(m) => return (400, error_body(&m)),
        }
    };
    let path = path.unwrap_or_else(|| shared.registry.active().source.clone());
    match shared.registry.reload(&path) {
        Ok(version) => (
            200,
            json(&Value::Map(vec![
                ("reloaded".to_string(), Value::Bool(true)),
                ("model_version".to_string(), Value::UInt(version)),
                ("path".to_string(), Value::Str(path.display().to_string())),
            ])),
        ),
        Err(e) => {
            // The old model is still serving — tell the caller which one.
            let current = shared.registry.active().version;
            (
                409,
                json(&Value::Map(vec![
                    ("reloaded".to_string(), Value::Bool(false)),
                    ("error".to_string(), Value::Str(e.to_string())),
                    ("model_version".to_string(), Value::UInt(current)),
                ])),
            )
        }
    }
}
