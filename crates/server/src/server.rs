//! The serving layer: acceptor, bounded worker pool, per-session state.
//!
//! ```text
//! acceptor thread ──try_send──▶ bounded queue ──recv──▶ worker pool
//!                     │                                    │ one session
//!                     └─ full: Busy frame, close            ▼ at a time
//!                                         reader loop ── handle ── reply
//!                                              │                     │
//!                                              ▼                     ▼
//!                                        per-session subs      bounded outbox ──▶ writer thread
//! ```
//!
//! Every mutating request (`AdvanceClock`, `Update`, `Register`, `Cancel`,
//! `Subscribe`, `Unsubscribe`) serialises through one mutex so that
//! subscription deltas form a single global sequence: after each mutation
//! the server recomputes every subscribed display under the same lock and
//! enqueues the deltas before the mutator's reply is enqueued.  Because a
//! session's outbox is FIFO, a subscriber that completes any round-trip
//! after a mutation has necessarily drained the deltas that mutation
//! produced — the fence the deterministic load harness builds on.
//!
//! The engine is one [`ShardedDb`] — a single database is its one-shard
//! instance — optionally write-ahead logged through a [`DurableDb`].
//! Read-only requests don't even take a lock: each one **pins the
//! published cut** (`most_core::sharded`) — an `Arc` clone — and answers
//! from those immutable shard epochs, so sessions read concurrently with
//! mutations and with the continuous-query refresh they trigger.  Each
//! `Update` batch publishes exactly one cut (one batch → one refresh
//! pass per touched shard → one cut → one delta fan-out), and
//! `notify_subscribers` pins the just-published cut so every delta in the
//! global sequence is computed from a single consistent state.
//!
//! Backpressure: replies always enqueue (the closed-loop protocol bounds
//! them at one per in-flight request), but pushed delta frames are
//! *droppable* — when a session's outbox is at capacity the delta is
//! counted and discarded, and the writer inserts a [`Response::Lagged`]
//! frame so the client knows its baseline is stale and can re-subscribe.
//! Nothing is ever silently lost.

use crate::protocol::{
    decode_request, encode_frame, CqDelta, ErrorCode, FeedRecord, Request, Response, WindowCounts,
    DEFAULT_MAX_FRAME,
};
use most_core::continuous::display_delta;
use most_core::sharded::{CutPin, ShardedDb};
use most_core::wal::DurableDb;
use most_core::{CoreError, CoreResult};
use most_dbms::value::Value;
use most_ftl::Query;
use most_hist::{HistoryConfig, HistoryRecorder};
use most_temporal::Interval;
use std::collections::{BTreeMap, VecDeque};
use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, TrySendError};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Recovers a mutex from poisoning.  Every structure the server guards
/// this way — outboxes, the session registry, subscription baselines, the
/// parse cache, the mutation-order token — is a plain value that is
/// consistent between operations, so a session thread that panicked while
/// holding the lock must not cascade into killing unrelated sessions (a
/// poisoned-lock `.expect` was exactly that cascade).
fn lock_clean<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads (each serves one session at a time).
    pub workers: usize,
    /// Accepted connections that may wait for a free worker before new
    /// ones are rejected with [`ErrorCode::Busy`].
    pub pending: usize,
    /// Per-session outbox capacity for droppable (pushed) frames.
    pub outbox: usize,
    /// Per-line frame cap in bytes.
    pub max_frame: usize,
    /// Socket read timeout — the poll interval at which idle sessions
    /// notice a server shutdown.
    pub read_timeout: Duration,
    /// Fault injection for the panic-safety regression tests: a
    /// `Register` request whose query text contains this marker panics
    /// inside the handler **while holding the mutation-order lock** — the
    /// worst-placed panic a request can produce.  The server must survive
    /// it: the panic is caught at the request boundary, the session gets
    /// an `Internal` error frame, and every lock recovers from poisoning.
    /// Never set outside tests.
    pub panic_trigger: Option<String>,
    /// Sizing knobs for the trajectory history warehouse that records at
    /// the engine's epoch-publish boundary and answers
    /// [`Request::Alibi`] / [`Request::Aggregate`].
    pub history: HistoryConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 4,
            pending: 32,
            outbox: 1024,
            max_frame: DEFAULT_MAX_FRAME,
            read_timeout: Duration::from_millis(20),
            panic_trigger: None,
            history: HistoryConfig::default(),
        }
    }
}

/// The storage engine behind the server: one [`ShardedDb`] (N ≥ 1
/// shards), optionally write-ahead logged.  Only the four mutators and
/// [`Request::Feed`] depend on durability; reads pin `db` either way.
#[derive(Debug)]
struct Engine {
    db: Arc<ShardedDb>,
    /// When set, every mutation routes through the write-ahead log before
    /// publishing its cut, and [`Request::Feed`] serves the committed
    /// record sequence.  `db` is this log's own engine, so reads see
    /// exactly the logged-then-published states.
    durable: Option<Arc<DurableDb>>,
}

impl Engine {
    fn advance_clock(&self, ticks: u64) -> CoreResult<()> {
        match &self.durable {
            Some(d) => d.advance_clock(ticks),
            None => {
                self.db.advance_clock(ticks);
                Ok(())
            }
        }
    }

    fn apply_updates(&self, ops: &[most_core::UpdateOp]) -> CoreResult<()> {
        match &self.durable {
            Some(d) => d.apply_updates(ops),
            None => self.db.apply_updates(ops),
        }
    }

    fn register_continuous(&self, text: &str, q: &Query) -> CoreResult<u64> {
        match &self.durable {
            // The durable path logs the *text* so replay re-parses
            // identically.
            Some(d) => d.register_continuous(text),
            None => self.db.register_continuous(q),
        }
    }

    fn cancel_continuous(&self, cq: u64) -> CoreResult<()> {
        match &self.durable {
            Some(d) => d.cancel_continuous(cq),
            None => self.db.cancel_continuous(cq),
        }
    }
}

/// Renders a pinned cut as one canonical `Database` JSON object (the
/// [`Request::Snapshot`] reply): shard 0 provides the replicated fields
/// (clock, expiration, regions, refresh mode, triggers), object and class
/// entries from every shard are merged in ascending key order, `next_id`
/// is the cross-shard maximum, and the cost counters are summed (each
/// update applies on exactly one shard).  With one shard the result is
/// byte-identical to the shard's own `Database` JSON.  With more, and
/// without registered continuous queries, it is byte-identical to a
/// one-shard snapshot of the same logical state; with CQs, shard 0's
/// registry stands in for the cut (per-shard registries hold shard-local
/// materialized answers — see E16).
fn merged_cut_json(cut: &CutPin) -> Result<String, most_testkit::ser::JsonError> {
    use most_core::database::DbStats;
    use most_testkit::ser::{FromJson, Json, JsonError, ToJson};
    let mut template: Vec<(String, Json)> = Vec::new();
    let mut objects: Vec<(String, Json)> = Vec::new();
    let mut classes: Vec<(String, Json)> = Vec::new();
    let mut next_id = 0u64;
    let mut stats = DbStats::default();
    for i in 0..cut.shard_count() {
        let Json::Obj(fields) = cut.shard(i).to_json() else {
            return Err(JsonError::Decode("shard snapshot is not an object".to_owned()));
        };
        for (key, value) in &fields {
            match key.as_str() {
                "objects" => {
                    let Json::Obj(entries) = value else {
                        return Err(JsonError::Decode("shard objects are not a map".to_owned()));
                    };
                    objects.extend(entries.iter().cloned());
                }
                "classes" => {
                    // Classes are auto-created on the shard an object
                    // lands on; the canonical snapshot holds their union
                    // (definitions are pure schema, identical wherever
                    // the class appears).
                    let Json::Obj(entries) = value else {
                        return Err(JsonError::Decode("shard classes are not a map".to_owned()));
                    };
                    for entry in entries {
                        if !classes.iter().any(|(name, _)| name == &entry.0) {
                            classes.push(entry.clone());
                        }
                    }
                }
                "next_id" => next_id = next_id.max(u64::from_json(value)?),
                "stats" => {
                    let s = DbStats::from_json(value)?;
                    stats.updates += s.updates;
                    stats.instantaneous_queries += s.instantaneous_queries;
                }
                _ => {}
            }
        }
        if i == 0 {
            template = fields;
        }
    }
    objects.sort_by_key(|(key, _)| key.parse::<u64>().unwrap_or(u64::MAX));
    classes.sort_by(|(a, _), (b, _)| a.cmp(b));
    for (key, value) in template.iter_mut() {
        match key.as_str() {
            "objects" => *value = Json::Obj(std::mem::take(&mut objects)),
            "classes" => *value = Json::Obj(std::mem::take(&mut classes)),
            "next_id" => *value = next_id.to_json(),
            "stats" => *value = stats.to_json(),
            _ => {}
        }
    }
    Json::Obj(template).render()
}

/// A snapshot of the server's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Request frames handled (including malformed ones).
    pub requests: u64,
    /// Error frames sent in reply.
    pub errors: u64,
    /// Delta frames produced for subscribers.
    pub deltas: u64,
    /// Delta frames dropped by outbox backpressure.
    pub dropped: u64,
    /// Connections rejected because the pending queue was full.
    pub busy: u64,
    /// Sessions currently open.
    pub sessions: u64,
    /// Sessions opened over the server's lifetime.
    pub opened: u64,
}

/// Whether a frame made it into a session's outbox.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PushOutcome {
    Queued,
    Dropped,
    Closed,
}

/// Droppable frames waiting for the session's writer thread.
#[derive(Debug, Default)]
struct Outbox {
    queue: VecDeque<String>,
    closed: bool,
    /// A drop happened since the writer last announced it.
    lag_pending: bool,
}

/// Per-connection state.
#[derive(Debug)]
struct Session {
    outbox: Mutex<Outbox>,
    cond: Condvar,
    /// Subscribed continuous queries with the last display each was sent
    /// (the baseline the next delta is computed against).
    subs: Mutex<BTreeMap<u64, Vec<Vec<Value>>>>,
    /// Cumulative delta frames dropped for this session.
    dropped: AtomicU64,
}

impl Session {
    fn new() -> Self {
        Session {
            outbox: Mutex::new(Outbox::default()),
            cond: Condvar::new(),
            subs: Mutex::new(BTreeMap::new()),
            dropped: AtomicU64::new(0),
        }
    }

    /// Enqueues an encoded frame.  Replies (`droppable = false`) always
    /// queue; pushed frames are discarded (with accounting) when the
    /// outbox is at capacity.
    fn push(&self, frame: String, droppable: bool, cap: usize) -> PushOutcome {
        let mut ob = lock_clean(&self.outbox);
        if ob.closed {
            return PushOutcome::Closed;
        }
        if droppable && ob.queue.len() >= cap {
            ob.lag_pending = true;
            self.dropped.fetch_add(1, Ordering::Relaxed);
            drop(ob);
            self.cond.notify_one();
            return PushOutcome::Dropped;
        }
        ob.queue.push_back(frame);
        let depth = ob.queue.len() as u64;
        drop(ob);
        self.cond.notify_one();
        most_obs::observe("server.outbox.depth", depth);
        most_obs::gauge_max("server.outbox.peak", depth);
        PushOutcome::Queued
    }

    /// Marks the outbox closed; the writer drains what is queued, then
    /// exits.
    fn close(&self) {
        let mut ob = lock_clean(&self.outbox);
        ob.closed = true;
        drop(ob);
        self.cond.notify_all();
    }
}

/// State shared by the acceptor, workers, and the [`Server`] handle.
#[derive(Debug)]
struct Shared {
    engine: Engine,
    cfg: ServerConfig,
    /// Trajectory history warehouse, attached to the engine's
    /// epoch-publish boundary at bind time; answers
    /// [`Request::Alibi`] / [`Request::Aggregate`] without taking the
    /// mutation-order lock.
    hist: Arc<HistoryRecorder>,
    /// Serialises mutation + delta-notification so subscription deltas
    /// form one global sequence.
    sync: Mutex<()>,
    sessions: Mutex<BTreeMap<u64, Arc<Session>>>,
    next_session: AtomicU64,
    shutdown: AtomicBool,
    requests: AtomicU64,
    errors: AtomicU64,
    deltas: AtomicU64,
    dropped: AtomicU64,
    busy: AtomicU64,
    opened: AtomicU64,
    /// Parse-once cache: clients (re)sending the same query text — retried
    /// registrations, fleets of identical subscribers, periodic
    /// instantaneous polls — skip the lexer/parser after the first hit.
    /// Bounded; beyond [`PARSE_CACHE_CAP`] entries new texts parse without
    /// being cached.
    parsed: Mutex<BTreeMap<String, Query>>,
}

/// Upper bound on distinct query texts kept in the parse-once cache.
const PARSE_CACHE_CAP: usize = 1024;

/// A running server.  Dropping the handle shuts it down gracefully:
/// sessions drain their outboxes fully before their connections close, so
/// no queued frame is lost.
#[derive(Debug)]
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    stopped: bool,
}

impl Server {
    /// Binds and starts serving over an engine of N ≥ 1 shards (wrap a
    /// single database with [`ShardedDb::from_database`]).  Every mutating
    /// request publishes one cut; reads and the delta fan-out pin whole
    /// cuts.  [`Request::Feed`] is rejected with [`ErrorCode::NotDurable`],
    /// and [`Request::Snapshot`] merges the cut into **one** canonical
    /// `Database` JSON object.  Bind to port 0 and read the ephemeral port
    /// back with [`Server::local_addr`] — tests must never hard-code
    /// ports.
    pub fn bind(
        addr: impl ToSocketAddrs,
        db: Arc<ShardedDb>,
        cfg: ServerConfig,
    ) -> io::Result<Server> {
        Server::bind_inner(addr, Engine { db, durable: None }, cfg)
    }

    /// Binds a **durable** server over a write-ahead-logged database:
    /// every mutating request appends to `durable`'s log before its
    /// cut publishes, and [`Request::Feed`] serves the committed
    /// record sequence to replicas.  Reads share `durable`'s engine,
    /// so they see exactly the logged states.
    pub fn bind_durable(
        addr: impl ToSocketAddrs,
        durable: Arc<DurableDb>,
        cfg: ServerConfig,
    ) -> io::Result<Server> {
        let db = Arc::clone(durable.engine());
        Server::bind_inner(addr, Engine { db, durable: Some(durable) }, cfg)
    }

    fn bind_inner(
        addr: impl ToSocketAddrs,
        engine: Engine,
        cfg: ServerConfig,
    ) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        // Attach the history recorder before serving starts: every epoch
        // published from here on is recorded, and the pre-bind state is
        // caught up from a pin.
        let hist = HistoryRecorder::new(cfg.history);
        hist.attach_sharded(&engine.db);
        let shared = Arc::new(Shared {
            engine,
            cfg: cfg.clone(),
            hist,
            sync: Mutex::new(()),
            sessions: Mutex::new(BTreeMap::new()),
            next_session: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            requests: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            deltas: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            busy: AtomicU64::new(0),
            opened: AtomicU64::new(0),
            parsed: Mutex::new(BTreeMap::new()),
        });
        let (tx, rx) = mpsc::sync_channel::<TcpStream>(cfg.pending.max(1));
        let rx = Arc::new(Mutex::new(rx));
        let mut workers = Vec::with_capacity(cfg.workers.max(1));
        for _ in 0..cfg.workers.max(1) {
            let rx = Arc::clone(&rx);
            let shared = Arc::clone(&shared);
            workers.push(std::thread::spawn(move || loop {
                let conn = lock_clean(&rx).recv();
                match conn {
                    Ok(stream) => {
                        // Backstop: a panicking session must cost the
                        // server that one session, never the worker thread
                        // serving all later ones.
                        if catch_unwind(AssertUnwindSafe(|| run_session(&shared, stream)))
                            .is_err()
                        {
                            most_obs::inc("server.session_panics");
                        }
                    }
                    Err(_) => break, // acceptor gone, queue drained
                }
            }));
        }
        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || {
                for conn in listener.incoming() {
                    let Ok(stream) = conn else { continue };
                    if shared.shutdown.load(Ordering::SeqCst) {
                        let _ = reject(stream, ErrorCode::ShuttingDown, "server shutting down");
                        break;
                    }
                    match tx.try_send(stream) {
                        Ok(()) => {}
                        Err(TrySendError::Full(stream)) => {
                            shared.busy.fetch_add(1, Ordering::Relaxed);
                            most_obs::inc("server.busy_rejected");
                            let _ =
                                reject(stream, ErrorCode::Busy, "pending connection queue full");
                        }
                        Err(TrySendError::Disconnected(_)) => break,
                    }
                }
                // tx drops here: workers finish queued sessions, then exit.
            })
        };
        Ok(Server { shared, addr: local, acceptor: Some(acceptor), workers, stopped: false })
    }

    /// The bound address (with the ephemeral port resolved).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The trajectory history warehouse recording behind this server —
    /// the store answering [`Request::Alibi`] and [`Request::Aggregate`].
    /// Exposed for snapshot save/restore and the experiment harness.
    pub fn history(&self) -> Arc<HistoryRecorder> {
        Arc::clone(&self.shared.hist)
    }

    /// Counter snapshot.
    pub fn stats(&self) -> ServerStats {
        ServerStats {
            requests: self.shared.requests.load(Ordering::Relaxed),
            errors: self.shared.errors.load(Ordering::Relaxed),
            deltas: self.shared.deltas.load(Ordering::Relaxed),
            dropped: self.shared.dropped.load(Ordering::Relaxed),
            busy: self.shared.busy.load(Ordering::Relaxed),
            sessions: lock_clean(&self.shared.sessions).len() as u64,
            opened: self.shared.opened.load(Ordering::Relaxed),
        }
    }

    /// Graceful shutdown: stop accepting, let live sessions notice within
    /// one read-timeout poll, drain every outbox, join all threads.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        if self.stopped {
            return;
        }
        self.stopped = true;
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // Unblock the acceptor's blocking accept with a throwaway
        // connection; it observes the flag and exits.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_secs(1));
        if let Some(a) = self.acceptor.take() {
            let _ = a.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Sends one error frame on a connection that never became a session.
fn reject(mut stream: TcpStream, code: ErrorCode, message: &str) -> io::Result<()> {
    let frame = encode_frame(&Response::Error { code, message: message.to_owned() });
    stream.write_all(frame.as_bytes())
}

/// Serves one connection to completion.
fn run_session(shared: &Arc<Shared>, stream: TcpStream) {
    if shared.shutdown.load(Ordering::SeqCst) {
        let _ = reject(stream, ErrorCode::ShuttingDown, "server shutting down");
        return;
    }
    let _ = stream.set_nodelay(true);
    if stream.set_read_timeout(Some(shared.cfg.read_timeout)).is_err() {
        return;
    }
    let Ok(write_half) = stream.try_clone() else { return };
    let id = shared.next_session.fetch_add(1, Ordering::Relaxed);
    let session = Arc::new(Session::new());
    {
        let mut map = lock_clean(&shared.sessions);
        map.insert(id, Arc::clone(&session));
        most_obs::gauge_set("server.sessions", map.len() as u64);
        most_obs::gauge_max("server.sessions.peak", map.len() as u64);
    }
    shared.opened.fetch_add(1, Ordering::Relaxed);
    most_obs::inc("server.sessions.opened");
    let writer = {
        let session = Arc::clone(&session);
        std::thread::spawn(move || writer_loop(&session, write_half))
    };
    let cap = shared.cfg.outbox;
    let mut reader = crate::protocol::FrameReader::new(stream, shared.cfg.max_frame);
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        match reader.next_frame() {
            Err(e)
                if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) =>
            {
                continue; // poll tick: re-check the shutdown flag
            }
            Err(_) | Ok(None) => break,
            Ok(Some(framed)) => {
                shared.requests.fetch_add(1, Ordering::Relaxed);
                most_obs::inc("server.requests");
                let start = Instant::now();
                let resp = match framed {
                    Err(fe) => fe.to_response(),
                    Ok(line) => match decode_request(&line) {
                        Err(fe) => fe.to_response(),
                        // A panicking handler must cost only this request:
                        // the session gets an `Internal` error frame and
                        // keeps serving (every shared lock the panic may
                        // have poisoned recovers via `lock_clean`).
                        Ok(req) => {
                            match catch_unwind(AssertUnwindSafe(|| {
                                handle_request(shared, &session, req)
                            })) {
                                Ok(resp) => resp,
                                Err(_) => {
                                    most_obs::inc("server.handler_panics");
                                    err(
                                        ErrorCode::Internal,
                                        "request handler panicked; request abandoned",
                                    )
                                }
                            }
                        }
                    },
                };
                most_obs::observe("server.request_nanos", start.elapsed().as_nanos() as u64);
                if matches!(resp, Response::Error { .. }) {
                    shared.errors.fetch_add(1, Ordering::Relaxed);
                    most_obs::inc("server.errors");
                }
                session.push(encode_frame(&resp), false, cap);
            }
        }
    }
    {
        let mut map = lock_clean(&shared.sessions);
        map.remove(&id);
        most_obs::gauge_set("server.sessions", map.len() as u64);
    }
    most_obs::inc("server.sessions.closed");
    session.close();
    let _ = writer.join();
}

/// Drains a session's outbox to the socket.  Frames already queued at
/// close are written before the thread exits — graceful shutdown loses
/// nothing.
fn writer_loop(session: &Session, mut stream: TcpStream) {
    loop {
        let frame = {
            let mut ob = lock_clean(&session.outbox);
            loop {
                if ob.lag_pending {
                    ob.lag_pending = false;
                    let total = session.dropped.load(Ordering::Relaxed);
                    break Some(encode_frame(&Response::Lagged { dropped: total }));
                }
                if let Some(f) = ob.queue.pop_front() {
                    break Some(f);
                }
                if ob.closed {
                    break None;
                }
                ob = session
                    .cond
                    .wait(ob)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        let Some(frame) = frame else { return };
        if stream.write_all(frame.as_bytes()).is_err() {
            // Peer gone: drop what's left so producers stop queueing.
            let mut ob = lock_clean(&session.outbox);
            ob.closed = true;
            ob.queue.clear();
            return;
        }
    }
}

fn err(code: ErrorCode, message: impl std::fmt::Display) -> Response {
    Response::Error { code, message: message.to_string() }
}

/// A WAL failure means the mutation never reached the log and was not
/// applied — surfaced with its own code so clients can distinguish
/// storage trouble from a semantically rejected request.
fn wal_err(e: CoreError) -> Response {
    err(ErrorCode::Wal, e)
}

fn parse_query(shared: &Shared, text: &str) -> Result<Query, Response> {
    if let Some(q) = lock_clean(&shared.parsed).get(text) {
        most_obs::inc("server.parse.hits");
        return Ok(q.clone());
    }
    most_obs::inc("server.parse.misses");
    let q = Query::parse(text).map_err(|e| err(ErrorCode::Parse, e))?;
    let mut cache = lock_clean(&shared.parsed);
    if cache.len() < PARSE_CACHE_CAP {
        cache.insert(text.to_owned(), q.clone());
    }
    Ok(q)
}

fn handle_request(shared: &Arc<Shared>, session: &Arc<Session>, req: Request) -> Response {
    match req {
        Request::Ping => Response::Pong,
        Request::Now => Response::Tick { now: shared.engine.db.pin().now() },
        Request::Snapshot => match merged_cut_json(&shared.engine.db.pin()) {
            Ok(json) => Response::Db { json },
            Err(e) => err(ErrorCode::Internal, format!("snapshot failed: {e}")),
        },
        Request::Stats => {
            let sessions =
                lock_clean(&shared.sessions).len() as u64;
            Response::Stats {
                requests: shared.requests.load(Ordering::Relaxed),
                errors: shared.errors.load(Ordering::Relaxed),
                deltas: shared.deltas.load(Ordering::Relaxed),
                dropped: shared.dropped.load(Ordering::Relaxed),
                busy: shared.busy.load(Ordering::Relaxed),
                sessions,
            }
        }
        Request::Instantaneous { query } => match parse_query(shared, &query) {
            Err(e) => e,
            Ok(q) => {
                // Lock-free: evaluate on a pinned cut.
                let view = shared.engine.db.pin();
                match view.instantaneous(&q) {
                    Ok(answer) => Response::Answer { now: view.now(), answer },
                    Err(e) => err(ErrorCode::Eval, e),
                }
            }
        },
        Request::Persistent { query, origin } => match parse_query(shared, &query) {
            Err(e) => e,
            Ok(q) => {
                let view = shared.engine.db.pin();
                let now = view.now();
                if origin > now {
                    return err(
                        ErrorCode::BadRequest,
                        format!("persistent origin {origin} is in the future (now {now})"),
                    );
                }
                match view.persistent_answer(&q, origin) {
                    Ok(answer) => Response::Answer { now, answer },
                    Err(e) => err(ErrorCode::Eval, e),
                }
            }
        },
        Request::AdvanceClock { ticks } => {
            let _order = lock_clean(&shared.sync);
            let now = shared.engine.db.pin().now();
            if now.checked_add(ticks).is_none() {
                return err(
                    ErrorCode::ClockOverflow,
                    format!("advancing {ticks} from {now} overflows the tick domain"),
                );
            }
            if let Err(e) = shared.engine.advance_clock(ticks) {
                return wal_err(e);
            }
            notify_subscribers(shared);
            Response::Tick { now: shared.engine.db.pin().now() }
        }
        Request::Update { ops } => {
            let _order = lock_clean(&shared.sync);
            let result = shared.engine.apply_updates(&ops);
            // Even a rejected batch applies its prefix — refresh deltas
            // must still go out.
            notify_subscribers(shared);
            match result {
                Ok(()) => Response::Applied { count: ops.len() as u64 },
                Err(e @ CoreError::Wal(_)) => wal_err(e),
                Err(e) => err(ErrorCode::Rejected, e),
            }
        }
        Request::Register { query } => match parse_query(shared, &query) {
            Err(e) => e,
            Ok(q) => {
                let _order = lock_clean(&shared.sync);
                if let Some(trigger) = &shared.cfg.panic_trigger {
                    if query.contains(trigger.as_str()) {
                        // Deliberately the worst-placed panic a request
                        // handler can produce: while holding the
                        // mutation-order lock.  See `ServerConfig`.
                        panic!("injected handler fault: query text contains `{trigger}`");
                    }
                }
                let result = shared.engine.register_continuous(&query, &q);
                match result {
                    Ok(cq) => Response::Registered { cq },
                    Err(e @ CoreError::Wal(_)) => wal_err(e),
                    Err(e) => err(ErrorCode::Eval, e),
                }
            }
        },
        Request::Feed { from_seq } => match &shared.engine.durable {
            Some(d) => match d.read_from(from_seq) {
                // Pruned prefix: tell the replica to bootstrap from a
                // snapshot instead of serving a silently gapped stream
                // it would buffer behind forever.
                Err(e @ CoreError::WalFeedPruned { .. }) => err(ErrorCode::FeedPruned, e),
                Err(e) => wal_err(e),
                Ok(records) => {
                    let next_seq = records.last().map_or(from_seq, |(seq, _)| seq + 1);
                    let records = records
                        .into_iter()
                        .filter_map(|(seq, record)| {
                            most_testkit::ser::to_json_string(&record)
                                .ok()
                                .map(|record| FeedRecord { seq, record })
                        })
                        .collect();
                    Response::Feed { next_seq, records }
                }
            },
            None => err(
                ErrorCode::NotDurable,
                "replica feed requires a durable (WAL-backed) server",
            ),
        },
        Request::Alibi { a, b, vmax, begin, end } => {
            if end < begin {
                return err(
                    ErrorCode::BadRequest,
                    format!("alibi range [{begin}, {end}] is empty"),
                );
            }
            if !vmax.is_finite() || vmax < 0.0 {
                return err(
                    ErrorCode::BadRequest,
                    format!("alibi speed bound {vmax} must be finite and non-negative"),
                );
            }
            // Lock-free like the other reads: the recorder serializes its
            // own store; the engine is never touched beyond a pin for
            // `now`.
            let now = shared.engine.db.pin().now();
            let range = Interval::new(begin, end);
            shared.hist.with(|store| {
                for id in [a, b] {
                    if store.alibi_samples(id, range).len() < 2 {
                        return err(
                            ErrorCode::NoHistory,
                            format!(
                                "object #{id} has no usable recorded history in [{begin}, {end}]"
                            ),
                        );
                    }
                }
                let meets = store.alibi(a, b, vmax, range).into_intervals();
                Response::Alibi { now, meets }
            })
        }
        Request::Aggregate { begin, end, k } => {
            if end < begin {
                return err(
                    ErrorCode::BadRequest,
                    format!("aggregate range [{begin}, {end}] is empty"),
                );
            }
            let now = shared.engine.db.pin().now();
            shared.hist.with(|store| {
                let agg = store.aggregates();
                let window = agg.window();
                let tops = agg
                    .window_starts()
                    .into_iter()
                    .filter(|&start| {
                        start <= end && start.saturating_add(window - 1) >= begin
                    })
                    .map(|start| WindowCounts { start, counts: agg.top_k(start, k as usize) })
                    .collect();
                Response::Aggregate { now, window, tops }
            })
        }
        Request::Cancel { cq } => {
            let _order = lock_clean(&shared.sync);
            match shared.engine.cancel_continuous(cq) {
                Ok(()) => {
                    // Scrub the dead id from every session's subscriptions;
                    // subscribers simply stop receiving deltas for it.
                    let sessions: Vec<Arc<Session>> =
                        lock_clean(&shared.sessions).values().cloned().collect();
                    for s in sessions {
                        lock_clean(&s.subs).remove(&cq);
                    }
                    Response::Cancelled { cq }
                }
                Err(e @ CoreError::Wal(_)) => wal_err(e),
                Err(e) => err(ErrorCode::UnknownCq, e),
            }
        }
        Request::Subscribe { cq } => {
            let _order = lock_clean(&shared.sync);
            let view = shared.engine.db.pin();
            let tick = view.now();
            match view.continuous_display(cq, tick).map(|r| (tick, r)) {
                Ok((tick, rows)) => {
                    lock_clean(&session.subs).insert(cq, rows.clone());
                    Response::Subscribed { cq, tick, rows }
                }
                Err(e) => err(ErrorCode::UnknownCq, e),
            }
        }
        Request::Unsubscribe { cq } => {
            let _order = lock_clean(&shared.sync);
            if lock_clean(&session.subs).remove(&cq).is_some() {
                Response::Unsubscribed { cq }
            } else {
                err(ErrorCode::UnknownCq, format!("not subscribed to continuous query #{cq}"))
            }
        }
    }
}

/// Recomputes every subscribed display and enqueues the non-empty deltas.
/// Called with the mutation-order lock held, so deltas across all sessions
/// form one global sequence; sessions are visited in id order and
/// subscriptions in ascending cq order, matching the single-threaded
/// oracle in `most_server::load`.
fn notify_subscribers(shared: &Arc<Shared>) {
    let sessions: Vec<Arc<Session>> = {
        let map = lock_clean(&shared.sessions);
        map.values().cloned().collect()
    };
    if sessions.is_empty() {
        return;
    }
    let cap = shared.cfg.outbox;
    // One pin for the whole fan-out: every delta in this round of the
    // global sequence is computed from the same just-published cut.
    let view = shared.engine.db.pin();
    {
        let now = view.now();
        for s in &sessions {
            let mut subs = lock_clean(&s.subs);
            let mut dead = Vec::new();
            for (cq, last) in subs.iter_mut() {
                match view.continuous_display(*cq, now) {
                    Ok(rows) => {
                        let (added, removed) = display_delta(last, &rows);
                        if added.is_empty() && removed.is_empty() {
                            continue;
                        }
                        shared.deltas.fetch_add(1, Ordering::Relaxed);
                        most_obs::inc("server.deltas");
                        let frame = encode_frame(&Response::Delta(CqDelta {
                            cq: *cq,
                            tick: now,
                            added,
                            removed,
                        }));
                        if s.push(frame, true, cap) == PushOutcome::Dropped {
                            shared.dropped.fetch_add(1, Ordering::Relaxed);
                            most_obs::inc("server.dropped");
                        }
                        // The baseline advances even when the frame was
                        // dropped: the Lagged marker tells the client to
                        // re-subscribe for a fresh baseline.
                        *last = rows;
                    }
                    Err(_) => dead.push(*cq),
                }
            }
            for cq in dead {
                subs.remove(&cq);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use most_core::{Database, UpdateOp};
    use most_spatial::{Point, Polygon, Velocity};

    /// The one-shard snapshot is the shard's own `Database` JSON, byte for
    /// byte — with live continuous queries, updates and a clock advance.
    #[test]
    fn one_shard_snapshot_is_the_database_json() {
        let mut db = Database::new(1_000);
        for i in 0..6 {
            let id = db.insert_moving_object(
                "cars",
                Point::new(i as f64 * 20.0, 0.0),
                Velocity::new(1.0, 0.5),
            );
            db.set_static(id, "PRICE", Value::from(40.0 + i as f64 * 15.0)).unwrap();
        }
        db.add_region("P", Polygon::rectangle(30.0, -10.0, 90.0, 10.0));
        let engine = ShardedDb::from_database(db);
        let cq = Query::parse("RETRIEVE o WHERE INSIDE(o, P)").unwrap();
        engine.register_continuous(&cq).unwrap();
        engine.advance_clock(4);
        engine
            .apply_updates(&[UpdateOp::Motion { id: 2, velocity: Velocity::new(-1.0, 0.0) }])
            .unwrap();
        let pin = engine.pin();
        assert_eq!(
            merged_cut_json(&pin).unwrap(),
            most_testkit::ser::to_json_string(pin.shard(0)).unwrap()
        );
    }
}
