//! End-to-end server tests.  Every server binds port 0 and the tests read
//! the ephemeral port back — no fixed ports, no sleeps; synchronisation is
//! the protocol itself (replies fence previously-enqueued pushes because a
//! session's outbox is FIFO).

use most_core::{Database, ShardedDb, UpdateOp};
use most_dbms::value::Value;
use most_ftl::Query;
use most_server::client::{connect_with_retry, Client, ClientError};
use most_server::load::{self, LoadSpec, ThroughputSpec};
use most_server::protocol::{decode_response, ErrorCode, FrameReader, Response, DEFAULT_MAX_FRAME};
use most_server::server::{Server, ServerConfig};
use most_spatial::{Point, Polygon, Velocity};
use std::io::Write;
use std::time::Duration;

/// Two cars, one heading into region P, plus the region itself.
fn demo_db() -> Database {
    let mut db = Database::new(10_000);
    let a = db.insert_moving_object("cars", Point::new(0.0, 0.0), Velocity::new(1.0, 0.0));
    db.set_static(a, "PRICE", Value::from(80.0)).unwrap();
    let b = db.insert_moving_object("cars", Point::new(500.0, 500.0), Velocity::new(0.0, 0.0));
    db.set_static(b, "PRICE", Value::from(150.0)).unwrap();
    db.add_region("P", Polygon::rectangle(90.0, -10.0, 110.0, 10.0));
    db
}

fn serve(db: Database, cfg: ServerConfig) -> Server {
    Server::bind("127.0.0.1:0", Arc::new(ShardedDb::from_database(db)), cfg)
        .expect("bind ephemeral port")
}

#[test]
fn basic_requests_round_trip() {
    let server = serve(demo_db(), ServerConfig::default());
    let mut c = Client::connect(server.local_addr()).unwrap();
    c.ping().unwrap();
    assert_eq!(c.now().unwrap(), 0);
    assert_eq!(c.advance(5).unwrap(), 5);
    let (now, answer) = c.instantaneous("RETRIEVE o WHERE o.PRICE <= 100").unwrap();
    assert_eq!(now, 5);
    assert_eq!(answer.len(), 1);
    // Persistent anchored at 0 sees the same single cheap car.
    let (_, p) = c.persistent("RETRIEVE o WHERE o.PRICE <= 100", 0).unwrap();
    assert_eq!(p.len(), 1);
    server.shutdown();
}

#[test]
fn subscription_receives_exact_deltas() {
    let server = serve(demo_db(), ServerConfig::default());
    let addr = server.local_addr();
    let mut driver = Client::connect(addr).unwrap();
    let mut sub = Client::connect(addr).unwrap();

    let cq = driver.register("RETRIEVE o WHERE INSIDE(o, P)").unwrap();
    let (tick, baseline) = sub.subscribe(cq).unwrap();
    assert_eq!(tick, 0);
    assert!(baseline.is_empty(), "no car in P at tick 0");

    // Car 1 reaches x=100 (inside P) at tick 100 without any update — the
    // MOST hallmark: the display changes with time alone.
    driver.advance(100).unwrap();
    sub.ping().unwrap(); // FIFO fence: deltas from the advance are in
    let deltas = sub.take_deltas();
    assert_eq!(deltas.len(), 1);
    assert_eq!(deltas[0].cq, cq);
    assert_eq!(deltas[0].tick, 100);
    assert_eq!(deltas[0].added, vec![vec![Value::Id(1)]]);
    assert!(deltas[0].removed.is_empty());

    // An explicit update turns the car around; it leaves P as time passes.
    driver
        .update(&[UpdateOp::Motion { id: 1, velocity: Velocity::new(-1.0, 0.0) }])
        .unwrap();
    driver.advance(50).unwrap();
    sub.ping().unwrap();
    let deltas = sub.take_deltas();
    assert!(!deltas.is_empty());
    let last = deltas.last().unwrap();
    assert_eq!(last.removed, vec![vec![Value::Id(1)]]);
    assert_eq!(sub.lagged(), 0);

    // Unsubscribe stops the stream; further mutations push nothing.
    sub.unsubscribe(cq).unwrap();
    driver.advance(100).unwrap();
    sub.ping().unwrap();
    assert!(sub.take_deltas().is_empty());
    server.shutdown();
}

#[test]
fn error_frames_are_structured_and_session_survives() {
    let server = serve(demo_db(), ServerConfig::default());
    let mut c = Client::connect(server.local_addr()).unwrap();

    fn fail<T: std::fmt::Debug>(r: Result<T, ClientError>, want: ErrorCode) {
        match r {
            Err(ClientError::Server { code, .. }) => assert_eq!(code, want),
            other => panic!("expected {want:?} error, got {other:?}"),
        }
    }
    fail(c.instantaneous("RETRIEVE o WHERE"), ErrorCode::Parse);
    fail(c.subscribe(99), ErrorCode::UnknownCq);
    fail(c.unsubscribe(99), ErrorCode::UnknownCq);
    fail(c.cancel(99), ErrorCode::UnknownCq);
    c.advance(1).unwrap();
    fail(c.persistent("RETRIEVE o WHERE true", 5), ErrorCode::BadRequest);
    fail(c.advance(u64::MAX), ErrorCode::ClockOverflow);
    // The session is still alive and serving after every error.
    c.ping().unwrap();
    let stats = server.stats();
    assert_eq!(stats.errors, 6);
    assert_eq!(stats.sessions, 1);
    server.shutdown();
}

#[test]
fn backpressure_drops_deltas_and_reports_lag() {
    // Outbox capacity 0: every pushed delta is dropped, deterministically.
    let cfg = ServerConfig { outbox: 0, ..ServerConfig::default() };
    let server = serve(demo_db(), cfg);
    let addr = server.local_addr();
    let mut driver = Client::connect(addr).unwrap();
    let mut sub = Client::connect(addr).unwrap();

    let cq = driver.register("RETRIEVE o WHERE INSIDE(o, P)").unwrap();
    sub.subscribe(cq).unwrap();
    driver.advance(100).unwrap(); // produces one delta -> dropped
    sub.ping().unwrap(); // reply is never droppable; Lagged precedes it
    assert!(sub.take_deltas().is_empty(), "the delta was dropped, not delivered");
    assert_eq!(sub.lagged(), 1);
    assert_eq!(server.stats().dropped, 1);

    // Recovery: re-subscribe for a fresh baseline; it reflects the current
    // display even though the delta frame itself was lost.
    let (tick, rows) = sub.subscribe(cq).unwrap();
    assert_eq!(tick, 100);
    assert_eq!(rows, vec![vec![Value::Id(1)]]);
    server.shutdown();
}

#[test]
fn graceful_shutdown_delivers_queued_frames() {
    let server = serve(demo_db(), ServerConfig::default());
    let addr = server.local_addr();
    let mut driver = Client::connect(addr).unwrap();
    let mut sub = Client::connect(addr).unwrap();
    let cq = driver.register("RETRIEVE o WHERE INSIDE(o, P)").unwrap();
    sub.subscribe(cq).unwrap();
    driver.advance(100).unwrap(); // enqueues a delta on sub's outbox
    // Shut down without sub ever reading: the writer must drain the queued
    // delta before the connection closes.
    server.shutdown();
    let got = sub.poll_pushed(Duration::from_secs(5)).unwrap();
    assert_eq!(got, 1);
    let deltas = sub.take_deltas();
    assert_eq!(deltas.len(), 1);
    assert_eq!(deltas[0].added, vec![vec![Value::Id(1)]]);
    // The stream then ends: the next request fails cleanly.
    assert!(c_closed(&mut sub));
}

fn c_closed(c: &mut Client) -> bool {
    matches!(c.ping(), Err(ClientError::Closed) | Err(ClientError::Io(_)))
}

#[test]
fn full_pending_queue_rejects_with_busy() {
    // One worker, one pending slot.  c1 occupies the worker (proven by a
    // completed round-trip), c2 fills the queue slot, c3 must be rejected
    // with a Busy error frame.
    let cfg = ServerConfig { workers: 1, pending: 1, ..ServerConfig::default() };
    let server = serve(demo_db(), cfg);
    let addr = server.local_addr();
    let mut c1 = Client::connect(addr).unwrap();
    c1.ping().unwrap(); // the worker is now inside c1's session loop
    let _c2 = connect_with_retry(addr, 20).unwrap(); // parks in the queue
    let c3 = connect_with_retry(addr, 20).unwrap();
    let mut reader = FrameReader::new(c3, DEFAULT_MAX_FRAME);
    let line = reader.next_frame().unwrap().expect("a frame before close").unwrap();
    match decode_response(&line).unwrap() {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::Busy),
        other => panic!("expected Busy, got {other:?}"),
    }
    assert_eq!(server.stats().busy, 1);
    drop(c1); // frees the worker so shutdown can drain c2
    server.shutdown();
}

#[test]
fn snapshot_restores_equivalent_database() {
    let server = serve(demo_db(), ServerConfig::default());
    let mut c = Client::connect(server.local_addr()).unwrap();
    c.advance(25).unwrap();
    c.update(&[UpdateOp::Static { id: 1, attr: "PRICE".into(), value: Value::from(60.0) }])
        .unwrap();
    let restored = c.snapshot().unwrap();
    assert_eq!(restored.now(), 25);
    let q = Query::parse("RETRIEVE o WHERE o.PRICE <= 100").unwrap();
    let (_, live) = c.instantaneous("RETRIEVE o WHERE o.PRICE <= 100").unwrap();
    assert_eq!(restored.instantaneous_readonly(&q).unwrap(), live);
    server.shutdown();
}

#[test]
fn cancellation_scrubs_subscriptions() {
    let server = serve(demo_db(), ServerConfig::default());
    let addr = server.local_addr();
    let mut driver = Client::connect(addr).unwrap();
    let mut sub = Client::connect(addr).unwrap();
    let cq = driver.register("RETRIEVE o WHERE INSIDE(o, P)").unwrap();
    sub.subscribe(cq).unwrap();
    driver.cancel(cq).unwrap();
    driver.advance(100).unwrap();
    sub.ping().unwrap();
    assert!(sub.take_deltas().is_empty(), "cancelled cq pushes nothing");
    // The subscription is gone server-side, not merely silent.
    match sub.unsubscribe(cq) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::UnknownCq),
        other => panic!("expected UnknownCq, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn raw_writes_get_one_reply_per_line() {
    // Pipelined requests on a raw socket: replies come back in order.
    let server = serve(demo_db(), ServerConfig::default());
    let mut stream = connect_with_retry(server.local_addr(), 20).unwrap();
    stream.write_all(b"\"Ping\"\n\"Now\"\n\"Ping\"\n").unwrap();
    let mut reader = FrameReader::new(stream, DEFAULT_MAX_FRAME);
    let mut kinds = Vec::new();
    for _ in 0..3 {
        let line = reader.next_frame().unwrap().unwrap().unwrap();
        kinds.push(decode_response(&line).unwrap());
    }
    assert!(matches!(kinds[0], Response::Pong));
    assert!(matches!(kinds[1], Response::Tick { now: 0 }));
    assert!(matches!(kinds[2], Response::Pong));
    server.shutdown();
}

#[test]
fn load_harness_matches_oracle() {
    let outcome = load::run_correctness(&LoadSpec::small(7));
    assert_eq!(outcome.mismatches, 0, "{outcome:?}");
    assert_eq!(outcome.dropped, 0);
    assert_eq!(outcome.lagged, 0);
    assert!(outcome.oracle_deltas > 0, "workload must actually produce deltas");
    for &n in &outcome.received_deltas {
        assert_eq!(n, outcome.oracle_deltas);
    }
}

#[test]
fn load_harness_throughput_verifies_state() {
    let spec = ThroughputSpec {
        readers: 3,
        requests_per_reader: 20,
        update_batches: 5,
        load: LoadSpec::small(11),
    };
    let outcome = load::run_throughput(&spec);
    assert!(outcome.verified, "concurrent reads must not corrupt state");
    assert!(outcome.requests >= 3 * 20);
}

// ---------------------------------------------------------------------
// Durability: WAL-backed servers, crash/recover, the replica feed.
// ---------------------------------------------------------------------

use most_core::wal::{apply_record, DurableDb, WalConfig};
use most_server::protocol::Request;
use std::path::PathBuf;
use std::sync::Arc;

fn wal_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn durable_server_survives_crash_and_recovers_state() {
    let dir = wal_dir("e2e_durable_crash");

    // Incarnation 1: mutate through the wire, then crash (shutdown with
    // no checkpoint — the WAL is the only durable copy).
    let durable =
        Arc::new(DurableDb::create(&dir, demo_db(), WalConfig::default()).unwrap());
    let server =
        Server::bind_durable("127.0.0.1:0", Arc::clone(&durable), ServerConfig::default())
            .unwrap();
    let mut c = Client::connect(server.local_addr()).unwrap();
    let cq = c.register("RETRIEVE o WHERE INSIDE(o, P)").unwrap();
    assert_eq!(c.advance(95).unwrap(), 95);
    c.update(&[UpdateOp::Static { id: 2, attr: "PRICE".into(), value: Value::from(99.0) }])
        .unwrap();
    let (_, answer_before) = c.instantaneous("RETRIEVE o WHERE o.PRICE <= 100").unwrap();
    assert_eq!(answer_before.len(), 2, "both cars now cheap");
    let fingerprint_before = durable.pin().shard(0).fingerprint();
    drop(c);
    server.shutdown();
    drop(durable);

    // Incarnation 2: recover from WAL + checkpoint, serve again.
    let (recovered, recovery) = DurableDb::open(&dir, WalConfig::default()).unwrap();
    assert!(!recovery.truncated_tail);
    assert_eq!(recovery.records_replayed, 3, "register + advance + update");
    let recovered = Arc::new(recovered);
    assert_eq!(recovered.pin().shard(0).fingerprint(), fingerprint_before);
    let server2 =
        Server::bind_durable("127.0.0.1:0", Arc::clone(&recovered), ServerConfig::default())
            .unwrap();
    let mut c2 = Client::connect(server2.local_addr()).unwrap();
    assert_eq!(c2.now().unwrap(), 95, "the clock survived the crash");
    let (_, answer_after) = c2.instantaneous("RETRIEVE o WHERE o.PRICE <= 100").unwrap();
    assert_eq!(answer_after, answer_before, "answers identical after recovery");
    // The recovered CQ is still registered and serves subscriptions.
    let (_, rows) = c2.subscribe(cq).unwrap();
    assert_eq!(rows.len(), 1, "car 1 is at x=95, inside P, at tick 95");
    server2.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn feed_endpoint_streams_committed_records_to_a_replica() {
    let dir = wal_dir("e2e_durable_feed");
    let initial = demo_db();
    let durable =
        Arc::new(DurableDb::create(&dir, initial.clone(), WalConfig::default()).unwrap());
    let server =
        Server::bind_durable("127.0.0.1:0", Arc::clone(&durable), ServerConfig::default())
            .unwrap();
    let mut c = Client::connect(server.local_addr()).unwrap();
    c.advance(3).unwrap();
    c.update(&[UpdateOp::Motion { id: 1, velocity: Velocity::new(2.0, 0.0) }]).unwrap();
    c.register("RETRIEVE o WHERE o.PRICE <= 100").unwrap();

    // A replica polls the feed and replays onto the shared base state.
    let mut replica = initial;
    let (next_seq, records) = c.feed(0).unwrap();
    assert_eq!(next_seq, 3);
    assert_eq!(records.len(), 3);
    for fr in &records {
        let rec = most_testkit::ser::from_json_str(&fr.record).unwrap();
        apply_record(&mut replica, &rec).unwrap();
    }
    assert_eq!(replica.fingerprint(), durable.pin().shard(0).fingerprint());

    // Tailing from next_seq returns nothing new.
    let (tail_seq, tail) = c.feed(next_seq).unwrap();
    assert_eq!(tail_seq, next_seq);
    assert!(tail.is_empty());
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn feed_below_checkpoint_horizon_is_rejected_as_pruned() {
    let dir = wal_dir("e2e_feed_pruned");
    let durable =
        Arc::new(DurableDb::create(&dir, demo_db(), WalConfig::default()).unwrap());
    let server =
        Server::bind_durable("127.0.0.1:0", Arc::clone(&durable), ServerConfig::default())
            .unwrap();
    let mut c = Client::connect(server.local_addr()).unwrap();
    c.advance(1).unwrap();
    c.advance(2).unwrap();
    durable.checkpoint().unwrap();
    let horizon = durable.next_seq();

    // Below the horizon: an explicit FeedPruned error naming it — never
    // a silently gapped stream.
    match c.request(&Request::Feed { from_seq: 0 }).unwrap() {
        Response::Error { code, message } => {
            assert_eq!(code, ErrorCode::FeedPruned);
            assert!(
                message.contains(&format!("checkpoint horizon {horizon}")),
                "message must carry the horizon to resume from: {message}"
            );
        }
        other => panic!("expected FeedPruned error, got {other:?}"),
    }

    // From the horizon on, the feed serves normally again.
    c.advance(3).unwrap();
    let (next_seq, records) = c.feed(horizon).unwrap();
    assert_eq!(next_seq, horizon + 1);
    assert_eq!(records.len(), 1);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn feed_on_in_memory_server_is_rejected_as_not_durable() {
    let server = serve(demo_db(), ServerConfig::default());
    let mut c = Client::connect(server.local_addr()).unwrap();
    match c.request(&Request::Feed { from_seq: 0 }).unwrap() {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::NotDurable),
        other => panic!("expected NotDurable error, got {other:?}"),
    }
    server.shutdown();
}
