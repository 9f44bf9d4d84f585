//! End-to-end panic safety (PR 9 satellite bugfix) and the sharded server
//! path (PR 9 tentpole).
//!
//! Before the fix, a panic inside a request handler unwound through the
//! worker thread while holding the mutation-order lock; every later
//! mutation then died on `.expect("mutation order lock")` — one bad
//! session took the whole server down.  Now the panic is caught at the
//! request boundary (the offending request gets an `Internal` error
//! frame), every server lock recovers from poisoning, and unrelated
//! sessions keep mutating, querying, and receiving deltas.
//!
//! The deliberate panic comes from `ServerConfig::panic_trigger`: a
//! `Register` whose query text contains the marker panics in the handler
//! at the worst possible point — with the mutation-order lock held.

use most_core::sharded::{ShardRouting, ShardedDb, ShardedDbBuilder};
use most_core::{Database, UpdateOp};
use most_dbms::value::Value;
use most_server::client::{Client, ClientError};
use most_server::protocol::{ErrorCode, Request, Response};
use most_server::server::{Server, ServerConfig};
use most_spatial::{Point, Polygon, Velocity};
use std::sync::Arc;

const TRIGGER: &str = "KABOOM";

/// Two cars, one heading into region P, plus the region itself.
fn demo_db() -> Database {
    let mut db = Database::new(10_000);
    let a = db.insert_moving_object("cars", Point::new(0.0, 0.0), Velocity::new(1.0, 0.0));
    db.set_static(a, "PRICE", Value::from(80.0)).unwrap();
    db.insert_moving_object("cars", Point::new(500.0, 500.0), Velocity::new(0.0, 0.0));
    db.add_region("P", Polygon::rectangle(90.0, -10.0, 110.0, 10.0));
    db
}

#[test]
fn panicking_session_leaves_server_serving() {
    let cfg = ServerConfig { panic_trigger: Some(TRIGGER.into()), ..ServerConfig::default() };
    let engine = Arc::new(ShardedDb::from_database(demo_db()));
    let server = Server::bind("127.0.0.1:0", engine, cfg).expect("bind");
    let addr = server.local_addr();

    let mut driver = Client::connect(addr).unwrap();
    let mut sub = Client::connect(addr).unwrap();
    let mut victim = Client::connect(addr).unwrap();

    let cq = driver.register("RETRIEVE o WHERE INSIDE(o, P)").unwrap();
    let (_, baseline) = sub.subscribe(cq).unwrap();
    assert!(baseline.is_empty(), "no car in P at tick 0");

    // The armed request: parses fine, then panics in the handler while
    // the mutation-order lock is held.
    let boom = format!("RETRIEVE o WHERE o.{TRIGGER} <= 1");
    match victim.register(&boom) {
        Err(ClientError::Server { code: ErrorCode::Internal, .. }) => {}
        other => panic!("expected Internal error frame, got {other:?}"),
    }

    // The offending *session* survives: the panic cost one request.
    victim.ping().unwrap();
    assert_eq!(victim.now().unwrap(), 0);

    // The mutation path survives the poisoned locks: another session
    // advances the clock and the subscriber still receives its delta.
    assert_eq!(driver.advance(100).unwrap(), 100);
    sub.ping().unwrap(); // FIFO fence: the delta is in
    let deltas = sub.take_deltas();
    assert_eq!(deltas.len(), 1, "subscriber must still get deltas");
    assert_eq!(deltas[0].cq, cq);
    assert_eq!(deltas[0].added, vec![vec![Value::Id(1)]]);

    // Registrations (the very request kind that panicked) still work.
    let cq2 = victim.register("RETRIEVE o WHERE o.PRICE <= 100").unwrap();
    assert_ne!(cq, cq2);

    // Stats still serves, and it counted the error frame.
    let stats = server.stats();
    assert!(stats.errors >= 1);
    assert_eq!(stats.sessions, 3);

    // Panic again — the server shrugs twice, too.
    match victim.register(&boom) {
        Err(ClientError::Server { code: ErrorCode::Internal, .. }) => {}
        other => panic!("expected Internal on second fault, got {other:?}"),
    }
    driver.update(&[UpdateOp::Motion { id: 1, velocity: Velocity::new(0.0, 0.0) }]).unwrap();
    server.shutdown();
}

#[test]
fn sharded_server_round_trip() {
    let mut builder = ShardedDbBuilder::new(3, 10_000).with_routing(ShardRouting::HashId);
    builder.add_region("P", Polygon::rectangle(90.0, -10.0, 110.0, 10.0));
    let mut ids = Vec::new();
    for i in 0..12u64 {
        let id = builder.insert_moving_object(
            "cars",
            Point::new(i as f64 * 1000.0, 0.0),
            Velocity::new(0.0, 0.0),
        );
        builder.set_static(id, "PRICE", Value::from(50.0 + i as f64 * 10.0)).unwrap();
        ids.push(id);
    }
    let db = Arc::new(builder.finish());

    let server = Server::bind("127.0.0.1:0", db, ServerConfig::default()).unwrap();
    let addr = server.local_addr();
    let mut driver = Client::connect(addr).unwrap();
    let mut sub = Client::connect(addr).unwrap();

    // Reads scatter-gather across every shard.
    let (_, answer) = driver.instantaneous("RETRIEVE o WHERE o.PRICE <= 100").unwrap();
    assert_eq!(answer.len(), 6, "prices 50..=100");

    // Continuous queries register on every shard under one global id,
    // and deltas fan out from pinned cuts like the single-shard path.
    let cq = driver.register("RETRIEVE o WHERE INSIDE(o, P)").unwrap();
    let (tick, baseline) = sub.subscribe(cq).unwrap();
    assert_eq!(tick, 0);
    assert!(baseline.is_empty());

    // Send object 1 toward P; it arrives at x=100 at tick 100.
    driver.update(&[UpdateOp::Motion { id: ids[0], velocity: Velocity::new(1.0, 0.0) }]).unwrap();
    assert_eq!(driver.advance(100).unwrap(), 100);
    sub.ping().unwrap();
    let deltas = sub.take_deltas();
    assert_eq!(deltas.len(), 1);
    assert_eq!(deltas[0].added, vec![vec![Value::Id(ids[0])]]);

    // Persistent queries scatter too.
    let (_, p) = driver.persistent("RETRIEVE o WHERE INSIDE(o, P)", 0).unwrap();
    assert_eq!(p.len(), 1);

    // The sharded engine has no WAL: Feed is rejected, not mis-served.
    match driver.request(&Request::Feed { from_seq: 0 }) {
        Ok(Response::Error { code: ErrorCode::NotDurable, .. }) => {}
        other => panic!("expected NotDurable, got {other:?}"),
    }

    // Snapshot merges the cut into ONE canonical Database object: the
    // typed client decode sees every object regardless of its shard.
    let merged = driver.snapshot().unwrap();
    assert_eq!(merged.object_ids().len(), ids.len(), "merged snapshot holds all shards' objects");
    assert_eq!(merged.now(), 100);

    // Unshardable queries are rejected with an Eval error, and the
    // server keeps serving afterwards.
    match driver.register("RETRIEVE o, p WHERE DIST(o, p) <= 5") {
        Err(ClientError::Server { code: ErrorCode::Eval, .. }) => {}
        other => panic!("expected Eval rejection for unshardable query, got {other:?}"),
    }
    driver.cancel(cq).unwrap();
    driver.ping().unwrap();
    server.shutdown();
}
