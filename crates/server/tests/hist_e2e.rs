//! End-to-end: the trajectory history warehouse behind every server
//! engine.
//!
//! Recording hooks the epoch-publish boundary, so the same client-driven
//! workload must produce oracle-exact alibi and aggregate answers
//! whether the server runs a single epoch engine, a WAL-backed durable
//! engine, or a sharded engine — and the sharded engine's merged
//! snapshot must be byte-identical to a single engine holding the same
//! logical state.

use most_core::sharded::{ShardedDb, ShardedDbBuilder};
use most_core::wal::{DurableDb, WalConfig};
use most_core::Database;
use most_hist::HistoryConfig;
use most_server::client::{Client, ClientError};
use most_server::protocol::{ErrorCode, Request, Response};
use most_server::server::{Server, ServerConfig};
use most_spatial::Polygon;
use most_temporal::Interval;
use most_workload::taxi::{due_motion_ops, TaxiScenario};
use std::path::PathBuf;
use std::sync::Arc;

fn wal_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn scenario() -> TaxiScenario {
    let mut s = TaxiScenario::small(0xa11b1);
    s.count = 8;
    s.shift = 40;
    s.swap_break = 10;
    s.horizon = 200;
    s
}

fn add_regions(db: &mut Database) {
    db.add_region("downtown", Polygon::rectangle(-150.0, -150.0, 150.0, 150.0));
    db.add_region("north", Polygon::rectangle(-400.0, 0.0, 400.0, 400.0));
}

/// Drives the seeded taxi workload through a connected client in
/// 20-tick batches and returns the driven horizon.
fn drive(client: &mut Client, ids: &[u64], plans: &[most_workload::TaxiPlan]) -> u64 {
    let horizon = 200;
    let mut last = 0;
    while last < horizon {
        let now = last + 20;
        client.advance(20).unwrap();
        let ops = due_motion_ops(ids, plans, last, now);
        if !ops.is_empty() {
            client.update(&ops).unwrap();
        }
        last = now;
    }
    horizon
}

/// Alibi + aggregate answers over the wire must equal the store-side
/// brute-force oracles, and error paths must use their own codes.
fn check_queries(client: &mut Client, server: &Server, ids: &[u64], horizon: u64) {
    let hist = server.history();
    let (a, b) = (ids[0], ids[1]);
    let vmax = 2.5;
    let (_, meets) = client.alibi(a, b, vmax, 0, horizon).unwrap();
    let oracle = hist.with(|s| s.alibi_by_oracle(a, b, vmax, Interval::new(0, horizon)));
    assert_eq!(meets, oracle.intervals().to_vec(), "wire alibi must be oracle-exact");

    let (_, window, tops) = client.aggregate(0, horizon, 2).unwrap();
    hist.with(|s| {
        let agg = s.aggregates();
        assert_eq!(window, agg.window());
        let starts: Vec<u64> =
            agg.window_starts().into_iter().filter(|&w| w <= horizon).collect();
        assert_eq!(tops.len(), starts.len(), "every overlapping window is reported");
        for (wc, start) in tops.iter().zip(starts) {
            assert_eq!(wc.start, start);
            assert_eq!(wc.counts, agg.top_k(start, 2), "top-k must match the store");
        }
    });

    // Unknown object: NoHistory, not an empty answer.
    match client.alibi(9999, b, vmax, 0, horizon) {
        Err(ClientError::Server { code: ErrorCode::NoHistory, .. }) => {}
        other => panic!("expected NoHistory for unknown object, got {other:?}"),
    }
    // Inverted range: BadRequest.
    match client.alibi(a, b, vmax, 10, 5) {
        Err(ClientError::Server { code: ErrorCode::BadRequest, .. }) => {}
        other => panic!("expected BadRequest for inverted range, got {other:?}"),
    }
    match client.request(&Request::Aggregate { begin: 10, end: 5, k: 1 }) {
        Ok(Response::Error { code: ErrorCode::BadRequest, .. }) => {}
        other => panic!("expected BadRequest for inverted aggregate range, got {other:?}"),
    }
}

#[test]
fn history_composes_with_single_server() {
    let s = scenario();
    let plans = s.generate();
    let mut db = Database::new(10_000);
    add_regions(&mut db);
    let ids = s.populate(&mut db, &plans);
    let cfg = ServerConfig {
        history: HistoryConfig { window: 25, ..HistoryConfig::unpruned(25) },
        ..ServerConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", Arc::new(ShardedDb::from_database(db)), cfg).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let horizon = drive(&mut client, &ids, &plans);
    check_queries(&mut client, &server, &ids, horizon);
    server.shutdown();
}

#[test]
fn history_composes_with_sharded_server() {
    let s = scenario();
    let plans = s.generate();
    let mut builder = ShardedDbBuilder::new(4, 10_000);
    builder.add_region("downtown", Polygon::rectangle(-150.0, -150.0, 150.0, 150.0));
    builder.add_region("north", Polygon::rectangle(-400.0, 0.0, 400.0, 400.0));
    let ids = s.populate_sharded(&mut builder, &plans);
    let cfg = ServerConfig {
        history: HistoryConfig { window: 25, ..HistoryConfig::unpruned(25) },
        ..ServerConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", Arc::new(builder.finish()), cfg).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let horizon = drive(&mut client, &ids, &plans);
    // Every shard's publishes reached the one store.
    server.history().with(|store| {
        for id in &ids {
            assert!(store.object(*id).is_some(), "object {id} recorded across shards");
        }
    });
    check_queries(&mut client, &server, &ids, horizon);
    server.shutdown();
}

#[test]
fn history_composes_with_durable_server() {
    let dir = wal_dir("hist_durable");
    let s = scenario();
    let plans = s.generate();
    let mut db = Database::new(10_000);
    add_regions(&mut db);
    let ids = s.populate(&mut db, &plans);
    let durable = Arc::new(DurableDb::create(&dir, db, WalConfig::default()).unwrap());
    let cfg = ServerConfig {
        history: HistoryConfig { window: 25, ..HistoryConfig::unpruned(25) },
        ..ServerConfig::default()
    };
    let server = Server::bind_durable("127.0.0.1:0", durable, cfg).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let horizon = drive(&mut client, &ids, &plans);
    check_queries(&mut client, &server, &ids, horizon);
    server.shutdown();
}

/// The merged sharded snapshot is byte-identical to a single engine
/// holding the same logical state (no continuous queries registered —
/// per-shard CQ registries hold shard-local materialized answers, see
/// E16).
#[test]
fn sharded_snapshot_matches_single_engine_bytes() {
    let s = scenario();
    let plans = s.generate();

    let mut single_db = Database::new(10_000);
    add_regions(&mut single_db);
    let single_ids = s.populate(&mut single_db, &plans);
    let single = Server::bind(
        "127.0.0.1:0",
        Arc::new(ShardedDb::from_database(single_db)),
        ServerConfig::default(),
    )
    .unwrap();

    let mut builder = ShardedDbBuilder::new(3, 10_000);
    builder.add_region("downtown", Polygon::rectangle(-150.0, -150.0, 150.0, 150.0));
    builder.add_region("north", Polygon::rectangle(-400.0, 0.0, 400.0, 400.0));
    let sharded_ids = s.populate_sharded(&mut builder, &plans);
    assert_eq!(single_ids, sharded_ids, "identical global ids in plan order");
    let sharded =
        Server::bind("127.0.0.1:0", Arc::new(builder.finish()), ServerConfig::default())
            .unwrap();

    let mut c_single = Client::connect(single.local_addr()).unwrap();
    let mut c_sharded = Client::connect(sharded.local_addr()).unwrap();
    drive(&mut c_single, &single_ids, &plans);
    drive(&mut c_sharded, &sharded_ids, &plans);

    let json_single = match c_single.request(&Request::Snapshot).unwrap() {
        Response::Db { json } => json,
        other => panic!("expected Db, got {other:?}"),
    };
    let json_sharded = match c_sharded.request(&Request::Snapshot).unwrap() {
        Response::Db { json } => json,
        other => panic!("expected Db, got {other:?}"),
    };
    assert_eq!(json_single, json_sharded, "merged sharded snapshot must be canonical");

    single.shutdown();
    sharded.shutdown();
}

/// With continuous queries live the byte-identity no longer holds
/// (shard-local CQ bookkeeping), but the merged snapshot must still
/// decode through the typed client path into a usable database.
#[test]
fn sharded_snapshot_decodes_with_live_cqs() {
    let s = scenario();
    let plans = s.generate();
    let mut builder = ShardedDbBuilder::new(4, 10_000);
    builder.add_region("downtown", Polygon::rectangle(-150.0, -150.0, 150.0, 150.0));
    builder.add_region("north", Polygon::rectangle(-400.0, 0.0, 400.0, 400.0));
    let ids = s.populate_sharded(&mut builder, &plans);
    let server =
        Server::bind("127.0.0.1:0", Arc::new(builder.finish()), ServerConfig::default())
            .unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    client.register("RETRIEVE o WHERE INSIDE(o, downtown)").unwrap();
    let horizon = drive(&mut client, &ids, &plans);
    let restored = client.snapshot().unwrap();
    assert_eq!(restored.object_ids(), ids, "all shards' objects decode");
    assert_eq!(restored.now(), horizon);
    server.shutdown();
}
