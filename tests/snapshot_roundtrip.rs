//! Snapshot round-trip under the E3 workload: serializing a database
//! mid-flight and restoring it must preserve every query-visible
//! behaviour — instantaneous answers, continuous displays, and persistent
//! history — both at the snapshot tick and as both copies advance further.
//!
//! This is the invariant behind the server's `Snapshot` request (session
//! recovery): a client that restores a snapshot and replays subsequent
//! mutations sees exactly what the server sees.

use most_testkit::ser::{from_json_str, to_json_string};
use moving_objects::core::{Database, EpochDb, UpdateOp};
use moving_objects::ftl::Query;
use moving_objects::spatial::{Polygon, Velocity};
use moving_objects::workload::cars::{apply_due_updates, CarScenario};

/// The E3 scenario (crates/bench e3_continuous): 30 cars on a 400-unit
/// area, speed band (0.5, 2.0), seed 42.
fn e3_scenario(window: u64) -> CarScenario {
    CarScenario {
        count: 30,
        area: 400.0,
        speed: (0.5, 2.0),
        mean_update_gap: 100.0,
        horizon: window,
        seed: 42,
    }
}

fn queries() -> Vec<Query> {
    [
        "RETRIEVE o WHERE INSIDE(o, P)",
        "RETRIEVE o WHERE o.PRICE <= 120",
        "RETRIEVE o WHERE Eventually within 60 INSIDE(o, P)",
        "RETRIEVE o, n WHERE o <> n AND DIST(o, n) <= 25",
    ]
    .into_iter()
    .map(|s| Query::parse(s).expect("query parses"))
    .collect()
}

fn snapshot_roundtrip(db: &Database) -> Database {
    let json = to_json_string(db).expect("database serializes");
    let restored: Database = from_json_str(&json).expect("database restores");
    // Determinism of the wire form itself: re-serializing the restored
    // copy yields identical bytes.
    let again = to_json_string(&restored).expect("restored database serializes");
    assert_eq!(json, again, "snapshot serialization is not canonical");
    restored
}

#[test]
fn snapshot_preserves_all_answers_mid_workload() {
    let window = 120u64;
    let scenario = e3_scenario(window);
    let plans = scenario.generate();
    let mut db = Database::new(window * 4);
    db.add_region("P", Polygon::rectangle(-100.0, -100.0, 100.0, 100.0));
    let ids = scenario.populate(&mut db, &plans);
    let cq = db
        .register_continuous(Query::parse("RETRIEVE o WHERE INSIDE(o, P)").unwrap())
        .unwrap();

    // Drive half the window, then snapshot mid-flight.
    for t in 1..=window / 2 {
        db.advance_clock(1);
        apply_due_updates(&mut db, &ids, &plans, t - 1, t);
    }
    let restored = snapshot_roundtrip(&db);
    assert_eq!(restored.now(), db.now());
    assert_eq!(restored.object_ids(), db.object_ids());

    for q in &queries() {
        assert_eq!(
            restored.instantaneous_readonly(q).unwrap(),
            db.instantaneous_readonly(q).unwrap(),
            "instantaneous answers diverge after restore: {q:?}"
        );
    }
    assert_eq!(
        restored.continuous_display(cq, db.now()).unwrap(),
        db.continuous_display(cq, db.now()).unwrap()
    );
    // The recorded history survives too: a persistent query anchored at
    // tick 0 replays identically.
    let q = Query::parse("RETRIEVE o WHERE Eventually within 60 INSIDE(o, P)").unwrap();
    assert_eq!(
        restored.persistent_answer(&q, 0).unwrap(),
        db.persistent_answer(&q, 0).unwrap()
    );
}

#[test]
fn snapshot_then_identical_future_evolution() {
    let window = 120u64;
    let scenario = e3_scenario(window);
    let plans = scenario.generate();
    let mut db = Database::new(window * 4);
    db.add_region("P", Polygon::rectangle(-100.0, -100.0, 100.0, 100.0));
    let ids = scenario.populate(&mut db, &plans);
    let cq = db
        .register_continuous(Query::parse("RETRIEVE o WHERE INSIDE(o, P)").unwrap())
        .unwrap();
    for t in 1..=window / 2 {
        db.advance_clock(1);
        apply_due_updates(&mut db, &ids, &plans, t - 1, t);
    }

    // Restore, then drive BOTH copies through the rest of the window with
    // the same updates: every tick's display and answers must agree.
    let mut restored = snapshot_roundtrip(&db);
    let qs = queries();
    for t in window / 2 + 1..=window {
        db.advance_clock(1);
        restored.advance_clock(1);
        apply_due_updates(&mut db, &ids, &plans, t - 1, t);
        apply_due_updates(&mut restored, &ids, &plans, t - 1, t);
        assert_eq!(
            restored.continuous_display(cq, t).unwrap(),
            db.continuous_display(cq, t).unwrap(),
            "continuous display diverges at tick {t}"
        );
    }
    for q in &qs {
        assert_eq!(
            restored.instantaneous_readonly(q).unwrap(),
            db.instantaneous_readonly(q).unwrap(),
            "instantaneous answers diverge at end of window: {q:?}"
        );
    }
}

/// Mid-epoch snapshot: with batches **buffered into epoch E+1 but not
/// yet published**, the serialized form (what the server's `Snapshot`
/// request ships) must round-trip to the last *published* epoch E —
/// across all three query types — with no trace of the buffered half.
#[test]
fn mid_epoch_snapshot_restores_last_published_epoch() {
    let window = 120u64;
    let scenario = e3_scenario(window);
    let plans = scenario.generate();
    let mut db = Database::new(window * 4);
    db.add_region("P", Polygon::rectangle(-100.0, -100.0, 100.0, 100.0));
    let ids = scenario.populate(&mut db, &plans);
    let cq = db
        .register_continuous(Query::parse("RETRIEVE o WHERE INSIDE(o, P)").unwrap())
        .unwrap();

    let epochs = EpochDb::new(db);
    // Publish a few epochs the ordinary way.
    for t in 1..=10u64 {
        epochs.commit(|d| d.advance_clock(1));
        epochs.commit(|d| apply_due_updates(d, &ids, &plans, t - 1, t));
    }
    let published = epochs.pin();

    // Now accumulate epoch E+1 *without* publishing: a partial batch and
    // a buffered clock advance.
    epochs
        .buffer_updates(&[UpdateOp::Motion { id: ids[0], velocity: Velocity::new(9.0, 9.0) }])
        .unwrap();
    epochs.write(|d| d.advance_clock(3));
    assert_eq!(epochs.stats().pending_batches, 1);

    // The server-visible snapshot is taken through the read path — it
    // must see only the published epoch.
    let json = to_json_string(epochs.pin().db()).expect("snapshot serializes");
    let restored: Database = from_json_str(&json).expect("snapshot restores");

    assert_eq!(restored.now(), published.db().now(), "buffered clock advance leaked");
    for q in &queries() {
        assert_eq!(
            restored.instantaneous_readonly(q).unwrap(),
            published.db().instantaneous_readonly(q).unwrap(),
            "instantaneous answers diverge from published epoch: {q:?}"
        );
    }
    assert_eq!(
        restored.continuous_display(cq, restored.now()).unwrap(),
        published.db().continuous_display(cq, published.db().now()).unwrap(),
        "continuous display diverges from published epoch"
    );
    let pq = Query::parse("RETRIEVE o WHERE Eventually within 60 INSIDE(o, P)").unwrap();
    assert_eq!(
        restored.persistent_answer(&pq, 0).unwrap(),
        published.db().persistent_answer(&pq, 0).unwrap(),
        "persistent history diverges from published epoch"
    );
    // The buffered motion is absent from the restored copy...
    let now = restored.now();
    assert_ne!(
        restored.object(ids[0]).unwrap().velocity_at(now),
        Some(Velocity::new(9.0, 9.0)),
        "buffered (unpublished) batch leaked into the snapshot"
    );

    // ...and publishing afterwards is equivalent to restoring the
    // snapshot and replaying the buffered mutations on top.
    let e = epochs.advance_epoch();
    let after = epochs.pin();
    assert_eq!(after.epoch(), e);
    let mut replayed = restored;
    replayed
        .apply_updates(&[UpdateOp::Motion { id: ids[0], velocity: Velocity::new(9.0, 9.0) }])
        .unwrap();
    replayed.advance_clock(3);
    assert_eq!(replayed.now(), after.db().now());
    for q in &queries() {
        assert_eq!(
            replayed.instantaneous_readonly(q).unwrap(),
            after.db().instantaneous_readonly(q).unwrap(),
            "replayed snapshot diverges from published E+1: {q:?}"
        );
    }
}
