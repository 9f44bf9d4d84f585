//! Property test for epoch snapshot isolation: for **random
//! update/query interleavings**, any answer returned while readers race
//! a writer through `EpochDb` equals the answer at some epoch the
//! single-threaded oracle also produced — in fact at exactly the epoch
//! the reader pinned.  Scripts are plain data, so the testkit harness
//! shrinks failing interleavings to a minimal step sequence.
//!
//! Previously-failing cases are pinned by `tests/epoch_oracle.seeds`
//! (one generator seed per line) and replayed before novel cases.

use most_testkit::check::{ints, one_of, tuple2, tuple3, vecs, Check, Gen};
use most_testkit::ser::to_json_string;
use moving_objects::core::{Database, EpochDb, UpdateOp};
use moving_objects::dbms::value::Value;
use moving_objects::ftl::Query;
use moving_objects::spatial::{Point, Polygon, Velocity};
use std::thread;

/// One writer step; each publishes exactly one epoch.
#[derive(Debug, Clone)]
enum Ev {
    Advance(u64),
    Motion { obj: usize, vx: i32, vy: i32 },
    Batch { obj: usize, price: u32, poison: bool },
}

fn arb_script() -> Gen<Vec<Ev>> {
    vecs(
        one_of(vec![
            ints(1..5u64).map(Ev::Advance),
            tuple3(ints(0..3usize), ints(-4i32..4), ints(-4i32..4))
                .map(|(obj, vx, vy)| Ev::Motion { obj, vx, vy }),
            tuple3(ints(0..3usize), ints(40..200u32), ints(0..4u32))
                .map(|(obj, price, p)| Ev::Batch { obj, price, poison: p == 0 }),
        ]),
        0..10,
    )
}

fn world() -> (Database, [u64; 3], u64) {
    let mut db = Database::new(100);
    let ids = [
        db.insert_moving_object("cars", Point::new(-40.0, 0.0), Velocity::new(1.0, 0.0)),
        db.insert_moving_object("cars", Point::new(40.0, 10.0), Velocity::new(-1.0, 0.0)),
        db.insert_moving_object("cars", Point::new(0.0, -30.0), Velocity::new(0.0, 1.0)),
    ];
    db.add_region("P", Polygon::rectangle(-20.0, -20.0, 20.0, 20.0));
    for (i, &id) in ids.iter().enumerate() {
        db.set_static(id, "PRICE", (100.0 + i as f64 * 20.0).into()).unwrap();
    }
    let cq = db
        .register_continuous(Query::parse("RETRIEVE o WHERE INSIDE(o, P)").unwrap())
        .unwrap();
    (db, ids, cq)
}

/// Canonical bytes for all three query types on one state.
fn observe(db: &Database, cq: u64) -> String {
    let inst = Query::parse("RETRIEVE o WHERE Eventually within 40 INSIDE(o, P)").unwrap();
    let pers = Query::parse("RETRIEVE o WHERE Eventually within 20 (o.PRICE <= 110)").unwrap();
    [
        db.now().to_string(),
        to_json_string(&db.instantaneous_readonly(&inst).unwrap()).unwrap(),
        to_json_string(&db.continuous_display(cq, db.now()).unwrap()).unwrap(),
        to_json_string(&db.persistent_answer(&pers, 0).unwrap()).unwrap(),
    ]
    .join("\n")
}

fn batch_ops(ids: &[u64; 3], obj: usize, price: u32, poison: bool) -> Vec<UpdateOp> {
    let mut ops = vec![UpdateOp::Static {
        id: ids[obj],
        attr: "PRICE".into(),
        value: Value::from(price as f64),
    }];
    if poison {
        // Stops the batch here; the prefix above must still publish as
        // this step's (single) epoch.
        ops.push(UpdateOp::Motion { id: 999_999, velocity: Velocity::zero() });
    }
    ops.push(UpdateOp::Motion { id: ids[(obj + 1) % 3], velocity: Velocity::new(0.5, 0.0) });
    ops
}

fn apply_step(db: &mut Database, ids: &[u64; 3], ev: &Ev) {
    match *ev {
        Ev::Advance(n) => db.advance_clock(n),
        Ev::Motion { obj, vx, vy } => db
            .update_motion(ids[obj], Velocity::new(vx as f64 * 0.5, vy as f64 * 0.5))
            .unwrap(),
        Ev::Batch { obj, price, poison } => {
            let _ = db.apply_updates(&batch_ops(ids, obj, price, poison));
        }
    }
}

#[test]
fn concurrent_epoch_answers_match_an_oracle_epoch() {
    Check::new("epoch::concurrent_epoch_answers_match_an_oracle_epoch")
        .cases(24)
        .regressions("tests/epoch_oracle.seeds")
        .run(&tuple2(arb_script(), ints(1..4usize)), |(script, readers)| {
            let (db, ids, cq) = world();
            // Oracle: replay single-threaded, record every epoch's bytes.
            let mut oracle_db = db.clone();
            let mut expected = vec![observe(&oracle_db, cq)];
            for ev in script {
                apply_step(&mut oracle_db, &ids, ev);
                expected.push(observe(&oracle_db, cq));
            }
            // Concurrent run: the writer publishes one epoch per step
            // while `readers` threads pin and check — no sleeps.
            let shared = EpochDb::new(db);
            thread::scope(|s| {
                let writer = {
                    let shared = shared.clone();
                    s.spawn(move || {
                        for ev in script {
                            match *ev {
                                Ev::Advance(n) => shared.commit(|d| d.advance_clock(n)),
                                Ev::Motion { obj, vx, vy } => shared
                                    .commit(|d| {
                                        d.update_motion(
                                            ids[obj],
                                            Velocity::new(vx as f64 * 0.5, vy as f64 * 0.5),
                                        )
                                    })
                                    .unwrap(),
                                Ev::Batch { obj, price, poison } => {
                                    let r = shared
                                        .apply_updates(&batch_ops(&ids, obj, price, poison));
                                    assert_eq!(r.is_err(), poison);
                                }
                            }
                        }
                    })
                };
                for _ in 0..*readers {
                    let shared = shared.clone();
                    let expected = &expected;
                    s.spawn(move || {
                        for _ in 0..6 {
                            let pin = shared.pin();
                            let e = pin.epoch() as usize;
                            assert!(e < expected.len(), "epoch {e} never produced by oracle");
                            assert_eq!(
                                observe(pin.db(), cq),
                                expected[e],
                                "epoch {e} is not an oracle state"
                            );
                        }
                    });
                }
                writer.join().expect("writer");
            });
            // Quiescent: published epoch == last oracle state; accounting
            // conserves with only the published snapshot alive.
            let pin = shared.pin();
            assert_eq!(pin.epoch() as usize, script.len());
            assert_eq!(observe(pin.db(), cq), expected[script.len()]);
            drop(pin);
            let st = shared.stats();
            assert_eq!(st.created, st.retired + st.live, "conservation: {st:?}");
            assert_eq!(st.live, 1);
        });
}
