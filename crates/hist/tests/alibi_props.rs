//! Properties of the history warehouse's two query families.
//!
//! * `alibi_solver_matches_brute_force_oracle` — the exact prism
//!   (bead) intersection solver must agree **byte-for-byte** with the
//!   tick-stepping oracle on any pair of seeded sample tracks,
//!   including the degenerate geometry: a zero speed bound, coincident
//!   consecutive samples (a parked object), and prisms that only just
//!   touch (the integer lattice makes exact tangency common).
//! * `aggregates_match_full_recompute` — the incrementally-maintained
//!   windowed aggregates on an unpruned store must equal a full
//!   recompute over the retained sample log.
//!
//! Failures shrink to a minimal case and append their seed to
//! `tests/alibi_props.seeds`, replayed first on every run.

use most_core::{Database, ShardedDb, UpdateOp};
use most_hist::{alibi_intervals, alibi_oracle, HistoryConfig, HistoryRecorder, Sample, WindowedAggregates};
use most_spatial::{Point, Polygon, Velocity};
use most_temporal::Interval;
use most_testkit::check::{ints, one_of, tuple2, tuple3, tuple4, vecs, Check, Gen};

/// One sampled track: seeded gaps and integer positions.  The `hold`
/// branch repeats the previous position — coincident consecutive
/// samples, the parked-object degeneracy.
#[derive(Debug, Clone)]
enum Leg {
    Move { gap: u64, x: i32, y: i32 },
    Hold { gap: u64 },
}

fn arb_leg() -> Gen<Leg> {
    one_of(vec![
        tuple3(ints(1u64..5), ints(-10i32..=10), ints(-10i32..=10))
            .map(|(gap, x, y)| Leg::Move { gap, x, y }),
        ints(1u64..5).map(|gap| Leg::Hold { gap }),
    ])
}

fn track(start: (i32, i32), legs: &[Leg]) -> Vec<Sample> {
    let mut t = 0u64;
    let mut pos = Point::new(start.0 as f64, start.1 as f64);
    let mut out = vec![(t, pos)];
    for leg in legs {
        match *leg {
            Leg::Move { gap, x, y } => {
                t += gap;
                pos = Point::new(x as f64, y as f64);
            }
            Leg::Hold { gap } => t += gap,
        }
        out.push((t, pos));
    }
    out
}

#[derive(Debug, Clone)]
struct AlibiCase {
    a_start: (i32, i32),
    b_start: (i32, i32),
    a_legs: Vec<Leg>,
    b_legs: Vec<Leg>,
    /// Quarter-steps: 0 is the zero-speed-bound degeneracy; small
    /// values make prisms that barely (or exactly) touch on the
    /// integer lattice.
    vmax_quarters: u32,
}

fn arb_case() -> Gen<AlibiCase> {
    let coord = || tuple2(ints(-10i32..=10), ints(-10i32..=10));
    tuple4(
        tuple2(coord(), coord()),
        vecs(arb_leg(), 1..6),
        vecs(arb_leg(), 1..6),
        ints(0u32..=10),
    )
    .map(|((a_start, b_start), a_legs, b_legs, vmax_quarters)| AlibiCase {
        a_start,
        b_start,
        a_legs,
        b_legs,
        vmax_quarters,
    })
}

#[test]
fn alibi_solver_matches_brute_force_oracle() {
    Check::new("hist::alibi_solver_matches_brute_force_oracle")
        .cases(192)
        .regressions("tests/alibi_props.seeds")
        .run(&arb_case(), |c| {
            let a = track(c.a_start, &c.a_legs);
            let b = track(c.b_start, &c.b_legs);
            let vmax = c.vmax_quarters as f64 * 0.25;
            let last = a.last().unwrap().0.max(b.last().unwrap().0);
            // The full span, a strict sub-range, and a range past the
            // samples all must agree.
            for range in [
                Interval::new(0, last),
                Interval::new(last / 3, (2 * last / 3).max(last / 3)),
                Interval::new(0, last + 5),
            ] {
                let fast = alibi_intervals(&a, vmax, &b, vmax, range);
                let slow = alibi_oracle(&a, vmax, &b, vmax, range);
                assert_eq!(
                    fast, slow,
                    "solver/oracle split on range [{}, {}] vmax {vmax}",
                    range.begin(),
                    range.end()
                );
            }
        });
}

/// One update step driven through a real epoch engine.
#[derive(Debug, Clone)]
struct AggCase {
    objects: Vec<(i32, i32, i32, i32)>,
    steps: Vec<(u64, u64, i32, i32)>, // ticks, object index, vx, vy
    window: u64,
}

fn arb_agg_case() -> Gen<AggCase> {
    tuple3(
        vecs(tuple4(ints(-30i32..=30), ints(-30i32..=30), ints(-3i32..=3), ints(-3i32..=3)), 1..4),
        vecs(
            tuple4(ints(1u64..6), ints(0u64..4), ints(-3i32..=3), ints(-3i32..=3)),
            1..8,
        ),
        ints(1u64..20),
    )
    .map(|(objects, steps, window)| AggCase { objects, steps, window })
}

#[test]
fn aggregates_match_full_recompute() {
    Check::new("hist::aggregates_match_full_recompute")
        .cases(96)
        .regressions("tests/alibi_props.seeds")
        .run(&arb_agg_case(), |c| {
            let mut db = Database::new(10_000);
            db.add_region("inner", Polygon::rectangle(-10.0, -10.0, 10.0, 10.0));
            db.add_region("east", Polygon::rectangle(0.0, -40.0, 40.0, 40.0));
            let ids: Vec<u64> = c
                .objects
                .iter()
                .map(|&(x, y, vx, vy)| {
                    db.insert_moving_object(
                        "cars",
                        Point::new(x as f64, y as f64),
                        Velocity::new(vx as f64, vy as f64),
                    )
                })
                .collect();
            let engine = ShardedDb::from_database(db);
            let rec = HistoryRecorder::new(HistoryConfig::unpruned(c.window));
            rec.attach_sharded(&engine);
            for &(ticks, idx, vx, vy) in &c.steps {
                engine.advance_clock(ticks);
                let id = ids[(idx as usize) % ids.len()];
                engine.apply_updates(&[UpdateOp::Motion {
                    id,
                    velocity: Velocity::new(vx as f64, vy as f64),
                }])
                .unwrap();
            }
            let pin = engine.pin();
            rec.with(|store| {
                let oracle = WindowedAggregates::recompute(
                    c.window,
                    store.retained_samples(),
                    pin.shard(0),
                );
                assert_eq!(store.aggregates(), &oracle, "incremental aggregate diverged");
            });
        });
}
