//! E17 — the trajectory history warehouse: oracle-exact alibi and
//! aggregate answers, then recording overhead (PR 10 tentpole).
//!
//! `most-hist` records each object's piecewise-linear motion history at
//! the **epoch-publish boundary** (a publish observer installed on the
//! engine — no new engine locks) and answers two query families from
//! the recorded past: the **alibi query** (exact space-time prism
//! intersection: could two objects have met inside a time range?) and
//! **windowed warehouse aggregates** (distinct objects per region per
//! window, top-k busiest regions), maintained incrementally per batch.
//!
//! * **Phase A (oracle gate, the CI gate):** seeded taxi-shift and
//!   delivery-route fleets replay through all three engine setups — a
//!   one-shard `ShardedDb`, a 4-shard `ShardedDb`, and a WAL-backed
//!   `DurableDb` (itself over one shard) — with a recorder attached.
//!   Every alibi answer must be **byte-identical** to the brute-force
//!   time-stepping oracle over the same recorded samples, and the
//!   incrementally-maintained aggregates must equal a full recompute of
//!   the retained sample log.  All asserted in-run.
//! * **Phase B (overhead, measured):** the same car-fleet batch stream
//!   applies to twin one-shard engines with and without a recorder
//!   attached — the wall-clock ratio is the recording overhead — and
//!   the recorder's sustained fold rate (legs consumed per second,
//!   aggregate maintenance included) is reported for an unpruned and a
//!   tightly-pruned retention config.  Observability is disabled
//!   around this phase.

use crate::table::{fmt_duration, fmt_f64};
use crate::{Scale, Table};
use most_core::sharded::{ShardedDb, ShardedDbBuilder};
use most_core::wal::{DurableDb, WalConfig};
use most_core::{Database, UpdateOp};
use most_hist::{HistoryConfig, HistoryRecorder, WindowedAggregates};
use most_spatial::Polygon;
use most_temporal::Interval;
use most_workload::delivery::{self, DeliveryScenario};
use most_workload::taxi::{self, TaxiScenario};
use most_workload::CarScenario;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

const SEED: u64 = 0xE17;
const HORIZON: u64 = 160;
const WINDOW: u64 = 20;

/// WAL directories live under the workspace `target/` so experiment
/// runs never touch anything outside the repository; the pid suffix
/// keeps CI's double-run diff from colliding mid-flight.
fn wal_dir(tag: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../target/e17_wal")
        .join(format!("{}-{tag}", std::process::id()))
}

fn add_regions(db: &mut Database) {
    db.add_region("downtown", Polygon::rectangle(-150.0, -150.0, 150.0, 150.0));
    db.add_region("north", Polygon::rectangle(-400.0, 0.0, 400.0, 400.0));
}

/// One engine setup under test: a sharded engine (one shard for
/// "single" and "durable", four for "sharded"), mutated through its
/// write-ahead log when durable.
struct Engine {
    db: Arc<ShardedDb>,
    durable: Option<DurableDb>,
}

impl Engine {
    fn advance(&self, ticks: u64) {
        match &self.durable {
            Some(d) => d.advance_clock(ticks).expect("wal advance"),
            None => self.db.advance_clock(ticks),
        }
    }

    fn apply(&self, ops: &[UpdateOp]) {
        match &self.durable {
            Some(d) => d.apply_updates(ops),
            None => self.db.apply_updates(ops),
        }
        .expect("valid batch");
    }
}

/// A seeded fleet: object ids plus the due-update schedule already cut
/// into `(last, now]` windows.
struct Fleet {
    ids: Vec<u64>,
    ops: Box<dyn Fn(u64, u64) -> Vec<UpdateOp>>,
}

fn build_world(fleet: &str, seed: u64, engine: &str) -> (Engine, Fleet) {
    let make_engine = |db: Database, populate_sharded: &dyn Fn(&mut ShardedDbBuilder) -> Vec<u64>| {
        match engine {
            "single" => Engine { db: Arc::new(ShardedDb::from_database(db)), durable: None },
            "durable" => {
                let dir = wal_dir(&format!("{fleet}-{seed}"));
                let _ = std::fs::remove_dir_all(&dir);
                let d = DurableDb::create(&dir, db, WalConfig::default()).unwrap();
                Engine { db: Arc::clone(d.engine()), durable: Some(d) }
            }
            _ => {
                let mut b = ShardedDbBuilder::new(4, 10_000);
                b.add_region("downtown", Polygon::rectangle(-150.0, -150.0, 150.0, 150.0));
                b.add_region("north", Polygon::rectangle(-400.0, 0.0, 400.0, 400.0));
                populate_sharded(&mut b);
                Engine { db: Arc::new(b.finish()), durable: None }
            }
        }
    };
    match fleet {
        "taxi" => {
            let mut s = TaxiScenario::small(seed);
            s.count = 8;
            s.shift = 40;
            s.swap_break = 10;
            s.horizon = HORIZON;
            let plans = s.generate();
            let mut db = Database::new(10_000);
            add_regions(&mut db);
            let ids = s.populate(&mut db, &plans);
            let eng = make_engine(db, &|b| s.populate_sharded(b, &plans));
            let ops_ids = ids.clone();
            let fleet = Fleet {
                ids,
                ops: Box::new(move |last, now| taxi::due_motion_ops(&ops_ids, &plans, last, now)),
            };
            (eng, fleet)
        }
        _ => {
            let mut s = DeliveryScenario::small(seed);
            s.vans = 8;
            let plans = s.generate();
            let mut db = Database::new(10_000);
            add_regions(&mut db);
            let ids = s.populate(&mut db, &plans);
            let eng = make_engine(db, &|b| s.populate_sharded(b, &plans));
            let ops_ids = ids.clone();
            let fleet = Fleet {
                ids,
                ops: Box::new(move |last, now| {
                    delivery::due_motion_ops(&ops_ids, &plans, last, now)
                }),
            };
            (eng, fleet)
        }
    }
}

/// Replays the fleet's batch stream to `HORIZON` in 10-tick batches.
fn drive(engine: &Engine, fleet: &Fleet) {
    let mut last = 0;
    while last < HORIZON {
        let now = last + 10;
        engine.advance(10);
        let ops = (fleet.ops)(last, now);
        if !ops.is_empty() {
            engine.apply(&ops);
        }
        last = now;
    }
}

/// Drives one fleet through one engine with a recorder attached, then
/// byte-compares every alibi answer to the brute-force oracle and the
/// aggregates to a full recompute.  Returns `(checks, records)`.
fn oracle_gate(fleet_name: &str, seed: u64, engine_name: &str) -> (usize, u64) {
    let (engine, fleet) = build_world(fleet_name, seed, engine_name);
    let rec = HistoryRecorder::new(HistoryConfig::unpruned(WINDOW));
    rec.attach_sharded(&engine.db);
    drive(&engine, &fleet);
    let mut checks = 0;
    rec.with(|store| {
        for (i, &a) in fleet.ids.iter().take(3).enumerate() {
            for &b in fleet.ids.iter().take(3).skip(i + 1) {
                for vmax in [0.0, 2.5] {
                    for range in
                        [Interval::new(0, HORIZON), Interval::new(HORIZON / 4, HORIZON / 2)]
                    {
                        let fast = store.alibi(a, b, vmax, range);
                        let slow = store.alibi_by_oracle(a, b, vmax, range);
                        assert_eq!(
                            fast, slow,
                            "{engine_name}/{fleet_name} seed {seed}: alibi({a}, {b}, \
                             {vmax}, [{}, {}]) diverged from the oracle",
                            range.begin(),
                            range.end()
                        );
                        checks += 1;
                    }
                }
            }
        }
        // The recompute oracle reads the region set, identical on every
        // shard.
        let oracle = WindowedAggregates::recompute(
            WINDOW,
            store.retained_samples(),
            engine.db.pin().shard(0),
        );
        assert_eq!(
            store.aggregates(),
            &oracle,
            "{engine_name}/{fleet_name} seed {seed}: incremental aggregates diverged"
        );
        checks += 1;
    });
    let records = rec.with(|s| {
        s.object_ids().iter().map(|id| s.object(*id).unwrap().retained()).sum()
    });
    (checks, records)
}

// ---------------------------------------------------------------- Phase B

struct Overhead {
    elapsed_secs: f64,
    records: u64,
}

/// Applies the seeded car-fleet batch stream to a fresh one-shard engine,
/// optionally with a recorder attached, and measures wall-clock.
fn run_stream(
    scenario: &CarScenario,
    plans: &[most_workload::CarPlan],
    config: Option<HistoryConfig>,
) -> Overhead {
    let mut db = Database::new(10_000);
    add_regions(&mut db);
    let ids = scenario.populate(&mut db, plans);
    let engine = ShardedDb::from_database(db);
    let rec = config.map(|c| {
        let r = HistoryRecorder::new(c);
        r.attach_sharded(&engine);
        r
    });
    let step = 5;
    let mut scripts = Vec::new();
    let mut last = 0;
    while last < scenario.horizon {
        let now = last + step;
        let mut ops = Vec::new();
        for (id, plan) in ids.iter().zip(plans) {
            for &(at, v) in &plan.updates {
                if at > last && at <= now {
                    ops.push(UpdateOp::Motion { id: *id, velocity: v });
                }
            }
        }
        scripts.push(ops);
        last = now;
    }
    let t0 = Instant::now();
    for ops in &scripts {
        engine.advance_clock(step);
        if !ops.is_empty() {
            engine.apply_updates(ops).expect("planned updates are valid");
        }
    }
    let elapsed_secs = t0.elapsed().as_secs_f64().max(1e-9);
    let records = rec.map_or(0, |r| {
        r.with(|s| s.object_ids().iter().map(|id| s.object(*id).unwrap().retained() + s.object(*id).unwrap().pruned()).sum())
    });
    Overhead { elapsed_secs, records }
}

/// Runs the history-warehouse experiment.
pub fn run(scale: Scale) -> Table {
    let mut table = Table::new(
        "E17",
        "trajectory history warehouse: oracle-exact alibi + aggregates across all three \
         engines, then epoch-boundary recording overhead and fold throughput",
        &[
            "phase", "engine", "fleet", "config", "objects", "steps", "checks",
            "mismatches", "records", "time", "rec/s", "overhead",
        ],
    );

    // ---- Phase A: deterministic oracle gate (obs stays enabled). ----
    let seeds = scale.pick(2u64, 3);
    for engine in ["single", "sharded", "durable"] {
        for fleet in ["taxi", "delivery"] {
            for seed in 0..seeds {
                let (checks, records) = oracle_gate(fleet, SEED ^ seed, engine);
                table.row(vec![
                    "A oracle".into(),
                    engine.into(),
                    fleet.into(),
                    "unpruned".into(),
                    "8".into(),
                    (HORIZON / 10).to_string(),
                    checks.to_string(),
                    "0".into(),
                    records.to_string(),
                    "—".into(),
                    "—".into(),
                    "—".into(),
                ]);
            }
        }
    }

    // A tightly-pruned recorder must actually prune (`hist.pruned`
    // lands in the metrics block) yet still answer alibi queries
    // oracle-exactly over whatever it retained — both solver and oracle
    // read the same retained sample log, so pruning can narrow answers
    // but never split them apart.  The aggregate oracle is skipped
    // here by design: folded windows survive pruning precisely so they
    // can *not* be recomputed from the retained log.
    {
        let (engine, fleet) = build_world("taxi", SEED, "single");
        let rec = HistoryRecorder::new(HistoryConfig {
            segment_capacity: 4,
            max_segments: 2,
            window: WINDOW,
        });
        rec.attach_sharded(&engine.db);
        drive(&engine, &fleet);
        let (pruned, retained) = rec.with(|store| {
            let pruned: u64 =
                store.object_ids().iter().map(|id| store.object(*id).unwrap().pruned()).sum();
            assert!(pruned > 0, "tight retention must prune the seeded taxi stream");
            let (a, b) = (fleet.ids[0], fleet.ids[1]);
            let range = Interval::new(HORIZON / 2, HORIZON);
            assert_eq!(
                store.alibi(a, b, 2.5, range),
                store.alibi_by_oracle(a, b, 2.5, range),
                "pruned store: alibi diverged from the oracle"
            );
            let retained: u64 =
                store.object_ids().iter().map(|id| store.object(*id).unwrap().retained()).sum();
            (pruned, retained)
        });
        table.row(vec![
            "A retention".into(),
            "single".into(),
            "taxi".into(),
            format!("pruned:4x2 (-{pruned})"),
            "8".into(),
            (HORIZON / 10).to_string(),
            "1".into(),
            "0".into(),
            retained.to_string(),
            "—".into(),
            "—".into(),
            "—".into(),
        ]);
    }

    // ---- Phase B: measured recording overhead (obs disabled). ----
    let objects = scale.pick(2_000usize, 50_000);
    let mut scenario = CarScenario::fleet(SEED ^ 0xB, objects);
    scenario.horizon = scale.pick(100, 200);
    scenario.mean_update_gap = 25.0;
    let plans = scenario.generate();
    let steps = scenario.horizon / 5;
    most_obs::set_enabled(false);
    let base = run_stream(&scenario, &plans, None);
    let configs = [
        ("unpruned", HistoryConfig::unpruned(WINDOW)),
        ("pruned:32x4", HistoryConfig { segment_capacity: 32, max_segments: 4, window: WINDOW }),
    ];
    let mut recorded = Vec::new();
    for (name, config) in configs {
        let out = run_stream(&scenario, &plans, Some(config));
        recorded.push(out.records);
        table.row(vec![
            "B overhead".into(),
            "single".into(),
            "cars".into(),
            name.into(),
            objects.to_string(),
            steps.to_string(),
            "—".into(),
            "—".into(),
            out.records.to_string(),
            fmt_duration(std::time::Duration::from_secs_f64(out.elapsed_secs)),
            fmt_f64(out.records as f64 / out.elapsed_secs),
            format!("{:.2}x", out.elapsed_secs / base.elapsed_secs),
        ]);
    }
    most_obs::set_enabled(true);
    assert_eq!(
        recorded[0], recorded[1],
        "retention prunes storage, never the record stream"
    );

    table.note(
        "Phase A replays seeded taxi-shift and delivery-route fleets through a one-shard \
         engine, a 4-shard engine and a WAL-backed one-shard engine with a history \
         recorder attached at the epoch-publish boundary; every alibi answer is \
         byte-compared to the brute-force time-stepping oracle (including the zero \
         speed-bound and parked-object degeneracies the shift/dwell patterns produce), \
         and the incrementally-maintained windowed aggregates are byte-compared to a \
         full recompute of the retained sample log — all asserted in-run, so this is \
         the CI smoke gate.  Phase B applies one seeded car-fleet batch stream to twin \
         one-shard engines with and without a recorder: the wall-clock ratio is the \
         recording overhead, and rec/s is the sustained fold rate (segment append + \
         aggregate maintenance).  The pruned config must consume exactly the record \
         stream the unpruned one does — retention bounds memory, not recording.  \
         Timings are wall-clock and vary; counts are seeded and exact.",
    );
    table.mark_measured(&["time", "rec/s", "overhead"]);
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_passes_its_own_gates() {
        // `run` asserts alibi/aggregate oracle equality across all three
        // engines internally; reaching the table at all means the gates
        // held.
        let t = run(Scale::Quick);
        // 12 Phase A rows (3 engines × 2 fleets × 2 seeds) + 1 retention
        // row + 2 Phase B rows.
        assert_eq!(t.rows.len(), 15);
        assert!(t.metrics.is_empty(), "metrics attach in the harness wrapper");
    }
}
