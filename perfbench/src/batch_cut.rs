//! `batch_cut`: bulk batches straight into the sharded engine, no wire.
//!
//! Per step: `advance_clock(1)`, then `apply_updates` of [`BATCH`] motion
//! reports, [`HOT`] of them in band 0, so one shard does most of the
//! work; the step ends when the cut is published.  Then a round of
//! [`READS`] scatter-gather reads on the new cut.  Large batches make
//! the per-op layers dominate (index maintenance, index-pruned refresh,
//! shard split and skew); the wire, the WAL and fan-out are bypassed.

use crate::layers::{self, Traced};
use crate::pipeline::{Composed, OnPath};
use crate::stats::{peak_rss_mb, ratio};
use crate::world::{World, READS, SHARDS};
use crate::{ms, progress, setup_seconds, timed, Report};
use most_core::sharded::ShardedDb;
use most_core::Database;
use most_ftl::answer::Answer;
use most_ftl::Query;
use most_hist::{HistoryConfig, HistoryRecorder};
use most_server::protocol::{encode_frame, Request};
use most_testkit::ser::to_json_string;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Motion reports per batch.
pub const BATCH: usize = 1000;
/// Share of each batch drawn from band 0.
pub const HOT: f64 = 0.8;
/// Steps of the traced run.
const TRACE_TICKS: u64 = 16;

struct Engine {
    db: ShardedDb,
    _hist: Arc<HistoryRecorder>,
    queries: Vec<Query>,
    cqs: Vec<u64>,
}

fn build(w: &World) -> Engine {
    let db = w.sharded();
    let queries: Vec<Query> = w
        .cqs
        .iter()
        .map(|q| Query::parse(q).expect("CQ parses"))
        .collect();
    let cqs = queries
        .iter()
        .map(|q| db.register_continuous(q).expect("CQ registers"))
        .collect();
    // Attached as the server attaches it.
    let hist = HistoryRecorder::new(HistoryConfig::default());
    hist.attach_sharded(&db);
    Engine {
        db,
        _hist: hist,
        queries,
        cqs,
    }
}

pub fn run(w: &World, seconds: f64) -> Report {
    let mut r = Report::default();
    let (e, first_setup) = timed(|| build(w));
    progress("set up");
    let (mut write_ms, mut read_ms) = (Vec::new(), Vec::new());
    let mut reads: Vec<Option<Answer>> = Vec::new();
    let mut errors = 0u64;
    let mut t = 0u64;
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    while Instant::now() < deadline {
        t += 1;
        let ops = w.skewed_batch(t, BATCH, HOT);
        let t0 = Instant::now();
        e.db.advance_clock(1);
        match e.db.apply_updates(&ops) {
            Ok(()) => write_ms.push(ms(t0)),
            Err(_) => errors += 1,
        }
        let t1 = Instant::now();
        let round: Vec<_> = e.queries[..READS]
            .iter()
            .map(|q| e.db.pin().instantaneous(q))
            .collect();
        read_ms.push(ms(t1));
        for answer in round {
            errors += u64::from(answer.is_err());
            reads.push(answer.ok());
        }
    }
    let elapsed = start.elapsed().as_secs_f64();
    progress(&format!("{t} steps measured"));
    let peak_rss = peak_rss_mb();
    r.latency("write_ms", &write_ms);
    r.latency("read_ms", &read_ms);
    let ops = t * BATCH as u64;
    r.metric("update_ops_per_s", ratio(ops as f64, elapsed), "1/s");
    r.note(format!(
        "{t} steps of {BATCH} motion ops, {:.0}% in band 0",
        HOT * 100.0
    ));

    // Oracle: the same steps on one plain database.
    let calls = (2 + READS as u64) * t;
    r.attempted = ops + calls;
    r.check("calls succeeded", errors, calls);
    let mut oracle = w.database(false);
    for q in &e.queries {
        oracle
            .register_continuous(q.clone())
            .expect("oracle registers");
    }
    let mut read_bad = 0;
    for step in 1..=t {
        oracle.advance_clock(1);
        oracle
            .apply_updates(&w.skewed_batch(step, BATCH, HOT))
            .expect("oracle batch");
        for (k, q) in e.queries[..READS].iter().enumerate() {
            let want = oracle
                .instantaneous_readonly(q)
                .ok()
                .map(|a| to_json_string(&a).ok());
            let i = (step - 1) as usize * READS + k;
            read_bad += u64::from(reads[i].as_ref().map(|a| to_json_string(a).ok()) != want);
        }
    }
    progress("oracle replayed");
    r.check("reads equal the oracle", read_bad, READS as u64 * t);
    let (answers_bad, objects_bad) = final_cut_matches(&e.db, &oracle, &e.cqs);
    r.check(
        "final CQ displays equal the oracle",
        answers_bad,
        3 * e.queries.len() as u64,
    );
    r.check(
        "final cut objects equal the oracle",
        objects_bad,
        oracle.len() as u64,
    );
    drop((e, oracle));
    r.metric("setup_s", setup_seconds(first_setup, || build(w)), "s");
    r.metric("peak_rss_mb", peak_rss, "MB");
    r.note(format!(
        "failed_ops_frac {:.6}",
        r.failed as f64 / r.attempted.max(1) as f64
    ));
    r
}

/// Compares the final cut with the oracle: each CQ's display now and
/// ahead (materialized horizons differ between shards that skipped a
/// refresh, displays inside the valid window do not), and every object
/// of the merged snapshot.
fn final_cut_matches(db: &ShardedDb, oracle: &Database, cqs: &[u64]) -> (u64, u64) {
    let cut = db.pin();
    let mut answers_bad = 0;
    for &cq in cqs {
        for ahead in [0, 60, 150] {
            let at = oracle.now() + ahead;
            answers_bad += u64::from(
                cut.continuous_display(cq, at).ok() != oracle.continuous_display(cq, at).ok(),
            );
        }
    }
    let objects_bad = oracle
        .object_ids()
        .into_iter()
        .filter(|&id| {
            let got = cut
                .object_shard(id)
                .and_then(|db| db.object(id).map(to_json_string));
            got.ok()
                != Some(
                    oracle
                        .object(id)
                        .map(to_json_string)
                        .expect("oracle object"),
                )
        })
        .count() as u64;
    (answers_bad, objects_bad)
}

pub fn traced(w: &World) -> Report {
    let mut r = Report {
        attempted: TRACE_TICKS * (BATCH as u64 + 2 + READS as u64),
        ..Report::default()
    };
    let on = OnPath {
        wire: false,
        wal: false,
        subscriber: false,
    };
    let twin = layers::twin(
        TRACE_TICKS,
        |tr| Composed::new(w, SHARDS, on, crate::track_wire::wal_config(), tr),
        |c, _, t| {
            let ops = w.skewed_batch(t, BATCH, HOT);
            let t0 = Instant::now();
            c.advance(1);
            c.update(ops);
            for query in &w.cqs[..READS] {
                let query = query.clone();
                std::hint::black_box(c.read(Request::Instantaneous { query }));
            }
            ms(t0)
        },
        |c, t| {
            let ops = w.skewed_batch(t, BATCH, HOT);
            c.probe(&ops, &encode_frame(&Request::Update { ops: ops.clone() }));
        },
    );
    progress("composed passes done");

    // The same steps on the sharded engine itself, which applies shards
    // in parallel: the residual, and the closed loop's lag (the
    // generator's own work between steps).
    let e = build(w);
    let (mut engine_ms, mut lag_ms, mut errors) = (Vec::new(), Vec::new(), 0);
    let mut due = Instant::now();
    for t in 1..=TRACE_TICKS {
        let ops = w.skewed_batch(t, BATCH, HOT);
        let t0 = Instant::now();
        lag_ms.push(t0.duration_since(due).as_secs_f64() * 1e3);
        e.db.advance_clock(1);
        errors += u64::from(e.db.apply_updates(&ops).is_err());
        for q in &e.queries[..READS] {
            errors += u64::from(e.db.pin().instantaneous(q).is_err());
        }
        engine_ms.push(ms(t0));
        due = Instant::now();
    }
    drop(e);
    r.check(
        "engine calls succeeded",
        errors,
        TRACE_TICKS * (1 + READS as u64),
    );
    let update_frame_bytes = (1..=TRACE_TICKS)
        .map(|t| {
            encode_frame(&Request::Update {
                ops: w.skewed_batch(t, BATCH, HOT),
            })
            .len() as f64
        })
        .collect();
    let t = Traced {
        workload: "batch_cut",
        seed: w.seed,
        ticks: TRACE_TICKS,
        update_ops: TRACE_TICKS * BATCH as u64,
        update_frame_bytes,
        wire_ms: engine_ms,
        lag_ms,
    };
    layers::report(&mut r, &twin, &t);
    r
}
