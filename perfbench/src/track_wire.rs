//! `track_wire`: served fleet tracking over a durable single engine.
//!
//! One closed loop on two connections.  Per tick the driver sends
//! `AdvanceClock(1)` then an `Update` of [`BATCH`] sensor reports; the
//! subscriber, holding every continuous query, fences the tick with a
//! `Ping` (its outbox is FIFO, so the reply proves it holds every delta
//! of the tick) and then sends a round of [`READS`] instantaneous reads.
//! Small batches against a large world make the per-batch O(n) layers
//! dominate: epoch clone, history fold, refresh, publish and fan-out,
//! plus WAL syncs and checkpoint stalls.

use crate::layers::{self, Traced};
use crate::pipeline::{decode, Composed, OnPath};
use crate::stats::{peak_rss_mb, ratio};
use crate::trace::Tracer;
use crate::walcheck;
use crate::world::{World, READS};
use crate::{ms, progress, setup_seconds, timed, Report, ScratchDir};
use most_core::wal::{DurableDb, WalConfig, WalRecord};
use most_core::Database;
use most_dbms::value::Value;
use most_ftl::answer::Answer;
use most_ftl::Query;
use most_server::protocol::{encode_frame, CqDelta, Request};
use most_server::{Client, Server, ServerConfig};
use most_testkit::ser::to_json_string;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Reports per `Update` frame.
pub const BATCH: usize = 64;
/// WAL flush policy: `sync_all` after every append, checkpoint after
/// every 6 records (3 ticks).  One tick in three pays a checkpoint, so
/// the p80 reads a typical checkpoint tick and the p50 a plain one,
/// neither the edge between the two.
pub fn wal_config() -> WalConfig {
    WalConfig {
        sync: true,
        checkpoint_every: 6,
        ..WalConfig::default()
    }
}
/// Ticks of the traced run.
const TRACE_TICKS: u64 = 40;

struct Served {
    server: Server,
    durable: Arc<DurableDb>,
    driver: Client,
    sub: Client,
    cqs: Vec<u64>,
    baselines: Vec<Vec<Vec<Value>>>,
    dir: ScratchDir,
}

fn serve(w: &World, tag: &str) -> Served {
    let dir = ScratchDir::new(tag);
    let durable =
        Arc::new(DurableDb::create(&dir.0, w.database(false), wal_config()).expect("create WAL"));
    let cfg = ServerConfig {
        workers: 2,
        outbox: 1 << 16,
        ..ServerConfig::default()
    };
    let server = Server::bind_durable("127.0.0.1:0", Arc::clone(&durable), cfg)
        .expect("bind an ephemeral port");
    let mut driver = Client::connect(server.local_addr()).expect("driver connects");
    let cqs: Vec<u64> = w
        .cqs
        .iter()
        .map(|q| driver.register(q).expect("register over the wire"))
        .collect();
    let mut sub = Client::connect(server.local_addr()).expect("subscriber connects");
    let baselines: Vec<_> = cqs
        .iter()
        .map(|&cq| sub.subscribe(cq).expect("subscribe").1)
        .collect();
    Served {
        server,
        durable,
        driver,
        sub,
        cqs,
        baselines,
        dir,
    }
}

/// One served tick; `Err` on any client or server error.
fn wire_tick(s: &mut Served, ops: &[most_core::UpdateOp]) -> Result<(), String> {
    s.driver.advance(1).map_err(|e| e.to_string())?;
    s.driver.update(ops).map_err(|e| e.to_string())?;
    s.sub.ping().map_err(|e| e.to_string())
}

/// The subscriber's reads after a tick; `Err` on any client or server
/// error.
fn read_round(s: &mut Served, w: &World) -> Result<Vec<Answer>, String> {
    w.cqs[..READS]
        .iter()
        .map(|q| {
            s.sub
                .instantaneous(q)
                .map(|(_, a)| a)
                .map_err(|e| e.to_string())
        })
        .collect()
}

pub fn run(w: &World, seconds: f64) -> Report {
    let mut r = Report::default();
    let (mut s, first_setup) = timed(|| serve(w, "track_wire"));
    progress("set up");
    let wal0 = most_obs::counter_value("wal.bytes");
    let (mut write_ms, mut read_ms) = (Vec::new(), Vec::new());
    let mut reads: Vec<Option<Vec<Answer>>> = Vec::new();
    let mut errors = 0u64;
    let mut t = 0u64;
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    while Instant::now() < deadline {
        t += 1;
        let ops = w.tracking_batch(t, BATCH);
        let t0 = Instant::now();
        match wire_tick(&mut s, &ops) {
            Ok(()) => write_ms.push(ms(t0)),
            Err(_) => errors += 1,
        }
        let t1 = Instant::now();
        match read_round(&mut s, w) {
            Ok(answers) => {
                read_ms.push(ms(t1));
                reads.push(Some(answers));
            }
            Err(_) => {
                errors += 1;
                reads.push(None);
            }
        }
    }
    let elapsed = start.elapsed().as_secs_f64();
    let wal_bytes = most_obs::counter_value("wal.bytes") - wal0;
    let deltas = s.sub.take_deltas();
    let lagged = s.sub.lagged();
    let dropped = s.server.stats().dropped;
    let peak_rss = peak_rss_mb();

    r.latency("write_ms", &write_ms);
    r.latency("read_ms", &read_ms);
    let ops = t * BATCH as u64;
    r.metric("update_ops_per_s", ratio(ops as f64, elapsed), "1/s");
    r.note(format!(
        "{t} ticks of {BATCH} ops; WAL sync after every append, checkpoint every {} records; \
         wal_bytes_per_op {:.1}",
        wal_config().checkpoint_every,
        wal_bytes as f64 / ops as f64
    ));

    progress(&format!("{t} ticks measured"));
    // Everything below is outside the timed window.
    let Served {
        server,
        durable,
        driver,
        sub,
        cqs,
        baselines,
        dir,
    } = s;
    drop((driver, sub));
    server.shutdown();
    drop(durable);
    r.attempted = ops + 2 * t;
    r.check("ticks and read rounds answered", errors, 2 * t);
    r.check("deltas lagged or dropped", lagged + dropped, 0);
    let image = walcheck::read(&dir.0);
    let horizon = image.as_ref().map_or(0, |i| i.horizon);
    let oracle = Oracle::replay(w, &cqs, t, &reads, horizon);
    progress("oracle replayed");
    r.check(
        "baselines equal the oracle",
        u64::from(baselines != oracle.baselines),
        1,
    );
    r.check(
        "deltas byte-identical to the oracle",
        mismatches(&deltas, &oracle.deltas),
        oracle.deltas.len() as u64,
    );
    r.check(
        "reads equal the oracle",
        oracle.read_mismatches,
        READS as u64 * t,
    );
    let durable_bad = match &image {
        Ok(image) => walcheck::verify(image, &oracle.records, &oracle.at_horizon),
        Err(_) => 1,
    };
    r.check(
        "WAL holds the oracle's checkpoint and every acknowledged record",
        durable_bad,
        1,
    );
    r.note(format!("WAL checkpoint horizon: record {horizon}"));
    drop(dir);
    let setup_s = setup_seconds(first_setup, || serve(w, "track_wire-setup"));
    r.metric("setup_s", setup_s, "s");
    r.metric("peak_rss_mb", peak_rss, "MB");
    r.note(format!(
        "failed_ops_frac {:.6}",
        r.failed as f64 / r.attempted.max(1) as f64
    ));
    r
}

/// Delta frames that differ from the oracle's (compared as JSON), plus
/// any missing or extra frames.
pub fn mismatches(got: &[CqDelta], want: &[CqDelta]) -> u64 {
    let differ = got
        .iter()
        .zip(want)
        .filter(|(g, w)| to_json_string(*g).ok() != to_json_string(*w).ok())
        .count();
    (differ + got.len().abs_diff(want.len())) as u64
}

/// The log records the served run appends: the registrations, then an
/// advance and a batch per tick.
fn records(w: &World, ticks: u64) -> Vec<WalRecord> {
    let mut out: Vec<WalRecord> = w
        .cqs
        .iter()
        .map(|q| WalRecord::Register { query: q.clone() })
        .collect();
    for t in 1..=ticks {
        out.push(WalRecord::Advance { ticks: 1 });
        out.push(WalRecord::Batch {
            ops: w.tracking_batch(t, BATCH),
        });
    }
    out
}

/// A single-threaded replay of the same records on a plain `Database`,
/// through `apply_record`, the one definition of replay semantics.
struct Oracle {
    records: Vec<WalRecord>,
    baselines: Vec<Vec<Vec<Value>>>,
    deltas: Vec<CqDelta>,
    read_mismatches: u64,
    /// The oracle's state after the first `horizon` records.
    at_horizon: String,
}

impl Oracle {
    fn replay(
        w: &World,
        cqs: &[u64],
        ticks: u64,
        reads: &[Option<Vec<Answer>>],
        horizon: u64,
    ) -> Oracle {
        let records = records(w, ticks);
        let mut db = w.database(false);
        let mut at_horizon = if horizon == 0 {
            walcheck::state(&db)
        } else {
            String::new()
        };
        let mut last: BTreeMap<u64, Vec<Vec<Value>>> = BTreeMap::new();
        let (mut baselines, mut deltas, mut read_mismatches) = (Vec::new(), Vec::new(), 0);
        for (i, record) in records.iter().enumerate() {
            let _ = most_core::wal::apply_record(&mut db, record);
            let seq = i + 1;
            if seq == cqs.len() {
                for &cq in cqs {
                    last.insert(cq, db.continuous_display(cq, db.now()).unwrap_or_default());
                }
                baselines = cqs.iter().map(|cq| last[cq].clone()).collect();
            } else if seq > cqs.len() {
                step(&db, &mut last, &mut deltas);
                if matches!(record, WalRecord::Batch { .. }) {
                    let t = (seq - cqs.len()) / 2;
                    let got = reads.get(t - 1).cloned().flatten();
                    for (k, text) in w.cqs[..READS].iter().enumerate() {
                        let q = Query::parse(text).expect("read parses");
                        let want = db
                            .instantaneous_readonly(&q)
                            .ok()
                            .map(|a| to_json_string(&a).ok());
                        let got = got.as_ref().map(|g| to_json_string(&g[k]).ok());
                        read_mismatches += u64::from(got != want);
                    }
                }
            }
            if seq as u64 == horizon {
                at_horizon = walcheck::state(&db);
            }
        }
        Oracle {
            records,
            baselines,
            deltas,
            read_mismatches,
            at_horizon,
        }
    }
}

/// The displays that changed since `last`, in cq order: what the server
/// pushes after each mutation.
fn step(db: &Database, last: &mut BTreeMap<u64, Vec<Vec<Value>>>, out: &mut Vec<CqDelta>) {
    let now = db.now();
    for (&cq, prev) in last.iter_mut() {
        let rows = db.continuous_display(cq, now).expect("display");
        let (added, removed) = most_core::display_delta(prev, &rows);
        if !(added.is_empty() && removed.is_empty()) {
            out.push(CqDelta {
                cq,
                tick: now,
                added,
                removed,
            });
            *prev = rows;
        }
    }
}

/// One tick through the composed pipeline, from the same frames the
/// wire carries; returns its milliseconds.
fn composed_tick(c: &mut Composed, tr: &Tracer, w: &World, t: u64) -> f64 {
    let advance = encode_frame(&Request::AdvanceClock { ticks: 1 });
    let update = encode_frame(&Request::Update {
        ops: w.tracking_batch(t, BATCH),
    });
    let reads: Vec<String> = w.cqs[..READS]
        .iter()
        .map(|q| encode_frame(&Request::Instantaneous { query: q.clone() }))
        .collect();
    let t0 = Instant::now();
    let Request::AdvanceClock { ticks } = decode(tr, "protocol.decode", &advance) else {
        unreachable!("encoded as AdvanceClock")
    };
    c.advance(ticks);
    let Request::Update { ops } = decode(tr, "protocol.decode_update", &update) else {
        unreachable!("encoded as Update")
    };
    c.update(ops);
    for read in &reads {
        std::hint::black_box(c.read_frame(read));
    }
    ms(t0)
}

pub fn traced(w: &World) -> Report {
    let mut r = Report {
        attempted: TRACE_TICKS * (BATCH as u64 + 2),
        ..Report::default()
    };
    let on = OnPath {
        wire: true,
        wal: true,
        subscriber: true,
    };
    let twin = layers::twin(
        TRACE_TICKS,
        |tr| Composed::new(w, 1, on, wal_config(), tr),
        |c, tr, t| composed_tick(c, tr, w, t),
        |c, t| {
            let ops = w.tracking_batch(t, BATCH);
            c.probe(&ops, &encode_frame(&Request::Update { ops: ops.clone() }));
        },
    );
    progress("composed passes done");

    // The same ticks over the wire, for the residual the pipeline leaves.
    // The closed loop's next tick is due when the last one's read returns;
    // its lag is the generator's own work in between.
    let mut s = serve(w, "track_wire-wire");
    let (mut wire_ms, mut lag_ms, mut errors) = (Vec::new(), Vec::new(), 0);
    let mut due = Instant::now();
    for t in 1..=TRACE_TICKS {
        let ops = w.tracking_batch(t, BATCH);
        let t0 = Instant::now();
        lag_ms.push(t0.duration_since(due).as_secs_f64() * 1e3);
        let ok = wire_tick(&mut s, &ops).is_ok() && read_round(&mut s, w).is_ok();
        wire_ms.push(ms(t0));
        errors += u64::from(!ok);
        due = Instant::now();
    }
    let wire_deltas = s.sub.take_deltas();
    drop(s);
    r.check(
        "wire ticks and read rounds answered",
        errors,
        2 * TRACE_TICKS,
    );
    r.check(
        "wire deltas equal the composed pipeline's",
        mismatches(&wire_deltas, &twin.traced.deltas),
        twin.traced.deltas.len() as u64,
    );
    let update_frame_bytes = (1..=TRACE_TICKS)
        .map(|t| {
            encode_frame(&Request::Update {
                ops: w.tracking_batch(t, BATCH),
            })
            .len() as f64
        })
        .collect();
    let t = Traced {
        workload: "track_wire",
        seed: w.seed,
        ticks: TRACE_TICKS,
        update_ops: TRACE_TICKS * BATCH as u64,
        update_frame_bytes,
        wire_ms,
        lag_ms,
    };
    layers::report(&mut r, &twin, &t);
    r
}
