//! A deterministic closed-loop load generator with a single-threaded
//! oracle.
//!
//! Three harnesses, used by experiments E12 and E15:
//!
//! * [`run_correctness`] — one driver client performs a seeded, scripted
//!   mutation sequence while N passive subscriber clients each hold a
//!   subscription to every continuous query.  Because every mutation and
//!   its delta fan-out serialise through the server's mutation-order lock,
//!   each subscriber must receive *exactly* the delta sequence a
//!   single-threaded replay of the same script against a plain
//!   [`Database`] produces — byte-identical frames, zero losses.  The
//!   fence is the wire protocol itself: the driver's final reply proves
//!   all deltas were enqueued, and each subscriber's ping reply proves its
//!   own outbox (FIFO) was drained past them.
//! * [`run_throughput`] — N closed-loop reader clients each issue a fixed
//!   number of instantaneous queries while a driver applies update
//!   batches; wall-clock throughput and client-observed latency are
//!   measured, and afterwards a fresh client's answers are compared
//!   byte-for-byte against an oracle replay (reads must not corrupt
//!   anything).
//! * [`run_crash_recovery`] — a *durable* server runs the first half of
//!   the script, crashes mid-run (its WAL even gains a torn tail), is
//!   recovered with [`DurableDb::open`], and a second server finishes the
//!   script.  The final state must match an oracle that never crashed,
//!   byte for byte, and the recovered engine's epoch accounting must
//!   still conserve (`created == retired + live`).
//!
//! Every server runs over a one-shard [`ShardedDb`].
//!
//! Everything is a pure function of the spec (object placement, region
//! grid, query texts, per-tick update batches), so same-seed runs are
//! reproducible end to end.

use crate::client::Client;
use crate::protocol::CqDelta;
use crate::server::{Server, ServerConfig};
use most_core::wal::{DurableDb, WalConfig};
use most_core::{Database, ShardedDb, UpdateOp};
use most_dbms::value::Value;
use most_ftl::Query;
use most_spatial::{Point, Polygon, Velocity};
use most_testkit::rng::Rng;
use most_testkit::ser::to_json_string;
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Workload shape shared by both harnesses.
#[derive(Debug, Clone, Copy)]
pub struct LoadSpec {
    /// Passive subscriber clients (correctness phase).
    pub subscribers: usize,
    /// Continuous queries registered (and subscribed to).
    pub queries: usize,
    /// Moving objects.
    pub objects: usize,
    /// Side length of the square world.
    pub area: f64,
    /// Scripted ticks: each tick advances the clock by one and applies one
    /// update batch.
    pub ticks: u64,
    /// Updates per batch.
    pub batch: usize,
    /// Workload seed.
    pub seed: u64,
}

impl LoadSpec {
    /// A small default workload.
    pub fn small(seed: u64) -> Self {
        LoadSpec {
            subscribers: 2,
            queries: 4,
            objects: 40,
            area: 400.0,
            ticks: 6,
            batch: 8,
            seed,
        }
    }
}

/// Outcome of the correctness harness.  `mismatches == 0`, `dropped == 0`
/// and `lagged == 0` are the assertions CI gates on.
#[derive(Debug, Clone)]
pub struct CorrectnessOutcome {
    /// Client-side request count across all clients.
    pub requests: u64,
    /// Delta frames the oracle produced (per subscriber).
    pub oracle_deltas: usize,
    /// Delta frames each subscriber received (index = subscriber).
    pub received_deltas: Vec<usize>,
    /// Subscriber delta frames differing from the oracle sequence
    /// (byte-compared as JSON).
    pub mismatches: usize,
    /// Server-side dropped-frame count.
    pub dropped: u64,
    /// Max cumulative lag reported to any subscriber.
    pub lagged: u64,
    /// Wall-clock time for the scripted phase.
    pub elapsed: Duration,
}

/// Builds the seeded world: objects on the square with seeded positions,
/// velocities and a PRICE attribute, plus a grid of named regions
/// `R0..R{queries-1}`.
pub fn build_world(spec: &LoadSpec) -> Database {
    let mut rng = Rng::seed_from_u64(spec.seed);
    let mut db = Database::new(100_000);
    for _ in 0..spec.objects {
        let x = rng.f64() * spec.area;
        let y = rng.f64() * spec.area;
        let vx = rng.f64() * 4.0 - 2.0;
        let vy = rng.f64() * 4.0 - 2.0;
        let id = db.insert_moving_object("cars", Point::new(x, y), Velocity::new(vx, vy));
        let price = (40.0 + rng.f64() * 120.0).round();
        db.set_static(id, "PRICE", Value::from(price)).expect("open class admits PRICE");
    }
    // A horizontal band per query, tiling the world so displays are
    // neither empty nor everything.
    let bands = spec.queries.max(1) as f64;
    for k in 0..spec.queries {
        let y0 = spec.area * k as f64 / bands;
        let y1 = spec.area * (k as f64 + 1.0) / bands;
        db.add_region(format!("R{k}"), Polygon::rectangle(0.0, y0, spec.area, y1));
    }
    db
}

/// The continuous-query texts, mixing spatial, attribute, and temporal
/// shapes.
pub fn query_texts(spec: &LoadSpec) -> Vec<String> {
    (0..spec.queries)
        .map(|k| match k % 3 {
            0 => format!("RETRIEVE o WHERE INSIDE(o, R{k})"),
            1 => format!("RETRIEVE o WHERE o.PRICE <= {}", 70 + 20 * (k % 4)),
            _ => format!("RETRIEVE o WHERE Eventually within 40 INSIDE(o, R{k})"),
        })
        .collect()
}

/// The scripted update batch for tick `t` — a pure function of
/// `(spec.seed, t)`: odd ticks re-aim motion vectors, even ticks re-price.
pub fn script_ops(object_ids: &[u64], spec: &LoadSpec, t: u64) -> Vec<UpdateOp> {
    let n = object_ids.len() as u64;
    (0..spec.batch as u64)
        .map(|i| {
            let id = object_ids[((spec.seed ^ (t * 7 + i * 13)) % n) as usize];
            if t % 2 == 1 {
                let vx = ((t * 31 + i * 17) % 100) as f64 / 25.0 - 2.0;
                let vy = ((t * 19 + i * 23) % 100) as f64 / 25.0 - 2.0;
                UpdateOp::Motion { id, velocity: Velocity::new(vx, vy) }
            } else {
                let price = (40 + (t * 11 + i * 29) % 120) as f64;
                UpdateOp::Static { id, attr: "PRICE".into(), value: Value::from(price) }
            }
        })
        .collect()
}

/// Replays one oracle step: the displays that changed since `last`, in
/// ascending cq order — exactly what the server pushes per mutation.
fn oracle_step(
    db: &Database,
    cq_ids: &[u64],
    last: &mut BTreeMap<u64, Vec<Vec<Value>>>,
    out: &mut Vec<CqDelta>,
) {
    let now = db.now();
    for &cq in cq_ids {
        let rows = db.continuous_display(cq, now).expect("oracle cq exists");
        let prev = last.get(&cq).expect("baseline recorded at subscribe");
        let (added, removed) = most_core::display_delta(prev, &rows);
        if added.is_empty() && removed.is_empty() {
            continue;
        }
        out.push(CqDelta { cq, tick: now, added, removed });
        last.insert(cq, rows);
    }
}

/// Runs the correctness harness against a fresh server on an ephemeral
/// port.  Panics on any client/server failure; disagreement with the
/// oracle is *reported*, not panicked, so the caller can assert with
/// context.
pub fn run_correctness(spec: &LoadSpec) -> CorrectnessOutcome {
    let db = build_world(spec);
    let mut oracle = db.clone();
    let cfg = ServerConfig {
        // Every client gets a worker so none waits in the pending queue.
        workers: spec.subscribers + 2,
        outbox: 1 << 16,
        ..ServerConfig::default()
    };
    let shared = Arc::new(ShardedDb::from_database(db));
    let server =
        Server::bind("127.0.0.1:0", Arc::clone(&shared), cfg).expect("bind ephemeral port");
    let addr: SocketAddr = server.local_addr();
    let mut requests = 0u64;

    // The driver registers the continuous queries over the wire; the
    // oracle registers the same texts in the same order, so ids match.
    let mut driver = Client::connect(addr).expect("driver connects");
    let texts = query_texts(spec);
    let mut cq_ids = Vec::with_capacity(texts.len());
    for q in &texts {
        cq_ids.push(driver.register(q).expect("register over the wire"));
        requests += 1;
    }
    let oracle_ids: Vec<u64> = texts
        .iter()
        .map(|q| {
            oracle
                .register_continuous(Query::parse(q).expect("query parses"))
                .expect("oracle registers")
        })
        .collect();
    assert_eq!(cq_ids, oracle_ids, "wire and oracle assign the same cq ids");

    // Subscribers connect sequentially and subscribe to every query; the
    // baselines must equal the oracle's current displays.
    let mut oracle_last: BTreeMap<u64, Vec<Vec<Value>>> = BTreeMap::new();
    for &cq in &cq_ids {
        let rows = oracle.continuous_display(cq, oracle.now()).expect("oracle display");
        oracle_last.insert(cq, rows);
    }
    let mut subscribers: Vec<Client> = Vec::with_capacity(spec.subscribers);
    for _ in 0..spec.subscribers {
        let mut c = Client::connect(addr).expect("subscriber connects");
        for &cq in &cq_ids {
            let (_tick, rows) = c.subscribe(cq).expect("subscribe");
            requests += 1;
            assert_eq!(
                rows, oracle_last[&cq],
                "subscription baseline equals the oracle display"
            );
        }
        subscribers.push(c);
    }

    // The scripted phase: advance + batch per tick, mirrored on the
    // oracle.  Deltas may arise from both the clock advance (displays
    // change with time, no update needed — the MOST hallmark) and the
    // batch refresh.
    let object_ids = oracle.object_ids();
    let mut oracle_deltas: Vec<CqDelta> = Vec::new();
    let start = Instant::now();
    for t in 1..=spec.ticks {
        driver.advance(1).expect("advance clock");
        requests += 1;
        oracle.advance_clock(1);
        oracle_step(&oracle, &cq_ids, &mut oracle_last, &mut oracle_deltas);
        let ops = script_ops(&object_ids, spec, t);
        driver.update(&ops).expect("apply update batch");
        requests += 1;
        oracle.apply_updates(&ops).expect("oracle applies batch");
        oracle_step(&oracle, &cq_ids, &mut oracle_last, &mut oracle_deltas);
    }
    let elapsed = start.elapsed();

    // Fence + compare: the driver's last reply proves every delta was
    // enqueued; each subscriber's ping reply proves its FIFO outbox
    // drained past them.
    let mut received_deltas = Vec::with_capacity(subscribers.len());
    let mut mismatches = 0usize;
    let mut lagged = 0u64;
    for c in &mut subscribers {
        c.ping().expect("fence ping");
        requests += 1;
        let got = c.take_deltas();
        received_deltas.push(got.len());
        lagged = lagged.max(c.lagged());
        for (g, want) in got.iter().zip(oracle_deltas.iter()) {
            let g_json = to_json_string(g).expect("delta encodes");
            let w_json = to_json_string(want).expect("delta encodes");
            if g_json != w_json {
                mismatches += 1;
            }
        }
        mismatches += got.len().abs_diff(oracle_deltas.len());
    }

    // Epoch hygiene at quiescence: every mutation published exactly one
    // epoch, nothing stayed buffered, and with no request in flight only
    // the published snapshot is alive (`created == retired + live`).
    for st in shared.shard_stats() {
        assert_eq!(st.created, st.retired + st.live, "epoch accounting leak: {st:?}");
        assert_eq!(st.live, 1, "server retained old epochs: {st:?}");
        assert_eq!(st.pending_batches, 0, "server left a batch buffered: {st:?}");
    }

    let dropped = server.stats().dropped;
    drop(subscribers);
    drop(driver);
    server.shutdown();
    CorrectnessOutcome {
        requests,
        oracle_deltas: oracle_deltas.len(),
        received_deltas,
        mismatches,
        dropped,
        lagged,
        elapsed,
    }
}

/// Throughput harness shape.
#[derive(Debug, Clone, Copy)]
pub struct ThroughputSpec {
    /// Closed-loop reader clients.
    pub readers: usize,
    /// Instantaneous queries each reader issues.
    pub requests_per_reader: usize,
    /// Update batches the driver applies concurrently.
    pub update_batches: u64,
    /// Workload shape (objects/queries/area/batch/seed reused).
    pub load: LoadSpec,
}

/// Outcome of the throughput harness.
#[derive(Debug, Clone)]
pub struct ThroughputOutcome {
    /// Total requests completed (reads + driver traffic).
    pub requests: u64,
    /// Wall-clock time for the concurrent phase.
    pub elapsed: Duration,
    /// Median client-observed request latency.
    pub p50: Duration,
    /// 95th-percentile client-observed request latency.
    pub p95: Duration,
    /// Whether the post-run state matched the oracle replay byte for byte.
    pub verified: bool,
}

/// Runs the throughput harness: concurrent readers + one mutating driver,
/// then a byte-identical state check against an oracle replay.
pub fn run_throughput(spec: &ThroughputSpec) -> ThroughputOutcome {
    let db = build_world(&spec.load);
    let mut oracle = db.clone();
    let cfg = ServerConfig {
        workers: spec.readers + 2,
        outbox: 1 << 16,
        ..ServerConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", Arc::new(ShardedDb::from_database(db)), cfg)
        .expect("bind ephemeral port");
    let addr = server.local_addr();
    let texts = query_texts(&spec.load);
    let object_ids = oracle.object_ids();

    let start = Instant::now();
    let mut latencies: Vec<u64> = Vec::new();
    let mut driver_requests = 0u64;
    std::thread::scope(|scope| {
        let mut readers = Vec::with_capacity(spec.readers);
        for r in 0..spec.readers {
            let texts = texts.clone();
            readers.push(scope.spawn(move || {
                let mut c = Client::connect(addr).expect("reader connects");
                let mut lats = Vec::with_capacity(spec.requests_per_reader);
                for i in 0..spec.requests_per_reader {
                    let q = &texts[(r + i) % texts.len()];
                    let t0 = Instant::now();
                    c.instantaneous(q).expect("instantaneous read");
                    lats.push(t0.elapsed().as_nanos() as u64);
                }
                lats
            }));
        }
        // The driver mutates from this thread while readers run.
        let mut driver = Client::connect(addr).expect("driver connects");
        for t in 1..=spec.update_batches {
            driver.advance(1).expect("advance clock");
            let ops = script_ops(&object_ids, &spec.load, t);
            driver.update(&ops).expect("apply update batch");
            driver_requests += 2;
        }
        for r in readers {
            latencies.extend(r.join().expect("reader thread"));
        }
    });
    let elapsed = start.elapsed();

    // Oracle replay of the driver's (deterministic) mutations; reads must
    // not have perturbed anything, so a fresh client's answers match byte
    // for byte.
    for t in 1..=spec.update_batches {
        oracle.advance_clock(1);
        oracle.apply_updates(&script_ops(&object_ids, &spec.load, t)).expect("oracle batch");
    }
    let mut check = Client::connect(addr).expect("check client connects");
    let mut verified = true;
    for q in &texts {
        let (_, answer) = check.instantaneous(q).expect("check read");
        let want = oracle
            .instantaneous_readonly(&Query::parse(q).expect("query parses"))
            .expect("oracle read");
        let got_json = to_json_string(&answer).expect("answer encodes");
        let want_json = to_json_string(&want).expect("answer encodes");
        if got_json != want_json {
            verified = false;
        }
    }

    latencies.sort_unstable();
    let pick = |p: f64| -> Duration {
        if latencies.is_empty() {
            return Duration::ZERO;
        }
        let idx = ((latencies.len() - 1) as f64 * p).round() as usize;
        Duration::from_nanos(latencies[idx])
    };
    let outcome = ThroughputOutcome {
        requests: latencies.len() as u64 + driver_requests + texts.len() as u64,
        elapsed,
        p50: pick(0.50),
        p95: pick(0.95),
        verified,
    };
    drop(check);
    server.shutdown();
    outcome
}

/// Outcome of the crash-recovery harness.  `verified` and
/// `epoch_conserved` are the assertions CI gates on.
#[derive(Debug, Clone)]
pub struct CrashRecoveryOutcome {
    /// Client-side request count across both server incarnations.
    pub requests: u64,
    /// WAL records recovery replayed after the crash.
    pub records_replayed: u64,
    /// Whether recovery detected (and stopped at) the torn tail.
    pub truncated_tail: bool,
    /// Whether every post-run answer and the database fingerprint matched
    /// the never-crashed oracle byte for byte.
    pub verified: bool,
    /// Whether the recovered engine's epoch accounting conserved at
    /// quiescence (`created == retired + live`, one live snapshot).
    pub epoch_conserved: bool,
    /// Wall-clock time for both scripted phases (excludes recovery).
    pub elapsed: Duration,
}

/// Runs the scripted workload against a durable server, crashes it
/// halfway (leaving a torn frame on the WAL tail), recovers into a second
/// server, finishes the script, and verifies the final state against an
/// oracle that never crashed.  `dir` is the WAL directory; the caller
/// picks a unique path per invocation.
pub fn run_crash_recovery(spec: &LoadSpec, dir: &Path) -> CrashRecoveryOutcome {
    let _ = std::fs::remove_dir_all(dir);
    let db = build_world(spec);
    let mut oracle = db.clone();
    let cfg = ServerConfig { workers: 2, outbox: 1 << 16, ..ServerConfig::default() };
    let durable = Arc::new(
        DurableDb::create(dir, db, WalConfig::default()).expect("create WAL directory"),
    );
    let server = Server::bind_durable("127.0.0.1:0", Arc::clone(&durable), cfg.clone())
        .expect("bind ephemeral port");
    let mut requests = 0u64;

    let mut driver = Client::connect(server.local_addr()).expect("driver connects");
    let texts = query_texts(spec);
    for q in &texts {
        driver.register(q).expect("register over the wire");
        oracle
            .register_continuous(Query::parse(q).expect("query parses"))
            .expect("oracle registers");
        requests += 1;
    }

    let object_ids = oracle.object_ids();
    let crash_tick = (spec.ticks / 2).max(1).min(spec.ticks);
    let start = Instant::now();
    for t in 1..=crash_tick {
        driver.advance(1).expect("advance clock");
        oracle.advance_clock(1);
        let ops = script_ops(&object_ids, spec, t);
        driver.update(&ops).expect("apply update batch");
        oracle.apply_updates(&ops).expect("oracle applies batch");
        requests += 2;
    }
    let mut pre_crash = start.elapsed();

    // Crash: the server dies with the driver mid-session, and the last
    // WAL write tears — a frame header promising 200 bytes backed by 4.
    drop(driver);
    server.shutdown();
    drop(durable);
    let newest = newest_segment(dir);
    {
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&newest)
            .expect("open newest segment");
        let mut torn = Vec::new();
        torn.extend_from_slice(&200u32.to_le_bytes());
        torn.extend_from_slice(&0u64.to_le_bytes());
        torn.extend_from_slice(b"torn");
        f.write_all(&torn).expect("append torn frame");
    }

    // Recover and finish the script on a second server incarnation.
    let (recovered, recovery) =
        DurableDb::open(dir, WalConfig::default()).expect("recovery succeeds");
    let recovered = Arc::new(recovered);
    let server =
        Server::bind_durable("127.0.0.1:0", Arc::clone(&recovered), cfg.clone())
            .expect("bind ephemeral port after recovery");
    let mut driver = Client::connect(server.local_addr()).expect("driver reconnects");
    let resume = Instant::now();
    for t in crash_tick + 1..=spec.ticks {
        driver.advance(1).expect("advance clock");
        oracle.advance_clock(1);
        let ops = script_ops(&object_ids, spec, t);
        driver.update(&ops).expect("apply update batch");
        oracle.apply_updates(&ops).expect("oracle applies batch");
        requests += 2;
    }
    pre_crash += resume.elapsed();

    // Verify: every instantaneous answer byte-identical to the oracle,
    // and the whole engine state fingerprint-identical.
    let mut check = Client::connect(server.local_addr()).expect("check client connects");
    let mut verified = true;
    for q in &texts {
        let (_, answer) = check.instantaneous(q).expect("check read");
        requests += 1;
        let want = oracle
            .instantaneous_readonly(&Query::parse(q).expect("query parses"))
            .expect("oracle read");
        let got_json = to_json_string(&answer).expect("answer encodes");
        let want_json = to_json_string(&want).expect("answer encodes");
        if got_json != want_json {
            verified = false;
        }
    }
    if recovered.pin().shard(0).fingerprint() != oracle.fingerprint() {
        verified = false;
    }

    // Epoch hygiene on the *recovered* engine at quiescence: recovery
    // replay plus every post-crash mutation published exactly one epoch
    // each, nothing stayed buffered, one snapshot alive.
    drop(check);
    drop(driver);
    server.shutdown();
    let epoch_conserved = recovered.engine().shard_stats().iter().all(|st| {
        st.created == st.retired + st.live && st.live == 1 && st.pending_batches == 0
    });

    let outcome = CrashRecoveryOutcome {
        requests,
        records_replayed: recovery.records_replayed,
        truncated_tail: recovery.truncated_tail,
        verified,
        epoch_conserved,
        elapsed: pre_crash,
    };
    let _ = std::fs::remove_dir_all(dir);
    outcome
}

/// The highest-numbered WAL segment in `dir` — where a torn tail lands.
fn newest_segment(dir: &Path) -> std::path::PathBuf {
    let mut segs: Vec<_> = std::fs::read_dir(dir)
        .expect("read WAL directory")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("wal-") && n.ends_with(".seg"))
        })
        .collect();
    segs.sort();
    segs.pop().expect("a durable run leaves at least one segment")
}
