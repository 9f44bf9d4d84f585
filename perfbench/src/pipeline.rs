//! The served write and read paths, composed from each layer's public
//! entry point in the order the server calls them, with a span around
//! every call.  This is the traced run's engine: the same inputs as the
//! end-to-end run, taken apart so each layer's cost shows.
//!
//! Write step (`AdvanceClock` or `Update`), as `Server::bind_durable` and
//! `ShardedDb` run it:
//!
//! ```text
//! [protocol.decode] → wal.append → [sharded.apply: per touched shard:]
//!   epoch.clone → database.apply|advance → index.roll → epoch.publish(hist.fold)
//! → wal.checkpoint (when due) → server.fanout(protocol.encode_delta…)
//! ```
//!
//! and a read as `sharded.scatter(ftl.eval per shard)` or `hist.*`.  A
//! single engine is one shard here.
//!
//! Shards run one after another here (the served engine runs them in
//! parallel), so per-shard layer costs add up instead of overlapping.

use crate::trace::Tracer;
use crate::world::{World, EXPIRATION};
use crate::ScratchDir;
use most_core::continuous::combine_shard_answers;
use most_core::wal::{Wal, WalConfig, WalRecord};
use most_core::{display_delta, Database, EpochDb, UpdateOp};
use most_dbms::value::Value;
use most_ftl::answer::Answer;
use most_ftl::Query;
use most_hist::{HistoryConfig, HistoryRecorder};
use most_server::protocol::{decode_request, encode_frame, CqDelta, Request, Response};
use most_temporal::Interval;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Which optional layers a workload's served path goes through.  A layer
/// it bypasses is still measured, by [`Composed::probe`] outside the tick
/// on the same inputs, so every workload reports every layer; the
/// workload's end-to-end metrics are predicted not to move with it.
#[derive(Debug, Clone, Copy)]
pub struct OnPath {
    /// Requests arrive as frames (`protocol.decode_update`).
    pub wire: bool,
    /// Mutations are logged first (`wal.*`).
    pub wal: bool,
    /// A subscriber holds every CQ (`server.fanout`, deltas).
    pub subscriber: bool,
}

pub struct Composed {
    shards: Vec<EpochDb>,
    owner: Vec<usize>,
    on: OnPath,
    wal: (Wal, u64),
    _dir: ScratchDir,
    hist: Arc<HistoryRecorder>,
    /// Fan-out baselines of one subscriber holding every CQ.
    subs: BTreeMap<u64, Vec<Vec<Value>>>,
    pub deltas: Vec<CqDelta>,
    parsed: BTreeMap<String, Query>,
    tr: Tracer,
    /// Objects walked by history folds (each fold walks its whole shard).
    pub walked: Arc<AtomicU64>,
    /// Max over mean ops per shard, per sharded batch.
    pub skew: Vec<f64>,
}

impl Composed {
    /// `shards == 1` builds the single engine (index off); more builds
    /// band-routed shards with the index on.  The WAL lives in a scratch
    /// directory of its own (a probe's WAL checkpoints shard 0).
    pub fn new(w: &World, shards: usize, on: OnPath, wal_cfg: WalConfig, tr: Tracer) -> Composed {
        static PIPELINES: AtomicU64 = AtomicU64::new(0);
        let dir = ScratchDir::new(&format!(
            "wal-{}",
            PIPELINES.fetch_add(1, Ordering::Relaxed)
        ));
        let dbs: Vec<Database> = if shards == 1 {
            vec![w.database(false)]
        } else {
            let mut dbs: Vec<Database> = (0..shards)
                .map(|_| {
                    let mut db = Database::new(EXPIRATION);
                    for (name, poly) in &w.regions {
                        db.add_region(name.clone(), poly.clone());
                    }
                    db
                })
                .collect();
            for (i, p) in w.plans.iter().enumerate() {
                let id = i as u64 + 1;
                let db = &mut dbs[w.shard_of(id)];
                db.insert_moving_object_with_id(id, "cars", p.start, p.velocity)
                    .expect("ids are unique");
                db.set_static(id, "PRICE", Value::from(p.price.round()))
                    .expect("open class admits PRICE");
            }
            for db in &mut dbs {
                db.enable_spatial_index(w.space());
            }
            dbs
        };
        let owner = (1..=w.plans.len() as u64)
            .map(|id| if shards == 1 { 0 } else { w.shard_of(id) })
            .collect();
        let wal = (
            Wal::create(&dir.0, &dbs[0], wal_cfg).expect("create WAL"),
            wal_cfg.checkpoint_every,
        );
        let shards: Vec<EpochDb> = dbs.into_iter().map(EpochDb::new).collect();
        let mut c = Composed {
            shards,
            owner,
            on,
            wal,
            _dir: dir,
            hist: HistoryRecorder::new(HistoryConfig::default()),
            subs: BTreeMap::new(),
            deltas: Vec::new(),
            parsed: BTreeMap::new(),
            tr: Tracer::off(),
            walked: Arc::new(AtomicU64::new(0)),
            skew: Vec::new(),
        };
        let mut cqs = Vec::new();
        for text in &w.cqs {
            c.wal
                .0
                .append(&WalRecord::Register {
                    query: text.clone(),
                })
                .expect("WAL append");
            let q = Query::parse(text).expect("CQ parses");
            for s in &c.shards {
                let id = s
                    .commit(|db| db.register_continuous(q.clone()))
                    .expect("CQ registers");
                cqs.push(id);
            }
            c.checkpoint();
        }
        cqs.dedup();
        let pins: Vec<_> = c.shards.iter().map(EpochDb::pin).collect();
        c.subs = cqs.iter().map(|&cq| (cq, display(&pins, cq))).collect();
        // The recorder attaches as `HistoryRecorder::attach` does (catch
        // up, then observe every publish), behind a spanned observer.
        for s in &c.shards {
            c.hist.record(s.pin().db());
            let (hist, tr, walked) = (Arc::clone(&c.hist), tr.clone(), Arc::clone(&c.walked));
            s.set_publish_observer(Some(Arc::new(move |db: &Database, _epoch| {
                walked.fetch_add(db.len() as u64, Ordering::Relaxed);
                tr.span("hist.fold", || hist.record(db));
            })));
        }
        c.tr = tr;
        c
    }

    /// `AdvanceClock`, served: logged, then one epoch per shard.
    pub fn advance(&mut self, ticks: u64) {
        if self.on.wal {
            self.log(&WalRecord::Advance { ticks });
        }
        for i in 0..self.shards.len() {
            self.publish(
                i,
                |s| s.write(|db| db.advance_clock(ticks)),
                "database.advance",
            );
        }
        self.after_write();
    }

    fn after_write(&mut self) {
        if self.on.wal {
            self.checkpoint();
        }
        if self.on.subscriber {
            self.fanout();
        }
    }

    /// Runs, outside the tick, the layers this workload's served path
    /// bypasses, on the tick's inputs: the `Update` frame, its records, the
    /// fan-out to a subscriber holding every CQ, and the history queries.
    pub fn probe(&mut self, ops: &[UpdateOp], frame: &str) {
        let tr = self.tr.clone();
        tr.span("probe", || {
            if !self.on.wire {
                std::hint::black_box(decode(&tr, "protocol.decode_update", frame));
            }
            if !self.on.wal {
                self.log(&WalRecord::Advance { ticks: 1 });
                self.log(&WalRecord::Batch { ops: ops.to_vec() });
                self.checkpoint();
            }
            if !self.on.subscriber {
                self.fanout();
            }
            let end = self.shards[0].pin().now();
            let alibi = Request::Alibi {
                a: 1,
                b: 2,
                vmax: 3.0,
                begin: 1,
                end,
            };
            std::hint::black_box(self.read(alibi));
            std::hint::black_box(self.read(Request::Aggregate {
                begin: 0,
                end,
                k: 3,
            }));
        });
    }

    /// `Update { ops }`, served: logged, split by owning shard, one epoch
    /// per touched shard.
    pub fn update(&mut self, ops: Vec<UpdateOp>) {
        let record = WalRecord::Batch { ops };
        if self.on.wal {
            self.log(&record);
        }
        let WalRecord::Batch { ops } = record else {
            unreachable!("built as a batch")
        };
        let tr = self.tr.clone();
        tr.span("sharded.apply", || {
            let parts = if self.shards.len() == 1 {
                vec![ops]
            } else {
                split(&ops, &self.owner, self.shards.len())
            };
            let (max, total) = (
                parts.iter().map(Vec::len).max(),
                parts.iter().map(Vec::len).sum::<usize>(),
            );
            self.skew
                .push(max.unwrap_or(0) as f64 * parts.len() as f64 / total.max(1) as f64);
            for (i, part) in parts.iter().enumerate() {
                if !part.is_empty() {
                    self.publish(
                        i,
                        |s| s.buffer_updates(part).expect("batch applies"),
                        "database.apply",
                    );
                }
            }
        });
        self.after_write();
    }

    /// One epoch on shard `i`: clone, mutate, roll the index, publish.
    fn publish(&mut self, i: usize, mutate: impl FnOnce(&EpochDb), name: &'static str) {
        let (tr, s) = (&self.tr, &self.shards[i]);
        tr.span("epoch.clone", || s.write(|_| ()));
        tr.span(name, || mutate(s));
        tr.span("index.roll", || s.write(|db| db.maintain_spatial_index()));
        tr.span("epoch.publish", || s.advance_epoch());
    }

    fn log(&mut self, record: &WalRecord) {
        let wal = &mut self.wal.0;
        self.tr
            .span("wal.append", || wal.append(record).expect("WAL append"));
    }

    fn checkpoint(&mut self) {
        let (wal, every) = &mut self.wal;
        if *every > 0 && wal.appends_since_checkpoint() >= *every {
            let pin = self.shards[0].pin();
            self.tr.span("wal.checkpoint", || {
                wal.checkpoint(pin.db()).expect("checkpoint")
            });
        }
    }

    fn fanout(&mut self) {
        let (tr, deltas, subs) = (&self.tr, &mut self.deltas, &mut self.subs);
        let shards = &self.shards;
        tr.span("server.fanout", || {
            let pins: Vec<_> = shards.iter().map(EpochDb::pin).collect();
            let now = pins[0].now();
            for (&cq, last) in subs.iter_mut() {
                let rows = display(&pins, cq);
                let (added, removed) = display_delta(last, &rows);
                if added.is_empty() && removed.is_empty() {
                    continue;
                }
                let delta = CqDelta {
                    cq,
                    tick: now,
                    added,
                    removed,
                };
                let frame = tr.span("protocol.encode_delta", || {
                    encode_frame(&Response::Delta(delta.clone()))
                });
                std::hint::black_box(frame);
                deltas.push(delta);
                *last = rows;
            }
        });
    }

    /// One read request off the wire: decode, answer, encode.
    pub fn read_frame(&mut self, frame: &str) -> String {
        let req = decode(&self.tr.clone(), "protocol.decode", frame);
        let resp = self.read(req);
        self.tr
            .span("protocol.encode_answer", || encode_frame(&resp))
    }

    /// One read request, answered from pins as the server answers it.
    pub fn read(&mut self, req: Request) -> Response {
        let tr = self.tr.clone();
        // The server's parse-once cache: every read text after the first
        // is a hit, so parsing stays off the measured path.
        if let Request::Instantaneous { query } = &req {
            if !self.parsed.contains_key(query) {
                let q = Query::parse(query).expect("read parses");
                self.parsed.insert(query.clone(), q);
            }
        }
        let pins: Vec<_> = self.shards.iter().map(EpochDb::pin).collect();
        let now = pins[0].now();
        // Scatter to every pinned shard and gather; a single engine's one
        // answer needs no combining.
        let scatter = |eval: &dyn Fn(&Database) -> most_core::CoreResult<Answer>| {
            tr.span("sharded.scatter", || {
                if let [pin] = pins.as_slice() {
                    return tr
                        .span("ftl.eval", || eval(pin.db()))
                        .expect("read evaluates");
                }
                let parts: Vec<Answer> = pins
                    .iter()
                    .map(|p| tr.span("ftl.eval", || eval(p.db())))
                    .collect::<Result<_, _>>()
                    .expect("read evaluates");
                combine_shard_answers(&parts).expect("answers combine")
            })
        };
        match req {
            Request::Instantaneous { query } => {
                let q = &self.parsed[&query];
                Response::Answer {
                    now,
                    answer: scatter(&|db| db.instantaneous_readonly(q)),
                }
            }
            Request::Alibi {
                a,
                b,
                vmax,
                begin,
                end,
            } => {
                let meets = tr.span("hist.alibi", || {
                    self.hist
                        .with(|s| s.alibi(a, b, vmax, Interval::new(begin, end)))
                });
                Response::Alibi {
                    now,
                    meets: meets.into_intervals(),
                }
            }
            Request::Aggregate { begin, end, k } => tr.span("hist.aggregate", || {
                self.hist.with(|store| aggregate(store, now, begin, end, k))
            }),
            other => panic!("not a read: {other:?}"),
        }
    }
}

/// The display of `cq` over the pinned shards, as a cut shows it: the
/// sorted union of the shards' displays.
fn display(pins: &[most_core::EpochPin], cq: u64) -> Vec<Vec<Value>> {
    let now = pins[0].now();
    let mut rows: Vec<Vec<Value>> = Vec::new();
    for pin in pins {
        rows.extend(pin.continuous_display(cq, now).expect("CQ display"));
    }
    if pins.len() > 1 {
        rows.sort();
        rows.dedup();
    }
    rows
}

/// `decode_request` under a span; the benchmark only sends valid frames.
pub fn decode(tr: &Tracer, name: &'static str, frame: &str) -> Request {
    tr.span(name, || decode_request(frame).expect("frame decodes"))
}

/// The `Aggregate` reply, built as the server builds it.
fn aggregate(store: &most_hist::HistoryStore, now: u64, begin: u64, end: u64, k: u64) -> Response {
    let agg = store.aggregates();
    let window = agg.window();
    let tops = agg
        .window_starts()
        .into_iter()
        .filter(|&start| start <= end && start.saturating_add(window - 1) >= begin)
        .map(|start| most_server::protocol::WindowCounts {
            start,
            counts: agg.top_k(start, k as usize),
        })
        .collect();
    Response::Aggregate { now, window, tops }
}

/// Ops by owning shard, batch order kept within each shard.
fn split(ops: &[UpdateOp], owner: &[usize], shards: usize) -> Vec<Vec<UpdateOp>> {
    let mut parts = vec![Vec::new(); shards];
    for op in ops {
        let id = match op {
            UpdateOp::Motion { id, .. }
            | UpdateOp::Position { id, .. }
            | UpdateOp::Static { id, .. }
            | UpdateOp::DynamicScalar { id, .. } => *id,
        };
        parts[owner[(id - 1) as usize]].push(op.clone());
    }
    parts
}
