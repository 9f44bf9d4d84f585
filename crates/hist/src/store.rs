//! The trajectory history store and its epoch-boundary recorder.
//!
//! A MOST [`Database`] already keeps each object's full piecewise-linear
//! trajectory — one [`MovingPoint`] leg per explicit update.  The store
//! turns that into a queryable *history warehouse* by consuming legs at
//! the *epoch-publish boundary*: a [`HistoryRecorder`] installs itself as
//! the publish observer of every shard of a [`ShardedDb`] (see
//! [`ShardedDb::set_publish_observer`]) and, at every publish, appends
//! any legs past its per-object watermark.  A single database is a
//! one-shard engine, and [`most_core::DurableDb`] logs in front of one,
//! so recording composes with every engine without adding a single lock
//! to it — the observer runs under the existing per-shard writer
//! critical section, and the recorder serializes its own state behind
//! one internal mutex (shards publish concurrently).
//!
//! Memory is bounded: legs accumulate into fixed-capacity **segments**
//! and only the newest [`HistoryConfig::max_segments`] segments per
//! object are retained; older ones are pruned (counted in
//! `hist.pruned`).  The windowed aggregates are *not* recomputed from
//! raw legs, so they keep answering about pruned periods — the
//! warehouse property.  The whole store rides `ToJson`/`FromJson` for
//! snapshot save/restore.

use crate::aggregate::WindowedAggregates;
use crate::alibi::{alibi_intervals, alibi_oracle, Sample};
use most_core::epoch::PublishObserver;
use most_core::{Database, ShardedDb};
use most_spatial::{MovingPoint, Point};
use most_temporal::{Duration, Interval, IntervalSet, Tick};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, PoisonError};

/// Sizing knobs for the history store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistoryConfig {
    /// Legs per segment (≥ 1); a new segment opens when the last one is
    /// full.
    pub segment_capacity: u64,
    /// Newest segments retained per object (≥ 1); older segments are
    /// pruned.  Per-object memory is thus bounded by
    /// `segment_capacity · max_segments` legs.
    pub max_segments: u64,
    /// Aggregate window width in ticks (≥ 1).
    pub window: Duration,
}

most_testkit::json_struct!(HistoryConfig { segment_capacity, max_segments, window });

impl Default for HistoryConfig {
    fn default() -> Self {
        HistoryConfig { segment_capacity: 64, max_segments: 64, window: 16 }
    }
}

impl HistoryConfig {
    /// A config that never prunes — every leg is retained (tests and
    /// oracles).
    pub fn unpruned(window: Duration) -> Self {
        HistoryConfig { segment_capacity: 1 << 20, max_segments: u64::MAX, window }
    }
}

/// One object's recorded history: retained segments plus the watermark
/// into the live trajectory.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ObjectHistory {
    /// Retained segments, oldest first; each holds at most
    /// `segment_capacity` legs in `since` order.
    segments: Vec<Vec<MovingPoint>>,
    /// Trajectory legs consumed so far — recording is idempotent per
    /// leg, so replaying a publish appends nothing.
    consumed: u64,
    /// Legs dropped from the front by retention pruning.
    pruned: u64,
}

most_testkit::json_struct!(ObjectHistory { segments, consumed, pruned });

impl ObjectHistory {
    /// Retained legs, oldest first.
    pub fn legs(&self) -> impl Iterator<Item = &MovingPoint> {
        self.segments.iter().flatten()
    }

    /// Number of retained legs.
    pub fn retained(&self) -> u64 {
        self.segments.iter().map(|s| s.len() as u64).sum()
    }

    /// Legs pruned away so far.
    pub fn pruned(&self) -> u64 {
        self.pruned
    }
}

/// The history warehouse: per-object motion history consumed at epoch
/// boundaries, plus incrementally-maintained windowed aggregates.  See
/// the module docs for the recording contract and [`HistoryRecorder`]
/// for the thread-safe engine-attached wrapper.
#[derive(Debug, Clone, PartialEq)]
pub struct HistoryStore {
    /// Sizing knobs (fixed at construction).
    config: HistoryConfig,
    /// Recorded histories by object id.
    objects: BTreeMap<u64, ObjectHistory>,
    /// Warehouse aggregates, folded per recorded leg.
    aggregates: WindowedAggregates,
    /// Latest database clock observed while recording; alibi answers
    /// never extend past it.
    last_seen: Tick,
}

most_testkit::json_struct!(HistoryStore { config, objects, aggregates, last_seen });

impl HistoryStore {
    /// An empty store.
    pub fn new(config: HistoryConfig) -> Self {
        let window = config.window;
        HistoryStore {
            config,
            objects: BTreeMap::new(),
            aggregates: WindowedAggregates::new(window),
            last_seen: 0,
        }
    }

    /// The store's sizing knobs.
    pub fn config(&self) -> HistoryConfig {
        self.config
    }

    /// Consumes every trajectory leg past the per-object watermarks from
    /// `db`, folds the new legs into the aggregates, applies retention,
    /// and returns the number of legs appended.  Idempotent: recording
    /// the same state twice appends nothing.
    pub fn record(&mut self, db: &Database) -> u64 {
        let cap = self.config.segment_capacity.max(1) as usize;
        let keep = self.config.max_segments.max(1);
        let mut appended = 0u64;
        let mut opened = 0u64;
        let mut pruned = 0u64;
        for id in db.object_ids() {
            let Ok(obj) = db.object(id) else { continue };
            let Some(traj) = obj.trajectory() else { continue };
            let legs = traj.legs();
            let entry = self.objects.entry(id).or_default();
            let from = (entry.consumed as usize).min(legs.len());
            for leg in &legs[from..] {
                if entry.segments.last().is_none_or(|s| s.len() >= cap) {
                    entry.segments.push(Vec::new());
                    opened += 1;
                }
                entry
                    .segments
                    .last_mut()
                    .expect("segment just ensured")
                    .push(*leg);
                self.aggregates.record_sample(id, leg.since, leg.anchor, db);
                appended += 1;
            }
            entry.consumed = entry.consumed.max(legs.len() as u64);
            while entry.segments.len() as u64 > keep {
                let dropped = entry.segments.remove(0);
                entry.pruned += dropped.len() as u64;
                pruned += dropped.len() as u64;
            }
        }
        self.last_seen = self.last_seen.max(db.now());
        if appended > 0 {
            most_obs::add("hist.records", appended);
            most_obs::inc("hist.aggregate_refreshes");
        }
        if opened > 0 {
            most_obs::add("hist.segments", opened);
        }
        if pruned > 0 {
            most_obs::add("hist.pruned", pruned);
        }
        appended
    }

    /// Ids of all objects with recorded history.
    pub fn object_ids(&self) -> Vec<u64> {
        self.objects.keys().copied().collect()
    }

    /// One object's recorded history, if any.
    pub fn object(&self, id: u64) -> Option<&ObjectHistory> {
        self.objects.get(&id)
    }

    /// Latest database clock observed while recording.
    pub fn last_seen(&self) -> Tick {
        self.last_seen
    }

    /// The warehouse aggregates.
    pub fn aggregates(&self) -> &WindowedAggregates {
        &self.aggregates
    }

    /// Every retained sample `(id, tick, position)` — the raw log the
    /// aggregate recompute oracle replays.
    pub fn retained_samples(&self) -> Vec<(u64, Tick, Point)> {
        let mut out = Vec::new();
        for (&id, hist) in &self.objects {
            for leg in hist.legs() {
                out.push((id, leg.since, leg.anchor));
            }
        }
        out
    }

    /// Position samples of object `id` usable for an alibi query over
    /// `range`: the retained update anchors inside the range, bracketed
    /// by positions interpolated from the recorded motion at the clamped
    /// range endpoints.  Empty when the object has no retained history
    /// overlapping the range.
    pub fn alibi_samples(&self, id: u64, range: Interval) -> Vec<Sample> {
        let Some(hist) = self.objects.get(&id) else { return Vec::new() };
        let legs: Vec<&MovingPoint> = hist.legs().collect();
        let Some(first) = legs.first() else { return Vec::new() };
        let lo = range.begin().max(first.since);
        let hi = range.end().min(self.last_seen);
        if lo > hi {
            return Vec::new();
        }
        let position_at = |t: Tick| {
            let leg = legs
                .iter()
                .take_while(|l| l.since <= t)
                .last()
                .expect("lo clamps to the first leg's tick");
            leg.position_at_tick(t)
        };
        let mut out = vec![(lo, position_at(lo))];
        for leg in &legs {
            if leg.since > lo && leg.since < hi {
                out.push((leg.since, leg.anchor));
            }
        }
        if hi > lo {
            out.push((hi, position_at(hi)));
        }
        out
    }

    /// The alibi query: all ticks in `range` at which objects `a` and
    /// `b` — each assumed no faster than `vmax` between recorded
    /// samples — could have occupied the same point.  Exact prism
    /// intersection; see [`alibi_intervals`].
    pub fn alibi(&self, a: u64, b: u64, vmax: f64, range: Interval) -> IntervalSet {
        most_obs::inc("hist.alibi_queries");
        let _timer = most_obs::span("hist.alibi_nanos");
        let sa = self.alibi_samples(a, range);
        let sb = self.alibi_samples(b, range);
        alibi_intervals(&sa, vmax, &sb, vmax, range)
    }

    /// Brute-force alibi reference over the same recorded samples; must
    /// agree with [`HistoryStore::alibi`] byte-for-byte.
    pub fn alibi_by_oracle(&self, a: u64, b: u64, vmax: f64, range: Interval) -> IntervalSet {
        let sa = self.alibi_samples(a, range);
        let sb = self.alibi_samples(b, range);
        alibi_oracle(&sa, vmax, &sb, vmax, range)
    }
}

/// Thread-safe [`HistoryStore`] handle that attaches to the engines'
/// epoch-publish boundary.  Shards publish concurrently, so the store
/// sits behind one internal mutex; per shard the publish ordering
/// guarantee keeps each object's legs arriving in order.
pub struct HistoryRecorder {
    inner: Mutex<HistoryStore>,
}

impl std::fmt::Debug for HistoryRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HistoryRecorder").finish_non_exhaustive()
    }
}

impl HistoryRecorder {
    /// A recorder with an empty store.
    pub fn new(config: HistoryConfig) -> Arc<Self> {
        Arc::new(HistoryRecorder { inner: Mutex::new(HistoryStore::new(config)) })
    }

    /// A recorder resuming from a snapshotted store.
    pub fn from_store(store: HistoryStore) -> Arc<Self> {
        Arc::new(HistoryRecorder { inner: Mutex::new(store) })
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, HistoryStore> {
        // A panicking observer must not wedge recording forever; the
        // store's invariants are per-object append + watermark, safe to
        // resume.
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The publish-observer closure recording into this store.
    pub fn observer(self: &Arc<Self>) -> PublishObserver {
        let recorder = Arc::clone(self);
        Arc::new(move |db, _epoch| {
            recorder.record(db);
        })
    }

    /// Installs this recorder on every shard of an engine and catches up
    /// on the current cut (epochs published before installation are not
    /// replayed).  A durable engine attaches through its shared engine:
    /// `attach_sharded(durable.engine())`.
    pub fn attach_sharded(self: &Arc<Self>, db: &ShardedDb) {
        db.set_publish_observer(Some(self.observer()));
        let cut = db.pin();
        for shard in 0..cut.shard_count() {
            self.record(cut.shard(shard));
        }
    }

    /// Records one database state now; see [`HistoryStore::record`].
    pub fn record(&self, db: &Database) -> u64 {
        self.lock().record(db)
    }

    /// Runs a closure against the store under the recorder's lock.
    pub fn with<R>(&self, f: impl FnOnce(&HistoryStore) -> R) -> R {
        f(&self.lock())
    }

    /// A deep copy of the current store (snapshot save rides its
    /// `ToJson`).
    pub fn store_snapshot(&self) -> HistoryStore {
        self.lock().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use most_core::UpdateOp;
    use most_spatial::{Point, Polygon, Velocity};
    use most_testkit::ser::{from_json_str, to_json_string};

    fn world() -> (ShardedDb, u64, u64) {
        let mut db = Database::new(10_000);
        db.add_region("downtown", Polygon::rectangle(0.0, 0.0, 50.0, 50.0));
        let a = db.insert_moving_object("cars", Point::new(0.0, 0.0), Velocity::new(1.0, 0.0));
        let b = db.insert_moving_object("cars", Point::new(40.0, 0.0), Velocity::new(-1.0, 0.0));
        (ShardedDb::from_database(db), a, b)
    }

    #[test]
    fn recording_consumes_legs_once() {
        let (engine, a, _) = world();
        let rec = HistoryRecorder::new(HistoryConfig::unpruned(16));
        rec.attach_sharded(&engine);
        assert_eq!(rec.with(|s| s.object(a).unwrap().retained()), 1, "initial legs caught up");
        engine.advance_clock(5);
        engine.apply_updates(&[UpdateOp::Motion { id: a, velocity: Velocity::new(0.0, 1.0) }])
            .unwrap();
        // Re-record the same published state by hand: idempotent.
        rec.record(engine.pin().shard(0));
        let hist = rec.store_snapshot();
        assert_eq!(hist.object(a).unwrap().retained(), 2);
        assert_eq!(hist.last_seen(), 5);
    }

    #[test]
    fn retention_bounds_memory_but_not_aggregates() {
        let (engine, a, _) = world();
        let rec = HistoryRecorder::new(HistoryConfig { segment_capacity: 2, max_segments: 2, window: 8 });
        rec.attach_sharded(&engine);
        for i in 0..20u64 {
            engine.advance_clock(1);
            engine.apply_updates(&[UpdateOp::Motion {
                id: a,
                velocity: Velocity::new(0.1 * (i % 3) as f64, 0.0),
            }])
            .unwrap();
        }
        let store = rec.store_snapshot();
        let hist = store.object(a).unwrap();
        assert!(hist.retained() <= 4, "retention must cap legs: {}", hist.retained());
        assert!(hist.pruned() > 0);
        // The warehouse remembers pruned windows: both objects started in
        // `downtown` during the earliest (now pruned) window.
        assert_eq!(store.aggregates().count(0, "downtown"), 2);
    }

    #[test]
    fn store_snapshot_roundtrips_via_json() {
        let (engine, a, _) = world();
        let rec = HistoryRecorder::new(HistoryConfig::default());
        rec.attach_sharded(&engine);
        engine.advance_clock(3);
        engine.apply_updates(&[UpdateOp::Motion { id: a, velocity: Velocity::zero() }]).unwrap();
        let store = rec.store_snapshot();
        let text = to_json_string(&store).unwrap();
        let back: HistoryStore = from_json_str(&text).unwrap();
        assert_eq!(back, store);
        assert_eq!(to_json_string(&back).unwrap(), text);
        // A recorder resumed from the snapshot continues where it left off.
        let resumed = HistoryRecorder::from_store(back);
        resumed.record(engine.pin().shard(0));
        assert_eq!(resumed.store_snapshot(), store, "no double-recording after restore");
    }

    #[test]
    fn alibi_answers_match_oracle_on_recorded_history() {
        let (engine, a, b) = world();
        let rec = HistoryRecorder::new(HistoryConfig::unpruned(16));
        rec.attach_sharded(&engine);
        for _ in 0..4 {
            engine.advance_clock(5);
            engine.apply_updates(&[
                UpdateOp::Motion { id: a, velocity: Velocity::new(1.0, 0.0) },
                UpdateOp::Motion { id: b, velocity: Velocity::new(-1.0, 0.0) },
            ])
            .unwrap();
        }
        let range = Interval::new(0, 20);
        rec.with(|s| {
            let fast = s.alibi(a, b, 1.5, range);
            let slow = s.alibi_by_oracle(a, b, 1.5, range);
            assert_eq!(fast, slow);
            assert!(!fast.is_empty(), "closing objects must be able to meet");
        });
    }
}
