//! Seeded inputs shared by every workload: the fleet, its regions, the
//! continuous-query texts, and the per-tick update batches.
//!
//! Everything here is a pure function of the seed (and, for batches, of
//! the tick), so the engine under test only ever sees generated inputs
//! and an oracle can replay them exactly.  Ground truth is each car's
//! planned trajectory ([`CarScenario::fleet`]); update batches are the
//! sensor reports a tracking system would send: the true motion vector
//! (`Motion`), the true position and vector (`Position`), or a new
//! `PRICE`.

use most_core::sharded::{ShardRouting, ShardedDb, ShardedDbBuilder};
use most_core::{Database, MotionUpdate, UpdateOp};
use most_dbms::value::Value;
use most_spatial::{Polygon, Rect, Trajectory};
use most_temporal::Tick;
use most_testkit::rng::{Rng, SplitMix64};
use most_workload::cars::{CarPlan, CarScenario};

/// Cars in every workload's world.
pub const CARS: usize = 20_000;
/// Query expiration of every engine: continuous answers cover
/// `[now, now + EXPIRATION]`, and the spatial index rolls once the clock
/// is this far past its epoch (never within one run).
pub const EXPIRATION: u64 = 400;
/// Shards of the sharded engine (`batch_cut`).
pub const SHARDS: usize = 2;
/// Horizon of the `Eventually within` continuous queries.
const WITHIN: u64 = 30;
/// Cars inside each region at tick 0.
const REGION_CARS: usize = 300;
/// Cars at or beyond each price threshold at tick 0 (ties admit a few
/// more).
const PRICE_CARS: usize = 600;
/// Centres of regions `R0..R3` as fractions of the start square's
/// half-extent: one per quadrant, so each band holds two.
const REGION_CENTRES: [(f64, f64); 4] = [(-0.3, -0.3), (0.3, 0.3), (-0.3, 0.3), (0.3, -0.3)];
/// Reads after every tick: the first [`READS`] CQ texts, one of each
/// shape (`INSIDE`, `PRICE` range, `Eventually within`), timed together
/// as one read round.  One round per tick keeps `read_ms` one
/// population; one shape per tick would put its percentiles on the
/// edges between the shapes' costs.
pub const READS: usize = 3;

/// The generated world of one seed.
pub struct World {
    pub seed: u64,
    pub plans: Vec<CarPlan>,
    truth: Vec<Trajectory>,
    /// Half-extent of the square the fleet starts in (centred on 0).
    pub half: f64,
    pub regions: Vec<(String, Polygon)>,
    /// The six continuous-query texts: `INSIDE`, `PRICE` range and
    /// `Eventually within … INSIDE`, twice each.
    pub cqs: Vec<String>,
    /// Object ids per spatial band (band = shard under `SpatialBands`),
    /// in id order.
    pub bands: Vec<Vec<u64>>,
}

impl World {
    pub fn new(seed: u64) -> World {
        let scenario = CarScenario::fleet(seed, CARS);
        let plans = scenario.generate();
        let truth = plans.iter().map(CarPlan::trajectory).collect();
        let half = scenario.area;
        // Each region is the square around a fixed centre that holds
        // exactly REGION_CARS cars at tick 0, and each price threshold
        // admits PRICE_CARS cars: the seed moves the fleet, while answer
        // sizes and region placement (and so the costs they drive) stay
        // the same.  Centres drawn from the seed made the read tail vary
        // by ~20% from seed to seed.  A few hundred rows cost something
        // and still fit one 64 KiB frame.
        let regions = REGION_CENTRES
            .iter()
            .enumerate()
            .map(|(k, &(fx, fy))| {
                let (cx, cy) = (fx * half, fy * half);
                let mut reach: Vec<f64> = plans
                    .iter()
                    .map(|p| (p.start.x - cx).abs().max((p.start.y - cy).abs()))
                    .collect();
                reach.sort_by(f64::total_cmp);
                let r = (reach[REGION_CARS - 1] + reach[REGION_CARS]) / 2.0;
                (
                    format!("R{k}"),
                    Polygon::rectangle(cx - r, cy - r, cx + r, cy + r),
                )
            })
            .collect();
        let mut prices: Vec<f64> = plans.iter().map(|p| p.price.round()).collect();
        prices.sort_by(f64::total_cmp);
        let (low, high) = (prices[PRICE_CARS - 1], prices[prices.len() - PRICE_CARS]);
        let cqs = vec![
            "RETRIEVE o WHERE INSIDE(o, R0)".to_owned(),
            format!("RETRIEVE o WHERE o.PRICE <= {low}"),
            format!("RETRIEVE o WHERE Eventually within {WITHIN} INSIDE(o, R1)"),
            "RETRIEVE o WHERE INSIDE(o, R2)".to_owned(),
            format!("RETRIEVE o WHERE o.PRICE >= {high}"),
            format!("RETRIEVE o WHERE Eventually within {WITHIN} INSIDE(o, R3)"),
        ];
        let routing = routing(half);
        let mut bands = vec![Vec::new(); SHARDS];
        for (i, p) in plans.iter().enumerate() {
            bands[band_of(&routing, p.start.x)].push(i as u64 + 1);
        }
        World {
            seed,
            plans,
            truth,
            half,
            regions,
            cqs,
            bands,
        }
    }

    /// The spatial extent of the fleet over a run, with margin for motion.
    pub fn space(&self) -> Rect {
        let r = self.half + 4.0 * EXPIRATION as f64;
        Rect::new(-r, -r, r, r)
    }

    /// A plain database holding the world at tick 0 (ids `1..=CARS` in
    /// plan order), with the regions but no continuous queries.
    pub fn database(&self, spatial_index: bool) -> Database {
        let mut db = Database::new(EXPIRATION);
        for (name, poly) in &self.regions {
            db.add_region(name.clone(), poly.clone());
        }
        for p in &self.plans {
            let id = db.insert_moving_object("cars", p.start, p.velocity);
            db.set_static(id, "PRICE", Value::from(p.price.round()))
                .expect("open class admits PRICE");
        }
        if spatial_index {
            db.enable_spatial_index(self.space());
        }
        db
    }

    /// The same world split over [`SHARDS`] shards by spatial band, with
    /// the spatial index on every shard.  Ids match [`World::database`].
    pub fn sharded(&self) -> ShardedDb {
        let mut b = ShardedDbBuilder::new(SHARDS, EXPIRATION).with_routing(routing(self.half));
        for (name, poly) in &self.regions {
            b.add_region(name, poly.clone());
        }
        for p in &self.plans {
            let id = b.insert_moving_object("cars", p.start, p.velocity);
            b.set_static(id, "PRICE", Value::from(p.price.round()))
                .expect("open class admits PRICE");
        }
        b.enable_spatial_index(self.space());
        b.finish()
    }

    /// The shard that owns object `id` (its band at insert).
    pub fn shard_of(&self, id: u64) -> usize {
        band_of(&routing(self.half), self.plans[(id - 1) as usize].start.x)
    }

    fn report(&self, id: u64, t: Tick, position: bool) -> UpdateOp {
        let truth = &self.truth[(id - 1) as usize];
        let velocity = truth.velocity_at_tick(t);
        if position {
            let update = MotionUpdate {
                position: truth.position_at_tick(t),
                velocity,
            };
            UpdateOp::Position { id, update }
        } else {
            UpdateOp::Motion { id, velocity }
        }
    }

    /// The `track_wire` batch for tick `t`: `size` reports over uniformly
    /// drawn cars, ~90% `Motion`/`Position` (half each) and ~10% `PRICE`.
    pub fn tracking_batch(&self, t: Tick, size: usize) -> Vec<UpdateOp> {
        let mut rng = tick_rng(self.seed, t, 1);
        (0..size)
            .map(|_| {
                let id = rng.below(CARS as u64) + 1;
                let roll = rng.f64();
                if roll < 0.1 {
                    let price = rng.random_range(40.0..200.0_f64).round();
                    UpdateOp::Static {
                        id,
                        attr: "PRICE".into(),
                        value: Value::from(price),
                    }
                } else {
                    self.report(id, t, roll < 0.55)
                }
            })
            .collect()
    }

    /// The `batch_cut` batch for tick `t`: `size` motion reports, `hot`
    /// of them (as a share) from band 0 and the rest from the others, so
    /// one shard does most of the work.
    pub fn skewed_batch(&self, t: Tick, size: usize, hot: f64) -> Vec<UpdateOp> {
        let mut rng = tick_rng(self.seed, t, 2);
        (0..size)
            .map(|_| {
                let band = if rng.random_bool(hot) {
                    0
                } else {
                    1 + rng.below(SHARDS as u64 - 1) as usize
                };
                let ids = &self.bands[band];
                let id = ids[rng.below(ids.len() as u64) as usize];
                let position = rng.random_bool(0.5);
                self.report(id, t, position)
            })
            .collect()
    }
}

/// The band routing every sharded engine uses: vertical bands over the
/// start square.
pub fn routing(half: f64) -> ShardRouting {
    ShardRouting::SpatialBands {
        min_x: -half,
        max_x: half,
    }
}

fn band_of(routing: &ShardRouting, x: f64) -> usize {
    let ShardRouting::SpatialBands { min_x, max_x } = routing else {
        unreachable!("the benchmark routes by band")
    };
    let frac = ((x - min_x) / (max_x - min_x)).clamp(0.0, 1.0);
    ((frac * SHARDS as f64) as usize).min(SHARDS - 1)
}

/// An independent generator per `(seed, tick, stream)`.
pub fn tick_rng(seed: u64, t: Tick, stream: u64) -> Rng {
    let mix = SplitMix64::new(seed ^ stream.rotate_left(48)).next_u64();
    Rng::seed_from_u64(mix ^ t.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}
