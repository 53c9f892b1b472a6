//! The benchmark's fleet: store configuration, object kinds and the
//! deterministic report streams the workloads send.
//!
//! Two kinds of object share every fleet. *Commuters* follow one of
//! two `hpm-datagen` archetype routes per period (a shared first leg,
//! then a fork, as in the paper's Fig. 3) with GPS noise; once trained
//! their answers come from FQP or BQP. *Movers* drive a patternless
//! circle that is not commensurate with the period, so their answers
//! come from the motion function. Every sample is a pure function of
//! `(fleet seed, object, sample index)`, which lets the benchmark
//! compute the true future position of any object for error checks.

use hpm_core::HpmConfig;
use hpm_datagen::{Archetype, GeneratorConfig, PeriodicGenerator};
use hpm_geo::Point;
use hpm_objectstore::{IndexConfig, ObjectId, StoreConfig};
use hpm_patterns::{DiscoveryParams, MiningParams};
use hpm_rand::{splitmix64, NormalSampler, Rng, SmallRng};
use hpm_trajectory::Timestamp;
use std::cell::RefCell;
use std::rc::Rc;

/// Samples per period.
pub const PERIOD: u32 = 24;
/// Prediction lengths at or beyond this go to BQP, below it to FQP.
pub const DISTANT: u32 = 6;
/// Full periods of history every commuter has when set-up ends.
pub const TRAIN_SUBS: usize = 4;
/// Mean distance between neighbouring objects; the plane grows with
/// the fleet so density stays constant.
pub const SPACING: f64 = 50.0;
/// Distance of the plane from the axes.
pub const MARGIN: f64 = 1000.0;
/// GPS noise added to every commuter sample (std-dev).
const GPS_NOISE: f64 = 4.0;
/// GPS noise of mover samples (std-dev).
const MOVER_NOISE: f64 = 1.5;

/// The store configuration every workload uses. The worker pool is one
/// thread wide, so batch calls run inline on the server's connection
/// thread (see the README).
pub fn store_config() -> StoreConfig {
    StoreConfig {
        discovery: DiscoveryParams {
            period: PERIOD,
            eps: 20.0,
            min_pts: 3,
        },
        mining: MiningParams {
            min_support: 2,
            min_confidence: 0.3,
            max_premise_len: 2,
            max_premise_gap: 2,
            max_span: 8,
        },
        hpm: HpmConfig {
            k: 3,
            distant_threshold: DISTANT,
            time_relaxation: 2,
            match_margin: 20.0,
            // A retrospect the recent window cannot fit makes the
            // motion function the linear fit (see the README).
            rmf_retrospect: 6,
            ..HpmConfig::default()
        },
        min_train_subs: TRAIN_SUBS,
        retrain_every_subs: 1,
        recent_len: 6,
        shards: 8,
        threads: 1,
        index: IndexConfig::default(),
    }
}

/// What an object is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Commuter,
    Mover,
}

/// One tracked object: where its stream starts and how to generate it.
#[derive(Debug, Clone)]
pub struct Object {
    pub id: ObjectId,
    pub kind: Kind,
    /// Timestamp of the object's first report.
    pub start: Timestamp,
    /// Commuter: home; mover: centre of its circle.
    home: Point,
    /// Commuter: heading of the commute (radians); mover: initial
    /// phase on its circle.
    angle: f64,
    /// Mover: radius and angular speed (radians per step, signed).
    radius: f64,
    omega: f64,
    seed: u64,
    /// The two commuter periods generated last.
    cache: RefCell<Vec<(u64, Rc<[Point]>)>>,
}

/// Deterministic 64-bit mix of a seed and two keys.
fn mix(seed: u64, a: u64, b: u64) -> u64 {
    let mut s =
        seed ^ a.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ b.wrapping_mul(0xC2B2_AE3D_27D4_EB4F);
    splitmix64(&mut s)
}

impl Object {
    /// The sample this object reports at timestamp `t` (`t >= start`).
    pub fn sample(&self, t: Timestamp) -> Point {
        debug_assert!(t >= self.start);
        let k = t - self.start;
        match self.kind {
            Kind::Commuter => {
                self.period_cached(k / u64::from(PERIOD))[(k % u64::from(PERIOD)) as usize]
            }
            Kind::Mover => self.mover_sample(k),
        }
    }

    fn period_cached(&self, j: u64) -> Rc<[Point]> {
        let mut cache = self.cache.borrow_mut();
        if let Some(pos) = cache.iter().position(|(p, _)| *p == j) {
            return Rc::clone(&cache[pos].1);
        }
        let points: Rc<[Point]> = self.commuter_period(j).into();
        if cache.len() == 2 {
            cache.remove(0);
        }
        cache.push((j, Rc::clone(&points)));
        points
    }

    /// The samples of period `j` of a commuter (one call to the
    /// `hpm-datagen` generator seeded per period, so any period can be
    /// produced without replaying the earlier ones).
    pub fn commuter_period(&self, j: u64) -> Vec<Point> {
        let toward = |from: Point, angle: f64, len: f64| {
            let a = self.angle + angle;
            from + Point::new(len * a.cos(), len * a.sin())
        };
        // A round trip: out along a shared leg, then one of two forks
        // to work, and back along the shared leg.
        let shared = toward(self.home, 0.0, 120.0);
        let work = toward(self.home, 0.0, 300.0);
        let fork = |angle: f64| {
            vec![
                self.home,
                shared,
                toward(shared, angle, 110.0),
                work,
                shared,
                self.home,
            ]
        };
        let routes = vec![
            Archetype::new(fork(0.9), 3.0),
            Archetype::new(fork(-0.9), 2.0),
        ];
        let config = GeneratorConfig {
            period: PERIOD,
            num_subs: 1,
            similarity_prob: 1.0,
            point_noise: 2.0,
            route_noise: 3.0,
            extent: f64::MAX,
            seed: mix(self.seed, j, 0xC0),
        };
        PeriodicGenerator::new(config, routes)
            .with_gps_noise(GPS_NOISE)
            .generate_subs(1)
            .points()
            .to_vec()
    }

    fn mover_sample(&self, k: u64) -> Point {
        let phase = self.angle + self.omega * k as f64;
        let mut rng = SmallRng::seed_from_u64(mix(self.seed, k, 0x40));
        let mut normal = NormalSampler::new();
        Point::new(
            self.home.x + self.radius * phase.cos() + normal.sample(&mut rng, MOVER_NOISE),
            self.home.y + self.radius * phase.sin() + normal.sample(&mut rng, MOVER_NOISE),
        )
    }
}

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// A generated fleet on a square plane.
pub struct Fleet {
    pub objects: Vec<Object>,
    /// Side of the square the objects live in.
    pub side: f64,
}

impl Fleet {
    /// `commuters + movers` objects, ids `0..n`, kinds interleaved so
    /// every shard and every stretch of the plane holds both. Commuter
    /// `start`s are staggered over one period so retraining spreads
    /// evenly over time; movers start at `mover_start`.
    pub fn generate(seed: u64, commuters: usize, movers: usize, mover_start: Timestamp) -> Fleet {
        let n = commuters + movers;
        let cols = (n as f64).sqrt().ceil() as usize;
        let cells = cols * cols;
        let side = cols as f64 * SPACING;
        let stride = (cells / 3..cells)
            .find(|s| gcd(*s, cells) == 1)
            .expect("a stride coprime to the cell count");
        let mut rng = SmallRng::seed_from_u64(mix(seed, 0xF1EE7, 0));
        let mut objects = Vec::with_capacity(n);
        let mut ordinal = 0u64;
        for i in 0..n {
            // Spreads the commuters evenly over the id range.
            let commuter = (i + 1) * commuters / n > i * commuters / n;
            // One object per grid cell, at a random spot in the cell:
            // density is the same everywhere, so every query region
            // and kNN focus sees about as many objects. A stride
            // coprime to the cell count scatters ids (and so kinds)
            // over the plane.
            let cell = (i * stride) % cells;
            let home = Point::new(
                MARGIN + ((cell % cols) as f64 + rng.gen_f64()) * SPACING,
                MARGIN + ((cell / cols) as f64 + rng.gen_f64()) * SPACING,
            );
            let id = ObjectId(i as u64);
            let object = if commuter {
                ordinal += 1;
                Object {
                    id,
                    kind: Kind::Commuter,
                    // Every period offset gets the same share of
                    // commuters, whatever the kinds' interleave.
                    start: (ordinal - 1) % u64::from(PERIOD),
                    home,
                    angle: rng.gen_range(0.0..std::f64::consts::TAU),
                    radius: 0.0,
                    omega: 0.0,
                    seed: mix(seed, i as u64, 1),
                    cache: RefCell::default(),
                }
            } else {
                let radius = rng.gen_range(40.0..120.0);
                let speed = rng.gen_range(3.0..8.0);
                let sign = if rng.gen_f64() < 0.5 { -1.0 } else { 1.0 };
                Object {
                    id,
                    kind: Kind::Mover,
                    start: mover_start,
                    home,
                    angle: rng.gen_range(0.0..std::f64::consts::TAU),
                    radius,
                    omega: sign * speed / radius,
                    seed: mix(seed, i as u64, 2),
                    cache: RefCell::default(),
                }
            };
            objects.push(object);
        }
        Fleet { objects, side }
    }

    /// Ids of one kind.
    pub fn ids(&self, kind: Kind) -> Vec<ObjectId> {
        self.objects
            .iter()
            .filter(|o| o.kind == kind)
            .map(|o| o.id)
            .collect()
    }
}
