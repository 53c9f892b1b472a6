//! The operations the workloads issue, run over the wire or directly
//! against the store, timed one by one, and checked one by one against
//! properties every answer must have.

use crate::fleet::{Fleet, Kind, DISTANT};
use hpm_core::PredictScratch;
use hpm_geo::{BoundingBox, Point};
use hpm_objectstore::{MovingObjectStore, ObjectId};
use hpm_server::{Client, RequestBody, ResponseBody};
use hpm_trajectory::Timestamp;
use std::time::Instant;

/// The region of the flush probe: no object ever lives there.
const FLUSH_REGION: BoundingBox = BoundingBox {
    min: Point { x: -2.0, y: -2.0 },
    max: Point { x: -1.0, y: -1.0 },
};

/// Largest mass accepted as "at most 1": four ulps of rounding slack.
const MASS_MAX: f64 = 1.0 + 4.0 * f64::EPSILON;

/// Side of the square regions of range and within queries.
const REGION_SIDE: f64 = 250.0;
/// Neighbours asked for by both kNN verbs.
pub const K: usize = 10;
/// Probability threshold of `within` and `knn_prob`.
pub const TAU: f64 = 0.5;

/// The verbs the workloads send, each timed under its own name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verb {
    Report,
    Predict,
    Range,
    Knn,
    Within,
    KnnProb,
    /// An empty-region range query sent only to bring the index up to
    /// date; timed apart from `Range`.
    Flush,
}

impl Verb {
    pub const ALL: [Verb; 7] = [
        Verb::Report,
        Verb::Predict,
        Verb::Range,
        Verb::Knn,
        Verb::Within,
        Verb::KnnProb,
        Verb::Flush,
    ];
    /// The four fleet queries, in the order the workloads rotate them.
    pub const FLEET: [Verb; 4] = [Verb::Range, Verb::Knn, Verb::Within, Verb::KnnProb];

    pub fn name(self) -> &'static str {
        match self {
            Verb::Report => "report",
            Verb::Predict => "predict",
            Verb::Range => "range",
            Verb::Knn => "knn",
            Verb::Within => "within",
            Verb::KnnProb => "knn_prob",
            Verb::Flush => "flush",
        }
    }

    pub fn of(body: &RequestBody) -> Verb {
        match body {
            RequestBody::ReportMany(_) => Verb::Report,
            RequestBody::PredictBatch(_) => Verb::Predict,
            RequestBody::PredictRange { region, .. } if *region == FLUSH_REGION => Verb::Flush,
            RequestBody::PredictRange { .. } => Verb::Range,
            RequestBody::PredictNearest { .. } => Verb::Knn,
            RequestBody::PredictWithin { .. } => Verb::Within,
            RequestBody::PredictNearestProb { .. } => Verb::KnnProb,
            other => panic!("not a workload verb: {other:?}"),
        }
    }
}

/// Runs `body` in-process exactly as the server's request executor
/// does, so wire time minus in-process time is the cost of the server
/// layer alone.
pub fn execute_local(
    store: &MovingObjectStore,
    scratch: &mut PredictScratch,
    body: &RequestBody,
) -> ResponseBody {
    match body {
        RequestBody::ReportMany(reports) => ResponseBody::Ingested(store.report_many(reports)),
        RequestBody::PredictBatch(queries) => ResponseBody::Predictions(
            queries
                .iter()
                .map(|&(id, t)| store.predict_with_scratch(id, t, scratch))
                .collect(),
        ),
        RequestBody::PredictRange { region, query_time } => {
            ResponseBody::Range(store.predict_range(region, *query_time))
        }
        RequestBody::PredictNearest {
            focus,
            query_time,
            k,
        } => ResponseBody::Nearest(store.predict_nearest(focus, *query_time, *k as usize)),
        RequestBody::PredictWithin {
            region,
            query_time,
            tau,
        } => ResponseBody::Within(store.predict_within(region, *query_time, *tau)),
        RequestBody::PredictNearestProb {
            focus,
            query_time,
            k,
            tau,
        } => ResponseBody::NearestProb(store.predict_nearest_prob(
            focus,
            *query_time,
            *k as usize,
            *tau,
        )),
        other => panic!("not a workload verb: {other:?}"),
    }
}

/// Where an operation runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Path {
    Wire,
    Local,
}

/// One prediction scored against the generator's true position.
#[derive(Debug, Clone, Copy)]
pub struct Scored {
    pub kind: Kind,
    pub horizon: u64,
    /// Euclidean error of the best answer.
    pub error: f64,
    /// Error of the last known position (the object's latest report).
    pub lkp_error: f64,
}

/// What the rounds of a run are for; the traced run rotates all three
/// round by round, so they share the host's drift and the fleet's
/// state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Phase {
    /// Over the wire with instrumentation off: what a client sees.
    #[default]
    Plain,
    /// Over the wire with `hpm-obs` on.
    Traced,
    /// The layer split: wire and in-process rounds, a flush probe
    /// before every fleet query.
    Split,
}

/// Per-verb latencies, counts, prediction errors and any answer that
/// broke a property.
#[derive(Default)]
pub struct Recorder {
    /// The phase operations are recorded under.
    pub phase: Phase,
    /// Latency samples in milliseconds, per phase, path and [`Verb`].
    samples: [[[Vec<f64>; 7]; 2]; 3],
    pub attempted: [u64; 7],
    pub failed: [u64; 7],
    pub scored: Vec<Scored>,
    pub problems: Vec<String>,
    /// Reports acknowledged, per object id, set-up included; reports
    /// are contiguous, so an object's latest timestamp is
    /// `start + acked - 1`.
    pub acked: Vec<u64>,
    /// Reports acknowledged and fleet queries run, per phase.
    pub reports: [u64; 3],
    /// Reports per second of each report frame of the plain phase.
    pub report_rates: Vec<f64>,
    pub fleet_queries: [u64; 3],
    /// Up to [`KEPT_FRAMES`] request/response pairs per verb from the
    /// split phase, for the codec timings.
    pub frames: [Vec<(RequestBody, ResponseBody)>; 7],
    /// Index work of each in-process fleet query of the split phase
    /// made while `hpm-obs` is on.
    pub index: Vec<IndexUse>,
}

/// Request/response pairs kept per verb for the codec timings.
pub const KEPT_FRAMES: usize = 32;

/// What one in-process fleet query did in the index, from the
/// `hpm-obs` histogram sums around the call.
#[derive(Debug, Clone, Copy)]
pub struct IndexUse {
    pub verb: Verb,
    pub candidates: u64,
    pub pruned: u64,
    pub answers: usize,
}

/// Sum of an `hpm-obs` value histogram (0 while instrumentation is off).
fn hist_sum(name: &'static str) -> u64 {
    hpm_obs::registry()
        .histogram(name, hpm_obs::Unit::Count)
        .snapshot()
        .sum
}

fn slot(verb: Verb) -> usize {
    Verb::ALL
        .iter()
        .position(|&v| v == verb)
        .expect("known verb")
}

impl Recorder {
    /// A recorder for `fleet` after set-up reported every object up to
    /// `setup_end` (exclusive).
    pub fn new(fleet: &Fleet, setup_end: Timestamp) -> Recorder {
        Recorder {
            acked: fleet
                .objects
                .iter()
                .map(|o| setup_end.saturating_sub(o.start))
                .collect(),
            ..Recorder::default()
        }
    }

    /// Forgets the latency samples and frame rates (counts, scores and
    /// frames stay).
    pub fn clear_samples(&mut self) {
        self.samples = Default::default();
        self.report_rates.clear();
    }

    pub fn samples(&self, phase: Phase, verb: Verb, path: Path) -> &[f64] {
        &self.samples[phase as usize][path as usize][slot(verb)]
    }

    pub fn problem(&mut self, what: String) {
        if self.problems.len() < 20 {
            eprintln!("CHECK FAILED: {what}");
        }
        self.problems.push(what);
    }

    pub fn attempted_total(&self) -> u64 {
        self.attempted.iter().sum()
    }

    pub fn failed_total(&self) -> u64 {
        self.failed.iter().sum()
    }
}

/// The context an operation runs in.
pub struct Ctx<'a> {
    pub fleet: &'a Fleet,
    pub client: &'a mut Client,
    pub store: &'a MovingObjectStore,
    pub scratch: &'a mut PredictScratch,
    pub rec: &'a mut Recorder,
}

impl Ctx<'_> {
    /// Runs one operation, times it, counts it and checks its answer.
    /// Returns the latency in milliseconds.
    pub fn run(&mut self, body: RequestBody, path: Path) -> f64 {
        let verb = Verb::of(&body);
        let split = self.rec.phase == Phase::Split;
        let counted =
            split && hpm_obs::enabled() && path == Path::Local && Verb::FLEET.contains(&verb);
        let before = counted.then(|| {
            (
                hist_sum(hpm_objectstore::metrics::INDEX_CANDIDATES),
                hist_sum(hpm_objectstore::metrics::INDEX_PARTITIONS_PRUNED),
            )
        });
        let (resp, ms) = match path {
            Path::Wire => {
                let wire_body = body.clone();
                let started = Instant::now();
                let resp = self.client.call(wire_body).expect("loopback round trip");
                (resp, started.elapsed().as_secs_f64() * 1e3)
            }
            Path::Local => {
                let started = Instant::now();
                let resp = execute_local(self.store, self.scratch, &body);
                (resp, started.elapsed().as_secs_f64() * 1e3)
            }
        };
        let s = slot(verb);
        let phase = self.rec.phase as usize;
        self.rec.attempted[s] += 1;
        self.rec.samples[phase][path as usize][s].push(ms);
        if let (RequestBody::ReportMany(reports), Phase::Plain) = (&body, self.rec.phase) {
            self.rec.report_rates.push(reports.len() as f64 * 1e3 / ms);
        }
        if Verb::FLEET.contains(&verb) {
            self.rec.fleet_queries[phase] += 1;
        }
        if let Some((candidates, pruned)) = before {
            self.rec.index.push(IndexUse {
                verb,
                candidates: hist_sum(hpm_objectstore::metrics::INDEX_CANDIDATES) - candidates,
                pruned: hist_sum(hpm_objectstore::metrics::INDEX_PARTITIONS_PRUNED) - pruned,
                answers: answers(&resp),
            });
        }
        if !self.check(&body, &resp) {
            self.rec.failed[s] += 1;
        }
        if split && self.rec.frames[s].len() < KEPT_FRAMES {
            self.rec.frames[s].push((body, resp));
        }
        ms
    }

    /// Checks one answer; `false` when the operation failed (a typed
    /// error came back). Wrong answers are recorded as problems.
    fn check(&mut self, body: &RequestBody, resp: &ResponseBody) -> bool {
        match (body, resp) {
            (RequestBody::ReportMany(reports), ResponseBody::Ingested(results)) => {
                let mut ok = results.len() == reports.len();
                for ((id, _, _), r) in reports.iter().zip(results) {
                    match r {
                        Ok(()) => {
                            self.rec.acked[id.0 as usize] += 1;
                            self.rec.reports[self.rec.phase as usize] += 1;
                        }
                        Err(e) => {
                            ok = false;
                            self.rec.problem(format!("report of {id} refused: {e}"));
                        }
                    }
                }
                ok
            }
            (RequestBody::PredictBatch(queries), ResponseBody::Predictions(results)) => {
                let mut ok = results.len() == queries.len();
                for (&(id, tq), r) in queries.iter().zip(results) {
                    match r.as_ref().map(|p| p.try_best()) {
                        Ok(Some(best)) => {
                            let object = &self.fleet.objects[id.0 as usize];
                            let last = object.start + self.rec.acked[id.0 as usize] - 1;
                            let truth = object.sample(tq);
                            self.rec.scored.push(Scored {
                                kind: object.kind,
                                horizon: tq - last,
                                error: best.distance(&truth),
                                lkp_error: object.sample(last).distance(&truth),
                            });
                        }
                        Ok(None) => {
                            ok = false;
                            self.rec
                                .problem(format!("empty prediction for {id} at {tq}"));
                        }
                        Err(e) => {
                            ok = false;
                            self.rec
                                .problem(format!("predict {id} at {tq} refused: {e}"));
                        }
                    }
                }
                ok
            }
            (RequestBody::PredictRange { region, .. }, ResponseBody::Range(hits)) => {
                if *region == FLUSH_REGION && !hits.is_empty() {
                    self.rec
                        .problem("the flush probe's empty region matched objects".into());
                }
                let sorted = hits.windows(2).all(|w| w[0].0 < w[1].0);
                let inside = hits.iter().all(|(_, p)| region.contains(p));
                if !(sorted && inside) {
                    self.rec.problem(format!(
                        "range answer unsorted ({sorted}) or outside its region ({inside})"
                    ));
                }
                true
            }
            (RequestBody::PredictWithin { tau, .. }, ResponseBody::Within(hits)) => {
                let sorted = hits.windows(2).all(|w| w[0].0 < w[1].0);
                // A mass is a sum of answer shares, which can round a
                // few ulps above 1.
                let masses = hits
                    .iter()
                    .all(|&(_, _, m)| (0.0..=MASS_MAX).contains(&m) && m >= *tau);
                if !(sorted && masses) {
                    self.rec.problem(format!(
                        "within answer unsorted ({sorted}) or with a mass outside [tau, 1] ({masses})"
                    ));
                }
                true
            }
            (RequestBody::PredictNearest { focus, k, .. }, ResponseBody::Nearest(hits)) => {
                let exact = hits.iter().all(|(_, p, d)| p.distance(focus) == *d);
                self.check_ranked(hits, *k, exact, "knn");
                true
            }
            (RequestBody::PredictNearestProb { k, .. }, ResponseBody::NearestProb(hits)) => {
                let finite = hits.iter().all(|&(_, _, r)| r.is_finite() && r >= 0.0);
                self.check_ranked(hits, *k, finite, "knn_prob");
                true
            }
            (_, other) => {
                self.rec.problem(format!(
                    "unexpected response {:?}",
                    std::mem::discriminant(other)
                ));
                false
            }
        }
    }

    fn check_ranked(&mut self, hits: &[(ObjectId, Point, f64)], k: u64, valid: bool, what: &str) {
        let ranked = hits
            .windows(2)
            .all(|w| w[0].2.total_cmp(&w[1].2).then(w[0].0.cmp(&w[1].0)).is_lt());
        if !(ranked && valid && hits.len() as u64 <= k) {
            self.rec.problem(format!(
                "{what} answer misranked ({ranked}), with bad distances ({valid}) or over k ({})",
                hits.len()
            ));
        }
    }
}

/// Hits in a fleet-query answer.
fn answers(resp: &ResponseBody) -> usize {
    match resp {
        ResponseBody::Range(h) => h.len(),
        ResponseBody::Nearest(h) | ResponseBody::Within(h) | ResponseBody::NearestProb(h) => {
            h.len()
        }
        _ => 0,
    }
}

/// Draws fleet queries and predict frames from one seeded stream.
pub struct QueryGen {
    rng: hpm_rand::SmallRng,
    side: f64,
    commuters: Vec<ObjectId>,
    movers: Vec<ObjectId>,
    /// Fleet queries asked so far, per fleet verb.
    asked: [usize; 4],
    predict_frame: usize,
}

/// Prediction lengths of fleet queries: both sides of `DISTANT`, so
/// FQP and BQP both answer. An odd count keeps each verb's median
/// inside one horizon's spread of costs rather than between two.
pub const FLEET_HORIZONS: [u64; 5] = [2, 4, 7, 10, 14];
/// Prediction lengths of each predict frame, cycled per position.
pub const PREDICT_HORIZONS: [u64; 8] = [1, 2, 3, 5, 6, 9, 12, 16];

const _: () = assert!(FLEET_HORIZONS[1] < DISTANT as u64 && FLEET_HORIZONS[2] >= DISTANT as u64);

impl QueryGen {
    pub fn new(seed: u64, fleet: &Fleet, predict_frame: usize) -> QueryGen {
        QueryGen {
            rng: hpm_rand::SmallRng::seed_from_u64(seed ^ 0x9E37_79B9_7F4A_7C15),
            side: fleet.side,
            commuters: fleet.ids(Kind::Commuter),
            movers: fleet.ids(Kind::Mover),
            asked: [0; 4],
            predict_frame,
        }
    }

    fn focus(&mut self) -> Point {
        use hpm_rand::Rng;
        let m = crate::fleet::MARGIN;
        Point::new(
            m + self.rng.gen_range(0.0..self.side),
            m + self.rng.gen_range(0.0..self.side),
        )
    }

    /// The next prediction length for `verb`: each fleet verb cycles
    /// through every horizon on its own.
    fn horizon(&mut self, verb: Verb) -> u64 {
        let slot = Verb::FLEET
            .iter()
            .position(|&v| v == verb)
            .expect("a fleet verb");
        let h = FLEET_HORIZONS[self.asked[slot] % FLEET_HORIZONS.len()];
        self.asked[slot] += 1;
        h
    }

    /// A square region around a random focus.
    pub fn region(&mut self) -> BoundingBox {
        let c = self.focus();
        let h = REGION_SIDE / 2.0;
        BoundingBox {
            min: Point::new(c.x - h, c.y - h),
            max: Point::new(c.x + h, c.y + h),
        }
    }

    /// One fleet query of `verb` asked at `now`.
    pub fn fleet_query(&mut self, verb: Verb, now: Timestamp) -> RequestBody {
        let query_time = now + self.horizon(verb);
        match verb {
            Verb::Range => RequestBody::PredictRange {
                region: self.region(),
                query_time,
            },
            Verb::Within => RequestBody::PredictWithin {
                region: self.region(),
                query_time,
                tau: TAU,
            },
            Verb::Knn => RequestBody::PredictNearest {
                focus: self.focus(),
                query_time,
                k: K as u64,
            },
            Verb::KnnProb => RequestBody::PredictNearestProb {
                focus: self.focus(),
                query_time,
                k: K as u64,
                tau: TAU,
            },
            other => panic!("{} is not a fleet query", other.name()),
        }
    }

    /// A predict frame: alternating commuters and movers (commuters
    /// only when the fleet has no movers), horizons cycled by position
    /// so every frame has the same make-up.
    pub fn predict_frame(&mut self, now: Timestamp) -> RequestBody {
        use hpm_rand::Rng;
        let queries = (0..self.predict_frame)
            .map(|i| {
                let pool = if i % 2 == 1 && !self.movers.is_empty() {
                    &self.movers
                } else {
                    &self.commuters
                };
                let id = pool[self.rng.gen_range(0..pool.len())];
                (id, now + PREDICT_HORIZONS[i % PREDICT_HORIZONS.len()])
            })
            .collect();
        RequestBody::PredictBatch(queries)
    }

    /// The empty-region range query that forces an index flush.
    pub fn flush_probe(now: Timestamp) -> RequestBody {
        RequestBody::PredictRange {
            region: FLUSH_REGION,
            query_time: now + 1,
        }
    }
}
