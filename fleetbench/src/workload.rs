//! The three workloads: set-up, the closed request loop, and the
//! checks and durability round trip that follow it.

use crate::fleet::{Fleet, Kind, DISTANT, PERIOD, TRAIN_SUBS};
use crate::host::{open_store, DataDir, Hosted};
use crate::ops::{Ctx, Path, Phase, QueryGen, Recorder, Verb, K, TAU};
use crate::stats::median;
use hpm_core::{PredictScratch, Prediction};
use hpm_geo::{BoundingBox, Point};
use hpm_objectstore::{ObjectId, QueryError};
use hpm_server::{Client, RequestBody};
use hpm_trajectory::Timestamp;
use std::time::Instant;

/// First timestamp after set-up. Every commuter has at least
/// `TRAIN_SUBS` full periods by then (starts are staggered over one
/// period) and the fleet's current time sits mid-period, where FQP
/// can still look ahead inside the period.
pub const SETUP_END: Timestamp = (TRAIN_SUBS as u64 + 1) * PERIOD as u64 + 10;
/// Reports each mover has when set-up ends: exactly one recent window.
const MOVER_REPORTS: u64 = 6;
/// Reopens at the end of a run. Every repetition but the last also
/// ends with one; `recover_s` is the fastest of them all. The first
/// reopen of a store also pays for faulting in fresh memory; the later
/// ones reuse the heap the previous one freed.
const FINAL_REOPENS: usize = 2;
/// Reports per frame while loading a fleet.
const LOAD_FRAME: usize = 4096;
/// Ids per `predict_batch` frame of the full-fleet oracle.
const ORACLE_FRAME: usize = 2048;
/// Objects that report once more between the final snapshot and the
/// reopen, so recovery replays a WAL tail of this many records.
const TAIL: usize = 2048;

/// Share of a feed run spent querying the fleet before the stream.
const FEED_QUERY_SHARE: f64 = 1.0 / 3.0;

/// What a workload sends and how big its fleet is.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub commuters: usize,
    pub movers: usize,
    /// Reports per `report_many` frame in the loop.
    pub frame: usize,
    /// Ids per `predict_batch` frame.
    pub predict_frame: usize,
}

pub const WORKLOADS: [&str; 3] = ["feed", "query", "mixed"];

impl Spec {
    /// The workload named `name`; `short` shrinks the fleet for the
    /// benchmark's own test.
    pub fn named(name: &str, short: bool) -> Option<Spec> {
        let div = if short { 25 } else { 1 };
        let spec = match name {
            "feed" => Spec {
                name: "feed",
                commuters: 1600 / div,
                movers: 400 / div,
                frame: 512,
                predict_frame: 16,
            },
            "query" => Spec {
                name: "query",
                commuters: 1000 / div,
                movers: 99_000 / div,
                frame: 512,
                predict_frame: 32,
            },
            "mixed" => Spec {
                name: "mixed",
                commuters: 2000 / div,
                movers: 18_000 / div,
                frame: 256,
                predict_frame: 32,
            },
            _ => return None,
        };
        Some(spec)
    }

    pub fn objects(&self) -> usize {
        self.commuters + self.movers
    }
}

/// How one round of the loop runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Round {
    /// Over the wire with instrumentation off.
    Plain,
    /// Over the wire with `hpm-obs` on.
    Traced,
    /// The layer split over the given path: a flush probe precedes
    /// every fleet query, so the query's own time excludes the flush.
    Split(Path),
}

/// A running workload: the hosted store, its client and the stream.
pub struct Bench {
    pub spec: Spec,
    pub fleet: Fleet,
    pub dir: DataDir,
    pub hosted: Hosted,
    pub client: Client,
    pub scratch: PredictScratch,
    pub rec: Recorder,
    pub gen: QueryGen,
    /// The latest timestamp any object has reported.
    pub now: Timestamp,
    /// Next object (index) to report at `now + 1` in the stream.
    cursor: usize,
    /// The fleet's reports before [`SETUP_END`], in time order: what
    /// every set-up loads.
    history: Vec<(ObjectId, Timestamp, Point)>,
    /// Seconds each set-up took.
    pub setup_s: Vec<f64>,
    /// Median reports per second of each set-up's load frames.
    pub load_rates: Vec<f64>,
    /// `store.mem.bytes_per_object` when set-up ended.
    pub bytes_per_object: f64,
    /// Seconds each timed reopen took.
    recover_s: Vec<f64>,
}

/// The reports of every object at `t`, in id order.
fn step_reports(fleet: &Fleet, t: Timestamp) -> Vec<(ObjectId, Timestamp, Point)> {
    fleet
        .objects
        .iter()
        .filter(|o| t >= o.start)
        .map(|o| (o.id, t, o.sample(t)))
        .collect()
}

impl Bench {
    /// Generates the fleet and sets up: opens a fresh durable store,
    /// serves it, loads the fleet's history over the wire and flushes
    /// the index.
    pub fn set_up(spec: Spec, seed: u64) -> Bench {
        let fleet = Fleet::generate(seed, spec.commuters, spec.movers, SETUP_END - MOVER_REPORTS);
        let mut history = Vec::new();
        for t in 0..SETUP_END {
            history.extend(step_reports(&fleet, t));
        }
        let loaded = Loaded::new(spec, &history);
        let rec = Recorder::new(&fleet, SETUP_END);
        let gen = QueryGen::new(seed, &fleet, spec.predict_frame);
        let mut bench = Bench {
            spec,
            fleet,
            dir: loaded.dir,
            hosted: loaded.hosted,
            client: loaded.client,
            scratch: PredictScratch::new(),
            rec,
            gen,
            now: SETUP_END - 1,
            cursor: 0,
            history,
            setup_s: vec![loaded.seconds],
            load_rates: vec![loaded.rate],
            bytes_per_object: 0.0,
            recover_s: Vec::new(),
        };
        // Read once the fleet is loaded: later the state depends on how
        // far the run's stream got, which depends on the host's speed.
        bench.bytes_per_object = bench.pull_bytes_per_object();
        bench
    }

    /// Ends a repetition with the durability round trip (snapshot,
    /// WAL tail, one timed reopen) and sets up afresh from the same
    /// history, so the next repetition starts from the same state as
    /// the first. Counts, scores and the query stream carry on.
    pub fn next_repetition(mut self) -> Bench {
        self.complete_step();
        let ok = self.client.snapshot().expect("snapshot round trip");
        assert_eq!(ok, Ok(true), "a durable store snapshots");
        let probe = self.probe_before_reopen();
        let Bench {
            spec,
            fleet,
            dir,
            hosted,
            client,
            scratch,
            mut rec,
            gen,
            history,
            mut setup_s,
            mut load_rates,
            bytes_per_object,
            mut recover_s,
            ..
        } = self;
        drop(client);
        drop(hosted.stop());
        recover_s.extend(probe.reopen(&dir, 1, &mut rec));
        drop(dir);
        let loaded = Loaded::new(spec, &history);
        setup_s.push(loaded.seconds);
        load_rates.push(loaded.rate);
        rec.acked = Recorder::new(&fleet, SETUP_END).acked;
        Bench {
            spec,
            fleet,
            dir: loaded.dir,
            hosted: loaded.hosted,
            client: loaded.client,
            scratch,
            rec,
            gen,
            now: SETUP_END - 1,
            cursor: 0,
            history,
            setup_s,
            load_rates,
            bytes_per_object,
            recover_s,
        }
    }

    fn ctx(&mut self) -> Ctx<'_> {
        Ctx {
            fleet: &self.fleet,
            client: &mut self.client,
            store: &self.hosted.store,
            scratch: &mut self.scratch,
            rec: &mut self.rec,
        }
    }

    fn run(&mut self, body: RequestBody, path: Path) {
        self.ctx().run(body, path);
    }

    /// A fleet query of `verb` (or a predict frame), preceded by a
    /// flush probe in a split round.
    fn query(&mut self, verb: Verb, path: Path) {
        // Mid-step, part of the fleet has already reported `now + 1`.
        let base = if self.cursor == 0 {
            self.now
        } else {
            self.now + 1
        };
        let body = if verb == Verb::Predict {
            self.gen.predict_frame(base)
        } else {
            self.gen.fleet_query(verb, base)
        };
        if self.rec.phase == Phase::Split && verb != Verb::Predict {
            self.run(QueryGen::flush_probe(base), path);
        }
        self.run(body, path);
    }

    /// The next frame of the time-sliced stream: the next `frame`
    /// objects (distinct) at `now + 1`, moving `now` on once the whole
    /// fleet has reported it.
    fn next_frame(&mut self) -> Vec<(ObjectId, Timestamp, Point)> {
        let t = self.now + 1;
        let end = (self.cursor + self.spec.frame).min(self.fleet.objects.len());
        let reports = self.fleet.objects[self.cursor..end]
            .iter()
            .map(|o| (o.id, t, o.sample(t)))
            .collect();
        self.cursor = end;
        if self.cursor == self.fleet.objects.len() {
            self.cursor = 0;
            self.now = t;
        }
        reports
    }

    fn report_frame(&mut self, path: Path) {
        let reports = self.next_frame();
        self.run(RequestBody::ReportMany(reports), path);
    }

    /// The closed request loop for `seconds`, in whole rounds; `plan`
    /// says how round `r` runs. Returns the rounds run.
    pub fn run_loop(&mut self, seconds: f64, plan: impl Fn(u64) -> Round) -> u64 {
        let started = Instant::now();
        let mut rounds = 0u64;
        let cycle = [
            Verb::Range,
            Verb::Knn,
            Verb::Within,
            Verb::KnnProb,
            Verb::Predict,
        ];
        let mut round = |bench: &mut Bench, body: &dyn Fn(&mut Bench, Path)| {
            let kind = plan(rounds);
            let (phase, path) = match kind {
                Round::Plain => (Phase::Plain, Path::Wire),
                Round::Traced => (Phase::Traced, Path::Wire),
                Round::Split(path) => (Phase::Split, path),
            };
            bench.rec.phase = phase;
            if kind == Round::Traced {
                hpm_obs::enable();
            }
            body(bench, path);
            if kind == Round::Traced {
                hpm_obs::disable();
            }
            rounds += 1;
        };
        match self.spec.name {
            "feed" => {
                // Query the fleet as set-up left it (flushed, ingest
                // paused) for the first third of the run, then stream
                // whole time steps, a small predict frame after every
                // report frame. Querying first keeps the queried state
                // the same whatever the host's speed, and predict frames
                // only ever follow report frames.
                self.run(QueryGen::flush_probe(self.now), Path::Wire);
                while started.elapsed().as_secs_f64() < seconds * FEED_QUERY_SHARE {
                    round(self, &|b, p| {
                        for verb in Verb::FLEET {
                            b.query(verb, p);
                        }
                    });
                }
                while started.elapsed().as_secs_f64() < seconds {
                    round(self, &|b, p| loop {
                        b.report_frame(p);
                        b.query(Verb::Predict, p);
                        if b.cursor == 0 {
                            break;
                        }
                    });
                }
            }
            "query" => {
                while started.elapsed().as_secs_f64() < seconds {
                    round(self, &|b, p| {
                        for verb in cycle {
                            b.query(verb, p);
                        }
                    });
                }
            }
            "mixed" => {
                while started.elapsed().as_secs_f64() < seconds {
                    round(self, &|b, p| {
                        for verb in cycle {
                            b.report_frame(p);
                            b.query(verb, p);
                        }
                    });
                }
            }
            other => unreachable!("unknown workload {other}"),
        }
        self.rec.phase = Phase::Plain;
        rounds
    }

    /// `per_verb` in-process queries of each fleet verb after a flush,
    /// with ingest paused (the traced run counts their index work).
    pub fn index_probe(&mut self, per_verb: usize) {
        self.complete_step();
        self.rec.phase = Phase::Split;
        self.run(QueryGen::flush_probe(self.now), Path::Local);
        for verb in Verb::FLEET {
            for _ in 0..per_verb {
                let body = self.gen.fleet_query(verb, self.now);
                self.run(body, Path::Local);
            }
        }
        self.rec.phase = Phase::Plain;
    }

    /// Completes the time step the stream is in, so every object
    /// reports in lock-step again (not timed).
    fn complete_step(&mut self) {
        while self.cursor != 0 {
            let reports = self.next_frame();
            self.load(&reports);
        }
    }

    /// Ingests reports outside the measurement, checking each is
    /// acknowledged.
    fn load(&mut self, reports: &[(ObjectId, Timestamp, Point)]) {
        let results = self.client.report_many(reports).expect("report round trip");
        for ((id, _, _), r) in reports.iter().zip(&results) {
            match r {
                Ok(()) => self.rec.acked[id.0 as usize] += 1,
                Err(e) => self.rec.problem(format!("report of {id} refused: {e}")),
            }
        }
    }

    /// Full-fleet predictions at `tq` over the wire, in id order.
    fn predict_all(&mut self, tq: Timestamp) -> Vec<(ObjectId, Prediction)> {
        let ids: Vec<(ObjectId, Timestamp)> =
            self.fleet.objects.iter().map(|o| (o.id, tq)).collect();
        let mut out = Vec::with_capacity(ids.len());
        for chunk in ids.chunks(ORACLE_FRAME) {
            let results = self.client.predict_batch(chunk).expect("oracle round trip");
            for (&(id, _), r) in chunk.iter().zip(results) {
                match r {
                    Ok(p) => out.push((id, p)),
                    Err(e) => self
                        .rec
                        .problem(format!("oracle predict of {id} refused: {e}")),
                }
            }
        }
        out
    }

    /// Compares sampled fleet queries against the benchmark's own
    /// computation over a full-fleet `predict_batch`, with ingest
    /// paused: range and within answers must equal a filter over the
    /// predictions, kNN answers the benchmark's sort by (distance, id).
    fn check_fleet_queries(&mut self) {
        self.complete_step();
        for h in [3, 9] {
            let tq = self.now + h;
            let all = self.predict_all(tq);
            for _ in 0..4 {
                let region = self.gen.region();
                let mut want: Vec<(ObjectId, Point)> = all
                    .iter()
                    .filter_map(|(id, p)| Some((*id, p.try_best()?)))
                    .filter(|(_, b)| region.contains(b))
                    .collect();
                want.sort_by_key(|w| w.0);
                let got = self.client.predict_range(&region, tq).expect("range");
                self.expect_eq("range", &got, &want);

                let want: Vec<(ObjectId, Point, f64)> = all
                    .iter()
                    .filter(|(_, p)| p.possibly_in(&region))
                    .filter_map(|(id, p)| {
                        let mass = p.probability_in(&region);
                        (mass >= TAU).then_some((*id, p.try_best()?, mass))
                    })
                    .collect();
                let got = self
                    .client
                    .predict_within(&region, tq, TAU)
                    .expect("within");
                self.expect_eq("within", &got, &want);

                let focus = region.center();
                let mut want: Vec<(ObjectId, Point, f64)> = all
                    .iter()
                    .filter_map(|(id, p)| {
                        let b = p.try_best()?;
                        Some((*id, b, b.distance(&focus)))
                    })
                    .collect();
                want.sort_by(|a, b| a.2.total_cmp(&b.2).then(a.0.cmp(&b.0)));
                want.truncate(K);
                let got = self.client.predict_nearest(&focus, tq, K).expect("knn");
                self.expect_eq("knn", &got, &want);

                let mut want: Vec<(ObjectId, Point, f64)> = all
                    .iter()
                    .filter_map(|(id, p)| {
                        let r = p.confidence_distance(&focus, TAU);
                        r.is_finite().then_some((*id, p.try_best()?, r))
                    })
                    .collect();
                want.sort_by(|a, b| a.2.total_cmp(&b.2).then(a.0.cmp(&b.0)));
                want.truncate(K);
                let got = self
                    .client
                    .predict_nearest_prob(&focus, tq, K, TAU)
                    .expect("knn_prob");
                self.expect_eq("knn_prob", &got, &want);
            }
        }
    }

    fn expect_eq<T: PartialEq + std::fmt::Debug>(&mut self, what: &str, got: &[T], want: &[T]) {
        if got != want {
            self.rec.problem(format!(
                "{what} answer differs from the benchmark's own computation: got {} hits, want {} (first got {:?}, first want {:?})",
                got.len(),
                want.len(),
                got.first(),
                want.first()
            ));
        }
    }

    /// `stats` sample counts of sampled objects must equal the reports
    /// the benchmark had acknowledged for them.
    fn check_stats(&mut self) {
        let n = self.fleet.objects.len();
        for i in (0..n).step_by((n / 64).max(1)) {
            let id = ObjectId(i as u64);
            match self.client.stats(id).expect("stats round trip") {
                Ok(s) if s.samples as u64 == self.rec.acked[i] => {}
                Ok(s) => self.rec.problem(format!(
                    "{id} holds {} samples, {} were acknowledged",
                    s.samples, self.rec.acked[i]
                )),
                Err(e) => self.rec.problem(format!("stats of {id} refused: {e}")),
            }
        }
    }

    /// On commuters at horizons at or beyond the distant threshold,
    /// HPM must beat the last known position.
    fn check_beats_last_position(&mut self) {
        let far: Vec<_> = self
            .rec
            .scored
            .iter()
            .filter(|s| s.kind == Kind::Commuter && s.horizon >= u64::from(DISTANT))
            .collect();
        let hpm = far.iter().map(|s| s.error).sum::<f64>() / far.len() as f64;
        let lkp = far.iter().map(|s| s.lkp_error).sum::<f64>() / far.len() as f64;
        println!(
            "distant commuter answers: {} scored, HPM mean error {hpm:.2}, last-known-position mean error {lkp:.2}",
            far.len()
        );
        if far.is_empty() || hpm.is_nan() || hpm >= lkp {
            self.rec.problem(format!(
                "HPM mean error {hpm:.2} does not beat the last known position {lkp:.2} on {} distant commuter answers",
                far.len()
            ));
        }
    }

    /// `store.mem.bytes_per_object` pulled over the Metrics verb. The
    /// memory gauges only record while instrumentation is on, so it is
    /// switched on around the call when it is off.
    fn pull_bytes_per_object(&mut self) -> f64 {
        let was_on = hpm_obs::enabled();
        hpm_obs::enable();
        let json = self.client.metrics_json().expect("metrics round trip");
        if !was_on {
            hpm_obs::disable();
        }
        let parsed = hpm_obs::json::parse(&json).expect("metrics JSON parses");
        parsed
            .get("gauges")
            .and_then(|g| g.get("store.mem.bytes_per_object"))
            .and_then(|v| v.as_f64())
            .expect("store.mem.bytes_per_object gauge")
    }

    /// After a snapshot: reports a WAL tail of [`TAIL`] records and
    /// asks the store the answers a reopen must give again.
    fn probe_before_reopen(&mut self) -> ReopenProbe {
        let t = self.now + 1;
        let tail: Vec<_> = self.fleet.objects[..TAIL.min(self.fleet.objects.len())]
            .iter()
            .map(|o| (o.id, t, o.sample(t)))
            .collect();
        self.load(&tail);
        let queries: Vec<(ObjectId, Timestamp)> = (0..self.fleet.objects.len())
            .step_by((self.fleet.objects.len() / 256).max(1))
            .flat_map(|i| [(ObjectId(i as u64), t + 2), (ObjectId(i as u64), t + 9)])
            .collect();
        let before = self
            .client
            .predict_batch(&queries)
            .expect("predict round trip");
        let region = self.gen.region();
        let focus = region.center();
        let range = self.client.predict_range(&region, t + 3).expect("range");
        let knn_prob = self
            .client
            .predict_nearest_prob(&focus, t + 9, K, TAU)
            .expect("knn_prob");
        ReopenProbe {
            t,
            queries,
            before,
            region,
            range,
            knn_prob,
        }
    }

    /// Everything after the measured loop: answer checks with ingest
    /// paused, the final snapshot, a WAL tail, a stop and
    /// [`FINAL_REOPENS`] timed reopens whose answers must be
    /// bit-identical to the answers the store gave before it closed.
    /// `snapshot` takes the final snapshot and returns its duration in
    /// milliseconds.
    pub fn finish(mut self, snapshot: impl FnOnce(&mut Bench) -> f64) -> Finished {
        self.check_fleet_queries();
        self.check_stats();
        self.check_beats_last_position();
        self.hosted.store.flush_wal().expect("flush WAL");
        let reports: u64 = self.rec.acked.iter().sum();
        let wal_bytes_per_report = self.dir.bytes_of("wal-") as f64 / reports as f64;
        let snapshot_ms = snapshot(&mut self);
        let snapshot_bytes = self.dir.bytes_of("snap-");
        let probe = self.probe_before_reopen();
        let Bench {
            hosted,
            dir,
            client,
            mut rec,
            mut recover_s,
            ..
        } = self;
        drop(client);
        drop(hosted.stop());
        recover_s.extend(probe.reopen(&dir, FINAL_REOPENS, &mut rec));
        println!("reopen seconds: {recover_s:.4?}");
        drop(dir);
        Finished {
            rec,
            wal_bytes_per_report,
            snapshot_ms,
            snapshot_bytes,
            recover_s: recover_s.iter().copied().fold(f64::MAX, f64::min),
        }
    }
}

/// The answers a stopped store gave before it closed.
struct ReopenProbe {
    /// The timestamp of the WAL tail.
    t: Timestamp,
    queries: Vec<(ObjectId, Timestamp)>,
    before: Vec<Result<Prediction, QueryError>>,
    region: BoundingBox,
    range: Vec<(ObjectId, Point)>,
    knn_prob: Vec<(ObjectId, Point, f64)>,
}

impl ReopenProbe {
    /// Reopens the store in `dir` `times` times, timing each, and
    /// checks that the last reopened store answers bit-identically.
    fn reopen(&self, dir: &DataDir, times: usize, rec: &mut Recorder) -> Vec<f64> {
        let mut recover = Vec::new();
        let mut store = None;
        for _ in 0..times {
            drop(store.take());
            let started = Instant::now();
            store = Some(open_store(dir.path()));
            recover.push(started.elapsed().as_secs_f64());
        }
        let store = store.expect("reopened store");
        let t = self.t;
        let focus = self.region.center();
        let same = bit_identical(&self.before, &store.predict_batch(&self.queries))
            && store.predict_range(&self.region, t + 3) == self.range
            && store.predict_nearest_prob(&focus, t + 9, K, TAU) == self.knn_prob;
        if !same {
            rec.problem("answers after the reopen differ from the answers before it".into());
        }
        recover
    }
}

/// A store loaded with the fleet's history and served, timed.
struct Loaded {
    dir: DataDir,
    hosted: Hosted,
    client: Client,
    seconds: f64,
    /// The median load frame's reports per second.
    rate: f64,
}

impl Loaded {
    fn new(spec: Spec, history: &[(ObjectId, Timestamp, Point)]) -> Loaded {
        let started = Instant::now();
        let dir = DataDir::fresh(spec.name);
        let hosted = Hosted::serve(open_store(dir.path()));
        let mut client = hosted.connect();
        let mut rates = Vec::new();
        for frame in history.chunks(LOAD_FRAME) {
            let sent = Instant::now();
            let results = client.report_many(frame).expect("load frame round trip");
            rates.push(frame.len() as f64 / sent.elapsed().as_secs_f64());
            assert!(
                results.iter().all(Result::is_ok),
                "the generated history must load cleanly"
            );
        }
        let probe = client
            .call(QueryGen::flush_probe(SETUP_END - 1))
            .expect("flush round trip");
        assert!(matches!(probe, hpm_server::ResponseBody::Range(ref r) if r.is_empty()));
        Loaded {
            dir,
            hosted,
            client,
            seconds: started.elapsed().as_secs_f64(),
            rate: median(&rates),
        }
    }
}

/// Predictions compared bit for bit (`-0.0` and `0.0` differ, NaN
/// equals itself).
fn bit_identical(
    a: &[Result<Prediction, QueryError>],
    b: &[Result<Prediction, QueryError>],
) -> bool {
    let bits = |p: &Prediction| {
        let mut v = vec![p.source as u64];
        for ans in &p.answers {
            let u = &ans.uncertainty;
            v.extend(
                [
                    ans.location.x,
                    ans.location.y,
                    ans.score,
                    u.region.min.x,
                    u.region.min.y,
                    u.region.max.x,
                    u.region.max.y,
                    u.mass,
                ]
                .map(f64::to_bits),
            );
            v.push(ans.pattern.map_or(u64::MAX, u64::from));
        }
        v
    };
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| match (x, y) {
            (Ok(p), Ok(q)) => bits(p) == bits(q),
            (Err(e), Err(f)) => e == f,
            _ => false,
        })
}

/// What [`Bench::finish`] measured.
pub struct Finished {
    pub rec: Recorder,
    pub wal_bytes_per_report: f64,
    pub snapshot_ms: f64,
    pub snapshot_bytes: u64,
    pub recover_s: f64,
}
