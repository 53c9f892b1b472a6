//! The traced run: the per-layer split of every verb.
//!
//! The run is the end-to-end loop with its rounds rotated through
//! three phases, so all of them see the same host drift and the same
//! fleet state. Plain rounds (instrumentation off, over the wire) give
//! each verb's end-to-end p50. Traced rounds run with `hpm-obs` on:
//! their p50s against the plain ones are the tracing overhead, and the
//! counter deltas (which only move while `hpm-obs` is on) give the
//! per-query and per-report ratios. Split rounds, untraced, alternate
//! between the wire and direct calls into the store, with a flush probe
//! before every fleet query, so each verb's time splits into index
//! flush, store work, codec and the remainder. Probes after the loop
//! count index work per query from the `hpm-obs` sums, and time the
//! lower layers through their public functions: single predicts by
//! answer path, the incremental training stages, forced retrains,
//! memory accounting, the snapshot and the reopen.

use crate::fleet::{store_config, Kind, PERIOD};
use crate::ops::{Path, Phase, Verb, PREDICT_HORIZONS};
use crate::stats::{mean, median, ratio, Metrics};
use crate::workload::{Bench, Round, Spec};
use crate::{print_counts, print_env, Args};
use hpm_core::{PredictionSource, TrainerState};
use hpm_geo::Point;
use hpm_objectstore::metrics as om;
use hpm_objectstore::ObjectId;
use hpm_server::proto::{decode_request, decode_response, encode_request, encode_response};
use hpm_server::{Request, RequestBody, Response, ResponseBody};
use hpm_trajectory::Trajectory;
use std::time::Instant;

/// The verbs a request can be split for.
const VERBS: [Verb; 6] = [
    Verb::Report,
    Verb::Predict,
    Verb::Range,
    Verb::Knn,
    Verb::Within,
    Verb::KnnProb,
];
/// Encode/decode repetitions per kept frame.
const CODEC_REPS: u32 = 20;
/// Single predicts timed per run.
const CORE_PREDICTS: usize = 1200;
/// In-process queries per fleet verb whose index work is counted.
const INDEX_PROBES: usize = 40;
/// Commuters whose training stages and forced retrains are timed.
const TRAIN_SAMPLES: usize = 20;

/// Per-round-trip codec cost of the kept frames: (encode µs, decode µs,
/// request bytes, response bytes), each a mean over the frames.
fn codec(frames: &[(RequestBody, ResponseBody)]) -> [f64; 4] {
    if frames.is_empty() {
        return [f64::NAN; 4];
    }
    let mut buf = Vec::new();
    let (mut enc, mut dec, mut req_bytes, mut resp_bytes) = (0.0, 0.0, 0.0, 0.0);
    for (req, resp) in frames {
        let request = Request {
            correlation: 7,
            body: req.clone(),
        };
        let response = Response {
            correlation: 7,
            body: resp.clone(),
        };
        let started = Instant::now();
        for _ in 0..CODEC_REPS {
            encode_request(std::hint::black_box(&request), &mut buf);
        }
        enc += started.elapsed().as_secs_f64();
        req_bytes += buf.len() as f64;
        let started = Instant::now();
        for _ in 0..CODEC_REPS {
            std::hint::black_box(decode_request(std::hint::black_box(&buf)).expect("decodes"));
        }
        dec += started.elapsed().as_secs_f64();
        let started = Instant::now();
        for _ in 0..CODEC_REPS {
            encode_response(std::hint::black_box(&response), &mut buf);
        }
        enc += started.elapsed().as_secs_f64();
        resp_bytes += buf.len() as f64;
        let started = Instant::now();
        for _ in 0..CODEC_REPS {
            std::hint::black_box(decode_response(std::hint::black_box(&buf)).expect("decodes"));
        }
        dec += started.elapsed().as_secs_f64();
    }
    let n = frames.len() as f64;
    let per_call = 1e6 / (n * f64::from(CODEC_REPS));
    [
        enc * per_call,
        dec * per_call,
        req_bytes / n,
        resp_bytes / n,
    ]
}

/// Exact count of a histogram (span calls or recorded values) in a
/// snapshot.
fn count(snap: &hpm_obs::MetricsSnapshot, name: &str) -> u64 {
    snap.histogram(name).map_or(0, |h| h.count)
}

fn counter(snap: &hpm_obs::MetricsSnapshot, name: &str) -> u64 {
    snap.counter(name).unwrap_or(0)
}

/// Single `predict` calls in-process, timed and grouped by the path
/// that answered: (µs samples, errors) per FQP, BQP, fallback.
fn core_paths(bench: &Bench) -> [(Vec<f64>, Vec<f64>); 3] {
    let mut out: [(Vec<f64>, Vec<f64>); 3] = Default::default();
    let n = bench.fleet.objects.len();
    for i in 0..CORE_PREDICTS {
        let object = &bench.fleet.objects[(i * 7919) % n];
        let last = object.start + bench.rec.acked[object.id.0 as usize] - 1;
        let tq = last + PREDICT_HORIZONS[i % PREDICT_HORIZONS.len()];
        let started = Instant::now();
        let p = bench.hosted.store.predict(object.id, tq).expect("predict");
        let us = started.elapsed().as_secs_f64() * 1e6;
        let slot = match p.source {
            PredictionSource::ForwardPatterns => 0,
            PredictionSource::BackwardPatterns => 1,
            PredictionSource::MotionFunction => 2,
        };
        out[slot].0.push(us);
        out[slot].1.push(p.best().distance(&object.sample(tq)));
    }
    out
}

/// The incremental training stages on sampled commuter histories:
/// seed a trainer on all but the last period, then time the pass that
/// folds the last period in. Returns median ms of (decompose, cluster,
/// mine) and the ids sampled.
fn training_stages(bench: &Bench) -> ([f64; 3], Vec<ObjectId>) {
    let config = store_config();
    let commuters: Vec<_> = bench
        .fleet
        .objects
        .iter()
        .filter(|o| o.kind == Kind::Commuter)
        .collect();
    let step = (commuters.len() / TRAIN_SAMPLES).max(1);
    let mut times: [Vec<f64>; 3] = Default::default();
    let mut ids = Vec::new();
    for object in commuters.iter().step_by(step).take(TRAIN_SAMPLES) {
        let last = object.start + bench.rec.acked[object.id.0 as usize] - 1;
        let points: Vec<Point> = (object.start..=last).map(|t| object.sample(t)).collect();
        let split = points.len() - PERIOD as usize;
        let prefix = Trajectory::new(object.start, points[..split].to_vec());
        let full = Trajectory::new(object.start, points);
        let mut trainer = TrainerState::new(config.discovery, config.mining);
        trainer.seed(&prefix);
        let started = Instant::now();
        let delta = trainer.stage_decompose(&full);
        times[0].push(started.elapsed().as_secs_f64() * 1e3);
        let started = Instant::now();
        let visits = trainer.stage_cluster(&delta);
        times[1].push(started.elapsed().as_secs_f64() * 1e3);
        if let Ok(visits) = visits {
            let started = Instant::now();
            std::hint::black_box(trainer.stage_mine(&visits));
            times[2].push(started.elapsed().as_secs_f64() * 1e3);
        }
        ids.push(object.id);
    }
    (times.map(|t| median(&t)), ids)
}

pub fn run(args: &Args, spec: Spec) -> (bool, u64, u64, Metrics) {
    let mut bench = Bench::set_up(spec, args.seed);
    print_env(args, &bench);

    // Rounds rotate through the phases: plain, traced, split over the
    // wire, split in-process. Counters and histograms only move while
    // `hpm-obs` is on, that is in traced rounds.
    let before = hpm_obs::snapshot();
    bench.run_loop(args.seconds, |r| match r % 4 {
        0 => Round::Plain,
        1 => Round::Traced,
        2 => Round::Split(Path::Wire),
        _ => Round::Split(Path::Local),
    });
    let after = hpm_obs::snapshot();
    let rec = &bench.rec;
    let untraced = VERBS.map(|v| median(rec.samples(Phase::Plain, v, Path::Wire)));
    let traced = VERBS.map(|v| median(rec.samples(Phase::Traced, v, Path::Wire)));
    let local = VERBS.map(|v| median(rec.samples(Phase::Split, v, Path::Local)));
    let wire = VERBS.map(|v| median(rec.samples(Phase::Split, v, Path::Wire)));
    let flush_ms = median(rec.samples(Phase::Split, Verb::Flush, Path::Local));
    let codecs = VERBS.map(|v| codec(&rec.frames[Verb::ALL.iter().position(|&a| a == v).unwrap()]));
    let reports = rec.reports[Phase::Traced as usize] as f64;
    let refits =
        (count(&after, om::INDEX_UPDATE_SPAN) - count(&before, om::INDEX_UPDATE_SPAN)) as f64;
    let refits_per_query = ratio(refits, rec.fleet_queries[Phase::Traced as usize] as f64);
    let retrains: [f64; 3] = [
        om::RETRAINS_INCREMENTAL,
        om::RETRAINS_FULL,
        om::RETRAIN_DRIFT_FALLBACKS,
    ]
    .map(|c| (counter(&after, c) - counter(&before, c)) as f64);
    let retrains_per_kreport = ratio(retrains.iter().sum::<f64>() * 1e3, reports);

    // Index work per in-process fleet query, from the obs sums taken
    // around each call.
    hpm_obs::enable();
    bench.index_probe(INDEX_PROBES);
    hpm_obs::disable();
    let rec = &bench.rec;
    let per_result = |verb: Verb| {
        let uses: Vec<_> = rec.index.iter().filter(|u| u.verb == verb).collect();
        ratio(
            uses.iter().map(|u| u.candidates as f64).sum(),
            uses.iter().map(|u| u.answers as f64).sum(),
        )
    };
    let knn_pruned: Vec<f64> = rec
        .index
        .iter()
        .filter(|u| u.verb == Verb::Knn)
        .map(|u| u.pruned as f64)
        .collect();
    let candidates_per_result = [per_result(Verb::Range), per_result(Verb::Knn)];

    // Lower layers through their public functions.
    let paths = core_paths(&bench);
    let answered: usize = paths.iter().map(|p| p.0.len()).sum();
    let (stages, sampled) = training_stages(&bench);
    let retrain_ms: Vec<f64> = sampled
        .iter()
        .map(|&id| {
            let started = Instant::now();
            bench.hosted.store.force_retrain(id).expect("force_retrain");
            started.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    let memory = bench.hosted.store.memory_use();
    let objects = memory.objects as f64;
    hpm_obs::enable();

    let done = bench.finish(|b| {
        let started = Instant::now();
        assert!(
            b.hosted.store.snapshot().expect("snapshot"),
            "durable store"
        );
        started.elapsed().as_secs_f64() * 1e3
    });
    let replayed = hpm_obs::registry().gauge(om::RECOVERY_REPLAYED).value() as f64;
    print_counts(&done.rec);

    // The split, verb by verb.
    println!(
        "{:<9}{:>10}{:>10}{:>10}{:>10}{:>14}{:>10}{:>12}{:>10}",
        "verb",
        "e2e_p50",
        "flush",
        "store",
        "codec",
        "unattributed",
        "wire",
        "traced_p50",
        "overhead"
    );
    let mut m = Metrics::default();
    let mut unattributed = [0.0; 6];
    for (i, verb) in VERBS.iter().enumerate() {
        let flush = if Verb::FLEET.contains(verb) {
            flush_ms
        } else {
            0.0
        };
        let codec_ms = (codecs[i][0] + codecs[i][1]) / 1e3;
        unattributed[i] = untraced[i] - flush - local[i] - codec_ms;
        if untraced[i].is_nan() {
            continue;
        }
        println!(
            "{:<9}{:>10.4}{:>10.4}{:>10.4}{:>10.4}{:>14.4}{:>10.4}{:>12.4}{:>9.1}%",
            verb.name(),
            untraced[i],
            flush,
            local[i],
            codec_ms,
            unattributed[i],
            wire[i] - local[i],
            traced[i],
            (traced[i] / untraced[i] - 1.0) * 100.0
        );
    }
    for (i, verb) in VERBS.iter().enumerate() {
        let name = verb.name();
        m.add(format!("server.{name}.encode_us"), codecs[i][0], "us");
        m.add(format!("server.{name}.decode_us"), codecs[i][1], "us");
        m.add(
            format!("server.{name}.request_bytes"),
            codecs[i][2],
            "bytes",
        );
        m.add(
            format!("server.{name}.response_bytes"),
            codecs[i][3],
            "bytes",
        );
        m.add(format!("server.{name}.wire_ms"), wire[i] - local[i], "ms");
        m.add(
            format!("server.{name}.unattributed_ms"),
            unattributed[i],
            "ms",
        );
    }
    let (sum_traced, sum_untraced) = untraced
        .iter()
        .zip(&traced)
        .filter(|(u, t)| u.is_finite() && t.is_finite())
        .fold((0.0, 0.0), |(st, su), (u, t)| (st + t, su + u));
    m.add("trace.overhead", sum_traced / sum_untraced - 1.0, "share");

    m.add("objectstore.report_many_ms", local[0], "ms");
    m.add("objectstore.flush_ms", flush_ms, "ms");
    m.add(
        "objectstore.envelopes_refit_per_query",
        refits_per_query,
        "count",
    );
    for (i, name) in ["predict_batch", "range", "knn", "within", "knn_prob"]
        .iter()
        .enumerate()
    {
        m.add(format!("objectstore.{name}_ms"), local[i + 1], "ms");
    }
    m.add(
        "objectstore.range_candidates_per_result",
        candidates_per_result[0],
        "ratio",
    );
    m.add(
        "objectstore.knn_candidates_per_result",
        candidates_per_result[1],
        "ratio",
    );
    m.add("objectstore.knn_buckets_pruned", mean(&knn_pruned), "count");
    m.add(
        "objectstore.index_bytes_per_object",
        memory.index_bytes as f64 / objects,
        "bytes",
    );

    for (i, path) in ["fqp", "bqp", "fallback"].iter().enumerate() {
        m.add(format!("core.predict_{path}_us"), median(&paths[i].0), "us");
    }
    for (i, path) in ["fqp", "bqp", "fallback"].iter().enumerate() {
        m.add(
            format!("core.share_{path}"),
            paths[i].0.len() as f64 / answered as f64,
            "share",
        );
    }
    for (i, path) in ["fqp", "bqp", "fallback"].iter().enumerate() {
        m.add(format!("core.error_{path}"), mean(&paths[i].1), "units");
    }
    m.add("core.retrain_ms", median(&retrain_ms), "ms");
    m.add(
        "core.retrains_per_kreport",
        retrains_per_kreport,
        "1/kreport",
    );
    m.add(
        "core.predictor_bytes_per_object",
        memory.predictor_bytes as f64 / objects,
        "bytes",
    );
    m.add(
        "core.trainer_bytes_per_object",
        memory.trainer_bytes as f64 / objects,
        "bytes",
    );
    m.add("trajectory.decompose_ms", stages[0], "ms");
    m.add(
        "trajectory.history_bytes_per_object",
        memory.history_bytes as f64 / objects,
        "bytes",
    );
    m.add(
        "trajectory.compression_ratio",
        memory.history_compression_ratio(),
        "ratio",
    );
    m.add("clustering.cluster_ms", stages[1], "ms");
    m.add("patterns.mine_ms", stages[2], "ms");
    m.add(
        "store.wal_bytes_per_report",
        done.wal_bytes_per_report,
        "bytes",
    );
    m.add("store.snapshot_ms", done.snapshot_ms, "ms");
    m.add(
        "store.snapshot_bytes_per_object",
        done.snapshot_bytes as f64 / objects,
        "bytes",
    );
    m.add("store.replayed_records", replayed, "count");
    println!(
        "traced rounds: retrains incremental={} full={} drift_fallback={} over {reports} reports; fleet queries refit {refits} envelopes",
        retrains[0], retrains[1], retrains[2]
    );
    for metric in &m.0 {
        println!(
            "layer {:<44} {:>14.4} {}",
            metric.name, metric.value, metric.unit
        );
    }
    (
        done.rec.problems.is_empty(),
        done.rec.attempted_total(),
        done.rec.failed_total(),
        m,
    )
}
