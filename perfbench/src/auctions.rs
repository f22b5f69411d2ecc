//! `cold-auctions` and `hot-auctions`: `run_auction` over loopback TCP.
//!
//! * cold: every request carries its own seeded instance, nine in ten
//!   Table I Setting I at N = 560, K = 30 and one in ten Setting III at
//!   N = 800, K = 200, so no request hits the cache and the engine does
//!   most of the work;
//! * hot: every request carries the same Setting I instance with its own
//!   draw seed, so after set-up the cost is wire, digest, draw and
//!   transport, and both connections share one cache key.

use std::sync::Arc;
use std::time::Instant;

use rand::Rng;

use mcs_auction::{
    AuctionOutcome, DpHsrcAuction, ExponentialMechanism, PricePmf, ScheduledMechanism, Strategy,
};
use mcs_num::rng;
use mcs_service::{
    decode_request, decode_response, CacheKey, MetricsReport, Request, Response, ServiceConfig,
    TcpClient,
};
use mcs_sim::Setting;
use mcs_types::{Instance, Price};

use crate::harness::{self, closed_loop, timed_call, Live, SetupLog, CONNECTIONS};
use crate::layers::{self, Layers};
use crate::stats::median;
use crate::trace::Tracer;
use crate::{durable, Args, Outcome, Tally, Tamper, Workload};

/// Table I's privacy budget.
pub const EPSILON: f64 = 0.1;
const SETTING_I_WORKERS: usize = 560;
const SETTING_III_WORKERS: usize = 800;
/// Timed ops per `--seconds`: about the reference machine's rate, so a
/// run measures for about `--seconds` while its op count stays fixed.
const COLD_OPS_PER_SECOND: u64 = 25;
const HOT_OPS_PER_SECOND: u64 = 130;
/// Cold: p95 sits mid-way through the Setting III mode (the top tenth).
/// Hot: p99, the one mode's upper end.
const COLD_TAIL: f64 = 0.95;
const HOT_TAIL: f64 = 0.99;
/// Cold ops per connection in one segment: one cycle of the mix, so both
/// connections start each segment with their Setting III op.
const COLD_SEGMENT: usize = 10;
/// Warm-up requests per connection in each set-up.
const WARM_UP_PER_CONNECTION: u64 = 2;
/// Op ids of warm-up and probe requests start here, clear of timed ids.
const WARM_UP_IDS: u64 = 1 << 40;
const PROBE_IDS: u64 = 1 << 41;
/// Seed streams.
const INSTANCE_STREAM: u64 = 0x1A57;
const DRAW_STREAM: u64 = 0xD4A3;
const HOT_STREAM: u64 = 0x4077;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Shape {
    SettingI,
    SettingIII,
}

impl Shape {
    fn generate(self, seed: u64) -> Instance {
        match self {
            Shape::SettingI => Setting::one(SETTING_I_WORKERS),
            Shape::SettingIII => Setting::three(SETTING_III_WORKERS),
        }
        .generate(seed)
        .instance
    }

    fn engine_span(self) -> &'static str {
        match self {
            Shape::SettingI => "engine.setting1",
            Shape::SettingIII => "engine.setting3",
        }
    }
}

#[derive(Clone, Copy)]
struct AuctionOp {
    id: u64,
    shape: Shape,
    instance_seed: u64,
    draw_seed: u64,
}

/// One answered (or failed) op.
struct Done {
    op: AuctionOp,
    /// When the round trip started and ended.
    window: (Instant, Instant),
    latency_ms: Option<f64>,
    outcome: Result<AuctionOutcome, String>,
}

fn derive(seed: u64, stream: u64, index: u64) -> u64 {
    rng::derived(seed ^ stream.rotate_left(32), index).gen()
}

fn hot(args: &Args) -> bool {
    args.workload == Workload::HotAuctions
}

fn timed_ops(args: &Args) -> u64 {
    let rate = if hot(args) {
        HOT_OPS_PER_SECOND
    } else {
        COLD_OPS_PER_SECOND
    };
    rate * args.seconds
}

/// The op script: `count` ops from id `first`, dealt to the connections.
/// On cold, each connection sends Setting III as the first of every ten.
fn script(args: &Args, first: u64, count: u64) -> Vec<Vec<AuctionOp>> {
    let hot_seed = derive(args.seed, HOT_STREAM, 0);
    let conns = CONNECTIONS as u64;
    (0..conns)
        .map(|c| {
            (0..count / conns + u64::from(c < count % conns))
                .map(|j| {
                    let id = first + j * conns + c;
                    let three = !hot(args) && j % 10 == 0;
                    AuctionOp {
                        id,
                        shape: if three {
                            Shape::SettingIII
                        } else {
                            Shape::SettingI
                        },
                        instance_seed: if hot(args) {
                            hot_seed
                        } else {
                            derive(args.seed, INSTANCE_STREAM, id)
                        },
                        draw_seed: derive(args.seed, DRAW_STREAM, id),
                    }
                })
                .collect()
        })
        .collect()
}

pub fn describe(args: &Args) -> String {
    let n = timed_ops(args);
    let (n, phases) = if args.trace {
        (n / 2, "half untraced then half traced")
    } else {
        (n, "untraced")
    };
    let threes: usize = script(args, 0, n)
        .iter()
        .flatten()
        .filter(|op| op.shape == Shape::SettingIII)
        .count();
    format!(
        "{} timed run_auction ops ({phases}; {} Setting I N={SETTING_I_WORKERS} K=30, {threes} \
         Setting III N={SETTING_III_WORKERS} K=200; {}), {} warm-up ops x {} set-ups",
        n,
        n - threes as u64,
        if hot(args) {
            "one shared instance, distinct draw seeds"
        } else {
            "distinct instances"
        },
        WARM_UP_PER_CONNECTION * CONNECTIONS as u64 + u64::from(hot(args)),
        harness::SETUPS
    )
}

fn request(op: &AuctionOp, hot_instance: Option<&Instance>) -> Request {
    Request::RunAuction {
        instance: hot_instance
            .cloned()
            .unwrap_or_else(|| op.shape.generate(op.instance_seed)),
        epsilon: EPSILON,
        seed: op.draw_seed,
    }
}

fn outcome_of(answer: &Result<Response, String>) -> Result<AuctionOutcome, String> {
    match answer {
        Ok(Response::Outcome(outcome)) => Ok(outcome.clone()),
        Ok(other) => Err(format!("answered {other:?}")),
        Err(err) => Err(err.clone()),
    }
}

/// The traced run's replay state.
struct TraceState {
    tracer: Tracer,
    /// The hot instance's PMF, which the service serves from its cache.
    cached: Option<Arc<PricePmf>>,
    request_bytes: Vec<f64>,
    intervals: Vec<f64>,
    /// Replayed draws that differ from the service's answer.
    mismatches: Vec<String>,
}

impl TraceState {
    fn new(origin: Instant, cached: Option<Arc<PricePmf>>) -> TraceState {
        TraceState {
            tracer: Tracer::new(origin),
            cached,
            request_bytes: Vec::new(),
            intervals: Vec::new(),
            mismatches: Vec::new(),
        }
    }

    /// Records each answered op's round trip as a root span, then replays
    /// its layers one op at a time, after the phase, so the layer calls
    /// neither compete with the timed round trips nor with each other.
    fn replay_phase(&mut self, done: &[Done], hot_instance: Option<&Instance>) {
        for d in done {
            let Ok(answer) = &d.outcome else { continue };
            let root = self
                .tracer
                .record(d.op.id, "op", None, d.window.0, d.window.1);
            let req = request(&d.op, hot_instance);
            let response = Response::Outcome(answer.clone());
            match replay(self, d.op.id, root, &req, &response, d.op.shape) {
                Ok(replayed) if &replayed == answer => {}
                Ok(replayed) => self.mismatches.push(format!(
                    "op {}: replayed draw {replayed:?} differs from the answer",
                    d.op.id
                )),
                Err(err) => self
                    .mismatches
                    .push(format!("op {}: replay: {err}", d.op.id)),
            }
        }
    }
}

/// Sends one op. A cold op carries its own request, generated before its
/// segment and handed back to be freed after it; a hot op re-seeds the
/// connection's one hot request. So no instance is generated, copied or
/// freed while the clock runs.
fn exec(
    hot: &mut Option<Request>,
    conn: &mut TcpClient,
    (op, cold): ColdOp,
) -> (Done, Option<Request>) {
    if let Some(Request::RunAuction { seed, .. }) = hot.as_mut() {
        *seed = op.draw_seed;
    }
    let request = cold
        .as_ref()
        .or(hot.as_ref())
        .expect("a cold op carries its request");
    let call = timed_call(conn, request);
    let done = Done {
        op,
        window: (call.start, call.end),
        latency_ms: call.latency_ms(),
        outcome: outcome_of(&call.answer),
    };
    (done, cold)
}

/// Replays, layer by layer, what the service does for one `run_auction`,
/// each call a span under `root`: client encode, server decode, cache
/// key digest, schedule build and PMF (unless the PMF is cached), the
/// seeded draw, and the response's encode plus client decode.
fn replay(
    trace: &mut TraceState,
    op: u64,
    root: usize,
    request: &Request,
    response: &Response,
    shape: Shape,
) -> Result<AuctionOutcome, String> {
    let tr = &mut trace.tracer;
    let parent = Some(root);
    let json = tr
        .time(op, "wire.encode", parent, || serde_json::to_string(request))
        .map_err(|e| e.to_string())?;
    trace.request_bytes.push(json.len() as f64);
    let decoded = tr
        .time(op, "wire.decode", parent, || decode_request(&json))
        .map_err(|e| e.to_string())?;
    let Request::RunAuction {
        instance,
        epsilon,
        seed,
    } = decoded
    else {
        return Err("request decoded to another endpoint".to_string());
    };
    tr.time(op, "digest", parent, || CacheKey::new(&instance, epsilon));
    let pmf = match &trace.cached {
        Some(pmf) => Arc::clone(pmf),
        None => {
            let strategy = ServiceConfig::default().strategy;
            let schedule = tr
                .time(op, shape.engine_span(), parent, || {
                    DpHsrcAuction::new(epsilon)?
                        .with_strategy(strategy)
                        .schedule(&instance)
                })
                .map_err(|e| e.to_string())?;
            trace.intervals.push(schedule.num_distinct_sets() as f64);
            let pmf = tr
                .time(op, "pmf", parent, || {
                    ExponentialMechanism::for_instance(epsilon, &instance).map(|m| m.pmf(schedule))
                })
                .map_err(|e| e.to_string())?;
            Arc::new(pmf)
        }
    };
    let outcome = tr.time(op, "draw", parent, || pmf.sample(&mut rng::seeded(seed)));
    tr.time(op, "wire.response", parent, || {
        serde_json::to_string(response)
            .map_err(|e| e.to_string())
            .and_then(|line| decode_response(&line).map_err(|e| e.to_string()))
    })?;
    Ok(outcome)
}

/// An op and, on cold, its request.
type ColdOp = (AuctionOp, Option<Request>);

/// Runs one phase over `scripts` and returns its ops in id order with
/// the phase's wall time. Hot runs as one closed loop. Cold runs in
/// segments of `COLD_SEGMENT` ops per connection: each segment's
/// instances are generated before it, off the clock, and the wall time
/// is the sum of the segments'.
fn phase(
    live: &mut Live,
    scripts: Vec<Vec<AuctionOp>>,
    hot_instance: Option<&Instance>,
) -> (Vec<Done>, f64) {
    let longest = scripts.iter().map(Vec::len).max().unwrap_or(0);
    let step = match hot_instance {
        Some(_) => longest.max(1),
        None => COLD_SEGMENT,
    };
    let mut done = Vec::new();
    let mut wall = 0.0;
    for from in (0..longest).step_by(step) {
        let work: Vec<(Option<Request>, Vec<ColdOp>)> = std::thread::scope(|scope| {
            let handles: Vec<_> = scripts
                .iter()
                .map(|ops| {
                    let segment = &ops[from.min(ops.len())..(from + step).min(ops.len())];
                    scope.spawn(move || match hot_instance {
                        Some(instance) => (
                            segment.first().map(|op| request(op, Some(instance))),
                            segment.iter().map(|op| (*op, None)).collect(),
                        ),
                        None => (
                            None,
                            segment
                                .iter()
                                .map(|op| (*op, Some(request(op, None))))
                                .collect(),
                        ),
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("generator thread panicked"))
                .collect()
        });
        let (results, w) = closed_loop(&mut live.conns, work, &exec);
        done.extend(
            results
                .into_iter()
                .flat_map(|(_, outs)| outs)
                .map(|(d, _)| d),
        );
        wall += w;
    }
    done.sort_by_key(|d| d.op.id);
    (done, wall)
}

/// The oracle: the outcome the service promises for `op`, byte for byte.
/// Cold instances are regenerated from their seeds; the PMF comes from
/// the `Incremental` engine, which the repository's equivalence suites
/// hold byte-identical to every other strategy, so the check is also a
/// differential one against the service's default engine. The hot PMF is
/// built once with `DpHsrcAuction`'s defaults.
fn check(args: &Args, done: &[Done], hot_pmf: Option<&PricePmf>) -> Vec<String> {
    let expected = |op: &AuctionOp| -> Result<AuctionOutcome, String> {
        let mut draw = rng::seeded(op.draw_seed);
        match hot_pmf {
            Some(pmf) => Ok(pmf.sample(&mut draw)),
            None => {
                let instance = op.shape.generate(op.instance_seed);
                let pmf = DpHsrcAuction::new(EPSILON)
                    .map_err(|e| e.to_string())?
                    .with_strategy(Strategy::Incremental)
                    .pmf(&instance)
                    .map_err(|e| e.to_string())?;
                Ok(pmf.sample(&mut draw))
            }
        }
    };
    let first = done.iter().map(|d| d.op.id).min();
    let verify = |d: &Done| -> Option<String> {
        let answered = d.outcome.as_ref().ok()?;
        let mut want = match expected(&d.op) {
            Ok(want) => want,
            Err(err) => return Some(format!("op {}: oracle failed: {err}", d.op.id)),
        };
        if args.tamper == Tamper::Outcome && Some(d.op.id) == first {
            want = AuctionOutcome::new(
                Price::from_tenths(want.price().tenths() + 1),
                want.winners().to_vec(),
            );
        }
        (answered != &want).then(|| {
            format!(
                "op {}: service answered price {} with {} winners, oracle says price {} with {}",
                d.op.id,
                answered.price(),
                answered.winners().len(),
                want.price(),
                want.winners().len()
            )
        })
    };
    let half = done.len().div_ceil(2);
    std::thread::scope(|scope| {
        let handles: Vec<_> = done
            .chunks(half.max(1))
            .map(|chunk| scope.spawn(move || chunk.iter().filter_map(verify).collect::<Vec<_>>()))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("check thread panicked"))
            .collect()
    })
}

/// Counts a phase's ops and failures into `tally`.
fn count(done: &[Done], tally: &mut Tally, mismatches: &mut Vec<String>) {
    for d in done {
        tally.attempted += 1;
        if let Err(err) = &d.outcome {
            tally.failed += 1;
            mismatches.push(format!("op {}: {err}", d.op.id));
        }
    }
}

fn mean_kb(bytes: &[f64]) -> f64 {
    bytes.iter().sum::<f64>() / bytes.len().max(1) as f64 / 1024.0
}

/// Share of PMF lookups over a phase that hit the cache.
fn hit_ratio(before: &MetricsReport, after: &MetricsReport) -> f64 {
    let hits = after.cache_hits - before.cache_hits;
    let misses = after.cache_misses - before.cache_misses;
    hits as f64 / (hits + misses).max(1) as f64
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut tally = Tally::default();
    let mut mismatches = Vec::new();
    let hot_instance =
        hot(args).then(|| Shape::SettingI.generate(derive(args.seed, HOT_STREAM, 0)));

    // Warm-up scripts, generated once; their instances are cloned before
    // each set-up so generation stays out of `setup_s`.
    let warm_up = script(
        args,
        WARM_UP_IDS,
        WARM_UP_PER_CONNECTION * CONNECTIONS as u64,
    );
    let warm_up_requests: Vec<Vec<Request>> = warm_up
        .iter()
        .map(|ops| {
            ops.iter()
                .map(|op| {
                    // The same Setting I instances under every seed, so
                    // `setup_s` does not move with the seed's draw.
                    let mut op = *op;
                    op.shape = Shape::SettingI;
                    op.instance_seed = derive(0, INSTANCE_STREAM, op.id);
                    request(&op, hot_instance.as_ref())
                })
                .collect()
        })
        .collect();
    let fill = hot_instance.as_ref().map(|instance| {
        request(
            &AuctionOp {
                id: WARM_UP_IDS - 1,
                shape: Shape::SettingI,
                instance_seed: 0,
                draw_seed: 0,
            },
            Some(instance),
        )
    });

    let mut make = |tally: &mut Tally| {
        let scripts = warm_up_requests.clone();
        harness::start(ServiceConfig::default(), tally, |conns, tally| {
            if let Some(fill) = &fill {
                tally.attempted += 1;
                outcome_of(&timed_call(&mut conns[0], fill).answer).map_err(|e| {
                    tally.failed += 1;
                    format!("warm-up fill: {e}")
                })?;
            }
            let work = scripts.into_iter().map(|ops| ((), ops)).collect();
            let (results, _) = closed_loop(conns, work, &|_: &mut (), conn, req: Request| {
                outcome_of(&timed_call(conn, &req).answer)
            });
            for answer in results.into_iter().flat_map(|(_, outs)| outs) {
                tally.attempted += 1;
                answer.map_err(|e| {
                    tally.failed += 1;
                    format!("warm-up op: {e}")
                })?;
            }
            Ok(())
        })
    };
    let (setups, mut live) = SetupLog::run(&mut tally, &mut make)?;
    harness::print_memory("after the set-ups");

    // The hot PMF as the service caches it, and as the oracle promises it.
    let hot_pmf = hot_instance
        .as_ref()
        .map(|instance| {
            DpHsrcAuction::new(EPSILON)
                .and_then(|auction| auction.pmf(instance))
                .map(Arc::new)
                .map_err(|e| format!("hot instance: {e}"))
        })
        .transpose()?;

    let n = timed_ops(args);
    let mut metrics = if !args.trace {
        let (done, wall) = phase(&mut live, script(args, 0, n), hot_instance.as_ref());
        let latencies: Vec<Option<f64>> = done.iter().map(|d| d.latency_ms).collect();
        let tail = if hot(args) { HOT_TAIL } else { COLD_TAIL };
        let metrics = harness::end_to_end(&latencies, wall, tail);
        live.stop();
        count(&done, &mut tally, &mut mismatches);
        let failed = check(args, &done, hot_pmf.as_deref());
        tally.failed += failed.len() as u64;
        mismatches.extend(failed);
        metrics
    } else {
        let quarter = (n / 4).max(CONNECTIONS as u64);
        let (untraced, _) = phase(&mut live, script(args, 0, quarter), hot_instance.as_ref());
        let origin = Instant::now();
        let before = live.metrics()?;
        let (traced, _) = phase(
            &mut live,
            script(args, quarter, quarter),
            hot_instance.as_ref(),
        );
        let after = live.metrics()?;
        live.stop();
        let mut trace = TraceState::new(origin, hot_pmf.clone());
        trace.replay_phase(&traced, hot_instance.as_ref());
        tally.failed += trace.mismatches.len() as u64;
        mismatches.append(&mut trace.mismatches);
        crate::write_spans(args, &trace.tracer)?;
        let traced_p50 = layers::print_breakdown(&trace.tracer);
        let mut untraced_ms: Vec<f64> = untraced.iter().filter_map(|d| d.latency_ms).collect();
        let mut on_path = Layers::default();
        let values = &mut on_path.values;
        values.insert("wire.request_kb", mean_kb(&trace.request_bytes));
        values.insert("cache.hit_ratio", hit_ratio(&before, &after));
        values.insert(
            "server.batched_ratio",
            harness::batched_ratio(&before, &after),
        );
        values.insert("tcp.accept_ms", median(&mut setups.accept_ms.clone()));
        values.insert("trace.p50_ms", traced_p50);
        values.insert("trace.overhead_ms", traced_p50 - median(&mut untraced_ms));
        if !trace.intervals.is_empty() {
            values.insert("engine.intervals", median(&mut trace.intervals));
        }
        on_path.spans = Some(trace.tracer);

        let mut side = Layers::default();
        side_probe(args, &mut side)?;
        durable::side_probe(args, &mut side)?;
        let metrics = layers::metrics(&on_path, &side)?;

        for done in [&untraced, &traced] {
            count(done, &mut tally, &mut mismatches);
            let failed = check(args, done, hot_pmf.as_deref());
            tally.failed += failed.len() as u64;
            mismatches.extend(failed);
        }
        metrics
    };
    if !args.trace {
        metrics.insert(0, setups.metric());
    }
    Ok(Outcome {
        tally,
        mismatches,
        metrics,
    })
}

/// Cold replays of two Setting I instances (the first the hot one) and one
/// Setting III instance, with the same spans as a cold op: the engine
/// layer for hot-auctions, which never reaches it after set-up, for
/// durable-rounds, and for a cold run too short to send Setting III.
pub fn side_probe(args: &Args, side: &mut Layers) -> Result<(), String> {
    let mut trace = TraceState::new(Instant::now(), None);
    let probes = [
        (Shape::SettingI, derive(args.seed, HOT_STREAM, 0)),
        (
            Shape::SettingI,
            derive(args.seed, INSTANCE_STREAM, PROBE_IDS),
        ),
        (
            Shape::SettingIII,
            derive(args.seed, INSTANCE_STREAM, PROBE_IDS + 1),
        ),
    ];
    for (i, (shape, instance_seed)) in probes.into_iter().enumerate() {
        let id = PROBE_IDS + i as u64;
        let op = AuctionOp {
            id,
            shape,
            instance_seed,
            draw_seed: id,
        };
        let req = request(&op, None);
        let at = Instant::now();
        let root = trace.tracer.record(id, "probe", None, at, at);
        let placeholder = Response::Outcome(AuctionOutcome::new(Price::ZERO, Vec::new()));
        replay(&mut trace, id, root, &req, &placeholder, shape)?;
    }
    let mut intervals = trace.intervals;
    side.values
        .insert("engine.intervals", median(&mut intervals));
    side.values
        .insert("wire.request_kb", mean_kb(&trace.request_bytes));
    side.add_spans(trace.tracer);
    Ok(())
}
