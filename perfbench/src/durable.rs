//! `durable-rounds`: the write path (`envelope`, `wal`, `ledger`,
//! `stream`), which the auction workloads never reach.
//!
//! Each connection repeats a cycle on its own ids: a round (`open_round`
//! with a 60-worker roster and K = 10, 60 pre-signed `submit_bid`,
//! `commit_round`), then a stream on the same roster (`open_stream`, 60
//! pre-signed `arrive`, `close_stream`). The service starts on a seeded
//! history of settled rounds, so set-up is WAL recovery, and snapshot
//! rotation rewrites a ledger of realistic size.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use rand::seq::SliceRandom;
use rand::Rng;

use ed25519::{hex_encode, SigningKey};
use mcs_num::rng;
use mcs_service::{
    decode_public_key, decode_request, decode_response, system_now_ms, BidEnvelope,
    DurabilityConfig, DurableLedger, FsyncPolicy, MetricsReport, Request, Response, RosterEntry,
    RoundSpec, Service, ServiceConfig, StreamSpec, TcpClient, WalEvent, WalWriter,
    FRAME_HEADER_LEN, SNAPSHOT_FILE, WAL_FILE,
};
use mcs_types::{Bid, Bundle, Price, TaskId, WorkerId};

use crate::harness::{self, closed_loop, timed_call, Live, SetupLog, CONNECTIONS};
use crate::layers::{self, Layers};
use crate::stats::{median, quantile};
use crate::trace::Tracer;
use crate::{auctions, Args, Outcome, Tally, Tamper};

const ROSTER: u32 = 60;
const TASKS: u32 = 10;
/// Settled rounds written before set-up, and bids in each.
const HISTORY_ROUNDS: u64 = 300;
const HISTORY_BIDS: u32 = 12;
/// Rounds in the small history of the side probe.
const PROBE_HISTORY_ROUNDS: u64 = 16;
/// Tasks per bid: live bids cover 3 consecutive tasks (each task gets
/// 18 bids), history bids 5 (each task gets 6).
const LIVE_BUNDLE: u32 = 3;
const HISTORY_BUNDLE: u32 = 5;
/// Stream arrivals observed before the price is posted.
const SAMPLE_TARGET: usize = 15;
/// p99.5: inside the mode of snapshot-rotating closes and the ops that
/// wait on the ledger mutex behind them.
const TAIL: f64 = 0.995;
/// History rounds each connection asks `round_status` for at set-up.
const STATUS_WARM_UP: u64 = 4;
/// Cycles per connection per `--seconds`.
const CYCLES_PER_SECOND: u64 = 2;
/// Ops in one cycle.
const CYCLE_OPS: u64 = 2 * (ROSTER as u64 + 2);
/// Seed streams.
const KEY_STREAM: u64 = 0x4B45;
const SKILL_STREAM: u64 = 0x534B;
const PRICE_STREAM: u64 = 0x5052;
const ORDER_STREAM: u64 = 0x4F52;
const COMMIT_STREAM: u64 = 0xC0;
const STREAM_SEED: u64 = 0x5354;

/// The seeded roster: keys, skills and bids.
struct World {
    seed: u64,
    keys: Vec<SigningKey>,
    roster: Vec<RosterEntry>,
}

impl World {
    fn new(seed: u64) -> World {
        let keys: Vec<SigningKey> = (0..ROSTER)
            .map(|w| {
                let mut r = rng::derived(seed ^ KEY_STREAM, u64::from(w));
                SigningKey::from_seed(std::array::from_fn(|_| r.gen::<u64>() as u8))
            })
            .collect();
        let roster = keys
            .iter()
            .zip(0..)
            .map(|(key, w)| {
                let mut r = rng::derived(seed ^ SKILL_STREAM, u64::from(w));
                RosterEntry {
                    worker: WorkerId(w),
                    public_key: hex_encode(&key.verifying_key().to_bytes()),
                    skills: (0..TASKS).map(|_| 0.8 + 0.15 * r.gen::<f64>()).collect(),
                }
            })
            .collect();
        World { seed, keys, roster }
    }

    fn spec(&self, round_id: u64) -> RoundSpec {
        RoundSpec {
            round_id,
            num_tasks: TASKS as usize,
            error_bounds: vec![0.5; TASKS as usize],
            price_min: Price::from_f64(1.0),
            price_max: Price::from_f64(30.0),
            price_step: Price::from_f64(0.5),
            cost_min: Price::from_f64(1.0),
            cost_max: Price::from_f64(30.0),
            epsilon: 0.5,
            roster: self.roster.clone(),
        }
    }

    fn stream_spec(&self, round_id: u64) -> StreamSpec {
        StreamSpec {
            round: self.spec(round_id),
            sample_target: SAMPLE_TARGET,
            seed: rng::derived(self.seed ^ STREAM_SEED, round_id).gen(),
        }
    }

    /// Worker `w`'s signed bid in `round_id` on `len` tasks from `first`.
    fn envelope(&self, round_id: u64, w: u32, first: u32, len: u32) -> BidEnvelope {
        let mut r = rng::derived(self.seed ^ PRICE_STREAM, round_id << 8 | u64::from(w));
        let tasks = (first..first + len).map(|t| TaskId(t % TASKS)).collect();
        let price = Price::from_tenths(20 + r.gen_range(0..230i64));
        BidEnvelope::sign(
            round_id,
            WorkerId(w),
            Bid::new(Bundle::new(tasks), price),
            u64::from(w) + 1,
            u64::MAX,
            &self.keys[w as usize],
        )
    }

    /// Every worker once, in a seeded order.
    fn order(&self, round_id: u64) -> Vec<u32> {
        let mut order: Vec<u32> = (0..ROSTER).collect();
        order.shuffle(&mut rng::derived(self.seed ^ ORDER_STREAM, round_id));
        order
    }

    fn commit_seed(&self, round_id: u64) -> u64 {
        rng::derived(self.seed ^ COMMIT_STREAM, round_id).gen()
    }

    /// One connection's cycles: `cycles` rounds and streams from cycle
    /// `first`, all envelopes signed here, before any timing.
    fn script(&self, conn: u64, first: u64, cycles: u64) -> Vec<Request> {
        let mut ops = Vec::new();
        for k in first..first + cycles {
            let round_id = HISTORY_ROUNDS + 1 + 2 * (k * CONNECTIONS as u64 + conn);
            let stream_id = round_id + 1;
            ops.push(Request::OpenRound {
                spec: self.spec(round_id),
            });
            for w in self.order(round_id) {
                ops.push(Request::SubmitBid {
                    envelope: self.envelope(round_id, w, w, LIVE_BUNDLE),
                });
            }
            ops.push(Request::CommitRound {
                round_id,
                seed: self.commit_seed(round_id),
            });
            ops.push(Request::OpenStream {
                spec: self.stream_spec(stream_id),
            });
            for w in self.order(stream_id) {
                ops.push(Request::Arrive {
                    envelope: self.envelope(stream_id, w, w, LIVE_BUNDLE),
                });
            }
            ops.push(Request::CloseStream {
                round_id: stream_id,
            });
        }
        ops
    }
}

fn cycles(args: &Args) -> u64 {
    let cycles = CYCLES_PER_SECOND * args.seconds;
    if args.trace {
        (cycles / 4).max(1)
    } else {
        cycles
    }
}

pub fn describe(args: &Args) -> String {
    let per_conn = cycles(args) * CYCLE_OPS;
    format!(
        "{} timed ops ({}; {} cycles of round + stream per connection, roster {ROSTER}, \
         K={TASKS}), history {HISTORY_ROUNDS} settled rounds, {} warm-up ops x {} set-ups",
        per_conn * CONNECTIONS as u64 * if args.trace { 2 } else { 1 },
        if args.trace {
            "half untraced then half traced"
        } else {
            "untraced"
        },
        cycles(args) * if args.trace { 2 } else { 1 },
        STATUS_WARM_UP * CONNECTIONS as u64,
        harness::SETUPS
    )
}

/// Writes `rounds` settled rounds of `HISTORY_BIDS` bids into `dir`
/// through `DurableLedger`.
fn seed_history(world: &World, dir: &Path, rounds: u64) -> Result<(), String> {
    let envelopes: Vec<Vec<BidEnvelope>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNECTIONS as u64)
            .map(|part| {
                scope.spawn(move || {
                    (1..=rounds)
                        .filter(|r| r % CONNECTIONS as u64 == part)
                        .map(|r| {
                            (0..HISTORY_BIDS)
                                .map(|i| {
                                    let w = (r as u32 * 7 + i) % ROSTER;
                                    world.envelope(r, w, i * HISTORY_BUNDLE, HISTORY_BUNDLE)
                                })
                                .collect::<Vec<_>>()
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let mut parts: Vec<_> = handles
            .into_iter()
            .map(|h| h.join().expect("signing thread panicked").into_iter())
            .collect();
        (1..=rounds)
            .map(|r| {
                parts[(r % CONNECTIONS as u64) as usize]
                    .next()
                    .expect("one batch per round")
            })
            .collect()
    });
    // Only the bytes of the history matter, so it skips the per-frame
    // fsyncs of the live policy.
    let config = DurabilityConfig {
        fsync: FsyncPolicy::CommitOnly,
        ..durability(dir)
    };
    let mut ledger = DurableLedger::open(&config).map_err(|e| format!("history ledger: {e}"))?;
    let now = system_now_ms();
    for (r, bids) in (1..=rounds).zip(envelopes) {
        ledger
            .open_round(world.spec(r))
            .map_err(|e| format!("history open {r}: {e}"))?;
        for envelope in &bids {
            ledger
                .submit_bid(envelope, now)
                .map_err(|e| format!("history bid {r}: {e}"))?;
        }
        ledger
            .commit_round(r, world.commit_seed(r))
            .map_err(|e| format!("history commit {r}: {e}"))?;
    }
    Ok(())
}

fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to).map_err(|e| format!("create {}: {e}", to.display()))?;
    for entry in std::fs::read_dir(from).map_err(|e| format!("read {}: {e}", from.display()))? {
        let entry = entry.map_err(|e| e.to_string())?;
        std::fs::copy(entry.path(), to.join(entry.file_name()))
            .map_err(|e| format!("copy history: {e}"))?;
    }
    Ok(())
}

/// A private ledger and WAL the traced run replays each op into.
struct Shadow {
    ledger: DurableLedger,
    wal: WalWriter,
    fsync: FsyncPolicy,
    ops: u64,
    request_bytes: u64,
    wal_bytes: u64,
}

impl Shadow {
    fn open(history: &Path, dir: &Path) -> Result<Shadow, String> {
        copy_dir(history, &dir.join("ledger"))?;
        let config = durability(&dir.join("ledger"));
        let ledger = DurableLedger::open(&config).map_err(|e| format!("shadow ledger: {e}"))?;
        let wal =
            WalWriter::create(&dir.join(WAL_FILE), 1).map_err(|e| format!("shadow wal: {e}"))?;
        Ok(Shadow {
            ledger,
            wal,
            fsync: config.fsync,
            ops: 0,
            request_bytes: 0,
            wal_bytes: 0,
        })
    }

    fn append(
        &mut self,
        tr: &mut Tracer,
        op: u64,
        parent: usize,
        event: &WalEvent,
    ) -> Result<(), String> {
        let payload = event.encode();
        self.wal_bytes += FRAME_HEADER_LEN + payload.len() as u64;
        tr.time(op, "wal.append", Some(parent), || self.wal.append(&payload))
            .map(|_| ())
            .map_err(|e| e.to_string())
    }

    /// The fsync the ledger makes after an op's frames: at a commit
    /// point, and after every op under `FsyncPolicy::Always`.
    fn fsync_if(
        &mut self,
        tr: &mut Tracer,
        op: u64,
        parent: usize,
        commit_point: bool,
    ) -> Result<(), String> {
        if !commit_point && self.fsync != FsyncPolicy::Always {
            return Ok(());
        }
        tr.time(op, "wal.fsync", Some(parent), || self.wal.sync())
            .map_err(|e| e.to_string())
    }
}

fn key_decodes(
    tr: &mut Tracer,
    op: u64,
    parent: usize,
    roster: &[RosterEntry],
) -> Result<(), String> {
    tr.time(op, "envelope.key_decode", Some(parent), || {
        roster
            .iter()
            .map(|entry| decode_public_key(&entry.public_key))
            .collect::<Result<Vec<_>, _>>()
    })
    .map(|_| ())
    .map_err(|e| e.to_string())
}

/// Key decode and signature check of one envelope, as admission runs them.
fn admission(
    tr: &mut Tracer,
    op: u64,
    parent: usize,
    spec: &RoundSpec,
    envelope: &BidEnvelope,
    now: u64,
) -> Result<[u8; 64], String> {
    let entry = spec
        .roster
        .iter()
        .find(|e| e.worker == envelope.worker)
        .ok_or("worker not on the roster")?;
    let key = tr
        .time(op, "envelope.key_decode", Some(parent), || {
            decode_public_key(&entry.public_key)
        })
        .map_err(|e| e.to_string())?;
    tr.time(op, "envelope.verify", Some(parent), || {
        envelope.verify(&key, now)
    })
    .map_err(|e| e.to_string())?;
    envelope.signature_bytes().map_err(|e| e.to_string())
}

/// Replays what the service does for one durable op, layer by layer:
/// wire encode and decode, then the ledger call on a private ledger
/// (its span) with, as its children, the envelope checks and the WAL
/// appends and commit-point fsyncs the call makes, each re-run on its own
/// so the ledger's self time is what remains. With `response`, also times its
/// encode plus decode and checks the replayed decision against it.
fn replay(
    sh: &mut Shadow,
    tr: &mut Tracer,
    op: u64,
    root: usize,
    request: &Request,
    response: Option<&Response>,
) -> Result<(), String> {
    sh.ops += 1;
    let json = tr
        .time(op, "wire.encode", Some(root), || {
            serde_json::to_string(request)
        })
        .map_err(|e| e.to_string())?;
    sh.request_bytes += json.len() as u64;
    tr.time(op, "wire.decode", Some(root), || decode_request(&json))
        .map_err(|e| e.to_string())?;
    let now = system_now_ms();
    let err = |e: mcs_service::RoundError| e.to_string();
    match request {
        Request::OpenRound { spec } => {
            let (id, lsn) = tr.span(op, "ledger.open", Some(root), || {
                sh.ledger.open_round(spec.clone())
            });
            lsn.map_err(err)?;
            key_decodes(tr, op, id, &spec.roster)?;
            sh.append(tr, op, id, &WalEvent::RoundOpened { spec: spec.clone() })?;
            sh.fsync_if(tr, op, id, false)?;
        }
        Request::SubmitBid { envelope } => {
            let (id, lsn) = tr.span(op, "ledger.submit", Some(root), || {
                sh.ledger.submit_bid(envelope, now)
            });
            lsn.map_err(err)?;
            let spec = sh
                .ledger
                .ledger()
                .round(envelope.round_id)
                .ok_or("round vanished")?
                .spec()
                .clone();
            let signature = admission(tr, op, id, &spec, envelope, now)?;
            let event = WalEvent::BidAdmitted {
                round_id: envelope.round_id,
                worker: envelope.worker,
                nonce: envelope.nonce,
                expires_at_ms: envelope.expires_at_ms,
                bid: envelope.bid.clone(),
                signature,
            };
            sh.append(tr, op, id, &event)?;
            sh.fsync_if(tr, op, id, false)?;
        }
        Request::CommitRound { round_id, seed } => {
            let (id, receipt) = tr.span(op, "ledger.commit", Some(root), || {
                sh.ledger.commit_round(*round_id, *seed)
            });
            let receipt = receipt.map_err(err)?;
            if let Some(Response::Committed(live)) = response {
                if (live.price, &live.winners) != (receipt.price, &receipt.winners) {
                    return Err(format!(
                        "round {round_id}: replayed commit differs from the answer"
                    ));
                }
            }
            let committed = WalEvent::AuctionCommitted {
                round_id: *round_id,
                seed: *seed,
                price: receipt.price,
                winners: receipt.winners.clone(),
            };
            sh.append(tr, op, id, &committed)?;
            sh.fsync_if(tr, op, id, true)?;
            for payment in &receipt.payments {
                let event = WalEvent::PaymentIssued {
                    round_id: *round_id,
                    worker: payment.worker,
                    amount: payment.amount,
                };
                sh.append(tr, op, id, &event)?;
            }
            sh.append(
                tr,
                op,
                id,
                &WalEvent::RoundSettled {
                    round_id: *round_id,
                },
            )?;
            sh.fsync_if(tr, op, id, true)?;
        }
        Request::OpenStream { spec } => {
            let (id, lsn) = tr.span(op, "stream.open", Some(root), || {
                sh.ledger.open_stream(spec.clone())
            });
            lsn.map_err(err)?;
            key_decodes(tr, op, id, &spec.round.roster)?;
            sh.append(tr, op, id, &WalEvent::StreamOpened { spec: spec.clone() })?;
            sh.fsync_if(tr, op, id, false)?;
        }
        Request::Arrive { envelope } => {
            let (id, decided) = tr.span(op, "stream.arrival", Some(root), || {
                sh.ledger.stream_arrival(envelope, now)
            });
            let (decision, _) = decided.map_err(err)?;
            if let Some(Response::ArrivalDecided {
                accepted, payment, ..
            }) = response
            {
                if (*accepted, *payment) != (decision.accepted, decision.payment) {
                    return Err(format!(
                        "stream {}: replayed arrival of worker {} differs from the answer",
                        envelope.round_id, envelope.worker.0
                    ));
                }
            }
            let spec = sh
                .ledger
                .ledger()
                .stream(envelope.round_id)
                .ok_or("stream vanished")?
                .spec()
                .round
                .clone();
            let signature = admission(tr, op, id, &spec, envelope, now)?;
            let event = WalEvent::StreamArrival {
                round_id: envelope.round_id,
                worker: envelope.worker,
                nonce: envelope.nonce,
                expires_at_ms: envelope.expires_at_ms,
                bid: envelope.bid.clone(),
                signature,
                accepted: decision.accepted,
                payment: decision.payment,
            };
            sh.append(tr, op, id, &event)?;
            sh.fsync_if(tr, op, id, decision.accepted)?;
        }
        Request::CloseStream { round_id } => {
            let (id, receipt) = tr.span(op, "stream.close", Some(root), || {
                sh.ledger.close_stream(*round_id)
            });
            receipt.map_err(err)?;
            sh.append(
                tr,
                op,
                id,
                &WalEvent::StreamClosed {
                    round_id: *round_id,
                },
            )?;
            sh.fsync_if(tr, op, id, true)?;
        }
        other => return Err(format!("no replay for {}", other.endpoint())),
    }
    if let Some(response) = response {
        tr.time(op, "wire.response", Some(root), || {
            serde_json::to_string(response)
                .map_err(|e| e.to_string())
                .and_then(|line| decode_response(&line).map_err(|e| e.to_string()))
        })?;
    }
    Ok(())
}

/// One answered (or failed) op.
struct Done {
    seq: u64,
    conn: usize,
    request: Request,
    /// When the round trip started and ended.
    window: (Instant, Instant),
    latency_ms: Option<f64>,
    answer: Result<Response, String>,
}

fn exec(conn_index: &mut usize, conn: &mut TcpClient, (seq, request): (u64, Request)) -> Done {
    let call = timed_call(conn, &request);
    Done {
        seq,
        conn: *conn_index,
        latency_ms: call.latency_ms(),
        window: (call.start, call.end),
        answer: call.answer,
        request,
    }
}

fn scripts(
    world: &World,
    first_cycle: u64,
    cycles: u64,
    first_seq: u64,
) -> Vec<Vec<(u64, Request)>> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNECTIONS as u64)
            .map(|c| scope.spawn(move || world.script(c, first_cycle, cycles)))
            .collect();
        handles
            .into_iter()
            .enumerate()
            .map(|(c, h)| {
                let ops = h.join().expect("signing thread panicked");
                let base = first_seq + (c as u64) * cycles * CYCLE_OPS;
                ops.into_iter().zip(base..).map(|(r, s)| (s, r)).collect()
            })
            .collect()
    })
}

/// Runs one phase over `scripts` and returns its ops in order.
fn phase(live: &mut Live, scripts: Vec<Vec<(u64, Request)>>) -> Vec<Done> {
    let work = scripts.into_iter().enumerate().collect();
    let (results, _) = closed_loop(&mut live.conns, work, &exec);
    let mut done: Vec<Done> = results.into_iter().flat_map(|(_, outs)| outs).collect();
    done.sort_by_key(|d| d.seq);
    done
}

/// Records each answered op's round trip as a root span, then replays
/// its layers one op at a time after the phase, each connection's ops in
/// order into that connection's shadow, so no replayed call competes
/// with a timed round trip. Returns replays that disagreed with the
/// service's answers.
fn replay_phase(done: &[Done], shadows: &mut [Shadow], tracer: &mut Tracer) -> Vec<String> {
    let mut bad = Vec::new();
    for d in done {
        let Ok(response) = &d.answer else { continue };
        let root = tracer.record(d.seq, "op", None, d.window.0, d.window.1);
        if let Err(err) = replay(
            &mut shadows[d.conn],
            tracer,
            d.seq,
            root,
            &d.request,
            Some(response),
        ) {
            bad.push(format!("op {}: {err}", d.seq));
        }
    }
    bad
}

/// Latency by endpoint, to show which ops form each latency mode.
fn print_endpoints(done: &[Done]) {
    let mut by: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for d in done {
        if let Some(ms) = d.latency_ms {
            by.entry(d.request.endpoint()).or_default().push(ms);
        }
    }
    for (endpoint, mut ms) in by {
        ms.sort_by(f64::total_cmp);
        println!(
            "# {endpoint:<13} n={:<6} p50 {:>9.3} ms  p90 {:>9.3} ms  max {:>9.3} ms",
            ms.len(),
            quantile(&ms, 0.5),
            quantile(&ms, 0.9),
            ms[ms.len() - 1]
        );
    }
}

/// Counts ops, failed answers and answers of the wrong kind.
fn count(done: &[Done], tally: &mut Tally, mismatches: &mut Vec<String>) {
    for d in done {
        tally.attempted += 1;
        let ok = match (&d.request, &d.answer) {
            (_, Err(err)) => Err(err.clone()),
            (Request::OpenRound { .. }, Ok(Response::Opened { .. }))
            | (Request::SubmitBid { .. }, Ok(Response::BidAccepted { .. }))
            | (Request::CommitRound { .. }, Ok(Response::Committed(_)))
            | (Request::OpenStream { .. }, Ok(Response::StreamOpened { .. }))
            | (Request::Arrive { .. }, Ok(Response::ArrivalDecided { .. }))
            | (Request::CloseStream { .. }, Ok(Response::StreamClosed(_))) => Ok(()),
            (request, Ok(other)) => Err(format!("{} answered {other:?}", request.endpoint())),
        };
        if let Err(err) = ok {
            tally.failed += 1;
            mismatches.push(format!("op {}: {err}", d.seq));
        }
    }
}

/// The durable checks, against a service restarted on the run's WAL:
/// every committed round reads back settled with the receipt returned at
/// commit, paid once per winner at the clearing price; every stream's
/// close receipt lists exactly the arrivals acked as accepted and reads
/// back closed; recovery completes no payment and aborts nothing.
fn check(args: &Args, done: &[Done], restarted: &Service) -> Vec<String> {
    let mut bad = Vec::new();
    let client = restarted.client();
    match restarted.recovery() {
        Some(report)
            if report.completed_payments == 0
                && report.aborted_in_flight == 0
                && report.resumed_streams == 0 => {}
        other => bad.push(format!("recovery after a clean stop reported {other:?}")),
    }
    let mut acked: BTreeMap<u64, (Vec<WorkerId>, i64)> = BTreeMap::new();
    for d in done {
        if let Ok(Response::ArrivalDecided {
            round_id,
            worker,
            accepted: true,
            payment,
            ..
        }) = &d.answer
        {
            let entry = acked.entry(*round_id).or_default();
            entry.0.push(*worker);
            entry.1 += payment.tenths();
        }
    }
    let mut first_round = args.tamper == Tamper::Receipt;
    let mut first_stream = args.tamper == Tamper::Stream;
    for d in done {
        match &d.answer {
            Ok(Response::Committed(receipt)) => {
                let id = receipt.round_id;
                let mut winners = receipt.winners.clone();
                if std::mem::take(&mut first_round) {
                    winners.pop();
                }
                let paid_once = receipt.payments.len() == winners.len()
                    && receipt
                        .payments
                        .iter()
                        .zip(&winners)
                        .all(|(p, w)| p.worker == *w && p.amount == receipt.price);
                if !paid_once {
                    bad.push(format!(
                        "round {id}: receipt pays {:?} for winners {winners:?} at {}",
                        receipt.payments, receipt.price
                    ));
                }
                let total = Price::from_tenths(receipt.price.tenths() * winners.len() as i64);
                match client.call(Request::RoundStatus { round_id: id }) {
                    Response::RoundStatus(view)
                        if view.phase == "settled"
                            && view.winners == winners
                            && view.total_paid == total => {}
                    other => bad.push(format!(
                        "round {id}: after restart {other:?}, receipt had {winners:?} paid {total}"
                    )),
                }
            }
            Ok(Response::StreamClosed(receipt)) => {
                let id = receipt.round_id;
                let (mut accepted, paid) = acked.get(&id).cloned().unwrap_or_default();
                accepted.sort_by_key(|w| w.0);
                if std::mem::take(&mut first_stream) {
                    accepted.push(WorkerId(ROSTER + 1));
                }
                if receipt.accepted != accepted
                    || receipt.total_paid.tenths() != paid
                    || receipt.arrivals != ROSTER as usize
                {
                    bad.push(format!("stream {id}: receipt accepts {:?} paying {} over {} arrivals; acks accepted {accepted:?} paying {paid} tenths", receipt.accepted, receipt.total_paid, receipt.arrivals));
                }
                match client.call(Request::RoundStatus { round_id: id }) {
                    Response::StreamStatus(view)
                        if view.phase == "closed" && view.accepted == receipt.accepted => {}
                    other => bad.push(format!("stream {id}: after restart {other:?}")),
                }
            }
            _ => {}
        }
    }
    bad
}

/// The durability the live service and the replay ledgers run with: the
/// shipped default, `DurabilityConfig::new`, which fsyncs every frame
/// batch (`FsyncPolicy::Always`): once per open, bid and arrival, and at
/// each commit point.
fn durability(dir: &Path) -> DurabilityConfig {
    DurabilityConfig::new(dir)
}

fn durable_config(dir: &Path) -> ServiceConfig {
    ServiceConfig {
        durability: Some(durability(dir)),
        ..ServiceConfig::default()
    }
}

/// WAL counters over a phase, per op.
fn wal_counters(before: &MetricsReport, after: &MetricsReport, ops: u64) -> (f64, f64) {
    let per_op = |a: u64, b: u64| (b - a) as f64 / ops.max(1) as f64;
    (
        per_op(before.wal_frames, after.wal_frames),
        per_op(before.wal_fsyncs, after.wal_fsyncs),
    )
}

/// Recovery of `history` three times on fresh copies: median ms and the
/// frames replayed.
fn recover(history: &Path, scratch: &Path) -> Result<(f64, u64), String> {
    let mut times = Vec::new();
    let mut replayed = 0;
    for _ in 0..3 {
        copy_dir(history, scratch)?;
        let t = Instant::now();
        let ledger =
            DurableLedger::open(&durability(scratch)).map_err(|e| format!("recover: {e}"))?;
        times.push(t.elapsed().as_secs_f64() * 1e3);
        replayed = ledger.recovery().replayed_frames;
    }
    Ok((median(&mut times), replayed))
}

/// Three snapshot rotations of a shadow ledger: median ms and the size.
fn snapshot(sh: &mut Shadow, dir: &Path) -> Result<(f64, f64), String> {
    let mut times = Vec::new();
    for _ in 0..3 {
        let t = Instant::now();
        sh.ledger
            .force_snapshot()
            .map_err(|e| format!("snapshot: {e}"))?;
        times.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let bytes = std::fs::metadata(dir.join("ledger").join(SNAPSHOT_FILE))
        .map_err(|e| format!("snapshot size: {e}"))?
        .len();
    Ok((median(&mut times), bytes as f64 / 1024.0))
}

/// Request and WAL bytes per replayed op.
fn shadow_values(values: &mut BTreeMap<&'static str, f64>, shadows: &[Shadow]) {
    let ops = shadows.iter().map(|s| s.ops).sum::<u64>().max(1) as f64;
    let kb = |bytes: u64| bytes as f64 / ops / 1024.0;
    values.insert(
        "wire.request_kb",
        kb(shadows.iter().map(|s| s.request_bytes).sum()),
    );
    values.insert(
        "wal.kb_per_op",
        kb(shadows.iter().map(|s| s.wal_bytes).sum()),
    );
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut tally = Tally::default();
    let mut mismatches = Vec::new();
    let world = World::new(args.seed);
    let history = args.work.join("history");
    seed_history(&world, &history, HISTORY_ROUNDS)?;

    let live_dir = args.work.join("live");
    let setup_no = std::cell::Cell::new(0);
    let mut make = |tally: &mut Tally| {
        setup_no.set(setup_no.get() + 1);
        let dir = live_dir.with_extension(setup_no.get().to_string());
        copy_dir(&history, &dir)?;
        harness::start(durable_config(&dir), tally, |conns, tally| {
            for (c, conn) in conns.iter_mut().enumerate() {
                for k in 0..STATUS_WARM_UP {
                    let round_id = 1 + (c as u64 * STATUS_WARM_UP + k) * 7 % HISTORY_ROUNDS;
                    tally.attempted += 1;
                    match timed_call(conn, &Request::RoundStatus { round_id }).answer {
                        Ok(Response::RoundStatus(view)) if view.phase == "settled" => {}
                        other => {
                            tally.failed += 1;
                            return Err(format!("warm-up round_status {round_id}: {other:?}"));
                        }
                    }
                }
            }
            Ok(())
        })
    };
    let (setups, mut live) = SetupLog::run(&mut tally, &mut make)?;
    harness::print_memory("after the set-ups");
    let dir = live_dir.with_extension(setup_no.get().to_string());

    let n = cycles(args);
    let (mut metrics, done) = if !args.trace {
        let scripts = scripts(&world, 0, n, 0);
        let start = Instant::now();
        let done = phase(&mut live, scripts);
        let wall = start.elapsed().as_secs_f64();
        let latencies: Vec<Option<f64>> = done.iter().map(|d| d.latency_ms).collect();
        print_endpoints(&done);
        (harness::end_to_end(&latencies, wall, TAIL), done)
    } else {
        let untraced = phase(&mut live, scripts(&world, 0, n, 0));
        let traced_scripts = scripts(&world, n, n, n * CYCLE_OPS * CONNECTIONS as u64);
        let origin = Instant::now();
        let before = live.metrics()?;
        let traced = phase(&mut live, traced_scripts);
        let after = live.metrics()?;
        let mut shadows = (0..CONNECTIONS)
            .map(|c| Shadow::open(&history, &args.work.join(format!("shadow-{c}"))))
            .collect::<Result<Vec<_>, _>>()?;
        let mut on_path = Layers::default();
        let mut tracer = Tracer::new(origin);
        let bad = replay_phase(&traced, &mut shadows, &mut tracer);
        tally.failed += bad.len() as u64;
        mismatches.extend(bad);
        crate::write_spans(args, &tracer)?;
        let traced_p50 = layers::print_breakdown(&tracer);
        let mut untraced_ms: Vec<f64> = untraced.iter().filter_map(|d| d.latency_ms).collect();
        let (frames, fsyncs) = wal_counters(&before, &after, traced.len() as u64);
        let (recover_ms, replayed) = recover(&history, &args.work.join("recover"))?;
        let (snapshot_ms, snapshot_kb) = snapshot(&mut shadows[0], &args.work.join("shadow-0"))?;
        let values = &mut on_path.values;
        shadow_values(values, &shadows);
        values.insert("wal.frames_per_op", frames);
        values.insert("wal.fsyncs_per_op", fsyncs);
        values.insert("wal.snapshot_ms", snapshot_ms);
        values.insert("wal.snapshot_kb", snapshot_kb);
        values.insert("ledger.recover_ms", recover_ms);
        values.insert("ledger.replayed_frames", replayed as f64);
        values.insert("cache.hit_ratio", 0.0);
        values.insert(
            "server.batched_ratio",
            harness::batched_ratio(&before, &after),
        );
        values.insert("tcp.accept_ms", median(&mut setups.accept_ms.clone()));
        values.insert("trace.p50_ms", traced_p50);
        values.insert("trace.overhead_ms", traced_p50 - median(&mut untraced_ms));
        on_path.spans = Some(tracer);
        let mut side = Layers::default();
        auctions::side_probe(args, &mut side)?;
        let metrics = layers::metrics(&on_path, &side)?;
        let mut done = untraced;
        done.extend(traced);
        (metrics, done)
    };
    live.stop();
    count(&done, &mut tally, &mut mismatches);
    let restarted =
        Service::try_start(durable_config(&dir)).map_err(|e| format!("restart: {e}"))?;
    let bad = check(args, &done, &restarted);
    restarted.shutdown();
    tally.failed += bad.len() as u64;
    mismatches.extend(bad);
    if !args.trace {
        metrics.insert(0, setups.metric());
    }
    Ok(Outcome {
        tally,
        mismatches,
        metrics,
    })
}

/// The durable layers on the auction workloads, which never reach them:
/// one round and one stream replayed into a private ledger opened on a
/// small seeded history, plus its recovery and snapshot.
pub fn side_probe(args: &Args, side: &mut Layers) -> Result<(), String> {
    let world = World::new(args.seed);
    let history = args.work.join("probe-history");
    seed_history(&world, &history, PROBE_HISTORY_ROUNDS)?;
    let (recover_ms, replayed) = recover(&history, &args.work.join("probe-recover"))?;
    let dir = args.work.join("probe-shadow");
    let mut shadow = Shadow::open(&history, &dir)?;
    let mut tracer = Tracer::new(Instant::now());
    let ops = world.script(0, 0, 1);
    for (seq, request) in (1u64 << 42..).zip(&ops) {
        let at = Instant::now();
        let root = tracer.record(seq, "probe", None, at, at);
        replay(&mut shadow, &mut tracer, seq, root, request, None)?;
    }
    let (snapshot_ms, snapshot_kb) = snapshot(&mut shadow, &dir)?;
    let values = &mut side.values;
    values.insert(
        "wal.frames_per_op",
        shadow.wal.frames_written() as f64 / shadow.ops as f64,
    );
    values.insert(
        "wal.fsyncs_per_op",
        shadow.wal.fsyncs() as f64 / shadow.ops as f64,
    );
    values.insert("wal.snapshot_ms", snapshot_ms);
    values.insert("wal.snapshot_kb", snapshot_kb);
    values.insert("ledger.recover_ms", recover_ms);
    values.insert("ledger.replayed_frames", replayed as f64);
    shadow_values(values, std::slice::from_ref(&shadow));
    side.add_spans(tracer);
    Ok(())
}
