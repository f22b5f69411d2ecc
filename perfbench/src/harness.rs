//! The loopback rig shared by every workload: an in-process `Service`
//! behind the public `TcpServer`, `CONNECTIONS` `TcpClient`s driven in a
//! closed loop, set-up timing, and the end-to-end metrics.

use std::net::SocketAddr;
use std::sync::Barrier;
use std::time::Instant;

use mcs_service::{
    MetricsReport, Request, Response, RetryPolicy, Service, ServiceConfig, TcpClient, TcpServer,
};

use crate::stats::{beyond, median, quantile};
use crate::{Metric, Tally};

/// Client connections per run: one per core of the reference machine.
pub const CONNECTIONS: usize = 2;

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 15;

/// A running service with its TCP front-end and open connections.
pub struct Live {
    pub service: Service,
    pub tcp: TcpServer,
    pub conns: Vec<TcpClient>,
}

impl Live {
    /// Closes the connections, then stops the front-end and the service.
    pub fn stop(self) {
        drop(self.conns);
        self.tcp.shutdown();
        self.service.shutdown();
    }

    /// The service's metrics, read in process so the read costs no
    /// transport time.
    pub fn metrics(&self) -> Result<MetricsReport, String> {
        match self.service.client().call(Request::Metrics) {
            Response::Metrics(report) => Ok(report),
            other => Err(format!("metrics request answered {other:?}")),
        }
    }
}

/// One set-up: its duration and the accept waits it left out.
pub struct Setup {
    pub live: Live,
    pub setup_s: f64,
    pub accept_ms: Vec<f64>,
}

/// A response that counts as a failed op.
pub fn failure(response: &Response) -> Option<String> {
    match response {
        Response::Busy { .. }
        | Response::Error { .. }
        | Response::Rejected { .. }
        | Response::ShuttingDown => Some(format!("{response:?}")),
        _ => None,
    }
}

/// One timed round trip.
pub struct Call {
    pub start: Instant,
    pub end: Instant,
    /// The answer; a transport error or a refusal is the `Err` side.
    pub answer: Result<Response, String>,
}

impl Call {
    /// Client-side latency; `None` for a failed op.
    pub fn latency_ms(&self) -> Option<f64> {
        self.answer
            .as_ref()
            .ok()
            .map(|_| (self.end - self.start).as_secs_f64() * 1e3)
    }
}

/// Sends one request without busy retries and times the round trip.
pub fn timed_call(conn: &mut TcpClient, request: &Request) -> Call {
    let start = Instant::now();
    let answer = conn.call_once(request);
    let end = Instant::now();
    let answer = match answer {
        Ok(response) => match failure(&response) {
            Some(why) => Err(why),
            None => Ok(response),
        },
        Err(err) => Err(format!("transport: {err}")),
    };
    Call { start, end, answer }
}

/// Starts a service and makes it ready: `Service::try_start`, bind,
/// connect and `health` on each connection, then `warm_up`. The set-up
/// time runs from `try_start` to the end of the warm-up, minus the
/// connect-to-first-`health` wait, which `accept_ms` reports instead
/// (the accept loop polls every 50 ms).
pub fn start(
    config: ServiceConfig,
    tally: &mut Tally,
    warm_up: impl FnOnce(&mut [TcpClient], &mut Tally) -> Result<(), String>,
) -> Result<Setup, String> {
    let t0 = Instant::now();
    let service = Service::try_start(config).map_err(|e| format!("service start: {e}"))?;
    let tcp = TcpServer::bind(service.client(), "127.0.0.1:0")
        .map_err(|e| format!("bind loopback: {e}"))?;
    let startup = t0.elapsed();
    let addr: SocketAddr = tcp.local_addr();
    let mut conns = Vec::with_capacity(CONNECTIONS);
    let mut accept_ms = Vec::with_capacity(CONNECTIONS);
    for _ in 0..CONNECTIONS {
        let t = Instant::now();
        let mut conn = TcpClient::connect_with(addr, RetryPolicy::none())
            .map_err(|e| format!("connect: {e}"))?;
        tally.attempted += 1;
        match conn.call_once(&Request::Health) {
            Ok(Response::Health(_)) => {}
            other => {
                tally.failed += 1;
                return Err(format!("health answered {other:?}"));
            }
        }
        accept_ms.push(t.elapsed().as_secs_f64() * 1e3);
        conns.push(conn);
    }
    let t2 = Instant::now();
    warm_up(&mut conns, tally)?;
    let setup_s = (startup + t2.elapsed()).as_secs_f64();
    Ok(Setup {
        live: Live {
            service,
            tcp,
            conns,
        },
        setup_s,
        accept_ms,
    })
}

/// Set-up timings of a run: `SETUPS` set-ups back to back before the
/// timed phase, the last of which serves it; `setup_s` is their median.
/// None runs after the phase: on hot-auctions, set-ups after it ran about
/// a quarter slower than those before, which split the median.
#[derive(Default)]
pub struct SetupLog {
    pub times: Vec<f64>,
    pub accept_ms: Vec<f64>,
}

impl SetupLog {
    /// Runs `SETUPS - 1` throwaway set-ups, then one more that it returns
    /// running for the timed phase.
    pub fn run(
        tally: &mut Tally,
        make: &mut impl FnMut(&mut Tally) -> Result<Setup, String>,
    ) -> Result<(SetupLog, Live), String> {
        let mut log = SetupLog::default();
        loop {
            let setup = make(tally)?;
            log.times.push(setup.setup_s);
            log.accept_ms.extend(&setup.accept_ms);
            if log.times.len() >= SETUPS {
                return Ok((log, setup.live));
            }
            setup.live.stop();
        }
    }

    pub fn metric(&self) -> Metric {
        let times: Vec<String> = self.times.iter().map(|t| format!("{t:.4}")).collect();
        println!("# set-ups in run order (s): {}", times.join(" "));
        Metric::new("setup_s", median(&mut self.times.clone()), "s")
    }
}

/// Drives one op script per connection in a closed loop: each
/// connection's thread sends its next op only after the previous answer.
/// `exec` prepares, sends and records one op. Returns each thread's state
/// and outputs, and the wall time of the phase in seconds.
pub fn closed_loop<S: Send, Op: Send, Out: Send>(
    conns: &mut [TcpClient],
    work: Vec<(S, Vec<Op>)>,
    exec: &(dyn Fn(&mut S, &mut TcpClient, Op) -> Out + Sync),
) -> (Vec<(S, Vec<Out>)>, f64) {
    assert_eq!(conns.len(), work.len(), "one script per connection");
    let barrier = Barrier::new(conns.len() + 1);
    std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .zip(work)
            .map(|(conn, (mut state, ops))| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut outs = Vec::with_capacity(ops.len());
                    barrier.wait();
                    for op in ops {
                        outs.push(exec(&mut state, conn, op));
                    }
                    (state, outs, Instant::now())
                })
            })
            .collect();
        barrier.wait();
        let start = Instant::now();
        let mut results = Vec::with_capacity(handles.len());
        let mut end = start;
        for handle in handles {
            let (state, outs, done) = handle.join().expect("client thread panicked");
            end = end.max(done);
            results.push((state, outs));
        }
        (results, (end - start).as_secs_f64())
    })
}

/// The share of answers over a phase that came from a batch of two or
/// more, from two `metrics` snapshots.
pub fn batched_ratio(before: &MetricsReport, after: &MetricsReport) -> f64 {
    let sum = |m: &MetricsReport| {
        m.endpoints
            .iter()
            .fold((0, 0), |(b, c), e| (b + e.batched, c + e.count))
    };
    let ((b0, c0), (b1, c1)) = (sum(before), sum(after));
    (b1 - b0) as f64 / (c1 - c0).max(1) as f64
}

/// A memory figure of this process from `/proc/self/status`, in MiB.
fn status_mb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with(field))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Peak resident set (`VmHWM`) of this process in MiB.
pub fn peak_rss_mb() -> f64 {
    status_mb("VmHWM:")
}

/// Prints the resident set and its peak so far.
pub fn print_memory(at: &str) {
    println!(
        "# memory {at}: VmRSS {:.1} MiB, VmHWM {:.1} MiB",
        status_mb("VmRSS:"),
        status_mb("VmHWM:")
    );
}

/// The end-to-end metrics of the timed phase, read right after it. A
/// failed op counts as missing every latency limit: it sorts above every
/// answered op.
pub fn end_to_end(latencies_ms: &[Option<f64>], wall_s: f64, tail_q: f64) -> Vec<Metric> {
    let mut sorted: Vec<f64> = latencies_ms.iter().map(|l| l.unwrap_or(f64::MAX)).collect();
    sorted.sort_by(f64::total_cmp);
    let tail_name = format!("p{}", tail_q * 100.0);
    println!(
        "# samples {} timed ops; {} beyond {tail_name}",
        sorted.len(),
        beyond(&sorted, tail_q)
    );
    let shape: Vec<String> = [
        0.5, 0.8, 0.9, 0.95, 0.96, 0.97, 0.975, 0.98, 0.985, 0.99, 0.9925, 0.995, 0.9975, 0.999,
    ]
    .iter()
    .map(|&q| format!("p{}={:.2}", q * 100.0, quantile(&sorted, q)))
    .collect();
    println!("# latency shape (ms): {}", shape.join(" "));
    vec![
        Metric::new("p50_ms", quantile(&sorted, 0.5), "ms"),
        Metric::new("tail_ms", quantile(&sorted, tail_q), "ms"),
        Metric::new("ops_per_s", sorted.len() as f64 / wall_s, "1/s"),
        Metric::new("peak_rss_mb", peak_rss_mb(), "MiB"),
    ]
}
