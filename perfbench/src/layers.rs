//! Per-layer metrics of the traced run, and the breakdown of the traced
//! p50 into layer self times plus the unexplained remainder.

use std::collections::BTreeMap;

use crate::stats::{median, quantile};
use crate::trace::Tracer;
use crate::Metric;

/// Where a per-layer metric comes from.
enum Source {
    /// Median over the ops that made this call of the op's self time in
    /// it, in ms (or µs when `micros`).
    Span { name: &'static str, micros: bool },
    /// A value the workload computed itself (counts, ratios, sizes and
    /// one-off timings), keyed by the metric name.
    Value,
}

use Source::{Span, Value};

const fn ms(name: &'static str) -> Source {
    Span {
        name,
        micros: false,
    }
}

/// Every per-layer metric, in `BENCHMARK.json` order.
const LAYER_METRICS: &[(&str, &str, Source)] = &[
    ("wire.encode_ms", "ms", ms("wire.encode")),
    ("wire.decode_ms", "ms", ms("wire.decode")),
    ("wire.request_kb", "KiB", Value),
    ("wire.response_ms", "ms", ms("wire.response")),
    ("digest.ms", "ms", ms("digest")),
    ("cache.hit_ratio", "ratio", Value),
    ("engine.build_ms.setting1", "ms", ms("engine.setting1")),
    ("engine.build_ms.setting3", "ms", ms("engine.setting3")),
    ("engine.intervals", "count", Value),
    ("pmf.ms", "ms", ms("pmf")),
    (
        "draw.us",
        "us",
        Span {
            name: "draw",
            micros: true,
        },
    ),
    ("server.batched_ratio", "ratio", Value),
    ("server.residual_ms", "ms", ms("op")),
    ("tcp.accept_ms", "ms", Value),
    ("envelope.verify_ms", "ms", ms("envelope.verify")),
    ("envelope.key_decode_ms", "ms", ms("envelope.key_decode")),
    ("wal.append_ms", "ms", ms("wal.append")),
    ("wal.fsync_ms", "ms", ms("wal.fsync")),
    ("wal.frames_per_op", "count", Value),
    ("wal.fsyncs_per_op", "count", Value),
    ("wal.kb_per_op", "KiB", Value),
    ("wal.snapshot_ms", "ms", Value),
    ("wal.snapshot_kb", "KiB", Value),
    ("ledger.open_ms", "ms", ms("ledger.open")),
    ("ledger.submit_ms", "ms", ms("ledger.submit")),
    ("ledger.commit_ms", "ms", ms("ledger.commit")),
    ("ledger.recover_ms", "ms", Value),
    ("ledger.replayed_frames", "count", Value),
    ("stream.arrival_ms", "ms", ms("stream.arrival")),
    ("stream.close_ms", "ms", ms("stream.close")),
    ("trace.p50_ms", "ms", Value),
    ("trace.overhead_ms", "ms", Value),
];

/// One traced source of per-layer numbers: spans plus computed values.
#[derive(Default)]
pub struct Layers {
    pub spans: Option<Tracer>,
    pub values: BTreeMap<&'static str, f64>,
}

impl Layers {
    /// Adds a tracer's spans to this source.
    pub fn add_spans(&mut self, tracer: Tracer) {
        match &mut self.spans {
            Some(spans) => spans.absorb(tracer),
            None => self.spans = Some(tracer),
        }
    }

    fn span_metric(&self, name: &str, micros: bool) -> Option<f64> {
        let tracer = self.spans.as_ref()?;
        let mut per_op: Vec<f64> = tracer
            .self_times()
            .values()
            .filter_map(|spans| spans.get(name).copied())
            .collect();
        if per_op.is_empty() {
            return None;
        }
        let scale = if micros { 1e3 } else { 1.0 };
        Some(median(&mut per_op) * scale)
    }
}

/// The per-layer metrics: each from the workload's own traced ops when it
/// made that call, else from `side`, the fixed reference probe of the
/// layers the workload does not reach. A traced run must print every
/// per-layer metric, so the probe fills the layers off this workload's
/// path; each such metric is named in a `#` line, so no reader takes it
/// for a number of this workload.
pub fn metrics(on_path: &Layers, side: &Layers) -> Result<Vec<Metric>, String> {
    let mut probed = Vec::new();
    let metrics = LAYER_METRICS
        .iter()
        .map(|(metric, unit, source)| {
            let (own, probe) = match source {
                Span { name, micros } => (
                    on_path.span_metric(name, *micros),
                    side.span_metric(name, *micros),
                ),
                Value => (
                    on_path.values.get(metric).copied(),
                    side.values.get(metric).copied(),
                ),
            };
            if own.is_none() && probe.is_some() {
                probed.push(*metric);
            }
            own.or(probe)
                .map(|value| Metric::new(metric, value, unit))
                .ok_or_else(|| format!("the traced run measured no {metric}"))
        })
        .collect();
    println!(
        "# off this workload's path, from the side probe: {}",
        probed.join(" ")
    );
    metrics
}

/// The module a span belongs to; an op's root self time is the
/// unexplained remainder.
fn layer_of(span: &str) -> &str {
    match span.split('.').next().unwrap_or(span) {
        "op" => "server.residual",
        "pmf" | "draw" => "exponential",
        layer => layer,
    }
}

/// Prints the mean self time per layer over the traced ops whose latency
/// lies between the 45th and 55th percentile, so the layers plus the
/// residual add up to (about) the traced p50. Returns the traced p50.
pub fn print_breakdown(tracer: &Tracer) -> f64 {
    let per_op = tracer.self_times();
    let totals: Vec<(u64, f64)> = per_op
        .iter()
        .map(|(&op, spans)| (op, spans.values().sum::<f64>()))
        .collect();
    let mut sorted: Vec<f64> = totals.iter().map(|&(_, t)| t).collect();
    sorted.sort_by(f64::total_cmp);
    let p50 = quantile(&sorted, 0.5);
    let (lo, hi) = (quantile(&sorted, 0.45), quantile(&sorted, 0.55));
    let band: Vec<u64> = totals
        .iter()
        .filter(|&&(_, t)| t >= lo && t <= hi)
        .map(|&(op, _)| op)
        .collect();
    let mut by_layer: BTreeMap<&str, f64> = BTreeMap::new();
    for op in &band {
        for (span, self_ms) in &per_op[op] {
            *by_layer.entry(layer_of(span)).or_insert(0.0) += self_ms;
        }
    }
    let n = band.len().max(1) as f64;
    println!(
        "# breakdown over {} traced ops at p45..p55 (traced p50 {p50:.4} ms):",
        band.len()
    );
    let mut sum = 0.0;
    for (layer, total) in &by_layer {
        sum += total / n;
        println!("#   {layer:<16} {:>10.4} ms", total / n);
    }
    println!("#   {:<16} {sum:>10.4} ms (traced p50 {p50:.4} ms)", "sum");
    p50
}
