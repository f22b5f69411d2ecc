//! In-memory spans for the traced run.
//!
//! The program is measured from the outside: for a traced op the
//! benchmark calls each layer's public function itself, on the op's own
//! input, and records one span per call. The op's TCP round trip is the
//! root span; the layer spans are its children. Spans are replayed next
//! to the round trip rather than nested inside it in time, so a span's
//! self time is its duration minus its children's durations, and the
//! root's self time is the part of the round trip no layer call accounts
//! for (`server.residual_ms`: transport, queueing, locking, dispatch).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer and call, e.g. `wire.decode`; the root of an op is `op`.
    pub name: &'static str,
    /// Nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's origin.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// The op this span belongs to.
    pub op: u64,
}

impl Span {
    fn duration_ms(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e6
    }
}

/// A per-thread span log; merge the logs of several threads with
/// [`Tracer::absorb`].
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(origin: Instant) -> Tracer {
        Tracer {
            origin,
            spans: Vec::new(),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a span that already happened and returns its id.
    pub fn record(
        &mut self,
        op: u64,
        name: &'static str,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        self.spans.push(Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            op,
        });
        self.spans.len() - 1
    }

    /// Times `f` as a span and returns the span id with `f`'s result.
    pub fn span<T>(
        &mut self,
        op: u64,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (usize, T) {
        let start = Instant::now();
        let out = std::hint::black_box(f());
        let id = self.record(op, name, parent, start, Instant::now());
        (id, out)
    }

    /// Times `f` as a span, keeping only its result.
    pub fn time<T>(
        &mut self,
        op: u64,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        self.span(op, name, parent, f).1
    }

    /// Moves another thread's spans into this log (same origin).
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Self time per op and span name, in milliseconds.
    pub fn self_times(&self) -> BTreeMap<u64, BTreeMap<&'static str, f64>> {
        let mut child_ms = vec![0.0; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child_ms[p] += span.duration_ms();
            }
        }
        let mut out: BTreeMap<u64, BTreeMap<&'static str, f64>> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ms) {
            *out.entry(span.op)
                .or_default()
                .entry(span.name)
                .or_insert(0.0) += span.duration_ms() - children;
        }
        out
    }

    /// The spans as tab-separated lines: `op id parent name start_ns end_ns`.
    pub fn to_tsv(&self) -> String {
        let mut out = String::from("op\tid\tparent\tname\tstart_ns\tend_ns\n");
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{}\t{id}\t{parent}\t{}\t{}\t{}",
                s.op, s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children_and_absorb_keeps_parents() {
        let origin = Instant::now();
        let at = |ms: u64| origin + Duration::from_millis(ms);
        let mut a = Tracer::new(origin);
        let root = a.record(1, "op", None, at(0), at(10));
        a.record(1, "wire.decode", Some(root), at(20), at(23));
        let mut b = Tracer::new(origin);
        let root = b.record(2, "op", None, at(0), at(5));
        let ledger = b.record(2, "ledger.submit", Some(root), at(6), at(10));
        b.record(2, "envelope.verify", Some(ledger), at(11), at(12));
        a.absorb(b);
        let st = a.self_times();
        assert!((st[&1]["op"] - 7.0).abs() < 1e-9);
        assert!((st[&2]["op"] - 1.0).abs() < 1e-9);
        assert!((st[&2]["ledger.submit"] - 3.0).abs() < 1e-9);
        assert!((st[&2]["envelope.verify"] - 1.0).abs() < 1e-9);
        assert!(a.to_tsv().lines().nth(5).unwrap().contains("\t4\t"));
    }
}
