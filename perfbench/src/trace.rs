//! In-memory span tracing and the summary statistics every metric uses.
//!
//! A [`Tracer`] wraps each call the benchmark makes into a qpwm layer.
//! Untraced, it only times the call; traced, it also records a span
//! (name, start, end, parent span, operation id) in memory. The spans
//! are summarised when the run ends, never written while it measures.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The layers a span can be billed to: the first dot-separated part of
/// its name. Spans named otherwise are the benchmark's own grouping.
pub const LAYERS: [&str; 8] = [
    "csv_db",
    "engine",
    "core",
    "store",
    "serve",
    "client",
    "fingerprint",
    "par",
];

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    /// `layer.call`, or a grouping name of the benchmark.
    pub name: &'static str,
    /// Unique within the run; 0 is "no span".
    pub id: u64,
    /// The enclosing span, 0 for a root.
    pub parent: u64,
    /// The operation the span belongs to (a pass, an update, a read).
    pub op: u64,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// The span's duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The layer this span is billed to, or `None` for a grouping span.
    pub fn layer(&self) -> Option<&'static str> {
        let head = self.name.split('.').next().unwrap_or("");
        LAYERS.iter().copied().find(|l| *l == head)
    }
}

/// Times calls and, when enabled, records them as spans.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer that records spans only if `enabled`.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f` inside a span named `name` under `parent`, passing `f`
    /// the new span's id so that calls it makes can nest under it.
    /// Returns the result and the call's wall time.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: u64,
        op: u64,
        f: impl FnOnce(u64) -> T,
    ) -> (T, Duration) {
        let id = if self.enabled {
            self.next_id.fetch_add(1, Ordering::Relaxed)
        } else {
            0
        };
        let start = Instant::now();
        let out = f(id);
        let end = Instant::now();
        if self.enabled {
            let span = Span {
                name,
                id,
                parent,
                op,
                start_ns: self.nanos(start),
                end_ns: self.nanos(end),
            };
            self.spans.lock().expect("span list poisoned").push(span);
        }
        (out, end - start)
    }

    fn nanos(&self, at: Instant) -> u64 {
        u64::try_from(at.duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list poisoned").clone()
    }
}

/// Summaries of a finished trace.
pub struct SpanIndex {
    spans: Vec<Span>,
    children: BTreeMap<u64, Vec<usize>>,
}

impl SpanIndex {
    /// Indexes `spans` by parent.
    pub fn new(spans: Vec<Span>) -> SpanIndex {
        let mut children: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
        for (i, s) in spans.iter().enumerate() {
            children.entry(s.parent).or_default().push(i);
        }
        SpanIndex { spans, children }
    }

    /// Per operation, the summed duration (ms) of the spans named `name`.
    pub fn per_op_ms(&self, name: &str) -> Vec<f64> {
        let mut by_op: BTreeMap<u64, f64> = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            *by_op.entry(s.op).or_insert(0.0) += ms(s.dur_ns());
        }
        by_op.into_values().collect()
    }

    /// The duration (ms) of each span named `name`, in order.
    pub fn per_call_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| ms(s.dur_ns()))
            .collect()
    }

    /// A span's self time: its duration minus the part of it that its
    /// child spans cover (overlapping children counted once).
    pub fn self_ns(&self, i: usize) -> u64 {
        let span = &self.spans[i];
        let mut covered: Vec<(u64, u64)> = self
            .children
            .get(&span.id)
            .into_iter()
            .flatten()
            .map(|&c| {
                (
                    self.spans[c].start_ns.max(span.start_ns),
                    self.spans[c].end_ns.min(span.end_ns),
                )
            })
            .filter(|(a, b)| b > a)
            .collect();
        covered.sort_unstable();
        let mut union = 0u64;
        let mut reach = span.start_ns;
        for (a, b) in covered {
            let a = a.max(reach);
            if b > a {
                union += b - a;
                reach = b;
            }
        }
        span.dur_ns() - union
    }

    /// Self time (ms) per layer, and of the benchmark's own grouping
    /// spans, summed over the operations in `ops`: the bill of those
    /// operations. Grouping spans' self time is the unattributed part.
    pub fn bill_ms(&self, ops: &[u64]) -> (BTreeMap<&'static str, f64>, f64) {
        let mut layers: BTreeMap<&'static str, f64> = LAYERS.iter().map(|l| (*l, 0.0)).collect();
        let mut unattributed = 0.0;
        for (i, s) in self.spans.iter().enumerate() {
            if !ops.contains(&s.op) {
                continue;
            }
            let own = ms(self.self_ns(i));
            match s.layer() {
                Some(layer) => *layers.get_mut(layer).expect("layer listed") += own,
                None => unattributed += own,
            }
        }
        (layers, unattributed)
    }
}

/// Nanoseconds to milliseconds.
pub fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// The median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// The interquartile mean of `values`: the mean of what is left after
/// the lowest and the highest quarter are dropped (0 when empty). On a
/// host whose speed switches between two levels for seconds at a time,
/// it moves smoothly with the share of slow samples, where a median
/// jumps from one level to the other; it still ignores single outliers.
pub fn iqm(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let k = sorted.len() / 4;
    let middle = &sorted[k..sorted.len() - k];
    middle.iter().sum::<f64>() / middle.len() as f64
}

/// The nearest-rank `p`-th percentile of `values` (0 when empty).
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// A tail percentile the sample count supports: the nearest-rank `p`-th
/// percentile if at least ten samples lie beyond it, else the highest
/// percentile that has ten beyond, but never less than the median (so
/// fewer than 21 samples give the median).
pub fn tail(values: &[f64], p: f64) -> f64 {
    let n = values.len();
    if n < 21 {
        return median(values);
    }
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    if n - rank.min(n) >= 10 {
        return percentile(values, p);
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[n - 11]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            id,
            parent,
            op: 1,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let index = SpanIndex::new(vec![
            span("pass", 1, 0, 0, 100),
            span("core.collect", 2, 1, 10, 60),
            span("client.round_trip", 3, 2, 20, 30),
            span("client.round_trip", 4, 2, 25, 40),
            span("store.create", 5, 1, 70, 80),
        ]);
        assert_eq!(index.self_ns(0), 100 - 50 - 10);
        assert_eq!(index.self_ns(1), 50 - 20, "overlapping children count once");
        let (layers, unattributed) = index.bill_ms(&[1]);
        assert_eq!(layers["client"], ms(25));
        assert_eq!(layers["core"], ms(30));
        assert_eq!(layers["store"], ms(10));
        assert_eq!(unattributed, ms(40));
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn interquartile_mean_drops_the_outer_quarters() {
        assert_eq!(iqm(&[100.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, -50.0]), 3.5);
        assert_eq!(iqm(&[2.0, 4.0, 9.0]), 5.0, "under four samples: the mean");
        assert_eq!(iqm(&[]), 0.0);
    }

    #[test]
    fn tails_keep_ten_samples_beyond() {
        let v: Vec<f64> = (1..=2000).map(f64::from).collect();
        assert_eq!(tail(&v, 99.0), 1980.0, "p99 of 2000 has 20 beyond");
        let v: Vec<f64> = (1..=500).map(f64::from).collect();
        assert_eq!(tail(&v, 99.0), 490.0, "the highest rank with ten beyond");
        assert_eq!(
            tail(&[5.0, 1.0, 9.0, 3.0, 7.0], 99.0),
            5.0,
            "too few samples: the median"
        );
    }
}
