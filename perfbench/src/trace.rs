//! The benchmark's own span recorder and the small helpers its reports
//! share: medians, nearest-rank percentiles and ratios.

use serde::Serialize;
use std::time::Instant;

/// One timed call into a layer, recorded from outside the crates.
#[derive(Clone, Debug, Serialize)]
pub struct Span {
    /// Layer call, e.g. `vpselect.survey`.
    pub name: &'static str,
    /// Repeat the span belongs to (all spans of one setup + serve share it).
    pub run: usize,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Nanoseconds since the recorder was created (0 while still open).
    pub end_ns: u64,
}

/// Keeps every span in memory; the caller writes them out when the run
/// ends, so recording costs one `Instant::now` per boundary.
pub struct Tracer {
    origin: Instant,
    run: usize,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            run: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Tag the spans recorded from now on with repeat `run`.
    pub fn set_run(&mut self, run: usize) {
        self.run = run;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("a run lasts less than 584 years")
    }

    /// Open a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            run: self.run,
            parent: self.open.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.open.push(id);
        id
    }

    /// Close span `id` (the innermost open one) and return its wall seconds.
    pub fn exit(&mut self, id: usize) -> f64 {
        let end = self.now_ns();
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        let span = &mut self.spans[id];
        span.end_ns = end;
        (end - span.start_ns) as f64 / 1e9
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Median of `xs` (mean of the middle two for an even count).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no values");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile of already sorted values (0 when empty).
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// `n / d`, or 0 when nothing was attempted.
pub fn ratio(n: u64, d: u64) -> f64 {
    if d == 0 {
        0.0
    } else {
        n as f64 / d as f64
    }
}
