//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code, around its calls into
//! each layer of the program. Every span has a name, a start and an end (ns
//! since the recorder was made), a parent span and the grid cell it belongs
//! to. Spans stay in memory until the run ends; nothing is written to disk.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    /// 0 while the span is open.
    pub end: u64,
    pub parent: Option<usize>,
    pub cell: Option<usize>,
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Span names that group other spans and do no work of their own: their
/// self time is time the layers below did not account for.
pub const STRUCTURAL: [&str; 4] = ["run", "prepare", "grid", "cell"];

/// Thread-safe span store shared by the runner's workers.
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Nanoseconds since the recorder was made.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans.lock().expect("a span writer panicked")
    }

    /// Opens a span starting now and returns its id.
    pub fn open(&self, name: &'static str, parent: Option<usize>, cell: Option<usize>) -> usize {
        let start = self.now();
        let mut spans = self.lock();
        spans.push(Span {
            name,
            start,
            end: 0,
            parent,
            cell,
        });
        spans.len() - 1
    }

    /// Closes an open span at the current time.
    pub fn close(&self, id: usize) {
        let end = self.now();
        self.lock()[id].end = end;
    }

    /// Records a span whose bounds were taken earlier.
    pub fn record(
        &self,
        name: &'static str,
        start: u64,
        end: u64,
        parent: Option<usize>,
        cell: Option<usize>,
    ) -> usize {
        let mut spans = self.lock();
        spans.push(Span {
            name,
            start,
            end,
            parent,
            cell,
        });
        spans.len() - 1
    }

    /// Runs `f` inside a span; `f` receives the span's id for children.
    pub fn scope<T>(
        &self,
        name: &'static str,
        parent: Option<usize>,
        cell: Option<usize>,
        f: impl FnOnce(usize) -> T,
    ) -> T {
        let id = self.open(name, parent, cell);
        let out = f(id);
        self.close(id);
        out
    }

    pub fn spans(&self) -> Vec<Span> {
        self.lock().clone()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover (the union of their intervals, clipped to the
/// parent's).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| s.dur() - covered(s.start, s.end, kids))
        .collect()
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered(lo: u64, hi: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(reach), b.min(hi));
        if b > a {
            total += b - a;
            reach = b;
        }
    }
    total
}

/// The time budget of a traced run and how the layers account for it.
#[derive(Debug, Clone, Default)]
pub struct Breakdown {
    /// Lane time: the traced wall (Σ `run` spans) plus `(lanes - 1)` ×
    /// each grid phase, since a grid runs its cells on several workers.
    pub capacity_ns: u64,
    /// Lane time of the grid phases alone.
    pub grid_lanes_ns: u64,
    /// Self time per layer, in ns, including `runner.idle` (worker lanes
    /// with no cell to run) and `unattributed` (structural spans' self).
    pub layers: BTreeMap<&'static str, u64>,
}

impl Breakdown {
    /// Σ layer self time (without `unattributed`) ÷ lane time.
    pub fn reconcile_frac(&self) -> f64 {
        let attributed: u64 = self
            .layers
            .iter()
            .filter(|(k, _)| **k != "unattributed")
            .map(|(_, v)| *v)
            .sum();
        attributed as f64 / self.capacity_ns.max(1) as f64
    }
}

/// Splits the spans' lane time into per-layer self time. `lanes` is the
/// number of runner workers a grid phase may use.
pub fn breakdown(spans: &[Span], lanes: usize) -> Breakdown {
    let selfs = self_times(spans);
    let mut b = Breakdown::default();
    for (i, s) in spans.iter().enumerate() {
        match s.name {
            "run" => b.capacity_ns += s.dur(),
            "grid" => {
                let cells: Vec<u64> = spans
                    .iter()
                    .filter(|c| c.parent == Some(i))
                    .map(Span::dur)
                    .collect();
                let lanes = lanes.min(cells.len()).max(1) as u64;
                b.capacity_ns += (lanes - 1) * s.dur();
                b.grid_lanes_ns += lanes * s.dur();
                let busy: u64 = cells.iter().sum();
                *b.layers.entry("runner.idle").or_default() +=
                    (lanes * s.dur()).saturating_sub(busy);
            }
            _ => {}
        }
        let key = if STRUCTURAL.contains(&s.name) {
            "unattributed"
        } else {
            s.name
        };
        // A grid's own self time is the lanes' idle, counted above.
        if s.name != "grid" {
            *b.layers.entry(key).or_default() += selfs[i];
        }
    }
    b
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            cell: None,
        }
    }

    #[test]
    fn self_time_subtracts_union_of_children() {
        let spans = vec![
            span("run", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 30, 60, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![50, 30, 30]);
    }

    #[test]
    fn parallel_grid_counts_idle_lanes() {
        // Two lanes over a 100 ns grid: cells of 100 and 60 ns leave 40 ns idle.
        let spans = vec![
            span("run", 0, 110, None),
            span("grid", 10, 110, Some(0)),
            span("cell", 10, 110, Some(1)),
            span("cell", 10, 70, Some(1)),
            span("deploy.sim", 10, 110, Some(2)),
            span("deploy.sim", 10, 70, Some(3)),
        ];
        let b = breakdown(&spans, 2);
        assert_eq!(b.capacity_ns, 210);
        assert_eq!(b.grid_lanes_ns, 200);
        assert_eq!(b.layers["runner.idle"], 40);
        assert_eq!(b.layers["deploy.sim"], 160);
        assert_eq!(b.layers["unattributed"], 10);
        assert!((b.reconcile_frac() - 200.0 / 210.0).abs() < 1e-12);
    }
}
