//! Outside-in benchmark of the Ursa reproduction.
//!
//! Usage: `perfbench --workload <fig11_social|engine|planes> --seed <n>
//! --seconds <s> --trace <0|1> [--rustc <version>] [--commit <id>]`
//! (normally through `perfbench/run.py`, which builds it first).
//!
//! The run sets its workload up [`SETUP_REPS`] times, then runs whole
//! batches of the workload until `--seconds` are used, and checks every
//! operation's output. With `--trace 0` it prints the end-to-end metrics;
//! with `--trace 1` it spends half the time untraced and half traced and
//! prints the per-layer metrics. The last stdout line is the result JSON.

mod checks;
mod deploy;
mod trace;
mod workloads;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::Instant;

use trace::{Span, Tracer};
use workloads::{Batch, Traced, Workload};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// How far the layers' self times may fall short of the traced lane time.
const RECONCILE_TOLERANCE: f64 = 0.05;
/// Layers whose self time is reported, in the order printed.
const LAYERS: [&str; 12] = [
    "prepare.ursa",
    "prepare.sinan.collect",
    "prepare.sinan.train",
    "prepare.firm",
    "runner.clone",
    "runner.idle",
    "deploy.build",
    "deploy.sim",
    "deploy.decide",
    "mip.solve",
    "metrics.scrape",
    "unattributed",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    rustc: String,
    commit: String,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 0.0,
        trace: false,
        rustc: "unknown".into(),
        commit: "unknown".into(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            "--rustc" => args.rustc = value,
            "--commit" => args.commit = value,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Median, and the highest percentile that has at least ten samples
/// beyond it: of `n` samples, the one at rank `(n - 10) / n` (0 when
/// there are fewer than 11).
fn median_and_tail(xs: &[f64]) -> (f64, f64) {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let tail = v.len().checked_sub(11).map_or(0.0, |i| v[i]);
    (median(&v), tail)
}

/// `VmHWM` of this process, in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Operations attempted and the ones that failed, per batch.
#[derive(Default)]
struct Ops {
    attempted: u64,
    failed: u64,
}

impl Ops {
    /// Counts one batch of `n` operations, of which the rows named in
    /// `errors` failed.
    fn batch(&mut self, n: usize, errors: &[(usize, String)]) {
        let mut bad: Vec<usize> = errors.iter().map(|e| e.0).collect();
        bad.sort_unstable();
        bad.dedup();
        for (_, msg) in errors {
            eprintln!("check failed: {msg}");
        }
        self.attempted += n as u64;
        self.failed += bad.len().min(n) as u64;
    }
}

/// Runs `f`, turning a panic into `None`.
fn guarded<T>(f: impl FnOnce() -> T) -> Option<T> {
    catch_unwind(AssertUnwindSafe(f)).ok()
}

/// Untraced batches until `budget` seconds are used (at least one), each
/// checked against the seed-0 reference, or at other seeds against the
/// first batch. Outside a traced run a lone batch is also rerun, and must
/// equal the rerun; the rerun is returned for its grid time. (A traced run
/// checks the batch against its traced twin instead.)
fn untraced(
    w: &mut dyn Workload,
    jobs: usize,
    budget: f64,
    seed: u64,
    tracing: bool,
    ops: &mut Ops,
) -> (Vec<Batch>, Option<Batch>) {
    let golden = w.golden();
    let n = golden.len();
    let panicked = |what: &str| {
        (0..n)
            .map(|i| (i, format!("{what} panicked")))
            .collect::<Vec<_>>()
    };
    let start = Instant::now();
    let mut batches: Vec<Batch> = Vec::new();
    let mut errors = Vec::new();
    loop {
        let Some(b) = guarded(|| w.batch(jobs)) else {
            errors.push(panicked("batch"));
            break;
        };
        errors.push(if seed == 0 {
            checks::compare("golden", &golden, &b.rows)
        } else if let Some(first) = batches.first() {
            checks::compare("rerun", &first.exact, &b.exact)
        } else {
            Vec::new()
        });
        eprintln!("batch {}: {:.3} s", batches.len() + 1, b.wall);
        batches.push(b);
        let per = start.elapsed().as_secs_f64() / batches.len() as f64;
        if start.elapsed().as_secs_f64() + per > budget {
            break;
        }
    }
    let mut rerun = None;
    if batches.len() == 1 && !tracing {
        match guarded(|| w.rerun(jobs)) {
            Some(r) => {
                errors[0].extend(checks::compare("rerun", &batches[0].exact, &r.exact));
                rerun = Some(r);
            }
            None => errors[0] = panicked("rerun"),
        }
    }
    for e in &errors {
        ops.batch(n, e);
    }
    (batches, rerun)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    ursa_bench::set_seed(args.seed);
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let jobs = nproc;
    ursa_bench::runner::set_jobs(jobs);

    let mut setup_s = Vec::new();
    let mut workload = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        match workloads::setup(&args.workload) {
            Some(w) => workload = Some(w),
            None => {
                eprintln!("perfbench: unknown workload {:?}", args.workload);
                return ExitCode::from(2);
            }
        }
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut w = workload.expect("set up at least once");

    let mut ops = Ops::default();
    let budget = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let (batches, rerun) = untraced(w.as_mut(), jobs, budget, args.seed, args.trace, &mut ops);
    let mut traced_runs = Vec::new();
    let tracer = Tracer::new();
    if args.trace {
        let golden_n = w.golden().len();
        for _ in 0..batches.len().max(1) {
            let Some(t) = guarded(|| w.traced(jobs, &tracer)) else {
                ops.batch(
                    golden_n,
                    &(0..golden_n)
                        .map(|i| (i, "traced batch panicked".into()))
                        .collect::<Vec<_>>(),
                );
                break;
            };
            eprintln!(
                "traced batch {}: {:.3} s",
                traced_runs.len() + 1,
                t.batch.wall
            );
            let reference = batches.first().map_or(&[][..], |b| &b.exact[..]);
            ops.batch(
                golden_n,
                &checks::compare("traced", reference, &t.batch.exact),
            );
            traced_runs.push(t);
        }
    }

    let mut metrics: Vec<(String, f64, &str)> = Vec::new();
    let mut correct = ops.failed == 0 && !batches.is_empty();
    if args.trace {
        if traced_runs.is_empty() {
            correct = false;
        } else {
            let (layer_metrics, reconciled) =
                per_layer(&traced_runs, &tracer.spans(), &batches, jobs, &ops);
            correct &= reconciled;
            metrics = layer_metrics;
        }
    } else if !batches.is_empty() {
        let walls: Vec<f64> = batches.iter().map(|b| b.wall).collect();
        // A rerun's grid is timed work too.
        let cells_per_s: Vec<f64> = batches
            .iter()
            .chain(&rerun)
            .map(|b| b.exact.len() as f64 / b.grid)
            .collect();
        metrics = vec![
            ("wall_s".into(), median(&walls), "s"),
            ("setup_s".into(), median(&setup_s), "s"),
            ("cells_per_s".into(), median(&cells_per_s), "1/s"),
            ("peak_rss_mb".into(), peak_rss_mb(), "MB"),
        ];
    }

    println!(
        "{{\"record\": {{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"nproc\": {nproc}, \"jobs\": {jobs}, \"batches\": {}, \"traced_batches\": {}, \"rustc\": {}, \"commit\": {}}}}}",
        json_str(&args.workload),
        args.seed,
        u8::from(args.trace),
        batches.len(),
        traced_runs.len(),
        json_str(&args.rustc),
        json_str(&args.commit),
    );
    for b in batches.iter().take(1) {
        for row in &b.exact {
            println!("row\t{}\t{row}", args.workload);
        }
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            // `+ 0.0` turns an empty sum's -0 into 0.
            let v = if v.is_finite() { *v + 0.0 } else { 0.0 };
            format!(
                "{}: {{\"value\": {v}, \"unit\": {}}}",
                json_str(name),
                json_str(unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        ops.attempted.max(1),
        ops.failed,
        body.join(", ")
    );
    ExitCode::SUCCESS
}

/// Per-layer metrics from the traced batches, and whether the layers'
/// self times reconcile with the traced lane time.
fn per_layer(
    runs: &[Traced],
    spans: &[Span],
    untraced: &[Batch],
    jobs: usize,
    ops: &Ops,
) -> (Vec<(String, f64, &'static str)>, bool) {
    let b = runs.len() as f64;
    let mut m: Vec<(String, f64, &'static str)> = Vec::new();
    let mut put = |name: &str, v: f64, unit: &'static str| m.push((name.to_string(), v, unit));
    let total = |name: &str| -> f64 {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur() as f64 / 1e9)
            .sum()
    };
    let cells: Vec<&(String, deploy::CellTrace)> = runs.iter().flat_map(|r| &r.cells).collect();
    let live: u64 = cells.iter().map(|c| c.1.sim.live).sum();
    let stale: u64 = cells.iter().map(|c| c.1.sim.stale).sum();
    let breakdown = trace::breakdown(spans, jobs);
    let sim_s = breakdown.layers.get("deploy.sim").copied().unwrap_or(0) as f64 / 1e9;
    let per_batch = |f: fn(&deploy::CellTrace) -> u64| -> f64 {
        cells.iter().map(|c| f(&c.1)).sum::<u64>() as f64 / b
    };

    // End-to-end context for the layers.
    put(
        "prepare_s",
        median(&untraced.iter().map(|u| u.prepare).collect::<Vec<_>>()),
        "s",
    );
    put("sim_events_per_s", live as f64 / sim_s.max(1e-9), "1/s");
    put(
        "error_rate",
        ops.failed as f64 / ops.attempted.max(1) as f64,
        "fraction",
    );

    // Engine.
    for (name, _) in workloads::ENGINE_CELLS {
        // Cells are numbered within a batch, so one id names a cell in
        // every traced batch.
        let ids: Vec<usize> = (0..runs[0].cells.len())
            .filter(|&i| runs[0].cells[i].0 == name)
            .collect();
        let events: u64 = cells
            .iter()
            .filter(|c| c.0 == name)
            .map(|c| c.1.sim.live)
            .sum();
        let ns: f64 = spans
            .iter()
            .filter(|s| s.name == "deploy.sim" && s.cell.is_some_and(|c| ids.contains(&c)))
            .map(|s| s.dur() as f64)
            .sum();
        put(
            &format!("sim.ns_per_event.{name}"),
            if events == 0 { 0.0 } else { ns / events as f64 },
            "ns",
        );
    }
    put("sim.events", per_batch(|c| c.sim.live), "count");
    put(
        "sim.stale_ratio",
        stale as f64 / (live + stale).max(1) as f64,
        "fraction",
    );
    put(
        "sim.queue_max_depth",
        cells
            .iter()
            .map(|c| c.1.sim.queue_max_depth)
            .max()
            .unwrap_or(0) as f64,
        "count",
    );
    put(
        "sim.arena_slots_hw",
        cells
            .iter()
            .map(|c| c.1.sim.arena_slots_hw)
            .max()
            .unwrap_or(0) as f64,
        "count",
    );

    // Deployment loop.
    put("deploy.sim_s", sim_s / b, "s");
    put("deploy.windows", per_batch(|c| c.windows), "count");
    let cell_s: Vec<f64> = runs
        .iter()
        .flat_map(|r| r.batch.cell_s.iter().copied())
        .collect();
    let (p50, tail) = median_and_tail(&cell_s);
    put("deploy.cell_s.p50", p50, "s");
    put("deploy.cell_s.tail", tail, "s");
    put("deploy.cells", cell_s.len() as f64, "count");

    // Control plane and MIP.
    put("prepare.ursa_s", total("prepare.ursa") / b, "s");
    put(
        "prepare.ursa.samples",
        runs.iter().map(|r| r.ursa_samples).sum::<u64>() as f64 / b,
        "count",
    );
    put("deploy.decide_s", total("deploy.decide") / b, "s");
    for sys in ursa_bench::System::ALL.map(|s| s.label()) {
        let us: Vec<f64> = cells
            .iter()
            .filter(|c| c.0 == sys)
            .flat_map(|c| c.1.decide_ns.iter().map(|&ns| ns as f64 / 1e3))
            .collect();
        let (p50, tail) = median_and_tail(&us);
        put(&format!("decide.{sys}.p50_us"), p50, "us");
        put(&format!("decide.{sys}.tail_us"), tail, "us");
        put(&format!("decide.{sys}.count"), us.len() as f64, "count");
    }
    put("mip.solves", per_batch(|c| c.mip_solves), "count");
    put(
        "mip.last_solve_ms",
        cells
            .iter()
            .rev()
            .find(|c| c.1.mip_solves > 0)
            .map_or(0.0, |c| c.1.mip_last_ms),
        "ms",
    );

    // Baselines and ML.
    let firm_s = total("prepare.firm") / b;
    let firm_events = runs.iter().map(|r| r.firm_events).sum::<u64>() as f64 / b;
    put(
        "prepare.sinan.collect_s",
        total("prepare.sinan.collect") / b,
        "s",
    );
    put(
        "prepare.sinan.collect_events",
        runs.iter().map(|r| r.collect_events).sum::<u64>() as f64 / b,
        "count",
    );
    put(
        "prepare.sinan.train_s",
        total("prepare.sinan.train") / b,
        "s",
    );
    put("prepare.firm_s", firm_s, "s");
    put("prepare.firm.events", firm_events, "count");
    put(
        "prepare.firm.ns_per_event",
        if firm_events > 0.0 {
            firm_s * 1e9 / firm_events
        } else {
            0.0
        },
        "ns",
    );

    // Runner.
    let idle = breakdown.layers.get("runner.idle").copied().unwrap_or(0);
    put(
        "runner.busy_frac",
        1.0 - idle as f64 / breakdown.grid_lanes_ns.max(1) as f64,
        "fraction",
    );
    let clones: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "runner.clone")
        .map(|s| s.dur() as f64 / 1e6)
        .collect();
    put("runner.clone_ms", median(&clones), "ms");

    // Metrics, chaos and memory planes.
    put("metrics.scrape_s", total("metrics.scrape") / b, "s");
    put(
        "chaos.fault_events",
        per_batch(|c| c.planes.fault_events),
        "count",
    );
    put("mem.oom_kills", per_batch(|c| c.planes.oom_kills), "count");
    put("mem.evictions", per_batch(|c| c.planes.evictions), "count");

    // The trace itself.
    let traced_wall = median(&runs.iter().map(|r| r.batch.wall).collect::<Vec<_>>());
    let untraced_wall = median(&untraced.iter().map(|u| u.wall).collect::<Vec<_>>());
    put("trace.wall_s", traced_wall, "s");
    put(
        "trace.overhead_frac",
        traced_wall / untraced_wall - 1.0,
        "fraction",
    );
    let reconcile = breakdown.reconcile_frac();
    put("trace.reconcile_frac", reconcile, "fraction");
    for layer in LAYERS {
        put(
            &format!("self_s.{layer}"),
            breakdown.layers.get(layer).copied().unwrap_or(0) as f64 / 1e9 / b,
            "s",
        );
    }
    let reconciled = (1.0 - RECONCILE_TOLERANCE..=1.0 + 1e-9).contains(&reconcile);
    if !reconciled {
        eprintln!(
            "layer self times cover {:.2}% of the traced lane time; the tolerance is {:.0}%",
            100.0 * reconcile,
            100.0 * RECONCILE_TOLERANCE
        );
    }
    (m, reconciled)
}
