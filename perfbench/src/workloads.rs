//! The three workloads. Each is a closed batch: a fixed amount of simulated
//! work run from one process on the runner's workers.
//!
//! * `fig11_social` — what a user pays for one app of Figure 11/12:
//!   manager preparation, then 5 loads × 5 systems = 25 deployment cells.
//! * `engine` — the bare event core in three cells, no manager.
//! * `planes` — six fault plans × {Auto-a, Auto-b} on the social network
//!   with the overcommit memory plan, metered every window.

use std::time::Instant;

use ursa_apps::{scale_app, social_network, App};
use ursa_baselines::{collect, train_firm, Firm, FirmConfig, Sinan};
use ursa_bench::experiments::{chaos, fig11_12, qos};
use ursa_bench::runner::run_cells_with;
use ursa_bench::{mix_seed, prepare_ursa, LoadSpec, PreparedManagers, Scale, System};
use ursa_sim::chaos::FaultPlan;
use ursa_sim::control::DeploymentReport;
use ursa_sim::engine::{SimConfig, Simulation};
use ursa_sim::memory::MemPlan;
use ursa_sim::time::SimDur;
use ursa_sim::topology::{
    CallNode, ClassCfg, ClassId, Priority, ServiceCfg, ServiceId, Topology, WorkDist,
};
use ursa_sim::workload::RateFn;

use crate::deploy::{self, CellTrace, Planes, SimCounters};
use crate::trace::Tracer;

const SCALE: Scale = Scale::Quick;
/// The seeds `fig11_12::run` uses for the social network (app index 0).
const FIG11_PREPARE_SEED: u64 = 0x11_12;
const FIG11_CELL_SEED: u64 = 0xDE_9107;
/// Sinan training epochs at quick scale, as `prepare_sinan` runs them.
const SINAN_QUICK_EPOCHS: usize = 8;
const ENGINE_SEED: u64 = 0xE9_61E5;
const PLANES_SEED: u64 = 0x91_A9E5;

/// One batch's measurements.
#[derive(Debug, Clone, Default)]
pub struct Batch {
    /// Wall time of the whole batch, s.
    pub wall: f64,
    /// Wall time of manager preparation, s (0 when there is none).
    pub prepare: f64,
    /// Wall time of the grid of cells, s.
    pub grid: f64,
    /// Rows in the golden's format, one per operation.
    pub rows: Vec<String>,
    /// Rows at full precision, for agreement between runs.
    pub exact: Vec<String>,
    /// Wall time of each cell on its worker, s.
    pub cell_s: Vec<f64>,
}

/// What a traced batch measured besides its spans.
#[derive(Debug, Clone, Default)]
pub struct Traced {
    pub batch: Batch,
    /// Per cell: its label (system or engine cell name) and measurements.
    pub cells: Vec<(String, CellTrace)>,
    pub ursa_samples: u64,
    pub collect_events: u64,
    pub firm_events: u64,
}

pub trait Workload {
    /// Runs one batch with tracing off.
    fn batch(&mut self, jobs: usize) -> Batch;
    /// Reruns the deterministic part of the last batch; its full-precision
    /// rows must equal the batch's. For `fig11_social` that is the grid on
    /// the prepared managers, so the rerun has no preparation time.
    fn rerun(&mut self, jobs: usize) -> Batch;
    /// Runs one batch under the tracer, as a `run` span.
    fn traced(&mut self, jobs: usize, tracer: &Tracer) -> Traced;
    /// Reference rows at seed 0.
    fn golden(&self) -> Vec<String>;
}

/// Builds a workload's inputs. This is the benchmark's set-up.
pub fn setup(name: &str) -> Option<Box<dyn Workload>> {
    match name {
        "fig11_social" => Some(Box::new(Fig11::setup())),
        "engine" => Some(Box::new(Engine::setup())),
        "planes" => Some(Box::new(PlanesGrid::setup())),
        _ => None,
    }
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// A stretch of `sim` under its load, so the allocator and caches are
/// warm before the first timed call.
fn warm_up(mut sim: Simulation, length: SimDur) {
    sim.run_for(length);
    std::hint::black_box(sim.harvest());
}

fn loaded(app: &App) -> Simulation {
    let mut sim = app.build_sim(mix_seed(1));
    app.apply_load(&mut sim, RateFn::Constant(app.default_rps));
    sim
}

fn deploy_row(report: &DeploymentReport) -> String {
    format!(
        "{:?}\t{:?}",
        report.overall_violation_rate(),
        report.avg_cpu_allocation()
    )
}

// ---------------------------------------------------------------- fig11

struct Fig11 {
    app: App,
    managers: Option<PreparedManagers>,
}

impl Fig11 {
    fn setup() -> Self {
        let app = social_network(false);
        warm_up(loaded(&app), SimDur::from_mins(5));
        Fig11 {
            app,
            managers: None,
        }
    }

    fn cell_seed(li: usize, si: usize) -> u64 {
        FIG11_CELL_SEED ^ ((li as u64) << 8) ^ si as u64
    }

    fn grid(&self, jobs: usize) -> (Vec<fig11_12::Cell>, f64) {
        ursa_bench::runner::set_jobs(jobs);
        let managers = self.managers.as_ref().expect("managers prepared");
        let t = Instant::now();
        let cells = fig11_12::run_app(&self.app, managers, SCALE, FIG11_CELL_SEED);
        (cells, secs(t))
    }
}

fn fig11_exact(c: &fig11_12::Cell) -> String {
    format!(
        "{}\t{}\t{:?}\t{:?}",
        c.load, c.system, c.violation_rate, c.avg_cores
    )
}

impl Workload for Fig11 {
    fn batch(&mut self, jobs: usize) -> Batch {
        let t = Instant::now();
        self.managers = Some(PreparedManagers::prepare(
            &self.app,
            SCALE,
            FIG11_PREPARE_SEED,
        ));
        let prepare = secs(t);
        let (cells, grid) = self.grid(jobs);
        let wall = secs(t);
        Batch {
            wall,
            prepare,
            grid,
            // The committed table's format.
            rows: cells
                .iter()
                .map(|c| {
                    format!(
                        "{}\t{}\t{:.4}\t{:.1}",
                        c.load, c.system, c.violation_rate, c.avg_cores
                    )
                })
                .collect(),
            exact: cells.iter().map(fig11_exact).collect(),
            // `run_app` does not report per-cell times.
            cell_s: Vec::new(),
        }
    }

    fn rerun(&mut self, jobs: usize) -> Batch {
        let (cells, grid) = self.grid(jobs);
        Batch {
            wall: grid,
            grid,
            exact: cells.iter().map(fig11_exact).collect(),
            ..Batch::default()
        }
    }

    fn traced(&mut self, jobs: usize, tracer: &Tracer) -> Traced {
        let app = &self.app;
        let mut out = Traced::default();
        let t = Instant::now();
        let root = tracer.open("run", None, None);
        // `PreparedManagers::prepare`, one manager at a time, with the
        // seeds it uses.
        let prep = tracer.open("prepare", Some(root), None);
        let ursa = tracer.scope("prepare.ursa", Some(prep), None, |_| {
            prepare_ursa(app, SCALE, FIG11_PREPARE_SEED)
        });
        out.ursa_samples = ursa.offline_stats().exploration_samples as u64;
        let seed = mix_seed(FIG11_PREPARE_SEED ^ 0xAA);
        let dataset = tracer.scope("prepare.sinan.collect", Some(prep), None, |_| {
            let mut sim = app.build_sim(seed ^ 0x51A4);
            app.apply_load(&mut sim, RateFn::Constant(app.default_rps));
            let d = collect(&mut sim, &app.slas, &SCALE.sinan_collect(), seed);
            out.collect_events = sim.events_processed();
            d
        });
        let sinan = tracer.scope("prepare.sinan.train", Some(prep), None, |_| {
            Sinan::train(&dataset, &app.slas, SINAN_QUICK_EPOCHS, seed ^ 1)
        });
        let firm = tracer.scope("prepare.firm", Some(prep), None, |_| {
            let (firm, events) = prepare_firm(app, FIG11_PREPARE_SEED ^ 0xBB);
            out.firm_events = events;
            firm
        });
        tracer.close(prep);
        out.batch.prepare = secs(t);
        // `PreparedManagers` keeps one field private, so the traced
        // managers go into a clone of the untraced ones.
        let mut managers = self.managers.clone().expect("an untraced batch ran first");
        managers.ursa = ursa;
        managers.sinan = sinan;
        managers.firm = firm;

        let grid_t = Instant::now();
        let inputs = fig11_12::cell_inputs(app);
        let results = tracer.scope("grid", Some(root), None, |grid| {
            run_cells_with(jobs, inputs, |i, (li, load, si)| {
                let t = Instant::now();
                let system = System::ALL[si];
                let (report, trace) = tracer.scope("cell", Some(grid), Some(i), |cell| {
                    let mut m =
                        tracer.scope("runner.clone", Some(cell), Some(i), |_| managers.clone());
                    deploy::traced(
                        tracer,
                        cell,
                        i,
                        app,
                        Some(&mut m),
                        system,
                        &load,
                        SCALE,
                        Self::cell_seed(li, si),
                        Planes::default(),
                    )
                });
                let row = format!(
                    "{}\t{}\t{}",
                    load.label(),
                    system.label(),
                    deploy_row(&report)
                );
                (row, system.label().to_string(), trace, secs(t))
            })
        });
        out.batch.grid = secs(grid_t);
        tracer.close(root);
        out.batch.wall = secs(t);
        for (row, label, trace, cell_s) in results {
            out.batch.exact.push(row);
            out.cells.push((label, trace));
            out.batch.cell_s.push(cell_s);
        }
        out
    }

    fn golden(&self) -> Vec<String> {
        crate::checks::rows_for(crate::checks::FIG11_12_TSV, &self.app.name)
    }
}

/// `prepare_firm`, returning the engine events its training simulated.
fn prepare_firm(app: &App, seed: u64) -> (Firm, u64) {
    let seed = mix_seed(seed);
    let service_classes: Vec<Vec<usize>> = (0..app.topology.num_services())
        .map(|s| {
            app.topology
                .classes_on_service(ServiceId(s))
                .into_iter()
                .map(|c| c.0)
                .collect()
        })
        .collect();
    let mut firm = Firm::new(
        app.topology.num_services(),
        &app.slas,
        service_classes,
        FirmConfig::default(),
        seed,
    );
    let mut sim = app.build_sim(seed ^ 0xF1B3);
    app.apply_load(&mut sim, RateFn::Constant(app.default_rps));
    train_firm(
        &mut sim,
        &mut firm,
        &app.slas,
        SCALE.firm_windows(),
        SimDur::from_secs(15),
        seed ^ 7,
    );
    firm.training = false;
    (firm, sim.events_processed())
}

// ---------------------------------------------------------------- engine

/// The engine cells: name, simulated length. The longest runs first, so
/// that the two shorter ones share the other worker.
pub const ENGINE_CELLS: [(&str, SimDur); 3] = [
    ("wide", SimDur::from_mins(1)),
    ("canonical", SimDur::from_mins(7)),
    ("ps_heavy", SimDur::from_mins(2)),
];
/// Concurrent worker slots on the ps_heavy replica.
const PS_HEAVY_WORKERS: usize = 512;
const PS_HEAVY_RPS: f64 = 4000.0;

struct Engine {
    vanilla: App,
    wide: App,
    ps_heavy: Topology,
}

impl Engine {
    fn setup() -> Self {
        let vanilla = social_network(true);
        let wide = scale_app(&social_network(true), 7);
        let ps_heavy = Topology::new(
            vec![ServiceCfg::new("svc", 8.0).with_workers(PS_HEAVY_WORKERS)],
            vec![ClassCfg {
                name: "req".into(),
                priority: Priority::HIGH,
                root: CallNode::leaf(ServiceId(0), WorkDist::Exponential { mean: 0.004 }),
            }],
        )
        .expect("static ps_heavy topology");
        let engine = Engine {
            vanilla,
            wide,
            ps_heavy,
        };
        for i in 0..ENGINE_CELLS.len() {
            warm_up(engine.build(i), SimDur::from_secs(10));
        }
        engine
    }

    /// Builds cell `i`'s loaded simulation.
    fn build(&self, i: usize) -> Simulation {
        let seed = mix_seed(ENGINE_SEED ^ i as u64);
        match ENGINE_CELLS[i].0 {
            "ps_heavy" => {
                let mut sim = Simulation::new(self.ps_heavy.clone(), SimConfig::default(), seed);
                sim.set_rate(ClassId(0), RateFn::Constant(PS_HEAVY_RPS));
                sim
            }
            name => {
                let app = if name == "wide" {
                    &self.wide
                } else {
                    &self.vanilla
                };
                let mut sim = app.build_sim(seed);
                app.apply_load(&mut sim, RateFn::Constant(app.default_rps));
                sim
            }
        }
    }

    /// Runs cell `i` to its end, harvesting once per simulated minute as
    /// every real caller does. With a tracer, each window is a
    /// `deploy.sim` span under the given cell span. Returns the windows.
    fn run(sim: &mut Simulation, i: usize, trace: Option<(&Tracer, usize)>) -> u64 {
        let end = sim.now() + ENGINE_CELLS[i].1;
        let mut windows = 0;
        while sim.now() < end {
            let left = (end - sim.now()).as_nanos();
            let step = SimDur::from_nanos(left.min(SimDur::from_mins(1).as_nanos()));
            let t0 = trace.map_or(0, |(t, _)| t.now());
            sim.run_for(step);
            std::hint::black_box(sim.harvest());
            if let Some((t, cell)) = trace {
                t.record("deploy.sim", t0, t.now(), Some(cell), Some(i));
            }
            windows += 1;
        }
        windows
    }

    fn rows(counters: &[SimCounters]) -> Vec<String> {
        counters
            .iter()
            .zip(ENGINE_CELLS)
            .map(|(c, (name, _))| {
                format!(
                    "{name}\t{}\t{}\t{}\t{}",
                    c.live, c.stale, c.queue_max_depth, c.arena_slots_hw
                )
            })
            .collect()
    }
}

impl Workload for Engine {
    fn batch(&mut self, jobs: usize) -> Batch {
        let t = Instant::now();
        let out = run_cells_with(jobs, (0..ENGINE_CELLS.len()).collect(), |_, i| {
            let t = Instant::now();
            let mut sim = self.build(i);
            Self::run(&mut sim, i, None);
            (SimCounters::of(&sim), secs(t))
        });
        let wall = secs(t);
        let counters: Vec<SimCounters> = out.iter().map(|o| o.0).collect();
        let rows = Self::rows(&counters);
        Batch {
            wall,
            prepare: 0.0,
            grid: wall,
            exact: rows.clone(),
            rows,
            cell_s: out.iter().map(|o| o.1).collect(),
        }
    }

    fn rerun(&mut self, jobs: usize) -> Batch {
        self.batch(jobs)
    }

    fn traced(&mut self, jobs: usize, tracer: &Tracer) -> Traced {
        let t = Instant::now();
        let root = tracer.open("run", None, None);
        let out = tracer.scope("grid", Some(root), None, |grid| {
            run_cells_with(jobs, (0..ENGINE_CELLS.len()).collect(), |_, i| {
                let t = Instant::now();
                let counters = tracer.scope("cell", Some(grid), Some(i), |cell| {
                    let mut sim =
                        tracer.scope("deploy.build", Some(cell), Some(i), |_| self.build(i));
                    let windows = Self::run(&mut sim, i, Some((tracer, cell)));
                    (SimCounters::of(&sim), windows)
                });
                (counters, secs(t))
            })
        });
        tracer.close(root);
        let wall = secs(t);
        let counters: Vec<SimCounters> = out.iter().map(|o| o.0 .0).collect();
        Traced {
            batch: Batch {
                wall,
                prepare: 0.0,
                grid: wall,
                rows: Vec::new(),
                exact: Self::rows(&counters),
                cell_s: out.iter().map(|o| o.1).collect(),
            },
            cells: out
                .iter()
                .zip(ENGINE_CELLS)
                .map(|(((sim, windows), _), (name, _))| {
                    (
                        name.to_string(),
                        CellTrace {
                            sim: *sim,
                            windows: *windows,
                            ..CellTrace::default()
                        },
                    )
                })
                .collect(),
            ..Traced::default()
        }
    }

    fn golden(&self) -> Vec<String> {
        crate::checks::rows_for(crate::checks::EXPECTED_SEED0, "engine")
    }
}

// ---------------------------------------------------------------- planes

const PLANE_SYSTEMS: [System; 2] = [System::AutoA, System::AutoB];

struct PlanesGrid {
    app: App,
    mem: MemPlan,
    faults: Vec<(String, FaultPlan)>,
}

impl PlanesGrid {
    fn setup() -> Self {
        let mut app = social_network(false);
        let level = qos::levels()
            .into_iter()
            .find(|l| l.name == "overcommit")
            .expect("the qos sweep has an overcommit level");
        let plane = qos::qos_plane(&level);
        app.topology = plane.annotate(app.topology).expect("annotate");
        let mem = plane.mem_plan(&app.topology).expect("mem_plan");
        let faults = chaos::fault_plans(&app, SCALE);
        let grid = PlanesGrid { app, mem, faults };
        warm_up(
            deploy::build_sim(&grid.app, &LoadSpec::Constant, SCALE, 1, grid.planes(0)),
            SimDur::from_mins(5),
        );
        grid
    }

    fn inputs(&self) -> Vec<(usize, usize)> {
        (0..self.faults.len())
            .flat_map(|fi| (0..PLANE_SYSTEMS.len()).map(move |si| (fi, si)))
            .collect()
    }

    fn planes(&self, fi: usize) -> Planes<'_> {
        Planes {
            faults: Some(&self.faults[fi].1),
            mem: Some(&self.mem),
            metered: true,
        }
    }

    fn cell_seed(fi: usize, si: usize) -> u64 {
        PLANES_SEED ^ ((fi as u64) << 8) ^ si as u64
    }

    fn row(
        &self,
        fi: usize,
        si: usize,
        report: &DeploymentReport,
        sim: SimCounters,
        p: deploy::PlaneCounters,
    ) -> String {
        format!(
            "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
            self.faults[fi].0,
            PLANE_SYSTEMS[si].label(),
            deploy_row(report),
            sim.live,
            sim.stale,
            p.fault_events,
            p.oom_kills,
            p.evictions
        )
    }
}

impl Workload for PlanesGrid {
    fn batch(&mut self, jobs: usize) -> Batch {
        let t = Instant::now();
        let out = run_cells_with(jobs, self.inputs(), |_, (fi, si)| {
            let t = Instant::now();
            let (report, sim, planes) = deploy::plain_autoscaled(
                &self.app,
                PLANE_SYSTEMS[si],
                SCALE,
                Self::cell_seed(fi, si),
                self.planes(fi),
            );
            (self.row(fi, si, &report, sim, planes), secs(t))
        });
        let wall = secs(t);
        let rows: Vec<String> = out.iter().map(|o| o.0.clone()).collect();
        Batch {
            wall,
            prepare: 0.0,
            grid: wall,
            exact: rows.clone(),
            rows,
            cell_s: out.iter().map(|o| o.1).collect(),
        }
    }

    fn rerun(&mut self, jobs: usize) -> Batch {
        self.batch(jobs)
    }

    fn traced(&mut self, jobs: usize, tracer: &Tracer) -> Traced {
        let t = Instant::now();
        let root = tracer.open("run", None, None);
        let out = tracer.scope("grid", Some(root), None, |grid| {
            run_cells_with(jobs, self.inputs(), |i, (fi, si)| {
                let t = Instant::now();
                let system = PLANE_SYSTEMS[si];
                let (report, trace) = tracer.scope("cell", Some(grid), Some(i), |cell| {
                    deploy::traced(
                        tracer,
                        cell,
                        i,
                        &self.app,
                        None,
                        system,
                        &LoadSpec::Constant,
                        SCALE,
                        Self::cell_seed(fi, si),
                        self.planes(fi),
                    )
                });
                let row = self.row(fi, si, &report, trace.sim, trace.planes);
                (row, system.label().to_string(), trace, secs(t))
            })
        });
        tracer.close(root);
        let mut traced = Traced::default();
        traced.batch.wall = secs(t);
        traced.batch.grid = traced.batch.wall;
        for (row, label, trace, cell_s) in out {
            traced.batch.exact.push(row);
            traced.cells.push((label, trace));
            traced.batch.cell_s.push(cell_s);
        }
        traced
    }

    fn golden(&self) -> Vec<String> {
        crate::checks::rows_for(crate::checks::EXPECTED_SEED0, "planes")
    }
}
