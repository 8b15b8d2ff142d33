//! Deployment cells, run plain or traced.
//!
//! The traced path drives `run_deployment_observed` with two hooks of the
//! benchmark's own: a [`ResourceManager`] wrapper that times `on_tick`
//! (`deploy.decide`, with a `mip.solve` child when Ursa recalculated) and a
//! [`DeployObserver`] that closes each window. Everything between the end of
//! one window and the start of the next decision is `deploy.sim`
//! (`run_for` + `harvest` + the loop's per-window record).
//!
//! When the cell is metered, the traced path passes no collector to the
//! deployment loop and has the observer make the same three calls on the same
//! snapshot instead (`observe_snapshot`, `observe_decision`, `scrape`), so
//! they can be timed as `metrics.scrape`. The loop makes them before the
//! tick; the observer right after it. The simulated outcome is unchanged:
//! the collector only reads the simulation.

use std::cell::RefCell;

use ursa_apps::App;
use ursa_baselines::Autoscaler;
use ursa_bench::{default_rates, mix_seed, LoadSpec, PreparedManagers, Scale, System};
use ursa_core::manager::Ursa;
use ursa_sim::chaos::FaultPlan;
use ursa_sim::control::{
    run_deployment_metered, run_deployment_observed, ControlPlane, DeployConfig, DeployObserver,
    DeploymentReport, ResourceManager,
};
use ursa_sim::engine::Simulation;
use ursa_sim::memory::MemPlan;
use ursa_sim::metrics::SimMetrics;
use ursa_sim::telemetry::MetricsSnapshot;
use ursa_sim::time::SimDur;
use ursa_sim::topology::ServiceId;

use crate::trace::Tracer;

/// Engine counters of one simulation, deterministic per seed.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SimCounters {
    pub live: u64,
    pub stale: u64,
    pub queue_max_depth: usize,
    pub arena_slots_hw: usize,
}

impl SimCounters {
    pub fn of(sim: &Simulation) -> Self {
        SimCounters {
            live: sim.events_processed(),
            stale: sim.events_stale(),
            queue_max_depth: sim.event_heap_max_depth(),
            arena_slots_hw: sim.arena_slots_high_water(),
        }
    }
}

/// Plane counters of one cell.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PlaneCounters {
    pub fault_events: u64,
    pub oom_kills: u64,
    pub evictions: u64,
}

/// What a traced cell measured besides its spans.
#[derive(Debug, Clone, Default)]
pub struct CellTrace {
    pub sim: SimCounters,
    pub planes: PlaneCounters,
    /// Wall time of every `on_tick`, ns.
    pub decide_ns: Vec<u64>,
    /// Ursa's online recalculations and the last one's solve time.
    pub mip_solves: u64,
    pub mip_last_ms: f64,
    pub windows: u64,
}

/// The optional planes of a deployment cell.
#[derive(Clone, Copy, Default)]
pub struct Planes<'a> {
    pub faults: Option<&'a FaultPlan>,
    pub mem: Option<&'a MemPlan>,
    pub metered: bool,
}

fn deploy_config(scale: Scale) -> DeployConfig {
    // The same loop settings `PreparedManagers` deploys with.
    DeployConfig {
        duration: scale.deploy_duration(),
        control_interval: SimDur::from_mins(1),
        warmup: SimDur::from_mins(2),
        collect_samples: false,
    }
}

/// Builds a cell's simulation exactly as `PreparedManagers` does.
pub fn build_sim(
    app: &App,
    load: &LoadSpec,
    scale: Scale,
    seed: u64,
    planes: Planes,
) -> Simulation {
    let seed = mix_seed(seed);
    let mut sim = app.build_sim(seed);
    if let Some(plan) = planes.faults {
        sim.install_faults(plan, seed);
    }
    if let Some(plan) = planes.mem {
        sim.install_memory_plane(plan);
    }
    load.apply(app, &mut sim, scale.deploy_duration());
    sim
}

/// Counts chaos edges (injections and recoveries) among a collector's
/// fault annotations; memory incidents share the annotation kind.
fn chaos_annotations(metrics: &SimMetrics) -> u64 {
    metrics
        .annotations()
        .iter()
        .filter(|a| {
            a.kind == "fault" && (a.label.contains(" injected") || a.label.contains(" recovered"))
        })
        .count() as u64
}

/// Runs one autoscaled cell plainly through `run_deployment_metered`,
/// scraping a collector every window. Returns the report, the engine
/// counters and the plane counters read back from the collector.
pub fn plain_autoscaled(
    app: &App,
    system: System,
    scale: Scale,
    seed: u64,
    planes: Planes,
) -> (DeploymentReport, SimCounters, PlaneCounters) {
    let mut sim = build_sim(app, &LoadSpec::Constant, scale, seed, planes);
    let mut auto = autoscaler(system, app);
    let mut metrics = SimMetrics::for_topology(system.label(), &app.topology, &app.slas);
    let report = run_deployment_metered(
        &mut sim,
        &app.slas,
        &mut auto,
        &deploy_config(scale),
        Some(&mut metrics),
    );
    let mem = ursa_bench::experiments::qos::mem_stats(&metrics);
    let counters = PlaneCounters {
        fault_events: chaos_annotations(&metrics),
        oom_kills: mem.oom_kills,
        evictions: mem.evictions.iter().sum(),
    };
    (report, SimCounters::of(&sim), counters)
}

fn autoscaler(system: System, app: &App) -> Autoscaler {
    let n = app.topology.num_services();
    match system {
        System::AutoA => Autoscaler::auto_a(n),
        System::AutoB => Autoscaler::auto_b(n),
        other => panic!("{} is not an autoscaler", other.label()),
    }
}

/// Per-window state shared by the manager wrapper and the observer.
struct Window {
    /// When the current window's simulation started, ns.
    sim_start: u64,
    decide_ns: u64,
    replicas_before: Vec<usize>,
    trace: CellTrace,
}

struct TimedManager<'a> {
    inner: &'a mut dyn ResourceManager,
    tracer: &'a Tracer,
    parent: usize,
    cell: usize,
    metered: bool,
    window: &'a RefCell<Window>,
}

fn ursa_solves(m: &dyn ResourceManager) -> Option<(u64, f64)> {
    let ursa = m.as_any()?.downcast_ref::<Ursa>()?;
    Some((ursa.recalcs(), ursa.last_recalc_wall_ms()))
}

impl ResourceManager for TimedManager<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn on_tick(&mut self, snapshot: &MetricsSnapshot, control: &mut dyn ControlPlane) {
        let t = self.tracer;
        let sim_end = t.now();
        let mut w = self.window.borrow_mut();
        t.record(
            "deploy.sim",
            w.sim_start,
            sim_end,
            Some(self.parent),
            Some(self.cell),
        );
        if self.metered {
            w.replicas_before = (0..control.num_services())
                .map(|s| control.replicas(ServiceId(s)))
                .collect();
        }
        let solves_before = ursa_solves(&*self.inner);
        let t0 = t.now();
        self.inner.on_tick(snapshot, control);
        let t1 = t.now();
        let decide = t.record("deploy.decide", t0, t1, Some(self.parent), Some(self.cell));
        if let (Some((before, _)), Some((after, ms))) = (solves_before, ursa_solves(&*self.inner)) {
            if after > before {
                // The solve ran inside this tick; Ursa measured its length.
                let len = ((ms * 1e6) as u64).min(t1 - t0);
                t.record("mip.solve", t1 - len, t1, Some(decide), Some(self.cell));
                w.trace.mip_solves += after - before;
                w.trace.mip_last_ms = ms;
            }
        }
        w.decide_ns = t1 - t0;
        w.trace.decide_ns.push(t1 - t0);
    }

    fn self_profile(&self) -> Vec<(&'static str, f64)> {
        self.inner.self_profile()
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        self.inner.as_any()
    }
}

struct WindowObserver<'a> {
    tracer: &'a Tracer,
    parent: usize,
    cell: usize,
    metrics: Option<SimMetrics>,
    window: &'a RefCell<Window>,
}

impl DeployObserver for WindowObserver<'_> {
    fn after_tick(
        &mut self,
        sim: &Simulation,
        manager: &dyn ResourceManager,
        _metrics: Option<&SimMetrics>,
        snapshot: &MetricsSnapshot,
    ) {
        let t = self.tracer;
        let mut w = self.window.borrow_mut();
        if let Some(m) = self.metrics.as_mut() {
            let t0 = t.now();
            m.observe_snapshot(sim, snapshot);
            let changes: Vec<(String, usize, usize)> = w
                .replicas_before
                .iter()
                .enumerate()
                .filter_map(|(s, &before)| {
                    let after = sim.replicas(ServiceId(s));
                    (after != before)
                        .then(|| (sim.topology().services()[s].name.clone(), before, after))
                })
                .collect();
            m.observe_decision(
                snapshot.at,
                w.decide_ns as f64 / 1e6,
                &manager.self_profile(),
                &changes,
            );
            m.scrape(snapshot.at);
            let t1 = t.now();
            t.record("metrics.scrape", t0, t1, Some(self.parent), Some(self.cell));
        }
        w.trace.windows += 1;
        w.trace.planes.fault_events += snapshot.faults.len() as u64;
        if let Some(mem) = &snapshot.mem {
            w.trace.planes.oom_kills += mem.oom_kills;
            w.trace.planes.evictions += mem.evictions.iter().sum::<u64>();
        }
        w.sim_start = t.now();
    }
}

/// Runs one deployment cell under the tracer, mirroring
/// `PreparedManagers::deploy_observed_full` step for step: the same seed
/// mixing, simulation build, planes, load and loop settings. `managers`
/// is the cell's own clone; autoscaled systems need none.
#[allow(clippy::too_many_arguments)]
pub fn traced(
    tracer: &Tracer,
    parent: usize,
    cell: usize,
    app: &App,
    managers: Option<&mut PreparedManagers>,
    system: System,
    load: &LoadSpec,
    scale: Scale,
    seed: u64,
    planes: Planes,
) -> (DeploymentReport, CellTrace) {
    let b = tracer.open("deploy.build", Some(parent), Some(cell));
    let mut sim = build_sim(app, load, scale, seed, planes);
    let mut auto;
    let manager: &mut dyn ResourceManager = match (system, managers) {
        (System::Ursa, Some(m)) => {
            m.ursa
                .apply_initial_allocation(&default_rates(app), &mut sim);
            &mut m.ursa
        }
        (System::Sinan, Some(m)) => &mut m.sinan,
        (System::Firm, Some(m)) => &mut m.firm,
        (System::AutoA | System::AutoB, _) => {
            auto = autoscaler(system, app);
            &mut auto
        }
        (s, None) => panic!("{} needs prepared managers", s.label()),
    };
    tracer.close(b);
    let window = RefCell::new(Window {
        sim_start: tracer.now(),
        decide_ns: 0,
        replicas_before: Vec::new(),
        trace: CellTrace::default(),
    });
    let mut timed = TimedManager {
        inner: manager,
        tracer,
        parent,
        cell,
        metered: planes.metered,
        window: &window,
    };
    let mut observer = WindowObserver {
        tracer,
        parent,
        cell,
        metrics: planes
            .metered
            .then(|| SimMetrics::for_topology(system.label(), &app.topology, &app.slas)),
        window: &window,
    };
    let report = run_deployment_observed(
        &mut sim,
        &app.slas,
        &mut timed,
        &deploy_config(scale),
        None,
        Some(&mut observer),
    );
    let mut trace = window.into_inner().trace;
    trace.sim = SimCounters::of(&sim);
    (report, trace)
}
