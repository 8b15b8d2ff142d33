//! Property: the parallel cell runner is jobs-invariant. `--jobs 1` and
//! `--jobs 8` must produce byte-identical experiment output — the TSV-style
//! renders and metrics-snapshot digests that every artifact is built from —
//! across random topologies and loads, across the real fig11/12 cell path,
//! and across the manager preparation in front of it.

use std::fmt::Write as _;
use std::sync::OnceLock;

use proptest::prelude::*;
use ursa_apps::chains::study_chain_with;
use ursa_apps::App;
use ursa_bench::experiments::fig11_12::cell_inputs;
use ursa_bench::runner::{run_cells_with, set_jobs};
use ursa_bench::{results_dir, PreparedManagers, Scale, System};
use ursa_sim::engine::{SimConfig, Simulation};
use ursa_sim::time::SimDur;
use ursa_sim::topology::{ClassId, EdgeKind};
use ursa_sim::workload::RateFn;

/// One random simulation cell: a chain topology plus a load.
#[derive(Debug, Clone)]
struct CellSpec {
    edge: u8,
    tiers: usize,
    work_us: u64,
    rps: f64,
    seed: u64,
    secs: u64,
}

fn cell_specs() -> impl Strategy<Value = Vec<CellSpec>> {
    proptest::collection::vec(
        (
            0u8..3,
            2usize..5,
            500u64..4000,
            (20.0f64..200.0, 0u64..1_000_000),
            5u64..15,
        )
            .prop_map(|(edge, tiers, work_us, (rps, seed), secs)| CellSpec {
                edge,
                tiers,
                work_us,
                rps,
                seed,
                secs,
            }),
        2..9,
    )
}

/// Runs one cell and renders everything the experiments derive artifacts
/// from: event count, injection/completion counters, per-tier and
/// end-to-end latency percentiles.
fn digest(spec: &CellSpec) -> String {
    let edge = match spec.edge {
        0 => EdgeKind::NestedRpc,
        1 => EdgeKind::EventDrivenRpc,
        _ => EdgeKind::Mq,
    };
    let topo = study_chain_with(edge, spec.tiers, spec.work_us as f64 * 1e-6, 2.0);
    let mut sim = Simulation::new(topo, SimConfig::default(), spec.seed);
    sim.set_rate(ClassId(0), RateFn::Constant(spec.rps));
    sim.run_for(SimDur::from_secs(spec.secs));
    let snap = sim.harvest();
    let mut out = String::new();
    let _ = writeln!(out, "events\t{}", sim.events_processed());
    let _ = writeln!(
        out,
        "inj\t{:?}\tcomp\t{:?}",
        snap.injections, snap.completions
    );
    for t in 0..spec.tiers {
        let _ = writeln!(
            out,
            "tier{t}\t{:?}",
            snap.services[t].tier_latency[0].percentile(99.0)
        );
    }
    let _ = writeln!(out, "e2e\t{:?}", snap.e2e_latency[0].percentile(99.0));
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn jobs1_and_jobs8_produce_identical_output(specs in cell_specs()) {
        let seq = run_cells_with(1, specs.clone(), |_, s| digest(&s));
        let par = run_cells_with(8, specs.clone(), |_, s| digest(&s));
        prop_assert_eq!(seq, par);
    }
}

/// Fig. 11/12's preparation seed for the vanilla social network (app 1).
const VANILLA_PREPARE_SEED: u64 = 0x11_12 + 1;
/// Fig. 11/12's cell seed for the same app.
const VANILLA_CELL_SEED: u64 = 0xDE_9107 + 1;

/// The vanilla social network's managers, prepared under `--jobs 1` and
/// `--jobs 2` with fig11/12's seeds. Built once, in one place, because
/// the jobs setting is process-global.
fn prepared() -> &'static (App, [PreparedManagers; 2]) {
    static PREPARED: OnceLock<(App, [PreparedManagers; 2])> = OnceLock::new();
    PREPARED.get_or_init(|| {
        let app = ursa_apps::social_network(true);
        let under = |jobs: usize| {
            set_jobs(jobs);
            let m = PreparedManagers::prepare(&app, Scale::Quick, VANILLA_PREPARE_SEED);
            set_jobs(0);
            m
        };
        let managers = [under(1), under(2)];
        (app, managers)
    })
}

/// The grid slice's load families: two of five, for suite-runtime reasons.
fn in_slice(li: usize) -> bool {
    li == 0 || li == 3
}

/// A slice of the fig11/12 grid (the slice's loads × all five systems)
/// rendered as the committed table's rows without the app column, on
/// `jobs` workers.
fn grid_slice(app: &App, managers: &PreparedManagers, jobs: usize) -> Vec<String> {
    let inputs: Vec<_> = cell_inputs(app)
        .into_iter()
        .filter(|(li, _, _)| in_slice(*li))
        .collect();
    run_cells_with(jobs, inputs, |_, (li, load, si)| {
        let report = managers.deploy_cell(
            app,
            System::ALL[si],
            &load,
            Scale::Quick,
            VANILLA_CELL_SEED ^ ((li as u64) << 8) ^ si as u64,
            None,
        );
        format!(
            "{}\t{}\t{:.4}\t{:.1}",
            load.label(),
            System::ALL[si].label(),
            report.overall_violation_rate(),
            report.avg_cpu_allocation()
        )
    })
}

/// The real fig11/12 path is jobs-invariant end to end: managers prepared
/// and cells run on one worker render the same grid-slice rows as
/// managers prepared on two workers and cells run on eight.
#[test]
fn fig11_12_grid_jobs_invariant() {
    let (app, [seq, par]) = prepared();
    assert_eq!(grid_slice(app, seq, 1), grid_slice(app, par, 8));
}

/// Manager preparation is jobs-invariant and keeps each part on its own
/// seed: Ursa, Sinan and Firm trained as cells under `--jobs 1` and
/// `--jobs 2` consumed the same samples, and the `--jobs 2` managers
/// reproduce the committed `fig11_12.tsv` rows (a seed swap between two
/// parts is jobs-invariant, so only the committed rows catch it).
/// Wall-clock fields (Ursa's recalculation time, Sinan's training time)
/// differ between runs, so the managers are compared through what they
/// decide and what they consumed, never through their `Debug` renders.
#[test]
fn prepare_jobs_invariant() {
    let (app, [seq, par]) = prepared();
    assert_eq!(
        seq.ursa.offline_stats().exploration_samples,
        par.ursa.offline_stats().exploration_samples
    );
    assert_eq!(seq.firm.samples_consumed(), par.firm.samples_consumed());

    let path = results_dir().join("fig11_12").join("fig11_12.tsv");
    let committed =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    let prefix = format!("{}\t", app.name);
    // The committed rows are in `cell_inputs` order.
    let committed: Vec<&str> = committed
        .lines()
        .filter_map(|l| l.strip_prefix(prefix.as_str()))
        .zip(cell_inputs(app))
        .filter(|(_, (li, _, _))| in_slice(*li))
        .map(|(row, _)| row)
        .collect();
    assert_eq!(grid_slice(app, par, 2), committed);
}
