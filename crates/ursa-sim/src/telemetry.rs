//! Telemetry: the simulator's analog of the paper's Prometheus deployment.
//!
//! The tracing framework in Ursa (§V, component 1) collects, per harvest
//! interval: request counts and latency distributions per service and per
//! request class, end-to-end latency distributions per class, and CPU
//! usage. [`Telemetry`] accumulates those inside the simulator and
//! [`MetricsSnapshot`] is the immutable view handed to resource managers on
//! every control tick.

use crate::time::{SimDur, SimTime};
use crate::topology::{ClassId, ServiceId, Topology};
use ursa_stats::quantile::{percentile_of_sorted, QuantileWindow};

/// Capacity of per-(service, class) latency windows.
const SERVICE_WINDOW_CAP: usize = 16_384;
/// Capacity of per-class end-to-end latency windows.
const E2E_WINDOW_CAP: usize = 65_536;

/// Latency statistics for one stream of samples within a harvest window.
///
/// # Window semantics
///
/// The underlying telemetry windows are bounded rings: when more samples
/// arrive in one harvest interval than the retention capacity, the oldest
/// are evicted. Consequently [`total_count`](Self::total_count) counts
/// *every* sample observed during the window, while all distribution
/// statistics ([`percentile`](Self::percentile), [`mean`](Self::mean),
/// [`fraction_above`](Self::fraction_above), [`samples`](Self::samples),
/// [`len`](Self::len)) describe only the most recent
/// `len() <= total_count()` retained samples. At evaluation scale the
/// capacities are sized so eviction is rare; compare `len() as u64` with
/// `total_count()` to detect when it happened.
#[derive(Debug, Clone, Default)]
pub struct LatencySeries {
    sorted: Vec<f64>,
    count: u64,
}

impl LatencySeries {
    fn from_window(w: &QuantileWindow) -> Self {
        LatencySeries {
            sorted: w.sorted(),
            count: w.total_count(),
        }
    }

    /// Number of samples *retained* in the window (at most the retention
    /// capacity; see the type-level window-semantics note).
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// True if the window captured no samples.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Total samples *observed* during the window, including any evicted
    /// beyond the retention capacity. May exceed [`len`](Self::len); see
    /// the type-level window-semantics note.
    pub fn total_count(&self) -> u64 {
        self.count
    }

    /// The `p`-th percentile (0–100) in seconds over the *retained*
    /// samples, or `None` if empty.
    pub fn percentile(&self, p: f64) -> Option<f64> {
        if self.sorted.is_empty() {
            None
        } else {
            Some(percentile_of_sorted(&self.sorted, p))
        }
    }

    /// Mean latency in seconds over the *retained* samples (evicted
    /// samples are excluded — this is not `sum / total_count`), or `None`
    /// if empty.
    pub fn mean(&self) -> Option<f64> {
        if self.sorted.is_empty() {
            None
        } else {
            Some(self.sorted.iter().sum::<f64>() / self.sorted.len() as f64)
        }
    }

    /// Fraction of *retained* samples strictly above `threshold` seconds
    /// (denominator is [`len`](Self::len), not
    /// [`total_count`](Self::total_count)), or `None` if empty.
    pub fn fraction_above(&self, threshold: f64) -> Option<f64> {
        if self.sorted.is_empty() {
            return None;
        }
        let idx = self.sorted.partition_point(|&x| x <= threshold);
        Some((self.sorted.len() - idx) as f64 / self.sorted.len() as f64)
    }

    /// The retained samples in ascending order.
    pub fn samples(&self) -> &[f64] {
        &self.sorted
    }
}

/// Per-service metrics for one harvest window.
#[derive(Debug, Clone)]
pub struct ServiceMetrics {
    /// Service name (mirrors the topology).
    pub name: String,
    /// Live replica count at harvest time (excludes draining replicas).
    pub replicas: usize,
    /// CPU cores per replica at harvest time.
    pub cores_per_replica: f64,
    /// Mean CPU utilization over the window in `[0, 1]`
    /// (busy core-seconds / capacity core-seconds).
    pub cpu_utilization: f64,
    /// Requests that *arrived* at this service during the window, per class.
    pub arrivals: Vec<u64>,
    /// Per-class response-time distribution **excluding** time blocked on
    /// nested downstream responses — the paper's per-tier response time
    /// (S0−R0 minus downstream wait), the quantity Algorithm 1 profiles.
    pub tier_latency: Vec<LatencySeries>,
    /// Per-class full response-time distribution (enqueue → response),
    /// including downstream waits; what an upstream proxy observes.
    pub response_latency: Vec<LatencySeries>,
    /// Length of the service's shared (MQ) queue at harvest time.
    pub mq_depth: usize,
    /// Maximum shared-queue depth observed at any instant during the window
    /// (catches transient spikes the point-in-time sample misses).
    pub mq_depth_max: usize,
    /// Time-weighted mean shared-queue depth over the window
    /// (∫ depth · dt / window).
    pub mq_depth_mean: f64,
}

impl ServiceMetrics {
    /// Total arrivals across classes.
    pub fn total_arrivals(&self) -> u64 {
        self.arrivals.iter().sum()
    }

    /// Arrival rate in requests/second over the window.
    pub fn arrival_rps(&self, window: SimDur) -> f64 {
        self.total_arrivals() as f64 / window.as_secs_f64().max(1e-9)
    }

    /// Per-class load-per-replica vector in requests/second — the paper's
    /// LPR metric (§IV).
    pub fn load_per_replica(&self, window: SimDur) -> Vec<f64> {
        let secs = window.as_secs_f64().max(1e-9);
        let r = self.replicas.max(1) as f64;
        self.arrivals.iter().map(|&a| a as f64 / secs / r).collect()
    }
}

/// Immutable metrics view for one harvest window.
#[derive(Debug, Clone)]
pub struct MetricsSnapshot {
    /// Harvest timestamp.
    pub at: SimTime,
    /// Length of the window this snapshot covers.
    pub window: SimDur,
    /// Per-service metrics, indexed by [`ServiceId`].
    pub services: Vec<ServiceMetrics>,
    /// Per-class end-to-end latency distributions, indexed by [`ClassId`]
    /// (a request completes when every hop of its call tree has responded).
    pub e2e_latency: Vec<LatencySeries>,
    /// Per-class completed-request counts during the window.
    pub completions: Vec<u64>,
    /// Per-class injected-request counts during the window.
    pub injections: Vec<u64>,
    /// Fault injections/recoveries that fired during the window (empty
    /// unless the chaos plane is installed — see [`crate::chaos`]).
    pub faults: Vec<crate::chaos::FaultEvent>,
    /// Memory-plane window snapshot (`None` unless the memory plane is
    /// installed — see [`crate::memory`]).
    pub mem: Option<crate::memory::MemSnapshot>,
}

impl MetricsSnapshot {
    /// Total CPU cores allocated across services (replicas × cores).
    pub fn total_allocated_cores(&self) -> f64 {
        self.services
            .iter()
            .map(|s| s.replicas as f64 * s.cores_per_replica)
            .sum()
    }

    /// Per-class offered load in requests/second.
    pub fn class_rps(&self, class: ClassId) -> f64 {
        self.injections[class.0] as f64 / self.window.as_secs_f64().max(1e-9)
    }
}

/// Accumulates metrics between harvests.
#[derive(Debug)]
pub struct Telemetry {
    num_classes: usize,
    /// Flattened `[service * num_classes + class]` windows; `None` for
    /// (service, class) pairs that never interact (saves memory on large
    /// topologies). Flat layout keeps the per-event record path to a
    /// single bounds check and indirection.
    tier_windows: Vec<Option<QuantileWindow>>,
    response_windows: Vec<Option<QuantileWindow>>,
    arrivals: Vec<u64>,
    e2e_windows: Vec<QuantileWindow>,
    completions: Vec<u64>,
    injections: Vec<u64>,
    busy_core_secs: Vec<f64>,
    capacity_core_secs: Vec<f64>,
    /// MQ-depth accumulators: depth after the last transition, when it last
    /// changed, the ∫ depth · dt area so far this window, and the window max.
    mq_last_depth: Vec<usize>,
    mq_last_change: Vec<SimTime>,
    mq_area: Vec<f64>,
    mq_max: Vec<usize>,
    last_harvest: SimTime,
}

impl Telemetry {
    /// Creates telemetry storage shaped for the given topology: latency
    /// windows are only allocated for (service, class) pairs that the
    /// class's call tree actually touches.
    pub fn new(topology: &Topology) -> Self {
        let ns = topology.num_services();
        let nc = topology.num_classes();
        let mut tier_windows: Vec<Option<QuantileWindow>> = vec![None; ns * nc];
        let mut response_windows: Vec<Option<QuantileWindow>> = vec![None; ns * nc];
        for s in 0..ns {
            for c in topology.classes_on_service(ServiceId(s)) {
                tier_windows[s * nc + c.0] = Some(QuantileWindow::new(SERVICE_WINDOW_CAP));
                response_windows[s * nc + c.0] = Some(QuantileWindow::new(SERVICE_WINDOW_CAP));
            }
        }
        Telemetry {
            num_classes: nc,
            tier_windows,
            response_windows,
            arrivals: vec![0; ns * nc],
            e2e_windows: (0..nc)
                .map(|_| QuantileWindow::new(E2E_WINDOW_CAP))
                .collect(),
            completions: vec![0; nc],
            injections: vec![0; nc],
            busy_core_secs: vec![0.0; ns],
            capacity_core_secs: vec![0.0; ns],
            mq_last_depth: vec![0; ns],
            mq_last_change: vec![SimTime::ZERO; ns],
            mq_area: vec![0.0; ns],
            mq_max: vec![0; ns],
            last_harvest: SimTime::ZERO,
        }
    }

    /// Records a request arriving at a service.
    #[inline]
    pub fn record_arrival(&mut self, service: ServiceId, class: ClassId) {
        self.arrivals[service.0 * self.num_classes + class.0] += 1;
    }

    /// Records an injected (root) request.
    pub fn record_injection(&mut self, class: ClassId) {
        self.injections[class.0] += 1;
    }

    /// Records a hop's response: `tier` excludes nested downstream waits,
    /// `full` is enqueue→response.
    #[inline]
    pub fn record_response(&mut self, service: ServiceId, class: ClassId, tier: f64, full: f64) {
        let idx = service.0 * self.num_classes + class.0;
        if let Some(w) = &mut self.tier_windows[idx] {
            w.record(tier);
        }
        if let Some(w) = &mut self.response_windows[idx] {
            w.record(full);
        }
    }

    /// Records an end-to-end completion.
    pub fn record_e2e(&mut self, class: ClassId, latency: f64) {
        self.e2e_windows[class.0].record(latency);
        self.completions[class.0] += 1;
    }

    /// Records a shared-queue (MQ) depth transition: the queue of `service`
    /// has held `mq_last_depth` items since the previous call and holds
    /// `depth` from `now` on. Drives the per-window max and time-weighted
    /// mean exposed on [`ServiceMetrics`].
    pub fn record_mq_depth(&mut self, service: ServiceId, now: SimTime, depth: usize) {
        let s = service.0;
        let dt = (now - self.mq_last_change[s]).as_secs_f64();
        self.mq_area[s] += self.mq_last_depth[s] as f64 * dt;
        self.mq_last_change[s] = now;
        self.mq_last_depth[s] = depth;
        self.mq_max[s] = self.mq_max[s].max(depth);
    }

    /// Adds CPU accounting for a service over an elapsed span.
    pub fn record_cpu(&mut self, service: ServiceId, busy_core_secs: f64, capacity_core_secs: f64) {
        self.busy_core_secs[service.0] += busy_core_secs;
        self.capacity_core_secs[service.0] += capacity_core_secs;
    }

    /// Produces a snapshot of the window since the last harvest and resets
    /// all accumulators. Replica counts, core settings, and MQ depths are
    /// supplied by the engine.
    #[allow(clippy::too_many_arguments)]
    pub fn harvest(
        &mut self,
        now: SimTime,
        names: &[String],
        replicas: &[usize],
        cores: &[f64],
        mq_depths: &[usize],
    ) -> MetricsSnapshot {
        let window = now - self.last_harvest;
        let window_secs = window.as_secs_f64();
        // Close out the MQ-depth integrals at the window boundary: the
        // standing depth has persisted since its last transition.
        for s in 0..self.mq_area.len() {
            let dt = (now - self.mq_last_change[s]).as_secs_f64();
            self.mq_area[s] += self.mq_last_depth[s] as f64 * dt;
            self.mq_last_change[s] = now;
        }
        let nc = self.num_classes;
        let services = (0..self.busy_core_secs.len())
            .map(|s| {
                let tier_latency = (0..nc)
                    .map(|c| {
                        self.tier_windows[s * nc + c]
                            .as_ref()
                            .map(LatencySeries::from_window)
                            .unwrap_or_default()
                    })
                    .collect();
                let response_latency = (0..nc)
                    .map(|c| {
                        self.response_windows[s * nc + c]
                            .as_ref()
                            .map(LatencySeries::from_window)
                            .unwrap_or_default()
                    })
                    .collect();
                let cap = self.capacity_core_secs[s];
                ServiceMetrics {
                    name: names[s].clone(),
                    replicas: replicas[s],
                    cores_per_replica: cores[s],
                    cpu_utilization: if cap > 0.0 {
                        (self.busy_core_secs[s] / cap).min(1.0)
                    } else {
                        0.0
                    },
                    arrivals: self.arrivals[s * nc..(s + 1) * nc].to_vec(),
                    tier_latency,
                    response_latency,
                    mq_depth: mq_depths[s],
                    mq_depth_max: self.mq_max[s],
                    mq_depth_mean: if window_secs > 0.0 {
                        self.mq_area[s] / window_secs
                    } else {
                        0.0
                    },
                }
            })
            .collect();
        let e2e_latency = self
            .e2e_windows
            .iter()
            .map(LatencySeries::from_window)
            .collect();
        let snapshot = MetricsSnapshot {
            at: now,
            window,
            services,
            e2e_latency,
            completions: self.completions.clone(),
            injections: self.injections.clone(),
            faults: Vec::new(),
            mem: None,
        };
        // Reset for the next window.
        for w in self.tier_windows.iter_mut().flatten() {
            w.clear();
        }
        for w in self.response_windows.iter_mut().flatten() {
            w.clear();
        }
        self.arrivals.fill(0);
        for s in 0..self.busy_core_secs.len() {
            self.busy_core_secs[s] = 0.0;
            self.capacity_core_secs[s] = 0.0;
            self.mq_area[s] = 0.0;
            // A queue that enters the next window non-empty has already
            // "observed" its standing depth.
            self.mq_max[s] = self.mq_last_depth[s];
        }
        for c in 0..self.num_classes {
            self.e2e_windows[c].clear();
            self.completions[c] = 0;
            self.injections[c] = 0;
        }
        self.last_harvest = now;
        snapshot
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{CallNode, ClassCfg, Priority, ServiceCfg, WorkDist};

    fn topo() -> Topology {
        let services = vec![ServiceCfg::new("a", 1.0), ServiceCfg::new("b", 1.0)];
        let classes = vec![ClassCfg {
            name: "only-a".into(),
            priority: Priority::HIGH,
            root: CallNode::leaf(ServiceId(0), WorkDist::Constant(0.001)),
        }];
        Topology::new(services, classes).unwrap()
    }

    #[test]
    fn windows_allocated_sparsely() {
        let t = Telemetry::new(&topo());
        assert!(t.tier_windows[0].is_some());
        assert!(
            t.tier_windows[t.num_classes].is_none(),
            "class never touches service b"
        );
    }

    #[test]
    fn harvest_resets() {
        let topo = topo();
        let mut t = Telemetry::new(&topo);
        t.record_arrival(ServiceId(0), ClassId(0));
        t.record_response(ServiceId(0), ClassId(0), 0.010, 0.012);
        t.record_e2e(ClassId(0), 0.012);
        t.record_injection(ClassId(0));
        t.record_cpu(ServiceId(0), 30.0, 60.0);
        let names = vec!["a".to_string(), "b".to_string()];
        let snap = t.harvest(
            SimTime::from_secs_f64(60.0),
            &names,
            &[1, 1],
            &[1.0, 1.0],
            &[0, 0],
        );
        assert_eq!(snap.services[0].arrivals[0], 1);
        assert!((snap.services[0].cpu_utilization - 0.5).abs() < 1e-12);
        assert_eq!(snap.completions[0], 1);
        assert_eq!(snap.injections[0], 1);
        assert_eq!(snap.e2e_latency[0].total_count(), 1);
        assert!((snap.window.as_secs_f64() - 60.0).abs() < 1e-9);

        let snap2 = t.harvest(
            SimTime::from_secs_f64(120.0),
            &names,
            &[1, 1],
            &[1.0, 1.0],
            &[0, 0],
        );
        assert_eq!(snap2.services[0].arrivals[0], 0);
        assert_eq!(snap2.completions[0], 0);
        assert!(snap2.e2e_latency[0].is_empty());
        assert_eq!(snap2.services[0].cpu_utilization, 0.0);
    }

    #[test]
    fn mq_depth_accumulators_track_and_reset() {
        let topo = topo();
        let mut t = Telemetry::new(&topo);
        let names = vec!["a".to_string(), "b".to_string()];
        // Depth 4 during [10, 40), depth 1 during [40, 60):
        // area = 4*30 + 1*20 = 140 depth-seconds over a 60 s window.
        t.record_mq_depth(ServiceId(0), SimTime::from_secs_f64(10.0), 4);
        t.record_mq_depth(ServiceId(0), SimTime::from_secs_f64(40.0), 1);
        let snap = t.harvest(
            SimTime::from_secs_f64(60.0),
            &names,
            &[1, 1],
            &[1.0, 1.0],
            &[1, 0],
        );
        assert_eq!(snap.services[0].mq_depth_max, 4);
        assert!((snap.services[0].mq_depth_mean - 140.0 / 60.0).abs() < 1e-9);
        assert_eq!(snap.services[1].mq_depth_max, 0);
        assert_eq!(snap.services[1].mq_depth_mean, 0.0);

        // Harvest resets the window accumulators; the standing depth of 1
        // carries into the next window as both its max-so-far and its mean.
        let snap2 = t.harvest(
            SimTime::from_secs_f64(120.0),
            &names,
            &[1, 1],
            &[1.0, 1.0],
            &[1, 0],
        );
        assert_eq!(
            snap2.services[0].mq_depth_max, 1,
            "max reset to standing depth"
        );
        assert!(
            (snap2.services[0].mq_depth_mean - 1.0).abs() < 1e-9,
            "standing depth persists across the whole second window"
        );

        // Drain the queue; a further window reports an empty queue again.
        t.record_mq_depth(ServiceId(0), SimTime::from_secs_f64(121.0), 0);
        let snap3 = t.harvest(
            SimTime::from_secs_f64(181.0),
            &names,
            &[1, 1],
            &[1.0, 1.0],
            &[0, 0],
        );
        assert_eq!(snap3.services[0].mq_depth_max, 1, "depth 1 held briefly");
        assert!(snap3.services[0].mq_depth_mean < 0.1);
        let snap4 = t.harvest(
            SimTime::from_secs_f64(241.0),
            &names,
            &[1, 1],
            &[1.0, 1.0],
            &[0, 0],
        );
        assert_eq!(snap4.services[0].mq_depth_max, 0);
        assert_eq!(snap4.services[0].mq_depth_mean, 0.0);
    }

    #[test]
    fn latency_series_stats() {
        let mut w = QuantileWindow::new(16);
        for v in [1.0, 2.0, 3.0, 4.0] {
            w.record(v);
        }
        let s = LatencySeries::from_window(&w);
        assert_eq!(s.len(), 4);
        assert_eq!(s.mean(), Some(2.5));
        assert_eq!(s.fraction_above(2.0), Some(0.5));
        assert_eq!(s.fraction_above(4.0), Some(0.0));
        assert_eq!(s.percentile(0.0), Some(1.0));
        assert_eq!(s.percentile(100.0), Some(4.0));
    }

    #[test]
    fn latency_series_overflow_keeps_retained_semantics() {
        // Regression: when the source window overflows, the distribution
        // statistics must be over the retained (most recent) samples with
        // a matching denominator, while total_count still reports every
        // observation. Window of 4, 8 samples recorded: 1..=8 arrive, the
        // ring retains [5, 6, 7, 8].
        let mut w = QuantileWindow::new(4);
        for v in 1..=8 {
            w.record(v as f64);
        }
        let s = LatencySeries::from_window(&w);
        assert_eq!(s.len(), 4, "retained samples");
        assert_eq!(s.total_count(), 8, "observed samples");
        assert!(s.len() as u64 != s.total_count(), "overflow happened");
        // Mean over retained [5,6,7,8], not over all 8 (which would be 4.5)
        // and not sum-of-retained / total_count (which would be 3.25).
        assert_eq!(s.mean(), Some(6.5));
        // fraction_above uses len() as the denominator: 2 of 4 above 6.
        assert_eq!(s.fraction_above(6.0), Some(0.5));
        // Percentiles span the retained range only.
        assert_eq!(s.percentile(0.0), Some(5.0));
        assert_eq!(s.percentile(100.0), Some(8.0));
    }

    #[test]
    fn snapshot_aggregates() {
        let topo = topo();
        let mut t = Telemetry::new(&topo);
        for _ in 0..120 {
            t.record_arrival(ServiceId(0), ClassId(0));
        }
        let names = vec!["a".to_string(), "b".to_string()];
        let snap = t.harvest(
            SimTime::from_secs_f64(60.0),
            &names,
            &[2, 1],
            &[1.5, 1.0],
            &[0, 0],
        );
        assert!((snap.services[0].arrival_rps(snap.window) - 2.0).abs() < 1e-9);
        let lpr = snap.services[0].load_per_replica(snap.window);
        assert!((lpr[0] - 1.0).abs() < 1e-9);
        assert!((snap.total_allocated_cores() - 4.0).abs() < 1e-9);
    }
}
