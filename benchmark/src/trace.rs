//! Per-layer timings recorded from outside the simulator.
//!
//! The traced run wraps each call the benchmark makes into a layer's
//! public functions with a wall-clock span and keeps the spans in
//! memory; the figures below are folded from them when the run ends.
//! Nothing here is read back by the simulation.

use bass_core::TargetScoreCache;
use std::time::{Duration, Instant};

/// Which class an executed `SimEnv::step` falls in, decided from
/// public state around the call. The classes are exclusive and cover
/// every executed step; a step with a due fault is a fault step even
/// when the controller also ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepClass {
    /// A fault was due at the step's start.
    Fault,
    /// The controller ran a decision round (`migration_rounds` grew).
    Controller,
    /// Every other executed step.
    Plain,
}

/// A sum of span durations plus the samples behind quantiles.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    ns: Vec<u64>,
}

impl Samples {
    /// Records one span.
    pub fn push(&mut self, d: Duration) {
        self.ns.push(d.as_nanos() as u64);
    }

    /// Number of spans recorded.
    pub fn count(&self) -> u64 {
        self.ns.len() as u64
    }

    /// Total duration in nanoseconds (exact integer sum).
    pub fn total_ns(&self) -> u64 {
        self.ns.iter().sum()
    }

    /// Total duration in seconds.
    pub fn total_s(&self) -> f64 {
        self.total_ns() as f64 / 1e9
    }

    /// The `q`-quantile in nanoseconds (nearest rank), 0 when empty.
    pub fn quantile_ns(&self, q: f64) -> f64 {
        if self.ns.is_empty() {
            return 0.0;
        }
        let mut sorted = self.ns.clone();
        sorted.sort_unstable();
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1] as f64
    }
}

/// Everything one traced replica run records.
#[derive(Debug, Default)]
pub struct Trace {
    /// `generate` calls.
    pub generate: Samples,
    /// `GeneratedScenario::build_mesh` calls (or the grid mesh build).
    pub build_mesh: Samples,
    /// `build_cluster` and `SimEnv::new` calls.
    pub env_new: Samples,
    /// `SimEnv::deploy` calls.
    pub deploy: Samples,
    /// Every executed `SimEnv::step`.
    pub step: Samples,
    /// Executed steps in each [`StepClass`], in declaration order.
    pub classes: [Samples; 3],
    /// `SimEnv::admit_app` calls, accepted or rejected.
    pub admit: Samples,
    /// Admissions rejected with a scheduling error.
    pub admit_rejected: u64,
    /// `SimEnv::retire_app` calls.
    pub retire: Samples,
    /// `SimEnv::skippable_ticks` scans.
    pub skip_scan: Samples,
    /// Scans that returned a window larger than zero.
    pub skip_useful: u64,
    /// Ticks covered by `skip_quiescent_ticks`.
    pub ticks_skipped: u64,
    /// `SimEnv::skip_quiescent_ticks` calls.
    pub skip: Samples,
    /// Displaced components summed over executed steps.
    pub displaced_component_ticks: u64,
    /// Top-level `Mesh` calls of the mesh-only workload (capacity
    /// changes and advances).
    pub mesh_calls: Samples,
    /// `Mesh::advance`: shadow calls on a clone in campaigns, every
    /// tick in the mesh-only workload.
    pub advance: Samples,
    /// Shadow `RoutingTable::compute` on the live topology.
    pub routing_compute: Samples,
    /// Shadow `Mesh::set_link_up` replays of due faults on a clone.
    pub set_link_up: Samples,
    /// Shadow `Mesh::set_node_up` replays of due faults on a clone.
    pub set_node_up: Samples,
    /// Shadow `ranking::rank_nodes`.
    pub rank_nodes: Samples,
    /// Shadow `rescheduler::select_target_with` through [`Self::cache`].
    pub select_target: Samples,
    /// Shadow target selections that found no feasible node.
    pub select_infeasible: u64,
    /// The benchmark's own score cache, synced at controller steps.
    pub cache: TargetScoreCache,
    /// Shadow `NetMonitor::headroom_probe` on a clone.
    pub headroom_probe: Samples,
    /// Shadow `NetMonitor::full_probe` on a clone.
    pub full_probe: Samples,
    /// Wall-clock spent in shadow calls, clones included.
    pub shadow: Duration,
    /// Wall-clock of the whole traced run, shadow calls included.
    pub wall: Duration,
}

impl Trace {
    /// Runs `f` as a shadow call: its time is kept out of coverage and
    /// overhead accounting.
    pub fn shadow<T>(&mut self, f: impl FnOnce(&mut Trace) -> T) -> T {
        let started = Instant::now();
        let out = f(self);
        self.shadow += started.elapsed();
        out
    }

    /// Records an executed step of `class`.
    pub fn record_step(&mut self, class: StepClass, d: Duration) {
        self.step.push(d);
        self.classes[class as usize].push(d);
    }

    /// Wall-clock covered by the top-level spans around layer calls.
    pub fn covered_ns(&self) -> u64 {
        [
            &self.generate,
            &self.build_mesh,
            &self.env_new,
            &self.deploy,
            &self.step,
            &self.admit,
            &self.retire,
            &self.skip_scan,
            &self.skip,
            &self.mesh_calls,
        ]
        .iter()
        .map(|s| s.total_ns())
        .sum()
    }

    /// Traced wall-clock with shadow calls taken out, in seconds.
    pub fn own_wall_s(&self) -> f64 {
        self.wall.saturating_sub(self.shadow).as_secs_f64()
    }
}
