//! The emulation environment: one application deployment, end to end.

use crate::scenario::Scenario;
use bass_appdag::{AppDag, ComponentId};
use bass_cluster::{Cluster, MigrationRecord, Placement, RestartModel};
use bass_core::heuristics::ComponentOrdering;
use bass_core::placement::pack_ordering;
use bass_core::scheduler::{BassScheduler, ScheduleError, PlacementPolicy};
use bass_core::{
    BassController, ControllerConfig, EventQueue, EventSource, MigrationPlan, PolicyKind,
    SimEvent, StepMode,
};
use bass_faults::{Fault, FaultPlan};
use bass_mesh::{AllocEngine, FlowId, Mesh, MeshError, NodeId};
use bass_netmon::{GoodputMonitor, NetMonitor, NetMonitorConfig, OnlineProfiler};
use bass_util::time::{SimDuration, SimTime};
use bass_util::units::{Bandwidth, DataSize};
use std::collections::{BTreeMap, BTreeSet};
use std::error::Error;
use std::fmt;

/// Environment configuration.
#[derive(Debug, Clone)]
pub struct SimEnvConfig {
    /// Fixed simulation step (default 100 ms).
    pub step: SimDuration,
    /// Placement policy.
    pub policy: PlacementPolicy,
    /// Migration-decision policy the controller runs (the arena's
    /// registry; the default [`PolicyKind::Bass`] is the paper's
    /// behaviour and is byte-identical to the pre-trait controller).
    pub migration_policy: PolicyKind,
    /// Controller configuration (thresholds, cooldown).
    pub controller: ControllerConfig,
    /// Net-monitor configuration (probe cadence, headroom).
    pub netmon: NetMonitorConfig,
    /// Restart cost model for migrations.
    pub restart: RestartModel,
    /// Master switch for dynamic migration (off = static placement, the
    /// paper's "no migration" baselines).
    pub migrations_enabled: bool,
    /// Components that must never migrate (e.g. the pseudo-components
    /// that pin video-conference clients to their nodes).
    pub pinned: BTreeSet<ComponentId>,
    /// Stateful migration (paper §8, future work): when set, a migrating
    /// component carries this much state, and the restart downtime is
    /// extended by the time to transfer it over the path from the old to
    /// the new node at the bandwidth available at migration time
    /// (clamped to at most 120 s). `None` models the paper's stateless
    /// assumption.
    pub stateful_state: Option<DataSize>,
    /// Adaptive mesh routing: when set, every interval the mesh
    /// recomputes ETX-style routes from the *current* link capacities
    /// (weight ∝ 1/capacity) and re-routes all flows. Models community
    /// routing protocols (Babel/BATMAN/OLSR-ETX) adapting underneath the
    /// orchestrator — the paper assumes BASS works with "any routing
    /// mechanism". `None` keeps static min-hop routes.
    pub adaptive_routing: Option<SimDuration>,
    /// Deterministic fault schedule (crashes, flaps, probe loss, stale
    /// traces, controller restarts). The default empty plan injects
    /// nothing and leaves runs byte-identical to fault-free behaviour.
    /// See the `bass-faults` crate and `docs/FAULTS.md`.
    pub faults: FaultPlan,
    /// Which max-min allocation engine the mesh runs each tick. The
    /// default [`AllocEngine::Delta`] is the production path, refilling
    /// only the constraint components a tick actually perturbed;
    /// [`AllocEngine::Dense`] is the reference oracle the equivalence
    /// batteries compare it against. Both produce bit-identical results
    /// (see `docs/ARCHITECTURE.md` and `docs/PERFORMANCE.md`).
    pub alloc_engine: AllocEngine,
    /// How [`SimEnv::run_for`] advances time. The default
    /// [`StepMode::Ticked`] executes every step;
    /// [`StepMode::EventDriven`] skips provably quiescent tick windows
    /// (see [`SimEnv::skippable_ticks`]) with byte-identical results and
    /// journals. Only changes wall-clock.
    pub step_mode: StepMode,
}

impl Default for SimEnvConfig {
    fn default() -> Self {
        SimEnvConfig {
            step: SimDuration::from_millis(100),
            policy: PlacementPolicy::default(),
            migration_policy: PolicyKind::default(),
            controller: ControllerConfig::default(),
            netmon: NetMonitorConfig::default(),
            restart: RestartModel::default(),
            migrations_enabled: true,
            pinned: BTreeSet::new(),
            stateful_state: None,
            adaptive_routing: None,
            faults: FaultPlan::new(),
            alloc_engine: AllocEngine::default(),
            step_mode: StepMode::default(),
        }
    }
}

/// How one DAG edge is realized on the network right now.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeState {
    /// Both endpoints share a node: loopback, no mesh flow.
    Local,
    /// Endpoints on different nodes: carried by this mesh flow.
    Remote(FlowId),
}

/// Environment errors.
#[derive(Debug)]
pub enum EnvError {
    /// Scheduling failed during deploy.
    Schedule(ScheduleError),
    /// A mesh operation failed.
    Mesh(MeshError),
    /// A pinned component referenced an unknown id.
    UnknownComponent(ComponentId),
    /// The application was not deployed yet.
    NotDeployed,
    /// Growing the deployment DAG failed (id collision on admission).
    Dag(bass_appdag::DagError),
}

impl fmt::Display for EnvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EnvError::Schedule(e) => write!(f, "deploy failed: {e}"),
            EnvError::Mesh(e) => write!(f, "mesh operation failed: {e}"),
            EnvError::UnknownComponent(c) => write!(f, "unknown component {c}"),
            EnvError::NotDeployed => write!(f, "application is not deployed"),
            EnvError::Dag(e) => write!(f, "deployment dag rejected the app: {e}"),
        }
    }
}

impl Error for EnvError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            EnvError::Schedule(e) => Some(e),
            EnvError::Mesh(e) => Some(e),
            EnvError::Dag(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ScheduleError> for EnvError {
    fn from(e: ScheduleError) -> Self {
        EnvError::Schedule(e)
    }
}

impl From<MeshError> for EnvError {
    fn from(e: MeshError) -> Self {
        EnvError::Mesh(e)
    }
}

/// Statistics accumulated over a run.
#[derive(Debug, Clone, Default)]
pub struct EnvStats {
    /// Applied migrations, in order.
    pub migrations: Vec<MigrationRecord>,
    /// Per-round (violating components, migrated components) counts —
    /// the two columns of Table 1.
    pub migration_rounds: Vec<(usize, usize)>,
    /// Migrations the controller wanted but could not place.
    pub unplaceable: u64,
    /// Adaptive-routing recomputations performed.
    pub route_updates: u64,
}

/// The emulation environment.
///
/// See the crate docs for the step pipeline. Construct with
/// [`SimEnv::new`], call [`SimEnv::deploy`], then drive with
/// [`SimEnv::step`] or [`SimEnv::run_for`].
#[derive(Debug)]
pub struct SimEnv {
    cfg: SimEnvConfig,
    mesh: Mesh,
    cluster: Cluster,
    dag: AppDag,
    controller: BassController,
    netmon: NetMonitor,
    goodput: GoodputMonitor,
    profiler: Option<OnlineProfiler>,
    scenario: Scenario,
    edges: BTreeMap<(ComponentId, ComponentId), EdgeState>,
    demand_factor: BTreeMap<(ComponentId, ComponentId), f64>,
    restarts: BTreeMap<ComponentId, (SimTime, RestartModel)>,
    last_route_update: SimTime,
    deployed: bool,
    stats: EnvStats,
    journal: Option<bass_obs::Journal>,
    /// Span profiler for wall-clock phase timing. Strictly write-only
    /// from the simulation's perspective: timings never feed back into
    /// any decision, so enabling it cannot change simulation results.
    spans: Option<bass_obs::SpanProfiler>,
    /// Components evicted by a node crash, awaiting re-placement.
    displaced: BTreeSet<ComponentId>,
    /// Bumped by every public mutator that can invalidate an in-flight
    /// quiescence proof. The event-driven `run_for` loop snapshots it
    /// before handing control to the per-tick hook and falls back to a
    /// full step when it moved (see [`SimEnv::skippable_ticks`]).
    mutation_epoch: u64,
    /// Probe-loss episodes started so far — each gets its own forked RNG
    /// stream off the fault plan's seed, so episode k draws identically
    /// across replays regardless of what happened in between.
    probe_loss_episodes: u64,
}

impl SimEnv {
    /// Creates an environment over a mesh, a cluster, and an application.
    pub fn new(mut mesh: Mesh, cluster: Cluster, dag: AppDag, cfg: SimEnvConfig) -> Self {
        let controller = BassController::with_policy(cfg.controller, cfg.migration_policy);
        let netmon = NetMonitor::new(cfg.netmon);
        mesh.set_alloc_engine(cfg.alloc_engine);
        SimEnv {
            cfg,
            mesh,
            cluster,
            dag,
            controller,
            netmon,
            goodput: GoodputMonitor::new(),
            profiler: None,
            scenario: Scenario::new(),
            edges: BTreeMap::new(),
            demand_factor: BTreeMap::new(),
            restarts: BTreeMap::new(),
            last_route_update: SimTime::ZERO,
            deployed: false,
            stats: EnvStats::default(),
            journal: None,
            spans: None,
            displaced: BTreeSet::new(),
            mutation_epoch: 0,
            probe_loss_episodes: 0,
        }
    }

    /// Installs the network scenario script.
    pub fn set_scenario(&mut self, scenario: Scenario) {
        self.mutation_epoch += 1;
        self.scenario = scenario;
    }

    /// Installs (or replaces) the fault-injection schedule. Equivalent to
    /// setting [`SimEnvConfig::faults`] before construction.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.mutation_epoch += 1;
        self.cfg.faults = plan;
    }

    /// The fault schedule, including its replay cursor.
    pub fn fault_plan(&self) -> &FaultPlan {
        &self.cfg.faults
    }

    /// Components currently evicted by a node crash and awaiting
    /// re-placement.
    pub fn displaced(&self) -> &BTreeSet<ComponentId> {
        &self.displaced
    }

    /// Attaches a structured-event journal: from now on, every probe,
    /// capacity change, trigger, target choice, placement, and tick is
    /// recorded into it (see the `bass-obs` crate and
    /// `docs/OBSERVABILITY.md`). Without a journal the environment pays
    /// no observability cost.
    pub fn attach_journal(&mut self, journal: bass_obs::Journal) {
        self.journal = Some(journal);
        // If attached after `deploy`, establish the capacity baseline
        // now so that later scenario cuts and trace drift are reported
        // as changes rather than silently becoming the baseline.
        if let Some(j) = self.journal.as_mut() {
            self.mesh.emit_capacity_changes(j, "scenario");
        }
    }

    /// Detaches and returns the journal, if one was attached.
    pub fn take_journal(&mut self) -> Option<bass_obs::Journal> {
        self.journal.take()
    }

    /// The attached journal, if any.
    pub fn journal(&self) -> Option<&bass_obs::Journal> {
        self.journal.as_ref()
    }

    /// Mutable access to the attached journal (for workloads that emit
    /// their own counters or gauges alongside the built-in events).
    pub fn journal_mut(&mut self) -> Option<&mut bass_obs::Journal> {
        self.journal.as_mut()
    }

    /// Enables span profiling: from now on every [`step`](SimEnv::step)
    /// records wall-clock durations for its per-tick phases (`tick.*`),
    /// the mesh allocation interior (`mesh.*`), probe passes
    /// (`netmon.*`), the controller's decision points (`ctl.*`), and
    /// churn operations (`env.*`) — see `docs/OBSERVABILITY.md` for the
    /// span taxonomy. Timings live outside simulation state: results
    /// and journal contents are byte-identical with profiling on or off.
    pub fn enable_span_profiling(&mut self) {
        self.spans = Some(bass_obs::SpanProfiler::new());
    }

    /// Detaches and returns the span profiler, if profiling was enabled.
    pub fn take_span_profiler(&mut self) -> Option<bass_obs::SpanProfiler> {
        self.spans.take()
    }

    /// The span profiler, if profiling is enabled.
    pub fn span_profiler(&self) -> Option<&bass_obs::SpanProfiler> {
        self.spans.as_ref()
    }

    /// Folds an externally timed duration into the span taxonomy under
    /// `name` (no-op without profiling). Harnesses use this to account
    /// for setup work — scenario generation, mesh construction — that
    /// happens before the environment exists, so benches can separate
    /// one-time costs from stepping throughput.
    pub fn record_span(&mut self, name: &'static str, d: std::time::Duration) {
        if let Some(p) = &mut self.spans {
            p.record(name, d);
        }
    }

    /// Runs `f` against the environment, recording its wall-clock
    /// duration as `name` when span profiling is enabled. The profiler
    /// is parked for the duration of the call, so `f` sees an
    /// environment without interior `env.*` spans.
    fn with_span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        let mut spans = self.spans.take();
        let started = spans.as_ref().map(|_| std::time::Instant::now());
        let out = f(self);
        if let (Some(p), Some(t0)) = (spans.as_mut(), started) {
            p.record(name, t0.elapsed());
        }
        self.spans = spans;
        out
    }

    /// Enables online bandwidth-requirement profiling (the paper's §8
    /// future-work extension): every step, each edge's achieved usage is
    /// fed to an [`OnlineProfiler`]; once enough samples accumulate,
    /// [`SimEnv::profiled_requirements`] returns learned requirements
    /// that could replace the manifest's offline-profiled weights.
    pub fn enable_online_profiling(&mut self, profiler: OnlineProfiler) {
        self.mutation_epoch += 1;
        self.profiler = Some(profiler);
    }

    /// The requirements the online profiler has learned so far (empty
    /// when profiling is disabled or warm-up is incomplete).
    pub fn profiled_requirements(&self) -> Vec<(ComponentId, ComponentId, Bandwidth)> {
        self.profiler.as_ref().map(OnlineProfiler::estimates).unwrap_or_default()
    }

    /// Deploys the application: an initial full probe (the paper's
    /// startup capacity probe), pinned placements, then the configured
    /// scheduler for everything else, then flow creation.
    ///
    /// # Errors
    ///
    /// Fails if a pin is unknown, scheduling fails, or flows cannot be
    /// created.
    pub fn deploy(&mut self, pins: &[(ComponentId, NodeId)]) -> Result<Placement, EnvError> {
        self.with_span("env.deploy", |env| env.deploy_inner(pins))
    }

    fn deploy_inner(&mut self, pins: &[(ComponentId, NodeId)]) -> Result<Placement, EnvError> {
        self.netmon
            .full_probe_observed(&self.mesh, self.journal.as_mut());
        for &(cid, node) in pins {
            let comp = self
                .dag
                .component(cid)
                .ok_or(EnvError::UnknownComponent(cid))?;
            self.cluster
                .place(cid, comp.resources, node)
                .map_err(|e| EnvError::Schedule(ScheduleError::Baseline(e)))?;
        }
        let pinned: BTreeSet<ComponentId> = pins.iter().map(|&(c, _)| c).collect();
        let scheduler = BassScheduler::new(self.cfg.policy);
        // An empty DAG deploys trivially — the churning-scenario entry
        // point: start with nothing and admit app instances as they
        // arrive. The heuristics reject empty graphs, so skip them.
        if self.dag.component_count() == 0 {
            self.deployed = true;
            return Ok(self.cluster.placement());
        }
        match self.cfg.policy {
            PlacementPolicy::K3sDefault(policy) => {
                let mut baseline = bass_cluster::BaselineScheduler::new(policy);
                for component in self.dag.components() {
                    if pinned.contains(&component.id) {
                        continue;
                    }
                    let node = baseline
                        .pick_node(&self.cluster, component.resources)
                        .map_err(|e| EnvError::Schedule(ScheduleError::Baseline(e)))?;
                    self.cluster
                        .place(component.id, component.resources, node)
                        .map_err(|e| EnvError::Schedule(ScheduleError::Baseline(e)))?;
                }
            }
            _ => {
                let ordering = scheduler.ordering(&self.dag)?;
                let filtered = ComponentOrdering::new(
                    ordering
                        .groups()
                        .iter()
                        .map(|g| {
                            g.iter()
                                .copied()
                                .filter(|c| !pinned.contains(c))
                                .collect::<Vec<_>>()
                        })
                        .filter(|g: &Vec<ComponentId>| !g.is_empty())
                        .collect(),
                );
                pack_ordering(&filtered, &self.dag, &mut self.cluster, &self.mesh)
                    .map_err(ScheduleError::Placement)?;
            }
        }
        self.deployed = true;
        self.rebuild_all_edges()?;
        let placement = self.cluster.placement();
        if let Some(j) = self.journal.as_mut() {
            let crossing_mbps =
                bass_core::placement::crossing_bandwidth(&self.dag, &placement).as_mbps();
            let policy = self.cfg.policy.to_string();
            let t_s = self.mesh.now().as_secs_f64();
            for (&component, &node) in &placement {
                j.record(bass_obs::Event::PlacementDecided {
                    t_s,
                    component: component.0,
                    node: node.0,
                    policy: policy.clone(),
                    crossing_mbps,
                });
            }
            // Establish the capacity baseline so later scenario/trace
            // changes are reported as deltas against deploy time.
            self.mesh.emit_capacity_changes(j, "scenario");
        }
        Ok(placement)
    }

    /// Tears down all mesh flows for DAG edges and recreates them from
    /// the current placement.
    fn rebuild_all_edges(&mut self) -> Result<(), EnvError> {
        for (_, state) in std::mem::take(&mut self.edges) {
            if let EdgeState::Remote(f) = state {
                let _ = self.mesh.remove_flow(f);
            }
        }
        let edges: Vec<(ComponentId, ComponentId)> =
            self.dag.edges().iter().map(|e| (e.from, e.to)).collect();
        for (from, to) in edges {
            self.bind_edge(from, to)?;
        }
        Ok(())
    }

    /// (Re)creates the mesh flow backing one DAG edge from the current
    /// placement.
    fn bind_edge(&mut self, from: ComponentId, to: ComponentId) -> Result<(), EnvError> {
        if let Some(EdgeState::Remote(f)) = self.edges.remove(&(from, to)) {
            let _ = self.mesh.remove_flow(f);
        }
        let (Some(fn_), Some(tn)) = (self.cluster.node_of(from), self.cluster.node_of(to)) else {
            return Ok(()); // endpoint unplaced: nothing to bind
        };
        let state = if fn_ == tn {
            EdgeState::Local
        } else {
            let demand = self.edge_demand(from, to);
            EdgeState::Remote(self.mesh.add_flow(fn_, tn, demand)?)
        };
        self.edges.insert((from, to), state);
        Ok(())
    }

    /// The current offered demand of an edge: requirement × factor,
    /// zeroed while either endpoint is restarting.
    fn edge_demand(&self, from: ComponentId, to: ComponentId) -> Bandwidth {
        if self.component_down(from) || self.component_down(to) {
            return Bandwidth::ZERO;
        }
        let factor = self.demand_factor.get(&(from, to)).copied().unwrap_or(1.0);
        self.dag.bandwidth_between(from, to).scale(factor)
    }

    /// Scales an edge's offered demand relative to its declared
    /// requirement (1.0 = at requirement). Workload models call this to
    /// express time-varying load.
    pub fn set_edge_demand_factor(&mut self, from: ComponentId, to: ComponentId, factor: f64) {
        self.mutation_epoch += 1;
        self.demand_factor.insert((from, to), factor.max(0.0));
    }

    /// Scales every edge's demand at once (open-loop load scaling).
    pub fn set_global_demand_factor(&mut self, factor: f64) {
        let keys: Vec<(ComponentId, ComponentId)> =
            self.dag.edges().iter().map(|e| (e.from, e.to)).collect();
        for (f, t) in keys {
            self.set_edge_demand_factor(f, t, factor);
        }
    }

    /// Admits a new application instance into the running deployment:
    /// absorbs `app` into the deployment DAG with all component ids
    /// shifted by `id_offset` (names prefixed `"<app name>/"`), schedules
    /// the new components with the configured policy, and binds their
    /// edges. The rest of the deployment is untouched — this is the
    /// mid-run Poisson-arrival path of churning scenarios, not a
    /// redeploy. Returns the new (shifted) component ids.
    ///
    /// On a scheduling failure the admission rolls back completely
    /// (components evicted and removed from the DAG) and the error is
    /// returned — the scenario counts it as a rejected arrival.
    ///
    /// # Errors
    ///
    /// [`EnvError::NotDeployed`] before [`SimEnv::deploy`];
    /// [`EnvError::Dag`] when `id_offset` collides with existing
    /// components; [`EnvError::Schedule`] when the cluster cannot host
    /// the instance.
    pub fn admit_app(
        &mut self,
        app: &AppDag,
        id_offset: u32,
    ) -> Result<Vec<ComponentId>, EnvError> {
        self.mutation_epoch += 1;
        self.with_span("env.admit_app", |env| env.admit_app_inner(app, id_offset))
    }

    fn admit_app_inner(
        &mut self,
        app: &AppDag,
        id_offset: u32,
    ) -> Result<Vec<ComponentId>, EnvError> {
        if !self.deployed {
            return Err(EnvError::NotDeployed);
        }
        let prefix = format!("{}/", app.name());
        let added = self
            .dag
            .absorb(app, id_offset, &prefix)
            .map_err(EnvError::Dag)?;
        let result = (|| -> Result<(), EnvError> {
            match self.cfg.policy {
                PlacementPolicy::K3sDefault(policy) => {
                    let mut baseline = bass_cluster::BaselineScheduler::new(policy);
                    for &c in &added {
                        let resources =
                            self.dag.component(c).expect("just absorbed").resources;
                        let node = baseline
                            .pick_node(&self.cluster, resources)
                            .map_err(|e| EnvError::Schedule(ScheduleError::Baseline(e)))?;
                        self.cluster
                            .place(c, resources, node)
                            .map_err(|e| EnvError::Schedule(ScheduleError::Baseline(e)))?;
                    }
                }
                _ => {
                    // Order the fragment on its own shape, then shift the
                    // ids into deployment space before packing.
                    let scheduler = BassScheduler::new(self.cfg.policy);
                    let ordering = scheduler.ordering(app)?;
                    let shifted = ComponentOrdering::new(
                        ordering
                            .groups()
                            .iter()
                            .map(|g| {
                                g.iter().map(|c| ComponentId(c.0 + id_offset)).collect()
                            })
                            .collect(),
                    );
                    pack_ordering(&shifted, &self.dag, &mut self.cluster, &self.mesh)
                        .map_err(|e| EnvError::Schedule(ScheduleError::Placement(e)))?;
                }
            }
            for e in app.edges() {
                self.bind_edge(
                    ComponentId(e.from.0 + id_offset),
                    ComponentId(e.to.0 + id_offset),
                )?;
            }
            Ok(())
        })();
        if let Err(e) = result {
            for &c in &added {
                // Tear down any flows bound before the failure.
                let touching: Vec<_> = self
                    .edges
                    .keys()
                    .filter(|&&(a, b)| a == c || b == c)
                    .copied()
                    .collect();
                for key in touching {
                    if let Some(EdgeState::Remote(f)) = self.edges.remove(&key) {
                        let _ = self.mesh.remove_flow(f);
                    }
                }
                let _ = self.cluster.evict(c);
                self.dag.remove_component(c);
            }
            return Err(e);
        }
        if let Some(j) = self.journal.as_mut() {
            j.record(bass_obs::Event::AppAdmitted {
                t_s: self.mesh.now().as_secs_f64(),
                app: app.name().to_string(),
                components: added.len() as u32,
            });
        }
        Ok(added)
    }

    /// Retires a running application instance: removes its mesh flows,
    /// evicts its components from the cluster, deletes them (and their
    /// edges) from the deployment DAG, and clears every per-component
    /// trace the environment keeps (restart clocks, demand factors,
    /// displaced markers, goodput measurements). `label` is the instance
    /// name recorded in the journal.
    ///
    /// Unknown ids are skipped silently so a scenario can retire an
    /// instance whose admission was partially rejected.
    ///
    /// # Errors
    ///
    /// [`EnvError::NotDeployed`] before [`SimEnv::deploy`].
    pub fn retire_app(
        &mut self,
        label: &str,
        components: &[ComponentId],
    ) -> Result<(), EnvError> {
        self.mutation_epoch += 1;
        self.with_span("env.retire_app", |env| env.retire_app_inner(label, components))
    }

    fn retire_app_inner(
        &mut self,
        label: &str,
        components: &[ComponentId],
    ) -> Result<(), EnvError> {
        if !self.deployed {
            return Err(EnvError::NotDeployed);
        }
        let mut removed = 0u32;
        for &c in components {
            let touching: Vec<(ComponentId, ComponentId)> = self
                .edges
                .keys()
                .filter(|&&(a, b)| a == c || b == c)
                .copied()
                .collect();
            for key in touching {
                if let Some(EdgeState::Remote(f)) = self.edges.remove(&key) {
                    let _ = self.mesh.remove_flow(f);
                }
            }
            let _ = self.cluster.evict(c);
            if self.dag.remove_component(c) {
                removed += 1;
            }
            self.restarts.remove(&c);
            self.displaced.remove(&c);
            self.demand_factor.retain(|&(a, b), _| a != c && b != c);
            self.goodput.forget_touching(c);
        }
        if let Some(j) = self.journal.as_mut() {
            j.record(bass_obs::Event::AppRetired {
                t_s: self.mesh.now().as_secs_f64(),
                app: label.to_string(),
                components: removed,
            });
        }
        Ok(())
    }

    /// Advances the environment by one step.
    ///
    /// # Errors
    ///
    /// Propagates scenario/mesh errors.
    ///
    /// # Panics
    ///
    /// Panics if called before [`SimEnv::deploy`].
    pub fn step(&mut self) -> Result<(), EnvError> {
        // The profiler is parked in a local for the duration of the
        // tick: `step_inner` borrows it independently of `self`, which
        // lets the phase clock interleave with `&mut self` phase calls.
        let mut spans = self.spans.take();
        let result = self.step_inner(spans.as_mut());
        self.spans = spans;
        result
    }

    /// One tick with per-phase span profiling (the `tick.*` spans; see
    /// `docs/OBSERVABILITY.md`). Phases that profile their own interior
    /// — the mesh advance and the controller — receive the profiler and
    /// are followed by a [`PhaseClock::reset`](bass_obs::PhaseClock) or
    /// their own enclosing lap.
    fn step_inner(
        &mut self,
        mut profiler: Option<&mut bass_obs::SpanProfiler>,
    ) -> Result<(), EnvError> {
        assert!(self.deployed, "call deploy() before step()");
        let mut clock = bass_obs::PhaseClock::new(profiler.is_some());
        // 0. Injected faults due now, then re-placement of components a
        // crash displaced (possible again once capacity recovers).
        let now = self.mesh.now();
        let mut controller_restarted = false;
        for fault in self.cfg.faults.due(now) {
            controller_restarted |= self.apply_fault(fault)?;
        }
        self.replace_displaced()?;
        clock.lap(profiler.as_deref_mut(), "tick.faults");

        // 1. Scenario actions due now.
        let pending_before = self.scenario.remaining();
        self.scenario.apply_due(&mut self.mesh, now)?;
        if pending_before != self.scenario.remaining() {
            if let Some(j) = self.journal.as_mut() {
                self.mesh.emit_capacity_changes(j, "scenario");
            }
        }
        clock.lap(profiler.as_deref_mut(), "tick.scenario");

        // 1b. Routing protocol adaptation (ETX-like: expensive links are
        // avoided), independent of — and invisible to — the controller.
        if let Some(interval) = self.cfg.adaptive_routing {
            if now.saturating_since(self.last_route_update) >= interval {
                let weights: Vec<f64> = self
                    .mesh
                    .topology()
                    .links()
                    .map(|(_, link)| {
                        let cap = self
                            .mesh
                            .link_capacity(link.a, link.b)
                            .unwrap_or(Bandwidth::ZERO)
                            .as_bps();
                        // ETX grows as capacity shrinks; floor avoids ∞.
                        1e9 / cap.max(1e3)
                    })
                    .collect();
                self.mesh.use_weighted_routing(|lid| weights[lid.0]);
                self.stats.route_updates += 1;
                self.last_route_update = now;
            }
        }

        // 2. Push demands.
        let edge_keys: Vec<(ComponentId, ComponentId)> = self.edges.keys().copied().collect();
        for (from, to) in &edge_keys {
            if let Some(EdgeState::Remote(f)) = self.edges.get(&(*from, *to)) {
                let demand = self.edge_demand(*from, *to);
                self.mesh.set_flow_demand(*f, demand)?;
            }
        }
        clock.lap(profiler.as_deref_mut(), "tick.demand");

        // 3. Advance the network. The mesh profiles its own interior
        // phases (`mesh.*`), so the enclosing clock restarts afterwards
        // rather than double-attributing that time to a tick phase.
        self.mesh.advance_profiled(
            self.cfg.step,
            self.journal.as_mut(),
            profiler.as_deref_mut(),
        );
        clock.reset();
        let now = self.mesh.now();

        // 4. Passive goodput measurement.
        for (from, to) in &edge_keys {
            let required = {
                let factor = self.demand_factor.get(&(*from, *to)).copied().unwrap_or(1.0);
                self.dag.bandwidth_between(*from, *to).scale(factor)
            };
            let achieved = self.edge_achieved(*from, *to);
            self.goodput.record(*from, *to, required, achieved, now);
            if let Some(profiler) = &mut self.profiler {
                profiler.observe(*from, *to, achieved);
            }
        }
        clock.lap(profiler.as_deref_mut(), "tick.goodput");

        // 5. Controller. A restart injected this tick loses the tick: the
        // new controller process comes up after the decision window.
        if self.cfg.migrations_enabled && !controller_restarted {
            let outcome = self.controller.tick_profiled(
                &self.mesh,
                &mut self.netmon,
                &self.goodput,
                &self.dag,
                &self.cluster,
                &self.cfg.pinned,
                self.journal.as_mut(),
                profiler.as_deref_mut(),
            );
            clock.lap(profiler.as_deref_mut(), "tick.controller");
            let plans: Vec<MigrationPlan> = outcome
                .plans
                .iter()
                .copied()
                .filter(|p| !self.cfg.pinned.contains(&p.component))
                .collect();
            if !plans.is_empty() || !outcome.candidates.violations.is_empty() {
                self.stats.migration_rounds.push((
                    outcome.candidates.violating_component_count(),
                    plans.len(),
                ));
            }
            self.stats.unplaceable += outcome.unplaceable.len() as u64;
            for plan in plans {
                self.apply_migration(plan)?;
            }
            clock.lap(profiler.as_deref_mut(), "tick.migrate");
        } else {
            clock.reset();
        }

        // 6. Close the tick span.
        if let Some(j) = self.journal.as_mut() {
            j.record(bass_obs::Event::TickCompleted {
                t_s: now.as_secs_f64(),
                step_ms: self.cfg.step.as_secs_f64() * 1e3,
                flows: self.mesh.flow_count() as u32,
                migrations_total: self.stats.migrations.len() as u64,
            });
        }
        clock.lap(profiler, "tick.finalize");
        Ok(())
    }

    /// Runs for `duration`, invoking `hook` after every step.
    ///
    /// Under [`StepMode::Ticked`] every step executes in full. Under
    /// [`StepMode::EventDriven`] the loop follows each full step with as
    /// many provably quiescent skipped ticks as
    /// [`skippable_ticks`](Self::skippable_ticks) allows; `hook` still
    /// runs after every simulated tick, skipped or not, and a hook that
    /// mutates the environment immediately demotes the rest of its
    /// window back to full steps. Results, stats, and journal contents
    /// are byte-identical across the two modes — only wall-clock (and
    /// span-profiler counts, which track work actually performed)
    /// differs.
    ///
    /// # Errors
    ///
    /// Stops at the first step error.
    pub fn run_for(
        &mut self,
        duration: SimDuration,
        mut hook: impl FnMut(&mut SimEnv),
    ) -> Result<(), EnvError> {
        let end = self.mesh.now() + duration;
        let step_us = self.cfg.step.as_micros();
        while self.mesh.now() < end {
            self.step()?;
            hook(self);
            if self.cfg.step_mode != StepMode::EventDriven || step_us == 0 {
                continue;
            }
            'skip: while self.mesh.now() < end {
                let remaining =
                    end.saturating_since(self.mesh.now()).as_micros().div_ceil(step_us);
                let window = self.skippable_ticks(remaining);
                if window == 0 {
                    break;
                }
                for _ in 0..window {
                    let epoch = self.mutation_epoch;
                    self.skip_quiescent_ticks(1);
                    hook(self);
                    if self.mutation_epoch != epoch {
                        // The hook mutated the environment at this tick
                        // boundary; the rest of the window is no longer
                        // proven. Fall back to a full step.
                        break 'skip;
                    }
                }
            }
        }
        Ok(())
    }

    /// Upper bound on how many consecutive ticks, starting now, are
    /// provably quiescent — i.e. executing them in full would change
    /// nothing but the clock. Returns at most `max_ticks`, and 0
    /// whenever quiescence cannot be proven.
    ///
    /// A tick is quiescent when every input to [`step`](Self::step) is
    /// bitwise unchanged and every flow queue is at a bitwise fixed
    /// point ([`Mesh::queues_quiescent`]): the fault plan, the scenario
    /// script, and adaptive-routing refreshes are evaluated against the
    /// tick's **pre-advance** clock, while trace change-points,
    /// controller probe epochs, and restart expiries are bounded on the
    /// **post-advance** clock (see
    /// [`EventSource::pre_advance`](bass_core::EventSource::pre_advance)
    /// for why expiries take the stricter side) — so with `t0 = now()`,
    /// a pre-advance event at `t` caps the window at `⌈(t − t0)/step⌉`
    /// ticks and a post-advance event at `⌈(t − t0)/step⌉ − 1` (its tick
    /// *ends* at or after `t`). The controller is a guaranteed no-op
    /// between headroom-probe epochs, so probe epochs are the only
    /// controller events that matter; probe ticks themselves always
    /// execute in full. Online profiling, pending displaced components,
    /// and an undeployed environment disable skipping entirely.
    pub fn skippable_ticks(&self, max_ticks: u64) -> u64 {
        let step = self.cfg.step;
        let step_us = step.as_micros();
        if max_ticks == 0
            || step_us == 0
            || !self.deployed
            || !self.displaced.is_empty()
            || self.profiler.is_some()
            || !self.mesh.queues_quiescent(step)
        {
            return 0;
        }
        let t0 = self.mesh.now();
        let mut queue = EventQueue::new();
        if let Some(t) = self.cfg.faults.next_at() {
            queue.push(SimEvent { at: t, source: EventSource::Fault });
        }
        if let Some(t) = self.scenario.next_at() {
            queue.push(SimEvent { at: t, source: EventSource::Scenario });
        }
        if let Some(interval) = self.cfg.adaptive_routing {
            queue.push(SimEvent {
                at: self.last_route_update + interval,
                source: EventSource::RouteUpdate,
            });
        }
        for &(start, model) in self.restarts.values() {
            let expiry = start + model.downtime;
            // An expiry both clocks passed by the last executed tick
            // (pre-advance `t0 − step`, post-advance `t0`) can never
            // change a future tick; keeping it would pin the bound at 0.
            // One in `(t0 − step, t0]` still flips the *next* tick's
            // pre-advance demand push — the post-advance cap formula
            // yields 0 for it, forcing that tick to execute in full.
            if expiry.as_micros() + step_us <= t0.as_micros() {
                continue;
            }
            queue.push(SimEvent { at: expiry, source: EventSource::RestartExpiry });
        }
        if let Some(t) = self.mesh.next_trace_change_after(t0) {
            queue.push(SimEvent { at: t, source: EventSource::TraceChange });
        }
        if self.cfg.migrations_enabled {
            queue.push(SimEvent {
                at: self.netmon.next_headroom_probe_at(),
                source: EventSource::ProbeEpoch,
            });
        }
        let mut bound = max_ticks;
        while let Some(ev) = queue.pop() {
            let ticks_to_reach =
                ev.at.as_micros().saturating_sub(t0.as_micros()).div_ceil(step_us);
            let cap = if ev.source.pre_advance() {
                ticks_to_reach
            } else {
                ticks_to_reach.saturating_sub(1)
            };
            bound = bound.min(cap);
            if bound == 0 {
                return 0;
            }
        }
        bound
    }

    /// Advances `ticks` quiescent ticks: moves the clock and stamps each
    /// tick's `TickCompleted` journal event at its true time, nothing
    /// else. Only sound for ticks [`skippable_ticks`](Self::skippable_ticks)
    /// vouched for — a quiescent tick's full execution emits exactly the
    /// `TickCompleted` event (every capacity/flow-rate diff is empty and
    /// the controller never wakes), so the journal stays byte-identical.
    pub fn skip_quiescent_ticks(&mut self, ticks: u64) {
        for _ in 0..ticks {
            self.mesh.advance_quiescent(self.cfg.step);
            if let Some(j) = self.journal.as_mut() {
                j.record(bass_obs::Event::TickCompleted {
                    t_s: self.mesh.now().as_secs_f64(),
                    step_ms: self.cfg.step.as_secs_f64() * 1e3,
                    flows: self.mesh.flow_count() as u32,
                    migrations_total: self.stats.migrations.len() as u64,
                });
            }
        }
    }

    /// Applies one injected fault and journals it. Returns `true` when
    /// the fault was a controller restart (the controller loses its tick).
    fn apply_fault(&mut self, fault: Fault) -> Result<bool, EnvError> {
        let mut controller_restarted = false;
        let mut detail = String::new();
        match fault {
            Fault::NodeCrash { node } => {
                self.mesh.set_node_up(node, false)?;
                let victims: Vec<ComponentId> = self
                    .cluster
                    .placement()
                    .into_iter()
                    .filter(|&(_, n)| n == node)
                    .map(|(c, _)| c)
                    .collect();
                detail = format!("evicted {} component(s)", victims.len());
                for c in victims {
                    let _ = self.cluster.evict(c);
                    self.displaced.insert(c);
                    self.rebind_edges_touching(c)?;
                }
            }
            Fault::NodeRecover { node } => {
                self.mesh.set_node_up(node, true)?;
            }
            Fault::LinkDown { a, b } => {
                self.mesh.set_link_up(a, b, false)?;
            }
            Fault::LinkUp { a, b } => {
                self.mesh.set_link_up(a, b, true)?;
            }
            Fault::ProbeLossStart { p } => {
                // Fork a fresh stream per episode off the plan seed:
                // episode k replays identically regardless of how many
                // probes earlier episodes consumed.
                let mut root = bass_util::rng::SimRng::seed_from_u64(self.cfg.faults.seed());
                let rng = root.fork(1_000 + self.probe_loss_episodes);
                self.probe_loss_episodes += 1;
                self.netmon.set_probe_loss(p, rng);
                detail = format!("p={p}");
            }
            Fault::ProbeLossStop => {
                self.netmon.clear_probe_loss();
            }
            Fault::StaleTraceStart { a, b } => {
                self.mesh.freeze_link_trace(a, b)?;
            }
            Fault::StaleTraceStop { a, b } => {
                self.mesh.unfreeze_link_trace(a, b)?;
            }
            Fault::ControllerRestart => {
                self.controller.reset();
                controller_restarted = true;
            }
        }
        if let Some(j) = self.journal.as_mut() {
            j.record(bass_obs::Event::FaultInjected {
                t_s: self.mesh.now().as_secs_f64(),
                kind: fault.kind().to_string(),
                target: fault.target(),
                detail,
            });
        }
        Ok(controller_restarted)
    }

    /// Tries to re-place every displaced component on the best-ranked up
    /// node with room; newly placed components pay a restart and have
    /// their edges rebound.
    fn replace_displaced(&mut self) -> Result<(), EnvError> {
        if self.displaced.is_empty() {
            return Ok(());
        }
        let candidates: Vec<ComponentId> = self.displaced.iter().copied().collect();
        let mut placed_any = false;
        for c in candidates {
            let Some(comp) = self.dag.component(c) else {
                self.displaced.remove(&c);
                continue;
            };
            let resources = comp.resources;
            let target = bass_core::ranking::rank_nodes(&self.cluster, &self.mesh)
                .into_iter()
                .filter(|&n| self.mesh.node_is_up(n))
                .find(|&n| self.cluster.fits(n, resources).unwrap_or(false));
            let Some(node) = target else {
                continue; // still nowhere to go; retry next tick
            };
            self.cluster
                .place(c, resources, node)
                .map_err(|e| EnvError::Schedule(ScheduleError::Baseline(e)))?;
            self.displaced.remove(&c);
            // The component restarts on its new node.
            self.restarts.insert(c, (self.mesh.now(), self.cfg.restart));
            self.rebind_edges_touching(c)?;
            placed_any = true;
            if let Some(j) = self.journal.as_mut() {
                j.record(bass_obs::Event::PlacementDecided {
                    t_s: self.mesh.now().as_secs_f64(),
                    component: c.0,
                    node: node.0,
                    policy: "fault-recovery".to_string(),
                    crossing_mbps: 0.0,
                });
            }
        }
        if placed_any {
            if let Some(j) = self.journal.as_mut() {
                // Recompute the crossing bandwidth of the repaired
                // placement into the last event's metric registry.
                let crossing =
                    bass_core::placement::crossing_bandwidth(&self.dag, &self.cluster.placement());
                j.metrics_mut()
                    .set_gauge("fault_recovery.crossing_mbps", crossing.as_mbps());
            }
        }
        Ok(())
    }

    /// Rebinds every DAG edge touching `component` to the current
    /// placement (tears down flows whose endpoint is unplaced).
    fn rebind_edges_touching(&mut self, component: ComponentId) -> Result<(), EnvError> {
        let touching: Vec<(ComponentId, ComponentId)> = self
            .dag
            .edges()
            .iter()
            .filter(|e| e.from == component || e.to == component)
            .map(|e| (e.from, e.to))
            .collect();
        for (f, t) in touching {
            self.bind_edge(f, t)?;
        }
        Ok(())
    }

    fn apply_migration(&mut self, plan: MigrationPlan) -> Result<(), EnvError> {
        if self.cluster.relocate(plan.component, plan.to).is_err() {
            self.stats.unplaceable += 1;
            if let Some(j) = self.journal.as_mut() {
                j.record(bass_obs::Event::PlacementRejected {
                    t_s: self.mesh.now().as_secs_f64(),
                    component: plan.component.0,
                    reason: "relocate failed".to_string(),
                });
            }
            return Ok(());
        }
        let now = self.mesh.now();
        let mut model = self.cfg.restart;
        if let Some(state) = self.cfg.stateful_state {
            // §8 extension: checkpoint transfer extends the outage. Use
            // the bandwidth available from the old to the new node right
            // now; a starved path is clamped at 120 s.
            let avail = self
                .mesh
                .path_available(plan.from, plan.to)
                .unwrap_or(Bandwidth::ZERO);
            let transfer = state
                .transfer_time(avail)
                .min(SimDuration::from_secs(120));
            model.downtime += transfer;
        }
        self.restarts.insert(plan.component, (now, model));
        self.stats.migrations.push(MigrationRecord {
            at: now,
            component: plan.component,
            from: plan.from,
            to: plan.to,
        });
        self.rebind_edges_touching(plan.component)
    }

    // ----- queries the workload models use ---------------------------------

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.mesh.now()
    }

    /// The application DAG.
    pub fn dag(&self) -> &AppDag {
        &self.dag
    }

    /// The current placement.
    pub fn placement(&self) -> Placement {
        self.cluster.placement()
    }

    /// Immutable access to the mesh (for assertions and custom metrics).
    pub fn mesh(&self) -> &Mesh {
        &self.mesh
    }

    /// Mutable access to the mesh, for workloads that manage additional
    /// flows (e.g. video-conference client traffic).
    pub fn mesh_mut(&mut self) -> &mut Mesh {
        self.mutation_epoch += 1;
        &mut self.mesh
    }

    /// Immutable access to the cluster.
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// The net-monitor (probe overhead accounting etc.).
    pub fn netmon(&self) -> &NetMonitor {
        &self.netmon
    }

    /// Run statistics (migrations, rounds, failures).
    pub fn stats(&self) -> &EnvStats {
        &self.stats
    }

    /// True while a component is hard-down due to a restart.
    pub fn component_down(&self, c: ComponentId) -> bool {
        self.restarts
            .get(&c)
            .is_some_and(|&(start, model)| model.is_down(start, self.mesh.now()))
    }

    /// Residual restart slowdown factor for a component (1.0 = healthy).
    pub fn slowdown(&self, c: ComponentId) -> f64 {
        self.restarts
            .get(&c)
            .map_or(1.0, |&(start, model)| model.slowdown_at(start, self.mesh.now()))
    }

    /// Marks a component as restarted now (for restart-cost experiments
    /// like Fig. 14a, independent of any migration).
    pub fn force_restart(&mut self, c: ComponentId) {
        self.mutation_epoch += 1;
        self.restarts.insert(c, (self.mesh.now(), self.cfg.restart));
    }

    /// The restart downtime charged to a component's most recent restart
    /// (includes the state-transfer extension for stateful migrations);
    /// `None` when the component never restarted.
    pub fn restart_downtime(&self, c: ComponentId) -> Option<SimDuration> {
        self.restarts.get(&c).map(|&(_, model)| model.downtime)
    }

    /// The bandwidth an edge currently achieves: its full demand when
    /// co-located, the flow's goodput when remote.
    pub fn edge_achieved(&self, from: ComponentId, to: ComponentId) -> Bandwidth {
        match self.edges.get(&(from, to)) {
            Some(EdgeState::Local) => self.edge_demand(from, to),
            Some(EdgeState::Remote(f)) => self.mesh.flow_goodput(*f),
            None => Bandwidth::ZERO,
        }
    }

    /// Loss fraction on an edge (0 when co-located).
    pub fn edge_loss(&self, from: ComponentId, to: ComponentId) -> f64 {
        match self.edges.get(&(from, to)) {
            Some(EdgeState::Remote(f)) => self.mesh.flow_loss(*f),
            _ => 0.0,
        }
    }

    /// End-to-end delay for a message of `size` on an edge, including
    /// restart downtime of either endpoint (a message sent to a
    /// restarting component waits out the remaining downtime).
    pub fn edge_delay(&self, from: ComponentId, to: ComponentId, size: DataSize) -> SimDuration {
        let now = self.mesh.now();
        let mut penalty = SimDuration::ZERO;
        for c in [from, to] {
            if let Some(&(start, model)) = self.restarts.get(&c) {
                if model.is_down(start, now) {
                    let until = start + model.downtime;
                    penalty = penalty.max(until.saturating_since(now));
                }
            }
        }
        let base = match self.edges.get(&(from, to)) {
            Some(EdgeState::Local) | None => self.mesh.hop_latency().for_hops(0),
            Some(EdgeState::Remote(f)) => self
                .mesh
                .flow_message_delay(*f, size)
                .unwrap_or(SimDuration::from_secs(600)),
        };
        penalty + base
    }

    /// How one DAG edge is currently realized.
    pub fn edge_state(&self, from: ComponentId, to: ComponentId) -> Option<EdgeState> {
        self.edges.get(&(from, to)).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bass_appdag::catalog;
    use bass_cluster::NodeSpec;
    use bass_core::heuristics::BfsWeighting;
    use bass_mesh::Topology;

    fn mbps(x: f64) -> Bandwidth {
        Bandwidth::from_mbps(x)
    }

    fn camera_env(policy: PlacementPolicy) -> SimEnv {
        let mesh = Mesh::with_uniform_capacity(Topology::full_mesh(3), mbps(100.0)).unwrap();
        let cluster = Cluster::new((0..3).map(|i| NodeSpec::cores_mb(i, 12, 16384))).unwrap();
        let cfg = SimEnvConfig {
            policy,
            ..Default::default()
        };
        SimEnv::new(mesh, cluster, catalog::camera_pipeline(), cfg)
    }

    #[test]
    fn empty_dag_deploys_and_admits_apps_mid_run() {
        let mesh = Mesh::with_uniform_capacity(Topology::full_mesh(3), mbps(100.0)).unwrap();
        let cluster = Cluster::new((0..3).map(|i| NodeSpec::cores_mb(i, 24, 32768))).unwrap();
        let mut env = SimEnv::new(mesh, cluster, AppDag::new("city"), SimEnvConfig::default());
        // Admission before deploy is refused.
        assert!(matches!(
            env.admit_app(&catalog::camera_pipeline(), 1000),
            Err(EnvError::NotDeployed)
        ));
        env.deploy(&[]).unwrap();
        env.step().unwrap();

        let added = env.admit_app(&catalog::camera_pipeline(), 1000).unwrap();
        assert_eq!(added.len(), 5);
        assert_eq!(env.dag().component_count(), 5);
        assert!(env.dag().component(ComponentId(1001)).is_some());
        // All components placed, edges bound (local or remote).
        for &c in &added {
            assert!(env.placement().contains_key(&c));
        }
        env.run_for(SimDuration::from_secs(2), |_| {}).unwrap();

        // A second instance of the same shape under a different offset.
        let added2 = env.admit_app(&catalog::camera_pipeline(), 2000).unwrap();
        assert_eq!(env.dag().component_count(), 10);
        // Colliding offset rolls back without touching what's running.
        assert!(matches!(
            env.admit_app(&catalog::camera_pipeline(), 1000),
            Err(EnvError::Dag(_))
        ));
        assert_eq!(env.dag().component_count(), 10);

        env.retire_app("camera-0", &added).unwrap();
        assert_eq!(env.dag().component_count(), 5);
        for &c in &added {
            assert!(!env.placement().contains_key(&c));
        }
        // The survivor keeps running fine.
        env.run_for(SimDuration::from_secs(2), |_| {}).unwrap();
        for e in env.dag().clone().edges() {
            assert!((env.edge_achieved(e.from, e.to).as_mbps() - e.bandwidth.as_mbps()).abs() < 1e-6);
        }
        drop(added2);
    }

    #[test]
    fn rejected_admission_rolls_back_cleanly() {
        // A cluster too small for the social network: admission must fail
        // and leave zero residue (components, flows, placements).
        let mesh = Mesh::with_uniform_capacity(Topology::full_mesh(2), mbps(100.0)).unwrap();
        let cluster = Cluster::new((0..2).map(|i| NodeSpec::cores_mb(i, 2, 2048))).unwrap();
        let mut env = SimEnv::new(mesh, cluster, AppDag::new("city"), SimEnvConfig::default());
        env.deploy(&[]).unwrap();
        let flows_before = env.mesh().flow_count();
        assert!(matches!(
            env.admit_app(&catalog::social_network(50.0), 5000),
            Err(EnvError::Schedule(_))
        ));
        assert_eq!(env.dag().component_count(), 0);
        assert!(env.placement().is_empty());
        assert_eq!(env.mesh().flow_count(), flows_before);
        // The environment still steps.
        env.run_for(SimDuration::from_secs(1), |_| {}).unwrap();
    }

    #[test]
    fn span_profiling_never_changes_simulation_outputs() {
        // Identical envs, one with span profiling: journals (the full
        // decision record) must match byte for byte.
        let run = |profiled: bool| {
            let mut env = camera_env(PlacementPolicy::LongestPath);
            env.attach_journal(bass_obs::Journal::new());
            if profiled {
                env.enable_span_profiling();
            }
            env.deploy(&[]).unwrap();
            env.run_for(SimDuration::from_secs(5), |_| {}).unwrap();
            let journal = env.take_journal().unwrap();
            (journal.export_jsonl(), env.take_span_profiler())
        };
        let (plain_journal, no_profiler) = run(false);
        let (profiled_journal, profiler) = run(true);
        assert!(no_profiler.is_none());
        assert_eq!(plain_journal, profiled_journal);

        // The profiler saw every unconditional tick phase plus the
        // deploy churn span and the mesh allocation interior.
        let profiler = profiler.expect("profiler was enabled");
        for span in [
            "tick.faults",
            "tick.scenario",
            "tick.demand",
            "tick.goodput",
            "tick.controller",
            "tick.migrate",
            "tick.finalize",
            "mesh.queues",
            "mesh.trace_refresh",
            "mesh.water_fill",
            "mesh.usage_views",
            "env.deploy",
            "netmon.headroom_probe",
        ] {
            let stats = profiler
                .stats(span)
                .unwrap_or_else(|| panic!("span {span} missing"));
            assert!(stats.count > 0, "span {span} never completed");
        }
        assert_eq!(profiler.stats("env.deploy").unwrap().count, 1);
        // 5 s at the default step → one instance of each tick phase per tick.
        let ticks = profiler.stats("tick.finalize").unwrap().count;
        assert!(ticks >= 5, "expected at least 5 ticks, saw {ticks}");
        assert_eq!(profiler.stats("tick.faults").unwrap().count, ticks);
    }

    #[test]
    fn deploy_creates_flows_for_crossing_edges_only() {
        let mut env = camera_env(PlacementPolicy::BreadthFirst(BfsWeighting::EdgeWeight));
        env.deploy(&[]).unwrap();
        // BFS: {camera, sampler} | {detector, image, label} — only the
        // sampler→detector edge crosses.
        let dag = env.dag().clone();
        let id = |n: &str| dag.component_by_name(n).unwrap().id;
        assert_eq!(
            env.edge_state(id("camera-stream"), id("frame-sampler")),
            Some(EdgeState::Local)
        );
        assert!(matches!(
            env.edge_state(id("frame-sampler"), id("object-detector")),
            Some(EdgeState::Remote(_))
        ));
        assert_eq!(
            env.edge_state(id("object-detector"), id("image-listener")),
            Some(EdgeState::Local)
        );
        assert_eq!(env.mesh().flow_count(), 1);
    }

    #[test]
    fn healthy_run_achieves_all_edges() {
        let mut env = camera_env(PlacementPolicy::LongestPath);
        env.deploy(&[]).unwrap();
        env.run_for(SimDuration::from_secs(5), |_| {}).unwrap();
        let dag = env.dag().clone();
        for e in dag.edges() {
            let achieved = env.edge_achieved(e.from, e.to);
            assert!(
                (achieved.as_mbps() - e.bandwidth.as_mbps()).abs() < 1e-6,
                "edge {}→{} achieved {achieved}",
                e.from,
                e.to
            );
            assert_eq!(env.edge_loss(e.from, e.to), 0.0);
        }
        assert!(env.stats().migrations.is_empty());
    }

    #[test]
    fn link_squeeze_triggers_migration_and_recovery() {
        let mut env = camera_env(PlacementPolicy::BreadthFirst(BfsWeighting::EdgeWeight));
        env.deploy(&[]).unwrap();
        let dag = env.dag().clone();
        let id = |n: &str| dag.component_by_name(n).unwrap().id;
        let placement = env.placement();
        let sampler_node = placement[&id("frame-sampler")];
        let detector_node = placement[&id("object-detector")];
        // Squeeze the crossing link 60 s in, forever.
        env.set_scenario(Scenario::new().at(
            SimTime::from_secs(60),
            crate::scenario::Action::CapLink {
                a: sampler_node,
                b: detector_node,
                cap: Some(mbps(2.0)),
            },
        ));
        env.run_for(SimDuration::from_secs(300), |_| {}).unwrap();
        assert!(
            !env.stats().migrations.is_empty(),
            "controller must migrate off the squeezed link"
        );
        // After recovery the crossing edge achieves its demand again.
        let achieved = env.edge_achieved(id("frame-sampler"), id("object-detector"));
        assert!(
            achieved.as_mbps() > 5.9,
            "post-migration goodput {achieved}"
        );
    }

    #[test]
    fn migrations_can_be_disabled() {
        let mesh = Mesh::with_uniform_capacity(Topology::full_mesh(3), mbps(100.0)).unwrap();
        let cluster = Cluster::new((0..3).map(|i| NodeSpec::cores_mb(i, 12, 16384))).unwrap();
        let cfg = SimEnvConfig {
            policy: PlacementPolicy::BreadthFirst(BfsWeighting::EdgeWeight),
            migrations_enabled: false,
            ..Default::default()
        };
        let mut env = SimEnv::new(mesh, cluster, catalog::camera_pipeline(), cfg);
        env.deploy(&[]).unwrap();
        let dag = env.dag().clone();
        let id = |n: &str| dag.component_by_name(n).unwrap().id;
        let placement = env.placement();
        env.set_scenario(Scenario::new().at(
            SimTime::from_secs(10),
            crate::scenario::Action::CapLink {
                a: placement[&id("frame-sampler")],
                b: placement[&id("object-detector")],
                cap: Some(mbps(2.0)),
            },
        ));
        env.run_for(SimDuration::from_secs(200), |_| {}).unwrap();
        assert!(env.stats().migrations.is_empty());
        let achieved = env.edge_achieved(id("frame-sampler"), id("object-detector"));
        assert!(achieved.as_mbps() < 2.1, "stuck on squeezed link");
    }

    #[test]
    fn restart_downtime_zeroes_demand_and_penalizes_delay() {
        let mut env = camera_env(PlacementPolicy::BreadthFirst(BfsWeighting::EdgeWeight));
        env.deploy(&[]).unwrap();
        let dag = env.dag().clone();
        let id = |n: &str| dag.component_by_name(n).unwrap().id;
        env.run_for(SimDuration::from_secs(2), |_| {}).unwrap();
        env.force_restart(id("object-detector"));
        assert!(env.component_down(id("object-detector")));
        env.step().unwrap();
        // Demand of edges touching the detector collapses to zero.
        assert!(env
            .edge_achieved(id("frame-sampler"), id("object-detector"))
            .is_zero());
        // Delay includes remaining downtime.
        let d = env.edge_delay(
            id("frame-sampler"),
            id("object-detector"),
            DataSize::from_kilobytes(10),
        );
        assert!(d > SimDuration::from_secs(3), "delay {d}");
        // After the restart model's recovery window everything heals.
        env.run_for(SimDuration::from_secs(20), |_| {}).unwrap();
        assert!(!env.component_down(id("object-detector")));
        assert_eq!(env.slowdown(id("object-detector")), 1.0);
    }

    #[test]
    fn pinned_components_deploy_and_never_migrate() {
        let mesh = Mesh::with_uniform_capacity(Topology::full_mesh(3), mbps(100.0)).unwrap();
        let cluster = Cluster::new((0..3).map(|i| NodeSpec::cores_mb(i, 12, 16384))).unwrap();
        let dag = catalog::camera_pipeline();
        let camera = dag.component_by_name("camera-stream").unwrap().id;
        let cfg = SimEnvConfig {
            policy: PlacementPolicy::LongestPath,
            pinned: [camera].into_iter().collect(),
            ..Default::default()
        };
        let mut env = SimEnv::new(mesh, cluster, dag, cfg);
        let placement = env.deploy(&[(camera, NodeId(2))]).unwrap();
        assert_eq!(placement[&camera], NodeId(2));
        assert_eq!(placement.len(), 5);
    }

    #[test]
    fn demand_factor_scales_offered_load() {
        let mut env = camera_env(PlacementPolicy::BreadthFirst(BfsWeighting::EdgeWeight));
        env.deploy(&[]).unwrap();
        let dag = env.dag().clone();
        let id = |n: &str| dag.component_by_name(n).unwrap().id;
        env.set_edge_demand_factor(id("frame-sampler"), id("object-detector"), 0.5);
        env.run_for(SimDuration::from_secs(2), |_| {}).unwrap();
        let achieved = env.edge_achieved(id("frame-sampler"), id("object-detector"));
        assert!((achieved.as_mbps() - 3.0).abs() < 1e-6, "{achieved}");
    }

    #[test]
    fn table1_style_round_accounting() {
        let mut env = camera_env(PlacementPolicy::BreadthFirst(BfsWeighting::EdgeWeight));
        env.deploy(&[]).unwrap();
        let dag = env.dag().clone();
        let id = |n: &str| dag.component_by_name(n).unwrap().id;
        let placement = env.placement();
        env.set_scenario(Scenario::new().at(
            SimTime::from_secs(30),
            crate::scenario::Action::CapLink {
                a: placement[&id("frame-sampler")],
                b: placement[&id("object-detector")],
                cap: Some(mbps(2.0)),
            },
        ));
        env.run_for(SimDuration::from_secs(200), |_| {}).unwrap();
        let rounds = &env.stats().migration_rounds;
        assert!(!rounds.is_empty());
        // Each round migrated no more components than violated.
        for &(violating, migrated) in rounds {
            assert!(migrated <= violating);
        }
    }

    #[test]
    fn adaptive_routing_reroutes_around_degraded_links() {
        // Line-ish topology: 0-1-2 plus a weak chord 0-2. Static min-hop
        // routing sends the 0→2 edge over the chord; adaptive ETX
        // routing detours via node 1 once the chord's weight dominates.
        let mut topo = Topology::new();
        for i in 0..3 {
            topo.add_node(NodeId(i)).unwrap();
        }
        topo.add_link(NodeId(0), NodeId(1)).unwrap();
        topo.add_link(NodeId(1), NodeId(2)).unwrap();
        topo.add_link(NodeId(0), NodeId(2)).unwrap();
        let mut mesh = Mesh::with_uniform_capacity(topo, mbps(100.0)).unwrap();
        mesh.set_link_source(
            NodeId(0),
            NodeId(2),
            bass_mesh::CapacitySource::Constant(mbps(2.0)),
        )
        .unwrap();
        let cluster = Cluster::new((0..3).map(|i| NodeSpec::cores_mb(i, 12, 16384))).unwrap();
        let cfg = SimEnvConfig {
            policy: PlacementPolicy::BreadthFirst(BfsWeighting::EdgeWeight),
            migrations_enabled: false,
            adaptive_routing: Some(SimDuration::from_secs(5)),
            ..Default::default()
        };
        // Pin the pipeline so camera+sampler sit on n0 and the detector
        // side on n2 — the crossing edge must traverse 0→2.
        let dag = catalog::camera_pipeline();
        let ids: Vec<ComponentId> = dag.component_ids().collect();
        let pins: Vec<(ComponentId, NodeId)> = ids
            .iter()
            .enumerate()
            .map(|(i, &c)| (c, if i < 2 { NodeId(0) } else { NodeId(2) }))
            .collect();
        let mut env = SimEnv::new(mesh, cluster, dag, cfg);
        env.deploy(&pins).unwrap();
        let dag = env.dag().clone();
        let id = |n: &str| dag.component_by_name(n).unwrap().id;
        // Before adaptation kicks in, the crossing edge is starved at 2 Mbps.
        env.run_for(SimDuration::from_secs(1), |_| {}).unwrap();
        assert!(env.edge_achieved(id("frame-sampler"), id("object-detector")).as_mbps() < 2.1);
        // After a routing update, it detours via n1 and achieves 6 Mbps.
        env.run_for(SimDuration::from_secs(30), |_| {}).unwrap();
        assert!(env.stats().route_updates >= 1);
        let achieved = env.edge_achieved(id("frame-sampler"), id("object-detector"));
        assert!(achieved.as_mbps() > 5.9, "rerouted goodput {achieved}");
        assert_eq!(
            env.mesh().path(NodeId(0), NodeId(2)).unwrap(),
            &[NodeId(0), NodeId(1), NodeId(2)]
        );
    }

    #[test]
    fn stateful_migration_extends_downtime_by_transfer_time() {
        // Identical squeeze scenario, run stateless vs with a 100 MB
        // checkpoint: the stateful migration's downtime must include the
        // state-transfer time over the (healthy) target path.
        let run = |state: Option<DataSize>| {
            let (mesh, cluster) = (
                Mesh::with_uniform_capacity(Topology::full_mesh(3), mbps(100.0)).unwrap(),
                Cluster::new((0..3).map(|i| NodeSpec::cores_mb(i, 12, 16384))).unwrap(),
            );
            let cfg = SimEnvConfig {
                policy: PlacementPolicy::BreadthFirst(BfsWeighting::EdgeWeight),
                stateful_state: state,
                ..Default::default()
            };
            let mut env = SimEnv::new(mesh, cluster, catalog::camera_pipeline(), cfg);
            env.deploy(&[]).unwrap();
            let dag = env.dag().clone();
            let id = |n: &str| dag.component_by_name(n).unwrap().id;
            let placement = env.placement();
            env.set_scenario(Scenario::new().at(
                SimTime::from_secs(30),
                crate::scenario::Action::CapLink {
                    a: placement[&id("frame-sampler")],
                    b: placement[&id("object-detector")],
                    cap: Some(mbps(1.5)),
                },
            ));
            env.run_for(SimDuration::from_secs(200), |_| {}).unwrap();
            let migrated = env.stats().migrations.first().copied();
            (env, migrated)
        };
        let (stateless_env, m1) = run(None);
        let (stateful_env, m2) = run(Some(DataSize::from_megabytes(100)));
        let (m1, m2) = (m1.expect("stateless migrates"), m2.expect("stateful migrates"));
        let d_stateless = stateless_env.restart_downtime(m1.component).unwrap();
        let d_stateful = stateful_env.restart_downtime(m2.component).unwrap();
        // 800 Mbit over a ~100 Mbps path ≈ 8 s extra.
        assert!(
            d_stateful > d_stateless + SimDuration::from_secs(5),
            "stateful {d_stateful} vs stateless {d_stateless}"
        );
        assert!(d_stateful < d_stateless + SimDuration::from_secs(120));
    }

    #[test]
    fn online_profiler_learns_edge_requirements() {
        let mut env = camera_env(PlacementPolicy::BreadthFirst(BfsWeighting::EdgeWeight));
        env.enable_online_profiling(bass_netmon::OnlineProfiler::new(0.95, 1.2, 10));
        env.deploy(&[]).unwrap();
        assert!(env.profiled_requirements().is_empty(), "needs warm-up");
        env.run_for(SimDuration::from_secs(5), |_| {}).unwrap();
        let estimates = env.profiled_requirements();
        let dag = env.dag().clone();
        assert_eq!(estimates.len(), dag.edge_count());
        // Each estimate lands near requirement × safety factor (the
        // healthy LAN serves every edge fully).
        for (from, to, est) in estimates {
            let required = dag.bandwidth_between(from, to);
            let ratio = est.as_bps() / required.as_bps();
            assert!((1.0..=1.3).contains(&ratio), "{from}->{to}: ratio {ratio}");
        }
    }

    #[test]
    fn node_crash_evicts_and_recovery_replaces() {
        let mut env = camera_env(PlacementPolicy::BreadthFirst(BfsWeighting::EdgeWeight));
        env.attach_journal(bass_obs::Journal::new());
        env.deploy(&[]).unwrap();
        let dag = env.dag().clone();
        let id = |n: &str| dag.component_by_name(n).unwrap().id;
        let placement = env.placement();
        let victim_node = placement[&id("object-detector")];
        let victims: Vec<ComponentId> = placement
            .iter()
            .filter(|&(_, &n)| n == victim_node)
            .map(|(&c, _)| c)
            .collect();
        env.set_fault_plan(FaultPlan::new().node_crash(
            victim_node,
            SimTime::from_secs(10),
            SimTime::from_secs(40),
        ));
        // While the node is down the victims are either displaced or
        // re-placed on surviving nodes — never on the down node.
        env.run_for(SimDuration::from_secs(20), |e| {
            for (c, n) in e.placement() {
                assert!(e.mesh().node_is_up(n), "{c} placed on down node {n}");
            }
        })
        .unwrap();
        assert!(!env.mesh().node_is_up(victim_node));
        for &c in &victims {
            let on_down = env.placement().get(&c) == Some(&victim_node);
            assert!(!on_down, "{c} still on crashed node");
        }
        // After recovery everything is placed somewhere and heals.
        env.run_for(SimDuration::from_secs(60), |_| {}).unwrap();
        assert!(env.mesh().node_is_up(victim_node));
        assert!(env.displaced().is_empty(), "all components re-placed");
        assert_eq!(env.placement().len(), 5);
        env.cluster().check_invariants().unwrap();
        let journal = env.journal().unwrap();
        assert_eq!(journal.count("fault_injected"), 2);
        let kinds: Vec<String> = journal
            .events_of_kind("fault_injected")
            .map(|e| match e {
                bass_obs::Event::FaultInjected { kind, .. } => kind.clone(),
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(kinds, ["node_crash", "node_recover"]);
        // Every eviction-driven re-placement was journalled.
        assert!(journal
            .events_of_kind("placement_decided")
            .any(|e| matches!(e, bass_obs::Event::PlacementDecided { policy, .. } if policy == "fault-recovery")));
    }

    #[test]
    fn empty_fault_plan_is_byte_identical_to_none() {
        let run = |with_empty_plan: bool| {
            let mut env = camera_env(PlacementPolicy::BreadthFirst(BfsWeighting::EdgeWeight));
            env.attach_journal(bass_obs::Journal::new());
            if with_empty_plan {
                env.set_fault_plan(FaultPlan::new().with_seed(99));
            }
            env.deploy(&[]).unwrap();
            env.run_for(SimDuration::from_secs(30), |_| {}).unwrap();
            env.take_journal().unwrap().export_jsonl()
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn controller_restart_loses_the_tick_and_the_cooldown() {
        let mut env = camera_env(PlacementPolicy::BreadthFirst(BfsWeighting::EdgeWeight));
        env.attach_journal(bass_obs::Journal::new());
        env.deploy(&[]).unwrap();
        env.set_fault_plan(FaultPlan::new().controller_restart(SimTime::from_secs(10)));
        env.run_for(SimDuration::from_secs(20), |_| {}).unwrap();
        let journal = env.journal().unwrap();
        assert_eq!(journal.count("fault_injected"), 1);
        match journal.events_of_kind("fault_injected").next().unwrap() {
            bass_obs::Event::FaultInjected { kind, target, .. } => {
                assert_eq!(kind, "controller_restart");
                assert_eq!(target, "controller");
            }
            _ => unreachable!(),
        };
    }

    #[test]
    #[should_panic(expected = "deploy")]
    fn step_before_deploy_panics() {
        let mut env = camera_env(PlacementPolicy::LongestPath);
        let _ = env.step();
    }

    #[test]
    fn journal_reconstructs_the_migration_decision() {
        let mut env = camera_env(PlacementPolicy::BreadthFirst(BfsWeighting::EdgeWeight));
        env.attach_journal(bass_obs::Journal::new());
        env.deploy(&[]).unwrap();
        // Deploy narrates one initial full probe and every binding.
        assert_eq!(env.journal().unwrap().count("probe_completed"), 1);
        assert_eq!(env.journal().unwrap().count("placement_decided"), 5);
        let dag = env.dag().clone();
        let id = |n: &str| dag.component_by_name(n).unwrap().id;
        let placement = env.placement();
        env.set_scenario(Scenario::new().at(
            SimTime::from_secs(60),
            crate::scenario::Action::CapLink {
                a: placement[&id("frame-sampler")],
                b: placement[&id("object-detector")],
                cap: Some(mbps(2.0)),
            },
        ));
        env.run_for(SimDuration::from_secs(120), |_| {}).unwrap();
        assert!(!env.stats().migrations.is_empty());
        let journal = env.take_journal().unwrap();
        // The squeeze is visible as a scenario-caused capacity change …
        let cut = journal
            .events()
            .find_map(|e| match e {
                bass_obs::Event::LinkCapacityChanged { t_s, new_mbps, cause, .. } => {
                    Some((*t_s, *new_mbps, cause.clone()))
                }
                _ => None,
            })
            .expect("capacity cut journalled");
        assert_eq!(cut, (60.0, 2.0, "scenario".to_string()));
        // … followed by trigger and target events in causal order.
        for kind in ["migration_triggered", "migration_target_chosen"] {
            assert!(journal.count(kind) >= 1, "missing {kind}");
        }
        let t_trigger = journal
            .events_of_kind("migration_triggered")
            .next()
            .unwrap()
            .t_s();
        let t_target = journal
            .events_of_kind("migration_target_chosen")
            .next()
            .unwrap()
            .t_s();
        assert!(cut.0 <= t_trigger && t_trigger <= t_target);
        // Ticks were spanned and the final tick counts the migrations.
        assert!(journal.count("tick_completed") >= 1000);
        match journal.events_of_kind("tick_completed").last().unwrap() {
            bass_obs::Event::TickCompleted { migrations_total, .. } => {
                assert_eq!(*migrations_total, env.stats().migrations.len() as u64);
            }
            other => panic!("expected TickCompleted, got {other:?}"),
        }
        // The registry lands in a Recorder as obs.event.* series.
        let mut rec = crate::Recorder::new();
        rec.absorb_metrics(journal.metrics(), env.now());
        assert_eq!(
            rec.series("obs.event.migration_target_chosen").len(),
            1
        );
    }

    /// Contract: `SimEnv` never resets an attached journal. Counters
    /// accumulate across every `deploy` the journal observes — including
    /// a *failed* re-deploy, whose startup probe is charged before the
    /// scheduler rejects the already-placed components. Callers wanting
    /// per-run counters must attach a fresh `Journal` per run.
    #[test]
    fn journal_counters_accumulate_across_deploys() {
        let mut env = camera_env(PlacementPolicy::LongestPath);
        env.attach_journal(bass_obs::Journal::new());
        env.deploy(&[]).unwrap();
        {
            let journal = env.journal().unwrap();
            assert_eq!(journal.count("probe_completed"), 1);
            assert_eq!(journal.count("placement_decided"), 5);
        }

        // Re-deploying on the same env fails (components are already
        // placed) but still runs — and journals — the startup probe.
        assert!(env.deploy(&[]).is_err());
        {
            let journal = env.journal().unwrap();
            assert_eq!(journal.count("probe_completed"), 2);
            assert_eq!(journal.count("placement_decided"), 5);
        }

        // Moving the journal to a fresh env keeps accumulating: nothing
        // in deploy() zeroes the counters or drops recorded events.
        let journal = env.take_journal().unwrap();
        let mut env2 = camera_env(PlacementPolicy::LongestPath);
        env2.attach_journal(journal);
        env2.deploy(&[]).unwrap();
        let journal = env2.journal().unwrap();
        assert_eq!(journal.count("probe_completed"), 3);
        assert_eq!(journal.count("placement_decided"), 10);
        assert_eq!(journal.total_recorded(), journal.len() as u64);
    }

    /// A camera env with a squeeze/release scenario (migration fires),
    /// run under `mode` with per-tick hook counting; returns the journal
    /// bytes, final flow rates, migration count, hook invocations, and
    /// the number of ticks that executed in full.
    fn squeeze_run(mode: StepMode) -> (String, Vec<u64>, usize, u64, u64) {
        let mesh = Mesh::with_uniform_capacity(Topology::full_mesh(3), mbps(100.0)).unwrap();
        let cluster = Cluster::new((0..3).map(|i| NodeSpec::cores_mb(i, 12, 16384))).unwrap();
        let cfg = SimEnvConfig {
            policy: PlacementPolicy::BreadthFirst(BfsWeighting::EdgeWeight),
            step_mode: mode,
            ..Default::default()
        };
        let mut env = SimEnv::new(mesh, cluster, catalog::camera_pipeline(), cfg);
        env.attach_journal(bass_obs::Journal::new());
        env.enable_span_profiling();
        env.deploy(&[]).unwrap();
        let dag = env.dag().clone();
        let id = |n: &str| dag.component_by_name(n).unwrap().id;
        let placement = env.placement();
        let sampler_node = placement[&id("frame-sampler")];
        let detector_node = placement[&id("object-detector")];
        env.set_scenario(Scenario::new().restrict_link(
            sampler_node,
            detector_node,
            SimTime::from_secs(60),
            SimTime::from_secs(120),
            mbps(1.0),
        ));
        let mut hooks = 0u64;
        env.run_for(SimDuration::from_secs(180), |_| hooks += 1).unwrap();
        let rates: Vec<u64> = (0..env.mesh().flow_count())
            .map(|i| env.mesh().flow_rate(FlowId(i as u64)).as_bps().to_bits())
            .collect();
        let migrations = env.stats().migrations.len();
        let executed = env
            .take_span_profiler()
            .unwrap()
            .stats("tick.finalize")
            .map_or(0, |s| s.count);
        let journal = env.take_journal().unwrap().export_jsonl();
        (journal, rates, migrations, hooks, executed)
    }

    #[test]
    fn event_driven_run_is_byte_identical_and_actually_skips() {
        let (journal_t, rates_t, mig_t, hooks_t, executed_t) = squeeze_run(StepMode::Ticked);
        let (journal_e, rates_e, mig_e, hooks_e, executed_e) =
            squeeze_run(StepMode::EventDriven);
        assert_eq!(journal_t, journal_e);
        assert_eq!(rates_t, rates_e);
        assert_eq!(mig_t, mig_e);
        assert!(mig_t > 0, "squeeze should trigger a migration");
        // The hook fires once per simulated tick in both modes.
        assert_eq!(hooks_t, 1800);
        assert_eq!(hooks_e, 1800);
        // Ticked executes every tick; event-driven skips the quiescent
        // stretches between scenario actions and 30 s probe epochs.
        assert_eq!(executed_t, 1800);
        assert!(
            executed_e < executed_t / 2,
            "event-driven executed {executed_e} of {executed_t} ticks"
        );
    }

    #[test]
    fn hook_mutations_demote_skip_windows_not_correctness() {
        let run = |mode: StepMode| {
            let mut env = camera_env(PlacementPolicy::LongestPath);
            env.cfg.step_mode = mode;
            env.attach_journal(bass_obs::Journal::new());
            env.deploy(&[]).unwrap();
            let mut ticks = 0u64;
            env.run_for(SimDuration::from_secs(60), |e| {
                ticks += 1;
                // Mutate mid-window, at a tick no event predicts.
                if ticks == 137 {
                    e.set_global_demand_factor(0.25);
                }
                if ticks == 411 {
                    e.set_global_demand_factor(1.0);
                }
            })
            .unwrap();
            (env.take_journal().unwrap().export_jsonl(), env.now())
        };
        let ticked = run(StepMode::Ticked);
        let event = run(StepMode::EventDriven);
        assert_eq!(ticked, event);
    }

    #[test]
    fn skippable_ticks_guards_refuse_unprovable_states() {
        let mut env = camera_env(PlacementPolicy::LongestPath);
        // Not deployed yet.
        assert_eq!(env.skippable_ticks(100), 0);
        env.deploy(&[]).unwrap();
        // No allocation computed before the first step.
        assert_eq!(env.skippable_ticks(100), 0);
        env.step().unwrap();
        let window = env.skippable_ticks(10_000);
        // Quiescent until the first 30 s probe epoch: the probe tick
        // (post-advance clock) must execute, everything before may skip.
        assert_eq!(window, 299);
        assert_eq!(env.skippable_ticks(50), 50);
        // Online profiling observes every tick — skipping would starve it.
        env.enable_online_profiling(OnlineProfiler::new(0.95, 1.1, 10));
        assert_eq!(env.skippable_ticks(100), 0);
    }

    #[test]
    fn skipped_windows_cross_probe_epochs_identically() {
        // No scenario, no faults: the only events are probe epochs. A
        // long event-driven run must land probes on the same ticks.
        let run = |mode: StepMode| {
            let mut env = camera_env(PlacementPolicy::LongestPath);
            env.cfg.step_mode = mode;
            env.attach_journal(bass_obs::Journal::new());
            env.deploy(&[]).unwrap();
            env.run_for(SimDuration::from_secs(300), |_| {}).unwrap();
            let j = env.take_journal().unwrap();
            (j.count("probe_completed"), j.export_jsonl())
        };
        let (probes_t, journal_t) = run(StepMode::Ticked);
        let (probes_e, journal_e) = run(StepMode::EventDriven);
        assert_eq!(probes_t, probes_e);
        assert_eq!(journal_t, journal_e);
        assert!(probes_t >= 10, "expected ≥10 probe epochs, saw {probes_t}");
    }
}
