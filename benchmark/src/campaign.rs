//! Campaign passes: one replica at a time, through public calls only.
//!
//! It replays what `run_campaign_opts` does for a replica — `generate`,
//! `build_mesh`, `build_cluster`, `SimEnv::new`, `deploy`, then the
//! workload schedule through `admit_app` / `retire_app` around `step`,
//! with `skippable_ticks` / `skip_quiescent_ticks` in event-driven mode —
//! and folds the same streaming aggregates, so its summary bytes must
//! equal the library runner's for the same spec and seed. Untraced, it
//! times only set-up and each iteration of the tick loop; traced, it
//! wraps every layer call in a span and makes shadow calls on clones at
//! sampled steps.

use crate::trace::{Samples, StepClass, Trace};
use crate::workloads::Campaign;
use bass_appdag::ComponentId;
use bass_core::{ranking, rescheduler, ControllerConfig, StepMode};
use bass_emu::{EnvError, SimEnv, SimEnvConfig};
use bass_faults::Fault;
use bass_mesh::RoutingTable;
use bass_scenario::{
    generate, run_campaign_opts, AggregateSummary, AppKind, CampaignOptions, CampaignSummary,
    GeneratedScenario, QuantileSummary, ReplicaSummary, WorkloadEvent,
};
use bass_util::histogram::Histogram;
use bass_util::rng::SimRng;
use bass_util::time::SimDuration;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Executed non-fault steps between two shadow `Mesh::advance` calls.
const ADVANCE_STRIDE: u64 = 50;
/// Controller/fault steps between two shadow controller and probe calls.
const CONTROL_STRIDE: u64 = 4;
/// Components each sampled controller step runs target selection for.
const TARGETS_PER_STEP: usize = 2;
/// Fault steps whose due faults are replayed on a mesh clone (more run
/// when a due fault is of a kind not replayed yet).
const FAULT_REPLAYS: u64 = 4;

/// One pass over every replica of a campaign.
pub struct Pass {
    /// The summary, built exactly as the library runner builds it.
    pub summary: CampaignSummary,
    /// Set-up time of each replica (spec to deployed `SimEnv`).
    pub setup: Vec<Duration>,
    /// Host time of every iteration of every replica's tick loop, in
    /// order: admissions and retirements due, the step, the sample and,
    /// event-driven, the skipped window after it. The same spec and seed
    /// give the same iterations, so passes line up index by index.
    pub iterations: Vec<Duration>,
}

/// The reference: the library's own campaign runner with default options
/// (one worker thread, library-default engine and policy).
pub fn reference(c: &Campaign, seed: u64) -> Result<CampaignSummary, String> {
    let opts = CampaignOptions {
        step_mode: c.step_mode,
        ..CampaignOptions::default()
    };
    run_campaign_opts(&c.spec, seed, &opts)
        .map(|run| run.summary)
        .map_err(|e| format!("reference campaign failed: {e}"))
}

/// Set-up alone, as each replica does it: spec to a deployed `SimEnv`,
/// one duration per replica (lined up with [`Pass::setup`]).
pub fn setup_only(c: &Campaign, seed: u64) -> Result<Vec<Duration>, String> {
    replica_seeds(seed, c.spec.replicas as usize)
        .into_iter()
        .map(|replica_seed| {
            let started = Instant::now();
            let env = setup(c, replica_seed, &mut None)?;
            let took = started.elapsed();
            drop(env);
            Ok(took)
        })
        .collect()
}

/// Runs every replica of the campaign. `engine` is the allocation
/// engine label the summary carries (taken from the reference, so the
/// benchmark never names an engine itself).
pub fn drive(
    c: &Campaign,
    seed: u64,
    engine: &str,
    mut trace: Option<&mut Trace>,
) -> Result<Pass, String> {
    let spec = &c.spec;
    let seeds = replica_seeds(seed, spec.replicas as usize);
    let mut outcomes = Vec::with_capacity(seeds.len());
    let mut setups = Vec::with_capacity(seeds.len());
    let mut iterations = Vec::new();
    for (i, &replica_seed) in seeds.iter().enumerate() {
        let started = Instant::now();
        let (mut env, scenario) = setup(c, replica_seed, &mut trace)?;
        setups.push(started.elapsed());
        let outcome = run_replica(
            c,
            i as u32,
            replica_seed,
            &mut env,
            &scenario,
            &mut trace,
            &mut iterations,
        )
        .map_err(|e| format!("replica {i} failed: {e}"))?;
        outcomes.push(outcome);
    }
    Ok(Pass {
        summary: summarize(c, seed, engine, outcomes),
        setup: setups,
        iterations,
    })
}

/// The per-replica seeds `run_campaign_opts` forks off the campaign seed.
fn replica_seeds(seed: u64, replicas: usize) -> Vec<u64> {
    let mut root = SimRng::seed_from_u64(seed);
    (0..replicas)
        .map(|k| root.fork(100 + k as u64).next_u64())
        .collect()
}

/// Times `f` into the span `pick` selects when tracing.
fn span<T>(
    trace: &mut Option<&mut Trace>,
    pick: fn(&mut Trace) -> &mut Samples,
    f: impl FnOnce() -> T,
) -> T {
    match trace {
        None => f(),
        Some(t) => {
            let started = Instant::now();
            let out = f();
            pick(t).push(started.elapsed());
            out
        }
    }
}

fn setup(
    c: &Campaign,
    replica_seed: u64,
    trace: &mut Option<&mut Trace>,
) -> Result<(SimEnv, GeneratedScenario), String> {
    let spec = &c.spec;
    let scenario = span(trace, |t| &mut t.generate, || generate(spec, replica_seed));
    let horizon = SimDuration::from_millis(spec.horizon_ticks * spec.step_ms);
    let mesh = span(
        trace,
        |t| &mut t.build_mesh,
        || scenario.build_mesh(horizon),
    )
    .map_err(|e| format!("build_mesh failed: {e}"))?;
    let mut env = span(
        trace,
        |t| &mut t.env_new,
        || {
            let cfg = SimEnvConfig {
                step: SimDuration::from_millis(spec.step_ms),
                step_mode: c.step_mode,
                faults: scenario.faults.clone(),
                ..SimEnvConfig::default()
            };
            SimEnv::new(
                mesh,
                scenario.build_cluster(),
                bass_appdag::AppDag::new(scenario.name.clone()),
                cfg,
            )
        },
    );
    span(trace, |t| &mut t.deploy, || env.deploy(&[]))
        .map_err(|e| format!("deploy failed: {e}"))?;
    Ok((env, scenario))
}

/// A replica's streaming aggregates, folded in the library runner's
/// order so the floating-point sums come out bit-identical.
struct Fold {
    hist: Histogram,
    goodput_sum: f64,
    samples: u64,
    achieved_sum_mbps: BTreeMap<&'static str, f64>,
    offered_total: f64,
    achieved_total: f64,
}

/// One sample's reads: required and achieved bandwidth over all live
/// edges, plus each app kind's achieved share.
type Sample = (f64, f64, BTreeMap<&'static str, f64>);

impl Fold {
    fn new() -> Self {
        Fold {
            hist: goodput_histogram(),
            goodput_sum: 0.0,
            samples: 0,
            achieved_sum_mbps: BTreeMap::new(),
            offered_total: 0.0,
            achieved_total: 0.0,
        }
    }

    fn record(&mut self, (required, achieved, per_kind): &Sample) {
        let fraction = if *required > 0.0 {
            achieved / required
        } else {
            1.0
        };
        self.hist.record(fraction);
        self.goodput_sum += fraction;
        self.samples += 1;
        self.offered_total += required;
        self.achieved_total += achieved;
        for (&k, &v) in per_kind {
            *self.achieved_sum_mbps.entry(k).or_insert(0.0) += v;
        }
    }
}

fn goodput_histogram() -> Histogram {
    Histogram::new(0.0, 1.2, 120)
}

type Live = BTreeMap<u32, (String, Vec<ComponentId>, AppKind)>;

fn sample_live_edges(env: &SimEnv, live: &Live) -> Sample {
    let mut required = 0.0;
    let mut achieved = 0.0;
    let mut per_kind: BTreeMap<&'static str, f64> = BTreeMap::new();
    for (_, ids, kind) in live.values() {
        let label = kind.label();
        for &c in ids {
            for e in env.dag().out_edges(c) {
                let a = env.edge_achieved(e.from, e.to).as_mbps();
                required += e.bandwidth.as_mbps();
                achieved += a;
                *per_kind.entry(label).or_insert(0.0) += a;
            }
        }
    }
    (required, achieved, per_kind)
}

struct Outcome {
    summary: ReplicaSummary,
    fold: Fold,
}

fn run_replica(
    c: &Campaign,
    replica: u32,
    replica_seed: u64,
    env: &mut SimEnv,
    scenario: &GeneratedScenario,
    trace: &mut Option<&mut Trace>,
    iterations: &mut Vec<Duration>,
) -> Result<Outcome, EnvError> {
    let spec = &c.spec;
    let faults_total = env.fault_plan().remaining();
    let mut fold = Fold::new();
    let (mut admitted, mut rejected, mut retired) = (0u64, 0u64, 0u64);
    let mut live: Live = BTreeMap::new();
    let mut cursor = 0usize;
    let mut tick = 0u64;
    let mut shadow = ShadowState::default();
    let step = SimDuration::from_millis(spec.step_ms);
    if let Some(t) = trace {
        // Scores cached for another replica's mesh must never be served.
        t.cache.clear();
    }
    while tick < spec.horizon_ticks {
        let iteration = Instant::now();
        let now_ms = tick * spec.step_ms;
        while cursor < scenario.workload.len() && scenario.workload[cursor].at_ms() <= now_ms {
            match scenario.workload[cursor] {
                WorkloadEvent::Arrive { instance, kind, .. } => {
                    let dag = kind.dag(spec.workload.social_rps);
                    let offset = GeneratedScenario::instance_offset(instance);
                    match span(trace, |t| &mut t.admit, || env.admit_app(&dag, offset)) {
                        Ok(ids) => {
                            let label = GeneratedScenario::instance_label(kind, instance);
                            live.insert(instance, (label, ids, kind));
                            admitted += 1;
                        }
                        Err(EnvError::Schedule(_)) => {
                            rejected += 1;
                            if let Some(t) = trace {
                                t.admit_rejected += 1;
                            }
                        }
                        Err(e) => return Err(e),
                    }
                }
                WorkloadEvent::Depart { instance, .. } => {
                    if let Some((label, ids, _)) = live.remove(&instance) {
                        span(trace, |t| &mut t.retire, || env.retire_app(&label, &ids))?;
                        retired += 1;
                    }
                }
            }
            cursor += 1;
        }
        match trace {
            None => env.step()?,
            Some(t) => traced_step(env, t, &mut shadow, step)?,
        }
        if tick.is_multiple_of(spec.sample_every_ticks) {
            fold.record(&sample_live_edges(env, &live));
        }
        tick += 1;
        if c.step_mode != StepMode::EventDriven {
            iterations.push(iteration.elapsed());
            continue;
        }
        while tick < spec.horizon_ticks {
            let remaining = spec.horizon_ticks - tick;
            // A skipped tick must not swallow a workload event: the event
            // at `at_ms` first applies at tick ⌈at_ms/step_ms⌉.
            let workload_bound = if cursor < scenario.workload.len() {
                scenario.workload[cursor]
                    .at_ms()
                    .div_ceil(spec.step_ms)
                    .saturating_sub(tick)
            } else {
                remaining
            };
            let window = span(
                trace,
                |t| &mut t.skip_scan,
                || env.skippable_ticks(remaining.min(workload_bound)),
            );
            if window == 0 {
                break;
            }
            if let Some(t) = trace {
                t.skip_useful += 1;
                t.ticks_skipped += window;
            }
            let first_sample = tick.div_ceil(spec.sample_every_ticks) * spec.sample_every_ticks;
            if first_sample < tick + window {
                let sample = sample_live_edges(env, &live);
                let mut at = first_sample;
                while at < tick + window {
                    fold.record(&sample);
                    at += spec.sample_every_ticks;
                }
            }
            span(trace, |t| &mut t.skip, || env.skip_quiescent_ticks(window));
            tick += window;
        }
        iterations.push(iteration.elapsed());
    }

    let stats = env.stats();
    let samples = fold.samples;
    let summary = ReplicaSummary {
        replica,
        seed: replica_seed,
        ticks: spec.horizon_ticks,
        links: scenario.topology.link_count(),
        arrivals_capped: scenario.rejected_arrivals,
        apps_admitted: admitted,
        apps_rejected: rejected,
        apps_retired: retired,
        migrations: stats.migrations.len() as u64,
        unplaceable: stats.unplaceable,
        faults_injected: faults_total - env.fault_plan().remaining(),
        goodput: quantiles(&fold.hist, fold.goodput_sum, samples),
        mean_achieved_mbps: per_sample(fold.achieved_total, samples),
        mean_offered_mbps: per_sample(fold.offered_total, samples),
        bandwidth_share: shares(&fold.achieved_sum_mbps),
    };
    Ok(Outcome { summary, fold })
}

fn quantiles(hist: &Histogram, sum: f64, samples: u64) -> QuantileSummary {
    QuantileSummary {
        p50: hist.approx_quantile(0.50),
        p95: hist.approx_quantile(0.95),
        p99: hist.approx_quantile(0.99),
        mean: per_sample(sum, samples),
        samples,
    }
}

fn per_sample(total: f64, samples: u64) -> f64 {
    if samples == 0 {
        0.0
    } else {
        total / samples as f64
    }
}

fn shares(achieved: &BTreeMap<&'static str, f64>) -> BTreeMap<String, f64> {
    let total: f64 = achieved.values().sum();
    achieved
        .iter()
        .map(|(&k, &v)| (k.to_string(), if total > 0.0 { v / total } else { 0.0 }))
        .collect()
}

/// Merges replicas in replica order, as the library runner does.
fn summarize(c: &Campaign, seed: u64, engine: &str, outcomes: Vec<Outcome>) -> CampaignSummary {
    let mut hist = goodput_histogram();
    let (mut sum, mut samples) = (0.0, 0u64);
    let mut achieved: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut agg = AggregateSummary {
        ticks: 0,
        apps_admitted: 0,
        apps_rejected: 0,
        apps_retired: 0,
        migrations: 0,
        unplaceable: 0,
        faults_injected: 0,
        goodput: quantiles(&hist, 0.0, 0),
        mean_achieved_mbps: 0.0,
        bandwidth_share: BTreeMap::new(),
    };
    let mut achieved_mean_sum = 0.0;
    let mut replicas = Vec::with_capacity(outcomes.len());
    for Outcome { summary: r, fold } in outcomes {
        hist.merge(&fold.hist);
        sum += fold.goodput_sum;
        samples += r.goodput.samples;
        for (k, v) in &fold.achieved_sum_mbps {
            *achieved.entry(k).or_insert(0.0) += v;
        }
        agg.ticks += r.ticks;
        agg.apps_admitted += r.apps_admitted;
        agg.apps_rejected += r.apps_rejected;
        agg.apps_retired += r.apps_retired;
        agg.migrations += r.migrations;
        agg.unplaceable += r.unplaceable;
        agg.faults_injected += r.faults_injected;
        achieved_mean_sum += r.mean_achieved_mbps;
        replicas.push(r);
    }
    agg.goodput = quantiles(&hist, sum, samples);
    if !replicas.is_empty() {
        agg.mean_achieved_mbps = achieved_mean_sum / replicas.len() as f64;
    }
    agg.bandwidth_share = shares(&achieved);
    CampaignSummary {
        scenario: c.spec.name.clone(),
        seed,
        engine: engine.to_string(),
        horizon_ticks: c.spec.horizon_ticks,
        step_ms: c.spec.step_ms,
        replicas,
        aggregate: agg,
    }
}

/// Counters that pick which steps get shadow calls.
#[derive(Default)]
struct ShadowState {
    /// Executed non-fault steps so far.
    non_fault: u64,
    /// Controller or fault steps so far.
    control: u64,
    /// Fault steps so far.
    faults: u64,
}

/// One executed step with its class and shadow calls. Faults due now are
/// replayed on a mesh clone *before* the step (the live mesh is still in
/// the state the step will change); every other shadow call reads the
/// state the step left.
fn traced_step(
    env: &mut SimEnv,
    t: &mut Trace,
    s: &mut ShadowState,
    step: SimDuration,
) -> Result<(), EnvError> {
    let now = env.now();
    let fault_due = env.fault_plan().next_at().is_some_and(|at| at <= now);
    let rounds = env.stats().migration_rounds.len();
    let migrations = env.stats().migrations.len();
    if fault_due {
        s.faults += 1;
        let due = env.fault_plan().clone().due(now);
        let unseen = due.iter().any(|f| match f {
            Fault::NodeCrash { .. } | Fault::NodeRecover { .. } => t.set_node_up.count() == 0,
            Fault::LinkDown { .. } | Fault::LinkUp { .. } => t.set_link_up.count() == 0,
            _ => false,
        });
        if s.faults <= FAULT_REPLAYS || unseen {
            t.shadow(|t| replay_faults(env, t, due));
        }
    }
    let started = Instant::now();
    env.step()?;
    let took = started.elapsed();
    let class = if fault_due {
        StepClass::Fault
    } else if env.stats().migration_rounds.len() > rounds {
        StepClass::Controller
    } else {
        StepClass::Plain
    };
    t.record_step(class, took);
    t.displaced_component_ticks += env.displaced().len() as u64;

    if class != StepClass::Fault {
        if s.non_fault.is_multiple_of(ADVANCE_STRIDE) {
            t.shadow(|t| {
                let mut mesh = env.mesh().clone();
                let started = Instant::now();
                mesh.advance(step);
                t.advance.push(started.elapsed());
            });
        }
        s.non_fault += 1;
    }
    if class == StepClass::Controller {
        t.shadow(|t| {
            let cluster = env.cluster();
            t.cache.sync(env.mesh(), cluster, &cluster.placement());
        });
    }
    if class != StepClass::Plain {
        if s.control.is_multiple_of(CONTROL_STRIDE) {
            t.shadow(|t| control_shadows(env, t, class, migrations, s.control));
        }
        s.control += 1;
    }
    Ok(())
}

/// Replays each fault due now on a clone of the pre-step mesh, and times
/// a from-scratch route computation on the live topology.
fn replay_faults(env: &SimEnv, t: &mut Trace, due: Vec<Fault>) {
    let mut mesh = env.mesh().clone();
    for fault in due {
        let started = Instant::now();
        let (samples, result) = match fault {
            Fault::NodeCrash { node } => (&mut t.set_node_up, mesh.set_node_up(node, false)),
            Fault::NodeRecover { node } => (&mut t.set_node_up, mesh.set_node_up(node, true)),
            Fault::LinkDown { a, b } => (&mut t.set_link_up, mesh.set_link_up(a, b, false)),
            Fault::LinkUp { a, b } => (&mut t.set_link_up, mesh.set_link_up(a, b, true)),
            _ => continue,
        };
        samples.push(started.elapsed());
        result.expect("a due fault names a node or link of the mesh");
    }
    let started = Instant::now();
    let routes = RoutingTable::compute(env.mesh().topology());
    t.routing_compute.push(started.elapsed());
    drop(routes);
}

/// Shadow controller-layer and net-monitor calls after a controller or
/// fault step: node ranking, probes on a monitor clone, and (controller
/// steps only) target selection through the benchmark's score cache,
/// which the caller syncs at every controller step.
fn control_shadows(
    env: &SimEnv,
    t: &mut Trace,
    class: StepClass,
    migrations_before: usize,
    sampled: u64,
) {
    let (mesh, cluster, dag) = (env.mesh(), env.cluster(), env.dag());
    let started = Instant::now();
    let ranked = ranking::rank_nodes(cluster, mesh);
    t.rank_nodes.push(started.elapsed());
    drop(ranked);

    let mut netmon = env.netmon().clone();
    let started = Instant::now();
    netmon.headroom_probe(mesh);
    t.headroom_probe.push(started.elapsed());
    let started = Instant::now();
    netmon.full_probe(mesh);
    t.full_probe.push(started.elapsed());

    if class != StepClass::Controller {
        return;
    }
    // The components this round migrated, topped up round-robin from the
    // placed components.
    let mut targets: Vec<ComponentId> = env.stats().migrations[migrations_before..]
        .iter()
        .map(|m| m.component)
        .take(TARGETS_PER_STEP)
        .collect();
    let placed: Vec<ComponentId> = dag
        .component_ids()
        .filter(|&c| cluster.node_of(c).is_some())
        .collect();
    let start = sampled as usize * TARGETS_PER_STEP;
    for i in 0..placed.len() {
        if targets.len() == TARGETS_PER_STEP {
            break;
        }
        let c = placed[(start + i) % placed.len()];
        if !targets.contains(&c) {
            targets.push(c);
        }
    }
    let threshold = ControllerConfig::default().migration.goodput_threshold;
    for c in targets {
        let observed = worst_goodput_fraction(env, c);
        let started = Instant::now();
        let result = rescheduler::select_target_with(
            c,
            dag,
            cluster,
            mesh,
            observed,
            observed < threshold,
            true,
            Some(&mut t.cache),
            false,
        );
        t.select_target.push(started.elapsed());
        if result.is_err() {
            t.select_infeasible += 1;
        }
    }
}

/// The worst achieved/required fraction over a component's edges (1.0
/// for a component without remote edges).
fn worst_goodput_fraction(env: &SimEnv, c: ComponentId) -> f64 {
    let dag = env.dag();
    dag.out_edges(c)
        .chain(dag.in_edges(c))
        .filter(|e| e.bandwidth.as_bps() > 0.0)
        .map(|e| env.edge_achieved(e.from, e.to).as_bps() / e.bandwidth.as_bps())
        .fold(1.0, f64::min)
}
