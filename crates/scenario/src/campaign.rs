//! The streaming long-horizon campaign runner.
//!
//! A *campaign* executes every replica of a [`ScenarioSpec`] — each
//! replica re-generates the scenario from its own seed forked off the
//! campaign seed — and folds per-tick results into streaming aggregates
//! (fixed-bucket histograms and running sums), so a 100k-tick horizon
//! costs the same memory as a 100-tick one. Replicas shard across
//! worker threads exactly like the experiments runner's `--jobs`: a
//! shared claim counter plus order-preserving result slots, so the
//! summary is byte-identical whatever the thread count.
//!
//! Each replica's tick runs the seven profiled phases described in
//! `docs/ARCHITECTURE.md` — `tick.faults`, `tick.scenario`,
//! `tick.demand`, `tick.goodput`, `tick.controller`, `tick.migrate`,
//! `tick.finalize` — and the campaign is engine-agnostic: either
//! [`AllocEngine`] (delta or dense) produces the same summary bytes,
//! which CI enforces by running the whole battery once per engine. Determinism follows the repo-wide rules: per-replica
//! seeds are forked from the campaign seed (never shared), worker
//! threads only claim work and fill their own slot, and aggregation
//! happens in replica order after the barrier.

use crate::generate::{generate, AppKind, GeneratedScenario, WorkloadEvent};
use crate::spec::{ScenarioSpec, SpecError};
use bass_appdag::{AppDag, ComponentId};
use bass_core::{PolicyKind, StepMode};
use bass_emu::{EnvError, SimEnv, SimEnvConfig};
use bass_mesh::{AllocEngine, MeshError};
use bass_obs::{Progress, ProgressLevel, SpanProfiler};
use bass_util::histogram::Histogram;
use bass_util::rng::SimRng;
use bass_util::time::SimDuration;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Goodput-fraction histogram layout: `[0, 1.2)` in 120 buckets (1%
/// resolution; fractions above 1.2 land in the overflow counter). Fixed
/// by code so merged replicas always share a layout.
fn goodput_histogram() -> Histogram {
    Histogram::new(0.0, 1.2, 120)
}

/// A campaign failed outright (distinct from individual admission
/// rejections, which are counted, not fatal).
#[derive(Debug)]
pub enum CampaignError {
    /// The spec failed validation.
    Spec(SpecError),
    /// Building the replica mesh failed.
    Mesh(MeshError),
    /// Deploying or stepping a replica environment failed.
    Env(EnvError),
}

impl fmt::Display for CampaignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CampaignError::Spec(e) => write!(f, "{e}"),
            CampaignError::Mesh(e) => write!(f, "campaign mesh construction failed: {e}"),
            CampaignError::Env(e) => write!(f, "campaign replica failed: {e}"),
        }
    }
}

impl Error for CampaignError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CampaignError::Spec(e) => Some(e),
            CampaignError::Mesh(e) => Some(e),
            CampaignError::Env(e) => Some(e),
        }
    }
}

impl From<SpecError> for CampaignError {
    fn from(e: SpecError) -> Self {
        CampaignError::Spec(e)
    }
}

impl From<MeshError> for CampaignError {
    fn from(e: MeshError) -> Self {
        CampaignError::Mesh(e)
    }
}

impl From<EnvError> for CampaignError {
    fn from(e: EnvError) -> Self {
        CampaignError::Env(e)
    }
}

/// Streaming distribution summary: approximate quantiles plus the exact
/// mean, computed without retaining samples.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QuantileSummary {
    /// Median.
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Exact mean of all samples.
    pub mean: f64,
    /// Sample count.
    pub samples: u64,
}

impl QuantileSummary {
    fn from_parts(hist: &Histogram, sum: f64, samples: u64) -> Self {
        QuantileSummary {
            p50: hist.approx_quantile(0.50),
            p95: hist.approx_quantile(0.95),
            p99: hist.approx_quantile(0.99),
            mean: if samples == 0 { 0.0 } else { sum / samples as f64 },
            samples,
        }
    }
}

/// One replica's folded results.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReplicaSummary {
    /// Zero-based replica index.
    pub replica: u32,
    /// The seed this replica's scenario was generated from.
    pub seed: u64,
    /// Ticks executed.
    pub ticks: u64,
    /// Mesh links in the replica's topology.
    pub links: usize,
    /// Arrivals dropped at generation time by the concurrency cap.
    pub arrivals_capped: u64,
    /// Instances admitted into the running deployment.
    pub apps_admitted: u64,
    /// Admissions rejected at run time (no feasible placement).
    pub apps_rejected: u64,
    /// Instances retired on departure.
    pub apps_retired: u64,
    /// Migrations the controller applied.
    pub migrations: u64,
    /// Migrations wanted but unplaceable.
    pub unplaceable: u64,
    /// Faults injected from the replica's storm schedule.
    pub faults_injected: usize,
    /// Distribution of the per-sample aggregate goodput fraction
    /// (achieved / required over all live edges).
    pub goodput: QuantileSummary,
    /// Mean aggregate achieved bandwidth over the run, Mbps.
    pub mean_achieved_mbps: f64,
    /// Mean aggregate offered (required) bandwidth over the run, Mbps.
    pub mean_offered_mbps: f64,
    /// Each app kind's share of total achieved bandwidth, in `[0, 1]`.
    pub bandwidth_share: BTreeMap<String, f64>,
}

/// Campaign-level aggregates: counters summed and distributions merged
/// across replicas.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AggregateSummary {
    /// Total ticks across replicas.
    pub ticks: u64,
    /// Total admitted instances.
    pub apps_admitted: u64,
    /// Total run-time admission rejections.
    pub apps_rejected: u64,
    /// Total retired instances.
    pub apps_retired: u64,
    /// Total applied migrations.
    pub migrations: u64,
    /// Total unplaceable migrations.
    pub unplaceable: u64,
    /// Total injected faults.
    pub faults_injected: usize,
    /// Merged goodput-fraction distribution.
    pub goodput: QuantileSummary,
    /// Mean of the replicas' mean achieved bandwidths, Mbps.
    pub mean_achieved_mbps: f64,
    /// Each app kind's share of total achieved bandwidth.
    pub bandwidth_share: BTreeMap<String, f64>,
}

/// The machine-readable campaign result (`campaign.json`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignSummary {
    /// Scenario name from the spec.
    pub scenario: String,
    /// Campaign seed (replica seeds are forked from it).
    pub seed: u64,
    /// Allocation engine label (`"delta"` or `"dense"`).
    pub engine: String,
    /// Horizon per replica, ticks.
    pub horizon_ticks: u64,
    /// Tick length, milliseconds.
    pub step_ms: u64,
    /// Per-replica results, ascending by replica index.
    pub replicas: Vec<ReplicaSummary>,
    /// Cross-replica aggregates.
    pub aggregate: AggregateSummary,
}

impl CampaignSummary {
    /// Pretty JSON rendering (what the CLI and bench write to disk).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("summary serializes")
    }

    /// [`to_json`](Self::to_json) with a `profile` section appended as
    /// the final top-level key.
    ///
    /// The profile is spliced in textually rather than carried as a
    /// summary field: wall-clock timings must never enter the
    /// deterministic summary struct, and a run without profiling must
    /// keep producing byte-identical JSON to every previous release
    /// (the golden snapshots).
    pub fn to_json_with_profile(&self, profile: &bass_obs::ProfileSummary) -> String {
        let base = self.to_json();
        let profile_json =
            serde_json::to_string_pretty(profile).expect("profile serializes");
        // Re-indent the profile one level so it nests as a top-level key.
        let indented = profile_json
            .lines()
            .enumerate()
            .map(|(i, line)| if i == 0 { line.to_string() } else { format!("  {line}") })
            .collect::<Vec<_>>()
            .join("\n");
        let body = base
            .trim_end()
            .strip_suffix('}')
            .expect("pretty summary ends with a closing brace")
            .trim_end();
        format!("{body},\n  \"profile\": {indented}\n}}")
    }
}

/// Internal per-replica fold state that cannot go in the serializable
/// summary (the histogram itself, needed again for cross-replica
/// merging).
struct ReplicaOutcome {
    summary: ReplicaSummary,
    goodput_hist: Histogram,
    goodput_sum: f64,
    achieved_sum_mbps: BTreeMap<&'static str, f64>,
    profiler: Option<SpanProfiler>,
}

/// How to run a campaign beyond the deterministic `(spec, seed)` pair:
/// worker threads, allocation engine, span profiling, and live progress
/// reporting. None of these affect the summary bytes.
#[derive(Debug, Clone, Copy)]
pub struct CampaignOptions {
    /// Worker threads sharding replicas (≥1; clamped up from 0).
    pub jobs: usize,
    /// Allocation engine for every replica mesh.
    pub engine: AllocEngine,
    /// How each replica advances time: [`StepMode::Ticked`] executes
    /// every tick; [`StepMode::EventDriven`] skips provably quiescent
    /// windows, replaying one cached sample tuple per window at the
    /// sampled tick indices (identical floats, accumulated in identical
    /// order — so the summary bytes never move).
    pub step_mode: StepMode,
    /// Enable span profiling in every replica; per-span statistics are
    /// merged in replica order into [`CampaignRun::profiler`].
    pub profile: bool,
    /// Live progress reporting to stderr (replicas done, ticks/s, ETA).
    pub progress: ProgressLevel,
    /// Migration-decision policy every replica's controller runs. This
    /// one DOES change the summary bytes — it is the arena's
    /// independent variable; the default [`PolicyKind::Bass`] keeps
    /// summaries byte-identical to the pre-arena runner.
    pub policy: PolicyKind,
}

impl Default for CampaignOptions {
    fn default() -> Self {
        CampaignOptions {
            jobs: 1,
            engine: AllocEngine::default(),
            step_mode: StepMode::Ticked,
            profile: false,
            progress: ProgressLevel::Off,
            policy: PolicyKind::Bass,
        }
    }
}

/// A campaign's full result: the deterministic summary plus, when
/// profiling was requested, the merged cross-replica span profiler.
#[derive(Debug)]
pub struct CampaignRun {
    /// The deterministic summary ([`CampaignSummary::to_json`] bytes are
    /// independent of jobs, profiling, and progress settings).
    pub summary: CampaignSummary,
    /// Merged span statistics across all replicas, present iff
    /// [`CampaignOptions::profile`] was set.
    pub profiler: Option<SpanProfiler>,
}

/// Runs a full campaign: `spec.replicas` independent replicas sharded
/// over `jobs` worker threads, summary merged in replica order. The
/// output is byte-identical for any `jobs ≥ 1` and reproducible from
/// `(spec, seed)`.
///
/// # Errors
///
/// Fails on an invalid spec or on a replica that cannot be built or
/// stepped; admission rejections are counted, not fatal.
pub fn run_campaign(
    spec: &ScenarioSpec,
    seed: u64,
    jobs: usize,
    engine: AllocEngine,
) -> Result<CampaignSummary, CampaignError> {
    let opts = CampaignOptions { jobs, engine, ..CampaignOptions::default() };
    Ok(run_campaign_opts(spec, seed, &opts)?.summary)
}

/// [`run_campaign`] with the full option set: span profiling (merged
/// across replicas) and live progress reporting. Profiling and progress
/// never change the summary — the wall clock is read only into the
/// profiler, and progress writes only to stderr.
///
/// # Errors
///
/// Same failure modes as [`run_campaign`].
pub fn run_campaign_opts(
    spec: &ScenarioSpec,
    seed: u64,
    opts: &CampaignOptions,
) -> Result<CampaignRun, CampaignError> {
    spec.validate()?;
    let jobs = opts.jobs.max(1);
    let engine = opts.engine;
    let replica_count = spec.replicas as usize;

    // Fork one seed per replica up front: replica k's scenario never
    // depends on how many replicas run or in what order.
    let mut root = SimRng::seed_from_u64(seed);
    let replica_seeds: Vec<u64> =
        (0..replica_count).map(|k| root.fork(100 + k as u64).next_u64()).collect();

    let progress = Progress::new(opts.progress, "replica", replica_count as u64);
    let next = AtomicUsize::new(0);
    let results: Mutex<Vec<Option<Result<ReplicaOutcome, CampaignError>>>> =
        Mutex::new((0..replica_count).map(|_| None).collect());
    std::thread::scope(|s| {
        for _ in 0..jobs.min(replica_count) {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= replica_count {
                    break;
                }
                let outcome = run_replica(spec, i as u32, replica_seeds[i], opts);
                let ticks = outcome.as_ref().map(|o| o.summary.ticks).unwrap_or(0);
                results.lock().expect("results lock")[i] = Some(outcome);
                progress.unit_done(i as u64, ticks);
            });
        }
    });

    let outcomes = results.into_inner().expect("results lock");
    let mut campaign_profiler = opts.profile.then(SpanProfiler::new);
    let mut replicas = Vec::with_capacity(replica_count);
    let mut agg_hist = goodput_histogram();
    let mut agg_sum = 0.0;
    let mut agg_samples = 0u64;
    let mut agg_achieved: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut ticks = 0u64;
    let mut admitted = 0u64;
    let mut rejected = 0u64;
    let mut retired = 0u64;
    let mut migrations = 0u64;
    let mut unplaceable = 0u64;
    let mut faults = 0usize;
    let mut achieved_mean_sum = 0.0;
    for slot in outcomes {
        let outcome = slot.expect("every replica index was claimed")?;
        if let (Some(agg), Some(rep)) = (campaign_profiler.as_mut(), outcome.profiler.as_ref())
        {
            agg.merge(rep);
        }
        agg_hist.merge(&outcome.goodput_hist);
        agg_sum += outcome.goodput_sum;
        agg_samples += outcome.summary.goodput.samples;
        for (k, v) in &outcome.achieved_sum_mbps {
            *agg_achieved.entry(k).or_insert(0.0) += v;
        }
        ticks += outcome.summary.ticks;
        admitted += outcome.summary.apps_admitted;
        rejected += outcome.summary.apps_rejected;
        retired += outcome.summary.apps_retired;
        migrations += outcome.summary.migrations;
        unplaceable += outcome.summary.unplaceable;
        faults += outcome.summary.faults_injected;
        achieved_mean_sum += outcome.summary.mean_achieved_mbps;
        replicas.push(outcome.summary);
    }
    let aggregate = AggregateSummary {
        ticks,
        apps_admitted: admitted,
        apps_rejected: rejected,
        apps_retired: retired,
        migrations,
        unplaceable,
        faults_injected: faults,
        goodput: QuantileSummary::from_parts(&agg_hist, agg_sum, agg_samples),
        mean_achieved_mbps: if replicas.is_empty() {
            0.0
        } else {
            achieved_mean_sum / replicas.len() as f64
        },
        bandwidth_share: shares(&agg_achieved),
    };
    Ok(CampaignRun {
        summary: CampaignSummary {
            scenario: spec.name.clone(),
            seed,
            engine: engine_label(engine).to_string(),
            horizon_ticks: spec.horizon_ticks,
            step_ms: spec.step_ms,
            replicas,
            aggregate,
        },
        profiler: campaign_profiler,
    })
}

pub(crate) fn engine_label(engine: AllocEngine) -> &'static str {
    match engine {
        AllocEngine::Dense => "dense",
        AllocEngine::Delta => "delta",
    }
}

fn shares(achieved: &BTreeMap<&'static str, f64>) -> BTreeMap<String, f64> {
    let total: f64 = achieved.values().sum();
    achieved
        .iter()
        .map(|(&k, &v)| (k.to_string(), if total > 0.0 { v / total } else { 0.0 }))
        .collect()
}

/// The streaming per-sample fold state of one replica. Accumulation
/// order is fixed — one [`record`](SampleFold::record) call per sampled
/// tick, in tick order — so ticked and event-driven runs that feed the
/// same values produce bitwise-identical sums.
struct SampleFold {
    hist: Histogram,
    goodput_sum: f64,
    samples: u64,
    achieved_sum_mbps: BTreeMap<&'static str, f64>,
    offered_total: f64,
    achieved_total: f64,
}

impl SampleFold {
    fn new() -> Self {
        SampleFold {
            hist: goodput_histogram(),
            goodput_sum: 0.0,
            samples: 0,
            achieved_sum_mbps: BTreeMap::new(),
            offered_total: 0.0,
            achieved_total: 0.0,
        }
    }

    fn record(&mut self, required: f64, achieved: f64, per_kind: &BTreeMap<&'static str, f64>) {
        let fraction = if required > 0.0 { achieved / required } else { 1.0 };
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

/// One sample's raw reads: aggregate required and achieved bandwidth
/// over all live edges, plus each app kind's achieved share. Every
/// input is constant across a quiescent window (flow goodputs are at a
/// fixed point, restart expiries bound the window on both clocks), so
/// the event-driven path computes this once per window and replays it.
fn sample_live_edges(
    env: &SimEnv,
    live: &BTreeMap<u32, (String, Vec<ComponentId>, AppKind)>,
) -> (f64, f64, BTreeMap<&'static str, f64>) {
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

/// Executes one replica tick by tick, streaming per-sample aggregates
/// into the fold state. Memory is O(nodes + links + live components):
/// no per-tick history is kept anywhere. Under
/// [`StepMode::EventDriven`] each executed tick is followed by the
/// largest provably quiescent window (bounded additionally by the next
/// workload arrival/departure and the horizon); skipped ticks replay
/// the window's cached sample tuple at the same tick indices ticked
/// mode samples, keeping the summary byte-identical.
fn run_replica(
    spec: &ScenarioSpec,
    replica: u32,
    replica_seed: u64,
    opts: &CampaignOptions,
) -> Result<ReplicaOutcome, CampaignError> {
    let setup_started = std::time::Instant::now();
    let scenario = generate(spec, replica_seed);
    let horizon = SimDuration::from_millis(spec.horizon_ticks * spec.step_ms);
    let mesh = scenario.build_mesh(horizon)?;
    let cluster = scenario.build_cluster();
    let links = scenario.topology.link_count();
    let cfg = SimEnvConfig {
        step: SimDuration::from_millis(spec.step_ms),
        alloc_engine: opts.engine,
        step_mode: opts.step_mode,
        migration_policy: opts.policy,
        faults: scenario.faults.clone(),
        ..SimEnvConfig::default()
    };
    let mut env = SimEnv::new(mesh, cluster, AppDag::new(scenario.name.clone()), cfg);
    if opts.profile {
        env.enable_span_profiling();
        // Setup (generation + mesh construction) is a one-time cost;
        // benches subtract it to report pure stepping throughput.
        env.record_span("campaign.setup", setup_started.elapsed());
    }
    env.deploy(&[])?;

    let faults_total = env.fault_plan().remaining();
    let mut fold = SampleFold::new();
    let mut admitted = 0u64;
    let mut rejected = 0u64;
    let mut retired = 0u64;

    // Live instances: arrival index → (label, admitted component ids).
    let mut live: BTreeMap<u32, (String, Vec<ComponentId>, AppKind)> = BTreeMap::new();
    let mut cursor = 0usize;
    let mut tick = 0u64;
    while tick < spec.horizon_ticks {
        let now_ms = tick * spec.step_ms;
        while cursor < scenario.workload.len() && scenario.workload[cursor].at_ms() <= now_ms {
            match scenario.workload[cursor] {
                WorkloadEvent::Arrive { instance, kind, .. } => {
                    let dag = kind.dag(spec.workload.social_rps);
                    let offset = GeneratedScenario::instance_offset(instance);
                    match env.admit_app(&dag, offset) {
                        Ok(ids) => {
                            let label = GeneratedScenario::instance_label(kind, instance);
                            live.insert(instance, (label, ids, kind));
                            admitted += 1;
                        }
                        Err(EnvError::Schedule(_)) => rejected += 1,
                        Err(e) => return Err(e.into()),
                    }
                }
                WorkloadEvent::Depart { instance, .. } => {
                    if let Some((label, ids, _)) = live.remove(&instance) {
                        env.retire_app(&label, &ids)?;
                        retired += 1;
                    }
                }
            }
            cursor += 1;
        }
        env.step()?;
        if tick.is_multiple_of(spec.sample_every_ticks) {
            let (required, achieved, per_kind) = sample_live_edges(&env, &live);
            fold.record(required, achieved, &per_kind);
        }
        tick += 1;
        if opts.step_mode != StepMode::EventDriven {
            continue;
        }
        while tick < spec.horizon_ticks {
            let remaining = spec.horizon_ticks - tick;
            // A skipped tick must not swallow a workload event: the
            // event at `at_ms` first applies at tick ⌈at_ms/step_ms⌉.
            let workload_bound = if cursor < scenario.workload.len() {
                scenario.workload[cursor]
                    .at_ms()
                    .div_ceil(spec.step_ms)
                    .saturating_sub(tick)
            } else {
                remaining
            };
            let scan_started = std::time::Instant::now();
            let window = env.skippable_ticks(remaining.min(workload_bound));
            env.record_span("campaign.skip_scan", scan_started.elapsed());
            if window == 0 {
                break;
            }
            // One cached tuple serves every sample tick in the window
            // (every sample input is constant across it); replaying it
            // per sampled tick repeats the identical float additions
            // ticked mode performs. Windows without a sample tick —
            // the common case at coarse sample cadences — skip the
            // edge walk entirely.
            let first_sample = tick.div_ceil(spec.sample_every_ticks) * spec.sample_every_ticks;
            if first_sample < tick + window {
                let (required, achieved, per_kind) = sample_live_edges(&env, &live);
                let mut t = first_sample;
                while t < tick + window {
                    fold.record(required, achieved, &per_kind);
                    t += spec.sample_every_ticks;
                }
            }
            env.skip_quiescent_ticks(window);
            tick += window;
        }
    }

    let stats = env.stats();
    let samples = fold.samples;
    let summary = ReplicaSummary {
        replica,
        seed: replica_seed,
        ticks: spec.horizon_ticks,
        links,
        arrivals_capped: scenario.rejected_arrivals,
        apps_admitted: admitted,
        apps_rejected: rejected,
        apps_retired: retired,
        migrations: stats.migrations.len() as u64,
        unplaceable: stats.unplaceable,
        faults_injected: faults_total - env.fault_plan().remaining(),
        goodput: QuantileSummary::from_parts(&fold.hist, fold.goodput_sum, samples),
        mean_achieved_mbps: if samples == 0 {
            0.0
        } else {
            fold.achieved_total / samples as f64
        },
        mean_offered_mbps: if samples == 0 {
            0.0
        } else {
            fold.offered_total / samples as f64
        },
        bandwidth_share: shares(&fold.achieved_sum_mbps),
    };
    Ok(ReplicaOutcome {
        summary,
        goodput_hist: fold.hist,
        goodput_sum: fold.goodput_sum,
        achieved_sum_mbps: fold.achieved_sum_mbps,
        profiler: env.take_span_profiler(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec() -> ScenarioSpec {
        let mut spec = ScenarioSpec::small_reference();
        spec.horizon_ticks = 60;
        spec.replicas = 2;
        spec
    }

    #[test]
    fn campaign_runs_and_summarizes() {
        let spec = tiny_spec();
        let summary = run_campaign(&spec, 1, 1, AllocEngine::Delta).unwrap();
        assert_eq!(summary.replicas.len(), 2);
        assert_eq!(summary.aggregate.ticks, 120);
        assert!(summary.aggregate.apps_admitted >= 2, "initial apps admit");
        assert!(summary.aggregate.mean_achieved_mbps > 0.0);
        let total_share: f64 = summary.aggregate.bandwidth_share.values().sum();
        assert!((total_share - 1.0).abs() < 1e-9 || total_share == 0.0);
        // Goodput samples respect the sampling cadence.
        for r in &summary.replicas {
            assert_eq!(r.goodput.samples, 60 / spec.sample_every_ticks);
        }
    }

    #[test]
    fn jobs_do_not_change_the_summary() {
        let spec = tiny_spec();
        let a = run_campaign(&spec, 9, 1, AllocEngine::Delta).unwrap();
        let b = run_campaign(&spec, 9, 4, AllocEngine::Delta).unwrap();
        assert_eq!(a.to_json(), b.to_json());
    }

    #[test]
    fn profiling_does_not_change_summary_bytes() {
        let spec = tiny_spec();
        let plain = run_campaign(&spec, 9, 2, AllocEngine::Delta).unwrap();
        let opts = CampaignOptions {
            jobs: 3,
            engine: AllocEngine::Delta,
            profile: true,
            ..CampaignOptions::default()
        };
        let profiled = run_campaign_opts(&spec, 9, &opts).unwrap();
        assert_eq!(plain.to_json(), profiled.summary.to_json());

        // Every replica contributed: tick.finalize fires once per tick.
        let profiler = profiled.profiler.expect("profiling was on");
        let ticks = profiler.stats("tick.finalize").expect("tick spans present");
        assert_eq!(ticks.count, profiled.summary.aggregate.ticks);
        assert!(profiler.stats("mesh.water_fill").is_some());
        assert!(profiler.stats("env.deploy").unwrap().count >= 2, "one deploy per replica");
    }

    #[test]
    fn profile_section_splices_into_summary_json() {
        let spec = tiny_spec();
        let opts = CampaignOptions { profile: true, ..CampaignOptions::default() };
        let run = run_campaign_opts(&spec, 3, &opts).unwrap();
        let profile = run.profiler.as_ref().unwrap().summary();
        let with_profile = run.summary.to_json_with_profile(&profile);
        // Still valid JSON, still carrying the original summary fields,
        // with `profile` as a top-level key.
        let value: serde_json::Value = serde_json::from_str(&with_profile).unwrap();
        assert_eq!(value["scenario"].as_str(), Some(spec.name.as_str()));
        assert!(value["profile"]["spans"]["tick.finalize"]["count"].as_u64().unwrap() > 0);
        // The splice only appends: the base summary is a strict prefix
        // up to its closing brace.
        let base = run.summary.to_json();
        assert!(with_profile.starts_with(base.trim_end().strip_suffix('}').unwrap().trim_end()));
    }

    #[test]
    fn step_mode_never_changes_summary_bytes_for_any_engine() {
        let spec = tiny_spec();
        for engine in [AllocEngine::Dense, AllocEngine::Delta] {
            let ticked = run_campaign_opts(
                &spec,
                7,
                &CampaignOptions { engine, ..CampaignOptions::default() },
            )
            .unwrap();
            let event = run_campaign_opts(
                &spec,
                7,
                &CampaignOptions {
                    engine,
                    step_mode: StepMode::EventDriven,
                    ..CampaignOptions::default()
                },
            )
            .unwrap();
            assert_eq!(
                ticked.summary.to_json(),
                event.summary.to_json(),
                "engine {engine:?}"
            );
        }
    }

    #[test]
    fn event_driven_replicas_actually_skip_ticks() {
        // OU change-points arrive every 5 s on a 1 s step: at least the
        // 4-tick stretches between them must be skipped. Profiler span
        // counts track executed work, so `tick.finalize` falls below the
        // tick total exactly when windows were skipped.
        let spec = tiny_spec();
        let run = |step_mode| {
            run_campaign_opts(
                &spec,
                11,
                &CampaignOptions { step_mode, profile: true, ..CampaignOptions::default() },
            )
            .unwrap()
        };
        let ticked = run(StepMode::Ticked);
        let event = run(StepMode::EventDriven);
        assert_eq!(ticked.summary.to_json(), event.summary.to_json());
        let total = ticked.summary.aggregate.ticks;
        let full = |r: &CampaignRun| {
            r.profiler.as_ref().unwrap().stats("tick.finalize").map_or(0, |s| s.count)
        };
        assert_eq!(full(&ticked), total);
        assert!(
            full(&event) < total,
            "event-driven executed {} of {total} ticks",
            full(&event)
        );
    }

    #[test]
    fn same_seed_reproduces_different_seed_differs() {
        let spec = tiny_spec();
        let a = run_campaign(&spec, 5, 2, AllocEngine::Delta).unwrap();
        let b = run_campaign(&spec, 5, 2, AllocEngine::Delta).unwrap();
        assert_eq!(a.to_json(), b.to_json());
        let c = run_campaign(&spec, 6, 2, AllocEngine::Delta).unwrap();
        assert_ne!(a.to_json(), c.to_json());
    }
}
