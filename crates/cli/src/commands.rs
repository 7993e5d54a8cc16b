//! The `bassctl` commands, as library functions.

use crate::testbed::{TestbedError, TestbedSpec};
use bass_appdag::{AppDag, Manifest};
use bass_core::placement::crossing_bandwidth;
use bass_core::{BassScheduler, PlacementPolicy};
use bass_emu::{EnvError, Scenario, SimEnv, SimEnvConfig};
use bass_mesh::NodeId;
use bass_util::time::{SimDuration, SimTime};
use bass_util::units::Bandwidth;
use serde::Serialize;
use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

/// Errors from commands.
#[derive(Debug)]
pub enum CommandError {
    /// The manifest could not be converted to a DAG.
    Manifest(bass_appdag::manifest::ManifestError),
    /// The testbed description was invalid.
    Testbed(TestbedError),
    /// Scheduling/ordering failed.
    Schedule(bass_core::scheduler::ScheduleError),
    /// Simulation failed.
    Env(EnvError),
    /// The journal sink could not be opened.
    Journal(std::io::Error),
    /// The `--faults` plan could not be read or parsed.
    Faults(String),
    /// A scenario campaign failed (invalid spec or a dead replica).
    Campaign(bass_scenario::CampaignError),
    /// A metrics exposition file could not be read, written, or parsed.
    Metrics(String),
}

impl fmt::Display for CommandError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CommandError::Manifest(e) => write!(f, "manifest error: {e}"),
            CommandError::Testbed(e) => write!(f, "testbed error: {e}"),
            CommandError::Schedule(e) => write!(f, "scheduling error: {e}"),
            CommandError::Env(e) => write!(f, "simulation error: {e}"),
            CommandError::Journal(e) => write!(f, "journal error: {e}"),
            CommandError::Faults(e) => write!(f, "fault plan error: {e}"),
            CommandError::Campaign(e) => write!(f, "campaign error: {e}"),
            CommandError::Metrics(e) => write!(f, "metrics error: {e}"),
        }
    }
}

impl Error for CommandError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CommandError::Manifest(e) => Some(e),
            CommandError::Testbed(e) => Some(e),
            CommandError::Schedule(e) => Some(e),
            CommandError::Env(e) => Some(e),
            CommandError::Journal(e) => Some(e),
            CommandError::Faults(_) => None,
            CommandError::Campaign(e) => Some(e),
            CommandError::Metrics(_) => None,
        }
    }
}

impl From<bass_appdag::manifest::ManifestError> for CommandError {
    fn from(e: bass_appdag::manifest::ManifestError) -> Self {
        CommandError::Manifest(e)
    }
}

impl From<TestbedError> for CommandError {
    fn from(e: TestbedError) -> Self {
        CommandError::Testbed(e)
    }
}

impl From<bass_core::scheduler::ScheduleError> for CommandError {
    fn from(e: bass_core::scheduler::ScheduleError) -> Self {
        CommandError::Schedule(e)
    }
}

impl From<EnvError> for CommandError {
    fn from(e: EnvError) -> Self {
        CommandError::Env(e)
    }
}

/// The result of `bassctl place`.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct PlaceOutcome {
    /// Component name → node id.
    pub placement: BTreeMap<String, u32>,
    /// Total bandwidth of edges that cross nodes, in Mbps.
    pub crossing_mbps: f64,
    /// Total bandwidth of all edges, in Mbps.
    pub total_mbps: f64,
}

/// `bassctl order`: the component co-location ordering a policy would use.
///
/// # Errors
///
/// Fails on invalid manifests or empty/cyclic graphs.
pub fn order(manifest: &Manifest, policy: PlacementPolicy) -> Result<Vec<Vec<String>>, CommandError> {
    let dag = manifest.to_dag()?;
    let ordering = BassScheduler::new(policy).ordering(&dag)?;
    Ok(ordering
        .groups()
        .iter()
        .map(|group| {
            group
                .iter()
                .map(|c| dag.component(*c).expect("ordering is a permutation").name.clone())
                .collect()
        })
        .collect())
}

/// `bassctl place`: compute the initial placement of a manifest on a
/// testbed under a policy.
///
/// # Errors
///
/// Fails on invalid inputs or when some component cannot be placed.
pub fn place(
    manifest: &Manifest,
    testbed: &TestbedSpec,
    policy: PlacementPolicy,
    seed: u64,
) -> Result<PlaceOutcome, CommandError> {
    let dag = manifest.to_dag()?;
    let (mesh, mut cluster) = testbed.build(seed, SimDuration::from_secs(60))?;
    let placement = BassScheduler::new(policy).schedule(&dag, &mut cluster, &mesh)?;
    Ok(outcome_from(&dag, &placement))
}

fn outcome_from(dag: &AppDag, placement: &bass_cluster::Placement) -> PlaceOutcome {
    PlaceOutcome {
        placement: placement
            .iter()
            .map(|(c, n)| (dag.component(*c).expect("placed component exists").name.clone(), n.0))
            .collect(),
        crossing_mbps: crossing_bandwidth(dag, placement).as_mbps(),
        total_mbps: dag.total_bandwidth().as_mbps(),
    }
}

/// Options for `bassctl simulate`.
#[derive(Debug, Clone)]
pub struct SimulateOptions {
    /// Placement policy.
    pub policy: PlacementPolicy,
    /// Run length in seconds.
    pub duration_s: u64,
    /// Dynamic migration on/off.
    pub migrations: bool,
    /// Random seed (traces and workload noise).
    pub seed: u64,
    /// When set, stream the run's structured event journal (see
    /// `docs/OBSERVABILITY.md`) to this path as JSON lines.
    pub journal: Option<std::path::PathBuf>,
    /// When set, load a [`bass_faults::FaultPlan`] from this JSON file
    /// and inject it into the run (see `docs/FAULTS.md`).
    pub faults: Option<std::path::PathBuf>,
    /// How the simulation loop advances time (`--step-mode
    /// ticked|event-driven`). Event-driven runs skip provably quiescent
    /// tick windows; every output stays byte-identical to ticked mode
    /// (see `docs/ARCHITECTURE.md`).
    pub step_mode: bass_core::StepMode,
    /// When set, enable span profiling and write a Prometheus
    /// text-format exposition of the run's metrics registry plus
    /// per-phase span aggregates to this path (see
    /// `docs/OBSERVABILITY.md`). Never alters simulation outputs.
    pub metrics_out: Option<std::path::PathBuf>,
    /// Re-derive every cached controller target score densely and panic
    /// on bitwise divergence (`--verify-score-cache`; debug oracle for
    /// the score cache, outputs byte-identical either way).
    pub verify_score_cache: bool,
}

impl Default for SimulateOptions {
    fn default() -> Self {
        SimulateOptions {
            policy: PlacementPolicy::LongestPath,
            duration_s: 300,
            migrations: true,
            seed: 42,
            journal: None,
            faults: None,
            step_mode: bass_core::StepMode::Ticked,
            metrics_out: None,
            verify_score_cache: false,
        }
    }
}

/// The result of `bassctl simulate`.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SimulateOutcome {
    /// Initial placement.
    pub initial: PlaceOutcome,
    /// Final placement (differs when migrations occurred).
    pub r#final: PlaceOutcome,
    /// `(t_s, component, from, to)` for every migration.
    pub migrations: Vec<(f64, String, u32, u32)>,
    /// Worst edge goodput fraction at the end of the run.
    pub worst_goodput_fraction: f64,
    /// Probe overhead in bytes.
    pub probe_bytes: u64,
    /// Structured events written to the `--journal` sink (`None` when no
    /// journal was requested).
    pub journal_events: Option<u64>,
}

/// `bassctl simulate`: deploy the manifest on the testbed, drive edge
/// demands at their declared requirements, apply the testbed's scripted
/// restrictions, and report migrations and final goodput.
///
/// # Errors
///
/// Fails on invalid inputs, infeasible placement, or simulation errors.
pub fn simulate(
    manifest: &Manifest,
    testbed: &TestbedSpec,
    opts: SimulateOptions,
) -> Result<SimulateOutcome, CommandError> {
    let dag = manifest.to_dag()?;
    let trace_len = SimDuration::from_secs(opts.duration_s + 60);
    let (mesh, cluster) = testbed.build(opts.seed, trace_len)?;
    let faults = match &opts.faults {
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| CommandError::Faults(format!("{}: {e}", path.display())))?;
            serde_json::from_str::<bass_faults::FaultPlan>(&text)
                .map_err(|e| CommandError::Faults(format!("{}: {e}", path.display())))?
        }
        None => bass_faults::FaultPlan::new(),
    };
    let cfg = SimEnvConfig {
        policy: opts.policy,
        migrations_enabled: opts.migrations,
        faults,
        step_mode: opts.step_mode,
        controller: bass_core::ControllerConfig {
            verify_score_cache: opts.verify_score_cache,
            ..Default::default()
        },
        ..Default::default()
    };
    let mut env = SimEnv::new(mesh, cluster, dag, cfg);
    if let Some(path) = &opts.journal {
        let journal = bass_obs::Journal::with_file(path).map_err(CommandError::Journal)?;
        env.attach_journal(journal);
    }
    if opts.metrics_out.is_some() {
        env.enable_span_profiling();
        if opts.journal.is_none() {
            // Metrics counters live in the journal registry; attach an
            // in-memory sink so they accumulate without a file.
            env.attach_journal(bass_obs::Journal::new());
        }
    }
    let initial_placement = env.deploy(&[])?;
    let dag = env.dag().clone();
    let initial = outcome_from(&dag, &initial_placement);

    let mut scenario = Scenario::new();
    for r in &testbed.restrictions {
        scenario = scenario.restrict_node_egress(
            NodeId(r.node),
            SimTime::from_secs(r.from_s),
            SimTime::from_secs(r.until_s),
            Bandwidth::from_mbps(r.mbps),
        );
    }
    env.set_scenario(scenario);
    env.run_for(SimDuration::from_secs(opts.duration_s), |_| {})?;

    let final_outcome = outcome_from(&dag, &env.placement());
    let worst = dag
        .edges()
        .iter()
        .map(|e| {
            let achieved = env.edge_achieved(e.from, e.to);
            if e.bandwidth.is_zero() {
                1.0
            } else {
                achieved.as_bps() / e.bandwidth.as_bps()
            }
        })
        .fold(1.0f64, f64::min);
    let journal = env.take_journal();
    let profiler = env.take_span_profiler();
    if let Some(path) = &opts.metrics_out {
        let metrics = journal.as_ref().map(|j| j.metrics().clone()).unwrap_or_default();
        let text = bass_obs::prom::render(&metrics, profiler.as_ref());
        std::fs::write(path, text)
            .map_err(|e| CommandError::Metrics(format!("{}: {e}", path.display())))?;
    }
    // `journal_events` reports only an explicitly requested journal; the
    // in-memory sink attached for `--metrics-out` stays invisible.
    let journal_events = if opts.journal.is_some() {
        journal.map(|mut j| {
            let _ = j.flush();
            j.total_recorded()
        })
    } else {
        None
    };
    Ok(SimulateOutcome {
        initial,
        r#final: final_outcome,
        migrations: env
            .stats()
            .migrations
            .iter()
            .map(|m| {
                (
                    m.at.as_secs_f64(),
                    dag.component(m.component).expect("migrated component exists").name.clone(),
                    m.from.0,
                    m.to.0,
                )
            })
            .collect(),
        worst_goodput_fraction: worst,
        probe_bytes: env.netmon().overhead().total_bytes().as_bytes(),
        journal_events,
    })
}

/// `bassctl recommend`: dry-run every policy on the testbed and rank
/// them by the bandwidth left crossing nodes.
///
/// # Errors
///
/// Fails on invalid inputs.
pub fn recommend(
    manifest: &Manifest,
    testbed: &TestbedSpec,
    seed: u64,
) -> Result<bass_core::planner::Recommendation, CommandError> {
    let dag = manifest.to_dag()?;
    let (mesh, cluster) = testbed.build(seed, SimDuration::from_secs(60))?;
    Ok(bass_core::planner::recommend(&dag, &cluster, &mesh))
}

/// `bassctl traces`: generate each variable link's trace from a testbed
/// description and return `(link key, csv text)` pairs — plotting fodder
/// and a way to eyeball what the simulator will replay.
///
/// # Errors
///
/// Fails when the testbed is invalid.
pub fn traces(
    testbed: &TestbedSpec,
    seed: u64,
    duration_s: u64,
) -> Result<Vec<(String, String)>, CommandError> {
    use bass_trace::OuTraceConfig;
    let mut out = Vec::new();
    // Validate the whole spec first so errors surface consistently.
    testbed.build(seed, SimDuration::from_secs(1))?;
    for (i, l) in testbed.links.iter().enumerate() {
        if l.relative_std <= 0.0 {
            continue;
        }
        let key = format!("n{}-n{}", l.a.min(l.b), l.a.max(l.b));
        let trace = OuTraceConfig::new(key.clone(), l.mbps)
            .relative_std(l.relative_std)
            .generate(
                seed.wrapping_add(i as u64 * 0x9E37),
                SimDuration::from_secs(duration_s),
            );
        let mut csv = Vec::new();
        bass_trace::io::write_trace_csv(&trace, &mut csv)
            .expect("writing to a Vec cannot fail");
        out.push((key, String::from_utf8(csv).expect("CSV is UTF-8")));
    }
    Ok(out)
}

/// Options for `bassctl campaign` beyond the spec and seed.
#[derive(Debug, Clone)]
pub struct CampaignCommandOptions {
    /// Worker threads for replica execution (`--jobs`).
    pub jobs: usize,
    /// How each replica's loop advances time (`--step-mode
    /// ticked|event-driven`); summaries stay byte-identical either way.
    pub step_mode: bass_core::StepMode,
    /// When set, write one `campaign_replica_completed` event per
    /// replica to this JSONL path after the run.
    pub journal: Option<std::path::PathBuf>,
    /// When set, write a Prometheus text-format exposition of the
    /// campaign aggregate plus per-phase span aggregates to this path.
    /// Implies span profiling.
    pub metrics_out: Option<std::path::PathBuf>,
    /// Collect span profiles and splice a `profile` section into the
    /// summary JSON (`--profile`). Never alters the base summary bytes.
    pub profile: bool,
    /// Progress reporting level on stderr (`--progress`); excluded from
    /// all deterministic outputs.
    pub progress: bass_obs::ProgressLevel,
}

impl Default for CampaignCommandOptions {
    fn default() -> Self {
        CampaignCommandOptions {
            jobs: 1,
            step_mode: bass_core::StepMode::Ticked,
            journal: None,
            metrics_out: None,
            profile: false,
            progress: bass_obs::ProgressLevel::Off,
        }
    }
}

/// `bassctl campaign`: run every replica of a seeded scenario spec (see
/// `docs/SCENARIOS.md`) and return the streaming campaign summary plus
/// any merged span profile. With a journal path, one
/// `campaign_replica_completed` event per replica is written after the
/// run — campaigns never attach journals inside their tick loops, which
/// would grow memory with the horizon.
///
/// # Errors
///
/// Fails on an invalid spec, a replica that cannot run, or an unwritable
/// journal/metrics path.
pub fn campaign(
    spec: &bass_scenario::ScenarioSpec,
    seed: u64,
    opts: &CampaignCommandOptions,
) -> Result<bass_scenario::CampaignRun, CommandError> {
    let scn_opts = bass_scenario::CampaignOptions {
        jobs: opts.jobs,
        step_mode: opts.step_mode,
        profile: opts.profile || opts.metrics_out.is_some(),
        progress: opts.progress,
        ..bass_scenario::CampaignOptions::default()
    };
    let run =
        bass_scenario::run_campaign_opts(spec, seed, &scn_opts).map_err(CommandError::Campaign)?;
    if let Some(path) = &opts.journal {
        let mut j = bass_obs::Journal::with_file(path).map_err(CommandError::Journal)?;
        let horizon_s = (spec.horizon_ticks * spec.step_ms) as f64 / 1000.0;
        for r in &run.summary.replicas {
            j.record(bass_obs::Event::CampaignReplicaCompleted {
                t_s: horizon_s,
                replica: r.replica,
                ticks: r.ticks,
                apps_admitted: r.apps_admitted,
                migrations: r.migrations,
            });
        }
        j.flush().map_err(CommandError::Journal)?;
    }
    if let Some(path) = &opts.metrics_out {
        let text = bass_obs::prom::render(&campaign_metrics(&run.summary), run.profiler.as_ref());
        std::fs::write(path, text)
            .map_err(|e| CommandError::Metrics(format!("{}: {e}", path.display())))?;
    }
    Ok(run)
}

/// Projects a campaign summary's aggregate into the metrics registry so
/// `--metrics-out` expositions carry campaign totals next to span series.
fn campaign_metrics(summary: &bass_scenario::CampaignSummary) -> bass_obs::Metrics {
    let mut m = bass_obs::Metrics::new();
    let a = &summary.aggregate;
    m.add("campaign.replicas", summary.replicas.len() as u64);
    m.add("campaign.ticks", a.ticks);
    m.add("campaign.apps_admitted", a.apps_admitted);
    m.add("campaign.apps_rejected", a.apps_rejected);
    m.add("campaign.apps_retired", a.apps_retired);
    m.add("campaign.migrations", a.migrations);
    m.add("campaign.unplaceable", a.unplaceable);
    m.add("campaign.faults_injected", a.faults_injected as u64);
    m.set_gauge("campaign.goodput.p50", a.goodput.p50);
    m.set_gauge("campaign.goodput.p95", a.goodput.p95);
    m.set_gauge("campaign.goodput.p99", a.goodput.p99);
    m.set_gauge("campaign.goodput.mean", a.goodput.mean);
    m.set_gauge("campaign.mean_achieved_mbps", a.mean_achieved_mbps);
    m
}

/// How to run `bassctl arena`: which policies compete and how each
/// underlying campaign executes.
#[derive(Debug, Clone)]
pub struct ArenaCommandOptions {
    /// Competing policies in presentation order (`--policy`, repeatable
    /// or comma-separated). Empty means the full registry.
    pub policies: Vec<bass_core::PolicyKind>,
    /// Worker threads for replica execution (`--jobs`); table bytes are
    /// identical at any value.
    pub jobs: usize,
    /// How each replica's loop advances time (`--step-mode`).
    pub step_mode: bass_core::StepMode,
    /// When set, write a Prometheus exposition with one
    /// `policy="…"`-labelled block per competitor to this path.
    pub metrics_out: Option<std::path::PathBuf>,
    /// Progress reporting level on stderr; excluded from all
    /// deterministic outputs.
    pub progress: bass_obs::ProgressLevel,
}

impl Default for ArenaCommandOptions {
    fn default() -> Self {
        ArenaCommandOptions {
            policies: Vec::new(),
            jobs: 1,
            step_mode: bass_core::StepMode::Ticked,
            metrics_out: None,
            progress: bass_obs::ProgressLevel::Off,
        }
    }
}

/// `bassctl arena`: race every requested scheduler policy over a
/// scenario corpus and return the ranked tournament (see
/// `docs/POLICIES.md`). The table bytes are byte-identical for any
/// `--jobs` value; wall-clock ticks/s lives only in the
/// separate timing records.
///
/// # Errors
///
/// Fails on an empty corpus, an invalid spec, a campaign failure, or an
/// unwritable metrics path.
pub fn arena(
    corpus: &[bass_scenario::ScenarioSpec],
    seed: u64,
    opts: &ArenaCommandOptions,
) -> Result<bass_scenario::ArenaRun, CommandError> {
    let scn_opts = bass_scenario::ArenaOptions {
        policies: opts.policies.clone(),
        campaign: bass_scenario::CampaignOptions {
            jobs: opts.jobs,
            step_mode: opts.step_mode,
            progress: opts.progress,
            ..bass_scenario::CampaignOptions::default()
        },
    };
    let run =
        bass_scenario::run_arena(corpus, seed, &scn_opts).map_err(CommandError::Campaign)?;
    if let Some(path) = &opts.metrics_out {
        let text = arena_metrics_exposition(&run.table);
        std::fs::write(path, text)
            .map_err(|e| CommandError::Metrics(format!("{}: {e}", path.display())))?;
    }
    Ok(run)
}

/// Renders the tournament as concatenated per-policy labelled blocks:
/// every competitor gets its standing (`policy="…"`) plus one
/// `policy`+`scenario`-labelled block per row, so the exposition stays
/// lint-clean while policies remain separable series.
fn arena_metrics_exposition(table: &bass_scenario::ArenaTable) -> String {
    let mut out = String::new();
    for s in &table.ranking {
        let mut m = bass_obs::Metrics::new();
        m.set_gauge("arena.rank", s.rank as f64);
        m.set_gauge("arena.goodput.mean", s.mean_goodput);
        m.add("arena.migrations", s.migrations);
        out.push_str(&bass_obs::prom::render_with_labels(
            &m,
            None,
            &[("policy", s.policy.as_str())],
        ));
    }
    for r in &table.rows {
        let mut m = bass_obs::Metrics::new();
        m.set_gauge("arena.scenario.goodput.mean", r.mean_goodput);
        m.set_gauge("arena.scenario.goodput.p50", r.p50_goodput);
        m.set_gauge("arena.scenario.goodput.p95", r.p95_goodput);
        m.set_gauge("arena.scenario.mbps.mean", r.mean_achieved_mbps);
        m.add("arena.scenario.migrations", r.migrations);
        m.add("arena.scenario.unplaceable", r.unplaceable);
        m.add("arena.scenario.ticks", r.ticks);
        out.push_str(&bass_obs::prom::render_with_labels(
            &m,
            None,
            &[("policy", r.policy.as_str()), ("scenario", r.scenario.as_str())],
        ));
    }
    out
}

/// `bassctl metrics`: load a Prometheus text-format exposition, lint it,
/// and either pretty-print a one-line-per-series digest or diff it
/// against a second exposition.
///
/// # Errors
///
/// Fails when a file cannot be read or is not parseable exposition text.
pub fn metrics_report(
    path: &std::path::Path,
    diff_against: Option<&std::path::Path>,
    lint_only: bool,
) -> Result<String, CommandError> {
    let read = |p: &std::path::Path| -> Result<String, CommandError> {
        std::fs::read_to_string(p)
            .map_err(|e| CommandError::Metrics(format!("{}: {e}", p.display())))
    };
    let text = read(path)?;
    let exp = bass_obs::prom::parse(&text)
        .map_err(|e| CommandError::Metrics(format!("{}: {e}", path.display())))?;
    if lint_only {
        let problems = bass_obs::prom::lint(&text);
        return if problems.is_empty() {
            Ok(format!("{}: ok\n", path.display()))
        } else {
            Err(CommandError::Metrics(format!(
                "{}: {} lint problem(s):\n{}",
                path.display(),
                problems.len(),
                problems.join("\n")
            )))
        };
    }
    if let Some(other) = diff_against {
        let other_exp = bass_obs::prom::parse(&read(other)?)
            .map_err(|e| CommandError::Metrics(format!("{}: {e}", other.display())))?;
        let lines = bass_obs::prom::diff(&exp, &other_exp);
        return Ok(if lines.is_empty() {
            "no differences\n".to_string()
        } else {
            format!("{}\n", lines.join("\n"))
        });
    }
    // Pretty-print: one `series value` line per sample, name-sorted.
    let mut out = String::new();
    for (series, value) in exp.series_map() {
        out.push_str(&format!("{series} {value}\n"));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bass_appdag::catalog;
    use bass_core::heuristics::BfsWeighting;

    fn camera_manifest() -> Manifest {
        Manifest::from_dag(&catalog::camera_pipeline())
    }

    fn lan_testbed() -> TestbedSpec {
        use crate::testbed::{LinkSpec, NodeSpecJson};
        TestbedSpec {
            nodes: (0..3)
                .map(|id| NodeSpecJson { id, cores: 12, memory_mb: 16_384, schedulable: true })
                .collect(),
            links: vec![
                LinkSpec { a: 0, b: 1, mbps: 1000.0, relative_std: 0.0 },
                LinkSpec { a: 1, b: 2, mbps: 1000.0, relative_std: 0.0 },
                LinkSpec { a: 0, b: 2, mbps: 1000.0, relative_std: 0.0 },
            ],
            restrictions: vec![],
        }
    }

    #[test]
    fn order_lists_groups() {
        let groups = order(&camera_manifest(), PlacementPolicy::LongestPath).unwrap();
        assert_eq!(groups.len(), 2);
        assert_eq!(
            groups[0],
            vec!["camera-stream", "frame-sampler", "object-detector", "image-listener"]
        );
        assert_eq!(groups[1], vec!["label-listener"]);
    }

    #[test]
    fn place_reports_crossing_bandwidth() {
        let outcome = place(
            &camera_manifest(),
            &lan_testbed(),
            PlacementPolicy::BreadthFirst(BfsWeighting::EdgeWeight),
            1,
        )
        .unwrap();
        assert_eq!(outcome.placement.len(), 5);
        assert_eq!(
            outcome.placement["camera-stream"],
            outcome.placement["frame-sampler"]
        );
        assert!(outcome.crossing_mbps < outcome.total_mbps);
        assert!((outcome.total_mbps - 21.1).abs() < 0.01);
    }

    #[test]
    fn simulate_applies_restriction_and_migrates() {
        let mut testbed = lan_testbed();
        // Squeeze whatever node hosts the sampler side, hard.
        let base = place(
            &camera_manifest(),
            &testbed,
            PlacementPolicy::BreadthFirst(BfsWeighting::EdgeWeight),
            1,
        )
        .unwrap();
        let sampler_node = base.placement["frame-sampler"];
        testbed.restrictions.push(crate::testbed::RestrictionSpec {
            node: sampler_node,
            mbps: 1.0,
            from_s: 30,
            until_s: 600,
        });
        let outcome = simulate(
            &camera_manifest(),
            &testbed,
            SimulateOptions {
                policy: PlacementPolicy::BreadthFirst(BfsWeighting::EdgeWeight),
                duration_s: 240,
                migrations: true,
                seed: 1,
                journal: None,
                faults: None,
                step_mode: bass_core::StepMode::Ticked,
                metrics_out: None,
                // A migrating run through the CLI path doubles as an
                // end-to-end oracle check of the score cache.
                verify_score_cache: true,
            },
        )
        .unwrap();
        assert!(!outcome.migrations.is_empty(), "squeeze must trigger migration");
        assert!(outcome.worst_goodput_fraction > 0.9, "recovered: {outcome:?}");
        assert_ne!(outcome.initial.placement, outcome.r#final.placement);
        assert!(outcome.probe_bytes > 0);
    }

    #[test]
    fn recommend_ranks_policies() {
        let rec = recommend(&camera_manifest(), &lan_testbed(), 1).unwrap();
        assert!(rec.is_feasible());
        assert_eq!(rec.max_fan_out, 2);
        assert!(rec.ranking.len() >= 3);
    }

    #[test]
    fn traces_exports_variable_links_only() {
        let spec = crate::testbed::TestbedSpec::example();
        let out = traces(&spec, 7, 60).unwrap();
        // The example has three variable links and one constant.
        assert_eq!(out.len(), 3);
        for (key, csv) in &out {
            assert!(key.starts_with('n'));
            assert!(csv.starts_with("time_s,mbps"));
            assert!(csv.lines().count() > 50, "{key}: {}", csv.lines().count());
        }
        // Deterministic.
        assert_eq!(traces(&spec, 7, 60).unwrap(), out);
    }

    #[test]
    fn infeasible_placement_errors() {
        let mut testbed = lan_testbed();
        for n in &mut testbed.nodes {
            n.cores = 2; // detector needs 8
        }
        let err = place(&camera_manifest(), &testbed, PlacementPolicy::LongestPath, 1)
            .unwrap_err();
        assert!(matches!(err, CommandError::Schedule(_)));
        assert!(err.to_string().contains("scheduling error"));
    }
}
