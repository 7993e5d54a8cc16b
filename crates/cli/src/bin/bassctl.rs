//! `bassctl` — plan and simulate BASS deployments.
//!
//! ```text
//! bassctl order    --manifest app.json [--policy bfs|longest-path|hybrid|k3s]
//! bassctl place    --manifest app.json --testbed mesh.json [--policy …] [--seed N] [--json]
//! bassctl simulate --manifest app.json --testbed mesh.json [--policy …] [--duration SECS]
//!                  [--no-migrations] [--seed N] [--json] [--journal events.jsonl]
//!                  [--faults plan.json] [--step-mode ticked|event-driven]
//!                  [--metrics-out metrics.prom] [--verify-score-cache]
//! bassctl recommend --manifest app.json --testbed mesh.json [--json]
//! bassctl traces   --testbed mesh.json [--duration SECS] [--seed N]
//! bassctl campaign --spec scenario.json [--seed N] [--jobs N] [--out summary.json]
//!                  [--step-mode ticked|event-driven] [--journal events.jsonl]
//!                  [--metrics-out metrics.prom] [--profile]
//!                  [--progress[=off|info|debug]]
//! bassctl arena    --spec scenario.json [--spec more.json …] [--policy bass,random,…]
//!                  [--seed N] [--jobs N] [--step-mode …] [--out table.json] [--json]
//!                  [--metrics-out metrics.prom] [--progress[=off|info|debug]]
//! bassctl metrics  --in metrics.prom [--diff other.prom | --lint]
//! bassctl schema                       # print example input files
//! ```
//!
//! `arena` races scheduler policies (`bass`, `k3s-default`, `spread`,
//! `random`, `network-aware-greedy`, `metronome`; default all) over the
//! `--spec` corpus and prints a ranked comparison table — see
//! `docs/POLICIES.md`. `--out` writes the deterministic table JSON
//! (byte-identical at any `--jobs`); stdout adds wall-clock ticks/s.
//!
//! `--metrics-out` writes a Prometheus text-format exposition of the
//! run's counters, gauges, and per-phase span timings; `--profile`
//! splices a `profile` section into the campaign summary JSON;
//! `--progress` reports live replica progress on stderr. None of the
//! three changes any deterministic output byte (see
//! `docs/OBSERVABILITY.md`).

use bass_appdag::Manifest;
use bass_cli::{commands::recommend, commands::traces, order, place, simulate, SimulateOptions, TestbedSpec};
use bass_cluster::BaselinePolicy;
use bass_core::heuristics::BfsWeighting;
use bass_core::PlacementPolicy;
use std::process::ExitCode;

struct Args {
    manifest: Option<String>,
    testbed: Option<String>,
    specs: Vec<String>,
    arena_policies: Vec<bass_core::PolicyKind>,
    jobs: usize,
    out: Option<String>,
    policy: PlacementPolicy,
    duration_s: u64,
    migrations: bool,
    seed: u64,
    json: bool,
    journal: Option<String>,
    faults: Option<String>,
    step_mode: bass_core::StepMode,
    metrics_out: Option<String>,
    verify_score_cache: bool,
    profile: bool,
    progress: bass_obs::ProgressLevel,
    input: Option<String>,
    diff: Option<String>,
    lint: bool,
}

fn parse_policy(name: &str) -> Result<PlacementPolicy, String> {
    match name {
        "bfs" => Ok(PlacementPolicy::BreadthFirst(BfsWeighting::EdgeWeight)),
        "longest-path" | "lp" => Ok(PlacementPolicy::LongestPath),
        "hybrid" => Ok(PlacementPolicy::Hybrid { fanout_threshold: 3 }),
        "k3s" => Ok(PlacementPolicy::K3sDefault(BaselinePolicy::LeastAllocated)),
        other => Err(format!(
            "unknown policy '{other}' (expected bfs, longest-path, hybrid, or k3s)"
        )),
    }
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<(String, Args), String> {
    let command = argv.next().ok_or("missing command (order|place|simulate|schema)")?;
    let mut args = Args {
        manifest: None,
        testbed: None,
        specs: Vec::new(),
        arena_policies: Vec::new(),
        jobs: 1,
        out: None,
        policy: PlacementPolicy::LongestPath,
        duration_s: 300,
        migrations: true,
        seed: 42,
        json: false,
        journal: None,
        faults: None,
        step_mode: bass_core::StepMode::Ticked,
        metrics_out: None,
        verify_score_cache: false,
        profile: false,
        progress: bass_obs::ProgressLevel::Off,
        input: None,
        diff: None,
        lint: false,
    };
    while let Some(flag) = argv.next() {
        let mut value = |name: &str| argv.next().ok_or(format!("{name} requires a value"));
        match flag.as_str() {
            "--manifest" => args.manifest = Some(value("--manifest")?),
            "--testbed" => args.testbed = Some(value("--testbed")?),
            "--spec" => args.specs.push(value("--spec")?),
            "--out" => args.out = Some(value("--out")?),
            "--jobs" => {
                args.jobs = value("--jobs")?
                    .parse()
                    .map_err(|e| format!("bad --jobs: {e}"))?;
                if args.jobs == 0 {
                    return Err("--jobs must be at least 1".to_string());
                }
            }
            // `arena` races migration policies (registry names like
            // `bass`); every other command takes a placement policy.
            // Arena accepts the flag repeated and/or comma-separated.
            "--policy" => {
                let v = value("--policy")?;
                if command == "arena" {
                    for name in v.split(',').filter(|n| !n.trim().is_empty()) {
                        args.arena_policies.push(bass_core::PolicyKind::parse(name.trim())?);
                    }
                } else {
                    args.policy = parse_policy(&v)?;
                }
            }
            "--duration" => {
                args.duration_s = value("--duration")?
                    .parse()
                    .map_err(|e| format!("bad --duration: {e}"))?
            }
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("bad --seed: {e}"))?
            }
            "--no-migrations" => args.migrations = false,
            "--json" => args.json = true,
            "--journal" => args.journal = Some(value("--journal")?),
            "--faults" => args.faults = Some(value("--faults")?),
            "--step-mode" => {
                args.step_mode = bass_core::StepMode::parse(&value("--step-mode")?)?
            }
            "--metrics-out" => args.metrics_out = Some(value("--metrics-out")?),
            "--verify-score-cache" => args.verify_score_cache = true,
            "--profile" => args.profile = true,
            "--progress" => args.progress = bass_obs::ProgressLevel::Info,
            "--in" => args.input = Some(value("--in")?),
            "--diff" => args.diff = Some(value("--diff")?),
            "--lint" => args.lint = true,
            other if other.starts_with("--progress=") => {
                let level = &other["--progress=".len()..];
                args.progress = bass_obs::ProgressLevel::parse(level).ok_or(format!(
                    "unknown progress level '{level}' (expected off, info, or debug)"
                ))?;
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok((command, args))
}

fn load_manifest(args: &Args) -> Result<Manifest, String> {
    let path = args.manifest.as_ref().ok_or("--manifest is required")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("cannot parse {path}: {e}"))
}

fn load_testbed(args: &Args) -> Result<TestbedSpec, String> {
    let path = args.testbed.as_ref().ok_or("--testbed is required")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("cannot parse {path}: {e}"))
}

fn run() -> Result<(), String> {
    let (command, args) = parse_args(std::env::args().skip(1))?;
    match command.as_str() {
        "schema" => {
            let manifest = Manifest::from_dag(&bass_appdag::catalog::camera_pipeline());
            println!("--- example application manifest (app.json) ---");
            println!("{}", serde_json::to_string_pretty(&manifest).expect("serializable"));
            println!("--- example testbed (mesh.json) ---");
            println!(
                "{}",
                serde_json::to_string_pretty(&TestbedSpec::example()).expect("serializable")
            );
            Ok(())
        }
        "traces" => {
            let testbed = load_testbed(&args)?;
            let out_dir = std::path::Path::new("traces");
            std::fs::create_dir_all(out_dir)
                .map_err(|e| format!("cannot create traces/: {e}"))?;
            let bundles =
                traces(&testbed, args.seed, args.duration_s).map_err(|e| e.to_string())?;
            for (key, csv) in bundles {
                let path = out_dir.join(format!("{key}.csv"));
                std::fs::write(&path, csv)
                    .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
                println!("wrote {}", path.display());
            }
            Ok(())
        }
        "recommend" => {
            let manifest = load_manifest(&args)?;
            let testbed = load_testbed(&args)?;
            let rec = recommend(&manifest, &testbed, args.seed).map_err(|e| e.to_string())?;
            if args.json {
                println!("{}", serde_json::to_string_pretty(&rec).expect("serializable"));
            } else {
                println!(
                    "DAG shape: max fan-out {}, depth {}",
                    rec.max_fan_out, rec.depth
                );
                for (i, score) in rec.ranking.iter().enumerate() {
                    println!(
                        "{}. {:<14} crossing {:>6.1}% of total bandwidth",
                        i + 1,
                        score.policy.to_string(),
                        score.crossing_fraction * 100.0
                    );
                }
                if !rec.is_feasible() {
                    println!("no policy produced a feasible placement");
                }
            }
            Ok(())
        }
        "order" => {
            let manifest = load_manifest(&args)?;
            let groups = order(&manifest, args.policy).map_err(|e| e.to_string())?;
            for (i, group) in groups.iter().enumerate() {
                println!("group {}: {}", i + 1, group.join(" -> "));
            }
            Ok(())
        }
        "place" => {
            let manifest = load_manifest(&args)?;
            let testbed = load_testbed(&args)?;
            let outcome =
                place(&manifest, &testbed, args.policy, args.seed).map_err(|e| e.to_string())?;
            if args.json {
                println!("{}", serde_json::to_string_pretty(&outcome).expect("serializable"));
            } else {
                for (name, node) in &outcome.placement {
                    println!("{name:<28} -> node {node}");
                }
                println!(
                    "crossing bandwidth: {:.2} / {:.2} Mbps",
                    outcome.crossing_mbps, outcome.total_mbps
                );
            }
            Ok(())
        }
        "simulate" => {
            let manifest = load_manifest(&args)?;
            let testbed = load_testbed(&args)?;
            let outcome = simulate(
                &manifest,
                &testbed,
                SimulateOptions {
                    policy: args.policy,
                    duration_s: args.duration_s,
                    migrations: args.migrations,
                    seed: args.seed,
                    journal: args.journal.clone().map(std::path::PathBuf::from),
                    faults: args.faults.clone().map(std::path::PathBuf::from),
                    step_mode: args.step_mode,
                    metrics_out: args.metrics_out.clone().map(std::path::PathBuf::from),
                    verify_score_cache: args.verify_score_cache,
                },
            )
            .map_err(|e| e.to_string())?;
            if args.json {
                println!("{}", serde_json::to_string_pretty(&outcome).expect("serializable"));
            } else {
                println!(
                    "initial crossing bandwidth: {:.2} Mbps",
                    outcome.initial.crossing_mbps
                );
                for (t, name, from, to) in &outcome.migrations {
                    println!("t={t:>7.1}s migrate {name}: node {from} -> node {to}");
                }
                println!(
                    "final crossing bandwidth: {:.2} Mbps; worst edge goodput: {:.0}%",
                    outcome.r#final.crossing_mbps,
                    outcome.worst_goodput_fraction * 100.0
                );
                println!("probe overhead: {} bytes", outcome.probe_bytes);
                if let (Some(n), Some(path)) = (outcome.journal_events, &args.journal) {
                    println!("journal: {n} events -> {path}");
                }
                if let Some(path) = &args.metrics_out {
                    println!("metrics exposition -> {path}");
                }
            }
            Ok(())
        }
        "campaign" => {
            let path = args.specs.first().ok_or("--spec is required")?;
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            let spec = bass_scenario::ScenarioSpec::from_json(&text)
                .map_err(|e| format!("cannot parse {path}: {e}"))?;
            let opts = bass_cli::CampaignCommandOptions {
                jobs: args.jobs,
                step_mode: args.step_mode,
                journal: args.journal.clone().map(std::path::PathBuf::from),
                metrics_out: args.metrics_out.clone().map(std::path::PathBuf::from),
                profile: args.profile,
                progress: args.progress,
            };
            let run = bass_cli::campaign(&spec, args.seed, &opts).map_err(|e| e.to_string())?;
            let summary = &run.summary;
            // The profile section is spliced after the base summary so the
            // plain summary stays a byte-exact prefix (see docs/OBSERVABILITY.md).
            let json = match (&run.profiler, args.profile) {
                (Some(profiler), true) => summary.to_json_with_profile(&profiler.summary()),
                _ => summary.to_json(),
            };
            if let Some(out) = &args.out {
                std::fs::write(out, &json).map_err(|e| format!("cannot write {out}: {e}"))?;
            }
            if args.json || args.out.is_none() {
                println!("{json}");
            } else {
                let a = &summary.aggregate;
                println!(
                    "campaign '{}' seed {}: {} replicas, {} ticks total",
                    summary.scenario,
                    summary.seed,
                    summary.replicas.len(),
                    a.ticks
                );
                println!(
                    "apps: {} admitted, {} rejected, {} retired; {} migrations ({} unplaceable); {} faults",
                    a.apps_admitted, a.apps_rejected, a.apps_retired, a.migrations,
                    a.unplaceable, a.faults_injected
                );
                println!(
                    "goodput fraction: p50 {:.3}, p95 {:.3}, p99 {:.3}, mean {:.3} over {} samples",
                    a.goodput.p50, a.goodput.p95, a.goodput.p99, a.goodput.mean,
                    a.goodput.samples
                );
                println!("summary written to {}", args.out.as_deref().unwrap_or("-"));
                if let Some(path) = &args.metrics_out {
                    println!("metrics exposition -> {path}");
                }
            }
            Ok(())
        }
        "arena" => {
            if args.specs.is_empty() {
                return Err("--spec is required (repeat for a multi-scenario corpus)".to_string());
            }
            let mut corpus = Vec::with_capacity(args.specs.len());
            for path in &args.specs {
                let text = std::fs::read_to_string(path)
                    .map_err(|e| format!("cannot read {path}: {e}"))?;
                corpus.push(
                    bass_scenario::ScenarioSpec::from_json(&text)
                        .map_err(|e| format!("cannot parse {path}: {e}"))?,
                );
            }
            let opts = bass_cli::ArenaCommandOptions {
                policies: args.arena_policies.clone(),
                jobs: args.jobs,
                step_mode: args.step_mode,
                metrics_out: args.metrics_out.clone().map(std::path::PathBuf::from),
                progress: args.progress,
            };
            let run = bass_cli::arena(&corpus, args.seed, &opts).map_err(|e| e.to_string())?;
            if let Some(out) = &args.out {
                // The deterministic table only — wall-clock timing never
                // reaches the file, so bytes match at any --jobs.
                std::fs::write(out, run.table.to_json())
                    .map_err(|e| format!("cannot write {out}: {e}"))?;
            }
            if args.json {
                println!("{}", run.table.to_json_with_timing(&run.timings));
            } else {
                print!("{}", run.table.to_text_with_timing(&run.timings));
                if let Some(out) = &args.out {
                    println!("table written to {out}");
                }
                if let Some(path) = &args.metrics_out {
                    println!("metrics exposition -> {path}");
                }
            }
            Ok(())
        }
        "metrics" => {
            let input = args.input.as_ref().ok_or("--in is required")?;
            let report = bass_cli::metrics_report(
                std::path::Path::new(input),
                args.diff.as_deref().map(std::path::Path::new),
                args.lint,
            )
            .map_err(|e| e.to_string())?;
            print!("{report}");
            Ok(())
        }
        "--help" | "-h" | "help" => {
            println!("bassctl order|place|simulate|campaign|arena|metrics|schema — see crate docs");
            Ok(())
        }
        other => Err(format!("unknown command '{other}'")),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("bassctl: {msg}");
            ExitCode::FAILURE
        }
    }
}
