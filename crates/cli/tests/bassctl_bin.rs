//! End-to-end tests of the `bassctl` binary itself.

use std::process::Command;

fn bassctl() -> Command {
    Command::new(env!("CARGO_BIN_EXE_bassctl"))
}

/// Runs `bassctl schema` and splits its output into the two example
/// files, written into a temp dir; returns their paths.
fn write_schema_files(dir: &std::path::Path) -> (std::path::PathBuf, std::path::PathBuf) {
    let out = bassctl().arg("schema").output().expect("bassctl runs");
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).expect("utf-8 output");
    let mut parts = text.split("--- example testbed (mesh.json) ---");
    let manifest_part = parts.next().expect("manifest section");
    let testbed_part = parts.next().expect("testbed section");
    let manifest_json = manifest_part
        .split("--- example application manifest (app.json) ---")
        .nth(1)
        .expect("manifest body");
    let app = dir.join("app.json");
    let mesh = dir.join("mesh.json");
    std::fs::write(&app, manifest_json.trim()).expect("write manifest");
    std::fs::write(&mesh, testbed_part.trim()).expect("write testbed");
    (app, mesh)
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("bassctl_test_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
}

#[test]
fn schema_output_is_consumable_by_place() {
    let dir = temp_dir("place");
    let (app, mesh) = write_schema_files(&dir);
    let out = bassctl()
        .args(["place", "--manifest"])
        .arg(&app)
        .arg("--testbed")
        .arg(&mesh)
        .args(["--policy", "bfs", "--json"])
        .output()
        .expect("bassctl runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let parsed: serde_json::Value =
        serde_json::from_slice(&out.stdout).expect("valid JSON outcome");
    assert_eq!(parsed["placement"].as_object().expect("placement map").len(), 5);
    assert!(parsed["crossing_mbps"].as_f64().expect("number") >= 0.0);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn order_prints_groups_for_each_policy() {
    let dir = temp_dir("order");
    let (app, _) = write_schema_files(&dir);
    for policy in ["bfs", "longest-path", "hybrid", "k3s"] {
        let out = bassctl()
            .args(["order", "--manifest"])
            .arg(&app)
            .args(["--policy", policy])
            .output()
            .expect("bassctl runs");
        assert!(out.status.success(), "{policy}");
        let text = String::from_utf8_lossy(&out.stdout);
        assert!(text.contains("group 1:"), "{policy}: {text}");
        assert!(text.contains("camera-stream"), "{policy}: {text}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn simulate_reports_json_outcome() {
    let dir = temp_dir("simulate");
    let (app, mesh) = write_schema_files(&dir);
    let out = bassctl()
        .args(["simulate", "--manifest"])
        .arg(&app)
        .arg("--testbed")
        .arg(&mesh)
        .args(["--duration", "60", "--json"])
        .output()
        .expect("bassctl runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let parsed: serde_json::Value = serde_json::from_slice(&out.stdout).expect("valid JSON");
    assert!(parsed["worst_goodput_fraction"].as_f64().expect("number") > 0.0);
    assert!(parsed["probe_bytes"].as_u64().expect("number") > 0);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn simulate_journal_writes_parseable_events() {
    let dir = temp_dir("journal");
    let (app, mesh) = write_schema_files(&dir);
    let journal = dir.join("events.jsonl");
    let out = bassctl()
        .args(["simulate", "--manifest"])
        .arg(&app)
        .arg("--testbed")
        .arg(&mesh)
        .args(["--duration", "60", "--json", "--journal"])
        .arg(&journal)
        .output()
        .expect("bassctl runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let parsed: serde_json::Value = serde_json::from_slice(&out.stdout).expect("valid JSON");
    let reported = parsed["journal_events"].as_u64().expect("journal_events");
    let text = std::fs::read_to_string(&journal).expect("journal file written");
    let events = bass_obs::parse_jsonl(&text).expect("journal parses back");
    assert_eq!(events.len() as u64, reported);
    // The run always narrates the startup probe, all five placements,
    // and each of the 600 ticks.
    let count = |kind: &str| events.iter().filter(|e| e.kind() == kind).count();
    assert!(count("probe_completed") >= 1);
    assert_eq!(count("placement_decided"), 5);
    assert_eq!(count("tick_completed"), 600);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn simulate_faults_crash_and_recover_end_to_end() {
    let dir = temp_dir("faults");
    let (app, mesh) = write_schema_files(&dir);

    // Find a node that actually hosts a component, so the crash displaces
    // real work instead of hitting an idle box.
    let out = bassctl()
        .args(["place", "--manifest"])
        .arg(&app)
        .arg("--testbed")
        .arg(&mesh)
        .arg("--json")
        .output()
        .expect("bassctl runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let placed: serde_json::Value = serde_json::from_slice(&out.stdout).expect("valid JSON");
    let victim = placed["placement"]
        .as_object()
        .expect("placement map")
        .iter()
        .next()
        .expect("at least one placement")
        .1
        .as_u64()
        .expect("node id") as u32;

    let plan = bass_faults::FaultPlan::new().with_seed(7).node_crash(
        bass_mesh::NodeId(victim),
        bass_util::time::SimTime::from_secs_f64(30.0),
        bass_util::time::SimTime::from_secs_f64(90.0),
    );
    let plan_path = dir.join("plan.json");
    std::fs::write(&plan_path, serde_json::to_string(&plan).expect("serializable"))
        .expect("write plan");

    let journal = dir.join("events.jsonl");
    let out = bassctl()
        .args(["simulate", "--manifest"])
        .arg(&app)
        .arg("--testbed")
        .arg(&mesh)
        .args(["--duration", "120", "--json", "--faults"])
        .arg(&plan_path)
        .arg("--journal")
        .arg(&journal)
        .output()
        .expect("bassctl runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let parsed: serde_json::Value = serde_json::from_slice(&out.stdout).expect("valid JSON");
    assert!(parsed["worst_goodput_fraction"].as_f64().expect("number") > 0.0);

    let text = std::fs::read_to_string(&journal).expect("journal file written");
    let events = bass_obs::parse_jsonl(&text).expect("journal parses back");
    let count = |kind: &str| events.iter().filter(|e| e.kind() == kind).count();
    // Both halves of the fault fired and were narrated.
    assert_eq!(count("fault_injected"), 2);
    let faults: Vec<_> = events
        .iter()
        .filter_map(|e| match e {
            bass_obs::Event::FaultInjected { kind, target, detail, .. } => {
                Some((kind.clone(), target.clone(), detail.clone()))
            }
            _ => None,
        })
        .collect();
    assert_eq!(faults[0].0, "node_crash");
    assert_eq!(faults[0].1, format!("node:{victim}"));
    assert!(faults[0].2.contains("evicted"), "crash hit a populated node: {}", faults[0].2);
    assert_eq!(faults[1].0, "node_recover");
    // The displaced component was eventually re-placed (policy
    // "fault-recovery" placements come on top of the initial five).
    assert!(count("placement_decided") >= 6, "got {}", count("placement_decided"));
    assert_eq!(count("tick_completed"), 1200);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn simulate_rejects_unreadable_fault_plan() {
    let dir = temp_dir("badfaults");
    let (app, mesh) = write_schema_files(&dir);
    let out = bassctl()
        .args(["simulate", "--manifest"])
        .arg(&app)
        .arg("--testbed")
        .arg(&mesh)
        .args(["--faults", "/nonexistent/plan.json"])
        .output()
        .expect("bassctl runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("fault plan error"));
    std::fs::remove_dir_all(&dir).ok();
}

/// Writes a shrunk small-reference scenario spec for fast campaigns.
fn write_campaign_spec(dir: &std::path::Path, horizon_ticks: u64) -> std::path::PathBuf {
    let mut spec = bass_scenario::ScenarioSpec::small_reference();
    spec.horizon_ticks = horizon_ticks;
    let path = dir.join("spec.json");
    std::fs::write(&path, spec.to_json()).expect("write spec");
    path
}

#[test]
fn campaign_metrics_exposition_is_lint_clean_with_tick_phase_spans() {
    let dir = temp_dir("metrics");
    let spec = write_campaign_spec(&dir, 120);
    let metrics = dir.join("m.prom");
    let out = bassctl()
        .args(["campaign", "--spec"])
        .arg(&spec)
        .args(["--jobs", "2", "--progress"])
        .arg("--metrics-out")
        .arg(&metrics)
        .arg("--out")
        .arg(dir.join("summary.json"))
        .output()
        .expect("bassctl runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    // `--progress` narrates on stderr without polluting stdout.
    assert!(String::from_utf8_lossy(&out.stderr).contains("replica"));

    let text = std::fs::read_to_string(&metrics).expect("metrics file written");
    // Campaign aggregate counters and per-phase span series are present:
    // at least six distinct tick phases, each with buckets+sum+count.
    assert!(text.contains("bass_campaign_ticks_total"));
    assert!(text.contains("bass_campaign_goodput_p95"));
    for phase in [
        "tick.faults",
        "tick.scenario",
        "tick.demand",
        "tick.goodput",
        "tick.controller",
        "tick.finalize",
    ] {
        let label = format!("span=\"{phase}\"");
        assert!(text.contains(&label), "missing span series for {phase}");
        assert!(
            text.contains(&format!("bass_span_duration_seconds_count{{{label}}}")),
            "missing histogram count for {phase}"
        );
    }

    // The committed lint (same one CI runs) accepts the file.
    let out = bassctl()
        .args(["metrics", "--in"])
        .arg(&metrics)
        .arg("--lint")
        .output()
        .expect("bassctl runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains(": ok"));

    // Diffing an exposition against itself reports nothing.
    let out = bassctl()
        .args(["metrics", "--in"])
        .arg(&metrics)
        .arg("--diff")
        .arg(&metrics)
        .output()
        .expect("bassctl runs");
    assert!(out.status.success());
    assert_eq!(String::from_utf8_lossy(&out.stdout), "no differences\n");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn campaign_observability_never_changes_summary_bytes() {
    let dir = temp_dir("campaign_bytes");
    let spec = write_campaign_spec(&dir, 80);
    let plain = dir.join("plain.json");
    let observed = dir.join("observed.json");
    let profiled = dir.join("profiled.json");

    let out = bassctl()
        .args(["campaign", "--spec"])
        .arg(&spec)
        .arg("--out")
        .arg(&plain)
        .output()
        .expect("bassctl runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    // Metrics exposition + progress + parallelism: same summary bytes.
    let out = bassctl()
        .args(["campaign", "--spec"])
        .arg(&spec)
        .args(["--jobs", "3", "--progress=debug"])
        .arg("--metrics-out")
        .arg(dir.join("m.prom"))
        .arg("--out")
        .arg(&observed)
        .output()
        .expect("bassctl runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let plain_bytes = std::fs::read(&plain).expect("plain summary");
    assert_eq!(plain_bytes, std::fs::read(&observed).expect("observed summary"));

    // `--profile` splices a profile section after the base summary,
    // which stays a byte-exact prefix.
    let out = bassctl()
        .args(["campaign", "--spec"])
        .arg(&spec)
        .arg("--profile")
        .arg("--out")
        .arg(&profiled)
        .output()
        .expect("bassctl runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let profiled_text = std::fs::read_to_string(&profiled).expect("profiled summary");
    let plain_text = String::from_utf8(plain_bytes).expect("utf-8 summary");
    let base_prefix =
        plain_text.trim_end().strip_suffix('}').expect("closing brace").trim_end();
    assert!(profiled_text.starts_with(base_prefix));
    let parsed: serde_json::Value =
        serde_json::from_str(&profiled_text).expect("profiled summary parses");
    assert!(
        parsed["profile"]["spans"]["tick.finalize"]["count"].as_f64().expect("span count") > 0.0
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn simulate_metrics_out_writes_exposition_without_journal() {
    let dir = temp_dir("sim_metrics");
    let (app, mesh) = write_schema_files(&dir);
    let metrics = dir.join("m.prom");
    let out = bassctl()
        .args(["simulate", "--manifest"])
        .arg(&app)
        .arg("--testbed")
        .arg(&mesh)
        .args(["--duration", "60", "--json", "--metrics-out"])
        .arg(&metrics)
        .output()
        .expect("bassctl runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let parsed: serde_json::Value = serde_json::from_slice(&out.stdout).expect("valid JSON");
    // The in-memory sink behind --metrics-out is not a requested journal.
    assert!(parsed["journal_events"].is_null());
    let text = std::fs::read_to_string(&metrics).expect("metrics file written");
    assert!(text.contains("# TYPE bass_span_duration_seconds histogram"));
    assert!(text.contains("span=\"tick.controller\""));
    // Journal event counters ride along (journal-kind counter names are
    // `obs.event.<kind>`, sanitized to underscores).
    assert!(text.contains("bass_obs_event_tick_completed_total 600"));

    // And it lints clean.
    let out = bassctl()
        .args(["metrics", "--in"])
        .arg(&metrics)
        .arg("--lint")
        .output()
        .expect("bassctl runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn simulate_step_mode_event_driven_matches_ticked_byte_for_byte() {
    let dir = temp_dir("step_mode");
    let (app, mesh) = write_schema_files(&dir);
    let run = |mode: &str| {
        let journal = dir.join(format!("{mode}.jsonl"));
        let out = bassctl()
            .args(["simulate", "--manifest"])
            .arg(&app)
            .arg("--testbed")
            .arg(&mesh)
            .args(["--duration", "120", "--json", "--step-mode", mode, "--journal"])
            .arg(&journal)
            .output()
            .expect("bassctl runs");
        assert!(out.status.success(), "{mode}: {}", String::from_utf8_lossy(&out.stderr));
        (out.stdout, std::fs::read(&journal).expect("journal written"))
    };
    let (ticked_json, ticked_journal) = run("ticked");
    let (event_json, event_journal) = run("event-driven");
    assert_eq!(ticked_json, event_json, "outcome JSON must not depend on step mode");
    assert_eq!(ticked_journal, event_journal, "journals must not depend on step mode");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn campaign_step_mode_keeps_summary_bytes() {
    let dir = temp_dir("campaign_step_mode");
    let spec = write_campaign_spec(&dir, 80);
    let run = |extra: &[&str]| {
        let out_path = dir.join(format!("summary_{}.json", extra.len()));
        let out = bassctl()
            .args(["campaign", "--spec"])
            .arg(&spec)
            .args(extra)
            .arg("--out")
            .arg(&out_path)
            .output()
            .expect("bassctl runs");
        assert!(out.status.success(), "{extra:?}: {}", String::from_utf8_lossy(&out.stderr));
        std::fs::read(&out_path).expect("summary written")
    };
    let base = run(&[]);
    let event = run(&["--step-mode", "event-driven"]);
    assert_eq!(base, event, "summary bytes must not depend on step mode");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn unknown_step_mode_fails_cleanly() {
    let out = bassctl()
        .args(["simulate", "--step-mode", "warp"])
        .output()
        .expect("runs");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown step mode 'warp'"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn faults_plan_on_nonexistent_node_fails_cleanly() {
    let dir = temp_dir("ghost_node");
    let (app, mesh) = write_schema_files(&dir);
    let plan = bass_faults::FaultPlan::new().node_crash(
        bass_mesh::NodeId(99),
        bass_util::time::SimTime::from_secs_f64(5.0),
        bass_util::time::SimTime::from_secs_f64(30.0),
    );
    let plan_path = dir.join("plan.json");
    std::fs::write(&plan_path, serde_json::to_string(&plan).expect("serializable"))
        .expect("write plan");
    let out = bassctl()
        .args(["simulate", "--manifest"])
        .arg(&app)
        .arg("--testbed")
        .arg(&mesh)
        .args(["--duration", "60", "--faults"])
        .arg(&plan_path)
        .output()
        .expect("bassctl runs");
    assert!(!out.status.success(), "crashing node 99 must fail the run");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown node"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn malformed_campaign_spec_fails_cleanly() {
    let dir = temp_dir("bad_spec");
    // Truncated JSON and structurally-wrong JSON both reject cleanly.
    for (name, text) in [("truncated.json", "{\"name\": \"oops\""), ("wrong.json", "[1, 2, 3]")] {
        let path = dir.join(name);
        std::fs::write(&path, text).expect("write spec");
        let out = bassctl()
            .args(["campaign", "--spec"])
            .arg(&path)
            .output()
            .expect("bassctl runs");
        assert!(!out.status.success(), "{name} must be rejected");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("cannot parse"), "{name}: {stderr}");
        assert!(!stderr.contains("panicked"), "{name}: {stderr}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bad_inputs_fail_cleanly() {
    // Unknown command.
    let out = bassctl().arg("frobnicate").output().expect("runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));
    // Missing manifest.
    let out = bassctl().args(["order"]).output().expect("runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--manifest is required"));
    // Unknown policy.
    let out = bassctl()
        .args(["order", "--manifest", "/nonexistent", "--policy", "magic"])
        .output()
        .expect("runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown policy"));
    // The allocation engine is not a user setting: neither flag exists.
    for args in [["campaign", "--alloc-jobs", "2"], ["simulate", "--engine", "delta"]] {
        let out = bassctl().args(args).output().expect("runs");
        assert!(!out.status.success(), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(&format!("unknown flag '{}'", args[1])), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}

#[test]
fn arena_runs_a_tournament_with_lint_clean_labelled_metrics() {
    let dir = temp_dir("arena");
    let spec = write_campaign_spec(&dir, 120);
    let table = dir.join("table.json");
    let metrics = dir.join("arena.prom");
    let out = bassctl()
        .args(["arena", "--spec"])
        .arg(&spec)
        .args(["--policy", "bass,random", "--policy", "spread", "--jobs", "2"])
        .arg("--out")
        .arg(&table)
        .arg("--metrics-out")
        .arg(&metrics)
        .output()
        .expect("bassctl runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    // The ranked text table with a wall-clock column on stdout.
    assert!(stdout.contains("rank"), "{stdout}");
    assert!(stdout.contains("ticks/s"), "{stdout}");
    for policy in ["bass", "random", "spread"] {
        assert!(stdout.contains(policy), "{policy} missing from table:\n{stdout}");
    }

    // The deterministic table JSON parses and ranks all three entrants.
    let text = std::fs::read_to_string(&table).expect("table written");
    let parsed: serde_json::Value = serde_json::from_str(&text).expect("table parses");
    assert_eq!(parsed["ranking"].as_array().expect("ranking").len(), 3);
    // Wall-clock timing must never reach the deterministic file.
    assert!(!text.contains("ticks_per_sec"), "timing leaked into --out bytes");

    // Per-policy labelled series, lint-clean under the committed lint.
    let prom = std::fs::read_to_string(&metrics).expect("metrics written");
    for policy in ["bass", "random", "spread"] {
        let label = format!("policy=\"{policy}\"");
        assert!(prom.contains(&label), "missing {label} in exposition");
    }
    let out = bassctl()
        .args(["metrics", "--in"])
        .arg(&metrics)
        .arg("--lint")
        .output()
        .expect("bassctl runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn arena_rejects_unknown_policy_names_cleanly() {
    // The negative path: a bogus policy name fails with the registry
    // listing, before any spec is even loaded, and never panics.
    let out = bassctl()
        .args(["arena", "--spec", "/nonexistent/spec.json", "--policy", "first-fit"])
        .output()
        .expect("runs");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown policy 'first-fit'"), "{stderr}");
    assert!(stderr.contains("network-aware-greedy"), "registry listing missing: {stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");

    // And with no --spec at all, arena asks for one.
    let out = bassctl().args(["arena", "--policy", "bass"]).output().expect("runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--spec is required"));
}
