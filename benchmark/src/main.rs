//! The repository benchmark.
//!
//! ```text
//! bass-benchmark --workload NAME --seed N --seconds S --trace 0|1
//! bass-benchmark --self-check
//! ```
//!
//! Runs one named workload (see `workloads.rs`) from one process and one
//! thread. A pass is a fixed amount of simulated work whose output is
//! checked: a campaign's summary bytes against the library runner's for
//! the same spec and seed, the mesh-only workload's allocation checksum
//! against a reference window on a separately built mesh. A mismatch or
//! an error is a failed pass. With `--trace 0` passes repeat while
//! another fits in `--seconds`; `ticks_per_s` charges each tick its
//! fastest repeat (see [`fastest_each`]), `setup_s` is the median over
//! replicas of each one's fastest set-up, and `peak_heap_mb` is the
//! most heap one pass holds at once (see [`heap::Watermark`]). With
//! `--trace 1` one
//! traced pass times the calls into each layer from outside and reports
//! the per-layer metrics. The last line of standard output is one JSON
//! object: `correct`, `attempted`, `failed`, `metrics`.
//!
//! `--self-check`, run from the repository root, runs every workload at
//! a reduced size in both modes, checks that the metrics emitted are
//! exactly those `BENCHMARK.json` names, with its units, and checks that
//! a corrupted reference is reported as a failed run.

mod campaign;
mod heap;
mod steady;
mod trace;
mod workloads;

use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::{StepClass, Trace};
use workloads::Workload;

#[global_allocator]
static ALLOCATOR: heap::Counting = heap::Counting;

/// Times a run sets up each replica at least (see [`fastest_each`]).
const MIN_SETUPS: usize = 5;
/// The mesh-only workload builds a 1000-node mesh per set-up.
const MIN_MESH_SETUPS: usize = 3;

/// Every end-to-end metric and its unit (`--trace 0`).
const END_TO_END: [(&str, &str); 3] = [
    ("ticks_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_heap_mb", "MB"),
];

/// Every per-layer metric and its unit (`--trace 1`).
const PER_LAYER: [(&str, &str); 42] = [
    ("scenario.generate_s", "s"),
    ("scenario.build_mesh_s", "s"),
    ("emu.deploy_s", "s"),
    ("emu.step.count", "count"),
    ("emu.step.p50_us", "us"),
    ("emu.step.p99_us", "us"),
    ("emu.step.total_s", "s"),
    ("emu.step.fault_s", "s"),
    ("emu.step.fault_count", "count"),
    ("emu.step.ctl_s", "s"),
    ("emu.step.ctl_count", "count"),
    ("emu.step.plain_s", "s"),
    ("emu.step.plain_count", "count"),
    ("emu.admit.count", "count"),
    ("emu.admit.p50_us", "us"),
    ("emu.admit.rejected", "count"),
    ("emu.retire_s", "s"),
    ("emu.skip.scans", "count"),
    ("emu.skip.scan_s", "s"),
    ("emu.skip.ticks_skipped", "count"),
    ("emu.skip.useful_ratio", "ratio"),
    ("emu.displaced.component_ticks", "count"),
    ("mesh.advance.p50_us", "us"),
    ("mesh.advance.p99_us", "us"),
    ("mesh.routing.compute_ms", "ms"),
    ("mesh.set_link_up_ms", "ms"),
    ("mesh.set_node_up_ms", "ms"),
    ("core.rank_nodes_us", "us"),
    ("core.select_target_us", "us"),
    ("core.select_target.infeasible_ratio", "ratio"),
    ("core.score_cache.hit_ratio", "ratio"),
    ("core.score_cache.flushes", "count"),
    ("netmon.headroom_probe_us", "us"),
    ("netmon.full_probe_us", "us"),
    ("model.migrations", "count"),
    ("model.unplaceable", "count"),
    ("model.faults_injected", "count"),
    ("model.apps_admitted", "count"),
    ("model.goodput_mean", "ratio"),
    ("model.reject_frac", "ratio"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_ratio", "ratio"),
];

/// How one invocation runs.
#[derive(Debug, Clone, Copy)]
struct Options {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Divides campaign horizons and mesh windows (self-check only).
    scale: u64,
    /// Alters the reference before comparing (self-check only).
    corrupt_reference: bool,
}

/// One run's result line.
struct Report {
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64)>,
}

impl Report {
    fn unit(name: &str) -> &'static str {
        END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .find(|(n, _)| *n == name)
            .map(|(_, u)| *u)
            .expect("every reported metric is declared")
    }

    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value)| {
                format!(
                    r#""{name}": {{"value": {}, "unit": "{}"}}"#,
                    json_number(*value),
                    Report::unit(name)
                )
            })
            .collect();
        format!(
            r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A finite number in full precision (`Display` for `f64` round-trips).
fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".to_string()
    }
}

fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn run(opts: &Options) -> Result<Report, String> {
    match (opts.workload.campaign(opts.scale), opts.trace) {
        (Some(c), false) => run_campaign(opts, &c),
        (Some(c), true) => trace_campaign(opts, &c),
        (None, false) => run_steady(opts),
        (None, true) => trace_steady(opts),
    }
}

/// The reference summary bytes, altered when the self-check asks.
fn reference_json(opts: &Options, summary: &bass_scenario::CampaignSummary) -> String {
    let json = summary.to_json();
    if opts.corrupt_reference {
        json.replacen("\"ticks\": ", "\"ticks\": 1", 1)
    } else {
        json
    }
}

/// The host time of one pass's work, unit by unit at its fastest.
///
/// Every pass repeats the same units of work (tick-loop iterations, or
/// mesh ticks) in the same order, so unit `i` of one pass is the same
/// computation as unit `i` of another. On a shared 2-vCPU VM the same
/// 20 ms of CPU work took 14 to 27 ms depending on what else ran: its
/// median over 2-s stretches moved between 14 and 23 ms while its least
/// time stayed between 14 and 16 ms. So each unit is charged the least
/// time it took in any pass, and a pass's time is the sum over units: a
/// slower program is slower in every repeat and raises the sum, while a
/// neighbour's burst raises only the repeats it overlaps.
fn fastest_each(passes: &[Vec<Duration>]) -> Result<Vec<Duration>, String> {
    let first = passes.first().ok_or("no pass completed")?;
    if passes.iter().any(|p| p.len() != first.len()) {
        return Err("passes over the same work differ in length".to_string());
    }
    Ok((0..first.len())
        .map(|i| passes.iter().map(|p| p[i]).min().unwrap_or_default())
        .collect())
}

/// The sum of [`fastest_each`].
fn fastest_total(passes: &[Vec<Duration>]) -> Result<Duration, String> {
    Ok(fastest_each(passes)?.iter().sum())
}

/// Set-up time: the median over replicas of each one's fastest set-up.
fn setup_seconds(setups: &[Vec<Duration>]) -> Result<f64, String> {
    let mut each: Vec<f64> = fastest_each(setups)?
        .iter()
        .map(Duration::as_secs_f64)
        .collect();
    Ok(median(&mut each))
}

/// Whether another pass fits in the measuring time: passes repeat until
/// one more, at the last pass's length, would overrun `--seconds`.
fn another_pass(opts: &Options, started: Instant, last: Duration) -> bool {
    (started.elapsed() + last).as_secs_f64() <= opts.seconds
}

fn run_campaign(opts: &Options, c: &workloads::Campaign) -> Result<Report, String> {
    let reference = campaign::reference(c, opts.seed)?;
    let expected = reference_json(opts, &reference);
    let (mut attempted, mut failed) = (0u64, 0u64);
    let ticks = reference.aggregate.ticks as f64;
    let mut passes = Vec::new();
    let mut setups = Vec::new();
    let mut peak_mb = 0.0f64;
    let started = Instant::now();
    loop {
        attempted += 1;
        let pass = Instant::now();
        let heap = heap::Watermark::start();
        let run = campaign::drive(c, opts.seed, &reference.engine, None);
        peak_mb = peak_mb.max(heap.peak_mb());
        match run {
            Ok(run) => {
                if run.summary.to_json() != expected {
                    eprintln!("pass {attempted}: summary differs from the reference");
                    failed += 1;
                }
                let stepping: Duration = run.iterations.iter().sum();
                eprintln!(
                    "pass {attempted}: {:.1} ticks/s",
                    ticks / stepping.as_secs_f64()
                );
                passes.push(run.iterations);
                setups.push(run.setup);
            }
            Err(e) => {
                eprintln!("pass {attempted}: {e}");
                failed += 1;
            }
        }
        if !another_pass(opts, started, pass.elapsed()) {
            break;
        }
    }
    while setups.len() < MIN_SETUPS {
        setups.push(campaign::setup_only(c, opts.seed)?);
    }
    Ok(Report {
        attempted,
        failed,
        metrics: vec![
            ("ticks_per_s", ticks / fastest_total(&passes)?.as_secs_f64()),
            ("setup_s", setup_seconds(&setups)?),
            ("peak_heap_mb", peak_mb),
        ],
    })
}

fn trace_campaign(opts: &Options, c: &workloads::Campaign) -> Result<Report, String> {
    let started = Instant::now();
    let reference = campaign::reference(c, opts.seed)?;
    let untraced = started.elapsed().as_secs_f64();
    let expected = reference_json(opts, &reference);

    let mut t = Trace::default();
    let started = Instant::now();
    let run = campaign::drive(c, opts.seed, &reference.engine, Some(&mut t))?;
    t.wall = started.elapsed();
    let failed = u64::from(run.summary.to_json() != expected);
    if failed > 0 {
        eprintln!("traced run: summary differs from the reference");
    }
    let agg = &run.summary.aggregate;
    let mut m = layer_metrics(&t);
    m.extend([
        ("model.migrations", agg.migrations as f64),
        ("model.unplaceable", agg.unplaceable as f64),
        ("model.faults_injected", agg.faults_injected as f64),
        ("model.apps_admitted", agg.apps_admitted as f64),
        ("model.goodput_mean", agg.goodput.mean),
        (
            "model.reject_frac",
            ratio(
                agg.apps_rejected as f64,
                (agg.apps_admitted + agg.apps_rejected) as f64,
            ),
        ),
        (
            "trace.coverage",
            ratio(t.covered_ns() as f64 / 1e9, t.own_wall_s()),
        ),
        ("trace.overhead_ratio", ratio(t.own_wall_s(), untraced)),
    ]);
    Ok(Report {
        attempted: 1,
        failed,
        metrics: m,
    })
}

/// The per-layer figures a trace yields (model and harness figures are
/// added by the caller).
fn layer_metrics(t: &Trace) -> Vec<(&'static str, f64)> {
    let us = |ns: f64| ns / 1e3;
    let ms = |ns: f64| ns / 1e6;
    let class = |c: StepClass| &t.classes[c as usize];
    let cache = t.cache.stats();
    vec![
        ("scenario.generate_s", t.generate.total_s()),
        ("scenario.build_mesh_s", t.build_mesh.total_s()),
        ("emu.deploy_s", t.deploy.total_s()),
        ("emu.step.count", t.step.count() as f64),
        ("emu.step.p50_us", us(t.step.quantile_ns(0.50))),
        ("emu.step.p99_us", us(t.step.quantile_ns(0.99))),
        ("emu.step.total_s", t.step.total_s()),
        ("emu.step.fault_s", class(StepClass::Fault).total_s()),
        (
            "emu.step.fault_count",
            class(StepClass::Fault).count() as f64,
        ),
        ("emu.step.ctl_s", class(StepClass::Controller).total_s()),
        (
            "emu.step.ctl_count",
            class(StepClass::Controller).count() as f64,
        ),
        ("emu.step.plain_s", class(StepClass::Plain).total_s()),
        (
            "emu.step.plain_count",
            class(StepClass::Plain).count() as f64,
        ),
        ("emu.admit.count", t.admit.count() as f64),
        ("emu.admit.p50_us", us(t.admit.quantile_ns(0.50))),
        ("emu.admit.rejected", t.admit_rejected as f64),
        ("emu.retire_s", t.retire.total_s()),
        ("emu.skip.scans", t.skip_scan.count() as f64),
        ("emu.skip.scan_s", t.skip_scan.total_s()),
        ("emu.skip.ticks_skipped", t.ticks_skipped as f64),
        (
            "emu.skip.useful_ratio",
            ratio(t.skip_useful as f64, t.skip_scan.count() as f64),
        ),
        (
            "emu.displaced.component_ticks",
            t.displaced_component_ticks as f64,
        ),
        ("mesh.advance.p50_us", us(t.advance.quantile_ns(0.50))),
        ("mesh.advance.p99_us", us(t.advance.quantile_ns(0.99))),
        (
            "mesh.routing.compute_ms",
            ms(t.routing_compute.quantile_ns(0.50)),
        ),
        ("mesh.set_link_up_ms", ms(t.set_link_up.quantile_ns(0.50))),
        ("mesh.set_node_up_ms", ms(t.set_node_up.quantile_ns(0.50))),
        ("core.rank_nodes_us", us(t.rank_nodes.quantile_ns(0.50))),
        (
            "core.select_target_us",
            us(t.select_target.quantile_ns(0.50)),
        ),
        (
            "core.select_target.infeasible_ratio",
            ratio(t.select_infeasible as f64, t.select_target.count() as f64),
        ),
        (
            "core.score_cache.hit_ratio",
            ratio(cache.hits as f64, (cache.hits + cache.misses) as f64),
        ),
        ("core.score_cache.flushes", cache.flushes as f64),
        (
            "netmon.headroom_probe_us",
            us(t.headroom_probe.quantile_ns(0.50)),
        ),
        ("netmon.full_probe_us", us(t.full_probe.quantile_ns(0.50))),
    ]
}

/// One mesh-only set-up: input generation plus the mesh build, timed
/// into `t` when tracing.
fn steady_setup(
    seed: u64,
    t: Option<&mut Trace>,
) -> Result<(steady::Input, steady::Built, Duration), String> {
    let started = Instant::now();
    let input = steady::generate(seed);
    let generated = Instant::now();
    let built = steady::build(&input)?;
    let done = Instant::now();
    if let Some(t) = t {
        t.generate.push(generated - started);
        t.build_mesh.push(done - generated);
    }
    Ok((input, built, done - started))
}

/// The reference window's checksum, altered when the self-check asks.
fn steady_reference(opts: &Options, w: &steady::Window) -> Result<u64, String> {
    if !w.feasible {
        return Err("reference window over-allocated a link".to_string());
    }
    Ok(if opts.corrupt_reference {
        w.checksum ^ 1
    } else {
        w.checksum
    })
}

fn run_steady(opts: &Options) -> Result<Report, String> {
    let ticks = steady::WINDOW_TICKS / opts.scale;
    let (input, pristine, first) = steady_setup(opts.seed, None)?;
    let (_, separate, second) = steady_setup(opts.seed, None)?;
    let mut setups = vec![vec![first], vec![second]];
    let reference = steady::window(&input, separate, opts.seed, ticks, None);
    let expected = steady_reference(opts, &reference)?;
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut passes = Vec::new();
    let mut peak_mb = 0.0f64;
    let started = Instant::now();
    loop {
        attempted += 1;
        let heap = heap::Watermark::start();
        let w = steady::window(&input, pristine.clone(), opts.seed, ticks, None);
        peak_mb = peak_mb.max(heap.peak_mb());
        eprintln!(
            "window {attempted}: {:.1} ticks/s",
            ticks as f64 / w.took.as_secs_f64()
        );
        passes.push(w.ticks);
        if w.checksum != expected || !w.feasible {
            eprintln!("window {attempted}: allocation differs from the reference");
            failed += 1;
        }
        if !another_pass(opts, started, w.took) {
            break;
        }
    }
    drop(pristine);
    while setups.len() < MIN_MESH_SETUPS {
        setups.push(vec![steady_setup(opts.seed, None)?.2]);
    }
    Ok(Report {
        attempted,
        failed,
        metrics: vec![
            (
                "ticks_per_s",
                ticks as f64 / fastest_total(&passes)?.as_secs_f64(),
            ),
            ("setup_s", setup_seconds(&setups)?),
            ("peak_heap_mb", peak_mb),
        ],
    })
}

fn trace_steady(opts: &Options) -> Result<Report, String> {
    let ticks = steady::WINDOW_TICKS / opts.scale;
    // The untraced reference window doubles as the overhead baseline.
    let (input, separate, _) = steady_setup(opts.seed, None)?;
    let reference = steady::window(&input, separate, opts.seed, ticks, None);
    let expected = steady_reference(opts, &reference)?;

    let mut t = Trace::default();
    let started = Instant::now();
    let (input, built, _) = steady_setup(opts.seed, Some(&mut t))?;
    let w = steady::window(&input, built, opts.seed, ticks, Some(&mut t));
    t.wall = started.elapsed();
    let routing = steady::time_routing(&input);
    t.routing_compute.push(routing);
    let failed = u64::from(w.checksum != expected || !w.feasible);
    if failed > 0 {
        eprintln!("traced window: allocation differs from the reference");
    }
    let mut m = layer_metrics(&t);
    m.extend([
        ("model.migrations", 0.0),
        ("model.unplaceable", 0.0),
        ("model.faults_injected", 0.0),
        ("model.apps_admitted", 0.0),
        ("model.goodput_mean", 0.0),
        ("model.reject_frac", 0.0),
        (
            "trace.coverage",
            ratio(t.covered_ns() as f64 / 1e9, t.own_wall_s()),
        ),
        (
            "trace.overhead_ratio",
            ratio(w.took.as_secs_f64(), reference.took.as_secs_f64()),
        ),
    ]);
    Ok(Report {
        attempted: 1,
        failed,
        metrics: m,
    })
}

/// The metric names and units `BENCHMARK.json` declares under `key`.
fn declared_metrics(key: &str) -> Result<Vec<(String, String)>, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("cannot read BENCHMARK.json: {e}"))?;
    let doc: serde_json::Value =
        serde_json::from_str(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let list = doc
        .get(key)
        .and_then(|v| v.as_array())
        .ok_or_else(|| format!("BENCHMARK.json has no {key} list"))?;
    list.iter()
        .map(|m| {
            let field = |f: &str| {
                m.get(f)
                    .and_then(|v| v.as_str())
                    .map(str::to_string)
                    .ok_or_else(|| format!("{key} entry without {f}"))
            };
            Ok((field("name")?, field("unit")?))
        })
        .collect()
}

/// Runs every workload shrunk in both modes; see the crate docs.
fn self_check() -> Result<(), String> {
    let expect = |key: &str, own: &[(&str, &str)]| -> Result<(), String> {
        let declared = declared_metrics(key)?;
        let own: Vec<(String, String)> = own
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        if declared != own {
            return Err(format!(
                "BENCHMARK.json {key} differs from the metrics emitted"
            ));
        }
        Ok(())
    };
    expect("end_to_end", &END_TO_END)?;
    expect("per_layer", &PER_LAYER)?;
    for workload in Workload::ALL {
        for trace in [false, true] {
            let opts = Options {
                workload,
                seed: 7,
                seconds: 0.0,
                trace,
                scale: 20,
                corrupt_reference: false,
            };
            let report = run(&opts)?;
            let names: Vec<&str> = report.metrics.iter().map(|(n, _)| *n).collect();
            let want: Vec<&str> = if trace {
                PER_LAYER.iter()
            } else {
                END_TO_END.iter()
            }
            .map(|(n, _)| *n)
            .collect();
            if names != want {
                return Err(format!(
                    "{} trace={trace}: emitted {names:?}",
                    workload.name()
                ));
            }
            if report.failed != 0 {
                return Err(format!(
                    "{} trace={trace}: a clean run failed",
                    workload.name()
                ));
            }
            eprintln!(
                "{} trace={trace}: corrupting the reference",
                workload.name()
            );
            let corrupted = run(&Options {
                corrupt_reference: true,
                ..opts
            })?;
            if corrupted.failed != corrupted.attempted {
                return Err(format!(
                    "{} trace={trace}: a corrupted reference was not caught",
                    workload.name()
                ));
            }
            println!("{} trace={trace}: {}", workload.name(), report.to_json());
        }
    }
    println!("self-check passed");
    Ok(())
}

fn parse_args() -> Result<Option<Options>, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(arg) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{arg} needs a value"));
        match arg.as_str() {
            "--self-check" => return Ok(None),
            "--workload" => {
                let v = value()?;
                workload =
                    Some(Workload::parse(&v).ok_or_else(|| format!("unknown workload {v}"))?);
            }
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let v: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(v.is_finite() && v >= 0.0) {
                    return Err("--seconds must be a non-negative number".to_string());
                }
                seconds = Some(v);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not {other}")),
                })
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Some(Options {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        scale: 1,
        corrupt_reference: false,
    }))
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(Some(opts)) => opts,
        Ok(None) => {
            return match self_check() {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("self-check failed: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        Err(e) => {
            eprintln!("bass-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&opts) {
        Ok(report) => {
            println!("{}", report.to_json());
            if report.failed == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("bass-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
