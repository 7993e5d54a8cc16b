//! Mesh hot-path scaling benchmark.
//!
//! ```text
//! scale [--quick] [--out FILE]
//! ```
//!
//! Times `Mesh::advance` ticks/sec on a synthetic districted city mesh
//! from 10 nodes × 50 flows up to 2000 nodes × 20000 flows, for the
//! production delta engine and (at sizes where it finishes in
//! reasonable time) the dense reference engine, then writes the
//! measurements to `BENCH_mesh.json` (override with `--out`). Both
//! engines produce bit-identical allocations, so every ratio is a pure
//! cost comparison — see `docs/PERFORMANCE.md` for how to read it.
//!
//! The workload models the steady state the delta engine is built for
//! (see `docs/ARCHITECTURE.md`): the grid is sliced into districts,
//! every flow stays inside its district (so each district is one
//! constraint component), demands are underloaded (queues stay empty),
//! and each tick one seeded link-capacity change arrives — the "common
//! OU-trace tick" of a community mesh, where one link's reported
//! bandwidth moves and the rest of the city is quiescent.
//!
//! `--quick` shrinks the size ladder and the per-point measuring window
//! to a fraction of a second; CI runs it as a smoke test (and asserts
//! the dirty-set steady state beats full refresh at the 500-node rung)
//! to keep this harness from rotting.

use bass_core::StepMode;
use bass_mesh::mesh::AllocEngine;
use bass_mesh::{CapacitySource, Mesh, NodeId, Topology};
use bass_scenario::{CampaignOptions, ScenarioSpec, TopologySpec};
use bass_util::rng::SimRng;
use bass_util::time::SimDuration;
use bass_util::units::Bandwidth;
use serde::Serialize;
use std::process::ExitCode;

/// Every topology/flow/capacity draw derives from this seed, so the
/// workload is identical across runs and engines.
const SEED: u64 = 0x5CA1E;

/// Nodes per district: the grid is cut into row-bands of roughly this
/// many nodes, and flows never leave their band.
const DISTRICT_NODES: usize = 100;

/// One engine's throughput at one mesh size.
#[derive(Debug, Clone, Serialize)]
struct EngineResult {
    /// Simulated ticks completed inside the measuring window.
    ticks: u64,
    /// Wall-clock seconds the window actually took.
    elapsed_s: f64,
    /// `ticks / elapsed_s` — the headline number.
    ticks_per_sec: f64,
}

/// Every engine's throughput at one mesh size.
#[derive(Debug, Clone, Serialize)]
struct SizeResult {
    /// Node count of the synthetic grid.
    nodes: usize,
    /// Flow count over it.
    flows: usize,
    /// Link count the grid ended up with.
    links: usize,
    /// Districts the grid was cut into (= constraint components).
    districts: usize,
    /// The production engine (`AllocEngine::Delta`).
    delta: EngineResult,
    /// The 1-dirty-district steady state: delta with every
    /// perturbation confined to district 0, so tick after tick the same
    /// single component is dirty and the rest of the city never moves —
    /// the regime the dirty-set pipeline (O(dirty) demand/capacity/
    /// usage/queue passes) is built for. Only measured where several
    /// districts exist.
    delta_steady: Option<EngineResult>,
    /// The same district-0 stream with dirty-set tracking switched off
    /// (`Mesh::set_dirty_tracking(false)`): every tick re-walks all
    /// flows and links, the pre-dirty-set behaviour. The gap to
    /// `delta_steady` is what the dirty-set pipeline buys.
    delta_steady_fullref: Option<EngineResult>,
    /// The reference oracle (`AllocEngine::Dense`); skipped at sizes
    /// where a single dense tick is impractically slow.
    dense: Option<EngineResult>,
    /// `delta.ticks_per_sec / dense.ticks_per_sec`, when measured.
    speedup: Option<f64>,
}

/// Ticked vs event-driven throughput on the quiescence-heavy city-500
/// campaign (see `docs/PERFORMANCE.md`).
#[derive(Debug, Clone, Serialize)]
struct StepModeResult {
    /// Scenario name (`"city-500"`).
    scenario: String,
    /// Ticks per replica.
    horizon_ticks: u64,
    /// One-time scenario/mesh setup (identical in both modes; excluded
    /// from the throughput numbers below).
    setup_s: f64,
    /// The reference loop, executing every tick.
    ticked: EngineResult,
    /// The event-driven loop, skipping provably quiescent windows.
    event_driven: EngineResult,
    /// `event_driven.ticks_per_sec / ticked.ticks_per_sec`.
    speedup: f64,
}

/// The whole `BENCH_mesh.json` document.
#[derive(Debug, Clone, Serialize)]
struct BenchReport {
    /// Document discriminator (`"mesh_scale"`).
    bench: String,
    /// `"full"` or `"quick"`.
    mode: String,
    /// Simulated step per tick, in milliseconds.
    step_ms: u64,
    /// One entry per point on the size ladder.
    sizes: Vec<SizeResult>,
    /// The event-driven rung: ticked vs event-driven on city-500.
    event_driven: StepModeResult,
}

/// Builds a connected row-major grid: node `i` links right to `i+1`
/// (same row) and down to `i+width`. A partial last row stays connected
/// through its up-links.
fn grid_topology(nodes: usize) -> Topology {
    let width = (nodes as f64).sqrt().ceil() as usize;
    let mut topo = Topology::new();
    for i in 0..nodes {
        topo.add_node(NodeId(i as u32)).expect("fresh node id");
    }
    for i in 0..nodes {
        let right = i + 1;
        if right < nodes && right % width != 0 {
            topo.add_link(NodeId(i as u32), NodeId(right as u32)).expect("fresh link");
        }
        let down = i + width;
        if down < nodes {
            topo.add_link(NodeId(i as u32), NodeId(down as u32)).expect("fresh link");
        }
    }
    topo
}

/// How many districts an `nodes`-node grid is cut into.
fn district_count(nodes: usize) -> usize {
    nodes.div_ceil(DISTRICT_NODES).max(1)
}

/// The discrete per-flow demand levels, mirroring the paper's three
/// application classes (camera clip upload, video-conference leg,
/// social-network sync). Quantized demands matter for speed as well as
/// realism: each water-filling round freezes every flow at the level it
/// reaches, so rounds per component stay bounded by the level count
/// instead of degenerating to one round per distinct demand.
const DEMAND_LEVELS_MBPS: [f64; 3] = [0.1, 0.15, 0.25];

/// Builds the benchmark mesh for one ladder point: grid topology cut
/// into row-band districts, per-link constant capacities drawn from
/// 50–150 Mbps, and `flows` flows at one of [`DEMAND_LEVELS_MBPS`]
/// whose endpoints stay inside one district. The load is deliberately
/// light: queues stay empty, so on a tick without a capacity change no
/// demand moves — the delta engine's quiescent case.
fn build_mesh(nodes: usize, flows: usize, engine: AllocEngine) -> Mesh {
    let mut rng = SimRng::seed_from_u64(SEED ^ (nodes as u64) << 16 ^ flows as u64);
    let topo = grid_topology(nodes);
    let link_ids: Vec<_> = topo.links().map(|(lid, l)| (lid, l.a, l.b)).collect();
    let mut mesh = Mesh::new(topo).expect("grid is connected");
    mesh.set_alloc_engine(engine);
    for (_, a, b) in &link_ids {
        let cap = Bandwidth::from_mbps(rng.uniform(50.0, 150.0));
        mesh.set_link_source(*a, *b, CapacitySource::Constant(cap))
            .expect("link exists");
    }
    let districts = district_count(nodes);
    let per_district = nodes.div_ceil(districts);
    for _ in 0..flows {
        let d = rng.below(districts as u64) as usize;
        let lo = d * per_district;
        let hi = ((d + 1) * per_district).min(nodes);
        let span = (hi - lo) as u64;
        let src = lo as u64 + rng.below(span);
        let mut dst = lo as u64 + rng.below(span);
        while dst == src {
            dst = lo as u64 + rng.below(span);
        }
        let demand = Bandwidth::from_mbps(
            DEMAND_LEVELS_MBPS[rng.below(DEMAND_LEVELS_MBPS.len() as u64) as usize],
        );
        mesh.add_flow(NodeId(src as u32), NodeId(dst as u32), demand)
            .expect("valid endpoints");
    }
    mesh
}

/// Which links the per-tick perturbation stream may touch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stream {
    /// One capped link per tick, drawn mesh-wide — at most one dirty
    /// district per tick, a *different* one each tick. The sparse
    /// regime the delta engine targets.
    Sparse,
    /// One capped link per tick, always drawn from district 0 — the
    /// 1-dirty-district steady state, where the same single component
    /// is dirty tick after tick and the rest of the city never moves.
    /// The regime the dirty-set demand/capacity/usage/queue passes are
    /// built for.
    Steady,
}

/// Ticks `mesh` for at least `window_s` wall-clock seconds (after a
/// short warmup) and reports the achieved tick rate. Each tick first
/// applies one seeded link-capacity change (`tc`-style cap between 30
/// and 120 Mbps, sometimes above the link's base rate and therefore
/// inert) — the sparse-perturbation regime the delta engine targets.
/// The perturbation stream depends only on the seed and the tick index,
/// so every engine replays the identical workload. `stream` picks
/// which links the perturbations may touch — see [`Stream`].
fn measure(
    mut mesh: Mesh,
    nodes: usize,
    step: SimDuration,
    window_s: f64,
    stream: Stream,
) -> EngineResult {
    let per_district = nodes.div_ceil(district_count(nodes));
    let links: Vec<(NodeId, NodeId)> = mesh
        .topology()
        .links()
        .map(|(_, l)| (l.a, l.b))
        .filter(|(a, _)| stream == Stream::Sparse || (a.0 as usize) < per_district)
        .collect();
    let mut rng = SimRng::seed_from_u64(SEED ^ 0xD15F ^ nodes as u64);
    let perturb = |mesh: &mut Mesh, rng: &mut SimRng| {
        let (a, b) = links[rng.below(links.len() as u64) as usize];
        let cap = Bandwidth::from_mbps(rng.uniform(30.0, 120.0));
        mesh.set_link_cap(a, b, Some(cap)).expect("link exists");
    };
    for _ in 0..3 {
        perturb(&mut mesh, &mut rng);
        mesh.advance(step);
    }
    let started = std::time::Instant::now();
    let mut ticks = 0u64;
    loop {
        perturb(&mut mesh, &mut rng);
        mesh.advance(step);
        ticks += 1;
        let elapsed = started.elapsed().as_secs_f64();
        if elapsed >= window_s {
            return EngineResult {
                ticks,
                elapsed_s: elapsed,
                ticks_per_sec: ticks as f64 / elapsed,
            };
        }
    }
}

/// The quiescence-heavy city-500 scenario the event-driven rung runs:
/// 500 nodes, under-subscribed OU links sampled every 60 s, rare fades,
/// slow churn, no fault storm — long stretches where every tick is a
/// provable no-op, which is exactly the regime community meshes sit in
/// overnight (see `docs/PERFORMANCE.md`).
fn city500_spec(horizon_ticks: u64) -> ScenarioSpec {
    let mut spec = ScenarioSpec::small_reference();
    spec.name = "city-500".to_string();
    spec.topology = TopologySpec::RandomGeometric { nodes: 500, radius: 0.12 };
    spec.nodes.gateways = 8;
    // Under-subscribed, mildly varying links on a coarse sample grid:
    // capacity change-points arrive once a minute, aligned across links.
    spec.links.mean_mbps_min = 40.0;
    spec.links.mean_mbps_max = 80.0;
    spec.links.relative_std_min = 0.02;
    spec.links.relative_std_max = 0.05;
    spec.links.sample_interval_s = 60.0;
    spec.links.fade_rate_per_min = 0.005;
    spec.workload.max_concurrent = 20;
    spec.workload.initial_apps = 8;
    spec.workload.arrival_rate_per_s = 0.002;
    spec.workload.mean_lifetime_s = 4000.0;
    spec.faults = None;
    spec.horizon_ticks = horizon_ticks;
    spec.step_ms = 1000;
    spec.sample_every_ticks = 100;
    spec.replicas = 1;
    spec
}

/// Runs the city-500 campaign in one step mode and reports simulated
/// ticks per wall-clock second plus the summary bytes (the caller
/// cross-checks the two modes byte-for-byte). Throughput is measured
/// over stepping time only: the one-time scenario/mesh setup — identical
/// work in both modes, reported separately as `setup_s` — is subtracted
/// via the `campaign.setup` span so the rung compares the loops, not
/// the constructor. Same convention as the ladder above, which also
/// builds its mesh outside the timed region.
fn measure_campaign(spec: &ScenarioSpec, step_mode: StepMode) -> (EngineResult, f64, String) {
    let opts = CampaignOptions { step_mode, profile: true, ..CampaignOptions::default() };
    let started = std::time::Instant::now();
    let run = bass_scenario::run_campaign_opts(spec, SEED, &opts)
        .expect("city-500 campaign runs");
    let elapsed = started.elapsed().as_secs_f64();
    let setup_s = run
        .profiler
        .as_ref()
        .and_then(|p| p.stats("campaign.setup"))
        .map_or(0.0, |s| s.total_ns as f64 / 1e9);
    let stepping = (elapsed - setup_s).max(1e-9);
    let ticks = run.summary.aggregate.ticks;
    (
        EngineResult { ticks, elapsed_s: stepping, ticks_per_sec: ticks as f64 / stepping },
        setup_s,
        run.summary.to_json(),
    )
}

fn main() -> ExitCode {
    let mut quick = false;
    let mut out = std::path::PathBuf::from("BENCH_mesh.json");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--out" => match args.next() {
                Some(path) => out = std::path::PathBuf::from(path),
                None => {
                    eprintln!("--out requires a file path");
                    return ExitCode::FAILURE;
                }
            },
            "--help" | "-h" => {
                println!("usage: scale [--quick] [--out FILE]");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown flag '{other}'");
                return ExitCode::FAILURE;
            }
        }
    }

    // The dense path is O(links × flows × path-len) per tick, so above
    // 100 nodes a single dense point would dominate the whole run; the
    // delta ladder keeps going to show the trend. Quick keeps the
    // 500-node point: it is the rung CI's smoke gate checks the
    // dirty-set steady state at.
    let (ladder, window_s, dense_max_nodes): (&[(usize, usize)], f64, usize) = if quick {
        (&[(10, 50), (100, 1000), (500, 5000)], 0.05, 100)
    } else {
        (
            &[
                (10, 50),
                (50, 500),
                (100, 1000),
                (200, 2000),
                (500, 5000),
                (1000, 10000),
                (2000, 20000),
            ],
            1.0,
            100,
        )
    };
    let step = SimDuration::from_millis(100);

    let mut sizes = Vec::new();
    for &(nodes, flows) in ladder {
        let mesh = build_mesh(nodes, flows, AllocEngine::Delta);
        let links = mesh.topology().link_count();
        let districts = district_count(nodes);
        let delta = measure(mesh, nodes, step, window_s, Stream::Sparse);
        // The 1-dirty-district pair replays the identical district-0
        // stream with dirty-set tracking on (the default) and off (the
        // full-refresh oracle); the two runs produce bit-identical
        // allocations, so the ratio is a pure cost comparison and CI
        // gates on it at the 500-node rung.
        let delta_steady = (districts > 1).then(|| {
            measure(
                build_mesh(nodes, flows, AllocEngine::Delta),
                nodes,
                step,
                window_s,
                Stream::Steady,
            )
        });
        let delta_steady_fullref = (districts > 1).then(|| {
            let mut mesh = build_mesh(nodes, flows, AllocEngine::Delta);
            mesh.set_dirty_tracking(false);
            measure(mesh, nodes, step, window_s, Stream::Steady)
        });
        let dense = (nodes <= dense_max_nodes).then(|| {
            measure(
                build_mesh(nodes, flows, AllocEngine::Dense),
                nodes,
                step,
                window_s,
                Stream::Sparse,
            )
        });
        let speedup = dense.as_ref().map(|d| delta.ticks_per_sec / d.ticks_per_sec);
        println!(
            "{nodes:>4} nodes {flows:>5} flows {links:>4} links {districts:>2} districts | \
             delta {:>9.0} ticks/s{}{}",
            delta.ticks_per_sec,
            match (&delta_steady, &delta_steady_fullref) {
                (Some(d), Some(r)) => format!(
                    " | steady dirty {:>8.0} vs full {:>8.0} ticks/s ({:.1}x)",
                    d.ticks_per_sec,
                    r.ticks_per_sec,
                    d.ticks_per_sec / r.ticks_per_sec
                ),
                _ => String::new(),
            },
            match (&dense, speedup) {
                (Some(d), Some(s)) =>
                    format!(" | dense {:>7.0} ticks/s ({s:.1}x)", d.ticks_per_sec),
                _ => String::from(" | dense skipped"),
            }
        );
        sizes.push(SizeResult {
            nodes,
            flows,
            links,
            districts,
            delta,
            delta_steady,
            delta_steady_fullref,
            dense,
            speedup,
        });
    }

    // The event-driven rung: the same city-500 campaign through both
    // step modes. The summaries must match byte-for-byte — a throughput
    // number for a run that drifted would be meaningless.
    let spec = city500_spec(if quick { 800 } else { 6_000 });
    let (ticked, ticked_setup, ticked_summary) = measure_campaign(&spec, StepMode::Ticked);
    let (event_driven, event_setup, event_summary) =
        measure_campaign(&spec, StepMode::EventDriven);
    if ticked_summary != event_summary {
        eprintln!("event-driven city-500 summary diverged from ticked mode");
        return ExitCode::FAILURE;
    }
    let ed_speedup = event_driven.ticks_per_sec / ticked.ticks_per_sec;
    println!(
        "city-500 x {} ticks | ticked {:>7.0} ticks/s | event-driven {:>8.0} ticks/s \
         ({ed_speedup:.1}x, setup {:.2}s excluded, summaries byte-identical)",
        spec.horizon_ticks,
        ticked.ticks_per_sec,
        event_driven.ticks_per_sec,
        ticked_setup + event_setup,
    );
    let event_driven = StepModeResult {
        scenario: spec.name.clone(),
        horizon_ticks: spec.horizon_ticks,
        setup_s: ticked_setup + event_setup,
        ticked,
        event_driven,
        speedup: ed_speedup,
    };

    let report = BenchReport {
        bench: "mesh_scale".to_owned(),
        mode: if quick { "quick" } else { "full" }.to_owned(),
        step_ms: 100,
        sizes,
        event_driven,
    };
    let json = serde_json::to_string_pretty(&report).expect("serializable");
    if let Err(e) = std::fs::write(&out, json) {
        eprintln!("cannot write {}: {e}", out.display());
        return ExitCode::FAILURE;
    }
    println!("wrote {}", out.display());
    ExitCode::SUCCESS
}
