//! Dirty-set pipeline battery: with tracking on (the default) the
//! O(dirty) paths — demand diff, trace-driven capacity refresh, usage
//! deltas, the active-flow queue pass, and the cached controller target
//! selector — must be bit-identical to the full-recompute paths
//! (`Mesh::set_dirty_tracking(false)`, `verify_score_cache` off) under
//! randomized churn, storm, and trace schedules, per engine, ticked and
//! event-driven (see `docs/ARCHITECTURE.md` § dirty-set propagation).

use bass::appdag::catalog;
use bass::apps::testbeds::citylab_testbed;
use bass::core::{ControllerConfig, StepMode};
use bass::emu::{SimEnv, SimEnvConfig};
use bass::faults::{FaultPlan, StormProfile};
use bass::mesh::{AllocEngine, CapacitySource, FlowId, Mesh, NodeId, Topology};
use bass::obs::Journal;
use bass::trace::OuTraceConfig;
use bass::util::rng::SimRng;
use bass::util::time::SimDuration;
use bass::util::units::Bandwidth;
use proptest::prelude::*;

/// The allocation engine CI selects via `BASS_TEST_ENGINE` for the
/// env-level runs below; defaults to the production delta engine.
/// The mesh-level proptest always sweeps both engines itself.
fn engine_under_test() -> AllocEngine {
    match std::env::var("BASS_TEST_ENGINE").as_deref() {
        Ok("dense") => AllocEngine::Dense,
        _ => AllocEngine::default(),
    }
}

/// Ring + random chords topology: always connected, arbitrary shape.
fn ring_with_chords(n: u32, extra: usize, seed: u64) -> Topology {
    let mut rng = SimRng::seed_from_u64(seed);
    let mut topo = Topology::new();
    for i in 0..n {
        topo.add_node(NodeId(i)).unwrap();
    }
    for i in 0..n {
        topo.add_link(NodeId(i), NodeId((i + 1) % n)).ok();
    }
    for _ in 0..extra {
        let a = rng.below(n as u64) as u32;
        let b = rng.below(n as u64) as u32;
        if a != b {
            topo.add_link(NodeId(a), NodeId(b)).ok();
        }
    }
    topo
}

/// Rates and backlogs must match bit-for-bit across every mesh in
/// `meshes`; the first entry is the oracle.
fn assert_meshes_agree(meshes: &[(&'static str, Mesh)], ids: &[FlowId], when: &str) {
    let ((ref_name, reference), rest) = meshes.split_first().expect("at least one mesh");
    for (name, other) in rest {
        for &id in ids {
            let ra = reference.flow_rate(id).as_bps();
            let rb = other.flow_rate(id).as_bps();
            assert_eq!(
                ra.to_bits(),
                rb.to_bits(),
                "{when}: flow {id} rate diverged ({ref_name} {ra} vs {name} {rb} bps)"
            );
            let ba = reference.flow_backlog(id).unwrap().as_bytes();
            let bb = other.flow_backlog(id).unwrap().as_bytes();
            assert_eq!(
                ba, bb,
                "{when}: flow {id} backlog diverged ({ref_name} {ba} vs {name} {bb} bytes)"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    // A random schedule mixing quiescent stretches, link-cap churn,
    // demand rewrites, flow add/remove, egress caps, and up/down storms
    // over OU-trace links: every engine with dirty-set tracking on must
    // stay bit-identical to its tracking-off twin and to the dense
    // oracle, tick after tick. The tracked meshes audit their usage
    // views against a full recompute on every single tick and must
    // never record a drift rebuild.
    #[test]
    fn dirty_tracking_is_bit_identical_under_random_schedules(
        n in 3u32..8,
        extra in 0usize..6,
        n_flows in 2usize..8,
        mean in 8.0f64..40.0,
        rel_std in 0.05f64..0.35,
        seed in any::<u64>(),
    ) {
        let topo = ring_with_chords(n, extra, seed);
        let mk = |engine: AllocEngine, tracking: bool| {
            let mut mesh =
                Mesh::with_uniform_capacity(topo.clone(), Bandwidth::from_mbps(mean)).unwrap();
            mesh.set_alloc_engine(engine);
            mesh.set_dirty_tracking(tracking);
            if tracking {
                // Audit the maintained usage views against a full
                // recompute every tick; drift would bump the counter
                // asserted zero at the end.
                mesh.set_usage_check_every(1);
            }
            // Every other link breathes under its own OU trace so the
            // capacity diff's change-point schedule actually fires on
            // some ticks and stays silent on others.
            for (lid, link) in topo.links().collect::<Vec<_>>() {
                if lid.0 % 2 == 0 {
                    let cfg =
                        OuTraceConfig::new(format!("l{}", lid.0), mean).relative_std(rel_std);
                    let trace = cfg.generate(seed ^ lid.0 as u64, SimDuration::from_secs(30));
                    mesh.set_link_source(link.a, link.b, CapacitySource::Trace(trace)).unwrap();
                }
            }
            mesh
        };
        let mut meshes = vec![
            ("dense", mk(AllocEngine::Dense, false)),
            ("delta+dirty", mk(AllocEngine::Delta, true)),
            ("delta+full", mk(AllocEngine::Delta, false)),
        ];
        let mut rng = SimRng::seed_from_u64(seed ^ 0xD187);
        let mut ids = Vec::new();
        for _ in 0..n_flows {
            let src = NodeId(rng.below(n as u64) as u32);
            let dst = NodeId(rng.below(n as u64) as u32);
            let demand = Bandwidth::from_mbps(rng.uniform(0.5, 2.0 * mean));
            let mut id = None;
            for (_, mesh) in &mut meshes {
                id = Some(mesh.add_flow(src, dst, demand).unwrap());
            }
            ids.push(id.unwrap());
        }
        let step = SimDuration::from_millis(250);
        for tick in 0..32u32 {
            // One random mutation per tick — weighted toward "nothing",
            // the steady state the dirty paths are built for.
            match rng.below(12) {
                0 => {
                    let a = NodeId(rng.below(n as u64) as u32);
                    let b = NodeId((a.0 + 1) % n);
                    let cap = Some(Bandwidth::from_mbps(rng.uniform(1.0, 1.5 * mean)));
                    for (_, mesh) in &mut meshes {
                        mesh.set_link_cap(a, b, cap).unwrap();
                    }
                }
                1 => {
                    let a = NodeId(rng.below(n as u64) as u32);
                    let b = NodeId((a.0 + 1) % n);
                    for (_, mesh) in &mut meshes {
                        mesh.set_link_cap(a, b, None).unwrap();
                    }
                }
                2 if !ids.is_empty() => {
                    let id = ids[rng.below(ids.len() as u64) as usize];
                    let demand = Bandwidth::from_mbps(rng.uniform(0.1, 2.5 * mean));
                    for (_, mesh) in &mut meshes {
                        mesh.set_flow_demand(id, demand).unwrap();
                    }
                }
                3 if ids.len() < 12 => {
                    let src = NodeId(rng.below(n as u64) as u32);
                    let dst = NodeId(rng.below(n as u64) as u32);
                    let demand = Bandwidth::from_mbps(rng.uniform(0.5, 2.0 * mean));
                    let mut id = None;
                    for (_, mesh) in &mut meshes {
                        id = Some(mesh.add_flow(src, dst, demand).unwrap());
                    }
                    ids.push(id.unwrap());
                }
                4 if ids.len() > 1 => {
                    let id = ids.swap_remove(rng.below(ids.len() as u64) as usize);
                    for (_, mesh) in &mut meshes {
                        mesh.remove_flow(id).unwrap();
                    }
                }
                5 => {
                    let node = NodeId(rng.below(n as u64) as u32);
                    let cap = (rng.below(2) == 0)
                        .then(|| Bandwidth::from_mbps(rng.uniform(1.0, mean)));
                    for (_, mesh) in &mut meshes {
                        mesh.set_node_egress_cap(node, cap).unwrap();
                    }
                }
                6 => {
                    let a = NodeId(rng.below(n as u64) as u32);
                    let b = NodeId((a.0 + 1) % n);
                    let up = rng.below(2) == 0;
                    for (_, mesh) in &mut meshes {
                        mesh.set_link_up(a, b, up).unwrap();
                    }
                }
                7 => {
                    let node = NodeId(rng.below(n as u64) as u32);
                    let up = rng.below(3) != 0;
                    for (_, mesh) in &mut meshes {
                        mesh.set_node_up(node, up).unwrap();
                    }
                }
                _ => {} // quiescent tick
            }
            for (_, mesh) in &mut meshes {
                mesh.advance(step);
            }
            assert_meshes_agree(&meshes, &ids, &format!("schedule tick {tick}"));
        }
        for (name, mesh) in &meshes {
            prop_assert_eq!(
                mesh.usage_view_rebuilds(),
                0,
                "{} drifted: the per-tick usage audit had to rebuild",
                name
            );
        }
    }
}

/// A seeded Poisson storm over the CityLab workers and their volatile
/// links — crashes, flaps, and probe-loss episodes composed — so the
/// dirty sets see fault transitions, not just trace steps.
fn storm_plan(seed: u64, horizon_s: u64) -> FaultPlan {
    let profile = StormProfile {
        node_crash_rate: 1.0 / 50.0,
        crash_downtime_s: 20.0,
        link_flap_rate: 1.0 / 40.0,
        flap_downtime_s: 8.0,
        probe_loss_rate: 1.0 / 90.0,
        probe_loss_p: 0.4,
        probe_loss_duration_s: 30.0,
        nodes: vec![NodeId(2), NodeId(3), NodeId(4)],
        links: vec![
            (NodeId(1), NodeId(2)),
            (NodeId(2), NodeId(3)),
            (NodeId(3), NodeId(4)),
        ],
    };
    FaultPlan::poisson(seed, SimDuration::from_secs(horizon_s), &profile)
}

/// The camera pipeline on the trace-driven CityLab testbed under the
/// composed storm, with the dirty paths and the score-cache oracle
/// toggled explicitly; returns the journal for byte comparison.
fn storm_journal(
    mode: StepMode,
    dirty_tracking: bool,
    verify_score_cache: bool,
    seed: u64,
    secs: u64,
) -> String {
    let (mesh, cluster, _) = citylab_testbed(seed, SimDuration::from_secs(secs + 60));
    let cfg = SimEnvConfig {
        faults: storm_plan(seed, secs),
        alloc_engine: engine_under_test(),
        step_mode: mode,
        controller: ControllerConfig { verify_score_cache, ..Default::default() },
        ..Default::default()
    };
    let mut env = SimEnv::new(mesh, cluster, catalog::camera_pipeline(), cfg);
    env.attach_journal(Journal::new());
    env.deploy(&[]).expect("deploys");
    env.mesh_mut().set_dirty_tracking(dirty_tracking);
    env.run_for(SimDuration::from_secs(secs), |_| {}).expect("storm run completes");
    env.take_journal().expect("journal attached").export_jsonl()
}

// Ticked vs event-driven, dirty-set tracking on vs off: all four
// replays of the same storm must export byte-identical journals. This
// is the end-to-end closure of the mesh-level proptest above — the
// dirty paths may not change a single observable byte in either step
// mode, for whichever engine CI's matrix selects.
#[test]
fn storm_replay_is_dirty_tracking_and_step_mode_independent() {
    let reference = storm_journal(StepMode::Ticked, true, false, 0xD187, 240);
    assert!(!reference.is_empty());
    for (mode, tracking) in [
        (StepMode::Ticked, false),
        (StepMode::EventDriven, true),
        (StepMode::EventDriven, false),
    ] {
        let journal = storm_journal(mode, tracking, false, 0xD187, 240);
        assert_eq!(
            reference, journal,
            "journal diverged at mode {mode:?}, dirty_tracking={tracking}"
        );
    }
}

// The score-cache debug oracle re-scores every cached target with the
// dense scorer and asserts bit-equality inside the controller; running
// with it on must also leave the journal byte-identical — the oracle
// observes, never steers.
#[test]
fn score_cache_oracle_passes_and_changes_nothing() {
    let plain = storm_journal(StepMode::Ticked, true, false, 0x5C0E, 240);
    let verified = storm_journal(StepMode::Ticked, true, true, 0x5C0E, 240);
    assert!(!plain.is_empty());
    assert_eq!(plain, verified, "verify_score_cache must not change behavior");
}
