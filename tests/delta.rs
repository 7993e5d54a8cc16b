//! Delta-engine equivalence battery: the delta water-filler must be
//! bit-identical to the dense reference under OU-trace perturbation,
//! flow churn, and composed fault storms (see `docs/ARCHITECTURE.md`
//! for the equivalence contracts).

use bass::apps::testbeds::lan_testbed;
use bass::emu::{SimEnv, SimEnvConfig};
use bass::faults::{FaultPlan, StormProfile};
use bass::mesh::{AllocEngine, CapacitySource, FlowId, Mesh, NodeId, Topology};
use bass::obs::Journal;
use bass::trace::OuTraceConfig;
use bass::util::rng::SimRng;
use bass::util::time::SimDuration;
use bass::util::units::Bandwidth;
use proptest::prelude::*;

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

/// Per-flow rates must match bit-for-bit across every engine in `meshes`.
fn assert_rates_agree(meshes: &[&Mesh], ids: &[FlowId], when: &str) {
    let (reference, rest) = meshes.split_first().expect("at least one mesh");
    for other in rest {
        for &id in ids {
            let ra = reference.flow_rate(id).as_bps();
            let rb = other.flow_rate(id).as_bps();
            assert_eq!(
                ra.to_bits(),
                rb.to_bits(),
                "{when}: flow {id} diverged ({ra} vs {rb} bps)"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // OU traces move every link capacity every tick; the delta engine's
    // dirty-component scan must still reproduce the dense reference
    // exactly, tick after tick.
    #[test]
    fn delta_matches_dense_under_ou_traces(
        n in 3u32..8,
        extra in 0usize..6,
        n_flows in 2usize..8,
        mean in 8.0f64..40.0,
        rel_std in 0.05f64..0.4,
        seed in any::<u64>(),
    ) {
        let topo = ring_with_chords(n, extra, seed);
        let mk = |engine: AllocEngine| {
            let mut mesh =
                Mesh::with_uniform_capacity(topo.clone(), Bandwidth::from_mbps(mean)).unwrap();
            mesh.set_alloc_engine(engine);
            // Every link breathes under its own OU trace, seeded per
            // link so both meshes see identical vagaries.
            for (lid, link) in topo.links().collect::<Vec<_>>() {
                let cfg = OuTraceConfig::new(format!("l{}", lid.0), mean).relative_std(rel_std);
                let trace = cfg.generate(seed ^ lid.0 as u64, SimDuration::from_secs(30));
                mesh.set_link_source(link.a, link.b, CapacitySource::Trace(trace)).unwrap();
            }
            mesh
        };
        let mut dense = mk(AllocEngine::Dense);
        let mut delta = mk(AllocEngine::Delta);
        let mut rng = SimRng::seed_from_u64(seed ^ 0xDE17A);
        let mut ids = Vec::new();
        for _ in 0..n_flows {
            let src = NodeId(rng.below(n as u64) as u32);
            let dst = NodeId(rng.below(n as u64) as u32);
            let demand = Bandwidth::from_mbps(rng.uniform(0.5, 2.0 * mean));
            ids.push(dense.add_flow(src, dst, demand).unwrap());
            delta.add_flow(src, dst, demand).unwrap();
        }
        let step = SimDuration::from_millis(250);
        for tick in 0..40 {
            dense.advance(step);
            delta.advance(step);
            assert_rates_agree(&[&dense, &delta], &ids, &format!("OU tick {tick}"));
        }
    }

    // Flow churn, demand rewrites, egress caps, and link squeezes all
    // land on the delta engine's snapshot/dirty paths; rates must stay
    // bit-identical to the dense reference after every mutation.
    #[test]
    fn delta_matches_dense_through_churn(
        n in 3u32..9,
        extra in 0usize..8,
        n_flows in 2usize..10,
        seed in any::<u64>(),
    ) {
        let topo = ring_with_chords(n, extra, seed);
        let mk = |engine: AllocEngine| {
            let mut mesh =
                Mesh::with_uniform_capacity(topo.clone(), Bandwidth::from_mbps(20.0)).unwrap();
            mesh.set_alloc_engine(engine);
            mesh
        };
        let mut dense = mk(AllocEngine::Dense);
        let mut delta = mk(AllocEngine::Delta);
        let mut rng = SimRng::seed_from_u64(seed ^ 0xC4u64);
        let mut ids = Vec::new();
        let step = SimDuration::from_millis(100);
        let lockstep = |a: &mut Mesh, b: &mut Mesh, ids: &[FlowId], when: &str| {
            a.advance(step);
            b.advance(step);
            assert_rates_agree(&[&*a, &*b], ids, when);
        };
        for _ in 0..n_flows {
            let src = NodeId(rng.below(n as u64) as u32);
            let dst = NodeId(rng.below(n as u64) as u32);
            let demand = Bandwidth::from_mbps(rng.uniform(0.5, 30.0));
            ids.push(dense.add_flow(src, dst, demand).unwrap());
            delta.add_flow(src, dst, demand).unwrap();
            lockstep(&mut dense, &mut delta, &ids, "after add");
        }
        // Rewrite one flow's demand, cap a node, squeeze a link.
        let touched = ids[rng.below(ids.len() as u64) as usize];
        let new_demand = Bandwidth::from_mbps(rng.uniform(0.1, 40.0));
        dense.set_flow_demand(touched, new_demand).unwrap();
        delta.set_flow_demand(touched, new_demand).unwrap();
        lockstep(&mut dense, &mut delta, &ids, "after demand rewrite");
        let capped = NodeId(rng.below(n as u64) as u32);
        dense.set_node_egress_cap(capped, Some(Bandwidth::from_mbps(5.0))).unwrap();
        delta.set_node_egress_cap(capped, Some(Bandwidth::from_mbps(5.0))).unwrap();
        lockstep(&mut dense, &mut delta, &ids, "after egress cap");
        let squeezed = NodeId(rng.below(n as u64) as u32);
        let peer = NodeId((squeezed.0 + 1) % n);
        dense.set_link_cap(squeezed, peer, Some(Bandwidth::from_mbps(1.0))).unwrap();
        delta.set_link_cap(squeezed, peer, Some(Bandwidth::from_mbps(1.0))).unwrap();
        lockstep(&mut dense, &mut delta, &ids, "after link squeeze");
        // Remove half the flows (index rebuilds invalidate the snapshot).
        for id in ids.drain(..ids.len() / 2 + 1).collect::<Vec<_>>() {
            dense.remove_flow(id).unwrap();
            delta.remove_flow(id).unwrap();
            lockstep(&mut dense, &mut delta, &ids, "after remove");
        }
    }
}

/// The composed fault storm from `tests/faults.rs`, replayed through an
/// explicit engine on the 3-node LAN testbed; returns the journal's
/// JSONL export so runs can be compared byte-for-byte.
fn storm_jsonl(engine: AllocEngine) -> String {
    let profile = StormProfile {
        node_crash_rate: 1.0 / 40.0,
        crash_downtime_s: 25.0,
        link_flap_rate: 1.0 / 45.0,
        flap_downtime_s: 8.0,
        probe_loss_rate: 1.0 / 120.0,
        probe_loss_p: 0.5,
        probe_loss_duration_s: 40.0,
        nodes: vec![NodeId(0), NodeId(1), NodeId(2)],
        links: vec![
            (NodeId(0), NodeId(1)),
            (NodeId(0), NodeId(2)),
            (NodeId(1), NodeId(2)),
        ],
    };
    let plan = FaultPlan::poisson(0xBA55, SimDuration::from_secs(300), &profile);
    let (mesh, cluster) = lan_testbed(3, 12);
    let cfg = SimEnvConfig { faults: plan, alloc_engine: engine, ..Default::default() };
    let mut env = SimEnv::new(mesh, cluster, bass::appdag::catalog::camera_pipeline(), cfg);
    env.attach_journal(Journal::new());
    env.deploy(&[]).expect("deploys");
    env.run_for(SimDuration::from_secs(300), |_| {})
        .expect("storm run completes");
    env.take_journal().expect("journal attached").export_jsonl()
}

// The Poisson fault storm — crashes, flaps, probe loss — must replay
// byte-identically through the delta engine.
#[test]
fn fault_storm_replay_is_delta_engine_independent() {
    let dense = storm_jsonl(AllocEngine::Dense);
    let delta = storm_jsonl(AllocEngine::Delta);
    assert!(!dense.is_empty());
    assert_eq!(
        dense, delta,
        "delta engine must replay the storm byte-identically to the dense path"
    );
}
