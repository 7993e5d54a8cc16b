//! Determinism battery for the scenario subsystem: property tests that
//! lock down generation's byte-for-byte reproducibility and its
//! structural invariants across random specs and seeds.

use bass::mesh::AllocEngine;
use bass::scenario::{generate, run_campaign, ScenarioSpec, TopologySpec, WorkloadEvent};
use proptest::prelude::*;

/// Random-but-valid specs spanning all three topology families, varying
/// sizes, gateway counts, link ranges, and churn intensity. Kept within
/// validation bounds so every (spec, seed) pair must generate.
fn arb_spec() -> impl Strategy<Value = ScenarioSpec> {
    let topo = prop_oneof![
        (6u32..40, 0.25f64..0.6).prop_map(|(nodes, radius)| TopologySpec::RandomGeometric {
            nodes,
            radius
        }),
        (2u32..7, 2u32..6).prop_map(|(width, height)| TopologySpec::Grid { width, height }),
        (2u32..5, 1u32..5).prop_map(|(hubs, leaves_per_hub)| TopologySpec::HubAndSpoke {
            hubs,
            leaves_per_hub
        }),
    ];
    (topo, 0u32..3, 10.0f64..20.0, 2.0f64..8.0, 0.0f64..0.2, 1u32..8).prop_map(
        |(topology, gateways, mean_lo, mean_span, arrival, max_concurrent)| {
            let mut spec = ScenarioSpec::small_reference();
            spec.topology = topology;
            // Leave at least one worker node.
            spec.nodes.gateways = gateways.min(spec.node_count().saturating_sub(1));
            spec.links.mean_mbps_min = mean_lo;
            spec.links.mean_mbps_max = mean_lo + mean_span;
            spec.workload.arrival_rate_per_s = arrival;
            spec.workload.max_concurrent = max_concurrent;
            spec.workload.initial_apps = spec.workload.initial_apps.min(max_concurrent);
            spec.horizon_ticks = 120;
            spec
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The headline determinism property: the same `(spec, seed)` pair
    /// generates byte-identical scenarios — compared on the serialized
    /// form, so every field (topology, draws, schedules) is covered.
    #[test]
    fn generation_is_byte_identical_per_seed(spec in arb_spec(), seed in any::<u64>()) {
        prop_assume!(spec.validate().is_ok());
        let a = generate(&spec, seed);
        let b = generate(&spec, seed);
        prop_assert_eq!(
            serde_json::to_string(&a).expect("serializes"),
            serde_json::to_string(&b).expect("serializes")
        );
    }

    /// Every generated topology is connected — random-geometric graphs
    /// get bridged deterministically when the radius leaves partitions.
    #[test]
    fn generated_topologies_are_connected(spec in arb_spec(), seed in any::<u64>()) {
        prop_assume!(spec.validate().is_ok());
        let s = generate(&spec, seed);
        prop_assert!(s.topology.is_connected());
        prop_assert_eq!(s.topology.node_count() as u32, spec.node_count());
    }

    /// Validated specs guarantee aggregate placeability: the worst-case
    /// cluster still fits each enabled app shape, and the actual drawn
    /// cluster can never be below the worst case.
    #[test]
    fn generated_clusters_fit_every_app_in_aggregate(spec in arb_spec(), seed in any::<u64>()) {
        prop_assume!(spec.validate().is_ok());
        let s = generate(&spec, seed);
        let workers: Vec<_> = s.nodes.iter().filter(|n| !n.gateway).collect();
        let total_cores: u64 = workers.iter().map(|n| n.cores).sum();
        let total_mem: u64 = workers.iter().map(|n| n.mem_mb).sum();
        for dag in [
            bass::appdag::catalog::camera_pipeline(),
            bass::appdag::catalog::video_conference(),
            bass::appdag::catalog::social_network(spec.workload.social_rps),
        ] {
            let need = dag.total_resources();
            prop_assert!(need.cpu.as_cores().ceil() as u64 <= total_cores);
            prop_assert!(need.memory.as_mb() <= total_mem);
        }
    }

    /// Per-link draws respect the spec's ranges, and every link gets a
    /// trace config.
    #[test]
    fn trace_means_stay_within_spec_bounds(spec in arb_spec(), seed in any::<u64>()) {
        prop_assume!(spec.validate().is_ok());
        let s = generate(&spec, seed);
        prop_assert_eq!(s.trace_configs.len(), s.topology.link_count());
        for cfg in &s.trace_configs {
            prop_assert!(cfg.mean_mbps() >= spec.links.mean_mbps_min);
            prop_assert!(cfg.mean_mbps() <= spec.links.mean_mbps_max);
        }
        for n in s.nodes.iter().filter(|n| !n.gateway) {
            prop_assert!((spec.nodes.cores_min..=spec.nodes.cores_max).contains(&n.cores));
            prop_assert!((spec.nodes.mem_mb_min..=spec.nodes.mem_mb_max).contains(&n.mem_mb));
        }
    }

    /// Workload schedules are time-ordered, never exceed the concurrency
    /// cap, and only depart instances that arrived.
    #[test]
    fn workload_schedules_respect_cap_and_order(spec in arb_spec(), seed in any::<u64>()) {
        prop_assume!(spec.validate().is_ok());
        let s = generate(&spec, seed);
        let mut live = std::collections::BTreeSet::new();
        let mut last_ms = 0u64;
        for ev in &s.workload {
            prop_assert!(ev.at_ms() >= last_ms);
            last_ms = ev.at_ms();
            match *ev {
                WorkloadEvent::Arrive { instance, .. } => {
                    prop_assert!(live.insert(instance));
                    prop_assert!(live.len() <= spec.workload.max_concurrent as usize);
                }
                WorkloadEvent::Depart { instance, .. } => {
                    prop_assert!(live.remove(&instance));
                }
            }
        }
    }
}

proptest! {
    // Campaigns are costlier than pure generation: fewer cases, tiny
    // horizons.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// End to end: whole campaigns replay bit-for-bit from their seed.
    #[test]
    fn campaigns_replay_bit_for_bit(seed in any::<u64>()) {
        let mut spec = ScenarioSpec::small_reference();
        spec.horizon_ticks = 40;
        spec.replicas = 1;
        let a = run_campaign(&spec, seed, 1, AllocEngine::Delta).unwrap();
        let b = run_campaign(&spec, seed, 1, AllocEngine::Delta).unwrap();
        prop_assert_eq!(a.to_json(), b.to_json());
    }
}
