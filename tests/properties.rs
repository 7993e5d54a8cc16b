//! Property-based tests on the core invariants, spanning crates.

use bass::appdag::{AppDag, ComponentId};
use bass::cluster::{Cluster, NodeSpec};
use bass::core::heuristics::{breadth_first, hybrid, longest_path, BfsWeighting};
use bass::core::placement::pack_ordering;
use bass::mesh::flow::{max_min_allocate, max_min_allocate_dense, Constraint};
use bass::mesh::AllocEngine;
use bass::mesh::queueing::{FlowQueue, MAX_DELAY};
use bass::mesh::routing::RoutingTable;
use bass::mesh::{LinkId, Mesh, NodeId, Topology};
use bass::trace::OuTraceConfig;
use bass::util::time::SimDuration;
use bass::util::units::{Bandwidth, DataSize};
use proptest::prelude::*;

/// Random DAGs via the catalog's generator (structurally acyclic).
fn arb_dag() -> impl Strategy<Value = AppDag> {
    (2u32..12, any::<u64>())
        .prop_map(|(n, seed)| bass::appdag::catalog::random_dag(seed, n, 0.35))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn heuristics_produce_permutations(dag in arb_dag()) {
        let mut expected: Vec<ComponentId> = dag.component_ids().collect();
        expected.sort();
        for ordering in [
            breadth_first(&dag, BfsWeighting::EdgeWeight).unwrap(),
            breadth_first(&dag, BfsWeighting::CumulativePath).unwrap(),
            longest_path(&dag).unwrap(),
            hybrid(&dag, 3).unwrap(),
        ] {
            let mut got = ordering.flatten();
            got.sort();
            prop_assert_eq!(got, expected.clone());
        }
    }

    #[test]
    fn longest_path_groups_are_dag_chains(dag in arb_dag()) {
        let ordering = longest_path(&dag).unwrap();
        for group in ordering.groups() {
            for pair in group.windows(2) {
                // Consecutive chain members are connected by a DAG edge.
                prop_assert!(
                    !dag.bandwidth_between(pair[0], pair[1]).is_zero(),
                    "chain break: {} -> {}", pair[0], pair[1]
                );
            }
        }
    }

    #[test]
    fn packing_never_oversubscribes(dag in arb_dag(), cores in 4u64..16) {
        let topo = Topology::full_mesh(4);
        let mesh = Mesh::with_uniform_capacity(topo, Bandwidth::from_mbps(100.0)).unwrap();
        let mut cluster =
            Cluster::new((0..4).map(|i| NodeSpec::cores_mb(i, cores, 16_384))).unwrap();
        let ordering = longest_path(&dag).unwrap();
        // Packing may legitimately fail when the DAG is too big; when it
        // succeeds the cluster must be consistent.
        if pack_ordering(&ordering, &dag, &mut cluster, &mesh).is_ok() {
            prop_assert!(cluster.check_invariants().is_ok());
            prop_assert_eq!(cluster.placed_count(), dag.component_count());
        }
    }

    #[test]
    fn max_min_allocation_is_feasible_and_bounded(
        demands_mbps in proptest::collection::vec(0.0f64..50.0, 1..20),
        seed in any::<u64>(),
    ) {
        let mut rng = bass::util::rng::SimRng::seed_from_u64(seed);
        let demands: Vec<Bandwidth> =
            demands_mbps.iter().map(|&m| Bandwidth::from_mbps(m)).collect();
        let constraints: Vec<Constraint> = (0..5)
            .map(|_| Constraint {
                capacity: Bandwidth::from_mbps(rng.uniform(0.0, 60.0)),
                members: (0..demands.len()).filter(|_| rng.chance(0.4)).collect(),
            })
            .collect();
        let rates = max_min_allocate(&demands, &constraints);
        // Demand-bounded.
        for (r, d) in rates.iter().zip(&demands) {
            prop_assert!(r.as_bps() <= d.as_bps() + 1.0, "rate {r} demand {d}");
            prop_assert!(r.as_bps() >= 0.0);
        }
        // Capacity-feasible.
        for c in &constraints {
            let used: f64 = c.members.iter().map(|&m| rates[m].as_bps()).sum();
            prop_assert!(used <= c.capacity.as_bps() + 10.0, "used {used} cap {}", c.capacity);
        }
    }

    #[test]
    fn incremental_allocator_matches_dense_oracle(
        demands_mbps in proptest::collection::vec(0.0f64..50.0, 1..24),
        n_constraints in 0usize..10,
        seed in any::<u64>(),
    ) {
        // `max_min_allocate` runs the incremental allocator the delta
        // engine uses; the dense implementation is kept as the oracle.
        // The two must agree bit-for-bit on arbitrary problems, and the
        // incremental output must satisfy the allocator's contract.
        let mut rng = bass::util::rng::SimRng::seed_from_u64(seed);
        let demands: Vec<Bandwidth> =
            demands_mbps.iter().map(|&m| Bandwidth::from_mbps(m)).collect();
        let constraints: Vec<Constraint> = (0..n_constraints)
            .map(|_| Constraint {
                capacity: Bandwidth::from_mbps(rng.uniform(0.0, 60.0)),
                members: (0..demands.len()).filter(|_| rng.chance(0.4)).collect(),
            })
            .collect();
        let oracle = max_min_allocate_dense(&demands, &constraints);
        let incremental = max_min_allocate(&demands, &constraints);
        prop_assert_eq!(oracle.len(), incremental.len());
        for (i, (o, inc)) in oracle.iter().zip(&incremental).enumerate() {
            prop_assert_eq!(
                o.as_bps().to_bits(), inc.as_bps().to_bits(),
                "flow {}: dense {} vs incremental {}", i, o, inc
            );
        }
        // Demand-bounded and non-negative.
        for (r, d) in incremental.iter().zip(&demands) {
            prop_assert!(r.as_bps() <= d.as_bps() + 1.0, "rate {} demand {}", r, d);
            prop_assert!(r.as_bps() >= 0.0);
        }
        // Capacity-feasible.
        for c in &constraints {
            let used: f64 = c.members.iter().map(|&m| incremental[m].as_bps()).sum();
            prop_assert!(used <= c.capacity.as_bps() + 10.0, "used {} cap {}", used, c.capacity);
        }
    }

    #[test]
    fn mesh_engines_agree_through_churn(
        n in 3u32..9,
        extra in 0usize..8,
        n_flows in 2usize..10,
        seed in any::<u64>(),
    ) {
        // Drive two identical meshes — one per engine — through flow
        // churn, an egress cap, and a link-capacity change, and require
        // identical per-flow rates at every step. This exercises the
        // persistent index's dirty-flag invalidation paths end to end.
        let topo = ring_with_chords(n, extra, seed);
        let mk = |engine: AllocEngine| {
            let mut mesh = Mesh::with_uniform_capacity(topo.clone(), Bandwidth::from_mbps(20.0))
                .unwrap();
            mesh.set_alloc_engine(engine);
            mesh
        };
        let mut a = mk(AllocEngine::Dense);
        let mut b = mk(AllocEngine::Delta);
        let mut flow_rng = bass::util::rng::SimRng::seed_from_u64(seed ^ 0xF10);
        let mut ids = Vec::new();
        let step = SimDuration::from_millis(100);
        let assert_agree = |a: &Mesh, b: &Mesh, ids: &[bass::mesh::FlowId], when: &str| {
            for &id in ids {
                let ra = a.flow_rate(id).as_bps();
                let rb = b.flow_rate(id).as_bps();
                assert_eq!(ra.to_bits(), rb.to_bits(), "{when}: flow {id} {ra} vs {rb}");
            }
        };
        for _ in 0..n_flows {
            let src = NodeId(flow_rng.below(n as u64) as u32);
            let dst = NodeId(flow_rng.below(n as u64) as u32);
            let demand = Bandwidth::from_mbps(flow_rng.uniform(0.5, 30.0));
            let fa = a.add_flow(src, dst, demand).unwrap();
            let fb = b.add_flow(src, dst, demand).unwrap();
            prop_assert_eq!(fa, fb);
            ids.push(fa);
            a.advance(step);
            b.advance(step);
            assert_agree(&a, &b, &ids, "after add");
        }
        // Cap one node's egress, then squeeze one link.
        let capped = NodeId(flow_rng.below(n as u64) as u32);
        a.set_node_egress_cap(capped, Some(Bandwidth::from_mbps(5.0))).unwrap();
        b.set_node_egress_cap(capped, Some(Bandwidth::from_mbps(5.0))).unwrap();
        a.advance(step);
        b.advance(step);
        assert_agree(&a, &b, &ids, "after egress cap");
        let squeezed = NodeId(flow_rng.below(n as u64) as u32);
        let peer = NodeId((squeezed.0 + 1) % n);
        a.set_link_cap(squeezed, peer, Some(Bandwidth::from_mbps(1.0))).unwrap();
        b.set_link_cap(squeezed, peer, Some(Bandwidth::from_mbps(1.0))).unwrap();
        a.advance(step);
        b.advance(step);
        assert_agree(&a, &b, &ids, "after link squeeze");
        // Remove half the flows.
        for id in ids.drain(..ids.len() / 2 + 1).collect::<Vec<_>>() {
            a.remove_flow(id).unwrap();
            b.remove_flow(id).unwrap();
            a.advance(step);
            b.advance(step);
            assert_agree(&a, &b, &ids, "after remove");
        }
    }

    #[test]
    fn max_min_is_pareto_efficient(
        demands_mbps in proptest::collection::vec(1.0f64..50.0, 1..12),
        cap in 1.0f64..80.0,
    ) {
        // Single shared constraint: either every demand is met, or the
        // constraint is saturated (no allocation can be raised without
        // lowering another).
        let demands: Vec<Bandwidth> =
            demands_mbps.iter().map(|&m| Bandwidth::from_mbps(m)).collect();
        let constraints = vec![Constraint {
            capacity: Bandwidth::from_mbps(cap),
            members: (0..demands.len()).collect(),
        }];
        let rates = max_min_allocate(&demands, &constraints);
        let used: f64 = rates.iter().map(|r| r.as_mbps()).sum();
        let total_demand: f64 = demands_mbps.iter().sum();
        if total_demand <= cap {
            prop_assert!((used - total_demand).abs() < 1e-3, "all demand served");
        } else {
            prop_assert!((used - cap).abs() < 1e-3, "link saturated: {used} vs {cap}");
        }
    }

    #[test]
    fn routing_paths_are_simple_and_connected(n in 2u32..10, extra in 0usize..10, seed in any::<u64>()) {
        // Ring + random chords is always connected.
        let mut rng = bass::util::rng::SimRng::seed_from_u64(seed);
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
        let mesh = Mesh::with_uniform_capacity(topo, Bandwidth::from_mbps(10.0)).unwrap();
        for a in 0..n {
            for b in 0..n {
                let path = mesh.path(NodeId(a), NodeId(b)).unwrap();
                prop_assert_eq!(path[0], NodeId(a));
                prop_assert_eq!(*path.last().unwrap(), NodeId(b));
                // Simple: no repeated nodes.
                let mut seen = path.to_vec();
                seen.sort();
                seen.dedup();
                prop_assert_eq!(seen.len(), path.len());
            }
        }
    }

    #[test]
    fn trace_generator_is_nonnegative_and_deterministic(
        mean in 0.5f64..40.0,
        rel_std in 0.0f64..0.5,
        seed in any::<u64>(),
    ) {
        let cfg = OuTraceConfig::new("t", mean).relative_std(rel_std);
        let a = cfg.generate(seed, SimDuration::from_secs(120));
        let b = cfg.generate(seed, SimDuration::from_secs(120));
        prop_assert_eq!(&a, &b);
        for &(_, bw) in a.samples() {
            prop_assert!(bw.as_bps() >= 0.0);
        }
    }
}

/// Ring + random chords topology: always connected, arbitrary shape.
fn ring_with_chords(n: u32, extra: usize, seed: u64) -> Topology {
    let mut rng = bass::util::rng::SimRng::seed_from_u64(seed);
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn transfer_delay_is_monotone_in_utilization(
        size_kb in 1u64..1_024,
        cap_mbps in 1.0f64..1_000.0,
        rho_lo in 0.0f64..1.0,
        rho_hi in 0.0f64..1.0,
    ) {
        let (lo, hi) = if rho_lo <= rho_hi { (rho_lo, rho_hi) } else { (rho_hi, rho_lo) };
        let size = DataSize::from_kilobytes(size_kb);
        let cap = Bandwidth::from_mbps(cap_mbps);
        let mut q = FlowQueue::new();
        q.set_path_utilization(lo);
        let d_lo = q.transfer_delay(size, cap, cap);
        q.set_path_utilization(hi);
        let d_hi = q.transfer_delay(size, cap, cap);
        prop_assert!(d_lo <= d_hi, "rho {lo} -> {d_lo}, rho {hi} -> {d_hi}");
    }

    #[test]
    fn transfer_delay_is_finite_below_saturation(
        size_kb in 1u64..1_024,
        cap_mbps in 1.0f64..1_000.0,
        rho in 0.0f64..1.0,
    ) {
        // No backlog (the flow kept up) and a live path: the M/M/1
        // inflation alone must never reach the dead-path cap.
        let mut q = FlowQueue::new();
        q.set_path_utilization(rho);
        let d = q.transfer_delay(
            DataSize::from_kilobytes(size_kb),
            Bandwidth::from_mbps(cap_mbps),
            Bandwidth::from_mbps(cap_mbps),
        );
        prop_assert!(d > SimDuration::ZERO);
        prop_assert!(d < MAX_DELAY, "finite below saturation: {d}");
    }

    #[test]
    fn transfer_delay_is_monotone_in_backlog(
        size_kb in 1u64..1_024,
        cap_mbps in 1.0f64..100.0,
        backlog_secs in 0.0f64..30.0,
    ) {
        // A queue that accumulated backlog can only be slower than an
        // empty one at the same rates.
        let size = DataSize::from_kilobytes(size_kb);
        let cap = Bandwidth::from_mbps(cap_mbps);
        let empty = FlowQueue::new();
        let mut backed = FlowQueue::new();
        backed.advance(
            SimDuration::from_secs_f64(backlog_secs),
            Bandwidth::from_mbps(2.0 * cap_mbps),
            cap,
        );
        prop_assert!(empty.transfer_delay(size, cap, cap) <= backed.transfer_delay(size, cap, cap));
    }

    #[test]
    fn filtered_routes_never_traverse_down_links(
        n in 3u32..10,
        extra in 0usize..10,
        seed in any::<u64>(),
        down_bits in any::<u64>(),
    ) {
        let topo = ring_with_chords(n, extra, seed);
        // An arbitrary subset of links is down (bit i of the mask).
        let down: std::collections::BTreeSet<LinkId> = topo
            .links()
            .filter(|(lid, _)| down_bits & (1 << (lid.0 % 64)) != 0)
            .map(|(lid, _)| lid)
            .collect();
        let table = RoutingTable::compute_filtered(&topo, |lid| !down.contains(&lid));
        for a in topo.nodes() {
            for b in topo.nodes() {
                let Some(path) = table.path(a, b) else { continue };
                prop_assert_eq!(path[0], a);
                prop_assert_eq!(*path.last().unwrap(), b);
                for hop in path.windows(2) {
                    let lid = topo.find_link(hop[0], hop[1])
                        .expect("route uses an existing link");
                    prop_assert!(
                        !down.contains(&lid),
                        "route {a}->{b} traverses down link {lid}"
                    );
                }
            }
        }
    }
}

/// The `pick`-th member of `set`, cycling; `None` when it is empty.
fn nth_member<T: Copy>(set: &std::collections::BTreeSet<T>, pick: u32) -> Option<T> {
    set.iter().nth(pick as usize % set.len().max(1)).copied()
}

/// The min-hop table a from-scratch computation gives under the given
/// fault state — the oracle every repaired table must equal.
fn fresh_routes(
    topo: &Topology,
    down_nodes: &std::collections::BTreeSet<NodeId>,
    down_links: &std::collections::BTreeSet<LinkId>,
) -> RoutingTable {
    RoutingTable::compute_filtered(topo, |lid| {
        let link = topo.link(lid);
        !down_links.contains(&lid) && !down_nodes.contains(&link.a) && !down_nodes.contains(&link.b)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Route repair after every fault flip equals a full recompute, and
    /// every flow rides its repaired route. Flow `k` demands `2^k` bps
    /// over links with far more capacity than all flows together, so
    /// each flow gets its full demand exactly and a link's usage names
    /// precisely the flows crossing it.
    #[test]
    fn route_repair_matches_full_recompute(
        geometric in any::<bool>(),
        n in 4u32..36,
        extra in 0usize..24,
        seed in any::<u64>(),
        flows in proptest::collection::vec((any::<u32>(), any::<u32>()), 1..16),
        flips in proptest::collection::vec((0u8..7, any::<u32>()), 1..28),
    ) {
        use std::collections::BTreeSet;
        let topo = if geometric {
            let mut rng = bass::util::rng::SimRng::seed_from_u64(seed);
            Topology::random_geometric(n, 0.3, &mut rng).0
        } else {
            ring_with_chords(n, extra, seed)
        };
        let mut mesh =
            Mesh::with_uniform_capacity(topo.clone(), Bandwidth::from_mbps(1e6)).unwrap();
        let nodes: Vec<NodeId> = topo.nodes().collect();
        let links: Vec<(LinkId, NodeId, NodeId)> =
            topo.links().map(|(lid, l)| (lid, l.a, l.b)).collect();
        let flow_ids: Vec<_> = flows
            .iter()
            .enumerate()
            .map(|(k, &(a, b))| {
                let (src, dst) = (nodes[a as usize % nodes.len()], nodes[b as usize % nodes.len()]);
                let demand = Bandwidth::from_bps(f64::from(1u32 << k));
                (mesh.add_flow(src, dst, demand).unwrap(), src, dst, demand)
            })
            .collect();
        let mut down_nodes: BTreeSet<NodeId> = BTreeSet::new();
        let mut down_links: BTreeSet<LinkId> = BTreeSet::new();
        let mut last_down: Option<(LinkId, NodeId, NodeId)> = None;
        for &(op, pick) in &flips {
            let node = nodes[pick as usize % nodes.len()];
            let link = links[pick as usize % links.len()];
            let before = mesh.routes().clone();
            let epoch = mesh.routes_epoch();
            let mut must_not_reroute = false;
            match op {
                // Crash and recover a node.
                0 => {
                    mesh.set_node_up(node, false).unwrap();
                    down_nodes.insert(node);
                }
                1 => {
                    let Some(up) = nth_member(&down_nodes, pick) else { continue };
                    mesh.set_node_up(up, true).unwrap();
                    down_nodes.remove(&up);
                }
                // Take a link down and bring one back.
                2 => {
                    mesh.set_link_up(link.1, link.2, false).unwrap();
                    down_links.insert(link.0);
                    last_down = Some(link);
                }
                3 => {
                    let Some(lid) = nth_member(&down_links, pick) else { continue };
                    let l = topo.link(lid);
                    mesh.set_link_up(l.a, l.b, true).unwrap();
                    down_links.remove(&lid);
                }
                // Flip a link whose endpoint is crashed: no route moves.
                4 => {
                    let Some(dead) = nth_member(&down_nodes, pick) else { continue };
                    let incident = topo.neighbor_links(dead);
                    let (nb, lid) = incident[pick as usize % incident.len()];
                    let up = down_links.contains(&lid);
                    mesh.set_link_up(dead, nb, up).unwrap();
                    if up {
                        down_links.remove(&lid);
                    } else {
                        down_links.insert(lid);
                    }
                    must_not_reroute = true;
                }
                // Crash a neighbor of a crashed node.
                5 => {
                    let Some(dead) = nth_member(&down_nodes, pick) else { continue };
                    let incident = topo.neighbor_links(dead);
                    let (nb, _) = incident[pick as usize % incident.len()];
                    mesh.set_node_up(nb, false).unwrap();
                    down_nodes.insert(nb);
                }
                // Repeat the last link down.
                _ => {
                    let Some((lid, a, b)) = last_down else { continue };
                    mesh.set_link_up(a, b, false).unwrap();
                    down_links.insert(lid);
                }
            }
            if must_not_reroute {
                prop_assert!(mesh.routes() == &before, "flip behind a crashed node moved a route");
                prop_assert!(mesh.routes_epoch() > epoch, "state flip must bump the routes epoch");
            }
            let fresh = fresh_routes(&topo, &down_nodes, &down_links);
            for &a in &nodes {
                for &b in &nodes {
                    prop_assert_eq!(mesh.path(a, b).ok(), fresh.path(a, b), "route {}->{}", a, b);
                }
            }
            // Every flow rides exactly its route's links.
            let mut want = vec![0.0f64; links.len()];
            for &(id, src, dst, demand) in &flow_ids {
                let routed = if src == dst {
                    !down_nodes.contains(&src)
                } else {
                    fresh.path(src, dst).is_some()
                };
                let rate = if routed { demand } else { Bandwidth::ZERO };
                prop_assert_eq!(mesh.flow_rate(id), rate, "flow {}->{}", src, dst);
                if let Some(lids) = routed.then(|| fresh.path_links(&topo, src, dst)).flatten() {
                    for lid in lids {
                        want[lid.0] += demand.as_bps();
                    }
                }
            }
            for &(lid, a, b) in &links {
                prop_assert_eq!(
                    mesh.link_usage(a, b).unwrap().as_bps(), want[lid.0], "usage on {}", lid
                );
            }
        }
    }
}
