//! `mesh1000-steady`: `Mesh::advance` alone on the scale bench's
//! 1000-node grid with 10 000 intra-district flows.
//!
//! The grid is cut into row-band districts of 100 nodes; every flow
//! stays inside one district at one of three demand levels. Each tick
//! first caps one seeded link of district 0, so the same constraint
//! component is dirty tick after tick while the rest of the city never
//! moves. The controller, net monitor, faults and emulator are not
//! involved.
//!
//! A window always starts from a clone of the never-advanced mesh, so
//! every window does the same work and ends in the same allocation. Its
//! checksum must equal that of a reference window on a mesh built
//! separately from the same inputs, and no link may carry more than its
//! capacity. Capped district-0 links do congest, so queues build and a
//! tick's allocation depends on history: a from-scratch allocation of
//! the final capacities is not a valid reference.

use crate::trace::Trace;
use bass_mesh::{CapacitySource, FlowId, Mesh, NodeId, RoutingTable, Topology};
use bass_util::rng::SimRng;
use bass_util::time::SimDuration;
use bass_util::units::Bandwidth;
use std::time::{Duration, Instant};

const NODES: usize = 1000;
const FLOWS: usize = 10_000;
const DISTRICT_NODES: usize = 100;
const STEP: SimDuration = SimDuration::from_millis(100);
/// Ticks before timing starts, so lazy first-tick work is not measured.
const WARMUP_TICKS: u64 = 3;
/// Ticks in one checked window.
pub const WINDOW_TICKS: u64 = 500;
/// The three demand classes, mirroring the paper's application shapes.
const DEMAND_LEVELS_MBPS: [f64; 3] = [0.1, 0.15, 0.25];

/// The generated inputs: everything a mesh is built from.
pub struct Input {
    topo: Topology,
    caps: Vec<(NodeId, NodeId, Bandwidth)>,
    flows: Vec<(NodeId, NodeId, Bandwidth)>,
    district0: Vec<(NodeId, NodeId)>,
}

/// Draws the grid, per-link capacities (50–150 Mbps) and flows from
/// `seed`.
pub fn generate(seed: u64) -> Input {
    let mut rng = SimRng::seed_from_u64(seed).fork(1);
    let topo = grid(NODES);
    let caps = topo
        .links()
        .map(|(_, l)| (l.a, l.b, Bandwidth::from_mbps(rng.uniform(50.0, 150.0))))
        .collect();
    let districts = NODES.div_ceil(DISTRICT_NODES);
    let per_district = NODES.div_ceil(districts);
    let flows = (0..FLOWS)
        .map(|_| {
            let d = rng.below(districts as u64) as usize;
            let lo = (d * per_district) as u64;
            let span = (((d + 1) * per_district).min(NODES) - d * per_district) as u64;
            let src = lo + rng.below(span);
            let mut dst = lo + rng.below(span);
            while dst == src {
                dst = lo + rng.below(span);
            }
            let level = DEMAND_LEVELS_MBPS[rng.below(DEMAND_LEVELS_MBPS.len() as u64) as usize];
            (
                NodeId(src as u32),
                NodeId(dst as u32),
                Bandwidth::from_mbps(level),
            )
        })
        .collect();
    let district0 = topo
        .links()
        .filter(|(_, l)| (l.a.0 as usize) < per_district)
        .map(|(_, l)| (l.a, l.b))
        .collect();
    Input {
        topo,
        caps,
        flows,
        district0,
    }
}

/// A connected row-major grid: node `i` links right to `i+1` (same row)
/// and down to `i+width`.
fn grid(nodes: usize) -> Topology {
    let width = (nodes as f64).sqrt().ceil() as usize;
    let mut topo = Topology::new();
    for i in 0..nodes {
        topo.add_node(NodeId(i as u32)).expect("fresh node id");
    }
    for i in 0..nodes {
        let right = i + 1;
        if right < nodes && right % width != 0 {
            topo.add_link(NodeId(i as u32), NodeId(right as u32))
                .expect("fresh link");
        }
        if i + width < nodes {
            topo.add_link(NodeId(i as u32), NodeId((i + width) as u32))
                .expect("fresh link");
        }
    }
    topo
}

/// A built mesh and its flow ids, in insertion order.
#[derive(Clone)]
pub struct Built {
    mesh: Mesh,
    flows: Vec<FlowId>,
}

/// Builds the mesh: routes, constant link capacities, flows.
pub fn build(input: &Input) -> Result<Built, String> {
    let err = |e: bass_mesh::MeshError| format!("mesh build failed: {e}");
    let mut mesh = Mesh::new(input.topo.clone()).map_err(err)?;
    for &(a, b, cap) in &input.caps {
        mesh.set_link_source(a, b, CapacitySource::Constant(cap))
            .map_err(err)?;
    }
    let mut flows = Vec::with_capacity(input.flows.len());
    for &(src, dst, demand) in &input.flows {
        flows.push(mesh.add_flow(src, dst, demand).map_err(err)?);
    }
    Ok(Built { mesh, flows })
}

/// The seeded per-tick capacity changes: one district-0 link capped
/// between 30 and 120 Mbps per tick.
struct Perturbations {
    rng: SimRng,
}

impl Perturbations {
    fn new(seed: u64) -> Self {
        Perturbations {
            rng: SimRng::seed_from_u64(seed).fork(2),
        }
    }

    fn apply(&mut self, input: &Input, mesh: &mut Mesh) {
        let (a, b) = input.district0[self.rng.below(input.district0.len() as u64) as usize];
        let cap = Bandwidth::from_mbps(self.rng.uniform(30.0, 120.0));
        mesh.set_link_cap(a, b, Some(cap))
            .expect("district-0 link exists");
    }
}

/// One checked window's outcome.
pub struct Window {
    /// Wall-clock of the timed ticks.
    pub took: Duration,
    /// Host time of each timed tick, perturbation included (untraced
    /// windows only).
    pub ticks: Vec<Duration>,
    /// [`checksum`] of the allocation after the window.
    pub checksum: u64,
    /// Whether every link carried at most its capacity.
    pub feasible: bool,
}

/// Runs one window on `built` (a clone of a never-advanced mesh):
/// warm-up ticks, then `ticks` timed ticks, each after one perturbation.
/// Traced, every call is a span and every advance an `advance` sample.
pub fn window(
    input: &Input,
    mut built: Built,
    seed: u64,
    ticks: u64,
    mut trace: Option<&mut Trace>,
) -> Window {
    let mut perturb = Perturbations::new(seed);
    for _ in 0..WARMUP_TICKS {
        perturb.apply(input, &mut built.mesh);
        built.mesh.advance(STEP);
    }
    let mut times = Vec::with_capacity(ticks as usize);
    let started = Instant::now();
    for _ in 0..ticks {
        match trace.as_deref_mut() {
            None => {
                let t0 = Instant::now();
                perturb.apply(input, &mut built.mesh);
                built.mesh.advance(STEP);
                times.push(t0.elapsed());
            }
            Some(t) => {
                let t0 = Instant::now();
                perturb.apply(input, &mut built.mesh);
                let t1 = Instant::now();
                built.mesh.advance(STEP);
                let t2 = Instant::now();
                t.mesh_calls.push(t1 - t0);
                t.mesh_calls.push(t2 - t1);
                t.advance.push(t2 - t1);
            }
        }
    }
    let took = started.elapsed();
    Window {
        took,
        ticks: times,
        checksum: checksum(&built),
        feasible: feasible(&built),
    }
}

/// FNV-1a over every flow's allocated rate bits, in flow-id order.
fn checksum(built: &Built) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &f in &built.flows {
        for byte in built.mesh.flow_rate(f).as_bps().to_bits().to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// Every link's allocated usage is within its capacity (1 bps slack
/// for rounding).
fn feasible(built: &Built) -> bool {
    let mesh = &built.mesh;
    mesh.topology().links().all(|(_, l)| {
        let used = mesh.link_usage(l.a, l.b).expect("topology link").as_bps();
        let cap = mesh
            .link_capacity(l.a, l.b)
            .expect("topology link")
            .as_bps();
        used.is_finite() && used <= cap + 1.0
    })
}

/// Times a from-scratch route computation over the grid.
pub fn time_routing(input: &Input) -> Duration {
    let started = Instant::now();
    let routes = RoutingTable::compute(&input.topo);
    let took = started.elapsed();
    drop(routes);
    took
}
