//! The [`Mesh`] facade: topology + routing + capacities + flows + queues.
//!
//! Each [`Mesh::advance`] tick runs the allocation pipeline described in
//! `docs/ARCHITECTURE.md`: refresh per-link capacities from traces and
//! overrides, rebuild the flow↔constraint `AllocIndex` if topology or
//! membership changed, water-fill per-flow rates, then drain per-flow
//! queues against the granted rates. Two [`AllocEngine`]s implement the
//! water-fill step with bit-identical results:
//!
//! - **Delta** — the production engine: keeps the `AllocIndex` (a CSR
//!   flow↔constraint map) and the connected components of the
//!   flow↔constraint graph ([`crate::flow::ComponentIndex`]) across
//!   ticks, bit-compares capacity/demand snapshots each tick, and
//!   refills only the *dirty* components through preallocated scratch.
//! - **Dense** — the reference path: rebuilds all state from scratch
//!   every tick. Slow, trivially correct; the oracle the equivalence
//!   batteries compare `Delta` against.
//!
//! Determinism rules: component order is canonical (ascending smallest
//! constraint index), all engine state is rebuilt from the same inputs,
//! and nothing samples wall-clock time — the same seed and mutation
//! sequence replays bit-for-bit on any machine.

use crate::capacity::{CapacitySource, LinkCapacity};
use crate::flow::{
    build_flow_constraint_map, max_min_allocate_components, max_min_allocate_dense,
    refill_component_into, unconstrained_rate, AllocScratch, ComponentIndex, Constraint,
    FlowAllocation, FlowId, FlowSpec, NO_COMPONENT,
};
use crate::queueing::{FlowQueue, HopLatency};
use crate::routing::RoutingTable;
use crate::topology::{LinkId, NodeId, Topology};
use bass_trace::TraceBundle;
use bass_util::time::{SimDuration, SimTime};
use bass_util::units::{Bandwidth, DataSize};
use std::collections::{BTreeMap, BTreeSet};
use std::error::Error;
use std::fmt;

/// Errors returned by [`Mesh`] operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MeshError {
    /// The referenced node does not exist.
    UnknownNode(NodeId),
    /// No link exists between the two nodes.
    UnknownLink(NodeId, NodeId),
    /// No route exists between the two nodes.
    Unreachable(NodeId, NodeId),
    /// The referenced flow does not exist.
    UnknownFlow(FlowId),
    /// The topology is not connected (BASS assumes no partitions).
    NotConnected,
    /// A trace bundle is missing a trace for a link.
    MissingTrace(String),
}

impl fmt::Display for MeshError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MeshError::UnknownNode(n) => write!(f, "unknown node {n}"),
            MeshError::UnknownLink(a, b) => write!(f, "no link between {a} and {b}"),
            MeshError::Unreachable(a, b) => write!(f, "no route from {a} to {b}"),
            MeshError::UnknownFlow(id) => write!(f, "unknown flow {id}"),
            MeshError::NotConnected => write!(f, "topology is not connected"),
            MeshError::MissingTrace(k) => write!(f, "trace bundle has no trace for link {k}"),
        }
    }
}

impl Error for MeshError {}

/// Selects the algorithm behind [`Mesh::reallocate`].
///
/// Both engines compute the identical allocation — bit-for-bit, not
/// merely numerically close — so switching engines never changes
/// simulation behaviour, only its cost (the equivalence contract is
/// spelled out in `docs/ARCHITECTURE.md`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AllocEngine {
    /// The production engine: a persistent link → members inverted
    /// index (rebuilt only when flows or routes change), a cached
    /// [`crate::flow::ComponentIndex`] over the flow ↔ constraint graph,
    /// and bit-compare snapshots of constraint capacities and per-flow
    /// transmit demands. A tick refills only the components an observed
    /// change touches; untouched components keep their previous rates
    /// verbatim. All scratch buffers are reused across ticks.
    #[default]
    Delta,
    /// The reference oracle the equivalence batteries compare `Delta`
    /// against: rebuilds every link's member list by scanning all flows
    /// on every tick (O(links × flows × path-len)) and runs the dense
    /// water-filling oracle, allocating fresh buffers throughout.
    Dense,
}

/// Persistent inverted index backing [`AllocEngine::Delta`]: the dense
/// flow ordering, one constraint per link (and per egress-capped node)
/// with its member list, a CSR flow → constraints reverse map, and the
/// constraint components. Rebuilt only when the flow set, the routing,
/// or the egress-cap set changes — never on the steady-state tick path.
#[derive(Debug, Clone, Default)]
struct AllocIndex {
    /// Flow ids in ascending order; constraint `members` index into this.
    ids: Vec<FlowId>,
    /// Link constraints first (one per link, in `LinkId` order), then one
    /// per egress-capped node (in `NodeId` order) — the same layout the
    /// dense path rebuilds per tick. Capacities are refreshed in place
    /// each [`Mesh::reallocate`]; member lists persist.
    constraints: Vec<Constraint>,
    /// Nodes of the egress constraints, aligned with
    /// `constraints[link_count..]`.
    egress_nodes: Vec<NodeId>,
    /// CSR offsets of the flow → constraints reverse map.
    flow_cons_off: Vec<usize>,
    /// CSR payload of the flow → constraints reverse map.
    flow_cons: Vec<usize>,
    /// Connected components of the flow ↔ constraint graph (the district
    /// map of a gateway-partitioned city mesh). Rebuilt together with
    /// the membership lists.
    comps: ComponentIndex,
    /// CSR offsets of the flow-slot → egress-nodes map (every path node
    /// except the destination, whether egress-capped or not) backing the
    /// O(dirty) usage-view update.
    flow_egr_off: Vec<usize>,
    /// CSR payload of the flow-slot → egress-nodes map.
    flow_egr: Vec<u32>,
    /// CSR offsets (indexed by node id, length `max_node + 1`) of the
    /// node → consuming-flow-slots reverse map.
    egr_members_off: Vec<usize>,
    /// CSR payload of the reverse map; slots ascend within each node, so
    /// a partial egress re-sum accumulates in the same order as the
    /// full flow-major pass.
    egr_members: Vec<usize>,
    /// Set whenever membership may have changed; cleared by `rebuild`.
    dirty: bool,
}

impl AllocIndex {
    /// One pass over every flow's path (O(Σ path lengths)) rebuilding the
    /// member lists and the CSR reverse map — replacing the per-tick
    /// all-flows scan per link the dense path performs.
    fn rebuild(
        &mut self,
        link_count: usize,
        flows: &BTreeMap<FlowId, FlowState>,
        egress_caps: &BTreeMap<NodeId, Bandwidth>,
        max_node: usize,
    ) {
        self.ids.clear();
        self.constraints.clear();
        self.constraints.resize_with(link_count + egress_caps.len(), || Constraint {
            capacity: Bandwidth::ZERO,
            members: Vec::new(),
        });
        self.egress_nodes.clear();
        self.egress_nodes.extend(egress_caps.keys().copied());
        for (i, f) in flows.values().enumerate() {
            for lid in &f.links {
                self.constraints[lid.0].members.push(i);
            }
            for node in &f.egress {
                if let Ok(k) = self.egress_nodes.binary_search(node) {
                    self.constraints[link_count + k].members.push(i);
                }
            }
        }
        self.ids.extend(flows.keys().copied());
        build_flow_constraint_map(
            self.ids.len(),
            &self.constraints,
            &mut self.flow_cons_off,
            &mut self.flow_cons,
        );
        self.comps.rebuild(
            self.ids.len(),
            &self.constraints,
            &self.flow_cons_off,
            &self.flow_cons,
        );
        // Egress CSRs for the O(dirty) usage-view update: forward
        // (flow slot → path nodes consuming egress) and reverse
        // (node → consuming flow slots, ascending).
        self.flow_egr_off.clear();
        self.flow_egr_off.push(0);
        self.flow_egr.clear();
        for f in flows.values() {
            for node in &f.egress {
                self.flow_egr.push(node.0);
            }
            self.flow_egr_off.push(self.flow_egr.len());
        }
        self.egr_members_off.clear();
        self.egr_members_off.resize(max_node + 1, 0);
        for &n in &self.flow_egr {
            self.egr_members_off[n as usize + 1] += 1;
        }
        for k in 1..self.egr_members_off.len() {
            self.egr_members_off[k] += self.egr_members_off[k - 1];
        }
        self.egr_members.clear();
        self.egr_members.resize(self.flow_egr.len(), 0);
        let mut cursor = self.egr_members_off.clone();
        for (i, f) in flows.values().enumerate() {
            for node in &f.egress {
                let c = &mut cursor[node.0 as usize];
                self.egr_members[*c] = i;
                *c += 1;
            }
        }
        self.dirty = false;
    }
}

#[derive(Debug, Clone)]
struct FlowState {
    spec: FlowSpec,
    /// Links crossed by the flow's route (empty for loopback).
    links: Vec<LinkId>,
    /// Nodes whose egress the flow consumes (every path node except dst).
    egress: Vec<NodeId>,
    queue: FlowQueue,
    /// False while no usable route exists (endpoint down or the mesh
    /// partitioned by link faults): the flow gets zero allocation until
    /// connectivity returns and [`Mesh::recompute_routes_and_flows`]
    /// restores its path.
    routable: bool,
}

/// A simulated wireless mesh carrying fluid flows.
///
/// Time advances with [`Mesh::advance`]; at each step the mesh refreshes
/// link capacities from their sources, recomputes the max-min fair
/// allocation across all registered flows, and integrates per-flow
/// queues.
///
/// # Examples
///
/// ```
/// use bass_mesh::{Mesh, NodeId, Topology};
/// use bass_util::prelude::*;
///
/// let topo = Topology::full_mesh(3);
/// let mut mesh = Mesh::with_uniform_capacity(topo, Bandwidth::from_mbps(100.0))?;
/// let flow = mesh.add_flow(NodeId(0), NodeId(1), Bandwidth::from_mbps(40.0))?;
/// mesh.advance(SimDuration::from_millis(100));
/// assert_eq!(mesh.flow_rate(flow).as_mbps(), 40.0);
/// # Ok::<(), bass_mesh::MeshError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Mesh {
    topo: Topology,
    routes: RoutingTable,
    link_caps: Vec<LinkCapacity>,
    egress_caps: BTreeMap<NodeId, Bandwidth>,
    flows: BTreeMap<FlowId, FlowState>,
    next_flow: u64,
    now: SimTime,
    hop_latency: HopLatency,
    allocation: FlowAllocation,
    /// Allocated bps currently crossing each link (refreshed per step).
    link_used_bps: Vec<f64>,
    /// Allocated bps currently leaving each node, indexed by node id
    /// (refreshed per step; zero-filled past the populated range).
    egress_used_bps: Vec<f64>,
    /// Per-link effective capacities (Mbps) last reported to a journal;
    /// `None` until the first (silent, baseline-setting) emission pass.
    obs_cap_snapshot: Option<Vec<f64>>,
    /// (flows, demand Mbps, allocated Mbps) last reported to a journal.
    obs_flow_sig: Option<(u32, f64, f64)>,
    /// Nodes currently crashed (fault injection): all incident links are
    /// unusable and the node's loopback traffic is dead.
    down_nodes: BTreeSet<NodeId>,
    /// Links currently down (fault injection), independent of node state.
    down_links: BTreeSet<LinkId>,
    /// Links whose trace feed is frozen at a past instant (fault
    /// injection): capacity reads use the frozen time, not `now`.
    trace_freeze: BTreeMap<LinkId, SimTime>,
    /// Memoized `(from, next)` result of the last
    /// [`next_trace_change_after`](Self::next_trace_change_after) scan;
    /// cleared whenever a trace source is swapped or (un)frozen.
    trace_change_cache: std::cell::Cell<Option<(SimTime, Option<SimTime>)>>,
    /// Per-link weights of the last `use_weighted_routing` call, kept so
    /// fault-driven route recomputations stay quality-aware.
    last_weights: Option<Vec<f64>>,
    /// Which allocation engine `reallocate` dispatches to.
    engine: AllocEngine,
    /// Persistent membership index of the delta engine.
    index: AllocIndex,
    /// Reusable working state of the component water-fill.
    scratch: AllocScratch,
    /// Per-flow demand vector, reused across ticks.
    demands_scratch: Vec<Bandwidth>,
    /// Per-flow allocated bps from the last allocation, reused across
    /// ticks.
    rates_bps: Vec<f64>,
    /// Effective per-link capacities (bps) cached by the last
    /// `reallocate` — `advance` derives utilizations from these without
    /// re-querying every capacity source.
    link_cap_bps: Vec<f64>,
    /// Per-link utilization scratch for the queueing model.
    util_scratch: Vec<f64>,
    /// True while the delta engine's `prev_*` snapshots and `rates_bps`
    /// describe the current flow set; cleared by index rebuilds and
    /// engine switches to force a full canonical fill.
    delta_valid: bool,
    /// Constraint capacities (bps) as of the last delta allocation,
    /// aligned with `index.constraints`.
    prev_caps_bps: Vec<f64>,
    /// Per-flow transmit demands (bps) as of the last delta allocation.
    prev_demands_bps: Vec<f64>,
    /// Components marked dirty this tick (delta engine scratch).
    dirty_comps: Vec<u32>,
    /// Per-component dirty flags (delta engine scratch).
    comp_dirty: Vec<bool>,
    /// Largest node id + 1 — the length of dense per-node views.
    /// Topology is immutable after construction, so this never changes
    /// (hoisted out of the per-tick usage-view update).
    max_node: usize,
    /// Master switch for the O(dirty) tick pipeline (default on; see
    /// [`Mesh::set_dirty_tracking`]). Off = the full-scan refreshes the
    /// engines ran before dirty tracking existed — bit-identical
    /// allocations, just O(F + L) per tick.
    dirty_tracking: bool,
    /// True while `link_cap_bps` and the index's link-constraint
    /// capacities are current for every link *not* in `dirty_links`.
    caps_valid: bool,
    /// Per-link membership flags of `dirty_links`.
    link_dirty: Vec<bool>,
    /// Links whose effective capacity may have moved since the last
    /// refresh: trace change-points popped from `trace_heap`, plus
    /// cap/source/freeze mutations.
    dirty_links: Vec<u32>,
    /// Links whose effective capacity *actually* moved in the last
    /// refresh — the O(dirty) input of the delta engine's diff scan.
    cap_changed: Vec<u32>,
    /// Min-heap of upcoming trace change-points `(time, link)` across
    /// live (unfrozen) traced links; each pop marks the link
    /// capacity-dirty and re-pushes the link's next change.
    trace_heap: std::collections::BinaryHeap<std::cmp::Reverse<(SimTime, u32)>>,
    /// False when `trace_heap` must be rebuilt (trace source swapped,
    /// link (un)frozen, or never built).
    trace_heap_valid: bool,
    /// True while `demands_scratch` is current for every flow slot *not*
    /// in `dirty_flows`.
    demands_valid: bool,
    /// Per-flow-slot membership flags of `dirty_flows`.
    flow_dirty: Vec<bool>,
    /// Flow slots whose transmit demand may have moved since the last
    /// refresh: spec changes, queue-backlog byte movements, resets.
    dirty_flows: Vec<u32>,
    /// Monotone counter of observed capacity moves (see
    /// [`Mesh::capacity_changes_since`]).
    cap_epoch: u64,
    /// Recent capacity moves `(epoch, link)` with strictly increasing
    /// epochs, consumed by the controller's score cache; reset (with
    /// `cap_log_floor` advanced) when it would exceed `CAP_LOG_LIMIT`.
    cap_log: Vec<(u64, u32)>,
    /// Epoch at or below which `cap_log` history has been discarded.
    cap_log_floor: u64,
    /// Bumped whenever routing, up/down state, or the egress-cap set
    /// changes — controller score inputs the capacity log cannot
    /// express.
    routes_epoch: u64,
    /// True when the next queue pass must run the full O(F + L) path
    /// (allocation reshaped, usage views rebuilt, tracking disabled or
    /// its bookkeeping overflowed).
    pending_full: bool,
    /// Per-link membership flags of `pending_links`.
    pending_link_flag: Vec<bool>,
    /// Links whose utilization must be re-derived at the next queue
    /// pass (capacity or usage moved since the last pass).
    pending_links: Vec<u32>,
    /// Per-flow-slot membership flags of `pending_flows`.
    pending_flow_flag: Vec<bool>,
    /// Flow slots whose rate or demand moved since the last queue pass —
    /// the candidates for (re)activation.
    pending_flows: Vec<u32>,
    /// Per-flow-slot membership flags of `active_flows`.
    flow_active: Vec<bool>,
    /// Flow slots whose queue integration is not the identity: nonzero
    /// backlog, or offered demand above the allocated rate.
    active_flows: Vec<u32>,
    /// Per-flow-slot scratch flags of `rho_list`.
    rho_flag: Vec<bool>,
    /// Flow slots whose path utilization must be re-pushed this pass
    /// (they cross a link whose utilization moved).
    rho_list: Vec<u32>,
    /// Per-node scratch flags of `touched_nodes`.
    node_flag: Vec<bool>,
    /// Nodes whose egress usage must be re-summed this update.
    touched_nodes: Vec<u32>,
    /// Partial usage-view updates between drift audits (0 disables; see
    /// [`Mesh::set_usage_check_every`]).
    usage_check_every: u64,
    /// Partial usage-view updates since the last drift audit.
    usage_ticks: u64,
    /// Times the drift audit found a divergence and rebuilt the views
    /// (see [`Mesh::usage_view_rebuilds`]).
    usage_view_rebuilds: u64,
}

/// Upper bound on retained capacity-log entries; past this the log
/// resets and [`Mesh::capacity_changes_since`] readers fall back to a
/// full rescore.
const CAP_LOG_LIMIT: usize = 16_384;

impl Mesh {
    /// Creates a mesh over a connected topology; every link starts with
    /// zero capacity until a source is assigned.
    ///
    /// # Errors
    ///
    /// Returns [`MeshError::NotConnected`] for disconnected topologies —
    /// the paper's assumption is "no partitioning of the network".
    pub fn new(topo: Topology) -> Result<Self, MeshError> {
        if !topo.is_connected() {
            return Err(MeshError::NotConnected);
        }
        let routes = RoutingTable::compute(&topo);
        let link_caps = (0..topo.link_count())
            .map(|_| LinkCapacity::new(CapacitySource::Constant(Bandwidth::ZERO)))
            .collect();
        let link_count = topo.link_count();
        let max_node = topo.nodes().map(|n| n.0 as usize + 1).max().unwrap_or(0);
        Ok(Mesh {
            topo,
            routes,
            link_caps,
            egress_caps: BTreeMap::new(),
            flows: BTreeMap::new(),
            next_flow: 0,
            now: SimTime::ZERO,
            hop_latency: HopLatency::default(),
            allocation: FlowAllocation::default(),
            link_used_bps: vec![0.0; link_count],
            egress_used_bps: vec![0.0; max_node],
            obs_cap_snapshot: None,
            obs_flow_sig: None,
            down_nodes: BTreeSet::new(),
            down_links: BTreeSet::new(),
            trace_freeze: BTreeMap::new(),
            trace_change_cache: std::cell::Cell::new(None),
            last_weights: None,
            engine: AllocEngine::default(),
            index: AllocIndex { dirty: true, ..AllocIndex::default() },
            scratch: AllocScratch::default(),
            demands_scratch: Vec::new(),
            rates_bps: Vec::new(),
            link_cap_bps: vec![0.0; link_count],
            util_scratch: vec![0.0; link_count],
            delta_valid: false,
            prev_caps_bps: Vec::new(),
            prev_demands_bps: Vec::new(),
            dirty_comps: Vec::new(),
            comp_dirty: Vec::new(),
            max_node,
            dirty_tracking: true,
            caps_valid: false,
            link_dirty: vec![false; link_count],
            dirty_links: Vec::new(),
            cap_changed: Vec::new(),
            trace_heap: std::collections::BinaryHeap::new(),
            trace_heap_valid: false,
            demands_valid: false,
            flow_dirty: Vec::new(),
            dirty_flows: Vec::new(),
            cap_epoch: 0,
            cap_log: Vec::new(),
            cap_log_floor: 0,
            routes_epoch: 0,
            pending_full: true,
            pending_link_flag: vec![false; link_count],
            pending_links: Vec::new(),
            pending_flow_flag: Vec::new(),
            pending_flows: Vec::new(),
            flow_active: Vec::new(),
            active_flows: Vec::new(),
            rho_flag: Vec::new(),
            rho_list: Vec::new(),
            node_flag: vec![false; max_node],
            touched_nodes: Vec::new(),
            usage_check_every: 1024,
            usage_ticks: 0,
            usage_view_rebuilds: 0,
        })
    }

    /// The allocation engine [`Mesh::reallocate`] currently dispatches
    /// to (default [`AllocEngine::Delta`]).
    pub fn alloc_engine(&self) -> AllocEngine {
        self.engine
    }

    /// Selects the allocation engine; takes effect at the next
    /// [`Mesh::reallocate`]. All engines produce bit-identical
    /// allocations (see [`AllocEngine`]), so this only changes cost.
    pub fn set_alloc_engine(&mut self, engine: AllocEngine) {
        self.engine = engine;
        // Snapshots taken under one engine may be stale for another
        // (the dense path does not maintain `rates_bps`): force the
        // delta engine to start from a full canonical fill.
        self.delta_valid = false;
    }

    /// Whether the O(dirty) tick pipeline is enabled (see
    /// [`Mesh::set_dirty_tracking`]; default on).
    pub fn dirty_tracking(&self) -> bool {
        self.dirty_tracking
    }

    /// Enables or disables dirty-set tracking. When disabled every tick
    /// falls back to full-scan refreshes — the same allocations, bit for
    /// bit, just O(F + L) per tick regardless of how little changed.
    /// Production runs never turn it off: the disabled mode is the
    /// full-refresh oracle that `tests/dirty.rs` compares against, and
    /// the baseline of the scale bench's `delta_steady_fullref` column.
    pub fn set_dirty_tracking(&mut self, on: bool) {
        self.dirty_tracking = on;
        self.caps_valid = false;
        self.demands_valid = false;
        self.pending_full = true;
    }

    /// Sets how many partial usage-view updates may pass between drift
    /// audits (0 disables auditing; default 1024). Each audit recomputes
    /// `link_used`/`egress_used` from scratch and, on any bitwise
    /// divergence, installs the recomputed views and counts a rebuild.
    pub fn set_usage_check_every(&mut self, every: u64) {
        self.usage_check_every = every;
    }

    /// How many drift audits found (and repaired) a divergence. Stays
    /// zero in practice: partial updates re-*sum* every affected slot in
    /// full-pass order instead of applying signed deltas, so no float
    /// drift can accumulate — the audit is a safety net, not a repair
    /// loop.
    pub fn usage_view_rebuilds(&self) -> u64 {
        self.usage_view_rebuilds
    }

    /// Monotone counter of observed effective-capacity moves; pair with
    /// [`Mesh::capacity_changes_since`] to find out *which* links moved.
    pub fn capacity_epoch(&self) -> u64 {
        self.cap_epoch
    }

    /// The links whose effective capacity moved after `epoch` as
    /// `(epoch, link)` entries with strictly increasing epochs, oldest
    /// first — or `None` when that history has been discarded, in which
    /// case the caller must treat every link as changed. Capacity moves
    /// are observed (and logged) by the allocation refresh, so query
    /// this after a tick, not between out-of-band mutations.
    pub fn capacity_changes_since(&self, epoch: u64) -> Option<&[(u64, u32)]> {
        if epoch < self.cap_log_floor {
            return None;
        }
        let k = self.cap_log.partition_point(|&(e, _)| e <= epoch);
        Some(&self.cap_log[k..])
    }

    /// Bumped whenever routing, link/node up-down state, or the
    /// egress-cap set changes — controller score inputs that move
    /// without a logged per-link capacity change.
    pub fn routes_epoch(&self) -> u64 {
        self.routes_epoch
    }

    /// Creates a mesh where every link has the same constant capacity
    /// (the microbenchmark LAN shape).
    ///
    /// # Errors
    ///
    /// Returns [`MeshError::NotConnected`] for disconnected topologies.
    pub fn with_uniform_capacity(topo: Topology, capacity: Bandwidth) -> Result<Self, MeshError> {
        let mut mesh = Mesh::new(topo)?;
        for cap in &mut mesh.link_caps {
            cap.set_source(CapacitySource::Constant(capacity));
        }
        Ok(mesh)
    }

    /// Creates a mesh whose link capacities replay a [`TraceBundle`];
    /// every link must have a trace under [`TraceBundle::link_key`].
    ///
    /// # Errors
    ///
    /// Returns [`MeshError::NotConnected`] or [`MeshError::MissingTrace`].
    pub fn from_bundle(topo: Topology, bundle: &TraceBundle) -> Result<Self, MeshError> {
        let mut mesh = Mesh::new(topo)?;
        for (lid, link) in mesh.topo.links().collect::<Vec<_>>() {
            let key = TraceBundle::link_key(link.a.0, link.b.0);
            let trace = bundle
                .get(&key)
                .ok_or_else(|| MeshError::MissingTrace(key.clone()))?;
            mesh.link_caps[lid.0].set_source(CapacitySource::Trace(trace.clone()));
        }
        Ok(mesh)
    }

    /// The current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Borrow the topology.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Borrow the routing table.
    pub fn routes(&self) -> &RoutingTable {
        &self.routes
    }

    /// The hop-latency model in use.
    pub fn hop_latency(&self) -> HopLatency {
        self.hop_latency
    }

    /// Replaces the hop-latency model.
    pub fn set_hop_latency(&mut self, hl: HopLatency) {
        self.hop_latency = hl;
    }

    /// Switches the mesh to quality-aware (ETX-style) routing: routes
    /// minimize the total per-link weight returned by `weight_of`
    /// (lower is better) instead of hop count. Every registered flow is
    /// re-routed onto its new path (queues are preserved — rerouting a
    /// live mesh does not drop queued data).
    ///
    /// # Panics
    ///
    /// Panics if a weight is negative or non-finite.
    pub fn use_weighted_routing(&mut self, mut weight_of: impl FnMut(LinkId) -> f64) {
        let weights: Vec<f64> = (0..self.topo.link_count())
            .map(|i| weight_of(LinkId(i)))
            .collect();
        self.last_weights = Some(weights);
        self.recompute_routes_and_flows(&[]);
        self.reallocate();
    }

    // ----- fault state ------------------------------------------------------

    /// Marks a node up or down. A down node's links all become unusable:
    /// routes avoid them, its flows lose their allocation, and capacity
    /// queries report zero. Routes and flow paths are repaired.
    ///
    /// # Errors
    ///
    /// Returns [`MeshError::UnknownNode`] if the node does not exist.
    pub fn set_node_up(&mut self, node: NodeId, up: bool) -> Result<(), MeshError> {
        if !self.topo.contains_node(node) {
            return Err(MeshError::UnknownNode(node));
        }
        // The node's links that flip with it: those not held down by a
        // link fault or by a crashed far end.
        let flipped: Vec<LinkId> = self
            .topo
            .neighbor_links(node)
            .iter()
            .filter(|&&(nb, lid)| !self.down_links.contains(&lid) && !self.down_nodes.contains(&nb))
            .map(|&(_, lid)| lid)
            .collect();
        let changed = if up {
            self.down_nodes.remove(&node)
        } else {
            self.down_nodes.insert(node)
        };
        if changed {
            self.recompute_routes_and_flows(&flipped);
            self.reallocate();
        }
        Ok(())
    }

    /// Marks the link between `a` and `b` up or down, independent of the
    /// endpoints' node state. Routes and flow paths are repaired.
    ///
    /// # Errors
    ///
    /// Returns [`MeshError::UnknownLink`] if no such link exists.
    pub fn set_link_up(&mut self, a: NodeId, b: NodeId, up: bool) -> Result<(), MeshError> {
        let lid = self.topo.find_link(a, b).ok_or(MeshError::UnknownLink(a, b))?;
        let changed = if up {
            self.down_links.remove(&lid)
        } else {
            self.down_links.insert(lid)
        };
        if changed {
            // A crashed endpoint already holds the link down.
            let ends_up = !self.down_nodes.contains(&a) && !self.down_nodes.contains(&b);
            let flipped = if ends_up { vec![lid] } else { Vec::new() };
            self.recompute_routes_and_flows(&flipped);
            self.reallocate();
        }
        Ok(())
    }

    /// True when the node exists and is not crashed.
    pub fn node_is_up(&self, node: NodeId) -> bool {
        self.topo.contains_node(node) && !self.down_nodes.contains(&node)
    }

    /// True when the link exists, is not down, and neither endpoint is
    /// crashed.
    pub fn link_is_up(&self, a: NodeId, b: NodeId) -> bool {
        match self.topo.find_link(a, b) {
            Some(lid) => self.usable(lid),
            None => false,
        }
    }

    /// Freezes the link's trace feed at the current time: until unfrozen,
    /// capacity reads replay the instant of the freeze (a stale
    /// telemetry feed). Up/down state still applies on top.
    ///
    /// # Errors
    ///
    /// Returns [`MeshError::UnknownLink`] if no such link exists.
    pub fn freeze_link_trace(&mut self, a: NodeId, b: NodeId) -> Result<(), MeshError> {
        let lid = self.topo.find_link(a, b).ok_or(MeshError::UnknownLink(a, b))?;
        self.trace_freeze.entry(lid).or_insert(self.now);
        self.trace_change_cache.set(None);
        self.trace_heap_valid = false;
        self.mark_link_capacity_dirty(lid);
        self.reallocate();
        Ok(())
    }

    /// Reverses [`freeze_link_trace`](Self::freeze_link_trace).
    ///
    /// # Errors
    ///
    /// Returns [`MeshError::UnknownLink`] if no such link exists.
    pub fn unfreeze_link_trace(&mut self, a: NodeId, b: NodeId) -> Result<(), MeshError> {
        let lid = self.topo.find_link(a, b).ok_or(MeshError::UnknownLink(a, b))?;
        self.trace_freeze.remove(&lid);
        self.trace_change_cache.set(None);
        self.trace_heap_valid = false;
        self.mark_link_capacity_dirty(lid);
        self.reallocate();
        Ok(())
    }

    /// The raw effective capacity of the link between `a` and `b` — the
    /// per-link ceiling the max-min allocator enforces (zero when the
    /// link or an endpoint is down; frozen-in-time when the trace feed
    /// is stale). Unlike [`link_capacity`](Self::link_capacity) no
    /// egress caps are folded in, so `link_usage ≤ link_effective_capacity`
    /// is an invariant of every allocation.
    ///
    /// # Errors
    ///
    /// Returns [`MeshError::UnknownLink`] if no such link exists.
    pub fn link_effective_capacity(&self, a: NodeId, b: NodeId) -> Result<Bandwidth, MeshError> {
        let lid = self.topo.find_link(a, b).ok_or(MeshError::UnknownLink(a, b))?;
        Ok(self.effective_link_capacity(lid))
    }

    /// True when the link and both its endpoints are up.
    fn usable(&self, lid: LinkId) -> bool {
        if self.down_links.contains(&lid) {
            return false;
        }
        let link = self.topo.link(lid);
        !self.down_nodes.contains(&link.a) && !self.down_nodes.contains(&link.b)
    }

    /// The capacity the allocator grants the link right now: zero when
    /// unusable, otherwise the source's value at `now` (or at the freeze
    /// instant for stale-trace links), with any `tc` cap applied.
    fn effective_link_capacity(&self, lid: LinkId) -> Bandwidth {
        if !self.usable(lid) {
            return Bandwidth::ZERO;
        }
        let at = self.trace_freeze.get(&lid).copied().unwrap_or(self.now);
        self.link_caps[lid.0].effective_at(at)
    }

    /// Brings the routing table up to date with the down links/nodes and
    /// tolerantly re-routes every flow: flows whose route vanished are
    /// parked as unroutable (zero allocation, queues preserved) and
    /// restored when a later update finds a path again. Min-hop routes
    /// are repaired from `flipped`, the links whose usability just
    /// changed; weighted routes are recomputed in full.
    fn recompute_routes_and_flows(&mut self, flipped: &[LinkId]) {
        // Borrow the fault state instead of cloning it: the routing
        // update only needs shared access to it.
        let topo = &self.topo;
        let down_links = &self.down_links;
        let down_nodes = &self.down_nodes;
        let usable = |lid: LinkId| {
            if down_links.contains(&lid) {
                return false;
            }
            let link = topo.link(lid);
            !down_nodes.contains(&link.a) && !down_nodes.contains(&link.b)
        };
        match &self.last_weights {
            Some(w) => {
                self.routes = RoutingTable::compute_weighted_filtered(topo, |lid| w[lid.0], usable);
            }
            None => self.routes.repair(topo, flipped, usable),
        }
        for f in self.flows.values_mut() {
            let (src, dst) = (f.spec.src, f.spec.dst);
            let routed = if src == dst {
                // Loopback dies with its node.
                (!self.down_nodes.contains(&src)).then(|| (Vec::new(), Vec::new()))
            } else {
                self.routes.path_links(&self.topo, src, dst).map(|links| {
                    let path = self.routes.path(src, dst).expect("path exists");
                    (links, path[..path.len() - 1].to_vec())
                })
            };
            match routed {
                Some((links, egress)) => {
                    f.links = links;
                    f.egress = egress;
                    f.routable = true;
                }
                None => {
                    f.links.clear();
                    f.egress.clear();
                    f.routable = false;
                }
            }
        }
        self.index.dirty = true;
        // Up/down state feeds effective capacities and paths feed
        // controller scores: both the capacity caches and any score
        // cache keyed on the routes epoch must refresh.
        self.caps_valid = false;
        self.routes_epoch += 1;
    }

    // ----- capacity control ------------------------------------------------

    /// Sets the base capacity source for the link between `a` and `b`.
    ///
    /// # Errors
    ///
    /// Returns [`MeshError::UnknownLink`] if no such link exists.
    pub fn set_link_source(
        &mut self,
        a: NodeId,
        b: NodeId,
        source: CapacitySource,
    ) -> Result<(), MeshError> {
        let lid = self.topo.find_link(a, b).ok_or(MeshError::UnknownLink(a, b))?;
        self.link_caps[lid.0].set_source(source);
        self.trace_change_cache.set(None);
        self.trace_heap_valid = false;
        self.mark_link_capacity_dirty(lid);
        Ok(())
    }

    /// Applies (or clears, with `None`) a `tc`-style cap on a link.
    ///
    /// # Errors
    ///
    /// Returns [`MeshError::UnknownLink`] if no such link exists.
    pub fn set_link_cap(
        &mut self,
        a: NodeId,
        b: NodeId,
        cap: Option<Bandwidth>,
    ) -> Result<(), MeshError> {
        let lid = self.topo.find_link(a, b).ok_or(MeshError::UnknownLink(a, b))?;
        self.link_caps[lid.0].set_cap(cap);
        self.mark_link_capacity_dirty(lid);
        Ok(())
    }

    /// Applies (or clears) a cap on a node's total outgoing traffic —
    /// the paper's "limit outgoing traffic at node 2 to 30 Mbps".
    ///
    /// # Errors
    ///
    /// Returns [`MeshError::UnknownNode`] if the node does not exist.
    pub fn set_node_egress_cap(
        &mut self,
        node: NodeId,
        cap: Option<Bandwidth>,
    ) -> Result<(), MeshError> {
        if !self.topo.contains_node(node) {
            return Err(MeshError::UnknownNode(node));
        }
        match cap {
            Some(c) => {
                self.egress_caps.insert(node, c);
            }
            None => {
                self.egress_caps.remove(&node);
            }
        }
        // The egress constraint set changed shape (or value): rebuild the
        // membership index at the next allocation. Controller scores see
        // this through the routes epoch (no per-link capacity is logged).
        self.index.dirty = true;
        self.routes_epoch += 1;
        Ok(())
    }

    // ----- flows ------------------------------------------------------------

    /// Registers a flow from `src` to `dst` with the given demand.
    /// Loopback flows (`src == dst`) are allowed and are never
    /// network-constrained. When fault injection has severed every route
    /// between the endpoints the flow is still registered — parked as
    /// unroutable with zero allocation until connectivity returns
    /// (disconnected *topologies* are rejected at [`Mesh::new`], so this
    /// only happens under faults).
    ///
    /// # Errors
    ///
    /// Returns [`MeshError::UnknownNode`] for unknown endpoints.
    pub fn add_flow(
        &mut self,
        src: NodeId,
        dst: NodeId,
        demand: Bandwidth,
    ) -> Result<FlowId, MeshError> {
        for &n in &[src, dst] {
            if !self.topo.contains_node(n) {
                return Err(MeshError::UnknownNode(n));
            }
        }
        let routed = if src == dst {
            (!self.down_nodes.contains(&src)).then(|| (Vec::new(), Vec::new()))
        } else {
            self.routes.path_links(&self.topo, src, dst).map(|links| {
                let path = self.routes.path(src, dst).expect("path exists");
                (links, path[..path.len() - 1].to_vec())
            })
        };
        let (links, egress, routable) = match routed {
            Some((links, egress)) => (links, egress, true),
            None => (Vec::new(), Vec::new(), false),
        };
        let id = FlowId(self.next_flow);
        self.next_flow += 1;
        self.flows.insert(
            id,
            FlowState {
                spec: FlowSpec { src, dst, demand },
                links,
                egress,
                queue: FlowQueue::new(),
                routable,
            },
        );
        self.index.dirty = true;
        Ok(id)
    }

    /// Updates a flow's offered demand.
    ///
    /// # Errors
    ///
    /// Returns [`MeshError::UnknownFlow`] for unknown ids.
    pub fn set_flow_demand(&mut self, id: FlowId, demand: Bandwidth) -> Result<(), MeshError> {
        let flow = self.flows.get_mut(&id).ok_or(MeshError::UnknownFlow(id))?;
        // The emulator re-pushes every demand every tick; only a bitwise
        // change dirties the slot (the common tick marks nothing).
        let changed = flow.spec.demand.as_bps().to_bits() != demand.as_bps().to_bits();
        flow.spec.demand = demand;
        if changed {
            self.mark_flow_demand_dirty(id);
        }
        Ok(())
    }

    /// Removes a flow, dropping its queue.
    ///
    /// # Errors
    ///
    /// Returns [`MeshError::UnknownFlow`] for unknown ids.
    pub fn remove_flow(&mut self, id: FlowId) -> Result<(), MeshError> {
        self.flows.remove(&id).ok_or(MeshError::UnknownFlow(id))?;
        self.index.dirty = true;
        Ok(())
    }

    /// Clears a flow's queue backlog (connection re-establishment after a
    /// component restart).
    ///
    /// # Errors
    ///
    /// Returns [`MeshError::UnknownFlow`] for unknown ids.
    pub fn reset_flow_queue(&mut self, id: FlowId) -> Result<(), MeshError> {
        let flow = self.flows.get_mut(&id).ok_or(MeshError::UnknownFlow(id))?;
        flow.queue.reset();
        // Dropping the backlog moves the drain demand and may
        // deactivate the queue.
        self.mark_flow_demand_dirty(id);
        Ok(())
    }

    /// The spec of a flow.
    ///
    /// # Errors
    ///
    /// Returns [`MeshError::UnknownFlow`] for unknown ids.
    pub fn flow_spec(&self, id: FlowId) -> Result<FlowSpec, MeshError> {
        self.flows
            .get(&id)
            .map(|f| f.spec)
            .ok_or(MeshError::UnknownFlow(id))
    }

    /// Number of registered flows.
    pub fn flow_count(&self) -> usize {
        self.flows.len()
    }

    // ----- stepping ---------------------------------------------------------

    /// Advances simulation time by `dt`: refresh capacities, recompute
    /// the fair allocation, and integrate queues.
    pub fn advance(&mut self, dt: SimDuration) {
        self.advance_profiled(dt, None, None);
    }

    /// [`advance`](Self::advance) with optional journal emission and span
    /// profiling. With both `None` this *is* `advance` — the profiler is
    /// threaded as `Option` so the hot path pays one branch per phase
    /// and never reads a clock when profiling is off. Spans recorded
    /// (see `docs/OBSERVABILITY.md`): the `mesh.*` allocation phases via
    /// [`reallocate_profiled`](Self::reallocate_profiled), plus
    /// `mesh.queues` (queue integration) and `mesh.obs_emit` (journal
    /// diffing) here.
    pub fn advance_profiled(
        &mut self,
        dt: SimDuration,
        journal: Option<&mut bass_obs::Journal>,
        mut profiler: Option<&mut bass_obs::SpanProfiler>,
    ) {
        self.now += dt;
        self.reallocate_profiled(profiler.as_deref_mut());
        let mut clock = bass_obs::PhaseClock::new(profiler.is_some());
        let link_count = self.topo.link_count();
        let n = self.flows.len();
        // The O(dirty) pass is only sound when the activity bookkeeping
        // matches the current flow set and nothing demanded a rebuild.
        let full = self.pending_full
            || !self.dirty_tracking
            || self.index.ids.len() != n
            || self.allocation.len() != n
            || self.flow_active.len() != n
            || self.rho_flag.len() != n
            || self.pending_flow_flag.len() != n
            || self.util_scratch.len() != link_count
            || self.pending_link_flag.len() != link_count;
        if full {
            self.advance_queues_full(dt, link_count);
        } else {
            self.advance_queues_dirty(dt);
        }
        clock.lap(profiler.as_deref_mut(), "mesh.queues");
        if let Some(j) = journal {
            self.emit_capacity_changes(j, "trace");
            self.emit_flow_rate_recompute(j);
            clock.lap(profiler, "mesh.obs_emit");
        }
    }

    /// The full O(F + L) queue pass: derive every link's utilization,
    /// advance every flow queue, and rebuild the activity bookkeeping
    /// from scratch — also re-arming the dirty sets so subsequent
    /// passes can go O(dirty).
    fn advance_queues_full(&mut self, dt: SimDuration, link_count: usize) {
        // Per-link utilization for the queueing model, derived from the
        // effective capacities `reallocate` just cached (same instant,
        // so no capacity source is queried twice per tick).
        self.util_scratch.resize(link_count, 0.0);
        for i in 0..link_count {
            let cap = self.link_cap_bps[i];
            self.util_scratch[i] = if cap <= f64::EPSILON {
                if self.link_used_bps[i] > 0.0 {
                    1.0
                } else {
                    0.0
                }
            } else {
                (self.link_used_bps[i] / cap).clamp(0.0, 1.0)
            };
        }
        let n = self.flows.len();
        // Backlog movements feed the demand dirty set only while the
        // slot numbering is live; under a stale index the next refresh
        // is full anyway.
        let track = self.dirty_tracking && !self.index.dirty && self.flow_dirty.len() == n;
        self.flow_active.clear();
        self.flow_active.resize(n, false);
        self.active_flows.clear();
        self.rho_flag.clear();
        self.rho_flag.resize(n, false);
        self.rho_list.clear();
        // `reallocate` left `allocation` keyed exactly by the current
        // flow set (ascending), so the two maps zip in lockstep — no
        // per-flow map lookup on the hot path.
        debug_assert_eq!(self.allocation.len(), self.flows.len());
        for (slot, ((&id, flow), (aid, allocated))) in
            self.flows.iter_mut().zip(self.allocation.iter()).enumerate()
        {
            debug_assert_eq!(id, aid);
            let _ = id;
            let before = flow.queue.backlog().as_bytes();
            flow.queue.advance(dt, flow.spec.demand, allocated);
            let rho = flow
                .links
                .iter()
                .map(|l| self.util_scratch[l.0])
                .fold(0.0f64, f64::max);
            flow.queue.set_path_utilization(rho);
            if track && flow.queue.backlog().as_bytes() != before && !self.flow_dirty[slot] {
                self.flow_dirty[slot] = true;
                self.dirty_flows.push(slot as u32);
            }
            if flow.queue.backlog_bits() > 0.0
                || flow.spec.demand.as_bps() > allocated.as_bps()
            {
                self.flow_active[slot] = true;
                self.active_flows.push(slot as u32);
            }
        }
        // The full pass consumed every pending marker: reset the sets.
        self.pending_link_flag.clear();
        self.pending_link_flag.resize(link_count, false);
        self.pending_links.clear();
        self.pending_flow_flag.clear();
        self.pending_flow_flag.resize(n, false);
        self.pending_flows.clear();
        self.pending_full = !self.dirty_tracking;
    }

    /// The O(dirty) queue pass: utilizations re-derived only for links
    /// whose capacity or usage moved, activity re-evaluated only for
    /// flows whose rate or demand moved, queue integration only over
    /// active flows (everyone else's advance is bitwise the identity),
    /// and path utilization re-pushed only to flows crossing a moved
    /// link. Only sound right after a tick whose reallocation kept the
    /// pending sets live (see the guard in
    /// [`advance_profiled`](Self::advance_profiled)).
    fn advance_queues_dirty(&mut self, dt: SimDuration) {
        // 1. Re-derive the utilization of moved links; members of links
        //    whose utilization bits actually moved need a rho re-push.
        for k in 0..self.pending_links.len() {
            let l = self.pending_links[k] as usize;
            self.pending_link_flag[l] = false;
            let cap = self.link_cap_bps[l];
            let util = if cap <= f64::EPSILON {
                if self.link_used_bps[l] > 0.0 {
                    1.0
                } else {
                    0.0
                }
            } else {
                (self.link_used_bps[l] / cap).clamp(0.0, 1.0)
            };
            if util.to_bits() == self.util_scratch[l].to_bits() {
                continue;
            }
            self.util_scratch[l] = util;
            for &m in &self.index.constraints[l].members {
                if !self.rho_flag[m] {
                    self.rho_flag[m] = true;
                    self.rho_list.push(m as u32);
                }
            }
        }
        self.pending_links.clear();
        // 2. Re-evaluate the activity of touched flows.
        for k in 0..self.pending_flows.len() {
            let s = self.pending_flows[k] as usize;
            self.pending_flow_flag[s] = false;
            if self.flow_active[s] {
                continue;
            }
            let f = &self.flows[&self.index.ids[s]];
            let allocated_bps = Bandwidth::from_bps(self.rates_bps[s]).as_bps();
            if f.queue.backlog_bits() > 0.0 || f.spec.demand.as_bps() > allocated_bps {
                self.flow_active[s] = true;
                self.active_flows.push(s as u32);
            }
        }
        self.pending_flows.clear();
        // 3. Integrate active queues; drop the ones that reached the
        //    integration fixed point (drained, demand satisfied).
        let mut k = 0;
        while k < self.active_flows.len() {
            let s = self.active_flows[k] as usize;
            let id = self.index.ids[s];
            let allocated = Bandwidth::from_bps(self.rates_bps[s]);
            let flow = self.flows.get_mut(&id).expect("indexed flow exists");
            let before = flow.queue.backlog().as_bytes();
            flow.queue.advance(dt, flow.spec.demand, allocated);
            if flow.queue.backlog().as_bytes() != before && !self.flow_dirty[s] {
                self.flow_dirty[s] = true;
                self.dirty_flows.push(s as u32);
            }
            if flow.queue.backlog_bits() > 0.0 || flow.spec.demand.as_bps() > allocated.as_bps()
            {
                k += 1;
            } else {
                self.flow_active[s] = false;
                self.active_flows.swap_remove(k);
            }
        }
        // 4. Re-push path utilization to flows crossing moved links.
        for k in 0..self.rho_list.len() {
            let s = self.rho_list[k] as usize;
            self.rho_flag[s] = false;
            let id = self.index.ids[s];
            let flow = self.flows.get_mut(&id).expect("indexed flow exists");
            let rho = flow
                .links
                .iter()
                .map(|l| self.util_scratch[l.0])
                .fold(0.0f64, f64::max);
            flow.queue.set_path_utilization(rho);
        }
        self.rho_list.clear();
    }

    /// Whether one `dt`-long [`advance`](Self::advance) would leave
    /// every flow queue bitwise unchanged, assuming no step input moves
    /// (the event-driven scanner separately proves that). When true —
    /// and it stays true, since nothing else changed — a whole window of
    /// ticks reduces to moving the clock, which is exactly what
    /// [`advance_quiescent`](Self::advance_quiescent) does.
    pub fn queues_quiescent(&self, dt: SimDuration) -> bool {
        if self.allocation.len() != self.flows.len() {
            // No allocation computed yet (pre-first-tick) — a full step
            // would change state, so nothing is skippable.
            return false;
        }
        self.flows
            .values()
            .zip(self.allocation.iter())
            .all(|(f, (_, allocated))| {
                f.queue.advance_is_identity(dt, f.spec.demand, allocated)
            })
    }

    /// Earliest strictly-later change-point across every live (unfrozen)
    /// traced link, or `None` when all capacities are constant from `t`
    /// on. Frozen links read their capacity at the freeze time, so their
    /// traces cannot change anything until unfrozen.
    /// The scan is memoized: change-points are a static property of the
    /// installed traces, so a result `(from, next)` answers every query
    /// in `[from, next)` without rescanning — the earliest change after
    /// `from` being `next` means the interval contains no change-point,
    /// hence the earliest change after any `t` inside it is still
    /// `next`. The cache is dropped whenever the set itself can move:
    /// [`set_link_source`](Self::set_link_source),
    /// [`freeze_link_trace`](Self::freeze_link_trace),
    /// [`unfreeze_link_trace`](Self::unfreeze_link_trace).
    pub fn next_trace_change_after(&self, t: SimTime) -> Option<SimTime> {
        if let Some((from, next)) = self.trace_change_cache.get() {
            if t >= from && next.is_none_or(|n| t < n) {
                return next;
            }
        }
        let mut next: Option<SimTime> = None;
        for (i, lc) in self.link_caps.iter().enumerate() {
            if self.trace_freeze.contains_key(&LinkId(i)) {
                continue;
            }
            if let CapacitySource::Trace(trace) = lc.source() {
                if let Some(st) = trace.next_change_after(t) {
                    next = Some(next.map_or(st, |n| n.min(st)));
                }
            }
        }
        self.trace_change_cache.set(Some((t, next)));
        next
    }

    /// Advances the clock by `dt` without touching capacities,
    /// allocations, or queues. Only sound for a tick the caller has
    /// proven quiescent — every step input bitwise unchanged and
    /// [`queues_quiescent`](Self::queues_quiescent) — in which case a
    /// full [`advance`](Self::advance) would recompute the identity.
    pub fn advance_quiescent(&mut self, dt: SimDuration) {
        self.now += dt;
    }

    /// Recomputes the allocation at the current time without advancing
    /// queues (useful right after changing demands or capacities),
    /// dispatching to the configured [`AllocEngine`].
    pub fn reallocate(&mut self) {
        self.reallocate_profiled(None);
    }

    /// [`reallocate`](Self::reallocate) with span profiling. The delta
    /// engine records its interior phases: `mesh.index_rebuild` when the
    /// membership index was dirty, `mesh.trace_refresh` (full capacity
    /// refresh) or `mesh.cap_diff` (dirty links only), `mesh.demand_diff`
    /// on a dirty-slot demand refresh, `mesh.component_scan` (the
    /// dirty-component diff), `mesh.water_fill` (the full canonical fill
    /// or the dirty-component refills), then `mesh.usage_views` or
    /// `mesh.usage_delta`. The dense reference engine records one
    /// `mesh.dense_realloc` span.
    pub fn reallocate_profiled(&mut self, profiler: Option<&mut bass_obs::SpanProfiler>) {
        match self.engine {
            AllocEngine::Dense => {
                let _span = bass_obs::SpanProfiler::span(profiler, "mesh.dense_realloc");
                self.reallocate_dense();
            }
            AllocEngine::Delta => self.reallocate_delta(profiler),
        }
    }

    /// The transmit demand of one flow: offered load plus bandwidth to
    /// drain any queued backlog within one second — this is how a real
    /// transport keeps transmitting a queue even after the application
    /// stops producing. An unroutable flow transmits nothing at all.
    fn transmit_demand(f: &FlowState) -> Bandwidth {
        if !f.routable {
            Bandwidth::ZERO
        } else {
            f.spec.demand + f.queue.backlog().rate_over(SimDuration::from_secs(1))
        }
    }

    /// Marks one link as needing a capacity re-read at the next refresh.
    fn mark_link_capacity_dirty(&mut self, lid: LinkId) {
        if lid.0 >= self.link_dirty.len() {
            self.caps_valid = false;
            return;
        }
        if !self.link_dirty[lid.0] {
            self.link_dirty[lid.0] = true;
            self.dirty_links.push(lid.0 as u32);
        }
    }

    /// Marks one flow's transmit demand (and queue-activity predicate)
    /// as needing a refresh at the next allocation / queue pass.
    fn mark_flow_demand_dirty(&mut self, id: FlowId) {
        if self.index.dirty || self.flow_dirty.len() != self.index.ids.len() {
            // The slot map is stale; the next allocation runs the full
            // refresh (and a full queue pass) anyway.
            self.demands_valid = false;
            self.pending_full = true;
            return;
        }
        match self.index.ids.binary_search(&id) {
            Ok(slot) => {
                if !self.flow_dirty[slot] {
                    self.flow_dirty[slot] = true;
                    self.dirty_flows.push(slot as u32);
                }
                self.touch_flow(slot);
            }
            Err(_) => {
                self.demands_valid = false;
                self.pending_full = true;
            }
        }
    }

    /// Queues a link for utilization re-derivation at the next queue
    /// pass.
    fn touch_link(&mut self, l: usize) {
        if l >= self.pending_link_flag.len() {
            self.pending_full = true;
            return;
        }
        if !self.pending_link_flag[l] {
            self.pending_link_flag[l] = true;
            self.pending_links.push(l as u32);
        }
    }

    /// Queues a flow slot for queue-activity re-evaluation at the next
    /// queue pass.
    fn touch_flow(&mut self, slot: usize) {
        if slot >= self.pending_flow_flag.len() {
            self.pending_full = true;
            return;
        }
        if !self.pending_flow_flag[slot] {
            self.pending_flow_flag[slot] = true;
            self.pending_flows.push(slot as u32);
        }
    }

    /// Records that a link's effective capacity moved: advances the
    /// capacity epoch, appends to the change log (resetting it when
    /// full), and queues the link for this tick's delta diff scan and
    /// utilization refresh.
    fn log_cap_change(&mut self, l: usize) {
        self.cap_epoch += 1;
        if self.cap_log.len() >= CAP_LOG_LIMIT {
            self.cap_log.clear();
            self.cap_log_floor = self.cap_epoch - 1;
        }
        self.cap_log.push((self.cap_epoch, l as u32));
        self.cap_changed.push(l as u32);
        self.touch_link(l);
    }

    /// Rebuilds the upcoming trace change-point heap from scratch: one
    /// entry per live (unfrozen) traced link, holding its earliest
    /// change strictly after `now`.
    fn rebuild_trace_heap(&mut self) {
        self.trace_heap.clear();
        for (i, lc) in self.link_caps.iter().enumerate() {
            if self.trace_freeze.contains_key(&LinkId(i)) {
                continue;
            }
            if let CapacitySource::Trace(trace) = lc.source() {
                if let Some(t) = trace.next_change_after(self.now) {
                    self.trace_heap.push(std::cmp::Reverse((t, i as u32)));
                }
            }
        }
        self.trace_heap_valid = true;
    }

    /// Full capacity refresh: re-reads every link's effective capacity
    /// and every egress cap into the persistent index, logging each
    /// capacity that moved (the delta diff scan and the controller's
    /// score cache consume the log). Used when dirty tracking is off or
    /// its bookkeeping was invalidated; re-arms the dirty-set state.
    fn refresh_constraint_caps(&mut self, link_count: usize) {
        self.cap_changed.clear();
        self.link_cap_bps.resize(link_count, 0.0);
        for i in 0..link_count {
            let bps = self.effective_link_capacity(LinkId(i)).as_bps();
            if bps.to_bits() != self.link_cap_bps[i].to_bits() {
                self.link_cap_bps[i] = bps;
                self.log_cap_change(i);
            }
        }
        let AllocIndex { constraints, egress_nodes, .. } = &mut self.index;
        for (c, &bps) in constraints.iter_mut().zip(&self.link_cap_bps) {
            c.capacity = Bandwidth::from_bps(bps);
        }
        for (k, node) in egress_nodes.iter().enumerate() {
            constraints[link_count + k].capacity = self.egress_caps[node];
        }
        // The full pass covered every link: drain the per-link dirty set
        // and re-arm the trace heap so the next tick can go O(dirty).
        for k in 0..self.dirty_links.len() {
            let l = self.dirty_links[k] as usize;
            if let Some(fl) = self.link_dirty.get_mut(l) {
                *fl = false;
            }
        }
        self.dirty_links.clear();
        if self.dirty_tracking {
            self.rebuild_trace_heap();
            self.caps_valid = true;
        } else {
            self.caps_valid = false;
        }
    }

    /// O(dirty) capacity refresh: pops due trace change-points off the
    /// heap into the dirty-link set, then re-reads only the dirty
    /// links. Only sound while `caps_valid` — every link outside the
    /// dirty set has a bitwise-current cached capacity.
    fn refresh_constraint_caps_dirty(&mut self) {
        self.cap_changed.clear();
        if !self.trace_heap_valid {
            self.rebuild_trace_heap();
        }
        while let Some(&std::cmp::Reverse((t, l))) = self.trace_heap.peek() {
            if t > self.now {
                break;
            }
            self.trace_heap.pop();
            self.mark_link_capacity_dirty(LinkId(l as usize));
            if let CapacitySource::Trace(trace) = self.link_caps[l as usize].source() {
                if let Some(nt) = trace.next_change_after(self.now) {
                    self.trace_heap.push(std::cmp::Reverse((nt, l)));
                }
            }
        }
        for k in 0..self.dirty_links.len() {
            let l = self.dirty_links[k] as usize;
            self.link_dirty[l] = false;
            let bps = self.effective_link_capacity(LinkId(l)).as_bps();
            if bps.to_bits() != self.link_cap_bps[l].to_bits() {
                self.link_cap_bps[l] = bps;
                self.index.constraints[l].capacity = Bandwidth::from_bps(bps);
                self.log_cap_change(l);
            }
        }
        self.dirty_links.clear();
    }

    /// Refreshes `demands_scratch`. Returns `true` when only the dirty
    /// slots were rewritten — so `dirty_flows` is an exhaustive list of
    /// every slot that can have moved — and `false` after a full
    /// rewrite. Either way the dirty-flow set is left intact for the
    /// delta diff scan; the caller clears it via
    /// [`clear_dirty_flows`](Self::clear_dirty_flows).
    fn refresh_demands(&mut self) -> bool {
        let n = self.index.ids.len();
        if self.dirty_tracking
            && self.demands_valid
            && self.demands_scratch.len() == n
            && self.flow_dirty.len() == n
        {
            for k in 0..self.dirty_flows.len() {
                let slot = self.dirty_flows[k] as usize;
                let f = &self.flows[&self.index.ids[slot]];
                self.demands_scratch[slot] = Self::transmit_demand(f);
            }
            return true;
        }
        self.demands_scratch.clear();
        for f in self.flows.values() {
            self.demands_scratch.push(Self::transmit_demand(f));
        }
        self.dirty_flows.clear();
        self.flow_dirty.clear();
        self.flow_dirty.resize(n, false);
        self.demands_valid = self.dirty_tracking;
        false
    }

    /// Clears the dirty-flow set (flags and list).
    fn clear_dirty_flows(&mut self) {
        for k in 0..self.dirty_flows.len() {
            let s = self.dirty_flows[k] as usize;
            if let Some(fl) = self.flow_dirty.get_mut(s) {
                *fl = false;
            }
        }
        self.dirty_flows.clear();
    }

    /// Recomputes the per-link and per-node-egress usage views from
    /// `rates_bps`. Each link's members are in ascending flow order, so
    /// the float accumulation order matches the dense path's flow-major
    /// loop exactly. A full rewrite can move any utilization, so the
    /// next queue pass runs in full.
    fn update_usage_views(&mut self, link_count: usize) {
        self.link_used_bps.resize(link_count, 0.0);
        self.link_used_bps.fill(0.0);
        for (ci, c) in self.index.constraints[..link_count].iter().enumerate() {
            for &m in &c.members {
                self.link_used_bps[ci] += self.rates_bps[m];
            }
        }
        self.egress_used_bps.resize(self.max_node, 0.0);
        self.egress_used_bps.fill(0.0);
        for (i, f) in self.flows.values().enumerate() {
            for &node in &f.egress {
                self.egress_used_bps[node.0 as usize] += self.rates_bps[i];
            }
        }
        self.pending_full = true;
    }

    /// O(dirty) usage-view update: re-sums the links of every dirty
    /// component and the egress of every node their flows touch, in the
    /// same ascending-member order as the full pass. Re-summing (rather
    /// than applying signed deltas) keeps every view bit-identical to a
    /// full recompute, which the periodic drift audit asserts.
    fn update_usage_views_delta(&mut self, link_count: usize) {
        for k in 0..self.dirty_comps.len() {
            let comp = self.dirty_comps[k];
            for &ci in self.index.comps.constraints_of(comp) {
                if ci >= link_count {
                    continue; // egress constraints have no usage view
                }
                let mut sum = 0.0;
                for &m in &self.index.constraints[ci].members {
                    sum += self.rates_bps[m];
                }
                self.link_used_bps[ci] = sum;
                if !self.pending_link_flag[ci] {
                    self.pending_link_flag[ci] = true;
                    self.pending_links.push(ci as u32);
                }
            }
            for &i in self.index.comps.flows_of(comp) {
                let s = self.index.flow_egr_off[i];
                let e = self.index.flow_egr_off[i + 1];
                for &node in &self.index.flow_egr[s..e] {
                    let n = node as usize;
                    if !self.node_flag[n] {
                        self.node_flag[n] = true;
                        self.touched_nodes.push(node);
                    }
                }
            }
        }
        for k in 0..self.touched_nodes.len() {
            let n = self.touched_nodes[k] as usize;
            self.node_flag[n] = false;
            let s = self.index.egr_members_off[n];
            let e = self.index.egr_members_off[n + 1];
            let mut sum = 0.0;
            for &m in &self.index.egr_members[s..e] {
                sum += self.rates_bps[m];
            }
            self.egress_used_bps[n] = sum;
        }
        self.touched_nodes.clear();
    }

    /// Recomputes both usage views from scratch and compares bitwise
    /// against the incrementally maintained ones. On any divergence the
    /// recomputed views are installed, the rebuild counter bumps, and
    /// the next queue pass runs in full. Returns whether drift was
    /// found (asserted never in the unit tests of the maintained path).
    fn audit_usage_views(&mut self, link_count: usize) -> bool {
        let mut links = vec![0.0; link_count];
        for (ci, c) in self.index.constraints[..link_count].iter().enumerate() {
            for &m in &c.members {
                links[ci] += self.rates_bps[m];
            }
        }
        let mut egress = vec![0.0; self.max_node];
        for (i, f) in self.flows.values().enumerate() {
            for &node in &f.egress {
                egress[node.0 as usize] += self.rates_bps[i];
            }
        }
        let drift = links.len() != self.link_used_bps.len()
            || egress.len() != self.egress_used_bps.len()
            || links
                .iter()
                .zip(&self.link_used_bps)
                .any(|(a, b)| a.to_bits() != b.to_bits())
            || egress
                .iter()
                .zip(&self.egress_used_bps)
                .any(|(a, b)| a.to_bits() != b.to_bits());
        if drift {
            self.link_used_bps = links;
            self.egress_used_bps = egress;
            self.usage_view_rebuilds += 1;
            self.pending_full = true;
        }
        drift
    }

    /// The delta hot path: diff constraint capacities and transmit
    /// demands against the last tick's snapshots (bit-compare — the
    /// common quiescent tick marks nothing), refill only the dirty
    /// components, and keep every other component's rates verbatim.
    /// Falls back to one full canonical fill whenever the membership
    /// index was rebuilt or the engine was just selected.
    fn reallocate_delta(&mut self, mut profiler: Option<&mut bass_obs::SpanProfiler>) {
        let mut clock = bass_obs::PhaseClock::new(profiler.is_some());
        let link_count = self.topo.link_count();
        if self.index.dirty {
            self.index.rebuild(link_count, &self.flows, &self.egress_caps, self.max_node);
            self.delta_valid = false;
            self.caps_valid = false;
            self.demands_valid = false;
            self.pending_full = true;
            clock.lap(profiler.as_deref_mut(), "mesh.index_rebuild");
        }

        let caps_partial =
            self.dirty_tracking && self.caps_valid && self.link_cap_bps.len() == link_count;
        if caps_partial {
            self.refresh_constraint_caps_dirty();
            clock.lap(profiler.as_deref_mut(), "mesh.cap_diff");
        } else {
            self.refresh_constraint_caps(link_count);
            clock.lap(profiler.as_deref_mut(), "mesh.trace_refresh");
        }

        let demands_partial = self.refresh_demands();
        if demands_partial {
            clock.lap(profiler.as_deref_mut(), "mesh.demand_diff");
        }
        if !self.delta_valid {
            // Full canonical fill, then baseline the snapshots.
            max_min_allocate_components(
                &self.demands_scratch,
                &self.index.constraints,
                &self.index.flow_cons_off,
                &self.index.flow_cons,
                &self.index.comps,
                &mut self.scratch,
                &mut self.rates_bps,
            );
            self.prev_caps_bps.clear();
            self.prev_caps_bps
                .extend(self.index.constraints.iter().map(|c| c.capacity.as_bps()));
            self.prev_demands_bps.clear();
            self.prev_demands_bps
                .extend(self.demands_scratch.iter().map(|d| d.as_bps()));
            self.delta_valid = true;
            self.clear_dirty_flows();
            clock.lap(profiler.as_deref_mut(), "mesh.water_fill");
            self.allocation.assign(&self.index.ids, &self.rates_bps);
            self.update_usage_views(link_count);
            clock.lap(profiler, "mesh.usage_views");
            return;
        }

        // Dirty-component scan: a constraint whose capacity moved or a
        // flow whose demand moved (backlog drain included) dirties its
        // component. Unconstrained flows are re-granted directly. With
        // the dirty sets live the scan touches only the links the
        // capacity refresh observed moving and the flows in the dirty
        // demand set — O(dirty), not O(F + L).
        self.comp_dirty.clear();
        self.comp_dirty.resize(self.index.comps.component_count(), false);
        self.dirty_comps.clear();
        if caps_partial {
            for k in 0..self.cap_changed.len() {
                let ci = self.cap_changed[k] as usize;
                let bps = self.index.constraints[ci].capacity.as_bps();
                if bps.to_bits() != self.prev_caps_bps[ci].to_bits() {
                    self.prev_caps_bps[ci] = bps;
                    if !self.index.constraints[ci].members.is_empty() {
                        let comp = self.index.comps.constraint_component(ci);
                        if !self.comp_dirty[comp as usize] {
                            self.comp_dirty[comp as usize] = true;
                            self.dirty_comps.push(comp);
                        }
                    }
                }
            }
        } else {
            for (ci, c) in self.index.constraints.iter().enumerate() {
                let bps = c.capacity.as_bps();
                if bps.to_bits() != self.prev_caps_bps[ci].to_bits() {
                    self.prev_caps_bps[ci] = bps;
                    if !c.members.is_empty() {
                        let comp = self.index.comps.constraint_component(ci);
                        if !self.comp_dirty[comp as usize] {
                            self.comp_dirty[comp as usize] = true;
                            self.dirty_comps.push(comp);
                        }
                    }
                }
            }
        }
        if demands_partial {
            for k in 0..self.dirty_flows.len() {
                let i = self.dirty_flows[k] as usize;
                let bps = self.demands_scratch[i].as_bps();
                if bps.to_bits() != self.prev_demands_bps[i].to_bits() {
                    self.prev_demands_bps[i] = bps;
                    let comp = self.index.comps.flow_component(i);
                    if comp == NO_COMPONENT {
                        self.rates_bps[i] = unconstrained_rate(self.demands_scratch[i]);
                        self.touch_flow(i);
                    } else if !self.comp_dirty[comp as usize] {
                        self.comp_dirty[comp as usize] = true;
                        self.dirty_comps.push(comp);
                    }
                }
            }
        } else {
            for (i, d) in self.demands_scratch.iter().enumerate() {
                let bps = d.as_bps();
                if bps.to_bits() != self.prev_demands_bps[i].to_bits() {
                    self.prev_demands_bps[i] = bps;
                    let comp = self.index.comps.flow_component(i);
                    if comp == NO_COMPONENT {
                        self.rates_bps[i] = unconstrained_rate(*d);
                        if i < self.pending_flow_flag.len() {
                            if !self.pending_flow_flag[i] {
                                self.pending_flow_flag[i] = true;
                                self.pending_flows.push(i as u32);
                            }
                        } else {
                            self.pending_full = true;
                        }
                    } else if !self.comp_dirty[comp as usize] {
                        self.comp_dirty[comp as usize] = true;
                        self.dirty_comps.push(comp);
                    }
                }
            }
        }
        self.clear_dirty_flows();
        clock.lap(profiler.as_deref_mut(), "mesh.component_scan");

        for k in 0..self.dirty_comps.len() {
            refill_component_into(
                self.dirty_comps[k],
                &self.demands_scratch,
                &self.index.constraints,
                &self.index.flow_cons_off,
                &self.index.flow_cons,
                &self.index.comps,
                &mut self.scratch,
                &mut self.rates_bps,
            );
        }
        clock.lap(profiler.as_deref_mut(), "mesh.water_fill");

        let n = self.index.ids.len();
        // The partial tail (per-slot allocation writes, per-member usage
        // re-sums, O(dirty) queue pass) only pays off while the dirty
        // slice is a minority of the mesh: each partial slot costs a map
        // lookup where the full pass pays an in-order walk. Past roughly
        // a quarter of the flows the straight full tail is cheaper, so
        // take it — both tails produce bit-identical state by
        // construction, this is purely a cost dispatch.
        let refilled: usize = (0..self.dirty_comps.len())
            .map(|k| self.index.comps.flows_of(self.dirty_comps[k]).len())
            .sum();
        let minority = (self.pending_flows.len() + refilled) * 4 < n;
        if self.dirty_tracking
            && !self.pending_full
            && minority
            && self.pending_flow_flag.len() == n
            && self.allocation.len() == n
        {
            // Queue every refilled flow for activity re-evaluation; the
            // same list drives the O(dirty) allocation-map write.
            for k in 0..self.dirty_comps.len() {
                let comp = self.dirty_comps[k];
                for &i in self.index.comps.flows_of(comp) {
                    if !self.pending_flow_flag[i] {
                        self.pending_flow_flag[i] = true;
                        self.pending_flows.push(i as u32);
                    }
                }
            }
            self.allocation
                .write_slots(&self.index.ids, &self.rates_bps, &self.pending_flows);
            self.update_usage_views_delta(link_count);
            if self.usage_check_every > 0 {
                self.usage_ticks += 1;
                if self.usage_ticks >= self.usage_check_every {
                    self.usage_ticks = 0;
                    self.audit_usage_views(link_count);
                }
            }
            clock.lap(profiler, "mesh.usage_delta");
        } else {
            self.pending_full = true;
            self.allocation.assign(&self.index.ids, &self.rates_bps);
            self.update_usage_views(link_count);
            clock.lap(profiler, "mesh.usage_views");
        }
    }

    /// The reference path, kept verbatim (fresh buffers, per-tick
    /// membership scans, dense oracle) so the equivalence batteries can
    /// replay both engines and the `scale` bench can measure the
    /// speedup. See [`AllocEngine::Dense`].
    fn reallocate_dense(&mut self) {
        let ids: Vec<FlowId> = self.flows.keys().copied().collect();
        let demands: Vec<Bandwidth> = ids
            .iter()
            .map(|id| {
                let f = &self.flows[id];
                if !f.routable {
                    // No route: the flow transmits nothing at all.
                    return Bandwidth::ZERO;
                }
                let drain = f.queue.backlog().rate_over(SimDuration::from_secs(1));
                f.spec.demand + drain
            })
            .collect();

        self.link_cap_bps.resize(self.topo.link_count(), 0.0);
        let mut constraints = Vec::new();
        // One constraint per link.
        for (lid, _) in self.topo.links() {
            let capacity = self.effective_link_capacity(lid);
            let bps = capacity.as_bps();
            if bps.to_bits() != self.link_cap_bps[lid.0].to_bits() {
                // Keep the capacity-change log live under the reference
                // engine too (the controller's score cache reads it).
                self.link_cap_bps[lid.0] = bps;
                self.cap_epoch += 1;
                if self.cap_log.len() >= CAP_LOG_LIMIT {
                    self.cap_log.clear();
                    self.cap_log_floor = self.cap_epoch - 1;
                }
                self.cap_log.push((self.cap_epoch, lid.0 as u32));
            }
            let members: Vec<usize> = ids
                .iter()
                .enumerate()
                .filter(|(_, id)| self.flows[id].links.contains(&lid))
                .map(|(i, _)| i)
                .collect();
            constraints.push(Constraint { capacity, members });
        }
        // One constraint per node egress cap.
        for (&node, &cap) in &self.egress_caps {
            let members: Vec<usize> = ids
                .iter()
                .enumerate()
                .filter(|(_, id)| self.flows[id].egress.contains(&node))
                .map(|(i, _)| i)
                .collect();
            constraints.push(Constraint { capacity: cap, members });
        }

        let rates = max_min_allocate_dense(&demands, &constraints);
        let mut allocation = FlowAllocation::default();
        for (i, id) in ids.iter().enumerate() {
            allocation.insert(*id, rates[i]);
        }

        // Per-link and per-node-egress usage for monitoring.
        self.link_used_bps = vec![0.0; self.topo.link_count()];
        self.egress_used_bps = vec![0.0; self.max_node];
        for (i, id) in ids.iter().enumerate() {
            for lid in &self.flows[id].links {
                self.link_used_bps[lid.0] += rates[i].as_bps();
            }
            for &node in &self.flows[id].egress {
                self.egress_used_bps[node.0 as usize] += rates[i].as_bps();
            }
        }
        self.allocation = allocation;
        // The reference path maintains none of the dirty-set
        // bookkeeping: invalidate it all so a later engine switch starts
        // from full refreshes.
        self.caps_valid = false;
        self.demands_valid = false;
        self.pending_full = true;
    }

    /// [`advance`](Self::advance) that additionally reports to a journal:
    /// per-link [`LinkCapacityChanged`](bass_obs::Event::LinkCapacityChanged)
    /// events (cause `"trace"`, ≥1% relative moves) and a
    /// [`FlowRateRecomputed`](bass_obs::Event::FlowRateRecomputed) event
    /// whenever the allocation picture materially changed.
    pub fn advance_observed(&mut self, dt: SimDuration, journal: Option<&mut bass_obs::Journal>) {
        self.advance_profiled(dt, journal, None);
    }

    /// Diffs the current effective link capacities against the last
    /// journal-reported snapshot and emits a
    /// [`LinkCapacityChanged`](bass_obs::Event::LinkCapacityChanged)
    /// event for every link that moved by more than 1% (relative).
    ///
    /// The first call only establishes the baseline and emits nothing.
    /// `cause` labels what moved the capacity — `"trace"` for vagary
    /// playback during [`advance_observed`](Self::advance_observed),
    /// `"scenario"` when the emulator applies a scripted restriction.
    pub fn emit_capacity_changes(&mut self, journal: &mut bass_obs::Journal, cause: &str) {
        let caps: Vec<f64> = (0..self.topo.link_count())
            .map(|i| self.effective_link_capacity(LinkId(i)).as_mbps())
            .collect();
        match self.obs_cap_snapshot.as_mut() {
            None => self.obs_cap_snapshot = Some(caps),
            Some(prev) => {
                for (lid, link) in self.topo.links() {
                    let old = prev[lid.0];
                    let new = caps[lid.0];
                    if (new - old).abs() / old.abs().max(1e-9) > 0.01 {
                        journal.record(bass_obs::Event::LinkCapacityChanged {
                            t_s: self.now.as_secs_f64(),
                            a: link.a.0,
                            b: link.b.0,
                            old_mbps: old,
                            new_mbps: new,
                            cause: cause.to_string(),
                        });
                    }
                }
                *prev = caps;
            }
        }
    }

    /// Emits a [`FlowRateRecomputed`](bass_obs::Event::FlowRateRecomputed)
    /// event if the flow count changed or total demand/allocation moved
    /// by more than 0.1% since the last reported picture.
    fn emit_flow_rate_recompute(&mut self, journal: &mut bass_obs::Journal) {
        fn moved(old: f64, new: f64) -> bool {
            (new - old).abs() / old.abs().max(1e-9) > 0.001
        }
        let flows = self.flows.len() as u32;
        let demand_mbps: f64 = self.flows.values().map(|f| f.spec.demand.as_mbps()).sum();
        let allocated_mbps: f64 = self
            .flows
            .keys()
            .map(|id| self.allocation.rate(*id).as_mbps())
            .sum();
        let changed = match self.obs_flow_sig {
            None => flows > 0,
            Some((f, d, a)) => f != flows || moved(d, demand_mbps) || moved(a, allocated_mbps),
        };
        if changed {
            let saturated_links = (0..self.topo.link_count())
                .filter(|&i| {
                    let cap = self.effective_link_capacity(LinkId(i)).as_bps();
                    cap > 0.0 && self.link_used_bps[i] >= 0.999 * cap
                })
                .count() as u32;
            journal.record(bass_obs::Event::FlowRateRecomputed {
                t_s: self.now.as_secs_f64(),
                flows,
                demand_mbps,
                allocated_mbps,
                saturated_links,
            });
            self.obs_flow_sig = Some((flows, demand_mbps, allocated_mbps));
        }
    }

    // ----- queries ----------------------------------------------------------

    /// The rate currently allocated to a flow (zero for unknown flows).
    pub fn flow_rate(&self, id: FlowId) -> Bandwidth {
        self.allocation.rate(id)
    }

    /// A flow's goodput: the smaller of demand and allocation.
    pub fn flow_goodput(&self, id: FlowId) -> Bandwidth {
        match self.flows.get(&id) {
            Some(f) => f.spec.demand.min(self.allocation.rate(id)),
            None => Bandwidth::ZERO,
        }
    }

    /// Loss fraction for a flow treated as real-time traffic.
    pub fn flow_loss(&self, id: FlowId) -> f64 {
        match self.flows.get(&id) {
            Some(f) => FlowQueue::loss_fraction(f.spec.demand, self.allocation.rate(id)),
            None => 0.0,
        }
    }

    /// End-to-end delay to deliver a message of `size` on a flow at the
    /// current allocation (queueing + serialization + hop latency).
    ///
    /// # Errors
    ///
    /// Returns [`MeshError::UnknownFlow`] for unknown ids.
    pub fn flow_message_delay(&self, id: FlowId, size: DataSize) -> Result<SimDuration, MeshError> {
        let flow = self.flows.get(&id).ok_or(MeshError::UnknownFlow(id))?;
        if !flow.routable {
            // Severed by faults: nothing is delivered until a route
            // returns, so report the dead-path cap.
            return Ok(crate::queueing::MAX_DELAY);
        }
        let hops = flow.links.len();
        if hops == 0 {
            // Loopback: pure local latency plus negligible copy time.
            return Ok(self.hop_latency.for_hops(0));
        }
        let capacity = flow
            .links
            .iter()
            .map(|l| self.effective_link_capacity(*l))
            .fold(Bandwidth::from_bps(f64::INFINITY), Bandwidth::min);
        let allocated = self.allocation.rate(id);
        Ok(flow.queue.transfer_delay(size, capacity, allocated) + self.hop_latency.for_hops(hops))
    }

    /// A flow's current queue backlog.
    ///
    /// # Errors
    ///
    /// Returns [`MeshError::UnknownFlow`] for unknown ids.
    pub fn flow_backlog(&self, id: FlowId) -> Result<DataSize, MeshError> {
        self.flows
            .get(&id)
            .map(|f| f.queue.backlog())
            .ok_or(MeshError::UnknownFlow(id))
    }

    /// Current capacity of the link between `a` and `b`, as a probe
    /// would observe it: the link's own capacity further limited by any
    /// egress cap at either endpoint (an interface-level `tc` limit
    /// constrains every link of that node).
    ///
    /// # Errors
    ///
    /// Returns [`MeshError::UnknownLink`] if no such link exists.
    pub fn link_capacity(&self, a: NodeId, b: NodeId) -> Result<Bandwidth, MeshError> {
        let lid = self.topo.find_link(a, b).ok_or(MeshError::UnknownLink(a, b))?;
        let mut cap = self.effective_link_capacity(lid);
        for n in [a, b] {
            if let Some(&c) = self.egress_caps.get(&n) {
                cap = cap.min(c);
            }
        }
        Ok(cap)
    }

    /// Allocated traffic currently crossing the link between `a` and `b`.
    ///
    /// # Errors
    ///
    /// Returns [`MeshError::UnknownLink`] if no such link exists.
    pub fn link_usage(&self, a: NodeId, b: NodeId) -> Result<Bandwidth, MeshError> {
        let lid = self.topo.find_link(a, b).ok_or(MeshError::UnknownLink(a, b))?;
        Ok(Bandwidth::from_bps(self.link_used_bps[lid.0]))
    }

    /// Spare capacity on the link between `a` and `b`: the link's own
    /// headroom, further limited by the spare egress at either capped
    /// endpoint (what a probe over this link could actually push).
    ///
    /// # Errors
    ///
    /// Returns [`MeshError::UnknownLink`] if no such link exists.
    pub fn link_available(&self, a: NodeId, b: NodeId) -> Result<Bandwidth, MeshError> {
        let lid = self.topo.find_link(a, b).ok_or(MeshError::UnknownLink(a, b))?;
        let mut avail = self
            .effective_link_capacity(lid)
            .saturating_sub(Bandwidth::from_bps(self.link_used_bps[lid.0]));
        for n in [a, b] {
            if let Some(&c) = self.egress_caps.get(&n) {
                let used = self.egress_used(n);
                avail = avail.min(c.saturating_sub(Bandwidth::from_bps(used)));
            }
        }
        Ok(avail)
    }

    /// Allocated bps currently leaving `node` (zero when nothing does).
    fn egress_used(&self, node: NodeId) -> f64 {
        self.egress_used_bps.get(node.0 as usize).copied().unwrap_or(0.0)
    }

    /// The routed node path from `src` to `dst` (the traceroute view).
    ///
    /// # Errors
    ///
    /// Returns [`MeshError::Unreachable`] when no route exists.
    pub fn path(&self, src: NodeId, dst: NodeId) -> Result<&[NodeId], MeshError> {
        self.routes
            .path(src, dst)
            .ok_or(MeshError::Unreachable(src, dst))
    }

    /// Capacity for traffic sent from `u` across the link to `v`: the
    /// link's capacity limited by `u`'s egress cap (the transmitter's
    /// interface shaping), but not by `v`'s — receiving is not shaped.
    ///
    /// # Errors
    ///
    /// Returns [`MeshError::UnknownLink`] if no such link exists.
    pub fn directed_link_capacity(&self, u: NodeId, v: NodeId) -> Result<Bandwidth, MeshError> {
        let lid = self.topo.find_link(u, v).ok_or(MeshError::UnknownLink(u, v))?;
        let mut cap = self.effective_link_capacity(lid);
        if let Some(&c) = self.egress_caps.get(&u) {
            cap = cap.min(c);
        }
        Ok(cap)
    }

    /// Spare bandwidth for new traffic sent from `u` across the link to
    /// `v`: the link's headroom limited by `u`'s spare egress.
    ///
    /// # Errors
    ///
    /// Returns [`MeshError::UnknownLink`] if no such link exists.
    pub fn directed_link_available(&self, u: NodeId, v: NodeId) -> Result<Bandwidth, MeshError> {
        let lid = self.topo.find_link(u, v).ok_or(MeshError::UnknownLink(u, v))?;
        let mut avail = self
            .effective_link_capacity(lid)
            .saturating_sub(Bandwidth::from_bps(self.link_used_bps[lid.0]));
        if let Some(&c) = self.egress_caps.get(&u) {
            let used = self.egress_used(u);
            avail = avail.min(c.saturating_sub(Bandwidth::from_bps(used)));
        }
        Ok(avail)
    }

    /// Bottleneck *capacity* along the routed path from `src` to `dst` —
    /// what a max-capacity probe of the path reports. Directional: only
    /// each hop's transmitting side's egress cap applies.
    ///
    /// # Errors
    ///
    /// Returns [`MeshError::Unreachable`] when no route exists.
    pub fn path_bottleneck_capacity(&self, src: NodeId, dst: NodeId) -> Result<Bandwidth, MeshError> {
        if src == dst {
            return Ok(Bandwidth::from_bps(f64::INFINITY));
        }
        let path = self
            .routes
            .path(src, dst)
            .ok_or(MeshError::Unreachable(src, dst))?;
        let mut bottleneck = Bandwidth::from_bps(f64::INFINITY);
        for w in path.windows(2) {
            bottleneck = bottleneck.min(self.directed_link_capacity(w[0], w[1])?);
        }
        Ok(bottleneck)
    }

    /// Bottleneck *available* (unused) bandwidth along the routed path —
    /// what a headroom probe observes. Directional, like
    /// [`Mesh::path_bottleneck_capacity`].
    ///
    /// # Errors
    ///
    /// Returns [`MeshError::Unreachable`] when no route exists.
    pub fn path_available(&self, src: NodeId, dst: NodeId) -> Result<Bandwidth, MeshError> {
        if src == dst {
            return Ok(Bandwidth::from_bps(f64::INFINITY));
        }
        let path = self
            .routes
            .path(src, dst)
            .ok_or(MeshError::Unreachable(src, dst))?;
        let mut avail = Bandwidth::from_bps(f64::INFINITY);
        for w in path.windows(2) {
            avail = avail.min(self.directed_link_available(w[0], w[1])?);
        }
        Ok(avail)
    }

    /// Sum of current capacities of all links incident to `node` — the
    /// "combined capacity across all of the node's links" used by BASS's
    /// node ranking.
    ///
    /// # Errors
    ///
    /// Returns [`MeshError::UnknownNode`] if the node does not exist.
    pub fn node_total_link_capacity(&self, node: NodeId) -> Result<Bandwidth, MeshError> {
        if !self.topo.contains_node(node) {
            return Err(MeshError::UnknownNode(node));
        }
        Ok(self
            .topo
            .incident_links(node)
            .into_iter()
            .map(|l| self.effective_link_capacity(l))
            .sum())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bass_trace::{BandwidthTrace, StepScript};

    fn mbps(x: f64) -> Bandwidth {
        Bandwidth::from_mbps(x)
    }

    fn approx(a: Bandwidth, b: f64) {
        assert!((a.as_mbps() - b).abs() < 1e-6, "expected {b}, got {}", a.as_mbps());
    }

    fn three_node_lan() -> Mesh {
        Mesh::with_uniform_capacity(Topology::full_mesh(3), mbps(100.0)).unwrap()
    }

    #[test]
    fn rejects_disconnected_topology() {
        let mut topo = Topology::new();
        topo.add_node(NodeId(0)).unwrap();
        topo.add_node(NodeId(1)).unwrap();
        assert_eq!(Mesh::new(topo).unwrap_err(), MeshError::NotConnected);
    }

    #[test]
    fn single_flow_gets_demand() {
        let mut mesh = three_node_lan();
        let f = mesh.add_flow(NodeId(0), NodeId(1), mbps(30.0)).unwrap();
        mesh.advance(SimDuration::from_millis(100));
        approx(mesh.flow_rate(f), 30.0);
        approx(mesh.flow_goodput(f), 30.0);
        assert_eq!(mesh.flow_loss(f), 0.0);
    }

    #[test]
    fn flows_share_a_link_fairly() {
        let mut mesh = three_node_lan();
        let f1 = mesh.add_flow(NodeId(0), NodeId(1), mbps(100.0)).unwrap();
        let f2 = mesh.add_flow(NodeId(0), NodeId(1), mbps(100.0)).unwrap();
        // Both flows also share node 0's implicit egress only if capped;
        // here only the 100 Mbps link binds → 50/50.
        mesh.advance(SimDuration::from_millis(100));
        approx(mesh.flow_rate(f1), 50.0);
        approx(mesh.flow_rate(f2), 50.0);
    }

    #[test]
    fn link_cap_behaves_like_tc() {
        let mut mesh = three_node_lan();
        let f = mesh.add_flow(NodeId(1), NodeId(2), mbps(100.0)).unwrap();
        mesh.set_link_cap(NodeId(1), NodeId(2), Some(mbps(25.0))).unwrap();
        mesh.advance(SimDuration::from_millis(100));
        approx(mesh.flow_rate(f), 25.0);
        approx(mesh.link_capacity(NodeId(1), NodeId(2)).unwrap(), 25.0);
        mesh.set_link_cap(NodeId(1), NodeId(2), None).unwrap();
        mesh.advance(SimDuration::from_millis(100));
        approx(mesh.flow_rate(f), 100.0);
    }

    #[test]
    fn node_egress_cap_limits_all_outgoing_flows() {
        // The paper's Fig. 3: restrict node 2's outgoing traffic.
        let mut mesh = three_node_lan();
        let f1 = mesh.add_flow(NodeId(2), NodeId(0), mbps(100.0)).unwrap();
        let f2 = mesh.add_flow(NodeId(2), NodeId(1), mbps(100.0)).unwrap();
        mesh.set_node_egress_cap(NodeId(2), Some(mbps(30.0))).unwrap();
        mesh.advance(SimDuration::from_millis(100));
        approx(mesh.flow_rate(f1), 15.0);
        approx(mesh.flow_rate(f2), 15.0);
        // Traffic *into* node 2 is unaffected.
        let f3 = mesh.add_flow(NodeId(0), NodeId(2), mbps(60.0)).unwrap();
        mesh.advance(SimDuration::from_millis(100));
        approx(mesh.flow_rate(f3), 60.0);
    }

    #[test]
    fn loopback_flow_is_unconstrained() {
        let mut mesh = three_node_lan();
        let f = mesh.add_flow(NodeId(0), NodeId(0), mbps(10_000.0)).unwrap();
        mesh.advance(SimDuration::from_millis(100));
        approx(mesh.flow_rate(f), 10_000.0);
        let d = mesh
            .flow_message_delay(f, DataSize::from_megabytes(1))
            .unwrap();
        assert_eq!(d, SimDuration::from_micros(50));
    }

    #[test]
    fn trace_driven_capacity_changes_over_time() {
        let mut topo = Topology::new();
        topo.add_node(NodeId(0)).unwrap();
        topo.add_node(NodeId(1)).unwrap();
        topo.add_link(NodeId(0), NodeId(1)).unwrap();
        let trace: BandwidthTrace = StepScript::new("l", mbps(50.0))
            .restrict(SimTime::from_secs(10), SimDuration::from_secs(10), mbps(5.0))
            .compile(SimDuration::from_secs(60));
        let mut mesh = Mesh::new(topo).unwrap();
        mesh.set_link_source(NodeId(0), NodeId(1), CapacitySource::Trace(trace))
            .unwrap();
        let f = mesh.add_flow(NodeId(0), NodeId(1), mbps(100.0)).unwrap();
        mesh.advance(SimDuration::from_secs(5));
        approx(mesh.flow_rate(f), 50.0);
        mesh.advance(SimDuration::from_secs(10)); // now = 15s, inside restriction
        approx(mesh.flow_rate(f), 5.0);
        assert!(mesh.flow_loss(f) > 0.9);
        mesh.advance(SimDuration::from_secs(10)); // now = 25s, lifted
        approx(mesh.flow_rate(f), 50.0);
    }

    #[test]
    fn multi_hop_flow_consumes_all_path_links() {
        // Line 0-1-2: flow 0→2 crosses both links.
        let mut topo = Topology::new();
        for i in 0..3 {
            topo.add_node(NodeId(i)).unwrap();
        }
        topo.add_link(NodeId(0), NodeId(1)).unwrap();
        topo.add_link(NodeId(1), NodeId(2)).unwrap();
        let mut mesh = Mesh::with_uniform_capacity(topo, mbps(10.0)).unwrap();
        let f = mesh.add_flow(NodeId(0), NodeId(2), mbps(100.0)).unwrap();
        mesh.advance(SimDuration::from_millis(100));
        approx(mesh.flow_rate(f), 10.0);
        approx(mesh.link_usage(NodeId(0), NodeId(1)).unwrap(), 10.0);
        approx(mesh.link_usage(NodeId(1), NodeId(2)).unwrap(), 10.0);
        approx(mesh.link_available(NodeId(0), NodeId(1)).unwrap(), 0.0);
    }

    #[test]
    fn path_queries() {
        let mut mesh = three_node_lan();
        let _f = mesh.add_flow(NodeId(0), NodeId(1), mbps(40.0)).unwrap();
        mesh.advance(SimDuration::from_millis(100));
        approx(mesh.path_bottleneck_capacity(NodeId(0), NodeId(1)).unwrap(), 100.0);
        approx(mesh.path_available(NodeId(0), NodeId(1)).unwrap(), 60.0);
        assert_eq!(mesh.path(NodeId(0), NodeId(1)).unwrap(), &[NodeId(0), NodeId(1)]);
        assert!(mesh
            .path_available(NodeId(0), NodeId(0))
            .unwrap()
            .as_bps()
            .is_infinite());
    }

    #[test]
    fn node_total_link_capacity_sums_incident_links() {
        let mesh = three_node_lan();
        approx(mesh.node_total_link_capacity(NodeId(0)).unwrap(), 200.0);
        assert_eq!(
            mesh.node_total_link_capacity(NodeId(9)).unwrap_err(),
            MeshError::UnknownNode(NodeId(9))
        );
    }

    #[test]
    fn backlog_grows_under_restriction_and_drains_after() {
        let mut mesh = three_node_lan();
        let f = mesh.add_flow(NodeId(0), NodeId(1), mbps(50.0)).unwrap();
        mesh.set_link_cap(NodeId(0), NodeId(1), Some(mbps(10.0))).unwrap();
        for _ in 0..10 {
            mesh.advance(SimDuration::from_secs(1));
        }
        let backlog = mesh.flow_backlog(f).unwrap();
        assert!(backlog.as_bytes() > 0, "backlog should accumulate");
        let delay = mesh.flow_message_delay(f, DataSize::from_kilobytes(10)).unwrap();
        assert!(delay.as_secs_f64() > 10.0, "delay should include drain: {delay}");
        // Lift restriction and stop offering traffic: the backlog drains.
        mesh.set_link_cap(NodeId(0), NodeId(1), None).unwrap();
        mesh.set_flow_demand(f, Bandwidth::ZERO).unwrap();
        for _ in 0..60 {
            mesh.advance(SimDuration::from_secs(1));
        }
        assert_eq!(mesh.flow_backlog(f).unwrap(), DataSize::ZERO);
    }

    #[test]
    fn error_paths() {
        let mut mesh = three_node_lan();
        assert!(matches!(
            mesh.add_flow(NodeId(0), NodeId(9), mbps(1.0)),
            Err(MeshError::UnknownNode(_))
        ));
        assert!(matches!(
            mesh.set_flow_demand(FlowId(99), mbps(1.0)),
            Err(MeshError::UnknownFlow(_))
        ));
        assert!(matches!(
            mesh.remove_flow(FlowId(99)),
            Err(MeshError::UnknownFlow(_))
        ));
        assert!(matches!(
            mesh.link_capacity(NodeId(0), NodeId(9)),
            Err(MeshError::UnknownLink(_, _))
        ));
        assert!(matches!(
            mesh.set_node_egress_cap(NodeId(9), Some(mbps(1.0))),
            Err(MeshError::UnknownNode(_))
        ));
    }

    #[test]
    fn remove_flow_frees_capacity() {
        let mut mesh = three_node_lan();
        let f1 = mesh.add_flow(NodeId(0), NodeId(1), mbps(100.0)).unwrap();
        let f2 = mesh.add_flow(NodeId(0), NodeId(1), mbps(100.0)).unwrap();
        mesh.advance(SimDuration::from_millis(100));
        approx(mesh.flow_rate(f2), 50.0);
        mesh.remove_flow(f1).unwrap();
        mesh.advance(SimDuration::from_millis(100));
        approx(mesh.flow_rate(f2), 100.0);
        assert_eq!(mesh.flow_count(), 1);
    }

    #[test]
    fn weighted_routing_reroutes_live_flows() {
        // Triangle with a weak direct link 0–2: under min-hop the flow
        // goes direct and gets 2 Mbps; after switching to ETX-style
        // routing it detours via node 1 and gets its full demand.
        let mut topo = Topology::new();
        for i in 0..3 {
            topo.add_node(NodeId(i)).unwrap();
        }
        topo.add_link(NodeId(0), NodeId(1)).unwrap();
        topo.add_link(NodeId(1), NodeId(2)).unwrap();
        let weak = topo.add_link(NodeId(0), NodeId(2)).unwrap();
        let mut mesh = Mesh::with_uniform_capacity(topo, mbps(100.0)).unwrap();
        mesh.set_link_source(NodeId(0), NodeId(2), CapacitySource::Constant(mbps(2.0)))
            .unwrap();
        let f = mesh.add_flow(NodeId(0), NodeId(2), mbps(10.0)).unwrap();
        mesh.advance(SimDuration::from_millis(100));
        approx(mesh.flow_rate(f), 2.0);

        // ETX ∝ 1/capacity-ish: make the weak link expensive.
        mesh.use_weighted_routing(|lid| if lid == weak { 10.0 } else { 1.0 });
        mesh.advance(SimDuration::from_millis(100));
        // Rate may exceed demand while the starvation backlog drains;
        // goodput is back at the full demand.
        approx(mesh.flow_goodput(f), 10.0);
        assert_eq!(
            mesh.path(NodeId(0), NodeId(2)).unwrap(),
            &[NodeId(0), NodeId(1), NodeId(2)]
        );
        // Usage accounting follows the new path.
        assert!(mesh.link_usage(NodeId(0), NodeId(1)).unwrap() >= mbps(10.0));
        approx(mesh.link_usage(NodeId(0), NodeId(2)).unwrap(), 0.0);
    }

    #[test]
    fn reset_flow_queue_clears_backlog() {
        let mut mesh = three_node_lan();
        let f = mesh.add_flow(NodeId(0), NodeId(1), mbps(200.0)).unwrap();
        mesh.advance(SimDuration::from_secs(5));
        assert!(mesh.flow_backlog(f).unwrap().as_bytes() > 0);
        mesh.reset_flow_queue(f).unwrap();
        assert_eq!(mesh.flow_backlog(f).unwrap(), DataSize::ZERO);
    }

    #[test]
    fn down_link_reroutes_and_recovers() {
        // Triangle: flow 0→2 goes direct; link down forces the detour
        // via 1; link up restores the direct path.
        let mut mesh = three_node_lan();
        let f = mesh.add_flow(NodeId(0), NodeId(2), mbps(10.0)).unwrap();
        mesh.advance(SimDuration::from_millis(100));
        assert_eq!(mesh.path(NodeId(0), NodeId(2)).unwrap().len(), 2);
        mesh.set_link_up(NodeId(0), NodeId(2), false).unwrap();
        assert!(!mesh.link_is_up(NodeId(0), NodeId(2)));
        assert_eq!(mesh.link_effective_capacity(NodeId(0), NodeId(2)).unwrap(), Bandwidth::ZERO);
        mesh.advance(SimDuration::from_millis(100));
        assert_eq!(
            mesh.path(NodeId(0), NodeId(2)).unwrap(),
            &[NodeId(0), NodeId(1), NodeId(2)]
        );
        approx(mesh.flow_goodput(f), 10.0);
        mesh.set_link_up(NodeId(0), NodeId(2), true).unwrap();
        mesh.advance(SimDuration::from_millis(100));
        assert_eq!(mesh.path(NodeId(0), NodeId(2)).unwrap().len(), 2);
    }

    #[test]
    fn node_crash_parks_flows_until_recovery() {
        let mut mesh = three_node_lan();
        let f = mesh.add_flow(NodeId(0), NodeId(1), mbps(10.0)).unwrap();
        mesh.set_node_up(NodeId(1), false).unwrap();
        assert!(!mesh.node_is_up(NodeId(1)));
        assert!(!mesh.link_is_up(NodeId(0), NodeId(1)));
        mesh.advance(SimDuration::from_millis(100));
        assert_eq!(mesh.flow_rate(f), Bandwidth::ZERO);
        assert_eq!(mesh.flow_loss(f), 1.0);
        assert!(matches!(
            mesh.path(NodeId(0), NodeId(1)),
            Err(MeshError::Unreachable(_, _))
        ));
        assert_eq!(
            mesh.flow_message_delay(f, DataSize::from_kilobytes(1)).unwrap(),
            crate::queueing::MAX_DELAY
        );
        // Flows added while the destination is down park as unroutable.
        let g = mesh.add_flow(NodeId(2), NodeId(1), mbps(5.0)).unwrap();
        mesh.advance(SimDuration::from_millis(100));
        assert_eq!(mesh.flow_rate(g), Bandwidth::ZERO);
        // Recovery restores both.
        mesh.set_node_up(NodeId(1), true).unwrap();
        mesh.advance(SimDuration::from_millis(100));
        approx(mesh.flow_goodput(f), 10.0);
        approx(mesh.flow_goodput(g), 5.0);
    }

    #[test]
    fn crashed_node_contributes_no_capacity() {
        let mut mesh = three_node_lan();
        mesh.set_node_up(NodeId(2), false).unwrap();
        approx(mesh.node_total_link_capacity(NodeId(2)).unwrap(), 0.0);
        // Node 0 keeps only its link to node 1.
        approx(mesh.node_total_link_capacity(NodeId(0)).unwrap(), 100.0);
        approx(mesh.link_capacity(NodeId(0), NodeId(2)).unwrap(), 0.0);
    }

    #[test]
    fn stale_trace_freezes_capacity_reads() {
        let mut topo = Topology::new();
        topo.add_node(NodeId(0)).unwrap();
        topo.add_node(NodeId(1)).unwrap();
        topo.add_link(NodeId(0), NodeId(1)).unwrap();
        let trace: BandwidthTrace = StepScript::new("l", mbps(50.0))
            .restrict(SimTime::from_secs(10), SimDuration::from_secs(20), mbps(5.0))
            .compile(SimDuration::from_secs(60));
        let mut mesh = Mesh::new(topo).unwrap();
        mesh.set_link_source(NodeId(0), NodeId(1), CapacitySource::Trace(trace)).unwrap();
        mesh.advance(SimDuration::from_secs(5)); // now=5s, cap 50
        mesh.freeze_link_trace(NodeId(0), NodeId(1)).unwrap();
        mesh.advance(SimDuration::from_secs(10)); // now=15s, real cap 5
        approx(mesh.link_effective_capacity(NodeId(0), NodeId(1)).unwrap(), 50.0);
        mesh.unfreeze_link_trace(NodeId(0), NodeId(1)).unwrap();
        approx(mesh.link_effective_capacity(NodeId(0), NodeId(1)).unwrap(), 5.0);
    }

    #[test]
    fn weighted_routing_survives_partition_without_panicking() {
        // Line 0-1-2 under weighted routing; downing 1 severs 0↔2
        // entirely — the old implementation would have panicked here.
        let mut topo = Topology::new();
        for i in 0..3 {
            topo.add_node(NodeId(i)).unwrap();
        }
        topo.add_link(NodeId(0), NodeId(1)).unwrap();
        topo.add_link(NodeId(1), NodeId(2)).unwrap();
        let mut mesh = Mesh::with_uniform_capacity(topo, mbps(100.0)).unwrap();
        let f = mesh.add_flow(NodeId(0), NodeId(2), mbps(10.0)).unwrap();
        mesh.use_weighted_routing(|_| 1.0);
        mesh.set_node_up(NodeId(1), false).unwrap();
        mesh.advance(SimDuration::from_millis(100));
        assert_eq!(mesh.flow_rate(f), Bandwidth::ZERO);
        mesh.set_node_up(NodeId(1), true).unwrap();
        mesh.advance(SimDuration::from_millis(100));
        approx(mesh.flow_goodput(f), 10.0);
        // Weighted routing is still active after recovery.
        assert_eq!(mesh.path(NodeId(0), NodeId(2)).unwrap().len(), 3);
    }

    #[test]
    fn fault_state_error_paths() {
        let mut mesh = three_node_lan();
        assert!(matches!(
            mesh.set_node_up(NodeId(9), false),
            Err(MeshError::UnknownNode(_))
        ));
        assert!(matches!(
            mesh.set_link_up(NodeId(0), NodeId(9), false),
            Err(MeshError::UnknownLink(_, _))
        ));
        assert!(matches!(
            mesh.freeze_link_trace(NodeId(0), NodeId(9)),
            Err(MeshError::UnknownLink(_, _))
        ));
        assert!(!mesh.node_is_up(NodeId(9)));
        assert!(!mesh.link_is_up(NodeId(0), NodeId(9)));
    }

    #[test]
    fn observed_advance_reports_rate_and_capacity_changes() {
        let mut mesh = three_node_lan();
        let mut journal = bass_obs::Journal::new();
        // Quiet mesh: baseline pass emits nothing.
        mesh.advance_observed(SimDuration::from_millis(100), Some(&mut journal));
        assert!(journal.is_empty());
        // A new flow changes the allocation picture exactly once.
        mesh.add_flow(NodeId(0), NodeId(1), mbps(40.0)).unwrap();
        mesh.advance_observed(SimDuration::from_millis(100), Some(&mut journal));
        mesh.advance_observed(SimDuration::from_millis(100), Some(&mut journal));
        assert_eq!(journal.count("flow_rate_recomputed"), 1);
        match journal.events().next().unwrap() {
            bass_obs::Event::FlowRateRecomputed { flows, allocated_mbps, .. } => {
                assert_eq!(*flows, 1);
                assert!((allocated_mbps - 40.0).abs() < 1e-6);
            }
            other => panic!("expected FlowRateRecomputed, got {other:?}"),
        }
        // A capacity cut is reported with old/new values and the cause.
        mesh.set_link_cap(NodeId(0), NodeId(1), Some(mbps(10.0))).unwrap();
        mesh.emit_capacity_changes(&mut journal, "scenario");
        assert_eq!(journal.count("link_capacity_changed"), 1);
        match journal.events().last().unwrap() {
            bass_obs::Event::LinkCapacityChanged { old_mbps, new_mbps, cause, .. } => {
                assert!((old_mbps - 100.0).abs() < 1e-6);
                assert!((new_mbps - 10.0).abs() < 1e-6);
                assert_eq!(cause, "scenario");
            }
            other => panic!("expected LinkCapacityChanged, got {other:?}"),
        }
        // The None sink stays a pure advance.
        mesh.advance_observed(SimDuration::from_millis(100), None);
    }

    /// A 4×4 grid mesh with flows spread over several links, some of
    /// them loopback (unconstrained), driven identically under each
    /// engine by `script`.
    fn run_engine(engine: AllocEngine) -> Vec<(u64, f64)> {
        let mut mesh =
            Mesh::with_uniform_capacity(Topology::grid(4, 4), mbps(60.0)).unwrap();
        mesh.set_alloc_engine(engine);
        for i in 0..12u64 {
            let src = NodeId((i % 16) as u32);
            let dst = NodeId(((i * 5 + 3) % 16) as u32);
            mesh.add_flow(src, dst, mbps(8.0 + i as f64)).unwrap();
        }
        for tick in 0..30u64 {
            // Sparse perturbations: one link cap change every few ticks,
            // one demand change on others, long quiescent stretches.
            if tick % 5 == 0 {
                let cap = if tick % 10 == 0 { Some(mbps(25.0)) } else { None };
                mesh.set_link_cap(NodeId(0), NodeId(1), cap).unwrap();
            }
            if tick % 7 == 3 {
                mesh.set_flow_demand(FlowId(tick % 12), mbps(3.0 + tick as f64)).unwrap();
            }
            if tick == 11 {
                mesh.set_node_egress_cap(NodeId(5), Some(mbps(20.0))).unwrap();
            }
            if tick == 17 {
                mesh.remove_flow(FlowId(2)).unwrap();
            }
            mesh.advance(SimDuration::from_millis(100));
        }
        (0..12u64)
            .map(|i| (i, mesh.flow_rate(FlowId(i)).as_bps()))
            .collect()
    }

    #[test]
    fn delta_engine_is_bit_identical_to_dense() {
        assert_eq!(run_engine(AllocEngine::Dense), run_engine(AllocEngine::Delta));
    }

    #[test]
    fn delta_quiescent_tick_keeps_rates_verbatim() {
        let mut mesh = three_node_lan();
        let f = mesh.add_flow(NodeId(0), NodeId(1), mbps(30.0)).unwrap();
        mesh.advance(SimDuration::from_millis(100));
        let before = mesh.flow_rate(f).as_bps();
        // Constant capacities, satisfied demand: nothing is dirty, the
        // rate must be the very same bits.
        mesh.advance(SimDuration::from_millis(100));
        assert_eq!(before.to_bits(), mesh.flow_rate(f).as_bps().to_bits());
    }

    #[test]
    fn mesh_spans_match_the_observability_table() {
        let doc = include_str!("../../../docs/OBSERVABILITY.md");
        let documented: BTreeSet<&str> = doc
            .lines()
            .filter(|l| l.starts_with("| `mesh."))
            .filter_map(|l| l.split('`').nth(1))
            .collect();
        // One single-hop flow per link on the first 8 links: every flow
        // is its own component, so a one-link change dirties a minority
        // and the tick takes the O(dirty) tail.
        let topo = Topology::grid(4, 4);
        let links: Vec<_> = topo.links().take(8).map(|(_, l)| (l.a, l.b)).collect();
        let mut mesh = Mesh::with_uniform_capacity(topo, mbps(60.0)).unwrap();
        for &(a, b) in &links {
            mesh.add_flow(a, b, mbps(10.0)).unwrap();
        }
        let mut profiler = bass_obs::SpanProfiler::new();
        let mut journal = bass_obs::Journal::new();
        let step = SimDuration::from_millis(100);
        let mut tick = |mesh: &mut Mesh| {
            mesh.advance_profiled(step, Some(&mut journal), Some(&mut profiler));
        };
        // Index rebuild, full capacity refresh, full fill, full usage.
        tick(&mut mesh);
        // Dirty capacity refresh, demand diff, component scan, refill of
        // one component, usage delta.
        mesh.set_link_cap(links[0].0, links[0].1, Some(mbps(5.0))).unwrap();
        tick(&mut mesh);
        mesh.set_alloc_engine(AllocEngine::Dense);
        tick(&mut mesh);
        let seen: BTreeSet<&str> =
            profiler.spans().map(|(name, _)| name).filter(|n| n.starts_with("mesh.")).collect();
        assert_eq!(
            seen, documented,
            "mesh.* spans emitted vs rows of the docs/OBSERVABILITY.md span table"
        );
    }

    #[test]
    fn queues_quiescent_tracks_backlog_fixed_points() {
        let step = SimDuration::from_millis(100);
        let mut mesh = three_node_lan();
        let f = mesh.add_flow(NodeId(0), NodeId(1), mbps(30.0)).unwrap();
        // Before the first allocation nothing is provable.
        assert!(!mesh.queues_quiescent(step));
        mesh.advance(step);
        // Satisfied demand, empty queue: a tick is the identity.
        assert!(mesh.queues_quiescent(step));
        // Over-subscribe: the backlog grows every tick.
        mesh.set_link_cap(NodeId(0), NodeId(1), Some(mbps(10.0))).unwrap();
        mesh.advance(step);
        assert!(!mesh.queues_quiescent(step));
        // Drop the offered load to zero and drain. The drain targets a
        // one-second horizon, so the backlog decays geometrically and
        // only reaches the 0.0 fixed point once it underflows — finite,
        // but many ticks out.
        mesh.set_flow_demand(f, Bandwidth::ZERO).unwrap();
        let mut drained = 0u32;
        while !mesh.queues_quiescent(step) {
            mesh.advance(step);
            drained += 1;
            assert!(drained < 50_000, "backlog never reached a fixed point");
        }
    }

    #[test]
    fn next_trace_change_skips_frozen_links() {
        let mut topo = Topology::new();
        topo.add_node(NodeId(0)).unwrap();
        topo.add_node(NodeId(1)).unwrap();
        topo.add_link(NodeId(0), NodeId(1)).unwrap();
        let trace: BandwidthTrace = StepScript::new("l", mbps(50.0))
            .restrict(SimTime::from_secs(10), SimDuration::from_secs(10), mbps(5.0))
            .compile(SimDuration::from_secs(60));
        let mut mesh = Mesh::new(topo).unwrap();
        mesh.set_link_source(NodeId(0), NodeId(1), CapacitySource::Trace(trace))
            .unwrap();
        let first = mesh.next_trace_change_after(SimTime::ZERO).unwrap();
        assert!(first > SimTime::ZERO && first <= SimTime::from_secs(10));
        // A frozen link's trace can no longer change any capacity read.
        mesh.freeze_link_trace(NodeId(0), NodeId(1)).unwrap();
        assert_eq!(mesh.next_trace_change_after(SimTime::ZERO), None);
        mesh.unfreeze_link_trace(NodeId(0), NodeId(1)).unwrap();
        assert_eq!(mesh.next_trace_change_after(SimTime::ZERO), Some(first));
        // Constant-capacity meshes never schedule a trace change.
        assert_eq!(three_node_lan().next_trace_change_after(SimTime::ZERO), None);
    }

    #[test]
    fn advance_quiescent_matches_a_full_tick_bit_for_bit() {
        let step = SimDuration::from_millis(100);
        let mut ticked = three_node_lan();
        let f = ticked.add_flow(NodeId(0), NodeId(1), mbps(30.0)).unwrap();
        ticked.advance(step);
        let mut skipped = ticked.clone();
        assert!(ticked.queues_quiescent(step));
        for _ in 0..10 {
            ticked.advance(step);
            skipped.advance_quiescent(step);
        }
        assert_eq!(ticked.now(), skipped.now());
        assert_eq!(
            ticked.flow_rate(f).as_bps().to_bits(),
            skipped.flow_rate(f).as_bps().to_bits()
        );
        assert_eq!(
            ticked.flow_goodput(f).as_bps().to_bits(),
            skipped.flow_goodput(f).as_bps().to_bits()
        );
        // And a subsequent full tick continues identically from both.
        ticked.advance(step);
        skipped.advance(step);
        assert_eq!(
            ticked.flow_rate(f).as_bps().to_bits(),
            skipped.flow_rate(f).as_bps().to_bits()
        );
    }

    #[test]
    fn usage_audit_detects_and_repairs_injected_drift() {
        let mut mesh = three_node_lan();
        mesh.add_flow(NodeId(0), NodeId(1), mbps(30.0)).unwrap();
        mesh.add_flow(NodeId(1), NodeId(2), mbps(20.0)).unwrap();
        let step = SimDuration::from_millis(100);
        mesh.advance(step);
        let link_count = mesh.topo.link_count();
        // The maintained views are clean after a normal tick.
        assert!(!mesh.audit_usage_views(link_count));
        assert_eq!(mesh.usage_view_rebuilds(), 0);
        // Inject drift into both views; the audit must detect it,
        // install the recomputed truth, bump the rebuild counter, and
        // force the next queue pass to run in full.
        mesh.link_used_bps[0] += 123.0;
        mesh.egress_used_bps[1] -= 7.0;
        assert!(mesh.audit_usage_views(link_count));
        assert_eq!(mesh.usage_view_rebuilds(), 1);
        assert!(mesh.pending_full);
        // Repaired: a second audit is clean and the counter holds.
        assert!(!mesh.audit_usage_views(link_count));
        assert_eq!(mesh.usage_view_rebuilds(), 1);
    }

    #[test]
    fn periodic_usage_audit_repairs_drift_on_schedule() {
        let mut mesh = three_node_lan();
        let f = mesh.add_flow(NodeId(0), NodeId(1), mbps(30.0)).unwrap();
        mesh.set_usage_check_every(1);
        let step = SimDuration::from_millis(100);
        mesh.advance(step);
        mesh.advance(step);
        assert_eq!(mesh.usage_view_rebuilds(), 0, "clean runs never rebuild");
        // Corrupt the maintained link view: the next audited tick must
        // repair it and keep allocations unaffected.
        mesh.link_used_bps[0] += 1e6;
        for _ in 0..3 {
            mesh.advance(step);
        }
        assert_eq!(mesh.usage_view_rebuilds(), 1);
        assert_eq!(mesh.flow_rate(f).as_bps().to_bits(), mbps(30.0).as_bps().to_bits());
        // Disabled audits leave corruption alone (and never rebuild).
        mesh.set_usage_check_every(0);
        mesh.link_used_bps[0] += 1e6;
        for _ in 0..3 {
            mesh.advance(step);
        }
        assert_eq!(mesh.usage_view_rebuilds(), 1);
    }
}
