//! Flows and max-min fair bandwidth allocation.
//!
//! TCP-like transport on a shared network approximately converges to a
//! max-min fair allocation; the fluid model computes that fixed point
//! directly with the classic *progressive filling* algorithm, extended
//! with per-flow demand caps (a flow never receives more than it asks
//! for).

use crate::topology::NodeId;
use bass_util::units::Bandwidth;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// Identifier of a flow registered with the mesh.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
#[serde(transparent)]
pub struct FlowId(pub u64);

impl fmt::Display for FlowId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "f{}", self.0)
    }
}

/// A flow's endpoints and offered demand.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FlowSpec {
    /// Sending node.
    pub src: NodeId,
    /// Receiving node.
    pub dst: NodeId,
    /// Offered load (demand). The allocation never exceeds this.
    pub demand: Bandwidth,
}

/// The result of a fairness computation: the rate granted to each flow.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct FlowAllocation {
    rates: BTreeMap<FlowId, Bandwidth>,
}

impl FlowAllocation {
    /// The rate granted to a flow; zero for unknown flows.
    pub fn rate(&self, id: FlowId) -> Bandwidth {
        self.rates.get(&id).copied().unwrap_or(Bandwidth::ZERO)
    }

    /// Iterates over `(flow, rate)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (FlowId, Bandwidth)> + '_ {
        self.rates.iter().map(|(&k, &v)| (k, v))
    }

    /// Number of flows in the allocation.
    pub fn len(&self) -> usize {
        self.rates.len()
    }

    /// True when no flows were allocated.
    pub fn is_empty(&self) -> bool {
        self.rates.is_empty()
    }

    pub(crate) fn insert(&mut self, id: FlowId, rate: Bandwidth) {
        self.rates.insert(id, rate);
    }

    /// Overwrites the rates of the listed slots only. Every `ids[s]`
    /// must already be a key — i.e. the allocation was last assigned
    /// from the same `ids` — which the delta engine guarantees on its
    /// steady-state tick, making the map write O(dirty · log F)
    /// instead of the O(F) full [`assign`](Self::assign).
    pub(crate) fn write_slots(&mut self, ids: &[FlowId], rates_bps: &[f64], slots: &[u32]) {
        for &s in slots {
            let s = s as usize;
            if let Some(r) = self.rates.get_mut(&ids[s]) {
                *r = Bandwidth::from_bps(rates_bps[s]);
            }
        }
    }

    /// Replaces the allocation with `rates_bps[i]` for `ids[i]` (both in
    /// ascending id order), updating values in place when the flow set is
    /// unchanged so the steady-state tick path performs no allocation.
    pub(crate) fn assign(&mut self, ids: &[FlowId], rates_bps: &[f64]) {
        if self.rates.len() == ids.len() && self.rates.keys().zip(ids).all(|(a, b)| a == b) {
            for (slot, &r) in self.rates.values_mut().zip(rates_bps) {
                *slot = Bandwidth::from_bps(r);
            }
        } else {
            self.rates = ids
                .iter()
                .zip(rates_bps)
                .map(|(&id, &r)| (id, Bandwidth::from_bps(r)))
                .collect();
        }
    }
}

/// One capacity constraint (a link, or a node egress cap) and the flows
/// that consume it.
#[derive(Debug, Clone)]
pub struct Constraint {
    /// Available capacity of this resource.
    pub capacity: Bandwidth,
    /// Indices (into the demand vector) of flows crossing this resource.
    pub members: Vec<usize>,
}

/// Convergence guard shared by all allocator implementations:
/// increments below this many bps are treated as "done".
const EPS: f64 = 1e-6; // bps — far below any meaningful rate

/// Marker for flows that belong to no constraint (loopback traffic):
/// they are granted their demand outright and live in no component.
pub const NO_COMPONENT: u32 = u32::MAX;

/// Connected components of the flow ↔ constraint bipartite graph.
///
/// Two constraints are in the same component when some flow crosses
/// both; a flow belongs to the component of its constraints. Max-min
/// fairness decomposes exactly over these components — no flow in one
/// component can affect any rate in another — so every allocator in
/// this crate fills components independently, one at a time, in the
/// *canonical component order* (ascending order of each component's
/// smallest constraint index). That shared order is what makes the
/// two [`crate::AllocEngine`]s bit-identical, and it is what the
/// `Delta` engine exploits: when a perturbation touches only one
/// component, every other component's rates are provably unchanged and
/// are kept verbatim.
///
/// In a gateway-partitioned city mesh whose flows stay inside their
/// district, each district's links and flows form one component — the
/// component index *is* the district map (see `docs/ARCHITECTURE.md`).
///
/// Rebuilt from the CSR flow → constraint map with a union-find pass
/// (O(memberships · α)); all storage is reused across rebuilds.
#[derive(Debug, Clone, Default)]
pub struct ComponentIndex {
    /// Component of each flow; [`NO_COMPONENT`] for unconstrained flows.
    flow_comp: Vec<u32>,
    /// Component of each constraint (memberless constraints form
    /// singleton components).
    cons_comp: Vec<u32>,
    /// CSR offsets of the component → flows map.
    comp_flows_off: Vec<usize>,
    /// CSR payload: flow indices per component, ascending.
    comp_flows: Vec<usize>,
    /// CSR offsets of the component → constraints map.
    comp_cons_off: Vec<usize>,
    /// CSR payload: constraint indices per component, ascending.
    comp_cons: Vec<usize>,
    /// Union-find parents over constraints (scratch, reused).
    parent: Vec<u32>,
}

impl ComponentIndex {
    /// Recomputes the component partition for `n` flows over
    /// `constraints`, reading flow memberships from the CSR map
    /// (`flow_cons_off`/`flow_cons`, as built by
    /// [`build_flow_constraint_map`]). Storage is reused.
    pub fn rebuild(
        &mut self,
        n: usize,
        constraints: &[Constraint],
        flow_cons_off: &[usize],
        flow_cons: &[usize],
    ) {
        let m = constraints.len();
        self.parent.clear();
        self.parent.extend(0..m as u32);
        // Union every constraint a flow crosses into the flow's first.
        for i in 0..n {
            let row = &flow_cons[flow_cons_off[i]..flow_cons_off[i + 1]];
            if let Some((&first, rest)) = row.split_first() {
                let root = self.find(first as u32);
                for &ci in rest {
                    let r = self.find(ci as u32);
                    if r != root {
                        self.parent[r as usize] = root;
                    }
                }
            }
        }
        // Canonical numbering: components appear in ascending order of
        // their smallest constraint index.
        self.cons_comp.clear();
        self.cons_comp.resize(m, NO_COMPONENT);
        let mut count = 0u32;
        for ci in 0..m as u32 {
            let root = self.find(ci) as usize;
            if self.cons_comp[root] == NO_COMPONENT {
                self.cons_comp[root] = count;
                count += 1;
            }
            let comp = self.cons_comp[root];
            self.cons_comp[ci as usize] = comp;
        }
        // Two-pass CSR builds (counts, prefix sums, fill) for both side
        // maps; ascending iteration keeps payloads sorted.
        self.flow_comp.clear();
        self.flow_comp.resize(n, NO_COMPONENT);
        for i in 0..n {
            if flow_cons_off[i + 1] > flow_cons_off[i] {
                self.flow_comp[i] = self.cons_comp[flow_cons[flow_cons_off[i]]];
            }
        }
        let nc = count as usize;
        self.comp_flows_off.clear();
        self.comp_flows_off.resize(nc + 1, 0);
        for &c in &self.flow_comp {
            if c != NO_COMPONENT {
                self.comp_flows_off[c as usize + 1] += 1;
            }
        }
        for k in 0..nc {
            self.comp_flows_off[k + 1] += self.comp_flows_off[k];
        }
        self.comp_flows.clear();
        self.comp_flows.resize(self.comp_flows_off[nc], 0);
        let mut cursor: Vec<usize> = self.comp_flows_off[..nc].to_vec();
        for (i, &c) in self.flow_comp.iter().enumerate() {
            if c != NO_COMPONENT {
                self.comp_flows[cursor[c as usize]] = i;
                cursor[c as usize] += 1;
            }
        }
        self.comp_cons_off.clear();
        self.comp_cons_off.resize(nc + 1, 0);
        for &c in &self.cons_comp {
            self.comp_cons_off[c as usize + 1] += 1;
        }
        for k in 0..nc {
            self.comp_cons_off[k + 1] += self.comp_cons_off[k];
        }
        self.comp_cons.clear();
        self.comp_cons.resize(m, 0);
        let mut cursor: Vec<usize> = self.comp_cons_off[..nc].to_vec();
        for (ci, &c) in self.cons_comp.iter().enumerate() {
            self.comp_cons[cursor[c as usize]] = ci;
            cursor[c as usize] += 1;
        }
    }

    fn find(&mut self, mut x: u32) -> u32 {
        // Path halving.
        while self.parent[x as usize] != x {
            let grand = self.parent[self.parent[x as usize] as usize];
            self.parent[x as usize] = grand;
            x = grand;
        }
        x
    }

    /// Number of components (memberless constraints count as singleton
    /// components; unconstrained flows count in none).
    pub fn component_count(&self) -> usize {
        self.comp_flows_off.len().saturating_sub(1)
    }

    /// The component a flow belongs to, or [`NO_COMPONENT`] when the
    /// flow crosses no constraint.
    pub fn flow_component(&self, flow: usize) -> u32 {
        self.flow_comp[flow]
    }

    /// The component a constraint belongs to.
    pub fn constraint_component(&self, ci: usize) -> u32 {
        self.cons_comp[ci]
    }

    /// The flow indices of a component, ascending.
    pub fn flows_of(&self, comp: u32) -> &[usize] {
        &self.comp_flows[self.comp_flows_off[comp as usize]..self.comp_flows_off[comp as usize + 1]]
    }

    /// The constraint indices of a component, ascending.
    pub fn constraints_of(&self, comp: u32) -> &[usize] {
        &self.comp_cons[self.comp_cons_off[comp as usize]..self.comp_cons_off[comp as usize + 1]]
    }
}

/// Reusable scratch state for [`max_min_allocate_components`] and
/// [`refill_component_into`].
///
/// The incremental allocator's working vectors (per-flow frozen flags,
/// per-constraint remaining capacity and active-member counts, and the
/// compact active-flow list) are kept here so a caller that allocates
/// every simulation tick — [`crate::Mesh`] — performs zero heap
/// allocations on the steady-state path.
#[derive(Debug, Clone, Default)]
pub struct AllocScratch {
    frozen: Vec<bool>,
    remaining: Vec<f64>,
    active_count: Vec<usize>,
    active: Vec<usize>,
}

/// Progressive-filling water-fill of one constraint component, in place.
///
/// Resets the component's slice of the working state (`rates`, `frozen`,
/// `remaining`, `active_count`), then runs the incremental water-filling
/// rounds restricted to the component's flows and constraints. This is
/// *the* canonical fill every allocation engine reduces to: the dense
/// oracle performs the same floating-point operations by re-scanning
/// membership lists, and the delta engine calls this directly for each
/// dirty component. State arrays are global-sized; only the component's
/// entries are read or written, so disjoint components can be filled in
/// any order with bit-identical results.
#[allow(clippy::too_many_arguments)]
fn fill_component(
    demands: &[Bandwidth],
    constraints: &[Constraint],
    flow_cons_off: &[usize],
    flow_cons: &[usize],
    comp_flows: &[usize],
    comp_cons: &[usize],
    rates: &mut [f64],
    frozen: &mut [bool],
    remaining: &mut [f64],
    active_count: &mut [usize],
    active: &mut Vec<usize>,
) {
    let n = demands.len();
    // Reset the component's state: zero-demand flows pre-freeze at rate
    // 0 (mirroring the historical global pre-pass), everything else
    // starts unfrozen at rate 0.
    active.clear();
    for &i in comp_flows {
        rates[i] = 0.0;
        if demands[i].as_bps() <= EPS {
            frozen[i] = true;
        } else {
            frozen[i] = false;
            active.push(i);
        }
    }
    for &ci in comp_cons {
        remaining[ci] = constraints[ci].capacity.as_bps();
        let mut k = 0;
        for &m in &constraints[ci].members {
            assert!(m < n, "constraint references unknown flow index {m}");
            if !frozen[m] {
                k += 1;
            }
        }
        active_count[ci] = k;
    }

    while !active.is_empty() {
        // Smallest per-flow increment until some flow hits its demand …
        let mut delta = f64::INFINITY;
        for &i in active.iter() {
            delta = delta.min(demands[i].as_bps() - rates[i]);
        }
        // … or some constraint saturates.
        for &ci in comp_cons {
            let k = active_count[ci];
            if k > 0 {
                delta = delta.min(remaining[ci] / k as f64);
            }
        }
        let delta = delta.max(0.0);

        for &i in active.iter() {
            rates[i] += delta;
        }
        for &ci in comp_cons {
            remaining[ci] -= delta * active_count[ci] as f64;
        }

        // Freeze demand-satisfied flows and members of saturated
        // constraints, decrementing the counts of every constraint a
        // freezing flow belongs to. At least one flow freezes per round
        // (delta picked the binding resource), so the loop terminates.
        let mut any_frozen = false;
        for &i in active.iter() {
            if demands[i].as_bps() - rates[i] <= EPS {
                frozen[i] = true;
                any_frozen = true;
                for &ci in &flow_cons[flow_cons_off[i]..flow_cons_off[i + 1]] {
                    active_count[ci] -= 1;
                }
            }
        }
        for &ci in comp_cons {
            if remaining[ci] <= EPS && active_count[ci] > 0 {
                for &m in &constraints[ci].members {
                    if !frozen[m] {
                        frozen[m] = true;
                        any_frozen = true;
                        for &cj in &flow_cons[flow_cons_off[m]..flow_cons_off[m + 1]] {
                            active_count[cj] -= 1;
                        }
                    }
                }
            }
        }
        if !any_frozen {
            // Defensive: numerical corner where nothing moved.
            break;
        }
        active.retain(|&i| !frozen[i]);
    }
}

/// Ensures the scratch working arrays cover `n` flows and
/// `constraints.len()` constraints without clearing existing entries
/// ([`fill_component`] resets exactly what it touches).
fn reserve_scratch(scratch: &mut AllocScratch, n: usize, m: usize) {
    if scratch.frozen.len() < n {
        scratch.frozen.resize(n, false);
    }
    if scratch.remaining.len() < m {
        scratch.remaining.resize(m, 0.0);
    }
    if scratch.active_count.len() < m {
        scratch.active_count.resize(m, 0);
    }
}

/// Progressive-filling max-min allocator with incremental bookkeeping,
/// over a caller-maintained [`ComponentIndex`]: fills every component in
/// canonical order plus the unconstrained flows, writing one rate (in
/// bps) per flow into `out` and reusing its storage. The partition must
/// have been rebuilt for exactly this CSR map.
///
/// Semantically identical to [`max_min_allocate_dense`] (bit-for-bit:
/// both perform the same floating-point operations in the same order),
/// but instead of re-counting every constraint's unfrozen members on
/// every water-filling round — O(Σ members) *three times per round* —
/// it keeps a per-constraint *active-member count* and the *remaining
/// capacity* updated in place. Each round then costs
/// O(active flows + component constraints), and the membership lists are
/// only walked once in total when flows freeze (amortized
/// O(Σ memberships) across the whole run).
///
/// `flow_cons_off`/`flow_cons` are a CSR-style reverse map from flow
/// index to the constraint indices it belongs to (one entry per
/// membership instance): flow `i`'s constraints are
/// `flow_cons[flow_cons_off[i]..flow_cons_off[i + 1]]`. [`crate::Mesh`]
/// maintains this map and the partition persistently and only rebuilds
/// them when the flow set or routing changes; [`max_min_allocate`]
/// derives both on the fly.
///
/// # Panics
///
/// Panics if a constraint references a flow index `>= demands.len()` or
/// the CSR map is inconsistent with `demands.len()`.
pub fn max_min_allocate_components(
    demands: &[Bandwidth],
    constraints: &[Constraint],
    flow_cons_off: &[usize],
    flow_cons: &[usize],
    comps: &ComponentIndex,
    scratch: &mut AllocScratch,
    out: &mut Vec<f64>,
) {
    let n = demands.len();
    assert_eq!(flow_cons_off.len(), n + 1, "CSR offsets must have len n + 1");
    out.clear();
    out.resize(n, 0.0);
    reserve_scratch(scratch, n, constraints.len());
    // Grant unconstrained flows (empty CSR row, e.g. loopback) their
    // full demand; zero-demand flows stay at rate 0.
    for i in 0..n {
        if flow_cons_off[i + 1] == flow_cons_off[i] {
            out[i] = unconstrained_rate(demands[i]);
        }
    }
    let AllocScratch { frozen, remaining, active_count, active } = scratch;
    for comp in 0..comps.component_count() as u32 {
        fill_component(
            demands,
            constraints,
            flow_cons_off,
            flow_cons,
            comps.flows_of(comp),
            comps.constraints_of(comp),
            out,
            frozen,
            remaining,
            active_count,
            active,
        );
    }
}

/// Refills a single component in place: resets and water-fills only
/// `comp`'s flows and constraints, leaving every other entry of `rates`
/// untouched. This is the [`crate::AllocEngine::Delta`] hot path — when
/// a tick changes one link's capacity, only that link's component is
/// refilled and the rest of the mesh keeps its previous allocation
/// verbatim (bit-for-bit what a full refill would have produced).
///
/// `rates` must hold one rate per flow (as produced by
/// [`max_min_allocate_components`]).
///
/// # Panics
///
/// Panics if `rates`/CSR sizes are inconsistent with `demands.len()` or
/// a constraint references an out-of-range flow.
#[allow(clippy::too_many_arguments)]
pub fn refill_component_into(
    comp: u32,
    demands: &[Bandwidth],
    constraints: &[Constraint],
    flow_cons_off: &[usize],
    flow_cons: &[usize],
    comps: &ComponentIndex,
    scratch: &mut AllocScratch,
    rates: &mut [f64],
) {
    let n = demands.len();
    assert_eq!(flow_cons_off.len(), n + 1, "CSR offsets must have len n + 1");
    assert_eq!(rates.len(), n, "rates must hold one slot per flow");
    reserve_scratch(scratch, n, constraints.len());
    let AllocScratch { frozen, remaining, active_count, active } = scratch;
    fill_component(
        demands,
        constraints,
        flow_cons_off,
        flow_cons,
        comps.flows_of(comp),
        comps.constraints_of(comp),
        rates,
        frozen,
        remaining,
        active_count,
        active,
    );
}

/// The rate the canonical fill grants a flow that crosses no constraint
/// (an empty CSR row — loopback traffic): its full demand in bps, or
/// zero for (near-)zero demands. The `Delta` engine applies this rule
/// directly when an unconstrained flow's demand moves, without touching
/// any component.
pub fn unconstrained_rate(demand: Bandwidth) -> f64 {
    let d = demand.as_bps();
    if d > EPS {
        d
    } else {
        0.0
    }
}

/// Builds the CSR-style flow → constraints reverse map consumed by
/// [`max_min_allocate_components`], with one entry per membership
/// instance.
/// `off` receives `n + 1` offsets and `cons` the flattened constraint
/// indices; both are reused without reallocating when possible.
pub fn build_flow_constraint_map(
    n: usize,
    constraints: &[Constraint],
    off: &mut Vec<usize>,
    cons: &mut Vec<usize>,
) {
    off.clear();
    off.resize(n + 1, 0);
    for c in constraints {
        for &m in &c.members {
            assert!(m < n, "constraint references unknown flow index {m}");
            off[m + 1] += 1;
        }
    }
    for i in 0..n {
        off[i + 1] += off[i];
    }
    cons.clear();
    cons.resize(off[n], 0);
    let mut cursor: Vec<usize> = off[..n].to_vec();
    for (ci, c) in constraints.iter().enumerate() {
        for &m in &c.members {
            cons[cursor[m]] = ci;
            cursor[m] += 1;
        }
    }
}

/// Computes the demand-capped max-min fair allocation.
///
/// `demands[i]` is flow *i*'s offered load; each [`Constraint`] couples a
/// capacity with the set of flows that cross it. Flows that appear in no
/// constraint are granted their full demand (loopback traffic).
///
/// Returns one rate per flow. The result satisfies:
///
/// - *feasibility*: for every constraint, the sum of member rates does
///   not exceed its capacity (within floating-point tolerance);
/// - *demand-boundedness*: `rate[i] <= demands[i]`;
/// - *max-min fairness*: a flow's rate can only be below its demand if it
///   crosses a saturated constraint on which no other member has a
///   larger rate that could be reduced in its favor.
///
/// This is a convenience wrapper over [`max_min_allocate_components`]
/// for one-shot callers: it derives the CSR map and the component
/// partition on the fly. Per-tick callers should hold an
/// [`AllocScratch`], a persistent CSR map and a [`ComponentIndex`]
/// instead.
pub fn max_min_allocate(demands: &[Bandwidth], constraints: &[Constraint]) -> Vec<Bandwidth> {
    let n = demands.len();
    let mut off = Vec::new();
    let mut cons = Vec::new();
    build_flow_constraint_map(n, constraints, &mut off, &mut cons);
    let mut comps = ComponentIndex::default();
    comps.rebuild(n, constraints, &off, &cons);
    let mut scratch = AllocScratch::default();
    let mut out = Vec::new();
    max_min_allocate_components(demands, constraints, &off, &cons, &comps, &mut scratch, &mut out);
    out.into_iter().map(Bandwidth::from_bps).collect()
}

/// The dense progressive-filling allocator, kept as the correctness
/// *oracle* for the incremental allocator and the delta engine
/// (property tests assert bit-identical outputs) and as the baseline the
/// `scale` bench measures speedups against. Every water-filling round re-scans the
/// component's full membership lists, so each round costs
/// O(constraints × members); prefer [`max_min_allocate`] everywhere
/// else.
///
/// Like every engine, it fills the connected components of the flow ↔
/// constraint graph one at a time in canonical order (ascending
/// smallest-constraint-index); the partition is re-derived here with an
/// independent union-find so the oracle shares no code with the
/// incremental path beyond this module's constants.
pub fn max_min_allocate_dense(demands: &[Bandwidth], constraints: &[Constraint]) -> Vec<Bandwidth> {
    let n = demands.len();
    let m = constraints.len();
    let mut rates = vec![0.0f64; n];
    let mut frozen = vec![false; n];
    let mut remaining: Vec<f64> = constraints.iter().map(|c| c.capacity.as_bps()).collect();

    // Pre-freeze zero-demand flows at rate 0; grant unconstrained flows
    // their demand.
    let mut constrained = vec![false; n];
    for c in constraints {
        for &m in &c.members {
            assert!(m < n, "constraint references unknown flow index {m}");
            constrained[m] = true;
        }
    }
    for i in 0..n {
        if demands[i].as_bps() <= EPS {
            frozen[i] = true;
        } else if !constrained[i] {
            rates[i] = demands[i].as_bps();
            frozen[i] = true;
        }
    }

    // Independent component derivation: a plain union-find over
    // constraints, joined through each flow's membership list.
    let mut parent: Vec<usize> = (0..m).collect();
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    let mut first_cons: Vec<Option<usize>> = vec![None; n];
    for (ci, c) in constraints.iter().enumerate() {
        for &fm in &c.members {
            match first_cons[fm] {
                None => first_cons[fm] = Some(ci),
                Some(f) => {
                    let (a, b) = (find(&mut parent, f), find(&mut parent, ci));
                    if a != b {
                        parent[b] = a;
                    }
                }
            }
        }
    }
    // Canonical order: components sorted by their smallest constraint.
    let mut comp_of_root: Vec<Option<usize>> = vec![None; m];
    let mut comp_cons: Vec<Vec<usize>> = Vec::new();
    for ci in 0..m {
        let root = find(&mut parent, ci);
        let comp = *comp_of_root[root].get_or_insert_with(|| {
            comp_cons.push(Vec::new());
            comp_cons.len() - 1
        });
        comp_cons[comp].push(ci);
    }
    let mut comp_flows: Vec<Vec<usize>> = vec![Vec::new(); comp_cons.len()];
    for (i, fc) in first_cons.iter().enumerate() {
        if let Some(f) = fc {
            let root = find(&mut parent, *f);
            comp_flows[comp_of_root[root].expect("root numbered")].push(i);
        }
    }

    for (cons, flows) in comp_cons.iter().zip(&comp_flows) {
        loop {
            let active: Vec<usize> = flows.iter().copied().filter(|&i| !frozen[i]).collect();
            if active.is_empty() {
                break;
            }

            // Smallest per-flow increment until some flow hits its
            // demand …
            let mut delta = f64::INFINITY;
            for &i in &active {
                delta = delta.min(demands[i].as_bps() - rates[i]);
            }
            // … or some constraint saturates.
            for &ci in cons {
                let k = constraints[ci].members.iter().filter(|&&fm| !frozen[fm]).count();
                if k > 0 {
                    delta = delta.min(remaining[ci] / k as f64);
                }
            }
            let delta = delta.max(0.0);

            for &i in &active {
                rates[i] += delta;
            }
            for &ci in cons {
                let k = constraints[ci].members.iter().filter(|&&fm| !frozen[fm]).count();
                remaining[ci] -= delta * k as f64;
            }

            // Freeze demand-satisfied flows and members of saturated
            // constraints. At least one flow freezes per round (delta
            // picked the binding resource), so the loop terminates.
            let mut any_frozen = false;
            for &i in &active {
                if demands[i].as_bps() - rates[i] <= EPS {
                    frozen[i] = true;
                    any_frozen = true;
                }
            }
            for &ci in cons {
                if remaining[ci] <= EPS {
                    for &fm in &constraints[ci].members {
                        if !frozen[fm] {
                            frozen[fm] = true;
                            any_frozen = true;
                        }
                    }
                }
            }
            if !any_frozen {
                // Defensive: numerical corner where nothing moved.
                break;
            }
        }
    }

    rates.into_iter().map(Bandwidth::from_bps).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mbps(x: f64) -> Bandwidth {
        Bandwidth::from_mbps(x)
    }

    fn assert_mbps(actual: Bandwidth, expected: f64) {
        assert!(
            (actual.as_mbps() - expected).abs() < 1e-6,
            "expected {expected} Mbps, got {}",
            actual.as_mbps()
        );
    }

    #[test]
    fn equal_share_on_single_link() {
        let demands = vec![mbps(100.0), mbps(100.0)];
        let constraints = vec![Constraint { capacity: mbps(10.0), members: vec![0, 1] }];
        let rates = max_min_allocate(&demands, &constraints);
        assert_mbps(rates[0], 5.0);
        assert_mbps(rates[1], 5.0);
    }

    #[test]
    fn demand_caps_respected_and_excess_redistributed() {
        // Flow 0 wants only 2; flow 1 takes the remaining 8.
        let demands = vec![mbps(2.0), mbps(100.0)];
        let constraints = vec![Constraint { capacity: mbps(10.0), members: vec![0, 1] }];
        let rates = max_min_allocate(&demands, &constraints);
        assert_mbps(rates[0], 2.0);
        assert_mbps(rates[1], 8.0);
    }

    #[test]
    fn unconstrained_flow_gets_demand() {
        let demands = vec![mbps(42.0)];
        let rates = max_min_allocate(&demands, &[]);
        assert_mbps(rates[0], 42.0);
    }

    #[test]
    fn zero_capacity_starves_members() {
        let demands = vec![mbps(5.0), mbps(5.0)];
        let constraints = vec![
            Constraint { capacity: Bandwidth::ZERO, members: vec![0] },
            Constraint { capacity: mbps(10.0), members: vec![1] },
        ];
        let rates = max_min_allocate(&demands, &constraints);
        assert_mbps(rates[0], 0.0);
        assert_mbps(rates[1], 5.0);
    }

    #[test]
    fn classic_two_link_example() {
        // Textbook: link A (cap 10) carries flows 0,1; link B (cap 4)
        // carries flows 1,2. Max-min: flow1 = 2, flow2 = 2, flow0 = 8.
        let demands = vec![mbps(100.0), mbps(100.0), mbps(100.0)];
        let constraints = vec![
            Constraint { capacity: mbps(10.0), members: vec![0, 1] },
            Constraint { capacity: mbps(4.0), members: vec![1, 2] },
        ];
        let rates = max_min_allocate(&demands, &constraints);
        assert_mbps(rates[1], 2.0);
        assert_mbps(rates[2], 2.0);
        assert_mbps(rates[0], 8.0);
    }

    #[test]
    fn multi_hop_flow_limited_by_bottleneck() {
        // A flow crossing caps 10 then 3 gets 3.
        let demands = vec![mbps(100.0)];
        let constraints = vec![
            Constraint { capacity: mbps(10.0), members: vec![0] },
            Constraint { capacity: mbps(3.0), members: vec![0] },
        ];
        let rates = max_min_allocate(&demands, &constraints);
        assert_mbps(rates[0], 3.0);
    }

    #[test]
    fn zero_demand_flow_gets_zero() {
        let demands = vec![Bandwidth::ZERO, mbps(5.0)];
        let constraints = vec![Constraint { capacity: mbps(10.0), members: vec![0, 1] }];
        let rates = max_min_allocate(&demands, &constraints);
        assert_mbps(rates[0], 0.0);
        assert_mbps(rates[1], 5.0);
    }

    #[test]
    fn feasibility_holds_for_many_flows() {
        let demands: Vec<Bandwidth> = (1..=20).map(|i| mbps(i as f64)).collect();
        // Two overlapping constraints.
        let constraints = vec![
            Constraint { capacity: mbps(30.0), members: (0..10).collect() },
            Constraint { capacity: mbps(25.0), members: (5..20).collect() },
        ];
        let rates = max_min_allocate(&demands, &constraints);
        for c in &constraints {
            let used: f64 = c.members.iter().map(|&m| rates[m].as_mbps()).sum();
            assert!(used <= c.capacity.as_mbps() + 1e-6, "constraint violated: {used}");
        }
        for (i, r) in rates.iter().enumerate() {
            assert!(r.as_mbps() <= demands[i].as_mbps() + 1e-9);
        }
    }

    /// The incremental engine must reproduce the dense oracle exactly —
    /// same floating-point operations in the same order, so the rates
    /// are bit-identical, not merely close.
    fn assert_engines_bit_identical(demands: &[Bandwidth], constraints: &[Constraint]) {
        let dense = max_min_allocate_dense(demands, constraints);
        let inc = max_min_allocate(demands, constraints);
        assert_eq!(dense.len(), inc.len());
        for (i, (d, n)) in dense.iter().zip(&inc).enumerate() {
            assert!(
                d.as_bps().to_bits() == n.as_bps().to_bits(),
                "flow {i}: dense {} vs incremental {}",
                d.as_bps(),
                n.as_bps()
            );
        }
    }

    #[test]
    fn incremental_matches_dense_oracle_on_known_shapes() {
        let demands = vec![mbps(100.0), mbps(100.0), mbps(100.0)];
        let constraints = vec![
            Constraint { capacity: mbps(10.0), members: vec![0, 1] },
            Constraint { capacity: mbps(4.0), members: vec![1, 2] },
        ];
        assert_engines_bit_identical(&demands, &constraints);
        // Zero capacity, zero demand, unconstrained flows.
        let demands = vec![Bandwidth::ZERO, mbps(5.0), mbps(42.0)];
        let constraints = vec![
            Constraint { capacity: Bandwidth::ZERO, members: vec![0, 1] },
            Constraint { capacity: mbps(10.0), members: vec![1] },
        ];
        assert_engines_bit_identical(&demands, &constraints);
        // No constraints at all.
        assert_engines_bit_identical(&[mbps(7.0)], &[]);
    }

    #[test]
    fn incremental_matches_dense_oracle_on_random_sets() {
        let mut rng = bass_util::rng::SimRng::seed_from_u64(0xA110C);
        for trial in 0..200 {
            let n = 1 + (rng.below(24) as usize);
            let demands: Vec<Bandwidth> =
                (0..n).map(|_| Bandwidth::from_mbps(rng.uniform(0.0, 50.0))).collect();
            let ncons = rng.below(8) as usize;
            let constraints: Vec<Constraint> = (0..ncons)
                .map(|_| Constraint {
                    capacity: Bandwidth::from_mbps(rng.uniform(0.0, 60.0)),
                    members: (0..n).filter(|_| rng.chance(0.4)).collect(),
                })
                .collect();
            let dense = max_min_allocate_dense(&demands, &constraints);
            let inc = max_min_allocate(&demands, &constraints);
            assert_eq!(dense, inc, "trial {trial} diverged");
        }
    }

    #[test]
    fn scratch_reuse_across_differently_sized_problems() {
        let mut scratch = AllocScratch::default();
        let mut comps = ComponentIndex::default();
        let mut off = Vec::new();
        let mut cons = Vec::new();
        let mut out = Vec::new();
        for n in [5usize, 2, 9, 1] {
            let demands: Vec<Bandwidth> = (0..n).map(|i| mbps(1.0 + i as f64)).collect();
            let constraints = vec![Constraint { capacity: mbps(6.0), members: (0..n).collect() }];
            build_flow_constraint_map(n, &constraints, &mut off, &mut cons);
            comps.rebuild(n, &constraints, &off, &cons);
            max_min_allocate_components(
                &demands,
                &constraints,
                &off,
                &cons,
                &comps,
                &mut scratch,
                &mut out,
            );
            let expected = max_min_allocate_dense(&demands, &constraints);
            assert_eq!(out.len(), n);
            for (got, want) in out.iter().zip(&expected) {
                assert!((got - want.as_bps()).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn allocation_assign_reuses_and_rebuilds() {
        let mut alloc = FlowAllocation::default();
        alloc.assign(&[FlowId(1), FlowId(4)], &[1e6, 2e6]);
        assert_mbps(alloc.rate(FlowId(1)), 1.0);
        assert_mbps(alloc.rate(FlowId(4)), 2.0);
        // Same key set: values update in place.
        alloc.assign(&[FlowId(1), FlowId(4)], &[3e6, 4e6]);
        assert_mbps(alloc.rate(FlowId(1)), 3.0);
        // Changed key set: the map is rebuilt.
        alloc.assign(&[FlowId(2)], &[5e6]);
        assert_eq!(alloc.len(), 1);
        assert_mbps(alloc.rate(FlowId(2)), 5.0);
        assert_mbps(alloc.rate(FlowId(1)), 0.0);
    }

    #[test]
    fn allocation_accessors() {
        let mut alloc = FlowAllocation::default();
        assert!(alloc.is_empty());
        alloc.insert(FlowId(3), mbps(1.0));
        assert_eq!(alloc.len(), 1);
        assert_mbps(alloc.rate(FlowId(3)), 1.0);
        assert_mbps(alloc.rate(FlowId(99)), 0.0);
        assert_eq!(alloc.iter().count(), 1);
        assert_eq!(FlowId(3).to_string(), "f3");
    }
}
