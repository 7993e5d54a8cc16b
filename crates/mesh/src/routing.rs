//! Deterministic min-hop routing.
//!
//! The paper assumes decentralized mesh routing that BASS cannot control;
//! BASS only *observes* paths with traceroute. We model the routing layer
//! as shortest-path (min hop count) with a deterministic tie-break, which
//! is stable across runs — exactly what an observing orchestrator needs.
//!
//! Routes are a view derived from the topology and its usable-link set,
//! stored densely per source so that [`RoutingTable::path`] borrows a
//! slice without a per-path allocation. When links flip,
//! [`RoutingTable::repair`] reruns the BFS only for the sources whose
//! tree can change.

use crate::topology::{LinkId, NodeId, Topology};
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

/// Per-link routing weight for quality-aware route computation.
///
/// Community mesh routing protocols (Babel, BATMAN, OLSR-ETX) prefer
/// high-quality links over short hop counts. [`RoutingTable::compute_weighted`]
/// models them: the weight of a link is interpreted ETX-style (expected
/// transmissions — lower is better), and routes minimize total weight.
pub type LinkWeight = f64;

/// Sentinel of the dense rows: no predecessor / unreachable / no node.
const NONE: u32 = u32::MAX;

/// Precomputed all-pairs min-hop routes over a [`Topology`].
///
/// # Examples
///
/// ```
/// use bass_mesh::routing::RoutingTable;
/// use bass_mesh::topology::{NodeId, Topology};
///
/// let mut topo = Topology::new();
/// for i in 0..3 {
///     topo.add_node(NodeId(i)).unwrap();
/// }
/// topo.add_link(NodeId(0), NodeId(1)).unwrap();
/// topo.add_link(NodeId(1), NodeId(2)).unwrap();
/// let routes = RoutingTable::compute(&topo);
/// assert_eq!(
///     routes.path(NodeId(0), NodeId(2)).unwrap(),
///     &[NodeId(0), NodeId(1), NodeId(2)]
/// );
/// ```
#[derive(Debug, Clone)]
pub struct RoutingTable {
    /// Dense index → node id, ascending.
    ids: Vec<NodeId>,
    /// Node id → dense index (`NONE` for ids outside the topology).
    index_of: Vec<u32>,
    /// `parent[s * n + d]`: dense index of `d`'s predecessor on the route
    /// from `s` (`s` itself for `d == s`, `NONE` when unreachable).
    parent: Vec<u32>,
    /// `depth[s * n + d]`: hop count from `s` to `d` (`NONE` when
    /// unreachable).
    depth: Vec<u32>,
    /// `offset[s * n + d]`: where the `s → d` path starts in `arenas[s]`;
    /// it spans `depth + 1` entries (meaningless when unreachable).
    offset: Vec<u32>,
    /// Per-source concatenated paths. A repair may leave dead entries
    /// behind (see [`RoutingTable::repair`]), so compare tables with `==`
    /// (route equality), never by layout.
    arenas: Vec<Vec<NodeId>>,
}

/// Index-array view of a topology's usable links in CSR form: each
/// node's edges ascending by neighbor id (dense indices ascend with ids).
/// An edge is the neighbor's dense index, plus its weight under weighted
/// routing.
struct Csr<E> {
    start: Vec<u32>,
    adj: Vec<E>,
}

impl<E> Csr<E> {
    /// Keeps the links `edge` maps to `Some`, given the far end's dense
    /// index and the link id.
    fn new(
        topo: &Topology,
        index_of: &[u32],
        mut edge: impl FnMut(u32, LinkId) -> Option<E>,
    ) -> Self {
        let mut start = Vec::with_capacity(topo.node_count() + 1);
        let mut adj = Vec::with_capacity(2 * topo.link_count());
        start.push(0);
        for n in topo.nodes() {
            for &(nb, lid) in topo.neighbor_links(n) {
                adj.extend(edge(index_of[nb.0 as usize], lid));
            }
            start.push(adj.len() as u32);
        }
        Csr { start, adj }
    }

    fn neighbors(&self, u: u32) -> &[E] {
        &self.adj[self.start[u as usize] as usize..self.start[u as usize + 1] as usize]
    }
}

/// Per-link usability flags, evaluating `usable` once per link.
fn pass_flags(topo: &Topology, mut usable: impl FnMut(LinkId) -> bool) -> Vec<bool> {
    topo.links().map(|(lid, _)| usable(lid)).collect()
}

/// A finite path cost with the total order Dijkstra's heap needs.
#[derive(Clone, Copy, PartialEq)]
struct Cost(f64);

impl Eq for Cost {}

impl PartialOrd for Cost {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Cost {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.partial_cmp(&other.0).expect("finite")
    }
}

impl RoutingTable {
    /// Runs BFS from every node and records the min-hop path to every
    /// reachable destination. Neighbors are scanned in ascending id
    /// order, and a node's predecessor is the *earliest-discovered* node
    /// one hop closer to the source — not necessarily the lowest-id one.
    /// With links 0-1, 0-2, 1-9, 2-3, 9-10 and 3-10, the route 0→10 is
    /// `[0, 1, 9, 10]`: 9 is discovered before 3, so it claims 10 first.
    /// The rule is deterministic, and the committed goldens depend on it.
    pub fn compute(topo: &Topology) -> Self {
        Self::compute_filtered(topo, |_| true)
    }

    /// [`compute`](Self::compute) restricted to links for which `usable`
    /// returns true — routes never traverse a filtered-out link. Used by
    /// the mesh to route around faulted links and crashed nodes;
    /// destinations that become unreachable simply have no entry.
    pub fn compute_filtered(topo: &Topology, usable: impl FnMut(LinkId) -> bool) -> Self {
        let mut table = Self::empty(topo);
        let pass = pass_flags(topo, usable);
        let graph = Csr::new(topo, &table.index_of, |v, lid| pass[lid.0].then_some(v));
        let mut queue = Vec::with_capacity(table.ids.len());
        for s in 0..table.ids.len() as u32 {
            table.bfs(&graph, s, &mut queue);
        }
        table
    }

    /// Runs Dijkstra from every node over per-link ETX-style weights
    /// (lower is better), producing quality-aware routes. Nodes settle
    /// in (cost, node id) order; a node's predecessor is the settled
    /// neighbor giving the lowest cost, ties toward the lower node id.
    ///
    /// `weight_of` is called once per link; it must return a finite,
    /// non-negative weight.
    ///
    /// # Panics
    ///
    /// Panics if a weight is negative or non-finite.
    pub fn compute_weighted(
        topo: &Topology,
        weight_of: impl FnMut(LinkId) -> LinkWeight,
    ) -> Self {
        Self::compute_weighted_filtered(topo, weight_of, |_| true)
    }

    /// [`compute_weighted`](Self::compute_weighted) restricted to links
    /// for which `usable` returns true; filtered-out links are never
    /// traversed and their weights are not evaluated.
    ///
    /// # Panics
    ///
    /// Panics if a usable link's weight is negative or non-finite.
    pub fn compute_weighted_filtered(
        topo: &Topology,
        mut weight_of: impl FnMut(LinkId) -> LinkWeight,
        mut usable: impl FnMut(LinkId) -> bool,
    ) -> Self {
        // Dense per-link weight table; `None` marks a filtered-out link
        // (whose weight closure is deliberately never evaluated).
        let weights: Vec<Option<f64>> = topo
            .links()
            .map(|(lid, _)| {
                if !usable(lid) {
                    return None;
                }
                let w = weight_of(lid);
                assert!(
                    w.is_finite() && w >= 0.0,
                    "link weight must be finite and non-negative, got {w} for {lid}"
                );
                Some(w)
            })
            .collect();
        let mut table = Self::empty(topo);
        let graph = Csr::new(topo, &table.index_of, |v, lid| weights[lid.0].map(|w| (v, w)));
        let n = table.ids.len();
        let mut dist = vec![0.0; n];
        let mut done = vec![false; n];
        let mut order = Vec::with_capacity(n);
        let mut heap = BinaryHeap::new();
        for s in 0..n {
            let base = s * n;
            let parent = &mut table.parent[base..base + n];
            done.fill(false);
            order.clear();
            parent[s] = s as u32;
            dist[s] = 0.0;
            heap.push(Reverse((Cost(0.0), s as u32)));
            // Settle the unfinished node with the smallest (cost, id);
            // entries whose cost no longer matches `dist` are stale.
            while let Some(Reverse((Cost(du), u))) = heap.pop() {
                let ui = u as usize;
                if done[ui] || du != dist[ui] {
                    continue;
                }
                done[ui] = true;
                order.push(u);
                for &(v, w) in graph.neighbors(u) {
                    let vi = v as usize;
                    if done[vi] {
                        continue;
                    }
                    let cand = du + w;
                    let fresh = parent[vi] == NONE;
                    if fresh || cand < dist[vi] {
                        dist[vi] = cand;
                        parent[vi] = u;
                        heap.push(Reverse((Cost(cand), v)));
                    } else if cand == dist[vi] && u < parent[vi] {
                        parent[vi] = u;
                    }
                }
            }
            // Settle order puts every predecessor before its children.
            let depth = &mut table.depth[base..base + n];
            for &d in &order {
                let p = parent[d as usize];
                depth[d as usize] = if p == d { 0 } else { depth[p as usize] + 1 };
            }
            table.fill_arena(s, &order);
        }
        table
    }

    /// Brings a table computed under an earlier usable-link set up to
    /// date after the links in `flipped` changed usability; `usable`
    /// reports the *new* state of every link. The result equals
    /// [`compute_filtered`](Self::compute_filtered) under `usable`, but
    /// only the sources whose BFS tree can change are recomputed:
    ///
    /// - a link that went down matters to a source only if it is one of
    ///   the source's tree edges. When the child below that edge has no
    ///   children of its own and no usable link left (a crashed leaf),
    ///   its entry is just cleared; otherwise the source is rerun.
    /// - a link that came up matters to a source only if its ends sit at
    ///   different depths (one may be unreachable). Two nodes at the
    ///   same depth are both discovered before either is scanned, so the
    ///   link is never a tree edge and never changes discovery order.
    ///
    /// `self` must hold the min-hop routes of the previous usable-link
    /// set. Cleared entries leave dead bytes in the source's path arena
    /// until the source is next rerun.
    pub fn repair(
        &mut self,
        topo: &Topology,
        flipped: &[LinkId],
        usable: impl FnMut(LinkId) -> bool,
    ) {
        if flipped.is_empty() {
            return;
        }
        let pass = pass_flags(topo, usable);
        let graph = Csr::new(topo, &self.index_of, |v, lid| pass[lid.0].then_some(v));
        let ends: Vec<(u32, u32, bool)> = flipped
            .iter()
            .map(|&lid| {
                let link = topo.link(lid);
                let a = self.index_of[link.a.0 as usize];
                let b = self.index_of[link.b.0 as usize];
                (a, b, pass[lid.0])
            })
            .collect();
        let n = self.ids.len();
        let mut queue = Vec::with_capacity(n);
        let mut leaves = Vec::new();
        for s in 0..n as u32 {
            leaves.clear();
            if self.must_rerun(s, &ends, topo, &graph, &mut leaves) {
                self.bfs(&graph, s, &mut queue);
            } else {
                let base = s as usize * n;
                for &v in &leaves {
                    self.parent[base + v as usize] = NONE;
                    self.depth[base + v as usize] = NONE;
                }
            }
        }
    }

    /// The node sequence from `src` to `dst` (inclusive), or `None` when
    /// unreachable. This is the simulator's "traceroute".
    pub fn path(&self, src: NodeId, dst: NodeId) -> Option<&[NodeId]> {
        let (s, d) = (self.index(src)?, self.index(dst)?);
        let at = s * self.ids.len() + d;
        let depth = self.depth[at];
        if depth == NONE {
            return None;
        }
        let start = self.offset[at] as usize;
        Some(&self.arenas[s][start..start + depth as usize + 1])
    }

    /// Hop count between two nodes (0 for `src == dst`), or `None` when
    /// unreachable.
    pub fn hops(&self, src: NodeId, dst: NodeId) -> Option<usize> {
        let (s, d) = (self.index(src)?, self.index(dst)?);
        let depth = self.depth[s * self.ids.len() + d];
        (depth != NONE).then_some(depth as usize)
    }

    /// The links traversed from `src` to `dst`, or `None` when
    /// unreachable or when a path edge is missing from the topology
    /// (which would indicate a stale table).
    pub fn path_links(&self, topo: &Topology, src: NodeId, dst: NodeId) -> Option<Vec<LinkId>> {
        let path = self.path(src, dst)?;
        path.windows(2)
            .map(|w| topo.find_link(w[0], w[1]))
            .collect()
    }

    /// True when every node pair has a route.
    pub fn fully_connected(&self, topo: &Topology) -> bool {
        let nodes: Vec<NodeId> = topo.nodes().collect();
        nodes
            .iter()
            .all(|&a| nodes.iter().all(|&b| self.hops(a, b).is_some()))
    }

    /// A table over `topo`'s nodes with every pair unreachable.
    fn empty(topo: &Topology) -> Self {
        let ids: Vec<NodeId> = topo.nodes().collect();
        let n = ids.len();
        assert!(n < NONE as usize / n.max(1), "too many nodes for a dense route table");
        let max_id = ids.last().map_or(0, |id| id.0 as usize + 1);
        let mut index_of = vec![NONE; max_id];
        for (i, id) in ids.iter().enumerate() {
            index_of[id.0 as usize] = i as u32;
        }
        RoutingTable {
            ids,
            index_of,
            parent: vec![NONE; n * n],
            depth: vec![NONE; n * n],
            offset: vec![0; n * n],
            arenas: vec![Vec::new(); n],
        }
    }

    fn index(&self, id: NodeId) -> Option<usize> {
        match self.index_of.get(id.0 as usize) {
            Some(&i) if i != NONE => Some(i as usize),
            _ => None,
        }
    }

    /// Whether source `s`'s BFS tree can change when the links with
    /// dense endpoints `ends` flip to the given usability (the rules of
    /// [`repair`](Self::repair)). When it cannot, `leaves` receives the
    /// crashed leaves whose entries must be cleared.
    fn must_rerun(
        &self,
        s: u32,
        ends: &[(u32, u32, bool)],
        topo: &Topology,
        graph: &Csr<u32>,
        leaves: &mut Vec<u32>,
    ) -> bool {
        let n = self.ids.len();
        let base = s as usize * n;
        let parent = &self.parent[base..base + n];
        let depth = &self.depth[base..base + n];
        for &(a, b, up) in ends {
            if up {
                if depth[a as usize] != depth[b as usize] {
                    return true;
                }
                continue;
            }
            let child = if parent[b as usize] == a {
                b
            } else if parent[a as usize] == b {
                a
            } else {
                continue;
            };
            let has_children = topo
                .neighbor_links(self.ids[child as usize])
                .iter()
                .any(|&(w, _)| parent[self.index_of[w.0 as usize] as usize] == child);
            if has_children || !graph.neighbors(child).is_empty() {
                return true;
            }
            leaves.push(child);
        }
        false
    }

    /// Recomputes source `s`'s rows and arena by BFS over `graph`.
    /// `queue` is scratch; it ends in discovery order.
    fn bfs(&mut self, graph: &Csr<u32>, s: u32, queue: &mut Vec<u32>) {
        let n = self.ids.len();
        let base = s as usize * n;
        let parent = &mut self.parent[base..base + n];
        let depth = &mut self.depth[base..base + n];
        parent.fill(NONE);
        depth.fill(NONE);
        queue.clear();
        queue.push(s);
        parent[s as usize] = s;
        depth[s as usize] = 0;
        // The queue only grows, so a read cursor is a FIFO.
        let mut head = 0;
        while let Some(&u) = queue.get(head) {
            head += 1;
            let du = depth[u as usize];
            for &v in graph.neighbors(u) {
                if parent[v as usize] == NONE {
                    parent[v as usize] = u;
                    depth[v as usize] = du + 1;
                    queue.push(v);
                }
            }
        }
        self.fill_arena(s as usize, queue);
    }

    /// Rewrites source `s`'s arena from its parent and depth rows.
    /// `order` lists the reachable nodes, each after its predecessor.
    fn fill_arena(&mut self, s: usize, order: &[u32]) {
        let n = self.ids.len();
        let base = s * n;
        let depth = &self.depth[base..base + n];
        let parent = &self.parent[base..base + n];
        let offset = &mut self.offset[base..base + n];
        let arena = &mut self.arenas[s];
        let total: usize = order.iter().map(|&d| depth[d as usize] as usize + 1).sum();
        arena.clear();
        arena.reserve_exact(total);
        for &d in order {
            let p = parent[d as usize] as usize;
            offset[d as usize] = arena.len() as u32;
            if p != d as usize {
                let from = offset[p] as usize;
                arena.extend_from_within(from..from + depth[p] as usize + 1);
            }
            arena.push(self.ids[d as usize]);
        }
    }
}

/// Route equality: the same node set and the same [`path`](RoutingTable::path)
/// for every pair, whatever dead arena entries a repair left behind.
impl PartialEq for RoutingTable {
    fn eq(&self, other: &Self) -> bool {
        self.ids == other.ids
            && self.ids.iter().all(|&a| {
                self.ids.iter().all(|&b| self.path(a, b) == other.path(a, b))
            })
    }
}

impl Eq for RoutingTable {}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::{BTreeMap, BTreeSet, VecDeque};

    /// The pre-dense min-hop implementation: one boxed path per pair in a
    /// tree map. Kept as the oracle the dense BFS must match exactly.
    fn legacy_filtered(
        topo: &Topology,
        usable: impl Fn(LinkId) -> bool,
    ) -> BTreeMap<(NodeId, NodeId), Vec<NodeId>> {
        let mut paths = BTreeMap::new();
        for src in topo.nodes() {
            let mut parent: BTreeMap<NodeId, NodeId> = BTreeMap::new();
            let mut queue = VecDeque::new();
            queue.push_back(src);
            parent.insert(src, src);
            while let Some(n) = queue.pop_front() {
                for &(nb, lid) in topo.neighbor_links(n) {
                    if usable(lid) && !parent.contains_key(&nb) {
                        parent.insert(nb, n);
                        queue.push_back(nb);
                    }
                }
            }
            collect_paths(src, &parent, parent.keys().copied(), &mut paths);
        }
        paths
    }

    /// The pre-dense weighted implementation: Dijkstra with a linear
    /// `min_by` scan over a tree map per pick. Oracle for the heap-based
    /// [`RoutingTable::compute_weighted_filtered`]. One change: settled
    /// neighbors are skipped before the tie-break reads their parent —
    /// the original read it first and panicked when a zero-weight link
    /// led back to the source (which has no parent entry); the outcome is
    /// otherwise the same, as settled nodes were never updated.
    fn legacy_weighted(
        topo: &Topology,
        weight_of: impl Fn(LinkId) -> f64,
        usable: impl Fn(LinkId) -> bool,
    ) -> BTreeMap<(NodeId, NodeId), Vec<NodeId>> {
        let mut paths = BTreeMap::new();
        for src in topo.nodes() {
            let mut dist: BTreeMap<NodeId, f64> = BTreeMap::new();
            let mut parent: BTreeMap<NodeId, NodeId> = BTreeMap::new();
            let mut done: BTreeSet<NodeId> = BTreeSet::new();
            dist.insert(src, 0.0);
            loop {
                let next = dist
                    .iter()
                    .filter(|(n, _)| !done.contains(n))
                    .min_by(|a, b| a.1.partial_cmp(b.1).expect("finite").then(a.0.cmp(b.0)))
                    .map(|(&n, &d)| (n, d));
                let Some((u, du)) = next else { break };
                done.insert(u);
                for &(nb, lid) in topo.neighbor_links(u) {
                    if !usable(lid) || done.contains(&nb) {
                        continue;
                    }
                    let cand = du + weight_of(lid);
                    let better = match dist.get(&nb) {
                        None => true,
                        Some(&d) => cand < d || (cand == d && u < parent[&nb]),
                    };
                    if better {
                        dist.insert(nb, cand);
                        parent.insert(nb, u);
                    }
                }
            }
            parent.insert(src, src);
            collect_paths(src, &parent, dist.keys().copied(), &mut paths);
        }
        paths
    }

    fn collect_paths(
        src: NodeId,
        parent: &BTreeMap<NodeId, NodeId>,
        dsts: impl Iterator<Item = NodeId>,
        paths: &mut BTreeMap<(NodeId, NodeId), Vec<NodeId>>,
    ) {
        for dst in dsts {
            let mut path = vec![dst];
            let mut cur = dst;
            while cur != src {
                cur = parent[&cur];
                path.push(cur);
            }
            path.reverse();
            paths.insert((src, dst), path);
        }
    }

    /// Asserts `table` holds exactly the oracle's routes, pair by pair.
    fn assert_matches(
        table: &RoutingTable,
        topo: &Topology,
        oracle: &BTreeMap<(NodeId, NodeId), Vec<NodeId>>,
    ) {
        for a in topo.nodes() {
            for b in topo.nodes() {
                let want = oracle.get(&(a, b)).map(Vec::as_slice);
                assert_eq!(table.path(a, b), want, "{a}->{b}");
                assert_eq!(table.hops(a, b), want.map(|p| p.len() - 1), "{a}->{b}");
            }
        }
    }

    /// A connected random graph on ids `0..n` scaled by `stride` (so the
    /// id → index map is exercised with gaps): a random spanning tree
    /// plus `extra` random chords.
    fn random_topology(n: u32, extra: usize, stride: u32, seed: u64) -> Topology {
        let mut rng = bass_util::rng::SimRng::seed_from_u64(seed);
        let mut topo = Topology::new();
        for i in 0..n {
            topo.add_node(NodeId(i * stride)).unwrap();
        }
        for i in 1..n {
            let j = rng.below(u64::from(i)) as u32;
            topo.add_link(NodeId(i * stride), NodeId(j * stride)).unwrap();
        }
        for _ in 0..extra {
            let a = rng.below(u64::from(n)) as u32;
            let b = rng.below(u64::from(n)) as u32;
            if a != b {
                topo.add_link(NodeId(a * stride), NodeId(b * stride)).ok();
            }
        }
        topo
    }

    fn line(n: u32) -> Topology {
        let mut topo = Topology::new();
        for i in 0..n {
            topo.add_node(NodeId(i)).unwrap();
        }
        for i in 0..n - 1 {
            topo.add_link(NodeId(i), NodeId(i + 1)).unwrap();
        }
        topo
    }

    #[test]
    fn line_paths() {
        let topo = line(5);
        let rt = RoutingTable::compute(&topo);
        assert_eq!(rt.hops(NodeId(0), NodeId(4)), Some(4));
        assert_eq!(
            rt.path(NodeId(0), NodeId(3)).unwrap(),
            &[NodeId(0), NodeId(1), NodeId(2), NodeId(3)]
        );
        assert_eq!(rt.path(NodeId(2), NodeId(2)).unwrap(), &[NodeId(2)]);
        assert!(rt.fully_connected(&topo));
    }

    #[test]
    fn full_mesh_is_single_hop() {
        let topo = Topology::full_mesh(4);
        let rt = RoutingTable::compute(&topo);
        for a in topo.nodes() {
            for b in topo.nodes() {
                if a != b {
                    assert_eq!(rt.hops(a, b), Some(1));
                }
            }
        }
    }

    #[test]
    fn unreachable_is_none() {
        let mut topo = Topology::new();
        topo.add_node(NodeId(0)).unwrap();
        topo.add_node(NodeId(1)).unwrap();
        let rt = RoutingTable::compute(&topo);
        assert_eq!(rt.path(NodeId(0), NodeId(1)), None);
        assert_eq!(rt.hops(NodeId(0), NodeId(1)), None);
        assert!(!rt.fully_connected(&topo));
    }

    #[test]
    fn tie_break_is_deterministic() {
        // Diamond: 0-1, 0-2, 1-3, 2-3. Path 0→3 has two 2-hop options;
        // BFS with sorted neighbors must pick via node 1.
        let mut topo = Topology::new();
        for i in 0..4 {
            topo.add_node(NodeId(i)).unwrap();
        }
        topo.add_link(NodeId(0), NodeId(1)).unwrap();
        topo.add_link(NodeId(0), NodeId(2)).unwrap();
        topo.add_link(NodeId(1), NodeId(3)).unwrap();
        topo.add_link(NodeId(2), NodeId(3)).unwrap();
        let rt = RoutingTable::compute(&topo);
        assert_eq!(
            rt.path(NodeId(0), NodeId(3)).unwrap(),
            &[NodeId(0), NodeId(1), NodeId(3)]
        );
        // Recomputation gives the identical table.
        assert_eq!(rt, RoutingTable::compute(&topo));
    }

    #[test]
    fn path_links_traverse_topology() {
        let topo = line(4);
        let rt = RoutingTable::compute(&topo);
        let links = rt.path_links(&topo, NodeId(0), NodeId(3)).unwrap();
        assert_eq!(links.len(), 3);
        // Every returned link is a real topology link on the path.
        let path = rt.path(NodeId(0), NodeId(3)).unwrap();
        for (i, lid) in links.iter().enumerate() {
            let l = topo.link(*lid);
            let (a, b) = (path[i], path[i + 1]);
            assert!(l.other(a) == Some(b));
        }
        // Same-node path crosses no links.
        assert_eq!(
            rt.path_links(&topo, NodeId(1), NodeId(1)).unwrap(),
            Vec::<LinkId>::new()
        );
    }

    #[test]
    fn weighted_routing_prefers_good_links() {
        // Triangle 0-1-2: the direct 0–2 link is lossy (ETX 4); the
        // two-hop route through 1 costs 1+1 = 2 and must win.
        let topo = Topology::full_mesh(3);
        let direct = topo.find_link(NodeId(0), NodeId(2)).unwrap();
        let rt = RoutingTable::compute_weighted(&topo, |lid| {
            if lid == direct {
                4.0
            } else {
                1.0
            }
        });
        assert_eq!(
            rt.path(NodeId(0), NodeId(2)).unwrap(),
            &[NodeId(0), NodeId(1), NodeId(2)]
        );
        // Other pairs keep their direct links.
        assert_eq!(rt.hops(NodeId(0), NodeId(1)), Some(1));
        assert_eq!(rt.hops(NodeId(1), NodeId(2)), Some(1));
    }

    #[test]
    fn weighted_routing_with_uniform_weights_matches_min_hop() {
        let topo = Topology::full_mesh(5);
        let hop = RoutingTable::compute(&topo);
        let weighted = RoutingTable::compute_weighted(&topo, |_| 1.0);
        for a in topo.nodes() {
            for b in topo.nodes() {
                assert_eq!(hop.hops(a, b), weighted.hops(a, b), "{a}->{b}");
            }
        }
    }

    #[test]
    fn weighted_routing_accepts_zero_weights() {
        // A zero-cost link back to the source ties with the source's own
        // distance; it must be ignored, not panic.
        let topo = Topology::full_mesh(3);
        let rt = RoutingTable::compute_weighted(&topo, |_| 0.0);
        assert_eq!(rt.path(NodeId(0), NodeId(2)).unwrap(), &[NodeId(0), NodeId(2)]);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn weighted_routing_rejects_negative_weights() {
        let topo = Topology::full_mesh(3);
        let _ = RoutingTable::compute_weighted(&topo, |_| -1.0);
    }

    #[test]
    fn filtered_routing_avoids_down_links() {
        // Triangle: with the direct 0–2 link filtered out, the route
        // detours through 1; with both 0-* links gone, 0 is isolated.
        let topo = Topology::full_mesh(3);
        let direct = topo.find_link(NodeId(0), NodeId(2)).unwrap();
        let rt = RoutingTable::compute_filtered(&topo, |lid| lid != direct);
        assert_eq!(
            rt.path(NodeId(0), NodeId(2)).unwrap(),
            &[NodeId(0), NodeId(1), NodeId(2)]
        );
        let l01 = topo.find_link(NodeId(0), NodeId(1)).unwrap();
        let isolated = RoutingTable::compute_filtered(&topo, |lid| lid != direct && lid != l01);
        assert_eq!(isolated.path(NodeId(0), NodeId(2)), None);
        assert_eq!(isolated.path(NodeId(0), NodeId(0)).unwrap(), &[NodeId(0)]);
        assert!(isolated.path(NodeId(1), NodeId(2)).is_some());
        assert!(!isolated.fully_connected(&topo));
    }

    #[test]
    fn weighted_filtered_routing_skips_links_without_evaluating_weights() {
        // The filtered link's weight closure would panic if evaluated.
        let topo = Topology::full_mesh(3);
        let direct = topo.find_link(NodeId(0), NodeId(2)).unwrap();
        let rt = RoutingTable::compute_weighted_filtered(
            &topo,
            |lid| {
                assert_ne!(lid, direct, "filtered link must not be weighed");
                1.0
            },
            |lid| lid != direct,
        );
        assert_eq!(rt.hops(NodeId(0), NodeId(2)), Some(2));
    }

    #[test]
    fn shortest_paths_use_chords() {
        // Ring 0-1-2-3-0 plus chord 0-2: path 1→3 stays 2 hops, path 0→2
        // becomes 1 hop via the chord.
        let mut topo = Topology::new();
        for i in 0..4 {
            topo.add_node(NodeId(i)).unwrap();
        }
        topo.add_link(NodeId(0), NodeId(1)).unwrap();
        topo.add_link(NodeId(1), NodeId(2)).unwrap();
        topo.add_link(NodeId(2), NodeId(3)).unwrap();
        topo.add_link(NodeId(3), NodeId(0)).unwrap();
        topo.add_link(NodeId(0), NodeId(2)).unwrap();
        let rt = RoutingTable::compute(&topo);
        assert_eq!(rt.hops(NodeId(0), NodeId(2)), Some(1));
        assert_eq!(rt.hops(NodeId(1), NodeId(3)), Some(2));
    }

    #[test]
    fn tie_break_is_earliest_discovered_not_lowest_id() {
        // Both 0→1→9→10 and 0→2→3→10 are 3 hops. BFS from 0 discovers
        // 1, 2, then 9 (scanning 1) before 3 (scanning 2); 9 is scanned
        // first and claims 10, although 3 < 9.
        let mut topo = Topology::new();
        for i in [0, 1, 2, 3, 9, 10] {
            topo.add_node(NodeId(i)).unwrap();
        }
        for (a, b) in [(0, 1), (0, 2), (1, 9), (2, 3), (9, 10), (3, 10)] {
            topo.add_link(NodeId(a), NodeId(b)).unwrap();
        }
        let rt = RoutingTable::compute(&topo);
        assert_eq!(
            rt.path(NodeId(0), NodeId(10)).unwrap(),
            &[NodeId(0), NodeId(1), NodeId(9), NodeId(10)]
        );
        assert_matches(&rt, &topo, &legacy_filtered(&topo, |_| true));
    }

    #[test]
    fn unknown_nodes_have_no_route() {
        let topo = line(3);
        let rt = RoutingTable::compute(&topo);
        assert_eq!(rt.path(NodeId(0), NodeId(7)), None);
        assert_eq!(rt.hops(NodeId(7), NodeId(0)), None);
        assert_eq!(rt.path(NodeId(u32::MAX), NodeId(0)), None);
    }

    #[test]
    fn repaired_leaf_clear_compares_by_routes_not_layout() {
        // Line 0-1-2-3: crashing 3 makes it a leaf in every other tree,
        // so repair only clears its entries and leaves their arena bytes
        // behind — the table must still equal a fresh computation.
        let topo = line(4);
        let mut rt = RoutingTable::compute(&topo);
        let l23 = topo.find_link(NodeId(2), NodeId(3)).unwrap();
        rt.repair(&topo, &[l23], |lid| lid != l23);
        let fresh = RoutingTable::compute_filtered(&topo, |lid| lid != l23);
        assert_ne!(rt.arenas, fresh.arenas, "repair should have kept dead bytes");
        assert_eq!(rt, fresh);
        assert_eq!(rt.path(NodeId(0), NodeId(3)), None);
        assert_eq!(rt.path(NodeId(3), NodeId(3)).unwrap(), &[NodeId(3)]);
        // Bringing the link back reruns the sources that can reach it.
        rt.repair(&topo, &[l23], |_| true);
        assert_eq!(rt, RoutingTable::compute(&topo));
    }

    #[test]
    fn repair_of_nothing_is_a_no_op() {
        let topo = Topology::full_mesh(4);
        let mut rt = RoutingTable::compute(&topo);
        let before = rt.clone();
        rt.repair(&topo, &[], |_| false);
        assert_eq!(rt.arenas, before.arenas);
        assert_eq!(rt, before);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn dense_bfs_matches_legacy(
            n in 1u32..24,
            extra in 0usize..40,
            stride in 1u32..4,
            seed in any::<u64>(),
            down_bits in any::<u64>(),
        ) {
            let topo = random_topology(n, extra, stride, seed);
            let usable = |lid: LinkId| down_bits & (1 << (lid.0 % 64)) == 0;
            let table = RoutingTable::compute_filtered(&topo, usable);
            assert_matches(&table, &topo, &legacy_filtered(&topo, usable));
        }

        #[test]
        fn heap_dijkstra_matches_legacy(
            n in 1u32..20,
            extra in 0usize..40,
            stride in 1u32..4,
            seed in any::<u64>(),
            down_bits in any::<u64>(),
            weight_seed in any::<u64>(),
        ) {
            let topo = random_topology(n, extra, stride, seed);
            // Few distinct weights, zero included, so cost ties are common.
            let weights: Vec<f64> = {
                let mut rng = bass_util::rng::SimRng::seed_from_u64(weight_seed);
                (0..topo.link_count())
                    .map(|_| [0.0, 0.5, 1.0, 1.5, 2.0][rng.below(5) as usize])
                    .collect()
            };
            let usable = |lid: LinkId| down_bits & (1 << (lid.0 % 64)) == 0;
            let weight = |lid: LinkId| weights[lid.0];
            let table = RoutingTable::compute_weighted_filtered(&topo, weight, usable);
            assert_matches(&table, &topo, &legacy_weighted(&topo, weight, usable));
        }
    }
}
