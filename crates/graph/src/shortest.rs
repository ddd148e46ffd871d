//! Shortest paths by hop count: breadth-first search and Yen's k-shortest
//! loopless paths.
//!
//! Monitor pairs use these to build candidate measurement-path pools. Yen's
//! algorithm provides path *diversity*, which identifiability-driven path
//! selection needs (distinct paths must cover independent link
//! combinations).
//!
//! # Tie-breaking
//!
//! Every search is a unit-weight BFS that expands each level in ascending
//! node id and keeps the *first* discoverer of a node as its predecessor.
//! That is exactly the tree a `(distance, node id)`-ordered Dijkstra with
//! strict relaxation builds: Dijkstra pops a level in ascending id, the
//! first popped neighbour sets a node's distance, and no later neighbour on
//! the same level improves it strictly. So among equal-length paths the
//! search returns the one whose every node has the smallest-id
//! predecessor, and Yen's output — path for path — is the one a heap
//! Dijkstra would give, at a fraction of the cost.
//!
//! # Bounded spur searches
//!
//! [`KShortest`] returns exactly the paths of the unbounded algorithm while
//! searching far less of the graph. Candidates wait in a pool sorted by
//! `(length, node sequence)`, and each round moves the pool's first entry
//! to the result. Two facts make the searches cheaper:
//!
//! * **The spur bound.** Let `need = k − |result|`. Once the pool holds
//!   `need` paths, every remaining round selects a path no later than the
//!   pool's `need`-th in that order: before each of the `need` selections
//!   at least one of those paths is still waiting. A path longer than the
//!   `need`-th can therefore never be selected, so a spur search may stop
//!   at that length (ties stay, because node order breaks them) and the
//!   pool may drop every longer entry. A selection removes the first entry
//!   and lowers `need` by one, so the bound never loosens.
//! * **Goal-directed pruning.** One unbanned BFS from the target gives
//!   `dist_t(v)` for every node. A spur search with budget `b` skips a node
//!   `v` reached at depth `d` when `d + dist_t(v) > b`. Let `D(v)` be the
//!   depth of `v` in the unpruned search. Pruning only removes nodes, so
//!   no node is reached earlier than `D(v)`. Every previous-level
//!   neighbour `u` of a kept node `v` has `dist_t(u) ≤ dist_t(v) + 1`, so
//!   `D(u) + dist_t(u) ≤ D(v) + dist_t(v)` and `u` is kept too: `v` keeps
//!   its depth and its smallest-id first discoverer. Bans only lengthen
//!   distances, so each node `w` on the unpruned path to the target has
//!   `D(w) + dist_t(w) ≤ D(t)`. Any budget `b ≥ D(t)` therefore keeps that
//!   whole path and finds exactly it.
//! * **Deepening.** The first budget is `dist_t(spur) ≤ D(t)`. A search
//!   that fails skipped a node of the unpruned path, so the smallest
//!   `d + dist_t(v)` it skipped is at most `D(t)`; every budget below that
//!   value would repeat the same search, so it is the next budget. This
//!   goes on up to the spur bound. A search that skips nothing has
//!   explored everything reachable, so the target is unreachable; so it is
//!   when every link into the target is banned or comes from a banned
//!   node.

use crate::{Graph, GraphError, LinkId, NodeId, Path};

/// `dist_t` of a node that cannot reach the target.
const UNREACHABLE: u32 = u32::MAX;

/// Scratch state for repeated searches on one graph, reused across every
/// spur search of a [`KShortest`] so no search allocates.
struct Bfs {
    /// `seen[v] == stamp` iff `v` was discovered — or banned — in the
    /// current search; bumping `stamp` clears every mark at once.
    seen: Vec<u32>,
    stamp: u32,
    /// Predecessor node and connecting link of each discovered node.
    pred: Vec<(NodeId, LinkId)>,
    banned_links: Vec<bool>,
    /// Links set in `banned_links`, so a reset clears only those.
    banned_list: Vec<LinkId>,
    frontier: Vec<NodeId>,
    next: Vec<NodeId>,
}

impl Bfs {
    fn new(graph: &Graph) -> Self {
        Bfs {
            seen: vec![0; graph.num_nodes()],
            stamp: 0,
            pred: vec![(NodeId(0), LinkId(0)); graph.num_nodes()],
            banned_links: vec![false; graph.num_links()],
            banned_list: Vec::new(),
            frontier: Vec::new(),
            next: Vec::new(),
        }
    }

    /// Forgets the previous discoveries and node bans; link bans stay.
    fn restamp(&mut self) {
        if self.stamp == u32::MAX {
            self.seen.fill(0);
            self.stamp = 0;
        }
        self.stamp += 1;
    }

    /// Starts a new search: forgets the previous discoveries and bans.
    fn reset(&mut self) {
        self.restamp();
        for l in self.banned_list.drain(..) {
            self.banned_links[l.index()] = false;
        }
    }

    fn ban_node(&mut self, node: NodeId) {
        self.seen[node.index()] = self.stamp;
    }

    fn ban_link(&mut self, link: LinkId) {
        if !self.banned_links[link.index()] {
            self.banned_links[link.index()] = true;
            self.banned_list.push(link);
        }
    }

    /// Whether some link into `target` is open: not banned, and from a
    /// node not banned.
    fn can_enter(&self, graph: &Graph, target: NodeId) -> bool {
        let adjacent = graph
            .neighbors(target)
            .expect("searched nodes belong to the graph");
        adjacent
            .iter()
            .any(|&(v, l)| !self.banned_links[l.index()] && self.seen[v.index()] != self.stamp)
    }

    /// Runs the search from `source` until `target` (a different node) is
    /// discovered; returns `false` if it is unreachable or either endpoint
    /// is banned.
    fn search(&mut self, graph: &Graph, source: NodeId, target: NodeId) -> bool {
        self.search_admitting(graph, source, target, |_, _| true)
    }

    /// [`Self::search`] over the nodes `admit(v, depth)` accepts when the
    /// search first reaches them. A rejected node is neither marked nor
    /// expanded, so it is offered again if another node reaches it.
    fn search_admitting(
        &mut self,
        graph: &Graph,
        source: NodeId,
        target: NodeId,
        mut admit: impl FnMut(NodeId, usize) -> bool,
    ) -> bool {
        let Bfs {
            seen,
            stamp,
            pred,
            banned_links,
            frontier,
            next,
            ..
        } = self;
        let stamp = *stamp;
        if seen[source.index()] == stamp || seen[target.index()] == stamp {
            return false;
        }
        seen[source.index()] = stamp;
        frontier.clear();
        frontier.push(source);
        let mut depth = 0;
        while !frontier.is_empty() {
            depth += 1;
            next.clear();
            for &u in frontier.iter() {
                let adjacent = graph
                    .neighbors(u)
                    .expect("searched nodes belong to the graph");
                for &(v, l) in adjacent {
                    if seen[v.index()] == stamp || banned_links[l.index()] || !admit(v, depth) {
                        continue;
                    }
                    seen[v.index()] = stamp;
                    pred[v.index()] = (u, l);
                    if v == target {
                        return true;
                    }
                    next.push(v);
                }
            }
            next.sort_unstable();
            std::mem::swap(frontier, next);
        }
        false
    }

    /// Appends the path the last successful search found, `source` to
    /// `target`, to `nodes` and `links`.
    fn trace(
        &self,
        source: NodeId,
        target: NodeId,
        nodes: &mut Vec<NodeId>,
        links: &mut Vec<LinkId>,
    ) {
        let (n0, l0) = (nodes.len(), links.len());
        let mut cur = target;
        nodes.push(cur);
        while cur != source {
            let (u, l) = self.pred[cur.index()];
            links.push(l);
            nodes.push(u);
            cur = u;
        }
        nodes[n0..].reverse();
        links[l0..].reverse();
    }
}

/// Shortest path by hop count (unit weights).
///
/// # Errors
///
/// Returns [`GraphError::UnknownNode`] for missing endpoints and
/// [`GraphError::InvalidPath`] if `source == target`.
///
/// ```
/// use tomo_graph::{Graph, shortest};
///
/// # fn main() -> Result<(), tomo_graph::GraphError> {
/// let mut g = Graph::new();
/// let a = g.add_node("a");
/// let b = g.add_node("b");
/// let c = g.add_node("c");
/// g.add_link(a, b)?;
/// g.add_link(b, c)?;
/// g.add_link(a, c)?;
/// let p = shortest::shortest_path(&g, a, c)?.expect("connected");
/// assert_eq!(p.num_links(), 1);
/// # Ok(())
/// # }
/// ```
pub fn shortest_path(
    graph: &Graph,
    source: NodeId,
    target: NodeId,
) -> Result<Option<Path>, GraphError> {
    check_endpoints(graph, source, target)?;
    let mut bfs = Bfs::new(graph);
    bfs.reset();
    if !bfs.search(graph, source, target) {
        return Ok(None);
    }
    let (mut nodes, mut links) = (Vec::new(), Vec::new());
    bfs.trace(source, target, &mut nodes, &mut links);
    Ok(Some(Path::from_parts(nodes, links)))
}

/// Both endpoints exist and differ.
fn check_endpoints(graph: &Graph, source: NodeId, target: NodeId) -> Result<(), GraphError> {
    let _ = graph.label(source)?;
    let _ = graph.label(target)?;
    if source == target {
        // A single node is not a path: report it as `from_nodes` does.
        Path::from_nodes(graph, &[source])?;
    }
    Ok(())
}

/// Yen's algorithm: up to `k` shortest loopless paths from `source` to
/// `target` by hop count, in non-decreasing length order (ties by node
/// sequence).
///
/// A one-off call; [`KShortest`] returns the same paths and reuses its
/// workspace across calls.
///
/// # Errors
///
/// Returns [`GraphError::UnknownNode`] for missing endpoints and
/// [`GraphError::InvalidPath`] if `source == target`.
pub fn yen_k_shortest(
    graph: &Graph,
    source: NodeId,
    target: NodeId,
    k: usize,
) -> Result<Vec<Path>, GraphError> {
    KShortest::new(graph).paths(source, target, k)
}

/// Yen's k-shortest loopless paths on one graph, with bounded,
/// goal-directed spur searches (see the module docs) in a workspace
/// reused across calls.
///
/// The workspace keeps the hop distance of every node to the last call's
/// target, so consecutive calls toward one target — placement pulls the
/// paths from every existing monitor to a new one — compute it once.
///
/// ```
/// use tomo_graph::{shortest, Graph};
///
/// # fn main() -> Result<(), tomo_graph::GraphError> {
/// let mut g = Graph::new();
/// let n: Vec<_> = (0..4).map(|i| g.add_node(format!("n{i}"))).collect();
/// g.add_link(n[0], n[1])?;
/// g.add_link(n[1], n[3])?;
/// g.add_link(n[0], n[2])?;
/// g.add_link(n[2], n[3])?;
/// let mut yen = shortest::KShortest::new(&g);
/// for s in [n[0], n[1]] {
///     assert_eq!(yen.paths(s, n[3], 4)?, shortest::yen_k_shortest(&g, s, n[3], 4)?);
/// }
/// # Ok(())
/// # }
/// ```
pub struct KShortest<'g> {
    graph: &'g Graph,
    bfs: Bfs,
    /// `dist_t`: unbanned hop distance of every node to `target`.
    to_target: Vec<u32>,
    target: Option<NodeId>,
}

impl<'g> KShortest<'g> {
    /// A workspace for searches on `graph`.
    #[must_use]
    pub fn new(graph: &'g Graph) -> Self {
        KShortest {
            graph,
            bfs: Bfs::new(graph),
            to_target: vec![UNREACHABLE; graph.num_nodes()],
            target: None,
        }
    }

    /// Up to `k` shortest loopless paths from `source` to `target`, path
    /// for path those of [`yen_k_shortest`].
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::UnknownNode`] for missing endpoints and
    /// [`GraphError::InvalidPath`] if `source == target`.
    pub fn paths(
        &mut self,
        source: NodeId,
        target: NodeId,
        k: usize,
    ) -> Result<Vec<Path>, GraphError> {
        let mut result: Vec<Path> = Vec::new();
        if k == 0 {
            return Ok(result);
        }
        check_endpoints(self.graph, source, target)?;
        self.aim(target);
        self.bfs.reset();
        if !self.spur_search(source, &[], target, usize::MAX) {
            return Ok(result);
        }
        let (mut nodes, mut links) = (Vec::new(), Vec::new());
        self.bfs.trace(source, target, &mut nodes, &mut links);
        result.push(Path::from_parts(nodes, links));

        // Candidate pool, sorted by (len, node sequence); only entries that
        // can still be selected are kept.
        let mut pool: Vec<Path> = Vec::new();
        while result.len() < k {
            let need = k - result.len();
            let last = &result[result.len() - 1];
            // Each node of the previous path (except the final node) is a spur.
            for spur_idx in 0..last.nodes().len() - 1 {
                // Longest selectable total length (module docs).
                let bound = pool.get(need - 1).map_or(usize::MAX, Path::num_links);
                let spur = last.nodes()[spur_idx];
                if spur_idx.saturating_add(self.to_target[spur.index()] as usize) > bound {
                    continue;
                }
                let root = &last.nodes()[..=spur_idx];
                self.bfs.reset();
                // Ban the next link of every accepted path sharing this root.
                for p in &result {
                    if p.nodes().len() > spur_idx && p.nodes()[..=spur_idx] == *root {
                        if let Some(&l) = p.links().get(spur_idx) {
                            self.bfs.ban_link(l);
                        }
                    }
                }
                // Root nodes except the spur node stay banned (loopless).
                if !self.spur_search(spur, &root[..spur_idx], target, bound - spur_idx) {
                    continue;
                }
                // Total path = root + spur; simple because the spur search
                // never enters a root node, and new because its link after
                // the root is banned on every result path sharing the root.
                let mut nodes = root[..spur_idx].to_vec();
                let mut links = last.links()[..spur_idx].to_vec();
                self.bfs.trace(spur, target, &mut nodes, &mut links);
                let total = Path::from_parts(nodes, links);
                // `Graph` has no parallel links, so the node sequence
                // identifies the path and an equal key is a duplicate.
                let slot = pool.binary_search_by(|p| {
                    p.num_links()
                        .cmp(&total.num_links())
                        .then_with(|| p.nodes().cmp(total.nodes()))
                });
                if let Err(at) = slot {
                    pool.insert(at, total);
                }
                if pool.len() > need {
                    let cap = pool[need - 1].num_links();
                    let keep = pool.partition_point(|p| p.num_links() <= cap);
                    pool.truncate(keep);
                }
            }
            if pool.is_empty() {
                break;
            }
            result.push(pool.remove(0));
        }
        Ok(result)
    }

    /// Makes `to_target` the distances to `target`, by one unbanned BFS
    /// unless they already are.
    fn aim(&mut self, target: NodeId) {
        if self.target == Some(target) {
            return;
        }
        self.target = Some(target);
        let dist = &mut self.to_target;
        dist.fill(UNREACHABLE);
        dist[target.index()] = 0;
        let queue = &mut self.bfs.next;
        queue.clear();
        queue.push(target);
        let mut head = 0;
        while let Some(&u) = queue.get(head) {
            head += 1;
            let du = dist[u.index()];
            for &(v, _) in self.graph.neighbors(u).expect("node of the graph") {
                if dist[v.index()] == UNREACHABLE {
                    dist[v.index()] = du + 1;
                    queue.push(v);
                }
            }
        }
    }

    /// Searches `spur → target` within `budget` links, with `banned`
    /// nodes and the links already banned, by iterative deepening over
    /// goal-directed searches; on success the path is in `self.bfs`.
    fn spur_search(
        &mut self,
        spur: NodeId,
        banned: &[NodeId],
        target: NodeId,
        budget: usize,
    ) -> bool {
        let to_target = &self.to_target;
        if to_target[spur.index()] == UNREACHABLE {
            return false;
        }
        let mut depth_cap = to_target[spur.index()] as usize;
        while depth_cap <= budget {
            // A new stamp forgets the last search's discoveries and with
            // them the node bans.
            self.bfs.restamp();
            for &n in banned {
                self.bfs.ban_node(n);
            }
            if !self.bfs.can_enter(self.graph, target) {
                return false;
            }
            // The smallest `depth + dist_t` the search skips: every cap
            // below it would repeat this search exactly.
            let mut next_cap = usize::MAX;
            let found = self
                .bfs
                .search_admitting(self.graph, spur, target, |v, depth| {
                    let rest = to_target[v.index()];
                    // A node that cannot reach the target never lies on a
                    // path to it; skipping it prunes nothing.
                    if rest == UNREACHABLE {
                        return false;
                    }
                    let reach = depth + rest as usize;
                    if reach > depth_cap {
                        next_cap = next_cap.min(reach);
                        return false;
                    }
                    true
                });
            if found || next_cap == usize::MAX {
                return found;
            }
            depth_cap = next_cap;
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LinkId;

    /// Diamond with a long detour:
    /// a-b, b-d, a-c, c-d, a-d(direct), c-e, e-d
    fn diamond() -> (Graph, Vec<NodeId>) {
        let mut g = Graph::new();
        let ids: Vec<NodeId> = ["a", "b", "c", "d", "e"]
            .iter()
            .map(|l| g.add_node(*l))
            .collect();
        g.add_link(ids[0], ids[1]).unwrap(); // l0 a-b
        g.add_link(ids[1], ids[3]).unwrap(); // l1 b-d
        g.add_link(ids[0], ids[2]).unwrap(); // l2 a-c
        g.add_link(ids[2], ids[3]).unwrap(); // l3 c-d
        g.add_link(ids[0], ids[3]).unwrap(); // l4 a-d
        g.add_link(ids[2], ids[4]).unwrap(); // l5 c-e
        g.add_link(ids[4], ids[3]).unwrap(); // l6 e-d
        (g, ids)
    }

    #[test]
    fn shortest_is_direct_link() {
        let (g, ids) = diamond();
        let p = shortest_path(&g, ids[0], ids[3]).unwrap().unwrap();
        assert_eq!(p.num_links(), 1);
        assert_eq!(p.links(), &[LinkId(4)]);
    }

    #[test]
    fn unreachable_returns_none() {
        let mut g = Graph::new();
        let a = g.add_node("a");
        let b = g.add_node("b");
        assert!(shortest_path(&g, a, b).unwrap().is_none());
    }

    /// Runs one banned search through the scratch state Yen uses.
    fn banned_search(
        g: &Graph,
        source: NodeId,
        target: NodeId,
        nodes: &[NodeId],
        links: &[LinkId],
    ) -> Option<Vec<NodeId>> {
        let mut bfs = Bfs::new(g);
        bfs.reset();
        for &l in links {
            bfs.ban_link(l);
        }
        for &n in nodes {
            bfs.ban_node(n);
        }
        if !bfs.search(g, source, target) {
            return None;
        }
        let (mut path, mut hops) = (Vec::new(), Vec::new());
        bfs.trace(source, target, &mut path, &mut hops);
        assert_eq!(Path::from_nodes(g, &path).unwrap().links(), &hops[..]);
        Some(path)
    }

    #[test]
    fn banned_node_blocks_path() {
        let (g, ids) = diamond();
        // Ban b and the direct a-d link: must go a-c-d.
        let p = banned_search(&g, ids[0], ids[3], &[ids[1]], &[LinkId(4)]).unwrap();
        assert_eq!(p, vec![ids[0], ids[2], ids[3]]);
    }

    #[test]
    fn banned_endpoint_returns_none() {
        let (g, ids) = diamond();
        assert!(banned_search(&g, ids[0], ids[3], &[ids[0]], &[]).is_none());
        assert!(banned_search(&g, ids[0], ids[3], &[ids[3]], &[]).is_none());
    }

    #[test]
    fn reset_clears_bans_and_discoveries() {
        let (g, ids) = diamond();
        let mut bfs = Bfs::new(&g);
        bfs.reset();
        bfs.ban_link(LinkId(4));
        bfs.ban_node(ids[1]);
        bfs.ban_node(ids[2]);
        assert!(!bfs.search(&g, ids[0], ids[3]));
        bfs.reset();
        assert!(bfs.banned_list.is_empty());
        assert!(bfs.search(&g, ids[0], ids[3]));
        let (mut nodes, mut links) = (Vec::new(), Vec::new());
        bfs.trace(ids[0], ids[3], &mut nodes, &mut links);
        assert_eq!(links, vec![LinkId(4)]);
    }

    #[test]
    fn equal_length_ties_go_to_the_smallest_id_predecessor() {
        // s=0 reaches t=5 in three hops through 1-3 or 2-4; node 4 is
        // listed before node 3 in t's adjacency, and 2 before 1 in s's,
        // yet the search must keep the smallest-id discoverer on each
        // level: s-1-3-t.
        let mut g = Graph::with_nodes(6);
        let n = |i| NodeId(i);
        g.add_link(n(0), n(2)).unwrap();
        g.add_link(n(0), n(1)).unwrap();
        g.add_link(n(2), n(4)).unwrap();
        g.add_link(n(1), n(3)).unwrap();
        g.add_link(n(4), n(5)).unwrap();
        g.add_link(n(3), n(5)).unwrap();
        // 2 also reaches 3, so 3 is discovered by 1 (id order), not 2.
        g.add_link(n(2), n(3)).unwrap();
        let p = shortest_path(&g, n(0), n(5)).unwrap().unwrap();
        assert_eq!(p.nodes(), &[n(0), n(1), n(3), n(5)]);
    }

    #[test]
    fn source_equal_to_target_is_an_error() {
        let (g, ids) = diamond();
        assert!(matches!(
            shortest_path(&g, ids[0], ids[0]),
            Err(GraphError::InvalidPath { .. })
        ));
        assert!(yen_k_shortest(&g, ids[0], ids[0], 3).is_err());
        assert!(matches!(
            shortest_path(&g, ids[0], NodeId(99)),
            Err(GraphError::UnknownNode { .. })
        ));
    }

    #[test]
    fn yen_returns_increasing_lengths_without_duplicates() {
        let (g, ids) = diamond();
        let paths = yen_k_shortest(&g, ids[0], ids[3], 5).unwrap();
        // Paths a→d: direct (1), a-b-d (2), a-c-d (2), a-c-e-d (3) = 4 total.
        assert_eq!(paths.len(), 4);
        for w in paths.windows(2) {
            assert!(w[0].num_links() <= w[1].num_links());
            assert_ne!(w[0], w[1]);
        }
        assert_eq!(paths[0].num_links(), 1);
        assert_eq!(paths[3].num_links(), 3);
        // All simple & valid (constructor guarantees, spot-check endpoints).
        for p in &paths {
            assert_eq!(p.source(), ids[0]);
            assert_eq!(p.destination(), ids[3]);
        }
    }

    #[test]
    fn yen_k_zero_and_disconnected() {
        let (g, ids) = diamond();
        assert!(yen_k_shortest(&g, ids[0], ids[3], 0).unwrap().is_empty());
        let mut g2 = Graph::new();
        let a = g2.add_node("a");
        let b = g2.add_node("b");
        assert!(yen_k_shortest(&g2, a, b, 3).unwrap().is_empty());
    }

    #[test]
    fn yen_more_than_available_paths() {
        let (g, ids) = diamond();
        let paths = yen_k_shortest(&g, ids[0], ids[3], 100).unwrap();
        assert_eq!(paths.len(), 4);
    }
}
