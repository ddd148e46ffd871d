use serde::{Deserialize, Serialize};

use crate::{Graph, GraphError, LinkId, NodeId};

/// A simple path in a [`Graph`]: an alternating, validated sequence of
/// nodes and links with no repeated nodes.
///
/// Paths are the measurement unit of network tomography: monitors send
/// probes along paths, and a path's metric is the sum of its links'
/// metrics (Section II of the paper).
///
/// ```
/// use tomo_graph::{Graph, Path};
///
/// # fn main() -> Result<(), tomo_graph::GraphError> {
/// let mut g = Graph::new();
/// let a = g.add_node("a");
/// let b = g.add_node("b");
/// let c = g.add_node("c");
/// g.add_link(a, b)?;
/// g.add_link(b, c)?;
/// let p = Path::from_nodes(&g, &[a, b, c])?;
/// assert_eq!(p.num_links(), 2);
/// assert_eq!(p.source(), a);
/// assert_eq!(p.destination(), c);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Path {
    nodes: Vec<NodeId>,
    links: Vec<LinkId>,
}

impl Path {
    /// Builds a path from a node sequence, resolving each consecutive pair
    /// to the connecting link.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::InvalidPath`] if the sequence has fewer than
    /// two nodes, repeats a node, or two consecutive nodes are not
    /// adjacent; [`GraphError::UnknownNode`] if a node is missing.
    pub fn from_nodes(graph: &Graph, nodes: &[NodeId]) -> Result<Self, GraphError> {
        if nodes.len() < 2 {
            return Err(GraphError::InvalidPath {
                reason: format!("a path needs at least 2 nodes, got {}", nodes.len()),
            });
        }
        for &n in nodes {
            // Trigger UnknownNode early for nice errors.
            let _ = graph.label(n)?;
        }
        let mut seen = vec![false; graph.num_nodes()];
        for &n in nodes {
            if seen[n.index()] {
                return Err(GraphError::InvalidPath {
                    reason: format!("node {n} repeats; paths must be simple"),
                });
            }
            seen[n.index()] = true;
        }
        let mut links = Vec::with_capacity(nodes.len() - 1);
        for w in nodes.windows(2) {
            match graph.link_between(w[0], w[1]) {
                Some(l) => links.push(l),
                None => {
                    return Err(GraphError::InvalidPath {
                        reason: format!("nodes {} and {} are not adjacent", w[0], w[1]),
                    })
                }
            }
        }
        Ok(Path {
            nodes: nodes.to_vec(),
            links,
        })
    }

    /// Assembles a path whose node and link sequences the caller already
    /// knows to be a simple, adjacent walk (the path searches, which build
    /// them from a search tree).
    pub(crate) fn from_parts(nodes: Vec<NodeId>, links: Vec<LinkId>) -> Self {
        debug_assert!(nodes.len() >= 2 && links.len() + 1 == nodes.len());
        Path { nodes, links }
    }

    /// Node sequence, source first.
    #[must_use]
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// Link sequence in traversal order.
    #[must_use]
    pub fn links(&self) -> &[LinkId] {
        &self.links
    }

    /// First node.
    #[must_use]
    pub fn source(&self) -> NodeId {
        self.nodes[0]
    }

    /// Last node.
    #[must_use]
    pub fn destination(&self) -> NodeId {
        *self.nodes.last().expect("paths have ≥ 2 nodes")
    }

    /// Number of links (hops).
    #[must_use]
    pub fn num_links(&self) -> usize {
        self.links.len()
    }

    /// Returns `true` if the path traverses `link`.
    #[must_use]
    pub fn contains_link(&self, link: LinkId) -> bool {
        self.links.contains(&link)
    }

    /// Returns `true` if the path visits `node` (including endpoints).
    #[must_use]
    pub fn contains_node(&self, node: NodeId) -> bool {
        self.nodes.contains(&node)
    }

    /// Returns `true` if the path visits any node of `nodes`.
    #[must_use]
    pub fn contains_any_node(&self, nodes: &[NodeId]) -> bool {
        nodes.iter().any(|n| self.contains_node(*n))
    }

    /// Returns `true` if the path traverses any link of `links`.
    #[must_use]
    pub fn contains_any_link(&self, links: &[LinkId]) -> bool {
        links.iter().any(|l| self.contains_link(*l))
    }

    /// Human-readable rendering using graph labels, e.g. `"M1-A-C-D-M2"`.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::UnknownNode`] if the path does not belong to
    /// `graph`.
    pub fn display_with(&self, graph: &Graph) -> Result<String, GraphError> {
        let mut parts = Vec::with_capacity(self.nodes.len());
        for &n in &self.nodes {
            parts.push(graph.label(n)?.to_string());
        }
        Ok(parts.join("-"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn square() -> (Graph, Vec<NodeId>) {
        // a - b
        // |   |
        // d - c
        let mut g = Graph::new();
        let ids: Vec<NodeId> = ["a", "b", "c", "d"]
            .iter()
            .map(|l| g.add_node(*l))
            .collect();
        g.add_link(ids[0], ids[1]).unwrap();
        g.add_link(ids[1], ids[2]).unwrap();
        g.add_link(ids[2], ids[3]).unwrap();
        g.add_link(ids[3], ids[0]).unwrap();
        (g, ids)
    }

    #[test]
    fn valid_path_resolves_links() {
        let (g, ids) = square();
        let p = Path::from_nodes(&g, &[ids[0], ids[1], ids[2]]).unwrap();
        assert_eq!(p.num_links(), 2);
        assert_eq!(p.source(), ids[0]);
        assert_eq!(p.destination(), ids[2]);
        assert_eq!(p.links(), &[LinkId(0), LinkId(1)]);
        assert!(p.contains_node(ids[1]));
        assert!(!p.contains_node(ids[3]));
        assert!(p.contains_link(LinkId(0)));
        assert!(!p.contains_link(LinkId(2)));
        assert_eq!(p.display_with(&g).unwrap(), "a-b-c");
    }

    #[test]
    fn any_node_any_link() {
        let (g, ids) = square();
        let p = Path::from_nodes(&g, &[ids[0], ids[1]]).unwrap();
        assert!(p.contains_any_node(&[ids[3], ids[1]]));
        assert!(!p.contains_any_node(&[ids[2], ids[3]]));
        assert!(p.contains_any_link(&[LinkId(0), LinkId(3)]));
        assert!(!p.contains_any_link(&[LinkId(1), LinkId(2)]));
        assert!(!p.contains_any_node(&[]));
    }

    #[test]
    fn rejects_too_short() {
        let (g, ids) = square();
        assert!(Path::from_nodes(&g, &[ids[0]]).is_err());
        assert!(Path::from_nodes(&g, &[]).is_err());
    }

    #[test]
    fn rejects_nonadjacent() {
        let (g, ids) = square();
        let err = Path::from_nodes(&g, &[ids[0], ids[2]]).unwrap_err();
        assert!(matches!(err, GraphError::InvalidPath { .. }));
    }

    #[test]
    fn rejects_repeated_node() {
        let (g, ids) = square();
        let err = Path::from_nodes(&g, &[ids[0], ids[1], ids[2], ids[3], ids[0]]).unwrap_err();
        assert!(matches!(err, GraphError::InvalidPath { .. }));
    }

    #[test]
    fn rejects_unknown_node() {
        let (g, ids) = square();
        assert!(Path::from_nodes(&g, &[ids[0], NodeId(99)]).is_err());
    }

    #[test]
    fn serde_roundtrip() {
        let (g, ids) = square();
        let p = Path::from_nodes(&g, &[ids[0], ids[1], ids[2]]).unwrap();
        let json = serde_json::to_string(&p).unwrap();
        let back: Path = serde_json::from_str(&json).unwrap();
        assert_eq!(p, back);
    }
}
