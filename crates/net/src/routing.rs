//! Routing: computing each receiver's data-path from its session sender.
//!
//! The paper assumes "the network employs a routing algorithm, such that for
//! each receiver `r_{i,k} ∈ S_i`, there is a sequence of links
//! `(l_{j1}, ..., l_{js})` that carries data from `X_i` to `r_{i,k}`"
//! (Section 2). The concrete algorithm is immaterial to the theory; what
//! matters is the *set* of links on each receiver's data-path. We provide:
//!
//! * hop-count shortest-path routing ([`shortest_path`]) with deterministic
//!   tie-breaking (lowest link id wins), which on the paper's tree-shaped
//!   example topologies recovers the unique route; and
//! * validation of explicitly supplied routes ([`validate_route`]) for
//!   networks where a non-shortest route is wanted.

use crate::error::{NetError, NetResult, RouteDefect};
use crate::graph::Graph;
use crate::ids::{LinkId, NodeId, ReceiverId};
use std::collections::VecDeque;

/// A receiver's data-path: the ordered sequence of links from the session
/// sender to the receiver. The *set* of these links is what the fairness
/// definitions consume (`R_{i,j}` membership); order matters only for
/// packet-level simulation.
// mlf-lint: allow(unused-pub, reason = "returned by the public shortest_path and Network::routes; re-exported by pub use routing::Route")
pub type Route = Vec<LinkId>;

/// Compute the hop-count shortest path between two nodes as a sequence of
/// links, or `None` if the nodes are disconnected.
///
/// Ties are broken deterministically: BFS explores neighbors in adjacency
/// (insertion) order, so among equal-hop routes the one using
/// earliest-inserted links is returned. Determinism matters because the whole
/// reproduction pipeline (allocator, simulator, benches) must be re-runnable
/// bit-for-bit.
///
/// If `from == to`, the empty route is returned.
///
/// This convenience wrapper allocates fresh BFS buffers per call; network
/// construction routes every receiver through one reused finder instead.
pub fn shortest_path(graph: &Graph, from: NodeId, to: NodeId) -> Option<Route> {
    PathFinder::new().shortest_path(graph, from, to)
}

/// Reusable BFS scratch for [`shortest_path`]-style queries.
///
/// A `PathFinder` owns the `parent`/`seen`/queue buffers one BFS needs, so
/// routing every receiver of a topology (or a whole sweep of topologies)
/// performs no per-query allocation beyond the returned [`Route`] itself —
/// visible at sweep scale on transit–stub builds, where `Network`
/// construction routes hundreds of receivers back to back.
///
/// Results are identical to the free [`shortest_path`] function: the
/// buffers are scratch, not state (`seen` gates every `parent` read, so
/// stale entries from earlier queries are never observed).
#[derive(Debug, Default, Clone)]
pub(crate) struct PathFinder {
    /// parent[v] = (previous node, link used to reach v)
    parent: Vec<Option<(NodeId, LinkId)>>,
    seen: Vec<bool>,
    queue: VecDeque<NodeId>,
}

impl PathFinder {
    /// A finder with empty scratch (grown on first use).
    pub(crate) fn new() -> Self {
        PathFinder::default()
    }

    /// [`shortest_path`] against this finder's reusable scratch.
    pub(crate) fn shortest_path(
        &mut self,
        graph: &Graph,
        from: NodeId,
        to: NodeId,
    ) -> Option<Route> {
        if from == to {
            return Some(Vec::new());
        }
        if !graph.contains_node(from) || !graph.contains_node(to) {
            return None;
        }
        let n = graph.node_count();
        self.parent.clear();
        self.parent.resize(n, None);
        self.seen.clear();
        self.seen.resize(n, false);
        self.queue.clear();
        self.seen[from.0] = true;
        self.queue.push_back(from);
        while let Some(u) = self.queue.pop_front() {
            for (v, l) in graph.neighbors(u) {
                if !self.seen[v.0] {
                    self.seen[v.0] = true;
                    self.parent[v.0] = Some((u, l));
                    if v == to {
                        self.queue.clear();
                        break;
                    }
                    self.queue.push_back(v);
                }
            }
        }
        if !self.seen[to.0] {
            return None;
        }
        let mut route = Vec::new();
        let mut cur = to;
        while cur != from {
            // `seen[to]` implies a complete parent chain back to `from`; a
            // broken chain degrades to "no route" rather than panicking.
            let (prev, link) = self.parent[cur.0]?;
            route.push(link);
            cur = prev;
        }
        route.reverse();
        Some(route)
    }
}

/// Validate that `route` is a simple path from `from` to `to` in `graph`.
///
/// A valid route:
/// * starts at `from` and ends at `to`,
/// * uses consecutive links that share endpoints,
/// * never repeats a link (the model's data-paths are link *sets*).
///
/// The empty route is valid exactly when `from == to` (a receiver co-located
/// with its sender — allowed for members of *different* sessions sharing a
/// node, and degenerate-but-harmless otherwise).
pub fn validate_route(
    graph: &Graph,
    from: NodeId,
    to: NodeId,
    route: &[LinkId],
    receiver: ReceiverId,
) -> NetResult<()> {
    let defect = |reason| NetError::InvalidRoute { receiver, reason };
    if route.is_empty() {
        return if from == to {
            Ok(())
        } else {
            Err(defect(RouteDefect::Empty))
        };
    }
    // Repeat detection: routes are almost always a handful of links, so a
    // backward scan beats allocating a links-wide bitvec per call — at
    // bench scale (10⁵ receivers × 10⁵ links) the bitvec zeroing alone
    // cost seconds of network construction. Long routes fall back to it.
    let mut used = if route.len() > 64 {
        vec![false; graph.link_count()]
    } else {
        Vec::new()
    };
    let mut cur = from;
    for (i, &lid) in route.iter().enumerate() {
        if !graph.contains_link(lid) {
            return Err(NetError::UnknownLink(lid));
        }
        let repeated = if used.is_empty() {
            route[..i].contains(&lid)
        } else {
            std::mem::replace(&mut used[lid.0], true)
        };
        if repeated {
            return Err(defect(RouteDefect::RepeatedLink));
        }
        let link = graph.link(lid);
        match link.opposite(cur) {
            Some(next) => cur = next,
            None => {
                return Err(defect(if i == 0 {
                    RouteDefect::WrongStart
                } else {
                    RouteDefect::Disconnected
                }));
            }
        }
    }
    if cur != to {
        return Err(defect(RouteDefect::WrongEnd));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 0 -l0- 1 -l1- 2
    ///  \------l2----/   (direct shortcut)
    fn triangle() -> (Graph, Vec<NodeId>, Vec<LinkId>) {
        let mut g = Graph::new();
        let n = g.add_nodes(3);
        let l0 = g.add_link(n[0], n[1], 1.0).unwrap();
        let l1 = g.add_link(n[1], n[2], 1.0).unwrap();
        let l2 = g.add_link(n[0], n[2], 1.0).unwrap();
        (g, n, vec![l0, l1, l2])
    }

    #[test]
    fn shortest_path_prefers_fewer_hops() {
        let (g, n, l) = triangle();
        assert_eq!(shortest_path(&g, n[0], n[2]), Some(vec![l[2]]));
        assert_eq!(shortest_path(&g, n[0], n[1]), Some(vec![l[0]]));
    }

    #[test]
    fn shortest_path_self_is_empty() {
        let (g, n, _) = triangle();
        assert_eq!(shortest_path(&g, n[1], n[1]), Some(vec![]));
    }

    #[test]
    fn shortest_path_disconnected_is_none() {
        let mut g = Graph::new();
        let a = g.add_node();
        let b = g.add_node();
        assert_eq!(shortest_path(&g, a, b), None);
    }

    #[test]
    fn shortest_path_is_deterministic_on_ties() {
        // Two parallel 2-hop routes; BFS must pick the one through the
        // earlier-inserted middle node every time.
        let mut g = Graph::new();
        let n = g.add_nodes(4); // 0 -> {1,2} -> 3
        let l01 = g.add_link(n[0], n[1], 1.0).unwrap();
        let _l02 = g.add_link(n[0], n[2], 1.0).unwrap();
        let l13 = g.add_link(n[1], n[3], 1.0).unwrap();
        let _l23 = g.add_link(n[2], n[3], 1.0).unwrap();
        for _ in 0..10 {
            assert_eq!(shortest_path(&g, n[0], n[3]), Some(vec![l01, l13]));
        }
    }

    #[test]
    fn pathfinder_reuse_matches_fresh_queries() {
        // A reused finder must answer exactly like per-call allocation —
        // including queries that leave stale parent entries behind.
        let (g, n, _) = triangle();
        let mut finder = PathFinder::new();
        for _ in 0..3 {
            for &from in &n {
                for &to in &n {
                    assert_eq!(
                        finder.shortest_path(&g, from, to),
                        shortest_path(&g, from, to),
                        "{from:?} -> {to:?}"
                    );
                }
            }
        }
        // Shrinking graphs must not read out-of-date scratch sized for a
        // bigger one.
        let mut small = Graph::new();
        let a = small.add_node();
        let b = small.add_node();
        let l = small.add_link(a, b, 1.0).unwrap();
        assert_eq!(finder.shortest_path(&small, a, b), Some(vec![l]));
        // Disconnected pair after the finder has seen other graphs.
        let mut disc = Graph::new();
        let x = disc.add_node();
        let y = disc.add_node();
        assert_eq!(finder.shortest_path(&disc, x, y), None);
    }

    #[test]
    fn validate_route_accepts_good_routes() {
        let (g, n, l) = triangle();
        let r = ReceiverId::new(0, 0);
        validate_route(&g, n[0], n[2], &[l[0], l[1]], r).unwrap();
        validate_route(&g, n[0], n[2], &[l[2]], r).unwrap();
        validate_route(&g, n[0], n[0], &[], r).unwrap();
    }

    #[test]
    fn validate_route_rejects_each_defect() {
        let (g, n, l) = triangle();
        let r = ReceiverId::new(0, 0);
        // Empty but endpoints differ.
        assert!(matches!(
            validate_route(&g, n[0], n[2], &[], r),
            Err(NetError::InvalidRoute {
                reason: RouteDefect::Empty,
                ..
            })
        ));
        // Starts at the wrong node.
        assert!(matches!(
            validate_route(&g, n[0], n[2], &[l[1]], r),
            Err(NetError::InvalidRoute {
                reason: RouteDefect::WrongStart,
                ..
            })
        ));
        // Ends at the wrong node.
        assert!(matches!(
            validate_route(&g, n[0], n[1], &[l[0], l[1]], r),
            Err(NetError::InvalidRoute {
                reason: RouteDefect::WrongEnd,
                ..
            })
        ));
        // Disconnected middle.
        let mut g2 = Graph::new();
        let m = g2.add_nodes(4);
        let a = g2.add_link(m[0], m[1], 1.0).unwrap();
        let b = g2.add_link(m[2], m[3], 1.0).unwrap();
        assert!(matches!(
            validate_route(&g2, m[0], m[3], &[a, b], r),
            Err(NetError::InvalidRoute {
                reason: RouteDefect::Disconnected,
                ..
            })
        ));
        // Repeated link (0 -> 1 -> 0 is a repeat, not a walk we allow).
        assert!(matches!(
            validate_route(&g, n[0], n[0], &[l[0], l[0]], r),
            Err(NetError::InvalidRoute {
                reason: RouteDefect::RepeatedLink,
                ..
            })
        ));
        // Unknown link id.
        assert!(matches!(
            validate_route(&g, n[0], n[2], &[LinkId(99)], r),
            Err(NetError::UnknownLink(_))
        ));
    }
}
