//! A small unit-capacity max-flow solver (Dinic's algorithm).
//!
//! Menger's theorem turns disjoint-path and cut questions into max-flow:
//! the number of edge-disjoint `s→t` paths equals the min edge cut, and
//! with vertex splitting the same holds for internally vertex-disjoint
//! paths. The connectivity module uses this to answer *feasibility*
//! questions for fault tolerant spanners (e.g. "can any subgraph survive
//! `f` vertex faults between `s` and `t` at all?") exactly — unlike the
//! greedy packing in `spanner-faults`, which is only a bound under a
//! length constraint.

use std::collections::VecDeque;

#[derive(Clone, Debug)]
struct Arc {
    to: u32,
    cap: u32,
    rev: u32,
}

/// A directed flow network with integer capacities.
///
/// # Examples
///
/// ```
/// use spanner_graph::flow::FlowNetwork;
///
/// // Two disjoint routes from 0 to 3.
/// let mut net = FlowNetwork::new(4);
/// net.add_arc(0, 1, 1);
/// net.add_arc(1, 3, 1);
/// net.add_arc(0, 2, 1);
/// net.add_arc(2, 3, 1);
/// assert_eq!(net.max_flow(0, 3, u32::MAX), 2);
/// ```
#[derive(Clone, Debug, Default)]
pub struct FlowNetwork {
    adj: Vec<Vec<Arc>>,
    level: Vec<i32>,
    iter: Vec<usize>,
    queue: VecDeque<usize>,
}

impl FlowNetwork {
    /// An empty network on `n` nodes.
    pub fn new(n: usize) -> Self {
        FlowNetwork {
            adj: vec![Vec::new(); n],
            level: vec![-1; n],
            iter: vec![0; n],
            queue: VecDeque::new(),
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.adj.len()
    }

    /// Adds a directed arc `from → to` with capacity `cap` (and its
    /// zero-capacity reverse arc).
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of range.
    pub fn add_arc(&mut self, from: usize, to: usize, cap: u32) {
        assert!(
            from < self.adj.len() && to < self.adj.len(),
            "arc endpoint out of range"
        );
        let rev_from = self.adj[to].len() as u32;
        let rev_to = self.adj[from].len() as u32;
        self.adj[from].push(Arc {
            to: to as u32,
            cap,
            rev: rev_from,
        });
        self.adj[to].push(Arc {
            to: from as u32,
            cap: 0,
            rev: rev_to,
        });
    }

    /// Adds an undirected unit edge: capacity 1 in both directions.
    pub fn add_undirected_unit(&mut self, u: usize, v: usize) {
        self.add_arc(u, v, 1);
        self.add_arc(v, u, 1);
    }

    fn bfs(&mut self, s: usize, t: usize) -> bool {
        self.level.fill(-1);
        self.queue.clear();
        self.level[s] = 0;
        self.queue.push_back(s);
        while let Some(v) = self.queue.pop_front() {
            for arc in &self.adj[v] {
                if arc.cap > 0 && self.level[arc.to as usize] < 0 {
                    self.level[arc.to as usize] = self.level[v] + 1;
                    self.queue.push_back(arc.to as usize);
                }
            }
        }
        self.level[t] >= 0
    }

    fn dfs(&mut self, v: usize, t: usize, pushed: u32) -> u32 {
        if v == t {
            return pushed;
        }
        while self.iter[v] < self.adj[v].len() {
            let i = self.iter[v];
            let (to, cap, rev) = {
                let arc = &self.adj[v][i];
                (arc.to as usize, arc.cap, arc.rev as usize)
            };
            if cap > 0 && self.level[to] == self.level[v] + 1 {
                let got = self.dfs(to, t, pushed.min(cap));
                if got > 0 {
                    self.adj[v][i].cap -= got;
                    self.adj[to][rev].cap += got;
                    return got;
                }
            }
            self.iter[v] += 1;
        }
        0
    }

    /// After [`FlowNetwork::max_flow`] has run (without hitting its
    /// limit), returns the source side of a minimum cut: the set of nodes
    /// reachable from `s` in the residual network.
    pub fn min_cut_side(&self, s: usize) -> Vec<bool> {
        let mut reachable = vec![false; self.adj.len()];
        let mut queue = VecDeque::new();
        reachable[s] = true;
        queue.push_back(s);
        while let Some(v) = queue.pop_front() {
            for arc in &self.adj[v] {
                if arc.cap > 0 && !reachable[arc.to as usize] {
                    reachable[arc.to as usize] = true;
                    queue.push_back(arc.to as usize);
                }
            }
        }
        reachable
    }

    /// Computes the max `s→t` flow, stopping early once `limit` is
    /// reached (pass `u32::MAX` for the true maximum). Destroys the
    /// network's capacities (clone first to reuse).
    ///
    /// # Panics
    ///
    /// Panics if `s` or `t` is out of range or `s == t`.
    pub fn max_flow(&mut self, s: usize, t: usize, limit: u32) -> u32 {
        assert!(
            s < self.adj.len() && t < self.adj.len(),
            "terminal out of range"
        );
        assert_ne!(s, t, "source equals sink");
        let mut flow = 0;
        while flow < limit && self.bfs(s, t) {
            self.iter.fill(0);
            loop {
                let pushed = self.dfs(s, t, limit - flow);
                if pushed == 0 {
                    break;
                }
                flow += pushed;
                if flow >= limit {
                    break;
                }
            }
        }
        flow
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_parallel_flows() {
        // 0 -> 1 -> 3 and 0 -> 2 -> 3, then a crossing arc 1 -> 2.
        let mut net = FlowNetwork::new(4);
        net.add_arc(0, 1, 2);
        net.add_arc(1, 3, 1);
        net.add_arc(0, 2, 1);
        net.add_arc(2, 3, 2);
        net.add_arc(1, 2, 1);
        assert_eq!(net.max_flow(0, 3, u32::MAX), 3);
    }

    #[test]
    fn bottleneck_respected() {
        let mut net = FlowNetwork::new(3);
        net.add_arc(0, 1, 10);
        net.add_arc(1, 2, 4);
        assert_eq!(net.max_flow(0, 2, u32::MAX), 4);
    }

    #[test]
    fn limit_stops_early() {
        let mut net = FlowNetwork::new(2);
        net.add_arc(0, 1, 100);
        assert_eq!(net.max_flow(0, 1, 7), 7);
    }

    #[test]
    fn disconnected_flow_is_zero() {
        let mut net = FlowNetwork::new(4);
        net.add_arc(0, 1, 5);
        net.add_arc(2, 3, 5);
        assert_eq!(net.max_flow(0, 3, u32::MAX), 0);
    }

    #[test]
    fn undirected_unit_edges_count_both_ways() {
        // A path 0 - 1 - 2 of undirected unit edges has one unit of flow.
        let mut net = FlowNetwork::new(3);
        net.add_undirected_unit(0, 1);
        net.add_undirected_unit(1, 2);
        assert_eq!(net.clone().max_flow(0, 2, u32::MAX), 1);
        // And flow can also run the other way.
        assert_eq!(net.max_flow(2, 0, u32::MAX), 1);
    }

    #[test]
    fn classic_worked_example() {
        // CLRS-style network with known max flow 23.
        let mut net = FlowNetwork::new(6);
        net.add_arc(0, 1, 16);
        net.add_arc(0, 2, 13);
        net.add_arc(1, 2, 10);
        net.add_arc(2, 1, 4);
        net.add_arc(1, 3, 12);
        net.add_arc(3, 2, 9);
        net.add_arc(2, 4, 14);
        net.add_arc(4, 3, 7);
        net.add_arc(3, 5, 20);
        net.add_arc(4, 5, 4);
        assert_eq!(net.max_flow(0, 5, u32::MAX), 23);
    }

    #[test]
    #[should_panic(expected = "source equals sink")]
    fn same_terminal_rejected() {
        let mut net = FlowNetwork::new(2);
        net.add_arc(0, 1, 1);
        let _ = net.max_flow(0, 0, 1);
    }

    #[test]
    fn min_cut_side_separates_terminals() {
        let mut net = FlowNetwork::new(4);
        net.add_arc(0, 1, 1);
        net.add_arc(1, 2, 1);
        net.add_arc(2, 3, 5);
        let flow = net.max_flow(0, 3, u32::MAX);
        assert_eq!(flow, 1);
        let side = net.min_cut_side(0);
        assert!(side[0]);
        assert!(!side[3]);
        // Exactly one saturated arc crosses the cut.
        let crossing = [(0usize, 1usize), (1, 2), (2, 3)]
            .iter()
            .filter(|(a, b)| side[*a] && !side[*b])
            .count();
        assert_eq!(crossing, 1);
    }
}
