//! Minimum spanning trees over closures (ACE phase 2).
//!
//! The paper builds a Prim MST over the source's h-neighbor closure and
//! forwards queries only to the source's direct tree neighbors. Both
//! drivers — the round engine and the message-level simulator — run
//! one MST: the dense slot-space Prim of
//! [`PrimScratch::root_tree_neighbors`]. The peer-id forms kept under
//! `#[cfg(test)]` (the paper's dense `O(m²)` Prim, a binary-heap Prim
//! and Kruskal) are reference oracles for the property tests only.

use ace_overlay::PeerId;
use ace_topology::Delay;

/// A closure edge in dense slot space: both endpoints are indices into
/// the closure's `members` vector. The round-plan hot path works in slot
/// space so no per-peer `HashMap<PeerId, usize>` index is ever built.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SlotEdge {
    /// Slot of one endpoint.
    pub a: u32,
    /// Slot of the other endpoint.
    pub b: u32,
    /// Probed cost of the logical link.
    pub cost: Delay,
}

/// Reusable state for the slot-space Prim. One instance lives in each
/// worker's `PlanScratch`; arenas are cleared (keeping capacity)
/// between peers instead of reallocated.
///
/// Closures are small (a dozen to a few dozen members), so the MST
/// uses a *dense* Prim — per-slot best-candidate arrays and an
/// `O(members)` argmin scan per step — instead of a binary heap: at
/// this size the heap's allocation-free push/pop traffic still costs
/// several times the flat scans, and the plan stage runs one MST per
/// planning peer per round.
#[derive(Clone, Debug, Default)]
pub struct PrimScratch {
    adj: Vec<Vec<(u32, Delay)>>,
    /// Cheapest known connecting edge per slot: cost and tree-side
    /// endpoint, lexicographically minimal as `(cost, from)` —
    /// [`NO_EDGE`] `from` means none seen yet.
    best_cost: Vec<Delay>,
    best_from: Vec<u32>,
    in_tree: Vec<bool>,
}

/// `best_from` sentinel: no candidate edge reaches the slot yet.
const NO_EDGE: u32 = u32::MAX;

impl PrimScratch {
    /// Dense Prim from slot `root` over `members`/`edges`, appending
    /// (sorted) the members adjacent to the root in the resulting tree.
    /// Ties break by `(cost, raw peer id, slot, from)`: the order a
    /// binary-heap Prim pops its `(cost, raw, slot, from)` entries in,
    /// which the heap-Prim reference oracle in this module's tests
    /// pins. Keeping only the per-slot `(cost, from)`-minimal
    /// candidate and scanning for the least key selects the identical
    /// sequence, because `raw` and `slot` are constants of the slot.
    ///
    /// # Panics
    ///
    /// Panics if an edge slot is out of `members`' range.
    pub fn root_tree_neighbors(
        &mut self,
        members: &[PeerId],
        edges: &[SlotEdge],
        root: u32,
        out: &mut Vec<PeerId>,
    ) {
        let n = members.len();
        for a in self.adj.iter_mut().take(n) {
            a.clear();
        }
        if self.adj.len() < n {
            self.adj.resize_with(n, Vec::new);
        }
        self.in_tree.clear();
        self.in_tree.resize(n, false);
        self.best_cost.clear();
        self.best_cost.resize(n, Delay::MAX);
        self.best_from.clear();
        self.best_from.resize(n, NO_EDGE);
        for e in edges {
            let (i, j) = (e.a as usize, e.b as usize);
            assert!(i < n && j < n, "edge slot out of range");
            self.adj[i].push((e.b, e.cost));
            self.adj[j].push((e.a, e.cost));
        }
        let Self {
            adj,
            best_cost,
            best_from,
            in_tree,
        } = self;
        in_tree[root as usize] = true;
        for &(j, c) in &adj[root as usize] {
            let j = j as usize;
            if (c, root) < (best_cost[j], best_from[j]) {
                best_cost[j] = c;
                best_from[j] = root;
            }
        }
        let start = out.len();
        loop {
            let mut pick: Option<(Delay, u32, u32, u32)> = None;
            for j in 0..n {
                if in_tree[j] || best_from[j] == NO_EDGE {
                    continue;
                }
                let key = (best_cost[j], members[j].raw(), j as u32, best_from[j]);
                if pick.is_none_or(|p| key < p) {
                    pick = Some(key);
                }
            }
            let Some((_, _, j, from)) = pick else { break };
            in_tree[j as usize] = true;
            if from == root {
                out.push(members[j as usize]);
            }
            for &(k, c) in &adj[j as usize] {
                let k = k as usize;
                if !in_tree[k] && (c, j) < (best_cost[k], best_from[k]) {
                    best_cost[k] = c;
                    best_from[k] = j;
                }
            }
        }
        out[start..].sort_unstable();
    }
}

/// Peer-id MST reference oracles: closure edges keyed by peer, the
/// paper's dense Prim, a heap Prim and Kruskal. Test-only — production
/// trees come from [`PrimScratch`].
#[cfg(test)]
pub(crate) mod reference {
    use std::collections::HashMap;

    use super::*;

    /// An edge of a closure subgraph with its probed cost.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub(crate) struct ClosureEdge {
        /// One endpoint.
        pub(crate) a: PeerId,
        /// The other endpoint.
        pub(crate) b: PeerId,
        /// Probed cost of the logical link.
        pub(crate) cost: Delay,
    }

    /// A spanning tree of (the connected part of) a closure subgraph.
    #[derive(Clone, Debug, Default)]
    pub(crate) struct SpanningTree {
        edges: Vec<ClosureEdge>,
    }

    impl SpanningTree {
        /// The tree edges.
        pub(crate) fn edges(&self) -> &[ClosureEdge] {
            &self.edges
        }

        /// Total tree weight.
        pub(crate) fn weight(&self) -> u64 {
            self.edges.iter().map(|e| u64::from(e.cost)).sum()
        }

        /// Peers adjacent to `peer` in the tree — for the source, these are
        /// its ACE *flooding neighbors*.
        pub(crate) fn tree_neighbors(&self, peer: PeerId) -> Vec<PeerId> {
            let mut out = Vec::new();
            for e in &self.edges {
                if e.a == peer {
                    out.push(e.b);
                } else if e.b == peer {
                    out.push(e.a);
                }
            }
            out.sort_unstable();
            out
        }

        /// Number of edges.
        pub(crate) fn len(&self) -> usize {
            self.edges.len()
        }

        /// True for a trivial (single-node) tree.
        pub(crate) fn is_empty(&self) -> bool {
            self.edges.is_empty()
        }

        /// True if the tree contains the undirected edge `a-b`.
        pub(crate) fn contains_edge(&self, a: PeerId, b: PeerId) -> bool {
            self.edges
                .iter()
                .any(|e| (e.a == a && e.b == b) || (e.a == b && e.b == a))
        }
    }

    /// Prim's algorithm from `root` over `members`/`edges`, in the paper's
    /// dense `O(m²)` formulation (`m` = closure size; closures are small —
    /// a peer and its neighborhood — so the simple form is also the fast one).
    ///
    /// Only the component reachable from `root` is spanned; ties are broken
    /// toward lower peer ids so trees are deterministic.
    ///
    /// # Panics
    ///
    /// Panics if `root` is not in `members` or an edge endpoint is unknown.
    pub(crate) fn prim(root: PeerId, members: &[PeerId], edges: &[ClosureEdge]) -> SpanningTree {
        let index: HashMap<PeerId, usize> = members
            .iter()
            .copied()
            .enumerate()
            .map(|(i, p)| (p, i))
            .collect();
        assert!(index.contains_key(&root), "root must be a closure member");
        let n = members.len();

        // Adjacency matrix of best edge costs (parallel probes keep the min).
        let mut adj: Vec<Vec<Option<Delay>>> = vec![vec![None; n]; n];
        for e in edges {
            let (i, j) = (
                *index.get(&e.a).expect("edge endpoint in members"),
                *index.get(&e.b).expect("edge endpoint in members"),
            );
            let slot = &mut adj[i][j];
            *slot = Some(slot.map_or(e.cost, |c| c.min(e.cost)));
            adj[j][i] = adj[i][j];
        }

        let mut in_tree = vec![false; n];
        let mut best: Vec<Option<(Delay, usize)>> = vec![None; n]; // (cost, tree endpoint)
        let root_i = index[&root];
        in_tree[root_i] = true;
        for j in 0..n {
            if let Some(c) = adj[root_i][j] {
                best[j] = Some((c, root_i));
            }
        }

        let mut tree = SpanningTree::default();
        loop {
            // Cheapest fringe vertex; ties toward lower peer id.
            let mut pick: Option<(Delay, PeerId, usize)> = None;
            for j in 0..n {
                if in_tree[j] {
                    continue;
                }
                if let Some((c, _)) = best[j] {
                    let cand = (c, members[j], j);
                    if pick.is_none_or(|(pc, pp, _)| (c, members[j]) < (pc, pp)) {
                        pick = Some(cand);
                    }
                }
            }
            let Some((cost, _, j)) = pick else { break };
            let (_, from) = best[j].expect("picked vertex has a best edge");
            in_tree[j] = true;
            tree.edges.push(ClosureEdge {
                a: members[from],
                b: members[j],
                cost,
            });
            for k in 0..n {
                if in_tree[k] {
                    continue;
                }
                if let Some(c) = adj[j][k] {
                    if best[k].is_none_or(|(bc, bi)| (c, members[j]) < (bc, members[bi])) {
                        best[k] = Some((c, j));
                    }
                }
            }
        }
        tree
    }

    /// Heap-based Prim — same tree semantics as [`prim`] but `O(E log V)`;
    /// its pop order is the tie-breaking [`PrimScratch`] reproduces.
    ///
    /// The resulting tree weight always equals [`prim`]'s; the edge set may
    /// differ between the two only when distinct equal-weight trees exist.
    ///
    /// # Panics
    ///
    /// Panics if `root` is not in `members` or an edge endpoint is unknown.
    pub(crate) fn prim_heap(
        root: PeerId,
        members: &[PeerId],
        edges: &[ClosureEdge],
    ) -> SpanningTree {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;

        let index: HashMap<PeerId, usize> = members
            .iter()
            .copied()
            .enumerate()
            .map(|(i, p)| (p, i))
            .collect();
        assert!(index.contains_key(&root), "root must be a closure member");
        let n = members.len();
        let mut adj: Vec<Vec<(usize, Delay)>> = vec![Vec::new(); n];
        for e in edges {
            let (i, j) = (
                *index.get(&e.a).expect("edge endpoint in members"),
                *index.get(&e.b).expect("edge endpoint in members"),
            );
            adj[i].push((j, e.cost));
            adj[j].push((i, e.cost));
        }

        let mut in_tree = vec![false; n];
        // (cost, tie-break peer id, vertex, tree endpoint)
        let mut heap: BinaryHeap<Reverse<(Delay, u32, usize, usize)>> = BinaryHeap::new();
        let root_i = index[&root];
        in_tree[root_i] = true;
        for &(j, c) in &adj[root_i] {
            heap.push(Reverse((c, members[j].raw(), j, root_i)));
        }
        let mut tree = SpanningTree::default();
        while let Some(Reverse((cost, _, j, from))) = heap.pop() {
            if in_tree[j] {
                continue;
            }
            in_tree[j] = true;
            tree.edges.push(ClosureEdge {
                a: members[from],
                b: members[j],
                cost,
            });
            for &(k, c) in &adj[j] {
                if !in_tree[k] {
                    heap.push(Reverse((c, members[k].raw(), k, j)));
                }
            }
        }
        tree
    }

    /// Kruskal's algorithm over the same input — an independent MST weight
    /// cross-check (spans every component, so compare weights only when
    /// the subgraph is connected).
    pub(crate) fn kruskal(members: &[PeerId], edges: &[ClosureEdge]) -> SpanningTree {
        let index: HashMap<PeerId, usize> = members
            .iter()
            .copied()
            .enumerate()
            .map(|(i, p)| (p, i))
            .collect();
        let mut sorted: Vec<&ClosureEdge> = edges.iter().collect();
        sorted.sort_by_key(|e| (e.cost, e.a, e.b));

        // Union-find.
        let mut parent: Vec<usize> = (0..members.len()).collect();
        fn find(parent: &mut [usize], mut x: usize) -> usize {
            while parent[x] != x {
                parent[x] = parent[parent[x]];
                x = parent[x];
            }
            x
        }

        let mut tree = SpanningTree::default();
        for e in sorted {
            let (ra, rb) = (
                find(&mut parent, index[&e.a]),
                find(&mut parent, index[&e.b]),
            );
            if ra != rb {
                parent[ra] = rb;
                tree.edges.push(*e);
            }
        }
        tree
    }
}

#[cfg(test)]
mod tests {
    use super::reference::*;
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn p(i: u32) -> PeerId {
        PeerId::new(i)
    }

    fn edge(a: u32, b: u32, cost: Delay) -> ClosureEdge {
        ClosureEdge {
            a: p(a),
            b: p(b),
            cost,
        }
    }

    #[test]
    fn prim_picks_minimum_tree() {
        // Square with one expensive diagonal.
        let members = vec![p(0), p(1), p(2), p(3)];
        let edges = vec![
            edge(0, 1, 1),
            edge(1, 2, 2),
            edge(2, 3, 1),
            edge(0, 3, 5),
            edge(0, 2, 10),
        ];
        let t = prim(p(0), &members, &edges);
        assert_eq!(t.len(), 3);
        assert_eq!(t.weight(), 4);
        assert!(t.contains_edge(p(0), p(1)));
        assert!(!t.contains_edge(p(0), p(2)));
        assert_eq!(t.tree_neighbors(p(0)), vec![p(1)]);
    }

    #[test]
    fn prim_matches_kruskal_weight() {
        let members: Vec<PeerId> = (0..6).map(p).collect();
        let edges = vec![
            edge(0, 1, 7),
            edge(0, 2, 9),
            edge(0, 5, 14),
            edge(1, 2, 10),
            edge(1, 3, 15),
            edge(2, 3, 11),
            edge(2, 5, 2),
            edge(3, 4, 6),
            edge(4, 5, 9),
        ];
        let t1 = prim(p(0), &members, &edges);
        let t2 = kruskal(&members, &edges);
        assert_eq!(t1.weight(), t2.weight());
        assert_eq!(t1.weight(), 33); // classic example
    }

    #[test]
    fn prim_spans_only_reachable_component() {
        let members = vec![p(0), p(1), p(2), p(3)];
        let edges = vec![edge(0, 1, 1), edge(2, 3, 1)];
        let t = prim(p(0), &members, &edges);
        assert_eq!(t.len(), 1);
        assert!(t.contains_edge(p(0), p(1)));
    }

    #[test]
    fn parallel_edges_keep_cheapest() {
        let members = vec![p(0), p(1)];
        let edges = vec![edge(0, 1, 9), edge(0, 1, 3)];
        let t = prim(p(0), &members, &edges);
        assert_eq!(t.weight(), 3);
    }

    #[test]
    fn singleton_tree_is_empty() {
        let t = prim(p(0), &[p(0)], &[]);
        assert!(t.is_empty());
        assert_eq!(t.tree_neighbors(p(0)), vec![]);
    }

    #[test]
    fn deterministic_tie_breaking() {
        // Two equal-cost spanning options: must deterministically pick lower ids.
        let members = vec![p(0), p(1), p(2)];
        let edges = vec![edge(0, 1, 5), edge(0, 2, 5), edge(1, 2, 5)];
        let a = prim(p(0), &members, &edges);
        let b = prim(p(0), &members, &edges);
        assert_eq!(a.edges(), b.edges());
        assert_eq!(a.tree_neighbors(p(0)), vec![p(1), p(2)]);
    }

    #[test]
    #[should_panic(expected = "root must be a closure member")]
    fn prim_rejects_foreign_root() {
        prim(p(9), &[p(0)], &[]);
    }

    #[test]
    fn heap_prim_matches_dense_prim_weight() {
        let members: Vec<PeerId> = (0..6).map(p).collect();
        let edges = vec![
            edge(0, 1, 7),
            edge(0, 2, 9),
            edge(0, 5, 14),
            edge(1, 2, 10),
            edge(1, 3, 15),
            edge(2, 3, 11),
            edge(2, 5, 2),
            edge(3, 4, 6),
            edge(4, 5, 9),
        ];
        let dense = prim(p(0), &members, &edges);
        let heap = prim_heap(p(0), &members, &edges);
        assert_eq!(dense.weight(), heap.weight());
        assert_eq!(dense.len(), heap.len());
    }

    #[test]
    fn heap_prim_spans_only_reachable_component() {
        let members = vec![p(0), p(1), p(2), p(3)];
        let edges = vec![edge(0, 1, 1), edge(2, 3, 1)];
        let t = prim_heap(p(0), &members, &edges);
        assert_eq!(t.len(), 1);
        assert!(t.contains_edge(p(0), p(1)));
    }

    /// Random closure over `n` members whose ids are a shuffled
    /// `0..n` (so peer-id and slot order disagree, as in real
    /// closures): a spanning chain plus `extra` random edges with
    /// costs in `1..max_cost` — small `max_cost` forces ties.
    fn random_closure(
        n: usize,
        extra: usize,
        max_cost: Delay,
        seed: u64,
    ) -> (Vec<PeerId>, Vec<SlotEdge>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut members: Vec<PeerId> = (0..n as u32).map(p).collect();
        for i in (1..n).rev() {
            members.swap(i, rng.gen_range(0..=i));
        }
        let mut edges = Vec::new();
        for i in 1..n as u32 {
            let cost = rng.gen_range(1..max_cost);
            edges.push(SlotEdge {
                a: i - 1,
                b: i,
                cost,
            });
        }
        for _ in 0..extra {
            let (a, b) = (rng.gen_range(0..n as u32), rng.gen_range(0..n as u32));
            if a != b {
                let cost = rng.gen_range(1..max_cost);
                edges.push(SlotEdge { a, b, cost });
            }
        }
        (members, edges)
    }

    fn peer_edges(members: &[PeerId], edges: &[SlotEdge]) -> Vec<ClosureEdge> {
        edges
            .iter()
            .map(|e| ClosureEdge {
                a: members[e.a as usize],
                b: members[e.b as usize],
                cost: e.cost,
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Prim (dense and heap) and Kruskal agree on spanning weight
        /// for random connected closure subgraphs.
        #[test]
        fn mst_algorithms_agree(n in 3usize..24, extra in 0usize..40, seed in any::<u64>()) {
            let (members, slot_edges) = random_closure(n, extra, 100, seed);
            let edges = peer_edges(&members, &slot_edges);
            let dense = prim(members[0], &members, &edges);
            let heap = prim_heap(members[0], &members, &edges);
            let kk = kruskal(&members, &edges);
            prop_assert_eq!(dense.weight(), heap.weight());
            prop_assert_eq!(dense.weight(), kk.weight());
            prop_assert_eq!(dense.len(), n - 1);
        }

        /// The production slot-space Prim returns exactly the heap
        /// oracle's root tree neighbors — tie-breaking included — from
        /// any root slot, with its arenas reused across calls.
        #[test]
        fn slot_prim_matches_heap_prim(
            n in 2usize..24,
            extra in 0usize..40,
            max_cost in 2u32..6,
            seed in any::<u64>(),
        ) {
            let (members, slot_edges) = random_closure(n, extra, max_cost, seed);
            let edges = peer_edges(&members, &slot_edges);
            let mut scratch = PrimScratch::default();
            let mut out = vec![p(999)];
            for root in 0..n as u32 {
                let expect = prim_heap(members[root as usize], &members, &edges)
                    .tree_neighbors(members[root as usize]);
                scratch.root_tree_neighbors(&members, &slot_edges, root, &mut out);
                prop_assert_eq!(&out[1..], &expect[..], "root slot {}", root);
                out.truncate(1);
            }
        }
    }
}
