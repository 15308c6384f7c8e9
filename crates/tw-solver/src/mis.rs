//! Maximum-weight independent set.
//!
//! TraceWeaver casts each optimization batch as MIS: vertices are candidate
//! mappings (weight ∝ likelihood score), edges connect conflicting
//! candidates — two candidates of the same incoming span, or two candidates
//! sharing an outgoing span (§4.1 step 5). The paper solves this with
//! Gurobi; this module solves it exactly with a branch-and-bound that
//! knows the problem's structure:
//!
//! * **Clique groups.** Every span's candidates are pairwise in conflict,
//!   so [`ConflictGraph::with_groups`] takes a group id per vertex and adds
//!   the within-group edges itself. A solution picks at most one vertex
//!   per group.
//! * **Per-group bound.** A node is pruned when its weight so far plus the
//!   heaviest still-available vertex of each group cannot beat the
//!   incumbent. The O(1) sum of all remaining weights is tried first, so
//!   small solves never pay for the O(n) group pass.
//! * **Root decomposition.** Connected components are solved one by one;
//!   a component that is a single clique is answered by its heaviest
//!   vertex without branching.
//!
//! A node budget, shared by a solve's components, keeps worst-case inputs
//! bounded; if it is ever exhausted, the best solution found so far (at
//! least as good as greedy) is returned and flagged as inexact. DESIGN.md
//! §2.1 states which of several equal-weight optima is returned.

use crate::bitset::BitSet;
use std::time::Instant;

/// Default branch-and-bound node budget of one solve, shared by
/// [`SolveOptions::default`] and the core engine's parameters.
pub const DEFAULT_NODE_BUDGET: u64 = 500_000;

/// A vertex-weighted conflict graph whose vertices are partitioned into
/// clique groups.
///
/// # Examples
/// ```
/// use tw_solver::mis::{ConflictGraph, SolveOptions};
/// // Path 0—1—2 with a heavy middle vertex: the optimum takes just {1}.
/// let mut g = ConflictGraph::new(vec![1.0, 10.0, 1.0]);
/// g.add_edge(0, 1);
/// g.add_edge(1, 2);
/// let solution = g.solve(&SolveOptions::default());
/// assert_eq!(solution.chosen, vec![1]);
/// assert!(solution.exact);
///
/// // Two groups of two (vertices 0,1 and 2,3) plus one cross conflict.
/// let mut g = ConflictGraph::with_groups(vec![5.0, 4.0, 5.0, 1.0], vec![0, 0, 1, 1]);
/// g.add_edge(0, 2);
/// let solution = g.solve(&SolveOptions::default());
/// assert_eq!(solution.chosen, vec![1, 2]);
/// ```
#[derive(Debug, Clone)]
pub struct ConflictGraph {
    weights: Vec<f64>,
    adj: Vec<BitSet>,
    /// Clique-group id per vertex; members of one group are pairwise
    /// adjacent.
    groups: Vec<usize>,
}

/// Solver knobs.
#[derive(Debug, Clone, Copy)]
pub struct SolveOptions {
    /// Maximum branch-and-bound nodes explored, over all components of
    /// one solve, before giving up on optimality (the incumbent is still
    /// returned).
    pub node_budget: u64,
    /// Wall-clock deadline: once `Instant::now()` passes it, the search
    /// halts and the incumbent (at least as good as greedy) is returned
    /// flagged inexact. Checked every [`DEADLINE_CHECK_INTERVAL`] nodes
    /// so the clock read does not dominate small solves. `None` means no
    /// time bound. NOTE: a deadline makes results timing-dependent —
    /// engines that guarantee cross-thread determinism must leave it
    /// `None` (see DESIGN.md §9).
    pub deadline: Option<Instant>,
}

/// How many branch nodes are explored between deadline checks. Bounds
/// deadline overshoot to the time of ~1k cheap node expansions.
pub const DEADLINE_CHECK_INTERVAL: u64 = 1024;

impl Default for SolveOptions {
    fn default() -> Self {
        SolveOptions {
            node_budget: DEFAULT_NODE_BUDGET,
            deadline: None,
        }
    }
}

/// Result of a solve.
#[derive(Debug, Clone, PartialEq)]
pub struct MisSolution {
    /// Chosen vertices (ascending).
    pub chosen: Vec<usize>,
    /// Total weight of the chosen set.
    pub weight: f64,
    /// True if the branch-and-bound proved optimality.
    pub exact: bool,
}

impl ConflictGraph {
    /// Create a graph with the given vertex weights and no edges; every
    /// vertex is its own group.
    ///
    /// # Panics
    /// Panics if any weight is negative or non-finite: MIS with negative
    /// weights silently drops those vertices, which is never what the
    /// caller wants here (shift scores before building the graph).
    pub fn new(weights: Vec<f64>) -> Self {
        let groups = (0..weights.len()).collect();
        Self::with_groups(weights, groups)
    }

    /// Create a graph whose vertex `v` belongs to clique group
    /// `groups[v]`: every two vertices of one group get an edge, so a
    /// solution holds at most one vertex per group. Group ids are
    /// arbitrary labels.
    ///
    /// # Panics
    /// Panics if `groups` and `weights` differ in length, or on a weight
    /// [`ConflictGraph::new`] rejects.
    pub fn with_groups(weights: Vec<f64>, groups: Vec<usize>) -> Self {
        assert!(
            weights.iter().all(|w| w.is_finite() && *w >= 0.0),
            "vertex weights must be finite and non-negative"
        );
        assert_eq!(weights.len(), groups.len(), "one group id per vertex");
        let n = weights.len();
        let mut g = ConflictGraph {
            weights,
            adj: (0..n).map(|_| BitSet::new(n)).collect(),
            groups,
        };
        for u in 0..n {
            for v in (u + 1)..n {
                if g.groups[u] == g.groups[v] {
                    g.add_edge(u, v);
                }
            }
        }
        g
    }

    pub fn len(&self) -> usize {
        self.weights.len()
    }

    pub fn is_empty(&self) -> bool {
        self.weights.is_empty()
    }

    /// Add a conflict edge between `u` and `v` (idempotent; self-loops are
    /// ignored).
    pub fn add_edge(&mut self, u: usize, v: usize) {
        if u == v {
            return;
        }
        self.adj[u].insert(v);
        self.adj[v].insert(u);
    }

    pub fn has_edge(&self, u: usize, v: usize) -> bool {
        self.adj[u].contains(v)
    }

    pub fn degree(&self, u: usize) -> usize {
        self.adj[u].len()
    }

    /// Verify a vertex set is independent.
    pub fn is_independent(&self, vs: &[usize]) -> bool {
        for (i, &u) in vs.iter().enumerate() {
            for &v in &vs[i + 1..] {
                if self.has_edge(u, v) {
                    return false;
                }
            }
        }
        true
    }

    /// Greedy solution: repeatedly take the vertex maximizing
    /// `weight / (1 + degree)` among remaining vertices, then delete its
    /// neighborhood.
    pub fn solve_greedy(&self) -> MisSolution {
        let n = self.len();
        let mut remaining = BitSet::full(n);
        let mut chosen = Vec::new();
        let mut weight = 0.0;
        loop {
            let mut best: Option<(f64, usize)> = None;
            for v in remaining.iter() {
                let mut live_deg = 0usize;
                for u in self.adj[v].iter() {
                    if remaining.contains(u) {
                        live_deg += 1;
                    }
                }
                let score = self.weights[v] / (1.0 + live_deg as f64);
                if best.is_none_or(|(s, _)| score > s) {
                    best = Some((score, v));
                }
            }
            let Some((_, v)) = best else { break };
            chosen.push(v);
            weight += self.weights[v];
            remaining.remove(v);
            remaining.subtract(&self.adj[v]);
        }
        chosen.sort_unstable();
        MisSolution {
            chosen,
            weight,
            exact: false,
        }
    }

    /// Exact solve: each connected component separately, a clique by its
    /// heaviest vertex, any other by branch-and-bound. Components that
    /// the node budget or deadline cuts short ship their greedy
    /// incumbent, and the solve is then flagged inexact.
    pub fn solve(&self, opts: &SolveOptions) -> MisSolution {
        let telemetry = crate::telemetry::metrics();
        telemetry.solves.inc();
        let mut budget = Budget {
            limit: opts.node_budget,
            expanded: 0,
            deadline: opts.deadline,
            deadline_hit: false,
        };
        let components = self.components();
        let mut chosen = Vec::new();
        let mut weight = 0.0;
        let mut exact = true;
        for component in &components {
            let k = component.len();
            if component.iter().all(|&v| self.degree(v) == k - 1) {
                // A clique: its heaviest vertex, the lowest id on ties.
                let mut pick = component[0];
                for &v in &component[1..] {
                    if self.weights[v] > self.weights[pick] {
                        pick = v;
                    }
                }
                chosen.push(pick);
                weight += self.weights[pick];
                continue;
            }
            let part = if components.len() == 1 {
                self.branch_and_bound(&mut budget)
            } else {
                self.induced(component).branch_and_bound(&mut budget)
            };
            chosen.extend(part.chosen.iter().map(|&v| component[v]));
            weight += part.weight;
            exact &= part.exact;
        }
        chosen.sort_unstable();

        // Per-solve accounting only — the branch loop itself is untouched.
        telemetry.nodes_expanded.add(budget.expanded);
        if !exact {
            telemetry.inexact.inc();
            if budget.deadline_hit {
                telemetry.deadline_expired.inc();
            }
        }
        MisSolution {
            chosen,
            weight,
            exact,
        }
    }

    /// Connected components, each ascending, ordered by lowest vertex.
    fn components(&self) -> Vec<Vec<usize>> {
        let mut unseen = BitSet::full(self.len());
        let mut components = Vec::new();
        while let Some(root) = unseen.first() {
            unseen.remove(root);
            let mut component = vec![root];
            let mut next = 0;
            while let Some(&u) = component.get(next) {
                next += 1;
                for v in self.adj[u].iter() {
                    if unseen.contains(v) {
                        unseen.remove(v);
                        component.push(v);
                    }
                }
            }
            component.sort_unstable();
            components.push(component);
        }
        components
    }

    /// The subgraph induced by `vs` (ascending); vertex `i` of the result
    /// is `vs[i]`, so relative id order — and with it every tie-break — is
    /// kept.
    fn induced(&self, vs: &[usize]) -> ConflictGraph {
        let mut local = vec![usize::MAX; self.len()];
        for (i, &v) in vs.iter().enumerate() {
            local[v] = i;
        }
        let mut adj: Vec<BitSet> = vs.iter().map(|_| BitSet::new(vs.len())).collect();
        for (i, &v) in vs.iter().enumerate() {
            for u in self.adj[v].iter() {
                adj[i].insert(local[u]);
            }
        }
        ConflictGraph {
            weights: vs.iter().map(|&v| self.weights[v]).collect(),
            adj,
            groups: vs.iter().map(|&v| self.groups[v]).collect(),
        }
    }

    /// Branch-and-bound over the whole graph from the greedy incumbent,
    /// drawing nodes from `budget`. Flagged inexact if the budget or
    /// deadline ran out.
    fn branch_and_bound(&self, budget: &mut Budget) -> MisSolution {
        let n = self.len();
        // Branch order: heaviest vertices first (lowest id on ties) makes
        // the incumbent strong early and the bound tight. In this rank
        // space the heaviest available member of a group is its first.
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| {
            self.weights[b]
                .partial_cmp(&self.weights[a])
                .expect("weights are finite")
        });
        let mut rank_of = vec![0usize; n];
        for (rank, &v) in order.iter().enumerate() {
            rank_of[v] = rank;
        }
        let weights: Vec<f64> = order.iter().map(|&v| self.weights[v]).collect();
        let mut adj: Vec<BitSet> = (0..n).map(|_| BitSet::new(n)).collect();
        for v in 0..n {
            for u in self.adj[v].iter() {
                adj[rank_of[v]].insert(rank_of[u]);
            }
        }
        // Group ids relabelled densely, so the bound's scratch is O(groups).
        let mut labels = self.groups.clone();
        labels.sort_unstable();
        labels.dedup();
        let group: Vec<usize> = order
            .iter()
            .map(|&v| {
                labels
                    .binary_search(&self.groups[v])
                    .expect("label is listed")
            })
            .collect();
        // Suffix weight sums for the O(1) bound: suffix[i] = sum of weights[i..].
        let mut suffix = vec![0.0; n + 1];
        for i in (0..n).rev() {
            suffix[i] = suffix[i + 1] + weights[i];
        }

        let greedy = self.solve_greedy();
        let mut search = Search {
            weights,
            adj,
            group,
            suffix,
            group_seen: vec![false; labels.len()],
            current: Vec::new(),
            best_weight: greedy.weight,
            best_set: greedy.chosen.iter().map(|&v| rank_of[v]).collect(),
            budget,
        };
        let exact = search.branch(&BitSet::full(n), 0.0);

        // Map rank-space solution back to caller vertex ids.
        let mut chosen: Vec<usize> = search.best_set.iter().map(|&r| order[r]).collect();
        chosen.sort_unstable();
        MisSolution {
            chosen,
            weight: search.best_weight,
            exact,
        }
    }
}

/// The node budget and deadline one solve's components draw from.
struct Budget {
    limit: u64,
    expanded: u64,
    deadline: Option<Instant>,
    /// Set once the deadline halted the search.
    deadline_hit: bool,
}

impl Budget {
    /// Account for one more node; false once the node budget or the
    /// deadline is exhausted.
    fn charge(&mut self) -> bool {
        if self.deadline_hit || self.expanded == self.limit {
            return false;
        }
        // Sparse deadline check: one clock read per
        // DEADLINE_CHECK_INTERVAL nodes, never per node.
        if self.expanded.is_multiple_of(DEADLINE_CHECK_INTERVAL)
            && self.deadline.is_some_and(|d| Instant::now() >= d)
        {
            self.deadline_hit = true;
            return false;
        }
        self.expanded += 1;
        true
    }
}

/// One component's branch-and-bound state, in rank space (vertices by
/// descending weight).
struct Search<'a> {
    weights: Vec<f64>,
    adj: Vec<BitSet>,
    /// Dense group id per rank.
    group: Vec<usize>,
    suffix: Vec<f64>,
    /// Scratch for the group bound: groups already counted.
    group_seen: Vec<bool>,
    current: Vec<usize>,
    best_weight: f64,
    best_set: Vec<usize>,
    budget: &'a mut Budget,
}

impl Search<'_> {
    /// Recursive branch step over the ranks in `avail`, all of which
    /// follow every rank already decided. Returns false if the node
    /// budget or deadline ran out.
    fn branch(&mut self, avail: &BitSet, acc: f64) -> bool {
        if !self.budget.charge() {
            return false;
        }
        let Some(v) = avail.first() else {
            if acc > self.best_weight {
                self.best_weight = acc;
                self.best_set = self.current.clone();
            }
            return true;
        };
        if !self.can_improve(avail, v, acc) {
            // Pruning ties too cannot lose the optimum: an equal weight
            // never replaces the incumbent.
            return true;
        }

        // Branch 1: include v.
        let mut with_v = avail.clone();
        with_v.remove(v);
        with_v.subtract(&self.adj[v]);
        self.current.push(v);
        let ok1 = self.branch(&with_v, acc + self.weights[v]);
        self.current.pop();

        // Branch 2: exclude v.
        let mut without_v = avail.clone();
        without_v.remove(v);
        let ok2 = self.branch(&without_v, acc);
        ok1 && ok2
    }

    /// Whether some completion of the partial solution (weight `acc`,
    /// remaining ranks `avail`, the first of which is `v`) could beat the
    /// incumbent.
    fn can_improve(&mut self, avail: &BitSet, v: usize, acc: f64) -> bool {
        // O(1): even every remaining vertex together cannot beat it.
        if acc + self.suffix[v] <= self.best_weight {
            return false;
        }
        // O(n): one pick per group at most, and no heavier than the
        // group's first available rank. Summed in rank order, as a leaf
        // taking exactly those vertices would be.
        self.group_seen.fill(false);
        let mut bound = acc;
        for r in avail.iter() {
            let g = self.group[r];
            if !self.group_seen[g] {
                self.group_seen[g] = true;
                bound += self.weights[r];
                if bound > self.best_weight {
                    return true;
                }
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn solve(g: &ConflictGraph) -> MisSolution {
        g.solve(&SolveOptions::default())
    }

    #[test]
    fn empty_graph() {
        let g = ConflictGraph::new(vec![]);
        let s = solve(&g);
        assert!(s.chosen.is_empty());
        assert_eq!(s.weight, 0.0);
        assert!(s.exact);
    }

    #[test]
    fn no_edges_takes_everything() {
        let g = ConflictGraph::new(vec![1.0, 2.0, 3.0]);
        let s = solve(&g);
        assert_eq!(s.chosen, vec![0, 1, 2]);
        assert_eq!(s.weight, 6.0);
    }

    #[test]
    fn single_edge_takes_heavier() {
        let mut g = ConflictGraph::new(vec![1.0, 5.0]);
        g.add_edge(0, 1);
        let s = solve(&g);
        assert_eq!(s.chosen, vec![1]);
        assert_eq!(s.weight, 5.0);
    }

    #[test]
    fn triangle_takes_max_vertex() {
        let mut g = ConflictGraph::new(vec![2.0, 3.0, 4.0]);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        g.add_edge(0, 2);
        let s = solve(&g);
        assert_eq!(s.chosen, vec![2]);
    }

    #[test]
    fn one_clique_returns_heaviest_lowest_id_on_ties() {
        let g = ConflictGraph::with_groups(vec![2.0, 5.0, 1.0, 5.0], vec![7; 4]);
        let s = solve(&g);
        assert_eq!(s.chosen, vec![1]);
        assert_eq!(s.weight, 5.0);
        assert!(s.exact);
        // A clique given edge by edge is recognised the same way, and
        // needs no branching: it stays exact on a zero node budget.
        let mut g = ConflictGraph::new(vec![2.0, 5.0, 1.0, 5.0]);
        for u in 0..4 {
            for v in (u + 1)..4 {
                g.add_edge(u, v);
            }
        }
        let s = g.solve(&SolveOptions {
            node_budget: 0,
            ..SolveOptions::default()
        });
        assert_eq!(s.chosen, vec![1]);
        assert!(s.exact);
    }

    #[test]
    fn groups_are_cliques() {
        let g = ConflictGraph::with_groups(vec![1.0; 5], vec![0, 1, 0, 1, 2]);
        assert!(g.has_edge(0, 2) && g.has_edge(1, 3));
        assert!(!g.has_edge(0, 1) && !g.has_edge(2, 4));
        assert_eq!(g.degree(4), 0);
    }

    #[test]
    fn equal_weight_optima_resolve_to_lowest_ids() {
        // Two spans with two equal candidates each, crossed so that
        // {0, 3} and {1, 2} are both optimal: the lower ids win.
        let mut g = ConflictGraph::with_groups(vec![1.0; 4], vec![0, 0, 1, 1]);
        g.add_edge(0, 2);
        g.add_edge(1, 3);
        let s = solve(&g);
        assert_eq!(s.chosen, vec![0, 3]);
        assert!(s.exact);
    }

    #[test]
    fn components_share_the_budget_and_all_must_be_exact() {
        // Component {0..3}: a 4-cycle (needs branching). Component {4, 5}:
        // a clique (never branches).
        let mut g = ConflictGraph::new(vec![1.0, 1.0, 1.0, 1.0, 2.0, 3.0]);
        for i in 0..4 {
            g.add_edge(i, (i + 1) % 4);
        }
        g.add_edge(4, 5);
        let s = solve(&g);
        assert_eq!(s.chosen, vec![0, 2, 5]);
        assert!(s.exact);
        let starved = g.solve(&SolveOptions {
            node_budget: 0,
            ..SolveOptions::default()
        });
        assert!(!starved.exact, "the cycle could not be searched");
        assert!(g.is_independent(&starved.chosen));
        assert!(starved.chosen.contains(&5), "the clique is still answered");
        // Components that are all cliques need no nodes at all.
        let mut cliques =
            ConflictGraph::with_groups(vec![1.0, 2.0, 4.0, 3.0, 5.0], vec![0, 0, 1, 1, 2]);
        cliques.add_edge(0, 1);
        let s = cliques.solve(&SolveOptions {
            node_budget: 0,
            ..SolveOptions::default()
        });
        assert_eq!(s.chosen, vec![1, 2, 4]);
        assert!(s.exact);
    }

    #[test]
    fn group_bound_closes_batch_shaped_graph_on_a_small_budget() {
        // 12 spans × 4 candidates in one component, weights a coverage
        // bonus plus a small score, as tw-core builds them. Counting every
        // remaining vertex overestimates ~4×; one pick per group closes
        // the search in under 200 nodes.
        let (parents, k) = (12, 4);
        let n = parents * k;
        let mut state = 7u64;
        let mut rand = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as f64 / (u32::MAX as f64 / 2.0)
        };
        let weights: Vec<f64> = (0..n).map(|_| 1000.0 + 10.0 * rand()).collect();
        let mut g = ConflictGraph::with_groups(weights, (0..n).map(|v| v / k).collect());
        for p in 0..parents - 1 {
            for c in 0..k {
                if rand() < 0.5 {
                    g.add_edge(p * k + c, (p + 1) * k + c);
                }
            }
            g.add_edge(p * k, (p + 1) * k + 1);
        }
        let small = g.solve(&SolveOptions {
            node_budget: 200,
            ..SolveOptions::default()
        });
        assert!(small.exact);
        assert_eq!(small.chosen, solve(&g).chosen);
    }

    #[test]
    fn path_graph_alternation() {
        // Path 0-1-2-3-4 with uniform weights: optimum is {0,2,4}.
        let mut g = ConflictGraph::new(vec![1.0; 5]);
        for i in 0..4 {
            g.add_edge(i, i + 1);
        }
        let s = solve(&g);
        assert_eq!(s.chosen, vec![0, 2, 4]);
        assert!(s.exact);
    }

    #[test]
    fn weighted_path_prefers_heavy_middle() {
        // Path 0-1-2; middle vertex outweighs both ends.
        let mut g = ConflictGraph::new(vec![1.0, 10.0, 1.0]);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        let s = solve(&g);
        assert_eq!(s.chosen, vec![1]);
        assert_eq!(s.weight, 10.0);
    }

    #[test]
    fn greedy_is_feasible() {
        let mut g = ConflictGraph::new(vec![3.0, 2.0, 2.0, 3.0]);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        g.add_edge(2, 3);
        let s = g.solve_greedy();
        assert!(g.is_independent(&s.chosen));
        // Exact must be at least as good as greedy.
        let e = solve(&g);
        assert!(e.weight >= s.weight);
        assert_eq!(e.weight, 6.0); // {0, 3}
    }

    #[test]
    fn exact_beats_or_matches_greedy_on_random_graphs() {
        // Deterministic pseudo-random graphs via a simple LCG.
        let mut state = 12345u64;
        let mut rand = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as f64 / (u32::MAX as f64 / 2.0)
        };
        for trial in 0..20 {
            let n = 12 + trial % 8;
            let mut weights = Vec::new();
            for _ in 0..n {
                weights.push(1.0 + rand() * 10.0);
            }
            let mut g = ConflictGraph::new(weights);
            for u in 0..n {
                for v in (u + 1)..n {
                    if rand() < 0.3 {
                        g.add_edge(u, v);
                    }
                }
            }
            let greedy = g.solve_greedy();
            let exact = solve(&g);
            assert!(g.is_independent(&exact.chosen));
            assert!(
                exact.weight >= greedy.weight - 1e-9,
                "exact {} < greedy {} at trial {trial}",
                exact.weight,
                greedy.weight
            );
            assert!(exact.exact);
        }
    }

    #[test]
    fn exact_matches_brute_force_small() {
        let mut state = 999u64;
        let mut rand = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as f64 / (u32::MAX as f64 / 2.0)
        };
        for _ in 0..30 {
            let n = 10;
            let weights: Vec<f64> = (0..n).map(|_| 1.0 + rand() * 5.0).collect();
            let mut g = ConflictGraph::new(weights.clone());
            for u in 0..n {
                for v in (u + 1)..n {
                    if rand() < 0.4 {
                        g.add_edge(u, v);
                    }
                }
            }
            // Brute force over all subsets.
            let mut best = 0.0f64;
            for mask in 0u32..(1 << n) {
                let vs: Vec<usize> = (0..n).filter(|&i| mask & (1 << i) != 0).collect();
                if g.is_independent(&vs) {
                    let w: f64 = vs.iter().map(|&i| weights[i]).sum();
                    best = best.max(w);
                }
            }
            let s = solve(&g);
            assert!((s.weight - best).abs() < 1e-9, "{} vs {}", s.weight, best);
        }
    }

    #[test]
    fn node_budget_degrades_gracefully() {
        let mut g = ConflictGraph::new(vec![1.0; 30]);
        for u in 0..30usize {
            for v in (u + 1)..30 {
                if (u + v) % 3 == 0 {
                    g.add_edge(u, v);
                }
            }
        }
        let s = g.solve(&SolveOptions {
            node_budget: 10,
            ..SolveOptions::default()
        });
        assert!(!s.exact);
        assert!(g.is_independent(&s.chosen));
        assert!(s.weight > 0.0);
    }

    #[test]
    fn expired_deadline_returns_greedy_incumbent() {
        let mut g = ConflictGraph::new(vec![3.0, 2.0, 2.0, 3.0]);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        g.add_edge(2, 3);
        let past = std::time::Instant::now() - std::time::Duration::from_millis(1);
        let s = g.solve(&SolveOptions {
            deadline: Some(past),
            ..SolveOptions::default()
        });
        assert!(!s.exact, "deadline-hit solves are flagged inexact");
        assert!(g.is_independent(&s.chosen));
        let greedy = g.solve_greedy();
        assert!(s.weight >= greedy.weight, "incumbent at least greedy");
    }

    #[test]
    fn generous_deadline_stays_exact() {
        let mut g = ConflictGraph::new(vec![1.0; 12]);
        for i in 0..11 {
            g.add_edge(i, i + 1);
        }
        let far = std::time::Instant::now() + std::time::Duration::from_secs(60);
        let s = g.solve(&SolveOptions {
            deadline: Some(far),
            ..SolveOptions::default()
        });
        assert!(s.exact);
        assert_eq!(s.weight, 6.0); // alternating vertices of a 12-path
    }

    #[test]
    #[should_panic]
    fn negative_weights_rejected() {
        let _ = ConflictGraph::new(vec![1.0, -2.0]);
    }
}
