//! Spanner verification: plain, under explicit faults, exhaustive over all
//! fault sets, exact by oracle certificate, randomized, and adversarial
//! (replaying recorded witnesses).
//!
//! Two checks decide the `f`-fault contract exactly, in both fault
//! models: [`verify_ft_exhaustive`] enumerates every fault set (the
//! reference, small instances only) and [`certify_ft_exact`] asks one
//! oracle query per parent edge outside the spanner.
//!
//! All checks reduce to the standard *per-edge criterion*: `H ∖ F` is a
//! `k`-spanner of `G ∖ F` iff `dist_{H∖F}(u, v) ≤ k·w(u, v)` for every
//! edge `(u, v, w)` of `G ∖ F` whose endpoints survive. (Any shortest path
//! of `G ∖ F` decomposes into such edges; stretching each by ≤ k stretches
//! the whole path by ≤ k.) This turns verification into `|E(G)|` bounded
//! Dijkstra queries instead of all-pairs work.

use crate::{FtSpanner, Spanner};
use rand::seq::SliceRandom;
use rand::Rng;
use spanner_faults::{FaultModel, FaultSet};
use spanner_graph::{BitSet, DijkstraEngine, EdgeId, Graph, NodeId};

/// Result of a single stretch check.
#[derive(Clone, Debug)]
pub struct StretchReport {
    /// `true` iff every surviving parent edge is stretched by at most `k`.
    pub satisfied: bool,
    /// The worst stretch ratio observed (`f64::INFINITY` if disconnected
    /// where the parent is connected).
    pub max_stretch: f64,
    /// A pair witnessing the worst stretch, if any edge was checked.
    pub worst_pair: Option<(NodeId, NodeId)>,
    /// Number of parent edges checked.
    pub checked_edges: usize,
}

/// Verifies the plain (fault-free) spanner property.
///
/// # Examples
///
/// ```
/// use spanner_core::{greedy_spanner, verify::verify_spanner};
/// use spanner_graph::generators::complete;
///
/// let g = complete(12);
/// let s = greedy_spanner(&g, 3);
/// assert!(verify_spanner(&g, &s).satisfied);
/// ```
pub fn verify_spanner(parent: &Graph, spanner: &Spanner) -> StretchReport {
    verify_under_faults(parent, spanner, &FaultSet::empty(FaultModel::Vertex))
}

/// Verifies that `spanner ∖ faults` is a `stretch`-spanner of
/// `parent ∖ faults` (per-edge criterion). Fault edge ids refer to the
/// *parent* graph.
pub fn verify_under_faults(parent: &Graph, spanner: &Spanner, faults: &FaultSet) -> StretchReport {
    let stretch = spanner.stretch();
    let h_mask = spanner.fault_mask(faults);
    let mut engine = DijkstraEngine::new();
    let mut max_stretch = 0.0f64;
    let mut worst_pair = None;
    let mut satisfied = true;
    let mut checked_edges = 0usize;
    let faulted_edge = |e: EdgeId| faults.edge_faults().contains(&e);
    let faulted_vertex = |v: NodeId| faults.vertex_faults().contains(&v);
    for (id, e) in parent.edges() {
        if faulted_edge(id) || faulted_vertex(e.u()) || faulted_vertex(e.v()) {
            continue;
        }
        checked_edges += 1;
        let bound = e.weight().stretched(stretch);
        if let Some(d) = engine.dist_bounded(spanner.graph(), e.u(), e.v(), bound, &h_mask) {
            let ratio = d.stretch_over(e.weight());
            if ratio > max_stretch {
                max_stretch = ratio;
                worst_pair = Some((e.u(), e.v()));
            }
        } else {
            satisfied = false;
            let d = spanner_graph::dijkstra::dist(spanner.graph(), e.u(), e.v(), &h_mask);
            let ratio = d.stretch_over(e.weight());
            if ratio > max_stretch || worst_pair.is_none() {
                max_stretch = ratio;
                worst_pair = Some((e.u(), e.v()));
            }
        }
    }
    StretchReport {
        satisfied,
        max_stretch,
        worst_pair,
        checked_edges,
    }
}

/// Result of a multi-fault-set audit.
#[derive(Clone, Debug)]
pub struct FaultAudit {
    /// Number of fault sets checked.
    pub trials: usize,
    /// Number of fault sets under which the spanner property failed.
    pub violations: usize,
    /// The first failing fault set with its report, if any.
    pub first_violation: Option<(FaultSet, StretchReport)>,
}

impl FaultAudit {
    /// `true` iff no violation was found.
    pub fn satisfied(&self) -> bool {
        self.violations == 0
    }

    fn record(&mut self, faults: &FaultSet, report: StretchReport) {
        self.trials += 1;
        if !report.satisfied {
            self.violations += 1;
            if self.first_violation.is_none() {
                self.first_violation = Some((faults.clone(), report));
            }
        }
    }
}

/// Exhaustively verifies the `f`-fault-tolerant spanner property: every
/// fault set of size at most `budget` is checked. Cost grows as
/// `O(n^budget)` (or `m^budget`) — small instances only.
pub fn verify_ft_exhaustive(
    parent: &Graph,
    spanner: &Spanner,
    budget: usize,
    model: FaultModel,
) -> FaultAudit {
    let mut audit = FaultAudit {
        trials: 0,
        violations: 0,
        first_violation: None,
    };
    let pool: Vec<usize> = match model {
        FaultModel::Vertex => (0..parent.node_count()).collect(),
        FaultModel::Edge => (0..parent.edge_count()).collect(),
    };
    let mut chosen: Vec<usize> = Vec::new();
    struct Search<'a> {
        parent: &'a Graph,
        spanner: &'a Spanner,
        model: FaultModel,
        pool: &'a [usize],
    }
    impl Search<'_> {
        fn recurse(
            &self,
            from: usize,
            remaining: usize,
            chosen: &mut Vec<usize>,
            audit: &mut FaultAudit,
        ) {
            let faults = match self.model {
                FaultModel::Vertex => FaultSet::vertices(chosen.iter().map(|i| NodeId::new(*i))),
                FaultModel::Edge => FaultSet::edges(chosen.iter().map(|i| EdgeId::new(*i))),
            };
            let report = verify_under_faults(self.parent, self.spanner, &faults);
            audit.record(&faults, report);
            if remaining == 0 {
                return;
            }
            for i in from..self.pool.len() {
                chosen.push(self.pool[i]);
                self.recurse(i + 1, remaining - 1, chosen, audit);
                chosen.pop();
            }
        }
    }
    Search {
        parent,
        spanner,
        model,
        pool: &pool,
    }
    .recurse(0, budget, &mut chosen, &mut audit);
    audit
}

/// Exact ∀F certification in either fault model, without enumerating
/// fault sets.
///
/// Key reduction (the same one FT-greedy itself rests on): `spanner` fails
/// for some `|F| ≤ budget` iff some parent edge `(u, v)` that survives `F`
/// has `dist_{H∖F}(u, v) > k·w(u, v)`. A parent edge kept in `H` never
/// does (it survives every `F` that spares it, and is its own path), so
/// only the parent edges outside `H` are checked, each with one exact
/// oracle query against `H`: faulting `u` or `v` exempts the pair, and
/// faults outside `H` lengthen no path of `H`. That is one oracle query
/// per dropped edge instead of `O(n^budget)` (or `m^budget`) enumerations.
///
/// Skipping the kept edges is required, not just faster: in the edge
/// model, a query on a kept edge would fault that edge itself and report a
/// violation that is none.
///
/// Returns the certificate: `None` if the property holds, else the first
/// violating parent edge and a fault set, in parent ids, that breaks it.
///
/// # Examples
///
/// ```
/// use spanner_core::{verify::certify_ft_exact, FtGreedy};
/// use spanner_faults::FaultModel;
/// use spanner_graph::generators::complete;
///
/// let g = complete(12);
/// let ft = FtGreedy::new(&g, 3).faults(2).run();
/// assert!(certify_ft_exact(&g, ft.spanner(), 2, FaultModel::Vertex).is_none());
/// ```
pub fn certify_ft_exact(
    parent: &Graph,
    spanner: &Spanner,
    budget: usize,
    model: FaultModel,
) -> Option<(EdgeId, FaultSet)> {
    use spanner_faults::{BranchingOracle, FaultOracle, OracleQuery};
    let mut kept = BitSet::new(parent.edge_count());
    for e in spanner.parent_edge_ids() {
        kept.insert(e.index());
    }
    let mut oracle = BranchingOracle::new();
    for (id, e) in parent.edges() {
        if kept.contains(id.index()) {
            continue;
        }
        let query = OracleQuery {
            u: e.u(),
            v: e.v(),
            bound: e.weight().stretched(spanner.stretch()),
            budget,
            model,
        };
        if let Some(found) = oracle.find_blocking_faults(spanner.graph(), query) {
            let found = match found {
                FaultSet::Edges(own) => {
                    FaultSet::edges(own.iter().map(|e| spanner.parent_edge(*e)))
                }
                vertices => vertices,
            };
            return Some((id, found));
        }
    }
    None
}

/// Randomized audit: `trials` fault sets of size exactly `min(budget, pool)`
/// sampled uniformly without replacement within each set.
pub fn verify_ft_sampled(
    parent: &Graph,
    spanner: &Spanner,
    budget: usize,
    model: FaultModel,
    trials: usize,
    rng: &mut impl Rng,
) -> FaultAudit {
    let mut audit = FaultAudit {
        trials: 0,
        violations: 0,
        first_violation: None,
    };
    let mut pool: Vec<usize> = match model {
        FaultModel::Vertex => (0..parent.node_count()).collect(),
        FaultModel::Edge => (0..parent.edge_count()).collect(),
    };
    let size = budget.min(pool.len());
    for _ in 0..trials {
        pool.shuffle(rng);
        let faults = match model {
            FaultModel::Vertex => FaultSet::vertices(pool[..size].iter().map(|i| NodeId::new(*i))),
            FaultModel::Edge => FaultSet::edges(pool[..size].iter().map(|i| EdgeId::new(*i))),
        };
        let report = verify_under_faults(parent, spanner, &faults);
        audit.record(&faults, report);
    }
    audit
}

/// Adversarial audit: replays the witness fault sets the construction
/// itself recorded (translated to parent ids). These are fault sets known
/// to stress the spanner — each one forced an edge to be kept.
pub fn verify_ft_adversarial(parent: &Graph, ft: &FtSpanner) -> FaultAudit {
    let mut audit = FaultAudit {
        trials: 0,
        violations: 0,
        first_violation: None,
    };
    for witness in ft.witnesses() {
        let faults = match witness {
            FaultSet::Vertices(v) => FaultSet::vertices(v.iter().copied()),
            FaultSet::Edges(own_edges) => {
                FaultSet::edges(own_edges.iter().map(|e| ft.spanner().parent_edge(*e)))
            }
        };
        let report = verify_under_faults(parent, ft.spanner(), &faults);
        audit.record(&faults, report);
    }
    audit
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{greedy_spanner, FtGreedy};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use spanner_graph::generators::{complete, cycle, grid, with_uniform_weights};

    #[test]
    fn greedy_passes_plain_verification() {
        let mut rng = StdRng::seed_from_u64(2);
        let g = with_uniform_weights(&complete(15), 1, 9, &mut rng);
        let s = greedy_spanner(&g, 3);
        let r = verify_spanner(&g, &s);
        assert!(r.satisfied);
        assert!(r.max_stretch <= 3.0);
        assert_eq!(r.checked_edges, g.edge_count());
    }

    #[test]
    fn greedy_fails_under_faults_it_was_not_built_for() {
        // A plain greedy 3-spanner of a cycle drops an edge; faulting a
        // cycle vertex then disconnects some pair entirely.
        let g = cycle(4);
        let s = greedy_spanner(&g, 3);
        assert_eq!(s.edge_count(), 3, "C4 loses exactly one edge at k=3");
        let audit = verify_ft_exhaustive(&g, &s, 1, FaultModel::Vertex);
        assert!(
            !audit.satisfied(),
            "plain spanner should break under faults"
        );
        assert!(audit.trials > 1);
    }

    #[test]
    fn ft_greedy_passes_exhaustive_vertex_audit() {
        for f in 0..=2usize {
            let g = complete(8);
            let ft = FtGreedy::new(&g, 3).faults(f).run();
            let audit = verify_ft_exhaustive(&g, ft.spanner(), f, FaultModel::Vertex);
            assert!(
                audit.satisfied(),
                "f={f}: {} violations of {}",
                audit.violations,
                audit.trials
            );
        }
    }

    #[test]
    fn ft_greedy_passes_exhaustive_edge_audit() {
        let g = grid(3, 3);
        let ft = FtGreedy::new(&g, 3).faults(1).model(FaultModel::Edge).run();
        let audit = verify_ft_exhaustive(&g, ft.spanner(), 1, FaultModel::Edge);
        assert!(audit.satisfied(), "{:?}", audit.first_violation);
    }

    #[test]
    fn sampled_audit_agrees_with_exhaustive_on_good_spanner() {
        let g = complete(9);
        let ft = FtGreedy::new(&g, 3).faults(2).run();
        let mut rng = StdRng::seed_from_u64(8);
        let audit = verify_ft_sampled(&g, ft.spanner(), 2, FaultModel::Vertex, 64, &mut rng);
        assert!(audit.satisfied());
        assert_eq!(audit.trials, 64);
    }

    #[test]
    fn adversarial_audit_replays_witnesses() {
        let g = complete(9);
        let ft = FtGreedy::new(&g, 3).faults(2).run();
        let audit = verify_ft_adversarial(&g, &ft);
        assert_eq!(audit.trials, ft.spanner().edge_count());
        assert!(audit.satisfied(), "{:?}", audit.first_violation);
    }

    #[test]
    fn adversarial_audit_edge_model_translates_ids() {
        let g = grid(3, 3);
        let ft = FtGreedy::new(&g, 3).faults(1).model(FaultModel::Edge).run();
        let audit = verify_ft_adversarial(&g, &ft);
        assert!(audit.satisfied(), "{:?}", audit.first_violation);
    }

    #[test]
    fn disconnection_reports_infinite_stretch() {
        let g = cycle(4);
        // Keep a single edge: everything else is unreachable.
        let s = Spanner::from_parent_edges(&g, [EdgeId::new(0)], 3);
        let r = verify_spanner(&g, &s);
        assert!(!r.satisfied);
        assert!(r.max_stretch.is_infinite());
        assert!(r.worst_pair.is_some());
    }

    #[test]
    fn certificate_clean_on_ft_spanner_in_both_models() {
        let g = complete(10);
        for model in [FaultModel::Vertex, FaultModel::Edge] {
            let ft = FtGreedy::new(&g, 3).faults(2).model(model).run();
            let cert = certify_ft_exact(&g, ft.spanner(), 2, model);
            assert!(cert.is_none(), "{model}: {cert:?}");
        }
    }

    #[test]
    fn certificate_finds_planted_violation_in_both_models() {
        // The under-built C4 spanner from the disconnection test: one fault
        // (an interior vertex of the kept path, or one of its edges) cuts
        // the dropped edge's endpoints apart.
        let g = cycle(4);
        let s = greedy_spanner(&g, 3);
        for model in [FaultModel::Vertex, FaultModel::Edge] {
            let (edge, faults) = certify_ft_exact(&g, &s, 1, model)
                .unwrap_or_else(|| panic!("{model}: certificate missed the violation"));
            assert_eq!(faults.model(), model);
            assert!(faults.len() <= 1);
            assert!(!s.contains_parent_edge(edge));
            assert!(!faults.edge_faults().contains(&edge));
            assert!(!verify_under_faults(&g, &s, &faults).satisfied);
        }
    }

    #[test]
    fn certificate_at_zero_budget_agrees_with_verify_spanner() {
        let g = complete(6);
        let full = Spanner::from_parent_edges(&g, g.edge_ids(), 1);
        let star = Spanner::from_parent_edges(&g, g.edge_ids().take(5), 1);
        for model in [FaultModel::Vertex, FaultModel::Edge] {
            for s in [&full, &star] {
                let cert = certify_ft_exact(&g, s, 0, model);
                assert_eq!(cert.is_none(), verify_spanner(&g, s).satisfied, "{model}");
                if let Some((_, faults)) = cert {
                    assert!(faults.is_empty());
                }
            }
        }
    }

    #[test]
    fn exact_certification_agrees_with_enumeration() {
        // Positive cases: FT-greedy outputs certify clean.
        for model in [FaultModel::Vertex, FaultModel::Edge] {
            for f in 0..=2usize {
                let g = complete(7);
                let ft = FtGreedy::new(&g, 3).faults(f).model(model).run();
                let cert = certify_ft_exact(&g, ft.spanner(), f, model);
                let enumerated = verify_ft_exhaustive(&g, ft.spanner(), f, model);
                assert!(cert.is_none(), "{model} f={f}: {cert:?}");
                assert!(enumerated.satisfied());
            }
        }
        // Negative case: a plain greedy spanner fails under one fault, and
        // the certificate pinpoints a real violation.
        let g = cycle(4);
        let s = greedy_spanner(&g, 3);
        let (edge, faults) =
            certify_ft_exact(&g, &s, 1, FaultModel::Vertex).expect("must find a violation");
        let report = verify_under_faults(&g, &s, &faults);
        assert!(!report.satisfied);
        // The violating edge survives the faults (its endpoints are alive).
        let (u, v) = g.endpoints(edge);
        assert!(!faults.vertex_faults().contains(&u));
        assert!(!faults.vertex_faults().contains(&v));
        // And enumeration agrees there is a violation.
        assert!(!verify_ft_exhaustive(&g, &s, 1, FaultModel::Vertex).satisfied());
    }

    #[test]
    fn exact_certification_on_random_graphs_matches_enumeration() {
        use spanner_graph::generators::erdos_renyi;
        let mut rng = StdRng::seed_from_u64(41);
        for trial in 0..10 {
            let g = erdos_renyi(10, 0.4, &mut rng);
            // Deliberately under-built: f=0 spanner audited at f=1.
            let s = greedy_spanner(&g, 3);
            for model in [FaultModel::Vertex, FaultModel::Edge] {
                let cert = certify_ft_exact(&g, &s, 1, model);
                let enumerated = verify_ft_exhaustive(&g, &s, 1, model);
                assert_eq!(
                    cert.is_none(),
                    enumerated.satisfied(),
                    "trial {trial} ({model}): certification and enumeration disagree"
                );
            }
        }
    }

    #[test]
    fn trivial_spanner_always_satisfies() {
        let g = complete(7);
        let s = Spanner::from_parent_edges(&g, g.edge_ids(), 1);
        let audit = verify_ft_exhaustive(&g, &s, 2, FaultModel::Vertex);
        assert!(audit.satisfied());
        let audit = verify_ft_exhaustive(&g, &s, 2, FaultModel::Edge);
        assert!(audit.satisfied());
    }
}
