//! E11 / Table 7 — ablation: exact oracle vs polynomial-time heuristic.
//!
//! The paper's open problem asks for a faster FT-greedy. The
//! `GreedyHeuristicOracle` answers edge tests in `O(f)` shortest-path
//! queries instead of `O(k^f)`, at the price of exactness: it can miss
//! blocking sets, silently dropping edges the spanner needed. This
//! experiment quantifies the trade:
//!
//! * **work**: heuristic query counts grow linearly in `f`, exact
//!   explodes;
//! * **size**: heuristic output lands near the exact size. (Each *kept*
//!   edge is individually justified by a genuine witness, but the greedy
//!   processes diverge once an edge is wrongly dropped, so the totals can
//!   differ in either direction by a little.)
//! * **correctness**: audit violations of the heuristic output, the
//!   honest cost of the shortcut.

use super::{ExperimentContext, ExperimentOutput};
use crate::{cell_seed, fnum, parallel_map, Table};
use rand::rngs::StdRng;
use rand::SeedableRng;
use spanner_core::verify::verify_ft_sampled;
use spanner_core::FtGreedy;
use spanner_faults::{FaultModel, GreedyHeuristicOracle};
use spanner_graph::generators::erdos_renyi;
use std::time::Instant;

/// Runs E11. See the module docs.
pub fn run(ctx: &ExperimentContext) -> ExperimentOutput {
    let n = ctx.pick(30, 60, 90);
    let p = ctx.pick(0.3, 0.2, 0.15);
    let stretch = 3u64;
    let fs: Vec<usize> = ctx.pick(vec![1, 2], vec![1, 2, 3], vec![1, 2, 3, 4, 5]);
    let audit_trials = ctx.pick(15, 40, 80);

    let mut table = Table::new(
        format!("E11: exact vs heuristic oracle  (G(n={n}, p={p}), stretch {stretch})"),
        [
            "f",
            "exact |E(H)|",
            "heur |E(H)|",
            "exact sp-queries",
            "heur sp-queries",
            "exact ms",
            "heur ms",
            "heur audit viol",
        ],
    );
    let mut notes = Vec::new();
    let mut max_size_gap = 0.0f64;
    let mut any_violation = false;
    let cells: Vec<usize> = fs.clone();
    let results = parallel_map(cells, ctx.threads, |f| {
        let mut rng = StdRng::seed_from_u64(cell_seed(11, f as u64, 0));
        let g = erdos_renyi(n, p, &mut rng);
        let t0 = Instant::now();
        let exact = FtGreedy::new(&g, stretch).faults(f).run();
        let exact_ms = t0.elapsed().as_secs_f64() * 1e3;
        let t1 = Instant::now();
        let heur = FtGreedy::new(&g, stretch)
            .faults(f)
            .run_with_oracle(&mut GreedyHeuristicOracle::new());
        let heur_ms = t1.elapsed().as_secs_f64() * 1e3;
        let audit = verify_ft_sampled(
            &g,
            heur.spanner(),
            f,
            FaultModel::Vertex,
            audit_trials,
            &mut rng,
        );
        (
            f,
            exact.spanner().edge_count(),
            heur.spanner().edge_count(),
            exact.stats().shortest_path_queries,
            heur.stats().shortest_path_queries,
            exact_ms,
            heur_ms,
            audit.violations,
        )
    });
    for (f, exact_m, heur_m, exact_q, heur_q, exact_ms, heur_ms, viol) in results {
        if exact_m > 0 {
            let gap = (heur_m as f64 - exact_m as f64).abs() / exact_m as f64;
            max_size_gap = max_size_gap.max(gap);
        }
        if viol > 0 {
            any_violation = true;
        }
        table.row([
            f.to_string(),
            exact_m.to_string(),
            heur_m.to_string(),
            exact_q.to_string(),
            heur_q.to_string(),
            fnum(exact_ms),
            fnum(heur_ms),
            format!("{viol}/{audit_trials}"),
        ]);
    }
    notes.push(format!(
        "heuristic size within 5% of exact at every f (max gap {:.2}%): {}",
        100.0 * max_size_gap,
        if max_size_gap <= 0.05 { "yes" } else { "NO" }
    ));
    notes.push(format!(
        "heuristic dropped needed edges (audit violations observed): {} — the honest price of a polynomial oracle; an exact polynomial oracle remains the paper's open problem",
        if any_violation { "yes" } else { "not on these instances" }
    ));
    ExperimentOutput {
        id: "e11",
        title: "Table 7: exact vs heuristic oracle ablation (open problem)",
        tables: vec![table],
        figures: Vec::new(),
        notes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::Scale;

    #[test]
    fn smoke_run_reports_tradeoff() {
        let out = run(&ExperimentContext::new(Scale::Smoke));
        assert_eq!(out.tables[0].row_count(), 2);
        assert!(out.notes.iter().any(|n| n.contains("max gap")));
    }
}
