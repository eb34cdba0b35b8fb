//! E10 / Table 6 — fault-injection stretch audit across constructions.
//!
//! The final cross-cutting check: every construction in the repository
//! (FT-greedy VFT, FT-greedy EFT, the DK-style baseline, the union
//! baseline), audited under randomized fault injection, the adversarial
//! witness replay and the exact certificate `certify_ft_exact` in the
//! row's fault model. Claims: zero violations everywhere, and observed
//! worst stretch at most the target `k`.

use super::{ExperimentContext, ExperimentOutput};
use crate::{cell_seed, fnum, Table};
use rand::rngs::StdRng;
use rand::SeedableRng;
use spanner_core::baselines::{dk_spanner, union_eft_spanner, DkParams};
use spanner_core::verify::{
    certify_ft_exact, verify_ft_adversarial, verify_ft_sampled, verify_spanner,
};
use spanner_core::FtGreedy;
use spanner_faults::FaultModel;
use spanner_graph::generators::erdos_renyi;

/// Runs E10. See the module docs.
pub fn run(ctx: &ExperimentContext) -> ExperimentOutput {
    let n = ctx.pick(24, 50, 80);
    let p = ctx.pick(0.35, 0.2, 0.15);
    let stretch = 3u64;
    let f = 2usize;
    let trials = ctx.pick(15usize, 40, 80);

    let mut rng = StdRng::seed_from_u64(cell_seed(10, 0, 0));
    let g = erdos_renyi(n, p, &mut rng);

    let mut table = Table::new(
        format!(
            "E10: stretch audit under fault injection  (G(n={n}, p={p}), stretch {stretch}, f={f}, {trials} sampled fault sets)"
        ),
        [
            "construction",
            "model",
            "|E(H)|",
            "plain max stretch",
            "sampled viol",
            "adversarial viol",
            "exact ∀F certificate",
        ],
    );
    let mut notes = Vec::new();
    let mut total_violations = 0usize;

    // FT-greedy, vertex model.
    let vft = FtGreedy::new(&g, stretch).faults(f).run();
    let plain = verify_spanner(&g, vft.spanner());
    let sampled = verify_ft_sampled(&g, vft.spanner(), f, FaultModel::Vertex, trials, &mut rng);
    let adversarial = verify_ft_adversarial(&g, &vft);
    let certificate = certify_ft_exact(&g, vft.spanner(), f, FaultModel::Vertex);
    if certificate.is_some() {
        total_violations += 1;
    }
    total_violations += sampled.violations + adversarial.violations;
    table.row([
        "ft-greedy".to_string(),
        "vertex".to_string(),
        vft.spanner().edge_count().to_string(),
        fnum(plain.max_stretch),
        sampled.violations.to_string(),
        adversarial.violations.to_string(),
        verdict(&certificate),
    ]);

    // FT-greedy, edge model.
    let eft = FtGreedy::new(&g, stretch)
        .faults(f)
        .model(FaultModel::Edge)
        .run();
    let plain = verify_spanner(&g, eft.spanner());
    let sampled = verify_ft_sampled(&g, eft.spanner(), f, FaultModel::Edge, trials, &mut rng);
    let adversarial = verify_ft_adversarial(&g, &eft);
    let certificate = certify_ft_exact(&g, eft.spanner(), f, FaultModel::Edge);
    if certificate.is_some() {
        total_violations += 1;
    }
    total_violations += sampled.violations + adversarial.violations;
    table.row([
        "ft-greedy".to_string(),
        "edge".to_string(),
        eft.spanner().edge_count().to_string(),
        fnum(plain.max_stretch),
        sampled.violations.to_string(),
        adversarial.violations.to_string(),
        verdict(&certificate),
    ]);

    // DK baseline (vertex model).
    let dk = dk_spanner(&g, stretch, DkParams::heuristic(n, f, 3.0), &mut rng);
    let plain = verify_spanner(&g, &dk);
    let sampled = verify_ft_sampled(&g, &dk, f, FaultModel::Vertex, trials, &mut rng);
    let dk_certificate = certify_ft_exact(&g, &dk, f, FaultModel::Vertex);
    if dk_certificate.is_some() {
        total_violations += 1;
    }
    total_violations += sampled.violations;
    table.row([
        "dk-baseline".to_string(),
        "vertex".to_string(),
        dk.edge_count().to_string(),
        fnum(plain.max_stretch),
        sampled.violations.to_string(),
        "-".to_string(),
        verdict(&dk_certificate),
    ]);

    // Union baseline (edge model).
    let union = union_eft_spanner(&g, stretch, f);
    let plain = verify_spanner(&g, &union);
    let sampled = verify_ft_sampled(&g, &union, f, FaultModel::Edge, trials, &mut rng);
    let union_certificate = certify_ft_exact(&g, &union, f, FaultModel::Edge);
    if union_certificate.is_some() {
        total_violations += 1;
    }
    total_violations += sampled.violations;
    table.row([
        "union-baseline".to_string(),
        "edge".to_string(),
        union.edge_count().to_string(),
        fnum(plain.max_stretch),
        sampled.violations.to_string(),
        "-".to_string(),
        verdict(&union_certificate),
    ]);

    notes.push(format!(
        "total violations across all constructions and audits: {total_violations} (must be 0)"
    ));
    if total_violations > 0 {
        notes.push(format!(
            "VIOLATION: {total_violations} audit(s) found a broken fault-tolerance contract"
        ));
    }
    notes.push(
        "every row additionally carries an EXACT ∀F certificate via per-edge oracle queries"
            .to_string(),
    );
    ExperimentOutput {
        id: "e10",
        title: "Table 6: stretch audit under fault injection",
        tables: vec![table],
        figures: Vec::new(),
        notes,
    }
}

/// The certificate column: `clean`, or `VIOLATION` when
/// `certify_ft_exact` found a parent edge some fault set stretches.
fn verdict<T>(certificate: &Option<T>) -> String {
    if certificate.is_none() {
        "clean"
    } else {
        "VIOLATION"
    }
    .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::Scale;

    #[test]
    fn smoke_run_has_zero_violations() {
        let out = run(&ExperimentContext::new(Scale::Smoke));
        assert!(out.notes.iter().any(|n| n.contains(": 0 (must be 0)")));
        assert_eq!(out.tables[0].row_count(), 4);
    }
}
