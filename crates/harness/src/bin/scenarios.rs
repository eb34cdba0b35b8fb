//! `scenarios` — the resilience engine sweep, as a JSON artifact.
//!
//! Usage:
//!
//! ```text
//! scenarios [--smoke | --quick | --full] [--threads N] [--out PATH]
//! scenarios --check PATH
//! ```
//!
//! Runs the E14 sweep — five failure scenarios (independent Bernoulli,
//! correlated regional outages, adversarial witness replay, burst
//! cascades, a scripted maintenance trace) × fault budgets, one paired
//! process seed — and writes one JSON document with exact per-cell
//! contract accounting (violations, in-budget/overall hit rates,
//! availability, the bounded contract-event log). The run **fails** if
//! any cell reports a contract violation: a correctly budgeted spanner
//! must never miss an in-budget query.
//!
//! `--check` re-reads any such artifact with the strict parser in
//! [`spanner_harness::json`] and validates the `scenarios-1` schema
//! (including counter consistency and the summary's clean-contract
//! certification), which is what the CI bench-smoke job runs so the
//! scenario pipeline cannot silently rot.

use spanner_harness::cli::{self, Parsed};
use spanner_harness::experiments::{e14_scenarios, ExperimentContext, Scale};
use spanner_harness::json;
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    scale: Scale,
    out: PathBuf,
    threads: Option<usize>,
    check: Option<PathBuf>,
}

const USAGE: &str = "usage: scenarios [--smoke|--quick|--full] [--threads N] [--out PATH]\n       scenarios --check PATH";

fn scale_name(scale: Scale) -> &'static str {
    match scale {
        Scale::Smoke => "smoke",
        Scale::Quick => "quick",
        Scale::Full => "full",
    }
}

fn parse_args() -> Result<Parsed<Args>, String> {
    let mut args = Args {
        scale: Scale::Full,
        out: PathBuf::from("SCENARIOS.json"),
        threads: None,
        check: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--smoke" => args.scale = Scale::Smoke,
            "--quick" => args.scale = Scale::Quick,
            "--full" => args.scale = Scale::Full,
            "--out" => args.out = PathBuf::from(cli::value_for(&mut it, "--out")?),
            "--check" => {
                args.check = Some(PathBuf::from(cli::value_for(&mut it, "--check")?));
            }
            "--threads" => args.threads = Some(cli::parsed_value(&mut it, "--threads")?),
            "--help" | "-h" => return Ok(Parsed::Help),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Parsed::Run(args))
}

fn run_sweep(args: &Args) -> Result<(), String> {
    let mut ctx = ExperimentContext::new(args.scale);
    if let Some(t) = args.threads {
        ctx.threads = t.max(1);
    }
    println!(
        "scenarios: scale={} threads={} -> {}",
        scale_name(args.scale),
        ctx.threads,
        args.out.display()
    );
    let cells = e14_scenarios::sweep(&ctx);
    let mut violations = 0usize;
    for cell in &cells {
        let o = &cell.outcome;
        violations += o.contract_violations;
        println!(
            "  {:<22} f={}  in-budget {:>4}/{:<4}  peak {:>2}  violations {:>2}  hit {:>5.1}%/{:>5.1}%  worst {:.3}",
            cell.scenario,
            cell.f,
            o.steps_within_budget,
            o.steps,
            o.peak_failures,
            o.contract_violations,
            100.0 * o.in_budget_hit_rate(),
            100.0 * o.overall_hit_rate(),
            o.worst_stretch_within_budget,
        );
    }
    let doc = e14_scenarios::artifact(scale_name(args.scale), &cells);
    let text = format!("{doc}\n");
    // Self-check before writing: the artifact must parse with the same
    // strict parser CI uses and satisfy its own schema.
    let parsed =
        json::parse(&text).map_err(|e| format!("internal error: emitted invalid JSON: {e}"))?;
    e14_scenarios::check_artifact(&parsed)
        .map_err(|e| format!("internal error: emitted off-schema artifact: {e}"))?;
    std::fs::write(&args.out, &text)
        .map_err(|e| format!("cannot write {}: {e}", args.out.display()))?;
    println!("wrote {}", args.out.display());
    if violations > 0 {
        return Err(format!(
            "{violations} contract violation(s): a correctly budgeted FT spanner must serve every in-budget query"
        ));
    }
    Ok(())
}

fn run_check(path: &PathBuf) -> Result<(), String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    e14_scenarios::check_artifact(&doc).map_err(|e| format!("{}: {e}", path.display()))?;
    let records = doc
        .get("records")
        .and_then(json::JsonValue::as_array)
        .expect("checked above");
    println!(
        "{}: ok ({} scenario records)",
        path.display(),
        records.len()
    );
    Ok(())
}

fn main() -> ExitCode {
    cli::run_main("scenarios", USAGE, parse_args, |args| match &args.check {
        Some(path) => run_check(path),
        None => run_sweep(&args),
    })
}
