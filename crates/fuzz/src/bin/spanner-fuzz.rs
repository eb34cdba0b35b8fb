//! `spanner-fuzz` — drive the offline adversarial fuzzer from the shell.
//!
//! Usage:
//!
//! ```text
//! spanner-fuzz run [--iterations N] [--seed S] [--time-budget-ms T]
//!                  [--out PATH] [--crashes DIR]
//! spanner-fuzz corpus --out DIR [--seed S] [--per-class N]
//! spanner-fuzz replay DIR...
//! spanner-fuzz --check PATH
//! ```
//!
//! * `run` executes the fuzz loop (`spanner_fuzz::runner::run`) under
//!   the counting allocator, prints the per-class outcome table plus
//!   the time-budget skip count (never silent), writes any finding's
//!   bytes to the crashes directory, and emits the schema-checked
//!   `vft-spanner/fuzz-1` findings artifact. Non-zero exit on any
//!   finding — this is the CI `fuzz-smoke` gate.
//! * `corpus` regenerates the committed regression corpus: the
//!   legitimate seeds (named `seed__ok__<hash>.bin`) plus labeled
//!   mutants per attack class, each named with the stable error code
//!   the decoder was observed to return, so replay fails the moment
//!   the taxonomy drifts under the corpus.
//! * `replay` re-decodes every entry of one or more corpus directories
//!   under the full contract (fail-closed, deterministic, canonical)
//!   and verifies each file's outcome against its name.
//! * `--check` validates an emitted findings artifact against the
//!   `vft-spanner/fuzz-1` schema, same pattern as `perfbench --check`.

use spanner_fuzz::alloc::CountingAlloc;
use spanner_fuzz::runner::{self, check_artifact, FuzzConfig};
use spanner_fuzz::seeds::all_seeds;
use spanner_fuzz::{AttackClass, Mutator};
use spanner_harness::cli::{self, Parsed};
use spanner_harness::corpus::{self, decode_outcome, DecodeOutcome};
use spanner_harness::json;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

/// The allocation-budget contract is only measurable under the counting
/// allocator; this binary installs it so `run` reports
/// `alloc_checked: true`.
#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const USAGE: &str = "usage: spanner-fuzz run [--iterations N] [--seed S] [--time-budget-ms T]
                        [--out PATH] [--crashes DIR]
       spanner-fuzz corpus --out DIR [--seed S] [--per-class N]
       spanner-fuzz replay DIR...
       spanner-fuzz --check PATH";

struct RunArgs {
    config: FuzzConfig,
    out: Option<PathBuf>,
    crashes: Option<PathBuf>,
}

struct CorpusArgs {
    out: PathBuf,
    seed: u64,
    per_class: usize,
}

enum Command {
    Run(RunArgs),
    Corpus(CorpusArgs),
    Replay(Vec<PathBuf>),
    Check(PathBuf),
}

fn parse_args() -> Result<Parsed<Command>, String> {
    let mut it = std::env::args().skip(1);
    let sub = match it.next() {
        None => return Err("missing subcommand (run, corpus, replay, or --check)".into()),
        Some(s) if s == "--help" || s == "-h" => return Ok(Parsed::Help),
        Some(s) => s,
    };
    match sub.as_str() {
        "run" => parse_run(&mut it),
        "corpus" => parse_corpus(&mut it),
        "replay" => {
            let dirs: Vec<PathBuf> = it.by_ref().map(PathBuf::from).collect();
            if dirs.iter().any(|d| d.as_os_str() == "--help") {
                return Ok(Parsed::Help);
            }
            if dirs.is_empty() {
                return Err("replay needs at least one corpus directory".into());
            }
            Ok(Parsed::Run(Command::Replay(dirs)))
        }
        "--check" => {
            let path = cli::value_for(&mut it, "--check").map(PathBuf::from)?;
            Ok(Parsed::Run(Command::Check(path)))
        }
        other => Err(format!("unknown subcommand {other:?}")),
    }
}

fn parse_run(it: &mut impl Iterator<Item = String>) -> Result<Parsed<Command>, String> {
    let mut config = FuzzConfig::default();
    let mut out = None;
    let mut crashes = None;
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--iterations" => config.iterations = cli::parsed_value(it, "--iterations")?,
            "--seed" => config.seed = cli::parsed_value(it, "--seed")?,
            "--time-budget-ms" => {
                let ms: u64 = cli::parsed_value(it, "--time-budget-ms")?;
                config.time_budget = Some(Duration::from_millis(ms));
            }
            "--out" => out = Some(PathBuf::from(cli::value_for(it, "--out")?)),
            "--crashes" => crashes = Some(PathBuf::from(cli::value_for(it, "--crashes")?)),
            "--help" | "-h" => return Ok(Parsed::Help),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if config.iterations == 0 {
        return Err("--iterations must be positive".into());
    }
    Ok(Parsed::Run(Command::Run(RunArgs {
        config,
        out,
        crashes,
    })))
}

fn parse_corpus(it: &mut impl Iterator<Item = String>) -> Result<Parsed<Command>, String> {
    let mut out = None;
    let mut seed = 1u64;
    let mut per_class = 4usize;
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--out" => out = Some(PathBuf::from(cli::value_for(it, "--out")?)),
            "--seed" => seed = cli::parsed_value(it, "--seed")?,
            "--per-class" => per_class = cli::parsed_value(it, "--per-class")?,
            "--help" | "-h" => return Ok(Parsed::Help),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let out = out.ok_or("corpus needs --out DIR")?;
    if per_class == 0 {
        return Err("--per-class must be positive".into());
    }
    Ok(Parsed::Run(Command::Corpus(CorpusArgs {
        out,
        seed,
        per_class,
    })))
}

fn run_fuzz(args: RunArgs) -> Result<(), String> {
    let report = runner::run(&args.config)?;
    println!(
        "fuzz: {} mutants over {} seeds, {:.0} ms (seed {})",
        report.executed,
        report.seeds.len(),
        report.wall_ms,
        args.config.seed
    );
    println!(
        "alloc budget: {}",
        if report.alloc_checked {
            "enforced (counting allocator installed)"
        } else {
            "NOT CHECKED"
        }
    );
    for (class, codes) in &report.by_class {
        for (code, count) in codes {
            println!("  {class:<18} {code:<26} {count:>6}");
        }
    }
    // No silent caps: the skip count is printed even when zero.
    println!(
        "skipped by time budget: {} of {}",
        report.skipped_time_budget, args.config.iterations
    );

    if let Some(dir) = &args.crashes {
        if !report.findings.is_empty() {
            std::fs::create_dir_all(dir)
                .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
            for finding in &report.findings {
                let name = corpus::corpus_file_name(finding.class.name(), None, &finding.bytes);
                let path = dir.join(&name);
                std::fs::write(&path, &finding.bytes)
                    .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
                println!("wrote crash input {}", path.display());
            }
        }
    }

    let doc = report.to_json(&args.config);
    // The emitter validates its own artifact before anything consumes
    // it — the same self-check discipline as the perf benches.
    check_artifact(&doc).map_err(|e| format!("internal error: emitted a bad artifact: {e}"))?;
    if let Some(path) = &args.out {
        std::fs::write(path, format!("{doc}\n"))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!("wrote findings artifact {}", path.display());
    }

    if !report.is_clean() {
        for finding in &report.findings {
            eprintln!(
                "FINDING [{}] class {}: {}",
                finding.kind.name(),
                finding.class.name(),
                finding.detail
            );
        }
        return Err(format!(
            "{} contract violation(s) found",
            report.findings.len()
        ));
    }
    println!("no findings: fail-closed, deterministic, canonical, allocation-bounded");
    Ok(())
}

fn run_corpus(args: CorpusArgs) -> Result<(), String> {
    std::fs::create_dir_all(&args.out)
        .map_err(|e| format!("cannot create {}: {e}", args.out.display()))?;
    let seeds = all_seeds();
    let mut mutator = Mutator::new(args.seed);
    let mut written = 0usize;
    let mut covered: std::collections::BTreeSet<String> = std::collections::BTreeSet::new();
    let mut label_and_write = |class: &str, bytes: &[u8]| -> Result<(), String> {
        let outcome = decode_outcome(bytes)
            .map_err(|why| format!("corpus input violated a decode contract: {why}"))?;
        covered.insert(outcome.label().to_string());
        let expected = match outcome {
            DecodeOutcome::Accepted => None,
            DecodeOutcome::Rejected(code) => Some(code),
        };
        let path = args
            .out
            .join(corpus::corpus_file_name(class, expected, bytes));
        std::fs::write(&path, bytes)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        written += 1;
        Ok(())
    };

    // Legitimate inputs are corpus entries too: replay proves they keep
    // decoding (the committed half of the false-positive guard).
    for seed in &seeds {
        label_and_write("seed", &seed.bytes)?;
    }
    // Sampled mutants per class, labeled with their observed outcome.
    for class in AttackClass::ALL {
        let mut kept = 0usize;
        let mut attempts = 0usize;
        // Degraded mutants (no recoverable framing) belong to the class
        // they actually are, so they don't count toward this one.
        while kept < args.per_class && attempts < args.per_class * 64 {
            let seed = &seeds[attempts % seeds.len()];
            attempts += 1;
            let mutant = mutator.mutate_class(class, &seed.bytes);
            if mutant.class != class {
                continue;
            }
            label_and_write(class.name(), &mutant.bytes)?;
            kept += 1;
        }
        if kept < args.per_class {
            return Err(format!(
                "class {} produced only {kept} of {} labeled mutants",
                class.name(),
                args.per_class
            ));
        }
    }
    // Directed probes: one input aimed at each decoder gate random
    // sampling may miss in a corpus this small.
    for probe in spanner_fuzz::seeds::directed_probes() {
        label_and_write(probe.class, &probe.bytes)?;
    }

    // The corpus is a regression gate on the taxonomy: every decode
    // code must be exercised, or regeneration fails loudly.
    let mut missing: Vec<&str> = corpus::decode_outcome_labels()
        .into_iter()
        .filter(|code| !covered.contains(*code))
        .collect();
    missing.sort_unstable();
    if !missing.is_empty() {
        return Err(format!(
            "corpus does not exercise the full decode taxonomy; missing: {}",
            missing.join(", ")
        ));
    }
    println!(
        "wrote {written} corpus entries to {} covering all {} decode outcomes",
        args.out.display(),
        covered.len()
    );
    Ok(())
}

fn run_replay(dirs: Vec<PathBuf>) -> Result<(), String> {
    let mut clean = true;
    for dir in &dirs {
        let report = corpus::replay_dir(dir, true)?;
        println!("{}: {} entries", dir.display(), report.files);
        for line in report.count_lines() {
            println!("  {line}");
        }
        for mismatch in &report.mismatches {
            eprintln!("MISMATCH {}: {mismatch}", dir.display());
        }
        for failure in &report.failures {
            eprintln!("CONTRACT {}: {failure}", dir.display());
        }
        clean &= report.is_clean();
    }
    if !clean {
        return Err("corpus replay found mismatches or contract violations".into());
    }
    println!("replay clean: every entry matched its expected outcome");
    Ok(())
}

fn run_check(path: PathBuf) -> Result<(), String> {
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    check_artifact(&doc).map_err(|e| format!("{}: {e}", path.display()))?;
    println!(
        "{}: valid {} artifact",
        path.display(),
        runner::FINDINGS_SCHEMA
    );
    Ok(())
}

fn main() -> ExitCode {
    cli::run_main("spanner-fuzz", USAGE, parse_args, |command| match command {
        Command::Run(args) => run_fuzz(args),
        Command::Corpus(args) => run_corpus(args),
        Command::Replay(dirs) => run_replay(dirs),
        Command::Check(path) => run_check(path),
    })
}
