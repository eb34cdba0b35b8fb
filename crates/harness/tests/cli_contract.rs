//! The shared CLI contract, pinned for every harness binary.
//!
//! [`spanner_harness::cli`] documents one dialect for all harness
//! binaries: `--help` prints the usage text to **stdout** and exits 0;
//! an unknown flag prints `<bin>: <message>` plus the usage to
//! **stderr** and exits non-zero, with nothing on stdout and no panic.
//! Each binary wires that contract up itself through `cli::run_main`,
//! so a new binary (or a refactored parser) can silently drift — this
//! suite spawns every one of them and checks the observable behavior,
//! not the plumbing.

use std::process::{Command, Output};

/// Every harness binary: (name, path). `env!(CARGO_BIN_EXE_*)` makes
/// cargo build each one before the test runs — a binary missing from
/// this list compiles out of the contract, so add new binaries here.
const BINS: &[(&str, &str)] = &[
    ("frontierbench", env!("CARGO_BIN_EXE_frontierbench")),
    ("perfbench", env!("CARGO_BIN_EXE_perfbench")),
    ("querybench", env!("CARGO_BIN_EXE_querybench")),
    ("repro", env!("CARGO_BIN_EXE_repro")),
    ("scenarios", env!("CARGO_BIN_EXE_scenarios")),
    ("spanner-artifact", env!("CARGO_BIN_EXE_spanner-artifact")),
];

fn run(path: &str, args: &[&str]) -> Output {
    Command::new(path)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("{path} must spawn: {e}"))
}

#[test]
fn every_binary_prints_usage_on_stdout_for_help_and_exits_zero() {
    for (name, path) in BINS {
        for flag in ["--help", "-h"] {
            let out = run(path, &[flag]);
            assert!(
                out.status.success(),
                "{name} {flag}: help is a successful outcome, got {:?}\nstderr: {}",
                out.status.code(),
                String::from_utf8_lossy(&out.stderr)
            );
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(
                stdout.contains("usage:"),
                "{name} {flag}: usage text must be on stdout, got: {stdout:?}"
            );
            assert!(
                stdout.contains(name),
                "{name} {flag}: usage must name the binary, got: {stdout:?}"
            );
            assert!(
                out.stderr.is_empty(),
                "{name} {flag}: help must not write to stderr: {}",
                String::from_utf8_lossy(&out.stderr)
            );
        }
    }
}

#[test]
fn every_binary_rejects_an_unknown_flag_on_stderr_without_panicking() {
    for (name, path) in BINS {
        let out = run(path, &["--definitely-not-a-flag"]);
        assert!(
            !out.status.success(),
            "{name}: an unknown flag must exit non-zero"
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.starts_with(&format!("{name}: ")),
            "{name}: diagnostics must lead with the binary name, got: {stderr:?}"
        );
        assert!(
            stderr.contains("usage:"),
            "{name}: a usage reminder must accompany the rejection, got: {stderr:?}"
        );
        assert!(
            !stderr.contains("panicked"),
            "{name}: bad arguments must never panic: {stderr:?}"
        );
        assert!(
            out.stdout.is_empty(),
            "{name}: rejections belong on stderr, stdout got: {}",
            String::from_utf8_lossy(&out.stdout)
        );
    }
}

#[test]
fn every_bench_binary_rejects_a_check_flag_without_a_value() {
    // The artifact-emitting binaries share `--check PATH`; a dangling
    // `--check` must produce the consistent "needs a value" message.
    for name in ["perfbench", "querybench", "scenarios"] {
        let path = BINS
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, p)| *p)
            .expect("bin listed above");
        let out = run(path, &["--check"]);
        assert!(!out.status.success(), "{name}: dangling --check must fail");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("--check") && stderr.contains("needs a value"),
            "{name}: expected the shared needs-a-value diagnostic, got: {stderr:?}"
        );
    }
}
