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
    // `scenarios` is the one artifact-emitting binary with
    // `--check PATH`; a dangling `--check` must produce the shared
    // "needs a value" message.
    let out = run(env!("CARGO_BIN_EXE_scenarios"), &["--check"]);
    assert!(
        !out.status.success(),
        "scenarios: dangling --check must fail"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--check") && stderr.contains("needs a value"),
        "scenarios: expected the shared needs-a-value diagnostic, got: {stderr:?}"
    );
}

#[test]
fn serve_rejects_an_oversized_thread_count_before_opening_anything() {
    // Parsing fails before any artifact is opened (the path need not
    // exist), so no thread is ever asked for.
    for threads in ["257", "1000000"] {
        let out = run(
            env!("CARGO_BIN_EXE_spanner-artifact"),
            &["serve", "no-such-artifact.vfts", "--threads", threads],
        );
        assert!(
            !out.status.success(),
            "--threads {threads} must be rejected"
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.starts_with("spanner-artifact: ")
                && stderr.contains("--threads must be at most 256"),
            "--threads {threads}: expected the bound on stderr, got: {stderr:?}"
        );
        assert!(
            stderr.contains("usage:"),
            "--threads {threads}: a usage reminder must accompany the rejection"
        );
        assert!(
            !stderr.contains("panicked"),
            "--threads {threads}: must not panic: {stderr:?}"
        );
        assert!(
            out.stdout.is_empty(),
            "--threads {threads}: stdout must stay empty"
        );
    }
}
