//! Shared command-line plumbing for the harness binaries.
//!
//! Every harness binary (`repro`, `scenarios`, `spanner-artifact`)
//! speaks the same dialect:
//!
//! * `--help` / `-h` prints the usage text to **stdout** and exits 0
//!   (help is a successful outcome, not an error);
//! * an unknown flag, a flag missing its value, or an unparsable value
//!   prints `<bin>: <message>` plus the usage to **stderr** and exits
//!   non-zero — no panics, no silently applied defaults;
//! * a runtime failure prints `<bin>: <message>` to stderr and exits
//!   non-zero.
//!
//! [`run_main`] packages that contract so each binary's `main` is one
//! call, and the small parsing helpers ([`value_for`], [`parsed_value`])
//! keep the per-flag error messages consistent across binaries.

use std::process::ExitCode;
use std::str::FromStr;

/// What an argument parser decided: run with the parsed configuration,
/// or print help and exit successfully.
#[derive(Debug)]
pub enum Parsed<T> {
    /// Proceed with this configuration.
    Run(T),
    /// The user asked for `--help`.
    Help,
}

/// Drives a binary's `main`: `parse` interprets the raw arguments
/// (returning [`Parsed::Help`] for `--help`, `Err` for bad input), `run`
/// does the work. See the module docs for the exit-code contract.
pub fn run_main<T>(
    bin: &str,
    usage: &str,
    parse: impl FnOnce() -> Result<Parsed<T>, String>,
    run: impl FnOnce(T) -> Result<(), String>,
) -> ExitCode {
    let config = match parse() {
        Ok(Parsed::Run(config)) => config,
        Ok(Parsed::Help) => {
            println!("{usage}");
            return ExitCode::SUCCESS;
        }
        Err(message) => {
            eprintln!("{bin}: {message}");
            eprintln!("{usage}");
            return ExitCode::FAILURE;
        }
    };
    match run(config) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("{bin}: {message}");
            ExitCode::FAILURE
        }
    }
}

/// Pulls the value of `--flag` from the argument stream, with the
/// consistent "needs a value" error when it is absent.
pub fn value_for(it: &mut impl Iterator<Item = String>, flag: &str) -> Result<String, String> {
    it.next().ok_or_else(|| format!("{flag} needs a value"))
}

/// Pulls and parses the value of `--flag`, with a consistent message
/// naming both the flag and the offending token on failure.
pub fn parsed_value<T: FromStr>(
    it: &mut impl Iterator<Item = String>,
    flag: &str,
) -> Result<T, String> {
    let raw = value_for(it, flag)?;
    raw.parse::<T>()
        .map_err(|_| format!("bad value for {flag}: {raw:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_helpers_report_flag_names() {
        let mut empty = std::iter::empty::<String>();
        let err = value_for(&mut empty, "--out").unwrap_err();
        assert!(err.contains("--out"));
        let mut bad = ["nope".to_string()].into_iter();
        let err = parsed_value::<usize>(&mut bad, "--threads").unwrap_err();
        assert!(err.contains("--threads") && err.contains("nope"));
        let mut good = ["8".to_string()].into_iter();
        assert_eq!(parsed_value::<usize>(&mut good, "--threads").unwrap(), 8);
    }

    #[test]
    fn run_main_maps_outcomes_to_exit_codes() {
        // ExitCode has no PartialEq; its Debug form is stable enough to
        // distinguish success from failure within one test.
        let repr = |code: ExitCode| format!("{code:?}");
        let ok = run_main("t", "usage", || Ok(Parsed::Run(())), |()| Ok(()));
        assert_eq!(repr(ok), repr(ExitCode::SUCCESS));
        let help = run_main("t", "usage", || Ok(Parsed::<()>::Help), |()| Ok(()));
        assert_eq!(repr(help), repr(ExitCode::SUCCESS));
        let bad_args = run_main(
            "t",
            "usage",
            || Err::<Parsed<()>, _>("nope".into()),
            |()| Ok(()),
        );
        assert_eq!(repr(bad_args), repr(ExitCode::FAILURE));
        let failed = run_main(
            "t",
            "usage",
            || Ok(Parsed::Run(())),
            |()| Err("boom".into()),
        );
        assert_eq!(repr(failed), repr(ExitCode::FAILURE));
    }
}
