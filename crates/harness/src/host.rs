//! Host metadata for bench envelopes.
//!
//! `BENCH_*.json` artifacts are committed and compared across PRs — and
//! eventually across machines (the reference container is 1-CPU; the
//! ROADMAP calls for regenerating the serving numbers on a real
//! multi-core box). Every envelope therefore records **where** it was
//! measured: logical CPU count, the exact `rustc` that built the bench,
//! and the OS/arch pair. The schema-bumped checkers
//! (`bench-3` / `querybench-3` / `querybench-4` / `frontier-1`)
//! require the block; legacy tags stay checkable without
//! it so committed artifacts from earlier PRs keep validating.

use crate::json::{num, obj, s, JsonValue};

/// Number of logical CPUs visible to this process (at least 1).
pub fn logical_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The `rustc --version` banner of the toolchain on `PATH`, or
/// `"unknown"` when it cannot be queried (the bench still runs; the
/// artifact just says so).
pub fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|v| v.trim().to_string())
        .filter(|v| !v.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The host block recorded under the `"host"` key of every bench
/// envelope: `{logical_cpus, rustc, os, arch}`.
pub fn host_json() -> JsonValue {
    obj([
        ("logical_cpus", num(logical_cpus() as f64)),
        ("rustc", s(rustc_version())),
        ("os", s(std::env::consts::OS)),
        ("arch", s(std::env::consts::ARCH)),
    ])
}

/// Validates the `"host"` block of a parsed artifact (required for the
/// bumped schema tags).
///
/// # Errors
///
/// Returns a description of the first violation found.
pub fn check_host(doc: &JsonValue) -> Result<(), String> {
    let host = doc.get("host").ok_or("missing host block")?;
    let cpus = host
        .get("logical_cpus")
        .and_then(JsonValue::as_f64)
        .ok_or("host.logical_cpus missing or not a number")?;
    if !(cpus >= 1.0 && cpus.fract() == 0.0 && cpus.is_finite()) {
        return Err(format!(
            "host.logical_cpus {cpus} is not a positive integer"
        ));
    }
    for key in ["rustc", "os", "arch"] {
        let value = host
            .get(key)
            .and_then(JsonValue::as_str)
            .ok_or_else(|| format!("host.{key} missing or not a string"))?;
        if value.is_empty() {
            return Err(format!("host.{key} is empty"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn host_json_is_self_checking() {
        let doc = obj([("host", host_json())]);
        check_host(&doc).expect("emitted host block must validate");
    }

    #[test]
    fn host_json_round_trips_through_the_strict_parser() {
        let doc = obj([("host", host_json())]);
        let reparsed = json::parse(&doc.to_string()).expect("host block must be valid JSON");
        check_host(&reparsed).expect("reparsed host block must validate");
    }

    #[test]
    fn check_host_rejects_missing_and_malformed() {
        assert!(check_host(&obj([])).is_err());
        let bad_cpus = obj([(
            "host",
            obj([
                ("logical_cpus", num(0.0)),
                ("rustc", s("rustc 1.0")),
                ("os", s("linux")),
                ("arch", s("x86_64")),
            ]),
        )]);
        assert!(check_host(&bad_cpus).is_err());
        let empty_rustc = obj([(
            "host",
            obj([
                ("logical_cpus", num(2.0)),
                ("rustc", s("")),
                ("os", s("linux")),
                ("arch", s("x86_64")),
            ]),
        )]);
        assert!(check_host(&empty_rustc).is_err());
    }

    #[test]
    fn rustc_version_is_nonempty() {
        assert!(!rustc_version().is_empty());
        assert!(logical_cpus() >= 1);
    }
}
