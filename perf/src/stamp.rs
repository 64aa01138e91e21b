//! The machine stamp carried by every output document: enough to tell
//! whether two results were produced by the same code on the same kind of
//! host with the same build settings.

use serde_json::{Map, Value};
use std::process::Command;

/// The `key = value` lines of one `[section]` of a Cargo manifest, in
/// file order. Good enough for the flat profile tables compared here.
pub fn manifest_section(manifest: &str, section: &str) -> Vec<(String, String)> {
    let header = format!("[{section}]");
    manifest
        .lines()
        .map(str::trim)
        .skip_while(|line| *line != header)
        .skip(1)
        .take_while(|line| !line.starts_with('['))
        .filter(|line| !line.starts_with('#'))
        .filter_map(|line| line.split_once('='))
        .map(|(k, v)| (k.trim().to_string(), v.trim().to_string()))
        .collect()
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn git(args: &[&str]) -> Option<String> {
    let out = Command::new("git").args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Logical cores available to this process; every thread count in the
/// harness derives from it.
pub fn logical_cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Builds the stamp. `run` holds the invocation's own settings (workload,
/// seed, seconds, trace, quick), appended after the host fields.
pub fn machine_stamp(run: &[(&str, Value)]) -> Value {
    let mut m = Map::new();
    m.insert("logical_cores", Value::from(logical_cores()));
    m.insert("cpu_model", Value::from(cpu_model()));
    m.insert("rustflags", Value::from(env!("PERF_RUSTFLAGS")));
    m.insert("target_features", Value::from(env!("PERF_TARGET_FEATURES")));
    let mut profile = Map::new();
    profile.insert("name", Value::from(env!("PERF_PROFILE")));
    profile.insert("opt_level", Value::from(env!("PERF_OPT_LEVEL")));
    let section = format!("profile.{}", env!("PERF_PROFILE"));
    let section = section.replace("profile.debug", "profile.dev");
    for (k, v) in manifest_section(include_str!("../Cargo.toml"), &section) {
        profile.insert(k, Value::from(v));
    }
    m.insert("profile", Value::Object(profile));
    // The acceptance checkout is not a git repository; say so instead of
    // asking git about some enclosing one.
    let in_git = std::path::Path::new(".git").exists();
    let rev = in_git.then(|| git(&["rev-parse", "HEAD"])).flatten();
    let dirty = in_git
        .then(|| git(&["status", "--porcelain"]))
        .flatten()
        .map(|s| !s.is_empty());
    m.insert("git_rev", rev.map_or(Value::Null, Value::from));
    m.insert("git_dirty", dirty.map_or(Value::Null, Value::from));
    m.insert("fast", Value::from(bench::fast_mode()));
    for (k, v) in run {
        m.insert(*k, v.clone());
    }
    Value::Object(m)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifest_section_reads_flat_tables() {
        let text = "[a]\nx = 1\n# note\n[profile.release]\nlto = \"thin\"\ncodegen-units = 1\n\n[b]\ny = 2\n";
        assert_eq!(
            manifest_section(text, "profile.release"),
            vec![
                ("lto".to_string(), "\"thin\"".to_string()),
                ("codegen-units".to_string(), "1".to_string())
            ]
        );
        assert!(manifest_section(text, "missing").is_empty());
    }
}
