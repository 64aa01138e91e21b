//! Markdown digest of the `BENCH_*.json` artifacts: the table CI appends
//! to `$GITHUB_STEP_SUMMARY` so headline rates are readable per run
//! without downloading the results artifact.

use mano::report::{BenchReport, SearchReport};
use serde_json::{Error as JsonError, FromJson, Value};
use std::path::Path;

/// One row of `BENCH_metro.json`'s `scales` (fig13's streaming sweep).
struct MetroScale {
    scale: u64,
    requests: u64,
    requests_per_sec: f64,
    peak_mem_bytes: f64,
}

impl FromJson for MetroScale {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        Ok(Self {
            scale: v.req("scale")?,
            requests: v.req("requests")?,
            requests_per_sec: v.req("requests_per_sec")?,
            peak_mem_bytes: v.req("peak_mem_bytes")?,
        })
    }
}

/// The fig13 metro streaming sweep's table.
fn metro_markdown(doc: &Value) -> Result<String, JsonError> {
    let scales: Vec<MetroScale> = doc.req("scales")?;
    let mut out = String::from("\n### Metro streaming sweep (BENCH_metro.json)\n\n");
    out.push_str("| scale | requests | req/s | peak heap (MiB) |\n");
    out.push_str("|---:|---:|---:|---:|\n");
    for s in &scales {
        out.push_str(&format!(
            "| {}x | {} | {:.0} | {:.1} |\n",
            s.scale,
            s.requests,
            s.requests_per_sec,
            s.peak_mem_bytes / (1024.0 * 1024.0),
        ));
    }
    out.push_str(&format!(
        "\nacross the sweep: throughput {:.2}x, peak heap {:.2}x\n",
        doc.req::<f64>("throughput_ratio")?,
        doc.req::<f64>("peak_mem_ratio")?,
    ));
    Ok(out)
}

/// Renders the markdown digest of every `BENCH_*.json` in `dir`: a
/// headline table for the grid reports (cells, threads, wall clock,
/// slots/s) and, when present, a dedicated table for the fig13 metro
/// streaming sweep. Each file is read and parsed once, in file-name order
/// so the output is stable; a file that does not read as its kind of
/// report is skipped with the reason rather than failing the summary.
pub fn results_markdown(dir: &Path) -> String {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok())
                .filter_map(|e| e.file_name().into_string().ok())
                .filter(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
                .collect()
        })
        .unwrap_or_default();
    names.sort();

    let mut grids: Vec<(&str, BenchReport)> = Vec::new();
    let mut searches: Vec<SearchReport> = Vec::new();
    let mut metro: Option<String> = None;
    let mut skipped: Vec<String> = Vec::new();
    for name in &names {
        let read = serde_json::from_file::<Value>(&dir.join(name)).and_then(|doc| {
            if name == "BENCH_metro.json" {
                metro = Some(metro_markdown(&doc)?);
            } else if name.starts_with("BENCH_search_") {
                searches.push(SearchReport::from_json(&doc)?);
            } else {
                grids.push((name, BenchReport::from_json(&doc)?));
            }
            Ok(())
        });
        if let Err(e) = read {
            skipped.push(format!("`{name}`: {}", JsonError { file: None, ..e }));
        }
    }

    let mut out = String::from("## Bench results\n\n");
    if grids.is_empty() && searches.is_empty() && metro.is_none() && skipped.is_empty() {
        out.push_str("_no BENCH_*.json reports found_\n");
        return out;
    }
    if !grids.is_empty() {
        out.push_str("| report | cells | threads | wall (s) | slots/s |\n");
        out.push_str("|---|---:|---:|---:|---:|\n");
        for (name, r) in &grids {
            out.push_str(&format!(
                "| {name} | {} | {} | {:.2} | {:.0} |\n",
                r.cells.len(),
                r.threads,
                r.wall_clock_secs,
                r.throughput_slots_per_sec
            ));
        }
    }
    out.push_str(metro.as_deref().unwrap_or_default());
    if !searches.is_empty() {
        out.push_str(&searches_markdown(&searches));
    }
    for line in &skipped {
        out.push_str(&format!("\n⚠ skipped {line}\n"));
    }
    out
}

/// Digest of the manifest searches (`BENCH_search_*.json`): one row per
/// search with the winning cell and its composite health, plus a ⚠ line
/// whenever a search's recorded manifest fingerprint no longer matches
/// the checked-in manifest of the same name — that search's results
/// describe a manifest that has since been edited.
fn searches_markdown(searches: &[SearchReport]) -> String {
    let mut out = String::from("\n### Manifest searches (BENCH_search_*.json)\n\n");
    out.push_str("| search | best policy | scenario | α | β | health | runs |\n");
    out.push_str("|---|---|---|---:|---:|---:|---:|\n");
    let mut warnings: Vec<String> = Vec::new();
    for report in searches {
        let best = report.best_candidate();
        out.push_str(&format!(
            "| {} | **{}** | {} | {} | {} | {:.4} | {}/{} |\n",
            report.name,
            best.policy,
            best.scenario,
            best.alpha,
            best.beta,
            best.health,
            report.runs_evaluated,
            report.runs_exhaustive,
        ));
        if let Some(expected) = checked_in_fingerprint(&report.name) {
            if expected != report.manifest_fingerprint {
                warnings.push(format!(
                    "`BENCH_search_{}.json`: manifest fingerprint {} does not match \
                     the checked-in `{}` manifest ({}) — the search ran against a \
                     manifest that has since changed",
                    report.name, report.manifest_fingerprint, report.name, expected
                ));
            }
        }
    }
    for w in &warnings {
        out.push_str(&format!("\n⚠ {w}\n"));
    }
    out
}

/// The fingerprint of the checked-in manifest named `name`: the file
/// under [`crate::manifests::manifest_dir`] when readable, else the
/// in-code definition (the golden test pins the two together, so either
/// source gives the same answer from a clean checkout). `None` for
/// searches over manifests this repo doesn't check in.
fn checked_in_fingerprint(name: &str) -> Option<String> {
    exper::manifest::ScenarioManifest::load(&crate::manifests::manifest_dir(), name)
        .ok()
        .or_else(|| crate::manifests::checked_in_manifest(name))
        .map(|m| m.fingerprint())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("bench_summary_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create temp dir");
        dir
    }

    #[test]
    fn empty_dir_notes_absence() {
        let dir = temp_dir("empty");
        let md = results_markdown(&dir);
        assert!(md.contains("no BENCH_*.json"));
    }

    #[test]
    fn metro_table_renders() {
        let dir = temp_dir("metro");
        std::fs::write(
            dir.join("BENCH_metro.json"),
            r#"{"name":"fig13_metro","requests_per_sec":250000.0,
                "throughput_ratio":1.4,"peak_mem_ratio":1.02,
                "scales":[{"scale":1,"requests":5000,"requests_per_sec":200000.0,
                           "peak_mem_bytes":209715.2},
                          {"scale":100,"requests":500000,"requests_per_sec":250000.0,
                           "peak_mem_bytes":214958.0}]}"#,
        )
        .unwrap();
        let md = results_markdown(&dir);
        assert!(md.contains("| 1x | 5000 | 200000 | 0.2 |"), "{md}");
        assert!(md.contains("| 100x | 500000 | 250000 | 0.2 |"), "{md}");
        assert!(md.contains("throughput 1.40x, peak heap 1.02x"), "{md}");
    }

    fn search_report(name: &str, fingerprint: &str) -> mano::report::SearchReport {
        mano::report::SearchReport {
            name: name.into(),
            manifest_fingerprint: fingerprint.into(),
            fast: true,
            screen_seeds: 1,
            full_seeds: 2,
            promote_fraction: 0.5,
            runs_evaluated: 9,
            runs_exhaustive: 12,
            health_weights: vec![("acceptance_ratio".into(), 3.0, true)],
            candidates: vec![mano::report::SearchCandidate {
                point: 0,
                scenario: "lambda=2".into(),
                policy: "first-fit".into(),
                x: 2.0,
                alpha: 1.0,
                beta: 1.0,
                screened_health: 0.7,
                promoted: true,
                seeds_run: 2,
                health: 0.8125,
            }],
            best: 0,
            points: Vec::new(),
        }
    }

    #[test]
    fn search_digest_renders_and_flags_fingerprint_drift() {
        let dir = temp_dir("search");
        // A search whose recorded fingerprint drifted from the checked-in
        // smoke manifest, and one over a manifest this repo doesn't know.
        search_report("smoke", "smoke-0000000000000000")
            .write_canonical_to(&dir)
            .unwrap();
        search_report("offbook", "offbook-1111111111111111")
            .write_canonical_to(&dir)
            .unwrap();
        let md = results_markdown(&dir);
        assert!(
            md.contains("| smoke | **first-fit** | lambda=2 | 1 | 1 | 0.8125 | 9/12 |"),
            "{md}"
        );
        assert!(md.contains("| offbook |"), "{md}");
        assert!(
            md.contains("⚠ `BENCH_search_smoke.json`: manifest fingerprint"),
            "{md}"
        );
        assert!(
            !md.contains("`BENCH_search_offbook.json`: manifest"),
            "unknown manifests have nothing to drift from: {md}"
        );
        // Search reports must not leak into the grid headline table.
        assert!(!md.contains("| BENCH_search_smoke.json |"), "{md}");
    }

    #[test]
    fn search_digest_is_quiet_when_fingerprints_agree() {
        let dir = temp_dir("search_ok");
        let fp = crate::manifests::smoke_manifest().fingerprint();
        search_report("smoke", &fp)
            .write_canonical_to(&dir)
            .unwrap();
        let md = results_markdown(&dir);
        assert!(md.contains("| smoke | **first-fit** |"), "{md}");
        assert!(!md.contains('⚠'), "{md}");
    }

    #[test]
    fn grid_table_renders_and_skips_unparseable() -> std::io::Result<()> {
        let dir = temp_dir("full");
        let report = BenchReport {
            name: "alpha".into(),
            threads: 4,
            wall_clock_secs: 1.5,
            slots_simulated: 600,
            throughput_slots_per_sec: 400.0,
            fingerprint: String::new(),
            cells: Vec::new(),
            aggregates: Vec::new(),
        };
        report.write_to(&dir)?;
        std::fs::write(dir.join("BENCH_broken.json"), "{oops")?;
        std::fs::write(dir.join("BENCH_beta.json"), r#"{"schema_version":1}"#)?;
        let md = results_markdown(&dir);
        assert!(
            md.contains("| BENCH_alpha.json | 0 | 4 | 1.50 | 400 |"),
            "{md}"
        );
        assert!(
            md.contains("⚠ skipped `BENCH_broken.json`: byte 1: expected `\"`, found `o`"),
            "{md}"
        );
        assert!(
            md.contains("⚠ skipped `BENCH_beta.json`: cells: expected a field, found none"),
            "{md}"
        );
        Ok(())
    }

    #[test]
    fn search_report_with_best_out_of_range_is_skipped_not_a_panic() -> std::io::Result<()> {
        let dir = temp_dir("search_best");
        let mut report = search_report("offbook", "offbook-1111111111111111");
        report.best = 3;
        report.write_canonical_to(&dir)?;
        let md = results_markdown(&dir);
        assert!(
            md.contains(
                "⚠ skipped `BENCH_search_offbook.json`: best: expected an index below 1 \
                 (the candidate count), found 3"
            ),
            "{md}"
        );
        assert!(!md.contains("| offbook |"), "{md}");
        Ok(())
    }
}
