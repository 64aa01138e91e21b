//! Automated configuration search over a checked-in scenario manifest:
//! expands the manifest, screens every (reward point, scenario, policy)
//! candidate on a cheap seed prefix, promotes the top fraction to the
//! full seed budget (successive halving), and reports the healthiest
//! configuration found.
//!
//! Outputs (under `RESULTS_DIR`, default `results/`):
//!
//! * `BENCH_search_<name>.json` — canonical machine-readable search
//!   report (byte-identical across runs and `EXPER_THREADS` values).
//! * `search_<name>_frontier.csv` — every candidate, healthiest first.
//! * `search_<name>.md` — human-readable frontier table + provenance.

use super::Outcome;
use crate::manifests::{
    checked_in_manifest, checked_in_manifest_names, load_checked_manifest, manifest_dir,
    pretrained_trainer,
};
use crate::{emit_csv, emit_markdown, fast_mode, results_dir};
use drl_vnf_edge::prelude::*;
use std::fmt::Write as _;

fn usage() -> ! {
    eprintln!(
        "usage: search_drive <manifest-name>\n\
         \x20      search_drive --write-manifests\n\
         \n\
         Checked-in manifests: {}\n\
         Env: FAST=1 (smoke sizes), EXPER_THREADS=<n>, RESULTS_DIR=<dir>,\n\
         \x20    MANIFEST_DIR=<dir> (default: manifests)",
        checked_in_manifest_names().join(", ")
    );
    std::process::exit(2);
}

/// Regenerates every checked-in manifest JSON file from its in-code
/// definition (the recovery path after an intentional definition edit).
fn write_manifests() -> Outcome {
    let dir = manifest_dir();
    for &name in checked_in_manifest_names() {
        let manifest = checked_in_manifest(name).ok_or("unregistered manifest name")?;
        let path = dir.join(format!("{name}.json"));
        write_lines(&path, &[serde_json::to_string_pretty(&manifest.to_json())])?;
        eprintln!(
            "[search] wrote {} ({})",
            path.display(),
            manifest.fingerprint()
        );
    }
    Ok(())
}

/// Searches the named manifest, or regenerates the checked-in manifest
/// files (`--write-manifests`).
pub fn run(args: &[String]) -> Outcome {
    let mut name: Option<String> = None;
    for arg in args {
        match arg.as_str() {
            "--write-manifests" => return write_manifests(),
            other if name.is_none() && !other.starts_with('-') => name = Some(other.to_string()),
            _ => usage(),
        }
    }
    let Some(name) = name else { usage() };

    let manifest = load_checked_manifest(&name);
    eprintln!(
        "[search] manifest `{}` ({}), fast={}",
        manifest.name,
        manifest.fingerprint(),
        fast_mode()
    );
    let mut trainer = pretrained_trainer(&manifest);
    let report = SearchDriver::new(manifest).run_with(fast_mode(), &mut trainer);
    let path = report.write_canonical_to(&results_dir())?;
    eprintln!(
        "[search] wrote {} ({} candidates, {}/{} runs)",
        path.display(),
        report.candidates.len(),
        report.runs_evaluated,
        report.runs_exhaustive
    );

    let ranking = report.ranking();
    let mut csv = vec![
        "rank,alpha,beta,scenario,policy,x,seeds_run,screened_health,promoted,health".to_string(),
    ];
    for (rank, &i) in ranking.iter().enumerate() {
        let c = &report.candidates[i];
        csv.push(format!(
            "{},{},{},{},{},{},{},{:.4},{},{:.4}",
            rank + 1,
            c.alpha,
            c.beta,
            c.scenario,
            c.policy,
            c.x,
            c.seeds_run,
            c.screened_health,
            c.promoted,
            c.health,
        ));
    }
    emit_csv(&format!("search_{name}_frontier.csv"), &csv);

    let best = report.best_candidate();
    let mut md = String::new();
    let _ = writeln!(md, "# Search: {name}\n");
    let _ = writeln!(
        md,
        "- manifest fingerprint: `{}`",
        report.manifest_fingerprint
    );
    let _ = writeln!(
        md,
        "- halving: screen {} seed(s), promote top {:.0}% to {} seed(s)",
        report.screen_seeds,
        100.0 * report.promote_fraction,
        report.full_seeds
    );
    let _ = writeln!(
        md,
        "- budget: {} of {} exhaustive (cell × seed) runs ({:.0}%)",
        report.runs_evaluated,
        report.runs_exhaustive,
        100.0 * report.runs_evaluated as f64 / report.runs_exhaustive as f64
    );
    let _ = writeln!(
        md,
        "- best: **{}** @ {} (α={}, β={}) with health {:.4}\n",
        best.policy, best.scenario, best.alpha, best.beta, best.health
    );
    md.push_str("| rank | α | β | scenario | policy | screened | promoted | seeds | health |\n");
    md.push_str("|---|---|---|---|---|---|---|---|---|\n");
    for (rank, &i) in ranking.iter().enumerate() {
        let c = &report.candidates[i];
        let _ = writeln!(
            md,
            "| {} | {} | {} | {} | {} | {:.4} | {} | {} | {:.4} |",
            rank + 1,
            c.alpha,
            c.beta,
            c.scenario,
            c.policy,
            c.screened_health,
            if c.promoted { "yes" } else { "no" },
            c.seeds_run,
            c.health,
        );
    }
    emit_markdown(&format!("search_{name}.md"), &md);
    Ok(())
}
