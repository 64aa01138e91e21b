//! Checked-in scenario manifests: the in-code definitions behind the
//! JSON files under `manifests/`, plus the loading and training plumbing
//! figures and the search driver share.
//!
//! The JSON files are the source of truth the figures load at runtime;
//! the in-code builders here exist so tests can pin the files (a drifted
//! file fails [`crate::manifests`]' golden test instead of silently
//! changing an experiment), and so the files can be regenerated
//! mechanically after an intentional edit.

use crate::{default_passes, drl_default, factory_of, fast_mode};
use exper::prelude::*;
use mano::prelude::*;
use std::collections::HashMap;
use std::path::PathBuf;

/// Every manifest name checked in under `manifests/`.
pub fn checked_in_manifest_names() -> &'static [&'static str] {
    &["fig10_reward_weights", "smoke"]
}

/// The directory holding checked-in manifest JSON files
/// (`MANIFEST_DIR` env override, default `manifests`).
pub fn manifest_dir() -> PathBuf {
    std::env::var_os("MANIFEST_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("manifests"))
}

/// Loads a checked-in manifest by name from [`manifest_dir`].
///
/// # Panics
///
/// Panics with the parse/IO error when the file is missing or invalid —
/// a missing manifest is a broken checkout, not a recoverable state.
pub fn load_checked_manifest(name: &str) -> ScenarioManifest {
    ScenarioManifest::load(&manifest_dir(), name)
        .unwrap_or_else(|e| panic!("load manifest `{name}`: {e}"))
}

/// The in-code definition of `manifests/fig10_reward_weights.json`: the
/// reward-weight frontier. Five paired (α, β) points along the
/// latency↔cost diagonal, one trained DRL column per point, evaluated at
/// the λ=8 operating point.
pub fn fig10_manifest() -> ScenarioManifest {
    let mut manifest = ScenarioManifest::new(
        "fig10_reward_weights",
        ManifestBase::bench(8.0),
        SweepSpec::ArrivalRate {
            values: FastScaled::same(Axis::single(8.0)),
        },
    )
    .reward(RewardAxes {
        alpha: Axis::List(vec![4.0, 2.0, 1.0, 0.5, 0.25]),
        beta: Axis::List(vec![0.25, 0.5, 1.0, 2.0, 4.0]),
        paired: true,
    })
    .policy(PolicySpec::Trained {
        label: "a{alpha}-b{beta}".into(),
    });
    // Screen on a seed prefix, promote the top 3 of 5 weightings: 19 of
    // 25 full-mode runs (8 of 10 under FAST).
    manifest.search = SearchParams {
        screen_seeds: FastScaled { full: 2, fast: 1 },
        promote_fraction: 0.6,
    };
    manifest
}

/// The in-code definition of `manifests/smoke.json`: a tiny two-axis
/// (arrival rate × baseline roster) manifest for CI smoke runs — small
/// enough to search twice in seconds, rich enough to exercise screening,
/// promotion and the byte-determinism contract.
pub fn smoke_manifest() -> ScenarioManifest {
    let mut base = ManifestBase::bench(4.0);
    base.topology = TopologyFamily::Metro { sites: 4 };
    base.edge_capacity = None;
    base.horizon_slots = FastScaled { full: 60, fast: 24 };
    let mut manifest = ScenarioManifest::new(
        "smoke",
        base,
        SweepSpec::ArrivalRate {
            values: FastScaled::same(Axis::List(vec![2.0, 6.0])),
        },
    )
    .policy(PolicySpec::Baseline("first-fit".into()))
    .policy(PolicySpec::Baseline("greedy-latency".into()))
    .policy(PolicySpec::Baseline("cloud-only".into()))
    .seeds(FastScaled {
        full: vec![101, 102, 103],
        fast: vec![101, 102],
    });
    manifest.search = SearchParams {
        screen_seeds: FastScaled { full: 2, fast: 1 },
        promote_fraction: 0.5,
    };
    manifest
}

/// The in-code definition behind a checked-in manifest name, or `None`.
pub fn checked_in_manifest(name: &str) -> Option<ScenarioManifest> {
    match name {
        "fig10_reward_weights" => Some(fig10_manifest()),
        "smoke" => Some(smoke_manifest()),
        _ => None,
    }
}

/// Trains every `Trained` column of a manifest concurrently (one
/// `train_drl` per (reward point, column), fanned out on the worker
/// pool) and returns a trainer closure for
/// [`ExpandedPoint::grid_with`] / `SearchDriver::run_with` that hands
/// out the pre-trained policies by label.
///
/// Training happens up front because the expansion consumes trained
/// policies point by point — training lazily inside the closure would
/// serialize the most expensive phase.
pub fn pretrained_trainer(
    manifest: &ScenarioManifest,
) -> impl FnMut(&TrainRequest) -> PolicyFactory {
    let expansion = manifest.expand(fast_mode());
    let mut specs: Vec<(String, RewardConfig, Scenario)> = Vec::new();
    for point in &expansion.points {
        for policy in &point.policies {
            if let ResolvedPolicy::Trained { label } = policy {
                let scenario = point.scenarios[0].scenario.clone();
                specs.push((label.clone(), point.reward, scenario));
            }
        }
    }
    if !specs.is_empty() {
        eprintln!(
            "[manifest] training {} column(s) on {} threads…",
            specs.len(),
            thread_count()
        );
    }
    let trained = parallel_map(&specs, |_, (label, reward, scenario)| {
        let t = train_drl(scenario, *reward, drl_default(), default_passes().min(6));
        eprintln!("[manifest] {label}: trained");
        t
    });
    let mut by_label: HashMap<String, TrainedDrl> = specs
        .into_iter()
        .map(|(label, _, _)| label)
        .zip(trained)
        .collect();
    move |req: &TrainRequest| {
        let t = by_label
            .remove(req.label)
            .unwrap_or_else(|| panic!("no pre-trained policy for label `{}`", req.label));
        factory_of(t.policy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The checked-in JSON files are byte-for-byte the serialization of
    /// the in-code builders. A mismatch means someone edited one side
    /// only; regenerate with
    /// `cargo run -p bench -- search_drive --write-manifests`.
    #[test]
    fn checked_in_files_match_in_code_definitions() {
        for &name in checked_in_manifest_names() {
            let in_code = checked_in_manifest(name).expect("name is registered");
            assert_eq!(in_code.name, name);
            let path = manifest_dir().join(format!("{name}.json"));
            // Tests run with the crate as cwd; walk up to the workspace
            // root where manifests/ lives.
            let path = if path.exists() {
                path
            } else {
                PathBuf::from("..").join("..").join(&path)
            };
            let text = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
            let on_disk = ScenarioManifest::parse(&text).expect("checked-in manifest parses");
            assert_eq!(
                on_disk, in_code,
                "manifests/{name}.json drifted from its in-code definition"
            );
            assert_eq!(
                text,
                serde_json::to_string_pretty(&in_code.to_json()) + "\n",
                "manifests/{name}.json is not the canonical serialization"
            );
        }
    }

    #[test]
    fn fig10_manifest_reproduces_the_hand_picked_lattice() {
        let expansion = fig10_manifest().expand(false);
        assert_eq!(expansion.points.len(), 5);
        let labels: Vec<&str> = expansion
            .points
            .iter()
            .map(|p| p.policies[0].label())
            .collect();
        assert_eq!(
            labels,
            vec!["a4-b0.25", "a2-b0.5", "a1-b1", "a0.5-b2", "a0.25-b4"],
            "column labels must match the pre-manifest fig10 binary"
        );
        assert_eq!(expansion.points[0].scenarios[0].label, "lambda=8");
        assert_eq!(expansion.points[0].seeds, vec![101, 102, 103, 104, 105]);
        assert!(expansion.points.iter().all(|p| p.needs_training()));
    }

    #[test]
    fn smoke_manifest_is_baseline_only_and_tiny() {
        let expansion = smoke_manifest().expand(true);
        assert_eq!(expansion.points.len(), 1);
        let point = &expansion.points[0];
        assert!(!point.needs_training());
        assert_eq!(point.scenarios.len(), 2);
        assert_eq!(point.policies.len(), 3);
        assert!(point.scenarios[0].scenario.horizon_slots <= 24);
    }
}
