//! Registry of sharded-sweep grids: named manifests every process in a
//! sweep can expand identically.
//!
//! The sweep protocol never ships a grid over the wire — a worker is told
//! only a *name* (plus its shard coordinate) and rebuilds the grid from
//! this registry. Since the manifest redesign the registry holds
//! [`ScenarioManifest`]s rather than hand-assembled builders: each entry
//! is a pure value, expansion is a pure function of `(manifest, FAST)`,
//! and the exact same manifests drive the in-process figures and
//! the search driver, so the definitions can no longer drift apart. The
//! structural fingerprint (`ExperimentGrid::auto_fingerprint`) is stamped
//! on every plan and fragment so a merge refuses cells computed from a
//! drifted registry (e.g. a worker built without `FAST=1` feeding a
//! `FAST=1` driver).
//!
//! Registry grids are baseline-only by design: DRL policies would require
//! every worker to train (duplicating the most expensive phase N times)
//! or a trained-weights shipping format — the multi-host outlook in
//! `docs/sweep.md` covers that extension.

use crate::fast_mode;
use exper::prelude::*;

pub use exper::manifest::synthetic_chains;

/// Every grid name [`build_sweep_grid`] accepts.
pub fn sweep_grid_names() -> &'static [&'static str] {
    &["fig2_load", "fig6_chains", "table3_baselines"]
}

/// The named registry manifest, or `None` for an unknown name. The
/// expansion of each manifest is pinned by fingerprint tests: editing an
/// entry is a protocol change for every consumer of its name.
pub fn sweep_grid_manifest(name: &str) -> Option<ScenarioManifest> {
    let manifest = match name {
        // The λ-sweep comparison grid (figure 2 axes, baseline roster).
        "fig2_load" => ScenarioManifest::new(
            "fig2_load",
            ManifestBase::bench(8.0),
            SweepSpec::ArrivalRate {
                values: FastScaled {
                    full: Axis::List(vec![1.0, 2.0, 4.0, 6.0, 8.0, 10.0, 12.0]),
                    fast: Axis::List(vec![2.0, 6.0]),
                },
            },
        )
        .policy(PolicySpec::Roster("comparison".into())),
        // The chain-length grid (figure 6 axes) on the synthetic
        // length-k catalog, at λ=5 with a shorter horizon.
        "fig6_chains" => {
            let mut base = ManifestBase::bench(5.0);
            base.horizon_slots = FastScaled {
                full: 240,
                fast: 30,
            };
            ScenarioManifest::new(
                "fig6_chains",
                base,
                SweepSpec::ChainLength {
                    max: FastScaled { full: 6, fast: 3 },
                },
            )
            .policy(PolicySpec::Roster("comparison".into()))
        }
        // The full baseline roster at the table 3 operating point (λ=8).
        "table3_baselines" => ScenarioManifest::new(
            "table3_baselines",
            ManifestBase::bench(8.0),
            SweepSpec::ArrivalRate {
                values: FastScaled::same(Axis::single(8.0)),
            },
        )
        .policy(PolicySpec::Roster("standard".into())),
        _ => return None,
    };
    Some(manifest)
}

/// Prints `usage: <synopsis>` and the registry's grid names, then exits
/// 2: the usage error of the sweep tools.
pub fn sweep_usage(synopsis: &str) -> ! {
    eprintln!(
        "usage: {synopsis}\n       grids: {}",
        sweep_grid_names().join(", ")
    );
    std::process::exit(2);
}

/// [`build_sweep_grid`] for the sweep tool `tool`: an unknown name prints
/// every known one and exits 2.
pub fn sweep_grid_or_exit(tool: &str, name: &str) -> ExperimentGrid {
    build_sweep_grid(name).unwrap_or_else(|| {
        eprintln!(
            "[{tool}] unknown grid {name:?}; known: {}",
            sweep_grid_names().join(", ")
        );
        std::process::exit(2);
    })
}

/// Builds the named sweep grid with its structural fingerprint attached,
/// or `None` for an unknown name — the manifest expansion for the current
/// `FAST` mode.
pub fn build_sweep_grid(name: &str) -> Option<ExperimentGrid> {
    let manifest = sweep_grid_manifest(name)?;
    let mut expansion = manifest.expand(fast_mode());
    Some(expansion.points.remove(0).grid())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_registry_name_builds_with_a_fingerprint() {
        for &name in sweep_grid_names() {
            let grid = build_sweep_grid(name).expect("registry name builds");
            assert_eq!(grid.grid_name(), name, "grid is named after its key");
            assert!(grid.cell_count() > 0);
            assert!(
                grid.grid_fingerprint().starts_with(name),
                "auto fingerprint attached"
            );
        }
        assert!(build_sweep_grid("no_such_grid").is_none());
        assert!(sweep_grid_manifest("no_such_grid").is_none());
    }

    #[test]
    fn rebuilds_are_structurally_identical() {
        for &name in sweep_grid_names() {
            let a = build_sweep_grid(name).unwrap();
            let b = build_sweep_grid(name).unwrap();
            assert_eq!(
                a.grid_fingerprint(),
                b.grid_fingerprint(),
                "{name} must rebuild to the same structure in every process"
            );
        }
    }

    #[test]
    fn fingerprints_distinguish_grids() {
        let fps: Vec<String> = sweep_grid_names()
            .iter()
            .map(|n| build_sweep_grid(n).unwrap().grid_fingerprint().to_string())
            .collect();
        let set: std::collections::HashSet<_> = fps.iter().collect();
        assert_eq!(set.len(), fps.len());
    }

    /// The registry fingerprints are wire protocol: a worker built from
    /// one commit must be able to feed a driver built from another. These
    /// literals were captured from the pre-manifest hand-built grids; the
    /// manifest re-expression must reproduce them exactly, and any future
    /// edit that changes them is a breaking protocol change.
    #[test]
    fn registry_fingerprints_are_pinned() {
        let expected: &[(&str, &str)] = if fast_mode() {
            &[
                ("fig2_load", "fig2_load-4f100dca92353db9"),
                ("fig6_chains", "fig6_chains-a3fb29a759bcbd22"),
                ("table3_baselines", "table3_baselines-82b559ed8d801054"),
            ]
        } else {
            &[
                ("fig2_load", "fig2_load-439cad4f1329bb39"),
                ("fig6_chains", "fig6_chains-d4412765e40bd981"),
                ("table3_baselines", "table3_baselines-e1d81a8c389fc2f6"),
            ]
        };
        for &(name, fp) in expected {
            assert_eq!(
                build_sweep_grid(name).unwrap().grid_fingerprint(),
                fp,
                "{name} drifted from its pinned pre-manifest fingerprint"
            );
        }
    }

    #[test]
    fn registry_manifests_roundtrip_through_json() {
        for &name in sweep_grid_names() {
            let manifest = sweep_grid_manifest(name).unwrap();
            let text = serde_json::to_string_pretty(&manifest.to_json());
            let parsed = ScenarioManifest::parse(&text).expect("registry manifest parses");
            assert_eq!(parsed, manifest, "{name} JSON roundtrip");
        }
    }
}
