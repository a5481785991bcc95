//! Golden detection outcomes: every held-out run of the `detection`
//! experiment's five configurations must keep reaching exactly the same
//! [`DetectionOutcome`] — step-1 analysis, probe verdict, confirmation,
//! isolation set and selected routes.
//!
//! Each configuration trains its profile on [`PAPER_RUNS`] clean
//! discoveries, then runs the three-step procedure on [`PAPER_RUNS`]
//! normal and as many attacked (blackholing wormhole) discoveries: the
//! runs `detection::evaluate` judges when `reproduce` runs at its
//! defaults. The file holds one compact JSON line per run inside one
//! array, so a failure names the run that moved and the whole file is
//! compared byte for byte.
//!
//! Each run is judged by [`detection::judge`], the per-run function
//! `detection::evaluate` maps over its held-out runs, so the file pins
//! the path `reproduce` runs.
//!
//! When a change moves an outcome *intentionally*, regenerate the file
//! and review the diff like any other code change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test golden_detection
//! git diff tests/golden/
//! ```

use manet_routing::ProtocolKind;
use sam::prelude::*;
use sam_experiments::detection;
use sam_experiments::prelude::*;
use sam_experiments::runner::train_normal_profile;
use serde::Serialize;
use std::path::PathBuf;

/// One judged run.
#[derive(Serialize)]
struct GoldenRun {
    configuration: String,
    class: &'static str,
    run: u64,
    outcome: DetectionOutcome,
}

/// Every run of the five configurations, each rendered as one compact
/// JSON line.
fn golden_lines() -> Vec<String> {
    let configs = [
        (TopologyKind::cluster1(), ProtocolKind::Mr),
        (TopologyKind::cluster2(), ProtocolKind::Mr),
        (TopologyKind::uniform10x6(), ProtocolKind::Mr),
        (TopologyKind::Random, ProtocolKind::Mr),
        (TopologyKind::cluster1(), ProtocolKind::Dsr),
    ];
    let mut lines = Vec::new();
    for (topology, protocol) in configs {
        let normal = ScenarioSpec::normal(topology, protocol);
        let attacked = normal.with_wormholes(1);
        let profile = train_normal_profile(&normal, PAPER_RUNS);
        let configuration = format!("{} {}", topology.label(), protocol.label());
        for (class, spec) in [("normal", &normal), ("attacked", &attacked)] {
            for run in 0..PAPER_RUNS {
                let judged = GoldenRun {
                    configuration: configuration.clone(),
                    class,
                    run,
                    outcome: detection::judge(spec, run, &profile).0,
                };
                lines.push(serde_json::to_string(&judged).expect("outcome serializes"));
            }
        }
    }
    lines
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/detection_outcomes.json")
}

#[test]
fn detection_outcomes_match_the_golden_file() {
    let actual = golden_lines();
    assert_eq!(actual.len(), 5 * 2 * PAPER_RUNS as usize, "run count");
    let text = format!("[\n{}\n]\n", actual.join(",\n"));
    let path = golden_path();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &text).unwrap();
        eprintln!("golden: rewrote {}", path.display());
        return;
    }
    let stored = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); generate it with UPDATE_GOLDEN=1",
            path.display()
        )
    });
    let expected: Vec<&str> = stored
        .lines()
        .filter(|line| *line != "[" && *line != "]")
        .map(|line| line.strip_suffix(',').unwrap_or(line))
        .collect();
    assert_eq!(expected.len(), actual.len(), "golden run count");
    for (want, got) in expected.iter().zip(&actual) {
        assert_eq!(
            *want, got,
            "detection outcome drifted; if intended, rerun with UPDATE_GOLDEN=1"
        );
    }
    assert_eq!(stored, text, "golden file layout");
}
