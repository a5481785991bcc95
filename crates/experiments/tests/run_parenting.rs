//! The runs of a series belong to the span that started it: every
//! `experiment.run` span `run_series_jobs` opens on its worker threads is
//! a child of the span open where the series was called, and the runs'
//! own spans nest under them, so a telemetry stream attributes every run
//! to its experiment.
//!
//! This binary installs the global telemetry, so it holds this one test:
//! no other test may run beside it.

use manet_routing::ProtocolKind;
use sam_experiments::prelude::*;
use sam_telemetry::Telemetry;

#[test]
fn series_runs_on_worker_threads_are_children_of_the_open_span() {
    let tel = Telemetry::new();
    sam_telemetry::install(tel.clone());
    let spec = ScenarioSpec::attacked(TopologyKind::uniform6x6(), ProtocolKind::Mr);
    {
        let _experiment = sam_telemetry::span("experiment");
        run_series_jobs(&spec, 4, 2);
    }
    sam_telemetry::uninstall();

    let spans: Vec<_> = tel
        .drain()
        .into_iter()
        .filter(|r| r.kind == "span")
        .collect();
    let named = |name: &'static str| spans.iter().filter(move |r| r.name == name);
    let experiment = named("experiment").next().expect("experiment span");
    let runs: Vec<u64> = named("experiment.run").map(|r| r.id).collect();
    assert_eq!(runs.len(), 4);
    for run in named("experiment.run") {
        assert_eq!(run.parent, experiment.id, "{run:?}");
        assert_eq!(run.trace, None, "an untraced series stays untraced");
    }
    assert!(named("discovery").count() >= 4);
    for discovery in named("discovery") {
        assert!(runs.contains(&discovery.parent), "{discovery:?}");
    }
    let roots: Vec<&str> = spans
        .iter()
        .filter(|r| r.parent == 0)
        .map(|r| r.name.as_str())
        .collect();
    assert_eq!(roots, ["experiment"]);
}
