//! The runs of a series belong to the span that started it: every
//! `experiment.run` span `map_runs` opens on its worker threads is a
//! child of the span open where the runs were mapped, and the runs' own
//! spans nest under them, so a telemetry stream attributes every run to
//! its experiment. That holds for a plain series and for an evaluation,
//! whose profile training and judged runs both go through the driver.
//!
//! This binary installs the global telemetry and sets the process-wide
//! job count, so it holds this one test: no other test may run beside it.

use manet_routing::ProtocolKind;
use sam_experiments::detection;
use sam_experiments::prelude::*;
use sam_telemetry::Telemetry;

#[test]
fn series_runs_on_worker_threads_are_children_of_the_open_span() {
    let tel = Telemetry::new();
    sam_telemetry::install(tel.clone());
    set_global_jobs(2);
    let spec = ScenarioSpec::attacked(TopologyKind::uniform6x6(), ProtocolKind::Mr);
    {
        let _experiment = sam_telemetry::span("experiment");
        map_runs_jobs(0..4, 2, |run| run_once(&spec, run));
    }
    {
        let _evaluation = sam_telemetry::span("evaluation");
        // 3 training runs, then 2 normal and 2 attacked judged runs.
        detection::evaluate(TopologyKind::cluster1(), ProtocolKind::Mr, 3, 2);
    }
    sam_telemetry::uninstall();

    let spans: Vec<_> = tel
        .drain()
        .into_iter()
        .filter(|r| r.kind == "span")
        .collect();
    let named = |name: &'static str| spans.iter().filter(move |r| r.name == name);
    let experiment = named("experiment").next().expect("experiment span");
    let evaluation = named("evaluation").next().expect("evaluation span");
    let runs: Vec<u64> = named("experiment.run").map(|r| r.id).collect();
    assert_eq!(runs.len(), 4 + 3 + 2 + 2);
    let under = |parent: u64| {
        named("experiment.run")
            .filter(move |r| r.parent == parent)
            .count()
    };
    assert_eq!(under(experiment.id), 4);
    assert_eq!(under(evaluation.id), 3 + 2 + 2);
    for run in named("experiment.run") {
        assert_eq!(run.trace, None, "an untraced series stays untraced");
    }
    assert!(named("discovery").count() >= runs.len());
    for discovery in named("discovery") {
        assert!(runs.contains(&discovery.parent), "{discovery:?}");
    }
    let mut roots: Vec<&str> = spans
        .iter()
        .filter(|r| r.parent == 0)
        .map(|r| r.name.as_str())
        .collect();
    roots.sort_unstable();
    assert_eq!(roots, ["evaluation", "experiment"]);
}
