//! # sam-experiments — the paper reproduction harness
//!
//! One module per table/figure of the paper's evaluation, plus ablations
//! and an end-to-end detection-quality experiment. Every experiment
//! produces [`report::Table`]s that render as ASCII and serialize to JSON;
//! the `reproduce` binary regenerates any or all of them.
//!
//! Every run of a [`ScenarioSpec`](scenario::ScenarioSpec) starts from
//! one [`runner::Trial`], which builds the run's plan, endpoints and
//! attacked session. [`runner::run_once_faulted`] measures the trial's
//! route set; `detection`, `roc` and the [`flight`] recorder probe,
//! score or trace its session. Every series maps its runs, profile
//! training included, through [`runner::map_runs`] on the `--jobs`
//! worker pool.
//!
//! | id | paper artifact | module |
//! |----|----------------|--------|
//! | `table1` | Table I — % routes affected | [`table1`] |
//! | `table2` | Table II — discovery overhead | [`table2`] |
//! | `fig5` | PMF of n/N, normal vs attack | [`fig5`] |
//! | `fig6` | p_max, cluster & uniform, MR | [`fig6`] |
//! | `fig7` | Δ, cluster & uniform, MR | [`fig7`] |
//! | `fig8` | p_max & Δ, 6×10 uniform | [`fig8`] |
//! | `fig9` | random topology placement | [`fig9`] |
//! | `fig10` | p_max, random topologies | [`fig10`] |
//! | `fig11` | p_max, 1-tier vs 2-tier cluster | [`fig11`] |
//! | `fig12` | Δ, 1-tier vs 2-tier cluster | [`fig12`] |
//! | `fig13` | Δ, MR vs DSR | [`fig13`] |
//! | `fig14` | p_max, MR vs DSR | [`fig14`] |
//! | `fig15` | p_max, 0/1/2 wormholes | [`fig15`] |
//! | `detection` | end-to-end detector quality (extension) | [`detection`] |
//! | `ablations` | design-choice sweeps (extension) | [`ablations`] |
//! | `robustness` | detection vs. loss/churn/attacker variants (extension) | [`robustness`] |
//! | `roc` | detector × attacker ROC curves (extension) | [`roc`] |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablations;
pub mod detection;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig15;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod flight;
pub mod report;
pub mod robustness;
pub mod roc;
pub mod runner;
pub mod scenario;
pub mod series;
pub mod serving;
pub mod svg;
pub mod table1;
pub mod table2;

use report::Table;

/// All experiment ids, in paper order.
pub const ALL_IDS: &[&str] = &[
    "table1",
    "table2",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "fig14",
    "fig15",
    "detection",
    "ablations",
    "robustness",
    "roc",
];

/// Run one experiment by id with the given series length (`runs` is
/// ignored by the single-run artifacts `fig5` and `fig9`). Returns `None`
/// for an unknown id.
pub fn run_experiment(id: &str, runs: u64) -> Option<Vec<Table>> {
    let tables = match id {
        "table1" => vec![table1::run(runs)],
        "table2" => vec![table2::run(runs)],
        "fig5" => vec![fig5::run(0)],
        "fig6" => vec![fig6::run(runs)],
        "fig7" => vec![fig7::run(runs)],
        "fig8" => vec![fig8::run(runs)],
        "fig9" => vec![fig9::run(0)],
        "fig10" => vec![fig10::run(runs)],
        "fig11" => vec![fig11::run(runs)],
        "fig12" => vec![fig12::run(runs)],
        "fig13" => vec![fig13::run(runs)],
        "fig14" => vec![fig14::run(runs)],
        "fig15" => vec![fig15::run(runs)],
        "detection" => vec![detection::run(runs)],
        "ablations" => ablations::run_all(runs),
        "robustness" => robustness::run(runs),
        "roc" => roc::run(runs),
        _ => return None,
    };
    Some(tables)
}

/// One-stop imports for experiment users.
pub mod prelude {
    pub use crate::flight::{record_flight, FlightOptions};
    pub use crate::report::{Cell, Table};
    pub use crate::robustness::{RobustnessPoint, RobustnessReport};
    pub use crate::roc::{RocCurve, RocHeadline, RocPoint, RocReport};
    pub use crate::runner::{
        build_plan, map_runs, map_runs_jobs, mean_of, run_once, run_once_faulted,
        run_once_with_routes, run_series, set_global_jobs, RunRecord, Trial, PAPER_RUNS,
    };
    pub use crate::scenario::{derive_seed, draw_endpoints, ScenarioSpec, TopologyKind};
    pub use crate::series::{feature_table, PairedSeries};
    pub use crate::svg::chart as svg_chart;
    pub use crate::{run_experiment, ALL_IDS};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_dispatches_and_rejects_unknown() {
        // fig9 is cheap (no simulation runs).
        let t = run_experiment("fig9", 1).expect("fig9 known");
        assert_eq!(t[0].id, "fig9");
        assert!(run_experiment("nope", 1).is_none());
        assert_eq!(ALL_IDS.len(), 17);
    }
}
