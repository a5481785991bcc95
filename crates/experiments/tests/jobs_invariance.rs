//! The job count moves only wall-clock time: every experiment that maps
//! its runs through the worker pool writes the same bytes on one worker
//! and on three, and so do the typed ROC and robustness reports.
//!
//! This binary sets the process-wide job count, so it holds this one
//! test: no other test may run beside it.

use sam_experiments::runner::set_global_jobs;
use sam_experiments::{robustness, roc, run_experiment};

/// Every table of the experiments the driver reaches, then the two typed
/// reports, each serialized and labelled.
fn outputs() -> Vec<(String, String)> {
    let mut out = Vec::new();
    for id in ["detection", "roc", "robustness", "ablations", "fig6"] {
        for table in run_experiment(id, 3).expect("known id") {
            out.push((table.id.clone(), table.to_json()));
        }
    }
    out.push(("roc report".to_string(), roc::compute(3).to_json()));
    out.push((
        "robustness report".to_string(),
        robustness::compute(3).to_json(),
    ));
    out
}

#[test]
fn experiments_serialize_identically_on_one_and_three_jobs() {
    set_global_jobs(1);
    let one = outputs();
    set_global_jobs(3);
    let three = outputs();
    let ids: Vec<&str> = one.iter().map(|(id, _)| id.as_str()).collect();
    assert_eq!(ids.len(), 16, "{ids:?}");
    assert_eq!(one.len(), three.len());
    for ((id, a), (_, b)) in one.iter().zip(&three) {
        assert_eq!(a, b, "{id} moved with the job count");
    }
}
