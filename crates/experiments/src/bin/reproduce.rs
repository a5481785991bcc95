//! Regenerate the paper's tables and figures.
//!
//! ```text
//! reproduce [--runs N] [--jobs N] [--out DIR] [--telemetry FILE]
//!           [--flight FILE] [--robustness-bench FILE]
//!           [--roc-bench FILE] [EXPERIMENT_ID ...]
//! ```
//!
//! With no ids, every experiment runs. Each produces an ASCII table on
//! stdout and `<DIR>/<id>.json` + `<DIR>/<id>.txt` (default `results/`).
//!
//! `--telemetry FILE` installs the process-global [`sam_telemetry`]
//! context: every experiment and every simulated run emits a span, the
//! stream plus a final registry snapshot land in `FILE` as JSONL, and a
//! per-phase summary table is printed at the end.
//!
//! `--flight FILE` additionally records one 2-cluster wormhole run with
//! the causal flight recorder on: the recording (trace + spans +
//! explanation) goes to `FILE`, the verdict explanation to
//! `<DIR>/flight.json`, and — when `--telemetry` is also on — the
//! explanation line is appended to the telemetry JSONL stream.

use sam_experiments::flight::{record_flight, FlightOptions};
use sam_experiments::scenario::{ScenarioSpec, TopologyKind};
use sam_experiments::{run_experiment, ALL_IDS};
use sam_telemetry::{report::write_jsonl, Telemetry, TelemetryReport};
use std::io::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    runs: u64,
    jobs: usize,
    out: PathBuf,
    telemetry: Option<PathBuf>,
    flight: Option<PathBuf>,
    robustness_bench: Option<PathBuf>,
    roc_bench: Option<PathBuf>,
    ids: Vec<String>,
}

enum Parsed {
    /// Run these experiments.
    Run(Args),
    /// Print this and exit successfully (--help / --list).
    Info(String),
    /// Print this to stderr and exit with failure.
    Error(String),
}

fn parse_args() -> Parsed {
    let mut runs = 10u64;
    let mut jobs = 0usize; // 0 = one worker per available core
    let mut out = PathBuf::from("results");
    let mut telemetry = None;
    let mut flight = None;
    let mut robustness_bench = None;
    let mut roc_bench = None;
    let mut ids = Vec::new();
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--runs" => {
                let Some(v) = it.next() else {
                    return Parsed::Error("--runs needs a value".into());
                };
                match v.parse() {
                    Ok(n) if n >= 1 => runs = n,
                    _ => return Parsed::Error(format!("bad --runs value: {v} (need >= 1)")),
                }
            }
            "--jobs" => {
                let Some(v) = it.next() else {
                    return Parsed::Error("--jobs needs a value".into());
                };
                match v.parse() {
                    Ok(n) if n >= 1 => jobs = n,
                    _ => return Parsed::Error(format!("bad --jobs value: {v} (need >= 1)")),
                }
            }
            "--out" => {
                let Some(v) = it.next() else {
                    return Parsed::Error("--out needs a value".into());
                };
                out = PathBuf::from(v);
            }
            "--telemetry" => {
                let Some(v) = it.next() else {
                    return Parsed::Error("--telemetry needs a value".into());
                };
                telemetry = Some(PathBuf::from(v));
            }
            "--flight" => {
                let Some(v) = it.next() else {
                    return Parsed::Error("--flight needs a value".into());
                };
                flight = Some(PathBuf::from(v));
            }
            "--robustness-bench" => {
                let Some(v) = it.next() else {
                    return Parsed::Error("--robustness-bench needs a value".into());
                };
                robustness_bench = Some(PathBuf::from(v));
            }
            "--roc-bench" => {
                let Some(v) = it.next() else {
                    return Parsed::Error("--roc-bench needs a value".into());
                };
                roc_bench = Some(PathBuf::from(v));
            }
            "--list" => {
                return Parsed::Info(ALL_IDS.join("\n"));
            }
            "--help" | "-h" => {
                return Parsed::Info(format!(
                    "usage: reproduce [--runs N] [--jobs N] [--out DIR] [--telemetry FILE] \
                     [--flight FILE] [--list] [ID ...]\n  \
                     --jobs N: simulation worker threads (default: available cores)\n  \
                     --telemetry FILE: write spans + metrics snapshot to FILE as JSONL\n  \
                     --flight FILE: record an explained 2-cluster wormhole run to FILE\n  \
                     --robustness-bench FILE: write the robustness sweep report to FILE \
                     (implies the robustness id)\n  \
                     --roc-bench FILE: write the detector ROC sweep report to FILE \
                     (implies the roc id)\n  \
                     known ids: {}",
                    ALL_IDS.join(", ")
                ));
            }
            id => ids.push(id.to_string()),
        }
    }
    if ids.is_empty() {
        ids = ALL_IDS.iter().map(|s| s.to_string()).collect();
    }
    // The robustness report rides on the robustness sweep, so the flag
    // implies the id.
    if robustness_bench.is_some() && !ids.iter().any(|i| i == "robustness") {
        ids.push("robustness".to_string());
    }
    if roc_bench.is_some() && !ids.iter().any(|i| i == "roc") {
        ids.push("roc".to_string());
    }
    Parsed::Run(Args {
        runs,
        jobs,
        out,
        telemetry,
        flight,
        robustness_bench,
        roc_bench,
        ids,
    })
}

/// Write `s` to stdout. A failed write means the reader went away
/// (`reproduce --list | head -1`); the files under `--out` are the run's
/// real output, so the run carries on and the failure is not an error.
fn emit(s: &str) {
    let mut out = std::io::stdout().lock();
    let _ = out.write_all(s.as_bytes()).and_then(|()| out.flush());
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Parsed::Run(a) => a,
        Parsed::Info(msg) => {
            emit(&format!("{msg}\n"));
            return ExitCode::SUCCESS;
        }
        Parsed::Error(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    if args.jobs > 0 {
        sam_experiments::runner::set_global_jobs(args.jobs);
    }
    if let Err(e) = std::fs::create_dir_all(&args.out) {
        eprintln!("cannot create {}: {e}", args.out.display());
        return ExitCode::FAILURE;
    }
    let telemetry = args.telemetry.as_ref().map(|path| {
        let tel = Telemetry::new();
        sam_telemetry::install(tel.clone());
        (tel, path)
    });

    let mut failed = false;
    for id in &args.ids {
        // When telemetry is off this is a timing-only guard (for the
        // "[id done in …]" line); when on, a recorded "experiment" span.
        let mut span = sam_telemetry::span("experiment");
        span.field("id", id);
        span.field("runs", args.runs);
        span.field("seed", sam_experiments::scenario::DEFAULT_BASE_SEED);
        // The robustness sweep is computed once; its typed report feeds
        // both the tables and (when asked) BENCH_robustness.json.
        let tables = if id == "robustness" {
            let report = sam_experiments::robustness::compute(args.runs);
            if let Some(path) = &args.robustness_bench {
                match std::fs::write(path, report.to_json()) {
                    Ok(()) => emit(&format!(
                        "[robustness: {} points -> {}]\n",
                        report.points.len(),
                        path.display()
                    )),
                    Err(e) => {
                        eprintln!("write {}: {e}", path.display());
                        failed = true;
                    }
                }
            }
            Some(sam_experiments::robustness::tables(&report))
        } else if id == "roc" {
            // Same compute-once shape: the ROC sweep feeds its table and
            // (when asked) BENCH_roc.json.
            let report = sam_experiments::roc::compute(args.runs);
            if let Some(path) = &args.roc_bench {
                match std::fs::write(path, report.to_json()) {
                    Ok(()) => emit(&format!(
                        "[roc: {} curves -> {}]\n",
                        report.curves.len(),
                        path.display()
                    )),
                    Err(e) => {
                        eprintln!("write {}: {e}", path.display());
                        failed = true;
                    }
                }
            }
            Some(sam_experiments::roc::tables(&report))
        } else {
            run_experiment(id, args.runs)
        };
        let Some(tables) = tables else {
            eprintln!(
                "unknown experiment id: {id} (known: {})",
                ALL_IDS.join(", ")
            );
            failed = true;
            continue;
        };
        let mut text = String::new();
        for t in &tables {
            text.push_str(&t.render());
            text.push('\n');
            let json_path = args.out.join(format!("{}.json", t.id));
            if let Err(e) = std::fs::write(&json_path, t.to_json()) {
                eprintln!("write {}: {e}", json_path.display());
                failed = true;
            }
            if let Some(svg) = sam_experiments::svg::chart(t) {
                let svg_path = args.out.join(format!("{}.svg", t.id));
                if let Err(e) = std::fs::write(&svg_path, svg) {
                    eprintln!("write {}: {e}", svg_path.display());
                    failed = true;
                }
            }
        }
        emit(&text);
        emit(&format!(
            "[{id} done in {:.1}s]\n\n",
            span.elapsed().as_secs_f64()
        ));
        drop(span);
        let txt_path = args.out.join(format!("{id}.txt"));
        match std::fs::File::create(&txt_path) {
            Ok(mut f) => {
                if let Err(e) = f.write_all(text.as_bytes()) {
                    eprintln!("write {}: {e}", txt_path.display());
                    failed = true;
                }
            }
            Err(e) => {
                eprintln!("create {}: {e}", txt_path.display());
                failed = true;
            }
        }
    }
    // Flight-record one explained 2-cluster wormhole run. The recording
    // captures its own (local) telemetry, so the global stream above is
    // untouched; only the explanation line joins the JSONL output.
    let mut flight_explanation = None;
    if let Some(path) = &args.flight {
        let spec =
            ScenarioSpec::attacked(TopologyKind::cluster1(), manet_routing::ProtocolKind::Mr);
        let (recording, explanation) = record_flight(&spec, 0, &FlightOptions::default());
        if let Err(e) = recording.save(path) {
            eprintln!("write {}: {e}", path.display());
            failed = true;
        } else {
            emit(&format!(
                "[flight: {} entries, suspect {:?} -> {}]\n",
                recording.entries.len(),
                explanation.suspect_link,
                path.display()
            ));
        }
        let report_path = args.out.join("flight.json");
        let pretty = serde_json::to_string_pretty(&explanation).expect("explanation serializes");
        if let Err(e) = std::fs::write(&report_path, pretty) {
            eprintln!("write {}: {e}", report_path.display());
            failed = true;
        }
        flight_explanation = Some(explanation);
    }

    if let Some((tel, path)) = &telemetry {
        sam_telemetry::uninstall();
        let records = tel.drain();
        let write = std::fs::File::create(path).and_then(|f| {
            let mut w = std::io::BufWriter::new(f);
            write_jsonl(&mut w, &records, Some(&tel.snapshot()))?;
            if let Some(ex) = &flight_explanation {
                let line = serde_json::to_string(ex).map_err(|e| {
                    std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string())
                })?;
                writeln!(w, "{line}")?;
            }
            Ok(())
        });
        match write {
            Ok(()) => {
                emit(&format!(
                    "{}\n[telemetry: {} records -> {}]\n",
                    TelemetryReport::from_records(&records),
                    records.len(),
                    path.display()
                ));
            }
            Err(e) => {
                eprintln!("write {}: {e}", path.display());
                failed = true;
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
