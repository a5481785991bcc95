//! The repository benchmark.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! Workloads: `sweep` (fresh detection trials over the paper's scenario
//! grid) and `gateway_warm`, `gateway_evidence`, `gateway_churn`
//! (open-loop traffic against an in-process `sam-gateway` on loopback).
//! Each runs in a fresh process. `--trace 0` prints the end-to-end
//! metrics; `--trace 1` runs again with spans around every layer call
//! and prints the per-layer metrics. The last stdout line is the JSON
//! result; the human-readable report goes to stderr. `--setup-only` runs
//! just the workload's set-up and prints its duration: the untraced run
//! starts itself this way to repeat the set-up measurement cold.

// `/proc`, poll(2) and clock_gettime(2) are called with the 64-bit Linux
// ABI.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench runs on 64-bit Linux only");

mod client;
mod gateway;
mod report;
mod stats;
mod sweep;
mod sys;
mod trace;

use report::Outcome;
use std::process::ExitCode;
use std::time::Instant;

/// The end-to-end metrics every untraced run prints, with units.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("rss_peak_mb", "MB"),
    ("cpu_ms_per_op", "ms"),
];

/// The per-layer metrics every traced run prints, with units. A layer a
/// workload never exercises reports 0 (no samples).
const PER_LAYER: &[(&str, &str)] = &[
    ("manet-routing.discover_us.p50", "us"),
    ("manet-routing.discover_us.p99", "us"),
    ("manet-sim.ns_per_event", "ns"),
    ("manet-routing.events_per_discovery", "count"),
    ("manet-routing.overhead_per_discovery", "count"),
    ("manet-routing.routes_per_discovery", "count"),
    ("sam-experiments.build_plan_us", "us"),
    ("manet-attacks.session_build_us", "us"),
    ("manet-routing.probe_us", "us"),
    ("sam.tabulate_us", "us"),
    ("sam.procedure_us", "us"),
    ("sam.train_us", "us"),
    ("sam.confirmed_rate.attacked", "ratio"),
    ("sam.confirmed_rate.normal", "ratio"),
    ("bench.self_time_share", "ratio"),
    ("sam-serve.request_decode_us", "us"),
    ("wire.request_bytes", "bytes"),
    ("sam.detect_us.sam", "us"),
    ("sam.detect_us.zscore", "us"),
    ("sam.detect_us.geometric", "us"),
    ("sam.detect_us.ensemble", "us"),
    ("sam.explain_us", "us"),
    ("sam-gateway.ring_route_ns", "ns"),
    ("sam-serve.response_encode_us", "us"),
    ("sam-serve.response_decode_us", "us"),
    ("wire.response_bytes", "bytes"),
    ("sam-serve.queue_wait_us.p50", "us"),
    ("sam-serve.queue_wait_us.p99", "us"),
    ("sam-serve.compute_us.p50", "us"),
    ("sam-gateway.serialize_us.p50", "us"),
    ("sam-serve.batch_size_mean", "count"),
    ("sam-gateway.shard_max_share", "ratio"),
    ("sam-experiments.train_profile_us", "us"),
    ("sam-experiments.trainings", "count"),
    ("sam-serve.cache_hit_ratio", "ratio"),
    ("sam-serve.duplicate_trainings", "count"),
    ("latency_ms.cache_hit.p50", "ms"),
    ("latency_ms.cache_miss.p50", "ms"),
    ("unattributed_us", "us"),
    ("bench.reconcile_remainder_share", "ratio"),
    ("latency_ms.p50.low", "ms"),
    ("latency_ms.p99.low", "ms"),
    ("latency_ms.p50.high", "ms"),
    ("latency_ms.p99.high", "ms"),
    ("bench.gen_late_p50_ms", "ms"),
    ("bench.gen_late_p99_ms", "ms"),
    ("bench.trace_overhead", "ratio"),
    ("bench.host_steal_share", "ratio"),
];

/// Set-up is measured this many times per untraced run (this process
/// plus fresh child processes, so each set-up starts cold) and the
/// median is reported.
const SETUP_REPEATS: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    setup_only: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut setup_only = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err("--seconds must be in (0, 120]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not {other}")),
                })
            }
            "--setup-only" => setup_only = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
        setup_only,
    })
}

/// Peak resident set of this process, MB (`VmHWM`).
fn rss_peak_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Set-up time of a fresh child process running set-up only.
fn child_setup_s(args: &Args) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = std::process::Command::new(exe)
        .args([
            "--workload",
            &args.workload,
            "--seed",
            &args.seed.to_string(),
            "--setup-only",
        ])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    if !out.status.success() {
        return Err(format!("set-up child exited with {}", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    text.lines()
        .last()
        .and_then(|l| l.strip_prefix("setup_s "))
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("set-up child printed {text:?}"))
}

fn run(args: &Args, started: Instant) -> Result<Outcome, String> {
    let mut out = Outcome::new(started);
    let threads = std::thread::available_parallelism().map_or(2, |n| n.get());
    out.note(format!(
        "workload {} seed {} seconds {} trace {} on {threads} available cores",
        args.workload, args.seed, args.seconds, args.trace as u8
    ));
    let io = |e: std::io::Error| e.to_string();
    if args.workload == "sweep" {
        if args.setup_only {
            sweep::setup();
            out.setup_done();
        } else if args.trace {
            sweep::run_traced(args.seed, args.seconds, threads, &mut out);
        } else {
            sweep::run_timed(args.seed, args.seconds, threads, &mut out);
        }
    } else {
        let spec = gateway::SPECS
            .iter()
            .find(|s| s.name == args.workload)
            .ok_or_else(|| format!("unknown workload {}", args.workload))?;
        if args.setup_only {
            gateway::setup_only(spec, &mut out).map_err(io)?;
        } else if args.trace {
            gateway::run_traced(spec, args.seed, args.seconds, &mut out).map_err(io)?;
        } else {
            gateway::run_timed(spec, args.seed, args.seconds, &mut out).map_err(io)?;
        }
    }
    if args.setup_only {
        return Ok(out);
    }
    if !args.trace {
        out.metric("rss_peak_mb", rss_peak_mb(), "MB");
        // Repeat the set-up in fresh processes after the measured phases
        // (so they cannot disturb them) and report the median.
        let mut setups = vec![out.setup_s.ok_or("set-up never finished")?];
        for _ in 1..SETUP_REPEATS {
            setups.push(child_setup_s(args)?);
        }
        out.note(format!("set-up seconds {setups:?}"));
        out.metric("setup_s", stats::median(&setups), "s");
    }
    out.complete(if args.trace { PER_LAYER } else { END_TO_END })?;
    Ok(out)
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args, started) {
        Ok(out) if args.setup_only => {
            println!("setup_s {}", out.setup_s.unwrap_or(f64::NAN));
            ExitCode::SUCCESS
        }
        Ok(out) => {
            out.print();
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
