//! `reproduce` treats a stdout whose reader went away
//! (`reproduce --list | head -1`) as a normal end of its printed output:
//! it neither panics nor fails, and still writes every file under `--out`.
//! It refuses `--runs 0` before it writes anything.

use std::path::Path;
use std::process::{Command, ExitStatus, Stdio};

/// Run `reproduce` with `args` and a stdout pipe whose read end is
/// already closed; returns the exit status and stderr.
fn run_with_closed_stdout(args: &[&str]) -> (ExitStatus, String) {
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let out = Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(args)
        .stdout(writer)
        .stderr(Stdio::piped())
        .output()
        .expect("run reproduce");
    (
        out.status,
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn list_and_help_exit_zero_when_stdout_is_closed() {
    for flag in ["--list", "--help"] {
        let (status, stderr) = run_with_closed_stdout(&[flag]);
        assert!(!stderr.contains("panicked"), "{flag}: {stderr}");
        assert!(status.success(), "{flag}: {status}: {stderr}");
    }
}

#[test]
fn a_run_with_a_closed_stdout_still_writes_its_files() {
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("reproduce-closed-stdout");
    let _ = std::fs::remove_dir_all(&out);
    let (status, stderr) = run_with_closed_stdout(&[
        "--runs",
        "1",
        "--jobs",
        "1",
        "--out",
        out.to_str().expect("utf-8 path"),
        "table2",
    ]);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(status.success(), "{status}: {stderr}");
    for file in ["table2.json", "table2.txt"] {
        let len = std::fs::metadata(out.join(file))
            .unwrap_or_else(|e| panic!("{file}: {e}"))
            .len();
        assert!(len > 0, "{file} is empty");
    }
}

#[test]
fn zero_runs_is_refused_before_any_file_is_written() {
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("reproduce-zero-runs");
    let _ = std::fs::remove_dir_all(&out);
    let run = Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args([
            "--runs",
            "0",
            "--out",
            out.to_str().expect("utf-8 path"),
            "detection",
        ])
        .output()
        .expect("run reproduce");
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert!(!run.status.success(), "--runs 0 must fail: {stderr}");
    assert!(stderr.contains("--runs"), "{stderr}");
    let written: Vec<_> = std::fs::read_dir(&out)
        .map(|dir| dir.map(|e| e.expect("dir entry").path()).collect())
        .unwrap_or_default();
    assert!(written.is_empty(), "{written:?}");
}
