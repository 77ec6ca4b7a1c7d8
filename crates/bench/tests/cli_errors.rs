//! `repro` must answer an unwritable output path with `error: <path>:
//! <cause>` and exit code 1 — never with a panic (ROADMAP aim 3) — and a
//! hostile trace file with `<path>: INVALID: <cause>`, never with a signal.

use std::path::{Path, PathBuf};
use std::process::Command;

fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch directory");
    dir
}

fn assert_clean_failure(args: &[&str], path: &Path) {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("spawn repro");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
    assert!(
        stderr.contains(&format!("error: {}: ", path.display())),
        "{args:?}: stderr does not name the path: {stderr}"
    );
    assert!(!stderr.contains("panicked at"), "{args:?}: {stderr}");
}

fn table1_into(out: &Path) -> [&str; 5] {
    let out = out.to_str().expect("utf-8 path");
    ["--exp", "table1", "--quick", "--out", out]
}

#[test]
fn unwritable_trace_paths_are_errors_not_panics() {
    let missing = scratch("repro-trace").join("no-such-dir/trace.json");
    let path = missing.to_str().expect("utf-8 path");
    assert_clean_failure(&["--export-trace", path], &missing);
}

#[test]
fn unwritable_out_directories_are_errors_not_panics() {
    let dir = scratch("repro-out");
    // A regular file where a directory is needed: `create_dir_all` fails.
    let blocker = dir.join("blocker");
    std::fs::write(&blocker, b"").expect("create blocker file");
    let under_file = blocker.join("reports");
    assert_clean_failure(&table1_into(&under_file), &under_file);
    // A directory where the report file goes: the write fails.
    let report = dir.join("table1.txt");
    std::fs::create_dir(&report).expect("create blocking directory");
    assert_clean_failure(&table1_into(&dir), &report);
}

#[test]
fn a_bottomless_trace_is_invalid_not_a_stack_overflow() {
    let trace = scratch("repro-deep").join("deep.json");
    std::fs::write(&trace, "[".repeat(200_000)).expect("write hostile trace");
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("--validate-trace")
        .arg(&trace)
        .output()
        .expect("spawn repro");
    let stderr = String::from_utf8_lossy(&out.stderr);
    // A process killed by SIGSEGV/SIGABRT has no exit code at all.
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    let expected = format!(
        "{}: INVALID: json error at byte 128: nesting deeper than 128 levels",
        trace.display()
    );
    assert!(stderr.contains(&expected), "{stderr}");
    assert!(!stderr.contains("overflowed its stack"), "{stderr}");
}
