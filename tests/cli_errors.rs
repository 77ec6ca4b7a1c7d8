//! `tictac` must answer an unwritable `--out` path with `error: <path>:
//! <cause>` and exit code 1 — never with a panic (ROADMAP aim 3).

use std::path::Path;
use std::process::Command;

#[test]
fn timeline_to_an_unwritable_path_is_an_error_not_a_panic() {
    let missing = Path::new(env!("CARGO_TARGET_TMPDIR")).join("no-such-dir/timeline.json");
    let path = missing.to_str().expect("utf-8 path");
    let out = Command::new(env!("CARGO_BIN_EXE_tictac"))
        .args(["timeline", "alexnet_v2", "--out", path])
        .output()
        .expect("spawn tictac");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains(&format!("error: {path}: ")), "{stderr}");
    assert!(!stderr.contains("panicked at"), "{stderr}");
}
