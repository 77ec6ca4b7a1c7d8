//! `tictac` answers bad input with `error: ...` and a non-zero exit code —
//! never with a panic (ROADMAP aim 3) and never by quietly doing something
//! other than what was asked. So does `repro --validate-trace`.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn tictac(args: &[&str]) -> (Output, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_tictac"))
        .args(args)
        .output()
        .expect("spawn tictac");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(!stderr.contains("panicked at"), "{stderr}");
    (out, stderr)
}

#[test]
fn timeline_to_an_unwritable_path_is_an_error_not_a_panic() {
    let missing = Path::new(env!("CARGO_TARGET_TMPDIR")).join("no-such-dir/timeline.json");
    let path = missing.to_str().expect("utf-8 path");
    let (out, stderr) = tictac(&["timeline", "alexnet_v2", "--out", path]);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains(&format!("error: {path}: ")), "{stderr}");
}

#[test]
fn zero_iterations_is_a_usage_error_not_a_division_by_zero() {
    let (out, stderr) = tictac(&["run", "alexnet_v2", "--iterations", "0"]);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("error: --iterations must be at least 1"));
    assert!(stderr.contains("usage:"), "{stderr}");

    let scenario = Path::new(env!("CARGO_TARGET_TMPDIR")).join("zero_iterations.yml");
    let doc = "model: alexnet_v2\ncluster:\n  workers: 2\n  parameter_servers: 1\niterations: 0\n";
    std::fs::write(&scenario, doc).expect("write scenario");
    let (out, stderr) = tictac(&["run", scenario.to_str().expect("utf-8 path")]);
    assert_ne!(out.status.code(), Some(0), "{stderr}");
    assert!(
        stderr.contains("scenario line 5: iterations must be at least 1"),
        "{stderr}"
    );

    let scenario = Path::new(env!("CARGO_TARGET_TMPDIR")).join("zero_batch.yml");
    let doc = "model: alexnet_v2\ncluster:\n  workers: 2\n  parameter_servers: 1\nbatch: 0\n";
    std::fs::write(&scenario, doc).expect("write scenario");
    let (out, stderr) = tictac(&["run", scenario.to_str().expect("utf-8 path")]);
    assert_ne!(out.status.code(), Some(0), "{stderr}");
    assert!(
        stderr.contains("scenario line 5: batch must be at least 1"),
        "{stderr}"
    );
}

/// A cluster holds at most 2^16 devices: one more is refused as an
/// invalid cluster before anything is deployed, not reported as a graph
/// the lowering built wrong.
#[test]
fn a_cluster_past_the_device_limit_is_a_usage_error() {
    let (out, stderr) = tictac(&["run", "alexnet_v2", "--workers", "65536", "--ps", "1"]);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    let first = stderr.lines().next().unwrap_or_default();
    assert_eq!(
        first,
        "error: invalid cluster: 65537 workers and parameter servers exceed the 65536 devices a cluster can hold"
    );
}

/// An empty window has no history to regress against: every group would
/// read `NEW` and the gate would pass whatever the store holds.
#[test]
fn zero_window_is_a_usage_error_not_a_vacuous_pass() {
    let store = concat!(env!("CARGO_MANIFEST_DIR"), "/results/runs.jsonl");
    let (out, stderr) = tictac(&["runs", "regress", "--store", store, "--window", "0"]);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("error: --window must be at least 1"));
    assert!(out.stdout.is_empty(), "no verdict may be printed");
    let (out, stderr) = tictac(&["runs", "regress", "--store", store, "--window", "1"]);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
}

/// A name outside the vocabulary is refused, not matched against
/// nothing: `runs --kind` names the record kinds a store holds, and
/// `--scheduler` parses as the scenario DSL does (`SchedulerKind`).
#[test]
fn unknown_kinds_and_schedulers_are_usage_errors() {
    let store = concat!(env!("CARGO_MANIFEST_DIR"), "/results/runs.jsonl");
    let (out, stderr) = tictac(&["runs", "list", "--store", store, "--kind", "bench"]);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    let first = stderr.lines().next().unwrap_or_default();
    assert_eq!(
        first,
        "error: unknown --kind `bench` (use session or report)"
    );
    assert!(out.stdout.is_empty(), "a refused filter listed records");
    for kind in ["session", "report"] {
        let (out, stderr) = tictac(&["runs", "list", "--store", store, "--kind", kind]);
        assert_eq!(out.status.code(), Some(0), "{kind}: {stderr}");
    }

    // `runs` filters refuse a scheduler or backend no record names, before
    // the store is read: the missing store is never reported.
    let missing = concat!(env!("CARGO_TARGET_TMPDIR"), "/no-such-store.jsonl");
    for (flag, value, expected) in [
        (
            "--scheduler",
            "bogus",
            "baseline, random, tic, tac or - for reports",
        ),
        (
            "--scheduler",
            "TAC",
            "baseline, random, tic, tac or - for reports",
        ),
        ("--backend", "nope", "sim or threaded"),
    ] {
        for sub in ["list", "regress"] {
            let (out, stderr) = tictac(&["runs", sub, "--store", missing, flag, value]);
            assert_eq!(out.status.code(), Some(2), "{sub} {flag}: {stderr}");
            let first = stderr.lines().next().unwrap_or_default();
            let name = flag.trim_start_matches('-');
            assert_eq!(
                first,
                format!("error: unknown --{name} `{value}` (use {expected})")
            );
            assert!(out.stdout.is_empty(), "a refused filter listed records");
        }
    }
    for (flag, value) in [
        ("--scheduler", "-"),
        ("--scheduler", "tac"),
        ("--scheduler", "baseline"),
        ("--backend", "sim"),
        ("--backend", "threaded"),
    ] {
        let (out, stderr) = tictac(&["runs", "list", "--store", store, flag, value]);
        assert_eq!(out.status.code(), Some(0), "{flag} {value}: {stderr}");
    }

    for args in [
        &["run", "alexnet_v2", "--scheduler", "bogus"][..],
        &["timeline", "alexnet_v2", "--scheduler", "bogus"],
    ] {
        let (out, stderr) = tictac(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        let first = stderr.lines().next().unwrap_or_default();
        assert_eq!(first, "error: unknown --scheduler `bogus`", "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}

/// A heterogeneity factor the cluster builder accepts must not run the
/// simulated time axis off its 2^53 ns end (DESIGN.md §5): not into a
/// wrapped `SimTime`, not into a silently short makespan, not into the
/// run store's exact-integer assertion.
#[test]
fn factors_that_leave_the_time_axis_are_usage_errors() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"));
    let store = dir.join("horizon.jsonl");
    let store = store.to_str().expect("utf-8 path");
    // (cluster key, second factor, what stderr names; `None` = runs)
    let rows = [
        ("link_bandwidths", "1e-12", Some("2^53 ns")),
        ("worker_speeds", "1e-12", Some("2^53 ns")),
        ("link_bandwidths", "1e-30", Some("2^53 ns")),
        ("link_bandwidths", "1e-320", Some("got 1e-320")),
        ("worker_speeds", "1e-9", Some("2^53 ns")),
        ("link_bandwidths", "1e-3", None),
    ];
    for (key, factor, names) in rows {
        let stem = format!("{key}_{factor}");
        let scenario = dir.join(format!("horizon_{stem}.yml"));
        let doc = format!(
            "model: alexnet_v2\ncluster:\n  workers: 2\n  parameter_servers: 1\n  \
             {key}: [1.0, {factor}]\nenv: g\nscheduler: tic\niterations: 2\n"
        );
        std::fs::write(&scenario, doc).expect("write scenario");
        let path = scenario.to_str().expect("utf-8 path");
        for args in [&["run", path][..], &["run", path, "--store", store]] {
            let (out, stderr) = tictac(args);
            let Some(names) = names else {
                let stdout = String::from_utf8_lossy(&out.stdout);
                assert_eq!(out.status.code(), Some(0), "{stem}: {stderr}");
                assert!(stdout.contains("iteration 256."), "{stem}: {stdout}");
                continue;
            };
            assert_eq!(out.status.code(), Some(2), "{stem}: {stderr}");
            let first = stderr.lines().find(|l| l.starts_with("error: "));
            let first = first.unwrap_or_else(|| panic!("{stem}: {stderr}"));
            assert!(first.contains(path) && first.contains(names), "{first}");
        }
    }
}

/// Faults are simulated only: a grid that asks the threaded backend for
/// them is refused in one line, not run fault-free in their place.
#[test]
fn faults_on_the_threaded_backend_are_refused() {
    let scenario = Path::new(env!("CARGO_TARGET_TMPDIR")).join("threaded_faults.yml");
    let doc = "model: alexnet_v2\ncluster:\n  workers: 2\n  parameter_servers: 1\n\
               backend: [sim, threaded]\niterations: 1\nfaults:\n  drop_prob: 0.01\n";
    std::fs::write(&scenario, doc).expect("write scenario");
    let (out, stderr) = tictac(&["run", scenario.to_str().expect("utf-8 path")]);
    assert_ne!(out.status.code(), Some(0), "{stderr}");
    let first = stderr.lines().next().unwrap_or_default();
    assert!(
        first.starts_with("error: ") && first.contains("threaded backend cannot honor `faults`"),
        "{stderr}"
    );
    assert!(out.stdout.is_empty(), "a refused grid printed a result");
}

/// A flag the subcommand does not read is refused, not dropped: a typo
/// must not run the defaults and exit 0.
#[test]
fn unknown_flags_are_usage_errors_on_every_subcommand() {
    let store = concat!(env!("CARGO_MANIFEST_DIR"), "/results/runs.jsonl");
    let scenario = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/examples/scenarios/vgg19_hetero.yml"
    );
    let rows: [(&[&str], &str); 7] = [
        (&["run", "alexnet_v2", "--warmup", "0"], "--warmup"),
        (&["run", "alexnet_v2", "--iteration", "4"], "--iteration"),
        (
            &["run", scenario, "--dry-run", "--workers", "3"],
            "--workers",
        ),
        (&["schedule", "alexnet_v2", "--tpo", "3"], "--tpo"),
        (
            &["runs", "list", "--store", store, "--window", "3"],
            "--window",
        ),
        (
            &["timeline", "alexnet_v2", "--iterations", "2"],
            "--iterations",
        ),
        (&["models", "--verbose"], "--verbose"),
    ];
    for (args, flag) in rows {
        let (out, stderr) = tictac(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        let first = stderr.lines().next().unwrap_or_default();
        assert_eq!(first, format!("error: unknown flag {flag}"), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
    // The same subcommands with only flags they read still run.
    let (out, stderr) = tictac(&["run", scenario, "--dry-run"]);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    let (out, stderr) = tictac(&["runs", "regress", "--store", store, "--window", "3"]);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
}

/// `schedule` prints the order a session enforces — for TAC the one its
/// own profile yields, not a private re-profiling — and a policy the
/// subcommand cannot show is refused rather than swapped for TIC.
#[test]
fn schedule_prints_the_session_order_or_refuses() {
    use tictac::{ClusterSpec, Mode, Model, SchedulerKind, Session, SimConfig};
    let session = Session::builder(Model::InceptionV1.build(Mode::Training))
        .cluster(ClusterSpec::new(1, 1))
        .config(SimConfig::cloud_gpu())
        .scheduler(SchedulerKind::Tac)
        .build()
        .expect("model deploys");
    let graph = session.deployed().graph();
    let mut recvs = graph.recv_ops_on(session.deployed().workers()[0]);
    recvs.sort_by_key(|&op| session.schedule().priority(op));
    let expected: Vec<String> = recvs
        .iter()
        .map(|&op| graph.op_name(op).to_string())
        .collect();

    let args = [
        "schedule",
        "inception_v1",
        "--scheduler",
        "tac",
        "--top",
        "999",
    ];
    let (out, stderr) = tictac(&args);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let printed: Vec<&str> = stdout
        .lines()
        .skip(1)
        .map(|line| line.split_whitespace().nth(1).expect("rank, then name"))
        .collect();
    assert_eq!(printed, expected);

    for scheduler in ["baseline", "random"] {
        let (out, stderr) = tictac(&["schedule", "alexnet_v2", "--scheduler", scheduler]);
        assert_eq!(out.status.code(), Some(2), "schedule {scheduler}: {stderr}");
        assert!(
            stderr.contains(&format!("--scheduler {scheduler}")),
            "{stderr}"
        );
        assert!(
            out.stdout.is_empty(),
            "schedule {scheduler} printed a result"
        );
    }
}

/// `timeline` renders iteration 0 of the session the flags build, for
/// every policy: its chrome output is that session's own Perfetto export.
#[test]
fn timeline_renders_the_sessions_iteration_for_every_scheduler() {
    use tictac::{ClusterSpec, Mode, Model, SchedulerKind, Session, SimConfig};
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"));
    for scheduler in [SchedulerKind::Tac, SchedulerKind::Random] {
        let path = dir.join(format!("timeline_{scheduler}.json"));
        let path = path.to_str().expect("utf-8 path");
        let name = scheduler.to_string();
        let args = ["timeline", "alexnet_v2", "--scheduler", &name];
        let (out, stderr) = tictac(&[&args[..], &["--format", "chrome", "--out", path]].concat());
        assert_eq!(out.status.code(), Some(0), "{name}: {stderr}");
        let json = std::fs::read_to_string(path).expect("timeline wrote its trace");
        tictac::validate_perfetto(&json).expect("valid trace_event JSON");
        let session = Session::builder(Model::AlexNetV2.build(Mode::Training))
            .cluster(ClusterSpec::new(2, 1))
            .config(SimConfig::cloud_gpu())
            .scheduler(scheduler)
            .build()
            .expect("model deploys");
        let expected = session.perfetto_json(0).expect("fault-free iteration");
        assert!(json == expected, "{name}: not the session's export");
    }
}

/// The `repro` binary of this build's profile. It belongs to another
/// package of the workspace, so it is built here if this test run has not
/// built it.
fn repro() -> PathBuf {
    let dir = Path::new(env!("CARGO_BIN_EXE_tictac")).parent().unwrap();
    let bin = dir.join(format!("repro{}", std::env::consts::EXE_SUFFIX));
    if !bin.exists() {
        let release = dir.ends_with("release").then_some("--release");
        let status = Command::new(env!("CARGO"))
            .args([
                "build",
                "-q",
                "--offline",
                "-p",
                "tictac-bench",
                "--bin",
                "repro",
            ])
            .args(release)
            .status()
            .expect("spawn cargo");
        assert!(status.success(), "building repro failed");
    }
    bin
}

#[test]
fn validate_trace_refuses_a_slice_on_an_undeclared_process() {
    let dir = std::env::temp_dir().join(format!("tictac-validate-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let slice = r#"{"ph":"X","name":"op","ts":1.000,"dur":2.000,"pid":1,"tid":0}"#;
    let declared = r#"{"ph":"M","pid":0,"tid":0,"name":"process_name","args":{"name":"w0"}}"#;
    let run = |events: &str| {
        let path = dir.join("trace.json");
        std::fs::write(&path, format!("{{\"traceEvents\": [\n{events}\n]}}\n")).unwrap();
        let out = Command::new(repro())
            .arg("--validate-trace")
            .arg(&path)
            .output()
            .expect("spawn repro");
        let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
        assert!(!stderr.contains("panicked at"), "{stderr}");
        (out.status.success(), stderr)
    };
    let (ok, stderr) = run(&format!("{declared},\n{slice}"));
    assert!(!ok, "a slice on pid 1 passed with only pid 0 declared");
    assert!(
        stderr.contains("slice on pid 1, which no process_name metadata declares"),
        "{stderr}"
    );
    // Declared after the slice is declared.
    let declared_later = r#"{"ph":"M","pid":1,"tid":0,"name":"process_name","args":{"name":"w1"}}"#;
    let (ok, stderr) = run(&format!("{slice},\n{declared_later}"));
    assert!(ok, "{stderr}");
    std::fs::remove_dir_all(&dir).unwrap();
}
