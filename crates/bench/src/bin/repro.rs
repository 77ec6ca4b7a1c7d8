//! `repro` — regenerates every table and figure of the TicTac paper.
//!
//! Usage:
//!
//! ```text
//! repro --exp all                 # every experiment (full fidelity)
//! repro --exp fig7                # one experiment
//! repro --exp fig12 --quick       # trimmed run counts for smoke tests
//! repro --list                    # list experiment names
//! repro --out results/            # also write one report file per experiment
//! repro --export-trace out.json   # write a Perfetto trace of one iteration
//! repro --validate-trace out.json # parse + sanity-check an exported trace
//! repro --exp table1 --store runs.jsonl # also append run records to a store
//! ```
//!
//! `--store PATH` (or the `TICTAC_RUN_STORE` environment variable) arms
//! the process-global run store: every session an experiment runs appends
//! a full evidence record, and each experiment additionally appends one
//! `report`-kind record holding the FNV-1a fingerprint of its rendered
//! report — so even session-free experiments (like `table1`) leave a
//! regression-checkable trail. Reports are deterministic on the sim
//! backend, so two same-seed invocations append byte-identical payloads.

use std::path::{Path, PathBuf};
use tictac_bench::experiments;
use tictac_core::{
    validate_perfetto, BackendKind, ClusterSpec, Fnv1a, Mode, Model, Registry, SchedulerKind,
    Session, SimConfig,
};

/// Exits 1 with `error: <path>: <cause>`: an output path that cannot be
/// written is bad input, not a bug.
fn io_fail(path: &Path, e: std::io::Error) -> ! {
    eprintln!("error: {}: {e}", path.display());
    std::process::exit(1);
}

/// Renders iteration 0 of an observed, TAC-scheduled AlexNet training
/// session (batch 2, 2 workers, 1 PS) to `path` as Chrome/Perfetto
/// `trace_event` JSON — load it at `ui.perfetto.dev` — and says what the
/// trace holds.
fn export_trace(path: &Path) {
    let session = Session::builder(Model::AlexNetV2.build_with_batch(Mode::Training, 2))
        .cluster(ClusterSpec::new(2, 1))
        .config(SimConfig::cloud_gpu())
        .scheduler(SchedulerKind::Tac)
        .observe(Registry::enabled())
        .build()
        .expect("zoo model deploys");
    let json = session.perfetto_json(0).expect("iteration 0 recovers");
    std::fs::write(path, &json).unwrap_or_else(|e| io_fail(path, e));
    let stats = validate_perfetto(&json).expect("exporter emits valid trace JSON");
    eprintln!(
        "wrote {} ({} events: {} slices, {} instants, {} flows, fault instants {:?})",
        path.display(),
        stats.events,
        stats.slices,
        stats.instants,
        stats.flow_starts + stats.flow_ends,
        stats.fault_names,
    );
}

fn validate_trace(path: &Path) {
    let src = std::fs::read_to_string(path)
        .unwrap_or_else(|e| usage(&format!("cannot read {}: {e}", path.display())));
    match validate_perfetto(&src) {
        Ok(stats) => {
            println!(
                "{}: OK ({} events: {} slices, {} instants, {} flow starts, {} flow ends)",
                path.display(),
                stats.events,
                stats.slices,
                stats.instants,
                stats.flow_starts,
                stats.flow_ends,
            );
            for (process, slices) in &stats.slices_per_process {
                println!("  {process}: {slices} slices");
            }
            // An exported iteration must exercise every device: a device
            // lane with zero slices means the trace is truncated or the
            // lane mapping regressed. (The synthetic barrier lane only
            // carries events on degraded iterations.)
            for process in &stats.processes {
                let has_slices = stats
                    .slices_per_process
                    .iter()
                    .any(|(name, count)| name == process && *count > 0);
                if process != "barrier" && !has_slices {
                    eprintln!(
                        "{}: INVALID: device lane {process:?} has no slices",
                        path.display()
                    );
                    std::process::exit(1);
                }
            }
        }
        Err(e) => {
            eprintln!("{}: INVALID: {e}", path.display());
            std::process::exit(1);
        }
    }
}

fn main() {
    let mut exp: Vec<String> = Vec::new();
    let mut quick = false;
    let mut out_dir: Option<PathBuf> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || {
            args.next()
                .unwrap_or_else(|| usage(&format!("{arg} needs a value")))
        };
        match arg.as_str() {
            "--exp" => exp.extend(value().split(',').map(str::to_string)),
            "--quick" => quick = true,
            "--out" => out_dir = Some(PathBuf::from(value())),
            "--store" => {
                tictac_store::arm_global_store(Some(&value()));
            }
            "--export-trace" => return export_trace(Path::new(&value())),
            "--validate-trace" => return validate_trace(Path::new(&value())),
            "--list" => {
                for (name, _) in experiments::ALL {
                    println!("{name}");
                }
                return;
            }
            "--help" | "-h" => {
                usage("");
            }
            other => usage(&format!("unknown argument `{other}`")),
        }
    }
    if exp.is_empty() {
        usage("pass --exp <name|all> (see --list)");
    }

    let selected: Vec<&str> = if exp.iter().any(|e| e == "all") {
        experiments::ALL.iter().map(|(n, _)| *n).collect()
    } else {
        exp.iter().map(String::as_str).collect()
    };

    if let Some(dir) = &out_dir {
        std::fs::create_dir_all(dir).unwrap_or_else(|e| io_fail(dir, e));
    }

    for name in selected {
        let Some(runner) = experiments::find(name) else {
            usage(&format!("unknown experiment `{name}` (see --list)"));
        };
        eprintln!(
            "== running {name}{} ==",
            if quick { " (quick)" } else { "" }
        );
        let started = std::time::Instant::now();
        let report = runner(quick);
        eprintln!(
            "== {name} done in {:.1}s ==",
            started.elapsed().as_secs_f64()
        );
        println!("{report}");
        if let Some(dir) = &out_dir {
            let path = dir.join(format!("{name}.txt"));
            std::fs::write(&path, report.as_bytes()).unwrap_or_else(|e| io_fail(&path, e));
            eprintln!("wrote {}", path.display());
        }
        if let Some(store) = tictac_store::global_store() {
            let record = tictac_store::RunRecord {
                id: String::new(),
                time_ms: 0,
                source: "repro".into(),
                workload: name.to_string(),
                model_fp: 0,
                workers: 0,
                ps: 0,
                scheduler: "-".into(),
                backend: BackendKind::Sim.name().into(),
                seed: SimConfig::cloud_gpu().seed,
                fault_fp: 0,
                scenario_fp: 0,
                comm_fp: 0,
                provenance: std::env::var("TICTAC_PROVENANCE").unwrap_or_default(),
                payload: tictac_store::Payload::Report(tictac_store::ReportEvidence {
                    report_fp: Fnv1a::new().bytes(report.as_bytes()).finish(),
                    quick,
                }),
            };
            match store.append(record) {
                Ok(id) => eprintln!("recorded {id} -> {}", store.path().display()),
                Err(e) => {
                    eprintln!("repro: cannot append to {}: {e}", store.path().display());
                    std::process::exit(1);
                }
            }
        }
    }
}

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("error: {err}");
    }
    eprintln!(
        "usage: repro --exp <name|all>[,name...] [--quick] [--out DIR] [--store FILE.jsonl] [--list]\n\
         \x20      repro --export-trace FILE.json   (Perfetto trace of one TAC AlexNet iteration)\n\
         \x20      repro --validate-trace FILE.json (parse + sanity-check an exported trace)\n\
         experiments: {}",
        experiments::ALL
            .iter()
            .map(|(n, _)| *n)
            .collect::<Vec<_>>()
            .join(", ")
    );
    std::process::exit(if err.is_empty() { 0 } else { 2 });
}
