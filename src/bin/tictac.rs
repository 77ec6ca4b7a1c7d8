//! `tictac` — command-line front end to the TicTac reproduction.
//!
//! ```text
//! tictac models
//! tictac schedule resnet_v1_50 --scheduler tac --top 20
//! tictac run inception_v3 --workers 8 --ps 2 --scheduler tic --env g
//! tictac run examples/scenarios/vgg19_hetero.yml     # declarative scenario
//! tictac run sweep.yml --dry-run                     # validate + show the grid
//! tictac timeline alexnet_v2 --format chrome --out trace.json
//! tictac run alexnet_v2 --store results/runs.jsonl   # record the run
//! tictac runs list --workload alexnet_v2             # query the corpus
//! tictac runs show                                   # latest record, percentiles
//! tictac runs diff --last-two                        # drift between two runs
//! tictac runs regress --window 5                     # history-aware CI gate
//! ```
//!
//! The `runs` subcommands read the run store — `--store PATH`, else the
//! `TICTAC_RUN_STORE` environment variable, else `results/runs.jsonl`.

use std::collections::HashMap;
use tictac::{
    diff_records, gantt, parallel_map, regress, BackendKind, ClusterSpec, Mode, Model, Payload,
    RegressPolicy, RunFilter, RunRecord, RunStore, Scenario, SchedulerKind, Session,
    SessionSummary, SimConfig,
};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        usage("");
    };
    match command.as_str() {
        "models" => {
            parse_flags(&args, &[]);
            models();
        }
        "schedule" => schedule(&args),
        "run" => run(&args),
        "runs" => runs(&args),
        "timeline" => timeline(&args),
        "--help" | "-h" | "help" => usage(""),
        other => usage(&format!("unknown command `{other}`")),
    }
}

/// The `--name [value]` flags after the subcommand. Each subcommand
/// passes the names it reads as `known`; any other flag is a usage error
/// rather than a setting silently left at its default.
fn parse_flags(args: &[String], known: &[&str]) -> HashMap<String, String> {
    let mut flags = HashMap::new();
    let mut it = args[1..].iter().peekable();
    while let Some(arg) = it.next() {
        if let Some(name) = arg.strip_prefix("--") {
            if !known.contains(&name) {
                usage(&format!("unknown flag --{name}"));
            }
            let value = it
                .peek()
                .filter(|v| !v.starts_with("--"))
                .map(|v| v.to_string())
                .unwrap_or_default();
            if !value.is_empty() {
                it.next();
            }
            flags.insert(name.to_string(), value);
        }
    }
    flags
}

fn model_arg(args: &[String]) -> Model {
    args.get(1)
        .filter(|a| !a.starts_with("--"))
        .and_then(|name| Model::from_name(name))
        .unwrap_or_else(|| {
            usage(&format!(
                "expected a model name ({})",
                Model::ALL.map(Model::name).join(", ")
            ))
        })
}

fn flag_usize(flags: &HashMap<String, String>, name: &str, default: usize) -> usize {
    flags
        .get(name)
        .map(|v| {
            v.parse()
                .unwrap_or_else(|_| usage(&format!("--{name} expects a number")))
        })
        .unwrap_or(default)
}

fn flag_mode(flags: &HashMap<String, String>) -> Mode {
    match flags.get("mode").map(String::as_str) {
        Some("inference") => Mode::Inference,
        Some("train") | Some("training") | None => Mode::Training,
        Some(other) => usage(&format!("unknown --mode `{other}`")),
    }
}

fn flag_config(flags: &HashMap<String, String>) -> SimConfig {
    match flags.get("env").map(String::as_str) {
        Some("c") | Some("envC") => SimConfig::cpu_cluster(),
        Some("g") | Some("envG") | None => SimConfig::cloud_gpu(),
        Some(other) => usage(&format!("unknown --env `{other}` (use g or c)")),
    }
}

fn flag_scheduler(flags: &HashMap<String, String>) -> SchedulerKind {
    match flags.get("scheduler") {
        None => SchedulerKind::Tic,
        Some(name) => SchedulerKind::from_name(name)
            .unwrap_or_else(|| usage(&format!("unknown --scheduler `{name}`"))),
    }
}

fn models() {
    println!(
        "{:<16} {:>6} {:>10} {:>9} {:>10} {:>6}",
        "model", "params", "size(MiB)", "ops(inf)", "ops(train)", "batch"
    );
    for model in Model::ALL {
        let inf = model.build_with_batch(Mode::Inference, 1);
        let tr = model.build_with_batch(Mode::Training, 1);
        let s = inf.stats();
        println!(
            "{:<16} {:>6} {:>10.2} {:>9} {:>10} {:>6}",
            model.name(),
            s.params,
            s.param_mib(),
            s.ops,
            tr.stats().ops,
            model.default_batch()
        );
    }
}

/// Prints the transfer order a 1 worker × 1 PS session of the model
/// enforces: the session's own schedule, so what is printed is what runs.
fn schedule(args: &[String]) {
    let flags = &parse_flags(args, &["mode", "scheduler", "top", "env"]);
    let model = model_arg(args);
    let top = flag_usize(flags, "top", 25);
    let scheduler = flag_scheduler(flags);
    if !matches!(scheduler, SchedulerKind::Tic | SchedulerKind::Tac) {
        usage(&format!(
            "`schedule` prints a tic or tac order; --scheduler {scheduler} enforces none"
        ));
    }
    let session = Session::builder(model.build(flag_mode(flags)))
        .cluster(ClusterSpec::new(1, 1))
        .config(flag_config(flags))
        .scheduler(scheduler)
        .build()
        .unwrap_or_else(|e| usage(&format!("invalid deployment: {e}")));
    let g = session.deployed().graph();
    let mut order = g.recv_ops_on(session.deployed().workers()[0]);
    order.sort_by_key(|&op| (session.schedule().priority(op), op));
    println!(
        "{}: transfer order ({} of {} shown)",
        model.name(),
        top.min(order.len()),
        order.len()
    );
    for (rank, op) in order.iter().take(top).enumerate() {
        println!("{rank:>4}  {}", g.op_name(*op));
    }
}

/// Does `run`'s positional argument name a scenario file rather than a
/// zoo model? Scenario mode is chosen by extension (`.yml` / `.yaml`),
/// or by the argument being an existing file that is not a model name.
fn is_scenario_arg(arg: &str) -> bool {
    let lower = arg.to_ascii_lowercase();
    lower.ends_with(".yml")
        || lower.ends_with(".yaml")
        || (Model::from_name(arg).is_none() && std::path::Path::new(arg).is_file())
}

/// `tictac run scenario.yml`: parse, expand the grid, and either validate
/// (`--dry-run`) or execute every expanded point.
fn run_scenario(path: &str, flags: &HashMap<String, String>) {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| usage(&format!("cannot read {path}: {e}")));
    let grid = Scenario::parse_grid(&text).unwrap_or_else(|e| usage(&format!("{path}: {e}")));
    if flags.contains_key("dry-run") {
        println!("{path}: valid — {} scenario(s) in the grid", grid.len());
        for s in &grid {
            println!(
                "  {:016x}  {} | {} {}x{} | {} | {} | {} | seed {} | {}+{} iters",
                s.fingerprint(),
                s.name,
                s.model.name(),
                s.cluster.workers,
                s.cluster.parameter_servers,
                if s.cluster.is_uniform() {
                    "uniform"
                } else {
                    "hetero"
                },
                s.scheduler,
                s.backend,
                s.seed,
                s.warmup,
                s.iterations,
            );
        }
        return;
    }
    if let Some(store) = tictac::store::arm_global_store(flags.get("store").map(String::as_str)) {
        eprintln!("recording to {}", store.path().display());
    }
    let results = parallel_map(grid, |s| {
        let session = Session::from_scenario(s)
            .unwrap_or_else(|e| usage(&format!("{path} ({}/{}): {e}", s.scheduler, s.backend)));
        let report = session
            .try_run()
            .unwrap_or_else(|e| usage(&format!("{path} ({}/{}): {e}", s.scheduler, s.backend)));
        (s.clone(), report)
    });
    for (s, report) in &results {
        println!(
            "{} [{:016x}] | {} | {} | {} workers / {} ps | seed {} | \
             throughput {:.1} samples/s | iteration {} | efficiency {:.3}",
            s.name,
            s.fingerprint(),
            s.scheduler,
            s.backend,
            s.cluster.workers,
            s.cluster.parameter_servers,
            s.seed,
            report.mean_throughput(),
            report.mean_makespan(),
            report.mean_efficiency(),
        );
    }
}

fn run(args: &[String]) {
    if let Some(arg) = args.get(1).filter(|a| !a.starts_with("--")) {
        if is_scenario_arg(arg) {
            run_scenario(arg, &parse_flags(args, &["dry-run", "store"]));
            return;
        }
    }
    let flags = &parse_flags(
        args,
        &[
            "workers",
            "ps",
            "scheduler",
            "iterations",
            "mode",
            "env",
            "store",
        ],
    );
    let model = model_arg(args);
    let workers = flag_usize(flags, "workers", 4);
    let ps = flag_usize(flags, "ps", (workers / 4).max(1));
    let iterations = flag_usize(flags, "iterations", 10);
    if iterations == 0 {
        usage("--iterations must be at least 1");
    }
    let scheduler = flag_scheduler(flags);
    if let Some(store) = tictac::store::arm_global_store(flags.get("store").map(String::as_str)) {
        eprintln!("recording to {}", store.path().display());
    }
    let cluster = ClusterSpec::try_new(workers, ps)
        .unwrap_or_else(|e| usage(&format!("invalid cluster: {e}")));
    let session = Session::builder(model.build(flag_mode(flags)))
        .cluster(cluster)
        .config(flag_config(flags))
        .scheduler(scheduler)
        .iterations(iterations)
        .build()
        .unwrap_or_else(|e| usage(&format!("invalid deployment: {e}")));
    let report = session.run();
    println!(
        "{} | {scheduler} | {workers} workers / {ps} ps | {} iterations",
        model.name(),
        iterations
    );
    println!(
        "throughput {:.1} samples/s | iteration {} | efficiency {:.3} | straggler max {:.1}%",
        report.mean_throughput(),
        report.mean_makespan(),
        report.mean_efficiency(),
        report.max_straggler_pct()
    );
}

/// Store path resolution for `runs`: `--store`, else `TICTAC_RUN_STORE`,
/// else the committed default corpus (one shared rule in `tictac-store`).
fn runs_store(flags: &HashMap<String, String>) -> RunStore {
    RunStore::at(tictac::store::resolve_store_path(
        flags.get("store").map(String::as_str),
    ))
}

fn flag_u64(flags: &HashMap<String, String>, name: &str) -> Option<u64> {
    flags.get(name).map(|v| {
        v.parse()
            .unwrap_or_else(|_| usage(&format!("--{name} expects an unsigned integer")))
    })
}

/// The record kinds a store holds (`Payload::kind`).
const RECORD_KINDS: [&str; 2] = ["session", "report"];

/// The non-empty value of `--flag`, refused as a usage error unless
/// `known` accepts it (`expected` says what would be).
fn known_flag(
    flags: &HashMap<String, String>,
    flag: &str,
    known: impl Fn(&str) -> bool,
    expected: &str,
) -> Option<String> {
    let value = flags.get(flag).cloned().filter(|v| !v.is_empty());
    if let Some(v) = value.as_deref().filter(|v| !known(v)) {
        usage(&format!("unknown --{flag} `{v}` (use {expected})"));
    }
    value
}

fn runs_filter(flags: &HashMap<String, String>) -> RunFilter {
    // A record's scheduler is a policy name, or `-` for a report.
    let schedulers: Vec<&str> = SchedulerKind::ALL.iter().map(|k| k.name()).collect();
    let backends: Vec<&str> = BackendKind::ALL.iter().map(|k| k.name()).collect();
    RunFilter {
        workload: flags.get("workload").cloned().filter(|v| !v.is_empty()),
        scheduler: known_flag(
            flags,
            "scheduler",
            |s| s == "-" || SchedulerKind::from_name(s).is_some(),
            &format!("{} or - for reports", schedulers.join(", ")),
        ),
        backend: known_flag(
            flags,
            "backend",
            |b| BackendKind::from_name(b).is_some(),
            &backends.join(" or "),
        ),
        kind: known_flag(
            flags,
            "kind",
            |k| RECORD_KINDS.contains(&k),
            &RECORD_KINDS.join(" or "),
        ),
        seed_min: flag_u64(flags, "seed-min"),
        seed_max: flag_u64(flags, "seed-max"),
    }
}

/// One summary line per record, for `runs list`.
fn list_line(r: &RunRecord) -> String {
    let evidence = match &r.payload {
        Payload::Session(s) => {
            let sum = SessionSummary::of(s);
            format!(
                "iters {} | mean makespan {:.0} ns | eff {:.3} | inversions {}",
                sum.iterations, sum.mean_makespan_ns, sum.mean_efficiency, sum.inversions
            )
        }
        Payload::Report(rep) => format!(
            "report fp {:016x}{}",
            rep.report_fp,
            if rep.quick { " (quick)" } else { "" }
        ),
    };
    format!(
        "{}  {:<7} {:<16} {:>3}x{:<2} {:<8} {:<8} seed {:<12} {evidence}",
        r.id,
        r.payload.kind(),
        r.workload,
        r.workers,
        r.ps,
        r.scheduler,
        r.backend,
        r.seed
    )
}

/// Full detail for `runs show`, percentiles included.
fn show_record(r: &RunRecord) {
    println!("run       {}", r.id);
    println!("kind      {} (source {})", r.payload.kind(), r.source);
    println!("workload  {} (model fp {:016x})", r.workload, r.model_fp);
    println!("cluster   {} workers / {} ps", r.workers, r.ps);
    println!("scheduler {} | backend {}", r.scheduler, r.backend);
    println!("seed      {} | fault fp {:016x}", r.seed, r.fault_fp);
    if r.scenario_fp != 0 {
        println!("scenario  fp {:016x}", r.scenario_fp);
    }
    if !r.provenance.is_empty() {
        println!("prov      {}", r.provenance);
    }
    match &r.payload {
        Payload::Session(s) => {
            let sum = SessionSummary::of(s);
            println!("iterations        {}", sum.iterations);
            println!("mean makespan     {:.0} ns", sum.mean_makespan_ns);
            println!(
                "makespan p50/p95/p99  {} / {} / {} ns",
                sum.p50_makespan_ns, sum.p95_makespan_ns, sum.p99_makespan_ns
            );
            println!("mean efficiency   {:.4}", sum.mean_efficiency);
            println!("mean goodput      {:.1}%", sum.mean_goodput_pct);
            println!("inversions        {}", sum.inversions);
            println!("fault events      {}", sum.fault_events);
            if !s.snapshot.entries.is_empty() {
                println!("metrics snapshot:");
                for line in s.snapshot.render().lines() {
                    println!("  {line}");
                }
            }
        }
        Payload::Report(rep) => {
            println!("report fp         {:016x}", rep.report_fp);
            println!("quick             {}", rep.quick);
        }
    }
}

fn runs(args: &[String]) {
    let sub = args
        .get(1)
        .filter(|a| !a.starts_with("--"))
        .map(String::as_str)
        .unwrap_or("list");
    // The store and the record filters, then what the subcommand adds.
    let mut known = vec![
        "store",
        "workload",
        "scheduler",
        "backend",
        "kind",
        "seed-min",
        "seed-max",
    ];
    known.extend_from_slice(match sub {
        "list" => &[],
        "show" => &["id"],
        "diff" => &["a", "b", "last-two"],
        "regress" => &["window"],
        other => usage(&format!("unknown runs subcommand `{other}`")),
    });
    let flags = &parse_flags(args, &known);
    let filter = runs_filter(flags);
    let store = runs_store(flags);
    let mut filtered = store
        .load()
        .unwrap_or_else(|e| usage(&format!("cannot load {}: {e}", store.path().display())));
    let total = filtered.len();
    filtered.retain(|r| filter.matches(r));
    match sub {
        "list" => {
            for r in &filtered {
                println!("{}", list_line(r));
            }
            println!(
                "{total} record(s) in {} ({} after filters)",
                store.path().display(),
                filtered.len()
            );
        }
        "show" => {
            let record = match flags.get("id").filter(|v| !v.is_empty()) {
                Some(id) => filtered
                    .iter()
                    .find(|r| &r.id == id)
                    .unwrap_or_else(|| usage(&format!("no record with id {id}"))),
                None => filtered
                    .last()
                    .unwrap_or_else(|| usage("the store is empty (after filters)")),
            };
            show_record(record);
        }
        "diff" => {
            let by_id = |key: &str| {
                flags.get(key).filter(|v| !v.is_empty()).map(|id| {
                    filtered
                        .iter()
                        .find(|r| &r.id == id)
                        .unwrap_or_else(|| usage(&format!("no record with id {id}")))
                })
            };
            let (a, b) = match (by_id("a"), by_id("b")) {
                (Some(a), Some(b)) => (a, b),
                (None, None) => {
                    // Default (also spelled --last-two): the two most
                    // recent records under the filters.
                    if filtered.len() < 2 {
                        usage("need at least two records to diff");
                    }
                    (&filtered[filtered.len() - 2], &filtered[filtered.len() - 1])
                }
                _ => usage("--a and --b must be passed together"),
            };
            let diff = diff_records(a, b);
            print!("{}", diff.render());
            if diff.is_zero() {
                println!("zero drift");
            }
        }
        "regress" => {
            let policy = RegressPolicy {
                window: flag_usize(flags, "window", RegressPolicy::default().window),
                ..RegressPolicy::default()
            };
            if policy.window == 0 {
                usage("--window must be at least 1");
            }
            let report = regress(&filtered, &policy);
            print!("{}", report.render());
            if report.failed() {
                std::process::exit(1);
            }
        }
        _ => unreachable!("`sub` was matched above"),
    }
}

/// Renders iteration 0 of a session: the trace its backend executes and
/// the Perfetto export of that same iteration.
fn timeline(args: &[String]) {
    let flags = &parse_flags(
        args,
        &["workers", "ps", "scheduler", "format", "out", "env", "mode"],
    );
    let model = model_arg(args);
    let workers = flag_usize(flags, "workers", 2);
    let ps = flag_usize(flags, "ps", 1);
    let cluster = ClusterSpec::try_new(workers, ps)
        .unwrap_or_else(|e| usage(&format!("invalid cluster: {e}")));
    let session = Session::builder(model.build(flag_mode(flags)))
        .cluster(cluster)
        .config(flag_config(flags))
        .scheduler(flag_scheduler(flags))
        .build()
        .unwrap_or_else(|e| usage(&format!("invalid deployment: {e}")));
    let g = session.deployed().graph();
    let trace = session.trace_iteration(0).expect("a fault-free iteration");
    let rendered = match flags.get("format").map(String::as_str) {
        Some("chrome") => session.perfetto_json(0).expect("a fault-free iteration"),
        Some("tsv") => trace.to_tsv(g),
        Some("gantt") | None => gantt(g, &trace, 100),
        Some(other) => usage(&format!("unknown --format `{other}`")),
    };
    match flags.get("out") {
        Some(path) if !path.is_empty() => {
            if let Err(e) = std::fs::write(path, rendered) {
                eprintln!("error: {path}: {e}");
                std::process::exit(1);
            }
            eprintln!("wrote {path} (makespan {})", trace.makespan());
        }
        _ => println!("{rendered}"),
    }
}

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("error: {err}\n");
    }
    eprintln!(
        "tictac — communication scheduling for distributed deep learning (MLSys'19 reproduction)\n\n\
         usage:\n\
         \x20 tictac models\n\
         \x20 tictac schedule <model> [--mode train|inference] [--scheduler tic|tac] [--top N] [--env g|c]\n\
         \x20 tictac run <model> [--workers N] [--ps N] [--scheduler baseline|random|tic|tac]\n\
         \x20        [--iterations N] [--mode train|inference] [--env g|c] [--store FILE.jsonl]\n\
         \x20 tictac run <scenario.yml> [--dry-run] [--store FILE.jsonl]\n\
         \x20 tictac runs [list|show|diff|regress] [--store FILE.jsonl] [--workload NAME]\n\
         \x20        [--scheduler baseline|random|tic|tac|-] [--backend sim|threaded]\n\
         \x20        [--kind session|report]\n\
         \x20        [--seed-min N] [--seed-max N] [--id RID] [--a RID --b RID] [--window N]\n\
         \x20 tictac timeline <model> [--workers N] [--ps N] [--scheduler baseline|random|tic|tac]\n\
         \x20        [--mode train|inference] [--format gantt|chrome|tsv] [--out FILE] [--env g|c]"
    );
    std::process::exit(if err.is_empty() { 0 } else { 2 });
}
