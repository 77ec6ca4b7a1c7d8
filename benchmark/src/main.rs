//! `ledger`: the repo's benchmark. See `README.md`.
//!
//! ```text
//! ledger --workload W --seed N --seconds S --trace 0|1 [--out FILE]   one run
//! ledger report [--seed N] [--seconds S] [--smoke] [--out FILE]       all of them
//! ledger compare A.json B.json                                        two reports
//! ```

mod host;
mod layers;
mod metrics;
mod pipeline;
mod points;
mod report;
mod run;
mod span;
mod stats;
mod workloads;

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use layers::Json;
use run::{RunArgs, SETUP_ROUNDS};

#[global_allocator]
static ALLOC: host::CountingAlloc = host::CountingAlloc;

/// `run_seconds` of `BENCHMARK.json`: how long `ledger report` measures
/// each workload untraced.
const REPORT_SECONDS: f64 = 22.0;

const USAGE: &str = "usage:
  ledger --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <file>]
  ledger report [--seed <n>] [--seconds <s>] [--smoke] [--out <file>]
  ledger compare <A.json> <B.json>
workloads: zoo_sweep scale_sweep observe_export store_history";

/// `--key value` pairs and bare flags, in any order.
struct Flags(Vec<String>);

impl Flags {
    fn value(&mut self, key: &str) -> Result<Option<String>, String> {
        let Some(i) = self.0.iter().position(|a| a == key) else {
            return Ok(None);
        };
        if i + 1 >= self.0.len() {
            return Err(format!("{key} needs a value"));
        }
        self.0.remove(i);
        Ok(Some(self.0.remove(i)))
    }

    fn parsed<T: std::str::FromStr>(&mut self, key: &str) -> Result<Option<T>, String> {
        match self.value(key)? {
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("invalid value `{v}` for {key}")),
        }
    }

    fn flag(&mut self, key: &str) -> bool {
        match self.0.iter().position(|a| a == key) {
            Some(i) => {
                self.0.remove(i);
                true
            }
            None => false,
        }
    }

    fn finish(self) -> Result<(), String> {
        match self.0.first() {
            None => Ok(()),
            Some(extra) => Err(format!("unexpected argument `{extra}`")),
        }
    }
}

/// One workload in this process: the driver's contract.
fn run_one(mut flags: Flags) -> Result<ExitCode, String> {
    let workload = flags.value("--workload")?.ok_or("--workload is required")?;
    let seed = flags.parsed("--seed")?.unwrap_or(1);
    let seconds: f64 = flags.parsed("--seconds")?.unwrap_or(REPORT_SECONDS);
    let traced = match flags.value("--trace")?.as_deref() {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace takes 0 or 1, not `{other}`")),
    };
    let setup_rounds = flags.parsed("--setup-rounds")?.unwrap_or(SETUP_ROUNDS);
    let warm_up = !flags.flag("--no-warm-up");
    let out = flags.value("--out")?.map(PathBuf::from);
    flags.finish()?;
    if !(seconds >= 0.0 && seconds.is_finite()) {
        return Err("--seconds must be a non-negative number".into());
    }

    let result = run::run(RunArgs {
        workload,
        seed,
        seconds,
        traced,
        setup_rounds,
        warm_up,
    })?;
    let detail = report::run_json(&result);
    if let Some(path) = out {
        std::fs::write(&path, layers::render_json_pretty(&detail))
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    print!("{}", report::run_tables(&detail));
    println!("{}", report::contract_line(&result));
    Ok(ExitCode::SUCCESS)
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// Every workload, untraced then traced, each in a child process of its
/// own (clean peak RSS, clean global caches), one after another.
fn report_all(mut flags: Flags) -> Result<ExitCode, String> {
    let seed: u64 = flags.parsed("--seed")?.unwrap_or(1);
    let smoke = flags.flag("--smoke");
    let seconds: f64 =
        flags
            .parsed("--seconds")?
            .unwrap_or(if smoke { 0.0 } else { REPORT_SECONDS });
    let out = flags.value("--out")?.map(PathBuf::from);
    flags.finish()?;

    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let scratch = exe
        .parent()
        .ok_or("executable has no directory")?
        .join("ledger-tmp");
    std::fs::create_dir_all(&scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
    let started = std::time::Instant::now();
    let info = vec![
        ("nproc".to_string(), Json::Num(host::nproc() as f64)),
        (
            "TICTAC_THREADS".to_string(),
            Json::Str(std::env::var("TICTAC_THREADS").unwrap_or_else(|_| "unset".into())),
        ),
        (
            "rustc".to_string(),
            Json::Str(command_line("rustc", &["-V"])),
        ),
        (
            "git".to_string(),
            Json::Str(command_line("git", &["rev-parse", "--short", "HEAD"])),
        ),
        ("seed".to_string(), Json::Num(seed as f64)),
        ("seconds".to_string(), Json::Num(seconds)),
        ("smoke".to_string(), Json::Bool(smoke)),
        ("loadavg_start".to_string(), Json::Str(host::loadavg())),
    ];
    println!(
        "ledger report: {}",
        layers::render_json(&Json::Obj(info.clone()))
    );

    let mut failed = false;
    let mut workloads = Vec::new();
    for workload in points::WORKLOADS {
        let mut runs = Vec::new();
        // The smoke run is one untraced pass per workload, nothing else.
        for traced in [false, true].into_iter().take(if smoke { 1 } else { 2 }) {
            let file = scratch.join(format!("{workload}.{}.json", u8::from(traced)));
            let mut child = Command::new(&exe);
            child
                .args(["--workload", workload, "--seed", &seed.to_string()])
                .args(["--trace", if traced { "1" } else { "0" }])
                // Traced children make their minimum of passes: the
                // end-to-end numbers never come from them.
                .args(["--seconds", &if traced { 0.0 } else { seconds }.to_string()])
                .arg("--out")
                .arg(&file);
            if smoke {
                child.args(["--setup-rounds", "1", "--no-warm-up"]);
            } else if traced {
                child.args(["--setup-rounds", "1"]);
            }
            let output = child.output().map_err(|e| format!("spawn ledger: {e}"))?;
            if !output.status.success() {
                return Err(format!(
                    "{workload} (trace {}) exited with {}: {}",
                    u8::from(traced),
                    output.status,
                    String::from_utf8_lossy(&output.stderr).trim()
                ));
            }
            let text = std::fs::read_to_string(&file).map_err(|e| e.to_string())?;
            let _ = std::fs::remove_file(&file);
            let run = layers::parse_json(&text)?;
            failed |= run.get("failed").and_then(Json::as_f64) != Some(0.0);
            print!("{}", report::run_tables(&run));
            runs.push((if traced { "traced" } else { "untraced" }.to_string(), run));
        }
        workloads.push((workload.to_string(), Json::Obj(runs)));
    }
    let mut info = info;
    info.push((
        "wall_s".to_string(),
        Json::Num(started.elapsed().as_secs_f64()),
    ));
    let full = Json::Obj(vec![
        ("ledger".to_string(), Json::Num(1.0)),
        ("info".to_string(), Json::Obj(info)),
        ("workloads".to_string(), Json::Obj(workloads)),
    ]);
    if let Some(path) = out {
        std::fs::write(&path, layers::render_json_pretty(&full))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!("report written to {}", path.display());
    }
    println!(
        "ledger report: {:.1} s, {}",
        started.elapsed().as_secs_f64(),
        if failed {
            "CORRECTNESS CHECKS FAILED"
        } else {
            "all correctness checks passed"
        }
    );
    Ok(if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn compare(args: &[String]) -> Result<ExitCode, String> {
    let [a, b] = args else {
        return Err("compare takes two report files".into());
    };
    let read = |p: &String| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
    let (table, worse) = report::compare(&read(a)?, &read(b)?)?;
    print!("{table}");
    Ok(if worse {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("compare") => compare(&args[1..]),
        Some("report") => report_all(Flags(args[1..].to_vec())),
        Some("-h" | "--help" | "help") => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        None => report_all(Flags(Vec::new())),
        Some(_) => run_one(Flags(args)),
    };
    result.unwrap_or_else(|e| {
        eprintln!("ledger: {e}\n{USAGE}");
        ExitCode::from(2)
    })
}
