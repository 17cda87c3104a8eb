//! `ledger`: the repo's benchmark. Runs one named workload in this
//! process (server, router and load generator in-process over loopback
//! TCP), checks every reply against a locally computed oracle, and
//! prints every metric by name with its unit.
//!
//! ```text
//! ledger --workload NAME [--seed N] [--seconds S] [--trace 0|1|both] [--out DIR]
//! ledger --all [--seed N] [--seconds S] --out DIR [--commit C] [--rustc V]
//! ledger --compare BASE.json NEW.json
//! ```
//!
//! `--trace 0` measures the end-to-end metrics (tracing off), `--trace 1`
//! the per-layer metrics (a traced round plus in-process probes), `both`
//! does one after the other on the same warmed server. The last line of
//! standard output is the driver's JSON result. `--all` runs each
//! workload in a fresh process and merges their results into
//! `DIR/ledger.json`.

mod compare;
mod json;
mod load;
mod measure;
mod metrics;
mod probes;
mod procfs;
mod spans;
mod stats;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use json::Json;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trace {
    Off,
    On,
    Both,
}

#[derive(Debug, Clone)]
pub struct Opts {
    pub seed: u64,
    pub seconds: u64,
    pub trace: Trace,
    pub out: Option<PathBuf>,
}

const USAGE: &str = "usage: ledger --workload NAME [--seed N] [--seconds S] [--trace 0|1|both] [--out DIR]\n       ledger --all [--seed N] [--seconds S] --out DIR [--commit C] [--rustc V]\n       ledger --compare BASE.json NEW.json";

fn main() -> ExitCode {
    match run(std::env::args().skip(1).collect()) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("ledger: {e}");
            ExitCode::from(2)
        }
    }
}

fn run(args: Vec<String>) -> Result<ExitCode, String> {
    let mut opts = Opts {
        seed: 1,
        seconds: 18,
        trace: Trace::Off,
        out: None,
    };
    let (mut workload, mut all, mut compare) = (None, false, None);
    let (mut commit, mut rustc) = (String::from("unknown"), String::from("unknown"));
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value\n{USAGE}"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                opts.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=60).contains(&opts.seconds) {
                    return Err("--seconds must be between 1 and 60".into());
                }
            }
            "--trace" => {
                opts.trace = match value()?.as_str() {
                    "0" => Trace::Off,
                    "1" => Trace::On,
                    "both" => Trace::Both,
                    other => return Err(format!("--trace takes 0, 1 or both, not `{other}`")),
                }
            }
            "--out" => opts.out = Some(PathBuf::from(value()?)),
            "--commit" => commit = value()?,
            "--rustc" => rustc = value()?,
            "--all" => all = true,
            "--compare" => compare = Some((value()?, value()?)),
            _ => return Err(format!("unknown argument `{flag}`\n{USAGE}")),
        }
    }
    if let Some((base, new)) = compare {
        return compare::run(Path::new(&base), Path::new(&new));
    }
    if all {
        return run_all(&opts, &commit, &rustc);
    }
    let name = workload.ok_or(USAGE)?;
    let spec = workloads::spec(&name).ok_or_else(|| {
        format!(
            "unknown workload `{name}` (known: {})",
            workloads::NAMES.join(", ")
        )
    })?;
    let outcome = measure::run(&spec, &opts)?;
    if let Some(dir) = &opts.out {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let path = dir.join(format!("{name}.json"));
        std::fs::write(&path, outcome.to_json().pretty())
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    outcome.print();
    println!("{}", outcome.driver_line(opts.trace));
    Ok(if outcome.passed() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Runs every workload, each in a fresh process of this same program,
/// and merges what they wrote into `DIR/ledger.json`.
fn run_all(opts: &Opts, commit: &str, rustc: &str) -> Result<ExitCode, String> {
    let dir = opts.out.clone().ok_or("--all needs --out DIR")?;
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut host = Json::obj();
    let online = std::fs::read_to_string("/proc/cpuinfo").map_or(0, |t| {
        t.lines().filter(|l| l.starts_with("processor")).count()
    });
    host.set("cpus_online", online)
        .set(
            "cpus_allowed",
            std::thread::available_parallelism().map_or(0, usize::from),
        )
        .set("rustc", rustc)
        .set("commit", commit)
        .set(
            "load_average_1m",
            procfs::load_average().map_or(Json::Null, Json::Num),
        )
        .set("seed", opts.seed)
        .set("seconds", opts.seconds);
    let mut workloads_json = Json::obj();
    let mut all_passed = true;
    for name in workloads::NAMES {
        println!("== {name}");
        let status = std::process::Command::new(&exe)
            .args(["--workload", name, "--trace", "both"])
            .args([
                "--seed",
                &opts.seed.to_string(),
                "--seconds",
                &opts.seconds.to_string(),
            ])
            .arg("--out")
            .arg(&dir)
            .status()
            .map_err(|e| format!("spawning {name}: {e}"))?;
        all_passed &= status.success();
        let path = dir.join(format!("{name}.json"));
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        workloads_json.set(
            name,
            Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?,
        );
    }
    let mut doc = Json::obj();
    doc.set("host", host).set("workloads", workloads_json);
    let path = dir.join("ledger.json");
    std::fs::write(&path, doc.pretty()).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(if all_passed {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}
