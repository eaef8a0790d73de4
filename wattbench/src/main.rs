//! `wattbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]`
//!
//! Runs one workload, checks its outputs and prints two JSON lines on
//! stdout: the environment, then the result (`correct`, `attempted`,
//! `failed`, `metrics`) with the end-to-end metrics (`--trace 0`) or the
//! per-layer ones (`--trace 1`), each with its unit.

use std::path::Path;
use std::process::{Command, ExitCode};
use wattbench::catalogue::{END_TO_END, PER_LAYER};
use wattbench::checks::DEFAULT_SEED;
use wattbench::workloads::{Run, Workload};
use wattroute::json::{self, JsonValue};

const USAGE: &str = "usage: wattbench --workload <sweep-24d|replay-39m|daemon-mixed|tree-1000> \
                     [--seed N] [--seconds S] [--trace 0|1]";

fn parse(mut args: impl Iterator<Item = String>) -> Result<Run, String> {
    let mut workload = None;
    let mut run =
        Run { workload: Workload::Sweep24d, seed: DEFAULT_SEED, seconds: 10, traced: false };
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload '{value}'"))?,
                )
            }
            "--seed" => {
                run.seed =
                    value.parse().map_err(|_| format!("--seed takes an integer, not '{value}'"))?
            }
            "--seconds" => {
                run.seconds =
                    value.parse().ok().filter(|&s| s >= 1).ok_or_else(|| {
                        format!("--seconds takes a positive integer, not '{value}'")
                    })?
            }
            "--trace" => {
                run.traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not '{value}'")),
                }
            }
            _ => return Err(format!("unknown argument '{flag}'")),
        }
    }
    run.workload = workload.ok_or("--workload is required")?;
    Ok(run)
}

/// The commit of the working directory's repository, if it is one. The
/// search stops at the working directory, so nothing outside it is read.
fn git_commit() -> String {
    let mut git = Command::new("git");
    git.args(["rev-parse", "HEAD"]);
    if let Some(parent) = std::env::current_dir().ok().as_deref().and_then(Path::parent) {
        git.env("GIT_CEILING_DIRECTORIES", parent);
    }
    git.output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

fn main() -> ExitCode {
    // A run starts itself with `--probe` to time the host probe.
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args == ["--probe"] {
        wattbench::host::probe_main();
        return ExitCode::SUCCESS;
    }
    let run = match parse(args.into_iter()) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("wattbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let measured = run.workload.run(&run);

    let (threads, connections) = run.workload.loadgen();
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let environment = json::object([(
        "environment",
        json::object([
            ("workload", JsonValue::String(run.workload.name().to_string())),
            ("seed", JsonValue::Number(run.seed as f64)),
            ("seconds", JsonValue::Number(run.seconds as f64)),
            ("trace", JsonValue::Bool(run.traced)),
            ("repetitions", JsonValue::Number(measured.repetitions as f64)),
            ("outputs_digest", measured.digest.clone().map_or(JsonValue::Null, JsonValue::String)),
            ("nproc", JsonValue::Number(nproc as f64)),
            ("profile", JsonValue::String(env!("WATTBENCH_PROFILE").to_string())),
            ("rustc", JsonValue::String(env!("WATTBENCH_RUSTC").to_string())),
            ("git_commit", JsonValue::String(git_commit())),
            ("telemetry", JsonValue::Bool(wattroute_obs::Telemetry::enabled())),
            ("loadgen_threads", JsonValue::Number(threads as f64)),
            ("loadgen_connections", JsonValue::Number(connections as f64)),
        ]),
    )]);
    println!("{environment}");

    let outcome = &measured.outcome;
    let mut correct = outcome.failed == 0 && outcome.attempted > 0;
    let mut metrics = Vec::new();
    for &(name, unit) in if run.traced { PER_LAYER } else { END_TO_END } {
        let value = match measured.samples.median(name) {
            Some(v) if v.is_finite() => v,
            // A failed request is an infinite latency; JSON has no infinity.
            Some(_) => f64::MAX,
            None if run.traced => 0.0,
            None => {
                eprintln!("wattbench: {name} was not measured");
                correct = false;
                0.0
            }
        };
        eprintln!("wattbench: {name} = {value} {unit}");
        let metric = json::object([
            ("value", JsonValue::Number(value)),
            ("unit", JsonValue::String(unit.to_string())),
        ]);
        metrics.push((name, metric));
    }
    let result = json::object([
        ("correct", JsonValue::Bool(correct)),
        ("attempted", JsonValue::Number(outcome.attempted as f64)),
        ("failed", JsonValue::Number(outcome.failed as f64)),
        ("metrics", json::object_iter(metrics)),
    ]);
    println!("{result}");
    ExitCode::SUCCESS
}
