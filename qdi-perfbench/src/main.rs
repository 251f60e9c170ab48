//! `qdi-perfbench`: one command for the end-to-end and per-layer
//! numbers of the three user-facing uses of the workspace — DPA
//! evaluation, the secure layout flow and served campaigns (the last
//! measured per layer, in the `acquire_attack` traced run).
//!
//! ```text
//! qdi-perfbench --workload <acquire_attack|layout_flow>
//!               --seed <n> --seconds <s> --trace <0|1>
//! qdi-perfbench --compare <result.json> <result.json>
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` runs the
//! traced variant and prints the per-layer metrics. The last stdout
//! line is always one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`; every correctness
//! gate that fails makes the exit code nonzero. See README.md.

mod acquire;
mod layout;
mod metrics;
mod provenance;
mod serve;
mod span;
mod stats;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

use metrics::Outcome;

/// Directory, relative to the working directory, for everything a run
/// leaves behind (result files, span files, scratch stores).
const WORK_DIR: &str = ".qdi-perfbench";

/// What one invocation runs.
pub struct RunCtx {
    /// Workload seed: every input is generated from it.
    pub seed: u64,
    /// Measurement budget.
    pub budget: Duration,
    /// Traced (per-layer) variant.
    pub traced: bool,
    /// Scratch directory for this run.
    pub work_dir: PathBuf,
}

enum Command {
    Run { workload: String, ctx: RunCtx },
    Compare(PathBuf, PathBuf),
}

fn parse_args(args: &[String]) -> Result<Command, String> {
    if args.first().map(String::as_str) == Some("--compare") {
        return match args {
            [_, a, b] => Ok(Command::Compare(a.into(), b.into())),
            _ => Err("--compare takes exactly two result files".into()),
        };
    }
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => workload = Some(value.to_string()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !metrics::WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (expected one of {})",
            metrics::WORKLOADS.join(", ")
        ));
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(Command::Run {
        workload,
        ctx: RunCtx {
            seed: seed.unwrap_or(1),
            budget: Duration::from_secs_f64(seconds),
            traced: trace.unwrap_or(false),
            work_dir: PathBuf::from(WORK_DIR),
        },
    })
}

fn run(workload: &str, ctx: &RunCtx) -> Outcome {
    match workload {
        "acquire_attack" => acquire::run(ctx),
        "layout_flow" => layout::run(ctx),
        _ => unreachable!("workload names are checked by parse_args"),
    }
}

fn main() -> ExitCode {
    // Stray telemetry must not skew the numbers: record what was set,
    // then clear it before any workspace code reads it.
    let telemetry_env = provenance::take_telemetry_env();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = match parse_args(&args) {
        Ok(command) => command,
        Err(e) => {
            eprintln!("qdi-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match command {
        Command::Compare(a, b) => compare(&a, &b),
        Command::Run { workload, ctx } => {
            if let Err(e) = std::fs::create_dir_all(ctx.work_dir.join("results")) {
                eprintln!("qdi-perfbench: create {}: {e}", ctx.work_dir.display());
                return ExitCode::from(2);
            }
            let outcome = run(&workload, &ctx);
            let provenance = provenance::collect(&outcome, telemetry_env);
            let result = outcome.result_json(ctx.traced);
            outcome.print_human(&workload, ctx.traced);
            println!("provenance {provenance}");
            let path = ctx.work_dir.join("results").join(format!(
                "{workload}-seed{}-trace{}.json",
                ctx.seed,
                u8::from(ctx.traced)
            ));
            let file = format!(
                "{{\"workload\":\"{workload}\",\"seed\":{},\"traced\":{},\"provenance\":{provenance},\"result\":{result}}}\n",
                ctx.seed, ctx.traced
            );
            if let Err(e) = std::fs::write(&path, file) {
                eprintln!("qdi-perfbench: write {}: {e}", path.display());
            }
            println!("{result}");
            if outcome.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
    }
}

/// Compares two saved result files metric by metric. Refuses (exit 2)
/// when the runs used different worker counts or workloads: their
/// numbers measure different things.
fn compare(a: &Path, b: &Path) -> ExitCode {
    let load = |p: &Path| -> Result<serde::Value, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
        serde_json::parse_value_str(&text).map_err(|e| format!("{}: {e:?}", p.display()))
    };
    let (va, vb) = match (load(a), load(b)) {
        (Ok(va), Ok(vb)) => (va, vb),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("qdi-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = metrics::comparable(&va, &vb) {
        eprintln!("qdi-perfbench: refusing to compare: {e}");
        return ExitCode::from(2);
    }
    for line in metrics::compare_lines(&va, &vb) {
        println!("{line}");
    }
    ExitCode::SUCCESS
}
