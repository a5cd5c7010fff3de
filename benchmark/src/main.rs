//! `benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! runs one workload and prints its result as the last line of stdout;
//! without `--workload` it runs the whole suite (every workload
//! untraced, then traced); `benchmark compare` judges result files.

use std::path::PathBuf;
use std::process::ExitCode;

use benchmark::harness::RunCfg;
use benchmark::json::Json;
use benchmark::report::{result_file, RunResult};
use benchmark::spec::*;
use benchmark::{compare, panel, trace, workloads};

const USAGE: &str = "usage:
  benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <file>] [--trace-out <file>] [--scratch <dir>]
  benchmark [--seed <n>] [--quick] [--out <file>] [--trace-out <file>] [--scratch <dir>]
  benchmark compare <parent.json> <change.json> [<parent.json> <change.json> ...]
  benchmark manifest        (prints BENCHMARK.json from the metric tables)
  benchmark dictionary      (prints the metric dictionary as markdown)";

#[derive(Default)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    out: Option<PathBuf>,
    trace_out: Option<PathBuf>,
    scratch: Option<PathBuf>,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        seed: 1,
        ..Args::default()
    };
    while let Some(flag) = argv.next() {
        if flag == "--quick" {
            args.quick = true;
            continue;
        }
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: expected {what}");
        match flag.as_str() {
            "--workload" => {
                workload_index(&value).ok_or_else(|| bad("a workload name"))?;
                args.workload = Some(value);
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad("a whole number"))?,
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("a number of seconds"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err(bad("between 0 and 60 seconds"));
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--out" => args.out = Some(value.into()),
            "--trace-out" => args.trace_out = Some(value.into()),
            "--scratch" => args.scratch = Some(value.into()),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

/// The scratch directory, removed when the run ends, failed or not.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn cfg_for(args: &Args, trace: bool, scratch: &Scratch) -> RunCfg {
    let quick = args.quick;
    RunCfg {
        seed: args.seed,
        seconds: args
            .seconds
            .unwrap_or(if quick { 1.0 } else { RUN_SECONDS as f64 }),
        slices: match (trace, quick) {
            (false, false) => SLICES,
            (true, false) => TRACED_SLICES,
            (false, true) => 1,
            (true, true) => 2,
        },
        warmup_s: if quick { 0.2 } else { WARMUP_S },
        // A traced run reports no set-up time.
        setup_repeats: if quick || trace { 1 } else { SETUP_REPEATS },
        trace,
        scratch: scratch.0.clone(),
    }
}

fn run_one(
    workload: &str,
    args: &Args,
    trace: bool,
    scratch: &Scratch,
    panel: &[(String, f64)],
) -> RunResult {
    let cfg = cfg_for(args, trace, scratch);
    let measured = workloads::run(workload, &cfg);
    if let Some(path) = args.trace_out.as_ref().filter(|_| trace) {
        // The suite writes one trace file per workload.
        let path = if args.workload.is_some() {
            path.clone()
        } else {
            path.with_extension(format!("{workload}.jsonl"))
        };
        if let Err(e) = trace::write_jsonl(&path, &measured.spans) {
            eprintln!("writing {}: {e}", path.display());
        }
    }
    RunResult::from_measured(workload, cfg.seed, cfg.seconds, trace, measured, panel)
}

fn run(args: &Args) -> Result<bool, String> {
    let scratch = Scratch(
        args.scratch
            .clone()
            .unwrap_or_else(|| PathBuf::from("benchmark/target/scratch"))
            .join(format!("run-{}", std::process::id())),
    );
    std::fs::create_dir_all(&scratch.0).map_err(|e| format!("{}: {e}", scratch.0.display()))?;
    // Only load threads and the panel record spans on this thread's behalf.
    trace::set_sampled(false);

    let mut runs = Vec::new();
    match &args.workload {
        Some(workload) => {
            let panel = if args.trace {
                panel::run(args.seed, &scratch.0)
            } else {
                Vec::new()
            };
            runs.push(run_one(workload, args, args.trace, &scratch, &panel));
            println!("{}", runs[0].table());
        }
        None => {
            println!(
                "durability policy of ingest_durable: always (fsync per group); nproc {}",
                std::thread::available_parallelism().map_or(0, |n| n.get())
            );
            for w in &WORKLOADS {
                runs.push(run_one(w.name, args, false, &scratch, &[]));
                println!("{}", runs.last().expect("just pushed").table());
            }
            let panel = panel::run(args.seed, &scratch.0);
            for w in &WORKLOADS {
                runs.push(run_one(w.name, args, true, &scratch, &panel));
                println!("{}", runs.last().expect("just pushed").table());
            }
        }
    }
    if let Some(out) = &args.out {
        std::fs::write(out, result_file(&runs).pretty())
            .map_err(|e| format!("{}: {e}", out.display()))?;
    }
    let correct = runs.iter().all(|r| r.correct);
    if args.workload.is_some() {
        println!("{}", runs[0].last_line());
    } else {
        println!(
            "{} runs, {}",
            runs.len(),
            if correct {
                "all correct"
            } else {
                "SOME INCORRECT"
            }
        );
    }
    Ok(correct)
}

fn run_compare(paths: &[String]) -> Result<bool, String> {
    let files = paths
        .iter()
        .map(|p| {
            let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
            Ok((
                p.clone(),
                Json::parse(&text).map_err(|e| format!("{p}: {e}"))?,
            ))
        })
        .collect::<Result<Vec<_>, String>>()?;
    let (report, regressed) = compare::compare(&files)?;
    print!("{report}");
    Ok(!regressed)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match argv.first().map(String::as_str) {
        Some("compare") => run_compare(&argv[1..]),
        Some("manifest") => {
            print!("{}", manifest().pretty());
            Ok(true)
        }
        Some("dictionary") => {
            print!("{}", dictionary());
            Ok(true)
        }
        _ => parse_args(argv.into_iter()).and_then(|args| run(&args)),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
