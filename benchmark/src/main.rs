//! The repo benchmark. Three ways in:
//!
//! * `--workload W --seed N --seconds S --trace 0|1` — one measured run of
//!   one workload, the command `BENCHMARK.json` names. The last line of
//!   standard output is the result as one JSON object.
//! * `[--seed N] [--out FILE] [--smoke]` — the whole suite: every workload in
//!   interleaved rounds, each a child process running the first form
//!   unchanged, then a traced run per workload; prints every metric by name
//!   and writes a result file stamped with the host.
//! * `compare A.json B.json` — hold two result files against the bounds.
//!
//! See `README.md` beside this package for what is measured and why.

#![deny(missing_docs)]

mod alloc;
mod calib;
mod catalog;
mod compare;
mod compose;
mod content;
mod json;
mod pipeline;
mod probes;
mod procfs;
mod run;
mod spans;
mod stats;
mod suite;
mod window;

use std::path::PathBuf;
use std::process::ExitCode;

#[global_allocator]
static ALLOCATOR: alloc::CountingAllocator = alloc::CountingAllocator;

const USAGE: &str = "\
usage: rt-benchmark --workload NAME --seed N --seconds S --trace 0|1
       rt-benchmark [--seed N] [--out FILE] [--smoke]
       rt-benchmark compare A.json B.json
       rt-benchmark manifest | calibrate";

/// The directory holding `BENCHMARK.json`: the nearest ancestor of the
/// working directory that has one, else the working directory.
fn repo_root() -> PathBuf {
    let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    cwd.ancestors()
        .find(|dir| dir.join("BENCHMARK.json").is_file())
        .unwrap_or(&cwd)
        .to_path_buf()
}

/// Where runs leave their files (`run_<workload>.json`,
/// `trace_<workload>.json`, result files).
fn out_dir() -> PathBuf {
    repo_root().join("benchmark").join("out")
}

/// Flag values by name; flags without a value map to an empty string.
struct Flags(Vec<(String, String)>);

impl Flags {
    fn parse(args: &[String], valued: &[&str], bare: &[&str]) -> Result<Flags, String> {
        let mut out = Vec::new();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            if valued.contains(&flag.as_str()) {
                let value = it.next().ok_or(format!("{flag} needs a value"))?;
                out.push((flag.clone(), value.clone()));
            } else if bare.contains(&flag.as_str()) {
                out.push((flag.clone(), String::new()));
            } else {
                return Err(format!("unknown argument {flag}"));
            }
        }
        Ok(Flags(out))
    }

    fn get(&self, flag: &str) -> Option<&str> {
        self.0
            .iter()
            .rev()
            .find(|(name, _)| name == flag)
            .map(|(_, value)| value.as_str())
    }

    fn number<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        match self.get(flag) {
            None => Ok(default),
            Some(text) => text
                .parse()
                .map_err(|_| format!("{flag}: cannot read '{text}' as a number")),
        }
    }
}

fn one_run(flags: &Flags) -> Result<ExitCode, String> {
    let name = flags.get("--workload").unwrap_or_default();
    let workload = catalog::workload(name).ok_or_else(|| {
        let names: Vec<_> = catalog::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload '{name}' (one of {})", names.join(", "))
    })?;
    let seconds: f64 = flags.number("--seconds", catalog::RUN_SECONDS as f64)?;
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err(format!("--seconds {seconds}: must be in (0, 60]"));
    }
    let args = run::RunArgs {
        workload,
        seed: flags.number("--seed", 7)?,
        seconds,
        trace: match flags.get("--trace").unwrap_or("0") {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace {other}: must be 0 or 1")),
        },
        out_dir: out_dir(),
    };
    let result = run::run(&args);
    for (name, value, unit) in &result.metrics {
        eprintln!("{name:<32} {value:>16.4} {unit}");
    }
    println!("{}", json::render_compact(&result.to_value()));
    Ok(if result.failed == 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!("{} of {} frames failed", result.failed, result.attempted);
        ExitCode::FAILURE
    })
}

fn dispatch(args: &[String]) -> Result<ExitCode, String> {
    match args.first().map(String::as_str) {
        Some("compare") => match &args[1..] {
            [a, b] => compare::compare_files(&repo_root().join("BENCHMARK.json"), a, b),
            _ => Err("compare takes two result files".into()),
        },
        Some("calibrate") => {
            // For re-deriving `calib::QUIET_S` (the p10) on another class of box.
            let mut kernel = calib::Calibrator::default();
            let runs: Vec<f64> = (0..2000).map(|_| kernel.sample() * 1e3).collect();
            println!(
                "calibration kernel over {} runs: floor {:.4} ms, p10 {:.4} ms, median {:.4} ms",
                runs.len(),
                stats::quantile(&runs, 0.0),
                stats::quantile(&runs, 0.1),
                stats::median(&runs)
            );
            Ok(ExitCode::SUCCESS)
        }
        Some("manifest") => {
            println!("{}", json::render(&catalog::manifest()));
            Ok(ExitCode::SUCCESS)
        }
        Some("--help" | "-h") => {
            println!("{USAGE}");
            Ok(ExitCode::SUCCESS)
        }
        _ if args.iter().any(|a| a == "--workload") => {
            let flags = Flags::parse(args, &["--workload", "--seed", "--seconds", "--trace"], &[])?;
            one_run(&flags)
        }
        _ => {
            let flags = Flags::parse(args, &["--seed", "--out"], &["--smoke"])?;
            suite::run_suite(&suite::SuiteArgs {
                seed: flags.number("--seed", 7)?,
                out: flags
                    .get("--out")
                    .map_or_else(|| out_dir().join("result.json"), PathBuf::from),
                smoke: flags.get("--smoke").is_some(),
                out_dir: out_dir(),
            })
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    dispatch(&args).unwrap_or_else(|message| {
        eprintln!("rt-benchmark: {message}\n{USAGE}");
        ExitCode::from(2)
    })
}
