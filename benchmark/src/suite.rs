//! The whole suite in one command: every workload in interleaved rounds, so
//! machine weather hits them all alike; each run is a child process given
//! exactly the arguments of `BENCHMARK.json`'s command, so the suite and
//! the contract share one estimator and no run inherits another's heap,
//! page cache of scratch buffers or thread-local state. Then one traced run
//! per workload.
//!
//! A metric's suite value is the median of its runs: what the bounds in
//! `BENCHMARK.json` are applied to.

use crate::catalog::{END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use crate::json::{self, obj, render};
use crate::procfs::Host;
use crate::stats::median;
use serde::Value;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

/// Schema tag of the result file.
pub const SCHEMA: &str = "rt-benchmark/v1";

/// Rounds of a full suite; each runs every workload once.
const ROUNDS: usize = 5;
/// `--seconds` of every run of a `--smoke` suite: one visit.
const SMOKE_SECONDS: f64 = 1.25;

/// Arguments of a suite run.
pub struct SuiteArgs {
    /// Seed of every generated input.
    pub seed: u64,
    /// Result file to write.
    pub out: PathBuf,
    /// One short round instead of five.
    pub smoke: bool,
    /// Where the children leave their run and trace files.
    pub out_dir: PathBuf,
}

/// One child's parsed result.
struct Run {
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, f64>,
    /// Its `run_<workload>.json`.
    file: Value,
}

/// Run the contract's command line as a child process; parse its last line
/// and the run file it left.
fn run_child(workload: &str, args: &SuiteArgs, seconds: f64, trace: bool) -> Result<Run, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let run_path = args.out_dir.join(format!("run_{workload}.json"));
    // A stale file must not pass for this child's.
    let _ = std::fs::remove_file(&run_path);
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .map_err(|e| format!("cannot start the {workload} run: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().ok_or(format!(
        "the {workload} run printed nothing ({})",
        output.status
    ))?;
    let value =
        serde_json::parse_value_str(line).map_err(|e| format!("{workload} run: {e}: {line}"))?;
    let field = |key: &str| {
        json::number(&value, key).ok_or(format!("{workload} run: no '{key}' in {line}"))
    };
    let metrics = value
        .get("metrics")
        .and_then(Value::as_object)
        .ok_or(format!("{workload} run: no metrics in {line}"))?
        .iter()
        .filter_map(|(name, entry)| Some((name.clone(), json::number(entry, "value")?)))
        .collect();
    let file = std::fs::read_to_string(&run_path)
        .ok()
        .and_then(|text| serde_json::parse_value_str(&text).ok())
        .ok_or(format!("the {workload} run left no {}", run_path.display()))?;
    Ok(Run {
        attempted: field("attempted")? as u64,
        failed: field("failed")? as u64,
        metrics,
        file,
    })
}

/// Everything the suite learned about one workload.
#[derive(Default)]
struct Gathered {
    attempted: u64,
    failed: u64,
    /// Per end-to-end metric, its value in each round.
    runs: BTreeMap<String, Vec<f64>>,
    /// The same as the clock read them, for the metrics that are scaled.
    raw: BTreeMap<String, Vec<f64>>,
    per_layer: BTreeMap<String, f64>,
    /// `(input_fnv, frame0_fnv)` of the first run.
    hashes: Option<(Value, Value)>,
    hashes_moved: bool,
}

impl Gathered {
    fn absorb(&mut self, run: Run, traced: bool) {
        self.attempted += run.attempted;
        self.failed += run.failed;
        if traced {
            self.per_layer = run.metrics;
        } else {
            for (name, value) in run.metrics {
                if let Some(raw) = run.file.get("raw").and_then(|r| json::number(r, &name)) {
                    self.raw.entry(name.clone()).or_default().push(raw);
                }
                self.runs.entry(name).or_default().push(value);
            }
        }
        // Every run must have measured the same bytes.
        let hash = |key| run.file.get(key).cloned().unwrap_or(Value::Null);
        let hashes = (hash("input_fnv"), hash("frame0_fnv"));
        match &self.hashes {
            Some(first) if *first != hashes => self.hashes_moved = true,
            Some(_) => {}
            None => self.hashes = Some(hashes),
        }
    }

    fn value(&self, metric: &str) -> Option<f64> {
        self.runs.get(metric).map(|runs| median(runs))
    }

    fn to_value(&self) -> Value {
        let numbers =
            |values: &[f64]| Value::Array(values.iter().map(|&v| Value::F64(v)).collect());
        let end_to_end = END_TO_END
            .iter()
            .filter_map(|(m, _)| {
                let mut entry = vec![
                    ("value", Value::F64(self.value(m.name)?)),
                    ("unit", Value::Str(m.unit.into())),
                    ("runs", numbers(&self.runs[m.name])),
                ];
                if let Some(raw) = self.raw.get(m.name) {
                    entry.push(("raw", Value::F64(median(raw))));
                }
                Some((m.name.to_string(), obj(entry)))
            })
            .collect();
        let per_layer = PER_LAYER
            .iter()
            .filter_map(|m| {
                let entry = obj(vec![
                    ("value", Value::F64(*self.per_layer.get(m.name)?)),
                    ("unit", Value::Str(m.unit.into())),
                ]);
                Some((m.name.to_string(), entry))
            })
            .collect();
        let (input_fnv, frame0_fnv) = self.hashes.clone().unwrap_or((Value::Null, Value::Null));
        obj(vec![
            ("attempted", Value::U64(self.attempted)),
            ("failed", Value::U64(self.failed)),
            (
                "failed_frame_share",
                Value::F64(self.failed as f64 / self.attempted.max(1) as f64),
            ),
            ("input_fnv", input_fnv),
            ("frame0_fnv", frame0_fnv),
            ("end_to_end", Value::Object(end_to_end)),
            ("per_layer", Value::Object(per_layer)),
        ])
    }
}

fn host_value(host: &Host) -> Value {
    obj(vec![
        ("nproc", Value::U64(host.nproc as u64)),
        ("cpu_model", Value::Str(host.cpu_model.clone())),
        ("rustc", Value::Str(host.rustc.clone())),
        ("git_commit", Value::Str(host.git_commit.clone())),
        ("profile", Value::Str(host.profile.into())),
    ])
}

fn print_table(gathered: &BTreeMap<&str, Gathered>) {
    let cell = |value: Option<f64>| value.map_or("-".to_string(), |v| format!("{v:.4}"));
    print!("{:<32} {:<6}", "metric", "unit");
    for w in &WORKLOADS {
        print!(" {:>21}", w.name);
    }
    println!();
    for (m, _) in &END_TO_END {
        print!("{:<32} {:<6}", m.name, m.unit);
        for w in &WORKLOADS {
            print!(" {:>21}", cell(gathered[w.name].value(m.name)));
        }
        println!();
    }
    for m in &PER_LAYER {
        print!("{:<32} {:<6}", m.name, m.unit);
        for w in &WORKLOADS {
            print!(
                " {:>21}",
                cell(gathered[w.name].per_layer.get(m.name).copied())
            );
        }
        println!();
    }
}

fn write_result(path: &Path, value: &Value) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, render(value)).map_err(|e| format!("{}: {e}", path.display()))
}

/// Run the suite, print every metric, write the result file. Fails (exit
/// code 1) when any frame of any run was wrong.
pub fn run_suite(args: &SuiteArgs) -> Result<ExitCode, String> {
    let (rounds, seconds) = if args.smoke {
        (1, SMOKE_SECONDS)
    } else {
        (ROUNDS, RUN_SECONDS as f64)
    };
    let host = Host::detect();
    eprintln!(
        "{} cores ({}), {}, commit {}, {} build",
        host.nproc, host.cpu_model, host.rustc, host.git_commit, host.profile
    );
    let mut gathered: BTreeMap<&str, Gathered> = WORKLOADS
        .iter()
        .map(|w| (w.name, Gathered::default()))
        .collect();
    for round in 0..rounds {
        for w in &WORKLOADS {
            eprintln!("round {}/{rounds}: {}", round + 1, w.name);
            let run = run_child(w.name, args, seconds, false)?;
            gathered.entry(w.name).or_default().absorb(run, false);
        }
    }
    for w in &WORKLOADS {
        eprintln!("traced run: {}", w.name);
        let run = run_child(w.name, args, seconds, true)?;
        gathered.entry(w.name).or_default().absorb(run, true);
    }
    print_table(&gathered);

    let result = obj(vec![
        ("schema", Value::Str(SCHEMA.into())),
        ("host", host_value(&host)),
        ("seed", Value::U64(args.seed)),
        ("rounds", Value::U64(rounds as u64)),
        ("run_seconds", Value::F64(seconds)),
        ("smoke", Value::Bool(args.smoke)),
        (
            "workloads",
            Value::Object(
                WORKLOADS
                    .iter()
                    .map(|w| (w.name.to_string(), gathered[w.name].to_value()))
                    .collect(),
            ),
        ),
    ]);
    write_result(&args.out, &result)?;
    eprintln!("wrote {}", args.out.display());

    let mut ok = true;
    for (name, g) in &gathered {
        if g.failed > 0 {
            eprintln!("{name}: {} of {} frames failed", g.failed, g.attempted);
            ok = false;
        }
        if g.hashes_moved {
            eprintln!("{name}: runs did not measure the same bytes");
            ok = false;
        }
    }
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}
