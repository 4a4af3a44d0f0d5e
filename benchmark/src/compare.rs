//! `compare A.json B.json`: hold result file B against result file A under
//! the bounds `BENCHMARK.json` fixes. One row per metric × workload.
//!
//! * end-to-end metrics: B may be worse than A by at most the bound; where
//!   the runs of either file spread wider than the bound, the row is
//!   unresolved, not ok;
//! * exact metrics and the input / frame hashes: bit-equal;
//! * `failed_frame_share`: 0 in both.

use crate::catalog::{Better, EXACT, WORKLOADS};
use crate::json;
use crate::stats::spread;
use serde::Value;
use std::path::Path;
use std::process::ExitCode;

/// A bounded metric as `BENCHMARK.json` declares it.
#[derive(Debug, PartialEq)]
struct Bounded {
    name: String,
    better: Better,
    bound: f64,
}

fn load(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::parse_value_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn bounded_metrics(manifest: &Value) -> Result<Vec<Bounded>, String> {
    json::array(manifest, "end_to_end")
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|entry| {
            let name = json::string(entry, "name").ok_or("an end_to_end entry has no name")?;
            let better = match json::string(entry, "better") {
                Some("lower") => Better::Lower,
                Some("higher") => Better::Higher,
                other => return Err(format!("{name}: better is {other:?}")),
            };
            let bound = json::number(entry, "bound").ok_or(format!("{name} has no bound"))?;
            Ok(Bounded {
                name: name.to_string(),
                better,
                bound,
            })
        })
        .collect()
}

fn metric_entry<'a>(
    result: &'a Value,
    workload: &str,
    section: &str,
    metric: &str,
) -> Option<&'a Value> {
    result
        .get("workloads")?
        .get(workload)?
        .get(section)?
        .get(metric)
}

fn metric_value(result: &Value, workload: &str, section: &str, metric: &str) -> Option<f64> {
    json::number(metric_entry(result, workload, section, metric)?, "value")
}

/// Quartile distance ÷ median of a metric's runs in one result file; `None`
/// when the file holds fewer than four.
fn runs_spread(result: &Value, workload: &str, metric: &str) -> Option<f64> {
    let runs = json::array(
        metric_entry(result, workload, "end_to_end", metric)?,
        "runs",
    )?;
    let runs: Vec<f64> = runs
        .iter()
        .filter_map(|v| match v {
            Value::F64(x) => Some(*x),
            _ => None,
        })
        .collect();
    spread(&runs)
}

/// What `compare` found.
#[derive(Debug, Default, PartialEq)]
struct Verdict {
    /// One printed row per metric × workload.
    rows: Vec<String>,
    /// Rows that break a bound, an equality or the no-failure rule.
    breaches: usize,
    /// End-to-end rows within their bound whose runs spread wider than it.
    unresolved: usize,
}

/// Compare two parsed result files.
fn compare(manifest: &Value, a: &Value, b: &Value) -> Result<Verdict, String> {
    let bounded = bounded_metrics(manifest)?;
    let mut verdict = Verdict::default();
    // `noise`: how far the runs behind a row that holds spread, when that is
    // wider than the row's bound.
    let mut row_with =
        |workload: &str, metric: &str, text: String, ok: bool, noise: Option<f64>| {
            let word = match (ok, noise) {
                (false, _) => "BREACH".to_string(),
                (true, Some(noise)) => format!("UNRESOLVED (runs spread {:.0} %)", noise * 100.0),
                (true, None) => "ok".to_string(),
            };
            verdict
                .rows
                .push(format!("{workload:<22} {metric:<30} {text:<58} {word}"));
            verdict.breaches += usize::from(!ok);
            verdict.unresolved += usize::from(ok && noise.is_some());
        };
    for w in &WORKLOADS {
        for m in &bounded {
            let pair = (
                metric_value(a, w.name, "end_to_end", &m.name),
                metric_value(b, w.name, "end_to_end", &m.name),
            );
            match pair {
                (Some(old), Some(new)) => {
                    let worse = m.better.worsening(old, new);
                    let text = format!(
                        "{old:.4} -> {new:.4} ({:+.1} % worse, bound {:.0} %)",
                        worse * 100.0,
                        m.bound * 100.0
                    );
                    let noise = [a, b]
                        .iter()
                        .filter_map(|result| runs_spread(result, w.name, &m.name))
                        .fold(0.0, f64::max);
                    let noise = (noise > m.bound).then_some(noise);
                    row_with(w.name, &m.name, text, worse <= m.bound, noise);
                }
                _ => row_with(w.name, &m.name, "missing".into(), false, None),
            }
        }
        let mut row = |workload: &str, metric: &str, text: String, ok: bool| {
            row_with(workload, metric, text, ok, None)
        };
        for name in EXACT {
            let pair = (
                metric_value(a, w.name, "per_layer", name),
                metric_value(b, w.name, "per_layer", name),
            );
            match pair {
                (Some(old), Some(new)) => row(
                    w.name,
                    name,
                    format!("{old} == {new}"),
                    old.to_bits() == new.to_bits(),
                ),
                _ => row(w.name, name, "missing".into(), false),
            }
        }
        let of = |result: &Value, key: &str| {
            result
                .get("workloads")
                .and_then(|ws| ws.get(w.name))
                .and_then(|entry| entry.get(key))
                .cloned()
        };
        for key in ["input_fnv", "frame0_fnv"] {
            let (old, new) = (of(a, key), of(b, key));
            let same = old.is_some() && old != Some(Value::Null) && old == new;
            row(
                w.name,
                key,
                if same { "equal" } else { "differ" }.into(),
                same,
            );
        }
        let clean = [a, b].iter().all(|result| {
            let entry = result.get("workloads").and_then(|ws| ws.get(w.name));
            entry.and_then(|e| json::number(e, "failed_frame_share")) == Some(0.0)
        });
        row(
            w.name,
            "failed_frame_share",
            if clean { "0 and 0" } else { "not 0" }.into(),
            clean,
        );
    }
    Ok(verdict)
}

/// The `compare` subcommand.
pub fn compare_files(manifest: &Path, a: &str, b: &str) -> Result<ExitCode, String> {
    let verdict = compare(&load(manifest)?, &load(Path::new(a))?, &load(Path::new(b))?)?;
    for row in &verdict.rows {
        println!("{row}");
    }
    println!(
        "{} rows, {} breaches, {} unresolved",
        verdict.rows.len(),
        verdict.breaches,
        verdict.unresolved
    );
    Ok(if verdict.breaches + verdict.unresolved == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{manifest, END_TO_END};

    /// A result file in which every end-to-end metric of every workload is
    /// `e2e` and every exact metric is `exact`.
    fn result(e2e: f64, exact: f64, failed_share: f64, hash: &str) -> Value {
        result_with_runs(e2e, &[], exact, failed_share, hash)
    }

    /// The same, every end-to-end value the centre of `runs`.
    fn result_with_runs(
        e2e: f64,
        runs: &[f64],
        exact: f64,
        failed_share: f64,
        hash: &str,
    ) -> Value {
        let entry = |v: f64| {
            let runs = runs.iter().map(|&r| Value::F64(r)).collect();
            Value::Object(vec![
                ("value".into(), Value::F64(v)),
                ("runs".into(), Value::Array(runs)),
            ])
        };
        let workloads = WORKLOADS
            .iter()
            .map(|w| {
                let end_to_end = END_TO_END
                    .iter()
                    .map(|(m, _)| (m.name.to_string(), entry(e2e)))
                    .collect();
                let per_layer = EXACT
                    .iter()
                    .map(|name| (name.to_string(), entry(exact)))
                    .collect();
                let fields = vec![
                    ("end_to_end".to_string(), Value::Object(end_to_end)),
                    ("per_layer".to_string(), Value::Object(per_layer)),
                    (
                        "input_fnv".to_string(),
                        Value::Array(vec![Value::Str(hash.into())]),
                    ),
                    ("frame0_fnv".to_string(), Value::Str(hash.into())),
                    ("failed_frame_share".to_string(), Value::F64(failed_share)),
                ];
                (w.name.to_string(), Value::Object(fields))
            })
            .collect();
        Value::Object(vec![("workloads".into(), Value::Object(workloads))])
    }

    fn breaches(a: &Value, b: &Value) -> usize {
        let verdict = compare(&manifest(), a, b).unwrap();
        assert_eq!(verdict.unresolved, 0);
        verdict.breaches
    }

    #[test]
    fn identical_results_agree_on_every_row() {
        let a = result(10.0, 3.0, 0.0, "0xabc");
        let verdict = compare(&manifest(), &a, &a).unwrap();
        assert_eq!((verdict.breaches, verdict.unresolved), (0, 0));
        assert_eq!(
            verdict.rows.len(),
            WORKLOADS.len() * (END_TO_END.len() + EXACT.len() + 3)
        );
    }

    #[test]
    fn a_metric_may_worsen_by_its_bound_and_no_more() {
        let a = result(10.0, 3.0, 0.0, "0xabc");
        // 15 % up: every lower-is-better metric is within its bound, and the
        // one higher-is-better metric (frames_per_s) got better.
        assert_eq!(breaches(&a, &result(11.5, 3.0, 0.0, "0xabc")), 0);
        // 22 % up: only peak_rss_mb (20 %) breaches, on all six workloads.
        assert_eq!(breaches(&a, &result(12.2, 3.0, 0.0, "0xabc")), 6);
        // 30 % up: all four lower-is-better metrics breach.
        assert_eq!(breaches(&a, &result(13.0, 3.0, 0.0, "0xabc")), 4 * 6);
        // 30 % down: only frames_per_s is worse, by more than its bound.
        assert_eq!(breaches(&a, &result(7.0, 3.0, 0.0, "0xabc")), 6);
    }

    #[test]
    fn exact_metrics_hashes_and_failures_must_match_exactly() {
        let a = result(10.0, 3.0, 0.0, "0xabc");
        let nudged = f64::from_bits(3.0f64.to_bits() + 1);
        assert_eq!(
            breaches(&a, &result(10.0, nudged, 0.0, "0xabc")),
            EXACT.len() * 6
        );
        assert_eq!(breaches(&a, &result(10.0, 3.0, 0.0, "0xdef")), 2 * 6);
        assert_eq!(breaches(&a, &result(10.0, 3.0, 0.01, "0xabc")), 6);
    }

    #[test]
    fn a_missing_metric_is_a_breach() {
        let a = result(10.0, 3.0, 0.0, "0xabc");
        let empty = Value::Object(vec![("workloads".into(), Value::Object(Vec::new()))]);
        let verdict = compare(&manifest(), &a, &empty).unwrap();
        assert_eq!(verdict.breaches, verdict.rows.len());
    }

    #[test]
    fn runs_that_spread_wider_than_the_bound_leave_a_row_unresolved() {
        // Quartiles 9.5 and 10.5 around 10: a 10 % spread resolves every bound.
        let steady = result_with_runs(10.0, &[9.0, 10.0, 10.0, 10.0, 11.0], 3.0, 0.0, "0xabc");
        let verdict = compare(&manifest(), &steady, &steady).unwrap();
        assert_eq!((verdict.breaches, verdict.unresolved), (0, 0));
        // Quartiles 7 and 13: a 60 % spread resolves none, in either file.
        let noisy = result_with_runs(10.0, &[6.0, 8.0, 10.0, 12.0, 14.0], 3.0, 0.0, "0xabc");
        for (a, b) in [(&steady, &noisy), (&noisy, &steady)] {
            let verdict = compare(&manifest(), a, b).unwrap();
            assert_eq!(verdict.breaches, 0);
            assert_eq!(verdict.unresolved, END_TO_END.len() * 6);
        }
        // A breach stays a breach however noisy the runs.
        let worse = result_with_runs(13.0, &[6.0, 8.0, 13.0, 18.0, 20.0], 3.0, 0.0, "0xabc");
        let verdict = compare(&manifest(), &steady, &worse).unwrap();
        assert_eq!((verdict.breaches, verdict.unresolved), (4 * 6, 6));
    }
}
