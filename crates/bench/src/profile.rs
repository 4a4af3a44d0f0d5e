//! Profiling harness: observed runs of the Figure 6/7 method lineup with
//! Chrome-trace export.
//!
//! For every `(method, codec, P)` cell this binary:
//!
//! 1. runs the pooled executor with an [`rt_obs::Observer`] attached, so
//!    every rank records wall-clock phase spans and counters;
//! 2. replays the event trace on the virtual clock with
//!    [`rt_comm::replay_timeline`], yielding per-rank virtual-clock spans;
//! 3. **reconciles** the two books: per-phase virtual span sums must equal
//!    the replay cost model's per-rank totals bit-exactly (the binary
//!    aborts otherwise);
//! 4. emits `PROFILE_<method>_<codec>_p<P>.json` — a Chrome-trace (open in
//!    `chrome://tracing` or [Perfetto](https://ui.perfetto.dev)) carrying
//!    both clocks as separate processes plus per-rank counter events — and
//!    prints a compact text flamegraph per cell.
//!
//! Usage:
//! `cargo run --release -p rt-bench --bin profile -- [--p 32] [--frame 256]
//!  [--reps 2] [--codecs raw,rle,trle] [--cost paper|sp2] [--out-dir .]
//!  [--smoke]`
//!
//! `--smoke` shrinks the grid to one machine size at a small frame for CI
//! and re-validates every emitted artifact with
//! [`rt_obs::validate_chrome_trace`].

use crate::harness::{cost_by_name, parse_flags};
use rt_comm::replay_timeline;
use rt_compress::CodecKind;
use rt_core::exec::{ComposeConfig, ScratchPool};
use rt_core::method::{CompositionMethod, Method};
use rt_core::schedule::verify_schedule;
use rt_core::{ComposePlan, CoreError, Run};
use rt_imaging::pixel::GrayAlpha8;
use rt_imaging::synth::band_partials;
use rt_obs::{
    phase_summary_with_counters, reconcile_all, ChromeTrace, Observer, PID_VIRTUAL, PID_WALL,
};
use std::io::{self, Write};
use std::sync::Arc;

#[derive(Debug, Clone)]
struct ProfileArgs {
    reps: usize,
    frame: usize,
    ps: Vec<usize>,
    codecs: Vec<CodecKind>,
    cost_name: String,
    out_dir: String,
    smoke: bool,
}

impl Default for ProfileArgs {
    fn default() -> Self {
        Self {
            reps: 2,
            frame: 256,
            ps: vec![32],
            codecs: vec![CodecKind::Raw, CodecKind::Rle, CodecKind::Trle],
            cost_name: "paper".into(),
            out_dir: ".".into(),
            smoke: false,
        }
    }
}

impl ProfileArgs {
    fn parse(argv: &[String]) -> Self {
        let mut out = Self::default();
        parse_flags(
            argv,
            "flags: --reps N  --frame N  --p 8,32  --codecs raw,rle,trle  \
             --cost paper|sp2  --out-dir DIR  --smoke",
            |f| match f.name {
                "--reps" => out.reps = f.parse(),
                "--frame" => out.frame = f.parse(),
                "--p" => out.ps = f.list(),
                "--codecs" => out.codecs = f.list(),
                "--cost" => out.cost_name = f.value(),
                "--out-dir" => out.out_dir = f.value(),
                "--smoke" => out.smoke = true,
                _ => f.unknown(),
            },
        );
        if out.smoke {
            // CI cell: one rep, one small machine, all codecs (the
            // reconciliation must hold for every codec, so keep them).
            out.reps = 1;
            out.frame = 128;
            out.ps = vec![8];
        }
        assert!(out.reps > 0, "--reps must be positive");
        out
    }
}

/// `"2N_RT(B=4)"` → `"2n_rt_b4"`: lowercase, `(` → `_`, drop `)`/`=`.
fn sanitize(name: &str) -> String {
    name.chars()
        .filter_map(|c| match c {
            '(' => Some('_'),
            ')' | '=' => None,
            c => Some(c.to_ascii_lowercase()),
        })
        .collect()
}

/// Run the observed cells: text flamegraphs to `out`, one Chrome trace
/// per cell into `--out-dir` (created if missing).
pub fn run(argv: &[String], out: &mut dyn Write) -> io::Result<()> {
    let args = ProfileArgs::parse(argv);
    let cost = cost_by_name(&args.cost_name);
    std::fs::create_dir_all(&args.out_dir)?;
    let mut emitted: Vec<String> = Vec::new();

    for &p in &args.ps {
        let partials = band_partials(p, args.frame, args.frame);
        for method in Method::figure6_lineup() {
            let schedule = match method.build(p, args.frame * args.frame) {
                Ok(s) => s,
                Err(CoreError::UnsupportedShape { why, .. }) => {
                    eprintln!("skip {} at P={p}: {why}", method.name());
                    continue;
                }
                Err(e) => panic!("{}: {e}", method.name()),
            };
            verify_schedule(&schedule).unwrap_or_else(|e| panic!("{}: {e}", method.name()));
            let plan = ComposePlan::Schedule(schedule);
            for &codec in &args.codecs {
                let cfg = ComposeConfig::default().with_codec(codec);
                let label = format!("{}/{}/p={p}", method.name(), codec.name());

                // Observed runs. The observer accumulates wall spans and
                // counters across reps; the trace of the last rep feeds the
                // replay (every rep's trace is identical by determinism).
                let observer = Arc::new(Observer::new());
                let pool = ScratchPool::<GrayAlpha8>::new();
                let mut last_trace = None;
                for _ in 0..args.reps {
                    let (outs, trace) = Run::new(&plan, &cfg)
                        .pool(&pool)
                        .observer(Arc::clone(&observer))
                        .execute(partials.clone());
                    for (rank, out) in outs.iter().enumerate() {
                        if let Err(e) = out {
                            panic!("{label}: rank {rank} failed: {e}");
                        }
                    }
                    last_trace = Some(trace);
                }
                let trace = last_trace.expect("at least one rep ran");

                // Virtual-clock replay + the books check: per-phase span
                // sums must equal the replay totals bit-exactly.
                let (report, vtimelines) = replay_timeline(&trace, &cost).expect("trace replays");
                let totals: Vec<_> = report.ranks.iter().map(|s| s.phase_totals()).collect();
                if let Err(e) = reconcile_all(&vtimelines, &totals) {
                    panic!("{label}: phase spans drifted from replay accounting: {e}");
                }

                // Chrome-trace artifact: virtual and wall clocks as two
                // processes, counters as per-rank instant events.
                let mut ct = ChromeTrace::new();
                ct.meta_process(PID_VIRTUAL, "virtual clock (cost-model replay)");
                ct.meta_process(PID_WALL, "wall clock (threaded execution)");
                for tl in &vtimelines {
                    ct.add_timeline(PID_VIRTUAL, tl);
                }
                let wall = observer.timelines();
                for tl in &wall {
                    ct.add_timeline(PID_WALL, tl);
                }
                for (rank, counters) in observer.counters() {
                    let ts = wall
                        .iter()
                        .find(|t| t.rank == rank)
                        .map(|t| t.end())
                        .unwrap_or(0.0);
                    ct.add_counters(PID_WALL, rank, ts, &counters);
                }
                let path = format!(
                    "{}/PROFILE_{}_{}_p{p}.json",
                    args.out_dir,
                    sanitize(&method.name()),
                    codec.name(),
                );
                std::fs::write(&path, ct.to_json())?;
                emitted.push(path.clone());

                // Text flamegraph of the virtual clock plus headline
                // counters (including the kernel-path block).
                let total = observer.counters_total();
                writeln!(
                    out,
                    "{}",
                    phase_summary_with_counters(
                        &format!("{label} [virtual, cost={}]", args.cost_name),
                        &vtimelines,
                        &total,
                    )
                )?;
                writeln!(
                    out,
                    "  counters: {} sends, {} retransmits, {} wire bytes ({}), \
                     pool {}H/{}M, {} blank-skipped, {} opaque-fast",
                    total.sends,
                    total.retransmits,
                    total.wire_bytes_for(codec.name()),
                    codec.name(),
                    total.pool_hits,
                    total.pool_misses,
                    total.blank_skipped,
                    total.opaque_fast,
                )?;
                writeln!(
                    out,
                    "  reconcile: OK (phase sums == replay totals, {p} ranks)"
                )?;
                writeln!(out, "  -> {path}\n")?;
            }
        }
    }

    assert!(!emitted.is_empty(), "no profile cells ran");
    if args.smoke {
        // Re-read every artifact and validate it as a Chrome trace, so CI
        // proves the export is well-formed end to end.
        for path in &emitted {
            let text = std::fs::read_to_string(path)?;
            let value = serde_json::parse_value_str(&text).expect("artifact parses");
            let events = rt_obs::validate_chrome_trace(&value)
                .unwrap_or_else(|e| panic!("{path}: invalid chrome trace: {e}"));
            assert!(events > 0, "{path}: empty chrome trace");
            writeln!(out, "validated {path}: {events} events")?;
        }
    }
    writeln!(out, "emitted {} profile artifact(s)", emitted.len())
}
