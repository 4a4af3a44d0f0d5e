//! **Extension experiment E11 — hierarchical compositing at scale.**
//!
//! The flat methods stop scaling long before the arithmetic says so: a
//! full-mesh TCP fabric needs `O(P²)` sockets, and every flat gather
//! serializes `P − 1` receives at the root. This bench runs the
//! autotuner's design space at `P ∈ {64, 256, 512}` under a cluster-like
//! cost model (SP2 wire constants plus a 40 µs per-message receive
//! overhead), **executes** the tuner's pick and its strongest flat and
//! hierarchical rivals in process, prices the recorded runs on the
//! virtual clock, and emits `BENCH_scale.json` (schema `bench-scale/v1`).
//!
//! Gates asserted inside the binary before any number is trusted:
//!
//! * every executed cell's root frame is byte-identical to the
//!   sequential reference composite;
//! * every replayed timeline reconciles bit-exactly with its
//!   `RankStats` (the virtual-clock self-check);
//! * the tuner's pick is the measured virtual-clock winner of its cell;
//! * at `P ≥ 256` the hierarchical pick beats the best flat method and
//!   its connection topology — the schedule's own links, `O(P·k +
//!   (P/k)²)` — stays strictly below the full mesh's `P(P−1)/2`.
//!
//! Usage: `cargo run --release -p rt-bench --bin scale -- [--smoke] [--out BENCH_scale.json]`

use crate::harness::{parse_flags, print_table};
use rt_comm::{replay_timeline, CostModel};
use rt_core::{
    sweep, Candidate, ComposeConfig, ComposePlan, DisplayWall, Method, Run, TuneOptions,
};
use rt_imaging::image::reference_composite;
use rt_imaging::synth::band_partials;
use rt_net::Topology;
use serde::{Deserialize, Serialize};
use std::io::{self, Write};

/// One executed (method, P) cell.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct MeasuredRow {
    method: String,
    /// The analyzer's prediction for this design point, ms.
    predicted_ms: f64,
    /// Virtual-clock price of the actually recorded run, ms.
    replayed_ms: f64,
    messages: u64,
    /// Loopback sockets a topology-restricted TCP fabric would dial.
    sockets: usize,
}

/// One machine-size cell of the scale study.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Cell {
    p: usize,
    image_len: usize,
    tuner_pick: String,
    measured_winner: String,
    /// Tuner pick == measured virtual-clock winner.
    agree: bool,
    /// Best flat replayed time over best hierarchical replayed time.
    hier_speedup: f64,
    /// Full-mesh socket count `P(P−1)/2`, for the topology column.
    mesh_sockets: usize,
    measured: Vec<MeasuredRow>,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct Report {
    schema: String,
    width: usize,
    cost: String,
    cells: Vec<Cell>,
}

/// The study's cost model: SP2-like wire constants, cheap `over`, and a
/// real per-message receive overhead — the term that serializes flat
/// root gathers at scale.
fn cluster_cost() -> CostModel {
    CostModel::new(4e-5, 2.9e-8, 1e-9).with_tr(4e-5)
}

fn is_hier(m: &Method) -> bool {
    matches!(m, Method::Hier { .. })
}

/// Sockets the cell's plan needs on a restricted TCP fabric: a span
/// schedule's own link set (what `Run` dials for it), the full mesh for a
/// tile plan.
fn socket_count(plan: &ComposePlan, p: usize) -> usize {
    match plan {
        ComposePlan::Schedule(s) => {
            Topology::from_links(s.links(DisplayWall::root(0))).socket_count(p)
        }
        ComposePlan::Tiles(_) => Topology::FullMesh.socket_count(p),
    }
}

/// The cell's execution line-up: the tuner's pick, the best flat, the
/// best hierarchical rival at a different `k`, and plain binary-swap as
/// the classical baseline — deduplicated, at most four runs.
fn lineup(cands: &[Candidate]) -> Vec<Method> {
    let mut out: Vec<Method> = Vec::new();
    let mut push = |m: &Method| {
        if !out.contains(m) {
            out.push(*m);
        }
    };
    push(&cands[0].method);
    if let Some(flat) = cands.iter().find(|c| !is_hier(&c.method)) {
        push(&flat.method);
    }
    let pick_k = match cands[0].method {
        Method::Hier { k, .. } => Some(k),
        _ => None,
    };
    if let Some(rival) = cands
        .iter()
        .find(|c| matches!(c.method, Method::Hier { k, .. } if Some(k) != pick_k))
    {
        push(&rival.method);
    }
    if cands.iter().any(|c| matches!(c.method, Method::BinarySwap)) {
        push(&Method::BinarySwap);
    }
    out
}

fn run_cell(p: usize, width: usize, cost: &CostModel, opts: &TuneOptions) -> Cell {
    let image_len = width * p;
    let cands = sweep(p, image_len, cost, opts).expect("sweep");
    let pick = cands[0].clone();
    let partials = band_partials(p, width, p);
    let expected = reference_composite(&partials).expect("reference composite");
    let config = ComposeConfig::default();

    let mut measured = Vec::new();
    for method in lineup(&cands) {
        let plan = method.plan(p, width, p).expect("plan");
        let sockets = socket_count(&plan, p);
        let (results, trace) = Run::new(&plan, &config).execute(partials.clone());
        let frame = results[0]
            .as_ref()
            .expect("root ok")
            .frame
            .as_ref()
            .expect("root frame");
        assert_eq!(
            frame.pixels(),
            expected.pixels(),
            "{} at P={p} diverged from the reference composite",
            method.name()
        );
        let (report, timelines) = replay_timeline(&trace, cost).expect("replay");
        let totals: Vec<_> = report.ranks.iter().map(|r| r.phase_totals()).collect();
        rt_obs::reconcile_all(&timelines, &totals).expect("span/replay reconciliation");
        let predicted = cands
            .iter()
            .find(|c| c.method == method)
            .map(|c| c.cost.makespan_with_gather)
            .unwrap_or(f64::NAN);
        measured.push(MeasuredRow {
            method: method.name(),
            predicted_ms: predicted * 1e3,
            replayed_ms: report.makespan * 1e3,
            messages: trace.message_count(),
            sockets,
        });
    }

    let winner = measured
        .iter()
        .min_by(|a, b| a.replayed_ms.total_cmp(&b.replayed_ms))
        .expect("non-empty lineup");
    let best_flat = measured
        .iter()
        .zip(lineup(&cands))
        .filter(|(_, m)| !is_hier(m))
        .map(|(row, _)| row.replayed_ms)
        .fold(f64::INFINITY, f64::min);
    let best_hier = measured
        .iter()
        .zip(lineup(&cands))
        .filter(|(_, m)| is_hier(m))
        .map(|(row, _)| row.replayed_ms)
        .fold(f64::INFINITY, f64::min);
    Cell {
        p,
        image_len,
        tuner_pick: pick.method.name(),
        measured_winner: winner.method.clone(),
        agree: winner.method == pick.method.name(),
        hier_speedup: best_flat / best_hier,
        mesh_sockets: Topology::FullMesh.socket_count(p),
        measured,
    }
}

/// Run the study: the table goes to `out`, the `bench-scale/v1` report to
/// the `--out` file (`--smoke` runs the P = 256 cell only).
pub fn run(argv: &[String], out: &mut dyn Write) -> io::Result<()> {
    let mut smoke = false;
    let mut path = String::from("BENCH_scale.json");
    parse_flags(argv, "flags: --smoke  --out FILE", |f| match f.name {
        "--smoke" => smoke = true,
        "--out" => path = f.value(),
        _ => f.unknown(),
    });
    let ps: Vec<usize> = if smoke { vec![256] } else { vec![64, 256, 512] };
    let width = 16;
    let cost = cluster_cost();
    let opts = TuneOptions::default().with_max_group(16);

    let mut cells = Vec::new();
    for &p in &ps {
        eprintln!("P = {p}: sweeping, executing, replaying...");
        let cell = run_cell(p, width, &cost, &opts);
        // The gates of the study: the tuner's pick must be the measured
        // winner, and from P = 256 up the hierarchy must pay off on both
        // the clock and the socket budget.
        assert!(
            cell.agree,
            "P={p}: tuner picked {} but the virtual clock crowned {}",
            cell.tuner_pick, cell.measured_winner
        );
        if p >= 256 {
            assert!(
                cell.hier_speedup > 1.0,
                "P={p}: hierarchy did not beat the best flat method ({}x)",
                cell.hier_speedup
            );
            let pick_sockets = cell.measured[0].sockets;
            assert!(
                pick_sockets < cell.mesh_sockets,
                "P={p}: pick dials {} sockets, mesh is {}",
                pick_sockets,
                cell.mesh_sockets
            );
        }
        cells.push(cell);
    }

    let report = Report {
        schema: "bench-scale/v1".into(),
        width,
        cost: "ts=4e-5 tp=2.9e-8 to=1e-9 tr=4e-5".into(),
        cells,
    };

    let mut rows = Vec::new();
    for cell in &report.cells {
        for row in &cell.measured {
            rows.push(vec![
                cell.p.to_string(),
                row.method.clone(),
                format!("{:.3}", row.predicted_ms),
                format!("{:.3}", row.replayed_ms),
                row.messages.to_string(),
                row.sockets.to_string(),
            ]);
        }
        rows.push(vec![
            cell.p.to_string(),
            format!("winner: {}", cell.measured_winner),
            String::new(),
            format!("{:.2}x vs flat", cell.hier_speedup),
            String::new(),
            format!("mesh {}", cell.mesh_sockets),
        ]);
    }
    print_table(
        out,
        "E11 — hierarchical compositing at scale (virtual clock)",
        &[
            "P",
            "method",
            "predicted ms",
            "replayed ms",
            "msgs",
            "sockets",
        ],
        &rows,
    )?;

    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(&path, &json)?;
    let back = std::fs::read_to_string(&path)?;
    let parsed: Report = serde_json::from_str(&back).expect("artifact parses");
    writeln!(
        out,
        "scale study: {} cell(s) reconciled, all tuner picks confirmed -> {path}",
        parsed.cells.len()
    )
}
