//! The paper's regeneration harness: one function per table, figure and
//! extension sweep, each writing its text into a `Write` sink, plus the
//! [`PINNED`] table that ties every committed artefact (`results/*.txt`,
//! `BENCH_scale.json`, `BENCH_quality.json`) to the call that regenerates
//! it byte for byte — everything here runs on the deterministic virtual
//! clock.
//!
//! "Theory" series are the paper's own formulas (Table 1 totals and the
//! Section 2.3 closed forms); "sim" series execute the real schedule over
//! the threaded multicomputer on the rendered dataset and replay the trace
//! under the chosen cost model. The `figures` binary dispatches
//! [`SUBCOMMANDS`] by name; `figures check` walks [`PINNED`].

use crate::harness::{
    measure, parse_flags, price, print_table, secs, Args, Measurement, ScreenScene,
};
use rt_comm::{CostModel, FaultPlan};
use rt_compress::trle::{decode_codes, encode_codes, TILE};
use rt_compress::{BoundsCodec, Codec, CodecKind, RleCodec, TrleCodec};
use rt_core::analysis::analyze;
use rt_core::exec::{ComposeConfig, ComposeOutput};
use rt_core::method::{CompositionMethod, Method};
use rt_core::rotate::RtVariant;
use rt_core::schedule::verify_schedule;
use rt_core::theory::{
    binary_swap_cost, bound_rhs, closed_form_2n, closed_form_n, eq5_bound, eq5_lhs, eq6_bound,
    eq6_lhs, optimal_blocks_2n, optimal_blocks_n, pipelined_cost, rt_2n_cost, rt_n_cost,
    MethodCost,
};
use rt_core::{
    BinarySwap, ComposePlan, CoreError, DirectSend, ParallelPipelined, RotateTiling, Run,
};
use rt_imaging::pixel::{GrayAlpha8, Pixel};
use rt_imaging::Image;
use rt_render::datasets::Dataset;
use std::io::{self, Write};
use std::path::Path;

/// A regeneration entry point: flags in, text out.
pub type Generator = fn(&[String], &mut dyn Write) -> io::Result<()>;

/// The `figures` subcommands: name, what it regenerates and its flags
/// beyond the shared ones (`--dataset`, `--all`, `--p`, `--volume`,
/// `--frame`, `--cost paper|sp2`, `--seed`), and the generator.
pub const SUBCOMMANDS: &[(&str, &str, Generator)] = &[
    ("table1", "Table 1: theoretical cost comparison", table1),
    ("bounds", "Equations (5)/(6): optimal block counts", bounds),
    (
        "walkthrough",
        "Figures 1-2: schedule walkthroughs [--p N --blocks B --variant 2n|n --pixels A]",
        walkthrough,
    ),
    (
        "trle_demo",
        "Figures 3-4: TRLE templates, worked example, measured ratios",
        trle_demo,
    ),
    ("fig5", "Figure 5: N_RT / 2N_RT time vs initial blocks", fig5),
    ("fig6", "Figure 6: BS, PP, 2N_RT(4), N_RT(3)", fig6),
    ("fig7", "Figure 7: RT with and without TRLE", fig7),
    ("fig8", "Figure 8: methods x {raw, RLE, TRLE, bounds}", fig8),
    ("scaling", "E1: every method across P = 2..40", scaling),
    (
        "ablation",
        "E2: direct-send, odd shapes, codec cost",
        ablation,
    ),
    (
        "inspect",
        "any schedule + static cost [--method rt2n|rtn|bs|bsfold|pp|ds --blocks B --p N --pixels A --json]",
        inspect,
    ),
];

/// A panel of Figures 5 and 7: label, initial block counts, method.
type RtPanel = (&'static str, &'static [usize], fn(usize) -> RotateTiling);
/// (a) N_RT at any block count (P is even), (b) 2N_RT at even counts.
const RT_PANELS: [RtPanel; 2] = [
    ("a) — N_RT", &[1, 2, 3, 4, 5, 6, 7, 8], RotateTiling::n),
    ("b) — 2N_RT", &[2, 4, 6, 8, 10, 12], RotateTiling::two_n),
];
/// Render the scene of every selected dataset, with progress on stderr.
fn scenes(args: &Args) -> impl Iterator<Item = ScreenScene> + '_ {
    args.datasets().into_iter().map(move |dataset| {
        eprintln!(
            "rendering {} scene (P = {}, {}³ voxels, {}² frame)...",
            dataset.name(),
            args.p,
            args.volume,
            args.frame
        );
        ScreenScene::prepare(args, dataset)
    })
}

/// **Table 1**: step counts, per-step block sizes and total
/// communication/computation time of BS, PP, 2N_RT and N_RT, evaluated at
/// the chosen constants (paper: `P = 32`, `A = 512²`, `Ts = 0.005`,
/// `Tp = 0.00004`, `To = 0.0002`).
pub fn table1(argv: &[String], out: &mut dyn Write) -> io::Result<()> {
    let args = Args::parse(argv);
    let params = args.theory(args.cost());
    let a = params.a;
    let s = params.s();

    writeln!(
        out,
        "Table 1 — theoretical comparison at P = {}, A = {} px, Ts = {}, Tp = {}, To = {}",
        params.p, a, params.cost.ts, params.cost.tp, params.cost.to
    )?;

    let row = |name: &str, steps: String, block: String, c: MethodCost| -> Vec<String> {
        vec![
            name.to_string(),
            steps,
            block,
            secs(c.comm),
            secs(c.comp),
            secs(c.total()),
        ]
    };
    let rt_block = "A/(N*2^(k-1))".to_string();
    let rows = vec![
        row(
            "BS",
            format!("log2(P) = {s}"),
            "A/2^k".to_string(),
            binary_swap_cost(&params),
        ),
        row(
            "PP",
            format!("P-1 = {}", params.p - 1),
            format!("A/P = {:.0}", a / params.p as f64),
            pipelined_cost(&params),
        ),
        row(
            "2N_RT (N=4)",
            format!("ceil(log2 P) = {s}"),
            rt_block.clone(),
            rt_2n_cost(&params, 4),
        ),
        row(
            "N_RT (N=3)",
            format!("ceil(log2 P) = {s}"),
            rt_block,
            rt_n_cost(&params, 3),
        ),
    ];
    print_table(
        out,
        "Table 1 (evaluated)",
        &["method", "S(M)", "A_k(M)", "T_comm", "T_comp", "total"],
        &rows,
    )?;

    // Per-step breakdown for the two RT variants, the paper's block-size
    // column made explicit.
    let step_rows: Vec<Vec<String>> = (1..=s)
        .map(|k| {
            let halvings = 2f64.powi(k as i32 - 1);
            vec![
                k.to_string(),
                format!("{:.0}", a / 2f64.powi(k as i32)),
                format!("{:.0} x{k}", a / (4.0 * halvings)),
                format!("{:.0} x{}", a / (3.0 * halvings), k / 2 + 1),
            ]
        })
        .collect();
    print_table(
        out,
        "per-step block pixels (BS | 2N_RT N=4 | N_RT N=3)",
        &["k", "BS", "2N_RT", "N_RT"],
        &step_rows,
    )
}

/// The **Equation (5)/(6) optimal-block-count examples** of Section 2.3:
/// the performance bounds of `N` for 2N_RT and N_RT (the paper quotes 4.3
/// and 3.4 at `P = 32`), plus the discrete optima of the closed forms.
pub fn bounds(argv: &[String], out: &mut dyn Write) -> io::Result<()> {
    let args = Args::parse(argv);
    let params = args.theory(args.cost());
    let s = params.s();

    writeln!(
        out,
        "Equations (5)/(6) at P = {}, A = {} px, Ts = {}, Tp = {}, To = {}",
        params.p, params.a, params.cost.ts, params.cost.tp, params.cost.to
    )?;
    writeln!(
        out,
        "shared RHS = (2A/Ts)(Tp + To*S*q)*q = {:.1}",
        bound_rhs(&params)
    )?;

    let b5 = eq5_bound(&params);
    let b6 = eq6_bound(&params);
    print_table(
        out,
        "performance bounds of N",
        &["equation", "bound N*", "paper quotes", "LHS(N*)"],
        &[
            vec![
                "(5) 2N_RT".into(),
                format!("{b5:.2}"),
                "4.3".into(),
                format!("{:.1}", eq5_lhs(b5, s)),
            ],
            vec![
                "(6) N_RT".into(),
                format!("{b6:.2}"),
                "3.4".into(),
                format!("{:.1}", eq6_lhs(b6, s)),
            ],
        ],
    )?;

    // Closed-form sweep: where the discrete optimum lands.
    let rows: Vec<Vec<String>> = (1..=10usize)
        .map(|n| {
            vec![
                n.to_string(),
                if n % 2 == 0 {
                    format!("{:.3}", closed_form_2n(&params, n))
                } else {
                    "-".into()
                },
                format!("{:.3}", closed_form_n(&params, n)),
            ]
        })
        .collect();
    print_table(
        out,
        "closed-form composition time vs N",
        &["N", "T_2N_RT(N)", "T_N_RT(N)"],
        &rows,
    )?;
    writeln!(
        out,
        "closed-form optima: 2N_RT N* = {} (paper: 4), N_RT N* = {} (paper: 3)",
        optimal_blocks_2n(&params, 12),
        optimal_blocks_n(&params, 12)
    )?;
    writeln!(
        out,
        "note: evaluating the printed formulas transposes the paper's quoted\n\
         bounds (we get eq5 ≈ {b5:.1}, eq6 ≈ {b6:.1}); the discrete optima still\n\
         land at N = 4 (even) and N = 3..5 — see EXPERIMENTS.md."
    )
}

/// The schedule walkthroughs of the paper's **Figure 1** (2N_RT, three
/// processors, four initial blocks) and **Figure 2** (N_RT, four
/// processors, three initial blocks), or any other shape.
pub fn walkthrough(argv: &[String], out: &mut dyn Write) -> io::Result<()> {
    let (mut p, mut blocks, mut pixels) = (0usize, 0usize, 240usize);
    let mut variant = String::from("2n");
    parse_flags(
        argv,
        "flags: --p N  --blocks B  --variant 2n|n  --pixels A",
        |f| match f.name {
            "--p" => p = f.parse(),
            "--blocks" => blocks = f.parse(),
            "--variant" => variant = f.value(),
            "--pixels" => pixels = f.parse(),
            _ => f.unknown(),
        },
    );
    let shapes: Vec<(usize, usize, &str)> = if p == 0 {
        // Default: both worked examples from the paper.
        vec![(3, 4, "2n"), (4, 3, "n")]
    } else {
        vec![(p, blocks.max(1), variant.as_str())]
    };

    for (p, blocks, variant) in shapes {
        let method = match variant {
            "2n" => RotateTiling::two_n(blocks),
            "n" => RotateTiling::n(blocks),
            other => panic!("unknown variant {other} (2n|n)"),
        };
        match method.build(p, pixels) {
            Ok(schedule) => {
                verify_schedule(&schedule).expect("schedule verification");
                writeln!(out, "{}", schedule.walkthrough())?;
                writeln!(
                    out,
                    "verified: every final block composites all {p} ranks in depth order\n"
                )?;
            }
            Err(e) => writeln!(out, "{e}\n")?,
        }
    }
    Ok(())
}

/// The **Section 3 / Figure 3–4 TRLE material**: the sixteen 2×2
/// templates, a worked scanline example in the spirit of Figure 4 (where
/// RLE needs 18 bytes and TRLE 5), and measured compression ratios of
/// RLE / TRLE / bounding-interval on the rendered partials of the three
/// datasets.
pub fn trle_demo(argv: &[String], out: &mut dyn Write) -> io::Result<()> {
    let args = Args::parse(argv);

    writeln!(
        out,
        "Figure 3 — the 16 TRLE templates (bit j of the code = pixel j non-blank):"
    )?;
    for t in 0u8..16 {
        let cells: String = (0..TILE)
            .map(|j| if t & (1 << j) != 0 { '#' } else { '.' })
            .collect();
        write!(out, "  {t:>2}:[{cells}]")?;
        if t % 4 == 3 {
            writeln!(out)?;
        }
    }

    // Figure 4 analog: two "scanlines" of 12 pixels whose gray values vary,
    // blank at both ends of every tile — RLE finds no byte runs, TRLE
    // collapses the blank structure.
    let scanline = |base: u8, slope: u8| {
        (0..12u8).map(move |i| {
            if i % 4 == 0 || i % 4 == 3 {
                GrayAlpha8::blank()
            } else {
                GrayAlpha8::new(base + slope * i, 255)
            }
        })
    };
    let scanlines: Vec<GrayAlpha8> = scanline(37, 11).chain(scanline(90, 7)).collect();
    let raw_len = scanlines.len() * 2;
    let rle = Codec::<GrayAlpha8>::encode(&RleCodec, &scanlines);
    let trle = Codec::<GrayAlpha8>::encode(&TrleCodec, &scanlines);
    writeln!(
        out,
        "\nFigure 4 analog — {} pixels ({raw_len} raw bytes): RLE = {} bytes, TRLE = {} bytes (ratio {}:{})",
        scanlines.len(),
        rle.bytes.len(),
        trle.bytes.len(),
        rle.bytes.len(),
        trle.bytes.len(),
    )?;
    let codes = encode_codes(&scanlines);
    writeln!(
        out,
        "TRLE code stream: {:?} -> templates {:?}",
        codes
            .iter()
            .map(|c| format!("run {} x t{}", (c >> 4) + 1, c & 0xF))
            .collect::<Vec<_>>(),
        decode_codes(&codes)
    )?;

    // Measured ratios on real partial images.
    let mut rows = Vec::new();
    for dataset in Dataset::PAPER {
        eprintln!("rendering {}...", dataset.name());
        let scene = ScreenScene::prepare(&args, dataset);
        // raw, RLE, TRLE, TRLE-2D, bounds
        let mut bytes = [0usize; 5];
        for img in &scene.partials {
            let pixels = img.pixels();
            let encoded = [
                pixels.len() * 2,
                Codec::<GrayAlpha8>::encode(&RleCodec, pixels).bytes.len(),
                Codec::<GrayAlpha8>::encode(&TrleCodec, pixels).bytes.len(),
                rt_compress::trle2d::encode_image(img).bytes.len(),
                Codec::<GrayAlpha8>::encode(&BoundsCodec, pixels)
                    .bytes
                    .len(),
            ];
            for (total, n) in bytes.iter_mut().zip(encoded) {
                *total += n;
            }
        }
        let mut row = vec![
            dataset.name().to_string(),
            format!("{:.2}", scene.blank_fraction),
        ];
        row.extend(
            bytes[1..]
                .iter()
                .map(|&n| format!("{:.2}", bytes[0] as f64 / n as f64)),
        );
        rows.push(row);
    }
    print_table(
        out,
        &format!(
            "compression ratios on rendered partials (P = {}, {}³ voxels, {}² frame)",
            args.p, args.volume, args.frame
        ),
        &["dataset", "blank frac", "RLE", "TRLE", "TRLE-2D", "bounds"],
        &rows,
    )
}

/// **Figure 5**: theoretical and simulated composition time of N_RT
/// (panel a) and 2N_RT (panel b) versus the number of initial blocks.
pub fn fig5(argv: &[String], out: &mut dyn Write) -> io::Result<()> {
    let args = Args::parse(argv);
    let cost = args.cost();
    let params = args.theory(cost);
    for scene in scenes(&args) {
        eprintln!(
            "scene ready: mean blank fraction {:.2}",
            scene.blank_fraction
        );
        for (label, blocks, method) in RT_PANELS {
            let rows: Vec<Vec<String>> = blocks
                .iter()
                .map(|&b| {
                    let rt = method(b);
                    let (table1, closed) = match rt.variant {
                        RtVariant::N => (rt_n_cost(&params, b), closed_form_n(&params, b)),
                        RtVariant::TwoN => (rt_2n_cost(&params, b), closed_form_2n(&params, b)),
                    };
                    let m = measure(&scene, &rt, CodecKind::Raw, &cost);
                    vec![
                        b.to_string(),
                        secs(table1.total()),
                        secs(closed),
                        secs(m.compose_time),
                        secs(m.total_time),
                        m.messages.to_string(),
                        m.bytes.to_string(),
                    ]
                })
                .collect();
            print_table(
                out,
                &format!(
                    "Figure 5({label} vs initial blocks, {} dataset, P = {}, cost = {}",
                    scene.dataset.name(),
                    args.p,
                    args.cost_name
                ),
                &[
                    "N",
                    "theory(T1)",
                    "theory(closed)",
                    "sim(compose)",
                    "sim(+gather)",
                    "msgs",
                    "bytes",
                ],
                &rows,
            )?;
        }
    }
    Ok(())
}

/// **Figure 6**: theoretical and simulated composition time of BS, PP,
/// 2N_RT and N_RT, the RT methods at their best block counts (4 and 3).
pub fn fig6(argv: &[String], out: &mut dyn Write) -> io::Result<()> {
    let args = Args::parse(argv);
    let cost = args.cost();
    let params = args.theory(cost);
    // In `Method::figure6_lineup` order.
    let theory = [
        binary_swap_cost(&params),
        pipelined_cost(&params),
        rt_2n_cost(&params, 4),
        rt_n_cost(&params, 3),
    ];

    for scene in scenes(&args) {
        let rows: Vec<Vec<String>> = Method::figure6_lineup()
            .iter()
            .zip(&theory)
            .map(|(method, t)| {
                let m = measure(&scene, method, CodecKind::Raw, &cost);
                vec![
                    method.name(),
                    secs(t.total()),
                    secs(m.compose_time),
                    secs(m.total_time),
                    m.messages.to_string(),
                    m.bytes.to_string(),
                ]
            })
            .collect();
        print_table(
            out,
            &format!(
                "Figure 6 — methods at P = {}, {} dataset, cost = {}",
                args.p,
                scene.dataset.name(),
                args.cost_name
            ),
            &[
                "method",
                "theory",
                "sim(compose)",
                "sim(+gather)",
                "msgs",
                "bytes",
            ],
            &rows,
        )?;
    }
    Ok(())
}

/// **Figure 7**: composition time of N_RT (panel a) and 2N_RT (panel b)
/// **with and without TRLE**, versus the number of initial blocks.
pub fn fig7(argv: &[String], out: &mut dyn Write) -> io::Result<()> {
    let args = Args::parse(argv);
    let cost = args.cost();
    for scene in scenes(&args) {
        eprintln!("mean blank fraction {:.2}", scene.blank_fraction);
        for (label, blocks, method) in RT_PANELS {
            let rows: Vec<Vec<String>> = blocks
                .iter()
                .map(|&b| {
                    let raw = measure(&scene, &method(b), CodecKind::Raw, &cost);
                    let trle = measure(&scene, &method(b), CodecKind::Trle, &cost);
                    vec![
                        b.to_string(),
                        secs(raw.total_time),
                        secs(trle.total_time),
                        format!("{:.2}", raw.total_time / trle.total_time),
                        format!("{:.2}", raw.bytes as f64 / trle.bytes as f64),
                    ]
                })
                .collect();
            print_table(
                out,
                &format!(
                    "Figure 7({label} with/without TRLE, {} dataset, P = {}, cost = {}",
                    scene.dataset.name(),
                    args.p,
                    args.cost_name
                ),
                &["N", "raw", "TRLE", "speedup", "byte ratio"],
                &rows,
            )?;
        }
    }
    Ok(())
}

/// **Figure 8**: composition time of BS, PP, 2N_RT and N_RT with and
/// without RLE and TRLE — and the bounding-interval codec (Ma et al.'s
/// rectangle), prior art the paper discusses but does not plot — followed
/// by the byte traffic that drives the codec gains.
pub fn fig8(argv: &[String], out: &mut dyn Write) -> io::Result<()> {
    let args = Args::parse(argv);
    let cost = args.cost();

    for scene in scenes(&args) {
        let grid: Vec<(String, Vec<Measurement>)> = Method::figure6_lineup()
            .iter()
            .map(|m| {
                let cells = CodecKind::ALL
                    .iter()
                    .map(|&codec| measure(&scene, m, codec, &cost))
                    .collect();
                (m.name(), cells)
            })
            .collect();
        let table = |cell: fn(&Measurement) -> String| -> Vec<Vec<String>> {
            grid.iter()
                .map(|(name, cells)| {
                    std::iter::once(name.clone())
                        .chain(cells.iter().map(cell))
                        .collect()
                })
                .collect()
        };
        let header = ["method", "raw", "RLE", "TRLE", "bounds"];
        print_table(
            out,
            &format!(
                "Figure 8 — methods × codecs, {} dataset, P = {}, cost = {}",
                scene.dataset.name(),
                args.p,
                args.cost_name
            ),
            &header,
            &table(|m| secs(m.total_time)),
        )?;
        print_table(
            out,
            &format!(
                "Figure 8 traffic (bytes) — {} dataset",
                scene.dataset.name()
            ),
            &header,
            &table(|m| m.bytes.to_string()),
        )?;
    }
    Ok(())
}

/// **Extension E1 — processor-count scaling.** Binary-swap needs a power
/// of two processors and parallel-pipelined `P − 1` steps; this sweep runs
/// every applicable method across `P = 2..=40` (the SP2 at NCHC had 40
/// nodes): PP's linear startup blow-up, BS existing only at powers of two
/// (the fold extension fills the gaps with idle ranks), and RT tracking BS
/// there while running at *every* `P` with `⌈log₂P⌉` steps.
pub fn scaling(argv: &[String], out: &mut dyn Write) -> io::Result<()> {
    let mut args = Args::parse(argv);
    let cost = args.cost();
    let dataset = args.dataset;

    let mut rows = Vec::new();
    for p in 2..=40usize {
        args.p = p;
        eprintln!("P = {p}: rendering...");
        let scene = ScreenScene::prepare(&args, dataset);
        let time =
            |m: &dyn CompositionMethod| secs(measure(&scene, m, CodecKind::Trle, &cost).total_time);
        rows.push(vec![
            p.to_string(),
            if p.is_power_of_two() {
                time(&BinarySwap::new())
            } else {
                "-".into()
            },
            time(&BinarySwap::with_fold()),
            time(&ParallelPipelined::new()),
            time(&RotateTiling::two_n(4)),
        ]);
    }
    print_table(
        out,
        &format!(
            "E1 — scaling P = 2..40, {} dataset, TRLE, cost = {} ({}³ voxels, {}² frame)",
            dataset.name(),
            args.cost_name,
            args.volume,
            args.frame
        ),
        &["P", "BS", "BS+fold", "PP", "2N_RT(B=4)"],
        &rows,
    )
}

/// **Extension E2 — design ablations**: direct-send as a third baseline;
/// `unchecked` RT on odd-P/odd-B shapes outside the paper's admissibility
/// rule (the re-derived schedule stays correct — the rule is about the
/// paper's index formulas, not the merge tree); and how the TRLE advantage
/// erodes as the per-byte codec cost `Tc` grows.
pub fn ablation(argv: &[String], out: &mut dyn Write) -> io::Result<()> {
    let mut args = Args::parse(argv);
    let cost = args.cost();
    let dataset = args.dataset;
    let figure_scene = ScreenScene::prepare(&args, dataset);

    let methods: [Box<dyn CompositionMethod>; 3] = [
        Box::new(DirectSend::new()),
        Box::new(ParallelPipelined::new()),
        Box::new(RotateTiling::two_n(4)),
    ];
    let rows: Vec<Vec<String>> = methods
        .iter()
        .map(|m| {
            let meas = measure(&figure_scene, m.as_ref(), CodecKind::Raw, &cost);
            vec![
                m.name(),
                secs(meas.total_time),
                meas.messages.to_string(),
                meas.bytes.to_string(),
            ]
        })
        .collect();
    print_table(
        out,
        &format!(
            "E2a — direct-send baseline, P = {}, {}",
            args.p,
            dataset.name()
        ),
        &["method", "sim(+gather)", "msgs", "bytes"],
        &rows,
    )?;

    let figure_p = args.p;
    let mut rows = Vec::new();
    for (p, b) in [(7usize, 3usize), (9, 5), (11, 3), (33, 3)] {
        args.p = p;
        let scene = ScreenScene::prepare(&args, dataset);
        let rt = measure(&scene, &RotateTiling::unchecked(b), CodecKind::Raw, &cost);
        let pp = measure(&scene, &ParallelPipelined::new(), CodecKind::Raw, &cost);
        rows.push(vec![
            format!("P={p},B={b}"),
            secs(rt.total_time),
            secs(pp.total_time),
            format!("{:.2}x", pp.total_time / rt.total_time),
        ]);
    }
    print_table(
        out,
        "E2b — odd-P/odd-B rotate-tiling (outside the paper's admissibility rule)",
        &["shape", "RT(unchecked)", "PP", "PP/RT"],
        &rows,
    )?;

    let rows: Vec<Vec<String>> = [0.0, 1.0, 10.0, 100.0, 1000.0]
        .iter()
        .map(|mult| {
            let mut c = cost;
            c.tc = cost.tp * mult / 10.0; // Tc relative to the per-byte wire cost
            let rt = RotateTiling::two_n(4);
            let raw = measure(&figure_scene, &rt, CodecKind::Raw, &c);
            let trle = measure(&figure_scene, &rt, CodecKind::Trle, &c);
            vec![
                format!("{:.1e}", c.tc),
                secs(raw.total_time),
                secs(trle.total_time),
                format!("{:.2}", raw.total_time / trle.total_time),
            ]
        })
        .collect();
    print_table(
        out,
        &format!(
            "E2c — TRLE speedup vs codec cost Tc, 2N_RT(4), P = {figure_p}, {}",
            dataset.name()
        ),
        &["Tc (s/byte)", "raw", "TRLE", "speedup"],
        &rows,
    )
}

/// Schedule inspector: any method's schedule as a walkthrough, its static
/// cost analysis under both cost models, and (with `--json`) the full
/// schedule as JSON for external tooling.
pub fn inspect(argv: &[String], out: &mut dyn Write) -> io::Result<()> {
    let mut method_name = String::from("rt2n");
    let (mut blocks, mut p, mut pixels, mut json) = (4usize, 8usize, 512 * 512usize, false);
    parse_flags(
        argv,
        "flags: --method rt2n|rtn|bs|bsfold|pp|ds  --blocks B  --p N  --pixels A  --json",
        |f| match f.name {
            "--method" => method_name = f.value(),
            "--blocks" => blocks = f.parse(),
            "--p" => p = f.parse(),
            "--pixels" => pixels = f.parse(),
            "--json" => json = true,
            _ => f.unknown(),
        },
    );
    let rt = |variant| Method::RotateTiling { variant, blocks };
    let method = match method_name.as_str() {
        "rt2n" => rt(RtVariant::TwoN),
        "rtn" => rt(RtVariant::N),
        "bs" => Method::BinarySwap,
        "bsfold" => Method::BinarySwapFold,
        "pp" => Method::ParallelPipelined,
        "ds" => Method::DirectSend,
        other => panic!("unknown method {other} (rt2n|rtn|bs|bsfold|pp|ds)"),
    };

    let schedule = match method.build(p, pixels) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(1);
        }
    };
    verify_schedule(&schedule).expect("schedule verification");

    if json {
        return writeln!(
            out,
            "{}",
            serde_json::to_string_pretty(&schedule).expect("schedule serializes")
        );
    }

    // For big frames the walkthrough is huge; print it only when small.
    if schedule.message_count() <= 64 {
        writeln!(out, "{}", schedule.walkthrough())?;
    } else {
        writeln!(
            out,
            "{}: P = {}, A = {} px, {} steps, {} messages (walkthrough suppressed; use --pixels with a small frame or --json)",
            schedule.method,
            schedule.p,
            schedule.image_len,
            schedule.step_count(),
            schedule.message_count()
        )?;
    }

    for (name, cost) in [("paper", CostModel::PAPER_EXAMPLE), ("sp2", CostModel::SP2)] {
        let a = analyze(&schedule, &cost, 2);
        writeln!(
            out,
            "cost[{name}]: compose {:.5}s  +gather {:.5}s  latency-depth {:.0} startups  \
             max-sent {} px  max-over {} px",
            a.makespan,
            a.makespan_with_gather,
            a.latency_depth / cost.ts,
            a.max_sent_pixels,
            a.max_over_pixels
        )?;
    }
    writeln!(out, "ownership: {:?} px per rank", schedule.owned_pixels())
}

/// Run one faulty composition.
fn run_faulty(
    scene: &ScreenScene,
    method: &dyn CompositionMethod,
    codec: CodecKind,
    faults: FaultPlan,
) -> (
    Vec<Result<ComposeOutput<GrayAlpha8>, CoreError>>,
    rt_comm::Trace,
) {
    let schedule = method
        .build(scene.p(), scene.image_len())
        .unwrap_or_else(|e| panic!("{}: {e}", method.name()));
    let config = ComposeConfig::default()
        .with_codec(codec)
        .resilient(!faults.is_none());
    Run::new(&ComposePlan::Schedule(schedule), &config)
        .faults(faults)
        .execute(scene.partials.clone())
}

fn frame_of(results: &[Result<ComposeOutput<GrayAlpha8>, CoreError>]) -> Image<GrayAlpha8> {
    results
        .iter()
        .filter_map(|r| r.as_ref().ok())
        .find_map(|o| o.frame.clone())
        .expect("some rank gathered the frame")
}

/// **Extension E4 — chaos sweep** (the `chaos` binary without
/// `--transport`): composition under seeded message faults and rank
/// crashes, everything virtual-clock priced, so every row reproduces
/// exactly on rerun.
///
/// * E4a — drop/corruption-rate sweep for every method: retransmissions,
///   virtual-time overhead vs the clean run, and whether the frame stayed
///   bit-exact (it must — reliable delivery absorbs message faults).
/// * E4b — codec sensitivity under a fixed fault rate (compressed frames
///   are smaller, but every retransmission re-ships the encoded body).
/// * E4c — rank-crash degradation: crash one rank at each step and report
///   the lost contributions/pixels from [`rt_core::repair::DegradedInfo`].
pub fn chaos(argv: &[String], out: &mut dyn Write) -> io::Result<()> {
    let mut args = Args::parse(argv);
    // The default figure shape (P = 32) is bigger than chaos needs; sweep a
    // modest machine unless the caller asked for a specific size.
    if args.p == 32 {
        args.p = 8;
    }
    if args.p < 2 {
        eprintln!("chaos: --p must be at least 2 (composition needs multiple ranks)");
        std::process::exit(2);
    }
    let cost = args.cost();
    let dataset = args.dataset;
    let scene = ScreenScene::prepare(&args, dataset);
    let rt = RotateTiling::two_n(4);

    // E4a — fault-rate sweep, raw codec.
    let mut methods: Vec<Box<dyn CompositionMethod>> = vec![
        Box::new(ParallelPipelined::new()),
        Box::new(DirectSend::new()),
        Box::new(rt),
    ];
    if args.p.is_power_of_two() {
        methods.insert(0, Box::new(BinarySwap::new()));
    }
    let mut rows = Vec::new();
    for m in &methods {
        let (clean_results, clean_trace) =
            run_faulty(&scene, m.as_ref(), CodecKind::Raw, FaultPlan::none());
        let clean_frame = frame_of(&clean_results);
        let clean_time = price(&clean_trace, &cost, m.name(), CodecKind::Raw).total_time;
        for rate in [0.01, 0.05, 0.10] {
            let faults = FaultPlan::none()
                .with_seed(args.seed)
                .drop_rate(rate)
                .corrupt_rate(rate / 2.0);
            let (results, trace) = run_faulty(&scene, m.as_ref(), CodecKind::Raw, faults);
            let frame = frame_of(&results);
            let degraded = results
                .iter()
                .filter_map(|r| r.as_ref().ok())
                .any(|o| o.degraded.is_some());
            let meas = price(&trace, &cost, m.name(), CodecKind::Raw);
            rows.push(vec![
                m.name(),
                format!("{:.0}%/{:.1}%", rate * 100.0, rate * 50.0),
                trace.retransmit_count().to_string(),
                secs(meas.total_time),
                format!("{:+.1}%", 100.0 * (meas.total_time / clean_time - 1.0)),
                if frame.pixels() == clean_frame.pixels() && !degraded {
                    "bit-exact".into()
                } else {
                    "DIVERGED".into()
                },
            ]);
        }
    }
    print_table(
        out,
        &format!(
            "E4a — reliable delivery under drop/corrupt rates, P = {}, {}",
            args.p,
            dataset.name()
        ),
        &[
            "method",
            "drop/corrupt",
            "retx",
            "sim(+gather)",
            "overhead",
            "frame",
        ],
        &rows,
    )?;

    // E4b — codec sensitivity at a fixed fault rate.
    let rows: Vec<Vec<String>> = CodecKind::ALL
        .iter()
        .map(|&codec| {
            let faults = FaultPlan::none()
                .with_seed(args.seed)
                .drop_rate(0.05)
                .corrupt_rate(0.02);
            let (_, trace) = run_faulty(&scene, &rt, codec, faults);
            let meas = price(&trace, &cost, rt.name(), codec);
            vec![
                format!("{codec:?}"),
                trace.retransmit_count().to_string(),
                meas.bytes.to_string(),
                secs(meas.total_time),
            ]
        })
        .collect();
    print_table(
        out,
        &format!(
            "E4b — codecs under 5%/2% faults, 2N_RT(4), P = {}, {}",
            args.p,
            dataset.name()
        ),
        &["codec", "retx", "bytes", "sim(+gather)"],
        &rows,
    )?;

    // E4c — single-rank crash at each step: graceful degradation.
    let steps = rt
        .build(args.p, scene.image_len())
        .expect("2N_RT(4) schedule")
        .steps
        .len();
    let crash_rank = args.p - 1; // deepest rank: survivors stay contiguous
    let rows: Vec<Vec<String>> = [0, steps / 2, steps]
        .iter()
        .map(|&step| {
            let faults = FaultPlan::none().crash_rank_at_step(crash_rank, step);
            let (results, trace) = run_faulty(&scene, &rt, CodecKind::Raw, faults);
            let info = results
                .iter()
                .filter_map(|r| r.as_ref().ok())
                .find_map(|o| o.degraded.clone())
                .expect("crash must be reported as degradation");
            let meas = price(&trace, &cost, rt.name(), CodecKind::Raw);
            vec![
                format!("rank {crash_rank} @ step {step}"),
                format!("{:?}", info.lost_contributions),
                info.lost_pixels.to_string(),
                info.reassigned_spans.to_string(),
                secs(meas.total_time),
            ]
        })
        .collect();
    print_table(
        out,
        &format!(
            "E4c — graceful degradation after a crash, 2N_RT(4), P = {}, {}",
            args.p,
            dataset.name()
        ),
        &[
            "crash",
            "lost ranks",
            "lost px",
            "repaired spans",
            "sim(+gather)",
        ],
        &rows,
    )
}

/// One committed artefact and the call that regenerates it.
#[derive(Debug, Clone, Copy)]
pub struct Pinned {
    /// Path of the committed file, relative to the repository root.
    pub file: &'static str,
    /// The function that regenerates it.
    pub generator: Generator,
    /// Its flags.
    pub args: &'static [&'static str],
    /// `None`: the committed artefact is the generator's output text.
    /// `Some(path)`: it is the file the generator writes when given
    /// `--out <root>/<path>`.
    pub out: Option<&'static str>,
}

const fn pin(file: &'static str, generator: Generator, args: &'static [&'static str]) -> Pinned {
    Pinned {
        file,
        generator,
        args,
        out: None,
    }
}

/// Every committed result: `figures check` regenerates each entry in
/// process and fails on the first byte that drifted.
pub const PINNED: &[Pinned] = &[
    pin("results/table1_paper.txt", table1, &[]),
    pin("results/table1_sp2.txt", table1, &["--cost", "sp2"]),
    pin("results/bounds_paper.txt", bounds, &[]),
    pin("results/bounds_sp2.txt", bounds, &["--cost", "sp2"]),
    pin("results/walkthrough.txt", walkthrough, &[]),
    pin("results/trle_demo_paper.txt", trle_demo, &[]),
    pin("results/trle_demo_sp2.txt", trle_demo, &["--cost", "sp2"]),
    pin("results/fig5_paper.txt", fig5, &[]),
    pin("results/fig5_sp2.txt", fig5, &["--cost", "sp2"]),
    pin("results/fig6_paper.txt", fig6, &[]),
    pin("results/fig6_sp2.txt", fig6, &["--cost", "sp2"]),
    pin(
        "results/fig6_all_sp2.txt",
        fig6,
        &["--cost", "sp2", "--all"],
    ),
    pin("results/fig7_paper.txt", fig7, &[]),
    pin("results/fig7_sp2.txt", fig7, &["--cost", "sp2"]),
    pin("results/fig8_paper.txt", fig8, &[]),
    pin("results/fig8_sp2.txt", fig8, &["--cost", "sp2"]),
    pin(
        "results/fig8_all_sp2.txt",
        fig8,
        &["--cost", "sp2", "--all"],
    ),
    pin("results/scaling_sp2.txt", scaling, &["--cost", "sp2"]),
    pin("results/ablation_sp2.txt", ablation, &["--cost", "sp2"]),
    pin("results/chaos_paper.txt", chaos, &[]),
    // The committed text names its Chrome traces by this relative path;
    // they land under the current directory's target/ and are not compared.
    pin(
        "results/profile_paper.txt",
        crate::profile::run,
        &["--out-dir", "target/profile_full"],
    ),
    Pinned {
        out: Some("target/BENCH_scale.json"),
        ..pin("BENCH_scale.json", crate::scale::run, &[])
    },
    Pinned {
        out: Some("target/BENCH_quality.json"),
        ..pin("BENCH_quality.json", crate::quality::run, &[])
    },
];

impl Pinned {
    /// A fresh copy of the artefact, regenerated in this process; `root`
    /// is the repository root.
    pub fn regenerate(&self, root: &Path) -> io::Result<Vec<u8>> {
        let mut argv: Vec<String> = self.args.iter().map(|a| a.to_string()).collect();
        let out = self.out.map(|path| root.join(path));
        if let Some(path) = &out {
            std::fs::create_dir_all(path.parent().expect("`out` names a file"))?;
            argv.extend(["--out".into(), path.to_string_lossy().into_owned()]);
        }
        let mut text = Vec::new();
        (self.generator)(&argv, &mut text)?;
        match out {
            Some(path) => std::fs::read(path),
            None => Ok(text),
        }
    }

    /// Regenerate the artefact and overwrite the committed file under
    /// `root` with it: what `RT_REGENERATE_GOLDEN=1 figures check` does
    /// after an intended output change.
    pub fn rewrite(&self, root: &Path) -> Result<(), String> {
        self.regenerate(root)
            .and_then(|fresh| std::fs::write(root.join(self.file), fresh))
            .map_err(|e| format!("{}: {e}", self.file))
    }

    /// Regenerate the artefact and compare it with the committed file under
    /// `root`; the error names the file and the first line that differs.
    /// Never writes the committed file, whatever the environment says.
    pub fn check(&self, root: &Path) -> Result<(), String> {
        let named = |e: io::Error| format!("{}: {e}", self.file);
        let fresh = self.regenerate(root).map_err(named)?;
        let committed = std::fs::read(root.join(self.file)).map_err(named)?;
        if fresh == committed {
            return Ok(());
        }
        let (fresh, committed) = (
            String::from_utf8_lossy(&fresh),
            String::from_utf8_lossy(&committed),
        );
        let (new, old): (Vec<&str>, Vec<&str>) =
            (fresh.lines().collect(), committed.lines().collect());
        let at = new
            .iter()
            .zip(&old)
            .position(|(a, b)| a != b)
            .unwrap_or(new.len().min(old.len()));
        let line = |lines: &[&str]| {
            lines
                .get(at)
                .copied()
                .unwrap_or("<end of file>")
                .to_string()
        };
        Err(format!(
            "{} drifted at line {}:\n  committed: {}\n  fresh:     {}\n\
             (an intended change: RT_REGENERATE_GOLDEN=1 figures check)",
            self.file,
            at + 1,
            line(&old),
            line(&new),
        ))
    }
}
