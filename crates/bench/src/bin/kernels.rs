//! Wall-clock microbench for the word-wise (SWAR) kernels.
//!
//! Each cell times the scalar reference loop against the wide kernel on the
//! *same* input and asserts bit-identical results in-binary before trusting
//! any number. Emits `BENCH_kernels.json` (schema `bench-kernels/v1`) and
//! prints an aligned table. `--smoke` shrinks to one rep on a small frame
//! for CI, asserting only that the harness runs and the JSON round-trips;
//! the full run additionally asserts the headline speedups (blank scan and
//! RLE run detection must beat the scalar loops by ≥1.5× at p50).

use rt_bench::harness::{print_table, quantiles, Quantiles};
use rt_compress::rle::{rle_encode_bytes, rle_encode_bytes_wide};
use rt_compress::{CodecKind, OverDir};
use rt_imaging::kernels::{byte_run_len, byte_run_len_scalar, zero_prefix, zero_prefix_scalar};
use rt_imaging::pixel::{pixels_to_bytes, GrayAlpha8, Pixel};
use rt_imaging::KernelPath;
use serde::{Deserialize, Serialize};
use std::hint::black_box;
use std::time::Instant;

#[derive(Debug, Clone)]
struct KernelArgs {
    reps: usize,
    warmup: usize,
    frame: usize,
    out: String,
    smoke: bool,
}

impl Default for KernelArgs {
    fn default() -> Self {
        Self {
            reps: 30,
            warmup: 3,
            frame: 512,
            out: "BENCH_kernels.json".into(),
            smoke: false,
        }
    }
}

impl KernelArgs {
    fn parse() -> Self {
        let mut out = Self::default();
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let mut value = |name: &str| {
                it.next()
                    .unwrap_or_else(|| panic!("missing value for {name}"))
            };
            match flag.as_str() {
                "--reps" => out.reps = value("--reps").parse().expect("bad --reps"),
                "--warmup" => out.warmup = value("--warmup").parse().expect("bad --warmup"),
                "--frame" => out.frame = value("--frame").parse().expect("bad --frame"),
                "--out" => out.out = value("--out"),
                "--smoke" => out.smoke = true,
                "--help" | "-h" => {
                    eprintln!("flags: --reps N  --warmup N  --frame N  --out FILE  --smoke");
                    std::process::exit(0);
                }
                other => panic!("unknown flag {other}"),
            }
        }
        if out.smoke {
            out.reps = 1;
            out.warmup = 0;
            out.frame = 128;
        }
        assert!(out.reps > 0, "--reps must be positive");
        out
    }
}

#[derive(Debug, Serialize, Deserialize)]
struct Cell {
    name: String,
    /// Input size of one timed pass (pixels for pixel cells, bytes for
    /// byte-stream cells).
    n: usize,
    scalar: Quantiles,
    wide: Quantiles,
    /// scalar p50 / wide p50 — >1 means the wide kernel is faster.
    speedup_p50: f64,
}

#[derive(Debug, Serialize, Deserialize)]
struct Report {
    schema: String,
    frame: usize,
    pixel: String,
    reps: usize,
    warmup: usize,
    results: Vec<Cell>,
}

/// Time `scalar` and `wide` over `reps` alternating passes (scalar first
/// each rep, so cache effects hit both sides equally).
fn time_pair(
    args: &KernelArgs,
    name: &str,
    n: usize,
    mut scalar: impl FnMut() -> f64,
    mut wide: impl FnMut() -> f64,
) -> Cell {
    let mut scalar_ms = Vec::with_capacity(args.reps);
    let mut wide_ms = Vec::with_capacity(args.reps);
    for rep in 0..args.warmup + args.reps {
        let s = scalar();
        let w = wide();
        if rep >= args.warmup {
            scalar_ms.push(s);
            wide_ms.push(w);
        }
    }
    let scalar = quantiles(scalar_ms);
    let wide = quantiles(wide_ms);
    Cell {
        name: name.into(),
        n,
        scalar,
        wide,
        speedup_p50: scalar.p50_ms / wide.p50_ms,
    }
}

fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let r = f();
    (r, t0.elapsed().as_secs_f64() * 1e3)
}

/// The paper's partial-image sparsity profile: a horizontal content band
/// (1/4 of the rows) of semi-transparent varied grays, blank elsewhere.
fn band_pixels(w: usize, h: usize) -> Vec<GrayAlpha8> {
    let (lo, hi) = (h * 3 / 8, h * 5 / 8);
    let mut px = Vec::with_capacity(w * h);
    for y in 0..h {
        for x in 0..w {
            if y >= lo && y < hi {
                px.push(GrayAlpha8::new(((x * 7 + y) % 251) as u8, 200));
            } else {
                px.push(GrayAlpha8::blank());
            }
        }
    }
    px
}

/// Fully dense frame with varied values (no blank pixels, some opaque).
fn dense_pixels(w: usize, h: usize) -> Vec<GrayAlpha8> {
    (0..w * h)
        .map(|i| {
            GrayAlpha8::new(
                (i % 253) as u8 + 1,
                if i % 5 == 0 { 255 } else { (i % 254) as u8 + 1 },
            )
        })
        .collect()
}

/// Destination frame with mixed coverage for the merge cells.
fn dst_pixels(w: usize, h: usize) -> Vec<GrayAlpha8> {
    (0..w * h)
        .map(|i| GrayAlpha8::new((i * 13 % 256) as u8, (i * 7 % 256) as u8))
        .collect()
}

fn main() {
    let args = KernelArgs::parse();
    let (w, h) = (args.frame, args.frame);
    let n = w * h;
    let band = band_pixels(w, h);
    let dense = dense_pixels(w, h);
    let dst0 = dst_pixels(w, h);
    let band_bytes = pixels_to_bytes(&band);
    let dense_bytes = pixels_to_bytes(&dense);
    let zeros = vec![0u8; n * GrayAlpha8::BYTES];
    let mut cells = Vec::new();

    // --- blank_scan: zero-prefix detection over an all-blank byte span ---
    assert_eq!(zero_prefix(&zeros), zero_prefix_scalar(&zeros));
    cells.push(time_pair(
        &args,
        "blank_scan",
        zeros.len(),
        || timed(|| black_box(zero_prefix_scalar(black_box(&zeros)))).1,
        || timed(|| black_box(zero_prefix(black_box(&zeros)))).1,
    ));

    // --- rle_run_detect: byte-run scanning over the band frame ---
    {
        let mut at = 0usize;
        while at < band_bytes.len() {
            let b = band_bytes[at];
            let cap = (at + 255).min(band_bytes.len());
            assert_eq!(
                byte_run_len(&band_bytes[at..cap], b),
                byte_run_len_scalar(&band_bytes[at..cap], b)
            );
            at += byte_run_len(&band_bytes[at..cap], b).max(1);
        }
    }
    assert_eq!(
        rle_encode_bytes(&band_bytes),
        rle_encode_bytes_wide(&band_bytes)
    );
    cells.push(time_pair(
        &args,
        "rle_run_detect",
        band_bytes.len(),
        || timed(|| black_box(rle_encode_bytes(black_box(&band_bytes)))).1,
        || timed(|| black_box(rle_encode_bytes_wide(black_box(&band_bytes)))).1,
    ));

    // --- trle_classify: template classification + payload assembly ---
    let trle = CodecKind::Trle.build::<GrayAlpha8>();
    assert_eq!(
        trle.encode_with(&band, KernelPath::Scalar),
        trle.encode_with(&band, KernelPath::Wide)
    );
    cells.push(time_pair(
        &args,
        "trle_classify",
        band.len(),
        || timed(|| black_box(trle.encode_with(black_box(&band), KernelPath::Scalar))).1,
        || timed(|| black_box(trle.encode_with(black_box(&band), KernelPath::Wide))).1,
    ));

    // --- over_blank_band / over_dense_ga8: the pixel over kernels ---
    for (name, src_bytes) in [
        ("over_blank_band", &band_bytes),
        ("over_dense_ga8", &dense_bytes),
    ] {
        let mut a = dst0.clone();
        let mut b = dst0.clone();
        let sa = GrayAlpha8::over_front_bytes_with(&mut a, src_bytes, KernelPath::Scalar).unwrap();
        let sb = GrayAlpha8::over_front_bytes_with(&mut b, src_bytes, KernelPath::Wide).unwrap();
        assert_eq!(a, b, "{name}: kernels diverged");
        assert_eq!(sa, sb, "{name}: stats diverged");
        cells.push(time_pair(
            &args,
            name,
            n,
            || {
                let mut d = dst0.clone();
                timed(|| {
                    black_box(
                        GrayAlpha8::over_front_bytes_with(
                            black_box(&mut d),
                            black_box(src_bytes),
                            KernelPath::Scalar,
                        )
                        .unwrap(),
                    )
                })
                .1
            },
            || {
                let mut d = dst0.clone();
                timed(|| {
                    black_box(
                        GrayAlpha8::over_front_bytes_with(
                            black_box(&mut d),
                            black_box(src_bytes),
                            KernelPath::Wide,
                        )
                        .unwrap(),
                    )
                })
                .1
            },
        ));
    }

    // --- rle_decode_over / trle_decode_over: the fused merge kernels ---
    for (name, kind) in [
        ("rle_decode_over", CodecKind::Rle),
        ("trle_decode_over", CodecKind::Trle),
    ] {
        let codec = kind.build::<GrayAlpha8>();
        let enc = codec.encode(&band);
        let mut a = dst0.clone();
        let mut b = dst0.clone();
        let sa = codec
            .decode_over_with(&enc.bytes, &mut a, OverDir::Front, KernelPath::Scalar)
            .unwrap();
        let sb = codec
            .decode_over_with(&enc.bytes, &mut b, OverDir::Front, KernelPath::Wide)
            .unwrap();
        assert_eq!(a, b, "{name}: merge kernels diverged");
        assert_eq!(
            (sa.non_blank, sa.blank_skipped),
            (sb.non_blank, sb.blank_skipped),
            "{name}: merge stats diverged"
        );
        cells.push(time_pair(
            &args,
            name,
            n,
            || {
                let mut d = dst0.clone();
                timed(|| {
                    black_box(
                        codec
                            .decode_over_with(
                                black_box(&enc.bytes),
                                black_box(&mut d),
                                OverDir::Front,
                                KernelPath::Scalar,
                            )
                            .unwrap(),
                    )
                })
                .1
            },
            || {
                let mut d = dst0.clone();
                timed(|| {
                    black_box(
                        codec
                            .decode_over_with(
                                black_box(&enc.bytes),
                                black_box(&mut d),
                                OverDir::Front,
                                KernelPath::Wide,
                            )
                            .unwrap(),
                    )
                })
                .1
            },
        ));
    }

    let report = Report {
        schema: "bench-kernels/v1".into(),
        frame: args.frame,
        pixel: "GrayAlpha8".into(),
        reps: args.reps,
        warmup: args.warmup,
        results: cells,
    };

    let table: Vec<Vec<String>> = report
        .results
        .iter()
        .map(|c| {
            vec![
                c.name.clone(),
                c.n.to_string(),
                format!("{:.3}", c.scalar.p50_ms),
                format!("{:.3}", c.scalar.p95_ms),
                format!("{:.3}", c.wide.p50_ms),
                format!("{:.3}", c.wide.p95_ms),
                format!("{:.2}x", c.speedup_p50),
            ]
        })
        .collect();
    print_table(
        &format!("scalar vs wide kernels, {0}x{0}", report.frame),
        &[
            "cell",
            "n",
            "scalar p50",
            "scalar p95",
            "wide p50",
            "wide p95",
            "speedup",
        ],
        &table,
    );

    if !args.smoke {
        // The headline claims of the wide-kernel layer, enforced at artifact
        // generation time.
        for headline in ["blank_scan", "rle_run_detect"] {
            let cell = report
                .results
                .iter()
                .find(|c| c.name == headline)
                .expect("headline cell ran");
            assert!(
                cell.speedup_p50 >= 1.5,
                "{headline}: wide kernel only {:.2}x over scalar (need >= 1.5x)",
                cell.speedup_p50
            );
        }
    }

    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(&args.out, &json).expect("write BENCH_kernels.json");
    let back = std::fs::read_to_string(&args.out).expect("re-read artifact");
    let parsed: Report = serde_json::from_str(&back).expect("artifact parses");
    assert_eq!(parsed.schema, "bench-kernels/v1");
    let rows = parsed.results.len();
    assert!(rows > 0, "artifact has no result cells");
    println!("BENCH_kernels.json OK ({rows} cells -> {})", args.out);
}
