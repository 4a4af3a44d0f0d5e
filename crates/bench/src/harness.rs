//! Shared machinery for the figure binaries.

use rt_comm::{replay, CostModel, Trace};
use rt_compress::CodecKind;
use rt_core::exec::ComposeConfig;
use rt_core::method::CompositionMethod;
use rt_core::schedule::verify_schedule;
use rt_core::theory::TheoryParams;
use rt_core::{ComposePlan, Run};
use rt_imaging::pixel::GrayAlpha8;
use rt_imaging::Image;
use rt_pvr::scene::prepare_scene_screen;
use rt_render::camera::Camera;
use rt_render::datasets::Dataset;
use rt_render::shearwarp::RenderOptions;
use std::io::{self, Write};

/// One `--flag` of a command line, handed to the closure of
/// [`parse_flags`], which pulls the flag's argument (if it takes one)
/// through [`Flag::value`], [`Flag::parse`] or [`Flag::list`] and sends a
/// name it does not know to [`Flag::unknown`].
pub struct Flag<'a, 'r> {
    /// The flag as written, dashes included (`"--frame"`).
    pub name: &'a str,
    rest: &'r mut std::slice::Iter<'a, String>,
    usage: &'r str,
}

impl Flag<'_, '_> {
    /// Reject the flag.
    ///
    /// # Panics
    /// Always, naming the flag and the binary's usage.
    pub fn unknown(&self) -> ! {
        panic!("unknown flag {}\n{}", self.name, self.usage)
    }

    /// The flag's argument.
    ///
    /// # Panics
    /// When the command line ends at the flag.
    pub fn value(&mut self) -> String {
        let name = self.name;
        self.rest
            .next()
            .unwrap_or_else(|| panic!("missing value for {name}"))
            .clone()
    }

    /// The flag's argument through its own `FromStr`.
    ///
    /// # Panics
    /// On a missing or unparsable argument, naming the flag.
    pub fn parse<T: std::str::FromStr>(&mut self) -> T
    where
        T::Err: std::fmt::Display,
    {
        let (name, text) = (self.name, self.value());
        text.parse()
            .unwrap_or_else(|e| panic!("bad {name} '{text}': {e}"))
    }

    /// The flag's comma-separated argument (`--p 8,32`,
    /// `--codecs raw,trle`), each element through its own `FromStr`.
    ///
    /// # Panics
    /// On a missing argument or an element that does not parse.
    pub fn list<T: std::str::FromStr>(&mut self) -> Vec<T>
    where
        T::Err: std::fmt::Display,
    {
        let name = self.name;
        self.value()
            .split(',')
            .map(|s| {
                s.trim()
                    .parse()
                    .unwrap_or_else(|e| panic!("bad {name} element '{s}': {e}"))
            })
            .collect()
    }
}

/// The one flag loop of every rt-bench binary: `set` is called once per
/// flag of `argv`. `--help`/`-h` prints `usage` and exits.
pub fn parse_flags(argv: &[String], usage: &str, mut set: impl FnMut(&mut Flag)) {
    let mut rest = argv.iter();
    while let Some(name) = rest.next() {
        if name == "--help" || name == "-h" {
            eprintln!("{usage}");
            std::process::exit(0);
        }
        set(&mut Flag {
            name,
            rest: &mut rest,
            usage,
        });
    }
}

/// This process's command line without the program name.
pub fn argv() -> Vec<String> {
    std::env::args().skip(1).collect()
}

/// The cost model a `--cost` value names.
///
/// # Panics
/// On anything but `paper` or `sp2`.
pub fn cost_by_name(name: &str) -> CostModel {
    match name {
        "paper" => CostModel::PAPER_EXAMPLE,
        "sp2" => CostModel::SP2,
        other => panic!("unknown cost model '{other}' (paper|sp2)"),
    }
}

/// Shared CLI arguments of the figure binaries.
#[derive(Debug, Clone)]
pub struct Args {
    /// Dataset to render (`--dataset engine|brain|head`).
    pub dataset: Dataset,
    /// Run all three paper datasets (`--all`).
    pub all: bool,
    /// Machine size (`--p`, default 32 as in the paper's figures).
    pub p: usize,
    /// Cubic volume resolution (`--volume`, default 128).
    pub volume: usize,
    /// Frame edge (`--frame`, default 512 as in the paper).
    pub frame: usize,
    /// Cost model (`--cost paper|sp2`, default paper).
    pub cost_name: String,
    /// Dataset seed (`--seed`).
    pub seed: u64,
}

impl Default for Args {
    fn default() -> Self {
        Self {
            dataset: Dataset::Engine,
            all: false,
            p: 32,
            volume: 128,
            frame: 512,
            cost_name: "paper".into(),
            seed: 2001,
        }
    }
}

impl Args {
    /// Parse the shared figure flags out of `argv`.
    pub fn parse(argv: &[String]) -> Self {
        let mut out = Self::default();
        parse_flags(
            argv,
            "flags: --dataset engine|brain|head|sphere  --all  --p N  \
             --volume N  --frame N  --cost paper|sp2  --seed N",
            |f| match f.name {
                "--dataset" => out.dataset = f.parse(),
                "--all" => out.all = true,
                "--p" => out.p = f.parse(),
                "--volume" => out.volume = f.parse(),
                "--frame" => out.frame = f.parse(),
                "--cost" => out.cost_name = f.value(),
                "--seed" => out.seed = f.parse(),
                _ => f.unknown(),
            },
        );
        out
    }

    /// The selected cost model.
    pub fn cost(&self) -> CostModel {
        cost_by_name(&self.cost_name)
    }

    /// Datasets to run: the chosen one, or all three paper datasets.
    pub fn datasets(&self) -> Vec<Dataset> {
        if self.all {
            Dataset::PAPER.to_vec()
        } else {
            vec![self.dataset]
        }
    }

    /// Theory parameters matching this scene configuration.
    pub fn theory(&self, cost: CostModel) -> TheoryParams {
        TheoryParams {
            p: self.p,
            a: (self.frame * self.frame) as f64,
            // The executable wire format is 2-byte gray+alpha pixels; the
            // paper's Table 1 uses 1 byte/pixel. Theory series use the
            // paper's convention so they reproduce its curves.
            bytes_per_pixel: 1.0,
            cost,
        }
    }
}

/// A dataset rendered once into depth-ordered 8-bit screen-space partials.
pub struct ScreenScene {
    /// Depth-ordered partials in the wire format (2-byte gray+alpha).
    pub partials: Vec<Image<GrayAlpha8>>,
    /// Sequential depth-ordered composite, for correctness checks.
    pub reference: Image<GrayAlpha8>,
    /// Dataset name.
    pub dataset: Dataset,
    /// Mean blank fraction across partials (codec-relevant sparsity).
    pub blank_fraction: f64,
}

impl ScreenScene {
    /// Render the scene: `p` slabs of `dataset` at `volume³` voxels, warped
    /// to a `frame×frame` screen. The camera is the fixed oblique view used
    /// for every figure (deterministic).
    pub fn prepare(args: &Args, dataset: Dataset) -> Self {
        let camera = Camera::yaw_pitch(0.35, 0.2);
        let opts = RenderOptions {
            width: args.frame,
            height: args.frame,
            early_termination: 1.0,
            parallel: false,
        };
        let scene = prepare_scene_screen(args.p, dataset, args.volume, args.seed, &camera, &opts)
            .expect("scene preparation failed");
        let partials: Vec<Image<GrayAlpha8>> = scene
            .partials
            .iter()
            .map(|img| img.map(|px| GrayAlpha8::from_f32(*px)))
            .collect();
        let reference = rt_imaging::image::reference_composite(&partials).expect("non-empty scene");
        let blank_fraction = {
            let total: f64 = partials
                .iter()
                .map(|img| 1.0 - img.count_non_blank() as f64 / img.len() as f64)
                .sum();
            total / partials.len() as f64
        };
        Self {
            partials,
            reference,
            dataset,
            blank_fraction,
        }
    }

    /// Number of ranks.
    pub fn p(&self) -> usize {
        self.partials.len()
    }

    /// Frame pixels (the composition's `A`).
    pub fn image_len(&self) -> usize {
        self.partials[0].len()
    }
}

/// One measured `(method, codec)` data point.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Method display name.
    pub method: String,
    /// Codec used.
    pub codec: CodecKind,
    /// Virtual composition time, excluding the gather (seconds).
    pub compose_time: f64,
    /// Virtual composition time including the gather (seconds).
    pub total_time: f64,
    /// Bytes shipped (post-codec), composition + gather.
    pub bytes: u64,
    /// Messages sent, composition + gather.
    pub messages: u64,
}

/// Execute one combination over the multicomputer, verify the frame against
/// the scene reference, and price the trace.
pub fn measure(
    scene: &ScreenScene,
    method: &dyn CompositionMethod,
    codec: CodecKind,
    cost: &CostModel,
) -> Measurement {
    let schedule = method
        .build(scene.p(), scene.image_len())
        .unwrap_or_else(|e| panic!("{}: {e}", method.name()));
    verify_schedule(&schedule).unwrap_or_else(|e| panic!("{}: {e}", method.name()));
    let config = ComposeConfig::default().with_codec(codec);
    let plan = ComposePlan::Schedule(schedule);
    let (results, trace) = Run::new(&plan, &config).execute(scene.partials.clone());
    let mut frame = None;
    for r in results {
        let out = r.unwrap_or_else(|e| panic!("{}: {e}", method.name()));
        if out.frame.is_some() {
            frame = out.frame;
        }
    }
    let frame = frame.expect("root produced a frame");
    // Fixed-point `over` loses up to ~1 ulp per merge level when the
    // association order differs from the sequential reference; allow one
    // ulp per tree level plus slack. Exact depth-order correctness is
    // proven separately by the Provenance-pixel tests.
    let tol = (rt_core::rotate::ceil_log2(scene.p()) as f64 + 3.0) / 255.0;
    assert!(
        frame.approx_eq(&scene.reference, tol),
        "{} with {codec:?} diverged from the sequential reference: {:?}",
        method.name(),
        frame.first_mismatch(&scene.reference, tol),
    );
    price(&trace, cost, method.name(), codec)
}

/// Price an existing trace (used when callers already ran the composition).
pub fn price(trace: &Trace, cost: &CostModel, method: String, codec: CodecKind) -> Measurement {
    let report = replay(trace, cost).expect("consistent trace");
    let compose_time = report
        .phase("compose:start", "compose:end")
        .expect("compose marks present");
    let total_time = report
        .phase("compose:start", "gather:end")
        .unwrap_or(compose_time);
    Measurement {
        method,
        codec,
        compose_time,
        total_time,
        bytes: trace.bytes_sent(),
        messages: trace.message_count(),
    }
}

/// Write a header plus aligned rows, and matching `csv,`-prefixed lines.
pub fn print_table(
    out: &mut dyn Write,
    title: &str,
    header: &[&str],
    rows: &[Vec<String>],
) -> io::Result<()> {
    writeln!(out, "\n== {title} ==")?;
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>width$}", c, width = widths[i]))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let header_cells: Vec<String> = header.iter().map(|s| s.to_string()).collect();
    writeln!(out, "{}", fmt_row(&header_cells))?;
    for row in rows {
        writeln!(out, "{}", fmt_row(row))?;
    }
    writeln!(out, "csv,{}", header.join(","))?;
    for row in rows {
        writeln!(out, "csv,{}", row.join(","))?;
    }
    Ok(())
}

/// Format seconds with 4 significant decimals.
pub fn secs(t: f64) -> String {
    format!("{t:.4}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use rt_core::RotateTiling;

    fn tiny_args() -> Args {
        Args {
            p: 4,
            volume: 16,
            frame: 48,
            ..Args::default()
        }
    }

    #[test]
    fn scene_prepares_and_measures() {
        let args = tiny_args();
        let scene = ScreenScene::prepare(&args, Dataset::Engine);
        assert_eq!(scene.p(), 4);
        assert_eq!(scene.image_len(), 48 * 48);
        assert!(scene.blank_fraction > 0.1);
        let m = measure(
            &scene,
            &RotateTiling::two_n(2),
            CodecKind::Raw,
            &CostModel::PAPER_EXAMPLE,
        );
        assert!(m.compose_time > 0.0);
        assert!(m.total_time >= m.compose_time);
        assert!(m.bytes > 0);
        assert!(m.messages > 0);
    }

    #[test]
    fn trle_reduces_measured_bytes() {
        let args = tiny_args();
        let scene = ScreenScene::prepare(&args, Dataset::Brain);
        let raw = measure(
            &scene,
            &RotateTiling::two_n(2),
            CodecKind::Raw,
            &CostModel::PAPER_EXAMPLE,
        );
        let trle = measure(
            &scene,
            &RotateTiling::two_n(2),
            CodecKind::Trle,
            &CostModel::PAPER_EXAMPLE,
        );
        assert!(trle.bytes < raw.bytes, "{} vs {}", trle.bytes, raw.bytes);
        assert!(trle.total_time < raw.total_time);
    }

    #[test]
    fn cost_parsing() {
        let mut args = tiny_args();
        assert_eq!(args.cost(), CostModel::PAPER_EXAMPLE);
        args.cost_name = "sp2".into();
        assert_eq!(args.cost(), CostModel::SP2);
    }
}
