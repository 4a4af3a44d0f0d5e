//! Display wall: composite a 4K virtual framebuffer straight onto the
//! ranks that drive the monitors.
//!
//! A tiled video wall has no single "root" machine with a 4K framebuffer:
//! each display node drives one monitor and only ever needs its own
//! sub-rectangle of the frame. This example runs the tile-ownership
//! composition (`Method::TileOwner`) over a 3840×2160 virtual framebuffer
//! and, instead of gathering at a root, lands each wall cell directly on
//! its display rank ([`DisplayWall`]) — the full 4K image never exists in
//! any one address space.
//!
//! Every cell is verified bit-for-bit against the sequential reference
//! composite before anything is reported, and a JSON summary of the cells
//! (rank, rectangle, payload statistics) is written for CI to archive.
//!
//! Run with: `cargo run --release --example displaywall`
//! Flags: `--transport tcp` (loopback sockets), `--smoke` (CI-sized
//! frame), `--out FILE` (cell summary JSON, default DISPLAYWALL_cells.json)

use rotate_tiling::compress::CodecKind;
use rotate_tiling::core::exec::{ComposeConfig, TransportKind};
use rotate_tiling::core::method::Method;
use rotate_tiling::core::{DisplayWall, Run};
use rotate_tiling::imaging::image::reference_composite;
use rotate_tiling::imaging::{GrayAlpha8, Image, Pixel};
use serde::{Serialize, Value};

fn obj(entries: Vec<(&str, Value)>) -> Value {
    Value::Object(entries.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

/// Adapter: the vendored `serde::Value` has no `Serialize` impl of its
/// own, so wrap it to reuse `serde_json`'s pretty writer.
struct Raw(Value);
impl Serialize for Raw {
    fn serialize(&self) -> Value {
        self.0.clone()
    }
}

fn main() {
    let mut transport = TransportKind::InProc;
    let mut frame: (usize, usize) = (3840, 2160); // 4K UHD virtual framebuffer
    let mut out = String::from("DISPLAYWALL_cells.json");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--transport" => {
                transport = match it.next().as_deref() {
                    Some("inproc") => TransportKind::InProc,
                    Some("tcp") => TransportKind::TcpLoopback,
                    other => panic!("--transport inproc|tcp, got {other:?}"),
                }
            }
            "--smoke" => frame = (1280, 720), // CI-sized, same structure
            "--out" => out = it.next().expect("missing value for --out"),
            "--help" | "-h" => {
                eprintln!("flags: --transport inproc|tcp  --smoke  --out FILE");
                return;
            }
            other => panic!("unknown flag {other}"),
        }
    }
    let (w, h) = frame;

    // 6 ranks: 2 render-only, 4 driving a 2×2 monitor wall. Each renderer
    // contributes a sparse horizontal band, as a slab-partitioned volume
    // would project.
    let p = 6;
    let wall = DisplayWall::new(2, 2).with_base(2);
    let partials: Vec<Image<GrayAlpha8>> = (0..p)
        .map(|r| {
            let (lo, hi) = (r * h / p, (r + 1) * h / p);
            Image::from_fn(w, h, |x, y| {
                if y >= lo && y < hi && (x / 24) % 3 != 2 {
                    GrayAlpha8::new((((x / 24) * 11 + r * 37) % 200) as u8, 220)
                } else {
                    GrayAlpha8::blank()
                }
            })
        })
        .collect();
    let reference = reference_composite(&partials).expect("non-empty input");

    let plan = Method::TileOwner {
        tiles_x: 16,
        tiles_y: 16,
    }
    .plan(p, w, h)
    .expect("tile grid fits the frame");
    plan.verify().expect("plan covers every pixel exactly once");
    let config = ComposeConfig::default()
        .with_codec(CodecKind::Trle)
        .with_transport(transport)
        .with_display_wall(wall);

    let t0 = std::time::Instant::now();
    let (results, trace) = Run::new(&plan, &config).execute(partials);
    let elapsed_ms = t0.elapsed().as_secs_f64() * 1e3;

    println!(
        "display wall: {w}x{h} virtual framebuffer, {} tiles, {} ranks, \
         {} display cells, transport {:?}",
        match &plan {
            rotate_tiling::core::ComposePlan::Tiles(t) => t.grid.tiles(),
            _ => unreachable!(),
        },
        p,
        wall.count(),
        transport,
    );

    // Collect and verify each wall cell against the reference composite.
    let mut cells = Vec::new();
    for (rank, r) in results.into_iter().enumerate() {
        let outp = r.unwrap_or_else(|e| panic!("rank {rank} failed: {e}"));
        let Some(cell) = outp.frame else { continue };
        let d = wall
            .display_of(rank)
            .expect("only display ranks hold a cell");
        let rect = wall.cell_rect(d, w, h);
        let (cw, ch) = (rect.x1 - rect.x0, rect.y1 - rect.y0);
        assert_eq!((cell.width(), cell.height()), (cw, ch));
        for y in 0..ch {
            for x in 0..cw {
                assert_eq!(
                    cell.pixels()[y * cw + x],
                    reference.pixels()[(rect.y0 + y) * w + rect.x0 + x],
                    "cell {d} diverges from the reference at local ({x},{y})"
                );
            }
        }
        let non_blank = cell.count_non_blank();
        println!(
            "  cell {d} on rank {rank}: [{},{})x[{},{}) {}x{} px, \
             {non_blank} non-blank — bit-exact",
            rect.x0, rect.x1, rect.y0, rect.y1, cw, ch
        );
        cells.push(obj(vec![
            ("cell", Value::U64(d as u64)),
            ("rank", Value::U64(rank as u64)),
            ("x0", Value::U64(rect.x0 as u64)),
            ("y0", Value::U64(rect.y0 as u64)),
            ("x1", Value::U64(rect.x1 as u64)),
            ("y1", Value::U64(rect.y1 as u64)),
            ("non_blank", Value::U64(non_blank as u64)),
        ]));
    }
    assert_eq!(cells.len(), wall.count(), "every display rank reports");

    let summary = obj(vec![
        ("schema", Value::Str("displaywall-cells/v1".into())),
        (
            "frame",
            Value::Array(vec![Value::U64(w as u64), Value::U64(h as u64)]),
        ),
        ("p", Value::U64(p as u64)),
        ("wall", Value::Array(vec![Value::U64(2), Value::U64(2)])),
        ("method", Value::Str(plan.method_name().into())),
        ("transport", Value::Str(format!("{transport:?}"))),
        ("bytes_sent", Value::U64(trace.bytes_sent())),
        ("messages", Value::U64(trace.message_count())),
        ("elapsed_ms", Value::F64(elapsed_ms)),
        ("cells", Value::Array(cells)),
    ]);
    std::fs::write(&out, serde_json::to_string_pretty(&Raw(summary)).unwrap())
        .unwrap_or_else(|e| panic!("write {out}: {e}"));
    println!(
        "all {} cells bit-exact against the sequential reference; \
         {} bytes shipped in {} messages ({elapsed_ms:.0} ms) -> {out}",
        wall.count(),
        trace.bytes_sent(),
        trace.message_count(),
    );
}
