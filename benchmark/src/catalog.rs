//! The benchmark's names: six workloads, the end-to-end metrics with their
//! bounds, and the per-layer metrics. `BENCHMARK.json` at the repo root is
//! this catalog rendered by the `manifest` subcommand; a unit test keeps the
//! two equal.

use crate::compose::ComposeSpec;
use crate::content::{Content, RT_2N, RT_N, TILES};
use crate::json::obj;
use rt_compress::CodecKind;
use rt_core::exec::TransportKind;
use serde::Value;

/// What a workload runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    /// Compose-only frames on one held machine.
    Compose(ComposeSpec),
    /// `render_frame_pooled`, one machine per frame.
    PipelineSerial,
    /// `StreamSession::open().stream_orbit(..)`, window 2.
    PipelineStream,
}

/// A named workload and why it exists.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    /// Name on the command line and in every result.
    pub name: &'static str,
    /// One line: which layers it stresses and which change shows on it.
    pub why: &'static str,
    /// What runs.
    pub kind: Kind,
}

const fn compose(
    content: Content,
    method: rt_core::method::Method,
    codec: CodecKind,
    transport: TransportKind,
) -> Kind {
    Kind::Compose(ComposeSpec {
        content,
        method,
        codec,
        transport,
    })
}

/// The six workloads. Each is closed-loop with one client: the next frame
/// starts when the previous one is delivered.
pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "compose_dense_raw",
        why: "dense 2N_RT(4) raw in-proc: over kernels and payload movement do all the work, codec and render none",
        kind: compose(Content::Dense, RT_2N, CodecKind::Raw, TransportKind::InProc),
    },
    Workload {
        name: "compose_sparse_trle",
        why: "sparse N_RT(3) TRLE in-proc: encode/decode_over dominate and over skips blanks, the opposite of dense_raw",
        kind: compose(Content::Sparse, RT_N, CodecKind::Trle, TransportKind::InProc),
    },
    Workload {
        name: "compose_tiles_tcp",
        why: "sparse TileOwner 16x16 raw over loopback TCP: ~140 small messages per frame, framing, ACKs and syscalls dominate",
        kind: compose(Content::Sparse, TILES, CodecKind::Raw, TransportKind::TcpLoopback),
    },
    Workload {
        name: "compose_dense_raw_tcp",
        why: "dense_raw over loopback TCP: few large frames, uses rt-net the opposite way to compose_tiles_tcp",
        kind: compose(Content::Dense, RT_2N, CodecKind::Raw, TransportKind::TcpLoopback),
    },
    Workload {
        name: "pipeline_serial",
        why: "render_frame_pooled over a quarter orbit, one machine per frame: single-frame latency, rt-render is most of it",
        kind: Kind::PipelineSerial,
    },
    Workload {
        name: "pipeline_stream",
        why: "the same orbit through StreamSession, window 2: throughput with render-ahead overlap, against pipeline_serial",
        kind: Kind::PipelineStream,
    },
];

/// The workload called `name`.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    /// By which share of `old` the value `new` is worse (negative: better).
    pub fn worsening(self, old: f64, new: f64) -> f64 {
        match self {
            Better::Lower => (new - old) / old,
            Better::Higher => (old - new) / old,
        }
    }
}

/// A metric's declaration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// Name, `[A-Za-z0-9_.-]+`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Higher,
    }
}

/// Share of the parent's median by which a timing end-to-end metric may
/// worsen before it counts as a regression: the most the benchmark contract
/// allows. The contract refuses a bound narrower than the spread (quartile
/// to quartile ÷ median) of ten runs of one commit and asks for three
/// spreads; on the two-core sandbox that spread is 2–6 % (13 % for one
/// workload) even at quiet-box speed, so the 10 % the defining issue asked
/// for cannot hold (see the README).
pub const TIME_BOUND: f64 = 0.25;
/// The same for `peak_rss_mb`, which spreads by up to 6 % (the TCP
/// workloads' sent-frame logs fill at the speed the frames are sent).
pub const RSS_BOUND: f64 = 0.20;

/// End-to-end metrics, each with its bound. All are wall-clock (or memory)
/// measurements that are never zero and differ run to run; the exact,
/// deterministic per-frame numbers (`wire_bytes_per_frame`,
/// `virtual_compose_ms`, `failed_frame_share`) live in [`PER_LAYER`], where a
/// value that repeats bit for bit is expected rather than suspect.
pub const END_TO_END: [(Metric, f64); 5] = [
    (lower("setup_s", "s"), TIME_BOUND),
    (lower("frame_ms_p50", "ms"), TIME_BOUND),
    (higher("frames_per_s", "1/s"), TIME_BOUND),
    (lower("cpu_ms_per_frame", "ms"), TIME_BOUND),
    (lower("peak_rss_mb", "MB"), RSS_BOUND),
];

/// Per-layer metrics, measured by the traced run. A value of 0 on a workload
/// means the layer is not on that workload's path.
pub const PER_LAYER: [Metric; 56] = [
    // Exact per-frame numbers of the whole frame.
    lower("wire_bytes_per_frame", "B"),
    lower("virtual_compose_ms", "ms"),
    lower("failed_frame_share", "ratio"),
    higher("frames_timed", "count"),
    // rt-render
    lower("render.generate_ms", "ms"),
    lower("render.partition_ms", "ms"),
    lower("render.slab_ms", "ms"),
    lower("render.slab_imbalance", "ratio"),
    lower("render.warp_ms", "ms"),
    // rt-imaging
    higher("imaging.over_dense_mpx_s", "Mpx/s"),
    higher("imaging.over_sparse_mpx_s", "Mpx/s"),
    lower("imaging.reference_ms", "ms"),
    higher("imaging.blank_fraction", "ratio"),
    // rt-compress
    higher("compress.encode_mb_s", "MB/s"),
    higher("compress.decode_over_mb_s", "MB/s"),
    higher("compress.ratio", "ratio"),
    // rt-core
    lower("core.plan_us", "us"),
    lower("core.compose_ms", "ms"),
    lower("core.frame_ms_p95", "ms"),
    lower("core.rank_busy_imbalance", "ratio"),
    lower("core.messages_per_frame", "count"),
    lower("core.max_sends_per_rank", "count"),
    lower("core.over_pixels_per_frame", "count"),
    lower("core.virtual_wait_share", "ratio"),
    lower("core.virtual_compose_ms_p32", "ms"),
    lower("core.allocs_per_frame", "count"),
    lower("core.pool_fresh_checkouts", "count"),
    lower("core.phase.encode_ms", "ms"),
    lower("core.phase.send_ms", "ms"),
    lower("core.phase.wait_ms", "ms"),
    lower("core.phase.decode_ms", "ms"),
    lower("core.phase.over_ms", "ms"),
    lower("core.phase.flush_ms", "ms"),
    higher("core.phase.coverage", "ratio"),
    // rt-comm
    lower("comm.pingpong_us", "us"),
    higher("comm.bandwidth_mb_s", "MB/s"),
    higher("comm.fanin_msgs_per_s", "1/s"),
    lower("comm.barrier_us", "us"),
    lower("comm.machine_spawn_us", "us"),
    lower("comm.replay_us", "us"),
    // rt-net
    lower("net.pingpong_us", "us"),
    higher("net.bandwidth_mb_s", "MB/s"),
    higher("net.fanin_msgs_per_s", "1/s"),
    lower("net.barrier_us", "us"),
    lower("net.mesh_setup_ms", "ms"),
    lower("net.frame_ms_p95", "ms"),
    lower("net.sys_cpu_share", "ratio"),
    // rt-pvr
    lower("pvr.frame_ms_p95", "ms"),
    lower("pvr.permute_us", "us"),
    lower("pvr.glue_ms", "ms"),
    lower("pvr.first_frame_ms", "ms"),
    higher("pvr.stream_speedup", "ratio"),
    // rt-obs
    lower("obs.overhead_ratio", "ratio"),
    lower("obs.spans_per_frame", "count"),
    // Which percentile the three `*.frame_ms_p95` entries could support.
    higher("tail_percentile", "%"),
    // How much slower than quiet the box ran during the untraced window.
    lower("host.slowdown", "ratio"),
];

/// Per-layer metrics whose value must repeat bit for bit between two runs
/// of one commit with one seed (`compare` checks them so).
pub const EXACT: [&str; 10] = [
    "wire_bytes_per_frame",
    "virtual_compose_ms",
    "failed_frame_share",
    "imaging.blank_fraction",
    "compress.ratio",
    "core.messages_per_frame",
    "core.max_sends_per_rank",
    "core.over_pixels_per_frame",
    "core.virtual_wait_share",
    "core.virtual_compose_ms_p32",
];

/// How long one run measures under the `BENCHMARK.json` contract, seconds.
pub const RUN_SECONDS: u64 = 10;

/// `BENCHMARK.json`, rendered from the tables above.
pub fn manifest() -> Value {
    let s = |text: &str| Value::Str(text.to_string());
    let metric = |m: &Metric, bound: Option<f64>| {
        let mut entries = vec![
            ("name", s(m.name)),
            ("unit", s(m.unit)),
            ("better", s(m.better.word())),
        ];
        if let Some(bound) = bound {
            entries.push(("bound", Value::F64(bound)));
        }
        obj(entries)
    };
    let command = [
        "cargo",
        "run",
        "--release",
        "--quiet",
        "--offline",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ];
    obj(vec![
        (
            "command",
            Value::Array(command.iter().map(|c| s(c)).collect()),
        ),
        ("paths", Value::Array(vec![s("benchmark")])),
        ("run_seconds", Value::U64(RUN_SECONDS)),
        (
            "workloads",
            Value::Array(
                WORKLOADS
                    .iter()
                    .map(|w| obj(vec![("name", s(w.name)), ("why", s(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Array(
                END_TO_END
                    .iter()
                    .map(|(m, bound)| metric(m, Some(*bound)))
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Value::Array(PER_LAYER.iter().map(|m| metric(m, None)).collect()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_are_well_formed_and_used_once() {
        let mut seen = BTreeSet::new();
        let metrics = END_TO_END.iter().map(|(m, _)| m).chain(PER_LAYER.iter());
        for name in WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(metrics.clone().map(|m| m.name))
        {
            assert!(well_formed(name), "{name}");
            assert!(seen.insert(name), "{name} is used twice");
        }
        for m in metrics {
            assert!(!m.unit.is_empty() && m.unit.len() <= 16, "{}", m.unit);
            assert!(
                m.unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{}",
                m.unit
            );
        }
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
    }

    #[test]
    fn bounds_fit_the_contract_and_setup_is_declared() {
        for (m, bound) in &END_TO_END {
            assert!(*bound > 0.0 && *bound <= 0.25, "{}", m.name);
        }
        let (setup, bound) = &END_TO_END[0];
        assert_eq!((setup.name, setup.unit), ("setup_s", "s"));
        assert_eq!(setup.better, Better::Lower);
        assert!(END_TO_END.iter().all(|(_, b)| b <= bound));
    }

    #[test]
    fn every_exact_metric_is_declared() {
        for name in EXACT {
            assert!(PER_LAYER.iter().any(|m| m.name == name), "{name}");
        }
    }

    #[test]
    fn benchmark_json_is_this_catalog() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let on_disk = serde_json::parse_value_str(&text).expect("BENCHMARK.json parses");
        // Not `assert_eq!`: its message would print both documents whole.
        assert!(
            on_disk == manifest(),
            "BENCHMARK.json is stale: regenerate it with `rt-benchmark manifest > BENCHMARK.json`"
        );
    }

    #[test]
    fn worsening_is_signed_by_direction() {
        assert!((Better::Lower.worsening(10.0, 11.0) - 0.1).abs() < 1e-12);
        assert!((Better::Higher.worsening(10.0, 9.0) - 0.1).abs() < 1e-12);
        assert!(Better::Lower.worsening(10.0, 9.0) < 0.0);
    }
}
