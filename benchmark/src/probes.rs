//! Layer probes: one public function of one layer, timed single-threaded on
//! the workload's own inputs (or, for the transports, on fixed message
//! shapes). Iteration counts are constants so a probe does the same work on
//! every commit.

use crate::compose::compose_once;
use crate::stats::median;
use rt_comm::{replay, CostModel, FaultPlan, Multicomputer, Payload, RankCtx, Trace};
use rt_compress::{CodecKind, OverDir};
use rt_core::exec::{ComposeConfig, Machine, ScratchPool, TransportKind};
use rt_core::method::Method;
use rt_core::tile::ComposePlan;
use rt_imaging::image::reference_composite;
use rt_imaging::pixel::{pixels_to_bytes, GrayAlpha8};
use rt_imaging::{Image, KernelPath, Pixel};
use rt_net::TcpMulticomputer;
use std::hint::black_box;
use std::time::Instant;

/// Seconds `f` takes.
fn seconds<T>(f: impl FnOnce() -> T) -> f64 {
    let started = Instant::now();
    black_box(f());
    started.elapsed().as_secs_f64()
}

/// Median seconds of `reps` runs of `f`.
fn median_seconds<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    median(&(0..reps).map(|_| seconds(&mut f)).collect::<Vec<_>>())
}

// ---- rt-comm / rt-net: the same four probes on either transport ----------

/// Transport probe results.
pub struct TransportProbes {
    /// 64-byte round trip ÷ 2, µs.
    pub pingpong_us: f64,
    /// 1 MiB payloads, one way, MB/s.
    pub bandwidth_mb_s: f64,
    /// 3 ranks × 256 B → rank 0, messages per second.
    pub fanin_msgs_per_s: f64,
    /// `RankCtx::barrier` at P = 4, µs.
    pub barrier_us: f64,
}

fn machine(p: usize, transport: TransportKind) -> Machine {
    let config = ComposeConfig::default().with_transport(transport);
    Machine::build(p, &config, FaultPlan::none(), None)
}

/// Run `f` on `p` ranks of `transport` and return rank 0's result.
fn on_rank0(
    p: usize,
    transport: TransportKind,
    f: impl Fn(&mut RankCtx) -> f64 + Send + Sync,
) -> f64 {
    machine(p, transport).run(f).0[0]
}

/// The four message-shape probes on `transport`. TCP gets a quarter of the
/// iterations: a loopback round trip costs ~10× an in-process one.
pub fn transport_probes(transport: TransportKind) -> TransportProbes {
    let scale = match transport {
        TransportKind::InProc => 4,
        TransportKind::TcpLoopback => 1,
    };
    const COMM: &str = "a fault-free transport delivers";

    let round_trips = 1000 * scale;
    let pingpong_s = on_rank0(2, transport, |ctx| {
        let started = Instant::now();
        for i in 0..round_trips {
            if ctx.rank() == 0 {
                ctx.send(1, i, vec![0u8; 64]).expect(COMM);
                ctx.recv(1, i).expect(COMM);
            } else {
                let ball = ctx.recv(0, i).expect(COMM);
                ctx.send(0, i, ball).expect(COMM);
            }
            ctx.take_events();
        }
        started.elapsed().as_secs_f64()
    });

    const MIB: usize = 1 << 20;
    let payloads = 32u64;
    let bandwidth_s = on_rank0(2, transport, |ctx| {
        let block = Payload::from(vec![0xa5u8; MIB]);
        let started = Instant::now();
        if ctx.rank() == 0 {
            for i in 0..payloads {
                ctx.send(1, i, block.clone()).expect(COMM);
            }
            ctx.recv(1, payloads).expect(COMM);
        } else {
            for i in 0..payloads {
                black_box(ctx.recv(0, i).expect(COMM));
            }
            ctx.send(0, payloads, vec![1u8]).expect(COMM);
        }
        started.elapsed().as_secs_f64()
    });

    let per_sender = 500 * scale;
    let fanin_s = on_rank0(4, transport, |ctx| {
        ctx.barrier().expect(COMM);
        let started = Instant::now();
        for i in 0..per_sender {
            if ctx.rank() == 0 {
                for sender in 1..4 {
                    black_box(ctx.recv(sender, i).expect(COMM));
                }
            } else {
                ctx.send(0, i, vec![0u8; 256]).expect(COMM);
            }
            ctx.take_events();
        }
        started.elapsed().as_secs_f64()
    });

    let barriers = 500 * scale;
    let barrier_s = on_rank0(4, transport, |ctx| {
        let started = Instant::now();
        for _ in 0..barriers {
            ctx.barrier().expect(COMM);
        }
        started.elapsed().as_secs_f64()
    });

    TransportProbes {
        pingpong_us: pingpong_s / round_trips as f64 / 2.0 * 1e6,
        bandwidth_mb_s: (payloads as usize * MIB) as f64 / 1e6 / bandwidth_s,
        fanin_msgs_per_s: (3 * per_sender) as f64 / fanin_s,
        barrier_us: barrier_s / barriers as f64 * 1e6,
    }
}

/// `Multicomputer::new(4).run(|_| ())`, µs: what a one-machine-per-frame
/// pipeline pays every frame before any work.
pub fn machine_spawn_us() -> f64 {
    median_seconds(200, || Multicomputer::new(4).run(|_| ())) * 1e6
}

/// `TcpMulticomputer::new(4)` build plus an empty run, ms: dialing the mesh.
pub fn mesh_setup_ms() -> f64 {
    median_seconds(10, || TcpMulticomputer::new(4).run(|_| ())) * 1e3
}

/// `replay(trace, SP2)` of one frame, µs: what the stream emitter pays per
/// frame to price it.
pub fn replay_us(trace: &Trace) -> f64 {
    median_seconds(50, || replay(trace, &CostModel::SP2)) * 1e6
}

// ---- rt-imaging -------------------------------------------------------------

/// `Pixel::over_front_bytes` of partial 0 over partial 1, full frame, Mpx/s:
/// the fused kernel every executor's receive path drives.
pub fn over_mpx_s(partials: &[Image<GrayAlpha8>]) -> f64 {
    const REPS: usize = 30;
    let front = pixels_to_bytes(partials[0].pixels());
    let mut dst = partials[1].pixels().to_vec();
    // The kernel's work depends on the front pixels only (blank skip, opaque
    // replace), so merging into the same destination again repeats it.
    let elapsed = seconds(|| {
        for _ in 0..REPS {
            black_box(GrayAlpha8::over_front_bytes(
                black_box(&mut dst),
                black_box(&front),
            ))
            .expect("equal-shaped partials merge");
        }
    });
    (REPS * dst.len()) as f64 / 1e6 / elapsed
}

/// `reference_composite` of the partials, ms: the plain single-threaded
/// baseline every parallel method is a speed-up over.
pub fn reference_ms<Px: Pixel>(partials: &[Image<Px>]) -> f64 {
    median_seconds(5, || reference_composite(partials)) * 1e3
}

// ---- rt-compress ------------------------------------------------------------

/// Codec probe results.
pub struct CodecProbes {
    /// `encode_with` over every partial, raw MB per second.
    pub encode_mb_s: f64,
    /// `decode_over_with` of every encoded partial, raw MB per second.
    pub decode_over_mb_s: f64,
    /// Raw ÷ encoded bytes over all partials.
    pub ratio: f64,
}

/// Encode and decode-over each partial once per repetition with `kind`.
pub fn codec_probes<Px: Pixel>(kind: CodecKind, partials: &[Image<Px>]) -> CodecProbes {
    const REPS: usize = 5;
    let codec = kind.build::<Px>();
    let kernel = KernelPath::default();
    let raw_mb = partials.iter().map(|p| p.len() * Px::BYTES).sum::<usize>() as f64 / 1e6;
    let encoded: Vec<_> = partials
        .iter()
        .map(|p| codec.encode_with(p.pixels(), kernel))
        .collect();
    let encode_s = median_seconds(REPS, || {
        for partial in partials {
            black_box(codec.encode_with(black_box(partial.pixels()), kernel));
        }
    });
    let mut dst = vec![Px::blank(); partials[0].len()];
    let decode_s = median_seconds(REPS, || {
        for enc in &encoded {
            codec
                .decode_over_with(black_box(&enc.bytes), &mut dst, OverDir::Front, kernel)
                .expect("a codec decodes what it encoded");
        }
    });
    let encoded_mb = encoded.iter().map(|e| e.bytes.len()).sum::<usize>() as f64 / 1e6;
    CodecProbes {
        encode_mb_s: raw_mb / encode_s,
        decode_over_mb_s: raw_mb / decode_s,
        ratio: raw_mb / encoded_mb,
    }
}

// ---- rt-core ----------------------------------------------------------------

/// `Method::plan` + `verify`, µs.
pub fn plan_us(method: Method, p: usize, width: usize, height: usize) -> f64 {
    median_seconds(20, || {
        let plan = method.plan(p, width, height).expect("supported shape");
        plan.verify().expect("a compiled plan verifies");
        plan
    }) * 1e6
}

/// One-shot `run_plan_composition_pooled` over a fresh in-process machine,
/// ms. The partials are cloned outside the timed call.
pub fn compose_ms<Px: Pixel>(plan: &ComposePlan, partials: &[Image<Px>], codec: CodecKind) -> f64 {
    let config = ComposeConfig::default().with_codec(codec);
    let pool = ScratchPool::new();
    let samples: Vec<f64> = (0..7)
        .map(|_| {
            let owned = partials.to_vec();
            seconds(|| compose_once(plan, owned, &config, &pool).expect("fault-free compose"))
        })
        .collect();
    median(&samples) * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::content::{dense_partials, RT_2N};

    #[test]
    fn probes_return_finite_positive_numbers() {
        let partials = dense_partials(4, 32, 32, 9);
        assert!(over_mpx_s(&partials) > 0.0);
        assert!(reference_ms(&partials) > 0.0);
        let raw = codec_probes(CodecKind::Raw, &partials);
        assert_eq!(raw.ratio, 1.0);
        let trle = codec_probes(CodecKind::Trle, &partials);
        assert!(trle.encode_mb_s > 0.0 && trle.decode_over_mb_s > 0.0);
        assert!(plan_us(RT_2N, 4, 32, 32) > 0.0);
        let plan = RT_2N.plan(4, 32, 32).unwrap();
        assert!(compose_ms(&plan, &partials, CodecKind::Raw) > 0.0);
        assert!(machine_spawn_us() > 0.0);
    }
}
