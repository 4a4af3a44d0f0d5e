//! Shared plumbing for multi-process TCP composition cells: the job
//! description a launcher (`tests/tcp_reconcile.rs`) hands each `netrank`
//! worker process, the per-rank result blob the worker reports back, and
//! the synthetic workload both sides (and the in-process reference run)
//! must agree on.
//!
//! The launcher and workers are separate OS processes of the *same* build,
//! so everything they must agree on — method lineup, frame hashing, and
//! through [`rt_imaging::synth::band_partials`] and [`CodecKind`]'s own
//! name/`FromStr` the partial-image content and codec labels — has one
//! home instead of a copy per binary.

use rt_comm::RankTrace;
use rt_compress::CodecKind;
use rt_core::method::Method;
use rt_imaging::pixel::GrayAlpha8;
use rt_imaging::Image;
use serde::{Deserialize, Serialize};

/// One composition cell, as the launcher encodes it onto a `netrank`
/// command line and the worker decodes it back.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NetJob {
    /// Index into [`Method::bench_lineup`] (indices are stable across
    /// processes of one build — both sides call the same function).
    pub method_index: usize,
    /// Message codec for every transfer and the gather.
    pub codec: CodecKind,
    /// Square frame edge in pixels.
    pub frame: usize,
}

impl NetJob {
    /// The method this job runs.
    ///
    /// # Panics
    /// Panics if `method_index` is out of range for the lineup.
    pub fn method(&self) -> Method {
        let lineup = Method::bench_lineup();
        *lineup.get(self.method_index).unwrap_or_else(|| {
            panic!(
                "method index {} outside the bench lineup of {}",
                self.method_index,
                lineup.len()
            )
        })
    }

    /// Encode as `netrank` command-line arguments.
    pub fn to_args(&self) -> Vec<String> {
        vec![
            "--method-index".into(),
            self.method_index.to_string(),
            "--codec".into(),
            self.codec.name().into(),
            "--frame".into(),
            self.frame.to_string(),
        ]
    }
}

/// What one worker rank reports back over the rendezvous control stream
/// (JSON-encoded).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WorkerResult {
    /// The reporting rank.
    pub rank: usize,
    /// Its event trace — the launcher reassembles the full
    /// [`rt_comm::Trace`] from these and reconciles it against an
    /// in-process run of the same cell.
    pub trace: RankTrace,
    /// FNV-1a hash of the root's assembled frame (`None` off-root).
    pub frame_hash: Option<u64>,
}

/// FNV-1a over a frame's pixels, for cheap cross-process frame-equality
/// checks (the in-process determinism tests compare full pixel buffers;
/// across processes a fingerprint is enough).
pub fn frame_hash(frame: &Image<GrayAlpha8>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |b: u8| {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    };
    for px in frame.pixels() {
        eat(px.v);
        eat(px.a);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use rt_imaging::synth::band_partials;

    #[test]
    fn job_args_round_trip_the_codec_vocabulary() {
        for codec in [CodecKind::Raw, CodecKind::Rle, CodecKind::Trle] {
            let job = NetJob {
                method_index: 0,
                codec,
                frame: 64,
            };
            let args = job.to_args();
            let at = args.iter().position(|a| a == "--codec").unwrap();
            assert_eq!(args[at + 1].parse::<CodecKind>(), Ok(codec));
        }
    }

    #[test]
    fn frame_hash_distinguishes_frames() {
        let a = band_partials(2, 16, 16);
        assert_ne!(frame_hash(&a[0]), frame_hash(&a[1]));
        assert_eq!(frame_hash(&a[0]), frame_hash(&a[0].clone()));
    }

    #[test]
    fn worker_result_serializes() {
        let r = WorkerResult {
            rank: 3,
            trace: Vec::new(),
            frame_hash: Some(7),
        };
        let json = serde_json::to_string(&r).unwrap();
        let back: WorkerResult = serde_json::from_str(&json).unwrap();
        assert_eq!(back.rank, 3);
        assert_eq!(back.frame_hash, Some(7));
    }
}
