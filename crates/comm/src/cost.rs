//! The paper's communication/computation cost model.
//!
//! Section 2.3 parameterizes every composition method by four constants,
//! which we bundle into [`CostModel`]:
//!
//! * `Ts` — startup time of a communication channel (per message);
//! * `Tp` — data transmission time per **byte**;
//! * `To` — computation time of the "over" operation per **pixel**;
//!
//! plus one constant the paper mentions qualitatively ("data compression
//! requires extra computation") that we make explicit:
//!
//! * `Tc` — codec time per **byte** touched by a compression method
//!   (charged once on encode and once on decode).
//!
//! The defaults are the constants of the paper's running example
//! (`P = 32, Ts = 0.005, Tp = 0.00004, To = 0.0002`), which it uses to
//! evaluate the optimal-block-count bounds of Equations (5) and (6).

use serde::{Deserialize, Serialize};

/// What a recorded compute interval was doing, so replay can charge the
/// matching per-unit constant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ComputeKind {
    /// `units` = pixels combined with the "over" operator (charged `To`).
    Over,
    /// `units` = bytes run through a codec encoder (charged `Tc`).
    Encode,
    /// `units` = bytes run through a codec decoder (charged `Tc`).
    Decode,
    /// `units` = abstract work units for the rendering stage, charged
    /// `render_unit` (kept separate so composition-only analyses can
    /// exclude rendering).
    Render,
}

/// The four timing constants of the paper's analysis (plus codec cost).
///
/// Times are in seconds; sizes in bytes; composition work in pixels.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CostModel {
    /// `Ts`: startup (latency) per message, seconds.
    pub ts: f64,
    /// `Tp`: transmission time per byte, seconds.
    pub tp: f64,
    /// `To`: "over" time per pixel, seconds.
    pub to: f64,
    /// `Tc`: codec time per byte (encode and decode each), seconds.
    pub tc: f64,
    /// Receive overhead per message (LogGP's receiver `o`), seconds.
    /// Zero in both presets — the paper's model charges each transfer once,
    /// on the sender — and available for overhead-sensitivity ablations.
    pub tr: f64,
    /// Acknowledgement timeout for the reliable-delivery layer, seconds.
    /// A lost or corrupted transfer costs the sender
    /// `ack_timeout · 2^attempt` of backoff before each retransmission
    /// (charged by replay against `Event::AckWait`). Defaults to `2·Ts`,
    /// a round-trip of startup latency.
    pub ack_timeout: f64,
    /// Cost per abstract render unit, seconds (0 ⇒ rendering not modeled).
    pub render_unit: f64,
}

impl CostModel {
    /// The constants of the paper's Section 2.3 running example.
    /// `Tc` defaults two orders of magnitude below `Tp`: the paper-example
    /// network moves 25 KB/s while a byte-pass codec on the same CPU runs
    /// orders of magnitude faster, and the paper stresses that TRLE's bit
    /// operations are cheap.
    pub const PAPER_EXAMPLE: CostModel = CostModel {
        ts: 0.005,
        tp: 0.000_04,
        to: 0.000_2,
        tc: 0.000_000_4,
        tr: 0.0,
        ack_timeout: 0.01,
        render_unit: 0.0,
    };

    /// Hardware-plausible constants for the paper's platform: IBM SP2 with
    /// the High Performance Switch (≈40 µs MPI latency, ≈35 MB/s sustained
    /// bandwidth) and a 66.7 MHz POWER2 doing a few tens of cycles per
    /// "over" (≈0.3 µs/pixel). The paper's example constants above imply a
    /// network ~3 orders of magnitude slower; figures are reported under
    /// both models (see EXPERIMENTS.md).
    pub const SP2: CostModel = CostModel {
        ts: 0.000_04,
        tp: 0.000_000_029,
        to: 0.000_000_3,
        tc: 0.000_000_005,
        tr: 0.0,
        ack_timeout: 0.000_08,
        render_unit: 0.0,
    };

    /// Construct with explicit `Ts`, `Tp`, `To` and zero codec/render cost.
    pub fn new(ts: f64, tp: f64, to: f64) -> Self {
        Self {
            ts,
            tp,
            to,
            tc: 0.0,
            tr: 0.0,
            ack_timeout: 2.0 * ts,
            render_unit: 0.0,
        }
    }

    /// Builder-style override of the codec cost.
    pub fn with_tc(mut self, tc: f64) -> Self {
        self.tc = tc;
        self
    }

    /// Builder-style override of the per-message receive overhead.
    pub fn with_tr(mut self, tr: f64) -> Self {
        self.tr = tr;
        self
    }

    /// Backoff charged before retransmission attempt `attempt + 1`:
    /// `ack_timeout · 2^attempt`.
    #[inline]
    pub fn backoff_time(&self, attempt: u32) -> f64 {
        self.ack_timeout * (1u64 << attempt.min(62)) as f64
    }

    /// Builder-style override of the render-unit cost.
    pub fn with_render_unit(mut self, render_unit: f64) -> Self {
        self.render_unit = render_unit;
        self
    }

    /// Time to push one `bytes`-sized message into the network.
    #[inline]
    pub fn message_time(&self, bytes: u64) -> f64 {
        self.ts + bytes as f64 * self.tp
    }

    /// Time charged for a compute interval of `units` of the given kind.
    #[inline]
    pub fn compute_time(&self, kind: ComputeKind, units: u64) -> f64 {
        let rate = match kind {
            ComputeKind::Over => self.to,
            ComputeKind::Encode | ComputeKind::Decode => self.tc,
            ComputeKind::Render => self.render_unit,
        };
        rate * units as f64
    }
}

impl Default for CostModel {
    fn default() -> Self {
        Self::PAPER_EXAMPLE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_example_constants() {
        let c = CostModel::default();
        assert_eq!(c.ts, 0.005);
        assert_eq!(c.tp, 0.000_04);
        assert_eq!(c.to, 0.000_2);
    }

    #[test]
    fn message_time_is_affine_in_bytes() {
        let c = CostModel::new(1.0, 0.5, 0.0);
        assert_eq!(c.message_time(0), 1.0);
        assert_eq!(c.message_time(10), 6.0);
    }

    #[test]
    fn compute_time_dispatches_on_kind() {
        let c = CostModel::new(0.0, 0.0, 2.0)
            .with_tc(3.0)
            .with_render_unit(5.0);
        assert_eq!(c.compute_time(ComputeKind::Over, 4), 8.0);
        assert_eq!(c.compute_time(ComputeKind::Encode, 4), 12.0);
        assert_eq!(c.compute_time(ComputeKind::Decode, 2), 6.0);
        assert_eq!(c.compute_time(ComputeKind::Render, 2), 10.0);
    }

    #[test]
    fn serde_roundtrip() {
        let c = CostModel::PAPER_EXAMPLE;
        let json = serde_json::to_string(&c).unwrap();
        let back: CostModel = serde_json::from_str(&json).unwrap();
        assert_eq!(c, back);
    }
}
