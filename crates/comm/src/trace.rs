//! Event traces recorded by the execution layer and consumed by replay.
//!
//! Each rank records its own totally-ordered event list; cross-rank ordering
//! is reconstructed by replay from per-channel sequence numbers, so the trace
//! is deterministic even though the threaded execution is not.

use crate::cost::ComputeKind;
use crate::mark::Mark;
use serde::{Deserialize, Serialize};

/// One event in a rank's local history.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Event {
    /// A message was pushed to `to` with `seq` being the per-`(self → to)`
    /// channel sequence number.
    Send {
        /// Destination rank.
        to: usize,
        /// Message tag (algorithm-defined).
        tag: u64,
        /// Payload size in bytes as shipped (post-compression).
        bytes: u64,
        /// Per-directed-channel FIFO sequence number.
        seq: u64,
    },
    /// A retransmission of `(to, seq)` after earlier attempts were lost or
    /// corrupted. Priced exactly like a fresh [`Event::Send`]; the last
    /// attempt is the one the receiver's [`Event::Recv`] matches.
    Retransmit {
        /// Destination rank.
        to: usize,
        /// Message tag (algorithm-defined).
        tag: u64,
        /// Payload size in bytes as shipped.
        bytes: u64,
        /// Per-directed-channel FIFO sequence number (same as the original).
        seq: u64,
        /// Attempt index (1 for the first retransmission).
        attempt: u32,
    },
    /// The sender waited one acknowledgement-timeout window before
    /// retransmitting `(to, seq)`. Replay charges
    /// `ack_timeout · 2^attempt` (exponential backoff).
    AckWait {
        /// Destination rank of the pending message.
        to: usize,
        /// Per-directed-channel sequence number of the pending message.
        seq: u64,
        /// The attempt that timed out (0 for the original send).
        attempt: u32,
    },
    /// A message was consumed from `from` (matching the sender's `seq`).
    Recv {
        /// Source rank.
        from: usize,
        /// Message tag.
        tag: u64,
        /// Payload size in bytes as shipped.
        bytes: u64,
        /// Sender's per-channel sequence number, used to match the `Send`.
        seq: u64,
    },
    /// Local computation of `units` work of the given kind.
    Compute {
        /// What the work was (selects the cost constant).
        kind: ComputeKind,
        /// Pixels for `Over`, bytes for codecs, abstract units for `Render`.
        units: u64,
    },
    /// All ranks synchronized (barrier generation `generation`).
    Barrier {
        /// Barrier counter, identical across ranks for matching entries.
        generation: u64,
    },
    /// A named phase boundary (e.g. `compose:start`).
    Mark {
        /// The phase boundary, serialised as its label.
        label: Mark,
    },
}

/// The totally ordered event history of one rank.
pub type RankTrace = Vec<Event>;

/// A complete run: one history per rank, indexed by rank.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Trace {
    /// Per-rank event histories (`ranks.len()` = machine size).
    pub ranks: Vec<RankTrace>,
}

impl Trace {
    /// Machine size of the traced run.
    pub fn size(&self) -> usize {
        self.ranks.len()
    }

    /// Total number of messages sent in the run.
    pub fn message_count(&self) -> u64 {
        self.ranks
            .iter()
            .flatten()
            .filter(|e| matches!(e, Event::Send { .. }))
            .count() as u64
    }

    /// Total number of retransmissions across the run.
    pub fn retransmit_count(&self) -> u64 {
        self.ranks
            .iter()
            .flatten()
            .filter(|e| matches!(e, Event::Retransmit { .. }))
            .count() as u64
    }

    /// Total bytes shipped across all messages (including retransmissions).
    pub fn bytes_sent(&self) -> u64 {
        self.ranks
            .iter()
            .flatten()
            .map(|e| match e {
                Event::Send { bytes, .. } | Event::Retransmit { bytes, .. } => *bytes,
                _ => 0,
            })
            .sum()
    }

    /// Total `Over` work in pixels across all ranks.
    pub fn over_pixels(&self) -> u64 {
        self.ranks
            .iter()
            .flatten()
            .map(|e| match e {
                Event::Compute {
                    kind: ComputeKind::Over,
                    units,
                } => *units,
                _ => 0,
            })
            .sum()
    }

    /// Largest number of messages sent by any single rank.
    pub fn max_sends_per_rank(&self) -> u64 {
        self.ranks
            .iter()
            .map(|events| {
                events
                    .iter()
                    .filter(|e| matches!(e, Event::Send { .. }))
                    .count() as u64
            })
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Trace {
        Trace {
            ranks: vec![
                vec![
                    Event::Send {
                        to: 1,
                        tag: 7,
                        bytes: 100,
                        seq: 0,
                    },
                    Event::Compute {
                        kind: ComputeKind::Over,
                        units: 50,
                    },
                ],
                vec![
                    Event::Recv {
                        from: 0,
                        tag: 7,
                        bytes: 100,
                        seq: 0,
                    },
                    Event::Send {
                        to: 0,
                        tag: 8,
                        bytes: 25,
                        seq: 0,
                    },
                ],
            ],
        }
    }

    #[test]
    fn aggregates() {
        let t = sample();
        assert_eq!(t.size(), 2);
        assert_eq!(t.message_count(), 2);
        assert_eq!(t.bytes_sent(), 125);
        assert_eq!(t.over_pixels(), 50);
        assert_eq!(t.max_sends_per_rank(), 1);
    }

    #[test]
    fn serde_roundtrip() {
        let t = sample();
        let json = serde_json::to_string(&t).unwrap();
        let back: Trace = serde_json::from_str(&json).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn a_mark_serialises_as_its_label() {
        let json = r#"{"ranks":[[{"Mark":{"label":"step:3"}},{"Mark":{"label":"frame:2:end"}}]]}"#;
        let t = Trace {
            ranks: vec![vec![
                Event::Mark {
                    label: Mark::Step(3),
                },
                Event::Mark {
                    label: Mark::FrameEnd(2),
                },
            ]],
        };
        assert_eq!(serde_json::to_string(&t).unwrap(), json);
        assert_eq!(serde_json::from_str::<Trace>(json).unwrap(), t);
    }

    #[test]
    fn unknown_and_non_canonical_labels_are_refused() {
        for label in [
            "",
            "after",
            "start",
            "step:",
            "step:x",
            "step:07",
            "step:+7",
            "step:4294967296",
            "frame:3",
            "frame:3:middle",
            "frame::start",
            "frame:03:end",
            "compose:started",
            "Compose:start",
        ] {
            let named = format!("`{label}`");
            let parsed = label.parse::<Mark>().unwrap_err();
            assert!(parsed.0.contains(&named), "{label}: {parsed}");
            let json = format!(r#"{{"ranks":[[{{"Mark":{{"label":"{label}"}}}}]]}}"#);
            let peer = serde_json::from_str::<Trace>(&json).unwrap_err();
            assert!(peer.0.contains(&named), "{label}: {peer}");
        }
    }
}
